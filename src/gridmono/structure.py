"""Consistent pairs, cover graphs, conflict-free decomposition and routing.

The machinery works over an abstract graded poset so that hand-built DAG
fixtures and the augmented hypergrid share one code path.  All operations
enumerate, so they are desk-scale only.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CapacityError, IntegrityError, NotGoodError
from .func import BoolFunc
from .grid import (
    LOWER,
    UNMATCHED,
    UPPER,
    GridShape,
    MatchingId,
    _directed_distance,
    _point_tuples,
    aug_up_neighbors,
    check_matching_id,
    check_point,
    linear_index,
    point_of,
    points,
)

POSET_CAPACITY = 4096


class Poset:
    """Directed graded order: distances plus one-step upward neighbours."""

    def vertices(self) -> Iterable:
        raise NotImplementedError

    def dist(self, u, v) -> Optional[int]:
        raise NotImplementedError

    def up_neighbors(self, u) -> Iterable:
        raise NotImplementedError

    def between(self, lo, hi) -> Iterable:
        """Vertices z with lo <= z <= hi; default scans the whole universe."""
        for z in self.vertices():
            if self.dist(lo, z) is not None and self.dist(z, hi) is not None:
                yield z

    def _check_vertices(self, vertices: Iterable) -> None:
        """ValueError unless each is a vertex of the poset; this default
        checks nothing."""

    def _cover_graph(self, pairs: tuple, ell: int) -> "CoverGraph":
        """build_cover_graph of the pairs' starts and ends."""
        return build_cover_graph(self, [s for s, _ in pairs], [t for _, t in pairs], ell)

    def _consistent_pair(self, pairs: tuple, ell: int) -> "ConsistentPair":
        return consistent_pair(self, pairs, ell)


class GridPoset(Poset):
    """The augmented hypergrid as a poset.

    It builds each pair tuple's cover graph and consistent pair once, on
    first use, and hands the same objects out after that: decompositions of
    many functions on one shape meet the same pair tuples again and again.
    Callers must not mutate them.
    """

    def __init__(self, shape: GridShape):
        if shape.size > POSET_CAPACITY:
            raise CapacityError("grid poset", shape.size, POSET_CAPACITY)
        self.shape = shape
        self._built: Dict[tuple, object] = {}   # (builder, pairs, ell) -> what it built

    def _cover_graph(self, pairs, ell):
        return self._once(Poset._cover_graph, pairs, ell)

    def _consistent_pair(self, pairs, ell):
        return self._once(Poset._consistent_pair, pairs, ell)

    def _once(self, build, pairs: tuple, ell: int):
        key = build, pairs, ell
        if key not in self._built:
            self._built[key] = build(self, pairs, ell)
        return self._built[key]

    def vertices(self):
        return points(self.shape)

    def dist(self, u, v):
        """Directed distance of two grid points, unchecked: the functions
        below check their pairs' ends once, and every other point they ask
        about comes from between()."""
        return _directed_distance(u, v)

    def up_neighbors(self, u):
        return aug_up_neighbors(self.shape, u)

    def between(self, lo, hi):
        if not all(a <= b for a, b in zip(lo, hi)):
            return
        for rev in itertools.product(*[range(a, b + 1) for a, b in zip(reversed(lo), reversed(hi))]):
            yield rev[::-1]

    def _check_vertices(self, vertices):
        for z in vertices:
            check_point(self.shape, z)


class ExplicitPoset(Poset):
    """A hand-built DAG with distances = directed shortest paths."""

    def __init__(self, num_vertices: int, arcs: Sequence[Tuple[int, int]]):
        if num_vertices > POSET_CAPACITY:
            raise CapacityError("explicit poset", num_vertices, POSET_CAPACITY, "vertices")
        self.n = num_vertices
        self.adj: List[List[int]] = [[] for _ in range(num_vertices)]
        for u, v in arcs:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"arc ({u}, {v}) out of range")
            self.adj[u].append(v)
        self._dist = [self._bfs(s) for s in range(num_vertices)]
        for s in range(num_vertices):
            for v in self.adj[s]:
                if self._dist[v][s] is not None:
                    raise ValueError("arc set contains a cycle")

    def _bfs(self, s: int) -> List[Optional[int]]:
        dist: List[Optional[int]] = [None] * self.n
        dist[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for v in self.adj[u]:
                if dist[v] is None:
                    dist[v] = dist[u] + 1
                    q.append(v)
        return dist

    def vertices(self):
        return range(self.n)

    def dist(self, u, v):
        return self._dist[u][v]

    def up_neighbors(self, u):
        return self.adj[u]


@dataclass(frozen=True)
class ConsistentPair:
    """Equal sets S, T with a bijection matching every s to a t at distance ell."""

    S: tuple
    T: tuple
    ell: int
    phi: tuple  # (s, t) pairs realizing the bijection


def consistent_pair(poset: Poset, pairs: Sequence[Tuple], ell: Optional[int] = None) -> ConsistentPair:
    """Validate a pair list into a ConsistentPair; distances must all equal ell."""
    if not pairs:
        raise ValueError("need at least one pair")
    poset._check_vertices(z for pair in pairs for z in pair)
    if ell is None:
        ell = poset.dist(pairs[0][0], pairs[0][1])
    S = tuple(s for s, _ in pairs)
    T = tuple(t for _, t in pairs)
    if len(set(S)) != len(S) or len(set(T)) != len(T):
        raise ValueError("pairs must have distinct endpoints")
    for s, t in pairs:
        if poset.dist(s, t) != ell:
            raise ValueError(f"pair ({s}, {t}) is not at distance {ell}")
    return ConsistentPair(S, T, ell, tuple(pairs))


@dataclass(frozen=True)
class CoverGraph:
    """Union of all length-ell shortest S -> T paths, with level annotations.

    A vertex may carry several levels when the pair is not layered; `levels`
    maps each vertex to the sorted tuple of levels it appears at.
    """

    ell: int
    levels: dict            # vertex -> tuple of levels
    arcs: frozenset         # (u, v) single poset steps on some qualifying path
    level_sets: tuple       # L_0..L_ell as frozensets

    @property
    def vertices(self) -> frozenset:
        return frozenset(self.levels)


def build_cover_graph(poset: Poset, S: Sequence, T: Sequence, ell: int) -> CoverGraph:
    """z is at level j iff some (s, t) at distance ell has dist(s, z) = j and
    dist(z, t) = ell - j; arcs are the single steps between such members of
    one (s, t) at consecutive levels."""
    if ell <= 0:
        raise ValueError("ell must be positive")
    poset._check_vertices(itertools.chain(S, T))
    levels: Dict[object, set] = {}
    arcs = set()
    sets: List[set] = [set() for _ in range(ell + 1)]
    for s in S:
        for t in T:
            if poset.dist(s, t) != ell:
                continue
            members = {z: ds for z in poset.between(s, t)
                       if (ds := poset.dist(s, z)) + poset.dist(z, t) == ell}
            for u, du in members.items():
                levels.setdefault(u, set()).add(du)
                sets[du].add(u)
                for v in poset.up_neighbors(u):
                    if members.get(v) == du + 1:
                        arcs.add((u, v))
    return CoverGraph(
        ell,
        {z: tuple(sorted(ls)) for z, ls in levels.items()},
        frozenset(arcs),
        tuple(frozenset(s) for s in sets),
    )


def cover_is_layered(cover: CoverGraph) -> bool:
    return (all(len(ls) == 1 for ls in cover.levels.values())
            and all(cover.levels[v][0] == cover.levels[u][0] + 1 for u, v in cover.arcs))


def _check_disjoint_ends(pairs: Sequence[Tuple]) -> None:
    ends = [z for pair in pairs for z in pair]
    if len(set(ends)) != len(ends):
        raise ValueError("pairs must not share an endpoint")


def _share_a_level(c1: CoverGraph, c2: CoverGraph) -> bool:
    """Do the covers hold a common vertex at the same level?  Levels 0 and
    ell hold only endpoints, so they never fire for vertex-disjoint pair-sets;
    that is enforced, not assumed."""
    for j, (L1, L2) in enumerate(zip(c1.level_sets, c2.level_sets)):
        if L1 & L2:
            if j in (0, c1.ell):
                raise IntegrityError(f"disjoint pair-sets share a level-{j} vertex")
            return True
    return False


def conflicts(poset: Poset, C1: Sequence[Tuple], C2: Sequence[Tuple], ell: int) -> bool:
    """Do shortest paths of the two pair-sets meet at a shared vertex at the
    same level?"""
    _check_disjoint_ends([*C1, *C2])
    return _share_a_level(*(build_cover_graph(poset, [s for s, _ in C], [t for _, t in C], ell)
                            for C in (C1, C2)))


def conflict_free_decompose(poset: Poset, pairs: Sequence[Tuple],
                            ell: int) -> List[Tuple[ConsistentPair, CoverGraph]]:
    """Merge pair-sets along conflict-graph components until conflict-free.

    Starts from singletons, repeatedly unions the connected components of
    the conflict graph, and stops when no two survivor sets conflict.  The
    outputs partition the input pairs, each with its cover graph; a round
    builds covers only for the sets it merged.
    """
    poset._check_vertices(z for pair in pairs for z in pair)
    for s, t in pairs:
        if poset.dist(s, t) != ell:
            raise ValueError(f"pair ({s}, {t}) is not at distance {ell}")
    _check_disjoint_ends(pairs)

    def group(members: tuple) -> Tuple[tuple, CoverGraph]:
        return members, poset._cover_graph(members, ell)

    groups = [group((p,)) for p in pairs]
    while len(groups) > 1:
        k = len(groups)
        # only covers with a common vertex can share a level
        owners: Dict[object, List[int]] = {}
        for a, (_, cover) in enumerate(groups):
            for z in cover.levels:
                owners.setdefault(z, []).append(a)
        meeting = {ab for ids in owners.values() for ab in itertools.combinations(ids, 2)}
        edges = [(a, b) for a, b in sorted(meeting)
                 if _share_a_level(groups[a][1], groups[b][1])]
        if not edges:
            break
        parent = list(range(k))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a, b in edges:
            parent[find(a)] = find(b)
        merged: Dict[int, List[int]] = {}
        for a in range(k):
            merged.setdefault(find(a), []).append(a)
        groups = [groups[ids[0]] if len(ids) == 1
                  else group(tuple(p for a in ids for p in groups[a][0]))
                  for _, ids in sorted(merged.items())]
    return [(poset._consistent_pair(members, ell), cover) for members, cover in groups]


def covers_disjoint(c1: CoverGraph, c2: CoverGraph) -> bool:
    return not (c1.vertices & c2.vertices)


def route_disjoint_paths(cover: CoverGraph, pair: ConsistentPair) -> List[tuple]:
    """Exactly |S| vertex-disjoint length-ell paths inside the pair's cover graph.

    Unit-capacity max flow after vertex splitting.  A shortfall would
    contradict the routing guarantee for layered pairs, so it raises
    IntegrityError rather than returning a partial answer.
    """
    if not cover_is_layered(cover):
        raise NotGoodError("pair is not layered; routing undefined")
    verts = sorted(cover.vertices, key=repr)
    pos = {v: k for k, v in enumerate(verts)}
    nv = len(verts)
    # Node ids: in(v) = 2k, out(v) = 2k+1, then source and sink.
    source, sink = 2 * nv, 2 * nv + 1
    graph: List[List[list]] = [[] for _ in range(2 * nv + 2)]

    def add_edge(u: int, v: int) -> None:
        graph[u].append([v, 1, len(graph[v])])
        graph[v].append([u, 0, len(graph[u]) - 1])

    for v in verts:
        add_edge(2 * pos[v], 2 * pos[v] + 1)
    for u, v in cover.arcs:
        add_edge(2 * pos[u] + 1, 2 * pos[v])
    for s in pair.S:
        add_edge(source, 2 * pos[s])
    for t in pair.T:
        add_edge(2 * pos[t] + 1, sink)

    flow = 0
    while True:
        parent: Dict[int, tuple] = {source: None}
        q = deque([source])
        while q and sink not in parent:
            u = q.popleft()
            for e in graph[u]:
                if e[1] > 0 and e[0] not in parent:
                    parent[e[0]] = (u, e)
                    q.append(e[0])
        if sink not in parent:
            break
        node = sink
        while parent[node] is not None:
            u, e = parent[node]
            e[1] -= 1
            graph[e[0]][e[2]][1] += 1
            node = u
        flow += 1

    if flow != len(pair.S):
        raise IntegrityError(
            f"routed only {flow} of {len(pair.S)} paths through a layered pair")

    # Unit capacities: a forward arc carried flow iff its capacity hit 0.
    succ = {}
    for u, v in cover.arcs:
        u_out = 2 * pos[u] + 1
        for e in graph[u_out]:
            if e[0] == 2 * pos[v] and e[1] == 0:
                succ[u] = v
    targets = set(pair.T)
    paths = []
    for s in pair.S:
        path = [s]
        while path[-1] not in targets:
            cur = path[-1]
            if cur not in succ:
                raise IntegrityError("flow decomposition failed")
            path.append(succ.pop(cur))
        if len(path) != pair.ell + 1:
            raise IntegrityError(f"routed path has length {len(path) - 1}, not {pair.ell}")
        paths.append(tuple(path))
    return paths


def degree_monotonicity_check(cover: CoverGraph) -> bool:
    """Out-degrees never grow and in-degrees never shrink along reachability."""
    in_deg: Dict[object, int] = {v: 0 for v in cover.levels}
    succ: Dict[object, list] = {v: [] for v in cover.levels}
    for u, v in cover.arcs:
        in_deg[v] += 1
        succ[u].append(v)
    for u in cover.levels:
        reach = set()
        stack = list(succ[u])
        while stack:
            w = stack.pop()
            if w in reach:
                continue
            reach.add(w)
            stack.extend(succ[w])
        for v in reach:
            if len(succ[u]) < len(succ[v]) or in_deg[u] > in_deg[v]:
                return False
    return True


def layer_size_dichotomy(cover: CoverGraph, m: int) -> bool:
    """|L_1| >= m or |L_(ell-1)| >= m; the handle the routing induction grabs."""
    return len(cover.level_sets[1]) >= m or len(cover.level_sets[cover.ell - 1]) >= m


@dataclass(frozen=True)
class PairClasses:
    cross: tuple
    straight: tuple
    skew: tuple


H_VIOLATION = "h_violation"
STRAIGHT_UNMATCHED = "straight_unmatched"


@dataclass(frozen=True)
class AltSequence:
    points: tuple
    terminal: str
    violation_edge: Optional[tuple]  # (lower, upper) when terminal is a violation


# The array form's codes: a pair's class (the order of PairClasses' fields),
# a point's role in a matching (an index into _ROLES), and a walk's
# terminal, its end (an index into _ENDS) or the integrity failure that
# stopped it.
_CROSS, _STRAIGHT, _SKEW = range(3)
_ROLES = (LOWER, UPPER, UNMATCHED)
_LOWER, _UPPER, _UNMATCHED = range(3)
_ENDS = (H_VIOLATION, STRAIGHT_UNMATCHED)
_AT_VIOLATION, _AT_UNMATCHED, _BAD_START, _BAD_ROLE, _BAD_VALUE, _REVISIT = range(6)


def _matching_columns(matchings: Sequence[MatchingId]) -> Tuple[np.ndarray, ...]:
    """(dim, exp, parity) of each matching, as three int64 columns."""
    ids = np.array([(m.dim, m.exp, m.parity) for m in matchings], dtype=np.int64)
    return tuple(ids.reshape(-1, 3).T)


def _coordinates(shape: GridShape, index: np.ndarray, dim: np.ndarray) -> np.ndarray:
    """Coordinate dim[k] of each linear index, as a (len(index), len(dim)) array."""
    return index[:, None] // shape.n ** dim % shape.n


def _pair_indices(shape: GridShape, pair_sets: Sequence[Sequence[Tuple]]) -> Tuple[np.ndarray, ...]:
    """(owner, lo, hi): each pair of each set, in order, as its set's position
    and the linear indices of its two ends."""
    ends = np.array([z for pairs in pair_sets for pair in pairs for z in pair],
                    dtype=np.int64).reshape(-1, 2, shape.d)
    if ends.size and not (0 <= ends.min() and ends.max() < shape.n):
        raise ValueError(f"pair coordinate out of range [0, {shape.n})")
    index = ends @ shape.n ** np.arange(shape.d)
    owner = np.repeat(np.arange(len(pair_sets)), [len(pairs) for pairs in pair_sets])
    return owner, index[:, 0], index[:, 1]


def _pair_classes(shape: GridShape, lo: np.ndarray, hi: np.ndarray,
                  matchings: Sequence[MatchingId]) -> np.ndarray:
    """The class code of each pair (lo[k], hi[k]) against each matching, as a
    (pairs, matchings) int8 array.

    Sides are the residue-determined ones: x is on the lower side of m when
    bit exp of its m.dim coordinate equals m.parity.  A pair crosses m when
    x is on the lower side and the step 2^exp appears in the binary gap of
    the m.dim coordinates, i.e. some shortest x -> y path steps along an
    edge of m from x's side; otherwise it is straight when both ends share
    a side and skew when they do not.
    """
    dim, exp, parity = _matching_columns(matchings)
    x, y = _coordinates(shape, lo, dim), _coordinates(shape, hi, dim)
    gap = y - x
    lower_x, lower_y = x >> exp & 1 == parity, y >> exp & 1 == parity
    cross = (gap >= 0) & (gap >> exp & 1 == 1) & lower_x
    return np.where(cross, _CROSS, np.where(lower_x == lower_y, _STRAIGHT, _SKEW)).astype(np.int8)


def _matching_roles(shape: GridShape, matchings: Sequence[MatchingId]) -> Tuple[np.ndarray, ...]:
    """classify_in_matching of every point in every matching, as (matchings,
    n^d) arrays of role codes and of partners' linear indices (-1 when
    unmatched)."""
    for m in matchings:
        check_matching_id(shape, m)
    dim, exp, parity = (c[:, None] for c in _matching_columns(matchings))
    index = np.arange(shape.size)
    v = _coordinates(shape, index, dim[:, 0]).T
    step = 1 << exp
    lower = v >> exp & 1 == parity          # the residue side
    matched = np.where(lower, v + step < shape.n, v >= step)
    role = np.where(matched, np.where(lower, _LOWER, _UPPER), _UNMATCHED).astype(np.int8)
    partner = np.where(matched, index + np.where(lower, step, -step) * shape.n ** dim, -1)
    return role, partner


def _partners(size: int, owner: np.ndarray, lo: np.ndarray, hi: np.ndarray,
              instances: int) -> np.ndarray:
    """(instances, size) array: the other end of the pair through each point
    of each instance, or -1."""
    partner = np.full(instances * size, -1, dtype=np.int64)
    ends = np.concatenate((owner * size + lo, owner * size + hi))
    if len(np.unique(ends)) != len(ends):
        raise ValueError("pairs must be vertex-disjoint")
    partner[ends] = np.concatenate((hi, lo))
    return partner.reshape(instances, size)


@dataclass(frozen=True)
class _Walks:
    """alternating_sequence of many walks, as arrays with one row a walk."""

    points: np.ndarray     # (walks, longest) linear indices in walk order, -1 past the end
    terminal: np.ndarray   # index into _ENDS, or the failure code
    edge: np.ndarray       # (walks, 2) the violated m-edge of an H_VIOLATION walk, else -1
    failure: np.ndarray    # (walks, 2) a failed walk's step and its role code or point

    def message(self, shape: GridShape, w: int) -> str:
        """The IntegrityError message of failed walk w."""
        code = self.terminal[w]
        step, at = self.failure[w].tolist()
        if code == _BAD_START:
            return f"walk must start at a 1-point, got f({point_of(shape, at)}) = 0"
        if code == _BAD_ROLE:
            expected = LOWER if step % 4 == 0 else UPPER
            return f"step {step}: expected {expected} endpoint, found {_ROLES[at]}"
        if code == _BAD_VALUE:
            return f"step {step}: value pattern broken at {point_of(shape, at)}"
        return "walk revisited a point"

    def sequence(self, shape: GridShape, w: int) -> AltSequence:
        """Walk w as an AltSequence; IntegrityError if it failed."""
        if self.terminal[w] > _AT_UNMATCHED:
            raise IntegrityError(self.message(shape, w))
        row = self.points[w]
        points = tuple(_point_tuples(shape, row[row >= 0]))
        terminal = _ENDS[self.terminal[w]]
        edge = tuple(_point_tuples(shape, self.edge[w])) if terminal == H_VIOLATION else None
        return AltSequence(points, terminal, edge)


def _walk(tables: np.ndarray, partner: np.ndarray, role: np.ndarray, m_partner: np.ndarray,
          instance: np.ndarray, matching: np.ndarray, start: np.ndarray) -> _Walks:
    """alternating_sequence from each start[w] on the table and pairs of
    instance[w] against matching[w], every walk in lockstep.

    tables and partner are (instances, n^d) arrays (bits and _partners),
    role and m_partner are _matching_roles.  Step j of every live walk runs
    at once: even steps follow the matching, odd steps the pair through the
    current point.  A walk stops at its terminal or its first integrity
    failure, in the order the scalar walk checks them; a per-walk seen mask
    catches a revisited point.
    """
    walks, size = len(start), tables.shape[1]
    terminal = np.full(walks, -1, dtype=np.int8)
    edge = np.full((walks, 2), -1, dtype=np.int64)
    failure = np.zeros((walks, 2), dtype=np.int64)
    seen = np.zeros((walks, size), dtype=bool)
    seen[np.arange(walks), start] = True
    columns = [start]
    bad = tables[instance, start] != 1
    terminal[bad], failure[bad, 1] = _BAD_START, start[bad]
    alive = np.flatnonzero(terminal < 0)
    cur = start[alive]
    j = 0
    while len(alive):
        i, m = instance[alive], matching[alive]
        found = role[m, cur]
        if j % 2 == 0:
            nxt = m_partner[m, cur]
            expected = _LOWER if j % 4 == 0 else _UPPER
            wrong = found != expected
            terminal[alive[wrong]] = _BAD_ROLE
            failure[alive[wrong]] = np.column_stack((np.full(wrong.sum(), j), found[wrong]))
            lo, hi = (cur, nxt) if expected == _LOWER else (nxt, cur)
            hit = ~wrong & (tables[i, lo] == 1) & (tables[i, hi] == 0)
            revisit = hit & seen[alive, nxt]
            terminal[alive[hit]] = np.where(revisit[hit], _REVISIT, _AT_VIOLATION)
            last = hit & ~revisit              # the violation's far end joins the walk
            edge[alive[last]] = np.column_stack((lo[last], hi[last]))
            go = ~wrong & ~hit
        else:
            nxt = partner[i, cur]
            go = (nxt >= 0) & (found != _UNMATCHED) & (found == role[m, nxt])
            terminal[alive[~go]] = _AT_UNMATCHED
            last = np.zeros_like(go)
        expected_value = 1 if (j + 1) % 4 in (0, 1) else 0
        broken = go & (tables[i, nxt] != expected_value)
        terminal[alive[broken]] = _BAD_VALUE
        failure[alive[broken]] = np.column_stack((np.full(broken.sum(), j + 1), nxt[broken]))
        revisit = go & ~broken & seen[alive, nxt]
        terminal[alive[revisit]] = _REVISIT
        go &= ~broken & ~revisit
        column = np.full(walks, -1, dtype=np.int64)
        column[alive[go | last]] = nxt[go | last]
        columns.append(column)
        seen[alive[go], nxt[go]] = True
        alive, cur = alive[go], nxt[go]
        j += 1
    return _Walks(np.column_stack(columns), terminal, edge, failure)


@dataclass(frozen=True)
class AlternatingWalks:
    """alternating_summary of many instances against many matchings on one shape.

    Pairs are those of every instance in order; walks start from each cross
    pair, ordered by instance, then matching, then pair.
    """

    classes: np.ndarray         # (pairs, matchings) class codes
    pair: np.ndarray            # cross pair each walk starts from
    matching: np.ndarray        # matching index of each walk
    walks: _Walks
    cross: np.ndarray           # (instances, matchings) cross pairs
    violations: np.ndarray      # (instances, matchings) distinct terminal violations
    first_failure: np.ndarray   # (instances, matchings) first failed walk, or -1


def alternating_walks(shape: GridShape, tables: np.ndarray, pair_sets: Sequence[Sequence[Tuple]],
                      matchings: Sequence[MatchingId]) -> AlternatingWalks:
    """Classify every pair of instance k (the (lower, upper) pairs
    pair_sets[k] of the function whose bits are tables[k]) against every
    matching, and walk from every cross pair: all instances and matchings
    in one lockstep walk.  Distinct violations are counted per (instance,
    matching) over the distinct (instance, matching, lower, upper) ends."""
    tables = np.asarray(tables)
    instances, size = tables.shape
    owner, lo, hi = _pair_indices(shape, pair_sets)
    classes = _pair_classes(shape, lo, hi, matchings)
    pair, matching = np.nonzero(classes == _CROSS)
    order = np.lexsort((pair, matching, owner[pair]))
    pair, matching = pair[order], matching[order]
    walks = _walk(tables, _partners(size, owner, lo, hi, instances),
                  *_matching_roles(shape, matchings), owner[pair], matching, lo[pair])
    cell = owner[pair] * len(matchings) + matching     # (instance, matching) of each walk
    cells = instances * len(matchings)
    hit = walks.terminal == _AT_VIOLATION
    ends = np.unique((cell[hit] * size + walks.edge[hit, 0]) * size + walks.edge[hit, 1])
    failed = np.flatnonzero(walks.terminal > _AT_UNMATCHED)
    first_failure = np.full(cells, -1, dtype=np.int64)
    failed_cells, first = np.unique(cell[failed], return_index=True)
    first_failure[failed_cells] = failed[first]
    grid = instances, len(matchings)
    return AlternatingWalks(
        classes, pair, matching, walks,
        np.bincount(cell, minlength=cells).reshape(grid),
        np.bincount(ends // (size * size), minlength=cells).reshape(grid),
        first_failure.reshape(grid))


def _classes_of(pairs: Sequence[Tuple], codes: np.ndarray) -> PairClasses:
    """The pairs split by their class codes, each class in pair order."""
    codes = codes.tolist()
    return PairClasses(*(tuple(p for p, c in zip(pairs, codes) if c == code)
                         for code in (_CROSS, _STRAIGHT, _SKEW)))


def pair_crosses(shape: GridShape, x, y, m: MatchingId) -> bool:
    """Does some shortest x -> y path step along an edge of m, starting from
    the matching side that x itself occupies?  See _pair_classes."""
    _, lo, hi = _pair_indices(shape, [[(x, y)]])
    return bool(_pair_classes(shape, lo, hi, [m])[0, 0] == _CROSS)


def classify_pairs(pairs: Sequence[Tuple], m: MatchingId, f: BoolFunc) -> PairClasses:
    """Partition pairs into cross / straight / skew relative to matching m.

    Sides are the residue-determined ones (every point is on exactly one
    side), so the three classes partition any pair set; see _pair_classes.
    """
    pairs = tuple(pairs)
    _, lo, hi = _pair_indices(f.shape, [pairs])
    return _classes_of(pairs, _pair_classes(f.shape, lo, hi, [m])[:, 0])


def alternating_sequence(x, m: MatchingId, pairs: Sequence[Tuple], f: BoolFunc) -> AltSequence:
    """Walk matching-edge / straight-pair steps from the start of a cross pair.

    Even steps follow the edge matching m and stop on a violated m-edge;
    odd steps follow the pair of `pairs` through the current point when that
    pair keeps both endpoints on one matched side of m, and stop otherwise.
    The expected value/side pattern repeats with period four and is enforced;
    a revisited point means the structural claims failed.  The one-walk view
    of _walk.
    """
    shape = f.shape
    owner, lo, hi = _pair_indices(shape, [pairs])
    first = np.zeros(1, dtype=np.int64)    # the only instance and matching
    walks = _walk(f.bits[None], _partners(shape.size, owner, lo, hi, 1),
                  *_matching_roles(shape, [m]), first, first, np.array([linear_index(shape, x)]))
    return walks.sequence(shape, 0)


def alternating_summary(pairs: Sequence[Tuple], m: MatchingId, f: BoolFunc):
    """Run every cross start; report sequences and distinct terminal violations.
    The one-row view of alternating_walks."""
    pairs = tuple(pairs)
    batch = alternating_walks(f.shape, f.bits[None], [pairs], [m])
    sequences = [batch.walks.sequence(f.shape, w) for w in range(len(batch.pair))]
    violations = {s.violation_edge for s in sequences if s.terminal == H_VIOLATION}
    return _classes_of(pairs, batch.classes[:, 0]), sequences, violations
