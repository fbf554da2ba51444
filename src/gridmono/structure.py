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

from .errors import CapacityError, IntegrityError, NotGoodError
from .func import BoolFunc
from .grid import (
    LOWER,
    UPPER,
    GridShape,
    MatchingId,
    _directed_distance,
    aug_up_neighbors,
    check_point,
    classify_in_matching,
    points,
    side_in_matching,
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


def pair_crosses(shape: GridShape, x, y, m: MatchingId) -> bool:
    """Does some shortest x -> y path step along an edge of m, starting from
    the matching side that x itself occupies?

    Equivalent bit form: the step length of m appears in the binary gap of
    the m-dimension coordinates and x sits on the lower side of m.
    """
    gap = y[m.dim] - x[m.dim]
    if gap < 0 or not gap >> m.exp & 1:
        return False
    return side_in_matching(shape, x, m) == LOWER


def classify_pairs(pairs: Sequence[Tuple], m: MatchingId, f: BoolFunc) -> PairClasses:
    """Partition pairs into cross / straight / skew relative to matching m.

    Sides are the residue-determined ones (every point is on exactly one
    side), so the three classes partition any pair set.
    """
    shape = f.shape
    cross, straight, skew = [], [], []
    for x, y in pairs:
        if pair_crosses(shape, x, y, m):
            cross.append((x, y))
        elif side_in_matching(shape, x, m) == side_in_matching(shape, y, m):
            straight.append((x, y))
        else:
            skew.append((x, y))
    return PairClasses(tuple(cross), tuple(straight), tuple(skew))


H_VIOLATION = "h_violation"
STRAIGHT_UNMATCHED = "straight_unmatched"


@dataclass(frozen=True)
class AltSequence:
    points: tuple
    terminal: str
    violation_edge: Optional[tuple]  # (lower, upper) when terminal is a violation


def alternating_sequence(x, m: MatchingId, pairs: Sequence[Tuple], f: BoolFunc) -> AltSequence:
    """Walk matching-edge / straight-pair steps from the start of a cross pair.

    Even steps follow the edge matching m and stop on a violated m-edge;
    odd steps follow the pair of `pairs` through the current point when that
    pair keeps both endpoints on one matched side of m, and stop otherwise.
    The expected value/side pattern repeats with period four and is enforced;
    a revisited point means the structural claims failed.
    """
    shape = f.shape
    partner_of = {}
    for a, b in pairs:
        if a in partner_of or b in partner_of:
            raise ValueError("pairs must be vertex-disjoint")
        partner_of[a] = b
        partner_of[b] = a

    if f.eval(x) != 1:
        raise IntegrityError(f"walk must start at a 1-point, got f({x}) = 0")
    seq = [x]
    seen = {x}
    j = 0
    current = x
    while True:
        if j % 2 == 0:
            role, partner = classify_in_matching(shape, current, m)
            expected_role = LOWER if j % 4 == 0 else UPPER
            if role != expected_role:
                raise IntegrityError(
                    f"step {j}: expected {expected_role} endpoint, found {role}")
            if partner is None:
                raise IntegrityError(f"step {j}: point {current} unmatched in m")
            lo, hi = (current, partner) if role == LOWER else (partner, current)
            if f.eval(lo) == 1 and f.eval(hi) == 0:
                if partner in seen:
                    raise IntegrityError("walk revisited a point")
                seq.append(partner)
                return AltSequence(tuple(seq), H_VIOLATION, (lo, hi))
            nxt = partner
        else:
            nxt = partner_of.get(current)
            if nxt is None:
                return AltSequence(tuple(seq), STRAIGHT_UNMATCHED, None)
            role_cur = classify_in_matching(shape, current, m)[0]
            if role_cur not in (LOWER, UPPER) or role_cur != classify_in_matching(shape, nxt, m)[0]:
                # the pair leaves the matched side: not a straight step
                return AltSequence(tuple(seq), STRAIGHT_UNMATCHED, None)
        expected_val = 1 if (j + 1) % 4 in (0, 1) else 0
        if f.eval(nxt) != expected_val:
            raise IntegrityError(f"step {j + 1}: value pattern broken at {nxt}")
        if nxt in seen:
            raise IntegrityError("walk revisited a point")
        seq.append(nxt)
        seen.add(nxt)
        current = nxt
        j += 1


def alternating_summary(pairs: Sequence[Tuple], m: MatchingId, f: BoolFunc):
    """Run every cross start; report sequences and distinct terminal violations."""
    classes = classify_pairs(pairs, m, f)
    sequences = [alternating_sequence(x, m, pairs, f) for x, _ in classes.cross]
    violations = {s.violation_edge for s in sequences if s.terminal == H_VIOLATION}
    return classes, sequences, violations
