"""Exact desk-scale oracles: violation graph, distance, influences, ratios.

Everything here enumerates the grid, so it is guarded by a point-count
capacity.  Distances between matched violation pairs use the directed
augmented-hypergrid metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import CapacityError, IntegrityError
from .func import BoolFunc, _check_bits, _table_blocks
from .grid import AugEdge, GridShape, _aug_edges, points

ORACLE_CAPACITY = 4096
BRUTE_FORCE_CAPACITY = 20

# Table cells per numpy call in the batch kernels: each temporary stays
# near 1 MB however many functions one call covers.
BATCH_CELLS = 1 << 17

# Set bits of every 16-bit value v = 256 hi + lo, as popcount(hi) + popcount(lo).
_POPCOUNT8 = np.array([v.bit_count() for v in range(256)], dtype=np.uint8)
_POPCOUNT16 = np.add.outer(_POPCOUNT8, _POPCOUNT8).ravel()


@dataclass(frozen=True)
class ShapeTables:
    """Per-shape enumeration shared by all exact oracles."""

    shape: GridShape
    points: tuple
    # (pairs, 3) int64 rows (lo_index, hi_index, directed distance) of the
    # strict pairs, in increasing lo_index, then hi_index
    comparable: np.ndarray
    aug_edges: tuple       # AugEdge k joins lo[k] to hi[k] of _aug_edges_by_lo(shape)


@lru_cache(maxsize=64)
def shape_tables(shape: GridShape) -> ShapeTables:
    if shape.size > ORACLE_CAPACITY:
        raise CapacityError("exact-oracle shape tables", shape.size, ORACLE_CAPACITY)
    pts = tuple(points(shape))
    edges = list(_aug_edges(shape))
    by_lo = [edges[k] for k in _aug_edges_by_lo(shape)[0].tolist()]
    aug = tuple(AugEdge(pts[lo], pts[hi], m) for lo, hi, m in by_lo)
    return ShapeTables(shape, pts, _comparable(shape), aug)


def _comparable(shape: GridShape) -> np.ndarray:
    """The rows of ShapeTables.comparable, as a product over the axes.

    x <= y iff a <= b on every axis, where a and b are their coordinates
    there, and the directed distance is the sum of popcount(b - a) over the
    axes.  Both are formed for a block of lo points at a time, against every
    hi point, from the per-axis gaps b - a: the block's nonzero cells, in
    row-major order, are its rows in order, and each temporary stays near
    BATCH_CELLS cells.
    """
    n, d, size = shape.n, shape.d, shape.size
    values = np.arange(n)
    popcount = np.array([v.bit_count() for v in range(n)], dtype=np.uint8)
    # a block is indexed (lo, y_{d-1}, ..., y_0): hi's coordinates, the most significant first
    axes = []
    for dim in range(d):
        view = [-1] + [1] * d
        view[d - dim] = n
        axes.append((n ** dim, view))
    # pairs x <= y in each coordinate, less the N pairs x = y
    comparable = np.empty(((n * (n + 1) // 2) ** d - size, 3), dtype=np.int64)
    end = 0
    step = max(1, BATCH_CELLS // size)
    for first in range(0, size, step):
        lo = np.arange(first, min(first + step, size))
        related = np.ones((len(lo),) + (n,) * d, dtype=bool)
        dist = np.zeros((len(lo),) + (n,) * d, dtype=np.uint8)
        for stride, view in axes:
            gap = values - (lo // stride % n)[:, None]
            related &= (gap >= 0).reshape(view)
            dist += popcount[np.maximum(gap, 0)].reshape(view)
        related = related.reshape(len(lo), size)
        related[np.arange(len(lo)), lo] = False
        cells = np.flatnonzero(related)
        rows = comparable[end:end + len(cells)]
        rows[:, 0], rows[:, 1] = np.divmod(cells, size)
        rows[:, 0] += first
        rows[:, 2] = dist.reshape(-1)[cells]
        end += len(cells)
    comparable.setflags(write=False)
    return comparable


def _bits_of(f: BoolFunc) -> np.ndarray:
    _check_oracle_capacity(f.shape)
    return f.bits


def _check_oracle_capacity(shape: GridShape) -> None:
    if shape.size > ORACLE_CAPACITY:
        raise CapacityError("exact oracle", shape.size, ORACLE_CAPACITY)


def _row_batches(rows: int, width: int) -> Iterator[slice]:
    """Row slices whose (rows, width) gathers hold about BATCH_CELLS cells."""
    step = max(1, BATCH_CELLS // max(width, 1))
    return (slice(start, start + step) for start in range(0, rows, step))


def hopcroft_karp(adj: List[List[int]], n_right: int,
                  start: Sequence[Tuple[int, int]] = ()) -> Tuple[int, List[int], List[int]]:
    """Maximum bipartite matching size plus both matched-partner arrays.

    adj[u] lists the right neighbours of left vertex u.  Unmatched slots
    hold -1.  The search grows the matching `start`, a list of (u, v) arcs;
    IntegrityError unless they are arcs with pairwise distinct ends.  By
    Berge's theorem the returned size equals len(start) iff `start` is
    already maximum, which the first phase shows.  Deterministic for a fixed
    adjacency order and start.
    """
    n_left = len(adj)
    INF = n_left + n_right + 1
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    dist = [0] * n_left
    for u, v in start:
        if not (0 <= u < n_left and v in adj[u]) or match_l[u] != -1 or match_r[v] != -1:
            raise IntegrityError(f"start pair ({u}, {v}) is not an arc of a matching")
        match_l[u] = v
        match_r[v] = u

    def bfs() -> bool:
        queue = []
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = False
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u: int) -> bool:
        for v in adj[u]:
            w = match_r[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_l[u] = v
                match_r[v] = u
                return True
        dist[u] = INF
        return False

    size = len(start)
    while bfs():
        for u in range(n_left):
            if match_l[u] == -1 and dfs(u):
                size += 1
    return size, match_l, match_r


@dataclass(frozen=True)
class ViolationGraph:
    ones: np.ndarray   # indices with f = 1
    zeros: np.ndarray  # indices with f = 0
    arcs: np.ndarray   # (arcs, 3) rows of comparable with f = 1 at lo_index, 0 at hi_index


def violation_graph(f: BoolFunc) -> ViolationGraph:
    t = _bits_of(f)
    comparable = shape_tables(f.shape).comparable
    arcs = comparable[t[comparable[:, 0]] > t[comparable[:, 1]]]
    return ViolationGraph(t.nonzero()[0], (t == 0).nonzero()[0], arcs)


def _adjacency(u: np.ndarray, v: np.ndarray, n_left: int) -> Tuple[List[List[int]], List[int]]:
    """adj[w] lists v[k] of the arcs k with u[k] == w, in arc order, and
    first[w] is the position of adj[w]'s first arc; u must be nondecreasing."""
    first = [0, *np.bincount(u, minlength=n_left).cumsum().tolist()]
    right = v.tolist()
    return [right[a:b] for a, b in zip(first, first[1:])], first


def _max_matching(u: np.ndarray, v: np.ndarray, n_left: int, n_right: int) -> List[int]:
    """Hopcroft-Karp over the arcs u[k] -> v[k], with u nondecreasing; each
    left vertex lists its arcs in the order given.

    Returns the positions k of the matched arcs, in increasing u[k].  The
    callers' left vertices are the 1-points in increasing index and their
    arcs run in increasing lo, so every witness depends only on the arc order.
    """
    adj, first = _adjacency(u, v, n_left)
    matched, match_l, _ = hopcroft_karp(adj, n_right)
    arcs = [first[w] + adj[w].index(x) for w, x in enumerate(match_l) if x != -1]
    if len(arcs) != matched:
        raise IntegrityError("matching size mismatch")
    return arcs


@dataclass(frozen=True)
class DistanceReport:
    eps: Fraction
    matching: tuple  # (lower point, upper point) violation pairs


def distance_to_monotonicity(f: BoolFunc) -> DistanceReport:
    """Distance via the maximum matching in the violation graph.

    For Boolean functions the minimum number of value changes equals the
    maximum violation matching; that equivalence is itself tested against
    brute_force_distance rather than assumed blindly.
    """
    vg = violation_graph(f)
    lo, hi = vg.arcs[:, 0], vg.arcs[:, 1]
    matched = vg.arcs[_max_matching(vg.ones.searchsorted(lo), hi, len(vg.ones), f.shape.size)]
    pts = shape_tables(f.shape).points
    pairs = tuple((pts[i], pts[j]) for i, j in matched[:, :2].tolist())
    return DistanceReport(Fraction(len(pairs), f.shape.size), pairs)


@lru_cache(maxsize=32)
def monotone_masks(shape: GridShape) -> tuple:
    """Bitmasks of every monotone function on a tiny grid: those with no
    violated augmented edge."""
    if shape.size > BRUTE_FORCE_CAPACITY:
        raise CapacityError("brute-force distance", shape.size, BRUTE_FORCE_CAPACITY)
    out = []
    for first, tables in _table_blocks(shape):
        violated, _ = edge_counts_batch(shape, tables)
        out.extend((first + (violated == 0).nonzero()[0]).tolist())
    return tuple(out)


def brute_force_batch(shape: GridShape, tables: np.ndarray) -> np.ndarray:
    """Fewest changed points to a monotone table, for each row of a
    (functions, n^d) bit array.

    Each row becomes the uint32 word whose bit k is its column k, as in
    BoolFunc.from_mask.  The minimum of popcount(word XOR g) over the
    monotone masks g is taken one block of rows at a time, so the whole
    functions x monotone matrix (18 MB at 4^2) is never formed.
    """
    monotone = np.array(monotone_masks(shape), dtype=np.uint32)
    tables = _checked_tables(shape, tables)
    words = (tables @ (1 << np.arange(shape.size, dtype=np.int64))).astype(np.uint32)
    best = np.empty(len(words), dtype=np.uint8)
    for rows in _row_batches(len(words), len(monotone)):
        changed = words[rows, None] ^ monotone
        best[rows] = (_POPCOUNT16[changed & 0xFFFF] + _POPCOUNT16[changed >> 16]).min(axis=1)
    return best


def brute_force_distance(f: BoolFunc) -> Fraction:
    """Independent oracle: minimum changed fraction over all monotone tables."""
    return Fraction(int(brute_force_batch(f.shape, _bits_of(f)[None])[0]), f.shape.size)


@lru_cache(maxsize=64)
def _aug_edges_by_lo(shape: GridShape) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, lo, hi): the lo and hi linear indices of every augmented
    edge, stably sorted by lo, where order[k] is the position in _aug_edges
    of sorted edge k."""
    pairs = np.array([(lo, hi) for lo, hi, _ in _aug_edges(shape)], dtype=np.intp).reshape(-1, 2)
    order = pairs[:, 0].argsort(kind="stable")
    lo, hi = pairs[order].T.copy()
    return order, lo, hi


def _checked_tables(shape: GridShape, tables) -> np.ndarray:
    """`tables` as uint8; ValueError unless it is a (functions, n^d) array of bits."""
    _check_oracle_capacity(shape)
    tables = np.asarray(tables)
    if tables.ndim != 2 or tables.shape[1] != shape.size:
        raise ValueError(f"tables must have shape (functions, {shape.size})")
    _check_bits(tables)
    return tables.astype(np.uint8, copy=False)


def _edge_masks(shape: GridShape, block: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(violated, upward) masks of the augmented edges, in _aug_edges_by_lo
    order, for each row of a block of tables; both ends are gathered once."""
    _, lo, hi = _aug_edges_by_lo(shape)
    below, above = block[:, lo], block[:, hi]
    return below > above, below < above


def edge_counts_batch(shape: GridShape, tables: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(|S_minus|, |S_plus|) of violated_aug_edges for each row of `tables`.

    `tables` is a (functions, n^d) array of bits; row k is the table of
    function k.
    """
    tables = _checked_tables(shape, tables)
    violated = np.empty(len(tables), dtype=np.int64)
    upward = np.empty(len(tables), dtype=np.int64)
    for rows in _row_batches(len(tables), len(_aug_edges_by_lo(shape)[1])):
        down, up = _edge_masks(shape, tables[rows])
        violated[rows] = down.sum(axis=1)
        upward[rows] = up.sum(axis=1)
    return violated, upward


def violated_aug_edges(f: BoolFunc) -> Tuple[List[AugEdge], List[AugEdge]]:
    """(S_minus, S_plus): violated and upward-sensitive augmented edges, by lower endpoint."""
    t = _bits_of(f)
    edges = shape_tables(f.shape).aug_edges
    _, lo, hi = _aug_edges_by_lo(f.shape)
    below, above = t[lo], t[hi]
    s_minus = [edges[k] for k in (below > above).nonzero()[0].tolist()]
    s_plus = [edges[k] for k in (below < above).nonzero()[0].tolist()]
    return s_minus, s_plus


@dataclass(frozen=True)
class GammaReport:
    gamma: Fraction
    witness: tuple   # vertex-disjoint violated AugEdges


def gamma_minus(f: BoolFunc) -> GammaReport:
    """Largest set of pairwise vertex-disjoint violated augmented edges.

    Violated edges run from 1-points to 0-points, so this is a bipartite
    matching problem.
    """
    t = _bits_of(f)
    _, lo, hi = _aug_edges_by_lo(f.shape)
    violated = (t[lo] > t[hi]).nonzero()[0]
    ones = t.nonzero()[0]
    picked = _max_matching(ones.searchsorted(lo[violated]), hi[violated], len(ones), f.shape.size)
    edges = shape_tables(f.shape).aug_edges
    witness = tuple(edges[k] for k in violated[picked].tolist())
    return GammaReport(Fraction(len(witness), f.shape.size), witness)


def _optimal_assignment(u: np.ndarray, v: np.ndarray, dist: np.ndarray, n_ones: int,
                        n_zeros: int, size: int) -> Tuple[List[Tuple[int, int]], List[int]]:
    """A maximum matching of the violation arcs u[k] -> v[k] (ranks of a
    1-point and a 0-point, u nondecreasing, at least one arc) that minimizes
    the total directed distance and, among those, maximizes the sum of
    squared distances: its (u, v) pairs in increasing u, and their distances.

    Encoded as one assignment solve with per-arc cost dist*K - dist^2,
    K = 1 + size * (max dist)^2, which makes the linear term dominate any
    squared-term variation.  The pairs the assignment keeps must be a
    maximum matching: they start a Hopcroft-Karp search, which must find
    no augmenting path, else IntegrityError.
    """
    dmax = max(dist.tolist())
    K = 1 + size * dmax * dmax
    forbid = float(min(n_ones, n_zeros) * dmax * K + 1)
    cost = np.full((n_ones, n_zeros), forbid)
    cost[u, v] = dist * (K - dist)
    rows, cols = linear_sum_assignment(cost)
    pairs, dists = [], []
    for one, zero, c in zip(rows.tolist(), cols.tolist(), cost[rows, cols].tolist()):
        if c < forbid:
            pairs.append((one, zero))
            # an arc's cost is (dist - 1) K + (K - dist^2), with 0 < K - dist^2 < K
            dists.append(int(c // K) + 1)
    adj, _ = _adjacency(u, v, n_ones)
    expected, _, _ = hopcroft_karp(adj, n_zeros, pairs)
    if len(pairs) != expected:
        raise IntegrityError(
            f"assignment kept {len(pairs)} pairs, maximum matching has {expected}")
    return pairs, dists


@dataclass(frozen=True)
class OptimalMatchingReport:
    pairs: tuple         # (lower point, upper point), f-violating
    r: Fraction          # average directed distance; 0 when empty
    psi: int             # sum of squared distances
    empty: bool


def optimal_matching(f: BoolFunc) -> OptimalMatchingReport:
    """A maximum violation matching minimizing the total directed distance
    and, among those, maximizing the sum of squared distances."""
    vg = violation_graph(f)
    if not len(vg.arcs):
        return OptimalMatchingReport((), Fraction(0), 0, True)
    lo, hi, dist = vg.arcs.T
    kept, dists = _optimal_assignment(vg.ones.searchsorted(lo), vg.zeros.searchsorted(hi), dist,
                                      len(vg.ones), len(vg.zeros), f.shape.size)
    ones, zeros, pts = vg.ones.tolist(), vg.zeros.tolist(), shape_tables(f.shape).points
    pairs = tuple((pts[ones[u]], pts[zeros[v]]) for u, v in kept)
    return OptimalMatchingReport(pairs, Fraction(sum(dists), len(pairs)),
                                 sum(x * x for x in dists), False)


@dataclass(frozen=True)
class InfluenceReport:
    I: Fraction
    I_plus: Fraction
    I_minus: Fraction
    gamma_minus: Fraction
    eps: Fraction
    r: Fraction
    sensitive_edges: int
    positive_edges: int
    violated_edges: int
    gamma_count: int
    matching_size: int


@dataclass(frozen=True)
class IsoperimetryReport:
    influence: InfluenceReport
    margulis_ratio: Optional[Fraction]
    edge_ratio: Optional[Fraction]
    vertex_ratio: Optional[Fraction]


@dataclass(frozen=True)
class IsoperimetrySweep:
    """Isoperimetry reports of many functions on one grid, one row per function.

    Every quantity is an integer count: the violated and upward augmented
    edges, Γ⁻ (the most vertex-disjoint violated edges), and the size and
    summed directed distance of the optimal matching.
    """

    size: int
    violated: List[int]
    upward: List[int]
    gamma: List[int]
    matched: List[int]
    total: List[int]

    def ratios(self, k: int) -> Tuple[Optional[Fraction], ...]:
        """Row k's (margulis, edge, vertex) ratios; all None when eps = 0.

        With m pairs, summed distance `total`, Γ⁻ count g and `neg` violated
        edges: margulis = I_minus gamma / eps^2 = neg g / m^2, edge =
        I_minus / (r eps) = neg / total, vertex = gamma r / eps = g total / m^2.
        """
        m = self.matched[k]
        if not m:
            return None, None, None
        neg, g, total = self.violated[k], self.gamma[k], self.total[k]
        return Fraction(neg * g, m * m), Fraction(neg, total), Fraction(g * total, m * m)

    def report(self, k: int) -> IsoperimetryReport:
        size, neg, pos = self.size, self.violated[k], self.upward[k]
        g, m, total = self.gamma[k], self.matched[k], self.total[k]
        influence = InfluenceReport(
            I=Fraction(neg + pos, size),
            I_plus=Fraction(pos, size),
            I_minus=Fraction(neg, size),
            gamma_minus=Fraction(g, size),
            eps=Fraction(m, size),
            r=Fraction(total, m) if m else Fraction(0),
            sensitive_edges=neg + pos,
            positive_edges=pos,
            violated_edges=neg,
            gamma_count=g,
            matching_size=m,
        )
        return IsoperimetryReport(influence, *self.ratios(k))


def isoperimetry_sweep(shape: GridShape, tables: np.ndarray) -> IsoperimetrySweep:
    """Exact influence counts, Γ⁻ and the optimal matching of each row of a
    (functions, n^d) bit array.

    The edge and violation masks and the ranks of the 1- and 0-points are
    taken for a block of rows at once; each row then runs Hopcroft-Karp for
    Γ⁻ and one checked assignment solve (see _optimal_assignment).
    """
    tables = _checked_tables(shape, tables)
    comparable = shape_tables(shape).comparable
    lo, hi, dist = comparable[:, 0], comparable[:, 1], comparable[:, 2]
    _, edge_lo, edge_hi = _aug_edges_by_lo(shape)
    size = shape.size
    violated: List[int] = []
    upward: List[int] = []
    gamma: List[int] = []
    matched: List[int] = []
    total: List[int] = []
    for rows in _row_batches(len(tables), max(len(comparable), len(edge_lo), size)):
        block = tables[rows]
        ones_upto = block.cumsum(axis=1, dtype=np.int64)
        rank_one, rank_zero = ones_upto - 1, np.arange(size) - ones_upto
        n_ones = ones_upto[:, -1].tolist()
        down, up = _edge_masks(shape, block)
        violated.extend(down.sum(axis=1).tolist())
        upward.extend(up.sum(axis=1).tolist())
        # the arcs of all rows, row by row and in arc order within a row;
        # row r's are at positions [at[r], at[r + 1])
        row, k = down.nonzero()
        edge_u, edge_v = rank_one[row, edge_lo[k]], edge_hi[k]
        edge_at = [0, *np.bincount(row, minlength=len(block)).cumsum().tolist()]
        row, k = (block[:, lo] > block[:, hi]).nonzero()
        arc_u, arc_v, arc_dist = rank_one[row, lo[k]], rank_zero[row, hi[k]], dist[k]
        arc_at = [0, *np.bincount(row, minlength=len(block)).cumsum().tolist()]
        for r, ones in enumerate(n_ones):
            arcs = slice(arc_at[r], arc_at[r + 1])
            if arcs.start == arcs.stop:   # monotone: no violated pair, so no violated edge
                gamma.append(0)
                matched.append(0)
                total.append(0)
                continue
            edges = slice(edge_at[r], edge_at[r + 1])
            gamma.append(len(_max_matching(edge_u[edges], edge_v[edges], ones, size)))
            _, dists = _optimal_assignment(arc_u[arcs], arc_v[arcs], arc_dist[arcs],
                                           ones, size - ones, size)
            matched.append(len(dists))
            total.append(sum(dists))
    return IsoperimetrySweep(size, violated, upward, gamma, matched, total)


def influence_report(f: BoolFunc) -> InfluenceReport:
    return isoperimetry_report(f).influence


def isoperimetry_report(f: BoolFunc) -> IsoperimetryReport:
    """Exact influence quantities plus the three isoperimetry ratios: the
    one-row view of isoperimetry_sweep.

    Ratios are omitted (None) for monotone inputs, where eps = 0.
    """
    return isoperimetry_sweep(f.shape, _bits_of(f)[None]).report(0)


@dataclass(frozen=True)
class InfluenceBoundCheck:
    applicable: bool
    holds: bool
    I: Fraction
    I_minus: Fraction


def influence_bound_batch(shape: GridShape, tables: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Total-influence bound for each row of a (functions, n^d) bit array.

    Returns the arrays (applicable, holds, n^d I, n^d I_minus):
    applicable iff I_minus < sqrt(d); holds iff I < 7 sqrt(d) log2(n).
    Both comparisons are done on squared integer numerators, so they are exact.
    """
    if not shape.is_pow2() or shape.n < 4:
        raise ValueError("needs n a power of 2 with n >= 4")
    violated, upward = edge_counts_batch(shape, tables)
    sensitive = violated + upward
    size_sq = shape.size * shape.size
    applicable = violated * violated < shape.d * size_sq
    holds = sensitive * sensitive < 49 * shape.d * shape.bits * shape.bits * size_sq
    return applicable, holds, sensitive, violated


def influence_bound_check(f: BoolFunc) -> InfluenceBoundCheck:
    """Total-influence bound: small negative influence caps the total.

    The one-function view of influence_bound_batch.
    """
    applicable, holds, sensitive, violated = influence_bound_batch(f.shape, _bits_of(f)[None])
    size = f.shape.size
    return InfluenceBoundCheck(bool(applicable[0]), bool(holds[0]),
                               Fraction(int(sensitive[0]), size), Fraction(int(violated[0]), size))
