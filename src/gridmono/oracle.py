"""Exact desk-scale oracles: violation graph, distance, influences, ratios.

Everything here enumerates the grid, so it is guarded by a point-count
capacity.  Distances between matched violation pairs use the directed
augmented-hypergrid metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Iterator, List, Optional, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import CapacityError, IntegrityError
from .func import BoolFunc, _table_blocks
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
    aug_edges: tuple       # AugEdge k joins lo[k] to hi[k] of _aug_edge_index(shape)


@lru_cache(maxsize=64)
def shape_tables(shape: GridShape) -> ShapeTables:
    if shape.size > ORACLE_CAPACITY:
        raise CapacityError("exact-oracle shape tables", shape.size, ORACLE_CAPACITY)
    pts = tuple(points(shape))
    # one row of the dominance relation at a time: an N x N matrix would
    # hold 16M gaps at the 4096-point cap
    coords = np.array(pts, dtype=np.int64).reshape(len(pts), shape.d)
    popcount = np.array([v.bit_count() for v in range(shape.n)], dtype=np.int64)
    # pairs x <= y in each coordinate, less the N pairs x = y
    comparable = np.empty(((shape.n * (shape.n + 1) // 2) ** shape.d - shape.size, 3),
                          dtype=np.int64)
    end = 0
    for i in range(len(pts)):
        gap = coords - coords[i]
        above = (gap >= 0).all(axis=1).nonzero()[0]
        above = above[above != i]
        rows = comparable[end:end + len(above)]
        rows[:, 0], rows[:, 1], rows[:, 2] = i, above, popcount[gap[above]].sum(axis=1)
        end += len(above)
    comparable.setflags(write=False)
    aug = tuple(AugEdge(pts[lo], pts[hi], m) for lo, hi, m in _aug_edges(shape))
    return ShapeTables(shape, pts, comparable, aug)


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


def hopcroft_karp(adj: List[List[int]], n_right: int) -> Tuple[int, List[int], List[int]]:
    """Maximum bipartite matching size plus both matched-partner arrays.

    adj[u] lists the right neighbours of left vertex u.  Unmatched slots
    hold -1.  Deterministic for a fixed adjacency order.
    """
    n_left = len(adj)
    INF = n_left + n_right + 1
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    dist = [0] * n_left

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

    size = 0
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


def _max_matching(table: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> List[int]:
    """Hopcroft-Karp over the arcs lo[k] -> hi[k], from 1-points to
    0-points of `table`; each point lists its arcs in the order given.

    Returns the positions k of the matched arcs, in increasing lo[k].  The
    left side is the 1-points in increasing index; points without arcs stay
    unmatched and do not change which matching is found, so the right side
    is every grid index.
    """
    ones = table.nonzero()[0]
    by_lo = lo.argsort(kind="stable")
    adj: List[List[int]] = [[] for _ in range(len(ones))]
    for u, v in zip(ones.searchsorted(lo[by_lo]).tolist(), hi[by_lo].tolist()):
        adj[u].append(v)
    matched, match_l, _ = hopcroft_karp(adj, len(table))
    # in by_lo order, the arcs of left vertex u start at first[u]
    first = list(accumulate(map(len, adj), initial=0))
    at = by_lo.tolist()
    arcs = [at[first[u] + adj[u].index(v)] for u, v in enumerate(match_l) if v != -1]
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
    arcs = violation_graph(f).arcs
    matched = arcs[_max_matching(_bits_of(f), arcs[:, 0], arcs[:, 1])]
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


def brute_force_batch(shape: GridShape, masks) -> np.ndarray:
    """Fewest changed points to a monotone table, for each mask in `masks`.

    Bit k of a mask is the value at linear index k, as in BoolFunc.from_mask.
    The minimum of popcount(mask XOR g) over the monotone masks g is taken
    one block of rows at a time, so the whole masks x monotone matrix
    (18 MB at 4^2) is never formed.
    """
    monotone = np.array(monotone_masks(shape), dtype=np.uint32)
    masks = np.asarray(masks, dtype=np.int64).reshape(-1)
    if masks.size and (masks.min() < 0 or masks.max() >= 1 << shape.size):
        raise ValueError(f"masks must lie in [0, 2^{shape.size})")
    words = masks.astype(np.uint32)  # BRUTE_FORCE_CAPACITY bits fit
    best = np.empty(len(words), dtype=np.uint8)
    for rows in _row_batches(len(words), len(monotone)):
        changed = words[rows, None] ^ monotone
        best[rows] = (_POPCOUNT16[changed & 0xFFFF] + _POPCOUNT16[changed >> 16]).min(axis=1)
    return best


def brute_force_distance(f: BoolFunc) -> Fraction:
    """Independent oracle: minimum changed fraction over all monotone tables."""
    fmask = int.from_bytes(np.packbits(_bits_of(f), bitorder="little").tobytes(), "little")
    return Fraction(int(brute_force_batch(f.shape, [fmask])[0]), f.shape.size)


@lru_cache(maxsize=64)
def _aug_edge_index(shape: GridShape) -> Tuple[np.ndarray, np.ndarray]:
    """lo and hi linear indices of every augmented edge, in _aug_edges order."""
    pairs = np.array([(lo, hi) for lo, hi, _ in _aug_edges(shape)], dtype=np.intp)
    pairs = pairs.reshape(len(pairs), 2)
    return pairs[:, 0].copy(), pairs[:, 1].copy()


def edge_counts_batch(shape: GridShape, tables: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(|S_minus|, |S_plus|) of violated_aug_edges for each row of `tables`.

    `tables` is a (functions, n^d) array of bits; row k is the table of
    function k.  Both ends of every augmented edge are gathered at once.
    """
    _check_oracle_capacity(shape)
    tables = np.asarray(tables, dtype=np.uint8)
    if tables.ndim != 2 or tables.shape[1] != shape.size:
        raise ValueError(f"tables must have shape (functions, {shape.size})")
    lo, hi = _aug_edge_index(shape)
    violated = np.empty(len(tables), dtype=np.int64)
    upward = np.empty(len(tables), dtype=np.int64)
    for rows in _row_batches(len(tables), len(lo)):
        block = tables[rows]
        below, above = block[:, lo], block[:, hi]
        violated[rows] = (below > above).sum(axis=1)
        upward[rows] = (below < above).sum(axis=1)
    return violated, upward


def violated_aug_edges(f: BoolFunc) -> Tuple[List[AugEdge], List[AugEdge]]:
    """(S_minus, S_plus): violated and upward-sensitive augmented edges."""
    t = _bits_of(f)
    edges = shape_tables(f.shape).aug_edges
    lo, hi = _aug_edge_index(f.shape)
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
    edges = shape_tables(f.shape).aug_edges
    lo, hi = _aug_edge_index(f.shape)
    violated = (t[lo] > t[hi]).nonzero()[0]
    at = violated.tolist()
    witness = tuple(edges[at[k]] for k in _max_matching(t, lo[violated], hi[violated]))
    return GammaReport(Fraction(len(witness), f.shape.size), witness)


@dataclass(frozen=True)
class OptimalMatchingReport:
    pairs: tuple         # (lower point, upper point), f-violating
    r: Fraction          # average directed distance; 0 when empty
    psi: int             # sum of squared distances
    empty: bool


def optimal_matching(f: BoolFunc) -> OptimalMatchingReport:
    """A maximum violation matching minimizing

    the total directed distance and, among those, maximizing the sum of
    squared distances.  Encoded as one assignment solve with per-arc cost
    dist*K - dist^2, K = 1 + (point count) * (max dist)^2, which makes the
    linear term dominate any squared-term variation.
    """
    vg = violation_graph(f)
    if not len(vg.arcs):
        return OptimalMatchingReport((), Fraction(0), 0, True)
    lo, hi, dist = vg.arcs.T
    dmax = max(dist.tolist())
    K = 1 + f.shape.size * dmax * dmax
    m = min(len(vg.ones), len(vg.zeros))
    forbid = float(m * dmax * K + 1)
    cost = np.full((len(vg.ones), len(vg.zeros)), forbid)
    cost[vg.ones.searchsorted(lo), vg.zeros.searchsorted(hi)] = dist * (K - dist)
    rows, cols = linear_sum_assignment(cost)
    ones, zeros, pts = vg.ones.tolist(), vg.zeros.tolist(), shape_tables(f.shape).points
    pairs, total, psi = [], 0, 0
    for u, v, c in zip(rows.tolist(), cols.tolist(), cost[rows, cols].tolist()):
        if c >= forbid:
            continue
        pairs.append((pts[ones[u]], pts[zeros[v]]))
        # an arc's cost is (dist - 1) K + (K - dist^2), with 0 < K - dist^2 < K
        dist = int(c // K) + 1
        total += dist
        psi += dist * dist
    expected = len(_max_matching(_bits_of(f), lo, hi))
    if len(pairs) != expected:
        raise IntegrityError(
            f"assignment kept {len(pairs)} pairs, maximum matching has {expected}")
    return OptimalMatchingReport(tuple(pairs), Fraction(total, len(pairs)), psi, False)


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


def influence_report(f: BoolFunc) -> InfluenceReport:
    size = f.shape.size
    s_minus, s_plus = violated_aug_edges(f)
    gm = gamma_minus(f)
    # optimal_matching checks its pair count against the maximum matching,
    # so eps is read from it rather than from a second matching
    mstar = optimal_matching(f)
    neg, pos = len(s_minus), len(s_plus)
    return InfluenceReport(
        I=Fraction(neg + pos, size),
        I_plus=Fraction(pos, size),
        I_minus=Fraction(neg, size),
        gamma_minus=gm.gamma,
        eps=Fraction(len(mstar.pairs), size),
        r=mstar.r,
        sensitive_edges=neg + pos,
        positive_edges=pos,
        violated_edges=neg,
        gamma_count=len(gm.witness),
        matching_size=len(mstar.pairs),
    )


def isoperimetry_report(f: BoolFunc) -> IsoperimetryReport:
    """Exact influence quantities plus the three isoperimetry ratios.

    Ratios are omitted (None) for monotone inputs, where eps = 0.
    """
    inf = influence_report(f)
    if inf.eps == 0:
        return IsoperimetryReport(inf, None, None, None)
    margulis = inf.I_minus * inf.gamma_minus / (inf.eps * inf.eps)
    edge = inf.I_minus / (inf.r * inf.eps)
    vertex = inf.gamma_minus * inf.r / inf.eps
    return IsoperimetryReport(inf, margulis, edge, vertex)


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
