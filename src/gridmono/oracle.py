"""Exact desk-scale oracles: distance, influences, matchings, ratios.

Everything here enumerates the grid, so it is guarded by a point-count
capacity: 2^16 points for the distance cut, the isoperimetry report, the
edge counts and the influence bound, whose graphs and edge rows are
O(N d log n), 4096 for the rest.  Distances between matched violation
pairs use the directed augmented-hypergrid metric.

The matchings and flows run on scipy's sparse graphs.  The assignment
solver, scipy.optimize.linear_sum_assignment, serves only optimal_matching
and the isoperimetry counts of shapes of at most _ASSIGNMENT_POINTS points
that the grid search on Γ⁻ (_sink_reached) leaves open, so it is loaded
the first time an assignment is solved (see __getattr__): the distance cut
and the flow-only reports never import scipy.optimize.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, List, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import (
    breadth_first_order,
    dijkstra,
    maximum_bipartite_matching,
    maximum_flow,
)

from .errors import CapacityError, IntegrityError
from .func import BoolFunc, _check_bits, _table_blocks, _upward_close
from .grid import AugEdge, GridShape, _edge_labels, _edge_table, _point_tuples

ORACLE_CAPACITY = 4096
DISTANCE_CAPACITY = 1 << 16   # the cut graph has O(N d) arcs, not the N^2 comparable pairs
BRUTE_FORCE_CAPACITY = 20

# isoperimetry_sweep takes the optimal matching's counts from the assignment
# on shapes of at most this many points, and from the min-cost flow above.  On
# random tables (2-vCPU host) the flow was the faster on one row from 256
# points and in blocks of rows from 512; the assignment was the faster on both
# up to 128 points, and in blocks at 256.
_ASSIGNMENT_POINTS = 256

# _sink_reached leaves a row open, to the flow's own breadth-first search or
# to the assignment, once its upward closures (d passes over the N points
# each) have made this many point-passes per arc of the residual graph it
# stands in for.  A pass costs about 10-12 ns and the flow's first phase
# 17-35 ns an arc (2-vCPU host), so a search that stays open costs at most
# about 1.5 first phases.
_SEARCH_PASSES_PER_ARC = 3

# Table cells per numpy call in the batch kernels: each temporary stays
# near 1 MB however many functions one call covers.
BATCH_CELLS = 1 << 17


def __getattr__(name):
    # linear_sum_assignment stays a module attribute, which the solver loop
    # reads and tests may replace, but scipy.optimize (about 16 MB and
    # 0.1-0.2 s to import) loads only when it is first read
    if name == "linear_sum_assignment":
        from scipy.optimize import linear_sum_assignment

        globals()[name] = linear_sum_assignment
        return linear_sum_assignment
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Set bits of every 16-bit value v = 256 hi + lo, as popcount(hi) + popcount(lo).
_POPCOUNT8 = np.array([v.bit_count() for v in range(256)], dtype=np.uint8)
_POPCOUNT16 = np.add.outer(_POPCOUNT8, _POPCOUNT8).ravel()


@dataclass(frozen=True)
class ShapeTables:
    """The comparable pairs of a shape, shared by the matching oracles.

    One entry per strict pair x < y, in increasing lo, then hi, as three
    columns: lo and hi are the linear indices of x and y (intp, which numpy
    gathers fastest) and dist is their directed distance (uint8: it is at
    most d log2 n).
    """

    shape: GridShape
    lo: np.ndarray
    hi: np.ndarray
    dist: np.ndarray

    @property
    def comparable(self) -> np.ndarray:
        """The pairs as (pairs, 3) int64 rows (lo, hi, dist), built on each access."""
        return np.column_stack((self.lo, self.hi, self.dist)).astype(np.int64, copy=False)


@lru_cache(maxsize=64)
def shape_tables(shape: GridShape) -> ShapeTables:
    _check_capacity(shape, ORACLE_CAPACITY, "exact-oracle shape tables")
    return ShapeTables(shape, *_comparable(shape))


def _comparable(shape: GridShape) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns (lo, hi, dist) of ShapeTables, as a product over the axes.

    x <= y iff a <= b on every axis, where a and b are their coordinates
    there, and the directed distance is the sum of popcount(b - a) over the
    axes.  Both are formed for a block of lo points at a time, against every
    hi point, from the per-axis gaps b - a: the block's nonzero cells, in
    row-major order, are its pairs in order, and each temporary stays near
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
    pairs = (n * (n + 1) // 2) ** d - size
    lo_col, hi_col, dist_col = (np.empty(pairs, dtype) for dtype in (np.intp, np.intp, np.uint8))
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
        span = slice(end, end + len(cells))
        np.divmod(cells, size, out=(lo_col[span], hi_col[span]))
        lo_col[span] += first
        dist_col[span] = dist.reshape(-1)[cells]
        end += len(cells)
    for column in (lo_col, hi_col, dist_col):
        column.setflags(write=False)
    return lo_col, hi_col, dist_col


def _bits_of(f: BoolFunc, limit: int = ORACLE_CAPACITY,
             operation: str = "exact oracle") -> np.ndarray:
    _check_capacity(f.shape, limit, operation)
    return f.bits


def _check_capacity(shape: GridShape, limit: int = ORACLE_CAPACITY,
                    operation: str = "exact oracle") -> None:
    if shape.size > limit:
        raise CapacityError(operation, shape.size, limit)


def _row_batches(rows: int, width: int) -> Iterator[slice]:
    """Row slices whose (rows, width) gathers hold about BATCH_CELLS cells."""
    step = max(1, BATCH_CELLS // max(width, 1))
    return (slice(start, start + step) for start in range(0, rows, step))


@lru_cache(maxsize=16)   # up to 4 MB each at 2^16 points
def _unit_step_arrays(shape: GridShape) -> np.ndarray:
    """(2, steps) int32 lo and hi linear indices of grid.unit_steps, in its order."""
    lo, hi, _, exp, _ = _edge_table(shape)
    return np.stack((lo[exp == 0], hi[exp == 0])).astype(np.int32)


def _terminal_arcs(block: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(tails, heads) of the unit arcs of a block of tables from the source to
    each 1-point and from each 0-point to the sink, one per point in order.

    Vertex r N + i is point i of row r, then come the source and the sink.
    """
    ones = block.reshape(-1).astype(bool)
    point = np.arange(block.size, dtype=np.int32)
    source, sink = block.size, block.size + 1
    return np.where(ones, source, point), np.where(ones, point, sink)


def _cut_flow(shape: GridShape, block: np.ndarray) -> Tuple[np.ndarray, csr_matrix]:
    """(count, flow) of a maximum flow on the cut graph of a block of tables.

    Each unit step of a row is an arc of capacity N, above any minimum cut;
    the terminal arcs are those of _terminal_arcs.  A cut crossing no step
    keeps an upward-closed set on the source side: 1 there and 0 elsewhere
    is a monotone table differing from the row at the cut's arcs (maximum
    closure, Picard 1976).  The rows share only the terminals, so count[r],
    the flow into row r, is its own minimum cut.
    """
    size, n_rows = shape.size, len(block)
    lo, hi = _unit_step_arrays(shape)
    base = np.arange(n_rows, dtype=np.int32)[:, None] * size
    source, sink = n_rows * size, n_rows * size + 1
    term_tails, term_heads = _terminal_arcs(block)
    tails = np.concatenate(((base + lo).ravel(), term_tails))
    heads = np.concatenate(((base + hi).ravel(), term_heads))
    capacity = np.repeat(np.array([size, 1], np.int32), [n_rows * len(lo), n_rows * size])
    graph = csr_matrix((capacity, (tails, heads)), shape=(sink + 1, sink + 1))
    flow = maximum_flow(graph, source, sink, method="dinic").flow
    arcs = slice(flow.indptr[source], flow.indptr[source + 1])
    used = flow.indices[arcs][flow.data[arcs] > 0]
    return np.bincount(used // size, minlength=n_rows).astype(np.int64), flow


def cut_distance_batch(shape: GridShape, tables: np.ndarray) -> np.ndarray:
    """Fewest changed points to a monotone table, for each row of a
    (functions, n^d) bit array: one maximum flow per block of rows over the
    disjoint union of their cut graphs (see _cut_flow)."""
    tables = _checked_tables(shape, tables, DISTANCE_CAPACITY, "exact distance")
    # a flow holds about 70 bytes per arc (with its reverse and Dinic's work
    # arrays) against 8 per cell of a kernel temporary, so blocks are 1/8 the cells
    width = 8 * (_unit_step_arrays(shape).shape[1] + shape.size)
    counts = [_cut_flow(shape, tables[rows])[0] for rows in _row_batches(len(tables), width)]
    return np.concatenate(counts) if counts else np.zeros(0, np.int64)


def _flow_paths(flow: csr_matrix, source: int, sink: int) -> List[Tuple[int, int]]:
    """(first, last) inner vertex of each unit of an acyclic integer flow,
    walked from the source along the first out-arc with flow left, which
    inflow = outflow guarantees away from the terminals.  Clears `flow`'s
    negative entries (its reverse arcs)."""
    flow.data[flow.data < 0] = 0
    flow.eliminate_zeros()
    indptr, heads, left = (x.tolist() for x in (flow.indptr, flow.indices, flow.data))
    nxt = indptr[:-1]
    paths = []
    for first in heads[indptr[source]:indptr[source + 1]]:
        v = first
        while v != sink:
            k = nxt[v]
            left[k] -= 1
            nxt[v] += left[k] == 0   # past a drained arc
            last, v = v, heads[k]
        paths.append((first, last))
    return paths


@dataclass(frozen=True)
class DistanceReport:
    eps: Fraction
    matching: tuple  # (lower point, upper point) violation pairs


def distance_to_monotonicity(f: BoolFunc) -> DistanceReport:
    """Distance as the minimum cut of the unit-step graph: the one-row view of
    cut_distance_batch, with a maximum violation matching as the witness.

    Each unit of flow runs from a 1-point x up unit steps to a 0-point y, so
    x <= y and f(x) = 1 > f(y) = 0, and the unit terminal arcs make the
    pairs disjoint: as many as the cut, so a maximum violation matching.
    """
    shape = f.shape
    _check_capacity(shape, DISTANCE_CAPACITY, "exact distance")
    _, flow = _cut_flow(shape, f.bits[None])
    ends = _point_tuples(shape, _flow_paths(flow, shape.size, shape.size + 1))
    pairs = tuple(zip(ends[::2], ends[1::2]))
    return DistanceReport(Fraction(len(pairs), shape.size), pairs)


@lru_cache(maxsize=32)
def monotone_masks(shape: GridShape) -> tuple:
    """Bitmasks of every monotone function on a tiny grid: those with no
    violated augmented edge."""
    _check_capacity(shape, BRUTE_FORCE_CAPACITY, "brute-force distance")
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


def _witness_labels(shape: GridShape, k: np.ndarray) -> list:
    """The AugEdge of each row k of grid._edge_table(shape)."""
    return list(_edge_labels(shape, *(column[k] for column in _edge_table(shape))))


def _checked_tables(shape: GridShape, tables, limit: int = ORACLE_CAPACITY,
                    operation: str = "exact oracle") -> np.ndarray:
    """`tables` as uint8; ValueError unless it is a (functions, n^d) array of bits."""
    _check_capacity(shape, limit, operation)
    tables = np.asarray(tables)
    if tables.ndim != 2 or tables.shape[1] != shape.size:
        raise ValueError(f"tables must have shape (functions, {shape.size})")
    _check_bits(tables)
    return tables.astype(np.uint8, copy=False)


def _edge_masks(shape: GridShape, block: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(violated, upward) masks of the augmented edges, in grid._edge_table's
    order, for each row of a block of tables; both ends are gathered once."""
    lo, hi = _edge_table(shape)[:2]
    below, above = block[:, lo], block[:, hi]
    return below > above, below < above


def edge_counts_batch(shape: GridShape, tables: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(|S_minus|, |S_plus|) of violated_aug_edges for each row of a
    (functions, n^d) bit array."""
    tables = _checked_tables(shape, tables, DISTANCE_CAPACITY, "augmented edge counts")
    counts = np.empty((2, len(tables)), dtype=np.int64)
    for rows in _row_batches(len(tables), len(_edge_table(shape)[0])):
        counts[:, rows] = [mask.sum(axis=1) for mask in _edge_masks(shape, tables[rows])]
    return counts[0], counts[1]


def violated_aug_edges(f: BoolFunc) -> Tuple[List[AugEdge], List[AugEdge]]:
    """(S_minus, S_plus): violated and upward-sensitive augmented edges, by lower endpoint."""
    down, up = (mask[0].nonzero()[0] for mask in _edge_masks(f.shape, _bits_of(f)[None]))
    return _witness_labels(f.shape, down), _witness_labels(f.shape, up)


@dataclass(frozen=True)
class GammaReport:
    gamma: Fraction
    witness: tuple   # vertex-disjoint violated AugEdges


def gamma_minus(f: BoolFunc) -> GammaReport:
    """Largest set of pairwise vertex-disjoint violated augmented edges.

    Violated edges run from 1-points to 0-points, so this is a bipartite
    matching problem: the one-row view of the matching behind
    isoperimetry_sweep's Γ⁻ counts (see _gamma_edges).
    """
    block = _bits_of(f)[None]
    _, picked = _gamma_edges(f.shape, block, _edge_masks(f.shape, block)[0])
    witness = tuple(_witness_labels(f.shape, picked))
    return GammaReport(Fraction(len(witness), f.shape.size), witness)


def _vertex_ids(block: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n_ones, left, right) of a block of tables: its 1-points, row by row
    and in increasing index, are the left vertices 0, 1, ..., its 0-points the
    right ones, and left[r, i] (right[r, i]) is the id of point i of row r."""
    ones_upto = block.cumsum(dtype=np.int64).reshape(block.shape)
    return (block.sum(axis=1, dtype=np.int64), ones_upto - 1,
            np.arange(block.size).reshape(block.shape) - ones_upto)


def _csr(tails: np.ndarray, heads: np.ndarray, n_tails: int, n_heads: int) -> csr_matrix:
    """Adjacency of the arcs tails[k] -> heads[k], tails nondecreasing, with
    int32 indices and float64 weights: the form scipy's csgraph routines
    work on (breadth_first_order first converts any other, in about ten
    times the time of its search)."""
    indptr = np.concatenate(([0], np.bincount(tails, minlength=n_tails).cumsum())).astype(np.int32)
    return csr_matrix((np.ones(len(heads)), heads.astype(np.int32, copy=False), indptr),
                      shape=(n_tails, n_heads))


def _gamma_edges(shape: GridShape, block: np.ndarray,
                 down: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(row, k) of a maximum set of vertex-disjoint violated augmented edges
    in each row of a block, by row and then k (a row of grid._edge_table).

    `down` is the block's violated mask (see _edge_masks); its edges are the
    arcs of one scipy matching over the points of all rows (see _vertex_ids).
    No two edges join the same two points, so partner[u] == v picks one arc.
    """
    lo, hi = _edge_table(shape)[:2]
    n_ones, left, right = _vertex_ids(block)
    row, k = np.divmod(np.flatnonzero(down), down.shape[1])   # twice as fast as down.nonzero()
    at = row * block.shape[1]   # one flat index each reads twice as fast as a (row, point) pair
    u, v = left.ravel()[at + lo[k]], right.ravel()[at + hi[k]]
    if not len(u):
        return row, k
    n_left = int(n_ones.sum())
    partner = maximum_bipartite_matching(_csr(u, v, n_left, block.size - n_left),
                                         perm_type="column")
    picked = partner[u] == v
    return row[picked], k[picked]


def _check_maximum(u: np.ndarray, v: np.ndarray, kept_u: np.ndarray, kept_v: np.ndarray,
                   n_left: int, n_right: int) -> None:
    """IntegrityError unless the pairs (kept_u[k], kept_v[k]) are a maximum
    matching of the bipartite arcs u[k] -> v[k], in increasing (u, v).

    The pairs must be arcs with pairwise distinct ends.  By Berge's theorem
    they are maximum iff no augmenting path exists: one breadth-first search
    from a source pointing to every free left vertex, along the arcs left to
    right and the pairs right to left, must reach no free right vertex.
    """
    arcs, pairs = u * n_right + v, kept_u * n_right + kept_v
    in_range = (kept_u >= 0) & (kept_u < n_left) & (kept_v >= 0) & (kept_v < n_right)
    if not (in_range.all() and (arcs[np.searchsorted(arcs, pairs) % len(arcs)] == pairs).all()):
        raise IntegrityError("an assignment pair is not a violation arc")
    partner = np.full(n_right, -1)
    partner[kept_v] = kept_u
    start = (np.bincount(kept_u, minlength=n_left) == 0).nonzero()[0]   # free left vertices
    taken = (partner >= 0).nonzero()[0]
    if len(start) + len(kept_u) != n_left or len(taken) != len(kept_v):
        raise IntegrityError("two assignment pairs share an end")
    if not len(start) or len(taken) == n_right:   # a saturated side leaves no augmenting path
        return
    source = n_left + n_right   # after the left and the right vertices
    graph = _csr(np.concatenate((u, n_left + taken, np.full(len(start), source))),
                 np.concatenate((n_left + v, partner[taken], start), dtype=np.int32),
                 source + 1, source + 1)
    reached = breadth_first_order(graph, source, return_predecessors=False)
    if (partner[reached[(reached >= n_left) & (reached < source)] - n_left] < 0).any():
        raise IntegrityError(f"assignment kept {len(kept_u)} pairs, not a maximum matching")


@lru_cache(maxsize=4)   # up to 35 MB each at 2^16 points
def _flow_graph(shape: GridShape) -> Tuple[np.ndarray, ...]:
    """The residual graph of _matching_flow on one table, whose structure
    does not depend on the table: (tails, heads, indptr, cost, reverse,
    forward, back, terminal), read-only.

    Vertices are the points, then the source and the sink.  Each augmented
    edge k (a row of grid._edge_table) is an arc lo -> hi of cost 1 at position
    forward[k] and one back of cost -1 at back[k]; each point v has four arcs
    of cost 0, at terminal[:, v]: source -> v, v -> source, v -> sink and
    sink -> v.  The arcs are sorted by tail, then head, with the arcs leaving
    vertex v at indptr[v]:indptr[v + 1], and reverse[p] is the position of
    arc p's reverse.
    """
    lo, hi = _edge_table(shape)[:2]
    size, edges = shape.size, len(lo)
    point = np.arange(size)
    # row i of `ends` is arc 2 i, tail then head, and arc 2 i + 1 is its reverse,
    # so arc j's reverse is j ^ 1: the edges' rows (lo, hi) come first, then
    # each point v's rows (source, v) and (v, sink)
    terminals = np.column_stack((np.full(size, size), point, point, np.full(size, size + 1)))
    ends = np.concatenate((np.column_stack((lo, hi)), terminals.reshape(-1, 2))).astype(np.int32)
    tails, heads = ends.ravel(), ends[:, ::-1].ravel()
    order = np.lexsort((heads, tails))
    at = np.empty(len(order), np.int32)
    at[order] = np.arange(len(order))
    cost = np.zeros(len(order), np.int8)
    cost[:2 * edges:2], cost[1:2 * edges:2] = 1, -1
    indptr = np.concatenate(([0], np.bincount(tails, minlength=size + 2).cumsum())).astype(np.int32)
    graph = (tails[order], heads[order], indptr, cost[order], at[order ^ 1],
             at[:2 * edges:2], at[1:2 * edges:2], at[2 * edges:].reshape(size, 4).T)
    for column in graph:
        column.setflags(write=False)
    return graph


# _sink_reached's answers, one per row of a block
_UNREACHED, _REACHED, _OPEN = 0, 1, -1


def _sink_reached(shape: GridShape, block: np.ndarray, gamma_row: np.ndarray,
                  gamma_k: np.ndarray) -> np.ndarray:
    """For each row of a block of tables, whether the source reaches the sink
    in _matching_flow's residual graph once it carries the row's Γ⁻ matching
    (the edges gamma_k[i] with gamma_row[i] the row; see _gamma_edges),
    answered on the grid itself: an int8 per row, _REACHED, _UNREACHED, or
    _OPEN if it is still open after the closures that _SEARCH_PASSES_PER_ARC
    allows (at least 3).  A block of one row is the one-table question.

    Every augmented edge keeps a forward arc with capacity left, and the unit
    steps are augmented edges, so the source reaches exactly the up-closure
    of the free 1-points (those no Γ⁻ edge leaves), extended down each Γ⁻
    edge whose top it holds and closed upward again; the sink is reached iff
    that set holds a free 0-point (one no Γ⁻ edge enters).  Where it is not,
    Γ⁻ is a largest violation matching, and one of least summed distance, as
    each of its pairs is one edge apart.  The rows are closed together (see
    _upward_close), each edge's ends offset by its row times N into the
    flat block, and a row leaves the loop once it is answered.
    IntegrityError unless the Γ⁻ edges are violated and pairwise
    vertex-disjoint; with the offsets, both are counts over the whole block.
    """
    size = shape.size
    lo, hi = _edge_table(shape)[:2]
    offset = gamma_row * size
    u, w = lo[gamma_k], hi[gamma_k]
    u += offset
    w += offset
    reached = block.astype(bool)
    free_zero = ~reached
    ones, zeros = reached.reshape(-1), free_zero.reshape(-1)
    if np.count_nonzero(ones[u]) != len(u) or np.count_nonzero(zeros[w]) != len(w):
        raise IntegrityError("a Γ⁻ edge is not violated")
    n_ones = np.count_nonzero(ones)
    ones[u] = zeros[w] = False
    free_ones, free_zeros = np.count_nonzero(ones), np.count_nonzero(zeros)
    if free_ones != n_ones - len(u) or free_zeros != len(ones) - n_ones - len(w):
        raise IntegrityError("two Γ⁻ edges share a point")
    answer = np.full(len(block), _UNREACHED, np.int8)
    # a saturated side leaves no path; a row saturated on one side in a block
    # that is not is answered by its first pass (no free 1-point: nothing is
    # reached) or by the pass its closure stops growing (no free 0-point)
    if not (free_ones and free_zeros):
        return answer
    at, row = np.arange(len(block)), gamma_row   # the block row of each row left, and of each edge
    keep, hit = np.ones(len(block), bool), np.zeros(len(block), bool)
    arcs = 2 * len(lo) + 4 * size   # those of _flow_graph
    for _ in range(_SEARCH_PASSES_PER_ARC * arcs // (size * shape.d)):
        left = np.count_nonzero(keep)
        if left < len(at):   # answer the rows done, drop them and renumber the others' edges
            # 1 - 0 is _REACHED, 0 - 1 _OPEN and 0 - 0 _UNREACHED
            answer[at] = hit.view(np.int8) - keep.view(np.int8)
            if not left:
                return answer
            kept = keep[row]
            shift = keep.cumsum()[row[kept]] - 1 - row[kept]
            row, u, w = row[kept] + shift, u[kept] + shift * size, w[kept] + shift * size
            at, reached, free_zero = at[keep], reached[keep], free_zero[keep]
        reached = _upward_close(shape, reached)
        hit = (reached & free_zero).any(axis=1)
        ones = reached.reshape(-1)
        down = ones[w] > ones[u]
        moved = np.zeros(len(at), bool)
        moved[row[down]] = True
        keep = moved & ~hit
        ones[u[down]] = True
    answer[at] = hit.view(np.int8) - keep.view(np.int8)
    return answer


def _matching_flow(shape: GridShape, table: np.ndarray, gamma_k: np.ndarray,
                   reached: bool) -> Tuple[int, int]:
    """(matched, total) of a table: the size and the summed directed distance
    of its optimal matching, from a min-cost flow on _flow_graph(shape).

    The graph is that of _cut_flow with the augmented edges in place of the
    unit steps, each an arc of cost 1 and capacity N.  A unit of flow from a
    1-point x up to a 0-point y costs at least their directed distance, the
    fewest augmented edges from x to y, and exactly that on a shortest path;
    so a maximum flow is a largest violation matching, and its least cost
    the least summed distance of one.

    Primal-dual (Ahuja, Magnanti and Orlin, Network Flows, 1993, ch. 9).  The
    flow starts as the table's Γ⁻ matching (its edges gamma_k; see
    _gamma_edges), with potential 0 at the source and the 1-points and 1
    elsewhere: that matching is a maximum flow on the arcs of reduced cost 0,
    which is what the first phase would find.  Each phase keeps the arcs
    with capacity left, and stops when a breadth-first search from the
    source on them misses the sink, so the flow is maximum.  The caller
    asks the first phase's search on the grid first (_sink_reached, which
    also checks that the Γ⁻ edges are violated and disjoint), and runs the
    flow only where it reaches the sink or is left open; `reached` says it
    reached the sink, and then the first phase skips its own search.  Each
    phase runs one dijkstra on the reduced costs of the arcs with capacity
    left, raises the potentials by min(dist, dist[sink]), and runs one
    maximum flow on those of reduced cost 0; the later phases' searches are
    scipy's.  IntegrityError unless every phase moves flow, only on arcs
    with capacity left, no such arc has negative reduced cost (so the cost
    is the least), and the result respects capacity and conservation.
    """
    lo, hi = _edge_table(shape)[:2]
    u, w = lo[gamma_k], hi[gamma_k]
    tails, heads, indptr, cost, reverse, forward, back, terminal = _flow_graph(shape)
    size = shape.size
    source, sink = size, size + 1
    from_source, to_source, to_sink, from_sink = terminal
    capacity = np.zeros(len(heads), np.int32)
    capacity[forward] = size
    capacity[from_source] = table
    capacity[to_sink] = 1 - table
    # one unit along source -> u -> w -> sink for each Γ⁻ edge u -> w
    resid = capacity.copy()
    resid[np.concatenate((from_source[u], forward[gamma_k], to_sink[w]))] -= 1
    resid[np.concatenate((to_source[u], back[gamma_k], from_sink[w]))] += 1
    potential = np.concatenate((1 - table, [0, 1])).astype(np.int32)
    while True:
        live = (resid > 0).nonzero()[0]
        live_tails, live_heads = tails[live], heads[live]
        # take gathers through int32 positions about twice as fast as indexing
        reduced = cost[live] + potential.take(live_tails) - potential.take(live_heads)
        if reduced.min(initial=0) < 0:
            raise IntegrityError("a residual arc has negative reduced cost: the cost is not least")
        live_indptr = live.searchsorted(indptr).astype(np.int32)
        graph = csr_matrix((reduced.astype(np.float64), live_heads, live_indptr),
                           shape=(sink + 1, sink + 1))
        if not reached and not (breadth_first_order(graph, source,
                                                   return_predecessors=False) == sink).any():
            break
        reached = False   # known for the first phase only
        dist = dijkstra(graph, indices=source)
        step = np.minimum(dist, dist[sink]).astype(np.int32)
        potential += step
        reduced += step.take(live_tails) - step.take(live_heads)
        # Dinic sees only the admissible arcs: on the desk's grids about a
        # third of the live ones, which takes a fifth to two fifths off its time
        tight = live[reduced == 0]
        tight_indptr = tight.searchsorted(indptr).astype(np.int32)
        admissible = csr_matrix((resid[tight], heads[tight], tight_indptr),
                                shape=(sink + 1, sink + 1))
        flow = maximum_flow(admissible, source, sink, method="dinic").flow
        if flow.data[flow.indptr[source]:flow.indptr[source + 1]].sum() < 1:
            raise IntegrityError("a phase moved no flow along a shortest path")
        # each arc's flow, looked up by its key tail * V + head among the admissible arcs'
        moved = (flow.data > 0).nonzero()[0]
        key = (flow.indptr.searchsorted(moved, side="right") - 1) * (sink + 1) + flow.indices[moved]
        keys = tails[tight].astype(np.int64) * (sink + 1) + heads[tight]   # sorted
        at = keys.searchsorted(key) % len(keys)
        if not (keys[at] == key).all():
            raise IntegrityError("flow on an arc outside the residual graph")
        at = tight[at]
        resid[at] -= flow.data[moved]
        resid[reverse.take(at)] += flow.data[moved]
        # not kept through the next phase's search, dijkstra and maximum flow
        del graph, tight, tight_indptr, admissible, flow, moved, key, keys, at
    sent = capacity - resid   # each arc's flow, and its negation on the reverse
    if (resid < 0).any() or (sent + sent.take(reverse)).any():
        raise IntegrityError("flow exceeds an arc's capacity")
    out = np.add.reduceat(sent, indptr[:-1])   # net outflow of each vertex
    if out[:size].any():
        raise IntegrityError("flow is not conserved at a point")
    return int(out[source]), int(sent[forward].sum())


def _violated_pairs(shape: GridShape, block: np.ndarray) -> np.ndarray:
    """Flat indices r * pairs + k, in increasing order, of the comparable
    pairs k (see ShapeTables) that row r of a block of tables violates: 1 at
    lo, 0 at hi."""
    st = shape_tables(shape)
    return (block[:, st.lo] > block[:, st.hi]).ravel().nonzero()[0]


def _optimal_assignment(shape: GridShape, block: np.ndarray) -> Tuple[np.ndarray, ...]:
    """For each row of a block of tables: a maximum matching of its violation
    arcs that minimizes the total directed distance and, among those,
    maximizes the sum of squared distances.

    Returns the pairs as arrays (row, 1-point id, 0-point id, distance; ids as
    in _vertex_ids), by row and then increasing 1-point.  Each row with an arc
    is one assignment solve on its (1-points, 0-points) matrix, with per-arc
    cost dist*K - dist^2, K = 1 + size * (the row's max dist)^2, so that the
    linear term dominates any squared-term variation; pairs at the forbidden
    cost are dropped.  The block's pairs must be a maximum matching.
    """
    st = shape_tables(shape)
    size, n_rows, pairs = shape.size, len(block), len(st.lo)
    k = _violated_pairs(shape, block)
    if not len(k):
        return k, k, k, k   # no arc: four empty columns
    bounds = k.searchsorted(np.arange(n_rows + 1) * pairs)
    arcs = bounds[1:] - bounds[:-1]
    # from flat indices to each arc's pair; the per-arc arrays are the bulk of
    # the work, so they are made in place where they can be
    k -= (np.arange(n_rows) * pairs).repeat(arcs)
    dist = st.dist[k]
    n_ones, left, right = _vertex_ids(block)
    n_zeros = size - n_ones
    busy = arcs.nonzero()[0]
    dmax = np.zeros(n_rows, np.int64)
    dmax[busy] = np.maximum.reduceat(dist, bounds[busy])
    K = 1 + size * dmax * dmax
    forbid = (np.minimum(n_ones, n_zeros) * dmax * K + 1).astype(np.float64)
    # the cost matrices of the rows with arcs, row-major one after another
    cells = np.where(arcs > 0, n_ones * n_zeros, 0)
    at = cells.cumsum() - cells
    first_one, first_zero = n_ones.cumsum() - n_ones, n_zeros.cumsum() - n_zeros
    # per point of the block: its vertex id and, for a 1-point, the cell where
    # its cost row starts less its row's first 0-point id, so that the arc
    # x -> y has the cell start[x] + ids[y]; base[k] is arc k's row r times n^d,
    # the offset of the row's points
    ids = np.where(block, left, right).ravel()
    start = (left * n_zeros[:, None] + (at - first_one * n_zeros - first_zero)[:, None]).ravel()
    base = (np.arange(n_rows) * size).repeat(arcs)
    one_at, zero_at = st.lo[k], st.hi[k]
    one_at += base
    zero_at += base
    u, v = ids[one_at], ids[zero_at]
    cell = start[one_at]
    cell += v
    value = K.repeat(arcs)
    value -= dist
    value *= dist
    cost = forbid.repeat(cells)
    cost[cell] = value
    solve = sys.modules[__name__].linear_sum_assignment
    solved = [solve(cost[a:a + c].reshape(ones, zeros)) for a, c, ones, zeros
              in zip(*(x[busy].tolist() for x in (at, cells, n_ones, n_zeros)))]
    one, zero = (np.concatenate(x) for x in zip(*solved))
    kept_row = np.repeat(busy, [len(x) for x, _ in solved])
    kept_cost = cost[at[kept_row] + one * n_zeros[kept_row] + zero]
    keep = kept_cost < forbid[kept_row]
    kept_row, kept_cost = kept_row[keep], kept_cost[keep]
    kept_u, kept_v = one[keep] + first_one[kept_row], zero[keep] + first_zero[kept_row]
    # freed before the check builds its graph
    del cost, solved, one, zero, k, dist, keep, ids, start, base, one_at, zero_at, cell, value
    _check_maximum(u, v, kept_u, kept_v, int(n_ones.sum()), int(n_zeros.sum()))
    # an arc's cost is (dist - 1) K + (K - dist^2), with 0 < K - dist^2 < K
    return kept_row, kept_u, kept_v, kept_cost.astype(np.int64) // K[kept_row] + 1


@dataclass(frozen=True)
class OptimalMatchingReport:
    pairs: tuple         # (lower point, upper point), f-violating
    r: Fraction          # average directed distance; 0 when empty
    psi: int             # sum of squared distances
    empty: bool


def optimal_matching_batch(shape: GridShape, tables: np.ndarray) -> List[OptimalMatchingReport]:
    """optimal_matching of each row of a (functions, n^d) bit array, one
    block of rows per _optimal_assignment."""
    tables = _checked_tables(shape, tables)
    reports = []
    for rows in _row_batches(len(tables), max(len(shape_tables(shape).lo), shape.size)):
        block = tables[rows]
        kept_row, kept_u, kept_v, kept_dist = _optimal_assignment(shape, block)
        # vertex ids to linear indices: id k is the k-th 1-point (0-point) of the block
        lows = _point_tuples(shape, np.flatnonzero(block)[kept_u] % shape.size)
        highs = _point_tuples(shape, np.flatnonzero(block == 0)[kept_v] % shape.size)
        at = [0, *np.bincount(kept_row, minlength=len(block)).cumsum().tolist()]
        dists = kept_dist.tolist()
        reports.extend(OptimalMatchingReport(   # a == b: no violated pair
            tuple(zip(lows[a:b], highs[a:b])),
            Fraction(sum(dists[a:b]), max(b - a, 1)), sum(x * x for x in dists[a:b]), a == b)
            for a, b in zip(at, at[1:]))
    return reports


def optimal_matching(f: BoolFunc) -> OptimalMatchingReport:
    """A maximum violation matching minimizing the total directed distance
    and, among those, maximizing the sum of squared distances."""
    return optimal_matching_batch(f.shape, _bits_of(f)[None])[0]


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


def ratio_terms(violated, gamma, matched, total) -> Tuple[tuple, ...]:
    """(numerator, denominator) of the margulis, edge and vertex ratios from
    integer counts (Python ints or int64 columns): with m matched pairs, summed
    distance `total`, g = gamma and neg = violated, margulis = I_minus gamma /
    eps^2 = neg g / m^2, edge = I_minus / (r eps) = neg / total and vertex =
    gamma r / eps = g total / m^2."""
    square = matched * matched
    return (violated * gamma, square), (violated, total), (gamma * total, square)


@dataclass(frozen=True)
class IsoperimetrySweep:
    """Isoperimetry reports of many functions on one grid, one row per function.

    Every quantity is an int64 column of counts: the violated and upward
    augmented edges, Γ⁻ (the most vertex-disjoint violated edges), and the
    size and summed directed distance of the optimal matching.
    """

    size: int
    violated: np.ndarray
    upward: np.ndarray
    gamma: np.ndarray
    matched: np.ndarray
    total: np.ndarray

    def ratios(self, k: int) -> Tuple[Optional[Fraction], ...]:
        """Row k's (margulis, edge, vertex) ratios (see ratio_terms); all None
        when eps = 0."""
        if not self.matched[k]:
            return None, None, None
        counts = (int(c[k]) for c in (self.violated, self.gamma, self.matched, self.total))
        return tuple(Fraction(num, den) for num, den in ratio_terms(*counts))

    def report(self, k: int) -> IsoperimetryReport:
        size, neg, pos = self.size, int(self.violated[k]), int(self.upward[k])
        g, m, total = int(self.gamma[k]), int(self.matched[k]), int(self.total[k])
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
    """Exact influence counts, Γ⁻ and the optimal matching's size and summed
    distance for each row of a (functions, n^d) bit array.

    Each block of rows is one graph whose vertices are the points of all its
    rows (see _vertex_ids).  Γ⁻ is one maximum matching of the block's
    violated augmented edges in scipy.  A row with no violated edge is
    monotone and needs no more.  The other rows go to one _sink_reached call,
    which certifies on the grid, for most rows, that Γ⁻ already is an
    optimal matching (its pairs one edge apart), so that matched = total =
    Γ⁻.  Only the rows it leaves open reach a solver: one min-cost flow per
    row (_matching_flow) on shapes of more than _ASSIGNMENT_POINTS points,
    and one checked assignment solve per row (_optimal_assignment) on
    smaller ones.
    """
    tables = _checked_tables(shape, tables, DISTANCE_CAPACITY, "isoperimetry sweep")
    edges = len(_edge_table(shape)[0])
    flow = shape.size > _ASSIGNMENT_POINTS
    width = max(edges, shape.size, 0 if flow else len(shape_tables(shape).lo))
    columns = np.zeros((5, len(tables)), np.int64)
    violated, upward, gamma, matched, total = columns
    for rows in _row_batches(len(tables), width):
        block = tables[rows]
        down, up = _edge_masks(shape, block)
        gamma_row, gamma_k = _gamma_edges(shape, block, down)
        # int32 sums take about half the time of int64 ones
        violated[rows] = down.sum(axis=1, dtype=np.int32)
        upward[rows] = up.sum(axis=1, dtype=np.int32)
        gamma[rows] = np.bincount(gamma_row, minlength=len(block))
        busy = violated[rows].nonzero()[0]
        if not len(busy):
            continue
        if len(busy) < len(block):   # Γ⁻ has edges in the busy rows only: renumber them
            block, gamma_row = block[busy], (violated[rows] > 0).cumsum()[gamma_row] - 1
        answer = _sink_reached(shape, block, gamma_row, gamma_k)
        busy += rows.start
        matched[busy] = total[busy] = gamma[busy]   # the solvers redo the rows left open
        left = (answer != _UNREACHED).nonzero()[0]
        if flow and len(left):
            bounds = gamma_row.searchsorted(np.arange(len(block) + 1))
            for r in left.tolist():
                matched[busy[r]], total[busy[r]] = _matching_flow(
                    shape, block[r], gamma_k[bounds[r]:bounds[r + 1]], answer[r] == _REACHED)
        elif len(left):
            kept_row, _, _, kept_dist = _optimal_assignment(shape, block[left])
            matched[busy[left]] = np.bincount(kept_row, minlength=len(left))
            total[busy[left]] = np.bincount(kept_row, kept_dist, minlength=len(left))
    return IsoperimetrySweep(shape.size, *columns)


def isoperimetry_report(f: BoolFunc) -> IsoperimetryReport:
    """Exact influence quantities plus the three isoperimetry ratios: the
    one-row view of isoperimetry_sweep.

    Ratios are omitted (None) for monotone inputs, where eps = 0.
    """
    bits = _bits_of(f, DISTANCE_CAPACITY, "isoperimetry sweep")
    return isoperimetry_sweep(f.shape, bits[None]).report(0)


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
    bits = _bits_of(f, DISTANCE_CAPACITY, "augmented edge counts")
    applicable, holds, sensitive, violated = influence_bound_batch(f.shape, bits[None])
    size = f.shape.size
    return InfluenceBoundCheck(bool(applicable[0]), bool(holds[0]),
                               Fraction(int(sensitive[0]), size), Fraction(int(violated[0]), size))
