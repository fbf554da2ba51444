"""The hypergrid domain, its augmented edge set, and the edge matching family.

Points of the n^d grid are plain tuples of ints with 0-indexed coordinates
in [0, n).  The augmented edge set joins any two points differing in exactly
one coordinate by a power of two.  For n a power of two the augmented edges
are partitioned into matchings, one per (dimension, step exponent, parity).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .errors import CapacityError

# compare() outcomes
LESS = "less"
EQUAL = "equal"
GREATER = "greater"
INCOMPARABLE = "incomparable"

# classify_in_matching() roles
LOWER = "lower"
UPPER = "upper"
UNMATCHED = "unmatched"

_MAX_SIDE = 1 << 62            # every coordinate, and twice it, fits int64
_MAX_DIMENSIONS = 1 << 16      # d's entries fit one call of the walk kernel
_EDGE_TABLE_POINTS = 1 << 16   # the augmented edge table's O(N d log n) rows
_MATCHING_POINTS = 1 << 24     # one matching's O(N) rows, as large as a dense table

Point = tuple


@dataclass(frozen=True)
class GridShape:
    """Side length and dimension of the grid [n]^d."""

    n: int
    d: int

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got n={self.n}, d={self.d}")
        if self.d > _MAX_DIMENSIONS:
            raise CapacityError("grid", self.d, _MAX_DIMENSIONS, "dimensions")
        if self.n > _MAX_SIDE:
            raise CapacityError("grid", self.n, _MAX_SIDE, "points per axis")

    @cached_property
    def size(self) -> int:
        # kept in the instance dict, outside the fields: eq, hash and repr ignore it
        return self.n ** self.d

    def __getstate__(self):
        # the fields only, not a cached size of up to 2^20 bits
        return {"n": self.n, "d": self.d}

    def is_pow2(self) -> bool:
        return self.n & (self.n - 1) == 0

    @property
    def bits(self) -> int:
        """log2(n); only meaningful when n is a power of two."""
        if not self.is_pow2():
            raise ValueError(f"n={self.n} is not a power of 2")
        return self.n.bit_length() - 1


@dataclass(frozen=True)
class MatchingId:
    """Identifier of the edge matching with step 2**exp along `dim`.

    A step edge from v along dim is in the matching of parity (v >> exp) & 1;
    parity 0 matchings are perfect, parity 1 matchings leave the boundary
    blocks unmatched and are empty at the largest exponent.
    """

    dim: int
    exp: int
    parity: int

    def __post_init__(self):
        if self.dim < 0 or self.exp < 0 or self.parity not in (0, 1):
            raise ValueError(f"bad matching id {self}")

    @property
    def step(self) -> int:
        return 1 << self.exp


@dataclass(frozen=True)
class AugEdge:
    lower: Point
    upper: Point
    id: MatchingId


def check_matching_id(shape: GridShape, m: MatchingId) -> None:
    if m.dim >= shape.d:
        raise ValueError(f"dimension {m.dim} out of range for d={shape.d}")
    if m.exp >= shape.bits:
        raise ValueError(f"step 2^{m.exp} too long for n={shape.n}")


def check_point(shape: GridShape, p: Point) -> None:
    if len(p) != shape.d:
        raise ValueError(f"point {p} has {len(p)} coordinates, expected {shape.d}")
    for v in p:
        if not 0 <= v < shape.n:
            raise ValueError(f"coordinate {v} out of range [0, {shape.n})")


def linear_index(shape: GridShape, p: Point) -> int:
    """Row-major index with dimension 0 fastest-varying."""
    check_point(shape, p)
    idx = 0
    for v in reversed(p):
        idx = idx * shape.n + v
    return idx


def point_of(shape: GridShape, idx: int) -> Point:
    """Inverse of linear_index."""
    if not 0 <= idx < shape.size:
        raise ValueError(f"index {idx} out of range [0, {shape.size})")
    coords = []
    for _ in range(shape.d):
        idx, v = divmod(idx, shape.n)
        coords.append(v)
    return tuple(coords)


def _point_tuples(shape: GridShape, idx) -> List[tuple]:
    """point_of of every linear index in `idx`, in row-major order."""
    coords = np.asarray(idx, dtype=np.int64).reshape(-1, 1) // shape.n ** np.arange(shape.d) % shape.n
    return list(map(tuple, coords.tolist()))


def points(shape: GridShape) -> Iterator[Point]:
    """All grid points in linear-index order."""
    for rev in itertools.product(range(shape.n), repeat=shape.d):
        yield rev[::-1]


def unit_steps(shape: GridShape) -> Iterator[tuple]:
    """(lo, hi) linear indices of every unit-step edge, hi one step above lo.

    In increasing lo, so one in-order pass of "if table[lo]: table[hi] = 1"
    closes a table upward: every step into lo comes before lo's own.
    """
    lo, hi, _, exp, _ = _edge_table(shape)
    return zip(lo[exp == 0].tolist(), hi[exp == 0].tolist())


def compare(x: Point, y: Point) -> str:
    if len(x) != len(y):
        raise ValueError(f"points {x} and {y} have different dimensions")
    less, greater = any(a < b for a, b in zip(x, y)), any(a > b for a, b in zip(x, y))
    if less and greater:
        return INCOMPARABLE
    return LESS if less else GREATER if greater else EQUAL


def dominates(y: Point, x: Point) -> bool:
    """True iff x <= y coordinate-wise."""
    return all(a <= b for a, b in zip(x, y))


def classify_in_matching(shape: GridShape, x: Point, m: MatchingId):
    """Role of x in the matching m: (LOWER|UPPER|UNMATCHED, partner or None).

    Requires n to be a power of two.  With s = 2**exp, parity 0 matches v
    with v mod 2s < s upward; parity 1 matches v with v mod 2s >= s upward
    when the partner stays on the grid.
    """
    check_matching_id(shape, m)
    check_point(shape, x)
    s = m.step
    v = x[m.dim]
    r = v % (2 * s)
    if m.parity == 0:
        if r < s:
            return LOWER, _with_coord(x, m.dim, v + s)
        return UPPER, _with_coord(x, m.dim, v - s)
    if r >= s and v + s <= shape.n - 1:
        return LOWER, _with_coord(x, m.dim, v + s)
    if r < s and v - s >= 0:
        return UPPER, _with_coord(x, m.dim, v - s)
    return UNMATCHED, None


def side_in_matching(shape: GridShape, x: Point, m: MatchingId) -> str:
    """Which side of m the coordinate residue puts x on, ignoring range guards.

    Every point is on exactly one side, even points that classify_in_matching
    reports as unmatched.  This is the side notion used for pair
    classification.
    """
    return LOWER if x[m.dim] >> m.exp & 1 == m.parity else UPPER


def _with_coord(x: Point, dim: int, v: int) -> Point:
    return x[:dim] + (v,) + x[dim + 1:]


def matching_ids(shape: GridShape) -> Iterator[MatchingId]:
    """All matching identifiers for a power-of-two grid."""
    for dim in range(shape.d):
        for exp in range(shape.bits):
            for parity in (0, 1):
                yield MatchingId(dim, exp, parity)


def enumerate_matching(shape: GridShape, m: MatchingId) -> list:
    """All edges of the matching m, lower endpoint first."""
    lo, hi = _matching_edges(shape, m)
    return [AugEdge(x, y, m) for x, y in zip(_point_tuples(shape, lo), _point_tuples(shape, hi))]


def _matching_edges(shape: GridShape, m: MatchingId) -> Tuple[np.ndarray, np.ndarray]:
    """(lo, hi) linear indices of the edges of the matching m, in increasing lo.
    CapacityError above 2^24 points, before any allocation."""
    check_matching_id(shape, m)
    if shape.size > _MATCHING_POINTS:
        raise CapacityError("edge matching", shape.size, _MATCHING_POINTS)
    lo, hi, parity = _step_slice(shape, m.dim, m.exp)   # only m's slice of the edge table
    return lo[parity == m.parity], hi[parity == m.parity]


def steps(shape: GridShape) -> list:
    """Allowed step lengths: powers of two that fit on one axis."""
    return [1 << exp for exp in range((shape.n - 1).bit_length())]


def _step_slice(shape: GridShape, dim: int, exp: int) -> Tuple[np.ndarray, ...]:
    """(lo, hi, parity) of every step-s edge along dim, s = 2^exp, in increasing lo: each
    block of n^(dim+1) indices joins its first (n - s) n^dim to s n^dim above."""
    n, stride = shape.n, shape.n ** dim
    lo = np.arange(shape.size).reshape(-1, n, stride)[:, :n - (1 << exp)].ravel()
    return lo, lo + (stride << exp), lo // stride % n >> exp & 1


@lru_cache(maxsize=16)   # 19 bytes an edge: 17 MB at 256^2
def _edge_table(shape: GridShape) -> Tuple[np.ndarray, ...]:
    """Every augmented edge as read-only columns (lo, hi, dim, exp, parity): its
    ends' linear indices (intp, the type numpy gathers through fastest) and its
    owning MatchingId (uint8), by lo, then dimension, then step.  Filled one
    (dimension, step) slice at a time, then stably sorted by lo.  CapacityError
    above 2^16 points, before any allocation."""
    if shape.size > _EDGE_TABLE_POINTS:
        raise CapacityError("augmented edge table", shape.size, _EDGE_TABLE_POINTS)
    rows, end = num_augmented_edges(shape), 0
    dtypes = 2 * [np.intp] + 3 * [np.uint8]
    columns = lo, hi, dim, exp, parity = tuple(np.empty(rows, t) for t in dtypes)
    for i, e in itertools.product(range(shape.d), range(len(steps(shape)))):
        span = slice(end, end + _edges_per_step(shape)[e])
        lo[span], hi[span], parity[span] = _step_slice(shape, i, e)
        dim[span], exp[span], end = i, e, span.stop
    order = lo.argsort(kind="stable")
    columns = tuple(column[order] for column in columns)
    for column in columns:
        column.setflags(write=False)
    return columns


def enumerate_augmented_edges(shape: GridShape) -> Iterator[AugEdge]:
    """Every augmented edge in _edge_table's order, by lower endpoint (so at
    most 2^16 points), each tagged with the matching that owns it.

    Works for any n (steps are the powers of two at most n-1); for
    power-of-two n the tags partition the edge set into the matching family.
    """
    return _edge_labels(shape, *_edge_table(shape))


def _edge_labels(shape: GridShape, lo, hi, dim, exp, parity) -> Iterator[AugEdge]:
    """The AugEdge of each row of edge-table columns, made as it is read."""
    pts, ids = _point_tuples(shape, np.arange(shape.size)), {}
    rows = zip(lo.tolist(), hi.tolist(), zip(dim.tolist(), exp.tolist(), parity.tolist()))
    return (AugEdge(pts[x], pts[y], ids.get(m) or ids.setdefault(m, MatchingId(*m)))
            for x, y, m in rows)


@lru_cache(maxsize=64)
def _edges_per_step(shape: GridShape) -> tuple:
    """Per-dimension edge count (n - s) n^(d-1) of each step s."""
    return tuple((shape.n - s) * (shape.size // shape.n) for s in steps(shape))


def num_augmented_edges(shape: GridShape) -> int:
    return shape.d * sum(_edges_per_step(shape))


def directed_distance(shape: GridShape, x: Point, y: Point) -> Optional[int]:
    """Minimum number of upward augmented steps from x to y; None if x !<= y.

    Each coordinate gap decomposes into its binary digits, so the distance
    is the total popcount of the gaps.  Intermediate points stay on the grid
    because partial sums never exceed the target coordinate.
    """
    check_point(shape, x)
    check_point(shape, y)
    return _directed_distance(x, y)


def _directed_distance(x: Point, y: Point) -> Optional[int]:
    """directed_distance of two points already known to be on the grid."""
    total = 0
    for a, b in zip(x, y):
        if b < a:
            return None
        total += (b - a).bit_count()
    return total


def aug_up_neighbors(shape: GridShape, x: Point) -> Iterator[Point]:
    """Points one augmented step above x."""
    for dim in range(shape.d):
        v = x[dim]
        for s in steps(shape):
            if v + s <= shape.n - 1:
                yield _with_coord(x, dim, v + s)
