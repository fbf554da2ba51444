"""Boolean functions on the grid: storage, query counting, generators, I/O.

A BoolFunc is backed either by a dense bit table, one read-only uint8
array (canonical at desk scale), or by a pure predicate (for larger grids
where only sampling runs).  Every evaluation, repeated or not, bumps the
query counter.  `eval_batch` evaluates many points in one call: tables
gather by linear index, the closed-form generator families carry a
vectorised predicate, and any other predicate is called once per point.
"""

from __future__ import annotations

import io
import random
import threading
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .errors import CapacityError, FormatError
from .grid import GridShape, Point, check_point, linear_index, point_of

MAGIC = b"AGF1"

# Dense tables are refused above this size; predicate backing still works.
DEFAULT_TABLE_CAPACITY = 1 << 24

# Generators with a closed form stay predicate-backed above this size, so
# building a test function never costs a full-grid materialization.
TABULATE_THRESHOLD = 1 << 16

# Coordinates per call of a vectorised predicate while `bits` materializes
# it: the (points, d) coordinate block stays at 512 KB at any grid size.
MATERIALIZE_ENTRIES = 1 << 16


class BoolFunc:
    """A queryable f: [n]^d -> {0,1} with an exact evaluation counter."""

    def __init__(self, shape: GridShape, table: Optional[Sequence[int]] = None,
                 predicate: Optional[Callable[[Point], int]] = None):
        if (table is None) == (predicate is None):
            raise ValueError("provide exactly one of table, predicate")
        self.shape = shape
        self._bits = None if table is None else _checked_bits(shape, table)
        self._predicate = predicate
        # vectorised form of the predicate, set by generate() for closed forms
        self._batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
        # the linear-index strides, built on first batch
        self._strides: Optional[np.ndarray] = None
        self.queries = 0
        self._lock = threading.Lock()

    @classmethod
    def from_table(cls, shape: GridShape, table: Sequence[int]) -> "BoolFunc":
        return cls(shape, table=table)

    @classmethod
    def from_mask(cls, shape: GridShape, mask: int) -> "BoolFunc":
        """The table whose value at linear index k is bit k of mask (one row of _mask_bits)."""
        _check_table_capacity(shape, "dense table")
        if not 0 <= mask < 1 << shape.size:
            raise ValueError(f"mask {mask} out of range [0, 2^{shape.size})")
        return cls(shape, table=_mask_bits([mask], shape.size)[0])

    @classmethod
    def from_predicate(cls, shape: GridShape, predicate: Callable[[Point], int]) -> "BoolFunc":
        return cls(shape, predicate=predicate)

    def is_table_backed(self) -> bool:
        return self._bits is not None

    def eval(self, x: Point) -> int:
        check_point(self.shape, x)
        with self._lock:
            self.queries += 1
        if self._bits is not None:
            return self._bits.item(linear_index(self.shape, x))
        return self._call_predicate(x)

    def eval_batch(self, points: np.ndarray) -> np.ndarray:
        """f at each row of an integer (B, d) array, as a uint8 array of bits.

        Counts B queries, exactly as B calls of eval would, and checks the
        same bounds.  An unsigned array reaches a vectorised predicate in its
        own dtype; only a table's linear index is taken in int64.
        """
        shape = self.shape
        points = np.asarray(points)
        if points.ndim != 2 or points.shape[1] != shape.d or points.dtype.kind not in "iu":
            raise ValueError(f"points must be an integer array of shape (B, {shape.d}), "
                             f"got {points.dtype} {points.shape}")
        if points.dtype.kind == "i":
            points = points.astype(np.int64, copy=False)
            # one pass for both bounds: viewed unsigned, a negative value is >= 2^63
            top = points.view(np.uint64).max() if points.size else 0
        else:
            top = points.max() if points.size else 0
        if top >= np.uint64(shape.n):
            raise ValueError(f"coordinate out of range [0, {shape.n})")
        with self._lock:
            self.queries += len(points)
        if self._bits is not None:
            return self._bits[points.astype(np.int64, copy=False) @ self._linear_strides()]
        if self._batch is not None:
            return self._batch(points).astype(np.uint8)
        return np.array([self._call_predicate(tuple(p)) for p in points.tolist()],
                        dtype=np.uint8).reshape(len(points))

    def _linear_strides(self) -> np.ndarray:
        if self._strides is None:
            self._strides = np.array([self.shape.n ** i for i in range(self.shape.d)],
                                     dtype=np.int64)
        return self._strides

    def _call_predicate(self, x: Point) -> int:
        v = self._predicate(x)
        if v not in (0, 1):
            raise ValueError(f"predicate returned non-bit {v!r}")
        return v

    def __call__(self, x: Point) -> int:
        return self.eval(x)

    @property
    def bits(self) -> np.ndarray:
        """The dense bit table as a read-only uint8 array, materializing a
        predicate if small enough, through its vectorised form when it has
        one; oracle access, so no query is counted."""
        if self._bits is not None:
            return self._bits
        shape = self.shape
        _check_table_capacity(shape, "materializing a predicate")
        if self._batch is None:
            bits = np.array([self._call_predicate(point_of(shape, i)) for i in range(shape.size)],
                            dtype=np.uint8)
        else:
            bits = np.empty(shape.size, dtype=np.uint8)
            step = max(1, MATERIALIZE_ENTRIES // shape.d)
            # coordinate i of a linear index is its digit i base n: on a side
            # 2^bits its bits i*bits .. (i+1)*bits - 1, cut by shift and mask
            shifts = np.arange(shape.d, dtype=np.int64) * shape.bits if shape.is_pow2() else None
            for start in range(0, shape.size, step):
                index = np.arange(start, min(start + step, shape.size), dtype=np.int64)[:, None]
                if shifts is None:
                    coords = index // self._linear_strides() % shape.n
                else:
                    coords = index >> shifts & shape.n - 1
                bits[start:start + step] = self._batch(coords)
        bits.setflags(write=False)
        return bits

    def table(self) -> list:
        """The dense bit table as a new list; see bits."""
        return self.bits.tolist()


def _checked_bits(shape: GridShape, table) -> np.ndarray:
    """A read-only uint8 copy of `table`; ValueError unless it holds one bit per point."""
    _check_table_capacity(shape, "dense table")
    given = np.asarray(table)
    if given.ndim != 1 or len(given) != shape.size:
        raise ValueError(f"table has shape {given.shape}, expected ({shape.size},)")
    _check_bits(given)
    bits = given.astype(np.uint8)
    bits.setflags(write=False)
    return bits


def _check_bits(given: np.ndarray) -> None:
    # ValueError unless every entry is 0 or 1; test before any cast to
    # uint8, which would wrap -1, 256 and 0.5 into bits
    if given.dtype.kind not in "biuf" or np.count_nonzero(
            given > 1 if given.dtype == np.uint8 else (given != 0) & (given != 1)):
        raise ValueError("table entries must be bits")


def _mask_bits(masks: Sequence[int], size: int) -> np.ndarray:
    """(len(masks), size) uint8 array whose row r holds bit k of masks[r], a
    mask in [0, 2^size), at column k: the table value at linear index k."""
    width = (size + 7) // 8
    octets = np.frombuffer(b"".join(int(m).to_bytes(width, "little") for m in masks),
                           dtype=np.uint8)
    return np.unpackbits(octets.reshape(-1, width), axis=1, count=size, bitorder="little")


# Mersenne Twister outputs per getrandbits call in the block draws below: a
# 256 KiB int however large the table.
_TWISTER_WORDS = 1 << 16


def _twister_words(rng: random.Random, count: int) -> Iterator[np.ndarray]:
    """The next `count` 32-bit outputs of rng's Mersenne Twister, in order, as
    uint64 blocks of at most _TWISTER_WORDS.  getrandbits(32 k) packs k
    outputs little-endian, the first one lowest, and leaves rng where k
    one-output draws would."""
    for at in range(0, count, _TWISTER_WORDS):
        k = min(_TWISTER_WORDS, count - at)
        raw = rng.getrandbits(32 * k).to_bytes(4 * k, "little")
        yield np.frombuffer(raw, dtype="<u4").astype(np.uint64)


def _random_floats(rng: random.Random, count: int) -> Iterator[np.ndarray]:
    """The values of `count` calls rng.random(), in float64 blocks, with rng
    left as they leave it: random() is ((a >> 5) 2^26 + (b >> 6)) / 2^53 for
    its two outputs a and b, exact in float64."""
    for w in _twister_words(rng, 2 * count):
        yield ((w[0::2] >> 5) * (1 << 26) + (w[1::2] >> 6)) * 2.0 ** -53


def _random_bits(rng: random.Random, count: int) -> np.ndarray:
    """[rng.getrandbits(1) for _ in range(count)] as uint8, with rng left as
    that loop leaves it: getrandbits(1) is an output's top bit."""
    return np.concatenate([(w >> 31).astype(np.uint8) for w in _twister_words(rng, count)])


# Functions per batch-kernel call in the sweeps over masks: the kernels
# keep several int64 values per function, so whole 2^16 sweeps would add
# megabytes to the process's peak memory.
SWEEP_BLOCK = 1 << 12


def _mask_blocks(shape: GridShape, masks: Sequence[int]) -> Iterator[Tuple[int, np.ndarray]]:
    """(position, tables) for consecutive blocks of `masks`; row k of a
    block is the table of masks[position + k]."""
    for first in range(0, len(masks), SWEEP_BLOCK):
        yield first, _mask_bits(masks[first:first + SWEEP_BLOCK], shape.size)


def _table_blocks(shape: GridShape) -> Iterator[Tuple[int, np.ndarray]]:
    """_mask_blocks over every mask of the grid, in order: row k of a block holds mask first + k.

    A block of consecutive masks is one shift-and-mask of an arange, about
    a sixth of the time of _mask_bits' bytes per mask; the grids swept whole
    have at most 20 points (brute-force distance's cap), far below the 63
    value bits of int64."""
    masks = 1 << shape.size
    bit = np.arange(shape.size)
    for first in range(0, masks, SWEEP_BLOCK):
        block = np.arange(first, min(first + SWEEP_BLOCK, masks))[:, None] >> bit
        yield first, (block & 1).astype(np.uint8)


def is_monotone(f: BoolFunc) -> bool:
    """Exact check over the unit-step grid edges (sufficient by transitivity);
    the one-row view of _monotone_rows."""
    return bool(_monotone_rows(f.shape, f.bits[None])[0])


def _monotone_rows(shape: GridShape, tables: np.ndarray) -> np.ndarray:
    """is_monotone of each row of a (functions, n^d) bit array.

    The unit steps along one dimension join the neighbours along one axis of
    a row viewed as an n x ... x n array (dimension 0 is the last axis),
    so each dimension is one comparison of two slices, with no index arrays."""
    grid = tables.reshape((len(tables),) + (shape.n,) * shape.d)
    monotone = np.ones(len(tables), dtype=bool)
    for axis in range(1, shape.d + 1):
        lower = (slice(None),) * axis + (slice(None, -1),)
        upper = (slice(None),) * axis + (slice(1, None),)
        monotone &= ~(grid[lower] > grid[upper]).any(axis=tuple(range(1, shape.d + 1)))
    return monotone


def restrict_line(f: BoolFunc, dim: int, fixed: Sequence[int]) -> BoolFunc:
    """The 1-dimensional restriction t -> f(... t at position dim ...).

    `fixed` lists the other d-1 coordinates in dimension order.  Queries
    forward to f, so both counters advance.
    """
    shape = f.shape
    if not 0 <= dim < shape.d:
        raise ValueError(f"dimension {dim} out of range")
    fixed = tuple(fixed)
    if len(fixed) != shape.d - 1:
        raise ValueError(f"expected {shape.d - 1} fixed coordinates, got {len(fixed)}")
    for v in fixed:
        if not 0 <= v < shape.n:
            raise ValueError(f"fixed coordinate {v} out of range")
    prefix, suffix = fixed[:dim], fixed[dim:]

    def line(p: Point) -> int:
        return f.eval(prefix + (p[0],) + suffix)

    return BoolFunc.from_predicate(GridShape(shape.n, 1), line)


def sort_line(g: BoolFunc) -> BoolFunc:
    """The monotone line 0^j 1^(n-j) with the same number of ones as g."""
    if g.shape.d != 1:
        raise ValueError("sort_line needs a line function")
    return BoolFunc.from_table(g.shape, np.sort(g.bits))


def generate(kind: str, shape: GridShape, seed: int = 0, **params) -> BoolFunc:
    """Deterministic test-family generator.

    Kinds: uniform_random, monotone_threshold, random_monotone, anti_slab,
    block_parity, noisy_monotone.  monotone_threshold and random_monotone
    are monotone by construction; anti_slab and block_parity are canonical
    far-from-monotone families.
    """
    rng = random.Random(seed)
    if kind == "uniform_random":
        _reject_params(params, set())
        _check_table_capacity(shape, kind)
        return BoolFunc.from_table(shape, _random_bits(rng, shape.size))
    if kind == "monotone_threshold":
        _reject_params(params, {"weights", "theta"})
        weights = params.get("weights")
        if weights is None:
            weights = [rng.randint(1, 4) for _ in range(shape.d)]
        weights = list(weights)
        if len(weights) != shape.d or any(w < 0 for w in weights):
            raise ValueError("weights must be d nonnegative numbers")
        theta = params.get("theta")
        if theta is None:
            theta = sum(w * (shape.n - 1) for w in weights) / 2
        batch = None
        # every partial sum of nonnegative integer terms below 2^53 in total
        # is an exact float64, so the sums compare with theta as Python's do
        exact = 1 << 53
        if (all(isinstance(w, int) for w in weights) and sum(weights) * (shape.n - 1) < exact
                and (isinstance(theta, float) or (isinstance(theta, int) and abs(theta) < exact))):
            w_arr = np.array(weights, dtype=np.float64)

            def batch(X):
                return X.astype(np.float64) @ w_arr >= theta
        return _tabulate_or_wrap(
            shape, lambda x: 1 if sum(w * v for w, v in zip(weights, x)) >= theta else 0, batch)
    if kind == "random_monotone":
        _reject_params(params, {"density"})
        density = params.get("density", 0.25)
        if not 0 <= density <= 1:
            raise ValueError("density must be in [0, 1]")
        _check_table_capacity(shape, kind)
        seeds = np.concatenate([u < density for u in _random_floats(rng, shape.size)])
        return BoolFunc.from_table(shape, _upward_close(shape, seeds))
    if kind == "anti_slab":
        _reject_params(params, {"axis"})
        axis = params.get("axis", 0)
        if not 0 <= axis < shape.d:
            raise ValueError(f"axis {axis} out of range")
        half = -(-shape.n // 2)   # 2v < n iff v < ceil(n / 2); 2 X would wrap in a narrow dtype
        return _tabulate_or_wrap(shape, lambda x: 1 if 2 * x[axis] < shape.n else 0,
                                 lambda X: X[:, axis] < half)
    if kind == "block_parity":
        _reject_params(params, set())
        upper = -(-shape.n // 2)   # 2v // n is 1 from v = ceil(n / 2), else 0
        return _tabulate_or_wrap(
            shape, lambda x: 1 if sum(2 * v // shape.n for v in x) % 2 == 0 else 0,
            lambda X: (X >= upper).sum(axis=1) % 2 == 0)
    if kind == "noisy_monotone":
        _reject_params(params, {"rho", "base"})
        rho = params.get("rho", 0.05)
        if not 0 <= rho <= 1:
            raise ValueError("rho must be in [0, 1]")
        _check_table_capacity(shape, kind)
        base = params.get("base")
        if base is None:
            base = generate("random_monotone", shape, seed=rng.randrange(1 << 62))
        if base.shape != shape:
            raise ValueError("base shape mismatch")
        flips = np.concatenate([u < rho for u in _random_floats(rng, shape.size)])
        return BoolFunc.from_table(shape, base.bits ^ flips)
    raise ValueError(f"unknown generator kind {kind!r}")


def _reject_params(params: dict, allowed: set) -> None:
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(f"unknown parameters {sorted(unknown)}")


def _check_table_capacity(shape: GridShape, operation: str) -> None:
    # checked before any table is built, so an oversized grid fails fast
    if shape.size > DEFAULT_TABLE_CAPACITY:
        raise CapacityError(operation, shape.size, DEFAULT_TABLE_CAPACITY)


def _tabulate_or_wrap(shape: GridShape, pred: Callable[[Point], int],
                      batch: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> BoolFunc:
    """Tabulated from `bits` up to TABULATE_THRESHOLD points, so through the
    vectorised form `batch` where there is one; predicate-backed above."""
    f = BoolFunc.from_predicate(shape, pred)
    f._batch = batch
    if shape.size <= TABULATE_THRESHOLD:
        return BoolFunc.from_table(shape, f.bits)
    return f


def _upward_close(shape: GridShape, seeds: np.ndarray) -> np.ndarray:
    """The table that is 1 exactly at the points at or above some seed, for a
    flat table or each row of a (rows, n^d) block: a cumulative OR along each
    grid axis in turn, each on the view (points before, n, points after),
    which numpy accumulates faster than the (rows, n, ..., n) view.

    accumulate pays for each of a view's runs of n, seeds.size / n of them
    on every axis, so with many runs, short beside how many there are, each
    view ORs its n consecutive slices instead: one 8^6 table takes 0.8 ms
    against 7.0 ms, but one 32^2 table would take 77 us against 8 us
    (2-vCPU host).
    """
    n, after, grid = shape.n, shape.size, seeds
    slices = seeds.size // n >= max(1 << 10, 4 * n)
    for _ in range(shape.d):
        after //= n
        grid = grid.reshape(-1, n, after)
        if slices:
            for j in range(1, n):
                np.logical_or(grid[:, j], grid[:, j - 1], out=grid[:, j])
        else:
            np.logical_or.accumulate(grid, axis=1, out=grid)
    return grid.reshape(seeds.shape)


def save(f: BoolFunc, sink) -> None:
    """Write the binary function file (table-backed functions only).

    Layout: magic "AGF1", n and d as 8-byte little-endian unsigned ints,
    then ceil(n^d / 8) payload bytes; bit k of the payload (little-endian
    within each byte) is the value at linear index k.
    """
    if not f.is_table_backed():
        raise ValueError("only table-backed functions can be saved")
    payload = np.packbits(f.bits, bitorder="little").tobytes()
    blob = MAGIC + f.shape.n.to_bytes(8, "little") + f.shape.d.to_bytes(8, "little") + payload
    if isinstance(sink, (str, bytes)):
        with open(sink, "wb") as fh:
            fh.write(blob)
    else:
        sink.write(blob)


def load(source) -> BoolFunc:
    """Read a function file written by save(); strict about sizes and padding.

    The header is read and the table capacity checked before any of the
    payload is read.
    """
    if isinstance(source, (str, bytes)):
        with open(source, "rb") as fh:
            return load(fh)
    header = source.read(len(MAGIC) + 16)
    if len(header) < len(MAGIC) + 16:
        raise FormatError("truncated header")
    if header[:4] != MAGIC:
        raise FormatError(f"bad magic {header[:4]!r}")
    n = int.from_bytes(header[4:12], "little")
    d = int.from_bytes(header[12:20], "little")
    try:
        shape = GridShape(n, d)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    _check_table_capacity(shape, "loading a function file")
    size = shape.size
    payload = source.read()
    expected = (size + 7) // 8
    if len(payload) != expected:
        raise FormatError(f"payload has {len(payload)} bytes, expected {expected}")
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), bitorder="little")
    if bits[size:].any():
        raise FormatError("nonzero padding bits")
    return BoolFunc.from_table(shape, bits[:size])


def dumps(f: BoolFunc) -> bytes:
    buf = io.BytesIO()
    save(f, buf)
    return buf.getvalue()
