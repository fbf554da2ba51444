"""Walsh-function analysis over power-of-two grids.

A power-of-two grid [n]^d is, bit for bit, the hypercube {0,1}^(d log2 n):
the linear index of a point concatenates the binary digits of its
coordinates.  Walsh characters are therefore hypercube characters and the
fast transform is the standard butterfly over all d log2(n) index bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence, Tuple

import numpy as np

from .errors import CapacityError, IntegrityError
from .func import BoolFunc, _random_bits, _table_blocks
from .grid import (
    GridShape,
    MatchingId,
    Point,
    _matching_edges,
    check_point,
    linear_index,
)
from .streams import derive_rng

TRANSFORM_CAPACITY = 1 << 22


@dataclass(frozen=True)
class WalshIndex:
    """One bit-position subset per dimension; empty everywhere = constant."""

    sets: Tuple[frozenset, ...]

    @classmethod
    def empty(cls, d: int) -> "WalshIndex":
        return cls(tuple(frozenset() for _ in range(d)))

    @classmethod
    def unit(cls, d: int, dim: int, bit: int) -> "WalshIndex":
        sets = [frozenset() for _ in range(d)]
        sets[dim] = frozenset({bit})
        return cls(tuple(sets))

    @classmethod
    def from_mask_point(cls, shape: GridShape, p: Point) -> "WalshIndex":
        return cls(tuple(
            frozenset(b for b in range(shape.bits) if v >> b & 1) for v in p))

    def mask_point(self, shape: GridShape) -> Point:
        if len(self.sets) != shape.d:
            raise ValueError("index dimension mismatch")
        coords = []
        for s in self.sets:
            if any(not 0 <= b < shape.bits for b in s):
                raise ValueError(f"bit positions {sorted(s)} out of range")
            coords.append(sum(1 << b for b in s))
        return tuple(coords)

    def symmetric_difference(self, other: "WalshIndex") -> "WalshIndex":
        return WalshIndex(tuple(a ^ b for a, b in zip(self.sets, other.sets)))


def walsh_value(shape: GridShape, idx: WalshIndex, x: Point) -> int:
    """+1 or -1: parity of the selected coordinate bits of x."""
    check_point(shape, x)
    mask = idx.mask_point(shape)
    parity = 0
    for v, m in zip(x, mask):
        parity ^= (v & m).bit_count() & 1
    return -1 if parity else 1


def _butterfly(arr: np.ndarray) -> np.ndarray:
    """Unnormalized butterfly over the last axis of a C-contiguous length 2^k
    array or (rows, 2^k) block, in place; each row as it would be alone.

    Exact on object arrays of ints or Fractions; float64 otherwise.
    """
    h = 1
    while h < arr.shape[-1]:
        view = arr.reshape(-1, 2 * h)
        left = view[:, :h].copy()
        right = view[:, h:2 * h].copy()
        view[:, :h] = left + right
        view[:, h:2 * h] = left - right
        h *= 2
    return arr


@dataclass(frozen=True)
class Spectrum:
    """All n^d coefficients, stored at the linear index of their mask point."""

    shape: GridShape
    coeffs: np.ndarray

    def coefficient(self, idx: WalshIndex) -> float:
        return float(self.coeffs[linear_index(self.shape, idx.mask_point(self.shape))])


def transform(shape: GridShape, values) -> Spectrum:
    """Coefficients as expectations: spectrum = butterfly(values) / n^d."""
    if shape.size > TRANSFORM_CAPACITY:
        raise CapacityError("Walsh transform", shape.size, TRANSFORM_CAPACITY)
    if not shape.is_pow2():
        raise ValueError("transform needs n a power of 2")
    arr = np.array(values, dtype=np.float64)
    if arr.shape != (shape.size,):
        raise ValueError(f"expected a flat table of {shape.size} values")
    return Spectrum(shape, _butterfly(arr) / shape.size)


def inverse_transform(spectrum: Spectrum) -> np.ndarray:
    """Pointwise values from coefficients; the butterfly is self-inverse."""
    doubled = transform(spectrum.shape, spectrum.coeffs)
    return doubled.coeffs * spectrum.shape.size


def transform_exact(shape: GridShape, values: Sequence) -> list:
    """Exact coefficients (Fractions) for integer or rational tables."""
    if not shape.is_pow2():
        raise ValueError("transform needs n a power of 2")
    arr = np.array(list(values), dtype=object)
    if arr.shape != (shape.size,):
        raise ValueError(f"expected a flat table of {shape.size} values")
    return [Fraction(v, shape.size) for v in _butterfly(arr)]


@lru_cache(maxsize=64)
def _coefficient_weights(shape: GridShape, dim: int, bit: int) -> np.ndarray:
    """(n^d, 2) int64 weights of the two coefficient routes.

    Column 0 is the single-bit character, read off each point's coordinate
    bit.  Column 1 adds +1 at the lower and -1 at the upper endpoint of each
    edge of the even matching with step 2^bit along dim.
    """
    weights = np.zeros((shape.size, 2), dtype=np.int64)
    coord = np.arange(shape.size) // shape.n ** dim % shape.n
    weights[:, 0] = np.where(coord & (1 << bit), -1, 1)
    lo, hi = _matching_edges(shape, MatchingId(dim, bit, 0))
    np.add.at(weights[:, 1], lo, 1)
    np.subtract.at(weights[:, 1], hi, 1)
    return weights


def _coefficient_routes(shape: GridShape, tables: np.ndarray, dim: int,
                        bit: int) -> Tuple[np.ndarray, np.ndarray]:
    """n^d times the single-bit coefficient of each row, by both routes.

    Route one is the plain expectation of f times the character; route two
    sums f over the lower minus the upper endpoints of the even matching.
    """
    from .oracle import _row_batches

    weights = _coefficient_weights(shape, dim, bit)
    routes = np.empty((len(tables), 2), dtype=np.int64)
    for rows in _row_batches(len(tables), shape.size):
        routes[rows] = tables[rows] @ weights
    return routes[:, 0], routes[:, 1]


def _agreed(by_expectation: int, by_matching: int, size: int) -> Fraction:
    """The coefficient both routes give; a mismatch means the side
    convention broke, which is unrecoverable."""
    if by_expectation != by_matching:
        raise IntegrityError(
            f"coefficient routes disagree: {Fraction(int(by_expectation), size)} "
            f"vs {Fraction(int(by_matching), size)}")
    return Fraction(int(by_expectation), size)


def edge_coefficient(f: BoolFunc, dim: int, bit: int) -> Fraction:
    """Coefficient of the single-bit character, computed two independent ways."""
    by_expectation, by_matching = _coefficient_routes(f.shape, f.bits[None], dim, bit)
    return _agreed(by_expectation[0], by_matching[0], f.shape.size)


@dataclass(frozen=True)
class LineDeltaReport:
    delta_I: Fraction
    I_minus: Fraction
    e1_coeff: Fraction
    inequality_holds: bool
    delta_sorted_ge: bool       # sorting the line does not shrink delta_I
    final_claim_holds: bool     # sorting shifts -e1 up by at most 4 I_minus


@dataclass(frozen=True)
class LineSweep:
    """Line reports of many lines [n], one row per line.

    Quantities are integer numerators over n; e1 is the longest-matching
    coefficient by expectation, e1_matching the same by the matching, and
    the _sorted arrays describe each line's sorted line.
    """

    n: int
    delta_I: np.ndarray
    I_minus: np.ndarray
    e1: np.ndarray
    e1_matching: np.ndarray
    delta_sorted: np.ndarray
    e1_sorted: np.ndarray
    e1_sorted_matching: np.ndarray
    inequality_holds: np.ndarray
    delta_sorted_ge: np.ndarray
    final_claim_holds: np.ndarray

    @property
    def passed(self) -> np.ndarray:
        """Rows whose routes agree and whose three claims hold."""
        return ((self.e1 == self.e1_matching) & (self.e1_sorted == self.e1_sorted_matching)
                & self.inequality_holds & self.delta_sorted_ge & self.final_claim_holds)

    def report(self, k: int) -> LineDeltaReport:
        """Row k as a report; IntegrityError if its coefficient routes disagree."""
        e1 = _agreed(self.e1[k], self.e1_matching[k], self.n)
        _agreed(self.e1_sorted[k], self.e1_sorted_matching[k], self.n)
        return LineDeltaReport(
            Fraction(int(self.delta_I[k]), self.n), Fraction(int(self.I_minus[k]), self.n), e1,
            inequality_holds=bool(self.inequality_holds[k]),
            delta_sorted_ge=bool(self.delta_sorted_ge[k]),
            final_claim_holds=bool(self.final_claim_holds[k]),
        )


def line_sweep(shape: GridShape, tables: np.ndarray) -> LineSweep:
    """Signed influence of each line against its longest-matching coefficient.

    `tables` is a (lines, n) array of bits.  Checks
    delta_I <= log2(n) * (4 I_minus - e1) exactly, and compares each line
    with its sorted line: sorting never shrinks delta_I and shifts e1 by at
    most 4 I_minus.
    """
    from .oracle import _checked_tables, edge_counts_batch

    if shape.d != 1 or not shape.is_pow2() or shape.n < 4:
        raise ValueError("needs a line with n a power of 2, n >= 4")
    top = shape.bits - 1
    tables = _checked_tables(shape, tables)
    violated, upward = edge_counts_batch(shape, tables)
    e1, e1_matching = _coefficient_routes(shape, tables, 0, top)
    ordered = np.sort(tables, axis=1)  # sort_line, row by row
    violated_sorted, upward_sorted = edge_counts_batch(shape, ordered)
    e1_sorted, e1_sorted_matching = _coefficient_routes(shape, ordered, 0, top)
    delta = upward - violated
    delta_sorted = upward_sorted - violated_sorted
    return LineSweep(
        shape.n, delta, violated, e1, e1_matching, delta_sorted, e1_sorted, e1_sorted_matching,
        inequality_holds=delta <= shape.bits * (4 * violated - e1),
        delta_sorted_ge=delta_sorted >= delta,
        final_claim_holds=-e1_sorted <= -e1 + 4 * violated,
    )


def line_delta_report(g: BoolFunc) -> LineDeltaReport:
    """The line report of one line: the one-row view of line_sweep."""
    return line_sweep(g.shape, g.bits[None]).report(0)


# ----------------------------------------------------------------------
# spot checks: the `fourier` subcommand and acceptance criterion 6

PARSEVAL_SHAPE = GridShape(8, 3)

# fourier_spot_checks draws and transforms at most this many table points:
# 131,072 tables of 8^3, about 5 s on a 2-vCPU host in blocks of
# _DEFECT_BLOCK tables.  The CLI default of 100 tables and criterion 6's
# 1,000 fit.
SPOT_CHECK_POINTS = 1 << 26


# Tables per block of _transform_defects: each (64, 512) float64 array is 256 KB.
_DEFECT_BLOCK = 64


def _transform_defects(rng, tables: int) -> Tuple[float, float]:
    """Worst Parseval and inverse-transform defects over random +-1 tables on
    PARSEVAL_SHAPE, drawn and transformed _DEFECT_BLOCK tables at a time; one
    draw of k tables' bits is k draws of one table's, in order."""
    size = PARSEVAL_SHAPE.size
    worst = worst_inv = 0.0
    for first in range(0, tables, _DEFECT_BLOCK):
        count = min(_DEFECT_BLOCK, tables - first)
        values = (_random_bits(rng, count * size) * 2.0 - 1.0).reshape(count, size)
        coeffs = _butterfly(values.copy()) / size             # transform, row by row
        inverse = _butterfly(coeffs.copy()) / size * size     # inverse_transform
        worst = max(worst, float(np.max(np.abs(np.sum(coeffs ** 2, axis=1) - 1.0))))
        worst_inv = max(worst_inv, float(np.max(np.abs(inverse - values))))
    return worst, worst_inv


def _line_failures(n: int) -> Iterator[Tuple[int, str]]:
    """(mask, reason) for every function on the line [n] that breaks the line
    inequality, a sorting claim, or the agreement of the coefficient routes."""
    # [16] is criterion 6's longest line, a 2^16 x 16 bit array; [32] would
    # need 2^32 rows.  The limit is on n, so an absurd n never builds 2^n.
    if n > 16:
        raise CapacityError("line sweep", n, 16)
    line = GridShape(n, 1)
    for first, tables in _table_blocks(line):
        sweep = line_sweep(line, tables)
        for k in np.flatnonzero(~sweep.passed).tolist():
            try:
                rep = sweep.report(k)
            except IntegrityError as exc:
                yield first + k, str(exc)  # the two coefficient routes disagree
                continue
            if not rep.inequality_holds:
                yield first + k, "line bound fails"
            elif not (rep.delta_sorted_ge and rep.final_claim_holds):
                yield first + k, "sorting claim fails"


def fourier_spot_checks(line_n: int, tables: int, master_seed: int):
    """Parseval, transform self-inverse, and the exhaustive line sweep."""
    if tables < 1:
        raise ValueError("tables must be >= 1")
    if tables * PARSEVAL_SHAPE.size > SPOT_CHECK_POINTS:
        raise CapacityError("fourier spot checks", tables * PARSEVAL_SHAPE.size,
                            SPOT_CHECK_POINTS, "table points")
    # the line sweep first, so a bad line size is refused before any transform
    bad = sum(1 for _ in _line_failures(line_n))
    worst, worst_inv = _transform_defects(derive_rng(master_seed, "cli-parseval"), tables)
    lines = [
        f"parseval defect {worst:.3e} over {tables} tables (tolerance 1e-12)",
        f"inverse-transform defect {worst_inv:.3e}",
        f"line sweep n={line_n}: {bad} failures out of {1 << line_n}",
    ]
    return worst <= 1e-12 and worst_inv <= 1e-9 and bad == 0, lines
