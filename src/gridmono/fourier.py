"""Walsh-function analysis over power-of-two grids.

A power-of-two grid [n]^d is, bit for bit, the hypercube {0,1}^(d log2 n):
the linear index of a point concatenates the binary digits of its
coordinates.  Walsh characters are therefore hypercube characters and the
fast transform is the standard butterfly over all d log2(n) index bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

import numpy as np

from .errors import CapacityError, IntegrityError
from .func import BoolFunc, sort_line
from .grid import GridShape, MatchingId, Point, _matching_edges, check_point, linear_index

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
    """Unnormalized butterfly over a length 2^k array, in place.

    Exact on object arrays of ints or Fractions; float64 otherwise.
    """
    h = 1
    while h < len(arr):
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


def edge_coefficient(f: BoolFunc, dim: int, bit: int) -> Fraction:
    """Coefficient of the single-bit character, computed two independent ways.

    Route one is the plain expectation of f times the character; route two
    averages f over the endpoints of the even matching with step 2^bit.
    A mismatch means the side convention broke, which is unrecoverable.
    """
    shape = f.shape
    table = f.table()
    mask = 1 << bit
    stride = shape.n ** dim
    total = 0
    for idx, b in enumerate(table):
        if b:
            total += -1 if (idx // stride) % shape.n & mask else 1
    by_expectation = Fraction(total, shape.size)
    diff = sum(table[lo] - table[hi] for lo, hi in _matching_edges(shape, MatchingId(dim, bit, 0)))
    by_matching = Fraction(diff, shape.size)
    if by_expectation != by_matching:
        raise IntegrityError(
            f"coefficient routes disagree: {by_expectation} vs {by_matching}")
    return by_expectation


@dataclass(frozen=True)
class LineDeltaReport:
    delta_I: Fraction
    I_minus: Fraction
    e1_coeff: Fraction
    inequality_holds: bool
    delta_sorted_ge: bool       # sorting the line does not shrink delta_I
    final_claim_holds: bool     # sorting shifts -e1 up by at most 4 I_minus


def _line_terms(g: BoolFunc) -> Tuple[Fraction, Fraction, Fraction]:
    """delta_I, I_minus and the longest-matching coefficient e1 of a line."""
    from .oracle import violated_aug_edges

    s_minus, s_plus = violated_aug_edges(g)
    n = g.shape.size
    return (Fraction(len(s_plus) - len(s_minus), n),
            Fraction(len(s_minus), n),
            edge_coefficient(g, 0, g.shape.bits - 1))


def line_delta_report(g: BoolFunc) -> LineDeltaReport:
    """Signed influence of a line against its longest-matching coefficient.

    Checks delta_I <= log2(n) * (4 I_minus - e1) exactly, and compares g
    with its sorted line: sorting never shrinks delta_I and shifts e1 by at
    most 4 I_minus.
    """
    shape = g.shape
    if shape.d != 1 or not shape.is_pow2() or shape.n < 4:
        raise ValueError("needs a line with n a power of 2, n >= 4")
    delta, I_minus, e1 = _line_terms(g)
    delta_sorted, _, e1_sorted = _line_terms(sort_line(g))
    return LineDeltaReport(
        delta, I_minus, e1,
        inequality_holds=delta <= shape.bits * (4 * I_minus - e1),
        delta_sorted_ge=delta_sorted >= delta,
        final_claim_holds=-e1_sorted <= -e1 + 4 * I_minus,
    )


def unit_coefficients(f: BoolFunc) -> list:
    """The longest-matching coefficient for every dimension."""
    bits = f.shape.bits
    return [edge_coefficient(f, i, bits - 1) for i in range(f.shape.d)]
