"""Domain reduction: wrap f on [n]^d as g on [N]^d with N a power of two.

Each axis of the big grid is cut into n blocks (m short ones, then n - m
long ones); g reads f at the block indices.  One g query costs exactly one
f query, monotonicity is preserved, and distance shrinks by at most a
constant factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .func import BoolFunc
from .grid import GridShape


@dataclass(frozen=True)
class ReductionPlan:
    """Blocks of an axis of [N]: m short ones of d + i points, then n - m long
    ones of d + i + 1."""

    n: int
    d: int
    i: int
    N: int
    m: int

    def __post_init__(self):
        if not 0 <= self.m <= self.n:
            raise ValueError(f"m={self.m} out of range [0, {self.n}]")
        if self.n * (self.d + self.i + 1) - self.m != self.N:
            raise ValueError("block sizes must sum to N")
        if self.N & (self.N - 1):
            raise ValueError(f"N={self.N} is not a power of 2")


def plan(n: int, d: int) -> ReductionPlan:
    """Smallest offset i whose interval [n(d+i), n(d+i+1)] holds a power of two.

    The intervals cover [nd, 2nd], so some i works.  When two powers land in
    one interval the smaller is taken (smaller lifted domain).
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    for i in range(d):
        lo, hi = n * (d + i), n * (d + i + 1)
        p = 1 << max(lo - 1, 0).bit_length() if lo > 1 else 1
        if p <= hi:
            return ReductionPlan(n, d, i, p, hi - p)
    raise AssertionError(f"no interval for n={n}, d={d} holds a power of 2")


def _block(p: ReductionPlan, y):
    """Block index of y, an int or an int array of big-grid coordinates.

    The m short blocks of s = d + i points end at m s; past it y lies in
    block m + (y - m s) // (s + 1), which is (y + m) // (s + 1).
    """
    long = y >= p.m * (p.d + p.i)
    return (y + long * p.m) // (p.d + p.i + long)


def phi(p: ReductionPlan, y: int) -> int:
    """Block index of the big-grid coordinate y; monotone and surjective."""
    if not 0 <= y < p.N:
        raise ValueError(f"coordinate {y} out of range [0, {p.N})")
    return _block(p, y)


def _index_map(p: ReductionPlan) -> np.ndarray:
    """For each point of [N]^d, in linear-index order, the linear index of its
    block in [n]^d: a table of f read at these indices is the table of lift(p, f)."""
    blocks = _block(p, np.arange(p.N, dtype=np.int64))
    index = blocks
    for _ in range(p.d - 1):   # Horner's rule from dimension d - 1 down, as linear_index
        index = np.add.outer(index * p.n, blocks)
    return index.ravel()


def lift(p: ReductionPlan, f: BoolFunc) -> BoolFunc:
    """g(y) = f applied blockwise; predicate-backed, one f query per g query,
    and vectorised as f.eval_batch at the block indices (phi of each coordinate)."""
    if f.shape != GridShape(p.n, p.d):
        raise ValueError(f"plan is for {p.n}^{p.d}, function is on {f.shape.n}^{f.shape.d}")

    def g(y) -> int:
        return f.eval(tuple(phi(p, v) for v in y))

    lifted = BoolFunc.from_predicate(GridShape(p.N, p.d), g)
    # in int64: X + m could wrap in a narrow unsigned X, and uint64 with int64 gives float64
    lifted._batch = lambda X: f.eval_batch(_block(p, X.astype(np.int64, copy=False)))
    return lifted
