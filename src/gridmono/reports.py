"""Deterministic sweep reports.

Every row draws from its own stream derived from (master seed, experiment
id), and rows are emitted in a fixed order, so a report is a pure function
of its configuration.  The tester's walks are numbered within that stream,
so the bytes do not depend on how the walks are batched.
"""

from __future__ import annotations

import math
from decimal import Decimal
from typing import List, Sequence, Tuple

import numpy as np

from .errors import CapacityError
from .func import BoolFunc, _mask_blocks, _table_blocks, generate
from .grid import GridShape
from .oracle import (
    DISTANCE_CAPACITY,
    distance_to_monotonicity,
    edge_counts_batch,
    isoperimetry_sweep,
    ratio_terms,
)
from .streams import derive_rng, derive_seed
from .tester import detection_rate, persistence_fraction

RATE_HEADER = "n,d,family,eps_true,trials,rejections,rate,wilson_lo,wilson_hi"
ISO_HEADER = "n,d,function_id,eps,I,I_minus,gamma_minus,r,margulis_ratio,edge_ratio,vertex_ratio"
PERSISTENCE_HEADER = "n,d,tau,family,nonpersistent_fraction,reference_bound"

# Sampled points (samples x points) per grid of an isoperimetry sweep: the
# masks are drawn before any is swept, one bit a point, so this caps them at
# 8 MiB; the default 1000 samples fit at the 2^16-point cap.
ISO_SAMPLE_CAPACITY = 1 << 26


def _fmt(x) -> str:
    return repr(float(x))


def make_function(family: str, shape: GridShape, master_seed: int, tag: str) -> BoolFunc:
    return generate(family, shape, seed=derive_seed(master_seed, f"fn:{tag}:{family}:{shape.n}:{shape.d}"))


def rate_rows(shapes: Sequence[Tuple[int, int]], families: Sequence[str], trials: int,
              master_seed: int) -> List[str]:
    rows = []
    for n, d in shapes:
        shape = GridShape(n, d)
        for family in families:
            f = make_function(family, shape, master_seed, "rate")
            eps_true = float(distance_to_monotonicity(f).eps)
            rate = detection_rate(f, trials, derive_rng(master_seed, f"rate:{family}:{n}:{d}"))
            rows.append(",".join([
                str(n), str(d), family, _fmt(eps_true), str(trials), str(rate.rejections),
                _fmt(rate.estimate), _fmt(rate.wilson_low), _fmt(rate.wilson_high)]))
    return rows


def isoperimetry_rows(shapes: Sequence[Tuple[int, int]], master_seed: int,
                      samples: int = 1000) -> List[str]:
    """One row per eps-far function: all 2^(n^d) when n^d <= 16, sampled above."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    grids = [GridShape(n, d) for n, d in shapes]
    for shape in grids:
        if shape.size > DISTANCE_CAPACITY:
            raise CapacityError("isoperimetry sweep", shape.size, DISTANCE_CAPACITY)
        if shape.size > 16 and samples * shape.size > ISO_SAMPLE_CAPACITY:
            raise CapacityError("isoperimetry samples", samples * shape.size,
                                ISO_SAMPLE_CAPACITY, "sampled points")
    rows = []
    for shape in grids:
        n, d, size = shape.n, shape.d, shape.size
        if size <= 16:
            masks, blocks = range(1 << size), _table_blocks(shape)
        else:
            rng = derive_rng(master_seed, f"iso:{n}:{d}")
            masks = [rng.randrange(1 << size) for _ in range(samples)]
            blocks = _mask_blocks(shape, masks)
        for first, tables in blocks:
            sweep = isoperimetry_sweep(shape, tables)
            far = np.flatnonzero(sweep.matched)
            neg, pos, g, m, total = (c[far] for c in (
                sweep.violated, sweep.upward, sweep.gamma, sweep.matched, sweep.total))
            # exact below 2^53, so each division rounds once, as float(Fraction) does
            values = np.stack([m / size, (neg + pos) / size, neg / size, g / size, total / m,
                               *(num / den for num, den in ratio_terms(neg, g, m, total))], axis=1)
            # Decimal, because str(int) refuses more than 4300 digits (see
            # sys.get_int_max_str_digits), and a mask of 2^14 points has 4933
            rows.extend(",".join([str(n), str(d), str(Decimal(masks[first + k])), *map(repr, row)])
                        for k, row in zip(far.tolist(), values.tolist()))
    return rows


def persistence_rows(shapes: Sequence[Tuple[int, int]], families: Sequence[str],
                     taus: Sequence[int], outer_samples: int, inner_samples: int,
                     master_seed: int) -> List[str]:
    rows = []
    for n, d in shapes:
        shape = GridShape(n, d)
        for family in families:
            f = make_function(family, shape, master_seed, "persistence")
            violated, upward = edge_counts_batch(shape, f.bits[None])
            total_influence = int(violated[0] + upward[0]) / shape.size
            for tau in taus:
                rng = derive_rng(master_seed, f"persistence:{family}:{n}:{d}:{tau}")
                fraction = persistence_fraction(f, tau, outer_samples, inner_samples, rng)
                reference = tau * total_influence / (d * math.log2(n))
                rows.append(",".join([
                    str(n), str(d), str(tau), family, _fmt(fraction), _fmt(reference)]))
    return rows


def write_report(path: str, header: str, rows: Sequence[str]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(render_report(header, rows))


def render_report(header: str, rows: Sequence[str]) -> str:
    return "\n".join([header, *rows]) + "\n"
