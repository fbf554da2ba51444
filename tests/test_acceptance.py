"""Acceptance suite: one test per shipping criterion.

Each test runs the corresponding check from gridmono.verify at its full
stated volume and tolerance and prints one PASS/FAIL line (visible with
pytest -s or in captured output).  The CLI `verify` subcommand runs the
same checks.
"""

import numpy as np
import pytest

from gridmono import verify
from gridmono.func import BoolFunc
from gridmono.grid import GridShape
from gridmono.oracle import optimal_matching
from gridmono.streams import derive_rng

SEED = verify.DEFAULT_MASTER_SEED


def report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} criterion-{result.criterion} {result.name}: {result.detail}")
    assert result.passed, result.detail


def test_criterion_1_one_sided_error():
    report(verify.check_one_sided(SEED))


def test_criterion_2_distance_oracle_equivalence():
    report(verify.check_distance_equivalence())


def test_criterion_3_isoperimetry_regression():
    report(verify.check_isoperimetry_regression())


def test_criterion_4_decomposition_routing():
    report(verify.check_decomposition_routing(SEED))


def test_decomposition_instances_match_a_per_mask_loop():
    master_seed = 11
    expected = []
    for n, d in ((2, 1), (2, 2), (4, 1)):
        shape = GridShape(n, d)
        for mask in range(1 << shape.size):
            mstar = optimal_matching(BoolFunc.from_mask(shape, mask))
            if not mstar.empty:
                expected.append((shape, mask, mstar))
    shape = GridShape(4, 2)
    rng = derive_rng(master_seed, "decomposition-sample")
    picked = 0
    while picked < 1000:
        mask = rng.randrange(1 << shape.size)
        mstar = optimal_matching(BoolFunc.from_mask(shape, mask))
        if not mstar.empty:
            expected.append((shape, mask, mstar))
            picked += 1
    got = verify.decomposition_instances(master_seed)
    assert [(shape, mask, mstar) for shape, mask, _, mstar in got] == expected
    assert all(f.shape == shape and np.array_equal(f.bits, BoolFunc.from_mask(shape, mask).bits)
               for shape, mask, f, _ in got)


def test_criterion_5_alternating_counts():
    report(verify.check_alternating_counts(SEED))


def test_criterion_6_fourier_suite():
    report(verify.check_fourier_suite(SEED))


def test_criterion_7_reduction():
    report(verify.check_reduction(SEED))


def test_criterion_8_calibrated_detection():
    report(verify.check_calibrated_detection(SEED))


def test_criterion_9_determinism():
    report(verify.check_determinism(SEED))
