"""Domain-reduction tests: plans, the block map, and lifted functions."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gridmono.func import BoolFunc, _mask_bits, generate, is_monotone
from gridmono.grid import GridShape, linear_index, point_of
from gridmono.oracle import cut_distance_batch, distance_to_monotonicity, monotone_masks
from gridmono.reduce import ReductionPlan, _index_map, lift, phi, plan


def block_sizes(p):
    """The plan's blocks along an axis, in order: m of d + i points, then n - m of d + i + 1."""
    return (p.d + p.i,) * p.m + (p.d + p.i + 1,) * (p.n - p.m)


def test_plan_examples():
    p = plan(3, 2)
    assert (p.i, p.N, p.m) == (0, 8, 1)
    assert block_sizes(p) == (2, 3, 3)
    p = plan(2, 1)
    assert (p.N, p.m) == (2, 2)
    assert block_sizes(p) == (1, 1)
    p = plan(3, 1)
    assert (p.N, p.m) == (4, 2)
    assert block_sizes(p) == (1, 1, 2)
    # a power-of-two n still gets a plan, no shortcut
    p = plan(4, 2)
    assert p.N & (p.N - 1) == 0


def test_plan_properties():
    for n in range(1, 12):
        for d in range(1, 9):
            p = plan(n, d)
            assert sum(block_sizes(p)) == p.N
            assert 0 <= p.m <= n
            assert n * d <= p.N <= 2 * n * (d + 1)
            assert n * (d + p.i) <= p.N <= n * (d + p.i + 1)
    with pytest.raises(ValueError, match="sum to N"):
        ReductionPlan(3, 2, 0, 8, 2)


def test_phi_and_lift_match_the_blocks():
    # phi and the lift's vectorised map, against the blocks laid out one by one
    for n in range(1, 41):
        for d in (1, 2, 3, 7):
            p = plan(n, d)
            blocks = [b for b, size in enumerate(block_sizes(p)) for _ in range(size)]
            assert [phi(p, y) for y in range(p.N)] == blocks
            seen = []   # the points the lift reads f at, y on every axis
            f = BoolFunc.from_predicate(GridShape(n, d), lambda x: seen.append(x) or 0)
            lift(p, f).eval_batch(np.repeat(np.arange(p.N)[:, None], d, axis=1))
            assert seen == [(b,) * d for b in blocks]


def test_plan_at_a_billion_points_per_axis():
    # the plan is five ints and phi is arithmetic, whatever n is
    n = 10 ** 9 + 1
    tracemalloc.start()
    try:
        p = plan(n, 1)
        ends = [phi(p, y) for y in (0, p.N - 1)]
        lifted = lift(p, generate("anti_slab", GridShape(n, 1)))
        values = lifted.eval_batch(np.array([[0], [p.N // 2], [p.N - 1]]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (p.N, p.m, ends) == (1 << 30, 2 * n - (1 << 30), [0, n - 1])
    assert values.tolist() == [1, 0, 0] and peak < 1 << 20


def test_phi_examples():
    p = plan(3, 2)
    assert [phi(p, y) for y in range(8)] == [0, 0, 1, 1, 1, 2, 2, 2]
    for n, d in ((2, 1), (3, 1), (5, 3), (7, 2)):
        p = plan(n, d)
        assert phi(p, 0) == 0
        assert phi(p, p.N - 1) == n - 1
        values = [phi(p, y) for y in range(p.N)]
        assert values == sorted(values)
        assert set(values) == set(range(n))
    with pytest.raises(ValueError):
        phi(plan(3, 2), 8)


def test_lift_example_table():
    f = BoolFunc.from_table(GridShape(3, 1), [1, 0, 0])
    g = lift(plan(3, 1), f)
    assert g.shape == GridShape(4, 1)
    assert g.table() == [1, 0, 0, 0]


def test_lift_preserves_monotone():
    for n, d in ((3, 1), (3, 2), (5, 1)):
        shape = GridShape(n, d)
        p = plan(n, d)
        for mask in monotone_masks(shape):
            assert is_monotone(lift(p, BoolFunc.from_mask(shape, mask)))


def assert_lift_keeps_a_sixth(n, d, masks):
    """eps(lift f) >= eps(f) / 6 for each mask, from one cut batch for the
    functions and one for their lifts; a few rows also through the one-row view."""
    shape, p = GridShape(n, d), plan(n, d)
    big = GridShape(p.N, d)
    lifts = [lift(p, BoolFunc.from_mask(shape, mask)) for mask in masks]
    count_f = cut_distance_batch(shape, _mask_bits(masks, shape.size))
    count_g = cut_distance_batch(big, np.array([g.bits for g in lifts]))
    assert (6 * count_g * shape.size >= count_f * big.size).all()
    for k in np.linspace(0, len(masks) - 1, 4).astype(int).tolist():
        assert distance_to_monotonicity(lifts[k]).eps == Fraction(int(count_g[k]), big.size)
        assert distance_to_monotonicity(BoolFunc.from_mask(shape, masks[k])).eps == \
            Fraction(int(count_f[k]), shape.size)


def test_lift_distance_bound_exhaustive():
    for n, d in ((3, 1), (2, 1), (2, 2)):
        assert_lift_keeps_a_sixth(n, d, range(1 << (n ** d)))


def test_lift_distance_bound_sampled(rng):
    for n, d, samples in ((3, 2, 60), (5, 1, 60), (5, 2, 15)):
        assert_lift_keeps_a_sixth(n, d, [rng.randrange(1 << (n ** d)) for _ in range(samples)])


def test_lift_query_forwarding(rng):
    shape = GridShape(3, 2)
    f = generate("uniform_random", shape, seed=21)
    p = plan(3, 2)
    g = lift(p, f)
    for k in range(1, 30):
        g.eval((rng.randrange(p.N), rng.randrange(p.N)))
        assert f.queries == k and g.queries == k


def test_lift_batch_query_forwarding(rng):
    f = generate("uniform_random", GridShape(3, 2), seed=21)
    p = plan(3, 2)
    g = lift(p, f)
    pts = np.array([[rng.randrange(p.N), rng.randrange(p.N)] for _ in range(40)])
    values = g.eval_batch(pts)
    assert f.queries == 40 and g.queries == 40
    assert values.tolist() == [f.table()[phi(p, a) + 3 * phi(p, b)] for a, b in pts.tolist()]


@pytest.mark.parametrize("n, d", [(3, 2), (10 ** 9 + 1, 1), ((1 << 32) + 1, 2)])
def test_lift_batch_on_the_walk_kernels_unsigned_arrays(n, d, rng):
    # the walk kernel's arrays are min_scalar_type(2N - 1): uint8, uint32, uint64 here
    p = plan(n, d)
    f = generate("anti_slab", GridShape(n, d))
    g = lift(p, f)
    dtype = np.min_scalar_type(2 * p.N - 1)
    pts = np.array([[rng.randrange(p.N) for _ in range(d)] for _ in range(50)]
                   + [[p.N - 1] * d, [0] * d], dtype=dtype)
    assert g.eval_batch(pts).tolist() == [g.eval(tuple(x)) for x in pts.tolist()]


def test_lift_past_2_62_points(rng):
    # N = 2^31 on each of 2^14 axes: the lift's cost is set by its queries, not by N
    p = plan((1 << 16) + 1, 1 << 14)
    assert p.N == 1 << 31
    f = generate("block_parity", GridShape(p.n, p.d))
    g = lift(p, f)
    pts = np.array([[rng.randrange(p.N) for _ in range(p.d)] for _ in range(3)])
    expected = [f.eval(tuple(phi(p, v) for v in x)) for x in pts.tolist()]
    assert g.eval_batch(pts).tolist() == expected


@pytest.mark.parametrize("n, d", [(3, 1), (3, 2), (5, 1), (5, 2), (6, 2)])
def test_lift_bits_match_phi(n, d, rng):
    shape = GridShape(n, d)
    p = plan(n, d)
    big = GridShape(p.N, d)
    for _ in range(4):
        f = BoolFunc.from_mask(shape, rng.randrange(1 << shape.size))
        g = lift(p, f)
        expected = [f.table()[linear_index(shape, tuple(phi(p, v) for v in point_of(big, k)))]
                    for k in range(big.size)]
        before = f.queries
        assert g.bits.tolist() == expected
        assert f.queries - before == big.size and g.queries == 0


@pytest.mark.parametrize("n, d, m, samples", [
    (3, 1, 2, None), (3, 2, 1, None), (5, 1, 2, None), (6, 2, 2, 40), (3, 3, 2, 40),
    (2, 3, 0, None), (4, 3, 0, 20),   # every block long
])
def test_block_lift_matches_the_per_mask_lift(n, d, m, samples, rng):
    # one gather of the mask tables through the index map, against lift(...).bits
    shape, p = GridShape(n, d), plan(n, d)
    assert p.m == m
    masks = (list(range(1 << shape.size)) if samples is None
             else [rng.randrange(1 << shape.size) for _ in range(samples)])
    lifted = _mask_bits(masks, shape.size)[:, _index_map(p)]
    assert lifted.shape == (len(masks), p.N ** d)
    for mask, row in zip(masks, lifted):
        assert np.array_equal(row, lift(p, BoolFunc.from_mask(shape, mask)).bits)


def test_lift_shape_mismatch():
    f = generate("uniform_random", GridShape(4, 2), seed=1)
    with pytest.raises(ValueError):
        lift(plan(3, 2), f)
