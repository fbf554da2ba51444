"""Walsh transform tests, including the naive-expectation oracle."""

import random
from fractions import Fraction

import numpy as np
import pytest

from gridmono.errors import CapacityError, IntegrityError
from gridmono.func import (
    BoolFunc,
    _mask_bits,
    _random_bits,
    _table_blocks,
    generate,
    restrict_line,
    sort_line,
)
from gridmono import fourier
from gridmono.fourier import (
    PARSEVAL_SHAPE,
    WalshIndex,
    _butterfly,
    _coefficient_routes,
    _transform_defects,
    edge_coefficient,
    inverse_transform,
    line_delta_report,
    line_sweep,
    transform,
    transform_exact,
    walsh_value,
)
from gridmono.grid import GridShape, linear_index, point_of, points
from gridmono.oracle import edge_counts_batch, violated_aug_edges


def naive_transform(shape, values):
    """Oracle: each coefficient as a plain expectation against its character."""
    out = []
    for idx_lin in range(shape.size):
        w_idx = WalshIndex.from_mask_point(shape, point_of(shape, idx_lin))
        total = sum(values[linear_index(shape, x)] * walsh_value(shape, w_idx, x)
                    for x in points(shape))
        out.append(total / shape.size)
    return out


def character_matrix(shape):
    """Oracle: the (masks, points) matrix of characters, row k for the mask
    point_of(k), from the per-coordinate definition: the parity of the summed
    popcount(mask_i & x_i) over the axes i."""
    coords = np.array(list(points(shape)))
    popcount = np.array([v.bit_count() for v in range(shape.n)])
    parity = sum(popcount[coords[:, None, i] & coords[None, :, i]] for i in range(shape.d))
    return np.where(parity % 2, -1, 1)


def test_walsh_value_examples():
    shape = GridShape(2, 1)
    empty = WalshIndex.empty(1)
    assert walsh_value(shape, empty, (0,)) == 1
    assert walsh_value(shape, empty, (1,)) == 1
    unit = WalshIndex.unit(1, 0, 0)
    assert walsh_value(shape, unit, (0,)) == 1
    assert walsh_value(shape, unit, (1,)) == -1


def test_walsh_characters_multiply(rng):
    shape = GridShape(8, 2)
    pts = list(points(shape))
    for _ in range(60):
        a = WalshIndex.from_mask_point(shape, pts[rng.randrange(len(pts))])
        b = WalshIndex.from_mask_point(shape, pts[rng.randrange(len(pts))])
        x = pts[rng.randrange(len(pts))]
        assert walsh_value(shape, a.symmetric_difference(b), x) == \
            walsh_value(shape, a, x) * walsh_value(shape, b, x)


def test_walsh_index_validation():
    shape = GridShape(4, 2)
    with pytest.raises(ValueError):
        WalshIndex.unit(2, 0, 5).mask_point(shape)
    with pytest.raises(ValueError):
        WalshIndex.empty(1).mask_point(shape)


def test_transform_constant():
    shape = GridShape(4, 2)
    spectrum = transform(shape, [1.0] * shape.size)
    assert spectrum.coeffs[0] == 1.0
    assert np.all(spectrum.coeffs[1:] == 0.0)


def test_transform_two_point_example():
    shape = GridShape(2, 1)
    spectrum = transform(shape, [1.0, -1.0])
    assert spectrum.coefficient(WalshIndex.empty(1)) == 0.0
    assert spectrum.coefficient(WalshIndex.unit(1, 0, 0)) == 1.0


def test_transform_matches_naive_oracle():
    shape = GridShape(8, 3)
    rng = random.Random(31)
    values = [1.0 if rng.getrandbits(1) else -1.0 for _ in range(shape.size)]
    fast = transform(shape, values).coeffs
    chars = character_matrix(shape)
    naive = chars @ np.array(values) / shape.size
    assert np.max(np.abs(fast - naive)) <= 1e-12
    for _ in range(2000):   # the matrix is walsh_value's characters
        mask, x = (point_of(shape, rng.randrange(shape.size)) for _ in range(2))
        idx = WalshIndex.from_mask_point(shape, mask)
        assert walsh_value(shape, idx, x) == chars[linear_index(shape, mask), linear_index(shape, x)]


def test_parseval(rng):
    shape = GridShape(8, 3)
    for _ in range(50):
        values = [1 if rng.getrandbits(1) else -1 for _ in range(shape.size)]
        spectrum = transform(shape, values)
        assert abs(float(np.sum(spectrum.coeffs ** 2)) - 1.0) <= 1e-12
        exact = transform_exact(shape, values)
        assert sum(c * c for c in exact) == 1


@pytest.mark.parametrize("rows, size", [(1, 1), (3, 2), (5, 64), (9, 512)])
def test_butterfly_block_equals_each_row_alone(rows, size):
    gen = np.random.default_rng(size)
    # float64 values whose sums round, and ints on object arrays (exact)
    for block in (gen.standard_normal((rows, size)) * 10.0 ** gen.integers(-8, 9, (rows, size)),
                  gen.integers(-50, 50, (rows, size)).astype(object)):
        alone = [_butterfly(row.copy()) for row in block]
        whole = _butterfly(block.copy())
        assert whole.shape == block.shape and whole.dtype == block.dtype
        for got, want in zip(whole, alone):
            if block.dtype == object:
                assert got.tolist() == want.tolist()
            else:   # bit for bit
                assert got.tobytes() == want.tobytes()


def one_table_defects(rng, tables):
    """_transform_defects' reference: one table drawn and transformed at a time."""
    shape = PARSEVAL_SHAPE
    worst = worst_inv = 0.0
    for _ in range(tables):
        values = _random_bits(rng, shape.size) * 2.0 - 1.0
        spectrum = transform(shape, values)
        worst = max(worst, abs(float(np.sum(spectrum.coeffs ** 2)) - 1.0))
        worst_inv = max(worst_inv, float(np.max(np.abs(inverse_transform(spectrum) - values))))
    return worst, worst_inv


@pytest.mark.parametrize("tables", [1, 63, 64, 65, 1000])
def test_transform_defects_in_blocks_equal_one_table_at_a_time(tables):
    blocked, alone = random.Random(tables), random.Random(tables)
    assert _transform_defects(blocked, tables) == one_table_defects(alone, tables)
    # the blocks draw the Mersenne Twister's outputs one table at a time would
    assert blocked.getstate() == alone.getstate()


def test_transform_defects_see_a_broken_transform(monkeypatch):
    # a coefficient off by 2^-20 shows in both defects
    def off(arr):
        out = _butterfly(arr)
        out[..., 1] += 2.0 ** -20 * 512
        return out

    monkeypatch.setattr(fourier, "_butterfly", off)
    worst, worst_inv = _transform_defects(random.Random(1), 65)
    assert worst > 1e-12 and worst_inv > 1e-9


def test_transform_self_inverse(rng):
    shape = GridShape(4, 2)
    values = np.array([float(rng.getrandbits(1)) for _ in range(shape.size)])
    spectrum = transform(shape, values)
    assert np.array_equal(inverse_transform(spectrum), values)


def test_transform_exact_self_inverse(rng):
    shape = GridShape(8, 2)
    values = [rng.getrandbits(1) for _ in range(shape.size)]
    spectrum = transform_exact(shape, values)
    recovered = [c * shape.size for c in transform_exact(shape, spectrum)]
    assert recovered == values  # Fraction arithmetic, bit for bit


def test_transform_exact_fraction_table(rng):
    shape = GridShape(4, 2)
    values = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)) for _ in range(shape.size)]
    assert transform_exact(shape, values) == naive_transform(shape, values)


def test_fact_mean_of_characters():
    shape = GridShape(4, 2)
    for idx_lin in range(shape.size):
        w_idx = WalshIndex.from_mask_point(shape, point_of(shape, idx_lin))
        total = sum(walsh_value(shape, w_idx, x) for x in points(shape))
        assert total == (shape.size if idx_lin == 0 else 0)


def test_edge_coefficient_examples():
    shape = GridShape(4, 1)
    const = BoolFunc.from_table(shape, [1, 1, 1, 1])
    assert edge_coefficient(const, 0, 1) == 0
    f = BoolFunc.from_mask(shape, 0b0011)  # (1,1,0,0)
    assert edge_coefficient(f, 0, 1) == Fraction(1, 2)
    comp = BoolFunc.from_table(shape, [0, 0, 1, 1])
    assert edge_coefficient(comp, 0, 1) == -Fraction(1, 2)
    # past the augmented edge table's 2^16 points: a dictator x_5 on 2^17
    big = GridShape(2, 17)
    dictator = BoolFunc.from_table(big, np.arange(big.size) >> 5 & 1)
    assert edge_coefficient(dictator, 5, 0) == -Fraction(1, 2)
    assert edge_coefficient(dictator, 4, 0) == 0


def test_edge_coefficient_antisymmetry(rng):
    shape = GridShape(8, 2)
    for _ in range(20):
        table = [rng.getrandbits(1) for _ in range(shape.size)]
        f = BoolFunc.from_table(shape, table)
        g = BoolFunc.from_table(shape, [1 - b for b in table])
        for i in range(shape.d):
            for j in range(shape.bits):
                assert edge_coefficient(f, i, j) == -edge_coefficient(g, i, j)


def test_walsh_plus_one_on_even_lower_endpoints():
    # pins the sign convention: the single-bit character is +1 exactly on
    # lower endpoints of the even matching with that step
    from gridmono.grid import LOWER, MatchingId, side_in_matching

    shape = GridShape(8, 1)
    for j in range(shape.bits):
        w_idx = WalshIndex.unit(1, 0, j)
        mid = MatchingId(0, j, 0)
        for x in points(shape):
            expected = 1 if side_in_matching(shape, x, mid) == LOWER else -1
            assert walsh_value(shape, w_idx, x) == expected


def test_line_delta_report_examples():
    shape = GridShape(4, 1)
    mono = BoolFunc.from_table(shape, [0, 0, 1, 1])
    rep = line_delta_report(mono)
    assert rep.I_minus == 0 and rep.inequality_holds
    # monotone strengthening: delta_I <= log2(n) * (-e1)
    assert rep.delta_I <= shape.bits * (-rep.e1_coeff)
    const = BoolFunc.from_table(shape, [0, 0, 0, 0])
    rep = line_delta_report(const)
    assert rep.delta_I == 0 and rep.e1_coeff == 0 and rep.inequality_holds


def test_line_sweep_n8_exhaustive():
    shape = GridShape(8, 1)
    for mask in range(1 << 8):
        g = BoolFunc.from_mask(shape, mask)
        rep = line_delta_report(g)
        assert rep.inequality_holds, mask
        assert rep.delta_sorted_ge and rep.final_claim_holds, mask


def test_sort_comparisons_monotone_fixed_point():
    shape = GridShape(8, 1)
    g = BoolFunc.from_table(shape, [0, 0, 0, 1, 1, 1, 1, 1])
    rep = line_delta_report(g)
    assert rep.delta_sorted_ge and rep.final_claim_holds


def test_validation():
    with pytest.raises(ValueError):
        line_delta_report(BoolFunc.from_table(GridShape(2, 1), [0, 1]))
    with pytest.raises(ValueError):
        line_delta_report(generate("anti_slab", GridShape(4, 2)))
    with pytest.raises(ValueError):
        transform(GridShape(3, 1), [0.0, 1.0, 0.0])


def aggregation_gap(f):
    """Sum of longest-matching coefficient magnitudes minus its lower bound."""
    shape = f.shape
    s_minus, s_plus = violated_aug_edges(f)
    I = Fraction(len(s_minus) + len(s_plus), shape.size)
    I_minus = Fraction(len(s_minus), shape.size)
    lhs = sum(abs(edge_coefficient(f, i, shape.bits - 1)) for i in range(shape.d))
    return lhs - (I / shape.bits - 6 * I_minus)


def test_coefficient_aggregation_lower_bound_line():
    shape = GridShape(4, 1)
    for mask in range(1 << shape.size):
        assert aggregation_gap(BoolFunc.from_mask(shape, mask)) >= 0


def test_coefficient_aggregation_lower_bound_grid():
    # every mask in integers: n^d bits times aggregation_gap is
    # bits * sum |n^d c| - (violated + upward) + 6 * bits * violated
    shape = GridShape(4, 2)
    bits, slack = shape.bits, []
    for _, tables in _table_blocks(shape):
        violated, upward = edge_counts_batch(shape, tables)
        magnitude = np.zeros(len(tables), dtype=np.int64)
        for dim in range(shape.d):
            by_expectation, by_matching = _coefficient_routes(shape, tables, dim, bits - 1)
            assert np.array_equal(by_expectation, by_matching), dim
            magnitude += np.abs(by_expectation)
        slack.append(bits * magnitude - (violated + upward) + 6 * bits * violated)
    slack = np.concatenate(slack)
    assert len(slack) == 1 << shape.size
    failing = np.flatnonzero(slack < 0)
    assert not len(failing), f"mask {failing[0]} breaks the bound"
    for mask in (0, 1, 0x00FF, 0x0F0F, 0x8001, 0xFFFF, 40503):
        gap = aggregation_gap(BoolFunc.from_mask(shape, mask))
        assert gap == Fraction(int(slack[mask]), shape.size * bits), mask


def test_restricted_line_coefficients_average(rng):
    # averaging the restricted-line coefficient over lines gives the grid one
    shape = GridShape(4, 2)
    f = generate("uniform_random", shape, seed=17)
    for dim in range(shape.d):
        total = Fraction(0)
        for fixed in range(shape.n):
            line = restrict_line(f, dim, (fixed,))
            table = line.table()
            total += edge_coefficient(BoolFunc.from_table(GridShape(4, 1), table),
                                      0, shape.bits - 1)
        assert total / shape.n == edge_coefficient(f, dim, shape.bits - 1)


# ----------------------------------------------------------------------
# the batch line kernel against the per-function oracles

def reference_line_row(g):
    """Numerators over n of the line report, from violated_aug_edges, a
    plain expectation for e1 and sort_line."""
    shape = g.shape
    half = shape.n // 2

    def terms(h):
        s_minus, s_plus = violated_aug_edges(h)
        table = h.table()
        e1 = sum(table[:half]) - sum(table[half:])
        return len(s_plus) - len(s_minus), len(s_minus), e1

    delta, neg, e1 = terms(g)
    delta_sorted, _, e1_sorted = terms(sort_line(g))
    return (delta, neg, e1, delta_sorted, e1_sorted,
            delta <= shape.bits * (4 * neg - e1), delta_sorted >= delta,
            -e1_sorted <= -e1 + 4 * neg)


def sweep_row(sweep, k):
    assert sweep.e1_matching[k] == sweep.e1[k]
    assert sweep.e1_sorted_matching[k] == sweep.e1_sorted[k]
    return (sweep.delta_I[k], sweep.I_minus[k], sweep.e1[k], sweep.delta_sorted[k],
            sweep.e1_sorted[k], sweep.inequality_holds[k], sweep.delta_sorted_ge[k],
            sweep.final_claim_holds[k])


@pytest.mark.parametrize("n, masks", [
    (4, range(1 << 4)),
    (8, range(1 << 8)),
    (16, random.Random(16).sample(range(1 << 16), 2000)),
])
def test_line_sweep_matches_per_function_reference(n, masks):
    line = GridShape(n, 1)
    masks = list(masks)
    sweep = line_sweep(line, _mask_bits(masks, n))
    for k, mask in enumerate(masks):
        g = BoolFunc.from_mask(line, mask)
        assert sweep_row(sweep, k) == reference_line_row(g), mask
        assert sweep.report(k) == line_delta_report(g), mask
    assert sweep.passed.all()


def test_edge_coefficient_matches_plain_expectation(rng):
    for shape in (GridShape(4, 2), GridShape(8, 2), GridShape(2, 3)):
        for _ in range(10):
            table = [rng.getrandbits(1) for _ in range(shape.size)]
            f = BoolFunc.from_table(shape, table)
            for dim in range(shape.d):
                for bit in range(shape.bits):
                    total = sum(b * (-1 if x[dim] >> bit & 1 else 1)
                                for b, x in zip(table, points(shape)))
                    assert edge_coefficient(f, dim, bit) == Fraction(total, shape.size)


def test_line_failures_reasons_in_priority_order(monkeypatch):
    from gridmono import fourier, oracle

    routes = fourier._coefficient_routes

    def skewed_routes(shape, tables, dim, bit):
        by_expectation, by_matching = routes(shape, tables, dim, bit)
        return by_expectation, by_matching + 1

    monkeypatch.setattr(fourier, "_coefficient_routes", skewed_routes)
    failures = list(fourier._line_failures(4))
    assert failures[:2] == [(0, "coefficient routes disagree: 0 vs 1/4"),
                            (1, "coefficient routes disagree: 1/4 vs 1/2")]
    assert len(failures) == 16
    with pytest.raises(IntegrityError, match="coefficient routes disagree"):
        line_delta_report(BoolFunc.from_mask(GridShape(4, 1), 5))

    monkeypatch.setattr(fourier, "_coefficient_routes", routes)
    counts = oracle.edge_counts_batch

    def more_upward(shape, tables):
        violated, upward = counts(shape, tables)
        return violated, upward + 100

    # line_sweep imports the edge counts from the oracle when it runs
    monkeypatch.setattr(oracle, "edge_counts_batch", more_upward)
    assert list(fourier._line_failures(4))[:1] == [(0, "line bound fails")]


def test_line_sweep_capacity_before_allocation():
    from gridmono import fourier

    with pytest.raises(CapacityError):
        next(fourier._line_failures(1 << 40))
