"""Tester behavior: transcripts, exact enumeration, and draw distributions."""

import contextlib
import hashlib
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from gridmono import tester, verify
from gridmono.errors import CapacityError
from gridmono.func import BoolFunc, _mask_bits, generate
from gridmono.streams import derive_seed
from gridmono.grid import (
    LOWER,
    GridShape,
    MatchingId,
    classify_in_matching,
    enumerate_augmented_edges,
    num_augmented_edges,
    points,
    steps,
)
from gridmono.oracle import monotone_masks
from gridmono.tester import (
    _CALL_ENTRIES,
    _CALL_WALKS,
    _FIRST_CALL_WALKS,
    DEFAULT_CALIBRATION,
    WalkStats,
    _amplified_runs,
    _below,
    _call_entries,
    _calls,
    _draw_walks,
    _layout,
    _Streams,
    _taus,
    amplified_test,
    detection_rate,
    edge_test,
    exact_edge_rejection_probability,
    exact_rejection_probability,
    persistence_fraction,
    repetitions,
    sample_tau,
    single_test,
    tau_ceiling,
    wilson_interval,
)

CHI_SQUARE_SAMPLES = 1_000_000
CHI_SQUARE_ALPHA = 1e-6


def _walk_batches(shape, streams, total, first=None):
    """Walks 0 .. total-1 of run 0 of `streams`, as (start, batch) pairs in `_calls` groups."""
    for start, count in _calls(total, _layout(shape.d, bits=shape.bits)[2], first):
        yield start, _draw_walks(shape, streams, start, count)


def test_tau_ceiling():
    assert tau_ceiling(1) == 0
    assert tau_ceiling(2) == 0
    assert tau_ceiling(3) == 0
    assert tau_ceiling(4096) == 2  # sqrt(4096 / (10 * 12)) ~ 5.84


def test_sample_tau_examples(rng):
    assert all(sample_tau(1, rng) == 1 for _ in range(50))
    seen = {sample_tau(4096, rng) for _ in range(500)}
    assert seen == {1, 2, 4}
    for d in (1, 2, 16, 512, 4096):
        bound = math.sqrt(d / (10 * math.log2(d))) if d > 2 else None
        for _ in range(50):
            tau = sample_tau(d, rng)
            assert tau >= 1
            if bound is not None and bound >= 1:
                assert tau <= bound


def test_single_test_monotone_never_rejects(rng):
    for kind in ("monotone_threshold", "random_monotone"):
        f = generate(kind, GridShape(8, 3), seed=11)
        for _ in range(5000):
            assert single_test(f, rng).verdict == "accept"


def test_single_test_transcript_soundness(rng):
    # on 2^20 x 3 the coordinates have 20 bits and most steps are long; on
    # 2^400, past 2^62 points, tau is 1 or 2
    for f, walks in ((generate("uniform_random", GridShape(8, 3), seed=4), 4000),
                     (BoolFunc.from_predicate(GridShape(1 << 20, 3), lambda p: sum(p) % 2), 2000),
                     (generate("anti_slab", GridShape(2, 400)), 20)):
        shape = f.shape
        off_grid = 0
        taus = set()
        for _ in range(walks):
            t = single_test(f, rng)
            taus.add(t.tau)
            assert all(a <= b for a, b in zip(t.x, t.y))
            assert (t.y == t.x) == (len(t.S) < t.tau)
            assert len(t.T) == (0 if t.y == t.x else t.tau)
            assert (t.verdict == "reject") == (t.fx == 1 and t.fy == 0)
            assert t.queries_used == (1 if t.y == t.x else 2)
            # S is exactly the set of dimensions where x is a lower endpoint
            roles = [classify_in_matching(shape, t.x, m) for m in t.matchings]
            assert t.S == tuple(i for i, (role, _) in enumerate(roles) if role == LOWER)
            off_grid += sum(m.parity == 1 and t.x[m.dim] >> m.exp & 1 and role != LOWER
                            for m, (role, _) in zip(t.matchings, roles))
            assert set(t.T) <= set(t.S)
            for i in range(shape.d):
                step = t.y[i] - t.x[i]
                if i in t.T:
                    assert step == t.matchings[i].step and roles[i][1][i] == t.y[i]
                else:
                    assert step == 0
        # the walks met parity-1 pairs whose upper partner is off the grid
        assert off_grid > 0, shape
        assert taus == {1 << t for t in range(tau_ceiling(shape.d) + 1)}, shape


def assert_close_to_probability(hits, trials, p, z=5.0):
    # z = 5 keeps a deterministic seed from ever flipping the verdict while
    # still catching any real bias
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) <= z * sigma, (hits / trials, p)


def test_single_test_matches_exact_enumeration(rng):
    f = generate("anti_slab", GridShape(8, 1))
    exact = exact_rejection_probability(f)
    trials = 200_000
    hits = detection_rate(f, trials, rng).rejections
    assert_close_to_probability(hits, trials, float(exact))
    hits = sum(1 for _ in range(2000) if single_test(f, rng).verdict == "reject")
    assert_close_to_probability(hits, 2000, float(exact))


def test_exact_enumeration_monotone_is_zero():
    for kind in ("monotone_threshold", "random_monotone"):
        f = generate(kind, GridShape(4, 2), seed=7)
        assert exact_rejection_probability(f) == 0


def per_function_enumeration(f):
    """single_test's rejection probability by a walk over its whole
    randomness for this one table, draw by draw, as a reference."""
    shape, bits = f.shape, f.shape.bits
    taus = [1 << t for t in range(tau_ceiling(shape.d) + 1)]
    table = f.table()
    total = Fraction(0)
    for tau, idx in product(taus, range(shape.size)):
        if not table[idx]:
            continue
        x = tuple(idx // shape.n ** i % shape.n for i in range(shape.d))
        for combo in product(range(2 * bits), repeat=shape.d):
            partners = {}
            for i, code in enumerate(combo):
                mid = MatchingId(i, code % bits, code // bits)
                role, partner = classify_in_matching(shape, x, mid)
                if role == LOWER:
                    partners[i] = partner[i]
            if len(partners) < tau:
                continue
            subsets = list(combinations(partners, tau))
            for T in subsets:
                y = [partners[i] if i in T else v for i, v in enumerate(x)]
                if not table[sum(v * shape.n ** i for i, v in enumerate(y))]:
                    total += Fraction(1, len(subsets))
    return total / (len(taus) * shape.size * (2 * bits) ** shape.d)


def block_parity_rate(d):
    """single_test's rejection probability on block_parity at n = 2 in
    closed form, (1 - (3/4)^d - (-1/4)^d) / (2 (tau_ceiling(d) + 1)): only a
    walk of length 1 changes the parity, from an even start with S nonempty."""
    q = Fraction(3, 4) ** d + Fraction(-1, 4) ** d
    return (1 - q) / (2 * (tau_ceiling(d) + 1))


@pytest.mark.parametrize("d", range(1, 6))
def test_exact_block_parity_at_n_2_is_the_closed_form(d):
    # without the (-1/4)^d term it would be off by 4^-d / 2
    f = generate("block_parity", GridShape(2, d))
    assert exact_rejection_probability(f) == block_parity_rate(d)


@pytest.mark.parametrize("n, d", [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2), (8, 1)])
def test_exact_block_rows_equal_each_table_alone(n, d):
    shape = GridShape(n, d)
    monotone = set(monotone_masks(shape))
    gen = random.Random(f"{n}^{d}")
    masks = []
    while len(masks) < 60:   # with repeats where there are fewer non-monotone masks
        mask = gen.randrange(1 << shape.size)
        if mask not in monotone:
            masks.append(mask)
    block = tester._rejection_probabilities(shape, _mask_bits(masks, shape.size))
    alone = [per_function_enumeration(BoolFunc.from_mask(shape, mask)) for mask in masks]
    assert block == alone
    assert all(p > 0 for p in block)   # every non-monotone table can be rejected
    assert [exact_rejection_probability(BoolFunc.from_mask(shape, m)) for m in masks[:5]] == block[:5]


def test_edge_test_examples(rng):
    f = BoolFunc.from_table(GridShape(4, 1), [1, 1, 0, 0])
    assert exact_edge_rejection_probability(f) == Fraction(3, 5)
    trials = 100_000
    hits = sum(1 for _ in range(trials) if edge_test(f, rng).verdict == "reject")
    assert_close_to_probability(hits, trials, 0.6)
    mono = generate("monotone_threshold", GridShape(4, 2), seed=1)
    assert all(edge_test(mono, rng).verdict == "accept" for _ in range(3000))
    const = BoolFunc.from_predicate(GridShape(8, 2), lambda x: 1)
    assert all(edge_test(const, rng).verdict == "accept" for _ in range(300))
    # no augmented edge at n = 1, and edge_test refuses n = 3: so does its rate
    for n in (1, 3):
        f = BoolFunc.from_table(GridShape(n, 1), [1] * (n - 1) + [0])
        with pytest.raises(ValueError):
            edge_test(f, rng)
        with pytest.raises(ValueError):
            exact_edge_rejection_probability(f)


def test_edge_test_past_2_62_points(rng):
    shape = GridShape(2, 400)
    f = generate("anti_slab", shape)
    for _ in range(200):
        t = edge_test(f, rng)
        (i,) = t.S
        m = t.matchings[i]
        assert t.T == (i,) and t.matchings == (None,) * i + (m,) + (None,) * (shape.d - 1 - i)
        assert classify_in_matching(shape, t.x, m) == (LOWER, t.y)
        assert (t.fx, t.fy) == (f.eval(t.x), f.eval(t.y))
        # only an axis-0 edge crosses the slab
        assert t.verdict == ("reject" if i == 0 else "accept") and t.queries_used == 2


class ScriptedRandom:
    """Stands in for random.Random: each draw returns the next of `values`
    and records the size of the range it was drawn from."""

    def __init__(self, values):
        self.values, self.ranges = list(values), []

    def randrange(self, k):
        self.ranges.append(k)
        return self.values.pop(0)

    def getrandbits(self, k):
        return self.randrange(1 << k)


def test_edge_test_uniform_over_edges():
    """Every outcome of edge_test's draws (a dimension, a step-and-offset t
    and the other coordinates, each uniform) gives a different augmented
    edge with its owning matching, and every edge is one of them: so
    edge_test is exactly uniform over the edges."""
    for shape in (GridShape(4, 2), GridShape(8, 2)):
        f = BoolFunc.from_predicate(shape, lambda x: 0)
        n, d = shape.n, shape.d
        ranges = [d, sum(n - s for s in steps(shape))] + [n] * (d - 1)
        drawn = []
        for outcome in product(*map(range, ranges)):
            draws = ScriptedRandom(outcome)
            t = edge_test(f, draws)
            assert draws.ranges == ranges and not draws.values
            (i,) = t.S
            drawn.append((t.x, t.y, t.matchings[i]))
        edges = {(e.lower, e.upper, e.id) for e in enumerate_augmented_edges(shape)}
        assert len(drawn) == len(set(drawn)) == len(edges) == num_augmented_edges(shape)
        assert set(drawn) == edges


@given(seed=st.integers(0, (1 << 64) - 1))
@settings(max_examples=25)
def test_edge_test_at_2_62_to_the_1024(seed):
    # (2^62)^1024 points: the edge is drawn coordinate by coordinate, with no
    # linear index to decode (point_of took 24.5 ms a call here)
    shape = GridShape(1 << 62, 1024)
    f = generate("block_parity", shape)
    with mock.patch.object(tester, "point_of", side_effect=AssertionError("decoded an index")):
        t = edge_test(f, random.Random(seed))
    (i,) = t.S
    m = t.matchings[i]
    assert t.T == (i,) and t.matchings == (None,) * i + (m,) + (None,) * (shape.d - 1 - i)
    assert classify_in_matching(shape, t.x, m) == (LOWER, t.y)
    assert (t.fx, t.fy) == (f.eval(t.x), f.eval(t.y))
    assert t.verdict == ("reject" if t.fx > t.fy else "accept")
    assert (t.tau, t.queries_used) == (1, 2)


def test_repetitions_formula():
    expected = math.ceil(4 ** (5 / 6) * 2 ** 1.5 * (3 + 2) ** (4 / 3) * 0.5 ** (-4 / 3))
    assert repetitions(8, 4, 0.5, 1.0) == expected == 194
    assert repetitions(2, 1, 0.5, 1.0) >= 1  # log2 terms clamp at 1
    with pytest.raises(ValueError):
        repetitions(8, 4, 0.0, 1.0)
    with pytest.raises(ValueError):
        repetitions(8, 4, 0.5, 0.0)


def test_amplified_monotone_accepts(rng):
    f = generate("monotone_threshold", GridShape(4, 4), seed=3)
    verdict = amplified_test(f, 0.5, 1.0, rng)
    assert verdict.accepted
    assert verdict.invocations == repetitions(4, 4, 0.5, 1.0)
    assert verdict.total_queries <= 2 * verdict.invocations


def test_amplified_detects_far_function(rng):
    f = generate("anti_slab", GridShape(8, 2))
    rejected = sum(1 for _ in range(60)
                   if not amplified_test(f, 0.5, DEFAULT_CALIBRATION, rng).accepted)
    assert rejected >= 40  # 2/3 of 60


def test_detection_rate(rng):
    mono = generate("monotone_threshold", GridShape(4, 2), seed=5)
    est = detection_rate(mono, 2000, rng)
    assert est.estimate == 0.0 and est.rejections == 0
    far = BoolFunc.from_table(GridShape(4, 1), [1, 1, 0, 0])
    exact = float(exact_rejection_probability(far))
    est = detection_rate(far, 150_000, rng)
    assert_close_to_probability(est.rejections, est.trials, exact)
    assert est.wilson_low > 0
    assert est.wilson_low <= est.estimate <= est.wilson_high


def test_single_point_axis_rejected(rng):
    f = BoolFunc.from_table(GridShape(1, 3), [1])
    with pytest.raises(ValueError):
        single_test(f, rng)
    with pytest.raises(ValueError):
        edge_test(f, rng)
    with pytest.raises(ValueError):
        persistence_fraction(f, 1, 5, 5, rng)


def test_persistence_examples(rng):
    const = BoolFunc.from_predicate(GridShape(8, 2), lambda x: 1)
    assert persistence_fraction(const, 1, 100, 30, rng) == 0.0
    f = generate("uniform_random", GridShape(8, 2), seed=2)
    assert persistence_fraction(f, 3, 100, 30, rng) == 0.0  # tau > d forces y = x
    frac = persistence_fraction(generate("anti_slab", GridShape(8, 2)), 1, 200, 50, rng)
    assert 0.0 <= frac <= 1.0


def test_tau_distribution_uniform(rng):
    words = _Streams([rng]).words([0], 0, CHI_SQUARE_SAMPLES // 4, 4).ravel()
    values, counts = np.unique(_taus(words, 4096), return_counts=True)
    assert values.tolist() == [1, 2, 4]
    stat = chisquare(counts)
    assert stat.pvalue > CHI_SQUARE_ALPHA


def dimension_classes(n):
    """(q, p0) of one dimension of side n, over its start coordinate and its
    matching draw as classify_in_matching has them: q = P(x is lower there),
    p0 = P(x is lower and its step crosses n / 2 upward)."""
    shape = GridShape(n, 1)
    bits = shape.bits
    lower = crossing = 0
    for v, code in product(range(n), range(2 * bits)):
        role, partner = classify_in_matching(shape, (v,), MatchingId(0, code % bits, code // bits))
        if role == LOWER:
            lower += 1
            crossing += 2 * v < n <= 2 * partner[0]
    return Fraction(lower, 2 * bits * n), Fraction(crossing, 2 * bits * n)


def anti_slab_rate(shape):
    """single_test's rejection probability on anti_slab (axis 0) in closed
    form: p0 * mean over tau of E[tau / (1 + B); 1 + B >= tau], with
    B ~ Binomial(d - 1, q) the other lower dimensions.  A walk rejects when
    axis 0 is lower and crosses n / 2 and is one of the tau stepped
    dimensions, a uniform tau-subset of the 1 + B lower ones."""
    q, p0 = dimension_classes(shape.n)
    d, taus = shape.d, [1 << t for t in range(tau_ceiling(shape.d) + 1)]
    expected = sum(math.comb(d - 1, b) * q ** b * (1 - q) ** (d - 1 - b)
                   * Fraction(sum(tau for tau in taus if tau <= 1 + b), 1 + b)
                   for b in range(d))
    return p0 * expected / len(taus)


def test_dimension_classes():
    assert [dimension_classes(n) for n in (2, 4, 8, 16)] == [
        (Fraction(1, 4), Fraction(1, 4)), (Fraction(5, 16), Fraction(3, 16)),
        (Fraction(17, 48), Fraction(7, 48)), (Fraction(49, 128), Fraction(15, 128))]


@pytest.mark.parametrize("n, d", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (4, 1), (4, 2), (4, 3)])
def test_anti_slab_closed_form_is_the_enumeration(n, d):
    shape = GridShape(n, d)
    assert anti_slab_rate(shape) == exact_rejection_probability(generate("anti_slab", shape))


@pytest.mark.parametrize("family, n, d, trials, seed", [
    pytest.param("anti_slab", 2, 400, 400_000, 2, id="2-400000"),
    pytest.param("anti_slab", 4, 400, 300_000, 4, id="4-300000"),
    pytest.param("block_parity", 2, 400, 40_000, 400, id="block_parity-2-400"),
    pytest.param("block_parity", 2, 2048, 20_000, 2048, id="block_parity-2-2048"),
])
def test_multi_step_kernel_rate_is_the_closed_form(family, n, d, trials, seed):
    # tau in {1, 2} at d = 400 and {1, 2, 4} at d = 2048, where no
    # enumeration reaches: the kernel's rejection rate must sit within 5
    # standard errors of the exact rate
    shape = GridShape(n, d)
    exact = anti_slab_rate(shape) if family == "anti_slab" else block_parity_rate(d)
    est = detection_rate(generate(family, shape), trials, random.Random(seed))
    assert [tau for tau, _ in est.stats.tau_histogram] == [1 << t for t in range(tau_ceiling(d) + 1)]
    assert_close_to_probability(est.rejections, trials, float(exact))


@pytest.mark.parametrize("d", [400, 2048])
def test_multi_step_walks_past_2_62_points(d):
    # tau_ceiling reaches 1 at d = 336 and 2 at d = 1720: tau is drawn from
    # {1, 2} at 2^400 and from {1, 2, 4} at 2^2048, each with equal weight
    f = generate("monotone_threshold", GridShape(2, d), seed=d)
    est = detection_rate(f, 4000, random.Random(d))
    assert est.rejections == 0
    taus, counts = zip(*est.stats.tau_histogram)
    assert taus == {400: (1, 2), 2048: (1, 2, 4)}[d]
    assert chisquare(counts).pvalue > CHI_SQUARE_ALPHA


def test_walks_at_2_to_the_2048_pinned():
    # 2,000 walks, tau in {1, 2, 4}, 31 walks a call: the rejections and walk
    # statistics, recorded with 32 bit fields a word, pin the walks themselves
    r = detection_rate(generate("anti_slab", GridShape(2, 2048)), 2000, random.Random(5))
    assert (r.rejections, r.stats.tau_histogram, r.stats.degenerate, r.stats.mean_S) == (
        2, ((1, 673), (2, 642), (4, 685)), 0, 512.1755)


def test_draw_distributions_chi_square(rng):
    """x uniform and each a_i uniform, over a million kernel walks."""
    shape = GridShape(4, 2)
    x_counts = np.zeros(shape.size, dtype=np.int64)
    a_counts = np.zeros((shape.d, 2 * shape.bits), dtype=np.int64)
    for _, w in _walk_batches(shape, _Streams([rng]), CHI_SQUARE_SAMPLES):
        x_counts += np.bincount(w.x[:, 0] + shape.n * w.x[:, 1], minlength=shape.size)
        for i in range(shape.d):
            codes = 2 * w.exp[:, i] + w.parity[:, i]
            a_counts[i] += np.bincount(codes, minlength=2 * shape.bits)
    assert x_counts.sum() == CHI_SQUARE_SAMPLES
    assert chisquare(x_counts).pvalue > CHI_SQUARE_ALPHA
    for i in range(shape.d):
        assert chisquare(a_counts[i]).pvalue > CHI_SQUARE_ALPHA


def exact_step_distribution(shape):
    """Enumerated law of the stepped edge (x, y), y != x, at tau = 1."""
    bits = shape.bits
    dist = {}
    stay = Fraction(0)
    draw_p = Fraction(1, (2 * bits) ** shape.d)
    for x in points(shape):
        x_p = Fraction(1, shape.size)
        for combo in product(range(2 * bits), repeat=shape.d):
            S = []
            partners = {}
            for i, code in enumerate(combo):
                mid = MatchingId(i, code % bits, code // bits)
                role, partner = classify_in_matching(shape, x, mid)
                if role == LOWER:
                    S.append(i)
                    partners[i] = partner
            if not S:
                stay += x_p * draw_p
                continue
            for i in S:
                key = (x, partners[i])
                dist[key] = dist.get(key, Fraction(0)) + x_p * draw_p / len(S)
    return dist, stay


def test_step_marginal_matches_enumeration(rng):
    """Golden-distribution check of the walk's stepped edge at n=4, d=2."""
    shape = GridShape(4, 2)
    exact, stay = exact_step_distribution(shape)
    assert sum(exact.values()) + stay == 1
    counts = Counter()
    moved = 0
    trials = 400_000
    for _, w in _walk_batches(shape, _Streams([rng]), trials):
        for x, y in zip(w.x[w.moved].tolist(), w.y[w.moved].tolist()):
            counts[(tuple(x), tuple(y))] += 1
        moved += int(w.moved.sum())
    keys = sorted(exact, key=repr)
    assert set(counts) <= set(keys)
    conditional = [float(exact[k] / (1 - stay)) for k in keys]
    observed = [counts.get(k, 0) for k in keys]
    expected = [moved * p for p in conditional]
    stat = chisquare(observed, expected)
    assert stat.pvalue > CHI_SQUARE_ALPHA


WALK_FIELDS = ("tau", "x", "exp", "parity", "lower", "stepped", "y", "moved")


def test_walk_rows_do_not_depend_on_grouping():
    shape = GridShape(8, 3)
    streams = _Streams([random.Random(5)])
    whole = _draw_walks(shape, streams, 0, 100)
    for cuts in ((0, 1, 100), (0, 37, 38, 100), (0, 64, 100)):
        parts = [_draw_walks(shape, streams, a, b - a) for a, b in zip(cuts, cuts[1:])]
        for field in WALK_FIELDS:
            joined = np.concatenate([getattr(p, field) for p in parts])
            assert np.array_equal(joined, getattr(whole, field)), field


# SHA-256 over every _Walks field (shape, then values as little-endian int64)
# of walks 3 .. 502 under a fixed key: the Philox word layout and every
# derived field are pinned, at any numpy version.  Keys are (n, d, tau); a
# given tau runs the persistence walk from start points drawn by random.Random,
# whose stream, unlike numpy's Generator methods, is fixed across versions.
# At 2^400 the walks draw tau from {1, 2}.  The sides whose log2 is a power
# of two (2, 4, 16, 256, 2^16, 2^32) were recorded when they went to bit
# fields, after test_kernel_fixture_matches_a_scalar_decoder had checked the
# same walks field by field against the layout read off raw Philox words;
# the other sides (8, 128, 2^31, 2^62) were recorded before that change and
# did not move with it.  Sides 2^10 (one word a dimension, uint16 arrays) and
# 2^11 (two words a dimension) were recorded before the whole-word fields were
# cut by one mask in place of the shift-and-mask, and did not move with it.
KERNEL_DIGESTS = {
    (8, 3, None): "cf79ebb169e85cb0878ed6afc2e6e73429dc732496e8dab65168f44dd5654ac7",
    (8, 16, None): "5b3125b22c49c8a724d7037eae9232cc600000a90d3d839ab6c28b84be5b1a93",
    (4, 20, None): "4ff5d8788b7396e6bb0d168ee355a7803538121bc6d7821adc100c4eb365fbbf",
    (2, 62, None): "ee81ef65a8366c03206aadbf60f6c7000ff00214836b6af0549d0984e485b57a",
    (2, 400, None): "70c4cc840212d51f748add9dabb5321a98f0b7c1334fe55ecd051f9c4746f2b3",
    (1 << 31, 2, None): "d0359309af8fc935a9671e23b2db2fb57c21adaee06fd3978cf007308243ca79",
    (16, 5, None): "798baa6d2b620d16a991fca57e58b194101aa64e228d9d5d5439bbd9ba1abfb2",
    (8, 3, 2): "e823f3259426ff7256f723386a853cea98d3afef9696413bec2520a8bc59182e",
    (8, 3, 4): "1f646a6e7f0264b29c3c2a12e1bc96b68d985d45437471aca78c05926433fe9e",
    (8, 16, 2): "208b4b089b4e9df0295d722c102968c68a9d0bcb8786701cf442c66ff51bb39d",
    (8, 16, 4): "f14edc7617042946ac912c65382dad1a5c9ae5e004ed2f965a98aa1cb7659b59",
    (2, 62, 2): "b42964ef9d0ac9e9256b2044af0b3f56d11c4bb78bf6971d32bac1fe6fc126b8",
    (2, 62, 4): "afc10c6734c99c84648e06567be331ee4ce9f3da890cefebf8802e312d4dbcb8",
    (128, 9, None): "16e2d1bde44e4be0b58a09a6184160d12404ad9ca4ebf8f9e9c553dd22b1063f",
    (1 << 62, 3, None): "eea6db3bace5f4ecb0caa11cf6d6ed5ca6aaec4c59fd1c96fc93cb97198d2f83",
    (1 << 62, 3, 2): "7428d4994840001c81a55222383eabbace7d224576a16b326c0a392f0193beb4",
    (256, 7, None): "9a30c53db0b22ce88c3e93b9cb7fc4d2c653b6c83cb59424c8aca96b9575faff",
    (1 << 16, 4, None): "aaef0a8d1908bb2ef05dd246888187344a6327b6c4d493831259da8ccb866a0c",
    (1 << 32, 3, None): "34af0ad931658613dfaf28afe2bd08325e61162ef8ace91ab801b04b46df7b0f",
    (1 << 10, 6, None): "651d850ff14f65fb6ebb9eea6832bde65da87ceac45e39e04b7fbc4a208fcdca",
    (1 << 10, 6, 2): "1b71dc0940cf66f17340513688e43b83db4e0e412024cf368743e1abea9807ed",
    (1 << 11, 5, None): "a1e0fbacd381955d3adf249c2260bc165ec0009b98d1b4a48d47025420b43a29",
}


def kernel_fixture_walks(case):
    """(key, start points or None, walks 3 .. 502) of a KERNEL_DIGESTS case."""
    n, d, tau = case
    shape = GridShape(n, d)
    if tau is None:
        streams = _Streams([random.Random(f"kernel {n}^{d}")])
        return streams.keys[0], None, _draw_walks(shape, streams, 3, 500)
    starts = random.Random(f"starts {n}^{d} {tau}")
    x = np.array([[starts.randrange(n) for _ in range(d)] for _ in range(500)], np.int64)
    streams = _Streams([random.Random(f"persistence {n}^{d}")])
    return streams.keys[0], x, _draw_walks(shape, streams, 3, 500, tau=tau, x=x)


@pytest.mark.parametrize("case", KERNEL_DIGESTS, ids=lambda c: "%d^%d-tau%s" % c)
def test_walk_kernel_fixture(case):
    w = kernel_fixture_walks(case)[2]
    h = hashlib.sha256()
    for field in WALK_FIELDS:
        a = np.asarray(getattr(w, field))
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    assert h.hexdigest() == KERNEL_DIGESTS[case]


def decode_walk(shape, key, k, tau=None, x=None):
    """Walk k under `key`, decoded one word at a time from the layout in
    README "Determinism": (tau, x, exp, parity, lower, stepped, y, moved)."""
    n, d, bits = shape.n, shape.d, shape.bits
    picks = 1 << tau_ceiling(d) if tau is None else min(tau, d)
    log_bits = bits.bit_length() - 1
    if bits == 1 << log_bits:   # bit fields of x, the parity and the exponent
        span = bits + 1 + log_bits
        per_word = 64 // span
        dim_words = -(-d // per_word)
    else:                       # a whole word per dimension, and one more above 2^10
        span, per_word = 64, 1
        dim_words = d if bits <= 10 else 2 * d
    width = -(-(1 + picks + dim_words) // 4) * 4   # whole Philox blocks
    gen = np.random.Philox(key=key, counter=np.array([k * width // 4, 0, 0, 0], np.uint64))
    words = gen.random_raw(width).tolist()

    def below(word, m):   # floor(u * m), u the word's 53 high bits as a fraction
        return int((word >> 11) * (m * 2.0 ** -53))

    if tau is None:
        tau = 1 << below(words[0], tau_ceiling(d) + 1)
    dims = words[1 + picks:]
    fields = [dims[i // per_word] >> span * (i % per_word) & (1 << span) - 1 for i in range(d)]
    xs = [v % n for v in fields] if x is None else [int(v) for v in x]
    parity = [v >> bits & 1 for v in fields]
    if span < 64:
        exp = [v >> bits + 1 for v in fields]
    else:
        exp = [below(dims[i] if bits <= 10 else dims[d + i], bits) for i in range(d)]
    # x_i is the lower end of its pair: its 2^exp-block has the matching's
    # parity, and the block above is on the grid
    S = [i for i in range(d) if xs[i] >> exp[i] & 1 == parity[i] and xs[i] + (1 << exp[i]) < n]
    moved = len(S) >= tau
    y, left = list(xs), list(S)
    for j in range(tau if moved else 0):   # each pick uniform over the unpicked part of S
        i = left.pop(below(words[1 + j], len(left)))
        y[i] += 1 << exp[i]
    lower = [i in S for i in range(d)]
    return (tau, xs, exp, parity, lower, [a != b for a, b in zip(xs, y)], y, moved)


@pytest.mark.parametrize("case", KERNEL_DIGESTS, ids=lambda c: "%d^%d-tau%s" % c)
def test_kernel_fixture_matches_a_scalar_decoder(case):
    """Every field of the pinned walks, decoded from raw Philox words, walk by walk."""
    n, d, tau = case
    shape = GridShape(n, d)
    key, x, w = kernel_fixture_walks(case)
    for r in range(len(w.tau)):
        ref = decode_walk(shape, key, 3 + r, tau, None if x is None else x[r])
        for field, value in zip(WALK_FIELDS, ref):
            assert np.asarray(getattr(w, field))[r].tolist() == value, (r, field)


def shift_and_mask_cut(shape, dims):
    """tester._cut as it was before the byte-level cuts: one mask cuts a
    word that holds one field, and one shift-and-mask every layout with more."""
    d, n, bits = shape.d, shape.n, shape.bits
    span, per_word, per_dim = tester._fields(bits)
    dt = tester._dtype(bits)
    mask = (1 << span) - 1
    if per_word == 1:
        field = (dims[:, :d] & np.uint64(mask)).astype(dt)
    else:
        shifts = np.arange(0, per_word * span, span, dtype=np.uint64)
        field = (dims[:, :-(-d // per_word), None] >> shifts).reshape(len(dims), -1)[:, :d]
        field = field.astype(dt)
        field &= dt.type(mask)
    if bits & (bits - 1):
        exp = _below(dims[:, (per_dim - 1) * d:][:, :d], bits, dt)
    else:
        exp = field >> dt.type(bits + 1)
    parity = field >> dt.type(bits)
    parity &= dt.type(1)
    return field & dt.type(n - 1), exp, parity


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 1 << 10, 1 << 11, 1 << 16, 1 << 32, 1 << 62])
def test_field_cut_equals_the_shift_and_mask_cut(n, monkeypatch):
    """Every _Walks array and its dtype, from the byte-level cuts and from
    the shift-and-mask reference, at d = 1, at a d that fills whole words and
    at one that leaves a partial word; a big-endian copy of the word block
    gives the same walks."""
    bits = n.bit_length() - 1
    per_word = tester._fields(bits)[1]
    for d in (1, 2 * per_word, 2 * per_word + 1):
        shape = GridShape(n, d)
        width = _layout(d, bits=bits)[1]
        for count in (1, 5, 64):
            w = _Streams([random.Random(f"cut {n}^{d} {count}")]).words([0], 0, count, width)
            got = tester._walks(shape, w.copy())
            swapped = tester._walks(shape, w.astype(">u8"))
            with monkeypatch.context() as patch:
                patch.setattr(tester, "_cut", shift_and_mask_cut)
                ref = tester._walks(shape, w.copy())
            assert len(got) == 8
            for field, a, b, c in zip(got._fields, got, swapped, ref):
                assert a.dtype == b.dtype == c.dtype, (n, d, count, field)
                assert np.array_equal(a, c) and np.array_equal(b, c), (n, d, count, field)


@pytest.mark.parametrize("n, d, walks", [
    (8, 3, 200_000), (1 << 11, 16, 200_000), (4, 5, 200_000), (16, 3, 200_000),
    (2, 40, 100_000), (256, 7, 200_000), (1 << 16, 3, 400_000)])
def test_matching_and_start_joint_chi_square(n, d, walks):
    """(x_i, parity_i, exp_i) uniform over all n * 2 * log2 n triples, pooled
    over the dimensions: at 8^3 the three share a word, at side 2^11 (the
    first with two words a dimension) exp has its own, and at 4^5, 16^3,
    2^40 (whose fields fill one word and run into the next), 256^7 and side
    2^16 they are bit fields.  Past side 256, x is read as its top and bottom
    four bits, the bits beside the exponent's and the parity's."""
    shape = GridShape(n, d)
    bits = shape.bits
    x_bits = min(bits, 8)
    cells = (1 << x_bits) * 2 * bits
    counts = np.zeros(cells, dtype=np.int64)
    for _, w in _walk_batches(shape, _Streams([random.Random(f"joint {n}^{d}")]), walks):
        x = w.x.astype(np.int64)   # w.x * 2 would wrap in a narrow dtype
        if bits > x_bits:
            x = (x >> bits - 4 << 4) | (x & 15)
        codes = (x * 2 + w.parity) * bits + w.exp
        counts += np.bincount(codes.ravel(), minlength=cells)
    assert counts.sum() == walks * d
    assert chisquare(counts).pvalue > CHI_SQUARE_ALPHA


@pytest.mark.parametrize("bits", [7, 8, 15, 16, 31, 32, 62])
def test_steps_stay_on_the_grid_at_the_dtype_edges(bits):
    """At the sides where the narrow dtype is widest for its side (2^7, 2^15,
    2^31, 2^62) or just widened (2^8, 2^16, 2^32), every y is on the grid and
    differs from x by 2^exp exactly where it stepped."""
    n = 1 << bits
    shape = GridShape(n, 5)
    w = _draw_walks(shape, _Streams([random.Random(f"edges {n}")]), 0, 20_000)
    assert w.x.dtype == w.y.dtype == w.exp.dtype == np.min_scalar_type(2 * n - 1)
    x, y, exp = (a.astype(np.int64) for a in (w.x, w.y, w.exp))
    assert x.min() >= 0 and y.max() < n and exp.max() < bits and w.parity.max() <= 1
    step = y - x
    assert np.array_equal(step, np.where(w.stepped, np.left_shift(1, exp), 0))
    # the walks reach the top of the grid, where a wrap would show
    assert y.max() >= n - n // 8 and (step > n // 4).any()


def test_layout_word_counts():
    # (picks, words, weight): the tau word and the picks, then one word a
    # dimension up to side 2^10 and two from 2^11, or bit fields where log2 n
    # is a power of two, in whole Philox blocks; the weight is never below
    # the two narrow (B, d) arrays x and y, in words
    assert _layout(16, bits=10) == (1, 20, 20)
    assert _layout(16, bits=11) == (1, 36, 36)
    assert _layout(3, 2, bits=10) == (2, 8, 8)
    assert _layout(3, 2, bits=11) == (2, 12, 12)
    assert _layout(2048, bits=10) == (4, 2056, 2056)
    assert _layout(2048, bits=11) == (4, 4104, 4104)
    assert _layout(2048) == _layout(2048, bits=62) == (4, 4104, 4104)
    # bit fields: 32 a word at n = 2, 16 at 4, 9 at 16, 5 at 256, 3 at
    # 2^16 and 1 at 2^32
    assert _layout(2048, bits=1) == (4, 72, 512)
    assert _layout(20, bits=2) == (1, 4, 5)
    assert _layout(62, bits=1) == (1, 4, 16)
    assert _layout(10, bits=4) == (1, 4, 4)
    assert _layout(10, bits=8) == (1, 4, 5)
    assert _layout(10, bits=16) == (1, 8, 10)
    assert _layout(10, bits=32) == (1, 12, 20)
    assert _layout(8400, bits=1) == (8, 272, 2100)


def test_walk_counts_past_the_philox_counter_are_refused():
    """A stream reaches walk k while its first block, k * width / 4, fits the
    counter's 64-bit word; a run needing more walks is refused before its first."""
    f = generate("anti_slab", GridShape(8, 4))
    width = _layout(4, bits=3)[1]
    last = ((1 << 66) - 1) // width   # the last walk a stream can start
    w = _draw_walks(f.shape, _Streams([random.Random(0)]), last, 1)
    assert w.x.shape == (1, 4)
    with pytest.raises(OverflowError):
        _draw_walks(f.shape, _Streams([random.Random(0)]), last + 1, 1)
    runs = (lambda: amplified_test(f, 0.5, 1e200, random.Random(1)),
            lambda: detection_rate(f, last + 2, random.Random(2)),
            lambda: persistence_fraction(f, 1, last + 2, 1, random.Random(3)),
            lambda: persistence_fraction(f, 1, 2, (last + 3) // 2, random.Random(4)))
    for call in runs:
        with pytest.raises(CapacityError) as info:
            call()
        assert info.value.unit == "walks" and info.value.limit == last + 1
    assert f.queries == 0
    assert detection_rate(f, 1, random.Random(5)).trials == 1


@pytest.mark.parametrize("j", range(63))
def test_below_power_of_two_matches_the_float_path(j):
    words = np.random.default_rng(j).integers(0, 1 << 64, 1000, dtype=np.uint64, endpoint=False)
    words = np.concatenate([words, np.array([0, (1 << 11) - 1, (1 << 64) - 1], dtype=np.uint64)])
    k = 1 << j
    got = _below(words, k)
    assert got.dtype == np.int64
    assert np.array_equal(got, ((words >> np.uint64(11)) * (k * 2.0 ** -53)).astype(np.int64))
    narrow = _below(words, k, np.uint64)   # as the kernel's whole-word exponents are cast
    assert narrow.dtype == np.uint64 and np.array_equal(narrow, got)


class StateSpy:
    """A Philox generator, counting how often its state is set."""

    def __init__(self, real):
        self.real, self.sets = real, 0

    @property
    def state(self):
        return self.real.state

    @state.setter
    def state(self, value):
        self.sets += 1
        self.real.state = value

    def random_raw(self, size):
        return self.real.random_raw(size)


def test_words_continue_or_set_the_generator_state():
    keys = _Streams([random.Random(11), random.Random(12)]).keys

    def fresh(run, start, count, width):
        counter = np.array([start * width // 4, 0, 0, 0], dtype=np.uint64)
        gen = np.random.Philox(key=keys[run], counter=counter)
        return gen.random_raw(count * width).reshape(count, width)

    # (run, start, count, width, continues the previous read); run 1's read
    # starts at the block where run 0's counter stands, under another key
    reads = ((0, 0, 5, 8, False), (0, 5, 3, 8, True), (0, 2, 4, 8, False), (0, 6, 1, 8, True),
             (1, 7, 1, 8, False), (1, 8, 2, 8, True), (0, 100, 1, 12, False),
             (0, 101, 2, 12, True), (0, 3, 7, 4, False), (0, 0, 2, 4, False), (0, 1, 1, 8, True))
    expected = [fresh(*read[:4]) for read in reads]
    # the batch's first read builds its one generator; every later read
    # either continues it or sets its state
    with mock.patch.object(np.random, "Philox", wraps=np.random.Philox) as philox:
        streams = _Streams([random.Random(11), random.Random(12)])
        assert philox.call_count == 0
        for (run, start, count, width, continues), words in zip(reads, expected):
            sets = streams.philox.sets if streams.philox else 0
            assert np.array_equal(streams.words([run], start, count, width), words)
            if not isinstance(streams.philox, StateSpy):
                streams.philox = StateSpy(streams.philox)
            else:
                assert (streams.philox.sets == sets) == continues, (run, start, count, width)
    assert philox.call_count == 1
    assert all(np.array_equal(a, b) for a, b in zip(streams.keys, keys))


def test_runs_read_interleaved_get_the_words_each_reads_alone():
    rng = random.Random(12)
    alone = [_Streams([rng]).words([0], 0, 40, 8) for _ in range(5)]   # walks 0 .. 39 of each
    # each run's walks in groups of 1 to 6 words' rows
    order = random.Random(13)
    groups = []
    for k in range(5):
        start, mine = 0, []
        while start < 40:
            count = min(order.randint(1, 6), 40 - start)
            mine.append((k, start, count))
            start += count
        groups.append(mine)
    # the runs take turns at random, each reading its groups in order (so
    # some reads continue the generator), then every group once more in a
    # shuffled order, then ranges of several runs in one read
    reads = []
    pending = [list(mine) for mine in groups]
    while any(pending):
        reads.append(order.choice([mine for mine in pending if mine]).pop(0))
    again = [read for mine in groups for read in mine]
    order.shuffle(again)
    with mock.patch.object(np.random, "Philox", wraps=np.random.Philox) as philox:
        streams = _Streams([random.Random(12)] * 5)   # five keys from one rng, in order
        for k, start, count in reads + again:
            got = streams.words([k], start, count, 8)
            assert np.array_equal(got, alone[k][start:start + count]), (k, start, count)
        for runs, start, count in (([4, 0, 2], 10, 7), ([1, 3], 17, 1), ([0, 1, 2, 3, 4], 0, 40)):
            expected = np.concatenate([alone[k][start:start + count] for k in runs])
            assert np.array_equal(streams.words(runs, start, count, 8), expected), runs
    assert philox.call_count == 1


@pytest.mark.parametrize("d", [1, 4, 16, 20, 62, 2048, 1 << 16])
def test_calls_stay_within_the_budget(d):
    # the word block stays under glibc's default 128 KiB mmap threshold, and
    # each narrow (B, d) array under half of it, except where the budget
    # holds fewer walks than the floor
    assert _CALL_ENTRIES * 8 < 128 * 1024
    for bits in (1, 2, 3, 16, 62):
        _, width, weight = _layout(d, bits=bits)
        most = max(_CALL_ENTRIES // weight, _CALL_WALKS)
        array = d * np.min_scalar_type((2 << bits) - 1).itemsize
        for first in (None, 64):
            groups = list(_calls(50_000, weight, first))
            for _, count in groups:
                assert count * width <= max(_CALL_ENTRIES, _CALL_WALKS * width)
                assert count * array <= max(_CALL_ENTRIES * 4, _CALL_WALKS * array)
            assert [c for _, c in groups[:-1]][-5:] == [most] * 5
            assert [s for s, _ in groups] == np.cumsum([0] + [c for _, c in groups[:-1]]).tolist()
            assert sum(c for _, c in groups) == 50_000


def test_calls_grow_sixteen_times_from_the_first_group():
    # (walks, weight): 8^16, 4^20, 2^62, 2^2048 and side 2^62 at d = 16
    for total, weight in ((3033, 20), (3581, 5), (50_000, 16), (50_000, 512), (50_000, 36)):
        most = max(_CALL_WALKS, _CALL_ENTRIES // weight)
        groups = list(_calls(total, weight, 64))
        counts = [c for _, c in groups]
        assert [s for s, _ in groups] == np.cumsum([0] + counts[:-1]).tolist()
        assert sum(counts) == total
        assert counts[0] == min(64, most)
        assert all(b == min(16 * a, most) for a, b in zip(counts, counts[1:-1]))
        assert all(c * weight <= _CALL_ENTRIES for c in counts)
    # a monotone verdict at 8^16 makes five calls, at 4^20 three
    assert [c for _, c in _calls(3033, 20, 64)] == [64, 819, 819, 819, 512]
    assert [c for _, c in _calls(3581, 5, 64)] == [64, 1024, 2493]


def test_amplified_verdicts_do_not_depend_on_the_schedule():
    shape = GridShape(8, 16)
    for family, eps, accepted in (("monotone_threshold", 0.5, True), ("block_parity", 0.25, False)):
        f = generate(family, shape)
        default = amplified_test(f, eps, rng=random.Random(3))
        with _call_entries(37):   # one walk a call
            assert amplified_test(f, eps, rng=random.Random(3)) == default
        assert default.accepted == accepted


# (family, n, d, eps, calibration, function seed, runs): the pilot grid's
# far inputs as verify's criterion 8 makes them; monotone thresholds whose
# runs span several groups, one run alone and two together (8^16 at a low
# calibration, 680 walks in three groups, keeps the one-walk calls under
# _call_entries(37) few); far 8^16 slabs, some of whose 40 runs reject after
# their first group, which spans several calls (40 runs of 64 walks of
# weight 20 are 51,200 words); and one far run alone
BATCH_CASES = tuple(
    (family, n, d, verify.PILOT_EPS, DEFAULT_CALIBRATION,
     derive_seed(verify.DEFAULT_MASTER_SEED, f"pilot-fn:{family}:{n}:{d}"), 30)
    for family, n, d in verify.PILOT_GRID) + (
    ("monotone_threshold", 4, 20, 0.5, DEFAULT_CALIBRATION, 1, 1),
    ("monotone_threshold", 4, 20, 0.5, DEFAULT_CALIBRATION, 2, 2),
    ("monotone_threshold", 8, 16, 0.5, 0.25, 1, 2),
    ("anti_slab", 8, 16, 0.5, DEFAULT_CALIBRATION, 1, 40),
    ("block_parity", 8, 16, 0.25, DEFAULT_CALIBRATION, 1, 1),
)


@pytest.mark.parametrize("entries", [None, 37])
def test_batched_verdicts_equal_lone_verdicts(entries, monkeypatch):
    real = tester._walks

    def walks(shape, w, *args):
        # a call holds at most the budget's words over all its runs, or
        # one run's group where the budget holds fewer walks than the floor
        weight = _layout(shape.d, bits=shape.bits)[2]
        assert len(w) * weight <= tester._CALL_ENTRIES or len(w) <= tester._CALL_WALKS
        return real(shape, w, *args)

    monkeypatch.setattr(tester, "_walks", walks)
    later = 0
    with _call_entries(entries) if entries else contextlib.nullcontext():
        for family, n, d, eps, calibration, seed, runs in BATCH_CASES:
            shape = GridShape(n, d)
            lone_f, batch_f = (generate(family, shape, seed=seed) for _ in range(2))
            keys = [f"batch {family} {n}^{d} {seed} {k}" for k in range(runs)]
            lone = [amplified_test(lone_f, eps, calibration, random.Random(key)) for key in keys]
            batch = _amplified_runs(batch_f, eps, calibration, [random.Random(key) for key in keys])
            # accepted, invocations, total_queries and stats, run by run
            assert batch == lone, (family, n, d, seed)
            assert batch_f.queries == lone_f.queries, (family, n, d, seed)
            assert all(v.accepted for v in batch) == (family == "monotone_threshold")
            later += sum(not v.accepted and v.invocations > _FIRST_CALL_WALKS for v in batch)
    assert later > 0
    assert 40 * _FIRST_CALL_WALKS * _layout(16, bits=3)[2] > _CALL_ENTRIES


def test_batch_of_no_runs_is_empty():
    assert _amplified_runs(generate("anti_slab", GridShape(4, 2)), 0.5, 1.0, []) == []


@pytest.mark.parametrize("entries", [37, _CALL_ENTRIES, 1 << 16])
def test_walk_batches_do_not_depend_on_call_size(entries):
    # a walk at 2^2048 is 72 words and counts 512 against a budget (its x
    # and y, 2,048 bytes each), so there a call holds one walk at 37 words,
    # 31 at the default budget and 128 at 2^16 words; at 2^8400 it counts
    # 2,100, 7 at the default budget, and the floor makes that _CALL_WALKS
    for n, d, total in ((8, 3, 3000), (8, 16, 3000), (2, 62, 3000), (4, 20, 8000),
                        (2, 2048, 100), (2, 8400, 40)):
        shape = GridShape(n, d)
        whole = _draw_walks(shape, _Streams([random.Random(f"{n}^{d}")]), 0, total)
        with _call_entries(entries):
            regrouped = list(_walk_batches(shape, _Streams([random.Random(f"{n}^{d}")]), total, 64))
        default = list(_walk_batches(shape, _Streams([random.Random(f"{n}^{d}")]), total, 64))
        for batches in (regrouped, default):
            assert len(batches) > 1
            for field in WALK_FIELDS:
                joined = np.concatenate([getattr(w, field) for _, w in batches])
                assert np.array_equal(joined, getattr(whole, field)), field
        if d >= 2048:
            assert [len(w.tau) for _, w in default[:2]] == [{2048: 31, 8400: _CALL_WALKS}[d]] * 2


@pytest.mark.parametrize("n, d", [(8, 3), (8, 16), (2, 2048)])
def test_stepped_is_the_set_of_moved_coordinates(n, d):
    """stepped (y != x) is a subset of S with tau entries on moved rows, none elsewhere."""
    w = _draw_walks(GridShape(n, d), _Streams([random.Random(f"stepped {n}^{d}")]), 0, 400)
    assert not (w.stepped & ~w.lower).any()
    assert np.array_equal(w.moved, w.lower.sum(axis=1) >= w.tau)
    assert np.array_equal(w.stepped.sum(axis=1), np.where(w.moved, w.tau, 0))
    assert w.moved.any() and (d < 400 or (w.tau > 1).any())


@pytest.mark.parametrize("entries", [1, 7, 37, 100, 1 << 16])
def test_results_do_not_depend_on_grouping(entries):
    far = generate("anti_slab", GridShape(4, 3))
    mono = generate("random_monotone", GridShape(4, 3), seed=2)

    def run():
        return (amplified_test(far, 0.5, 1.0, random.Random(1)),
                amplified_test(mono, 0.5, 1.0, random.Random(2)),
                detection_rate(far, 3000, random.Random(3)),
                persistence_fraction(far, 2, 30, 25, random.Random(4)))

    default = run()
    with _call_entries(entries):
        assert run() == default


def test_amplified_matches_walk_by_walk_replay():
    shape = GridShape(4, 3)
    rounds = repetitions(shape.n, shape.d, 0.5, 1.0)
    for family in ("anti_slab", "block_parity", "random_monotone"):
        f = generate(family, shape, seed=9)
        for seed in range(4):
            verdict = amplified_test(f, 0.5, 1.0, random.Random(seed))
            streams = _Streams([random.Random(seed)])
            queries = 0
            invocations = rounds
            for k in range(rounds):
                w = _draw_walks(shape, streams, k, 1)
                fx = f.eval(tuple(w.x[0].tolist()))
                fy = f.eval(tuple(w.y[0].tolist())) if w.moved[0] else fx
                queries += 1 + int(w.moved[0])
                if fx > fy:
                    invocations = k + 1
                    break
            assert (verdict.invocations, verdict.total_queries) == (invocations, queries)
            assert verdict.accepted == (invocations == rounds and not fx > fy)


def replayed_rate(f, trials, seed):
    """(rejections, WalkStats) of detection_rate's walks, drawn and queried one by one."""
    streams = _Streams([random.Random(seed)])
    rejections = degenerate = lower = 0
    taus = Counter()
    for k in range(trials):
        w = _draw_walks(f.shape, streams, k, 1)
        fx = f.eval(tuple(w.x[0].tolist()))
        fy = f.eval(tuple(w.y[0].tolist())) if w.moved[0] else fx
        rejections += fx > fy
        taus[int(w.tau[0])] += 1
        degenerate += not w.moved[0]
        lower += int(np.count_nonzero(w.lower[0]))
    return rejections, WalkStats(tuple(sorted(taus.items())), degenerate, lower / trials)


@pytest.mark.parametrize("entries", [None, 37])
def test_detection_rate_matches_walk_by_walk_replay(entries):
    # a far and a monotone input on 4^3, and block_parity at 2^400, where
    # tau is 1 or 2 and a call holds 163 walks (one under 37 words)
    cases = ((generate("anti_slab", GridShape(4, 3)), 600, True),
             (generate("random_monotone", GridShape(4, 3), seed=2), 600, False),
             (generate("block_parity", GridShape(2, 400)), 300, True))
    for f, trials, far in cases:
        for seed in range(2):
            with _call_entries(entries) if entries else contextlib.nullcontext():
                est = detection_rate(f, trials, random.Random(seed))
            rejections, stats = replayed_rate(f, trials, seed)
            assert (est.rejections, est.stats) == (rejections, stats), (f.shape, seed)
            assert (rejections > 0) == far
    assert [tau for tau, _ in stats.tau_histogram] == [1, 2]


def test_wilson_interval():
    for trials in (0, -1):
        with pytest.raises(ValueError):
            wilson_interval(0, trials)
    lo, hi = wilson_interval(5, 10)
    assert (round(lo, 4), round(hi, 4)) == (0.2366, 0.7634)
    # rounding alone would leave 8.7e-19 and 1 - 2.2e-16 at 300 trials, and
    # 1.1e-19 and 5.4e-20 at verify's 2,000 and 4,000, whose zero guards
    # would then pass a rate with no rejection
    for trials in (1, 3, 10, 300, 2000, 4000, 20_000):
        assert wilson_interval(0, trials)[0] == 0.0
        assert wilson_interval(trials, trials)[1] == 1.0
        for successes in (0, 1, trials // 2, trials):
            lo, hi = wilson_interval(successes, trials)
            assert 0.0 <= lo <= successes / trials <= hi <= 1.0


def test_amplified_counts_only_walks_up_to_the_rejection():
    f = generate("anti_slab", GridShape(8, 2))
    verdict = amplified_test(f, 0.5, DEFAULT_CALIBRATION, random.Random(0))
    assert not verdict.accepted
    assert verdict.invocations < 64   # inside the first batch of walks
    assert f.queries > verdict.total_queries   # the rest of the batch was evaluated
    assert sum(c for _, c in verdict.stats.tau_histogram) == verdict.invocations
    assert verdict.total_queries == 2 * verdict.invocations - verdict.stats.degenerate


def test_walk_stats():
    shape = GridShape(4, 2)
    est = detection_rate(BoolFunc.from_predicate(shape, lambda x: 0), 20_000,
                         random.Random(6))
    assert est.stats.tau_histogram == ((1, 20_000),)
    # per dimension at n = 4, P(lower) = 1/2 * 1/2 (parity 0, any step)
    # + 1/2 * 1/2 * 1/4 (parity 1, step 1: only x = 1; step 2: never) = 5/16
    assert abs(est.stats.mean_S - 2 * 5 / 16) < 0.02
    # degenerate iff S is empty: (11/16)^2
    assert abs(est.stats.degenerate / 20_000 - (11 / 16) ** 2) < 0.02
    verdict = amplified_test(generate("monotone_threshold", shape, seed=1), 0.5, 1.0,
                             random.Random(7))
    assert verdict.accepted
    assert verdict.stats.tau_histogram == ((1, verdict.invocations),)
    assert verdict.total_queries == 2 * verdict.invocations - verdict.stats.degenerate


def test_tau_two_subset_uniform_through_persistence():
    """At tau = 2 the stepped pair is uniform over pairs of zero coordinates of x."""
    shape = GridShape(2, 6)
    inner = 60_000
    checked = 0
    for seed in range(8):
        seen = []
        f = BoolFunc.from_predicate(shape, lambda p: 0)
        # the vectorised predicate records every queried point, batch by batch
        f._batch = lambda pts: seen.append(pts.copy()) or np.zeros(len(pts), np.uint8)
        persistence_fraction(f, 2, 1, inner, random.Random(seed))
        queried = np.concatenate(seen)
        x, ys = queried[0], queried[1:]
        assert len(ys) == inner
        zeros = np.flatnonzero(x == 0)
        if len(zeros) < 3:
            continue
        changed = ys != x
        moved = changed.any(axis=1)
        # a walk that moves changes exactly one pair of zero coordinates of x
        assert (changed[moved].sum(axis=1) == 2).all() and not changed[:, x != 0].any()
        first = changed.argmax(axis=1)[moved]
        last = shape.d - 1 - changed[:, ::-1].argmax(axis=1)[moved]
        pair_of = np.full((shape.d, shape.d), -1)
        for k, (i, j) in enumerate(combinations(zeros.tolist(), 2)):
            pair_of[i, j] = k
        counts = np.bincount(pair_of[first, last], minlength=len(zeros) * (len(zeros) - 1) // 2)
        assert chisquare(counts).pvalue > CHI_SQUARE_ALPHA
        checked += 1
    assert checked >= 3
