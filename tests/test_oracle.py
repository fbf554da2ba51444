"""Exact-oracle tests: distances, matchings, influences, and their cross-checks."""

import warnings
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.sparse import SparseEfficiencyWarning, csr_matrix
from scipy.sparse.csgraph import breadth_first_order, dijkstra, maximum_flow

from gridmono import func, oracle, reports
from gridmono.errors import CapacityError, IntegrityError
from gridmono.fourier import line_sweep
from gridmono.func import BoolFunc, _mask_bits, generate, is_monotone
from gridmono.grid import (
    GridShape,
    directed_distance,
    dominates,
    enumerate_augmented_edges,
    linear_index,
    points,
)
from gridmono.oracle import (
    DISTANCE_CAPACITY,
    brute_force_batch,
    brute_force_distance,
    cut_distance_batch,
    distance_to_monotonicity,
    edge_counts_batch,
    gamma_minus,
    influence_bound_batch,
    influence_bound_check,
    isoperimetry_report,
    isoperimetry_sweep,
    monotone_masks,
    optimal_matching,
    optimal_matching_batch,
    shape_tables,
    violated_aug_edges,
)
from gridmono.streams import derive_rng
from gridmono.verify import DISTANCE_SHAPES, full_sweep


def all_maximum_matchings(arcs, max_size=None):
    """Oracle: every maximum matching of the arc set, by direct enumeration."""
    if max_size is None:
        best = 0
        for size in range(len(arcs), 0, -1):
            for combo in combinations(arcs, size):
                lows = [a for a, _ in combo]
                highs = [b for _, b in combo]
                if len(set(lows)) == size and len(set(highs)) == size:
                    best = size
                    break
            if best:
                break
        max_size = best
    if max_size == 0:
        return [()]
    return [combo for combo in combinations(arcs, max_size)
            if len({a for a, _ in combo}) == max_size
            and len({b for _, b in combo}) == max_size]


def test_violated_aug_edges_examples():
    shape = GridShape(4, 1)
    f = BoolFunc.from_mask(shape, 0b0011)  # table (1,1,0,0)
    s_minus, s_plus = violated_aug_edges(f)
    assert {(e.lower, e.upper) for e in s_minus} == {((1,), (2,)), ((0,), (2,)), ((1,), (3,))}
    assert s_plus == []
    mono = generate("monotone_threshold", GridShape(4, 2), seed=1)
    assert violated_aug_edges(mono)[0] == []
    const = BoolFunc.from_table(shape, [1, 1, 1, 1])
    assert violated_aug_edges(const) == ([], [])


def test_distance_examples():
    shape = GridShape(4, 1)
    report = distance_to_monotonicity(BoolFunc.from_mask(shape, 0b0011))
    assert report.eps == Fraction(1, 2)
    assert len(report.matching) == 2
    assert distance_to_monotonicity(BoolFunc.from_mask(shape, 0b1100)).eps == 0
    assert distance_to_monotonicity(BoolFunc.from_mask(shape, 0b0001)).eps == Fraction(1, 4)




def assert_cut_agrees_with_brute_force(shape, masks):
    """The cut and brute force count the same changes on every mask, and the
    one-row view gives its batch row on a few of them."""
    tables = _mask_bits(masks, shape.size)
    counts = cut_distance_batch(shape, tables)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, brute_force_batch(shape, tables)), shape
    for k in np.linspace(0, len(masks) - 1, 8).astype(int).tolist():
        f = BoolFunc.from_mask(shape, masks[k])
        assert distance_to_monotonicity(f).eps == Fraction(int(counts[k]), shape.size), masks[k]


def test_brute_force_agreement_exhaustive():
    for shape in (GridShape(2, 2), GridShape(3, 2), GridShape(2, 3)):
        assert_cut_agrees_with_brute_force(shape, range(1 << shape.size))


def test_brute_force_agreement_sampled(rng):
    # a thousand random functions across grids up to the 20-point cap
    for shape, samples in ((GridShape(4, 2), 400), (GridShape(2, 4), 400),
                           (GridShape(20, 1), 200)):
        assert_cut_agrees_with_brute_force(
            shape, [rng.randrange(1 << shape.size) for _ in range(samples)])


@pytest.mark.parametrize("n, d", DISTANCE_SHAPES)
def test_three_distance_routes_agree_on_every_mask(n, d):
    # the cut, brute force and the assignment solve's matching size
    shape = GridShape(n, d)
    sweep = full_sweep(n, d)
    cut = cut_distance_batch(shape, _mask_bits(range(1 << shape.size), shape.size))
    assert np.array_equal(cut, sweep.brute)
    assert np.array_equal(cut, sweep.matched)


def test_cut_distance_rows_do_not_depend_on_blocks(monkeypatch):
    gen = np.random.default_rng(11)
    for shape, count in ((GridShape(3, 2), 30), (GridShape(4, 3), 12), (GridShape(16, 2), 5)):
        tables = (gen.random((count, shape.size)) < gen.random(count)[:, None]).astype(np.uint8)
        tables[1], tables[2] = 0, 1
        tables[3] = generate("random_monotone", shape, seed=4).bits
        expected = cut_distance_batch(shape, tables)
        assert np.array_equal(expected[1:4], [0, 0, 0])
        for cells in (1, 7, 64):   # one row per block, and blocks of several rows
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "BATCH_CELLS", cells)
                assert np.array_equal(cut_distance_batch(shape, tables), expected), (shape, cells)
                assert cut_distance_batch(shape, tables[:0]).shape == (0,)


def assert_maximum_violation_matching(f, report):
    """The pairs are violated, x <= y with f(x) = 1 > f(y) = 0, pairwise
    disjoint, and as many as the cut's changes: a maximum matching."""
    used = set()
    for x, y in report.matching:
        assert f.eval(x) == 1 and f.eval(y) == 0
        assert dominates(y, x) and x != y
        assert x not in used and y not in used
        used.update((x, y))
    count = cut_distance_batch(f.shape, f.bits[None])[0]
    assert len(report.matching) == count
    assert report.eps == Fraction(int(count), f.shape.size)


def test_distance_witness_is_valid():
    big = GridShape(16, 3)   # the comparable pairs' 4096-point cap
    for f in (generate("uniform_random", GridShape(4, 2), seed=13),
              generate("uniform_random", big, seed=5), generate("noisy_monotone", big, seed=5),
              generate("block_parity", big)):
        report = distance_to_monotonicity(f)
        assert report.eps > 0
        assert_maximum_violation_matching(f, report)


def test_distance_past_the_comparable_pairs_cap():
    shape = GridShape(2, 13)   # 8192 points, twice the shape tables' cap
    f = generate("anti_slab", shape)
    report = distance_to_monotonicity(f)
    assert report.eps == Fraction(1, 2)
    assert_maximum_violation_matching(f, report)
    with pytest.raises(CapacityError):
        shape_tables(shape)


def test_distance_capacity_is_checked_before_any_graph(monkeypatch):
    calls = []
    monkeypatch.setattr(oracle, "_cut_flow", lambda *args: calls.append(args))
    shape = GridShape(2, 17)
    assert shape.size == 2 * DISTANCE_CAPACITY
    f = BoolFunc.from_predicate(shape, lambda x: calls.append(x) or 0)
    with pytest.raises(CapacityError, match="exact distance"):
        distance_to_monotonicity(f)
    with pytest.raises(CapacityError, match="exact distance"):
        cut_distance_batch(shape, np.zeros((1, shape.size), np.uint8))
    assert calls == [] and f.queries == 0


def test_brute_force_capacity():
    with pytest.raises(CapacityError):
        brute_force_distance(generate("anti_slab", GridShape(5, 2)))
    with pytest.raises(CapacityError):
        monotone_masks(GridShape(8, 3))


def test_gamma_examples():
    shape = GridShape(4, 1)
    rep = gamma_minus(BoolFunc.from_mask(shape, 0b0011))
    assert rep.gamma == Fraction(2, 4)
    touched = set()
    for e in rep.witness:
        assert e.lower not in touched and e.upper not in touched
        touched.update((e.lower, e.upper))
    assert gamma_minus(generate("monotone_threshold", shape, seed=2)).gamma == 0
    assert gamma_minus(BoolFunc.from_mask(shape, 0b0001)).gamma == Fraction(1, 4)


def test_gamma_witness_is_maximum(rng):
    cases = []
    for shape in (GridShape(4, 1), GridShape(2, 2)):
        cases.extend((shape, mask) for mask in range(1 << shape.size))
    for shape in (GridShape(3, 2), GridShape(2, 3)):
        cases.extend((shape, rng.randrange(1 << shape.size)) for _ in range(200))
    for shape, mask in cases:
        f = BoolFunc.from_mask(shape, mask)
        s_minus, _ = violated_aug_edges(f)
        rep = gamma_minus(f)
        touched = set()
        for e in rep.witness:
            assert e in s_minus, (shape, mask)
            assert e.lower not in touched and e.upper not in touched, (shape, mask)
            touched.update((e.lower, e.upper))
        best = all_maximum_matchings([(e.lower, e.upper) for e in s_minus])[0]
        assert len(rep.witness) == len(best), (shape, mask)
        assert rep.gamma == Fraction(len(best), shape.size)


def test_shape_tables_comparable_matches_scalar_definition():
    for shape in (GridShape(3, 1), GridShape(5, 1), GridShape(7, 1), GridShape(16, 1),
                  GridShape(3, 2), GridShape(5, 2), GridShape(7, 2), GridShape(2, 3),
                  GridShape(4, 2), GridShape(3, 3)):
        pts = list(points(shape))
        expected = tuple((i, j, directed_distance(shape, x, y))
                         for i, x in enumerate(pts) for j, y in enumerate(pts)
                         if i != j and dominates(y, x))
        pairs = shape_tables(shape)
        columns = (pairs.lo, pairs.hi, pairs.dist)
        assert tuple(zip(*(c.tolist() for c in columns))) == expected, shape
        assert [c.dtype for c in columns] == [np.intp, np.intp, np.uint8]
        assert all(c.flags.c_contiguous and not c.flags.writeable for c in columns)
        comparable = pairs.comparable   # the derived (pairs, 3) rows
        assert tuple(map(tuple, comparable.tolist())) == expected, shape
        assert comparable.dtype == np.int64 and comparable.shape == (len(expected), 3)
    t = BoolFunc.from_mask(GridShape(4, 1), 0b0011).bits  # table (1,1,0,0)
    pairs = shape_tables(GridShape(4, 1))
    assert (t[pairs.lo] > t[pairs.hi]).sum() == 4


def test_witness_labels_match_the_scalar_definitions():
    for shape in (GridShape(3, 2), GridShape(5, 1), GridShape(2, 3), GridShape(4, 2),
                  GridShape(8, 3), GridShape(2, 13)):
        assert oracle._point_tuples(shape, np.arange(shape.size)) == list(points(shape))
        if shape.size <= 4096:
            edges = list(enumerate_augmented_edges(shape))   # by lo, as the edge table
            assert oracle._witness_labels(shape, np.arange(len(edges))) == edges


def test_witness_oracles_build_no_shape_tables():
    shape_tables.cache_clear()
    f = BoolFunc.from_mask(GridShape(4, 2), 0x0F0F)
    violated_aug_edges(f)
    gamma_minus(f)
    isoperimetry_report(generate("uniform_random", GridShape(8, 3), seed=2))   # on the flow
    assert shape_tables.cache_info().currsize == 0


def test_shape_tables_rows_do_not_depend_on_blocks(monkeypatch):
    shapes = (GridShape(5, 2), GridShape(2, 3), GridShape(16, 1), GridShape(3, 3))
    expected = [shape_tables(shape) for shape in shapes]
    for cells in (1, 7, 64):   # one lo point per block, and blocks that split rows
        monkeypatch.setattr(oracle, "BATCH_CELLS", cells)
        for shape, pairs in zip(shapes, expected):
            columns = oracle._comparable(shape)
            assert [c.dtype for c in columns] == [np.intp, np.intp, np.uint8], (shape, cells)
            for got, want in zip(columns, (pairs.lo, pairs.hi, pairs.dist)):
                assert np.array_equal(got, want), (shape, cells)


def test_optimal_matching_examples():
    shape = GridShape(4, 1)
    rep = optimal_matching(BoolFunc.from_mask(shape, 0b0011))
    assert set(rep.pairs) == {((0,), (2,)), ((1,), (3,))}
    assert rep.r == 1 and rep.psi == 2 and not rep.empty
    mono = optimal_matching(generate("monotone_threshold", shape, seed=2))
    assert mono.empty and mono.pairs == () and mono.r == 0


def lex_signature(shape, matching):
    dists = [directed_distance(shape, x, y) for x, y in matching]
    return len(matching), sum(dists), -sum(d * d for d in dists)


def test_optimal_matching_lexicographic_vs_enumeration(rng):
    shapes = [GridShape(2, 2), GridShape(4, 1), GridShape(2, 3), GridShape(3, 2)]
    for k, shape in enumerate(shapes):
        if k < 2:
            masks = range(1 << shape.size)
        else:
            masks = [rng.randrange(1 << shape.size) for _ in range(150)]
        tables = _mask_bits(masks, shape.size)
        comparable = shape_tables(shape).comparable
        pts = list(points(shape))
        for mask, t, rep in zip(masks, tables, optimal_matching_batch(shape, tables)):
            violated = comparable[t[comparable[:, 0]] > t[comparable[:, 1]]]
            arcs = [(pts[i], pts[j]) for i, j, _ in violated.tolist()]
            best = None
            for matching in all_maximum_matchings(arcs, max_size=len(rep.pairs) or None):
                sig = lex_signature(shape, matching)
                best = sig if best is None else min(best, sig)
            got = lex_signature(shape, rep.pairs)
            if rep.empty:
                assert not arcs
            else:
                assert got == best, (shape, mask)


def reference_assignment(shape, table):
    """(lower point, upper point, distance) of the optimal matching, from one
    assignment solve on a cost matrix written out from the definitions.

    Rows are the 1-points and columns the 0-points, both in increasing
    linear index.  A violated pair x <= y costs dist * (K - dist), with
    K = 1 + n^d dmax^2 and dmax the largest violated distance; every other
    cell holds the forbidden cost min(ones, zeros) dmax K + 1, and pairs at
    that cost are dropped.
    """
    pts = list(points(shape))
    ones = [x for x, bit in zip(pts, table) if bit]
    zeros = [y for y, bit in zip(pts, table) if not bit]
    dist = {(i, j): directed_distance(shape, x, y) for i, x in enumerate(ones)
            for j, y in enumerate(zeros) if dominates(y, x)}
    if not dist:
        return []
    dmax = max(dist.values())
    K = 1 + shape.size * dmax * dmax
    forbid = float(min(len(ones), len(zeros)) * dmax * K + 1)
    cost = np.full((len(ones), len(zeros)), forbid)
    for (i, j), d in dist.items():
        cost[i, j] = d * (K - d)
    return [(ones[i], zeros[j], dist[i, j])
            for i, j in zip(*linear_sum_assignment(cost)) if cost[i, j] < forbid]


def test_optimal_matching_matches_a_reference_cost_matrix():
    gen = np.random.default_rng(15)
    cases = [(shape, _mask_bits(range(16), 4)) for shape in (GridShape(2, 2), GridShape(4, 1))]
    for shape, count in ((GridShape(2, 3), 60), (GridShape(3, 2), 60), (GridShape(4, 2), 120)):
        masks = gen.integers(1 << shape.size, size=count).tolist()
        cases.append((shape, _mask_bits(masks, shape.size)))
    for shape in (GridShape(32, 2), GridShape(8, 3), GridShape(4, 5)):
        cases.append((shape, (gen.random((1, shape.size)) < 0.5).astype(np.uint8)))
    for shape, tables in cases:
        for k, (table, rep) in enumerate(zip(tables, optimal_matching_batch(shape, tables))):
            expected = reference_assignment(shape, table.tolist())
            dists = [d for _, _, d in expected]
            assert rep.pairs == tuple((x, y) for x, y, _ in expected), (shape, k)
            assert (rep.empty, rep.psi) == (not expected, sum(d * d for d in dists)), (shape, k)
            assert rep.r == Fraction(sum(dists), max(len(dists), 1)), (shape, k)


def test_isoperimetry_examples():
    shape = GridShape(4, 1)
    rep = isoperimetry_report(BoolFunc.from_mask(shape, 0b0011))
    assert rep.margulis_ratio == Fraction(3, 2)
    rep2 = isoperimetry_report(BoolFunc.from_mask(shape, 0b0001))
    assert rep2.margulis_ratio == Fraction(2)
    mono = isoperimetry_report(generate("monotone_threshold", shape, seed=2))
    assert mono.influence.eps == 0
    assert mono.margulis_ratio is None and mono.edge_ratio is None and mono.vertex_ratio is None


def test_maximality_check_rejects_what_is_not_a_maximum_matching():
    # arcs 0->0, 0->1, 1->1; the one maximum matching is {0-0, 1-1}
    u, v = np.array([0, 0, 1]), np.array([0, 1, 1])
    oracle._check_maximum(u, v, np.array([0, 1]), np.array([0, 1]), 2, 2)
    for kept in ([(1, 0)], [(0, 0), (1, 0)], [(2, 0)], [(-1, 0)], [(0, 2)], [(0, -1)]):
        with pytest.raises(IntegrityError, match="not a violation arc"):
            oracle._check_maximum(u, v, *np.array(kept).T, 2, 2)
    for kept in ([(0, 0), (0, 1)], [(0, 1), (1, 1)]):
        with pytest.raises(IntegrityError, match="share an end"):
            oracle._check_maximum(u, v, *np.array(kept).T, 2, 2)
    # one short: 1 -> 1 -> (partner) 0 -> 0 is an augmenting path
    with pytest.raises(IntegrityError, match="maximum matching"):
        oracle._check_maximum(u, v, np.array([0]), np.array([1]), 2, 2)


def test_dropped_assignment_pair_is_caught(monkeypatch):
    # Γ⁻ is not a largest matching of these tables, so the sweep's grid
    # search leaves them to the assignment
    tables = far_past_gamma(2)
    solve = oracle.linear_sum_assignment
    # every pair these assignments keep is an arc: dropping one leaves a
    # matching one short of the maximum
    monkeypatch.setattr(oracle, "linear_sum_assignment", lambda cost: tuple(
        side[1:] for side in solve(cost)))
    for f in (BoolFunc.from_table(GridShape(4, 2), table) for table in tables):
        with pytest.raises(IntegrityError, match="maximum matching"):
            optimal_matching(f)
        with pytest.raises(IntegrityError, match="maximum matching"):
            isoperimetry_report(f)


def test_dropped_pair_in_one_row_of_a_block_is_caught(monkeypatch):
    # the grid search leaves every row to the assignment, one solve each
    shape = GridShape(4, 2)
    tables = far_past_gamma(12)
    expected = isoperimetry_sweep(shape, tables)   # one block of rows
    solve, calls = oracle.linear_sum_assignment, []

    def drop_in_fifth_row(cost):
        one, zero = solve(cost)
        calls.append(len(one))
        if len(calls) != 5:
            return one, zero
        cheapest = cost[one, zero].argmin()   # an arc: each of these rows keeps one
        return np.delete(one, cheapest), np.delete(zero, cheapest)

    monkeypatch.setattr(oracle, "linear_sum_assignment", drop_in_fifth_row)
    with pytest.raises(IntegrityError, match="maximum matching"):
        isoperimetry_sweep(shape, tables)
    assert len(calls) == len(tables) == len(expected.matched) > 5


SWEEP_COLUMNS = ("violated", "upward", "gamma", "matched", "total")


def same_sweep(a, b) -> bool:
    """Equal sizes and equal int64 count columns."""
    return a.size == b.size and all(
        getattr(a, c).dtype == getattr(b, c).dtype == np.int64
        and np.array_equal(getattr(a, c), getattr(b, c)) for c in SWEEP_COLUMNS)


def test_isoperimetry_sweep_rows_do_not_depend_on_blocks(monkeypatch):
    # 8^3 and 32^2 take the min-cost flow, 4^2 the assignment and then, with
    # the threshold at 0, the flow in blocks of many rows (40 in `expected`)
    gen = np.random.default_rng(3)
    for shape, count in ((GridShape(4, 2), 40), (GridShape(8, 3), 8), (GridShape(32, 2), 4)):
        tables = (gen.random((count, shape.size)) < gen.random(count)[:, None]).astype(np.uint8)
        tables[1], tables[2] = 0, 1   # constant rows and a monotone one: no violated edge
        tables[3] = generate("random_monotone", shape, seed=4).bits
        thresholds = [oracle._ASSIGNMENT_POINTS]
        if shape.size <= oracle._ASSIGNMENT_POINTS:
            thresholds.append(0)
        for assignment_points in thresholds:
            monkeypatch.setattr(oracle, "_ASSIGNMENT_POINTS", assignment_points)
            expected = isoperimetry_sweep(shape, tables)
            for column in ("violated", "matched", "gamma"):
                assert np.array_equal(getattr(expected, column)[1:4], [0, 0, 0]), column
            empty = oracle.IsoperimetrySweep(shape.size, *(np.zeros(0, np.int64) for _ in range(5)))
            for cells in (1, 7, 64):
                with monkeypatch.context() as patch:
                    patch.setattr(oracle, "BATCH_CELLS", cells)
                    assert same_sweep(isoperimetry_sweep(shape, tables), expected), (shape, cells)
                    assert same_sweep(isoperimetry_sweep(shape, tables[:0]), empty), (shape, cells)
            monkeypatch.undo()


def test_isoperimetry_sweep_rows_match_per_function_oracles(monkeypatch):
    gen = np.random.default_rng(8)
    for shape, count in ((GridShape(4, 2), 60), (GridShape(8, 3), 12), (GridShape(4, 5), 6),
                         (GridShape(32, 2), 3)):
        densities = gen.random(count)
        tables = (gen.random((count, shape.size)) < densities[:, None]).astype(np.uint8)
        tables[0] = generate("random_monotone", shape, seed=1).bits
        sweep = isoperimetry_sweep(shape, tables)
        with monkeypatch.context() as patch:   # one row per block
            patch.setattr(oracle, "BATCH_CELLS", 1)
            assert same_sweep(isoperimetry_sweep(shape, tables), sweep)
        for k, table in enumerate(tables):
            f = BoolFunc.from_table(shape, table)
            mstar = optimal_matching(f)
            assert sweep.gamma[k] == len(gamma_minus(f).witness), (shape, k)
            assert sweep.matched[k] == len(mstar.pairs), (shape, k)
            assert Fraction(sweep.matched[k], shape.size) == distance_to_monotonicity(f).eps
            assert (sweep.report(k).influence.r, sweep.total[k]) == (
                mstar.r, sum(directed_distance(shape, x, y) for x, y in mstar.pairs))
            assert sweep.report(k) == isoperimetry_report(f), (shape, k)


def left_open(shape, block, gamma_row, gamma_k):
    """A stand-in for oracle._sink_reached that leaves every row open."""
    return np.full(len(block), oracle._OPEN, np.int8)


def matching_counts(shape, tables, assignment_points, monkeypatch):
    """(matched, total) columns of isoperimetry_sweep with the given threshold."""
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_ASSIGNMENT_POINTS", assignment_points)
        sweep = isoperimetry_sweep(shape, tables)
    return sweep.matched, sweep.total


def test_flow_matches_the_assignment(monkeypatch):
    # the flow on every shape (threshold 0) against the assignment on every
    # shape (threshold at the shape tables' cap), which solves every row with
    # a violated edge: the grid search is forced open there
    gen = np.random.default_rng(16)
    cases = [(GridShape(n, d), _mask_bits(range(1 << n ** d), n ** d))
             for n, d in ((2, 2), (2, 3), (3, 2))]
    cases.append((GridShape(4, 2), _mask_bits(gen.integers(0, 1 << 16, 8192).tolist(), 16)))
    for (n, d), count in (((4, 3), 40), ((8, 2), 40), ((2, 8), 12), ((8, 3), 8), ((32, 2), 4),
                          ((4, 5), 4), ((16, 3), 2)):
        shape = GridShape(n, d)
        densities = gen.random(count)
        cases.append((shape, (gen.random((count, shape.size)) < densities[:, None]).astype(np.uint8)))
    for shape, tables in cases:
        flow = matching_counts(shape, tables, 0, monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_sink_reached", left_open)
            assignment = matching_counts(shape, tables, oracle.ORACLE_CAPACITY, monkeypatch)
        for got, want in zip(flow, assignment):
            assert got.dtype == np.int64 and np.array_equal(got, want), shape
        assert flow[0].any(), shape


def far_past_gamma(count):
    """Tables of the first `count` masks on 4^2 whose optimal matching has at
    least two pairs more than their Γ⁻, so the flow needs a phase past its
    start from the Γ⁻ matching."""
    sweep = full_sweep(4, 2)
    return _mask_bits((sweep.matched - sweep.gamma >= 2).nonzero()[0][:count].tolist(), 16)


def patched_flow(monkeypatch, change):
    """Patch oracle.maximum_flow so that change(flow, source) edits each
    phase's flow before the min-cost flow reads it; returns the call log."""
    solve, calls = oracle.maximum_flow, []

    def patched(graph, source, sink, method):
        flow = solve(graph, source, sink, method=method).flow
        calls.append(change(flow, source))
        return SimpleNamespace(flow=flow)

    monkeypatch.setattr(oracle, "maximum_flow", patched)
    monkeypatch.setattr(oracle, "_ASSIGNMENT_POINTS", 0)
    return calls


def drop_unit(flow, source):
    """Take one unit off an arc from the source and off its reverse, without
    the rest of its path; True if one was found."""
    heads = flow.indices[flow.indptr[source]:flow.indptr[source + 1]]
    used = flow.data[flow.indptr[source]:flow.indptr[source + 1]] > 0
    if not used.any():
        return False
    v = heads[used.nonzero()[0][0]]
    flow[source, v] -= 1
    flow[v, source] += 1
    return True


def test_dropped_flow_unit_is_caught(monkeypatch):
    # rows 1 and 2 of mask 831 are (1, 1, 0, 0): Γ⁻ is 6 of its 8 pairs, and
    # the one phase past it moves two units, so one of them can be dropped
    f = BoolFunc.from_mask(GridShape(4, 2), 831)
    calls = patched_flow(monkeypatch, drop_unit)
    with pytest.raises(IntegrityError, match="not conserved"):
        isoperimetry_sweep(f.shape, f.bits[None])
    with pytest.raises(IntegrityError, match="not conserved"):
        isoperimetry_report(f)
    assert calls == [True, True]


def test_dropped_flow_unit_in_one_row_of_a_block_is_caught(monkeypatch):
    # the sweep solves a block's tables one flow each; a unit dropped in the
    # sixth table's flow is caught there, after five tables whose flows pass
    shape = GridShape(4, 2)
    tables = far_past_gamma(12)
    solve, solved = oracle._matching_flow, []

    def counted(shape, table, gamma_k, reached):
        solved.append(table)
        return solve(shape, table, gamma_k, reached)

    monkeypatch.setattr(oracle, "_matching_flow", counted)
    calls = patched_flow(monkeypatch, lambda flow, source: len(solved) == 6
                         and drop_unit(flow, source))
    with pytest.raises(IntegrityError, match="not conserved"):
        isoperimetry_sweep(shape, tables)
    assert len(tables) == 12 and len(solved) == 6 and np.array_equal(solved[5], tables[5])
    assert any(calls)


def test_flow_that_moves_nothing_is_caught(monkeypatch):
    shape = GridShape(4, 2)
    tables = far_past_gamma(12)

    def clear(flow, source):
        flow.data[:] = 0
        return True

    calls = patched_flow(monkeypatch, clear)
    for block in (tables[:1], tables):   # one row, and a block of rows
        with pytest.raises(IntegrityError, match="moved no flow"):
            isoperimetry_sweep(shape, block)
    assert len(calls) == 2


def test_flow_on_an_arc_outside_the_residual_graph_is_caught(monkeypatch):
    f = BoolFunc.from_mask(GridShape(4, 2), 831)

    def unit_from_sink(flow, source):
        with warnings.catch_warnings():   # a new entry in the csr structure
            warnings.simplefilter("ignore", SparseEfficiencyWarning)
            flow[source + 1, source] = 1   # sink -> source: no such arc
        return True

    calls = patched_flow(monkeypatch, unit_from_sink)
    with pytest.raises(IntegrityError, match="outside the residual graph"):
        isoperimetry_report(f)
    assert calls == [True]


def count_phases(monkeypatch):
    """Patch oracle.dijkstra, oracle.maximum_flow and oracle.breadth_first_order
    to count their calls, with every shape on the flow; returns the
    {name: calls} log."""
    counts = {"dijkstra": 0, "maximum_flow": 0, "breadth_first_order": 0}

    def counter(name, solve):
        def counted(*args, **kwargs):
            counts[name] += 1
            return solve(*args, **kwargs)
        return counted

    for name in counts:
        monkeypatch.setattr(oracle, name, counter(name, getattr(oracle, name)))
    monkeypatch.setattr(oracle, "_ASSIGNMENT_POINTS", 0)
    return counts


def test_flow_runs_a_phase_only_past_the_gamma_matching(monkeypatch):
    # where Γ⁻ already is a largest violation matching the search on the grid
    # ends the flow before any breadth-first search, dijkstra or maximum flow
    sweep = full_sweep(4, 2)
    masks = ((sweep.gamma > 0) & (sweep.gamma == sweep.matched)).nonzero()[0][:200]
    slab = generate("anti_slab", GridShape(8, 3))
    counts = count_phases(monkeypatch)
    for f in [BoolFunc.from_mask(GridShape(4, 2), int(m)) for m in masks] + [slab]:
        influence = isoperimetry_report(f).influence
        assert 0 < influence.gamma_minus == influence.eps
    assert len(masks) == 200
    assert counts == {"dijkstra": 0, "maximum_flow": 0, "breadth_first_order": 0}
    for table in far_past_gamma(12):
        before = dict(counts)
        isoperimetry_sweep(GridShape(4, 2), table[None])
        assert all(counts[name] > before[name] for name in counts), before


def residual_reaches_sink(shape, table, gamma_k):
    """The flow's first question asked of scipy: once each Γ⁻ edge gamma_k
    carries one unit, does a breadth-first search from the source on the arcs
    of _flow_graph(shape) with capacity left reach the sink?"""
    tails, heads, _, _, _, forward, back, terminal = oracle._flow_graph(shape)
    lo, hi = oracle._edge_table(shape)[:2]
    from_source, to_source, to_sink, from_sink = terminal
    u, w = lo[gamma_k], hi[gamma_k]
    resid = np.zeros(len(heads), np.int64)
    resid[forward] = shape.size
    resid[from_source] = table
    resid[to_sink] = 1 - table
    resid[np.concatenate((from_source[u], forward[gamma_k], to_sink[w]))] -= 1
    resid[np.concatenate((to_source[u], back[gamma_k], from_sink[w]))] += 1
    live = resid > 0
    vertices = shape.size + 2
    graph = csr_matrix((np.ones(live.sum()), (tails[live], heads[live])), shape=(vertices, vertices))
    return bool((breadth_first_order(graph, shape.size, return_predecessors=False)
                 == shape.size + 1).any())


def gamma_rows(shape, tables):
    """Each row's Γ⁻ edges (rows of grid._edge_table), as the sweep picks them."""
    row, k = oracle._gamma_edges(shape, tables, oracle._edge_masks(shape, tables)[0])
    bounds = row.searchsorted(np.arange(len(tables) + 1))
    return [k[a:b] for a, b in zip(bounds, bounds[1:])]


def busy_tables(shape, count, seed):
    """`count` tables on `shape`: uniform ones of random density, and upward
    closures of a few seeds with a few points flipped, all with a violated edge."""
    gen = np.random.default_rng(seed)
    tables = []
    while len(tables) < count:
        if len(tables) % 2:
            table = func._upward_close(shape, gen.random(shape.size) < 0.02)
            table = table ^ (gen.random(shape.size) < gen.uniform(0.002, 0.05))
        else:
            table = gen.random(shape.size) < gen.uniform(0.2, 0.8)
        table = table.astype(np.uint8)
        if oracle._edge_masks(shape, table[None])[0].any():
            tables.append(table)
    return np.array(tables)


ANSWERS = {oracle._REACHED: True, oracle._UNREACHED: False, oracle._OPEN: None}


def sink_answers(shape, tables, edges):
    """oracle._sink_reached on a block of tables whose rows carry the given
    Γ⁻ edges (one array of edge_table rows per table), as True, False or None."""
    gamma_row = np.repeat(np.arange(len(edges)), [len(k) for k in edges])
    gamma_k = np.concatenate(edges).astype(np.intp)
    return [ANSWERS[a] for a in oracle._sink_reached(shape, tables, gamma_row, gamma_k).tolist()]


def sink_answer(shape, table, k):
    """The grid search's answer for one table alone."""
    return sink_answers(shape, table[None], [k])[0]


@pytest.mark.parametrize("n, d, count", [(32, 2, 16), (8, 3, 16), (4, 5, 16), (2, 13, 4),
                                         (6, 4, 16)])
def test_sink_search_agrees_with_the_residual_graph(monkeypatch, n, d, count):
    # both exits of the grid search give the breadth-first search's answer on
    # the residual graph the flow used to build for it
    shape = GridShape(n, d)
    tables = busy_tables(shape, count, n * 100 + d)
    edges = gamma_rows(shape, tables)
    wants = [residual_reaches_sink(shape, table, k) for table, k in zip(tables, edges)]
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_SEARCH_PASSES_PER_ARC", 1 << 20)   # never left open
        answers = [sink_answer(shape, table, k) for table, k in zip(tables, edges)]
    assert answers == wants
    for got, want in zip(sink_answers(shape, tables, edges), wants):
        assert got in (want, None)
    assert set(answers) == {True, False}, shape


def checkerboard(n):
    """The n^2 checkerboard, 1 where x_0 + x_1 is odd, and the edges that pair
    every 1-point to the 0-point one step up axis 0: from the free 1-points
    each closure reaches one more column, and no free 0-point, so it takes n
    closures to certify these pairs."""
    shape = GridShape(n, 2)
    x0, x1 = np.arange(shape.size) % n, np.arange(shape.size) // n
    table = ((x0 + x1) % 2).astype(np.uint8)
    lo, hi = oracle._edge_table(shape)[:2]
    return table, ((hi - lo == 1) & (table[lo] == 1) & (table[hi] == 0)).nonzero()[0]


def test_sink_search_follows_long_alternating_paths(monkeypatch):
    # past the default budget at 64^2 the flow decides
    closures = []
    close = oracle._upward_close
    monkeypatch.setattr(oracle, "_upward_close",
                        lambda shape, seeds: closures.append(shape) or close(shape, seeds))
    for n, open_by_default in ((16, False), (64, True)):
        shape = GridShape(n, 2)
        table, k = checkerboard(n)
        assert not residual_reaches_sink(shape, table, k)
        closures.clear()
        answer = sink_answer(shape, table, k)
        assert answer is (None if open_by_default else False)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_SEARCH_PASSES_PER_ARC", 1 << 20)
            closures.clear()
            assert sink_answer(shape, table, k) is False
            assert len(closures) == n


def test_block_sink_search_answers_each_row_as_alone(monkeypatch):
    # one block of saturated, reached, unreached and (by default) open rows:
    # each row's answer is its own, whatever the rows around it
    shape = GridShape(64, 2)
    slab = generate("anti_slab", shape).bits   # Γ⁻ pairs every 1-point: a saturated side
    board, board_k = checkerboard(64)
    tables = np.concatenate(([slab], busy_tables(shape, 6, 11), [board],
                             busy_tables(shape, 3, 12)))
    edges = gamma_rows(shape, tables)
    edges[7] = board_k
    wants = [residual_reaches_sink(shape, table, k) for table, k in zip(tables, edges)]
    assert wants[0] is wants[7] is False and set(wants) == {True, False}
    default = sink_answers(shape, tables, edges)
    assert default == [sink_answer(shape, table, k) for table, k in zip(tables, edges)]
    assert default[7] is None and {True, False} <= set(default)
    for got, want in zip(default, wants):
        assert got in (want, None)
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_SEARCH_PASSES_PER_ARC", 1 << 20)
        assert sink_answers(shape, tables, edges) == wants
        assert [sink_answer(shape, table, k) for table, k in zip(tables, edges)] == wants


def test_forced_fall_through_gives_the_same_counts(monkeypatch):
    # with the grid search left open on every row, the flow's own first search
    # decides, and the counts are those of both of the search's exits
    built = []
    flow_graph = oracle._flow_graph
    monkeypatch.setattr(oracle, "_flow_graph", lambda shape: built.append(shape) or flow_graph(shape))
    for n, d, seed in ((32, 2, 1), (8, 3, 2), (4, 5, 3), (6, 4, 4)):
        shape = GridShape(n, d)
        tables = busy_tables(shape, 12, seed)
        built.clear()
        want = isoperimetry_sweep(shape, tables)
        assert 0 < len(built) < len(tables), shape   # both exits taken
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_sink_reached", left_open)
            got = isoperimetry_sweep(shape, tables)
        for column in ("gamma", "matched", "total"):
            assert np.array_equal(getattr(got, column), getattr(want, column)), (shape, column)


@pytest.mark.parametrize("fault, message", [("not violated", "not violated"),
                                            ("shares a point", "share a point")])
def test_broken_gamma_matching_is_caught_before_the_flow_graph(monkeypatch, fault, message):
    shape = GridShape(8, 3)
    table = busy_tables(shape, 1, 5)[0]
    f = BoolFunc.from_table(shape, table)
    gamma_edges = oracle._gamma_edges

    def broken(shape, block, down):
        row, k = gamma_edges(shape, block, down)
        # Γ⁻ is maximal, so every violated edge outside it shares a point with it
        spare = (~down[0] if fault == "not violated" else down[0]).nonzero()[0]
        k = np.sort(np.append(k, spare[~np.isin(spare, k)][0]))
        return np.zeros(len(k), row.dtype), k

    built = []
    monkeypatch.setattr(oracle, "_gamma_edges", broken)
    monkeypatch.setattr(oracle, "_flow_graph", built.append)
    with pytest.raises(IntegrityError, match=message):
        isoperimetry_report(f)
    assert built == []


@pytest.mark.parametrize("shape", [GridShape(4, 2), GridShape(8, 3)], ids=str)
@pytest.mark.parametrize("fault, message", [("not violated", "not violated"),
                                            ("shares a point", "share a point")])
def test_broken_gamma_in_one_row_of_a_block_is_caught_before_either_solver(
        monkeypatch, shape, fault, message):
    # 4^2 goes to the assignment, 8^3 to the flow; row 0 has no violated edge,
    # so the broken row is the third of the rows the grid search sees
    tables = np.concatenate((np.zeros((1, shape.size), np.uint8), busy_tables(shape, 5, 7)))
    gamma_edges = oracle._gamma_edges

    def broken(shape, block, down):
        row, k = gamma_edges(shape, block, down)
        spare = (~down[3] if fault == "not violated" else down[3]).nonzero()[0]
        row, k = np.append(row, 3), np.append(k, spare[~np.isin(spare, k[row == 3])][0])
        order = np.lexsort((k, row))
        return row[order], k[order]

    solved = []
    monkeypatch.setattr(oracle, "_gamma_edges", broken)
    monkeypatch.setattr(oracle, "_flow_graph", solved.append)
    monkeypatch.setattr(oracle, "_optimal_assignment", lambda *args: solved.append(args))
    with pytest.raises(IntegrityError, match=message):
        isoperimetry_sweep(shape, tables)
    assert solved == []


def test_scipy_csgraph_behaviour_the_flow_relies_on():
    # 0 -> 1 weight 0 (stored), 1 -> 2 weight 1, 0 -> 3 inf (stored): no arc
    graph = csr_matrix((np.array([0.0, np.inf, 1.0]), np.array([1, 3, 2], np.int32),
                        np.array([0, 2, 3, 3, 3], np.int32)), shape=(4, 4))
    assert graph.nnz == 3
    assert dijkstra(graph, indices=0).tolist() == [0.0, 0.0, 1.0, np.inf]
    # the breadth-first search reads only the structure: every stored entry,
    # 0 and inf too, is an arc, so the flow stores only arcs with capacity left
    reached = breadth_first_order(graph, 0, return_predecessors=False)
    assert sorted(reached.tolist()) == [0, 1, 2, 3]
    zeros = csr_matrix((np.zeros(2), np.array([1, 2], np.int32), np.array([0, 1, 2, 2], np.int32)),
                       shape=(3, 3))
    assert sorted(breadth_first_order(zeros, 0, return_predecessors=False).tolist()) == [0, 1, 2]
    # capacities 0 -> 1: 2, 0 -> 2: 0 (stored), 1 -> 3: 1, 2 -> 3: 5
    caps = csr_matrix((np.array([2, 0, 1, 5], np.int32), np.array([1, 2, 3, 3], np.int32),
                       np.array([0, 2, 3, 4, 4], np.int32)), shape=(4, 4))
    result = maximum_flow(caps, 0, 3, method="dinic")
    assert result.flow_value == 1
    assert result.flow[0, 1] == 1 and result.flow[1, 3] == 1 and result.flow[0, 2] == 0


@pytest.mark.parametrize("shape", [GridShape(4, 2), GridShape(8, 3), GridShape(2, 9)])
def test_flow_graph_structure(shape):
    tails, heads, indptr, cost, reverse, forward, back, terminal = oracle._flow_graph(shape)
    lo, hi = oracle._edge_table(shape)[:2]
    size, vertices = shape.size, shape.size + 2
    keys = tails.astype(np.int64) * vertices + heads
    assert (np.diff(keys) > 0).all()   # sorted by (tail, head), no arc twice
    assert np.array_equal(indptr, np.concatenate(([0], np.bincount(tails, minlength=vertices).cumsum())))
    assert len(heads) == 2 * len(lo) + 4 * size
    for at, ends, c in ((forward, (lo, hi), 1), (back, (hi, lo), -1)):
        assert np.array_equal(tails[at], ends[0]) and np.array_equal(heads[at], ends[1])
        assert (cost[at] == c).all()
    point, source, sink = np.arange(size), np.full(size, size), np.full(size, size + 1)
    for at, (tail, head) in zip(terminal, ((source, point), (point, source),
                                           (point, sink), (sink, point))):
        assert np.array_equal(tails[at], tail) and np.array_equal(heads[at], head)
        assert (cost[at] == 0).all()
    assert np.array_equal(tails[reverse], heads) and np.array_equal(heads[reverse], tails)
    assert sorted(np.concatenate((forward, back, terminal.ravel())).tolist()) == list(range(len(heads)))
    for column in (tails, heads, indptr, cost, reverse, forward, back, terminal):
        assert not column.flags.writeable


def test_isoperimetry_past_the_comparable_pairs_cap():
    shape = GridShape(2, 13)   # 8192 points, twice the shape tables' cap
    rep = isoperimetry_report(generate("anti_slab", shape))
    assert rep.influence.eps == Fraction(1, 2)
    assert all(r is not None and r > 0 for r in (rep.margulis_ratio, rep.edge_ratio,
                                                 rep.vertex_ratio))


def test_persistence_rows_past_the_comparable_pairs_cap():
    # 8192 points: the reference bound reads I(f) from the edge counts, which
    # share the isoperimetry sweep's 2^16-point cap
    (row,) = reports.persistence_rows([(2, 13)], ["anti_slab"], [1], 20, 20, 0)
    n, d, tau, family, fraction, reference = row.split(",")
    assert (n, d, tau, family) == ("2", "13", "1", "anti_slab") and 0 <= float(fraction) <= 1
    # the slab violates every axis-0 edge and no other: I(f) = 2^12 / 2^13
    assert float(reference) == 0.5 / 13
    with pytest.raises(CapacityError, match="augmented edge counts needs 131072 points"):
        edge_counts_batch(GridShape(2, 17), np.zeros((1, 1 << 17), np.uint8))


def test_isoperimetry_rows_past_the_comparable_pairs_cap():
    # the sampled mask of 2^14 points has 4933 digits, past str(int)'s default limit
    (row,) = reports.isoperimetry_rows([(2, 14)], 5, samples=1)
    mask = derive_rng(5, "iso:2:14").randrange(1 << (1 << 14))
    n, d, function_id, eps = row.split(",")[:4]
    assert (n, d) == ("2", "14") and int(Decimal(function_id)) == mask
    assert 0 < float(eps) <= 0.5


def test_isoperimetry_capacity_is_checked_before_any_graph(monkeypatch):
    calls = []
    for name in ("_edge_masks", "_matching_flow", "_optimal_assignment"):
        monkeypatch.setattr(oracle, name, lambda *args: calls.append(args))
    shape = GridShape(2, 17)
    assert shape.size == 2 * DISTANCE_CAPACITY
    f = BoolFunc.from_predicate(shape, lambda x: calls.append(x) or 0)
    with pytest.raises(CapacityError, match="isoperimetry sweep"):
        isoperimetry_report(f)
    with pytest.raises(CapacityError, match="isoperimetry sweep"):
        isoperimetry_sweep(shape, np.zeros((1, shape.size), np.uint8))
    with pytest.raises(CapacityError, match="isoperimetry sweep"):
        reports.isoperimetry_rows([(2, 17)], 0, samples=1)
    assert calls == [] and f.queries == 0


def test_isoperimetry_report_reads_the_table_once():
    calls = []

    def upper_left(x):
        calls.append(x)
        return int(x[0] < 2 <= x[1])

    f = BoolFunc.from_predicate(GridShape(4, 2), upper_left)
    rep = isoperimetry_report(f)
    assert len(calls) == 16 and f.queries == 0
    assert rep.influence.eps > 0 and rep == isoperimetry_report(BoolFunc.from_table(f.shape, f.bits))


def test_influence_identities(rng):
    shape = GridShape(4, 2)
    bound = shape.d * shape.bits
    for _ in range(200):
        f = BoolFunc.from_mask(shape, rng.randrange(1 << shape.size))
        rep = isoperimetry_report(f).influence
        assert rep.I == rep.I_plus + rep.I_minus
        assert 0 <= rep.I <= bound
        assert 0 <= rep.eps <= 1
        assert rep.gamma_minus <= rep.I_minus
        assert rep.gamma_minus <= Fraction(1, 2)
        if rep.eps > 0:
            assert rep.I_minus > 0 and rep.gamma_minus > 0
        else:
            assert rep.I_minus == 0


# Every grid of at most 256 points: the shapes whose reports take the
# assignment (oracle._ASSIGNMENT_POINTS); test_flow_matches_the_assignment
# checks the flow above.  On a 2-vCPU host each of these shapes' tables
# builds in under 2 ms cold and one isoperimetry_report takes under 2 ms, so
# the bound is not set by cost.
SMALL_SHAPES = [GridShape(n, d) for n in range(2, 257) for d in range(1, 9) if n ** d <= 256]


@given(shape=st.sampled_from(SMALL_SHAPES), data=st.data())
def test_influence_report_matches_distance_oracle(shape, data):
    table = data.draw(st.lists(st.integers(0, 1), min_size=shape.size, max_size=shape.size))
    f = BoolFunc.from_table(shape, table)
    rep = isoperimetry_report(f).influence
    dist = distance_to_monotonicity(f)
    assert rep.eps == dist.eps
    assert rep.matching_size == len(dist.matching)


def test_module_regression_minima():
    # frozen from the exhaustive sweeps of these two shapes
    for shape, frozen in ((GridShape(4, 1), Fraction(1)), (GridShape(2, 2), Fraction(1))):
        best = None
        for mask in range(1 << shape.size):
            rep = isoperimetry_report(BoolFunc.from_mask(shape, mask))
            if rep.margulis_ratio is None:
                continue
            assert rep.margulis_ratio > 0
            best = rep.margulis_ratio if best is None else min(best, rep.margulis_ratio)
        assert best == frozen


def test_influence_bound_examples():
    shape = GridShape(4, 2)
    const = BoolFunc.from_table(shape, [0] * shape.size)
    chk = influence_bound_check(const)
    assert chk.applicable and chk.holds and chk.I == 0
    with pytest.raises(ValueError):
        influence_bound_check(BoolFunc.from_table(GridShape(2, 2), [0] * 4))


def test_influence_bound_check_past_the_comparable_pairs_cap():
    # the one-function view shares its batch's 2^16-point cap
    f = generate("anti_slab", GridShape(4, 7))   # 16384 points
    applicable, holds, sensitive, violated = influence_bound_batch(f.shape, f.bits[None])
    chk = influence_bound_check(f)
    assert (chk.applicable, chk.holds) == (bool(applicable[0]), bool(holds[0])) == (True, True)
    assert chk.I == Fraction(int(sensitive[0]), f.shape.size) == Fraction(12288, 16384)
    assert chk.I_minus == Fraction(int(violated[0]), f.shape.size) == chk.I
    big = generate("anti_slab", GridShape(2, 17))
    with pytest.raises(CapacityError, match="augmented edge counts needs 131072 points"):
        influence_bound_check(big)
    assert big.queries == 0


def test_influence_bound_sampled(rng):
    shape, count = GridShape(8, 3), 10_000
    # getrandbits(32 m) is the generator's next m words, word i at bit 32 i,
    # and getrandbits(1) is one word's top bit, bit 7 of the word's last byte
    # in little-endian order: so these are the tables of count * 512 calls of
    # getrandbits(1)
    state = rng.getstate()
    words = b"".join(rng.getrandbits(32 * shape.size).to_bytes(4 * shape.size, "little")
                     for _ in range(count))
    tables = (np.frombuffer(words, np.uint8)[3::4] >> 7).reshape(count, shape.size)
    rng.setstate(state)
    assert tables[0].tolist() == [rng.getrandbits(1) for _ in range(shape.size)]
    applicable, holds, sensitive, violated = influence_bound_batch(shape, tables)
    assert holds[applicable].all()
    for k in range(200):
        chk = influence_bound_check(BoolFunc.from_table(shape, tables[k]))
        assert chk == oracle.InfluenceBoundCheck(
            bool(applicable[k]), bool(holds[k]), Fraction(int(sensitive[k]), shape.size),
            Fraction(int(violated[k]), shape.size)), k


# ----------------------------------------------------------------------
# batch kernels against the per-function oracles

def reference_aug_edges(shape):
    """(lo, hi) linear indices of every augmented edge, from the definition:
    x -> x + s e_i for each axis i and each power of two s < n."""
    pairs = []
    for x in points(shape):
        for i in range(shape.d):
            s = 1
            while x[i] + s < shape.n:
                y = x[:i] + (x[i] + s,) + x[i + 1:]
                pairs.append((linear_index(shape, x), linear_index(shape, y)))
                s *= 2
    return np.array(pairs).T


@pytest.mark.parametrize("shape", [GridShape(4, 2), GridShape(2, 3)])
def test_edge_counts_batch_exhaustive(shape, rng):
    masks = range(1 << shape.size)
    tables = _mask_bits(masks, shape.size)
    violated, upward = edge_counts_batch(shape, tables)
    lo, hi = reference_aug_edges(shape)   # one column per edge, one row per mask
    assert np.array_equal(violated, (tables[:, lo] > tables[:, hi]).sum(axis=1))
    assert np.array_equal(upward, (tables[:, lo] < tables[:, hi]).sum(axis=1))
    for mask in rng.sample(masks, 200):   # the one-row witness view
        s_minus, s_plus = violated_aug_edges(BoolFunc.from_mask(shape, mask))
        assert (violated[mask], upward[mask]) == (len(s_minus), len(s_plus)), mask


def test_edge_counts_batch_random_tables(rng):
    shape = GridShape(8, 3)
    tables = [[rng.getrandbits(1) for _ in range(shape.size)] for _ in range(40)]
    violated, upward = edge_counts_batch(shape, np.array(tables, dtype=np.uint8))
    for k, table in enumerate(tables):
        s_minus, s_plus = violated_aug_edges(BoolFunc.from_table(shape, table))
        assert (violated[k], upward[k]) == (len(s_minus), len(s_plus))


def test_influence_bound_batch_matches_one_row_view(rng):
    shape = GridShape(4, 2)
    masks = [rng.randrange(1 << shape.size) for _ in range(500)]
    applicable, holds, sensitive, violated = influence_bound_batch(
        shape, _mask_bits(masks, shape.size))
    for k, mask in enumerate(masks):
        chk = influence_bound_check(BoolFunc.from_mask(shape, mask))
        assert (chk.applicable, chk.holds) == (applicable[k], holds[k])
        assert (chk.I, chk.I_minus) == (Fraction(int(sensitive[k]), 16),
                                        Fraction(int(violated[k]), 16))


@pytest.mark.parametrize("shape", [GridShape(2, 2), GridShape(2, 3), GridShape(3, 2)])
def test_brute_force_batch_exhaustive(shape):
    masks = range(1 << shape.size)
    monotone = [m for m in masks if is_monotone(BoolFunc.from_mask(shape, m))]
    best = brute_force_batch(shape, _mask_bits(masks, shape.size))
    for mask in masks:
        assert best[mask] == min(bin(mask ^ g).count("1") for g in monotone), mask
        assert brute_force_distance(BoolFunc.from_mask(shape, mask)) == \
            Fraction(int(best[mask]), shape.size)


@pytest.mark.parametrize("shape", [GridShape(2, 2), GridShape(2, 3), GridShape(3, 2),
                                   GridShape(4, 1), GridShape(1, 3), GridShape(13, 1)])
def test_monotone_masks_match_unit_step_check(shape):
    # 13^1 has two blocks of masks
    expected = tuple(m for m in range(1 << shape.size)
                     if is_monotone(BoolFunc.from_mask(shape, m)))
    assert monotone_masks(shape) == expected
    assert all(type(m) is int for m in monotone_masks(shape))


@pytest.mark.parametrize("bad", [
    [[2, 0, 0, 0]],
    np.array([[2, 0, 0, 0]], dtype=np.uint8),
    np.array([[257, 0, 0, 0]], dtype=np.int64),
    np.array([[-1, 0, 0, 0]], dtype=np.int64),
    [[0.5, 0, 0, 0]],
    [[0, 1, 0]],
    [0, 1, 0, 0],
], ids=["two", "two-uint8", "257-int64", "minus-one-int64", "half", "wrong-width", "one-row"])
def test_batch_kernels_reject_tables_that_are_not_bits(bad):
    # a cast before the check would read 257 as 1 and -1 as 255
    line = GridShape(4, 1)
    for kernel in (edge_counts_batch, influence_bound_batch, isoperimetry_sweep,
                   brute_force_batch, line_sweep):
        with pytest.raises(ValueError):
            kernel(line, bad)


def test_mask_bits_rows_are_mask_tables(rng):
    for size in (4, 20, 72, 4096):
        masks = [0, (1 << size) - 1] + [rng.getrandbits(size) for _ in range(20)]
        rows = _mask_bits(masks, size)
        assert rows.dtype == np.uint8 and rows.shape == (len(masks), size)
        for mask, row in zip(masks, rows.tolist()):
            assert row == [(mask >> k) & 1 for k in range(size)], (size, mask)


def reference_isoperimetry_rows(shape, masks):
    """isoperimetry_rows' rows for `masks`, from one BoolFunc and one report per mask."""
    rows = []
    for mask in masks:
        report = isoperimetry_report(BoolFunc.from_mask(shape, mask))
        if report.margulis_ratio is None:
            continue
        inf = report.influence
        values = (inf.eps, inf.I, inf.I_minus, inf.gamma_minus, inf.r, report.margulis_ratio,
                  report.edge_ratio, report.vertex_ratio)
        rows.append(",".join([str(shape.n), str(shape.d), str(mask)]
                             + [repr(float(x)) for x in values]))
    return rows


def test_sampled_isoperimetry_rows_match_per_mask_reports(monkeypatch):
    # above 16 points the report samples masks; blocks of 7 leave a ragged last block
    monkeypatch.setattr(func, "SWEEP_BLOCK", 7)
    shapes, seed, samples = ((8, 2), (3, 3), (16, 2)), 7, 40
    expected = []
    for n, d in shapes:
        rng = derive_rng(seed, f"iso:{n}:{d}")
        shape = GridShape(n, d)
        masks = [rng.randrange(1 << shape.size) for _ in range(samples)]
        expected += reference_isoperimetry_rows(shape, masks)
    assert len(expected) > 100
    assert reports.isoperimetry_rows(shapes, seed, samples) == expected
