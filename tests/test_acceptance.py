"""Acceptance suite: one test per shipping criterion.

Each test runs the corresponding check from gridmono.verify at its full
stated volume and tolerance and prints one PASS/FAIL line (visible with
pytest -s or in captured output).  The CLI `verify` subcommand runs the
same checks.
"""

import dataclasses
import multiprocessing
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from gridmono import structure, verify
from gridmono.errors import CapacityError, IntegrityError
from gridmono.func import BoolFunc, generate
from gridmono.grid import GridShape
from gridmono.oracle import brute_force_distance, gamma_minus, isoperimetry_report, optimal_matching
from gridmono.streams import derive_rng
from gridmono.structure import GridPoset, build_cover_graph, conflict_free_decompose, conflicts

SEED = verify.DEFAULT_MASTER_SEED


def report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} criterion-{result.criterion} {result.name}: {result.detail}")
    assert result.passed, result.detail


def test_criterion_1_one_sided_error():
    report(verify.check_one_sided(SEED))


def test_criterion_1_names_the_first_monotone_mask_rejected(monkeypatch):
    # two non-monotone 4^2 masks planted among the monotone ones: the
    # criterion names the first, however the block's rows are summed
    shape = GridShape(4, 2)
    planted = [sum(1 << k for k in np.flatnonzero(generate(kind, shape).bits).tolist())
               for kind in ("anti_slab", "block_parity")]
    real = verify.monotone_masks

    def with_planted(shape):
        masks = real(shape)
        return masks if shape.d == 1 else masks[:30] + (planted[0],) + masks[30:] + (planted[1],)

    monkeypatch.setattr(verify, "monotone_masks", with_planted)
    result = verify.check_one_sided(SEED)
    assert not result.passed
    assert result.detail == f"monotone mask {planted[0]} on 4^2 has nonzero reject probability"


def test_criterion_2_distance_oracle_equivalence():
    report(verify.check_distance_equivalence())


@pytest.mark.parametrize("n, d", [(2, 2), (2, 3), (3, 2)])
def test_full_sweep_matches_per_mask_reports(n, d):
    shape = GridShape(n, d)
    sweep = verify.full_sweep(n, d)
    assert len(sweep) == 1 << shape.size
    minima = None
    for mask in range(1 << shape.size):
        f = BoolFunc.from_mask(shape, mask)
        inf = isoperimetry_report(f).influence
        assert (sweep.violated[mask], sweep.gamma[mask], sweep.matched[mask]) == (
            inf.violated_edges, inf.gamma_count, inf.matching_size)
        assert sweep.total[mask] == inf.r * inf.matching_size
        assert Fraction(int(sweep.brute[mask]), shape.size) == brute_force_distance(f)
        if inf.matching_size:
            # the ratios from their definitions in the normalised quantities
            ratios = (inf.I_minus * inf.gamma_minus / inf.eps ** 2,
                      inf.I_minus / (inf.r * inf.eps), inf.gamma_minus * inf.r / inf.eps)
            minima = ratios if minima is None else tuple(map(min, minima, ratios))
    assert verify.sweep_minima(n, d) == minima


def test_criterion_2_names_the_first_mismatch(monkeypatch):
    shape = GridShape(2, 3)
    real = verify.brute_force_batch

    def off_by_one(grid, tables):
        counts = real(grid, tables).astype(np.int64)
        if grid == shape:
            counts[37] += 1
        return counts

    monkeypatch.setattr(verify, "brute_force_batch", off_by_one)
    monkeypatch.setattr(verify, "_SWEEPS", {})
    eps = brute_force_distance(BoolFunc.from_mask(shape, 37))
    result = verify.check_distance_equivalence()
    assert not result.passed
    assert result.detail == f"mask 37 on 2^3: matching {eps} != brute {eps + Fraction(1, 8)}"


def test_criterion_3_names_a_nonpositive_ratio(monkeypatch):
    real = verify.isoperimetry_sweep

    def no_violated_edge_at_mask_2(grid, tables):
        sweep = real(grid, tables)
        if grid == GridShape(2, 2):
            sweep.violated[2] = 0   # mask 2 is eps-far, so its margulis ratio becomes 0
        return sweep

    monkeypatch.setattr(verify, "isoperimetry_sweep", no_violated_edge_at_mask_2)
    monkeypatch.setattr(verify, "_SWEEPS", {})
    result = verify.check_isoperimetry_regression()
    assert not result.passed
    assert result.detail == "nonpositive ratio at mask 2 on 2^2"


def test_criterion_3_isoperimetry_regression():
    report(verify.check_isoperimetry_regression())


def test_criterion_4_decomposition_routing():
    report(verify.check_decomposition_routing(SEED))


def test_decomposition_covers_match_a_fresh_build():
    instances = verify.decomposition_instances(SEED)
    sampled = [inst for inst in instances if inst[0] == GridShape(4, 2)][:200]
    classes = 0
    for shape, _, _, mstar in [inst for inst in instances if inst[0] != GridShape(4, 2)] + sampled:
        poset = GridPoset(shape)
        for ell, pairs in verify._pairs_by_distance(shape, mstar.pairs):
            parts = conflict_free_decompose(poset, pairs, ell)
            for cp, cover in parts:
                assert cover == build_cover_graph(poset, cp.S, cp.T, ell)
            for a in range(len(parts)):
                for b in range(a + 1, len(parts)):
                    assert not conflicts(poset, parts[a][0].phi, parts[b][0].phi, ell)
            classes += 1
    assert classes > 200


def test_criterion_4_builds_covers_only_for_new_or_merged_groups(monkeypatch):
    # a group's cover is built once in a decomposition and, through the
    # shape's GridPoset, once in the whole run; every part carries that cover
    real_build, real_decompose = structure.build_cover_graph, structure.conflict_free_decompose
    state = {"inside": False, "built": set(), "covers": {}, "decompositions": 0}

    def build(poset, S, T, ell):
        assert state["inside"], "a cover was built outside the decomposition"
        key = (frozenset(S), frozenset(T))
        assert key not in state["built"], "a group's cover was built twice"
        state["built"].add(key)
        run_key = (poset.shape, tuple(S), tuple(T), ell)
        assert run_key not in state["covers"], "a group's cover was built twice in one run"
        cover = state["covers"][run_key] = real_build(poset, S, T, ell)
        return cover

    def decompose(poset, pairs, ell):
        state.update(inside=True, built=set())
        parts = real_decompose(poset, pairs, ell)
        state["inside"] = False
        assert all(cover is state["covers"][poset.shape, cp.S, cp.T, ell] for cp, cover in parts)
        state["decompositions"] += 1
        return parts

    monkeypatch.setattr(structure, "build_cover_graph", build)
    monkeypatch.setattr(structure, "conflict_free_decompose", decompose)
    report(verify.check_decomposition_routing(SEED))
    assert state["decompositions"] > 1000


def test_criterion_4_memo_serves_fresh_unmutated_covers_and_paths(monkeypatch):
    # every cover graph and consistent pair the shapes' posets kept, and
    # every routing, still equals a fresh build after the whole criterion ran
    posets, routed = [], []
    real_route = structure.route_disjoint_paths

    class Recording(GridPoset):
        def __init__(self, shape):
            super().__init__(shape)
            posets.append(self)

    def route(cover, cp):
        # the instances come grouped by shape, so the newest poset is this pair's
        paths = real_route(cover, cp)
        routed.append((posets[-1].shape, cover, cp, paths, [tuple(p) for p in paths]))
        return paths

    monkeypatch.setattr(structure, "GridPoset", Recording)
    monkeypatch.setattr(structure, "route_disjoint_paths", route)
    report(verify.check_decomposition_routing(SEED))
    assert len(posets) == 4
    kept = 0
    for poset in posets:
        fresh = GridPoset(poset.shape)   # the real class: no memo shared with the run's
        for (build, pairs, ell), built in poset._built.items():
            S, T = [s for s, _ in pairs], [t for _, t in pairs]
            if build is structure.Poset._cover_graph:
                assert built == build_cover_graph(fresh, S, T, ell)
            else:
                assert built == structure.consistent_pair(fresh, pairs, ell)
            kept += 1
    assert kept >= 100
    # each (shape, consistent pair) is routed once in the run
    assert len({(shape, cp) for shape, _, cp, _, _ in routed}) == len(routed)
    for shape, cover, cp, paths, copied in routed:
        fresh = GridPoset(shape)
        assert cover == build_cover_graph(fresh, cp.S, cp.T, cp.ell)
        assert paths == copied == real_route(cover, cp)


def test_criterion_4_gamma_counts_match_gamma_minus():
    instances = verify.decomposition_instances(SEED)
    assert verify._gamma_counts(instances) == [len(gamma_minus(f).witness)
                                                for _, _, f, _ in instances]


def test_criterion_4_names_the_mask_below_its_gamma_count(monkeypatch):
    instances = verify.decomposition_instances(SEED)
    k = 600
    shape, mask, _, mstar = instances[k]
    real = verify._gamma_counts

    def one_count_zero(insts):
        counts = real(insts)
        counts[k] = 0
        return counts

    monkeypatch.setattr(verify, "_gamma_counts", one_count_zero)
    result = verify.check_decomposition_routing(SEED)
    assert not result.passed
    _, pairs = verify._pairs_by_distance(shape, mstar.pairs)[0]
    assert result.detail == (f"mask {mask}: {len(pairs)} paths vs |M*_i|={len(pairs)}, "
                             f"gamma count 0")


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


def instances_with(monkeypatch, k, instance):
    """decomposition_instances with its k-th instance replaced; returns the new list."""
    instances = list(verify.decomposition_instances(SEED))
    instances[k] = instance
    monkeypatch.setattr(verify, "decomposition_instances", lambda master_seed: instances)
    return instances


def test_criterion_5_names_the_first_matching_short_of_violations(monkeypatch):
    # on 8^1 the non-optimal pair (0, 3) crosses the unit matching, and its
    # walk 0 -> 1 ends unmatched at the 1-point 1: no violation for one cross
    # pair.  Instance 40 is a sampled 4^2 function, so the shapes run 4^2, 8^1, 4^2
    shape = GridShape(8, 1)
    mstar = dataclasses.replace(optimal_matching(BoolFunc.from_mask(shape, 0b11)),
                                pairs=(((0,), (3,)),))
    instances_with(monkeypatch, 40, (shape, 0b11, BoolFunc.from_mask(shape, 0b11), mstar))
    result = verify.check_alternating_counts(SEED)
    assert not result.passed
    assert result.detail == ("mask 3 on 8^1, matching MatchingId(dim=0, exp=0, parity=0): "
                             "0 violations < 1")


def test_criterion_5_names_a_broken_value_pattern(monkeypatch):
    # the straight step 1 -> 5 of the walk from 0 reaches a 1-point; a later
    # instance with too few violations must not be named first
    shape = GridShape(8, 1)
    mstar = dataclasses.replace(optimal_matching(BoolFunc.from_mask(shape, 0b11)),
                                pairs=(((0,), (3,)), ((1,), (5,))))
    instances = instances_with(monkeypatch, 40, (shape, 35, BoolFunc.from_mask(shape, 35), mstar))
    short = dataclasses.replace(mstar, pairs=(((0,), (3,)),))
    instances.insert(41, (shape, 0b11, BoolFunc.from_mask(shape, 0b11), short))
    result = verify.check_alternating_counts(SEED)
    assert not result.passed
    assert result.detail == "walk integrity failure: step 2: value pattern broken at (5,)"


def test_criterion_4_names_a_path_avoiding_every_violated_edge(monkeypatch):
    # the function of an instance set to 0 everywhere: its M* still routes,
    # and no routed path steps from a 1 to a 0
    shape, mask, _, mstar = verify.decomposition_instances(SEED)[300]
    instances_with(monkeypatch, 300, (shape, mask, BoolFunc.from_mask(shape, 0), mstar))
    result = verify.check_decomposition_routing(SEED)
    assert not result.passed
    assert result.detail == f"mask {mask}: a routed path avoids every violated edge"


def test_criterion_6_fourier_suite():
    report(verify.check_fourier_suite(SEED))


def test_criterion_7_reduction():
    report(verify.check_reduction(SEED))


def test_criterion_7_names_the_first_short_lift(monkeypatch):
    real = verify.cut_distance_batch

    def lifts_at_distance_zero(grid, tables):
        counts = real(grid, tables)
        return 0 * counts if grid.is_pow2() else counts   # the lifted grids, [N]^d

    monkeypatch.setattr(verify, "cut_distance_batch", lifts_at_distance_zero)
    result = verify.check_reduction(SEED)
    assert not result.passed
    assert result.detail == "mask 1 on 3^1: lifted distance 0 < 1/3/6"   # table (1, 0, 0)


def test_criterion_8_calibrated_detection():
    report(verify.check_calibrated_detection(SEED))


def test_criterion_9_determinism():
    report(verify.check_determinism(SEED))


# ----------------------------------------------------------------------
# run_all's cache groups on two workers, on stub checks

CHECK_NAMES = ("check_one_sided", "check_distance_equivalence", "check_isoperimetry_regression",
               "check_decomposition_routing", "check_alternating_counts", "check_fourier_suite",
               "check_reduction", "check_calibrated_detection", "check_determinism")

needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the worker sees the stubs only through fork")


def stub_checks(monkeypatch, raising=None):
    """Replace the nine checks by stubs that name the process they ran in;
    criterion k sleeps k ms, and the criteria in `raising` raise instead."""
    raising = raising or {}

    def stub(criterion):
        def check(*args):
            if criterion in raising:
                raise raising[criterion]
            assert args == (() if criterion in (2, 3) else (SEED,))
            time.sleep(criterion / 1000)
            return verify.CheckResult(criterion, f"stub-{criterion}", True, str(os.getpid()))
        return check

    for criterion, name in enumerate(CHECK_NAMES, 1):
        monkeypatch.setattr(verify, name, stub(criterion))


def test_run_all_groups_cover_each_criterion_once():
    # a partition of 1..9, in order, so flattening the groups' results keeps
    # criterion order
    assert [k for group in verify.CACHE_GROUPS for k in group] == list(range(1, 10))
    # criteria sharing a module cache run in one group
    for pair in ({2, 3}, {4, 5}):
        assert any(pair <= set(group) for group in verify.CACHE_GROUPS)


@needs_fork
def test_run_all_merges_the_groups_in_criterion_order(monkeypatch):
    stub_checks(monkeypatch)
    results = verify.run_all(SEED)
    assert [r.criterion for r in results] == list(range(1, 10))
    assert [r.name for r in results] == [f"stub-{k}" for k in range(1, 10)]
    assert all(r.seconds >= r.criterion / 1000 for r in results)
    pids = {r.criterion: int(r.detail) for r in results}
    for group in verify.CACHE_GROUPS:
        assert len({pids[k] for k in group}) == 1, group
    assert os.getpid() not in pids.values()   # the caller only waits
    assert len(set(pids.values())) <= 2
    assert multiprocessing.active_children() == []


@needs_fork
@pytest.mark.parametrize("error", [IntegrityError("pilot rate not separated from zero"),
                                   CapacityError("line sweep", 17, 16)])
@pytest.mark.parametrize("criterion", [1, 3, 9])   # the first, a shared group's last, the last
def test_run_all_raises_a_check_error_as_it_was(monkeypatch, error, criterion):
    stub_checks(monkeypatch, raising={criterion: error})
    with pytest.raises(type(error)) as caught:
        verify.run_all(SEED)
    assert type(caught.value) is type(error)
    assert str(caught.value) == str(error)
    assert multiprocessing.active_children() == []
