"""Poset machinery: cover graphs, decomposition, routing, pairs, walks."""

import itertools
from itertools import permutations

import numpy as np
import pytest

from gridmono import structure, verify
from gridmono.errors import IntegrityError, NotGoodError
from gridmono.func import BoolFunc, generate
from gridmono.grid import (
    LOWER,
    UPPER,
    GridShape,
    MatchingId,
    classify_in_matching,
    directed_distance,
    matching_ids,
    points,
    side_in_matching,
)
from gridmono.oracle import optimal_matching
from gridmono.structure import (
    H_VIOLATION,
    STRAIGHT_UNMATCHED,
    AltSequence,
    ConsistentPair,
    ExplicitPoset,
    GridPoset,
    alternating_sequence,
    alternating_summary,
    alternating_walks,
    build_cover_graph,
    classify_pairs,
    conflict_free_decompose,
    conflicts,
    consistent_pair,
    cover_is_layered,
    covers_disjoint,
    degree_monotonicity_check,
    layer_size_dichotomy,
    pair_crosses,
    route_disjoint_paths,
)


def make_counterexample_dag():
    """Two length-3 pairs whose shortest paths meet at different levels.

    Vertices: s1=0, s2=1, z=2, a=3, b=4, t1=5, t2=6 with paths
    s1 -> z -> a -> t1 and s2 -> b -> z -> t2.
    """
    return ExplicitPoset(7, [(0, 2), (2, 3), (3, 5), (1, 4), (4, 2), (2, 6)])


# ----------------------------------------------------------------------
# posets and fixtures

def test_explicit_poset_distances():
    p = make_counterexample_dag()
    assert p.dist(0, 5) == 3 and p.dist(1, 6) == 3
    assert p.dist(0, 6) == 2 and p.dist(1, 5) == 4
    assert p.dist(0, 0) == 0
    assert p.dist(5, 0) is None


def test_explicit_poset_rejects_cycles():
    with pytest.raises(ValueError):
        ExplicitPoset(3, [(0, 1), (1, 2), (2, 0)])


def test_grid_poset_between():
    gp = GridPoset(GridShape(4, 2))
    box = set(gp.between((0, 1), (2, 2)))
    assert box == {(x, y) for x in range(3) for y in (1, 2)}
    assert list(gp.between((2, 2), (0, 1))) == []


def test_grid_poset_functions_check_their_points():
    # off the 4x2 grid, at distance 1 and at distance 2 from its partner, or
    # with a coordinate too many
    gp = GridPoset(GridShape(4, 2))
    for s, t in [((0, 3), (1, 4)), ((0, 4), (1, 4)), ((0, 1), (1, 1, 0))]:
        with pytest.raises(ValueError, match="out of range|coordinates"):
            consistent_pair(gp, [(s, t)])
        with pytest.raises(ValueError, match="out of range|coordinates"):
            conflict_free_decompose(gp, [(s, t)], 1)
        for ell in (1, 2):
            with pytest.raises(ValueError, match="out of range|coordinates"):
                build_cover_graph(gp, [s], [t], ell)
            with pytest.raises(ValueError, match="out of range|coordinates"):
                conflicts(gp, [((0, 0), (1, 0))], [(s, t)], ell)


# ----------------------------------------------------------------------
# level sets and cover graphs

def test_level_sets_examples():
    # matched arcs only, at ell = 1
    gp = GridPoset(GridShape(4, 1))
    levels = build_cover_graph(gp, [(0,)], [(1,)], 1).level_sets
    assert levels == ({(0,)}, {(1,)})
    # distance-2 singleton on the line: both middles appear
    levels = build_cover_graph(gp, [(0,)], [(3,)], 2).level_sets
    assert levels == ({(0,)}, {(1,), (2,)}, {(3,)})


def test_counterexample_pair_is_not_good():
    p = make_counterexample_dag()
    S, T = [0, 1], [5, 6]
    cover = build_cover_graph(p, S, T, 3)
    assert not cover_is_layered(cover)
    assert cover.levels[2] == (1, 2)  # z sits on two levels
    # the short s1 -> z -> t2 path is present even though its ends are 2 apart
    assert (0, 2) in cover.arcs and (2, 6) in cover.arcs


def test_singleton_pairs_are_good():
    p = make_counterexample_dag()
    assert cover_is_layered(build_cover_graph(p, [0], [5], 3))
    assert cover_is_layered(build_cover_graph(p, [1], [6], 3))
    gp = GridPoset(GridShape(8, 1))
    assert cover_is_layered(build_cover_graph(gp, [(0,)], [(7,)], 3))


def test_hypercube_level_pair_is_good():
    gp = GridPoset(GridShape(2, 3))
    S = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    T = [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
    assert cover_is_layered(build_cover_graph(gp, S, T, 1))
    S2 = [(1, 0, 0), (0, 1, 0)]
    T2 = [(1, 1, 1), (1, 1, 0)]
    # distances differ (3 vs 1): not consistent, so the pair factory refuses
    with pytest.raises(ValueError):
        consistent_pair(gp, list(zip(S2, T2)))


def test_build_cover_graph_rejects_bad_ell():
    gp = GridPoset(GridShape(4, 1))
    with pytest.raises(ValueError):
        build_cover_graph(gp, [(0,)], [(0,)], 0)


def test_ell_one_cover_is_matched_arcs():
    gp = GridPoset(GridShape(4, 2))
    pairs = [((0, 0), (1, 0)), ((2, 2), (2, 3))]
    cp = consistent_pair(gp, pairs, 1)
    cover = build_cover_graph(gp, cp.S, cp.T, 1)
    assert cover.arcs == frozenset(pairs)
    assert cover_is_layered(cover)


def test_ell_one_cover_includes_cross_arcs():
    # the cover graph unions paths over every (s, t) combination at distance
    # ell, so unmatched length-1 arcs between S and T belong to it too
    gp = GridPoset(GridShape(4, 2))
    pairs = [((0, 0), (1, 0)), ((0, 1), (0, 2))]
    cp = consistent_pair(gp, pairs, 1)
    cover = build_cover_graph(gp, cp.S, cp.T, 1)
    assert ((0, 0), (0, 2)) in cover.arcs
    assert cover_is_layered(cover)


# ----------------------------------------------------------------------
# conflicts and decomposition

def test_conflicts_shared_midpoint_same_level():
    # 0 -> 2 -> 4 and 1 -> 2 -> 5: both reach z=2 at level 1
    p = ExplicitPoset(6, [(0, 2), (1, 2), (2, 4), (2, 5)])
    assert conflicts(p, [(0, 4)], [(1, 5)], 2)


def test_conflicts_disjoint_sublattices():
    gp = GridPoset(GridShape(4, 2))
    assert not conflicts(gp, [((0, 0), (1, 1))], [((2, 2), (3, 3))], 2)


def test_conflicts_different_levels_do_not_conflict():
    p = make_counterexample_dag()
    assert not conflicts(p, [(0, 5)], [(1, 6)], 3)


def test_conflicts_requires_disjoint_sets():
    gp = GridPoset(GridShape(4, 1))
    with pytest.raises(ValueError):
        conflicts(gp, [((0,), (2,))], [((0,), (1,))], 1)


def test_decompose_conflict_free_input_stays_singleton():
    gp = GridPoset(GridShape(4, 1))
    pairs = [((0,), (2,)), ((1,), (3,))]
    parts = conflict_free_decompose(gp, pairs, 1)
    assert sorted(len(cp.phi) for cp, _ in parts) == [1, 1]


def test_decompose_merges_conflicting_singletons():
    p = ExplicitPoset(6, [(0, 2), (1, 2), (2, 4), (2, 5)])
    parts = conflict_free_decompose(p, [(0, 4), (1, 5)], 2)
    assert len(parts) == 1 and len(parts[0][0].phi) == 2
    assert set(parts[0][0].S) == {0, 1} and set(parts[0][0].T) == {4, 5}


def test_decompose_builds_each_group_cover_once(monkeypatch):
    # 0 -> 2 -> 4 and 1 -> 2 -> 5 meet at 2 on level 1; 6 -> 7 -> 8 meets neither
    p = ExplicitPoset(9, [(0, 2), (1, 2), (2, 4), (2, 5), (6, 7), (7, 8)])
    built = []
    real = structure.build_cover_graph
    monkeypatch.setattr(structure, "build_cover_graph",
                        lambda poset, S, T, ell: built.append((S, T)) or real(poset, S, T, ell))
    parts = conflict_free_decompose(p, [(0, 4), (1, 5), (6, 8)], 2)
    assert [cp.phi for cp, _ in parts] == [((0, 4), (1, 5)), ((6, 8),)]
    assert all(cover == real(p, cp.S, cp.T, 2) for cp, cover in parts)
    # the three singletons, then the merged group; the unchanged group keeps its cover
    assert built == [([0], [4]), ([1], [5]), ([6], [8]), ([0, 1], [4, 5])]


def test_decompose_partitions_endpoints(rng):
    gp = GridPoset(GridShape(4, 2))
    for _ in range(40):
        f = BoolFunc.from_mask(GridShape(4, 2), rng.randrange(1 << 16))
        rep = optimal_matching(f)
        if rep.empty:
            continue
        by_dist = {}
        for x, y in rep.pairs:
            by_dist.setdefault(directed_distance(GridShape(4, 2), x, y), []).append((x, y))
        for ell, pairs in by_dist.items():
            parts = conflict_free_decompose(gp, pairs, ell)
            assert sorted(s for cp, _ in parts for s in cp.S) == sorted(x for x, _ in pairs)
            assert sorted(t for cp, _ in parts for t in cp.T) == sorted(y for _, y in pairs)
            for a in range(len(parts)):
                for b in range(a + 1, len(parts)):
                    assert covers_disjoint(parts[a][1], parts[b][1])


def test_are_independent_examples():
    # independent pairs: their cover graphs share no vertex
    gp = GridPoset(GridShape(4, 2))
    (_, c1), (_, c2) = conflict_free_decompose(gp, [((0, 0), (1, 1)), ((2, 2), (3, 3))], 2)
    assert covers_disjoint(c1, c2)
    assert not covers_disjoint(c1, c1)


def test_decompose_rejects_pairs_sharing_an_endpoint():
    gp = GridPoset(GridShape(4, 1))
    for pairs in ([((0,), (1,)), ((0,), (2,))],    # a shared source
                  [((0,), (2,)), ((1,), (2,))],    # a shared target
                  [((0,), (1,)), ((1,), (2,))],    # one pair's target is another's source
                  [((0,), (1,)), ((0,), (1,))]):   # the same pair twice
        with pytest.raises(ValueError):
            conflict_free_decompose(gp, pairs, 1)


# ----------------------------------------------------------------------
# routing

def test_route_singleton():
    gp = GridPoset(GridShape(8, 1))
    cp = consistent_pair(gp, [((0,), (7,))], 3)
    paths = route_disjoint_paths(build_cover_graph(gp, cp.S, cp.T, 3), cp)
    assert len(paths) == 1
    path = paths[0]
    assert path[0] == (0,) and path[-1] == (7,) and len(path) == 4
    for u, v in zip(path, path[1:]):
        assert directed_distance(GridShape(8, 1), u, v) == 1


def test_route_hypercube_matching():
    gp = GridPoset(GridShape(2, 3))
    cp = consistent_pair(gp, [((1, 0, 0), (1, 1, 0)), ((0, 1, 0), (0, 1, 1)),
                              ((0, 0, 1), (1, 0, 1))], 1)
    paths = route_disjoint_paths(build_cover_graph(gp, cp.S, cp.T, 1), cp)
    assert len(paths) == 3
    seen = set()
    for path in paths:
        assert not seen.intersection(path)
        seen.update(path)


def test_route_rejects_non_good_pair():
    p = make_counterexample_dag()
    cp = ConsistentPair((0, 1), (5, 6), 3, ((0, 5), (1, 6)))
    with pytest.raises(NotGoodError):
        route_disjoint_paths(build_cover_graph(p, cp.S, cp.T, 3), cp)


def test_degree_monotonicity_and_dichotomy():
    gp = GridPoset(GridShape(4, 1))
    shape = GridShape(4, 1)
    for mask in range(1 << 4):
        f = BoolFunc.from_mask(shape, mask)
        rep = optimal_matching(f)
        if rep.empty:
            continue
        by_dist = {}
        for x, y in rep.pairs:
            by_dist.setdefault(directed_distance(shape, x, y), []).append((x, y))
        for ell, pairs in by_dist.items():
            for cp, cover in conflict_free_decompose(gp, pairs, ell):
                assert cover_is_layered(cover)
                assert degree_monotonicity_check(cover)
                assert layer_size_dichotomy(cover, len(cp.S))


def test_degree_monotonicity_single_path():
    gp = GridPoset(GridShape(8, 1))
    cover = build_cover_graph(gp, [(0,)], [(1,)], 1)
    assert degree_monotonicity_check(cover)


# ----------------------------------------------------------------------
# pair classification against the path-enumeration oracle

def enumerate_shortest_paths(shape, x, y):
    """Oracle: all shortest monotone paths as interleavings of binary steps."""
    steps = []
    for i in range(shape.d):
        gap = y[i] - x[i]
        steps.extend((i, 1 << b) for b in range(gap.bit_length()) if gap >> b & 1)
    paths = set()
    for order in permutations(range(len(steps))):
        path = [x]
        for k in order:
            i, s = steps[k]
            cur = list(path[-1])
            cur[i] += s
            path.append(tuple(cur))
        paths.add(tuple(path))
    return paths


def crosses_by_paths(shape, x, y, mid):
    """Literal reading: some shortest path uses an edge of the matching and
    x is a matched lower endpoint of it."""
    role, _ = classify_in_matching(shape, x, mid)
    if role != LOWER:
        return False
    for path in enumerate_shortest_paths(shape, x, y):
        for u, v in zip(path, path[1:]):
            if classify_in_matching(shape, u, mid) == (LOWER, v):
                return True
    return False


def test_pair_crosses_examples():
    shape = GridShape(4, 1)
    assert pair_crosses(shape, (0,), (2,), MatchingId(0, 1, 0))
    assert not pair_crosses(shape, (0,), (2,), MatchingId(0, 0, 0))
    f = BoolFunc.from_mask(shape, 0)
    classes = classify_pairs([((0,), (2,))], MatchingId(0, 0, 0), f)
    assert classes.straight == (((0,), (2,)),)


def test_pair_classification_against_path_oracle(rng):
    for shape in (GridShape(8, 1), GridShape(4, 2), GridShape(8, 2)):
        pts = list(points(shape))
        f = BoolFunc.from_mask(shape, 0)
        for _ in range(250):
            x = pts[rng.randrange(len(pts))]
            y = pts[rng.randrange(len(pts))]
            if x == y or not all(a <= b for a, b in zip(x, y)):
                continue
            for mid in matching_ids(shape):
                assert pair_crosses(shape, x, y, mid) == crosses_by_paths(shape, x, y, mid), \
                    (shape, x, y, mid)


def test_classify_pairs_partition(rng):
    shape = GridShape(8, 2)
    f = generate("uniform_random", shape, seed=3)
    rep = optimal_matching(f)
    for mid in matching_ids(shape):
        classes = classify_pairs(rep.pairs, mid, f)
        buckets = [*classes.cross, *classes.straight, *classes.skew]
        assert sorted(buckets) == sorted(rep.pairs)


def test_crossing_count_equals_distance():
    shape = GridShape(4, 2)
    f = generate("uniform_random", shape, seed=8)
    rep = optimal_matching(f)
    total = 0
    for mid in matching_ids(shape):
        total += len(classify_pairs(rep.pairs, mid, f).cross)
    assert total == sum(directed_distance(shape, x, y) for x, y in rep.pairs)


# ----------------------------------------------------------------------
# alternating sequences

def test_alternating_sequence_immediate_violation():
    shape = GridShape(4, 1)
    f = BoolFunc.from_mask(shape, 0b0011)  # (1,1,0,0)
    pairs = [((0,), (2,)), ((1,), (3,))]
    mid = MatchingId(0, 1, 0)
    classes = classify_pairs(pairs, mid, f)
    assert set(classes.cross) == set(pairs)
    for x, _ in pairs:
        seq = alternating_sequence(x, mid, pairs, f)
        assert seq.terminal == H_VIOLATION
        assert len(seq.points) == 2
    _, sequences, violations = alternating_summary(pairs, mid, f)
    assert len(violations) == 2
    assert len(violations) >= len(classes.cross) / 2


def test_alternating_sequence_straight_unmatched():
    shape = GridShape(8, 1)
    # f(0)=1, f(1)=1, f(3)=0; the non-optimal pair (0,3) crosses the unit matching
    table = [0] * 8
    table[0] = table[1] = 1
    f = BoolFunc.from_table(shape, table)
    pairs = [((0,), (3,))]
    mid = MatchingId(0, 0, 0)
    assert classify_pairs(pairs, mid, f).cross == (((0,), (3,)),)
    seq = alternating_sequence((0,), mid, pairs, f)
    assert seq.terminal == STRAIGHT_UNMATCHED
    assert seq.points == ((0,), (1,))


def test_alternating_sequence_longer_walk():
    shape = GridShape(4, 1)
    f = BoolFunc.from_mask(shape, 0b0011)
    pairs = [((0,), (2,)), ((1,), (3,))]
    mid = MatchingId(0, 0, 1)  # odd unit matching: edges (1,2) only
    classes = classify_pairs(pairs, mid, f)
    # (1,3): 1 sits on the lower side of the odd matching and bit 1 of the
    # gap is set? gap=2, bit0 unset, so no cross; (0,2) likewise
    assert classes.cross == ()


def test_alternating_summary_on_optimal_matchings(rng):
    shape = GridShape(4, 2)
    for _ in range(60):
        f = BoolFunc.from_mask(shape, rng.randrange(1 << 16))
        rep = optimal_matching(f)
        if rep.empty:
            continue
        for mid in matching_ids(shape):
            classes, sequences, violations = alternating_summary(rep.pairs, mid, f)
            for seq in sequences:
                assert seq.terminal in (H_VIOLATION, STRAIGHT_UNMATCHED)
            assert len(violations) >= -(-len(classes.cross) // 2)


def test_full_pipeline_on_larger_grid(rng):
    # end to end at (8,2): decompose, verify, route, walk, count
    import math

    shape = GridShape(8, 2)
    poset = GridPoset(shape)
    from gridmono.oracle import gamma_minus

    done = 0
    for _ in range(25):
        f = BoolFunc.from_table(shape, [rng.getrandbits(1) for _ in range(shape.size)])
        rep = optimal_matching(f)
        if rep.empty:
            continue
        gamma_count = len(gamma_minus(f).witness)
        by_dist = {}
        for x, y in rep.pairs:
            by_dist.setdefault(directed_distance(shape, x, y), []).append((x, y))
        for ell, pairs in by_dist.items():
            parts = conflict_free_decompose(poset, pairs, ell)
            assert all(cover_is_layered(cover) for _, cover in parts)
            seen = set()
            total = 0
            for cp, cover in parts:
                for path in route_disjoint_paths(cover, cp):
                    assert not seen.intersection(path)
                    seen.update(path)
                    assert any(f.eval(u) == 1 and f.eval(v) == 0
                               for u, v in zip(path, path[1:]))
                    total += 1
            assert total == len(pairs) <= gamma_count
        cross_total = 0
        for mid in matching_ids(shape):
            classes, _, violations = alternating_summary(rep.pairs, mid, f)
            cross_total += len(classes.cross)
            assert len(violations) >= math.ceil(len(classes.cross) / 2)
        assert cross_total == sum(directed_distance(shape, x, y) for x, y in rep.pairs)
        done += 1
    assert done > 10


def test_alternating_sequence_validates_start():
    shape = GridShape(4, 1)
    f = BoolFunc.from_mask(shape, 0b0011)
    with pytest.raises(IntegrityError):
        alternating_sequence((2,), MatchingId(0, 1, 0), [((2,), (3,))], f)


# ----------------------------------------------------------------------
# the scalar walk, the reference for the array form

def scalar_classes(pairs, m, shape):
    """classify_pairs pair by pair, from the coordinates and side_in_matching."""
    cross, straight, skew = [], [], []
    for x, y in pairs:
        gap = y[m.dim] - x[m.dim]
        if gap >= 0 and gap >> m.exp & 1 and side_in_matching(shape, x, m) == LOWER:
            cross.append((x, y))
        elif side_in_matching(shape, x, m) == side_in_matching(shape, y, m):
            straight.append((x, y))
        else:
            skew.append((x, y))
    return structure.PairClasses(tuple(cross), tuple(straight), tuple(skew))


def scalar_walk(x, m, pairs, f):
    """alternating_sequence one point at a time through classify_in_matching and f.eval."""
    shape = f.shape
    partner_of = {}
    for a, b in pairs:
        partner_of[a], partner_of[b] = b, a
    if f.eval(x) != 1:
        raise IntegrityError(f"walk must start at a 1-point, got f({x}) = 0")
    seq, j, current = [x], 0, x
    while True:
        if j % 2 == 0:
            role, partner = classify_in_matching(shape, current, m)
            expected_role = LOWER if j % 4 == 0 else UPPER
            if role != expected_role:
                raise IntegrityError(f"step {j}: expected {expected_role} endpoint, found {role}")
            lo, hi = (current, partner) if role == LOWER else (partner, current)
            if f.eval(lo) == 1 and f.eval(hi) == 0:
                if partner in seq:
                    raise IntegrityError("walk revisited a point")
                return AltSequence(tuple(seq + [partner]), H_VIOLATION, (lo, hi))
            nxt = partner
        else:
            nxt = partner_of.get(current)
            if nxt is None:
                return AltSequence(tuple(seq), STRAIGHT_UNMATCHED, None)
            role = classify_in_matching(shape, current, m)[0]
            if role not in (LOWER, UPPER) or role != classify_in_matching(shape, nxt, m)[0]:
                return AltSequence(tuple(seq), STRAIGHT_UNMATCHED, None)
        if f.eval(nxt) != (1 if (j + 1) % 4 in (0, 1) else 0):
            raise IntegrityError(f"step {j + 1}: value pattern broken at {nxt}")
        if nxt in seq:
            raise IntegrityError("walk revisited a point")
        seq.append(nxt)
        current = nxt
        j += 1


@pytest.mark.parametrize("seed", [verify.DEFAULT_MASTER_SEED, 1])
def test_alternating_walks_match_the_scalar_walk(seed):
    # every (instance, matching) of criterion 5, one batch per shape as it runs them
    walked = 0
    for shape, group in itertools.groupby(verify.decomposition_instances(seed),
                                          key=lambda inst: inst[0]):
        group = list(group)
        mids = list(matching_ids(shape))
        batch = alternating_walks(shape, np.stack([f.bits for _, _, f, _ in group]),
                                  [mstar.pairs for *_, mstar in group], mids)
        assert (batch.first_failure == -1).all()
        first_pair = np.cumsum([0] + [len(mstar.pairs) for *_, mstar in group])
        w = 0
        for a, (_, _, f, mstar) in enumerate(group):
            rows = batch.classes[first_pair[a]:first_pair[a] + len(mstar.pairs)]
            for k, mid in enumerate(mids):
                classes = scalar_classes(mstar.pairs, mid, shape)
                assert structure._classes_of(mstar.pairs, rows[:, k]) == classes
                sequences = [scalar_walk(x, mid, mstar.pairs, f) for x, _ in classes.cross]
                for (x, y), expected in zip(classes.cross, sequences):
                    assert batch.matching[w] == k
                    assert mstar.pairs[batch.pair[w] - first_pair[a]] == (x, y)
                    assert batch.walks.sequence(shape, w) == expected
                    w += 1
                assert batch.cross[a, k] == len(classes.cross)
                assert batch.violations[a, k] == len(
                    {s.violation_edge for s in sequences if s.terminal == H_VIOLATION})
        assert w == len(batch.pair)
        walked += w
    assert walked > 4000


def test_alternating_views_match_the_scalar_walk_on_8x2():
    shape = GridShape(8, 2)
    f = generate("uniform_random", shape, seed=3)
    pairs = optimal_matching(f).pairs
    for mid in matching_ids(shape):
        classes, sequences, violations = alternating_summary(pairs, mid, f)
        assert classes == classify_pairs(pairs, mid, f) == scalar_classes(pairs, mid, shape)
        expected = [scalar_walk(x, mid, pairs, f) for x, _ in classes.cross]
        assert sequences == expected
        assert sequences == [alternating_sequence(x, mid, pairs, f) for x, _ in classes.cross]
        assert violations == {s.violation_edge for s in expected if s.terminal == H_VIOLATION}


@pytest.mark.parametrize("x, pairs, mask, message", [
    # a 0-point start
    ((2,), [((2,), (3,))], 0b0011, "walk must start at a 1-point, got f((2,)) = 0"),
    # (1,) is unmatched by the odd unit matching of 4^1, so step 0 finds no lower end
    ((0,), [((0,), (1,))], 0b0001, "step 0: expected lower endpoint, found unmatched"),
    # the straight step 1 -> 5 reaches a 1-point where the pattern wants a 0
    ((0,), [((0,), (3,)), ((1,), (5,))], 0b100011, "step 2: value pattern broken at (5,)"),
    # 0 -> 1 -> 3 -> 2 keeps the pattern, and the pair through 2 leads back to 0
    ((0,), [((0,), (2,)), ((1,), (3,))], 0b0011, "walk revisited a point"),
])
def test_alternating_sequence_failures_match_the_scalar_walk(x, pairs, mask, message):
    n = 8 if mask >> 4 else 4
    shape = GridShape(n, 1)
    f = BoolFunc.from_mask(shape, mask)
    mid = MatchingId(0, 0, 1) if message.startswith("step 0") else MatchingId(0, 0, 0)
    for walk in (scalar_walk, alternating_sequence):
        with pytest.raises(IntegrityError) as caught:
            walk(x, mid, pairs, f)
        assert str(caught.value) == message
