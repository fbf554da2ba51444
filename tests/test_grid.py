"""Grid, matching family, and distance tests, including the BFS oracle."""

import pickle
from collections import deque

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridmono.errors import CapacityError
from gridmono.grid import (
    EQUAL,
    GREATER,
    INCOMPARABLE,
    LESS,
    LOWER,
    UNMATCHED,
    UPPER,
    GridShape,
    MatchingId,
    aug_up_neighbors,
    classify_in_matching,
    compare,
    directed_distance,
    dominates,
    enumerate_augmented_edges,
    enumerate_matching,
    linear_index,
    matching_ids,
    num_augmented_edges,
    point_of,
    points,
    side_in_matching,
    steps,
    unit_steps,
)
from gridmono.grid import _edge_table, _matching_edges

SMALL_SHAPES = [GridShape(2, 1), GridShape(2, 3), GridShape(4, 1),
                GridShape(4, 2), GridShape(8, 1), GridShape(8, 2)]


def bfs_distance(shape, x, y):
    """Oracle: shortest path in the explicit directed augmented graph."""
    if x == y:
        return 0
    dist = {x: 0}
    q = deque([x])
    while q:
        u = q.popleft()
        for v in aug_up_neighbors(shape, u):
            if v not in dist:
                dist[v] = dist[u] + 1
                if v == y:
                    return dist[v]
                q.append(v)
    return None


def test_linear_index_examples():
    shape = GridShape(4, 2)
    assert linear_index(shape, (0, 0)) == 0
    assert linear_index(shape, (3, 3)) == 15
    assert linear_index(shape, (1, 2)) == 9


def test_linear_index_errors():
    shape = GridShape(4, 2)
    with pytest.raises(ValueError):
        linear_index(shape, (4, 0))
    with pytest.raises(ValueError):
        linear_index(shape, (0,))
    with pytest.raises(ValueError):
        point_of(shape, 16)
    with pytest.raises(ValueError):
        point_of(shape, -1)


@given(st.sampled_from(SMALL_SHAPES), st.data())
def test_round_trip(shape, data):
    idx = data.draw(st.integers(0, shape.size - 1))
    assert linear_index(shape, point_of(shape, idx)) == idx


def test_round_trip_exhaustive():
    for shape in SMALL_SHAPES + [GridShape(2, 12), GridShape(8, 4)]:
        for idx, p in enumerate(points(shape)):
            assert point_of(shape, idx) == p
            assert linear_index(shape, p) == idx


def test_shape_validation():
    with pytest.raises(ValueError):
        GridShape(0, 1)
    with pytest.raises(ValueError):
        GridShape(2, 0)
    assert GridShape(2, 80).size == 1 << 80
    with pytest.raises(ValueError):
        GridShape(6, 1).bits
    assert GridShape(8, 2).bits == 3


def test_grid_shape_size_is_computed_once():
    shape = GridShape(1 << 62, 4096)
    before = pickle.dumps(shape)
    assert shape.size is shape.size == (1 << 62) ** 4096
    # the cached size stays out of equality, hashing, repr and pickles
    fresh = GridShape(1 << 62, 4096)
    assert shape == fresh and hash(shape) == hash(fresh) and repr(shape) == repr(fresh)
    assert pickle.dumps(shape) == before
    assert pickle.loads(before) == shape


def test_classify_examples():
    line8 = GridShape(8, 1)
    assert classify_in_matching(line8, (0,), MatchingId(0, 0, 0)) == (LOWER, (1,))
    assert classify_in_matching(line8, (4,), MatchingId(0, 2, 1)) == (UNMATCHED, None)
    assert classify_in_matching(line8, (1,), MatchingId(0, 0, 1)) == (LOWER, (2,))


def test_classify_validation():
    shape = GridShape(8, 2)
    with pytest.raises(ValueError):
        classify_in_matching(shape, (0, 0), MatchingId(2, 0, 0))
    with pytest.raises(ValueError):
        classify_in_matching(shape, (0, 0), MatchingId(0, 3, 0))
    with pytest.raises(ValueError):
        MatchingId(0, 0, 2)


def test_grid_shape_index_range():
    # n^d has no bound of its own: each exact operation caps the size it needs
    for n, d in [(3, 39), (5, 26), (1, 71), (2, 62), (1, 1 << 16), (2, 80), (3, 40),
                 (2, 63), (2, 20000), (1 << 62, 1), (1 << 62, 1 << 16)]:
        assert GridShape(n, d).size == n ** d
    # both caps come before any power of n is computed
    for n, d in [(2, 10 ** 9), (1, (1 << 16) + 1), ((1 << 62) + 1, 10 ** 9)]:
        with pytest.raises(CapacityError, match="dimensions"):
            GridShape(n, d)
    for n, d in [((1 << 62) + 1, 1), (1 << 64, 1 << 16), (3 ** 4000, 2)]:
        with pytest.raises(CapacityError, match="points per axis"):
            GridShape(n, d)


def test_edge_table_capacity():
    # refused at the call, before a single edge of 2^40 points is enumerated
    shape = GridShape(2, 40)
    for build in (enumerate_augmented_edges, unit_steps, _edge_table):
        with pytest.raises(CapacityError, match="augmented edge table"):
            build(shape)
    # a matching builds only its own slice, so its cap is a dense table's 2^24 points
    lo, hi = _matching_edges(GridShape(2, 17), MatchingId(16, 0, 0))
    assert np.array_equal(lo, np.arange(1 << 16)) and np.array_equal(hi, lo + (1 << 16))
    for d, size in ((30, "1073741824"), (400, r"2\^400")):
        with pytest.raises(CapacityError, match=f"edge matching needs {size} points"):
            enumerate_matching(GridShape(2, d), MatchingId(0, 0, 0))


def reference_edges(shape):
    """(lo, hi, MatchingId) of every augmented edge from the scalar definitions:
    by lo, then dimension, then step, the owner's parity being bit exp of lo[dim]."""
    return [(linear_index(shape, x), linear_index(shape, x[:i] + (x[i] + s,) + x[i + 1:]),
             MatchingId(i, exp, x[i] >> exp & 1))
            for x in points(shape) for i in range(shape.d)
            for exp, s in enumerate(steps(shape)) if x[i] + s < shape.n]


def test_edge_table_columns():
    for shape in [GridShape(2, 3), GridShape(5, 3), GridShape(6, 2), GridShape(1, 4)]:
        columns = _edge_table(shape)
        assert [c.dtype for c in columns] == [np.intp, np.intp, np.uint8, np.uint8, np.uint8]
        assert all(len(c) == num_augmented_edges(shape) and not c.flags.writeable for c in columns)
        assert list(zip(*(c.tolist() for c in columns))) == [
            (lo, hi, m.dim, m.exp, m.parity) for lo, hi, m in reference_edges(shape)]


def test_enumerate_matching_examples():
    line8 = GridShape(8, 1)
    edges = {(e.lower, e.upper) for e in enumerate_matching(line8, MatchingId(0, 0, 0))}
    assert edges == {((0,), (1,)), ((2,), (3,)), ((4,), (5,)), ((6,), (7,))}
    assert enumerate_matching(line8, MatchingId(0, 2, 1)) == []
    line2 = GridShape(2, 1)
    assert [(e.lower, e.upper) for e in enumerate_matching(line2, MatchingId(0, 0, 0))] == \
        [((0,), (1,))]


def test_parity0_is_perfect():
    for shape in SMALL_SHAPES:
        for mid in matching_ids(shape):
            if mid.parity:
                continue
            touched = set()
            for e in enumerate_matching(shape, mid):
                touched.add(e.lower)
                touched.add(e.upper)
            assert len(touched) == shape.size
            for p in points(shape):
                role, partner = classify_in_matching(shape, p, mid)
                assert role in (LOWER, UPPER)
                assert partner is not None


def test_matchings_partition_augmented_edges():
    for shape in SMALL_SHAPES:
        all_edges = {(e.lower, e.upper) for e in enumerate_augmented_edges(shape)}
        from_matchings = []
        for mid in matching_ids(shape):
            from_matchings.extend((e.lower, e.upper) for e in enumerate_matching(shape, mid))
        assert len(from_matchings) == len(set(from_matchings)) == len(all_edges)
        assert set(from_matchings) == all_edges
        # each edge's lower endpoint classifies as Lower with that partner in
        # exactly one matching
        for lower, upper in all_edges:
            owners = [mid for mid in matching_ids(shape)
                      if classify_in_matching(shape, lower, mid) == (LOWER, upper)]
            assert len(owners) == 1


def test_matching_edges_vertex_disjoint():
    for shape in SMALL_SHAPES:
        for mid in matching_ids(shape):
            seen = set()
            for e in enumerate_matching(shape, mid):
                assert e.lower not in seen and e.upper not in seen
                seen.add(e.lower)
                seen.add(e.upper)


def test_edge_counts():
    assert num_augmented_edges(GridShape(8, 1)) == 17
    assert num_augmented_edges(GridShape(2, 3)) == 12
    assert num_augmented_edges(GridShape(4, 2)) == 40
    for shape in SMALL_SHAPES + [GridShape(3, 2), GridShape(5, 1)]:
        assert sum(1 for _ in enumerate_augmented_edges(shape)) == num_augmented_edges(shape)


def test_edge_enumeration_in_lo_order():
    # the rows of _edge_table, as points, in its order, tags included
    for n, d in [(2, 1), (4, 1), (8, 1), (4, 2), (2, 3), (4, 3), (8, 2), (16, 2),
                 (3, 2), (5, 3), (6, 2)]:
        shape = GridShape(n, d)
        assert [(e.lower, e.upper, e.id) for e in enumerate_augmented_edges(shape)] == [
            (point_of(shape, lo), point_of(shape, hi), m) for lo, hi, m in reference_edges(shape)]


def test_edge_tags_follow_the_point_rule():
    # the owning matching's parity is 1 iff lo[dim] % (2s) >= s, for any n
    for shape in [GridShape(3, 2), GridShape(5, 3), GridShape(6, 2)]:
        edges = list(enumerate_augmented_edges(shape))
        assert len(edges) == num_augmented_edges(shape)
        for e in edges:
            s = e.id.step
            assert e.id.parity == (e.lower[e.id.dim] % (2 * s) >= s)
            assert e.upper[e.id.dim] - e.lower[e.id.dim] == s


def test_unit_steps_are_the_unit_edges(rng):
    for shape in SMALL_SHAPES + [GridShape(3, 2), GridShape(5, 3)]:
        pairs = list(unit_steps(shape))
        expected = {(linear_index(shape, x), linear_index(shape, x[:k] + (x[k] + 1,) + x[k + 1:]))
                    for x in points(shape) for k in range(shape.d) if x[k] + 1 < shape.n}
        assert len(pairs) == len(expected) and set(pairs) == expected
        assert pairs == sorted(pairs, key=lambda pair: pair[0])   # by lo, as the edge table
        # the order lets one pass of table[lo] -> table[hi] close a table upward
        pts = list(points(shape))
        seeds = [rng.random() < 0.2 for _ in pts]
        table = list(seeds)
        for lo, hi in pairs:
            if table[lo]:
                table[hi] = True
        assert table == [any(seeds[i] for i, x in enumerate(pts) if dominates(y, x)) for y in pts]


def test_aug_edge_invariant():
    shape = GridShape(8, 2)
    for e in enumerate_augmented_edges(shape):
        assert e.upper[e.id.dim] - e.lower[e.id.dim] == e.id.step
        others = [k for k in range(shape.d) if k != e.id.dim]
        assert all(e.upper[k] == e.lower[k] for k in others)


def test_compare_examples():
    assert compare((0, 0), (1, 2)) == LESS
    assert compare((1, 0), (0, 1)) == INCOMPARABLE
    assert compare((2, 2), (2, 2)) == EQUAL
    assert compare((1, 2), (0, 0)) == GREATER
    with pytest.raises(ValueError):
        compare((0,), (0, 1))


@given(st.lists(st.integers(0, 7), min_size=1, max_size=4), st.data())
def test_compare_symmetry(xs, data):
    ys = data.draw(st.lists(st.integers(0, 7), min_size=len(xs), max_size=len(xs)))
    x, y = tuple(xs), tuple(ys)
    forward, backward = compare(x, y), compare(y, x)
    if forward == LESS:
        assert backward == GREATER
    elif forward == GREATER:
        assert backward == LESS
    else:
        assert forward == backward


def test_directed_distance_examples():
    line8 = GridShape(8, 1)
    assert directed_distance(line8, (0,), (7,)) == 3
    assert directed_distance(line8, (3,), (3,)) == 0
    grid = GridShape(8, 2)
    assert directed_distance(grid, (0, 3), (4, 3)) == 1
    assert directed_distance(grid, (1, 0), (0, 1)) is None


def test_directed_distance_matches_bfs_exhaustive():
    for shape in [GridShape(8, 2), GridShape(4, 3), GridShape(16, 1), GridShape(2, 8),
                  GridShape(3, 2), GridShape(5, 1)]:
        pts = list(points(shape))
        for x in pts:
            # one BFS per source covers all targets at once
            dist = {x: 0}
            q = deque([x])
            while q:
                u = q.popleft()
                for v in aug_up_neighbors(shape, u):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        q.append(v)
            for y in pts:
                assert directed_distance(shape, x, y) == dist.get(y)


def test_directed_distance_matches_bfs_sampled(rng):
    for shape in [GridShape(2, 12), GridShape(8, 4)]:
        pts = shape.size
        for _ in range(12):
            x = point_of(shape, rng.randrange(pts))
            y = point_of(shape, rng.randrange(pts))
            assert directed_distance(shape, x, y) == bfs_distance(shape, x, y)


def test_side_in_matching_total():
    shape = GridShape(8, 1)
    for mid in matching_ids(shape):
        for p in points(shape):
            assert side_in_matching(shape, p, mid) in (LOWER, UPPER)
        # residue side agrees with the matched role whenever one exists
        for p in points(shape):
            role, _ = classify_in_matching(shape, p, mid)
            if role != UNMATCHED:
                assert role == side_in_matching(shape, p, mid)
