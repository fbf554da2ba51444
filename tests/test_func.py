"""Function storage, generators, line ops, and the binary file format."""

import io
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridmono import func
from gridmono.errors import CapacityError, FormatError
from gridmono.func import (
    DEFAULT_TABLE_CAPACITY,
    BoolFunc,
    _monotone_rows,
    dumps,
    generate,
    is_monotone,
    load,
    restrict_line,
    save,
    sort_line,
)
from gridmono.grid import GridShape, point_of, unit_steps
from gridmono.oracle import brute_force_distance


def test_eval_examples():
    shape = GridShape(8, 1)
    const = BoolFunc.from_predicate(shape, lambda x: 1)
    assert const.eval((5,)) == 1
    threshold = generate("monotone_threshold", shape, weights=[1], theta=4)
    assert threshold.eval((3,)) == 0
    assert threshold.eval((4,)) == 1
    table = BoolFunc.from_table(GridShape(4, 1), [1, 1, 0, 0])
    assert table.eval((2,)) == 0


def test_eval_validation():
    f = BoolFunc.from_table(GridShape(4, 1), [1, 1, 0, 0])
    with pytest.raises(ValueError):
        f.eval((4,))
    with pytest.raises(ValueError):
        f.eval((0, 0))


def test_query_counter():
    f = BoolFunc.from_table(GridShape(4, 1), [1, 1, 0, 0])
    assert f.queries == 0
    for t in range(4):
        f.eval((t,))
    assert f.queries == 4
    f.eval((0,))  # repeats count too
    assert f.queries == 5


def test_query_counter_thread_safe():
    from concurrent.futures import ThreadPoolExecutor

    f = BoolFunc.from_predicate(GridShape(4, 2), lambda x: 0)

    def work(k):
        for _ in range(2000):
            f.eval((k % 4, 0))

    with ThreadPoolExecutor(max_workers=4) as pool:
        list(pool.map(work, range(8)))
    assert f.queries == 16000


def test_eval_batch_matches_eval():
    shape = GridShape(4, 2)
    pts = np.array([[a, b] for a in range(4) for b in range(4)] * 2)
    table = generate("uniform_random", shape, seed=3)
    pred = BoolFunc.from_predicate(shape, lambda x: (x[0] + x[1]) % 2)
    for f in (table, pred):
        expected = [f.eval(tuple(p)) for p in pts.tolist()]
        before = f.queries
        got = f.eval_batch(pts)
        assert got.dtype == np.uint8 and got.tolist() == expected
        assert f.queries - before == len(pts)
    assert table.eval_batch(np.zeros((0, 2), dtype=np.int64)).tolist() == []


def test_eval_batch_validation():
    f = BoolFunc.from_table(GridShape(4, 1), [1, 1, 0, 0])
    with pytest.raises(ValueError):
        f.eval_batch(np.array([[4]]))
    with pytest.raises(ValueError):
        f.eval_batch(np.array([[-1]]))
    with pytest.raises(ValueError):
        f.eval_batch(np.array([[0, 0]]))
    with pytest.raises(ValueError):
        f.eval_batch(np.array([[1.0]]))
    bad = BoolFunc.from_predicate(GridShape(4, 1), lambda x: 2)
    with pytest.raises(ValueError):
        bad.eval_batch(np.array([[1]]))
    # both bounds at the ends of each integer dtype
    for dtype, value in ((np.int8, -1), (np.int64, -1 << 63), (np.int64, (1 << 63) - 1),
                         (np.uint64, 1 << 63), (np.uint64, (1 << 64) - 1), (np.uint8, 4)):
        with pytest.raises(ValueError):
            f.eval_batch(np.array([[value]], dtype=dtype))
    assert f.queries == 0
    assert f.eval_batch(np.array([[3], [0]], dtype=np.uint64)).tolist() == [0, 1]


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
def test_eval_batch_on_narrow_unsigned_arrays_matches_eval(dtype):
    """Each vectorised family on an unsigned array of the side's own dtype:
    anti_slab's upper half (where 2 X wraps), monotone_threshold's sums
    just below 2^53 (which float64 holds exactly), and the bounds."""
    n = int(np.iinfo(dtype).max) + 1
    shape = GridShape(n, 3)
    top = ((1 << 53) - 1) // (n - 1)   # the largest sum(w) the batch form takes
    weights = [top // 3, top // 3, top - 2 * (top // 3)]
    edge = [n - 1, n - 2, n // 2]
    theta = sum(w * v for w, v in zip(weights, edge))
    assert sum(weights) * (n - 1) < 1 << 53 <= (sum(weights) + 1) * (n - 1)
    funcs = [generate("monotone_threshold", shape, weights=weights, theta=theta),
             generate("monotone_threshold", shape, weights=weights, theta=theta + 1),
             generate("monotone_threshold", shape, weights=weights, theta=theta - 0.5),
             generate("anti_slab", shape, axis=1),
             generate("block_parity", shape)]
    rng = np.random.default_rng(n)
    middle = [0, n // 2 - 1, n // 2, n - 2, n - 1]
    pts = np.concatenate([rng.integers(0, n, (500, 3)), [edge, [n - 1, n - 2, n // 2 - 1]],
                          np.array(list(itertools.product(middle, repeat=3)))]).astype(dtype)
    for f in funcs:
        assert f._batch is not None and not f.is_table_backed()
        expected = [f.eval(tuple(p)) for p in pts.tolist()]
        before = f.queries
        assert f.eval_batch(pts).tolist() == expected
        assert f.eval_batch(pts.astype(np.int64)).tolist() == expected
        assert f.queries - before == 2 * len(pts)
    # the tie at theta is met by the edge point and missed below it
    assert [f.eval_batch(pts[500:502]).tolist() for f in funcs[:3]] == [[1, 0], [0, 0], [1, 0]]
    # anti_slab is 1 below n / 2 on its axis, where 2 X wraps past 127 in uint8
    assert funcs[3].eval_batch(np.array([[0, n // 2 - 1, 0], [0, n // 2, 0]], dtype)).tolist() \
        == [1, 0]
    small = generate("anti_slab", GridShape(n // 2, 3))   # a coordinate past its side is refused
    for f, bad in ((small, np.array([[0, n // 2, 0]], dtype)),
                   (small, np.array([[0, -1, 0]], np.int64))):
        before = f.queries
        with pytest.raises(ValueError):
            f.eval_batch(bad)
        assert f.queries == before


# Grids above the tabulation threshold, so generate() keeps the predicates.
BIG_SHAPES = st.sampled_from([GridShape(2, 20), GridShape(4, 9), GridShape(8, 7),
                              GridShape(16, 5), GridShape(2, 62)])


@given(shape=BIG_SHAPES, data=st.data())
def test_vectorised_predicates_match_scalar(shape, data):
    coords = st.integers(0, shape.n - 1)
    pts = np.array(data.draw(st.lists(st.lists(coords, min_size=shape.d, max_size=shape.d),
                                      min_size=1, max_size=20)), dtype=np.int64)
    weights = data.draw(st.lists(st.integers(0, 9), min_size=shape.d, max_size=shape.d))
    theta = data.draw(st.one_of(st.integers(-5, 10 * shape.d * shape.n),
                                st.floats(-5, 10 * shape.d * shape.n)))
    funcs = [generate("monotone_threshold", shape, weights=weights, theta=theta),
             generate("monotone_threshold", shape, seed=data.draw(st.integers(0, 99))),
             generate("anti_slab", shape, axis=data.draw(st.integers(0, shape.d - 1))),
             generate("block_parity", shape)]
    for f in funcs:
        assert f._batch is not None
        assert f.eval_batch(pts).tolist() == [f.eval(tuple(p)) for p in pts.tolist()]


@pytest.mark.parametrize("shape", [GridShape(8, 16), GridShape(2, 62), GridShape(5, 30)])
def test_block_parity_batch_matches_the_scalar_predicate(shape):
    # the batch form counts the coordinates v >= ceil(n / 2), where the
    # scalar form sums 2v // n; odd n puts the middle value in the lower half
    f = generate("block_parity", shape)
    assert f._batch is not None
    n, d = shape.n, shape.d
    pts = np.random.default_rng(n).integers(0, n, (2000, d))
    middle = np.array([0, n // 2 - 1, n // 2, -(-n // 2), n - 1])
    pts = np.concatenate([pts, np.repeat(middle, d).reshape(-1, d),
                          middle[np.arange(5 * d).reshape(-1, d) % 5]])
    assert f.eval_batch(pts).tolist() == [f.eval(tuple(p)) for p in pts.tolist()]


def test_float_weights_fall_back_per_point():
    shape = GridShape(2, 20)
    f = generate("monotone_threshold", shape, weights=[0.1] * 20, theta=0.3)
    assert f._batch is None
    pts = np.array([[1, 1, 1] + [0] * 17, [1, 1] + [0] * 18])
    assert f.eval_batch(pts).tolist() == [f.eval(tuple(p)) for p in pts.tolist()]


def test_table_capacity_guard():
    big = GridShape(2, 40)

    def endless():
        while True:
            yield 0

    with pytest.raises(CapacityError) as exc:
        BoolFunc(big, table=endless())
    message = str(exc.value)
    assert "dense table" in message and str(big.size) in message
    assert str(DEFAULT_TABLE_CAPACITY) in message
    for kind in ("uniform_random", "noisy_monotone", "random_monotone"):
        with pytest.raises(CapacityError) as exc:
            generate(kind, big)
        assert kind in str(exc.value) and str(big.size) in str(exc.value)


def test_capacity_message_of_huge_sizes():
    # str() of an int past 4300 digits raises; the message never forms it
    assert (str(CapacityError("rate", 2 ** 20000, 1 << 24))
            == "rate needs 2^20000 points, above the limit of 16777216")
    assert (str(CapacityError("rate", 3 ** 20000, 1 << 24))
            == "rate needs about 2^31699.3 points, above the limit of 16777216")
    err = CapacityError("rate", 3 ** 20000, 1 << 24)
    assert err.requested == 3 ** 20000 and err.limit == 1 << 24
    # ordinary sizes keep their decimal digits
    assert (str(CapacityError("grid", 3 ** 40, 1 << 62))
            == f"grid needs {3 ** 40} points, above the limit of {1 << 62}")


def test_table_checks_predicate_bits():
    f = BoolFunc.from_predicate(GridShape(2, 2), lambda x: 2)
    with pytest.raises(ValueError):
        f.table()
    with pytest.raises(ValueError):
        brute_force_distance(f)


def test_table_does_not_count_queries():
    f = BoolFunc.from_predicate(GridShape(4, 1), lambda x: 0)
    f.table()
    assert f.queries == 0


def test_constructor_validation():
    shape = GridShape(4, 1)
    with pytest.raises(ValueError):
        BoolFunc(shape)
    with pytest.raises(ValueError):
        BoolFunc(shape, table=[1, 0], predicate=lambda x: 0)
    with pytest.raises(ValueError):
        BoolFunc.from_table(shape, [1, 0, 0])
    with pytest.raises(ValueError):
        BoolFunc.from_table(shape, [1, 0, 2, 0])


def test_table_entries_must_be_bits():
    shape = GridShape(2, 1)
    for bad in (np.array([0, -1]), np.array([0, 2]), np.array([0, 256]), np.array([0, 0.5]),
                np.array([0, 2], dtype=np.uint8), [0, 2]):
        with pytest.raises(ValueError, match="table entries must be bits"):
            BoolFunc.from_table(shape, bad)
    for good in ([0, 1], [False, True], np.array([0.0, 1.0]), np.array([0, 1], dtype=np.int8)):
        assert BoolFunc.from_table(shape, good).table() == [0, 1]


def test_bits_is_one_read_only_array():
    source = np.array([1, 1, 0, 0], dtype=np.uint8)
    f = BoolFunc.from_table(GridShape(4, 1), source)
    source[0] = 0  # the function keeps its own copy
    assert f.bits.dtype == np.uint8 and not f.bits.flags.writeable
    assert f.bits is f.bits and f.bits.tolist() == [1, 1, 0, 0]
    with pytest.raises(ValueError):
        f.bits[0] = 0
    g = BoolFunc.from_predicate(GridShape(4, 1), lambda x: int(x[0] >= 2))
    assert g.bits.tolist() == [0, 0, 1, 1] and not g.bits.flags.writeable


def test_table_returns_a_fresh_list():
    f = BoolFunc.from_table(GridShape(4, 1), [1, 1, 0, 0])
    table = f.table()
    assert type(table) is list and table is not f.table()
    table[0] = 0
    assert f.table() == [1, 1, 0, 0]


def test_eval_returns_python_int():
    table = BoolFunc.from_table(GridShape(4, 1), [1, 1, 0, 0])
    predicate = BoolFunc.from_predicate(GridShape(4, 1), lambda x: 1)
    for f in (table, predicate):
        assert all(type(f.eval((t,))) is int for t in range(4))


def test_save_load_blobs_byte_identical():
    rng = np.random.default_rng(5)
    for shape in (GridShape(3, 2), GridShape(5, 3), GridShape(2, 20)):
        f = BoolFunc.from_table(shape, rng.integers(0, 2, shape.size, dtype=np.uint8))
        blob = dumps(f)
        g = load(io.BytesIO(blob))
        assert dumps(g) == blob, shape
        assert np.array_equal(g.bits, f.bits), shape


def test_generate_anti_slab():
    f = generate("anti_slab", GridShape(4, 1))
    assert f.table() == [1, 1, 0, 0]
    assert brute_force_distance(f) == Fraction(1, 2)


def test_generate_monotone_families():
    for kind in ("monotone_threshold", "random_monotone"):
        for seed in range(4):
            for shape in (GridShape(4, 2), GridShape(2, 4), GridShape(8, 1)):
                assert is_monotone(generate(kind, shape, seed=seed)), (kind, seed, shape)


def test_generate_deterministic():
    for kind in ("uniform_random", "random_monotone", "noisy_monotone", "monotone_threshold"):
        a = generate(kind, GridShape(4, 2), seed=9)
        b = generate(kind, GridShape(4, 2), seed=9)
        assert a.table() == b.table(), kind


def test_generate_noisy_monotone():
    base = generate("random_monotone", GridShape(4, 2), seed=3)
    same = generate("noisy_monotone", GridShape(4, 2), seed=5, base=base, rho=0.0)
    assert same.table() == base.table()
    flipped = generate("noisy_monotone", GridShape(4, 2), seed=5, base=base, rho=1.0)
    assert flipped.table() == [b ^ 1 for b in base.table()]


@pytest.mark.parametrize("count", [1, 7, 4096, 65536, func._TWISTER_WORDS // 2 + 1,
                                   func._TWISTER_WORDS + 1])
def test_block_draws_match_the_per_point_loops(count):
    # the same values as one random() or getrandbits(1) call a point, and the
    # generator left in the same state, also across a getrandbits block
    a, b = random.Random(count), random.Random(count)
    floats = np.concatenate(list(func._random_floats(a, count)))
    assert floats.tolist() == [b.random() for _ in range(count)]
    assert a.random() == b.random()
    bits = func._random_bits(a, count)
    assert bits.dtype == np.uint8
    assert bits.tolist() == [b.getrandbits(1) for _ in range(count)]
    assert a.random() == b.random()


def test_random_families_match_the_per_point_loops():
    shape = GridShape(8, 3)
    rng = random.Random(4)
    assert generate("uniform_random", shape, seed=4).table() == [
        rng.getrandbits(1) for _ in range(shape.size)]
    base = generate("random_monotone", shape, seed=6)
    rng = random.Random(5)
    flips = [1 if rng.random() < 0.3 else 0 for _ in range(shape.size)]
    assert generate("noisy_monotone", shape, seed=5, base=base, rho=0.3).table() == [
        b ^ flip for b, flip in zip(base.table(), flips)]


def test_generate_validation():
    shape = GridShape(4, 1)
    with pytest.raises(ValueError):
        generate("nope", shape)
    with pytest.raises(ValueError):
        generate("anti_slab", shape, axis=1)
    with pytest.raises(ValueError):
        generate("monotone_threshold", shape, weights=[-1])
    with pytest.raises(ValueError):
        generate("uniform_random", shape, bogus=3)
    with pytest.raises(ValueError):
        generate("noisy_monotone", shape, rho=2.0)


def test_is_monotone_examples():
    shape = GridShape(4, 1)
    assert is_monotone(BoolFunc.from_table(shape, [0, 0, 0, 0]))
    assert is_monotone(BoolFunc.from_table(shape, [1, 1, 1, 1]))
    assert not is_monotone(BoolFunc.from_table(shape, [1, 1, 0, 0]))
    assert is_monotone(BoolFunc.from_table(GridShape(2, 2), [0, 1, 0, 1]))
    assert not is_monotone(BoolFunc.from_table(GridShape(2, 2), [0, 1, 1, 0]))


def test_is_monotone_matches_unit_step_loop(rng):
    for shape in (GridShape(1, 3), GridShape(5, 1), GridShape(2, 3), GridShape(3, 2),
                  GridShape(4, 3), GridShape(3, 4)):
        tables, expected = [], []
        for _ in range(30):
            table = generate("random_monotone", shape, seed=rng.randrange(1 << 30)).table()
            if rng.random() < 0.7:
                table[rng.randrange(shape.size)] ^= 1
            expected.append(all(table[lo] <= table[hi] for lo, hi in unit_steps(shape)))
            assert is_monotone(BoolFunc.from_table(shape, table)) == expected[-1], (shape, table)
            tables.append(table)
        # the same tables as one block
        assert _monotone_rows(shape, np.array(tables, dtype=np.uint8)).tolist() == expected


def family_reference(kind: str, shape: GridShape, index: np.ndarray, weights: list) -> np.ndarray:
    """The family's definition at the given linear indices, in numpy, with
    the points decoded by unravel_index (dimension 0 varies fastest)."""
    X = np.stack(np.unravel_index(index, (shape.n,) * shape.d, order="F"), axis=1)
    if kind == "monotone_threshold":
        return X @ np.array(weights) >= sum(w * (shape.n - 1) for w in weights) / 2
    if kind == "anti_slab":
        return 2 * X[:, 0] < shape.n
    return (2 * X // shape.n).sum(axis=1) % 2 == 0


@pytest.mark.parametrize("kind", ["monotone_threshold", "anti_slab", "block_parity"])
def test_bits_through_vectorised_predicate(kind, monkeypatch):
    # with no tabulation, generate keeps the predicate and its vectorised form
    monkeypatch.setattr(func, "TABULATE_THRESHOLD", 0)
    gen = np.random.default_rng(4)
    for shape in (GridShape(2, 20), GridShape(8, 6), GridShape(3, 5)):
        weights = [1 + k % 4 for k in range(shape.d)]
        params = {"weights": weights} if kind == "monotone_threshold" else {}
        f = generate(kind, shape, seed=3, **params)
        assert not f.is_table_backed() and f._batch is not None
        bits = f.bits
        assert not bits.flags.writeable and f.queries == 0
        # every point below 2^20; at 2^20, 20,000 points across the blocks
        index = np.arange(shape.size) if shape.size < 1 << 20 else gen.integers(0, shape.size, 20_000)
        assert (bits[index] == family_reference(kind, shape, index, weights)).all(), (kind, shape)
        # the scalar predicate agrees point by point on the small grid
        if shape.size < 1000:
            assert bits.tolist() == [f._predicate(point_of(shape, k)) for k in index]
        if kind == "monotone_threshold":
            assert is_monotone(f)


# Grids at or below the tabulation threshold, so generate() returns tables.
TABULATED_SHAPES = (GridShape(4, 2), GridShape(8, 4), GridShape(8, 5), GridShape(4, 8),
                    GridShape(2, 16))


@pytest.mark.parametrize("shape", TABULATED_SHAPES, ids=str)
def test_tabulation_matches_scalar_predicate(shape, monkeypatch):
    # the closed forms tabulate through their vectorised form; float weights
    # and a theta past int64's exact range have none and go point by point,
    # which is checked on the smaller grids only, to keep the test fast
    d = shape.d
    cases = [("monotone_threshold", {}, True), ("anti_slab", {"axis": d - 1}, True),
             ("block_parity", {}, True)]
    if shape.size <= 1 << 12:
        cases += [("monotone_threshold", {"weights": [0.5 + k for k in range(d)]}, False),
                  ("monotone_threshold", {"weights": [1] * d, "theta": -(1 << 70)}, False)]
    # every point in linear-index order: dimension 0 varies fastest
    points = [p[::-1] for p in itertools.product(range(shape.n), repeat=d)]
    assert points[:3] == [point_of(shape, k) for k in range(3)]
    for kind, params, vectorised in cases:
        table = generate(kind, shape, seed=5, **params)
        assert table.is_table_backed()
        monkeypatch.setattr(func, "TABULATE_THRESHOLD", 0)
        wrapped = generate(kind, shape, seed=5, **params)
        monkeypatch.undo()
        assert (wrapped._batch is not None) == vectorised, (kind, params)
        assert table.table() == [wrapped._predicate(x) for x in points], (kind, params)


def unit_step_closure(shape, table):
    """The upward closure by one in-order pass over the unit steps."""
    table = list(table)
    for lo, hi in unit_steps(shape):
        if table[lo]:
            table[hi] = 1
    return table


# up to 8^4 every view of one table has fewer than 1,024 runs and is
# accumulated; 2^12, 4^6 and 8^5 have 1,024 or more in each, whose
# consecutive slices are ORed
@pytest.mark.parametrize("shape", [GridShape(2, 6), GridShape(3, 3), GridShape(4, 3),
                                   GridShape(5, 2), GridShape(8, 4), GridShape(2, 12),
                                   GridShape(4, 6), GridShape(8, 5)], ids=str)
def test_upward_close_matches_unit_step_loop(shape):
    gen = np.random.default_rng(shape.size)
    for density in (0.0, 0.02, 0.1, 0.4):
        seeds = gen.random(shape.size) < density
        expected = unit_step_closure(shape, seeds.astype(int).tolist())
        assert func._upward_close(shape, seeds.copy()).astype(int).tolist() == expected
    # random_monotone draws one rng.random() per point, in linear order
    rng = random.Random(11)
    draws = [1 if rng.random() < 0.25 else 0 for _ in range(shape.size)]
    assert generate("random_monotone", shape, seed=11).table() == unit_step_closure(shape, draws)


@pytest.mark.parametrize("shape", [GridShape(2, 6), GridShape(4, 3), GridShape(8, 2),
                                   GridShape(4, 2)], ids=str)
def test_upward_close_closes_each_row_of_a_block(shape):
    gen = np.random.default_rng(shape.size)
    # 7 rows are accumulated as one row is; 1,024 rows give every view 1,024
    # or more runs, so the block ORs consecutive slices
    for rows in (7, 1024):
        seeds = gen.random((rows, shape.size)) < 0.05
        expected = [func._upward_close(shape, row.copy()).tolist() for row in seeds]
        assert func._upward_close(shape, seeds.copy()).tolist() == expected
        # a strided block is closed on a copy, whole
        wide = np.repeat(seeds, 2, axis=0)[::2]
        assert not wide.flags.c_contiguous
        assert func._upward_close(shape, wide).tolist() == expected


@pytest.mark.parametrize("shape", [GridShape(2, 1), GridShape(3, 1), GridShape(2, 2),
                                   GridShape(2, 3), GridShape(3, 2), GridShape(4, 2)], ids=str)
def test_table_blocks_are_the_mask_tables(shape, monkeypatch):
    for block in (func.SWEEP_BLOCK, 3):   # whole sweeps, and blocks that split them
        monkeypatch.setattr(func, "SWEEP_BLOCK", block)
        blocks = list(func._table_blocks(shape))
        assert [first for first, _ in blocks] == list(range(0, 1 << shape.size, block))
        for first, tables in blocks:
            masks = range(first, min(first + block, 1 << shape.size))
            assert tables.dtype == np.uint8
            assert np.array_equal(tables, func._mask_bits(masks, shape.size))


def test_is_monotone_capacity():
    big = GridShape(2, 25)
    f = BoolFunc.from_predicate(big, lambda x: 0)
    with pytest.raises(CapacityError):
        is_monotone(f)


def test_restrict_line_examples():
    shape = GridShape(4, 2)
    block = generate("block_parity", shape)
    line = restrict_line(block, 0, (0,))
    assert line.table() == [1, 1, 0, 0]
    slab = generate("anti_slab", shape, axis=1)
    other = restrict_line(slab, 0, (1,))
    assert other.table() == [1, 1, 1, 1]


def test_restrict_line_forwards_queries():
    f = generate("block_parity", GridShape(4, 2))
    line = restrict_line(f, 1, (2,))
    before = f.queries
    line.eval((3,))
    assert f.queries == before + 1
    assert line.queries == 1


def test_restrict_line_validation():
    f = generate("block_parity", GridShape(4, 2))
    with pytest.raises(ValueError):
        restrict_line(f, 2, (0,))
    with pytest.raises(ValueError):
        restrict_line(f, 0, (0, 1))
    with pytest.raises(ValueError):
        restrict_line(f, 0, (4,))


def test_sort_line_examples():
    shape = GridShape(4, 1)
    assert sort_line(BoolFunc.from_table(shape, [1, 0, 1, 0])).table() == [0, 0, 1, 1]
    assert sort_line(BoolFunc.from_table(shape, [0, 1, 1, 1])).table() == [0, 1, 1, 1]
    assert sort_line(BoolFunc.from_table(shape, [1, 1, 0, 0])).table() == [0, 0, 1, 1]


@given(st.lists(st.integers(0, 1), min_size=1, max_size=16))
def test_sort_line_properties(bits):
    f = BoolFunc.from_table(GridShape(len(bits), 1), bits)
    sorted_f = sort_line(f)
    assert sum(sorted_f.table()) == sum(bits)
    assert is_monotone(sorted_f)
    assert sort_line(sorted_f).table() == sorted_f.table()


@given(st.sampled_from([GridShape(2, 1), GridShape(4, 2), GridShape(8, 1), GridShape(3, 2)]),
       st.data())
def test_save_load_round_trip(shape, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=shape.size, max_size=shape.size))
    f = BoolFunc.from_table(shape, bits)
    g = load(io.BytesIO(dumps(f)))
    assert g.shape == shape
    assert g.table() == bits


def test_save_header_layout():
    f = generate("uniform_random", GridShape(8, 2), seed=1)
    blob = dumps(f)
    assert blob[:4] == b"AGF1"
    assert int.from_bytes(blob[4:12], "little") == 8
    assert int.from_bytes(blob[12:20], "little") == 2
    assert len(blob) == 20 + 64 // 8


def test_save_file_round_trip(tmp_path):
    f = generate("uniform_random", GridShape(4, 2), seed=2)
    path = tmp_path / "fn.agf"
    save(f, str(path))
    assert load(str(path)).table() == f.table()


def test_load_errors():
    good = dumps(generate("uniform_random", GridShape(4, 1), seed=0))
    with pytest.raises(FormatError):
        load(io.BytesIO(b"BAD!" + good[4:]))
    with pytest.raises(FormatError):
        load(io.BytesIO(good[:10]))
    with pytest.raises(FormatError):
        load(io.BytesIO(good + b"\x00"))  # payload longer than n^d bits
    # header promises 3^1 = 3 points but payload carries a set padding bit
    blob = b"AGF1" + (3).to_bytes(8, "little") + (1).to_bytes(8, "little") + bytes([0b1000])
    with pytest.raises(FormatError):
        load(io.BytesIO(blob))


def test_load_checks_capacity_from_header():
    # 2^25 points claimed, no payload: refused from the header alone
    blob = b"AGF1" + (2).to_bytes(8, "little") + (25).to_bytes(8, "little")
    with pytest.raises(CapacityError) as exc:
        load(io.BytesIO(blob))
    assert "loading a function file" in str(exc.value) and str(1 << 25) in str(exc.value)
    # past the dimension cap the header is refused before n^d is formed
    blob = b"AGF1" + (2).to_bytes(8, "little") + ((1 << 16) + 1).to_bytes(8, "little")
    with pytest.raises(CapacityError, match="dimensions"):
        load(io.BytesIO(blob))


def test_from_mask():
    shape = GridShape(4, 1)
    assert BoolFunc.from_mask(shape, 0b0011).table() == [1, 1, 0, 0]
    assert BoolFunc.from_mask(GridShape(2, 2), 0b1000).eval((1, 1)) == 1
    for bad in (-1, 1 << 4):
        with pytest.raises(ValueError):
            BoolFunc.from_mask(shape, bad)
    with pytest.raises(CapacityError):
        BoolFunc.from_mask(GridShape(2, 40), 1)


def test_save_predicate_rejected():
    f = BoolFunc.from_predicate(GridShape(4, 1), lambda x: 0)
    with pytest.raises(ValueError):
        save(f, io.BytesIO())
