"""The random-walk monotonicity tester and its Monte-Carlo wrappers.

One invocation samples a walk length tau, a start point, one matching per
dimension, then steps tau of the dimensions where the start is a lower
endpoint.  It rejects only on a witnessed violation, so monotone functions
are never rejected.

Every sampled walk comes from one array kernel, `_walks`, which turns a
block of words into a batch of walks as (B, d) arrays.  Each run takes one
128-bit key from its `random.Random` and numbers its walks 0, 1, 2, ...;
walk k reads its own fixed block of words from the counter-based Philox
generator under that key, so its draws depend only on the key and k, never
on how walks are grouped into numpy calls, nor on which other runs' walks
share a call.  A run reads its walks in order through its `_Stream`; a
batch's streams share one generator, pointed at each stream's key and
block as they take turns.

One loop, `_sample`, draws, evaluates and counts every sampled walk of the
amplified tester and of the rate experiments: a verdict stops after the
group of its run's first rejection, a rate counts every walk, and both sum
into one `_Tally`.  `exact_rejection_probability` enumerates the same
randomness independently and is the reference the sampled paths are
checked against.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, product
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import CapacityError
from .func import BoolFunc
from .grid import (
    LOWER,
    GridShape,
    MatchingId,
    _edge_table,
    classify_in_matching,
    linear_index,
    point_of,
    steps,
)

ACCEPT = "accept"
REJECT = "reject"

# Frozen by the pilot sweep in verify.derive_calibration (master seed 20240811):
# smallest constant that pushes every pilot family/shape to >= 0.9 per-run
# rejection, maximized over the pilot grid, with 25% headroom.
DEFAULT_CALIBRATION = 1.1145

# Philox words per numpy call of the kernel, each walk counted at its
# weight, max(words, ceil(2 d itemsize / 8)) (see _layout).  The word block
# is at most 16,380 words (4 short of 128 KiB), so it stays under glibc's
# default 128 KiB mmap threshold, and the kernel drops it before the rest of
# the call allocates.  Counting a walk at its x and y in words as well keeps
# each narrow (B, d) array of a call at 65,520 bytes or fewer, so a call's
# arrays reuse heap memory instead of being mapped afresh, and page-faulted
# in, on every call; with bit fields a walk's words are far fewer than its
# arrays' bytes, and this is what bounds the call.  From d = 4,093 at n = 2
# or 4 (1,018 at n = 8, 509 at side 2^62) that budget holds fewer than
# _CALL_WALKS walks; a call then holds _CALL_WALKS walks anyway, because
# there the fixed cost of a call outweighs its page faults.
_CALL_ENTRIES = (1 << 14) - 4
_CALL_WALKS = 16
# amplified_test's first call draws this many walks and each later call
# four times as many, up to the budget: a verdict makes fewer calls, and a
# far input stops within about four times the walks it needed.
_FIRST_CALL_WALKS = 64
_CALL_GROWTH = 4


@dataclass(frozen=True)
class TestTranscript:
    tau: int
    x: tuple
    matchings: Tuple[Optional[MatchingId], ...]
    S: Tuple[int, ...]
    T: Tuple[int, ...]
    y: tuple
    fx: int
    fy: int
    verdict: str
    queries_used: int


@dataclass(frozen=True)
class WalkStats:
    """What a run's walks did.

    tau_histogram lists (tau, walks) pairs in increasing tau; degenerate
    counts the walks with |S| < tau, whose end point is the start, so their
    one query could not witness a violation; mean_S is the mean size of
    the lower set S.
    """

    tau_histogram: Tuple[Tuple[int, int], ...]
    degenerate: int
    mean_S: float


@dataclass(frozen=True)
class TesterVerdict:
    accepted: bool
    invocations: int
    total_queries: int
    stats: WalkStats


@dataclass(frozen=True)
class RateEstimate:
    estimate: float
    wilson_low: float
    wilson_high: float
    rejections: int
    trials: int
    stats: WalkStats


def tau_ceiling(d: int) -> int:
    """Largest p >= 0 with 2^p <= sqrt(d / (10 log2 d)), clamped to 0.

    For d <= 2 the bound is undefined or below 1; the walk degenerates to a
    single step there, which is sound.
    """
    if d <= 2:
        return 0
    bound = math.sqrt(d / (10.0 * math.log2(d)))
    if bound < 1.0:
        return 0
    return int(math.floor(math.log2(bound)))


def sample_tau(d: int, rng: random.Random) -> int:
    """One walk length, drawn as the kernel draws it: 2^t, t uniform in [0, tau_ceiling(d)]."""
    return int(_taus(np.array([rng.getrandbits(64)], dtype=np.uint64), d)[0])


def _require_testable(shape: GridShape) -> None:
    # the matching family is empty on a single-point axis
    if shape.bits < 1:
        raise ValueError("testing needs n >= 2 with n a power of 2")


# ----------------------------------------------------------------------
# the walk kernel

class _Walks(NamedTuple):
    """A batch of walks as arrays; row k is walk `start + k` of its stream."""

    tau: np.ndarray       # (B,) walk length
    x: np.ndarray         # (B, d) start point
    exp: np.ndarray       # (B, d) step exponent of each dimension's matching
    parity: np.ndarray    # (B, d) parity of each dimension's matching
    lower: np.ndarray     # (B, d) x is a lower endpoint there: the set S
    y: np.ndarray         # (B, d) end point
    moved: np.ndarray     # (B,) |S| >= tau, so y != x
    size: np.ndarray      # (B,) |S|

    @property
    def stepped(self) -> np.ndarray:
        """(B, d) the stepped subset T of S: each step moves y up from x."""
        return self.y != self.x


class _Generator:
    """One Philox generator, shared by the streams of a batch, and the key
    and block its counter stands at."""

    __slots__ = ("philox", "key", "block")

    def __init__(self):
        self.philox: Optional[np.random.Philox] = None
        self.key: Optional[np.ndarray] = None
        self.block = -1


class _Stream:
    """The Philox words under one key, read by one run through `gen`."""

    __slots__ = ("key", "gen")

    def __init__(self, key: np.ndarray, gen: Optional[_Generator] = None):
        self.key = key
        self.gen = _Generator() if gen is None else gen


def _stream(rng: random.Random, gen: Optional[_Generator] = None) -> _Stream:
    """The next stream of rng, with a generator of its own or the given shared one."""
    k = rng.getrandbits(128)
    return _Stream(np.array([k & 0xFFFFFFFFFFFFFFFF, k >> 64], dtype=np.uint64), gen)


def _words(stream: _Stream, start: int, count: int, width: int) -> np.ndarray:
    """Rows start .. start+count-1 of the keyed stream, `width` words each.

    width is a multiple of 4, the words of one Philox block, so row k
    begins at block k * width / 4 whichever call reads it.  A read whose
    first block is where the generator's counter stands under the stream's
    key (a run reading its walks in order, no other stream read between)
    continues the generator; any other read sets its state to the key and
    first block, or builds it there on its first read.  Both give the same
    words: reads take whole blocks, so no word is left buffered between them.
    """
    block = start * width // 4
    gen = stream.gen
    if gen.key is not stream.key or gen.block != block:
        counter = np.array([block, 0, 0, 0], dtype=np.uint64)
        if gen.philox is None:
            gen.philox = np.random.Philox(key=stream.key, counter=counter)
        else:
            gen.philox.state = {"bit_generator": "Philox",
                                "state": {"counter": counter, "key": stream.key},
                                "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                                "has_uint32": 0, "uinteger": 0}
        gen.key = stream.key
    gen.block = block + count * width // 4
    return gen.philox.random_raw(count * width).reshape(count, width)


def _below(words: np.ndarray, k, dtype=np.int64) -> np.ndarray:
    """floor(u * k), u uniform on the 53-bit dyadics in [0, 1) from each word,
    as `dtype`, which must hold k - 1.

    Exact for k a power of two; otherwise each value's probability is off by
    at most 2^-53.  u = m * 2^-53 exactly, so m * (k * 2^-53) rounds as u * k.
    For an int k = 2^j with j <= 53 that is the word's top j bits, taken by shift.
    """
    if isinstance(k, int) and 0 < k <= 1 << 53 and k & (k - 1) == 0:
        if k == 1:   # a shift by 64 is undefined
            return np.zeros(words.shape, dtype=dtype)
        top = words >> np.uint64(65 - k.bit_length())
        return top.view(np.int64).astype(dtype, copy=False)
    return ((words >> np.uint64(11)) * (k * 2.0 ** -53)).astype(dtype)


def _taus(words: np.ndarray, d: int) -> np.ndarray:
    return np.left_shift(1, _below(words, tau_ceiling(d) + 1))


# A dimension's x, parity and step exponent are read off one field of its
# words.  On a side 2^bits with bits a power of two (n = 2, 4, 16, 256, 2^16,
# 2^32) the field is bits + 1 + log2 bits bits: x its low bits bits, the
# parity the next bit and the exponent the top log2 bits bits (so exactly
# uniform), and a word holds as many fields as fit, from its low bits up.
# Every other side has one word a dimension, whose low bits + 1 bits are x
# and the parity; up to 2^10 the exponent is `_below` of the same word, whose
# 53 high bits they do not reach, and above it has a word of its own.
_SHARED_WORD_BITS = 10


def _fields(bits: int) -> Tuple[int, int, int]:
    """(field width, fields per word, runs of dimension words) at side
    2^bits: two runs where the exponents have d words of their own."""
    if bits & (bits - 1) == 0:
        span = bits + bits.bit_length()
        return span, 64 // span, 1
    return bits + 1, 1, 1 if bits <= _SHARED_WORD_BITS else 2


@lru_cache(maxsize=None)
def _dtype(bits: int) -> np.dtype:
    """The narrow unsigned dtype of a walk's (B, d) arrays at side 2^bits:
    it holds 2n - 1, so every coordinate and every field."""
    return np.min_scalar_type((2 << bits) - 1)


@lru_cache(maxsize=None)
def _layout(d: int, tau: Optional[int] = None, bits: int = 62) -> Tuple[int, int, int]:
    """(subset picks, words, weight) of one walk on a grid of side 2^bits.

    A walk reads its tau word, one word per subset pick, then its dimension
    words (`_fields`), rounded up to whole Philox blocks.  weight =
    max(words, ceil(2 d itemsize / 8)) is what the walk counts for against
    a call's budget: its words, or its two narrow (B, d) arrays x and y in
    words, whichever is more.  bits defaults to the widest side a GridShape
    allows, so _layout(d) is the largest layout of a walk at d.
    """
    picks = 1 << tau_ceiling(d) if tau is None else min(tau, d)
    _, per_word, per_dim = _fields(bits)
    words = -(-(1 + picks + per_dim * -(-d // per_word)) // 4) * 4
    return picks, words, max(words, -(-2 * d * _dtype(bits).itemsize // 8))


def _check_stream_capacity(operation: str, walks: int, width: int) -> None:
    """Refuse walks 0 .. walks-1 of `width` words each past the Philox counter.

    _words starts a read at block start * width / 4, which must fit the
    counter's low 64-bit word, so the last walk must start below block 2^64.
    """
    if (walks - 1) * width // 4 >= 1 << 64:
        raise CapacityError(operation, walks, ((1 << 66) - 1) // width + 1, "walks")


def _draw_walks(shape: GridShape, stream: _Stream, start: int, count: int,
                tau: Optional[int] = None, x: Optional[np.ndarray] = None) -> _Walks:
    """Walks start .. start+count-1 of `stream`.

    With tau given every walk has that length, and with x given (one row
    per walk) the walks start there: the persistence walk.
    """
    width = _layout(shape.d, tau, shape.bits)[1]
    return _walks(shape, _words(stream, start, count, width), tau, x)


def _walks(shape: GridShape, w: np.ndarray, tau: Optional[int] = None,
           x: Optional[np.ndarray] = None) -> _Walks:
    """The walks whose words are the rows of w, one row a walk.

    Each row is laid out as in `_layout`: the walk's tau draw, one draw per
    subset pick, then the dimensions' fields (`_fields`), dimension i in
    field i.  tau and x are as in `_draw_walks`.  x, exp, parity and y are
    in the narrow unsigned `_dtype`.  w is dropped before the rest of the
    call allocates, so hand it over without keeping a reference.
    """
    d, n, bits = shape.d, shape.n, shape.bits
    count = len(w)
    picks = _layout(d, tau, bits)[0]
    span, per_word, per_dim = _fields(bits)
    dt = _dtype(bits)
    lo = 1 + picks                                            # first dimension word
    # read everything off the word block, then drop it before the rest of
    # the call allocates: one mask cuts a word that holds one field, and one
    # shift-and-mask cuts every layout with more fields a word
    taus = _taus(w[:, 0], d) if tau is None else np.full(count, tau, dtype=np.int64)
    pick = w[:, 1:lo].copy()
    mask = (1 << span) - 1
    if per_word == 1:
        field = (w[:, lo:lo + d] & np.uint64(mask)).astype(dt)
    else:
        shifts = np.arange(0, per_word * span, span, dtype=np.uint64)
        field = (w[:, lo:lo + -(-d // per_word), None] >> shifts).reshape(count, -1)[:, :d]
        field = field.astype(dt)
        field &= dt.type(mask)
    if bits & (bits - 1):   # whole-word fields: exp is `_below` of the word, or of the one d on
        exp = _below(w[:, lo + (per_dim - 1) * d:][:, :d], bits, dt)
    else:
        exp = field >> dt.type(bits + 1)
    del w
    parity = field >> dt.type(bits)
    parity &= dt.type(1)
    x = field & dt.type(n - 1) if x is None else np.asarray(x).astype(dt, copy=False)
    del field
    # a = (n - 1 - x) >> exp counts the 2^exp-blocks above x's; x is a lower
    # endpoint iff a - parity is odd (x's block pairs with the next one up)
    # and positive (that block is on the grid), that is a > parity and
    # (a ^ parity) & 1.  a < n fits below dt's top bit, so a - parity has
    # that bit set exactly when it wraps, and lower is bit 0 set, top bit clear
    above = x ^ dt.type(n - 1)
    above >>= exp
    above -= parity
    above &= dt.type(1 | 1 << 8 * dt.itemsize - 1)
    lower = above == 1
    del above
    free = lower.reshape(-1).nonzero()[0]   # the entries of S, row by row
    size = np.bincount(free // d, minlength=count)
    moved = size >= taus
    # tau picks without replacement.  Pick j is uniform over the size - j
    # unpicked entries of its row's run of free; stepping past each earlier
    # pick at or below it, in increasing order, makes that a rank in the run
    y = x.copy()
    base = np.cumsum(size) - size
    left, live, ranks = size, moved, []
    for j in range(int(np.maximum.reduce(taus * moved, initial=0))):
        if j:
            left, live = left - 1, live & (taus > j)
        rank = _below(pick[:, j], left)
        for earlier in np.sort(ranks, axis=0) if j > 1 else ranks:
            rank += earlier <= rank
        ranks.append(rank)
        hit = free[(base + rank)[live]]
        y.reshape(-1)[hit] += np.left_shift(dt.type(1), exp.reshape(-1)[hit])
    return _Walks(taus, x, exp, parity, lower, y, moved, size)


@contextmanager
def _call_entries(entries: int) -> Iterator[None]:
    """Run the enclosed calls with at most `entries` words per numpy call.

    A call holds one walk where a walk alone is over that budget.  No result
    may depend on this grouping; verify's criterion 9 and the tests run the
    same work under two groupings to show it.
    """
    global _CALL_ENTRIES, _CALL_WALKS
    saved = _CALL_ENTRIES, _CALL_WALKS
    _CALL_ENTRIES, _CALL_WALKS = entries, 1
    try:
        yield
    finally:
        _CALL_ENTRIES, _CALL_WALKS = saved


def _calls(total: int, weight: int, first: Optional[int] = None) -> Iterator[Tuple[int, int]]:
    """(start, count) groups covering range(total), count * weight <= _CALL_ENTRIES.

    weight is a walk's from `_layout`.  A group holds _CALL_WALKS walks
    where the budget holds fewer.  With `first`, the groups start at that
    many and grow _CALL_GROWTH times each.
    """
    most = max(_CALL_WALKS, _CALL_ENTRIES // max(weight, 1))
    size = most if first is None else min(first, most)
    start = 0
    while start < total:
        count = min(size, total - start)
        yield start, count
        start += count
        size = min(_CALL_GROWTH * size, most)


def _evaluate(f: BoolFunc, w: _Walks) -> Tuple[np.ndarray, np.ndarray]:
    """f at both ends of every walk: (fx, fy); y is queried only where it moved."""
    fx = f.eval_batch(w.x)
    if w.moved.all():
        return fx, f.eval_batch(w.y)
    fy = fx.copy()
    fy[w.moved] = f.eval_batch(w.y[w.moved])
    return fx, fy


class _Tally:
    """Walk statistics and rejections of each run of a batch, summed over
    its counted walks."""

    def __init__(self, d: int, runs: int):
        self.span = (1 << tau_ceiling(d)) + 1   # bincount length of the taus
        self.taus = np.zeros((runs, self.span), dtype=np.int64)   # walks by tau
        self.walks = [0] * runs
        self.degenerate = [0] * runs
        self.lower = [0] * runs
        self.rejections = [0] * runs

    def add(self, w: _Walks, runs: List[int], ends: List[int], rejections: List[int]) -> None:
        """Count run runs[j]'s walks in w, the first ends[j] rows of the j-th
        of len(runs) equal row ranges, rejections[j] of them rejecting."""
        count = len(w.tau) // len(runs)
        for run, lo, end, bad in zip(runs, range(0, len(w.tau), count), ends, rejections):
            rows = slice(lo, lo + end)
            self.taus[run] += np.bincount(w.tau[rows], minlength=self.span)
            self.walks[run] += end
            self.degenerate[run] += end - int(np.count_nonzero(w.moved[rows]))
            self.lower[run] += int(w.size[rows].sum())
            self.rejections[run] += bad

    def stats(self) -> List[WalkStats]:
        """Each run's statistics, in run order."""
        return [WalkStats(tuple((tau, c) for tau, c in enumerate(taus) if c), degenerate,
                          lower / walks if walks else 0.0)
                for taus, walks, degenerate, lower in zip(
                    self.taus.tolist(), self.walks, self.degenerate, self.lower)]


# ----------------------------------------------------------------------
# entry points

def single_test(f: BoolFunc, rng: random.Random) -> TestTranscript:
    """One walk of the tester, as a transcript; at most two queries to f."""
    shape = f.shape
    _require_testable(shape)
    w = _draw_walks(shape, _stream(rng), 0, 1)
    fx, fy = (int(v[0]) for v in _evaluate(f, w))
    ids = tuple(MatchingId(i, e, c)
                for i, (e, c) in enumerate(zip(w.exp[0].tolist(), w.parity[0].tolist())))
    S = tuple(i for i, b in enumerate(w.lower[0].tolist()) if b)
    T = tuple(i for i, b in enumerate(w.stepped[0].tolist()) if b)
    return TestTranscript(int(w.tau[0]), tuple(w.x[0].tolist()), ids, S, T,
                          tuple(w.y[0].tolist()), fx, fy, REJECT if fx > fy else ACCEPT,
                          1 + int(w.moved[0]))


def edge_test(f: BoolFunc, rng: random.Random) -> TestTranscript:
    """Sample one augmented edge uniformly over all edges; reject if violated.

    The edge is drawn without an index: a uniform dimension i; v uniform in
    [0, sum of n - s over the steps s), where the first step s whose weight
    n - s exceeds what is left of v is the edge's step and the rest its
    lower end on axis i; every other coordinate uniform.  Each edge is one
    outcome of d (sum of n - s) n^(d-1), the edge count, all equally likely.
    """
    shape = f.shape
    _require_testable(shape)
    n, bits, i = shape.n, shape.bits, rng.randrange(shape.d)
    v = rng.randrange(sum(n - s for s in steps(shape)))
    for exp, s in enumerate(steps(shape)):
        if v < n - s:
            break
        v -= n - s
    others = [rng.getrandbits(bits) for _ in range(shape.d - 1)]   # n = 2^bits
    head, tail = tuple(others[:i]), tuple(others[i:])
    x, y = head + (v,) + tail, head + (v + s,) + tail
    mid = MatchingId(i, exp, v >> exp & 1)
    ids = (None,) * i + (mid,) + (None,) * (shape.d - 1 - i)
    fx, fy = f.eval(x), f.eval(y)
    return TestTranscript(1, x, ids, (i,), (i,), y, fx, fy, REJECT if fx > fy else ACCEPT, 2)


def repetitions(n: int, d: int, eps: float, calibration: float) -> int:
    """Invocation count for the amplified tester; log2 factors clamped at 1.

    A count past the float range (a tiny eps or a huge calibration) is a
    ValueError, as a bad eps or calibration is.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if not 0 < calibration < math.inf:
        raise ValueError(f"calibration must be positive and finite, got {calibration}")
    lg_d = max(1.0, math.log2(d))
    lg_n = max(1.0, math.log2(n))
    try:
        r = calibration * d ** (5 / 6) * lg_d ** 1.5 * (lg_n + lg_d) ** (4 / 3) * eps ** (-4 / 3)
    except OverflowError:   # float ** raises where float * gives inf
        r = math.inf
    if r == math.inf:
        raise ValueError(f"the repetition count for eps {eps} and calibration {calibration} "
                         f"is past the float range")
    return max(1, math.ceil(r))


def amplified_test(f: BoolFunc, eps: float, calibration: float = DEFAULT_CALIBRATION,
                   rng: Optional[random.Random] = None) -> TesterVerdict:
    """Run the repetitions' walks; reject on the first witnessed violation.

    invocations is the 1-based index of the first rejecting walk, or the
    repetition count; total_queries and stats cover exactly those walks.
    Walks drawn past the rejection in the same batch are not counted here,
    though f.queries counts their evaluations.
    """
    return _amplified_runs(f, eps, calibration, [random.Random(0) if rng is None else rng])[0]


def _amplified_runs(f: BoolFunc, eps: float, calibration: float,
                    rngs: Sequence[random.Random]) -> List[TesterVerdict]:
    """amplified_test's verdict under each rng, the runs sharing numpy calls."""
    rounds = repetitions(f.shape.n, f.shape.d, eps, calibration)
    tally = _sample(f, rounds, rngs, "amplified_test", stop=True)
    # a counted walk asks f at x, and at y too unless it is degenerate
    return [TesterVerdict(not bad, walks, 2 * walks - degenerate, stats)
            for bad, walks, degenerate, stats in zip(
                tally.rejections, tally.walks, tally.degenerate, tally.stats())]


def _sample(f: BoolFunc, walks: int, rngs: Sequence[random.Random], operation: str,
            stop: bool) -> _Tally:
    """Walks 0 .. walks-1 of each rng's stream, drawn, evaluated and counted.

    With stop (a verdict) every run reads its walks in amplified_test's
    groups (the first _FIRST_CALL_WALKS walks, then _CALL_GROWTH times more
    each), counts them up to its first rejection and stops after that group;
    without it (a rate) every walk is counted, in groups of the whole budget.
    A call draws one group of as many of the runs still going as fit
    _CALL_ENTRIES words together, one run's group at the least, so each
    run's tally is the one it gets alone.
    """
    shape = f.shape
    _require_testable(shape)
    _, width, weight = _layout(shape.d, bits=shape.bits)
    _check_stream_capacity(operation, walks, width)
    gen = _Generator()   # the runs' streams share one generator
    streams = [_stream(rng, gen) for rng in rngs]
    tally = _Tally(shape.d, len(streams))
    live = list(range(len(streams)))   # the runs still going
    for start, count in _calls(walks, weight, _FIRST_CALL_WALKS if stop else None):
        per_call = max(1, _CALL_ENTRIES // (count * weight))
        for i in range(0, len(live), per_call):
            runs = live[i:i + per_call]
            w = _walks(shape, _run_words(streams, runs, start, count, width))
            fx, fy = _evaluate(f, w)
            bad = (fx > fy).reshape(len(runs), count)
            if stop:   # each run up to its own first rejection
                first = bad.argmax(axis=1).tolist()
                hits = [int(bad[j, col]) for j, col in enumerate(first)]
                ends = [col + 1 if hit else count for hit, col in zip(hits, first)]
            else:
                hits, ends = np.count_nonzero(bad, axis=1).tolist(), [count] * len(runs)
            tally.add(w, runs, ends, hits)
            del w, fx, fy   # so the next call is drawn without this one alive
        if stop:
            live = [run for run in live if not tally.rejections[run]]
            if not live:
                break
    return tally


def _run_words(streams: List[_Stream], runs: List[int], start: int, count: int,
               width: int) -> np.ndarray:
    """Walks start .. start+count-1 of each run's stream, as one word block."""
    if len(runs) == 1:
        return _words(streams[runs[0]], start, count, width)
    return np.concatenate([_words(streams[run], start, count, width) for run in runs])


def wilson_interval(successes: int, trials: int):
    """95% score interval for a binomial proportion.

    Its ends are exactly 0 at no successes and 1 at all, where rounding
    would leave them an ulp or so inside.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = 1.959963984540054  # two-sided 95% normal quantile
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return (0.0 if successes == 0 else max(0.0, center - half),
            1.0 if successes == trials else min(1.0, center + half))


def detection_rate(f: BoolFunc, trials: int, rng: random.Random) -> RateEstimate:
    """Single-walk rejection rate over `trials` walks, with its Wilson interval."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    tally = _sample(f, trials, [rng], "detection_rate", stop=False)
    rejections = tally.rejections[0]
    lo, hi = wilson_interval(rejections, trials)
    return RateEstimate(rejections / trials, lo, hi, rejections, trials, tally.stats()[0])


def persistence_fraction(f: BoolFunc, tau: int, outer_samples: int,
                         inner_samples: int, rng: random.Random) -> float:
    """Estimated fraction of start points whose tau-walk flips f too often.

    Each of the outer samples is a uniform start point x; inner_samples
    walks of length tau from x estimate its flip probability, and x counts
    as non-persistent when that estimate exceeds 1/10.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    if outer_samples < 1 or inner_samples < 1:
        raise ValueError("outer and inner sample counts must be >= 1")
    shape = f.shape
    _require_testable(shape)
    d, bits = shape.d, shape.bits
    _, width, weight = _layout(d, tau, bits)
    # the start points' stream holds fewer walks, of at most the default width
    _check_stream_capacity("persistence_fraction", outer_samples * inner_samples,
                           max(width, _layout(d, bits=bits)[1]))
    x_stream, walk_stream = _stream(rng), _stream(rng)
    non_persistent = 0
    for o_start, o_count in _calls(outer_samples, weight * inner_samples):
        xs = _draw_walks(shape, x_stream, o_start, o_count).x
        fx = f.eval_batch(xs)
        flips = np.zeros(o_count, dtype=np.int64)
        for start, count in _calls(o_count * inner_samples, weight):
            rows = (start + np.arange(count)) // inner_samples
            y = _draw_walks(shape, walk_stream, o_start * inner_samples + start, count,
                            tau=tau, x=xs[rows]).y
            flipped = f.eval_batch(y) != fx[rows]
            flips += np.bincount(rows[flipped], minlength=o_count)
        non_persistent += int(np.count_nonzero(flips * 10 > inner_samples))
    return non_persistent / outer_samples


def exact_rejection_probability(f: BoolFunc) -> Fraction:
    """Rejection probability of single_test by exhausting its randomness.

    Enumerates tau, the start point, every per-dimension matching draw, and
    every stepped subset, so it is only usable on tiny grids.  The one-row
    view of `_rejection_probabilities`.
    """
    return _rejection_probabilities(f.shape, f.bits[None])[0]


def _walk_outcomes(shape: GridShape) -> Tuple[np.ndarray, np.ndarray, List[Fraction]]:
    """(x indices, y indices, probabilities): every distinct pair of ends,
    y != x, that one walk of single_test can reach, with its exact probability.

    Enumerates tau, the start point x, every per-dimension matching draw
    (each dimension classified once per x, as `classify_in_matching` has it)
    and every stepped subset T of S; a walk with |S| < tau stays at x, which
    never rejects, so it is left out.
    """
    _require_testable(shape)
    bits = shape.bits
    taus = [1 << t for t in range(tau_ceiling(shape.d) + 1)]
    weight = {}   # (x, y) -> summed over equally likely (tau, x, draws)
    for idx in range(shape.size):
        x = point_of(shape, idx)
        # each dimension's 2 bits draws, as the partner's coordinate there,
        # or None where x is not a lower endpoint
        ends = []
        for i in range(shape.d):
            mids = (MatchingId(i, code % bits, code // bits) for code in range(2 * bits))
            roles = (classify_in_matching(shape, x, mid) for mid in mids)
            ends.append([partner[i] if role == LOWER else None for role, partner in roles])
        for combo in product(*ends):
            # S, each of its dimensions mapped to the partner's coordinate there
            partners = {i: v for i, v in enumerate(combo) if v is not None}
            for tau in taus:
                if len(partners) < tau:
                    break   # y = x, never a violation
                subsets = list(combinations(partners, tau))
                for T in subsets:
                    y = tuple(partners[i] if i in T else v for i, v in enumerate(x))
                    key = idx, linear_index(shape, y)
                    weight[key] = weight.get(key, 0) + Fraction(1, len(subsets))
    draws = len(taus) * shape.size * (2 * bits) ** shape.d
    xs = np.array([x for x, _ in weight], dtype=np.int64)
    ys = np.array([y for _, y in weight], dtype=np.int64)
    return xs, ys, [w / draws for w in weight.values()]


def _rejection_probabilities(shape: GridShape, tables: np.ndarray) -> List[Fraction]:
    """exact_rejection_probability of each row of a (tables, n^d) bit block:
    the summed probability of the walk outcomes with f(x) = 1 and f(y) = 0."""
    xs, ys, probabilities = _walk_outcomes(shape)
    # over one denominator, each row's sum is a sum of ints
    denominator = math.lcm(*(p.denominator for p in probabilities))
    numerators = [p.numerator * (denominator // p.denominator) for p in probabilities]
    rejects = (tables[:, xs] > tables[:, ys]).tolist()
    return [Fraction(sum(compress(numerators, row)), denominator) for row in rejects]


def exact_edge_rejection_probability(f: BoolFunc) -> Fraction:
    """Violated fraction of the augmented edge set (edge_test's reject rate)."""
    _require_testable(f.shape)
    ends = f.bits[np.stack(_edge_table(f.shape)[:2])]   # f at (lo, hi) of every edge
    return Fraction(int(np.count_nonzero(ends[0] > ends[1])), ends.shape[1])
