"""The acceptance suite: every shipping criterion as a callable check.

Each check returns a CheckResult; tests/test_acceptance.py asserts them one
by one and the CLI `verify` subcommand runs the same list through
`run_all`, which hands it to two worker processes in cache groups.  Shared
sweeps are cached per process, and the criteria that read one cache run in
one group, so the distance and isoperimetry criteria pay for the exhaustive
enumerations once.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

from . import oracle, reports
from .errors import IntegrityError, NotGoodError
from .fourier import _line_failures, _transform_defects
from .func import BoolFunc, _mask_bits, _monotone_rows, _table_blocks, generate, is_monotone
from .grid import GridShape, _directed_distance, matching_ids
from .oracle import (
    _edge_masks,
    _gamma_edges,
    brute_force_batch,
    cut_distance_batch,
    influence_bound_batch,
    isoperimetry_sweep,
    monotone_masks,
    optimal_matching,
    optimal_matching_batch,
    ratio_terms,
)
from .reduce import _index_map, lift, plan
from .streams import derive_rng, derive_seed
from .tester import (
    DEFAULT_CALIBRATION,
    _amplified_runs,
    _call_entries,
    _rejection_probabilities,
    detection_rate,
    repetitions,
)

# The sweeps of criteria 2-4 solve assignments on small shapes, so the suite
# loads the solver (scipy.optimize) when it is imported: the import is then
# part of its set-up and of no criterion's time, in every worker of run_all.
oracle.linear_sum_assignment

DEFAULT_MASTER_SEED = 20240811

# Criterion 8 grid; eps is handed to the amplified tester as the design
# farness of both families (the calibration constant absorbs the slack).
PILOT_GRID = tuple((family, n, d)
                   for family in ("anti_slab", "block_parity")
                   for n in (4, 8) for d in (2, 4, 8))
PILOT_EPS = 0.5

# Frozen regression fixtures (criterion 3): exact per-shape minima of the
# three isoperimetry ratios over every eps-far function, as produced by the
# exhaustive sweep itself.  Recompute with `python -m gridmono.verify`.
FROZEN_RATIO_MINIMA: Dict[Tuple[int, int], Tuple[str, str, str]] = {
    (2, 2): ("1", "1", "1"),
    (2, 3): ("1", "1", "1"),
    (3, 2): ("1", "1", "1"),
    (4, 2): ("1", "1", "24/25"),
}


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str
    work: int = 0           # items a passing check covered, counted in work_unit
    work_unit: str = ""
    seconds: float = 0.0    # wall time in the process that ran it, filled in by run_all


# ----------------------------------------------------------------------
# shared caches

@dataclass(frozen=True)
class ShapeSweep:
    """Integer columns over every function on one grid, indexed by mask:
    the counts of IsoperimetrySweep plus the brute-force distance count."""
    size: int
    violated: np.ndarray
    gamma: np.ndarray
    matched: np.ndarray
    total: np.ndarray
    brute: np.ndarray

    def __len__(self) -> int:
        return len(self.matched)


_SWEEPS: Dict[Tuple[int, int], ShapeSweep] = {}
_INSTANCES: Dict[int, list] = {}


def full_sweep(n: int, d: int) -> ShapeSweep:
    """Every function on the (n, d) grid: distance both ways and the ratios' counts, in int64."""
    key = (n, d)
    if key in _SWEEPS:
        return _SWEEPS[key]
    shape = GridShape(n, d)
    blocks = []
    for _, tables in _table_blocks(shape):
        sweep = isoperimetry_sweep(shape, tables)
        blocks.append((sweep.violated, sweep.gamma, sweep.matched, sweep.total,
                       brute_force_batch(shape, tables).astype(np.int64)))
    _SWEEPS[key] = ShapeSweep(shape.size, *map(np.concatenate, zip(*blocks)))
    return _SWEEPS[key]


def decomposition_instances(master_seed: int) -> list:
    """(shape, mask, f, M*) for every eps-far function of the small shapes
    plus 1000 sampled eps-far functions at (4, 2), one batch per shape."""
    if master_seed in _INSTANCES:
        return _INSTANCES[master_seed]
    sampled_shape = GridShape(4, 2)
    rng = derive_rng(master_seed, "decomposition-sample")
    monotone = set(monotone_masks(sampled_shape))   # exactly the masks with an empty M*
    sampled: List[int] = []
    while len(sampled) < 1000:
        mask = rng.randrange(1 << sampled_shape.size)
        if mask not in monotone:
            sampled.append(mask)
    instances = []
    for shape, masks in ((GridShape(2, 1), range(1 << 2)), (GridShape(2, 2), range(1 << 4)),
                         (GridShape(4, 1), range(1 << 4)), (sampled_shape, sampled)):
        mstars = optimal_matching_batch(shape, _mask_bits(masks, shape.size))
        instances.extend((shape, mask, BoolFunc.from_mask(shape, mask), mstar)
                         for mask, mstar in zip(masks, mstars) if not mstar.empty)
    _INSTANCES[master_seed] = instances
    return instances


# ----------------------------------------------------------------------
# criterion 1: one-sided error

# Walks sampled over every family, shape and instance together, rounded up
# to a whole number per instance (200,016 in all).
ONE_SIDED_WALKS = 200_000


def check_one_sided(master_seed: int = DEFAULT_MASTER_SEED) -> CheckResult:
    families = ("monotone_threshold", "random_monotone")
    shapes = [(n, d) for n in (2, 4, 8) for d in range(1, 7)]
    instances_per_shape = 2
    per_instance = math.ceil(
        ONE_SIDED_WALKS / (len(families) * len(shapes) * instances_per_shape))
    rejections = 0
    calls = 0
    for family in families:
        for n, d in shapes:
            shape = GridShape(n, d)
            for inst in range(instances_per_shape):
                f = generate(family, shape,
                             seed=derive_seed(master_seed, f"onesided:{family}:{n}:{d}", inst))
                if not is_monotone(f):
                    return CheckResult(1, "one-sided", False,
                                       f"{family} generator produced a non-monotone table")
                rng = derive_rng(master_seed, f"onesided-run:{family}:{n}:{d}", inst)
                rejections += detection_rate(f, per_instance, rng).rejections
                calls += per_instance
    # every monotone function on 4^1, then on 4^2, as one block of tables
    exhaustive = 0
    for d in (1, 2):
        shape = GridShape(4, d)
        masks = monotone_masks(shape)
        probabilities = _rejection_probabilities(shape, _mask_bits(masks, shape.size))
        for mask, probability in zip(masks, probabilities):
            if probability != 0:
                return CheckResult(1, "one-sided", False,
                                   f"monotone mask {mask} on 4^{d} has nonzero reject probability")
        exhaustive += len(masks)
    passed = rejections == 0
    return CheckResult(
        1, "one-sided", passed,
        f"{calls} sampled invocations, {rejections} rejections; "
        f"{exhaustive} monotone functions exhausted over the randomness space",
        calls + exhaustive, "invocations + functions")


# ----------------------------------------------------------------------
# criterion 2: distance oracle equivalence

DISTANCE_SHAPES = ((2, 2), (2, 3), (3, 2), (4, 2))


def check_distance_equivalence() -> CheckResult:
    checked = 0
    for n, d in DISTANCE_SHAPES:
        sweep = full_sweep(n, d)
        wrong = np.flatnonzero(sweep.matched != sweep.brute)
        if len(wrong):
            mask = int(wrong[0])
            return CheckResult(
                2, "distance-equivalence", False,
                f"mask {mask} on {n}^{d}: matching {Fraction(int(sweep.matched[mask]), sweep.size)}"
                f" != brute {Fraction(int(sweep.brute[mask]), sweep.size)}")
        checked += len(sweep)
    return CheckResult(2, "distance-equivalence", True,
                       f"{checked} functions agree exactly across {len(DISTANCE_SHAPES)} shapes",
                       checked, "functions")


# ----------------------------------------------------------------------
# criterion 3: isoperimetry positivity and frozen regression minima

def sweep_minima(n: int, d: int) -> Tuple[Fraction, Fraction, Fraction]:
    """Exact minima of the three ratios over the eps-far functions, each
    taken over the distinct (numerator, denominator) pairs."""
    sweep = full_sweep(n, d)
    far = sweep.matched > 0
    terms = ratio_terms(sweep.violated, sweep.gamma, sweep.matched, sweep.total)
    return tuple(min(Fraction(a, b) for a, b in zip(*_distinct_pairs(num[far], den[far])))
                 for num, den in terms)


def _distinct_pairs(num: np.ndarray, den: np.ndarray) -> Tuple[list, list]:
    """The distinct (num, den) pairs, as two lists: sorted, then each run's first."""
    order = np.lexsort((den, num))
    num, den = num[order], den[order]
    first = np.ones(len(num), dtype=bool)
    first[1:] = (num[1:] != num[:-1]) | (den[1:] != den[:-1])
    return num[first].tolist(), den[first].tolist()


def check_isoperimetry_regression() -> CheckResult:
    details = []
    swept = 0
    for n, d in DISTANCE_SHAPES:
        sweep = full_sweep(n, d)
        swept += len(sweep)
        terms = ratio_terms(sweep.violated, sweep.gamma, sweep.matched, sweep.total)
        nonpositive = np.any([(num <= 0) | (den <= 0) for num, den in terms], axis=0)
        # only the eps-far functions (matched > 0) have ratios
        wrong = np.flatnonzero(nonpositive & (sweep.matched > 0))
        if len(wrong):
            return CheckResult(3, "isoperimetry-regression", False,
                               f"nonpositive ratio at mask {wrong[0]} on {n}^{d}")
        mins = sweep_minima(n, d)
        frozen = FROZEN_RATIO_MINIMA.get((n, d))
        if frozen is None:
            return CheckResult(3, "isoperimetry-regression", False,
                               f"no frozen minima recorded for shape {n}x{d}")
        expected = tuple(Fraction(s) for s in frozen)
        if mins != expected:
            return CheckResult(3, "isoperimetry-regression", False,
                               f"shape {n}x{d}: minima {mins} != frozen {expected}")
        details.append(f"{n}x{d}: margulis>={mins[0]}")
    return CheckResult(3, "isoperimetry-regression", True, "; ".join(details),
                       swept, "functions")


# ----------------------------------------------------------------------
# criterion 4: decomposition + routing pipeline

def _violated_edge_on(bits: list, path: list) -> bool:
    """Does the path, a list of linear indices, step from a 1-point to a 0-point of the table?"""
    return any(bits[u] > bits[v] for u, v in zip(path, path[1:]))


def _pairs_by_distance(shape: GridShape, pairs: tuple) -> List[Tuple[int, list]]:
    """Matched pairs grouped by directed distance, shortest distance first.
    The pairs come from a matching on the grid, so their ends are not checked."""
    by_dist: Dict[int, list] = {}
    for x, y in pairs:
        by_dist.setdefault(_directed_distance(x, y), []).append((x, y))
    return sorted(by_dist.items())


def _gamma_counts(instances: list) -> List[int]:
    """Γ⁻ count of each instance's function: one matching per shape, whose
    edges are counted by row, as isoperimetry_sweep counts them."""
    counts: List[int] = []
    for shape, group in itertools.groupby(instances, key=lambda inst: inst[0]):
        block = np.stack([f.bits for _, _, f, _ in group])
        rows, _ = _gamma_edges(shape, block, _edge_masks(shape, block)[0])
        counts.extend(np.bincount(rows, minlength=len(block)).tolist())
    return counts


def _cover_failure(cp, cover) -> str:
    """The first cover check a part fails, or "" when it passes all three."""
    from .structure import cover_is_layered, degree_monotonicity_check, layer_size_dichotomy

    if not cover_is_layered(cover):
        return f"pair of size {len(cp.S)} not {cp.ell}-good"
    if not degree_monotonicity_check(cover):
        return "degree monotonicity broken"
    if not layer_size_dichotomy(cover, len(cp.S)):
        return "no wide boundary layer"
    return ""


def check_decomposition_routing(master_seed: int = DEFAULT_MASTER_SEED) -> CheckResult:
    from .structure import GridPoset, conflict_free_decompose, covers_disjoint, route_disjoint_paths

    def fail(detail: str) -> CheckResult:
        return CheckResult(4, "decomposition-routing", False, detail)

    # Each shape's poset builds a pair tuple's cover graph and consistent pair
    # once (see GridPoset); the cover checks and routing of each (shape,
    # consistent pair) are kept here, so each runs once too, the routes with
    # their paths' linear indices.  What involves the function runs for every
    # mask: the partition, the disjointness of covers and of paths, the
    # violated edge on each path (read from f's table) and the Γ⁻ count.
    posets: Dict[GridShape, GridPoset] = {}
    failures: Dict[tuple, str] = {}
    routes: Dict[tuple, tuple] = {}
    classes_checked = 0
    instances = decomposition_instances(master_seed)
    try:
        for (shape, mask, f, mstar), gamma_count in zip(instances, _gamma_counts(instances)):
            if shape not in posets:
                posets[shape] = GridPoset(shape)
            bits = f.bits.tolist()
            for ell, pairs in _pairs_by_distance(shape, mstar.pairs):
                parts = conflict_free_decompose(posets[shape], pairs, ell)
                if sorted(p for cp, _ in parts for p in cp.phi) != sorted(pairs):
                    return fail(f"mask {mask} on {shape.n}^{shape.d}: endpoints not partitioned")
                for cp, cover in parts:
                    if (shape, cp) not in failures:
                        failures[shape, cp] = _cover_failure(cp, cover)
                    if failures[shape, cp]:
                        return fail(f"mask {mask}: {failures[shape, cp]}")
                for a in range(len(parts)):
                    for b in range(a + 1, len(parts)):
                        if not covers_disjoint(parts[a][1], parts[b][1]):
                            return fail(f"mask {mask}: cover graphs intersect")
                seen_vertices: set = set()
                total_paths = 0
                for cp, cover in parts:
                    if (shape, cp) not in routes:
                        paths = tuple(route_disjoint_paths(cover, cp))
                        index = np.array(paths, dtype=np.int64).reshape(len(paths), ell + 1, shape.d)
                        routes[shape, cp] = paths, (index @ shape.n ** np.arange(shape.d)).tolist()
                    paths, index = routes[shape, cp]
                    if len(paths) != len(cp.S):
                        return fail(f"mask {mask}: {len(paths)} paths for {len(cp.S)} sources")
                    for path, path_index in zip(paths, index):
                        if seen_vertices.intersection(path):
                            return fail(f"mask {mask}: routed paths share a vertex")
                        seen_vertices.update(path)
                        if not _violated_edge_on(bits, path_index):
                            return fail(f"mask {mask}: a routed path avoids every violated edge")
                    total_paths += len(paths)
                if total_paths != len(pairs) or total_paths > gamma_count:
                    return fail(f"mask {mask}: {total_paths} paths vs |M*_i|={len(pairs)}, "
                                f"gamma count {gamma_count}")
                classes_checked += 1
    except (IntegrityError, NotGoodError) as exc:
        return fail(f"integrity failure: {exc}")
    return CheckResult(4, "decomposition-routing", True,
                       f"{len(instances)} eps-far instances, {classes_checked} distance classes verified",
                       classes_checked, "distance classes")


# ----------------------------------------------------------------------
# criterion 5: crossing counts and alternating sequences

def check_alternating_counts(master_seed: int = DEFAULT_MASTER_SEED) -> CheckResult:
    """Every instance against every matching of its shape, one
    alternating_walks batch per shape.  An instance fails at its first
    matching with a failed walk or too few violations, else at its distance
    sum; the first failing instance is named."""
    from .structure import alternating_walks

    def fail(detail: str) -> CheckResult:
        return CheckResult(5, "alternating-counts", False, detail)

    walks = 0
    for shape, group in itertools.groupby(decomposition_instances(master_seed),
                                          key=lambda inst: inst[0]):
        group = list(group)
        mids = list(matching_ids(shape))
        batch = alternating_walks(shape, np.stack([f.bits for _, _, f, _ in group]),
                                  [mstar.pairs for *_, mstar in group], mids)
        need = -(-batch.cross // 2)
        distances = [sum(_directed_distance(x, y) for x, y in mstar.pairs) for *_, mstar in group]
        crossings = batch.cross.sum(axis=1)
        failing = np.column_stack(((batch.first_failure >= 0) | (batch.violations < need),
                                   crossings != distances))
        for a, k in np.argwhere(failing)[:1].tolist():
            mask = group[a][1]
            if k == len(mids):
                return fail(f"mask {mask}: crossings {crossings[a]} != distance sum {distances[a]}")
            if batch.first_failure[a, k] >= 0:
                return fail("walk integrity failure: "
                            + batch.walks.message(shape, batch.first_failure[a, k]))
            return fail(f"mask {mask} on {shape.n}^{shape.d}, matching {mids[k]}: "
                        f"{batch.violations[a, k]} violations < {need[a, k]}")
        walks += len(batch.pair)
    return CheckResult(5, "alternating-counts", True,
                       f"{walks} alternating walks, counting identity exact on every instance",
                       walks, "alternating walks")


# ----------------------------------------------------------------------
# criterion 6: fourier suite

PARSEVAL_TABLES = 1000


def check_fourier_suite(master_seed: int = DEFAULT_MASTER_SEED) -> CheckResult:
    worst, _ = _transform_defects(derive_rng(master_seed, "parseval"), PARSEVAL_TABLES)
    if worst > 1e-12:
        return CheckResult(6, "fourier-suite", False, f"Parseval defect {worst}")

    for n in (8, 16):
        for mask, reason in _line_failures(n):
            return CheckResult(6, "fourier-suite", False, f"{reason} on n={n} mask {mask}")

    shape42 = GridShape(4, 2)
    applicable = 0
    for first, tables in _table_blocks(shape42):
        in_range, holds, _, _ = influence_bound_batch(shape42, tables)
        failing = np.flatnonzero(in_range & ~holds)
        if len(failing):
            return CheckResult(6, "fourier-suite", False,
                               f"influence bound fails at mask {first + int(failing[0])} on 4^2")
        applicable += int(in_range.sum())
    return CheckResult(
        6, "fourier-suite", True,
        f"Parseval defect {worst:.2e}; 256+65536 line functions pass; "
        f"{applicable} applicable functions satisfy the influence bound",
        PARSEVAL_TABLES + (1 << 8) + (1 << 16) + (1 << shape42.size), "tables + functions")


# ----------------------------------------------------------------------
# criterion 7: reduction

def check_reduction(master_seed: int = DEFAULT_MASTER_SEED) -> CheckResult:
    """The lifts of many masks are one gather of their tables through the
    plan's index map, the tables lift(p, f).bits would give."""
    shapes = ((3, 1), (3, 2), (5, 1))
    preserved = 0
    for n, d in shapes:
        shape = GridShape(n, d)
        p = plan(n, d)
        masks = monotone_masks(shape)
        lifted = _mask_bits(masks, shape.size)[:, _index_map(p)]
        for k in np.flatnonzero(~_monotone_rows(GridShape(p.N, d), lifted))[:1].tolist():
            return CheckResult(7, "reduction", False,
                               f"monotone mask {masks[k]} on {n}^{d} lifts non-monotone")
        preserved += len(masks)
    compared = 0
    for n, d, exhaustive in ((3, 1, True), (3, 2, False), (5, 1, False)):
        shape = GridShape(n, d)
        p = plan(n, d)
        big = GridShape(p.N, d)
        if exhaustive:
            masks = list(range(1 << shape.size))
        else:
            rng = derive_rng(master_seed, f"reduce:{n}:{d}")
            masks = [rng.randrange(1 << shape.size) for _ in range(1000)]
        tables = _mask_bits(masks, shape.size)
        count_f = cut_distance_batch(shape, tables)
        count_g = cut_distance_batch(big, tables[:, _index_map(p)])
        # eps_g >= eps_f / 6, as 6 count_g N_f >= count_f N_g
        for k in np.flatnonzero(6 * count_g * shape.size < count_f * big.size)[:1].tolist():
            eps_f, eps_g = Fraction(int(count_f[k]), shape.size), Fraction(int(count_g[k]), big.size)
            return CheckResult(7, "reduction", False,
                               f"mask {masks[k]} on {n}^{d}: lifted distance {eps_g} < {eps_f}/6")
        compared += len(masks)
    shape = GridShape(3, 2)
    f = generate("uniform_random", shape, seed=derive_seed(master_seed, "reduce-queries"))
    g = lift(plan(3, 2), f)
    before = f.queries
    big = GridShape(plan(3, 2).N, 2)
    rng = derive_rng(master_seed, "reduce-query-points")
    k = 50
    for _ in range(k):
        g.eval((rng.randrange(big.n), rng.randrange(big.n)))
    if f.queries - before != k or g.queries != k:
        return CheckResult(7, "reduction", False, "query forwarding is not 1:1")
    return CheckResult(7, "reduction", True,
                       f"{preserved} monotone lifts exact; {compared} distance comparisons; "
                       f"query forwarding 1:1 over {k} probes",
                       preserved + compared, "lifts + distance comparisons")


# ----------------------------------------------------------------------
# criterion 8: calibrated detection

def derive_calibration(master_seed: int = DEFAULT_MASTER_SEED) -> float:
    """Recompute the frozen calibration constant from the pilot sweep.

    For each pilot configuration, the Wilson lower bound of the rejection
    rate over 4000 single walks dictates how many repetitions push one run
    to >= 0.9 rejection probability; the constant is the largest implied
    multiple of the repetition formula, padded 25%.
    """
    worst = 0.0
    for family, n, d in PILOT_GRID:
        shape = GridShape(n, d)
        f = generate(family, shape, seed=derive_seed(master_seed, f"pilot-fn:{family}:{n}:{d}"))
        rate = detection_rate(f, 4000,
                              derive_rng(master_seed, f"pilot:{family}:{n}:{d}"))
        if rate.wilson_low <= 0:
            raise IntegrityError(f"pilot rate not separated from zero for {family} {n}x{d}")
        needed = math.log(10.0) / -math.log1p(-rate.wilson_low)
        base = repetitions(n, d, PILOT_EPS, 1.0)
        worst = max(worst, needed / base)
    return round(worst * 1.25, 4)


def check_calibrated_detection(master_seed: int = DEFAULT_MASTER_SEED) -> CheckResult:
    runs = 200
    need = math.ceil(2 * runs / 3)
    trend: Dict[str, list] = {}
    for family, n, d in PILOT_GRID:
        shape = GridShape(n, d)
        f = generate(family, shape, seed=derive_seed(master_seed, f"pilot-fn:{family}:{n}:{d}"))
        verdicts = _amplified_runs(
            f, PILOT_EPS, DEFAULT_CALIBRATION,
            [derive_rng(master_seed, f"amplified:{family}:{n}:{d}", k) for k in range(runs)])
        rejected = sum(not verdict.accepted for verdict in verdicts)
        if rejected < need:
            return CheckResult(8, "calibrated-detection", False,
                               f"{family} {n}x{d}: only {rejected}/{runs} runs rejected")
        rate = detection_rate(f, 2000, derive_rng(master_seed, f"rate:{family}:{n}:{d}"))
        if rate.wilson_low <= 0:
            return CheckResult(8, "calibrated-detection", False,
                               f"{family} {n}x{d}: Wilson lower bound not above zero")
        trend.setdefault(f"{family} n={n}", []).append((d, rate.estimate))
    trend_text = "; ".join(
        f"{key}: " + " ".join(f"d={d}:{est:.4f}" for d, est in sorted(vals))
        for key, vals in sorted(trend.items()))
    return CheckResult(8, "calibrated-detection", True,
                       f"calibration {DEFAULT_CALIBRATION}; all 12 configs reject >= {need}/{runs}; "
                       f"single-shot rates for inspection: {trend_text}",
                       runs * len(PILOT_GRID), "amplified verdicts")


# ----------------------------------------------------------------------
# criterion 9: determinism

# Philox words per numpy call for criterion 9's second grouping: small and
# prime, so its walk batches split every sweep row differently from the default.
REGROUPED_CALL_ENTRIES = 37


def check_determinism(master_seed: int = DEFAULT_MASTER_SEED) -> CheckResult:
    shapes = [(4, 1), (4, 2)]
    fams = ["anti_slab", "block_parity"]
    a = reports.render_report(reports.RATE_HEADER,
                              reports.rate_rows(shapes, fams, 300, master_seed))
    with _call_entries(REGROUPED_CALL_ENTRIES):
        b = reports.render_report(reports.RATE_HEADER,
                                  reports.rate_rows(shapes, fams, 300, master_seed))
    c = reports.render_report(reports.RATE_HEADER,
                              reports.rate_rows(shapes, fams, 300, master_seed))
    if not (a == b == c):
        return CheckResult(9, "determinism", False,
                           "rate sweep bytes differ across runs/walk groupings")
    i1 = reports.render_report(reports.ISO_HEADER,
                               reports.isoperimetry_rows([(4, 1), (2, 2)], master_seed))
    i2 = reports.render_report(reports.ISO_HEADER,
                               reports.isoperimetry_rows([(4, 1), (2, 2)], master_seed))
    if i1 != i2:
        return CheckResult(9, "determinism", False, "isoperimetry sweep bytes differ across runs")
    p1 = reports.render_report(
        reports.PERSISTENCE_HEADER,
        reports.persistence_rows([(8, 2)], ["anti_slab"], [1, 2], 50, 40, master_seed))
    with _call_entries(REGROUPED_CALL_ENTRIES):
        p2 = reports.render_report(
            reports.PERSISTENCE_HEADER,
            reports.persistence_rows([(8, 2)], ["anti_slab"], [1, 2], 50, 40, master_seed))
    if p1 != p2:
        return CheckResult(9, "determinism", False,
                           "persistence sweep bytes differ across walk groupings")
    rows = (len(a.splitlines()) - 1, len(i1.splitlines()) - 1, len(p1.splitlines()) - 1)
    return CheckResult(9, "determinism", True,
                       f"rate/isoperimetry/persistence reports byte-identical "
                       f"({rows[0]} + {rows[1]} + {rows[2]} rows)",
                       sum(rows), "report rows")


# ----------------------------------------------------------------------

# run_all's units of work.  Criteria sharing a module cache run in one group,
# and so in one worker: 2 and 3 read _SWEEPS, 4 and 5 read _INSTANCES.
CACHE_GROUPS = ((1,), (2, 3), (4, 5), (6,), (7,), (8,), (9,))


def _run_group(criteria: Tuple[int, ...], master_seed: int) -> List[CheckResult]:
    """The given criteria in order, each timed by wall clock in this process.

    Checks are looked up when called, so a forked worker runs whatever the
    module held at the fork.
    """
    checks = {1: check_one_sided, 2: check_distance_equivalence,
              3: check_isoperimetry_regression, 4: check_decomposition_routing,
              5: check_alternating_counts, 6: check_fourier_suite, 7: check_reduction,
              8: check_calibrated_detection, 9: check_determinism}
    results = []
    for criterion in criteria:
        args = () if criterion in (2, 3) else (master_seed,)
        start = time.perf_counter()
        result = checks[criterion](*args)
        results.append(dataclasses.replace(result, seconds=time.perf_counter() - start))
    return results


def run_all(master_seed: int = DEFAULT_MASTER_SEED) -> List[CheckResult]:
    """All nine criteria, in criterion order.

    Two worker processes, forked where fork exists, take the CACHE_GROUPS
    as they come; an exception in a group is raised here, after the
    workers have exited.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    fork = "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if fork else None)
    with ProcessPoolExecutor(2, mp_context=context) as pool:
        groups = pool.map(_run_group, CACHE_GROUPS, itertools.repeat(master_seed))
        return [result for group in groups for result in group]


# ----------------------------------------------------------------------
# CLI helpers

def structural_summary(f: BoolFunc) -> List[str]:
    """Per-distance-class decomposition and routing summary lines."""
    from .structure import GridPoset, conflict_free_decompose, route_disjoint_paths

    shape = f.shape
    mstar = optimal_matching(f)
    if mstar.empty:
        return ["function is monotone: empty violation matching"]
    poset = GridPoset(shape)
    lines = [f"|M*|={len(mstar.pairs)} r={mstar.r} psi={mstar.psi}"]
    for ell, pairs in _pairs_by_distance(shape, mstar.pairs):
        parts = conflict_free_decompose(poset, pairs, ell)
        paths = sum(len(route_disjoint_paths(cover, cp)) for cp, cover in parts)
        lines.append(f"i={ell}: |M*_i|={len(pairs)} good_pairs={len(parts)} disjoint_paths={paths}")
    return lines


def _main() -> int:
    """Print the derived constants; exit 1 if any differs from its frozen value."""
    drift = 0
    for n, d in DISTANCE_SHAPES:
        mins = sweep_minima(n, d)
        print(f"({n}, {d}): (\"{mins[0]}\", \"{mins[1]}\", \"{mins[2]}\"),")
        drift += tuple(str(m) for m in mins) != FROZEN_RATIO_MINIMA.get((n, d))
    calibration = derive_calibration()
    print("calibration:", calibration)
    drift += calibration != DEFAULT_CALIBRATION
    if drift:
        print(f"{drift} derived constant(s) differ from the frozen values")
    return 1 if drift else 0


if __name__ == "__main__":
    raise SystemExit(_main())
