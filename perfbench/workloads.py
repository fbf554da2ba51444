"""The benchmark's three workloads: inputs made from a seed, one operation, its check.

Each workload is single-process and closed-loop with one client: the next
operation starts when the previous one returns.  A run makes passes over a
fixed list of `ops_per_pass` operations; every pass repeats the same
operations on the same inputs with the same random streams, so the same
work is timed several times across the run.  Inputs are made here from
the seed; gridmono only receives them.  Functions that gridmono can back
with its own closed-form predicates (`monotone_threshold`, `block_parity`,
`anti_slab` on grids too large to tabulate) are built through
`gridmono.generate` with every random parameter chosen here, so a faster
predicate inside gridmono is exercised.  Dense tables are built here.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

DEFAULT_SEED = 0
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def _coords(n: int, d: int, idx: int) -> Tuple[int, ...]:
    # gridmono's linear order: dimension 0 varies fastest
    out = []
    for _ in range(d):
        idx, v = divmod(idx, n)
        out.append(v)
    return tuple(out)


def _upward_close(n: int, d: int, table: List[int]) -> None:
    # a point becomes 1 if the point one unit step below it along some axis is 1
    stride = 1
    size = n ** d
    for _ in range(d):
        period = stride * n
        for base in range(0, size, period):
            for off in range(base + stride, base + period):
                if table[off - stride]:
                    table[off] = 1
        stride = period


def family_table(family: str, n: int, d: int, rng: random.Random) -> List[int]:
    """Dense bit table of one test family, in gridmono's linear order."""
    size = n ** d
    if family == "uniform_random":
        return [rng.getrandbits(1) for _ in range(size)]
    if family == "random_monotone":
        table = [1 if rng.random() < 0.25 else 0 for _ in range(size)]
        _upward_close(n, d, table)
        return table
    if family == "noisy_monotone":
        base = family_table("random_monotone", n, d, rng)
        return [b ^ 1 if rng.random() < 0.05 else b for b in base]
    if family == "block_parity":
        return [1 if sum(2 * v // n for v in _coords(n, d, i)) % 2 == 0 else 0
                for i in range(size)]
    if family == "anti_slab":
        axis = rng.randrange(d)
        return [1 if 2 * _coords(n, d, i)[axis] < n else 0 for i in range(size)]
    raise ValueError(f"unknown family {family!r}")


class TesterWalks:
    """`amplified_test` verdicts cycled over five inputs, monotone and far."""

    name = "tester_walks"
    work_unit = "walks"
    # 20 rounds of the five-input mix: p90 has ten verdicts beyond it.  One
    # pass takes about 11 s, so a run usually makes one.
    ops_per_pass = 100
    min_passes = 1
    pass_per_process = False
    # (label, family, n, d, eps, monotone)
    MIX = (
        ("random_monotone 8^4", "random_monotone", 8, 4, 0.25, True),
        ("monotone_threshold 8^16", "monotone_threshold", 8, 16, 0.5, True),
        ("monotone_threshold 4^20", "monotone_threshold", 4, 20, 0.5, True),
        ("block_parity 8^16", "block_parity", 8, 16, 0.25, False),
        ("anti_slab 2^62", "anti_slab", 2, 62, 0.25, False),
    )

    def __init__(self, seed: int):
        import gridmono

        self._gm = gridmono
        self.seed = seed
        rng = random.Random(f"tester_walks:{seed}")
        self.inputs = []
        for label, family, n, d, eps, monotone in self.MIX:
            shape = gridmono.GridShape(n, d)
            if family == "random_monotone":
                f = gridmono.BoolFunc.from_table(shape, family_table(family, n, d, rng))
            elif family == "monotone_threshold":
                weights = [rng.randint(1, 4) for _ in range(d)]
                f = gridmono.generate(family, shape, weights=weights)
            elif family == "anti_slab":
                f = gridmono.generate(family, shape, axis=rng.randrange(d))
            else:
                f = gridmono.generate(family, shape)
            self.inputs.append((label, f, eps, monotone))
        self.far_verdicts = 0
        self.far_rejected = 0

    def label(self, k: int) -> str:
        return self.inputs[k % len(self.inputs)][0]

    def op(self, k: int) -> Tuple[int, int, float, dict]:
        """One verdict: (attempted, failed, work done, details)."""
        label, f, eps, monotone = self.inputs[k % len(self.inputs)]
        rng = random.Random(f"tester_walks:{self.seed}:op:{k}")
        verdict = self._gm.amplified_test(f, eps, rng=rng)
        if not monotone:
            self.far_verdicts += 1
            self.far_rejected += not verdict.accepted
        failed = int(monotone and not verdict.accepted)
        return 1, failed, verdict.invocations, {"accepted": verdict.accepted}

    def run_check(self) -> Optional[str]:
        """A run-level failure, or None."""
        if self.far_verdicts and 3 * self.far_rejected < 2 * self.far_verdicts:
            return (f"far inputs rejected in only {self.far_rejected}/{self.far_verdicts} "
                    f"verdicts, below 2/3")
        return None


DESK_SHAPES = ((32, 2), (8, 3), (4, 5))
DESK_FAMILIES = ("uniform_random", "noisy_monotone", "block_parity", "anti_slab",
                 "random_monotone")
# Instances per family and grid.  Report cost varies between random
# instances; with three, p90 (the 41st of 45 reports) is the middle of three
# instances rather than one draw.
DESK_INSTANCES = 3


def desk_inputs(seed: int) -> list:
    """(label, family, BoolFunc) for every oracle_desk input, in cycle order."""
    import gridmono

    rng = random.Random(f"oracle_desk:{seed}")
    inputs = []
    for n, d in DESK_SHAPES:
        shape = gridmono.GridShape(n, d)
        for i in range(DESK_INSTANCES):
            for family in DESK_FAMILIES:
                f = gridmono.BoolFunc.from_table(shape, family_table(family, n, d, rng))
                inputs.append((f"{family} {n}^{d} #{i}", family, f))
    return inputs


def report_values(report) -> Dict[str, Fraction]:
    """The exact quantities of an isoperimetry report that golden.json fixes."""
    inf = report.influence
    return {"eps": inf.eps, "I": inf.I, "I_minus": inf.I_minus,
            "gamma_minus": inf.gamma_minus, "r": inf.r}


class OracleDesk:
    """`isoperimetry_report` on five families over three desk-scale grids."""

    name = "oracle_desk"
    work_unit = "reports"
    ops_per_pass = len(DESK_SHAPES) * len(DESK_FAMILIES) * DESK_INSTANCES
    min_passes = 3    # at least 100 reports
    pass_per_process = False

    def __init__(self, seed: int):
        import gridmono

        self._gm = gridmono
        self.seed = seed
        self.inputs = desk_inputs(seed)
        self.golden = None
        if seed == DEFAULT_SEED:
            with open(GOLDEN_PATH, encoding="ascii") as fh:
                self.golden = json.load(fh)

    def warm(self) -> Dict[str, float]:
        """Build each grid's exact-oracle tables, as set-up.

        The first report on a grid enumerates its comparable pairs and
        augmented edges; one report on the monotone input of each grid pays
        that once, outside the measured loop.
        """
        import time

        times = {}
        for label, family, f in self.inputs:
            shape = label.split()[1]
            if family == "random_monotone" and shape not in times:
                t = time.perf_counter()
                self._gm.isoperimetry_report(f)
                times[shape] = time.perf_counter() - t
        return times

    def label(self, k: int) -> str:
        return self.inputs[k][0]

    def op(self, k: int) -> Tuple[int, int, float, dict]:
        label, family, f = self.inputs[k]
        report = self._gm.isoperimetry_report(f)
        problem = self.check(label, family, report)
        return 1, int(problem is not None), 1, ({"problem": problem} if problem else {})

    def check(self, label: str, family: str, report) -> Optional[str]:
        got = report_values(report)
        if self.golden is not None:
            want = {k: Fraction(v) for k, v in self.golden[label].items()}
            return None if got == want else f"{label}: {got} != golden {want}"
        eps, gamma = got["eps"], got["gamma_minus"]
        ratios = (report.margulis_ratio, report.edge_ratio, report.vertex_ratio)
        if family == "anti_slab" and eps != Fraction(1, 2):
            return f"{label}: eps {eps} != 1/2"
        if family == "random_monotone" and (eps != 0 or any(r is not None for r in ratios)):
            return f"{label}: monotone input has eps {eps} or ratios {ratios}"
        if not 0 <= gamma <= eps <= Fraction(1, 2):
            return f"{label}: not 0 <= gamma {gamma} <= eps {eps} <= 1/2"
        if eps > 0 and not all(r is not None and r > 0 for r in ratios):
            return f"{label}: nonpositive ratio in {ratios}"
        return None

    def run_check(self) -> Optional[str]:
        return None


class Acceptance:
    """`verify.run_all(seed)`, one call per fresh process."""

    name = "acceptance"
    work_unit = "verifies"
    ops_per_pass = 1
    min_passes = 1
    # full_sweep and decomposition_instances are cached per process; a
    # fresh process per call keeps them cold, as for a user.
    pass_per_process = True

    def __init__(self, seed: int):
        from gridmono import verify

        self._verify = verify
        self.seed = seed

    def label(self, k: int) -> str:
        return "run_all"

    def op(self, k: int) -> Tuple[int, int, float, dict]:
        results = self._verify.run_all(self.seed)
        failed = [r.criterion for r in results if not r.passed]
        problem = f"criteria {failed} failed" if failed else None
        return len(results), len(failed), 1, ({"problem": problem} if problem else {})

    def run_check(self) -> Optional[str]:
        return None


WORKLOADS = {w.name: w for w in (TesterWalks, OracleDesk, Acceptance)}
