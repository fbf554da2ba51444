"""gridmono benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload tester_walks --seed 0 --seconds 10 --trace 0

Run from anywhere; gridmono is imported from the `src/` directory beside
this one, never from an installed copy.  Workloads (see workloads.py):

  tester_walks  amplified_test verdicts over a fixed mix of five inputs
  oracle_desk   isoperimetry_report over five families on 32^2, 8^3, 4^5
  acceptance    verify.run_all(seed), one fresh process per call

With --trace 0 the run measures the end-to-end metrics:

  throughput      work per second: walks, reports or verifies
  latency_p90_ms  90th percentile time of one operation: a verdict, a
                  report or a verify
  setup_s         process start to inputs ready, median of SETUP_RUNS
                  fresh processes
  peak_rss_mb     peak resident memory of the measuring process

The median operation time, latency_p50_ms, is printed but is not one of
them: on tester_walks it falls where the anti_slab verdicts, whose length
is random, meet the fixed-length 8^4 verdicts, and for that reason alone
its spread over ten seeds came out between 21% and 47% of its median in a
simulation of six such sets.

A run repeats the same operations in passes (see workloads.py) and times
each operation as its median over the passes.  Times are reported in
reference-speed seconds, which take out the drift in the shared machine's
speed (see probe.py); the human-readable lines show the times as measured
beside them.  With --trace 1 the run instead reports the per-layer metrics
of layers.py from the span tracer and writes the spans to perfbench/out/.

Human-readable lines come first, with the workload's own names for the
metrics and failed_frac; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  Exit status is 0 on a
completed run, also when outputs are wrong (then "correct" is false), and
nonzero when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS as WORKLOAD_SPECS  # noqa: E402

WORKLOADS = tuple(WORKLOAD_SPECS)
SETUP_RUNS = 3
# a run must end within 180 s; leave room for the parent's own work
DEADLINE_S = 170.0

# Pinned for every child: numpy/scipy may start BLAS or OpenMP threads, and
# string hashing changes iteration order of sets between processes.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# What each end-to-end metric is called on each workload.
E2E_NAMES = {
    "tester_walks": {"throughput": "walks_per_s", "latency_p50_ms": "verdict_p50_ms",
                     "latency_p90_ms": "verdict_p90_ms"},
    "oracle_desk": {"throughput": "reports_per_s", "latency_p50_ms": "report_p50_ms",
                    "latency_p90_ms": "report_p90_ms"},
    "acceptance": {"throughput": "verifies_per_s", "latency_p50_ms": "verify_p50_ms",
                   "latency_p90_ms": "verify_p90_ms"},
}
# The end-to-end metrics of BENCHMARK.json, and the median printed beside them.
E2E_UNITS = {"throughput": "1/s", "latency_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
UNITS = {**E2E_UNITS, "latency_p50_ms": "ms"}


class RunError(Exception):
    pass


def git_rev() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads_pinned": CHILD_ENV["OMP_NUM_THREADS"],
    }


def spawn(args, deadline: float, extra=()) -> dict:
    """Run worker.py to completion and return its final record."""
    env = dict(os.environ, **CHILD_ENV)
    env.pop("PYTHONPATH", None)
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spawned-at", repr(spawned_at), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
                          timeout=max(1.0, deadline - spawned_at))
    if proc.returncode != 0:
        raise RunError(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def run(args) -> dict:
    spec = WORKLOAD_SPECS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(spawn(args, deadline, ["--setup-only"]))
    extra = []
    if args.trace:
        OUT.mkdir(exist_ok=True)
        extra = ["--trace-out", str(OUT / f"trace-{args.workload}-seed{args.seed}.json")]
    dones = []
    loop_start = time.monotonic()
    while True:
        done = spawn(args, deadline, extra)
        setups.append(done)
        dones.append(done)
        # a workload that needs a fresh process per pass keeps going here
        if (not spec.pass_per_process or args.trace
                or time.monotonic() - loop_start >= args.seconds):
            break

    records = []
    for d in dones:
        base = len({r["pass"] for r in records})
        records += [dict(r, **{"pass": base + r["pass"]}) for r in d["records"]]
    # Every pass repeats the same operations; each operation's time is its
    # median over the passes, in reference-speed seconds (see probe.py).
    by_op: dict = {}
    for r in records:
        by_op.setdefault(r["op"], []).append(r)
    ops = sorted(by_op)
    ref_times = [statistics.median(r["ref_s"] for r in by_op[k]) for k in ops]
    wall_times = [statistics.median(r["s"] for r in by_op[k]) for k in ops]
    work = [by_op[k][0]["work"] for k in ops]
    run_problems = [d["run_problem"] for d in dones if d["run_problem"]]
    mismatched = [k for k in ops if len({r["work"] for r in by_op[k]}) > 1]
    if mismatched:
        run_problems.append(f"operations {mismatched[:10]} did different work in different passes")
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "attempted": sum(d["attempted"] for d in dones),
        "failed": sum(d["failed"] for d in dones),
        "problems": [p for d in dones for p in d["problems"]],
        "run_problems": run_problems,
        "ops_per_pass": len(ops),
        "passes": len({r["pass"] for r in records}),
        "work_per_pass": sum(work),
        "work_unit": spec.work_unit,
        "loop_s": sum(d["loop_s"] for d in dones),
        "slowdown": [d["slowdown"] for d in dones],
        "op_ref_s": ref_times,
        "op_wall_s": wall_times,
        "records": records,
        "setup_runs_s": [d["setup_s"] for d in setups],
        "setup_runs_ref_s": [d["setup_ref_s"] for d in setups],
        "warm_s": dones[0]["warm_s"],
    }

    def e2e(times, setup_times):
        return {
            "throughput": sum(work) / sum(times),
            "latency_p50_ms": 1000.0 * statistics.median(times),
            "latency_p90_ms": 1000.0 * percentile(times, 0.9),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": max(d["peak_rss_mb"] for d in dones),
        }

    summary["e2e"] = e2e(ref_times, summary["setup_runs_ref_s"])
    summary["e2e_wall"] = e2e(wall_times, summary["setup_runs_s"])
    if args.trace:
        summary["per_layer"] = dones[0]["per_layer"]
        summary["trace_info"] = dones[0]["trace"]
    return summary


def print_human(s: dict, per_layer_units: dict) -> None:
    failed_frac = s["failed"] / s["attempted"]
    print(f"# gridmono benchmark  workload={s['workload']}  seed={s['seed']}  trace={s['trace']}")
    print(f"# env {json.dumps(s['env'])}")
    print(f"# {s['passes']} passes of {s['ops_per_pass']} ops ({s['work_per_pass']:.0f} "
          f"{s['work_unit']} each) in {s['loop_s']:.3f} s; set-up runs "
          f"{', '.join(f'{x:.3f}' for x in s['setup_runs_s'])} s")
    if not s["trace"]:
        print(f"# machine slowdown against the reference speed during the loop: "
              f"{', '.join(f'{x:.3f}' for x in s['slowdown'])}")
    names = E2E_NAMES[s["workload"]]
    if s["trace"]:
        for name, value in s["per_layer"].items():
            print(f"  {name:<44} {value:>14.6g} {per_layer_units[name]}")
        tr = s["trace_info"]
        print(f"  spans kept {tr['spans_kept']}, dropped past the cap {tr['spans_dropped']}")
        if tr["unresolved"]:
            print(f"  not found in this gridmono, reported as 0: {', '.join(tr['unresolved'])}")
    else:
        print(f"  {'':<20} {'reference speed':>16} {'as measured':>16}")
        for key, value in s["e2e"].items():
            print(f"  {names.get(key, key):<20} {value:>16.6f} {s['e2e_wall'][key]:>16.6f}"
                  f" {UNITS[key]}")
    print(f"  {'failed_frac':<20} {failed_frac:>14.6f} ({s['failed']}/{s['attempted']})")
    for p in s["problems"] + s["run_problems"]:
        print(f"  FAILED: {p}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (ROOT / "src" / "gridmono" / "__init__.py").is_file():
        print(f"no gridmono sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from layers import METRICS

    try:
        s = run(args)
    except (RunError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark run failed: {exc!r}", file=sys.stderr)
        return 1

    units = {name: unit for name, unit, _ in METRICS}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="ascii") as fh:
        json.dump(s, fh, indent=1)
    print_human(s, units)
    if args.trace:
        metrics = {name: {"value": v, "unit": units[name]} for name, v in s["per_layer"].items()}
    else:
        metrics = {name: {"value": s["e2e"][name], "unit": unit} for name, unit in E2E_UNITS.items()}
    correct = s["failed"] == 0 and not s["run_problems"]
    print(json.dumps({"correct": correct, "attempted": s["attempted"], "failed": s["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
