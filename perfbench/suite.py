"""Every workload, untraced then traced, in one command.

    python3 perfbench/suite.py [--seed 0] [--seconds 10]

Prints every end-to-end metric of every workload under its own name and
unit, failed_frac, the tracing overhead (traced over untraced time for the
same operations on the same seed), the environment, and a cross-check of
the untraced and traced numbers against the baseline table that ROADMAP.md
recorded before this benchmark existed.  Takes about five minutes on two
cores.  Results are also written to perfbench/out/suite-seed<N>.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import E2E_NAMES, OUT, UNITS, WORKLOADS  # noqa: E402

# ROADMAP.md's baseline table, single runs at commit 903624f.
BASELINE_WALK_US = {"random_monotone 8^4": 36.0, "monotone_threshold 8^16": 69.0,
                    "anti_slab 2^62": 352.0}
BASELINE_CHECK_S = {1: 7.5, 2: 16.2, 3: 0.5, 4: 0.7, 5: 0.1, 6: 14.6, 7: 0.8, 8: 2.4, 9: 0.2}
BASELINE_SHAPE_TABLES_S = {"8^3": 0.39}
# A single-run baseline on a shared machine: agreement within this factor
# either way counts as reproduced.
MATCH_FACTOR = 1.5


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} failed with status {proc.returncode}")
    with open(OUT / f"result-{workload}-seed{seed}-trace{trace}.json", encoding="ascii") as fh:
        return json.load(fh)


def overhead(untraced: dict, traced: dict) -> float:
    """Traced over untraced time of the same operations, at reference speed."""
    return sum(traced["op_ref_s"]) / sum(untraced["op_ref_s"])


def per_walk_us(summary: dict, key: str) -> dict:
    """Verdict time per walk, by input, from each verdict's median over passes."""
    acc = {}
    labels = {r["op"]: (r["label"], r["work"]) for r in summary["records"]}
    for k, t in enumerate(summary[key]):
        label, walks = labels[k]
        s, w = acc.get(label, (0.0, 0))
        acc[label] = (s + t, w + walks)
    return {label: 1e6 * s / w for label, (s, w) in acc.items()}


def verdict(measured: float, baseline: float) -> str:
    ratio = measured / baseline
    ok = 1 / MATCH_FACTOR <= ratio <= MATCH_FACTOR
    return f"x{ratio:.2f} {'matches' if ok else 'DOES NOT MATCH'}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args()

    results = {}
    for w in WORKLOADS:
        results[w] = {t: run_one(w, args.seed, args.seconds, t) for t in (0, 1)}

    print(f"# env {json.dumps(results[WORKLOADS[0]][0]['env'])}")
    print(f"# seed {args.seed}, {args.seconds:g} s per run")
    rows = {}
    for w in WORKLOADS:
        u, t = results[w][0], results[w][1]
        names = E2E_NAMES[w]
        print(f"== {w}: {u['ops_per_pass']} ops per pass, {u['passes']} passes untraced, "
              f"{t['passes']} traced")
        print(f"  {'':<18} {'reference speed':>16} {'as measured':>16}")
        for key, value in u["e2e"].items():
            print(f"  {names.get(key, key):<18} {value:>16.4f} {u['e2e_wall'][key]:>16.4f}"
                  f" {UNITS[key]}")
        if w == "acceptance":
            print(f"  {'verify_s':<18} {u['e2e']['latency_p50_ms'] / 1000:>16.4f}"
                  f" {u['e2e_wall']['latency_p50_ms'] / 1000:>16.4f} s")
        print(f"  {'failed_frac':<18} {u['failed'] / u['attempted']:>14.4f} "
              f"({u['failed']}/{u['attempted']}; traced run {t['failed']}/{t['attempted']})")
        ratio = overhead(u, t)
        print(f"  {'trace_overhead':<18} {ratio:>14.3f} x (traced/untraced time, same operations)")
        rows[w] = {"e2e": u["e2e"], "failed": u["failed"], "attempted": u["attempted"],
                   "trace_overhead": ratio, "per_layer": t["per_layer"]}

    print("== baseline cross-check against ROADMAP's table, which holds wall times: "
          f"as measured within a factor {MATCH_FACTOR} either way matches")
    walks_ref = per_walk_us(results["tester_walks"][0], "op_ref_s")
    walks_wall = per_walk_us(results["tester_walks"][0], "op_wall_s")
    walks_t = results["tester_walks"][1]["trace_info"]["single_test_s_by_input"]
    for label, base in BASELINE_WALK_US.items():
        print(f"  single_test {label:<24} baseline {base:6.1f} us | as measured"
              f" {walks_wall[label]:6.1f} us {verdict(walks_wall[label], base)} | reference speed"
              f" {walks_ref[label]:6.1f} us | traced span {1e6 * walks_t[label]:6.1f} us")
    acc_u, acc_t = results["acceptance"][0], results["acceptance"][1]
    scale = rows["acceptance"]["trace_overhead"]
    for k, base in BASELINE_CHECK_S.items():
        traced = acc_t["per_layer"][f"verify.check_{k}_s"]
        print(f"  verify criterion {k}   baseline {base:6.1f} s | traced span {traced:7.2f} s,"
              f" over the overhead {traced / scale:7.2f} s {verdict(traced / scale, base)}")
    total = acc_u["e2e_wall"]["latency_p50_ms"] / 1000.0
    print(f"  verify total         baseline {sum(BASELINE_CHECK_S.values()):6.1f} s | as measured"
          f" {total:7.2f} s {verdict(total, sum(BASELINE_CHECK_S.values()))} | reference speed"
          f" {acc_u['e2e']['latency_p50_ms'] / 1000:7.2f} s")
    desk_u, desk_t = results["oracle_desk"][0], results["oracle_desk"][1]
    for shape, base in BASELINE_SHAPE_TABLES_S.items():
        warm = desk_u["warm_s"][shape]
        cold = desk_t["trace_info"]["shape_tables_cold_s"][shape]
        print(f"  shape_tables {shape} cold  baseline {base:6.2f} s | untraced first report"
              f" {warm:6.2f} s {verdict(warm, base)} | traced span {cold:6.2f} s")

    with open(OUT / f"suite-seed{args.seed}.json", "w", encoding="ascii") as fh:
        json.dump(rows, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
