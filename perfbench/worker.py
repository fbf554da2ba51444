"""One benchmark process: set a workload up, then run its measured loop.

Started by run.py, which passes its monotonic clock reading at spawn time;
set-up is timed from then to inputs ready.  A SpeedProbe (see probe.py)
runs from the first line of main() and every time is reported both as
measured and at reference speed.  When tracing, the probe's samples fall
inside whichever span is open, adding about 1% to the self times.  The last line of stdout is one
JSON object with the set-up time and every measured operation.  With
--setup-only the process exits once its inputs are ready.  With --trace 1
the span tracer runs from before set-up to the end of the loop and its
spans are written to --trace-out.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(HERE))
    from probe import SpeedProbe

    probe = SpeedProbe()
    probe.start()
    setup_start = time.perf_counter()

    sys.path.insert(0, str(SRC))
    import gridmono

    from workloads import WORKLOADS

    if not Path(gridmono.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"gridmono imported from {gridmono.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = caps = None
    if args.trace:
        from layers import PREDICATE, Captures, resolve_watched
        from tracer import Tracer

        watched, unresolved = resolve_watched()
        caps = Captures()
        tracer = Tracer(watched, caps.callbacks(), PREDICATE, gridmono.BoolFunc)
        tracer.start()

    spec = WORKLOADS[args.workload]
    workload = spec(args.seed)
    warm = workload.warm() if hasattr(workload, "warm") else {}
    setup_s = time.monotonic() - args.spawned_at
    setup = {"setup_s": setup_s - probe.spent_s}
    setup["setup_ref_s"] = setup["setup_s"] / probe.slowdown(setup_start, time.perf_counter())
    if args.setup_only:
        probe.stop()
        emit(setup)
        return 0

    if tracer is not None:
        totals_setup = tracer.totals()
        caps_setup = caps.snapshot()
        gc_setup = (tracer.gc_s, tracer.gc_collections[2])

    records = []
    attempted = failed = 0
    problems = []
    passes = 0
    t0 = time.perf_counter()
    while True:
        for k in range(spec.ops_per_pass):
            if tracer is not None:
                tracer.op = len(records)
                caps.current = workload.label(k)
            own = probe.spent_s
            start = time.perf_counter()
            a, fl, work, info = workload.op(k)
            end = time.perf_counter()
            wall = end - start - (probe.spent_s - own)
            records.append({"op": k, "pass": passes, "label": workload.label(k), "s": wall,
                            "ref_s": wall / probe.slowdown(start, end), "work": work, **info})
            attempted += a
            failed += fl
            if info.get("problem") and len(problems) < 10:
                problems.append(info["problem"])
        passes += 1
        if spec.pass_per_process:
            break
        if passes >= spec.min_passes and time.perf_counter() - t0 >= args.seconds:
            break
    loop_s = time.perf_counter() - t0
    probe.stop()

    done = {
        **setup,
        "passes": passes,
        "records": records,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "run_problem": workload.run_check(),
        "loop_s": loop_s,
        "slowdown": probe.slowdown(t0, t0 + loop_s),
        "warm_s": warm,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from layers import per_layer_metrics

        tracer.stop()
        totals_end = tracer.totals()
        done["per_layer"] = per_layer_metrics(
            totals_setup, totals_end, caps_setup, caps, gc_setup,
            (tracer.gc_s, tracer.gc_collections[2]), len(records))
        done["trace"] = {
            "unresolved": unresolved,
            "spans_kept": len(tracer.spans),
            "spans_dropped": tracer.spans_dropped,
            "shape_tables_cold_s": caps.cold_s_by_shape,
            "single_test_s_by_input": caps.walk_s_by_label(),
            "totals": totals_end,
        }
        if args.trace_out:
            with open(args.trace_out, "w", encoding="ascii") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "fields": ["span", "parent", "op", "name", "start_s", "end_s"],
                           "spans": tracer.span_records(),
                           "spans_dropped": tracer.spans_dropped,
                           "totals": totals_end}, fh)
    emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
