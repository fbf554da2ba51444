"""Which gridmono functions the traced run watches, and the per-layer metrics.

Layers are gridmono's modules.  Every metric below is reported by every
workload; a layer the workload does not reach reads 0.  Counts and times
are per benchmark operation (one verdict, one report or one verify) over
the measured loop, except the shape-table metrics, which cover set-up and
the loop together because the tables are built during set-up.
"""

from __future__ import annotations

import importlib
import threading
from typing import Dict, List, Tuple

# (metric prefix, module, attribute path) of every watched function.
WATCHED = (
    ("grid.classify_in_matching", "grid", "classify_in_matching"),
    ("grid.point_of", "grid", "point_of"),
    ("grid.linear_index", "grid", "linear_index"),
    ("grid.enumerate_augmented_edges", "grid", "enumerate_augmented_edges"),
    ("func.eval", "func", "BoolFunc.eval"),
    ("func.BoolFunc.init", "func", "BoolFunc.__init__"),
    ("tester.single_test", "tester", "single_test"),
    ("tester.amplified_test", "tester", "amplified_test"),
    ("oracle.shape_tables", "oracle", "shape_tables"),
    ("oracle.violation_graph", "oracle", "violation_graph"),
    ("oracle.hopcroft_karp", "oracle", "hopcroft_karp"),
    ("oracle.distance_to_monotonicity", "oracle", "distance_to_monotonicity"),
    ("oracle.gamma_minus", "oracle", "gamma_minus"),
    ("oracle.violated_aug_edges", "oracle", "violated_aug_edges"),
    ("oracle.optimal_matching", "oracle", "optimal_matching"),
    ("oracle.brute_force_distance", "oracle", "brute_force_distance"),
    ("oracle.monotone_masks", "oracle", "monotone_masks"),
    ("verify.check_1", "verify", "check_one_sided"),
    ("verify.check_2", "verify", "check_distance_equivalence"),
    ("verify.check_3", "verify", "check_isoperimetry_regression"),
    ("verify.check_4", "verify", "check_decomposition_routing"),
    ("verify.check_5", "verify", "check_alternating_counts"),
    ("verify.check_6", "verify", "check_fourier_suite"),
    ("verify.check_7", "verify", "check_reduction"),
    ("verify.check_8", "verify", "check_calibrated_detection"),
    ("verify.check_9", "verify", "check_determinism"),
    ("verify.full_sweep", "verify", "full_sweep"),
    ("fourier.transform", "fourier", "transform"),
    ("fourier.line_delta_report", "fourier", "line_delta_report"),
    ("fourier.sort_comparisons", "fourier", "sort_comparisons"),
    ("fourier.edge_coefficient", "fourier", "edge_coefficient"),
    ("structure.conflict_free_decompose", "structure", "conflict_free_decompose"),
    ("structure.build_cover_graph", "structure", "build_cover_graph"),
    ("structure.route_disjoint_paths", "structure", "route_disjoint_paths"),
    ("structure.alternating_summary", "structure", "alternating_summary"),
    ("reduce.lift", "reduce", "lift"),
    ("reports.rate_rows", "reports", "rate_rows"),
    ("reports.isoperimetry_rows", "reports", "isoperimetry_rows"),
    ("reports.persistence_rows", "reports", "persistence_rows"),
    ("streams.derive_rng", "streams", "derive_rng"),
)

# Predicates passed to the BoolFunc constructor (the closed forms of
# func.generate, restrict_line and reduce.lift) are spans of this name.
PREDICATE = "func.predicate"

# (metric, unit, better).  Order is the order of BENCHMARK.json's per_layer.
METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("grid.classify_in_matching.calls", "calls/op", "lower"),
    ("grid.classify_in_matching.self_s", "s/op", "lower"),
    ("grid.point_of.calls", "calls/op", "lower"),
    ("grid.point_of.self_s", "s/op", "lower"),
    ("grid.linear_index.calls", "calls/op", "lower"),
    ("grid.linear_index.self_s", "s/op", "lower"),
    ("func.eval.calls", "calls/op", "lower"),
    ("func.eval.self_s", "s/op", "lower"),
    ("func.predicate.self_s", "s/op", "lower"),
    ("tester.single_test.calls", "calls/op", "lower"),
    ("tester.single_test.self_s", "s/op", "lower"),
    ("tester.walk.degenerate_frac", "ratio", "lower"),
    ("tester.walk.queries_per_walk", "queries/walk", "lower"),
    ("tester.walk.tau_gt1_frac", "ratio", "higher"),
    ("tester.walk.S_mean", "dims/walk", "higher"),
    ("tester.amplified_test.rounds_per_verdict", "walks/verdict", "lower"),
    ("oracle.shape_tables.cold_s", "s", "lower"),
    ("oracle.shape_tables.comparable_pairs", "count", "lower"),
    ("grid.enumerate_augmented_edges.self_s", "s", "lower"),
    ("oracle.violation_graph.calls", "calls/op", "lower"),
    ("oracle.violation_graph.self_s", "s/op", "lower"),
    ("oracle.violation_graph.arcs", "arcs/op", "lower"),
    ("oracle.hopcroft_karp.calls", "calls/op", "lower"),
    ("oracle.hopcroft_karp.self_s", "s/op", "lower"),
    ("oracle.distance_to_monotonicity.calls", "calls/op", "lower"),
    ("oracle.distance_to_monotonicity.self_s", "s/op", "lower"),
    ("oracle.gamma_minus.calls", "calls/op", "lower"),
    ("oracle.gamma_minus.self_s", "s/op", "lower"),
    ("oracle.violated_aug_edges.calls", "calls/op", "lower"),
    ("oracle.violated_aug_edges.self_s", "s/op", "lower"),
    ("oracle.optimal_matching.calls", "calls/op", "lower"),
    ("oracle.optimal_matching.self_s", "s/op", "lower"),
    ("oracle.brute_force_distance.self_s", "s/op", "lower"),
    ("oracle.monotone_masks.self_s", "s/op", "lower"),
    ("func.BoolFunc.init.calls", "calls/op", "lower"),
    ("func.BoolFunc.init.self_s", "s/op", "lower"),
    *((f"verify.check_{k}_s", "s/op", "lower") for k in range(1, 10)),
    ("verify.full_sweep.functions", "count/op", "lower"),
    ("verify.full_sweep.s", "s/op", "lower"),
    ("fourier.transform.self_s", "s/op", "lower"),
    ("fourier.line_delta_report.self_s", "s/op", "lower"),
    ("fourier.sort_comparisons.self_s", "s/op", "lower"),
    ("fourier.edge_coefficient.self_s", "s/op", "lower"),
    ("structure.conflict_free_decompose.self_s", "s/op", "lower"),
    ("structure.build_cover_graph.self_s", "s/op", "lower"),
    ("structure.route_disjoint_paths.self_s", "s/op", "lower"),
    ("structure.alternating_summary.self_s", "s/op", "lower"),
    ("reduce.lift.calls", "calls/op", "lower"),
    ("reports.rate_rows.s", "s/op", "lower"),
    ("reports.isoperimetry_rows.s", "s/op", "lower"),
    ("reports.persistence_rows.s", "s/op", "lower"),
    ("streams.derive_rng.calls", "calls/op", "lower"),
    ("streams.derive_rng.self_s", "s/op", "lower"),
    ("gc.collect_s", "s/op", "lower"),
    ("gc.gen2_collections", "count/op", "lower"),
)


def resolve_watched() -> Tuple[list, List[str]]:
    """(name, owner, attribute) for every watched function that exists.

    Also returns the names that could not be resolved, so a later version
    of gridmono that renames a function shows up as a named gap rather than
    as a silent zero.
    """
    watched = []
    missing: List[str] = []
    for prefix, module, path in WATCHED:
        owner = importlib.import_module(f"gridmono.{module}")
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        if owner is None or not callable(getattr(owner, "__dict__", {}).get(attr)):
            missing.append(prefix)
            continue
        watched.append((prefix, owner, attr))
    return watched, missing


class Captures:
    """Counts taken from return values: transcripts, arcs, tables, sweeps."""

    def __init__(self):
        self._lock = threading.Lock()
        self.walks = 0
        self.degenerate = 0
        self.queries = 0
        self.tau_gt1 = 0
        self.s_total = 0
        self.arcs = 0
        self.verdicts = 0
        self.verdict_rounds = 0
        self.comparable_pairs = 0
        self.cold_s = 0.0
        self.cold_s_by_shape: Dict[str, float] = {}
        self._tables: list = []
        self._sweeps: Dict[int, int] = {}
        self.current = ""     # label of the input the running operation uses
        self._walk_s: Dict[str, list] = {}

    def single_test(self, t, dur: float) -> None:
        if t is None:
            return
        with self._lock:   # criterion 9 runs single_test on worker threads
            self.walks += 1
            self.degenerate += t.y == t.x
            self.queries += t.queries_used
            self.tau_gt1 += t.tau > 1
            self.s_total += len(t.S)
            acc = self._walk_s.setdefault(self.current, [0, 0.0])
            acc[0] += 1
            acc[1] += dur

    def amplified_test(self, verdict, dur: float) -> None:
        if verdict is not None:
            self.verdicts += 1
            self.verdict_rounds += verdict.invocations

    def violation_graph(self, vg, dur: float) -> None:
        if vg is not None:
            self.arcs += len(vg.arcs)

    def shape_tables(self, st, dur: float) -> None:
        # a cache hit returns a table seen before; only builds are cold
        if st is None or any(st is seen for seen in self._tables):
            return
        self._tables.append(st)
        self.cold_s += dur
        self.comparable_pairs += len(st.comparable)
        key = f"{st.shape.n}^{st.shape.d}"
        self.cold_s_by_shape[key] = self.cold_s_by_shape.get(key, 0.0) + dur

    def full_sweep(self, rows, dur: float) -> None:
        # the sweep is cached per process; count each distinct result once
        if rows is not None:
            self._sweeps[id(rows)] = len(rows)

    def walk_s_by_label(self) -> Dict[str, float]:
        """Mean traced single_test time per input, in seconds."""
        return {label: s / n for label, (n, s) in self._walk_s.items()}

    @property
    def sweep_functions(self) -> int:
        return sum(self._sweeps.values())

    def callbacks(self) -> dict:
        return {
            "tester.single_test": self.single_test,
            "tester.amplified_test": self.amplified_test,
            "oracle.violation_graph": self.violation_graph,
            "oracle.shape_tables": self.shape_tables,
            "verify.full_sweep": self.full_sweep,
        }

    def snapshot(self) -> dict:
        return {"walks": self.walks, "degenerate": self.degenerate, "queries": self.queries,
                "tau_gt1": self.tau_gt1, "s_total": self.s_total, "arcs": self.arcs,
                "verdicts": self.verdicts, "verdict_rounds": self.verdict_rounds,
                "sweep_functions": self.sweep_functions}


def per_layer_metrics(totals_setup: dict, totals_end: dict, caps_setup: dict,
                      caps: Captures, gc_setup: Tuple[float, int], gc_end: Tuple[float, int],
                      ops: int) -> Dict[str, float]:
    """Every per-layer metric from tracer totals taken after set-up and at the end."""

    def loop(prefix: str, field: str) -> float:
        end = totals_end.get(prefix, {}).get(field, 0)
        start = totals_setup.get(prefix, {}).get(field, 0)
        return (end - start) / ops

    c_end = caps.snapshot()
    c = {k: c_end[k] - caps_setup[k] for k in c_end}
    walks = c["walks"]
    out: Dict[str, float] = {}
    for name, _, _ in METRICS:
        prefix, _, field = name.rpartition(".")
        if name == "oracle.shape_tables.cold_s":
            value = caps.cold_s
        elif name == "oracle.shape_tables.comparable_pairs":
            value = caps.comparable_pairs
        elif name == "grid.enumerate_augmented_edges.self_s":
            value = totals_end.get("grid.enumerate_augmented_edges", {}).get("self_s", 0.0)
        elif name == "tester.walk.degenerate_frac":
            value = c["degenerate"] / walks if walks else 0.0
        elif name == "tester.walk.queries_per_walk":
            value = c["queries"] / walks if walks else 0.0
        elif name == "tester.walk.tau_gt1_frac":
            value = c["tau_gt1"] / walks if walks else 0.0
        elif name == "tester.walk.S_mean":
            value = c["s_total"] / walks if walks else 0.0
        elif name == "tester.amplified_test.rounds_per_verdict":
            value = c["verdict_rounds"] / c["verdicts"] if c["verdicts"] else 0.0
        elif name == "oracle.violation_graph.arcs":
            value = c["arcs"] / ops
        elif name == "verify.full_sweep.functions":
            value = c["sweep_functions"] / ops
        elif name == "gc.collect_s":
            value = (gc_end[0] - gc_setup[0]) / ops
        elif name == "gc.gen2_collections":
            value = (gc_end[1] - gc_setup[1]) / ops
        elif field == "calls":
            value = loop(prefix, "calls")
        elif field == "self_s":
            value = loop(prefix, "self_s")
        elif name.startswith("verify.check_"):
            value = loop(name[:-2], "incl_s")
        else:   # ".s": inclusive time of a sweep or report function
            value = loop(prefix, "incl_s")
        out[name] = value
    return out
