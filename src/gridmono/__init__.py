"""Monotonicity testing on augmented hypergrids, with exact desk-scale oracles.

The exact oracles load scipy, which the tester never calls, so their names
resolve on first access (see __getattr__) and `import gridmono` stays
scipy-free.
"""

from .errors import CapacityError, FormatError, IntegrityError, NotGoodError
from .func import BoolFunc, generate, is_monotone, load, restrict_line, save, sort_line
from .grid import (
    AugEdge,
    GridShape,
    MatchingId,
    classify_in_matching,
    compare,
    directed_distance,
    enumerate_augmented_edges,
    enumerate_matching,
    linear_index,
    point_of,
)
from .tester import (
    DEFAULT_CALIBRATION,
    amplified_test,
    detection_rate,
    edge_test,
    persistence_fraction,
    sample_tau,
    single_test,
)

__all__ = [
    "AugEdge",
    "BoolFunc",
    "CapacityError",
    "DEFAULT_CALIBRATION",
    "FormatError",
    "GridShape",
    "IntegrityError",
    "MatchingId",
    "NotGoodError",
    "amplified_test",
    "brute_force_distance",
    "classify_in_matching",
    "compare",
    "detection_rate",
    "directed_distance",
    "distance_to_monotonicity",
    "edge_test",
    "enumerate_augmented_edges",
    "enumerate_matching",
    "gamma_minus",
    "generate",
    "influence_bound_check",
    "is_monotone",
    "isoperimetry_report",
    "linear_index",
    "load",
    "optimal_matching",
    "persistence_fraction",
    "point_of",
    "restrict_line",
    "sample_tau",
    "save",
    "single_test",
    "sort_line",
    "violated_aug_edges",
]

_ORACLE_NAMES = frozenset({
    "brute_force_distance",
    "distance_to_monotonicity",
    "gamma_minus",
    "influence_bound_check",
    "isoperimetry_report",
    "optimal_matching",
    "violated_aug_edges",
})


def __getattr__(name):
    # not cached here: each access reads gridmono.oracle, so a rebinding there is seen
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _ORACLE_NAMES)
