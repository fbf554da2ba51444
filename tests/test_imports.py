"""What importing gridmono loads: the package, the tester and the Walsh
transforms import no scipy; the oracles do, and scipy.optimize loads only
where an assignment is solved."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridmono
from gridmono import oracle

SRC = str(Path(gridmono.__file__).resolve().parents[1])

ORACLE_NAMES = ("brute_force_distance", "distance_to_monotonicity", "gamma_minus",
                "influence_bound_check", "isoperimetry_report", "optimal_matching",
                "violated_aug_edges")


def last_json_line(script: str):
    """The last line `script` prints, as JSON, run in a fresh interpreter on SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(code: str) -> list:
    """The scipy modules a fresh interpreter holds after running `code`."""
    return last_json_line(
        f"{code}\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")


def test_import_loads_no_scipy():
    assert loaded_after("import gridmono") == []


def test_fourier_import_loads_no_scipy():
    # the line kernel imports the oracle's table checks when it first runs
    assert loaded_after("import gridmono.fourier") == []


@pytest.mark.parametrize("argv, code", [
    (["--family", "random_monotone", "--n", "8", "--d", "4", "--eps", "0.25"], 0),
    (["--family", "anti_slab", "--n", "8", "--d", "4"], 1),
    (["--family", "monotone_threshold", "--n", "3", "--d", "2"], 0),
    (["--family", "anti_slab", "--n", "3", "--d", "2"], 1),
])
def test_cli_test_loads_no_scipy(argv, code):
    run = f"from gridmono import cli\nassert cli.main({['test', *argv]!r}) == {code}"
    assert loaded_after(run) == []


def optimize_loaded_after(steps) -> list:
    """The labels of the (label, code) steps, run in order in one fresh
    interpreter, after which scipy.optimize is loaded."""
    return last_json_line("import json, sys\nloaded = []\n" + "".join(
        f"{code}\nif 'scipy.optimize' in sys.modules:\n    loaded.append({label!r})\n"
        for label, code in steps) + "print(json.dumps(loaded))")


def cli_step(argv) -> str:
    return f"from gridmono import cli\nassert cli.main({argv!r}) == 0"


def test_flow_only_entry_points_load_no_optimize(tmp_path):
    out = str(tmp_path / "r.csv")
    steps = [
        ("import gridmono.oracle", "from gridmono import oracle"),
        # 512 points: the optimal matching's counts come from the min-cost flow
        ("isoperimetry_report 8^3", "from gridmono import GridShape, generate, isoperimetry_report"
         "\nisoperimetry_report(generate('uniform_random', GridShape(8, 3), seed=1))"),
        ("distance_to_monotonicity", "from gridmono import distance_to_monotonicity"
         "\ndistance_to_monotonicity(generate('uniform_random', GridShape(4, 2), seed=1))"),
        ("rate", cli_step(["rate", "--shapes", "4x2", "--trials", "20", "--out", out])),
        ("persistence", cli_step(["persistence", "--shapes", "4x2", "--families", "anti_slab",
                                  "--taus", "1", "--outer", "4", "--inner", "4", "--out", out])),
        ("reduce", cli_step(["reduce", "--family", "anti_slab", "--n", "3", "--d", "2"])),
        ("fourier", cli_step(["fourier", "--line-n", "8", "--tables", "10"])),
    ]
    assert optimize_loaded_after(steps) == []


@pytest.mark.parametrize("label, code", [
    pytest.param("optimal_matching 4^2",
                 "from gridmono import GridShape, generate, optimal_matching"
                 "\noptimal_matching(generate('anti_slab', GridShape(4, 2)))", id="optimal_matching"),
    # the grid search certifies every function on 4^1, but leaves one on 2^3
    # to the assignment
    pytest.param("isoperimetry 2x3",
                 cli_step(["isoperimetry", "--shapes", "2x3", "--out", os.devnull]),
                 id="isoperimetry"),
])
def test_assignments_load_optimize_when_they_run(label, code):
    steps = [("import gridmono.oracle", "from gridmono import oracle"), (label, code)]
    assert optimize_loaded_after(steps) == [label]


def test_solver_is_a_module_attribute_before_any_assignment(monkeypatch):
    # what the fault-injection tests in test_oracle.py read and replace
    import scipy.optimize

    monkeypatch.delitem(vars(oracle), "linear_sum_assignment", raising=False)
    assert oracle.linear_sum_assignment is scipy.optimize.linear_sum_assignment
    assert vars(oracle)["linear_sum_assignment"] is scipy.optimize.linear_sum_assignment
    with pytest.raises(AttributeError, match="no_such_name"):
        oracle.no_such_name


def test_oracle_users_load_scipy_at_import():
    # the acceptance suite pays the scipy import in its set-up, not in its first check
    assert "scipy.optimize" in loaded_after("from gridmono import verify")


def test_every_exported_name_resolves():
    for name in gridmono.__all__:
        assert getattr(gridmono, name) is not None, name
    assert set(ORACLE_NAMES) <= set(gridmono.__all__)
    assert set(gridmono.__all__) <= set(dir(gridmono))


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from gridmono import *", namespace)
    assert set(gridmono.__all__) <= set(namespace)
    assert namespace["isoperimetry_report"] is oracle.isoperimetry_report


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gridmono.no_such_name
    assert not hasattr(gridmono, "no_such_name")


def test_oracle_names_read_the_oracle_module_on_each_access(monkeypatch):
    assert gridmono.isoperimetry_report is gridmono.oracle.isoperimetry_report
    for name in ORACLE_NAMES:
        assert getattr(gridmono, name) is getattr(oracle, name), name

    def stand_in(f):
        return None

    # a wrapper bound in gridmono.oracle (as a tracer binds one) is what callers get
    monkeypatch.setattr(oracle, "isoperimetry_report", stand_in)
    assert gridmono.isoperimetry_report is stand_in
    monkeypatch.undo()
    assert gridmono.isoperimetry_report is oracle.isoperimetry_report
    assert "isoperimetry_report" not in vars(gridmono)
