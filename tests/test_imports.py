"""What importing gridmono loads: the package, the tester and the Walsh
transforms import no scipy; the oracles do."""

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


def loaded_after(code: str) -> list:
    """The scipy modules a fresh interpreter holds after running `code`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    script = (f"{code}\nimport json, sys\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


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
