"""CLI behavior: exit codes, report files, config handling."""

import hashlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridmono
from gridmono import fourier, oracle, reduce, reports, structure, verify
from gridmono.errors import CapacityError
from gridmono.cli import EXIT_CAPACITY, EXIT_INTEGRITY, EXIT_OK, EXIT_REJECT, EXIT_USAGE, main
from gridmono.func import generate, save
from gridmono.grid import GridShape


def run(argv):
    return main(argv)


def test_test_subcommand_monotone_accepts(capsys):
    code = run(["test", "--family", "monotone_threshold", "--n", "4", "--d", "2",
                "--seed", "5"])
    assert code == EXIT_OK
    assert "ACCEPT" in capsys.readouterr().out


def test_test_subcommand_far_function_rejects(capsys):
    code = run(["test", "--family", "anti_slab", "--n", "8", "--d", "2", "--seed", "5"])
    assert code == EXIT_REJECT
    assert "REJECT" in capsys.readouterr().out


def test_test_subcommand_loads_file(tmp_path, capsys):
    f = generate("anti_slab", GridShape(8, 2))
    path = tmp_path / "f.agf"
    save(f, str(path))
    assert run(["test", "--load", str(path)]) == EXIT_REJECT
    capsys.readouterr()


def test_test_subcommand_lifts_other_n(capsys):
    # n = 3 is tested through the lift onto 8^2 at a sixth of eps; the plan comes first
    from gridmono.reduce import lift, plan
    from gridmono.streams import derive_rng
    from gridmono.tester import DEFAULT_CALIBRATION, amplified_test

    for family, code in (("monotone_threshold", EXIT_OK), ("anti_slab", EXIT_REJECT)):
        assert run(["test", "--family", family, "--n", "3", "--d", "2", "--eps", "0.3"]) == code
        p = plan(3, 2)
        verdict = amplified_test(lift(p, generate(family, GridShape(3, 2), seed=0)), 0.3 / 6,
                                 DEFAULT_CALIBRATION, derive_rng(0, "cli-test"))
        assert capsys.readouterr().out.splitlines() == [
            "plan: i=0 N=8 m=1 blocks=1x2+2x3",
            f"verdict={'ACCEPT' if verdict.accepted else 'REJECT'} "
            f"invocations={verdict.invocations} queries={verdict.total_queries}"]


def test_test_subcommand_power_of_two_prints_no_plan(capsys):
    assert run(["test", "--family", "anti_slab", "--n", "4", "--d", "2"]) == EXIT_REJECT
    assert capsys.readouterr().out.splitlines() == ["verdict=REJECT invocations=7 queries=11"]


def test_test_subcommand_lift_past_the_index_range(capsys):
    # the lift of 3^30 is 128^30 = 2^210 points, which the walks reach as any other grid
    assert run(["test", "--family", "anti_slab", "--n", "3", "--d", "30"]) == EXIT_REJECT
    assert capsys.readouterr().out.splitlines()[0] == "plan: i=12 N=128 m=1 blocks=1x42+2x43"


def test_test_subcommand_past_2_62_points(capsys):
    # 2^400 points: tau_ceiling(400) = 1, so the walks take one or two steps
    assert run(["test", "--family", "anti_slab", "--n", "2", "--d", "400"]) == EXIT_REJECT
    assert "REJECT" in capsys.readouterr().out


def test_rate_capacity_exit_past_2_62_points(tmp_path, capsys):
    # the grid builds; the exact distance refuses it, naming its size as a power of two
    out = tmp_path / "r.csv"
    assert run(["rate", "--shapes", "2x20000", "--families", "anti_slab",
                "--out", str(out)]) == EXIT_CAPACITY
    assert "2^20000" in capsys.readouterr().err and not out.exists()


def test_test_subcommand_side_cap(capsys):
    # a side of 2^64 would overflow the walk kernel's int64 coordinates
    assert run(["test", "--family", "anti_slab", "--n", str(1 << 64), "--d", "1"]) == EXIT_CAPACITY
    err = capsys.readouterr().err
    assert err.startswith("capacity error: grid needs 2^64") and "Traceback" not in err


def test_test_subcommand_dimension_cap(capsys):
    # refused by the dimension cap, before any power of n is computed
    assert run(["test", "--family", "anti_slab", "--n", "2", "--d", "1000000000"]) == EXIT_CAPACITY
    assert "65536" in capsys.readouterr().err


def test_rate_report_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    base = ["rate", "--shapes", "4x1,4x2", "--families", "anti_slab",
            "--trials", "200", "--seed", "7"]
    assert run(base + ["--out", str(out1)]) == EXIT_OK
    assert run(base + ["--out", str(out2)]) == EXIT_OK
    capsys.readouterr()
    a, b = out1.read_bytes(), out2.read_bytes()
    assert a == b
    header = a.decode().splitlines()[0]
    assert header == "n,d,family,eps_true,trials,rejections,rate,wilson_lo,wilson_hi"


def test_isoperimetry_report(tmp_path, capsys):
    out = tmp_path / "iso.csv"
    assert run(["isoperimetry", "--shapes", "4x1", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "n,d,function_id,eps,I,I_minus,gamma_minus,r,margulis_ratio,edge_ratio,vertex_ratio"
    assert len(lines) == 1 + 11  # eps-far functions on the 4-point line
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[3]) > 0


def test_isoperimetry_capacity_exit(tmp_path, capsys):
    out = tmp_path / "iso.csv"
    code = run(["isoperimetry", "--shapes", "2x17", "--out", str(out)])   # twice the 2^16 cap
    assert code == EXIT_CAPACITY
    capsys.readouterr()


def test_isoperimetry_sample_capacity_exit(tmp_path, capsys):
    # refused before any mask is drawn: a drawn mask would stop this test
    out = tmp_path / "iso.csv"
    with mock.patch("gridmono.reports.derive_rng", side_effect=AssertionError("drew masks")):
        code = run(["isoperimetry", "--shapes", "2x16", "--samples", "1000000000",
                    "--out", str(out)])
    assert code == EXIT_CAPACITY and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("capacity error: isoperimetry samples") and "Traceback" not in err


def test_isoperimetry_sample_capacity_boundary():
    # 64 points x 2^20 samples is exactly the cap; one more sample is over it
    assert 64 << 20 == reports.ISO_SAMPLE_CAPACITY
    with mock.patch("gridmono.reports.derive_rng", side_effect=LookupError("at the cap")):
        with pytest.raises(LookupError):
            reports.isoperimetry_rows([(8, 2)], 0, samples=1 << 20)
        with pytest.raises(CapacityError):
            reports.isoperimetry_rows([(8, 2)], 0, samples=(1 << 20) + 1)
        # exhaustive grids draw no samples, so the cap does not apply to them
        assert len(reports.isoperimetry_rows([(4, 1)], 0, samples=1 << 40)) == 11


@pytest.mark.parametrize("calibration", ["inf", "nan", "1e308"])
def test_test_subcommand_refuses_a_calibration_without_a_finite_count(calibration, capsys):
    # inf and nan are not calibrations; 1e308 is, but its walk count overflows
    code = run(["test", "--family", "anti_slab", "--n", "8", "--d", "2",
                "--calibration", calibration])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "calibration" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_test_subcommand_refuses_walks_past_the_philox_counter(capsys):
    # a 203-digit walk count: walk k's words start at Philox block 2k, whose
    # counter is one 64-bit word, so the count is refused before any walk
    code = run(["test", "--family", "monotone_threshold", "--n", "8", "--d", "4",
                "--calibration", "1e200"])
    assert code == EXIT_CAPACITY
    err = capsys.readouterr().err
    assert err.startswith("capacity error: amplified_test needs about 2^")
    assert "walks, above the limit of 9223372036854775808" in err
    assert len(err.splitlines()) == 1


def test_test_capacity_exit(capsys):
    # a 2^40-point table must be refused up front, not built
    code = run(["test", "--family", "uniform_random", "--n", "2", "--d", "40"])
    assert code == EXIT_CAPACITY
    err = capsys.readouterr().err
    assert "uniform_random" in err and str(2 ** 40) in err


def test_persistence_report(tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert run(["persistence", "--shapes", "8x2", "--families", "anti_slab",
                "--taus", "1,2", "--outer", "40", "--inner", "30",
                "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "n,d,tau,family,nonpersistent_fraction,reference_bound"
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert 0.0 <= float(cells[4]) <= 1.0
        assert float(cells[5]) >= 0.0


def test_structure_subcommand(capsys):
    assert run(["structure", "--family", "anti_slab", "--n", "4", "--d", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "|M*|" in out and "disjoint_paths" in out


# the CI pins of `gridmono structure`: each (S, T, ell) cover graph and
# consistent pair is built once per GridPoset, and the summaries must not move
@pytest.mark.parametrize("argv, digest", [
    (["--family", "block_parity", "--n", "4", "--d", "2"],
     "e97601860e022fca8fc679b53042e931aa04db88527fb8416bd56cc68856722e"),
    (["--family", "uniform_random", "--n", "8", "--d", "3", "--seed", "1"],
     "42e54d0c1576ce0728c582afb457e94999d191c725106aea36eb54084f1538df"),
])
def test_structure_stdout_pinned(argv, digest, capsys):
    assert run(["structure"] + argv) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_reduce_subcommand(capsys):
    assert run(["reduce", "--family", "anti_slab", "--n", "3", "--d", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "plan:" in out and "distance" in out


# the CI pins of `gridmono reduce`: the plan and both exact distances
@pytest.mark.parametrize("argv, digest", [
    (["--family", "anti_slab", "--n", "3", "--d", "2"],
     "d1f0cd5dc7965b9be94bc6c6fd6e728ad0ae2523d9c17aefdd88bdc09ef86323"),
    (["--family", "uniform_random", "--n", "5", "--d", "2", "--seed", "1"],
     "d2640894983ae52c6e8bca85ce0e0454c20745986f1d248969051a609f9c74aa"),
])
def test_reduce_stdout_pinned(argv, digest, capsys):
    assert run(["reduce"] + argv) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_fourier_subcommand(capsys):
    assert run(["fourier", "--line-n", "8", "--tables", "20"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "parseval" in out and "0 failures" in out


def test_fourier_stdout_pinned(capsys):
    # the CI pin: 100 Parseval tables, a whole block of 64 and a partial one
    assert run(["fourier", "--line-n", "8", "--tables", "100"]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "9f08a969fc8dd5e5b4571669db8c7dd60ab503c766e2c73a404f41773af87239")


def test_fourier_line_sweep_capacity_exit():
    # 2^32 line functions would run for days; in a subprocess with a timeout,
    # so that a missing guard fails this test instead of hanging the suite
    env = dict(os.environ)
    src = str(Path(gridmono.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gridmono.cli", "fourier", "--line-n", "32", "--tables", "1"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_CAPACITY, proc.stderr
    assert "line sweep" in proc.stderr and "32" in proc.stderr


# Boundary values of `gridmono test`'s options, as argv strings.  Each valid
# combination finishes in seconds.  The valid runs with no bound on time (a
# monotone input at a huge walk count: d near 2^16, eps near 0 or a
# calibration near 10^12; README "Notes on scale") are not drawn here.
TEST_ARGV_VALUES = {
    "--family": ("anti_slab", "monotone_threshold", "random_monotone", "uniform_random",
                 "block_parity", "noisy_monotone", "nope"),
    "--n": ("0", "1", "2", "3", "-1", "65535", "65537", str(2 ** 62 - 1), str(2 ** 62),
            str(2 ** 62 + 1), str(10 ** 12), "nan", "2x3"),
    "--d": ("0", "1", "2", "3", "-1", "65537", str(2 ** 62 + 1), str(10 ** 12), "inf", ""),
    "--eps": ("0", "1", "-1", "nan", "inf", "0.5", "0.999", "1e-300"),
    "--calibration": ("0", "-1", "nan", "inf", "1e-300", "1", "1e300"),
}


ADDRESS_SPACE = 2 << 30   # bytes an example may map
EXAMPLE_SECONDS = 60


def run_in_subprocess(argv):
    """(exit code, stderr) of `python -m gridmono.cli argv` in a fresh
    interpreter, under the address-space limit and the timeout."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(gridmono.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))

    proc = subprocess.run([sys.executable, "-m", "gridmono.cli"] + argv, env=env,
                          capture_output=True, text=True, timeout=EXAMPLE_SECONDS,
                          preexec_fn=limit)
    return proc.returncode, proc.stderr


def run_forked(argv):
    """(exit code, stderr) of `main(argv)` in a forked child of this process,
    under the address-space limit and an alarm at the timeout.

    The child starts with every module this file imported, `gridmono.cli`
    and the modules it loads lazily among them, so an example costs a fork,
    not an interpreter's start and imports.  Its stdout goes to /dev/null
    and its stderr to a temporary file; an exception other than SystemExit
    prints its traceback there and exits 1, as the interpreter would.
    """
    with tempfile.TemporaryFile() as err:
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:   # the child: never return into the test run
            code = 1
            try:
                resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, 1)
                os.dup2(err.fileno(), 2)
                sys.stdout = open(1, "w", closefd=False)
                sys.stderr = open(2, "w", closefd=False)
                signal.signal(signal.SIGALRM, signal.SIG_DFL)
                signal.alarm(EXAMPLE_SECONDS)
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except BaseException:
                    traceback.print_exc()
                sys.stdout.flush()
                sys.stderr.flush()
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        err.seek(0)
        return os.waitstatus_to_exitcode(status), err.read().decode(errors="replace")


def assert_exits_as_documented(command, options, codes, runner=run_forked):
    """`gridmono command` with the given flags, the None ones left out, run
    by `runner`: it exits with one of codes, never with a traceback."""
    argv = [command] + [part for flag, value in options.items() if value is not None
                        for part in (flag, value)]
    code, stderr = runner(argv)
    assert code in codes, (argv, code, stderr)
    assert "Traceback" not in stderr, (argv, stderr)


@settings(max_examples=12, derandomize=True, deadline=None)
@given(st.fixed_dictionaries({flag: st.sampled_from(values) if flag in ("--n", "--d")
                              else st.none() | st.sampled_from(values)
                              for flag, values in TEST_ARGV_VALUES.items()}))
def test_test_subcommand_exits_as_documented_on_boundary_argv(options):
    """Exit 0 or 1 (a verdict), 2 (usage) or 3 (capacity)."""
    assert_exits_as_documented(
        "test", options, (EXIT_OK, EXIT_REJECT, EXIT_USAGE, EXIT_CAPACITY))


# Boundary values of `gridmono rate`'s options.  Trial counts of 2^62 and
# more are valid but have no bound on time (README "Notes on scale").
RATE_ARGV_VALUES = {
    "--shapes": ("4x1", "2x65536", "3x2", "0x3", "1x3", "4x0", "2x", "2x65537"),
    "--families": ("anti_slab", "nope", ","),
    "--trials": ("1", "0", "-1", "nan"),
}


@settings(max_examples=6, derandomize=True, deadline=None)
@given(st.fixed_dictionaries({flag: st.sampled_from(values)
                              for flag, values in RATE_ARGV_VALUES.items()}))
def test_rate_subcommand_exits_as_documented_on_boundary_argv(options):
    """Exit 0 (a report), 2 (usage) or 3 (capacity)."""
    with tempfile.TemporaryDirectory() as tmp:
        assert_exits_as_documented("rate", {**options, "--out": os.path.join(tmp, "r.csv")},
                                   (EXIT_OK, EXIT_USAGE, EXIT_CAPACITY))


# One boundary example a subcommand in a fresh interpreter, as a user runs
# it; the examples above run in forked children of the test process.
@pytest.mark.parametrize("command, options, codes", [
    ("test", {"--family": "anti_slab", "--n": "65535", "--d": "3", "--eps": "0.5"},
     (EXIT_OK, EXIT_REJECT, EXIT_USAGE, EXIT_CAPACITY)),
    ("rate", {"--shapes": "2x65537", "--families": "anti_slab", "--trials": "1"},
     (EXIT_OK, EXIT_USAGE, EXIT_CAPACITY)),
])
def test_boundary_argv_exits_as_documented_in_a_fresh_interpreter(command, options, codes,
                                                                   tmp_path):
    if command == "rate":
        options = {**options, "--out": str(tmp_path / "r.csv")}
    assert_exits_as_documented(command, options, codes, run_in_subprocess)


def test_fourier_table_count_capacity_exit(monkeypatch, capsys):
    # refused before the first table is drawn: 10^12 tables would run for weeks
    drawn = []

    def defects(rng, tables):
        drawn.append(tables)
        return 0.0, 0.0

    monkeypatch.setattr(fourier, "_transform_defects", defects)
    most = fourier.SPOT_CHECK_POINTS // fourier.PARSEVAL_SHAPE.size
    for tables in (10 ** 12, most + 1):
        assert run(["fourier", "--tables", str(tables)]) == EXIT_CAPACITY
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "fourier spot checks" in err, err
    assert drawn == []
    assert run(["fourier", "--tables", str(most)]) == EXIT_OK
    assert drawn == [most]


def test_usage_errors(capsys):
    assert run(["rate", "--families", "bogus_family", "--out", "/dev/null"]) == EXIT_USAGE
    assert run(["rate", "--shapes", "4by2", "--out", "/dev/null"]) == EXIT_USAGE
    assert run(["test"]) == EXIT_USAGE  # no --load and no shape
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["rate", "--shapes", "4x1", "--families", ","],
    ["rate", "--shapes", "4x1", "--families", " , "],
    ["persistence", "--shapes", "4x1", "--families", ","],
    ["persistence", "--shapes", "4x1", "--taus", ","],
])
def test_empty_lists_are_usage_errors(argv, tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert run(argv + ["--out", str(out)]) == EXIT_USAGE
    assert "usage error: no " in capsys.readouterr().err
    assert not out.exists()


def test_empty_list_in_config_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "r.csv"
    for section, key in (("rate", "families"), ("persistence", "taus")):
        cfg = tmp_path / "empty.ini"
        cfg.write_text(f"[{section}]\nshapes = 4x1\n{key} = ,\n")
        assert run([section, "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "usage error: no " in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["persistence", "--shapes", "4x1", "--outer", "0"],
    ["persistence", "--shapes", "4x1", "--inner", "0"],
    ["isoperimetry", "--shapes", "8x2", "--samples", "0"],
    ["fourier", "--tables", "0"],
    ["rate", "--shapes", "4x1", "--trials", "0"],
])
def test_zero_sample_counts_are_usage_errors(argv, tmp_path, capsys):
    out = [] if argv[0] == "fourier" else ["--out", str(tmp_path / "r.csv")]
    assert run(argv + out) == EXIT_USAGE
    assert "must be >= 1" in capsys.readouterr().err


# SHA-256 of reports whose bytes must not change unless a stream is meant to
@pytest.mark.parametrize("argv, digest", [
    (["rate", "--shapes", "4x1,4x2", "--trials", "300"],
     "e74868a7eab9648f5b7c65908acae123bb75433519122a73ea47a4096a3b9802"),
    (["isoperimetry"],
     "0c8ab04d8c4faa66cccc1cfae0efd34f2cb59b6ba5a87675c9337a43b9427ac4"),
    (["persistence", "--shapes", "8x2", "--families", "anti_slab", "--taus", "1,2",
      "--outer", "50", "--inner", "40"],
     "4784588bb82a811a37ffd7860be21cd38f0e4847d3ab9f3764773e1b51ab8b81"),
    (["fourier", "--line-n", "8", "--tables", "20"],
     "f8be8fc6d61e5a54c9f9417b6861db5a01dc2b92c1ce4c900529658de1974ba6"),
    (["isoperimetry", "--shapes", "8x2,3x3", "--samples", "300"],
     "5fe59175c4eb635e27c88012aff7d06ecbd6bfd1145d5971c5f35da87e8cd62f"),
    # 20 one-table flows on 8^3: 14 certified by the grid search alone, 6
    # through the dijkstra and Dinic phases
    (["isoperimetry", "--shapes", "8x3", "--samples", "20"],
     "8156c4afa919b23c09f77a362075b2972d765ac8a5670a9045f807c0220c7db5"),
    (["isoperimetry", "--shapes", "2x13", "--samples", "3"],
     "7b4476c5216c1301b65c0e36b8eaa360aa30ee1a7d93b88f8077089380f0053a"),
    # the nine criteria's text, whatever worker ran each
    (["verify"],
     "4f86af44f5d5988e0064299b53d38a1d262b3923fae1507d45ef4d86491c011a"),
])
def test_report_bytes_pinned(argv, digest, tmp_path, capsys):
    out = tmp_path / "report.csv"
    to_stdout = argv[0] in ("fourier", "verify")
    assert run(argv + ([] if to_stdout else ["--out", str(out)])) == EXIT_OK
    stdout = capsys.readouterr().out
    data = stdout.encode() if to_stdout else out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


# The walks must not move: an 8^16 verdict's invocation and query counts
@pytest.mark.parametrize("family, code, line", [
    ("monotone_threshold", EXIT_OK, "verdict=ACCEPT invocations=3033 queries=6060"),
    ("block_parity", EXIT_REJECT, "verdict=REJECT invocations=13 queries=26"),
    ("anti_slab", EXIT_REJECT, "verdict=REJECT invocations=51 queries=102"),
])
def test_test_subcommand_verdicts_pinned_at_8_to_the_16(family, code, line, capsys):
    assert run(["test", "--family", family, "--n", "8", "--d", "16"]) == code
    assert capsys.readouterr().out.splitlines() == [line]


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[rate]\nshapes = 4x1\nfamilies = anti_slab\ntrials = 100\nseed = 3\n")
    out = tmp_path / "r.csv"
    assert run(["rate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[4] == "100"  # trials taken from the file

    # flags override the file, in every form argparse accepts
    out2 = tmp_path / "r2.csv"
    for flag in (["--trials", "50"], ["--tri", "50"], ["--trials=50"]):
        assert run(["rate", "--config", str(cfg), *flag, "--out", str(out2)]) == EXIT_OK
        capsys.readouterr()
        assert out2.read_text().splitlines()[1].split(",")[4] == "50", flag


def test_config_typed_values(tmp_path, capsys):
    # --n has no flag default; the file value must still arrive as an int
    cfg = tmp_path / "t.ini"
    cfg.write_text("[test]\nfamily = anti_slab\nn = 8\nd = 2\nseed = 4\n")
    assert run(["test", "--config", str(cfg)]) == EXIT_REJECT
    capsys.readouterr()


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[rate]\nbogus = 1\n")
    code = run(["rate", "--config", str(cfg), "--out", "/dev/null"])
    assert code == EXIT_USAGE
    capsys.readouterr()


def test_config_rejects_mistyped_values(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[rate]\ntrials = x\n")
    code = run(["rate", "--config", str(cfg), "--out", "/dev/null"])
    assert code == EXIT_USAGE
    assert "--trials" in capsys.readouterr().err


def test_config_rejects_malformed_files(tmp_path, capsys):
    # no section header; a bare % that interpolation cannot parse
    for text in ("trials = 5\n", "[rate]\nout = a%b.csv\n"):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        assert run(["rate", "--config", str(cfg), "--out", "/dev/null"]) == EXIT_USAGE, text
        assert "bad config file" in capsys.readouterr().err


VERIFY_CHECKS = ("check_one_sided", "check_distance_equivalence", "check_isoperimetry_regression",
                 "check_decomposition_routing", "check_alternating_counts", "check_fourier_suite",
                 "check_reduction", "check_calibrated_detection", "check_determinism")


def stub_slow_checks(monkeypatch, failing=()):
    """Every criterion but the determinism check (a fraction of a second) stubbed."""
    for k, name in enumerate(VERIFY_CHECKS[:-1], 1):
        result = verify.CheckResult(k, f"stub-{k}", k not in failing, f"stub {k}", 10 * k, "items")
        monkeypatch.setattr(verify, name, lambda *args, result=result: result)


def test_verify_json_schema(monkeypatch, capsys):
    stub_slow_checks(monkeypatch)
    assert run(["verify", "--json"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9
    for k, line in enumerate(lines, 1):
        obj = json.loads(line)
        assert list(obj) == ["criterion", "name", "passed", "detail", "seconds", "work",
                             "work_unit"]
        assert obj["criterion"] == k and obj["passed"] is True
        assert isinstance(obj["name"], str) and isinstance(obj["detail"], str)
        assert isinstance(obj["seconds"], float) and obj["seconds"] >= 0
        assert isinstance(obj["work"], int) and isinstance(obj["work_unit"], str)
    real = json.loads(lines[-1])
    assert real["name"] == "determinism" and real["work_unit"] == "report rows"
    assert real["work"] == 4 + 21 + 2 and real["seconds"] > 0


def test_verify_text_and_failures(monkeypatch, tmp_path, capsys):
    stub_slow_checks(monkeypatch, failing=(2,))
    assert run(["verify"]) == EXIT_INTEGRITY
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["PASS criterion-1 stub-1: stub 1", "FAIL criterion-2 stub-2: stub 2"]
    assert lines[-1].startswith("PASS criterion-9 determinism: ")
    # a flag read from a config file takes its boolean value, not the string's truth
    cfg = tmp_path / "v.ini"
    for word, is_json in (("false", False), ("no", False), ("true", True)):
        cfg.write_text(f"[verify]\njson = {word}\n")
        assert run(["verify", "--config", str(cfg)]) == EXIT_INTEGRITY
        assert capsys.readouterr().out.startswith("{") == is_json, word
    cfg.write_text("[verify]\njson = maybe\n")
    assert run(["verify", "--config", str(cfg)]) == EXIT_USAGE
    assert "json" in capsys.readouterr().err
