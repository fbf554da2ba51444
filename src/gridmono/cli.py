"""Batch experiment harness.

Subcommands run the tester, the exact oracles, the structural verification
pipeline, and the full acceptance suite, emitting plain CSV reports.  Exit
codes: 0 success/accept, 1 reject, 2 usage error, 3 capacity error,
4 integrity or verification failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from typing import Dict, List, Optional, Tuple

from .errors import CapacityError, FormatError, IntegrityError, NotGoodError
from .func import BoolFunc, generate, load
from .grid import GridShape
from .reduce import ReductionPlan, lift, plan
from .streams import derive_rng
from .tester import DEFAULT_CALIBRATION, amplified_test

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_INTEGRITY = 4

FAMILIES = ("uniform_random", "monotone_threshold", "random_monotone",
            "anti_slab", "block_parity", "noisy_monotone")


def _parse_shapes(text: str) -> List[tuple]:
    # "4x1,4x2,8x2" -> [(4,1), (4,2), (8,2)]
    shapes = []
    for part in text.split(","):
        try:
            n, d = part.lower().split("x")
            shapes.append((int(n), int(d)))
        except ValueError as exc:
            raise ValueError(f"bad shape {part!r}, expected NxD") from exc
    return shapes


def _parse_list(text: str, what: str) -> List[str]:
    # " a, b,," -> ["a", "b"]; a list with no entry is a usage error
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError(f"no {what} in {text!r}")
    return parts


def _parse_families(text: str) -> List[str]:
    fams = _parse_list(text, "family")
    for fam in fams:
        if fam not in FAMILIES:
            raise ValueError(f"unknown family {fam!r}")
    return fams


def _parse_ints(text: str) -> List[int]:
    return [int(p) for p in _parse_list(text, "integer")]


def _load_function(args) -> BoolFunc:
    if getattr(args, "load", None):
        return load(args.load)
    if args.n is None or args.d is None:
        raise ValueError("need --load or both --n and --d")
    shape = GridShape(args.n, args.d)
    return generate(args.family, shape, seed=args.seed)


def _config_defaults(args: argparse.Namespace, sub: argparse.ArgumentParser) -> Dict[str, object]:
    """The [command] section of --config, each key checked against the command's options."""
    cp = configparser.ConfigParser()
    try:
        if not cp.read(args.config):
            sub.error(f"cannot read config file {args.config}")
        if not cp.has_section(args.command):
            sub.error(f"config file has no [{args.command}] section")
        section = dict(cp.items(args.command))
    except configparser.Error as exc:
        sub.error(f"bad config file {args.config}: {exc}")
    for key in section:
        if key not in vars(args) or key in ("command", "config"):
            sub.error(f"unknown config key {key!r} in [{args.command}]")
        # an on/off flag reads a word such as "false", which as a string is truthy
        if isinstance(sub.get_default(key), bool):
            try:
                section[key] = cp.getboolean(args.command, key)
            except ValueError as exc:
                sub.error(f"bad config value for {key!r}: {exc}")
    return section


def build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(prog="gridmono", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands: Dict[str, argparse.ArgumentParser] = {}

    def add(name, summary):
        commands[name] = sub.add_parser(name, help=summary)
        return commands[name]

    def common(p, load_opt=True):
        p.add_argument("--config", help="INI file with a [subcommand] section")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        if load_opt:
            p.add_argument("--load", help="function file to test")
            p.add_argument("--family", choices=FAMILIES, default="anti_slab")
            p.add_argument("--n", type=int, default=None)
            p.add_argument("--d", type=int, default=None)

    p = add("test", "run the amplified tester on one function")
    common(p)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--calibration", type=float, default=DEFAULT_CALIBRATION)

    p = add("rate", "detection-rate sweep -> CSV")
    common(p, load_opt=False)
    p.add_argument("--shapes", default="4x1,4x2,8x2")
    p.add_argument("--families", default="anti_slab,block_parity")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--out", default="rate.csv")

    p = add("isoperimetry", "exact isoperimetry sweep -> CSV")
    common(p, load_opt=False)
    p.add_argument("--shapes", default="4x1,2x2")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--out", default="isoperimetry.csv")

    p = add("persistence", "persistence sweep -> CSV")
    common(p, load_opt=False)
    p.add_argument("--shapes", default="8x2")
    p.add_argument("--families", default="anti_slab,noisy_monotone")
    p.add_argument("--taus", default="1,2,4")
    p.add_argument("--outer", type=int, default=400)
    p.add_argument("--inner", type=int, default=200)
    p.add_argument("--out", default="persistence.csv")

    p = add("structure", "decomposition + routing verification")
    common(p)

    p = add("fourier", "transform and line-inequality checks")
    common(p, load_opt=False)
    p.add_argument("--line-n", type=int, default=8, dest="line_n")
    p.add_argument("--tables", type=int, default=100)

    p = add("reduce", "plan, lift, and compare distances")
    common(p)

    p = add("verify", "run the full acceptance suite")
    common(p, load_opt=False)
    p.add_argument("--json", action="store_true",
                   help="print one JSON object per criterion instead of a status line")
    return parser, commands


def _print_plan(p: ReductionPlan) -> None:
    short = p.d + p.i
    print(f"plan: i={p.i} N={p.N} m={p.m} blocks={p.m}x{short}+{p.n - p.m}x{short + 1}")


def cmd_test(args) -> int:
    f = _load_function(args)
    eps = args.eps
    if not f.shape.is_pow2():
        # the walks need a power-of-two side: test the lift, which keeps
        # monotonicity and at least a sixth of the distance
        p = plan(f.shape.n, f.shape.d)
        _print_plan(p)
        f, eps = lift(p, f), eps / 6
    verdict = amplified_test(f, eps, args.calibration,
                             derive_rng(args.seed, "cli-test"))
    print(f"verdict={'ACCEPT' if verdict.accepted else 'REJECT'} "
          f"invocations={verdict.invocations} queries={verdict.total_queries}")
    return EXIT_OK if verdict.accepted else EXIT_REJECT


def cmd_rate(args) -> int:
    from . import reports

    shapes = _parse_shapes(args.shapes)
    families = _parse_families(args.families)
    rows = reports.rate_rows(shapes, families, args.trials, args.seed)
    reports.write_report(args.out, reports.RATE_HEADER, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_isoperimetry(args) -> int:
    from . import reports

    shapes = _parse_shapes(args.shapes)
    rows = reports.isoperimetry_rows(shapes, args.seed, samples=args.samples)
    reports.write_report(args.out, reports.ISO_HEADER, rows)
    minima = {}
    for row in rows:
        parts = row.split(",")
        key = (parts[0], parts[1])
        vals = tuple(float(v) for v in parts[8:11])
        cur = minima.get(key)
        minima[key] = vals if cur is None else tuple(map(min, cur, vals))
    for (n, d), (mar, edg, ver) in sorted(minima.items()):
        print(f"shape {n}x{d}: min margulis={mar:.6g} min edge={edg:.6g} min vertex={ver:.6g}")
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_persistence(args) -> int:
    from . import reports

    shapes = _parse_shapes(args.shapes)
    families = _parse_families(args.families)
    taus = _parse_ints(args.taus)
    rows = reports.persistence_rows(shapes, families, taus, args.outer,
                                    args.inner, args.seed)
    reports.write_report(args.out, reports.PERSISTENCE_HEADER, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_structure(args) -> int:
    from .verify import structural_summary

    for line in structural_summary(_load_function(args)):
        print(line)
    return EXIT_OK


def cmd_fourier(args) -> int:
    from .fourier import fourier_spot_checks

    ok, lines = fourier_spot_checks(args.line_n, args.tables, args.seed)
    for line in lines:
        print(line)
    return EXIT_OK if ok else EXIT_INTEGRITY


def cmd_reduce(args) -> int:
    from fractions import Fraction

    from .oracle import distance_to_monotonicity

    f = _load_function(args)
    shape = f.shape
    p = plan(shape.n, shape.d)
    _print_plan(p)
    g = lift(p, f)
    eps_f = distance_to_monotonicity(f).eps
    eps_g = distance_to_monotonicity(g).eps
    print(f"distance(f)={eps_f} distance(lift)={eps_g} sixth={Fraction(eps_f, 6)}")
    if eps_g < Fraction(eps_f, 6):
        print("FAIL: lifted distance below a sixth of the original")
        return EXIT_INTEGRITY
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all(args.seed)
    failed = 0
    for res in results:
        if args.json:
            print(json.dumps({
                "criterion": res.criterion, "name": res.name, "passed": res.passed,
                "detail": res.detail, "seconds": round(res.seconds, 3),
                "work": res.work, "work_unit": res.work_unit}))
        else:
            status = "PASS" if res.passed else "FAIL"
            print(f"{status} criterion-{res.criterion} {res.name}: {res.detail}")
        if not res.passed:
            failed += 1
    return EXIT_OK if failed == 0 else EXIT_INTEGRITY


COMMANDS = {
    "test": cmd_test,
    "rate": cmd_rate,
    "isoperimetry": cmd_isoperimetry,
    "persistence": cmd_persistence,
    "structure": cmd_structure,
    "fourier": cmd_fourier,
    "reduce": cmd_reduce,
    "verify": cmd_verify,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # file values become the command's defaults, so any flag given
            # on the command line, in whatever form argparse accepts, wins
            sub = commands[args.command]
            sub.set_defaults(**_config_defaults(args, sub))
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return COMMANDS[args.command](args)
    except (ValueError, FormatError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (IntegrityError, NotGoodError) as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY


if __name__ == "__main__":
    sys.exit(main())
