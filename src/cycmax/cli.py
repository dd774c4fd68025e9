"""Command-line front end.

Subcommands:

* ``analyze``   window-average table, irreducible maximal intervals,
                inclusion poset, majorizing rotation of a tuple file
* ``sum``       cyclic sum for given radii (or a constant radius)
* ``maxsum``    maximal-average sum and its argmax radii
* ``minimize``  simplex minimization of the chain objective
* ``sweep``     CSV sweep of the cyclic minimum over a range of n
* ``verify``    seeded self-check suites

Exit codes: 0 success, 1 input error, 3 verification failure.  The
library rejects bad input as it reads it, with ``CycmaxError``; this
module only maps that error, and no other, to one ``error:`` line on
stderr and exit code 1.  Every solve is certified as it is computed, so
any other exception, such as a root that fails its certificate, is a bug
and ends in a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import orjson

from .asymptotics import estimate_constant_a, geometric_grid, records_to_csv, sweep
from . import reduction
from .errors import CycmaxError
from .periodic import FLOAT, RATIONAL, PeriodicTuple, tuple_from_json
from .reduction import brute_force_oracle, minimize_chain
from .structure import IntervalPoset, average_table, build_poset, full_maximal_start
from .sums import RadiusTuple, diananda_sum, max_avg_sum, radii_from_json, sum_with_radii
from .verify import run_suites

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 3

ORACLE_STEPS = {1: 1, 2: 1000, 3: 300, 4: 80, 5: 40}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors follow the exit-code contract."""

    def error(self, message):
        raise CycmaxError(message)


def _load(kind: str, path: str, parse, *args):
    """``parse(contents, *args)`` of the file at path, naming the file on error.

    The contents stay bytes: ``json.loads`` decodes them, so the parser
    reports a file that is not UTF-8 as it reports any malformed file.
    """
    try:
        with open(path, "rb") as fh:
            return parse(fh.read(), *args)
    except OSError as exc:
        raise CycmaxError(f"cannot read {path}: {exc}") from exc
    except CycmaxError as exc:
        raise CycmaxError(f"malformed {kind} file {path}: {exc}") from exc


@contextlib.contextmanager
def _printable():
    """Report a rational result past the float range as an input error."""
    try:
        yield
    except OverflowError as exc:
        raise CycmaxError(f"a result lies outside the float range and cannot be printed: {exc}") from None


def format_cell(value) -> str:
    """Three-decimal rounding with trailing zeros trimmed: 2.26, 3, 2.375."""
    text = f"{float(value):.3f}".rstrip("0").rstrip(".")
    return text if text else "0"


def analyze_warnings(poset: IntervalPoset) -> list[str]:
    if poset.root is None:
        return ["no full-length class: tied averages make the order degenerate"]
    return []


def analyze_report(x: PeriodicTuple, poset: IntervalPoset, warnings: list[str]) -> dict:
    """The ``analyze`` JSON document; ``warnings`` are ``analyze_warnings(poset)``."""
    graph = poset.to_dict()
    return {
        "n": x.n,
        "backend": x.backend,
        "average": float(x.average),
        "table": average_table(x),
        "m_intervals": graph["nodes"],
        "full_maximal_start": full_maximal_start(x),
        "poset": graph,
        "degenerate": bool(warnings),
        "warnings": warnings,
    }


def analyze_table_csv(x: PeriodicTuple, poset: IntervalPoset) -> str:
    """The window-average table as CSV, maximal cells marked with '*'.

    Rows are window lengths 1..n-1, columns are start indices; the
    column of the full-length class carries '*' in the header.  A
    summary block follows as comment lines.
    """
    records = [poset.nodes[i] for i in sorted(poset.nodes)]
    marks = {(r.kappa + 1, r.start) for r in records}
    star = full_maximal_start(x)
    table = average_table(x).tolist()
    lines = []
    header = ["r\\i"] + [f"{i}*" if i == star else str(i) for i in range(1, x.n + 1)]
    lines.append(",".join(header))
    for r, row in enumerate(table, start=1):
        cells = [str(r)]
        for i, value in enumerate(row, start=1):
            cell = format_cell(value)
            if (r, i) in marks:
                cell += "*"
            cells.append(cell)
        lines.append(",".join(cells))
    lines.append(f"# average,{format_cell(x.average)}")
    for rec in records:
        lines.append(
            f"# m_interval,{rec.start},[{rec.start}:{rec.start + rec.kappa}],{format_cell(rec.average)}"
        )
    lines.append(f"# full_maximal_start,{star}")
    return "\n".join(lines)


def cmd_analyze(args) -> int:
    x = _load("tuple", args.tuple, tuple_from_json, args.backend)
    poset = build_poset(x)
    warnings = analyze_warnings(poset)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    with _printable():
        if args.format == "dot":
            text = poset.to_dot()
        elif args.format == "csv":
            text = analyze_table_csv(x, poset)
        else:
            # orjson writes the (n-1) x n float table straight from the array,
            # with no Python float per cell; the other commands keep json
            # because they print unbounded user integers, and orjson rejects
            # integers past 64 bits
            report = analyze_report(x, poset, warnings)
            text = orjson.dumps(report, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    print(text)
    return EXIT_OK


def cmd_sum(args) -> int:
    x = _load("tuple", args.tuple, tuple_from_json, args.backend)
    if args.radii is not None:
        radii = _load("radii", args.radii, radii_from_json)
        if args.normalized:
            raise CycmaxError("--normalized applies only with --k")
        value = sum_with_radii(x, radii)
        details = {"radii": list(radii.radii)}
    else:
        if args.normalized:
            value = diananda_sum(x, args.k)
        else:
            value = sum_with_radii(x, RadiusTuple.constant(x.n, args.k))
        details = {"k": args.k, "normalized": bool(args.normalized)}
    with _printable():
        payload = {"value": float(value), **details}
    print(json.dumps(payload))
    return EXIT_OK


def cmd_maxsum(args) -> int:
    x = _load("tuple", args.tuple, tuple_from_json, args.backend)
    res = max_avg_sum(x)
    print(json.dumps({"value": float(res.value), "radii": list(res.radii.radii)}))
    return EXIT_OK


def cmd_minimize(args) -> int:
    if args.n is not None:
        N, p = args.n, reduction.cyclic_price(args.n)
    else:
        p = reduction.check_price(args.p)
        N = max(1, math.ceil(1.0 / p))
    sol = minimize_chain(N, p)
    gap = None
    if args.oracle:
        if N > 5:
            raise CycmaxError("--oracle supports N <= 5")
        gap = abs(sol.value - brute_force_oracle(N, p, ORACLE_STEPS[N]))
    print(json.dumps({**sol.to_dict(), "oracle_gap": gap}))
    return EXIT_OK


def cmd_sweep(args) -> int:
    records = sweep(geometric_grid(args.start, args.stop, args.points))
    a_hat = estimate_constant_a(records) if args.estimate_a else None
    sys.stdout.write(records_to_csv(records, a_hat))
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suites(args.suite, args.seed)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_VERIFY if failed else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process.

    Parsing leaves it as it was, so each call of ``main`` reads its
    arguments alone.  It holds nothing that may change after the first
    build: ``verify`` checks suite names in ``run_suites``, not here.
    """
    parser = _Parser(
        prog="cycmax",
        description="Cyclic sums with one-sided maximal averages: analysis, "
        "optimization, sweeps, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend(p: argparse.ArgumentParser) -> None:
        p.add_argument("--backend", choices=[FLOAT, RATIONAL], default=FLOAT)

    p_analyze = sub.add_parser("analyze", help="window table, maximal intervals, poset")
    p_analyze.add_argument("tuple", help="tuple JSON file")
    add_backend(p_analyze)
    p_analyze.add_argument("--format", choices=["json", "csv", "dot"], default="json")
    p_analyze.set_defaults(func=cmd_analyze)

    p_sum = sub.add_parser("sum", help="cyclic sum for given radii")
    p_sum.add_argument("tuple")
    add_backend(p_sum)
    mode = p_sum.add_mutually_exclusive_group(required=True)
    mode.add_argument("--radii", help="radii JSON file")
    mode.add_argument("--k", type=int, help="constant radius")
    p_sum.add_argument(
        "--normalized", action="store_true", help="divide by k (with --k only)"
    )
    p_sum.set_defaults(func=cmd_sum)

    p_maxsum = sub.add_parser("maxsum", help="maximal-average sum and argmax radii")
    p_maxsum.add_argument("tuple")
    add_backend(p_maxsum)
    p_maxsum.set_defaults(func=cmd_maxsum)

    p_min = sub.add_parser("minimize", help="minimize the chain objective")
    price = p_min.add_mutually_exclusive_group(required=True)
    price.add_argument("--n", type=int, help="cyclic length (sets p = 1/n)")
    price.add_argument("--p", type=float, help="boundary price")
    p_min.add_argument("--oracle", action="store_true", help="grid cross-check (N <= 5)")
    p_min.set_defaults(func=cmd_minimize)

    p_sweep = sub.add_parser("sweep", help="CSV sweep of the cyclic minimum")
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--estimate-a", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run self-check suites")
    p_verify.add_argument("--suite", action="append", metavar="NAME", help="restrict to a suite (repeatable)")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``cycmax ... | head``); Python
        # flushes stdout again at exit, so point it at devnull first
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_INPUT
    return code


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CycmaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
