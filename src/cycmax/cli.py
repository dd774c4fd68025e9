"""Command-line front end.

Subcommands:

* ``analyze``   window-average table, irreducible maximal intervals,
                inclusion poset, majorizing rotation of a tuple file
* ``sum``       cyclic sum for given radii (or a constant radius)
* ``maxsum``    maximal-average sum and its argmax radii
* ``minimize``  simplex minimization of the chain objective
* ``sweep``     CSV sweep of the cyclic minimum over a range of n
* ``verify``    seeded self-check suites

Exit codes: 0 success, 1 input error, 2 optimizer non-convergence,
3 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

from .asymptotics import estimate_constant_a, geometric_grid, records_to_csv, sweep
from . import reduction
from .errors import CycmaxError
from .periodic import FLOAT, RATIONAL, PeriodicTuple, tuple_from_json
from .reduction import brute_force_oracle, minimize_chain
from .structure import IntervalPoset, average_table, build_poset
from .sums import RadiusTuple, diananda_sum, max_avg_sum, radii_from_json, sum_with_radii
from .verify import run_suites

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NONCONVERGENCE = 2
EXIT_VERIFY = 3

ORACLE_STEPS = {1: 1, 2: 1000, 3: 300, 4: 80, 5: 40}


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors follow the exit-code contract."""

    def error(self, message):
        raise InputError(message)


def _read_tuple(path: str, backend: str) -> PeriodicTuple:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return tuple_from_json(text, backend)
    except FileNotFoundError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (CycmaxError, ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"malformed tuple file {path}: {exc}") from exc


def _read_radii(path: str, n: int) -> RadiusTuple:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            radii = radii_from_json(fh.read())
        if len(radii) != n:
            raise InputError(f"expected {n} radii, got {len(radii)}")
        return radii
    except FileNotFoundError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except CycmaxError as exc:
        raise InputError(f"malformed radii file {path}: {exc}") from exc


@contextlib.contextmanager
def _printable():
    """Report a rational result past the float range as an input error."""
    try:
        yield
    except OverflowError as exc:
        raise InputError(f"a result lies outside the float range and cannot be printed: {exc}") from None


def format_cell(value) -> str:
    """Three-decimal rounding with trailing zeros trimmed: 2.26, 3, 2.375."""
    text = f"{float(value):.3f}".rstrip("0").rstrip(".")
    return text if text else "0"


def analyze_warnings(poset: IntervalPoset) -> list[str]:
    if poset.root is None:
        return ["no full-length class: tied averages make the order degenerate"]
    return []


def analyze_report(x: PeriodicTuple, poset: IntervalPoset) -> dict:
    star = poset.full_maximal_start()
    warnings = analyze_warnings(poset)
    return {
        "n": x.n,
        "backend": x.backend,
        "average": float(x.average),
        "table": [[float(v) for v in row] for row in average_table(x)],
        "m_intervals": [
            {"start": r.start, "kappa": r.kappa, "average": float(r.average)}
            for r in (poset.nodes[i] for i in sorted(poset.nodes))
        ],
        "full_maximal_start": star,
        "poset": poset.to_dict(),
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
    star = poset.full_maximal_start()
    table = average_table(x)
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
    x = _read_tuple(args.tuple, args.backend)
    poset = build_poset(x)
    for w in analyze_warnings(poset):
        print(f"warning: {w}", file=sys.stderr)
    with _printable():
        if args.format == "dot":
            text = poset.to_dot()
        elif args.format == "csv":
            text = analyze_table_csv(x, poset)
        else:
            text = json.dumps(analyze_report(x, poset))
    print(text)
    return EXIT_OK


def cmd_sum(args) -> int:
    x = _read_tuple(args.tuple, args.backend)
    if (args.radii is None) == (args.k is None):
        raise InputError("provide exactly one of --radii FILE or --k INT")
    if args.radii is not None:
        radii = _read_radii(args.radii, x.n)
        if args.normalized:
            raise InputError("--normalized applies only with --k")
        value = sum_with_radii(x, radii)
        details = {"radii": list(radii.radii)}
    else:
        if args.k < 1:
            raise InputError("--k must be a positive integer")
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
    x = _read_tuple(args.tuple, args.backend)
    res = max_avg_sum(x)
    print(json.dumps({"value": float(res.value), "radii": list(res.radii.radii)}))
    return EXIT_OK


def cmd_minimize(args) -> int:
    if (args.n is None) == (args.p is None):
        raise InputError("provide exactly one of --n or --p")
    if args.n is not None:
        if args.n < 1:
            raise InputError("--n must be a positive integer")
        try:
            N, p = args.n, 1.0 / args.n
        except OverflowError as exc:
            raise InputError(f"--n is too large: {exc}") from exc
    else:
        if not (0 < args.p < math.inf):
            raise InputError("--p must be positive and finite")
        if not math.isfinite(1.0 / args.p):
            raise InputError(f"--p {args.p!r} is too small: 1/p overflows")
        p = args.p
        N = max(1, math.ceil(1.0 / p))
    sol = minimize_chain(N, p)
    gap = None
    if not sol.converged:
        print(
            f"error: the best stationary point (support {sol.support}, value {sol.value:.12g}) "
            f"has stationarity residual {sol.stationarity_residual:.3g} above {reduction.STATIONARITY_TOL:g}",
            file=sys.stderr,
        )
    elif args.oracle:
        if N > 5:
            raise InputError("--oracle supports N <= 5")
        gap = abs(sol.value - brute_force_oracle(N, p, ORACLE_STEPS[N]))
    print(json.dumps({**sol.to_dict(), "oracle_gap": gap}))
    return EXIT_OK if sol.converged else EXIT_NONCONVERGENCE


def cmd_sweep(args) -> int:
    try:
        grid = geometric_grid(args.start, args.stop, args.points)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    records = sweep(grid)
    a_hat = None
    if args.estimate_a:
        try:
            a_hat = estimate_constant_a(records)[0]
        except ValueError as exc:
            raise InputError(f"--estimate-a: {exc}") from exc
    sys.stdout.write(records_to_csv(records, a_hat))
    return EXIT_OK


def cmd_verify(args) -> int:
    names = args.suite if args.suite else None
    try:
        results = run_suites(names, args.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
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
    p_sum.add_argument("--radii", help="radii JSON file")
    p_sum.add_argument("--k", type=int, help="constant radius")
    p_sum.add_argument(
        "--normalized", action="store_true", help="divide by k (with --k only)"
    )
    p_sum.set_defaults(func=cmd_sum)

    p_maxsum = sub.add_parser("maxsum", help="maximal-average sum and argmax radii")
    p_maxsum.add_argument("tuple")
    add_backend(p_maxsum)
    p_maxsum.set_defaults(func=cmd_maxsum)

    p_min = sub.add_parser("minimize", help="minimize the chain objective")
    p_min.add_argument("--n", type=int, help="cyclic length (sets p = 1/n)")
    p_min.add_argument("--p", type=float, help="boundary price")
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
    except (InputError, CycmaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
