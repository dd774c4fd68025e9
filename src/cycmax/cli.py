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
import json
import math
import sys

from .asymptotics import estimate_constant_a, geometric_grid, records_to_csv, sweep
from .errors import CycmaxError, DegenerateOrder, NonConvergence
from .periodic import FLOAT, RATIONAL, PeriodicTuple, tuple_from_json
from .reduction import STATIONARITY_TOL, brute_force_oracle, minimize_chain
from .structure import all_m_intervals, average_table, build_poset, full_maximal_start
from .sums import RadiusTuple, diananda_sum, max_avg_sum, radii_from_json, sum_with_radii
from .verify import SUITES, run_suites

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


def format_cell(value) -> str:
    """Three-decimal rounding with trailing zeros trimmed: 2.26, 3, 2.375."""
    text = f"{float(value):.3f}".rstrip("0").rstrip(".")
    return text if text else "0"


def analyze_report(x: PeriodicTuple) -> dict:
    records = all_m_intervals(x)
    table = average_table(x)
    star = full_maximal_start(x)
    warnings: list[str] = []
    poset = None
    degenerate = False
    try:
        poset = build_poset(x)
        if poset.root is None:
            degenerate = True
            warnings.append(
                "no full-length class: tied averages make the order degenerate"
            )
    except DegenerateOrder as exc:
        degenerate = True
        warnings.append(f"degenerate order: {exc}")
    return {
        "n": x.n,
        "backend": x.backend,
        "average": float(x.average),
        "table": [[float(v) for v in row] for row in table],
        "m_intervals": [
            {"start": r.start, "kappa": r.kappa, "average": float(r.average)}
            for r in records
        ],
        "full_maximal_start": star,
        "majorizing_rotation": star,
        "poset": json.loads(poset.to_json()) if poset is not None else None,
        "degenerate": degenerate,
        "warnings": warnings,
    }


def analyze_table_csv(x: PeriodicTuple) -> str:
    """The window-average table as CSV, maximal cells marked with '*'.

    Rows are window lengths 1..n-1, columns are start indices; the
    column of the full-length class carries '*' in the header.  A
    summary block follows as comment lines.
    """
    records = all_m_intervals(x)
    marks = {(r.kappa + 1, r.start) for r in records}
    star = full_maximal_start(x)
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
    report = analyze_report(x)
    for w in report["warnings"]:
        print(f"warning: {w}", file=sys.stderr)
    if args.format == "dot":
        if report["poset"] is None:
            raise InputError("degenerate order has no poset to render")
        print(build_poset(x).to_dot())
    elif args.format == "csv":
        print(analyze_table_csv(x))
    else:
        print(json.dumps(report))
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
        payload = {"value": float(value), "radii": list(radii.radii)}
    else:
        if args.k < 1:
            raise InputError("--k must be a positive integer")
        if args.normalized:
            value = diananda_sum(x, args.k)
        else:
            value = sum_with_radii(x, RadiusTuple.constant(x.n, args.k))
        payload = {"value": float(value), "k": args.k, "normalized": bool(args.normalized)}
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
        N, p = args.n, 1.0 / args.n
    else:
        if not (args.p > 0):
            raise InputError("--p must be positive")
        p = args.p
        N = max(1, math.ceil(1.0 / p))
    sol = minimize_chain(N, p, args.tol)
    if args.oracle:
        if N > 5:
            raise InputError("--oracle supports N <= 5")
        oracle = brute_force_oracle(N, p, ORACLE_STEPS[N])
        sol.oracle_gap = abs(sol.value - oracle)
    print(json.dumps(sol.to_dict()))
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        grid = geometric_grid(args.start, args.stop, args.points)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    records = sweep(grid, args.tol)
    a_hat = None
    if args.estimate_a:
        a_hat = estimate_constant_a(records)[0]
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


def _add_global_flags(parser: argparse.ArgumentParser, top_level: bool) -> None:
    """Global flags accepted both before and after the subcommand.

    Subparsers suppress their defaults so a value given at the top level
    is not clobbered when the flag is omitted after the subcommand.
    """

    def dflt(value):
        return value if top_level else argparse.SUPPRESS

    parser.add_argument("--backend", choices=[FLOAT, RATIONAL], default=dflt(FLOAT))
    parser.add_argument(
        "--format", choices=["json", "csv", "dot"], default=dflt("json")
    )
    parser.add_argument("--seed", type=int, default=dflt(0))
    parser.add_argument("--tol", type=float, default=dflt(STATIONARITY_TOL))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cycmax",
        description="Cyclic sums with one-sided maximal averages: analysis, "
        "optimization, sweeps, verification.",
    )
    _add_global_flags(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        _add_global_flags(p, top_level=False)
        return p

    p_analyze = add_command("analyze", help="window table, maximal intervals, poset")
    p_analyze.add_argument("tuple", help="tuple JSON file")
    p_analyze.set_defaults(func=cmd_analyze)

    p_sum = add_command("sum", help="cyclic sum for given radii")
    p_sum.add_argument("tuple")
    p_sum.add_argument("--radii", help="radii JSON file")
    p_sum.add_argument("--k", type=int, help="constant radius")
    p_sum.add_argument(
        "--normalized", action="store_true", help="divide by k (with --k only)"
    )
    p_sum.set_defaults(func=cmd_sum)

    p_maxsum = add_command("maxsum", help="maximal-average sum and argmax radii")
    p_maxsum.add_argument("tuple")
    p_maxsum.set_defaults(func=cmd_maxsum)

    p_min = add_command("minimize", help="minimize the chain objective")
    p_min.add_argument("--n", type=int, help="cyclic length (sets p = 1/n)")
    p_min.add_argument("--p", type=float, help="boundary price")
    p_min.add_argument("--oracle", action="store_true", help="grid cross-check (N <= 5)")
    p_min.set_defaults(func=cmd_minimize)

    p_sweep = add_command("sweep", help="CSV sweep of the cyclic minimum")
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--estimate-a", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = add_command("verify", help="run self-check suites")
    p_verify.add_argument(
        "--suite", action="append", choices=sorted(SUITES), help="restrict to a suite"
    )
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.best is not None:
            print(json.dumps(exc.best.to_dict()))
        return EXIT_NONCONVERGENCE
    except CycmaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
