"""Per-op times of two trees on one benchmark workload, alternating in one process.

    python3 scripts/bench_pair.py --parent OTHER/src --workload structure --seed 7
    python3 scripts/bench_pair.py --src A/src --parent B/src --workload verify --seed 3 --rounds 5

Each tree's ``cycmax`` package is copied into a temporary directory under
its own name, ``cycmax_change`` and ``cycmax_parent``; the package imports
its modules relatively, so the two load side by side in this process.
The ops are the workload's blocks for the seed, as ``perfbench/workloads.py``
builds them (it is imported, not changed), with their tuple files in the
same temporary directory.  Each op runs ``--rounds`` times per tree, the
trees taking turns call by call (which goes first alternates), and each
call is timed alone around ``cli.main`` with stdout and stderr captured
in ``io.StringIO``, as the benchmark captures them.

A machine's speed drifts more slowly than one call, so both trees see the
same speed, which separate benchmark processes do not.  Prints one line
per op kind and one for the whole workload: the number of ops, the sum
over its ops of each op's least time and of its median time per tree,
the parent-over-change ratio of each sum, and whether stdout, stderr and
the exit code of every call matched between the trees.  Then one JSON
object with the same figures.  Exits 1 if any output differs.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("change", "parent")


def load_cli(src: str, name: str, directory: Path):
    """The ``cli`` module of ``src/cycmax``, copied to ``directory/name`` and imported as ``name``."""
    shutil.copytree(Path(src) / "cycmax", directory / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def call(cli, argv: list[str]) -> tuple[float, list]:
    """Seconds of one ``cli.main(argv)`` and its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # kept as an output, so the trees are compared on it
            code = repr(exc)
        seconds = time.perf_counter() - start
    return seconds, [code, out.getvalue(), err.getvalue()]


def summary(ops: list[dict]) -> dict:
    """The figures of one op kind, or of the whole workload."""
    row = {"ops": len(ops), "identical": all(op["identical"] for op in ops)}
    for tree in TREES:
        row[f"{tree}_least_s"] = sum(min(op[tree]) for op in ops)
        row[f"{tree}_median_s"] = sum(statistics.median(op[tree]) for op in ops)
    for stat in ("least", "median"):
        row[f"{stat}_parent_over_change"] = row[f"parent_{stat}_s"] / row[f"change_{stat}_s"]
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="src directory of the tree measured as the change")
    parser.add_argument("--parent", required=True, help="src directory of the tree it is compared with")
    parser.add_argument("--workload", required=True, choices=("sweep", "structure", "verify"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=15, help="timed calls of each op per tree")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory() as directory:
        directory = Path(directory)
        sys.path.insert(0, str(directory))
        clis = {tree: load_cli(src, f"cycmax_{tree}", directory) for tree, src in zip(TREES, (args.src, args.parent))}
        blocks = workloads.WORKLOADS[args.workload](args.seed, directory)
        ops = []
        for op in (op for block in blocks for op in block):
            times = {tree: [] for tree in TREES}
            identical = True
            for r in range(args.rounds):
                outputs = {}
                for tree in TREES if (len(ops) + r) % 2 == 0 else TREES[::-1]:
                    seconds, outputs[tree] = call(clis[tree], op.argv)
                    times[tree].append(seconds)
                identical &= outputs["change"] == outputs["parent"]
            ops.append({"kind": op.kind, "identical": identical, **times})
    kinds = sorted({op["kind"] for op in ops})
    rows = {kind: summary([op for op in ops if op["kind"] == kind]) for kind in kinds}
    rows["all"] = summary(ops)
    print(f"{'kind':<20} {'ops':>4} {'least change/parent ms':>24} {'ratio':>6} {'median change/parent ms':>25} {'ratio':>6}  outputs")
    for kind, row in rows.items():
        print(
            f"{kind:<20} {row['ops']:>4} "
            f"{row['change_least_s'] * 1e3:>11.2f}/{row['parent_least_s'] * 1e3:<12.2f} {row['least_parent_over_change']:>6.3f} "
            f"{row['change_median_s'] * 1e3:>12.2f}/{row['parent_median_s'] * 1e3:<12.2f} {row['median_parent_over_change']:>6.3f}  "
            f"{'identical' if row['identical'] else 'DIFFER'}"
        )
    print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": args.rounds, "kinds": rows}))
    sys.exit(0 if rows["all"]["identical"] else 1)


if __name__ == "__main__":
    main()
