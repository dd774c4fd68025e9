"""Output identity of two trees: CLI commands and batched chain solves, compared byte for byte.

    python3 scripts/identity.py --parent OTHER/src               # this checkout's src against OTHER/src
    python3 scripts/identity.py --src A/src --parent B/src

Each tree runs in a fresh Python process that imports ``cycmax`` from its
``src`` directory, as ``scripts/bench_solve.py`` does, and streams back
one result a line, so the two trees are compared as they run, and

* runs 323 CLI commands in process through ``cli.main``, keeping stdout,
  stderr and the exit code (an exception is kept as its repr):
  the 96 benchmark ``sweep --estimate-a`` grids of seeds 0..7 (twelve
  8-point grids over f 1e3 .. f 1e6 per seed, as ``perfbench/workloads.py``
  draws them), a 400-point sweep over 3..1e300, the dense sweep
  ``sweep --from 1e3 --to 1e6 --points 20000``, ``minimize --n`` at 15
  values of n, ``minimize --p`` at 204 prices (120 seeded over 1e-300..1,
  30 over 0.001..1.5, 48 at 1e-12..1e-3 below the top of twelve sizes in
  2..700, and 0.999999, 0.5, 1, 1.5, 1e-300 and 5e-324), and
  ``verify --seed 0..5``;
* runs 8,520 tuple commands the same way, ``analyze`` as json, csv and
  dot and ``maxsum`` on each of 2,130 seeded tuple files: 30 of uniform
  floats in [0.05, 10) with n in 2..600, 60 of rational ints 1..3 with
  n in 2..150 (``--backend rational``), 2,000 float tuples drawn
  from {1e16, 1, 3, 1e-5, 0} with n in 1..40, the set of the README's
  known-defect bullet, and 40 more rational tuples with n in 2..150:
  20 of ints whose window-average tables pass 2**53 (ints 1..3 times
  2**53, and ints below 2**63), which ``average_table`` divides as Python
  ints where the ints 1..3 take its doubles, and 20 of "p/q" strings
  with p in 1..20, 10 with q in 2..6 and 10 with q in 2..59 (7 of those
  have (n - 1) times the lcm of their q past 2**53);
* solves 9,498 chain problems (N, p) with ``reduction._minimize_many``, one
  call per batch, keeping each solution's support, value, entry bytes and
  residual: the 96 benchmark grids (768 problems, a batch each), a
  400-point grid over 3..1e300, 3000 windows cut by N (N in 2..689,
  ln(1/p) over N..690), 2000 prices down to e^-709 with N = 1e9, 1000 n
  over 3..664, and 2330 near-fold prices p = e^-m_k (1 - d) for
  d = 1e-15 .. 1e-3, k = 2..698 in steps of 3 and N = k or 1e9;
* then reads the size records of every size 2..712, m_k and its
  (3, _SAMPLES) sample block, from ``reduction._records``, and compares
  them by value: each longdouble goes as the shortest string that reads
  back to it, since ``tobytes`` includes padding bytes that differ
  between runs.  A record change that the outputs hide shows here.

This process builds both sets with ``geometric_grid`` and the peak depths
m_k of the ``--src`` tree, so both trees run the same commands and solve
the same problems, and writes the tuple files to a temporary directory
that both children run in.  Prints every difference, one a line, then a
summary line, and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
NEAR_FOLD_D = (1e-15, 1e-12, 1e-9, 1e-6, 1e-3)
NEAR_TOP_D = (1e-12, 1e-9, 1e-6, 1e-3)
NEAR_TOP_SIZES = (2, 3, 4, 5, 6, 7, 10, 50, 100, 300, 500, 700)
RECORD_SIZES = range(2, 713)  # every size a float price reaches

# Each child reads its job as JSON on stdin and writes one JSON line on
# stdout per command, then one per problem, then one per size record:
# m_k, then its sample block flattened.
CHILD = """
import contextlib, io, json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from cycmax import cli, reduction

job = json.load(sys.stdin)
for argv in job["commands"]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = repr(exc)
    print(json.dumps([code, out.getvalue(), err.getvalue()]))
for batch in job["batches"]:
    for sol in reduction._minimize_many([tuple(problem) for problem in batch]):
        print(json.dumps([sol.support, sol.value.hex(), sol.entries.tobytes().hex(), sol.stationarity_residual.hex()]))
sizes = job["sizes"]
m, samples = reduction._records(np.array(sizes))
for size in sizes:
    print(json.dumps([str(m[size]), *samples[size].astype(str).ravel().tolist()]))
"""


def benchmark_factors() -> list[float]:
    """The scale factors f of the twelve benchmark ``sweep`` grids of each seed 0..7."""
    factors = []
    for seed in range(8):
        u0 = random.Random(seed).random()
        factors += [2.0 ** ((u0 + j * GOLDEN) % 1.0) for j in range(12)]
    return factors


def below_top(reduction, sizes, d) -> list[float]:
    """The prices e^-m_k (1 - d) just below the top of each size k, computed in longdouble."""
    k = np.array(sizes)
    return [float(p) for p in np.exp(-reduction._records(k)[0][k]) * (1 - np.array(d, dtype=reduction.LD))]


def children(job: dict, cwd: str, *srcs: str):
    """One child per tree, all fed ``job``; yields their results for each line, side by side."""
    procs = [
        subprocess.Popen([sys.executable, "-c", CHILD, src], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=cwd)
        for src in srcs
    ]
    for proc in procs:
        proc.stdin.write(json.dumps(job))
        proc.stdin.close()
    yield from zip(*(map(json.loads, proc.stdout) for proc in procs))
    for proc, src in zip(procs, srcs):
        if proc.wait():
            raise RuntimeError(f"the child for {src} exited {proc.returncode}")


def commands(geometric_grid, tops: list[float]) -> list[list[str]]:
    """The 323 CLI commands; ``tops`` are the prices just below the top of NEAR_TOP_SIZES."""
    argvs = [
        ["sweep", "--from", repr(1e3 * f), "--to", repr(1e6 * f), "--points", "8", "--estimate-a"]
        for f in benchmark_factors()
    ]
    argvs.append(["sweep", "--from", "3", "--to", "1e300", "--points", "400", "--estimate-a"])
    argvs.append(["sweep", "--from", "1e3", "--to", "1e6", "--points", "20000"])
    ns = [2, 3, 5, 10, 50, 100, 664, 1000, 10**4, 10**6, 10**9, 10**15, 10**30, 10**100, 10**300]
    argvs += [["minimize", "--n", str(n)] for n in ns]
    rng = np.random.default_rng(30)
    prices = (10.0 ** -rng.uniform(0, 300, 120)).tolist() + rng.uniform(0.001, 1.5, 30).tolist()
    prices += tops + [0.999999, 0.5, 1.0, 1.5, 1e-300, 5e-324]
    argvs += [["minimize", "--p", repr(p)] for p in prices]
    argvs += [["verify", "--seed", str(seed)] for seed in range(6)]
    return argvs


def tuple_files(directory: Path) -> list[list[str]]:
    """Writes the 2,130 seeded tuple files into ``directory``; returns the 8,520 commands on them."""
    rng = np.random.default_rng(32)
    tuples = [(f"float-{j:02d}.json", rng.uniform(0.05, 10.0, int(rng.integers(2, 601))).tolist(), "float") for j in range(30)]
    tuples += [(f"rational-{j:02d}.json", rng.integers(1, 4, int(rng.integers(2, 151))).tolist(), "rational") for j in range(60)]
    rng = np.random.default_rng(2024)
    while len(tuples) < 2090:
        values = rng.choice([1e16, 1.0, 3.0, 1e-5, 0.0], int(rng.integers(1, 41))).tolist()
        if any(values):
            tuples.append((f"mix-{len(tuples) - 90:04d}.json", values, "float"))
    rng = np.random.default_rng(38)
    for j in range(20):
        n = int(rng.integers(2, 151))
        values = (rng.integers(1, 4, n) * 2**53).tolist() if j % 2 else rng.integers(1, 2**63, n).tolist()
        tuples.append((f"big-{j:02d}.json", values, "rational"))
    for j in range(20):
        n, q = int(rng.integers(2, 151)), 7 if j % 2 else 60
        values = [f"{a}/{b}" for a, b in zip(rng.integers(1, 21, n).tolist(), rng.integers(2, q, n).tolist())]
        tuples.append((f"ratio-{j:02d}.json", values, "rational"))
    argvs = []
    for name, values, backend in tuples:
        (directory / name).write_text(json.dumps({"values": values}))
        argvs += [["analyze", name, "--backend", backend, "--format", fmt] for fmt in ("json", "csv", "dot")]
        argvs.append(["maxsum", name, "--backend", backend])
    return argvs


def batches(geometric_grid, folds: list[float]) -> list[list[list]]:
    """The 9,498 problems in their batches; ``folds`` are the near-fold prices, N-free."""
    out = [[[n, 1.0 / n] for n in geometric_grid(1e3 * f, 1e6 * f, 8)] for f in benchmark_factors()]
    out.append([[n, 1.0 / n] for n in geometric_grid(3, 1e300, 400)])
    rng = np.random.default_rng(31)
    out.append([[N, float(np.exp(-rng.uniform(N, 690)))] for N in rng.integers(2, 690, 3000).tolist()])
    out.append([[10**9, float(np.exp(-u))] for u in rng.uniform(0, 709, 2000).tolist()])
    small = (int(10**u) for u in rng.uniform(math.log10(3), math.log10(664), 1000).tolist())
    out.append([[n, 1.0 / n] for n in small])
    sizes = range(2, 699, 3)
    out.append([[N, p] for k, p in zip(np.repeat(sizes, len(NEAR_FOLD_D)).tolist(), folds) for N in (k, 10**9)])
    return out


def first_difference(a: str, b: str) -> str:
    """Where two texts part: the first differing line of each, shortened to
    the 120 characters from 40 before the first differing column."""
    for i, (x, y) in enumerate(zip(a.splitlines() + [""], b.splitlines() + [""])):
        if x != y:
            column = next((j for j, (c, d) in enumerate(zip(x, y)) if c != d), min(len(x), len(y)))
            start = max(column - 40, 0)
            return f"line {i + 1}, column {column + 1}: {x[start:start + 120]!r} against {y[start:start + 120]!r}"
    return "same lines, different ends"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"), help="the tree checked as the change")
    parser.add_argument("--parent", required=True, help="src directory of the tree it must match")
    args = parser.parse_args()
    src, parent = str(Path(args.src).resolve()), str(Path(args.parent).resolve())
    sys.path.insert(0, src)
    from cycmax import reduction
    from cycmax.asymptotics import geometric_grid

    tops = below_top(reduction, np.repeat(NEAR_TOP_SIZES, len(NEAR_TOP_D)), NEAR_TOP_D * len(NEAR_TOP_SIZES))
    fold_sizes = range(2, 699, 3)
    folds = below_top(reduction, np.repeat(fold_sizes, len(NEAR_FOLD_D)), NEAR_FOLD_D * len(fold_sizes))
    differences = 0
    with tempfile.TemporaryDirectory() as directory:
        argvs = commands(geometric_grid, tops) + tuple_files(Path(directory))
        job = {"commands": argvs, "batches": batches(geometric_grid, folds), "sizes": list(RECORD_SIZES)}
        problems = [problem for batch in job["batches"] for problem in batch]
        results = children(job, directory, src, parent)
        for argv, (got, want) in zip(argvs, results):
            for name, g, w in zip(("exit code", "stdout", "stderr"), got, want):
                if g != w:
                    differences += 1
                    where = first_difference(g, w) if isinstance(g, str) and isinstance(w, str) else f"{g!r} against {w!r}"
                    print(f"{' '.join(argv)}: {name} differs, {where}")
        for (N, p), (got, want) in zip(problems, results):
            for name, g, w in zip(("support", "value", "entry bytes", "residual"), got, want):
                if g != w:
                    differences += 1
                    print(f"N = {N}, p = {p!r}: {name} differs, {str(g)[:80]} against {str(w)[:80]}")
        record_differences = 0
        for size, (got, want) in zip(RECORD_SIZES, results):
            g, w = (np.array(r, dtype=reduction.LD) for r in (got, want))
            moved = len(g) if g.shape != w.shape else np.count_nonzero(g != w)
            if moved:
                record_differences += 1
                print(f"size {size}: {moved} of {len(w)} record values differ; m_k {got[0]} against {want[0]}")
        for _ in results:  # waits for both children, and raises if one failed
            pass
    print(
        f"{len(argvs)} commands, {len(problems)} problems: {differences} differences; "
        f"{len(RECORD_SIZES)} size records: {record_differences} differences"
    )
    sys.exit(1 if differences or record_differences else 0)


if __name__ == "__main__":
    main()
