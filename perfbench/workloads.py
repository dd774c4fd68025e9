"""Seeded inputs, op sequences and output checks for the three workloads.

Every op is one ``cycmax`` command line.  A workload is a pool of
blocks of ops, built from the seed alone; a run walks the pool in order,
wrapping around if it runs out, and only stops between blocks, so every
run covers whole blocks.

On ``sweep`` the grid factors follow a golden-ratio sequence from a
seeded offset, so each seed solves different n and any run of
consecutive ops spreads them evenly.  On ``structure``, where the cost
grows like n^2, every block holds the same sizes and the seed draws the
entries and the order of the ops; runs with different seeds then solve
different inputs but do the same amount of work.

The checks share no code with the program.  They recompute what they
need from the input files with their own prefix sums, in exact
rational arithmetic where ties matter.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

# The paper's additive constant in inf S = e*log(n) - A + O(1/log n).
A_REFERENCE = 1.70465603718
A_TOLERANCE = 1e-2
DEFICIT_BAND = (1.6, 1.75)
SWEEP_TOL = 1e-10
SWEEP_POINTS = 8

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

VERIFY_SUITES = (
    "periodic", "prop4", "poset", "rotation", "prop5",
    "envelope", "reduced", "reduction", "gradient",
)

# Pool sizes, in blocks.  A run that outlasts its pool starts it again.
SWEEP_BLOCKS = 12
STRUCTURE_BLOCKS = 6
VERIFY_BLOCKS = 6

# structure: op kind -> size range, cut into equal log-strata.
STRUCTURE_RANGES = {
    "analyze_float": (64, 512),
    "analyze_rational": (32, 128),
    "maxsum": (1000, 10000),
}
STRUCTURE_STRATA = 5

# Float entries are drawn from this range, so ties have probability zero.
FLOAT_RANGE = (0.05, 10.0)
# Rational entries are integers 1..RATIONAL_MAX, so ties are common.
RATIONAL_MAX = 3
# Starts per tuple at which the reported m-intervals are recomputed.
SPOT_STARTS = 4


@dataclass
class Op:
    kind: str
    size: int
    argv: list[str]
    check: Callable[[int, str], list[str]]  # (exit code, stdout) -> failures
    measure: Optional[Callable[[str], float]] = None  # stdout -> accuracy figure


def _log_size(lo: float, hi: float, u: float) -> int:
    return int(round(lo * (hi / lo) ** u))


# --------------------------------------------------------------------- sweep


def _check_sweep(lo: float, hi: float, code: int, out: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    lines = out.strip().splitlines()
    if len(lines) < 3 or lines[0] != "n,s_star,deficit,support,residual":
        return ["unexpected CSV layout"]
    if not lines[-1].startswith("# a_hat,"):
        return ["missing a_hat line"]
    failures = []
    prev_n = 0
    for line in lines[1:-1]:
        n_text, s_text, d_text, k_text, res_text = line.split(",")
        n, s_star, deficit = int(n_text), float(s_text), float(d_text)
        residual = float(res_text)
        if not (prev_n < n and lo - 1 <= n <= hi + 1):
            failures.append(f"n={n} out of order or outside [{lo:g}, {hi:g}]")
        prev_n = n
        if int(k_text) < 1:
            failures.append(f"n={n}: support {k_text}")
        if not residual <= SWEEP_TOL:
            failures.append(f"n={n}: residual {residual:g} above {SWEEP_TOL:g}")
        if not DEFICIT_BAND[0] <= deficit <= DEFICIT_BAND[1]:
            failures.append(f"n={n}: deficit {deficit:.6f} outside {DEFICIT_BAND}")
        if abs(math.e * math.log(n) - s_star - deficit) > 1e-9:
            failures.append(f"n={n}: deficit does not match e*log(n) - s_star")
    if len(lines) - 2 < 4:
        failures.append("fewer than four grid points")
    a_hat = float(lines[-1].split(",")[1])
    if not abs(a_hat - A_REFERENCE) <= A_TOLERANCE:
        failures.append(f"a_hat {a_hat:.6f} misses A by more than {A_TOLERANCE:g}")
    return failures


def sweep_a_error(out: str) -> float:
    """abs(a_hat - A) from a sweep's CSV output."""
    return abs(float(out.strip().splitlines()[-1].split(",")[1]) - A_REFERENCE)


def sweep_blocks(seed: int, workdir: Path) -> list[list[Op]]:
    """One ``sweep --estimate-a`` per block over [1e3, 1e6] scaled by f in [1, 2)."""
    rng = random.Random(seed)
    blocks = []
    u0 = rng.random()
    for j in range(SWEEP_BLOCKS):
        f = 2.0 ** ((u0 + j * GOLDEN) % 1.0)
        lo, hi = 1e3 * f, 1e6 * f
        argv = ["sweep", "--from", repr(lo), "--to", repr(hi),
                "--points", str(SWEEP_POINTS), "--estimate-a"]
        check = lambda code, out, lo=lo, hi=hi: _check_sweep(lo, hi, code, out)
        blocks.append([Op("sweep", SWEEP_POINTS, argv, check, sweep_a_error)])
    return blocks


# ----------------------------------------------------------------- structure


def _prefix(values: list[Fraction]) -> list[Fraction]:
    """Two-period prefix sums: p[k] = x_1 + ... + x_k for k = 0..2n."""
    p = [Fraction(0)]
    for v in values + values:
        p.append(p[-1] + v)
    return p


def _forward_max(p: list[Fraction], n: int, start: int) -> tuple[Fraction, int]:
    """Largest average of [start : start+r-1], r = 1..n, and the shortest such r."""
    best, best_r = None, 0
    for r in range(1, n + 1):
        avg = (p[start - 1 + r] - p[start - 1]) / r
        if best is None or avg > best:
            best, best_r = avg, r
    return best, best_r


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _check_intervals(p: list[Fraction], exact: bool, doc: dict, starts) -> list[str]:
    """Reported m-intervals against a brute-force forward-window scan.

    On rational tuples the shortest maximizing window must match exactly.
    On float tuples the reported window may differ from the exact
    shortest one only when their exact averages agree to rounding, since
    rounding can order two nearly equal averages either way.
    """
    n = (len(p) - 1) // 2
    failures = []
    for start in starts:
        rec = doc["m_intervals"][start - 1]
        best, r = _forward_max(p, n, start)
        got_r = rec["kappa"] + 1
        if rec["start"] != start:
            failures.append(f"m_intervals[{start - 1}] has start {rec['start']}")
            continue
        if exact:
            if got_r != r or rec["average"] != float(best):
                failures.append(f"start {start}: got kappa {rec['kappa']}, want {r - 1}")
        else:
            got = (p[start - 1 + got_r] - p[start - 1]) / got_r if 1 <= got_r <= n else None
            if got is None or not _close(float(got), float(best)) or not _close(
                rec["average"], float(best)
            ):
                failures.append(
                    f"start {start}: window length {got_r} is not maximal (shortest is {r})"
                )
    return failures


def _check_analyze(values, exact: bool, starts, code: int, out: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        return [f"JSON does not parse: {exc}"]
    n = len(values)
    if doc.get("n") != n or len(doc.get("m_intervals", [])) != n:
        return ["wrong n or number of m-intervals"]
    table = doc.get("table", [])
    if len(table) != n - 1 or any(len(row) != n for row in table):
        return ["window table has the wrong shape"]
    p = _prefix([Fraction(v) for v in values])
    failures = _check_intervals(p, exact, doc, starts)

    mean = p[n] / n
    star = doc["full_maximal_start"]
    rec = doc["m_intervals"][star - 1]
    if exact:
        # The smallest start whose right maximal value is least, and that value is the mean.
        for i in range(1, star + 1):
            best, _ = _forward_max(p, n, i)
            if (i < star and best == mean) or (i == star and best != mean):
                failures.append(f"full_maximal_start {star} is not the first start at the mean")
                break
        if rec["average"] != float(mean):
            failures.append("average at full_maximal_start differs from the mean")
    else:
        poset = doc.get("poset")
        if doc.get("degenerate") or poset is None or poset.get("root") != star:
            failures.append("generic float tuple: poset root is not full_maximal_start")
        if rec["kappa"] != n - 1 or not _close(rec["average"], float(mean)):
            failures.append("full_maximal_start does not carry the full window at the mean")
    # One seeded cell of the window-average table.
    r_row, i_col = starts[0] % (n - 1) + 1, starts[-1]
    cell = (p[i_col - 1 + r_row] - p[i_col - 1]) / r_row
    if not _close(table[r_row - 1][i_col - 1], float(cell), 1e-12):
        failures.append(f"table cell r={r_row} i={i_col} is wrong")
    return failures


def _check_maxsum(values: list[float], starts, code: int, out: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        return [f"JSON does not parse: {exc}"]
    n = len(values)
    radii = doc.get("radii", [])
    if len(radii) != n or any(not (1 <= r <= n) for r in radii):
        return ["radii missing or out of range"]
    prefix = [0.0]
    for v in values + values:
        prefix.append(prefix[-1] + v)
    total = math.fsum(
        values[i] * radii[i] / (prefix[i + 1 + radii[i]] - prefix[i + 1]) for i in range(n)
    )
    failures = []
    if not _close(total, doc["value"], 1e-9):
        failures.append(f"radii give {total!r}, printed value is {doc['value']!r}")
    # At a few indices the radius must reach the largest forward average.
    for i in starts:
        best = max((prefix[i + r] - prefix[i]) / r for r in range(1, n + 1))
        r = radii[i - 1]
        if not _close((prefix[i + r] - prefix[i]) / r, best, 1e-9):
            failures.append(f"index {i}: radius {r} is not maximal")
    return failures


def structure_blocks(seed: int, workdir: Path) -> list[list[Op]]:
    """Blocks of 15 ops in a seeded order, each kind at five sizes.

    * float ``analyze``, n over 64..512
    * ``--backend rational`` ``analyze`` on integers 1..3, n over 32..128
    * float ``maxsum``, n over 1e3..1e4

    The sizes are the geometric midpoints of five equal log-strata of each
    range, the same in every block: a run that completes one block more
    or less then still has the same mix of sizes, and its median and tail
    fall on the same sizes.
    """
    rng = random.Random(seed)
    blocks = []
    for b in range(STRUCTURE_BLOCKS):
        specs = [
            (kind, _log_size(lo, hi, (j + 0.5) / STRUCTURE_STRATA))
            for kind, (lo, hi) in STRUCTURE_RANGES.items()
            for j in range(STRUCTURE_STRATA)
        ]
        rng.shuffle(specs)
        block = []
        for i, (kind, n) in enumerate(specs):
            path = workdir / f"b{b}-{i}-{kind}.json"
            starts = sorted(rng.sample(range(1, n + 1), SPOT_STARTS))
            if kind == "analyze_rational":
                values = [rng.randint(1, RATIONAL_MAX) for _ in range(n)]
                argv = ["analyze", "--backend", "rational", str(path)]
                check = lambda c, o, v=values, s=starts: _check_analyze(v, True, s, c, o)
            else:
                values = [rng.uniform(*FLOAT_RANGE) for _ in range(n)]
                if kind == "maxsum":
                    argv = ["maxsum", str(path)]
                    check = lambda c, o, v=values, s=starts: _check_maxsum(v, s, c, o)
                else:
                    argv = ["analyze", str(path)]
                    check = lambda c, o, v=values, s=starts: _check_analyze(v, False, s, c, o)
            path.write_text(json.dumps({"values": values}), encoding="utf-8")
            block.append(Op(kind, n, argv, check))
        blocks.append(block)
    return blocks


# -------------------------------------------------------------------- verify


def _check_verify(code: int, out: str) -> list[str]:
    lines = out.strip().splitlines()
    passed = sum(1 for line in lines if line.startswith("PASS "))
    failed = [line for line in lines if line.startswith("FAIL ")]
    if code != 0:
        return [f"exit code {code}", *failed]
    if failed or not lines or lines[-1] != f"{passed}/{passed} checks passed" or passed == 0:
        return failed or [f"unexpected summary {lines[-1] if lines else ''!r}"]
    return []


def verify_blocks(seed: int, workdir: Path) -> list[list[Op]]:
    """Each block runs all nine suites once, in a seeded order with seeded --seed."""
    rng = random.Random(seed)
    blocks = []
    for _ in range(VERIFY_BLOCKS):
        suites = list(VERIFY_SUITES)
        rng.shuffle(suites)
        blocks.append([
            Op(f"verify.{s}", 0,
               ["verify", "--suite", s, "--seed", str(rng.randrange(2**31))], _check_verify)
            for s in suites
        ])
    return blocks


WORKLOADS = {
    "sweep": sweep_blocks,
    "structure": structure_blocks,
    "verify": verify_blocks,
}

# op_s_tail is this nearest-rank percentile, fixed per workload rather
# than recomputed per run.  These workloads mix ops whose latencies differ
# tenfold, so a rank counted from the top would move from one kind of op
# to another whenever a run completes one block more or less; a fixed
# percentile keeps its place in the mix.
# * structure runs complete 3 or 4 blocks (45 or 60 ops).  p77 is the
#   highest percentile that leaves ten ops beyond it at 45 ops, and it
#   falls inside one size's latencies at both counts.
# * verify runs complete 5 to 7 passes (45 to 63 ops).  p80 stays on the
#   poset suite's latencies at all three counts; it leaves 9 ops beyond
#   it at 45 ops and 10 or more at 54 and 63.
# * A sweep run completes 6 to 8 ops, too few for any percentile to leave
#   ten beyond.  Its tail is p75, the second- or third-slowest op,
#   because the slowest of so few long ops mostly measures the machine's
#   speed swings.
TAIL_PERCENTILE = {"sweep": 75, "structure": 77, "verify": 80}
