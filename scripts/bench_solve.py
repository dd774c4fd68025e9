"""Per-solve seconds of the chain solver, warm and cold, for one or two trees.

    python3 scripts/bench_solve.py                       # this checkout's src
    python3 scripts/bench_solve.py --parent OTHER/src    # and a second tree

Each run is a fresh Python process that imports ``cycmax`` from a tree's
``src`` directory and solves one point: the first solve is timed as cold
(the per-process size records are computed then), then ``REPEATS`` more
are timed and the least of them is the warm time.  Each solve also
counts its passes of the kernel ``reduction._forward``, cold and warm
(the most over the warm solves); the count costs a call per pass.  The
cold solve also times its calls of the peak search ``reduction._peaks``,
and the process reports its peak resident memory (``ru_maxrss``) right
after it, before any warm solve.  On a
shared machine the warm solves of one process split into modes far
apart, so a median picks one of them at random; the least is stable to a
few percent.  The points are n = 1e3, 1e6, 1e30, 1e100 and 1e300, each
solved as ``reduction._minimize_many([(n, 1/n)])``, the 8-point
benchmark grid ``geometric_grid(1e3, 1e6, 8)`` solved as one batch, and
the dense grid ``geometric_grid(1e3, 1e6, 20000)`` (18,817 distinct n)
solved as one batch, timed over ``DENSE_REPEATS`` warm solves.  With ``--parent``
the two trees run alternately, point by point.  Cold solves, one per
process, also split into modes far apart, so the least cold time over the
runs is reported beside the median.  Prints one JSON object: per tree and
point the median over ``RUNS`` runs of both times and of the cold peak
search and of the peak resident memory after the cold solve, the least
cold time, the kernel passes cold and warm and every run, and the
parent-to-change ratios of the medians and of the least cold times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

POINTS = ["1e3", "1e6", "1e30", "1e100", "1e300", "grid8", "dense"]
RUNS = 5  # fresh processes per tree and point
REPEATS = 20  # warm solves timed per run
DENSE_REPEATS = 3  # warm solves timed per run of the dense grid, 0.5-0.8 s each

CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from cycmax import reduction
from cycmax.asymptotics import geometric_grid

point, repeats = sys.argv[2], int(sys.argv[3])
if point == "grid8":
    problems = [(n, 1.0 / n) for n in geometric_grid(1e3, 1e6, 8)]
elif point == "dense":
    problems = [(n, 1.0 / n) for n in geometric_grid(1e3, 1e6, 20000)]
else:
    n = 10 ** int(point[2:])
    problems = [(n, 1.0 / n)]
forward, passes = reduction._forward, [0]
peaks, peaks_s = reduction._peaks, [0.0]

def counted(*args, **kwargs):
    passes[0] += 1
    return forward(*args, **kwargs)

def timed(*args, **kwargs):
    t = time.perf_counter()
    try:
        return peaks(*args, **kwargs)
    finally:
        peaks_s[0] += time.perf_counter() - t

reduction._forward, reduction._peaks = counted, timed
t = time.perf_counter()
reduction._minimize_many(problems)
cold = time.perf_counter() - t
cold_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux
cold_passes, warm, warm_passes = passes[0], [], 0
for _ in range(repeats):
    passes[0] = 0
    t = time.perf_counter()
    reduction._minimize_many(problems)
    warm.append(time.perf_counter() - t)
    warm_passes = max(warm_passes, passes[0])
print(json.dumps({"cold_s": cold, "cold_peaks_s": peaks_s[0], "cold_rss_mb": cold_rss_mb, "warm_s": min(warm), "cold_passes": cold_passes, "warm_passes": warm_passes}))
"""


def run(src: str, point: str) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", CHILD, src, point, str(DENSE_REPEATS if point == "dense" else REPEATS)],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy

    return {"cpu": cpu, "cores": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"), help="the tree measured as the change")
    parser.add_argument("--parent", help="src directory of a second tree, measured alternately")
    args = parser.parse_args()
    trees = {"change": args.src} | ({"parent": args.parent} if args.parent else {})
    runs = {name: {point: [] for point in POINTS} for name in trees}
    for point in POINTS:
        for i in range(RUNS):
            for name in sorted(trees, reverse=i % 2 == 1):
                runs[name][point].append(run(trees[name], point))
    record = {"machine": machine(), "runs": RUNS, "repeats": REPEATS, "dense_repeats": DENSE_REPEATS, "trees": {}}
    for name, points in runs.items():
        record["trees"][name] = {
            point: {
                "cold_s": statistics.median(r["cold_s"] for r in rs),
                "cold_min_s": min(r["cold_s"] for r in rs),
                "cold_peaks_s": statistics.median(r["cold_peaks_s"] for r in rs),
                "cold_rss_mb": statistics.median(r["cold_rss_mb"] for r in rs),
                "warm_s": statistics.median(r["warm_s"] for r in rs),
                "cold_passes": max(r["cold_passes"] for r in rs),
                "warm_passes": max(r["warm_passes"] for r in rs),
                "cold_runs": [r["cold_s"] for r in rs],
                "cold_peaks_runs": [r["cold_peaks_s"] for r in rs],
                "cold_rss_runs": [r["cold_rss_mb"] for r in rs],
                "warm_runs": [r["warm_s"] for r in rs],
            }
            for point, rs in points.items()
        }
    if args.parent:
        change, parent = record["trees"]["change"], record["trees"]["parent"]
        record["parent_over_change"] = {
            point: {kind: parent[point][kind] / change[point][kind] for kind in ("cold_s", "cold_min_s", "cold_peaks_s", "cold_rss_mb", "warm_s")}
            for point in POINTS
        }
    print(json.dumps(record, indent=1))


if __name__ == "__main__":
    main()
