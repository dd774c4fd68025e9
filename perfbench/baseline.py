"""Repeat the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/baseline.py --seeds 1-10                 # every workload
    python3 perfbench/baseline.py --seeds 1-5 --workload sweep
    python3 perfbench/baseline.py --seeds 1-10 --write         # also write baseline.json
    python3 perfbench/baseline.py --seeds 1-3 --trace 1 --write   # its per-layer part

Each run is a fresh ``run.py`` process.  For every workload and metric the
summary gives the median, the quartiles as ``statistics.quantiles(n=4)``
gives them, and their distance as a share of the median; the spread is
flagged when it exceeds a third of the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import opstats

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": opstats.quartile_spread(values),
        "values": values,
    }


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", action="store_true",
                        help="write perfbench/baseline.json from these runs")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    names = args.workload or [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    report = {}
    ok = True
    for name in names:
        runs = [run_once(name, seed, args.seconds, args.trace) for seed in seeds]
        correct = all(r["correct"] for r in runs)
        ok = ok and correct
        metrics = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            metrics[metric] = summarize(values)
            metrics[metric]["unit"] = runs[0]["metrics"][metric]["unit"]
            bound = bounds.get(metric)
            flag = ""
            spread = metrics[metric]["spread"]
            if bound is not None and spread is not None and spread > bound / 3:
                flag = f"  above a third of bound {bound}"
            print(f"{name:<10} {metric:<40} median {metrics[metric]['median']:.6g} "
                  f"spread {spread if spread is not None else float('nan'):.4f}{flag}")
        report[name] = {
            "correct": correct,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
        sys.stdout.flush()

    if args.write:
        import run  # the same environment record as a run

        path = BENCH_DIR / "baseline.json"
        doc = json.loads(path.read_text()) if path.is_file() else {}
        doc["description"] = (
            "Medians and quartiles over seeds at the commit named in environment.commit: "
            "end_to_end from runs with --trace 0, per_layer from runs with --trace 1."
        )
        doc["environment"] = run.environment()
        section = doc.setdefault("per_layer" if args.trace else "end_to_end", {})
        section.update({"seeds": seeds, "seconds": args.seconds})
        section.setdefault("workloads", {}).update(report)
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
