"""The cycmax benchmark.

Run from the root of a checkout that holds ``src/cycmax``:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

One run measures one workload in this process, calling ``cycmax.cli.main``
in-process from a single closed-loop client: the next command starts
when the previous one returns.  Inputs come from ``--seed`` alone; the
program sees only the generated tuple files and the ``--seed`` values
written into its command lines.  Every output is checked after its op,
outside the op's timed interval.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs each block of ops twice, once plain and once with
spans recorded around calls into each layer (see ``spans.py``), and
reports the per-layer metrics and the tracing overhead measured between
the two.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (environment,
seed, every op) goes to ``.perfbench/results/`` in the checkout.  The
workload reasons and the layer table live in ``perfbench/design.json``,
the measured baseline in ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

# Cap numpy's BLAS pool before anything imports numpy.
BLAS_THREADS = "2"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import opstats  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

SETUP_PROBES = 3
# Times are reported at the speed where calibrate() takes this long.
# The shared reference machine's speed swings by up to a third between
# and within runs; rescaling each op by the calibration measured around
# it cancels most of that, and since calibrate() shares no code with the
# program, a change to the program shows in full.
REFERENCE_CALIB_S = 0.010
CHILD_TIMEOUT_S = 600

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MB",
}


class ProgramMissing(Exception):
    pass


def load_cli():
    """Import ``cycmax.cli`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "cycmax" / "__init__.py").is_file():
        raise ProgramMissing(f"no cycmax package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cycmax.cli

    if Path(cycmax.cli.__file__).resolve().parent.parent != SRC:
        raise ProgramMissing(f"imported cycmax from {cycmax.cli.__file__}, not {SRC}")
    return cycmax.cli


class WarningSink:
    """Counts warnings instead of printing them, per category and per layer."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.tracer: spans.Tracer | None = None

    def show(self, message, category, filename, lineno, file=None, line=None):
        self.counts[category.__name__] += 1
        if self.tracer is not None and issubclass(category, RuntimeWarning):
            self.tracer.note_warning()


def calibrate() -> float:
    """Seconds for a fixed pure-Python task that shares no code with the program."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(1, 100_000):
        acc += (i % 7) / i
    frac = Fraction(0)
    for i in range(1, 500):
        frac += Fraction(1, i)
    return time.perf_counter() - start


def execute(cli, op: workloads.Op, traced: bool = False) -> opstats.OpResult:
    """Run one command, timing only the call; then check its output."""
    calib_s = calibrate()
    out, err = io.StringIO(), io.StringIO()
    failures: list[str] = []
    code = None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            failures.append(f"raised {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
    text = out.getvalue()
    value = None
    if not failures:
        try:
            failures = op.check(code, text)
            if not failures and op.measure is not None:
                value = op.measure(text)
        except Exception as exc:  # malformed output that trips the checker
            failures = [f"check raised {type(exc).__name__}: {exc}"]
    if failures:
        failures.append("argv: " + " ".join(op.argv))
    return opstats.OpResult(
        op.kind, op.size, seconds, failures, len(text.encode()), traced, value, calib_s
    )


def run_blocks(blocks, seconds: float, run_block) -> list[opstats.OpResult]:
    """Whole blocks, back to back, until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    results: list[opstats.OpResult] = []
    b = 0
    while True:
        results.extend(run_block(blocks[b % len(blocks)], b))
        b += 1
        if time.perf_counter() >= deadline:
            return results


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from process start to inputs ready, in fresh processes.

    Returns the set-up times and the calibration times measured before
    each of them and after the last.
    """
    samples, calib = [], []
    for _ in range(SETUP_PROBES):
        calib.append(calibrate())
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - start)
        proc.communicate(timeout=CHILD_TIMEOUT_S)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    calib.append(calibrate())
    return samples, calib


def setup_probe(workload: str, seed: int) -> int:
    """What a run does before its first op: import the program, write the inputs."""
    load_cli()
    workdir = STATE / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workloads.WORKLOADS[workload](seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas_threads": int(BLAS_THREADS),
        "commit": _git_commit(),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s_p50"):
        return "s"
    if name.endswith("_s"):
        return "s/op"
    if name == "reduction.residual_max":
        return "1"
    if name == "cli.out_bytes":
        return "B/op"
    if name == "trace.overhead":
        return "fraction"
    return "count/op"


def run_workload(cli, workload: str, seed: int, seconds: float, trace: bool) -> int:
    setup_samples, setup_calib = measure_setup(workload, seed)
    setup_s = statistics.median(
        t * REFERENCE_CALIB_S / statistics.median(setup_calib[i: i + 2])
        for i, t in enumerate(setup_samples)
    )
    workdir = STATE / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    sink = WarningSink()
    tracer = spans.Tracer()
    try:
        blocks = workloads.WORKLOADS[workload](seed, workdir)
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = sink.show
            if trace:
                results = run_blocks(blocks, seconds, lambda block, b: _paired(cli, tracer, sink, block, b))
            else:
                results = run_blocks(blocks, seconds, lambda block, b: [execute(cli, op) for op in block])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = [r for r in results if not r.traced]
    summary = opstats.end_to_end(plain, workloads.TAIL_PERCENTILE[workload], REFERENCE_CALIB_S)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "setup_samples_s": setup_samples,
        "setup_calib_s": setup_calib,
        "raw_setup_s": statistics.median(setup_samples),
        "warnings": dict(sink.counts),
        "summary": summary,
        "ops": [
            {"kind": r.kind, "size": r.size, "seconds": r.seconds, "traced": r.traced,
             "calib_s": r.calib_s, "failures": r.failures}
            for r in results
        ],
    }
    a_errors = [r.value for r in results if r.value is not None]
    if a_errors:
        record["a_abs_err"] = max(a_errors)

    if trace:
        traced = [r for r in results if r.traced]
        metrics = spans.layer_metrics(tracer, len(traced), sum(r.out_bytes for r in traced))
        metrics["trace.overhead"] = sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1.0
        metrics["trace.spans_per_op"] = len(tracer.spans) / len(traced)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            **{k: summary[k] for k in ("ops_per_s", "op_s_p50", "op_s_tail") if k in summary},
        }
        units = END_TO_END_UNITS
    record["metrics"] = metrics

    failed = sum(1 for r in results if not r.ok)
    _print_report(workload, seed, trace, results, summary, record, metrics, units)
    _write_record(record, tracer if trace else None)
    print(json.dumps({
        "correct": failed == 0 and set(units) <= set(metrics),
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _paired(cli, tracer: spans.Tracer, sink: WarningSink, block, b: int):
    """The block plain and traced, alternating which goes first."""
    out = []
    for traced in ((False, True) if b % 2 == 0 else (True, False)):
        if traced:
            tracer.install()
            sink.tracer = tracer
        try:
            for op in block:
                tracer.op += 1
                out.append(execute(cli, op, traced))
        finally:
            if traced:
                tracer.uninstall()
                sink.tracer = None
    return out


def _print_report(workload, seed, trace, results, summary, record, metrics, units) -> None:
    failed = [r for r in results if not r.ok]
    print(f"workload {workload}  seed {seed}  trace {'on' if trace else 'off'}  "
          f"ops {len(results)}  failed {len(failed)}")
    for name in sorted(metrics):
        print(f"  {name:<40} {metrics[name]:.6g} {units[name]}")
    if not trace:
        print(f"  {'error_rate':<40} {summary['error_rate']:.6g} fraction")
        for name in ("raw_setup_s", "raw_ops_per_s", "raw_op_s_p50", "raw_op_s_tail"):
            value = record.get(name, summary.get(name))
            if value is not None:
                print(f"  {name:<40} {value:.6g} {units[name[4:]]} (wall clock)")
        if "op_s_tail" in summary:
            print(f"  op_s_tail is p{summary['tail_percentile']} of {summary['ops']} ops, "
                  f"{summary['tail_ops_beyond']} beyond it")
        if record.get("a_abs_err") is not None:
            print(f"  {'a_abs_err':<40} {record['a_abs_err']:.6g} 1")
    for r in failed[:5]:
        print(f"FAILED {r.kind} n={r.size}: {'; '.join(r.failures)[:500]}", file=sys.stderr)


def _write_record(record: dict, tracer: spans.Tracer | None) -> None:
    out_dir = STATE / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        with open(out_dir / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(dataclasses.asdict(s)) + "\n")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process; a summary with the baseline beside it."""
    runs = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        runs[name] = json.loads(lines[-1])
    baseline_path = BENCH_DIR / "baseline.json"
    baseline = json.loads(baseline_path.read_text()) if baseline_path.is_file() else None
    summary = {"seed": seed, "seconds": seconds, "trace": int(trace), "runs": runs,
               "baseline": baseline}
    out_dir = STATE / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"all-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(summary, indent=1))
    ok = all(r["correct"] for r in runs.values())
    print(json.dumps({"correct": ok, "runs": {k: v["metrics"] for k, v in runs.items()}}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.setup_probe:
            return setup_probe(args.workload, args.seed)
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        cli = load_cli()
        return run_workload(cli, args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
