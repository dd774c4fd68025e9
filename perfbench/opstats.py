"""Summary statistics of a benchmark run: latency percentiles and failure counts."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Optional, Sequence

# Calibration samples on each side of an op that set the speed it ran at.
CALIB_WINDOW = 2


@dataclass
class OpResult:
    """One timed call: its kind and size, how long it took, and what went wrong."""

    kind: str
    size: int
    seconds: float
    failures: list[str] = field(default_factory=list)
    out_bytes: int = 0
    traced: bool = False
    value: Optional[float] = None  # an accuracy figure read off the output, if any
    calib_s: float = 0.0  # the calibration task's time just before this op

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class Tail:
    """Latency at ``percentile`` (nearest rank), with ``beyond`` ops above that rank."""

    seconds: float
    percentile: int
    beyond: int
    ops: int


def percentile(latencies: Sequence[float], q: int) -> Tail:
    """Nearest-rank percentile ``q`` of ``latencies`` and the count above its rank."""
    ordered = sorted(latencies)
    m = len(ordered)
    if m == 0:
        raise ValueError("no latencies")
    rank = max(1, math.ceil(q * m / 100))
    return Tail(ordered[rank - 1], q, m - rank, m)


def error_rate(results: Sequence[OpResult]) -> float:
    """Ops that raised, exited non-zero or failed a check, over ops attempted."""
    if not results:
        raise ValueError("no ops attempted")
    return sum(1 for r in results if not r.ok) / len(results)


def scaled(seconds: Sequence[float], calib_s: Sequence[float], reference_s: float) -> list[float]:
    """Each time rescaled to the speed at which the calibration task takes ``reference_s``.

    ``calib_s[i]`` is the calibration task's time measured just before
    ``seconds[i]``.  The speed around item i is the median calibration
    time over items i-CALIB_WINDOW .. i+CALIB_WINDOW+1, which includes the
    sample taken right after item i.
    """
    out = []
    for i, t in enumerate(seconds):
        local = statistics.median(calib_s[max(0, i - CALIB_WINDOW): i + CALIB_WINDOW + 2])
        out.append(t * reference_s / local)
    return out


def end_to_end(results: Sequence[OpResult], tail_q: int, reference_s: float) -> dict:
    """Throughput and latency of the successful ops of one run.

    Throughput divides completed ops by the time spent inside ops, so the
    output checks that run between ops do not count against the program.
    The tail is the nearest-rank percentile ``tail_q``.  The metrics use
    latencies rescaled to the reference speed (see ``scaled``); the
    ``raw_`` entries use the wall-clock latencies.
    """
    at_reference = scaled([r.seconds for r in results], [r.calib_s for r in results], reference_s)
    out = {"ops": sum(1 for r in results if r.ok), "error_rate": error_rate(results)}
    for prefix, times in (("", at_reference), ("raw_", [r.seconds for r in results])):
        good = [t for t, r in zip(times, results) if r.ok]
        if not good:
            continue
        tail = percentile(good, tail_q)
        out.update({
            f"{prefix}ops_per_s": len(good) / sum(good),
            f"{prefix}op_s_p50": statistics.median(good),
            f"{prefix}op_s_tail": tail.seconds,
        })
        out["tail_percentile"], out["tail_ops_beyond"] = tail.percentile, tail.beyond
    return out


def quartile_spread(values: Sequence[float]) -> Optional[float]:
    """Distance between the first and third quartile as a share of the median."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else None
