"""Spans around calls into the program's layers, recorded from outside the program.

The tracer replaces a public function at every module attribute through
which the program's own code reaches it (``from .structure import
build_poset`` binds a second name in ``cycmax.cli``, so both are
replaced), and each entry of ``cycmax.verify.SUITES``.  Each call then
records a span: name, start, end, the enclosing span and the id of the
op it belongs to.  Spans stay in memory until the run writes them out.

Only names that exist are wrapped; a function that a later version of
the program removes leaves its metrics absent instead of breaking the run.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

from workloads import VERIFY_SUITES

LAYERS = ("cli", "periodic", "structure", "sums", "reduction", "asymptotics", "verify")

# Wrapped functions, named "<defining module>.<attribute>".
TARGETS = (
    "cli.main",
    "periodic.right_maximal_profile",
    "periodic.tuple_from_json",
    "structure.build_poset",
    "structure.all_m_intervals",
    "structure.full_maximal_start",
    "structure.average_table",
    "sums.max_avg_sum",
    "reduction.minimize_chain",
    "reduction.brute_force_oracle",
    "reduction.cyclic_bruteforce",
    "asymptotics.sweep",
    "asymptotics.estimate_constant_a",
)


def _solution_attrs(sol) -> dict:
    return {
        "support": getattr(sol, "support", None),
        "residual": getattr(sol, "stationarity_residual", None),
    }


def _sweep_attrs(records) -> dict:
    return {
        "points": len(records),
        "nonconverged": sum(1 for r in records if not getattr(r, "converged", True)),
    }


# Counts read off a wrapped function's return value.
OBSERVERS: dict[str, Callable[[object], dict]] = {
    "reduction.minimize_chain": _solution_attrs,
    "asymptotics.sweep": _sweep_attrs,
}


@dataclass
class Span:
    id: int
    op: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans while installed; the program runs unwrapped otherwise."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = 0
        self.present: set[str] = set()
        self.layer_warnings: Counter = Counter()
        self._stack: list[Span] = []
        self._restore: list[tuple[dict, str, object]] = []

    def call(self, name: str, fn, args, kwargs, observe=None):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), self.op, name, parent, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        try:
            result = fn(*args, **kwargs)
            if observe is not None:
                span.attrs = observe(result)
            return result
        finally:
            span.end = self.clock()
            self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, observe)

        return traced

    def current_layer(self) -> Optional[str]:
        return self._stack[-1].name.split(".")[0] if self._stack else None

    def note_warning(self) -> None:
        layer = self.current_layer()
        if layer is not None:
            self.layer_warnings[layer] += 1

    def install(self, package: str = "cycmax") -> None:
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                continue
        for name in TARGETS:
            layer, attr = name.split(".")
            fn = getattr(modules.get(layer), attr, None)
            if not callable(fn):
                continue
            self.present.add(name)
            traced = self.wrap(name, fn, OBSERVERS.get(name))
            for mod in modules.values():
                namespace = vars(mod)
                for key, value in list(namespace.items()):
                    if value is fn:
                        self._patch(namespace, key, traced)
        suites = getattr(modules.get("verify"), "SUITES", None)
        if isinstance(suites, dict):
            for key, fn in list(suites.items()):
                name = f"verify.{key}"
                self.present.add(name)
                self._patch(suites, key, self.wrap(name, fn))

    def uninstall(self) -> None:
        while self._restore:
            mapping, key, original = self._restore.pop()
            mapping[key] = original

    def _patch(self, mapping: dict, key: str, value) -> None:
        self._restore.append((mapping, key, mapping[key]))
        mapping[key] = value


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end)
        for s in spans
    }


# Per-layer metric -> the spans whose self time it sums.
SELF_TIME = {
    "reduction.minimize_chain_s": ("reduction.minimize_chain",),
    "reduction.oracle_s": ("reduction.brute_force_oracle", "reduction.cyclic_bruteforce"),
    "asymptotics.sweep_s": ("asymptotics.sweep",),
    "asymptotics.estimate_constant_a_s": ("asymptotics.estimate_constant_a",),
    "periodic.right_maximal_profile_s": ("periodic.right_maximal_profile",),
    "periodic.tuple_from_json_s": ("periodic.tuple_from_json",),
    "structure.build_poset_s": ("structure.build_poset",),
    "structure.all_m_intervals_s": ("structure.all_m_intervals",),
    "structure.full_maximal_start_s": ("structure.full_maximal_start",),
    "structure.average_table_s": ("structure.average_table",),
    "sums.max_avg_sum_s": ("sums.max_avg_sum",),
    "cli.self_s": ("cli.main",),
    **{f"verify.{s}_s": (f"verify.{s}",) for s in VERIFY_SUITES},
}

CALLS = {
    "reduction.minimize_chain_calls": "reduction.minimize_chain",
    "periodic.right_maximal_profile_calls": "periodic.right_maximal_profile",
    "structure.build_poset_calls": "structure.build_poset",
}


def layer_metrics(tracer: Tracer, ops: int, out_bytes: int) -> dict[str, float]:
    """Per-layer metrics of the traced ops, each a total divided by ``ops``.

    Dividing by the op count keeps runs comparable: a faster program
    completes more ops in the same time, so raw totals over a fixed run
    length would hide a saving.  ``_s_p50`` is a median over calls and
    ``residual_max`` a maximum over calls.
    """
    if ops < 1:
        raise ValueError("no traced ops")
    selfs = self_times(tracer.spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)
    present = tracer.present
    out: dict[str, float] = {}

    for metric, names in SELF_TIME.items():
        if all(n in present for n in names):
            out[metric] = sum(selfs[s.id] for n in names for s in by_name[n]) / ops
    for metric, name in CALLS.items():
        if name in present:
            out[metric] = len(by_name[name]) / ops

    if "cli.main" in present:
        main_spans = by_name["cli.main"]
        out["cli.main_s"] = sum(s.end - s.start for s in main_spans) / ops
        out["cli.out_bytes"] = out_bytes / ops

    if "reduction.minimize_chain" in present:
        solves = by_name["reduction.minimize_chain"]
        out["reduction.minimize_chain_s_p50"] = (
            statistics.median(s.end - s.start for s in solves) if solves else 0.0
        )
        supports = [s.attrs.get("support") for s in solves]
        residuals = [s.attrs.get("residual") for s in solves]
        out["reduction.support_sum"] = sum(v for v in supports if v is not None) / ops
        out["reduction.residual_max"] = max(
            (float(v) for v in residuals if v is not None), default=0.0
        )
    out["reduction.runtime_warnings"] = tracer.layer_warnings["reduction"] / ops

    if "asymptotics.sweep" in present:
        sweeps = by_name["asymptotics.sweep"]
        out["asymptotics.points"] = sum(s.attrs.get("points", 0) for s in sweeps) / ops
        out["asymptotics.nonconverged"] = (
            sum(s.attrs.get("nonconverged", 0) for s in sweeps) / ops
        )
    return out
