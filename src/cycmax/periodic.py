"""Periodic tuples, integer intervals, and one-sided maximal averages.

Conventions used throughout the package:

* An n-tuple x = (x_1, ..., x_n) of nonnegative reals is extended
  n-periodically to all integer indices, so x_{i+kn} = x_i.
* An integer interval [a:b] (b >= a) is the index set {a, ..., b} of
  cardinality b - a + 1; intervals differing by a shift of a multiple
  of n are equivalent and carry the same average.
* The right maximal value at i is the largest window average over
  windows [i : i+r-1] with 1 <= r <= n.  Restricting to r <= n loses
  nothing: a window longer than one period averages the full-period
  mean into a shorter window, so it can never beat both.
* All maximal searches use strict ``>`` so the reported maximizing
  window length is the smallest one attaining the maximum.  This keeps
  tie handling deterministic on both arithmetic backends.

Two backends are supported: binary floats (fast, numpy-assisted) and
exact rationals via ``fractions.Fraction`` (used where combinatorial
decisions hinge on exact ties).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import CycmaxError

Number = Union[int, float, Fraction]

FLOAT = "float"
RATIONAL = "rational"


@dataclass(frozen=True)
class IndexInterval:
    """Integer interval [a:b] with b >= a."""

    a: int
    b: int

    def __post_init__(self):
        if self.b < self.a:
            raise ValueError(f"empty interval [{self.a}:{self.b}]")

    @property
    def cardinality(self) -> int:
        return self.b - self.a + 1

    def is_short(self, n: int) -> bool:
        return self.b - self.a < n

    def shifted(self, k: int) -> "IndexInterval":
        return IndexInterval(self.a + k, self.b + k)

    def equivalent_to(self, other: "IndexInterval", n: int) -> bool:
        return (self.a - other.a) % n == 0 and self.b - self.a == other.b - other.a

    def contains(self, other: "IndexInterval") -> bool:
        return self.a <= other.a and other.b <= self.b

    def __str__(self) -> str:
        return f"[{self.a}:{self.b}]"


class PeriodicTuple:
    """Nonnegative n-tuple with implicit n-periodic extension.

    Values are either all floats or all ``Fraction`` (the rational
    backend).  At least one entry must be positive, which keeps every
    maximal average strictly positive.
    """

    __slots__ = ("n", "values", "backend", "_prefix", "_prefix2", "_total", "_np2")

    def __init__(self, values: Sequence[Number], backend: str | None = None):
        vals = list(values)
        if not vals:
            raise ValueError("tuple must have at least one entry")
        for v in vals:
            if isinstance(v, (float, np.floating)) and not math.isfinite(v):
                raise ValueError(f"entries must be finite, got {v!r}")
        if backend is None:
            backend = RATIONAL if any(isinstance(v, Fraction) for v in vals) else FLOAT
        if backend == RATIONAL:
            vals = [Fraction(v) for v in vals]
        elif backend == FLOAT:
            vals = [float(v) for v in vals]
        else:
            raise ValueError(f"unknown backend {backend!r}")
        if any(v < 0 for v in vals):
            raise ValueError("entries must be nonnegative")
        if all(v == 0 for v in vals):
            raise ValueError("at least one entry must be positive")

        self.n = len(vals)
        self.values = tuple(vals)
        self.backend = backend

        # One-period running sums; prefix[k] = x_1 + ... + x_k.
        zero = Fraction(0) if backend == RATIONAL else 0.0
        prefix = [zero]
        for v in vals:
            prefix.append(prefix[-1] + v)
        self._prefix = prefix
        self._total = prefix[-1]
        # Two-period table so scalar and vector paths share identical
        # float roundings for every in-window sum.
        self._prefix2 = prefix + [self._total + s for s in prefix[1:]]
        self._np2 = (
            np.asarray(self._prefix2, dtype=float) if backend == FLOAT else None
        )

    @property
    def total(self) -> Number:
        return self._total

    @property
    def average(self) -> Number:
        return self._total / self.n

    def value(self, i: int) -> Number:
        """Entry at any integer index, via periodic extension."""
        return self.values[(i - 1) % self.n]

    def prefix(self, k: int) -> Number:
        """Sum of entries at indices 1..k for any integer k (0 for k=0)."""
        if 0 <= k <= 2 * self.n:
            return self._prefix2[k]
        q, r = divmod(k, self.n)
        return q * self._total + self._prefix[r]

    def interval_sum(self, interval: IndexInterval) -> Number:
        return self.prefix(interval.b) - self.prefix(interval.a - 1)

    def rotated(self, start: int) -> "PeriodicTuple":
        """The rotation beginning at index ``start``."""
        return PeriodicTuple(
            [self.value(start + j) for j in range(self.n)], backend=self.backend
        )

    def scaled(self, t: Number) -> "PeriodicTuple":
        return PeriodicTuple([v * t for v in self.values], backend=self.backend)

    def as_floats(self) -> np.ndarray:
        return np.asarray([float(v) for v in self.values])

    def __repr__(self) -> str:
        return f"PeriodicTuple({list(self.values)!r}, backend={self.backend!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PeriodicTuple)
            and self.backend == other.backend
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.backend, self.values))


def interval_average(x: PeriodicTuple, interval: IndexInterval) -> Number:
    """Mean of the entries of the periodic extension over ``interval``."""
    return x.interval_sum(interval) / interval.cardinality


def right_maximal_length(x: PeriodicTuple, i: int) -> tuple[Number, int]:
    """Largest window average at left end i and the smallest length attaining it.

    Windows are [i : i+r-1] for r = 1..n; strict comparison keeps the
    first (shortest) maximizer.
    """
    n = x.n
    i0 = (i - 1) % n + 1  # reduce to 1..n so the two-period table applies
    left = x.prefix(i0 - 1)
    best = None
    best_r = 0
    for r in range(1, n + 1):
        avg = (x.prefix(i0 + r - 1) - left) / r
        if best is None or avg > best:
            best = avg
            best_r = r
    return best, best_r


def right_maximal(x: PeriodicTuple, i: int) -> Number:
    """Right maximal value at i: max over r=1..n of the average of [i : i+r-1]."""
    return right_maximal_length(x, i)[0]


def forward_max_average(x: PeriodicTuple, i: int) -> Number:
    """Largest average over windows starting strictly after i.

    Equals the right maximal value at i+1.
    """
    return right_maximal(x, i + 1)


def right_maximal_profile(x: PeriodicTuple) -> tuple[list, list[int]]:
    """Right maximal values and smallest maximizing lengths for i = 1..n.

    The float backend runs a vectorized sweep over window lengths; it
    reproduces the scalar routine bit for bit because both read window
    sums from the same two-period prefix table.
    """
    n = x.n
    if x.backend == FLOAT:
        p2 = x._np2
        idx = np.arange(n)
        best = np.full(n, -np.inf)
        best_r = np.zeros(n, dtype=int)
        for r in range(1, n + 1):
            avg = (p2[idx + r] - p2[idx]) / r
            better = avg > best
            best = np.where(better, avg, best)
            best_r[better] = r
        return [float(v) for v in best], [int(r) for r in best_r]
    out_v, out_r = [], []
    for i in range(1, n + 1):
        v, r = right_maximal_length(x, i)
        out_v.append(v)
        out_r.append(r)
    return out_v, out_r


def parse_number(token, backend: str) -> Number:
    """One tuple entry from JSON: a number, or a string like '7/3'."""
    if isinstance(token, str):
        value = Fraction(token)
    elif isinstance(token, (int, Fraction)):
        value = Fraction(token)
    elif isinstance(token, float):
        if not math.isfinite(token):
            raise CycmaxError(f"entries must be finite, got {token!r}")
        value = token if backend == FLOAT else Fraction(str(token))
    else:
        raise CycmaxError(f"cannot interpret {token!r} as a number")
    return float(value) if backend == FLOAT else value


def tuple_from_json(text: str, backend: str = FLOAT) -> PeriodicTuple:
    """Parse {"values": [...]} into a PeriodicTuple.

    Under the rational backend, decimal literals are read exactly
    (1.2 becomes 6/5) and strings "p/q" are accepted on both backends.
    """
    if backend == RATIONAL:
        doc = json.loads(text, parse_float=Fraction)
    else:
        doc = json.loads(text)
    if not isinstance(doc, dict) or "values" not in doc:
        raise CycmaxError('tuple JSON must be an object with a "values" array')
    values = doc["values"]
    if not isinstance(values, list) or not values:
        raise CycmaxError('"values" must be a nonempty array')
    return PeriodicTuple([parse_number(v, backend) for v in values], backend=backend)


def tuple_to_json(x: PeriodicTuple) -> str:
    if x.backend == RATIONAL:
        vals = [str(v) if v.denominator != 1 else int(v) for v in x.values]
    else:
        vals = list(x.values)
    return json.dumps({"values": vals})
