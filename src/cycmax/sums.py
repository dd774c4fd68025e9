"""Cyclic sums: per-index window radii, equal-radius sums, the
maximal-average sum, and subset-collection generalizations.

The basic object is S(x, r) = sum_i x_i / mean(x_{i+1}, ..., x_{i+r_i}),
the sum over one period with each term normalized by the average of the
next r_i entries.  Taking the infimum over radii turns each denominator
into the largest forward window average, giving the maximal-average sum;
replacing forward windows by arbitrary subset collections gives the
generalized sum, whose infimum collapses to 1 whenever some collection
contains the corresponding singleton.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import index, sub
from typing import Sequence

from .errors import CycmaxError
from .periodic import FLOAT, RATIONAL, SUBNORMAL, Number, PeriodicTuple, right_maximal_profile

# How an error names a float sum past the float range.
OVERFLOW = "exceeds the float range (the rational backend sums it exactly)"


@dataclass(frozen=True)
class RadiusTuple:
    """Per-index window lengths r_1..r_n, each an ``int`` (not a bool) at least 1."""

    radii: tuple[int, ...]

    def __post_init__(self):
        if not self.radii:
            raise CycmaxError("radii must be nonempty")
        if any(type(r) is not int or r < 1 for r in self.radii):
            raise CycmaxError("radii must be positive integers")

    @classmethod
    def constant(cls, n: int, k: int) -> "RadiusTuple":
        """The radius k at each of n indices."""
        if type(k) is not int or k < 1:
            raise CycmaxError("k must be a positive integer")
        return cls(tuple([k] * n))

    @classmethod
    def _built(cls, radii: tuple[int, ...]) -> "RadiusTuple":
        """Radii that are ints at least 1 by construction, kept without the checks."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "radii", radii)
        return obj

    def __len__(self) -> int:
        return len(self.radii)


class SubsetCollectionSystem:
    """For each index i in 1..n, a nonempty list of nonempty subsets of 1..n.

    Subset entries are ints or numpy integers; a bool, float or str is
    rejected, not rounded or parsed.  Subsets are canonicalized to sorted
    tuples, and repeats are dropped, keeping the first occurrence.
    """

    def __init__(self, collections: Sequence[Sequence[Sequence[int]]]):
        if not collections:
            raise CycmaxError("system must cover at least one index")
        self.n = len(collections)
        canon: list[tuple[tuple[int, ...], ...]] = []
        for i, subsets in enumerate(collections, start=1):
            if not subsets:
                raise CycmaxError(f"collection at index {i} is empty")
            cleaned = {}  # ordered set of canonical subsets
            for subset in subsets:
                try:
                    idx = tuple(sorted(set(map(index, subset))))
                except TypeError:
                    idx = None
                if idx is None or bool in map(type, subset):
                    raise CycmaxError(f"subset {subset!r} at index {i} must hold integer indices")
                if not idx:
                    raise CycmaxError(f"empty subset in collection {i}")
                if idx[0] < 1 or idx[-1] > self.n:
                    raise CycmaxError(
                        f"subset {idx} at index {i} leaves the range 1..{self.n}"
                    )
                cleaned[idx] = None
            canon.append(tuple(cleaned))
        self.collections = tuple(canon)

    def max_subset_average(self, x: PeriodicTuple, i: int) -> Fraction:
        """Largest subset average in the i-th collection (the first on ties).

        Exact on both backends: subset sums are integer table sums of the
        rational twin, and s / r > t / q is tested as s * q > t * r.
        """
        x = x._exact()
        return x._ratio(*self._max_subset_sum(_table_entries(x), i))

    def _max_subset_sum(self, entries: list[int], i: int) -> tuple[int, int]:
        """Sum and size of that subset, over ``_table_entries``."""
        best_s, best_r = None, 1
        for idx in self.collections[i - 1]:
            s, r = sum(map(entries.__getitem__, idx)), len(idx)
            if best_s is None or s * best_r > best_s * r:
                best_s, best_r = s, r
        return best_s, best_r


def _table_entries(x: PeriodicTuple) -> list[int]:
    """A rational tuple's entries in table units, at positions 1..n."""
    return [0, *map(sub, x._prefix2[1 : x.n + 1], x._prefix2[: x.n])]


def sum_with_radii(x: PeriodicTuple, r: RadiusTuple) -> Number:
    """S(x, r) = sum_i x_i / mean of the r_i entries after i.

    On the float backend each window is summed from a slice of its own
    entries (whole periods as multiples of the period sum) with ``math.fsum``:
    a difference of prefix sums would lose a small window after a large
    entry to cancellation.  A float average below the normal range, or a
    float window sum, window length or total past the float range, is
    rejected.  The rational backend reads its exact table.
    """
    if len(r) != x.n:
        raise CycmaxError(f"expected {x.n} radii, got {len(r)}")
    n = x.n
    twice = x.values * 2
    period = math.fsum(x.values) if x.backend == FLOAT else None
    total = 0 * x.values[0]
    for i in range(1, n + 1):
        length = r.radii[i - 1]
        if period is None:
            s = x._table(i + length) - x._table(i)
        else:
            q, rest = divmod(length, n)
            try:
                s = math.fsum((q * period, *twice[i : i + rest]))
            except OverflowError:  # q, or a partial sum, past the float range
                s = math.inf
            if s == math.inf or length > sys.float_info.max:
                raise CycmaxError(f"the window of length {length} after index {i} {OVERFLOW}")
        if s == 0:
            raise CycmaxError(f"window of length {length} after index {i} sums to zero")
        denom = x._ratio(s, length)
        if period is not None and denom < sys.float_info.min:
            raise CycmaxError(f"the average of the window of length {length} after index {i} {SUBNORMAL}")
        total += x.values[i - 1] / denom
    if period is not None and not math.isfinite(total):
        raise CycmaxError(f"the sum {OVERFLOW}")
    return total


def diananda_sum(x: PeriodicTuple, k: int) -> Number:
    """sum_i x_i / (x_{i+1} + ... + x_{i+k}), the equal-radius sum over k."""
    return sum_with_radii(x, RadiusTuple.constant(x.n, k)) / k


@dataclass(frozen=True)
class MaxSumResult:
    """Value of the maximal-average sum and the componentwise argmax radii."""

    value: Number
    radii: RadiusTuple


def max_avg_sum(x: PeriodicTuple) -> MaxSumResult:
    """sum_i x_i / m_i where m_i is the largest forward window average at i.

    m_i equals the right maximal value at i+1, so the argmax radius at i
    is the length of the irreducible maximal interval at i+1 (smallest
    maximizing window).  The returned radii give sum_with_radii(x, radii)
    == value exactly on the rational backend; on floats only to rounding,
    as ``sum_with_radii`` sums each window with ``math.fsum``.
    """
    values, lengths = right_maximal_profile(x)
    # the profile rotated by one place: position i-1 holds index i+1
    maxima = values[1:] + values[:1]
    total = 0 * x.values[0]
    for v, m in zip(x.values, maxima):
        total += v / m
    # the profile's lengths are ints in 1..n
    return MaxSumResult(value=total, radii=RadiusTuple._built((*lengths[1:], lengths[0])))


def generalized_max_sum(x: PeriodicTuple, system: SubsetCollectionSystem) -> Number:
    """sum_i x_i / (largest subset average in the i-th collection).

    Exact on both backends, over the rational twin's table: the sum of
    e_i r_i / s_i over table entries e_i and maxima s_i / (r_i D) is one
    integer over the lcm of the s_i until the end.  A float tuple gets
    that sum rounded once to a float.
    """
    if system.n != x.n:
        raise CycmaxError("system size must match tuple length")
    entries = _table_entries(x._exact())
    num, den = 0, 1
    for i in range(1, x.n + 1):
        s, r = system._max_subset_sum(entries, i)
        if s == 0:
            raise CycmaxError(f"all subset averages at index {i} are zero")
        g = math.gcd(den, s)
        num, den = num * (s // g) + entries[i] * r * (den // g), den // g * s
    if x.backend == RATIONAL:
        return Fraction(num, den)
    try:
        return num / den
    except OverflowError:
        raise CycmaxError(f"the sum {OVERFLOW}") from None


def radii_from_json(text: str) -> RadiusTuple:
    """Parse {"radii": [int, ...]}: a JSON array of JSON integers, no bools."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise CycmaxError(f"malformed radii JSON: {exc}") from exc
    radii = doc.get("radii") if isinstance(doc, dict) else None
    if not isinstance(radii, list):
        raise CycmaxError('radii JSON must be an object with a "radii" array')
    return RadiusTuple(tuple(radii))
