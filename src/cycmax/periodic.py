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
* The reported maximizing window is the shortest one attaining the
  maximum, which keeps tie handling deterministic on both backends.

All maximal averages come from one primitive, ``right_maximal_profile``:
a right-to-left stack pass over the prefix-sum points (F. Riesz's rising
sun lemma, i.e. the least concave majorant of the prefix sums).  It
yields the value and the shortest maximizing length of every start in
amortized O(n), and runs once per tuple.  A float value is the average
the pass ends its start's window with, so no window is divided twice.

Two backends are supported: binary floats and exact rationals via
``fractions.Fraction`` (used where combinatorial decisions hinge on
exact ties).  A rational tuple keeps its prefix sums as Python integers,
the numerators over one common denominator D (the lcm of the entry
denominators), and compares averages exactly by cross-multiplication;
``Fraction`` objects are built only for the values returned.  D bounds
the denominator of every ``Fraction`` prefix sum of the entries, so the
numbers grow no faster than summing ``Fraction`` objects would make them.
Float comparisons divide, as a per-start scan does.  Exact predicates
read a float tuple through its rational twin (``Fraction(float)`` is exact).

``PeriodicTuple`` is the one place that checks an entry: it accepts real
numbers (ints, floats, ``Fraction``s, numpy scalars) and converts each
to the backend once.  ``tuple_from_json`` only reads the strings.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import sub
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np
import orjson

from .errors import CycmaxError

Number = Union[int, float, Fraction]

FLOAT = "float"
RATIONAL = "rational"

# The entry types a tuple accepts; bool, although an int, is not one.
_REAL = (int, float, Fraction, np.integer, np.floating)

# How an error names a float average of a positive sum below the normal
# range, where it keeps fewer than 53 bits or rounds to 0.0.
SUBNORMAL = "is below the normal float range (the rational backend reads it exactly)"


@dataclass(frozen=True)
class IndexInterval:
    """Integer interval [a:b] with b >= a."""

    a: int
    b: int

    def __post_init__(self):
        if self.b < self.a:
            raise CycmaxError(f"empty interval [{self.a}:{self.b}]")

    @property
    def cardinality(self) -> int:
        return self.b - self.a + 1

    def shifted(self, k: int) -> "IndexInterval":
        return IndexInterval(self.a + k, self.b + k)

    def contains(self, other: "IndexInterval") -> bool:
        return self.a <= other.a and other.b <= self.b

    def __str__(self) -> str:
        return f"[{self.a}:{self.b}]"


def _entry(v):
    """An entry checked as a real number.

    A numpy integer comes back as an int, since a fixed-width one would
    wrap around in the rational prefix sums.
    """
    if isinstance(v, bool) or not isinstance(v, _REAL):
        shown = json.dumps(v) if isinstance(v, bool) else repr(v)
        raise CycmaxError(f"cannot interpret {shown} as a number")
    if isinstance(v, (float, np.floating)) and not math.isfinite(v):
        raise CycmaxError(f"entries must be finite, got {v!r}")
    return int(v) if isinstance(v, np.integer) else v


class PeriodicTuple:
    """Nonnegative n-tuple with implicit n-periodic extension.

    Entries are finite real numbers, a bool excepted; they are stored
    either all as floats or all as ``Fraction`` (the rational backend).
    At least one entry must be positive, which keeps every maximal
    average strictly positive.
    """

    __slots__ = ("n", "values", "backend", "_prefix2", "_den", "_profile", "_twin")

    def __init__(self, values: Sequence[Number], backend: str | None = None):
        vals = list(values)
        if not vals:
            raise CycmaxError("tuple must have at least one entry")
        # A float only has its finiteness tested and an int or a Fraction
        # passes at once.  At the first other entry every entry goes
        # through ``_entry``, in order, so the first bad one decides.
        for v in vals:
            kind = type(v)
            if not (kind is float and math.isfinite(v) or kind is int or kind is Fraction):
                vals = [_entry(v) for v in vals]
                break
        if backend is None:
            kinds = set(map(type, vals))
            backend = RATIONAL if any(issubclass(kind, Fraction) for kind in kinds) else FLOAT
        # The prefix table holds floats, or for rationals the integer
        # numerators over the common denominator ``_den``.
        if backend == RATIONAL and set(map(type, vals)) == {int}:
            # ints are their own numerators over the denominator 1
            self._den = 1
            entries = vals
            vals = list(map(Fraction, vals))
            zero = 0
        elif backend == RATIONAL:
            # a Fraction is kept as it is; Fraction() reads an int or a
            # float, and a numpy float of another width by its exact ratio
            vals = [
                v if type(v) is Fraction
                else Fraction(v) if isinstance(v, (int, float))
                else Fraction(*v.as_integer_ratio())
                for v in vals
            ]
            self._den = math.lcm(*(v.denominator for v in vals))
            entries = [v.numerator * (self._den // v.denominator) for v in vals]
            zero = 0
        elif backend == FLOAT:
            try:
                vals = list(map(float, vals))
            except OverflowError:
                raise CycmaxError(
                    "entries must lie within the float range (the rational backend reads them exactly)"
                ) from None
            self._den = None
            entries = vals
            zero = 0.0
        else:
            raise CycmaxError(f"unknown backend {backend!r}")
        if min(entries) < 0:
            raise CycmaxError("entries must be nonnegative")
        if not any(entries):
            raise CycmaxError("at least one entry must be positive")

        self.n = len(vals)
        self.values = tuple(vals)
        self.backend = backend

        # One-period running sums; prefix[k] = x_1 + ... + x_k.
        prefix = list(accumulate(entries, initial=zero))
        total = prefix[-1]
        # Two-period table: starts 1..n read their windows from the first
        # two periods, and so does the maximal-average pass.  ``_table``
        # serves the third period as 2 * total + prefix[r], the same bits
        # as total + total + prefix[r], so a float tuple is checked to
        # three periods.
        prefix.extend(map(total.__add__, prefix[1:]))
        self._prefix2 = prefix
        if backend == FLOAT and not math.isfinite(total + total + total):
            raise CycmaxError("entries too large: their sum over three periods overflows")
        # Filled by the first ``right_maximal_profile`` and ``_exact`` calls.
        self._profile: Optional[Profile] = None
        self._twin: Optional[PeriodicTuple] = None

    def _table(self, k: int):
        """Prefix sum at any integer k, in table units."""
        if 0 <= k <= 2 * self.n:
            return self._prefix2[k]
        q, r = divmod(k, self.n)
        return q * self._prefix2[self.n] + self._prefix2[r]

    def _exact(self) -> "PeriodicTuple":
        """The rational twin: the same entries, exactly, on the rational backend."""
        if self.backend == RATIONAL:
            return self
        if self._twin is None:
            self._twin = PeriodicTuple(self.values, backend=RATIONAL)
        return self._twin

    def _ratio(self, s, r: int) -> Number:
        """The average s / r of a table-unit sum s over r entries."""
        if self._den is None:
            return s / r
        return Fraction(s, r * self._den)

    @property
    def average(self) -> Number:
        return self._ratio(self._prefix2[self.n], self.n)

    def __repr__(self) -> str:
        return f"PeriodicTuple({list(self.values)!r}, backend={self.backend!r})"


def interval_average(x: PeriodicTuple, interval: IndexInterval) -> Number:
    """Mean of the entries of the periodic extension over ``interval``."""
    return x._ratio(x._table(interval.b) - x._table(interval.a - 1), interval.cardinality)


class Profile(NamedTuple):
    """Maximal structure of the starts 1..n (entry i-1 belongs to start i).

    ``values`` are the right maximal values and ``lengths`` the shortest
    windows attaining them.  The class of start i is the window
    [i : i + lengths[i-1] - 1] modulo shifts by n; its Hasse parent, the
    start of the smallest class strictly containing it (None at length
    n), is found by ``structure.build_poset``.
    """

    values: list
    lengths: list[int]


def right_maximal_profile(x: PeriodicTuple) -> Profile:
    """Right maximal values and shortest maximizing lengths.

    The pass runs once per tuple; later calls return the same result.  A
    float tuple with a right maximal value below the normal range is rejected.
    """
    if x._profile is None:
        profile = _rising_sun(x)
        if x._den is None and min(profile.values) < sys.float_info.min:
            raise CycmaxError(f"a right maximal value {SUBNORMAL}")
        x._profile = profile
    return x._profile


def _rising_sun(x: PeriodicTuple) -> Profile:
    """The stack pass behind ``right_maximal_profile``.

    One right-to-left pass over the prefix-sum points k = 2n..0 keeps a
    stack that is the upper hull of the points to the right.  At point k
    the top is popped while the average from k to the second entry is
    strictly greater than the average to the top; strict ``>`` keeps the
    shortest window on ties.  The top left after popping ends the maximal
    window starting at k+1.

    The stack is kept as links: the top at point k is always k+1, the
    point pushed last, and the entry below a point is the top it was
    pushed on, ``ends`` of that point.  So ``ends`` is indexed by point
    over all 2n points, and popping stops at the stack-bottom sentinel
    2n.  Each backend has its own loop, so the backend is tested once per
    call: rational averages are compared exactly on the integer table,
    a/b > c/d as a*d > c*b; the float loop carries the top's average and
    divides once per comparison, the same quotients as a per-start scan.

    Starts 1..n are read from the first period, so their window sums are
    the same differences of the same table entries as a per-start scan.
    Two periods suffice: left of a point's window end, the hull of the
    later points does not depend on the points past that end.  Lengths
    are clamped to n as a guard against float rounding lifting a window
    past one period above the mean window it repeats; on 20,000 seeded
    uniform float tuples at n = 2..7 it never fired.

    The float values are the pass's own averages: ``avg`` at the end of a
    point's pops is (p[top] - p[k]) / (top - k), a per-start scan's
    expression for that window, so it is kept, at index k - n of a list
    of n.  A second-period point k fills slot k - n first, and the
    first-period point k - n, whose negative index names the same slot,
    overwrites it later, so the list ends as the values of starts 1..n
    and peak memory stays that of building them afterwards (a list of 2n
    averages held 37 MB more for ``maxsum`` at n = 10**6).  The values are
    recomputed only where the clamp shortens a window.  Rational values
    are built as ``Fraction``s from the lengths.
    """
    n = x.n
    p = x._prefix2
    den = x._den
    last = 2 * n
    ends = [0] * last
    if den is None:
        avgs = [0.0] * n
        for k in range(last - 1, -1, -1):
            pk = p[k]
            top = k + 1
            avg = p[top] - pk
            while top != last:
                nxt = ends[top]
                navg = (p[nxt] - pk) / (nxt - k)
                if not navg > avg:
                    break
                top, avg = nxt, navg
            ends[k] = top
            avgs[k - n] = avg
    else:
        for k in range(last - 1, -1, -1):
            pk = p[k]
            top = k + 1
            rise, run = p[top] - pk, 1
            while top != last:
                nxt = ends[top]
                nrise, nrun = p[nxt] - pk, nxt - k
                if not nrise * run > rise * nrun:
                    break
                top, rise, run = nxt, nrise, nrun
            ends[k] = top

    lengths = list(map(sub, ends[:n], range(n)))
    clamped = max(lengths) > n
    if clamped:
        lengths = [min(r, n) for r in lengths]
    if den is None and not clamped:
        values = avgs
    elif den is None:
        values = [(p[k + r] - p[k]) / r for k, r in enumerate(lengths)]
    else:
        values = [Fraction(p[k + r] - p[k], r * den) for k, r in enumerate(lengths)]
    return Profile(values, lengths)


def right_maximal(x: PeriodicTuple, i: int) -> Number:
    """Right maximal value at i: max over r=1..n of the average of [i : i+r-1]."""
    return right_maximal_profile(x).values[(i - 1) % x.n]


# The digits of the decimal exponent of a numeric string, 7 in '1.5e-7'.
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*$")


def _exact_number(text: str) -> Fraction:
    """The exact value of a decimal literal or of a string like '7/3'.

    ``Fraction`` reads '1e1000000' as 10**1000000, which takes time that
    grows faster than the exponent, so an exponent whose magnitude exceeds
    ``sys.get_int_max_str_digits()``, the limit Python sets on integer
    literals, is rejected.
    """
    limit = sys.get_int_max_str_digits()
    exponent = _EXPONENT.search(text)
    try:
        if limit and exponent and int(exponent[1]) > limit:
            raise CycmaxError(f"the decimal exponent of {text!r} exceeds {limit} in magnitude")
        return Fraction(text)
    except ZeroDivisionError:
        raise CycmaxError(f"zero denominator in {text!r}") from None
    except ValueError as exc:
        # not a number, an exponent past the limit, or more digits than
        # int conversion allows
        raise CycmaxError(str(exc)) from None


# orjson reads arrays and objects nested to any depth, where json raises
# RecursionError at Python's recursion limit.  A text with fewer opening
# brackets than this cannot nest that deep, unless its caller already runs
# within that many frames of the limit, so only such a text goes to orjson.
_SHALLOW = 64


def _read_floats(text):
    """The document in ``text``, as ``json.loads`` reads it.

    orjson reads it when the text nests shallowly and orjson accepts it;
    it returns an integer past 64 bits as the float that ``PeriodicTuple``
    rounds that integer to.  Everything else goes to ``json.loads``, which
    gives each input orjson rejects (NaN and Infinity, a BOM, UTF-16 or
    UTF-32, a lone surrogate, a literal past the float range) its value
    or its message as before.
    """
    opening = (b"[", b"{") if isinstance(text, (bytes, bytearray)) else ("[", "{")
    if sum(map(text.count, opening)) < _SHALLOW:
        try:
            return orjson.loads(text)
        except orjson.JSONDecodeError:
            pass
    return json.loads(text)


def tuple_from_json(text: str, backend: str = FLOAT) -> PeriodicTuple:
    """Parse {"values": [...]} into a PeriodicTuple.

    Under the rational backend, decimal literals are read exactly
    (1.2 becomes 6/5) and strings "p/q" are accepted on both backends;
    every other entry goes to ``PeriodicTuple`` as JSON gave it.
    """
    try:
        if backend == RATIONAL:
            doc = json.loads(text, parse_float=_exact_number)
        else:
            doc = _read_floats(text)
    except (ValueError, RecursionError) as exc:
        # malformed JSON, arrays nested too deep, or an integer literal or
        # a decimal exponent past the digit limit
        raise CycmaxError(str(exc)) from exc
    if not isinstance(doc, dict) or "values" not in doc:
        raise CycmaxError('tuple JSON must be an object with a "values" array')
    values = doc["values"]
    if not isinstance(values, list) or not values:
        raise CycmaxError('"values" must be a nonempty array')
    if str in set(map(type, values)):
        values = [_exact_number(v) if isinstance(v, str) else v for v in values]
    return PeriodicTuple(values, backend=backend)

