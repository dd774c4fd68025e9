"""Irreducible maximal intervals, their inclusion order, and the rotation
that majorizes the constant profile.

For each left end i there is a unique shortest window [i : i+kappa(i)]
whose average attains the right maximal value at i; kappa maps into
[0 : n-1] and is n-periodic.  The n classes of these windows modulo
shifts by n, ordered by set inclusion of representatives, form the
interval poset.  Shortest maximal windows are always nested or
disjoint, so the Hasse diagram is a forest; when all short-window
averages are pairwise distinct (the generic case) it is a tree whose root
is the unique full-length class, whose average equals the period mean.

Every object here is read off one ``right_maximal_profile`` pass: the
classes are its lengths, the majorizing rotation is the first argmin of
its values, and the Hasse parents come from one walk over the classes'
windows (``_parents``).  The window-average table, which ``analyze``
prints, is read in floats straight off the prefix table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .periodic import (
    FLOAT,
    IndexInterval,
    Number,
    PeriodicTuple,
    Profile,
    right_maximal_profile,
)


@dataclass(frozen=True)
class MIntervalRecord:
    """Irreducible maximal interval with left end ``start`` in 1..n."""

    start: int
    kappa: int
    average: Number

    @property
    def interval(self) -> IndexInterval:
        return IndexInterval(self.start, self.start + self.kappa)

    @property
    def cardinality(self) -> int:
        return self.kappa + 1


@dataclass
class IntervalPoset:
    """The n interval classes ordered by inclusion.

    ``parent[i]`` is the start index of the smallest class strictly
    containing class i, or None for a maximal element.  ``root`` is the
    start of the full-length class when one exists (it always does for
    inputs with pairwise distinct short-window averages).
    """

    n: int
    nodes: dict[int, MIntervalRecord]
    parent: dict[int, Optional[int]]
    root: Optional[int]

    def minimal_elements(self) -> list[int]:
        have_child = set(p for p in self.parent.values() if p is not None)
        return sorted(i for i in self.nodes if i not in have_child)

    def chain_to_root(self, start: int) -> list[int]:
        chain = [start]
        while self.parent[chain[-1]] is not None:
            chain.append(self.parent[chain[-1]])
        return chain

    def is_tree(self) -> bool:
        return self.root is not None and sum(
            1 for p in self.parent.values() if p is None
        ) == 1

    def to_dict(self) -> dict:
        """Nodes, child-parent edges and root, ready for JSON."""
        nodes = [
            {
                "start": rec.start,
                "kappa": rec.kappa,
                "average": float(rec.average),
            }
            for rec in (self.nodes[i] for i in sorted(self.nodes))
        ]
        edges = [
            [child, parent]
            for child, parent in sorted(self.parent.items())
            if parent is not None
        ]
        return {"nodes": nodes, "edges": edges, "root": self.root}

    def to_dot(self) -> str:
        lines = ["digraph interval_poset {", "  rankdir=BT;"]
        for i in sorted(self.nodes):
            rec = self.nodes[i]
            label = f"[{rec.start}:{rec.start + rec.kappa}] a={float(rec.average):.6g}"
            shape = ' shape=doubleoctagon' if i == self.root else ""
            lines.append(f'  n{i} [label="{label}"{shape}];')
        for child, parent in sorted(self.parent.items()):
            if parent is not None:
                lines.append(f"  n{child} -> n{parent};")
        lines.append("}")
        return "\n".join(lines)


def _record(profile: Profile, k: int) -> MIntervalRecord:
    """The class of start k + 1."""
    return MIntervalRecord(start=k + 1, kappa=profile.lengths[k] - 1, average=profile.values[k])


def _records(profile: Profile) -> list[MIntervalRecord]:
    values, lengths = profile
    return list(map(MIntervalRecord, range(1, len(values) + 1), [r - 1 for r in lengths], values))


def m_interval(x: PeriodicTuple, i: int) -> MIntervalRecord:
    """The irreducible maximal interval with left end i (reduced to 1..n)."""
    return _record(right_maximal_profile(x), (i - 1) % x.n)


def all_m_intervals(x: PeriodicTuple) -> list[MIntervalRecord]:
    return _records(right_maximal_profile(x))


def full_maximal_start(x: PeriodicTuple) -> int:
    """Smallest i in 1..n whose full window [i : i+n-1] is maximal.

    Equivalently the smallest index at which the right maximal value is
    least; that least value is the period mean.  With distinct
    short-window averages the index is unique and kappa(i) = n-1 there,
    and it starts the majorizing rotation (x_{i*}, ..., x_{i*+n-1}): the
    one rotation whose every proper prefix sum stays below k times the
    period mean, with equality exactly at k = n.
    """
    values = right_maximal_profile(x).values
    return values.index(min(values)) + 1


def has_majorizing_prefixes(x: PeriodicTuple, start: int) -> bool:
    """Whether each proper prefix sum of the rotation at ``start`` is below k times the mean.

    ``partial < k * mean`` is tested exactly as ``partial * n < k * total``
    on the integer prefix table of the rational twin, from the first period.
    """
    x = x._exact()
    n, p = x.n, x._prefix2
    first = (start - 1) % n
    left, total = p[first], p[n]
    for k in range(1, n):
        if (p[first + k] - left) * n >= k * total:
            return False
    return True


def _parents(lengths: list[int]) -> list[Optional[int]]:
    """The start of the smallest class strictly containing each class, or None.

    ``lengths[k]`` is the length of the class of start k + 1, whose window
    on the prefix-sum points runs from k to ``ends[k]`` = k + lengths[k].
    One left-to-right walk over the windows of two periods keeps a stack
    of open windows, as links: ``below[s]`` is the window under s.  Each
    window pops every window that ends before it ends; the top left over
    starts earlier and ends no earlier, so it strictly contains the new
    window.  Where the classes nest, a popped window contains no later
    window (the window that popped it would overlap it without nesting),
    so the top is the container that starts last: the smallest.  A
    second-period window s >= n has every container starting within one
    period before it, so the top names the parent of class s - n, and a
    length-n class keeps the stack-bottom sentinel 2n.  A first-period
    window ending at or before point n pops only windows that end
    earlier still and is popped by the first second-period window, so
    the walk reads the first period only where a window crosses point n.
    """
    n = len(lengths)
    last = 2 * n
    ends = list(map(add, range(n), lengths))
    ends += [e + n for e in ends]
    ends.append(3 * n)
    below = [last] * last
    top = last
    for s in [k for k in range(n) if ends[k] > n]:
        e = ends[s]
        while ends[top] < e:
            top = below[top]
        below[s] = top
        top = s
    for s, e in zip(range(n, last), ends[n:last]):
        while ends[top] < e:
            top = below[top]
        below[s] = top
        top = s
    return [None if t == last else t % n + 1 for t in below[n:]]


def build_poset(x: PeriodicTuple) -> IntervalPoset:
    """Inclusion order of the n irreducible-maximal-interval classes.

    Each class's parent is the smallest class strictly containing it
    (``_parents``).  On generic inputs the result is a tree rooted at the
    full-length class; on tied inputs it may be a forest (root None when
    no class has cardinality n).
    """
    n = x.n
    profile = right_maximal_profile(x)
    lengths = profile.lengths
    return IntervalPoset(
        n=n,
        nodes=dict(zip(range(1, n + 1), _records(profile))),
        parent=dict(zip(range(1, n + 1), _parents(lengths))),
        root=lengths.index(n) + 1 if n in lengths else None,
    )


def distinct_short_averages(x: PeriodicTuple) -> bool:
    """Surrogate genericity test: all short-window averages pairwise distinct.

    Collects the averages of [i : i+r-1] for i = 1..n, r = 1..n-1,
    together with the period mean, and checks for collisions.  Exact, on
    the rational twin: an average s / (r D) of an integer table sum s is
    keyed by the integer s * (L // r), with L = lcm(1..n), which is equal
    for two averages exactly when they are; quadratically many values, so
    callers gate it.  The key has about 1.44 n bits: it is faster than the
    gcd-reduced (sum, length) pair below n of about 500 and slower above
    (0.25 against 0.22 s at n = 600, 1.2 against 0.7 s at n = 1000), and
    only ``verify`` calls it, at n <= 12.
    """
    x = x._exact()
    n = x.n
    p = x._prefix2
    lcm = math.lcm(*range(1, n + 1))
    seen = {p[n] * (lcm // n)}
    for i in range(n):
        left = p[i]
        for r in range(1, n):
            key = (p[i + r] - left) * (lcm // r)
            if key in seen:
                return False
            seen.add(key)
    return True


def average_table(x: PeriodicTuple) -> np.ndarray:
    """Averages of [i : i+r-1] for r = 1..n-1 (rows) and i = 1..n (columns).

    One C-contiguous float64 array of shape (n-1, n), built the same way
    on both backends: the windows of the first two periods of the prefix
    table minus its first period, divided in place by the window lengths.
    A float cell is then the subtract-and-divide of ``interval_average``.
    A rational cell divides its integer table sum by r times the common
    denominator; Python's int division rounds correctly, so the cell is
    ``float`` of the exact average, and it raises ``OverflowError``
    where that would.
    """
    n = x.n
    p = x._prefix2
    if x.backend == FLOAT:
        p, lengths = np.array(p), np.arange(1, n)
    else:
        p = np.array(p, dtype=object)
        lengths = np.array([r * x._den for r in range(1, n)], dtype=object)
    table = sliding_window_view(p[1:], n)[: n - 1] - p[:n]
    table /= lengths[:, None]
    return table.astype(float, copy=False)


def has_subnormal_cell(x: PeriodicTuple) -> bool:
    """Whether a cell of ``average_table`` is nonzero with a float below the normal range.

    A nonzero cell is at least the least positive entry over n - 1, so the
    cells are read, in O(n^2), only where that bound is below the normal
    range.
    """
    n, p, tiny = x.n, np.array(x._prefix2, dtype=object), np.finfo(float).tiny
    if n == 1 or x._ratio(min(filter(None, np.diff(p[: n + 1]))), n - 1) >= tiny:
        return False
    sums = sliding_window_view(p[1:], n)[: n - 1] - p[:n]
    return bool(np.any((sums != 0) & (average_table(x) < tiny)))
