"""Quadratic reference implementations of the maximal-average structure.

The package derives values, shortest maximizing lengths and Hasse parents
from one O(n) stack pass (``cycmax.periodic.right_maximal_profile``).
These are the direct definitions it replaced, kept as independent oracles.
"""

from typing import Optional

from cycmax.structure import MIntervalRecord


def scan_right_maximal(x, i: int):
    """Largest window average at left end i and the smallest length attaining it.

    Windows are [i : i+r-1] for r = 1..n; strict comparison keeps the
    first (shortest) maximizer.  Window sums are the same prefix-table
    differences the pass reads, so float results are comparable bit for bit.
    """
    i0 = (i - 1) % x.n + 1
    left = x.prefix(i0 - 1)
    best, best_r = None, 0
    for r in range(1, x.n + 1):
        avg = (x.prefix(i0 + r - 1) - left) / r
        if best is None or avg > best:
            best, best_r = avg, r
    return best, best_r


def scan_profile(x):
    """(values, lengths) of ``scan_right_maximal`` for i = 1..n."""
    pairs = [scan_right_maximal(x, i) for i in range(1, x.n + 1)]
    return [v for v, _ in pairs], [r for _, r in pairs]


def _class_contains(parent: MIntervalRecord, child: MIntervalRecord, n: int) -> bool:
    """Whether some shift of ``child`` by a multiple of n lies inside ``parent``."""
    if parent.cardinality <= child.cardinality:
        return False
    return any(parent.interval.contains(child.interval.shifted(t * n)) for t in (-1, 0, 1))


def _classes_overlap(a: MIntervalRecord, b: MIntervalRecord, n: int) -> bool:
    """Whether representatives of the two classes share an index (mod shifts)."""
    for t in (-1, 0, 1):
        shifted = b.interval.shifted(t * n)
        if shifted.a <= a.interval.b and a.interval.a <= shifted.b:
            return True
    return False


def link_parents(records: list[MIntervalRecord], n: int) -> dict[int, Optional[int]]:
    """Hasse parents by smallest strict container, ties to the smaller start.

    Fails an assertion if two classes overlap without one containing the
    other.
    """
    parent: dict[int, Optional[int]] = {}
    for rec in records:
        containers = []
        for other in records:
            if other.start == rec.start:
                continue
            if _class_contains(other, rec, n):
                containers.append(other)
            else:
                assert _class_contains(rec, other, n) or not _classes_overlap(rec, other, n), (
                    f"classes {rec.interval} and {other.interval} overlap without nesting"
                )
        if containers:
            parent[rec.start] = min(containers, key=lambda r: (r.cardinality, r.start)).start
        else:
            parent[rec.start] = None
    return parent
