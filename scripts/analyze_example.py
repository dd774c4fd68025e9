#!/usr/bin/env python3
"""Walk the 10-entry worked example end to end.

Prints the window-average table with maximal cells marked, the
irreducible maximal intervals, the inclusion tree, the majorizing
rotation, and the maximal-average sum with its argmax radii; optionally
writes the tree as DOT for rendering.

Usage:
    python scripts/analyze_example.py [--dot poset.dot]
"""

import argparse
import sys

from cycmax import PeriodicTuple, build_poset, full_maximal_start, max_avg_sum
from cycmax.cli import analyze_table_csv
from cycmax.structure import has_majorizing_prefixes

EXAMPLE = [1.2, 2.3, 3.5, 1.8, 1.6, 2.4, 3.0, 3.2, 1.1, 2.5]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dot", help="write the inclusion tree as DOT to this path")
    args = parser.parse_args()

    x = PeriodicTuple(EXAMPLE)
    poset = build_poset(x)
    print("window averages (rows: length, columns: start; '*' marks the")
    print("irreducible maximal interval of each start):\n")
    print(analyze_table_csv(x, poset).replace(",", "\t"))

    print("\ninclusion tree (child -> parent):")
    for child in sorted(poset.nodes):
        parent = poset.parent[child]
        rec = poset.nodes[child]
        target = f"[{poset.nodes[parent].start}:{poset.nodes[parent].start + poset.nodes[parent].kappa}]" if parent else "(root)"
        print(f"  [{rec.start}:{rec.start + rec.kappa}] -> {target}")
    print(f"minimal elements: {poset.minimal_elements()}")

    i_star = full_maximal_start(x)
    print(f"\nmajorizing rotation starts at {i_star}; strict prefix domination:",
          has_majorizing_prefixes(x, i_star))

    res = max_avg_sum(x)
    print(f"maximal-average sum = {res.value:.12f}")
    print(f"argmax radii = {list(res.radii.radii)}")

    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(poset.to_dot() + "\n")
        print(f"wrote {args.dot}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
