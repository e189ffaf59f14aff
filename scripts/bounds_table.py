#!/usr/bin/env python3
"""Tabulate every lower bound against exact improper chromatic numbers.

For each input graph and improperness value, prints the spectral bounds, the
inertia bound, the clique bound, and the exact solver value, so the gaps are
visible at a glance.  Defaults to a small tour of named graphs.  Bad flags
print an ``error:`` line and exit 1 before the table starts.

Usage:
    python scripts/bounds_table.py --named petersen --named c5 -d 0,1,2
"""

from __future__ import annotations

import sys

from boxchrom.bounds import bound_report
from boxchrom.cli import ArgParser, _parse_int_list, resolve_named
from boxchrom.graphs import Graph
from boxchrom.solvers import DEFAULT_CAP, chromatic_improper

DEFAULT_TOUR = ["petersen", "paley9", "bowtie", "c5", "c7", "k3,3", "k6"]


def row(g: Graph, label: str, d: int) -> str:
    report = bound_report(g, d)
    exact = chromatic_improper(g, d)
    values = {}
    for e in report.entries:
        if e.kind != "lower" or e.value is None:
            continue
        # keep the strongest variant of each multi-parameter family
        key = e.name.split("_")[0] if e.name.startswith("wocjan") else e.name
        if key not in values or e.value > values[key]:
            values[key] = e.value
    cells = [
        f"{label:12s}",
        f"{d}",
        f"{values.get('hoffman_bilu', float('nan')):8.4f}",
        f"{values.get('wocjan', float('nan')):8.4f}",
        f"{values.get('inertia_adjacency', float('nan')):8.4f}",
        f"{values.get('clique', float('nan')):8.4f}",
        f"{report.best_lower:4d}",
        f"{exact.value:5d}",
        "tight" if report.best_lower == exact.value else "",
    ]
    return "  ".join(cells)


def main() -> int:
    ap = ArgParser(description=__doc__.splitlines()[0])
    ap.add_argument("--named", action="append", help="graph name, repeatable")
    ap.add_argument("-d", default="0,1,2", help="comma-separated improperness values")

    try:  # every flag is checked before the table starts
        args = ap.parse_args()
        ds = _parse_int_list(args.d)
        if any(d < 0 for d in ds):
            raise ValueError(f"d values must be non-negative, got {args.d}")
        graphs = [(name, resolve_named(name)) for name in args.named or DEFAULT_TOUR]
        for name, g in graphs:
            if g.n > DEFAULT_CAP:
                raise ValueError(f"{name} has {g.n} vertices, solver cap is {DEFAULT_CAP}")
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    header = ["graph       ", "d", "hoffman ", "wocjan  ", "inertia ",
              "clique  ", "best", "exact", ""]
    print("  ".join(header))
    print("-" * 78)
    for name, g in graphs:
        for d in ds:
            print(row(g, name, d))
    return 0


if __name__ == "__main__":
    sys.exit(main())
