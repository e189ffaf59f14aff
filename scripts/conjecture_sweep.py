#!/usr/bin/env python3
"""Sweep chi(G) against the improper chromatic number of G * K_{d+1}.

Runs the exact solvers over every connected graph up to a size cap (or a
named family list), checks the clustered equality as it goes, and reports
which proven cases cover each instance.  A counterexample here would be a
publishable event; the expected count is zero.  An instance that raises is
recorded with status "error" and the sweep goes on.  Exits 1 on a
counterexample, otherwise 3 if any instance raised, otherwise 2 if any
instance timed out, otherwise 0.  Bad flags print an ``error:`` line and
exit 1, as the ``boxchrom`` CLI does.  The report also gives the corpus
generation seconds and connected graph count per n, under ``generation``.

Usage:
    python scripts/conjecture_sweep.py --max-n 5 -d 1,2 --jobs 4 --out sweep.json
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

from boxchrom.cli import ArgParser, SweepSpec, _check_out, _parse_int_list, run_sweep, sweep_exit
from boxchrom.smallgraphs import GENERATION_CAP, connected_graphs


def main() -> int:
    ap = ArgParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=5,
                    help=f"largest graph size (1..{GENERATION_CAP})")
    ap.add_argument("-d", default="1,2", help="comma-separated improperness values")
    ap.add_argument("--timeout", type=float, default=60.0, help="per-instance seconds")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--out", help="write the full JSON report here")

    try:
        args = ap.parse_args()
        if not 1 <= args.max_n <= GENERATION_CAP:
            raise ValueError(f"--max-n supports 1..{GENERATION_CAP}")
        _check_out(args.out)
        ds = _parse_int_list(args.d)
        graphs, generation = [], []
        for n in range(1, args.max_n + 1):
            start = time.perf_counter()
            level = connected_graphs(n)
            generation.append({"n": n, "graphs": len(level),
                               "seconds": round(time.perf_counter() - start, 6)})
            graphs.extend(level)
        spec = SweepSpec(
            family=f"all-connected<={args.max_n}",
            graphs=tuple(graphs),
            ds=ds,
            timeout=args.timeout,
            jobs=args.jobs,
        )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    report = run_sweep(spec)
    report["generation"] = generation

    by_status = Counter(r["status"] for r in report["records"])
    annotation_counts = Counter(
        a for r in report["records"] for a in r["annotations"]
    )
    print(f"family: {report['family']}   d: {report['d_values']}")
    print("corpus generation:")
    for level in generation:
        print(f"  n={level['n']}  {level['graphs']:7d} connected graphs  {level['seconds']:.3f} s")
    print(f"instances: {report['instances']}")
    for status in ("verified", "counterexample", "timeout", "error"):
        print(f"  {status:15s} {by_status.get(status, 0)}")
    print(f"errors: {report['errors']}")
    for r in [r for r in report["records"] if r["status"] == "error"][:10]:
        print(f"  {r['graph6']}  d={r['d']}  {r['error']['type']}: {r['error']['message']}")
    print("proven-case coverage:")
    for tag, count in sorted(annotation_counts.items()):
        print(f"  {tag:25s} {count}")
    uncovered = [
        r for r in report["records"]
        if r["status"] == "verified" and not r["annotations"]
    ]
    print(f"verified without a covering theorem: {len(uncovered)}")
    for r in uncovered[:10]:
        print(f"  {r['graph6']}  d={r['d']}  chi={r['chi']}")

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2)
        except OSError as e:
            print(f"error: cannot write --out: {e}", file=sys.stderr)
            return 1
        print(f"wrote {args.out}")
    return sweep_exit(report)


if __name__ == "__main__":
    sys.exit(main())
