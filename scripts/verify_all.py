#!/usr/bin/env python3
"""Run the whole closed-form catalog against brute force and summarize.

Every catalogued theorem case with group order up to --max-order is
re-derived from an explicit Cayley table: build the group, build the graph,
take the exact characteristic polynomial, and compare with the closed form.
One JSON line per case goes to --output (same schema as ``pgspectra verify``);
a per-theorem summary lands on stdout: the number of cases, their summed
``elapsed_ms`` in seconds and the slowest case.  Exit code 2 if anything is
falsified, 1 on a bad argument (``--jobs`` below 1, an out-of-range
``--max-order``, an unwritable ``--output``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from pgspectra import THEOREM_IDS, SpectraError, enumerate_cases, verify
from pgspectra.theorems import DEFAULT_MAX_ORDER, VerificationReport, parallel_map


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--max-order", type=int, default=DEFAULT_MAX_ORDER, help="largest group order to enumerate"
    )
    ap.add_argument("--jobs", type=int, default=1, help="worker processes")
    ap.add_argument("--output", type=Path, default=Path("verification.jsonl"))
    args = ap.parse_args(argv)

    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 1
    try:
        cases = enumerate_cases(args.max_order)
    except SpectraError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    try:  # opened before the sweep, so an unwritable path fails at once
        fh = args.output.open("w", encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    with fh:
        t0 = time.perf_counter()
        reports = parallel_map(verify, cases, args.jobs)
        wall = time.perf_counter() - t0
        for r in reports:
            fh.write(json.dumps(r.to_json_obj()) + "\n")

    by_theorem: defaultdict[str, list[VerificationReport]] = defaultdict(list)
    for r in reports:
        by_theorem[r.case.theorem_id].append(r)
    falsified = [r for r in reports if r.equal is False]
    informational = sum(1 for r in reports if r.equal is None)

    width = max(len(t) for t in THEOREM_IDS)
    for tid in THEOREM_IDS:
        done = by_theorem[tid]
        line = f"{tid:<{width}}  {len(done):4d} case(s)"
        if done:
            slowest = max(done, key=lambda r: r.elapsed_ms)
            summed = sum(r.elapsed_ms for r in done) / 1000
            slow = f"{slowest.case.describe()} {slowest.elapsed_ms:.3f} ms"
            line += f"  {summed:8.2f} s, slowest {slow}"
        print(line)
    print()
    print(f"{len(reports)} cases in {wall:.1f} s -> {args.output}")
    print(f"{len(falsified)} falsified, {informational} informational")
    for r in falsified:
        print(f"  FAIL {r.case.describe()}: {r.note}")
    return 2 if falsified else 0


if __name__ == "__main__":
    sys.exit(main())
