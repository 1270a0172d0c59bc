#!/usr/bin/env python3
"""Run the whole closed-form catalog against brute force and summarize.

This is ``pgspectra verify --all`` plus a summary: the CLI re-derives every
catalogued case with group order up to --max-order from its Cayley table and
writes one JSON line per case to --output; this script reads the file back
and prints each theorem's number of cases, their summed ``elapsed_ms`` in
seconds and its slowest case.  Exit codes are the CLI's: 1 on a bad argument
(an unknown flag, --jobs below 1, an out-of-range --max-order, an unwritable
--output), 2 if anything is falsified.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from operator import itemgetter

from pgspectra import THEOREM_IDS, TheoremCase, cli, make_case


@cli.reports_errors
def main(argv: list[str] | None = None) -> int:
    ap = cli.Parser(description=__doc__)
    ap.add_argument("--max-order", help="largest group order to enumerate")
    ap.add_argument("--jobs", help="worker processes")
    ap.add_argument("--output", default="verification.jsonl")
    args = ap.parse_args(argv)  # the values are the CLI's to check
    given = [f"--{k.replace('_', '-')}={v}" for k, v in vars(args).items() if v is not None]
    t0 = time.perf_counter()
    code = cli.run(["verify", "--all", *given])
    wall = time.perf_counter() - t0
    if code == 1:
        return code

    by_theorem: defaultdict[str, list[tuple[float, TheoremCase]]] = defaultdict(list)
    falsified: list[str] = []
    informational = 0
    with open(args.output, encoding="utf-8") as fh:
        for line in fh:  # one report at a time, keeping only what the summary reads
            r = json.loads(line)
            case = make_case(r["theorem_id"], **r["params"])
            by_theorem[case.theorem_id].append((r["elapsed_ms"], case))
            if r["equal"] is False:
                falsified.append(f"{case.describe()}: {r['note']}")
            informational += r["equal"] is None

    width = max(len(t) for t in THEOREM_IDS)
    for tid in THEOREM_IDS:
        done = by_theorem[tid]
        line = f"{tid:<{width}}  {len(done):4d} case(s)"
        if done:
            slowest_ms, slowest = max(done, key=itemgetter(0))
            summed = sum(ms for ms, _ in done) / 1000
            line += f"  {summed:8.2f} s, slowest {slowest.describe()} {slowest_ms:.3f} ms"
        print(line)
    print()
    print(f"{sum(map(len, by_theorem.values()))} cases in {wall:.1f} s -> {args.output}")
    print(f"{len(falsified)} falsified, {informational} informational")
    for failure in falsified:
        print(f"  FAIL {failure}")
    return code


if __name__ == "__main__":
    sys.exit(main())
