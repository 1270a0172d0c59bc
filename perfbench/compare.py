#!/usr/bin/env python3
"""Compare benchmark records of a parent and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds records appended by ``run.py --out``.  For every workload and
metric it prints each side's median and quartiles, the pairs the change
won (runs are paired by seed; ties count for neither side) and a verdict:

- ``improved``: the change wins at least nine tenths of the pairs and the
  medians differ by more than the parent's own quartile spread, or every
  change run beats every parent run;
- ``worse``: the change's median is worse than the parent's by more than the
  metric's bound in ``BENCHMARK.json`` (metrics without a bound: it loses
  nine tenths of the pairs by more than the parent's spread);
- ``unresolved``: either side's spread is wider than the bound;
- ``unchanged``: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict[tuple[str, int], dict[int, dict]]:
    """``(workload, trace) -> seed -> metric values`` from a JSONL file."""
    out: dict[tuple[str, int], dict[int, dict]] = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                values = {k: m["value"] for k, m in rec["metrics"].items()}
                out.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = values
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(
    parent: list[float], change: list[float], pairs: list[tuple[float, float]],
    better: str, bound: float | None,
) -> tuple[str, int]:
    """``(verdict, pairs won by the change)`` under the rules in the module docstring."""
    sign = -1 if better == "lower" else 1  # sign * (change - parent) > 0 means better
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    pm, cm = statistics.median(parent), statistics.median(change)
    if pm:
        gain = sign * (cm - pm) / abs(pm)
    else:
        gain = 0.0 if cm == pm else sign * (cm - pm) * float("inf")
    noise = spread(parent)
    if better == "lower":
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    if (pairs and wins >= 0.9 * len(pairs) and gain > noise) or all_better:
        return "improved", wins
    if bound is not None and -gain > bound:
        return "worse", wins
    if bound is None and pairs and losses >= 0.9 * len(pairs) and -gain > noise:
        return "worse", wins
    if bound is not None and max(noise, spread(change)) > bound:
        return "unresolved", wins
    return "unchanged", wins


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = load(args.parent), load(args.change)
    worse = False
    for key in sorted(parent.keys() & change.keys()):
        p_runs, c_runs = parent[key], change[key]
        print(f"{key[0]} ({'traced' if key[1] else 'untraced'}): "
              f"{len(p_runs)} parent runs, {len(c_runs)} change runs")
        for name in next(iter(p_runs.values())):
            meta = declared.get(name, {"unit": "?", "better": "lower"})
            p_vals = [r[name] for r in p_runs.values()]
            c_vals = [r[name] for r in c_runs.values() if name in r]
            if not c_vals:
                continue
            seeds = [s for s in p_runs.keys() & c_runs.keys() if name in c_runs[s]]
            pairs = [(p_runs[s][name], c_runs[s][name]) for s in seeds]
            result, wins = verdict(p_vals, c_vals, pairs, meta["better"], meta.get("bound"))
            worse |= result == "worse"
            pq, cq = quartiles(p_vals), quartiles(c_vals)
            print(
                f"  {name:36} {meta['unit']:6} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
                f"  change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]"
                f"  won {wins}/{len(pairs)}  {result}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
