#!/usr/bin/env python3
"""Run a pgspectra benchmark workload and print its metrics.

    python3 perfbench/run.py --workload catalog-sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all      # every workload, traced and not

Run from the root of a source checkout; the package is imported from
``src/``.  The workload's items run in passes until another pass would
overrun ``--seconds`` (at least one pass).  With ``--trace 1`` each pass
without tracing is followed by one with the per-layer tracer installed.
Times are in reference seconds, scaled by machine-speed probes (``speed.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the ``end_to_end``
metrics of ``BENCHMARK.json`` without tracing, its ``per_layer`` metrics
with.  ``--out FILE`` also appends a full record (metrics, tail percentile,
environment) as a JSON line, the input of ``compare.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

from spans import SPANS, Tracer
from speed import REFERENCE_PROBE_S, SpeedClock, probe
from workloads import SIZES, WORKLOADS, digest, make_items

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9


def import_pgspectra() -> Any:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import pgspectra
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import pgspectra from {src}: {exc}") from None
    if Path(pgspectra.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: pgspectra imported from {pgspectra.__file__}, not {src}")
    return pgspectra


def load_reference(path: Path, size: str, workload: str) -> dict[str, str]:
    with open(path) as fh:
        return json.load(fh).get(size, {}).get(workload, {})


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    """Digest of the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(affinity) if affinity is not None else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "src_sha256": src_sha256(),
    }


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2**20 if sys.platform == "darwin" else rss / 1024


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


@dataclass
class Row:
    """One item run.  Times are in reference seconds (see ``speed.py``)."""

    key: str
    seconds: float
    raw_seconds: float
    ok: bool
    digest: str
    spans: dict[str, float] | None  # traced self time per span


def run_pass(
    pg: Any, items: list, clock: SpeedClock, tracer: Tracer | None = None
) -> list[Row]:
    """Run every item once, timing it on ``clock``."""
    timed = []
    with clock:
        if tracer is not None:
            tracer.install(pg)
        try:
            for item in items:
                # Garbage of earlier items is collected outside the timed
                # region, so the seed's item order does not move GC pauses.
                gc.collect()
                before = dict(tracer.self_s) if tracer is not None else None
                start = clock.now()
                try:
                    output, ok = item.run()
                except pg.SpectraError as exc:
                    output, ok = f"{type(exc).__name__}: {exc}", False
                end = clock.now()
                spans = None
                if tracer is not None:
                    spans = {s: tracer.self_s[s] - before[s] for s in SPANS}
                timed.append((item.key, start, end, ok, digest(output), spans))
        finally:
            if tracer is not None:
                tracer.uninstall()
    rows = []
    for key, start, end, ok, out_digest, spans in timed:
        seconds = clock.reference_seconds(start, end)
        if spans is not None and end > start:
            spans = {s: v * seconds / (end - start) for s, v in spans.items()}
        rows.append(Row(key, seconds, end - start, ok, out_digest, spans))
    return rows


def measure_setup(args: argparse.Namespace) -> tuple[float, float]:
    """Median (reference, raw) seconds, over fresh processes, to import pgspectra and build the inputs."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--size", args.size, "--seed", str(args.seed),
        "--reference", str(args.reference),
    ]
    ref, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        r, w = proc.stdout.split()[-2:]
        ref.append(float(r))
        raw.append(float(w))
    return statistics.median(ref), statistics.median(raw)


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples beyond it (nearest rank).

    With ten samples or fewer no percentile qualifies, and the maximum is
    reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= 10:
            return p, ordered[rank - 1]
    return 100, ordered[-1]


def samples(rows: list[Row], raw: bool = False) -> dict[str, list[float]]:
    """Each item's times, in run order."""
    per_key: dict[str, list[float]] = {}
    for row in rows:
        per_key.setdefault(row.key, []).append(row.raw_seconds if raw else row.seconds)
    return per_key


def item_times(rows: list[Row], raw: bool = False) -> tuple[dict, dict]:
    """Metrics of the item set, from each item's median over its runs."""
    # The item set is fixed, so these do not depend on how many passes fit.
    per_item = [statistics.median(v) for v in samples(rows, raw).values()]
    correct = sum(1 for r in rows if r.ok)
    p, tail = tail_percentile(per_item)
    values = {
        "items_per_s": correct / sum(r.raw_seconds if raw else r.seconds for r in rows),
        "item_p50_ms": statistics.median(per_item) * 1000,
        "item_tail_ms": tail * 1000,
    }
    return values, {"percentile": p, "samples": len(per_item)}


def per_layer_metrics(untraced: list[Row], traced: list[Row], tracer: Tracer, passes: int) -> dict:
    traced_s = sum(r.seconds for r in traced)
    values: dict[str, float] = {}
    for span in SPANS:
        values[f"{span}.self_ms"] = sum(r.spans[span] for r in traced) * 1000 / passes
        values[f"{span}.calls"] = tracer.calls[span] / passes
    values["linalg.char_poly.dim_sum"] = tracer.dim_sum / passes
    values["linalg.char_poly.dim_max"] = tracer.dim_max
    values["linalg.char_poly.coeff_bits_max"] = tracer.coeff_bits_max
    values["trace.overhead_frac"] = traced_s / sum(r.seconds for r in untraced) - 1
    spans_s = sum(sum(r.spans.values()) for r in traced)
    values["trace.unattributed_ms"] = (traced_s - spans_s) * 1000 / passes
    return values


def run_workload(args: argparse.Namespace) -> int:
    benchmark = load_benchmark()
    seconds = args.seconds or benchmark["run_seconds"]
    pg = import_pgspectra()
    items = make_items(pg, args.workload, args.size, args.seed)
    if args.write_reference:
        return write_reference(pg, items, args)
    reference = load_reference(args.reference, args.size, args.workload)
    setup_s, raw_setup_s = measure_setup(args)

    clock = SpeedClock()
    tracer = Tracer(clock=clock.now) if args.trace else None
    untraced: list[Row] = []
    traced: list[Row] = []
    passes = 0
    start = perf_counter()
    while True:
        untraced += run_pass(pg, items, clock)
        if tracer is not None:
            traced += run_pass(pg, items, clock, tracer)
        passes += 1
        elapsed = perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            break

    for row in untraced + traced:
        row.ok = row.ok and reference.get(row.key) == row.digest
    failed = [r.key for r in untraced + traced if not r.ok]
    attempted = len(untraced) + len(traced)
    raw = None
    tail = None
    if args.trace:
        values = per_layer_metrics(untraced, traced, tracer, passes)
    else:
        values, tail = item_times(untraced)
        raw, _ = item_times(untraced, raw=True)
        raw["setup_s"] = raw_setup_s
        values.update(
            setup_s=setup_s,
            peak_rss_mb=peak_rss_mb(),
            correct_frac=sum(1 for r in untraced if r.ok) / len(untraced),
        )
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": metrics}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "size": args.size,
        "passes": passes,
        "tail": tail,
        "raw": raw,
        "probe_median_s": statistics.median(clock.took),
        "samples": samples(untraced),
        "reference_probe_s": REFERENCE_PROBE_S,
        "failed_items": sorted(set(failed)),
        "env": environment(),
        **result,
    }
    print_report(record)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def print_report(record: dict) -> None:
    mode = "traced" if record["trace"] else "untraced"
    print(
        f"{record['workload']} ({record['size']}, seed {record['seed']}, {mode}): "
        f"{record['passes']} pass(es), {record['attempted']} items, {record['failed']} failed "
        f"(failed_frac {record['failed'] / record['attempted']:.4g})"
    )
    for name, m in record["metrics"].items():
        line = f"  {name:36} {m['value']:>14.6g} {m['unit']}"
        if record["raw"] and name in record["raw"]:
            line += f"  (raw {record['raw'][name]:.6g})"
        if name == "item_tail_ms":
            line += f"  (p{record['tail']['percentile']} of {record['tail']['samples']} per-item medians)"
        if name.endswith(".self_ms"):
            total = sum(v["value"] for k, v in record["metrics"].items() if k.endswith(".self_ms"))
            line += f"  ({100 * m['value'] / total:.1f}% of traced self time)" if total else ""
        print(line)
    if record["failed_items"]:
        print("  failed items: " + ", ".join(record["failed_items"]))
    print(f"  speed probe median {record['probe_median_s'] * 1000:.4g} ms "
          f"(reference {record['reference_probe_s'] * 1000:.4g} ms)")
    env = record["env"]
    print(
        f"  env: python {env['python']}, nproc {env['nproc']}, {env['platform']}, "
        f"commit {env['commit']}, src sha256 {env['src_sha256'][:16]}"
    )


def write_reference(pg: Any, items: list, args: argparse.Namespace) -> int:
    rows = run_pass(pg, items, SpeedClock())
    bad = [r.key for r in rows if not r.ok]
    if bad:
        print("perfbench: not writing a reference; failed items: " + ", ".join(bad), file=sys.stderr)
        return 1
    try:
        with open(args.reference) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {}
    data.setdefault(args.size, {})[args.workload] = {r.key: r.digest for r in rows}
    with open(args.reference, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(rows)} digests for {args.size}/{args.workload} to {args.reference}")
    return 0


def setup_probe(args: argparse.Namespace) -> int:
    """Print the reference and raw seconds of set-up in this fresh process."""
    before = probe()
    start = perf_counter()
    pg = import_pgspectra()
    make_items(pg, args.workload, args.size, args.seed)
    load_reference(args.reference, args.size, args.workload)
    seconds = perf_counter() - start
    scale = REFERENCE_PROBE_S / ((before + probe()) / 2)
    print(seconds * scale, seconds)
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload, untraced then traced, each run in its own fresh process."""
    summary = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--trace", str(trace),
                "--size", args.size, "--reference", str(args.reference),
            ]
            cmd += ["--seconds", str(args.seconds)] if args.seconds else []
            cmd += ["--out", args.out] if args.out else []
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"perfbench: {workload} (trace {trace}) exited with {proc.returncode}")
                return 1
            summary.append((workload, trace, json.loads(lines[-1])))
    print("\nsummary")
    for workload, trace, result in summary:
        frac = result["failed"] / result["attempted"]
        print(f"{workload} trace={trace}: correct={result['correct']} failed_frac={frac:.4g}")
        if not trace:
            for name, m in result["metrics"].items():
                print(f"  {name:14} {m['value']:>12.6g} {m['unit']}")
    return 0 if all(r["correct"] for _, _, r in summary) else 1


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1, help="permutes the item order only")
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full", help="tiny: small groups, for smoke tests")
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json")
    parser.add_argument("--write-reference", action="store_true", help="record output digests of one pass")
    parser.add_argument("--out", help="append the full result record to this JSONL file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
