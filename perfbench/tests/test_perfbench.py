"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

Smoke runs use ``--size tiny``: the same pipelines on small groups.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
from spans import SPANS, Tracer  # noqa: E402
from speed import REFERENCE_PROBE_S, SpeedClock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def tiny(workload: str, *args: str) -> tuple[dict, str]:
    proc = bench("--workload", workload, "--size", "tiny", "--seconds", "1", "--seed", "5", *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_run(workload: str, trace: int, tmp_path: Path) -> None:
    out = tmp_path / "records.jsonl"
    result, _ = tiny(workload, "--trace", str(trace), "--out", str(out))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in declared
    ]
    record = json.loads(out.read_text())
    assert {"python", "nproc", "platform", "commit", "src_sha256"} <= set(record["env"])
    if trace:
        metrics = {n: m["value"] for n, m in result["metrics"].items()}
        assert metrics["trace.unattributed_ms"] >= 0
        assert metrics["linalg.char_poly.calls"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_self_times_account_for_nested_calls() -> None:
    now = [0.0]

    def advance(dt: float) -> None:
        now[0] += dt

    tracer = Tracer(clock=lambda: now[0])
    leaf = tracer.wrap("graphs.matrix", lambda: advance(3))

    def build(depth: int) -> None:
        advance(2)
        leaf()
        if depth:
            recurse(depth - 1)  # a span nested in itself, like proper_power_graph
        advance(1)

    recurse = tracer.wrap("graphs.build", build)
    recurse(1)
    assert tracer.self_s["graphs.build"] == 6
    assert tracer.self_s["graphs.matrix"] == 6
    assert tracer.calls == {**dict.fromkeys(SPANS, 0), "graphs.build": 2, "graphs.matrix": 2}
    assert sum(tracer.self_s.values()) == now[0]


def test_tracer_rebinds_pipeline_lookups_and_restores_them() -> None:
    pg = run.import_pgspectra()
    original = pg.char_poly
    tracer = Tracer()
    tracer.install(pg)
    try:
        assert pg.theorems.char_poly is not original
        assert pg.theorems.char_poly is pg.linalg.char_poly is pg.char_poly
        assert all(hasattr(f, "__wrapped__") for f in pg.theorems.GRAPH_BUILDERS.values())
        pg.verify(pg.make_case("epg-dihedral-distance", n=4))
    finally:
        tracer.uninstall()
    assert pg.char_poly is original and pg.theorems.char_poly is original
    assert not any(hasattr(f, "__wrapped__") for f in pg.theorems.GRAPH_BUILDERS.values())
    assert tracer.calls["linalg.char_poly"] == 1
    assert tracer.calls["theorems.closed_form"] == 1
    assert tracer.calls["linalg.expand"] == 1
    assert tracer.dim_max == 8


def test_traced_self_time_covers_most_of_the_item_time() -> None:
    result, _ = tiny("catalog-sweep", "--trace", "1")
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    spans = sum(v for n, v in metrics.items() if n.endswith(".self_ms"))
    # unattributed time is harness glue: verify(), comparisons, digests
    assert metrics["trace.unattributed_ms"] < spans
    # the pg-dihedral closed form computes char_poly itself, beyond one call per case
    cases = run.import_pgspectra().enumerate_cases(12)
    assert metrics["linalg.char_poly.calls"] > len(cases)


def test_corrupted_reference_digest_counts_as_failure(tmp_path: Path) -> None:
    reference = json.loads((BENCH / "reference.json").read_text())
    digests = reference["tiny"]["dense-spectrum-64"]
    key = sorted(digests)[0]
    digests[key] = "0" * 64
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    result, stdout = tiny("dense-spectrum-64", "--reference", str(path))
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["correct_frac"]["value"] < 1
    assert key in stdout


def test_fails_without_the_package_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "catalog-sweep", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_seconds_scale_each_stretch_by_its_probes() -> None:
    clock = SpeedClock()
    clock.at = [0.0, 1.0, 2.0]
    clock.took = [REFERENCE_PROBE_S, REFERENCE_PROBE_S, 2 * REFERENCE_PROBE_S]
    # first half second at reference speed, the next at 1.5 times slower
    assert clock.reference_seconds(0.5, 1.5) == pytest.approx(0.5 + 0.5 / 1.5)
    assert clock.reference_seconds(1.25, 1.75) == pytest.approx(0.5 / 1.5)


def test_speed_clock_leaves_probe_time_out() -> None:
    with SpeedClock() as clock:
        start = clock.now()
        clock._probe()
        assert clock.now() - start < clock.took[-1] / 2
    assert len(clock.took) == 3


def test_tail_percentile_needs_ten_samples_beyond() -> None:
    assert run.tail_percentile([float(v) for v in range(1, 241)]) == (95, 228.0)
    assert run.tail_percentile([5.0, 1.0, 3.0]) == (100, 5.0)


@pytest.mark.parametrize(
    ("parent", "change", "better", "bound", "expected"),
    [
        ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "lower", 0.1, "improved"),
        ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "lower", 0.1, "worse"),
        ([10.0, 10.1, 9.9, 10.0], [10.05, 9.95, 10.0, 10.1], "lower", 0.1, "unchanged"),
        ([1.0, 1.01, 0.99, 1.0], [0.8, 0.81, 0.79, 0.8], "higher", 0.1, "worse"),
        ([10.0, 14.0, 7.0, 10.0], [10.5, 13.0, 8.0, 10.5], "lower", 0.1, "unresolved"),
    ],
)
def test_compare_verdicts(parent, change, better, bound, expected) -> None:
    pairs = list(zip(parent, change))
    assert compare.verdict(parent, change, pairs, better, bound)[0] == expected
