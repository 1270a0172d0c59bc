"""The scripts under ``scripts/``, each run in-process on small orders."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import re
from pathlib import Path

import pytest

from pgspectra import cli, theorems

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _untimed(path: Path) -> bytes:
    return re.sub(rb'"elapsed_ms": [0-9.]+, ', b"", path.read_bytes())


def test_verify_all_writes_one_line_per_case(tmp_path, capsys):
    # The script's file is the CLI's, timing apart, and each theorem's summary line keeps its form.
    out, by_cli = tmp_path / "verification.jsonl", tmp_path / "cli.jsonl"
    assert load_script("verify_all").main(["--max-order", "40", "--output", str(out)]) == 0
    summary = capsys.readouterr().out.splitlines()
    assert cli.run(["verify", "--all", "--max-order", "40", "--output", str(by_cli)]) == 0
    assert _untimed(out) == _untimed(by_cli)
    reports = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert reports and all(r["group_order"] <= 40 for r in reports)
    assert not any(r["equal"] is False for r in reports)
    ids = theorems.THEOREM_IDS
    width = max(map(len, ids))
    for tid, line in zip(ids, summary):
        head = f"{tid:<{width}}  {sum(r['theorem_id'] == tid for r in reports):4d} case\\(s\\)"
        assert re.fullmatch(rf"{head}  +\d+\.\d\d s, slowest {tid}\(.+\) \d+\.\d{{3}} ms", line)
    informational = sum(r["equal"] is None for r in reports)
    assert summary[len(ids)] == "" and len(summary) == len(ids) + 3
    assert re.fullmatch(rf"{len(reports)} cases in \d+\.\d s -> {re.escape(str(out))}", summary[-2])
    assert summary[-1] == f"0 falsified, {informational} informational"


def test_verify_all_summary_sums_each_theorems_time_and_names_its_slowest_case(
    tmp_path, capsys, monkeypatch
):
    script = load_script("verify_all")
    real_verify = cli.verify

    def timed_verify(case):  # a fixed elapsed_ms per case, with microseconds
        elapsed_ms = 97.125 * sum(case.params_dict().values())
        return dataclasses.replace(real_verify(case), elapsed_ms=elapsed_ms)

    monkeypatch.setattr(cli, "verify", timed_verify)
    out = tmp_path / "verification.jsonl"
    assert script.main(["--max-order", "20", "--output", str(out)]) == 0
    reports = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines() if line}
    for tid in theorems.THEOREM_IDS:
        mine = [r for r in reports if r["theorem_id"] == tid]
        if not mine:
            assert lines[tid].endswith(" 0 case(s)")
            continue
        slowest = max(mine, key=lambda r: r["elapsed_ms"])
        inner = ", ".join(f"{k}={v}" for k, v in slowest["params"].items())
        summed = sum(r["elapsed_ms"] for r in mine) / 1000
        assert lines[tid].split()[1:] == [
            str(len(mine)),
            "case(s)",
            f"{summed:.2f}",
            "s,",
            "slowest",
            *f"{tid}({inner})".split(),
            f"{slowest['elapsed_ms']:.3f}",
            "ms",
        ]


def test_verify_all_default_order_is_the_library_default(tmp_path, monkeypatch):
    # the script passes no --max-order of its own, so the CLI's default holds
    monkeypatch.setattr(cli, "DEFAULT_MAX_ORDER", 12)
    out = tmp_path / "verification.jsonl"
    assert load_script("verify_all").main(["--output", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == len(theorems.enumerate_cases(12))


def test_spectra_table_prints_every_family(capsys):
    assert load_script("spectra_table").main(["--max-order", "12"]) == 0
    out = capsys.readouterr().out
    for heading in ("order p*q", "dihedral", "dicyclic", "elementary abelian", "El(p^n) x Z_m"):
        assert heading in out
    assert "D_6 (order   6)" in out
    assert "Dic_12 (order  12)" in out


@pytest.mark.parametrize("max_order", ["0", "5000"])
def test_spectra_table_reports_a_bad_max_order_in_one_line(capsys, max_order):
    assert load_script("spectra_table").main(["--max-order", max_order]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error[InvalidFamilyParameters]: ") and err.count("\n") == 1


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_verify_all_refuses_jobs_below_one(tmp_path, capsys, jobs):
    out = tmp_path / "verification.jsonl"
    assert load_script("verify_all").main(["--jobs", jobs, "--output", str(out)]) == 1
    assert capsys.readouterr().err == "error: --jobs must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("max_order", ["0", "4096"])
def test_verify_all_reports_a_bad_max_order_in_one_line(tmp_path, capsys, max_order):
    out = tmp_path / "verification.jsonl"
    assert load_script("verify_all").main(["--max-order", max_order, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[InvalidFamilyParameters]: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("target", ["missing/x.jsonl", "."], ids=["missing-dir", "a-dir"])
def test_verify_all_reports_an_unwritable_output_in_one_line_before_the_sweep(
    tmp_path, capsys, monkeypatch, target
):
    script = load_script("verify_all")

    def forbidden(case):
        raise AssertionError("the sweep ran before the output was opened")

    monkeypatch.setattr(cli, "verify", forbidden)
    out = tmp_path / target
    assert script.main(["--max-order", "12", "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize(
    "script, argv",
    [
        ("verify_all", ["--max-order", "abc"]),
        ("verify_all", ["--bogus"]),
        ("spectra_table", ["--max-order", "x"]),
        ("spectra_table", ["--bogus"]),
    ],
)
def test_a_scripts_usage_error_is_one_error_line_and_exit_code_1(tmp_path, capsys, script, argv):
    out = tmp_path / "verification.jsonl"
    if script == "verify_all":
        argv = [*argv, "--output", str(out)]
    assert load_script(script).main(argv) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
