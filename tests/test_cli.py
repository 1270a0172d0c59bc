from __future__ import annotations

import argparse
import gc
import hashlib
import json
import re
import time
import weakref

import pytest
from helpers import record_worker_pools

from pgspectra import IntPolynomial, VerificationReport, make_case
from pgspectra import cli, linalg
from pgspectra.groups import FAMILIES
from pgspectra.theorems import GRAPH_BUILDERS, enumerate_cases


def run_ok(capsys, argv):
    rc = cli.run(argv)
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    return captured.out


def run_err(capsys, argv, code=1):
    rc = cli.run(argv)
    captured = capsys.readouterr()
    assert rc == code, captured.out + captured.err
    return captured.err


# ---------------------------------------------------------------------------
# group
# ---------------------------------------------------------------------------


def test_group_json(capsys):
    out = run_ok(capsys, ["group", "--family", "dihedral", "--n", "4"])
    obj = json.loads(out)
    assert obj["order"] == 8
    assert obj["identity"] == 0
    assert len(obj["table"]) == 8
    assert obj["labels"][1] == "a"


def test_group_json_output_is_pinned(capsys):
    out = run_ok(capsys, ["group", "--family", "gpq", "--p", "3", "--q", "7"])
    # SHA-256 of this command's output as the per-entry JSON writer printed it
    digest = "c8a2454aafa1ec54a3a1aa1bd1497c33aee9de334d795a45839749f08d3094f9"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_group_text(capsys):
    out = run_ok(capsys, ["group", "--family", "gpq", "--p", "2", "--q", "3", "--format", "text"])
    assert "order 6" in out
    assert "element orders" in out


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------


def test_graph_dot_output(capsys):
    out = run_ok(capsys, ["graph", "--family", "dihedral", "--n", "3", "--graph", "power"])
    assert out.startswith("graph G {")
    assert '0 [label="e"];' in out
    assert "0 -- 5;" in out


def test_graph_csv_quotes_product_labels(capsys):
    out = run_ok(
        capsys,
        [
            "graph",
            "--family",
            "elab-cyclic",
            "--p", "2", "--n", "2", "--m", "3",
            "--graph", "enhanced",
            "--format", "csv",
        ],
    )
    header = out.splitlines()[0]
    assert header.startswith('"((0,0),0)"')
    assert len(out.splitlines()) == 13  # header plus one row per vertex


def test_graph_json_and_text(capsys):
    out = run_ok(
        capsys,
        ["graph", "--family", "cyclic", "--n", "6", "--graph", "power", "--format", "json"],
    )
    obj = json.loads(out)
    assert obj["vertex_count"] == 6
    assert [2, 3] not in obj["edges"]
    text = run_ok(
        capsys,
        ["graph", "--family", "cyclic", "--n", "6", "--graph", "power", "--format", "text"],
    )
    assert "6 vertices, 13 edges, diameter 2" in text


@pytest.mark.parametrize(
    "family, vertices",
    [
        (["--family", "elementary-abelian", "--p", "2", "--n", "2"], 3),
        (["--family", "cyclic", "--n", "1"], 0),
    ],
    ids=["El(2^2)", "Z_1"],
)
def test_graph_text_of_a_disconnected_graph(capsys, family, vertices):
    text = run_ok(capsys, ["graph", *family, "--graph", "proper-power", "--format", "text"])
    assert text.endswith(f"  {vertices} vertices, 0 edges, disconnected\n")


def test_proper_power_graph_drops_identity_label(capsys):
    out = run_ok(
        capsys,
        ["graph", "--family", "cyclic", "--n", "5", "--graph", "proper-power"],
    )
    assert 'label="e"' not in out
    assert out.count("[label=") == 4


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_json_gpq(capsys):
    out = run_ok(
        capsys,
        [
            "spectrum",
            "--family", "gpq", "--p", "2", "--q", "3",
            "--graph", "enhanced", "--matrix", "distance",
        ],
    )
    assert json.loads(out) == {
        "coeffs": ["-52", "-204", "-285", "-174", "-42", "0", "1"]
    }


def test_spectrum_text_includes_catalogued_closed_form(capsys):
    out = run_ok(
        capsys,
        [
            "spectrum",
            "--family", "dicyclic", "--n", "4",
            "--graph", "enhanced", "--matrix", "distance",
            "--format", "text",
        ],
    )
    assert "char poly:" in out
    assert "closed form: (x + 1)^10 * (x + 3)^3 * (x^3 - 19*x^2 - 137*x - 21)" in out


def test_spectrum_text_no_closed_form_for_uncatalogued_combo(capsys):
    out = run_ok(
        capsys,
        [
            "spectrum",
            "--family", "cyclic", "--n", "6",
            "--graph", "power", "--matrix", "adjacency",
            "--format", "text",
        ],
    )
    assert "closed form" not in out


def test_spectrum_is_deterministic(capsys):
    argv = [
        "spectrum",
        "--family", "dihedral", "--n", "6",
        "--graph", "enhanced", "--matrix", "distance",
    ]
    assert run_ok(capsys, argv) == run_ok(capsys, argv)


def test_spectrum_disconnected_graph_fails_cleanly(capsys):
    err = run_err(
        capsys,
        [
            "spectrum",
            "--family", "elementary-abelian", "--p", "3", "--n", "2",
            "--graph", "proper-power", "--matrix", "distance",
        ],
    )
    assert "error[DisconnectedGraph]" in err


def test_spectrum_distance_of_the_empty_graph_fails_cleanly(capsys):
    err = run_err(
        capsys,
        [
            "spectrum",
            "--family", "cyclic", "--n", "1",
            "--graph", "proper-power", "--matrix", "distance",
        ],
    )
    assert "error[DisconnectedGraph]" in err
    assert "empty graph" in err


def test_spectrum_respects_bit_cap(monkeypatch, capsys):
    # With 2**2 - 1 the only tabled prime, every coefficient bound is beyond it.
    monkeypatch.setattr(linalg, "MERSENNE_EXPONENTS", (2,))
    err = run_err(
        capsys,
        [
            "spectrum",
            "--family", "dihedral", "--n", "6",
            "--graph", "enhanced", "--matrix", "distance",
        ],
    )
    assert "error[BitGrowthExceeded]" in err


def test_spectrum_reports_failed_char_poly_certificate(monkeypatch, capsys):
    kernel = linalg._hessenberg_char_poly

    def corrupted(rows, p):
        coeffs = kernel(rows, p)
        coeffs[0] = (coeffs[0] + 1) % p
        return coeffs

    monkeypatch.setattr(linalg, "_hessenberg_char_poly", corrupted)
    err = run_err(
        capsys,
        [
            "spectrum",
            "--family", "dihedral", "--n", "6",
            "--graph", "enhanced", "--matrix", "distance",
        ],
    )
    assert "error[InternalExactnessViolation]" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_case_jsonl(capsys):
    out = run_ok(
        capsys,
        ["verify", "--theorem", "epg-gpq-distance", "--p", "2", "--q", "3"],
    )
    lines = out.strip().splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert obj["theorem_id"] == "epg-gpq-distance"
    assert obj["equal"] is True
    assert obj["brute_force"]["coeffs"][0] == "-52"


def test_verify_range_text(capsys):
    out = run_ok(
        capsys,
        [
            "verify",
            "--theorem", "epg-dihedral-distance",
            "--n-range", "3:6",
            "--format", "text",
        ],
    )
    lines = out.strip().splitlines()
    assert len(lines) == 5
    # Each case's time is printed in milliseconds to the microsecond.
    assert all(re.fullmatch(r"ok   \S+ order=\d+ \d+\.\d{3}ms", line) for line in lines[:4])
    assert lines[-1] == "4 case(s): 0 falsified, 0 informational"


def test_verify_all_small_order(capsys):
    out = run_ok(capsys, ["verify", "--all", "--max-order", "10", "--format", "text"])
    assert "0 falsified" in out


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_verify_refuses_a_max_order_below_one(capsys, bound):
    for argv in (["--all"], ["--theorem", "epg-dihedral-distance"]):
        err = run_err(capsys, ["verify", *argv, "--max-order", bound])
        assert "error[InvalidFamilyParameters]" in err and "below 1" in err


def test_verify_takes_a_trivial_cyclic_factor_given_by_hand(capsys):
    argv = ["verify", "--theorem", "epg-elab-cyclic-distance", "--p", "2", "--n", "2", "--m", "1"]
    out = run_ok(capsys, [*argv, "--format", "text"])
    assert out.startswith("ok   epg-elab-cyclic-distance(p=2, n=2, m=1) order=4 ")


def test_verify_informational_case(capsys):
    out = run_ok(
        capsys,
        ["verify", "--theorem", "pg-dicyclic-distance", "--n", "3", "--format", "text"],
    )
    assert out.startswith("info")
    assert "1 informational" in out


def test_verify_jsonl_deterministic_up_to_timing(capsys):
    argv = ["verify", "--theorem", "epg-elab-distance", "--max-order", "16"]
    first = [json.loads(line) for line in run_ok(capsys, argv).strip().splitlines()]
    second = [json.loads(line) for line in run_ok(capsys, argv).strip().splitlines()]
    for obj in first + second:
        obj.pop("elapsed_ms")
    assert first == second


def test_verify_parallel_jobs(capsys):
    argv = ["verify", "--theorem", "epg-gpq-distance", "--max-order", "22", "--jobs", "2"]
    out = run_ok(capsys, argv)
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["params"] for r in rows] == [
        {"p": 2, "q": 3},
        {"p": 2, "q": 5},
        {"p": 2, "q": 7},
        {"p": 3, "q": 7},
        {"p": 2, "q": 11},
    ]
    assert all(r["equal"] for r in rows)


def test_verify_exit_code_two_on_falsified_case(monkeypatch, capsys):
    case = make_case("epg-dihedral-distance", n=3)
    forced = VerificationReport(case, 6, IntPolynomial((1,)), None, False, 0, note="forced")
    monkeypatch.setattr(cli, "verify", lambda c: forced)
    err_out = run_err(
        capsys,
        ["verify", "--theorem", "epg-dihedral-distance", "--n", "3", "--format", "text"],
        code=2,
    )
    assert err_out == ""  # falsification is reported on stdout, not stderr


@pytest.mark.parametrize("fmt", ["jsonl", "text"])
def test_verify_holds_no_earlier_report_while_it_sweeps(monkeypatch, capsys, fmt):
    # Each line is written as its report arrives and the report is then let
    # go, so a sweep's memory does not grow with its length.
    made: list[weakref.ref] = []
    alive: list[int] = []  # at each call, the earlier reports still reachable

    def fresh(case):
        gc.collect()
        alive.append(sum(ref() is not None for ref in made))
        report = VerificationReport(case, 6, IntPolynomial((1,)), None, True, 0.5)
        made.append(weakref.ref(report))
        return report

    monkeypatch.setattr(cli, "verify", fresh)
    out = run_ok(capsys, ["verify", "--all", "--max-order", "12", "--format", fmt])
    cases = len(enumerate_cases(12))
    assert alive == [0] * cases
    assert len(out.splitlines()) == cases + (fmt == "text")


def test_verify_rejects_invalid_hypotheses_as_usage(capsys):
    err = run_err(
        capsys,
        ["verify", "--theorem", "epg-gpq-distance", "--p", "3", "--q", "5"],
    )
    assert "error[HypothesisViolated]" in err


def test_verify_range_checks_hypotheses_like_explicit_params(capsys):
    argv = ["verify", "--theorem", "epg-dihedral-distance", "--format", "text"]
    err = run_err(capsys, argv + ["--n-range", "1:4"])
    assert "error[HypothesisViolated]" in err
    out = run_ok(capsys, argv + ["--n-range", "3:5"])
    assert out.strip().splitlines()[-1] == "3 case(s): 0 falsified, 0 informational"


@pytest.mark.parametrize(
    "argv",
    [
        ["group", "--family", "cyclic", "--n", "100000"],
        ["group", "--family", "elementary-abelian", "--p", "2", "--n", "1000000000000"],
        ["verify", "--all", "--max-order", "100000000"],
        ["verify", "--theorem", "epg-dihedral-distance", "--max-order", "100000"],
        ["verify", "--theorem", "epg-dihedral-distance", "--n", "100000"],
        ["verify", "--theorem", "epg-dihedral-distance", "--n-range", "3:100000000"],
        ["spectrum", "--family", "elab-cyclic", "--p", "2", "--n", "11", "--m", "3",
         "--graph", "enhanced", "--matrix", "distance"],
    ],
    ids=["cyclic", "elab-huge-n", "verify-all", "verify-theorem", "verify-n", "verify-range",
         "product"],
)
def test_orders_above_the_cap_are_argument_errors(capsys, argv):
    start = time.perf_counter()
    err = run_err(capsys, argv)
    assert "error[InvalidFamilyParameters]" in err and "MAX_ORDER" in err
    assert time.perf_counter() - start < 5  # refused up front, nothing is built


# ---------------------------------------------------------------------------
# argument validation
# ---------------------------------------------------------------------------


def test_unknown_family_is_an_argument_error(capsys):
    err = run_err(capsys, ["group", "--family", "frobnicated"])
    assert "error:" in err


def test_missing_family_parameter(capsys):
    err = run_err(capsys, ["group", "--family", "dihedral"])
    assert "missing" in err


def test_unexpected_family_parameter(capsys):
    err = run_err(capsys, ["group", "--family", "dihedral", "--n", "4", "--p", "3"])
    assert "unexpected" in err


def test_bad_group_parameters_fail_with_family_error(capsys):
    err = run_err(capsys, ["group", "--family", "gpq", "--p", "3", "--q", "5"])
    assert "error[InvalidFamilyParameters]" in err


def test_verify_all_conflicts_with_theorem(capsys):
    err = run_err(capsys, ["verify", "--all", "--theorem", "epg-gpq-distance"])
    assert "--all" in err


def test_verify_needs_theorem_or_all(capsys):
    err = run_err(capsys, ["verify"])
    assert "--theorem" in err or "--all" in err


def test_n_range_only_for_single_parameter_theorems(capsys):
    err = run_err(
        capsys,
        ["verify", "--theorem", "epg-gpq-distance", "--n-range", "3:5"],
    )
    assert "--n-range" in err


def test_n_range_syntax_checked(capsys):
    assert "a:b" in run_err(
        capsys, ["verify", "--theorem", "epg-dihedral-distance", "--n-range", "3-5"]
    )
    assert "empty" in run_err(
        capsys, ["verify", "--theorem", "epg-dihedral-distance", "--n-range", "6:3"]
    )
    assert "integers" in run_err(
        capsys, ["verify", "--theorem", "epg-dihedral-distance", "--n-range", "a:5"]
    )


def test_n_range_excludes_explicit_parameters(capsys):
    argv = ["verify", "--theorem", "epg-dihedral-distance", "--n-range", "3:5", "--n", "4"]
    assert "explicit parameters" in run_err(capsys, argv)


def test_group_of_order_zero_is_a_family_error(capsys):
    err = run_err(capsys, ["group", "--family", "cyclic", "--n", "0"])
    assert "error[InvalidFamilyParameters]" in err


def test_parameter_flags_are_the_family_parameters_in_first_seen_order():
    # --help lists the flags in this order
    assert cli._PARAMS == ("n", "p", "q", "m")


def test_jobs_must_be_positive(capsys):
    err = run_err(capsys, ["verify", "--all", "--jobs", "0"])
    assert "--jobs" in err


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_export_group_json(tmp_path, capsys):
    target = tmp_path / "group.json"
    rc = cli.run(
        ["export", "--family", "cyclic", "--n", "4", "--what", "group", "--output", str(target)]
    )
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["order"] == 4


def test_export_distance_csv(tmp_path):
    target = tmp_path / "dist.csv"
    rc = cli.run(
        [
            "export",
            "--family", "dihedral", "--n", "3",
            "--what", "distance", "--graph", "enhanced",
            "--output", str(target),
        ]
    )
    assert rc == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "e,a,a2,b,ab,a2b"
    assert len(lines) == 7


def test_export_spectrum_json(tmp_path):
    target = tmp_path / "spec.json"
    rc = cli.run(
        [
            "export",
            "--family", "gpq", "--p", "2", "--q", "3",
            "--what", "spectrum", "--graph", "enhanced", "--matrix", "distance",
            "--output", str(target),
        ]
    )
    assert rc == 0
    assert json.loads(target.read_text())["coeffs"][0] == "-52"


def test_export_graph_dot(tmp_path):
    target = tmp_path / "g.dot"
    rc = cli.run(
        [
            "export",
            "--family", "cyclic", "--n", "5",
            "--what", "graph", "--graph", "power",
            "--output", str(target),
        ]
    )
    assert rc == 0
    assert target.read_text().startswith("graph G {")


def test_export_requires_graph_kind(tmp_path, capsys):
    err = run_err(
        capsys,
        [
            "export",
            "--family", "cyclic", "--n", "5",
            "--what", "distance",
            "--output", str(tmp_path / "x.csv"),
        ],
    )
    assert "--graph" in err


def test_export_spectrum_requires_matrix(tmp_path, capsys):
    err = run_err(
        capsys,
        [
            "export",
            "--family", "cyclic", "--n", "5",
            "--what", "spectrum", "--graph", "power",
            "--output", str(tmp_path / "x.json"),
        ],
    )
    assert "--matrix" in err


def test_export_format_restrictions(tmp_path, capsys):
    err = run_err(
        capsys,
        [
            "export",
            "--family", "cyclic", "--n", "5",
            "--what", "group", "--format", "csv",
            "--output", str(tmp_path / "x"),
        ],
    )
    assert "json" in err


@pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["missing-dir", "a-dir"])
@pytest.mark.parametrize("command", [["group"], ["export", "--what", "group"]], ids=lambda c: c[0])
def test_an_unwritable_output_is_one_named_error_line(tmp_path, capsys, command, target):
    path = tmp_path / target
    err = run_err(capsys, [*command, "--family", "cyclic", "--n", "3", "--output", str(path)])
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("target", ["missing/x.jsonl", "."], ids=["missing-dir", "a-dir"])
def test_verify_reports_an_unwritable_output_in_one_line_before_the_sweep(
    tmp_path, capsys, monkeypatch, target
):
    def forbidden(case):
        raise AssertionError("the sweep ran before the output was opened")

    monkeypatch.setattr(cli, "verify", forbidden)
    path = tmp_path / target
    err = run_err(capsys, ["verify", "--all", "--max-order", "12", "--output", str(path)])
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_verify_refuses_its_arguments_before_it_creates_the_output(tmp_path, capsys):
    path = tmp_path / "x.jsonl"
    err = run_err(capsys, ["verify", "--theorem", "epg-gpq-distance", "--p", "4", "--q", "7",
                           "--output", str(path)])
    assert err.startswith("error") and not path.exists()


# ---------------------------------------------------------------------------
# single tables
# ---------------------------------------------------------------------------


def test_family_and_graph_choices_come_from_the_single_tables():
    sub = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    seen = set()
    for command, parser in sub.choices.items():
        for action in parser._actions:
            if "--family" in action.option_strings:
                assert sorted(action.choices) == sorted(FAMILIES)
                seen.add((command, "--family"))
            if "--graph" in action.option_strings:
                assert list(action.choices) == list(GRAPH_BUILDERS)
                seen.add((command, "--graph"))
    assert seen == {
        (command, option)
        for command in ("group", "graph", "spectrum", "export")
        for option in ("--family", "--graph")
        if (command, option) != ("group", "--graph")
    }


def test_verify_jobs_clamped_to_cases_and_cpus(monkeypatch, capsys):
    created = record_worker_pools(monkeypatch, cpus=3)
    argv = ["verify", "--theorem", "epg-gpq-distance", "--max-order", "22", "--jobs", "64"]
    assert len(run_ok(capsys, argv).strip().splitlines()) == 5
    assert created == [3]
    argv = ["verify", "--theorem", "epg-gpq-distance", "--p", "2", "--q", "3", "--jobs", "64"]
    run_ok(capsys, argv)
    assert created == [3]  # a single case runs in-process
