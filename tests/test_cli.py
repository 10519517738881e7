"""Command-line surface: subcommands, formats, exit codes, determinism."""

import json

import pytest

from pathhopf import fixture_path
from pathhopf.cli import run


@pytest.fixture()
def capture(capsys):
    def invoke(*argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


A3 = str(fixture_path("a3"))
TRI = str(fixture_path("a_aff_2"))


def test_spectrum_text(capture):
    code, out, _ = capture("spectrum", A3)
    assert code == 0
    assert "beta = 1.414213562" in out
    assert "mu = (1.000000000, 1.414213562, 1.000000000)" in out
    assert "coxeter number = 4" in out
    assert "max essential length = 2" in out


def test_spectrum_beta_two_has_no_coxeter(capture):
    code, out, _ = capture("spectrum", TRI)
    assert code == 0
    assert "coxeter number = n/a" in out


def test_spectrum_accepts_bundled_names(capture):
    # both the bare name and a nonexistent-directory path resolve to the
    # bundled fixture of the same basename
    code1, out1, _ = capture("spectrum", "a3.json")
    code2, out2, _ = capture("spectrum", "graphs/a3.json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_dims_table(capture):
    code, out, _ = capture("dims", A3, "--max", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "length  dimension"
    assert [l.split() for l in lines[1:]] == [
        ["0", "3"],
        ["1", "4"],
        ["2", "3"],
        ["3", "0"],
        ["total", "10"],
    ]


def test_dims_json(capture):
    code, out, _ = capture("dims", TRI, "--max", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == [3, 6, 9]
    assert doc["total"] == 18


def test_essentials_listing(capture):
    code, out, _ = capture("essentials", A3, "--length", "2")
    assert code == 0
    assert "dimension 3" in out
    assert "(0 -> 2)" in out


def test_decompose_text(capture):
    code, out, _ = capture("decompose", A3, "--path", "0-1-0")
    assert code == 0
    assert "1 terms" in out
    assert "word (0)" in out
    assert "0.840896415 * 0" in out


def test_decompose_json_round_trip(capture):
    code, out, _ = capture("decompose", TRI, "--path", "0-1-2-1-0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    words = sorted(tuple(t["word"]) for t in doc["terms"])
    assert words == [(), (0,), (0, 1), (0, 2), (1,), (2,)]


def test_project_json_matches_schema(capture):
    code, out, _ = capture(
        "project", TRI, "--left", "0-1-2-1-0", "--right", "2-1-0-1-2",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    lengths = sorted(entry["length"] for entry in doc)
    assert lengths == [0, 2, 4]
    for entry in doc:
        assert set(entry) == {"length", "left", "right", "coeff"}


def test_multiply_shorthand_literals(capture):
    code, out, _ = capture("multiply", A3, "--a", "(21|12)", "--b", "(12|21)")
    assert code == 0
    assert "0.707106781" in out


def test_multiply_dashed_literals(capture):
    code, out, _ = capture("multiply", A3, "--a", "(2-1|1-2)", "--b", "(1-2|2-1)")
    assert code == 0
    assert "0.707106781" in out


def test_verify_passes(capture):
    code, out, _ = capture(
        "verify", A3, "--max-length", "2", "--samples", "15", "--seed", "3"
    )
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_verify_json(capture):
    code, out, _ = capture(
        "verify", A3, "--max-length", "1", "--samples", "5", "--seed", "1",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert any(r["name"] == "antipode cancellation" for r in doc["axioms"])


def test_export_schema(capture):
    code, out, _ = capture("export", A3)
    assert code == 0
    doc = json.loads(out)
    assert doc["beta"] == pytest.approx(2 ** 0.5, abs=1e-9)
    assert doc["essential_dims"] == [3, 4, 3]
    assert doc["graph"]["edges"] == [[0, 1], [1, 2]]
    assert set(doc["essential_basis"]) == {"0", "1", "2"}


def test_deterministic_output(capture):
    argv = ("verify", TRI, "--max-length", "1", "--samples", "10", "--seed", "9")
    _, out1, _ = capture(*argv)
    _, out2, _ = capture(*argv)
    assert out1 == out2


def test_out_file(tmp_path, capture):
    target = tmp_path / "report.txt"
    code, out, _ = capture("spectrum", A3, "--out", str(target))
    assert code == 0
    assert out == ""
    assert "beta = 1.414213562" in target.read_text()


def test_unknown_subcommand_exits_one(capture):
    code, _, err = capture("bogus", A3)
    assert code == 1


def test_bad_path_literal_exits_one(capture):
    code, _, err = capture("decompose", A3, "--path", "0-2")
    assert code == 1
    assert "not an edge" in err


def test_bad_algebra_literal_exits_one(capture):
    code, _, err = capture("multiply", A3, "--a", "21|12", "--b", "nope")
    assert code == 1


def test_missing_graph_exits_one(capture):
    code, _, err = capture("spectrum", "no_such_graph.json")
    assert code == 1
    assert "no bundled graph" in err


def test_invalid_graph_file_exits_one(tmp_path, capture):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": ["0"], "edges": []}')
    code, _, err = capture("spectrum", str(bad))
    assert code == 1
    assert "no edges" in err


def test_cutoff_flag_enforced(capture):
    code, _, err = capture(
        "decompose", TRI, "--path", "0-1-0-1-0", "--cutoff", "3"
    )
    assert code == 1
    assert "cutoff" in err


def test_cutoff_env_override(monkeypatch, capture):
    monkeypatch.setenv("PATHHOPF_CUTOFF", "3")
    code, _, err = capture("decompose", TRI, "--path", "0-1-0-1-0")
    assert code == 1
    assert "cutoff" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("essentials", TRI, "--length", "3", "--cutoff", "2"),
        ("dims", TRI, "--max", "3", "--cutoff", "2"),
        ("export", TRI, "--max", "3", "--cutoff", "2"),
    ],
)
def test_basis_commands_respect_cutoff(capture, argv):
    code, out, err = capture(*argv)
    assert code == 1
    assert out == ""
    assert "cutoff" in err
    assert "Traceback" not in err


def test_negative_cutoff_flag_rejected(capture):
    code, _, err = capture("spectrum", A3, "--cutoff", "-5")
    assert code == 1
    assert "cutoff" in err


@pytest.mark.parametrize(
    "extra", [("--max-length", "1", "--samples", "0"), ("--max-length", "-1")]
)
def test_verify_refuses_empty_check(capture, extra):
    code, out, err = capture("verify", A3, *extra)
    assert code == 1
    assert "PASS" not in out
    assert "error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv", [("dims", A3, "--max", "-1"), ("export", A3, "--max", "-2")]
)
def test_negative_max_rejected(capture, argv):
    code, out, err = capture(*argv)
    assert code == 1
    assert out == ""
    assert "--max must be nonnegative" in err
    assert "Traceback" not in err


def test_negative_tolerance_rejected(capture):
    code, _, err = capture("spectrum", A3, "--tol", "-1")
    assert code == 1


def test_format_report_empty_is_header_only():
    from pathhopf import VerificationReport
    from pathhopf.cli import format_report

    report = VerificationReport(
        graph="X", max_length=0, samples=0, seed=0, tolerance=1e-9, results=()
    )
    text = format_report(report, "text")
    assert len(text.splitlines()) == 1
    assert "axiom verification" in text


def test_axiom_violation_exits_two(capture, monkeypatch):
    # corrupt the antipode endpoint factor: verify must report FAIL and
    # exit with the dedicated code 2
    import pathhopf.weak_hopf as wh

    monkeypatch.setattr(wh, "_pf_weight", lambda *a: 1.0)
    code, out, _ = capture(
        "verify", A3, "--max-length", "2", "--samples", "5", "--seed", "2"
    )
    assert code == 2
    assert "FAIL" in out
