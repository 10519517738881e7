"""Command-line surface: subcommands, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pathhopf import (
    PathSpace,
    PathVector,
    element_in_path_coordinates,
    essential_basis,
    fixture_path,
    format_path,
    load_fixture,
    multiply,
    projector_P,
)
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


@pytest.mark.parametrize("graph, coxeter, top", [(A3, 4, 2), (TRI, None, None)])
def test_spectrum_json(capture, graph, coxeter, top):
    code, out, _ = capture("spectrum", graph, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    space = PathSpace(load_fixture(Path(graph).stem))
    assert doc == {"graph": space.graph.name, "beta": pytest.approx(space.beta, abs=1e-9),
                   "mu": pytest.approx(space.mu, abs=1e-9), "coxeter_number": coxeter, "max_essential_length": top}


def test_essentials_json(capture):
    code, out, _ = capture("essentials", A3, "--length", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["graph"], doc["length"], doc["dimension"]) == ("A3", 2, 3)
    basis = essential_basis(PathSpace(load_fixture("a3")), 2)
    assert [(v["index"], v["source"], v["range"]) for v in doc["vectors"]] == [
        (a, s, r) for a, (s, r) in enumerate(basis.endpoints)]
    assert all(v["terms"] for v in doc["vectors"])


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
    # the entries expand, in path coordinates, to the projected element
    coords = {}
    for entry in doc:
        assert set(entry) == {"length", "left", "right", "coeff"}
        for side in ("left", "right"):
            for term in entry[side]:
                assert set(term) == {"path", "coeff"}
        z = complex(*entry["coeff"])
        for p in entry["left"]:
            for q in entry["right"]:
                key = (p["path"], q["path"])
                coords[key] = coords.get(key, 0) + z * complex(*p["coeff"]) * complex(*q["coeff"])
    space = PathSpace(load_fixture("a_aff_2"))
    element = projector_P(space, PathVector.unit((0, 1, 2, 1, 0)), PathVector.unit((2, 1, 0, 1, 2)))
    want = {(format_path(p), format_path(q)): z for (p, q), z in element_in_path_coordinates(element).items()}
    assert set(want) <= set(coords)
    assert all(abs(coords[k] - want.get(k, 0)) < 1e-8 for k in coords)


def test_project_text_lists_the_json_terms(capture):
    argv = ("project", TRI, "--left", "0-1-2-1-0", "--right", "2-1-0-1-2")
    code, out, _ = capture(*argv)
    assert code == 0
    header, *lines = out.splitlines()
    assert header == "projection of 0-1-2-1-0 (x) 2-1-0-1-2 on A_aff_2:"
    doc = json.loads(capture(*argv, "--format", "json")[1])
    # three lines per term: its length and coefficient, then each vector
    assert [l.split(":")[0] for l in lines[::3]] == [f"length {e['length']}" for e in doc]
    assert all(l.startswith("  left : ") for l in lines[1::3]) and all(l.startswith("  right: ") for l in lines[2::3])


def test_multiply_json_matches_the_library_product(capture):
    code, out, _ = capture("multiply", A3, "--a", "(21|12)", "--b", "(12|21)", "--format", "json")
    assert code == 0
    space = PathSpace(load_fixture("a3"))
    x = projector_P(space, PathVector.unit((2, 1)), PathVector.unit((1, 2)))
    y = projector_P(space, PathVector.unit((1, 2)), PathVector.unit((2, 1)))
    want = multiply(x, y).terms()
    doc = json.loads(out)
    assert [e["length"] for e in doc] == [n for (n, _, _), _ in want]
    assert [complex(*e["coeff"]) for e in doc] == pytest.approx([z for _, z in want], abs=1e-9)


def test_multiply_shorthand_literals(capture):
    code, out, _ = capture("multiply", A3, "--a", "(21|12)", "--b", "(12|21)")
    assert code == 0
    assert "0.707106781" in out


def test_multiply_dashed_literals(capture):
    code, out, _ = capture("multiply", A3, "--a", "(2-1|1-2)", "--b", "(1-2|2-1)")
    assert code == 0
    assert "0.707106781" in out
    # the same product as the shorthand, below the header that echoes the literals
    _, shorthand, _ = capture("multiply", A3, "--a", "(21|12)", "--b", "(12|21)")
    assert shorthand.splitlines()[1:] == out.splitlines()[1:]


def test_digit_shorthand_needs_a_graph_of_at_most_ten_vertices(capture, tmp_path):
    # on a 12-vertex chain a literal without dashes is one vertex index, so
    # "10" is the length-0 path at vertex 10, not the path 1-0
    chain = tmp_path / "A12.json"
    chain.write_text(json.dumps(
        {"name": "A12", "vertices": [str(v) for v in range(12)], "edges": [[v, v + 1] for v in range(11)]}
    ))
    # "12" is out of range, and "011" would quietly be vertex 11 through int()
    for literal in ("12", "011"):
        code, out, err = capture("decompose", str(chain), "--path", literal)
        assert code == 1
        assert out == ""
        assert "out of range or starts with 0" in err and "dashes" in err
    for literal, path in (("10", "10"), ("1-0", "1-0"), ("5", "5")):
        code, out, _ = capture("decompose", str(chain), "--path", literal)
        assert code == 0
        assert out.startswith(f"decomposition of {path} on A12")


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
    # pool: 3^2 + 4^2 basis keys plus 5 samples; the nine linear unary
    # axioms and counit positivity see the 25 keys, the sampled triple axiom
    # 5, and the four pair axioms the 77 key pairs whose endpoints meet
    counts = {"coproduct multiplicative": 77, "counit of product": 77,
              "product associativity": 5, "star antihomomorphism": 77, "antipode product rule": 77}
    for r in doc["axioms"]:
        assert r["checked"] == counts.get(r["name"], 25), r["name"]
        # a witness exactly when the residual is above the floor, the tolerance times 1e-3
        assert bool(r["witness"]) == (r["residual"] > doc["tolerance"] * 1e-3), r["name"]
        assert all(len(key) == 3 for arg in r["witness"] for key in arg)


def test_verify_names_a_witness_only_above_the_floor(capture):
    # at --tol 1e-14 the floor is 1e-17: rounding residuals of about 1e-16
    # get a witness, exact zeros none; at the default floor, 1e-12, none does
    for tol, witnessed in (("1e-14", True), ("1e-9", False)):
        argv = ("verify", A3, "--max-length", "2", "--samples", "5", "--seed", "2", "--tol", tol)
        code, out, _ = capture(*argv, "--format", "json")
        assert code == 0
        axioms = {r["name"]: r for r in json.loads(out)["axioms"]}
        assert axioms["coassociativity"]["residual"] == 0.0 and axioms["coassociativity"]["witness"] == []
        assert 0 < axioms["counit of product"]["residual"] < 1e-14
        assert bool(axioms["counit of product"]["witness"]) == witnessed
        _, out, _ = capture(*argv)
        lines = {l.split("  ")[0].strip(): l for l in out.splitlines()[1:]}
        assert lines["coassociativity"].endswith("PASS  34 checked")
        assert ("136 checked, worst at (" in lines["counit of product"]) == witnessed
        if not witnessed:
            assert lines["counit of product"].endswith("PASS  136 checked")


def test_verify_text_names_the_worst_element(capture, monkeypatch):
    import pathhopf.weak_hopf as wh

    monkeypatch.setattr(wh, "_endpoint_weights", lambda space, _: np.ones((space.graph.num_vertices,) * 4))
    code, out, _ = capture("verify", A3, "--max-length", "2", "--samples", "5", "--seed", "2")
    line = next(l for l in out.splitlines() if l.startswith("antipode cancellation"))
    assert "FAIL" in line and "34 checked, worst at (1,1,0)" in line


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


def test_no_subcommand_prints_help_and_exits_one(capture):
    code, out, err = capture()
    assert code == 1 and err == ""
    assert out.startswith("usage:") and "verify" in out


@pytest.mark.parametrize(
    "path, message",
    [
        ("", "empty path literal"),
        ("0,1", "cannot parse path literal '0,1'"),
        ("0-x", "cannot parse path literal '0-x'"),
        ("0-5", "vertex 5 out of range in path '0-5'"),
    ],
)
def test_unreadable_path_literal_exits_one(capture, path, message):
    code, out, err = capture("decompose", A3, "--path", path)
    assert code == 1 and out == ""
    assert err == f"pathhopf: error: {message}\n"


def test_empty_vertex_list_exits_one(tmp_path, capture):
    bad = tmp_path / "empty.json"
    bad.write_text('{"vertices": [], "edges": []}')
    code, out, err = capture("spectrum", str(bad))
    assert code == 1 and out == ""
    assert err == "pathhopf: error: vertex list is empty\n"


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


def test_repeated_edge_exits_one(tmp_path, capture):
    # before, the double edge ran as A2: beta = 1, Coxeter number 3, exit 0
    bad = tmp_path / "double.json"
    bad.write_text('{"vertices": ["0", "1"], "edges": [[0, 1], [1, 0]]}')
    code, out, err = capture("spectrum", str(bad))
    assert code == 1 and out == ""
    assert "edge [1, 0] repeats edge [0, 1]" in err


def test_cutoff_flag_enforced(capture):
    code, _, err = capture(
        "decompose", TRI, "--path", "0-1-0-1-0", "--cutoff", "3"
    )
    assert code == 1
    assert "cutoff" in err


def test_cutoff_is_not_read_from_the_environment(monkeypatch, capture):
    # only --cutoff sets the cutoff; the default 12 admits this length-4 path
    unset = capture("decompose", TRI, "--path", "0-1-0-1-0")
    monkeypatch.setenv("PATHHOPF_CUTOFF", "3")
    code, out, err = capture("decompose", TRI, "--path", "0-1-0-1-0")
    assert code == 0
    assert (code, out, err) == unset


def test_verify_refuses_associativity_past_the_cutoff(capture):
    # (x y) z at --max-length 5 reaches length 15 on a_aff_2
    code, out, err = capture("verify", TRI, "--max-length", "5", "--samples", "3")
    assert code == 1
    assert out == ""
    assert "pathhopf: error" in err and "cutoff 12" in err


def test_verify_refuses_junction_arrays_past_the_budget(capture, tmp_path):
    # K4 (beta = 3) at --max-length 3 is within the cutoff, but its junction
    # arrays for (x y) z would hold 4.0e9 floats
    k4 = tmp_path / "k4.json"
    k4.write_text(json.dumps({"name": "K4", "vertices": list("0123"),
                              "edges": [[i, j] for i in range(4) for j in range(i + 1, 4)]}))
    code, out, err = capture("verify", str(k4), "--max-length", "3")
    assert code == 1 and out == ""
    assert "pathhopf: error" in err and "4.0e+09 floats" in err


def test_verify_refuses_counts_that_overflow(capture, tmp_path):
    # with --cutoff 3000 the junction size for (x y) z on K4 overflows a
    # float; it is refused, not passed as NaN
    k4 = tmp_path / "k4.json"
    k4.write_text(json.dumps({"name": "K4", "vertices": list("0123"),
                              "edges": [[i, j] for i in range(4) for j in range(i + 1, 4)]}))
    code, out, err = capture("verify", str(k4), "--cutoff", "3000", "--max-length", "300")
    assert code == 1 and out == ""
    assert err == "pathhopf: error: the junction arrays of lengths 600 and 300 would hold inf floats, more than 1e+08\n"


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


@pytest.mark.parametrize("seed", ["-1", "-5"])
def test_negative_verify_seed_rejected(capture, seed):
    code, out, err = capture("verify", A3, "--max-length", "1", "--seed", seed)
    assert code == 1
    assert out == ""
    assert f"seed must be nonnegative, got {seed}" in err
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


@pytest.mark.parametrize("length", ["-1", "-2"])
def test_negative_essentials_length_rejected(capture, length):
    code, out, err = capture("essentials", A3, "--length", length)
    assert code == 1
    assert out == ""
    assert "path length must be nonnegative" in err
    assert "Traceback" not in err


def test_negative_tolerance_rejected(capture):
    code, _, err = capture("verify", A3, "--max-length", "1", "--samples", "2", "--tol", "-1")
    assert code == 1
    assert "tolerance must be finite and positive" in err


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tolerance_rejected(capture, tol):
    code, out, err = capture("verify", A3, "--max-length", "1", "--samples", "2", "--tol", tol)
    assert code == 1
    assert out == ""
    assert "tolerance must be finite and positive" in err


def test_malformed_graph_file_exits_one_without_traceback(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": null, "edges": [[0, 1]]}')
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "pathhopf.cli", "spectrum", str(bad)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert "pathhopf: error" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "doc",
    [
        {"name": None, "vertices": ["0", "1"], "edges": [[0, 1]]},
        {"vertices": ["0", {"x": 1}], "edges": [[0, 1]]},
        {"vertices": [0, 1], "edges": [[0, 1]]},
    ],
)
def test_graph_name_and_labels_must_be_strings(capture, tmp_path, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for command in ("spectrum", "export"):
        code, out, err = capture(command, str(bad))
        assert code == 1
        assert out == ""
        assert "JSON string" in err


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

    monkeypatch.setattr(wh, "_endpoint_weights", lambda space, _: np.ones((space.graph.num_vertices,) * 4))
    code, out, _ = capture(
        "verify", A3, "--max-length", "2", "--samples", "5", "--seed", "2"
    )
    assert code == 2
    assert "FAIL" in out
