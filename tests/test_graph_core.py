"""Graph parsing, validation, and Perron-Frobenius data."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pathhopf
from pathhopf import (
    Graph,
    GraphError,
    PathSpace,
    coxeter_info,
    load_fixture,
    parse_graph,
    perron_frobenius,
    validate,
)
from pathhopf.graph_core import Spectrum
from helpers import path_graph


def test_parse_a3():
    g = load_fixture("a3")
    assert g.vertices == ("0", "1", "2")
    assert g.adjacency.tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]


def test_parse_triangle():
    g = load_fixture("a_aff_2")
    assert g.adjacency.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_parse_single_vertex_no_edges_rejected():
    text = json.dumps({"name": "pt", "vertices": ["0"], "edges": []})
    with pytest.raises(GraphError, match="no edges"):
        parse_graph(text)


def test_parse_rejects_malformed_document():
    with pytest.raises(GraphError):
        parse_graph("{not json")
    with pytest.raises(GraphError, match="missing required key"):
        parse_graph(json.dumps({"vertices": ["0", "1"]}))
    with pytest.raises(GraphError, match="top-level"):
        parse_graph(json.dumps([1, 2]))


@pytest.mark.parametrize(
    "key, value",
    [("vertices", None), ("edges", 5), ("vertices", "01"), ("vertices", {"0": 0, "1": 1})],
)
def test_parse_rejects_vertices_or_edges_that_are_not_arrays(key, value):
    # no TypeError, no string read as its characters, no object as its keys
    doc = {"vertices": ["0", "1"], "edges": [[0, 1]], key: value}
    with pytest.raises(GraphError, match="JSON arrays"):
        parse_graph(json.dumps(doc))


@pytest.mark.parametrize("edge", [[0.9, 1], [0, True], [True, False], "01", [0, 1, 2], [0]])
def test_parse_rejects_edges_that_are_not_integer_pairs(edge):
    # no truncation of a float, no boolean read as an index
    text = json.dumps({"vertices": ["0", "1"], "edges": [[0, 1], edge]})
    with pytest.raises(GraphError, match="not a pair of integer indices"):
        parse_graph(text)


@pytest.mark.parametrize("name", [None, 3, ["A3"], {"x": 1}])
def test_parse_rejects_a_name_that_is_not_a_string(name):
    # no "graph None", no Python repr of a JSON object
    text = json.dumps({"name": name, "vertices": ["0", "1"], "edges": [[0, 1]]})
    with pytest.raises(GraphError, match='"name" must be a JSON string'):
        parse_graph(text)


@pytest.mark.parametrize("label", [1, {"x": 1}, None, ["1"], 1.5, True])
def test_parse_rejects_vertex_labels_that_are_not_strings(label):
    text = json.dumps({"vertices": ["0", label], "edges": [[0, 1]]})
    with pytest.raises(GraphError, match="is not a JSON string"):
        parse_graph(text)


def test_parse_keeps_a_missing_name_empty():
    assert parse_graph(json.dumps({"vertices": ["0", "1"], "edges": [[0, 1]]})).name == ""


def test_parse_rejects_duplicate_labels():
    text = json.dumps({"vertices": ["a", "a"], "edges": [[0, 1]]})
    with pytest.raises(GraphError, match="duplicate"):
        parse_graph(text)


def test_parse_rejects_edge_out_of_range():
    text = json.dumps({"vertices": ["0", "1"], "edges": [[0, 5]]})
    with pytest.raises(GraphError, match="out of range"):
        parse_graph(text)


@pytest.mark.parametrize(
    "edges, message",
    [
        # a double edge is the affine A1 multigraph; it must not run as A2
        ([[0, 1], [0, 1]], r"edge \[0, 1\] repeats edge \[0, 1\]"),
        ([[1, 2], [0, 1], [2, 1]], r"edge \[2, 1\] repeats edge \[1, 2\]"),
    ],
    ids=["same-orientation", "reversed"],
)
def test_parse_rejects_a_repeated_edge(edges, message):
    text = json.dumps({"vertices": ["0", "1", "2"], "edges": edges})
    with pytest.raises(GraphError, match=message):
        parse_graph(text)


def test_parse_rejects_self_loop():
    text = json.dumps({"vertices": ["0", "1"], "edges": [[0, 0], [0, 1]]})
    with pytest.raises(GraphError, match="diagonal"):
        parse_graph(text)


def test_validate_passes_a3():
    assert validate(load_fixture("a3")).passed


def test_validate_reports_asymmetry():
    g = Graph("bad", ("0", "1"), np.array([[0, 1], [0, 0]]))
    report = validate(g)
    assert not report.passed
    assert any("symmetric" in f for f in report.failures)


def test_validate_reports_non_01_entries():
    g = Graph("doubled", ("0", "1"), np.array([[0, 2], [2, 0]]))
    report = validate(g)
    assert not report.passed
    assert any("0 or 1" in f for f in report.failures)


def test_validate_reports_disconnected():
    adjacency = np.zeros((4, 4), dtype=int)
    adjacency[0, 1] = adjacency[1, 0] = 1
    adjacency[2, 3] = adjacency[3, 2] = 1
    report = validate(Graph("two-edges", ("a", "b", "c", "d"), adjacency))
    assert not report.passed
    assert any("connected" in f for f in report.failures)


def test_perron_frobenius_a3():
    s = perron_frobenius(load_fixture("a3"))
    assert abs(s.beta - math.sqrt(2)) < 1e-12
    assert np.allclose(s.mu, [1.0, math.sqrt(2), 1.0], atol=1e-12)


def test_perron_frobenius_triangle():
    s = perron_frobenius(load_fixture("a_aff_2"))
    assert abs(s.beta - 2.0) < 1e-12
    assert np.allclose(s.mu, [1.0, 1.0, 1.0], atol=1e-12)


def test_perron_frobenius_a2():
    # 2x2 adjacency [[0,1],[1,0]]: characteristic polynomial l^2 - 1 = 0 by
    # hand, so beta = 1 with eigenvector (1, 1)
    s = perron_frobenius(load_fixture("a2"))
    assert abs(s.beta - 1.0) < 1e-12
    assert np.allclose(s.mu, [1.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_perron_frobenius_invariants_on_path_graphs(k):
    g = path_graph(k)
    s = perron_frobenius(g)
    residual = np.max(np.abs(g.adjacency @ s.mu - s.beta * s.mu))
    assert residual < 1e-12
    assert np.all(s.mu > 0)
    assert abs(s.mu.min() - 1.0) < 1e-15


def test_perron_frobenius_long_chain():
    # the A80 spectral gap is about 0.005, where a power iteration crawls
    g = path_graph(80)
    s = perron_frobenius(g)
    assert abs(s.beta - 2 * math.cos(math.pi / 81)) < 1e-12
    assert np.max(np.abs(g.adjacency @ s.mu - s.beta * s.mu)) < 1e-10
    assert np.all(s.mu > 0)


@pytest.mark.parametrize(
    "edges, k",
    [
        ([(0, 1), (1, 2), (3, 4)], 5),  # A3 beside A2: mu vanishes on A2
        ([(0, 1), (2, 3)], 4),  # two equal edges: beta is not simple
    ],
)
def test_perron_frobenius_rejects_disconnected_graph(edges, k):
    adjacency = np.zeros((k, k), dtype=int)
    for i, j in edges:
        adjacency[i, j] = adjacency[j, i] = 1
    graph = Graph("split", tuple(str(v) for v in range(k)), adjacency)
    with pytest.raises(GraphError, match="Perron-Frobenius"):
        perron_frobenius(graph)


def test_perron_frobenius_d4():
    g = load_fixture("d4")
    s = perron_frobenius(g)
    # star graph: beta^2 = 3, center weight sqrt(3), leaves 1
    assert abs(s.beta - math.sqrt(3)) < 1e-12
    assert np.allclose(s.mu, [math.sqrt(3), 1.0, 1.0, 1.0], atol=1e-12)


def test_coxeter_info_a3():
    info = coxeter_info(perron_frobenius(load_fixture("a3")))
    assert info.coxeter_number == 4
    assert info.max_essential_length == 2


def test_coxeter_info_absent_at_beta_2():
    assert coxeter_info(perron_frobenius(load_fixture("a_aff_2"))) is None


def test_coxeter_info_a2():
    # beta = 1 = 2 cos(pi/3)
    info = coxeter_info(perron_frobenius(load_fixture("a2")))
    assert info.coxeter_number == 3
    assert info.max_essential_length == 1


@pytest.mark.parametrize("beta", [1.9, 0.5, -1.5])
def test_coxeter_info_rejects_a_beta_below_two_off_every_coxeter_number(beta):
    # by Smith's theorem no graph has such a beta: only a numerical fault gets here
    spectrum = Spectrum(beta=beta, mu=np.ones(3))
    with pytest.raises(GraphError, match="matches no Coxeter number"):
        coxeter_info(spectrum)
    with pytest.raises(GraphError, match="matches no Coxeter number"):
        PathSpace(path_graph(3), spectrum=spectrum)


def test_cli_import_leaves_logging_unloaded():
    # importing logging cost several milliseconds of every fresh CLI process
    src = str(Path(pathhopf.__file__).resolve().parents[1])
    code = "import sys; sys.path.insert(0, sys.argv[1]); import pathhopf.cli; print('logging' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False", out.stderr


@pytest.mark.parametrize(
    "name,number", [("a2", 3), ("a3", 4), ("a4", 5), ("d4", 6)]
)
def test_coxeter_numbers_of_fixtures(name, number):
    info = coxeter_info(perron_frobenius(load_fixture(name)))
    assert info.coxeter_number == number
    residual = abs(
        perron_frobenius(load_fixture(name)).beta
        - 2 * math.cos(math.pi / number)
    )
    assert residual < 1e-9
