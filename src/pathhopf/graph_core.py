"""Graph input, validation, and Perron-Frobenius spectral data.

A graph here is a simple biorientable graph: undirected, no loops, no
multiple edges, encoded by a symmetric 0/1 adjacency matrix.  Everything
downstream (path weights, creation operators, the Coxeter bound on
essential-path length) is driven by the largest adjacency eigenvalue
``beta`` and its positive eigenvector ``mu``.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import GraphError


@dataclass(frozen=True, eq=False)
class Graph:
    """A simple biorientable graph.

    Vertices are addressed by index into `vertices`; `adjacency` is the
    symmetric 0/1 matrix.  Instances are immutable and compare by identity.
    """

    name: str
    vertices: tuple[str, ...]
    adjacency: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=int)
        object.__setattr__(self, "adjacency", adj)
        nbrs = tuple(
            tuple(int(w) for w in np.flatnonzero(row)) for row in adj
        )
        object.__setattr__(self, "neighbors", nbrs)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Largest adjacency eigenvalue and its eigenvector, min-normalized to 1."""

    beta: float
    mu: np.ndarray


@dataclass(frozen=True)
class CoxeterInfo:
    """Coxeter number N (beta = 2 cos(pi/N)) and the induced maximum
    essential-path length N - 2.  Only exists for beta < 2."""

    coxeter_number: int
    max_essential_length: int


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    failures: tuple[str, ...]


def parse_graph(text: str) -> Graph:
    """Parse the JSON graph format and return a validated `Graph`.

    Expected shape::

        {"name": "A3", "vertices": ["0", "1", "2"], "edges": [[0, 1], [1, 2]]}

    `vertices` and `edges` are JSON arrays, every vertex label and the
    optional `name` are JSON strings.  Edges are unordered pairs of
    vertex indices, each a JSON integer (not a boolean), and no pair may be
    listed twice, in either orientation; the adjacency matrix is derived
    symmetric.  Raises `GraphError` on malformed input or when the
    resulting graph fails `validate`.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphError("top-level JSON value must be an object")
    try:
        vertices, edges = doc["vertices"], doc["edges"]
    except KeyError as exc:
        raise GraphError(f"missing required key {exc}") from exc
    if not (isinstance(vertices, list) and isinstance(edges, list)):
        raise GraphError('"vertices" and "edges" must be JSON arrays')
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise GraphError(f'"name" must be a JSON string, got {name!r}')
    if not vertices:
        raise GraphError("vertex list is empty")
    for label in vertices:
        if not isinstance(label, str):
            raise GraphError(f"vertex label {label!r} is not a JSON string")
    if len(set(vertices)) != len(vertices):
        raise GraphError("duplicate vertex labels")
    n = len(vertices)
    adjacency, listed = np.zeros((n, n), dtype=int), {}
    for edge in edges:
        if not (isinstance(edge, list) and len(edge) == 2 and all(type(v) is int for v in edge)):
            raise GraphError(f"edge {edge!r} is not a pair of integer indices")
        i, j = edge
        if not (0 <= i < n and 0 <= j < n):
            raise GraphError(f"edge {edge!r} references a vertex out of range")
        first = listed.setdefault((min(i, j), max(i, j)), edge)
        if first is not edge:
            raise GraphError(f"edge {edge!r} repeats edge {first!r}; multiple edges are not allowed")
        adjacency[i, j] = 1
        adjacency[j, i] = 1
    graph = Graph(name=name, vertices=tuple(vertices), adjacency=adjacency)
    report = validate(graph)
    if not report.passed:
        raise GraphError("; ".join(report.failures))
    return graph


def validate(graph: Graph) -> ValidationReport:
    """Check the simple-biorientable-graph invariants.

    Passes iff the adjacency matrix is square of the right size, symmetric,
    zero on the diagonal, 0/1-valued, and the graph is connected with at
    least one edge.  Failures are reported, not raised.
    """
    failures = []
    adj = graph.adjacency
    n = graph.num_vertices
    if adj.shape != (n, n):
        failures.append(f"adjacency shape {adj.shape} does not match {n} vertices")
        return ValidationReport(False, tuple(failures))
    if not np.array_equal(adj, adj.T):
        failures.append("adjacency is not symmetric")
    if np.any(np.diag(adj) != 0):
        failures.append("adjacency has nonzero diagonal entries (loops)")
    if not np.all((adj == 0) | (adj == 1)):
        failures.append("adjacency entries are not all 0 or 1")
    if adj.sum() == 0:
        failures.append("graph has no edges (degenerate)")
    elif not _connected(adj):
        failures.append("graph is not connected")
    return ValidationReport(not failures, tuple(failures))


def _connected(adj: np.ndarray) -> bool:
    # breadth-first reachability from vertex 0
    n = adj.shape[0]
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in np.flatnonzero(adj[v]):
            if not seen[w]:
                seen[w] = True
                queue.append(int(w))
    return all(seen)


def perron_frobenius(graph: Graph) -> Spectrum:
    """Largest adjacency eigenvalue and positive eigenvector of `graph`.

    The top eigenpair of the symmetric adjacency matrix from
    `np.linalg.eigh`, sign-fixed and scaled so the smallest entry is 1.
    Raises `GraphError` when the eigenvalue is not simple or the vector not
    strictly positive (a disconnected graph), or when the residual
    ``max|M mu - beta mu|`` exceeds 1e-12 times ``max(mu)``.
    """
    m = graph.adjacency.astype(float)
    values, vectors = np.linalg.eigh(m)
    beta, x = float(values[-1]), vectors[:, -1]
    x = x if x.sum() > 0 else -x
    # a connected graph has a simple top eigenvalue with a positive vector
    if np.any(values[:-1] > beta - 1e-9) or x.min() <= 1e-12 * x.max():
        raise GraphError(f"{graph.name!r} has no simple positive Perron-Frobenius vector")
    mu = x / x.min()
    if np.max(np.abs(m @ mu - beta * mu)) > 1e-12 * mu.max():
        raise GraphError(f"Perron-Frobenius residual too large for {graph.name!r}")
    return Spectrum(beta=beta, mu=mu)


def coxeter_info(spectrum: Spectrum) -> CoxeterInfo | None:
    """Coxeter data for `spectrum`, or None when beta >= 2 - 1e-9.

    For beta < 2, N = round(pi/arccos(beta/2)) and beta must match
    2 cos(pi/N) to 1e-9.  By Smith's theorem only the ADE diagrams have
    beta < 2, and each matches, so a miss is a numerical fault: `GraphError`.
    """
    beta = spectrum.beta
    if beta >= 2.0 - 1e-9:
        return None
    number = round(math.pi / math.acos(beta / 2.0))
    if number < 2 or abs(beta - 2.0 * math.cos(math.pi / number)) >= 1e-9:
        raise GraphError(f"beta = {beta:.12f} is below 2 but matches no Coxeter number")
    return CoxeterInfo(coxeter_number=number, max_essential_length=number - 2)
