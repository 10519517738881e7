"""Graph generators, seeded relabelling and the fusion-recursion oracle.

Every graph the benchmark uses is built here from an edge list, so no graph
file outside the package is needed.  `relabel` applies a seeded vertex
permutation; `fusion_dims` gives the dimension of each (source, range)
block of the essential subspace without computing a basis.
"""

from __future__ import annotations

import json
import math

import numpy as np


def chain(n: int) -> list[tuple[int, int]]:
    """A_n: the path on n vertices."""
    return [(i, i + 1) for i in range(n - 1)]


def dynkin_d(n: int) -> list[tuple[int, int]]:
    """D_n: a chain of n - 1 vertices with one more leaf on vertex n - 3."""
    return chain(n - 1) + [(n - 3, n - 1)]


def dynkin_e(n: int) -> list[tuple[int, int]]:
    """E_6, E_7, E_8: arms of 2, 1 and n - 4 edges around vertex n - 4."""
    branch = n - 4
    return chain(n - 1) + [(branch, n - 1)]


def affine_a(n: int) -> list[tuple[int, int]]:
    """Affine A_{n-1}: the cycle on n vertices."""
    return chain(n) + [(n - 1, 0)]


def affine_d4() -> list[tuple[int, int]]:
    """Affine D_4: a centre with four leaves."""
    return [(0, k) for k in range(1, 5)]


#: name -> (vertex count, edge list, Coxeter number or None when beta = 2)
CATALOG = {
    "A3": (3, chain(3), 4),
    "A80": (80, chain(80), 81),
    "D4": (4, dynkin_d(4), 6),
    "D5": (5, dynkin_d(5), 8),
    "E6": (6, dynkin_e(6), 12),
    "E8": (8, dynkin_e(8), 30),
    "A_aff_2": (3, affine_a(3), None),
    "D_aff_4": (5, affine_d4(), None),
}


class Relabelled:
    """A catalog graph with its vertices permuted by a seeded generator.

    `perm[v]` is the index the canonical vertex v gets; `text` is the JSON
    document that `pathhopf.parse_graph` reads.
    """

    def __init__(self, name: str, rng: np.random.Generator):
        nv, edges, coxeter = CATALOG[name]
        self.name = name
        self.coxeter = coxeter
        self.perm = [int(v) for v in rng.permutation(nv)]
        mapped = [
            [self.perm[a], self.perm[b]] if rng.random() < 0.5 else [self.perm[b], self.perm[a]]
            for a, b in edges
        ]
        order = rng.permutation(len(mapped))
        doc = {
            "name": name,
            "vertices": [f"v{k}" for k in range(nv)],
            "edges": [mapped[int(k)] for k in order],
        }
        self.text = json.dumps(doc)
        self.adjacency = adjacency(nv, [(a, b) for a, b in mapped])

    def path(self, canonical: tuple[int, ...]) -> tuple[int, ...]:
        """The image of a path given in canonical labels."""
        return tuple(self.perm[v] for v in canonical)


def adjacency(nv: int, edges) -> np.ndarray:
    adj = np.zeros((nv, nv), dtype=np.int64)
    for a, b in edges:
        adj[a, b] = adj[b, a] = 1
    return adj


def expected_beta(coxeter: int | None) -> float:
    """beta = 2 cos(pi / h) for an ADE graph, 2 for an affine one."""
    return 2.0 if coxeter is None else 2.0 * math.cos(math.pi / coxeter)


def fusion_dims(adj: np.ndarray, top: int) -> list[np.ndarray]:
    """Block dimensions of the essential subspaces for n = 0..top.

    The graph-fusion recursion N_0 = I, N_1 = G, N_{k+1} = G N_k - N_{k-1}
    gives the dimension of the (s, r) block at length n as max(N_n[s, r], 0).
    """
    g = np.asarray(adj, dtype=np.int64)
    prev, cur = np.zeros_like(g), np.eye(len(g), dtype=np.int64)
    out = []
    for _ in range(top + 1):
        out.append(np.maximum(cur, 0))
        prev, cur = cur, g @ cur - prev
    return out


def walks(adj: np.ndarray, n: int, source: int) -> list[tuple[int, ...]]:
    """All walks of length n from `source`, in lexicographic order."""
    nbrs = [np.flatnonzero(row).tolist() for row in adj]
    paths = [(source,)]
    for _ in range(n):
        paths = [p + (w,) for p in paths for w in nbrs[p[-1]]]
    return paths
