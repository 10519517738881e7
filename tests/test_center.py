"""The center of the algebra against Ocneanu's count of quantum symmetries.

For an ADE graph with Cappelli-Itzykson-Zuber modular invariant M, the
center of the algebra of essential paths has dimension sum_ij M_ij^2.  The
center is computed from the product alone (`helpers.loop_key_center`), so
the count checks the whole construction against a prediction from outside
the code; closure of the computed center under the product checks the
products themselves.  The algebra is semisimple, so each minimal central
idempotent e_x cuts out a full matrix block of some size d_x, and the
squares d_x^2 add up to the dimension of the algebra.
"""

from functools import lru_cache

import numpy as np
import pytest

from pathhopf import PathSpace, coxeter_info, essential_basis
from pathhopf import weak_hopf
from pathhopf.weak_hopf import _product
from helpers import graph_from_edges, loop_key_center, loop_key_products, path_graph


def diagonal(h):
    """The diagonal invariant of A_{h-1}: sum_l |chi_l|^2, l = 1..h-1."""
    return {(l, l): 1 for l in range(1, h)}


def blocks(*groups, extra=()):
    """sum over the groups of |sum_{l in group} chi_l|^2, plus the given
    extra (l, m, multiplicity) terms."""
    out = {(l, m): 1 for group in groups for l in group for m in group}
    out.update({(l, m): k for l, m, k in extra})
    return out


# the CIZ invariants as {(l, m): M_lm} over the labels 1..h-1
CIZ = {
    "A3": (path_graph(3), diagonal(4)),
    "A4": (path_graph(4), diagonal(5)),
    "A6": (path_graph(6), diagonal(7)),
    # D4, h = 6: |chi_1 + chi_5|^2 + 2 |chi_3|^2
    "D4": (graph_from_edges("D4", [(0, 1), (0, 2), (0, 3)]), blocks((1, 5), extra=[(3, 3, 2)])),
    # D5, h = 8: sum over odd l of |chi_l|^2 plus sum over even l of chi_l conj(chi_{8-l})
    "D5": (
        graph_from_edges("D5", [(0, 1), (1, 2), (2, 3), (2, 4)]),
        {(l, l if l % 2 else 8 - l): 1 for l in range(1, 8)},
    ),
    # E6, h = 12: |chi_1 + chi_7|^2 + |chi_4 + chi_8|^2 + |chi_5 + chi_11|^2
    "E6": (
        graph_from_edges("E6", [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]),
        blocks((1, 7), (4, 8), (5, 11)),
    ),
}


def center(space):
    """The loop keys, the center's orthonormal basis as columns over them,
    and the smallest nonzero eigenvalue of the commutator form."""
    loops, values, vectors = loop_key_center(space)
    kernel = int(np.sum(values < 1e-8))
    assert values[kernel - 1] < 1e-12 < 1e-2 < values[kernel]  # a clear rank cut
    return loops, vectors[:, :kernel]


@lru_cache(maxsize=None)
def computed_center(name):
    """The space of the named graph, its loop keys and its center's basis."""
    space = PathSpace(CIZ[name][0])
    return (space, *center(space))


def closure_residual(space, loops, basis):
    """The largest part of a product of two center basis elements outside
    the center's span."""
    products = loop_key_products(space, loops, basis, basis).reshape(len(loops), -1)
    return np.abs(products - basis @ (basis.T @ products)).max()


def simple_block_squares(space, loops, basis):
    """d_x^2 = tr L_e = sum_k (e k)[k] over every key k, for each minimal
    central idempotent e = e_x.  The e_x are the eigenvectors of the
    multiplication by a random central element inside the center, scaled so
    that they add up to the unit.  The center is a real algebra, so they may
    be complex."""
    central = basis @ np.random.default_rng(0).standard_normal(basis.shape[1])
    _, vectors = np.linalg.eig(basis.T @ loop_key_products(space, loops, central[:, None], basis)[:, 0])
    unit = basis.T @ np.array([float(n == 0) for n, _, _ in loops])
    idempotents = basis @ (vectors * np.linalg.solve(vectors, unit))
    # tr L_l of each loop key l; only keys k whose endpoints meet l's have l k != 0
    top = coxeter_info(space.spectrum).max_essential_length
    ends = [essential_basis(space, n).endpoints for n in range(top + 1)]
    traces = np.zeros(len(loops))
    for i, (m, a, b) in enumerate(loops):
        for n in range(top + 1):
            for c, d in np.ndindex(len(ends[n]), len(ends[n])):
                if ends[m][a][1] == ends[n][c][0] and ends[m][b][1] == ends[n][d][0]:
                    traces[i] += _product(space, {(m, a, b): 1.0}, {(n, c, d): 1.0}).get((n, c, d), 0.0).real
    return idempotents.T @ traces


@pytest.mark.parametrize("name", list(CIZ))
def test_center_dimension_matches_the_modular_invariant(name):
    _, invariant = CIZ[name]
    space, loops, basis = computed_center(name)
    assert basis.shape[1] == sum(m * m for m in invariant.values())
    # the unit, the sum of all length-0 keys, is central
    unit = np.array([float(n == 0) for n, _, _ in loops])
    assert np.abs(unit - basis @ (basis.T @ unit)).max() < 1e-12
    assert closure_residual(space, loops, basis) < 1e-12


def test_center_closure_catches_a_wrong_junction_scalar(monkeypatch):
    # lambda_1 scaled by 1.01 leaves the center's dimension on D4 at 8, but
    # products of central elements leave the center
    true_scalars = weak_hopf._junction_scalars

    def scaled(beta, n1, n2):
        out = list(true_scalars(beta, n1, n2))
        if len(out) > 1:
            out[1] *= 1.01
        return tuple(out)

    monkeypatch.setattr(weak_hopf, "_junction_scalars", scaled)
    space = PathSpace(CIZ["D4"][0])
    loops, basis = center(space)
    assert basis.shape[1] == 8
    assert closure_residual(space, loops, basis) > 1e-4


@pytest.mark.parametrize("name", list(CIZ))
def test_simple_blocks_fill_the_algebra(name):
    # on A_n and D5 the block sizes are the dimensions of the E_n; on D4 and
    # E6, whose invariants are of block type, they differ, and are not
    # pinned here
    space, loops, basis = computed_center(name)
    squares = simple_block_squares(space, loops, basis)
    top = coxeter_info(space.spectrum).max_essential_length
    dims = [len(essential_basis(space, n)) for n in range(top + 1)]
    assert abs(squares.sum() - sum(d * d for d in dims)) < 1e-9
    assert np.abs(squares - np.rint(squares.real)).max() < 1e-9
    if name[0] == "A" or name == "D5":
        assert sorted(np.rint(np.sqrt(squares.real)).astype(int).tolist()) == sorted(dims)
