"""Essential bases, the tridiagonal splitting system, and decompositions."""

import itertools
import math
from collections import Counter
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathhopf import (
    CutoffError,
    EssentialBasis,
    Graph,
    PathSpace,
    PathVector,
    coxeter_info,
    decompose,
    essential_basis,
    inner_product,
    is_essential,
    load_fixture,
    project_component,
    recompose,
    tridiagonal_det,
    tridiagonal_matrix,
    tridiagonal_solve,
    zero_vector,
)
from pathhopf.errors import GraphError, PathHopfError, SingularSystemError
from pathhopf.graph_core import Spectrum
from pathhopf.path_space import PRUNE_TOL
from pathhopf import essential_decomp
from pathhopf.essential_decomp import _level_maps, _positions, creation_words, word_gram
from pathhopf.weak_hopf import _block_counts, coefficient_C, projector_P
import frozen_cases
from helpers import (
    assert_decomposition,
    block_projector,
    decomp_as_dict,
    expand,
    path_graph,
    per_block_kernel,
    per_word_decompose,
    pv,
    random_vector,
    recursive_decompose,
    sup_diff,
    unit,
    walk_essential_basis,
)

ROOT2 = math.sqrt(2)
Q = 2 ** 0.25


# -- essential bases -----------------------------------------------------------


def test_a3_dims(a3):
    dims = [len(essential_basis(a3, n)) for n in range(4)]
    assert dims == [3, 4, 3, 0]
    assert sum(dims) == 10


def test_a3_length_two_content(a3):
    # the essential slice must contain (012), (210), and the normalized
    # difference of the two 1 -> 1 round trips, whatever basis was chosen
    basis = essential_basis(a3, 2)
    gamma = pv({(1, 2, 1): 1 / ROOT2, (1, 0, 1): -1 / ROOT2})
    for xi in (unit((0, 1, 2)), unit((2, 1, 0)), gamma):
        residual = xi
        for a, c in expand(basis, xi).items():
            residual = residual - c * basis.vectors[a]
        assert residual.sup_norm() < 1e-10


def test_triangle_dims_with_nullspace_oracle(tri):
    # independent oracle: the only annihilation operator on degree 2 maps
    # (v, w, v) to (v); build that matrix directly and rank it with numpy
    paths = sorted(
        t
        for t in itertools.product(range(3), repeat=3)
        if tri.graph.adjacency[t[0], t[1]] and tri.graph.adjacency[t[1], t[2]]
    )
    mat = np.zeros((3, len(paths)))
    for j, p in enumerate(paths):
        if p[0] == p[2]:
            mat[p[0], j] = 1.0  # mu is constant, so the weight is 1
    oracle_dim = len(paths) - np.linalg.matrix_rank(mat)
    assert oracle_dim == 9
    assert [len(essential_basis(tri, n)) for n in range(3)] == [3, 6, 9]


def test_basis_vectors_are_orthonormal_kernel_vectors(tri):
    basis = essential_basis(tri, 3)
    for a, xi in enumerate(basis.vectors):
        for i in range(2):
            assert tri.annihilate(i, xi).norm() < 1e-9
        s, r = basis.endpoints[a]
        assert xi.endpoints() == (s, r)
        for b, eta in enumerate(basis.vectors):
            expected = 1.0 if a == b else 0.0
            assert abs(inner_product(xi, eta) - expected) < 1e-10


@pytest.mark.parametrize("space_name", ["a3", "tri", "d4"])
@pytest.mark.parametrize("n", range(5))
def test_kernel_property_all_lengths(space_name, n, request):
    space = request.getfixturevalue(space_name)
    basis = essential_basis(space, n)
    for xi in basis.vectors:
        for i in range(n - 1):
            assert space.annihilate(i, xi).norm() < 1e-9


@pytest.mark.parametrize("n", range(2, 6))
def test_decomposition_word_indices_bounded(tri, n):
    # words stay strictly increasing with every index <= length - 2
    for p in tri.enumerate_paths(n):
        for word, xi in decompose(tri, unit(p)).terms:
            assert all(a < b for a, b in zip(word.indices, word.indices[1:]))
            assert all(0 <= i <= n - 2 for i in word.indices)
            assert xi.length == n - 2 * len(word.indices)


def test_basis_deterministic(tri):
    fresh = PathSpace(tri.graph, tri.spectrum)
    b1 = essential_basis(tri, 2)
    b2 = essential_basis(fresh, 2)
    assert len(b1) == len(b2)
    for x, y in zip(b1.vectors, b2.vectors):
        assert sup_diff(x, y) == 0.0


@pytest.mark.parametrize("name", ["a3", "d4", "tri", "E6", "D5", "D_aff_4", "E8"])
def test_basis_vectors_lead_with_a_positive_coefficient(name, request):
    # the sign rule: the first entry above 1e-9 of each row of `append`, in
    # candidate order, is positive; in walk coordinates each vector is its
    # row of `block`, less the entries `PathVector` prunes
    space = PathSpace(edge_graph(name)) if name in FUSION_GRAPHS else request.getfixturevalue(name)
    for n in range(1, 7):
        basis = essential_basis(space, n)
        for a, row in enumerate(basis.append):
            assert row[np.abs(row) > 1e-9][0] > 0, (name, n, a)
        for (s, t), at in basis.blocks.items():
            walks, rows = basis.block(s, t)
            paths = list(map(tuple, walks.tolist()))
            for a, row in zip(at, rows):
                assert basis.vectors[a].coeffs.keys() <= set(paths), (name, n, a)
                got = np.array([basis.vectors[a].coeffs.get(p, 0.0) for p in paths])
                assert np.array_equal(got, np.where(np.abs(row) > PRUNE_TOL, row, 0.0)), (name, n, a)


def assert_stable_under_rounding_in_mu(space, top, eps):
    mu = np.asarray(space.mu) * (1 + eps * np.arange(len(space.mu)))
    nudged = PathSpace(space.graph, spectrum=Spectrum(beta=space.beta, mu=mu))
    for n in range(top + 1):
        for x, y in zip(essential_basis(space, n).vectors, essential_basis(nudged, n).vectors):
            assert sup_diff(x, y) < 1e-9, (n, eps)


@pytest.mark.parametrize("eps", [1e-13, -1e-13, 3e-13])
def test_d4_basis_is_stable_under_rounding_in_mu(d4, eps):
    # these nudges of mu move no basis vector up to length 6 by more than
    # 1e-9: neither a vector's sign nor, in the one two-dimensional block
    # (length 2), its rotation.  The cases pass with the sign rule removed
    # too; the tests that guard that rule are
    # test_basis_vectors_lead_with_a_positive_coefficient and
    # test_stacked_kernels_equal_the_per_block_oracle_bitwise
    assert_stable_under_rounding_in_mu(d4, 6, eps)


@pytest.mark.parametrize("eps", [1e-13, -1e-13, 3e-13])
def test_affine_a2_basis_is_stable_under_rounding_in_mu(tri, eps):
    # on a_aff_2 every kernel is the orthogonal complement of the full row
    # space of a small matrix, with no singular value near zero, and these
    # nudges barely move it; kernels read off the walk-coordinate matrices,
    # which have zero singular values, rotated by up to 1.9 here
    assert_stable_under_rounding_in_mu(tri, 8, eps)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_ade_dimension_law_on_chains(k):
    # the Coxeter bound: essentials vanish first at length L + 1
    space = PathSpace(path_graph(k))
    info = coxeter_info(space.spectrum)
    L = info.max_essential_length
    assert len(essential_basis(space, L)) > 0
    assert len(essential_basis(space, L + 1)) == 0


def test_ade_dimension_law_d4(d4):
    info = coxeter_info(d4.spectrum)
    assert info.max_essential_length == 4
    assert len(essential_basis(d4, 4)) > 0
    assert len(essential_basis(d4, 5)) == 0


# -- is_essential ----------------------------------------------------------------


def test_is_essential_gamma(a3):
    assert is_essential(a3, pv({(1, 2, 1): 1 / ROOT2, (1, 0, 1): -1 / ROOT2}))


def test_is_essential_back_and_forth_false(a3):
    assert not is_essential(a3, unit((0, 1, 0)))


def test_is_essential_short_paths(a3):
    assert is_essential(a3, unit((0,)))
    assert is_essential(a3, unit((0, 1)))


# -- tridiagonal system -----------------------------------------------------------


def test_tridiagonal_size_one():
    # 1x1 system: beta * alpha = 1 by hand
    alpha = tridiagonal_solve(ROOT2, 1)
    assert np.allclose(alpha, [1 / ROOT2], atol=1e-12)


def test_tridiagonal_det_size_two():
    # det [[b, 1], [1, b]] = b^2 - 1 by hand
    for beta in (1.0, ROOT2, 2.0, 2.3):
        assert abs(tridiagonal_det(beta, 2) - (beta * beta - 1)) < 1e-12


@pytest.mark.parametrize("size", range(1, 9))
def test_tridiagonal_det_at_beta_two(size):
    assert abs(tridiagonal_det(2.0, size) - (size + 1)) < 1e-9


@pytest.mark.parametrize("size", range(1, 9))
@pytest.mark.parametrize(
    "beta", [1.0, ROOT2, (1 + math.sqrt(5)) / 2, 2.0, 2.3]
)
def test_tridiagonal_det_matches_numpy(beta, size):
    direct = np.linalg.det(tridiagonal_matrix(beta, size))
    assert abs(tridiagonal_det(beta, size) - direct) < 1e-9


@pytest.mark.parametrize("size", range(1, 9))
@pytest.mark.parametrize("beta", [1.0, ROOT2, (1 + math.sqrt(5)) / 2, 2.3])
def test_tridiagonal_det_matches_eigenvalue_ratio(beta, size):
    # closed form via the quadratic roots, evaluated with complex arithmetic
    s = complex(1 - 4 / beta**2) ** 0.5
    lp, lm = (1 + s) / 2, (1 - s) / 2
    ratio = (lp ** (size + 1) - lm ** (size + 1)) / (lp - lm)
    assert abs(tridiagonal_det(beta, size) - (beta**size * ratio).real) < 1e-9


def test_tridiagonal_solve_solves():
    # admissible sizes only: n - 1 - i never exceeds the maximum essential
    # length, which is 2 for beta = sqrt(2) and unbounded for beta >= 2
    for beta, sizes in ((ROOT2, (1, 2)), (2.0, (1, 2, 3, 5)), (2.3, (1, 4, 8))):
        for size in sizes:
            alpha = tridiagonal_solve(beta, size)
            rhs = tridiagonal_matrix(beta, size) @ alpha
            expected = np.zeros(size)
            expected[0] = 1.0
            assert np.allclose(rhs, expected, atol=1e-12)


def test_tridiagonal_near_singular_rejected():
    # beta = 2 cos(pi/4) makes the size-3 matrix singular (an inadmissible
    # configuration for a graph whose maximum essential length is 2)
    with pytest.raises(SingularSystemError):
        tridiagonal_solve(ROOT2, 3)


# -- decomposition regressions (frozen worked examples) -----------------------------


@pytest.mark.parametrize("label", sorted(frozen_cases.CHAIN_DECOMPOSITIONS))
def test_decompose_chain_cases(a3, label):
    build, expected = frozen_cases.CHAIN_DECOMPOSITIONS[label]
    assert_decomposition(a3, build(), expected)


@pytest.mark.parametrize("label", sorted(frozen_cases.TRIANGLE_DECOMPOSITIONS))
def test_decompose_triangle_cases(tri, label):
    build, expected = frozen_cases.TRIANGLE_DECOMPOSITIONS[label]
    assert_decomposition(tri, build(), expected)


def test_decompose_essential_passthrough(a3):
    gamma = pv({(1, 2, 1): 1 / ROOT2, (1, 0, 1): -1 / ROOT2})
    d = decompose(a3, gamma)
    assert decomp_as_dict(d).keys() == {()}
    assert sup_diff(d.terms[0][1], gamma) < 1e-12


# -- round trips and projections ---------------------------------------------------


@pytest.mark.parametrize("space_name", ["a3", "tri", "d4"])
@pytest.mark.parametrize("n", range(7))
def test_round_trip_all_elementary_paths(space_name, n, request):
    space = request.getfixturevalue(space_name)
    for p in space.enumerate_paths(n):
        x = unit(p)
        assert sup_diff(recompose(space, decompose(space, x)), x) < 1e-9


def test_recompose_empty_is_zero(tri):
    from pathhopf import Decomposition

    assert recompose(tri, Decomposition(length=2, terms=())).is_zero()


def test_recompose_single_word_term(a3):
    from pathhopf import Decomposition, OperatorWord

    d = Decomposition(length=2, terms=((OperatorWord((0,)), pv({(0,): 1 / Q})),))
    assert sup_diff(recompose(a3, d), unit((0, 1, 0))) < 1e-12


def test_project_component_examples(a3):
    gamma = pv({(1, 2, 1): 1 / ROOT2, (1, 0, 1): -1 / ROOT2})
    out = project_component(a3, unit((1, 0, 1)), 0)
    assert sup_diff(out, gamma * (-1 / ROOT2)) < 1e-10
    assert sup_diff(project_component(a3, gamma, 0), gamma) < 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_projections_complete(seed, n):
    space = PathSpace(load_fixture("a_aff_2"))
    rng = np.random.default_rng(seed)
    x = random_vector(space, n, rng)
    total = None
    for l in range(n // 2 + 1):
        piece = project_component(space, x, l)
        total = piece if total is None else total + piece
    assert sup_diff(total, x) < 1e-9


@pytest.mark.parametrize("space_name", ["a3", "tri"])
@pytest.mark.parametrize("n", range(2, 6))
def test_projector_algebra_full_bases(space_name, n, request):
    # dense projector matrices on the elementary basis: idempotent, mutually
    # annihilating, self-adjoint, and summing to the identity
    space = request.getfixturevalue(space_name)
    paths = space.enumerate_paths(n)
    index = {p: j for j, p in enumerate(paths)}
    mats = []
    for l in range(n // 2 + 1):
        m = np.zeros((len(paths), len(paths)), dtype=complex)
        for j, p in enumerate(paths):
            out = project_component(space, unit(p), l)
            for q, c in out.coeffs.items():
                m[index[q], j] = c
        mats.append(m)
    total = sum(mats)
    assert np.max(np.abs(total - np.eye(len(paths)))) < 1e-9
    for l, m in enumerate(mats):
        assert np.max(np.abs(m @ m - m)) < 1e-9, (space_name, n, l)
        assert np.max(np.abs(m - m.conj().T)) < 1e-9, (space_name, n, l)
        for k in range(l + 1, len(mats)):
            assert np.max(np.abs(m @ mats[k])) < 1e-9, (space_name, n, l, k)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_components_mutually_orthogonal(seed, n):
    spaces = [PathSpace(load_fixture("a3")), PathSpace(load_fixture("a_aff_2"))]
    rng = np.random.default_rng(seed)
    for space in spaces:
        x = random_vector(space, n, rng)
        pieces = [project_component(space, x, l) for l in range(n // 2 + 1)]
        for i in range(len(pieces)):
            for j in range(i + 1, len(pieces)):
                assert abs(inner_product(pieces[i], pieces[j])) < 1e-9


def test_essential_basis_respects_cutoff(tri):
    tight = PathSpace(tri.graph, tri.spectrum, cutoff=2)
    assert len(essential_basis(tight, 2)) == 9
    with pytest.raises(CutoffError, match="cutoff"):
        essential_basis(tight, 3)


@pytest.mark.parametrize("n", [-1, -3])
def test_essential_basis_refuses_a_negative_length(a3, n):
    # the recursion from E_{n-1} would never reach length 0
    with pytest.raises(PathHopfError, match="path length must be nonnegative"):
        essential_basis(a3, n)


def test_decompose_respects_cutoff(tri):
    tight = PathSpace(tri.graph, tri.spectrum, cutoff=3)
    with pytest.raises(CutoffError):
        decompose(tight, unit((0, 1, 0, 1, 0)))


# -- oracles independent of the basis builder ---------------------------------------

# (vertex count, edges, top length); the top lengths run past the Coxeter
# bound on the finite graphs, where every block must be empty
FUSION_GRAPHS = {
    "A6": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], 6),
    "D5": (5, [(0, 1), (1, 2), (2, 3), (2, 4)], 8),
    "E6": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)], 11),
    "E8": (8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)], 10),
    "A_aff_2": (3, [(0, 1), (1, 2), (0, 2)], 8),
    "D_aff_4": (5, [(0, 1), (0, 2), (0, 3), (0, 4)], 7),
    "K4": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 6),  # beta = 3
    "triangle_tail": (4, [(0, 1), (0, 2), (1, 2), (2, 3)], 8),  # beta = 2.170
}


# more graphs for the decomposition oracles: (vertex count, edges)
ORACLE_GRAPHS = {
    "A3": (3, [(0, 1), (1, 2)]),
    "D4": (4, [(0, 1), (0, 2), (0, 3)]),
    "A4": (4, [(0, 1), (1, 2), (2, 3)]),
}


def edge_graph(name):
    k, edges = (ORACLE_GRAPHS.get(name) or FUSION_GRAPHS[name])[:2]
    adjacency = np.zeros((k, k), dtype=int)
    for i, j in edges:
        adjacency[i, j] = adjacency[j, i] = 1
    return Graph(name=name, vertices=tuple(str(v) for v in range(k)), adjacency=adjacency)


def fusion_dims(g, top):
    """Graph fusion: N_0 = I, N_1 = G, N_{k+1} = G N_k - N_{k-1}; the (s, r)
    block of E_n has dimension max(N_n[s, r], 0).  On a finite graph with
    Coxeter number h, N_{h-1} = 0 and every later E_n is 0, so the
    recursion stops at the first zero N_n."""
    fusion = [np.eye(len(g), dtype=int), g]
    while len(fusion) <= top:
        if fusion[-1].any():
            fusion.append(g @ fusion[-1] - fusion[-2])
        else:
            fusion.append(fusion[-1])
    return [np.maximum(f, 0) for f in fusion[: top + 1]]


@pytest.mark.parametrize("name", sorted(FUSION_GRAPHS))
def test_block_dims_match_fusion_recursion(name):
    graph = edge_graph(name)
    top = FUSION_GRAPHS[name][2]
    space = PathSpace(graph, cutoff=top)
    g = graph.adjacency
    fusion = fusion_dims(g, top)
    for n in range(top + 1):
        got = np.zeros_like(g)
        for s, r in essential_basis(space, n).endpoints:
            got[s, r] += 1
        assert np.array_equal(got, fusion[n]), (name, n)


@pytest.mark.parametrize("name", sorted(FUSION_GRAPHS))
def test_block_counts_match_fusion_recursion(name):
    # the size guard's counts v_n = N_n 1, by a vector recursion, are the
    # row sums of the fusion matrices, and their sums the dimensions of E_n
    graph = edge_graph(name)
    top = FUSION_GRAPHS[name][2]
    fusion = fusion_dims(graph.adjacency, top)
    v = _block_counts(PathSpace(graph, cutoff=top), top)
    assert v.shape == (top + 1, len(graph.vertices))
    assert np.array_equal(v, [f.sum(1) for f in fusion]), name
    assert v.sum(1).tolist() == [f.sum() for f in fusion], name


def test_e8_length_ten_basis_is_orthonormal_and_essential():
    space = PathSpace(edge_graph("E8"), cutoff=10)
    basis = essential_basis(space, 10)
    assert len(basis) > 0
    paths = sorted({p for xi in basis.vectors for p in xi.coeffs})
    column = {p: j for j, p in enumerate(paths)}
    dense = np.zeros((len(basis), len(paths)), dtype=complex)
    for a, xi in enumerate(basis.vectors):
        assert xi.endpoints() == basis.endpoints[a]
        for p, c in xi.coeffs.items():
            dense[a, column[p]] = c
        for i in range(9):
            assert space.annihilate(i, xi).norm() < 1e-9
    assert np.allclose(dense @ dense.conj().T, np.eye(len(basis)), atol=1e-10)


def test_e8_bases_to_the_top_length_form_no_walk(monkeypatch):
    # E8 has 1.57e9 walks of length 28; building its bases must not touch one
    space = PathSpace(edge_graph("E8"), cutoff=29)
    enumerate_paths = PathSpace.enumerate_paths

    def short_walks_only(self, n, *args, **kwargs):
        assert n < 2, f"enumerated the walks of length {n}"
        return enumerate_paths(self, n, *args, **kwargs)

    def no_walks(*args, **kwargs):
        raise AssertionError("expanded a basis into walks")

    monkeypatch.setattr(PathSpace, "enumerate_paths", short_walks_only)
    monkeypatch.setattr(EssentialBasis, "block", no_walks)
    monkeypatch.setattr(PathVector, "__init__", no_walks)
    dims = [len(essential_basis(space, n)) for n in range(30)]
    monkeypatch.undo()
    fusion = [int(f.sum()) for f in fusion_dims(space.graph.adjacency, 29)]
    assert dims == fusion
    assert dims[:4] == [8, 14, 20, 26] and max(dims) == 64
    assert dims[-4:] == [20, 14, 8, 0]


@pytest.mark.parametrize(
    "name, top", [("A3", 8), ("D4", 8), ("A_aff_2", 8), ("E6", 10), ("D5", 6)]
)
def test_block_projectors_match_the_walk_oracle(name, top):
    space = PathSpace(edge_graph(name))
    oracle = walk_essential_basis(space, top)
    for n in range(top + 1):
        basis = essential_basis(space, n)
        assert list(basis.blocks) == sorted(oracle[n]), n
        for block, offsets in basis.blocks.items():
            ours, theirs = [basis.vectors[a] for a in offsets], oracle[n][block]
            paths = sorted({p for xi in ours + theirs for p in xi.coeffs})
            diff = block_projector(ours, paths) - block_projector(theirs, paths)
            assert np.abs(diff).max() < 1e-12, (name, n, block)


def candidate_sizes(space, below, s, t):
    """{r: dim of block (s, r) of `below`} over the r ~ t that have one."""
    return {r: len(below.blocks[s, r]) for r in space.graph.neighbors[t] if (s, r) in below.blocks}


@pytest.mark.parametrize(
    "name, top",
    [("A3", 2), ("A4", 3), ("D4", 4), ("D5", 6), ("E6", 10), ("E8", 10), ("A_aff_2", 8), ("D_aff_4", 8)],
)
def test_stacked_kernels_equal_the_per_block_oracle_bitwise(name, top):
    space = PathSpace(edge_graph(name))
    nv = space.graph.num_vertices
    for n in range(1, top + 1):
        below, basis, built = essential_basis(space, n - 1), essential_basis(space, n), []
        assert basis.append.shape == (len(basis), len(below)), n
        for s, t in itertools.product(range(nv), repeat=2):
            sizes = candidate_sizes(space, below, s, t)
            kernel = per_block_kernel(space, below, s, t, sizes) if sizes else ()
            if len(kernel):
                built.append((s, t))
                # the block's rows: the oracle on its candidates, 0 elsewhere
                rows = np.zeros((len(kernel), len(below)))
                rows[:, [b for r in sizes for b in below.blocks[s, r]]] = kernel
                assert np.array_equal(basis.append[list(basis.blocks[s, t])], rows), (n, s, t)
        assert list(basis.blocks) == built, n
        if n == 1:
            # c_{-1} has no rows: every edge is its own block and is kept
            assert len(built) == space.graph.adjacency.sum()
            assert np.array_equal(basis.append, np.equal.outer([s for s, _ in basis.endpoints], range(nv)))


@pytest.mark.parametrize("name, top", [("E6", 10), ("A_aff_2", 8)])
def test_each_length_runs_one_svd_per_block_shape(monkeypatch, name, top):
    space = PathSpace(edge_graph(name))
    nv, svd, calls = space.graph.num_vertices, np.linalg.svd, []

    def counted(a, *args, **kwargs):
        calls[-1].append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(essential_decomp.np.linalg, "svd", counted)
    for n in range(top + 1):
        calls.append([])
        essential_basis(space, n)
    monkeypatch.undo()
    assert calls[0] == []
    for n in range(1, top + 1):
        below = essential_basis(space, n - 1)
        two_below = essential_basis(space, n - 2).blocks if n >= 2 else {}
        shapes = Counter()
        for s, t in itertools.product(range(nv), repeat=2):
            sizes = candidate_sizes(space, below, s, t)
            if sizes:
                shapes[len(two_below.get((s, t), ())), sum(sizes.values())] += 1
        assert sorted(calls[n]) == sorted((count, *shape) for shape, count in shapes.items()), n


@pytest.mark.parametrize("name", ["A3", "D4", "A_aff_2", "D5", "E6"])
def test_append_and_prepend_hold_their_definitions_in_walk_coordinates(name):
    # xi_a = sum_b A[a, b] xi_b . (r(b) -> r(a)) and
    # xi_c = sum_f P[c, f] (s(c) -> s(f)) . xi_f, over the vectors one step shorter
    space = PathSpace(edge_graph(name))
    for n in range(1, min(space.top_length, 6) + 1):
        basis, below = essential_basis(space, n), essential_basis(space, n - 1)
        for a, (xi, (s, t)) in enumerate(zip(basis.vectors, basis.endpoints)):
            appended, prepended = {}, {}
            for b, omega in enumerate(below.vectors):
                for p, c in omega.coeffs.items():
                    appended[p + (t,)] = appended.get(p + (t,), 0) + basis.append[a, b] * c
                    prepended[(s,) + p] = prepended.get((s,) + p, 0) + basis.prepend[a, b] * c
            for built in (appended, prepended):
                walks = xi.coeffs.keys() | {p for p, c in built.items() if c != 0}
                assert max(abs(xi.coeffs.get(p, 0) - built.get(p, 0)) for p in walks) < 1e-13, (n, a)


# -- the word-Gram solve against the recursive splitter -----------------------

def solid_terms(d, tol=1e-10):
    """{word indices: vector}, without terms that are float dust."""
    return {w.indices: v for w, v in d.terms if v.sup_norm() > tol}


def assert_matches_oracle(space, x):
    got = solid_terms(decompose(space, x))
    want = solid_terms(recursive_decompose(space, x))
    assert set(got) == set(want), (sorted(got), sorted(want))
    for word, vector in got.items():
        assert sup_diff(vector, want[word]) < 1e-9, word


@pytest.mark.parametrize(
    "name, n",
    [("A3", n) for n in range(8)]
    + [("D4", n) for n in range(8)]
    + [("A_aff_2", n) for n in range(9)],
)
def test_decompose_matches_recursion_on_unit_paths(name, n):
    space = PathSpace(edge_graph(name))
    for p in space.enumerate_paths(n):
        assert_matches_oracle(space, unit(p))


@pytest.mark.parametrize("name", ["E6", "D_aff_4"])
@pytest.mark.parametrize("n", range(2, 9))
def test_decompose_matches_recursion_on_block_vectors(name, n):
    space = PathSpace(edge_graph(name))
    rng = np.random.default_rng(1000 * n + len(name))
    ends = sorted({(p[0], p[-1]) for p in space.enumerate_paths(n)})
    for trial in range(3):
        s, r = ends[int(rng.integers(len(ends)))]
        paths = [p for p in space.enumerate_paths(n, source=s) if p[-1] == r]
        coeffs = rng.standard_normal(len(paths))
        if trial:
            coeffs = coeffs + 1j * rng.standard_normal(len(paths))
        assert_matches_oracle(space, pv(dict(zip(paths, coeffs))))


# -- the stacked level maps against the per-word oracle -------------------------


def assert_matches_per_word(space, x):
    """decompose(x) and `per_word_decompose(x)` have the same words and
    walk keys, and coefficients within 1e-12 of the largest one."""
    got, want = decompose(space, x).terms, per_word_decompose(space, x).terms
    assert [w.indices for w, _ in got] == [w.indices for w, _ in want]
    scale = max((v.sup_norm() for _, v in want), default=0.0)
    for (word, u), (_, v) in zip(got, want):
        assert u.coeffs.keys() == v.coeffs.keys(), word
        assert max(abs(u.coeffs[p] - v.coeffs[p]) for p in u.coeffs) <= 1e-12 * scale, word


@pytest.mark.parametrize("name", ["A_aff_2", "D_aff_4", "E6", "D5"])
def test_stacked_maps_match_per_word_decompose_on_complex_block_vectors(name):
    # every block of each length, then one vector dense over all blocks;
    # D5 (h = 8) has Jones-Wenzl-truncated words at n = 8
    space = PathSpace(edge_graph(name))
    rng = np.random.default_rng(len(name))
    for n in range(2, 9):
        paths = space.enumerate_paths(n)
        coeffs = rng.standard_normal(len(paths)) + 1j * rng.standard_normal(len(paths))
        dense = dict(zip(paths, coeffs))
        for ends in sorted({(p[0], p[-1]) for p in paths}):
            block = {p: c for p, c in dense.items() if (p[0], p[-1]) == ends}
            assert_matches_per_word(space, pv(block))
        assert_matches_per_word(space, pv(dense))


@pytest.mark.parametrize("name", ["A3", "D4", "D5", "A_aff_2", "E6"])
def test_stacked_maps_match_per_word_decompose_on_unit_paths(name):
    space = PathSpace(edge_graph(name))
    for n in range(9):
        for p in space.enumerate_paths(n):
            assert_matches_per_word(space, unit(p))


def test_per_word_oracle_catches_a_scaled_level_map_weight():
    space, walk = PathSpace(edge_graph("A_aff_2")), (0, 1, 0, 2, 1, 2, 0)
    x = unit(walk)
    assert_matches_per_word(space, x)
    maps = _level_maps(space, 6, 0, 0)
    count, flat, src, weight = maps[1]
    scaled = weight.copy()
    # the first level-1 word whose c_w does not kill x
    scaled[np.flatnonzero(src == _positions(space, 6, 0, 0, [walk])[0])[0]] *= 1.001
    maps[1] = (count, flat, src, scaled)
    with pytest.raises(AssertionError):
        assert_matches_per_word(space, x)


def test_stacked_maps_are_built_once_per_block(monkeypatch):
    space = PathSpace(edge_graph("A_aff_2"))
    builds = Counter()

    def counted(space, n, s, r):
        builds[n, s, r] += (n, s, r) not in space.cache.get("level_maps", {})
        return _level_maps(space, n, s, r)

    monkeypatch.setattr(essential_decomp, "_level_maps", counted)
    x, y = unit((0, 1, 2, 0, 1, 0, 2)), unit((0, 2, 1, 0, 2, 1, 2))
    first = decompose(space, x)
    projector_P(space, x, y)
    projector_P(space, y, x)
    again = decompose(space, x)
    decompose(space, y)
    assert (6, 0, 2) in builds and set(builds) == set(space.cache["level_maps"])
    assert all(count == 1 for count in builds.values())
    # output terms reuse the tables' frozen words
    assert len(first.terms) > 1
    assert all(a is b for (a, _), (b, _) in zip(first.terms, again.terms))
    with pytest.raises(FrozenInstanceError):
        first.terms[1][0].indices = (0,)
    assert decompose(space, zero_vector(6)).terms == ()


def test_repeated_decompose_and_projector_reuse_every_table():
    # a second identical round adds no entry to any table in space.cache
    # and reads back the same objects, so every memo key is found again
    space = PathSpace(edge_graph("D_aff_4"))
    x, y = unit((1, 0, 2, 0, 3, 0, 1)), unit((1, 0, 1, 0, 4, 0, 1))
    decompose(space, x)
    projector_P(space, x, y)
    tables = {
        "walks", "walk_positions", "annihilators", "level_maps", "basis_blocks",
        "creation_words", "operator_words", "word_gram", "word_gram_inverse",
    }
    assert tables <= set(space.cache) and all(space.cache[name] for name in tables)
    first = {name: dict(table) for name, table in space.cache.items()}
    decompose(space, x)
    projector_P(space, x, y)
    assert set(space.cache) == set(first)
    for name, table in space.cache.items():
        assert table.keys() == first[name].keys(), name
        assert all(table[key] is value for key, value in first[name].items()), name


def test_word_tables_refuse_lengths_and_levels_out_of_range(tri):
    for l in (-1, 0, 3):
        with pytest.raises(PathHopfError, match="word level"):
            word_gram(tri, 4, l)
    with pytest.raises(PathHopfError, match="nonnegative"):
        creation_words(tri, -1)
    assert (4, -1) not in tri.cache.get("word_gram", {})
    assert np.allclose(word_gram(tri, 4, 2), [[4.0, 2.0], [2.0, 4.0]])


def test_word_tables_refuse_lengths_past_the_cutoff(tri):
    # both refuse before any enumeration: no table holds an entry of the
    # refused length (at n = 20 there are 184,756 words, and word_gram at 16
    # would enumerate 65,536 walks before the basis at m = 14 refused)
    space = PathSpace(tri.graph, tri.spectrum, cutoff=12)
    with pytest.raises(CutoffError, match="length 20 exceeds the cutoff 12"):
        creation_words(space, 20)
    with pytest.raises(CutoffError, match="length 16 exceeds the cutoff 12"):
        word_gram(space, 16, 3)
    for name, table in space.cache.items():
        assert not [k for k in table if (k[0] if isinstance(k, tuple) else k) in (16, 20)], name
    assert len(creation_words(space, 12)[6]) == 132  # the cutoff length itself is built: Catalan C_6 words


@pytest.mark.parametrize("name", ["A3", "D4", "D5", "A_aff_2", "E6"])
def test_decompose_terms_hold_the_adopt_contract(name):
    # decompose hands its dicts to PathVector._adopt, which skips the
    # conversion and the pruning of __init__: every value must already be a
    # complex above PRUNE_TOL.  The vector over all blocks merges the dicts
    # of one word from several blocks
    space = PathSpace(edge_graph(name))
    rng = np.random.default_rng(len(name) + 7)
    inputs = []
    for n in range(9):
        paths = space.enumerate_paths(n)
        inputs += [unit(p) for p in paths]
        coeffs = rng.standard_normal(len(paths)) + 1j * rng.standard_normal(len(paths))
        dense = dict(zip(paths, coeffs))
        for ends in sorted({(p[0], p[-1]) for p in paths}):
            inputs.append(pv({p: c for p, c in dense.items() if (p[0], p[-1]) == ends}))
        inputs.append(pv(dense))
    for x in inputs:
        for word, v in decompose(space, x).terms:
            assert v.coeffs, word
            assert all(type(c) is complex and abs(c) > PRUNE_TOL for c in v.coeffs.values()), word
            assert PathVector(v.length, dict(v.coeffs)).coeffs == v.coeffs, word


@pytest.mark.parametrize("path", [(0, 2, 1), (0, 1, 7), (7, 1, 0), (0, 1)])
def test_decompose_rejects_a_non_walk(a3, path):
    with pytest.raises(GraphError, match="is not a walk of length 2"):
        decompose(a3, PathVector(2, {path: 1.0}))


# -- the truncated word set ------------------------------------------------------


def ballot(n, l):
    """Number of normal-ordered words of length l at length n, untruncated."""
    return math.comb(n, l) - (math.comb(n, l - 1) if l else 0)


@pytest.mark.parametrize("name, top", [("A3", 12), ("D5", 10), ("E6", 12), ("A_aff_2", 10)])
def test_word_counts_times_fusion_dims_count_walks(name, top):
    # on every block, sum_l |W(n, l)| * dim E_{n-2l}[s, r] is the number of
    # walks from s to r.  On the finite graphs top runs past the Coxeter
    # bound h - 2, on A3 past 2h
    graph = edge_graph(name)
    space = PathSpace(graph, cutoff=top)
    g = graph.adjacency
    dims = fusion_dims(g, top)
    walks = np.eye(len(g), dtype=int)
    for n in range(top + 1):
        levels = creation_words(space, n)
        total = sum(len(levels[l]) * dims[n - 2 * l] for l in range(n // 2 + 1))
        assert np.array_equal(total, walks), (name, n)
        walks = walks @ g


def test_untruncated_words_at_beta_two_and_overcount_on_a3():
    tri = PathSpace(edge_graph("A_aff_2"))
    for n in range(9):
        assert [len(w) for w in creation_words(tri, n)] == [
            ballot(n, l) for l in range(n // 2 + 1)
        ]
    # on A3 at n = 4 the untruncated words give 3 * dim E_2[0, 2] = 3
    # vectors in the (0, 2) block, which holds only 2 walks
    a3 = PathSpace(edge_graph("A3"))
    dims = fusion_dims(a3.graph.adjacency, 4)
    assert ballot(4, 1) * dims[2][0, 2] + ballot(4, 2) * dims[0][0, 2] == 3
    assert len([p for p in a3.enumerate_paths(4, source=0) if p[-1] == 2]) == 2
    assert [len(w) for w in creation_words(a3, 4)] == [1, 2, 2]


@pytest.mark.parametrize("name, top", [("A3", 6), ("A_aff_2", 8), ("E6", 8)])
def test_word_gram_is_positive_definite_and_matches_coefficient_C(name, top):
    space = PathSpace(edge_graph(name))
    for n in range(2, top + 1):
        for l in range(1, n // 2 + 1):
            m = n - 2 * l
            if not len(essential_basis(space, m)):
                continue
            words = creation_words(space, n)[l]
            gram = word_gram(space, n, l)
            assert gram.shape == (len(words), len(words))
            assert np.allclose(gram, gram.T, atol=1e-12)
            assert np.linalg.eigvalsh(gram).min() > 1e-9, (name, n, l)
            for a, wa in enumerate(words):
                for b, wb in enumerate(words):
                    c = coefficient_C(space, wb, wa, m)
                    assert abs(gram[a, b] - c) < 1e-12, (name, n, l, wa, wb)


def test_word_gram_is_cached_and_read_only(tri):
    first = word_gram(tri, 6, 2)
    assert np.array_equal(word_gram(tri, 6, 2), first)
    with pytest.raises(ValueError):
        first[0, 0] = 0.0
    with pytest.raises(ValueError):
        word_gram(tri, 6, 2)[:] = 1.0
    assert np.array_equal(word_gram(tri, 6, 2), first)
