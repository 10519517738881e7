"""Projector, product, coproduct, counit, star, antipode, and axiom checks."""

import gc
import itertools
import math
import weakref

import numpy as np
import pytest

import frozen_cases
from pathhopf import (
    AlgebraElement,
    BasisError,
    CutoffError,
    GraphError,
    OperatorWord,
    PathHopfError,
    PathSpace,
    PathVector,
    antipode,
    coefficient_C,
    concat,
    coproduct,
    counit,
    coxeter_info,
    decompose,
    element_in_path_coordinates,
    essential_basis,
    identity,
    inner_product,
    load_fixture,
    multiply,
    multiply_tensor_square,
    project_component,
    projector_P,
    star,
    star_alg,
    verify_axioms,
)
from pathhopf.essential_decomp import EssentialBasis
from pathhopf.weak_hopf import (
    TensorSquare,
    _endpoint_weights,
    _junction_arrays,
    _junction_scalars,
    _key_pair_residuals,
    _q_integers,
    _star_matrix,
    _unary_residuals,
)
from helpers import (
    assert_element_coords,
    basis_product,
    direct_axiom_residuals,
    direct_pair_residuals,
    direct_unary_axioms,
    expand,
    graph_from_edges,
    meeting_key_pairs,
    pv,
    random_vector,
    reference_basis_product,
    reference_projector,
    stacked_star_double,
    sup_diff,
    sweedler_cancellation,
    unit,
    walk_junctions,
    walk_star_matrix,
    word_pair_basis_product,
)

ROOT2 = math.sqrt(2)


def embed(space, left, right):
    """Essential pair -> algebra element (exact for essential factors)."""
    return projector_P(space, left, right)


def gamma():
    return pv({(1, 2, 1): 1 / ROOT2, (1, 0, 1): -1 / ROOT2})


def random_element(space, max_length, rng, terms=4):
    pool = [
        (n, a, b)
        for n in range(max_length + 1)
        for a in range(len(essential_basis(space, n)))
        for b in range(len(essential_basis(space, n)))
    ]
    picks = rng.choice(len(pool), size=min(terms, len(pool)), replace=False)
    return AlgebraElement(
        space, {pool[int(p)]: float(rng.standard_normal()) for p in picks}
    )


# -- contraction coefficients ---------------------------------------------------


def test_coefficient_identity_pair(a3):
    c = coefficient_C(a3, (0,), (0,), 0)
    assert abs(c - a3.beta) < 1e-12


def test_coefficient_neighbor_pair(a3):
    c = coefficient_C(a3, (0,), (1,), 1)
    assert abs(c - 1.0) < 1e-12
    c = coefficient_C(a3, (1,), (0,), 1)
    assert abs(c - 1.0) < 1e-12


def test_coefficient_unequal_lengths_zero(a3):
    assert coefficient_C(a3, (0,), (), 1) == 0


def test_coefficient_depends_on_base_length(tri):
    # creation at index 1 cannot act on a vertex, so the pair contracts to 0
    # at base length 0 but to beta at base length 1
    assert abs(coefficient_C(tri, (1,), (1,), 0)) < 1e-12
    assert abs(coefficient_C(tri, (1,), (1,), 1) - tri.beta) < 1e-12


def test_coefficient_requires_nonempty_basis(a3):
    with pytest.raises(BasisError):
        coefficient_C(a3, (0,), (0,), 3)


def test_coefficient_word_pairs_match_hand_contraction(tri):
    # c_0 c_2 c_1† c_0† contracts to beta via c_2 c_1† = 1 and c_0 c_0† = beta
    c = coefficient_C(tri, (0, 2), (0, 1), 0)
    assert abs(c - tri.beta) < 1e-12
    # c_0 c_1 c_1† c_0† = beta^2
    c = coefficient_C(tri, (0, 1), (0, 1), 0)
    assert abs(c - tri.beta**2) < 1e-12


@pytest.mark.parametrize("space_name", ["a3", "tri", "d4"])
def test_basis_product_matches_reference_with_coefficient_C(space_name, request):
    # the product reads C off the word-Gram matrices; the reference
    # evaluates it by operator application
    space = request.getfixturevalue(space_name)
    keys = {}
    for n in range(5):
        dim = len(essential_basis(space, n))
        keys[n] = [(n, a, b) for a in range(dim) for b in range(dim)]
    memo = {}
    for n1 in range(5):
        for n2 in range(5 - n1):
            for k1 in keys[n1]:
                for k2 in keys[n2]:
                    got = basis_product(space, *k1, *k2)
                    want = reference_basis_product(space, *k1, *k2, memo)
                    for k in got.keys() | want.keys():
                        assert abs(got.get(k, 0.0) - want.get(k, 0.0)) < 1e-12, (k1, k2, k)


# -- junction product ----------------------------------------------------------------

JUNCTION_GRAPHS = {
    "A3": [(0, 1), (1, 2)],
    "D4": [(0, 1), (0, 2), (0, 3)],
    "D5": [(0, 1), (1, 2), (2, 3), (2, 4)],
    "E6": [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)],
    "A_aff_2": [(0, 1), (1, 2), (0, 2)],
    "D_aff_4": [(0, 1), (0, 2), (0, 3), (0, 4)],
    "E8": [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)],
}


def junction_space(name):
    return PathSpace(graph_from_edges(name, JUNCTION_GRAPHS[name]))


def basis_keys(space, n):
    dim = len(essential_basis(space, n))
    return [(n, a, b) for a in range(dim) for b in range(dim)]


@pytest.mark.parametrize(
    "name, top, tol",
    [("A3", 2, 1e-12), ("D4", 4, 1e-12), ("A_aff_2", 3, 1e-12), ("E6", 3, 1e-12), ("D5", 6, 1e-10)],
)
def test_junction_product_matches_word_pair_oracle(name, top, tol):
    # every key pair on the small graphs; on E6 and D5 the key pairs whose
    # endpoints meet in both slots, as every other concatenation is zero
    space = junction_space(name)
    every = name in ("A3", "D4", "A_aff_2")
    memo = {}
    compared = 0
    for n1 in range(top + 1):
        ranges = essential_basis(space, n1).endpoints
        for n2 in range(top + 1):
            sources = essential_basis(space, n2).endpoints
            for k1 in basis_keys(space, n1):
                for k2 in basis_keys(space, n2):
                    if not every and any(ranges[k1[i]][1] != sources[k2[i]][0] for i in (1, 2)):
                        continue
                    got = basis_product(space, *k1, *k2)
                    want = word_pair_basis_product(space, *k1, *k2, memo)
                    compared += bool(want)
                    for k in got.keys() | want.keys():
                        assert abs(got.get(k, 0.0) - want.get(k, 0.0)) < tol, (k1, k2, k)
    assert compared > 100


@pytest.mark.parametrize("name", ["A3", "D4", "A_aff_2", "E6", "D5", "E8"])
def test_junction_arrays_and_star_matrices_match_the_walk_oracles(name):
    # the recursions in Bratteli coordinates against the walk dicts: every
    # key pair of lengths n1 <= 6 and n2 <= 4, capped at the top length,
    # every level, and the star matrices up to length 6; where lambda_l is
    # singular the array is 0 and the walks' coordinates nearly so
    space = junction_space(name)
    top = min(space.top_length, space.cutoff)
    for n1 in range(min(6, top) + 1):
        assert np.abs(_star_matrix(space, n1) - walk_star_matrix(space, n1)).max(initial=0.0) < 1e-13, n1
        for n2 in range(min(4, top) + 1):
            arrays, scalars = _junction_arrays(space, n1, n2), _junction_scalars(space.beta, n1, n2)
            want = [np.zeros_like(J) for J in arrays]
            for a, c in np.ndindex(arrays[0].shape[:2]):
                for W, coords in zip(want, walk_junctions(space, n1, a, n2, c)):
                    for e, z in coords.items():
                        W[a, c, e] = z
            for l, (J, W) in enumerate(zip(arrays, want)):
                if scalars[l]:
                    assert np.abs(J - W).max(initial=0.0) < 1e-13, (n1, n2, l)
                else:
                    assert not J.any() and np.abs(W).max(initial=0.0) < 1e-9, (n1, n2, l)


@pytest.mark.parametrize(
    "name, expected", [("A3", (2, 2, 1)), ("D4", (3, 3, 1)), ("D5", (5, 5, 2))]
)
def test_junctions_vanish_where_the_scalar_is_singular(name, expected):
    # J_l computed by operator application: l annihilations at the junction,
    # then the coordinates against the E_m basis
    space = junction_space(name)
    top = coxeter_info(space.spectrum).max_essential_length
    singular = [
        (n1, n2, l)
        for n1 in range(top + 1)
        for n2 in range(top + 1)
        for l, scalar in enumerate(_junction_scalars(space.beta, n1, n2))
        if scalar == 0
    ]
    assert expected in singular
    for n1, n2, l in singular:
        target = essential_basis(space, n1 + n2 - 2 * l)
        for xi in essential_basis(space, n1).vectors:
            for omega in essential_basis(space, n2).vectors:
                y = concat(xi, omega)
                for k in range(1, l + 1):
                    y = space.annihilate(n1 - k, y)
                coords = expand(target, y)
                assert max(map(abs, coords.values()), default=0.0) < 1e-9, (n1, n2, l)


def test_nonzero_junction_at_a_singular_scalar_raises(a3, monkeypatch):
    from pathhopf import weak_hopf

    def singular_at_zero(beta, n1, n2):
        return (0.0,) + _junction_scalars(beta, n1, n2)[1:]

    monkeypatch.setattr(weak_hopf, "_junction_scalars", singular_at_zero)
    space = PathSpace(a3.graph, a3.spectrum)
    ends = essential_basis(space, 1).endpoints
    a, c = ends.index((0, 1)), ends.index((1, 2))
    with pytest.raises(BasisError):
        basis_product(space, 1, a, a, 1, c, c)  # (0-1-2) spans a block of E_2


@pytest.mark.parametrize("name", ["D4", "A_aff_2", "E6"])
def test_junction_arrays_reverse_under_the_star(name):
    # an oracle for the arrays apart from their recursions: star(xi_a xi_c)
    # = star(xi_c) star(xi_a), and the l contractions at the junction are
    # the l contractions at the reversed junction, so wherever lambda_l != 0
    # S_m J_l^(n1,n2)(a, c) = sum S_n2[c', c] S_n1[a', a] J_l^(n2,n1)(c', a')
    space = junction_space(name)
    checked = 0
    for n1, n2 in itertools.product(range(7), repeat=2):
        if n1 + n2 > 6:
            continue
        forward, backward = _junction_arrays(space, n1, n2), _junction_arrays(space, n2, n1)
        S1, S2 = _star_matrix(space, n1), _star_matrix(space, n2)
        for l, scalar in enumerate(_junction_scalars(space.beta, n1, n2)):
            m = n1 + n2 - 2 * l
            if scalar and m <= space.top_length:
                reversed_ = np.einsum("xc,ya,xye->ace", S2, S1, backward[l])
                assert np.abs(forward[l] @ _star_matrix(space, m).T - reversed_).max(initial=0.0) < 1e-13, (n1, n2, l)
                checked += np.count_nonzero(forward[l])
    assert checked > 200


@pytest.mark.parametrize("space_name", ["a3", "d4", "tri"])
def test_counit_gram_matrix_vanishes_off_the_endpoint_classes(space_name, request):
    # G[k, k'] = eps(k k'*) for keys k = (n, a, b) and k' = (n', a', b') is 0
    # unless s(a) = s(b), s(a') = s(b'), r(a) = r(a') and r(b) = r(b'), so G
    # is block diagonal with at most nv^2 blocks
    space = request.getfixturevalue(space_name)
    ends = [essential_basis(space, n).endpoints for n in range(3)]
    keys = [(n, a, b) for n in range(3) for a in range(len(ends[n])) for b in range(len(ends[n]))]
    stars = [star_alg(AlgebraElement.basis_element(space, *k)) for k in keys]
    inside = 0
    for n, a, b in keys:
        x, (sa, ra), (sb, rb) = AlgebraElement.basis_element(space, n, a, b), ends[n][a], ends[n][b]
        for (m, c, d), y in zip(keys, stars):
            (sc, rc), (sd, rd) = ends[m][c], ends[m][d]
            if sa == sb and sc == sd and ra == rc and rb == rd:
                inside += 1
            else:
                assert counit(multiply(x, y)) == 0, ((n, a, b), (m, c, d))
    assert 0 < inside < len(keys) ** 2


@pytest.mark.parametrize("name, max_length", [("E6", 2), ("D5", 3), ("D_aff_4", 3)])
def test_counit_gram_matrix_vanishes_off_the_same_source_keys(name, max_length):
    # the verifier builds G[k, k'] = eps(k k'*) only on the keys (n, a, b)
    # with s(a) = s(b): read off its eps arrays over the meeting rows, spread
    # to [a, b, c, d] and contracted with the star matrix of the second
    # factor, every entry with s(a) != s(b) or s(c') != s(d') is exactly 0
    space = junction_space(name)
    sources = [[s for s, _ in essential_basis(space, n).endpoints] for n in range(max_length + 1)]
    same_source = [np.equal.outer(s, s) for s in sources]
    weights, inside, outside = _endpoint_weights(space), 0, 0
    for n1, n2 in itertools.product(range(max_length + 1), repeat=2):
        (a, c), _, rows_eps = _key_pair_residuals(space, n1, n2, weights)
        eps = np.zeros((len(sources[n1]),) * 2 + (len(sources[n2]),) * 2)
        eps[a[:, None], a, c[:, None], c] = rows_eps
        S = _star_matrix(space, n2)
        G = np.einsum("abcd,ce,df->abef", eps, S, S)
        same = same_source[n1][:, :, None, None] & same_source[n2]
        assert not G[~same].any(), (n1, n2)
        inside, outside = inside + np.count_nonzero(G), outside + np.count_nonzero(~same)
    assert inside > 0 and outside > inside


def test_counit_positivity_checks_every_key_past_the_top_length(a3):
    # E_3 and E_4 are empty on A3 (top length 2): they add no key and an
    # empty block of the Gram matrix, and no random element is checked
    report = verify_axioms(a3, 4, samples=5, seed=0)
    (result,) = [r for r in report.results if r.name == "counit positivity"]
    assert report.all_passed and result.checked == 34


@pytest.mark.parametrize("name", ["A3", "D4", "D5", "E6", "A_aff_2", "D_aff_4"])
def test_block_units_multiply_by_the_fusion_rules(name):
    # u_n = sum_a (n, a, a) multiply as the fusion rules of A_(h-1):
    # u_1 u_n = u_n u_1 = u_(n-1) + u_(n+1), with u_(-1) = 0 and u_n = 0 past
    # the top length; on an affine graph with no truncation
    space = junction_space(name)

    def u(n):
        if not 0 <= n <= space.top_length:
            return AlgebraElement(space, {})
        return AlgebraElement(space, {(n, a, a): 1.0 for a in range(len(essential_basis(space, n)))})

    for n in range(min(space.top_length, 6) + 1):
        want = u(n - 1) + u(n + 1)
        assert (multiply(u(1), u(n)) - want).sup_norm() < 1e-12, n
        assert (multiply(u(n), u(1)) - want).sup_norm() < 1e-12, n


def test_the_algebra_expands_no_basis_into_walk_dicts(tri, d4, monkeypatch):
    # products, stars, antipodes and the verifier read the bases' Bratteli
    # coordinates and the junction arrays, never `EssentialBasis.vectors`,
    # and the build signs the rows of `append`, so no walk is formed at all
    expected = {
        space.graph.name: [(r.name, r.residual, r.checked) for r in verify_axioms(space, 3).results]
        for space in (tri, d4)
    }

    def no_vectors(self):
        raise AssertionError("expanded a basis into walk dicts")

    def no_walks(self, s, t):
        raise AssertionError("formed the walks of a block")

    monkeypatch.setattr(EssentialBasis, "vectors", property(no_vectors))
    monkeypatch.setattr(EssentialBasis, "block", no_walks)
    for fixture in (tri, d4):
        space = PathSpace(fixture.graph, fixture.spectrum)
        report = verify_axioms(space, 3)
        assert report.all_passed
        for r, (name, residual, checked) in zip(report.results, expected[space.graph.name]):
            assert r.name == name and r.checked == checked, name
            assert r.residual == pytest.approx(residual, abs=1e-12), name
        x = AlgebraElement(space, {(2, 0, 1): 1.0, (3, 2, 2): -0.5j})
        assert counit(multiply(x, star_alg(x))).real > 0.1
        assert (star_alg(star_alg(x)) - x).sup_norm() < 1e-12
        assert (star_alg(antipode(star_alg(antipode(x)))) - x).sup_norm() < 1e-12


def test_junction_scalars_at_beta_two():
    for n1 in range(7):
        for n2 in range(7):
            scalars = _junction_scalars(2.0, n1, n2)
            assert len(scalars) == min(n1, n2) + 1
            for l, scalar in enumerate(scalars):
                want = math.comb(n1, l) * math.comb(n2, l) / math.comb(n1 + n2 - l + 1, l)
                assert abs(scalar - want) < 1e-12, (n1, n2, l)


@pytest.mark.parametrize("name", ["A3", "D4", "D5", "E6"])
def test_q_integer_vanishes_at_the_coxeter_number(name):
    space = junction_space(name)
    h = coxeter_info(space.spectrum).coxeter_number
    q = _q_integers(space.beta, h)
    assert q[:2] == [0.0, 1.0]
    assert abs(q[h]) < 1e-12
    assert min(q[1:h]) > 1 - 1e-9  # [k] = sin(k pi / h) / sin(pi / h) for 0 < k < h


def test_product_path_needs_no_word_tables(a3, monkeypatch):
    from pathhopf import essential_decomp, weak_hopf

    def forbidden(*args, **kwargs):
        raise AssertionError("the product reads no creation-word table")

    for owner, name in (
        (weak_hopf, "projector_P"),
        (essential_decomp, "level_images"),
        (essential_decomp, "word_gram"),
        (essential_decomp, "_gram_inverse"),
    ):
        monkeypatch.setattr(owner, name, forbidden)
    space = PathSpace(a3.graph, a3.spectrum)
    assert verify_axioms(space, 2, samples=10).all_passed


@pytest.mark.parametrize("space_name", ["a3", "tri"])
def test_endpoint_join_drops_only_zero_products(space_name, request):
    # the joined products equal the sums over every term pair
    space = request.getfixturevalue(space_name)
    rng = np.random.default_rng(11)
    for _ in range(20):
        x, y = (random_element(space, 2, rng, terms=6) for _ in range(2))
        full = {}
        for kx, zx in x.coeffs.items():
            for ky, zy in y.coeffs.items():
                for k, z in basis_product(space, *kx, *ky).items():
                    full[k] = full.get(k, 0.0) + zx * zy * z
        assert (multiply(x, y) - AlgebraElement(space, full)).sup_norm() < 1e-14
        u, v = coproduct(x), coproduct(y)
        full = {}
        for (p, q), zu in u.coeffs.items():
            for (r, s), zv in v.coeffs.items():
                for k1, z1 in basis_product(space, *p, *r).items():
                    for k2, z2 in basis_product(space, *q, *s).items():
                        full[k1, k2] = full.get((k1, k2), 0.0) + zu * zv * z1 * z2
        assert (multiply_tensor_square(u, v) - TensorSquare(space, full)).sup_norm() < 1e-14


# -- projector --------------------------------------------------------------------


def test_projection_chain_example(a3):
    element = projector_P(a3, unit((0, 1, 2, 1, 0)), unit((2, 1, 0, 1, 2)))
    assert_element_coords(element, frozen_cases.CHAIN_PROJECTION_EXPECTED)


def test_projection_triangle_example(tri):
    element = projector_P(tri, unit((0, 1, 2, 1, 0)), unit((2, 1, 0, 1, 2)))
    assert_element_coords(element, frozen_cases.TRIANGLE_PROJECTION_EXPECTED)


@pytest.mark.parametrize(
    "name, top", [("A3", 2), ("D5", 6), ("E6", 10), ("A_aff_2", 6), ("D_aff_4", 6)]
)
def test_projection_fixes_essential_pairs(name, top):
    # up to 12 sampled basis pairs per length, every pair where there are fewer
    space = junction_space(name)
    rng = np.random.default_rng(7)
    for n in range(top + 1):
        basis = essential_basis(space, n)
        d = len(basis)
        for k in rng.choice(d * d, size=min(12, d * d), replace=False).tolist():
            a, b = divmod(k, d)
            element = projector_P(space, basis.vectors[a], basis.vectors[b])
            want = AlgebraElement.basis_element(space, n, a, b)
            assert (element - want).sup_norm() < 1e-12, (n, a, b)


def test_projection_requires_equal_lengths(a3):
    with pytest.raises(ValueError):
        projector_P(a3, unit((0, 1)), unit((0, 1, 0)))


def test_projection_refuses_lengths_past_the_cutoff(a3):
    long_walk = unit(tuple(i % 2 for i in range(a3.cutoff + 2)))
    with pytest.raises(CutoffError):
        projector_P(a3, long_walk, long_walk)


@pytest.mark.parametrize("left, right", [((0, 2), (0, 1)), ((0, 1), (0, 2))])
def test_projection_refuses_non_walks(a3, left, right):
    with pytest.raises(GraphError):
        projector_P(a3, unit(left), unit(right))


def block_vector(space, path, rng, with_imag=False):
    """Random coefficients on the walks of the same length and endpoints as `path`."""
    walks = [p for p in space.enumerate_paths(len(path) - 1, source=path[0]) if p[-1] == path[-1]]
    coeffs = rng.standard_normal(len(walks))
    if with_imag:
        coeffs = coeffs + 1j * rng.standard_normal(len(walks))
    return PathVector(len(path) - 1, dict(zip(walks, coeffs.tolist())))


@pytest.mark.parametrize("name, top", [("A3", 4), ("A_aff_2", 6), ("D4", 5), ("E6", 5)])
def test_projection_matches_reference_projector(name, top):
    # the reference decomposes both factors and pairs the words through
    # coefficient_C; A_aff_2 is the graph of the `tri` fixture
    space = junction_space(name)
    rng = np.random.default_rng(13)
    for n in range(top + 1):
        walks = space.enumerate_paths(n)
        p, q, r, t = (walks[i] for i in rng.integers(len(walks), size=4).tolist())
        pairs = [
            (unit(p), unit(q)),
            (unit(r), unit(t)),
            (random_vector(space, n, rng), random_vector(space, n, rng)),
            tuple(random_vector(space, n, rng, with_imag=True) for _ in range(2)),
            (block_vector(space, p, rng), block_vector(space, q, rng, with_imag=True)),
        ]
        for x, y in pairs:
            got = projector_P(space, x, y).coeffs
            want = reference_projector(space, x, y)
            for k in got.keys() | want.keys():
                assert abs(got.get(k, 0.0) - want.get(k, 0.0)) < 1e-10, (n, k)


def project_element(space, element):
    """Re-apply the projector to each (essential) entry of its own output."""
    out = AlgebraElement(space, {})
    for (n, a, b), z in element.coeffs.items():
        basis = essential_basis(space, n)
        out = out + z * projector_P(space, basis.vectors[a], basis.vectors[b])
    return out


@pytest.mark.parametrize("space_name", ["a3", "tri"])
def test_projection_idempotent(space_name, request):
    space = request.getfixturevalue(space_name)
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        element = projector_P(
            space, random_vector(space, n, rng), random_vector(space, n, rng)
        )
        assert (project_element(space, element) - element).sup_norm() < 1e-9


def test_projection_not_self_adjoint(a3):
    # pairing on graded path endomorphisms: <a (x) b, c (x) d> = (a,c)(b,d).
    # P maps (101) (x) (101) partly down to length 0, which the pair
    # (1) (x) (1) detects on one side only.
    def pairing(coords1, coords2):
        return sum(
            coords1[k].conjugate() * coords2[k] for k in coords1.keys() & coords2.keys()
        )

    x_coords = {((1, 0, 1), (1, 0, 1)): 1.0}
    y_coords = {((1,), (1,)): 1.0}
    px = element_in_path_coordinates(
        projector_P(a3, unit((1, 0, 1)), unit((1, 0, 1)))
    )
    py = element_in_path_coordinates(projector_P(a3, unit((1,)), unit((1,))))
    lhs = pairing(px, y_coords)
    rhs = pairing(x_coords, py)
    assert abs(lhs - 0.5) < 1e-12
    assert abs(rhs) < 1e-12
    assert abs(lhs - rhs) > 0.1


@pytest.mark.parametrize("space_name", ["a3", "tri"])
def test_projection_star_compatible(space_name, request):
    space = request.getfixturevalue(space_name)
    rng = np.random.default_rng(9)
    for _ in range(5):
        n = int(rng.integers(1, 5))
        x = random_vector(space, n, rng, with_imag=True)
        y = random_vector(space, n, rng, with_imag=True)
        lhs = projector_P(space, star(x), star(y))
        rhs = star_alg(projector_P(space, x, y))
        assert (lhs - rhs).sup_norm() < 1e-9


@pytest.mark.parametrize("space_name", ["a3", "tri"])
def test_projection_absorption(space_name, request):
    # P((xi (x) xi') * P(eta (x) eta')) = P((xi (x) xi') * (eta (x) eta')),
    # and mirrored; this is what drives associativity
    space = request.getfixturevalue(space_name)
    rng = np.random.default_rng(13)
    basis1 = essential_basis(space, 1)
    for _ in range(4):
        xi = basis1.vectors[int(rng.integers(len(basis1)))]
        xi2 = basis1.vectors[int(rng.integers(len(basis1)))]
        n = int(rng.integers(1, 4))
        eta = random_vector(space, n, rng)
        eta2 = random_vector(space, n, rng)
        embedded = embed(space, xi, xi2)
        lhs = multiply(embedded, projector_P(space, eta, eta2))
        rhs = projector_P(space, concat(xi, eta), concat(xi2, eta2))
        assert (lhs - rhs).sup_norm() < 1e-9
        lhs_m = multiply(projector_P(space, eta, eta2), embedded)
        rhs_m = projector_P(space, concat(eta, xi), concat(eta2, xi2))
        assert (lhs_m - rhs_m).sup_norm() < 1e-9


# -- product -----------------------------------------------------------------------


@pytest.mark.parametrize("label", sorted(frozen_cases.CHAIN_PRODUCTS))
def test_products_chain(a3, label):
    left_build, right_build, expected = frozen_cases.CHAIN_PRODUCTS[label]
    x = embed(a3, *left_build())
    y = embed(a3, *right_build())
    assert_element_coords(multiply(x, y), expected)


@pytest.mark.parametrize("label", sorted(frozen_cases.TRIANGLE_PRODUCTS))
def test_products_triangle(tri, label):
    left_build, right_build, expected = frozen_cases.TRIANGLE_PRODUCTS[label]
    x = embed(tri, *left_build())
    y = embed(tri, *right_build())
    assert_element_coords(multiply(x, y), expected)


def test_identity_has_nine_terms(a3, tri):
    assert len(identity(a3).coeffs) == 9
    assert len(identity(tri).coeffs) == 9


def test_identity_is_unit_on_all_basis_elements(a3):
    one = identity(a3)
    for n in range(3):
        dim = len(essential_basis(a3, n))
        for a in range(dim):
            for b in range(dim):
                x = AlgebraElement.basis_element(a3, n, a, b)
                assert (multiply(one, x) - x).sup_norm() < 1e-10
                assert (multiply(x, one) - x).sup_norm() < 1e-10


def test_multiply_respects_cutoff(tri):
    tight = PathSpace(tri.graph, tri.spectrum, cutoff=3)
    x = AlgebraElement.basis_element(tight, 2, 0, 0)
    with pytest.raises(CutoffError):
        multiply(x, x)


def test_multiply_respects_cutoff_with_unmatched_endpoints(tri):
    # xi_a ends at vertex 2 and xi_c starts at vertex 1, so no endpoints
    # meet, yet the lengths 2 + 2 exceed the cutoff 3
    tight = PathSpace(tri.graph, tri.spectrum, cutoff=3)
    ends = essential_basis(tri, 2).endpoints
    a = next(i for i, e in enumerate(ends) if e == (0, 2))
    c = next(i for i, e in enumerate(ends) if e[0] == 1)
    x = AlgebraElement.basis_element(tight, 2, a, a)
    y = AlgebraElement.basis_element(tight, 2, c, c)
    assert multiply(AlgebraElement(tri, x.coeffs), AlgebraElement(tri, y.coeffs)).is_zero()
    with pytest.raises(CutoffError):
        multiply(x, y)
    with pytest.raises(CutoffError):
        multiply_tensor_square(coproduct(x), coproduct(y))
    # the same in the second slot alone, behind vertices that do not meet
    u = TensorSquare(tight, {((0, 0, 0), (2, a, a)): 1.0})
    v = TensorSquare(tight, {((0, 1, 1), (2, c, c)): 1.0})
    with pytest.raises(CutoffError):
        multiply_tensor_square(u, v)


def test_e6_products_past_the_cutoff_match_a_longer_cutoff():
    # 7 + 7 = 14 exceeds the default cutoff 12, but on E6 (h = 12) no term
    # is longer than 10; length-7 key pairs whose endpoints meet, every
    # seventh of them in the second slot
    space = junction_space("E6")
    longer = PathSpace(space.graph, space.spectrum, cutoff=20)
    ends = essential_basis(space, 7).endpoints
    meeting = [(a, c) for a in range(len(ends)) for c in range(len(ends)) if ends[a][1] == ends[c][0]]
    compared = 0
    for (a, c), (b, d) in itertools.product(meeting, meeting[::7]):
        x, y = AlgebraElement.basis_element(space, 7, a, b), AlgebraElement.basis_element(space, 7, c, d)
        got = multiply(x, y).coeffs
        want = basis_product(longer, 7, a, b, 7, c, d)
        compared += bool(want)
        assert all(k[0] <= 10 for k in want)
        for k in got.keys() | want.keys():
            assert abs(got.get(k, 0.0) - want.get(k, 0.0)) < 1e-12, (a, b, c, d, k)
    assert compared > 100


def test_junctions_build_no_length_past_the_top(monkeypatch):
    from pathhopf import weak_hopf

    space = junction_space("E6")
    built = []

    def recording(space, n):
        built.append(n)
        return essential_basis(space, n)

    monkeypatch.setattr(weak_hopf, "essential_basis", recording)
    ends = essential_basis(space, 6).endpoints
    a = c = next(i for i, (s, r) in enumerate(ends) if s == r)
    assert basis_product(space, 6, a, a, 6, c, c)
    assert built and max(built) <= 10


def test_affine_products_past_the_cutoff_raise(tri):
    # beta = 2: essential paths of every length, so 7 + 7 is built
    x = AlgebraElement.basis_element(tri, 7, 0, 0)
    with pytest.raises(CutoffError):
        multiply(x, x)
    with pytest.raises(CutoffError):
        basis_product(tri, 7, 0, 0, 7, 0, 0)


def test_space_is_freed_without_the_cycle_collector(a3):
    # the memo tables hold plain values (the junction arrays, their nonzero
    # entries, the bases' cached matrices and the decomposition's tables),
    # so dropping the last reference frees a space even while the cycle
    # collector is off
    space = PathSpace(a3.graph, a3.spectrum)
    x = AlgebraElement.basis_element(space, 1, 0, 0)
    one = identity(space)
    assert not multiply(one, x).is_zero() and not star_alg(x).is_zero()
    assert space.cache["junctions"] and space.cache["junction_rows"] and space.cache["star_columns"]
    walk = PathVector.unit((0, 1, 2, 1, 2))
    assert decompose(space, walk).terms and not projector_P(space, walk, walk).is_zero()
    assert space.cache["level_maps"] and space.cache["word_gram_inverse"]
    ref = weakref.ref(space)
    gc.disable()
    try:
        del x, one, space
        assert ref() is None
    finally:
        gc.enable()


def test_repeated_algebra_calls_reuse_every_table():
    # a second identical verify_axioms, multiply, antipode and star_alg adds
    # no key to any table in space.cache and reads back the same objects
    space = junction_space("D_aff_4")
    keys = [k for n in range(3) for k in basis_keys(space, n)][::5]
    x = AlgebraElement(space, {k: 1.0 + 0.25j * i for i, k in enumerate(keys)})
    y = AlgebraElement(space, {k: 0.5 - 1j * i for i, k in enumerate(keys[::-3])})

    def once():
        assert verify_axioms(space, 2, samples=10, seed=0).all_passed
        assert not multiply(x, y).is_zero() and not antipode(x).is_zero() and not star_alg(y).is_zero()
        assert coefficient_C(space, [0], [0], 1) != 0

    once()
    tables = {"essential_basis", "junctions", "junction_rows", "star_columns", "star_nonzero", "coefficient_C"}
    assert tables <= set(space.cache) and all(space.cache[name] for name in tables)
    first = {name: dict(table) for name, table in space.cache.items()}
    once()
    assert set(space.cache) == set(first)
    for name, table in space.cache.items():
        assert table.keys() == first[name].keys(), name
        assert all(table[key] is value for key, value in first[name].items()), name


def test_chain_algebra_dimension(a3):
    # lengths 0..2 give 3, 4, 3 essentials: 9 + 16 + 9 = 34 matrix units
    total = sum(len(essential_basis(a3, n)) ** 2 for n in range(3))
    assert total == 34


# -- star --------------------------------------------------------------------------


def test_star_alg_on_elementary_pair(a3):
    element = embed(a3, unit((0, 1)), unit((1, 2)))
    assert_element_coords(star_alg(element), {((1, 0), (2, 1)): 1.0})


def test_star_alg_involution_and_antihomomorphism(tri):
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = random_element(tri, 2, rng)
        y = random_element(tri, 2, rng)
        assert (star_alg(star_alg(x)) - x).sup_norm() < 1e-10
        lhs = star_alg(multiply(x, y))
        rhs = multiply(star_alg(y), star_alg(x))
        assert (lhs - rhs).sup_norm() < 1e-9


def test_star_alg_conjugates(a3):
    x = AlgebraElement(a3, {(0, 0, 1): 1 + 2j})
    assert star_alg(x).coeffs[(0, 0, 1)] == 1 - 2j


# -- coproduct and counit -------------------------------------------------------------


def test_coproduct_vertex_pair(a3):
    # (v) (x) (v') splits through all three length-0 basis vectors
    x = embed(a3, unit((0,)), unit((1,)))
    ((n, a, b),) = list(x.coeffs)
    d = coproduct(x)
    assert len(d.coeffs) == 3
    for ((n1, a1, c1), (n2, c2, b2)), z in d.coeffs.items():
        assert (n1, a1) == (0, a) and (n2, b2) == (0, b) and c1 == c2
        assert abs(z - 1.0) < 1e-12


def test_counit_examples(a3):
    assert abs(counit(embed(a3, unit((1,)), unit((1,)))) - 1) < 1e-12
    assert abs(counit(embed(a3, gamma(), unit((0, 1, 2))))) < 1e-12


def test_counit_of_projection_equals_path_pairing(tri):
    # eps(P(eta (x) eta')) = (eta, eta') even for non-essential factors.
    # eps and P are complex-linear, so the composite is the bilinear
    # extension of the pairing of elementary paths; it matches the Hermitian
    # inner product exactly on real coefficients.
    rng = np.random.default_rng(21)
    for _ in range(5):
        n = int(rng.integers(1, 5))
        x = random_vector(tri, n, rng, with_imag=True)
        y = random_vector(tri, n, rng, with_imag=True)
        bilinear = sum(c * y.coeffs.get(p, 0.0) for p, c in x.coeffs.items())
        assert abs(counit(projector_P(tri, x, y)) - bilinear) < 1e-9
    for _ in range(3):
        n = int(rng.integers(1, 5))
        x = random_vector(tri, n, rng)
        y = random_vector(tri, n, rng)
        assert abs(counit(projector_P(tri, x, y)) - inner_product(x, y)) < 1e-9


def test_coproduct_counit_inverse_all_basis(a3):
    # (eps (x) id) Delta = id = (id (x) eps) Delta, entry by entry
    for n in range(3):
        dim = len(essential_basis(a3, n))
        for a in range(dim):
            for b in range(dim):
                x = AlgebraElement.basis_element(a3, n, a, b)
                d = coproduct(x)
                left = AlgebraElement(a3, {})
                right = AlgebraElement(a3, {})
                for (p, q), z in d.coeffs.items():
                    if p[1] == p[2]:
                        left = left + z * AlgebraElement.basis_element(a3, *q)
                    if q[1] == q[2]:
                        right = right + z * AlgebraElement.basis_element(a3, *p)
                assert (left - x).sup_norm() < 1e-12
                assert (right - x).sup_norm() < 1e-12


def test_tensor_square_unit_and_zero(tri):
    one = identity(tri)
    unit_sq = TensorSquare(
        tri,
        {
            (p, q): zp * zq
            for p, zp in one.coeffs.items()
            for q, zq in one.coeffs.items()
        },
    )
    x = coproduct(random_element(tri, 2, np.random.default_rng(2)))
    assert (multiply_tensor_square(unit_sq, x) - x).sup_norm() < 1e-10
    assert (multiply_tensor_square(x, unit_sq) - x).sup_norm() < 1e-10
    zero = TensorSquare(tri, {})
    assert multiply_tensor_square(zero, x).is_zero()


def test_coproduct_multiplicative(a3):
    rng = np.random.default_rng(17)
    for _ in range(5):
        x = random_element(a3, 2, rng)
        y = random_element(a3, 2, rng)
        lhs = coproduct(multiply(x, y))
        rhs = multiply_tensor_square(coproduct(x), coproduct(y))
        assert (lhs - rhs).sup_norm() < 1e-9


def test_coproduct_of_projection_factorizes(a3, tri):
    # Delta P(chi (x) chi') equals the elementary-basis resolution
    # sum_eta P(chi (x) eta) boxtimes P(eta (x) chi')
    rng = np.random.default_rng(29)
    for space in (a3, tri):
        for _ in range(3):
            n = int(rng.integers(1, 4))
            x = random_vector(space, n, rng)
            y = random_vector(space, n, rng)
            lhs = coproduct(projector_P(space, x, y))
            rhs = TensorSquare(space, {})
            for p in space.enumerate_paths(n):
                eta = unit(p)
                left = projector_P(space, x, eta)
                right = projector_P(space, eta, y)
                if left.is_zero() or right.is_zero():
                    continue
                rhs = rhs + TensorSquare(
                    space,
                    {
                        (k1, k2): z1 * z2
                        for k1, z1 in left.coeffs.items()
                        for k2, z2 in right.coeffs.items()
                    },
                )
            assert (lhs - rhs).sup_norm() < 1e-9


# -- antipode ---------------------------------------------------------------------------


def test_antipode_edge_pair(a3):
    # endpoint factor sqrt(mu_1 mu_1 / (mu_2 mu_0)) = sqrt(2)
    element = embed(a3, unit((0, 1)), unit((1, 2)))
    assert_element_coords(antipode(element), {((2, 1), (1, 0)): ROOT2})


def test_antipode_swaps_vertex_pairs(a3):
    element = embed(a3, unit((0,)), unit((2,)))
    assert_element_coords(antipode(element), {((2,), (0,)): 1.0})


@pytest.mark.parametrize("name", ["E6", "A_aff_2", "D_aff_4"])
def test_default_endpoint_weights_equal_the_scalar_ratio_bitwise(name):
    # the default table is one numpy broadcast; each entry is the same
    # correctly rounded sqrt((mu[s'] mu[r]) / (mu[r'] mu[s])) as math.sqrt's
    space = junction_space(name)
    mu, nv = space.mu, space.graph.num_vertices
    quads = itertools.product(range(nv), repeat=4)
    want = np.array([math.sqrt((mu[s2] * mu[r]) / (mu[r2] * mu[s])) for s, r, s2, r2 in quads])
    got = _endpoint_weights(space)
    assert got.shape == (nv,) * 4 and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_antipode_star_square_identity(tri):
    rng = np.random.default_rng(31)
    for _ in range(5):
        x = random_element(tri, 2, rng)
        back = antipode(star_alg(antipode(star_alg(x))))
        assert (back - x).sup_norm() < 1e-9


# -- chain collapse and back-and-forth resolutions ---------------------------------------


@pytest.mark.parametrize("space_name", ["a3", "tri"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_full_creation_chain_resolves_round_trips(space_name, n, request):
    # c†_{n-1} ... c†_0 (v) = sum over paths from v of
    # sqrt(mu_range / mu_source) path * reversed(path)
    space = request.getfixturevalue(space_name)
    word = OperatorWord(tuple(range(n)))
    for v in range(space.graph.num_vertices):
        lhs = space.apply_word(word, unit((v,)))
        rhs = None
        for p in space.enumerate_paths(n, source=v):
            w = math.sqrt(space.mu[p[-1]] / space.mu[v])
            term = w * concat(unit(p), star(unit(p)))
            rhs = term if rhs is None else rhs + term
        assert sup_diff(lhs, rhs) < 1e-10


@pytest.mark.parametrize("space_name", ["a3", "tri"])
@pytest.mark.parametrize("n", [1, 2])
def test_projected_creation_chain_resolves_essential_round_trips(
    space_name, n, request
):
    # projecting both halves keeps only essential round trips
    space = request.getfixturevalue(space_name)
    word = OperatorWord(tuple(range(n)))
    basis = essential_basis(space, n)
    for v in range(space.graph.num_vertices):
        chain = space.apply_word(word, unit((v,)))
        lhs = None
        for p, c in chain.coeffs.items():
            head = project_component(space, unit(p[: n + 1]), 0)
            tail = project_component(space, unit(p[n:]), 0)
            term = c * concat(head, tail)
            lhs = term if lhs is None else lhs + term
        rhs = None
        for a, xi in enumerate(basis.vectors):
            if basis.endpoints[a][0] != v:
                continue
            s, r = basis.endpoints[a]
            w = math.sqrt(space.mu[r] / space.mu[s])
            term = w * concat(xi, star(xi))
            rhs = term if rhs is None else rhs + term
        if lhs is None:
            assert rhs is None
        else:
            assert sup_diff(lhs, rhs if rhs is not None else lhs * 0.0) < 1e-10


def test_annihilation_chain_collapses_reversed_concats(a3):
    # on xi* * rho only the descending index sequence survives, giving
    # delta_{xi rho} sqrt(mu_source / mu_range) at the range vertex
    for n in (1, 2):
        basis = essential_basis(a3, n)
        for a, xi in enumerate(basis.vectors):
            for b, rho in enumerate(basis.vectors):
                x = concat(star(xi), rho)
                ranges = [range(2 * n - 1 - 2 * t) for t in range(n)]
                for seq in itertools.product(*ranges):
                    y = x
                    for i in seq:
                        y = a3.annihilate(i, y)
                    if seq == tuple(range(n - 1, -1, -1)):
                        s, r = basis.endpoints[a]
                        scale = math.sqrt(a3.mu[s] / a3.mu[r])
                        expected = (
                            pv({(r,): scale}) if a == b else PathVector(0)
                        )
                        assert sup_diff(y, expected) < 1e-10, (n, a, b)
                    else:
                        assert y.norm() < 1e-10, (n, a, b, seq)


# -- axiom verification -------------------------------------------------------------------


def test_verify_axioms_chain_quick(a3):
    report = verify_axioms(a3, 1, samples=20, seed=11)
    assert report.all_passed
    assert {r.name for r in report.results} >= {
        "product associativity",
        "coassociativity",
        "antipode cancellation",
        "counit positivity",
    }


def test_verify_axioms_negative_control(a3):
    report = verify_axioms(a3, 2, samples=20, seed=11, weight_fn=lambda *a: 1.0)
    assert report.residual("antipode cancellation") > 0.1
    assert not report.all_passed


def test_verify_axioms_names_and_pinned_negative_control(a3):
    # the flattened antipode's residual on the worst basis key, (1, 1, 0),
    # from the oracle `direct_axiom_residuals`; a changed map moves it
    report = verify_axioms(a3, 2, samples=20, seed=0, weight_fn=lambda *a: 1.0)
    assert abs(report.residual("antipode cancellation") - 0.41421356237309515) < 1e-9
    assert [r.name for r in report.results] == [
        "product associativity",
        "unit element",
        "star involution",
        "star antihomomorphism",
        "coproduct multiplicative",
        "coproduct star-compatible",
        "coassociativity",
        "counit left inverse",
        "counit right inverse",
        "counit of product",
        "counit positivity",
        "antipode product rule",
        "antipode star double",
        "antipode coproduct rule",
        "antipode cancellation",
    ]


@pytest.mark.parametrize("space_name, samples", [("a3", 20), ("tri", 10)])
def test_cancellation_matches_direct_sweedler_sum(space_name, samples, request):
    # the axiom is linear, so the verifier checks it on every basis key up to
    # length 2 and on none of the seeded random elements
    space = request.getfixturevalue(space_name)
    flat = lambda *ends: 1.0
    report = verify_axioms(space, 2, samples=samples, seed=0, weight_fn=flat)
    keys = [
        (n, a, b)
        for n in range(3)
        for a in range(len(essential_basis(space, n)))
        for b in range(len(essential_basis(space, n)))
    ]
    direct = max(sweedler_cancellation(AlgebraElement.basis_element(space, *k), flat) for k in keys)
    assert abs(direct - report.residual("antipode cancellation")) < 1e-12


@pytest.mark.parametrize("space_name", ["d4", "tri"])
def test_cancellation_per_key_matches_the_sweedler_sum(space_name, request):
    # every key of length <= 3 under a bent antipode: the levels l < n, read
    # as products of sups, the m = 0 level less the unit's part, and, on d4,
    # levels past the top length 4
    space = request.getfixturevalue(space_name)
    for n in range(4):
        R = _unary_residuals(space, n, _endpoint_weights(space, BENT))["antipode cancellation"]
        d = len(essential_basis(space, n))
        assert R.shape == (d, d)
        for a, b in itertools.product(range(d), repeat=2):
            want = sweedler_cancellation(AlgebraElement.basis_element(space, n, a, b), BENT)
            assert R[a, b] == pytest.approx(want, rel=1e-12, abs=1e-12), (n, a, b)


def test_a_doubled_public_counit_fails_the_counit_laws(tri, monkeypatch):
    # the counit laws read the public counit of every key: doubled, it gives
    # E = 2 I, so each law is off by 1 on the diagonal
    from pathhopf import weak_hopf

    true_counit = weak_hopf.counit
    monkeypatch.setattr(weak_hopf, "counit", lambda x: 2 * true_counit(x))
    report = verify_axioms(tri, 2)
    assert report.residual("counit left inverse") == 1.0
    assert report.residual("counit right inverse") == 1.0
    assert not report.all_passed


def test_verify_axioms_memo_is_local_to_each_call():
    # plain, flattened, plain on one space: no key map image may leak from
    # one call's weight_fn into the next
    space = PathSpace(load_fixture("a3"))
    flat = lambda *ends: 1.0
    first = verify_axioms(space, 2, samples=20, seed=0)
    flattened = verify_axioms(space, 2, samples=20, seed=0, weight_fn=flat)
    last = verify_axioms(space, 2, samples=20, seed=0)
    assert abs(flattened.residual("antipode cancellation") - 0.41421356237309515) < 1e-9
    for report in (first, last):
        assert len(report.results) == 15
        assert report.all_passed


@pytest.mark.parametrize("space_name", ["a3", "tri"])
def test_structure_maps_are_linear_star_antilinear(space_name, request):
    space = request.getfixturevalue(space_name)
    rng = np.random.default_rng(5)
    x = random_element(space, 2, rng, terms=6) + 1j * random_element(space, 2, rng)
    y = random_element(space, 2, rng, terms=6) - 2j * random_element(space, 2, rng)
    c = 0.7 - 1.3j
    bent = lambda s_l, r_l, s_r, r_r: 1.0 + s_l + 2 * r_r
    for fn, scale in [
        (coproduct, c),
        (antipode, c),
        (lambda el: antipode(el, weight_fn=bent), c),
        (star_alg, c.conjugate()),
    ]:
        assert (fn(x + c * y) - (fn(x) + scale * fn(y))).sup_norm() < 1e-12
    assert abs(counit(x + c * y) - (counit(x) + c * counit(y))) < 1e-12


BENT = lambda s_l, r_l, s_r, r_r: 1.0 + s_l + 2 * r_r


@pytest.mark.parametrize("space_name", ["a3", "tri", "d4"])
def test_public_maps_match_their_structure_constant_forms(space_name, request):
    # the verifier checks the axioms on these forms, not on the public maps;
    # every key of length <= 2, with a complex coefficient z
    from pathhopf.weak_hopf import _star_matrix

    space = request.getfixturevalue(space_name)
    mu, z = space.mu, 0.6 - 0.8j
    pf = lambda s_l, r_l, s_r, r_r: math.sqrt(mu[s_r] * mu[r_l] / (mu[r_r] * mu[s_l]))
    for n in range(3):
        S, ends = _star_matrix(space, n), essential_basis(space, n).endpoints
        d = len(ends)
        for a, b in itertools.product(range(d), repeat=2):
            x = AlgebraElement(space, {(n, a, b): z})
            starred = {(n, a2, b2): S[a2, a] * S[b2, b] for a2, b2 in itertools.product(range(d), repeat=2)}
            want = AlgebraElement(space, {k: z.conjugate() * s for k, s in starred.items()})
            assert (star_alg(x) - want).sup_norm() < 1e-12, (n, a, b)
            for weight_fn, w in [(None, pf), (BENT, BENT)]:
                f = z * w(*ends[a], *ends[b])
                want = AlgebraElement(space, {(m, b2, a2): f * s for (m, a2, b2), s in starred.items()})
                assert (antipode(x, weight_fn=weight_fn) - want).sup_norm() < 1e-12, (n, a, b, weight_fn)
            want = TensorSquare(space, {((n, a, c), (n, c, b)): z for c in range(d)})
            assert (coproduct(x) - want).sup_norm() < 1e-12, (n, a, b)
            assert counit(x) == (z if a == b else 0), (n, a, b)


@pytest.mark.parametrize(
    "space_name, max_length, samples, weight_fn",
    [
        ("a3", 2, 20, None),
        ("a3", 2, 20, lambda *ends: 1.0),
        ("a3", 2, 20, BENT),
        ("tri", 2, 10, None),
        ("d4", 3, 10, None),
    ],
    ids=["a3", "a3-flat", "a3-bent", "tri", "d4"],
)
def test_verify_axioms_matches_direct_evaluation(space_name, max_length, samples, weight_fn, request):
    # the linear unary axioms are evaluated per basis key and combined by
    # linearity; the oracle evaluates every element of the pool directly
    space = request.getfixturevalue(space_name)
    report = verify_axioms(space, max_length, samples=samples, seed=0, weight_fn=weight_fn)
    direct = direct_axiom_residuals(space, max_length, samples, 0, weight_fn)
    assert len(report.results) == len(direct) == 15
    for r in report.results:
        residual, checked, witness = direct[r.name]
        assert abs(r.residual - residual) < 1e-12, r.name
        assert r.checked == checked, r.name
        if residual > 1e-6 and witness is not None:  # below, rounding decides which element is worst
            assert r.witness == witness, r.name
    failing = {r.name for r in report.results if r.residual > 1e-6}
    if weight_fn is BENT:
        assert failing >= {"antipode star double", "antipode coproduct rule", "antipode cancellation",
                           "antipode product rule"}


JUNCTION_AXIOMS = ("coproduct multiplicative", "counit of product", "counit positivity")
MILD_BENT = lambda s_l, r_l, s_r, r_r: 1 + 0.1 * (s_l + 2 * r_r)


@pytest.mark.parametrize(
    "space_name, mutation, max_length, samples, failing",
    [
        # the pinned residuals are the oracle's, `direct_axiom_residuals`
        ("tri", "lambda_1 x 1.01", 2, 10,
         {"coproduct multiplicative": 6.73e-3, "counit of product": 6.67e-3, "counit positivity": 5.0e-3}),
        ("tri", "lambda_1 negated", 2, 10,
         {"coproduct multiplicative": 1.333, "counit of product": 1.333, "counit positivity": 2.333}),
        ("tri", (5, 3, 8), 1, 20,
         {"coproduct multiplicative": 3.0, "counit of product": 1.5, "counit positivity": 0.5,
          "product associativity": 2.93e-2}),
        # seeded sampled pairs read 0.0 on these two; every meeting key pair does not
        ("d4", (0, 3, 0), 2, 10,
         {"star antihomomorphism": 1.0997, "antipode product rule": 1.0997, "coproduct multiplicative": 1.759,
          "counit of product": 1.0997, "counit positivity": 1.0997, "antipode cancellation": 0.6667}),
        ("d4", "bent weight", 3, 10,
         {"antipode product rule": 1.71, "antipode star double": 2.61, "antipode coproduct rule": 1.71,
          "antipode cancellation": 0.9}),
    ],
    ids=["lambda-scaled", "lambda-negated", "J0-entry", "d4-J0-entry", "d4-bent"],
)
def test_junction_axioms_follow_a_mutated_product(
    space_name, mutation, max_length, samples, failing, monkeypatch, request
):
    # the verifier reads the pair axioms off the junction arrays and closed
    # forms, the oracle off `multiply`, `multiply_tensor_square`, `star_alg`
    # and `antipode`; both see the mutation, through `_junction_scalars`, the
    # space's cached junction arrays or the antipode's weight.  Where
    # associativity fails, it is held to the oracle too, which draws the
    # triples one scalar at a time and multiplies elements, so the verifier
    # samples and evaluates the same triples
    from pathhopf import weak_hopf

    space = request.getfixturevalue(space_name)
    space, weight_fn = PathSpace(space.graph, space.spectrum), None
    true_scalars = weak_hopf._junction_scalars
    if isinstance(mutation, tuple):
        # J_0 of two meeting length-1 keys at one E_2 index, doubled in the
        # cache before anything reads it or builds a longer array from it;
        # the unit's junctions (lengths (0, n) and (n, 0)) are untouched
        J = _junction_arrays(space, 1, 1)[0]
        assert abs(J[mutation]) > 0.1
        J[mutation] *= 2
    elif mutation == "bent weight":
        weight_fn = MILD_BENT
    else:
        factor = 1.01 if mutation.endswith("1.01") else -1.0

        def scalars(beta, n1, n2):
            out = list(true_scalars(beta, n1, n2))
            if len(out) > 1 and out[1] is not None:
                out[1] *= factor
            return tuple(out)

        monkeypatch.setattr(weak_hopf, "_junction_scalars", scalars)
    report = {r.name: r for r in verify_axioms(space, max_length, samples, 0, weight_fn=weight_fn).results}
    direct = direct_axiom_residuals(space, max_length, samples, 0, weight_fn)
    for name in {*JUNCTION_AXIOMS, *failing}:
        r, (residual, checked, witness) = report[name], direct[name]
        assert abs(r.residual - residual) < 1e-12 and r.checked == checked, name
        if residual > 1e-6 and witness is not None:
            assert r.witness == witness, name
    for name, value in failing.items():
        assert report[name].residual > 1e-3, name
        assert report[name].residual == pytest.approx(value, rel=0.02), name
    assert report["unit element"].residual < 1e-12


@pytest.mark.parametrize("space_name, entry", [("d4", (3, 1, 2)), ("tri", (0, 3, 2))], ids=["d4", "tri"])
def test_counit_positivity_sees_a_doubled_junction_entry(space_name, entry, request):
    # J_0 of two meeting length-1 keys at one E_2 index, doubled in the
    # cache: eps(k k*) on every key and eps(x x*) on 20 random elements stay
    # at rounding, but the Gram matrix
    # G[k, k'] = eps(k k'*) is no longer symmetric (max |G - G^T| = 3) and
    # its symmetric part has the eigenvalue -1.5, so some x has eps(x x*)
    # not real and some real x has eps(x x*) < 0.  Held to the oracle's
    # full Gram matrix over every key
    space = request.getfixturevalue(space_name)
    space = PathSpace(space.graph, space.spectrum)
    J = _junction_arrays(space, 1, 1)[0]
    assert J[entry] == pytest.approx(1.0)
    J[entry] *= 2
    report = verify_axioms(space, 1, samples=20, seed=0)
    (result,) = [r for r in report.results if r.name == "counit positivity"]
    residual, checked, witness = direct_axiom_residuals(space, 1, 20, 0)["counit positivity"]
    assert result.residual == pytest.approx(3.0, rel=1e-12) and abs(result.residual - residual) < 1e-12
    assert result.checked == checked == len(basis_keys(space, 0) + basis_keys(space, 1))
    assert witness is not None and result.witness == witness
    assert not report.all_passed


@pytest.mark.parametrize(
    "space_name, max_length, count", [("a3", 2, 136), ("d4", 3, 1696), ("tri", 3, 8100), ("E6", 2, 4196)]
)
def test_pair_axioms_check_every_meeting_key_pair(space_name, max_length, count, request):
    space = junction_space("E6") if space_name == "E6" else request.getfixturevalue(space_name)
    report = verify_axioms(space, max_length, samples=5, seed=0)
    assert report.all_passed and all(r.checked > 0 for r in report.results)
    assert len(meeting_key_pairs(space, max_length)) == count
    for name in ("coproduct multiplicative", "counit of product", "star antihomomorphism", "antipode product rule"):
        (result,) = [r for r in report.results if r.name == name]
        assert result.checked == count, name


@pytest.mark.parametrize("level, e, factor", [(0, 8, 0.0), (1, 2, 2.0)], ids=["J0-zeroed", "J1-doubled"])
def test_coproduct_residual_matches_the_tensor_square_product_per_pair(tri, level, e, factor):
    # one junction entry of the length-1 keys 5 and 3 is changed, so the
    # levels l != l' of a product no longer join orthogonally (K_ll' != 0);
    # the four pair axioms' residuals on the meeting rows are compared with
    # the dict evaluation through the public maps on every meeting pair of
    # keys of length <= 1
    space = PathSpace(tri.graph, tri.spectrum)
    J = _junction_arrays(space, 1, 1)[level]  # the cached array, which every product reads
    assert abs(J[5, 3, e]) > 0.1
    J[5, 3, e] *= factor
    got = {}  # name -> key pair -> residual
    for n1, n2 in itertools.product(range(2), repeat=2):
        (a, c), residuals, _ = _key_pair_residuals(space, n1, n2, _endpoint_weights(space))
        for name, R in residuals.items():
            for (i, j), r in np.ndenumerate(R):
                got.setdefault(name, {})[(n1, a[i], a[j]), (n2, c[i], c[j])] = r
    pairs = meeting_key_pairs(space, 1)
    want = direct_pair_residuals(space, pairs)
    assert set(got) == set(want)
    for name, values in got.items():
        assert len(values) == len(pairs)
        assert [values[p] for p in pairs] == pytest.approx(want[name], abs=1e-12), name
    assert max(want["coproduct multiplicative"]) > 0.1 and max(want["counit of product"]) > 0.1
    # the star swaps the keys 5 and 3 and fixes the E_2 index, so the entry
    # is its own star image and both sides of the star rules change alike
    assert max(want["star antihomomorphism"]) == max(want["antipode product rule"]) == 0.0


def test_linear_residuals_on_a_complex_element(a3, monkeypatch):
    # a star matrix with a key-dependent complex term in one common row and a
    # bent antipode make the residuals nonzero, overlapping across keys and
    # complex.  Each axiom is linear or antilinear, so an element's residual
    # is at most sum |z_k| residual(k) over its keys k: the keys, which are
    # all the verifier checks, bound every element
    from pathhopf import weak_hopf

    true_star = weak_hopf._star_matrix

    def phased_star(space, n):
        S = true_star(space, n).astype(complex)
        S[0] += 0.5 * np.exp(1j * np.arange(len(S)))
        return S

    monkeypatch.setattr(weak_hopf, "_star_matrix", phased_star)
    space = PathSpace(a3.graph, a3.spectrum)
    x = AlgebraElement(space, {(1, 0, 1): 1.0, (1, 1, 2): 1j, (1, 2, 3): 0.3 - 0.8j, (2, 1, 1): -0.5j})
    y = AlgebraElement(space, {(1, 0, 1): 0.4 - 1.2j})  # one key: |z| residual(k)
    direct = direct_unary_axioms(space, BENT)
    tables = [_unary_residuals(space, n, _endpoint_weights(space, BENT)) for n in range(3)]
    assert set(tables[0]) == set(direct)
    for name, fn in direct.items():
        on_keys = {k: fn(AlgebraElement.basis_element(space, *k)) for k in x.coeffs}
        for (n, a, b), want in on_keys.items():
            assert tables[n][name][a, b] == pytest.approx(want, rel=1e-12, abs=1e-12), (name, n, a, b)
        assert fn(x) <= sum(abs(z) * on_keys[k] for k, z in x.coeffs.items()) + 1e-12, name
        ((k, z),) = y.coeffs.items()
        assert fn(y) == pytest.approx(abs(z) * on_keys[k], rel=1e-12, abs=1e-12), name
    # antilinear: conj(z_k) and z_k give different residuals, so an element
    # is bounded by its keys, not read off them
    star_compatible = direct["coproduct star-compatible"]
    conj = AlgebraElement(space, {k: z.conjugate() for k, z in x.coeffs.items()})
    assert star_compatible(x) > 0.1 and abs(star_compatible(conj) - star_compatible(x)) > 0.1


COMPLEX_WEIGHT = lambda s_l, r_l, s_r, r_r: complex(math.cos(s_l - 2 * r_r), math.sin(s_l - 2 * r_r)) * (1 + 0.1 * r_l)


@pytest.mark.parametrize("name", ["A3", "D4", "A_aff_2", "E6"])
@pytest.mark.parametrize("weight_fn", [None, lambda *ends: 1.0, BENT, COMPLEX_WEIGHT],
                         ids=["perron-frobenius", "flat", "bent", "complex"])
def test_star_double_closed_form_matches_the_stacked_products(name, weight_fn):
    # the closed form W[a, b] Q diag(conj(Q[:, a])) W^H diag(conj(Q[:, b])) Q^T
    # against the four maps applied to all d^2 unit blocks at once; the
    # complex weight fails the axiom, so a conjugate taken at the wrong
    # place shows in residuals of order 1
    space = junction_space(name)
    weights = _endpoint_weights(space, weight_fn)
    for n in range(3):
        basis = essential_basis(space, n)
        s, r = basis.source, basis.range
        want = stacked_star_double(_star_matrix(space, n), weights[s[:, None], r[:, None], s, r])
        got = _unary_residuals(space, n, weights)["antipode star double"]
        assert got.shape == want.shape and np.allclose(got, want, rtol=1e-12, atol=1e-12), (name, n)
        if weight_fn in (BENT, COMPLEX_WEIGHT) and n:
            assert want.max() > 0.1, (name, n)


def test_each_length_is_tabulated_once_per_call(tri, monkeypatch):
    # the star matrix, weights and junction arrays of a length serve all
    # nine linear unary axioms, and are built again on the next call, whose
    # weight_fn may differ
    from pathhopf import weak_hopf

    true_residuals = weak_hopf._unary_residuals
    built = []

    def counted(space, n, weights):
        built.append(n)
        return true_residuals(space, n, weights)

    monkeypatch.setattr(weak_hopf, "_unary_residuals", counted)
    assert verify_axioms(tri, 3, samples=40, seed=3).all_passed
    assert built == [0, 1, 2, 3]
    verify_axioms(tri, 2, samples=5, seed=3, weight_fn=lambda *ends: 1.0)
    assert built == [0, 1, 2, 3, 0, 1, 2]


def test_junction_arrays_are_stacked_once_per_call(tri, monkeypatch):
    # the unary sweep, counit positivity, coproduct multiplicativity and the
    # products share one stack per pair of lengths, cached on the space: a
    # second call builds none, and a fresh space builds them again
    from pathhopf import weak_hopf

    true_arrays = weak_hopf._junction_arrays
    built = []

    def arrays(space, n1, n2):
        if (n1, n2) not in space.cache.get("junctions", {}):
            built.append((n1, n2))
        return true_arrays(space, n1, n2)

    monkeypatch.setattr(weak_hopf, "_junction_arrays", arrays)
    swept = {(m, n) for n in range(4) for m in (0, n)} | {(n, 0) for n in range(4)}
    for _ in range(2):
        built.clear()
        space = PathSpace(tri.graph, tri.spectrum)
        assert verify_axioms(space, 3, samples=40, seed=3).all_passed
        assert len(built) == len(set(built)) and set(built) >= swept
        first = len(built)
        assert verify_axioms(space, 3, samples=40, seed=3).all_passed
        assert len(built) == first


def test_a_scaled_star_entry_fails_star_involution_at_its_keys(monkeypatch):
    # S_2 on E6 is a signed permutation of an involution; one entry scaled by
    # 1.001 moves star(star(x)) only on keys whose left or right index is in
    # that entry's row or column
    from pathhopf import weak_hopf

    space = junction_space("E6")
    true_star = weak_hopf._star_matrix
    i, j = (int(v) for v in np.argwhere(true_star(space, 2))[5])

    def scaled(space, n):
        S = true_star(space, n).copy()
        if n == 2:
            S[i, j] *= 1.001
        return S

    monkeypatch.setattr(weak_hopf, "_star_matrix", scaled)
    report = verify_axioms(space, 2, samples=10, seed=0)
    (result,) = [r for r in report.results if r.name == "star involution"]
    assert result.residual > 1e-3 and not report.all_passed
    (keys,) = result.witness
    assert any(n == 2 and {a, b} & {i, j} for n, a, b in keys), (keys, i, j)


def test_verify_axioms_rejects_cutoff_overflow(tri):
    tight = PathSpace(tri.graph, tri.spectrum, cutoff=3)
    with pytest.raises(CutoffError):
        verify_axioms(tight, 2, samples=1, seed=0)


@pytest.mark.parametrize("samples", [1, 20])
def test_verify_axioms_refuses_associativity_past_the_cutoff(tri, samples):
    # (x y) z reaches length 3 * 5 = 15 past the cutoff 12 on an affine
    # graph, whether or not a drawn triple reaches it; refused before any
    # junction is built
    space = PathSpace(tri.graph, tri.spectrum, cutoff=12)
    with pytest.raises(CutoffError, match="cutoff 12"):
        verify_axioms(space, 5, samples=samples, seed=0)
    assert not space.cache.get("junctions")


def test_verify_axioms_checks_only_built_lengths_on_a_finite_graph(a3):
    # A3's top essential length is 2, so no product at max_length 2 builds
    # a length past 2, whatever 2 * max_length is
    tight = PathSpace(a3.graph, a3.spectrum, cutoff=3)
    report = verify_axioms(tight, 2, samples=5, seed=0)
    assert report.all_passed
    assert [r.residual for r in report.results] == pytest.approx(
        [r.residual for r in verify_axioms(a3, 2, samples=5, seed=0).results], abs=1e-12)


@pytest.mark.parametrize(
    "max_length, samples, message",
    [(1, 0, "samples"), (1, -3, "samples"), (-1, 5, "max_length")],
)
def test_verify_axioms_rejects_empty_check(a3, max_length, samples, message):
    with pytest.raises(PathHopfError, match=message):
        verify_axioms(a3, max_length, samples=samples, seed=0)


@pytest.mark.parametrize("seed", [-1, -5])
def test_verify_axioms_rejects_a_negative_seed(a3, seed):
    with pytest.raises(PathHopfError, match=f"seed must be nonnegative, got {seed}"):
        verify_axioms(a3, 1, samples=2, seed=seed)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0, -1e-9])
def test_verify_axioms_rejects_a_tolerance_that_cannot_pass_or_fail(a3, tolerance):
    with pytest.raises(PathHopfError, match="tolerance"):
        verify_axioms(a3, 1, samples=2, seed=0, tolerance=tolerance)


def test_multiply_longer_lengths(tri):
    # length-3 pairs multiply into the filtered range 0, 2, 4, 6
    basis3 = essential_basis(tri, 3)
    x = AlgebraElement.basis_element(tri, 3, 0, 0)
    y = AlgebraElement.basis_element(tri, 3, 0, 0)
    prod = multiply(x, y)
    lengths = {k[0] for k in prod.coeffs}
    assert lengths <= {0, 2, 4, 6}
    assert len(basis3) == 12


def test_verify_axioms_star_graph_full_range(d4):
    # the construction is graph-generic: the star graph over its whole
    # essential range (lengths 0..4, a 168-dim algebra) passes every axiom
    report = verify_axioms(d4, 4, samples=25, seed=0)
    assert report.all_passed
    assert max(r.residual for r in report.results) < 1e-10


def test_verify_axioms_triangle_length_three(tri):
    report = verify_axioms(tri, 3, samples=15, seed=0)
    assert report.all_passed
