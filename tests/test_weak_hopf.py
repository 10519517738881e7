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
    CoefficientKey,
    CutoffError,
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
    element_from_obj,
    element_in_path_coordinates,
    element_to_obj,
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
from pathhopf.weak_hopf import (
    TensorSquare,
    _basis_product,
    _junction_scalars,
    _q_integers,
    _random_element,
)
from helpers import (
    assert_element_coords,
    graph_from_edges,
    pv,
    random_vector,
    reference_basis_product,
    sup_diff,
    sweedler_cancellation,
    unit,
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
    c = coefficient_C(a3, CoefficientKey((0,), (0,)), 0)
    assert abs(c - a3.beta) < 1e-12


def test_coefficient_neighbor_pair(a3):
    c = coefficient_C(a3, CoefficientKey((0,), (1,)), 1)
    assert abs(c - 1.0) < 1e-12
    c = coefficient_C(a3, CoefficientKey((1,), (0,)), 1)
    assert abs(c - 1.0) < 1e-12


def test_coefficient_unequal_lengths_zero(a3):
    assert coefficient_C(a3, CoefficientKey((0,), ()), 1) == 0


def test_coefficient_depends_on_base_length(tri):
    # creation at index 1 cannot act on a vertex, so the pair contracts to 0
    # at base length 0 but to beta at base length 1
    assert abs(coefficient_C(tri, CoefficientKey((1,), (1,)), 0)) < 1e-12
    assert abs(coefficient_C(tri, CoefficientKey((1,), (1,)), 1) - tri.beta) < 1e-12


def test_coefficient_requires_nonempty_basis(a3):
    with pytest.raises(BasisError):
        coefficient_C(a3, CoefficientKey((0,), (0,)), 3)


def test_coefficient_word_pairs_match_hand_contraction(tri):
    # c_0 c_2 c_1† c_0† contracts to beta via c_2 c_1† = 1 and c_0 c_0† = beta
    c = coefficient_C(tri, CoefficientKey((0, 2), (0, 1)), 0)
    assert abs(c - tri.beta) < 1e-12
    # c_0 c_1 c_1† c_0† = beta^2
    c = coefficient_C(tri, CoefficientKey((0, 1), (0, 1)), 0)
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
                    got = _basis_product(space, *k1, *k2)
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
                    got = _basis_product(space, *k1, *k2)
                    want = word_pair_basis_product(space, *k1, *k2, memo)
                    compared += bool(want)
                    for k in got.keys() | want.keys():
                        assert abs(got.get(k, 0.0) - want.get(k, 0.0)) < tol, (k1, k2, k)
    assert compared > 100


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
        if scalar is None
    ]
    assert expected in singular
    for n1, n2, l in singular:
        target = essential_basis(space, n1 + n2 - 2 * l)
        for xi in essential_basis(space, n1).vectors:
            for omega in essential_basis(space, n2).vectors:
                y = concat(xi, omega)
                for k in range(1, l + 1):
                    y = space.annihilate(n1 - k, y)
                coords = target.expand(y)
                assert max(map(abs, coords.values()), default=0.0) < 1e-9, (n1, n2, l)


def test_nonzero_junction_at_a_singular_scalar_raises(a3, monkeypatch):
    from pathhopf import weak_hopf

    def singular_at_zero(beta, n1, n2):
        return (None,) + _junction_scalars(beta, n1, n2)[1:]

    monkeypatch.setattr(weak_hopf, "_junction_scalars", singular_at_zero)
    space = PathSpace(a3.graph, a3.spectrum)
    ends = essential_basis(space, 1).endpoints
    a, c = ends.index((0, 1)), ends.index((1, 2))
    with pytest.raises(BasisError):
        _basis_product(space, 1, a, a, 1, c, c)  # (0-1-2) spans a block of E_2


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
        (weak_hopf, "decompose_coordinates"),
        (weak_hopf, "_combine_terms"),
        (essential_decomp, "word_gram"),
        (essential_decomp._DecompositionTables, "gram"),
        (essential_decomp._DecompositionTables, "gram_inverse"),
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
                for k, z in _basis_product(space, *kx, *ky).items():
                    full[k] = full.get(k, 0.0) + zx * zy * z
        assert (multiply(x, y) - AlgebraElement(space, full)).sup_norm() < 1e-14
        u, v = coproduct(x), coproduct(y)
        full = {}
        for (p, q), zu in u.coeffs.items():
            for (r, s), zv in v.coeffs.items():
                for k1, z1 in _basis_product(space, *p, *r).items():
                    for k2, z2 in _basis_product(space, *q, *s).items():
                        full[k1, k2] = full.get((k1, k2), 0.0) + zu * zv * z1 * z2
        assert (multiply_tensor_square(u, v) - TensorSquare(space, full)).sup_norm() < 1e-14


# -- projector --------------------------------------------------------------------


def test_projection_chain_example(a3):
    element = projector_P(a3, unit((0, 1, 2, 1, 0)), unit((2, 1, 0, 1, 2)))
    assert_element_coords(element, frozen_cases.CHAIN_PROJECTION_EXPECTED)


def test_projection_triangle_example(tri):
    element = projector_P(tri, unit((0, 1, 2, 1, 0)), unit((2, 1, 0, 1, 2)))
    assert_element_coords(element, frozen_cases.TRIANGLE_PROJECTION_EXPECTED)


def test_projection_fixes_essential_pairs(a3):
    element = projector_P(a3, gamma(), unit((0, 1, 2)))
    assert_element_coords(
        element, frozen_cases.outer(dict(gamma().coeffs), {(0, 1, 2): 1.0})
    )


def test_projection_requires_equal_lengths(a3):
    with pytest.raises(ValueError):
        projector_P(a3, unit((0, 1)), unit((0, 1, 0)))


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


def test_space_is_freed_without_the_cycle_collector(a3):
    # the memo tables hold plain values, so dropping the last reference
    # frees a space even while the cycle collector is off
    space = PathSpace(a3.graph, a3.spectrum)
    x = AlgebraElement.basis_element(space, 1, 0, 0)
    one = identity(space)
    assert not multiply(one, x).is_zero()
    assert space.cache["basis_product"]
    ref = weakref.ref(space)
    gc.disable()
    try:
        del x, one, space
        assert ref() is None
    finally:
        gc.enable()


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
    # the flattened antipode's residual from the sweep before the structure
    # maps were written on basis keys; a changed sample or map moves it
    report = verify_axioms(a3, 2, samples=20, seed=0, weight_fn=lambda *a: 1.0)
    assert abs(report.residual("antipode cancellation") - 0.9127236773870986) < 1e-9
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
    # the verifier's pool: every basis key up to length 2, then the seeded
    # random elements
    space = request.getfixturevalue(space_name)
    flat = lambda *ends: 1.0
    report = verify_axioms(space, 2, samples=samples, seed=0, weight_fn=flat)
    pool = [
        (n, a, b)
        for n in range(3)
        for a in range(len(essential_basis(space, n)))
        for b in range(len(essential_basis(space, n)))
    ]
    rng = np.random.default_rng(0)
    singles = [AlgebraElement.basis_element(space, *k) for k in pool]
    singles += [_random_element(space, pool, rng) for _ in range(samples)]
    direct = max(sweedler_cancellation(x, flat) for x in singles)
    assert abs(direct - report.residual("antipode cancellation")) < 1e-12


def test_verify_axioms_memo_is_local_to_each_call():
    # plain, flattened, plain on one space: no key map image may leak from
    # one call's weight_fn into the next
    space = PathSpace(load_fixture("a3"))
    flat = lambda *ends: 1.0
    first = verify_axioms(space, 2, samples=20, seed=0)
    flattened = verify_axioms(space, 2, samples=20, seed=0, weight_fn=flat)
    last = verify_axioms(space, 2, samples=20, seed=0)
    assert abs(flattened.residual("antipode cancellation") - 0.9127236773870986) < 1e-9
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


def test_verify_axioms_rejects_cutoff_overflow(tri):
    tight = PathSpace(tri.graph, tri.spectrum, cutoff=3)
    with pytest.raises(CutoffError):
        verify_axioms(tight, 2, samples=1, seed=0)


@pytest.mark.parametrize(
    "max_length, samples, message",
    [(1, 0, "samples"), (1, -3, "samples"), (-1, 5, "max_length")],
)
def test_verify_axioms_rejects_empty_check(a3, max_length, samples, message):
    with pytest.raises(PathHopfError, match=message):
        verify_axioms(a3, max_length, samples=samples, seed=0)


# -- serialization ---------------------------------------------------------------------


def test_element_json_round_trip(tri):
    rng = np.random.default_rng(41)
    x = random_element(tri, 2, rng)
    obj = element_to_obj(x)
    back = element_from_obj(tri, obj)
    assert (back - x).sup_norm() < 1e-10
    # schema sanity
    for entry in obj:
        assert set(entry) == {"length", "left", "right", "coeff"}
        for side in ("left", "right"):
            for term in entry[side]:
                assert set(term) == {"path", "coeff"}


def test_element_from_obj_rejects_non_essential(a3):
    obj = [
        {
            "length": 2,
            "left": [{"path": "0-1-0", "coeff": [1.0, 0.0]}],
            "right": [{"path": "0-1-0", "coeff": [1.0, 0.0]}],
            "coeff": [1.0, 0.0],
        }
    ]
    with pytest.raises(BasisError):
        element_from_obj(a3, obj)


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
