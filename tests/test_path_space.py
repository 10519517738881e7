"""Path vectors, concatenation, star, and the ladder operators."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathhopf import (
    CutoffError,
    OperatorWord,
    PathSpace,
    PathVector,
    Spectrum,
    concat,
    inner_product,
    essential_basis,
    load_fixture,
    star,
)
from pathhopf.path_space import space_cached
from helpers import graph_from_edges, operator_residual, pv, random_vector, sup_diff, unit

ROOT2 = math.sqrt(2)
Q = 2 ** 0.25  # sqrt(mu_1 / mu_0) on the three-vertex chain


def gamma():
    return pv({(1, 2, 1): 1 / ROOT2, (1, 0, 1): -1 / ROOT2})


# -- construction -------------------------------------------------------------


def test_negative_cutoff_rejected(a3):
    assert PathSpace(a3.graph, a3.spectrum, cutoff=0).cutoff == 0
    with pytest.raises(CutoffError, match="nonnegative"):
        PathSpace(a3.graph, a3.spectrum, cutoff=-5)


@pytest.mark.parametrize(
    "graph, top",
    [
        ("a2", 1),
        ("a3", 2),
        ("a4", 3),
        ("d4", 4),
        ([(0, 1), (1, 2), (2, 3), (2, 4)], 6),  # D5, h = 8
        ([(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)], 10),  # E6, h = 12
        ("a_aff_2", math.inf),
    ],
    ids=["a2", "a3", "a4", "d4", "D5", "E6", "a_aff_2"],
)
def test_top_length_is_two_below_the_coxeter_number(graph, top):
    g = load_fixture(graph) if isinstance(graph, str) else graph_from_edges("g", graph)
    assert PathSpace(g).top_length == top


def test_top_length_comes_from_the_given_spectrum(a3):
    # beta = 2 cos(pi / 6) is D4's, beta = 2 is affine
    d4_beta = Spectrum(beta=2 * math.cos(math.pi / 6), mu=a3.spectrum.mu)
    assert PathSpace(a3.graph, d4_beta).top_length == 4
    assert PathSpace(a3.graph, Spectrum(beta=2.0, mu=a3.spectrum.mu)).top_length == math.inf


def test_space_cached_runs_each_key_once_and_stores_nothing_for_a_raise(tri):
    space, other = PathSpace(tri.graph, tri.spectrum, cutoff=3), PathSpace(tri.graph, tri.spectrum)
    runs = []

    @space_cached("first")
    def first(space, n, m):
        runs.append((n, m))
        if n < 0:
            raise ValueError(n)
        return [n, m]

    @space_cached("second")
    def second(space, n, m):
        return (n, m)

    # a repeat call returns the same object and runs the body once; each
    # space keeps its own tables
    assert first(space, 1, 2) is first(space, 1, 2) and runs == [(1, 2)]
    assert first(other, 1, 2) is not first(space, 1, 2) and runs == [(1, 2)] * 2
    # two tables with equal keys do not collide
    assert second(space, 1, 2) == (1, 2) and first(space, 1, 2) == [1, 2]
    assert space.cache == {"first": {(1, 2): [1, 2]}, "second": {(1, 2): (1, 2)}}
    # a call that raises stores nothing, so the next one runs the body again
    for _ in range(2):
        with pytest.raises(ValueError):
            first(space, -1, 0)
    assert runs == [(1, 2)] * 2 + [(-1, 0)] * 2 and list(space.cache["first"]) == [(1, 2)]
    # the library's tables follow the same rule: a basis past the cutoff is
    # refused and leaves no key, the lengths below it stay
    with pytest.raises(CutoffError, match="length 4 exceeds the cutoff 3"):
        essential_basis(space, 4)
    essential_basis(space, 3)
    with pytest.raises(CutoffError):
        essential_basis(space, 4)
    assert sorted(space.cache["essential_basis"]) == [(0,), (1,), (2,), (3,)]


# -- enumeration --------------------------------------------------------------


def test_enumerate_length_zero(a3):
    assert a3.enumerate_paths(0) == [(0,), (1,), (2,)]


def test_enumerate_length_one(a3):
    assert a3.enumerate_paths(1) == [(0, 1), (1, 0), (1, 2), (2, 1)]


def test_enumerate_triangle_length_two(tri):
    # brute-force oracle: filter all vertex triples by adjacency
    adj = tri.graph.adjacency
    expected = [
        t
        for t in itertools.product(range(3), repeat=3)
        if adj[t[0], t[1]] and adj[t[1], t[2]]
    ]
    assert len(expected) == 12  # 3 * 2 * 2 choices
    assert tri.enumerate_paths(2) == sorted(expected)


def test_enumerate_endpoint_filters(a3):
    assert a3.enumerate_paths(2, source=0) == [(0, 1, 0), (0, 1, 2)]
    assert a3.enumerate_paths(1, source=1) == [(1, 0), (1, 2)]


# -- inner product ------------------------------------------------------------


def test_inner_product_orthonormal():
    assert inner_product(unit((0, 1, 0)), unit((0, 1, 0))) == 1
    assert inner_product(unit((0, 1, 0)), unit((0, 1, 2))) == 0


def test_inner_product_gamma_normalized():
    g = gamma()
    assert abs(inner_product(g, g) - 1) < 1e-12


def test_inner_product_length_mismatch_is_zero():
    assert inner_product(unit((0, 1)), unit((0, 1, 0))) == 0


def test_inner_product_conjugate_linear_first_slot():
    x = pv({(0, 1): 2j})
    y = pv({(0, 1): 3.0})
    assert inner_product(x, y) == -6j
    assert inner_product(y, x) == 6j


# -- vector arithmetic --------------------------------------------------------


def test_add_rejects_length_mismatch_even_with_zero_operand():
    zero2 = PathVector(2)
    for left, right in (
        (unit((0, 1)), unit((0, 1, 0))),
        (zero2, unit((0, 1))),
        (unit((0, 1)), zero2),
        (zero2, PathVector(0)),
    ):
        with pytest.raises(ValueError, match="lengths"):
            left + right
        with pytest.raises(ValueError, match="lengths"):
            left - right


def test_add_zero_of_equal_length_is_identity():
    x = unit((0, 1, 0))
    assert sup_diff(PathVector(2) + x, x) == 0.0
    assert sup_diff(x + PathVector(2), x) == 0.0


# -- concatenation ------------------------------------------------------------


def test_concat_joins_matching_endpoints():
    assert concat(unit((0, 1)), unit((1, 2))).coeffs == {(0, 1, 2): 1.0}
    assert concat(unit((0, 1)), unit((1, 0))).coeffs == {(0, 1, 0): 1.0}


def test_concat_endpoint_mismatch_is_zero():
    assert concat(unit((0, 1)), unit((2, 1))).is_zero()


def test_concat_with_vertex_is_endpoint_projection():
    x = pv({(0, 1): 1.0, (2, 1): 1.0})
    assert concat(unit((0,)), x).coeffs == {(0, 1): 1.0}
    assert concat(x, unit((1,))).coeffs == {(0, 1): 1.0, (2, 1): 1.0}


# -- star ---------------------------------------------------------------------


def test_star_reverses():
    assert star(unit((0, 1, 2))).coeffs == {(2, 1, 0): 1.0}


def test_star_gamma_palindromic():
    # both support paths are palindromes, so gamma is star-invariant
    assert sup_diff(star(gamma()), gamma()) < 1e-12


def test_star_conjugates():
    x = pv({(0, 1): 1 + 2j})
    assert star(x).coeffs == {(1, 0): 1 - 2j}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_star_isometry_up_to_conjugation(seed, n):
    # 3-vertex chain; random complex vectors
    from pathhopf import PathSpace, load_fixture

    space = PathSpace(load_fixture("a3"))
    rng = np.random.default_rng(seed)
    x = random_vector(space, n, rng, with_imag=True)
    y = random_vector(space, n, rng, with_imag=True)
    lhs = inner_product(x, y)
    rhs = inner_product(star(x), star(y)).conjugate()
    assert abs(lhs - rhs) < 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_star_antihomomorphism_for_concat(a3, seed):
    rng = np.random.default_rng(seed)
    x = random_vector(a3, int(rng.integers(1, 3)), rng, with_imag=True)
    y = random_vector(a3, int(rng.integers(1, 3)), rng, with_imag=True)
    assert sup_diff(star(concat(x, y)), concat(star(y), star(x))) < 1e-10


# -- annihilation and creation -------------------------------------------------


def test_annihilate_back_and_forth(a3):
    # c_0 (010): vertices 0 and 2 coincide, weight sqrt(mu_1/mu_0) = 2^{1/4}
    out = a3.annihilate(0, unit((0, 1, 0)))
    assert sup_diff(out, pv({(0,): Q})) < 1e-12


def test_annihilate_zero_cases(a3):
    assert a3.annihilate(0, unit((0, 1, 2))).is_zero()
    assert a3.annihilate(1, unit((0, 1, 0))).is_zero()  # out of range
    assert a3.annihilate(-1, unit((0, 1, 0))).is_zero()


def test_annihilate_kills_essentials(a3):
    assert a3.annihilate(0, gamma()).is_zero()
    assert a3.annihilate(0, unit((0, 1, 2))).is_zero()


def test_create_single_neighbor(a3):
    out = a3.create(0, unit((0,)))
    assert sup_diff(out, pv({(0, 1, 0): Q})) < 1e-12


def test_create_two_neighbors(a3):
    out = a3.create(0, unit((1,)))
    assert sup_diff(out, pv({(1, 0, 1): 1 / Q, (1, 2, 1): 1 / Q})) < 1e-12


def test_create_out_of_range(a3):
    assert a3.create(1, unit((0,))).is_zero()


def test_annihilate_create_gives_beta(a3):
    out = a3.annihilate(0, a3.create(0, unit((0,))))
    assert sup_diff(out, pv({(0,): ROOT2})) < 1e-12


@pytest.mark.parametrize("space_name", ["a3", "tri", "d4"])
@pytest.mark.parametrize("n", range(7))
def test_create_annihilate_identity_full_bases(space_name, n, request):
    # c_i c_i† = beta on every degree, for every admissible i
    space = request.getfixturevalue(space_name)
    for i in range(n + 1):
        res = operator_residual(
            space,
            lambda x, i=i: space.annihilate(i, space.create(i, x)),
            lambda x: x * space.beta,
            n,
        )
        assert res < 1e-10, (space.graph.name, n, i)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(0, 4))
def test_adjointness(tri, seed, n, i):
    # (c_i† x, y) = (x, c_i y) for x of length n, y of length n + 2
    rng = np.random.default_rng(seed)
    x = random_vector(tri, n, rng, with_imag=True)
    y = random_vector(tri, n + 2, rng, with_imag=True)
    lhs = inner_product(tri.create(i, x), y)
    rhs = inner_product(x, tri.annihilate(i, y))
    assert abs(lhs - rhs) < 1e-10


# -- Temperley-Lieb-Jones projections -------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_tlj_idempotent(d4, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    x = random_vector(d4, n, rng)
    for i in range(n - 1):
        assert sup_diff(d4.tlj(i, d4.tlj(i, x)), d4.tlj(i, x)) < 1e-10


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_tlj_distant_commutation(tri, seed):
    rng = np.random.default_rng(seed)
    x = random_vector(tri, 5, rng)
    # |i - j| > 1
    lhs = tri.tlj(0, tri.tlj(3, x))
    rhs = tri.tlj(3, tri.tlj(0, x))
    assert sup_diff(lhs, rhs) < 1e-10


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_tlj_braid_relation(a3, seed):
    rng = np.random.default_rng(seed)
    x = random_vector(a3, 4, rng)
    beta2 = a3.beta**2
    for i, j in [(0, 1), (1, 0), (1, 2), (2, 1)]:
        lhs = a3.tlj(i, a3.tlj(j, a3.tlj(i, x)))
        assert sup_diff(lhs, a3.tlj(i, x) * (1 / beta2)) < 1e-10


def test_tlj_self_adjoint(tri):
    rng = np.random.default_rng(11)
    x = random_vector(tri, 3, rng, with_imag=True)
    y = random_vector(tri, 3, rng, with_imag=True)
    assert abs(inner_product(tri.tlj(0, x), y) - inner_product(x, tri.tlj(0, y))) < 1e-10


# -- operator words --------------------------------------------------------------


def test_word_validation():
    with pytest.raises(ValueError):
        OperatorWord((1, 1))
    with pytest.raises(ValueError):
        OperatorWord((-1,))


def test_word_then_normalizes():
    # exchange: applying j then i (j >= i) = applying i then j + 2
    assert OperatorWord((1,)).then(0).indices == (0, 3)
    assert OperatorWord((0,)).then(0).indices == (0, 2)
    assert OperatorWord((0, 1)).then(0).indices == (0, 2, 3)
    assert OperatorWord((0,)).then(2).indices == (0, 2)


def test_apply_word_empty_is_identity(a3):
    x = pv({(0, 1): 2.0, (1, 2): -1.0})
    assert sup_diff(a3.apply_word(OperatorWord(), x), x) < 1e-12


def test_apply_word_single_equals_create(a3):
    x = unit((0,))
    assert sup_diff(
        a3.apply_word(OperatorWord((0,)), x), a3.create(0, x)
    ) < 1e-12
    assert sup_diff(
        a3.apply_word(OperatorWord((0,)), x), pv({(0, 1, 0): Q})
    ) < 1e-12


def test_apply_word_order_innermost_first(a3):
    x = unit((0,))
    assert sup_diff(
        a3.apply_word(OperatorWord((0, 1)), x), a3.create(1, a3.create(0, x))
    ) < 1e-12


@pytest.mark.parametrize("space_name", ["a3", "tri", "d4"])
@pytest.mark.parametrize("n", range(5))
def test_exchange_identity_full_bases(space_name, n, request):
    # c_i† c_j† = c_{j+2}† c_i† for all j >= i, as operators on degree n
    space = request.getfixturevalue(space_name)
    for i in range(n + 3):
        for j in range(i, n + 3):
            res = operator_residual(
                space,
                lambda x, i=i, j=j: space.create(i, space.create(j, x)),
                lambda x, i=i, j=j: space.create(j + 2, space.create(i, x)),
                n,
            )
            assert res < 1e-10, (space.graph.name, n, i, j)


@pytest.mark.parametrize("space_name", ["a3", "tri", "d4"])
@pytest.mark.parametrize("n", range(2, 5))
def test_mixed_relations_full_bases(space_name, n, request):
    # c_i c_j† = (beta d_{ij} + d_{i,j+1} + d_{i,j-1}) + theta(j-i-2) c_{j-2}† c_i
    #            + theta(i-j-2) c_j† c_{i-2}, as operators on degree n
    space = request.getfixturevalue(space_name)
    beta = space.beta

    def rhs(x, i, j):
        scalar = beta * (i == j) + (i == j + 1) + (i == j - 1)
        out = x * scalar
        if j - i >= 2:
            out = out + space.create(j - 2, space.annihilate(i, x))
        if i - j >= 2:
            out = out + space.create(j, space.annihilate(i - 2, x))
        return out

    for i in range(n - 1):
        for j in range(n - 1):
            res = operator_residual(
                space,
                lambda x, i=i, j=j: space.annihilate(i, space.create(j, x)),
                lambda x, i=i, j=j: rhs(x, i, j),
                n,
            )
            assert res < 1e-10, (space.graph.name, n, i, j)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_concat_star_antihomomorphism_elementary(d4, seed):
    rng = np.random.default_rng(seed)
    paths = d4.enumerate_paths(2)
    p = paths[int(rng.integers(len(paths)))]
    q_candidates = [q for q in d4.enumerate_paths(3) if q[0] == p[-1]]
    if not q_candidates:
        return
    q = q_candidates[int(rng.integers(len(q_candidates)))]
    lhs = star(concat(unit(p), unit(q)))
    rhs = concat(star(unit(q)), star(unit(p)))
    assert sup_diff(lhs, rhs) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 5), min_size=0, max_size=3),
    st.integers(0, 5),
    st.integers(0, 2**32 - 1),
)
def test_word_normalization_matches_operator_composition(tri, raw, k, seed):
    # appending a creation to a normal-ordered word must agree with literal
    # operator composition on a random vector
    word = OperatorWord()
    for i in raw:
        word = word.then(i)
    rng = np.random.default_rng(seed)
    x = random_vector(tri, int(rng.integers(0, 3)), rng)
    lhs = tri.apply_word(word.then(k), x)
    rhs = tri.create(k, tri.apply_word(word, x))
    assert sup_diff(lhs, rhs) < 1e-9
