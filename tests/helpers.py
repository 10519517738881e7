"""Shared test utilities: comparison helpers and small graph builders."""

import numpy as np

from pathhopf import (
    Decomposition,
    Graph,
    OperatorWord,
    PathVector,
    decompose,
    tridiagonal_solve,
    zero_vector,
)
from pathhopf.weak_hopf import element_in_path_coordinates


def path_graph(k, name=None):
    """The linear graph on k vertices (the A_k diagram)."""
    adjacency = np.zeros((k, k), dtype=int)
    for i in range(k - 1):
        adjacency[i, i + 1] = 1
        adjacency[i + 1, i] = 1
    return Graph(name=name or f"A{k}", vertices=tuple(str(i) for i in range(k)), adjacency=adjacency)


def pv(coeffs):
    """PathVector from a {path tuple: coefficient} dict."""
    length = len(next(iter(coeffs))) - 1
    return PathVector(length, coeffs)


def unit(path):
    return PathVector.unit(path)


def sup_diff(x, y):
    return (x - y).sup_norm()


def decomp_as_dict(d):
    """Decomposition -> {word indices: {path: coeff}}."""
    return {w.indices: dict(xi.coeffs) for w, xi in d.terms}


def assert_decomposition(space, x, expected, tol=1e-9):
    """Check decompose(x) against {word: {path: coeff}} frozen values."""
    actual = decomp_as_dict(decompose(space, x))
    assert set(actual) == set(expected), (sorted(actual), sorted(expected))
    for word, vec in expected.items():
        got = actual[word]
        for path in set(got) | set(vec):
            a = got.get(path, 0.0)
            e = vec.get(path, 0.0)
            assert abs(a - e) < tol, (word, path, a, e)


def outer(left, right, scale=1.0):
    """Outer product of two {path: coeff} dicts -> {(p, q): coeff}."""
    out = {}
    for p, cp in left.items():
        for q, cq in right.items():
            out[(p, q)] = out.get((p, q), 0.0) + scale * cp * cq
    return out


def assert_element_coords(element, expected, tol=1e-9):
    """Compare an AlgebraElement with {(left path, right path): coeff} in
    elementary coordinates, independent of any basis rotation."""
    actual = element_in_path_coordinates(element)
    for key in set(actual) | set(expected):
        a = actual.get(key, 0.0)
        e = expected.get(key, 0.0)
        assert abs(a - e) < tol, (key, a, e)


def random_vector(space, n, rng, with_imag=False):
    """Dense random vector over the elementary basis at length n."""
    coeffs = {}
    for p in space.enumerate_paths(n):
        c = rng.standard_normal()
        if with_imag:
            c = complex(c, rng.standard_normal())
        coeffs[p] = c
    return PathVector(n, coeffs)


def operator_residual(space, op_lhs, op_rhs, n):
    """sup-norm distance of two operators over the full elementary basis of
    length n."""
    worst = 0.0
    for p in space.enumerate_paths(n):
        x = PathVector.unit(p)
        worst = max(worst, sup_diff(op_lhs(x), op_rhs(x)))
    return worst


def recursive_decompose(space, x):
    """The recursive splitter, kept as an oracle for `decompose`.

    Take the largest index i with c_i x != 0, write
    x = sum_k alpha_k c†_k (c_i x) + residual with alpha from
    `tridiagonal_solve` (so the residual is killed by c_i, ..., c_{n-2}),
    then recurse on c_i x and on the residual; words are normal-ordered
    with `OperatorWord.then` and merged.
    """
    acc = {}
    _decompose_into(space, x, acc)
    terms = [(w, v) for w, v in acc.items() if not v.is_zero()]
    terms.sort(key=lambda t: (len(t[0]), t[0].indices))
    return Decomposition(length=x.length, terms=tuple(terms))


def _decompose_into(space, x, acc):
    if x.is_zero():
        return
    n = x.length
    i = None
    ci_x = None
    for j in reversed(range(n - 1)):
        img = space.annihilate(j, x)
        if not img.is_zero():
            i, ci_x = j, img
            break
    if i is None:
        word = OperatorWord()
        acc[word] = acc.get(word, zero_vector(n)) + x
        return
    alpha = tridiagonal_solve(space.beta, n - 1 - i)
    sub = {}
    _decompose_into(space, ci_x, sub)
    residual = x
    for offset, a in enumerate(alpha):
        k = i + offset
        residual = residual - float(a) * space.create(k, ci_x)
        for w, v in sub.items():
            wk = w.then(k)
            acc[wk] = acc.get(wk, zero_vector(n - 2 * len(wk))) + float(a) * v
    _decompose_into(space, residual, acc)
