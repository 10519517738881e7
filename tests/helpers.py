"""Shared test utilities: comparison helpers and small graph builders."""

import weakref

import numpy as np

from pathhopf import (
    AlgebraElement,
    CoefficientKey,
    Decomposition,
    Graph,
    OperatorWord,
    PathVector,
    antipode,
    coefficient_C,
    concat,
    coproduct,
    decompose,
    essential_basis,
    identity,
    multiply,
    tridiagonal_solve,
    zero_vector,
)
from pathhopf.essential_decomp import creation_words, decompose_coordinates, word_gram
from pathhopf.weak_hopf import element_in_path_coordinates


def path_graph(k, name=None):
    """The linear graph on k vertices (the A_k diagram)."""
    adjacency = np.zeros((k, k), dtype=int)
    for i in range(k - 1):
        adjacency[i, i + 1] = 1
        adjacency[i + 1, i] = 1
    return Graph(name=name or f"A{k}", vertices=tuple(str(i) for i in range(k)), adjacency=adjacency)


def graph_from_edges(name, edges):
    """The simple graph with the given undirected edges on vertices 0..k-1."""
    k = 1 + max(max(e) for e in edges)
    adjacency = np.zeros((k, k), dtype=int)
    for i, j in edges:
        adjacency[i, j] = adjacency[j, i] = 1
    return Graph(name=name, vertices=tuple(str(v) for v in range(k)), adjacency=adjacency)


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


class _SplitMemo:
    """What `recursive_decompose` memoises per space: the terms of each
    elementary path, and of each c†_k (path) as positions and values over
    `keys`, the (word indices, path) pairs met so far."""

    def __init__(self):
        self.keys = []
        self.position = {}
        self.terms = {}
        self.lifted = {}


_SPLIT_MEMO = weakref.WeakKeyDictionary()


def recursive_decompose(space, x):
    """The recursive splitter, kept as an oracle for `decompose`.

    Take the largest index i with c_i x != 0, write
    x = sum_k alpha_k c†_k (c_i x) + residual with alpha from
    `tridiagonal_solve` (so the residual is killed by c_i, ..., c_{n-2}),
    then recurse on c_i x and repeat on the residual until it is essential;
    words are normal-ordered with `OperatorWord.then` and merged.  The
    splitting is linear, so c_i x is split elementary path by elementary
    path, and the terms of each c†_k (path) are memoised for the life of
    the space.
    """
    memo = _SPLIT_MEMO.setdefault(space, _SplitMemo())
    parts = {}
    for (w, p), c in _split(space, x, memo).items():
        parts.setdefault(w, {})[p] = c
    terms = [(OperatorWord(w), PathVector(x.length - 2 * len(w), v)) for w, v in parts.items()]
    terms.sort(key=lambda t: (len(t[0]), t[0].indices))
    return Decomposition(length=x.length, terms=tuple(terms))


def _split(space, x, memo):
    """The terms of `x` as {(word indices, path): coefficient}, with
    coefficients of 1e-13 or less left out."""
    n = x.length
    lifted = {}  # (k, path q) -> coefficient of c†_k q
    while True:
        images = ((j, space.annihilate(j, x)) for j in reversed(range(n - 1)))
        i, ci_x = next(((j, y) for j, y in images if not y.is_zero()), (None, None))
        if i is None:
            break
        residual = dict(x.coeffs)
        for offset, a in enumerate(tridiagonal_solve(space.beta, n - 1 - i)):
            k = i + offset
            for q, c in space.create(k, ci_x).coeffs.items():
                residual[q] = residual.get(q, 0.0) - float(a) * c
            for q, c in ci_x.coeffs.items():
                lifted[k, q] = lifted.get((k, q), 0.0) + float(a) * c
        x = PathVector(n, residual)
    out = {((), p): c for p, c in x.coeffs.items()}
    if lifted:
        parts = [(_lifted_terms(space, k, q, memo), c) for (k, q), c in lifted.items()]
        where = np.concatenate([positions for (positions, _), _ in parts])
        values = np.concatenate([c * vals for (_, vals), c in parts])
        total = np.bincount(where, values.real, len(memo.keys)) + 1j * np.bincount(
            where, values.imag, len(memo.keys)
        )
        for j in np.flatnonzero(np.abs(total) > 1e-13).tolist():
            out[memo.keys[j]] = complex(total[j])
    return {key: c for key, c in out.items() if abs(c) > 1e-13}


def _lifted_terms(space, k, q, memo):
    """The terms of c†_k q, those of the path q with each word followed by
    k, as position and value arrays over `memo.keys`."""
    if (k, q) not in memo.lifted:
        if q not in memo.terms:
            memo.terms[q] = _split(space, PathVector.unit(q), memo)
        then = {}
        positions, values = [], []
        for (w, p), z in memo.terms[q].items():
            if w not in then:
                then[w] = OperatorWord(w).then(k).indices
            key = (then[w], p)
            if key not in memo.position:
                memo.position[key] = len(memo.keys)
                memo.keys.append(key)
            positions.append(memo.position[key])
            values.append(z)
        memo.lifted[k, q] = (np.array(positions, dtype=np.intp), np.array(values))
    return memo.lifted[k, q]


def reference_basis_product(space, n1, a, b, n2, c, d, memo=None):
    """The product (n1, a, b) . (n2, c, d) as {(m, e, f): coefficient}, from
    the paper's formula with C evaluated by `coefficient_C`.

    Decompose xi_a xi_c and xi_b xi_d, expand their essential parts against
    the bases, and pair terms with creation words j (left) and i (right) of
    equal length through C(i; j).  `memo` caches the decompositions of
    concatenated basis vectors across calls.
    """
    memo = {} if memo is None else memo

    def terms(p, q):
        if (n1, p, n2, q) not in memo:
            x = concat(essential_basis(space, n1).vectors[p], essential_basis(space, n2).vectors[q])
            memo[n1, p, n2, q] = [
                (w.indices, xi.length, essential_basis(space, xi.length).expand(xi))
                for w, xi in decompose(space, x).terms
            ]
        return memo[n1, p, n2, q]

    out = {}
    for jw, m, left in terms(a, c):
        for iw, m2, right in terms(b, d):
            if len(jw) != len(iw):
                continue
            cij = coefficient_C(space, CoefficientKey(iw, jw), m)
            for e, ce in left.items():
                for f, cf in right.items():
                    out[m, e, f] = out.get((m, e, f), 0.0) + cij * ce * cf
    return out


def word_pair_basis_product(space, n1, a, b, n2, c, d, memo=None):
    """The product (n1, a, b) . (n2, c, d) as {(m, e, f): coefficient},
    through creation words: decompose xi_a xi_c and xi_b xi_d against the
    essential bases (`decompose_coordinates`) and pair the level-l
    coordinates L and R through the word-Gram matrix G, as the block
    L^T G R on E_m (x) E_m.  `memo` caches the coordinate matrices of
    concatenated basis vectors across calls."""
    memo = {} if memo is None else memo
    n = n1 + n2

    def levels(p, q):
        """Level l -> (m, words x E_m coordinate matrix) of xi_p xi_q."""
        if (n1, p, n2, q) not in memo:
            x = concat(essential_basis(space, n1).vectors[p], essential_basis(space, n2).vectors[q])
            out = {}
            for w, m, coords in decompose_coordinates(space, x):
                words = creation_words(space, n)[len(w)]
                m_and_rows = out.setdefault(len(w), (m, np.zeros((len(words), len(essential_basis(space, m))))))
                for e, z in coords.items():
                    m_and_rows[1][words.index(w), e] = z
            memo[n1, p, n2, q] = out
        return memo[n1, p, n2, q]

    left, right = levels(a, c), levels(b, d)
    out = {}
    for l in left.keys() & right.keys():
        m, rows = left[l]
        gram = word_gram(space, n, l) if l else np.ones((1, 1))
        block = rows.T @ gram @ right[l][1]
        for e, f in zip(*np.nonzero(np.abs(block) > 1e-14)):
            out[m, int(e), int(f)] = float(block[e, f])
    return out


def sweedler_cancellation(x, weight_fn=None):
    """sup |sum S(x_(1)) x_(2) boxtimes x_(3) - sum 1_(1) boxtimes x 1_(2)|,
    each side summed term by term through the public `coproduct`,
    `antipode` and `multiply`."""
    space = x.space
    basis = AlgebraElement.basis_element
    lhs = {}
    for (p, q), z in coproduct(x).coeffs.items():
        for (p1, p2), z1 in coproduct(basis(space, *p)).coeffs.items():
            left = multiply(antipode(basis(space, *p1), weight_fn), basis(space, *p2))
            for k, w in left.coeffs.items():
                lhs[k, q] = lhs.get((k, q), 0.0) + z * z1 * w
    rhs = {}
    for (t1, t2), z in coproduct(identity(space)).coeffs.items():
        for k, w in multiply(x, basis(space, *t2)).coeffs.items():
            rhs[t1, k] = rhs.get((t1, k), 0.0) + z * w
    return max((abs(lhs.get(k, 0.0) - rhs.get(k, 0.0)) for k in lhs.keys() | rhs.keys()), default=0.0)
