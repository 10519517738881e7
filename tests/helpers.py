"""Shared test utilities: comparison helpers and small graph builders."""

import itertools
import weakref
from functools import lru_cache, partial

import numpy as np

from pathhopf import (
    AlgebraElement,
    Decomposition,
    Graph,
    OperatorWord,
    PathVector,
    antipode,
    coefficient_C,
    concat,
    coproduct,
    counit,
    decompose,
    essential_basis,
    identity,
    inner_product,
    multiply,
    multiply_tensor_square,
    star,
    star_alg,
    tridiagonal_solve,
    zero_vector,
)
from pathhopf.essential_decomp import (
    KERNEL_TOL,
    _annihilator,
    _basis_block,
    _blocks,
    _factor_images,
    _gram_inverse,
    _spread,
    _walks,
    creation_words,
    word_gram,
)
from pathhopf.graph_core import coxeter_info
from pathhopf.weak_hopf import _product, _random_element, element_in_path_coordinates


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


def walk_essential_basis(space, top):
    """The essential bases up to length `top` in walk coordinates, as one
    {(source, range): [PathVector, ...]} per length.

    For n >= 2, block (s, t) of E_n is the kernel of c_{n-2} on the
    candidates xi_a . (r -> t), xi_a in block (s, r) of E_{n-1}, with the
    matrix of c_{n-2} formed on the walks of the candidates.  The library
    forms that matrix in Bratteli coordinates instead, so this is an
    independent build; its vectors are not signed, and blocks of dimension
    two or more may be rotated, so compare spans.
    """
    levels = []
    for n in range(top + 1):
        level: dict = {}
        if n < 2:
            for p in space.enumerate_paths(n):
                level[p[0], p[-1]] = [PathVector.unit(p)]
            levels.append(level)
            continue
        prev = levels[-1]
        for s in range(space.graph.num_vertices):
            for t in range(space.graph.num_vertices):
                candidates = [
                    (r, xi) for r in space.graph.neighbors[t] for xi in prev.get((s, r), ())
                ]
                if not candidates:
                    continue
                # c_{n-2} sends q . (r -> t) to q[:-1] when q[-2] = t, with
                # weight sqrt(mu[r] / mu[t])
                col: dict = {}
                row: dict = {}
                spread, image = [], []
                for j, (r, xi) in enumerate(candidates):
                    w = space.sqrt_mu[r] / space.sqrt_mu[t]
                    for q, c in xi.coeffs.items():
                        spread.append((j, col.setdefault(q, len(col)), c.real))
                        if q[-2] == t:
                            image.append((row.setdefault(q[:-1], len(row)), j, c.real * w))
                m = np.zeros((len(row), len(candidates)))
                for i, j, c in image:
                    m[i, j] += c
                _, sing, vt = np.linalg.svd(m)
                kernel = vt[int(np.sum(sing > 1e-9)) :]
                x = np.zeros((len(candidates), len(col)))
                for j, i, c in spread:
                    x[j, i] = c
                paths = [q + (t,) for q in col]
                vectors = [PathVector(n, dict(zip(paths, v))) for v in (kernel @ x).tolist()]
                if vectors:
                    level[s, t] = vectors
        levels.append(level)
    return levels


def per_block_kernel(space, below, s, t, sizes) -> np.ndarray:
    """Block (s, t) of E_n as the kernel of c_{n-2} on the candidates
    xi_a . (r -> t), xi_a in block (s, r) of E_{n-1} = `below`, for the
    r ~ t and block sizes in `sizes`: one SVD per block, the reference for
    `essential_basis`, which stacks the SVDs of each length by shape.

    c_{n-2} sends xi_a . (r -> t) to sqrt(mu[r] / mu[t]) times the part of
    xi_a on the vectors xi_b . (t -> r), xi_b in block (s, t) of E_{n-2}:
    its matrix in E_{n-2} coordinates is a block of `below.append`.  At
    n = 1, and wherever block (s, t) of E_{n-2} is empty, that part is
    empty, so every candidate is kept.  Each row is signed so that its
    first entry above 1e-9, in candidate order, is positive."""
    two = below.below.blocks.get((s, t), ()) if below.length else ()
    m = np.zeros((len(two), sum(sizes.values())))
    j = 0
    for r, size in sizes.items():
        if two:
            part = below.append[np.ix_(below.blocks[s, r], two)]
            m[:, j : j + size] = space.sqrt_mu[r] / space.sqrt_mu[t] * part.T
        j += size
    # the full V^T spans the candidates; rows past the rank span the kernel
    _, sing, vt = np.linalg.svd(m)
    kernel = vt[int((sing > KERNEL_TOL).sum()) :]
    return kernel * np.array([np.sign(row[np.abs(row) > 1e-9][0]) for row in kernel])[:, None]


def block_projector(vectors, paths):
    """The orthogonal projector sum_a xi_a xi_a^T of real path vectors, as a
    dense matrix over `paths` in their given order."""
    column = {p: j for j, p in enumerate(paths)}
    x = np.zeros((len(vectors), len(paths)))
    for a, xi in enumerate(vectors):
        for p, c in xi.coeffs.items():
            x[a, column[p]] = c.real
    return x.T @ x


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


def per_word_decompose(space, x):
    """`decompose` one creation word at a time, kept as an oracle for its
    stacked level maps.

    Each word's image c_w y is one annihilation of its suffix's image
    (c_{(i,) + v} y = c_i (c_v y)), and a word whose image vanishes drops
    every word that extends it; the lift sum_w c†_w eta_w runs by Horner's
    rule along suffixes, one creation per word.  The word set, basis
    blocks and inverse word-Gram matrices are the library's tables.
    """
    n = x.length
    parts = {}
    for (s, r), y in _blocks(space, x):
        vectors = {}
        for l, rows in _per_word_images(space, n, s, r, y).items():
            basis = _basis_block(space, n - 2 * l, s, r)[0]
            eta = _gram_inverse(space, n, l) @ rows @ basis.T
            vectors.update(zip(creation_words(space, n)[l], eta))
        vectors[()] = y - _horner_lift(space, n, s, r, vectors)
        for w, v in vectors.items():
            paths = _walks(space, n - 2 * len(w), s, r)
            parts.setdefault(w, {}).update(zip(paths, v.tolist()))
    terms = [(OperatorWord(w), PathVector(n - 2 * len(w), c)) for w, c in parts.items()]
    terms = [t for t in terms if not t[1].is_zero()]
    terms.sort(key=lambda t: (len(t[0]), t[0].indices))
    return Decomposition(length=n, terms=tuple(terms))


_WORD_STEPS = weakref.WeakKeyDictionary()


def _word_step(space, length, s, r, k, z, create=False):
    """c_k z from `length` on block (s, r), or c†_k z to `length`, through
    the sparse form of `_annihilator`, memoised per space."""
    steps = _WORD_STEPS.setdefault(space, {})
    if (length, s, r, k) not in steps:
        target, weight = _annihilator(space, length, s, r)
        src = np.flatnonzero(target[k] >= 0)
        steps[length, s, r, k] = (
            src, target[k, src], weight[k, src],
            len(_walks(space, length, s, r)), len(_walks(space, length - 2, s, r)),
        )
    src, dst, weight, size, below = steps[length, s, r, k]
    if create:
        return _spread(src, weight, z[dst], size)
    return _spread(dst, weight, z[src], below)


def _per_word_images(space, n, s, r, y):
    """Level l -> B_m^T c_w y, one row per level-l word, for the levels
    whose block of E_m is not empty."""
    out = {}
    images = {(): y}
    for l, words in enumerate(creation_words(space, n)[1:], start=1):
        m = n - 2 * l
        images = {
            w: z
            for w in words
            if w[1:] in images
            for z in (_word_step(space, m + 2, s, r, w[0], images[w[1:]]),)
            if z.any()
        }
        if not images:
            break
        basis, offsets = _basis_block(space, m, s, r)
        if offsets:
            rows = np.zeros((len(words), len(offsets)), dtype=y.dtype)
            for j, w in enumerate(words):
                if w in images:
                    rows[j] = images[w] @ basis
            out[l] = rows
    return out


def _horner_lift(space, n, s, r, vectors):
    """The sum of c†_w vectors[w] over the words w != () at length n:
    deepest level first, each word passes c†_{w[0]} of its vector, plus
    what its extensions passed to it, up to its suffix w[1:]."""
    passed = {}
    for l in range(n // 2, 0, -1):
        for w in creation_words(space, n)[l]:
            parts = [v for v in (vectors.get(w), passed.pop(w, None)) if v is not None]
            if parts:
                v = _word_step(space, n - 2 * l + 2, s, r, w[0], sum(parts), create=True)
                passed[w[1:]] = passed[w[1:]] + v if w[1:] in passed else v
    return passed.get((), 0.0)


def expand(basis, x):
    """Coefficients of `x` against an essential basis: index -> (xi_a, x),
    those above 1e-14."""
    out = {}
    for a, xi in enumerate(basis.vectors):
        c = inner_product(xi, x)
        if abs(c) > 1e-14:
            out[a] = c
    return out


def walk_star_matrix(space, n):
    """The oracle of `weak_hopf._star_matrix`: column a holds the expansion
    of star(xi_a), the reversed walks, against the length-n basis."""
    basis = essential_basis(space, n)
    S = np.zeros((len(basis), len(basis)))
    for a, xi in enumerate(basis.vectors):
        for a2, z in expand(basis, star(xi)).items():
            S[a2, a] = z.real
    return S


def junction_walks(space, xi, omega, n1, l):
    """c_{n1-l} ... c_{n1-1} (xi . omega) as {walk: coefficient}, for xi of
    length n1.  The l annihilations join a walk p of xi and a walk q of
    omega whose last and first l steps retrace each other
    (p[n1 - j] = q[j] for j <= l) into p[:n1 - l + 1] + q[l + 1:], with
    the telescoped weight sqrt(mu[p[n1]] / mu[p[n1 - l]]), so no walk longer
    than the result is formed."""
    heads: dict = {}
    for q, zq in omega.coeffs.items():
        heads.setdefault(q[: l + 1], []).append((q[l + 1 :], zq.real))
    walks: dict = {}
    for p, zp in xi.coeffs.items():
        w = zp.real * space.sqrt_mu[p[n1]] / space.sqrt_mu[p[n1 - l]]  # the basis is real
        for tail, zq in heads.get(p[n1 - l :][::-1], ()):
            walk = p[: n1 - l + 1] + tail
            walks[walk] = walks.get(walk, 0.0) + w * zq
    return walks


def walk_junctions(space, n1, a, n2, c):
    """The oracle of `weak_hopf._junction_arrays` on one key pair: J_l(a, c)
    for l = 0..min(n1, n2) as {e: coordinate} dicts, the coordinates
    against the E_m basis, m = n1 + n2 - 2l, of the walks of
    `junction_walks`, those above 1e-14; () when r(a) != s(c), and {} for an
    m past the top length.  Where lambda_l is singular the coordinates are
    returned as computed, not dropped."""
    left, right = essential_basis(space, n1), essential_basis(space, n2)
    (s, r), (r2, t) = left.endpoints[a], right.endpoints[c]
    if r != r2:
        return ()
    out = []
    for l in range(min(n1, n2) + 1):
        m = n1 + n2 - 2 * l
        if m > space.top_length:
            out.append({})
            continue
        target = essential_basis(space, m)
        walks = junction_walks(space, left.vectors[a], right.vectors[c], n1, l)
        coords = {}
        for e in target.blocks.get((s, t), ()):
            v = target.vectors[e].coeffs
            z = sum(zw * v[walk].real for walk, zw in walks.items() if walk in v)
            if abs(z) > 1e-14:
                coords[e] = z
        out.append(coords)
    return tuple(out)


def reference_projector(space, x, y, memo=None):
    """P(x (x) y) as {(m, e, f): coefficient}, from the paper's formula with
    C evaluated by `coefficient_C`.

    Decompose x and y, expand their essential parts against the bases, and
    pair terms with creation words j (from x) and i (from y) of equal
    length through C(i; j).  `memo` caches the expanded decompositions
    across calls, keyed by the vectors' coefficients.
    """
    memo = {} if memo is None else memo

    def terms(v):
        key = frozenset(v.coeffs.items())
        if key not in memo:
            memo[key] = [
                (w.indices, xi.length, expand(essential_basis(space, xi.length), xi))
                for w, xi in decompose(space, v).terms
            ]
        return memo[key]

    out = {}
    for jw, m, left in terms(x):
        for iw, m2, right in terms(y):
            if len(jw) != len(iw):
                continue
            cij = coefficient_C(space, iw, jw, m)
            for e, ce in left.items():
                for f, cf in right.items():
                    out[m, e, f] = out.get((m, e, f), 0.0) + cij * ce * cf
    return out


def basis_product(space, n1, a, b, n2, c, d):
    """The product (n1, a, b) . (n2, c, d) as {(m, e, f): coefficient},
    through the library's dict product on the two keys: the closed
    junction form sum_l lambda_l(n1, n2) J_l(a, c) (x) J_l(b, d)."""
    return _product(space, {(n1, a, b): 1.0}, {(n2, c, d): 1.0})


def reference_basis_product(space, n1, a, b, n2, c, d, memo=None):
    """The product (n1, a, b) . (n2, c, d) as {(m, e, f): coefficient}:
    `reference_projector` of the slotwise concatenations xi_a xi_c and
    xi_b xi_d.  `memo` caches the concatenations, under their index tuples,
    and the projector's decompositions across calls."""
    memo = {} if memo is None else memo

    def joined(p, q):
        if (n1, p, n2, q) not in memo:
            left, right = essential_basis(space, n1).vectors, essential_basis(space, n2).vectors
            memo[n1, p, n2, q] = concat(left[p], right[q])
        return memo[n1, p, n2, q]

    return reference_projector(space, joined(a, c), joined(b, d), memo)


def word_pair_basis_product(space, n1, a, b, n2, c, d, memo=None):
    """The product (n1, a, b) . (n2, c, d) as {(m, e, f): coefficient},
    through creation words: the projection of xi_a xi_c (x) xi_b xi_d.  Per
    level l, the rows U and V of the two concatenations' word images on
    E_m (`level_images`, and at level 0 the essential coordinates) pair as
    the block U^T G^-1 V on E_m (x) E_m, with G = `word_gram` solved here
    rather than read from the cached inverse.  `memo` caches U and G^-1 U
    of concatenated basis vectors across calls."""
    memo = {} if memo is None else memo
    n = n1 + n2

    def images(p, q):
        """Level l -> (offsets, U, G^-1 U) of xi_p xi_q, {} when it is zero."""
        if (n1, p, n2, q) not in memo:
            x = concat(essential_basis(space, n1).vectors[p], essential_basis(space, n2).vectors[q])
            # a concatenation of basis vectors lies in one block or is zero
            levels = next(iter(_factor_images(space, x)), {})
            memo[n1, p, n2, q] = {
                l: (offsets, u, np.linalg.solve(word_gram(space, n, l), u) if l else u)
                for l, (offsets, u, *_) in levels.items()
            }
        return memo[n1, p, n2, q]

    left, right = images(a, c), images(b, d)
    out = {}
    for l in left.keys() & right.keys():
        (rows, u, _), (cols, _, eta) = left[l], right[l]
        block = u.T @ eta
        for e, f in zip(*np.nonzero(np.abs(block) > 1e-14)):
            out[n - 2 * l, rows[e], cols[f]] = float(block[e, f])
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


def _sup(u, v):
    """Largest coefficient of u - v, for coefficient dicts."""
    return max((abs(u.get(k, 0.0) - v.get(k, 0.0)) for k in u.keys() | v.keys()), default=0.0)


def _each_slot(u, image):
    """(f (x) f) u for a two-slot coefficient dict u, with f(key) a dict."""
    out = {}
    for (p, q), z in u.items():
        for p2, w1 in image(p).items():
            for q2, w2 in image(q).items():
                out[p2, q2] = out.get((p2, q2), 0.0) + z * w1 * w2
    return out


def direct_unary_axioms(space, weight_fn=None):
    """name -> f(x), the residual of one element x under each linear or
    antilinear unary axiom of `verify_axioms`, both sides evaluated on x
    itself through the public maps, the tensor slots one basis element at a
    time."""
    def basis(k):
        return AlgebraElement.basis_element(space, *k)

    one = identity(space)
    S = partial(antipode, weight_fn=weight_fn)

    def star_slots(u):
        """(* (x) *) u: antilinear, so the coefficients are conjugated."""
        return _each_slot({k: z.conjugate() for k, z in u.items()}, lambda k: star_alg(basis(k)).coeffs)

    def delta_on(slot, u):
        out = {}
        for (p, q), z in u.items():
            for (a, b), w in coproduct(basis((p, q)[slot])).coeffs.items():
                key = (a, b, q) if slot == 0 else (p, a, b)
                out[key] = out.get(key, 0.0) + z * w
        return out

    def counit_on(slot, x):
        out = {}
        for (p, q), z in coproduct(x).coeffs.items():
            dropped, kept = (p, q) if slot == 0 else (q, p)
            out[kept] = out.get(kept, 0.0) + z * counit(basis(dropped))
        return out

    return {
        "unit element": lambda x: max((multiply(one, x) - x).sup_norm(), (multiply(x, one) - x).sup_norm()),
        "star involution": lambda x: (star_alg(star_alg(x)) - x).sup_norm(),
        "coproduct star-compatible":
            lambda x: _sup(coproduct(star_alg(x)).coeffs, star_slots(coproduct(x).coeffs)),
        "coassociativity":
            lambda x: _sup(delta_on(0, coproduct(x).coeffs), delta_on(1, coproduct(x).coeffs)),
        "counit left inverse": lambda x: _sup(counit_on(0, x), x.coeffs),
        "counit right inverse": lambda x: _sup(counit_on(1, x), x.coeffs),
        "antipode star double": lambda x: (star_alg(S(star_alg(S(x)))) - x).sup_norm(),
        "antipode coproduct rule": lambda x: _sup(
            coproduct(S(x)).coeffs,
            _each_slot({(q, p): z for (p, q), z in coproduct(x).coeffs.items()},
                       lambda k: S(basis(k)).coeffs)),
        "antipode cancellation": lambda x: sweedler_cancellation(x, weight_fn),
    }


def stacked_star_double(S, W):
    """The reference of `weak_hopf._star_double_residuals`: R[a, b] =
    sup |star(anti(star(anti(e_ab)))) - e_ab|, evaluated as matrix products
    on the stack of all d^2 unit blocks e_ab, with the star
    Z -> S conj(Z) S^T and the antipode Z -> (S (W o Z) S^T)^T."""
    d = len(S)
    units = np.eye(d * d).reshape(d * d, d, d)

    def star(Z):
        return S @ Z.conj() @ S.T

    def anti(Z):
        return np.swapaxes(S @ (W * Z) @ S.T, -1, -2)

    return np.abs(star(anti(star(anti(units)))) - units).max((1, 2), initial=0.0).reshape(d, d)


def meeting_key_pairs(space, max_length):
    """Every pair of basis keys (n1, a, b), (n2, c, d) with n1, n2 <=
    max_length whose endpoints meet, r(a) = s(c) and r(b) = s(d), in the
    order (n1, n2, a, b, c, d)."""
    ends = [essential_basis(space, n).endpoints for n in range(max_length + 1)]
    return [
        ((n1, a, b), (n2, c, d))
        for n1, n2 in itertools.product(range(max_length + 1), repeat=2)
        for a, b in itertools.product(range(len(ends[n1])), repeat=2)
        for c, d in itertools.product(range(len(ends[n2])), repeat=2)
        if ends[n1][a][1] == ends[n2][c][0] and ends[n1][b][1] == ends[n2][d][0]
    ]


def direct_pair_residuals(space, key_pairs, weight_fn=None):
    """name -> the residuals of the four pair axioms on each key pair, both
    sides evaluated through the public maps: Delta(xy) against the
    tensor-square product Delta(x) Delta(y), eps(xy) against its split sum
    eps(x 1_(1)) eps(1_(2) y) over Delta(1), star(xy) against
    star(y) star(x) and S(xy) against S(y) S(x)."""
    def basis(k):
        return AlgebraElement.basis_element(space, *k)

    @lru_cache(maxsize=None)
    def eps(k1, k2):
        return counit(multiply(basis(k1), basis(k2)))

    S = partial(antipode, weight_fn=weight_fn)
    split = list(coproduct(identity(space)).coeffs.items())
    out = {"coproduct multiplicative": [], "counit of product": [],
           "star antihomomorphism": [], "antipode product rule": []}
    for k1, k2 in key_pairs:
        x, y = basis(k1), basis(k2)
        xy = multiply(x, y)
        out["coproduct multiplicative"].append(
            (coproduct(xy) - multiply_tensor_square(coproduct(x), coproduct(y))).sup_norm())
        out["counit of product"].append(abs(eps(k1, k2) - sum(z * eps(k1, t1) * eps(t2, k2) for (t1, t2), z in split)))
        out["star antihomomorphism"].append((star_alg(xy) - multiply(star_alg(y), star_alg(x))).sup_norm())
        out["antipode product rule"].append((S(xy) - multiply(S(y), S(x))).sup_norm())
    return out


def counit_gram_residuals(space, keys):
    """The residual of counit positivity on each key, and the eigenvalues of
    the Hermitian part of the Gram matrix G[k, k'] = eps(k k'*) over `keys`,
    built through the public maps.  eps(x x*) = w^H G w for x = sum z_k k
    and w = conj(z), so it is real and nonnegative for every x exactly when
    G is Hermitian and its Hermitian part H is positive semidefinite.  A key
    reads the larger of -lambda_min (|v_k| / max |v|)^2, v the eigenvector
    of lambda_min, the smallest eigenvalue of H, and the row maximum of
    |G - G^H|, or 0 when both are negative: the worst key reads the larger
    of -lambda_min and max |G - G^H|."""
    basis = [AlgebraElement.basis_element(space, *k) for k in keys]
    stars = [star_alg(x) for x in basis]
    G = np.array([[counit(multiply(x, y)) for y in stars] for x in basis])
    values, vectors = np.linalg.eigh((G + G.conj().T) / 2)
    weights = np.abs(vectors[:, 0]) / np.abs(vectors[:, 0]).max()
    residuals = np.maximum(-values[0] * weights**2, np.abs(G - G.conj().T).max(1))
    return np.maximum(residuals, 0.0), values


def direct_axiom_residuals(space, max_length, samples, seed, weight_fn=None):
    """name -> (residual, checked, witness) of `verify_axioms`, evaluated
    element by element: the same pool drawn from the same seed, but only
    its basis keys for the nine linear unary axioms and every meeting key
    pair for the four pair axioms, every axiom evaluated
    directly on each key, element or tuple through the public maps, and the
    witness taken from the first one in pool order that reaches the worst
    to a relative 1e-9.  Counit positivity is read off the full Gram matrix
    G[k, k'] = eps(k k'*) over every key (`counit_gram_residuals`)."""
    keys = [
        (n, a, b)
        for n in range(max_length + 1)
        for a in range(len(essential_basis(space, n)))
        for b in range(len(essential_basis(space, n)))
    ]
    rng = np.random.default_rng(seed)
    randoms = [_random_element(space, keys, rng) for _ in range(samples)]
    singles = [AlgebraElement.basis_element(space, *k) for k in keys] + randoms
    for _ in range(2 * samples):  # the verifier's unused pair draw, so that the triples match
        rng.integers(len(singles))
    triples = [tuple(singles[int(rng.integers(len(singles)))] for _ in range(3)) for _ in range(samples)]
    singles = [(x,) for x in singles]

    unary = direct_unary_axioms(space, weight_fn)

    checks = {
        "product associativity": (triples, lambda x, y, z: (
            multiply(multiply(x, y), z) - multiply(x, multiply(y, z))).sup_norm()),
    }
    checks.update((name, (singles[: len(keys)], fn)) for name, fn in unary.items())
    residuals = {name: (pool, [fn(*args) for args in pool]) for name, (pool, fn) in checks.items()}
    positivity, spectrum = counit_gram_residuals(space, keys)
    residuals["counit positivity"] = (singles[: len(keys)], positivity.tolist())
    key_pairs = meeting_key_pairs(space, max_length)
    pool = [tuple(AlgebraElement.basis_element(space, *k) for k in pair) for pair in key_pairs]
    residuals.update((name, (pool, r)) for name, r in direct_pair_residuals(space, key_pairs, weight_fn).items())
    out = {}
    for name, (pool, values) in residuals.items():
        # the first tuple within rounding (a relative 1e-9) of the worst
        worst = max(values)
        at = next(i for i, v in enumerate(values) if v >= worst * (1 - 1e-9))
        witness = tuple(tuple(sorted(x.coeffs)) for x in pool[at])
        out[name] = (worst, len(pool), witness)
    if spectrum[1] - spectrum[0] <= 1e-9 * abs(spectrum[0]):  # lambda_min is not simple: no witness to compare
        out["counit positivity"] = (*out["counit positivity"][:2], None)
    return out


def loop_key_center(space):
    """The center of the algebra of a finite graph, on its loop keys.

    The keys of length <= 1 generate the algebra (the top-length part of a
    product of length-1 keys is the projection of their concatenation onto
    E_n), and a central element commutes with every length-0 key, so it is
    a combination of loop keys (n, a, b), those with s(a) = r(a) and
    s(b) = r(b).  The center is the common kernel, on the loop keys, of
    [g, .] over the keys g of length <= 1: the kernel of
    K = sum_g ad(g)^T ad(g), with every product from `_product`.  Returns
    the loop keys, the eigenvalues of K in increasing order and its
    orthonormal eigenvectors as columns, over the loop keys.
    """
    top = coxeter_info(space.spectrum).max_essential_length
    loops, generators = [], []
    for n in range(top + 1):
        ends = essential_basis(space, n).endpoints
        cycles = [a for a, (s, r) in enumerate(ends) if s == r]
        loops += [(n, a, b) for a in cycles for b in cycles]
        if n <= 1:
            generators += [(n, a, b) for a in range(len(ends)) for b in range(len(ends))]
    gram = np.zeros((len(loops), len(loops)))
    for g in generators:
        rows: dict = {}
        entries = []
        for j, k in enumerate(loops):
            left, right = _product(space, {g: 1.0}, {k: 1.0}), _product(space, {k: 1.0}, {g: 1.0})
            for key in left.keys() | right.keys():
                entries.append((rows.setdefault(key, len(rows)), j, left.get(key, 0.0) - right.get(key, 0.0)))
        ad = np.zeros((len(rows), len(loops)))
        for i, j, z in entries:
            ad[i, j] += z.real
        gram += ad.T @ ad
    values, vectors = np.linalg.eigh(gram)
    return loops, values, vectors


def loop_key_products(space, loops, x, y):
    """The products x[:, i] . y[:, j] of columns over the loop keys, as an
    array [k, i, j] over the loop keys; raises if a product leaves them.
    Only keys whose loops sit at the same two vertices have a product."""
    where = {k: i for i, k in enumerate(loops)}
    at = [tuple(essential_basis(space, n).endpoints[a][0] for a in (a, b)) for n, a, b in loops]
    out = np.zeros((len(loops), x.shape[1], y.shape[1]))
    for p, k1 in enumerate(loops):
        for q, k2 in enumerate(loops):
            if at[p] != at[q]:
                continue
            for key, z in _product(space, {k1: 1.0}, {k2: 1.0}).items():
                out[where[key]] += z.real * np.outer(x[p], y[q])
    return out
