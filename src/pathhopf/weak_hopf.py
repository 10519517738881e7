"""Weak *-Hopf algebra on graded endomorphisms of essential paths.

Elements live in the direct sum over n of E_n (x) E_n, stored sparsely
against the orthonormal essential bases under keys (n, a, b) for
xi_a (x) xi_b.  The product concatenates slotwise and projects back onto
essentials.  On basis keys it has the closed junction form
(n1,a,b) . (n2,c,d) = sum_l lambda_l(n1, n2) J_l(a, c) (x) J_l(b, d):
J_l holds the E_m coordinates, m = n1 + n2 - 2l, of xi_a . xi_c after the
l annihilations at the junction, and lambda_l is a ratio of q-binomials in
beta, 0 where it is singular on a finite graph (there J_l vanishes).
The J_l of each pair of lengths are dense arrays, cached on the space and
built with no walk from the bases' Bratteli coordinates, up to
`PathSpace.top_length` (`_junction_arrays`).  A term is nonzero only when
r(a) = s(c) and r(b) = s(d), so `multiply` multiplies only the pairs whose
endpoints meet, through the arrays' nonzero entries (`_junction_rows`);
`multiply_tensor_square` multiplies slot by slot through the same product.
`projector_P` projects arbitrary path pairs: per level it pairs the
essential coordinates of the two factors' creation word images through the
inverse word-Gram matrix, U^T G^-1 V, by `essential_decomp.pair_levels`.

The star and the antipode are one sum over the nonzero entries of the
star matrix S of each length, built from the one below
(`_star_matrix`, `_starred`): (n, a, b) goes to
S[a', a] S[b', b] (n, a', b'), and the antipode swaps the slots and scales
by its endpoint factor (`_pf_weight`).  The coproduct splits each key over
the full basis of its length, and the counit is the diagonal sum.

`verify_axioms` checks the nine linear unary axioms per length, on the
blocks X[a, b] of the keys (n, a, b) (`_unary_residuals`): the maps
written on the structure constants (S, the endpoint weights, the junction
arrays and lambda), not the public maps above, "antipode star double"
evaluated on the stack of every basis key and eight read per key in
closed form.  Two of those eight, the unit element and the star
involution, are maps Z -> Q Z Q^T whose residual on a unit block is read
off Q (`_conjugation_residuals`); the two counit laws read the public
`counit` of each key, and coassociativity is an identity of the
verifier's form Delta(X) = X (x) I, so it reads 0.  Each is linear or
antilinear, so the keys bound every element's residual and no sampled
element adds a check.  From the junction arrays come, in closed form,
coproduct multiplicativity and the counit of a product on every pair of
basis keys whose endpoints meet (`_key_pair_residuals`); both are
bilinear, so the key pairs cover every pair of elements.  Counit
positivity holds on every element exactly when the Gram matrix
G[k, k'] = eps(k k'*), contracted from the same counits, is symmetric and
positive semidefinite: one eigenvalue solve.  The other three axioms, in
two or three arguments, are evaluated on sampled coefficient dicts through
`_product` and `_starred`, the cores of the maps above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import BasisError, CutoffError, PathHopfError
from .essential_decomp import essential_basis, pair_levels
from .path_space import (
    PathSpace,
    PathVector,
    SparseCoefficients,
    inner_product,
)


class AlgebraElement(SparseCoefficients):
    """Sparse element of (+)_n E_n (x) E_n: AlgebraElement(space, coeffs).

    Keys are (length, left basis index, right basis index) against
    `essential_basis(space, length)`.
    """

    __slots__ = ("space",)
    _tag = "space"
    prune = 1e-14

    @classmethod
    def basis_element(cls, space, n, a, b) -> "AlgebraElement":
        return cls(space, {(n, a, b): 1.0})

    def __repr__(self):
        return f"AlgebraElement({len(self.coeffs)} terms)"


class TensorSquare(SparseCoefficients):
    """Sparse element of the two-fold tensor power; keys are pairs of
    (length, left index, right index) triples."""

    __slots__ = ("space",)
    _tag = "space"
    prune = 1e-14

    def __repr__(self):
        return f"TensorSquare({len(self.coeffs)} terms)"


# -- contraction coefficients -------------------------------------------------


def coefficient_C(space: PathSpace, i_indices, j_indices, base_length: int) -> complex:
    """The contraction scalar C(i_1..i_n; j_n..j_1) on essentials of `base_length`.

    The direct definition, by operator application to one essential basis
    vector: apply the creations j_1, ..., j_n in increasing order, then the
    annihilations i_n, ..., i_1, and pair with the same vector; index tuples
    of unequal lengths give 0.  The value is independent of the chosen
    basis vector; a second one is checked when available and a discrepancy
    raises `BasisError`.  No product or projection calls it: the tests keep
    it as the reference for `word_gram` and `projector_P`.
    """
    cache = space.cache.setdefault("coefficient_C", {})
    i_indices, j_indices = tuple(map(int, i_indices)), tuple(map(int, j_indices))
    cache_key = (i_indices, j_indices, base_length)
    if cache_key in cache:
        return cache[cache_key]
    if len(i_indices) != len(j_indices):
        cache[cache_key] = 0j
        return 0j
    basis = essential_basis(space, base_length)
    if not basis.vectors:
        raise BasisError(f"no essential paths of length {base_length}")
    values = []
    for xi in basis.vectors[:2]:
        y = xi
        for j in j_indices:
            y = space.create(j, y)
        for i in reversed(i_indices):
            y = space.annihilate(i, y)
        values.append(inner_product(y, xi))
    if len(values) == 2 and abs(values[0] - values[1]) > 1e-9:
        raise BasisError(
            f"contraction C{cache_key} differs across basis vectors: {values}"
        )
    cache[cache_key] = values[0]
    return values[0]


# -- the projection onto essential endomorphisms ------------------------------


def projector_P(space: PathSpace, left: PathVector, right: PathVector) -> AlgebraElement:
    """Project a graded path endomorphism onto essential endomorphisms.

    Both factors split into creation words over essentials; a term pair
    with words j (left) and i (right) of equal length l contributes
    C(i; j) eta_j (x) eta'_i, and pairs of unequal word length contribute
    nothing.  Since C(i; j) = G[j, i] for the word-Gram matrix G =
    `word_gram(space, n, l)` and the essential parts are eta = G^-1 U, each
    pair of (source, range) blocks and each level l adds the E_m (x) E_m
    block U^T G^-1 V, m = n - 2l, where the rows of U and V are the
    essential coordinates B_m^T c_w of the two factors (`level_images`);
    at l = 0 it is U^T V.  Idempotent, but not an orthogonal projection.
    """
    if left.length != right.length:
        raise ValueError("projector factors must have equal path length")
    return AlgebraElement(space, pair_levels(space, left, right))


# -- product ------------------------------------------------------------------


def _q_integers(beta: float, top: int) -> list:
    """[0], ..., [top], with [0] = 0, [1] = 1 and [k + 1] = beta [k] - [k - 1]."""
    q = [0.0, 1.0]
    while len(q) <= top:
        q.append(beta * q[-1] - q[-2])
    return q[: top + 1]


@lru_cache(maxsize=1024)
def _junction_scalars(beta: float, n1: int, n2: int) -> tuple:
    """lambda_l = [n1 choose l] [n2 choose l] / [n1 + n2 - l + 1 choose l]
    = prod_{i < l} [n1 - i] [n2 - i] / ([l - i] [n1 + n2 - l + 1 - i]) in
    q-integers, for l = 0..min(n1, n2).  0 where the denominator vanishes,
    which happens only on a finite graph, through [h] = 0."""
    q = _q_integers(beta, n1 + n2 + 1)
    out = []
    for l in range(min(n1, n2) + 1):
        den = [q[l - i] * q[n1 + n2 - l + 1 - i] for i in range(l)]
        if any(abs(d) < 1e-9 for d in den):
            out.append(0.0)
        else:
            out.append(math.prod(q[n1 - i] * q[n2 - i] / d for i, d in enumerate(den)))
    return tuple(out)


def _check_cutoff(space, n1, n2) -> None:
    """Refuse a product of lengths n1 and n2 whose longest built length,
    min(n1 + n2, h - 2) on a finite graph and n1 + n2 on an affine one,
    exceeds the cutoff."""
    if n1 + n2 > space.cutoff and space.top_length > space.cutoff:
        raise CutoffError(f"product of lengths {n1}+{n2} exceeds the cutoff {space.cutoff}")


def _junction_arrays(space, n1, n2) -> list:
    """J_l(a, c) for l = 0..min(n1, n2) as dense arrays [a, c, e]: the E_m
    coordinates, m = n1 + n2 - 2l, of c_{n1-l} ... c_{n1-1} (xi_a . xi_c),
    0 where r(a) != s(c), entries at or below 1e-14 dropped; no e (and no
    E_m built) for an m past the top length.  Where lambda_l is singular,
    J_l must vanish and is stored as 0; a nonzero one raises `BasisError`.
    Cached under "junctions" and built with no walk from the bases' signed
    `append` A and `prepend` P: splitting off the last edges of xi_c and
    xi_e, J_0^(n1,n2)[a, c, e] = [r(c) = r(e)] sum_{b,f} A_n2[c, b]
    A_m[e, f] J_0^(n1,n2-1)[a, b, f] from J_0^(n1,0)[a, t, e] =
    delta_ae [r(a) = t]; and the first contraction retraces the last edge
    of xi_a with the first of xi_c, so for l >= 1 J_l^(n1,n2)[a, c, e] =
    [r(a) = s(c)] sum_{b,f} A_n1[a, b] sqrt(mu[r(a)] / mu[r(b)]) P_n2[c, f]
    J_(l-1)^(n1-1,n2-1)[b, f, e]."""
    cache = space.cache.setdefault("junctions", {})
    if (n1, n2) not in cache:
        left, right = essential_basis(space, n1), essential_basis(space, n2)
        ranges, sources = [r for _, r in left.endpoints], [s for s, _ in right.endpoints]
        out = []
        for l, scalar in enumerate(_junction_scalars(space.beta, n1, n2)):
            m = n1 + n2 - 2 * l
            if m > space.top_length:
                J = np.zeros((len(left), len(right), 0))
            elif l:
                root = np.asarray(space.sqrt_mu)
                below = [r for _, r in essential_basis(space, n1 - 1).endpoints]
                step = left.append * root[ranges][:, None] / root[below]  # sqrt(mu[r(a)] / mu[r(b)]) A[a, b]
                J = right.prepend @ np.tensordot(step, _junction_arrays(space, n1 - 1, n2 - 1)[l - 1], 1)
                J *= np.equal.outer(ranges, sources)[:, :, None]
            elif n2:
                target = essential_basis(space, m)
                J = right.append @ (_junction_arrays(space, n1, n2 - 1)[0] @ target.append.T)
                J *= np.equal.outer([r for _, r in right.endpoints], [r for _, r in target.endpoints])
            else:
                J = np.eye(len(left))[:, None, :] * np.equal.outer(ranges, range(len(right)))[:, :, None]
            J[np.abs(J) <= 1e-14] = 0.0
            if scalar == 0 and np.abs(J).max(initial=0.0) > 1e-9:
                raise BasisError(f"junction {l} of lengths {n1} and {n2} is nonzero where lambda is singular")
            out.append(J if scalar else 0.0 * J)
        cache[n1, n2] = out
    return cache[n1, n2]


def _junction_rows(space, n1, n2) -> dict:
    """The nonzero entries of `_junction_arrays(space, n1, n2)`, read in one
    pass for the dict product: (a, c) -> one list of (e, J_l[a, c, e]) per
    level, and no (a, c) whose junctions all vanish.  Cached."""
    cache = space.cache.setdefault("junction_rows", {})
    if (n1, n2) not in cache:
        arrays, rows = _junction_arrays(space, n1, n2), {}
        for l, J in enumerate(arrays):
            index = np.nonzero(J)
            for a, c, e, z in zip(*(i.tolist() for i in index), J[index].tolist()):
                if (a, c) not in rows:
                    rows[a, c] = [[] for _ in arrays]
                rows[a, c][l].append((e, z))
        cache[n1, n2] = rows
    return cache[n1, n2]


def _meeting_pairs(space, left: dict, right: dict):
    """The term pairs (kl, zl, kr, zr) whose endpoints meet, r(a) = s(c) and
    r(b) = s(d) for (n1, a, b) . (n2, c, d): the only pairs with nonzero
    products.  The right terms are indexed by their sources, so each left
    term looks up only its partners.  Raises `CutoffError` first when the
    longest terms are too long to multiply, whether their endpoints meet or
    not."""
    if left and right:
        _check_cutoff(space, max(left)[0], max(right)[0])  # the largest key (n, a, b) has the largest n
    endpoints: dict = {}  # n -> the endpoints of E_n
    partners: dict = {}
    for kr, zr in right.items():
        n, c, d = kr
        ends = endpoints.get(n) or endpoints.setdefault(n, essential_basis(space, n).endpoints)
        partners.setdefault((ends[c][0], ends[d][0]), []).append((kr, zr))
    for kl, zl in left.items():
        n, a, b = kl
        ends = endpoints.get(n) or endpoints.setdefault(n, essential_basis(space, n).endpoints)
        for kr, zr in partners.get((ends[a][1], ends[b][1]), ()):
            yield kl, zl, kr, zr


def multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Bilinear product: concatenate slotwise, then project onto essentials.

    The output of length-n1 by length-n2 elements spreads over lengths
    n1 + n2 - 2l (the algebra is filtered, not graded), by the junction form
    of the basis products (`_product`).  Only term pairs whose endpoints
    meet are multiplied, after a `CutoffError` check that covers every pair.
    """
    return AlgebraElement(x.space, _product(x.space, x.coeffs, y.coeffs))


def _pruned(coeffs: dict) -> dict:
    """`coeffs` less its terms at or below `AlgebraElement.prune`."""
    return {k: z for k, z in coeffs.items() if abs(z) > AlgebraElement.prune}


def _product(space, left: dict, right: dict) -> dict:
    """`multiply` on coefficient dicts, pruned as an `AlgebraElement` is:
    each meeting pair adds zx zy times its basis product, whose terms at or
    below 1e-14 are dropped, read off `_junction_rows` and
    `_junction_scalars`, fetched once per pair of lengths."""
    out: dict = {}
    tables: dict = {}
    for (n1, a, b), zx, (n2, c, d), zy in _meeting_pairs(space, left, right):
        if (n1, n2) not in tables:
            tables[n1, n2] = _junction_rows(space, n1, n2), _junction_scalars(space.beta, n1, n2)
        rows, scalars = tables[n1, n2]
        z = zx * zy
        for l, (jl, jr) in enumerate(zip(rows.get((a, c), ()), rows.get((b, d), ()))):
            m, scalar = n1 + n2 - 2 * l, scalars[l]
            for e, ze in jl:
                ze = scalar * ze
                for f, zf in jr:
                    zc = ze * zf
                    if abs(zc) > 1e-14:
                        k = m, e, f
                        out[k] = out.get(k, 0.0) + z * zc
    return _pruned(out)


def identity(space: PathSpace) -> AlgebraElement:
    """The unit: the sum of v (x) v' over all ordered pairs of length-0
    basis vectors."""
    dim = len(essential_basis(space, 0))
    return AlgebraElement(
        space, {(0, a, b): 1.0 for a in range(dim) for b in range(dim)}
    )


# -- star, coproduct, counit, antipode ---------------------------------------------


def _star_matrix(space, n):
    """The length-n star matrix S, real: column a holds the coordinates of
    star(xi_a), entries at or below 1e-14 dropped.  As star(xi_b . (r(b) ->
    r(a))) = (r(a) -> r(b)) . star(xi_b), S_n = [s(a') = r(a)] P S_(n-1) A^T
    with the basis's `prepend` P and `append` A, from S_0 = I; cached under
    "star_columns", filled in order from 0."""
    cache = space.cache.setdefault("star_columns", {})
    while n not in cache:
        k = len(cache)
        basis = essential_basis(space, k)
        S = np.eye(len(basis))
        if k:
            S = basis.prepend @ cache[k - 1] @ basis.append.T
            S *= np.equal.outer([s for s, _ in basis.endpoints], [r for _, r in basis.endpoints])
            S[np.abs(S) <= 1e-14] = 0.0
        cache[k] = S
    return cache[n]


def _pf_weight(space, s_left, r_left, s_right, r_right) -> float:
    mu = space.mu
    return math.sqrt((mu[s_right] * mu[r_left]) / (mu[r_right] * mu[s_left]))


def _starred(space, coeffs: dict, weight=None) -> dict:
    """sum z F S[a', a] S[b', b] over the keys (n, a, b) of `coeffs` and the
    nonzero entries of the star matrix's columns a and b, which are kept per
    length: the star of both slots under (n, a', b') with F = 1, or, given
    `weight`, the slots swapped, under (n, b', a'), with F =
    weight(s(a), r(a), s(b), r(b)) per key; pruned as an `AlgebraElement`
    is."""
    cache = space.cache.setdefault("star_nonzero", {})
    out: dict = {}
    endpoints: dict = {}  # n -> the endpoints of E_n, for the weight
    for (n, a, b), z in coeffs.items():
        if n not in cache:
            cache[n] = [[(i, s) for i, s in enumerate(c) if s] for c in _star_matrix(space, n).T.tolist()]
        columns, f = cache[n], 1.0
        if weight:
            ends = endpoints.get(n) or endpoints.setdefault(n, essential_basis(space, n).endpoints)
            f = weight(*ends[a], *ends[b])
        for a2, sa in columns[a]:
            for b2, sb in columns[b]:
                k = (n, b2, a2) if weight else (n, a2, b2)
                out[k] = out.get(k, 0.0) + z * (f * (sa * sb))
    return _pruned(out)


def _conjugate(coeffs: dict) -> dict:
    return {k: z.conjugate() for k, z in coeffs.items()}


def star_alg(x: AlgebraElement) -> AlgebraElement:
    """Involution: time-reverse both slots, conjugate coefficients.

    Antilinear, involutive, and an antihomomorphism for `multiply`.
    """
    return AlgebraElement(x.space, _starred(x.space, _conjugate(x.coeffs)))


def coproduct(x: AlgebraElement) -> TensorSquare:
    """Split each xi_a (x) xi_b into the sum over the full same-length basis
    of (xi_a (x) xi_c) boxtimes (xi_c (x) xi_b)."""
    return TensorSquare(x.space, {
        ((n, a, c), (n, c, b)): z
        for (n, a, b), z in x.coeffs.items()
        for c in range(len(essential_basis(x.space, n)))
    })


def counit(x: AlgebraElement) -> complex:
    """The pairing of the two slots; the sum of diagonal coefficients for an
    orthonormal basis."""
    return sum(z for (n, a, b), z in x.coeffs.items() if a == b) + 0j


def multiply_tensor_square(u: TensorSquare, v: TensorSquare) -> TensorSquare:
    """Slotwise product (p boxtimes q)(r boxtimes s) = pr boxtimes qs.

    Each slot multiplies the meeting pairs of its keys as `multiply` does,
    one slot at a time, so a `CutoffError` in either slot is raised even
    where the other slot's endpoints do not meet."""
    space = u.space
    slots = [
        {(k1, k2): _product(space, {k1: 1.0}, {k2: 1.0}) for k1, _, k2, _ in _meeting_pairs(
            space, dict.fromkeys(k[i] for k in u.coeffs), dict.fromkeys(k[i] for k in v.coeffs))}
        for i in (0, 1)
    ]
    out: dict = {}
    for (p, q), zu in u.coeffs.items():
        for (r, s), zv in v.coeffs.items():
            for k1, z1 in slots[0].get((p, r), {}).items():
                for k2, z2 in slots[1].get((q, s), {}).items():
                    out[k1, k2] = out.get((k1, k2), 0.0) + zu * zv * z1 * z2
    return TensorSquare(space, out)


def antipode(x: AlgebraElement, weight_fn=None) -> AlgebraElement:
    """S(xi (x) omega) = F(xi, omega) omega* (x) xi*.

    F is the Perron-Frobenius endpoint ratio
    sqrt(mu[s(omega)] mu[r(xi)] / (mu[r(omega)] mu[s(xi)])); `weight_fn`
    replaces it (same four endpoint arguments) for perturbation studies.
    """
    weight = weight_fn or partial(_pf_weight, x.space)
    return AlgebraElement(x.space, _starred(x.space, x.coeffs, weight))


# -- axiom verification -----------------------------------------------------------


@dataclass(frozen=True)
class AxiomResult:
    """The worst residual of one axiom over its `checked` keys or
    tuples, and `witness`: the sorted basis keys of each argument of the
    first one in pool order within a relative 1e-9 of it, or () when the
    residual is at most the tolerance times 1e-3 (`_worst`)."""

    name: str
    residual: float
    checked: int = 0
    witness: tuple = ()

    def passed(self, tolerance: float) -> bool:
        return self.residual <= tolerance


@dataclass(frozen=True)
class VerificationReport:
    graph: str
    max_length: int
    samples: int
    seed: int
    tolerance: float
    results: tuple[AxiomResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed(self.tolerance) for r in self.results)

    def residual(self, name: str) -> float:
        for r in self.results:
            if r.name == name:
                return r.residual
        raise KeyError(name)


def _random_element(space, pool, rng) -> AlgebraElement:
    # support 3..8 keeps elements sparse but makes endpoint matches (hence
    # nonvanishing products) likely in the pairwise and triple sweeps
    count = int(rng.integers(3, 9))
    picks = rng.choice(len(pool), size=min(count, len(pool)), replace=False)
    return AlgebraElement(space, dict(zip((pool[p] for p in picks), rng.standard_normal(len(picks)))))


def _sup(x):
    """The largest modulus in each element of a batch, 0 for an empty one;
    a real batch takes no |x| copy."""
    axes = tuple(range(1, x.ndim))
    if np.iscomplexobj(x):
        return np.abs(x).max(axis=axes, initial=0.0)
    return np.maximum(x.max(axis=axes, initial=0.0), np.abs(x.min(axis=axes, initial=0.0)))


def _key_pair_residuals(space, n1, n2) -> tuple:
    """The key pairs (n1, a, b), (n2, c, d) whose endpoints meet, r(a) = s(c)
    and r(b) = s(d), the residuals of "coproduct multiplicative" and
    "counit of product" on every pair, and eps((n1, a, b) (n2, c, d)) on
    every pair, as arrays [a, b, c, d].

    On one pair the (l, l') tensor-square block of Delta(xy) -
    Delta(x) Delta(y) is -lambda_l J_l(a, c) (x) J_l'(b, d) (x) D_ll', with
    D_ll' = lambda_l' K - delta_ll' 1 and K[f, f'] = sum_{c1, c2}
    J_l(c1, c2)[f] J_l'(c1, c2)[f']: Delta(x) Delta(y) joins the split
    indices c1 of x and c2 of y at both levels, Delta(xy) splits the product
    at one.  Distinct (l, l') fill distinct blocks, so the sup is the largest
    |lambda_l| u_l[a, c] u_l'[b, d] sup |D_ll'|, u_l = max_e |J_l|.  The
    counit eps(xy) = sum_l lambda_l <J_l(a, c), J_l(b, d)>; its split
    sum eps(x 1_(1)) eps(1_(2) y) over Delta(1) = sum (0, s, u) (x) (0, u, t)
    is 1 where a = b, c = d and r(a) = s(c), and 0 elsewhere, by the unit
    law that "unit element" checks.
    """
    Js = _junction_arrays(space, n1, n2)
    d1, d2 = Js[0].shape[:2]
    Ms = [J.reshape(d1 * d2, J.shape[2]) for J in Js]  # rows a * d2 + c
    scalars = _junction_scalars(space.beta, n1, n2)
    u = [np.abs(J).max(2, initial=0.0) for J in Js]
    delta_sup, eps = np.zeros((d1, d1, d2, d2)), np.zeros((d1 * d2, d1 * d2))
    for l, A in enumerate(Ms):
        eps += scalars[l] * A @ A.T
        right = 0.0  # max over l' of sup |D_ll'| u_l'
        for l2, B in enumerate(Ms):
            D = scalars[l2] * (A.T @ B) - (l == l2) * np.eye(A.shape[1], B.shape[1])
            right = np.maximum(right, np.abs(D).max(initial=0.0) * u[l2])
        delta_sup = np.maximum(delta_sup, abs(scalars[l]) * u[l][:, None, :, None] * right[None, :, None, :])
    ranges = [r for _, r in essential_basis(space, n1).endpoints]
    sources = [s for s, _ in essential_basis(space, n2).endpoints]
    ends = np.equal.outer(ranges, sources)
    meet = ends[:, None, :, None] & ends[None, :, None, :]
    split = np.eye(d1, dtype=bool)[:, :, None, None] & np.eye(d2, dtype=bool) & meet
    eps = eps.reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3)
    residual = eps - split
    return meet, delta_sup, np.abs(residual, out=residual), eps


def _conjugation_residuals(Q) -> np.ndarray:
    """R[a, b] = sup |Q e_ab Q^T - e_ab| for every unit block e_ab, in
    closed form: Q e_ab Q^T = Q[:, a] Q[:, b]^T, so R[a, b] is the largest
    of |Q[a, a] Q[b, b] - 1|, off[a] col[b] and col[a] off[b], where col is
    the column maximum of |Q| and off the same maximum without the
    diagonal."""
    col = np.abs(Q).max(0, initial=0.0)
    off = np.abs(Q - np.diag(np.diag(Q))).max(0, initial=0.0)
    diagonal = np.abs(np.outer(np.diag(Q), np.diag(Q)) - 1)
    return np.maximum(diagonal, np.maximum(np.outer(off, col), np.outer(col, off)))


def _unary_residuals(space, n, weight_fn=None) -> dict:
    """The nine linear unary axioms at length n: name -> R, with R[a, b] the
    residual of the basis key (n, a, b).

    A block X[a, b] holds the coefficients of the keys (n, a, b).  On blocks
    the star is S conj(X) S^T (star matrix S), the antipode
    (S (W o X) S^T)^T (endpoint weights W, one call of the weight per pair
    of blocks) and Delta(X)[a, c, c', b] = X[a, b] delta[c, c'].  A residual
    is the sup of the difference of the axiom's two sides.  Each axiom is
    linear or antilinear, so an element's residual is at most
    sum |z_k| R[k] over its keys k, and 0 exactly when every R[k] is: the
    keys are the whole check.  "antipode star double" is one evaluation
    on the stack of all d^2 unit blocks; a user's weight need not be rank
    one, so it has no closed form.  The other eight are read per key in
    closed form: "unit element" (1 X = left^T X left and X 1 = right^T X
    right) and "star involution" (S conj(S conj(X) S^T) S^T, Q = S conj(S))
    are X -> Q X Q^T, read by `_conjugation_residuals`; the star
    compatibility of Delta and "antipode coproduct rule" on e_ab are
    S[:, a] S[:, b]^T times a split-point factor, whose sup is the product
    of the factors' sups; the counit laws pair Delta(e_ab) with
    E[a, c] = `counit`(e_ac), the public map; coassociativity is an identity
    of the Delta form, 0; and "antipode cancellation" on e_ab is
    sum_c' R[a, c'] (x) e_c'b, with R[a, c'] = m (S (x) id) Delta(e_ac')
    less the unit's part (x 1_(2) keeps b by the right unit law, which
    "unit element" checks), whose sup depends on a alone.
    """
    basis = essential_basis(space, n)
    d, k, f = len(basis), len(basis.blocks), weight_fn or partial(_pf_weight, space)
    at = np.repeat(np.arange(k), [len(v) for v in basis.blocks.values()])  # the block of each index
    W = np.array([[f(*p, *q) for q in basis.blocks] for p in basis.blocks]).reshape(k, k)[np.ix_(at, at)]
    S, one = _star_matrix(space, n), np.eye(d)
    units = np.eye(d * d).reshape(d * d, d, d)
    left = _junction_arrays(space, 0, n)[0].sum(0)  # 1 X = left^T X left
    ends = _junction_arrays(space, n, 0)[0]  # [a, t, e]: (n, a, .) (0, t, .) = (n, e, .)
    right = ends.sum(1)  # X 1 = right^T X right

    def star(Z):
        return S @ Z.conj() @ S.T

    def anti(Z):
        return np.swapaxes(S @ (W * Z) @ S.T, -1, -2)

    out = {
        "unit element": np.maximum(_conjugation_residuals(left.T), _conjugation_residuals(right.T)),
        "star involution": _conjugation_residuals(S @ S.conj()),
        "antipode star double": _sup(star(anti(star(anti(units)))) - units).reshape(d, d),
    }

    # both sides of star-compatibility are x* on the outer indices, times I
    # or S S^T at the split point; on e_ab x* is S[:, a] S[:, b]^T
    column = np.abs(S).max(0, initial=0.0)
    sides = column[:, None] * column  # sup |S e_ab S^T|
    out["coproduct star-compatible"] = sides * np.abs(one - S @ S.T).max(initial=0.0)
    # coassociativity is an identity of Delta(X) = X (x) I: both sides are
    # X[a, b] times I at each of the two split points
    out["coassociativity"] = np.zeros((d, d))
    # the counit laws read the public counit, E[a, b] = eps(e_ab):
    # (eps (x) id) Delta(e_ab) = sum_c E[a, c] e_cb and
    # (id (x) eps) Delta(e_ab) = sum_c E[c, b] e_ac
    E = np.array([[counit(AlgebraElement._adopt(space, {(n, a, b): 1 + 0j})) for b in range(d)]
                  for a in range(d)])
    off = np.abs(E.reshape(d, d) - one)
    out["counit left inverse"] = np.broadcast_to(off.max(1, initial=0.0)[:, None], (d, d))
    out["counit right inverse"] = np.broadcast_to(off.max(0, initial=0.0), (d, d))

    # Delta(S X) - (S (x) S) tau Delta(X) on the legs (a', b', c2, c3) is the
    # sum over k of S (Wk[k] o X) S^T (x) G[k]: first Wk = W with G = I,
    # then for each c, Wk = W[a, c] W[c, b] with G = -S[:, c] S[:, c]^T; on
    # e_ab it is (S e_ab S^T) (x) M[a, b]
    Wk = np.concatenate([W[None], W.T[:, :, None] * W[:, None, :]])
    G = np.concatenate([one[None], -S.T[:, :, None] * S.T[:, None, :]]).reshape(d + 1, d * d)
    M = np.abs(np.tensordot(Wk, G, (0, 0))).max(2, initial=0.0)
    out["antipode coproduct rule"] = sides * M

    # m (S (x) id) Delta(e_ac') = sum_c S(e_ac) e_cc' has at each l the terms
    # V[a, e] A[a, c', f] (m, e, f), with V = lambda_l W B, B[c, e] =
    # sum_q S[q, c] J_l[q, c, e] and A[a, c', f] = sum_p S[p, a] J_l[p, c', f],
    # whose sup is sup |V[a]| sup |A[a]|; at m = 0 (l = n) the unit's
    # sum_{s, t} (0, s, t) J_0(a, t)[c'] is taken off first
    sups = []
    for l, (z, J) in enumerate(zip(_junction_scalars(space.beta, n, n), _junction_arrays(space, n, n))):
        V, A = z * W @ np.einsum("qc,qce->ce", S, J), np.einsum("pa,pcf->acf", S, J)
        if l < n:
            sups.append(_sup(V) * _sup(A))
        else:
            sups.append(_sup(V[:, :, None, None] * A[:, None] - ends.transpose(0, 2, 1)[:, None]))
    out["antipode cancellation"] = np.broadcast_to(np.max(sups, axis=0)[:, None], (d, d))
    return out


def _gap(x: dict, y: dict) -> float:
    """sup |x - y| over the union of the keys, or 0 where it is at or below
    `AlgebraElement.prune`: `(x - y).sup_norm()` of the elements."""
    worst = max((abs(x.get(k, 0.0) - y.get(k, 0.0)) for k in x.keys() | y.keys()), default=0.0)
    return worst if worst > AlgebraElement.prune else 0.0


def _worst(name, pool, residuals, element, floor) -> AxiomResult:
    """The largest of `residuals`, with the sorted keys of each argument of
    the first tuple in pool order that reached it to a relative 1e-9, so
    that rounding does not choose among tuples tied in exact arithmetic; at
    or below `floor` rounding would choose, so there is no witness.  A NaN
    counts as the largest.  A pool of keys or of key pairs is an array of
    rows (n, a, b) or (n1, a, b, n2, c, d), any other one tuples of
    indices of the coefficient dicts `element(i)`."""
    worst = float(np.max(residuals))
    if worst <= floor:
        return AxiomResult(name, worst, len(pool))
    at = int(np.argmax(residuals if math.isnan(worst) else residuals >= worst * (1 - 1e-9)))
    if isinstance(pool, np.ndarray):
        witness = tuple((key,) for key in map(tuple, pool[at].reshape(-1, 3).tolist()))
    else:
        witness = tuple(tuple(sorted(element(i))) for i in pool[at])
    return AxiomResult(name, worst, len(pool), witness)


def verify_axioms(
    space: PathSpace,
    max_length: int,
    samples: int = 100,
    seed: int = 0,
    tolerance: float = 1e-9,
    weight_fn=None,
) -> VerificationReport:
    """Numerically check every weak-bialgebra and antipode axiom.

    The pool is every algebra basis key with length up to `max_length`
    plus `samples` seeded sparse random elements; product associativity,
    the star antihomomorphism and the antipode product rule run on
    `samples` seeded random tuples drawn from that pool, every other axiom
    on the keys or key pairs.  Nine unary axioms are linear or antilinear
    and keep lengths apart, so the keys' residuals, weighted by
    |coefficient|, bound every element's.  `_unary_residuals` evaluates
    them per length on the structure constants, not through `star_alg`,
    `antipode` or `coproduct`, which the tests hold to those forms; the two
    counit laws read the public `counit` of every key.
    Coproduct multiplicativity and the counit of a product read the sup of
    Delta(xy) - Delta(x) Delta(y) and eps(xy) less its split over Delta(1)
    off the junction arrays (`_key_pair_residuals`), on every pair of basis
    keys (n1, a, b), (n2, c, d) whose endpoints meet, r(a) = s(c) and
    r(b) = s(d), in the order (n1, n2, a, b, c, d); on the other pairs both
    bilinear sides vanish.  Counit positivity: eps(x x*) =
    sum z_k conj(z_k') G[k, k'] for x = sum z_k k, with G[k, (n2, c', d')] =
    sum_{c,d} eps(k (n2, c, d)) S[c, c'] S[d, d'] off the same counits, so
    it holds on every element exactly when G is symmetric and positive
    semidefinite.  G is 0 off the keys (n, a, b) with s(a) = s(b) and is
    formed on those alone; the residual is the largest of 0, -lambda_min of
    (G + G^T) / 2 and max |G - G^T|.  A key reads the larger of -lambda_min
    times its squared weight in lambda_min's eigenvector, scaled to a
    largest weight of 1, and its row maximum of |G - G^T|.  The sampled
    axioms evaluate each tuple on the pool's coefficient dicts, {key: 1.0}
    or a random element's coefficients: products go through `_product`,
    stars and antipodes through `_starred`, pruned as an `AlgebraElement`
    is, and a residual is the sup of the difference over the union of the
    two sides' keys (`_gap`), so the values are those of `multiply`,
    `star_alg` and `antipode`; one memo of the products of two pool
    elements serves all three.  Each result carries the number of keys,
    tuples or key pairs checked and the basis keys of the first worst one,
    if above the tolerance times 1e-3.
    `weight_fn` overrides the antipode's endpoint factor, which is how a
    deliberately corrupted antipode can be shown to fail.  Failures are
    reported as residuals, never raised.  An empty check (no samples, or a
    negative `max_length`), a negative `seed` and a tolerance that is not
    finite and positive raise `PathHopfError`, and a `max_length` whose
    (x y) z would pass the cutoff raises `CutoffError`, before any work.
    """
    if samples < 1:
        raise PathHopfError(f"samples must be at least 1, got {samples}")
    if not 0 < tolerance < math.inf:
        raise PathHopfError(f"tolerance must be finite and positive, got {tolerance}")
    if max_length < 0:
        raise PathHopfError(f"max_length must be nonnegative, got {max_length}")
    if seed < 0:
        raise PathHopfError(f"seed must be nonnegative, got {seed}")
    _check_cutoff(space, 2 * max_length, max_length)  # (x y) z
    keys = [
        (n, a, b)
        for n in range(max_length + 1)
        for a in range(len(essential_basis(space, n)))
        for b in range(len(essential_basis(space, n)))
    ]
    rng = np.random.default_rng(seed)
    randoms = [_random_element(space, keys, rng) for _ in range(samples)]
    size = len(keys) + samples  # the pool: every basis key, then the random elements
    pairs = rng.integers(size, size=(samples, 2)).tolist()
    triples = rng.integers(size, size=(samples, 3)).tolist()
    weight = weight_fn or partial(_pf_weight, space)

    def element(i):  # as a coefficient dict
        return {keys[i]: 1.0} if i < len(keys) else randoms[i - len(keys)].coeffs

    @lru_cache(maxsize=None)
    def product(i, j):  # the inner products of associativity and both pair axioms
        return _product(space, element(i), element(j))

    def star(x):
        return _starred(space, _conjugate(x))

    def anti(x):
        return _starred(space, x, weight)

    swept: dict = {}  # axiom -> residuals per length or pair of lengths
    for n in range(max_length + 1):
        for name, R in _unary_residuals(space, n, weight_fn).items():
            swept.setdefault(name, []).append(R.ravel())
    # the keys (n, a, b) with s(a) = s(b): G[k, k'] = eps(k k'*) is 0 off them
    sources = [[s for s, _ in essential_basis(space, n).endpoints] for n in range(max_length + 1)]
    same = [np.equal.outer(s, s) for s in sources]
    key_pairs, gram = [], []  # rows (n1, a, b, n2, c, d); rows of blocks of G on those keys
    for n1 in range(max_length + 1):
        gram.append([])
        for n2 in range(max_length + 1):
            meet, *residuals, eps = _key_pair_residuals(space, n1, n2)
            a, b, c, d = np.nonzero(meet)
            key_pairs.append(np.column_stack([np.full_like(a, n1), a, b, np.full_like(a, n2), c, d]))
            for name, R in zip(("coproduct multiplicative", "counit of product"), residuals):
                swept.setdefault(name, []).append(R[meet])
            S = _star_matrix(space, n2)
            gram[-1].append((S.T @ eps[same[n1]] @ S)[:, same[n2]])  # [k, (c', d')]
            del eps  # the (n1, n2) counit array, not held while the next pair of lengths is built
    G = np.block(gram)
    values, vectors = np.linalg.eigh((G + G.T) / 2)
    v, positivity = vectors[:, 0] / np.abs(vectors[:, 0]).max(), np.zeros(len(keys))
    positivity[np.concatenate(same, axis=None)] = np.maximum(-values[0] * v**2, np.abs(G - G.T).max(1))
    swept["counit positivity"] = [np.maximum(positivity, 0.0)]
    del gram, G, vectors  # not held while the sampled axioms run
    key_pairs, key_rows = np.concatenate(key_pairs), np.array(keys)

    # None: an axiom swept over the keys, read off `swept`
    checks = (
        ("product associativity", triples,
         lambda i, j, k: _gap(_product(space, product(i, j), element(k)),
                              _product(space, element(i), product(j, k)))),
        ("unit element", key_rows, None),
        ("star involution", key_rows, None),
        ("star antihomomorphism", pairs,
         lambda i, j: _gap(star(product(i, j)), _product(space, star(element(j)), star(element(i))))),
        ("coproduct multiplicative", key_pairs, None),
        ("coproduct star-compatible", key_rows, None),
        ("coassociativity", key_rows, None),
        ("counit left inverse", key_rows, None),
        ("counit right inverse", key_rows, None),
        ("counit of product", key_pairs, None),
        ("counit positivity", key_rows, None),
        ("antipode product rule", pairs,
         lambda i, j: _gap(anti(product(i, j)), _product(space, anti(element(j)), anti(element(i))))),
        ("antipode star double", key_rows, None),
        ("antipode coproduct rule", key_rows, None),
        ("antipode cancellation", key_rows, None),
    )
    results = tuple(
        _worst(name, pool, np.concatenate(swept[name]) if fn is None
               else np.fromiter((fn(*args) for args in pool), float, len(pool)),
               element, tolerance * 1e-3)
        for name, pool, fn in checks
    )
    return VerificationReport(
        graph=space.graph.name,
        max_length=max_length,
        samples=samples,
        seed=seed,
        tolerance=tolerance,
        results=results,
    )


# -- path coordinates ------------------------------------------------------------


def element_in_path_coordinates(x: AlgebraElement) -> dict:
    """Expand an algebra element to elementary coordinates:
    (left path, right path) -> coefficient.  Basis-independent, so reference
    values can be compared without fixing a basis rotation."""
    space = x.space
    out: dict = {}
    for (n, a, b), z in x.coeffs.items():
        basis = essential_basis(space, n)
        for p, cl in basis.vectors[a].coeffs.items():
            for q, cr in basis.vectors[b].coeffs.items():
                k = (p, q)
                out[k] = out.get(k, 0.0) + z * cl * cr
    return {k: v for k, v in out.items() if abs(v) > 1e-12}
