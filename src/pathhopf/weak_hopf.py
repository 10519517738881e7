"""Weak *-Hopf algebra on graded endomorphisms of essential paths.

Elements live in the direct sum over n of E_n (x) E_n, stored sparsely
against the orthonormal essential bases under keys (n, a, b) for
xi_a (x) xi_b.  On basis keys the product has the closed junction form
(n1,a,b) . (n2,c,d) = sum_l lambda_l(n1, n2) J_l(a, c) (x) J_l(b, d), zero
unless r(a) = s(c) and r(b) = s(d) (`_junction_arrays`).  The star and the
antipode act on each length's block of keys through its star matrix
(`EssentialBasis.star`), the coproduct splits a key over the basis of its
length, and the counit is the diagonal sum.  `verify_axioms` checks the
axioms on these structure constants; README describes each check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BasisError, CutoffError, PathHopfError
from .essential_decomp import _check_length, essential_basis, pair_levels
from .path_space import (
    PathSpace,
    PathVector,
    SparseCoefficients,
    inner_product,
    space_cached,
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
    return _contraction(space, tuple(map(int, i_indices)), tuple(map(int, j_indices)), base_length)


@space_cached("coefficient_C")
def _contraction(space, i_indices, j_indices, base_length) -> complex:
    """`coefficient_C` on index tuples (cached)."""
    if len(i_indices) != len(j_indices):
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
        raise BasisError(f"contraction C{(i_indices, j_indices, base_length)} differs across basis vectors: {values}")
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


#: The most floats that the junction arrays of one pair of lengths, or the
#: packed arrays of `verify_axioms`' pair sweep, may hold (0.8 GB).
JUNCTION_BUDGET = 10**8


def _block_counts(space, top) -> np.ndarray:
    """v[n] = N_n 1 for n = 0..top by v_(n+1) = A v_n - v_(n-1), as the fusion matrices N_n commute
    with the symmetric A; zero from the first zero count on, and +inf where a count overflows."""
    v = np.ones((top + 1, space.graph.num_vertices))
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(top):  # from v_0 = 1 and v_(-1) = 0
            v[n + 1] = space.graph.adjacency @ v[n] - (v[n - 1] if n else 0.0) if v[n].any() else 0.0
    v[~np.isfinite(v)] = np.inf  # an overflow, or inf - inf after one
    return v


def _check_size(space, n1, n2) -> None:
    """Refuse lengths whose junction arrays, d_n1 d_n2 sum_l d_(n1+n2-2l)
    floats with d_n the sum of v_n (`_block_counts`), would not fit in
    `JUNCTION_BUDGET`: an overflowed size, inf or NaN, is refused too."""
    d = [sum(v) for v in _block_counts(space, n1 + n2).tolist()]  # Python floats: no overflow warning
    _check_budget(d[n1] * d[n2] * sum(d[abs(n1 - n2) :: 2]), f"the junction arrays of lengths {n1} and {n2}")


def _check_sweep(space, top) -> None:
    """Refuse a `verify_axioms` pair sweep whose largest allocation would not
    fit in `JUNCTION_BUDGET`: the meeting rows of lengths n1, n2 <= `top`
    number R = v_n1 . v_n2 (`_block_counts`), and `_key_pair_residuals`
    holds up to R^2 sum_l d_(n1+n2-2l) floats in its packed arrays."""
    v = _block_counts(space, 2 * top).tolist()
    d, sizes = [sum(c) for c in v], {}
    for n1, n2 in itertools.product(range(top + 1), repeat=2):
        rows = sum(map(float.__mul__, v[n1], v[n2]))
        sizes[n1, n2] = rows * rows * sum(d[abs(n1 - n2) : n1 + n2 + 1 : 2])
    n1, n2 = max(sizes, key=sizes.get)
    _check_budget(sizes[n1, n2], f"the pair sweep of lengths {n1} and {n2}")


def _check_budget(size, what) -> None:
    """Raise `CutoffError` naming `what` unless `size` <= `JUNCTION_BUDGET`."""
    if not size <= JUNCTION_BUDGET:
        raise CutoffError(f"{what} would hold {size:.1e} floats, more than {JUNCTION_BUDGET:.0e}")


@space_cached("junctions")
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
    J_(l-1)^(n1-1,n2-1)[b, f, e].  Raises `CutoffError` past
    `JUNCTION_BUDGET` (`_check_size`) before it builds anything."""
    _check_size(space, n1, n2)
    left, right = essential_basis(space, n1), essential_basis(space, n2)
    ranges, sources = left.range, right.source
    out = []
    for l, scalar in enumerate(_junction_scalars(space.beta, n1, n2)):
        m = n1 + n2 - 2 * l
        if m > space.top_length:
            J = np.zeros((len(left), len(right), 0))
        elif l:
            root = np.asarray(space.sqrt_mu)
            step = left.append * root[ranges][:, None] / root[left.below.range]  # sqrt(mu[r(a)] / mu[r(b)]) A[a, b]
            J = right.prepend @ np.tensordot(step, _junction_arrays(space, n1 - 1, n2 - 1)[l - 1], 1)
            J *= np.equal.outer(ranges, sources)[:, :, None]
        elif n2:
            target = essential_basis(space, m)
            J = right.append @ (_junction_arrays(space, n1, n2 - 1)[0] @ target.append.T)
            J *= np.equal.outer(right.range, target.range)
        else:
            J = np.eye(len(left))[:, None, :] * np.equal.outer(ranges, range(len(right)))[:, :, None]
        J[np.abs(J) <= 1e-14] = 0.0
        if scalar == 0 and np.abs(J).max(initial=0.0) > 1e-9:
            raise BasisError(f"junction {l} of lengths {n1} and {n2} is nonzero where lambda is singular")
        out.append(J if scalar else 0.0 * J)
    return out


@space_cached("junction_rows")
def _junction_rows(space, n1, n2) -> dict:
    """The nonzero entries of `_junction_arrays(space, n1, n2)`, read in one
    pass for the dict product: (a, c) -> one list of (e, J_l[a, c, e]) per
    level, and no (a, c) whose junctions all vanish.  Cached."""
    arrays, rows = _junction_arrays(space, n1, n2), {}
    for l, J in enumerate(arrays):
        index = np.nonzero(J)
        for a, c, e, z in zip(*(i.tolist() for i in index), J[index].tolist()):
            if (a, c) not in rows:
                rows[a, c] = [[] for _ in arrays]
            rows[a, c][l].append((e, z))
    return rows


def _meeting_pairs(space, left: dict, right: dict):
    """The term pairs (kl, zl, kr, zr) whose endpoints meet, r(a) = s(c) and
    r(b) = s(d) for (n1, a, b) . (n2, c, d): the only pairs with nonzero
    products.  The right terms are indexed by their sources, so each left
    term looks up only its partners.  Raises `CutoffError` first when the
    longest terms are too long to multiply, whether their endpoints meet or
    not."""
    if left and right:
        _check_length(space, min(max(left)[0] + max(right)[0], space.top_length))  # max() picks the largest n
    ends: dict = {}  # each length's endpoints, from one `essential_basis` call
    partners: dict = {}
    for kr, zr in right.items():
        n, c, d = kr
        e = ends[n] if n in ends else ends.setdefault(n, essential_basis(space, n).endpoints)
        partners.setdefault((e[c][0], e[d][0]), []).append((kr, zr))
    for kl, zl in left.items():
        n, a, b = kl
        e = ends[n] if n in ends else ends.setdefault(n, essential_basis(space, n).endpoints)
        for kr, zr in partners.get((e[a][1], e[b][1]), ()):
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
    """The length-n star matrix `EssentialBasis.star`, which the verifier
    and the public maps read through this one name."""
    return essential_basis(space, n).star


def _endpoint_weights(space, weight_fn=None) -> np.ndarray:
    """W[s, r, s', r']: the antipode's endpoint factor, by default the
    Perron-Frobenius table (`_perron_weights`), else `weight_fn` called once
    on every four vertices."""
    if weight_fn is None:
        return _perron_weights(space)
    nv = space.graph.num_vertices
    return np.array(list(itertools.starmap(weight_fn, itertools.product(range(nv), repeat=4)))).reshape((nv,) * 4)


@space_cached("perron_weights")
def _perron_weights(space) -> np.ndarray:
    """The default endpoint factor sqrt(mu[s'] mu[r] / (mu[r'] mu[s])) in
    one broadcast, built once per space and read-only."""
    s, r, s2, r2 = np.ix_(*[np.array(space.mu)] * 4)
    W = np.sqrt((s2 * r) / (r2 * s))
    W.flags.writeable = False
    return W


def _starred(space, coeffs: dict, weights=None) -> dict:
    """The star or, given the endpoint table `weights`, the antipode, per
    length n in block form: with the coefficients of the keys (n, a, b) in
    X[a, b] and S = `_star_matrix(space, n)`, S conj(X) S^T, or
    (S (W o X) S^T)^T with W[a, b] = weights[s(a), r(a), s(b), r(b)]; its
    entries above `AlgebraElement.prune`."""
    blocks: dict = {}
    for (n, a, b), z in coeffs.items():
        blocks.setdefault(n, {})[a, b] = z
    out: dict = {}
    for n, block in blocks.items():
        basis = essential_basis(space, n)
        S, s, r = _star_matrix(space, n), basis.source, basis.range
        X = np.zeros((len(basis), len(basis)), complex)
        X[tuple(zip(*block))] = list(block.values())
        if weights is None:
            Y = S @ X.conj() @ S.T
        else:
            Y = (S @ (weights[s[:, None], r[:, None], s, r] * X) @ S.T).T
        i, j = np.nonzero(np.abs(Y) > AlgebraElement.prune)
        out.update(zip(zip(itertools.repeat(n), i.tolist(), j.tolist()), Y[i, j].tolist()))
    return out


def star_alg(x: AlgebraElement) -> AlgebraElement:
    """Involution: time-reverse both slots, conjugate coefficients.

    Antilinear, involutive, and an antihomomorphism for `multiply`.
    """
    return AlgebraElement._adopt(x.space, _starred(x.space, x.coeffs))


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
    return AlgebraElement._adopt(x.space, _starred(x.space, x.coeffs, _endpoint_weights(x.space, weight_fn)))


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
    # nonvanishing products) likely in the triple sweep
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


def _key_pair_residuals(space, n1, n2, weights) -> tuple:
    """The four pair axioms on the meeting rows i = (a, c) of lengths n1 and
    n2, r(a) = s(c): the rows' a and c, name -> R[i, j], the residual of the
    key pair (n1, a_i, a_j), (n2, c_i, c_j), and eps[i, j], the counit of
    that pair's product.  Those pairs are exactly the key pairs whose
    endpoints meet; on the others every side vanishes.
    `weights[s, r, s', r']` is the antipode's endpoint factor.

    On one pair the (l, l') tensor-square block of Delta(xy) -
    Delta(x) Delta(y) is -lambda_l J_l(a, c) (x) J_l'(b, d) (x) D_ll', with
    D_ll' = lambda_l' K - delta_ll' 1 and K[f, f'] = sum_{c1, c2}
    J_l(c1, c2)[f] J_l'(c1, c2)[f']; distinct (l, l') fill distinct blocks,
    so the sup is the largest |lambda_l| u_l[i] u_l'[j] sup |D_ll'|,
    u_l = max_e |J_l|.  eps(xy) = sum_l lambda_l <J_l(i), J_l(j)>, against
    its split over Delta(1), which is 1 where i = j by the unit law.  At
    level l, star(xy) is lambda_l P[i] (x) P[j] with P = J_l S_m^T and
    star(y) star(x) is lambda_l Q[i] (x) Q[j] with Q[a, c] = sum S_n2[c', c]
    S_n1[a', a] J_l^(n2,n1)[c', a']; the antipode weights them by
    F(s(a), r(c), s(b), r(d)) and W(a, b) W(c, d).  Each level fills its own
    length, and the sup over (e, f) is taken over the entries where P or Q
    is nonzero.
    """
    left, right = essential_basis(space, n1), essential_basis(space, n2)
    d1, d2 = len(left), len(right)
    rows = np.flatnonzero(np.equal.outer(left.range, right.source))
    a, c = np.divmod(rows, d2)
    # the endpoints of each row: s(a), r(a) = s(c) and r(c)
    sa, t, rc = left.source[a], left.range[a], right.range[c]
    scalars = _junction_scalars(space.beta, n1, n2)
    Ms = [J.reshape(d1 * d2, J.shape[2])[rows] for J in _junction_arrays(space, n1, n2)]
    # every level side by side, as columns f of M, with lambda_l per column
    M, width = np.hstack(Ms), [m.shape[1] for m in Ms]
    lam, at = np.repeat(scalars, width), np.cumsum(width) - width
    live = at[np.flatnonzero(width)]  # the first column of each level whose length has a basis
    eps = (M * lam) @ M.T
    D = np.abs(M.T @ M * lam - np.eye(len(lam)))  # [f, f'], block (l, l') is |D_ll'|
    D = np.maximum.reduceat(np.maximum.reduceat(D, live, 0), live, 1)  # sup |D_ll'|
    u = np.maximum.reduceat(np.abs(M), live, 1).T  # u[l, i]
    right_sup = (D[:, :, None] * u).max(1, initial=0.0)  # [l, j]: max over l' of sup |D_ll'| u_l'[j]
    delta = (np.abs(lam[live])[:, None, None] * u[:, :, None] * right_sup[:, None]).max(0, initial=0.0)
    star, anti = np.zeros_like(eps), np.zeros_like(eps)
    F = weights[sa[:, None], rc[:, None], sa, rc]
    WW = weights[sa[:, None], t[:, None], sa, t] * weights[t[:, None], rc[:, None], t, rc]
    S1, S2 = _star_matrix(space, n1), _star_matrix(space, n2)
    for l, (z, A, B) in enumerate(zip(scalars, Ms, _junction_arrays(space, n2, n1))):
        if not (z and A.size):
            continue
        P = A @ _star_matrix(space, n1 + n2 - 2 * l).T
        Q = (S2.T @ (S1.T @ B.transpose(1, 0, 2).reshape(d1, -1)).reshape(d1, d2, -1)).reshape(d1 * d2, -1)[rows]
        # each row's entries where P or Q is nonzero, packed to the front: pq[:, k, i]
        nonzero = (P != 0) | (Q != 0)
        i, e = np.nonzero(nonzero)
        k = np.cumsum(nonzero, 1)[i, e] - 1
        pq = np.zeros((2, k.max(initial=-1) + 1, len(rows)), np.result_type(P, Q))
        pq[:, k, i] = math.sqrt(abs(z)) * np.array([P[i, e], Q[i, e]])
        for p, q in zip(*pq):  # one entry k of each row i, against every entry k' of each row j
            PP, QQ = p[:, None] * pq[0][:, None], q[:, None] * pq[1][:, None]  # [k', i, j]
            np.maximum(star, np.abs(PP - QQ).max(0), out=star)
            np.maximum(anti, np.abs(F * PP - WW * QQ).max(0), out=anti)
    residuals = {
        "star antihomomorphism": star,
        "coproduct multiplicative": delta,
        "counit of product": np.abs(eps - np.eye(len(eps))),
        "antipode product rule": anti,
    }
    return (a, c), residuals, eps


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


def _star_double_residuals(Q, W) -> np.ndarray:
    """R[a, b] = sup |T_ab - e_ab|, T_ab = star(S(star(S(e_ab)))) for the
    star Z -> S conj(Z) S^T and the antipode Z -> (S (W o Z) S^T)^T: with
    Q = S conj(S), T_ab = W[a, b] Q diag(conj(Q[:, a])) W^H diag(conj(Q[:, b]))
    Q^T, two tensordots over L[a, i, p] = Q[i, p] conj(Q[p, a])."""
    L = Q[None] * Q.T.conj()[:, None]
    T = np.tensordot(np.tensordot(L, W.conj().T, 1), L, (2, 2)) * W[:, None, :, None]  # [a, i, b, j]
    at = np.arange(len(Q))
    T[at[:, None], at[:, None], at, at] -= 1
    return np.abs(T).max((1, 3), initial=0.0)


def _unary_residuals(space, n, weights) -> dict:
    """The nine linear unary axioms at length n: name -> R, with R[a, b] the
    residual of the basis key (n, a, b).

    A block X[a, b] holds the coefficients of the keys (n, a, b).  On blocks
    the star is S conj(X) S^T (star matrix S), the antipode
    (S (W o X) S^T)^T (W[a, b] = weights[s(a), r(a), s(b), r(b)], the
    endpoint factor) and Delta(X)[a, c, c', b] = X[a, b] delta[c, c'].  A residual
    is the sup of the difference of the axiom's two sides.  Each axiom is
    linear or antilinear, so an element's residual is at most
    sum |z_k| R[k] over its keys k, and 0 exactly when every R[k] is: the
    keys are the whole check.  All nine are read per key in closed form:
    "unit element" (1 X = left^T X left and X 1 = right^T X right) and
    "star involution" (S conj(S conj(X) S^T) S^T, Q = S conj(S)) are
    X -> Q X Q^T, read by `_conjugation_residuals`; "antipode star double"
    on e_ab is W[a, b] Q diag(conj(Q[:, a])) W^H diag(conj(Q[:, b])) Q^T
    (`_star_double_residuals`); the star compatibility of Delta and
    "antipode coproduct rule" on e_ab are S[:, a] S[:, b]^T times a
    split-point factor, whose sup is the product of the factors' sups; the
    counit laws pair Delta(e_ab) with E[a, c] = `counit`(e_ac), the public
    map; coassociativity is an identity of the Delta form, 0; and
    "antipode cancellation" on e_ab is
    sum_c' R[a, c'] (x) e_c'b, with R[a, c'] = m (S (x) id) Delta(e_ac')
    less the unit's part (x 1_(2) keeps b by the right unit law, which
    "unit element" checks), whose sup depends on a alone.
    """
    basis = essential_basis(space, n)
    d, s, r = len(basis), basis.source, basis.range
    W = weights[s[:, None], r[:, None], s, r]
    S, one = _star_matrix(space, n), np.eye(d)
    Q = S @ S.conj()
    left = _junction_arrays(space, 0, n)[0].sum(0)  # 1 X = left^T X left
    ends = _junction_arrays(space, n, 0)[0]  # [a, t, e]: (n, a, .) (0, t, .) = (n, e, .)
    right = ends.sum(1)  # X 1 = right^T X right
    out = {
        "unit element": np.maximum(_conjugation_residuals(left.T), _conjugation_residuals(right.T)),
        "star involution": _conjugation_residuals(Q),
        "antipode star double": _star_double_residuals(Q, W),
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


def _worst(name, residuals, witness, floor) -> AxiomResult:
    """The largest of `residuals`, one array per block of the axiom's pool,
    in pool order, and `witness(block, *index)` of the first entry in pool
    order that reached it to a relative 1e-9, given the index arrays of the
    block's entries that did, so that rounding does not choose among tuples
    tied in exact arithmetic; at or below `floor` rounding would choose, so
    there is no witness.  A NaN counts as the largest."""
    flat = np.concatenate([R.ravel() for R in residuals])
    worst = float(flat.max())
    if worst <= floor:
        return AxiomResult(name, worst, len(flat))
    hits = np.flatnonzero(np.isnan(flat) if math.isnan(worst) else flat >= worst * (1 - 1e-9))
    ends = np.cumsum([R.size for R in residuals])
    block = int(np.searchsorted(ends, hits[0], "right"))  # the first block with a hit
    R = residuals[block]
    at = np.unravel_index(hits[hits < ends[block]] - (ends[block] - R.size), R.shape)
    return AxiomResult(name, worst, len(flat), witness(block, *at))


def verify_axioms(
    space: PathSpace,
    max_length: int,
    samples: int = 100,
    seed: int = 0,
    tolerance: float = 1e-9,
    weight_fn=None,
) -> VerificationReport:
    """Numerically check every weak-bialgebra and antipode axiom.

    Product associativity runs on `samples` seeded triples drawn from a pool
    of every basis key of length up to `max_length` and `samples` seeded
    sparse random elements.  Every other axiom is read exhaustively: on
    every key (`_unary_residuals`), on every element at once through the
    Gram matrix G[k, k'] = eps(k k'*) (counit positivity), or on every pair
    of keys (n1, a, b), (n2, c, d) whose endpoints meet, in the order
    (n1, n2, a, b, c, d) (`_key_pair_residuals`).  Each result carries the
    number checked and the basis keys of the first worst one above the
    tolerance times 1e-3.  `weight_fn` overrides the antipode's endpoint
    factor.  Failures are residuals, never raised; an empty check (no
    samples, or a negative `max_length`), a negative `seed` and a tolerance
    that is not finite and positive raise `PathHopfError`, and a
    `max_length` whose (x y) z would pass the cutoff, or whose junction
    arrays or pair sweep would pass `JUNCTION_BUDGET`, raises `CutoffError`,
    before any work.
    """
    if samples < 1:
        raise PathHopfError(f"samples must be at least 1, got {samples}")
    if not 0 < tolerance < math.inf:
        raise PathHopfError(f"tolerance must be finite and positive, got {tolerance}")
    if max_length < 0:
        raise PathHopfError(f"max_length must be nonnegative, got {max_length}")
    if seed < 0:
        raise PathHopfError(f"seed must be nonnegative, got {seed}")
    _check_length(space, min(3 * max_length, space.top_length))  # (x y) z
    _check_size(space, 2 * max_length, max_length)
    _check_sweep(space, min(max_length, space.top_length))
    bases = [essential_basis(space, n) for n in range(max_length + 1)]
    keys = [(n, a, b) for n, basis in enumerate(bases) for a in range(len(basis)) for b in range(len(basis))]
    rng = np.random.default_rng(seed)
    randoms = [_random_element(space, keys, rng) for _ in range(samples)]
    size = len(keys) + samples  # the pool: every basis key, then the random elements
    rng.integers(size, size=(samples, 2))  # drawn and unused, so each seed keeps its triples
    triples = rng.integers(size, size=(samples, 3)).tolist()
    weights = _endpoint_weights(space, weight_fn)

    def element(i):  # as a coefficient dict
        return {keys[i]: 1.0} if i < len(keys) else randoms[i - len(keys)].coeffs

    swept: dict = {}  # axiom -> residuals per length or pair of lengths, or of the sampled triples
    for n in range(max_length + 1):
        for name, R in _unary_residuals(space, n, weights).items():
            swept.setdefault(name, []).append(R.ravel())
    # the keys (n, a, b) with s(a) = s(b): G[k, k'] = eps(k k'*) is 0 off them
    same = [np.equal.outer(basis.source, basis.source) for basis in bases]
    rows, gram = [], []  # the meeting rows (n1, n2, a, c) of each pair of lengths; rows of blocks of G
    for n1 in range(max_length + 1):
        gram.append([])
        gram_row = np.full(same[n1].shape, -1)  # the row of G of each key (n1, a, b), -1 off it
        gram_row[same[n1]] = np.arange(np.count_nonzero(same[n1]))
        for n2 in range(max_length + 1):
            (a, c), residuals, eps = _key_pair_residuals(space, n1, n2, weights)
            rows.append((n1, n2, a, c))
            for name, R in residuals.items():
                swept.setdefault(name, []).append(R)
            # eps[k, c, d] on the same-source keys k = (n1, a, b), then contracted with S
            k = gram_row[np.ix_(a, a)]
            i, j = np.nonzero(k >= 0)
            blocks = np.zeros((np.count_nonzero(same[n1]), len(bases[n2]), len(bases[n2])))
            blocks[k[i, j], c[i], c[j]] = eps[i, j]
            S = _star_matrix(space, n2)
            gram[-1].append((S.T @ blocks @ S)[:, same[n2]])  # [k, (c', d')]
    G = np.block(gram)
    values, vectors = np.linalg.eigh((G + G.T) / 2)
    v, positivity = vectors[:, 0] / np.abs(vectors[:, 0]).max(), np.zeros(len(keys))
    positivity[np.concatenate(same, axis=None)] = np.maximum(-values[0] * v**2, np.abs(G - G.T).max(1))
    swept["counit positivity"] = np.split(np.maximum(positivity, 0.0), np.cumsum([m.size for m in same])[:-1])
    del gram, G, vectors  # not held while associativity runs
    swept["product associativity"] = [np.fromiter(
        (_gap(_product(space, _product(space, element(i), element(j)), element(k)),
              _product(space, element(i), _product(space, element(j), element(k)))) for i, j, k in triples),
        float, len(triples))]

    def on_triple(_, at):
        return tuple(tuple(sorted(element(i))) for i in triples[at[0]])

    def on_key(n, at):  # the keys (n, a, b) of one length
        return (((n, *divmod(int(at[0]), len(bases[n]))),),)

    def on_key_pair(block, i, j):  # pool order within a block: (a_i, a_j, c_i, c_j)
        n1, n2, a, c = rows[block]
        at = np.lexsort((c[j], c[i], a[j], a[i]))[0]
        return ((n1, int(a[i[at]]), int(a[j[at]])),), ((n2, int(c[i[at]]), int(c[j[at]])),)

    witness = dict.fromkeys(("star antihomomorphism", "coproduct multiplicative", "counit of product",
                             "antipode product rule"), on_key_pair) | {"product associativity": on_triple}
    names = ("product associativity", "unit element", "star involution", "star antihomomorphism",
             "coproduct multiplicative", "coproduct star-compatible", "coassociativity", "counit left inverse",
             "counit right inverse", "counit of product", "counit positivity", "antipode product rule",
             "antipode star double", "antipode coproduct rule", "antipode cancellation")
    results = tuple(_worst(name, swept[name], witness.get(name, on_key), tolerance * 1e-3) for name in names)
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
