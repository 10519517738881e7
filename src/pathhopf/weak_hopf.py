"""Weak *-Hopf algebra on graded endomorphisms of essential paths.

Elements live in the direct sum over n of E_n (x) E_n, stored sparsely
against the orthonormal essential bases under keys (n, a, b) for
xi_a (x) xi_b.  The product concatenates slotwise and projects back onto
essentials.  On basis keys it has the closed junction form
(n1,a,b) . (n2,c,d) = sum_l lambda_l(n1, n2) J_l(a, c) (x) J_l(b, d):
J_l holds the E_m coordinates, m = n1 + n2 - 2l, of xi_a . xi_c after the
l annihilations at the junction, and lambda_l is a ratio of q-binomials in
beta.  No creation word is formed.  A term is nonzero only when
r(a) = s(c) and r(b) = s(d), so `multiply`, `multiply_tensor_square` and
the verifier index the right factor by its sources and multiply only the
pairs whose endpoints meet.  `projector_P` projects arbitrary path pairs
through the creation-word Gram matrices (`word_gram`).

Coproduct, counit, star and antipode are each written once, on one basis
key (`_delta_key`, `_counit_key`, `_star_key`, `_antipode_key`).  A key map
returns {slot tuple: coefficient}, where a slot tuple holds the keys of a
tensor-power basis element: two for the coproduct, one for star and
antipode, none for the counit.  `_linear` extends a key map to an element
and `_on_slot` to one slot of a tensor-power element, so the public maps
and `verify_axioms` read the same definitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import BasisError, CutoffError, PathHopfError
from .essential_decomp import _tables, decompose_coordinates, essential_basis
from .path_space import (
    PathSpace,
    PathVector,
    format_path,
    inner_product,
    star,
)


@dataclass(frozen=True)
class CoefficientKey:
    """Index lists of the contraction C(i_1..i_n; j_n..j_1).

    The j's are creation indices (applied to the essential vector in
    increasing order), the i's are the annihilation indices applied
    afterwards in decreasing order.  Unequal list lengths give 0.
    """

    i_indices: tuple[int, ...]
    j_indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "i_indices", tuple(int(v) for v in self.i_indices))
        object.__setattr__(self, "j_indices", tuple(int(v) for v in self.j_indices))


class _GradedCoefficients:
    """Shared sparse-coefficient behavior for algebra and tensor elements."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: PathSpace, coeffs: dict | None = None):
        self.space = space
        if coeffs:
            self.coeffs = {
                k: complex(c) for k, c in coeffs.items() if abs(c) > 1e-14
            }
        else:
            self.coeffs = {}

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self):
        return sorted(self.coeffs.items())

    def sup_norm(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0.0) + c
        return type(self)(self.space, out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        return type(self)(
            self.space, {k: c * scalar for k, c in self.coeffs.items()}
        )

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0


class AlgebraElement(_GradedCoefficients):
    """Sparse element of (+)_n E_n (x) E_n.

    Keys are (length, left basis index, right basis index) against
    `essential_basis(space, length)`.
    """

    @classmethod
    def basis_element(cls, space, n, a, b) -> "AlgebraElement":
        return cls(space, {(n, a, b): 1.0})

    def __repr__(self):
        return f"AlgebraElement({len(self.coeffs)} terms)"


class TensorSquare(_GradedCoefficients):
    """Sparse element of the two-fold tensor power; keys are pairs of
    (length, left index, right index) triples."""

    def __repr__(self):
        return f"TensorSquare({len(self.coeffs)} terms)"


# -- contraction coefficients -------------------------------------------------


def coefficient_C(space: PathSpace, key: CoefficientKey, base_length: int) -> complex:
    """Evaluate the contraction scalar C on essentials of `base_length`.

    The direct definition, by operator application to one essential basis
    vector: apply the creations j_1, ..., j_n, then the annihilations
    i_n, ..., i_1, and pair with the same vector.  The value is independent
    of the chosen basis vector; a second one is checked when available and a
    discrepancy raises `BasisError`.  The product does not call it: it reads
    the same scalars off `word_gram`.
    """
    cache = space.cache.setdefault("coefficient_C", {})
    cache_key = (key.i_indices, key.j_indices, base_length)
    if cache_key in cache:
        return cache[cache_key]
    if len(key.i_indices) != len(key.j_indices):
        cache[cache_key] = 0j
        return 0j
    basis = essential_basis(space, base_length)
    if not basis.vectors:
        raise BasisError(f"no essential paths of length {base_length}")
    values = []
    for xi in basis.vectors[:2]:
        y = xi
        for j in key.j_indices:
            y = space.create(j, y)
        for i in reversed(key.i_indices):
            y = space.annihilate(i, y)
        values.append(inner_product(y, xi))
    if len(values) == 2 and abs(values[0] - values[1]) > 1e-9:
        raise BasisError(
            f"contraction C{cache_key} differs across basis vectors: {values}"
        )
    cache[cache_key] = values[0]
    return values[0]


# -- the projection onto essential endomorphisms ------------------------------


def _combine_terms(space, left_terms, right_terms) -> dict:
    """Pair the decomposition terms of two equal-length vectors through
    C(i; j), read from the word-Gram matrices."""
    tables = _tables(space)
    out: dict = {}
    for jw, m, left_exp in left_terms:
        n = m + 2 * len(jw)
        for iw, m2, right_exp in right_terms:
            if m != m2:
                continue  # unequal creation counts project to zero
            c = tables.contraction(space, n, jw, iw)
            if abs(c) < 1e-14:
                continue
            for a, ca in left_exp.items():
                for b, cb in right_exp.items():
                    k = (m, a, b)
                    out[k] = out.get(k, 0.0) + c * ca * cb
    return out


def projector_P(space: PathSpace, left: PathVector, right: PathVector) -> AlgebraElement:
    """Project a graded path endomorphism onto essential endomorphisms.

    Both factors are decomposed; a term pair with creation words j (left)
    and i (right) of equal length contributes C(i; j) times the essential
    parts, and pairs of unequal word length contribute nothing.  Idempotent,
    but not an orthogonal projection.
    """
    if left.length != right.length:
        raise ValueError("projector factors must have equal path length")
    out = _combine_terms(
        space, decompose_coordinates(space, left), decompose_coordinates(space, right)
    )
    return AlgebraElement(space, out)


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
    q-integers, for l = 0..min(n1, n2).  None where the denominator
    vanishes, which happens only on a finite graph, through [h] = 0."""
    q = _q_integers(beta, n1 + n2 + 1)
    out = []
    for l in range(min(n1, n2) + 1):
        den = [q[l - i] * q[n1 + n2 - l + 1 - i] for i in range(l)]
        if any(abs(d) < 1e-9 for d in den):
            out.append(None)
        else:
            out.append(math.prod(q[n1 - i] * q[n2 - i] / d for i, d in enumerate(den)))
    return tuple(out)


def _junction_walks(space, xi, omega, n1, l) -> dict:
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


def _junctions(space, n1, a, n2, c) -> tuple:
    """J_l(a, c) for l = 0..min(n1, n2): the coordinates against
    `essential_basis(space, m)`, m = n1 + n2 - 2l, of the l-fold junction
    contraction c_{n1-l} ... c_{n1-1} (xi_a . xi_c); () when r(a) != s(c).
    Only the (s(a), r(c)) block of E_m is read, and no walk is formed for
    an l whose block is empty.  Where lambda_l is singular, J_l must vanish
    and is stored empty; a nonzero one raises `BasisError`.  Cached as
    plain dicts."""
    cache = space.cache.setdefault("junctions", {})
    if (n1, a, n2, c) not in cache:
        left, right = essential_basis(space, n1), essential_basis(space, n2)
        (s, r), (r2, t) = left.endpoints[a], right.endpoints[c]
        out = []
        for l, scalar in enumerate(_junction_scalars(space.beta, n1, n2) if r == r2 else ()):
            target = essential_basis(space, n1 + n2 - 2 * l)
            block = target.blocks.get((s, t), ())
            walks = _junction_walks(space, left.vectors[a], right.vectors[c], n1, l) if block else {}
            coords = {}
            for e in block:
                v = target.vectors[e].coeffs
                z = sum(zw * v[walk].real for walk, zw in walks.items() if walk in v)
                if abs(z) > 1e-14:
                    coords[e] = z
            if scalar is None and any(abs(z) > 1e-9 for z in coords.values()):
                raise BasisError(
                    f"junction {l} of ({n1}, {a}) . ({n2}, {c}) is nonzero where lambda is singular"
                )
            out.append({} if scalar is None else coords)
        cache[n1, a, n2, c] = tuple(out)
    return cache[n1, a, n2, c]


def _basis_product(space, n1, a, b, n2, c, d) -> dict:
    """Cached coefficients of the product of two basis elements,
    (n1,a,b) . (n2,c,d) = sum_l lambda_l(n1, n2) J_l(a, c) (x) J_l(b, d).
    The memo holds plain dicts: an element would point back at `space` and
    tie every space into a reference cycle."""
    if n1 + n2 > space.cutoff:
        raise CutoffError(
            f"product of lengths {n1}+{n2} exceeds the cutoff {space.cutoff}"
        )
    cache = space.cache.setdefault("basis_product", {})
    key = (n1, a, b, n2, c, d)
    if key not in cache:
        left, right = _junctions(space, n1, a, n2, c), _junctions(space, n1, b, n2, d)
        out = {}
        if left and right:  # () when the endpoints do not meet
            scalars = _junction_scalars(space.beta, n1, n2)
            for l, (jl, jr) in enumerate(zip(left, right)):
                for e, ze in jl.items():
                    for f, zf in jr.items():
                        out[n1 + n2 - 2 * l, e, f] = scalars[l] * ze * zf
        cache[key] = {k: z for k, z in out.items() if abs(z) > 1e-14}
    return cache[key]


def _meeting_pairs(space, left: dict, right: dict, tensor=False):
    """The term pairs (kl, zl, kr, zr) whose endpoints meet, r(a) = s(c) and
    r(b) = s(d) for (n1, a, b) . (n2, c, d), in both slots if `tensor`: the
    only pairs with nonzero products.  The right terms are indexed by their
    sources, so each left term looks up only its partners.  Raises
    `CutoffError` first when the longest terms are too long to multiply,
    whether their endpoints meet or not."""
    slots = (lambda key: key) if tensor else (lambda key: (key,))
    for i in range(2 if tensor else 1):
        n1, n2 = (max((slots(k)[i][0] for k in keys), default=0) for keys in (left, right))
        if left and right and n1 + n2 > space.cutoff:
            raise CutoffError(f"product of lengths {n1}+{n2} exceeds the cutoff {space.cutoff}")
    endpoints: dict = {}

    def ends(side, key):
        out = ()
        for n, a, b in slots(key):
            if n not in endpoints:
                endpoints[n] = essential_basis(space, n).endpoints
            out += (endpoints[n][a][side], endpoints[n][b][side])
        return out

    partners: dict = {}
    for kr, zr in right.items():
        partners.setdefault(ends(0, kr), []).append((kr, zr))
    for kl, zl in left.items():
        for kr, zr in partners.get(ends(1, kl), ()):
            yield kl, zl, kr, zr


def multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Bilinear product: concatenate slotwise, then project onto essentials.

    The output of length-n1 by length-n2 elements spreads over lengths
    n1 + n2 - 2l (the algebra is filtered, not graded), by the junction form
    of `_basis_product`.  Only term pairs whose endpoints meet are
    multiplied, after a `CutoffError` check that covers every pair.
    """
    space = x.space
    out: dict = {}
    for kx, zx, ky, zy in _meeting_pairs(space, x.coeffs, y.coeffs):
        for k, zc in _basis_product(space, *kx, *ky).items():
            out[k] = out.get(k, 0.0) + zx * zy * zc
    return AlgebraElement(space, out)


def identity(space: PathSpace) -> AlgebraElement:
    """The unit: the sum of v (x) v' over all ordered pairs of length-0
    basis vectors."""
    dim = len(essential_basis(space, 0))
    return AlgebraElement(
        space, {(0, a, b): 1.0 for a in range(dim) for b in range(dim)}
    )


# -- structure maps on one basis key -------------------------------------------


def _star_columns(space, n):
    """Column a of the length-n star matrix: expansion of star(xi_a)."""
    cache = space.cache.setdefault("star_columns", {})
    if n not in cache:
        basis = essential_basis(space, n)
        cache[n] = tuple(basis.expand(star(xi)) for xi in basis.vectors)
    return cache[n]


def _pf_weight(space, s_left, r_left, s_right, r_right) -> float:
    mu = space.mu
    return math.sqrt((mu[s_right] * mu[r_left]) / (mu[r_right] * mu[s_left]))


def _delta_key(space, key) -> dict:
    """xi_a (x) xi_b -> sum over the length-n basis of (a, c) boxtimes (c, b)."""
    n, a, b = key
    return {((n, a, c), (n, c, b)): 1.0 for c in range(len(essential_basis(space, n)))}


def _counit_key(key) -> dict:
    """The pairing of the two slots: 1 on diagonal keys, 0 elsewhere."""
    return {(): 1.0} if key[1] == key[2] else {}


def _star_key(space, key) -> dict:
    """Time reversal of both slots; the caller conjugates coefficients."""
    n, a, b = key
    cols = _star_columns(space, n)
    return {
        ((n, a2, b2),): sa * sb for a2, sa in cols[a].items() for b2, sb in cols[b].items()
    }


def _antipode_key(space, key, weight_fn=None) -> dict:
    """The star with the slots swapped, times the endpoint factor F of
    xi_a and xi_b: `_pf_weight`, or `weight_fn` when one is given."""
    n, a, b = key
    ends = essential_basis(space, n).endpoints
    f = (weight_fn or partial(_pf_weight, space))(*ends[a], *ends[b])
    return {((n, b2, a2),): f * w for ((_, a2, b2),), w in _star_key(space, key).items()}


def _linear(coeffs: dict, image) -> dict:
    """Apply a key map to an element's coefficients.  A one-slot image is
    stored under its plain key, so maps into the algebra give algebra keys."""
    out: dict = {}
    for key, z in coeffs.items():
        for part, w in image(key).items():
            k = part[0] if len(part) == 1 else part
            out[k] = out.get(k, 0.0) + z * w
    return out


def _on_slot(coeffs: dict, slot: int, image) -> dict:
    """Apply a key map to one slot of tensor-power keys, splicing its slot
    tuple in place of that slot."""
    out: dict = {}
    for key, z in coeffs.items():
        head, tail = key[:slot], key[slot + 1 :]
        for part, w in image(key[slot]).items():
            k = head + part + tail
            out[k] = out.get(k, 0.0) + z * w
    return out


def _sup_diff(u: dict, v: dict) -> float:
    """Largest coefficient of u - v."""
    diffs = (abs(u.get(k, 0.0) - v.get(k, 0.0)) for k in u.keys() | v.keys())
    return max(diffs, default=0.0)


# -- star, coproduct, counit, antipode ---------------------------------------------


def star_alg(x: AlgebraElement) -> AlgebraElement:
    """Involution: time-reverse both slots, conjugate coefficients.

    Antilinear, involutive, and an antihomomorphism for `multiply`.
    """
    conj = {k: z.conjugate() for k, z in x.coeffs.items()}
    return AlgebraElement(x.space, _linear(conj, partial(_star_key, x.space)))


def coproduct(x: AlgebraElement) -> TensorSquare:
    """Split each xi_a (x) xi_b into the sum over the full same-length basis
    of (xi_a (x) xi_c) boxtimes (xi_c (x) xi_b)."""
    return TensorSquare(x.space, _linear(x.coeffs, partial(_delta_key, x.space)))


def counit(x: AlgebraElement) -> complex:
    """The pairing of the two slots; the sum of diagonal coefficients for an
    orthonormal basis."""
    return sum(z for (n, a, b), z in x.coeffs.items() if a == b) + 0j


def multiply_tensor_square(u: TensorSquare, v: TensorSquare) -> TensorSquare:
    """Slotwise product (p boxtimes q)(r boxtimes s) = pr boxtimes qs, over
    the term pairs whose endpoints meet in both slots."""
    space = u.space
    out: dict = {}
    for (p, q), zu, (r, s), zv in _meeting_pairs(space, u.coeffs, v.coeffs, tensor=True):
        pr = _basis_product(space, *p, *r)
        if not pr:
            continue
        qs = _basis_product(space, *q, *s)
        z = zu * zv
        for k1, z1 in pr.items():
            zz = z * z1
            for k2, z2 in qs.items():
                key = (k1, k2)
                out[key] = out.get(key, 0.0) + zz * z2
    return TensorSquare(space, out)


def antipode(x: AlgebraElement, weight_fn=None) -> AlgebraElement:
    """S(xi (x) omega) = F(xi, omega) omega* (x) xi*.

    F is the Perron-Frobenius endpoint ratio
    sqrt(mu[s(omega)] mu[r(xi)] / (mu[r(omega)] mu[s(xi)])); `weight_fn`
    replaces it (same four endpoint arguments) for perturbation studies.
    """
    image = partial(_antipode_key, x.space, weight_fn=weight_fn)
    return AlgebraElement(x.space, _linear(x.coeffs, image))


# -- axiom verification -----------------------------------------------------------


@dataclass(frozen=True)
class AxiomResult:
    name: str
    residual: float

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
    coeffs = {}
    for p in picks:
        coeffs[pool[int(p)]] = float(rng.standard_normal())
    return AlgebraElement(space, coeffs)


def verify_axioms(
    space: PathSpace,
    max_length: int,
    samples: int = 100,
    seed: int = 0,
    tolerance: float = 1e-9,
    weight_fn=None,
) -> VerificationReport:
    """Numerically check every weak-bialgebra and antipode axiom.

    Unary axioms sweep all algebra basis elements with lengths up to
    `max_length` plus `samples` seeded sparse random elements; axioms in two
    or three arguments run on `samples` seeded random tuples drawn from that
    pool.  `weight_fn` overrides the antipode's endpoint factor, which is
    how a deliberately corrupted antipode can be shown to fail.  Failures
    are reported as residuals, never raised.  An empty check (no samples,
    or a negative `max_length`) raises `PathHopfError`.
    """
    if samples < 1:
        raise PathHopfError(f"samples must be at least 1, got {samples}")
    if max_length < 0:
        raise PathHopfError(f"max_length must be nonnegative, got {max_length}")
    if 2 * max_length > space.cutoff:
        raise CutoffError(
            f"products at max_length {max_length} exceed the cutoff {space.cutoff}"
        )
    triples_pool = [
        (n, a, b)
        for n in range(max_length + 1)
        for a in range(len(essential_basis(space, n)))
        for b in range(len(essential_basis(space, n)))
    ]
    rng = np.random.default_rng(seed)
    randoms = [_random_element(space, triples_pool, rng) for _ in range(samples)]
    singles = [AlgebraElement.basis_element(space, *t) for t in triples_pool] + randoms
    pairs = [
        (singles[int(rng.integers(len(singles)))], singles[int(rng.integers(len(singles)))])
        for _ in range(samples)
    ]
    triples = [
        tuple(singles[int(rng.integers(len(singles)))] for _ in range(3))
        for _ in range(samples)
    ]
    singles = [(x,) for x in singles]

    one = identity(space)
    # the key maps' images, memoised for this call only (`weight_fn` may
    # differ on the next call on the same space); callers share each image
    # and only read it
    delta = lru_cache(maxsize=None)(partial(_delta_key, space))
    delta_one = coproduct(one).coeffs
    unit_right: dict = {}  # 1_(2) -> its 1_(1) partners, for x 1_(2)
    for (t1, t2), z in delta_one.items():
        unit_right.setdefault(t2, []).append((t1, z))
    star_key = lru_cache(maxsize=None)(partial(_star_key, space))
    s_key = lru_cache(maxsize=None)(partial(_antipode_key, space, weight_fn=weight_fn))
    s_fn = partial(antipode, weight_fn=weight_fn)

    def both_slots(u, image):
        return _on_slot(_on_slot(u, 0, image), 1, image)

    def counit_slot(x, slot):
        return _linear(x.coeffs, lambda k: _on_slot(delta(k), slot, _counit_key))

    def pairing(left, right):
        """counit(left * right) on coefficient dicts."""
        return sum(
            zl * zr * w
            for kl, zl, kr, zr in _meeting_pairs(space, left, right)
            for (_, e, f), w in _basis_product(space, *kl, *kr).items()
            if e == f
        )

    def counit_of_product(x, y):
        """counit(xy) against sum counit(x 1_(1)) counit(1_(2) y), with each
        pairing against a length-0 key summed once."""
        left = {t: pairing(x.coeffs, {t: 1.0}) for t in one.coeffs}
        right = {t: pairing({t: 1.0}, y.coeffs) for t in one.coeffs}
        split = sum(z * left[t1] * right[t2] for (t1, t2), z in delta_one.items())
        return abs(counit(multiply(x, y)) - split)

    def coassociativity(x):
        split = coproduct(x).coeffs
        return _sup_diff(_on_slot(split, 0, delta), _on_slot(split, 1, delta))

    def positivity(value):
        return max(0.0, -value.real, abs(value.imag))

    @lru_cache(maxsize=None)
    def s_then_multiply(key):
        """m (S (x) id) Delta on one basis key, as a one-slot key map."""
        out: dict = {}
        for (p, q), z in delta(key).items():
            for (sp,), w in s_key(p).items():
                for k, v in _basis_product(space, *sp, *q).items():
                    out[k,] = out.get((k,), 0.0) + z * w * v
        return out

    def cancellation(x):
        """sum S(x_(1)) x_(2) boxtimes x_(3) against sum 1_(1) boxtimes x 1_(2).

        The left side is grouped as (m (S (x) id) Delta (x) id) Delta x, so
        each basis key's m (S (x) id) Delta is summed once per call."""
        lhs = _on_slot(coproduct(x).coeffs, 0, s_then_multiply)
        rhs: dict = {}
        for kx, zx, t2, lefts in _meeting_pairs(space, x.coeffs, unit_right):
            prod = _basis_product(space, *kx, *t2)
            for t1, z1 in lefts:
                for k, w in prod.items():
                    rhs[t1, k] = rhs.get((t1, k), 0.0) + z1 * zx * w
        return _sup_diff(lhs, rhs)

    checks = (
        ("product associativity", triples,
         lambda x, y, z: (multiply(multiply(x, y), z) - multiply(x, multiply(y, z))).sup_norm()),
        ("unit element", singles,
         lambda x: max((multiply(one, x) - x).sup_norm(), (multiply(x, one) - x).sup_norm())),
        ("star involution", singles, lambda x: (star_alg(star_alg(x)) - x).sup_norm()),
        ("star antihomomorphism", pairs,
         lambda x, y: (star_alg(multiply(x, y)) - multiply(star_alg(y), star_alg(x))).sup_norm()),
        ("coproduct multiplicative", pairs,
         lambda x, y: (coproduct(multiply(x, y))
                       - multiply_tensor_square(coproduct(x), coproduct(y))).sup_norm()),
        ("coproduct star-compatible", singles,
         lambda x: _sup_diff(coproduct(star_alg(x)).coeffs, both_slots(
             {k: z.conjugate() for k, z in coproduct(x).coeffs.items()}, star_key))),
        ("coassociativity", singles, coassociativity),
        ("counit left inverse", singles, lambda x: _sup_diff(counit_slot(x, 0), x.coeffs)),
        ("counit right inverse", singles, lambda x: _sup_diff(counit_slot(x, 1), x.coeffs)),
        ("counit of product", pairs, counit_of_product),
        ("counit positivity", singles,
         lambda x: positivity(counit(multiply(x, star_alg(x))))),
        ("antipode product rule", pairs,
         lambda x, y: (s_fn(multiply(x, y)) - multiply(s_fn(y), s_fn(x))).sup_norm()),
        ("antipode star double", singles,
         lambda x: (star_alg(s_fn(star_alg(s_fn(x)))) - x).sup_norm()),
        ("antipode coproduct rule", singles,
         lambda x: _sup_diff(coproduct(s_fn(x)).coeffs, both_slots(
             {(q, p): z for (p, q), z in coproduct(x).coeffs.items()}, s_key))),
        ("antipode cancellation", singles, cancellation),
    )
    results = tuple(
        AxiomResult(name, max(fn(*args) for args in pool)) for name, pool, fn in checks
    )
    return VerificationReport(
        graph=space.graph.name,
        max_length=max_length,
        samples=samples,
        seed=seed,
        tolerance=tolerance,
        results=results,
    )


# -- serialization (external JSON surface) -----------------------------------------


def _vector_to_obj(x: PathVector) -> list:
    return [
        {"path": format_path(p), "coeff": [c.real, c.imag]} for p, c in x.terms()
    ]


def _vector_from_obj(entries, length: int) -> PathVector:
    coeffs = {}
    for item in entries:
        path = tuple(int(v) for v in str(item["path"]).split("-"))
        if len(path) - 1 != length:
            raise ValueError(
                f"path {item['path']!r} does not have length {length}"
            )
        re, im = item["coeff"]
        coeffs[path] = coeffs.get(path, 0.0) + complex(float(re), float(im))
    return PathVector(length, coeffs)


def element_to_obj(x: AlgebraElement) -> list:
    """Serialize an algebra element with the essential vectors expanded in
    elementary-path coordinates."""
    space = x.space
    out = []
    for (n, a, b), z in x.terms():
        basis = essential_basis(space, n)
        out.append(
            {
                "length": n,
                "left": _vector_to_obj(basis.vectors[a]),
                "right": _vector_to_obj(basis.vectors[b]),
                "coeff": [z.real, z.imag],
            }
        )
    return out


def element_from_obj(space: PathSpace, obj) -> AlgebraElement:
    """Inverse of `element_to_obj`; the listed vectors must be essential."""
    out: dict = {}
    for entry in obj:
        n = int(entry["length"])
        left = _vector_from_obj(entry["left"], n)
        right = _vector_from_obj(entry["right"], n)
        re, im = entry["coeff"]
        z = complex(float(re), float(im))
        basis = essential_basis(space, n)
        for side, vec in (("left", left), ("right", right)):
            residual = vec
            for a, ca in basis.expand(vec).items():
                residual = residual - ca * basis.vectors[a]
            if residual.sup_norm() > 1e-9:
                raise BasisError(
                    f"{side} vector of a length-{n} entry is not essential"
                )
        la = basis.expand(left)
        rb = basis.expand(right)
        for a, ca in la.items():
            for b, cb in rb.items():
                k = (n, a, b)
                out[k] = out.get(k, 0.0) + z * ca * cb
    return AlgebraElement(space, out)


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
