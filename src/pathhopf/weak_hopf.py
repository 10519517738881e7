"""Weak *-Hopf algebra on graded endomorphisms of essential paths.

Elements live in the direct sum over n of E_n (x) E_n, stored sparsely
against the orthonormal essential bases.  The product concatenates slotwise
and projects back onto essentials through the contraction coefficients
C(i...; j...); coproduct, counit, star, and antipode complete the weak
*-Hopf structure, and `verify_axioms` checks every axiom numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BasisError, CutoffError, PathHopfError
from .essential_decomp import decompose_coordinates, essential_basis
from .path_space import (
    PathSpace,
    PathVector,
    concat,
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

    Computed by direct operator application to one essential basis vector:
    apply the creations j_1, ..., j_n, then the annihilations i_n, ..., i_1,
    and pair with the same vector.  The value is independent of the chosen
    basis vector; a second one is checked when available and a discrepancy
    raises `BasisError`.
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
    """Pair decomposition terms of equal word length through C."""
    out: dict = {}
    for jw, m, left_exp in left_terms:
        for iw, m2, right_exp in right_terms:
            if len(jw) != len(iw):
                continue  # unequal creation counts project to zero
            if m != m2:
                continue
            c = coefficient_C(space, CoefficientKey(iw, jw), m)
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


def _pair_decomp(space, n1, a, n2, c):
    """Cached decomposition coordinates of basis_vector(n1, a) * basis_vector(n2, c)."""
    cache = space.cache.setdefault("pair_decomp", {})
    key = (n1, a, n2, c)
    if key not in cache:
        left = essential_basis(space, n1).vectors[a]
        right = essential_basis(space, n2).vectors[c]
        cache[key] = decompose_coordinates(space, concat(left, right))
    return cache[key]


def _basis_product(space, n1, a, b, n2, c, d) -> dict:
    """Cached coefficients of the product of two basis elements
    (n1,a,b) . (n2,c,d).  The memo holds plain dicts: an element would
    point back at `space` and tie every space into a reference cycle."""
    if n1 + n2 > space.cutoff:
        raise CutoffError(
            f"product of lengths {n1}+{n2} exceeds the cutoff {space.cutoff}"
        )
    cache = space.cache.setdefault("basis_product", {})
    key = (n1, a, b, n2, c, d)
    if key not in cache:
        out = _combine_terms(
            space, _pair_decomp(space, n1, a, n2, c), _pair_decomp(space, n1, b, n2, d)
        )
        cache[key] = {k: z for k, z in out.items() if abs(z) > 1e-14}
    return cache[key]


def multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Bilinear product: concatenate slotwise, then project onto essentials.

    The output of length-n1 by length-n2 elements spreads over lengths
    n1 + n2 - 2l (the algebra is filtered, not graded).
    """
    space = x.space
    out: dict = {}
    for (n1, a, b), zx in x.coeffs.items():
        for (n2, c, d), zy in y.coeffs.items():
            prod = _basis_product(space, n1, a, b, n2, c, d)
            if prod:
                z = zx * zy
                for k, zc in prod.items():
                    out[k] = out.get(k, 0.0) + z * zc
    return AlgebraElement(space, out)


def identity(space: PathSpace) -> AlgebraElement:
    """The unit: the sum of v (x) v' over all ordered pairs of length-0
    basis vectors."""
    dim = len(essential_basis(space, 0))
    return AlgebraElement(
        space, {(0, a, b): 1.0 for a in range(dim) for b in range(dim)}
    )


# -- star ----------------------------------------------------------------------


def _star_columns(space, n):
    """Column a of the length-n star matrix: expansion of star(xi_a)."""
    cache = space.cache.setdefault("star_columns", {})
    if n not in cache:
        basis = essential_basis(space, n)
        cache[n] = tuple(basis.expand(star(xi)) for xi in basis.vectors)
    return cache[n]


def star_alg(x: AlgebraElement) -> AlgebraElement:
    """Involution: time-reverse both slots, conjugate coefficients.

    Antilinear, involutive, and an antihomomorphism for `multiply`.
    """
    space = x.space
    out: dict = {}
    for (n, a, b), z in x.coeffs.items():
        zc = z.conjugate()
        cols = _star_columns(space, n)
        for a2, sa in cols[a].items():
            for b2, sb in cols[b].items():
                k = (n, a2, b2)
                out[k] = out.get(k, 0.0) + zc * sa * sb
    return AlgebraElement(space, out)


# -- coproduct and counit -------------------------------------------------------


def coproduct(x: AlgebraElement) -> TensorSquare:
    """Split each xi_a (x) xi_b into the sum over the full same-length basis
    of (xi_a (x) xi_c) boxtimes (xi_c (x) xi_b)."""
    space = x.space
    out: dict = {}
    for (n, a, b), z in x.coeffs.items():
        for c in range(len(essential_basis(space, n))):
            key = ((n, a, c), (n, c, b))
            out[key] = out.get(key, 0.0) + z
    return TensorSquare(space, out)


def counit(x: AlgebraElement) -> complex:
    """The pairing of the two slots; the sum of diagonal coefficients for an
    orthonormal basis."""
    return sum(z for (n, a, b), z in x.coeffs.items() if a == b) + 0j


def multiply_tensor_square(u: TensorSquare, v: TensorSquare) -> TensorSquare:
    """Slotwise product (p boxtimes q)(r boxtimes s) = pr boxtimes qs."""
    space = u.space
    out: dict = {}
    for (p, q), zu in u.coeffs.items():
        for (r, s), zv in v.coeffs.items():
            pr = _basis_product(space, *p, *r)
            if not pr:
                continue
            qs = _basis_product(space, *q, *s)
            if not qs:
                continue
            z = zu * zv
            for k1, z1 in pr.items():
                zz = z * z1
                for k2, z2 in qs.items():
                    key = (k1, k2)
                    out[key] = out.get(key, 0.0) + zz * z2
    return TensorSquare(space, out)


# -- antipode -------------------------------------------------------------------


def _pf_weight(space, s_left, r_left, s_right, r_right) -> float:
    mu = space.mu
    return math.sqrt((mu[s_right] * mu[r_left]) / (mu[r_right] * mu[s_left]))


def antipode(x: AlgebraElement, weight_fn=None) -> AlgebraElement:
    """S(xi (x) omega) = F(xi, omega) omega* (x) xi*.

    F is the Perron-Frobenius endpoint ratio
    sqrt(mu[s(omega)] mu[r(xi)] / (mu[r(omega)] mu[s(xi)])); `weight_fn`
    replaces it (same four endpoint arguments) for perturbation studies.
    """
    space = x.space
    fn = weight_fn
    out: dict = {}
    for (n, a, b), z in x.coeffs.items():
        basis = essential_basis(space, n)
        s_a, r_a = basis.endpoints[a]
        s_b, r_b = basis.endpoints[b]
        if fn is None:
            f = _pf_weight(space, s_a, r_a, s_b, r_b)
        else:
            f = fn(s_a, r_a, s_b, r_b)
        cols = _star_columns(space, n)
        zf = z * f
        for b2, sb in cols[b].items():
            for a2, sa in cols[a].items():
                k = (n, b2, a2)
                out[k] = out.get(k, 0.0) + zf * sb * sa
    return AlgebraElement(space, out)


# -- generic tensor helpers (internal) -------------------------------------------


def _expand_slot(space, coeffs: dict, slot: int) -> dict:
    """Apply the coproduct to one slot of a tensor-power coefficient dict."""
    out: dict = {}
    for key, z in coeffs.items():
        n, a, b = key[slot]
        for c in range(len(essential_basis(space, n))):
            new = key[:slot] + ((n, a, c), (n, c, b)) + key[slot + 1 :]
            out[new] = out.get(new, 0.0) + z
    return out


def _counit_slot(space, coeffs: dict, slot: int) -> dict:
    """Apply the counit to one slot of a tensor-power coefficient dict."""
    out: dict = {}
    for key, z in coeffs.items():
        n, a, b = key[slot]
        if a != b:
            continue
        new = key[:slot] + key[slot + 1 :]
        out[new] = out.get(new, 0.0) + z
    return out


def _dict_diff_sup(d1: dict, d2: dict) -> float:
    sup = 0.0
    for k in d1.keys() | d2.keys():
        sup = max(sup, abs(d1.get(k, 0.0) - d2.get(k, 0.0)))
    return sup


def _flip(u: TensorSquare) -> TensorSquare:
    return TensorSquare(u.space, {(q, p): z for (p, q), z in u.coeffs.items()})


def _map_slots(space, u: TensorSquare, fn) -> TensorSquare:
    """Apply a linear map (given by its action on basis elements, as an
    AlgebraElement) to both slots of a tensor square."""
    out: dict = {}
    for (p, q), z in u.coeffs.items():
        fp = fn(AlgebraElement.basis_element(space, *p))
        fq = fn(AlgebraElement.basis_element(space, *q))
        for k1, z1 in fp.coeffs.items():
            for k2, z2 in fq.coeffs.items():
                key = (k1, k2)
                out[key] = out.get(key, 0.0) + z * z1 * z2
    return TensorSquare(space, out)


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
    basis_els = [AlgebraElement.basis_element(space, *t) for t in triples_pool]
    rng = np.random.default_rng(seed)
    randoms = [_random_element(space, triples_pool, rng) for _ in range(samples)]
    singles = basis_els + randoms
    pairs = [
        (singles[int(rng.integers(len(singles)))], singles[int(rng.integers(len(singles)))])
        for _ in range(samples)
    ]
    triples = [
        tuple(singles[int(rng.integers(len(singles)))] for _ in range(3))
        for _ in range(samples)
    ]
    one = identity(space)
    delta_one = coproduct(one)
    s_fn = lambda el: antipode(el, weight_fn=weight_fn)

    residuals: dict[str, float] = {}

    def note(name, value):
        residuals[name] = max(residuals.get(name, 0.0), value)

    for x, y, z in triples:
        note(
            "product associativity",
            (multiply(multiply(x, y), z) - multiply(x, multiply(y, z))).sup_norm(),
        )
    for x in singles:
        note("unit element", (multiply(one, x) - x).sup_norm())
        note("unit element", (multiply(x, one) - x).sup_norm())
        note("star involution", (star_alg(star_alg(x)) - x).sup_norm())
    for x, y in pairs:
        note(
            "star antihomomorphism",
            (star_alg(multiply(x, y)) - multiply(star_alg(y), star_alg(x))).sup_norm(),
        )
        note(
            "coproduct multiplicative",
            (
                coproduct(multiply(x, y))
                - multiply_tensor_square(coproduct(x), coproduct(y))
            ).sup_norm(),
        )
    for x in singles:
        dx = coproduct(x)
        note(
            "coproduct star-compatible",
            (coproduct(star_alg(x)) - _map_slots(space, dx, star_alg)).sup_norm(),
        )
        note(
            "coassociativity",
            _dict_diff_sup(
                _expand_slot(space, dx.coeffs, 0), _expand_slot(space, dx.coeffs, 1)
            ),
        )
        note(
            "counit left inverse",
            _dict_diff_sup(
                {k[0]: z for k, z in _counit_slot(space, dx.coeffs, 0).items()},
                x.coeffs,
            ),
        )
        note(
            "counit right inverse",
            _dict_diff_sup(
                {k[0]: z for k, z in _counit_slot(space, dx.coeffs, 1).items()},
                x.coeffs,
            ),
        )
    for x, y in pairs:
        direct = counit(multiply(x, y))
        split = 0j
        for ((_, v, u), t2), z1 in delta_one.coeffs.items():
            left = counit(multiply(x, AlgebraElement.basis_element(space, 0, v, u)))
            if abs(left) < 1e-14:
                continue
            right = counit(multiply(AlgebraElement.basis_element(space, *t2), y))
            split += z1 * left * right
        note("counit of product", abs(direct - split))
    for x in singles:
        val = counit(multiply(x, star_alg(x)))
        note("counit positivity", max(0.0, -val.real, abs(val.imag)))
    for x, y in pairs:
        note(
            "antipode product rule",
            (s_fn(multiply(x, y)) - multiply(s_fn(y), s_fn(x))).sup_norm(),
        )
    for x in singles:
        note(
            "antipode star double",
            (star_alg(s_fn(star_alg(s_fn(x)))) - x).sup_norm(),
        )
        note(
            "antipode coproduct rule",
            (
                coproduct(s_fn(x)) - _map_slots(space, _flip(coproduct(x)), s_fn)
            ).sup_norm(),
        )
        note("antipode cancellation", _antipode_cancellation_residual(space, x, s_fn, delta_one))

    order = [
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
    results = tuple(AxiomResult(name, residuals[name]) for name in order)
    return VerificationReport(
        graph=space.graph.name,
        max_length=max_length,
        samples=samples,
        seed=seed,
        tolerance=tolerance,
        results=results,
    )


def _antipode_cancellation_residual(space, x, s_fn, delta_one) -> float:
    """Residual of: sum S(a_(1)) a_(2) boxtimes a_(3) = sum 1_1 boxtimes a 1_2."""
    sweedler3 = _expand_slot(space, coproduct(x).coeffs, 0)
    lhs: dict = {}
    for (k1, k2, k3), z in sweedler3.items():
        prod = multiply(s_fn(AlgebraElement.basis_element(space, *k1)),
                        AlgebraElement.basis_element(space, *k2))
        for kp, zp in prod.coeffs.items():
            key = (kp, k3)
            lhs[key] = lhs.get(key, 0.0) + z * zp
    rhs: dict = {}
    for (t1, t2), z1 in delta_one.coeffs.items():
        prod = multiply(x, AlgebraElement.basis_element(space, *t2))
        for kp, zp in prod.coeffs.items():
            key = (t1, kp)
            rhs[key] = rhs.get(key, 0.0) + z1 * zp
    return _dict_diff_sup(lhs, rhs)


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
