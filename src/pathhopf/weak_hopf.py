"""Weak *-Hopf algebra on graded endomorphisms of essential paths.

Elements live in the direct sum over n of E_n (x) E_n, stored sparsely
against the orthonormal essential bases under keys (n, a, b) for
xi_a (x) xi_b.  The product concatenates slotwise and projects back onto
essentials through the contraction scalars C(i...; j...), which it reads
off the cached creation-word Gram matrices (`word_gram`).

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
            for kl, zl in left.items()
            for kr, zr in right.items()
            for (_, e, f), w in _basis_product(space, *kl, *kr).items()
            if e == f
        )

    def counit_of_product(x, y):
        split = sum(
            z * pairing(x.coeffs, {t1: 1.0}) * pairing({t2: 1.0}, y.coeffs)
            for (t1, t2), z in delta_one.items()
        )
        return abs(counit(multiply(x, y)) - split)

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
        for (t1, t2), z1 in delta_one.items():
            for kx, zx in x.coeffs.items():
                for k, w in _basis_product(space, *kx, *t2).items():
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
        ("coassociativity", singles,
         lambda x: _sup_diff(_on_slot(coproduct(x).coeffs, 0, delta),
                             _on_slot(coproduct(x).coeffs, 1, delta))),
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
