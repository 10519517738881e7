"""Essential paths and the orthogonal decomposition of path space.

A path vector is essential when every annihilation operator kills it.  The
degree-n slice splits as the orthogonal direct sum, over l, of spans of
creation words of length l applied to essential vectors of length n - 2l;
`decompose` computes the canonical term list realizing that splitting and
`project_component` reads off the orthogonal projections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CutoffError, SingularSystemError
from .path_space import (
    OperatorWord,
    PathSpace,
    PathVector,
    inner_product,
    zero_vector,
)

#: Singular values at or below this mark the kernel of c_{n-2}.
KERNEL_TOL = 1e-9


class EssentialBasis:
    """Orthonormal basis of the essential subspace at one length.

    Vectors are grouped by (source, range) block; annihilation preserves
    endpoints, so the essential subspace splits over blocks and every basis
    vector has well-defined endpoints.  `index` maps flat position to
    (block, offset); blocks are ordered lexicographically.
    """

    def __init__(self, length, vectors, endpoints, blocks):
        self.length = length
        self.vectors = tuple(vectors)
        self.endpoints = tuple(endpoints)
        self.blocks = dict(blocks)

    def __len__(self):
        return len(self.vectors)

    def expand(self, x: PathVector) -> dict[int, complex]:
        """Coefficients of `x` against the basis: index -> (xi_a, x)."""
        out = {}
        for a, xi in enumerate(self.vectors):
            c = inner_product(xi, x)
            if abs(c) > 1e-14:
                out[a] = c
        return out


def essential_basis(space: PathSpace, n: int) -> EssentialBasis:
    """Orthonormal basis of the length-n essential subspace (cached).

    For n < 2 no annihilation acts and the elementary paths are the basis.
    For n >= 2 the basis grows from the cached length-(n-1) basis: grouped
    by its last edge (r -> t), an essential vector of length n has every
    part in E_{n-1}, so E_n is the kernel of the last annihilation c_{n-2}
    on the orthonormal candidates xi_a . (r -> t).  Per (source, range)
    block, that kernel is read off the SVD of the small matrix of c_{n-2}
    in candidate coordinates.  The result is deterministic but its
    orthonormal gauge within each block is whatever the SVD returns.
    Raises `CutoffError` for n beyond the space's cutoff.
    """
    if n > space.cutoff:
        raise CutoffError(f"path length {n} exceeds the cutoff {space.cutoff}")
    cache = space.cache.setdefault("essential_basis", {})
    if n not in cache:
        cache[n] = _build_basis(space, n)
    return cache[n]


def _build_basis(space: PathSpace, n: int) -> EssentialBasis:
    if n < 2:
        # no annihilation operator acts; elementary paths are the basis
        parts = [
            ((p[0], p[-1]), [PathVector.unit(p)]) for p in space.enumerate_paths(n)
        ]
    else:
        prev = essential_basis(space, n - 1)
        nv = space.graph.num_vertices
        parts = [
            ((s, t), _block_kernel(space, prev, s, t))
            for s in range(nv)
            for t in range(nv)
        ]
    vectors: list[PathVector] = []
    endpoints: list[tuple[int, int]] = []
    blocks: dict[tuple[int, int], tuple[int, ...]] = {}
    for key, block_vectors in parts:  # lexicographic in (source, range)
        if block_vectors:
            blocks[key] = tuple(range(len(vectors), len(vectors) + len(block_vectors)))
            vectors.extend(block_vectors)
            endpoints.extend([key] * len(block_vectors))
    return EssentialBasis(n, vectors, endpoints, blocks)


def _block_kernel(space, prev: EssentialBasis, source, target) -> list[PathVector]:
    """Block (source, target) of E_n as the kernel of c_{n-2} on the
    candidates xi_a . (r -> target), xi_a in block (source, r) of E_{n-1}."""
    adjacency = space.graph.adjacency
    candidates = [
        a
        for r in range(space.graph.num_vertices)
        if adjacency[r, target]
        for a in prev.blocks.get((source, r), ())
    ]
    if not candidates:
        return []
    # c_{n-2} sends q . (r -> t) to q[:-1] when q[-2] = t, with weight
    # sqrt(mu[r] / mu[t]); a path q can occur in several candidates
    col: dict = {}
    row: dict = {}
    spread, image = [], []
    for j, a in enumerate(candidates):
        r = prev.endpoints[a][1]
        w = space.sqrt_mu[r] / space.sqrt_mu[target]
        for q, c in prev.vectors[a].coeffs.items():
            spread.append((j, col.setdefault(q, len(col)), c.real))
            if q[-2] == target:
                image.append((row.setdefault(q[:-1], len(row)), j, c.real * w))
    m = np.zeros((len(row), len(candidates)))
    for i, j, c in image:
        m[i, j] += c
    # the full V^T spans the candidates; rows past the rank span the kernel
    _, sing, vt = np.linalg.svd(m)
    kernel = vt[int(np.sum(sing > KERNEL_TOL)) :]
    x = np.zeros((len(candidates), len(col)))
    for j, i, c in spread:
        x[j, i] = c
    paths = [q + (target,) for q in col]
    return [PathVector(prev.length + 1, dict(zip(paths, v))) for v in kernel @ x]


def is_essential(space: PathSpace, x: PathVector, tol: float = 1e-9) -> bool:
    """True iff every applicable annihilation image of `x` has norm < tol."""
    return all(
        space.annihilate(i, x).norm() < tol for i in range(x.length - 1)
    )


# -- tridiagonal splitting system -------------------------------------------


def tridiagonal_matrix(beta: float, size: int) -> np.ndarray:
    """The size x size matrix with beta on the diagonal, 1 off it."""
    t = np.eye(size) * beta
    idx = np.arange(size - 1)
    t[idx, idx + 1] = 1.0
    t[idx + 1, idx] = 1.0
    return t


def tridiagonal_det(beta: float, size: int) -> float:
    """Closed-form determinant of `tridiagonal_matrix(beta, size)`.

    Equals beta^k (l+^{k+1} - l-^{k+1}) / (l+ - l-) with
    l± = (1 ± sqrt(1 - 4/beta^2)) / 2; expanding in powers of
    s^2 = 1 - 4/beta^2 removes the branch point, so the same polynomial
    evaluates every beta (at beta = 2 it degenerates to size + 1).
    """
    if size == 0:
        return 1.0
    s2 = 1.0 - 4.0 / (beta * beta)
    total = 0.0
    power = 1.0
    binom = size + 1  # C(size+1, 1)
    for m in range(size // 2 + 1):
        total += binom * power
        power *= s2
        binom = binom * (size - 2 * m) * (size - 2 * m - 1) // ((2 * m + 2) * (2 * m + 3))
    return (beta / 2.0) ** size * total


def tridiagonal_solve(beta: float, size: int) -> np.ndarray:
    """Solve T alpha = (1, 0, ..., 0) for the tridiagonal T above.

    The determinant from direct elimination is cross-checked against the
    closed form; a near-zero determinant (|det| < 1e-9) means the input
    path was inconsistent with the graph's maximum essential length.
    """
    if size < 1:
        raise ValueError("system size must be >= 1")
    t = tridiagonal_matrix(beta, size)
    det = float(np.linalg.det(t))
    closed = tridiagonal_det(beta, size)
    if abs(det - closed) > 1e-9 * max(1.0, abs(closed)):
        raise SingularSystemError(
            f"determinant mismatch for beta={beta}, size={size}: {det} vs {closed}"
        )
    if abs(det) < 1e-9:
        raise SingularSystemError(
            f"tridiagonal system is near-singular (det={det:.3e}) for "
            f"beta={beta}, size={size}"
        )
    rhs = np.zeros(size)
    rhs[0] = 1.0
    return np.linalg.solve(t, rhs)


# -- decomposition -----------------------------------------------------------


@dataclass(frozen=True)
class Decomposition:
    """Canonical term list (word, essential vector); the input is the sum of
    apply_word(word, vector) over terms."""

    length: int
    terms: tuple[tuple[OperatorWord, PathVector], ...]

    def component(self, l: int) -> tuple[tuple[OperatorWord, PathVector], ...]:
        return tuple(t for t in self.terms if len(t[0]) == l)


def decompose(space: PathSpace, x: PathVector) -> Decomposition:
    """Split `x` into normal-ordered creation words applied to essentials.

    Recursive splitting: take the largest index i with c_i x != 0, write
    x = sum_k alpha_k c†_k (c_i x) + residual with alpha from
    `tridiagonal_solve` (so the residual is killed by c_i, ..., c_{n-2}),
    then recurse on c_i x and on the residual.  Words are normal-ordered via
    the exchange rule and merged; recompose returns the input.
    """
    if x.length > space.cutoff:
        raise CutoffError(
            f"path length {x.length} exceeds the cutoff {space.cutoff}"
        )
    acc: dict[OperatorWord, PathVector] = {}
    _decompose_into(space, x, acc)
    terms = [
        (w, v) for w, v in acc.items() if not v.is_zero()
    ]
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
    sub: dict[OperatorWord, PathVector] = {}
    _decompose_into(space, ci_x, sub)
    residual = x
    for offset, a in enumerate(alpha):
        k = i + offset
        residual = residual - float(a) * space.create(k, ci_x)
        for w, v in sub.items():
            wk = w.then(k)
            acc[wk] = acc.get(wk, zero_vector(n)) + float(a) * v
    _decompose_into(space, residual, acc)


def recompose(space: PathSpace, d: Decomposition) -> PathVector:
    """Sum apply_word(word, vector) over the terms of `d`."""
    out = zero_vector(d.length)
    for word, xi in d.terms:
        out = out + space.apply_word(word, xi)
    return out


def project_component(space: PathSpace, x: PathVector, l: int) -> PathVector:
    """Orthogonal projection of `x` onto the span of length-l creation words
    applied to essentials; l = 0 projects onto essential paths."""
    d = decompose(space, x)
    out = zero_vector(x.length)
    for word, xi in d.component(l):
        out = out + space.apply_word(word, xi)
    return out
