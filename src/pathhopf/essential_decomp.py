"""Essential paths and the orthogonal decomposition of path space.

A path vector is essential when every annihilation operator kills it.  The
degree-n slice splits as the orthogonal direct sum, over l, of the spans of
c†_w xi for creation words w of length l and essential xi of length
m = n - 2l.  The Gram matrix of those vectors is G_{m,l} (x) I: it depends
on beta and the words, not on the block or the basis vector.  So
`decompose` solves one small word-Gram system per block and level instead
of splitting recursively; its per-length tables (walks, the c_k as index
arrays, dense basis blocks, inverted Gram matrices) are built lazily and
cached on the space.  On a finite ADE graph with Coxeter number h, the
words keep only creations c†_k with k >= L - h + 1, L the length they make
(the Jones-Wenzl truncation).  `project_component` reads off the
orthogonal projections.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import BasisError, CutoffError, GraphError, SingularSystemError
from .graph_core import coxeter_info
from .path_space import (
    OperatorWord,
    PathSpace,
    PathVector,
    format_path,
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
    in candidate coordinates.  The result is deterministic; within each
    block the orthonormal vectors are the SVD's, each signed so that its
    first coefficient above 1e-9, in lexicographic path order, is positive.
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
    vectors = kernel @ x
    out = []
    for v, keep in zip(vectors.tolist(), (np.abs(vectors) > 1e-9).tolist()):
        # fix the sign the SVD leaves free: the first coefficient above
        # 1e-9, in lexicographic path order, is positive
        if min(compress(zip(paths, v), keep))[1] < 0:
            v = [-c for c in v]
        out.append(PathVector(prev.length + 1, dict(zip(paths, v))))
    return out


def is_essential(space: PathSpace, x: PathVector, tol: float = 1e-9) -> bool:
    """True iff every applicable annihilation image of `x` has norm < tol."""
    return all(
        space.annihilate(i, x).norm() < tol for i in range(x.length - 1)
    )


# -- tridiagonal splitting system -------------------------------------------
#
# Not on the `decompose` path: these stay public for the closed-form
# determinant law, and the tests keep the recursive splitter built on
# `tridiagonal_solve` as an oracle for `decompose`.


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

    Per (source, range) block and per level l >= 1, with m = n - 2l, the
    essential part of word w is
    eta_w = sum_{w'} (G^-1)_{w,w'} B_m B_m^T (c_{w'} x),
    where G = `word_gram(space, n, l)` and B_m is the block of the E_m
    basis; the essential part of x is x - sum_{|w| >= 1} c†_w eta_w.  The
    words are `creation_words(space, n)`: strictly increasing, every index
    <= n - 2, and on a finite ADE graph truncated so that the c†_w xi stay
    independent.  recompose returns the input.
    """
    n = x.length
    tables = _tables(space)
    parts: dict = {}
    for (s, r), y in _blocks(space, tables, x):
        vectors = {
            w: tables.basis(space, n - 2 * len(w), s, r)[0] @ c
            for w, c in _solve_block(space, tables, n, s, r, y).items()
        }
        vectors[()] = y - tables.lift(space, n, s, r, vectors)
        for w, v in vectors.items():
            paths = tables.block(space, n - 2 * len(w), s, r)
            parts.setdefault(w, {}).update(zip(paths, v.tolist()))
    terms = [(OperatorWord(w), PathVector(n - 2 * len(w), c)) for w, c in parts.items()]
    terms = [t for t in terms if not t[1].is_zero()]
    terms.sort(key=lambda t: (len(t[0]), t[0].indices))
    return Decomposition(length=n, terms=tuple(terms))


def decompose_coordinates(space: PathSpace, x: PathVector) -> tuple:
    """`decompose` read against the essential bases: a tuple of
    (word indices, m, {index in essential_basis(space, m): coefficient}),
    ordered by word length and then word, with coefficients of at most
    1e-14 left out."""
    n = x.length
    tables = _tables(space)
    parts: dict = {}
    for (s, r), y in _blocks(space, tables, x):
        solved = _solve_block(space, tables, n, s, r, y)
        basis = tables.basis(space, n, s, r)[0]
        if basis.shape[1]:
            solved[()] = y @ basis
        for w, coeffs in solved.items():
            m = n - 2 * len(w)
            offsets = tables.basis(space, m, s, r)[1]
            coords = parts.setdefault((w, m), {})
            for a, c in zip(offsets, coeffs.tolist()):
                if abs(c) > 1e-14:
                    coords[a] = c
    return tuple(
        sorted(
            ((w, m, c) for (w, m), c in parts.items() if c),
            key=lambda t: (len(t[0]), t[0]),
        )
    )


def creation_words(space: PathSpace, n: int) -> list[list[tuple[int, ...]]]:
    """The creation words `decompose` uses at length n: entry l lists the
    level-l words in lexicographic order.

    A word (i_1, ..., i_l) is strictly increasing, and c†_{i_j} makes the
    length L = n - 2(l - j) with i_j <= L - 2.  On a finite ADE graph with
    Coxeter number h also i_j >= L - h + 1 (the Jones-Wenzl truncation):
    the Jones-Wenzl projection on h - 1 strands vanishes on paths, so the
    dropped words would make the c†_w xi linearly dependent.  Every suffix
    of a word is a word.
    """
    return _tables(space).words(n)


def word_gram(space: PathSpace, n: int, l: int) -> np.ndarray:
    """Gram matrix G of the vectors c†_w xi over the level-l words at
    length n, rows in `creation_words(space, n)[l]` order, for a unit
    essential xi of length m = n - 2l.

    For essential xi and xi', <c†_w xi, c†_w' xi'> = G[w, w'] <xi, xi'>,
    so G depends on beta and the words only, and G[w, w'] is the
    contraction scalar C(w'; w) the product reads.  It is built once from
    the first basis vector of E_m and cached; the returned array is
    read-only.  Raises `BasisError` when E_m is empty.
    """
    return _tables(space).gram(space, n, l)


def _blocks(space: PathSpace, tables, x: PathVector) -> list:
    """`x` split by (source, range) into dense arrays over the block's walks,
    real when every coefficient is."""
    n = x.length
    if n > space.cutoff:
        raise CutoffError(f"path length {n} exceeds the cutoff {space.cutoff}")
    parts: dict = {}
    for p, c in x.coeffs.items():
        parts.setdefault((p[0], p[-1]), {})[p] = c
    out = []
    for (s, r), part in sorted(parts.items()):
        if not (0 <= s < space.graph.num_vertices and 0 <= r < space.graph.num_vertices):
            raise GraphError(f"{format_path(next(iter(part)))} is not a walk of length {n}")
        values = np.array(list(part.values()))
        if not values.imag.any():
            values = values.real
        y = np.zeros(len(tables.block(space, n, s, r)), dtype=values.dtype)
        y[tables.positions(space, n, s, r, part)] = values
        out.append(((s, r), y))
    return out


def _solve_block(space, tables, n, s, r, y) -> dict:
    """Word -> coefficients of eta_w over block (s, r) of E_{n-2|w|}, for
    every word of length >= 1 whose basis block is not empty.

    The images c_w y are computed level by level: c_{(i,) + v} y is
    c_i (c_v y), so each word costs one sparse annihilation of its suffix's
    image, and a word whose image vanishes drops every word that extends it.
    """
    out = {}
    images = {(): y}
    for l, words in enumerate(tables.words(n)[1:], start=1):
        m = n - 2 * l
        images = {
            w: z
            for w in words
            if w[1:] in images
            for z in (tables.annihilate(space, m + 2, s, r, w[0], images[w[1:]]),)
            if z.any()
        }
        if not images:
            break
        basis = tables.basis(space, m, s, r)[0]
        if not basis.shape[1]:
            continue
        rhs = np.zeros((len(words), basis.shape[1]), dtype=y.dtype)
        for j, w in enumerate(words):
            if w in images:
                rhs[j] = images[w] @ basis
        out.update(zip(words, tables.gram_inverse(space, n, l) @ rhs))
    return out


def _spread(index, weight, values, size: int) -> np.ndarray:
    """The length-`size` array of sums of weight * values by index."""
    if np.iscomplexobj(values):
        return _spread(index, weight, values.real, size) + 1j * _spread(
            index, weight, values.imag, size
        )
    return np.bincount(index, weights=weight * values, minlength=size)


def _tables(space: PathSpace) -> "_DecompositionTables":
    tables = space.cache.get("decompose_tables")
    if tables is None:
        tables = space.cache["decompose_tables"] = _DecompositionTables(space)
    return tables


class _DecompositionTables:
    """What `decompose` reads, filled on first use at each length.

    Per (length, source, range) block: the walks in lexicographic order;
    every c_k to length - 2 as index arrays (src, dst, weight), read the
    other way for c†_k; and the block of the essential basis as a dense
    real matrix.  Per length: the creation words and each word's position
    in its level.  Per (length, level): their Gram matrix and its inverse.
    No dense map on all paths of a length is kept.
    Holds no reference to the space, so the space's cache does not point
    back at it.
    """

    def __init__(self, space: PathSpace):
        info = coxeter_info(space.spectrum)
        self.coxeter = None if info is None else info.coxeter_number
        self.sqrt_mu = np.asarray(space.sqrt_mu)
        self.walks: dict = {}
        self.annihilators: dict = {}
        self.bases: dict = {}
        self.levels: dict = {}
        self.word_index: dict = {}
        self.grams: dict = {}
        self.inverses: dict = {}

    def block(self, space, length, s, r):
        """Walks of `length` from s to r in lexicographic order."""
        key = (length, s, r)
        if key not in self.walks:
            groups: dict = {t: [] for t in range(space.graph.num_vertices)}
            for p in space.enumerate_paths(length, source=s):
                groups[p[-1]].append(p)
            for t, paths in groups.items():
                self.walks[(length, s, t)] = paths
        return self.walks[key]

    def positions(self, space, length, s, r, paths):
        """Positions of `paths` in `block(space, length, s, r)`; raises
        `GraphError` for one that is not in it."""
        walks = self.block(space, length, s, r)
        out = np.fromiter((bisect_left(walks, p) for p in paths), np.intp)
        for p, j in zip(paths, out.tolist()):
            if j == len(walks) or walks[j] != p:
                raise GraphError(f"{format_path(p)} is not a walk of length {length}")
        return out

    def annihilator(self, space, length, s, r, k):
        """c_k from `length` on block (s, r) as arrays (src, dst, weight):
        (c_k y)[dst] sums weight * y[src]."""
        key = (length, s, r)
        if key not in self.annihilators:
            paths = self.block(space, length, s, r)
            walks = np.array(paths, dtype=np.intp).reshape(len(paths), length + 1)
            maps = []
            for i in range(length - 1):
                src = np.flatnonzero(walks[:, i] == walks[:, i + 2])
                kept = np.delete(walks[src], (i + 1, i + 2), axis=1).tolist()
                dst = self.positions(space, length - 2, s, r, list(map(tuple, kept)))
                weight = self.sqrt_mu[walks[src, i + 1]] / self.sqrt_mu[walks[src, i]]
                maps.append((src, dst, weight))
            self.annihilators[key] = maps
        return self.annihilators[key][k]

    def annihilate(self, space, length, s, r, k, y):
        """c_k from `length` to length - 2."""
        src, dst, weight = self.annihilator(space, length, s, r, k)
        return _spread(dst, weight, y[src], len(self.block(space, length - 2, s, r)))

    def create(self, space, length, s, r, k, z):
        """c†_k from length - 2 to `length`."""
        src, dst, weight = self.annihilator(space, length, s, r, k)
        return _spread(src, weight, z[dst], len(self.block(space, length, s, r)))

    def lift(self, space, n, s, r, vectors):
        """The sum of c†_w vectors[w] over the words w != () at length n.

        Horner's rule along suffixes, deepest level first: each word passes
        c†_{w[0]} of its vector, plus what its extensions passed to it, up
        to its suffix w[1:].
        """
        passed: dict = {}
        for l in range(n // 2, 0, -1):
            for w in self.words(n)[l]:
                parts = [v for v in (vectors.get(w), passed.pop(w, None)) if v is not None]
                if parts:
                    v = self.create(space, n - 2 * l + 2, s, r, w[0], sum(parts))
                    passed[w[1:]] = passed[w[1:]] + v if w[1:] in passed else v
        return passed.get((), 0.0)

    def basis(self, space, m, s, r):
        """Block (s, r) of E_m, one column per basis vector, and the indices
        of those vectors in `essential_basis(space, m)`."""
        key = (m, s, r)
        if key not in self.bases:
            basis = essential_basis(space, m)
            offsets = basis.blocks.get((s, r), ())
            dense = np.zeros((len(self.block(space, m, s, r)), len(offsets)))
            for j, a in enumerate(offsets):
                coeffs = basis.vectors[a].coeffs
                rows = self.positions(space, m, s, r, list(coeffs))
                dense[rows, j] = [c.real for c in coeffs.values()]  # the basis is real
            self.bases[key] = (dense, offsets)
        return self.bases[key]

    def words(self, n):
        """See `creation_words`."""
        if n not in self.levels:
            levels: list = [[] for _ in range(n // 2 + 1)]

            def grow(suffix, length):
                levels[len(suffix)].append(suffix)
                low = 0 if self.coxeter is None else max(0, length - self.coxeter + 1)
                high = length - 2 if not suffix else min(length - 2, suffix[0] - 1)
                for i in range(low, high + 1):
                    grow((i,) + suffix, length - 2)

            grow((), n)
            self.levels[n] = [sorted(words) for words in levels]
            self.word_index[n] = {
                w: i for words in self.levels[n] for i, w in enumerate(words)
            }
        return self.levels[n]

    def gram(self, space, n, l):
        """`word_gram(space, n, l)`, cached and read-only."""
        key = (n, l)
        if key not in self.grams:
            m = n - 2 * l
            basis = essential_basis(space, m)
            if not basis.vectors:
                raise BasisError(f"no essential paths of length {m}")
            s, r = basis.endpoints[0]
            rows = []
            for word in self.words(n)[l]:
                v = self.basis(space, m, s, r)[0][:, 0]
                for j, i in enumerate(word):
                    v = self.create(space, m + 2 * j + 2, s, r, i, v)
                rows.append(v)
            stacked = np.array(rows)
            gram = stacked @ stacked.T
            gram.setflags(write=False)
            self.grams[key] = gram
        return self.grams[key]

    def gram_inverse(self, space, n, l):
        key = (n, l)
        if key not in self.inverses:
            self.inverses[key] = np.linalg.inv(self.gram(space, n, l))
        return self.inverses[key]

    def contraction(self, space, n, jw, iw) -> float:
        """C(iw; jw) on essentials of length n - 2|jw|, for words of equal
        length in `words(n)`: the entry G[jw, iw] of the level's Gram
        matrix, and 1 for the empty words."""
        if not jw:
            return 1.0
        gram = self.gram(space, n, len(jw))
        index = self.word_index[n]
        return float(gram[index[jw], index[iw]])


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
