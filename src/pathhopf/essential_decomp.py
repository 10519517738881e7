"""Essential paths and the orthogonal decomposition of path space.

A path vector is essential when every annihilation operator kills it.
`essential_basis` builds each E_n in Bratteli coordinates, as one signed
matrix over the vectors xi . (r -> t) of E_{n-1}, with one stacked SVD
per block shape and the sign rule applied in the build; walks appear
only on expansion (`EssentialBasis.vectors`, `.block`).  The
degree-n slice splits as the orthogonal direct sum, over l, of the spans of
c†_w xi for creation words w of length l and essential xi of length
m = n - 2l.  The Gram matrix of those vectors is G_{m,l} (x) I: it depends
on beta and the words, not on the block or the basis vector.  So
`decompose` solves one small word-Gram system per block and level instead
of splitting recursively.  Every c_w sends a walk to at most one walk, so
the c_w of one level stack into one partial map per (length, block,
level): `level_images` forms the right-hand sides, the essential
coordinates of all the level's word images, in one scatter, and the lift
back is one scatter too.  `pair_levels` pairs the same images for
`weak_hopf.projector_P`.  Each table they read, as `essential_basis`,
is one function memoized in `space.cache` by `space_cached`, which stores
nothing for a call that raises: `_walks` and `_walk_positions` (each
block's walks and their positions), `_annihilator` and `_level_maps` (the
c_k and the stacked c_w as index arrays), `_basis_block` (dense basis
blocks), `creation_words` and `_operator_words`, and `word_gram` and
`_gram_inverse`.  On a finite ADE
graph with Coxeter number h, the words keep only creations c†_k with
k >= L - h + 1, L the length they make (the Jones-Wenzl truncation).
`project_component` reads off the orthogonal projections.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby, islice

import numpy as np

from .errors import BasisError, CutoffError, GraphError, PathHopfError, SingularSystemError
from .path_space import (
    PRUNE_TOL,
    OperatorWord,
    PathSpace,
    PathVector,
    format_path,
    space_cached,
    zero_vector,
)

#: Singular values at or below this mark the kernel of c_{n-2}.
KERNEL_TOL = 1e-9


class EssentialBasis:
    """Orthonormal basis of the essential subspace at one length, stored in
    Bratteli coordinates.

    Vectors are grouped by (source, range) block; annihilation preserves
    endpoints, so the essential subspace splits over blocks and every basis
    vector has well-defined endpoints.  `endpoints` gives each vector's
    block as a (source, range) pair, `source` and `range` as integer
    arrays, and `blocks` each block's flat positions, in lexicographic
    block order.  At length 0 each block holds its vertex.  Above it, the
    d_n x d_{n-1} matrix `append` holds the vectors, signed in the build:
    A[a, b] with xi_a = sum_b A[a, b] xi_b . (r(b) -> r(a)) over the vectors
    xi_b of `below` (the basis at length - 1), zero outside the b with
    s(b) = s(a) and r(b) in `neighbors[r(a)]`.  No walk is formed until
    `block` or `vectors` is read.
    """

    def __init__(self, length, source, range_, append=None, below=None, neighbors=None):
        self.length, self.source, self.range, self.append = length, source, range_, append
        self.below, self.neighbors = below, neighbors
        endpoints = self.endpoints = tuple(zip(source.tolist(), range_.tolist()))
        self.blocks = {key: tuple(at) for key, at in groupby(range(len(endpoints)), endpoints.__getitem__)}
        self._walks: dict = {}

    def __len__(self):
        return len(self.endpoints)

    def block(self, s, t):
        """(walks, rows): the walks of block (s, t) that its vectors reach,
        lexicographic, as rows of an integer array, and the vectors over
        them (cached)."""
        key = (s, t)
        if key not in self._walks:
            if self.below is None:
                walks, rows = np.array([[s]]), np.ones((1, 1))
            else:
                walks, rows, at = [], [], self.blocks[key]
                for r in self.neighbors[t]:
                    if (s, r) in self.below.blocks:
                        w, v = self.below.block(s, r)
                        b = self.below.blocks[s, r]
                        walks.append(np.column_stack((w, np.full(len(w), t))))
                        rows.append(self.append[at[0] : at[-1] + 1, b[0] : b[-1] + 1] @ v)
                walks, rows = np.vstack(walks), np.hstack(rows)
                order = np.lexsort(walks.T[::-1])
                # the smallest integer type that holds every vertex
                walks, rows = walks[order].astype(np.min_scalar_type(walks.max())), rows[:, order]
            self._walks[key] = walks, rows
        return self._walks[key]

    @cached_property
    def prepend(self) -> np.ndarray:
        """P[c, f] with xi_c = sum_f P[c, f] (s(c) -> s(f)) . xi_f over the
        vectors xi_f of `below` (an essential vector less its first edge is
        essential): [r(c) = f] at length 1, and above
        [r(c) = r(f)] (A P' A'^T), A = `append`, A' and P' those of `below`."""
        out = np.equal.outer(self.range, self.below.range).astype(float)
        if self.length > 1:
            out *= self.append @ self.below.prepend @ self.below.append.T
        return out

    @cached_property
    def star(self) -> np.ndarray:
        """S[a', a], real: column a holds the coordinates of star(xi_a),
        entries at or below 1e-14 dropped.  As star(xi_b . (r(b) -> r(a))) =
        (r(a) -> r(b)) . star(xi_b), S = [s(a') = r(a)] P S' A^T with
        `prepend` P, `append` A and S' the star of `below`; I at length 0."""
        if self.below is None:
            return np.eye(len(self))
        out = self.prepend @ self.below.star @ self.append.T
        out *= np.equal.outer(self.source, self.range)
        out[np.abs(out) <= 1e-14] = 0.0
        return out

    @cached_property
    def vectors(self) -> tuple[PathVector, ...]:
        """The basis vectors in walk coordinates, expanded on first access."""
        out = []
        for s, t in self.blocks:
            walks, rows = self.block(s, t)
            paths = list(map(tuple, walks.tolist()))
            out.extend(PathVector(self.length, dict(zip(paths, v))) for v in rows.tolist())
        return tuple(out)


@space_cached("essential_basis")
def essential_basis(space: PathSpace, n: int) -> EssentialBasis:
    """Orthonormal basis of the length-n essential subspace (cached).

    At length 0 the vertices are the basis, and at length 1 the edges.
    From there the basis grows from the cached length-(n-1) basis: grouped
    by its last edge (r -> t), an essential vector of length n has every
    part in E_{n-1}, so E_n is the kernel of the last annihilation c_{n-2}
    on the orthonormal candidates xi_b . (r(b) -> t).  Per (source, range)
    block, that kernel is read off the SVD of the matrix of c_{n-2} from
    the candidate coordinates to those of E_{n-2}, which the `append` of
    E_{n-1} gives.  The matrices of one shape are gathered from it in one
    indexing step and go through one stacked `np.linalg.svd`, so each
    length makes one call per shape, not per block; their V^T go into
    one row per candidate in one assignment, and `append` keeps the rows
    past each block's rank, each signed so that its first entry above
    1e-9, in candidate order, is positive.  Neither building nor signing
    the basis forms a walk: only `EssentialBasis.vectors` and
    `EssentialBasis.block` do.  The result is deterministic; within a block
    of dimension two or more the vectors are the SVD's rotation, which no
    rule fixes and which can move with the signs of the matrix one length
    down (on a_aff_2 it does, from length 5 on).
    Raises `CutoffError` for n beyond the space's cutoff and
    `PathHopfError` for a negative n.
    """
    _check_length(space, n)
    nv = space.graph.num_vertices
    if n == 0:
        return EssentialBasis(0, np.arange(nv), np.arange(nv))
    below = essential_basis(space, n - 1)
    source, target = below.source, below.range
    # the candidates b of each block (s, t): s(b) = s and r(b) ~ t, ascending
    s, t, b = np.nonzero((source == np.arange(nv)[:, None, None]) & (space.graph.adjacency[:, target] > 0))
    keys, first, width = np.unique(s * nv + t, return_index=True, return_counts=True)
    # each block's rows: the vectors f of block (s, t) of E_{n-2}
    spans = [below.below.blocks.get(divmod(k, nv), ()) if n > 1 else () for k in keys.tolist()]
    shapes: dict = {}
    for i, shape in enumerate(zip(map(len, spans), width.tolist())):
        shapes.setdefault(shape, []).append(i)
    root = np.asarray(space.sqrt_mu)
    # one row per candidate: its block's row of V^T, kept past the block's rank
    kernel, keep = np.zeros((len(b), len(below))), np.zeros(len(b), bool)
    for (m, c), group in shapes.items():
        at = first[group][:, None] + np.arange(c)
        cols, rows = b[at], np.array([spans[i] for i in group], dtype=np.intp).reshape(len(group), m, 1)
        # c_{n-2} sends xi_b . (r(b) -> t) to sqrt(mu[r(b)] / mu[t]) times
        # the part of xi_b on the vectors xi_f . (t -> r(b))
        scale = root[target[cols]] / root[t[at]]
        stack = scale[:, None] * below.append[cols[:, None], rows] if m else np.zeros((len(group), 0, c))
        # the full V^T spans the candidates, and its rows past each block's
        # rank span that block's kernel
        _, sing, vt = np.linalg.svd(stack)
        kernel[at[:, :, None], cols[:, None]] = vt
        keep[at] = np.arange(c) >= (sing > KERNEL_TOL).sum(axis=1)[:, None]
    append = kernel[keep]
    if len(append):  # an empty basis has no row to sign
        # the sign rule: the first entry above 1e-9 of each row, in
        # candidate order, is positive
        append *= np.sign(append[np.arange(len(append)), np.argmax(np.abs(append) > 1e-9, axis=1)])[:, None]
    return EssentialBasis(n, s[keep], t[keep], append, below, space.graph.neighbors)


def _check_length(space: PathSpace, n: int) -> None:
    """Refuse a negative length and one past the space's cutoff."""
    if n < 0:
        raise PathHopfError("path length must be nonnegative")
    if n > space.cutoff:
        raise CutoffError(f"path length {n} exceeds the cutoff {space.cutoff}")


def is_essential(space: PathSpace, x: PathVector) -> bool:
    """True iff every applicable annihilation image of `x` has norm < 1e-9."""
    return all(
        space.annihilate(i, x).norm() < 1e-9 for i in range(x.length - 1)
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
    essential parts eta_w of the level-l words are the rows of
    G^-1 U B_m^T, where `level_images(...)` gives the rows U = B_m^T c_w x
    with the basis block B_m and the level's stacked map, and G =
    `word_gram(space, n, l)`; the essential part of x is
    x - sum_{|w| >= 1} c†_w eta_w, one scatter per level through that
    stacked map.  The words are `creation_words(space, n)`: strictly
    increasing, every index <= n - 2, and on a finite ADE graph truncated
    so that the c†_w xi stay independent.  recompose returns the input.
    The terms are adopted (`PathVector._adopt`) from rows pruned in numpy
    (`_gather`).
    """
    n = x.length
    words, parts = creation_words(space, n), {}
    for (s, r), y in _blocks(space, x):
        for l, (_, rows, basis, (_, flat, src, weight)) in level_images(space, n, s, r, y).items():
            eta = _gram_inverse(space, n, l) @ rows @ basis.T
            y = y - _spread(src, weight, eta.ravel()[flat], len(y))
            _gather(parts, words[l], eta, _walks(space, n - 2 * l, s, r))
        _gather(parts, [()], y[None], _walks(space, n, s, r))
    ops = _operator_words(space, n)
    terms = ((ops[w], PathVector._adopt(n - 2 * len(w), parts[w])) for w in ops if w in parts)
    return Decomposition(length=n, terms=tuple(terms))


def _gather(parts, words, rows, paths) -> None:
    """Add row i of `rows` to parts[words[i]]: {paths[j]: complex} above PRUNE_TOL."""
    mask = np.abs(rows) > PRUNE_TOL
    keys = map(paths.__getitem__, np.nonzero(mask)[1].tolist())
    pairs = zip(keys, rows[mask].astype(complex).tolist())
    for w, count in zip(words, mask.sum(axis=1).tolist()):
        if count:
            parts.setdefault(w, {}).update(islice(pairs, count))


@space_cached("creation_words")
def creation_words(space: PathSpace, n: int) -> list[list[tuple[int, ...]]]:
    """The creation words `decompose` uses at length n: entry l lists the
    level-l words in lexicographic order (cached).

    A word (i_1, ..., i_l) is strictly increasing, and c†_{i_j} makes the
    length L = n - 2(l - j) with i_j <= L - 2.  On a finite ADE graph with
    Coxeter number h also i_j >= L - h + 1 (the Jones-Wenzl truncation):
    the Jones-Wenzl projection on h - 1 strands vanishes on paths, so the
    dropped words would make the c†_w xi linearly dependent.  Every suffix
    of a word is a word.  Raises `PathHopfError` for a negative n and
    `CutoffError` for n beyond the space's cutoff.
    """
    _check_length(space, n)
    levels: list = [[] for _ in range(n // 2 + 1)]
    top = space.top_length  # `grow` is a cycle: it must not hold the space

    def grow(suffix, length):
        levels[len(suffix)].append(suffix)
        low = max(0, length - top - 1)
        high = length - 2 if not suffix else min(length - 2, suffix[0] - 1)
        for i in range(low, high + 1):
            grow((i,) + suffix, length - 2)

    grow((), n)
    return [sorted(words) for words in levels]


@space_cached("operator_words")
def _operator_words(space: PathSpace, n: int) -> dict:
    """{indices: OperatorWord}, one per word of `creation_words(space, n)`,
    level by level (cached): the words of `decompose`'s terms."""
    return {w: OperatorWord(w) for words in creation_words(space, n) for w in words}


@space_cached("word_gram")
def word_gram(space: PathSpace, n: int, l: int) -> np.ndarray:
    """Gram matrix G of the vectors c†_w xi over the level-l words at
    length n, rows in `creation_words(space, n)[l]` order, for a unit
    essential xi of length m = n - 2l.

    For essential xi and xi', <c†_w xi, c†_w' xi'> = G[w, w'] <xi, xi'>,
    so G depends on beta and the words only, and G[w, w'] is the
    contraction scalar C(w'; w) (`coefficient_C`).  It is read off the
    stacked map of the block of the first basis vector of E_m (no (row,
    src) pair repeats, as c_w is a partial map) and cached; the returned
    array is read-only.  Raises `CutoffError` for n beyond the space's
    cutoff, `PathHopfError` for l outside 1 <= l <= n // 2 and `BasisError`
    when E_m is empty.
    """
    _check_length(space, n)
    if not 1 <= l <= n // 2:
        raise PathHopfError(f"word level {l} is not in 1..{n // 2} at length {n}")
    m = n - 2 * l
    basis = essential_basis(space, m)
    if not len(basis):
        raise BasisError(f"no essential paths of length {m}")
    s, r = basis.endpoints[0]
    count, flat, src, weight = _level_maps(space, n, s, r)[l]
    xi = _basis_block(space, m, s, r)[0][:, 0]
    row, dst = np.divmod(flat, len(xi))
    stacked = np.zeros((count, len(_walks(space, n, s, r))))
    stacked[row, src] = weight * xi[dst]
    gram = stacked @ stacked.T
    gram.setflags(write=False)
    return gram


@space_cached("word_gram_inverse")
def _gram_inverse(space: PathSpace, n: int, l: int) -> np.ndarray:
    """The inverse of `word_gram(space, n, l)` (cached)."""
    return np.linalg.inv(word_gram(space, n, l))


def _blocks(space: PathSpace, x: PathVector) -> list:
    """`x` split by (source, range) into dense arrays over the block's walks,
    real when every coefficient is."""
    n = x.length
    _check_length(space, n)
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
        y = np.zeros(len(_walks(space, n, s, r)), dtype=values.dtype)
        y[_positions(space, n, s, r, part)] = values
        out.append(((s, r), y))
    return out


def level_images(space, n, s, r, y) -> dict:
    """Level l -> (offsets, U_l, B_m, level) for the block (s, r) part y of
    a length-n vector, for each level l >= 1 whose block of E_m,
    m = n - 2l, is not empty and on whose walks some c_w is not 0: row j
    of U_l is B_m^T c_w y for the j-th word w of
    `creation_words(space, n)[l]`, B_m and `offsets` are the block of E_m
    and its vectors' indices in `essential_basis(space, m)`
    (`_basis_block`), and `level` is the level's stacked map
    (`_level_maps`).

    All the images c_w y of one level are one scatter through that map,
    so each level costs one `_spread` and one product with the basis block.
    """
    out = {}
    for l, level in enumerate(_level_maps(space, n, s, r)):
        if level is not None:
            count, flat, src, weight = level
            basis, offsets = _basis_block(space, n - 2 * l, s, r)
            images = _spread(flat, weight, y[src], count * len(basis))
            out[l] = (offsets, images.reshape(count, len(basis)) @ basis, basis, level)
    return out


def _factor_images(space, x) -> list:
    """`level_images` of each (source, range) block of `x`, with level 0
    added as (offsets, B_n^T y), the block's essential coordinates as a
    single row."""
    out = []
    for (s, r), y in _blocks(space, x):
        levels = level_images(space, x.length, s, r, y)
        basis, offsets = _basis_block(space, x.length, s, r)
        if offsets:
            levels[0] = (offsets, (y @ basis)[None])
        out.append(levels)
    return out


def pair_levels(space: PathSpace, left: PathVector, right: PathVector) -> dict:
    """{(m, a, b): z}: for two vectors of one length n, the sum over pairs
    of their (source, range) blocks and over levels l of U^T G^-1 V on
    E_m (x) E_m, m = n - 2l, where the rows of U and V are the level-l
    images (`level_images`) of the left and right block, G =
    `word_gram(space, n, l)`, and at l = 0 the rows are the blocks'
    essential coordinates and G^-1 is left out."""
    n = left.length
    rights = _factor_images(space, right)
    out = {}
    for u in _factor_images(space, left):
        for v in rights:
            for l in u.keys() & v.keys():
                (rows, ul, *_), (cols, vl, *_) = u[l], v[l]
                block = ul.T @ (_gram_inverse(space, n, l) @ vl if l else vl)
                out.update(
                    ((n - 2 * l, a, b), z)
                    for a, zs in zip(rows, block.tolist())
                    for b, z in zip(cols, zs)
                )
    return out


def _spread(index, weight, values, size: int) -> np.ndarray:
    """The length-`size` array of sums of weight * values by index."""
    if np.iscomplexobj(values):
        return _spread(index, weight, values.real, size) + 1j * _spread(
            index, weight, values.imag, size
        )
    return np.bincount(index, weights=weight * values, minlength=size)


# -- the decomposition's tables, each memoized by `space_cached` ---------------


@space_cached("walks")
def _walks(space: PathSpace, length: int, s: int, r: int) -> list:
    """Walks of `length` from s to r in lexicographic order (cached)."""
    return [p for p in space.enumerate_paths(length, source=s) if p[-1] == r]


@space_cached("walk_positions")
def _walk_positions(space: PathSpace, length: int, s: int, r: int) -> dict:
    """{walk: position} over `_walks(space, length, s, r)` (cached)."""
    return {p: j for j, p in enumerate(_walks(space, length, s, r))}


def _positions(space: PathSpace, length: int, s: int, r: int, paths) -> np.ndarray:
    """Positions of `paths` in `_walks(space, length, s, r)`; `GraphError` for one not in it."""
    try:
        return np.fromiter(map(_walk_positions(space, length, s, r).__getitem__, paths), np.intp, len(paths))
    except KeyError as e:
        raise GraphError(f"{format_path(e.args[0])} is not a walk of length {length}") from None


@space_cached("annihilators")
def _annihilator(space: PathSpace, length: int, s: int, r: int) -> tuple:
    """Every c_k from `length` on block (s, r) as arrays (target, weight)
    of shape (length - 1, walks): c_k sends walk j to weight[k, j] times
    walk target[k, j] of length - 2, or to 0 where target[k, j] = -1
    (cached)."""
    paths = _walks(space, length, s, r)
    walks = np.array(paths, dtype=np.intp).reshape(len(paths), length + 1)
    root = np.asarray(space.sqrt_mu)
    target = np.full((max(length - 1, 0), len(paths)), -1, dtype=np.int32)
    weight = np.zeros(target.shape)
    for i in range(length - 1):
        src = np.flatnonzero(walks[:, i] == walks[:, i + 2])
        kept = np.delete(walks[src], (i + 1, i + 2), axis=1).tolist()
        target[i, src] = _positions(space, length - 2, s, r, list(map(tuple, kept)))
        weight[i, src] = root[walks[src, i + 1]] / root[walks[src, i]]
    return target, weight


@space_cached("level_maps")
def _level_maps(space: PathSpace, n: int, s: int, r: int) -> list:
    """Per level l, the c_w of the level-l words at length n on block
    (s, r), stacked as (count, flat, src, weight): count words, and
    (c_w y)[dst] = weight * y[src] at flat = (row of w) * N_m + dst, N_m
    the block's walks of length m = n - 2l.  None at l = 0, and where the
    block of E_m is empty or every c_w is 0.  Built level by level along
    suffixes, c_{(k,) + v} = c_k c_v, one `_annihilator` lookup per entry
    of the level above (cached)."""
    levels = creation_words(space, n)
    walks = len(_walks(space, n, s, r))
    row, src = np.zeros(walks, np.intp), np.arange(walks)
    dst, weight = src, np.ones(walks)
    maps = [None] * len(levels)
    for l in range(1, len(levels)):
        m = n - 2 * l
        suffix = {w: j for j, w in enumerate(levels[l - 1])}
        below = np.array([suffix[w[1:]] for w in levels[l]], dtype=np.intp)
        # the entries of each word's suffix, in word order
        bounds = np.searchsorted(row, np.arange(len(suffix) + 1))
        lo, sizes = bounds[below], bounds[below + 1] - bounds[below]
        row = np.repeat(np.arange(len(below)), sizes)
        take = np.arange(len(row)) + np.repeat(lo + sizes - np.cumsum(sizes), sizes)
        target, factor = _annihilator(space, m + 2, s, r)
        k, prev = np.array([w[0] for w in levels[l]])[row], dst[take]
        hit = target[k, prev]
        kept = hit >= 0
        weight = (weight[take] * factor[k, prev])[kept]
        row, src, dst = row[kept], src[take][kept], hit[kept]
        if not len(row):
            break
        if _basis_block(space, m, s, r)[1]:
            flat = (row * len(_walks(space, m, s, r)) + dst).astype(np.int32)
            maps[l] = (len(levels[l]), flat, src.astype(np.int32), weight)
    return maps


@space_cached("basis_blocks")
def _basis_block(space: PathSpace, m: int, s: int, r: int) -> tuple:
    """Block (s, r) of E_m as a dense real matrix over the block's walks,
    one column per basis vector, and the indices of those vectors in
    `essential_basis(space, m)` (cached)."""
    basis = essential_basis(space, m)
    offsets = basis.blocks.get((s, r), ())
    dense = np.zeros((len(_walks(space, m, s, r)), len(offsets)))
    if offsets:
        walks, vectors = basis.block(s, r)
        dense[_positions(space, m, s, r, list(map(tuple, walks.tolist())))] = vectors.T
    return dense, offsets


def recompose(space: PathSpace, d: Decomposition) -> PathVector:
    """Sum apply_word(word, vector) over the terms of `d`."""
    return sum((space.apply_word(word, xi) for word, xi in d.terms), zero_vector(d.length))


def project_component(space: PathSpace, x: PathVector, l: int) -> PathVector:
    """Orthogonal projection of `x` onto the span of length-l creation words
    applied to essentials; l = 0 projects onto essential paths."""
    return recompose(space, Decomposition(x.length, decompose(space, x).component(l)))
