"""The graded inner-product space of paths on a graph.

Elementary paths (walks) of a fixed length form an orthonormal basis of the
degree-n slice; `PathVector` is a sparse formal combination of them.  On top
of that, this module provides concatenation, time reversal, the weighted
creation/annihilation operators c_i†/c_i, the induced Temperley-Lieb-Jones
projections e_i = c_i† c_i / beta, and composite creation words.

All operations are pure functions over immutable values; concurrent fills of
the per-space memo dict (`space_cached`) recompute identical values and are benign.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import CutoffError, GraphError
from .graph_core import Graph, Spectrum, coxeter_info, perron_frobenius

#: Coefficients smaller than this in absolute value are dropped after every
#: operation, so float dust cannot grow support sets.
PRUNE_TOL = 1e-12

DEFAULT_CUTOFF = 12

#: An elementary path is the tuple of visited vertex indices; a path of
#: length n has n + 1 entries.
ElementaryPath = tuple[int, ...]


class SparseCoefficients:
    """Sparse complex coefficients under hashable keys, with the linear
    arithmetic that path vectors and algebra elements share.

    A subclass is built as cls(tag, coeffs) and stores the tag (a length, a
    space) under the attribute that `_tag` names; sums and scalar multiples
    keep the class and the tag.  Construction drops every coefficient with
    |c| <= `prune`, so float dust cannot grow support sets; `_adopt` skips
    that pass for a dict that is already pruned and converted (`decompose`).
    """

    __slots__ = ("coeffs",)
    _tag = ""
    prune = PRUNE_TOL

    def __init__(self, tag, coeffs: dict | None = None):
        setattr(self, self._tag, tag)
        prune = self.prune
        self.coeffs = {k: complex(c) for k, c in coeffs.items() if abs(c) > prune} if coeffs else {}

    @classmethod
    def _adopt(cls, tag, coeffs: dict):
        """cls(tag, coeffs), keeping `coeffs` itself: its values must be complex, |c| > `prune`."""
        out = cls(tag)
        out.coeffs = coeffs
        return out

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self):
        """(key, coefficient) pairs in key order."""
        return sorted(self.coeffs.items())

    def sup_norm(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0.0) + c
        return type(self)(getattr(self, self._tag), out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        return type(self)(
            getattr(self, self._tag), {k: c * scalar for k, c in self.coeffs.items()}
        )

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0


class PathVector(SparseCoefficients):
    """Sparse complex combination of elementary paths of one fixed length:
    PathVector(length, {path: coefficient})."""

    __slots__ = ("length",)
    _tag = "length"

    @classmethod
    def unit(cls, path: ElementaryPath) -> "PathVector":
        return cls(len(path) - 1, {tuple(path): 1.0})

    def endpoints(self) -> tuple[int, int] | None:
        """The common (source, range) of the support, or None if mixed/empty."""
        pairs = {(p[0], p[-1]) for p in self.coeffs}
        if len(pairs) == 1:
            return pairs.pop()
        return None

    def norm(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for c in self.coeffs.values()))

    def __add__(self, other):
        if isinstance(other, PathVector) and self.length != other.length:
            raise ValueError(
                f"cannot add path vectors of lengths {self.length} and {other.length}"
            )
        return super().__add__(other)

    def __repr__(self):
        if not self.coeffs:
            return f"PathVector(length={self.length}, 0)"
        body = " + ".join(
            f"({c:.6g})*{format_path(p)}" for p, c in self.terms()
        )
        return f"PathVector({body})"


def zero_vector(length: int) -> PathVector:
    return PathVector(max(length, 0))


@dataclass(frozen=True)
class OperatorWord:
    """Normal-ordered creation monomial.

    ``indices`` is strictly increasing; index i_1 acts first, so the word
    (i_1, ..., i_l) denotes the composite c†_{i_l} ... c†_{i_1}.  The empty
    word is the identity.
    """

    indices: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if any(i < 0 for i in self.indices):
            raise ValueError(f"negative creation index in {self.indices}")
        if any(a >= b for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError(f"word indices must be strictly increasing: {self.indices}")

    def __len__(self) -> int:
        return len(self.indices)

    def then(self, k: int) -> "OperatorWord":
        """The normal form of this word followed by one more creation c†_k.

        Applying index j and then i with j >= i equals applying i and then
        j + 2, so k bubbles to its sorted slot while every displaced index
        gains 2.
        """
        seq = list(self.indices)
        j = len(seq)
        while j > 0 and seq[j - 1] >= k:
            seq[j - 1] += 2
            j -= 1
        seq.insert(j, k)
        return OperatorWord(tuple(seq))

    def __repr__(self):
        return f"OperatorWord({self.indices})"


class PathSpace:
    """Path operations over one graph and its Perron-Frobenius weights.

    `cutoff` bounds the path lengths the space builds, `DEFAULT_CUTOFF`
    when not given.  The instance also owns `cache`, a memo dict shared by
    the higher modules (essential bases, decompositions, structure
    constants); `space_cached` fills it on first use, then it is read-only.
    """

    def __init__(
        self,
        graph: Graph,
        spectrum: Spectrum | None = None,
        cutoff: int | None = None,
    ):
        self.graph = graph
        self.spectrum = spectrum if spectrum is not None else perron_frobenius(graph)
        self.beta = float(self.spectrum.beta)
        self.mu = tuple(float(v) for v in self.spectrum.mu)
        self.sqrt_mu = tuple(math.sqrt(v) for v in self.mu)
        info = coxeter_info(self.spectrum)
        #: h - 2 on a finite ADE graph, past which every E_n is zero; inf if affine
        self.top_length = math.inf if info is None else info.max_essential_length
        self.cutoff = DEFAULT_CUTOFF if cutoff is None else int(cutoff)
        if self.cutoff < 0:
            raise CutoffError(f"cutoff must be nonnegative, got {self.cutoff}")
        self.cache: dict = {}

    # -- enumeration ------------------------------------------------------

    def enumerate_paths(self, n: int, source: int | None = None) -> list[ElementaryPath]:
        """All walks of length n, lexicographically ordered, optionally
        only those from `source`."""
        if n < 0:
            raise ValueError("path length must be nonnegative")
        starts = range(self.graph.num_vertices) if source is None else (source,)
        paths = [(v,) for v in starts]
        for _ in range(n):
            paths = [p + (w,) for p in paths for w in self.graph.neighbors[p[-1]]]
        return paths

    # -- ladder operators --------------------------------------------------

    def annihilate(self, i: int, x: PathVector) -> PathVector:
        """c_i: collapse the back-and-forth step at position i.

        On an elementary path this deletes vertices i+1 and i+2 when the
        vertices at positions i and i+2 coincide, with weight
        sqrt(mu[v_{i+1}] / mu[v_i]); zero outside 0 <= i <= n-2.
        """
        n = x.length
        if i < 0 or i > n - 2:
            return zero_vector(n - 2)
        out: dict = {}
        sqrt_mu = self.sqrt_mu
        for p, c in x.coeffs.items():
            if p[i] == p[i + 2]:
                q = p[: i + 1] + p[i + 3 :]
                w = sqrt_mu[p[i + 1]] / sqrt_mu[p[i]]
                out[q] = out.get(q, 0.0) + c * w
        return PathVector(n - 2, out)

    def create(self, i: int, x: PathVector) -> PathVector:
        """c†_i: insert an excursion (v, v_i) after position i, summed over
        neighbors v of v_i with weight sqrt(mu[v] / mu[v_i]); zero outside
        0 <= i <= n.  Adjoint of `annihilate` for the path inner product."""
        n = x.length
        if i < 0 or i > n:
            return zero_vector(n + 2)
        out: dict = {}
        sqrt_mu = self.sqrt_mu
        neighbors = self.graph.neighbors
        for p, c in x.coeffs.items():
            vi = p[i]
            head, tail = p[: i + 1], p[i + 1 :]
            for v in neighbors[vi]:
                q = head + (v, vi) + tail
                out[q] = out.get(q, 0.0) + c * sqrt_mu[v] / sqrt_mu[vi]
        return PathVector(n + 2, out)

    def tlj(self, i: int, x: PathVector) -> PathVector:
        """Temperley-Lieb-Jones projection e_i = c†_i c_i / beta."""
        return self.create(i, self.annihilate(i, x)) * (1.0 / self.beta)

    def apply_word(self, word: OperatorWord, x: PathVector) -> PathVector:
        """Apply a creation word, innermost index first."""
        for i in word.indices:
            x = self.create(i, x)
        return x


def space_cached(table: str):
    """Memoize f(space, *key) in space.cache[table][key]: the body runs on
    the first call with a key, and a call that raises stores nothing."""

    def decorate(f):
        @functools.wraps(f)
        def cached(space, *key):
            try:
                return space.cache[table][key]
            except KeyError:  # run the body outside the handler: its errors carry no KeyError context
                pass
            value = space.cache.setdefault(table, {})[key] = f(space, *key)
            return value

        return cached

    return decorate


# -- graph-independent operations ------------------------------------------


def inner_product(x: PathVector, y: PathVector) -> complex:
    """Hermitian inner product, conjugate-linear in the first argument.

    Elementary paths are orthonormal; vectors of different lengths are
    orthogonal by convention.
    """
    if x.length != y.length:
        return 0j
    if len(x.coeffs) > len(y.coeffs):
        return sum(
            x.coeffs[p].conjugate() * c for p, c in y.coeffs.items() if p in x.coeffs
        )
    return sum(
        c.conjugate() * y.coeffs[p] for p, c in x.coeffs.items() if p in y.coeffs
    )


def concat(x: PathVector, y: PathVector) -> PathVector:
    """Bilinear concatenation; elementary paths join when the range of the
    first matches the source of the second, and give zero otherwise."""
    out: dict = {}
    for p, cx in x.coeffs.items():
        for q, cy in y.coeffs.items():
            if p[-1] == q[0]:
                r = p + q[1:]
                out[r] = out.get(r, 0.0) + cx * cy
    return PathVector(x.length + y.length, out)


def star(x: PathVector) -> PathVector:
    """Time reversal: reverse every elementary path, conjugate coefficients."""
    return PathVector(
        x.length, {p[::-1]: c.conjugate() for p, c in x.coeffs.items()}
    )


# -- path literals (CLI surface) --------------------------------------------


def path_from_literal(graph: Graph, text: str) -> ElementaryPath:
    """Parse a path literal against `graph`.

    The canonical form is dash-separated vertex indices ("0-1-2"); a pure
    digit string ("012") is accepted as shorthand, one vertex per digit, on
    a graph of at most 10 vertices, where every index is a single digit.
    On a larger graph a pure digit string is one vertex index, a length-0
    path ("10" is the vertex 10); one of two or more digits that is out of
    range or starts with 0 ("12" on 12 vertices, "011") raises a
    `GraphError` that asks for dashes.  Raises `GraphError` for unknown
    vertices or non-adjacent steps.
    """
    text = text.strip()
    if not text:
        raise GraphError("empty path literal")
    if "-" in text:
        parts = text.split("-")
    elif text.isdigit():
        parts = list(text) if graph.num_vertices <= 10 else [text]
    else:
        raise GraphError(f"cannot parse path literal {text!r}")
    try:
        path = tuple(int(p) for p in parts)
    except ValueError:
        raise GraphError(f"cannot parse path literal {text!r}")
    n = graph.num_vertices
    if len(parts) == 1 and len(text) > 1 and (text[0] == "0" or path[0] >= n):
        raise GraphError(
            f"path literal {text!r} is one vertex index on a graph of more than 10 vertices, and it is"
            " out of range or starts with 0; write a path of two or more vertices with dashes"
        )
    for v in path:
        if not 0 <= v < n:
            raise GraphError(f"vertex {v} out of range in path {text!r}")
    for a, b in zip(path, path[1:]):
        if not graph.adjacency[a, b]:
            raise GraphError(f"step {a}-{b} in path {text!r} is not an edge")
    return path


def format_path(path: ElementaryPath) -> str:
    return "-".join(str(v) for v in path)
