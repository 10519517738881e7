"""The orthogonal decomposition of path space.

Any path vector splits uniquely into normal-ordered creation words applied
to essential vectors; components of different word length are orthogonal.
`decompose` finds the split with one small linear solve per word length:
the Gram matrix of the vectors c†_w xi depends only on beta and the words,
so the essential part of each word is the inverse Gram matrix applied to
the projections of the annihilated path onto the essential basis.  On a
finite ADE graph the word set is truncated at the Coxeter number (the
Jones-Wenzl truncation), which keeps the c†_w xi independent.  The
tridiagonal system of the older recursive splitter is shown at the end; it
is no longer on the `decompose` path.
"""

from pathhopf import (
    PathSpace,
    PathVector,
    concat,
    decompose,
    format_path,
    inner_product,
    load_fixture,
    project_component,
    recompose,
    tridiagonal_det,
    tridiagonal_solve,
)
from pathhopf.essential_decomp import creation_words, word_gram


def show(space, x, label):
    d = decompose(space, x)
    print(f"{label}:")
    for word, xi in d.terms:
        terms = " + ".join(f"{c.real:+.6f} {format_path(p)}" for p, c in xi.terms())
        print(f"  word {word.indices}: {terms}")
    back = recompose(space, d)
    print(f"  recompose residual: {(back - x).sup_norm():.3e}")


chain = PathSpace(load_fixture("a3"))
show(chain, PathVector.unit((0, 1, 0)), "chain, walk 0-1-0")
show(
    chain,
    concat(PathVector.unit((0, 1, 2)), PathVector.unit((2, 1, 0))),
    "chain, concatenation (0-1-2) * (2-1-0)",
)
print()

triangle = PathSpace(load_fixture("a_aff_2"))
show(triangle, PathVector.unit((0, 1, 2, 1, 0)), "triangle, walk 0-1-2-1-0")
print()

# orthogonal components by word length
x = PathVector.unit((0, 1, 2, 1, 0))
pieces = [project_component(triangle, x, l) for l in range(3)]
print("component norms by word length:", [f"{p.norm():.6f}" for p in pieces])
print(
    "cross pairings:",
    [
        f"{abs(inner_product(pieces[i], pieces[j])):.2e}"
        for i in range(3)
        for j in range(i + 1, 3)
    ],
)
total = pieces[0]
for p in pieces[1:]:
    total = total + p
print("components sum back to the walk:", (total - x).sup_norm() < 1e-12)
print()

# the creation words and their Gram matrix
for label, space in (("triangle", triangle), ("chain", chain)):
    print(f"{label} words at length 4 by level:", creation_words(space, 4))
for label, space in (("triangle", triangle), ("chain (truncated, h = 4)", chain)):
    print(f"{label} Gram matrix of the level-1 words at length 4:")
    for row in word_gram(space, 4, 1):
        print("  " + " ".join(f"{v + 0.0:9.6f}" for v in row.round(12)))
print()

# the recursive splitter's coefficients and the determinant closed form
print("splitting coefficients, beta = 2, size 3:", tridiagonal_solve(2.0, 3))
for beta in (1.0, 2.0, 2.3):
    dets = [tridiagonal_det(beta, k) for k in range(1, 6)]
    print(f"determinants at beta={beta}: " + ", ".join(f"{d:.6f}" for d in dets))
