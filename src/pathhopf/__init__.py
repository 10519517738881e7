"""Essential paths on graphs and the weak *-Hopf algebra of their graded
endomorphisms.

The pipeline: `graph_core` validates a simple biorientable graph and
computes its Perron-Frobenius data; `path_space` builds the graded path
space with creation/annihilation operators; `essential_decomp` splits paths
into creation words over essential vectors; `weak_hopf` assembles the
product, coproduct, counit, star, and antipode on essential endomorphisms
and verifies the axioms.  `cli` is the command-line surface.
"""

from .errors import (
    BasisError,
    CutoffError,
    GraphError,
    PathHopfError,
    SingularSystemError,
)
from .fixtures import available_fixtures, fixture_path, graphs_dir, load_fixture
from .graph_core import (
    CoxeterInfo,
    Graph,
    Spectrum,
    ValidationReport,
    coxeter_info,
    parse_graph,
    perron_frobenius,
    validate,
)
from .path_space import (
    DEFAULT_CUTOFF,
    ElementaryPath,
    OperatorWord,
    PathSpace,
    PathVector,
    concat,
    format_path,
    inner_product,
    path_from_literal,
    star,
    zero_vector,
)
from .essential_decomp import (
    Decomposition,
    EssentialBasis,
    decompose,
    essential_basis,
    is_essential,
    project_component,
    recompose,
    tridiagonal_det,
    tridiagonal_matrix,
    tridiagonal_solve,
)
from .weak_hopf import (
    AlgebraElement,
    AxiomResult,
    TensorSquare,
    VerificationReport,
    antipode,
    coefficient_C,
    coproduct,
    counit,
    element_in_path_coordinates,
    identity,
    multiply,
    multiply_tensor_square,
    projector_P,
    star_alg,
    verify_axioms,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "AxiomResult",
    "BasisError",
    "CoxeterInfo",
    "CutoffError",
    "Decomposition",
    "DEFAULT_CUTOFF",
    "ElementaryPath",
    "EssentialBasis",
    "Graph",
    "GraphError",
    "OperatorWord",
    "PathHopfError",
    "PathSpace",
    "PathVector",
    "Spectrum",
    "SingularSystemError",
    "TensorSquare",
    "ValidationReport",
    "VerificationReport",
    "antipode",
    "available_fixtures",
    "coefficient_C",
    "concat",
    "coproduct",
    "counit",
    "coxeter_info",
    "decompose",
    "element_in_path_coordinates",
    "essential_basis",
    "fixture_path",
    "format_path",
    "graphs_dir",
    "identity",
    "inner_product",
    "is_essential",
    "load_fixture",
    "multiply",
    "multiply_tensor_square",
    "parse_graph",
    "path_from_literal",
    "perron_frobenius",
    "project_component",
    "projector_P",
    "recompose",
    "star",
    "star_alg",
    "tridiagonal_det",
    "tridiagonal_matrix",
    "tridiagonal_solve",
    "validate",
    "verify_axioms",
    "zero_vector",
]
