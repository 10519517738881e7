"""Exception hierarchy shared by all pathhopf modules."""


class PathHopfError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(PathHopfError):
    """Malformed graph input or violated graph invariant."""


class CutoffError(PathHopfError):
    """A requested computation would exceed the configured path-length cutoff."""


class SingularSystemError(PathHopfError):
    """`tridiagonal_solve` met a (near-)singular splitting system: the size
    is inconsistent with the graph's maximum essential length."""


class BasisError(PathHopfError):
    """An essential-basis precondition failed (empty basis, or a matrix
    element that should be basis-independent is not)."""
