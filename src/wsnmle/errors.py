"""Exception types shared across the package."""


class WsnMleError(Exception):
    """Base class for all package errors."""


class GraphError(WsnMleError):
    """Base class for topology construction errors."""


class DuplicateEdge(GraphError):
    pass


class SelfLoop(GraphError):
    pass


class OutOfRange(GraphError):
    pass


class Disconnected(GraphError):
    pass


class MalformedGraph(GraphError):
    """A node count or id that is not an integer, pairs not an ``(m, 2)`` array, or a file without ``n``, ``edges``."""


class RetriesExhausted(GraphError):
    """Random graph generation failed to produce a connected graph."""


class ModelError(WsnMleError):
    """Base class for model assembly and estimation errors."""


class SingularCovariance(ModelError):
    """A noise covariance has a zero diagonal entry."""


class DimensionMismatch(ModelError):
    pass


class ZeroInformation(ModelError):
    """Total Fisher information is zero; the estimate is undefined."""


class MonotonicityViolation(WsnMleError):
    """An iteration that must not worsen its objective did (beyond slack)."""
