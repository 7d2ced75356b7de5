"""Exception types shared across the package, and the number rules of its inputs."""

import math
import numbers


class WsnMleError(Exception):
    """Base class for all package errors."""


class ConfigError(WsnMleError, ValueError):
    """An input value that breaks its rule, from a config or a library call; the message names it."""


def integer_at_least(name: str, value, low: int):
    """``value``, if it is an integer (not a bool) of at least ``low``; else :class:`ConfigError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ConfigError(f"{name} must be an integer of at least {low}, got {value!r}")
    return value


def is_number(value, kind=numbers.Real) -> bool:
    """Whether ``value`` is a number of ``kind`` (``numbers.Real`` or ``numbers.Complex``), not a bool,
    and within float range."""
    if not isinstance(value, kind) or isinstance(value, bool):
        return False
    try:
        complex(value)  # an integer beyond float range overflows
    except OverflowError:
        return False
    return True


def real_number(name: str, value, rule: str, ok) -> None:
    """Raise :class:`ConfigError` unless ``value`` is a real number (not a bool) that ``ok`` accepts."""
    if not is_number(value) or not ok(value):
        raise ConfigError(f"{name} must be {rule}, got {value!r}")


def positive_finite(name: str, value) -> None:
    """Raise :class:`ConfigError` unless ``value`` is a positive finite real number."""
    real_number(name, value, "positive and finite", lambda v: 0 < v < math.inf)


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
