"""Semantic exceptions shared across the package, and the integer check
that raises them naming the field it refuses.

The class of an error decides the CLI's exit code. Every error that
refuses input derives from ``ValueError``; that, or an ``OSError`` on a
path, exits 2. Any other ``WoesimError``, or running out of memory,
exits 3.
"""

from operator import index


class WoesimError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(WoesimError, ValueError):
    """A configuration violates its invariants (probabilities, names, shapes)."""


class SpecError(WoesimError, ValueError):
    """A run specification or command-line selector is refused (sizes,
    rates, iterations, seed, theta_adj, worker count, a chart's cell)."""


class SchemaError(WoesimError, ValueError):
    """An input file does not conform to the expected schema."""


class EnumerationLimitError(WoesimError):
    """Joint-cell enumeration would exceed the configured bound."""


class TargetUnreachable(WoesimError):
    """Config synthesis could not reach the requested strength target."""


class DegeneratePlan(WoesimError, ValueError):
    """A sampling plan without room for both classes (n1 < 1, n1 >= n or n < 2)."""


class DegenerateDesign(WoesimError):
    """A split's responses hold a single class, so the estimator is undefined."""


class InsufficientPoints(WoesimError, ValueError):
    """Too few, non-distinct or non-finite points for a curve fit."""


class CurveFitError(WoesimError):
    """Every curve-fit start diverged."""


class EmptyCell(WoesimError):
    """A summary cell holds no valid iteration records."""


def _integer(field: str, value, error: type[ValueError] = SpecError) -> int:
    """``value`` as a Python int; a float or other non-integer is refused
    with ``error`` naming ``field``."""
    try:
        return index(value)
    except TypeError:
        raise error(f"{field} must be an integer, got {value!r}") from None
