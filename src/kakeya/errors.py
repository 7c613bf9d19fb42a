"""Exception types shared across the package, and a typed integer check."""

import operator


class KakeyaError(Exception):
    """Base class for all package-specific errors."""


class DomainError(KakeyaError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class CaseIIInfeasible(KakeyaError):
    """The needle-outside bound is undefined because r1 - 1 <= a."""


class EmptyFeasibleSet(KakeyaError):
    """Every corner of an optimization search box was infeasible."""


class BracketError(KakeyaError, ValueError):
    """A bisection bracket does not straddle the sought transition."""


def as_integer(value, name: str, lo: int | None = None) -> int:
    """``value`` as a Python int, or DomainError if it is not an integer >= lo."""
    try:
        out = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if lo is not None and out < lo:
        raise DomainError(f"{name} must be >= {lo}, got {out}")
    return out
