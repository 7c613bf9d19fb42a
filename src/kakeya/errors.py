"""Exception types shared across the package, and a typed integer check."""

import operator


class KakeyaError(Exception):
    """Base class for all package-specific errors."""


class DomainError(KakeyaError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class CaseIIInfeasible(KakeyaError):
    """The needle-outside bound is undefined because r1 - 1 <= a."""


class EmptyFeasibleSet(KakeyaError):
    """Every point the optimizer probed in its search box was infeasible."""


class BracketError(KakeyaError, ValueError):
    """A bisection bracket does not straddle the sought transition."""


class WorkerLost(KakeyaError):
    """A worker process ended without returning its result (killed, say, for memory)."""


def shown(value) -> str:
    """``value`` for an error message; a wide int shows its size, since
    ``str`` refuses one of over 4,300 digits."""
    if isinstance(value, int) and value.bit_length() > 1024:
        return f"an int of {value.bit_length()} bits"
    return str(value)


def as_integer(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as a Python int, or DomainError if it is not an integer in [lo, hi]."""
    try:
        out = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if lo is not None and out < lo:
        raise DomainError(f"{name} must be >= {lo}, got {shown(out)}")
    if hi is not None and out > hi:
        raise DomainError(f"{name} must be <= {hi}, got {shown(out)}")
    return out
