"""Exception types shared across the package, and the argument checks' messages.

Every entry point checks its arguments with one idiom: its guard
comparisons sit inside a ``try``, and ``except (TypeError, OverflowError)``
raises :func:`wrong_type`'s DomainError.  A comparison with an object that
is not a real raises TypeError.  An int too wide for a float raises
OverflowError wherever it meets float arithmetic (``x + 0.0``,
``math.isfinite``, a division), which a guard uses where its comparisons
alone would let such an int through to the body.  Where a record is first
read, AttributeError joins the ``except``.  A ``try`` costs nothing while
nothing is raised, so a float argument pays only for the comparisons.
Every value a message shows goes through :func:`shown`.
"""

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
    """``value`` for an error message: a number as ``str`` gives it, but a
    wide int by its size, since ``str`` refuses one of over 4,300 digits;
    anything else as ``repr`` gives it."""
    if isinstance(value, int) and value.bit_length() > 1024:
        return f"an int of {value.bit_length()} bits"
    return str(value) if isinstance(value, (int, float)) else repr(value)


def wrong_type(what: str, *values) -> DomainError:
    """The DomainError for arguments of the wrong type: ``what`` says what
    they must be, and the message shows each value."""
    return DomainError(f"{what}, got {', '.join(map(shown, values))}")


def as_integer(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as a Python int, or DomainError if it is not an integer in [lo, hi]."""
    try:
        out = operator.index(value)
    except TypeError:
        raise wrong_type(f"{name} must be an integer", value) from None
    if lo is not None and out < lo:
        raise DomainError(f"{name} must be >= {lo}, got {shown(out)}")
    if hi is not None and out > hi:
        raise DomainError(f"{name} must be <= {hi}, got {shown(out)}")
    return out
