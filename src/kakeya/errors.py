"""Exception types shared across the package."""


class KakeyaError(Exception):
    """Base class for all package-specific errors."""


class DomainError(KakeyaError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class CaseIIInfeasible(KakeyaError):
    """The needle-outside bound is undefined because r1 - 1 <= a."""


class EmptyFeasibleSet(KakeyaError):
    """Every point of an optimization grid was infeasible."""


class BracketError(KakeyaError, ValueError):
    """A bisection bracket does not straddle the sought transition."""
