"""Closed-form bound functions and the assembled Case I / Case II bounds.

Everything proportional to pi is handled as a *coefficient of pi* so the
published constants stay directly comparable (1/108, 1/98 = 0.0102040...,
0.010205..., 0.0107..., 0.01030...).  The split works with four user
parameters: the needle-height cap ``a``, the cutoff radius ``r0``, the
direction-proportion split ``p``, and the interpolation weight ``lambda``
fixing an intermediate radius ``r_lambda`` between ``a`` and ``r0``.
Case I covers direction sets whose triangles stay inside the disk of
radius ``r1``; Case II covers the complement via needles clear of the
disk of radius ``r1 - 1``.

This module is the one place that writes the bound's algebra.
:func:`bound_terms` evaluates every p-free term at an (a, r0, lambda)
point: case_i(p) = K0 + p*K1, case_ii(p) = (1 - p)*K2, the trivial term
a/(2*pi), and the refinement ratio q.  :func:`theorem_bound`, the
optimizer's balanced split and its iterative refinement all read that
record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import NamedTuple

from . import geom
from .errors import CaseIIInfeasible, DomainError, shown

__all__ = [
    "RLAMBDA_REPRODUCING",
    "RLAMBDA_PAPER_LITERAL",
    "BoundParams",
    "DerivedParams",
    "BoundBreakdown",
    "BoundTerms",
    "THEOREM_DEFAULTS",
    "R_STAR",
    "outside_area_rate",
    "direction_ratio_cap",
    "active_g_branch",
    "derive_params",
    "g_branch_kinks",
    "case_i_integral",
    "bound_terms",
    "theorem_bound",
    "cunningham_bound",
]

# Conventions for the intermediate radius r_lambda.  The displayed formula
# r_lambda = lambda*a + (1-lambda)*r0 does not reproduce the published
# Case II constant (it gives ~0.00229 instead of ~0.0107 at the default
# parameters); the reversed weights do, and are the default here.  Both
# remain available behind this switch.
RLAMBDA_REPRODUCING = "reproducing"
RLAMBDA_PAPER_LITERAL = "paper-literal"
_CONVENTIONS = (RLAMBDA_REPRODUCING, RLAMBDA_PAPER_LITERAL)

# The radius where the two increasing branches of the g-cap meet,
# (1+2r)/(1-2r) = pi/(pi/2 - atan(2r)); below it the arc branch is larger.
# It depends on no parameter.  Correctly rounded root, from a 50-digit solve.
R_STAR = 0.23529881692067725


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundParams:
    """User parameters of the two-case split.

    ``a``: cap on the needle height, in (0, 1/2).
    ``r0``: cutoff radius, in (a, 1/2).
    ``p``: direction-proportion split, in [0, 1].
    ``lam``: interpolation weight for r_lambda, in [0, 1].
    """

    a: float
    r0: float
    p: float
    lam: float

    def __post_init__(self):
        for name in ("a", "r0", "p", "lam"):
            value = getattr(self, name)
            if not isinstance(value, Real):
                raise DomainError(f"{name} must be a real number, got {value!r}")
            if not -math.inf < value < math.inf:
                raise DomainError(f"{name} must be finite")
        if not self.a < self.r0:
            raise DomainError(f"a must be < r0, got a={shown(self.a)}, r0={shown(self.r0)}")
        if not 0.0 < self.a < 0.5:
            raise DomainError(f"a must lie in (0, 1/2), got {shown(self.a)}")
        if not self.r0 < 0.5:
            raise DomainError(f"r0 must be < 1/2, got {shown(self.r0)}")
        if not 0.0 <= self.p <= 1.0:
            raise DomainError(f"p must lie in [0, 1], got {shown(self.p)}")
        if not 0.0 <= self.lam <= 1.0:
            raise DomainError(f"lambda must lie in [0, 1], got {shown(self.lam)}")


@dataclass(frozen=True)
class DerivedParams:
    """Quantities derived from BoundParams under an r_lambda convention."""

    r_lambda: float
    delta1: float
    r1: float
    g_mid: float


@dataclass(frozen=True)
class BoundBreakdown:
    """Case I / Case II / final values, all as coefficients of pi."""

    case_i: float
    case_ii: float
    half_a: float
    final: float
    integral_value: float
    f_r0: float
    c_r1m1: float


class BoundTerms(NamedTuple):
    """The p-free terms of the bound at one (a, r0, lambda) point.

    With the split p, case_i = k0 + p*k1 and case_ii = (1 - p)*k2 (see
    ``split``); ``half_a`` is a/(2*pi).  ``q`` is the ratio by which the
    iterative refinement recycles Case I: shrinking the Case I
    configuration from the disk of radius r1 into the disk of radius a
    scales its area bound by (a/r1)^2, and the inner/outer combination
    at r0 weighs an inner bound by 1 - f(r0)/(2 r0^2), so
    q = (1 - f(r0)/(2 r0^2)) * (a/r1)^2.
    ``f_r0``, ``integral`` and ``c_r1m1`` are the values BoundBreakdown
    reports.  All but ``q`` are coefficients of pi.
    """

    k0: float
    k1: float
    k2: float
    half_a: float
    q: float
    f_r0: float
    integral: float
    c_r1m1: float

    def split(self, p: float) -> tuple[float, float]:
        """(case_i, case_ii) at the split p."""
        return self.k0 + p * self.k1, (1.0 - p) * self.k2


# Parameters of the headline pi/98 bound: a = pi/49, r0 = 1/4, p = 9/10,
# lambda = 9/10.
THEOREM_DEFAULTS = BoundParams(a=math.pi / 49.0, r0=0.25, p=0.9, lam=0.9)


# ---------------------------------------------------------------------------
# Rate functions
# ---------------------------------------------------------------------------

def outside_area_rate(r: float, a: float) -> float:
    """Area rate a / (2*asin(a/r)) for needles clear of the disk of radius r.

    This is the minimum of x / (2*asin(x/r)) over heights x in (0, a];
    at a = r it degenerates to a/pi.
    """
    try:
        if not 0.0 < a <= r:
            raise DomainError(f"need 0 < a <= r, got a={a}, r={r}")
    except TypeError:
        raise DomainError(f"need real 0 < a <= r, got a={a!r}, r={r!r}") from None
    angle = math.asin(a / r)
    if not angle > 0.0:  # r = inf, or a/r underflows
        raise DomainError(f"a/r rounds to zero (a={a}, r={r})")
    return a / (2.0 * angle)


def direction_ratio_cap(r: float, derived: DerivedParams) -> float:
    """Cap g(r) on (admissible directions) / (central angle) for arcs on S_r:

        g(r) = max( (1+2r)/(1-2r),
                    (1+2*r_lambda)/(1-2*r_lambda),
                    pi / (pi/2 - atan(2r)) )
    """
    if not 0.0 < r < 0.5:
        raise DomainError(f"r must lie in (0, 1/2), got {r}")
    return max(_branch_values(r, derived))


def active_g_branch(r: float, derived: DerivedParams) -> str:
    """The formula of the branch of g that is largest at r; on a tie, the first listed."""
    if not 0.0 < r < 0.5:
        raise DomainError(f"r must lie in (0, 1/2), got {r}")
    return _BRANCH_FORMULAS[_argmax_branch(r, derived)]


def derive_params(
    params: BoundParams, convention: str = RLAMBDA_REPRODUCING
) -> DerivedParams:
    """Resolve r_lambda, the height cap delta1, and the needle reach r1.

    Under the default convention r_lambda = lam*r0 + (1-lam)*a; the
    ``paper-literal`` convention swaps the weights.  Case II feasibility
    (r1 - 1 > a) is not checked here; ``bound_terms`` raises on it.
    """
    if convention not in _CONVENTIONS:
        raise DomainError(f"unknown r_lambda convention: {convention!r}")
    if convention == RLAMBDA_REPRODUCING:
        r_lambda = params.lam * params.r0 + (1.0 - params.lam) * params.a
    else:
        r_lambda = params.lam * params.a + (1.0 - params.lam) * params.r0
    delta1 = geom.outside_distance_cap(r_lambda, params.a)
    r1 = geom.far_endpoint_distance(delta1, r_lambda)
    g_mid = (1.0 + 2.0 * r_lambda) / (1.0 - 2.0 * r_lambda)
    return DerivedParams(
        r_lambda=r_lambda,
        delta1=delta1,
        r1=r1,
        g_mid=g_mid,
    )


# ---------------------------------------------------------------------------
# Closed-form Case I integral
# ---------------------------------------------------------------------------

# The branches of the g-cap as text, in the order of _branch_values.
_BRANCH_FORMULAS = ("(1+2r)/(1-2r)", "(1+2r_lambda)/(1-2r_lambda)", "pi/(pi/2-atan(2r))")


def _branch_values(r: float, derived: DerivedParams) -> tuple[float, float, float]:
    """The three branches of the g-cap at r, in the order of _antiderivative."""
    return (
        (1.0 + 2.0 * r) / (1.0 - 2.0 * r),
        derived.g_mid,
        math.pi / (0.5 * math.pi - math.atan(2.0 * r)),
    )


def _argmax_branch(r: float, derived: DerivedParams) -> int:
    """Index of the largest branch at r; on a tie the lower index wins."""
    values = _branch_values(r, derived)
    return values.index(max(values))


def _antiderivative(branch: int, r: float, g_mid: float) -> float:
    """An antiderivative of r / (branch of g) at r."""
    if branch == 0:
        s = 1.0 + 2.0 * r
        return -s * s / 8.0 + 0.75 * s - 0.5 * math.log(s)
    if branch == 1:
        return r * r / (2.0 * g_mid)
    t = math.atan(2.0 * r)
    return (0.25 * math.pi * r * r - 0.5 * r * r * t + 0.25 * r - 0.125 * t) / math.pi


def _g_pieces(lo: float, hi: float, derived: DerivedParams) -> list[tuple[float, float, int]]:
    """[(x0, x1, branch)] covering [lo, hi], one entry per run of an active branch.

    Each pair of branches meets at most once, at a closed-form radius:
    r_lambda (branches 0 and 1), 1/(2 tan(pi/g_mid)) (branches 1 and 2;
    branch 2 rises from 2 at r = 0, so only when g_mid > 2), and R_STAR
    (branches 0 and 2).  Between consecutive kinks one branch is active;
    neighbouring runs of the same branch are merged.
    """
    kinks = {derived.r_lambda, R_STAR}
    if derived.g_mid > 2.0:
        kinks.add(0.5 / math.tan(math.pi / derived.g_mid))
    pieces: list[tuple[float, float, int]] = []
    x0 = lo
    for x1 in [*sorted(x for x in kinks if lo < x < hi), hi]:
        branch = _argmax_branch(0.5 * (x0 + x1), derived)
        if pieces and pieces[-1][2] == branch:
            pieces[-1] = (pieces[-1][0], x1, branch)
        else:
            pieces.append((x0, x1, branch))
        x0 = x1
    return pieces


def _check_tol(tol: float) -> None:
    if not (isinstance(tol, Real) and tol > 0.0):
        raise DomainError(f"tol must be > 0, got {tol}")


def g_branch_kinks(
    params: BoundParams,
    convention: str = RLAMBDA_REPRODUCING,
    lo: float | None = None,
    hi: float | None = None,
) -> list[float]:
    """Radii in (lo, hi) where the active branch of the g-cap switches.

    The range defaults to (a, r0) and must satisfy 0 < lo <= hi < 1/2.
    """
    derived = derive_params(params, convention)
    lo = params.a if lo is None else lo
    hi = params.r0 if hi is None else hi
    if not 0.0 < lo <= hi < 0.5:
        raise DomainError(f"kink range must satisfy 0 < lo <= hi < 1/2, got [{lo}, {hi}]")
    return [x1 for _, x1, _ in _g_pieces(lo, hi, derived)[:-1]]


def case_i_integral(
    params: BoundParams,
    tol: float = 1e-10,
    convention: str = RLAMBDA_REPRODUCING,
    *,
    derived: DerivedParams | None = None,
) -> float:
    """Integral of r / g(r) over [a, r0], in closed form.

    The interval is split where the active branch of g switches, and each
    piece is the difference of that branch's elementary antiderivative.
    The value is exact up to rounding, so ``tol`` does not change it; it
    is accepted for callers that pass one and must be > 0.  ``derived``
    is ``derive_params(params, convention)``, for a caller that holds it
    already.
    """
    _check_tol(tol)
    if derived is None:
        derived = derive_params(params, convention)
    return sum(
        _antiderivative(branch, x1, derived.g_mid) - _antiderivative(branch, x0, derived.g_mid)
        for x0, x1, branch in _g_pieces(params.a, params.r0, derived)
    )


# ---------------------------------------------------------------------------
# Case bounds
# ---------------------------------------------------------------------------

def bound_terms(params: BoundParams, convention: str = RLAMBDA_REPRODUCING) -> BoundTerms:
    """Every p-free term of the bound at (params.a, params.r0, params.lam).

    ``params.p`` is not read.  Raises DomainError when r0 < 0.15, below
    which the outer-area rate does not apply, and CaseIIInfeasible when
    r1 - 1 <= a.
    """
    derived = derive_params(params, convention)
    if params.r0 < 0.15:
        raise DomainError(f"r0 must be >= 0.15 for the outer-area rate, got {params.r0}")
    f_r0 = geom.exterior_area_rate(params.r0)
    integral = case_i_integral(params, convention=convention, derived=derived)
    # the weight of an inner bound at r0; >= 0.18 for r0 >= 0.15
    inner = 1.0 - f_r0 / (2.0 * params.r0 * params.r0)
    if not derived.r1 - 1.0 > params.a:
        raise CaseIIInfeasible(
            f"r1 - 1 = {derived.r1 - 1.0} <= a = {params.a}: needle-outside rate undefined"
        )
    c_r1m1 = outside_area_rate(derived.r1 - 1.0, params.a)
    return BoundTerms(
        k0=0.25 * f_r0, k1=inner / 3.0 * integral, k2=0.25 * c_r1m1,
        half_a=params.a / (2.0 * math.pi), q=inner * (params.a / derived.r1) ** 2,
        f_r0=f_r0, integral=integral, c_r1m1=c_r1m1,
    )


def theorem_bound(
    params: BoundParams,
    tol: float = 1e-10,
    convention: str = RLAMBDA_REPRODUCING,
) -> BoundBreakdown:
    """Full breakdown: final = min(case_i, case_ii, a/(2*pi)), where

        case_i  = p/3 * (1 - f(r0)/(2 r0^2)) * integral(r/g) + f(r0)/4,
        case_ii = (1 - p)/4 * c(r1 - 1).

    The a/(2*pi) term is the trivial bound from any needle at height >= a;
    at the default parameters it equals exactly 1/98.  ``tol`` must be > 0
    and does not change the value (see case_i_integral).
    """
    _check_tol(tol)
    terms = bound_terms(params, convention)
    case_i, case_ii = terms.split(params.p)
    return BoundBreakdown(
        case_i=case_i, case_ii=case_ii, half_a=terms.half_a,
        final=min(case_i, case_ii, terms.half_a),
        integral_value=terms.integral, f_r0=terms.f_r0, c_r1m1=terms.c_r1m1,
    )


def cunningham_bound() -> float:
    """The classical constant 1/108 (coefficient of pi): f(1/6)/4."""
    return 0.25 * geom.exterior_area_rate(1.0 / 6.0)
