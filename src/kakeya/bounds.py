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

Arguments are checked by the idiom of :mod:`kakeya.errors`, each guard in
one place: ``BoundParams`` and ``DerivedParams`` check their own fields
when they are built, so no unchecked record exists; ``derive_params``
refuses junk in place of the record every bound function reads first,
and ``_branch_values`` checks the radius of ``direction_ratio_cap`` and
``active_g_branch``.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import geom
from .errors import CaseIIInfeasible, DomainError, shown, wrong_type

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

class BoundParams(namedtuple("BoundParams", "a r0 p lam")):
    """User parameters of the two-case split.

    ``a``: cap on the needle height, in (0, 1/2).
    ``r0``: cutoff radius, in (a, 1/2).
    ``p``: direction-proportion split, in [0, 1].
    ``lam``: interpolation weight for r_lambda, in [0, 1].
    """

    __slots__ = ()

    def __new__(cls, a: float, r0: float, p: float, lam: float):
        try:
            for name, value in zip(cls._fields, (a, r0, p, lam)):
                if not math.isfinite(value):
                    raise DomainError(f"{name} must be finite")
        except (TypeError, OverflowError):
            raise wrong_type("a, r0, p and lam must be reals", a, r0, p, lam) from None
        if not a < r0:
            raise DomainError(f"a must be < r0, got a={shown(a)}, r0={shown(r0)}")
        if not 0.0 < a < 0.5:
            raise DomainError(f"a must lie in (0, 1/2), got {shown(a)}")
        if not r0 < 0.5:
            raise DomainError(f"r0 must be < 1/2, got {shown(r0)}")
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"p must lie in [0, 1], got {shown(p)}")
        if not 0.0 <= lam <= 1.0:
            raise DomainError(f"lambda must lie in [0, 1], got {shown(lam)}")
        return tuple.__new__(cls, (a, r0, p, lam))

    @classmethod
    def _make(cls, fields):
        """The parameters of an iterable of fields, checked: ``_replace`` builds through it."""
        return cls(*fields)


class DerivedParams(namedtuple("DerivedParams", "r_lambda delta1 r1 g_mid")):
    """Quantities derived from BoundParams under an r_lambda convention.

    Each field is a finite real in the range ``derive_params`` gives it:
    0 < r_lambda < 1/2, 0 <= delta1 < r_lambda, r1 >= 1 and g_mid >= 1;
    DomainError otherwise.
    """

    __slots__ = ()

    def __new__(cls, r_lambda: float, delta1: float, r1: float, g_mid: float):
        try:
            # + 0.0 refuses an int too wide for a float, which compares below inf
            if not (0.0 < r_lambda < 0.5 and 0.0 <= delta1 < r_lambda
                    and 1.0 <= r1 + 0.0 < math.inf and 1.0 <= g_mid + 0.0 < math.inf):
                got = ", ".join(map(shown, (r_lambda, delta1, r1, g_mid)))
                raise DomainError(f"need 0 < r_lambda < 1/2, 0 <= delta1 < r_lambda, "
                                  f"and finite r1 >= 1 and g_mid >= 1, got {got}")
        except (TypeError, OverflowError):
            raise wrong_type("r_lambda, delta1, r1 and g_mid must be reals", r_lambda, delta1, r1, g_mid) from None
        return tuple.__new__(cls, (r_lambda, delta1, r1, g_mid))

    @classmethod
    def _make(cls, fields):
        """The record of an iterable of fields, checked: ``_replace`` builds through it."""
        return cls(*fields)


class BoundBreakdown(namedtuple(
    "BoundBreakdown", "case_i case_ii half_a final integral_value f_r0 c_r1m1"
)):
    """Case I / Case II / final values, all as coefficients of pi."""

    __slots__ = ()


class BoundTerms(namedtuple("BoundTerms", "k0 k1 k2 half_a q f_r0 integral c_r1m1")):
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

    __slots__ = ()

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
            raise DomainError(f"need 0 < a <= r, got a={shown(a)}, r={shown(r)}")
        angle = math.asin(a / r)  # a / r refuses a too-wide int
    except (TypeError, OverflowError):
        raise wrong_type("r and a must be reals", r, a) from None
    if not angle > 0.0:  # r = inf, or a/r underflows
        raise DomainError(f"a/r rounds to zero (a={shown(a)}, r={shown(r)})")
    return a / (2.0 * angle)


def direction_ratio_cap(r: float, derived: DerivedParams) -> float:
    """Cap g(r) on (admissible directions) / (central angle) for arcs on S_r:

        g(r) = max( (1+2r)/(1-2r),
                    (1+2*r_lambda)/(1-2*r_lambda),
                    pi / (pi/2 - atan(2r)) )

    on 0 < r < 1/2; DomainError elsewhere.
    """
    return max(_branch_values(r, derived))


def active_g_branch(r: float, derived: DerivedParams) -> str:
    """The formula of the branch of g that is largest at r, for 0 < r < 1/2;
    on a tie, the first listed."""
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
        raise DomainError(f"unknown r_lambda convention: {shown(convention)}")
    try:
        if convention == RLAMBDA_REPRODUCING:
            r_lambda = params.lam * params.r0 + (1.0 - params.lam) * params.a
        else:
            r_lambda = params.lam * params.a + (1.0 - params.lam) * params.r0
    except (TypeError, OverflowError, AttributeError):
        raise wrong_type("params must be a BoundParams", params) from None
    delta1 = geom.outside_distance_cap(r_lambda, params.a)
    r1 = geom.far_endpoint_distance(delta1, r_lambda)
    g_mid = (1.0 + 2.0 * r_lambda) / (1.0 - 2.0 * r_lambda)
    return DerivedParams(r_lambda, delta1, r1, g_mid)


# ---------------------------------------------------------------------------
# Closed-form Case I integral
# ---------------------------------------------------------------------------

# The branches of the g-cap as text, in the order of _branch_values.
_BRANCH_FORMULAS = ("(1+2r)/(1-2r)", "(1+2r_lambda)/(1-2r_lambda)", "pi/(pi/2-atan(2r))")


def _branch_values(r: float, derived: DerivedParams) -> tuple[float, float, float]:
    """The three branches of the g-cap at r, in the order of _antiderivative."""
    try:
        if not 0.0 < r < 0.5:
            raise DomainError(f"r must lie in (0, 1/2), got {shown(r)}")
        return (
            (1.0 + 2.0 * r) / (1.0 - 2.0 * r),
            derived.g_mid,
            math.pi / (0.5 * math.pi - math.atan(2.0 * r)),
        )
    except (TypeError, OverflowError, AttributeError):
        raise wrong_type("r must be a real and derived a DerivedParams", r, derived) from None


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
    try:
        if not tol + 0.0 > 0.0:  # + 0.0 refuses an int too wide for a float
            raise DomainError(f"tol must be > 0, got {shown(tol)}")
    except (TypeError, OverflowError):
        raise wrong_type("tol must be a real", tol) from None


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
    try:
        if not 0.0 < lo <= hi < 0.5:
            raise DomainError(f"need 0 < lo <= hi < 1/2, got [{shown(lo)}, {shown(hi)}]")
    except (TypeError, OverflowError):
        raise wrong_type("lo and hi must be reals", lo, hi) from None
    return [x1 for _, x1, _ in _g_pieces(lo, hi, derived)[:-1]]


def case_i_integral(
    params: BoundParams,
    tol: float = 1e-10,
    convention: str = RLAMBDA_REPRODUCING,
) -> float:
    """Integral of r / g(r) over [a, r0], in closed form.

    The interval is split where the active branch of g switches, and each
    piece is the difference of that branch's elementary antiderivative.
    The value is exact up to rounding, so ``tol`` does not change it; it
    is accepted for callers that pass one and must be > 0.
    """
    _check_tol(tol)
    derived = derive_params(params, convention)  # refuses junk before params.a is read
    return _integral(params.a, params.r0, derived)


def _integral(lo: float, hi: float, derived: DerivedParams) -> float:
    """Integral of r / g(r) over [lo, hi], one antiderivative difference per piece."""
    return sum(
        _antiderivative(branch, x1, derived.g_mid) - _antiderivative(branch, x0, derived.g_mid)
        for x0, x1, branch in _g_pieces(lo, hi, derived)
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
        raise DomainError(f"r0 must be >= 0.15 for the outer-area rate, got {shown(params.r0)}")
    f_r0 = geom.exterior_area_rate(params.r0)
    integral = _integral(params.a, params.r0, derived)
    # the weight of an inner bound at r0; >= 0.18 for r0 >= 0.15
    inner = 1.0 - f_r0 / (2.0 * params.r0 * params.r0)
    if not derived.r1 - 1.0 > params.a:
        raise CaseIIInfeasible(f"Case II undefined: r1 - 1 = {shown(derived.r1 - 1.0)} <= a = {shown(params.a)}")
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
