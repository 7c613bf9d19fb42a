"""Constrained parameter search for the two-case bound.

The free parameters are (a, r0, lambda); at each point the split ``p`` is
chosen so that the Case I and Case II coefficients balance, and the
objective is

    min( balanced case value,  a/(2*pi) )

since a/(2*pi) is the standing trivial bound that caps how much the case
machinery may claim.  The search seeds from the best corner of the box and
refines coordinate-wise by golden-section search.  Golden-section never
evaluates an interval end, so the corners are exactly the points it cannot
reach; the sec41 optimum sits on two of them.  Ties in the objective (it
plateaus at a/(2*pi) once the balanced value exceeds it) break toward the
larger balanced value, which pins the refinement to the constrained
optimum instead of an arbitrary plateau point.

Every term of the objective, and the ratio q of the iterative refinement,
comes from one ``bounds.bound_terms`` record per point; this module only
solves for p and searches.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from . import bounds
from .bounds import RLAMBDA_REPRODUCING, BoundBreakdown, BoundParams
from .errors import CaseIIInfeasible, DomainError, EmptyFeasibleSet, as_integer

__all__ = ["SearchBox", "OptimizationResult", "optimize", "refine_iterative"]

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# A refinement pass that raises the objective by less than this ends the
# search; a golden-section line search stops once its bracket is this narrow.
_PASS_TOL = 1e-9
_LINE_TOL = 1e-8


@dataclass(frozen=True)
class SearchBox:
    """Closed intervals for (a, r0, lambda); a point interval fixes its axis."""

    a: tuple[float, float]
    r0: tuple[float, float]
    lam: tuple[float, float]

    def __post_init__(self):
        for name in ("a", "r0", "lam"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise DomainError(f"invalid {name} interval [{lo}, {hi}]")
        if self.a[1] >= self.r0[0]:
            raise DomainError("a interval must lie strictly below the r0 interval")
        if self.a[0] <= 0.0 or self.r0[1] >= 0.5:
            raise DomainError("intervals must stay inside (0, 1/2)")


@dataclass(frozen=True)
class OptimizationResult:
    best: BoundParams
    breakdown: BoundBreakdown
    balanced_p: float
    trace: list[tuple[BoundParams, float]] = field(default_factory=list)


def _balanced_point(a, r0, lam, convention):
    """(objective, balanced case value, p) at one (a, r0, lambda) point.

    p is the split at which the Case I and Case II coefficients agree:
    with case_i(p) = K0 + p*K1 and case_ii(p) = (1-p)*K2 (see
    ``bounds.bound_terms``) it is p = (K2 - K0)/(K1 + K2), clamped to
    [0, 1] (a clamp at 0 means Case I already exceeds Case II with no
    cross-section help).
    """
    terms = bounds.bound_terms(BoundParams(a=a, r0=r0, p=0.0, lam=lam), convention)
    # K1 + K2 > 0: K2 = c/4 > 0, and K1 >= 0 up to rounding far smaller than K2
    p = min(1.0, max(0.0, (terms.k2 - terms.k0) / (terms.k1 + terms.k2)))
    value = min(terms.split(p))
    return min(value, terms.half_a), value, p


def optimize(
    box: SearchBox,
    convention: str = RLAMBDA_REPRODUCING,
) -> OptimizationResult:
    """Deterministic box corners + coordinate golden-section maximization.

    Evaluates the balanced objective at the box corners (a point interval
    contributes one value), in a -> r0 -> lambda order, keeping the first
    strict best.  It then refines coordinate-by-coordinate until a full
    pass improves the objective by less than 1e-9.  Infeasible points
    (Case II undefined) are skipped; if every corner is infeasible,
    EmptyFeasibleSet is raised.  A point outside the bound's domain (an
    unknown convention, lambda outside [0, 1], r0 < 0.15) is an input
    error: its DomainError propagates.
    """

    def evaluate(a, r0, lam):
        try:
            return _balanced_point(a, r0, lam, convention)
        except CaseIIInfeasible:
            return None

    def ends(interval):
        lo, hi = interval
        return (lo,) if hi <= lo else (lo, hi)

    best = None  # ((objective, balanced value), (a, r0, lam), p)
    for corner in itertools.product(ends(box.a), ends(box.r0), ends(box.lam)):
        got = evaluate(*corner)
        if got is None:
            continue
        phi, value, p = got
        if best is None or (phi, value) > best[0]:
            best = ((phi, value), corner, p)
    if best is None:
        raise EmptyFeasibleSet("every corner of the search box was infeasible")
    key, point, p = best
    trace = [(_params_at(point, p), key[0])]

    def line_key(point):
        got = evaluate(*point)
        return (-math.inf, -math.inf) if got is None else (got[0], got[1])

    for _ in range(64):  # passes; _PASS_TOL normally stops the loop much earlier
        prev_phi = key[0]
        for coord, interval in ((0, box.a), (1, box.r0), (2, box.lam)):
            if interval[1] > interval[0]:
                key, point = _golden_max(line_key, point, coord, interval, key)
        phi, value, p = evaluate(*point)
        trace.append((_params_at(point, p), phi))
        if phi - prev_phi < _PASS_TOL:
            break

    best_params = _params_at(point, p)
    breakdown = bounds.theorem_bound(best_params, convention=convention)
    return OptimizationResult(
        best=best_params, breakdown=breakdown, balanced_p=p, trace=trace
    )


def _params_at(point, p):
    a, r0, lam = point
    return BoundParams(a=a, r0=r0, p=p, lam=lam)


def _golden_max(line_key, point, coord, interval, key):
    """Golden-section ascent of one coordinate; returns (key, point)."""

    def key_at(x):
        trial = list(point)
        trial[coord] = x
        return line_key(tuple(trial))

    lo, hi = interval
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    k1, k2 = key_at(x1), key_at(x2)
    while hi - lo > _LINE_TOL:
        if k1 < k2:
            lo, x1, k1 = x1, x2, k2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            k2 = key_at(x2)
        else:
            hi, x2, k2 = x2, x1, k1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            k1 = key_at(x1)
    x_best, k_best = (x1, k1) if k1 >= k2 else (x2, k2)
    if k_best > key:
        out = list(point)
        out[coord] = x_best
        return k_best, tuple(out)
    return key, point


def refine_iterative(
    start: BoundParams,
    max_iter: int,
    tol: float = 1e-9,
    convention: str = RLAMBDA_REPRODUCING,
) -> list[float]:
    """Iteratively recycle the Case I bound as an inner-area bound.

    Each step adds q times the previous Case I value to Case I at the
    split p, with the ratio q of ``bounds.BoundTerms``, and appends the
    new minimum of the three terms.  The sequence is monotone nondecreasing and contracts
    geometrically; iteration stops after ``max_iter`` steps (an integer
    >= 0) or at the first increment <= ``tol`` (a number >= 0), so with
    ``tol=0`` it stops once the sequence is pinned.
    """
    max_iter = as_integer(max_iter, "max_iter", lo=0)
    if not tol >= 0.0:
        raise DomainError(f"tol must be >= 0, got {tol}")
    terms = bounds.bound_terms(start, convention)
    base_case_i, case_ii = terms.split(start.p)
    values = [min(base_case_i, case_ii, terms.half_a)]
    case_i = base_case_i
    for _ in range(max_iter):
        case_i = base_case_i + terms.q * case_i
        values.append(min(case_i, case_ii, terms.half_a))
        if values[-1] - values[-2] <= tol:
            break
    return values
