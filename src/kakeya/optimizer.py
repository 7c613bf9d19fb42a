"""Constrained parameter search for the two-case bound.

The free parameters are (a, r0, lambda); at each point the split ``p`` is
chosen so that the Case I and Case II coefficients balance, and the
objective is

    min( balanced case value,  a/(2*pi) )

since a/(2*pi) is the standing trivial bound that caps how much the case
machinery may claim.  One compass (pattern) search finds the maximum: from
the box centre it probes a step up and down each axis, moves on strict
improvement and halves its steps when no probe improves (the direct-search
family of Hooke & Jeeves 1961, surveyed by Kolda, Lewis & Torczon 2003).
Its first probes are the interval ends themselves, where the sec41 optimum
sits on two axes.  Ties in the objective (it plateaus at a/(2*pi) once the
balanced value exceeds it) break toward the larger balanced value, which
pins the search to the constrained optimum instead of an arbitrary plateau
point.

Every term of the objective, and the ratio q of the iterative refinement,
comes from one ``bounds.bound_terms`` record per point; this module only
solves for p and searches.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import bounds
from .bounds import RLAMBDA_REPRODUCING, BoundParams
from .errors import CaseIIInfeasible, DomainError, EmptyFeasibleSet, as_integer, shown, wrong_type

__all__ = ["SearchBox", "OptimizationResult", "optimize", "refine_iterative"]

# The search ends once every step is at most this wide.
_STEP_TOL = 1e-10


class SearchBox(namedtuple("SearchBox", "a r0 lam")):
    """Closed intervals for (a, r0, lambda); a point interval fixes its axis.

    Each is a (lo, hi) pair with lo <= hi.  The box is valid when
    ``BoundParams`` accepts its two extreme corners, (a_hi, r0_lo,
    lambda_lo) and (a_lo, r0_hi, lambda_hi), so every point of the box is
    in the bound's domain; DomainError otherwise.
    """

    __slots__ = ()

    def __new__(cls, a: tuple[float, float], r0: tuple[float, float], lam: tuple[float, float]):
        try:
            (a_lo, a_hi), (r0_lo, r0_hi), (lam_lo, lam_hi) = a, r0, lam
        except (TypeError, ValueError):
            raise wrong_type("each interval must be a pair (lo, hi)", a, r0, lam) from None
        BoundParams(a=a_hi, r0=r0_lo, p=0.0, lam=lam_lo)
        BoundParams(a=a_lo, r0=r0_hi, p=0.0, lam=lam_hi)
        for name, lo, hi in (("a", a_lo, a_hi), ("r0", r0_lo, r0_hi), ("lambda", lam_lo, lam_hi)):
            if not lo <= hi:
                raise DomainError(f"{name} interval ({shown(lo)}, {shown(hi)}) has lo > hi")
        return tuple.__new__(cls, (a, r0, lam))

    @classmethod
    def _make(cls, fields):
        """The box of an iterable of intervals, checked: ``_replace`` builds through it."""
        return cls(*fields)


class OptimizationResult(namedtuple("OptimizationResult", "best breakdown trace")):
    """The best point the search found, its bound and the search's trace.

    ``best.p`` is the balanced split at the best (a, r0, lambda);
    ``trace`` holds (point, objective) pairs as ``optimize`` describes.
    """

    __slots__ = ()


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
    """Compass search for the largest objective in ``box``.

    The search starts at the box centre, each axis's step half its
    interval width.  A round takes a, then r0, then lambda: it probes one
    step up and, unless that moves, one step down, each probe clipped to
    its interval, and moves to a probe whose key (objective, balanced
    value) is strictly larger.  A probe that equals the current point (a
    fixed axis, a box edge) is skipped unevaluated, and no point is
    evaluated twice in one search.  A round without a
    move halves every step; the search ends once every step is at most
    1e-10.  The trace holds the start point (when feasible), then the
    point at each halving after the objective rose.  An infeasible point (Case II
    undefined) ranks below every feasible one; if the search ends on one,
    EmptyFeasibleSet is raised.  A point outside the bound's domain (an
    unknown convention, r0 < 0.15) is an input error: its DomainError
    propagates.
    """

    seen = {}  # point: (key, p); a round re-probes points an earlier round evaluated

    def evaluate(point):
        if point not in seen:
            try:
                phi, value, p = _balanced_point(*point, convention)
                seen[point] = (phi, value), p
            except CaseIIInfeasible:
                seen[point] = (-math.inf, -math.inf), None
        return seen[point]

    try:
        intervals = (box.a, box.r0, box.lam)
        point = tuple((lo + hi) / 2.0 for lo, hi in intervals)
        steps = [(hi - lo) / 2.0 for lo, hi in intervals]
    except (TypeError, OverflowError, AttributeError):
        raise wrong_type("box must be a SearchBox", box) from None
    key, p = evaluate(point)
    trace = [] if p is None else [(_params_at(point, p), key[0])]
    while max(steps) > _STEP_TOL:
        moved = False
        for axis, (lo, hi) in enumerate(intervals):
            for sign in (1.0, -1.0):
                x = min(hi, max(lo, point[axis] + sign * steps[axis]))
                if x == point[axis]:
                    continue
                trial = point[:axis] + (x,) + point[axis + 1:]
                trial_key, trial_p = evaluate(trial)
                if trial_key > key:
                    point, key, p, moved = trial, trial_key, trial_p, True
                    break
        if not moved:
            steps = [step / 2.0 for step in steps]
            if p is not None and (not trace or key[0] > trace[-1][1]):
                trace.append((_params_at(point, p), key[0]))
    if p is None:
        raise EmptyFeasibleSet("every point the search probed was infeasible")

    best = _params_at(point, p)
    breakdown = bounds.theorem_bound(best, convention=convention)
    return OptimizationResult(best=best, breakdown=breakdown, trace=trace)


def _params_at(point, p):
    a, r0, lam = point
    return BoundParams(a=a, r0=r0, p=p, lam=lam)


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
    try:
        if not tol + 0.0 >= 0.0:  # + 0.0 refuses an int too wide for a float
            raise DomainError(f"tol must be >= 0, got {shown(tol)}")
    except (TypeError, OverflowError):
        raise wrong_type("tol must be a real", tol) from None
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
