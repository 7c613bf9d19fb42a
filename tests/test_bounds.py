"""Bound-function tests: published constants, two Simpson oracles for the
closed-form cross-section integral (a 10^6-panel composite rule and a
kink-split adaptive rule), and the breakdown contracts."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from kakeya import bounds, geom, optimizer
from kakeya.bounds import (
    BoundParams,
    RLAMBDA_PAPER_LITERAL,
    RLAMBDA_REPRODUCING,
    THEOREM_DEFAULTS,
)
from kakeya.errors import CaseIIInfeasible, DomainError

A_DEFAULT = math.pi / 49.0


def simpson_oracle_integral(a, r0, r_lambda, panels=1_000_000):
    """Fine-grid composite Simpson for integral of r/g(r), written directly
    against the three branch formulas."""
    xs = np.linspace(a, r0, 2 * panels + 1)
    g = np.maximum(
        (1.0 + 2.0 * xs) / (1.0 - 2.0 * xs),
        np.maximum(
            (1.0 + 2.0 * r_lambda) / (1.0 - 2.0 * r_lambda),
            math.pi / (0.5 * math.pi - np.arctan(2.0 * xs)),
        ),
    )
    y = xs / g
    h = (r0 - a) / (2 * panels)
    return h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2]))


def adaptive_simpson(func, lo, hi, tol, max_depth=48):
    """Adaptive Simpson quadrature with absolute tolerance ``tol``.

    Uses the standard estimate |S2 - S1|/15 per panel with Richardson
    extrapolation.  Raises ArithmeticError if a panel still misses its
    local tolerance at ``max_depth``.
    """
    if hi <= lo:
        return 0.0

    def simpson(fa, fm, fb, width):
        return width / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(x0, x2, f0, f1, f2, whole, tol, depth):
        x1 = 0.5 * (x0 + x2)
        fl = func(0.5 * (x0 + x1))
        fr = func(0.5 * (x1 + x2))
        left = simpson(f0, fl, f1, x1 - x0)
        right = simpson(f1, fr, f2, x2 - x1)
        err = (left + right - whole) / 15.0
        if abs(err) <= tol:
            return left + right + err
        if depth >= max_depth:
            raise ArithmeticError(f"no convergence on [{x0}, {x2}] at depth {max_depth}")
        return recurse(x0, x1, f0, fl, f1, left, 0.5 * tol, depth + 1) + recurse(
            x1, x2, f1, fr, f2, right, 0.5 * tol, depth + 1
        )

    f_lo, f_mid, f_hi = func(lo), func(0.5 * (lo + hi)), func(hi)
    return recurse(lo, hi, f_lo, f_mid, f_hi, simpson(f_lo, f_mid, f_hi, hi - lo), tol, 0)


def g_components(r_lambda):
    """The three branches of the g-cap, written directly from their formulas."""
    g_mid = (1.0 + 2.0 * r_lambda) / (1.0 - 2.0 * r_lambda)
    return (
        lambda r: (1.0 + 2.0 * r) / (1.0 - 2.0 * r),
        lambda r: g_mid,
        lambda r: math.pi / (0.5 * math.pi - math.atan(2.0 * r)),
    )


def bisect_kinks(lo, hi, r_lambda, n_scan=256):
    """Radii in (lo, hi) where the largest branch changes, found by a sign
    scan of each pairwise difference and bisection to the last bit."""
    comps = g_components(r_lambda)

    def active(r):
        vals = [c(r) for c in comps]
        return vals.index(max(vals))

    kinks = []
    for i in range(3):
        for j in range(i + 1, 3):
            diff = lambda r, fi=comps[i], fj=comps[j]: fi(r) - fj(r)
            xs = [lo + (hi - lo) * k / n_scan for k in range(n_scan + 1)]
            for x0, x1 in zip(xs, xs[1:]):
                if (diff(x0) < 0.0) == (diff(x1) < 0.0):
                    continue
                while True:
                    mid = 0.5 * (x0 + x1)
                    if not x0 < mid < x1:
                        break
                    if (diff(mid) < 0.0) == (diff(x0) < 0.0):
                        x0 = mid
                    else:
                        x1 = mid
                if active(max(lo, x0 - 1e-9)) != active(min(hi, x1 + 1e-9)):
                    kinks.append((x1, (i, j)))
    return sorted(kinks)


def kink_split_simpson(a, r0, r_lambda, tol=1e-13):
    """Integral of r/g(r) over [a, r0] by adaptive Simpson on each piece
    between bisected kinks."""
    comps = g_components(r_lambda)
    integrand = lambda r: r / max(c(r) for c in comps)
    cuts = [a] + [x for x, _ in bisect_kinks(a, r0, r_lambda)] + [r0]
    return sum(adaptive_simpson(integrand, x0, x1, tol) for x0, x1 in zip(cuts, cuts[1:]))


# ---------------------------------------------------------------------------
# Rate functions
# ---------------------------------------------------------------------------

def test_area_rate_values():
    assert geom.exterior_area_rate(1.0 / 6.0) == pytest.approx(1.0 / 27.0, abs=1e-16)
    assert geom.exterior_area_rate(0.5) == 0.0
    with pytest.raises(DomainError):
        geom.exterior_area_rate(0.6)
    # in-domain (r >= 0.15) the inner-area coefficient is strictly positive
    for r in np.linspace(0.15, 0.5, 30):
        f_r = geom.exterior_area_rate(r)
        assert 1.0 - f_r / (2.0 * r * r) > 0.0


def test_area_rate_peaks_at_one_sixth():
    # bisection on the central finite difference; the slope flips sign at
    # the peak, which pins the argmax far more sharply than value probes
    step = 1e-5

    def slope(x):
        return geom.exterior_area_rate(x + step) - geom.exterior_area_rate(x - step)

    lo, hi = 0.151, 0.49
    assert slope(lo) > 0.0 > slope(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(1.0 / 6.0, abs=1e-9)


def test_outside_rate_values():
    a = A_DEFAULT
    assert bounds.outside_area_rate(a, a) == pytest.approx(a / math.pi, abs=1e-16)
    derived = bounds.derive_params(THEOREM_DEFAULTS)
    assert bounds.outside_area_rate(derived.r1 - 1.0, a) == pytest.approx(
        0.42871618078819802, abs=1e-14
    )
    with pytest.raises(DomainError):
        bounds.outside_area_rate(0.05, 0.1)


def test_outside_rate_is_the_minimum_over_smaller_heights():
    a = A_DEFAULT
    for r in np.linspace(a, 1.5, 50):
        floor = bounds.outside_area_rate(r, a)
        for frac in np.linspace(1e-6, 1.0, 50):
            assert bounds.outside_area_rate(r, frac * a) >= floor - 1e-9


def test_ratio_cap_values_and_dominance():
    derived = bounds.derive_params(THEOREM_DEFAULTS)
    assert bounds.direction_ratio_cap(0.2, derived) == pytest.approx(
        2.7231663985588486, abs=1e-13
    )
    assert bounds.direction_ratio_cap(0.25, derived) == pytest.approx(3.0, abs=1e-13)
    for r in np.linspace(0.01, 0.49, 200):
        comps = (
            (1.0 + 2.0 * r) / (1.0 - 2.0 * r),
            derived.g_mid,
            math.pi / (0.5 * math.pi - math.atan(2.0 * r)),
        )
        g = bounds.direction_ratio_cap(r, derived)
        assert all(g >= c - 1e-15 for c in comps)
        assert any(g == c for c in comps)
        # the cap never dips below the local-ratio branch
        assert r / g <= r * (1.0 - 2.0 * r) / (1.0 + 2.0 * r) + 1e-15
    with pytest.raises(DomainError):
        bounds.direction_ratio_cap(0.5, derived)


# ---------------------------------------------------------------------------
# Derived parameters
# ---------------------------------------------------------------------------

def test_derive_params_default_chain():
    derived = bounds.derive_params(THEOREM_DEFAULTS)
    assert derived.r_lambda == pytest.approx(0.23141141357875468, abs=1e-16)
    assert derived.delta1 == pytest.approx(0.017261659295639277, abs=1e-15)
    assert derived.r1 == pytest.approx(1.8582319009098822, abs=1e-13)
    assert derived.r1 - 1.0 > THEOREM_DEFAULTS.a


def test_derive_params_interpolation_endpoints():
    base = THEOREM_DEFAULTS
    at_one = bounds.derive_params(BoundParams(a=base.a, r0=base.r0, p=base.p, lam=1.0))
    at_zero = bounds.derive_params(BoundParams(a=base.a, r0=base.r0, p=base.p, lam=0.0))
    assert at_one.r_lambda == base.r0
    assert at_zero.r_lambda == base.a


def test_derive_params_paper_literal_swaps_the_weights():
    derived = bounds.derive_params(THEOREM_DEFAULTS, RLAMBDA_PAPER_LITERAL)
    assert derived.r_lambda == pytest.approx(
        0.9 * THEOREM_DEFAULTS.a + 0.1 * 0.25, abs=1e-16
    )
    with pytest.raises(DomainError):
        bounds.derive_params(THEOREM_DEFAULTS, "typo")


# ---------------------------------------------------------------------------
# Closed-form Case I integral and its oracles
# ---------------------------------------------------------------------------

def test_adaptive_simpson_basics():
    assert adaptive_simpson(lambda x: x * x, 1.0, 1.0, 1e-10) == 0.0
    got = adaptive_simpson(lambda x: x * x, 0.0, 1.0, 1e-12)
    assert got == pytest.approx(1.0 / 3.0, abs=1e-12)
    got = adaptive_simpson(math.sin, 0.0, math.pi, 1e-11)
    assert got == pytest.approx(2.0, abs=1e-11)


def test_adaptive_simpson_signals_nonconvergence():
    with pytest.raises(ArithmeticError):
        adaptive_simpson(lambda x: math.sin(50.0 * x), 0.0, 10.0, 1e-14, max_depth=3)


def test_case_i_integral_against_fine_grid_simpson():
    derived = bounds.derive_params(THEOREM_DEFAULTS)
    got = bounds.case_i_integral(THEOREM_DEFAULTS, tol=1e-10)
    oracle_value = simpson_oracle_integral(
        THEOREM_DEFAULTS.a, THEOREM_DEFAULTS.r0, derived.r_lambda
    )
    assert got == pytest.approx(oracle_value, abs=2e-10)
    assert got == pytest.approx(0.010635251311336261, abs=1e-10)


def test_case_i_integral_against_kink_split_simpson():
    rnd = random.Random(2024)
    points = [
        (THEOREM_DEFAULTS.a, THEOREM_DEFAULTS.r0, THEOREM_DEFAULTS.lam),
        (0.06473, 0.22785, 0.90696),
        (0.05, 0.3, 0.9),
    ]
    while len(points) < 200:
        a = rnd.uniform(0.01, 0.2)
        r0 = rnd.uniform(max(0.15, a + 0.01), 0.49)
        points.append((a, r0, rnd.random()))
    layouts = set()
    for convention in (RLAMBDA_REPRODUCING, RLAMBDA_PAPER_LITERAL):
        for a, r0, lam in points:
            params = BoundParams(a=a, r0=r0, p=0.5, lam=lam)
            r_lambda = bounds.derive_params(params, convention).r_lambda
            layouts.add(tuple(pair for _, pair in bisect_kinks(a, r0, r_lambda)))
            got = bounds.case_i_integral(params, convention=convention)
            assert got == pytest.approx(kink_split_simpson(a, r0, r_lambda), abs=1e-13)
    # every kink layout of [a, r0]: (r23, r*), r* alone, r_lambda alone
    assert {((1, 2), (0, 2)), ((0, 2),), ((0, 1),)} <= layouts


def test_case_i_integral_tol_is_checked_but_inert():
    exact = bounds.case_i_integral(THEOREM_DEFAULTS)
    for tol in (1e-300, 1e-13, 1e-3, 1.0):
        assert bounds.case_i_integral(THEOREM_DEFAULTS, tol=tol) == exact
    breakdown = bounds.theorem_bound(THEOREM_DEFAULTS)
    assert bounds.theorem_bound(THEOREM_DEFAULTS, tol=1e-300) == breakdown
    assert bounds.theorem_bound(THEOREM_DEFAULTS, tol=1e-300).case_i == breakdown.case_i
    for bad in (0.0, -1e-10, math.nan):
        for call in (bounds.case_i_integral, bounds.theorem_bound):
            with pytest.raises(DomainError, match="tol must be > 0"):
                call(THEOREM_DEFAULTS, tol=bad)


def test_case_i_integral_halving_stability():
    for tol in (1e-6, 1e-8, 1e-10):
        coarse = bounds.case_i_integral(THEOREM_DEFAULTS, tol=tol)
        fine = bounds.case_i_integral(THEOREM_DEFAULTS, tol=tol / 2.0)
        assert abs(coarse - fine) <= tol


def test_case_i_integral_dominated_by_single_branch_integrals():
    derived = bounds.derive_params(THEOREM_DEFAULTS)
    full = bounds.case_i_integral(THEOREM_DEFAULTS, tol=1e-10)
    a, r0 = THEOREM_DEFAULTS.a, THEOREM_DEFAULTS.r0
    singles = (
        adaptive_simpson(lambda r: r * (1 - 2 * r) / (1 + 2 * r), a, r0, 1e-12),
        adaptive_simpson(lambda r: r / derived.g_mid, a, r0, 1e-12),
        adaptive_simpson(
            lambda r: r * (0.5 * math.pi - math.atan(2 * r)) / math.pi, a, r0, 1e-12
        ),
    )
    for single in singles:
        assert full <= single + 1e-12


def test_r_star_is_where_the_local_and_arc_branches_meet():
    r = bounds.R_STAR
    local = (1.0 + 2.0 * r) / (1.0 - 2.0 * r)
    arc = math.pi / (0.5 * math.pi - math.atan(2.0 * r))
    assert abs(local - arc) <= 1e-15
    [(kink, pair)] = bisect_kinks(0.2, 0.3, 0.1)
    assert pair == (0, 2)
    assert kink == pytest.approx(r, abs=1e-15)


def test_argmax_branch_matches_the_first_maximum_reference():
    # reference: the first index of the largest of the three branch values
    def reference(r, g_mid):
        vals = (
            (1.0 + 2.0 * r) / (1.0 - 2.0 * r),
            g_mid,
            math.pi / (0.5 * math.pi - math.atan(2.0 * r)),
        )
        return max(range(3), key=vals.__getitem__)

    rnd = random.Random(4096)
    radii_checked = 0
    for convention in (RLAMBDA_REPRODUCING, RLAMBDA_PAPER_LITERAL):
        for _ in range(100):
            a = rnd.uniform(0.01, 0.2)
            params = BoundParams(a=a, r0=rnd.uniform(a + 1e-3, 0.49), p=0.5, lam=rnd.random())
            derived = bounds.derive_params(params, convention)
            radii = [rnd.uniform(1e-6, 0.5 - 1e-6) for _ in range(60)]
            radii += [derived.r_lambda, bounds.R_STAR]
            for r in radii:
                assert bounds._argmax_branch(r, derived) == reference(r, derived.g_mid)
            radii_checked += len(radii)
    assert radii_checked >= 10_000

    # exact tie of branches 0 and 1 at r = r_lambda (beyond R_STAR, where
    # the arc branch is lower): the first index wins
    derived = bounds.derive_params(BoundParams(a=0.1, r0=0.3, p=0.5, lam=0.9))
    r = derived.r_lambda
    assert r > bounds.R_STAR
    assert (1.0 + 2.0 * r) / (1.0 - 2.0 * r) == derived.g_mid
    assert bounds._argmax_branch(r, derived) == 0


def test_active_g_branch_names_the_largest_branch():
    derived = bounds.derive_params(THEOREM_DEFAULTS)
    formulas = ("(1+2r)/(1-2r)", "(1+2r_lambda)/(1-2r_lambda)", "pi/(pi/2-atan(2r))")
    for r in (1e-9, 0.1, derived.r_lambda, 0.23, bounds.R_STAR, 0.3, 0.5 - 1e-9):
        assert bounds.active_g_branch(r, derived) == formulas[bounds._argmax_branch(r, derived)]
    assert [bounds.active_g_branch(r, derived) for r in (0.1, 0.23, 0.3)] == [
        formulas[1], formulas[2], formulas[0]
    ]
    for r in (0.0, 0.5, math.nan):
        with pytest.raises(DomainError):
            bounds.active_g_branch(r, derived)


def test_g_branch_kinks_located_by_bisection():
    kinks = bounds.g_branch_kinks(THEOREM_DEFAULTS)
    assert len(kinks) == 2
    assert kinks[0] == pytest.approx(0.22157448183881665, abs=1e-11)
    assert kinks[1] == pytest.approx(0.23529881692067726, abs=1e-11)
    # the closed-form kinks agree with bisection on the branch formulas
    for convention in (RLAMBDA_REPRODUCING, RLAMBDA_PAPER_LITERAL):
        for a, r0, lam in ((0.05, 0.3, 0.9), (0.02, 0.4, 0.1), (0.1, 0.45, 0.5)):
            params = BoundParams(a=a, r0=r0, p=0.5, lam=lam)
            r_lambda = bounds.derive_params(params, convention).r_lambda
            expected = [x for x, _ in bisect_kinks(a, r0, r_lambda)]
            assert bounds.g_branch_kinks(params, convention) == pytest.approx(
                expected, abs=1e-14
            )


# ---------------------------------------------------------------------------
# Case bounds and the breakdown
# ---------------------------------------------------------------------------

def test_case_i_bound_reproduces_the_published_coefficient():
    got = bounds.theorem_bound(THEOREM_DEFAULTS, tol=1e-10).case_i
    assert 0.010200 <= got <= 0.010210
    assert got == pytest.approx(0.010205431545050659, abs=1e-10)


def test_case_i_bound_degenerate_and_monotone_in_p():
    base = THEOREM_DEFAULTS
    at_zero = bounds.theorem_bound(BoundParams(a=base.a, r0=base.r0, p=0.0, lam=base.lam)).case_i
    assert at_zero == pytest.approx(0.25 * geom.exterior_area_rate(0.25), abs=1e-15)
    assert at_zero == pytest.approx(0.0078125, abs=1e-15)
    prev = at_zero
    for p in (0.25, 0.5, 0.75, 1.0):
        cur = bounds.theorem_bound(BoundParams(a=base.a, r0=base.r0, p=p, lam=base.lam)).case_i
        assert cur >= prev
        prev = cur


def test_case_ii_bound_reproduces_the_published_coefficient():
    got = bounds.theorem_bound(THEOREM_DEFAULTS).case_ii
    assert 0.01070 <= got <= 0.01075
    assert got == pytest.approx(0.010717904519704951, abs=1e-13)
    base = THEOREM_DEFAULTS
    at_one = BoundParams(a=base.a, r0=base.r0, p=1.0, lam=base.lam)
    assert bounds.theorem_bound(at_one).case_ii == 0.0
    for p in (0.1, 0.5, 0.9):
        params = BoundParams(a=base.a, r0=base.r0, p=p, lam=base.lam)
        derived = bounds.derive_params(params)
        via_outside = 0.25 * (1.0 - p) * bounds.outside_area_rate(derived.r1 - 1.0, base.a)
        assert bounds.theorem_bound(params).case_ii == pytest.approx(via_outside, abs=1e-16)


def test_case_ii_infeasibility_is_a_typed_error():
    # In exact arithmetic r1 - 1 > sqrt(3)*a at every valid point; rounding
    # still reaches the error: under paper-literal with lambda = 1,
    # r_lambda = a, and for a <= 1e-17 r1 rounds to exactly 1.
    params = BoundParams(a=1e-200, r0=0.25, p=0.5, lam=1.0)
    derived = bounds.derive_params(params, RLAMBDA_PAPER_LITERAL)
    assert derived.r1 == 1.0 and not derived.r1 - 1.0 > params.a
    with pytest.raises(CaseIIInfeasible, match="r1 - 1 = 0.0 <= a"):
        bounds.theorem_bound(params, convention=RLAMBDA_PAPER_LITERAL)
    with pytest.raises(CaseIIInfeasible):
        optimizer._balanced_point(params.a, params.r0, params.lam, RLAMBDA_PAPER_LITERAL)


def test_bound_terms_feed_the_breakdown_bit_for_bit():
    rnd = random.Random(98)
    for convention in (RLAMBDA_REPRODUCING, RLAMBDA_PAPER_LITERAL):
        for _ in range(200):
            a = rnd.uniform(0.01, 0.12)
            params = BoundParams(a=a, r0=rnd.uniform(0.15, 0.49), p=rnd.random(), lam=rnd.random())
            try:
                terms = bounds.bound_terms(params, convention)
            except CaseIIInfeasible:
                continue
            bb = bounds.theorem_bound(params, convention=convention)
            derived = bounds.derive_params(params, convention)
            inner = 1.0 - bb.f_r0 / (2.0 * params.r0 ** 2)
            # the formulas as theorem_bound wrote them before the record
            assert bb.case_i == terms.k0 + params.p * terms.k1
            assert bb.case_ii == (1.0 - params.p) / 4.0 * bb.c_r1m1
            assert (bb.case_i, bb.case_ii) == terms.split(params.p)
            assert terms.k1 == inner / 3.0 * bb.integral_value
            assert terms.half_a == bb.half_a == params.a / (2.0 * math.pi)
            assert terms.q == inner * (params.a / derived.r1) ** 2
            assert inner >= 0.18
            # p is not read
            assert bounds.bound_terms(params._replace(p=0.0), convention) == terms


def test_paper_literal_convention_breaks_case_ii():
    got = bounds.theorem_bound(THEOREM_DEFAULTS, convention=RLAMBDA_PAPER_LITERAL).case_ii
    assert got < 0.003
    assert got == pytest.approx(0.002290116990498283, abs=1e-12)


def test_theorem_breakdown_contract():
    bb = bounds.theorem_bound(THEOREM_DEFAULTS, tol=1e-10)
    assert bb.half_a == 1.0 / 98.0
    assert bb.final == min(bb.case_i, bb.case_ii, bb.half_a)
    assert bb.final * math.pi >= math.pi / 98.0
    assert min(bb.case_i, bb.case_ii, bb.half_a, bb.final) >= 0.0
    assert bb.f_r0 == pytest.approx(0.03125, abs=1e-16)
    assert bb.c_r1m1 == pytest.approx(0.42871618078819802, abs=1e-14)


def test_theorem_breakdown_with_p_one_documents_the_min():
    base = THEOREM_DEFAULTS
    bb = bounds.theorem_bound(BoundParams(a=base.a, r0=base.r0, p=1.0, lam=base.lam))
    assert bb.case_ii == 0.0
    assert bb.final == 0.0


def test_breakdown_is_deterministic():
    first = bounds.theorem_bound(THEOREM_DEFAULTS, tol=1e-10)
    second = bounds.theorem_bound(THEOREM_DEFAULTS, tol=1e-10)
    assert first == second


def test_bound_params_validation_messages():
    with pytest.raises(DomainError, match="a must be < r0"):
        BoundParams(a=0.5, r0=0.25, p=0.9, lam=0.9)
    with pytest.raises(DomainError):
        BoundParams(a=-0.1, r0=0.25, p=0.9, lam=0.9)
    with pytest.raises(DomainError):
        BoundParams(a=0.1, r0=0.55, p=0.9, lam=0.9)
    with pytest.raises(DomainError):
        BoundParams(a=0.1, r0=0.25, p=1.5, lam=0.9)


def test_bound_params_names_the_first_non_finite_field():
    nan, inf = math.nan, math.inf
    with pytest.raises(DomainError, match="^a must be finite$"):
        BoundParams(a=nan, r0=inf, p=0.9, lam=0.9)
    with pytest.raises(DomainError, match="^r0 must be finite$"):
        BoundParams(a=0.1, r0=-inf, p=inf, lam=0.9)
    with pytest.raises(DomainError, match="^p must be finite$"):
        BoundParams(a=0.1, r0=0.25, p=inf, lam=-inf)
    with pytest.raises(DomainError, match="^lam must be finite$"):
        BoundParams(a=0.1, r0=0.25, p=0.9, lam=nan)
    # finite fields whose sum overflows reach the range checks
    with pytest.raises(DomainError, match="a must be < r0"):
        BoundParams(a=1e308, r0=1e308, p=1e308, lam=0.9)



@pytest.mark.parametrize("name", ["a", "r0", "p", "lam"])
def test_bound_params_names_an_int_past_the_digit_limit_by_its_size(name):
    # str() refuses an int of more than 4,300 digits; the message used to
    # fail on it with a raw ValueError
    for value in (10**5000, -(10**5000)):
        fields = {"a": 0.06, "r0": 0.25, "p": 0.5, "lam": 0.9, name: value}
        with pytest.raises(DomainError, match=f"got .*an int of {value.bit_length()} bits"):
            BoundParams(**fields)
    with pytest.raises(DomainError, match="got 1e\\+300$"):
        BoundParams(a=0.06, r0=0.25, p=0.5, lam=1e300)

# ---------------------------------------------------------------------------
# Historical constant
# ---------------------------------------------------------------------------

def test_cunningham_constant():
    got = bounds.cunningham_bound()
    assert abs(got - 1.0 / 108.0) <= 1e-15
    # (5 - 2*sqrt(2))/24, the smallest area coefficient of the known
    # tricuspoid-style constructions: every valid lower bound stays below it
    assert 1.0 / 108.0 < 1.0 / 98.0 < (5.0 - 2.0 * math.sqrt(2.0)) / 24.0
