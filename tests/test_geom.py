"""Geometry tests: closed forms against a 40-digit mpmath oracle, clipping
against Monte Carlo, arcs against independent edge-circle root finding."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from mpmath import mp

from kakeya import geom, oracle
from kakeya.errors import DomainError
from kakeya.rng import CounterRng

mp.dps = 40


def mp_exterior_isosceles(delta, r):
    d, r = mp.mpf(repr(delta)), mp.mpf(repr(r))
    return float(
        d / 2 - (d * mp.sqrt(r * r - d * d) + (mp.asin(d / r) - mp.atan(2 * d)) * r * r)
    )


def mp_theta_isosceles(delta, r):
    d, r = mp.mpf(repr(delta)), mp.mpf(repr(r))
    return float(mp.asin(d / r) - mp.atan(2 * d))


# ---------------------------------------------------------------------------
# Triangle construction
# ---------------------------------------------------------------------------

def test_degenerate_triangle_is_a_segment_through_origin():
    tri = geom.make_triangle(0.0, 0.0, 0.5)
    assert tri.area == 0.0
    o, a, b = tri.vertices
    assert (a.x, a.y) == (-0.5, 0.0)
    assert (b.x, b.y) == (0.5, 0.0)


def test_isosceles_triangle_has_equal_legs():
    tri = geom.make_triangle(math.pi / 2, 0.1, 0.5)
    _, a, b = tri.vertices
    leg = math.sqrt(0.1**2 + 0.25)
    assert math.hypot(a.x, a.y) == pytest.approx(leg, abs=1e-14)
    assert math.hypot(b.x, b.y) == pytest.approx(leg, abs=1e-14)


def test_vertices_recompute_height_and_base_length():
    # independent point-line distance: |cross(B-A, A)| / |B-A|
    tri = geom.make_triangle(1.0, 0.05, 0.2)
    _, a, b = tri.vertices
    ux, uy = b.x - a.x, b.y - a.y
    base = math.hypot(ux, uy)
    dist = abs(ux * a.y - uy * a.x) / base
    assert base == pytest.approx(1.0, abs=1e-12)
    assert dist == pytest.approx(0.05, abs=1e-12)


def test_alpha_stored_mod_pi():
    assert geom.make_triangle(math.pi + 0.3, 0.01, 0.5).alpha == pytest.approx(0.3)
    assert geom.make_triangle(-0.3, 0.01, 0.5).alpha == pytest.approx(math.pi - 0.3)


def test_foot_half_iff_isosceles():
    rng = CounterRng(2024, stream=1)
    alphas = rng.uniform(0.0, math.pi, 50)
    deltas = rng.uniform(0.001, 0.2, 50)
    ts = rng.uniforms(50)
    for alpha, delta, t in zip(alphas, deltas, ts):
        tri = geom.make_triangle(alpha, delta, t)
        _, a, b = tri.vertices
        equal_legs = abs(math.hypot(a.x, a.y) - math.hypot(b.x, b.y)) < 1e-12
        assert equal_legs == (abs(t - 0.5) < 1e-12)


@pytest.mark.parametrize(
    "alpha, delta, t",
    [(0.0, -0.1, 0.5), (0.0, 0.1, -0.01), (0.0, 0.1, 1.01), (math.nan, 0.1, 0.5), (0.0, math.inf, 0.5)],
)
def test_make_triangle_rejects_bad_inputs(alpha, delta, t):
    with pytest.raises(DomainError):
        geom.make_triangle(alpha, delta, t)


# ---------------------------------------------------------------------------
# Outer area
# ---------------------------------------------------------------------------

def test_exterior_area_degenerate_and_contained():
    assert geom.exterior_area(geom.make_triangle(0.4, 0.0, 0.5), 0.25) == 0.0
    assert geom.exterior_area(geom.make_triangle(0.4, 0.1, 0.5), 2.0) == 0.0


def test_exterior_area_matches_closed_form_isosceles():
    tri = geom.make_triangle(0.7, 0.05, 0.5)
    assert geom.exterior_area(tri, 0.25) == pytest.approx(
        geom.exterior_area_isosceles(0.05, 0.25), abs=1e-10
    )


def test_exterior_area_against_monte_carlo():
    delta, r = 0.05, 0.25
    tri = geom.make_triangle(0.7, delta, 0.5)
    _, a, b = tri.vertices

    def region(xs, ys):
        d1 = a.x * ys - a.y * xs
        d2 = (b.x - a.x) * (ys - a.y) - (b.y - a.y) * (xs - a.x)
        d3 = -(b.x * (ys - b.y) - b.y * (xs - b.x))
        inside = ((d1 >= 0) & (d2 >= 0) & (d3 >= 0)) | ((d1 <= 0) & (d2 <= 0) & (d3 <= 0))
        return inside & (np.hypot(xs, ys) >= r)

    xs = [a.x, b.x, 0.0]
    ys = [a.y, b.y, 0.0]
    bbox = (min(xs), min(ys), max(xs), max(ys))
    est = oracle.mc_area(region, bbox, samples=2_000_000, seed=11)
    exact = geom.exterior_area(tri, r)
    assert abs(est.value - exact) <= 3.0 * est.std_error


def test_exterior_area_isosceles_values():
    assert geom.exterior_area_isosceles(0.0, 0.25) == 0.0
    # frozen from the 40-digit evaluation of the closed form
    frozen = 0.0012511670268382411
    assert mp_exterior_isosceles(0.01, 0.25) == pytest.approx(frozen, abs=1e-18)
    assert geom.exterior_area_isosceles(0.01, 0.25) == pytest.approx(frozen, abs=1e-15)


def test_exterior_area_isosceles_domain():
    with pytest.raises(DomainError):
        geom.exterior_area_isosceles(0.25, 0.25)
    with pytest.raises(DomainError):
        geom.exterior_area_isosceles(0.3, 0.25)


def test_isosceles_minimizes_exterior_area():
    rng = CounterRng(77, stream=3)
    n = 2000
    r = rng.uniform(0.15, 0.5, n)
    delta = rng.uniforms(n) * np.minimum(math.pi / 49.0, 0.9 * r)
    alpha = rng.uniform(0.0, math.pi, n)
    t = rng.uniforms(n)
    for i in range(n):
        tri = geom.make_triangle(alpha[i], delta[i], t[i])
        assert geom.exterior_area(tri, r[i]) >= geom.exterior_area_isosceles(delta[i], r[i]) - 1e-10


def test_exterior_area_is_lipschitz_in_its_inputs():
    rng = CounterRng(5, stream=9)
    step = 1e-6
    bound = 10.0
    for _ in range(200):
        alpha = float(rng.uniform(0.0, math.pi, 1)[0])
        delta = float(rng.uniform(0.01, 0.2, 1)[0])
        t = float(rng.uniform(0.01, 0.99, 1)[0])
        r = float(rng.uniform(0.1, 0.45, 1)[0])
        base = geom.exterior_area(geom.make_triangle(alpha, delta, t), r)
        ref = (
            geom.exterior_area(geom.make_triangle(alpha, delta + step, t), r),
            geom.exterior_area(geom.make_triangle(alpha, delta, t + step), r),
            geom.exterior_area(geom.make_triangle(alpha, delta, t), r + step),
        )
        for other in ref:
            assert abs(other - base) <= bound * step


# ---------------------------------------------------------------------------
# Outer/angle quotient
# ---------------------------------------------------------------------------

def test_angle_ratio_limit_is_the_area_rate():
    for r in (0.15, 0.2, 0.25, 1.0 / 6.0, 0.4):
        assert geom.exterior_angle_ratio(0.0, r) == 0.5 * r * (2.0 * r - 1.0) ** 2


def test_angle_ratio_value_exceeds_limit():
    frozen = 0.031270830773026051
    got = geom.exterior_angle_ratio(0.01, 0.25)
    recomputed = mp_exterior_isosceles(0.01, 0.25) / math.asin(0.01 / 0.25)
    assert recomputed == pytest.approx(frozen, abs=1e-15)
    assert got == pytest.approx(frozen, abs=1e-13)
    assert got > geom.exterior_angle_ratio(0.0, 0.25) == 0.03125


def test_angle_ratio_minimized_in_the_flat_limit():
    # moderate heights only; near delta = r the quotient drops below the limit
    for r in np.linspace(0.15, 0.5, 40):
        limit = geom.exterior_angle_ratio(0.0, r)
        for frac in np.linspace(1e-6, 1.0, 40):
            assert geom.exterior_angle_ratio(frac * 0.6 * r, r) >= limit - 1e-12


# ---------------------------------------------------------------------------
# Central angles
# ---------------------------------------------------------------------------

def test_theta_isosceles_values_and_monotonicity():
    assert geom.theta_isosceles(0.0, 0.25) == 0.0
    frozen = 0.10168926829916876
    assert mp_theta_isosceles(0.05, 0.25) == pytest.approx(frozen, abs=1e-14)
    assert geom.theta_isosceles(0.05, 0.25) == pytest.approx(frozen, abs=1e-14)
    for r in (0.2, 0.25, 0.4):
        top = r / math.sqrt(1.0 + 4.0 * r * r)
        grid = np.linspace(0.0, 0.999 * top, 200)
        vals = [geom.theta_isosceles(d, r) for d in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# Admissible direction intervals
# ---------------------------------------------------------------------------

def test_direction_ratio_matches_the_arcsin_arctan_quotient():
    num = math.asin(0.2) + math.atan(0.1)
    den = math.asin(0.2) - math.atan(0.1)
    assert geom.direction_ratio(0.05, 0.25) == pytest.approx(num / den, abs=1e-13)
    assert geom.direction_ratio(0.05, 0.25) == pytest.approx(2.9602590156895985, abs=1e-12)
    # the ratio's numerator is the admissible width asin(x) + atan(2*delta0)
    width = geom.direction_ratio(0.05, 0.25) * geom.theta_isosceles(0.05, 0.25)
    assert width == pytest.approx(num, abs=1e-14)


def test_direction_ratio_caps_and_limit():
    for r in np.linspace(0.05, 0.49, 100):
        cap = (1.0 + 2.0 * r) / (1.0 - 2.0 * r)
        for frac in np.linspace(1e-6, 0.999999, 100):
            assert geom.direction_ratio(frac * r, r) <= cap + 1e-9
        # supremum attained in the shrinking limit
        assert geom.direction_ratio(1e-6 * r, r) == pytest.approx(cap, rel=1e-4)


def test_direction_ratio_domain():
    with pytest.raises(DomainError, match="delta0 must be > 0"):
        geom.direction_ratio(0.0, 0.25)
    with pytest.raises(DomainError, match="need 0 <= delta < r"):
        geom.direction_ratio(0.25, 0.25)
    with pytest.raises(DomainError, match="r must be > 0"):
        geom.direction_ratio(0.1, -0.25)


def test_direction_ratio_rejects_unresolved_central_angles():
    # at subnormal heights asin and atan keep few significant bits: the
    # angle rounded to 0 (a raw ZeroDivisionError) or the ratio exceeded
    # its cap (5.0 against (1 + 2r)/(1 - 2r) = 4.87)
    with pytest.raises(DomainError, match="subnormal"):
        geom.direction_ratio(5e-324, 0.45)
    with pytest.raises(DomainError, match="subnormal"):
        geom.direction_ratio(5e-324, 0.3295)
    # at r = 1/2 the angle of a small height rounds to zero
    with pytest.raises(DomainError, match="not positive"):
        geom.direction_ratio(1e-10, 0.5)
    # the smallest normal height is still resolved, within its cap
    cap = (1.0 + 2.0 * 0.3295) / (1.0 - 2.0 * 0.3295)
    assert geom.direction_ratio(sys.float_info.min, 0.3295) == pytest.approx(cap, rel=1e-15)


# ---------------------------------------------------------------------------
# Needle reach
# ---------------------------------------------------------------------------

def test_far_endpoint_distance_values_and_monotonicity():
    assert geom.far_endpoint_distance(0.0, 0.25) == pytest.approx(2.0, abs=1e-15)
    for r in (0.2, 0.25, 0.3):
        grid = np.linspace(0.0, 0.9 * r, 60)
        vals = [geom.far_endpoint_distance(d, r) for d in grid]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    for d in (0.0, 0.05):
        assert geom.far_endpoint_distance(d, 0.21) <= geom.far_endpoint_distance(d, 0.25)
    with pytest.raises(DomainError):
        geom.far_endpoint_distance(0.0, 0.5)  # denominator hits zero


def test_outside_distance_cap_values_and_criterion():
    a = math.pi / 49.0
    r_lambda = 0.9 * 0.25 + 0.1 * a
    assert geom.outside_distance_cap(r_lambda, a) == pytest.approx(
        0.017261659295639277, abs=1e-15
    )
    for r in np.linspace(0.1, 0.45, 50):
        delta0 = geom.outside_distance_cap(r, a)
        assert 0.0 <= delta0 <= a
        # the cap solves the clearance equation with equality
        h = delta0 / (0.5 - math.sqrt(r * r - delta0 * delta0))
        assert h <= a + 1e-12
        assert h == pytest.approx(a, rel=1e-9)
    with pytest.raises(DomainError):
        geom.outside_distance_cap(0.01, 0.3)


# ---------------------------------------------------------------------------
# Disjointness criterion
# ---------------------------------------------------------------------------

def test_disjoint_criterion_basics():
    assert geom.exterior_disjoint_criterion(0.3, 0.0, 1.2, 0.0, 0.25)
    need = math.asin(0.1 / 0.25) + math.asin(0.15 / 0.25)
    assert geom.exterior_disjoint_criterion(0.0, 0.1, need, 0.15, 0.25)  # touching allowed
    assert not geom.exterior_disjoint_criterion(0.0, 0.1, need - 1e-9, 0.15, 0.25)
    # direction distance is taken on the circle of lines: a raw gap just
    # shy of pi means nearly parallel lines, which is NOT enough
    assert geom.exterior_disjoint_criterion(0.0, 0.1, math.pi + 1.5, 0.15, 0.25)
    assert not geom.exterior_disjoint_criterion(0.05, 0.1, math.pi - 0.05, 0.15, 0.25)
    with pytest.raises(DomainError):
        geom.exterior_disjoint_criterion(0.0, 0.3, 1.0, 0.1, 0.25)


# ---------------------------------------------------------------------------
# Arcs
# ---------------------------------------------------------------------------

def test_arcs_empty_cases():
    assert geom.intersection_arcs(geom.make_triangle(0.3, 0.1, 0.5), 2.0) == []
    assert geom.intersection_arcs(geom.make_triangle(0.3, 0.0, 0.5), 0.25) == []


def test_arcs_isosceles_match_the_central_angle_formula():
    delta, r = 0.05, 0.25
    arcs = geom.intersection_arcs(geom.make_triangle(1.1, delta, 0.5), r)
    assert len(arcs) == 2
    theta = geom.theta_isosceles(delta, r)
    for arc in arcs:
        assert arc.theta == pytest.approx(theta, abs=1e-12)


def test_arcs_sorted_longest_first_and_consistent_with_probing():
    rng = CounterRng(31, stream=6)
    n = 500
    r = rng.uniform(0.05, 0.5, n)
    delta = rng.uniforms(n) * np.minimum(math.pi / 49.0, 0.9 * r)
    alpha = rng.uniform(0.0, math.pi, n)
    t = rng.uniforms(n)
    for i in range(n):
        tri = geom.make_triangle(alpha[i], delta[i], t[i])
        arcs = geom.intersection_arcs(tri, r[i])
        assert len(arcs) <= 2
        thetas = [arc.theta for arc in arcs]
        assert thetas == sorted(thetas, reverse=True)
        assert all(th > 0.0 for th in thetas)
        probed = oracle._arc_totals_by_probing(_vertices(tri), r[i:i + 1])[0]
        assert sum(thetas) == pytest.approx(probed, abs=1e-9)


def _vertices(tri):
    return np.array([[(p.x, p.y) for p in tri.vertices]])


def _point_on_circle_in_triangle(tri, r, phi):
    return bool(oracle._circle_points_in_triangles(_vertices(tri), np.array([r]), [phi])[0])


def test_arc_interiors_lie_inside_the_triangle():
    tri = geom.make_triangle(0.9, 0.05, 0.2)
    r = 0.25
    arcs = geom.intersection_arcs(tri, r)
    assert arcs
    for arc in arcs:
        nudge = 1e-9 * arc.theta
        for phi in (arc.start + nudge, arc.end - nudge, 0.5 * (arc.start + arc.end)):
            assert _point_on_circle_in_triangle(tri, r, phi)
        # just past either endpoint the circle leaves the triangle
        assert not _point_on_circle_in_triangle(tri, r, arc.start - 1e-6)
        assert not _point_on_circle_in_triangle(tri, r, arc.end + 1e-6)
