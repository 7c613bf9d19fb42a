"""Geometry tests: closed forms against a 40-digit mpmath oracle, the outer
area against Monte Carlo, arcs against independent edge-circle root finding.

A triangle is held as its chart (alpha, delta, t); its corners in the plane
come from the oracle's builder, the one place that makes them."""

from __future__ import annotations

import cmath
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

def _corners(tri):
    """The oracle's (1, 3, 2) corner array (O, A, B) of one triangle."""
    return oracle._triangle_corners(np.array([tri.alpha]), np.array([tri.delta]), np.array([tri.t]))


def _needle_ends(tri):
    """Corners A and B of one triangle, as (x, y) pairs of floats."""
    _, a, b = _corners(tri)[0].tolist()
    return a, b


def test_degenerate_triangle_is_a_segment_through_origin():
    tri = geom.make_triangle(0.0, 0.0, 0.5)
    o, a, b = _corners(tri)[0].tolist()
    assert o == [0.0, 0.0]
    assert a == [-0.5, 0.0]
    assert b == [0.5, 0.0]
    # zero area, so no part of it lies outside any circle
    assert a[0] * b[1] - a[1] * b[0] == 0.0
    assert geom.exterior_area(tri, 0.25) == 0.0


def test_isosceles_triangle_has_equal_legs():
    (ax, ay), (bx, by) = _needle_ends(geom.make_triangle(math.pi / 2, 0.1, 0.5))
    leg = math.sqrt(0.1**2 + 0.25)
    assert math.hypot(ax, ay) == pytest.approx(leg, abs=1e-14)
    assert math.hypot(bx, by) == pytest.approx(leg, abs=1e-14)


def test_vertices_recompute_height_and_base_length():
    # independent point-line distance: |cross(B-A, A)| / |B-A|
    (ax, ay), (bx, by) = _needle_ends(geom.make_triangle(1.0, 0.05, 0.2))
    ux, uy = bx - ax, by - ay
    base = math.hypot(ux, uy)
    dist = abs(ux * ay - uy * ax) / base
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
    corners = oracle._triangle_corners(alphas, deltas, ts)
    legs = np.hypot(corners[:, :, 0], corners[:, :, 1])
    for (_, leg_a, leg_b), t in zip(legs.tolist(), ts.tolist()):
        equal_legs = abs(leg_a - leg_b) < 1e-12
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
    # every vertex lies within sqrt(1 + 1/4) < 1.2 of O, so each triangle
    # is inside the disk and its outer area is exactly 0, with no residue
    rng = CounterRng(21, stream=4)
    n = 10_000
    delta = rng.uniform(0.0, 0.5, n)
    r = rng.uniform(1.2, 10.0, n)
    alpha = rng.uniform(0.0, math.pi, n)
    t = rng.uniforms(n)
    for i in range(n):
        assert geom.exterior_area(geom.make_triangle(alpha[i], delta[i], t[i]), r[i]) == 0.0, i
    # a height whose vertex cross product cancels to 0, and radii up to
    # those where r^2 overflows
    assert geom.exterior_area(geom.make_triangle(0.3, 1e-300, 0.4), 2.0) == 0.0
    for radius in (5.0, 1e200, math.inf):
        assert geom.exterior_area(geom.make_triangle(0.3, 0.05, 0.4), radius) == 0.0, radius


def test_exterior_area_where_r_squared_overflows():
    # delta > r = 1e200: the disk cuts a sector of area r^2 * atan(1/(2 delta)),
    # about 5e149, from the triangle's 5e249; r^2 itself overflows
    tri = geom.make_triangle(0.0, 1e250, 0.5)
    assert geom.exterior_area(tri, 1e200) == pytest.approx(5e249, rel=1e-12)


def test_exterior_area_matches_closed_form_isosceles():
    tri = geom.make_triangle(0.7, 0.05, 0.5)
    assert geom.exterior_area(tri, 0.25) == pytest.approx(
        geom.exterior_area_isosceles(0.05, 0.25), abs=1e-10
    )


def _lattice_estimate(region, bbox, samples, seed):
    """Hit-or-miss area of ``region`` in ``bbox`` and its standard error.

    Point i comes from word i of CounterRng(seed, 0): x = xmin + k * ((xmax
    - xmin) * 2**-32) from its high 32 bits k, y the same way from its low
    32 bits, so the points lie on a 2**32 x 2**32 lattice in the box.
    """
    xmin, ymin, xmax, ymax = bbox
    words = CounterRng(seed, stream=0).raw(samples)
    xs = xmin + (words >> np.uint64(32)).astype(np.float64) * ((xmax - xmin) * 2.0**-32)
    ys = ymin + (words & np.uint64(0xFFFFFFFF)).astype(np.float64) * ((ymax - ymin) * 2.0**-32)
    area = (xmax - xmin) * (ymax - ymin)
    phat = int(np.count_nonzero(region(xs, ys))) / samples
    return area * phat, area * math.sqrt(phat * (1.0 - phat) / samples)


@pytest.mark.parametrize("delta, t, r, samples", [
    pytest.param(0.05, 0.5, 0.25, 2_000_000, id="isosceles"),
    pytest.param(0.05, 0.0, 0.25, 1_000_000, id="t=0"),
    pytest.param(0.1, 0.2, 0.3, 1_000_000, id="t=0.2"),
    pytest.param(0.03, 0.9, 0.2, 1_000_000, id="t=0.9"),
    pytest.param(0.3, 0.7, 0.2, 1_000_000, id="delta>r"),
])
def test_exterior_area_against_monte_carlo(delta, t, r, samples):
    # membership from the corners' half-planes, not from the polar chart
    tri = geom.make_triangle(0.7, delta, t)
    (ax, ay), (bx, by) = _needle_ends(tri)

    def region(xs, ys):
        d1 = ax * ys - ay * xs
        d2 = (bx - ax) * (ys - ay) - (by - ay) * (xs - ax)
        d3 = -(bx * (ys - by) - by * (xs - bx))
        inside = ((d1 >= 0) & (d2 >= 0) & (d3 >= 0)) | ((d1 <= 0) & (d2 <= 0) & (d3 <= 0))
        return inside & (np.hypot(xs, ys) >= r)

    xs = [ax, bx, 0.0]
    ys = [ay, by, 0.0]
    value, std_error = _lattice_estimate(region, (min(xs), min(ys), max(xs), max(ys)), samples, 11)
    exact = geom.exterior_area(tri, r)
    assert abs(value - exact) <= 3.0 * std_error


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


@pytest.mark.parametrize(
    "func", [geom.exterior_area_isosceles, geom.exterior_angle_ratio, geom.far_endpoint_distance]
)
def test_a_radius_whose_square_overflows_a_float_is_a_domain_error(func):
    # 10**200 fits a float, but r * r, an int, does not once it meets
    # delta * delta; the guard raised a raw OverflowError
    for delta in (0.1, 1e200):
        with pytest.raises(DomainError, match="squares fit a float"):
            func(delta, 10**200)


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
    for start, end in arcs:
        assert end - start == pytest.approx(theta, abs=1e-12)


def test_arcs_are_ordered_pairs_consistent_with_probing():
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
        assert all(type(start) is float and end > start for start, end in arcs)
        total, moment = oracle._arc_totals_by_probing(_corners(tri), r[i:i + 1])
        assert sum(end - start for start, end in arcs) == pytest.approx(total[0], abs=1e-9)
        # the arcs sit where the probes find them, not only at their length
        placed = sum(cmath.rect(1.0, end) - cmath.rect(1.0, start) for start, end in arcs)
        assert abs(placed - moment[0]) <= 1e-9


def _point_on_circle_in_triangle(tri, r, phi):
    return bool(oracle._circle_points_in_triangles(_corners(tri), np.array([r]), [phi])[0])


def test_arc_interiors_lie_inside_the_triangle():
    tri = geom.make_triangle(0.9, 0.05, 0.2)
    r = 0.25
    arcs = geom.intersection_arcs(tri, r)
    assert arcs
    for start, end in arcs:
        nudge = 1e-9 * (end - start)
        for phi in (start + nudge, end - nudge, 0.5 * (start + end)):
            assert _point_on_circle_in_triangle(tri, r, phi)
        # just past either endpoint the circle leaves the triangle
        assert not _point_on_circle_in_triangle(tri, r, start - 1e-6)
        assert not _point_on_circle_in_triangle(tri, r, end + 1e-6)


# ---------------------------------------------------------------------------
# The straight-line bodies of exterior_area and intersection_arcs
# ---------------------------------------------------------------------------

# exterior_area and intersection_arcs as they read with a loop over the
# spans, the min and max builtins and a filtering comprehension, kept as
# references: the library's branches must give the same floats.

def _reference_exterior_area(tri, r):
    _, span_a, span_b, core = geom._polar_chart(tri, r)
    delta, t = tri.delta, tri.t
    h = r * math.sin(core)
    inner = 0.5 * delta * (min(t, h) + min(1.0 - t, h))
    for span in (span_a, span_b):
        if span > core:
            inner += 0.5 * r * (r * (span - core))
    return max(0.0, 0.5 * delta - inner)


def _reference_intersection_arcs(tri, r):
    psi, span_a, span_b, core = geom._polar_chart(tri, r)
    if tri.delta <= 0.0:
        return []
    if core <= 0.0:
        arcs = [(psi - span_b, psi + span_a)]
    else:
        arcs = []
        if span_b > core:
            arcs.append((psi - span_b, psi - core))
        if span_a > core:
            arcs.append((psi + core, psi + span_a))
    return [(lo, hi) for lo, hi in arcs if hi > lo]


def _outcome(func, tri, r):
    """``repr`` of what ``func(tri, r)`` returns, or the type of what it raises."""
    try:
        return repr(func(tri, r))
    except DomainError as exc:
        return type(exc).__name__


def _radius_near(alpha, delta, t, r, holds):
    """The float nearest ``r`` at which the chart of (alpha, delta, t) satisfies
    ``holds(psi, span_a, span_b, core)``, within 64 steps below or above it."""
    tri = geom.make_triangle(alpha, delta, t)
    for towards in (0.0, math.inf):
        x = r
        for _ in range(64):
            if holds(*geom._polar_chart(tri, x)):
                return x
            x = math.nextafter(x, towards)
    raise AssertionError(f"no radius near {r!r}")


def _edge_rows():
    """(alpha, delta, t, r) at the branches' edges."""
    rows = [(0.3, 0.05, t, r) for t in (0.0, -0.0, 1.0) for r in (0.04, 0.05, 0.25, 2.0)]
    rows += [(0.3, 0.0, 0.5, 0.25), (0.3, 0.0, 0.0, 0.25), (0.3, -0.0, 0.5, 0.25)]  # delta = 0
    rows += [(0.3, 0.25, 0.5, 0.25), (1.1, 0.4, 0.2, 0.3)]  # delta >= r
    rows += [(0.3, 0.05, 0.4, math.inf), (0.3, 0.0, 0.4, math.inf), (0.3, 1e250, 0.5, 1e200)]
    rows.append((0.3, 1e300, 0.5, 1.0))  # no core, spans below psi's ulp: hi == lo
    # span_a equal to the core: S_r through vertex A to the last bit
    r_a = _radius_near(0.3, 0.125, 0.25, math.hypot(0.25, 0.125), lambda p, a, b, core: a == core)
    # a tangency: span_b past the core by less than psi's ulp, so hi == lo
    r_b = _radius_near(
        3.0, 0.125, 0.25, math.hypot(0.75, 0.125), lambda p, a, b, core: b > core and p - b == p - core
    )
    return rows + [(0.3, 0.125, 0.25, r_a), (3.0, 0.125, 0.25, r_b)]


def test_the_branches_give_the_reference_bodies_floats_bit_for_bit():
    # radii past the far vertex and heights past the radius, so that every
    # arc count and both sides of each branch occur
    rng = CounterRng(2030, stream=7)
    n = 12_000
    rows = list(zip(
        rng.uniform(0.0, math.pi, n).tolist(), rng.uniform(0.0, 0.6, n).tolist(),
        rng.uniforms(n).tolist(), rng.uniform(0.01, 1.2, n).tolist(),
    ))
    triangles = [(geom.make_triangle(alpha, delta, t), r) for alpha, delta, t, r in rows + _edge_rows()]
    # no triangle holds NaN or infinite fields: the constructor refuses them
    for fields in (
        (math.nan, 0.05, 0.5), (0.3, math.nan, 0.5), (0.3, 0.05, math.nan), (math.inf, 0.05, 0.5),
        (0.3, 0.05, 2.0), (0.3, 0.05, -1.0), (0.3, -1.0, 0.5),
    ):
        with pytest.raises(DomainError):
            geom.NeedleTriangle(*fields)
    # radii the chart refuses
    triangles += [(geom.make_triangle(0.3, 0.05, 0.5), r) for r in (0.0, -0.1, math.nan)]
    seen = set()
    for tri, r in triangles:
        assert _outcome(geom.exterior_area, tri, r) == _outcome(_reference_exterior_area, tri, r), (tri, r)
        arcs = _outcome(geom.intersection_arcs, tri, r)
        assert arcs == _outcome(_reference_intersection_arcs, tri, r), (tri, r)
        seen.add(arcs if arcs in ("[]", "DomainError") else arcs.count("("))
    assert seen == {"[]", 1, 2, "DomainError"}  # every arc count, and a refused record


def test_a_hand_built_triangle_whose_height_is_past_minus_r_is_a_domain_error():
    # delta / r below -1 would be outside acos's domain: no such triangle is built
    with pytest.raises(DomainError, match="delta must be >= 0"):
        geom.NeedleTriangle(0.3, -1.0, 0.5)
    with pytest.raises(DomainError, match="delta must be >= 0"):
        geom.make_triangle(0.3, 0.05, 0.5)._replace(delta=-1.0)
