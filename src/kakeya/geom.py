"""Exact planar geometry of needle triangles and the cutoff circle.

A *needle* is a closed unit segment at direction ``alpha``; together with
the origin O it spans a closed triangle.  The cutoff circle S_r of radius
``r`` about O splits each triangle into an inner part (inside the open
disk B_r) and an outer part.  A triangle is held as its chart
(``alpha``, ``delta``, ``t``) alone, with no vertex coordinates; its polar
form about O, the wedge of directions at O less the core where S_r pokes
past the needle, gives both the outer area and the arcs cut on S_r.
An arc is its (start, end) pair of absolute plane directions, with
end > start; a triangle's arcs come in chart order, the side of B first,
and zero-length tangencies are left out.  Vertex coordinates are built
only by the oracle, which probes the triangles in the plane to check
this module.  It also holds the closed forms for the isosceles
configuration, the outer-area rate f, and the angular-gap disjointness
criterion.  All functions are pure and operate in binary64.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, shown

__all__ = [
    "NeedleTriangle",
    "make_triangle",
    "exterior_area",
    "exterior_area_isosceles",
    "exterior_angle_ratio",
    "exterior_area_rate",
    "theta_isosceles",
    "direction_ratio",
    "far_endpoint_distance",
    "outside_distance_cap",
    "angular_gap",
    "exterior_disjoint_criterion",
    "intersection_arcs",
]


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NeedleTriangle:
    """Closed triangle spanned by the origin and a unit needle, as its chart.

    ``alpha`` is the needle direction u = (cos alpha, sin alpha) with
    alpha in [0, pi), ``delta`` the distance from O to the needle's
    supporting line, and ``t`` in [0, 1] the position of the foot
    f = delta * (-sin alpha, cos alpha) of the perpendicular from O along
    the needle, measured from endpoint A = f - t*u toward endpoint
    B = f + (1 - t)*u.  ``t = 1/2`` is the isosceles configuration;
    ``delta = 0`` degenerates to a segment through O with zero area.
    """

    alpha: float
    delta: float
    t: float


# ---------------------------------------------------------------------------
# Triangle construction
# ---------------------------------------------------------------------------

def make_triangle(alpha: float, delta: float, t: float) -> NeedleTriangle:
    """Build the needle triangle for direction alpha, height delta, foot t.

    Raises DomainError for inputs that are not finite reals, negative
    delta, or t outside [0, 1].  ``alpha`` is stored reduced mod pi.
    """
    try:
        finite = math.isfinite(alpha) and math.isfinite(delta) and math.isfinite(t)
    except (TypeError, OverflowError):  # not a real, or an int too wide for a float
        finite = False
    if not finite:
        got = ", ".join(map(shown, (alpha, delta, t)))
        raise DomainError(f"triangle parameters must be finite reals, got {got}")
    if delta < 0.0:
        raise DomainError(f"delta must be >= 0, got {delta}")
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t}")
    alpha = math.fmod(alpha, math.pi)
    if alpha < 0.0:
        alpha += math.pi
    if alpha >= math.pi:  # fmod can round up to pi for inputs just below a multiple
        alpha = 0.0
    return NeedleTriangle(alpha=alpha, delta=delta, t=t)


# ---------------------------------------------------------------------------
# The polar chart: outer area and arcs
# ---------------------------------------------------------------------------

def _polar_chart(tri: NeedleTriangle, r: float) -> tuple[float, float, float, float]:
    """The triangle about O, cut by S_r: (psi, span_a, span_b, core).

    ``psi`` is the direction of the needle normal.  The triangle spans the
    directions psi - span_b to psi + span_a, with span_a = atan2(t, delta)
    toward vertex A and span_b = atan2(1 - t, delta) toward B, and along
    direction psi + phi it reaches out to delta / cos(phi).  That reach is
    below r exactly on the core |phi| < acos(delta/r); the core is 0 when
    delta >= r.
    """
    delta, t = tri.delta, tri.t
    core = math.acos(delta / r) if delta < r else 0.0
    return tri.alpha + 0.5 * math.pi, math.atan2(t, delta), math.atan2(1.0 - t, delta), core


def exterior_area(tri: NeedleTriangle, r: float) -> float:
    """Area of the triangle part outside the open disk B_r, exact in the chart.

        |outer| = delta/2 - inner,
        inner   = delta/2 * (min(t, h) + min(1 - t, h))
                  + r^2/2 * ((span_a - core)+ + (span_b - core)+)

    with the angles of ``_polar_chart`` and h = r*sin(core), which is
    sqrt(r^2 - delta^2), or 0 when delta >= r: within the core the disk
    holds the triangle out to the needle, beyond it a circular sector.  A
    triangle within the closed disk has outer area exactly 0.
    """
    try:
        if not r > 0.0:
            raise DomainError(f"r must be > 0, got {r}")
    except TypeError:
        raise DomainError(f"r must be a real number, got {r!r}") from None
    delta, t = tri.delta, tri.t
    _, span_a, span_b, core = _polar_chart(tri, r)
    h = r * math.sin(core)
    inner = 0.5 * delta * (min(t, h) + min(1.0 - t, h))
    for span in (span_a, span_b):
        if span > core:  # tested first: r may be inf where the sector is empty
            inner += 0.5 * r * (r * (span - core))  # r^2 alone may overflow
    return max(0.0, 0.5 * delta - inner)


def exterior_area_isosceles(delta: float, r: float) -> float:
    """Outer area of the isosceles triangle at height delta, in closed form.

        |outer| = delta/2 - ( delta*sqrt(r^2 - delta^2)
                              + (asin(delta/r) - atan(2*delta)) * r^2 )

    Valid for 0 <= delta < r while S_r cuts the needle (r^2 - delta^2 <=
    1/4); the value is nonnegative throughout.
    """
    _require_circle_cuts_needle(delta, r)
    if delta == 0.0:
        return 0.0
    return 0.5 * delta - (
        delta * math.sqrt(r * r - delta * delta)
        + (math.asin(delta / r) - math.atan(2.0 * delta)) * r * r
    )


def exterior_angle_ratio(delta: float, r: float) -> float:
    """Isosceles outer area divided by asin(delta/r).

    At delta = 0 the quotient is defined by its analytic limit
    r*(2r - 1)^2 / 2, never by a 0/0 evaluation.  For r >= 0.15 and
    moderate heights (delta up to 3r/5) the quotient is minimized in
    that limit; for delta close to r it dips below it.  The domain is
    that of exterior_area_isosceles.
    """
    _require_circle_cuts_needle(delta, r)
    if delta == 0.0:
        return exterior_area_rate(r)
    return exterior_area_isosceles(delta, r) / math.asin(delta / r)


def exterior_area_rate(r: float) -> float:
    """Outer-area rate f(r) = r*(2r - 1)^2 / 2, valid on [0, 1/2], maximal at 1/6.

    The flat (delta -> 0) limit of exterior_angle_ratio, and the rate the
    bound reads at r0.
    """
    try:
        if not 0.0 <= r <= 0.5:
            raise DomainError(f"r must lie in [0, 1/2], got {r}")
    except TypeError:
        raise DomainError(f"r must be a real number, got {r!r}") from None
    return 0.5 * r * (2.0 * r - 1.0) ** 2


# ---------------------------------------------------------------------------
# Central angles and cross-section geometry
# ---------------------------------------------------------------------------

def theta_isosceles(delta0: float, r: float) -> float:
    """Central angle cut on S_r by the isosceles triangle at height delta0:

        theta = asin(delta0/r) - atan(2*delta0)

    Nonnegative and increasing in delta0 for r <= 1/2, the radii it accepts.
    """
    _require_height_below_radius(delta0, r)
    if r > 0.5:
        raise DomainError(f"r must be <= 1/2, got {r}")
    return math.asin(delta0 / r) - math.atan(2.0 * delta0)


def direction_ratio(delta0: float, r: float) -> float:
    """Width of the admissible direction interval over the central angle.

    The directions whose longer arc fits inside the arc cut by the
    isosceles triangle at height delta0 form an interval centered on the
    arc midpoint direction, of width

        2*asin(delta0/r) - theta_isosceles(delta0, r)
        = asin(delta0/r) + atan(2*delta0).

    The ratio is (asin(x) + atan(2*delta0)) / (asin(x) - atan(2*delta0))
    with x = delta0/r; bounded by (1 + 2r)/(1 - 2r) for all
    0 < delta0 < r, with the supremum attained in the limit delta0 -> 0.

    Raises DomainError where the central angle cannot be resolved: at
    subnormal delta0, whose asin and atan keep too few significant bits,
    and wherever the angle rounds to zero or below (r at or near 1/2).
    """
    if delta0 <= 0.0:
        raise DomainError(f"delta0 must be > 0, got {delta0}")
    _require_height_below_radius(delta0, r)
    if delta0 < sys.float_info.min:
        raise DomainError(f"delta0 = {delta0!r} is subnormal; the central angle is not resolved")
    theta = theta_isosceles(delta0, r)
    if not theta > 0.0:
        raise DomainError(
            f"central angle at delta0={delta0!r}, r={r!r} is {theta!r}, not positive"
        )
    width = math.asin(delta0 / r) + math.atan(2.0 * delta0)
    return width / theta


def far_endpoint_distance(delta0: float, r: float) -> float:
    """Distance |OB| to the far endpoint of the critical isosceles needle:

        |OB| = sqrt(4*delta0^2 + 1) / (1 - 2*sqrt(r^2 - delta0^2))

    Decreasing in delta0 and increasing in r; requires r < 1/2 so that
    the denominator stays positive.
    """
    _require_height_below_radius(delta0, r)
    denom = 1.0 - 2.0 * math.sqrt(r * r - delta0 * delta0)
    if not denom > 0.0:
        raise DomainError(f"nonpositive denominator in |OB| (r={r}, delta0={delta0})")
    return math.sqrt(4.0 * delta0 * delta0 + 1.0) / denom


def outside_distance_cap(r: float, a: float) -> float:
    """Largest height delta0 compatible with a needle clear of the disk:

        delta1(r) = a * (1 - sqrt(4r^2 + 4a^2 r^2 - a^2)) / (2*(a^2 + 1))

    The cap solves delta0 / (1/2 - sqrt(r^2 - delta0^2)) = a and lies in
    [0, a] whenever the radicand is nonnegative and r <= 1/2.
    """
    if not 0.0 < a < 0.5:
        raise DomainError(f"a must lie in (0, 1/2), got {a}")
    if not r > 0.0:
        raise DomainError(f"r must be > 0, got {r}")
    radicand = 4.0 * r * r * (1.0 + a * a) - a * a
    if not 0.0 <= radicand < math.inf:
        raise DomainError(f"negative radicand in delta1 (r={r}, a={a})")
    return a * (1.0 - math.sqrt(radicand)) / (2.0 * (a * a + 1.0))


# ---------------------------------------------------------------------------
# Disjointness
# ---------------------------------------------------------------------------

def angular_gap(alpha1: float, alpha2: float) -> float:
    """Distance between two directions on the circle of lines R/(pi Z)."""
    diff = abs(alpha1 - alpha2)
    if not diff < math.inf:
        raise DomainError(f"directions must be finite, got {alpha1}, {alpha2}")
    g = math.fmod(diff, math.pi)
    return min(g, math.pi - g)


def exterior_disjoint_criterion(
    alpha1: float, delta1: float, alpha2: float, delta2: float, r: float
) -> bool:
    """Angular-gap test guaranteeing disjoint outer (and inner) parts.

    True when the mod-pi gap between the directions is at least
    asin(delta1/r) + asin(delta2/r).  The outer parts of every pair of
    triangles with these directions and heights then have disjoint
    interiors, regardless of foot positions; equality is the touching
    configuration and is allowed.  When additionally both needles avoid
    B_r, the same gap makes the inner parts interior-disjoint.
    """
    if not 0.0 < r <= 0.5:
        raise DomainError(f"r must lie in (0, 1/2], got {r}")
    for d in (delta1, delta2):
        if not 0.0 <= d < r:
            raise DomainError(f"heights must satisfy 0 <= delta < r, got {d}")
    need = math.asin(delta1 / r) + math.asin(delta2 / r)
    return angular_gap(alpha1, alpha2) >= need


# ---------------------------------------------------------------------------
# Arcs
# ---------------------------------------------------------------------------

def intersection_arcs(tri: NeedleTriangle, r: float) -> list[tuple[float, float]]:
    """Connected components of (triangle intersect S_r) as (start, end) pairs.

    A triangle meets its cutoff circle in zero, one, or two arcs: the
    wedge of directions spanned at O, minus the angular core closer than
    arccos(delta/r) to the needle normal where the circle pokes past the
    needle.  Angles are absolute plane directions with end > start, in
    chart order: the arc on the side of B first.  Zero-length tangencies
    are excluded.
    """
    try:
        if not r > 0.0:
            raise DomainError(f"r must be > 0, got {r}")
    except TypeError:
        raise DomainError(f"r must be a real number, got {r!r}") from None
    if tri.delta <= 0.0:
        return []  # degenerate segment: the intersection has measure zero
    psi, span_a, span_b, core = _polar_chart(tri, r)
    if core <= 0.0:
        arcs = [(psi - span_b, psi + span_a)]
    else:
        arcs = []
        if span_b > core:
            arcs.append((psi - span_b, psi - core))
        if span_a > core:
            arcs.append((psi + core, psi + span_a))
    return [(lo, hi) for lo, hi in arcs if hi > lo]


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _require_height_below_radius(delta: float, r: float) -> None:
    if r <= 0.0:
        raise DomainError(f"r must be > 0, got {r}")
    if not 0.0 <= delta < r:
        raise DomainError(f"need 0 <= delta < r, got delta={delta}, r={r}")


def _require_circle_cuts_needle(delta: float, r: float) -> None:
    """The isosceles closed forms need S_r to meet the needle itself."""
    _require_height_below_radius(delta, r)
    if not r * r - delta * delta <= 0.25:
        raise DomainError(f"S_r misses the needle: r^2 - delta^2 > 1/4 (delta={delta}, r={r})")
