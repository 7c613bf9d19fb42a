"""Exact planar geometry of needle triangles and the cutoff circle.

A *needle* is a closed unit segment at direction ``alpha``; together with
the origin O it spans a closed triangle.  The cutoff circle S_r of radius
``r`` about O splits each triangle into an inner part (inside the open
disk B_r) and an outer part.  This module provides the triangle chart
(``alpha``, ``delta``, ``t``), exact circular clipping of the outer area,
the closed forms for the isosceles configuration, the central angles of
the arcs a triangle cuts on S_r, and the angular-gap disjointness
criterion.  All functions are pure and operate in binary64.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "Point",
    "NeedleTriangle",
    "Arc",
    "make_triangle",
    "triangle_vertices",
    "exterior_area",
    "exterior_area_isosceles",
    "exterior_angle_ratio",
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
class Point:
    """A point of the plane, in units of the needle length."""

    x: float
    y: float


@dataclass(frozen=True)
class NeedleTriangle:
    """Closed triangle spanned by the origin and a unit needle.

    ``alpha`` is the needle direction in [0, pi), ``delta`` the distance
    from O to the needle's supporting line, and ``t`` in [0, 1] the
    position of the foot of the perpendicular from O along the needle,
    measured from endpoint A toward endpoint B.  ``t = 1/2`` is the
    isosceles configuration; ``delta = 0`` degenerates to a segment
    through O with zero area.
    """

    alpha: float
    delta: float
    t: float
    vertices: tuple[Point, Point, Point]

    @property
    def area(self) -> float:
        """Triangle area, delta / 2 (unit base, height delta)."""
        return 0.5 * self.delta


@dataclass(frozen=True)
class Arc:
    """A connected component of (triangle intersect S_r) on the circle.

    Angles are absolute plane directions with ``end >= start``; ``theta``
    is the central angle subtended at O.
    """

    r: float
    start: float
    end: float
    theta: float


# ---------------------------------------------------------------------------
# Triangle construction
# ---------------------------------------------------------------------------

def triangle_vertices(alpha: float, delta: float, t: float) -> tuple[Point, Point]:
    """Endpoints (A, B) of the needle for the canonical triangle chart.

    The supporting line lies at signed distance ``delta`` along the left
    normal of the direction vector, so triangles at directions alpha and
    alpha + pi are reflections of each other through O.  ``t`` may lie
    outside [0, 1] here; the public constructor restricts it.  Non-finite
    inputs raise DomainError.
    """
    if not (math.isfinite(alpha) and math.isfinite(delta) and math.isfinite(t)):
        raise DomainError("triangle parameters must be finite")
    ca, sa = math.cos(alpha), math.sin(alpha)
    # foot of the perpendicular is at delta * n with n = (-sin, cos)
    fx, fy = -delta * sa, delta * ca
    return (
        Point(fx - t * ca, fy - t * sa),
        Point(fx + (1.0 - t) * ca, fy + (1.0 - t) * sa),
    )


def make_triangle(alpha: float, delta: float, t: float) -> NeedleTriangle:
    """Build the needle triangle for direction alpha, height delta, foot t.

    Raises DomainError for non-finite inputs, negative delta, or t outside
    [0, 1].  ``alpha`` is stored reduced mod pi.
    """
    if not (math.isfinite(alpha) and math.isfinite(delta) and math.isfinite(t)):
        raise DomainError("triangle parameters must be finite")
    if delta < 0.0:
        raise DomainError(f"delta must be >= 0, got {delta}")
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t}")
    alpha = math.fmod(alpha, math.pi)
    if alpha < 0.0:
        alpha += math.pi
    if alpha >= math.pi:  # fmod can round up to pi for inputs just below a multiple
        alpha = 0.0
    a, b = triangle_vertices(alpha, delta, t)
    return NeedleTriangle(alpha=alpha, delta=delta, t=t, vertices=(Point(0.0, 0.0), a, b))


# ---------------------------------------------------------------------------
# Circular clipping of the outer area
# ---------------------------------------------------------------------------

def _sector_area(ux: float, uy: float, vx: float, vy: float, r: float) -> float:
    """Signed area of the circular sector swept from direction u to v."""
    ang = math.atan2(ux * vy - uy * vx, ux * vx + uy * vy)
    return 0.5 * r * r * ang


def _disk_triangle_area(ax: float, ay: float, bx: float, by: float, r: float) -> float:
    """Signed area of (triangle O-A-B) intersected with the closed disk.

    Walks the needle edge A->B, splitting it where it crosses the circle:
    the sub-segment inside the disk contributes a plain triangle with
    apex O, the parts outside contribute circular sectors.  The two edges
    through O never contribute (their spanned triangles are degenerate).
    """
    cross = ax * by - ay * bx
    if cross == 0.0:
        return 0.0
    ra = math.hypot(ax, ay)
    rb = math.hypot(bx, by)
    if ra <= r and rb <= r:
        return 0.5 * cross
    dx, dy = bx - ax, by - ay
    qa = dx * dx + dy * dy
    qb = 2.0 * (ax * dx + ay * dy)
    qc = ax * ax + ay * ay - r * r
    disc = qb * qb - 4.0 * qa * qc
    if disc <= 0.0 or qa == 0.0:
        # edge stays outside the disk: the whole wedge is a sector
        return _sector_area(ax, ay, bx, by, r)
    sq = math.sqrt(disc)
    u_lo = max(0.0, (-qb - sq) / (2.0 * qa))
    u_hi = min(1.0, (-qb + sq) / (2.0 * qa))
    if u_lo >= u_hi:
        return _sector_area(ax, ay, bx, by, r)
    x1, y1 = ax + u_lo * dx, ay + u_lo * dy
    x2, y2 = ax + u_hi * dx, ay + u_hi * dy
    area = 0.5 * (x1 * y2 - y1 * x2)
    if u_lo > 0.0:
        area += _sector_area(ax, ay, x1, y1, r)
    if u_hi < 1.0:
        area += _sector_area(x2, y2, bx, by, r)
    return area


def exterior_area(tri: NeedleTriangle, r: float) -> float:
    """Area of the triangle part outside the open disk B_r (exact clipping)."""
    if not r > 0.0:
        raise DomainError(f"r must be > 0, got {r}")
    _, a, b = tri.vertices
    inner = abs(_disk_triangle_area(a.x, a.y, b.x, b.y, r))
    return max(0.0, tri.area - inner)


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
        return _flat_exterior_rate(r)
    return exterior_area_isosceles(delta, r) / math.asin(delta / r)


def _flat_exterior_rate(r: float) -> float:
    """The outer-area rate f(r) = r*(2r - 1)^2 / 2, with no domain check.

    The one copy of the closed form: exterior_angle_ratio's delta -> 0
    limit and ``bounds.exterior_area_rate`` both return it, each after
    checking its own domain.
    """
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

def intersection_arcs(tri: NeedleTriangle, r: float) -> list[Arc]:
    """Connected components of (triangle intersect S_r), longest first.

    A triangle meets its cutoff circle in zero, one, or two arcs: the
    wedge of directions spanned at O, minus the angular core closer than
    arccos(delta/r) to the needle normal where the circle pokes past the
    needle.  Zero-length tangencies are excluded; ties in the ordering
    break by start angle.
    """
    if not r > 0.0:
        raise DomainError(f"r must be > 0, got {r}")
    delta, t = tri.delta, tri.t
    if delta <= 0.0:
        return []  # degenerate segment: the intersection has measure zero
    psi = tri.alpha + 0.5 * math.pi  # direction of the needle normal
    span_a = math.atan2(t, delta)  # wedge half-opening toward vertex A
    span_b = math.atan2(1.0 - t, delta)  # and toward vertex B
    if delta >= r:
        w = 0.0
    else:
        w = math.acos(delta / r)
    if w <= 0.0:
        arcs = [(psi - span_b, psi + span_a)]
    else:
        arcs = []
        if span_b > w:
            arcs.append((psi - span_b, psi - w))
        if span_a > w:
            arcs.append((psi + w, psi + span_a))
    out = [
        Arc(r=r, start=lo, end=hi, theta=hi - lo)
        for lo, hi in arcs
        if hi - lo > 0.0
    ]
    out.sort(key=lambda arc: (-arc.theta, arc.start))
    return out


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
