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

Arguments are checked by the idiom of :mod:`kakeya.errors`: each guard
lives in one place, inside a ``try`` that turns a wrong type into
DomainError.  ``NeedleTriangle`` checks its own fields when it is built,
so no unchecked triangle exists; ``_polar_chart`` checks the radius of
``exterior_area`` and ``intersection_arcs``, and that their triangle is
a record at all; ``_require_height_below_radius`` checks a height and
its radius for ``direction_ratio`` and the disjointness criterion, which
also cap r at 1/2 themselves, so the private ``_central_angle`` takes its
arguments unchecked; ``_angular_gap`` checks the directions the criterion
passes it; and ``_require_circle_cuts_needle`` adds, for the isosceles
closed forms and |OB|, that S_r meets the needle.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .errors import DomainError, shown, wrong_type

__all__ = [
    "NeedleTriangle",
    "make_triangle",
    "exterior_area",
    "exterior_area_isosceles",
    "exterior_angle_ratio",
    "exterior_area_rate",
    "direction_ratio",
    "far_endpoint_distance",
    "outside_distance_cap",
    "exterior_disjoint_criterion",
    "intersection_arcs",
]


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

class NeedleTriangle(namedtuple("NeedleTriangle", "alpha delta t")):
    """Closed triangle spanned by the origin and a unit needle, as its chart.

    ``alpha`` is the needle direction u = (cos alpha, sin alpha) with
    alpha in [0, pi), ``delta`` the distance from O to the needle's
    supporting line, and ``t`` in [0, 1] the position of the foot
    f = delta * (-sin alpha, cos alpha) of the perpendicular from O along
    the needle, measured from endpoint A = f - t*u toward endpoint
    B = f + (1 - t)*u.  ``t = 1/2`` is the isosceles configuration;
    ``delta = 0`` degenerates to a segment through O with zero area.

    Raises DomainError for fields that are not finite reals, alpha
    outside [0, pi), negative delta, or t outside [0, 1].
    """

    __slots__ = ()

    def __new__(cls, alpha: float, delta: float, t: float):
        try:
            if not (math.isfinite(alpha) and math.isfinite(delta) and math.isfinite(t)):
                got = ", ".join(map(shown, (alpha, delta, t)))
                raise DomainError(f"triangle parameters must be finite, got {got}")
            if not 0.0 <= alpha < math.pi:
                raise DomainError(f"alpha must lie in [0, pi), got {shown(alpha)}")
            if delta < 0.0:
                raise DomainError(f"delta must be >= 0, got {shown(delta)}")
            if not 0.0 <= t <= 1.0:
                raise DomainError(f"t must lie in [0, 1], got {shown(t)}")
        except (TypeError, OverflowError):
            raise wrong_type("triangle parameters must be reals", alpha, delta, t) from None
        return tuple.__new__(cls, (float(alpha), delta, t))  # arcs are floats for a numpy alpha

    @classmethod
    def _make(cls, fields):
        """The triangle of an iterable of fields, checked: ``_replace`` builds through it."""
        return cls(*fields)


# The needle triangle for direction alpha, height delta, foot t: the constructor itself.
make_triangle = NeedleTriangle


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
    delta >= r.  DomainError unless r > 0 and ``tri`` is a triangle.
    """
    try:
        if not r > 0.0:
            raise DomainError(f"r must be > 0, got {shown(r)}")
        delta, t = tri.delta, tri.t
        core = math.acos(delta / r) if delta < r else 0.0  # delta / r refuses a too-wide int
        return tri.alpha + 0.5 * math.pi, math.atan2(t, delta), math.atan2(1.0 - t, delta), core
    except (TypeError, OverflowError, AttributeError):
        raise wrong_type("tri must be a NeedleTriangle and r a real", tri, r) from None


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
    _, span_a, span_b, core = _polar_chart(tri, r)
    delta, t = tri.delta, tri.t
    h, u = r * math.sin(core), 1.0 - t
    # min(t, h) and max(0.0, x) spelt out, with the builtins' ties: the first wins
    inner = 0.5 * delta * ((h if h < t else t) + (h if h < u else u))
    if span_a > core:  # tested first: r may be inf where the sector is empty
        inner += 0.5 * r * (r * (span_a - core))  # r^2 alone may overflow
    if span_b > core:
        inner += 0.5 * r * (r * (span_b - core))
    outer = 0.5 * delta - inner
    return outer if outer > 0.0 else 0.0


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
        + _central_angle(delta, r) * r * r
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
            raise DomainError(f"r must lie in [0, 1/2], got {shown(r)}")
    except (TypeError, OverflowError):
        raise wrong_type("r must be a real", r) from None
    return 0.5 * r * (2.0 * r - 1.0) ** 2


# ---------------------------------------------------------------------------
# Central angles and cross-section geometry
# ---------------------------------------------------------------------------

def _central_angle(delta: float, r: float) -> float:
    """Central angle cut on S_r by the isosceles triangle at height delta:

        theta = asin(delta/r) - atan(2*delta)

    Nonnegative and increasing in delta for 0 <= delta < r <= 1/2.
    Unchecked: each caller checks its own domain first.
    """
    return math.asin(delta / r) - math.atan(2.0 * delta)


def direction_ratio(delta0: float, r: float) -> float:
    """Width of the admissible direction interval over the central angle.

    The directions whose longer arc fits inside the arc cut by the
    isosceles triangle at height delta0 form an interval centered on the
    arc midpoint direction, of width

        2*asin(delta0/r) - theta
        = asin(delta0/r) + atan(2*delta0),

    where theta = asin(delta0/r) - atan(2*delta0) is the central angle
    that triangle cuts on S_r.

    The ratio is (asin(x) + atan(2*delta0)) / (asin(x) - atan(2*delta0))
    with x = delta0/r; bounded by (1 + 2r)/(1 - 2r) for all
    0 < delta0 < r, with the supremum attained in the limit delta0 -> 0.

    Raises DomainError where the central angle cannot be resolved: at
    subnormal delta0, whose asin and atan keep too few significant bits,
    and wherever the angle rounds to zero or below (r at or near 1/2).
    """
    _require_height_below_radius(delta0, r)
    if r > 0.5:
        raise DomainError(f"r must be <= 1/2, got {shown(r)}")
    if delta0 < sys.float_info.min:
        raise DomainError(f"delta0 must be > 0 and not subnormal, got {shown(delta0)}")
    theta = _central_angle(delta0, r)
    if not theta > 0.0:
        raise DomainError(f"central angle {shown(theta)} is not positive at r={shown(r)}")
    width = math.asin(delta0 / r) + math.atan(2.0 * delta0)
    return width / theta


def far_endpoint_distance(delta0: float, r: float) -> float:
    """Distance |OB| to the far endpoint of the critical isosceles needle:

        |OB| = sqrt(4*delta0^2 + 1) / (1 - 2*sqrt(r^2 - delta0^2))

    Decreasing in delta0 and increasing in r; requires S_r to cut the
    needle inside its ends, so that the denominator stays positive.
    """
    _require_circle_cuts_needle(delta0, r)
    denom = 1.0 - 2.0 * math.sqrt(r * r - delta0 * delta0)
    if not denom > 0.0:
        raise DomainError(f"nonpositive denominator in |OB| (r={shown(r)}, delta0={shown(delta0)})")
    return math.sqrt(4.0 * delta0 * delta0 + 1.0) / denom


def outside_distance_cap(r: float, a: float) -> float:
    """Largest height delta0 compatible with a needle clear of the disk:

        delta1(r) = a * (1 - sqrt(4r^2 + 4a^2 r^2 - a^2)) / (2*(a^2 + 1))

    The cap solves delta0 / (1/2 - sqrt(r^2 - delta0^2)) = a and lies in
    [0, a] whenever the radicand is nonnegative and r <= 1/2.
    """
    try:
        if not 0.0 < a < 0.5:
            raise DomainError(f"a must lie in (0, 1/2), got {shown(a)}")
        if not r + 0.0 > 0.0:  # + 0.0 refuses an int too wide for a float
            raise DomainError(f"r must be > 0, got {shown(r)}")
    except (TypeError, OverflowError):
        raise wrong_type("r and a must be reals", r, a) from None
    radicand = 4.0 * r * r * (1.0 + a * a) - a * a
    if not 0.0 <= radicand < math.inf:
        raise DomainError(f"negative radicand in delta1 (r={shown(r)}, a={shown(a)})")
    return a * (1.0 - math.sqrt(radicand)) / (2.0 * (a * a + 1.0))


# ---------------------------------------------------------------------------
# Disjointness
# ---------------------------------------------------------------------------

def _angular_gap(alpha1: float, alpha2: float) -> float:
    """Distance between two directions on the circle of lines R/(pi Z)."""
    try:
        # fmod refuses a complex, an int too wide for a float, and inf
        g = abs(math.fmod(alpha1 - alpha2, math.pi))
    except (TypeError, OverflowError, ValueError):
        raise wrong_type("directions must be finite reals", alpha1, alpha2) from None
    if not g < math.inf:
        raise DomainError(f"directions must not be NaN, got {shown(alpha1)}, {shown(alpha2)}")
    h = math.pi - g
    return h if h < g else g  # min(g, h), with its tie rule: the first wins


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
    _require_height_below_radius(delta1, r)
    _require_height_below_radius(delta2, r)
    if r > 0.5:
        raise DomainError(f"r must be <= 1/2, got {shown(r)}")
    need = math.asin(delta1 / r) + math.asin(delta2 / r)
    return _angular_gap(alpha1, alpha2) >= need


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
    psi, span_a, span_b, core = _polar_chart(tri, r)
    if tri.delta <= 0.0:
        return []  # degenerate segment: the intersection has measure zero
    b_lo, a_hi = psi - span_b, psi + span_a
    if core <= 0.0:
        return [(b_lo, a_hi)] if a_hi > b_lo else []
    # rounding is monotone, so b_hi > b_lo implies span_b > core, and so for A
    b_hi, a_lo = psi - core, psi + core
    if b_hi > b_lo:
        return [(b_lo, b_hi), (a_lo, a_hi)] if a_hi > a_lo else [(b_lo, b_hi)]
    return [(a_lo, a_hi)] if a_hi > a_lo else []


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _require_height_below_radius(delta: float, r: float) -> None:
    """DomainError unless 0 <= delta < r, both reals."""
    try:
        if r <= 0.0:
            raise DomainError(f"r must be > 0, got {shown(r)}")
        if not 0.0 <= delta < r:
            raise DomainError(f"need 0 <= delta < r, got delta={shown(delta)}, r={shown(r)}")
    except (TypeError, OverflowError):
        raise wrong_type("delta and r must be reals", delta, r) from None


def _require_circle_cuts_needle(delta: float, r: float) -> None:
    """The isosceles closed forms need S_r to meet the needle itself."""
    _require_height_below_radius(delta, r)
    try:
        if not r * r - delta * delta <= 0.25:
            raise DomainError(f"S_r misses the needle at delta={shown(delta)}, r={shown(r)}")
    except OverflowError:  # the square of a wide int meets a float
        raise wrong_type("delta and r must be reals whose squares fit a float", delta, r) from None
