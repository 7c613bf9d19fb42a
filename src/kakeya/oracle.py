"""Independent brute-force verification of the supporting geometry.

Each check re-derives a claim of the bound machinery by sampling, grid
scanning or an exact overlap test with its own membership and
root-finding code, never through the closed forms it is checking.  The
two disjointness checks draw seeded needle pairs that meet the
angular-gap criterion and decide exactly whether each pair's triangles
overlap, from the direction ranges and reaches of the two triangles
about their common vertex O (independent of ``geom``); their violation
counts overlapping pairs.  Randomness comes from the counter-based
generator in :mod:`kakeya.rng`; every check derives its own substream
from (seed, check), so checks are order-independent and reproducible.

:func:`run_checks` runs a selection of checks as one task each, on bare
``os.fork`` workers (:mod:`kakeya.workers`), one per available CPU, or
in-process on one CPU.  The workers claim the tasks longest first, in
the order of ``_CHECKS``, so that they end together rather than one
running the longest check alone.  A task whose worker dies without its
result comes out as WorkerLost.  Every task reads only its own
``CounterRng`` and results are folded in the caller's order, so the
records depend on neither the worker count nor the claim order.
SectorMeasure counts all of its 100 interval unions on one sorted cloud
of disk angles; Sidak's inequality keeps the family-wise tolerance
valid for their dependent z values.
"""

from __future__ import annotations

import math
import operator
import os
import sys
from collections import namedtuple
from itertools import chain

import numpy as np

from . import bounds, geom
from .catalogue import DEFAULT_SEED, MAX_SAMPLES, CheckId
from .errors import BracketError, DomainError, as_integer, shown, wrong_type
from .rng import CounterRng

__all__ = [
    "DEFAULT_SEED",
    "MAX_SAMPLES",
    "CheckId",
    "CheckReport",
    "run_check",
    "run_checks",
    "find_h_threshold",
]

# Default cap on sampled needle heights: the headline bound's height cap.
_HEIGHT_CAP = bounds.THEOREM_DEFAULTS.a
_TWO_PI = 2.0 * math.pi


class CheckReport(namedtuple("CheckReport", "id samples grid_spec max_violation tolerance seed")):
    """Outcome of one verification run; ``passed`` iff violation <= tol."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        """``max_violation <= tolerance``; a NaN violation fails."""
        return bool(self.max_violation <= self.tolerance)

    def as_dict(self) -> dict:
        return {
            "id": self.id.value,
            "samples": self.samples,
            "grid_spec": self.grid_spec,
            # strict JSON has no Infinity or NaN: such a violation is written
            # as the largest float, still failing (min keeps its first
            # argument unless the second is smaller, which NaN never is)
            "max_violation": min(sys.float_info.max, self.max_violation),
            "tolerance": self.tolerance,
            "pass": self.passed,
            "seed": self.seed,
        }


# ---------------------------------------------------------------------------
# Needle triangles in polar form about O (overlap math independent of
# geom's clipping and arc formulas)
# ---------------------------------------------------------------------------

def _wedges(alpha, delta, foot):
    """Triangles (O, A, B) of needles (alpha, delta, foot) in polar form about O.

    Returns (psi, delta, lo, hi): the needle line has normal direction psi
    and lies at distance delta from O, and the triangle spans the
    directions [lo, hi], less than pi apart for delta > 0.  Along a
    direction theta in that range it reaches out to delta / cos(theta - psi).
    """
    psi = alpha + 0.5 * math.pi
    return psi, delta, psi - np.arctan2(1.0 - foot, delta), psi + np.arctan2(foot, delta)


def _overlapping_pairs(r, w1, w2, exterior):
    """Exact overlap flags for triangle pairs with the common vertex O.

    ``w1``/``w2`` are (psi, delta, lo, hi) arrays as ``_wedges`` gives
    them.  The intersection of two triangles is star-shaped about O: along
    each direction of the common open range it reaches out to the smaller
    of the two reaches.  Inner parts overlap when that range is nonempty
    and both heights are positive; outer parts (``exterior``) when, in
    addition, the smaller reach somewhere exceeds r.  Each reach is convex
    in the direction, so the smaller one is largest at an end of the range
    or where the two needle lines cross.
    """
    psi1, d1, lo1, hi1 = w1
    psi2, d2, lo2, hi2 = w2
    # the second triangle turned by whole turns to within pi of the first:
    # two arcs shorter than pi then share at most one interval
    turn = _TWO_PI * np.round((psi2 - psi1) / _TWO_PI)
    lo = np.maximum(lo1, lo2 - turn)
    hi = np.minimum(hi1, hi2 - turn)
    hit = (lo < hi) & (d1 > 0.0) & (d2 > 0.0)
    if not exterior:
        return hit
    psi2 = psi2 - turn
    # r cos(theta - psi_i) at both ends of the range, where both cosines
    # are positive: reach_i > r there reads delta_i > r cos
    c1lo, c1hi, c2lo, c2hi = (r * np.cos(theta - psi) for psi in (psi1, psi2) for theta in (lo, hi))
    # the needle lines cross inside the range when the sign of
    # reach2 - reach1 flips across it, at the point X with
    # |X|^2 sin^2(psi2 - psi1) = |d1 e^(i psi2) - d2 e^(i psi1)|^2
    flips = (d1 * c2lo - d2 * c1lo) * (d1 * c2hi - d2 * c1hi) <= 0.0
    dpsi = psi2 - psi1
    crossing = flips & (d1 * d1 + d2 * d2 - 2.0 * d1 * d2 * np.cos(dpsi) > (r * np.sin(dpsi)) ** 2)
    return hit & (((d1 > c1lo) & (d2 > c2lo)) | ((d1 > c1hi) & (d2 > c2hi)) | crossing)


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------

def _largest(gaps):
    """The largest of ``gaps``, or NaN if any is NaN (``max`` drops a NaN that is not first)."""
    return float(np.max(np.fromiter(gaps, float)))


def _check_isosceles_minimality(samples, rng):
    r = rng.uniform(0.15, 0.5, samples)
    delta = rng.uniforms(samples) * np.minimum(_HEIGHT_CAP, 0.9 * r)
    alpha = rng.uniform(0.0, math.pi, samples)
    t = rng.uniforms(samples)
    r, delta = r.tolist(), delta.tolist()
    triangles = map(geom.NeedleTriangle, alpha.tolist(), delta, t.tolist())
    worst = _largest(map(
        operator.sub, map(geom.exterior_area_isosceles, delta, r), map(geom.exterior_area, triangles, r)
    ))
    spec = f"{samples} random (alpha, delta, t, r); r in [0.15, 0.5], delta < min({_HEIGHT_CAP:.4f}, 0.9r)"
    return worst, spec


# Height range for the outer/angle quotient's minimum claim.  The
# quotient provably dips below its flat limit for heights close to the
# radius (the outer ears shrink faster than the angle grows), so the
# claim concerns moderate heights; the 3r/5 cap reproduces the published
# transition radius 0.146 (smaller caps move it toward 0.136).
_H_CAP_RATIO = 0.6
_H_THRESHOLD_GRID = 512  # heights per radius in find_h_threshold


def _h_fractions(n):
    return np.concatenate(
        [np.geomspace(1e-8, 0.01, n // 4), np.linspace(0.01, 1.0, n - n // 4)]
    ).tolist()


def _dip_below_flat_limit(r, fractions):
    """How far the quotient at heights ``fractions * 3r/5`` dips below its delta -> 0 limit."""
    limit = geom.exterior_angle_ratio(0.0, r)
    return _largest(limit - geom.exterior_angle_ratio(frac * _H_CAP_RATIO * r, r) for frac in fractions)


def _grid_shape(samples):
    """(rows, columns) of a scan grid of about ``samples`` points, each at least 10."""
    n_r = max(10, int(round(math.sqrt(samples))))
    return n_r, max(10, samples // n_r)


def _check_h_min_at_zero(samples, _rng):
    n_r, n_d = _grid_shape(samples)
    fractions = _h_fractions(n_d)
    worst = _largest(_dip_below_flat_limit(r, fractions) for r in np.linspace(0.15, 0.5, n_r).tolist())
    spec = (
        f"{n_r} r x {n_d} delta grid; r in [0.15, 0.5], "
        f"delta in (0, {_H_CAP_RATIO}*r]"
    )
    return worst, spec


def _kept_pairs(samples, draw):
    """The first ``samples`` pairs kept by ``draw(n)``, which gives (keep, arrays) for n pairs."""
    out = []
    have = 0
    while have < samples:
        keep, arrays = draw(max(1024, 2 * (samples - have)))
        out.append(tuple(x[keep] for x in arrays))
        have += int(np.count_nonzero(keep))
    return tuple(np.concatenate(parts)[:samples] for parts in zip(*out))


def _needles(rng, n, r_lo):
    """n draws of (r, delta1, delta2, alpha1): a radius, two heights below it, a direction."""
    r = rng.uniform(r_lo, 0.5, n)
    cap = np.minimum(_HEIGHT_CAP, 0.9 * r)
    return r, rng.uniforms(n) * cap, rng.uniforms(n) * cap, rng.uniform(0.0, math.pi, n)


def _disjoint_pairs(samples, rng, r_lo):
    """Accepted (r, delta_i, alpha_i) batches meeting the angular-gap test."""

    def draw(n):
        r, d1, d2, a1 = _needles(rng, n, r_lo)
        a2 = rng.uniform(0.0, math.pi, n)
        g = np.abs(a1 - a2)
        keep = np.minimum(g, math.pi - g) >= np.arcsin(d1 / r) + np.arcsin(d2 / r)
        return keep, (r, d1, d2, a1, a2)

    return _kept_pairs(samples, draw)


def _near_miss_pairs(samples, rng, r_lo):
    """(r, delta_i, alpha_i) pairs just short of the angular-gap test.

    With need = asin(delta1/r) + asin(delta2/r) at most pi/2, the
    directions lie u * need apart for u uniform on [0.9, 0.99]: a gap the
    test must reject.
    """

    def draw(n):
        r, d1, d2, a1 = _needles(rng, n, r_lo)
        need = np.arcsin(d1 / r) + np.arcsin(d2 / r)
        a2 = a1 + rng.uniform(0.9, 0.99, n) * need
        return need <= 0.5 * math.pi, (r, d1, d2, a1, a2)

    return _kept_pairs(samples, draw)


def _criterion_accepts(r, d1, d2, a1, a2):
    """How many of the pairs ``geom.exterior_disjoint_criterion`` accepts."""
    return sum(map(
        geom.exterior_disjoint_criterion, a1.tolist(), d1.tolist(), a2.tolist(), d2.tolist(), r.tolist()
    ))


def _check_ext_disjoint(samples, rng):
    pairs = _disjoint_pairs(samples, rng, r_lo=0.05)
    r, d1, d2, a1, a2 = pairs
    t1 = rng.uniforms(samples)
    t2 = rng.uniforms(samples)
    w1, w2 = _wedges(a1, d1, t1), _wedges(a2, d2, t2)
    overlaps = int(np.count_nonzero(_overlapping_pairs(r, w1, w2, exterior=True)))
    # the library predicate must accept every pair that meets the gap and
    # reject every pair just short of it
    mismatches = samples - _criterion_accepts(*pairs)
    mismatches += _criterion_accepts(*_near_miss_pairs(samples, rng, r_lo=0.05))
    spec = (
        f"{samples} gap-criterion pairs, outer parts intersected exactly "
        f"(polar ranges about O), and {samples} near-miss pairs (gap u*need, u in [0.9, 0.99]); "
        "violation counts overlapping pairs and pairs where geom's criterion disagrees"
    )
    return float(overlaps + mismatches), spec


def _check_int_disjoint(samples, rng):
    r, d1, d2, a1, a2 = _disjoint_pairs(samples, rng, r_lo=0.1)
    # needles clear of the disk: foot parameter pushed outside [0, 1] far
    # enough that the nearest needle point sits beyond radius r
    margin1 = np.sqrt(r * r - d1 * d1) * (1.0 + rng.uniforms(samples)) + 1e-9
    margin2 = np.sqrt(r * r - d2 * d2) * (1.0 + rng.uniforms(samples)) + 1e-9
    side1 = rng.uniforms(samples) < 0.5
    side2 = rng.uniforms(samples) < 0.5
    t1 = np.where(side1, -margin1, 1.0 + margin1)
    t2 = np.where(side2, -margin2, 1.0 + margin2)
    w1, w2 = _wedges(a1, d1, t1), _wedges(a2, d2, t2)
    overlaps = int(np.count_nonzero(_overlapping_pairs(r, w1, w2, exterior=False)))
    spec = (
        f"{samples} gap-criterion pairs with needles clear of the disk, inner parts "
        "intersected exactly (polar ranges about O); violation counts overlapping pairs"
    )
    return float(overlaps), spec


def _check_jgamma_ratio(samples, _rng):
    n_r, n_d = _grid_shape(samples)
    fractions = np.linspace(1e-6, 0.999999, n_d).tolist()
    gaps = []
    for r in np.linspace(0.05, 0.49, n_r).tolist():
        cap = (1.0 + 2.0 * r) / (1.0 - 2.0 * r)
        gaps.extend(geom.direction_ratio(frac * r, r) - cap for frac in fractions)
    spec = f"{n_r} r x {n_d} delta0 grid; r in [0.05, 0.49], delta0/r in (0, 1)"
    return _largest(gaps), spec


def _check_c_min(samples, _rng):
    a = _HEIGHT_CAP
    n_r, n_x = _grid_shape(samples)
    spec = f"{n_r} r x {n_x} x grid; r in [a, 1.5], x in (0, a], a = {a:.6f}"
    x = np.linspace(1e-6, 1.0, n_x) * a
    gaps = []
    for r in np.linspace(a, 1.5, n_r).tolist():
        try:
            c_ra = bounds.outside_area_rate(r, a)
        except DomainError as exc:
            # the library rejects a point of its own domain: a failure, with its witness
            return math.inf, f"{spec}; DomainError at (r, x) = ({r:.17g}, {a:.17g}): {exc}"
        # the library's rate at a against the least rate x / (2 asin(x/r)) on the grid
        gaps.append(c_ra - float(np.min(x / (2.0 * np.arcsin(x / r)))))
    return _largest(gaps), spec


def _check_f_argmax(samples, _rng):
    lo, hi = 0.15, 0.5
    grid = np.linspace(lo, hi, samples).tolist()
    vals = list(map(geom.exterior_area_rate, grid))
    k = vals.index(max(vals))
    b_lo = grid[max(0, k - 1)]
    b_hi = grid[min(samples - 1, k + 1)]
    inv_golden = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b_hi - inv_golden * (b_hi - b_lo)
    x2 = b_lo + inv_golden * (b_hi - b_lo)
    f1 = geom.exterior_area_rate(x1)
    f2 = geom.exterior_area_rate(x2)
    while b_hi - b_lo > 1e-10:
        if f1 < f2:
            b_lo, x1, f1 = x1, x2, f2
            x2 = b_lo + inv_golden * (b_hi - b_lo)
            f2 = geom.exterior_area_rate(x2)
        else:
            b_hi, x2, f2 = x2, x1, f1
            x1 = b_hi - inv_golden * (b_hi - b_lo)
            f1 = geom.exterior_area_rate(x1)
    argmax = 0.5 * (b_lo + b_hi)
    spec = f"{samples}-point grid on [0.15, 0.5] + golden-section refinement"
    return abs(argmax - 1.0 / 6.0), spec


_SECTOR_SETS = 100  # interval unions per SectorMeasure run
# Cloud points per draw: a block's words, coordinates and temporaries,
# 128 KiB per array, stay in a core's L2 cache.  Any size gives the same
# points.
_CLOUD_BLOCK = 1 << 14
# index of a word's high half in its uint32 view
_HIGH = 1 if sys.byteorder == "little" else 0


def _disk_angles(samples, seed):
    """Sorted angles of the lattice points of (-1, -1, 1, 1) that lie in the unit disk.

    Point i comes from word i of ``CounterRng(seed, 0)``: its high 32 bits
    k give x = -1 + k * 2**-31 exactly, its low 32 bits give y the same
    way, so the points are uniform on a 2**32 x 2**32 lattice in the box.
    Each angle is arctan2's, wrapped to a + 2pi if a < 0, so it lies in
    [0, 2pi].  The words are drawn ``_CLOUD_BLOCK`` at a time.
    """
    rng = CounterRng(seed, stream=0)
    angles = np.empty(samples)
    kept = 0
    for lo in range(0, samples, _CLOUD_BLOCK):
        halves = rng.raw(min(_CLOUD_BLOCK, samples - lo)).view(np.uint32)
        xs = halves[_HIGH::2] * 2.0**-31 - 1.0
        ys = halves[1 - _HIGH::2] * 2.0**-31 - 1.0
        ang = np.arctan2(ys, xs)[xs * xs + ys * ys <= 1.0]
        ang += (ang < 0.0) * _TWO_PI
        angles[kept:kept + ang.shape[0]] = ang
        kept += ang.shape[0]
    angles = angles[:kept]
    angles.sort()
    return angles


def _union_hits(sorted_angles, starts, stops):
    """How many of ``sorted_angles`` lie in the union of closed intervals [starts_i, stops_i].

    The intervals are in order and can only touch, so each counts the
    angles up to its stop less those below its start, or below the last
    stop where that is higher: an angle on a shared end counts once.
    """
    hi = np.searchsorted(sorted_angles, stops, "right")
    lo = np.searchsorted(sorted_angles, starts, "left")
    lo[1:] = np.maximum(lo[1:], hi[:-1])
    return int(np.sum(hi - lo))


def _family_wise_z(z, n):
    """The largest of ``n`` |z| values, in one-test sigma units.

    Sidak (1967): the chance that the largest of n independent |z| reaches
    ``z`` is p = 1 - (1 - erfc(z/sqrt 2))^n, and for jointly normal |z|
    under any correlation it is at most p.  The result is the z whose
    one-test two-sided p-value erfc(z/sqrt 2) is p, found by bisection on
    [0, z].
    """
    if not 0.0 < z < math.inf:
        return z
    p = -math.expm1(n * math.log1p(-math.erfc(z / math.sqrt(2.0))))
    lo, hi = 0.0, z
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if math.erfc(mid / math.sqrt(2.0)) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _check_sector_measure(samples, rng):
    """Polar sector area of random interval unions vs measure/2 in the unit disk.

    Every union is counted on one cloud of ``samples`` lattice points in
    the box (-1, -1, 1, 1), whose hit probability for a union of angular
    measure m is p = m/8.  Deviations are normalized by the exact
    sampling deviation of the hit-or-miss estimator, sqrt(p(1 - p)/n),
    which keeps the statistic calibrated even at tiny sample counts.  The
    largest one over the unions is reported as a family-wise z.  The
    unions share the cloud, so their z values are dependent; by Sidak's
    inequality for jointly normal |z| under any correlation, the 3-sigma
    tolerance still keeps a false-alarm rate of at most 0.27%.
    """
    unions = []
    for _ in range(_SECTOR_SETS):
        n_intervals = 1 + int(rng.raw(1)[0] % np.uint64(3))
        ends = np.sort(rng.uniform(0.0, _TWO_PI, 2 * n_intervals))
        unions.append((ends[0::2], ends[1::2]))
    angles = _disk_angles(samples, int(rng.raw(1)[0]))
    worst = 0.0
    for starts, stops in unions:
        p = float(np.sum(stops - starts)) / 8.0
        deviation = abs(_union_hits(angles, starts, stops) / samples - p)
        sigma = math.sqrt(p * (1.0 - p) / samples)
        if sigma > 0.0:
            worst = max(worst, deviation / sigma)
        elif deviation:
            worst = math.inf
    spec = (
        f"{_SECTOR_SETS} random interval unions in [0, 2pi), counted on one cloud of {samples} "
        "lattice points in [-1, 1]^2; violation in family-wise (Sidak) sigma units"
    )
    return _family_wise_z(worst, _SECTOR_SETS), spec


_EDGES = ((0, 1), (1, 2), (2, 0))  # (O, A), (A, B), (B, O)


def _triangle_corners(alpha, delta, t):
    """Corners (O, A, B) of the needle triangles (alpha, delta, t), shape (n, 3, 2).

    With the needle direction u = (cos alpha, sin alpha), the foot of the
    perpendicular from O is f = delta * (-sin alpha, cos alpha), and the
    needle runs from A = f - t*u to B = f + (1 - t)*u.
    """
    u = np.stack((np.cos(alpha), np.sin(alpha)), axis=-1)
    f = delta[:, None] * np.stack((-u[:, 1], u[:, 0]), axis=-1)
    return np.stack((np.zeros_like(f), f - t[:, None] * u, f + (1.0 - t)[:, None] * u), axis=1)


def _circle_points_in_triangles(vertices, r, phi):
    """Whether r*(cos phi, sin phi) lies in the closed triangle (O, A, B).

    ``vertices`` has shape (..., 3, 2); it, ``r`` and ``phi`` broadcast
    over the leading axes.
    """
    px, py = r * np.cos(phi), r * np.sin(phi)
    ax, ay, bx, by = vertices[..., 1, 0], vertices[..., 1, 1], vertices[..., 2, 0], vertices[..., 2, 1]
    d1 = ax * py - ay * px
    d2 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    d3 = -(bx * (py - by) - by * (px - bx))
    has_pos = (d1 > 0.0) | (d2 > 0.0) | (d3 > 0.0)
    has_neg = (d1 < 0.0) | (d2 < 0.0) | (d3 < 0.0)
    return ~(has_pos & has_neg)


def _arc_totals_by_probing(vertices, r):
    """Total central angle and first angular moment of (triangle intersect S_r).

    ``vertices`` is an (n, 3, 2) array of triangles (O, A, B), ``r`` their
    radii.  The edges' crossings with the circle, in (0, 1) of each edge's
    parameter, cut it into arcs; an arc counts when the circle point at
    its middle angle lies in the closed triangle.  With no crossing the
    circle lies wholly inside or outside: it is taken as one arc from -pi
    to pi, probed at angle 0.  Returns the arcs' total angle and the sum
    of e^(i end) - e^(i start) over them, which places them on the circle.
    """
    roots = np.full((r.shape[0], 2 * len(_EDGES)), math.inf)
    for k, (i, j) in enumerate(_EDGES):
        px, py = vertices[:, i, 0], vertices[:, i, 1]
        dx, dy = vertices[:, j, 0] - px, vertices[:, j, 1] - py
        qa = dx * dx + dy * dy
        qb = 2.0 * (px * dx + py * dy)
        qc = px * px + py * py - r * r
        disc = qb * qb - 4.0 * qa * qc
        crosses = (qa != 0.0) & (disc > 0.0)
        sq = np.sqrt(np.where(crosses, disc, 0.0))
        denom = np.where(crosses, 2.0 * qa, 1.0)
        for m, u in enumerate(((-qb - sq) / denom, (-qb + sq) / denom)):
            on_edge = crosses & (0.0 < u) & (u < 1.0)
            roots[:, 2 * k + m] = np.where(on_edge, np.arctan2(py + u * dy, px + u * dx), math.inf)
    roots.sort(axis=1)
    count = np.count_nonzero(roots < math.inf, axis=1)
    roots[count == 0, 0] = -math.pi
    count = np.maximum(count, 1)
    col = np.arange(roots.shape[1])
    arc = col < count[:, None]
    # each arc runs to the next root; the last one to the first, a turn on.
    # Only the real arcs are probed and placed, with the rows they came from
    ends = np.where(col == (count - 1)[:, None], roots[:, :1] + _TWO_PI, np.roll(roots, -1, axis=1))
    rows = np.nonzero(arc)[0]
    starts, ends = roots[arc], ends[arc]
    inside = _circle_points_in_triangles(vertices[rows], r[rows], 0.5 * (starts + ends))
    rows, starts, ends = rows[inside], starts[inside], ends[inside]
    moves = np.exp(1j * ends) - np.exp(1j * starts)
    return _sums_by_row(rows, r.shape[0], ends - starts, moves.real, moves.imag)


def _sums_by_row(rows, n, angles, cos_moves, sin_moves):
    """Per row 0 to n - 1, the total of ``angles`` and the moment
    ``cos_moves`` + i ``sin_moves`` over the entries k with ``rows[k]`` equal
    to the row.  Each row is summed in order from 0.0, as Python's ``sum`` would."""
    moments = np.empty(n, complex)
    moments.real = np.bincount(rows, cos_moves, n)
    moments.imag = np.bincount(rows, sin_moves, n)
    return np.bincount(rows, angles, n), moments


def _fold_arcs(arcs):
    """Each row of (start, end) arcs as its total angle and first angular moment.

    The moment sum(e^(i end) - e^(i start)) places the arcs on the circle.
    """
    n = len(arcs)
    rows = np.repeat(np.arange(n), np.fromiter(map(len, arcs), np.intp, n))
    starts, ends = np.fromiter(chain.from_iterable(chain.from_iterable(arcs)), float).reshape(-1, 2).T
    return _sums_by_row(rows, n, ends - starts, np.cos(ends) - np.cos(starts), np.sin(ends) - np.sin(starts))


def _check_arc_consistency(samples, rng):
    r = rng.uniform(0.05, 0.5, samples)
    delta = rng.uniforms(samples) * np.minimum(_HEIGHT_CAP, 0.9 * r)
    alpha = rng.uniform(0.0, math.pi, samples)
    t = rng.uniforms(samples)
    # alpha lies in [0, pi), where NeedleTriangle's reduction mod pi is the
    # identity: both sides see the same triangle
    triangles = map(geom.NeedleTriangle, alpha.tolist(), delta.tolist(), t.tolist())
    totals, moments = _fold_arcs(list(map(geom.intersection_arcs, triangles, r.tolist())))
    probed_totals, probed_moments = _arc_totals_by_probing(_triangle_corners(alpha, delta, t), r)
    worst = _largest((np.max(np.abs(totals - probed_totals)), np.max(np.abs(moments - probed_moments))))
    spec = f"{samples} random triangles; arc angles and angular moments vs edge-circle root finding"
    return worst, spec


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

# Longest first, so that the workers claim the long checks first and end
# together.  In-process at seed 7 and default sizes (median of 3 best-of-5
# runs, 2-vCPU VM): ArcConsistency 30 ms, SectorMeasure 29,
# IsoscelesMinimality 22, FArgmax 20, ExtDisjoint 17, HMinAtZero 8,
# JGammaRatio 4.5, IntDisjoint 3, CMin 0.5.  The order only sets the claims:
# a stale one costs speed, never a record.
_CHECKS = {
    CheckId.ARC_CONSISTENCY: (_check_arc_consistency, 10_000, 1e-9),
    CheckId.SECTOR_MEASURE: (_check_sector_measure, 1_000_000, 3.0),
    CheckId.ISOSCELES_MINIMALITY: (_check_isosceles_minimality, 10_000, 1e-10),
    CheckId.F_ARGMAX: (_check_f_argmax, 100_000, 1e-6),
    CheckId.EXT_DISJOINT: (_check_ext_disjoint, 10_000, 0.0),
    CheckId.H_MIN_AT_ZERO: (_check_h_min_at_zero, 10_000, 1e-12),
    CheckId.JGAMMA_RATIO: (_check_jgamma_ratio, 10_000, 1e-9),
    CheckId.INT_DISJOINT: (_check_int_disjoint, 10_000, 0.0),
    CheckId.C_MIN: (_check_c_min, 10_000, 1e-9),
}


def _worker_count(n_tasks):
    """Worker processes for ``n_tasks`` tasks: one per CPU available."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return min(cpus, n_tasks)


def _map_tasks(tasks):
    """The results of ``tasks``, (func, args) pairs, in task order.

    They run in-process where there is one worker or no ``os.fork``, else
    on bare forked workers (:func:`kakeya.workers.map_forked`), which claim
    the tasks one at a time in task order.  So the pass ends soonest when
    the longest tasks come first, as :func:`run_checks` lists them: the
    last claims are then short, and the workers finish close together.  A
    worker that dies without its task's result comes out as WorkerLost.
    """
    workers = _worker_count(len(tasks))
    if workers < 2 or not hasattr(os, "fork"):
        return [func(*args) for func, args in tasks]
    from .workers import map_forked  # compiled only by a run that forks

    return map_forked(tasks, workers)


def run_checks(
    checks: list[CheckId],
    samples: int | None = None,
    seed: int = DEFAULT_SEED,
) -> list[CheckReport]:
    """Run the given checks over seed-derived samples or grids; one report each.

    ``samples`` counts configurations for the sampling checks, grid points
    for the scan checks, and cloud points for SectorMeasure; it must lie
    in [100, MAX_SAMPLES], or DomainError is raised before any draw, as
    it is for a check that is not a CheckId or that is named twice.
    Failures are reported in the returned records, never raised; an error
    raised inside a check comes out of this call, and a worker process
    that dies comes out as WorkerLost.
    """
    try:
        checks = tuple(checks)
    except TypeError:
        raise wrong_type("checks must be an iterable of CheckId", checks) from None
    sizes = {}
    for check in checks:
        if not isinstance(check, CheckId):
            raise DomainError(f"unknown check {shown(check)}; expected a CheckId")
        if check in sizes:
            raise DomainError(f"check {check.value} is named twice")
        n = _CHECKS[check][1] if samples is None else as_integer(samples, "samples")
        if not 100 <= n <= MAX_SAMPLES:
            raise DomainError(f"samples must be in [100, {MAX_SAMPLES}], got {shown(n)}")
        sizes[check] = n
    claims = [check for check in _CHECKS if check in sizes]  # longest first
    results = dict(zip(claims, _map_tasks([
        (_CHECKS[check][0], (sizes[check], CounterRng(seed, stream=1 + list(CheckId).index(check))))
        for check in claims
    ])))
    reports = []
    for check, n in sizes.items():  # in the caller's order
        violation, spec = results[check]
        # only a negative violation is clamped: a NaN one stays NaN and fails
        violation = 0.0 if violation <= 0.0 else float(violation)
        reports.append(CheckReport(
            id=check, samples=n, grid_spec=spec, max_violation=violation, tolerance=_CHECKS[check][2], seed=seed
        ))
    return reports


def run_check(
    check: CheckId,
    samples: int | None = None,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Run one check: ``run_checks([check], samples, seed)[0]``."""
    return run_checks([check], samples, seed)[0]


# ---------------------------------------------------------------------------
# Threshold location
# ---------------------------------------------------------------------------

def find_h_threshold(lo: float, hi: float, tol: float) -> float:
    """Radius below which the outer/angle quotient dips under its flat limit.

    Bisects the predicate "min over a delta-grid of the quotient is
    attained in the delta -> 0 limit" on [lo, hi], with heights spanning
    (0, 3r/5] as in the minimum claim; raises BracketError if the
    predicate does not change across the bracket.  ``lo``, ``hi`` and
    ``tol`` must be reals a float can hold, else DomainError.
    """
    try:
        # + 0.0 refuses an int too wide for a float, and a str or list, which compare
        if not lo + 0.0 < hi + 0.0:
            raise BracketError(f"need lo < hi, got [{shown(lo)}, {shown(hi)}]")
        if not tol + 0.0 > 0.0:
            raise DomainError(f"tol must be > 0, got {shown(tol)}")
    except (TypeError, OverflowError):
        raise wrong_type("lo, hi and tol must be reals", lo, hi, tol) from None
    fractions = _h_fractions(_H_THRESHOLD_GRID)

    def min_at_zero(r: float) -> bool:
        return _dip_below_flat_limit(r, fractions) <= 1e-13

    p_lo, p_hi = min_at_zero(lo), min_at_zero(hi)
    if p_lo == p_hi:
        raise BracketError(
            f"predicate is {p_lo} at both ends of [{shown(lo)}, {shown(hi)}]; no transition"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # adjacent floats: the bracket cannot shrink
            break
        if min_at_zero(mid) == p_hi:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
