"""Independent brute-force verification of the supporting geometry.

Each check re-derives a claim of the bound machinery by sampling, grid
scanning or exact clipping with its own membership and root-finding
code, never through the closed forms it is checking.  The two
disjointness checks draw seeded needle pairs that meet the angular-gap
criterion and intersect each pair's triangles exactly (Sutherland-Hodgman
clipping, independent of ``geom``); their violation counts overlapping
pairs.  Randomness comes from the counter-based generator in
:mod:`kakeya.rng`; every check derives its own substream from (seed,
check), so checks are order-independent and reproducible.

:func:`run_checks` runs a selection of checks as one list of tasks: each
check but SectorMeasure is one task, and each of SectorMeasure's sets is
one more, its parameters drawn beforehand from the check's stream.  The
tasks run on one pool of forked worker processes, one per available CPU,
or in-process on one CPU.  Every task reads only its own ``CounterRng``
and results are folded in report order, so the records do not depend on
the worker count.
"""

from __future__ import annotations

import enum
import math
import os
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bounds, geom
from .errors import BracketError, DomainError, WorkerLost, as_integer
from .rng import CounterRng

__all__ = [
    "DEFAULT_SEED",
    "MAX_SAMPLES",
    "CheckId",
    "CheckReport",
    "McEstimate",
    "mc_area",
    "run_check",
    "run_checks",
    "find_h_threshold",
]

DEFAULT_SEED = 7

# Default cap on sampled needle heights; mirrors the height cap of the
# headline bound parameters.
_HEIGHT_CAP = math.pi / 49.0


class CheckId(enum.Enum):
    """Closed enumeration of the verifiable geometric claims."""

    ISOSCELES_MINIMALITY = "IsoscelesMinimality"
    H_MIN_AT_ZERO = "HMinAtZero"
    EXT_DISJOINT = "ExtDisjoint"
    INT_DISJOINT = "IntDisjoint"
    JGAMMA_RATIO = "JGammaRatio"
    C_MIN = "CMin"
    F_ARGMAX = "FArgmax"
    SECTOR_MEASURE = "SectorMeasure"
    ARC_CONSISTENCY = "ArcConsistency"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification run; ``passed`` iff violation <= tol."""

    id: CheckId
    samples: int
    grid_spec: str
    max_violation: float
    tolerance: float
    passed: bool
    seed: int

    def as_dict(self) -> dict:
        return {
            "id": self.id.value,
            "samples": self.samples,
            "grid_spec": self.grid_spec,
            "max_violation": self.max_violation,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class McEstimate:
    """Hit-or-miss Monte Carlo area estimate with its standard error."""

    value: float
    std_error: float
    samples: int
    seed: int


# ---------------------------------------------------------------------------
# Monte Carlo area
# ---------------------------------------------------------------------------

# Stream layout: the samples come in chunks of _MC_CHUNK points, each
# drawing all its x coordinates, then all its y coordinates.  Changing it
# changes every estimate.
_MC_CHUNK = 1 << 19
# Points per ``region`` call: a block's coordinates and temporaries,
# 128 KiB per float array, stay in a core's L2 cache.  Any size gives the
# same draws and hits.
_MC_BLOCK = 1 << 14


def mc_area(
    region: Callable[[np.ndarray, np.ndarray], np.ndarray],
    bbox: tuple[float, float, float, float],
    samples: int,
    seed: int,
) -> McEstimate:
    """Unbiased hit-or-miss area estimate of ``region`` inside ``bbox``.

    ``region(xs, ys)`` must return a boolean membership array and may be
    called on any number of blocks; it must not write into ``xs``/``ys``.
    It may run in a worker process, where state it changes is not seen by
    the caller, so it must keep no state between calls.  The estimate is
    bbox_area * hits/samples with standard error
    bbox_area * sqrt(phat*(1-phat)/samples), and is bit-identical for a
    fixed (seed, samples).
    """
    samples = as_integer(samples, "samples", lo=1)
    xmin, ymin, xmax, ymax = bbox
    area_box = (xmax - xmin) * (ymax - ymin)
    if not (xmax > xmin and ymax > ymin and math.isfinite(area_box)):
        raise DomainError(f"degenerate or unbounded bbox {bbox}")
    rng = CounterRng(seed, stream=0)
    # a block's xs in row 0 and its ys in row 1 of one reused buffer
    coords = np.empty((2, min(_MC_BLOCK, samples)))
    hits = 0
    for start in range(0, samples, _MC_CHUNK):
        n = min(_MC_CHUNK, samples - start)
        # the chunk's xs sit at counters [2*start, 2*start + n), its ys
        # right after; blocks read matching pieces of the two runs
        for lo in range(0, n, _MC_BLOCK):
            m = min(_MC_BLOCK, n - lo)
            xs, ys = coords[0, :m], coords[1, :m]
            rng.seek(2 * start + lo)
            rng.uniform(xmin, xmax, m, out=xs)
            rng.seek(2 * start + n + lo)
            rng.uniform(ymin, ymax, m, out=ys)
            hits += int(np.count_nonzero(region(xs, ys)))
    phat = hits / samples
    return McEstimate(
        value=area_box * phat,
        std_error=area_box * math.sqrt(phat * (1.0 - phat) / samples),
        samples=samples,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Vectorized triangle helpers (membership and clipping math independent
# of geom's clipping and arc formulas)
# ---------------------------------------------------------------------------

def _vertices_arrays(alpha, delta, foot):
    """Needle endpoints for direction/height/foot arrays (foot unrestricted)."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    fx, fy = -delta * sa, delta * ca
    return fx - foot * ca, fy - foot * sa, fx + (1.0 - foot) * ca, fy + (1.0 - foot) * sa


# Pairs per clipping block.  A block's polygons take 24 vertex slots per
# pair, so memory stays flat as the pair count grows; any size gives the
# same flags.
_CLIP_BLOCK = 4096


def _overlapping_pairs(r, v1, v2, exterior):
    """Exact overlap flags for triangle pairs (O, A1, B1), (O, A2, B2).

    ``v1``/``v2`` are (ax, ay, bx, by) arrays.  Sutherland-Hodgman clips
    the first triangle against the three closed half-planes of the second,
    which leaves the convex polygon P = T1 & T2.  Inner parts overlap when
    P has positive shoelace area: its interior then reaches O, inside the
    disk.  Outer parts (``exterior``) overlap when, in addition, a vertex
    of P lies strictly beyond r: max |x| over P is taken at a vertex, and
    the points of P near that vertex lie beyond r too.

    Polygons are fixed-width rows of vertex slots.  Each clip maps k slots
    to 2k: slot 2j holds the point where edge (j-1, j) crosses the line,
    slot 2j+1 vertex j.  A skipped slot repeats the last kept vertex
    cyclically, which changes neither the area nor the largest radius.
    """
    flags = np.empty(r.shape[0], dtype=bool)
    for lo in range(0, r.shape[0], _CLIP_BLOCK):
        hi = min(lo + _CLIP_BLOCK, r.shape[0])
        ax1, ay1, bx1, by1 = (arr[lo:hi, None] for arr in v1)
        ax2, ay2, bx2, by2 = (arr[lo:hi, None] for arr in v2)
        zero = np.zeros_like(ax1)
        px = np.concatenate((zero, ax1, bx1), axis=1)
        py = np.concatenate((zero, ay1, by1), axis=1)
        orient = np.sign(ax2 * by2 - ay2 * bx2)
        for (ex, ey, fx, fy) in ((zero, zero, ax2, ay2), (ax2, ay2, bx2, by2), (bx2, by2, zero, zero)):
            n, k = px.shape
            # >= 0 on the kept closed side; exactly 0 at O for the edges
            # through O, so O is always kept and no row runs empty
            side = orient * ((fx - ex) * (py - ey) - (fy - ey) * (px - ex))
            sx, sy, s_side = (np.roll(arr, 1, axis=1) for arr in (px, py, side))
            e_in = side >= 0.0
            crosses = (s_side >= 0.0) != e_in
            # the two ends of a crossing edge lie on opposite sides, so the
            # denominator is nonzero wherever the quotient is used
            t = s_side / np.where(crosses, s_side - side, 1.0)
            out_x = np.stack((sx + t * (px - sx), px), axis=2).reshape(n, 2 * k)
            out_y = np.stack((sy + t * (py - sy), py), axis=2).reshape(n, 2 * k)
            keep = np.stack((crosses, e_in), axis=2).reshape(n, 2 * k)
            idx = np.where(keep, np.arange(2 * k), -1)
            np.maximum.accumulate(idx, axis=1, out=idx)
            idx = np.where(idx < 0, idx[:, -1:], idx)  # wrap to the row's last kept slot
            px = np.take_along_axis(out_x, idx, axis=1)
            py = np.take_along_axis(out_y, idx, axis=1)
        area2 = np.sum(px * np.roll(py, -1, axis=1) - np.roll(px, -1, axis=1) * py, axis=1)
        hit = area2 != 0.0
        if exterior:
            rc = r[lo:hi]
            hit &= np.max(px * px + py * py, axis=1) > rc * rc
        flags[lo:hi] = hit
    return flags


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------

def _check_isosceles_minimality(samples, rng):
    r = rng.uniform(0.15, 0.5, samples)
    delta = rng.uniforms(samples) * np.minimum(_HEIGHT_CAP, 0.9 * r)
    alpha = rng.uniform(0.0, math.pi, samples)
    t = rng.uniforms(samples)
    worst = 0.0
    for i in range(samples):
        tri = geom.make_triangle(alpha[i], delta[i], t[i])
        gap = geom.exterior_area_isosceles(delta[i], r[i]) - geom.exterior_area(tri, r[i])
        if gap > worst:
            worst = gap
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
    )


def _check_h_min_at_zero(samples, _rng):
    n_r = max(10, int(round(math.sqrt(samples))))
    n_d = max(10, samples // n_r)
    r_grid = np.linspace(0.15, 0.5, n_r)
    fractions = _h_fractions(n_d)
    worst = -math.inf
    for r in r_grid:
        limit = geom.exterior_angle_ratio(0.0, r)
        for frac in fractions:
            worst = max(worst, limit - geom.exterior_angle_ratio(frac * _H_CAP_RATIO * r, r))
    spec = (
        f"{n_r} r x {n_d} delta grid; r in [0.15, 0.5], "
        f"delta in (0, {_H_CAP_RATIO}*r]"
    )
    return worst, spec


def _disjoint_pairs(samples, rng, r_lo):
    """Accepted (r, delta_i, alpha_i) batches meeting the angular-gap test."""
    out = []
    have = 0
    while have < samples:
        n = max(1024, 2 * (samples - have))
        r = rng.uniform(r_lo, 0.5, n)
        cap = np.minimum(_HEIGHT_CAP, 0.9 * r)
        d1 = rng.uniforms(n) * cap
        d2 = rng.uniforms(n) * cap
        a1 = rng.uniform(0.0, math.pi, n)
        a2 = rng.uniform(0.0, math.pi, n)
        g = np.abs(a1 - a2)
        gap = np.minimum(g, math.pi - g)
        ok = gap >= np.arcsin(d1 / r) + np.arcsin(d2 / r)
        out.append((r[ok], d1[ok], d2[ok], a1[ok], a2[ok]))
        have += int(np.count_nonzero(ok))
    r, d1, d2, a1, a2 = (np.concatenate(parts) for parts in zip(*out))
    return r[:samples], d1[:samples], d2[:samples], a1[:samples], a2[:samples]


def _check_ext_disjoint(samples, rng):
    r, d1, d2, a1, a2 = _disjoint_pairs(samples, rng, r_lo=0.05)
    t1 = rng.uniforms(samples)
    t2 = rng.uniforms(samples)
    v1 = _vertices_arrays(a1, d1, t1)
    v2 = _vertices_arrays(a2, d2, t2)
    overlaps = int(np.count_nonzero(_overlapping_pairs(r, v1, v2, exterior=True)))
    # the library predicate must agree with the sampled gap condition
    mismatches = sum(
        0 if geom.exterior_disjoint_criterion(a1[i], d1[i], a2[i], d2[i], r[i]) else 1
        for i in range(samples)
    )
    spec = (
        f"{samples} gap-criterion pairs, outer parts intersected exactly "
        "(Sutherland-Hodgman); violation counts overlapping pairs"
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
    v1 = _vertices_arrays(a1, d1, t1)
    v2 = _vertices_arrays(a2, d2, t2)
    overlaps = int(np.count_nonzero(_overlapping_pairs(r, v1, v2, exterior=False)))
    spec = (
        f"{samples} gap-criterion pairs with needles clear of the disk, inner parts "
        "intersected exactly (Sutherland-Hodgman); violation counts overlapping pairs"
    )
    return float(overlaps), spec


def _check_jgamma_ratio(samples, _rng):
    n_r = max(10, int(round(math.sqrt(samples))))
    n_d = max(10, samples // n_r)
    worst = -math.inf
    for r in np.linspace(0.05, 0.49, n_r):
        cap = (1.0 + 2.0 * r) / (1.0 - 2.0 * r)
        for frac in np.linspace(1e-6, 0.999999, n_d):
            worst = max(worst, geom.direction_ratio(frac * r, r) - cap)
    spec = f"{n_r} r x {n_d} delta0 grid; r in [0.05, 0.49], delta0/r in (0, 1)"
    return worst, spec


def _check_c_min(samples, _rng):
    a = _HEIGHT_CAP
    n_r = max(10, int(round(math.sqrt(samples))))
    n_x = max(10, samples // n_r)
    worst = -math.inf
    for r in np.linspace(a, 1.5, n_r):
        c_ra = bounds.outside_area_rate(r, a)
        for frac in np.linspace(1e-6, 1.0, n_x):
            worst = max(worst, c_ra - bounds.outside_area_rate(r, frac * a))
    spec = f"{n_r} r x {n_x} x grid; r in [a, 1.5], x in (0, a], a = {a:.6f}"
    return worst, spec


def _check_f_argmax(samples, _rng):
    lo, hi = 0.15, 0.5
    grid = np.linspace(lo, hi, samples)
    vals = [bounds.exterior_area_rate(r) for r in grid]
    k = int(np.argmax(vals))
    b_lo = grid[max(0, k - 1)]
    b_hi = grid[min(samples - 1, k + 1)]
    inv_golden = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b_hi - inv_golden * (b_hi - b_lo)
    x2 = b_lo + inv_golden * (b_hi - b_lo)
    f1 = bounds.exterior_area_rate(x1)
    f2 = bounds.exterior_area_rate(x2)
    while b_hi - b_lo > 1e-10:
        if f1 < f2:
            b_lo, x1, f1 = x1, x2, f2
            x2 = b_lo + inv_golden * (b_hi - b_lo)
            f2 = bounds.exterior_area_rate(x2)
        else:
            b_hi, x2, f2 = x2, x1, f1
            x1 = b_hi - inv_golden * (b_hi - b_lo)
            f1 = bounds.exterior_area_rate(x1)
    argmax = 0.5 * (b_lo + b_hi)
    spec = f"{samples}-point grid on [0.15, 0.5] + golden-section refinement"
    return abs(argmax - 1.0 / 6.0), spec


_TWO_PI = 2.0 * math.pi
# Angles in "wrapped order", the order of a + 2pi if a < 0 else a: rank k
# <= _PI_RANK is the float with bit pattern k, from 0.0 up to pi; rank
# _PI_RANK + j is the j-th float from -pi up to the negative float nearest 0.
_F64 = struct.Struct("<d")
_I64 = struct.Struct("<q")
_PI_RANK = _I64.unpack(_F64.pack(math.pi))[0]
_LAST_RANK = 2 * _PI_RANK


def _wrap(a):
    """Angle in [0, 2pi) of an arctan2 output a in [-pi, pi]."""
    return a + _TWO_PI if a < 0.0 else a


def _angle_at(rank):
    if rank <= _PI_RANK:
        return _F64.unpack(_I64.pack(rank))[0]
    return -_F64.unpack(_I64.pack(_LAST_RANK + 1 - rank))[0]


def _rank(a):
    bits = _I64.unpack(_F64.pack(abs(a)))[0]
    return bits if a >= 0.0 else _LAST_RANK + 1 - bits


def _first_rank(ok, t):
    """Smallest rank whose angle passes ``ok(_wrap(angle))``, or _LAST_RANK + 1.

    _wrap is nondecreasing in rank, so the predicates used here, "wrapped
    >= t" and "wrapped > t", hold on a final run of ranks.  The search
    gallops out from the angle that wraps to about t to bracket the first
    passing rank, then bisects over the bit patterns in the bracket.
    """

    def passes(rank):
        return rank > _LAST_RANK or (rank >= 0 and ok(_wrap(_angle_at(rank))))

    hi = _rank(t - _TWO_PI if t > math.pi else t)
    lo, step = hi - 1, 1
    while not passes(hi):
        lo, hi, step = hi, hi + step, 2 * step
    step = 1
    while passes(lo):
        lo, hi, step = lo - step, lo, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _raw_angle_range(start, stop):
    """The arctan2 outputs a with start <= _wrap(a) <= stop, as (lo, hi, wraps).

    The set is the ranks [first, last]: raw angles lo <= a <= hi, or, when
    it runs from the nonnegative angles into the negative ones, a >= lo or
    a <= hi.  None when it is empty.
    """
    first = _first_rank(lambda w: w >= start, start)
    last = _first_rank(lambda w: w > stop, stop) - 1
    if first > last:
        return None
    return _angle_at(first), _angle_at(last), first <= _PI_RANK < last


def _in_raw_ranges(ang, ranges):
    """Mask of the raw angles ``ang`` inside any of ``ranges`` (see _raw_angle_range)."""
    inside = np.zeros(ang.shape, dtype=bool)
    for lo, hi, wraps in ranges:
        if wraps:
            inside |= (ang >= lo) | (ang <= hi)
        else:
            inside |= (lo <= ang) & (ang <= hi)
    return inside


def _sector_region(starts, stops, radius):
    """Membership in the polar sector {|p| <= radius, angle in the union}.

    ``starts``/``stops`` are closed angle intervals in [0, 2pi).  A point
    is in an interval when its arctan2 angle a, wrapped to a + 2pi if
    a < 0, lies in it.  Each interval is turned once into the range of raw
    angles it holds (``_raw_angle_range``), so the points' angles are
    compared as they come from arctan2, never wrapped; the mask is the
    wrapped rule's, bit for bit.  The radial test compares squares; it can
    round differently from ``hypot(x, y) <= radius`` only for points within
    a few ulps of the circle.
    """
    radius2 = radius * radius
    ranges = [r for r in map(_raw_angle_range, starts, stops) if r is not None]

    def region(xs, ys):
        inside = _in_raw_ranges(np.arctan2(ys, xs), ranges)
        rad2 = xs * xs
        rad2 += ys * ys
        inside &= rad2 <= radius2
        return inside

    return region


_SECTOR_SETS = 100  # interval unions per SectorMeasure run


def _sector_sets(rng):
    """SectorMeasure's sets as (starts, stops, radius, seed), drawn in set order."""
    sets = []
    for _ in range(_SECTOR_SETS):
        n_intervals = 1 + int(rng.raw(1)[0] % np.uint64(3))
        ends = np.sort(rng.uniform(0.0, 2.0 * math.pi, 2 * n_intervals))
        radius = float(rng.uniform(0.3, 1.2, 1)[0])
        set_seed = int(rng.raw(1)[0])
        sets.append((ends[0::2], ends[1::2], radius, set_seed))
    return sets


def _sector_estimate(sector_set, samples):
    """Monte Carlo area of one set's polar sector, a pure function of the set."""
    starts, stops, radius, set_seed = sector_set
    region = _sector_region(starts, stops, radius)
    return mc_area(region, (-radius, -radius, radius, radius), samples, set_seed)


def _sector_verdict(samples, sets, estimates):
    """Polar sector area of random interval unions vs r^2/2 * measure.

    Deviations are normalized by the exact sampling deviation of the
    hit-or-miss estimator (the target area is known, so the true hit
    probability is too); this keeps the statistic calibrated even at
    tiny sample counts.
    """
    worst = 0.0
    for (starts, stops, radius, _), est in zip(sets, estimates):
        measure = float(np.sum(stops - starts))
        exact = 0.5 * radius * radius * measure
        box_area = 4.0 * radius * radius
        p_true = exact / box_area
        sigma = box_area * math.sqrt(p_true * (1.0 - p_true) / samples)
        if sigma > 0.0:
            worst = max(worst, abs(est.value - exact) / sigma)
        elif est.value != exact:
            worst = math.inf
    spec = (
        f"{len(sets)} random interval unions in [0, 2pi), {samples} samples each; "
        "violation in exact-sigma units"
    )
    return worst, spec


_EDGES = ((0, 1), (1, 2), (2, 0))  # (O, A), (A, B), (B, O)


def _circle_points_in_triangles(vertices, r, phi):
    """Whether r*(cos phi, sin phi) lies in the closed triangle (O, A, B), per row.

    ``vertices`` is an (n, 3, 2) array; the cosines and sines come from
    ``math``, one point at a time.
    """
    phi = np.asarray(phi, dtype=np.float64).tolist()
    px = r * np.array(list(map(math.cos, phi)), dtype=np.float64)
    py = r * np.array(list(map(math.sin, phi)), dtype=np.float64)
    ax, ay, bx, by = vertices[:, 1, 0], vertices[:, 1, 1], vertices[:, 2, 0], vertices[:, 2, 1]
    d1 = ax * py - ay * px
    d2 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    d3 = -(bx * (py - by) - by * (px - bx))
    has_pos = (d1 > 0.0) | (d2 > 0.0) | (d3 > 0.0)
    has_neg = (d1 < 0.0) | (d2 < 0.0) | (d3 < 0.0)
    return ~(has_pos & has_neg)


def _arc_totals_by_probing(vertices, r):
    """Total central angle of (triangle intersect S_r), by edge roots and probes.

    ``vertices`` is an (n, 3, 2) array of triangles (O, A, B), ``r`` their
    radii.  The edges' crossings with the circle, in [0, 1] of each edge's
    parameter, cut it into arcs; an arc counts when the circle point at
    its middle angle lies in the closed triangle.  With no crossing the
    circle lies wholly inside or outside, probed at angle 0.  The
    arithmetic and the order of each triangle's sum are those of the
    one-triangle loop kept in the tests, and the angles, cosines and sines
    come from ``math`` as there (``np.arctan2`` differs from
    ``math.atan2`` in the last bit on a few percent of inputs), so each
    total is bitwise the loop's.
    """
    n = r.shape[0]
    roots = np.full((n, 2 * len(_EDGES)), math.inf)
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
            rows = np.flatnonzero(crosses & (0.0 < u) & (u < 1.0))
            ys, xs = (py + u * dy)[rows].tolist(), (px + u * dx)[rows].tolist()
            roots[rows, 2 * k + m] = list(map(math.atan2, ys, xs))
    roots.sort(axis=1)
    count = np.count_nonzero(roots < math.inf, axis=1)
    col = np.arange(roots.shape[1])
    # each arc runs to the next root; the last one to the first, a turn on
    ends = np.concatenate((roots[:, 1:], roots[:, :1]), axis=1)
    ends = np.where(col == (count - 1)[:, None], roots[:, :1] + _TWO_PI, ends)
    rows, cols = np.nonzero((col < count[:, None]) & ~(ends <= roots))
    starts, ends = roots[rows, cols], ends[rows, cols]
    bare = np.flatnonzero(count == 0)
    probe_rows = np.concatenate((rows, bare))
    phi = np.concatenate((0.5 * (starts + ends), np.zeros(bare.shape[0])))
    inside = _circle_points_in_triangles(vertices[probe_rows], r[probe_rows], phi)
    n_arcs = rows.shape[0]
    counted = inside[:n_arcs]
    lengths = np.zeros(roots.shape)
    lengths[rows[counted], cols[counted]] = (ends - starts)[counted]
    total = np.zeros(n)
    for j in col:  # column by column: each triangle sums its arcs in root order
        total += lengths[:, j]
    total[bare] = np.where(inside[n_arcs:], _TWO_PI, 0.0)
    return total


def _check_arc_consistency(samples, rng):
    r = rng.uniform(0.05, 0.5, samples)
    delta = rng.uniforms(samples) * np.minimum(_HEIGHT_CAP, 0.9 * r)
    alpha = rng.uniform(0.0, math.pi, samples)
    t = rng.uniforms(samples)
    totals = np.empty(samples)
    vertices = np.empty((samples, 3, 2))
    for i in range(samples):
        tri = geom.make_triangle(alpha[i], delta[i], t[i])
        totals[i] = sum(arc.theta for arc in geom.intersection_arcs(tri, r[i]))
        vertices[i] = [(p.x, p.y) for p in tri.vertices]
    worst = max(0.0, float(np.max(np.abs(totals - _arc_totals_by_probing(vertices, r)))))
    spec = f"{samples} random triangles; arc angles vs edge-circle root finding"
    return worst, spec


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

# SectorMeasure has no function here: run_checks draws its sets and runs
# each as a task of its own.
_CHECKS = {
    CheckId.ISOSCELES_MINIMALITY: (_check_isosceles_minimality, 10_000, 1e-10),
    CheckId.H_MIN_AT_ZERO: (_check_h_min_at_zero, 10_000, 1e-12),
    CheckId.EXT_DISJOINT: (_check_ext_disjoint, 10_000, 0.0),
    CheckId.INT_DISJOINT: (_check_int_disjoint, 10_000, 0.0),
    CheckId.JGAMMA_RATIO: (_check_jgamma_ratio, 10_000, 1e-9),
    CheckId.C_MIN: (_check_c_min, 10_000, 1e-9),
    CheckId.F_ARGMAX: (_check_f_argmax, 100_000, 1e-6),
    CheckId.SECTOR_MEASURE: (None, 1_000_000, 3.0),
    CheckId.ARC_CONSISTENCY: (_check_arc_consistency, 10_000, 1e-9),
}


# Largest accepted ``samples``.  The disjointness checks hold about 260
# bytes per pair at their peak and IsoscelesMinimality, ArcConsistency
# and FArgmax about 50 bytes per sample, so a run at the limit stays near
# 1 GB; the largest default, SectorMeasure's 10**6, sits well below it.
MAX_SAMPLES = 4_000_000


def _worker_count(n_tasks):
    """Worker processes for ``n_tasks`` tasks: one per CPU available."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return min(cpus, n_tasks)


def _call(task):
    func, args = task
    return func(*args)


def _map_tasks(tasks):
    """The results of ``tasks``, (func, args) pairs, in task order.

    They run on one pool of forked worker processes, or in-process where
    there is one worker or no "fork" start method.  No worker outlives the
    call, whether it returns or raises.  The pool is a ProcessPoolExecutor
    because a worker that dies (say, killed for memory) breaks it with an
    error, where ``multiprocessing.Pool.map`` would wait forever; that
    error comes out as WorkerLost.
    """
    workers = _worker_count(len(tasks))
    if workers > 1:
        # imported here so that importing the package does not pay for them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        if "fork" in multiprocessing.get_all_start_methods():
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            try:
                return list(pool.map(_call, tasks))
            except BrokenProcessPool as exc:
                raise WorkerLost(f"a check's worker process ended without a result: {exc}") from exc
            finally:
                # after an error, tasks not yet started are dropped
                pool.shutdown(cancel_futures=True)
    return list(map(_call, tasks))


def run_checks(
    checks: list[CheckId],
    samples: int | None = None,
    seed: int = DEFAULT_SEED,
) -> list[CheckReport]:
    """Run the given checks over seed-derived samples or grids; one report each.

    ``samples`` counts configurations for the sampling checks, grid points
    for the scan checks, and per-set draws for SectorMeasure; it must lie
    in [100, MAX_SAMPLES], or DomainError is raised before any draw.
    Failures are reported in the returned records, never raised; an error
    raised inside a check comes out of this call, and a worker process
    that dies comes out as WorkerLost.
    """
    sizes = []
    for check in checks:
        default_samples = _CHECKS[check][1]
        n = default_samples if samples is None else as_integer(samples, "samples")
        if not 100 <= n <= MAX_SAMPLES:
            raise DomainError(f"samples must be in [100, {MAX_SAMPLES}], got {n}")
        sizes.append((check, n))
    # whole checks first, then SectorMeasure's sets, drawn here in stream order
    plan, check_tasks, set_tasks = [], [], []
    for check, n in sizes:
        rng = CounterRng(seed, stream=1 + list(CheckId).index(check))
        sets = None
        if check is CheckId.SECTOR_MEASURE:
            sets = _sector_sets(rng)
            set_tasks.extend((_sector_estimate, (s, n)) for s in sets)
        else:
            check_tasks.append((_CHECKS[check][0], (n, rng)))
        plan.append((check, n, sets))
    results = _map_tasks(check_tasks + set_tasks)
    verdicts = iter(results[: len(check_tasks)])
    estimates = iter(results[len(check_tasks):])
    reports = []
    for check, n, sets in plan:
        if sets is None:
            violation, spec = next(verdicts)
        else:
            violation, spec = _sector_verdict(n, sets, [next(estimates) for _ in sets])
        violation = float(max(0.0, violation))
        tol = _CHECKS[check][2]
        reports.append(CheckReport(
            id=check,
            samples=n,
            grid_spec=spec,
            max_violation=violation,
            tolerance=tol,
            passed=violation <= tol,
            seed=seed,
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
    predicate does not change across the bracket.
    """
    if not lo < hi:
        raise BracketError(f"need lo < hi, got [{lo}, {hi}]")
    if not tol > 0.0:
        raise DomainError(f"tol must be > 0, got {tol}")
    fractions = _h_fractions(_H_THRESHOLD_GRID)

    def min_at_zero(r: float) -> bool:
        limit = geom.exterior_angle_ratio(0.0, r)
        return all(
            geom.exterior_angle_ratio(frac * _H_CAP_RATIO * r, r) >= limit - 1e-13
            for frac in fractions
        )

    p_lo, p_hi = min_at_zero(lo), min_at_zero(hi)
    if p_lo == p_hi:
        raise BracketError(
            f"predicate is {p_lo} at both ends of [{lo}, {hi}]; no transition bracketed"
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
