"""Oracle tests: generator reproducibility, pinned draws and buffer draws
against the formula, SectorMeasure's lattice cloud and its blocks, the
SectorMeasure union count against the reference kernel and against the
wrapped rule ulp by ulp, SectorMeasure against a mask-per-union
reference, errors, dead workers and cut result streams on the forked
workers, the exact polar disjointness test against the sampler it
replaced and on edge cases, planted defects the disjointness checks must
catch, ArcConsistency's vectorised probing against its loop and its
numpy fold of the library's arcs against the per-row one, SectorMeasure's
family-wise z, a matrix of planted library defects and the check each
must fail, the check dispatcher at reduced sizes, and threshold
location."""

from __future__ import annotations

import cmath
import errno
import gc
import math
import os
import pickle
import signal
import statistics
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest

from kakeya import bounds, geom, oracle
from kakeya.errors import BracketError, DomainError, WorkerLost
from kakeya.oracle import CheckId
from kakeya.rng import CounterRng, mix64


# ---------------------------------------------------------------------------
# Counter generator
# ---------------------------------------------------------------------------

def test_rng_is_reproducible_and_counter_addressed():
    a = CounterRng(42, stream=3).uniforms(1000)
    b = CounterRng(42, stream=3).uniforms(1000)
    assert np.array_equal(a, b)
    split = CounterRng(42, stream=3)
    first, second = split.uniforms(400), split.uniforms(600)
    assert np.array_equal(np.concatenate([first, second]), a)


def test_rng_streams_and_seeds_differ():
    a = CounterRng(42, stream=0).uniforms(100)
    b = CounterRng(42, stream=1).uniforms(100)
    c = CounterRng(43, stream=0).uniforms(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_seed_and_stream_lie_in_0_to_2_pow_64():
    # reducing them mod 2**64 would let two seeds name one stream
    CounterRng((1 << 64) - 1, stream=(1 << 64) - 1).raw(1)
    for seed, stream in ((-1, 0), (1 << 64, 0), (0, -1), (0, 1 << 64)):
        with pytest.raises(DomainError):
            CounterRng(seed, stream)


# Words and doubles at (seed, stream, counter), recorded from the
# allocating implementation of the generator; the in-place one must draw
# the same bits.
PINNED_DRAWS = [
    ((7, 0, 0),
     (0xB78B9F38A670E787, 0x863B891F4C0ABD4F, 0x4D58FBD282EAF415),
     ("0x1.6f173e714ce1cp-1", "0x1.0c77123e98157p-1", "0x1.3563ef4a0babcp-2")),
    ((7, 8, 1000),
     (0x16D30FFD649D12CC, 0x2533B2B0CDB2F2F6, 0x6C0FE730D2AA1F49),
     ("0x1.6d30ffd649d10p-4", "0x1.299d95866d978p-3", "0x1.b03f9cc34aa86p-2")),
    ((42, 3, 123456789),
     (0xE9C380B4D179D349, 0x78DBAE3BC00D41C7, 0x48D2870D14FC1E01),
     ("0x1.d3870169a2f3ap-1", "0x1.e36eb8ef00350p-2", "0x1.234a1c3453f06p-2")),
    ((0, 0, (1 << 40) + 5),
     (0x4388A0161369AA6B, 0xDEA5E2674FDED791, 0xC076E717CC87F49F),
     ("0x1.0e2280584da6ap-2", "0x1.bd4bc4ce9fbdap-1", "0x1.80edce2f990fep-1")),
    ((1 << 63, 9, (1 << 32) - 2),
     (0xA9983C8A5C020AB3, 0x00053739BFA703FA, 0xC500DEC322AFC8D2),
     ("0x1.53307914b8041p-1", "0x1.4dce6fe9c0000p-14", "0x1.8a01bd86455f9p-1")),
]


@pytest.mark.parametrize("address, words, doubles", PINNED_DRAWS)
def test_rng_draws_are_pinned(address, words, doubles):
    seed, stream, counter = address
    rng = CounterRng(seed, stream)
    rng.seek(counter)
    assert [int(w) for w in rng.raw(3)] == list(words)
    rng.seek(counter)
    assert [float(u).hex() for u in rng.uniforms(3)] == list(doubles)


def test_rng_uniform_is_pinned():
    rng = CounterRng(7, 8)
    rng.seek(1000)
    got = rng.uniform(-0.3, 1.2, 3)
    assert [float(u).hex() for u in got] == [
        "-0x1.5481a685af09ap-3", "-0x1.4ff40c3984064p-4", "0x1.552c37f1bcc95p-2",
    ]
    # the in-place scaling rounds like the textbook expression
    rng.seek(1000)
    assert np.array_equal(got, -0.3 + (1.2 - -0.3) * rng.uniforms(3))


def test_rng_seek_agrees_with_sequential_draws():
    sequential = CounterRng(11, stream=5).raw(5000)
    rng = CounterRng(11, stream=5)
    for lo, hi in ((4000, 5000), (0, 1), (1, 2500), (2500, 4000), (123, 124)):
        rng.seek(lo)
        assert np.array_equal(rng.raw(hi - lo), sequential[lo:hi])
    with pytest.raises(DomainError):
        rng.seek(-1)


def test_rng_mix64_works_in_place():
    z = np.array([1, 0], dtype=np.uint64)
    assert mix64(z) is z
    assert [int(w) for w in z] == [0x5692161D100B05E5, 0]


GOLDEN = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1


def _mix64_int(z):
    """The SplitMix64 finalizer on one Python int."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def _word_int(seed, stream, counter):
    """output(counter) of (seed, stream), in Python ints."""
    base = _mix64_int((seed + stream * GOLDEN) & MASK)
    return _mix64_int((base + counter * GOLDEN) & MASK)


RNG_ADDRESSES = [(7, 0), ((1 << 63) - 1, 4), (1 << 63, 9), ((1 << 63) + 1, 0), (MASK, 2)]
# odd sizes, SectorMeasure's block of 2**14 words, and sizes either side of it
RNG_SIZES = [1, 3, 777, (1 << 14) - 1, 1 << 14, (1 << 14) + 1, 3 * (1 << 14) + 5]


@pytest.mark.parametrize("seed, stream", RNG_ADDRESSES)
def test_rng_raw_into_a_buffer_is_the_formula(seed, stream):
    for n in RNG_SIZES:
        for counter in (0, 12345, (1 << 64) - 2 * n):
            rng = CounterRng(seed, stream)
            rng.seek(counter)
            words = rng.raw(n)
            assert words.dtype == np.uint64 and words.shape == (n,)
            for i in {0, n // 2, n - 1}:
                assert int(words[i]) == _word_int(seed, stream, counter + i), (n, counter, i)


@pytest.mark.parametrize("seed, stream", RNG_ADDRESSES)
def test_rng_doubles_into_a_buffer_are_the_formula(seed, stream):
    for n in RNG_SIZES:
        rng = CounterRng(seed, stream)
        rng.seek(99)
        words = rng.raw(n)
        rng.seek(99)
        u = rng.uniforms(n)
        assert u.dtype == np.float64 and u.shape == (n,)
        assert np.array_equal(u, (words >> np.uint64(11)).astype(np.float64) * 2.0**-53)
        rng.seek(99)
        assert np.array_equal(rng.uniform(-0.3, 1.2, n), -0.3 + (1.2 - -0.3) * u)


def test_rng_uniform_with_a_subnormal_step_is_the_two_step_formula():
    # (hi - lo) * 2**-53 is subnormal for these spans, where folding the
    # two scalings into one would round differently
    rng = CounterRng(3, stream=1)
    for lo, hi in ((0.0, 1e-300), (0.0, 5e-324), (-1e-310, 1e-310), (1.0, 1.0 + 2.0**-52),
                   (-1e307, 1e307)):
        rng.seek(0)
        got = rng.uniform(lo, hi, 4097)
        rng.seek(0)
        want = lo + (hi - lo) * rng.uniforms(4097)
        assert got.tobytes() == want.tobytes(), (lo, hi)


def test_rng_draws_up_to_the_last_counter_and_no_further():
    rng = CounterRng(7, stream=2)
    rng.seek(MASK - 2)
    assert [int(w) for w in rng.raw(3)] == [_word_int(7, 2, MASK - k) for k in (2, 1, 0)]
    for counter, n in ((MASK - 2, 4), (MASK + 1, 1), (1 << 70, 0)):
        rng.seek(counter)
        with pytest.raises(DomainError, match="run past 2"):
            rng.uniforms(n)


def test_rng_uniform_range():
    vals = CounterRng(7).uniforms(100_000)
    assert vals.min() >= 0.0
    assert vals.max() < 1.0
    assert abs(vals.mean() - 0.5) < 0.005


# ---------------------------------------------------------------------------
# SectorMeasure's lattice cloud
# ---------------------------------------------------------------------------

def _lattice_points(bbox, samples, seed):
    """The cloud's points in ``bbox``: point i from word i of CounterRng(seed, 0),
    x from its high 32 bits and y from its low 32 bits, on a 2**-32 lattice."""
    xmin, ymin, xmax, ymax = bbox
    words = CounterRng(seed, stream=0).raw(samples)
    high = (words >> np.uint64(32)).astype(np.float64)
    low = (words & np.uint64(0xFFFFFFFF)).astype(np.float64)
    return xmin + high * ((xmax - xmin) * 2.0**-32), ymin + low * ((ymax - ymin) * 2.0**-32)


def _reference_disk_angles(samples, seed):
    """The sorted, wrapped arctan2 angles of the cloud's points in the unit disk."""
    xs, ys = _lattice_points((-1.0, -1.0, 1.0, 1.0), samples, seed)
    ang = np.arctan2(ys, xs)[xs * xs + ys * ys <= 1.0]
    return np.sort(np.where(ang < 0.0, ang + 2.0 * math.pi, ang))


@pytest.mark.parametrize("seed", [21, (1 << 63) - 1, 1 << 63])
def test_disk_angles_are_the_stream_words_split_in_halves(seed):
    # five whole blocks and an odd partial one
    samples = 5 * (1 << 14) + 777
    got = oracle._disk_angles(samples, seed)
    want = _reference_disk_angles(samples, seed)
    assert 0 < got.shape[0] < samples
    assert got.tobytes() == want.tobytes()


def test_disk_angles_do_not_depend_on_the_block_size(monkeypatch):
    want = _reference_disk_angles(123_457, 5)
    monkeypatch.setattr(oracle, "_CLOUD_BLOCK", 1000)
    assert oracle._disk_angles(123_457, 5).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# SectorMeasure union counts
# ---------------------------------------------------------------------------

def _reference_sector_region(starts, stops, radius):
    """The original sector membership: hypot, arctan2 and a searchsorted
    lookup of the last interval start at or below each angle."""

    def region(xs, ys):
        rad = np.hypot(xs, ys)
        ang = np.arctan2(ys, xs)
        ang = np.where(ang < 0.0, ang + 2.0 * math.pi, ang)
        idx = np.searchsorted(starts, ang, side="right")
        inside_angles = (idx > 0) & (ang <= stops[np.maximum(idx - 1, 0)])
        return (rad <= radius) & inside_angles

    return region


def test_union_hits_match_the_reference_kernel():
    # Half of the sets take their interval ends from the angles of their
    # own points, so those points sit exactly on an endpoint; some sets
    # have touching or zero-length intervals.  Both sides test the wrapped
    # angle a + 2pi, so they agree at every point, ends included.
    rng = CounterRng(2024, stream=1)
    n_sets, n_points = 24, 50_000
    on_end = 0
    for k in range(n_sets):
        xs = rng.uniform(-1.0, 1.0, n_points)
        ys = rng.uniform(-1.0, 1.0, n_points)
        ang = np.arctan2(ys, xs)
        ang = np.where(ang < 0.0, ang + 2.0 * math.pi, ang)
        disk = np.sort(ang[np.hypot(xs, ys) <= 1.0])
        n_ends = 2 * (1 + k % 3)
        if k % 2:
            ends = disk[(rng.raw(n_ends) % np.uint64(disk.shape[0])).astype(np.int64)]
        else:
            ends = rng.uniform(0.0, 2.0 * math.pi, n_ends)
        ends = np.sort(ends)
        if k % 4 == 1:
            ends[2::2] = ends[1:-1:2]  # each interval starts where the last stops
        elif k % 4 == 3:
            ends[1] = ends[0]  # a zero-length first interval
        starts, stops = ends[0::2], ends[1::2]
        got = oracle._union_hits(disk, starts, stops)
        want = int(np.count_nonzero(_reference_sector_region(starts, stops, 1.0)(xs, ys)))
        assert got == want, f"set {k}"
        on_end += int(np.count_nonzero(np.isin(disk, ends)))
    assert n_sets * n_points >= 1_000_000
    assert on_end >= n_sets


PI = math.pi
TWO_PI = 2.0 * math.pi


def _below(x, k=1):
    for _ in range(k):
        x = math.nextafter(x, -math.inf)
    return x


def _above(x, k=1):
    for _ in range(k):
        x = math.nextafter(x, math.inf)
    return x


# Interval sets (starts, stops) for the threshold sweep: touching and
# zero-length intervals, ends at and next to 0, pi and 2pi, and ends that
# wrap to within an ulp of each other.
THRESHOLD_SETS = [
    ([0.0], [0.0]),
    ([0.0], [_below(TWO_PI)]),
    ([0.0, 1.0], [1.0, 2.0]),
    ([5e-324], [1e-300]),
    ([PI], [PI]),
    ([_below(PI)], [_above(PI)]),
    ([3.0, PI], [PI, 4.0]),
    ([_above(PI)], [_above(PI, 3)]),
    ([1.0, _above(PI)], [PI, 5.0]),
    ([_below(TWO_PI)], [_below(TWO_PI)]),
    ([_below(TWO_PI, 5)], [_below(TWO_PI, 2)]),
    ([TWO_PI - 1e-12, ], [_below(TWO_PI)]),
    ([0.5, 2.0, 6.0], [2.0, 2.0, 6.25]),
    ([4.0], [4.0]),
    ([_below(4.0)], [_above(4.0)]),
    ([PI + 1e-15, 5.5], [5.5, TWO_PI - 1e-15]),
    # ends at exactly 2pi, which every negative angle near 0 wraps to
    ([TWO_PI], [TWO_PI]),
    ([0.0], [TWO_PI]),
    ([PI], [TWO_PI]),
    ([1.0, 5.0], [2.0, TWO_PI]),
    ([_below(TWO_PI)], [TWO_PI]),
    # ends one float above pi, the first wrap of a negative angle past pi
    ([_above(PI)], [_above(PI)]),
    ([0.0], [_above(PI)]),
    ([_above(PI)], [5.0]),
    ([PI, _above(PI, 2)], [_above(PI), TWO_PI]),
    # ends at and around 4.0, where the wrapped angles' float spacing doubles
    ([_below(4.0, 2)], [4.0]),
    ([4.0], [_above(4.0, 2)]),
    ([_below(4.0)], [_below(4.0)]),
    ([_above(4.0)], [_above(4.0)]),
    ([3.0, _above(4.0)], [_below(4.0), 5.0]),
    # ends within 1e-16 of 2pi, which round to 2pi, and ends a few floats below
    ([TWO_PI - 1e-16], [TWO_PI + 1e-16]),
    ([_below(TWO_PI, 3), _below(TWO_PI)], [_below(TWO_PI, 2), TWO_PI - 1e-16]),
]


def _random_threshold_sets(n, seed):
    """Seeded unions of 1 to 3 intervals on [0, 2pi]; about a quarter of
    the ends are moved to within 3 floats of pi, 4.0 or 2pi."""
    gen = np.random.default_rng(seed)
    sets = []
    for _ in range(n):
        ends = gen.uniform(0.0, TWO_PI, 2 * int(gen.integers(1, 4)))
        for i in np.flatnonzero(gen.random(ends.size) < 0.25):
            x, k = (PI, 4.0, TWO_PI)[gen.integers(3)], int(gen.integers(-3, 4))
            ends[i] = min(_above(x, k) if k > 0 else _below(x, -k), TWO_PI)
        ends.sort()
        sets.append((list(ends[0::2]), list(ends[1::2])))
    return sets


THRESHOLD_SETS += _random_threshold_sets(200, seed=7)


def _wrapped_reference_mask(ang, starts, stops):
    """The rule the thresholds stand for: wrap a < 0 to a + 2pi, then test."""
    wrapped = np.where(ang < 0.0, ang + TWO_PI, ang)
    inside = np.zeros(ang.shape, dtype=bool)
    for s, e in zip(starts, stops):
        inside |= (s <= wrapped) & (wrapped <= e)
    return inside


@pytest.mark.parametrize("starts, stops", THRESHOLD_SETS)
def test_raw_angle_thresholds_match_the_wrapped_rule_ulp_by_ulp(starts, stops):
    # every raw angle arctan2 can give within 8 ulps of each interval end
    # and of its image less 2pi, plus the ends of arctan2's range and both
    # zeros
    centers = [PI, -PI, 0.0, -0.0]
    centers += [t - d for t in (*starts, *stops) for d in (0.0, TWO_PI)]
    angles = {PI, -PI, 0.0, -0.0}
    for c in centers:
        for k in range(9):
            angles.update((_below(c, k), _above(c, k)))
    ang = np.array(sorted(a for a in angles if -PI <= a <= PI))
    wrapped = np.where(ang < 0.0, ang + TWO_PI, ang)
    order = np.argsort(wrapped, kind="stable")
    wrapped, ang = wrapped[order], ang[order]
    inside = _wrapped_reference_mask(ang, np.array(starts), np.array(stops))
    # the count over each prefix of the sorted angles pins every angle's
    # membership, not just the total
    got = [oracle._union_hits(wrapped[:k], np.array(starts), np.array(stops))
           for k in range(ang.shape[0] + 1)]
    want = [0, *np.cumsum(inside).tolist()]
    assert got == want, ang[np.flatnonzero(np.diff(got) != inside)]


def test_arctan2_stays_in_the_range_the_thresholds_cover():
    # the wrapped angles a + 2pi (a < 0) lie in [0, 2pi], the range of the
    # unions' ends, only if arctan2's raw angles lie in [-pi, pi]
    tiny = 5e-324
    ys = np.array([0.0, -0.0, tiny, -tiny, 1.0, -1.0, 1e-300, -1e-300])
    for x in (-1.0, -1e300, -tiny, 0.0, -0.0):
        ang = np.arctan2(ys, np.full(ys.shape, x))
        assert np.all(np.abs(ang) <= PI)


# ---------------------------------------------------------------------------
# SectorMeasure on the process pool
# ---------------------------------------------------------------------------

def _reference_sector_record(samples, seed, factor=1.0):
    """The SectorMeasure record ``run_check`` must give: the check's own
    draws, with each union counted by the wrapped rule's mask over the
    same lattice cloud, without searchsorted.  ``factor`` keeps that share
    of each interval, as the planted defect below does."""
    check = CheckId.SECTOR_MEASURE
    rng = CounterRng(seed, stream=1 + list(CheckId).index(check))
    unions = []
    for _ in range(100):
        n_intervals = 1 + int(rng.raw(1)[0] % np.uint64(3))
        ends = np.sort(rng.uniform(0.0, 2.0 * math.pi, 2 * n_intervals))
        unions.append((ends[0::2], ends[1::2]))
    xs, ys = _lattice_points((-1.0, -1.0, 1.0, 1.0), samples, int(rng.raw(1)[0]))
    ang = np.arctan2(ys, xs)[xs * xs + ys * ys <= 1.0]
    worst = 0.0
    for starts, stops in unions:
        hits = np.count_nonzero(_wrapped_reference_mask(ang, starts, starts + factor * (stops - starts)))
        p = float(np.sum(stops - starts)) / 8.0
        worst = max(worst, abs(hits / samples - p) / math.sqrt(p * (1.0 - p) / samples))
    spec = (
        f"100 random interval unions in [0, 2pi), counted on one cloud of {samples} "
        "lattice points in [-1, 1]^2; violation in family-wise (Sidak) sigma units"
    )
    return oracle.CheckReport(
        id=check, samples=samples, grid_spec=spec, max_violation=oracle._family_wise_z(worst, 100),
        tolerance=oracle._CHECKS[check][2], seed=seed,
    )


def _shrink_sector_intervals(monkeypatch, factor):
    """Plant a defect: the union count keeps ``factor`` of each interval."""
    real = oracle._union_hits
    monkeypatch.setattr(
        oracle, "_union_hits",
        lambda angles, starts, stops: real(angles, starts, starts + factor * (stops - starts)),
    )


def test_sector_measure_pool_gives_the_serial_records(monkeypatch):
    for seed in range(1, 21):
        want = _reference_sector_record(2000, seed)
        got = oracle.run_check(CheckId.SECTOR_MEASURE, samples=2000, seed=seed)
        assert got == want, f"seed {seed}"
    # the comparison covers failing records too
    _shrink_sector_intervals(monkeypatch, 0.9)
    for seed in (1, 2, 7):
        want = _reference_sector_record(2000, seed, factor=0.9)
        got = oracle.run_check(CheckId.SECTOR_MEASURE, samples=2000, seed=seed)
        assert got == want, f"seed {seed}"
        assert not got.passed


def test_sector_measure_false_alarms_are_rare_on_a_correct_kernel():
    # a family-wise 3 sigma fails at most 0.27% of seeds on a correct
    # kernel; the largest of 100 |z| against 3.0, each union with a cloud
    # of its own, failed 7 of these 50
    failed = [
        seed for seed in range(1, 51)
        if not oracle.run_check(CheckId.SECTOR_MEASURE, samples=2000, seed=seed).passed
    ]
    assert len(failed) <= 1, failed


def test_sector_measure_passes_seeds_1_to_20_at_full_size():
    # the unions share one cloud, so their z values are dependent; Sidak's
    # inequality keeps the family-wise 3 sigma at most 0.27% per run
    worst = {}
    for seed in range(1, 21):
        report = oracle.run_check(CheckId.SECTOR_MEASURE, samples=1_000_000, seed=seed)
        worst[seed] = report.max_violation
    assert max(worst.values()) <= 3.0, worst


def test_sector_measure_memory_is_a_few_words_per_sample():
    # the sorted disk angles, one float per kept point, and one block of
    # the lattice cloud at a time
    samples = 400_000
    tracemalloc.start()
    try:
        oracle.run_check(CheckId.SECTOR_MEASURE, samples=samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * samples, peak / samples


def test_family_wise_z_is_the_sidak_quantile():
    # Sidak: P(max of n |z| >= z) = 1 - (1 - erfc(z/sqrt 2))^n, here in
    # exact rational arithmetic, mapped back to the one-test z with that
    # two-sided p-value
    normal = statistics.NormalDist()
    for z, n in ((2.78, 100), (3.0, 100), (3.5, 100), (5.0, 100), (7.0, 100), (2.0, 7)):
        p = float(1 - (1 - Fraction(math.erfc(z / math.sqrt(2.0)))) ** n)
        assert oracle._family_wise_z(z, n) == pytest.approx(-normal.inv_cdf(0.5 * p), rel=1e-9)
    assert oracle._family_wise_z(3.0, 1) == pytest.approx(3.0, rel=1e-12)
    assert oracle._family_wise_z(0.0, 100) == 0.0
    assert oracle._family_wise_z(math.inf, 100) == math.inf
    # it keeps the order of the largest |z|, and never exceeds it
    zs = np.linspace(0.0, 30.0, 301)
    fw = [oracle._family_wise_z(z, 100) for z in zs]
    assert all(b >= a for a, b in zip(fw, fw[1:])) and all(fw <= zs)


@pytest.mark.parametrize("workers", [1, 2, 7])
def test_sector_measure_records_do_not_depend_on_the_worker_count(monkeypatch, workers):
    monkeypatch.setattr(oracle, "_worker_count", lambda n_tasks: workers)
    for seed in (2, 4, 7, 16):
        got = oracle.run_check(CheckId.SECTOR_MEASURE, samples=2000, seed=seed)
        assert got == _reference_sector_record(2000, seed), f"seed {seed}"


def test_worker_count_is_capped_by_the_task_count():
    assert oracle._worker_count(1) == 1
    assert 1 <= oracle._worker_count(100) <= 100


def _assert_no_child_left():
    # multiprocessing.active_children() sees only the children it started
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sector_measure_estimate_error_comes_out_typed_and_workers_end(monkeypatch):
    # SectorMeasure's worker fails at its 37th union, while CMin runs on
    # the other worker
    checks = [CheckId.C_MIN, CheckId.SECTOR_MEASURE]
    planted = BracketError("planted in the 37th union")
    real = oracle._union_hits
    calls = []

    def fail_37th(angles, starts, stops):
        calls.append(None)
        if len(calls) == 37:
            raise planted
        return real(angles, starts, stops)

    monkeypatch.setattr(oracle, "_worker_count", lambda n_tasks: 2)
    monkeypatch.setattr(oracle, "_union_hits", fail_37th)
    with pytest.raises(BracketError) as info:
        oracle.run_checks(checks, samples=500, seed=7)
    # a worker process raised it, so the error is a copy of the planted one
    assert info.value is not planted and type(info.value) is BracketError
    assert str(info.value) == str(planted)
    assert calls == []
    _assert_no_child_left()
    monkeypatch.setattr(oracle, "_union_hits", real)
    assert all(report.passed for report in oracle.run_checks(checks, samples=500, seed=7))
    _assert_no_child_left()


def _lose_a_worker(monkeypatch, death):
    """WorkerLost from a run whose SectorMeasure worker dies by ``death()``."""
    monkeypatch.setattr(oracle, "_worker_count", lambda n_tasks: 2)
    monkeypatch.setattr(oracle, "_union_hits", lambda angles, starts, stops: death())
    with pytest.raises(WorkerLost, match="worker process ended without a result") as info:
        oracle.run_checks([CheckId.C_MIN, CheckId.SECTOR_MEASURE], samples=500, seed=7)
    _assert_no_child_left()
    return str(info.value)


def test_a_worker_that_dies_breaks_the_run_instead_of_hanging(monkeypatch):
    assert "(exit status 1)" in _lose_a_worker(monkeypatch, lambda: os._exit(1))


def test_a_killed_worker_is_named_by_its_signal(monkeypatch):
    # as a worker killed for memory would be
    message = _lose_a_worker(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    assert f"(signal {signal.SIGKILL.value})" in message


def test_a_failed_fork_stops_and_reaps_the_workers_already_started(monkeypatch):
    # the second fork fails while the first worker sleeps in its task: the
    # error comes out at once, and that worker is killed and reaped
    real_fork = os.fork
    forks = []

    def fork_once():
        if forks:
            raise OSError(errno.EAGAIN, "planted: no second worker")
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(oracle, "_worker_count", lambda n_tasks: 2)
    monkeypatch.setattr(os, "fork", fork_once)
    started = time.monotonic()
    with pytest.raises(OSError, match="planted"):
        oracle._map_tasks([(time.sleep, (60.0,)), (time.sleep, (60.0,))])
    assert time.monotonic() - started < 30.0
    _assert_no_child_left()
    assert gc.get_freeze_count() == 0


def test_a_cut_result_stream_is_a_lost_worker(monkeypatch):
    # every record loses its last bytes on the way to the parent
    real = pickle.dumps
    monkeypatch.setattr(oracle, "_worker_count", lambda n_tasks: 2)
    monkeypatch.setattr(pickle, "dumps", lambda record: real(record)[:-2])
    with pytest.raises(WorkerLost, match="worker process ended without a result"):
        oracle.run_checks([CheckId.C_MIN, CheckId.F_ARGMAX], samples=500, seed=7)
    _assert_no_child_left()


def test_an_exception_that_does_not_pickle_comes_out_as_the_pickling_error(monkeypatch):
    def fail(angles, starts, stops):
        raise BracketError(threading.Lock())

    monkeypatch.setattr(oracle, "_worker_count", lambda n_tasks: 2)
    monkeypatch.setattr(oracle, "_union_hits", fail)
    with pytest.raises(TypeError, match="cannot pickle"):
        oracle.run_checks([CheckId.C_MIN, CheckId.SECTOR_MEASURE], samples=500, seed=7)
    _assert_no_child_left()


@pytest.mark.parametrize("workers", [2, 7])
def test_all_checks_give_the_in_process_records_on_a_pool(monkeypatch, workers):
    for seed in (2, 4, 7, 16):
        monkeypatch.setattr(oracle, "_worker_count", lambda n_tasks: 1)
        want = oracle.run_checks(list(CheckId), samples=1000, seed=seed)
        monkeypatch.setattr(oracle, "_worker_count", lambda n_tasks: workers)
        got = oracle.run_checks(list(CheckId), samples=1000, seed=seed)
        assert [r.id for r in want] == list(CheckId)
        assert got == want, f"seed {seed}"
    _assert_no_child_left()
    assert gc.get_freeze_count() == 0  # the parent's objects are collectable again


def test_the_claim_order_is_a_permutation_of_the_checks():
    assert sorted(oracle._CHECKS, key=list(CheckId).index) == list(CheckId)


def test_run_checks_reports_in_the_given_order():
    order = [CheckId.SECTOR_MEASURE, CheckId.C_MIN, CheckId.F_ARGMAX, CheckId.H_MIN_AT_ZERO]
    reports = oracle.run_checks(order, samples=500, seed=3)
    assert [r.id for r in reports] == order
    assert reports == [oracle.run_check(c, samples=500, seed=3) for c in order]


def test_a_pool_reports_checks_listed_against_the_claim_order_in_the_given_order(monkeypatch):
    order = list(reversed(oracle._CHECKS))[::2]  # every other check, shortest first
    monkeypatch.setattr(oracle, "_worker_count", lambda n_tasks: 1)
    want = oracle.run_checks(order, samples=500, seed=3)
    monkeypatch.setattr(oracle, "_worker_count", lambda n_tasks: 2)
    got = oracle.run_checks(order, samples=500, seed=3)
    assert [r.id for r in got] == order and got == want
    _assert_no_child_left()


def test_run_checks_rejects_a_bad_count_before_drawing_or_forking(monkeypatch):
    assert oracle.run_checks([]) == []

    def boom(*args):
        raise AssertionError("drew or forked")

    monkeypatch.setattr(oracle, "_worker_count", boom)
    monkeypatch.setattr(CounterRng, "raw", boom)
    for samples in (99, oracle.MAX_SAMPLES + 1, 1000.0):
        with pytest.raises(DomainError):
            oracle.run_checks(list(CheckId), samples=samples)
    # an unknown check, after a valid one, is named and refused just as early
    for bad in ("CMin", None):
        for samples in (None, 1000):
            with pytest.raises(DomainError, match=f"unknown check {bad!r}"):
                oracle.run_checks([CheckId.SECTOR_MEASURE, bad], samples=samples)
    # so is a check named twice, which would give two records of one id
    with pytest.raises(DomainError, match="check CMin is named twice"):
        oracle.run_checks([CheckId.C_MIN, CheckId.SECTOR_MEASURE, CheckId.C_MIN])


# ---------------------------------------------------------------------------
# Exact disjointness test
# ---------------------------------------------------------------------------

# The sampled cross-hit counter the two disjointness checks used before
# the exact test, kept as a test-side reference: uniform points of each
# triangle on the requested side of the circle, counted when they fall
# strictly inside the other triangle.

def _vertices_arrays(alpha, delta, foot):
    """Needle endpoints for direction/height/foot arrays (foot unrestricted)."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    fx, fy = -delta * sa, delta * ca
    return fx - foot * ca, fy - foot * sa, fx + (1.0 - foot) * ca, fy + (1.0 - foot) * sa


def _in_triangle_strict(ax, ay, bx, by, px, py):
    """Strict interior test for points P against triangles (O, A, B)."""
    d1 = ax * py - ay * px
    d2 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    d3 = bx * (py - by) - by * (px - bx)  # cross(O - B, P - B)
    d3 = -d3
    pos = (d1 > 0) & (d2 > 0) & (d3 > 0)
    neg = (d1 < 0) & (d2 < 0) & (d3 < 0)
    return pos | neg


def _sample_in_triangles(ax, ay, bx, by, rng, n_points):
    """Uniform points in each triangle (O, A, B); shape (n_tri, n_points)."""
    n_tri = ax.shape[0]
    u = rng.uniforms(n_tri * n_points).reshape(n_tri, n_points)
    v = rng.uniforms(n_tri * n_points).reshape(n_tri, n_points)
    flip = u + v > 1.0
    u = np.where(flip, 1.0 - u, u)
    v = np.where(flip, 1.0 - v, v)
    px = u * ax[:, None] + v * bx[:, None]
    py = u * ay[:, None] + v * by[:, None]
    return px, py


def _count_cross_hits(r, v1, v2, rng, n_points, exterior):
    """Sampled points of one region landing in the other; both directions."""
    hits = 0
    chunk = 256
    for lo in range(0, r.shape[0], chunk):
        hi = min(lo + chunk, r.shape[0])
        rc = r[lo:hi][:, None]
        for (src, dst) in ((v1, v2), (v2, v1)):
            sax, say, sbx, sby = (arr[lo:hi] for arr in src)
            dax, day, dbx, dby = (arr[lo:hi][:, None] for arr in dst)
            px, py = _sample_in_triangles(sax, say, sbx, sby, rng, n_points)
            rad2 = px * px + py * py
            radial = rad2 > rc * rc if exterior else rad2 < rc * rc
            in_dst = _in_triangle_strict(dax, day, dbx, dby, px, py)
            hits += int(np.count_nonzero(radial & in_dst))
    return hits


def _weakened_disjoint_pairs(factor):
    """``oracle._disjoint_pairs`` with its gap test multiplied by ``factor``."""

    def pairs(samples, rng, r_lo):
        out = []
        have = 0
        while have < samples:
            n = max(1024, 2 * (samples - have))
            r = rng.uniform(r_lo, 0.5, n)
            cap = np.minimum(oracle._HEIGHT_CAP, 0.9 * r)
            d1 = rng.uniforms(n) * cap
            d2 = rng.uniforms(n) * cap
            a1 = rng.uniform(0.0, math.pi, n)
            a2 = rng.uniform(0.0, math.pi, n)
            g = np.abs(a1 - a2)
            gap = np.minimum(g, math.pi - g)
            ok = gap >= factor * (np.arcsin(d1 / r) + np.arcsin(d2 / r))
            out.append((r[ok], d1[ok], d2[ok], a1[ok], a2[ok]))
            have += int(np.count_nonzero(ok))
        return tuple(np.concatenate(parts)[:samples] for parts in zip(*out))

    return pairs


def _weak_only_pairs(check, factor, samples=10_000):
    """Needle pairs as ``check`` builds them, from a ``factor``-weakened gap
    test, kept only where the true gap test fails: the pairs that may
    overlap.  Returns (r, n1, n2, rng): the needles as (alpha, delta, foot)
    arrays, the rng positioned after them."""
    rng = CounterRng(oracle.DEFAULT_SEED, stream=1 + list(CheckId).index(check))
    r, d1, d2, a1, a2 = _weakened_disjoint_pairs(factor)(
        samples, rng, 0.05 if check is CheckId.EXT_DISJOINT else 0.1
    )
    g = np.abs(a1 - a2)
    weak = np.minimum(g, math.pi - g) < np.arcsin(d1 / r) + np.arcsin(d2 / r)
    r, d1, d2, a1, a2 = (arr[weak] for arr in (r, d1, d2, a1, a2))
    n = r.shape[0]
    if check is CheckId.EXT_DISJOINT:
        t1, t2 = rng.uniforms(n), rng.uniforms(n)
    else:
        # needles clear of the disk, as IntDisjoint places them
        m1 = np.sqrt(r * r - d1 * d1) * (1.0 + rng.uniforms(n)) + 1e-9
        m2 = np.sqrt(r * r - d2 * d2) * (1.0 + rng.uniforms(n)) + 1e-9
        t1 = np.where(rng.uniforms(n) < 0.5, -m1, 1.0 + m1)
        t2 = np.where(rng.uniforms(n) < 0.5, -m2, 1.0 + m2)
    return r, (a1, d1, t1), (a2, d2, t2), rng


def test_weakened_pair_copy_at_factor_one_is_the_oracle_stream():
    got = _weakened_disjoint_pairs(1.0)(3000, CounterRng(7, stream=3), 0.05)
    want = oracle._disjoint_pairs(3000, CounterRng(7, stream=3), 0.05)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize(
    "check, factor",
    [(CheckId.EXT_DISJOINT, 0.9), (CheckId.INT_DISJOINT, 0.5)],
    ids=["ExtDisjoint-x0.9", "IntDisjoint-x0.5"],
)
def test_exact_clipping_flags_every_sampled_cross_hit(check, factor):
    # IntDisjoint's pairs do not overlap at x0.9, so it is weakened
    # further to give the sampler something to find
    r, n1, n2, rng = _weak_only_pairs(check, factor)
    r, n1, n2 = r[:300], tuple(a[:300] for a in n1), tuple(a[:300] for a in n2)
    exterior = check is CheckId.EXT_DISJOINT
    flags = oracle._overlapping_pairs(r, oracle._wedges(*n1), oracle._wedges(*n2), exterior)
    v1, v2 = _vertices_arrays(*n1), _vertices_arrays(*n2)
    sampled = np.array([
        _count_cross_hits(
            r[i:i + 1], tuple(a[i:i + 1] for a in v1), tuple(a[i:i + 1] for a in v2),
            rng, 1000, exterior,
        ) > 0
        for i in range(r.shape[0])
    ])
    assert r.shape[0] >= 200
    assert np.count_nonzero(sampled) >= 10
    assert not np.any(sampled & ~flags), np.flatnonzero(sampled & ~flags)


def _wedge(a, b):
    """The triangle (O, A, B) as (psi, delta, lo, hi), from its vertices.

    psi is the direction of the unit normal n of line AB with n . A >= 0,
    delta = n . A, and [lo, hi] the directions of A and B written within
    pi of psi, in either order.
    """
    (ax, ay), (bx, by) = a, b
    cross = ax * by - ay * bx
    sign = 1.0 if cross >= 0.0 else -1.0
    psi = math.atan2(-sign * (bx - ax), sign * (by - ay))
    delta = abs(cross) / math.hypot(bx - ax, by - ay)
    ends = [psi + math.remainder(math.atan2(y, x) - psi, 2.0 * math.pi) for x, y in (a, b)]
    return psi, delta, min(ends), max(ends)


def _flags(w1, w2, r, exterior):
    """Flag of one pair given in the polar chart, ``_wedges``' layout."""
    as_arrays = [tuple(np.array([x]) for x in w) for w in (w1, w2)]
    return bool(oracle._overlapping_pairs(np.array([r]), *as_arrays, exterior=exterior)[0])


def _pair_flags(first, second, r, exterior):
    """Flags of one pair in both orders and both vertex orientations."""
    flags = []
    for v1, v2 in ((first, second), (second, first)):
        for u1, u2 in ((v1, v2), (v1[::-1], v2), (v1, v2[::-1])):
            flags.append(_flags(_wedge(*u1), _wedge(*u2), r, exterior))
    return set(flags)


def test_exact_clipping_hand_built_pairs():
    # two needles in one direction: the triangles overlap far beyond r
    same = ((-0.3, 0.05), (0.7, 0.05)), ((-0.4, 0.04), (0.6, 0.04))
    assert _pair_flags(*same, 0.2, exterior=True) == {True}
    assert _pair_flags(*same, 0.2, exterior=False) == {True}
    # mirror images across a line through O, and wedges whose edges lie
    # on one line on opposite rays: they meet only at O
    for touching in (
        (((1.0, 0.2), (-1.0, 0.2)), ((1.0, -0.2), (-1.0, -0.2))),
        (((1.0, 0.0), (1.0, 1.0)), ((-1.0, 0.0), (-1.0, -1.0))),
        (((0.3, 0.0), (0.1, 0.7)), ((-0.6, 0.0), (-0.2, -0.5))),
    ):
        for exterior in (True, False):
            assert _pair_flags(*touching, 0.01, exterior=exterior) == {False}
    # a short triangle inside a long one near O: the overlap stays inside
    # a disk of radius 0.2 (farthest corner at 0.1*sqrt 2), so only the
    # inner parts overlap there; with r = 0.1 the outer parts do too
    nested = ((0.1, -0.1), (0.1, 0.1)), ((1.0, -0.05), (1.0, 0.05))
    assert _pair_flags(*nested, 0.2, exterior=True) == {False}
    assert _pair_flags(*nested, 0.2, exterior=False) == {True}
    assert _pair_flags(*nested, 0.1, exterior=True) == {True}


def test_polar_overlap_edge_cases():
    wide = (0.0, 0.1, -1.2, 1.2)
    for exterior in (True, False):
        # a zero-height triangle is a segment with no interior
        for psi in (0.0, 0.5, 2.0 * math.pi):
            flat = (psi, 0.0, psi - 0.5 * math.pi, psi + 0.5 * math.pi)
            assert not _flags(flat, wide, 0.01, exterior)
            assert not _flags(wide, flat, 0.01, exterior)
        # ranges that only touch, hi1 == lo2, also written a turn apart
        left, right = (0.0, 0.1, -0.5, 0.25), (0.5, 0.1, 0.25, 1.0)
        turned = (0.5 + 2.0 * math.pi, 0.1, 0.25 + 2.0 * math.pi, 1.0 + 2.0 * math.pi)
        for w2 in (right, turned):
            assert not _flags(left, w2, 0.01, exterior)
            assert not _flags(w2, left, 0.01, exterior)
    # ranges written a whole turn apart that meet across 0, one near 2pi
    # and the other near 0, and ranges that meet across +-pi
    for psi1, psi2 in ((2.0 * math.pi - 0.2, 0.2), (math.pi - 0.2, -math.pi + 0.2)):
        w1 = (psi1, 0.1, psi1 - 0.5, psi1 + 0.5)
        w2 = (psi2, 0.1, psi2 - 0.5, psi2 + 0.5)
        for first, second in ((w1, w2), (w2, w1)):
            assert _flags(first, second, 0.3, exterior=False)
            # the lines cross at radius 0.1/cos 0.2 = 0.10203
            assert _flags(first, second, 0.102, exterior=True)
            assert not _flags(first, second, 0.1021, exterior=True)
    # identical needles: the outer parts overlap when the range ends reach
    # beyond r, here 0.1/cos 0.5 = 0.11395
    same = (1.0, 0.1, 0.5, 1.5)
    assert _flags(same, same, 0.2, exterior=False)
    assert _flags(same, same, 0.1139, exterior=True)
    assert not _flags(same, same, 0.114, exterior=True)
    # lines that cross inside the common range [-0.1, 0.1], at radius
    # 0.1/cos 0.3 = 0.10468, while the smaller reach at both ends is
    # 0.1/cos 0.2 = 0.10203: only the crossing reaches beyond r
    w1, w2 = (-0.3, 0.1, -0.8, 0.1), (0.3, 0.1, -0.1, 0.8)
    assert _flags(w1, w2, 0.103, exterior=True) and _flags(w2, w1, 0.103, exterior=True)
    assert not _flags(w1, w2, 0.105, exterior=True)


def test_polar_overlap_is_rotation_invariant():
    r, (a1, d1, t1), (a2, d2, t2), _ = _weak_only_pairs(CheckId.EXT_DISJOINT, 0.5)
    r, a1, d1, t1, a2, d2, t2 = (x[:1000] for x in (r, a1, d1, t1, a2, d2, t2))

    def flags(turn, exterior):
        w1, w2 = oracle._wedges(a1 + turn, d1, t1), oracle._wedges(a2 + turn, d2, t2)
        return oracle._overlapping_pairs(r, w1, w2, exterior)

    for exterior in (True, False):
        want = flags(0.0, exterior)
        assert want.shape == (1000,) and 0 < np.count_nonzero(want) < 1000
        for k in range(1, 6):
            assert np.array_equal(flags(k * math.pi / 3.0, exterior), want), (exterior, k)


@pytest.mark.parametrize(
    "check, factor, overlaps",
    [
        (CheckId.EXT_DISJOINT, 0.99, 7),
        (CheckId.EXT_DISJOINT, 0.97, 16),
        (CheckId.EXT_DISJOINT, 0.9, 45),
        (CheckId.INT_DISJOINT, 0.8, 0),
        (CheckId.INT_DISJOINT, 0.5, 20),
    ],
    ids=[
        "ExtDisjoint-x0.99", "ExtDisjoint-x0.97", "ExtDisjoint-x0.9",
        "IntDisjoint-x0.8", "IntDisjoint-x0.5",
    ],
)
def test_disjointness_checks_catch_a_weakened_gap_criterion(monkeypatch, check, factor, overlaps):
    # the overlap counts the Sutherland-Hodgman clipping found before the
    # polar test, at seed 7 and 10,000 pairs
    counts = []
    exact = oracle._overlapping_pairs

    def spy(r, w1, w2, exterior):
        flags = exact(r, w1, w2, exterior)
        counts.append(int(np.count_nonzero(flags)))
        return flags

    monkeypatch.setattr(oracle, "_overlapping_pairs", spy)
    monkeypatch.setattr(oracle, "_disjoint_pairs", _weakened_disjoint_pairs(factor))
    report = oracle.run_check(check, samples=10_000, seed=oracle.DEFAULT_SEED)
    # the overlap count alone, not ExtDisjoint's mismatches against the
    # library criterion, must see the planted defect
    assert counts == [overlaps]
    assert report.max_violation >= overlaps
    if overlaps:
        assert not report.passed


# ---------------------------------------------------------------------------
# ArcConsistency probing
# ---------------------------------------------------------------------------

# The one-triangle probing loop the vectorised oracle kernel replaced,
# kept as its reference.

def _circle_edge_angles(ax, ay, bx, by, r):
    """Angles where segment (A, B) crosses the circle of radius r."""
    dx, dy = bx - ax, by - ay
    qa = dx * dx + dy * dy
    if qa == 0.0:
        return []
    qb = 2.0 * (ax * dx + ay * dy)
    qc = ax * ax + ay * ay - r * r
    disc = qb * qb - 4.0 * qa * qc
    if disc <= 0.0:
        return []
    sq = math.sqrt(disc)
    angles = []
    for u in ((-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa)):
        if 0.0 < u < 1.0:
            angles.append(math.atan2(ay + u * dy, ax + u * dx))
    return angles


def _point_on_circle_in_triangle(corners, r, phi):
    px, py = r * math.cos(phi), r * math.sin(phi)
    _, (ax, ay), (bx, by) = corners
    d1 = ax * py - ay * px
    d2 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    d3 = -(bx * (py - by) - by * (px - bx))
    has_pos = d1 > 0 or d2 > 0 or d3 > 0
    has_neg = d1 < 0 or d2 < 0 or d3 < 0
    return not (has_pos and has_neg)


def _arc_total_by_probing(corners, r):
    """Total central angle and first angular moment of (triangle intersect
    S_r) via edge roots + probes; ``corners`` is ((Ox, Oy), (Ax, Ay), (Bx, By))."""
    o, a, b = corners
    angles = []
    for (p, q) in ((o, a), (a, b), (b, o)):
        angles.extend(_circle_edge_angles(*p, *q, r))
    if not angles:
        probe = _point_on_circle_in_triangle(corners, r, 0.0)
        return (2.0 * math.pi if probe else 0.0), 0j  # a whole circle has moment 0
    angles = sorted(angles)
    total, moment = 0.0, 0j
    for i, start in enumerate(angles):
        end = angles[i + 1] if i + 1 < len(angles) else angles[0] + 2.0 * math.pi
        if end <= start:
            continue
        if _point_on_circle_in_triangle(corners, r, 0.5 * (start + end)):
            total += end - start
            moment += cmath.rect(1.0, end) - cmath.rect(1.0, start)
    return total, moment


def _probe_both_ways(corners, r):
    """The loop's totals, once the kernel's are found to agree with them up
    to rounding: each row falls in the same class (no arc, the whole
    circle, or a part of it) and differs by at most 4 ulps of 2pi (numpy's
    and math's arctan2, cos and sin may differ in the last bit); the
    moments, sums of at most three unit-vector differences, by 1e-14."""
    r = np.asarray(r, dtype=np.float64)
    got, got_moment = oracle._arc_totals_by_probing(corners, r)
    rows = [_arc_total_by_probing(c, ri) for c, ri in zip(corners.tolist(), r.tolist())]
    want, want_moment = (np.array(x) for x in zip(*rows))
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.array_equal(got == TWO_PI, want == TWO_PI)
    assert np.max(np.abs(got - want)) <= 4.0 * math.ulp(TWO_PI)
    assert np.max(np.abs(got_moment - want_moment)) <= 1e-14
    return want


def test_vectorised_arc_probing_matches_the_loop():
    # triangles drawn as ArcConsistency draws them, and as many again with
    # radii up to beyond the far vertex, so every root count occurs; with
    # directions in [0, 2pi) the triangles face every way about O
    rng = CounterRng(2025, stream=4)
    n = 12_000
    r = np.concatenate((rng.uniform(0.05, 0.5, n), rng.uniform(0.01, 1.2, n)))
    delta = rng.uniforms(2 * n) * np.minimum(oracle._HEIGHT_CAP, 0.9 * r)
    alpha = rng.uniform(0.0, 2.0 * math.pi, 2 * n)
    t = rng.uniforms(2 * n)
    want = _probe_both_ways(oracle._triangle_corners(alpha, delta, t), r)
    assert np.count_nonzero(want == 0.0) >= 100 and np.count_nonzero(want > 0.0) >= n


def test_vectorised_arc_probing_on_tangent_vertex_and_bare_circles():
    # alpha = 0 puts A at (-t, delta) and B at (1 - t, delta) exactly, so
    # these dyadic cases are exact: AB tangent to the circle (delta = r),
    # a vertex on it (|A| = r or |B| = r), no crossing at all (r beyond
    # every vertex), and a flat triangle through O
    cases = [
        (0.5, 0.25, 0.25), (0.25, 0.125, 0.125), (0.5, 0.25, 0.3),
        (0.375, 0.5, 0.625), (0.625, 0.5, 0.625), (0.375, 0.5, 0.5),
        (0.5, 0.25, 2.0), (0.0, 0.125, 1.5), (1.0, 0.125, 1.5),
        (0.5, 0.0, 0.25), (0.0, 0.0, 0.5), (0.25, 0.0, 1.0),
    ]
    t, delta, r = (np.array(column) for column in zip(*cases))
    want = _probe_both_ways(oracle._triangle_corners(np.zeros(len(cases)), delta, t), r)
    assert want[0] > 0.0 and want[6] == 0.0 and want[7] == 0.0


def _fold_arcs_per_row(arcs):
    """ArcConsistency's fold of the library's arcs before it moved to numpy."""
    totals = np.array([sum(end - start for start, end in row) for row in arcs])
    moments = np.array([
        sum(cmath.rect(1.0, end) - cmath.rect(1.0, start) for start, end in row) for row in arcs
    ])
    return totals, moments


def test_numpy_arc_fold_is_the_per_row_fold_bit_for_bit():
    # the library's own rows (one or two arcs), then rows of one and two
    # arcs with a NaN end, and a row of no arcs at the end
    rng = CounterRng(2026, stream=5)
    n = 4000
    r = rng.uniform(0.05, 0.5, n).tolist()
    delta = (rng.uniforms(n) * 0.5).tolist()
    triangles = map(geom.make_triangle, rng.uniform(0.0, math.pi, n).tolist(), delta, rng.uniforms(n).tolist())
    arcs = list(map(geom.intersection_arcs, triangles, r))
    arcs += [[(0.5, math.nan)], [(-1.0, 0.25), (math.nan, 3.0)], []]
    assert {len(row) for row in arcs[:n]} == {1, 2}
    got, want = oracle._fold_arcs(arcs), _fold_arcs_per_row(arcs)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    assert np.isnan(got[0][-3:-1]).all() and np.isnan(got[1][-3:-1].real).all()


def _arc_totals_by_probing_full_table(vertices, r):
    """ArcConsistency's probe before it kept only the real arcs: every row
    of the (n, 6) root table probed and placed, masked columns included."""
    roots = np.full((r.shape[0], 2 * len(oracle._EDGES)), math.inf)
    for k, (i, j) in enumerate(oracle._EDGES):
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
    ends = np.where(col == (count - 1)[:, None], roots[:, :1] + TWO_PI, np.roll(roots, -1, axis=1))
    starts, ends = np.where(arc, roots, 0.0), np.where(arc, ends, 0.0)
    inside = oracle._circle_points_in_triangles(vertices[:, None], r[:, None], 0.5 * (starts + ends))
    moments = np.sum(np.exp(1j * ends) - np.exp(1j * starts), axis=1, where=inside)
    return np.sum(ends - starts, axis=1, where=inside), moments


def _roots_and_arcs(corners, r):
    """How many edge roots the per-row loop finds for one triangle, and how
    many of the arcs between them it counts (0 for the bare circle)."""
    angles = sorted(chain.from_iterable(
        _circle_edge_angles(*p, *q, r) for p, q in zip(corners, corners[1:] + corners[:1])
    ))
    ends = angles[1:] + [a + TWO_PI for a in angles[:1]]
    return len(angles), sum(
        end > start and _point_on_circle_in_triangle(corners, r, 0.5 * (start + end))
        for start, end in zip(angles, ends)
    )


def test_arc_only_probing_is_the_full_table_probing_bit_for_bit():
    # ArcConsistency's triangles, radii out past the far vertex, and tables
    # with up to six roots from edges that do not end at O (the probe still
    # reads the first corner as O); then rows with NaN corners
    rng = CounterRng(2031, stream=6)
    n = 6000
    r = np.concatenate((rng.uniform(0.05, 0.5, n), rng.uniform(0.01, 1.2, n), rng.uniform(0.2, 1.0, n)))
    delta = rng.uniforms(2 * n) * np.minimum(oracle._HEIGHT_CAP, 0.9 * r[:2 * n])
    corners = np.concatenate((
        oracle._triangle_corners(rng.uniform(0.0, TWO_PI, 2 * n), delta, rng.uniforms(2 * n)),
        rng.uniform(-1.0, 1.0, 6 * n).reshape(n, 3, 2),
    ))
    corners[:10, 1, 0] = math.nan
    corners[10:20, 2] = math.nan
    corners[20:30] = math.nan
    roots, arcs = zip(*map(_roots_and_arcs, corners[30:].tolist(), r[30:].tolist()))
    # a closed triangle in general position crosses the circle an even number of times
    assert set(roots) == {0, 2, 4, 6} and set(arcs) == {0, 1, 2}
    got, want = oracle._arc_totals_by_probing(corners, r), _arc_totals_by_probing_full_table(corners, r)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    assert (got[0][20:30] == TWO_PI).all()  # all corners NaN: no root, and the probe reads "inside"


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("check", list(CheckId))
def test_every_check_passes_at_reduced_size(check):
    report = oracle.run_check(check, samples=800, seed=oracle.DEFAULT_SEED)
    assert report.passed, f"{check.value}: {report.max_violation} > {report.tolerance}"
    assert report.samples == 800
    assert report.seed == oracle.DEFAULT_SEED
    assert report.grid_spec


# Planted library defects and the check that must fail under each
# (mutation testing after DeMillo, Lipton and Sayward, 1978): (module,
# attribute, mutant of the real function, check).
MUTANTS = {
    "exterior_area_rate x 1.001": (
        geom, "exterior_area_rate", lambda real: lambda r: real(r) * 1.001,
        CheckId.H_MIN_AT_ZERO),
    "exterior_area x 0.999": (
        geom, "exterior_area", lambda real: lambda tri, r: real(tri, r) * 0.999,
        CheckId.ISOSCELES_MINIMALITY),
    "exterior_area_isosceles + 1e-9": (
        geom, "exterior_area_isosceles", lambda real: lambda delta, r: real(delta, r) + 1e-9,
        CheckId.ISOSCELES_MINIMALITY),
    "direction_ratio x 1.001": (
        geom, "direction_ratio", lambda real: lambda delta0, r: real(delta0, r) * 1.001,
        CheckId.JGAMMA_RATIO),
    "intersection_arcs stretched x 1.001": (
        geom, "intersection_arcs",
        lambda real: lambda tri, r: [
            (start, start + 1.001 * (end - start)) for start, end in real(tri, r)
        ],
        CheckId.ARC_CONSISTENCY),
    # the polar chart that intersection_arcs and exterior_area both read
    "polar chart core x 1.001": (
        geom, "_polar_chart",
        lambda real: lambda tri, r: (*real(tri, r)[:3], real(tri, r)[3] * 1.001),
        CheckId.ARC_CONSISTENCY),
    # arcs of the right lengths in the wrong places: only ArcConsistency's
    # first angular moment sees these two
    "polar chart psi + 1e-6": (
        geom, "_polar_chart",
        lambda real: lambda tri, r: (real(tri, r)[0] + 1e-6, *real(tri, r)[1:]),
        CheckId.ARC_CONSISTENCY),
    "polar chart span_a <-> span_b": (
        geom, "_polar_chart",
        lambda real: lambda tri, r: (lambda psi, a, b, core: (psi, b, a, core))(*real(tri, r)),
        CheckId.ARC_CONSISTENCY),
    "outside_area_rate x 1.001": (
        bounds, "outside_area_rate", lambda real: lambda r, a: real(r, a) * 1.001,
        CheckId.C_MIN),
    "outside_area_rate at 0.999a": (
        bounds, "outside_area_rate", lambda real: lambda r, a: real(r, 0.999 * a),
        CheckId.C_MIN),
    "outside_area_rate at a(1 + 1e-6)": (
        bounds, "outside_area_rate", lambda real: lambda r, a: real(r, a * (1.0 + 1e-6)),
        CheckId.C_MIN),
    # the unsafe direction: also accepts gaps of 0.97 of the requirement
    "exterior_disjoint_criterion gap x 0.97": (
        geom, "exterior_disjoint_criterion",
        lambda real: lambda a1, d1, a2, d2, r: real(a1, d1, a2, d2, r) or (
            geom.angular_gap(a1, a2) >= 0.97 * (math.asin(d1 / r) + math.asin(d2 / r))
        ),
        CheckId.EXT_DISJOINT),
    # NaN on part of the domain, so that a fold's first value is usually a
    # number: Python's max drops a NaN that does not come first
    "intersection_arcs NaN ends at r > 0.4": (
        geom, "intersection_arcs",
        lambda real: lambda tri, r: (
            [(math.nan, math.nan) for _ in real(tri, r)] if r > 0.4 else real(tri, r)
        ),
        CheckId.ARC_CONSISTENCY),
    "exterior_area NaN at r > 0.4": (
        geom, "exterior_area",
        lambda real: lambda tri, r: math.nan if r > 0.4 else real(tri, r),
        CheckId.ISOSCELES_MINIMALITY),
    "exterior_area_isosceles NaN at r > 0.4": (
        geom, "exterior_area_isosceles",
        lambda real: lambda delta, r: math.nan if r > 0.4 else real(delta, r),
        CheckId.ISOSCELES_MINIMALITY),
    "outside_area_rate NaN at r > 1": (
        bounds, "outside_area_rate",
        lambda real: lambda r, a: math.nan if r > 1.0 else real(r, a),
        CheckId.C_MIN),
    "direction_ratio NaN at r > 0.3": (
        geom, "direction_ratio",
        lambda real: lambda delta0, r: math.nan if r > 0.3 else real(delta0, r),
        CheckId.JGAMMA_RATIO),
    "exterior_angle_ratio NaN at r > 0.3": (
        geom, "exterior_angle_ratio",
        lambda real: lambda delta, r: math.nan if r > 0.3 else real(delta, r),
        CheckId.H_MIN_AT_ZERO),
    "exterior_area_rate NaN at r > 0.3": (
        geom, "exterior_area_rate",
        lambda real: lambda r: math.nan if r > 0.3 else real(r),
        CheckId.H_MIN_AT_ZERO),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_each_planted_mutant_fails_its_check(monkeypatch, mutant):
    module, name, mutate, check = MUTANTS[mutant]
    assert oracle.run_check(check, samples=1000, seed=7).passed
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    report = oracle.run_check(check, samples=1000, seed=7)
    assert not report.passed, f"{check.value}: {report.max_violation} <= {report.tolerance}"


def test_c_min_reports_a_library_domain_error_as_a_failure(monkeypatch):
    # a rate that rejects its own domain edge: a(1 + 1e-6) > r at r = a
    real = bounds.outside_area_rate
    monkeypatch.setattr(bounds, "outside_area_rate", lambda r, a: real(r, a * (1.0 + 1e-6)))
    report = oracle.run_check(CheckId.C_MIN, samples=100)
    assert not report.passed
    assert report.max_violation == math.inf
    a = f"{bounds.THEOREM_DEFAULTS.a:.17g}"
    assert f"DomainError at (r, x) = ({a}, {a})" in report.grid_spec


def test_checks_are_reproducible():
    a = oracle.run_check(CheckId.EXT_DISJOINT, samples=500, seed=123)
    b = oracle.run_check(CheckId.EXT_DISJOINT, samples=500, seed=123)
    assert a == b


def test_check_report_serialization_field_names():
    report = oracle.run_check(CheckId.F_ARGMAX, samples=1000, seed=7)
    payload = report.as_dict()
    assert set(payload) == {
        "id", "samples", "grid_spec", "max_violation", "tolerance", "pass", "seed",
    }
    assert payload["id"] == "FArgmax"
    assert payload["pass"] is True


def test_sector_measure_with_tiny_sample_count_is_still_consistent():
    report = oracle.run_check(CheckId.SECTOR_MEASURE, samples=100, seed=7)
    assert report.passed  # wide sigma, but the 3-sigma contract still holds


def test_run_check_rejects_tiny_sample_counts():
    with pytest.raises(DomainError):
        oracle.run_check(CheckId.F_ARGMAX, samples=50)


@pytest.mark.parametrize("check", list(CheckId))
def test_run_check_rejects_oversized_sample_counts_before_drawing(monkeypatch, check):
    def no_draws(*args, **kwargs):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(oracle, "CounterRng", no_draws)
    for samples in (oracle.MAX_SAMPLES + 1, 10**13):
        with pytest.raises(DomainError, match="samples must be in"):
            oracle.run_check(check, samples=samples)


def test_run_check_accepts_the_sample_limit(monkeypatch):
    seen = []

    def stub(samples, rng):
        seen.append(samples)
        return 0.0, "stub"

    monkeypatch.setitem(oracle._CHECKS, CheckId.F_ARGMAX, (stub, 100_000, 1e-6))
    report = oracle.run_check(CheckId.F_ARGMAX, samples=oracle.MAX_SAMPLES)
    assert seen == [oracle.MAX_SAMPLES]
    assert report.passed and report.samples == oracle.MAX_SAMPLES


def test_pass_flag_follows_the_tolerance(monkeypatch):
    func, default_samples, _ = oracle._CHECKS[CheckId.F_ARGMAX]
    monkeypatch.setitem(oracle._CHECKS, CheckId.F_ARGMAX, (func, default_samples, 0.0))
    report = oracle.run_check(CheckId.F_ARGMAX, samples=1000, seed=7)
    assert report.tolerance == 0.0
    assert not report.passed
    assert report.max_violation > 0.0


@pytest.mark.parametrize("violation, clamped, written", [
    (-1e-3, 0.0, 0.0),
    (-0.0, 0.0, 0.0),
    (2.5e-11, 2.5e-11, 2.5e-11),
    (math.inf, math.inf, sys.float_info.max),
    (math.nan, math.nan, sys.float_info.max),
])
def test_only_a_negative_violation_is_clamped(monkeypatch, violation, clamped, written):
    monkeypatch.setitem(oracle._CHECKS, CheckId.F_ARGMAX,
                        (lambda samples, rng: (violation, "stub"), 100_000, 1e-10))
    report = oracle.run_check(CheckId.F_ARGMAX, samples=100)
    assert repr(report.max_violation) == repr(clamped)  # NaN stays NaN, -0.0 becomes 0.0
    assert report.passed is (clamped <= 1e-10)
    assert report.as_dict()["max_violation"] == written


# ---------------------------------------------------------------------------
# Threshold location
# ---------------------------------------------------------------------------

def test_h_threshold_brackets_the_published_transition():
    got = oracle.find_h_threshold(0.10, 0.20, 1e-4)
    assert 0.144 <= got <= 0.148


def test_h_threshold_bracket_errors():
    with pytest.raises(BracketError):
        oracle.find_h_threshold(0.2, 0.1, 1e-4)
    with pytest.raises(BracketError):
        oracle.find_h_threshold(0.16, 0.20, 1e-4)  # predicate true at both ends
    with pytest.raises(BracketError):
        oracle.find_h_threshold(0.05, 0.10, 1e-4)  # false at both ends
    with pytest.raises(DomainError):
        oracle.find_h_threshold(0.1, 0.2, -1.0)
    with pytest.raises(DomainError):
        oracle.find_h_threshold(0.1, 0.2, math.nan)  # used to return 0.15 unbisected


def test_h_threshold_stops_at_adjacent_floats():
    # below one ulp the midpoint of adjacent floats is one of them, so
    # `hi - lo > tol` never fails; the bisection used to loop forever
    got = oracle.find_h_threshold(0.10, 0.20, 1e-300)
    assert 0.144 <= got <= 0.148
    assert abs(got - oracle.find_h_threshold(0.10, 0.20, 1e-4)) <= 1e-4
