"""Oracle tests: generator reproducibility, pinned draws and buffer draws
against the formula, Monte Carlo contracts and block layout, the
SectorMeasure membership kernel against its reference and its raw-angle
thresholds ulp by ulp, the pooled checks against their serial loops, the
exact disjointness clipping against the sampler it replaced, planted
defects the disjointness checks must catch, ArcConsistency's vectorised
probing against its loop, the check dispatcher at reduced sizes, and
threshold location."""

from __future__ import annotations

import math
import multiprocessing
import os

import numpy as np
import pytest

from kakeya import geom, oracle
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
# odd sizes, one piece of the word table, and runs across its ends
RNG_SIZES = [1, 3, 777, (1 << 14) - 1, 1 << 14, (1 << 14) + 1, 3 * (1 << 14) + 5]


@pytest.mark.parametrize("seed, stream", RNG_ADDRESSES)
def test_rng_raw_into_a_buffer_is_the_formula(seed, stream):
    for n in RNG_SIZES:
        for counter in (0, 12345, (1 << 64) - 2 * n):
            rng = CounterRng(seed, stream)
            rng.seek(counter)
            buf = np.full(n, 3, dtype=np.uint64)
            assert rng.raw(n, out=buf) is buf
            rng.seek(counter)
            assert np.array_equal(rng.raw(n), buf)
            for i in {0, n // 2, n - 1}:
                assert int(buf[i]) == _word_int(seed, stream, counter + i), (n, counter, i)


@pytest.mark.parametrize("seed, stream", RNG_ADDRESSES)
def test_rng_doubles_into_a_buffer_are_the_formula(seed, stream):
    for n in RNG_SIZES:
        rng = CounterRng(seed, stream)
        rng.seek(99)
        words = rng.raw(n)
        u = np.empty(n)
        rng.seek(99)
        assert rng.uniforms(n, out=u) is u
        assert np.array_equal(u, (words >> np.uint64(11)).astype(np.float64) * 2.0**-53)
        rng.seek(99)
        assert rng.uniform(-0.3, 1.2, n, out=u) is u
        rng.seek(99)
        assert np.array_equal(u, -0.3 + (1.2 - -0.3) * rng.uniforms(n))


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


def test_rng_rejects_an_unusable_out_buffer():
    rng = CounterRng(7)
    for method, n, bad in (
        ("raw", 4, np.empty(4, dtype=np.int64)),
        ("raw", 4, np.empty(5, dtype=np.uint64)),
        ("uniforms", 4, np.empty(8)[::2]),
        ("uniforms", 4, np.empty((2, 2))),
        ("uniforms", 4, [0.0] * 4),
    ):
        with pytest.raises(DomainError, match="out must be"):
            getattr(rng, method)(n, out=bad)


def test_rng_uniform_range():
    vals = CounterRng(7).uniforms(100_000)
    assert vals.min() >= 0.0
    assert vals.max() < 1.0
    assert abs(vals.mean() - 0.5) < 0.005


# ---------------------------------------------------------------------------
# Monte Carlo area
# ---------------------------------------------------------------------------

def test_mc_area_full_region_is_exact():
    est = oracle.mc_area(lambda xs, ys: np.ones_like(xs, dtype=bool), (0, 0, 1, 1), 1000, 5)
    assert est.value == 1.0
    assert est.std_error == 0.0


def test_mc_area_quarter_disk():
    est = oracle.mc_area(
        lambda xs, ys: xs * xs + ys * ys <= 1.0, (0.0, 0.0, 1.0, 1.0), 1_000_000, 9
    )
    assert abs(est.value - math.pi / 4.0) <= 3.0 * est.std_error
    assert est.std_error == pytest.approx(
        math.sqrt((est.value) * (1 - est.value) / 1_000_000), rel=1e-12
    )


def test_mc_area_determinism_and_validation():
    region = lambda xs, ys: xs > ys
    a = oracle.mc_area(region, (-1, -1, 1, 1), 10_000, 3)
    b = oracle.mc_area(region, (-1, -1, 1, 1), 10_000, 3)
    assert a == b
    with pytest.raises(DomainError):
        oracle.mc_area(region, (-1, -1, 1, 1), 0, 3)
    with pytest.raises(DomainError):
        oracle.mc_area(region, (1, -1, 1, 1), 100, 3)


def _chunked_hits(region, bbox, samples, seed, chunk=1 << 19):
    """Hit count drawn the unblocked way: per chunk, all xs, then all ys."""
    xmin, ymin, xmax, ymax = bbox
    rng = CounterRng(seed, stream=0)
    hits = 0
    for start in range(0, samples, chunk):
        n = min(chunk, samples - start)
        xs = rng.uniform(xmin, xmax, n)
        ys = rng.uniform(ymin, ymax, n)
        hits += int(np.count_nonzero(region(xs, ys)))
    return hits


@pytest.mark.parametrize("seed", [21, (1 << 63) - 1, 1 << 63])
def test_mc_area_block_draws_are_seek_and_uniform(seed):
    # two chunks, the second ending in an odd partial block
    samples = (1 << 19) + 2 * (1 << 14) + 777
    bbox = (-0.3, 1.25, 0.9, 2.5)
    blocks = []

    def record(xs, ys):
        blocks.append((xs.copy(), ys.copy()))
        return xs < 0.0

    oracle.mc_area(record, bbox, samples, seed)
    rng = CounterRng(seed, stream=0)
    want = []
    for start in range(0, samples, 1 << 19):
        n = min(1 << 19, samples - start)
        for lo in range(0, n, 1 << 14):
            m = min(1 << 14, n - lo)
            rng.seek(2 * start + lo)
            xs = rng.uniform(bbox[0], bbox[2], m)
            rng.seek(2 * start + n + lo)
            want.append((xs, rng.uniform(bbox[1], bbox[3], m)))
    assert len(blocks) == len(want) == 35
    for (gx, gy), (wx, wy) in zip(blocks, want):
        assert gx.tobytes() == wx.tobytes() and gy.tobytes() == wy.tobytes()


def test_mc_area_blocks_keep_the_chunked_stream_layout():
    # two chunks, the second ending in a partial block
    samples = (1 << 19) + 3 * (1 << 16) + 777
    region = _reference_sector_region(np.array([0.3, 2.9]), np.array([1.7, 4.4]), 0.8)
    bbox = (-0.8, -0.8, 0.8, 0.8)
    est = oracle.mc_area(region, bbox, samples, 21)
    hits = _chunked_hits(region, bbox, samples, 21)
    assert 0 < hits < samples
    assert est.value == 1.6 * 1.6 * (hits / samples)


# ---------------------------------------------------------------------------
# SectorMeasure membership
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


def test_sector_region_matches_the_reference_kernel():
    # Half of the sets take their interval ends from the angles of their
    # own points, so those points sit exactly on an endpoint; some sets
    # have touching or zero-length intervals.  Radii are drawn, never
    # placed on the circle, where the squared test and hypot may round
    # differently.
    rng = CounterRng(2024, stream=1)
    n_sets, n_points = 24, 50_000
    on_end = 0
    for k in range(n_sets):
        radius = float(rng.uniform(0.3, 1.2, 1)[0])
        xs = rng.uniform(-radius, radius, n_points)
        ys = rng.uniform(-radius, radius, n_points)
        xs_before, ys_before = xs.copy(), ys.copy()
        ang = np.arctan2(ys, xs)
        ang = np.where(ang < 0.0, ang + 2.0 * math.pi, ang)
        n_ends = 2 * (1 + k % 3)
        if k % 2:
            ends = ang[(rng.raw(n_ends) % np.uint64(n_points)).astype(np.int64)]
        else:
            ends = rng.uniform(0.0, 2.0 * math.pi, n_ends)
        ends = np.sort(ends)
        if k % 4 == 1:
            ends[2::2] = ends[1:-1:2]  # each interval starts where the last stops
        elif k % 4 == 3:
            ends[1] = ends[0]  # a zero-length first interval
        starts, stops = ends[0::2], ends[1::2]
        got = oracle._sector_region(starts, stops, radius)(xs, ys)
        want = _reference_sector_region(starts, stops, radius)(xs, ys)
        assert np.array_equal(got, want), f"set {k}"
        assert np.array_equal(xs, xs_before) and np.array_equal(ys, ys_before)
        on_end += int(np.count_nonzero(np.isin(ang, ends)))
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
]


def _wrapped_reference_mask(ang, starts, stops):
    """The rule the thresholds stand for: wrap a < 0 to a + 2pi, then test."""
    wrapped = np.where(ang < 0.0, ang + TWO_PI, ang)
    inside = np.zeros(ang.shape, dtype=bool)
    for s, e in zip(starts, stops):
        inside |= (s <= wrapped) & (wrapped <= e)
    return inside


@pytest.mark.parametrize("starts, stops", THRESHOLD_SETS)
def test_raw_angle_thresholds_match_the_wrapped_rule_ulp_by_ulp(starts, stops):
    ranges = [oracle._raw_angle_range(s, e) for s, e in zip(starts, stops)]
    ranges = [r for r in ranges if r is not None]
    # every float within 8 ulps of each raw threshold and of each interval
    # end's preimages, plus the ends of arctan2's range and both zeros
    centers = [PI, -PI, 0.0, -0.0]
    centers += [t for lo, hi, _ in ranges for t in (lo, hi)]
    centers += [t - d for t in (*starts, *stops) for d in (0.0, TWO_PI)]
    angles = {PI, -PI, 0.0, -0.0}
    for c in centers:
        for k in range(9):
            angles.update((_below(c, k), _above(c, k)))
    ang = np.array(sorted(a for a in angles if -PI <= a <= PI))
    got = oracle._in_raw_ranges(ang, ranges)
    want = _wrapped_reference_mask(ang, np.array(starts), np.array(stops))
    assert np.array_equal(got, want), ang[got != want]


def test_arctan2_stays_in_the_range_the_thresholds_cover():
    # _raw_angle_range covers raw angles in [-pi, pi] only
    tiny = 5e-324
    ys = np.array([0.0, -0.0, tiny, -tiny, 1.0, -1.0, 1e-300, -1e-300])
    for x in (-1.0, -1e300, -tiny, 0.0, -0.0):
        ang = np.arctan2(ys, np.full(ys.shape, x))
        assert np.all(np.abs(ang) <= PI)


# ---------------------------------------------------------------------------
# SectorMeasure on the thread pool
# ---------------------------------------------------------------------------

def _serial_sector_measure(samples, rng, n_sets=100):
    """The serial SectorMeasure loop the thread pool replaced: each set draws
    its parameters and takes its estimate before the next set draws."""
    worst = 0.0
    for _ in range(n_sets):
        n_intervals = 1 + int(rng.raw(1)[0] % np.uint64(3))
        ends = np.sort(rng.uniform(0.0, 2.0 * math.pi, 2 * n_intervals))
        starts, stops = ends[0::2], ends[1::2]
        measure = float(np.sum(stops - starts))
        radius = float(rng.uniform(0.3, 1.2, 1)[0])
        set_seed = int(rng.raw(1)[0])

        region = oracle._sector_region(starts, stops, radius)

        est = oracle.mc_area(region, (-radius, -radius, radius, radius), samples, set_seed)
        exact = 0.5 * radius * radius * measure
        box_area = 4.0 * radius * radius
        p_true = exact / box_area
        sigma = box_area * math.sqrt(p_true * (1.0 - p_true) / samples)
        if sigma > 0.0:
            worst = max(worst, abs(est.value - exact) / sigma)
        elif est.value != exact:
            worst = math.inf
    spec = (
        f"{n_sets} random interval unions in [0, 2pi), {samples} samples each; "
        "violation in exact-sigma units"
    )
    return worst, spec


def _serial_sector_record(samples, seed):
    """The SectorMeasure record ``run_check`` gave with the serial loop."""
    check = CheckId.SECTOR_MEASURE
    rng = CounterRng(seed, stream=1 + list(CheckId).index(check))
    worst, spec = _serial_sector_measure(samples, rng)
    violation = float(max(0.0, worst))
    tol = oracle._CHECKS[check][2]
    return oracle.CheckReport(
        id=check, samples=samples, grid_spec=spec, max_violation=violation,
        tolerance=tol, passed=violation <= tol, seed=seed,
    )


def test_sector_measure_pool_gives_the_serial_records():
    failed = []
    for seed in range(1, 21):
        want = _serial_sector_record(2000, seed)
        got = oracle.run_check(CheckId.SECTOR_MEASURE, samples=2000, seed=seed)
        assert got == want, f"seed {seed}"
        if not got.passed:
            failed.append(seed)
    # the comparison covers failing records too
    assert failed


@pytest.mark.parametrize("workers", [1, 2, 7])
def test_sector_measure_records_do_not_depend_on_the_worker_count(monkeypatch, workers):
    monkeypatch.setattr(oracle, "_worker_count", lambda n_tasks: workers)
    for seed in (2, 4, 7, 16):
        got = oracle.run_check(CheckId.SECTOR_MEASURE, samples=2000, seed=seed)
        assert got == _serial_sector_record(2000, seed), f"seed {seed}"


def test_worker_count_is_capped_by_the_task_count():
    assert oracle._worker_count(1) == 1
    assert 1 <= oracle._worker_count(100) <= 100


def test_sector_measure_estimate_error_comes_out_typed_and_workers_end(monkeypatch):
    # the serial loop gives the sets' seeds in set order
    seeds = []
    real = oracle.mc_area

    def record(region, bbox, samples, seed):
        seeds.append(seed)
        return real(region, bbox, samples, seed)

    monkeypatch.setattr(oracle, "mc_area", record)
    rng = CounterRng(7, stream=1 + list(CheckId).index(CheckId.SECTOR_MEASURE))
    _serial_sector_measure(500, rng)
    assert len(set(seeds)) == 100

    planted = BracketError("planted in the 37th set")

    def fail_37th(region, bbox, samples, seed):
        if seed == seeds[36]:
            raise planted
        return real(region, bbox, samples, seed)

    monkeypatch.setattr(oracle, "mc_area", fail_37th)
    with pytest.raises(BracketError) as info:
        oracle.run_check(CheckId.SECTOR_MEASURE, samples=500, seed=7)
    # a worker process raised it, so the error is a copy of the planted one
    assert type(info.value) is BracketError
    assert str(info.value) == str(planted)
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(oracle, "mc_area", real)
    assert oracle.run_check(CheckId.SECTOR_MEASURE, samples=500, seed=7).passed
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_breaks_the_run_instead_of_hanging(monkeypatch):
    from concurrent.futures.process import BrokenProcessPool

    def die(region, bbox, samples, seed):
        os._exit(1)  # as a worker killed for memory would

    monkeypatch.setattr(oracle, "_worker_count", lambda n_tasks: 2)
    monkeypatch.setattr(oracle, "mc_area", die)
    with pytest.raises(WorkerLost) as info:
        oracle.run_check(CheckId.SECTOR_MEASURE, samples=500, seed=7)
    assert isinstance(info.value.__cause__, BrokenProcessPool)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [2, 7])
def test_all_checks_give_the_in_process_records_on_a_pool(monkeypatch, workers):
    for seed in (2, 4, 7, 16):
        monkeypatch.setattr(oracle, "_worker_count", lambda n_tasks: 1)
        want = oracle.run_checks(list(CheckId), samples=1000, seed=seed)
        monkeypatch.setattr(oracle, "_worker_count", lambda n_tasks: workers)
        got = oracle.run_checks(list(CheckId), samples=1000, seed=seed)
        assert [r.id for r in want] == list(CheckId)
        assert got == want, f"seed {seed}"
    assert multiprocessing.active_children() == []


def test_run_checks_reports_in_the_given_order():
    order = [CheckId.SECTOR_MEASURE, CheckId.C_MIN, CheckId.SECTOR_MEASURE, CheckId.F_ARGMAX]
    reports = oracle.run_checks(order, samples=500, seed=3)
    assert [r.id for r in reports] == order
    assert reports[0] == reports[2]
    assert reports == [oracle.run_check(c, samples=500, seed=3) for c in order]


def test_run_checks_rejects_a_bad_count_before_drawing_or_forking(monkeypatch):
    assert oracle.run_checks([]) == []

    def boom(*args):
        raise AssertionError("drew or forked")

    monkeypatch.setattr(oracle, "_worker_count", boom)
    monkeypatch.setattr(CounterRng, "raw", boom)
    for samples in (99, oracle.MAX_SAMPLES + 1, 1000.0):
        with pytest.raises(DomainError):
            oracle.run_checks(list(CheckId), samples=samples)


# ---------------------------------------------------------------------------
# Exact disjointness clipping
# ---------------------------------------------------------------------------

# The sampled cross-hit counter the two disjointness checks used before
# exact clipping, kept as a test-side reference: uniform points of each
# triangle on the requested side of the circle, counted when they fall
# strictly inside the other triangle.

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
    overlap.  Returns (r, v1, v2, rng), the rng positioned after them."""
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
    v1 = oracle._vertices_arrays(a1, d1, t1)
    v2 = oracle._vertices_arrays(a2, d2, t2)
    return r, v1, v2, rng


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
    r, v1, v2, rng = _weak_only_pairs(check, factor)
    r, v1, v2 = r[:300], tuple(a[:300] for a in v1), tuple(a[:300] for a in v2)
    exterior = check is CheckId.EXT_DISJOINT
    flags = oracle._overlapping_pairs(r, v1, v2, exterior=exterior)
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


def _tri(*points):
    """(ax, ay, bx, by) arrays of triangles (O, A, B) given as (A, B) pairs."""
    return tuple(np.array([p[k][j] for p in points]) for k in (0, 1) for j in (0, 1))


def _pair_flags(first, second, r, exterior):
    """Flags of one pair in both orders and both vertex orientations."""
    flags = []
    for v1, v2 in ((first, second), (second, first)):
        for u1, u2 in ((v1, v2), (v1[::-1], v2), (v1, v2[::-1])):
            flags.append(bool(oracle._overlapping_pairs(
                np.array([r]), _tri(u1), _tri(u2), exterior=exterior)[0]))
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


def test_exact_clipping_is_block_size_invariant(monkeypatch):
    r, v1, v2, _ = _weak_only_pairs(CheckId.EXT_DISJOINT, 0.9)
    results = {}
    for block in (1, 7, r.shape[0]):
        monkeypatch.setattr(oracle, "_CLIP_BLOCK", block)
        for exterior in (True, False):
            results[block, exterior] = oracle._overlapping_pairs(r, v1, v2, exterior=exterior)
    for exterior in (True, False):
        want = results[r.shape[0], exterior]
        assert np.count_nonzero(want) >= 10
        for block in (1, 7):
            assert np.array_equal(results[block, exterior], want)


@pytest.mark.parametrize(
    "check, factor",
    [(CheckId.EXT_DISJOINT, 0.97), (CheckId.INT_DISJOINT, 0.5)],
    ids=["ExtDisjoint-x0.97", "IntDisjoint-x0.5"],
)
def test_disjointness_checks_catch_a_weakened_gap_criterion(monkeypatch, check, factor):
    counts = []
    exact = oracle._overlapping_pairs

    def spy(r, v1, v2, exterior):
        flags = exact(r, v1, v2, exterior)
        counts.append(int(np.count_nonzero(flags)))
        return flags

    monkeypatch.setattr(oracle, "_overlapping_pairs", spy)
    monkeypatch.setattr(oracle, "_disjoint_pairs", _weakened_disjoint_pairs(factor))
    report = oracle.run_check(check, samples=10_000, seed=oracle.DEFAULT_SEED)
    # the overlap count alone, not ExtDisjoint's mismatches against the
    # library criterion, must see the planted defect
    assert len(counts) == 1 and counts[0] >= 1
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


def _point_on_circle_in_triangle(tri, r, phi):
    px, py = r * math.cos(phi), r * math.sin(phi)
    _, a, b = tri.vertices
    d1 = a.x * py - a.y * px
    d2 = (b.x - a.x) * (py - a.y) - (b.y - a.y) * (px - a.x)
    d3 = -(b.x * (py - b.y) - b.y * (px - b.x))
    has_pos = d1 > 0 or d2 > 0 or d3 > 0
    has_neg = d1 < 0 or d2 < 0 or d3 < 0
    return not (has_pos and has_neg)


def _arc_total_by_probing(tri, r):
    """Total central angle of (triangle intersect S_r) via edge roots + probes."""
    o, a, b = tri.vertices
    angles = []
    for (p, q) in ((o, a), (a, b), (b, o)):
        angles.extend(_circle_edge_angles(p.x, p.y, q.x, q.y, r))
    if not angles:
        probe = _point_on_circle_in_triangle(tri, r, 0.0)
        return 2.0 * math.pi if probe else 0.0
    angles = sorted(angles)
    total = 0.0
    for i, start in enumerate(angles):
        end = angles[i + 1] if i + 1 < len(angles) else angles[0] + 2.0 * math.pi
        if end <= start:
            continue
        if _point_on_circle_in_triangle(tri, r, 0.5 * (start + end)):
            total += end - start
    return total


def _probe_both_ways(tris, r):
    vertices = np.array([[(p.x, p.y) for p in tri.vertices] for tri in tris])
    got = oracle._arc_totals_by_probing(vertices, np.asarray(r, dtype=np.float64))
    want = np.array([_arc_total_by_probing(tri, ri) for tri, ri in zip(tris, r)])
    return got, want


def test_vectorised_arc_probing_is_the_loop_bit_for_bit():
    # triangles drawn as ArcConsistency draws them, and as many again with
    # radii up to beyond the far vertex, so every root count occurs
    rng = CounterRng(2025, stream=4)
    n = 12_000
    r = np.concatenate((rng.uniform(0.05, 0.5, n), rng.uniform(0.01, 1.2, n)))
    delta = rng.uniforms(2 * n) * np.minimum(oracle._HEIGHT_CAP, 0.9 * r)
    alpha = rng.uniform(0.0, 2.0 * math.pi, 2 * n)
    t = rng.uniforms(2 * n)
    tris = [geom.make_triangle(alpha[i], delta[i], t[i]) for i in range(2 * n)]
    got, want = _probe_both_ways(tris, r)
    assert got.tobytes() == want.tobytes()
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
    tris = [geom.make_triangle(0.0, delta, t) for t, delta, _ in cases]
    r = [radius for _, _, radius in cases]
    got, want = _probe_both_ways(tris, r)
    assert got.tobytes() == want.tobytes()
    assert want[0] > 0.0 and want[6] == 0.0 and want[7] == 0.0


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
