"""Oracle tests: generator reproducibility and pinned draws, Monte Carlo
contracts, the SectorMeasure membership kernel against its reference, the
check dispatcher at reduced sizes, and threshold location."""

from __future__ import annotations

import math

import numpy as np
import pytest

from kakeya import oracle
from kakeya.errors import BracketError, DomainError
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
