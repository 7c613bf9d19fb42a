"""Seeded fuzz test of the public numeric entry points and of the CLI.

Each function of ``bounds``, ``geom``, ``optimizer``, ``oracle`` and ``rng``
that takes numbers is called with NaN, +-inf, +-0, a subnormal, negative and huge
arguments (and a few ordinary ones).  Every call must return only finite
numbers or raise a KakeyaError; a NaN argument must always raise, and a
finite ``geom.theta_isosceles`` angle must not be negative.  One- to
three-argument functions see every combination of the values; wider ones
see a seeded sample.  Sample counts are floats, which are rejected,
integers of at most 100, or ints too wide for a float or for ``str``
(10**400 and +-10**5000), which are rejected or only counted, so no call
starts heavy work; ``CounterRng.uniform`` and ``geom.make_triangle``
see those ints as arguments too, and must refuse them.  ``optimize`` sees
point boxes only, which it settles in one evaluation.  ``SearchBox``,
``BoundParams``, ``CounterRng.uniform``, ``find_h_threshold``, the ``tol``
arguments, ``make_triangle``, the radius of ``exterior_area``,
``intersection_arcs`` and ``exterior_area_rate``, and both arguments of
``outside_area_rate`` also see
objects that are not reals (and ``SearchBox`` intervals that are not (lo,
hi) pairs, or lambda intervals outside [0, 1]), which they must refuse;
over seeded boxes of ordinary, edge and junk ends, ``SearchBox`` accepts
exactly those whose two extreme corners ``BoundParams`` accepts.
``rng.mix64`` works in place on uint64 arrays, so it sees instead a
float, an integer and a read-only array, a list, a scalar and a 0-d
array, each of which must be a DomainError.

Each numeric flag of each CLI mode, the same key in a config file, and
KAKEYA_SEED get the same kinds of values as text, plus a non-number and
an empty string; ``cli.main`` must return 0, 2 or 3 and raise nothing.
verify runs CMin alone at 100 samples unless the samples are fuzzed, and
no scan count lies between 10**4 and 10**6, so every run stays cheap.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import math
import random
from numbers import Real

import numpy as np
import pytest

from kakeya import bounds, cli, geom, optimizer, oracle, rng
from kakeya.bounds import RLAMBDA_PAPER_LITERAL, RLAMBDA_REPRODUCING, BoundParams, THEOREM_DEFAULTS
from kakeya.errors import DomainError, KakeyaError

SEED = 20240601
VALUES = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -1.0, 1e300, -1e300, 0.06, 0.1, 0.25,
)
# ints that overflow a float, and ints whose str is refused (over 4,300 digits)
HUGE_INTS = (10**400, 10**5000, -10**5000)
COUNTS = VALUES + (-1, 0, 1, 100) + HUGE_INTS
MAX_COMBINATIONS = 2000

TRIANGLE = {"alpha": 0.3, "delta": 0.05, "t": 0.5}
TRI = geom.make_triangle(**TRIANGLE)
DERIVED = bounds.derive_params(THEOREM_DEFAULTS)

# objects that are not reals, intervals that are not (lo, hi) pairs of
# finite reals, and lambda intervals that leave [0, 1]
NON_REALS = ("x", "0.06", None, 1j, [0.06], (0.06,), b"1")
INTERVALS = (0.06, (0.06, 0.065, 0.07), (0.06, "x"), ("x", 0.07), (0.06,), None, "ab",
             (0.06, None), (0.06, 10**400), (0.06, 1j))
LAMBDA_OUTSIDE = ((-0.5, 0.6), (0.5, 1.5), (-1e300, 0.5), (0.9, 1e300), (-1.0, 2.0))
BOX = {"a": (0.06, 0.066), "r0": (0.22, 0.24), "lam": (0.88, 0.93)}
PARAMS = {"a": 0.06, "r0": 0.25, "p": 0.5, "lam": 0.9}


def _refused(value):
    """Fail a call that should have raised a KakeyaError but returned."""
    raise AssertionError(f"accepted, returned {value!r}")


def _nonnegative(value):
    """Pass a result on, failing the call if it is finite and negative."""
    if math.isfinite(value) and value < 0.0:
        raise AssertionError(f"negative result {value!r}")
    return value


ENTRY_POINTS = {
    # bounds
    "outside_area_rate": (bounds.outside_area_rate, (VALUES, VALUES)),
    "outside_area_rate(r object)": (
        lambda r, a: _refused(bounds.outside_area_rate(r, a)), (NON_REALS, VALUES)
    ),
    "outside_area_rate(a object)": (
        lambda r, a: _refused(bounds.outside_area_rate(r, a)), (VALUES, NON_REALS)
    ),
    "direction_ratio_cap": (lambda r: bounds.direction_ratio_cap(r, DERIVED), (VALUES,)),
    "derive_params": (
        lambda a, r0, p, lam: [
            bounds.derive_params(BoundParams(a, r0, p, lam), convention)
            for convention in (RLAMBDA_REPRODUCING, RLAMBDA_PAPER_LITERAL)
        ],
        (VALUES,) * 4,
    ),
    "active_g_branch": (lambda r: bounds.active_g_branch(r, DERIVED), (VALUES,)),
    "bound_terms": (
        lambda a, r0, p, lam: [
            bounds.bound_terms(BoundParams(a, r0, p, lam), convention)
            for convention in (RLAMBDA_REPRODUCING, RLAMBDA_PAPER_LITERAL)
        ],
        (VALUES,) * 4,
    ),
    "theorem_bound": (
        lambda a, r0, p, lam: bounds.theorem_bound(BoundParams(a, r0, p, lam)), (VALUES,) * 4
    ),
    "theorem_bound(tol)": (lambda tol: bounds.theorem_bound(THEOREM_DEFAULTS, tol), (VALUES,)),
    "theorem_bound(tol object)": (
        lambda tol: _refused(bounds.theorem_bound(THEOREM_DEFAULTS, tol)), (NON_REALS,)
    ),
    "case_i_integral(tol)": (lambda tol: bounds.case_i_integral(THEOREM_DEFAULTS, tol), (VALUES,)),
    "case_i_integral(tol object)": (
        lambda tol: _refused(bounds.case_i_integral(THEOREM_DEFAULTS, tol)), (NON_REALS,)
    ),
    "BoundParams(object)": (
        lambda name, value: _refused(BoundParams(**{**PARAMS, name: value})),
        (tuple(PARAMS), NON_REALS),
    ),
    "g_branch_kinks": (
        lambda lo, hi: bounds.g_branch_kinks(THEOREM_DEFAULTS, RLAMBDA_REPRODUCING, lo, hi),
        (VALUES, VALUES),
    ),
    # geom
    "make_triangle": (geom.make_triangle, (VALUES,) * 3),
    "make_triangle(object)": (
        lambda name, value: _refused(geom.make_triangle(**{**TRIANGLE, name: value})),
        (tuple(TRIANGLE), NON_REALS + HUGE_INTS),
    ),
    "exterior_area": (lambda r: geom.exterior_area(TRI, r), (VALUES,)),
    "exterior_area(r object)": (lambda r: _refused(geom.exterior_area(TRI, r)), (NON_REALS,)),
    "intersection_arcs": (lambda r: geom.intersection_arcs(TRI, r), (VALUES,)),
    "intersection_arcs(r object)": (
        lambda r: _refused(geom.intersection_arcs(TRI, r)), (NON_REALS,)
    ),
    "exterior_area_isosceles": (geom.exterior_area_isosceles, (VALUES, VALUES)),
    "exterior_angle_ratio": (geom.exterior_angle_ratio, (VALUES, VALUES)),
    "exterior_area_rate": (geom.exterior_area_rate, (VALUES,)),
    "exterior_area_rate(r object)": (
        lambda r: _refused(geom.exterior_area_rate(r)), (NON_REALS,)
    ),
    "theta_isosceles": (
        lambda delta, r: _nonnegative(geom.theta_isosceles(delta, r)), (VALUES, VALUES)
    ),
    "direction_ratio": (geom.direction_ratio, (VALUES, VALUES)),
    "far_endpoint_distance": (geom.far_endpoint_distance, (VALUES, VALUES)),
    "outside_distance_cap": (geom.outside_distance_cap, (VALUES, VALUES)),
    "angular_gap": (geom.angular_gap, (VALUES, VALUES)),
    "exterior_disjoint_criterion": (geom.exterior_disjoint_criterion, (VALUES,) * 5),
    # optimizer
    "SearchBox": (
        lambda a0, a1, r0, r1, lam0, lam1: optimizer.SearchBox((a0, a1), (r0, r1), (lam0, lam1)),
        (VALUES,) * 6,
    ),
    "SearchBox(interval object)": (
        lambda name, interval: _refused(optimizer.SearchBox(**{**BOX, name: interval})),
        (tuple(BOX), INTERVALS),
    ),
    "SearchBox(lambda outside [0, 1])": (
        lambda lam: _refused(optimizer.SearchBox(**{**BOX, "lam": lam})), (LAMBDA_OUTSIDE,)
    ),
    "optimize(point box)": (
        lambda a, r0, lam: optimizer.optimize(optimizer.SearchBox((a, a), (r0, r0), (lam, lam))),
        (VALUES,) * 3,
    ),
    "refine_iterative": (
        lambda n, tol: optimizer.refine_iterative(THEOREM_DEFAULTS, n, tol), (COUNTS, VALUES)
    ),
    "refine_iterative(tol object)": (
        lambda tol: _refused(optimizer.refine_iterative(THEOREM_DEFAULTS, 3, tol)), (NON_REALS,)
    ),
    # oracle
    "run_check(samples)": (
        lambda n: [oracle.run_check(check, samples=n) for check in oracle.CheckId], (COUNTS,)
    ),
    "run_check(seed)": (
        lambda seed: oracle.run_check(oracle.CheckId.C_MIN, samples=100, seed=seed), (COUNTS,)
    ),
    "find_h_threshold(tol)": (lambda tol: oracle.find_h_threshold(0.1, 0.2, tol), (VALUES,)),
    "find_h_threshold(lo, hi)": (
        lambda lo, hi: oracle.find_h_threshold(lo, hi, 1e-2), (VALUES, VALUES)
    ),
    "find_h_threshold(lo object)": (
        lambda lo: _refused(oracle.find_h_threshold(lo, 0.2, 1e-2)), (NON_REALS,)
    ),
    "find_h_threshold(hi object)": (
        lambda hi: _refused(oracle.find_h_threshold(0.1, hi, 1e-2)), (NON_REALS,)
    ),
    "find_h_threshold(tol object)": (
        lambda tol: _refused(oracle.find_h_threshold(0.1, 0.2, tol)), (NON_REALS,)
    ),
    # rng
    "CounterRng(seed)": (lambda seed: rng.CounterRng(seed).uniforms(3), (COUNTS,)),
    "CounterRng(stream)": (lambda stream: rng.CounterRng(7, stream).uniforms(3), (COUNTS,)),
    "seek": (lambda counter: rng.CounterRng(7).seek(counter), (COUNTS,)),
    "raw": (lambda n: rng.CounterRng(7).raw(n), (COUNTS,)),
    "uniforms": (lambda n: rng.CounterRng(7).uniforms(n), (COUNTS,)),
    "uniform": (
        lambda lo, hi: rng.CounterRng(7).uniform(lo, hi, 10), (VALUES + HUGE_INTS,) * 2
    ),
    "uniform(lo object)": (
        lambda lo, hi: _refused(rng.CounterRng(7).uniform(lo, hi, 3)), (NON_REALS, VALUES)
    ),
    "uniform(hi object)": (
        lambda lo, hi: _refused(rng.CounterRng(7).uniform(lo, hi, 3)), (VALUES, NON_REALS)
    ),
}


def _numbers(value):
    """Every number inside a result: scalars, arrays, sequences, dataclasses."""
    if value is None or isinstance(value, (str, bool, enum.Enum)):
        return
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            yield from value.ravel().tolist()
    elif isinstance(value, (int, float, np.number)):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _numbers(item)
    elif dataclasses.is_dataclass(value):
        for item in dataclasses.fields(value):
            yield from _numbers(getattr(value, item.name))
    else:
        raise AssertionError(f"unexpected result type {type(value).__name__}")


def _arguments(pools, rnd):
    if math.prod(len(pool) for pool in pools) <= MAX_COMBINATIONS:
        return list(itertools.product(*pools))
    return [tuple(rnd.choice(pool) for pool in pools) for _ in range(MAX_COMBINATIONS)]


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_gives_finite_values_or_a_typed_error(name):
    func, pools = ENTRY_POINTS[name]
    rnd = random.Random(f"{SEED}:{name}")
    bad = []
    with np.errstate(all="ignore"):
        for args in _arguments(pools, rnd):
            try:
                got = func(*args)
            except KakeyaError:
                continue
            except Exception as exc:  # an untyped error is a failure of the entry point
                bad.append((args, f"{type(exc).__name__}: {exc}"))
                continue
            if any(isinstance(x, float) and math.isnan(x) for x in args):
                bad.append((args, f"NaN argument accepted, returned {got!r}"))
            elif not all(math.isfinite(x) for x in _numbers(got)):
                bad.append((args, f"non-finite result {got!r}"))
    assert not bad, f"{len(bad)} bad calls, first ones: {bad[:5]}"


def _read_only(z):
    z.flags.writeable = False
    return z


MIX64_REJECTED = {
    "float64 array": np.zeros(3),
    "int64 array": np.zeros(3, dtype=np.int64),
    "read-only uint64 array": _read_only(np.zeros(3, dtype=np.uint64)),
    "list": [1, 2, 3],
    "numpy scalar": np.uint64(3),
    "0-d uint64 array": np.array(3, dtype=np.uint64),
}


@pytest.mark.parametrize("name", sorted(MIX64_REJECTED))
def test_mix64_rejects_anything_but_a_writeable_uint64_array(name):
    with pytest.raises(DomainError):
        rng.mix64(MIX64_REJECTED[name])


# interval ends per axis: ordinary values, the domain's edges and their
# neighbours, and junk (non-finite, huge, not real)
BOX_ENDS = {
    "a": (0.01, 0.05, 0.06, 0.066, 0.2),
    "r0": (0.15, 0.22, 0.25, 0.3, 0.49),
    "lam": (0.0, 0.3, 0.9, 1.0, True),
}
EDGE_ENDS = (
    0.0, -0.0, 5e-324, 0.5, math.nextafter(0.5, 0.0), 1.0, math.nextafter(1.0, 2.0), 1, False,
)
JUNK_ENDS = (math.nan, math.inf, -math.inf, -1.0, 1e300, 10**400) + NON_REALS


def _box_interval(axis, rnd):
    """One interval: mostly an ordered pair of ordinary ends, else anything."""
    if rnd.random() < 0.1:
        return rnd.choice(INTERVALS)
    ends = [rnd.choices((BOX_ENDS[axis], EDGE_ENDS, JUNK_ENDS), (85, 10, 5))[0] for _ in range(2)]
    if JUNK_ENDS in ends:
        return tuple(rnd.choice(pool) for pool in ends)
    pair = sorted(rnd.choice(pool) for pool in ends)
    return tuple(pair if rnd.random() < 0.8 else pair[::-1])


def _corners_accepted(a, r0, lam):
    """BoundParams takes the box's two extreme corners, and its intervals are ordered."""
    try:
        (a_lo, a_hi), (r0_lo, r0_hi), (lam_lo, lam_hi) = a, r0, lam
        BoundParams(a_hi, r0_lo, 0.0, lam_lo)
        BoundParams(a_lo, r0_hi, 0.0, lam_hi)
    except (TypeError, ValueError, DomainError):
        return False
    return a_lo <= a_hi and r0_lo <= r0_hi and lam_lo <= lam_hi


def _in_paper_domain(a, r0, lam):
    """0 < a_lo <= a_hi < r0_lo <= r0_hi < 1/2 and 0 <= lam_lo <= lam_hi <= 1, finite reals."""
    try:
        ends = (a_lo, a_hi), (r0_lo, r0_hi), (lam_lo, lam_hi) = a, r0, lam
    except (TypeError, ValueError):
        return False
    if not all(isinstance(x, Real) and -math.inf < x < math.inf for pair in ends for x in pair):
        return False
    return 0.0 < a_lo <= a_hi < r0_lo <= r0_hi < 0.5 and 0.0 <= lam_lo <= lam_hi <= 1.0


def test_search_box_accepts_exactly_the_boxes_whose_corners_bound_params_accepts():
    rnd = random.Random(f"{SEED}:SearchBox corners")
    outcomes, bad = {True: 0, False: 0}, []
    for _ in range(5000):
        box = {axis: _box_interval(axis, rnd) for axis in BOX_ENDS}
        try:
            optimizer.SearchBox(**box)
            accepted = True
        except DomainError:
            accepted = False
        except Exception as exc:  # an untyped error is a failure of the constructor
            bad.append((box, f"{type(exc).__name__}: {exc}"))
            continue
        if accepted != _corners_accepted(**box) or accepted != _in_paper_domain(**box):
            bad.append((box, accepted))
        outcomes[accepted] += 1
    assert not bad, f"{len(bad)} boxes judged wrongly, first ones: {bad[:5]}"
    assert min(outcomes.values()) >= 500, outcomes


CLI_VALUES = ("nan", "inf", "-inf", "0", "-0", "5e-324", "-1", "1e300", str(10**12), "one", "")
# (command, mode, the numeric flags it reads) for every mode that reads one
CLI_MODES = [
    (command, mode, numeric)
    for command, modes in cli._MODES.items() for mode, (reads, _) in modes.items()
    if (numeric := sorted(f for f in reads if cli._FLAGS[f].get("type") in (int, float)))
]


def _mode_argv(command, mode, fuzzed):
    """The argv of one mode, with verify cut to CMin at 100 samples."""
    if command == "scan":
        return ["scan", mode]
    argv = [command] + ([] if mode is None else ["--preset", mode])
    if command == "verify":
        argv += ["--check", "CMin"] + ([] if fuzzed == "samples" else ["--samples", "100"])
    return argv


@pytest.mark.parametrize("command, mode, numeric", CLI_MODES,
                         ids=[f"{c}-{m}" for c, m, _ in CLI_MODES])
def test_cli_numeric_inputs_exit_0_2_or_3(command, mode, numeric, tmp_path, monkeypatch):
    runs = []  # (argv, config line, KAKEYA_SEED)
    for flag in numeric:
        for value in CLI_VALUES:
            # --flag=value hands "-inf" and "" to the flag's type, not to argparse
            runs.append((_mode_argv(command, mode, flag) + [f"--{flag}={value}"], None, None))
            if flag in cli._CONFIG_KEYS:
                runs.append((_mode_argv(command, mode, None), f"{flag} = {value}", None))
    if "seed" in numeric:
        runs += [(_mode_argv(command, mode, None), None, value) for value in CLI_VALUES]
    config = tmp_path / "fuzz.cfg"
    bad = []
    for argv, line, env_seed in runs:
        if line is not None:
            config.write_text(line + "\n")
            argv = argv + ["--config", str(config)]
        if env_seed is None:
            monkeypatch.delenv("KAKEYA_SEED", raising=False)
        else:
            monkeypatch.setenv("KAKEYA_SEED", env_seed)
        try:
            code = cli.main(argv + ["--output-dir", str(tmp_path / "out")])
        except Exception as exc:  # the CLI must map every error to an exit code
            bad.append((argv, line, env_seed, f"{type(exc).__name__}: {exc}"))
            continue
        if code not in (0, 2, 3):
            bad.append((argv, line, env_seed, code))
    assert not bad, f"{len(bad)} bad runs, first ones: {bad[:5]}"
