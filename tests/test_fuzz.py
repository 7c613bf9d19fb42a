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
starts heavy work.  ``optimize`` sees point boxes only, which it settles
in one evaluation.

One rule covers wrong types, for every argument of every entry point: from
a call that succeeds, each argument in turn is swapped for junk, and the
call must raise DomainError.  A real argument gets NON_REALS and HUGE_INTS,
a count NON_REALS, and a record (a triangle, a BoundParams, a DerivedParams,
a SearchBox, a list of checks) JUNK_RECORDS; an argument's own default is
not junk.  Junk may also sit inside a record: each field of a triangle, a
BoundParams, a DerivedParams and a SearchBox gets NaN, +-inf, NON_REALS,
HUGE_INTS and values past its range, and the record must refuse each
when it is built, directly, by ``_make`` or by ``_replace``.
``SearchBox`` also sees intervals that are not (lo, hi) pairs,
and lambda intervals outside [0, 1], which it must refuse; over seeded
boxes of ordinary, edge and junk ends, it accepts exactly those whose two
extreme corners ``BoundParams`` accepts.  ``rng.mix64`` works in place on
uint64 arrays, so it sees instead a float, an integer and a read-only
array, a list, a scalar and a 0-d array, each of which must be a
DomainError.

Each numeric flag of each CLI mode gets the same kinds of values as text,
plus a non-number and an empty string, each as ``--flag=value``;
``cli.main`` must return 0, 2 or 3 and raise nothing.
verify runs CMin alone at 100 samples unless the samples are fuzzed, and
no scan count lies between 10**4 and 10**6, so every run stays cheap.
"""

from __future__ import annotations

import enum
import inspect
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
CONVENTIONS = (RLAMBDA_REPRODUCING, RLAMBDA_PAPER_LITERAL)

TRI = geom.make_triangle(0.3, 0.05, 0.5)
DERIVED = bounds.derive_params(THEOREM_DEFAULTS)
POINT_BOX = optimizer.SearchBox((0.06, 0.06), (0.25, 0.25), (0.9, 0.9))


class Records(tuple):
    """An argument pool of valid records; the wrong-type rule swaps in JUNK_RECORDS."""


# objects that are not reals, intervals that are not (lo, hi) pairs of
# finite reals, and lambda intervals that leave [0, 1]
NON_REALS = ("x", "0.06", None, 1j, [0.06], (0.06,), b"1")
INTERVALS = (0.06, (0.06, 0.065, 0.07), (0.06, "x"), ("x", 0.07), (0.06,), None, "ab",
             (0.06, None), (0.06, 10**400), (0.06, 1j))
LAMBDA_OUTSIDE = ((-0.5, 0.6), (0.5, 1.5), (-1e300, 0.5), (0.9, 1e300), (-1.0, 2.0))
BOX = {"a": (0.06, 0.066), "r0": (0.22, 0.24), "lam": (0.88, 0.93)}
# objects in place of a record: no record, a number, a tuple of its fields,
# and each record of another kind
JUNK_RECORDS = (None, "x", 0.25, (0.06, 0.25, 0.5, 0.9), object())
RECORDS = (TRI, THEOREM_DEFAULTS, DERIVED, POINT_BOX)
# the values the wrong-type rule tries, in order, to find a call that succeeds
ORDINARY = (0.06, 0.1, 0.25, 0.9, 100)


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
    "direction_ratio_cap": (bounds.direction_ratio_cap, (VALUES, Records((DERIVED,)))),
    "BoundParams": (BoundParams, (VALUES,) * 4),
    "derive_params": (
        lambda a, r0, p, lam: [
            bounds.derive_params(BoundParams(a, r0, p, lam), convention) for convention in CONVENTIONS
        ],
        (VALUES,) * 4,
    ),
    "derive_params(params)": (
        bounds.derive_params, (Records((THEOREM_DEFAULTS,)), CONVENTIONS)
    ),
    "active_g_branch": (bounds.active_g_branch, (VALUES, Records((DERIVED,)))),
    "bound_terms": (
        lambda a, r0, p, lam: [
            bounds.bound_terms(BoundParams(a, r0, p, lam), convention) for convention in CONVENTIONS
        ],
        (VALUES,) * 4,
    ),
    "bound_terms(params)": (bounds.bound_terms, (Records((THEOREM_DEFAULTS,)), CONVENTIONS)),
    "theorem_bound": (
        lambda a, r0, p, lam: bounds.theorem_bound(BoundParams(a, r0, p, lam)), (VALUES,) * 4
    ),
    "theorem_bound(tol)": (bounds.theorem_bound, (Records((THEOREM_DEFAULTS,)), VALUES)),
    "case_i_integral(tol)": (bounds.case_i_integral, (Records((THEOREM_DEFAULTS,)), VALUES)),
    "g_branch_kinks": (
        bounds.g_branch_kinks, (Records((THEOREM_DEFAULTS,)), (RLAMBDA_REPRODUCING,), VALUES, VALUES)
    ),
    # geom
    "make_triangle": (geom.make_triangle, (VALUES,) * 3),
    "exterior_area": (geom.exterior_area, (Records((TRI,)), VALUES)),
    "intersection_arcs": (geom.intersection_arcs, (Records((TRI,)), VALUES)),
    "exterior_area_isosceles": (geom.exterior_area_isosceles, (VALUES, VALUES)),
    "exterior_angle_ratio": (geom.exterior_angle_ratio, (VALUES, VALUES)),
    "exterior_area_rate": (geom.exterior_area_rate, (VALUES,)),
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
    "optimize(box)": (optimizer.optimize, (Records((POINT_BOX,)), CONVENTIONS)),
    "refine_iterative": (
        optimizer.refine_iterative, (Records((THEOREM_DEFAULTS,)), COUNTS, VALUES)
    ),
    # oracle
    "run_check(samples)": (
        # samples=None, the default, runs each check at full size: not junk
        lambda samples=None: [oracle.run_check(check, samples) for check in oracle.CheckId],
        (COUNTS,),
    ),
    "run_check(seed)": (
        lambda seed: oracle.run_check(oracle.CheckId.C_MIN, samples=100, seed=seed), (COUNTS,)
    ),
    "run_checks": (
        lambda checks: oracle.run_checks(checks, samples=100), (Records(([oracle.CheckId.C_MIN],)),)
    ),
    "find_h_threshold(tol)": (lambda tol: oracle.find_h_threshold(0.1, 0.2, tol), (VALUES,)),
    "find_h_threshold(lo, hi)": (
        lambda lo, hi: oracle.find_h_threshold(lo, hi, 1e-2), (VALUES, VALUES)
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
}


def _junk(pool, default):
    """The wrong-type arguments for a pool, less the argument's own default:
    junk records for records, NON_REALS for counts, NON_REALS and HUGE_INTS
    for reals, and none for other pools (names, conventions, intervals)."""
    if isinstance(pool, Records):
        junk = JUNK_RECORDS + tuple(r for r in RECORDS if type(r) is not type(pool[0]))
    elif pool is COUNTS:
        junk = NON_REALS
    elif all(type(x) in (int, float) for x in pool):
        junk = NON_REALS + HUGE_INTS
    else:
        return ()
    return tuple(x for x in junk if x is not default)


def _wrong_type_cases():
    """{'<entry>(<argument> object)': (entry, argument index, junk values)}."""
    cases = {}
    for name, (func, pools) in ENTRY_POINTS.items():
        parameters = list(inspect.signature(func).parameters.values())
        for index, pool in enumerate(pools):
            junk = _junk(pool, parameters[index].default)
            if junk:
                cases[f"{name.split('(')[0]}({parameters[index].name} object)"] = (name, index, junk)
    return cases


WRONG_TYPE_CASES = _wrong_type_cases()


def _numbers(value):
    """Every number inside a result: scalars, arrays and sequences, records among them."""
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
    else:
        raise AssertionError(f"unexpected result type {type(value).__name__}")


# Junk inside a record a caller passes back in: for each field, each value
# of JUNK_FIELDS and each value past the field's range.  A SearchBox field
# is an interval, which gets each such value at either end.
JUNK_FIELDS = (math.nan, math.inf, -math.inf) + NON_REALS + HUGE_INTS
RECORD_FIELDS = [(record, name, out_of_range) for record, fields in (
    (TRI, {"alpha": (), "delta": (-0.1,), "t": (-0.1, 1.5)}),
    (THEOREM_DEFAULTS, {"a": (0.0, 0.3), "r0": (0.05, 0.5), "p": (-0.1, 1.5), "lam": (-0.1, 1.5)}),
    (DERIVED, {"r_lambda": (0.0, 0.5), "delta1": (-0.1, 0.3), "r1": (0.5,), "g_mid": (0.5,)}),
    (POINT_BOX, {"a": (0.0, 0.3), "r0": (0.05, 0.5), "lam": (-0.1, 1.5)}),
) for name, out_of_range in fields.items()]


@pytest.mark.parametrize("record, name, out_of_range", RECORD_FIELDS,
                         ids=[f"{type(record).__name__}.{name}" for record, name, _ in RECORD_FIELDS])
def test_a_record_with_junk_in_a_field_is_refused_when_built(record, name, out_of_range):
    # built directly, from an iterable and by replacing one field of a good record
    cls, index = type(record), record._fields.index(name)
    values = JUNK_FIELDS + out_of_range
    if cls is optimizer.SearchBox:
        lo, hi = record[index]
        values = [(v, hi) for v in values] + [(lo, v) for v in values]
    bad = []
    for value in values:
        fields = record[:index] + (value,) + record[index + 1:]
        for how, build in (("direct", lambda: cls(*fields)), ("_make", lambda: cls._make(fields)),
                           ("_replace", lambda: record._replace(**{name: value}))):
            try:
                got = build()
            except DomainError:
                continue
            except Exception as exc:  # any other error, typed or not, fails the rule
                bad.append((how, value, f"{type(exc).__name__}: {exc}"))
                continue
            bad.append((how, value, f"accepted, built {got!r}"))
    assert not bad, f"{len(bad)} bad builds, first ones: {bad[:5]}"


def test_the_records_that_once_let_junk_through_refuse_it():
    # hand-built records whose junk reached a result or a raw TypeError
    for build in (
        lambda: geom.exterior_area(geom.NeedleTriangle(math.nan, 0.1, 0.5), 0.3),
        lambda: geom.intersection_arcs(geom.NeedleTriangle(math.inf, 0.1, 0.5), 0.3),
        lambda: bounds.active_g_branch(0.2, bounds.DerivedParams(0.2, 0.01, 1.1, math.nan)),
        lambda: bounds.direction_ratio_cap(0.2, bounds.DerivedParams(0.2, 0.01, 1.1, "x")),
        lambda: TRI._replace(t=7.0),
    ):
        with pytest.raises(DomainError):
            build()


def _arguments(pools, rnd):
    if math.prod(len(pool) for pool in pools) <= MAX_COMBINATIONS:
        return list(itertools.product(*pools))
    return [tuple(rnd.choice(pool) for pool in pools) for _ in range(MAX_COMBINATIONS)]


def _succeeding_call(func, pools):
    """The first arguments, from ORDINARY values and the pools' records and
    names, with which ``func`` returns."""
    candidates = [ORDINARY if _junk(pool, None) and not isinstance(pool, Records) else pool
                  for pool in pools]
    for args in itertools.product(*candidates):
        try:
            func(*args)
        except KakeyaError:
            continue
        return args
    raise AssertionError("no call from ordinary values succeeds")


def _check_wrong_types(name, index, junk):
    func, pools = ENTRY_POINTS[name]
    args = _succeeding_call(func, pools)
    bad = []
    for value in junk:
        call = args[:index] + (value,) + args[index + 1:]
        try:
            got = func(*call)
        except DomainError:
            continue
        except Exception as exc:  # any other error, typed or not, fails the rule
            bad.append((call, f"{type(exc).__name__}: {exc}"))
            continue
        bad.append((call, f"accepted, returned {got!r}"))
    assert not bad, f"{len(bad)} bad calls, first ones: {bad[:5]}"


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS) + sorted(WRONG_TYPE_CASES))
def test_entry_point_gives_finite_values_or_a_typed_error(name):
    if name in WRONG_TYPE_CASES:
        _check_wrong_types(*WRONG_TYPE_CASES[name])
        return
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
def test_cli_numeric_inputs_exit_0_2_or_3(command, mode, numeric, tmp_path):
    bad = []
    for flag in numeric:
        for value in CLI_VALUES:
            # --flag=value hands every value, "" included, to the flag's conversion
            argv = _mode_argv(command, mode, flag) + [f"--{flag}={value}"]
            try:
                code = cli.main(argv + ["--output-dir", str(tmp_path / "out")])
            except Exception as exc:  # the CLI must map every error to an exit code
                bad.append((argv, f"{type(exc).__name__}: {exc}"))
                continue
            if code not in (0, 2, 3):
                bad.append((argv, code))
    assert not bad, f"{len(bad)} bad runs, first ones: {bad[:5]}"
