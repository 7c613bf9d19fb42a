"""The benchmark's workloads: inputs, one timed pass, and a correctness gate.

Each workload is three steps, all run inside one fresh interpreter:

- ``prepare(seed, out_dir)`` builds the inputs (untimed).  Generated inputs
  come from ``random.Random(seed)``, never from the package's own RNG.
- ``run(inputs)`` is the timed pass; it calls the package only through
  module attributes, so a traced pass sees every call.
- ``check(inputs, raw)`` judges the pass (untimed) and returns an Outcome.

A verification check that reports FAIL is a verdict of the program, not a
failed operation: it is counted in ``checks_failed``.  An operation fails
when it yields no well-formed result at all.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from kakeya import bounds, cli
from kakeya.errors import KakeyaError

# Criterion 4/5 tolerances for the sec41 reproduction.
SEC41_TARGET = {"a": 0.06473, "r0": 0.22785, "p": 0.88794, "lambda": 0.90696}
SEC41_PARAM_TOL = 2e-3
SEC41_FLOOR = 0.01030
UPPER_BOUND_COEFF = (5.0 - 2.0 * math.sqrt(2.0)) / 24.0

# One bound-sweep pass takes about 5 s, long enough to average over the
# host's speed swings, with 200 calls beyond its p99.
SWEEP_POINTS = 20_000
SWEEP_BOX = {"a": (0.01, 0.2), "r0": (0.12, 0.49), "p": (0.0, 1.0), "lam": (0.0, 1.0)}

# Default sample sizes of `kakeya verify --all`, in report order.
VERIFY_ALL_SAMPLES = {
    "IsoscelesMinimality": 10_000,
    "HMinAtZero": 10_000,
    "ExtDisjoint": 10_000,
    "IntDisjoint": 10_000,
    "JGammaRatio": 10_000,
    "CMin": 10_000,
    "FArgmax": 100_000,
    "SectorMeasure": 1_000_000,
    "ArcConsistency": 10_000,
}
GEOMETRY_CHECKS = (
    "IsoscelesMinimality",
    "ArcConsistency",
    "HMinAtZero",
    "JGammaRatio",
    "CMin",
    "FArgmax",
)
GEOMETRY_SAMPLES = 100_000
# The seed at which criterion 6 requires every check to pass.
ALL_PASS_SEED = 7

_RECORD_KEYS = {"id", "samples", "grid_spec", "max_violation", "tolerance", "pass", "seed"}


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)


def _quiet_main(argv: list[str]) -> int:
    """Run the CLI with its console output captured, as a script would."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


# ---------------------------------------------------------------------------
# sec41-search
# ---------------------------------------------------------------------------

def _sec41_prepare(seed: int, out_dir: Path) -> dict:
    # the input is fixed by the paper, so the seed is unused
    argv = ["optimize", "--preset", "sec41", "--refine", "10", "--output-dir", str(out_dir)]
    return {"argv": argv, "out_dir": out_dir}


def _cli_run(inputs: dict) -> int:
    return _quiet_main(inputs["argv"])


def _sec41_check(inputs: dict, code: int) -> Outcome:
    out = Outcome(attempted=1, failed=0)
    try:
        payload = json.loads((inputs["out_dir"] / "optimize.json").read_text(encoding="utf-8"))
        best, final, seq = payload["best"], payload["breakdown"]["final"], payload["refine"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        out.failed = 1
        out.problems.append(f"exit {code}, no readable optimize.json: {exc!r}")
        return out
    if code != 0:
        out.failed = 1
        out.problems.append(f"exit code {code}, expected 0")
    if not final >= SEC41_FLOOR:
        out.problems.append(f"final {final!r} below {SEC41_FLOOR}")
    for key, target in SEC41_TARGET.items():
        if not abs(best[key] - target) <= SEC41_PARAM_TOL:
            out.problems.append(f"best {key} = {best[key]!r}, expected {target} +- {SEC41_PARAM_TOL}")
    if not abs(final - best["a"] / (2.0 * math.pi)) <= 1e-4:
        out.problems.append("the a/(2pi) cap is not active at the optimum")
    if not seq or any(later < earlier for earlier, later in zip(seq, seq[1:])):
        out.problems.append(f"refine sequence is empty or not monotone: {seq!r}")
    if not all(SEC41_FLOOR <= v <= UPPER_BOUND_COEFF for v in seq):
        out.problems.append(f"refine sequence leaves [{SEC41_FLOOR}, (5-2*sqrt 2)/24]")
    out.detail = {"final": final, "refine_last": seq[-1] if seq else None}
    return out


# ---------------------------------------------------------------------------
# bound-sweep
# ---------------------------------------------------------------------------

def _sweep_prepare(seed: int, out_dir: Path) -> dict:
    rnd = random.Random(seed)
    points = [
        tuple(rnd.uniform(*SWEEP_BOX[key]) for key in ("a", "r0", "p", "lam"))
        for _ in range(SWEEP_POINTS)
    ]
    return {"points": points}


def _sweep_run(inputs: dict) -> tuple[list, list[int]]:
    results, latencies_ns = [], []
    clock = time.perf_counter_ns
    for a, r0, p, lam in inputs["points"]:
        start = clock()
        try:
            got = bounds.theorem_bound(bounds.BoundParams(a=a, r0=r0, p=p, lam=lam))
        except KakeyaError as exc:
            got = exc
        except Exception as exc:  # an untyped error is a failed operation, counted below
            got = ("untyped", repr(exc))
        latencies_ns.append(clock() - start)
        results.append(got)
    return results, latencies_ns


def _sweep_check(inputs: dict, raw: tuple[list, list[int]]) -> Outcome:
    results, latencies_ns = raw
    out = Outcome(attempted=len(results), failed=0)
    typed = 0
    for point, got in zip(inputs["points"], results):
        if isinstance(got, KakeyaError):
            typed += 1
        elif isinstance(got, bounds.BoundBreakdown):
            terms = (got.case_i, got.case_ii, got.half_a, got.final)
            if not all(math.isfinite(t) for t in terms) or got.final != min(terms[:3]):
                out.failed += 1
                out.problems.append(f"breakdown at {point} breaks final == min(...): {got}")
        else:
            out.failed += 1
            out.problems.append(f"untyped error at {point}: {got[1] if isinstance(got, tuple) else got!r}")
    del out.problems[5:]  # the first few are enough to diagnose
    out.detail = {"typed_errors": typed, "latencies_ns": latencies_ns}
    return out


# ---------------------------------------------------------------------------
# verify-all and verify-geometry
# ---------------------------------------------------------------------------

def _verify_prepare(check_argv: list[str], samples: dict):
    def prepare(seed: int, out_dir: Path) -> dict:
        # the verification seed is the run seed itself, so seed 7 is criterion 6
        argv = ["verify", *check_argv, "--seed", str(seed), "--output-dir", str(out_dir)]
        return {"argv": argv, "out_dir": out_dir, "seed": seed, "samples": samples}

    return prepare


def _verify_check(inputs: dict, code: int) -> Outcome:
    expected = inputs["samples"]
    out = Outcome(attempted=len(expected), failed=0)
    try:
        blob = (inputs["out_dir"] / "verify.json").read_bytes()
        payload = json.loads(blob)
        records = payload["checks"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        out.failed = len(expected)
        out.problems.append(f"exit {code}, no readable verify.json: {exc!r}")
        return out
    if code not in (0, 1) or not isinstance(records, list):
        out.failed = len(expected)
        out.problems.append(f"exit code {code}, expected 0 or 1, with a list of check records")
        return out
    if set(payload) != {"seed", "all_pass", "checks"} or payload["seed"] != inputs["seed"]:
        out.problems.append(f"verify.json header is malformed: {sorted(payload)}")
    verdicts = {}
    for record in records:
        if not isinstance(record, dict) or set(record) != _RECORD_KEYS:
            continue
        name = record["id"]
        ok = (
            name in expected
            and record["samples"] == expected[name]
            and record["seed"] == inputs["seed"]
            and isinstance(record["max_violation"], float)
            and record["max_violation"] >= 0.0
            and record["pass"] == (record["max_violation"] <= record["tolerance"])
        )
        if ok and name not in verdicts:
            verdicts[name] = record["pass"]
    missing = [name for name in expected if name not in verdicts]
    if missing:
        out.failed = len(missing)
        out.problems.append(f"missing or malformed check records: {missing}")
    if [record.get("id") for record in records if isinstance(record, dict)] != list(expected):
        out.problems.append("check records are not in report order")
    all_pass = all(verdicts.values()) and not missing
    if payload.get("all_pass") != all_pass or (code == 0) != all_pass:
        out.problems.append(f"exit code {code} and all_pass disagree with the records")
    if inputs["seed"] == ALL_PASS_SEED and not all_pass:
        out.problems.append(f"a check fails at seed {ALL_PASS_SEED}: {verdicts}")
    out.detail = {
        "verify_sha256": hashlib.sha256(blob).hexdigest(),
        "checks_failed": sorted(name for name, passed in verdicts.items() if not passed),
    }
    return out


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    prepare: object
    run: object
    check: object


WORKLOADS = {
    "sec41-search": Workload(_sec41_prepare, _cli_run, _sec41_check),
    "bound-sweep": Workload(_sweep_prepare, _sweep_run, _sweep_check),
    "verify-all": Workload(
        _verify_prepare(["--all"], VERIFY_ALL_SAMPLES), _cli_run, _verify_check
    ),
    "verify-geometry": Workload(
        _verify_prepare(
            [arg for name in GEOMETRY_CHECKS for arg in ("--check", name)]
            + ["--samples", str(GEOMETRY_SAMPLES)],
            {name: GEOMETRY_SAMPLES for name in GEOMETRY_CHECKS},
        ),
        _cli_run,
        _verify_check,
    ),
}
