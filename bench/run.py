"""Benchmark of the kakeya package, end to end and layer by layer.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, one of the diagnostic
workloads ``bound-sweep`` and ``verify-geometry``, or ``all`` to interleave
every workload in one run (S seconds each) and print all their metrics.

Each pass runs in a fresh interpreter (``bench/worker.py``), because a CLI
user pays for a fresh process on every command.  Passes are run one at a
time, closed loop, until the next one would overrun the time budget; a
fixed pure-Python probe is timed between passes as ``host.probe_us``, a
diagnostic of the host's speed that gates nothing.  Set-up time is the
time from spawning an interpreter until ``import kakeya`` completes,
sampled several times per run.

With ``--trace 0`` the last line of output carries the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` untraced and traced passes alternate
and it carries the per-layer metrics, from spans the benchmark records
around the package's public functions (see ``bench/tracer.py``).  Every
pass goes through the workload's correctness gate (``bench/workloads.py``).
The program's own files (CSV/JSON artifacts, traces) go to a temporary
directory under ``.bench_build/`` that is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKER = Path(__file__).resolve().parent / "worker.py"

# Workloads that run with the same gates and metrics but are not in
# BENCHMARK.json: on a 2-vCPU VM whose speed drifts by up to 2x, their
# ten-run spread of wall_s reached 0.24-0.31.
DIAGNOSTIC_WORKLOADS = ("bound-sweep", "verify-geometry")

SETUP_PROBES = 5
# A run is cut off this long after its measuring budget, so that a 55 s
# run ends within 180 s even when a pass hangs.
SLACK_S = 115.0
PROBE_LOOP = 200_000


def host_probe_us() -> float:
    """Time a fixed pure-Python loop, in microseconds."""
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i
    return (time.perf_counter() - started) * 1e6


class Runner:
    """Spawns fresh interpreters against the checkout's ``src`` tree."""

    def __init__(self, scratch: Path, deadline_s: float):
        self.scratch = scratch
        self.deadline = time.monotonic() + deadline_s
        self.src = ROOT / "src"
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(self.src) + (os.pathsep + path if path else ""))

    def _spawn(self, argv: list[str]) -> tuple[int, subprocess.CompletedProcess]:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("the run's time limit is spent")
        spawned_ns = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=self.env,
            capture_output=True, text=True, timeout=remaining,
        )
        return spawned_ns, proc

    def setup_probe(self) -> float:
        """Seconds from spawning an interpreter until ``import kakeya`` completes."""
        spawned_ns, proc = self._spawn(
            ["-c", "import time, kakeya; print(time.monotonic_ns(), kakeya.__file__)"]
        )
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import kakeya from {self.src}: {proc.stderr.strip()}")
        imported_ns, where = proc.stdout.split(maxsplit=1)
        if not Path(where.strip()).resolve().is_relative_to(self.src):
            raise RuntimeError(f"kakeya was imported from {where.strip()}, not from {self.src}")
        return (int(imported_ns) - spawned_ns) / 1e9

    def run_pass(self, workload: str, seed: int, traced: bool) -> dict:
        out_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=self.scratch))
        try:
            spawned_ns, proc = self._spawn(
                [str(WORKER), workload, str(seed), "1" if traced else "0", str(out_dir)]
            )
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-3:]
            return {"attempted": 1, "failed": 1, "problems": [f"worker exit {proc.returncode}: {tail}"]}
        result = json.loads(lines[-1])
        result["setup_s"] = (result.pop("imported_ns") - spawned_ns) / 1e9
        if not Path(result.pop("kakeya_file")).resolve().is_relative_to(self.src):
            result["problems"].append("kakeya was imported from outside the checkout")
        return result


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(workload: str, seed: int, untraced: list, traced: list, setup: list, probes: list):
    """End-to-end and per-layer metrics of one workload, plus diagnostics."""
    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [msg for p in passes for msg in p["problems"]]
    good = [p for p in untraced if "wall_s" in p]
    good_traced = [p for p in traced if "wall_s" in p]
    setup = setup + [p["setup_s"] for p in passes if "setup_s" in p]
    metrics = {
        "setup_s": _median(setup),
        "wall_s": _median([p["wall_s"] for p in good]),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in good]),
    }
    notes = {
        "passes": len(good),
        "pass_wall_s": [round(p["wall_s"], 3) for p in good],
        "setup_samples": len(setup),
        "failed_frac": failed / attempted if attempted else 1.0,
        "host.probe_us": _median(probes),
    }
    details = [p["detail"] for p in passes if "detail" in p]
    hashes = sorted({d["verify_sha256"] for d in details if "verify_sha256" in d})
    if hashes:
        notes["verify_sha256"] = {str(seed): hashes}
        if len(hashes) > 1:
            problems.append(f"verify.json differs between passes at seed {seed}")
    checks_failed = details[0].get("checks_failed", []) if details else []
    notes["checks_failed"] = checks_failed
    latencies = [ns for p in good for ns in p["detail"].get("latencies_ns", [])]
    if latencies:
        cuts = statistics.quantiles(latencies, n=100)
        notes["bound_us.p50"] = cuts[49] / 1e3
        notes["bound_us.p99"] = cuts[98] / 1e3
        notes["bound_us.samples"] = len(latencies)
    if details and "typed_errors" in details[0]:
        notes["typed_errors_per_pass"] = details[0]["typed_errors"]

    layers = {}
    traces = [p["layers"] for p in good_traced]
    if traces and good:
        for key in traces[0]:
            values = [t[key] for t in traces]
            if isinstance(values[0], int):
                if len(set(values)) > 1:
                    problems.append(f"count {key} differs between traced passes: {values}")
                layers[key] = values[0]
            else:
                layers[key] = _median(values)
        layers["oracle.checks_failed"] = len(checks_failed)
        layers["trace.overhead_frac"] = (
            _median([p["wall_s"] for p in good_traced]) / metrics["wall_s"] - 1.0
        )
        layers["host.probe_us"] = notes["host.probe_us"]
        notes["traced_passes"] = len(traces)
    return metrics, layers, notes, attempted, failed, problems


def measure(runner: Runner, jobs: list, seed: int, budget: float):
    """Run the jobs round-robin, one pass at a time, for ``budget`` seconds."""
    results = {job: [] for job in jobs}
    probes: list[float] = []
    last: dict = {}
    began = time.monotonic()
    done = 0
    while True:
        job = jobs[done % len(jobs)]
        # every job runs once; after that, stop before a pass that would overrun
        if done >= len(jobs) and time.monotonic() - began + last[job] > budget:
            return results, probes
        probes.append(host_probe_us())
        started = time.monotonic()
        results[job].append(runner.run_pass(job[0], seed, job[1]))
        last[job] = time.monotonic() - started
        done += 1


def main(argv: list[str]) -> int:
    names = [w["name"] for w in SPEC["workloads"]] + list(DIAGNOSTIC_WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "kakeya" / "__init__.py").is_file():
        print(f"error: no kakeya sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    selected = names if args.workload == "all" else [args.workload]
    jobs = [(w, traced) for w in selected for traced in ((False, True) if args.trace else (False,))]
    budget = args.seconds * len(selected)
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=build))
    try:
        runner = Runner(scratch, deadline_s=budget + SLACK_S)
        runner.setup_probe()  # warm-up: the first import compiles bytecode
        # set-up samples from both ends of the run, so they see more than one host phase
        setup = [runner.setup_probe() for _ in range(SETUP_PROBES)]
        results, probes = measure(runner, jobs, args.seed, budget)
        setup += [runner.setup_probe() for _ in range(SETUP_PROBES)]
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    declared = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    out_metrics, attempted, failed, problems = {}, 0, 0, []
    for workload in selected:
        metrics, layers, notes, n_att, n_fail, n_prob = summarize(
            workload, args.seed, results[(workload, False)], results.get((workload, True), []),
            setup, probes,
        )
        attempted += n_att
        failed += n_fail
        problems += [f"{workload}: {msg}" for msg in n_prob]
        values = {**metrics, **layers}
        missing = [spec["name"] for spec in declared if spec["name"] not in values]
        if missing:
            problems.append(f"{workload}: no measurement of {missing}")
        print(f"== {workload}  seed {args.seed}  {json.dumps(notes, sort_keys=True)}")
        for spec in SPEC["end_to_end"] + (SPEC["per_layer"] if args.trace else []):
            value = values.get(spec["name"], 0.0)
            print(f"   {spec['name']:<40} {value!r:>24} {spec['unit']}")
        prefix = f"{workload}." if args.workload == "all" else ""
        for spec in declared:
            out_metrics[prefix + spec["name"]] = {"value": values.get(spec["name"], 0.0), "unit": spec["unit"]}
    for msg in problems:
        print(f"problem: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
