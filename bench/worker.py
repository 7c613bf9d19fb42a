"""One benchmark pass in a fresh interpreter.

Usage: python3 bench/worker.py WORKLOAD SEED TRACE OUT_DIR

Prints one JSON line: the moment ``import kakeya`` completed (CLOCK_MONOTONIC
ns, comparable with the parent's clock), the pass's wall time and peak RSS,
and the outcome of the workload's correctness gate.  With TRACE = 1 the
pass runs under the span tracer, which saves its spans to OUT_DIR once
the pass ends; the per-layer metrics are then computed from that file.
"""

import time

import kakeya  # noqa: F401  (set-up ends when this import completes)

IMPORTED_NS = time.monotonic_ns()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, trace, out_dir = argv[0], int(argv[1]), argv[2] == "1", Path(argv[3])
    workload = WORKLOADS[name]
    inputs = workload.prepare(seed, out_dir)
    run = workload.run
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        run = tracer.wrap("bench.pass", run)
    started = time.perf_counter()
    raw = run(inputs)
    wall_s = time.perf_counter() - started
    if tracer is not None:
        tracer.uninstall()
        tracer.save(out_dir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome = workload.check(inputs, raw)
    result = {
        "imported_ns": IMPORTED_NS,
        "kakeya_file": kakeya.__file__,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "detail": outcome.detail,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
