"""Span tracing of the package's layers, installed from the benchmark's side.

``Tracer.install`` wraps the public functions of ``rng``, ``geom``,
``bounds``, ``optimizer``, ``oracle`` and ``cli`` (module-level functions
and the methods of public classes, plus dataclass ``__post_init__``
validation).  Every call records one span (name, start, end, parent) in
flat in-memory arrays; ``save`` writes them out once at the end of the
pass, and ``layer_metrics`` turns a saved trace into per-layer counts and
self times.  The package itself is not modified.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from pathlib import Path

import numpy as np

from kakeya import bounds, cli, geom, optimizer, oracle, rng
from kakeya.errors import KakeyaError

LAYERS = (rng, geom, bounds, optimizer, oracle, cli)

# Runs at every quadrature node; wrapping it would dominate the trace.
SKIP = {"bounds.direction_ratio_cap"}
# Private boundary worth a span: one balanced-objective evaluation, which
# ends in a typed error exactly when the point is infeasible.
EXTRA = {"optimizer._balanced_point"}

# Counts read from a call's arguments: span name -> (counter, getter).
COUNTERS = {
    "rng.CounterRng.raw": ("rng.draws", lambda a, k: k["n"] if "n" in k else a[1]),
    "oracle.mc_area": ("oracle.mc_area.samples", lambda a, k: k["samples"] if "samples" in k else a[2]),
}
# Spans whose name gains a suffix from the arguments.
LABELS = {"oracle.run_check": lambda a, k: (k["check"] if "check" in k else a[0]).value}

CHECK_NAMES = tuple(c.value for c in oracle.CheckId)

# Kinds of exception that end a span.
TYPED, UNTYPED = 1, 2


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")  # 4 per span: name id, start ns, end ns, parent index
        self.errors = array("q")  # 2 per error: span index, kind
        self.counts = {name: 0 for name, _ in COUNTERS.values()}
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, func):
        spans, errors, stack, counts = self.spans, self.errors, self._stack, self.counts
        fixed_id = self._id(name)
        counter = COUNTERS.get(name)
        label = LABELS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            name_id = fixed_id if label is None else self._id(f"{name}.{label(args, kwargs)}")
            if counter is not None:
                counts[counter[0]] += int(counter[1](args, kwargs))
            index = len(spans) >> 2
            spans.extend((name_id, 0, 0, stack[-1]))
            stack.append(index)
            start = clock()
            try:
                return func(*args, **kwargs)
            except BaseException as exc:
                errors.extend((index, TYPED if isinstance(exc, KakeyaError) else UNTYPED))
                raise
            finally:
                end = clock()
                stack.pop()
                spans[4 * index + 1] = start
                spans[4 * index + 2] = end

        return traced

    def _patch(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def install(self) -> None:
        for module in LAYERS:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj) and name not in SKIP and (
                    not attr.startswith("_") or name in EXTRA
                ):
                    self._patch(module, attr, name)
                elif inspect.isclass(obj) and not attr.startswith("_"):
                    for method, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (
                            not method.startswith("_") or method == "__post_init__"
                        ):
                            self._patch(obj, method, f"{name}.{method}")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def save(self, out_dir: Path) -> None:
        np.save(out_dir / "spans.npy", np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 4))
        np.save(out_dir / "errors.npy", np.frombuffer(self.errors, dtype=np.int64).reshape(-1, 2))
        (out_dir / "trace.json").write_text(
            json.dumps({"names": self.names, "counts": self.counts}), encoding="utf-8"
        )


def layer_metrics(trace_dir: Path) -> dict[str, float | int]:
    """Per-layer counts and self times (seconds) of one saved trace."""
    spans = np.load(trace_dir / "spans.npy")
    errors = np.load(trace_dir / "errors.npy")
    meta = json.loads((trace_dir / "trace.json").read_text(encoding="utf-8"))
    names = meta["names"]
    name_id, start, end, parent = spans.T
    duration = end - start
    # self time: a span's duration minus the time its direct children cover
    has_parent = parent >= 0
    covered = np.zeros(len(spans), dtype=np.int64)
    np.add.at(covered, parent[has_parent], duration[has_parent])
    self_ns = duration - covered

    # per-span masks through the name table, without per-span strings
    def named(full_name: str) -> np.ndarray:
        return name_id == (names.index(full_name) if full_name in names else -1)

    layer_table = [n.split(".", 1)[0] for n in names]
    layer_index = {layer: i for i, layer in enumerate(dict.fromkeys(layer_table))}
    layer_of = np.array([layer_index[layer] for layer in layer_table], dtype=np.int64)[name_id]

    def in_layer(layer: str) -> np.ndarray:
        return layer_of == layer_index.get(layer, -1)

    def self_s(mask) -> float:
        return int(self_ns[mask].sum()) / 1e9

    kind = np.zeros(len(spans), dtype=np.int64)
    kind[errors[:, 0]] = errors[:, 1]
    in_bounds = in_layer("bounds")
    parent_in_bounds = has_parent & in_bounds[np.where(has_parent, parent, 0)]

    # spans nested in optimizer.optimize: optimize spans never nest, so a
    # span lies inside one iff it starts and ends within its interval
    is_optimize = named("optimizer.optimize")
    opt = np.flatnonzero(is_optimize)
    inside_opt = np.zeros(len(spans), dtype=bool)
    if opt.size:
        which = np.searchsorted(start[opt], start, side="right") - 1
        ok = which >= 0
        enclosing = opt[np.where(ok, which, 0)]
        inside_opt = ok & (end <= end[enclosing]) & ~is_optimize

    is_integral = named("bounds.case_i_integral")
    draws = meta["counts"]["rng.draws"]
    rng_self_ns = int(self_ns[in_layer("rng")].sum())
    metrics = {
        "rng.draws": draws,
        "rng.self_s": rng_self_ns / 1e9,
        "rng.ns_per_draw": rng_self_ns / draws if draws else 0.0,
        "geom.calls": int(np.count_nonzero(in_layer("geom"))),
        "geom.self_s": self_s(in_layer("geom")),
        "bounds.theorem_bound.calls": int(np.count_nonzero(named("bounds.theorem_bound"))),
        "bounds.case_i_integral.calls": int(np.count_nonzero(is_integral)),
        "bounds.case_i_integral.self_s": self_s(is_integral),
        "bounds.self_s": self_s(in_bounds),
        # typed errors that leave the layer, each counted once
        "bounds.typed_errors": int(np.count_nonzero(in_bounds & (kind == TYPED) & ~parent_in_bounds)),
        "optimizer.evaluations": int(np.count_nonzero(is_integral & inside_opt)),
        "optimizer.infeasible": int(
            np.count_nonzero(named("optimizer._balanced_point") & (kind == TYPED) & inside_opt)
        ),
        "optimizer.self_s": self_s(in_layer("optimizer")),
    }
    for check in CHECK_NAMES:
        metrics[f"oracle.check_s.{check}"] = int(duration[named(f"oracle.run_check.{check}")].sum()) / 1e9
    metrics["oracle.mc_area.samples"] = meta["counts"]["oracle.mc_area.samples"]
    metrics["oracle.self_s"] = self_s(in_layer("oracle"))
    metrics["cli.self_s"] = self_s(in_layer("cli"))
    return metrics
