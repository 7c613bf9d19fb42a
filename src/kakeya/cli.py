"""Command-line front end: bound evaluation, optimization, verification, scans.

Commands follow a stable exit-code contract: 0 success, 1 verification
failure, 2 usage or domain error, 3 infeasibility, 4 a verification
worker process that died (killed, say, for memory; no verdict and no
``verify.json``).  All file outputs (CSV per RFC 4180, JSON with fixed
field names, static SVG 1.1 plots) are byte-identical across runs for
identical configuration and seed.
Each run has a mode, its preset or scan function: ``_MODES`` gives the flags
each mode reads and the files it can write; any other flag or format is an error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import bounds, optimizer, oracle
from .bounds import (
    RLAMBDA_PAPER_LITERAL,
    RLAMBDA_REPRODUCING,
    BoundParams,
    THEOREM_DEFAULTS,
)
from .errors import CaseIIInfeasible, DomainError, EmptyFeasibleSet, WorkerLost
from .optimizer import SearchBox
from .oracle import DEFAULT_SEED, CheckId

__all__ = ["Config", "OutputTable", "main"]

# The sec41 preset searches the parameter intervals published with the
# refined optimum; wider boxes admit slightly larger objective values at
# their lambda edge (see the scan command), so reproduction pins the box
# to the published intervals.
_SEC41_BOX = dict(
    a=(0.06473, 0.06474),
    r0=(0.22785, 0.22786),
    lam=(0.90696, 0.90697),
)

# Every flag but --preset and --config, by long name.
_FLAGS = {
    "a": dict(type=float, help="needle-height cap, in (0, 1/2)"),
    "r0": dict(type=float, help="cutoff radius, in (a, 1/2)"),
    "p": dict(type=float, help="direction-proportion split, in [0, 1]"),
    "lambda": dict(dest="lam", type=float, help="interpolation weight for r_lambda, in [0, 1]"),
    "seed": dict(type=int, help="master seed (default: KAKEYA_SEED env var, else 7)"),
    "rlambda-convention": dict(choices=(RLAMBDA_REPRODUCING, RLAMBDA_PAPER_LITERAL)),
    "output-dir": dict(type=str),
    "emit": dict(type=str, help="comma list of the formats this mode writes"),
    "digits": dict(type=int, help="significant digits for printed numbers"),
    "refine": dict(type=int, metavar="N",
                   help="append N steps of the iterative inner-bound refinement"),
    "all": dict(action="store_true", help="run every check"),
    "check": dict(action="append", choices=sorted(c.value for c in CheckId),
                  help="run one named check (repeatable)"),
    "samples": dict(type=int, help="override the per-check sample/grid size "
                                   f"(100 to {oracle.MAX_SAMPLES})"),
    "from": dict(dest="r_from", type=float),
    "to": dict(dest="r_to", type=float),
    "steps": dict(type=int, help="default 100"),
    "a-from": dict(type=float),
    "a-to": dict(type=float),
    "a-steps": dict(type=int, help="default 50"),
    "r0-from": dict(type=float),
    "r0-to": dict(type=float),
    "r0-steps": dict(type=int, help="default 50"),
}
# Keys a config file may set, named like the flags.  The set is shared:
# a key that only another command reads is accepted.
_PARAMS = ("a", "r0", "p", "lambda")
_CONFIG_KEYS = frozenset(
    ("preset", *_PARAMS, "seed", "rlambda-convention", "output-dir", "emit", "digits")
)


def _mode(*flags, emit=()):
    """A mode's flags, --output-dir and (if it emits files) --emit; its formats."""
    return frozenset((*flags, "output-dir", *(("emit",) if emit else ()))), emit


# Formats other than svg are written by default.  The presets of bound and
# optimize are their modes; the first one listed runs when no preset is
# given, so no preset reads like theorem.
_R_SCAN = ("from", "to", "steps", "digits")
_MODES = {
    "bound": {
        "theorem": _mode(*_PARAMS, "rlambda-convention", "digits", emit=("csv", "json")),
        "cunningham": _mode(emit=("json",)),
    },
    "optimize": {
        "theorem": _mode("a", "r0", "lambda", "rlambda-convention", "digits", "refine"),
        "sec41": _mode("rlambda-convention", "digits", "refine"),
    },
    "verify": {None: _mode("seed", "all", "check", "samples")},
    "scan": {
        "f": _mode(*_R_SCAN, emit=("csv", "svg")),
        "g": _mode("a", "r0", "lambda", "rlambda-convention", *_R_SCAN, emit=("csv", "svg")),
        "c": _mode("a", *_R_SCAN, emit=("csv", "svg")),
        **dict.fromkeys(("case_i", "case_ii", "final"), _mode(
            *_PARAMS, "rlambda-convention", "digits", "a-from", "a-to", "a-steps",
            "r0-from", "r0-to", "r0-steps", emit=("csv", "svg"),
        )),
    },
}
# The presets each command implements; scan's modes are its functions.
_PRESETS = {"bound": tuple(_MODES["bound"]), "optimize": tuple(_MODES["optimize"]),
            "scan": ("theorem",), "verify": ()}


def _dest(flag: str) -> str:
    return _FLAGS[flag].get("dest", flag.replace("-", "_"))


@dataclass(frozen=True)
class Config:
    """Resolved run configuration (flags override config-file values).

    A field is None when the run's mode (see ``_MODES``) reads none of
    its flags; parameters the mode does not read keep their theorem values.
    ``a`` is set instead of ``params`` for scan c, which reads a alone:
    c(r, a) is defined for every a > 0, so no r0 may cap it.
    """

    params: BoundParams | None
    a: float | None
    rlambda_convention: str | None
    seed: int | None
    output_dir: Path
    emit: frozenset[str] | None
    digits: int | None
    preset: str | None


@dataclass(frozen=True)
class OutputTable:
    """Rectangular numeric table with named columns and a caption."""

    columns: tuple[str, ...]
    rows: list[tuple]
    caption: str

    def render(self, digits: int) -> str:
        widths = [max(len(c), 12) for c in self.columns]
        lines = [self.caption]
        lines.append("  ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        for row in self.rows:
            cells = [
                (f"{v:.{digits}g}" if isinstance(v, float) else str(v)).ljust(w)
                for v, w in zip(row, widths)
            ]
            lines.append("  ".join(cells))
        return "\n".join(lines)

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow(
                    [f"{v:.17g}" if isinstance(v, float) else str(v) for v in row]
                )


# ---------------------------------------------------------------------------
# Argument and config-file parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kakeya",
        description="Lower bounds for star-shaped Kakeya sets: evaluate, optimize, verify, scan.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary in (
        ("bound", "evaluate the lower bound at one parameter point"),
        ("optimize", "search (a, r0, lambda) with balanced p"),
        ("verify", "run brute-force geometry checks"),
        ("scan", "tabulate a bound function over a range"),
    ):
        # no prefix matching: `verify --a` must not turn into `--all`
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        if name == "scan":
            p.add_argument("function", choices=tuple(_MODES["scan"]))
        for flag, spec in _FLAGS.items():
            if any(flag in reads for reads, _ in _MODES[name].values()):
                p.add_argument(f"--{flag}", default=None, **spec)
        if _PRESETS[name]:
            p.add_argument("--preset", choices=_PRESETS[name], default=None)
        p.add_argument("--config", type=str, default=None, help="flat key = value config file")
    return parser


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line is not 'key = value': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise DomainError(f"unknown config key {key!r} in {path}")
        values[key] = value
    return values


def _resolve_config(args) -> Config:
    fileconf = _load_config_file(args.config) if args.config else {}
    # verify has no --preset flag, but a config file may still name one
    preset = getattr(args, "preset", None) or fileconf.get("preset")
    if preset is not None and preset not in _PRESETS[args.command]:
        if not any(preset in names for names in _PRESETS.values()):
            raise DomainError(f"unknown preset {preset!r}")
        raise DomainError(f"preset {preset!r} does not apply to {args.command}")
    scan = args.command == "scan"
    mode = args.function if scan else preset or next(iter(_MODES[args.command]))
    where = f"scan {mode}" if scan else f"preset {preset}" if preset else args.command
    reads, formats = _MODES[args.command][mode]
    for flag in _FLAGS:
        value = getattr(args, _dest(flag), None)
        if flag.endswith("steps") and value is not None and value < 2:
            raise DomainError(f"--{flag} must be >= 2, got {value}")
        if value is not None and flag not in reads:
            raise DomainError(f"--{flag} does not apply to {where}")

    def pick(flag, default, conf=fileconf):
        """The flag's value, else the file's, else ``default``; None if unread."""
        if flag not in reads:
            return None
        flag_value = getattr(args, _dest(flag))
        if flag_value is not None:
            return flag_value
        if flag in conf:
            return _FLAGS[flag].get("type", str)(conf[flag])
        return default

    params = a = None
    if "a" in reads:
        # the theorem preset fixes the parameter point; explicit flags still win
        conf = {} if preset == "theorem" else fileconf
        given = {_dest(flag): pick(flag, None, conf) for flag in _PARAMS}
        if "r0" in reads:
            params = replace(THEOREM_DEFAULTS, **{k: v for k, v in given.items() if v is not None})
        else:
            a = THEOREM_DEFAULTS.a if given["a"] is None else given["a"]
    seed = pick("seed", None)
    if "seed" in reads and seed is None:
        env_seed = os.environ.get("KAKEYA_SEED")
        seed = int(env_seed) if env_seed else DEFAULT_SEED
    emit = None
    if formats:
        emit_raw = pick("emit", ",".join(f for f in formats if f != "svg"))
        emit = frozenset(tok.strip() for tok in emit_raw.split(",") if tok.strip())
        bad = ",".join(sorted(emit - set(formats)))
        if bad:
            raise DomainError(f"{where} cannot emit {bad}; --emit takes {','.join(formats)}")
    digits = pick("digits", 6)
    if digits is not None and digits < 1:
        raise DomainError(f"digits must be >= 1, got {digits}")
    return Config(
        params=params,
        a=a,
        rlambda_convention=pick("rlambda-convention", RLAMBDA_REPRODUCING),
        seed=seed,
        output_dir=Path(pick("output-dir", ".")),
        emit=emit,
        digits=digits,
        preset=preset,
    )


def _write_json(cfg: Config, name: str, payload: dict) -> Path:
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.output_dir / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _params_json(params: BoundParams) -> dict:
    return {"a": params.a, "r0": params.r0, "p": params.p, "lambda": params.lam}


# ---------------------------------------------------------------------------
# SVG plotting
# ---------------------------------------------------------------------------

def _write_svg(path: Path, xs, ys, x_label: str, y_label: str, title: str) -> None:
    width, height = 640, 420
    m_left, m_right, m_top, m_bottom = 70, 20, 34, 50
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return m_left + (x - x_lo) / (x_hi - x_lo) * (width - m_left - m_right)

    def sy(y):
        return height - m_bottom - (y - y_lo) / (y_hi - y_lo) * (height - m_top - m_bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.2f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{m_left}" y1="{height - m_bottom}" x2="{width - m_right}" '
        f'y2="{height - m_bottom}" stroke="black"/>',
        f'<line x1="{m_left}" y1="{m_top}" x2="{m_left}" y2="{height - m_bottom}" stroke="black"/>',
    ]
    for i in range(5):
        frac = i / 4
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<line x1="{sx(xv):.2f}" y1="{height - m_bottom}" x2="{sx(xv):.2f}" '
            f'y2="{height - m_bottom + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{sx(xv):.2f}" y="{height - m_bottom + 18}" text-anchor="middle" '
            f'font-size="11">{xv:.6g}</text>'
        )
        parts.append(
            f'<line x1="{m_left - 5}" y1="{sy(yv):.2f}" x2="{m_left}" y2="{sy(yv):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{m_left - 8}" y="{sy(yv) + 4:.2f}" text-anchor="end" '
            f'font-size="11">{yv:.6g}</text>'
        )
    points = " ".join(f"{sx(x):.3f},{sy(y):.3f}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{points}" fill="none" stroke="blue" stroke-width="1.5"/>')
    parts.append(
        f'<text x="{(m_left + width - m_right) / 2:.2f}" y="{height - 12}" '
        f'text-anchor="middle" font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{(m_top + height - m_bottom) / 2:.2f}" text-anchor="middle" '
        f'font-size="12" transform="rotate(-90 16 {(m_top + height - m_bottom) / 2:.2f})">{y_label}</text>'
    )
    parts.append("</svg>")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_bound(cfg: Config, args) -> int:
    digits = cfg.digits
    if cfg.preset == "cunningham":
        coeff = bounds.cunningham_bound()
        print("cunningham (direction set [0, pi), cutoff 1/6)")
        print(f"coefficient_of_pi = {coeff:.17g}")
        print(f"absolute_area = {coeff * math.pi:.17g}")
        print(f"equals 1/108 within {abs(coeff - 1.0 / 108.0):.3g}")
        if "json" in cfg.emit:
            path = _write_json(cfg, "bound.json", {
                "preset": "cunningham",
                "coefficient_of_pi": coeff,
                "absolute_area": coeff * math.pi,
            })
            print(f"wrote {path}")
        return 0

    params = cfg.params
    breakdown = bounds.theorem_bound(params, convention=cfg.rlambda_convention)
    derived = bounds.derive_params(params, cfg.rlambda_convention)
    print(
        f"a = {params.a:.{digits}g}  r0 = {params.r0:.{digits}g}  p = {params.p:.{digits}g}  "
        f"lambda = {params.lam:.{digits}g}  convention = {cfg.rlambda_convention}"
    )
    print(
        f"r_lambda = {derived.r_lambda:.{digits}g}  delta1 = {derived.delta1:.{digits}g}  "
        f"r1 = {derived.r1:.{digits}g}  integral = {breakdown.integral_value:.{digits}g}"
    )
    table = OutputTable(
        columns=("term", "coeff_of_pi", "absolute_area"),
        rows=[
            ("case_i", breakdown.case_i, breakdown.case_i * math.pi),
            ("case_ii", breakdown.case_ii, breakdown.case_ii * math.pi),
            ("half_a", breakdown.half_a, breakdown.half_a * math.pi),
            ("final", breakdown.final, breakdown.final * math.pi),
        ],
        caption="lower-bound breakdown (final = min of the three terms)",
    )
    print(table.render(digits))
    rel = ">=" if breakdown.final >= 1.0 / 98.0 else "<"
    print(f"final {rel} 1/98  ({breakdown.final:.17g} vs {1.0 / 98.0:.17g})")
    if "csv" in cfg.emit:
        table.write_csv(cfg.output_dir / "bound.csv")
        print(f"wrote {cfg.output_dir / 'bound.csv'}")
    if "json" in cfg.emit:
        path = _write_json(cfg, "bound.json", {
            "params": _params_json(params),
            "convention": cfg.rlambda_convention,
            **asdict(breakdown),
        })
        print(f"wrote {path}")
    return 0


def _cmd_optimize(cfg: Config, args) -> int:
    if cfg.preset == "sec41":
        box = SearchBox(**_SEC41_BOX)
    else:
        # no preset: collapse the box to the configured parameter point
        params = cfg.params
        box = SearchBox(
            a=(params.a, params.a),
            r0=(params.r0, params.r0),
            lam=(params.lam, params.lam),
        )
    result = optimizer.optimize(box, cfg.rlambda_convention)
    best = result.best
    print(
        f"optimum: a = {best.a:.{cfg.digits}g}  r0 = {best.r0:.{cfg.digits}g}  "
        f"p = {best.p:.{cfg.digits}g}  lambda = {best.lam:.{cfg.digits}g}"
    )
    print(f"bound coefficient_of_pi = {result.breakdown.final:.17g}")
    payload = {
        "box": {"a": box.a, "r0": box.r0, "lambda": box.lam},
        "best": _params_json(best),
        "balanced_p": result.balanced_p,
        "breakdown": asdict(result.breakdown),
        "trace": [{**_params_json(pt), "value": value} for pt, value in result.trace],
    }
    if args.refine:
        seq = optimizer.refine_iterative(
            best, args.refine, convention=cfg.rlambda_convention
        )
        payload["refine"] = seq
        print("refine sequence:", " ".join(f"{v:.12g}" for v in seq))
    path = _write_json(cfg, "optimize.json", payload)
    print(f"wrote {path}")
    return 0


def _cmd_verify(cfg: Config, args) -> int:
    if args.all and args.check:
        raise DomainError("--all and --check cannot be combined")
    if args.all or not args.check:
        selected = list(CheckId)
    else:
        selected = [CheckId(name) for name in args.check]
    # several checks share one pool; one check goes through run_check, the
    # one-check entry point (and the seam a test replaces to force a FAIL)
    if len(selected) == 1:
        reports = [oracle.run_check(selected[0], samples=args.samples, seed=cfg.seed)]
    else:
        reports = oracle.run_checks(selected, samples=args.samples, seed=cfg.seed)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(
            f"{status} {rep.id.value}: max_violation = {rep.max_violation:.6g} "
            f"(tolerance {rep.tolerance:.6g}, samples {rep.samples}, seed {rep.seed})"
        )
    all_pass = all(rep.passed for rep in reports)
    path = _write_json(cfg, "verify.json", {
        "seed": cfg.seed,
        "all_pass": all_pass,
        "checks": [rep.as_dict() for rep in reports],
    })
    print(f"wrote {path}")
    return 0 if all_pass else 1


def _grid(lo: float, hi: float, steps: int, name: str) -> list[float]:
    """``steps`` evenly spaced points from lo to hi; one point when lo == hi."""
    if hi < lo:
        raise DomainError(f"inverted {name} range [{lo}, {hi}]")
    if hi == lo:
        return [lo]
    return [lo + (hi - lo) * k / (steps - 1) for k in range(steps)]


def _scan_range(args, steps, domain_lo, domain_hi, what) -> list[float]:
    lo = args.r_from if args.r_from is not None else domain_lo
    hi = args.r_to if args.r_to is not None else domain_hi
    if not (domain_lo <= lo < hi <= domain_hi):
        raise DomainError(
            f"scan range [{lo}, {hi}] outside the domain [{domain_lo}, {domain_hi}] of {what}"
        )
    return _grid(lo, hi, steps, "r")


def _cmd_scan(cfg: Config, args) -> int:
    params = cfg.params
    fn = args.function
    steps = 100 if args.steps is None else args.steps
    caption = f"scan of {fn}"
    if fn == "f":
        grid = _scan_range(args, steps, 0.0, 0.5, "the outer-area rate")
        table = OutputTable(
            columns=("r", "f"),
            rows=[(r, bounds.exterior_area_rate(r)) for r in grid],
            caption=caption,
        )
    elif fn == "c":
        grid = _scan_range(args, steps, cfg.a, 4.0, "the needle-outside rate")
        table = OutputTable(
            columns=("r", "c"),
            rows=[(r, bounds.outside_area_rate(r, cfg.a)) for r in grid],
            caption=caption,
        )
    elif fn == "g":
        derived = bounds.derive_params(params, cfg.rlambda_convention)
        grid = _scan_range(args, steps, 1e-9, 0.5 - 1e-9, "the direction-ratio cap")
        branches = ("(1+2r)/(1-2r)", "(1+2r_lambda)/(1-2r_lambda)", "pi/(pi/2-atan(2r))")
        rows = []
        for r in grid:
            value = bounds.direction_ratio_cap(r, derived)
            rows.append((r, value, branches[bounds._argmax_branch(r, derived)]))
        table = OutputTable(columns=("r", "g", "active_branch"), rows=rows, caption=caption)
        for kink in bounds.g_branch_kinks(params, cfg.rlambda_convention, grid[0], grid[-1]):
            print(f"branch switch at r = {kink:.12g}")
    else:
        if args.a_steps is not None and args.a_from is None and args.a_to is None:
            raise DomainError("--a-steps needs --a-from or --a-to")
        a_lo = args.a_from if args.a_from is not None else params.a
        a_hi = args.a_to if args.a_to is not None else params.a
        a_grid = _grid(a_lo, a_hi, 50 if args.a_steps is None else args.a_steps, "a")
        if (args.r0_from is None) != (args.r0_to is None):
            raise DomainError("--r0-from and --r0-to must be given together")
        if args.r0_steps is not None and args.r0_from is None:
            raise DomainError("--r0-steps needs --r0-from and --r0-to")

        def value_at(a, r0):
            bp = BoundParams(a=a, r0=r0, p=params.p, lam=params.lam)
            breakdown = bounds.theorem_bound(bp, convention=cfg.rlambda_convention)
            return getattr(breakdown, fn)

        if args.r0_from is not None:
            r0_steps = 50 if args.r0_steps is None else args.r0_steps
            r0_grid = _grid(args.r0_from, args.r0_to, r0_steps, "r0")
            columns = ("a",) + tuple(f"r0={r0:.10g}" for r0 in r0_grid)
            rows = [tuple([a] + [value_at(a, r0) for r0 in r0_grid]) for a in a_grid]
            table = OutputTable(columns=columns, rows=rows, caption=f"{caption} over (a, r0)")
        else:
            table = OutputTable(
                columns=("a", fn),
                rows=[(a, value_at(a, params.r0)) for a in a_grid],
                caption=f"{caption} over a",
            )

    if "svg" in cfg.emit and len(table.rows) < 2:
        raise DomainError(f"scan {fn} has one row; --emit svg needs a range of two or more points")
    print(table.render(cfg.digits))
    if "csv" in cfg.emit:
        path = cfg.output_dir / f"scan_{fn}.csv"
        table.write_csv(path)
        print(f"wrote {path}")
    if "svg" in cfg.emit:
        xs = [row[0] for row in table.rows]
        ys = [row[1] for row in table.rows]
        path = cfg.output_dir / f"scan_{fn}.svg"
        _write_svg(path, xs, ys, table.columns[0], table.columns[1], caption)
        print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = _resolve_config(args)
        run = {"bound": _cmd_bound, "optimize": _cmd_optimize, "verify": _cmd_verify,
               "scan": _cmd_scan}[args.command]
        return run(cfg, args)
    except (CaseIIInfeasible, EmptyFeasibleSet) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except WorkerLost as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        # DomainError subclasses ValueError; plain ValueError also covers
        # malformed numerics from config files or KAKEYA_SEED; OSError
        # covers an unreadable --config or an unusable --output-dir
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
