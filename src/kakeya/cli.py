"""Command-line front end: bound evaluation, optimization, verification, scans.

Commands follow a stable exit-code contract: 0 success, 1 verification
failure, 2 usage or domain error, 3 infeasibility.  All file outputs
(CSV per RFC 4180, JSON with fixed field names, static SVG 1.1 plots)
are byte-identical across runs for identical configuration and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import bounds, optimizer, oracle
from .bounds import (
    RLAMBDA_PAPER_LITERAL,
    RLAMBDA_REPRODUCING,
    BoundParams,
    THEOREM_DEFAULTS,
)
from .errors import CaseIIInfeasible, DomainError, EmptyFeasibleSet
from .optimizer import SearchBox
from .oracle import DEFAULT_SEED, CheckId

__all__ = ["Config", "OutputTable", "main"]

_EMIT_CHOICES = ("csv", "svg", "json")
_CHECK_NAMES = {c.value: c for c in CheckId}

# One-command reproduction of each published constant, by the commands
# that implement each preset.  The sec41 preset searches the parameter
# intervals published with the refined optimum; wider boxes admit slightly
# larger objective values at their lambda edge (see the scan command), so
# reproduction pins the box to the published intervals.
_PRESETS = {
    "bound": ("cunningham", "theorem"),
    "optimize": ("sec41", "theorem"),
    "scan": ("theorem",),
    "verify": (),
}
_SEC41_BOX = dict(
    a=(0.06473, 0.06474),
    r0=(0.22785, 0.22786),
    lam=(0.90696, 0.90697),
)
# Presets that fix the parameter point themselves, so a parameter flag
# given with one of them would go unread.
_POINT_PRESETS = frozenset(("cunningham", "sec41"))
_PARAM_FLAGS = ("a", "r0", "p", "lambda")

# Flags shared by several commands, by long name, and the ones each command
# reads.  Only verify draws random numbers, so only verify takes a seed.
_SHARED_FLAGS = {
    "a": dict(type=float, help="needle-height cap, in (0, 1/2)"),
    "r0": dict(type=float, help="cutoff radius, in (a, 1/2)"),
    "p": dict(type=float, help="direction-proportion split, in [0, 1]"),
    "lambda": dict(dest="lam", type=float, help="interpolation weight for r_lambda, in [0, 1]"),
    "seed": dict(type=int, help="master seed (default: KAKEYA_SEED env var, else 7)"),
    "rlambda-convention": dict(choices=(RLAMBDA_REPRODUCING, RLAMBDA_PAPER_LITERAL)),
    "output-dir": dict(type=str),
    "emit": dict(type=str, help="comma list from csv,svg,json"),
    "digits": dict(type=int, help="significant digits for printed numbers"),
}
_COMMAND_FLAGS = {
    "bound": (*_PARAM_FLAGS, "rlambda-convention", "output-dir", "emit", "digits"),
    "optimize": ("a", "r0", "lambda", "rlambda-convention", "output-dir", "digits"),
    "verify": ("seed", "output-dir"),
    "scan": (*_PARAM_FLAGS, "rlambda-convention", "output-dir", "emit", "digits"),
}
# Keys a config file may set; each matches the long flag of the same name.
# The set is shared: a key that only another command reads is accepted.
_CONFIG_KEYS = frozenset(("preset", *_SHARED_FLAGS))


def _dest(flag: str) -> str:
    return _SHARED_FLAGS[flag].get("dest", flag.replace("-", "_"))


@dataclass(frozen=True)
class Config:
    """Resolved run configuration (flags override config-file values).

    A field the command does not read is None: ``params`` for verify and
    the point presets, ``seed`` for every command but verify.
    """

    params: BoundParams | None
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

    def command(name, summary):
        # no prefix matching: `verify --a` must not turn into `--all`
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        for flag in _COMMAND_FLAGS[name]:
            p.add_argument(f"--{flag}", default=None, **_SHARED_FLAGS[flag])
        if _PRESETS[name]:
            p.add_argument("--preset", choices=_PRESETS[name], default=None)
        p.add_argument("--config", type=str, default=None, help="flat key = value config file")
        return p

    command("bound", "evaluate the lower bound at one parameter point")

    p_opt = command("optimize", "search (a, r0, lambda) with balanced p")
    p_opt.add_argument("--refine", type=int, default=0, metavar="N",
                       help="append N steps of the iterative inner-bound refinement")

    p_verify = command("verify", "run brute-force geometry checks")
    p_verify.add_argument("--all", action="store_true", help="run every check")
    p_verify.add_argument("--check", action="append", choices=sorted(_CHECK_NAMES),
                          default=None, help="run one named check (repeatable)")
    p_verify.add_argument("--samples", type=int, default=None,
                          help="override the per-check sample/grid size "
                               f"(100 to {oracle.MAX_SAMPLES})")

    p_scan = command("scan", "tabulate a bound function over a range")
    p_scan.add_argument("function", choices=("f", "g", "c", "case_i", "case_ii", "final"))
    p_scan.add_argument("--from", dest="r_from", type=float, default=None)
    p_scan.add_argument("--to", dest="r_to", type=float, default=None)
    p_scan.add_argument("--steps", type=int, default=None, help="default 100")
    p_scan.add_argument("--a-from", dest="a_from", type=float, default=None)
    p_scan.add_argument("--a-to", dest="a_to", type=float, default=None)
    p_scan.add_argument("--a-steps", dest="a_steps", type=int, default=None, help="default 50")
    p_scan.add_argument("--r0-from", dest="r0_from", type=float, default=None)
    p_scan.add_argument("--r0-to", dest="r0_to", type=float, default=None)
    p_scan.add_argument("--r0-steps", dest="r0_steps", type=int, default=None, help="default 50")
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
    flags = _COMMAND_FLAGS[args.command]

    def pick(flag, cast, default, conf=fileconf):
        """The flag's value, else the file's, else ``default``; None if unread."""
        if flag not in flags:
            return None
        flag_value = getattr(args, _dest(flag))
        if flag_value is not None:
            return flag_value
        if flag in conf:
            return cast(conf[flag])
        return default

    # verify has no --preset flag, but a config file may still name one
    preset = getattr(args, "preset", None) or fileconf.get("preset")
    if preset is not None and preset not in _PRESETS[args.command]:
        if not any(preset in names for names in _PRESETS.values()):
            raise DomainError(f"unknown preset {preset!r}")
        raise DomainError(f"preset {preset!r} does not apply to {args.command}")
    params = None
    if preset in _POINT_PRESETS:
        for flag in _PARAM_FLAGS:
            if getattr(args, _dest(flag), None) is not None:
                raise DomainError(f"--{flag} does not apply to preset {preset}")
    elif "a" in flags:
        base = THEOREM_DEFAULTS
        # the theorem preset fixes the parameter point; explicit flags still win
        conf = {} if preset == "theorem" else fileconf
        a, r0, p, lam = (
            pick(flag, float, getattr(base, _dest(flag)), conf) for flag in _PARAM_FLAGS
        )
        # optimize has no --p: it balances p itself
        params = BoundParams(a=a, r0=r0, p=base.p if p is None else p, lam=lam)
    seed = pick("seed", int, None)
    if "seed" in flags and seed is None:
        env_seed = os.environ.get("KAKEYA_SEED")
        seed = int(env_seed) if env_seed else DEFAULT_SEED
    emit = None
    emit_raw = pick("emit", str, "csv,json")
    if emit_raw is not None:
        emit = frozenset(tok.strip() for tok in emit_raw.split(",") if tok.strip())
        bad = emit - set(_EMIT_CHOICES)
        if bad:
            raise DomainError(f"unknown emit formats: {sorted(bad)}")
    digits = pick("digits", int, 6)
    if digits is not None and digits < 1:
        raise DomainError(f"digits must be >= 1, got {digits}")
    return Config(
        params=params,
        rlambda_convention=pick("rlambda-convention", str, RLAMBDA_REPRODUCING),
        seed=seed,
        output_dir=Path(pick("output-dir", str, ".")),
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

def _cmd_bound(cfg: Config) -> int:
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
        selected = [_CHECK_NAMES[name] for name in args.check]
    reports = [
        oracle.run_check(check, samples=args.samples, seed=cfg.seed)
        for check in selected
    ]
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
    for flag, count in (("steps", args.steps), ("a-steps", args.a_steps),
                        ("r0-steps", args.r0_steps)):
        if count is not None and count < 2:
            raise DomainError(f"--{flag} must be >= 2, got {count}")
    params = cfg.params
    fn = args.function
    if fn in ("f", "g", "c"):
        foreign = (("--a-from", args.a_from), ("--a-to", args.a_to),
                   ("--a-steps", args.a_steps), ("--r0-from", args.r0_from),
                   ("--r0-to", args.r0_to), ("--r0-steps", args.r0_steps))
    else:
        foreign = (("--from", args.r_from), ("--to", args.r_to), ("--steps", args.steps))
    for flag, value in foreign:
        if value is not None:
            raise DomainError(f"{flag} does not apply to scan {fn}")
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
        grid = _scan_range(args, steps, params.a, 4.0, "the needle-outside rate")
        table = OutputTable(
            columns=("r", "c"),
            rows=[(r, bounds.outside_area_rate(r, params.a)) for r in grid],
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

    print(table.render(cfg.digits))
    if "csv" in cfg.emit:
        path = cfg.output_dir / f"scan_{fn}.csv"
        table.write_csv(path)
        print(f"wrote {path}")
    if "svg" in cfg.emit and len(table.columns) >= 2 and len(table.rows) >= 2:
        xs = [row[0] for row in table.rows]
        ys = [row[1] for row in table.rows]
        if all(isinstance(y, float) for y in ys):
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
        if args.command == "bound":
            return _cmd_bound(cfg)
        if args.command == "optimize":
            return _cmd_optimize(cfg, args)
        if args.command == "verify":
            return _cmd_verify(cfg, args)
        return _cmd_scan(cfg, args)
    except (CaseIIInfeasible, EmptyFeasibleSet) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        # DomainError subclasses ValueError; plain ValueError also covers
        # malformed numerics from config files or KAKEYA_SEED; OSError
        # covers an unreadable --config or an unusable --output-dir
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
