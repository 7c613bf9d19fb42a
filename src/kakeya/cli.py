"""Command-line front end: bound evaluation, optimization, verification, scans.

Commands follow a stable exit-code contract: 0 success, 1 verification
failure, 2 usage or domain error, 3 infeasibility, 4 a verification
worker process that died (killed, say, for memory; no verdict and no
``verify.json``).  All file outputs (CSV per RFC 4180, JSON with fixed
field names, static SVG 1.1 plots) are byte-identical across runs for
identical configuration and seed; ``_save`` alone writes them, after the
command has printed its results.
Each run has a mode, its preset or scan function: ``_MODES`` gives the flags
each mode reads and the files it can write; any other flag or format is an error.
``_FLAGS`` gives each flag's type, default and integer limits.  ``_parse``
reads ``kakeya COMMAND [FUNCTION] --flag VALUE | --flag=VALUE ...`` from
these two tables alone, and ``_from_text`` converts and checks every value.
The command line is a run's only source of settings: a flag not given
takes its ``_FLAGS`` default.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from collections import namedtuple
from pathlib import Path
from types import SimpleNamespace

from . import bounds, geom, optimizer
from .bounds import RLAMBDA_PAPER_LITERAL, RLAMBDA_REPRODUCING, THEOREM_DEFAULTS, BoundParams
from .catalogue import DEFAULT_SEED, MAX_SAMPLES, CheckId
from .errors import CaseIIInfeasible, DomainError, EmptyFeasibleSet, WorkerLost, as_integer
from .optimizer import SearchBox

__all__ = ["main"]

# The sec41 preset searches the parameter intervals published with the
# refined optimum; wider boxes admit slightly larger objective values at
# their lambda edge (see the scan command), so reproduction pins the box
# to the published intervals.
_SEC41_BOX = dict(
    a=(0.06473, 0.06474),
    r0=(0.22785, 0.22786),
    lam=(0.90696, 0.90697),
)


def _formats(text: str) -> frozenset:
    """The formats of a comma list, blanks dropped; ValueError if it names none."""
    formats = frozenset(filter(None, (token.strip() for token in text.split(","))))
    if not formats:
        raise ValueError(text)
    return formats


# Every flag, by long name.  An entry may give the ``type`` its text converts
# to (str when absent; bool for a switch, which takes no value), the
# integer limits ``lo`` and ``hi``, ``repeat`` (the flag may
# repeat and its values form a list; any other flag given twice keeps the
# last), its ``default``, ``dest``, its namespace name when not the flag's
# own with "_" for "-", and ``help``.
_FLAGS = {
    "preset": {},
    "a": dict(type=float, default=THEOREM_DEFAULTS.a, help="needle-height cap, in (0, 1/2)"),
    "r0": dict(type=float, default=THEOREM_DEFAULTS.r0, help="cutoff radius, in (a, 1/2)"),
    "p": dict(type=float, default=THEOREM_DEFAULTS.p, help="direction-proportion split, in [0, 1]"),
    "lambda": dict(dest="lam", type=float, default=THEOREM_DEFAULTS.lam,
                   help="interpolation weight for r_lambda, in [0, 1]"),
    "seed": dict(type=int, default=DEFAULT_SEED, help=f"master seed (default {DEFAULT_SEED})"),
    "rlambda-convention": dict(default=RLAMBDA_REPRODUCING,
                               help=f"{RLAMBDA_REPRODUCING} (default) or {RLAMBDA_PAPER_LITERAL}"),
    "output-dir": dict(type=Path, default=Path("."), help="directory to write into (default .)"),
    "emit": dict(type=_formats, help="comma list of the formats to write"),
    "digits": dict(type=int, default=6, lo=1, hi=17, help="significant digits printed, 1 to 17"),
    "refine": dict(type=int, lo=0, help="append N steps of the iterative inner-bound refinement"),
    "all": dict(type=bool, help="run every check"),
    "check": dict(type=CheckId, repeat=True, help="a check to run, by name; repeats"),
    "samples": dict(type=int, help=f"each check's sample or grid size, 100 to {MAX_SAMPLES}"),
    "from": dict(dest="r_from", type=float, help="first r of the scan"),
    "to": dict(dest="r_to", type=float, help="last r of the scan"),
    "steps": dict(type=int, default=100, lo=2, help="points of the scan, default 100"),
    "a-from": dict(type=float, help="first a of the scan"),
    "a-to": dict(type=float, help="last a of the scan"),
    # the a and r0 counts default to 50 in _cmd_scan, which must tell a
    # given count from a default one
    "a-steps": dict(type=int, lo=2, help="a values of the scan, default 50"),
    "r0-from": dict(type=float, help="first r0 of the scan"),
    "r0-to": dict(type=float, help="last r0 of the scan"),
    "r0-steps": dict(type=int, lo=2, help="r0 values of the scan, default 50"),
}
# What a value of each type must be, for the message that refuses one.
_KINDS = {int: "an integer", float: "a number", _formats: "a comma list of formats",
          Path: "a directory", str: "a name", CheckId: f"one of {', '.join(c.value for c in CheckId)}"}
# A scan evaluates at most this many points (a-steps x r0-steps for a scan
# over (a, r0)); a larger request is a DomainError before any evaluation.
MAX_SCAN_POINTS = 10**6
# The flags of the bound's parameter point.
_PARAMS = ("a", "r0", "p", "lambda")


def _mode(*flags, emit=()):
    """A mode's flags, with --preset, --output-dir and (if it emits files)
    --emit; its formats."""
    return frozenset((*flags, "preset", "output-dir", *(("emit",) if emit else ()))), emit


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


class OutputTable(namedtuple("OutputTable", "columns rows caption")):
    """Rectangular numeric table with named columns and a caption."""

    __slots__ = ()

    def render(self, digits: int, round_down: bool = False) -> str:
        """The table as text, floats to ``digits`` significant digits.

        With ``round_down`` each float is rounded toward -inf instead of to
        nearest, so that no printed lower bound exceeds its value.
        """
        def text(v) -> str:
            if not isinstance(v, float):
                return str(v)
            return _round_down(v, digits) if round_down else f"{v:.{digits}g}"

        widths = [max(len(c), 12) for c in self.columns]
        lines = [self.caption]
        lines.append("  ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        for row in self.rows:
            cells = [text(v).ljust(w) for v, w in zip(row, widths)]
            lines.append("  ".join(cells))
        return "\n".join(lines)

    def write_csv(self, fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else str(v) for v in row])


def _round_down(value: float, digits: int) -> str:
    """``f"{value:.{digits}g}"``, but rounded toward -inf instead of to nearest."""
    if not math.isfinite(value):
        return f"{value:.{digits}g}"
    # imported here: only bound's table rounds this way
    from decimal import ROUND_FLOOR, Context, Decimal

    down = Context(prec=digits, rounding=ROUND_FLOOR).plus(Decimal(value))
    exp = down.adjusted()
    if -4 <= exp < digits:  # where the g format writes no exponent
        text, suffix = format(down, "f"), ""
    else:
        text, suffix = format(down.scaleb(-exp), "f"), f"e{exp:+03d}"
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text + suffix


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _usage(expected: str, word) -> DomainError:
    """A malformed command line: what was ``expected``, and the word found (None: none left)."""
    return DomainError(f"expected {expected}, got {'nothing' if word is None else repr(word)}")


def _parse(argv: list[str]) -> dict:
    """``kakeya COMMAND [FUNCTION] --flag VALUE | --flag=VALUE ...``, parsed.

    The dict holds ``command``, scan's ``function``, and each given flag's
    value under its long name, from ``_from_text``.  Names match exactly; a
    switch takes no value; the word after a flag is its value unless it
    starts with "--".  A later flag wins, but a ``repeat`` flag collects its
    values.  Any other word is a DomainError that names it.  Whether the
    run's mode reads a flag is ``_resolve_config``'s check.
    """
    words = iter(argv)
    command = next(words, None)
    if command not in _MODES:
        raise _usage(f"a command ({', '.join(_MODES)})", command)
    args = {"command": command}
    if command == "scan":
        args["function"] = next(words, None)
        if args["function"] not in _MODES["scan"]:
            raise _usage(f"a scan function ({', '.join(_MODES['scan'])})", args["function"])
    for word in words:
        name, eq, text = word.partition("=")
        flag = name[2:] if name.startswith("--") else None
        spec = _FLAGS.get(flag)
        if spec is None:
            raise _usage(f"a flag (kakeya {command} -h lists them)", word)
        if spec.get("type") is bool:
            if eq:
                raise _usage(f"{name} with no value", word)
            args[flag] = True
            continue
        if not eq:
            text = next(words, None)
            if text is None or text.startswith("--"):
                raise _usage(f"a value after {name}", text)
        value = _from_text(flag, text)
        args[flag] = [*args.get(flag, ()), value] if spec.get("repeat") else value
    return args


def _help(command: str) -> str:
    """How to call ``command``, from the tables; how to call kakeya if it is none."""
    if command not in _MODES:
        return ("usage: kakeya COMMAND [FUNCTION] [--flag VALUE | --flag=VALUE ...]\n"
                f"Lower bounds for star-shaped Kakeya sets; COMMAND is {', '.join(_MODES)}.\n"
                "kakeya COMMAND -h lists the command's modes and flags.")
    lines = [f"usage: kakeya {command} {'FUNCTION ' * (command == 'scan')}[--flag VALUE ...]",
             "Modes, and the flags each reads besides --output-dir:"]
    for mode, (reads, formats) in _MODES[command].items():
        name = mode if command == "scan" else f"--preset {mode}" if mode else command
        own = [f"--{flag}" for flag in _FLAGS if flag in reads - {"preset", "output-dir", "emit"}]
        own += [f"--emit {','.join(formats)}"] if formats else []
        lines.append(f"  {name}: {' '.join(own)}")
    read = set().union(*(reads for reads, _ in _MODES[command].values())) - {"preset"}
    return "\n".join(lines + [f"  --{flag:18} {_FLAGS[flag]['help']}" for flag in _FLAGS if flag in read])


def _from_text(flag: str, text: str):
    """A value of ``flag``, converted from its text and checked.

    Text that is blank, does not convert or lies outside the flag's integer
    limits is a DomainError naming ``--flag``.
    """
    spec, name = _FLAGS[flag], f"--{flag}"
    kind = spec.get("type", str)
    try:
        if not text.strip():
            raise ValueError(text)
        value = kind(text)
    except ValueError:
        raise DomainError(f"{name} must be {_KINDS[kind]}, got {text!r}") from None
    if kind is int:
        as_integer(value, name, spec.get("lo"), spec.get("hi"))
    return value


def _resolve_config(args: dict) -> SimpleNamespace:
    """The run's one namespace of options, from ``_parse``'s dict.

    Each flag's value is the command line's, else its ``_FLAGS`` default;
    it is None when the mode (see ``_MODES``) does not read the flag.  The
    namespace also holds ``command``, ``function`` (scan's) and ``params``,
    the BoundParams of a mode that reads r0, else None: scan c reads a
    alone, since no r0 caps c(r, a).
    """
    command, function, preset = args["command"], args.get("function"), args.get("preset")
    if preset is not None and preset not in _PRESETS[command]:
        if not any(preset in names for names in _PRESETS.values()):
            raise DomainError(f"unknown preset {preset!r}")
        raise DomainError(f"--preset {preset!r} does not apply to {command}")
    mode = function or preset or next(iter(_MODES[command]))
    where = f"scan {mode}" if function else f"preset {preset}" if preset else command
    reads, formats = _MODES[command][mode]
    ns = SimpleNamespace(command=command, function=function, params=None)
    for flag in _FLAGS:
        if flag in args and flag not in reads:
            raise DomainError(f"--{flag} does not apply to {where}")
        setattr(ns, _dest(flag), args.get(flag, _FLAGS[flag].get("default")) if flag in reads else None)
    if "r0" in reads:  # a parameter the mode does not read keeps its theorem value
        given = {_dest(flag): getattr(ns, _dest(flag)) for flag in _PARAMS}
        ns.params = THEOREM_DEFAULTS._replace(**{k: v for k, v in given.items() if v is not None})
    if formats:
        if ns.emit is None:
            ns.emit = frozenset(f for f in formats if f != "svg")
        bad = ",".join(sorted(ns.emit - set(formats)))
        if bad:
            raise DomainError(f"{where} cannot emit {bad}; --emit takes {','.join(formats)}")
    return ns


def _json(payload: dict):
    """A writer of ``payload`` as JSON, indented, keys sorted, newline-terminated.

    The text goes out in one ``write``; ``json.dump`` would write it token
    by token, which is slower for no saving at these files' few kB.
    """
    return lambda fh: fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _save(ns: SimpleNamespace, files: dict) -> None:
    """Write a command's ``files``, {name: writer of an open handle}, to --output-dir.

    A mode that reads --emit keeps the files whose suffix it names; any
    other mode keeps all of its files.  This is the one place the command
    line writes to the file system, after the command has computed everything.
    """
    for name, write in files.items():
        if ns.emit is None or name.rsplit(".", 1)[1] in ns.emit:
            ns.output_dir.mkdir(parents=True, exist_ok=True)
            path = ns.output_dir / name
            with path.open("w", encoding="utf-8", newline="") as fh:
                write(fh)
            print(f"wrote {path}")


def _params_json(params: BoundParams) -> dict:
    return {"a": params.a, "r0": params.r0, "p": params.p, "lambda": params.lam}


# ---------------------------------------------------------------------------
# SVG plotting
# ---------------------------------------------------------------------------

def _write_svg(table: OutputTable, title: str, fh) -> None:
    """Plot the table's second column over its first; the scan refuses a one-row
    table, so the first column spans a range."""
    width, height = 640, 420
    m_left, m_right, m_top, m_bottom = 70, 20, 34, 50
    x_label, y_label = table.columns[:2]
    xs, ys = zip(*(row[:2] for row in table.rows))
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
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
    fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

# Each command prints its results and returns (exit code, files), the files
# as {name: writer} for _save.

def _cmd_bound(ns: SimpleNamespace) -> tuple[int, dict]:
    digits = ns.digits
    if ns.preset == "cunningham":
        coeff = bounds.cunningham_bound()
        print("cunningham (direction set [0, pi), cutoff 1/6)")
        print(f"coefficient_of_pi = {coeff:.17g}")
        print(f"absolute_area = {coeff * math.pi:.17g}")
        print(f"equals 1/108 within {abs(coeff - 1.0 / 108.0):.3g}")
        return 0, {"bound.json": _json({
            "preset": "cunningham",
            "coefficient_of_pi": coeff,
            "absolute_area": coeff * math.pi,
        })}

    params = ns.params
    breakdown = bounds.theorem_bound(params, convention=ns.rlambda_convention)
    derived = bounds.derive_params(params, ns.rlambda_convention)
    print(
        f"a = {params.a:.{digits}g}  r0 = {params.r0:.{digits}g}  p = {params.p:.{digits}g}  "
        f"lambda = {params.lam:.{digits}g}  convention = {ns.rlambda_convention}"
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
    print(table.render(digits, round_down=True))  # every term is a lower bound
    terms = table.rows[:3]
    margins = "  ".join(f"{name} {coeff - 1.0 / 98.0:+.2e}" for name, coeff, _ in terms)
    print(f"binding term: {min(terms, key=lambda row: row[1])[0]}; each term - 1/98 in "
          f"binary64 (a float comparison, not a proof): {margins}")
    return 0, {"bound.csv": table.write_csv, "bound.json": _json({
        "params": _params_json(params),
        "convention": ns.rlambda_convention,
        **breakdown._asdict(),
    })}


def _cmd_optimize(ns: SimpleNamespace) -> tuple[int, dict]:
    if ns.preset == "sec41":
        box = SearchBox(**_SEC41_BOX)
    else:
        # no preset: collapse the box to the point of --a, --r0 and --lambda
        box = SearchBox(a=(ns.a, ns.a), r0=(ns.r0, ns.r0), lam=(ns.lam, ns.lam))
    result = optimizer.optimize(box, ns.rlambda_convention)
    best = result.best
    print(
        f"optimum: a = {best.a:.{ns.digits}g}  r0 = {best.r0:.{ns.digits}g}  "
        f"p = {best.p:.{ns.digits}g}  lambda = {best.lam:.{ns.digits}g}"
    )
    print(f"bound coefficient_of_pi = {result.breakdown.final:.17g}")
    payload = {
        "box": {"a": box.a, "r0": box.r0, "lambda": box.lam},
        "best": _params_json(best),
        "balanced_p": best.p,
        "breakdown": result.breakdown._asdict(),
        "trace": [{**_params_json(pt), "value": value} for pt, value in result.trace],
    }
    if ns.refine:
        seq = optimizer.refine_iterative(best, ns.refine, convention=ns.rlambda_convention)
        payload["refine"] = seq
        print("refine sequence:", " ".join(f"{v:.12g}" for v in seq))
    return 0, {"optimize.json": _json(payload)}


def _cmd_verify(ns: SimpleNamespace) -> tuple[int, dict]:
    if ns.all and ns.check:
        raise DomainError("--all and --check cannot be combined")
    # the checks load numpy; every other command runs without it
    from . import oracle

    selected = ns.check or list(CheckId)
    reports = oracle.run_checks(selected, samples=ns.samples, seed=ns.seed)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(
            f"{status} {rep.id.value}: max_violation = {rep.max_violation:.6g} "
            f"(tolerance {rep.tolerance:.6g}, samples {rep.samples}, seed {rep.seed})"
        )
    all_pass = all(rep.passed for rep in reports)
    return 0 if all_pass else 1, {"verify.json": _json({
        "seed": ns.seed,
        "all_pass": all_pass,
        "checks": [rep.as_dict() for rep in reports],
    })}


def _grid(lo: float, hi: float, steps: int, name: str, rows: int = 1) -> list[float]:
    """``steps`` evenly spaced points from lo to hi; one point when lo == hi.

    The last point is ``hi`` itself, so rounding never carries it past the end.

    The grid spans ``rows`` rows of a scan; DomainError if the scan would
    then evaluate more than MAX_SCAN_POINTS points.
    """
    if hi < lo:
        raise DomainError(f"inverted {name} range [{lo}, {hi}]")
    if hi == lo:
        return [lo]
    if rows * steps > MAX_SCAN_POINTS:
        raise DomainError(f"a scan evaluates at most {MAX_SCAN_POINTS} points, "
                          f"not {rows * steps}")
    return [lo + (hi - lo) * k / (steps - 1) for k in range(steps - 1)] + [hi]


def _scan_range(ns: SimpleNamespace, domain_lo, domain_hi, what) -> list[float]:
    lo = ns.r_from if ns.r_from is not None else domain_lo
    hi = ns.r_to if ns.r_to is not None else domain_hi
    if not all(domain_lo <= end <= domain_hi for end in (lo, hi)):
        raise DomainError(
            f"scan range [{lo}, {hi}] outside the domain [{domain_lo}, {domain_hi}] of {what}"
        )
    return _grid(lo, hi, ns.steps, "r")


def _cmd_scan(ns: SimpleNamespace) -> tuple[int, dict]:
    params = ns.params
    fn = ns.function
    caption = f"scan of {fn}"
    if fn == "f":
        grid = _scan_range(ns, 0.0, 0.5, "the outer-area rate")
        table = OutputTable(
            columns=("r", "f"),
            rows=[(r, geom.exterior_area_rate(r)) for r in grid],
            caption=caption,
        )
    elif fn == "c":
        if not ns.a <= 4.0:  # c's r range ends at 4.0, so a must too
            raise DomainError(f"--a must be <= 4.0, the end of c's r range, for scan c; got {ns.a}")
        grid = _scan_range(ns, ns.a, 4.0, "the needle-outside rate")
        table = OutputTable(
            columns=("r", "c"),
            rows=[(r, bounds.outside_area_rate(r, ns.a)) for r in grid],
            caption=caption,
        )
    elif fn == "g":
        derived = bounds.derive_params(params, ns.rlambda_convention)
        grid = _scan_range(ns, 1e-9, 0.5 - 1e-9, "the direction-ratio cap")
        rows = [
            (r, bounds.direction_ratio_cap(r, derived), bounds.active_g_branch(r, derived))
            for r in grid
        ]
        table = OutputTable(columns=("r", "g", "active_branch"), rows=rows, caption=caption)
        for kink in bounds.g_branch_kinks(params, ns.rlambda_convention, grid[0], grid[-1]):
            print(f"branch switch at r = {kink:.12g}")
    else:
        if ns.a_steps is not None and ns.a_from is None and ns.a_to is None:
            raise DomainError("--a-steps needs --a-from or --a-to")
        a_lo = ns.a_from if ns.a_from is not None else params.a
        a_hi = ns.a_to if ns.a_to is not None else params.a
        a_grid = _grid(a_lo, a_hi, 50 if ns.a_steps is None else ns.a_steps, "a")
        if (ns.r0_from is None) != (ns.r0_to is None):
            raise DomainError("--r0-from and --r0-to must be given together")
        if ns.r0_steps is not None and ns.r0_from is None:
            raise DomainError("--r0-steps needs --r0-from and --r0-to")

        def value_at(a, r0):
            bp = BoundParams(a=a, r0=r0, p=params.p, lam=params.lam)
            breakdown = bounds.theorem_bound(bp, convention=ns.rlambda_convention)
            return getattr(breakdown, fn)

        if ns.r0_from is not None:
            r0_steps = 50 if ns.r0_steps is None else ns.r0_steps
            r0_grid = _grid(ns.r0_from, ns.r0_to, r0_steps, "r0", len(a_grid))
            columns = ("a",) + tuple(f"r0={r0:.10g}" for r0 in r0_grid)
            rows = [tuple([a] + [value_at(a, r0) for r0 in r0_grid]) for a in a_grid]
            table = OutputTable(columns=columns, rows=rows, caption=f"{caption} over (a, r0)")
        else:
            table = OutputTable(
                columns=("a", fn),
                rows=[(a, value_at(a, params.r0)) for a in a_grid],
                caption=f"{caption} over a",
            )

    if "svg" in ns.emit and len(table.rows) < 2:
        raise DomainError(f"scan {fn} has one row; --emit svg needs a range of two or more points")
    print(table.render(ns.digits))
    return 0, {f"scan_{fn}.csv": table.write_csv,
               f"scan_{fn}.svg": lambda fh: _write_svg(table, caption, fh)}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(_help(argv[0]))
        return 0
    try:
        ns = _resolve_config(_parse(argv))
        run = {"bound": _cmd_bound, "optimize": _cmd_optimize, "verify": _cmd_verify,
               "scan": _cmd_scan}[ns.command]
        code, files = run(ns)
        _save(ns, files)
        return code
    except (CaseIIInfeasible, EmptyFeasibleSet) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except WorkerLost as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        # DomainError subclasses ValueError; OSError covers an unusable
        # --output-dir
        print(f"error: {exc}", file=sys.stderr)
        return 2
