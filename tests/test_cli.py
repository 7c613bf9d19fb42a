"""CLI tests: exit-code contract, presets, flag checks, emitted artifacts
and their byte determinism."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import signal
import subprocess
import sys
from decimal import Decimal
from pathlib import Path
from xml.etree import ElementTree

import pytest

import kakeya
from kakeya import cli, oracle
from kakeya.errors import DomainError, EmptyFeasibleSet


PARAM_KEYS = {"a", "r0", "p", "lambda"}
BREAKDOWN_KEYS = {"case_i", "case_ii", "half_a", "final", "integral_value", "f_r0", "c_r1m1"}


def run_cli(*args):
    return cli.main(list(args))


def test_bound_verdict_line_names_the_binding_term_and_each_margin(tmp_path, capsys):
    assert run_cli("bound", "--output-dir", str(tmp_path)) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("binding term")]
    # half_a = a/(2 pi) is 1/98 in binary64 at a = pi/49; the margins are case_i's and case_ii's
    assert lines == [
        "binding term: half_a; each term - 1/98 in binary64 (a float comparison, not a proof): "
        "case_i +1.35e-06  case_ii +5.14e-04  half_a +0.00e+00"
    ]


def test_bound_theorem_preset(tmp_path, capsys):
    code = run_cli("bound", "--preset", "theorem", "--output-dir", str(tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    for token in ("case_i", "case_ii", "final", "1/98"):
        assert token in out
    payload = json.loads((tmp_path / "bound.json").read_text())
    assert 0.010200 <= payload["case_i"] <= 0.010210
    assert 0.01070 <= payload["case_ii"] <= 0.01075
    assert payload["final"] >= 1.0 / 98.0
    assert payload["half_a"] == 1.0 / 98.0
    assert set(payload) == {"params", "convention", *BREAKDOWN_KEYS}
    assert set(payload["params"]) == PARAM_KEYS
    assert (tmp_path / "bound.csv").exists()


def test_bound_cunningham_preset(tmp_path, capsys):
    code = run_cli("bound", "--preset", "cunningham", "--output-dir", str(tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads((tmp_path / "bound.json").read_text())
    assert abs(payload["coefficient_of_pi"] - 1.0 / 108.0) <= 1e-12
    assert "coefficient_of_pi" in out


def test_bound_rejects_inverted_parameters(capsys):
    code = run_cli("bound", "--a", "0.5", "--r0", "0.25")
    err = capsys.readouterr().err
    assert code == 2
    assert "a must be < r0" in err


def test_bound_paper_literal_convention(tmp_path):
    code = run_cli(
        "bound", "--preset", "theorem", "--rlambda-convention", "paper-literal",
        "--output-dir", str(tmp_path),
    )
    assert code == 0
    payload = json.loads((tmp_path / "bound.json").read_text())
    assert payload["case_ii"] < 0.003


def test_usage_error_exit_code(capsys):
    assert run_cli("bound", "--nonsense") == 2
    assert run_cli() == 2


class _Parsed(Exception):
    """Raised in place of running a command, with the parsed arguments."""


# (argv, what main does with it): the dict _resolve_config receives, or the
# exit code and a text of the output (stdout for help, else stderr)
_ARGV_OUTCOMES = [
    (["optimize", "--preset", "sec41", "--refine", "10"],
     {"command": "optimize", "preset": "sec41", "refine": 10}),
    (["scan", "f", "--from", "0.2"], {"command": "scan", "function": "f", "from": 0.2}),
    (["verify", "--all"], {"command": "verify", "all": True}),
    (["bound", "--a", "0.1", "--config", "x.cfg"], (2, "'--config'")),
    # help anywhere, and usage errors that name the offending word
    ([], (2, "got nothing")), (["-h"], (0, "usage: kakeya COMMAND")), (["--", "bound"], (2, "'--'")),
    (["-h", "optimize"], (0, "usage: kakeya COMMAND")), (["bound", "-h"], (0, "usage: kakeya bound")),
    (["bogus"], (2, "'bogus'")), (["-1", "bound"], (2, "'-1'")), (["-", "scan", "f"], (2, "'-'")),
    (["--a=0.1", "bound", "--preset", "theorem"], (2, "'--a=0.1'")),
    (["verify", "--a", "1"], (2, "--a does not apply to verify")), (["scan"], (2, "a scan function")),
    (["optimize", "--preset", "nope"], (2, "'nope'")), (["bound", "--a"], (2, "after --a")),
    (["bound", "--a", "-inf"], (2, "a must be finite")), (["verify", "--all=1"], (2, "'--all=1'")),
    (["verify", "--al"], (2, "'--al'")),
    # c's r range ends at 4.0, so scan c refuses a larger a by that end
    (["scan", "c", "--a", "5"], (2, "--a must be <= 4.0")),
]


@pytest.mark.parametrize("argv, outcome", _ARGV_OUTCOMES,
                         ids=[f"argv{i}" for i in range(len(_ARGV_OUTCOMES))])
def test_main_parses_as_the_parser_with_every_commands_flags(monkeypatch, tmp_path, capsys, argv,
                                                              outcome):
    # the parser reads every command's flags from cli's tables
    monkeypatch.chdir(tmp_path)
    if isinstance(outcome, dict):
        def stop(args):
            raise _Parsed(args)

        monkeypatch.setattr(cli, "_resolve_config", stop)
        with pytest.raises(_Parsed) as parsed:
            cli.main(argv)
        assert parsed.value.args[0] == outcome
        return
    code, text = outcome
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert text in (out if code == 0 else err)
    assert list(tmp_path.iterdir()) == []


def test_scan_f_has_its_peak_at_one_sixth(tmp_path, capsys):
    code = run_cli(
        "scan", "f", "--from", "0.15", "--to", "0.5", "--steps", "100",
        "--output-dir", str(tmp_path),
    )
    assert code == 0
    with (tmp_path / "scan_f.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 100
    best = max(rows, key=lambda row: float(row["f"]))
    grid_step = (0.5 - 0.15) / 99
    assert abs(float(best["r"]) - 1.0 / 6.0) <= grid_step


def test_scan_outputs_are_byte_identical(tmp_path):
    for sub in ("one", "two"):
        code = run_cli(
            "scan", "g", "--preset", "theorem", "--from", "0.18", "--to", "0.26",
            "--steps", "40", "--emit", "csv,svg", "--output-dir", str(tmp_path / sub),
        )
        assert code == 0
    for name in ("scan_g.csv", "scan_g.svg"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_scan_g_reports_branch_switches(tmp_path, capsys):
    code = run_cli(
        "scan", "g", "--preset", "theorem", "--output-dir", str(tmp_path),
        "--from", "0.1", "--to", "0.3", "--steps", "10",
    )
    out = capsys.readouterr().out
    assert code == 0
    switches = [
        float(line.rsplit("=", 1)[1]) for line in out.splitlines() if "branch switch" in line
    ]
    assert len(switches) == 2
    assert switches[0] == pytest.approx(0.2215744818, abs=1e-3)
    assert switches[1] == pytest.approx(0.2352988169, abs=1e-3)


def test_scan_grid_ends_at_its_range_end(tmp_path):
    # 0.1 + (0.5 - 0.1) * 6 / 6 rounds to 0.5000000000000001, outside the domain of f
    code = run_cli(
        "scan", "f", "--from", "0.1", "--to", "0.5", "--steps", "7", "--output-dir", str(tmp_path)
    )
    assert code == 0
    with (tmp_path / "scan_f.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 8 and float(rows[-1][0]) == 0.5


def test_grid_last_point_is_the_range_end():
    rnd = random.Random(20240601)
    for _ in range(2000):
        lo, hi = sorted(rnd.uniform(-1.0, 1.0) for _ in range(2))
        n = rnd.randint(2, 200)
        grid = cli._grid(lo, hi, n, "r")
        assert len(grid) == n and grid[0] == lo and grid[-1] == hi
    assert cli._grid(0.15, 0.5 - 1e-9, 100, "r")[-1] == 0.5 - 1e-9


def test_scan_domain_violation_exits_2(capsys):
    assert run_cli("scan", "f", "--from", "0.4", "--to", "0.7") == 2
    assert run_cli("scan", "f", "--from", "-0.1", "--to", "0.2") == 2
    assert run_cli("scan", "g", "--from", "0.6", "--to", "0.6") == 2
    assert "outside the domain" in capsys.readouterr().err


def test_scan_inverted_a_range_exits_2(tmp_path, capsys):
    for axis, lo, hi in (("a", "0.07", "0.05"), ("r0", "0.3", "0.2")):
        code = run_cli(
            "scan", "final", "--preset", "theorem", f"--{axis}-from", lo, f"--{axis}-to", hi,
            "--output-dir", str(tmp_path),
        )
        assert code == 2
        assert f"inverted {axis} range [{lo}, {hi}]" in capsys.readouterr().err
        assert not (tmp_path / "scan_final.csv").exists()


@pytest.mark.parametrize("fn", ["f", "g", "c"])
def test_scan_r_range_follows_the_rule_of_the_a_and_r0_axes(tmp_path, capsys, fn):
    code = run_cli("scan", fn, "--from", "0.3", "--to", "0.2", "--output-dir", str(tmp_path))
    assert code == 2
    assert "inverted r range [0.3, 0.2]" in capsys.readouterr().err
    assert not (tmp_path / f"scan_{fn}.csv").exists()
    code = run_cli(
        "scan", fn, "--from", "0.2", "--to", "0.2", "--steps", "7", "--output-dir", str(tmp_path)
    )
    assert code == 0
    with (tmp_path / f"scan_{fn}.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2 and rows[1][0] == "0.20000000000000001"


def test_scan_equal_range_ends_give_one_point(tmp_path):
    code = run_cli(
        "scan", "final", "--preset", "theorem", "--a-from", "0.06", "--a-to", "0.06",
        "--a-steps", "7", "--r0-from", "0.25", "--r0-to", "0.25", "--r0-steps", "9",
        "--output-dir", str(tmp_path),
    )
    assert code == 0
    with (tmp_path / "scan_final.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["a", "r0=0.25"]
    assert len(rows) == 2 and rows[1][0] == "0.059999999999999998"


def test_scan_one_row_with_svg_exits_2_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(
        "scan", "final", "--a-from", "0.06", "--a-to", "0.06", "--emit", "svg",
        "--output-dir", str(out),
    )
    assert code == 2
    assert "--emit svg needs a range of two or more points" in capsys.readouterr().err
    assert not out.exists()


def test_scan_c_reads_a_beyond_the_theorem_r0(tmp_path):
    # c(r, a) needs only a <= r; the theorem's r0 = 0.25 does not cap a
    code = run_cli(
        "scan", "c", "--a", "0.3", "--from", "0.3", "--to", "0.5", "--steps", "3",
        "--output-dir", str(tmp_path),
    )
    assert code == 0
    with (tmp_path / "scan_c.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "c"]
    assert [float(row[0]) for row in rows[1:]] == pytest.approx([0.3, 0.4, 0.5])
    assert float(rows[1][1]) == pytest.approx(0.3 / math.pi)


@pytest.mark.parametrize("flags, message", [
    (("--a-steps", "7"), "--a-steps needs --a-from or --a-to"),
    (("--r0-steps", "9"), "--r0-steps needs --r0-from and --r0-to"),
    (("--a-from", "0.05", "--a-to", "0.07", "--r0-steps", "9"),
     "--r0-steps needs --r0-from and --r0-to"),
], ids=["a-steps", "r0-steps", "r0-steps-with-a-range"])
def test_scan_count_without_its_range_exits_2(flags, message, tmp_path, capsys):
    code = run_cli("scan", "final", "--preset", "theorem", *flags, "--output-dir", str(tmp_path))
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "scan_final.csv").exists()


@pytest.mark.parametrize("flag", ["--r0-from", "--r0-to"])
def test_scan_half_given_r0_range_exits_2(flag, tmp_path, capsys):
    code = run_cli(
        "scan", "final", "--preset", "theorem", "--a-from", "0.05", "--a-to", "0.07",
        flag, "0.23", "--output-dir", str(tmp_path),
    )
    assert code == 2
    assert "--r0-from and --r0-to must be given together" in capsys.readouterr().err
    assert not (tmp_path / "scan_final.csv").exists()


@pytest.mark.parametrize("fn", ["f", "g", "c"])
@pytest.mark.parametrize(
    "flag", ["--a-from", "--a-to", "--r0-from", "--r0-to", "--a-steps", "--r0-steps"]
)
def test_scan_rate_function_rejects_parameter_range_flags(fn, flag, tmp_path, capsys):
    value = "7" if flag.endswith("steps") else "0.2"
    code = run_cli("scan", fn, flag, value, "--steps", "3", "--output-dir", str(tmp_path))
    assert code == 2
    assert f"{flag} does not apply to scan {fn}" in capsys.readouterr().err
    assert not (tmp_path / f"scan_{fn}.csv").exists()


@pytest.mark.parametrize("fn", ["case_i", "case_ii", "final"])
@pytest.mark.parametrize("flag", ["--from", "--to", "--steps"])
def test_scan_bound_term_rejects_radius_range_flags(fn, flag, tmp_path, capsys):
    value = "9" if flag == "--steps" else "0.2"
    code = run_cli(
        "scan", fn, "--preset", "theorem", flag, value, "--output-dir", str(tmp_path)
    )
    assert code == 2
    assert f"{flag} does not apply to scan {fn}" in capsys.readouterr().err
    assert not (tmp_path / f"scan_{fn}.csv").exists()


def test_scan_final_over_a_range(tmp_path):
    code = run_cli(
        "scan", "final", "--preset", "theorem", "--a-from", "0.05", "--a-to", "0.07",
        "--a-steps", "5", "--output-dir", str(tmp_path),
    )
    assert code == 0
    with (tmp_path / "scan_final.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert all(float(row["final"]) > 0.0 for row in rows)


def test_scan_final_two_dimensional(tmp_path):
    code = run_cli(
        "scan", "final", "--preset", "theorem",
        "--a-from", "0.06", "--a-to", "0.066", "--a-steps", "3",
        "--r0-from", "0.23", "--r0-to", "0.26", "--r0-steps", "4",
        "--output-dir", str(tmp_path),
    )
    assert code == 0
    with (tmp_path / "scan_final.csv").open(newline="") as fh:
        rows = list(fh)
    assert len(rows) == 4  # header + 3 a-rows
    assert rows[0].count(",") == 4  # a column + 4 r0 columns


def test_verify_single_check(tmp_path, capsys):
    code = run_cli("verify", "--check", "FArgmax", "--output-dir", str(tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS FArgmax" in out
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert payload["all_pass"] is True
    assert len(payload["checks"]) == 1
    record = payload["checks"][0]
    assert set(record) == {
        "id", "samples", "grid_spec", "max_violation", "tolerance", "pass", "seed",
    }


@pytest.fixture(scope="module")
def reduced_verify_all(tmp_path_factory):
    """Bytes of verify.json from `verify --all --samples 1000 --seed 7`."""
    out = tmp_path_factory.mktemp("reduced-verify-all")
    code = run_cli("verify", "--all", "--samples", "1000", "--seed", "7", "--output-dir", str(out))
    assert code == 0
    return (out / "verify.json").read_bytes()


def test_reduced_verify_all_artifact_is_pinned(reduced_verify_all):
    # sha256 of the reduced verify.json, re-recorded when SectorMeasure
    # began to count its unions on one lattice cloud (its record changed,
    # the other eight did not); any change to a drawn value, a hit count
    # or a grid_spec shows here
    digest = hashlib.sha256(reduced_verify_all).hexdigest()
    assert digest == "f2bfe255b4beb8e6a5909baee9143abacdc759ec4e2c099b20f01d872cc6c8d7"


def test_full_size_verify_all_artifact_is_pinned(tmp_path):
    # sha256 of verify.json from `verify --all --seed 7` at the default
    # sizes (one cloud of 10^6 points for SectorMeasure's unions), as
    # logged in CHANGES.md
    code = run_cli("verify", "--all", "--seed", "7", "--output-dir", str(tmp_path))
    assert code == 0
    digest = hashlib.sha256((tmp_path / "verify.json").read_bytes()).hexdigest()
    assert digest == "b78f056bab542de80e1fcff0bfcd8dc6467079cd49642788d1516607b106cf38"


# sha256 of json.dumps(record, sort_keys=True) for the records of the
# reduced `verify --all` that exact disjointness clipping left alone,
# recorded from the sampled implementation; SectorMeasure's re-recorded
# when its cloud took each point from one stream word and again when it
# counted all its unions on one cloud, ArcConsistency's when it added the
# arcs' first angular moment
UNCHANGED_REDUCED_RECORDS = {
    "IsoscelesMinimality": "7b47f55cdf2ec4216289495cb90c667c6eab2986c3c032d0fc352b0b389c4d5c",
    "HMinAtZero": "df7f7daca9bc1b6193b812587a1c6acc14ba53cf138d74f22dda129446fc0670",
    "JGammaRatio": "3d8c36c0e7ae95997960fea2a46626611a8aa24d024712ec5ab3c4ded4245629",
    "CMin": "5e90464edc15ced747937bbe4ec9f2dab92b571d19c5b86db64975256de8195f",
    "FArgmax": "379abaa89efffaf4e0f45024f76349118717e10afc83c35b0d2a441683ee6ec0",
    "SectorMeasure": "02a2e1e48451a32f6b36cc65dcf0a1efc746794244034f730c8ec1c5d9c2c8cb",
    "ArcConsistency": "7fe6efcc3327672c6b417d700bdff4c9f8e53a931d93395ddd27dc247f15cfc0",
}


def test_reduced_verify_all_keeps_the_other_seven_records(reduced_verify_all):
    records = json.loads(reduced_verify_all)["checks"]
    digests = {
        rec["id"]: hashlib.sha256(json.dumps(rec, sort_keys=True).encode()).hexdigest()
        for rec in records
        if rec["id"] not in ("ExtDisjoint", "IntDisjoint")
    }
    assert digests == UNCHANGED_REDUCED_RECORDS


def test_verify_all_with_check_exits_2(tmp_path, capsys):
    code = run_cli(
        "verify", "--all", "--check", "CMin", "--samples", "100", "--output-dir", str(tmp_path)
    )
    assert code == 2
    assert "--all and --check cannot be combined" in capsys.readouterr().err
    assert not (tmp_path / "verify.json").exists()


def test_verify_with_a_repeated_check_exits_2(tmp_path, capsys):
    code = run_cli(
        "verify", "--check", "CMin", "--check", "CMin", "--samples", "100",
        "--output-dir", str(tmp_path),
    )
    assert code == 2
    assert "check CMin is named twice" in capsys.readouterr().err
    assert not (tmp_path / "verify.json").exists()


def test_verify_rejects_an_oversized_sample_count(tmp_path, capsys):
    # far beyond memory: the limit must refuse it before any draw
    code = run_cli(
        "verify", "--check", "IsoscelesMinimality", "--samples", "10000000000000",
        "--output-dir", str(tmp_path),
    )
    assert code == 2
    assert f"samples must be in [100, {oracle.MAX_SAMPLES}]" in capsys.readouterr().err
    assert not (tmp_path / "verify.json").exists()


def test_sec41_optimize_artifact_is_pinned(tmp_path):
    # sha256 of optimize.json from `optimize --preset sec41 --refine 10`,
    # recorded when one compass search replaced corner seeding and
    # golden-section passes; any change to a floating-point operation of
    # the search or the breakdown shows here
    code = run_cli(
        "optimize", "--preset", "sec41", "--refine", "10", "--output-dir", str(tmp_path)
    )
    assert code == 0
    digest = hashlib.sha256((tmp_path / "optimize.json").read_bytes()).hexdigest()
    assert digest == "87ca629cf1ee6988bbe65cd465c6d790a477100fe90bb66b046b5980c28e540b"


def test_theorem_bound_artifacts_are_pinned(tmp_path):
    # sha256 of bound.json and bound.csv from `bound --preset theorem`,
    # recorded alongside the sec41 digest above
    code = run_cli("bound", "--preset", "theorem", "--output-dir", str(tmp_path))
    assert code == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("bound.json", "bound.csv")
    }
    assert digests == {
        "bound.json": "16c3bfd7cdd10e75f7ccd2211d6620127a9e852aa0e589364d9dfa3279b8a04c",
        "bound.csv": "bfd163466af31273d5d75e226d1b57358048cbedd226f00d6bb1632de96397e9",
    }


def test_bound_table_rounds_its_lower_bounds_down(tmp_path, capsys):
    # to nearest, final = 1/98 = 0.0102040816... would print as 0.0102041
    assert run_cli("bound", "--digits", "6", "--output-dir", str(tmp_path)) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {words[0]: words[1:] for words in map(str.split, lines) if len(words) == 3}
    assert rows["final"] == ["0.010204", "0.032057"]
    assert rows["case_i"] == ["0.0102054", "0.0320613"]


def test_round_down_prints_the_nearest_digits_at_or_below_the_value():
    rnd = random.Random(16)
    for _ in range(5000):
        value = rnd.choice((-1.0, 1.0)) * 10.0 ** rnd.uniform(-9.0, 9.0)
        digits = rnd.randint(1, 17)
        text, nearest = cli._round_down(value, digits), f"{value:.{digits}g}"
        assert Decimal(text) <= Decimal(value)
        if Decimal(nearest) <= Decimal(value):
            assert text == nearest
        else:  # one unit lower in the last printed digit, laid out like the g format
            assert Decimal(text) < Decimal(nearest)
            assert digits > 15 or f"{float(text):.{digits}g}" == text
    for value in (0.0, -0.0, math.inf, -math.inf):
        assert cli._round_down(value, 6) == f"{value:.6g}"


def test_verify_failure_exits_1(tmp_path, monkeypatch):
    failing = oracle.CheckReport(
        id=oracle.CheckId.F_ARGMAX, samples=100, grid_spec="forced", max_violation=1.0,
        tolerance=0.0, seed=7,
    )
    assert not failing.passed
    monkeypatch.setattr(oracle, "run_checks", lambda *args, **kwargs: [failing])
    code = run_cli("verify", "--check", "FArgmax", "--output-dir", str(tmp_path))
    assert code == 1


def _reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def test_verify_library_domain_error_is_a_failure_exit_1(tmp_path, monkeypatch, capsys):
    real = cli.bounds.outside_area_rate
    monkeypatch.setattr(cli.bounds, "outside_area_rate", lambda r, a: real(r, a * (1.0 + 1e-6)))
    code = run_cli("verify", "--check", "CMin", "--samples", "100", "--output-dir", str(tmp_path))
    assert code == 1
    assert "FAIL CMin: max_violation = inf" in capsys.readouterr().out
    # strict (RFC 8259) JSON: the infinite violation is written as a finite float
    text = (tmp_path / "verify.json").read_text()
    (record,) = json.loads(text, parse_constant=_reject_constant)["checks"]
    assert record["max_violation"] == sys.float_info.max
    assert record["pass"] is False
    assert "DomainError at (r, x)" in record["grid_spec"]


@pytest.mark.parametrize("words", [
    ("bound", "--preset", "theorem"),
    ("bound", "--preset", "cunningham"),
    ("optimize", "--preset", "theorem"),
    ("optimize", "--preset", "sec41", "--refine", "10"),
    ("verify", "--all", "--samples", "100"),
])
def test_every_json_artifact_is_strict_json(words, tmp_path):
    assert run_cli(*words, "--output-dir", str(tmp_path)) == 0
    paths = sorted(tmp_path.glob("*.json"))
    assert [path.name for path in paths] == [f"{words[0]}.json"]
    json.loads(paths[0].read_text(), parse_constant=_reject_constant)


def test_verify_nan_violation_is_a_failure_in_strict_json(tmp_path, monkeypatch, capsys):
    # a library function that returns NaN on part of its domain
    real = cli.geom.exterior_area
    monkeypatch.setattr(cli.geom, "exterior_area",
                        lambda tri, r: math.nan if r > 0.4 else real(tri, r))
    code = run_cli("verify", "--check", "IsoscelesMinimality", "--samples", "100",
                   "--output-dir", str(tmp_path))
    assert code == 1
    assert "FAIL IsoscelesMinimality: max_violation = nan" in capsys.readouterr().out
    text = (tmp_path / "verify.json").read_text()
    (record,) = json.loads(text, parse_constant=_reject_constant)["checks"]
    assert record["max_violation"] == sys.float_info.max
    assert record["pass"] is False


def _verify_with_a_dying_worker(tmp_path, monkeypatch, capsys, death):
    """Exit code and stderr of a verify run whose SectorMeasure worker dies by ``death()``."""
    monkeypatch.setattr(oracle, "_worker_count", lambda n_tasks: 2)
    monkeypatch.setattr(oracle, "_union_hits", lambda angles, starts, stops: death())
    code = run_cli("verify", "--check", "SectorMeasure", "--check", "CMin", "--samples", "100",
                   "--output-dir", str(tmp_path))
    assert not (tmp_path / "verify.json").exists()
    # no child is left: multiprocessing.active_children() sees only its own
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return code, capsys.readouterr().err


def test_verify_worker_death_exits_4_and_writes_nothing(tmp_path, monkeypatch, capsys):
    code, err = _verify_with_a_dying_worker(tmp_path, monkeypatch, capsys, lambda: os._exit(1))
    assert code == 4
    assert "worker process" in err and "(exit status 1)" in err


def test_verify_killed_worker_exits_4_naming_the_signal(tmp_path, monkeypatch, capsys):
    # as a worker killed for memory would be
    code, err = _verify_with_a_dying_worker(
        tmp_path, monkeypatch, capsys, lambda: os.kill(os.getpid(), signal.SIGKILL)
    )
    assert code == 4
    assert "worker process" in err and f"(signal {signal.SIGKILL.value})" in err


def test_optimize_infeasibility_exits_3(tmp_path, monkeypatch):
    def boom(box, convention):
        raise EmptyFeasibleSet("forced")

    monkeypatch.setattr(cli.optimizer, "optimize", boom)
    assert run_cli("optimize", "--output-dir", str(tmp_path)) == 3


@pytest.mark.parametrize("command", ["optimize", "bound"])
def test_case_ii_infeasible_point_exits_3(command, tmp_path, capsys):
    # r1 rounds to exactly 1 at this point, so r1 - 1 <= a
    code = run_cli(command, "--a", "1e-200", "--r0", "0.25", "--lambda", "1",
                   "--rlambda-convention", "paper-literal", "--output-dir", str(tmp_path))
    assert code == 3
    assert capsys.readouterr().err.startswith("infeasible: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["optimize", "bound"])
def test_domain_errors_at_the_point_exit_2_not_3(command, tmp_path, capsys):
    out = tmp_path / "out"
    preset = ("--preset", "sec41") if command == "optimize" else ()
    assert run_cli(command, *preset, "--rlambda-convention", "reproduce", "--output-dir", str(out)) == 2
    assert "unknown r_lambda convention: 'reproduce'" in capsys.readouterr().err
    assert run_cli(command, "--a", "0.05", "--r0", "0.12", "--output-dir", str(out)) == 2
    assert "r0 must be >= 0.15" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("words", [
    ("f", "--steps", "1000000000000"),
    ("g", "--steps", "1000001"),
    ("final", "--a-from", "0.05", "--a-to", "0.07", "--a-steps", "1000000000000"),
    ("final", "--a-from", "0.05", "--a-to", "0.07", "--a-steps", "1000",
     "--r0-from", "0.23", "--r0-to", "0.26", "--r0-steps", "1001"),
    ("final", "--a-from", "0.05", "--a-to", "0.07",
     "--r0-from", "0.23", "--r0-to", "0.26", "--r0-steps", "1000000000000"),
])
def test_scan_point_cap_exits_2_before_evaluating(words, tmp_path, monkeypatch, capsys):
    def no_evaluation(*args, **kwargs):
        raise AssertionError("evaluated a point")

    monkeypatch.setattr(cli.geom, "exterior_area_rate", no_evaluation)
    for name in ("direction_ratio_cap", "theorem_bound"):
        monkeypatch.setattr(cli.bounds, name, no_evaluation)
    out = tmp_path / "out"
    assert run_cli("scan", *words, "--output-dir", str(out)) == 2
    assert f"at most {cli.MAX_SCAN_POINTS} points" in capsys.readouterr().err
    assert not out.exists()


def test_scan_point_cap_admits_the_limit():
    assert cli.MAX_SCAN_POINTS == 10**6
    assert len(cli._grid(0.0, 1.0, cli.MAX_SCAN_POINTS, "r")) == cli.MAX_SCAN_POINTS
    assert len(cli._grid(0.0, 1.0, 1000, "r0", rows=1000)) == 1000
    with pytest.raises(DomainError):
        cli._grid(0.0, 1.0, 1001, "r0", rows=1000)


def test_optimize_point_box(tmp_path, capsys):
    code = run_cli("optimize", "--output-dir", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "optimize.json").read_text())
    assert payload["best"]["a"] == pytest.approx(math.pi / 49.0)
    assert payload["breakdown"]["final"] == pytest.approx(1.0 / 98.0, abs=1e-15)
    assert payload["balanced_p"] == pytest.approx(0.9046657225829937, abs=1e-10)
    assert set(payload) == {"box", "best", "balanced_p", "breakdown", "trace"}
    assert set(payload["best"]) == PARAM_KEYS
    assert set(payload["breakdown"]) == BREAKDOWN_KEYS
    assert all(set(entry) == PARAM_KEYS | {"value"} for entry in payload["trace"])


@pytest.mark.parametrize("command, preset", [
    (("bound",), "sec41"),
    (("optimize",), "cunningham"),
    (("scan", "final"), "sec41"),
    (("verify", "--check", "CMin"), "theorem"),
])
def test_preset_of_another_command_exits_2(command, preset, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(*command, f"--preset={preset}", "--output-dir", str(out)) == 2
    assert f"--preset '{preset}' does not apply to {command[0]}" in capsys.readouterr().err
    assert not out.exists()


def test_digits_below_one_exit_2(tmp_path, capsys):
    for digits in ("-1", "0"):
        code = run_cli("bound", "--digits", digits, "--output-dir", str(tmp_path))
        assert code == 2
        assert "digits must be >= 1" in capsys.readouterr().err


def test_negative_refine_exits_2_before_optimizing(tmp_path, capsys):
    code = run_cli("optimize", "--preset", "sec41", "--refine", "-1", "--output-dir", str(tmp_path))
    assert code == 2
    out, err = capsys.readouterr()
    assert "--refine must be >= 0, got -1" in err
    assert "optimum" not in out
    assert not (tmp_path / "optimize.json").exists()


def test_digits_above_17_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    # 2**31 - 1 digits once asked the float formatter for about 2 GB
    for digits in ("18", str(2**31 - 1), str(10**12)):
        assert run_cli("bound", f"--digits={digits}", "--output-dir", str(out)) == 2
        assert "digits must be <= 17" in capsys.readouterr().err
        assert not out.exists()
    assert run_cli("bound", "--digits", "17", "--output-dir", str(out)) == 0


@pytest.mark.parametrize("flag", ["--steps", "--a-steps", "--r0-steps"])
def test_scan_counts_below_two_exit_2(flag, tmp_path, capsys):
    for count in ("1", "0", "-3"):
        code = run_cli(
            "scan", "final", "--preset", "theorem", "--a-from", "0.05", "--a-to", "0.07",
            "--r0-from", "0.23", "--r0-to", "0.26", flag, count, "--output-dir", str(tmp_path),
        )
        assert code == 2
        assert f"{flag} must be >= 2" in capsys.readouterr().err


def test_seeds_outside_0_to_2_pow_64_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ("verify", "--check", "CMin", "--samples", "100", "--output-dir", str(out))
    for seed in ("-1", str(1 << 64), str((1 << 64) + 7)):
        assert run_cli(*argv, f"--seed={seed}") == 2
        assert "seed must be" in capsys.readouterr().err
        assert not out.exists()
    for seed in ("0", str((1 << 64) - 1)):
        assert run_cli(*argv, "--seed", seed) == 0
        assert json.loads((out / "verify.json").read_text())["seed"] == int(seed)


@pytest.mark.parametrize("command", [
    ("bound", "--preset", "theorem"),
    ("verify", "--check", "FArgmax"),
    ("scan", "f", "--steps", "5"),
])
def test_unusable_output_dir_exits_2(command, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = run_cli(*command, "--output-dir", str(blocker / "sub"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(blocker) in err


def test_malformed_numeric_inputs_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    # a malformed value names its flag
    for command, flag, text, message in (
        (("bound",), "--a", "zero point one", "--a must be a number, got 'zero point one'"),
        (("bound",), "--digits", "6.5", "--digits must be an integer, got '6.5'"),
        (("verify", "--check", "CMin"), "--seed", "not-a-number",
         "--seed must be an integer, got 'not-a-number'"),
        (("verify", "--check", "CMin"), "--seed", "", "--seed must be an integer, got ''"),
    ):
        assert run_cli(*command, f"{flag}={text}", "--output-dir", str(out)) == 2
        assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ("bound", "--preset", "theorem"),
    ("scan", "f", "--steps", "5"),
    ("optimize",),
    ("verify", "--check", "CMin", "--samples", "100"),
], ids=["bound", "scan", "optimize", "verify"])
def test_seed_is_read_by_verify_alone(command, tmp_path, monkeypatch):
    # from --seed alone: no command reads a seed from the environment
    monkeypatch.setenv("KAKEYA_SEED", "oops")
    assert run_cli(*command, "--output-dir", str(tmp_path)) == 0
    if command[0] == "verify":
        assert json.loads((tmp_path / "verify.json").read_text())["seed"] == 7


@pytest.mark.parametrize("command, flag, value", [
    (("bound",), "--seed", "5"),
    (("scan", "f"), "--seed", "5"),
    (("optimize",), "--p", "0.5"),
    (("optimize",), "--emit", "json"),
    (("optimize",), "--seed", "5"),
    (("optimize",), "--grid", "2"),
    (("verify", "--check", "CMin"), "--a", "0.06"),
    (("verify", "--check", "CMin"), "--r0", "0.25"),
    (("verify", "--check", "CMin"), "--p", "0.5"),
    (("verify", "--check", "CMin"), "--lambda", "0.5"),
    (("verify", "--check", "CMin"), "--rlambda-convention", "reproducing"),
    (("verify", "--check", "CMin"), "--emit", "json"),
    (("verify", "--check", "CMin"), "--digits", "9"),
    (("bound", "--preset", "cunningham"), "--digits", "3"),
    (("bound", "--preset", "cunningham"), "--rlambda-convention", "paper-literal"),
    (("scan", "f"), "--p", "0.3"),
    (("scan", "f"), "--lambda", "0.2"),
    (("scan", "f"), "--rlambda-convention", "paper-literal"),
    (("scan", "c"), "--r0", "0.2"),
    (("scan", "g"), "--p", "0.4"),
    # a format the mode cannot write
    (("bound",), "--emit", "svg"),
    (("bound", "--preset", "cunningham"), "--emit", "csv"),
    (("scan", "f"), "--emit", "json"),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_flag_a_command_does_not_read_exits_2(command, flag, value, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(*command, flag, value, "--output-dir", str(out)) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    *((("bound", "--preset", "cunningham"), flag) for flag in ("--a", "--r0", "--p", "--lambda")),
    *((("optimize", "--preset", "sec41"), flag) for flag in ("--a", "--r0", "--lambda")),
])
def test_point_preset_rejects_parameter_flags(command, flag, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(*command, flag, "0.1", "--output-dir", str(out)) == 2
    assert f"{flag} does not apply to preset {command[2]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("words, name", [
    (("bound", "--output-dir="), "--output-dir"),
    (("bound", "--output-dir", ""), "--output-dir"),
    (("bound", "--output-dir=  "), "--output-dir"),
    (("scan", "f", "--emit="), "--emit"),
    (("scan", "f", "--emit", ","), "--emit"),
    (("scan", "f", "--emit= , "), "--emit"),
], ids=["output-dir=", "output-dir-blank", "output-dir-spaces", "emit=", "emit-comma",
        "emit-comma-spaces"])
def test_empty_value_exits_2(words, name, tmp_path, monkeypatch, capsys):
    # an empty directory once meant the current one, and an empty format list wrote nothing
    monkeypatch.chdir(tmp_path)
    assert run_cli(*words) == 2
    assert f"{name} must be " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_readme_examples_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("Examples:", 1)[1].split("```")[1]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    commands = [words for words in lines if words[:1] == ["kakeya"]]
    assert len(commands) >= 5
    for words in commands:
        # the parser alone accepts a flag that the example's mode does not read
        cli._resolve_config(cli._parse(words[1:]))


def test_svg_output_is_well_formed(tmp_path):
    code = run_cli(
        "scan", "f", "--from", "0.15", "--to", "0.5", "--steps", "30",
        "--emit", "svg", "--output-dir", str(tmp_path),
    )
    assert code == 0
    svg = (tmp_path / "scan_f.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg
    assert svg.rstrip().endswith("</svg>")


def test_flat_scan_svg_is_well_formed(tmp_path):
    # g is g_mid at every r of this range, so the y axis has no height of its own
    code = run_cli("scan", "g", "--from", "0.1", "--to", "0.2", "--emit", "svg",
                   "--output-dir", str(tmp_path))
    assert code == 0
    root = ElementTree.parse(tmp_path / "scan_g.svg").getroot()
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    points = root.find("{http://www.w3.org/2000/svg}polyline").get("points").split()
    assert len(points) == 100
    assert len({point.split(",")[1] for point in points}) == 1  # one height: a flat line
    assert [path.name for path in tmp_path.iterdir()] == ["scan_g.svg"]


def test_module_entry_point_runs(tmp_path):
    # the child imports the same package as this process, installed or not
    src = str(Path(kakeya.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "kakeya", "bound", "--preset", "cunningham",
         "--output-dir", str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "coefficient_of_pi" in proc.stdout
