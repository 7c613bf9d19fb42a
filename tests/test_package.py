"""Package-surface tests: the exported names and the runtime dependencies."""

from __future__ import annotations

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kakeya
from kakeya import geom, oracle

MODULES = ("bounds", "cli", "geom", "optimizer", "oracle")

# Library API removed because no bound, optimizer step, check, command or
# benchmark used it; each quantity keeps one public path.
REMOVED = {
    "kakeya": ("DirectionInterval", "balance_p", "case_i_bound", "case_ii_bound"),
    "kakeya.geom": ("DirectionInterval", "direction_interval", "theta_max", "vertex_reach"),
    "kakeya.bounds": ("case_i_bound", "case_ii_bound"),
    "kakeya.optimizer": ("balance_p",),
}


@pytest.mark.parametrize("name", ("kakeya",) + tuple(f"kakeya.{m}" for m in MODULES))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(module.__all__) == len(set(module.__all__))
    for export in module.__all__:
        assert hasattr(module, export), f"{name}.{export}"


def test_export_counts():
    assert len(kakeya.__all__) == 28
    assert len(geom.__all__) == 15


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_names_are_gone(name):
    module = importlib.import_module(name)
    for gone in REMOVED[name]:
        assert not hasattr(module, gone), f"{name}.{gone}"
        assert gone not in module.__all__


def test_removed_members_are_gone():
    assert not hasattr(geom.Arc, "length")
    assert "tolerance" not in inspect.signature(oracle.run_check).parameters


def test_runtime_needs_numpy_but_not_mpmath_or_pytest():
    # the child imports the same package as this process, installed or not
    src = str(Path(kakeya.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import sys, kakeya, kakeya.cli; "
        "print(' '.join(m for m in ('mpmath', 'pytest', 'numpy') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["numpy"]


def test_importing_the_package_does_not_load_the_thread_pool():
    # SectorMeasure imports concurrent.futures when it runs; every command
    # that runs no check must not pay for that import at startup
    src = str(Path(kakeya.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = "import sys, kakeya, kakeya.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_importing_the_package_does_not_load_a_process_pool():
    # run_checks imports multiprocessing when it starts a pool; every
    # command that runs no check, and a single check, must not pay for it
    src = str(Path(kakeya.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import sys, kakeya, kakeya.cli; from kakeya import oracle; "
        "oracle.run_check(oracle.CheckId.C_MIN, samples=100); "
        "print(' '.join(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_the_draw_table_is_built_on_first_use_and_only_as_large_as_used():
    # verify's parent process draws only SectorMeasure's set parameters, a
    # few words at a time; the full table belongs to the workers' draws
    src = str(Path(kakeya.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import kakeya, kakeya.cli; from kakeya import oracle, rng; "
        "print(rng._golden_steps is None); "
        "oracle._sector_sets(rng.CounterRng(7, 8)); print(len(rng._golden_steps)); "
        "rng.CounterRng(7).uniforms(10**5); print(len(rng._golden_steps))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    built, after_sets, after_block = proc.stdout.split()
    assert built == "True"
    assert int(after_sets) <= 8
    assert int(after_block) == 1 << 14
