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
