"""Package-surface tests: the exported names, the module boundaries and the
runtime dependencies."""

from __future__ import annotations

import ast
import importlib
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kakeya
from kakeya import bounds, cli, geom, optimizer, oracle

MODULES = ("bounds", "catalogue", "cli", "geom", "optimizer", "oracle", "workers")

# Library API removed because no bound, optimizer step, check, command or
# benchmark used it; each quantity keeps one public path.
REMOVED = {
    "kakeya": (
        "Arc", "CheckReport", "DirectionInterval", "McEstimate", "Point", "balance_p",
        "case_i_bound", "case_ii_bound", "find_h_threshold", "mc_area", "run_check",
    ),
    "kakeya.geom": (
        "Arc", "DirectionInterval", "Point", "angular_gap", "direction_interval",
        "theta_isosceles", "theta_max", "triangle_vertices", "vertex_reach",
    ),
    "kakeya.bounds": ("UPPER_BOUND_COEFF", "case_i_bound", "case_ii_bound", "exterior_area_rate"),
    "kakeya.optimizer": ("balance_p",),
    "kakeya.oracle": ("McEstimate", "mc_area"),
    "kakeya.cli": ("Config",),
    "kakeya.rng": ("mix64",),
}


@pytest.mark.parametrize("name", ("kakeya",) + tuple(f"kakeya.{m}" for m in MODULES))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(module.__all__) == len(set(module.__all__))
    for export in module.__all__:
        assert hasattr(module, export), f"{name}.{export}"


def test_export_counts():
    assert len(kakeya.__all__) == 21
    assert len(geom.__all__) == 11
    assert cli.__all__ == ["main"]


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_names_are_gone(name):
    module = importlib.import_module(name)
    for gone in REMOVED[name]:
        assert not hasattr(module, gone), f"{name}.{gone}"
        assert gone not in getattr(module, "__all__", ())


def _field_names(cls):
    return cls._fields


def test_removed_members_are_gone():
    # a triangle is its chart: no vertex coordinates or area are stored
    assert _field_names(geom.NeedleTriangle) == ("alpha", "delta", "t")
    assert not hasattr(geom.NeedleTriangle, "area")
    assert "tolerance" not in inspect.signature(oracle.run_check).parameters
    # a record stores no value it can compute from its other fields
    assert _field_names(optimizer.OptimizationResult) == ("best", "breakdown", "trace")
    assert _field_names(bounds.DerivedParams) == ("r_lambda", "delta1", "r1", "g_mid")
    assert "passed" not in _field_names(oracle.CheckReport)
    for violation in (0.0, 1e-3, math.inf, math.nan):
        report = oracle.CheckReport(
            id=oracle.CheckId.C_MIN, samples=100, grid_spec="", max_violation=violation,
            tolerance=1e-10, seed=7,
        )
        assert report.passed is (report.max_violation <= report.tolerance)
        assert report.as_dict()["pass"] is report.passed


# No module reads another module's private names.
ALLOWED_PRIVATE_READS = set()


def _private_reads(path: Path, package: set[str]):
    """(module, name) for every ``_name`` the file reads from another package module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {}  # local name -> package module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "kakeya"):
            for alias in node.names:
                if node.module in (None, "kakeya") and alias.name in package:
                    aliases[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    yield (node.module or "kakeya").rsplit(".", 1)[-1], alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            yield aliases[node.value.id], node.attr


def test_no_module_reads_another_modules_private_names():
    src = Path(kakeya.__file__).parent
    package = {path.stem for path in src.glob("*.py")}
    reads = {
        (path.stem, module, name)
        for path in sorted(src.glob("*.py"))
        for module, name in _private_reads(path, package)
        if module != path.stem
    }
    assert reads == ALLOWED_PRIVATE_READS


def _module_level_imports(path: Path, package: set[str]):
    """Every module the file imports when it is itself imported.

    Imports inside a function run only when it is called and are skipped.
    A package module is named by its stem, any other by its top-level name.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        nodes.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "kakeya" if node.level else node.module
            if node.level and node.module:
                base += "." + node.module
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] != "kakeya":
                yield parts[0]
            elif len(parts) > 1 and parts[1] in package:
                yield parts[1]


def test_only_the_oracle_and_its_generator_load_numpy_at_import():
    # numpy costs about half of a cold start; the commands other than
    # verify never need it
    src = Path(kakeya.__file__).parent
    package = {path.stem for path in src.glob("*.py")}
    imports = {
        (path.stem, module)
        for path in sorted(src.glob("*.py"))
        for module in _module_level_imports(path, package)
    }
    assert {stem for stem, module in imports if module == "numpy"} == {"oracle", "rng"}
    assert {(stem, module) for stem, module in imports if module in ("oracle", "rng")} == {
        ("oracle", "rng")
    }


RECORDS = (
    geom.NeedleTriangle, bounds.BoundParams, bounds.DerivedParams, bounds.BoundBreakdown,
    bounds.BoundTerms, optimizer.SearchBox, optimizer.OptimizationResult, oracle.CheckReport,
    cli.OutputTable,
)


def test_records_are_namedtuples_and_no_module_imports_dataclasses_or_typing():
    # dataclasses, and the inspect it loads, cost a third of importing the
    # package; every record is one kind, an immutable namedtuple
    for cls in RECORDS:
        assert issubclass(cls, tuple) and cls._fields and "__dict__" not in dir(cls), cls
    src = Path(kakeya.__file__).parent
    imports = [
        (path.name, node.lineno)
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(a.name in ("dataclasses", "typing") for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module in ("dataclasses", "typing")
    ]
    assert imports == []


def _child_words(code):
    """The words ``python -c code`` prints, run in a child interpreter."""
    # the child imports the same package as this process, installed or not
    src = str(Path(kakeya.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_runtime_needs_numpy_but_not_mpmath_or_pytest(tmp_path):
    # loaded modules after importing the command line; exit codes and loaded
    # modules after bound, optimize and scan, then after verify
    names = ("mpmath", "pytest", "numpy", "argparse", "gettext", "locale")
    loaded = f"print(*[m for m in {names!r} if m in sys.modules] or ['none'])"
    assert _child_words(
        "import contextlib, io, sys, kakeya, kakeya.cli\n"
        f"{loaded}\n"
        f"out = ['--output-dir', {str(tmp_path)!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [kakeya.cli.main(argv + out) for argv in (\n"
        "        ['bound'], ['optimize', '--preset', 'sec41', '--refine', '10'], ['scan', 'final'])]\n"
        f"print(*codes); {loaded}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = kakeya.cli.main(['verify', '--check', 'CMin', '--samples', '100'] + out)\n"
        f"print(code); {loaded}\n"
    ) == ["none", "0", "0", "0", "none", "0", "numpy"]


def test_importing_the_package_and_its_command_loads_neither_dataclasses_nor_inspect():
    assert _child_words(
        "import sys, kakeya, kakeya.cli; "
        "print(*[m for m in ('dataclasses', 'inspect') if m in sys.modules] or ['none'])"
    ) == ["none"]


def test_importing_the_package_loads_neither_the_oracle_nor_numpy():
    # the check names come from the numpy-free catalogue, which the oracle re-exports
    assert _child_words(
        "import sys, kakeya; print('kakeya.oracle' in sys.modules, 'numpy' in sys.modules); "
        "from kakeya import oracle, catalogue; "
        "print(kakeya.CheckId is oracle.CheckId is catalogue.CheckId, "
        "oracle.MAX_SAMPLES is catalogue.MAX_SAMPLES)"
    ) == ["False", "False", "True", "True"]


def _module_getattrs(path: Path):
    """Line numbers where the file binds ``__getattr__`` at module level.

    Bindings inside a function or class body are not the module's and are skipped.
    """
    nodes = list(ast.parse(path.read_text(encoding="utf-8")).body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == "__getattr__":
                yield node.lineno
            continue
        if isinstance(node, ast.Name) and node.id == "__getattr__" and isinstance(node.ctx, ast.Store):
            yield node.lineno
        nodes.extend(ast.iter_child_nodes(node))


def test_no_module_defines_a_module_getattr():
    # a PEP 562 __getattr__ would serve names that no __all__ line or
    # import shows; every public name is bound where it is defined
    src = Path(kakeya.__file__).parent
    found = [(path.name, line) for path in sorted(src.glob("*.py")) for line in _module_getattrs(path)]
    assert found == []


def test_importing_the_package_does_not_load_a_process_pool():
    # run_checks imports kakeya.workers when it forks; every command that
    # runs no check, and a single check, must not pay for it
    assert _child_words(
        "import sys, kakeya, kakeya.cli; from kakeya import oracle; "
        "oracle.run_check(oracle.CheckId.C_MIN, samples=100); "
        "print(' '.join(m for m in ('multiprocessing', 'concurrent.futures', 'kakeya.workers') "
        "if m in sys.modules))"
    ) == []


def test_a_pooled_verify_loads_no_process_pool_module(tmp_path):
    # the checks run on bare forked workers: a verify that forks loads
    # kakeya.workers but neither concurrent.futures nor multiprocessing
    # (with the socket, logging and subprocess modules they bring)
    assert _child_words(
        "import contextlib, io, sys, kakeya.cli; from kakeya import oracle\n"
        "task_counts = []\n"
        "oracle._worker_count = lambda n_tasks: task_counts.append(n_tasks) or 2\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = kakeya.cli.main(['verify', '--all', '--samples', '100', '--output-dir', {str(tmp_path)!r}])\n"
        "print(code, *task_counts, *(m for m in ('multiprocessing', 'concurrent.futures', 'kakeya.workers')"
        " if m in sys.modules))"
    ) == ["0", "9", "kakeya.workers"]


def test_the_benchmark_modules_import():
    # the benchmark's tracer and workloads read package names at import; a
    # name deleted from under them fails here rather than in every pass
    bench = Path(__file__).resolve().parents[1] / "bench"
    assert _child_words(
        f"import sys; sys.path.insert(0, {str(bench)!r}); import tracer, workloads; print('ok')"
    ) == ["ok"]


def _real_abc_uses(path: Path):
    """Line numbers where the file imports ``numbers`` or calls ``isinstance(..., Real)``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "numbers" for alias in node.names):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "numbers" and not node.level:
                yield node.lineno
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2):
            if any(isinstance(sub, ast.Name) and sub.id == "Real"
                   or isinstance(sub, ast.Attribute) and sub.attr == "Real"
                   for sub in ast.walk(node.args[1])):
                yield node.lineno


def test_arguments_are_checked_by_one_idiom_without_the_numbers_abcs():
    # every guard sits in a try whose except raises errors.wrong_type's
    # DomainError; an ABC test costs 0.5-0.9 us per value on the hot path
    src = Path(kakeya.__file__).parent
    uses = [(path.name, line) for path in sorted(src.glob("*.py")) for line in _real_abc_uses(path)]
    assert uses == []


_ENVIRONMENT = ("environ", "environb", "getenv", "getenvb")


def _environment_reads(path: Path):
    """Line numbers where the file names os.environ or os.getenv (or their bytes forms)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT:
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in _ENVIRONMENT for alias in node.names):
                yield node.lineno


def test_no_module_reads_the_environment():
    # the command line is a run's only source of settings
    src = Path(kakeya.__file__).parent
    reads = [(path.name, line) for path in sorted(src.glob("*.py")) for line in _environment_reads(path)]
    assert reads == []


def _file_system_writes(tree: ast.AST, where: str = "<module>"):
    """(enclosing function, line) of each call to open, .open, .write_text or .mkdir."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _file_system_writes(node, node.name)
            continue
        if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == "open"
            or isinstance(node.func, ast.Attribute) and node.func.attr in ("open", "write_text", "mkdir")
        ):
            yield where, node.lineno
        yield from _file_system_writes(node, where)


def test_only_save_writes_files_in_the_command_line_module():
    # each command returns its files as writers; _save alone opens them
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    calls = list(_file_system_writes(tree))
    assert {where for where, _ in calls} == {"_save"}, calls


def test_code_line_counter_skips_docstrings_comments_and_blank_lines(tmp_path):
    # the rule behind the code-line counts quoted in ROADMAP and CHANGES.md
    (tmp_path / "mod.py").write_text(
        '"""A module docstring,\nover two lines."""\n'
        "\n"
        "# a comment\n"
        "x = (1 +\n"
        "     2 +\n"
        "     3)  # a trailing comment\n"
        "def f():\n"
        '    """A docstring."""\n'
        "    return x\n"
    )
    tool = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
    proc = subprocess.run([sys.executable, str(tool), str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["5 mod", "5 total"]
