import ast
import functools
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import pmquad
from pmquad import geom, harness, kdtree, limitproc, quadtree, table

MODULES = ["pmquad"] + [f"pmquad.{m.name}" for m in pkgutil.iter_modules(pmquad.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []


@pytest.mark.parametrize("module, attr", [("limitproc", "crossing_boxes"),
                                          ("kdtree", "vertical_decomposition_check")])
def test_public_helpers_exported(module, attr):
    assert attr in importlib.import_module(f"pmquad.{module}").__all__


def _package_imports(mod):
    """The pmquad modules that any import statement in mod's source names,
    nested ones included."""
    out = set()
    for node in ast.walk(ast.parse(inspect.getsource(mod))):
        if isinstance(node, ast.Import):
            out |= {a.name for a in node.names if a.name.split(".")[0] == "pmquad"}
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["pmquad" if node.level else None, node.module]))
            if base == "pmquad":  # from pmquad import x: x may be a module
                out |= {f"pmquad.{a.name}" for a in node.names}
            elif base.split(".")[0] == "pmquad":
                out.add(base)
    return out


def test_oracles_import_no_kernel():
    # geom holds the tree oracles the array kernels are tested against, so it
    # may import nothing from the package but the exception types
    assert {"pmquad.errors", "pmquad.geom"} <= _package_imports(quadtree)  # the check sees imports
    assert _package_imports(geom) == {"pmquad.errors"}


def test_table_imports_nothing_from_the_package():
    # every command writes through it, so it must not load the Monte Carlo code
    assert _package_imports(table) == set()


@pytest.mark.parametrize("name", ["Table", "_fmt", "_emit", "emit_csv", "emit_plot_data",
                                  "parse_csv"])
def test_harness_reexports_the_table_names(name):
    assert getattr(harness, name) is getattr(table, name)
    assert name.startswith("_") or name in harness.__all__


EXPORTED = [(m, name) for m in (quadtree, kdtree, limitproc) for name in m.__all__
            if name in geom.__all__]


def test_each_oracle_exported():
    assert ({name for _, name in EXPORTED}
            == set(geom.__all__) - {"Point2", "Cell", "StepProfile"})


@pytest.mark.parametrize("mod, name", EXPORTED,
                         ids=[f"{m.__name__.split('.')[1]}.{n}" for m, n in EXPORTED])
def test_each_oracle_has_one_definition(mod, name):
    # the kernel modules re-export geom's oracles; a copy of one of them there
    # would be an oracle that the import check does not cover
    assert getattr(mod, name) is getattr(geom, name)


def _functions(obj):
    if isinstance(obj, type):
        return [f for f in vars(obj).values() if isinstance(f, types.FunctionType)]
    return [obj] if isinstance(obj, types.FunctionType) else []


REEXPORTED_FUNCTIONS = [f for m, name in EXPORTED for f in _functions(getattr(m, name))]


@pytest.mark.parametrize("fn", REEXPORTED_FUNCTIONS, ids=lambda fn: fn.__qualname__)
def test_oracle_reads_geom_globals(fn):
    # an oracle resolves its free names in the module it was defined in; the
    # import check covers it only if that module is geom
    assert fn.__globals__ is vars(geom)


def _fresh(code, **env):
    """stdout of ``code`` in a fresh interpreter with ``env`` set on top of ours."""
    env = {k: v for k, v in {**os.environ, **env}.items() if v is not None}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


def test_importing_the_package_leaves_numpy_unloaded():
    # the CLI can only set BLAS threads before numpy loads if pmquad has not loaded it
    assert _fresh("import sys, pmquad; print('numpy' in sys.modules)") == "False"


def test_importing_the_cli_loads_numpy():
    # every command that does work needs it, so the CLI loads it up front
    assert _fresh("import sys, pmquad.cli; print('numpy' in sys.modules)") == "True"


@pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")])
def test_cli_keeps_openblas_to_one_thread_unless_set(preset, want):
    code = "import os, pmquad.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh(code, OPENBLAS_NUM_THREADS=preset) == want


@pytest.mark.parametrize("name", MODULES)
def test_module_caches_clear_without_arguments(name):
    # a benchmark or test may reset state by calling cache_clear() on every
    # module attribute that has one, so each must be an lru_cache
    mod = importlib.import_module(name)
    caches = [f for f in vars(mod).values() if callable(getattr(f, "cache_clear", None))]
    assert [f for f in caches if type(f) is not type(functools.lru_cache(len))] == []
    for f in caches:
        f.cache_clear()
    assert name != "pmquad.moments" or caches


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert pmquad.__version__ == tomllib.load(fh)["project"]["version"]


def test_console_script_is_the_module_entry():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        module, _, attr = tomllib.load(fh)["project"]["scripts"]["pmquad"].partition(":")
    script = getattr(importlib.import_module(module), attr)
    # `python -m pmquad.cli` runs the one call under the module's __main__ guard
    cli = importlib.import_module("pmquad.cli")
    (guard,) = [node for node in ast.parse(inspect.getsource(cli)).body
                if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    (stmt,) = guard.body
    assert isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
    assert not stmt.value.args and not stmt.value.keywords
    assert getattr(cli, stmt.value.func.id) is script is cli.run


def test_no_module_uses_an_executor_pool():
    # replicated blocks run on harness.run_blocks' own forked workers
    assert [m for m in MODULES if "concurrent" in inspect.getsource(importlib.import_module(m))] == []
