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
from pmquad import harness, kdtree, limitproc, quadtree

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


def _names(code):
    """The global and attribute names that code and its nested code objects read."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names(const)
    return names


def _methods(cls):
    return [f for f in vars(cls).values() if isinstance(f, types.FunctionType)]


ORACLE = [
    *_methods(quadtree.Node),
    *_methods(quadtree.Tree),
    quadtree._build,
    quadtree._search,
    quadtree.build,
    quadtree.cost,
    quadtree.horizontal_crossings,
    quadtree.profile,
    quadtree.supremum,
    quadtree.subtree_sizes,
    kdtree.build_kd,
    kdtree.cost_parallel,
    kdtree.cost_perp,
    kdtree.decomposition_check,
    kdtree.vertical_decomposition_check,
    limitproc.fill_up_level,
]


# The object trees are the oracle the array kernels are tested against, so
# they may read no name that the tree modules define besides each other and
# the helpers below, which check input or name an axis, a node or a tree.
SHARED = {"_check_query", "_check_general_position", "_full_levels", "Node", "Tree",
          "VERTICAL", "HORIZONTAL"}


def _defined(mod):
    """The names bound at the top level of the module's source, imports left out."""
    out = set()
    for node in ast.parse(inspect.getsource(mod)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return out


FORBIDDEN = (set().union(*map(_defined, (quadtree, kdtree, limitproc, harness)))
             - {fn.__name__ for fn in ORACLE} - SHARED)


def test_forbidden_names_hold_the_kernels():
    # a guard against a derivation that comes out empty
    assert {"_slice_cost", "_batch_line_costs", "_sampled_costs", "_screen", "_node_extents",
            "_profile_xy", "_rule", "_QUAD", "_KD_V", "_KD_H", "_AFTER", "HEAD", "_line_costs",
            "line_cost", "profile_xy"} <= FORBIDDEN


@pytest.mark.parametrize("fn", ORACLE, ids=lambda fn: fn.__qualname__)
def test_oracle_independent_of_kernels(fn):
    assert _names(fn.__code__) & FORBIDDEN == set()


def test_names_sees_nested_code():
    assert "_AFTER" in _names((lambda: [_AFTER for _ in ()]).__code__)  # noqa: F821


def _fresh(code, **env):
    """stdout of ``code`` in a fresh interpreter with ``env`` set on top of ours."""
    env = {k: v for k, v in {**os.environ, **env}.items() if v is not None}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


def test_importing_the_package_leaves_numpy_unloaded():
    # the CLI can only set BLAS threads before numpy loads if pmquad has not loaded it
    assert _fresh("import sys, pmquad; print('numpy' in sys.modules)") == "False"


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


def test_no_module_uses_an_executor_pool():
    # replicated blocks run on harness.run_blocks' own forked workers
    assert [m for m in MODULES if "concurrent" in inspect.getsource(importlib.import_module(m))] == []
