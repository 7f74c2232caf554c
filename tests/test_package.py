import importlib
import os
import pkgutil
import subprocess
import sys
import types

import pytest

import pmquad
from pmquad import kdtree, limitproc, quadtree

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


# The object trees are the oracle the array kernels are tested against, so
# they must not reach the kernels' rule encoding or the kernels themselves.
KERNEL_NAMES = {"_slice_cost", "_batch_line_costs", "_cell_edges", "_node_extents", "_profile_xy",
                "_root_slices", "_split_slices", "_hull_keep", "_screen", "_Batch",
                "_AFTER", "_QUAD", "_KD_V", "_KD_H", "HEAD"}


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


@pytest.mark.parametrize("fn", ORACLE, ids=lambda fn: fn.__qualname__)
def test_oracle_independent_of_kernels(fn):
    assert _names(fn.__code__) & KERNEL_NAMES == set()


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
    # module attribute that has one, as on an lru_cache
    mod = importlib.import_module(name)
    caches = [f for f in vars(mod).values() if callable(getattr(f, "cache_clear", None))]
    for f in caches:
        f.cache_clear()
    assert name != "pmquad.moments" or caches
