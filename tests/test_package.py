import importlib
import pkgutil

import pytest

import pmquad

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
