"""Every name a module exports in ``__all__`` resolves."""
import importlib
import pkgutil

import pytest

import sarfima

MODULES = ["sarfima"] + [f"sarfima.{info.name}" for info in pkgutil.iter_modules(sarfima.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
