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


def test_import_leaves_scipy_signal_unloaded():
    # each scipy submodule is imported by the one function that needs it, so
    # verbs that need none (periodogram, the estimators) do not pay for them
    import os
    import subprocess
    import sys
    src = os.path.dirname(os.path.dirname(sarfima.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sarfima, sys; print(sorted(m for m in sys.modules if m.startswith('scipy.')))"],
        env=env, check=True, timeout=120, capture_output=True, text=True).stdout
    for module in ("scipy.fft", "scipy.linalg", "scipy.special", "scipy.signal"):
        assert repr(module) not in loaded
