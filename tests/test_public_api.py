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
    # scipy.signal costs ~0.7 s to import; only the truncated_ma sampler loads it
    import os
    import subprocess
    import sys
    src = os.path.dirname(os.path.dirname(sarfima.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    subprocess.run([sys.executable, "-c",
                    "import sarfima, sys; assert 'scipy.signal' not in sys.modules"],
                   env=env, check=True, timeout=120)
