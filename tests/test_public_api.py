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


#: run in a fresh process: the modules loaded by the import alone, then those
#: loaded once the default sampler's paths have been drawn, filtered and fitted
#: through the library and the CLI
_COLD_PATHS = """
import json, sys
import sarfima
from sarfima import DESIGN_NAMES, SimConfig, design, fractional_filter, run_mc, simulate, spec_to_json
from sarfima.cli import dispatch
imported = sorted(sys.modules)
for name in DESIGN_NAMES:
    run_mc(design(name, master_seed=1, reps=2))
spec = design("table2", master_seed=1, reps=1).spec
x = simulate(SimConfig(spec=spec, n=256, seed=1))
fractional_filter(x, (0.1, 0.3), (1, 4))
open("spec.json", "w").write(spec_to_json(spec))
for argv in (["simulate", "--spec", "spec.json", "--n", "256", "--seed", "1", "--out", "x.csv"],
             ["filter", "--in", "x.csv", "--d", "0.1,0.3", "--periods", "1,4", "--out", "r.csv"],
             ["mc", "--design", "table2", "--seed", "1", "--reps", "2", "--n", "256", "--out", "mc.csv"]):
    assert dispatch(argv) == 0, argv
print(json.dumps([imported, sorted(sys.modules)]))
"""


def test_import_leaves_scipy_signal_unloaded(tmp_path):
    # only the opt-in exact_dl sampler needs scipy (scipy.linalg's dtrsm), and
    # only a run with workers needs the process-pool modules
    import json
    import os
    import subprocess
    import sys
    src = os.path.dirname(os.path.dirname(sarfima.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    imported, used = json.loads(subprocess.run(
        [sys.executable, "-c", _COLD_PATHS], cwd=tmp_path, env=env, check=True, timeout=300,
        capture_output=True, text=True).stdout)
    assert [m for m in imported if m.split(".")[0] in ("scipy", "concurrent", "multiprocessing")] == []
    assert [m for m in used if m.startswith("scipy")] == []
