"""Smoke test of the scripts under scripts/."""
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_demo_workflow_writes_its_outputs(tmp_path, capsys):
    loader = importlib.util.spec_from_file_location("demo_workflow", SCRIPTS / "demo_workflow.py")
    demo = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(demo)
    assert demo.main(["--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "scan.csv").read_text().startswith("alpha,m,d1_hat,d2_hat,var_d1,var_d2\n")
    assert (tmp_path / "residual_acf.csv").read_text().startswith("lag,acf,pacf,band\n")
    assert "Whittle" in capsys.readouterr().out
