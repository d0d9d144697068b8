"""Smoke test of the scripts under scripts/."""
import importlib.util
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    loader = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def test_demo_workflow_writes_its_outputs(tmp_path, capsys):
    demo = load("demo_workflow")
    # with seed 23 five residual autocorrelations (lags 12, 13, 28, 45 and 46) lie outside the band
    assert demo.main(["--out-dir", str(tmp_path), "--seed", "23"]) == 0
    assert (tmp_path / "scan.csv").read_text().startswith("alpha,m,d1_hat,d2_hat,var_d1,var_d2,error\n")
    assert (tmp_path / "residual_acf.csv").read_text().startswith("lag,acf,pacf,band\n")
    out = capsys.readouterr().out
    assert "Whittle" in out
    # the printed count covers every lag of the written ACF, 1..48
    rows = [line.split(",") for line in (tmp_path / "residual_acf.csv").read_text().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(1, 49))
    outside = sum(abs(float(acf)) > float(band) for _, acf, _, band in rows)
    assert f"{outside} of 48 outside" in out


def test_digest_prints_stable_digests(capsys):
    digest = load("digest")
    runs = []
    for _ in range(2):
        assert digest.main(["--reps", "2"]) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    assert [line.split()[0] for line in runs[0]] == ["run_mc", "cli", "circulant"]
    assert all(re.fullmatch("[0-9a-f]{64}", line.split()[1]) for line in runs[0])


def test_digest_against_this_checkout_finds_no_difference(capsys):
    digest = load("digest")
    assert digest.main(["--reps", "2", "--n", "256"]) == 0
    alone = capsys.readouterr().out.splitlines()
    assert digest.main(["--reps", "2", "--n", "256", "--against", str(SCRIPTS.parent)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == alone
    rows = lines[3:]
    # the 10 estimators of table1, 2 and 4 and the band-overlap of table3 and 5, per
    # sampler, and no line for a CLI verb or file: both packages wrote the same bytes
    assert len(rows) == 2 * (10 + 2)
    assert not any(row.startswith("cli ") for row in rows)
    for row in rows:
        fields = row.split()
        if fields[1] == "error":
            assert fields[2:] == ["band-overlap", "->", "band-overlap"]
        elif "/ft" in fields[0]:   # a Whittle fit also compares its objective and mean steps
            assert fields[1:12] == ["max|dd|", "0", "steps", "0", "codes", "0", "objective", "lower", "0", "higher", "0"]
            assert fields[12:14] == ["mean", "steps"] and fields[15] == "->" and fields[16] == fields[14]
            assert float(fields[14]) > 0 and len(fields) == 17
        else:
            assert fields[1:] == ["max|dd|", "0", "steps", "0", "codes", "0"]


def test_digest_against_a_changed_checkout_exits_1(tmp_path, capsys):
    # a copy of the package whose Whittle fits stop after one Newton step
    package = tmp_path / "src" / "sarfima"
    shutil.copytree(SCRIPTS.parent / "src" / "sarfima", package, ignore=shutil.ignore_patterns("__pycache__"))
    estimators = package / "estimators.py"
    text, n_subs = re.subn(r"(?m)^WHITTLE_MAX_STEPS = \d+$", "WHITTLE_MAX_STEPS = 1", estimators.read_text())
    assert n_subs == 1
    estimators.write_text(text)
    digest = load("digest")
    assert digest.main(["--reps", "2", "--n", "256", "--against", str(tmp_path)]) == 1
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[3:]]
    # the CLI chain names the verbs whose exit code moved and the files the fits wrote
    cli = [r[1:] for r in rows if r[0] == "cli"]
    assert ["estimate-whittle", "exit", "2", "->", "0"] in cli
    assert [r[0] for r in cli if r[1:] == ["differs"]] == ["mc.csv", "mc_estimates.csv", "whittle_ar.json",
                                                            "whittle_pure.json"]
    rows = [r for r in rows if r[0] != "cli"]
    # the band regressions have no steps and agree; the Whittle fits do not
    gph = [r for r in rows if "/gph" in r[0]]
    assert gph and all(r[1:] == ["max|dd|", "0", "steps", "0", "codes", "0"] for r in gph)
    assert any(r[0].endswith("/ft") and r[4] != "0" for r in rows)
    # a full descent ends lower than one step, and never higher
    whittle = [r for r in rows if "/ft" in r[0]]
    assert any(r[9] != "0" for r in whittle) and all(r[7:9] == ["objective", "lower"] and r[11] == "0"
                                                     for r in whittle)
    # and the mean steps of both sides size the change
    assert all(r[12:14] == ["mean", "steps"] and r[15] == "->" and float(r[14]) < float(r[16]) for r in whittle)


def test_digest_runs_from_a_plain_checkout(tmp_path):
    # no PYTHONPATH and another working directory: the script finds its own src/
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run([sys.executable, str(SCRIPTS / "digest.py"), "--reps", "1"], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert [line.split()[0] for line in run.stdout.splitlines()] == ["run_mc", "cli", "circulant"]


def assert_gain_rule(lines, rounds):
    """fit_ab's two closing lines: each side's median and quartiles of CPU
    seconds per run, then the verdict of the gain rule, which the numbers
    printed decide."""
    number = r"(\d+\.\d{6})"
    sides = re.fullmatch(rf"CPU seconds per run  this median {number} \(quartiles {number} {number}\)  "
                         rf"against median {number} \(quartiles {number} {number}\)", lines[0])
    assert sides
    mid, q1, q3, other, p1, p3 = map(float, sides.groups())
    assert q1 <= mid <= q3 and p1 <= other <= p3
    if rounds == 1:   # one value is its own quartiles
        assert q1 == q3 and p1 == p3
    rule = re.fullmatch(rf"gain rule: this faster in (\d+) of {rounds} rounds \(9/10 needed\), median gap "
                        rf"(-?\d+\.\d{{6}}) against IQR {number} \(must be wider\): (met|not met)", lines[1])
    assert rule
    assert float(rule[2]) == pytest.approx(other - mid, abs=2e-6)
    assert float(rule[3]) == pytest.approx(p3 - p1, abs=2e-6)


#: CPU seconds per round of the other side: median 1.5, quartiles 1.425 and 1.575
AGAINST = [1.0, 1.2, 1.4, 1.5, 1.5, 1.5, 1.5, 1.6, 1.8, 2.0]


@pytest.mark.parametrize("this, wins, verdict", [
    ([0.9] * 10, 10, "met"),
    ([0.9] * 9 + [2.5], 9, "met"),
    ([0.9] * 8 + [2.5] * 2, 8, "not met"),
    ([t - 0.01 for t in AGAINST], 10, "not met"),   # the medians 0.01 apart, inside the IQR of 0.15
])
def test_fit_ab_gain_rule(this, wins, verdict):
    fit_ab = load("fit_ab")
    lines = fit_ab.gain_report(this, AGAINST)
    assert lines[0].endswith("against median 1.500000 (quartiles 1.425000 1.575000)")
    assert lines[1].startswith(f"gain rule: this faster in {wins} of 10 rounds (9/10 needed)")
    assert lines[1].endswith(f"against IQR 0.150000 (must be wider): {verdict}")


def test_fit_ab_against_this_checkout(capsys):
    fit_ab = load("fit_ab")
    argv = ["--against", str(SCRIPTS.parent), "--rounds", "2", "--reps", "2", "--n", "256"]
    assert fit_ab.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["table4, n 256, 2 reps per run; CPU seconds", "round      this   against   ratio"]
    assert [int(line.split()[0]) for line in lines[2:-3]] == [0, 1]
    # the same code on both sides gives the same bits
    assert re.fullmatch(r"median this/against \d+\.\d{3}  this faster in [0-2] of 2 rounds  "
                        r"estimates equal: yes", lines[-3])
    assert_gain_rule(lines[-2:], rounds=2)


def test_fit_ab_runs_every_round_at_the_seed(monkeypatch, capsys):
    # the rounds differ by timing alone: no round draws other data than the others
    fit_ab = load("fit_ab")
    seeds = []

    def timed_run(package, name, seed, reps, n):
        seeds.append((package, seed))
        return 1.0, []
    monkeypatch.setattr(fit_ab, "load_package", lambda checkout, name: name)
    monkeypatch.setattr(fit_ab, "timed_run", timed_run)
    assert fit_ab.main(["--against", str(SCRIPTS.parent), "--rounds", "3", "--seed", "7"]) == 0
    capsys.readouterr()
    assert sorted(seeds) == [("sarfima_against", 7)] * 4 + [("sarfima_this", 7)] * 4


def test_fit_ab_cli_against_this_checkout(capsys):
    fit_ab = load("fit_ab")
    argv = ["--against", str(SCRIPTS.parent), "--cli", "--rounds", "2", "--reps", "1", "--n", "256"]
    assert fit_ab.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["cli chain, n 256, 1 series per run; CPU seconds per series",
                         "round      this   against   ratio"]
    assert [int(line.split()[0]) for line in lines[2:-3]] == [0, 1]
    # every verb's output file has the same bytes on both sides
    assert re.fullmatch(r"median this/against \d+\.\d{3}  this faster in [0-2] of 2 rounds  "
                        r"outputs equal: yes", lines[-3])
    assert_gain_rule(lines[-2:], rounds=2)


def test_seed_sweep_reproduces_the_acceptance_values(capsys):
    sweep = load("seed_sweep")
    assert sweep.main(["--seeds", "20260826,1", "--method", "exact_dl"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[1:3]]
    assert [r[:2] for r in rows] == [["20260826", "exact_dl"], ["1", "exact_dl"]]
    # the values tier-1's acceptance lines print at 20260826: criteria 4, 6 and 7
    assert rows[0][2:] == ["1.363", "1.445", "0.954", "1.022", "-0.051", "0.041", "-0.180", "0.216",
                           "88.5%", ".P."]
    assert re.fullmatch(r"2 seeds, \d+\.\d s", lines[3])
    assert lines[4].startswith("passes exact_dl  criterion 4: 0/2  criterion 6: ")
    assert lines[5].startswith("regression variance ratio exact_dl  0.954-")
    assert len(lines) == 6


def test_seed_sweep_compares_two_samplers(capsys, monkeypatch):
    # the pass counts of criterion 6 over seeds 1-40: 24 under exact_dl, 21 under circulant
    sweep = load("seed_sweep")

    def fake(seed, method):
        six = seed <= (24 if method == "exact_dl" else 21)
        return {"4": {"ratios": [1.4, 1.4], "regression": [1.0, 1.0], "pass": False},
                "6": {"moments": [(-0.1, 0.1), (-0.1, 0.1)], "pass": six},
                "7": {"coverage": 0.85, "pass": False}}

    monkeypatch.setattr(sweep, "sweep_one", fake)
    assert sweep.main(["--seeds", "1-40", "--method", "exact_dl", "--against", "circulant"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 80 + 6
    assert lines[82:85] == ["passes exact_dl  criterion 4: 0/40  criterion 6: 24/40  criterion 7: 0/40",
                            "passes circulant criterion 4: 0/40  criterion 6: 21/40  criterion 7: 0/40",
                            "fisher p         criterion 4: 1  criterion 6: 0.652  criterion 7: 1"]


def test_fit_ab_cold_against_this_checkout(capsys):
    fit_ab = load("fit_ab")
    assert fit_ab.main(["--against", str(SCRIPTS.parent), "--cold", "--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["cold start, 6 commands in fresh processes; CPU seconds of the children",
                         "round      this   against   ratio"]
    assert lines[2].split()[0] == "0"
    assert lines[3].split() == ["command", "this", "against", "ratio", "this", "faster", "in"]
    # per command: both medians, their ratio and the win count of the one round
    assert [line.split()[0] for line in lines[4:-3]] == ["import", "simulate", "mc", "mc_dl", "filter",
                                                         "periodogram"]
    for line in lines[4:-3]:
        assert re.fullmatch(r"\S+ +\d+\.\d{4} +\d+\.\d{4} +\d+\.\d{3}  [01] of 1", line)
    # every file the commands wrote has the same bytes on both sides
    assert re.fullmatch(r"median this/against \d+\.\d{3}  this faster in [01] of 1 rounds  "
                        r"outputs equal: yes", lines[-3])
    assert_gain_rule(lines[-2:], rounds=1)


def test_digest_names_only_the_cli_files_that_differ(monkeypatch):
    # a package whose filter verb adds a trend: its residuals and their ACF
    # change, nothing else, and no verb's exit code does
    digest = load("digest")
    trend = digest.load_package(SCRIPTS.parent, "sarfima_trend")
    cli = importlib.import_module("sarfima_trend.cli")
    filtered = cli.fractional_filter
    monkeypatch.setattr(cli, "fractional_filter", lambda x, *args: filtered(x, *args) + 1e-3 * np.arange(len(x)))
    lines, mismatched = digest.compare_cli(digest.cli_run(trend, 7, 2, 256), digest.cli_run(digest.sarfima, 7, 2, 256))
    assert [line.split() for line in lines] == [["cli", "acf.csv", "differs"], ["cli", "resid.csv", "differs"]]
    assert not mismatched
