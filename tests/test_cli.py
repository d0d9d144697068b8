import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import sarfima
import sarfima.cli as cli
from sarfima import (AcfPacf, BandwidthScan, EstimatorResult, McSummary, MemoryEstimate,
                     Periodogram, SarfimaSpec, ScanRow, SeasonalComponent, SimConfig,
                     WhittleFit, WhittleTemplate, build_band_plan, estimate_to_json,
                     estimates_to_csv, gph_estimate, periodogram, sample_acf_pacf,
                     scan_to_csv, simulate, spec_to_json, summary_to_csv,
                     whittle_estimate, whittle_fit_to_json)
from sarfima.pipeline import acf_to_csv


@pytest.fixture()
def spec_file(tmp_path, two_period_spec):
    path = tmp_path / "spec.json"
    path.write_text(spec_to_json(two_period_spec))
    return str(path)


@pytest.fixture()
def series_file(tmp_path, two_period_spec):
    x = simulate(SimConfig(spec=two_period_spec, n=1080, seed=505))
    path = tmp_path / "x.csv"
    path.write_text("x\n" + "".join(f"{float(v)!r}\n" for v in x))
    return str(path), x


class TestSimulateVerb:
    def test_writes_series_and_sidecar(self, tmp_path, spec_file, two_period_spec):
        out = str(tmp_path / "sim.csv")
        rc = cli.dispatch(["simulate", "--spec", spec_file, "--n", "200",
                           "--seed", "505", "--out", out])
        assert rc == 0
        lines = (tmp_path / "sim.csv").read_text().splitlines()
        assert lines[0] == "x"
        x = simulate(SimConfig(spec=two_period_spec, n=200, seed=505))
        assert lines[1:] == [repr(float(v)) for v in x]
        meta = json.loads((tmp_path / "sim.csv.meta.json").read_text())
        assert sorted(meta) == ["grid_exponent", "method", "n", "seed", "spec"]
        assert meta["seed"] == 505 and meta["n"] == 200
        assert meta["method"] == "exact_dl"
        assert meta["grid_exponent"] is not None
        assert meta["spec"]["components"][0]["period"] == 1

    def test_seed_required(self, tmp_path, spec_file, capsys):
        rc = cli.dispatch(["simulate", "--spec", spec_file, "--n", "100",
                           "--out", str(tmp_path / "y.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad-arguments:")
        assert "--seed" in err

    def test_nonstationary_spec_fails_validation(self, tmp_path, capsys):
        bad = SarfimaSpec(components=(SeasonalComponent(4, 0.3),))
        doc = json.loads(spec_to_json(bad))
        doc["components"][0]["d"] = 0.7
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        rc = cli.dispatch(["simulate", "--spec", str(p), "--n", "100",
                           "--seed", "1", "--out", str(tmp_path / "z.csv")])
        assert rc == 1
        assert "error: nonstationary-spec:" in capsys.readouterr().err

    def test_non_integral_period_rejected(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"components": [{"period": 4.7, "d": 0.3}]}))
        rc = cli.dispatch(["simulate", "--spec", str(p), "--n", "100",
                           "--seed", "1", "--out", str(tmp_path / "z.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: bad-period:")
        assert not (tmp_path / "z.csv").exists()


class TestPeriodogramVerb:
    def test_golden_output(self, tmp_path, series_file):
        path, x = series_file
        out = str(tmp_path / "pg.csv")
        assert cli.dispatch(["periodogram", "--in", path, "--out", out]) == 0
        golden = str(tmp_path / "golden.csv")
        periodogram(x).to_csv(golden)
        assert open(out, "rb").read() == open(golden, "rb").read()

    def test_missing_file(self, tmp_path, capsys):
        rc = cli.dispatch(["periodogram", "--in", str(tmp_path / "nope.csv"),
                           "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "error: io-error:" in capsys.readouterr().err

    def test_headerless_csv_rejected(self, tmp_path, capsys):
        p = tmp_path / "raw.csv"
        p.write_text("1.0\n2.0\n3.0\n")
        rc = cli.dispatch(["periodogram", "--in", str(p),
                           "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "error: malformed-csv:" in capsys.readouterr().err


    @pytest.mark.parametrize("text", ["x,y\n" + "".join(f"{v},{2 * v}\n" for v in range(20)),
                                      "x\n" + "".join(f"{v}\n" for v in range(19)) + "19,0\n"])
    def test_extra_columns_rejected(self, tmp_path, capsys, text):
        p = tmp_path / "two.csv"
        p.write_text(text)
        rc = cli.dispatch(["periodogram", "--in", str(p), "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: malformed-csv:")
        assert not (tmp_path / "o.csv").exists()


class TestEstimateGphVerb:
    def test_stdout_matches_library_json(self, series_file, capsys):
        path, x = series_file
        rc = cli.dispatch(["estimate-gph", "--in", path, "--s1", "1",
                           "--s2", "4", "--alpha", "0.5"])
        assert rc == 0
        pg = periodogram(x)
        plan = build_band_plan(1080, 1, 4, int(1080 ** 0.5))
        est = gph_estimate(pg, plan, 1, 4)
        assert capsys.readouterr().out == estimate_to_json(est) + "\n"

    def test_single_period_gph_T(self, series_file, capsys):
        path, _ = series_file
        rc = cli.dispatch(["estimate-gph", "--in", path, "--s1", "4", "--gph-T"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "gph_single" and doc["m"] == 134

    def test_divisor_violation_exit_code(self, series_file, capsys):
        path, _ = series_file
        rc = cli.dispatch(["estimate-gph", "--in", path, "--s1", "12",
                           "--s2", "5", "--alpha", "0.5"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: s2-not-divisor:")

    def test_exactly_one_bandwidth_flag(self, series_file, capsys):
        path, _ = series_file
        rc = cli.dispatch(["estimate-gph", "--in", path, "--s1", "4",
                           "--alpha", "0.5", "--m", "30"])
        assert rc == 1
        assert "error: bad-arguments:" in capsys.readouterr().err

    def test_uncapped_bandwidth_below_two(self, tmp_path, capsys):
        # floor((n-1)/s') = 0 here; the bandwidth is floored at 1, then rejected
        p = tmp_path / "short.csv"
        p.write_text("x\n" + "".join(f"{v}\n" for v in range(10)))
        rc = cli.dispatch(["estimate-gph", "--in", str(p), "--s1", "12",
                           "--gph-T", "--uncapped"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: m-too-small:")

    def test_uncapped_needs_gph_T(self, series_file, capsys):
        # without --gph-T the flag would switch off the band-overlap guard
        path, _ = series_file
        rc = cli.dispatch(["estimate-gph", "--in", path, "--s1", "4", "--alpha", "0.8",
                           "--uncapped"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad-arguments:")

    def test_out_file(self, tmp_path, series_file):
        path, _ = series_file
        out = str(tmp_path / "est.json")
        rc = cli.dispatch(["estimate-gph", "--in", path, "--s1", "1",
                           "--s2", "4", "--m", "30", "--out", out])
        assert rc == 0
        doc = json.loads(open(out).read())
        assert doc["m"] == 30


class TestEstimateWhittleVerb:
    def test_periods_shorthand(self, series_file, capsys):
        path, x = series_file
        rc = cli.dispatch(["estimate-whittle", "--in", path, "--periods", "1,4"])
        assert rc == 0
        fit = whittle_estimate(x, WhittleTemplate.pure([1, 4]))
        assert capsys.readouterr().out == whittle_fit_to_json(fit) + "\n"

    def test_template_file(self, tmp_path, series_file, two_period_spec, capsys):
        path, _ = series_file
        tdoc = {"spec": json.loads(spec_to_json(two_period_spec)),
                "free_d": [True, True], "d_box": 0.49}
        tpath = tmp_path / "template.json"
        tpath.write_text(json.dumps(tdoc))
        rc = cli.dispatch(["estimate-whittle", "--in", path,
                           "--template", str(tpath)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is True

    @pytest.mark.parametrize("box", ["inf", "nan"])
    def test_non_finite_box_rejected(self, series_file, capsys, box):
        path, _ = series_file
        rc = cli.dispatch(["estimate-whittle", "--in", path, "--periods", "1,4", "--box", box])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad-template:")

    @pytest.mark.parametrize("markers", [{"free_d": [1, 0]}, {"free_d": "ab"},
                                         {"free_d": [True, None]}, {"free_ar": [1]}])
    def test_non_boolean_markers_rejected(self, tmp_path, series_file, two_period_spec,
                                          capsys, markers):
        path, _ = series_file
        spec = json.loads(spec_to_json(two_period_spec))
        spec["ar"] = [{"lag": 4, "coeffs": [0.5]}]
        tpath = tmp_path / "template.json"
        tpath.write_text(json.dumps({"spec": spec, **markers}))
        rc = cli.dispatch(["estimate-whittle", "--in", path, "--template", str(tpath)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad-template:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("patch, code", [
        ({"d_box": "0.3"}, "bad-template"),
        ({"d_box": True}, "bad-template"),
        ({"spec": {"components": [{"period": 4, "d": "0.3"}]}}, "bad-spec-json"),
        ({"spec": {"components": [{"period": 4, "d": 0.3}], "sigma2": True}}, "bad-spec-json"),
        ({"spec": {"components": [{"period": 4, "d": 0.3}],
                   "ar": [{"lag": 4, "coeffs": ["0.5"]}]}}, "bad-spec-json"),
    ])
    def test_non_number_values_rejected(self, tmp_path, series_file, two_period_spec,
                                        capsys, patch, code):
        path, _ = series_file
        tpath = tmp_path / "template.json"
        tpath.write_text(json.dumps({"spec": json.loads(spec_to_json(two_period_spec)), **patch}))
        rc = cli.dispatch(["estimate-whittle", "--in", path, "--template", str(tpath)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: {code}:")

    def test_template_and_periods_conflict(self, tmp_path, series_file, capsys):
        path, _ = series_file
        rc = cli.dispatch(["estimate-whittle", "--in", path,
                           "--periods", "4", "--template", "t.json"])
        assert rc == 1
        assert "error: bad-arguments:" in capsys.readouterr().err

    def test_nonconvergence_exits_2(self, series_file, capsys, monkeypatch):
        path, _ = series_file

        def fake(series, template):
            return WhittleFit(d_hat=np.array([0.0]),
                              short_memory={"ar": [], "ma": [], "sigma2": 1.0},
                              objective=0.0, converged=False, iterations=999,
                              periods=(4,))

        monkeypatch.setattr(cli, "whittle_estimate", fake)
        rc = cli.dispatch(["estimate-whittle", "--in", path, "--periods", "4"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "error: non-convergence:" in captured.err
        # the (unconverged) fit document is still emitted for inspection
        assert json.loads(captured.out)["converged"] is False


class TestFilterScanAcfVerbs:
    def test_filter_round_trip(self, tmp_path, series_file):
        path, x = series_file
        mid = str(tmp_path / "resid.csv")
        back = str(tmp_path / "back.csv")
        assert cli.dispatch(["filter", "--in", path, "--d", "0.1,0.3",
                             "--periods", "1,4", "--out", mid]) == 0
        # leading-dash values need the --flag=value spelling
        assert cli.dispatch(["filter", "--in", mid, "--d=-0.1,-0.3",
                             "--periods", "1,4", "--out", back]) == 0
        restored = np.array([float(v) for v in
                             open(back).read().splitlines()[1:]])
        assert np.max(np.abs(restored - x)) < 1e-7

    def test_scan_golden(self, tmp_path, series_file):
        from sarfima import bandwidth_scan, scan_to_csv
        path, x = series_file
        out = str(tmp_path / "scan.csv")
        assert cli.dispatch(["scan", "--in", path, "--s1", "1", "--s2", "4",
                             "--alphas", "0.4,0.5,0.6", "--out", out]) == 0
        golden = str(tmp_path / "golden.csv")
        scan_to_csv(bandwidth_scan(x, 1, 4, [0.4, 0.5, 0.6]), golden)
        assert open(out, "rb").read() == open(golden, "rb").read()

    def test_acf_golden(self, tmp_path, series_file):
        path, x = series_file
        out = str(tmp_path / "acf.csv")
        assert cli.dispatch(["acf", "--in", path, "--max-lag", "12",
                             "--out", out]) == 0
        golden = str(tmp_path / "golden.csv")
        acf_to_csv(sample_acf_pacf(x, 12), golden)
        assert open(out, "rb").read() == open(golden, "rb").read()


class TestCsvBytes:
    """Header and data rows of every CSV writer, pinned as literal text."""

    def test_writer_formats(self, tmp_path):
        def lines(name):
            return (tmp_path / name).read_text().splitlines()

        cli._write_series(str(tmp_path / "x.csv"), np.array([0.1, -2.5e-07]))
        assert lines("x.csv") == ["x", "0.1", "-2.5e-07"]

        Periodogram(n=4, ordinates=np.array([0.25, 1.5, 0.25])).to_csv(tmp_path / "pg.csv")
        assert lines("pg.csv")[:2] == ["j,lambda,ordinate", "1,1.5707963267948966,0.25"]

        est = MemoryEstimate(d_hat=np.array([0.1, 0.3]),
                             asymptotic_cov=np.array([[0.002, -0.001], [-0.001, 0.004]]),
                             m=32, method="gph_multi", band_count=3, periods=(1, 4))
        scan = BandwidthScan(rows=(ScanRow(alpha=0.1, m=1, error="m-too-small"),
                                   ScanRow(alpha=0.5, m=32, estimate=est)))
        scan_to_csv(scan, tmp_path / "scan.csv")
        assert lines("scan.csv") == ["alpha,m,d1_hat,d2_hat,var_d1,var_d2,error",
                                     "0.1,1,,,,,m-too-small", "0.5,32,0.1,0.3,0.002,0.004,"]

        acf = AcfPacf(lags=np.arange(1, 3), acf=np.array([0.5, 0.25]),
                      pacf=np.array([0.5, -0.125]), band=0.0596)
        acf_to_csv(acf, tmp_path / "acf.csv")
        assert lines("acf.csv")[:2] == ["lag,acf,pacf,band", "1,0.5,0.5,0.0596"]

        summary = McSummary(results=(
            EstimatorResult(name="gph_T", periods=(4,), mean=np.array([0.3017]),
                            mse=np.array([0.00133]), corr=math.nan, failure_count=0,
                            estimates=np.array([[0.3017], [0.25]])),
            EstimatorResult(name="ft", periods=(1, 4), mean=np.array([0.1, 0.3]),
                            mse=np.array([0.002, 0.001]), corr=-0.4812, failure_count=1,
                            estimates=np.array([[0.1, 0.3], [np.nan, np.nan]]))),
            reps=2, n=1080, master_seed=7)
        summary_to_csv(summary, tmp_path / "mc.csv")
        assert lines("mc.csv")[:3] == ["estimator,param,mean,mse,corr",
                                       "gph_T,d1,0.3017,0.00133,", "ft,d1,0.1,0.002,-0.4812"]
        estimates_to_csv(summary, tmp_path / "reps.csv")
        assert lines("reps.csv")[:2] == ["rep,estimator,param,value", "0,gph_T,d1,0.3017"]
        assert lines("reps.csv")[-2:] == ["1,ft,d1,", "1,ft,d2,"]


class TestMcVerb:
    def test_summary_and_dump(self, tmp_path):
        out = str(tmp_path / "mc.csv")
        dump = str(tmp_path / "reps.csv")
        rc = cli.dispatch(["mc", "--design", "table1", "--seed", "7",
                           "--reps", "4", "--out", out,
                           "--dump-estimates", dump])
        assert rc == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "estimator,param,mean,mse,corr"
        assert len(lines) == 5  # four single-parameter estimators
        dlines = open(dump).read().splitlines()
        assert dlines[0] == "rep,estimator,param,value"
        assert len(dlines) == 1 + 4 * 4

    def test_unknown_design(self, tmp_path, capsys):
        rc = cli.dispatch(["mc", "--design", "table7", "--seed", "1",
                           "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "bad-arguments" in capsys.readouterr().err

    def test_seed_required(self, tmp_path, capsys):
        rc = cli.dispatch(["mc", "--design", "table1",
                           "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "--seed" in capsys.readouterr().err


class TestParsing:
    def test_unknown_verb(self, capsys):
        assert cli.dispatch(["frobnicate"]) == 1
        assert "error: bad-arguments:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.dispatch(["--help"])
        assert exc.value.code == 0


class TestRejectedInputs:
    """Each ends in exit 1 and one ``error: <code>:`` line, never a traceback."""

    @staticmethod
    def assert_one_error(capsys, code):
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {code}:")

    @pytest.mark.parametrize("argv", [
        ["estimate-gph", "--s1", "4", "--s2", "0", "--alpha", "0.5"],
        ["estimate-gph", "--s1", "0", "--s2", "4", "--alpha", "0.5"],
        ["estimate-gph", "--s1", "4", "--s2", "-1", "--alpha", "0.5"],
        ["estimate-gph", "--s1", "-4", "--alpha", "0.5"],
        ["estimate-gph", "--s1", "4", "--s2", "0", "--gph-T"],
        ["scan", "--s1", "4", "--s2", "0", "--alphas", "0.5"],
        ["scan", "--s1", "0", "--s2", "4", "--alphas", "0.3,0.5"],
    ])
    def test_bad_period(self, tmp_path, series_file, capsys, argv):
        path, _ = series_file
        out = ["--out", str(tmp_path / "scan.csv")] if argv[0] == "scan" else []
        assert cli.dispatch([argv[0], "--in", path, *argv[1:], *out]) == 1
        self.assert_one_error(capsys, "bad-period")
        assert not (tmp_path / "scan.csv").exists()

    def test_scan_with_non_divisor_periods(self, tmp_path, series_file, capsys):
        path, _ = series_file
        out = tmp_path / "scan.csv"
        assert cli.dispatch(["scan", "--in", path, "--s1", "3", "--s2", "4",
                             "--alphas", "0.3,0.5", "--out", str(out)]) == 1
        self.assert_one_error(capsys, "s2-not-divisor")
        assert not out.exists()

    def test_scan_with_every_row_failed(self, tmp_path, series_file, capsys):
        path, _ = series_file
        out = tmp_path / "scan.csv"
        assert cli.dispatch(["scan", "--in", path, "--s1", "1", "--s2", "4",
                             "--alphas", "0.05,0.09", "--out", str(out)]) == 1
        self.assert_one_error(capsys, "m-too-small")
        # the CSV is still written, with each row's reason
        assert out.read_text().splitlines()[1:] == ["0.05,1,,,,,m-too-small",
                                                    "0.09,1,,,,,m-too-small"]

    @pytest.mark.parametrize("extra,code", [
        (["--n", "1080", "--grid-exponent", "9999"], "bad-grid-exponent"),
        (["--n", "10000000"], "too-large"),
    ])
    def test_simulate_guards(self, tmp_path, spec_file, capsys, extra, code):
        out = tmp_path / "y.csv"
        rc = cli.dispatch(["simulate", "--spec", spec_file, "--seed", "1", *extra,
                           "--out", str(out)])
        assert rc == 1
        self.assert_one_error(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("threads,env", [(["--threads", "-3"], None),
                                             (["--threads", "0"], None),
                                             ([], "abc")])
    def test_mc_bad_workers(self, tmp_path, capsys, monkeypatch, threads, env):
        if env is not None:
            monkeypatch.setenv("SARFIMA_THREADS", env)
        out = tmp_path / "m.csv"
        rc = cli.dispatch(["mc", "--design", "table2", "--seed", "1", "--reps", "2", *threads,
                           "--out", str(out)])
        assert rc == 1
        self.assert_one_error(capsys, "bad-workers")
        assert not out.exists()

    def test_circulant_negative_eigenvalue_exits_2(self, tmp_path, capsys):
        from sarfima import design
        spec = tmp_path / "table5.json"
        spec.write_text(spec_to_json(design("table5", master_seed=1).spec))
        out = tmp_path / "y.csv"
        rc = cli.dispatch(["simulate", "--spec", str(spec), "--n", "64", "--seed", "1",
                           "--method", "circulant", "--out", str(out)])
        assert rc == 2
        self.assert_one_error(capsys, "negative-eigenvalue")
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha(self, series_file, capsys, alpha):
        path, _ = series_file
        rc = cli.dispatch(["estimate-gph", "--in", path, "--s1", "4", "--alpha", alpha])
        assert rc == 1
        self.assert_one_error(capsys, "bad-bandwidth")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("verb", [["acf", "--max-lag", "4"], ["filter", "--d", "0.3", "--periods", "4"]])
    def test_non_finite_series(self, tmp_path, capsys, verb, value):
        p = tmp_path / "x.csv"
        p.write_text("x\n" + "".join(f"{v}\n" for v in range(20)) + f"{value}\n")
        out = tmp_path / "o.csv"
        assert cli.dispatch([verb[0], "--in", str(p), *verb[1:], "--out", str(out)]) == 1
        self.assert_one_error(capsys, "non-finite-input")
        assert not out.exists()

    def test_mc_negative_seed(self, tmp_path, capsys):
        rc = cli.dispatch(["mc", "--design", "table1", "--seed", "-1", "--reps", "2",
                           "--out", str(tmp_path / "m.csv")])
        assert rc == 1
        self.assert_one_error(capsys, "bad-seed")

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "64", "--seed", "1", "--out", "{bad}"],
        ["simulate", "--n", "64", "--seed", "1", "--out", "{sidecar}"],
        ["periodogram", "--out", "{bad}"],
        ["estimate-gph", "--s1", "4", "--alpha", "0.5", "--out", "{bad}"],
        ["estimate-whittle", "--periods", "1,4", "--out", "{bad}"],
        ["filter", "--d", "0.3", "--periods", "4", "--out", "{bad}"],
        ["scan", "--s1", "1", "--s2", "4", "--alphas", "0.5", "--out", "{bad}"],
        ["acf", "--max-lag", "4", "--out", "{bad}"],
        ["mc", "--design", "table1", "--seed", "1", "--reps", "2", "--out", "{bad}"],
        ["mc", "--design", "table1", "--seed", "1", "--reps", "2", "--out", "{ok}",
         "--dump-estimates", "{bad}"],
    ])
    def test_unwritable_output(self, tmp_path, spec_file, series_file, capsys, argv):
        # the sidecar case: the CSV is writable, but <out>.meta.json is a directory
        (tmp_path / "s.csv.meta.json").mkdir()
        paths = {"bad": str(tmp_path / "missing" / "o.csv"), "sidecar": str(tmp_path / "s.csv"),
                 "ok": str(tmp_path / "ok.csv")}
        source = ["--spec", spec_file] if argv[0] == "simulate" else \
            [] if argv[0] == "mc" else ["--in", series_file[0]]
        rc = cli.dispatch([argv[0], *source, *(a.format(**paths) for a in argv[1:])])
        assert rc == 1
        self.assert_one_error(capsys, "io-error")

    def test_mc_too_large(self, tmp_path, capsys):
        rc = cli.dispatch(["mc", "--design", "table2", "--seed", "1", "--reps", "2",
                           "--n", "10000000", "--out", str(tmp_path / "m.csv")])
        assert rc == 1
        self.assert_one_error(capsys, "too-large")


def test_simulate_circulant(tmp_path, spec_file, two_period_spec):
    out = tmp_path / "ce.csv"
    rc = cli.dispatch(["simulate", "--spec", spec_file, "--n", "300", "--seed", "8",
                       "--method", "circulant", "--out", str(out)])
    assert rc == 0
    x = simulate(SimConfig(spec=two_period_spec, n=300, seed=8, method="circulant"))
    assert out.read_text().splitlines()[1:] == [repr(float(v)) for v in x]
    assert json.loads((tmp_path / "ce.csv.meta.json").read_text())["method"] == "circulant"


def test_python_m_sarfima_runs_the_cli():
    src = os.path.dirname(os.path.dirname(sarfima.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-m", "sarfima", "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    assert "estimate-whittle" in done.stdout
