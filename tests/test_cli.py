import importlib
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
from sarfima.errors import ValidationError
from sarfima.pipeline import acf_to_csv
from sarfima.spectrum import resolve_bandwidth, write_csv


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
        assert meta["method"] == "circulant"
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
                                      "x\n" + "".join(f"{v}\n" for v in range(19)) + "19,0\n",
                                      pytest.param("x\n\n  \n", id="header-only"),
                                      pytest.param("x\n1.0\nabc\n2.0\n", id="non-numeric"),
                                      # float() reads both; each series is otherwise long enough
                                      pytest.param("x\n1_000\n" + "1.0\n" * 12, id="digit-group"),
                                      pytest.param("x\n1.0\n\u0663\n" + "2.0\n" * 12, id="non-ascii-digit")])
    def test_extra_columns_rejected(self, tmp_path, capsys, text):
        p = tmp_path / "two.csv"
        p.write_text(text, encoding="utf-8")
        rc = cli.dispatch(["periodogram", "--in", str(p), "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: malformed-csv:")
        assert not (tmp_path / "o.csv").exists()


    @pytest.mark.parametrize("layout", [
        pytest.param(lambda vals: "x\r\n" + "".join(f"{v}\r\n" for v in vals), id="crlf"),
        pytest.param(lambda vals: "x\n\n" + "".join(f"{v}\n\n \n" for v in vals), id="blank-lines"),
        pytest.param(lambda vals: " x\t\n" + "".join(f"  {v}\t \n" for v in vals), id="padded"),
        pytest.param(lambda vals: "d\u00e9bit_1\n" + "".join(f"{v}\n" for v in vals), id="free-text-header"),
    ])
    def test_tolerated_layouts(self, tmp_path, series_file, layout):
        path, x = series_file
        p = tmp_path / "layout.csv"
        p.write_bytes(layout([repr(float(v)) for v in x]).encode())
        out, golden = str(tmp_path / "pg.csv"), str(tmp_path / "golden.csv")
        assert cli.dispatch(["periodogram", "--in", str(p), "--out", out]) == 0
        periodogram(x).to_csv(golden)
        assert open(out, "rb").read() == open(golden, "rb").read()


@pytest.fixture()
def parses(monkeypatch):
    """An empty series memo; returns the list of paths whose text was parsed."""
    monkeypatch.setattr(cli, "_SERIES_MEMO", {})
    calls, parse = [], cli._parse_series

    def counting(path, text):
        calls.append(path)
        return parse(path, text)

    monkeypatch.setattr(cli, "_parse_series", counting)
    return calls


class TestSeriesMemo:
    """``_read_series`` parses each distinct file text once per process."""

    def test_identical_bytes_are_parsed_once(self, tmp_path, series_file, parses):
        path, x = series_file
        twin = tmp_path / "twin.csv"
        twin.write_bytes(open(path, "rb").read())
        reads = [cli._read_series(p) for p in (path, path, str(twin))]
        assert parses == [path]
        assert all(r.tobytes() == x.tobytes() for r in reads)

    def test_changed_bytes_are_parsed_again(self, tmp_path, parses):
        p = tmp_path / "x.csv"
        p.write_text("x\n" + "1.0\n" * 10)
        assert cli._read_series(str(p)).tolist() == [1.0] * 10
        p.write_text("x\n" + "2.0\n" * 10)
        assert cli._read_series(str(p)).tolist() == [2.0] * 10
        assert parses == [str(p), str(p)]

    def test_malformed_file_raises_every_time_naming_its_path(self, tmp_path, parses):
        paths = [str(tmp_path / name) for name in ("a.csv", "b.csv")]
        for path in paths:
            open(path, "w").write("x\n1.0\nabc\n")
        for path in paths + paths:
            with pytest.raises(ValidationError) as err:
                cli._read_series(path)
            assert err.value.code == "malformed-csv" and err.value.message.startswith(path + ":")
        assert parses == paths + paths and cli._SERIES_MEMO == {}

    def test_arrays_are_writable_and_independent(self, series_file, parses):
        path, x = series_file
        first = cli._read_series(path)
        first[:] = 0.0
        second = cli._read_series(path)
        assert second.flags.writeable and second.tobytes() == x.tobytes()
        assert not np.shares_memory(first, second)

    def test_memo_stays_bounded(self, tmp_path, parses):
        for k in range(10):
            p = tmp_path / f"s{k}.csv"
            p.write_text("x\n" + f"{k}.5\n" * 10)
            cli._read_series(str(p))
            assert len(cli._SERIES_MEMO) <= cli._SERIES_MEMO_SIZE
        assert cli._SERIES_MEMO_SIZE == 4 and len(parses) == 10
        # the most recent texts are kept
        cli._read_series(str(tmp_path / "s9.csv"))
        assert len(parses) == 10

    def test_long_texts_are_not_kept(self, tmp_path, parses, monkeypatch):
        monkeypatch.setattr(cli, "_SERIES_MEMO_MAX_CHARS", 20)
        short, long = tmp_path / "short.csv", tmp_path / "long.csv"
        short.write_text("x\n" + "1.5\n" * 4)
        long.write_text("x\n" + "1.5\n" * 5)
        for p in (short, long, short, long):
            assert cli._read_series(str(p)).tolist() == [1.5] * (4 if p == short else 5)
        assert parses == [str(short), str(long), str(long)]
        cli._write_series(str(long), np.ones(5))
        assert list(cli._SERIES_MEMO) == ["x\n" + "1.5\n" * 4]

    def test_written_series_reads_back_without_a_parse(self, tmp_path, parses):
        x = np.array([0.1, -0.0, 5e-324, 1e16, -2.5e-07, 1 / 3, 1e-5, 7.0])
        path = str(tmp_path / "x.csv")
        cli._write_series(path, x)
        expected = x.tobytes()
        x[:] = 1.0   # the caller's array stays its own
        back = cli._read_series(path)
        assert parses == [] and back.tobytes() == expected
        # the remembered array is what a parse of the written text gives
        text = open(path, encoding="utf-8").read()
        assert cli._parse_series(path, text).tobytes() == back.tobytes()

    def test_non_finite_series_is_not_remembered(self, tmp_path, parses, capsys):
        path = str(tmp_path / "x.csv")
        cli._write_series(path, np.array([1.0, np.nan] + [2.0] * 10))
        assert cli._SERIES_MEMO == {}
        assert cli.dispatch(["periodogram", "--in", path, "--out", str(tmp_path / "pg.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: non-finite-input:")

    def test_verb_chain_parses_no_written_file(self, tmp_path, spec_file, parses):
        f = lambda name: str(tmp_path / name)
        for argv in (["simulate", "--spec", spec_file, "--n", "256", "--seed", "3", "--out", f("x.csv")],
                     ["periodogram", "--in", f("x.csv"), "--out", f("pg.csv")],
                     ["filter", "--in", f("x.csv"), "--d", "0.1,0.3", "--periods", "1,4",
                      "--out", f("resid.csv")],
                     ["acf", "--in", f("resid.csv"), "--max-lag", "8", "--out", f("acf.csv")]):
            assert cli.dispatch(argv) == 0
        assert parses == []


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
        assert "error: bad-bandwidth:" in capsys.readouterr().err

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
        assert captured.err.startswith("error: bad-bandwidth:")

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
                                         {"free_d": [True, None]}, {"free_ar": [1]}, {"free_d": 5}])
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


#: (rows, file text) of ``write_csv`` with the header ("a", "b"): no rows, one
#: blank cell, columns mixing types, float edge values, str columns
WRITER_CASES = [
    ([], "a,b\n"),
    ([(None,)], "a,b\n\n"),
    ([("s", 1.5), (None, 2), (3, None), (0.25, np.float64(1 / 3)), (np.float64(-0.0), "t")],
     "a,b\ns,1.5\n,2\n3,\n0.25,0.3333333333333333\n-0.0,t\n"),
    ([(v, None if math.isnan(v) else v) for v in [-0.0, 5e-324, 1e-5, 1e16, math.nan, math.inf]],
     "a,b\n-0.0,-0.0\n5e-324,5e-324\n1e-05,1e-05\n1e+16,1e+16\nnan,\ninf,inf\n"),
    ([("x", "y"), ("", "z")], "a,b\nx,y\n,z\n"),
]


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

        for rows, text in WRITER_CASES:
            write_csv(tmp_path / "t.csv", ("a", "b"), rows)
            assert (tmp_path / "t.csv").read_bytes() == text.encode(), rows

        for n in (8, 9, 1079, 1080):
            pg = periodogram(np.cos(np.arange(n) * 0.7) + np.arange(n) % 3)
            pg.to_csv(tmp_path / "pg.csv")
            expected = "j,lambda,ordinate\n" + "".join(
                f"{j},{float(lam)!r},{float(o)!r}\n"
                for j, lam, o in zip(range(1, n), pg.frequencies, pg.ordinates))
            assert (tmp_path / "pg.csv").read_bytes() == expected.encode(), n

    def test_long_periodogram_cells_are_not_cached(self, tmp_path, monkeypatch):
        import sarfima.spectrum as spectrum
        pg = periodogram(np.cos(np.arange(9) * 0.7))
        pg.to_csv(tmp_path / "cached.csv")
        monkeypatch.setattr(spectrum, "_CACHED_CELLS_MAX_N", 8)
        spectrum._frequency_cells.cache_clear()
        pg.to_csv(tmp_path / "direct.csv")
        assert spectrum._frequency_cells.cache_info().currsize == 0
        assert (tmp_path / "direct.csv").read_bytes() == (tmp_path / "cached.csv").read_bytes()


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

    @pytest.mark.parametrize("method", [None, "circulant", "exact_dl"])
    def test_method_reaches_the_config(self, tmp_path, method):
        from sarfima import design, run_mc, summary_to_csv
        out, ref = tmp_path / "mc.csv", tmp_path / "ref.csv"
        flag = [] if method is None else ["--method", method]
        assert cli.dispatch(["mc", "--design", "table2", "--seed", "7", "--reps", "3", "--n", "256",
                             *flag, "--out", str(out)]) == 0
        summary_to_csv(run_mc(design("table2", master_seed=7, reps=3, n=256,
                                     method=method or "circulant")), ref)
        assert out.read_text() == ref.read_text()

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
        helps = []
        for _ in range(2):   # the parser is reused: help must work on every call
            with pytest.raises(SystemExit) as exc:
                cli.dispatch(["--help"])
            assert exc.value.code == 0
            helps.append(capsys.readouterr().out)
        assert "estimate-whittle" in helps[0] and helps[1] == helps[0]

    def test_parser_built_once(self, tmp_path, series_file):
        cli.build_parser.cache_clear()
        for _ in range(3):
            assert cli.dispatch(["periodogram", "--in", series_file[0],
                                 "--out", str(tmp_path / "pg.csv")]) == 0
        assert cli.build_parser.cache_info()[:2] == (2, 1)   # (hits, misses)

    def test_failed_parse_leaves_the_parser_usable(self, tmp_path, series_file, capsys):
        path, _ = series_file
        out = tmp_path / "pg.csv"
        argv = ["periodogram", "--in", path, "--out", str(out)]
        assert cli.dispatch(argv) == 0
        before = out.read_bytes()
        out.unlink()
        assert cli.dispatch(["periodogram", "--in", path, "--bogus", "--out", str(out)]) == 1
        assert cli.dispatch(["estimate-gph", "--in", path, "--s1", "4", "--alpha", "abc"]) == 1
        assert capsys.readouterr().err.count("error: bad-arguments:") == 2
        assert not out.exists()
        assert cli.dispatch(argv) == 0
        assert out.read_bytes() == before

    def test_no_value_leaks_between_calls(self, series_file, capsys):
        path, x = series_file
        assert cli.dispatch(["estimate-gph", "--in", path, "--s1", "1", "--s2", "4",
                             "--alpha", "0.5"]) == 0
        capsys.readouterr()
        assert cli.dispatch(["estimate-gph", "--in", path, "--s1", "1", "--s2", "4",
                             "--gph-T"]) == 0
        m = resolve_bandwidth(1080, 4, gph_T=True)
        est = gph_estimate(periodogram(x), build_band_plan(1080, 1, 4, m), 1, 4)
        assert est.m == m != int(1080 ** 0.5)
        assert capsys.readouterr().out == estimate_to_json(est) + "\n"


#: a period past the float range
HUGE_PERIOD = 4 * 2 ** 1100


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
        (["--n", "10000000", "--method", "exact_dl"], "too-large"),
        (["--n", "10000000000"], "too-large"),
    ])
    def test_simulate_guards(self, tmp_path, spec_file, capsys, extra, code):
        out = tmp_path / "y.csv"
        rc = cli.dispatch(["simulate", "--spec", spec_file, "--seed", "1", *extra,
                           "--out", str(out)])
        assert rc == 1
        self.assert_one_error(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("method", ["circulant", "exact_dl"])
    @pytest.mark.parametrize("period", [10 ** 8, HUGE_PERIOD])
    def test_simulate_period_past_memory(self, tmp_path, capsys, monkeypatch, method, period):
        # the acvf grid has a node at every pole; past the float range pi / period overflows
        def forbidden(*args, **kwargs):
            raise AssertionError("acvf work started")

        monkeypatch.setattr(importlib.import_module("sarfima.simulate"), "acvf_numeric", forbidden)
        spec, out = tmp_path / "spec.json", tmp_path / "y.csv"
        spec.write_text(json.dumps({"components": [{"period": period, "d": 0.1}]}))
        rc = cli.dispatch(["simulate", "--spec", str(spec), "--n", "100", "--seed", "1",
                           "--method", method, "--out", str(out)])
        assert rc == 1
        self.assert_one_error(capsys, "too-large")
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        {"components": [{"period": 4, "d": 0.3}], "ma_factors": [{"lag": 1, "coeffs": [0.5]}]},
        {"components": [{"period": 4, "d": 0.3, "memory": 0.2}]},
        {"components": [{"period": 4, "d": 0.3}], "ar": [{"lag": 4, "coeffs": [0.5], "sign": -1}]},
    ], ids=["spec", "component", "factor"])
    def test_unknown_spec_key(self, tmp_path, capsys, doc):
        # a misspelt part is refused, not simulated without it
        spec, out = tmp_path / "spec.json", tmp_path / "y.csv"
        spec.write_text(json.dumps(doc))
        rc = cli.dispatch(["simulate", "--spec", str(spec), "--n", "100", "--seed", "1", "--out", str(out)])
        assert rc == 1
        self.assert_one_error(capsys, "bad-spec-json")
        assert not out.exists()

    @pytest.mark.parametrize("patch, code", [
        ({"free_memory": [True]}, "bad-template"),
        ({"spec": {"components": [{"period": 4, "d": 0.3}], "ma_factors": []}}, "bad-spec-json"),
    ], ids=["template", "spec"])
    def test_unknown_template_key(self, tmp_path, series_file, two_period_spec, capsys, patch, code):
        template, out = tmp_path / "template.json", tmp_path / "fit.json"
        template.write_text(json.dumps({"spec": json.loads(spec_to_json(two_period_spec)), **patch}))
        rc = cli.dispatch(["estimate-whittle", "--in", series_file[0], "--template", str(template),
                           "--out", str(out)])
        assert rc == 1
        self.assert_one_error(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("d, periods, code", [
        ("0.1,0.3", "4,4", "duplicate-period"),
        ("0.1,0.2,0.3", "1,4,12", "bad-components"),
        ("0.1,0.3", "1,4,12", "bad-filter"),
        ("nan", "4", "bad-memory"),
        ("0.1,abc", "1,4", "bad-arguments"),
    ])
    def test_filter_codes(self, tmp_path, series_file, capsys, d, periods, code):
        out = tmp_path / "resid.csv"
        rc = cli.dispatch(["filter", "--in", series_file[0], "--d", d, "--periods", periods,
                           "--out", str(out)])
        assert rc == 1
        self.assert_one_error(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("argv, code", [
        (["estimate-gph", "--s1", "4", "--s2", str(HUGE_PERIOD), "--alpha", "0.5"], "band-overlap"),
        (["scan", "--s1", "4", "--s2", str(HUGE_PERIOD), "--alphas", "0.5,0.6"], "band-overlap"),
        # a period >= 2n leaves no Fourier frequency away from a pole
        (["estimate-whittle", "--periods", "4,1000000"], "series-too-short"),
        (["estimate-whittle", "--periods", f"4,{HUGE_PERIOD}"], "series-too-short"),
    ])
    def test_period_past_the_series(self, tmp_path, series_file, capsys, argv, code):
        path, _ = series_file
        out = ["--out", str(tmp_path / "scan.csv")] if argv[0] == "scan" else []
        assert cli.dispatch([argv[0], "--in", path, *argv[1:], *out]) == 1
        self.assert_one_error(capsys, code)

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

    def test_circulant_negative_eigenvalue_exits_2(self, tmp_path, capsys, monkeypatch):
        # table5 at n = 64 draws at x2; with no doubling allowed it has none
        from sarfima import design
        simulate_module = importlib.import_module("sarfima.simulate")   # the package attribute is the function
        monkeypatch.setattr(simulate_module, "_MAX_PADDING_DOUBLINGS", 0)
        simulate_module._SETUP.clear()
        spec = tmp_path / "table5.json"
        spec.write_text(spec_to_json(design("table5", master_seed=1).spec))
        out = tmp_path / "y.csv"
        rc = cli.dispatch(["simulate", "--spec", str(spec), "--n", "64", "--seed", "1",
                           "--method", "circulant", "--out", str(out)])
        assert rc == 2
        self.assert_one_error(capsys, "negative-eigenvalue")
        assert not out.exists()

    @pytest.mark.parametrize("method", ["circulant", "exact_dl"])
    @pytest.mark.parametrize("coeff", [1e308, 1e153])   # the density overflows; its transform overflows
    def test_non_finite_acvf_exits_2(self, tmp_path, capsys, method, coeff):
        # one coded error before any padding doubling or Levinson step, and no RuntimeWarning
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"components": [{"period": 4, "d": 0.2}],
                                    "ma": [{"lag": 1, "coeffs": [coeff]}]}))
        out = tmp_path / "y.csv"
        rc = cli.dispatch(["simulate", "--spec", str(spec), "--n", "256", "--seed", "1",
                           "--method", method, "--out", str(out)])
        assert rc == 2
        self.assert_one_error(capsys, "non-finite-acvf")
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

    @pytest.mark.parametrize("content, argv, code", [
        (b"x\n1.0\n\xff\n", ["periodogram", "--in", "BAD", "--out", "OUT"], "malformed-csv"),
        (b'{"components": [{"period": 4, "d": 0.3}], "note": "\xff"}',
         ["simulate", "--spec", "BAD", "--n", "100", "--seed", "1", "--out", "OUT"], "bad-json"),
        (b'{"spec": {"components": [{"period": 4, "d": 0.3}]}, "note": "\xff"}',
         ["estimate-whittle", "--in", "SERIES", "--template", "BAD", "--out", "OUT"], "bad-json"),
        (b'{"spec": {"components": [{"period": 4, "d": 0.3}]',
         ["estimate-whittle", "--in", "SERIES", "--template", "BAD", "--out", "OUT"], "bad-json"),
        # integers past str()'s 4300 digits, and past the float range
        (b'{"components": [{"period": 4, "d": 1%s}]}' % (b"0" * 5000,),
         ["simulate", "--spec", "BAD", "--n", "100", "--seed", "1", "--out", "OUT"], "bad-json"),
        (b'{"components": [{"period": 4, "d": 1%s}]}' % (b"0" * 400,),
         ["simulate", "--spec", "BAD", "--n", "100", "--seed", "1", "--out", "OUT"], "bad-spec-json"),
        (b'{"spec": {"components": [{"period": 4, "d": 0.3}]}, "d_box": 1%s}' % (b"0" * 400,),
         ["estimate-whittle", "--in", "SERIES", "--template", "BAD", "--out", "OUT"], "bad-template"),
    ], ids=["series", "spec", "template", "template-json", "long-int", "int-past-float", "box-past-float"])
    def test_undecodable_input(self, tmp_path, series_file, capsys, content, argv, code):
        bad, out = tmp_path / "bad", tmp_path / "out"
        bad.write_bytes(content)
        paths = {"BAD": str(bad), "OUT": str(out), "SERIES": series_file[0]}
        assert cli.dispatch([paths.get(a, a) for a in argv]) == 1
        self.assert_one_error(capsys, code)
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

    def test_mc_series_too_short_for_whittle(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        rc = cli.dispatch(["mc", "--design", "table2", "--seed", "1", "--reps", "5",
                           "--n", "60", "--out", str(out)])
        assert rc == 1
        self.assert_one_error(capsys, "series-too-short")
        assert not out.exists()

    def test_mc_unstable_quadrature_exits_2(self, tmp_path, capsys, monkeypatch):
        simulate_module = importlib.import_module("sarfima.simulate")   # the package attribute is the function
        monkeypatch.setattr(simulate_module, "_SELF_CHECK_TOL", 0.0)
        out = tmp_path / "m.csv"
        rc = cli.dispatch(["mc", "--design", "table2", "--seed", "1", "--reps", "2",
                           "--out", str(out)])
        assert rc == 2
        self.assert_one_error(capsys, "quadrature-unstable")
        assert not out.exists()

    def test_mc_too_large(self, tmp_path, capsys):
        # the 8 n^2-byte Durbin-Levinson table
        rc = cli.dispatch(["mc", "--design", "table2", "--seed", "1", "--reps", "2",
                           "--n", "10000000", "--method", "exact_dl", "--out", str(tmp_path / "m.csv")])
        assert rc == 1
        self.assert_one_error(capsys, "too-large")

    def test_mc_too_many_reps(self, tmp_path, capsys):
        # the estimates every replication keeps until the summary
        rc = cli.dispatch(["mc", "--design", "table2", "--seed", "1", "--reps", str(10 ** 12),
                           "--out", str(tmp_path / "m.csv")])
        assert rc == 1
        self.assert_one_error(capsys, "too-large")

    def test_mc_circulant_too_large_before_any_work(self, tmp_path, capsys, monkeypatch):
        # the default sampler's grid has at least 8 n nodes
        def forbidden(*args, **kwargs):
            raise AssertionError("acvf work started")

        monkeypatch.setattr(importlib.import_module("sarfima.simulate"), "acvf_numeric", forbidden)
        rc = cli.dispatch(["mc", "--design", "table2", "--seed", "1", "--reps", "2",
                           "--n", "10000000000", "--out", str(tmp_path / "m.csv")])
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
