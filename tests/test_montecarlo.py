import importlib
import math

import numpy as np
import pytest

from sarfima import (DESIGN_NAMES, EstimatorDef, McConfig, SarfimaSpec,
                     SeasonalComponent, SimConfig, ValidationError,
                     WhittleTemplate, build_band_plan, derive_rep_seed,
                     design, estimates_to_csv, gph_estimate, periodogram,
                     run_mc, simulate, standardized_sample, summary_to_csv,
                     whittle_estimate)


def small_config(reps=6, workers=1, seed=314):
    spec = SarfimaSpec(components=(SeasonalComponent(1, 0.1),
                                   SeasonalComponent(4, 0.3)))
    ests = (EstimatorDef(name="gph", kind="gph_multi", alpha=0.5),
            EstimatorDef(name="ft", kind="whittle",
                         template=WhittleTemplate.pure([1, 4])))
    return McConfig(spec=spec, estimators=ests, reps=reps, n=256,
                    master_seed=seed, workers=workers, self_check=False)


class TestEstimatorDef:
    def test_requires_exactly_one_bandwidth(self):
        with pytest.raises(ValidationError):
            EstimatorDef(name="x", kind="gph_multi")
        with pytest.raises(ValidationError):
            EstimatorDef(name="x", kind="gph_multi", alpha=0.5, m=10)

    def test_whittle_requires_template(self):
        with pytest.raises(ValidationError) as exc:
            EstimatorDef(name="x", kind="whittle")
        assert exc.value.code == "bad-estimator"

    def test_bandwidth_rules(self):
        assert EstimatorDef(name="a", kind="gph_multi", alpha=0.5).bandwidth(1080, 4) == 32
        assert EstimatorDef(name="b", kind="gph_multi", m=40).bandwidth(1080, 4) == 40
        assert EstimatorDef(name="c", kind="gph_single", use_gph_T=True).bandwidth(1080, 4) == 134
        uncapped = EstimatorDef(name="d", kind="gph_single", use_gph_T=True,
                                allow_overlap=True)
        assert uncapped.bandwidth(1080, 4) == 269

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValidationError) as exc:
            EstimatorDef(name="x", kind="gph_multi", alpha=alpha).bandwidth(1080, 4)
        assert exc.value.code == "bad-bandwidth"

    def test_overlap_needs_gph_T(self):
        with pytest.raises(ValidationError) as exc:
            EstimatorDef(name="x", kind="gph_single", alpha=0.8, allow_overlap=True)
        assert exc.value.code == "bad-bandwidth"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            EstimatorDef(name="x", kind="mystery", m=10)

    def test_whittle_refuses_allow_overlap(self):
        with pytest.raises(ValidationError) as exc:
            EstimatorDef(name="x", kind="whittle", template=WhittleTemplate.pure((4,)), allow_overlap=True)
        assert exc.value.code == "bad-estimator"

    @pytest.mark.parametrize("bandwidth", [{"alpha": 0.5}, {"m": 7}, {"use_gph_T": True}, {"alpha": 0.0},
                                           {"use_gph_T": 0}])
    def test_whittle_refuses_a_bandwidth(self, bandwidth):
        with pytest.raises(ValidationError) as exc:
            EstimatorDef(name="x", kind="whittle", template=WhittleTemplate.pure((4,)), **bandwidth)
        assert exc.value.code == "bad-estimator"

    @pytest.mark.parametrize("alpha", ["0.5", True])
    def test_alpha_must_be_a_real_number(self, alpha):
        spec = SarfimaSpec(components=(SeasonalComponent(1, 0.1), SeasonalComponent(4, 0.3)))
        with pytest.raises(ValidationError) as exc:
            McConfig(spec=spec, estimators=(EstimatorDef(name="g", kind="gph_multi", alpha=alpha),),
                     reps=2, n=256, master_seed=1)
        assert exc.value.code == "bad-bandwidth"


class TestMcConfigValidation:
    def test_duplicate_names_rejected(self):
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.3),))
        ests = (EstimatorDef(name="same", kind="gph_single", m=10),
                EstimatorDef(name="same", kind="gph_single", m=20))
        with pytest.raises(ValidationError):
            McConfig(spec=spec, estimators=ests, reps=5, n=256, master_seed=1)

    def test_infeasible_bandwidth_rejected_up_front(self):
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.3),))
        ests = (EstimatorDef(name="huge", kind="gph_single", m=500),)
        with pytest.raises(ValidationError) as exc:
            McConfig(spec=spec, estimators=ests, reps=5, n=256, master_seed=1)
        assert exc.value.code == "band-overlap"

    @pytest.mark.parametrize("m", [3.5, 20.0])
    def test_non_integer_bandwidth_rejected(self, m):
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.3),))
        ests = (EstimatorDef(name="float", kind="gph_single", m=m),)
        with pytest.raises(ValidationError) as exc:
            McConfig(spec=spec, estimators=ests, reps=5, n=256, master_seed=1)
        assert exc.value.code == "bad-bandwidth"

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, None, True])
    def test_master_seed_is_unsigned_64_bit(self, seed):
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.3),))
        ests = (EstimatorDef(name="g", kind="gph_single", m=10),)
        with pytest.raises(ValidationError) as exc:
            McConfig(spec=spec, estimators=ests, reps=5, n=256, master_seed=seed)
        assert exc.value.code == "bad-seed"

    @pytest.mark.parametrize("reps, n, code", [(2.5, 256, "bad-reps"), (True, 256, "bad-reps"),
                                               (0, 256, "bad-reps"), (5, 256.0, "bad-n"),
                                               (5, True, "bad-n")])
    def test_counts_are_integers(self, reps, n, code):
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.3),))
        ests = (EstimatorDef(name="g", kind="gph_single", m=10),)
        with pytest.raises(ValidationError) as exc:
            McConfig(spec=spec, estimators=ests, reps=reps, n=n, master_seed=1)
        assert exc.value.code == code

    def test_needs_an_estimator(self):
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.3),))
        with pytest.raises(ValidationError) as exc:
            McConfig(spec=spec, estimators=(), reps=5, n=256, master_seed=1)
        assert exc.value.code == "bad-estimator"

    def test_gph_single_needs_one_component(self):
        spec = SarfimaSpec(components=(SeasonalComponent(1, 0.1), SeasonalComponent(4, 0.3)))
        ests = (EstimatorDef(name="g", kind="gph_single", m=10),)
        with pytest.raises(ValidationError) as exc:
            McConfig(spec=spec, estimators=ests, reps=5, n=256, master_seed=1)
        assert exc.value.code == "bad-estimator"

    def test_short_whittle_series_rejected_before_any_draw(self, monkeypatch):
        # the Whittle design holds the n >= 64 rule; table2's band OLS designs pass at n = 60
        simulate_module = importlib.import_module("sarfima.simulate")   # the package attribute is the function

        def forbidden(*args, **kwargs):
            raise AssertionError("acvf work started")

        monkeypatch.setattr(simulate_module, "acvf_numeric", forbidden)
        with pytest.raises(ValidationError) as exc:
            design("table2", master_seed=1, reps=5, n=60)
        assert exc.value.code == "series-too-short"
        assert exc.value.message == "Whittle fit needs n >= 64, got 60"

    def test_collinear_band_design_rejected_up_front(self, monkeypatch):
        # the band design holds the rank rule; any tolerance above 1 fails every design
        from sarfima import estimators
        monkeypatch.setattr(estimators, "COLLINEARITY_TOL", 2.0)
        estimators._band_design.cache_clear()
        with pytest.raises(ValidationError) as exc:
            small_config()
        assert exc.value.code == "rank-deficient"

    def test_template_periods_must_match_spec(self):
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.3),))
        ests = (EstimatorDef(name="w", kind="whittle",
                             template=WhittleTemplate.pure([12])),)
        with pytest.raises(ValidationError):
            McConfig(spec=spec, estimators=ests, reps=5, n=256, master_seed=1)


class TestRunMc:
    def test_moment_decomposition(self):
        # mse = bias^2 + population variance, exactly
        summary = run_mc(small_config())
        res = summary.results[0]
        est = res.estimates
        for i, true in enumerate((0.1, 0.3)):
            bias = est[:, i].mean() - true
            pvar = est[:, i].var()
            assert res.mse[i] == pytest.approx(bias ** 2 + pvar, rel=1e-12)
            assert res.mean[i] == pytest.approx(est[:, i].mean(), rel=1e-12)

    def test_correlation_matches_numpy(self):
        summary = run_mc(small_config())
        res = summary.results[0]
        assert res.corr == pytest.approx(np.corrcoef(res.estimates.T)[0, 1], rel=1e-12)

    def test_parallel_equals_serial(self):
        a = run_mc(small_config(reps=8, workers=1))
        b = run_mc(small_config(reps=8, workers=3))
        for ra, rb in zip(a.results, b.results):
            assert np.array_equal(ra.estimates, rb.estimates)

    def test_rep_rows_reproducible_standalone(self):
        cfg = small_config(reps=5)
        summary = run_mc(cfg)
        rep = 3
        x = simulate(SimConfig(spec=cfg.spec, n=cfg.n,
                               seed=derive_rep_seed(cfg.master_seed, rep),
                               grid_exponent=cfg.grid_exponent))
        plan = build_band_plan(cfg.n, 4, 1, int(cfg.n ** 0.5))
        est = gph_estimate(periodogram(x), plan, 1, 4)
        assert np.array_equal(summary.results[0].estimates[rep], est.d_hat)

    def test_same_seed_same_summary(self):
        a = run_mc(small_config(seed=11))
        b = run_mc(small_config(seed=11))
        c = run_mc(small_config(seed=12))
        assert np.array_equal(a.results[0].estimates, b.results[0].estimates)
        assert not np.array_equal(a.results[0].estimates, c.results[0].estimates)

    def test_unstable_quadrature_is_a_coded_error(self, monkeypatch):
        from dataclasses import replace

        from sarfima import NumericError
        simulate_module = importlib.import_module("sarfima.simulate")   # the package attribute is the function
        monkeypatch.setattr(simulate_module, "_SELF_CHECK_TOL", 0.0)
        with pytest.raises(NumericError) as exc:
            run_mc(replace(small_config(), self_check=True))
        assert exc.value.code == "quadrature-unstable"

    @pytest.mark.parametrize("method", ["circulant", "exact_dl"])
    def test_coarse_grid_fails_the_self_check(self, method, monkeypatch):
        # with the node floors lowered, n = 64 at grid exponent 12 leaves a
        # grid of 512 nodes, on which gamma(0..50) moves by 3.4e-5 when the
        # grid is halved; the floors give it 8192 nodes and a shift of 1.5e-15
        from dataclasses import replace

        from sarfima import NumericError
        simulate_module = importlib.import_module("sarfima.simulate")
        whittle = tuple(e for e in small_config().estimators if e.kind == "whittle")   # no band plan at n = 64
        config = replace(small_config(reps=2), estimators=whittle, n=64, grid_exponent=12, method=method,
                         self_check=True)
        monkeypatch.setattr(simulate_module, "_SETUP", {})
        run_mc(config)
        for name in ("_MIN_NODES", "_NODES_PER_LAG", "_NODES_PER_RADIUS"):
            monkeypatch.setattr(simulate_module, name, 1)
        monkeypatch.setattr(simulate_module, "_SETUP", {})
        with pytest.raises(NumericError) as exc:
            run_mc(config)
        assert exc.value.code == "quadrature-unstable"
        assert "grid of 512 nodes" in str(exc.value)

    def test_failure_counts_zero_on_clean_run(self):
        summary = run_mc(small_config())
        assert all(r.failure_count == 0 for r in summary.results)

    def test_csv_outputs(self, tmp_path):
        summary = run_mc(small_config())
        spath, epath = tmp_path / "s.csv", tmp_path / "e.csv"
        summary_to_csv(summary, spath)
        estimates_to_csv(summary, epath)
        slines = spath.read_text().splitlines()
        assert slines[0] == "estimator,param,mean,mse,corr"
        assert len(slines) == 1 + 2 + 2  # two 2-parameter estimators
        # corr repeats on both parameter rows
        assert slines[1].split(",")[4] == slines[2].split(",")[4] != ""
        elines = epath.read_text().splitlines()
        assert elines[0] == "rep,estimator,param,value"
        assert len(elines) == 1 + 2 * 6 * 2


def recorded_run(cfg, monkeypatch):
    """``run_mc(cfg)`` in one worker, and the paths it drew, one row per replication."""
    from dataclasses import replace

    from sarfima import montecarlo
    draw, blocks = montecarlo._paths, []

    def recorded(*args):
        blocks.append(draw(*args))
        return blocks[-1]

    monkeypatch.setattr(montecarlo, "_paths", recorded)
    summary = run_mc(replace(cfg, workers=1))
    return np.concatenate(blocks), summary


class TestBlockBoundary:
    """70 replications cross the boundary of the 64-path solve block."""

    @pytest.fixture(scope="class")
    def serial(self):
        return run_mc(small_config(reps=70))

    @pytest.mark.parametrize("reps", [1, 63, 64, 65])
    def test_prefix_property(self, serial, reps):
        prefix = run_mc(small_config(reps=reps))
        for a, b in zip(prefix.results, serial.results):
            assert np.array_equal(a.estimates, b.estimates[:reps])

    def test_worker_count_invariance(self, serial):
        parallel = run_mc(small_config(reps=70, workers=3))
        for a, b in zip(parallel.results, serial.results):
            assert np.array_equal(a.estimates, b.estimates)

    @pytest.mark.parametrize("n", [256, 257])
    def test_paths_and_estimates_equal_standalone(self, n, monkeypatch):
        from dataclasses import replace
        cfg = replace(small_config(reps=70), n=n)
        paths, summary = recorded_run(cfg, monkeypatch)
        template = cfg.estimators[1].template
        for rep in (0, 1, 63, 64, 69):
            x = simulate(SimConfig(spec=cfg.spec, n=n, seed=derive_rep_seed(cfg.master_seed, rep)))
            assert np.array_equal(paths[rep], x)
            plan = build_band_plan(n, 4, 1, int(n ** 0.5))
            assert np.array_equal(summary.results[0].estimates[rep],
                                  gph_estimate(periodogram(x), plan, 1, 4).d_hat)
            assert np.array_equal(summary.results[1].estimates[rep],
                                  whittle_estimate(x, template).d_hat)


class TestCirculantRun:
    """run_mc with method="circulant" keeps the determinism contract: a row is
    the standalone ``simulate`` path, whatever its block width or worker."""

    @staticmethod
    def config(reps=70, workers=1):
        from dataclasses import replace
        return replace(small_config(reps=reps, workers=workers), method="circulant")

    @pytest.fixture(scope="class")
    def serial(self):
        return run_mc(self.config())

    @pytest.mark.parametrize("width", [1, 7, 64])
    def test_rows_equal_simulate(self, serial, width, monkeypatch):
        from sarfima import montecarlo
        monkeypatch.setattr(montecarlo, "_PATH_BLOCK", width)
        cfg = self.config()
        paths, summary = recorded_run(cfg, monkeypatch)
        for rep in (0, 1, 6, 7, 63, 64, 69):
            x = simulate(SimConfig(spec=cfg.spec, n=cfg.n, method="circulant",
                                   seed=derive_rep_seed(cfg.master_seed, rep)))
            assert paths[rep].tobytes() == x.tobytes()
        assert_same_summary(summary, serial)

    def test_worker_count_invariance(self, serial):
        assert_same_summary(run_mc(self.config(workers=3)), serial)

    @pytest.mark.parametrize("reps", [1, 64, 65])
    def test_prefix_property(self, serial, reps):
        for a, b in zip(run_mc(self.config(reps=reps)).results, serial.results):
            assert a.estimates.tobytes() == b.estimates[:reps].tobytes()


#: series lengths of the replay checks: 256 where the design accepts it, else
#: 568, the shortest series whose n^0.5 bands fit between the harmonics of 12
REPLAY_N = {"table1": 256, "table2": 256, "table3": 568, "table4": 256, "table5": 568}


def assert_same_summary(a, b):
    for x, y in zip(a.results, b.results, strict=True):
        assert x.estimates.tobytes() == y.estimates.tobytes()
        assert np.asarray(x.mean).tobytes() == np.asarray(y.mean).tobytes()
        assert np.asarray(x.mse).tobytes() == np.asarray(y.mse).tobytes()
        assert np.float64(x.corr).tobytes() == np.float64(y.corr).tobytes()
        assert (x.failure_count, x.failure_codes) == (y.failure_count, y.failure_codes)
        assert np.array_equal(x.iterations, y.iterations) if x.iterations is not None \
            else y.iterations is None


@pytest.fixture(scope="module", params=DESIGN_NAMES)
def replayed(request):
    from dataclasses import replace
    config = replace(design(request.param, master_seed=20101125, reps=70, n=REPLAY_N[request.param]),
                     self_check=False)
    return config, run_mc(config)


class TestBlockFit:
    """Each block of paths is fitted at once; a replication's estimates and
    Newton steps are those of the public per-series calls, whatever its block."""

    def test_replications_match_the_public_calls(self, replayed):
        config, summary = replayed
        for rep in (0, 1, 63, 64, 69):
            x = simulate(SimConfig(spec=config.spec, n=config.n,
                                   seed=derive_rep_seed(config.master_seed, rep)))
            pg = periodogram(x)
            for e, res in zip(config.estimators, summary.results):
                if e.kind == "whittle":
                    fit = whittle_estimate(x, e.template)
                    assert fit.iterations == res.iterations[rep]
                    want = fit.d_hat if fit.converged else np.full(len(fit.d_hat), np.nan)
                else:
                    periods = e.result_periods(config.spec)
                    want = gph_estimate(pg, e.band_plan(config.n, config.spec),
                                        periods[0], periods[-1]).d_hat
                assert res.estimates[rep].tobytes() == want.tobytes(), (e.name, rep)

    @pytest.mark.parametrize("width", [1, 7, 32])
    def test_block_width_invariance(self, replayed, width, monkeypatch):
        from sarfima import montecarlo
        config, summary = replayed   # run in blocks of 64
        assert montecarlo._PATH_BLOCK == 64
        monkeypatch.setattr(montecarlo, "_PATH_BLOCK", width)
        assert_same_summary(run_mc(config), summary)

    def test_worker_count_invariance(self, replayed):
        from dataclasses import replace
        config, summary = replayed
        assert_same_summary(run_mc(replace(config, workers=3)), summary)


class TestFailureCodes:
    def test_failed_row_fails_alone(self, monkeypatch):
        """A constant path in the middle of a block fails with its own codes;
        every other replication keeps its bits."""
        from sarfima import montecarlo
        bad = 4
        config = small_config(reps=10)
        clean = run_mc(config)
        draw = montecarlo._paths
        bad_seed = derive_rep_seed(config.master_seed, bad)

        def with_constant_path(spec, n, grid_exponent, method, seeds):
            block = np.array(draw(spec, n, grid_exponent, method, seeds))
            block[[seed == bad_seed for seed in seeds]] = 1.0
            return block

        monkeypatch.setattr(montecarlo, "_paths", with_constant_path)
        serial = run_mc(config)
        from dataclasses import replace
        assert_same_summary(run_mc(replace(config, workers=3)), serial)
        gph, ft = serial.results
        assert (gph.failure_count, gph.failure_codes) == (1, {"zero-ordinate": 1})
        assert (ft.failure_count, ft.failure_codes) == (1, {"zero-periodogram": 1})
        assert ft.iterations[bad] == -1
        keep = np.arange(config.reps) != bad
        for res, ref in zip(serial.results, clean.results):
            assert np.all(np.isnan(res.estimates[bad]))
            assert res.estimates[keep].tobytes() == ref.estimates[keep].tobytes()
        assert np.array_equal(ft.iterations[keep], clean.results[1].iterations[keep])

    @pytest.mark.parametrize("fill", [0.0, np.inf])
    def test_failed_row_of_an_ar_fit_fails_alone(self, fill):
        """With a free AR factor the block also restarts from white noise
        (row 0 of these paths ends on the box).  A vanishing or an
        overflowing periodogram fails with zero-periodogram, and every other
        row is bitwise its one-row fit."""
        from sarfima.estimators import _whittle_fits
        config = design("table4", master_seed=3, reps=1, n=256)
        template = config.estimators[1].template
        xs = [simulate(SimConfig(spec=config.spec, n=256, seed=seed)) for seed in range(5)]
        ordinates = np.array([periodogram(x).ordinates for x in xs])
        ordinates[2] = fill
        fits = _whittle_fits(ordinates, 256, template)
        assert fits.errors[2].code == "zero-periodogram"
        assert (fits.steps[2], fits.converged[2]) == (-1, False)
        assert np.all(np.isnan(fits.theta[2])) and np.all(np.isnan(fits.d_hat[2]))
        for r in (0, 1, 3, 4):
            one = whittle_estimate(xs[r], template)
            assert fits.errors[r] is None
            assert fits.d_hat[r].tobytes() == one.d_hat.tobytes()
            assert (fits.steps[r], fits.converged[r]) == (one.iterations, one.converged)

    def test_nonconvergence_is_counted(self, monkeypatch):
        from dataclasses import replace

        from sarfima import estimators
        monkeypatch.setattr(estimators, "WHITTLE_MAX_STEPS", 1)
        config = small_config(reps=8)
        serial = run_mc(config)
        ft = serial.results[1]
        assert ft.failure_count > 0
        assert ft.failure_codes == {"not-converged": ft.failure_count}
        assert np.all(ft.iterations == 1)
        assert np.isnan(ft.estimates[:, 0]).sum() == ft.failure_count
        assert_same_summary(run_mc(replace(config, workers=3)), serial)

    def test_clean_run_has_no_codes(self):
        summary = run_mc(small_config())
        assert [r.failure_codes for r in summary.results] == [{}, {}]
        gph, ft = summary.results
        assert gph.iterations is None
        assert np.all(ft.iterations > 0)


def blas_threads():
    """The thread count scipy's bundled OpenBLAS reports, or None where it is not loaded."""
    from sarfima.montecarlo import _scipy_openblas
    getter = getattr(_scipy_openblas(), "scipy_openblas_get_num_threads", None)
    return None if getter is None else getter()


class TestWorkerCount:
    """A worker count is a positive integer; anything else is rejected, not coerced."""

    def test_workers_run_one_blas_thread(self):
        import scipy.linalg.blas   # noqa: F401 -- loads scipy's OpenBLAS, as an exact_dl run does
        from sarfima.montecarlo import _worker_pool
        if blas_threads() is None:
            pytest.skip("scipy's bundled OpenBLAS with a thread-count symbol is not loaded")
        with _worker_pool(2) as pool:
            assert pool.submit(blas_threads).result() == 1

    @pytest.mark.parametrize("workers", [0, -3, True, 2.7, "2"])
    def test_bad_argument(self, workers):
        with pytest.raises(ValidationError) as exc:
            small_config(workers=workers)
        assert exc.value.code == "bad-workers"

    @pytest.mark.parametrize("value", ["abc", "0", "-1", "2.5", ""])
    def test_bad_environment(self, value, monkeypatch):
        monkeypatch.setenv("SARFIMA_THREADS", value)
        with pytest.raises(ValidationError) as exc:
            small_config(workers=None)
        assert exc.value.code == "bad-workers"

    def test_good_values(self, monkeypatch):
        from sarfima.montecarlo import _resolve_workers
        monkeypatch.delenv("SARFIMA_THREADS", raising=False)
        assert _resolve_workers(None) == 1
        assert _resolve_workers(np.int64(2)) == 2
        monkeypatch.setenv("SARFIMA_THREADS", "2")
        assert _resolve_workers(None) == 2


class TestStandardizedSample:
    def test_exact_first_two_moments(self, rng):
        z, moments = standardized_sample(rng.standard_normal(500) * 3 + 7)
        assert abs(z.mean()) < 1e-12
        assert abs(z.std() - 1) < 1e-12
        assert set(moments) == {"skewness", "excess_kurtosis"}
        assert moments["skewness"] == pytest.approx(np.mean(z ** 3), rel=1e-12)

    def test_skewness_preserved(self, rng):
        # standardizing an exponential sample keeps its shape moments
        z, moments = standardized_sample(rng.exponential(size=200_000))
        assert moments["skewness"] == pytest.approx(2.0, abs=0.1)
        assert moments["excess_kurtosis"] == pytest.approx(6.0, abs=0.5)

    def test_small_sample_rejected(self, rng):
        with pytest.raises(ValidationError):
            standardized_sample(rng.standard_normal(50))

    def test_constant_sample_rejected(self):
        with pytest.raises(ValidationError):
            standardized_sample(np.full(200, 3.14))


class TestDesigns:
    def test_names(self):
        assert DESIGN_NAMES == ("table1", "table2", "table3", "table4", "table5")

    def test_unknown_design_rejected(self):
        with pytest.raises(ValidationError):
            design("table9", master_seed=1)

    def test_single_period_design_shape(self):
        cfg = design("table1", master_seed=1, reps=10)
        assert cfg.spec.periods == (4,)
        assert cfg.spec.memories == (0.3,)
        assert cfg.n == 1080 and cfg.reps == 10
        names = [e.name for e in cfg.estimators]
        assert names == ["gph_T", "gph_n05", "gph_n03", "ft"]
        assert cfg.estimators[0].use_gph_T

    def test_two_period_design_shape(self):
        cfg = design("table2", master_seed=1, reps=10)
        assert cfg.spec.periods == (1, 4)
        assert cfg.spec.memories == (0.1, 0.3)
        assert [e.name for e in cfg.estimators] == ["gph_n05", "gph_n03", "ft"]

    def test_quarterly_monthly_design(self):
        cfg = design("table3", master_seed=1, reps=10)
        assert cfg.spec.periods == (4, 12)

    def test_short_memory_designs_have_ar(self):
        for name, lag in (("table4", 4), ("table5", 12)):
            cfg = design(name, master_seed=1, reps=10)
            assert cfg.spec.ar_factors[0].lag == lag
            assert cfg.spec.ar_factors[0].coeffs == (0.8,)
            names = [e.name for e in cfg.estimators]
            assert names == ["gph_n05", "ft", "ft_misspec"]
            misspec = cfg.estimators[2].template
            assert misspec.spec.ar_factors == ()
            assert misspec.d_box == pytest.approx(1.45)

    def test_design_estimates_plausible(self):
        summary = run_mc(design("table2", master_seed=77, reps=12))
        ft = summary.results[2]
        assert abs(ft.mean[0] - 0.1) < 0.15
        assert abs(ft.mean[1] - 0.3) < 0.15


def test_estimates_do_not_depend_on_the_design_caches():
    """Warm caches and each cleared cache give the same bits on every design."""
    from dataclasses import replace

    from sarfima import estimators, spectrum
    caches = (spectrum._band_plan, estimators._band_design, estimators._whittle_design,
              estimators._asymptotic_cov)
    for name in DESIGN_NAMES:
        config = replace(design(name, master_seed=271828, reps=3), self_check=False)
        for cache in caches:
            cache.cache_clear()
        first = [r.estimates.tobytes() for r in run_mc(config).results]
        assert [r.estimates.tobytes() for r in run_mc(config).results] == first
        for cache in caches:
            cache.cache_clear()
            assert [r.estimates.tobytes() for r in run_mc(config).results] == first
