import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarfima import (ArmaFactor, Periodogram, SarfimaSpec, SeasonalComponent,
                     SimConfig, ValidationError, WhittleTemplate,
                     asymptotic_cov_matrix, build_band_plan, derive_rep_seed,
                     design, enumerate_poles, estimate_to_json, gph_estimate,
                     periodogram, run_mc, simulate, spectral_density,
                     whittle_estimate, whittle_fit_to_json, DESIGN_NAMES)


def synthetic_periodogram(spec, n):
    """Noise-free ordinates I_j = f(lambda_j): log-linear in the regressors."""
    lam = 2 * np.pi * np.arange(1, n) / n
    folded = np.minimum(lam, 2 * np.pi - lam)  # f is even and 2pi-periodic
    vals = np.array([spectral_density(spec, la) for la in folded])
    return Periodogram(n=n, ordinates=vals)


class TestCovarianceMatrix:
    def test_monthly_quarterly_exact_rationals(self):
        # s' = 12, s2 = 4: Q = 4 [[12, 4], [4, 4]], inverse entries
        # 1/32, -1/32, 3/32 -- all exact binary fractions
        m = 44
        cov = asymptotic_cov_matrix(12, 4, m)
        scale = np.pi ** 2 / (6 * m)
        assert cov[0, 0] == scale * (1 / 32)
        assert cov[0, 1] == scale * (-1 / 32)
        assert cov[1, 0] == scale * (-1 / 32)
        assert cov[1, 1] == scale * (3 / 32)

    def test_caller_order_permutation(self):
        a = asymptotic_cov_matrix(12, 4, 30)
        b = asymptotic_cov_matrix(4, 12, 30)
        assert np.array_equal(b, a[::-1, ::-1])

    def test_quarterly_annual_values(self):
        # s' = 4, s2 = 1: Q = 4 [[4, 1], [1, 1]], Q^-1 = (1/12) [[1, -1], [-1, 4]]
        m = 32
        cov = asymptotic_cov_matrix(4, 1, m)
        scale = np.pi ** 2 / (6 * m)
        assert np.allclose(cov * 12 / scale, [[1, -1], [-1, 4]], atol=1e-15)

    def test_single_period_variance(self):
        cov = asymptotic_cov_matrix(4, None, 134)
        assert cov.shape == (1, 1)
        assert cov[0, 0] == pytest.approx(np.pi ** 2 / (24 * 4 * 134), rel=1e-15)

    def test_divisor_requirement(self):
        with pytest.raises(ValidationError) as exc:
            asymptotic_cov_matrix(12, 5, 30)
        assert exc.value.code == "s2-not-divisor"

    @pytest.mark.parametrize("m", [3.5, 2.0, True, "4", None])
    def test_non_integer_bandwidth_rejected(self, m):
        for s2 in (12, None):
            with pytest.raises(ValidationError) as exc:
                asymptotic_cov_matrix(4, s2, m)
            assert exc.value.code == "bad-bandwidth"

    def test_closed_form_sums_match_the_band_weights(self):
        # the sums of Q as the list of band weights delta_k gave them
        for sp in range(1, 61):
            deltas = [1 if k == 0 or 2 * k == sp else 2 for k in range(sp // 2 + 1)]
            for ss in range(1, sp + 1):
                if sp % ss:
                    continue
                for m in (1, 7, 32):
                    if ss == sp:
                        want = np.array([[math.pi ** 2 / (24 * sp * m)]])
                        assert asymptotic_cov_matrix(sp, None, m).tobytes() == want.tobytes()
                        continue
                    total = sum(deltas)
                    informative = sum(d for k, d in enumerate(deltas) if (k * ss) % sp == 0)
                    q11, q12 = 4 * total, 4 * informative
                    det = q11 * q12 - q12 * q12
                    want = math.pi ** 2 / (6 * m) * np.array([[q12 / det, -q12 / det], [-q12 / det, q11 / det]])
                    assert asymptotic_cov_matrix(sp, ss, m).tobytes() == want.tobytes()
                    assert asymptotic_cov_matrix(ss, sp, m).tobytes() == want[::-1, ::-1].tobytes()

    def test_huge_period_is_closed_form(self):
        # Q = 4 [[2^40, g], [g, g]] with g = gcd(2^40, s2): no list of 2^39 band weights
        for s2, g in ((1, 1), (2 ** 20, 2 ** 20)):
            det = 16 * (2 ** 40 * g - g * g)
            want = math.pi ** 2 / 60 * np.array([[4 * g / det, -4 * g / det], [-4 * g / det, 2 ** 42 / det]])
            assert asymptotic_cov_matrix(2 ** 40, s2, 10).tobytes() == want.tobytes()
        assert asymptotic_cov_matrix(2 ** 2000, None, 10)[0, 0] == 0.0

    def test_numpy_integer_bandwidth_accepted(self):
        assert np.array_equal(asymptotic_cov_matrix(4, 12, np.int64(30)),
                              asymptotic_cov_matrix(4, 12, 30))


class TestGphNoiseFree:
    def test_two_period_exact_recovery(self):
        # with I_j = f(lambda_j) for a pure spec, log I is exactly linear in
        # the two regressors, so the regression is exact
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.3),
                                       SeasonalComponent(12, 0.1)))
        pg = synthetic_periodogram(spec, 1080)
        plan = build_band_plan(1080, 12, 4, 30)
        est = gph_estimate(pg, plan, 4, 12)
        assert abs(est.d_hat[0] - 0.3) < 1e-10
        assert abs(est.d_hat[1] - 0.1) < 1e-10

    def test_single_period_exact_recovery(self):
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.27),))
        pg = synthetic_periodogram(spec, 1080)
        est = gph_estimate(pg, build_band_plan(pg.n, 4, 4, 100), 4, 4)
        assert abs(est.d_hat[0] - 0.27) < 1e-10

    def test_local_centering_absorbs_smooth_factors(self):
        # an ARMA factor perturbs the recovery only at O(m^2/n^2), not exactly
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.3),),
                           ar_factors=(ArmaFactor(1, (0.5,)),))
        pg = synthetic_periodogram(spec, 2160)
        est = gph_estimate(pg, build_band_plan(pg.n, 4, 4, 20), 4, 4)
        assert abs(est.d_hat[0] - 0.3) < 5e-3


class TestGphSampling:
    def test_scale_invariance(self, two_period_path):
        pg1 = periodogram(two_period_path)
        pg2 = periodogram(two_period_path * 123.456)
        plan = build_band_plan(1080, 4, 1, 32)
        a = gph_estimate(pg1, plan, 1, 4)
        b = gph_estimate(pg2, plan, 1, 4)
        assert np.max(np.abs(a.d_hat - b.d_hat)) < 1e-12

    def test_component_order_follows_caller(self, two_period_path):
        pg = periodogram(two_period_path)
        plan = build_band_plan(1080, 4, 1, 32)
        a = gph_estimate(pg, plan, 1, 4)
        b = gph_estimate(pg, plan, 4, 1)
        assert a.periods == (1, 4) and b.periods == (4, 1)
        assert a.d_hat[0] == b.d_hat[1] and a.d_hat[1] == b.d_hat[0]
        assert np.array_equal(a.asymptotic_cov, b.asymptotic_cov[::-1, ::-1])

    def test_estimate_metadata(self, two_period_path):
        pg = periodogram(two_period_path)
        plan = build_band_plan(1080, 4, 1, 32)
        est = gph_estimate(pg, plan, 1, 4)
        assert est.method == "gph_multi"
        assert est.m == 32 and est.band_count == 3
        se = est.standard_errors()
        assert np.allclose(se, np.sqrt(np.diag(est.asymptotic_cov)))

    def test_plan_size_mismatch_rejected(self, two_period_path):
        pg = periodogram(two_period_path)
        plan = build_band_plan(512, 4, 1, 16)
        with pytest.raises(ValidationError) as exc:
            gph_estimate(pg, plan, 1, 4)
        assert exc.value.code == "plan-mismatch"

    def test_one_period_plan_gives_the_single_fit(self, quarterly_path):
        # d_hat = (z.y)/(z.z), with z the band-centred regressor and y = log I
        pg = periodogram(quarterly_path)
        plan = build_band_plan(pg.n, 4, 4, 50)
        est = gph_estimate(pg, plan, 4, 4)
        assert est.method == "gph_single" and est.periods == (4,)
        z, y = [], []
        for band in plan.bands:
            x = -2 * np.log(np.abs(2 * np.sin(4 * np.pi * band.fourier_indices / pg.n)))
            z.append(x - x.mean())
            y.append(np.log(pg.ordinates[band.fourier_indices - 1]))
        z, y = np.concatenate(z), np.concatenate(y)
        assert est.d_hat[0] == pytest.approx(z @ y / (z @ z), rel=1e-12)
        assert np.array_equal(est.asymptotic_cov, asymptotic_cov_matrix(4, None, 50))

    def test_single_near_truth_on_long_path(self, quarterly_path):
        pg = periodogram(quarterly_path)
        est = gph_estimate(pg, build_band_plan(pg.n, 4, 4, 134), 4, 4)
        assert abs(est.d_hat[0] - 0.3) < 4 * est.standard_errors()[0]

    def test_json_fields(self, quarterly_path):
        pg = periodogram(quarterly_path)
        est = gph_estimate(pg, build_band_plan(pg.n, 4, 4, 50), 4, 4)
        doc = json.loads(estimate_to_json(est))
        assert list(doc) == ["method", "d_hat", "cov", "m", "band_count", "periods"]
        assert doc["periods"] == [4]


class TestWhittleTemplate:
    def test_pure_constructor(self):
        t = WhittleTemplate.pure([1, 4])
        assert t.spec.periods == (1, 4)
        assert t.free_d == (True, True)
        assert t.d_box == 0.49

    def test_rejects_all_fixed(self):
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.3),))
        with pytest.raises(ValidationError) as exc:
            WhittleTemplate(spec=spec, free_d=(False,))
        assert exc.value.code == "bad-template"

    def test_rejects_shape_mismatch(self):
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.3),))
        with pytest.raises(ValidationError):
            WhittleTemplate(spec=spec, free_d=(True, True))

    @pytest.mark.parametrize("free_d", [(1,), ("a",), (np.True_,)])
    def test_rejects_non_boolean_markers(self, free_d):
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.3),))
        with pytest.raises(ValidationError) as exc:
            WhittleTemplate(spec=spec, free_d=free_d)
        assert exc.value.code == "bad-template"

    def test_rejects_bad_box(self):
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.3),))
        for box in (0.0, math.inf, math.nan):
            with pytest.raises(ValidationError) as exc:
                WhittleTemplate(spec=spec, d_box=box)
            assert exc.value.code == "bad-template"

    def test_list_markers_fit_like_tuples(self, two_period_path):
        spec = SarfimaSpec(components=(SeasonalComponent(1, 0.0), SeasonalComponent(4, 0.3)),
                           ar_factors=(ArmaFactor(4, (0.5,)),))
        listed = WhittleTemplate(spec=spec, free_d=[True, False], free_ar=[True])
        tupled = WhittleTemplate(spec=spec, free_d=(True, False), free_ar=(True,))
        assert listed == tupled and hash(listed) == hash(tupled)
        a, b = whittle_estimate(two_period_path, listed), whittle_estimate(two_period_path, tupled)
        assert a.d_hat.tobytes() == b.d_hat.tobytes()
        assert (a.objective, a.iterations, a.short_memory) == (b.objective, b.iterations, b.short_memory)


class TestWhittleEstimation:
    def test_recovers_memory_single(self, quarterly_path):
        fit = whittle_estimate(quarterly_path, WhittleTemplate.pure([4]))
        assert fit.converged
        assert abs(fit.d_hat[0] - 0.3) < 0.08
        assert fit.short_memory["sigma2"] == pytest.approx(1.0, abs=0.15)

    def test_recovers_memory_two_periods(self, two_period_path):
        fit = whittle_estimate(two_period_path, WhittleTemplate.pure([1, 4]))
        assert fit.converged
        assert abs(fit.d_hat[0] - 0.1) < 0.12
        assert abs(fit.d_hat[1] - 0.3) < 0.08

    def test_recovers_ar_coefficient(self):
        spec = SarfimaSpec(components=(SeasonalComponent(1, 0.1),),
                           ar_factors=(ArmaFactor(4, (0.8,)),))
        x = simulate(SimConfig(spec=spec, n=2160, seed=555))
        template = WhittleTemplate(spec=spec, free_ar=(True,))
        fit = whittle_estimate(x, template)
        assert fit.converged
        assert abs(fit.short_memory["ar"][0][1][0] - 0.8) < 0.08
        assert abs(fit.d_hat[0] - 0.1) < 0.08

    def test_recovers_ma_factor_with_fixed_memory(self):
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.2),),
                           ma_factors=(ArmaFactor(1, (0.4, -0.2)),))
        x = simulate(SimConfig(spec=spec, n=2160, seed=556))
        template = WhittleTemplate(spec=SarfimaSpec(components=(SeasonalComponent(4, 0.2),),
                                                    ma_factors=(ArmaFactor(1, (0.0, 0.0)),)),
                                   free_d=(False,))
        fit = whittle_estimate(x, template)
        assert fit.converged
        assert fit.d_hat[0] == 0.2
        assert np.allclose(fit.short_memory["ma"][0][1], (0.4, -0.2), atol=0.08)

    def test_zero_periodogram_rejected(self):
        with pytest.raises(ValidationError) as exc:
            whittle_estimate(np.full(128, 3.0), WhittleTemplate.pure([4]))
        assert exc.value.code == "zero-periodogram"

    def test_fixed_memory_stays_fixed(self, two_period_path):
        spec = SarfimaSpec(components=(SeasonalComponent(1, 0.1),
                                       SeasonalComponent(4, 0.3)))
        template = WhittleTemplate(spec=spec, free_d=(False, True))
        fit = whittle_estimate(two_period_path, template)
        assert fit.d_hat[0] == 0.1
        assert fit.d_hat[1] != 0.3

    def test_box_is_respected(self, quarterly_path):
        # true d = 0.3 saturates a 0.2 box; the fit ends on the bound itself
        fit = whittle_estimate(quarterly_path, WhittleTemplate.pure([4], d_box=0.2))
        assert abs(fit.d_hat[0]) <= 0.2

    def test_short_series_rejected(self):
        with pytest.raises(ValidationError) as exc:
            whittle_estimate(np.ones(32), WhittleTemplate.pure([4]))
        assert exc.value.code == "series-too-short"

    def test_objective_is_whittle_value(self, quarterly_path):
        # reported objective equals (1/2n) sum [log f_j + I_j / f_j] at the fit
        fit = whittle_estimate(quarterly_path, WhittleTemplate.pure([4]))
        n = len(quarterly_path)
        pg = periodogram(quarterly_path)
        spec = SarfimaSpec(components=(SeasonalComponent(4, float(fit.d_hat[0])),),
                           innovation_variance=fit.short_memory["sigma2"])
        lam = pg.frequencies
        poles = 2 * np.pi * np.arange(3) / 4  # harmonics of period 4 in [0, pi]
        keep = np.ones(n - 1, bool)
        fold = np.minimum(lam, 2 * np.pi - lam)
        for p in poles:
            keep &= np.abs(fold - p) > np.pi / n
        f = np.array([spectral_density(spec, la) for la in fold[keep]])
        manual = np.sum(np.log(f) + pg.ordinates[keep] / f) / (2 * n)
        assert fit.objective == pytest.approx(manual, rel=1e-9)

    def test_json_fields(self, quarterly_path):
        fit = whittle_estimate(quarterly_path, WhittleTemplate.pure([4]))
        doc = json.loads(whittle_fit_to_json(fit))
        assert list(doc) == ["method", "d_hat", "converged", "objective",
                             "iterations", "periods", "short_memory"]
        assert doc["method"] == "whittle"

    @given(scale=st.floats(0.25, 4.0))
    @settings(max_examples=10, deadline=None)
    def test_memory_estimate_scale_invariant(self, scale, quarterly_path):
        a = whittle_estimate(quarterly_path, WhittleTemplate.pure([4]))
        b = whittle_estimate(quarterly_path * scale, WhittleTemplate.pure([4]))
        assert abs(a.d_hat[0] - b.d_hat[0]) < 1e-5
        assert b.short_memory["sigma2"] == pytest.approx(
            a.short_memory["sigma2"] * scale ** 2, rel=1e-4)


def design_path(name, master, rep):
    """Replication ``rep`` of a canned design at n = 1080, drawn by exact_dl
    (the paths these tests were chosen on), and the design's ``ft`` template."""
    cfg = design(name, master)
    x = simulate(SimConfig(spec=cfg.spec, n=1080, seed=derive_rep_seed(master, rep), method="exact_dl"))
    return x, next(e.template for e in cfg.estimators if e.name == "ft")


def full_spectrum_mask(n, periods):
    """The usable Fourier indices j = 1..n-1: those that fold onto no pole
    of ``periods`` within half a Fourier spacing."""
    lam = 2 * np.pi * np.arange(1, n) / n
    fold = np.minimum(lam, 2 * np.pi - lam)
    keep = np.ones(n - 1, bool)
    pole_spec = SarfimaSpec(components=tuple(SeasonalComponent(s, 0.0) for s in periods))
    for p in enumerate_poles(pole_spec):
        keep &= np.abs(fold - p.frequency) >= np.pi / n - 1e-12
    return keep


def profiled_whittle(x, periods, memories, ar_factors=()):
    """(2n)^-1 sum [ln f + I/f] over the fit's frequencies, sigma^2 profiled out.

    Written out from the spectral shape, independently of whittle_estimate.
    """
    n = len(x)
    pg = periodogram(x)
    keep = full_spectrum_mask(n, periods)
    lam, I = pg.frequencies[keep], pg.ordinates[keep]
    log_g = sum(-2 * d * np.log(np.abs(2 * np.sin(s * lam / 2))) for s, d in zip(periods, memories))
    for lag, coeffs in ar_factors:
        t = 1 - sum(c * np.exp(-1j * lam * lag * p) for p, c in enumerate(coeffs, start=1))
        log_g = log_g - np.log(np.abs(t) ** 2)
    s2 = np.mean(I * np.exp(-log_g))
    return float(np.sum(np.log(s2) + log_g + I * np.exp(-log_g) / s2) / (2 * n))


#: a free AR(2) factor at lag 1, whose stationarity test runs two steps of
#: the step-down recursion: the canned designs' factors have one coefficient
AR2_SPEC = SarfimaSpec(components=(SeasonalComponent(4, 0.3),), ar_factors=(ArmaFactor(1, (1.2, -0.5)),))
AR2_TEMPLATE = WhittleTemplate(spec=SarfimaSpec(components=(SeasonalComponent(4, 0.0),),
                                                ar_factors=(ArmaFactor(1, (0.0, 0.0)),)))


def full_spectrum_derivatives(I, n, periods, theta, factors=()):
    """F = ln mean(I/g) + mean(ln g), its gradient, Hessian and Gauss-Newton
    part at theta = (memories, then the coefficients of each free factor in
    ``factors``, given as (sign, lag, order) with sign -1 for AR and +1 for
    MA), summed over every usable j = 1..n-1 from the derivatives of ln g in
    complex arithmetic: with t = 1 - sum_p c_p z^p, z = exp(-i lag lambda),
    d ln|t|^2 / dc_p = -2 Re(z^p / t) and d2 / dc_p dc_r = -2 Re(z^(p+r) / t^2)."""
    keep = full_spectrum_mask(n, periods)
    lam, I = 2 * np.pi * np.arange(1, n)[keep] / n, I[keep]
    jac = [-2 * np.log(np.abs(2 * np.sin(s * lam / 2))) for s in periods]
    log_g = sum(d * j for d, j in zip(theta, jac)) - math.log(2 * math.pi)
    second = np.zeros((len(theta), len(theta), len(lam)))
    at = len(periods)
    for sign, lag, order in factors:
        c = theta[at:at + order]
        powers = np.exp(-1j * np.outer(lag * np.arange(1, order + 1), lam))
        t = 1 - c @ powers
        log_g = log_g + sign * np.log(np.abs(t) ** 2)
        for p in range(order):
            jac.append(-2 * sign * (powers[p] / t).real)
            for r in range(order):
                second[at + p, at + r] = -2 * sign * (powers[p] * powers[r] / t ** 2).real
        at += order
    jac = np.array(jac)
    w = I * np.exp(-log_g)
    wn = w / w.sum()
    F = math.log(w.mean()) + log_g.mean()
    grad = ((1 / len(w) - wn) * jac).sum(axis=1)
    centred = jac - (wn * jac).sum(axis=1, keepdims=True)
    gauss_newton = (centred[:, None, :] * wn * centred[None, :, :]).sum(axis=2)
    hess = gauss_newton + ((1 / len(w) - wn) * second).sum(axis=2)
    return F, grad, hess, gauss_newton


def stationary_draw(rng, order):
    """Coefficients of a factor of the given order (1 or 2) with its roots
    outside the unit circle: reflection coefficients in (-0.9, 0.9), stepped up."""
    kappa = rng.uniform(-0.9, 0.9, order)
    return kappa if order == 1 else np.array([kappa[0] * (1 - kappa[1]), kappa[1]])


#: a free MA(1) factor at lag 12 next to memories at periods 1 and 4
MA_TEMPLATE = WhittleTemplate(spec=SarfimaSpec(components=(SeasonalComponent(1, 0.0), SeasonalComponent(4, 0.0)),
                                               ma_factors=(ArmaFactor(12, (0.0,)),)))


class TestHalfSpectrumFold:
    """The Whittle sums over j = 1..n-1 run as weighted sums over j <= n/2."""

    # table2's and table4's templates have a pole at pi; periods (1, 3) have
    # none, so an even n keeps j = n/2, the one index of weight 1
    @pytest.mark.parametrize("n", [1079, 1080, 4096])
    @pytest.mark.parametrize("name", ["table2", "table4", "periods13", "ar2", "ma"])
    def test_objective_and_derivatives_match_the_full_sums(self, name, n):
        from sarfima.estimators import _derivatives, _objective, _stationary, _whittle_design
        template = {"periods13": WhittleTemplate.pure((1, 3)), "ar2": AR2_TEMPLATE, "ma": MA_TEMPLATE}.get(name) \
            or next(e.template for e in design(name, 1).estimators if e.name == "ft")
        spec = template.spec
        factors = [(-1, f.lag, len(f.coeffs)) for f in spec.ar_factors] \
            + [(1, f.lag, len(f.coeffs)) for f in spec.ma_factors]
        periods = spec.periods
        wd = _whittle_design(n, template)
        rng = np.random.default_rng(n)
        I = periodogram(rng.standard_normal(n)).ordinates
        I_u = (I[:n // 2][wd.keep] * wd.weight)[None, :]
        for _ in range(4):
            theta = np.concatenate([rng.uniform(-0.45, 0.45, len(periods)),
                                    *(stationary_draw(rng, order) for _, _, order in factors)])
            feasible, state = _stationary(wd, theta[None, :]), _objective(wd, I_u, theta[None, :])
            assert feasible[0]
            got = (state[0][0], *(a[0] for a in _derivatives(wd, state)))
            for g, want in zip(got, full_spectrum_derivatives(I, n, periods, theta, factors)):
                assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [255, 1079, 1080, 4096])
    @pytest.mark.parametrize("periods", [(1, 4), (4, 12), (5,), (2,)])
    def test_weights_count_the_usable_frequencies(self, n, periods):
        from sarfima.estimators import _whittle_design
        wd = _whittle_design(n, WhittleTemplate.pure(periods))
        j = np.arange(1, n // 2 + 1)[wd.keep]
        assert wd.weight.tolist() == [1.0 if 2 * k == n else 2.0 for k in j]
        assert wd.total == wd.weight.sum() == full_spectrum_mask(n, periods).sum()

    # the canned designs' fits by the unfolded sums over j = 1..n-1, to 17 digits
    FROZEN = json.loads((Path(__file__).parent / "data" / "whittle_frozen_n1080.json").read_text())

    @pytest.mark.parametrize("name", DESIGN_NAMES)
    def test_designs_match_frozen_values(self, name):
        from dataclasses import replace
        # the frozen values were computed on exact_dl paths
        config = replace(design(name, master_seed=20101125, reps=16, n=1080, method="exact_dl"),
                         self_check=False)
        for e, res in zip(config.estimators, run_mc(config).results):
            if e.kind == "whittle":
                frozen = self.FROZEN[f"{name}/{e.name}"]
                assert res.iterations.tolist() == frozen["steps"]
                assert np.max(np.abs(res.estimates - np.array(frozen["d_hat"]))) < 1e-10


def t_array_objective(wd, I_u, theta):
    """F and w of the Whittle objective with each free factor's t formed as
    a (rows, 2, K) array of Re t and Im t, squared and summed: the form the
    objective had before it kept |t|^2 alone."""
    from sarfima.estimators import _rows_times
    neg_logg = _rows_times(np.negative(theta[:, :len(wd.jac_d)]), wd.jac_d)
    neg_logg -= wd.base
    for sign, sl, z in wd.factors:
        c = theta[:, sl]
        t = np.empty((len(theta), 2, z.shape[2]))
        np.subtract(1.0, _rows_times(c, z[0]), out=t[:, 0])
        np.negative(_rows_times(c, z[1]), out=t[:, 1])
        neg_logg -= sign * np.log(t[:, 0] * t[:, 0] + t[:, 1] * t[:, 1])
    mean_neg_logg = (neg_logg * wd.weight).sum(axis=1) / wd.total
    w = np.exp(neg_logg, out=neg_logg)
    w *= I_u
    s2 = w.sum(axis=1) / wd.total
    return np.where((s2 > 0) & (s2 < np.inf), np.log(s2) - mean_neg_logg, np.inf), w


class TestFreeFactorArithmetic:
    """A free factor's |t|^2 keeps the bits of (Re t)^2 + (Im t)^2, and its
    ratios z / t come from a closed form that matches exact arithmetic."""

    @pytest.mark.parametrize("n", [256, 1080, 4096])
    @pytest.mark.parametrize("name", ["table4", "table5"])
    def test_objective_is_bitwise_the_t_array_form(self, name, n):
        from sarfima.estimators import _objective, _whittle_design
        template = next(e.template for e in design(name, 1).estimators if e.name == "ft")
        wd = _whittle_design(n, template)
        rng = np.random.default_rng(n)
        ordinates = np.stack([periodogram(rng.standard_normal(n)).ordinates for _ in range(4)])
        I_u = np.ascontiguousarray(ordinates[:, :n // 2][:, wd.keep]) * wd.weight
        edges = [0.9, -0.9, 0.99, -0.99, 0.999, -0.999, 0.0]
        theta = np.column_stack([rng.uniform(-0.45, 0.45, (16, 2)),
                                 edges + rng.uniform(-0.999, 0.999, 16 - len(edges)).tolist()])
        for rows in (slice(0, 4), slice(4, 8), slice(8, 12), slice(12, 16)):
            F, _, w, *_ = _objective(wd, I_u, theta[rows])
            want_F, want_w = t_array_objective(wd, I_u, theta[rows])
            assert F.tobytes() == want_F.tobytes()
            assert w.tobytes() == want_w.tobytes()

    # (lag, coefficients, tolerance): one coefficient near +-1, and an AR(2)
    # factor with reflection coefficients (-0.99, 0.999), a root 1.0005 from
    # the origin.  The largest errors measured at n = 1080 were 2.3e-15 (lag
    # 4) and 8.3e-15 (lag 1) for one coefficient, 9.1e-12 for the AR(2); the
    # tolerances are about twice that.
    @pytest.mark.parametrize("lag, coeffs, tol", [(4, (c,), 1e-14) for c in (0.9, -0.9, 0.99, -0.99, 0.999, -0.999)]
                             + [(1, (0.999,), 2e-14), (4, (-0.99 * (1 - 0.999), 0.999), 2e-11)])
    def test_ratios_match_a_high_precision_reference(self, lag, coeffs, tol):
        # the reference takes the design's float angles p lag lambda as exact
        mpmath = pytest.importorskip("mpmath")
        from sarfima.estimators import _objective, _ratios, _whittle_design
        n, q = 1080, len(coeffs)
        template = WhittleTemplate(spec=SarfimaSpec(components=(SeasonalComponent(4, 0.0),),
                                                    ar_factors=(ArmaFactor(lag, (0.0,) * q),)))
        wd = _whittle_design(n, template)
        (_, _, z), = wd.factors
        lam = 2 * np.pi * np.arange(1, n // 2 + 1)[wd.keep] / n
        angles = np.outer(lag * np.arange(1, q + 1), lam)
        _, _, _, t2, c = _objective(wd, wd.weight[None, :], np.array([[0.1, *coeffs]]))
        res, ims = _ratios(z, t2, c)
        with mpmath.workdps(40):
            for k in range(len(lam)):
                zs = [mpmath.expj(-mpmath.mpf(float(a))) for a in angles[:, k]]
                t = 1 - sum(mpmath.mpf(cp) * zp for cp, zp in zip(coeffs, zs))
                for p in range(q):
                    want = zs[p] / t
                    assert abs(mpmath.mpc(res[p][0, k], ims[p][0, k]) - want) <= tol * abs(want), (k, p)


def misaligned(row):
    """A fresh copy of ``row`` as a one-row block whose data start 8 bytes
    past a 64-byte boundary."""
    buf = np.empty(row.size + 8)
    start = (8 - buf.ctypes.data) % 64 // 8
    out = buf[start:start + row.size]
    out[:] = row
    return out[None, :]


class TestRowInvariance:
    """A one-row Whittle fit is bitwise its row of a block fit."""

    # past 8192 frequencies (numpy's buffer size) a reduction that is not
    # numpy's pairwise row sum, such as an einsum, can round a lone row
    # differently from its block row
    # "design/estimator" names another estimator than ``ft``: table4's
    # ft_misspec is a pure template in the wide box
    @pytest.mark.parametrize("n", [20000, 40000])
    @pytest.mark.parametrize("name", ["table2", "table4", "table5", "table4/ft_misspec"])
    def test_one_row_fit_is_its_block_row_at_large_n(self, name, n):
        from sarfima.estimators import _whittle_fits
        from sarfima.simulate import _paths, default_grid_exponent
        from sarfima.spectrum import _ordinates
        name, _, estimator = name.partition("/")
        config = design(name, master_seed=20101125)
        template = next(e.template for e in config.estimators if e.name == (estimator or "ft"))
        seeds = [derive_rep_seed(20101125, rep) for rep in range(6)]
        ordinates = _ordinates(_paths(config.spec, n, default_grid_exponent(n), "circulant", seeds))
        block = _whittle_fits(ordinates, n, template)
        for r, row in enumerate(ordinates):
            one = _whittle_fits(misaligned(row), n, template)
            assert one.theta[0].tobytes() == block.theta[r].tobytes()
            assert one.steps[0] == block.steps[r]


class TestWhittleOptimum:
    @pytest.mark.parametrize("master, rep, on_box", [
        (777000011, 1, True),
        (777000027, 5, False),
        (777000053, 1, False),
        (777000014, 5, True),
    ])
    def test_ar_template_matches_nelder_mead(self, master, rep, on_box):
        # table4 paths that test the active set: on the first the seasonal
        # memory ends on the box, on the second the descent starts there and
        # must leave it.  The last two have a local minimum on the box and
        # one inside: the descent from the band OLS start ends on the worse
        # one in the third, and releasing the memory before the AR coefficient
        # has converged misses the better one in the fourth.  The reference is
        # the lower of two Nelder-Mead searches of the independent objective,
        # from white noise and from the true parameters; neither alone finds
        # the better minimum on all four paths.
        from scipy.optimize import minimize
        x, template = design_path("table4", master, rep)
        fit = whittle_estimate(x, template)
        assert fit.converged
        assert (fit.d_hat[1] == template.d_box) == on_box
        box = [(-template.d_box, template.d_box)] * 2 + [(-0.999, 0.999)]
        searches = [minimize(lambda p: profiled_whittle(x, (1, 4), p[:2], [(4, p[2:])]), start,
                             method="Nelder-Mead", bounds=box,
                             options={"xatol": 1e-10, "fatol": 1e-15, "maxfev": 10000})
                    for start in ([0.0, 0.0, 0.0], [0.1, 0.3, 0.8])]
        assert all(s.success for s in searches)
        assert fit.objective <= min(s.fun for s in searches) + 1e-9

    @pytest.mark.parametrize("name, rep", [("table2", 0), ("table2", 1), ("table4", 0), ("table4", 1)])
    def test_no_nudge_lowers_the_objective(self, name, rep):
        x, template = design_path(name, 20101125, rep)
        fit = whittle_estimate(x, template)
        assert fit.converged
        periods = template.spec.periods
        ar = fit.short_memory["ar"]
        assert fit.objective == pytest.approx(
            profiled_whittle(x, periods, fit.d_hat, ar), abs=1e-12)
        params = list(fit.d_hat) + [c for _, coeffs in ar for c in coeffs]
        for i in range(len(params)):
            for h in (-1e-4, 1e-4):
                nudged = list(params)
                if i < len(periods):
                    nudged[i] = float(np.clip(nudged[i] + h, -template.d_box, template.d_box))
                elif abs(nudged[i] + h) < 1:   # one-coefficient AR factor: stationary iff |c| < 1
                    nudged[i] += h
                value = profiled_whittle(x, periods, nudged[:len(periods)],
                                         [(ar[0][0], nudged[len(periods):])] if ar else ())
                assert value >= fit.objective - 1e-12, (i, h, value - fit.objective)


def ft_block(name, n, method, master, reps):
    """The ``ft`` template of a canned design (or ``AR2_TEMPLATE`` for "ar2")
    and the periodograms of the first ``reps`` replications' paths."""
    from sarfima.simulate import _paths, default_grid_exponent
    from sarfima.spectrum import _ordinates
    if name == "ar2":
        spec, template = AR2_SPEC, AR2_TEMPLATE
    else:
        config = design(name, master_seed=master)
        spec, template = config.spec, next(e.template for e in config.estimators if e.name == "ft")
    seeds = [derive_rep_seed(master, rep) for rep in range(reps)]
    return template, _ordinates(_paths(spec, n, default_grid_exponent(n), method, seeds))


def two_descents(wd, I_u, theta0):
    """A free-factor fit as two separate descents: one from theta0, then one
    from white noise on the rows that stopped with a memory on the box,
    keeping the lower F (the first on a tie) and the steps of both.  Returns
    the descent's (theta, F, sigma2, converged, steps), the rows that
    restarted and, for each of them, whether the second descent won."""
    from sarfima.estimators import _projected_newton
    theta, F, s2, converged, steps = _projected_newton(wd, I_u, theta0, restart=False)
    again = np.flatnonzero(np.any(np.abs(theta) >= wd.box, axis=1))
    other = _projected_newton(wd, I_u[again], np.zeros((again.size, theta.shape[1])), restart=False)
    steps[again] += other[4]
    better = other[1] < F[again]
    for a, b in zip((theta, F, s2, converged), other):
        a[again[better]] = b[better]
    return (theta, F, s2, converged, steps), again, better


def band_ols_start(monkeypatch):
    """Make free-AR fits start as they did before the Yule-Walker start: at
    the band OLS memories, on or past the box, with each factor at ``arma0``."""
    from sarfima import estimators
    monkeypatch.setattr(estimators, "_yule_walker_start", lambda design, I_u, theta0: theta0)


def stationary_rows(wd, theta):
    """Per row of theta, whether every free factor's companion matrix has
    its eigenvalues inside the unit circle: written independently of the
    estimator's root test."""
    ok = np.ones(len(theta), dtype=bool)
    for _, sl, _ in wd.factors:
        for r, c in enumerate(theta[:, sl]):
            companion = np.eye(len(c), k=-1)
            companion[0] = c
            ok[r] &= np.max(np.abs(np.linalg.eigvals(companion))) < 1
    return ok


class TestFreeFactorDescent:
    """With free AR/MA factors the restart from white noise runs inside the
    one descent, and the line search evaluates F at stationary points only."""

    # (design, n, sampler, master seed, rows where the restart wins, where it loses)
    @pytest.mark.parametrize("name, n, method, master, wins, losses", [
        ("table4", 1080, "exact_dl", 20101125, [4], [2, 11, 12]),
        ("table5", 1080, "exact_dl", 20101125, [], [14]),
        ("table4", 4096, "circulant", 3, [], []),   # no memory ends on the box here
        ("table5", 4096, "circulant", 3, [], [10]),
    ])
    def test_restart_in_place_is_two_separate_descents(self, name, n, method, master, wins, losses,
                                                       monkeypatch):
        from sarfima import estimators
        seen = []
        real = estimators._projected_newton

        def spy(wd, I_u, theta0, restart):
            result = real(wd, I_u, theta0, restart)
            seen.append((wd, I_u, theta0, restart, [a.copy() for a in result]))
            return result

        monkeypatch.setattr(estimators, "_projected_newton", spy)
        template, ordinates = ft_block(name, n, method, master, 16)
        fits = estimators._whittle_fits(ordinates, n, template)
        monkeypatch.undo()
        (wd, I_u, theta0, restart, result), = seen
        assert restart
        want, again, better = two_descents(wd, I_u, theta0)
        for got, expected in zip(result, want):
            assert got.tobytes() == expected.tobytes()
        assert again[better].tolist() == wins
        assert again[~better].tolist() == losses
        assert fits.theta.tobytes() == want[0].tobytes()
        assert fits.steps.tolist() == want[4].tolist()

    @pytest.mark.parametrize("name", ["table4", "table5", "ar2"])
    def test_objective_sees_only_stationary_rows(self, name, monkeypatch):
        from sarfima import estimators
        evaluated, rejected = [], []
        objective, stationary = estimators._objective, estimators._stationary

        def objective_spy(wd, I_u, theta):
            evaluated.append(stationary_rows(wd, theta))
            return objective(wd, I_u, theta)

        def stationary_spy(wd, theta):
            ok = stationary(wd, theta)
            rejected.append(int(np.sum(~ok)))
            return ok

        monkeypatch.setattr(estimators, "_objective", objective_spy)
        monkeypatch.setattr(estimators, "_stationary", stationary_spy)
        template, ordinates = ft_block(name, 1080, "exact_dl", 20101125, 16)
        estimators._whittle_fits(ordinates, 1080, template)
        # from the band OLS start the line search tries points outside the region
        rejected.clear()
        band_ols_start(monkeypatch)
        estimators._whittle_fits(ordinates, 1080, template)
        assert all(ok.all() for ok in evaluated)
        assert sum(rejected) > 0

    @pytest.mark.parametrize("n, method", [(1080, "exact_dl"), (20000, "circulant")])
    def test_ar2_one_row_fit_is_its_block_row(self, n, method):
        from sarfima.estimators import _whittle_fits
        template, ordinates = ft_block("ar2", n, method, 20101125, 6)
        block = _whittle_fits(ordinates, n, template)
        assert block.converged.all()
        for r, row in enumerate(ordinates):
            one = _whittle_fits(misaligned(row), n, template)
            assert one.theta[0].tobytes() == block.theta[r].tobytes()
            assert one.steps[0] == block.steps[r]

    def test_slow_descent_is_allowed_to_finish(self, monkeypatch):
        # from the band OLS start, a memory released where the Hessian is
        # indefinite leaves the row on short Gauss-Newton steps: it was still
        # lowering F at step 100.  The Yule-Walker start reaches the same
        # minimum in a few steps.
        from sarfima.estimators import _whittle_fits
        master = 20101125 * 1_000_000 + 320
        template, ordinates = ft_block("table4", 1080, "circulant", master, 5)
        fit = _whittle_fits(ordinates[4:], 1080, template)
        assert fit.converged[0] and fit.steps[0] <= 15
        assert fit.theta[0] == pytest.approx([0.1275, 0.1996, 0.8298], abs=1e-4)
        band_ols_start(monkeypatch)
        fit = _whittle_fits(ordinates[4:], 1080, template)
        assert fit.converged[0] and fit.steps[0] == 107
        assert fit.theta[0] == pytest.approx([0.1275, 0.1996, 0.8298], abs=1e-4)


def captured_start(monkeypatch, template, ordinates, n):
    """The design, rescaled ordinates and start that ``_whittle_fits`` hands
    to the descent."""
    from sarfima import estimators
    seen = []
    real = estimators._projected_newton

    def spy(wd, I_u, theta0, restart):
        seen.append((wd, I_u, theta0))
        return real(wd, I_u, theta0, restart)

    monkeypatch.setattr(estimators, "_projected_newton", spy)
    estimators._whittle_fits(ordinates, n, template)
    monkeypatch.undo()
    return seen[0]


class TestYuleWalkerStart:
    """A free-AR fit starts inside the box, at the AR coefficients that
    minimise mean(w |t|^2) for the start's memories."""

    @pytest.mark.parametrize("name", ["table4", "table5", "ar2"])
    def test_start_is_stationary_and_solves_yule_walker(self, name, monkeypatch):
        from sarfima.estimators import START_BOX_SHARE, _objective
        template, ordinates = ft_block(name, 1080, "circulant", 20101125, 16)
        wd, I_u, theta0 = captured_start(monkeypatch, template, ordinates, 1080)
        nd = len(wd.jac_d)
        assert np.all(np.abs(theta0[:, :nd]) <= START_BOX_SHARE * template.d_box)
        assert stationary_rows(wd, theta0).all()
        (_, sl, z), = wd.factors
        at_zero = theta0.copy()
        at_zero[:, sl] = 0.0
        w = _objective(wd, I_u, at_zero)[2]
        R = np.concatenate([w.sum(axis=1)[:, None], (w[:, None, :] * z[0]).sum(axis=2)], axis=1) / wd.total
        c = theta0[:, sl]
        if c.shape[1] == 1:
            assert c[:, 0].tolist() == (R[:, 1] / R[:, 0]).tolist()
        else:   # R_0 c_1 + R_1 c_2 = R_1 and R_1 c_1 + R_0 c_2 = R_2
            lhs = np.stack([R[:, 0] * c[:, 0] + R[:, 1] * c[:, 1], R[:, 1] * c[:, 0] + R[:, 0] * c[:, 1]], axis=1)
            assert np.max(np.abs(lhs - R[:, 1:])) <= 1e-14 * np.max(R[:, 0])

    @pytest.mark.parametrize("name", ["table4", "table5", "ar2"])
    def test_one_row_start_is_its_block_row(self, name):
        from sarfima.estimators import _whittle_fits
        template, ordinates = ft_block(name, 1080, "circulant", 20101125, 6)
        block = _whittle_fits(ordinates, 1080, template)
        for r, row in enumerate(ordinates):
            one = _whittle_fits(misaligned(row), 1080, template)
            assert one.theta[0].tobytes() == block.theta[r].tobytes()
            assert one.steps[0] == block.steps[r]

    FROZEN = json.loads((Path(__file__).parent / "data" / "yule_walker_start_n1080.json").read_text())

    @pytest.mark.parametrize("name", ["table4", "table5"])
    def test_start_is_bitwise_the_frozen_solve(self, name, monkeypatch):
        # one AR coefficient: the Levinson step R_1 / R_0 is the 1 x 1 solve's quotient
        template, ordinates = ft_block(name, 1080, "circulant", 20101125, 8)
        theta0 = captured_start(monkeypatch, template, ordinates, 1080)[2]
        assert theta0.tolist() == self.FROZEN[f"{name}/ft"]

    def test_singular_row_keeps_the_spec_coefficients(self, monkeypatch):
        # x_t = cos(pi t / 2) has its power at lambda = pi/2, where
        # cos(4 lambda) = cos(8 lambda) = 1: the Yule-Walker system of an
        # AR(2) factor at lag 4 is exactly singular there, with a first
        # reflection coefficient of 1
        from sarfima.spectrum import _ordinates
        spec = SarfimaSpec(components=(SeasonalComponent(1, 0.0),), ar_factors=(ArmaFactor(4, (0.2, 0.1)),))
        template = WhittleTemplate(spec=spec)
        wave = np.cos(np.pi * np.arange(1080) / 2)
        ordinates = _ordinates(np.stack([wave, np.random.default_rng(7).standard_normal(1080)]))
        block = captured_start(monkeypatch, template, ordinates, 1080)[2]
        alone = captured_start(monkeypatch, template, ordinates[1:], 1080)[2]
        assert block[0, 1:].tolist() == [0.2, 0.1]
        assert block[1].tobytes() == alone[0].tobytes()
        assert whittle_estimate(wave, template).converged

    def test_free_ma_factor_is_left_at_its_start(self, monkeypatch):
        # the start solves for the free AR factor and skips the free MA one
        from sarfima.spectrum import _ordinates
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.1), SeasonalComponent(12, 0.3)))
        x = simulate(SimConfig(spec=spec, n=1080, seed=1))
        template = WhittleTemplate(spec=SarfimaSpec(
            components=(SeasonalComponent(4, 0.0), SeasonalComponent(12, 0.0)),
            ar_factors=(ArmaFactor(4, (0.0,)),), ma_factors=(ArmaFactor(12, (0.0,)),)))
        wd, _, theta0 = captured_start(monkeypatch, template, _ordinates(x[None]), 1080)
        (_, ar, _), = [f for f in wd.factors if f[0] < 0]
        (_, ma, _), = [f for f in wd.factors if f[0] > 0]
        assert theta0[0, ar] != 0.0 and theta0[0, ma] == 0.0
        fit = whittle_estimate(x, template)
        assert fit.converged and fit.iterations == 5


def fixed_log_density(spec, free_d, lam):
    """The part of log g that a template holds fixed at the frequencies lam:
    -log(2 pi), the fixed memories' terms and each fixed AR factor's
    -log|1 - sum c_p exp(-i p lag lambda)|^2, written independently of the
    estimator's design."""
    out = np.full(len(lam), -math.log(2 * math.pi))
    for free, c in zip(free_d, spec.components):
        if not free:
            out += c.memory * -2 * np.log(np.abs(2 * np.sin(c.period * lam / 2)))
    for f in spec.ar_factors:
        t = 1 - sum(cp * np.exp(-1j * p * f.lag * lam) for p, cp in enumerate(f.coeffs, start=1))
        out -= np.log(np.abs(t) ** 2)
    return out


#: a pure template, one with a fixed memory and one with a fixed AR factor: none has a free factor
REGRESSION_TEMPLATES = {
    "pure14": WhittleTemplate.pure((1, 4)),
    "fixed-memory": WhittleTemplate(spec=SarfimaSpec(components=(SeasonalComponent(1, 0.0),
                                                                 SeasonalComponent(4, 0.2))),
                                    free_d=(True, False)),
    "fixed-ar": WhittleTemplate(spec=SarfimaSpec(components=(SeasonalComponent(1, 0.0), SeasonalComponent(4, 0.0)),
                                                 ar_factors=(ArmaFactor(4, (0.5,)),)), free_ar=(False,)),
}


class TestRegressionStart:
    """A template with no free AR/MA factor starts at the weighted
    least-squares fit of log I - base on an intercept and its free
    memories' Jacobian, over the usable frequencies."""

    @pytest.mark.parametrize("n", [1079, 1080])
    @pytest.mark.parametrize("name", sorted(REGRESSION_TEMPLATES))
    def test_start_is_the_dense_least_squares_fit(self, name, n, monkeypatch):
        template = REGRESSION_TEMPLATES[name]
        ordinates = ft_block("table2", n, "circulant", 20101125, 8)[1]
        wd, _, theta0 = captured_start(monkeypatch, template, ordinates, n)
        lam = 2 * np.pi * np.arange(1, n // 2 + 1)[wd.keep] / n
        root = np.sqrt(wd.weight)
        free = [c.period for c, f in zip(template.spec.components, template.free_d) if f]
        X = np.column_stack([np.ones(len(lam)), *(-2 * np.log(np.abs(2 * np.sin(s * lam / 2))) for s in free)])
        y = np.log(ordinates[:, :n // 2][:, wd.keep]) - fixed_log_density(template.spec, template.free_d, lam)
        for r in range(len(ordinates)):
            want = np.linalg.lstsq(X * root[:, None], y[r] * root, rcond=None)[0][1:]
            assert theta0[r] == pytest.approx(want, abs=1e-12, rel=0)

    def test_zero_ordinate_row_starts_at_zero_and_converges(self, monkeypatch):
        from sarfima.estimators import _whittle_fits
        template, ordinates = ft_block("table2", 1080, "circulant", 20101125, 4)
        ordinates = ordinates.copy()
        ordinates[1, 10] = 0.0   # I_11: a usable frequency
        theta0 = captured_start(monkeypatch, template, ordinates, 1080)[2]
        assert theta0[1].tolist() == [0.0, 0.0]
        assert np.all(theta0[[0, 2, 3]] != 0.0)
        with np.errstate(all="raise"):
            fits = _whittle_fits(ordinates, 1080, template)
        assert fits.errors == [None] * 4 and fits.converged.all() and fits.steps[1] > 0
        one = _whittle_fits(misaligned(ordinates[1]), 1080, template)
        assert one.theta[0].tobytes() == fits.theta[1].tobytes()

    def test_flat_memory_column_starts_at_zero(self):
        # at n = 128 the usable frequencies of period 64 are the odd j, where
        # |2 sin(64 lambda / 2)| = 2: its column of J is flat, its Gram matrix 0
        from sarfima.estimators import _whittle_design
        template = WhittleTemplate.pure((64,))
        assert _whittle_design(128, template).start_inv.tolist() == [[0.0]]
        with np.errstate(all="raise"):
            fit = whittle_estimate(np.random.default_rng(3).standard_normal(128), template)
        assert fit.d_hat.tolist() == [0.0] and fit.converged

    def test_design_holds_one_start(self):
        from sarfima.estimators import _whittle_design
        wd = _whittle_design(1080, WhittleTemplate.pure((1, 4)))
        assert wd.start is None
        for array in (wd.start_jac, wd.start_inv):
            with pytest.raises(ValueError):
                array[0, 0] = 0
        ar = _whittle_design(1080, AR2_TEMPLATE)
        assert ar.start is not None and ar.start_jac is None and ar.start_inv is None

    def test_block_fits_hash_the_same_under_one_and_two_blas_threads(self):
        # the start and the descent use no BLAS product: a table2 and a table4
        # block fit at n = 16 384 have the same bits with one and two threads
        import os
        import subprocess
        import sys
        src = os.path.dirname(os.path.dirname(__import__("sarfima").__file__))
        hashes = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
            done = subprocess.run([sys.executable, "-c", BLOCK_HASH], env=env, capture_output=True, text=True,
                                  timeout=300, check=True)
            hashes.append(done.stdout.split())
        assert len(hashes[0]) == 4 and hashes[0] == hashes[1]


#: prints the SHA-256 of table2's and table4's ordinates, then of each
#: design's block of Whittle fits, at n = 16 384
BLOCK_HASH = """
import hashlib
from sarfima import derive_rep_seed, design
from sarfima.estimators import _whittle_fits
from sarfima.simulate import _paths, default_grid_exponent
from sarfima.spectrum import _ordinates
n = 16384
for name in ("table2", "table4"):
    config = design(name, master_seed=20101125)
    seeds = [derive_rep_seed(20101125, rep) for rep in range(6)]
    ordinates = _ordinates(_paths(config.spec, n, default_grid_exponent(n), "circulant", seeds))
    fits = hashlib.sha256()
    for e in config.estimators:
        if e.kind == "whittle":
            block = _whittle_fits(ordinates, n, e.template)
            fits.update(block.theta.tobytes() + block.steps.tobytes())
    print(hashlib.sha256(ordinates.tobytes()).hexdigest(), fits.hexdigest())
"""


class TestDesignCache:
    """The data-free halves of both estimators are built once and shared read-only."""

    def test_band_regressors_are_read_only(self, two_period_path):
        from sarfima.estimators import _band_design
        plan = build_band_plan(1080, 1, 4, 32)
        gph_estimate(periodogram(two_period_path), plan, 1, 4)
        band = _band_design(plan, (1, 4))
        for array in (band.positions, *band.zs):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_whittle_design_is_read_only(self, two_period_path):
        from sarfima.estimators import _whittle_design
        spec = SarfimaSpec(components=(SeasonalComponent(1, 0.0), SeasonalComponent(4, 0.0)),
                           ar_factors=(ArmaFactor(4, (0.5,)),), ma_factors=(ArmaFactor(1, (0.2,)),))
        template = WhittleTemplate(spec=spec, free_ma=(False,))
        whittle_estimate(two_period_path, template)
        wd = _whittle_design(1080, template)
        for array in (wd.keep, wd.weight, wd.jac_d, wd.jac_stack, wd.jac_mean, wd.base, wd.box,
                      *(z for _, _, z in wd.factors)):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_covariance_is_read_only(self):
        with pytest.raises(ValueError):
            asymptotic_cov_matrix(4, 12, 30)[0, 0] = 0.0

    def test_failing_design_raises_on_every_call(self):
        # at n = 64 every Fourier frequency is a harmonic of period 64
        short = np.random.default_rng(5).standard_normal(64)
        template = WhittleTemplate.pure((64,))
        for _ in range(3):
            with pytest.raises(ValidationError) as exc:
                whittle_estimate(short, template)
            assert exc.value.code == "series-too-short"
