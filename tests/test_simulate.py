import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarfima import (ArmaFactor, NumericError, SarfimaSpec, SeasonalComponent,
                     SimConfig, ValidationError, acvf_numeric, acvf_self_check,
                     default_grid_exponent, derive_rep_seed,
                     durbin_levinson_decompose, simulate)
from sarfima import McConfig, design, run_mc
from sarfima.simulate import (MAX_GRID_EXPONENT, _SETUP, _circulant_paths, _dl_paths, _embedding_half,
                              _sampler_setup, _seed_rng, _zeta)


def arfima_acvf(d, sigma2, lags):
    """gamma(h) = sigma2 Gamma(1-2d) Gamma(h+d) / (Gamma(d) Gamma(1-d) Gamma(h+1-d))."""
    out = []
    for h in lags:
        if d == 0.0:
            out.append(sigma2 if h == 0 else 0.0)
            continue
        log = (math.lgamma(1 - 2 * d) + math.lgamma(h + d)
               - math.lgamma(d) - math.lgamma(1 - d) - math.lgamma(h + 1 - d))
        sign = 1.0 if d > 0 else math.copysign(1.0, math.gamma(h + d) / math.gamma(d))
        out.append(sigma2 * sign * math.exp(log))
    return np.array(out)


class NanRng:
    """A generator whose normals hold a NaN."""

    def standard_normal(self, size, out):
        out[:] = 0.0
        out[3] = np.nan
        return out


def simulate_module():
    import importlib
    return importlib.import_module("sarfima.simulate")   # the package attribute is the function


class TestAcvfNumeric:
    def test_arfima_closed_form(self):
        d = 0.3
        spec = SarfimaSpec(components=(SeasonalComponent(1, d),))
        got = acvf_numeric(spec, 60)
        expect = arfima_acvf(d, 1.0, range(61))
        assert np.max(np.abs(got - expect) / np.abs(expect)) < 1e-6

    def test_seasonal_embedding_of_closed_form(self):
        # (1 - B^4)^-d noise has gamma(4k) = gamma_ARFIMA(k) and 0 between
        d = 0.3
        spec = SarfimaSpec(components=(SeasonalComponent(4, d),))
        got = acvf_numeric(spec, 40)
        expect = np.zeros(41)
        expect[::4] = arfima_acvf(d, 1.0, range(11))
        off = np.ones(41, bool)
        off[::4] = False
        assert np.max(np.abs(got[::4] - expect[::4]) / np.abs(expect[::4])) < 1e-6
        assert np.max(np.abs(got[off])) < 1e-8

    def test_ar1_closed_form(self):
        phi, s2 = 0.8, 1.7
        spec = SarfimaSpec(components=(SeasonalComponent(1, 0.0),),
                           ar_factors=(ArmaFactor(1, (phi,)),),
                           innovation_variance=s2)
        got = acvf_numeric(spec, 20)
        expect = s2 * phi ** np.arange(21) / (1 - phi * phi)
        assert np.max(np.abs(got - expect)) < 1e-9

    def test_white_noise(self):
        spec = SarfimaSpec(components=(SeasonalComponent(1, 0.0),),
                           innovation_variance=2.5)
        got = acvf_numeric(spec, 10)
        assert got[0] == pytest.approx(2.5, rel=1e-12)
        assert np.max(np.abs(got[1:])) < 1e-10

    def test_ma_factor(self):
        theta = 0.4  # X_t = e_t - theta e_{t-1}
        spec = SarfimaSpec(components=(SeasonalComponent(1, 0.0),),
                           ma_factors=(ArmaFactor(1, (theta,)),))
        got = acvf_numeric(spec, 5)
        assert got[0] == pytest.approx(1 + theta ** 2, rel=1e-10)
        assert got[1] == pytest.approx(-theta, rel=1e-10)
        assert np.max(np.abs(got[2:])) < 1e-10

    def test_two_period_against_tanh_sinh_oracle(self):
        # frozen 30-digit tanh-sinh quadrature of 2 int_0^pi f cos(h lam),
        # split at the poles {0, pi/2, pi} (mpmath.quad, maxdegree 12)
        spec = SarfimaSpec(components=(SeasonalComponent(1, 0.1),
                                       SeasonalComponent(4, 0.3)))
        oracle = {0: 1.5827719390079782992,
                  1: 0.39212143900528489984,
                  4: 0.84145211456627481629,
                  7: 0.30903217664820145937}
        got = acvf_numeric(spec, 8)
        for h, val in oracle.items():
            assert got[h] == pytest.approx(val, rel=1e-6)

    def test_matches_large_lag_asymptote(self):
        from sarfima import asymptotic_acvf
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.3),))
        got = acvf_numeric(spec, 1000, grid_exponent=17)
        assert got[1000] == pytest.approx(asymptotic_acvf(spec, 1000), rel=1e-3)

    # at 32767 lags, 8 nodes per lag fill the grid exponent's 2^18-node floor
    @pytest.mark.parametrize("period, d, n", [(period, d, n) for period in (1, 4)
                                              for d in (0.1, 0.3, 0.45) for n in (1080, 4096)]
                             + [(1, 0.45, 32768)])
    def test_every_lag_matches_closed_form(self, period, d, n):
        # (1 - B^s)^-d noise has gamma(s k) = gamma_ARFIMA(k) and 0 between
        spec = SarfimaSpec(components=(SeasonalComponent(period, d),))
        got = acvf_numeric(spec, n - 1, default_grid_exponent(n))
        expect = np.zeros(n)
        expect[::period] = arfima_acvf(d, 1.0, range(len(expect[::period])))
        assert np.max(np.abs(got - expect)) < 1e-10 * expect[0]

    @pytest.mark.parametrize("n", [1080, 4096])
    @pytest.mark.parametrize("name", ["table1", "table2", "table3", "table4", "table5"])
    def test_design_acvf_converged_in_grid(self, name, n):
        spec = design(name, 1, reps=1).spec
        g = default_grid_exponent(n)
        got = acvf_numeric(spec, n - 1, g)
        finer = acvf_numeric(spec, n - 1, g + 2)
        assert np.max(np.abs(got - finer)) < 1e-10 * got[0]

    # frozen to 17 digits from a Gauss-Jacobi panel quadrature of the same
    # integral; the seasonal AR factor's roots lie at radius 0.8^(-1/lag),
    # beside the period-lag poles, and table5's odd lags are 0 up to its error
    FROZEN_AR = {
        "table4": {0: 17.968315243189956, 1: 7.3581837942524526, 4: 17.42829059757867,
                   11: 7.0759534029334219, 12: 15.955851681108893, 13: 7.0212579375184898,
                   100: 8.8517635790114113, 1079: 3.4104951665885044},
        "table5": {0: 19.514401464060899, 1: -9.6543044825897484e-12, 4: 8.9683224460906175,
                   11: -9.6506713211097495e-12, 12: 18.974128442986675,
                   13: -9.6556083441223794e-12, 100: 7.8008185978564901,
                   1079: -9.6836781587970443e-12},
    }

    @pytest.mark.parametrize("name", ["table4", "table5"])
    def test_seasonal_ar_design_matches_frozen_values(self, name):
        got = acvf_numeric(design(name, 1, reps=1).spec, 1079, default_grid_exponent(1080))
        frozen = self.FROZEN_AR[name]
        for h, val in frozen.items():
            assert abs(got[h] - val) < 1e-10 * frozen[0]

    # poles 2 pi / 365 apart, and AR roots 0.0019 and 0.0025 from the real
    # axis: each is nearer a pole than the default Chebyshev fit radius; an
    # AR(1) with a subnormal second coefficient, whose roots overflow np.roots
    @pytest.mark.parametrize("period, d, ar", [(365, 0.3, ()), (1, 0.0, (ArmaFactor(365, (0.5,)),)),
                                               (1, 0.0, (ArmaFactor(12, (0.97,)),)),
                                               (1, 0.0, (ArmaFactor(1, (0.5, 1e-320)),))])
    def test_long_seasons_match_closed_forms(self, period, d, ar):
        # (1 - B^s)^-d noise has gamma(s k) = gamma_ARFIMA(k), and
        # X_t = phi X_{t-L} + e_t has gamma(L k) = phi^k / (1 - phi^2), 0 between
        spec = SarfimaSpec(components=(SeasonalComponent(period, d),), ar_factors=ar)
        got = acvf_numeric(spec, 1079, default_grid_exponent(1080))
        step = ar[0].lag if ar else period
        expect = np.zeros(1080)
        k = np.arange(len(expect[::step]))
        expect[::step] = ar[0].coeffs[0] ** k / (1 - ar[0].coeffs[0] ** 2) if ar else arfima_acvf(d, 1.0, k)
        assert np.max(np.abs(got - expect)) < 1e-10 * expect[0]

    @pytest.mark.parametrize("name", ["table1", "table2", "table3", "table5"])
    def test_grid_exponent_above_21_changes_nothing(self, name):
        spec = design(name, 1, reps=1).spec
        assert np.array_equal(acvf_numeric(spec, 50, 21), acvf_numeric(spec, 50, MAX_GRID_EXPONENT))

    def test_self_check_passes_on_stationary_spec(self, two_period_spec):
        acvf_self_check(two_period_spec, grid_exponent=17)

    def test_rejects_nonstationary(self):
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.55),))
        with pytest.raises(ValidationError):
            acvf_numeric(spec, 10)


class TestSelfCheck:
    """The halving check compares gamma(0..50) on the grid that a set-up was
    built on with gamma on half its nodes, so it checks the grid in use."""

    @staticmethod
    def evaluations(monkeypatch, config):
        """(max_lag, nodes) of each autocovariance that ``run_mc(config)`` evaluates."""
        sim = simulate_module()
        seen, acvf = [], sim._acvf

        def spy(spec, max_lag, nodes):
            seen.append((max_lag, nodes))
            return acvf(spec, max_lag, nodes)

        monkeypatch.setattr(sim, "_acvf", spy)
        _SETUP.clear()
        run_mc(config)
        return seen

    @staticmethod
    def sampler_shift(spec, n):
        """The halving shift on the grid of the circulant set-up at length n, as ``run_mc`` checks it."""
        _, nodes, head = _sampler_setup(spec, n, default_grid_exponent(n), "circulant")
        return simulate_module()._halving_shift(spec, head, nodes)

    @pytest.mark.parametrize("n", [1, 16, 40, 1080])
    def test_set_up_acvf_is_bitwise_the_public_one(self, n):
        # a short set-up evaluates 51 lags for the check; the lags it uses keep their bits
        spec = design("table5", master_seed=1).spec
        g = default_grid_exponent(n)
        gamma, _, head = simulate_module()._setup_acvf(spec, n - 1, g)
        assert gamma.tobytes() == acvf_numeric(spec, n - 1, g).tobytes()
        assert head.tobytes() == acvf_numeric(spec, 50, g).tobytes()

    @pytest.mark.parametrize("name, method, nodes", [("table2", "circulant", 16384),
                                                     ("table5", "exact_dl", 24576)])
    def test_two_evaluations_on_the_sampler_grid(self, monkeypatch, name, method, nodes):
        from dataclasses import replace
        config = design(name, master_seed=1, reps=1, method=method)
        assert [m for _, m in self.evaluations(monkeypatch, config)] == [nodes, nodes // 2]
        assert [m for _, m in self.evaluations(monkeypatch, replace(config, self_check=False))] == [nodes]

    def test_checks_a_grid_past_exponent_21(self):
        # grid exponent 22, where doubling the exponent leaves the grid as it is
        spec = design("table5", master_seed=1).spec
        n = 2 ** 16
        shift = self.sampler_shift(spec, n)
        assert 0.0 < shift < 1e-6
        _SETUP.clear()

    @pytest.mark.parametrize("name", ["table2", "table5"])
    @pytest.mark.parametrize("g", [21, 22, 26])
    def test_public_check_halves_its_grid(self, name, g):
        assert 0.0 < acvf_self_check(design(name, master_seed=1).spec, g) < 1e-6

    @pytest.mark.parametrize("name", ["table1", "table2", "table3", "table4", "table5"])
    def test_shift_is_small_at_every_size(self, name):
        spec = design(name, master_seed=1).spec
        for n in (256, 1080, 4096, 16384):
            assert self.sampler_shift(spec, n) < 1e-6, n


class TestZeta:
    """``_zeta`` at the arguments of the pole corrections, 2 e - m for local
    exponents e in (-1/2, 1/2) and even m <= 12."""

    #: B_2, ..., B_12
    BERNOULLI = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66),
                 Fraction(-691, 2730)]
    #: over (-13, 1), 1e-3 clear of the trivial zeros, where a relative error
    #: has no meaning; denser about 0 and 1/2, where the method changes
    GRID = [x for x in np.concatenate([np.linspace(-13, 1, 2801)[1:-1], np.linspace(-0.01, 0.01, 201),
                                       np.linspace(0.49, 0.51, 201)]).tolist()
            if min(abs(x + 2 * k) for k in range(1, 7)) > 1e-3]

    def test_exact_at_zero_and_the_trivial_zeros(self):
        # a memory as small as 1e-310 is a valid spec; its 2 e must not overflow
        assert [_zeta(x) for x in (0.0, 5e-324, -5e-324, 2e-310, 1e-300)] == [-0.5] * 5
        assert [_zeta(-2.0 * k) for k in range(1, 7)] == [0.0] * 6

    def test_negative_odd_integers_are_bernoulli_numbers(self):
        # zeta(1 - 2k) = -B_2k / 2k
        for k, b in enumerate(self.BERNOULLI, start=1):
            exact = -b / (2 * k)
            assert abs(Fraction(_zeta(1.0 - 2 * k)) - exact) <= 4 * Fraction(math.ulp(float(exact)))

    def test_one_half(self):
        exact = Fraction("-1.46035450880958681288949915251529801246722933101258149054")
        assert abs(Fraction(_zeta(0.5)) - exact) <= 2 * Fraction(math.ulp(float(exact)))

    def test_matches_scipy(self):
        from scipy.special import zeta
        got = np.array([_zeta(x) for x in self.GRID])
        assert np.max(np.abs(got / zeta(self.GRID) - 1)) < 1e-12

    def test_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.zeta(mpmath.mpf(x))) for x in self.GRID])
        got = np.array([_zeta(x) for x in self.GRID])
        assert np.max(np.abs(got / ref - 1)) < 2e-15


class TestDurbinLevinson:
    def test_decomposition_whitens_exactly(self):
        # M Gamma M^T must be diag(sigma^2)
        spec = SarfimaSpec(components=(SeasonalComponent(1, 0.1),
                                       SeasonalComponent(4, 0.3)))
        n = 60
        gamma = acvf_numeric(spec, n - 1)
        M, sigma = durbin_levinson_decompose(gamma)
        from scipy.linalg import toeplitz
        G = toeplitz(gamma)
        W = M @ G @ M.T
        assert np.max(np.abs(W - np.diag(sigma ** 2))) < 1e-10
        assert np.all(np.diag(M) == 1.0)
        assert np.max(np.abs(np.triu(M, 1))) == 0.0

    def test_innovation_variances_decrease(self):
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.3),))
        _, sigma = durbin_levinson_decompose(acvf_numeric(spec, 99))
        assert np.all(np.diff(sigma) <= 1e-12)
        assert sigma[-1] > 0.9  # innovation sd approaches sigma = 1 from above

    def test_ar1_predictor_coefficients(self):
        phi = 0.6
        gamma = phi ** np.arange(12) / (1 - phi * phi)
        M, sigma = durbin_levinson_decompose(gamma)
        # AR(1): best predictor uses only the previous value
        assert M[5, 4] == pytest.approx(-phi, abs=1e-12)
        assert np.max(np.abs(M[5, :4])) < 1e-12
        assert sigma[5] == pytest.approx(1.0, abs=1e-12)

    def test_non_positive_definite_rejected(self):
        with pytest.raises(NumericError) as exc:
            durbin_levinson_decompose(np.array([1.0, 1.2, 0.1]))
        assert exc.value.code == "pacf-out-of-range"

    def test_zero_variance_rejected(self):
        with pytest.raises(NumericError) as exc:
            durbin_levinson_decompose(np.array([0.0, 0.0]))
        assert exc.value.code == "not-positive-definite"


class TestSimConfig:
    def test_defaults_fill_in(self, quarterly_spec):
        cfg = SimConfig(spec=quarterly_spec, n=1080, seed=1)
        assert cfg.grid_exponent == default_grid_exponent(1080)

    def test_default_grid_exponent_floor(self):
        assert default_grid_exponent(1) == 17
        assert default_grid_exponent(1080) == math.ceil(math.log2(64 * 1080))
        assert 2 ** default_grid_exponent(10 ** 5) >= 64 * 10 ** 5

    @pytest.mark.parametrize("kwargs,code", [
        (dict(n=0, seed=1), "bad-n"),
        (dict(n=10, seed=-3), "bad-seed"),
        (dict(n=10, seed=2 ** 64), "bad-seed"),
        (dict(n=10, seed=1, method="bogus"), "bad-method"),
        (dict(n=10 ** 4, seed=1, grid_exponent=10), "grid-too-small"),
        (dict(n=1080.0, seed=1), "bad-n"),
        (dict(n=True, seed=1), "bad-n"),
        (dict(n=10, seed=True), "bad-seed"),
        (dict(n=np.int64(2 ** 32), seed=1, method="exact_dl"), "too-large"),   # 8 n^2 wraps in int64
    ])
    def test_invalid_configs(self, quarterly_spec, kwargs, code):
        with pytest.raises(ValidationError) as exc:
            SimConfig(spec=quarterly_spec, **kwargs)
        assert exc.value.code == code

    @pytest.mark.parametrize("seed", [5, 2 ** 63 + 5, 2 ** 64 - 1])
    def test_numpy_integers_are_stored_as_ints(self, quarterly_spec, seed):
        cfg = SimConfig(spec=quarterly_spec, n=np.int64(256), seed=np.uint64(seed), grid_exponent=np.int64(17))
        assert [type(v) for v in (cfg.n, cfg.seed, cfg.grid_exponent)] == [int] * 3
        plain = SimConfig(spec=quarterly_spec, n=256, seed=seed, grid_exponent=17)
        assert cfg == plain and simulate(cfg).tobytes() == simulate(plain).tobytes()


class TestSimulate:
    def test_fixed_seed_reproducible(self, quarterly_spec):
        cfg = SimConfig(spec=quarterly_spec, n=256, seed=99)
        a = simulate(cfg)
        b = simulate(cfg)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, quarterly_spec):
        a = simulate(SimConfig(spec=quarterly_spec, n=256, seed=1))
        b = simulate(SimConfig(spec=quarterly_spec, n=256, seed=2))
        assert not np.array_equal(a, b)

    def test_marginal_variance(self, quarterly_spec):
        # average sample variance over replications against gamma(0)
        g0 = acvf_numeric(quarterly_spec, 0)[0]
        vs = [simulate(SimConfig(spec=quarterly_spec, n=512, seed=s)).var()
              for s in range(40)]
        assert np.mean(vs) == pytest.approx(g0, rel=0.08)

    def test_circulant_matches_exact_dl(self):
        # single paths of these long-memory designs differ in sample ACF by up
        # to 0.13 at seed 31 (independent draws), so each sampler's mean
        # sample ACF over 128 paths is compared
        n, reps, lags = 4096, 128, range(1, 9)

        def mean_sample_acf(X):
            X = X - X.mean(axis=1, keepdims=True)
            c0 = np.sum(X * X, axis=1)
            return np.array([np.mean(np.sum(X[:, : n - h] * X[:, h:], axis=1) / c0) for h in lags])

        try:
            for name in ("table1", "table2", "table3", "table4", "table5"):
                spec = design(name, master_seed=1).spec
                g = SimConfig(spec=spec, n=n, seed=31).grid_exponent
                # the embedding's eigenvalues give back the autocovariance
                root, = _sampler_setup(spec, n, g, "circulant")[0]
                half = len(root) - 1
                scale = np.full(half + 1, float(half))
                scale[[0, half]] = 2.0 * half
                gamma = acvf_numeric(spec, n - 1, g)
                back = np.fft.irfft(root ** 2 / scale, 2 * half)[:n]
                assert np.max(np.abs(back - gamma)) < 1e-12 * gamma[0], name
                a, b = (draw(spec, n, g, [_seed_rng(derive_rep_seed(31, rep)) for rep in range(reps)])
                        for draw in (_dl_paths, _circulant_paths))
                assert np.max(np.abs(mean_sample_acf(a) - mean_sample_acf(b))) < 0.06, name
        finally:
            _SETUP.clear()   # a 134 MB table

    def test_white_noise_path_is_iid_normals(self):
        spec = SarfimaSpec(components=(SeasonalComponent(1, 0.0),))
        cfg = SimConfig(spec=spec, n=64, seed=7, method="exact_dl")
        x = simulate(cfg)
        z = np.random.default_rng(np.random.SeedSequence(7)).standard_normal(64)
        # gamma comes from quadrature, so the DL table is the identity only
        # to the quadrature tolerance
        assert np.max(np.abs(x - z)) < 1e-9


class TestRepSeeds:
    def test_deterministic(self):
        assert derive_rep_seed(2026, 7) == derive_rep_seed(2026, 7)

    def test_uint64_range(self):
        for rep in (0, 1, 500):
            s = derive_rep_seed(123, rep)
            assert isinstance(s, int) and 0 <= s < 2 ** 64

    @given(master=st.integers(0, 2 ** 32), reps=st.integers(2, 50))
    @settings(max_examples=20, deadline=None)
    def test_distinct_across_reps(self, master, reps):
        seeds = {derive_rep_seed(master, r) for r in range(reps)}
        assert len(seeds) == reps


class TestDlTableChecks:
    """The table is checked finite once, when built, and solved without rescanning."""

    @pytest.mark.parametrize("gamma", [[np.nan], [np.inf, 0.5]])
    def test_non_finite_table_rejected(self, gamma):
        with pytest.raises(NumericError) as exc:
            durbin_levinson_decompose(np.array(gamma))
        assert exc.value.code == "non-finite-table"

    def test_cached_table_is_read_only(self, quarterly_spec):
        cfg = SimConfig(spec=quarterly_spec, n=64, seed=1)
        M, sigma = _sampler_setup(quarterly_spec, cfg.n, cfg.grid_exponent, "exact_dl")[0]
        with pytest.raises(ValueError):
            M[1, 0] = 0.0
        with pytest.raises(ValueError):
            sigma[0] = 1.0

    @pytest.mark.parametrize("name", ["table1", "table2", "table3", "table4", "table5"])
    def test_path_equals_checked_solve(self, name):
        # the path is the BLAS-3 solve's column, bit for bit, and agrees with
        # LAPACK's checked single-vector solve to rounding
        from scipy.linalg import solve_triangular
        from scipy.linalg.blas import dtrsm
        spec = design(name, master_seed=1).spec
        for seed in (11, 12, 13):
            cfg = SimConfig(spec=spec, n=1080, seed=seed, method="exact_dl")
            M, sigma = _sampler_setup(spec, cfg.n, cfg.grid_exponent, "exact_dl")[0]
            z = np.random.default_rng(np.random.SeedSequence(seed)).standard_normal(cfg.n)
            b = np.asfortranarray((sigma * z)[:, None])
            column = dtrsm(1.0, M.T, b, lower=0, trans_a=1, diag=1)[:, 0]
            x = simulate(cfg)
            assert np.array_equal(x, column)
            checked = solve_triangular(M, sigma * z, lower=True, unit_diagonal=True)
            assert np.max(np.abs(x - checked)) <= 1e-14 * np.max(np.abs(x))

    def test_non_finite_draw_rejected(self, quarterly_spec, monkeypatch):
        monkeypatch.setattr(simulate_module(), "_seed_rng", lambda seed: NanRng())
        with pytest.raises(NumericError) as exc:
            simulate(SimConfig(spec=quarterly_spec, n=64, seed=1))
        assert exc.value.code == "non-finite-draw"

    def test_one_table_resident(self, quarterly_spec, two_period_spec, monkeypatch):
        # the first spec's table is released before the second one's is built
        import gc
        import weakref
        sim = simulate_module()
        g = default_grid_exponent(64)
        first = weakref.ref(_sampler_setup(quarterly_spec, 64, g, "exact_dl")[0][0])
        decompose = sim.durbin_levinson_decompose
        released = []

        def checked(gamma):
            gc.collect()   # a caught exception's traceback may still hold the table
            released.append(first() is None)
            return decompose(gamma)

        monkeypatch.setattr(sim, "durbin_levinson_decompose", checked)
        _sampler_setup(two_period_spec, 64, g, "exact_dl")
        assert released == [True]
        assert list(_SETUP) == [(two_period_spec, 64, g, "exact_dl")]

    def test_table_released_before_the_roots_are_built(self, quarterly_spec, monkeypatch):
        # one set-up is resident whatever its method
        import gc
        import weakref
        sim = simulate_module()
        g = default_grid_exponent(64)
        first = weakref.ref(_sampler_setup(quarterly_spec, 64, g, "exact_dl")[0][0])
        setup_acvf = sim._setup_acvf
        released = []

        def checked(*args):
            gc.collect()
            released.append(first() is None)
            return setup_acvf(*args)

        monkeypatch.setattr(sim, "_setup_acvf", checked)
        _sampler_setup(quarterly_spec, 64, g, "circulant")
        assert released == [True]
        assert list(_SETUP) == [(quarterly_spec, 64, g, "circulant")]


class TestBlockDraw:
    """Paths drawn together in one solve equal the paths drawn one by one.
    Each path is a column of the solve, and a row of the returned block."""

    N = 1080

    @pytest.fixture(scope="class")
    def table2(self):
        spec = design("table2", master_seed=1).spec
        return spec, SimConfig(spec=spec, n=self.N, seed=0).grid_exponent

    def _block(self, table2, seeds):
        spec, g = table2
        return _dl_paths(spec, self.N, g, [_seed_rng(seed) for seed in seeds])

    @pytest.mark.parametrize("width", [1, 2, 7, 64])
    def test_columns_do_not_depend_on_block_width(self, table2, width):
        seeds = [derive_rep_seed(5, rep) for rep in range(width)]
        block = self._block(table2, seeds)
        assert block.shape == (width, self.N) and block.flags.c_contiguous
        for j, seed in enumerate(seeds):
            assert np.array_equal(block[j], self._block(table2, [seed])[0])

    def test_columns_do_not_depend_on_offset(self, table2):
        seeds = [derive_rep_seed(6, rep) for rep in range(64)]
        full = self._block(table2, seeds)
        for lo, hi in ((5, 12), (57, 64), (1, 64)):
            assert np.array_equal(self._block(table2, seeds[lo:hi]), full[lo:hi])

    def test_nan_inside_block_rejected(self, table2):
        spec, g = table2
        rngs = [_seed_rng(1), _seed_rng(2), NanRng(), _seed_rng(3)]
        with pytest.raises(NumericError) as exc:
            _dl_paths(spec, self.N, g, rngs)
        assert exc.value.code == "non-finite-draw"

    def test_blas_thread_count_does_not_change_paths(self):
        import os
        import subprocess
        import sys
        import sarfima
        script = (
            "import hashlib\n"
            "from sarfima import SimConfig, derive_rep_seed, design\n"
            "from sarfima.simulate import _dl_paths, _seed_rng\n"
            "spec = design('table2', master_seed=1).spec\n"
            "for n in (1080, 2048):\n"
            "    g = SimConfig(spec=spec, n=n, seed=0).grid_exponent\n"
            "    for width in (1, 64):\n"
            "        rngs = [_seed_rng(derive_rep_seed(8, rep)) for rep in range(width)]\n"
            "        print(hashlib.sha256(_dl_paths(spec, n, g, rngs).tobytes()).hexdigest())\n")
        src = os.path.dirname(os.path.dirname(sarfima.__file__))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
            run = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                 capture_output=True, text=True, timeout=300)
            digests.append(run.stdout.split())
        assert len(digests[0]) == 4 and digests[0] == digests[1]


def _mc_config(spec, **kwargs):
    return McConfig(spec=spec, estimators=design("table1", 1).estimators[:1], reps=2,
                    master_seed=1, **kwargs)


class TestSamplerGuards:
    @pytest.mark.parametrize("g", [9999, MAX_GRID_EXPONENT + 1, -1, 20.0, True])
    def test_out_of_range_grid_exponent(self, quarterly_spec, g):
        for make in (lambda: SimConfig(spec=quarterly_spec, n=1080, seed=1, grid_exponent=g),
                     lambda: _mc_config(quarterly_spec, n=1080, grid_exponent=g)):
            with pytest.raises(ValidationError) as exc:
                make()
            assert exc.value.code == "bad-grid-exponent"

    def test_ceiling_is_accepted(self, quarterly_spec):
        cfg = SimConfig(spec=quarterly_spec, n=1080, seed=1, grid_exponent=MAX_GRID_EXPONENT)
        assert cfg.grid_exponent == MAX_GRID_EXPONENT
        assert _mc_config(quarterly_spec, n=1080).grid_exponent == default_grid_exponent(1080)

    def test_default_grid_exponent_valid_wherever_the_table_fits(self):
        # no 64-bit host holds 8 n^2 bytes beyond n = sqrt(2^64 / 8)
        n_max = math.isqrt(2 ** 64 // 8)
        for n in (1, 1080, 4096, 10 ** 5, 10 ** 7, n_max):
            assert 0 <= default_grid_exponent(n) <= MAX_GRID_EXPONENT

    @staticmethod
    def forbid_acvf(monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("acvf work started")

        monkeypatch.setattr(simulate_module(), "acvf_numeric", forbidden)

    def test_huge_table_rejected_before_any_work(self, quarterly_spec, monkeypatch):
        self.forbid_acvf(monkeypatch)
        for make in (lambda: SimConfig(spec=quarterly_spec, n=10 ** 7, seed=1, method="exact_dl"),
                     lambda: _mc_config(quarterly_spec, n=10 ** 7, method="exact_dl")):
            with pytest.raises(ValidationError) as exc:
                make()
            assert exc.value.code == "too-large"
            assert "--method circulant" in exc.value.message

    def test_huge_circulant_rejected_before_any_work(self, quarterly_spec, monkeypatch):
        # the trapezoid grid behind the roots has at least 8 n nodes
        self.forbid_acvf(monkeypatch)
        for make in (lambda: SimConfig(spec=quarterly_spec, n=10 ** 10, seed=1, method="circulant"),
                     lambda: _mc_config(quarterly_spec, n=10 ** 10, method="circulant")):
            with pytest.raises(ValidationError) as exc:
                make()
            assert exc.value.code == "too-large"

    def test_circulant_block_rejected_before_any_work(self, quarterly_spec, monkeypatch):
        # with 16 GiB of memory, one path's grid fits at n = 10^7, but not
        # 64 paths in flight beside it
        self.forbid_acvf(monkeypatch)
        pages = 16 * 2 ** 30 // os.sysconf("SC_PAGE_SIZE")
        sysconf = os.sysconf
        monkeypatch.setattr(os, "sysconf", lambda name: pages if name == "SC_PHYS_PAGES" else sysconf(name))
        SimConfig(spec=quarterly_spec, n=10 ** 7, seed=1, method="circulant")
        with pytest.raises(ValidationError) as exc:
            McConfig(spec=quarterly_spec, estimators=design("table1", 1).estimators, reps=64,
                     n=10 ** 7, master_seed=1, method="circulant")
        assert exc.value.code == "too-large"

    @pytest.mark.parametrize("period, max_lag", [
        (4 * 2 ** 1100, 10),   # a pole spacing past the float range
        (10 ** 8, 10),         # about 1.6e9 nodes, 60 GiB
        (4, 2 ** 2000),        # a node count past the float range
    ])
    def test_huge_acvf_grid_rejected_before_any_work(self, period, max_lag, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("grid work started")

        monkeypatch.setattr(simulate_module(), "_regularized_density", forbidden)
        pages = 16 * 2 ** 30 // os.sysconf("SC_PAGE_SIZE")
        sysconf = os.sysconf
        monkeypatch.setattr(os, "sysconf", lambda name: pages if name == "SC_PHYS_PAGES" else sysconf(name))
        with pytest.raises(ValidationError) as exc:
            acvf_numeric(SarfimaSpec(components=(SeasonalComponent(period, 0.1),)), max_lag)
        assert exc.value.code == "too-large"

    def test_length_past_the_float_range_is_too_large(self, quarterly_spec):
        for method in ("exact_dl", "circulant"):
            with pytest.raises(ValidationError) as exc:
                SimConfig(spec=quarterly_spec, n=10 ** 400, seed=1, method=method)
            assert exc.value.code == "too-large"

    def test_circulant_has_no_table(self, quarterly_spec):
        cfg = SimConfig(spec=quarterly_spec, n=10 ** 7, seed=1, method="circulant")
        assert cfg.n == 10 ** 7


class TestCirculant:
    """Circulant-embedding paths: exact covariance, checked eigenvalues."""

    class UnitRng:
        """A generator whose normals are the i-th unit vector."""

        def __init__(self, i):
            self.i = i

        def standard_normal(self, size, out):
            out[:] = 0.0
            out[self.i] = 1.0
            return out

    # table4 at n = 16 and table5 at n = 24 and 64 draw from padded embeddings
    @pytest.mark.parametrize("name, n", [("table1", 64), ("table3", 100), ("table4", 257),
                                         ("table5", 200), ("table4", 16), ("table5", 24),
                                         ("table5", 64)])
    def test_path_covariance_is_the_toeplitz_matrix(self, name, n):
        # a path is a linear map A of the normals, so its covariance is A A^T;
        # row i of the block is the path of the i-th unit vector, column i of A
        from scipy.linalg import toeplitz
        spec = design(name, master_seed=1).spec
        g = SimConfig(spec=spec, n=n, seed=0).grid_exponent
        half = len(_sampler_setup(spec, n, g, "circulant")[0][0]) - 1
        A = _circulant_paths(spec, n, g, [self.UnitRng(i) for i in range(2 * half)])
        gamma = acvf_numeric(spec, n - 1, g)
        assert np.max(np.abs(A.T @ A - toeplitz(gamma))) < 1e-12 * gamma[0]

    @pytest.mark.parametrize("name, n, half", [("table3", 1080, 1080), ("table5", 4096, 4104),
                                               ("table4", 63, 64), ("table1", 1, 4)])
    def test_half_length_is_padded_to_the_lcm(self, name, n, half):
        spec = design(name, master_seed=1).spec
        assert len(_sampler_setup(spec, n, default_grid_exponent(n), "circulant")[0][0]) == half + 1

    # the doublings each short series of a canned design needs; none from n = 256
    PADDING = {"table4": {8: 8, 16: 4, 24: 2, 32: 2, 40: 2, 48: 1, 128: 1},
               "table5": {8: 1, 16: 8, 24: 8, 32: 4, 48: 4, 64: 2, 100: 2, 128: 2, 200: 1}}

    @pytest.mark.parametrize("name", ["table1", "table2", "table3", "table4", "table5"])
    def test_padding_factors(self, name):
        spec = design(name, master_seed=1).spec
        sizes = self.PADDING.get(name, {n: 1 for n in (8, 16, 64, 128)})
        for n in [*sizes, 256, 1080]:
            root, = _sampler_setup(spec, n, default_grid_exponent(n), "circulant")[0]
            assert (len(root) - 1) / _embedding_half(spec, n) == sizes.get(n, 1), n

    def test_each_doubling_checks_memory_first(self, monkeypatch):
        # table4 at n = 16 starts at N = 16 and draws at x4; each grid passes
        # the acvf's memory check before its density is evaluated
        spec = design("table4", master_seed=1).spec
        sim = simulate_module()
        events, setup_acvf, check, density = [], sim._setup_acvf, sim._check_fits, sim._regularized_density

        def acvf_spy(spec, max_lag, grid_exponent):
            events.append(("acvf", max_lag))
            return setup_acvf(spec, max_lag, grid_exponent)

        def check_spy(need, what, hint=""):
            events.append(("check", need // sim._BYTES_PER_NODE))
            return check(need, what, hint)

        def density_spy(*args):
            if events[-1] != ("density",):
                events.append(("density",))
            return density(*args)

        monkeypatch.setattr(sim, "_setup_acvf", acvf_spy)
        monkeypatch.setattr(sim, "_check_fits", check_spy)
        monkeypatch.setattr(sim, "_regularized_density", density_spy)
        _SETUP.clear()
        assert len(_sampler_setup(spec, 16, default_grid_exponent(16), "circulant")[0][0]) == 64 + 1
        grid = ("check", sim._grid_nodes(spec, 64, default_grid_exponent(16)))
        assert events == [("acvf", 16), grid, ("density",), ("acvf", 32), grid, ("density",),
                          ("acvf", 64), grid, ("density",)]

    def test_negative_eigenvalue_is_a_coded_error(self, monkeypatch):
        # table5 at n = 64 draws at x2; with no doubling allowed it has none
        monkeypatch.setattr(simulate_module(), "_MAX_PADDING_DOUBLINGS", 0)
        _SETUP.clear()
        spec = design("table5", master_seed=1).spec
        with pytest.raises(NumericError) as exc:
            simulate(SimConfig(spec=spec, n=64, seed=1, method="circulant"))
        assert exc.value.code == "negative-eigenvalue"
        assert "-0.000769 of the largest" in exc.value.message

    def test_roots_are_read_only(self, quarterly_spec):
        root, = _sampler_setup(quarterly_spec, 64, default_grid_exponent(64), "circulant")[0]
        with pytest.raises(ValueError):
            root[0] = 1.0

    def test_non_finite_draw_rejected(self, quarterly_spec, monkeypatch):
        monkeypatch.setattr(simulate_module(), "_seed_rng", lambda seed: NanRng())
        with pytest.raises(NumericError) as exc:
            simulate(SimConfig(spec=quarterly_spec, n=64, seed=1, method="circulant"))
        assert exc.value.code == "non-finite-draw"
