import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_jacobi

from sarfima import (ArmaFactor, NumericError, SarfimaSpec, SeasonalComponent,
                     SimConfig, ValidationError, acvf_numeric, acvf_self_check,
                     default_grid_exponent, derive_rep_seed,
                     durbin_levinson_decompose, simulate)
from sarfima import McConfig, design
from sarfima.simulate import (MAX_GRID_EXPONENT, _circulant_paths, _circulant_roots, _dl_paths,
                              _dl_tables, _seed_rng)


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

    def standard_normal(self, size):
        out = np.zeros(size)
        out[3] = np.nan
        return out


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

    # 32767 lags need more nodes per segment than the grid floor's cap allows
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

    def test_rule_cost_does_not_grow_with_n(self, two_period_spec, monkeypatch):
        import importlib

        import scipy.special
        sim = importlib.import_module("sarfima.simulate")   # the package attribute is the function
        orders = []

        def counting_rule(order, alpha, beta):
            orders.append(order)
            return roots_jacobi(order, alpha, beta)

        # _panel_rule imports the rule from scipy.special when it runs
        monkeypatch.setattr(scipy.special, "roots_jacobi", counting_rule)
        sim._panel_rule.cache_clear()
        acvf_numeric(two_period_spec, 1079, default_grid_exponent(1080))
        built = len(orders)
        acvf_numeric(two_period_spec, 4095, default_grid_exponent(4096))
        # one rule per pole exponent plus Gauss-Legendre (beta = 0), all of
        # the fixed panel order, and none new for the longer sequence
        assert built <= 3 and orders == [sim._PANEL_ORDER] * built

    def test_self_check_passes_on_stationary_spec(self, two_period_spec):
        acvf_self_check(two_period_spec, grid_exponent=17)

    def test_rejects_nonstationary(self):
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.55),))
        with pytest.raises(ValidationError):
            acvf_numeric(spec, 10)


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
    ])
    def test_invalid_configs(self, quarterly_spec, kwargs, code):
        with pytest.raises(ValidationError) as exc:
            SimConfig(spec=quarterly_spec, **kwargs)
        assert exc.value.code == code


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
            X = X - X.mean(axis=0)
            c0 = np.sum(X * X, axis=0)
            return np.array([np.mean(np.sum(X[: n - h] * X[h:], axis=0) / c0) for h in lags])

        try:
            for name in ("table1", "table2", "table3", "table4", "table5"):
                spec = design(name, master_seed=1).spec
                g = SimConfig(spec=spec, n=n, seed=31).grid_exponent
                # the embedding's eigenvalues give back the autocovariance
                root = _circulant_roots(spec, n, g)
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
            _dl_tables.cache_clear()   # five 134 MB tables

    def test_white_noise_path_is_iid_normals(self):
        spec = SarfimaSpec(components=(SeasonalComponent(1, 0.0),))
        cfg = SimConfig(spec=spec, n=64, seed=7)
        x = simulate(cfg)
        z = np.random.default_rng(np.random.SeedSequence(7)).standard_normal(64)
        # gamma comes from quadrature, so the DL table is the identity only
        # to the quadrature tolerance
        assert np.max(np.abs(x - z)) < 1e-9

    def test_explicit_rng_overrides_seed(self, quarterly_spec):
        cfg = SimConfig(spec=quarterly_spec, n=128, seed=5)
        r1 = np.random.default_rng(1234)
        r2 = np.random.default_rng(1234)
        a = simulate(cfg, rng=r1)
        b = simulate(cfg, rng=r2)
        c = simulate(cfg)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


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
        M, sigma = _dl_tables(quarterly_spec, cfg.n, cfg.grid_exponent)
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
            cfg = SimConfig(spec=spec, n=1080, seed=seed)
            M, sigma = _dl_tables(spec, cfg.n, cfg.grid_exponent)
            z = np.random.default_rng(np.random.SeedSequence(seed)).standard_normal(cfg.n)
            b = np.asfortranarray((sigma * z)[:, None])
            column = dtrsm(1.0, M.T, b, lower=0, trans_a=1, diag=1)[:, 0]
            x = simulate(cfg)
            assert np.array_equal(x, column)
            checked = solve_triangular(M, sigma * z, lower=True, unit_diagonal=True)
            assert np.max(np.abs(x - checked)) <= 1e-14 * np.max(np.abs(x))

    def test_non_finite_draw_rejected(self, quarterly_spec):
        with pytest.raises(NumericError) as exc:
            simulate(SimConfig(spec=quarterly_spec, n=64, seed=1), rng=NanRng())
        assert exc.value.code == "non-finite-draw"


class TestBlockDraw:
    """Paths drawn together in one solve equal the paths drawn one by one."""

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
        assert block.shape == (self.N, width) and block.flags.f_contiguous
        for j, seed in enumerate(seeds):
            assert np.array_equal(block[:, j], self._block(table2, [seed])[:, 0])

    def test_columns_do_not_depend_on_offset(self, table2):
        seeds = [derive_rep_seed(6, rep) for rep in range(64)]
        full = self._block(table2, seeds)
        for lo, hi in ((5, 12), (57, 64), (1, 64)):
            assert np.array_equal(self._block(table2, seeds[lo:hi]), full[:, lo:hi])

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

    def test_huge_table_rejected_before_any_work(self, quarterly_spec, monkeypatch):
        import importlib
        sim = importlib.import_module("sarfima.simulate")   # the package attribute is the function

        def forbidden(*args, **kwargs):
            raise AssertionError("acvf work started")

        monkeypatch.setattr(sim, "acvf_numeric", forbidden)
        for make in (lambda: SimConfig(spec=quarterly_spec, n=10 ** 7, seed=1),
                     lambda: _mc_config(quarterly_spec, n=10 ** 7)):
            with pytest.raises(ValidationError) as exc:
                make()
            assert exc.value.code == "too-large"
            assert "--method circulant" in exc.value.message

    def test_circulant_has_no_table(self, quarterly_spec):
        cfg = SimConfig(spec=quarterly_spec, n=10 ** 7, seed=1, method="circulant")
        assert cfg.n == 10 ** 7


class TestCirculant:
    """Circulant-embedding paths: exact covariance, checked eigenvalues."""

    class UnitRng:
        """A generator whose normals are the i-th unit vector."""

        def __init__(self, i):
            self.i = i

        def standard_normal(self, size):
            out = np.zeros(size)
            out[self.i] = 1.0
            return out

    @pytest.mark.parametrize("name, n", [("table1", 64), ("table3", 100), ("table4", 257),
                                         ("table5", 200)])
    def test_path_covariance_is_the_toeplitz_matrix(self, name, n):
        # a path is a linear map A of the normals, so its covariance is A A^T
        from scipy.linalg import toeplitz
        spec = design(name, master_seed=1).spec
        g = SimConfig(spec=spec, n=n, seed=0).grid_exponent
        half = len(_circulant_roots(spec, n, g)) - 1
        A = _circulant_paths(spec, n, g, [self.UnitRng(i) for i in range(2 * half)])
        gamma = acvf_numeric(spec, n - 1, g)
        assert np.max(np.abs(A @ A.T - toeplitz(gamma))) < 1e-12 * gamma[0]

    @pytest.mark.parametrize("name, n, half", [("table3", 1080, 1080), ("table5", 4096, 4104),
                                               ("table4", 63, 64), ("table1", 1, 4)])
    def test_half_length_is_padded_to_the_lcm(self, name, n, half):
        spec = design(name, master_seed=1).spec
        assert len(_circulant_roots(spec, n, default_grid_exponent(n))) == half + 1

    def test_negative_eigenvalue_is_a_coded_error(self):
        spec = design("table5", master_seed=1).spec
        with pytest.raises(NumericError) as exc:
            simulate(SimConfig(spec=spec, n=64, seed=1, method="circulant"))
        assert exc.value.code == "negative-eigenvalue"
        assert "-0.000769 of the largest" in exc.value.message

    def test_roots_are_read_only(self, quarterly_spec):
        root = _circulant_roots(quarterly_spec, 64, default_grid_exponent(64))
        with pytest.raises(ValueError):
            root[0] = 1.0

    def test_non_finite_draw_rejected(self, quarterly_spec):
        with pytest.raises(NumericError) as exc:
            simulate(SimConfig(spec=quarterly_spec, n=64, seed=1, method="circulant"), rng=NanRng())
        assert exc.value.code == "non-finite-draw"
