import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarfima import (ArmaFactor, SarfimaSpec, SeasonalComponent, SimConfig,
                     ValidationError, acf_to_csv, bandwidth_scan,
                     build_band_plan, combined_filter_coefficients, fractional_filter,
                     gph_estimate, periodogram, sample_acf_pacf, scan_to_csv,
                     simulate)


class TestFractionalFilter:
    @given(d1=st.floats(-0.45, 0.45), d2=st.floats(-0.45, 0.45),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_inverts(self, d1, d2, seed):
        x = np.random.default_rng(seed).standard_normal(300)
        y = fractional_filter(x, [d1, d2], [1, 4])
        back = fractional_filter(y, [-d1, -d2], [1, 4])
        # exact up to float conv noise: the truncated expansions telescope
        # within the available history
        assert np.max(np.abs(back - x)) < 1e-8

    def test_identity_when_d_zero(self, rng):
        x = rng.standard_normal(100)
        assert np.max(np.abs(fractional_filter(x, [0.0], [4]) - x)) < 1e-12

    def test_matches_direct_convolution(self, rng):
        x = rng.standard_normal(64)
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.3),))
        coeffs = combined_filter_coefficients(spec, 63)
        direct = np.array([coeffs[: t + 1][::-1] @ x[: t + 1] for t in range(64)])
        assert np.max(np.abs(fractional_filter(x, [0.3], [4]) - direct)) < 1e-10

    def test_matches_longdouble_direct_filter(self):
        # each component's truncated expansion, summed directly in extended
        # precision residue class by residue class; the FFT path measured
        # 7.5e-16 of max|x| here
        def direct(x, d, s):
            k = np.arange(1, (len(x) - 1) // s + 1, dtype=np.longdouble)
            pi = np.concatenate([[np.longdouble(1)], np.cumprod((k - 1 - np.longdouble(d)) / k)])
            out = np.empty(len(x), dtype=np.longdouble)
            for r in range(s):
                out[r::s] = np.convolve(x[r::s], pi)[:len(x[r::s])]
            return out

        x = np.random.default_rng(20101125).standard_normal(1 << 14)
        reference = direct(direct(x.astype(np.longdouble), 0.1, 4), 0.3, 12)
        error = np.max(np.abs(fractional_filter(x, [0.1, 0.3], [4, 12]) - reference))
        assert float(error) < 1e-14 * np.max(np.abs(x))

    def test_whitens_simulated_memory(self, two_period_spec, two_period_path):
        residuals = fractional_filter(two_period_path, [0.1, 0.3], [1, 4])
        # discard start-up, residual memory should be near zero
        pg = periodogram(residuals[40:])
        est = gph_estimate(pg, build_band_plan(pg.n, 4, 4, 32), 4, 4)
        assert abs(est.d_hat[0]) < 3 * est.standard_errors()[0]

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValidationError) as exc:
            fractional_filter(rng.standard_normal(50), [0.1, 0.2], [4])
        assert exc.value.code == "bad-filter"

    def test_large_memory_rejected(self, rng):
        with pytest.raises(ValidationError) as exc:
            fractional_filter(rng.standard_normal(50), [1.0], [4])
        assert exc.value.code == "bad-filter"

    @pytest.mark.parametrize("series, code", [
        ([np.nan] * 10, "non-finite-input"),
        ([1.0, np.inf, 2.0], "non-finite-input"),
        (np.ones((3, 3)), "series-too-short"),
        (1.0, "series-too-short"),
    ])
    def test_bad_series_rejected(self, series, code):
        with pytest.raises(ValidationError) as exc:
            fractional_filter(series, [0.1], [4])
        assert exc.value.code == code


class TestBandwidthScan:
    def test_rows_cover_alphas(self, two_period_path):
        scan = bandwidth_scan(two_period_path, 1, 4, [0.4, 0.5, 0.6])
        assert [r.alpha for r in scan.rows] == [0.4, 0.5, 0.6]
        assert [r.m for r in scan.rows] == [16, 32, 66]
        assert all(r.error is None for r in scan.rows)
        assert sum(r.estimate is not None for r in scan.rows) == 3

    def test_failed_rows_record_code(self, two_period_path):
        # alpha = 0.05 gives m = 1, below the minimum bandwidth
        scan = bandwidth_scan(two_period_path, 1, 4, [0.05, 0.5])
        assert scan.rows[0].error == "m-too-small"
        assert scan.rows[0].estimate is None
        assert scan.rows[1].error is None

    def test_non_divisor_periods_fail_the_scan(self, two_period_path):
        # no bandwidth could rescue them, so the scan fails before any row
        with pytest.raises(ValidationError) as exc:
            bandwidth_scan(two_period_path, 3, 4, [0.3, 0.5])
        assert exc.value.code == "s2-not-divisor"

    def test_alphas_must_increase(self, two_period_path):
        with pytest.raises(ValidationError) as exc:
            bandwidth_scan(two_period_path, 1, 4, [0.5, 0.4])
        assert exc.value.code == "bad-alphas"

    def test_needs_an_alpha(self, two_period_path):
        with pytest.raises(ValidationError) as exc:
            bandwidth_scan(two_period_path, 4, 12, [])
        assert exc.value.code == "bad-alphas"

    def test_alphas_must_be_interior(self, two_period_path):
        with pytest.raises(ValidationError):
            bandwidth_scan(two_period_path, 1, 4, [0.5, 1.0])

    @pytest.mark.parametrize("alpha", ["a", "0.5", True, None])
    def test_alphas_must_be_real_numbers(self, two_period_path, alpha):
        with pytest.raises(ValidationError) as exc:
            bandwidth_scan(two_period_path, 1, 4, [alpha])
        assert exc.value.code == "bad-bandwidth"

    def test_csv_format(self, two_period_path, tmp_path):
        scan = bandwidth_scan(two_period_path, 1, 4, [0.05, 0.5])
        path = tmp_path / "scan.csv"
        scan_to_csv(scan, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "alpha,m,d1_hat,d2_hat,var_d1,var_d2,error"
        assert lines[1] == "0.05,1,,,,,m-too-small"
        fields = lines[2].split(",")
        assert float(fields[0]) == 0.5 and int(fields[1]) == 32
        est = scan.rows[1].estimate
        assert float(fields[2]) == est.d_hat[0]
        assert float(fields[5]) == est.asymptotic_cov[1, 1]
        assert fields[6] == ""


class TestSampleAcfPacf:
    def test_ar1_theoretical_shape(self):
        phi = 0.7
        spec = SarfimaSpec(components=(SeasonalComponent(1, 0.0),),
                           ar_factors=(ArmaFactor(1, (phi,)),))
        x = simulate(SimConfig(spec=spec, n=20000, seed=4, method="circulant"))
        res = sample_acf_pacf(x, 6)
        assert res.acf[0] == pytest.approx(phi, abs=0.03)
        assert res.pacf[0] == pytest.approx(phi, abs=0.03)
        # AR(1) partial autocorrelations vanish beyond lag 1
        assert np.max(np.abs(res.pacf[1:])) < 0.03

    def test_acf_matches_direct_formula(self, rng):
        x = rng.standard_normal(400)
        res = sample_acf_pacf(x, 5)
        xc = x - x.mean()
        c0 = xc @ xc / 400
        for h in range(1, 6):
            direct = (xc[:-h] @ xc[h:]) / 400 / c0
            assert res.acf[h - 1] == pytest.approx(direct, rel=1e-12)

    def test_band_value(self, rng):
        res = sample_acf_pacf(rng.standard_normal(400), 5)
        assert res.band == pytest.approx(1.96 / np.sqrt(400), rel=1e-12)

    def test_lag_bounds(self, rng):
        x = rng.standard_normal(50)
        with pytest.raises(ValidationError):
            sample_acf_pacf(x, 25)
        with pytest.raises(ValidationError):
            sample_acf_pacf(x, 0)

    def test_constant_series_rejected(self):
        with pytest.raises(ValidationError) as exc:
            sample_acf_pacf(np.ones(100), 5)
        assert exc.value.code == "zero-variance"

    @pytest.mark.parametrize("series, code", [
        ([np.nan] * 20, "non-finite-input"),
        ([0.0, 1.0, -np.inf] * 7, "non-finite-input"),
        (np.ones((20, 2)), "series-too-short"),
        (1.0, "series-too-short"),
    ])
    def test_bad_series_rejected(self, series, code):
        with pytest.raises(ValidationError) as exc:
            sample_acf_pacf(series, 2)
        assert exc.value.code == code

    @pytest.mark.parametrize("max_lag", [2.0, True, "2", None])
    def test_lag_must_be_an_integer(self, rng, max_lag):
        with pytest.raises(ValidationError) as exc:
            sample_acf_pacf(rng.standard_normal(50), max_lag)
        assert exc.value.code == "bad-lag"

    def test_csv_format(self, rng, tmp_path):
        res = sample_acf_pacf(rng.standard_normal(100), 3)
        path = tmp_path / "acf.csv"
        acf_to_csv(res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "lag,acf,pacf,band"
        assert len(lines) == 4
        fields = lines[2].split(",")
        assert int(fields[0]) == 2
        assert float(fields[1]) == res.acf[1]
        assert float(fields[2]) == res.pacf[1]
