import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarfima import (ValidationError, asymptotic_cov_matrix, build_band_plan,
                     gph_T_bandwidth, periodogram)


class TestPeriodogram:
    def test_parseval(self, rng):
        x = rng.standard_normal(512)
        pg = periodogram(x)
        lhs = 2 * np.pi / 512 * pg.ordinates.sum()
        rhs = np.mean((x - x.mean()) ** 2)
        assert abs(lhs - rhs) < 1e-10

    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([8, 63, 128, 500]))
    @settings(max_examples=25, deadline=None)
    def test_parseval_any_length(self, seed, n):
        x = np.random.default_rng(seed).standard_normal(n)
        pg = periodogram(x)
        assert abs(2 * np.pi / n * pg.ordinates.sum() - np.mean((x - x.mean()) ** 2)) < 1e-10

    def test_fft_matches_direct(self, rng):
        # the defining O(n^2) sum, written out as the oracle
        x = rng.standard_normal(200)
        n = len(x)
        dft = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) @ (x - x.mean())
        direct = (np.abs(dft) ** 2 / (2 * np.pi * n))[1:]
        assert np.max(np.abs(periodogram(x).ordinates - direct)) < 1e-10

    def test_pure_cosine_concentrates(self):
        n, j0 = 240, 30
        t = np.arange(n)
        x = np.cos(2 * np.pi * j0 * t / n)
        pg = periodogram(x)
        assert int(np.argmax(pg.ordinates)) + 1 == j0
        # a unit cosine at an exact Fourier frequency carries n/(8 pi) per side
        assert pg.ordinates[j0 - 1] == pytest.approx(n / (8 * np.pi), rel=1e-10)
        others = np.delete(pg.ordinates, [j0 - 1, n - j0 - 1])
        assert np.max(others) < 1e-12

    def test_mean_invariance(self, rng):
        x = rng.standard_normal(128)
        a = periodogram(x).ordinates
        b = periodogram(x + 17.5).ordinates
        assert np.max(np.abs(a - b)) < 1e-8

    def test_symmetry(self, rng):
        n = 100
        pg = periodogram(rng.standard_normal(n))
        for j in (1, 7, 33):
            assert pg.ordinates[j - 1] == pytest.approx(pg.ordinates[n - j - 1], rel=1e-12)

    def test_frequencies(self, rng):
        pg = periodogram(rng.standard_normal(64))
        assert np.allclose(pg.frequencies, 2 * np.pi * np.arange(1, 64) / 64)

    def test_short_series_rejected(self):
        with pytest.raises(ValidationError) as exc:
            periodogram(np.ones(5))
        assert exc.value.code == "series-too-short"

    def test_nonfinite_rejected(self):
        x = np.ones(32)
        x[3] = np.nan
        with pytest.raises(ValidationError):
            periodogram(x)

    def test_csv_round_trip(self, rng, tmp_path):
        pg = periodogram(rng.standard_normal(32))
        path = tmp_path / "pg.csv"
        pg.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "j,lambda,ordinate"
        assert len(lines) == 32
        j, lam, val = lines[6].split(",")
        assert int(j) == 6
        assert float(lam) == pg.frequencies[5]
        assert float(val) == pg.ordinates[5]


class TestTruncatedBandwidth:
    @pytest.mark.parametrize("n,s,expect", [
        (1080, 4, 134),   # raw 269 capped at ceil(1080/8) - 1
        (1080, 12, 44),   # raw 89 capped at 44
        (1080, 2, 269),   # raw 539 capped at 269
        (13, 4, 1),       # floor never returns less than 1
        (100, 4, 12),
    ])
    def test_values(self, n, s, expect):
        assert gph_T_bandwidth(n, s) == expect

    def test_two_period_uses_larger(self):
        assert gph_T_bandwidth(1080, 4, 12) == gph_T_bandwidth(1080, 12)
        assert gph_T_bandwidth(1080, 12, 4) == gph_T_bandwidth(1080, 12)

    @given(n=st.integers(50, 5000), s=st.sampled_from([2, 4, 7, 12, 24]))
    @settings(max_examples=60, deadline=None)
    def test_capped_value_never_overlaps(self, n, s):
        m = gph_T_bandwidth(n, s)
        if m >= 2:
            build_band_plan(n, s, s, m)  # must not raise band-overlap


def sides(plan):
    """Sides per band (|j_set| / m): the band weight delta_k of the covariance design."""
    return [len(b.j_set) // plan.m for b in plan.bands]


def assert_cov_matches_plan(plan, informative_ks):
    """asymptotic_cov_matrix's Q = 4 [[sum delta, sum_I delta], [., sum_I delta]]
    agrees with the plan's band sides over the informative bands ``informative_ks``."""
    delta = sides(plan)
    total, informative = sum(delta), sum(delta[k] for k in informative_ks)
    q = 4 * np.array([[total, informative], [informative, informative]], dtype=float)
    expect = np.pi ** 2 / (6 * plan.m) * np.linalg.inv(q)
    got = asymptotic_cov_matrix(plan.s_prime, plan.s_small, plan.m)
    assert np.allclose(got, expect, rtol=1e-12, atol=0)


class TestBandPlan:
    def test_quarterly_structure(self):
        plan = build_band_plan(1080, 4, 1, 10)
        assert plan.s_prime == 4 and plan.s_small == 1
        ks = [b.k for b in plan.bands]
        assert ks == [0, 1, 2]
        b0, b1, b2 = plan.bands
        assert b0.j_set == tuple(range(1, 11))
        assert b1.j_set == tuple(range(1, 11)) + tuple(range(-1, -11, -1))
        assert b2.j_set == tuple(range(-1, -11, -1))
        assert sides(plan) == [1, 2, 1]
        assert b0.center_index == 0 and b1.center_index == 270 and b2.center_index == 540
        assert all(b.center_index == 1080 * b.k / 4 for b in plan.bands)
        # s_small = 1 has its only pole at frequency zero
        assert_cov_matches_plan(plan, informative_ks=[0])
        assert sum(len(b.j_set) for b in plan.bands) == 40

    def test_annual_within_monthly_membership(self):
        plan = build_band_plan(1080, 12, 4, 5)
        assert [b.k for b in plan.bands] == list(range(7))
        assert sides(plan) == [1, 2, 2, 2, 2, 2, 1]
        # harmonics of the period-4 component sit at k = 0, 3, 6
        assert_cov_matches_plan(plan, informative_ks=[0, 3, 6])

    def test_indices_are_center_plus_offsets(self):
        plan = build_band_plan(1080, 4, 1, 7)
        for band in plan.bands:
            assert np.array_equal(band.fourier_indices,
                                  band.center_index + np.array(band.j_set))

    def test_snapping_flagged_when_center_not_integer(self):
        plan = build_band_plan(1000, 12, 4, 3)
        exact = {b.k: b.center_index == 1000 * b.k / 12 for b in plan.bands}
        assert exact[0] is True
        assert exact[1] is False  # 1000/12 is not an integer
        assert exact[3] is True  # 3000/12 = 250
        b1 = [b for b in plan.bands if b.k == 1][0]
        assert b1.center_index == round(1000 / 12)

    def test_odd_s_prime_has_no_half_band(self):
        plan = build_band_plan(700, 7, 1, 4)
        assert [b.k for b in plan.bands] == [0, 1, 2, 3]
        assert sides(plan) == [1, 2, 2, 2]
        assert sum(len(b.j_set) for b in plan.bands) == 4 + 3 * 8

    def test_smaller_period_must_divide(self):
        with pytest.raises(ValidationError) as exc:
            build_band_plan(1080, 12, 5, 10)
        assert exc.value.code == "s2-not-divisor"

    def test_tiny_bandwidth_rejected(self):
        with pytest.raises(ValidationError) as exc:
            build_band_plan(1080, 4, 1, 1)
        assert exc.value.code == "m-too-small"

    def test_overlap_guard(self):
        with pytest.raises(ValidationError) as exc:
            build_band_plan(1080, 4, 1, 135)
        assert exc.value.code == "band-overlap"

    def test_overlap_allowed_when_requested(self):
        plan = build_band_plan(1080, 4, 1, 269, allow_overlap=True)
        assert plan.m == 269
        # adjacent bands share ordinates in this regime
        idx = np.concatenate([b.fourier_indices for b in plan.bands])
        assert len(np.unique(idx)) < sum(len(b.j_set) for b in plan.bands)

    def test_all_indices_unique_and_in_range(self):
        plan = build_band_plan(1080, 12, 4, 40)
        idx = np.concatenate([b.fourier_indices for b in plan.bands])
        assert len(np.unique(idx)) == len(idx)
        assert idx.min() >= 1 and idx.max() <= 540


@pytest.mark.parametrize("call", [
    lambda: build_band_plan(1080, 4, 0, 20),
    lambda: build_band_plan(1080, 0, 4, 20),
    lambda: build_band_plan(1080, -4, -4, 20),
    lambda: gph_T_bandwidth(1080, 4, 0),
    lambda: gph_T_bandwidth(1080, -1),
])
def test_period_below_one_rejected(call):
    with pytest.raises(ValidationError) as exc:
        call()
    assert exc.value.code == "bad-period"


@pytest.mark.parametrize("m", [3.5, 2.0, True, "20", None])
def test_non_integer_bandwidth_rejected(m):
    with pytest.raises(ValidationError) as exc:
        build_band_plan(1080, 1, 4, m)
    assert exc.value.code == "bad-bandwidth"


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf"), 1e300])
def test_non_finite_alpha_rejected(alpha):
    from sarfima.spectrum import resolve_bandwidth
    with pytest.raises(ValidationError) as exc:
        resolve_bandwidth(1080, 4, alpha=alpha)
    assert exc.value.code == "bad-bandwidth"


def test_numpy_integer_bandwidth_accepted():
    assert build_band_plan(1080, 1, 4, np.int64(20)) == build_band_plan(1080, 1, 4, 20)


class TestPlanCache:
    def test_plan_is_shared_and_read_only(self):
        plan = build_band_plan(1080, 4, 12, 30)
        assert build_band_plan(1080, 4, 12, 30) is plan
        for band in plan.bands:
            with pytest.raises(ValueError):
                band.fourier_indices[0] = 0

    @pytest.mark.parametrize("m, code", [(1, "m-too-small"), (135, "band-overlap")])
    def test_failing_plan_raises_on_every_call(self, m, code):
        for _ in range(3):
            with pytest.raises(ValidationError) as exc:
                build_band_plan(1080, 4, 1, m)
            assert exc.value.code == code
