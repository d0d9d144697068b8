import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarfima import (Periodogram, ValidationError, WhittleTemplate, asymptotic_cov_matrix, bandwidth_scan,
                     build_band_plan, fractional_filter, gph_T_bandwidth, periodogram,
                     pi_coefficients)
from sarfima.spectrum import write_csv


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

    @pytest.mark.parametrize("n", [8, 9, 100, 1079, 1080])
    def test_mirror_symmetry_is_exact(self, rng, n):
        I = periodogram(rng.standard_normal(n)).ordinates
        j = np.arange(1, n)
        assert I.tobytes() == I[n - j - 1].tobytes()

    @pytest.mark.parametrize("n", [8, 9, 1079, 1080])
    def test_every_ordinate_matches_the_direct_sum(self, rng, n):
        # the O(n^2) sum, with each angle reduced exactly: j t mod n
        x = rng.standard_normal(n)
        xc = x - x.mean()
        angle = 2 * np.pi * (np.outer(np.arange(1, n), np.arange(n)) % n) / n
        direct = ((np.cos(angle) @ xc) ** 2 + (np.sin(angle) @ xc) ** 2) / (2 * np.pi * n)
        got = periodogram(x).ordinates
        assert np.max(np.abs(got - direct) / direct) < 1e-12

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

    @pytest.mark.parametrize("ordinates", [
        [0.25, 1.5, 0.25],               # mirrored: half of it is formatted
        [0.25, 1.5, 0.5],                # not mirrored
        [-0.0, 2.0, 0.0],                # equal but not the same bits
        [0.5, np.nan, np.nan, 0.5],
        [1e16],
        [],                              # n = 1: the header alone
    ])
    def test_csv_cells_of_any_ordinates(self, tmp_path, ordinates):
        n = len(ordinates) + 1
        pg = Periodogram(n=n, ordinates=np.array(ordinates))
        pg.to_csv(tmp_path / "pg.csv")
        expected = "j,lambda,ordinate\n" + "".join(
            f"{j},{float(lam)!r},{float(o)!r}\n" for j, lam, o in zip(range(1, n), pg.frequencies, ordinates))
        assert (tmp_path / "pg.csv").read_bytes() == expected.encode()

    @pytest.mark.parametrize("rows", [
        [],                              # the header alone
        [(None, "a")],                   # a blank cell
        [(1, 0.5), (2, np.float64(1e16)), (3, None)],
    ])
    def test_csv_columns_write_the_bytes_of_rows(self, tmp_path, rows):
        for width in (1, 2):
            header = ("x", "y")[:width]
            by_rows = write_csv(tmp_path / "r.csv", header, [row[:width] for row in rows])
            columns = [[row[k] for row in rows] for k in range(width)]
            assert write_csv(tmp_path / "c.csv", header, columns=columns) == by_rows
            assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()


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


def offsets(band):
    """The band's signed offsets j, its Fourier indices less its centre."""
    return (band.fourier_indices - band.center_index).tolist()


def sides(plan):
    """Sides per band (offsets / m): the band weight delta_k of the covariance design."""
    return [len(offsets(b)) // plan.m for b in plan.bands]


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
        assert offsets(b0) == list(range(1, 11))
        assert offsets(b1) == list(range(1, 11)) + list(range(-1, -11, -1))
        assert offsets(b2) == list(range(-1, -11, -1))
        assert sides(plan) == [1, 2, 1]
        assert b0.center_index == 0 and b1.center_index == 270 and b2.center_index == 540
        assert all(b.center_index == 1080 * b.k / 4 for b in plan.bands)
        # s_small = 1 has its only pole at frequency zero
        assert_cov_matches_plan(plan, informative_ks=[0])
        assert sum(len(b.fourier_indices) for b in plan.bands) == 40

    def test_annual_within_monthly_membership(self):
        plan = build_band_plan(1080, 12, 4, 5)
        assert [b.k for b in plan.bands] == list(range(7))
        assert sides(plan) == [1, 2, 2, 2, 2, 2, 1]
        # harmonics of the period-4 component sit at k = 0, 3, 6
        assert_cov_matches_plan(plan, informative_ks=[0, 3, 6])

    def test_indices_are_center_plus_offsets(self):
        up, down = list(range(1, 8)), list(range(-1, -8, -1))
        for s in (4, 7):
            for band in build_band_plan(1080, s, 1, 7).bands:
                assert band.fourier_indices.dtype == np.int64
                assert offsets(band) == (up if band.k == 0 else down if 2 * band.k == s else up + down)

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
        assert sum(len(b.fourier_indices) for b in plan.bands) == 4 + 3 * 8

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
        assert len(np.unique(idx)) < len(idx)

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
    # not an integer: rejected before any cache lookup, never truncated or coerced
    lambda: build_band_plan(1080, 4, 12.0, 32),
    lambda: build_band_plan(1080, True, 4, 20),
    lambda: gph_T_bandwidth(1080, 4.5),
    lambda: gph_T_bandwidth(1080, 4, True),
    lambda: (asymptotic_cov_matrix(4, 12, 30), asymptotic_cov_matrix(4, 12.0, 30)),
    lambda: asymptotic_cov_matrix(True, None, 30),
    lambda: asymptotic_cov_matrix(0, None, 30),
    lambda: asymptotic_cov_matrix(-4, None, 30),
    lambda: bandwidth_scan(np.arange(64.0), 4, 12.0, [0.5]),
    lambda: fractional_filter(np.arange(64.0), [0.3], [4.5]),
    lambda: fractional_filter(np.arange(64.0), [0.3], [True]),
    lambda: pi_coefficients(0.3, 4.0, 20),
    lambda: pi_coefficients(0.3, True, 20),
    lambda: WhittleTemplate.pure((4.5, 12)),
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


@pytest.mark.parametrize("kwargs", [
    dict(),                              # no bandwidth picked
    dict(alpha=0.5, m=10),
    dict(alpha=0.5, gph_T=True),
    dict(alpha=0.5, uncapped=True),      # uncapped only with gph_T
    dict(m=10, uncapped=True),
    dict(gph_T="yes"),                   # the flags are bools
    dict(gph_T=True, uncapped=1),
    dict(alpha=True),                    # alpha is a real number, m an integer
    dict(alpha="0.5"),
    dict(alpha=10 ** 400),
    dict(m=10.0),
])
def test_bandwidth_choice_rejected(kwargs):
    from sarfima.spectrum import resolve_bandwidth
    with pytest.raises(ValidationError) as exc:
        resolve_bandwidth(1080, 4, **kwargs)
    assert exc.value.code == "bad-bandwidth"


@pytest.mark.parametrize("kwargs, m", [(dict(alpha=np.float64(0.5)), 32), (dict(m=np.int64(20)), 20),
                                       (dict(gph_T=True), 134), (dict(gph_T=True, uncapped=True), 269)])
def test_resolved_bandwidth_is_a_plain_int(kwargs, m):
    from sarfima.spectrum import resolve_bandwidth
    got = resolve_bandwidth(np.int64(1080), np.int64(4), **kwargs)
    assert type(got) is int and got == m


@pytest.mark.parametrize("call", [
    lambda: build_band_plan(0, 4, 12, 32),
    lambda: build_band_plan(1080.5, 4, 12, 32),
    lambda: build_band_plan(True, 1, 4, 2, allow_overlap=True),
    lambda: gph_T_bandwidth(1080.5, 4),
    lambda: gph_T_bandwidth(-5, 4),
    lambda: gph_T_bandwidth("1080", 4),
])
def test_bad_length_rejected(call):
    with pytest.raises(ValidationError) as exc:
        call()
    assert exc.value.code == "bad-n"


@pytest.mark.parametrize("call", [
    lambda: asymptotic_cov_matrix(4, 12, 2 ** 2000),
    lambda: asymptotic_cov_matrix(4, None, 2 ** 53),
    lambda: build_band_plan(1080, 4, 12, 2 ** 64, allow_overlap=True),
])
def test_bandwidth_past_exact_floats_rejected(call):
    with pytest.raises(ValidationError) as exc:
        call()
    assert exc.value.code == "bad-bandwidth"


class TestPlanInIntegers:
    """Every plan rule is decided in integers, before any index is built."""

    @pytest.mark.parametrize("args, code", [
        ((2 ** 70, 4, 12, 32), "too-large"),          # indices past int64
        ((2 ** 2000, 4, 12, 32), "too-large"),
        ((1080, 4, 4 * 2 ** 1100, 2), "band-overlap"),   # 2 m s' >= n, s' past the float range
        ((22, 1, 1, 11), "band-overlap"),             # the tie n = 2 m s'
        ((2 ** 62, 1, 2 ** 40, 2), "too-large"),      # 2^39 bands
    ])
    def test_boundary_is_a_coded_error(self, args, code):
        with pytest.raises(ValidationError) as exc:
            build_band_plan(*args)
        assert exc.value.code == code

    def test_huge_n_with_small_indices_builds(self):
        # one band at k = 0: its indices are 1..m whatever n is
        plan = build_band_plan(2 ** 2000, 1, 1, 32)
        assert plan.bands[0].fourier_indices.tolist() == list(range(1, 33))
        assert build_band_plan(2 ** 63, 12, 4, 3).bands[-1].fourier_indices.tolist() == [2 ** 62 - k for k in (1, 2, 3)]

    def test_huge_period_spills_before_the_size_check(self):
        with pytest.raises(ValidationError) as exc:
            build_band_plan(1080, 4, 4 * 2 ** 1100, 2, allow_overlap=True)
        assert exc.value.code == "band-overlap" and "band k=1 spills" in exc.value.message

    def test_centres_round_half_to_even(self):
        # n k / s' = 10.5, 11.5 and 2^60 + 1.5, the last past float precision
        assert [b.center_index for b in build_band_plan(42, 4, 1, 2).bands] == [0, 10, 21]
        assert [b.center_index for b in build_band_plan(46, 4, 1, 2).bands] == [0, 12, 23]
        plan = build_band_plan(2 ** 62 + 6, 4, 1, 2)
        assert plan.bands[1].center_index == 2 ** 60 + 2
        assert plan.bands[1].fourier_indices.tolist() == [2 ** 60 + 3, 2 ** 60 + 4, 2 ** 60 + 1, 2 ** 60]


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
