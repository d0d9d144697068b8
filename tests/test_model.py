import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarfima import (ArmaFactor, SarfimaSpec, SeasonalComponent, ValidationError,
                     acvf_numeric, arma_spectral_density, asymptotic_acvf,
                     check_stationary_invertible, combined_filter_coefficients,
                     enumerate_poles, pi_coefficients, sample_acf_pacf, spec_from_json,
                     spec_to_json, spectral_density)


def gamma_ratio_pi(d, k):
    """pi_k = Gamma(k - d) / (Gamma(k + 1) Gamma(-d)) via lgamma.

    math.lgamma returns log|Gamma|, so the sign of Gamma(-d) (negative for
    d in (0, 1)) is tracked separately.
    """
    if k == 0:
        return 1.0
    if d == 0.0:
        return 0.0
    sign = -1.0 if d > 0 else 1.0
    return sign * math.exp(math.lgamma(k - d) - math.lgamma(k + 1) - math.lgamma(-d))


class TestPiCoefficients:
    @pytest.mark.parametrize("d", [0.3, 0.1, 0.45, -0.2, 0.1918, -0.49])
    def test_matches_gamma_ratio_to_k200(self, d):
        pi = pi_coefficients(d, 1, 200)
        oracle = np.array([gamma_ratio_pi(d, k) for k in range(201)])
        assert np.max(np.abs(pi - oracle)) < 1e-10

    def test_first_terms_exact(self):
        d = 0.3
        pi = pi_coefficients(d, 1, 3)
        assert pi[0] == 1.0
        assert pi[1] == -d
        assert pi[2] == pytest.approx(-d * (1 - d) / 2, abs=1e-15)
        assert pi[3] == pytest.approx(-d * (1 - d) * (2 - d) / 6, abs=1e-15)

    def test_seasonal_embedding(self):
        base = pi_coefficients(0.25, 1, 6)
        emb = pi_coefficients(0.25, 4, 24)
        assert np.array_equal(emb[::4], base[:7])
        mask = np.ones(25, bool)
        mask[::4] = False
        assert np.all(emb[mask] == 0.0)

    def test_d_zero_is_identity(self):
        pi = pi_coefficients(0.0, 3, 12)
        expect = np.zeros(13)
        expect[0] = 1.0
        assert np.array_equal(pi, expect)

    @given(d=st.floats(-0.49, 0.49), k=st.integers(1, 150))
    @settings(max_examples=60, deadline=None)
    def test_recursion_step(self, d, k):
        pi = pi_coefficients(d, 1, k)
        if k >= 2:
            assert pi[k] == pytest.approx(pi[k - 1] * (k - 1 - d) / k, rel=1e-12, abs=1e-300)

    def test_rejects_nonfinite_d(self):
        with pytest.raises(ValidationError) as exc:
            pi_coefficients(math.nan, 1, 5)
        assert exc.value.code == "bad-memory"


class TestCombinedFilter:
    def test_is_convolution_of_components(self):
        spec = SarfimaSpec(components=(SeasonalComponent(1, 0.1),
                                       SeasonalComponent(4, 0.3)))
        combo = combined_filter_coefficients(spec, 40)
        manual = np.convolve(pi_coefficients(0.1, 1, 40), pi_coefficients(0.3, 4, 40))[:41]
        assert np.max(np.abs(combo - manual)) < 1e-14

    def test_single_component_reduces_to_pi(self):
        spec = SarfimaSpec(components=(SeasonalComponent(7, 0.18),))
        assert np.array_equal(combined_filter_coefficients(spec, 30),
                              pi_coefficients(0.18, 7, 30))

    @given(d1=st.floats(-0.4, 0.4), d2=st.floats(-0.4, 0.4))
    @settings(max_examples=30, deadline=None)
    def test_inverse_filter_cancels(self, d1, d2):
        # conv(pi(d), pi(-d)) telescopes to the identity up to the truncation tail
        spec = SarfimaSpec(components=(SeasonalComponent(1, d1),
                                       SeasonalComponent(4, d2)))
        neg = SarfimaSpec(components=(SeasonalComponent(1, -d1),
                                      SeasonalComponent(4, -d2)))
        n = 400
        prod = np.convolve(combined_filter_coefficients(spec, n),
                           combined_filter_coefficients(neg, n))[: n // 4]
        ident = np.zeros(n // 4)
        ident[0] = 1.0
        assert np.max(np.abs(prod - ident)) < 1e-6


class TestSpecValidation:
    def test_rejects_bad_period(self):
        with pytest.raises(ValidationError):
            SeasonalComponent(0, 0.3)

    def test_rejects_duplicate_periods(self):
        with pytest.raises(ValidationError):
            SarfimaSpec(components=(SeasonalComponent(4, 0.1),
                                    SeasonalComponent(4, 0.2)))

    def test_rejects_three_components(self):
        with pytest.raises(ValidationError):
            SarfimaSpec(components=(SeasonalComponent(1, 0.1),
                                    SeasonalComponent(4, 0.1),
                                    SeasonalComponent(12, 0.1)))

    @pytest.mark.parametrize("coeffs", [(), (math.nan,)])
    def test_rejects_bad_arma_coeffs(self, coeffs):
        with pytest.raises(ValidationError) as exc:
            ArmaFactor(4, coeffs)
        assert exc.value.code == "bad-arma-coeffs"

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValidationError):
            SarfimaSpec(components=(SeasonalComponent(4, 0.3),),
                        innovation_variance=0.0)

    def test_spec_is_hashable(self):
        a = SarfimaSpec(components=(SeasonalComponent(4, 0.3),))
        b = SarfimaSpec(components=(SeasonalComponent(4, 0.3),))
        assert hash(a) == hash(b) and a == b


class TestValidityRegion:
    def test_interior_point_is_valid(self):
        spec = SarfimaSpec(components=(SeasonalComponent(1, 0.1),
                                       SeasonalComponent(4, 0.3)))
        rep = check_stationary_invertible(spec)
        assert rep.stationary and rep.invertible and rep.violations == ()

    def test_large_single_memory_flagged(self):
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.6),))
        rep = check_stationary_invertible(spec)
        assert not rep.stationary and "|d[0]| >= 1/2" in rep.violations

    def test_memory_sum_boundary_flagged(self):
        # each |d| < 1/2 but the sum reaches the boundary
        spec = SarfimaSpec(components=(SeasonalComponent(1, 0.25),
                                       SeasonalComponent(4, 0.25)))
        rep = check_stationary_invertible(spec)
        assert not rep.stationary and "|d1+d2| >= 1/2" in rep.violations

    def test_explosive_ar_root_flagged(self):
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.1),),
                           ar_factors=(ArmaFactor(1, (1.1,)),))
        rep = check_stationary_invertible(spec)
        assert not rep.stationary
        assert rep.invertible is True
        assert any(v.startswith("ar-roots-inside") for v in rep.violations)

    def test_ma_root_only_breaks_invertibility(self):
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.1),),
                           ma_factors=(ArmaFactor(1, (1.5,)),))
        rep = check_stationary_invertible(spec)
        assert rep.stationary and not rep.invertible

    def test_stable_ar_factor_accepted(self):
        spec = SarfimaSpec(components=(SeasonalComponent(1, 0.1),),
                           ar_factors=(ArmaFactor(4, (0.8,)),))
        assert check_stationary_invertible(spec).stationary


def companion_stationary(lag, c):
    """Per row of c, whether 1 - sum_p c_p z^(p lag) has its roots outside
    the unit circle, by the eigenvalues of the companion matrix of the full
    degree-(q lag) polynomial, and the rows' distance from the circle."""
    q = c.shape[1]
    moduli = []
    for row in c:
        companion = np.eye(q * lag, k=-1)
        companion[0, lag - 1::lag] = row
        moduli.append(np.abs(np.linalg.eigvals(companion)))
    moduli = np.array(moduli)
    return moduli.max(axis=1) < 1, np.abs(moduli - 1).min(axis=1)


class TestStepDownRootTest:
    """The reflection-coefficient test behind ``roots_outside_unit_circle``."""

    @pytest.mark.parametrize("lag", [1, 4, 12])
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_agrees_with_companion_eigenvalues(self, q, lag):
        from sarfima.model import _roots_outside_unit_circle
        rng = np.random.default_rng(1000 * q + lag)
        # rows built from reciprocal roots r of 1 - sum_p c_p w^p: real, or in conjugate pairs
        rows = []
        for _ in range(200):
            radius = rng.uniform(0.2, 1.6, size=(q + 1) // 2)
            angle = rng.uniform(0, np.pi, size=radius.size)
            if q % 2:
                angle[0] = rng.choice([0.0, np.pi])
            r = radius * np.exp(1j * angle)
            r = np.concatenate([r, np.conj(r[1:] if q % 2 else r)])
            rows.append(-np.poly(r)[1:].real)
        c = np.array(rows)
        expected, margin = companion_stationary(lag, c)
        clear = margin > 1e-6
        assert clear.sum() > 150 and 0 < expected[clear].sum() < clear.sum()
        assert np.array_equal(_roots_outside_unit_circle(c)[clear], expected[clear])
        assert [ArmaFactor(lag, tuple(row)).roots_outside_unit_circle() for row in c[clear]] \
            == list(expected[clear])

    @pytest.mark.parametrize("lag", [1, 12])
    def test_one_coefficient_boundary(self, lag):
        inside = np.nextafter(1.0, 0.0)
        for c, ok in ((1.0, False), (-1.0, False), (inside, True), (-inside, True)):
            assert ArmaFactor(lag, (c,)).roots_outside_unit_circle() is ok

    def test_extreme_coefficients_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not ArmaFactor(1, (1e300, 1e300)).roots_outside_unit_circle()
            assert ArmaFactor(1, (0.5, 1e-320)).roots_outside_unit_circle()


def levinson_1d(gamma):
    """The Durbin-Levinson recursion of one sequence, written out with a 1-d
    ``@``: the reference for the row-wise ``levinson``."""
    phi, v = np.empty(0), gamma[0]
    for t in range(1, len(gamma)):
        kappa = (gamma[t] - phi @ gamma[t - 1:0:-1]) / v if t > 1 else gamma[1] / gamma[0]
        phi = np.append(phi - kappa * phi[::-1], kappa)
        v = v * (1.0 - kappa * kappa)
        yield kappa, phi, v


class TestLevinson:
    """One recursion for every Toeplitz system, row by row over a block."""

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_block_rows_are_the_one_sequence_recursion(self, q):
        from sarfima.model import levinson
        rng = np.random.default_rng(q)
        # biased sample autocovariances of rows of any scale: positive definite
        x = rng.standard_normal((64, 4 * q + 8)) * rng.lognormal(0, 3, size=(64, 1))
        n = x.shape[1]
        gamma = np.stack([(x[:, :n - h] * x[:, h:]).sum(axis=1) / n for h in range(q + 1)], axis=1)
        block = list(levinson(gamma))
        assert len(block) == q
        for r, row in enumerate(gamma):
            for (kappa, phi, v), (k1, p1, v1), (k2, p2, v2) in zip(block, levinson_1d(row), levinson(row)):
                assert kappa[r] == k1 == k2 and v[r] == v1 == v2
                assert phi[r].tobytes() == p1.tobytes() == p2.tobytes()
                assert abs(k1) < 1 and v1 > 0
        # the order-q predictor solves the Yule-Walker system
        toeplitz = gamma[:, np.abs(np.subtract.outer(np.arange(q), np.arange(q)))]
        c = block[-1][1]
        assert np.allclose((toeplitz * c[:, None, :]).sum(axis=2), gamma[:, 1:], rtol=1e-10, atol=0)


class TestSpectralDensity:
    def test_white_noise_is_flat(self):
        spec = SarfimaSpec(components=(SeasonalComponent(1, 0.0),),
                           innovation_variance=2.0)
        for lam in (0.1, 1.0, 3.0):
            assert spectral_density(spec, lam) == pytest.approx(2.0 / (2 * np.pi), rel=1e-14)

    @given(lam=st.floats(0.01, 3.1))
    @settings(max_examples=50, deadline=None)
    def test_even_function(self, lam):
        spec = SarfimaSpec(components=(SeasonalComponent(1, 0.1),
                                       SeasonalComponent(4, 0.3)))
        assert spectral_density(spec, lam) == spectral_density(spec, -lam)

    def test_positive_pole_is_infinite(self):
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.3),))
        assert spectral_density(spec, np.pi / 2) == math.inf
        assert spectral_density(spec, 0.0) == math.inf

    def test_negative_memory_zeroes_the_harmonic(self):
        spec = SarfimaSpec(components=(SeasonalComponent(4, -0.3),))
        assert spectral_density(spec, np.pi / 2) == 0.0

    def test_cancelling_exponents_leave_finite_limit(self):
        # d1 + d2 = 0: at the shared harmonic 0 the sin factors cancel and
        # the limit is prod s_i^(-2 d_i)
        spec = SarfimaSpec(components=(SeasonalComponent(1, 0.2),
                                       SeasonalComponent(4, -0.2)))
        expect = (1.0 ** -0.4) * (4.0 ** 0.4) / (2 * np.pi)
        assert spectral_density(spec, 0.0) == pytest.approx(expect, rel=1e-12)

    def test_closed_form_off_poles(self):
        spec = SarfimaSpec(components=(SeasonalComponent(1, 0.1),
                                       SeasonalComponent(4, 0.3)),
                           innovation_variance=1.3)
        lam = 0.7
        expect = 1.3 / (2 * np.pi) * abs(2 * math.sin(lam / 2)) ** -0.2 \
            * abs(2 * math.sin(2 * lam)) ** -0.6
        assert spectral_density(spec, lam) == pytest.approx(expect, rel=1e-13)

    def test_ar_factor_shapes_density(self):
        phi = 0.8
        spec = SarfimaSpec(components=(SeasonalComponent(1, 0.0),),
                           ar_factors=(ArmaFactor(4, (phi,)),))
        lam = 0.9
        expect = 1.0 / (2 * np.pi) / abs(1 - phi * np.exp(4j * lam)) ** 2
        assert spectral_density(spec, lam) == pytest.approx(expect, rel=1e-12)
        assert arma_spectral_density(spec, np.array([lam]))[0] == pytest.approx(expect, rel=1e-12)

    def test_rejects_nonstationary_spec(self):
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.7),))
        with pytest.raises(ValidationError) as exc:
            spectral_density(spec, 1.0)
        assert exc.value.code == "nonstationary-spec"

    def test_rejects_frequency_outside_the_circle(self):
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.3),))
        with pytest.raises(ValidationError) as exc:
            spectral_density(spec, 4.0)
        assert exc.value.code == "bad-frequency"


class TestPoleEnumeration:
    def test_single_quarterly(self):
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.3),))
        poles = enumerate_poles(spec)
        assert np.allclose([p.frequency for p in poles], [0.0, np.pi / 2, np.pi])
        # 0 and pi have no mirror image; the local exponent is d at all three
        assert [p.boundary for p in poles] == [True, False, True]
        assert np.allclose([p.local_exponent for p in poles], [0.3, 0.3, 0.3])

    def test_shared_harmonics_merge_exactly(self):
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.3),
                                       SeasonalComponent(12, 0.1)))
        poles = enumerate_poles(spec)
        assert len(poles) == 7  # 2 pi j / 12, j = 0..6
        assert [p.boundary for p in poles] == [True] + [False] * 5 + [True]
        local = {round(p.frequency, 12): p.local_exponent for p in poles}
        # 0, pi and the shared interior pi/2 (j=3): d1 + d2
        assert local[0.0] == pytest.approx(0.4)
        assert local[round(np.pi, 12)] == pytest.approx(0.4)
        assert local[round(np.pi / 2, 12)] == pytest.approx(0.4)
        # harmonics of 12 alone carry d2 = 0.1
        assert local[round(np.pi / 6, 12)] == pytest.approx(0.1)

    def test_annual_plus_weekly_counts(self):
        spec = SarfimaSpec(components=(SeasonalComponent(1, 0.1),
                                       SeasonalComponent(7, 0.2)))
        poles = enumerate_poles(spec)
        # 0, and 2 pi j / 7 for j = 1..3
        assert len(poles) == 4
        assert poles[0].boundary and poles[0].local_exponent == pytest.approx(0.1 + 0.2)

    @given(lam=st.floats(0.001, math.pi - 0.001))
    @settings(max_examples=80, deadline=None)
    def test_pole_product_identity(self, lam):
        # prod over poles of |2 sin((lam-lam_p)/2) 2 sin((lam+lam_p)/2)|^(-2 d_p)
        # equals the seasonal part prod_i |2 sin(lam s_i/2)|^(-2 d_i)
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.3),
                                       SeasonalComponent(12, 0.1)))
        poles = enumerate_poles(spec)
        if min(abs(p.frequency - lam) for p in poles) < 1e-4:
            return  # too close to a harmonic for a well-conditioned check
        lhs = 1.0
        for p in poles:
            # at 0 and pi the two sin factors coincide, so each takes half the exponent
            e = p.local_exponent / 2 if p.boundary else p.local_exponent
            f = p.frequency
            lhs *= abs(2 * math.sin((lam - f) / 2) * 2 * math.sin((lam + f) / 2)) ** (-2 * e)
        rhs = abs(2 * math.sin(2 * lam)) ** -0.6 * abs(2 * math.sin(6 * lam)) ** -0.2
        assert lhs == pytest.approx(rhs, rel=1e-8)


    def test_table_owners_are_exact(self):
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.3),
                                       SeasonalComponent(6, 0.1)))
        poles = enumerate_poles(spec)
        assert [p.fraction for p in poles] == [Fraction(0), Fraction(1, 6), Fraction(1, 4),
                                               Fraction(1, 3), Fraction(1, 2)]
        by_fraction = {p.fraction: p for p in poles}
        shared, only_six = by_fraction[Fraction(1, 2)], by_fraction[Fraction(1, 3)]
        assert [c.period for c in shared.owners] == [4, 6]
        assert shared.boundary and shared.local_exponent == pytest.approx(0.4)
        assert [c.period for c in only_six.owners] == [6]
        assert not only_six.boundary and only_six.local_exponent == pytest.approx(0.1)
        assert poles[-1] is shared and shared.frequency == math.pi
        # pi/2 is a harmonic of 4 only: the period-6 sin factor stays finite there
        assert [c.period for c in by_fraction[Fraction(1, 4)].owners] == [4]


class TestAsymptoticAcvf:
    def test_matches_arfima_tail(self):
        # gamma(h) = Gamma(1-2d) Gamma(h+d) / (Gamma(d) Gamma(1-d) Gamma(h+1-d))
        d = 0.3
        spec = SarfimaSpec(components=(SeasonalComponent(1, d),))
        for h in (200, 500):
            exact = math.exp(math.lgamma(1 - 2 * d) + math.lgamma(h + d)
                             - math.lgamma(d) - math.lgamma(1 - d) - math.lgamma(h + 1 - d))
            assert asymptotic_acvf(spec, h) == pytest.approx(exact, rel=2e-3)

    def test_seasonal_oscillation_pattern(self):
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.3),))
        # power concentrates on multiples of the period
        on = asymptotic_acvf(spec, 400)
        off = asymptotic_acvf(spec, 402)
        assert on > 0 and abs(on) > 5 * abs(off)

    def test_lag_zero_rejected(self):
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.3),))
        with pytest.raises(ValidationError) as exc:
            asymptotic_acvf(spec, 0)
        assert exc.value.code == "bad-lag"

    def test_no_positive_memory_rejected(self):
        spec = SarfimaSpec(components=(SeasonalComponent(4, -0.3),))
        with pytest.raises(ValidationError) as exc:
            asymptotic_acvf(spec, 100)
        assert exc.value.code == "no-positive-memory"


@pytest.mark.parametrize("call", [
    lambda spec: pi_coefficients(0.3, 4, 20.0),
    lambda spec: pi_coefficients(0.3, 4, -1),
    lambda spec: combined_filter_coefficients(spec, 20.0),
    lambda spec: combined_filter_coefficients(spec, True),
    lambda spec: asymptotic_acvf(spec, 2.5),
    lambda spec: asymptotic_acvf(spec, True),
    lambda spec: asymptotic_acvf(spec, 12.0),
    lambda spec: acvf_numeric(spec, 20.0),
    lambda spec: acvf_numeric(spec, -1),
    lambda spec: sample_acf_pacf(np.arange(64.0), 12.0),
    lambda spec: sample_acf_pacf(np.arange(64.0), True),
])
def test_non_integer_lag_rejected(call):
    # a lag that is not an integer ends in bad-lag, never truncated or coerced
    with pytest.raises(ValidationError) as exc:
        call(SarfimaSpec(components=(SeasonalComponent(4, 0.3),)))
    assert exc.value.code == "bad-lag"


def test_numpy_integer_period_and_lag_stored_as_int():
    spec = SarfimaSpec(components=(SeasonalComponent(np.int64(4), 0.3),),
                       ar_factors=(ArmaFactor(np.int32(12), (0.5,)),))
    assert type(spec.components[0].period) is int and type(spec.ar_factors[0].lag) is int
    assert spec_from_json(spec_to_json(spec)) == spec


class TestSpecJson:
    def test_round_trip(self):
        spec = SarfimaSpec(components=(SeasonalComponent(1, 0.1),
                                       SeasonalComponent(4, 0.3)),
                           ar_factors=(ArmaFactor(4, (0.8,)),),
                           ma_factors=(ArmaFactor(1, (-0.2673,)),),
                           innovation_variance=1.7)
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_schema_field_names(self):
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.3),))
        doc = json.loads(spec_to_json(spec))
        assert set(doc) == {"components", "ar", "ma", "sigma2"}
        assert doc["components"] == [{"period": 4, "d": 0.3}]

    def test_bad_json_rejected(self):
        with pytest.raises(ValidationError) as exc:
            spec_from_json("{not json")
        assert exc.value.code == "bad-json"

    def test_missing_components_rejected(self):
        with pytest.raises(ValidationError) as exc:
            spec_from_json('{"sigma2": 1.0}')
        assert exc.value.code == "bad-spec-json"

    def test_non_object_rejected(self):
        with pytest.raises(ValidationError) as exc:
            spec_from_json("[1, 2]")
        assert exc.value.code == "bad-spec-json"

    @pytest.mark.parametrize("bad", [dict(d="0.3"), dict(d=True), dict(sigma2=True),
                                     dict(sigma2="1.0"), dict(coeff="0.5"), dict(coeff=False)])
    def test_non_number_values_rejected(self, bad):
        # json.loads gives bool and str here; neither may be coerced to a float
        values = {"d": 0.3, "sigma2": 1.0, "coeff": 0.5, **bad}
        doc = {"components": [{"period": 4, "d": values["d"]}],
               "ar": [{"lag": 4, "coeffs": [values["coeff"]]}], "sigma2": values["sigma2"]}
        with pytest.raises(ValidationError) as exc:
            spec_from_json(json.dumps(doc))
        assert exc.value.code == "bad-spec-json"

    def test_integers_are_numbers(self):
        doc = {"components": [{"period": 4, "d": 0}], "ar": [{"lag": 4, "coeffs": [0]}], "sigma2": 2}
        spec = spec_from_json(json.dumps(doc))
        assert spec.memories == (0.0,) and spec.ar_factors[0].coeffs == (0.0,)
        assert spec.innovation_variance == 2.0

    @pytest.mark.parametrize("value", [4.7, True, "4", 12.0, 4.5])
    def test_non_integral_period_and_lag_rejected(self, value):
        # json.loads gives float, bool and str here; none may be coerced to an int
        period_doc = {"components": [{"period": value, "d": 0.3}]}
        with pytest.raises(ValidationError) as exc:
            spec_from_json(json.dumps(period_doc))
        assert exc.value.code == "bad-period"
        lag_doc = {"components": [{"period": 4, "d": 0.3}],
                   "ar": [{"lag": value, "coeffs": [0.5]}]}
        with pytest.raises(ValidationError) as exc:
            spec_from_json(json.dumps(lag_doc))
        assert exc.value.code == "bad-arma-lag"


def test_convolve_head_is_fftconvolve_bitwise():
    from scipy.signal import fftconvolve
    from sarfima.model import _convolve_head
    rng = np.random.default_rng(20101125)
    for _ in range(200):
        x = rng.standard_normal(int(rng.integers(1, 2500)))
        c = rng.standard_normal(int(rng.integers(1, 6000)))
        assert np.array_equal(_convolve_head(x, c), fftconvolve(x, c)[: len(x)])
