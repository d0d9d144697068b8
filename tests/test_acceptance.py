"""End-to-end acceptance: replication-study targets and numeric invariants.

Each test prints one PASS/FAIL line (repeated in the terminal summary).
The variance-law check (criterion 4) measures a known finite-sample
inflation of the band-regression variance at n = 1080 and is expected to
fail until much larger sample sizes; it is kept red on purpose rather than
loosened.
"""
import math
import time

import numpy as np
import pytest

from conftest import record_acceptance
from sarfima import (ArmaFactor, EstimatorDef, McConfig, Periodogram, SarfimaSpec,
                     SeasonalComponent, SimConfig, WhittleTemplate,
                     asymptotic_cov_matrix, build_band_plan,
                     combined_filter_coefficients, design, fractional_filter,
                     gph_estimate, gph_T_bandwidth,
                     periodogram, pi_coefficients, run_mc, simulate,
                     spectral_density, standardized_sample)

MASTER = 20260826
N = 1080
#: every path here is drawn by the Durbin-Levinson sampler, which the
#: recorded acceptance values were measured on
METHOD = "exact_dl"


@pytest.fixture(scope="module")
def annual_quarterly_gph_2000():
    """2000 replications of the two-period design, band OLS at m = n^0.5.

    Criterion 2 reads the first 500 rows (identical to a standalone 500-rep
    run because replication seeds derive from (master, rep)); criterion 6
    standardizes the full sample.
    """
    spec = SarfimaSpec(components=(SeasonalComponent(1, 0.1),
                                   SeasonalComponent(4, 0.3)))
    cfg = McConfig(spec=spec,
                   estimators=(EstimatorDef(name="gph", kind="gph_multi", alpha=0.5),),
                   reps=2000, n=N, master_seed=MASTER, method=METHOD)
    return run_mc(cfg)


def test_criterion_1_single_period_replication():
    t0 = time.time()
    summary = run_mc(design("table1", master_seed=MASTER, reps=500, method=METHOD))
    elapsed = time.time() - t0

    gph_t, _, _, ft = summary.results
    mean_ok = 0.28 <= gph_t.mean[0] <= 0.32
    mse_ok = 0.0012 / 2.5 <= gph_t.mse[0] <= 0.0012 * 2.5
    ft_ok = 0.27 <= ft.mean[0] <= 0.31
    time_ok = elapsed < 15 * 60
    ok = mean_ok and mse_ok and ft_ok and time_ok
    record_acceptance(
        1, "single-period replication", ok,
        f"gph_T mean={gph_t.mean[0]:.4f} mse={gph_t.mse[0]:.5f}, "
        f"ft mean={ft.mean[0]:.4f}, {elapsed:.0f}s")
    assert mean_ok and mse_ok and ft_ok and time_ok


def test_criterion_2_two_period_correlation(annual_quarterly_gph_2000):
    est = annual_quarterly_gph_2000.results[0].estimates[:500]
    means = est.mean(axis=0)
    corr = float(np.corrcoef(est.T)[0, 1])
    corr_ok = -0.70 <= corr <= -0.30
    mean_ok = abs(means[0] - 0.1135) <= 0.04 and abs(means[1] - 0.2995) <= 0.04
    ok = corr_ok and mean_ok
    record_acceptance(
        2, "two-period correlation", ok,
        f"corr={corr:.4f}, means=({means[0]:.4f}, {means[1]:.4f})")
    assert corr_ok and mean_ok


def test_criterion_3_misspecification_direction():
    # data carry a phi_4 = 0.8 short-memory factor; the fitted template has
    # no AR term and a wide memory box, so the quarterly memory estimate
    # must absorb the AR peak and blow past the stationary region
    spec = SarfimaSpec(components=(SeasonalComponent(1, 0.1),
                                   SeasonalComponent(4, 0.3)),
                       ar_factors=(ArmaFactor(4, (0.8,)),))
    template = WhittleTemplate.pure([1, 4], d_box=1.45)
    cfg = McConfig(spec=spec,
                   estimators=(EstimatorDef(name="ft_misspec", kind="whittle",
                                            template=template),),
                   reps=300, n=N, master_seed=MASTER, method=METHOD)
    (res,) = run_mc(cfg).results
    d2_ok = res.mean[1] > 0.8
    d1_ok = abs(res.mean[0] - 0.1) <= 0.05
    ok = d2_ok and d1_ok
    record_acceptance(
        3, "misspecification direction", ok,
        f"means=({res.mean[0]:.4f}, {res.mean[1]:.4f}), failures={res.failure_count}")
    assert d2_ok and d1_ok


def test_criterion_4_band_variance_law():
    # empirical variance of the one-parameter band estimator against the
    # asymptotic slope-variance pi^2/(24 s m) at both bandwidth rules;
    # expected red: the band design sums at n = 1080 are far from their
    # limits and inflate the variance by ~1.4x at every bandwidth
    spec = SarfimaSpec(components=(SeasonalComponent(4, 0.3),))
    m_sqrt = int(N ** 0.5)
    m_t = gph_T_bandwidth(N, 4)
    cfg = McConfig(spec=spec,
                   estimators=(EstimatorDef(name="m_sqrt", kind="gph_single", m=m_sqrt),
                               EstimatorDef(name="m_T", kind="gph_single", use_gph_T=True)),
                   reps=1000, n=N, master_seed=MASTER, method=METHOD)
    summary = run_mc(cfg)
    ratios = {}
    for res, m in zip(summary.results, (m_sqrt, m_t)):
        est = res.estimates[:, 0]
        ratios[res.name] = float(np.var(est)) / (math.pi ** 2 / (24 * 4 * m))
    ok = all(0.75 <= r <= 1.25 for r in ratios.values())
    record_acceptance(
        4, "band variance law", ok,
        f"var ratio m={m_sqrt}: {ratios['m_sqrt']:.3f}, m={m_t}: {ratios['m_T']:.3f} "
        f"(target 1 +- 0.25)")
    assert ok, (
        "empirical variance exceeds the asymptotic law at n = 1080: "
        f"ratios {ratios}; the band design sums converge too slowly for this "
        "n and the excess matches what the replication mse tables imply")


def test_criterion_5_covariance_matrix_exact():
    m = 44
    cov = asymptotic_cov_matrix(12, 4, m)
    scale = math.pi ** 2 / (6 * m)
    # (4 [[12, 4], [4, 4]])^-1 = [[1/32, -1/32], [-1/32, 3/32]], all entries
    # exact binary fractions, so equality is exact
    expect = scale * np.array([[1 / 32, -1 / 32], [-1 / 32, 3 / 32]])
    ok = bool(np.array_equal(cov, expect))
    record_acceptance(5, "covariance matrix rational oracle", ok,
                      f"entries {cov.ravel().tolist()}")
    assert ok


def test_criterion_6_normality_shape(annual_quarterly_gph_2000):
    est = annual_quarterly_gph_2000.results[0].estimates
    stats = []
    ok = True
    for comp in (0, 1):
        _, moments = standardized_sample(est, component=comp)
        stats.append((moments["skewness"], moments["excess_kurtosis"]))
        ok = ok and abs(moments["skewness"]) < 0.2 and abs(moments["excess_kurtosis"]) < 0.5
    record_acceptance(
        6, "normality shape", ok,
        "skew/exkurt " + ", ".join(f"d{i+1}: {s:.3f}/{k:.3f}" for i, (s, k) in enumerate(stats)))
    assert ok


def test_criterion_7_filter_roundtrip():
    spec = SarfimaSpec(components=(SeasonalComponent(4, 0.1),
                                   SeasonalComponent(12, 0.3)))
    reps, hits = 200, 0
    plan = build_band_plan(N, 4, 12, int(N ** 0.5))
    from sarfima import derive_rep_seed
    for rep in range(reps):
        x = simulate(SimConfig(spec=spec, n=N, seed=derive_rep_seed(MASTER, rep), method=METHOD))
        resid = fractional_filter(x, [0.1, 0.3], [4, 12])
        est = gph_estimate(periodogram(resid), plan, 4, 12)
        se = est.standard_errors()
        if abs(est.d_hat[0]) < 2 * se[0] and abs(est.d_hat[1]) < 2 * se[1]:
            hits += 1
    frac = hits / reps
    ok = frac >= 0.90
    record_acceptance(7, "filter roundtrip", ok, f"both |d_hat| < 2 se in {frac:.1%} of reps")
    assert ok, (
        f"joint 2-se coverage {frac:.1%} < 90%: per-component coverage is fine "
        f"(~93-94%) but the sampling sd exceeds the asymptotic se by ~8-20% at "
        f"n=1080 (same finite-sample inflation criterion 4 measures), and the "
        f"joint requirement compounds the two shortfalls; no bandwidth in "
        f"m=16..44 (with or without dropping startup residuals) reaches 90%"
    )


def test_criterion_8_far_coefficient_magnitude():
    spec = SarfimaSpec(components=(SeasonalComponent(1, 0.1918),
                                   SeasonalComponent(7, 0.1798)))
    coeffs = combined_filter_coefficients(spec, 731)
    val = abs(float(coeffs[731]))
    ok = 1e-7 <= val <= 1e-5
    record_acceptance(8, "filter coefficient magnitude", ok, f"|pi*_731| = {val:.3e}")
    assert ok, (
        f"|pi*_731| = {val:.3e} lies above the required window [1e-7, 1e-5]: "
        "the value is confirmed by a 40-digit arbitrary-precision expansion of "
        "the same product, so the window appears to assume both memory "
        "parameters at half these values (which yields -3.04e-6, inside it)"
    )


def test_criterion_9_property_suite():
    failures = []

    # Parseval identity to 1e-10
    spec = SarfimaSpec(components=(SeasonalComponent(4, 0.3),))
    x = simulate(SimConfig(spec=spec, n=N, seed=MASTER, method=METHOD))
    pg = periodogram(x)
    parseval = abs(2 * np.pi / N * pg.ordinates.sum() - np.mean((x - x.mean()) ** 2))
    if parseval > 1e-10:
        failures.append(f"parseval {parseval:.2e}")

    # exact recovery of d from noise-free log-linear ordinates to 1e-10
    spec2 = SarfimaSpec(components=(SeasonalComponent(4, 0.3),
                                    SeasonalComponent(12, 0.1)))
    lam = 2 * np.pi * np.arange(1, N) / N
    folded = np.minimum(lam, 2 * np.pi - lam)
    ideal = Periodogram(n=N, ordinates=np.array(
        [spectral_density(spec2, la) for la in folded]))
    est = gph_estimate(ideal, build_band_plan(N, 12, 4, 30), 4, 12)
    rec_err = max(abs(est.d_hat[0] - 0.3), abs(est.d_hat[1] - 0.1))
    # single-band recovery needs a single-period density; with a second
    # seasonal period present the omitted regressor biases the slope
    ideal_single = Periodogram(n=N, ordinates=np.array(
        [spectral_density(spec, la) for la in folded]))
    single = gph_estimate(ideal_single, build_band_plan(N, 4, 4, 40), 4, 4)
    rec_err = max(rec_err, abs(single.d_hat[0] - 0.3))
    if rec_err > 1e-10:
        failures.append(f"noise-free recovery {rec_err:.2e}")

    # pi recursion vs Gamma-ratio oracle to 1e-10 for k <= 200
    d = 0.1918
    pi = pi_coefficients(d, 1, 200)
    oracle = np.array([1.0] + [
        -math.exp(math.lgamma(k - d) - math.lgamma(k + 1) - math.lgamma(-d))
        for k in range(1, 201)])
    pi_err = float(np.max(np.abs(pi - oracle)))
    if pi_err > 1e-10:
        failures.append(f"pi recursion {pi_err:.2e}")

    # acvf_numeric vs the closed form to 1e-4 relative
    from sarfima import acvf_numeric
    d = 0.3
    spec3 = SarfimaSpec(components=(SeasonalComponent(1, d),))
    got = acvf_numeric(spec3, 200)
    h = np.arange(201)
    closed = np.exp(math.lgamma(1 - 2 * d) - math.lgamma(d) - math.lgamma(1 - d)
                    + np.vectorize(math.lgamma)(h + d) - np.vectorize(math.lgamma)(h + 1 - d))
    acvf_err = float(np.max(np.abs(got - closed) / np.abs(closed)))
    if acvf_err > 1e-4:
        failures.append(f"acvf vs closed form {acvf_err:.2e}")

    # fixed-seed bit-reproducibility of simulate and run_mc
    cfg = SimConfig(spec=spec, n=256, seed=4242, method=METHOD)
    sim_ok = np.array_equal(simulate(cfg), simulate(cfg))
    mc_cfg = McConfig(spec=spec,
                      estimators=(EstimatorDef(name="g", kind="gph_single", m=16),),
                      reps=4, n=256, master_seed=77, method=METHOD, self_check=False)
    a, b = run_mc(mc_cfg), run_mc(mc_cfg)
    mc_ok = np.array_equal(a.results[0].estimates, b.results[0].estimates)
    if not (sim_ok and mc_ok):
        failures.append("bit-reproducibility")

    ok = not failures
    record_acceptance(9, "property suite", ok,
                      "; ".join(failures) if failures else
                      f"parseval {parseval:.1e}, recovery {rec_err:.1e}, "
                      f"pi {pi_err:.1e}, acvf {acvf_err:.1e}, seeds exact")
    assert ok, failures
