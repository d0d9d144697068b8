"""Applied workflow: bandwidth scanning, fractional prewhitening, residual diagnostics."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import SarfimaError, ValidationError, _check_integer, _check_real, _check_sequence
from .model import SarfimaSpec, SeasonalComponent, levinson, pi_coefficients, _convolve_head
from .spectrum import (build_band_plan, periodogram, resolve_bandwidth, write_csv, _check_period_pair,
                       _check_periods, _series)
from .estimators import MemoryEstimate, gph_estimate

__all__ = ["ScanRow", "BandwidthScan", "bandwidth_scan", "fractional_filter",
           "AcfPacf", "sample_acf_pacf", "scan_to_csv", "acf_to_csv"]


@dataclass(frozen=True)
class ScanRow:
    alpha: float
    m: int
    estimate: MemoryEstimate = None
    error: str = None


@dataclass(frozen=True)
class BandwidthScan:
    rows: tuple


def bandwidth_scan(series, s1: int, s2: int, alphas) -> BandwidthScan:
    """One gph_estimate per bandwidth m = floor(n^alpha).

    Alphas must be finite real numbers (``bad-bandwidth``), strictly
    increasing inside (0, 1), and the periods must admit a band plan.  A row
    that cannot be estimated (m below 2, band overlap, degenerate
    regression) is recorded with its error code and the scan continues.
    """
    alphas = [_check_real(a, "bad-bandwidth", "alpha") for a in _check_sequence(alphas, "bad-alphas", "alphas")]
    if not alphas:
        raise ValidationError("bad-alphas", "need at least one alpha")
    if any(not 0 < a < 1 for a in alphas):
        raise ValidationError("bad-alphas", "alphas must lie strictly inside (0, 1)")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValidationError("bad-alphas", "alphas must be strictly increasing")
    _check_period_pair(s1, s2)   # bad periods fail the scan, not each row
    x = _series(series)
    pg = periodogram(x)
    n = len(x)
    rows = []
    for alpha in alphas:
        m = resolve_bandwidth(n, max(s1, s2), alpha=alpha)
        try:
            plan = build_band_plan(n, s1, s2, m)
            est = gph_estimate(pg, plan, s1, s2)
            rows.append(ScanRow(alpha=alpha, m=m, estimate=est))
        except SarfimaError as exc:
            rows.append(ScanRow(alpha=alpha, m=m, error=exc.code))
    return BandwidthScan(rows=tuple(rows))


def fractional_filter(series, d_hat, periods) -> np.ndarray:
    """Remove estimated memory: nu_hat_t = sum_{j=0}^{t-1} pi*_j x_{t-j}.

    Applies the combined filter prod (1 - B^s_i)^(d_i) truncated at the
    available history (no pre-sample values, no backcasting), so the output
    has the same length as the input and early values carry start-up bias.
    The first n terms of x * a * b are the first n terms of (the first n of
    x * a) * b, so each component's expansion is applied in turn by one FFT
    convolution, in O(n log n), and the product pi* is never built.
    """
    x = _series(series)
    d_hat = np.atleast_1d(d_hat).tolist()
    periods = _check_periods(*np.atleast_1d(periods).tolist())
    if len(d_hat) != len(periods):
        raise ValidationError("bad-filter", f"{len(d_hat)} memories for {len(periods)} periods")
    # compared exactly, so that an int past the float range fails here; a NaN
    # or a value that is not a real number fails the component's rule
    if any(isinstance(d, numbers.Real) and abs(d) >= 1 for d in d_hat):
        raise ValidationError("bad-filter", "each |d| must be < 1 for the truncated filter")
    spec = SarfimaSpec(components=tuple(SeasonalComponent(s, d) for s, d in zip(periods, d_hat)))
    for comp in spec.components:
        x = _convolve_head(x, pi_coefficients(comp.memory, comp.period, len(x) - 1))
    return x


@dataclass(frozen=True)
class AcfPacf:
    lags: np.ndarray   # 1..max_lag
    acf: np.ndarray
    pacf: np.ndarray
    band: float        # +-1.96/sqrt(n)


def sample_acf_pacf(series, max_lag: int) -> AcfPacf:
    """Biased-divisor sample ACF and Durbin-Levinson PACF for lags 1..max_lag."""
    x = _series(series)
    n = len(x)
    max_lag = _check_integer(max_lag, 1, "bad-lag", f"max_lag at n={n}", (n + 1) // 2)
    xc = x - x.mean()
    c0 = float(xc @ xc) / n
    if c0 <= 0:
        raise ValidationError("zero-variance", "constant series has no ACF")
    acf = np.array([float(xc[:-h] @ xc[h:]) / n / c0 for h in range(1, max_lag + 1)])

    pacf = np.zeros(max_lag)
    for t, (kappa, _, v) in enumerate(levinson(np.concatenate([[1.0], acf])), start=1):
        pacf[t - 1] = kappa
        if v <= 0:   # degenerate sample autocorrelations: later lags stay 0
            break
    return AcfPacf(lags=np.arange(1, max_lag + 1), acf=acf, pacf=pacf,
                   band=1.96 / math.sqrt(n))


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def scan_to_csv(scan: BandwidthScan, path):
    """Rows `alpha,m,d1_hat,d2_hat,var_d1,var_d2,error`: a failed row leaves
    the estimate blank and names its error code, a fitted row the reverse."""
    def row(r):
        if r.estimate is None:
            return (float(r.alpha), r.m, None, None, None, None, r.error)
        est = r.estimate
        return (float(r.alpha), r.m, *est.d_hat.tolist(), *np.diag(est.asymptotic_cov).tolist(), None)

    write_csv(path, ("alpha", "m", "d1_hat", "d2_hat", "var_d1", "var_d2", "error"),
              map(row, scan.rows))


def acf_to_csv(res: AcfPacf, path):
    write_csv(path, ("lag", "acf", "pacf", "band"),
              ((lag, a, p, res.band) for lag, a, p in
               zip(res.lags.tolist(), res.acf.tolist(), res.pacf.tolist())))
