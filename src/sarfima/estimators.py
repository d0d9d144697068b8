"""Memory-parameter estimators.

Two families:

* log-periodogram OLS on the seasonal-harmonic bands (multi-band two-parameter
  regression and its single-parameter specialization), with the asymptotic
  covariance built from the band design matrix Q;
* the Fox-Taqqu / Whittle estimator minimizing the frequency-domain
  approximate Gaussian likelihood over a parametric spectral template.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .model import ArmaFactor, SarfimaSpec, SeasonalComponent, enumerate_poles
from .spectrum import (Periodogram, BandPlan, build_band_plan, periodogram, _check_bandwidth,
                       _check_period_pair)

__all__ = ["MemoryEstimate", "WhittleFit", "WhittleTemplate", "gph_estimate",
           "gph_single", "asymptotic_cov_matrix", "whittle_estimate",
           "estimate_to_json", "whittle_fit_to_json"]

#: regressors more collinear than this abort the two-parameter regression
COLLINEARITY_TOL = 1e-10


@dataclass(frozen=True)
class MemoryEstimate:
    d_hat: np.ndarray            # length 1 or 2, caller component order
    asymptotic_cov: np.ndarray   # matching square matrix
    m: int
    method: str                  # gph_multi | gph_single | whittle
    band_count: int
    periods: tuple               # caller order, for serialization/reporting

    def standard_errors(self) -> np.ndarray:
        return np.sqrt(np.diag(self.asymptotic_cov))


@dataclass(frozen=True)
class WhittleFit:
    d_hat: np.ndarray
    short_memory: dict           # {"ar": [(lag, coeffs)], "ma": [...], "sigma2": float}
    objective: float
    converged: bool
    iterations: int              # accepted Newton steps, summed over both descents of a restarted fit
    periods: tuple


# ---------------------------------------------------------------------------
# asymptotic covariance of the band-OLS memory estimates
# ---------------------------------------------------------------------------

def _band_deltas(sp: int):
    """delta_k over k = 0..floor(s'/2)."""
    return [1 if (k == 0 or 2 * k == sp) else 2 for k in range(sp // 2 + 1)]


def asymptotic_cov_matrix(s1: int, s2, m: int) -> np.ndarray:
    """Asymptotic covariance (pi^2 / 6m) Q^-1 of the band OLS estimator.

    Q = 4 [[sum_k delta_k, sum_{k in I} delta_k], [sym., sum_{k in I} delta_k]]
    where I = {0} u {k : k s2 = 0 mod s'}; the inverse is carried out in
    exact rational arithmetic before the pi^2/(6m) scaling.  A single-period
    call (s2 = None or s2 = s1) returns the 1x1 matrix [[pi^2 / (24 s m)]].
    Built once per argument tuple; the shared matrix is read-only.
    """
    _check_bandwidth(m)
    return _asymptotic_cov(s1, s2, m)


@functools.lru_cache(maxsize=64)
def _asymptotic_cov(s1: int, s2, m: int) -> np.ndarray:
    if m < 1:
        raise ValidationError("m-too-small", f"bandwidth must be >= 1, got {m}")
    if s2 is None or s1 == s2:
        return _frozen(np.array([[math.pi ** 2 / (24 * s1 * m)]]))
    _check_period_pair(s1, s2)
    sp, ss = max(s1, s2), min(s1, s2)
    deltas = _band_deltas(sp)
    total = sum(deltas)
    informative = sum(d for k, d in enumerate(deltas) if (k * ss) % sp == 0)
    q11, q12, q22 = 4 * total, 4 * informative, 4 * informative
    det = q11 * q22 - q12 * q12
    if det == 0:
        raise ValidationError("singular-q", "Q matrix singular (equal periods?)")
    inv = [[Fraction(q22, det), Fraction(-q12, det)],
           [Fraction(-q12, det), Fraction(q11, det)]]
    scale = math.pi ** 2 / (6 * m)
    cov = np.array([[scale * float(inv[0][0]), scale * float(inv[0][1])],
                    [scale * float(inv[1][0]), scale * float(inv[1][1])]])
    if s1 < s2:  # caller listed the smaller period first
        cov = cov[::-1, ::-1]
    return _frozen(cov)


def _frozen(*arrays):
    """Mark cached design arrays read-only; returns the first one."""
    for a in arrays:
        a.setflags(write=False)
    return arrays[0]


# ---------------------------------------------------------------------------
# log-periodogram OLS
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _band_design(plan: BandPlan, regressor_periods: tuple):
    """The data-free half of the band regression, once per (plan, periods):
    zero-based ordinate positions pooled across bands, each band's slice of
    them, and the regressors z_i = -2 log|2 sin(s_i lambda / 2)| centred by
    their band means.  The arrays are read-only."""
    positions = np.concatenate([band.fourier_indices for band in plan.bands]) - 1
    ends = np.cumsum([len(band.fourier_indices) for band in plan.bands]).tolist()
    slices = tuple(slice(a, b) for a, b in zip([0] + ends[:-1], ends))
    zs = []
    for s in regressor_periods:
        xs = []
        for band in plan.bands:
            lam = 2 * np.pi * band.fourier_indices / plan.n
            x = np.log(np.abs(2 * np.sin(s * lam / 2)))
            xs.append(x - x.mean())
        zs.append(-2.0 * np.concatenate(xs))
    _frozen(positions, *zs)
    return positions, slices, tuple(zs)


def gph_estimate(pgram: Periodogram, plan: BandPlan, s1: int, s2: int) -> MemoryEstimate:
    """Multi-band log-periodogram regression, one memory per distinct period.

    Within every band around a harmonic of s' the response log I and the
    regressors z_i = -2 log|2 sin(s_i lambda / 2)| are centered by their band
    means (absorbing the band intercepts), then pooled into one no-intercept
    least-squares fit.  d_hat is reported in the caller's (s1, s2) order with
    asymptotic covariance (pi^2/6m) Q^-1.  With s1 == s2 (a one-period plan)
    the fit has the single regressor, d_hat = (z.y)/(z.z), and the variance
    pi^2 / (24 s m).  Only the response is built per call: the regressors
    depend on the plan alone and are shared.
    """
    if {s1, s2} != {plan.s_prime, plan.s_small}:
        raise ValidationError("plan-mismatch",
                              f"plan was built for periods {(plan.s_prime, plan.s_small)}, got {(s1, s2)}")
    if plan.n != pgram.n:
        raise ValidationError("plan-mismatch",
                              f"plan was built for n={plan.n}, periodogram has n={pgram.n}")
    periods = (s1,) if s1 == s2 else (s1, s2)
    positions, slices, zs = _band_design(plan, periods)
    I = pgram.ordinates[positions]
    if np.any(I <= 0):
        band = next(b for b, sl in zip(plan.bands, slices) if np.any(I[sl] <= 0))
        raise ValidationError("zero-ordinate",
                              f"non-positive periodogram ordinate in band k={band.k}")
    y = np.log(I)
    for sl in slices:
        y[sl] -= y[sl].mean()
    if len(periods) == 1:
        z = zs[0]
        g = z @ z
        if g <= 0:
            raise ValidationError("rank-deficient", "degenerate regressor in single-period fit")
        d_hat = [(z @ y) / g]
    else:
        z1, z2 = zs
        g11, g22, g12 = z1 @ z1, z2 @ z2, z1 @ z2
        if 1.0 - g12 * g12 / (g11 * g22) < COLLINEARITY_TOL:
            raise ValidationError(
                "rank-deficient",
                f"regressors collinear for periods {(s1, s2)} over {len(plan.bands)} bands "
                f"(s'={plan.s_prime}); cannot separate d1 from d2")
        rhs1, rhs2 = z1 @ y, z2 @ y
        det = g11 * g22 - g12 * g12
        d_hat = [(g22 * rhs1 - g12 * rhs2) / det, (g11 * rhs2 - g12 * rhs1) / det]
    return MemoryEstimate(d_hat=np.array(d_hat), asymptotic_cov=asymptotic_cov_matrix(s1, s2, plan.m),
                          m=plan.m, method="gph_single" if len(periods) == 1 else "gph_multi",
                          band_count=len(plan.bands), periods=periods)


def gph_single(pgram: Periodogram, s: int, m: int, allow_overlap: bool = False) -> MemoryEstimate:
    """Single-parameter band regression around the harmonics of one period s:
    ``gph_estimate`` on the one-period plan."""
    return gph_estimate(pgram, build_band_plan(pgram.n, s, s, m, allow_overlap=allow_overlap), s, s)


# ---------------------------------------------------------------------------
# Whittle / Fox-Taqqu
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WhittleTemplate:
    """Parametric spectral shape with per-parameter free/fixed markers.

    ``spec`` supplies the structure and the starting/fixed values; ``free_d``
    marks which component memories are estimated, ``free_ar``/``free_ma``
    mark whole factors.  ``d_box`` is a hard constraint |d| <= d_box on each
    free memory; the default 0.49 keeps fits inside the stationary region,
    misspecification studies may widen it.
    """

    spec: SarfimaSpec
    free_d: tuple = None
    free_ar: tuple = None
    free_ma: tuple = None
    d_box: float = 0.49

    def __post_init__(self):
        # tuples, so that a template is hashable and keys the cached Whittle design
        for name, parts in (("free_d", self.spec.components), ("free_ar", self.spec.ar_factors),
                            ("free_ma", self.spec.ma_factors)):
            markers = getattr(self, name)
            object.__setattr__(self, name, tuple(True for _ in parts) if markers is None else tuple(markers))
        if not all(isinstance(flag, bool) for markers in (self.free_d, self.free_ar, self.free_ma)
                   for flag in markers):
            raise ValidationError("bad-template", "free-parameter markers must be true or false")
        if len(self.free_d) != len(self.spec.components) \
                or len(self.free_ar) != len(self.spec.ar_factors) \
                or len(self.free_ma) != len(self.spec.ma_factors):
            raise ValidationError("bad-template", "free-parameter markers do not match the spec shape")
        if not (0 < self.d_box < math.inf):
            raise ValidationError("bad-template", f"d_box must be positive and finite, got {self.d_box}")
        if not any(self.free_d) and not any(self.free_ar) and not any(self.free_ma):
            raise ValidationError("bad-template", "template has no free parameters")

    @classmethod
    def pure(cls, periods, d_box: float = 0.49) -> "WhittleTemplate":
        """All-free fractional template with no ARMA part."""
        comps = tuple(SeasonalComponent(int(s), 0.0) for s in periods)
        return cls(spec=SarfimaSpec(components=comps), d_box=d_box)


#: Newton steps allowed before a Whittle fit is reported as not converged
WHITTLE_MAX_STEPS = 100
#: bound on the Newton decrement g'H^-1 g of a converged fit: a few ulps of F ~ 1
WHITTLE_TOL = 2e-15


def _gph_start(pg: Periodogram, template: WhittleTemplate):
    """Starting memories from the band OLS estimator; zeros when unusable."""
    periods = template.spec.periods
    m = max(2, int(pg.n ** 0.5))
    try:
        plan = build_band_plan(pg.n, periods[0], periods[-1], m)
        return [float(v) for v in gph_estimate(pg, plan, periods[0], periods[-1]).d_hat]
    except ValidationError:
        return [0.0] * len(periods)


@functools.lru_cache(maxsize=16)
def _whittle_design(n: int, template: WhittleTemplate):
    """The data-free half of a Whittle fit, once per (n, template): the mask
    of usable Fourier indices, the Jacobian jac_d of log g in the free
    memories, the fixed part ``base`` of log g, each free factor's
    (sign, slice of theta, z, lag), the factors' starting coefficients and
    the box |theta| <= box.  The arrays are read-only.

    log g = base + jac_d @ d + sum of sign * ln|t|^2 over the free factors,
    t = 1 - sum_p c_p z_p with z_p = exp(-i lambda p lag), sign -1 for AR
    and +1 for MA; base holds -ln(2 pi) and every fixed parameter.
    """
    spec0 = template.spec
    j = np.arange(1, n)
    lam = 2 * np.pi * j / n
    folded = 2 * np.pi * np.minimum(j, n - j) / n
    keep = np.ones(n - 1, dtype=bool)
    for pole in enumerate_poles(spec0):
        keep &= np.abs(folded - pole.frequency) >= np.pi / n - 1e-12
    lam_u = lam[keep]
    if len(lam_u) < 8:
        raise ValidationError("series-too-short", "too few usable Fourier frequencies after pole exclusion")
    free_d = np.array(template.free_d)
    memory_jac = -2 * np.log(np.abs(2 * np.sin(np.outer(lam_u, spec0.periods) / 2)))
    jac_d = memory_jac[:, free_d]
    base = memory_jac[:, ~free_d] @ np.array(spec0.memories)[~free_d] - math.log(2 * math.pi)
    nd = jac_d.shape[1]
    free_factors, arma0 = [], []
    for sign, flags, factors in ((-1.0, template.free_ar, spec0.ar_factors),
                                 (1.0, template.free_ma, spec0.ma_factors)):
        for flag, f in zip(flags, factors):
            if not flag:
                base = base + sign * np.log(np.abs(f.transfer(lam_u)) ** 2)
                continue
            z = np.exp(-1j * np.outer(lam_u, f.lag * np.arange(1, len(f.coeffs) + 1)))
            start = nd + len(arma0)
            free_factors.append((sign, slice(start, start + len(f.coeffs)), _frozen(z), f.lag))
            # a nonstationary or non-invertible start falls back to white noise
            arma0.extend(f.coeffs if f.roots_outside_unit_circle() else [0.0] * len(f.coeffs))
    box = np.where(np.arange(nd + len(arma0)) < nd, template.d_box, np.inf)   # |theta| <= box
    _frozen(keep, jac_d, base, box)
    return keep, jac_d, base, tuple(free_factors), tuple(arma0), box


def whittle_estimate(series, template: WhittleTemplate) -> WhittleFit:
    """Fox-Taqqu fit: minimize (2n)^-1 sum_j [ln f(lambda_j) + I_j / f(lambda_j)].

    The sum runs over Fourier indices j = 1..n-1, excluding frequencies that
    fold onto a template pole within half a Fourier spacing (pi/n).  The
    innovation variance is profiled out analytically: with f = sigma^2 g,
    sigma^2_hat = mean(I_j / g_j) and the concentrated objective
    F = ln sigma^2_hat + mean(ln g_j) is minimized over the free shape
    parameters by projected Newton steps (analytic gradient and Hessian)
    from the band OLS memories, with the free memories held in the box
    |d| <= d_box and the AR/MA roots outside the unit circle.  With free
    AR/MA factors F is not convex, so a fit that ends on the box is repeated
    from white noise.  ``iterations`` counts Newton steps; non-convergence is
    reported in the returned fit, never silently discarded.
    """
    x = np.asarray(series, dtype=float)
    n = len(x)
    if n < 64:
        raise ValidationError("series-too-short", f"Whittle fit needs n >= 64, got {n}")
    spec0 = template.spec
    pg = periodogram(x)
    keep, jac_d, base, free_factors, arma0, box = _whittle_design(n, template)
    I_u = pg.ordinates[keep]
    n_used = len(I_u)
    # rescaled ordinates keep F of order one, whatever the scale of the series
    scale = float(np.mean(I_u))
    if not 0 < scale < math.inf:
        raise ValidationError("zero-periodogram", "periodogram vanishes at every usable frequency")
    I_u = I_u / scale
    free_d = np.array(template.free_d)
    theta0 = [d for d, flag in zip(_gph_start(pg, template), free_d) if flag] + list(arma0)
    nd = jac_d.shape[1]

    def evaluate(theta):
        """(F, log g, each free factor's z/t) at theta; None outside the stationary region."""
        logg = base + jac_d @ theta[:nd]
        ratios = []
        for sign, sl, z, lag in free_factors:
            if not ArmaFactor(lag, theta[sl]).roots_outside_unit_circle():
                return None
            t = 1.0 - z @ theta[sl]
            logg = logg + sign * np.log(t.real ** 2 + t.imag ** 2)
            ratios.append(z / t[:, None])
        s2 = float(np.mean(I_u * np.exp(-logg)))
        return (math.log(s2) + float(np.mean(logg)) if 0 < s2 < math.inf else math.inf), logg, ratios

    def derivatives(logg, ratios):
        """Gradient mean((1 - w/W) J) of F, its Hessian and Gauss-Newton part, with
        w = I / g, W = mean(w), J the Jacobian of log g.  The Gauss-Newton part is
        the w-weighted covariance of J; the Hessian adds mean((1 - w/W) d2 log g)."""
        w = I_u * np.exp(-logg)
        wn = w / w.sum()
        u = 1.0 / n_used - wn
        jac = np.hstack([jac_d] + [-2 * sign * r.real for (sign, *_), r in zip(free_factors, ratios)]) \
            if free_factors else jac_d
        centred = jac - wn @ jac
        gauss_newton = (centred * wn[:, None]).T @ centred
        hess = gauss_newton.copy()
        for (sign, sl, *_), r in zip(free_factors, ratios):
            hess[sl, sl] -= 2 * sign * ((r * u[:, None]).T @ r).real
        return u @ jac, hess, gauss_newton

    def newton(theta):
        """Projected Newton descent from theta: (theta, evaluate(theta), converged, steps).

        A memory on its bound stays there until the other parameters have
        converged, then leaves if its gradient points into the box.
        """
        theta = np.clip(theta, -box, box)
        state = evaluate(theta)
        held = np.abs(theta) >= box
        steps = 0
        while steps < WHITTLE_MAX_STEPS:
            grad, hess, gauss_newton = derivatives(*state[1:])
            free = ~held
            e, v = np.linalg.eigh(hess[free][:, free])
            if not np.all(e > 0):   # not convex here: Gauss-Newton
                e, v = np.linalg.eigh(gauss_newton[free][:, free])
            # pseudo-inverse: an AR and an MA factor at one lag can cancel out
            step = np.zeros(len(theta))
            step[free] = -v @ ((v.T @ grad[free]) / np.where(e > 1e-12 * e.max(initial=0.0), e, np.inf))
            # below the tolerance F cannot resolve the decrease: take the step as is
            done = -float(grad @ step) <= WHITTLE_TOL
            inward = held & (theta * grad > 0)
            if done and inward.any():
                held &= ~inward
                continue
            alpha = 1.0
            while alpha > 1e-12:
                trial = np.clip(theta + alpha * step, -box, box)
                trial_state = evaluate(trial)
                if trial_state is not None and (
                        done or trial_state[0] <= state[0] + 1e-4 * float(grad @ (trial - theta))):
                    break
                alpha *= 0.5
            else:
                break
            theta, state = trial, trial_state
            held |= np.abs(theta) >= box
            steps += 1
            if done:
                return theta, state, True, steps
        return theta, state, False, steps

    theta, state, converged, steps = newton(np.array(theta0, dtype=float))
    if free_factors and np.any(np.abs(theta) >= box):
        # with free AR/MA factors F is not convex: a memory on the box may
        # mark a local minimum, so descend once more from white noise
        other = newton(np.zeros(len(theta0)))
        steps += other[3]
        if other[1][0] < state[0]:
            theta, state, converged = other[:3]

    d_hat = np.array(spec0.memories, dtype=float)
    d_hat[free_d] = theta[:nd]
    fitted = iter(theta[sl] for _, sl, *_ in free_factors)
    ar_out = [(f.lag, tuple(float(v) for v in (next(fitted) if flag else f.coeffs)))
              for flag, f in zip(template.free_ar, spec0.ar_factors)]
    ma_out = [(f.lag, tuple(float(v) for v in (next(fitted) if flag else f.coeffs)))
              for flag, f in zip(template.free_ma, spec0.ma_factors)]
    sigma2 = scale * float(np.mean(I_u * np.exp(-state[1])))
    converged = converged and math.isfinite(sigma2) and bool(np.all(np.isfinite(d_hat)))
    return WhittleFit(d_hat=d_hat,
                      short_memory={"ar": ar_out, "ma": ma_out, "sigma2": sigma2},
                      objective=n_used * (state[0] + math.log(scale) + 1) / (2 * n), converged=converged,
                      iterations=steps, periods=spec0.periods)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def estimate_to_json(est: MemoryEstimate) -> str:
    doc = {
        "method": est.method,
        "d_hat": [float(v) for v in est.d_hat],
        "cov": [[float(v) for v in row] for row in est.asymptotic_cov],
        "m": int(est.m),
        "band_count": int(est.band_count),
        "periods": list(est.periods),
    }
    return json.dumps(doc, indent=2)


def whittle_fit_to_json(fit: WhittleFit) -> str:
    doc = {
        "method": "whittle",
        "d_hat": [float(v) for v in fit.d_hat],
        "converged": bool(fit.converged),
        "objective": float(fit.objective),
        "iterations": int(fit.iterations),
        "periods": list(fit.periods),
        "short_memory": {
            "ar": [{"lag": lag, "coeffs": list(c)} for lag, c in fit.short_memory["ar"]],
            "ma": [{"lag": lag, "coeffs": list(c)} for lag, c in fit.short_memory["ma"]],
            "sigma2": fit.short_memory["sigma2"],
        },
    }
    return json.dumps(doc, indent=2)
