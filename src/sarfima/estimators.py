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
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _check_real, _check_sequence, _shown
from .model import SarfimaSpec, SeasonalComponent, enumerate_poles, levinson, _roots_outside_unit_circle
from .spectrum import (Periodogram, BandPlan, build_band_plan, periodogram, resolve_bandwidth,
                       _check_bandwidth, _check_period_pair, _check_periods, _series)

__all__ = ["MemoryEstimate", "WhittleFit", "WhittleTemplate", "gph_estimate",
           "asymptotic_cov_matrix", "whittle_estimate",
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

def asymptotic_cov_matrix(s1: int, s2, m: int) -> np.ndarray:
    """Asymptotic covariance (pi^2 / 6m) Q^-1 of the band OLS estimator.

    Q = 4 [[sum_k delta_k, sum_{k in I} delta_k], [sym., sum_{k in I} delta_k]]
    over k = 0..floor(s'/2), with delta_k = 1 at k = 0 and k = s'/2 and 2
    elsewhere, and I = {0} u {k : k s2 = 0 mod s'}.  The sums are closed
    forms: the deltas count each residue k mod s' once, so they total s',
    and I holds the gcd(s', s2) multiples of s' / gcd(s', s2).  Each entry
    of the inverse is a quotient of Python ints, which is the exact
    rational correctly rounded, before the pi^2/(6m) scaling.  A
    single-period call (s2 = None or s2 = s1) returns the 1x1 matrix
    [[pi^2 / (24 s m)]].  Built once per argument tuple; the shared matrix
    is read-only.
    """
    m = _check_bandwidth(m)
    return _asymptotic_cov(*_check_periods(s1, s1 if s2 is None else s2), m)


@functools.lru_cache(maxsize=64)
def _asymptotic_cov(s1: int, s2: int, m: int) -> np.ndarray:
    if m < 1:
        raise ValidationError("m-too-small", f"bandwidth must be >= 1, got {_shown(m)}")
    if s1 == s2:   # a quotient of ints, so that a period past the float range gives 0, not an overflow
        num, den = (math.pi ** 2).as_integer_ratio()
        return _frozen(np.array([[num / (den * 24 * s1 * m)]]))
    _check_period_pair(s1, s2)
    sp, ss = max(s1, s2), min(s1, s2)
    total, informative = sp, math.gcd(sp, ss)
    q11, q12, q22 = 4 * total, 4 * informative, 4 * informative
    det = q11 * q22 - q12 * q12   # 16 s_small (s' - s_small) > 0: the smaller period divides s'
    cov = math.pi ** 2 / (6 * m) * np.array([[q22 / det, -q12 / det], [-q12 / det, q11 / det]])
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

_BandDesign = namedtuple("_BandDesign", "positions slices zs gram")


@functools.lru_cache(maxsize=64)
def _band_design(plan: BandPlan, regressor_periods: tuple) -> _BandDesign:
    """The data-free half of the band regression, once per (plan, periods):
    zero-based ordinate positions pooled across bands, each band's slice of
    them, the regressors z_i = -2 log|2 sin(s_i lambda / 2)| centred by
    their band means, and the Gram entries (z1.z1[, z2.z2, z1.z2]), checked
    for rank.  The arrays are read-only."""
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
    if len(zs) == 1:
        gram = (zs[0] @ zs[0],)
        full_rank = gram[0] > 0
    else:
        z1, z2 = zs
        gram = g11, g22, g12 = z1 @ z1, z2 @ z2, z1 @ z2
        full_rank = 1.0 - g12 * g12 / (g11 * g22) >= COLLINEARITY_TOL
    if not full_rank:
        raise ValidationError("rank-deficient",
                              f"regressors degenerate or collinear for periods {regressor_periods} over "
                              f"{len(plan.bands)} bands (s'={plan.s_prime}); cannot fit the memories")
    _frozen(positions, *zs)
    return _BandDesign(positions, slices, tuple(zs), gram)


def gph_estimate(pgram: Periodogram, plan: BandPlan, s1: int, s2: int) -> MemoryEstimate:
    """Multi-band log-periodogram regression, one memory per distinct period.

    Every band around a harmonic of s' has its own intercept: the
    regressors z_i = -2 log|2 sin(s_i lambda / 2)| are centered by their band
    means, which absorbs the intercepts (by Frisch-Waugh the response log I
    need not be centered as well), then pooled into one no-intercept
    least-squares fit.  d_hat is reported in the caller's (s1, s2) order with
    asymptotic covariance (pi^2/6m) Q^-1.  With s1 == s2 (a one-period plan)
    the fit has the single regressor, d_hat = (z.y)/(z.z), and the variance
    pi^2 / (24 s m).  Only the response is built per call: the regressors
    depend on the plan alone and are shared.  This is the one-row case of
    the block regression a Monte Carlo run applies to its paths.
    """
    if {s1, s2} != {plan.s_prime, plan.s_small}:
        raise ValidationError("plan-mismatch",
                              f"plan was built for periods {(plan.s_prime, plan.s_small)}, got {(s1, s2)}")
    if plan.n != pgram.n:
        raise ValidationError("plan-mismatch",
                              f"plan was built for n={plan.n}, periodogram has n={pgram.n}")
    periods = (s1,) if s1 == s2 else (s1, s2)
    d_hat, errors = _gph_fits(pgram.ordinates[None, :], plan, periods)
    if errors[0] is not None:
        raise errors[0]
    return MemoryEstimate(d_hat=d_hat[0], asymptotic_cov=asymptotic_cov_matrix(s1, s2, plan.m),
                          m=plan.m, method="gph_single" if len(periods) == 1 else "gph_multi",
                          band_count=len(plan.bands), periods=periods)


def _gph_fits(ordinates: np.ndarray, plan: BandPlan, periods: tuple):
    """The band regression of every row of a block of periodogram ordinates.

    Returns (d_hat, errors): one row of memories per ordinate row, and per
    row None or the error it raised: a row with a non-positive ordinate
    fails alone, as a NaN row.  Each row is reduced on its own, so its bits
    do not depend on the block.
    """
    positions, slices, zs, gram = _band_design(plan, periods)
    I = np.ascontiguousarray(ordinates[:, positions])
    errors = [None] * len(I)
    bad = np.any(I <= 0, axis=1)
    for r in np.flatnonzero(bad):
        band = next(b for b, sl in zip(plan.bands, slices) if np.any(I[r, sl] <= 0))
        errors[r] = ValidationError("zero-ordinate", f"non-positive periodogram ordinate in band k={band.k}")
    y = np.log(np.where(bad[:, None], 1.0, I))   # a failed row is fitted to nothing, then blanked
    if len(periods) == 1:
        d_hat = ((y * zs[0]).sum(axis=1) / gram[0])[:, None]
    else:
        (z1, z2), (g11, g22, g12) = zs, gram
        rhs1, rhs2 = (y * z1).sum(axis=1), (y * z2).sum(axis=1)
        det = g11 * g22 - g12 * g12
        d_hat = np.stack([(g22 * rhs1 - g12 * rhs2) / det, (g11 * rhs2 - g12 * rhs1) / det], axis=1)
    d_hat[bad] = np.nan
    return d_hat, errors


# ---------------------------------------------------------------------------
# Whittle / Fox-Taqqu
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WhittleTemplate:
    """Parametric spectral shape with per-parameter free/fixed markers.

    ``spec`` supplies the structure, the fixed values and the start of a
    free MA factor; a free AR factor starts at its Yule-Walker coefficients,
    and its spec coefficients are only the fallback of a row where those
    fail.  ``free_d`` marks which component memories are estimated,
    ``free_ar``/``free_ma`` mark whole factors.  ``d_box`` is a hard
    constraint |d| <= d_box on each free memory; the default 0.49 keeps fits
    inside the stationary region, misspecification studies may widen it.
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
            markers = (True,) * len(parts) if markers is None \
                else _check_sequence(markers, "bad-template", f"the {name} markers", bool)
            if len(markers) != len(parts):
                raise ValidationError("bad-template", f"{len(markers)} {name} markers for {len(parts)} spec parts")
            object.__setattr__(self, name, markers)
        object.__setattr__(self, "d_box", _check_real(self.d_box, "bad-template", "d_box"))
        if self.d_box <= 0:
            raise ValidationError("bad-template", f"d_box must be positive, got {self.d_box!r}")
        if not any(self.free_d) and not any(self.free_ar) and not any(self.free_ma):
            raise ValidationError("bad-template", "template has no free parameters")

    @classmethod
    def pure(cls, periods, d_box: float = 0.49) -> "WhittleTemplate":
        """All-free fractional template with no ARMA part."""
        comps = tuple(SeasonalComponent(s, 0.0) for s in _check_sequence(periods, "bad-template", "periods"))
        return cls(spec=SarfimaSpec(components=comps), d_box=d_box)


#: Newton steps allowed before a Whittle fit is reported as not converged: a
#: row whose memory leaves the box where the Hessian is indefinite crawls on
#: Gauss-Newton steps that grow ~5% a step, and may need more than 100
WHITTLE_MAX_STEPS = 1000
#: bound on the Newton decrement g'H^-1 g of a converged fit: a few ulps of F ~ 1
WHITTLE_TOL = 2e-15


_WhittleDesign = namedtuple("_WhittleDesign", "keep weight total jac_d jac_stack jac_mean base factors arma0 box "
                                              "start start_jac start_inv")


@functools.lru_cache(maxsize=16)
def _whittle_design(n: int, template: WhittleTemplate) -> _WhittleDesign:
    """The data-free half of a Whittle fit, once per (n, template).

    The sum over the Fourier indices j = 1..n-1 is evaluated as a weighted
    sum over j <= n/2: the periodogram and g are even, so j and n - j give
    the same term.  ``keep`` masks the usable indices j = 1..floor(n/2),
    ``weight`` is 2 at each usable j and 1 at j = n/2, and ``total``, its
    sum, is the number of usable indices in 1..n-1.  Then come the (free
    memories, usable frequencies) Jacobian ``jac_d`` of log g, its rows and
    their products, ``jac_stack`` = (J_i, then J_i J_j row-major), and the
    weighted mean ``jac_mean`` of J, the fixed
    part ``base`` of log g, each free factor's (sign, slice of theta,
    (Re z, Im z) as a (2, q, K) array), the free factors' spec
    coefficients ``arma0`` (0 where they are not stationary or invertible),
    which are an MA factor's start and an AR factor's fallback start, and
    the ``box`` |theta| <= box.  The last three fields hold the data-free
    half of the starting memories.  With a free factor, ``start`` is the
    band plan whose OLS memories start the fit, or None; ``start_jac`` and
    ``start_inv`` are None.  Without one, log g is linear in the memories,
    and the fit starts at the weighted least-squares fit of log I - base on
    an intercept and J over the usable frequencies: ``start_jac`` is the
    weighted, centred Jacobian weight (J - jac_mean) and ``start_inv`` the
    inverse of its Gram matrix (J - jac_mean) weight (J - jac_mean)', taken
    by ``eigh`` as a pseudo-inverse, so that a memory whose column of J is
    flat over the usable frequencies starts at 0; ``start`` is None.  The
    arrays are read-only.
    n must be >= 64 and more than half of each period, with total >= 8.

    log g = base + d . jac_d + sum of sign * ln|t|^2 over the free factors,
    t = 1 - sum_p c_p z_p with z_p = exp(-i lambda p lag), sign -1 for AR
    and +1 for MA; base holds -ln(2 pi) and every fixed parameter.
    """
    if n < 64:
        raise ValidationError("series-too-short", f"Whittle fit needs n >= 64, got {n}")
    spec0 = template.spec
    if max(spec0.periods) >= 2 * n:   # then a pole lies within pi / (2n) of every Fourier frequency
        raise ValidationError("series-too-short", "too few usable Fourier frequencies after pole exclusion")
    j = np.arange(1, n // 2 + 1)
    lam = 2 * np.pi * j / n
    keep = np.ones(len(j), dtype=bool)
    for pole in enumerate_poles(spec0):
        keep &= np.abs(lam - pole.frequency) >= np.pi / n - 1e-12
    lam_u = lam[keep]
    weight = np.where(2 * j[keep] == n, 1.0, 2.0)
    total = float(weight.sum())
    if total < 8:
        raise ValidationError("series-too-short", "too few usable Fourier frequencies after pole exclusion")
    free_d = np.array(template.free_d)
    memory_jac = -2 * np.log(np.abs(2 * np.sin(np.outer(lam_u, spec0.periods) / 2)))
    jac_d = np.ascontiguousarray(memory_jac[:, free_d].T)
    base = memory_jac[:, ~free_d] @ np.array(spec0.memories)[~free_d] - math.log(2 * math.pi)
    nd = len(jac_d)
    factors, arma0 = [], []
    for sign, flags, spec_factors in ((-1.0, template.free_ar, spec0.ar_factors),
                                      (1.0, template.free_ma, spec0.ma_factors)):
        for flag, f in zip(flags, spec_factors):
            if not flag:
                base = base + sign * np.log(np.abs(f.transfer(lam_u)) ** 2)
                continue
            z = np.exp(-1j * np.outer(f.lag * np.arange(1, len(f.coeffs) + 1), lam_u))
            start = nd + len(arma0)
            factors.append((sign, slice(start, start + len(f.coeffs)),
                            _frozen(np.ascontiguousarray([z.real, z.imag]))))
            # a nonstationary or non-invertible start falls back to white noise
            arma0.extend(f.coeffs if f.roots_outside_unit_circle() else [0.0] * len(f.coeffs))
    box = np.where(np.arange(nd + len(arma0)) < nd, template.d_box, np.inf)
    jac_stack = np.concatenate([jac_d, (jac_d[:, None, :] * jac_d).reshape(nd * nd, len(lam_u))])
    jac_mean = (weight / total * jac_d).sum(axis=1)
    _frozen(keep, weight, jac_d, jac_stack, jac_mean, base, box)
    start = start_jac = start_inv = None
    if factors:
        periods = spec0.periods
        try:   # the band OLS memories are the start where the periods admit a plan at this n
            start = build_band_plan(n, periods[0], periods[-1], resolve_bandwidth(n, max(periods), alpha=0.5))
            _band_design(start, periods)
        except ValidationError:
            start = None
    else:
        # products summed along the rows, not BLAS products, whose rounding can change with the thread count
        centred = jac_d - jac_mean[:, None]
        start_jac = centred * weight
        e, v = np.linalg.eigh((start_jac[:, None, :] * centred).sum(axis=2))
        e = np.where(e > 1e-12 * max(e[-1], 0.0), e, np.inf)
        start_inv = _frozen(((v / e)[:, None, :] * v).sum(axis=2), start_jac)
    return _WhittleDesign(keep, weight, total, jac_d, jac_stack, jac_mean, base, tuple(factors),
                          tuple(arma0), box, start, start_jac, start_inv)


def _rows_times(theta: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """theta @ basis for a block of rows, as products summed over the short
    middle axis: a BLAS product could round a row differently with the
    width of the block.  One column needs no sum, and has its bits."""
    if theta.shape[1] == 1:
        return theta * basis[0]
    return (theta[:, :, None] * basis).sum(axis=1)


def _stationary(design: _WhittleDesign, theta: np.ndarray) -> np.ndarray:
    """Whether each row of theta leaves every free factor's roots outside
    the unit circle: F is defined only there."""
    ok = np.ones(len(theta), dtype=bool)
    for _, sl, _ in design.factors:
        ok &= _roots_outside_unit_circle(theta[:, sl])
    return ok


def _objective(design: _WhittleDesign, I_u: np.ndarray, theta: np.ndarray):
    """The concentrated Whittle objective F at every row of theta, whose
    free factors the caller has checked ``_stationary``.

    Returns the state (F, sigma2_hat, w, then per free factor |t|^2 and the
    factor's coefficients c), with w = I / g and t = 1 - sum_p c_p z_p;
    I_u carries the design's weights, so w does too.  With theta_l = lag
    lambda, |t|^2 = (1 - sum c_p cos p theta_l)^2 + (sum c_p sin p theta_l)^2.
    F is inf where sigma2_hat is 0 or overflows.  -log g is formed
    directly: negation is exact, so F has the bits it would have from
    log g.  The caller silences the floating-point warnings of the rows F
    cannot use.
    """
    neg_logg = _rows_times(np.negative(theta[:, :len(design.jac_d)]), design.jac_d)
    neg_logg -= design.base
    factors = []
    for sign, sl, z in design.factors:
        c = theta[:, sl].copy()   # the state's own rows: the descent updates theta and state apart
        t2 = np.subtract(1.0, _rows_times(c, z[0]))
        t2 *= t2
        im = _rows_times(c, z[1])   # -sum c_p sin(p theta_l): its square is the same
        im *= im
        t2 += im
        if sign < 0:
            neg_logg += np.log(t2)
        else:
            neg_logg -= np.log(t2)
        factors += (t2, c)
    mean_neg_logg = (neg_logg * design.weight).sum(axis=1) / design.total
    w = np.exp(neg_logg, out=neg_logg)
    w *= I_u
    s2 = w.sum(axis=1) / design.total
    F = np.where((s2 > 0) & (s2 < np.inf), np.log(s2) - mean_neg_logg, np.inf)
    return F, s2, w, *factors


def _ratios(z: np.ndarray, t2: np.ndarray, c: np.ndarray):
    """Re and Im of z_p / t for p = 1..q, as two lists of (rows, K) arrays,
    in closed form: z_p conj(t) = sum_k ct_k exp(i (k - p) theta_l) with
    ct = (1, -c_1, .., -c_q), so that

        Re(z_p / t) = sum_k ct_k cos((k - p) theta_l) / |t|^2
        Im(z_p / t) = sum_k ct_k sin((k - p) theta_l) / |t|^2,

    taken from the design's rows z[0] = cos(j theta_l) and
    z[1] = -sin(j theta_l), j = 1..q, and the constant cos 0 = 1.  For
    q = 1 they are (cos theta_l - c) / |t|^2 and -sin theta_l / |t|^2."""
    q = c.shape[1]
    res, ims = [], []
    for p in range(q):
        re = z[0, p] - c[:, p, None]   # the terms k = 0 and k = p
        im = z[1, p]
        for k in range(q):
            if k < p:   # sin((k - p) theta_l) = z[1, p - k - 1]
                re = re - c[:, k, None] * z[0, p - k - 1]
                im = im - c[:, k, None] * z[1, p - k - 1]
            elif k > p:   # sin((k - p) theta_l) = -z[1, k - p - 1]
                re = re - c[:, k, None] * z[0, k - p - 1]
                im = im + c[:, k, None] * z[1, k - p - 1]
        res.append(re / t2)
        ims.append(im / t2)
    return res, ims


def _derivatives(design: _WhittleDesign, state):
    """Gradient c - m of F at each row, its Hessian and Gauss-Newton part,
    in uncentred moment form: with J the Jacobian of log g, one (parameters,
    K) slab per row, wn = w / sum(w) (w carries the design's weights),
    m = sum(wn J) and c = sum((weight / total) J), the Gauss-Newton part
    is sum(wn J J') - m m' and the Hessian adds
    sum((weight / total - wn) d2 log g).  The memories' J, their
    products J_i J_j and their c are the design's, so a pure template takes
    one product and one row sum, and its Hessian is its Gauss-Newton
    matrix, returned as that same array.  A free factor's columns of J,
    -2 sign Re(z_p / t), and its second derivatives,
    -2 sign Re(z_p z_r / t^2) = -2 sign (Re_p Re_r - Im_p Im_r) of the
    ratios, depend on theta.  The ratios z / t are formed here, once per
    iterate and not at every trial of the line search, in closed form
    (``_ratios``) from the |t|^2 and the coefficients that the state
    carries.  The free columns' gradient entries
    sum((weight / total - wn) J), the weights of their curvature term, and
    their rows of sum(wn J J') are formed one parameter at a time.  Every
    sum runs along the last axis, row by row."""
    _, _, w, *factors = state
    wn = w / w.sum(axis=1, keepdims=True)
    nd = len(design.jac_d)
    moments = (wn[:, None, :] * design.jac_stack).sum(axis=2)
    m = moments[:, :nd]
    grad = design.jac_mean - m
    second = moments[:, nd:].reshape(len(w), nd, nd)   # sum(wn J J')
    if not design.factors:   # log g is linear in the memories: the Hessian is the Gauss-Newton matrix
        gauss_newton = second - m[:, :, None] * m[:, None, :]
        return grad, gauss_newton, gauss_newton
    ratios = [_ratios(z, t2, c) for (_, _, z), t2, c in zip(design.factors, factors[::2], factors[1::2])]
    p = len(design.box)
    free = np.empty((len(w), p - nd, w.shape[1]))   # the free factors' columns of J
    for (sign, sl, _), (res, _) in zip(design.factors, ratios):
        for k, re in enumerate(res, start=sl.start - nd):
            np.multiply(re, -2 * sign, out=free[:, k])
    u = design.weight / design.total - wn
    grad = np.concatenate([grad, (u[:, None, :] * free).sum(axis=2)], axis=1)
    w_free = wn[:, None, :] * free
    m = np.concatenate([m, w_free.sum(axis=2)], axis=1)
    full = np.empty((len(w), p, p))
    full[:, :nd, :nd] = second
    second = full
    for k in range(nd, p):   # row and column k, up to the diagonal: memory, then factor entries
        wk = w_free[:, k - nd, None, :]
        second[:, k, :nd] = second[:, :nd, k] = (wk * design.jac_d).sum(axis=2)
        second[:, k, nd:k + 1] = second[:, nd:k + 1, k] = (wk * free[:, :k + 1 - nd]).sum(axis=2)
    del free, w_free
    curvature = np.zeros((len(w), p, p))   # sum((weight / total - wn) d2 log g)
    for (sign, sl, _), (res, ims) in zip(design.factors, ratios):
        for a in range(len(res)):   # d2 log g = -2 sign (Re_a Re_b - Im_a Im_b) of the ratios
            for b in range(a + 1):
                x = res[a] * res[b]
                x -= ims[a] * ims[b]
                x *= u
                ka, kb = sl.start + a, sl.start + b
                curvature[:, ka, kb] = curvature[:, kb, ka] = -2 * sign * x.sum(axis=1)
    gauss_newton = second - m[:, :, None] * m[:, None, :]
    return grad, gauss_newton + curvature, gauss_newton


def _newton_steps(grad: np.ndarray, hess: np.ndarray, gauss_newton: np.ndarray,
                  free: np.ndarray) -> np.ndarray:
    """Each row's Newton step in its free parameters, zero in the held ones;
    rows with the same free set share one stacked solve."""
    if free.all():
        return _pseudo_newton(grad, hess, gauss_newton)
    keys = (free @ (1 << np.arange(free.shape[1]))).tolist()
    step = np.zeros_like(grad)
    for rows in (np.flatnonzero(np.equal(keys, key)) for key in set(keys)):
        cols = np.flatnonzero(free[rows[0]])
        if cols.size:
            at, sub = np.ix_(rows, cols), np.ix_(rows, cols, cols)
            h = hess[sub]
            step[at] = _pseudo_newton(grad[at], h, h if gauss_newton is hess else gauss_newton[sub])
    return step


def _pseudo_newton(grad: np.ndarray, hess: np.ndarray, gauss_newton: np.ndarray) -> np.ndarray:
    """-H^+ g for each row, from one stacked eigendecomposition.  Where the
    Hessian is not positive definite the Gauss-Newton matrix stands in, and
    the inverse is a pseudo-inverse: an AR and an MA factor at one lag can
    cancel out.  Where the two are one array, its decomposition serves both."""
    e, v = np.linalg.eigh(hess)   # eigenvalues ascending
    flat = ~(e[:, 0] > 0)   # not convex here: Gauss-Newton
    if flat.any() and hess is not gauss_newton:
        e[flat], v[flat] = np.linalg.eigh(gauss_newton[flat])
    e = np.where(e > 1e-12 * np.maximum(e[:, -1:], 0.0), e, np.inf)
    coef = (v.transpose(0, 2, 1) * grad[:, None, :]).sum(axis=2) / e
    return -(v * coef[:, None, :]).sum(axis=2)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _projected_newton(design: _WhittleDesign, I_u: np.ndarray, theta0: np.ndarray, restart: bool):
    """Projected Newton descent of F from every row of theta0 at once.

    Returns (theta, F, sigma2_hat, converged, steps), one row each.  Each
    row keeps its own held set and line search, and stops on its own: when
    its Newton decrement g'H^-1 g falls below WHITTLE_TOL, when its line
    search fails, or after WHITTLE_MAX_STEPS steps.  A memory on its bound
    stays there until the row's other parameters have converged, then
    leaves if its gradient points into the box.  The line search evaluates
    F only at the trial points where ``_stationary`` holds.  With
    ``restart``, a row that stops with a memory on its box descends once
    more from white noise (theta = 0), in place next to the other rows and
    with WHITTLE_MAX_STEPS of its own; it keeps the descent that ends with
    the lower F, the first on a tie, and counts the steps of both.  The
    working arrays hold the rows still descending; a row is copied out
    when it stops.  Floating-point warnings are silenced once for the
    whole descent: rows F cannot use overflow or divide by zero, and the
    line search rejects them.
    """
    box = design.box
    theta = np.clip(theta0, -box, box)
    state = _objective(design, I_u, theta)
    held = np.abs(theta) >= box
    steps = np.zeros(len(theta), dtype=int)
    first = np.ones(len(theta), dtype=bool)   # in its first descent
    out = (np.empty_like(theta), np.empty(len(theta)), np.empty(len(theta)),
           np.zeros(len(theta), dtype=bool), np.zeros(len(theta), dtype=int))
    rows = np.arange(len(theta))   # where each descending row goes in ``out``
    while rows.size:
        grad, hess, gauss_newton = _derivatives(design, state)
        while True:
            step = _newton_steps(grad, hess, gauss_newton, ~held)
            # below the tolerance F cannot resolve the decrease: take the step as is
            done = -(grad * step).sum(axis=1) <= WHITTLE_TOL
            inward = held & (theta * grad > 0)
            release = done & inward.any(axis=1)
            if not release.any():
                break
            held &= ~(inward & release[:, None])
        # backtracking line search; the rows still searching halve alpha together
        moved = np.zeros(len(theta), dtype=bool)
        searching, alpha = np.arange(len(theta)), 1.0
        while searching.size and alpha > 1e-12:
            whole = searching.size == len(theta)
            at = slice(None) if whole else searching   # a view while every row searches
            trial = np.clip(theta[at] + alpha * step[at], -box, box)
            # a pure template has no roots to check: None stands for every trial point
            ok = _stationary(design, trial) if design.factors else None
            if ok is None or ok.any():
                if ok is not None and not ok.all():   # F only at the stationary trial points
                    whole, at, trial = False, searching[ok], trial[ok]
                trial_state = _objective(design, I_u[at], trial)
                decrease = (grad[at] * (trial - theta[at])).sum(axis=1)
                better = done[at] | (trial_state[0] <= state[0][at] + 1e-4 * decrease)
                if whole and better.all():
                    # the common case: keep the trial arrays rather than copy every row back
                    theta, state, moved = trial, list(trial_state), better
                    break
                if ok is None:
                    ok = better
                else:
                    ok[ok] = better
                accepted = searching[ok]
                theta[accepted] = trial[better]
                for a, b in zip(state, trial_state):
                    a[accepted] = b[better]
                moved[accepted] = True
            searching, alpha = searching[~ok], alpha * 0.5
        held |= np.abs(theta) >= box
        steps += moved
        stop = done | ~moved | (steps >= WHITTLE_MAX_STEPS)
        if stop.any():
            # a second descent is kept only where it ends lower than the first
            keep = stop & (first | (state[0] < out[1][rows])) if restart else stop
            end = rows[keep]
            for a, b in zip(out, (theta, state[0], state[1], done & moved)):
                a[end] = b[keep]
            out[4][rows[stop]] += steps[stop]
            go = ~stop
            if restart:
                again = stop & first & np.any(np.abs(theta) >= box, axis=1)
                if again.any():
                    theta[again] = 0.0
                    for a, b in zip(state, _objective(design, I_u[again], theta[again])):
                        a[again] = b
                    held[again], steps[again], first[again], go[again] = False, 0, False, True
            if not go.all():
                rows, theta, held, steps, first, I_u = (a[go] for a in (rows, theta, held, steps, first, I_u))
                state = [a[go] for a in state]
    return out


#: share of ``d_box`` the memories of a free-AR fit start within: a start on
#: the box would hold the memory there through a first descent
START_BOX_SHARE = 0.9


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _yule_walker_start(design: _WhittleDesign, I_u: np.ndarray, theta0: np.ndarray) -> np.ndarray:
    """theta0 with its memories clipped to START_BOX_SHARE of the box and
    each free AR factor, in template order, at its Yule-Walker coefficients.

    For fixed memories the AR part of F is, up to the mean of ln|t|^2 (near
    0 for a stationary factor), the log of the quadratic form mean(w |t|^2)
    in the factor's coefficients, with w = I / g taken at the factor's
    coefficients set to 0.  Its minimum solves Toeplitz(R_0..R_{q-1}) c =
    (R_1..R_q), R_h = sum(w cos(h lag lambda)) / total, which is stationary
    whenever w >= 0 (variable projection, used only for the start).  c is
    the order-q ``levinson`` predictor, and a row with a reflection
    coefficient outside (-1, 1), or NaN, keeps ``arma0`` for the factor.
    Each row runs its own recursion, so its bits do not depend on the block.
    """
    theta = theta0.copy()
    nd = len(design.jac_d)
    box = START_BOX_SHARE * design.box[:nd]
    theta[:, :nd] = np.clip(theta[:, :nd], -box, box)
    for sign, sl, z in design.factors:
        if sign > 0:
            continue
        theta[:, sl] = 0.0
        w = _objective(design, I_u, theta)[2]
        R = np.concatenate([w.sum(axis=1)[:, None], (w[:, None, :] * z[0]).sum(axis=2)], axis=1) / design.total
        stationary = np.ones(len(R), dtype=bool)
        for kappa, c, _ in levinson(R):
            stationary &= np.abs(kappa) < 1.0
        theta[:, sl] = np.where(stationary[:, None], c, theta0[:, sl])
    return theta


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _regression_start(design: _WhittleDesign, I: np.ndarray) -> np.ndarray:
    """The starting memories of a template with no free factor: for each row
    of the usable ordinates I, the weighted least-squares fit of
    log I - base on an intercept and the free memories' J (Beran 1993;
    Moulines & Soulier 1999), from the design's ``start_jac`` and
    ``start_inv``.  F is convex there, so the start sets only the number of
    Newton steps.  Each row is reduced on its own, by elementwise products
    and row sums, so its bits do not depend on the block; a row whose fit
    is not finite (a zero ordinate) starts at zero memories."""
    y = np.log(I)
    y -= design.base
    rhs = np.stack([(y * a).sum(axis=1) for a in design.start_jac], axis=1)
    d0 = (rhs[:, None, :] * design.start_inv).sum(axis=2)
    return np.where(np.all(np.isfinite(d0), axis=1)[:, None], d0, 0.0)


#: Fox-Taqqu fits of a block of periodograms, one row each; a row that
#: raised has its error in ``errors``, NaN values and -1 steps
_WhittleFits = namedtuple("_WhittleFits", "d_hat theta sigma2 objective converged steps errors")


def _whittle_fits(ordinates: np.ndarray, n: int, template: WhittleTemplate) -> _WhittleFits:
    """The Whittle fit of every row of a block of periodogram ordinates, by one
    projected Newton descent over the block; see ``whittle_estimate``.  A
    row's bits do not depend on the other rows."""
    design = _whittle_design(n, template)
    # C-ordered, because the masked slice comes out F-ordered and its row sums
    # (and its logs) would then round differently with the width of the block
    I = np.ascontiguousarray(ordinates[:, :n // 2][:, design.keep])
    I_u = I * design.weight   # weighted, so that w = I / g carries the weights
    # rescaled ordinates keep F of order one, whatever the scale of the series
    scale = I_u.sum(axis=1) / design.total
    solved = (scale > 0) & (scale < np.inf)
    errors = [None if ok else ValidationError("zero-periodogram",
                                              "periodogram vanishes at every usable frequency")
              for ok in solved]
    # a failed row is fitted to a flat periodogram, then blanked
    scale = np.where(solved, scale, 1.0)
    I_u = np.where(solved[:, None], I_u / scale[:, None], design.weight)
    free_d = np.array(template.free_d)
    nd = len(design.jac_d)
    if not design.factors:
        d0 = np.where(solved[:, None], _regression_start(design, I), 0.0)
    else:   # the band OLS memories, zeros where they fail
        d0 = np.zeros((len(I_u), len(free_d)))
        if design.start is not None:
            d0 = np.nan_to_num(_gph_fits(np.where(solved[:, None], ordinates, 1.0), design.start,
                                         template.spec.periods)[0], nan=0.0)
        d0 = d0[:, free_d]
    theta0 = np.hstack([d0, np.tile(np.array(design.arma0, dtype=float), (len(I_u), 1))])
    if any(sign < 0 for sign, _, _ in design.factors):
        theta0 = _yule_walker_start(design, I_u, theta0)
    # with free AR/MA factors F is not convex: a memory on the box may mark
    # a local minimum, so such a row descends once more from white noise
    theta, F, s2, converged, steps = _projected_newton(design, I_u, theta0, restart=bool(design.factors))
    d_hat = np.tile(np.array(template.spec.memories, dtype=float), (len(I_u), 1))
    d_hat[:, free_d] = theta[:, :nd]
    sigma2 = scale * s2
    converged &= np.isfinite(sigma2) & np.all(np.isfinite(d_hat), axis=1)
    objective = design.total * (F + np.log(scale) + 1) / (2 * n)
    for a in (d_hat, theta, sigma2, objective):
        a[~solved] = np.nan
    converged[~solved], steps[~solved] = False, -1
    return _WhittleFits(d_hat, theta, sigma2, objective, converged, steps, errors)


def whittle_estimate(series, template: WhittleTemplate) -> WhittleFit:
    """Fox-Taqqu fit: minimize (2n)^-1 sum_j [ln f(lambda_j) + I_j / f(lambda_j)].

    The sum runs over Fourier indices j = 1..n-1, excluding frequencies that
    fold onto a template pole within half a Fourier spacing (pi/n); it is
    evaluated as a weighted sum over j <= n/2, since j and n - j give the
    same term.  The innovation variance is profiled out analytically: with
    f = sigma^2 g, sigma^2_hat = mean(I_j / g_j) and the concentrated objective
    F = ln sigma^2_hat + mean(ln g_j) is minimized over the free shape
    parameters by projected Newton steps (analytic gradient and Hessian),
    with the free memories held in the box |d| <= d_box and the AR/MA roots
    outside the unit circle.  A template with no free AR/MA factor starts
    at the full-band log-periodogram regression (``_regression_start``): the
    weighted least-squares fit of log I_j - log g_j's fixed part on an
    intercept and the free memories' Jacobian, over the same frequencies and
    weights; log g is linear in the memories there and F convex, so the
    start sets only how many steps the fit takes.  A template with a free
    factor starts at the band OLS memories (alpha = 0.5); with a free AR
    factor they are clipped to START_BOX_SHARE of the box, and each free AR
    factor starts at its Yule-Walker coefficients for them
    (``_yule_walker_start``).  With free AR/MA factors F is not convex, so a
    fit that ends on the box is repeated from white noise.
    ``iterations`` counts Newton steps; non-convergence is
    reported in the returned fit, never silently discarded.  This is the
    one-row case of the block fit a Monte Carlo run applies to its paths.
    """
    x = _series(series)
    fits = _whittle_fits(periodogram(x).ordinates[None, :], len(x), template)
    if fits.errors[0] is not None:
        raise fits.errors[0]
    spec0 = template.spec
    theta = fits.theta[0]
    fitted = iter(theta[sl] for _, sl, _ in _whittle_design(len(x), template).factors)
    ar_out = [(f.lag, tuple(float(v) for v in (next(fitted) if flag else f.coeffs)))
              for flag, f in zip(template.free_ar, spec0.ar_factors)]
    ma_out = [(f.lag, tuple(float(v) for v in (next(fitted) if flag else f.coeffs)))
              for flag, f in zip(template.free_ma, spec0.ma_factors)]
    return WhittleFit(d_hat=fits.d_hat[0],
                      short_memory={"ar": ar_out, "ma": ma_out, "sigma2": float(fits.sigma2[0])},
                      objective=float(fits.objective[0]), converged=bool(fits.converged[0]),
                      iterations=int(fits.steps[0]), periods=spec0.periods)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def estimate_to_json(est: MemoryEstimate) -> str:
    return json.dumps({
        "method": est.method,
        "d_hat": [float(v) for v in est.d_hat],
        "cov": [[float(v) for v in row] for row in est.asymptotic_cov],
        "m": int(est.m),
        "band_count": int(est.band_count),
        "periods": list(est.periods),
    }, indent=2)


def whittle_fit_to_json(fit: WhittleFit) -> str:
    return json.dumps({
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
    }, indent=2)
