"""Model specification for two-seasonal-period fractional ARIMA processes.

A process X_t follows the model when

    (1 - B^s1)^d1 (1 - B^s2)^d2 X_t = nu_t,

with nu_t a covariance-stationary ARMA process built from multiplicative
seasonal factors.  This module owns the parameter bookkeeping: validity of
(d1, d2), fractional-filter coefficient expansions, the theoretical spectral
density, the set of spectral poles at the seasonal harmonics, and the
asymptotic (large-lag) autocovariance.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError, _check_fits, _check_integer, _check_real, _check_sequence, _shown

__all__ = [
    "SeasonalComponent",
    "ArmaFactor",
    "SarfimaSpec",
    "Pole",
    "ValidityReport",
    "check_stationary_invertible",
    "pi_coefficients",
    "combined_filter_coefficients",
    "spectral_density",
    "arma_spectral_density",
    "enumerate_poles",
    "asymptotic_acvf",
    "spec_to_json",
    "spec_from_json",
]

#: frequencies closer than this to a seasonal harmonic count as "on the pole"
POLE_TOL = 1e-9


@dataclass(frozen=True)
class SeasonalComponent:
    """One fractional factor (1 - B^period)^memory."""

    period: int
    memory: float

    def __post_init__(self):
        object.__setattr__(self, "period", _check_integer(self.period, 1, "bad-period", "period"))
        object.__setattr__(self, "memory", _check_real(self.memory, "bad-memory", "memory"))
        if self.memory <= -1:
            raise ValidationError("bad-memory", f"memory must be > -1, got {self.memory!r}")


@dataclass(frozen=True)
class ArmaFactor:
    """Seasonal polynomial 1 - c1 B^lag - c2 B^(2 lag) - ... applied to nu_t."""

    lag: int
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "lag", _check_integer(self.lag, 1, "bad-arma-lag", "factor lag"))
        object.__setattr__(self, "coeffs", tuple(_check_real(c, "bad-arma-coeffs", "an ARMA coefficient")
                                                 for c in _check_sequence(self.coeffs, "bad-arma-coeffs", "coeffs")))
        if len(self.coeffs) == 0:
            raise ValidationError("bad-arma-coeffs", "factor needs at least one coefficient")

    def transfer(self, lam) -> np.ndarray:
        """Transfer 1 - sum_p c_p e^(-i lam p lag) at the frequencies lam."""
        powers = self.lag * np.arange(1, len(self.coeffs) + 1)
        return 1.0 - np.exp(-1j * np.multiply.outer(lam, powers)) @ np.array(self.coeffs)

    def roots_outside_unit_circle(self) -> bool:
        return bool(_roots_outside_unit_circle(np.array([self.coeffs]))[0])


def levinson(gamma):
    """Durbin-Levinson recursion over autocovariance sequences along gamma's last axis.

    Yields, for orders t = 1..L-1, the partial autocorrelations kappa, the
    predictor coefficients phi (phi[..., j-1] multiplies X_{t-j}) and the
    innovation variances v, one per sequence; callers decide what kappa or v
    out of range means.  Each row's dot product runs over its own reversed
    view, in the order of a 1-d ``@``, so its bits do not depend on the block.
    Each order's phi is a new array, so a caller may keep every order's.
    """
    gamma = np.asarray(gamma, dtype=float)
    phi = gamma[..., :0]
    v = gamma[..., 0]
    for t in range(1, gamma.shape[-1]):
        dot = np.matmul(phi[..., None, :], gamma[..., t - 1:0:-1, None])[..., 0, 0]
        kappa = (gamma[..., t] - dot) / v
        step = np.empty(gamma.shape[:-1] + (t,))
        np.subtract(phi, kappa[..., None] * phi[..., ::-1], out=step[..., :-1])
        step[..., -1] = kappa
        phi = step
        v = v * (1.0 - kappa * kappa)
        yield kappa, phi, v


def _roots_outside_unit_circle(coeffs: np.ndarray) -> np.ndarray:
    """Whether 1 - sum_p c_p z^(p lag) has every root outside the unit circle, per row c of
    ``coeffs``: the step-down (Schur-Cohn) recursion, the inverse of ``levinson``'s update,
    finds every reflection coefficient in (-1, 1).  The lag drops out: |z| > 1 iff |z^lag| > 1."""
    a = np.asarray(coeffs, dtype=float)
    ok = np.abs(a[:, -1]) < 1.0
    for j in range(a.shape[1] - 1, 0, -1):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):   # only in rejected rows
            a = (a[:, :j] + a[:, j, None] * a[:, j - 1::-1]) / (1.0 - a[:, j, None] ** 2)
        ok &= np.abs(a[:, -1]) < 1.0
    return ok


@dataclass(frozen=True)
class SarfimaSpec:
    """Full model: seasonal fractional components, ARMA factors, sigma^2."""

    components: tuple
    ar_factors: tuple = ()
    ma_factors: tuple = ()
    innovation_variance: float = 1.0

    def __post_init__(self):
        comps = _check_sequence(self.components, "bad-components", "components", SeasonalComponent)
        object.__setattr__(self, "components", comps)
        for name in ("ar_factors", "ma_factors"):
            object.__setattr__(self, name, _check_sequence(getattr(self, name), "bad-arma-factors", name, ArmaFactor))
        if not 1 <= len(comps) <= 2:
            raise ValidationError("bad-components", f"need 1 or 2 seasonal components, got {len(comps)}")
        periods = [c.period for c in comps]
        if len(set(periods)) != len(periods):
            raise ValidationError("duplicate-period",
                                  f"component periods must be distinct, got {_shown(periods[0])} twice")
        variance = _check_real(self.innovation_variance, "bad-sigma2", "innovation variance")
        object.__setattr__(self, "innovation_variance", variance)
        if variance <= 0:
            raise ValidationError("bad-sigma2", f"innovation variance must be > 0, got {variance!r}")

    @property
    def periods(self) -> tuple:
        return tuple(c.period for c in self.components)

    @property
    def memories(self) -> tuple:
        return tuple(c.memory for c in self.components)


@dataclass(frozen=True)
class ValidityReport:
    stationary: bool
    invertible: bool
    violations: tuple


def check_stationary_invertible(spec: SarfimaSpec) -> ValidityReport:
    """Check the stationarity/invertibility region of the memory vector.

    The process is stationary when |d1 + d2| < 1/2 and |d_i| < 1/2 for each
    component (single component: |d| < 1/2), with all AR factor roots strictly
    outside the unit circle.  Invertibility mirrors the same inequalities
    (they are symmetric in the sign of d) with the MA roots outside the unit
    circle.  The report names every violated condition.
    """
    violations = []
    ds = spec.memories
    for i, d in enumerate(ds):
        if not abs(d) < 0.5:
            violations.append(f"|d[{i}]| >= 1/2")
    if len(ds) == 2 and not abs(ds[0] + ds[1]) < 0.5:
        violations.append("|d1+d2| >= 1/2")
    d_ok = not violations
    ar_bad = [f"ar-roots-inside[lag={f.lag}]" for f in spec.ar_factors
              if not f.roots_outside_unit_circle()]
    ma_bad = [f"ma-roots-inside[lag={f.lag}]" for f in spec.ma_factors
              if not f.roots_outside_unit_circle()]
    return ValidityReport(stationary=d_ok and not ar_bad, invertible=d_ok and not ma_bad,
                          violations=tuple(violations + ar_bad + ma_bad))


def require_stationary(spec: SarfimaSpec, what: str = "operation"):
    report = check_stationary_invertible(spec)
    if not report.stationary:
        raise ValidationError(
            "nonstationary-spec",
            f"{what} requires a stationary spec; violated: {', '.join(report.violations)}")


# ---------------------------------------------------------------------------
# fractional filter coefficients
# ---------------------------------------------------------------------------

def pi_coefficients(d: float, s: int, max_lag: int) -> np.ndarray:
    """Coefficients of (1 - B^s)^d up to max_lag.

    Entry k*s carries pi_k = Gamma(k-d) / (Gamma(k+1) Gamma(-d)), all other
    entries are zero.  Computed by the stable multiplicative recursion
    pi_0 = 1, pi_k = pi_{k-1} (k-1-d)/k, which avoids Gamma overflow past
    k ~ 170.
    """
    d = _check_real(d, "bad-memory", "d")
    _check_integer(s, 1, "bad-period", "period")
    _check_integer(max_lag, 0, "bad-lag", "max_lag")
    _check_fits(8 * (max_lag + 1), f"a filter of {_shown(max_lag + 1)} coefficients")
    kmax = max_lag // s
    coeffs = np.zeros(max_lag + 1)
    k = np.arange(1, kmax + 1)
    pik = np.concatenate([[1.0], np.cumprod((k - 1 - d) / k)])
    coeffs[::s][: kmax + 1] = pik
    return coeffs


def combined_filter_coefficients(spec: SarfimaSpec, max_lag: int) -> np.ndarray:
    """Coefficients pi* of prod_i (1 - B^(s_i))^(d_i) up to max_lag.

    Polynomial convolution of the per-component expansions.  Applying pi*
    with the spec's own (positive) d removes the memory; negating the d's
    gives the MA(infinity) expansion instead.
    """
    out = np.array([1.0])
    for comp in spec.components:
        out = np.convolve(out, pi_coefficients(comp.memory, comp.period, max_lag))[: max_lag + 1]
    return out


def _next_fast_len(target: int) -> int:
    """The smallest 2^a 3^b 5^c >= target, the fast real FFT lengths."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-target // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _convolve_head(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The first len(x) terms of the linear convolution x * coeffs, by FFT.

    The arithmetic of SciPy's ``fftconvolve`` for real 1-d inputs (rfft at
    the next fast real length of the full convolution), on numpy's FFT,
    which gives the same bits as SciPy's.
    """
    size = _next_fast_len(len(x) + len(coeffs) - 1)
    return np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(coeffs, size), size)[: len(x)]


# ---------------------------------------------------------------------------
# spectral density
# ---------------------------------------------------------------------------

def arma_spectral_density(spec: SarfimaSpec, lam) -> np.ndarray:
    """Spectral density of the ARMA part nu_t: (sigma^2/2pi) |Theta|^2/|Phi|^2."""
    lam = np.asarray(lam, dtype=float)
    f = np.full(lam.shape, spec.innovation_variance / (2 * np.pi))
    for factor in spec.ma_factors:
        f = f * np.abs(factor.transfer(lam)) ** 2
    for factor in spec.ar_factors:
        f = f / np.abs(factor.transfer(lam)) ** 2
    return f


def spectral_density(spec: SarfimaSpec, lam: float) -> float:
    """Theoretical spectral density f(lam) of the stationary process.

    f(lam) = f_nu(lam) * prod_i |2 sin(lam s_i / 2)|^(-2 d_i).  At a seasonal
    harmonic (a pole within POLE_TOL of lam) the sin factors of the owning
    components are replaced by their limit: +inf when the local exponent is
    positive, 0 when negative, and the finite limit prod s_i^(-2 d_i) when
    the exponents cancel exactly.
    """
    require_stationary(spec, "spectral density")
    lam = _check_real(lam, "bad-frequency", "lambda")
    if not -np.pi - POLE_TOL <= lam <= np.pi + POLE_TOL:
        raise ValidationError("bad-frequency", f"lambda must lie in (-pi, pi], got {lam}")
    lam = abs(lam)  # even function

    pole = next((p for p in enumerate_poles(spec) if abs(lam - p.frequency) < POLE_TOL), None)
    if pole and pole.local_exponent > POLE_TOL:
        return math.inf
    if pole and pole.local_exponent < -POLE_TOL:
        return 0.0
    return _seasonal_gain(spec, lam, pole.owners if pole else (), float(arma_spectral_density(spec, lam)))


def _seasonal_gain(spec: SarfimaSpec, lam: float, owners, val: float = 1.0) -> float:
    """val * prod_i |2 sin(lam s_i / 2)|^(-2 d_i), with the vanishing factor
    of each pole owner replaced by its limit ratio s_i^(-2 d_i)."""
    for comp in spec.components:
        base = float(comp.period) if comp in owners else abs(2 * math.sin(lam * comp.period / 2))
        val *= base ** (-2 * comp.memory)
    return val


# ---------------------------------------------------------------------------
# poles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pole:
    """The harmonic 2 pi * ``fraction`` and the components whose sin factor
    vanishes there (``fraction * period`` integral); the rest is derived."""

    fraction: Fraction      # in [0, 1/2]
    owners: tuple           # SeasonalComponents, in spec order

    @property
    def frequency(self) -> float:
        return 2 * math.pi * float(self.fraction)

    @property
    def boundary(self) -> bool:
        """At 0 or pi, where the harmonic has no mirror image at -lam."""
        return self.fraction == 0 or self.fraction == Fraction(1, 2)

    @property
    def local_exponent(self) -> float:
        """e with f(lam) ~ C |lam - lam_p|^(-2 e): the owners' memory sum."""
        return sum(c.memory for c in self.owners)


@functools.lru_cache(maxsize=64)
def enumerate_poles(spec: SarfimaSpec) -> tuple:
    """The pole table: one ``Pole`` per distinct harmonic 2 pi j / s_i in
    [0, pi], sorted by frequency.

    Harmonics are exact fractions j / s_i, so a frequency shared by the two
    periods is merged by rational comparison, never by floating point, and
    its owners are exactly the components whose period it divides into.
    The spectral density, the asymptotic autocovariance, the acvf pole
    corrections and the Whittle pole exclusion all read this table.  Cached per
    spec: spectral_density looks up one frequency per call.
    """
    fractions = sorted({Fraction(j, c.period) for c in spec.components
                        for j in range(c.period // 2 + 1)})
    return tuple(Pole(fr, tuple(c for c in spec.components if (fr * c.period).denominator == 1))
                 for fr in fractions)


def asymptotic_acvf(spec: SarfimaSpec, h: int) -> float:
    """Large-lag autocovariance approximation.

    gamma(h) ~ sum over poles with positive local exponent e_p of

        a_p |h|^(2 e_p - 1) cos(h lam_p),
        a_p = w_p * 2 f_nu(lam_p) G_p Gamma(1 - 2 e_p) sin(pi e_p),

    where w_p is 2 for interior poles (which pair with their mirror at
    -lam_p) and 1 at 0 and pi, and G_p collects the non-vanishing sin
    factors and the s_i^(-2 d_i) limits of the vanishing ones.
    """
    require_stationary(spec, "asymptotic autocovariance")
    # past 2^53, h lam_p has no fractional part left
    h = abs(_check_integer(h, 1 - 2 ** 53, "bad-lag", "lag", 2 ** 53))
    if h == 0:
        raise ValidationError("bad-lag", "asymptotic form is not valid at h = 0")

    total = 0.0
    any_positive = False
    for pole in enumerate_poles(spec):
        e = pole.local_exponent
        if e <= 0:
            continue
        any_positive = True
        lam_p = pole.frequency
        G = _seasonal_gain(spec, lam_p, pole.owners)
        w = 1.0 if pole.boundary else 2.0
        a = w * 2.0 * float(arma_spectral_density(spec, lam_p)) * G \
            * math.gamma(1 - 2 * e) * math.sin(math.pi * e)
        total += a * h ** (2 * e - 1) * math.cos(h * lam_p)
    if not any_positive:
        raise ValidationError("no-positive-memory", "all pole exponents <= 0; no asymptotic power law")
    return total


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def spec_to_json(spec: SarfimaSpec) -> str:
    return json.dumps({
        "components": [{"period": c.period, "d": c.memory} for c in spec.components],
        "ar": [{"lag": f.lag, "coeffs": list(f.coeffs)} for f in spec.ar_factors],
        "ma": [{"lag": f.lag, "coeffs": list(f.coeffs)} for f in spec.ma_factors],
        "sigma2": spec.innovation_variance,
    }, indent=2)


def _json_object(value, keys: tuple, what: str, code: str = "bad-spec-json") -> dict:
    """``value`` if it is a JSON object whose keys are all among ``keys``: a
    misspelt key ends in ``code``, rather than leaving its part out."""
    if not isinstance(value, dict):
        raise ValidationError(code, f"{what} must be a JSON object, got {type(value).__name__}")
    unknown = [key for key in value if key not in keys]
    if unknown:
        raise ValidationError(code, f"unknown keys {unknown} in {what}; the keys are {list(keys)}")
    return value


def _json_document(text: str, what: str):
    """The JSON value in ``text``; text that is not JSON ends in ``bad-json``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:   # JSONDecodeError, an integer of more than 4300 digits, deep nesting
        raise ValidationError("bad-json", f"{what} is not valid JSON: {exc}") from exc


def spec_from_json(text: str) -> SarfimaSpec:
    return _spec_from_doc(_json_document(text, "spec"))


def _spec_from_doc(value) -> SarfimaSpec:
    """The spec of a parsed spec document; a malformed one ends in ``bad-spec-json``."""
    doc = _json_object(value, ("components", "ar", "ma", "sigma2"), "a spec")

    def objects(items, keys, what):
        return [_json_object(item, keys, what) for item in _check_sequence(items, "bad-spec-json", f"{what} list")]
    try:
        # periods and lags go in as parsed: the dataclasses reject 4.7, true and "4"
        components = tuple(SeasonalComponent(c["period"], _check_real(c["d"], "bad-spec-json", "d"))
                           for c in objects(doc["components"], ("period", "d"), "a component"))
        ar, ma = (tuple(ArmaFactor(f["lag"], tuple(_check_real(c, "bad-spec-json", "coeffs") for c in
                                                   _check_sequence(f["coeffs"], "bad-spec-json", "coeffs")))
                        for f in objects(doc.get(key, []), ("lag", "coeffs"), f"an {key} factor"))
                  for key in ("ar", "ma"))
    except KeyError as exc:
        raise ValidationError("bad-spec-json", f"malformed spec document: missing key {exc}") from exc
    return SarfimaSpec(components=components, ar_factors=ar, ma_factors=ma,
                       innovation_variance=_check_real(doc.get("sigma2", 1.0), "bad-spec-json", "sigma2"))
