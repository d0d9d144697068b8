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

from .errors import ValidationError

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
        if type(self.period) is not int or self.period < 1:   # not bool, float or str
            raise ValidationError("bad-period", f"period must be a positive integer, got {self.period!r}")
        if not math.isfinite(self.memory) or self.memory <= -1:
            raise ValidationError("bad-memory", f"memory must be finite and > -1, got {self.memory!r}")


@dataclass(frozen=True)
class ArmaFactor:
    """Seasonal polynomial 1 - c1 B^lag - c2 B^(2 lag) - ... applied to nu_t."""

    lag: int
    coeffs: tuple

    def __post_init__(self):
        if type(self.lag) is not int or self.lag < 1:
            raise ValidationError("bad-arma-lag", f"factor lag must be a positive integer, got {self.lag!r}")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if len(self.coeffs) == 0:
            raise ValidationError("bad-arma-coeffs", "factor needs at least one coefficient")
        if not all(math.isfinite(c) for c in self.coeffs):
            raise ValidationError("bad-arma-coeffs", "non-finite ARMA coefficient")

    def polynomial(self) -> np.ndarray:
        """Ascending coefficient array of 1 - sum_p c_p z^(p*lag)."""
        p = np.zeros(len(self.coeffs) * self.lag + 1)
        p[0] = 1.0
        for i, c in enumerate(self.coeffs, start=1):
            p[i * self.lag] = -c
        return p

    def transfer(self, lam) -> np.ndarray:
        """Transfer 1 - sum_p c_p e^(-i lam p lag) at the frequencies lam."""
        powers = self.lag * np.arange(1, len(self.coeffs) + 1)
        return 1.0 - np.exp(-1j * np.multiply.outer(lam, powers)) @ np.array(self.coeffs)

    def roots_outside_unit_circle(self) -> bool:
        return bool(_roots_outside_unit_circle(self.lag, np.array([self.coeffs]))[0])


def _roots_outside_unit_circle(lag: int, coeffs: np.ndarray) -> np.ndarray:
    """Whether 1 - sum_p c_p z^(p lag) has every root outside the unit
    circle, for each row c of ``coeffs``."""
    if coeffs.shape[1] == 1:
        # 1 - c z^lag = 0  =>  |z| = |c|^(-1/lag)
        return np.abs(coeffs[:, 0]) < 1.0
    return np.array([np.all(np.abs(np.roots(ArmaFactor(lag, c).polynomial()[::-1])) > 1.0)
                     for c in coeffs], dtype=bool)


@dataclass(frozen=True)
class SarfimaSpec:
    """Full model: seasonal fractional components, ARMA factors, sigma^2."""

    components: tuple
    ar_factors: tuple = ()
    ma_factors: tuple = ()
    innovation_variance: float = 1.0

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "ar_factors", tuple(self.ar_factors))
        object.__setattr__(self, "ma_factors", tuple(self.ma_factors))
        if not 1 <= len(comps) <= 2:
            raise ValidationError("bad-components", f"need 1 or 2 seasonal components, got {len(comps)}")
        periods = [c.period for c in comps]
        if len(set(periods)) != len(periods):
            raise ValidationError("duplicate-period", f"component periods must be distinct, got {periods}")
        if not (math.isfinite(self.innovation_variance) and self.innovation_variance > 0):
            raise ValidationError("bad-sigma2", f"innovation variance must be > 0, got {self.innovation_variance!r}")

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
    if not math.isfinite(d):
        raise ValidationError("bad-memory", f"d must be finite, got {d!r}")
    if s < 1 or max_lag < 0:
        raise ValidationError("bad-lag", "need s >= 1 and max_lag >= 0")
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
    if len(out) < max_lag + 1:
        out = np.pad(out, (0, max_lag + 1 - len(out)))
    return out


def _convolve_head(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The first len(x) terms of the linear convolution x * coeffs, by FFT.

    The arithmetic of SciPy's ``fftconvolve`` for real 1-d inputs (rfft at
    the next fast real length of the full convolution), so the result is
    bitwise the same without importing SciPy's signal module.
    """
    from scipy.fft import irfft, next_fast_len, rfft   # keeps scipy.fft off the import path
    size = next_fast_len(len(x) + len(coeffs) - 1, True)
    return irfft(rfft(x, size) * rfft(coeffs, size), size)[: len(x)]


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
    lam = float(lam)
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
    The spectral density, the asymptotic autocovariance, the quadrature
    segments and the Whittle pole exclusion all read this table.  Cached per
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
    h = int(h)
    if h == 0:
        raise ValidationError("bad-lag", "asymptotic form is not valid at h = 0")
    h = abs(h)

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
    doc = {
        "components": [{"period": c.period, "d": c.memory} for c in spec.components],
        "ar": [{"lag": f.lag, "coeffs": list(f.coeffs)} for f in spec.ar_factors],
        "ma": [{"lag": f.lag, "coeffs": list(f.coeffs)} for f in spec.ma_factors],
        "sigma2": spec.innovation_variance,
    }
    return json.dumps(doc, indent=2)


def _json_number(value, what: str) -> float:
    """``value`` as a float if it is a JSON number; true, false and strings are not."""
    if type(value) not in (int, float):
        raise ValidationError("bad-spec-json", f"{what} must be a JSON number, got {value!r}")
    return float(value)


def spec_from_json(text: str) -> SarfimaSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError("bad-json", f"spec is not valid JSON: {exc}") from exc
    try:
        # periods and lags go in as parsed: the dataclasses reject 4.7, true and "4"
        components = tuple(SeasonalComponent(c["period"], _json_number(c["d"], "d"))
                           for c in doc["components"])
        ar = tuple(ArmaFactor(f["lag"], tuple(_json_number(c, "coeffs") for c in f["coeffs"]))
                   for f in doc.get("ar", []))
        ma = tuple(ArmaFactor(f["lag"], tuple(_json_number(c, "coeffs") for c in f["coeffs"]))
                   for f in doc.get("ma", []))
        sigma2 = _json_number(doc.get("sigma2", 1.0), "sigma2")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError("bad-spec-json", f"malformed spec document: {exc}") from exc
    return SarfimaSpec(components=components, ar_factors=ar, ma_factors=ma,
                       innovation_variance=sigma2)
