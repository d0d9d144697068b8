"""Periodogram and the seasonal-harmonic band plan for log-periodogram regression."""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

__all__ = ["Periodogram", "Band", "BandPlan", "periodogram", "build_band_plan",
           "gph_T_bandwidth", "resolve_bandwidth", "write_csv"]


@dataclass(frozen=True)
class Periodogram:
    """Ordinates I(lambda_j) for j = 1..n-1, lambda_j = 2 pi j / n."""

    n: int
    ordinates: np.ndarray  # length n-1, index 0 <-> j=1

    @property
    def frequencies(self) -> np.ndarray:
        return 2 * np.pi * np.arange(1, self.n) / self.n

    def to_csv(self, path):
        write_csv(path, ("j", "lambda", "ordinate"),
                  zip(range(1, self.n), self.frequencies.tolist(), self.ordinates.tolist()))


def periodogram(series, subtract_mean: bool = True) -> Periodogram:
    """Raw periodogram I(lambda_j) = (2 pi n)^-1 |sum_t x_t e^(i lambda_j t)|^2,
    computed by FFT.

    Parameters
    ----------
    series : array-like
        Observed series, length >= 8.
    subtract_mean : bool
        Remove the sample mean first (the j=0 ordinate is dropped either way).
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or len(x) < 8:
        raise ValidationError("series-too-short", f"need a 1-d series with n >= 8, got n={x.size}")
    return Periodogram(n=len(x), ordinates=_ordinates(x[None, :], subtract_mean)[0])


def _ordinates(paths: np.ndarray, subtract_mean: bool = True) -> np.ndarray:
    """Periodogram ordinates of every row of ``paths``, as a C-ordered block
    with one row per path; a row's bits do not depend on the other rows."""
    if not np.all(np.isfinite(paths)):
        raise ValidationError("non-finite-input", "series contains NaN or infinite values")
    n = paths.shape[1]
    x = np.ascontiguousarray(paths)
    I = np.abs(np.fft.fft(x - x.mean(axis=1, keepdims=True) if subtract_mean else x, axis=1)[:, 1:])
    I **= 2
    I /= 2 * np.pi * n
    return I


@dataclass(frozen=True)
class Band:
    """One regression band around the harmonic 2 pi k / s'."""

    k: int
    center_index: int       # nearest Fourier index round(n k / s')
    j_set: tuple            # signed offsets
    # center_index + j_set, read-only; equality and hashing go by the fields above
    fourier_indices: np.ndarray = field(compare=False)


@dataclass(frozen=True)
class BandPlan:
    """Bands k = 0..floor(s'/2) with m Fourier ordinates per side.

    Only the regression layout: the band weights delta_k and the informative
    set I of the covariance design live in ``asymptotic_cov_matrix``.
    """

    n: int
    s_prime: int
    s_small: int
    m: int
    bands: tuple


def _check_periods(*periods):
    """Reject a period below 1 before any bandwidth or band arithmetic divides by it."""
    for s in periods:
        if s < 1:
            raise ValidationError("bad-period", f"periods must be >= 1, got {s}")


def _check_bandwidth(m):
    """Reject a bandwidth that is not an integer; called before a cache
    lookup, so a float or boolean is rejected, not coerced to an equal key."""
    if isinstance(m, bool) or not isinstance(m, numbers.Integral):
        raise ValidationError("bad-bandwidth", f"bandwidth m must be an integer, got {m!r}")


def _check_period_pair(s1: int, s2: int):
    """Both periods >= 1 and the smaller dividing the larger."""
    _check_periods(s1, s2)
    sp, ss = max(s1, s2), min(s1, s2)
    if sp % ss != 0:
        raise ValidationError("s2-not-divisor", f"smaller period {ss} must divide larger period {sp}")


def gph_T_bandwidth(n: int, s1: int, s2: int = None) -> int:
    """Bandwidth floor((n-1)/s') capped so adjacent bands cannot overlap.

    The uncapped value uses every Fourier frequency between harmonics and
    violates the non-overlap guard for small s'; the cap keeps just under
    half the inter-harmonic index gap per side.  When s' does not divide n
    the band centers snap to the nearest Fourier index, so the worst-case
    gap is floor(n/s') indices and the cap is (floor(n/s') - 1) // 2.
    Never returns less than 1 (values below 2 are rejected downstream by
    the band plan).
    """
    periods = (s1,) if s2 is None else (s1, s2)
    _check_periods(*periods)
    sp = max(periods)
    raw = (n - 1) // sp
    cap = (n // sp - 1) // 2
    return max(min(raw, cap), 1)


def resolve_bandwidth(n: int, s_prime: int, alpha: float = None, m: int = None,
                      gph_T: bool = False, uncapped: bool = False) -> int:
    """Bandwidth m: the truncated floor((n-1)/s') if ``gph_T`` (capped unless
    ``uncapped``, floored at 1), else floor(n^alpha), else the fixed ``m``."""
    _check_periods(s_prime)
    if gph_T:
        return max((n - 1) // s_prime, 1) if uncapped else gph_T_bandwidth(n, s_prime)
    if alpha is not None:
        try:
            if math.isfinite(alpha):
                return int(n ** alpha)
        except OverflowError:   # n^alpha beyond the float range
            pass
        raise ValidationError("bad-bandwidth", f"need a finite alpha with a finite n^alpha, got {alpha!r}")
    return m


def build_band_plan(n: int, s1: int, s2: int, m: int, allow_overlap: bool = False) -> BandPlan:
    """Construct the regression bands for periods (s1, s2), s' = max.

    Per band k the signed offsets are {1..m} at k=0, {-1..-m} at k=s'/2 for
    even s', and {+-1..+-m} otherwise; ordinates live at the Fourier index
    round(n k / s') + j.  Requires the smaller period to divide the larger
    and 2 pi m / n < pi / s' unless ``allow_overlap`` (used by the uncapped
    truncated-bandwidth variant, which double-counts shared ordinates).
    A plan depends on nothing but its arguments, so it is built once per
    argument tuple and shared, with read-only index arrays.
    """
    _check_bandwidth(m)
    return _band_plan(n, s1, s2, m, allow_overlap)


@functools.lru_cache(maxsize=64)
def _band_plan(n: int, s1: int, s2: int, m: int, allow_overlap: bool) -> BandPlan:
    _check_period_pair(s1, s2)
    sp, ss = max(s1, s2), min(s1, s2)
    if m < 2:
        raise ValidationError("m-too-small", f"bandwidth m must be >= 2, got {m}")
    if not allow_overlap and not 2 * np.pi * m / n < np.pi / sp:
        raise ValidationError("band-overlap",
                              f"2 pi m / n = {2*np.pi*m/n:.4g} >= pi/s' = {np.pi/sp:.4g}; reduce m")

    bands = []
    for k in range(sp // 2 + 1):
        center_index = round(n * k / sp)
        if k == 0:
            js = tuple(range(1, m + 1))
        elif 2 * k == sp:
            js = tuple(range(-1, -m - 1, -1))
        else:
            js = tuple(range(1, m + 1)) + tuple(range(-1, -m - 1, -1))
        idx = center_index + np.array(js)
        if idx.min() < 1 or idx.max() > n // 2:
            raise ValidationError("band-overlap",
                                  f"band k={k} spills outside (0, pi] (indices {idx.min()}..{idx.max()})")
        idx.setflags(write=False)
        bands.append(Band(k=k, center_index=center_index, j_set=js, fourier_indices=idx))

    if not allow_overlap:
        everything = np.concatenate([b.fourier_indices for b in bands])
        if len(np.unique(everything)) != len(everything):
            raise ValidationError("band-overlap", "bands share Fourier indices; reduce m")
    return BandPlan(n=n, s_prime=sp, s_small=ss, m=m, bands=tuple(bands))


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def write_csv(path, header, rows):
    """Write ``header`` and equal-length ``rows`` as CSV: None is a blank
    cell, a float (numpy floats included) its shortest round-trip repr,
    anything else str."""
    def cell(v):
        return "" if v is None else repr(float(v)) if isinstance(v, float) else str(v)

    # a column of plain Python floats and ints goes through repr in one C-level
    # pass: calling cell() per value writes a 1080-row series ~40% slower
    columns = [map(repr, col) if set(map(type, col)) <= {float, int} else map(cell, col)
               for col in zip(*rows)]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join(line + "\n" for line in map(",".join, zip(*columns))))
