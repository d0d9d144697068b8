"""Periodogram and the seasonal-harmonic band plan for log-periodogram regression."""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ValidationError, _check_fits, _check_integer, _check_real, _shown

__all__ = ["Periodogram", "Band", "BandPlan", "periodogram", "build_band_plan",
           "gph_T_bandwidth", "resolve_bandwidth", "write_csv"]


@dataclass(frozen=True)
class Periodogram:
    """Ordinates I(lambda_j) for j = 1..n-1, lambda_j = 2 pi j / n."""

    n: int
    ordinates: np.ndarray  # length n-1, index 0 <-> j=1

    @property
    def frequencies(self) -> np.ndarray:
        return _frequencies(self.n)

    def to_csv(self, path):
        cells = _frequency_cells if self.n <= _CACHED_CELLS_MAX_N else _frequency_cells.__wrapped__
        write_csv(path, ("j", "lambda", "ordinate"), columns=(cells(self.n), _ordinate_cells(self.ordinates)))


def _ordinate_cells(ordinates: np.ndarray) -> list:
    """The ordinates as CSV cells, or as the floats that write_csv formats.
    ``periodogram`` makes I_j and I_(n-j) the same bits, so the cells of such
    a mirrored sequence are formatted for its first half alone: a float's
    repr is most of the cost of a periodogram file."""
    values = ordinates.tolist()
    if not (ordinates.dtype == np.float64
            and np.array_equal(ordinates.view(np.uint64), ordinates[::-1].view(np.uint64))):
        return values
    half = len(values) // 2
    cells = list(map(repr, values[:len(values) - half]))
    return cells + cells[:half][::-1]


#: the longest periodogram whose ``j,lambda`` texts are cached: four entries
#: then hold at most ~20 MB
_CACHED_CELLS_MAX_N = 1 << 15


@functools.lru_cache(maxsize=4)
def _frequency_cells(n: int) -> tuple:
    """The ``j,lambda`` text that starts each row of a length-n periodogram's
    CSV, which depends on n alone."""
    return tuple(map("{},{!r}".format, range(1, n), _frequencies(n).tolist()))


def _frequencies(n: int) -> np.ndarray:
    return 2 * np.pi * np.arange(1, n) / n


def periodogram(series) -> Periodogram:
    """Raw periodogram I(lambda_j) = (2 pi n)^-1 |sum_t x_t e^(i lambda_j t)|^2
    of a series of length >= 8, computed by FFT after removing the sample
    mean: the ordinates j = 1..n-1 do not depend on the mean, and removing
    it keeps a large one from costing precision.
    """
    x = _series(series)
    if len(x) < 8:
        raise ValidationError("series-too-short", f"need a 1-d series with n >= 8, got n={x.size}")
    return Periodogram(n=len(x), ordinates=_ordinates(x[None, :])[0])


def _series(series) -> np.ndarray:
    """``series`` as a 1-d float array: any other shape ends in
    ``series-too-short``; a NaN or infinite value, or one that is not a real
    number (a numeric string included), in ``non-finite-input``."""
    try:
        if np.iscomplexobj(series):   # the cast would drop the imaginary parts
            raise TypeError("complex values")
        x = np.asarray(series)
        if x.dtype.kind in "SU":   # the cast would parse numeric strings
            raise TypeError(f"string values of dtype {x.dtype}")
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError("non-finite-input", f"series values must be real numbers ({exc})") from exc
    if x.ndim != 1:
        raise ValidationError("series-too-short", f"need a 1-d series, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValidationError("non-finite-input", "series contains NaN or infinite values")
    return x


def _ordinates(paths: np.ndarray) -> np.ndarray:
    """Periodogram ordinates of every row of ``paths``, as a C-ordered block
    with one row per path; a row's bits do not depend on the other rows.
    One real FFT gives j = 1..floor(n/2), mirrored onto j = n - 1 down to
    floor(n/2) + 1, so that I_j and I_(n-j) are the same bits."""
    if not np.all(np.isfinite(paths)):
        raise ValidationError("non-finite-input", "series contains NaN or infinite values")
    n = paths.shape[1]
    half = n // 2
    x = np.ascontiguousarray(paths)
    I = np.abs(np.fft.rfft(x - x.mean(axis=1, keepdims=True), axis=1)[:, 1:half + 1])
    I **= 2
    I /= 2 * np.pi * n
    return np.concatenate([I, I[:, :n - 1 - half][:, ::-1]], axis=1)


@dataclass(frozen=True)
class Band:
    """One regression band around the harmonic 2 pi k / s'."""

    k: int
    center_index: int       # nearest Fourier index round(n k / s'), half to even
    # center_index + j, j = 1..m then -1..-m, per side it has; read-only; compared by the fields above
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


def _check_periods(*periods) -> tuple:
    """The periods as plain ints; one that is not an integer >= 1 is
    rejected before any cache lookup, bandwidth or band arithmetic."""
    return tuple(_check_integer(s, 1, "bad-period", "period") for s in periods)


def _check_bandwidth(m) -> int:
    """The bandwidth as a plain int, below 2^53 so that float arithmetic holds
    it exactly; one below 2 is ``m-too-small`` in a plan."""
    return _check_integer(m, None, "bad-bandwidth", "bandwidth m", 2 ** 53)


def _check_period_pair(s1: int, s2: int) -> tuple:
    """Both periods as plain ints >= 1, the smaller dividing the larger."""
    s1, s2 = _check_periods(s1, s2)
    sp, ss = max(s1, s2), min(s1, s2)
    if sp % ss != 0:
        raise ValidationError("s2-not-divisor",
                              f"smaller period {_shown(ss)} must divide larger period {_shown(sp)}")
    return s1, s2


def _check_bandwidth_choice(alpha, m, gph_T, uncapped):
    """The one rule that picks a bandwidth: exactly one of ``alpha``, ``m``
    and the bool ``gph_T``, and the bool ``uncapped`` only with ``gph_T``."""
    if not (isinstance(gph_T, bool) and isinstance(uncapped, bool)
            and (alpha is not None) + (m is not None) + gph_T == 1 and (gph_T or not uncapped)):
        raise ValidationError("bad-bandwidth", "pick exactly one of alpha, m and gph_T, uncapped only with gph_T, "
                              "bool flags; got " + ", ".join(f"{name}={_shown(value)}" for name, value in (
                                  ("alpha", alpha), ("m", m), ("gph_T", gph_T), ("uncapped", uncapped))))


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
    n = _check_integer(n, 1, "bad-n", "series length n")
    sp = max(_check_periods(s1, s1 if s2 is None else s2))
    raw = (n - 1) // sp
    cap = (n // sp - 1) // 2
    return max(min(raw, cap), 1)


def resolve_bandwidth(n: int, s_prime: int, alpha: float = None, m: int = None,
                      gph_T: bool = False, uncapped: bool = False) -> int:
    """The bandwidth m as a plain int, decided here alone: the truncated
    floor((n-1)/s') if ``gph_T`` (capped unless ``uncapped``, floored at 1),
    floor(n^alpha), or the fixed ``m``.  Any other choice, a non-bool flag,
    or an alpha with no finite n^alpha ends in ``bad-bandwidth``."""
    n = _check_integer(n, 1, "bad-n", "series length n")
    (s_prime,) = _check_periods(s_prime)
    _check_bandwidth_choice(alpha, m, gph_T, uncapped)
    if gph_T:
        return max((n - 1) // s_prime, 1) if uncapped else gph_T_bandwidth(n, s_prime)
    if m is not None:
        return _check_bandwidth(m)
    alpha = _check_real(alpha, "bad-bandwidth", "alpha")
    try:
        return int(n ** alpha)
    except OverflowError as exc:   # n or n^alpha beyond the float range
        raise ValidationError("bad-bandwidth", f"need a finite n^alpha, got n={_shown(n)}, alpha={alpha!r}") from exc


def build_band_plan(n: int, s1: int, s2: int, m: int, allow_overlap: bool = False) -> BandPlan:
    """Construct the regression bands for periods (s1, s2), s' = max.

    Per band k the signed offsets are {1..m} at k=0, {-1..-m} at k=s'/2 for
    even s', and {+-1..+-m} otherwise; ordinates live at the Fourier index
    round(n k / s') + j.  Requires the smaller period to divide the larger
    and 2 m s' < n unless ``allow_overlap`` (used by the uncapped
    truncated-bandwidth variant, which double-counts shared ordinates).
    Every rule is decided in integers before an index is built, and the
    indices must fit in int64 and the plan in memory (``too-large``).
    A plan depends on nothing but its arguments, so it is built once per
    argument tuple and shared, with read-only index arrays.
    """
    m = _check_bandwidth(m)
    return _band_plan(_check_integer(n, 1, "bad-n", "series length n"), *_check_period_pair(s1, s2), m,
                      allow_overlap)


#: bytes per band besides the 8 m s' of indices: ~300 kept, ~420 at the peak of a build
_BYTES_PER_BAND = 512


@functools.lru_cache(maxsize=64)
def _band_plan(n: int, s1: int, s2: int, m: int, allow_overlap: bool) -> BandPlan:
    sp, ss = max(s1, s2), min(s1, s2)
    if m < 2:
        raise ValidationError("m-too-small", f"bandwidth m must be >= 2, got {_shown(m)}")
    if not allow_overlap and not 2 * m * sp < n:
        raise ValidationError("band-overlap",
                              f"2 m s' = {_shown(2 * m * sp)} >= n = {_shown(n)}: 2 pi m / n >= pi / s'; reduce m")

    def span(k):   # band k's centre and its first and last Fourier index, in (0, pi] and int64
        centre = round(Fraction(n * k, sp))
        first, last = (1, m) if k == 0 else (centre - m, centre - 1 if 2 * k == sp else centre + m)
        if first < 1 or last > n // 2:
            raise ValidationError("band-overlap",
                                  f"band k={k} spills outside (0, pi] (indices {_shown(first)}..{_shown(last)})")
        if last >= 2 ** 63:
            raise ValidationError("too-large", f"band k={k} has Fourier indices past int64 (up to {_shown(last)})")
        return centre, first, last

    spans = [span(k) for k in range(min(2, sp // 2 + 1))]   # a huge s' spills here, before the size check
    _check_fits(8 * m * sp + _BYTES_PER_BAND * (sp // 2 + 1), f"a band plan of {_shown(sp // 2 + 1)} bands")
    spans += [span(k) for k in range(len(spans), sp // 2 + 1)]
    if not allow_overlap and any(a[2] >= b[1] for a, b in zip(spans, spans[1:])):
        raise ValidationError("band-overlap", "bands share Fourier indices; reduce m")

    bands = []
    for k, (centre, _, _) in enumerate(spans):
        up, down = centre + np.arange(1, m + 1), centre - np.arange(1, m + 1)
        idx = up if k == 0 else down if 2 * k == sp else np.concatenate([up, down])
        idx.setflags(write=False)
        bands.append(Band(k=k, center_index=centre, fourier_indices=idx))
    return BandPlan(n=n, s_prime=sp, s_small=ss, m=m, bands=tuple(bands))


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def write_csv(path, header, rows=(), columns=None) -> str:
    """Write ``header`` and equal-length ``rows`` as CSV and return the text
    written: None is a blank cell, a float (numpy floats included) its
    shortest round-trip repr, anything else str.  Equal-length sequences
    ``columns`` may stand in for ``rows``, which spares their transpose."""
    def cell(v):
        return "" if v is None else repr(float(v)) if isinstance(v, float) else str(v)

    def formatted(col):
        # a column of plain Python floats and ints goes through repr, and one of
        # str as it is, in one C-level pass; cell() per value is ~40% slower
        kinds = set(map(type, col))
        return col if kinds <= {str} else map(repr, col) if kinds <= {float, int} else map(cell, col)

    columns = list(zip(*rows)) if columns is None else columns
    cells = [formatted(col) for col in columns]
    # one column is its lines already; several are joined cell by cell
    lines = "\n".join(cells[0] if len(cells) == 1 else map(",".join, zip(*cells)))
    # no rows writes the header alone; a single blank cell is still a line
    text = ",".join(header) + "\n" + (lines + "\n" if columns and len(columns[0]) else "")
    with open(path, "w") as fh:
        fh.write(text)
    return text
