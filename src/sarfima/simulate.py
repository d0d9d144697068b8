"""Exact Gaussian simulation of stationary seasonal fractional processes.

The autocovariance gamma(h) = int_{-pi}^{pi} f e^(i h lambda) dlambda is one
FFT of the spectral density f on a uniform grid, corrected at each pole by
zeta-function terms, then turned into exact sample paths in blocks: by
default with one real FFT per path through the eigenvalues of its circulant
embedding (circulant; Davies & Harte 1987, Wood & Chan 1994), in O(n log n)
time and O(n) memory, or by one triangular solve against its Durbin-Levinson
decomposition (exact_dl), in O(n^2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, NumericError, _check_fits, _check_integer, _shown
from .model import SarfimaSpec, arma_spectral_density, enumerate_poles, levinson, require_stationary

__all__ = ["SimConfig", "acvf_numeric", "acvf_self_check", "simulate",
           "durbin_levinson_decompose", "derive_rep_seed", "default_grid_exponent",
           "MAX_GRID_EXPONENT"]

#: the trapezoid grid: M = lcm(periods) 2^k nodes, the smallest such M with
#: at least _MIN_NODES, _NODES_PER_LAG per lag, _NODES_PER_RADIUS within the
#: Chebyshev fit's radius and 2^min(g - 3, 18) for the grid exponent g
_MIN_NODES = 8192
_NODES_PER_LAG = 8
_NODES_PER_RADIUS = 8

#: the pole corrections' last term is Delta^(beta + 13); the derivatives
#: come from a Chebyshev fit of _FIT_POINTS about the pole, of radius at most
#: _FIT_RADIUS, which AR roots nearer the unit circle than _MIN_AR_RADIUS
#: shrink no further (so that they need at most about half a million nodes)
_CORRECTION_ORDER = 12
_FIT_POINTS = 48
_FIT_RADIUS = 0.02
_MIN_AR_RADIUS = 1e-4

#: grid nodes per call of the density, and the grid's peak memory per node:
#: fresh processes peaked at 37.4 bytes on table5 at n = 2^20 (12.6 million
#: nodes), 32.7 of them above the interpreter's own
_DENSITY_CHUNK = 1 << 16
_BYTES_PER_NODE = 40

#: the sampler used unless a method is named
DEFAULT_METHOD = "circulant"

#: largest accepted grid exponent.  The resolution floor stops at 2^18 from
#: g = 21, so no larger value changes the grid
MAX_GRID_EXPONENT = 40


def default_grid_exponent(n: int) -> int:
    """Smallest exponent g with 2^g >= 64 n, floored at 17."""
    return max(17, math.ceil(math.log2(64 * max(n, 1))))


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce one simulated path, with its counts as plain ints."""

    spec: SarfimaSpec
    n: int
    seed: int
    method: str = DEFAULT_METHOD
    grid_exponent: int = None

    def __post_init__(self):
        object.__setattr__(self, "n", _check_integer(self.n, 1, "bad-n", "n"))
        if not isinstance(self.method, str) or self.method not in _SAMPLERS:
            raise ValidationError("bad-method", f"unknown simulation method {self.method!r}")
        object.__setattr__(self, "seed", _check_integer(self.seed, 0, "bad-seed", "seed", 2 ** 64))
        g = self.grid_exponent
        object.__setattr__(self, "grid_exponent", default_grid_exponent(self.n) if g is None else
                           _check_integer(g, 0, "bad-grid-exponent", "grid exponent", MAX_GRID_EXPONENT + 1))
        if 2 ** self.grid_exponent < 64 * self.n:
            raise ValidationError("grid-too-small",
                                  f"need 2^grid_exponent >= 64 n; got 2^{self.grid_exponent} < {_shown(64 * self.n)}")
        _check_memory(self.spec, self.n, self.method, self.grid_exponent)


def _check_memory(spec: SarfimaSpec, n: int, method: str, grid_exponent: int, block_bytes: int = 0):
    """Raise ``too-large`` unless the acvf grid of either sampler (to the unpadded embedding's lag)
    or the n x n exact_dl table, plus ``block_bytes`` for what a run holds beside it, fits in
    physical memory; checked before any acvf work, which checks each padded grid itself."""
    grid = _BYTES_PER_NODE * _grid_nodes(spec, _embedding_half(spec, n), grid_exponent)
    table = 8 * int(n) ** 2 if method == "exact_dl" else 0
    _check_fits(block_bytes + max(grid, table),
                f"{method} at n={_shown(n)}" + (" with the run's paths and estimates" if block_bytes else ""),
                "; use --method circulant" if table > grid else "")


# ---------------------------------------------------------------------------
# autocovariance by the corrected trapezoid rule
# ---------------------------------------------------------------------------

def _fit_radius(spec: SarfimaSpec) -> float:
    """The Chebyshev fit's radius, inside G_p's nearest singularities: half
    the pole spacing 2 pi / lcm(periods), and log|z| / lag, the distance
    from the real axis of those each AR factor's roots z^lag put in f."""
    margin = math.inf
    for factor in spec.ar_factors:
        # the reciprocal roots, of z^q - c_1 z^(q-1) - ... - c_q: a subnormal
        # c_q would overflow the companion matrix of the roots themselves
        inverse = np.roots([1.0, *(-c for c in factor.coeffs)])
        with np.errstate(divide="ignore", over="ignore"):
            margin = min([margin, *np.log(1 / np.abs(inverse)) / factor.lag])
    return min(_FIT_RADIUS, math.pi / math.lcm(*spec.periods), max(margin, _MIN_AR_RADIUS))


#: B_2, B_4, ..., B_24, the Euler-Maclaurin terms of ``_zeta_em``, which
#: sums its first _ZETA_TERMS - 1 terms directly
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
              43867 / 798, -174611 / 330, 854513 / 138, -236364091 / 2730)
_ZETA_TERMS = 8
#: pi - float(pi), which corrects the powers of the rounded pi
_PI_LOW = 1.2246467991473532e-16


def _zeta_em(s: float, s_minus_1: float) -> float:
    """zeta(s) for real s != 1 by Euler-Maclaurin summation: the terms
    k^-s, k < N = _ZETA_TERMS, then N^(1-s)/(s-1) + N^-s/2 and the Bernoulli
    terms B_2j/(2j)! s(s+1)...(s+2j-2) N^(1-s-2j), with s - 1 given exactly."""
    n = _ZETA_TERMS
    power = n ** -s
    terms = [k ** -s for k in range(n - 1, 0, -1)] + [power / 2, power * n / s_minus_1]
    rising = s / n
    for j, bernoulli in enumerate(_BERNOULLI):
        terms.append(power * bernoulli / math.factorial(2 * j + 2) * rising)
        rising *= (s + 2 * j + 1) * (s + 2 * j + 2) / (n * n)
    return math.fsum(terms)


def _zeta(x: float) -> float:
    """The Riemann zeta function at real x < 1, to within 2e-15 relative.

    From 1/2 up, Euler-Maclaurin; below, the functional equation
    zeta(x) = (2 pi)^x / pi sin(pi x / 2) Gamma(1 - x) zeta(1 - x), with
    sin reduced by the nearest even integer, so that zeta(-2k) = 0 exactly,
    Gamma(1 - x) = -x Gamma(-x) and 1 - x = s given s - 1 = -x exactly, so
    that neither feels the rounding of 1 - x.  For |x| < 1e-17,
    zeta(x) = -1/2 - x log(2 pi)/2 + ... rounds to -1/2.
    """
    if x >= 0.5:
        return _zeta_em(x, x - 1)
    if abs(x) < 1e-17:
        return -0.5
    q = round(x / 2)
    sine = (-1) ** q * math.sin(math.pi / 2 * (x - 2 * q))
    scale = math.tau ** x / math.pi * (1 + (x - 1) * _PI_LOW / math.pi)
    return scale * sine * (-x * math.gamma(-x)) * _zeta_em(1 - x, -x)


def _grid_nodes(spec: SarfimaSpec, max_lag: int, grid_exponent: int) -> int:
    """M, the node count of ``acvf_numeric``'s grid; every pole is a node.  A
    pole spacing pi / lcm past the float range needs more nodes than any
    memory, and reads inf."""
    step = math.lcm(*spec.periods)
    try:
        radius_nodes = math.ceil(2 * math.pi * _NODES_PER_RADIUS / _fit_radius(spec))
    except OverflowError:
        return math.inf
    need = max(_MIN_NODES, _NODES_PER_LAG * (max_lag + 1), 2 ** min(grid_exponent - 3, 18), radius_nodes)
    return step << (-(-need // step) - 1).bit_length()


def _regularized_density(spec: SarfimaSpec, lam: np.ndarray, pole=None):
    """f(lam); given a pole, f(lam) * |lam - pole|^(2 e), each owner of the
    pole contributing the ratio |2 sin(lam s/2) / (lam-pole)|^(-2d), smooth
    even immediately next to the pole."""
    g = arma_spectral_density(spec, lam)
    for comp in spec.components:
        arg = np.abs(2 * np.sin(lam * comp.period / 2))
        if pole is not None and comp in pole.owners:
            arg /= np.abs(lam - pole.frequency)
        g *= arg ** (-2 * comp.memory)
    return g


def acvf_numeric(spec: SarfimaSpec, max_lag: int, grid_exponent: int = 17) -> np.ndarray:
    """gamma(0..max_lag) = int_{-pi}^{pi} f(lambda) e^(i h lambda) dlambda.

    The trapezoid rule on the M = ``_grid_nodes`` nodes 2 pi j / M, with
    the poles of ``enumerate_poles`` left out, is one inverse real FFT of f.
    Near a pole, f = |lambda - lambda_p|^beta G_p with beta = -2 (local
    exponent) and G_p smooth, and the rule errs by 2 sum_{m even}
    zeta(-beta - m) phi^(m)(0) Delta^(beta + m + 1) / m!, with Delta = 2 pi / M
    and phi(x) = G_p(lambda_p + x) e^(i h (lambda_p + x)) (Navot 1961; Sidi
    2012).  The terms to m = _CORRECTION_ORDER are subtracted, a polynomial in
    i h Delta, with G_p's derivatives from a Chebyshev fit; an interior pole
    counts twice, for its mirror, and the poles at 0 and pi once.  The zeta
    values come from ``_zeta``: Euler-Maclaurin summation, through Riemann's
    functional equation below 1/2.  A density grid or gamma that overflows
    raises ``non-finite-acvf``, before any pole correction for the grid, and
    a grid that does not fit in physical memory ``too-large``, before it is
    allocated.
    """
    _check_integer(max_lag, 0, "bad-lag", "max_lag")
    require_stationary(spec, "autocovariance")
    return _acvf(spec, max_lag, _grid_nodes(spec, max_lag, grid_exponent))


@np.errstate(over="ignore", invalid="ignore")
def _acvf(spec: SarfimaSpec, max_lag: int, nodes: int) -> np.ndarray:
    """``acvf_numeric`` of a stationary spec on ``nodes`` nodes, a multiple
    of lcm(periods); the grid is checked against physical memory first."""
    from numpy.polynomial import chebyshev, polynomial
    _check_fits(_BYTES_PER_NODE * nodes, "the acvf grid")
    delta = 2 * math.pi / nodes
    poles = enumerate_poles(spec)
    off = np.ones(nodes // 2 + 1, bool)
    off[[int(nodes * pole.fraction) for pole in poles]] = False
    # complex, as the inverse FFT takes it, and filled in chunks, so that
    # neither a cast nor the density's temporaries span the whole grid
    f = np.zeros(len(off), complex)
    for start in range(0, len(f), _DENSITY_CHUNK):
        j = start + np.flatnonzero(off[start:start + _DENSITY_CHUNK])
        f.real[j] = _regularized_density(spec, delta * j)
    _check_finite(f.real, "the spectral density on the quadrature grid")
    gamma = 2 * math.pi * np.fft.irfft(f, nodes)[:max_lag + 1]

    radius = _fit_radius(spec)
    h = np.arange(max_lag + 1)
    t = delta * h
    order = np.arange(_CORRECTION_ORDER + 1)
    for pole in poles:
        fit = chebyshev.chebinterpolate(
            lambda y: _regularized_density(spec, pole.frequency + radius * y, pole), _FIT_POINTS - 1)
        # Delta^k G_p^(k)(lambda_p) / k!, and the m-th term's factor (0 for odd m)
        taylor = chebyshev.cheb2poly(fit)[:len(order)] * (delta / radius) ** order
        beta = -2.0 * pole.local_exponent
        power = delta ** (beta + 1)
        zeta_terms = np.zeros(len(order))
        zeta_terms[::2] = [2 * _zeta(-beta - m) * power for m in range(0, len(order), 2)]
        # phi^(m)(0) / m! sums G_p^(k) / k! (i h)^j / j! over k + j = m
        # and i^j = (-1)^(j // 2) i^(j % 2) splits the sum in (i t)^j, t = h Delta
        c = (-1.0) ** (order // 2) * [zeta_terms[j:] @ taylor[:len(order) - j] / math.factorial(j)
                                      for j in order]
        even, odd = polynomial.polyval(t * t, c[0::2]), t * polynomial.polyval(t * t, c[1::2])
        weight = 1 if pole.boundary else 2
        gamma -= weight * (np.cos(pole.frequency * h) * even - np.sin(pole.frequency * h) * odd)
    _check_finite(gamma, "the autocovariance")
    return gamma


def _check_finite(values: np.ndarray, what: str):
    """Raise ``non-finite-acvf`` if ``values`` hold a NaN or infinity, the
    overflow that ``acvf_numeric`` lets pass silently up to its checks."""
    if not np.isfinite(values).all():
        raise NumericError("non-finite-acvf", f"{what} overflows or is undefined in floating point")


#: lags and tolerance of the grid halving check
_SELF_CHECK_LAGS = 50
_SELF_CHECK_TOL = 1e-6


def _halving_shift(spec: SarfimaSpec, head: np.ndarray, nodes: int) -> float:
    """Halving check: ``head``, gamma(h <= _SELF_CHECK_LAGS) on ``nodes``
    nodes, must move by less than _SELF_CHECK_TOL on nodes / 2, where every
    pole is still a node, since the fit radius makes nodes >= 16 lcm(periods).
    Returns the observed maximum shift; raises ``quadrature-unstable``."""
    shift = float(np.max(np.abs(head - _acvf(spec, _SELF_CHECK_LAGS, nodes // 2))))
    if not shift < _SELF_CHECK_TOL:
        raise NumericError("quadrature-unstable", f"acvf changed by {shift:.3g} >= {_SELF_CHECK_TOL:.3g} "
                           f"when its grid of {nodes} nodes was halved")
    return shift


def acvf_self_check(spec: SarfimaSpec, grid_exponent: int) -> float:
    """The halving check on the grid of ``acvf_numeric(spec,
    _SELF_CHECK_LAGS, grid_exponent)``; returns the observed maximum shift."""
    head = acvf_numeric(spec, _SELF_CHECK_LAGS, grid_exponent)
    return _halving_shift(spec, head, _grid_nodes(spec, _SELF_CHECK_LAGS, grid_exponent))


# ---------------------------------------------------------------------------
# Durbin-Levinson
# ---------------------------------------------------------------------------

def durbin_levinson_decompose(gamma: np.ndarray):
    """One-step-ahead predictor table for a Gaussian process with acvf gamma.

    Returns (M, sigma): M is unit-lower-triangular with M[t, t-j] holding
    -phi_{t,j}, so that M X = sigma * Z maps i.i.d. standard normals Z to an
    exact sample path; sigma[t] is the innovation standard deviation at step
    t.  Every partial autocorrelation must stay inside (-1, 1); anything
    else means the sequence is not positive definite and raises.  M and sigma
    are checked finite once here, so solves against them need not rescan.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = len(gamma)
    if gamma[0] <= 0:
        raise NumericError("not-positive-definite", f"gamma(0) = {gamma[0]} must be positive")
    M = np.eye(n)
    v = np.empty(n)
    v[0] = gamma[0]
    for t, (kappa, phi, v_t) in enumerate(levinson(gamma), start=1):
        if not -1.0 < kappa < 1.0:
            raise NumericError("pacf-out-of-range",
                               f"partial autocorrelation {kappa:.6g} outside (-1,1) at order {t}; "
                               "autocovariance sequence is not positive definite")
        M[t, :t] = -phi[::-1]
        v[t] = v_t
    if not (np.isfinite(v).all() and np.isfinite(M).all()):
        raise NumericError("non-finite-table",
                           "Durbin-Levinson table has NaN or infinite entries; "
                           "the autocovariance sequence is not finite")
    return M, np.sqrt(v)


def _dl_setup(spec: SarfimaSpec, n: int, grid_exponent: int):
    """The Durbin-Levinson table (M, sigma) of gamma(0..n-1), with the
    grid's node count and gamma(0.._SELF_CHECK_LAGS)."""
    gamma, nodes, head = _setup_acvf(spec, n - 1, grid_exponent)
    return durbin_levinson_decompose(gamma), nodes, head


def derive_rep_seed(master_seed: int, rep_index: int) -> int:
    """Documented stream split: uint64 drawn from SeedSequence([master, rep])."""
    ss = np.random.SeedSequence(entropy=[master_seed, rep_index])
    return int(ss.generate_state(1, np.uint64)[0])


def _seed_rng(seed: int) -> np.random.Generator:
    """The generator a path of seed ``seed`` draws its normals from."""
    return np.random.default_rng(np.random.SeedSequence(seed))


def _normals(rngs, size: int) -> np.ndarray:
    """Each generator's next ``size`` standard normals, one row each, checked finite."""
    z = np.empty((len(rngs), size))
    for j, rng in enumerate(rngs):
        rng.standard_normal(size, out=z[j])
    if not np.isfinite(z).all():
        raise NumericError("non-finite-draw", "innovations contain NaN or infinite values")
    return z


def _dl_paths(spec: SarfimaSpec, n: int, grid_exponent: int, rngs) -> np.ndarray:
    """Exact Durbin-Levinson paths, one row per generator, as an R x n array.

    Row j starts as the innovations sigma * z_j, with z_j the next n
    standard normals of rngs[j]; one BLAS-3 solve M X = B against the cached
    table then whitens the whole block, its paths the columns of X = B.T.
    The solve treats every column alike, so a row's bits depend on its
    generator only, not on the block's width or on the row's place in it.
    """
    from scipy.linalg.blas import dtrsm   # keeps scipy.linalg off the import path
    M, sig = _sampler_setup(spec, n, grid_exponent, "exact_dl")[0]
    B = _normals(rngs, n)
    B *= sig
    # M was checked finite when the set-up was built; M.T and B.T are
    # F-contiguous views, so neither the n x n table nor the block is copied
    return dtrsm(1.0, M.T, B.T, lower=0, trans_a=1, diag=1, overwrite_b=1).T


def _embedding_half(spec: SarfimaSpec, n: int) -> int:
    """The circulant embedding's half-length: n - 1 rounded up to a multiple
    of the lcm of the periods and ARMA lags."""
    step = math.lcm(*spec.periods, *(f.lag for f in spec.ar_factors + spec.ma_factors))
    return step * max(1, -(-(n - 1) // step))


#: doublings of the embedding's half-length tried before a negative
#: eigenvalue is an error: x16; the canned designs need at most x8
_MAX_PADDING_DOUBLINGS = 4


def _circulant_setup(spec: SarfimaSpec, n: int, grid_exponent: int):
    """The square roots of the eigenvalues of the circulant embedding of
    gamma(0..N), scaled for ``_circulant_paths``, with the grid's node count
    and gamma(0.._SELF_CHECK_LAGS).

    The half-length N starts at ``_embedding_half``.  Short series of
    seasonal AR designs have negative eigenvalues there (table5 at n = 16:
    down to -0.0014 of the largest), so N doubles, staying a multiple of the
    lcm, until every eigenvalue is non-negative (Wood & Chan 1994), at most
    _MAX_PADDING_DOUBLINGS times.  Eigenvalues are never clipped.
    """
    half = _embedding_half(spec, n)
    for doubling in range(_MAX_PADDING_DOUBLINGS + 1):
        if doubling:
            half *= 2
        gamma, nodes, head = _setup_acvf(spec, half, grid_exponent)
        eig = np.fft.rfft(np.concatenate([gamma, gamma[-2:0:-1]])).real
        if np.isfinite(eig).all() and eig.min() >= 0:
            break
    else:
        raise NumericError("negative-eigenvalue",
                           f"circulant embedding of half-length {half} has eigenvalue "
                           f"{eig.min():.3g} ({eig.min() / eig.max():.3g} of the largest) "
                           f"after {_MAX_PADDING_DOUBLINGS} doublings; use exact_dl")
    # frequencies 0 and pi take a real normal, the others a complex one whose
    # real and imaginary parts each carry half of the eigenvalue
    scale = np.full(half + 1, float(half))
    scale[[0, half]] = 2.0 * half
    return (np.sqrt(scale * eig),), nodes, head


def _circulant_paths(spec: SarfimaSpec, n: int, grid_exponent: int, rngs) -> np.ndarray:
    """Exact circulant-embedding paths (Davies-Harte), one row per
    generator, as an R x n array.

    Of the next 2N normals of rngs[j], the first N + 1 are the real parts of
    the spectrum at frequencies 0..N and the rest the imaginary parts at
    1..N-1; scaled by the roots, one real inverse FFT per row gives a
    sequence of length 2N whose first n values are the path.  Every row goes
    through the same arithmetic, so a row's bits depend on its generator
    only.  The normals are released before the transform and the paths
    copied out of it, so neither outlives its use.
    """
    root, = _sampler_setup(spec, n, grid_exponent, "circulant")[0]
    half = len(root) - 1
    z = _normals(rngs, 2 * half)
    spectrum = np.zeros((len(rngs), half + 1), dtype=complex)
    spectrum.real = z[:, :half + 1]
    spectrum.imag[:, 1:half] = z[:, half + 1:]
    del z
    spectrum *= root
    return np.fft.irfft(spectrum, 2 * half, axis=1)[:, :n].copy()


#: (set-up, drawer) by method name
_SAMPLERS = {"exact_dl": (_dl_setup, _dl_paths), "circulant": (_circulant_setup, _circulant_paths)}


#: the one resident sampler set-up, by (spec, n, grid_exponent, method):
#: ``too-large`` vouches for one set-up, not for several
_SETUP = {}


def _sampler_setup(spec: SarfimaSpec, n: int, grid_exponent: int, method: str):
    """``method``'s set-up for ``spec`` at length n, built once after one
    stationarity check: its arrays, read-only so that the checks made when
    they were built hold for every later path, the node count M of the acvf
    grid they were built on and gamma(0.._SELF_CHECK_LAGS) on that grid.
    Only the last set-up stays cached, released before the next is built."""
    key = (spec, n, grid_exponent, method)
    if key not in _SETUP:
        _SETUP.clear()
        require_stationary(spec, "simulation")
        arrays, nodes, head = _SAMPLERS[method][0](spec, n, grid_exponent)
        for array in arrays:
            array.setflags(write=False)
        _SETUP[key] = arrays, nodes, head
    return _SETUP[key]


def _setup_acvf(spec: SarfimaSpec, max_lag: int, grid_exponent: int):
    """gamma(0..max_lag) on ``acvf_numeric``'s grid, its node count and
    gamma(0.._SELF_CHECK_LAGS) on it: a lag's value is the same bits to any max_lag."""
    nodes = _grid_nodes(spec, max_lag, grid_exponent)
    gamma = _acvf(spec, max(max_lag, _SELF_CHECK_LAGS), nodes)
    return gamma[:max_lag + 1], nodes, gamma[:_SELF_CHECK_LAGS + 1].copy()


def _paths(spec: SarfimaSpec, n: int, grid_exponent: int, method: str, seeds) -> np.ndarray:
    """The paths of ``seeds`` drawn at once by ``method``, one row each; a
    row's bits depend on its seed only, not on the other rows."""
    return _SAMPLERS[method][1](spec, n, grid_exponent, [_seed_rng(seed) for seed in seeds])


def simulate(config: SimConfig) -> np.ndarray:
    """One zero-mean Gaussian sample path of length n, exact up to the
    quadrature error of the autocovariance.  A block of one: the result is
    bitwise the row a Monte Carlo run draws for the same seed and method.
    """
    return _paths(config.spec, config.n, config.grid_exponent, config.method, [config.seed])[0]
