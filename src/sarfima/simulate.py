"""Exact Gaussian simulation of stationary seasonal fractional processes.

The autocovariance sequence is obtained by numerical integration of the
theoretical spectral density (gamma(h) = 2 int_0^pi f cos(h lambda) dlambda),
then turned into exact sample paths in blocks: by one triangular solve
against its Durbin-Levinson decomposition (exact_dl), or by one real FFT per
path through the eigenvalues of its circulant embedding (circulant; Davies &
Harte 1987, Wood & Chan 1994), in O(n log n) time and O(n) memory.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError, NumericError
from .model import SarfimaSpec, arma_spectral_density, enumerate_poles, require_stationary

__all__ = ["SimConfig", "acvf_numeric", "acvf_self_check", "simulate",
           "durbin_levinson_decompose", "derive_rep_seed", "default_grid_exponent",
           "MAX_GRID_EXPONENT"]

#: cap on the 2^(g-6) resolution floor's nodes per segment; the lag term is not capped
_MAX_NODES_PER_SEGMENT = 30000

#: nodes per quadrature panel; a segment of N nodes is cut into ceil(N / 24) panels
_PANEL_ORDER = 24

#: largest accepted grid exponent.  The 2^(g-6) resolution floor exceeds
#: _MAX_NODES_PER_SEGMENT from g = 21, so no larger value changes a node
#: count, and huge ones overflow the float node-count arithmetic
MAX_GRID_EXPONENT = 40


def default_grid_exponent(n: int) -> int:
    """Smallest exponent g with 2^g >= 64 n, floored at 17."""
    return max(17, math.ceil(math.log2(64 * max(n, 1))))


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce one simulated path."""

    spec: SarfimaSpec
    n: int
    seed: int
    method: str = "exact_dl"
    grid_exponent: int = None

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("bad-n", f"need n >= 1, got {self.n}")
        if self.method not in _DRAWERS:
            raise ValidationError("bad-method", f"unknown simulation method {self.method!r}")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2 ** 64):
            raise ValidationError("bad-seed", "seed must be an unsigned 64-bit integer")
        # checked before any acvf work: the exact_dl predictor table is n x n
        # doubles; the quadrature behind the circulant roots holds up to eight
        # arrays of its 0.85 pi n nodes (6.1 to 8.3 measured on table1, 2, 5)
        need = 8 * self.n ** 2 if self.method == "exact_dl" else 64 * math.ceil(0.85 * math.pi * self.n)
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if need > have:
            hint = "; use --method circulant" if self.method == "exact_dl" else ""
            raise ValidationError("too-large",
                                  f"{self.method} at n={self.n} needs {need / 2 ** 30:.3g} GiB; "
                                  f"physical memory is {have / 2 ** 30:.3g} GiB{hint}")
        g = self.grid_exponent
        if g is None:
            object.__setattr__(self, "grid_exponent", default_grid_exponent(self.n))
        elif not (type(g) is int and 0 <= g <= MAX_GRID_EXPONENT):
            raise ValidationError("bad-grid-exponent",
                                  f"grid exponent must be an integer in 0..{MAX_GRID_EXPONENT}, got {g!r}")
        if 2 ** self.grid_exponent < 64 * self.n:
            raise ValidationError("grid-too-small",
                                  f"need 2^grid_exponent >= 64 n; got 2^{self.grid_exponent} < {64 * self.n}")


# ---------------------------------------------------------------------------
# autocovariance by quadrature
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _panel_rule(beta: float):
    """_PANEL_ORDER-point Gauss rule on [-1, 1] for the weight (1 + t)^beta;
    beta = 0 is the Gauss-Legendre rule."""
    from scipy.special import roots_jacobi   # keeps scipy.special off the import path
    return roots_jacobi(_PANEL_ORDER, 0.0, beta)


def _segments(poles):
    """Split [0, pi] at inter-pole midpoints: (a, b, pole, pole_at_left) per
    piece, each piece touching exactly one pole of the sorted table."""
    segs = []
    for left, right in zip(poles, poles[1:]):
        mid = 0.5 * (left.frequency + right.frequency)
        segs += [(left.frequency, mid, left, True), (mid, right.frequency, right, False)]
    last = poles[-1]
    if last.fraction < Fraction(1, 2):
        segs.append((last.frequency, math.pi, last, True))
    return segs


def _regularized_density(spec: SarfimaSpec, lam: np.ndarray, pole):
    """f(lam) * |lam - pole|^(2 e) with the vanishing sin factors normalized.

    Each component owning the pole contributes |2 sin(lam s/2) / (lam-pole)|^(-2d),
    a smooth ratio even immediately next to the pole.
    """
    g = arma_spectral_density(spec, lam).copy()
    for comp in spec.components:
        arg = np.abs(2 * np.sin(lam * comp.period / 2))
        if comp in pole.owners:
            g *= (arg / np.abs(lam - pole.frequency)) ** (-2 * comp.memory)
        else:
            g *= arg ** (-2 * comp.memory)
    return g


def acvf_numeric(spec: SarfimaSpec, max_lag: int, grid_exponent: int = 17) -> np.ndarray:
    """gamma(0..max_lag) from the spectral density.

    The integrand f(lambda) cos(h lambda) has an integrable power singularity
    |lambda - lambda_p|^(-2 e_p) at each seasonal harmonic.  [0, pi] is split
    at the midpoints between the poles of the spec's pole table
    (``enumerate_poles``), and every piece is cut into equal panels of
    _PANEL_ORDER nodes.  The panel touching the pole uses a Gauss-Jacobi rule
    whose weight absorbs the singularity exactly, so no node ever lands on a
    pole; the others use a Gauss-Legendre rule with the singular factor folded
    into its weights, the nearest one a whole panel away from the pole.  Node
    counts scale with max_lag (to resolve the cos(h lambda) oscillation) and
    with the 2^grid_exponent resolution floor.  The cosine sum runs in blocks
    of lags by angle addition, so only the first block's cosines are formed
    per node.
    """
    require_stationary(spec, "autocovariance")
    if max_lag < 0:
        raise ValidationError("bad-lag", "max_lag must be >= 0")
    xs, qs = [], []
    for a, b, pole, pole_left in _segments(enumerate_poles(spec)):
        width = b - a
        beta = -2.0 * pole.local_exponent
        # the lag term resolves the oscillation of cos(h lambda), so only the
        # floor is capped: a cap on both errs by 9e-3 gamma(0) at 32767 lags
        nodes = max(256,
                    int(0.85 * (max_lag + 1) * width) + 64,
                    min(math.ceil(2 ** (grid_exponent - 6) * width / math.pi), _MAX_NODES_PER_SEGMENT))
        panels = math.ceil(nodes / _PANEL_ORDER)
        half = width / panels / 2
        # u is the distance from the pole: panel 0 is [0, 2 half], panel j
        # is centred at (2j + 1) half
        t, w = _panel_rule(beta)
        x, v = _panel_rule(0.0)
        u_far = (half * (2 * np.arange(1, panels)[:, None] + 1 + x)).ravel()
        u = np.concatenate([half * (t + 1), u_far])
        weights = np.concatenate([half ** (beta + 1) * w,
                                  half * np.tile(v, panels - 1) * u_far ** beta])
        lam = a + u if pole_left else b - u
        xs.append(lam)
        qs.append(weights * _regularized_density(spec, lam, pole))
    lam = np.concatenate(xs)
    q = np.concatenate(qs)

    # cos((h0 + k) lam) = cos(h0 lam) cos(k lam) - sin(h0 lam) sin(k lam), for
    # block starts h0 and offsets k < block: each term is a GEMM.  The nodes
    # go through in chunks: temporaries as wide as all nodes (11 MB at
    # n = 4096) stayed resident after the call and added ~6 MB to the
    # sampler's peak memory
    block, chunk = min(128, max_lag + 1), 128
    k, h0 = np.arange(block), np.arange(0, max_lag + 1, block)
    out = np.zeros((block, len(h0)))
    for c in range(0, len(lam), chunk):
        lc, qc = lam[c:c + chunk], q[c:c + chunk, None]
        out += np.cos(np.outer(k, lc)) @ (qc * np.cos(np.outer(lc, h0)))
        out -= np.sin(np.outer(k, lc)) @ (qc * np.sin(np.outer(lc, h0)))
    return 2.0 * out.T.ravel()[:max_lag + 1]


#: lags and tolerance of the quadrature doubling check
_SELF_CHECK_LAGS = 50
_SELF_CHECK_TOL = 1e-6


def acvf_self_check(spec: SarfimaSpec, grid_exponent: int) -> float:
    """Doubling check: gamma(h <= _SELF_CHECK_LAGS) must move by less than
    _SELF_CHECK_TOL when the resolution doubles.  Returns the observed
    maximum shift; raises ``quadrature-unstable`` on failure."""
    g1 = acvf_numeric(spec, _SELF_CHECK_LAGS, grid_exponent)
    g2 = acvf_numeric(spec, _SELF_CHECK_LAGS, grid_exponent + 1)
    shift = float(np.max(np.abs(g1 - g2)))
    if not shift < _SELF_CHECK_TOL:
        raise NumericError("quadrature-unstable",
                           f"acvf changed by {shift:.3g} >= {_SELF_CHECK_TOL:.3g} under grid doubling")
    return shift


# ---------------------------------------------------------------------------
# Durbin-Levinson
# ---------------------------------------------------------------------------

def levinson(gamma):
    """Durbin-Levinson recursion over an autocovariance sequence gamma.

    Yields, for orders t = 1..len(gamma)-1, the partial autocorrelation
    kappa, the predictor coefficients phi (phi[j-1] multiplies X_{t-j}) and
    the innovation variance v; callers decide what kappa or v out of range means.
    """
    phi = np.empty(0)
    v = gamma[0]
    for t in range(1, len(gamma)):
        kappa = (gamma[t] - phi @ gamma[t - 1:0:-1]) / v if t > 1 else gamma[1] / gamma[0]
        nxt = np.empty(t)
        nxt[: t - 1] = phi - kappa * phi[::-1]
        nxt[t - 1] = kappa
        phi = nxt
        v = v * (1.0 - kappa * kappa)
        yield kappa, phi, v


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
    M = np.zeros((n, n))
    np.fill_diagonal(M, 1.0)
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


#: the one resident Durbin-Levinson table, by (spec, n, grid_exponent):
#: ``too-large`` vouches for one 8 n^2-byte table, not for several
_DL_TABLE = {}


def _dl_tables(spec: SarfimaSpec, n: int, grid_exponent: int):
    """(M, sigma) for ``spec`` at length n, read-only so that the finiteness
    check made when they were built holds for every later path.  Only the
    last table stays cached, and it is released before the next is built."""
    key = (spec, n, grid_exponent)
    if key not in _DL_TABLE:
        _DL_TABLE.clear()
        gamma = acvf_numeric(spec, n - 1 if n > 1 else 0, grid_exponent)
        tables = durbin_levinson_decompose(gamma)
        for table in tables:
            table.setflags(write=False)
        _DL_TABLE[key] = tables
    return _DL_TABLE[key]


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
        z[j] = rng.standard_normal(size)
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
    M, sig = _dl_tables(spec, n, grid_exponent)
    B = _normals(rngs, n)
    B *= sig
    # M was checked finite when the cached table was built; M.T and B.T are
    # F-contiguous views, so neither the n x n table nor the block is copied
    return dtrsm(1.0, M.T, B.T, lower=0, trans_a=1, diag=1, overwrite_b=1).T


@functools.lru_cache(maxsize=4)
def _circulant_roots(spec: SarfimaSpec, n: int, grid_exponent: int) -> np.ndarray:
    """Square roots of the eigenvalues of the circulant embedding of
    gamma(0..N), scaled for ``_circulant_paths``; read-only.

    The half-length N is n - 1 rounded up to a multiple of the lcm of the
    periods and ARMA lags: table5's minimal embedding has eigenvalues down to
    -0.085 of the largest.  The eigenvalues are checked, never clipped.
    """
    step = math.lcm(*spec.periods, *(f.lag for f in spec.ar_factors + spec.ma_factors))
    half = step * max(1, -(-(n - 1) // step))
    gamma = acvf_numeric(spec, half, grid_exponent)
    eig = np.fft.rfft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    if not (np.isfinite(eig).all() and eig.min() >= 0):
        raise NumericError("negative-eigenvalue",
                           f"circulant embedding of half-length {half} has eigenvalue "
                           f"{eig.min():.3g} ({eig.min() / eig.max():.3g} of the largest); "
                           "use exact_dl")
    # frequencies 0 and pi take a real normal, the others a complex one whose
    # real and imaginary parts each carry half of the eigenvalue
    scale = np.full(half + 1, float(half))
    scale[[0, half]] = 2.0 * half
    root = np.sqrt(scale * eig)
    root.setflags(write=False)
    return root


def _circulant_paths(spec: SarfimaSpec, n: int, grid_exponent: int, rngs) -> np.ndarray:
    """Exact circulant-embedding paths (Davies-Harte), one row per
    generator, as an R x n array.

    Of the next 2N normals of rngs[j], the first N + 1 are the real parts of
    the spectrum at frequencies 0..N and the rest the imaginary parts at
    1..N-1; scaled by the roots, one real inverse FFT per row gives a
    sequence of length 2N whose first n values are the path.  Every row goes
    through the same arithmetic, so a row's bits depend on its generator
    only.
    """
    root = _circulant_roots(spec, n, grid_exponent)
    half = len(root) - 1
    z = _normals(rngs, 2 * half)
    spectrum = np.zeros((len(rngs), half + 1), dtype=complex)
    spectrum.real = z[:, :half + 1]
    spectrum.imag[:, 1:half] = z[:, half + 1:]
    return np.fft.irfft(spectrum * root, 2 * half, axis=1)[:, :n]


#: the path drawers by method name
_DRAWERS = {"exact_dl": _dl_paths, "circulant": _circulant_paths}


def _paths(spec: SarfimaSpec, n: int, grid_exponent: int, method: str, seeds) -> np.ndarray:
    """The paths of ``seeds`` drawn at once by ``method``, one row each; a
    row's bits depend on its seed only, not on the other rows."""
    return _DRAWERS[method](spec, n, grid_exponent, [_seed_rng(seed) for seed in seeds])


def simulate(config: SimConfig) -> np.ndarray:
    """One zero-mean Gaussian sample path of length n, exact up to the
    quadrature error of the autocovariance.  A block of one: the result is
    bitwise the row a Monte Carlo run draws for the same seed and method.
    """
    require_stationary(config.spec, "simulation")
    return _paths(config.spec, config.n, config.grid_exponent, config.method, [config.seed])[0]
