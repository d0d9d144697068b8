"""Exact Gaussian simulation of stationary seasonal fractional processes.

The autocovariance sequence is obtained by numerical integration of the
theoretical spectral density (gamma(h) = 2 int_0^pi f cos(h lambda) dlambda),
then a Durbin-Levinson decomposition turns i.i.d. normals into exact sample
paths: the innovations of a block of paths fill the columns of one matrix,
and one triangular solve against the decomposition whitens them all.  A
truncated MA(infinity) generator is provided as an independent cross-check.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError, NumericError
from .model import (SarfimaSpec, SeasonalComponent, arma_spectral_density,
                    combined_filter_coefficients, enumerate_poles, require_stationary,
                    _convolve_head)

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
    ma_truncation: int = None
    burn_in: int = 5000

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("bad-n", f"need n >= 1, got {self.n}")
        if self.method not in ("exact_dl", "truncated_ma"):
            raise ValidationError("bad-method", f"unknown simulation method {self.method!r}")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2 ** 64):
            raise ValidationError("bad-seed", "seed must be an unsigned 64-bit integer")
        if self.method == "exact_dl":
            # checked before any acvf work: the predictor table is n x n doubles
            need = 8 * self.n ** 2
            have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
            if need > have:
                raise ValidationError("too-large",
                                      f"exact_dl at n={self.n} needs a {need / 2 ** 30:.3g} GiB "
                                      f"table; physical memory is {have / 2 ** 30:.3g} GiB")
        g = self.grid_exponent
        if g is None:
            object.__setattr__(self, "grid_exponent", default_grid_exponent(self.n))
        elif not (type(g) is int and 0 <= g <= MAX_GRID_EXPONENT):
            raise ValidationError("bad-grid-exponent",
                                  f"grid exponent must be an integer in 0..{MAX_GRID_EXPONENT}, got {g!r}")
        if self.method == "exact_dl" and 2 ** self.grid_exponent < 64 * self.n:
            raise ValidationError("grid-too-small",
                                  f"need 2^grid_exponent >= 64 n; got 2^{self.grid_exponent} < {64 * self.n}")
        max_period = max(c.period for c in self.spec.components)
        if self.ma_truncation is None:
            object.__setattr__(self, "ma_truncation", max(5000, 50 * max_period))
        if self.method == "truncated_ma" and self.ma_truncation < 50 * max_period:
            raise ValidationError("truncation-too-small",
                                  f"ma_truncation must be >= 50 * max period = {50 * max_period}")
        if self.burn_in < 0:
            raise ValidationError("bad-burn-in", "burn_in must be >= 0")


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
    poles = enumerate_poles(spec)
    for pole in poles:
        if pole.local_exponent >= 0.5:
            raise ValidationError("nonstationary-spec",
                                  f"pole exponent {pole.local_exponent} >= 1/2 at frequency "
                                  f"{float(pole.fraction)} cycles: not integrable")

    xs, qs = [], []
    for a, b, pole, pole_left in _segments(poles):
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


def acvf_self_check(spec: SarfimaSpec, grid_exponent: int, lags: int = 50,
                    tol: float = 1e-6) -> float:
    """Doubling check: gamma(h<=lags) must move by less than tol when the
    resolution doubles.  Returns the observed maximum shift; raises on
    failure."""
    g1 = acvf_numeric(spec, lags, grid_exponent)
    g2 = acvf_numeric(spec, lags, grid_exponent + 1)
    shift = float(np.max(np.abs(g1 - g2)))
    if not shift < tol:
        raise NumericError("quadrature-unstable",
                           f"acvf changed by {shift:.3g} >= {tol:.3g} under grid doubling")
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


@functools.lru_cache(maxsize=4)
def _dl_tables(spec: SarfimaSpec, n: int, grid_exponent: int):
    """(M, sigma) for ``spec`` at length n, read-only so that the finiteness
    check made when they were built holds for every later path."""
    gamma = acvf_numeric(spec, n - 1 if n > 1 else 0, grid_exponent)
    tables = durbin_levinson_decompose(gamma)
    for table in tables:
        table.setflags(write=False)
    return tables


def derive_rep_seed(master_seed: int, rep_index: int) -> int:
    """Documented stream split: uint64 drawn from SeedSequence([master, rep])."""
    ss = np.random.SeedSequence(entropy=[master_seed, rep_index])
    return int(ss.generate_state(1, np.uint64)[0])


def _seed_rng(seed: int) -> np.random.Generator:
    """The generator a path of seed ``seed`` draws its normals from."""
    return np.random.default_rng(np.random.SeedSequence(seed))


def _dl_paths(spec: SarfimaSpec, n: int, grid_exponent: int, rngs) -> np.ndarray:
    """Exact Durbin-Levinson paths, one column per generator, as an n x R
    Fortran-order array.

    Column j starts as the innovations sigma * z_j, with z_j the next n
    standard normals of rngs[j]; one BLAS-3 solve M X = B against the cached
    table then whitens the whole block.  The solve treats every column
    alike, so a column's bits depend on its generator only, not on the
    block's width or on the column's place in it.
    """
    from scipy.linalg.blas import dtrsm   # keeps scipy.linalg off the import path
    M, sig = _dl_tables(spec, n, grid_exponent)
    B = np.empty((n, len(rngs)), order="F")
    for j, rng in enumerate(rngs):
        B[:, j] = sig * rng.standard_normal(n)
    if not np.isfinite(B).all():
        raise NumericError("non-finite-draw", "innovations contain NaN or infinite values")
    # M was checked finite when the cached table was built, and M.T is an
    # F-contiguous view of it, so the n x n table is neither scanned nor copied
    return dtrsm(1.0, M.T, B, lower=0, trans_a=1, diag=1, overwrite_b=1)


def simulate(config: SimConfig, rng: np.random.Generator = None) -> np.ndarray:
    """One zero-mean Gaussian sample path of length n.

    exact_dl draws through the Durbin-Levinson decomposition of the
    quadrature autocovariances (exact up to quadrature error), as a block of
    one path: the result is bitwise the column a Monte Carlo run draws for
    the same seed.  truncated_ma runs the ARMA recursion on fresh normals and
    applies the MA(infinity) fractional expansion truncated at ma_truncation,
    discarding burn_in values.  Byte-identical output for equal (config, seed).
    """
    require_stationary(config.spec, "simulation")
    if rng is None:
        rng = _seed_rng(config.seed)
    if config.method == "exact_dl":
        return _dl_paths(config.spec, config.n, config.grid_exponent, [rng])[:, 0]

    from scipy.signal import lfilter   # its only caller; keeps scipy.signal off the import path

    spec = config.spec
    total = config.burn_in + config.n
    eps = rng.standard_normal(total) * math.sqrt(spec.innovation_variance)
    nu = lfilter(spec.ma_polynomial(), spec.ar_polynomial(), eps)
    inverted = SarfimaSpec(
        components=tuple(SeasonalComponent(c.period, -c.memory) for c in spec.components))
    psi = combined_filter_coefficients(inverted, config.ma_truncation)
    return _convolve_head(nu, psi)[config.burn_in:]
