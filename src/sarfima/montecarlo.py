"""Replication engine for estimator benchmarking.

Simulates a known model, applies a battery of estimators to every path, and
reports the table statistics (mean, MSE against the true memories, the
correlation between the two estimated memories, failure counts).  Designed
for bit-reproducibility: per-replication seeds derive from the master seed
and the replication index only, and the reduction is ordered by index, so
serial and parallel runs agree exactly.
"""
from __future__ import annotations

import ctypes
import importlib.util
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import ValidationError, _check_integer, _check_sequence
from .model import ArmaFactor, SarfimaSpec, SeasonalComponent
from .spectrum import BandPlan, build_band_plan, resolve_bandwidth, write_csv, _check_bandwidth_choice, _ordinates
from .estimators import WhittleTemplate, _band_design, _gph_fits, _whittle_design, _whittle_fits
from .simulate import (DEFAULT_METHOD, SimConfig, derive_rep_seed, _check_memory, _halving_shift, _paths,
                       _sampler_setup)

__all__ = ["EstimatorDef", "McConfig", "EstimatorResult", "McSummary", "run_mc",
           "standardized_sample", "design", "DESIGN_NAMES", "summary_to_csv",
           "estimates_to_csv"]

#: replications per block, the unit of work: a block's paths are drawn
#: together, in one batch of FFTs (circulant) or one triangular solve
#: (exact_dl), and fitted together; at n = 4096 a block's paths are 2 MB
_PATH_BLOCK = 64

#: bytes per path and point that a block holds from its draw to its fits:
#: a 64-path block peaked at 40-88 on table1-5 (circulant, n = 16 384 and
#: 65 536), the most with a free-AR Whittle fit
_BLOCK_BYTES_PER_POINT = 128

#: bytes per replication and estimator that a run keeps until its summary:
#: two estimates, a 13-character code and the steps take 76, twice while
#: the blocks are joined; tracemalloc peaks grew by 24-108 per replication
#: and estimator on table1, 2, 4 and 5 (n = 1080, 640 against 1920 and
#: 3840 replications)
_BYTES_PER_REP_ESTIMATE = 160


@dataclass(frozen=True)
class EstimatorDef:
    """One estimator to run per replication.

    kind: gph_multi (two-parameter band OLS over the spec's two periods),
    gph_single (one-parameter band OLS at a one-component spec's period), or
    whittle (Fox-Taqqu fit of ``template``, with none of the bandwidth fields).  A gph
    bandwidth comes from exactly one of ``alpha`` (m = floor(n^alpha)), ``m``
    or ``use_gph_T`` (capped; ``allow_overlap`` uncaps it), by the rule of
    ``resolve_bandwidth``.
    """

    name: str
    kind: str
    alpha: float = None
    m: int = None
    use_gph_T: bool = False
    allow_overlap: bool = False
    template: WhittleTemplate = None

    def __post_init__(self):
        if self.kind not in ("gph_multi", "gph_single", "whittle"):
            raise ValidationError("bad-estimator", f"unknown estimator kind {self.kind!r}")
        if self.kind != "whittle":
            _check_bandwidth_choice(self.alpha, self.m, self.use_gph_T, self.allow_overlap)
        elif self.template is None or any(value is not default for value, default in (
                (self.alpha, None), (self.m, None), (self.use_gph_T, False), (self.allow_overlap, False))):
            raise ValidationError("bad-estimator", f"{self.name}: whittle needs a template and no bandwidth "
                                  f"(alpha, m, use_gph_T, allow_overlap)")

    def bandwidth(self, n: int, s_prime: int) -> int:
        return resolve_bandwidth(n, s_prime, alpha=self.alpha, m=self.m,
                                 gph_T=self.use_gph_T, uncapped=self.allow_overlap)

    def band_plan(self, n: int, spec: SarfimaSpec) -> BandPlan:
        """The band plan of a gph estimator on a length-n path of ``spec``;
        a one-period plan for gph_single."""
        periods = self.result_periods(spec)
        return build_band_plan(n, periods[0], periods[-1], self.bandwidth(n, max(periods)),
                               allow_overlap=self.allow_overlap)

    def dimension(self, spec: SarfimaSpec) -> int:
        return len(self.result_periods(spec))

    def result_periods(self, spec: SarfimaSpec) -> tuple:
        if self.kind == "whittle":
            return self.template.spec.periods
        count = 1 if self.kind == "gph_single" else 2
        if len(spec.components) != count:
            raise ValidationError("bad-estimator", f"{self.name}: {self.kind} needs {count} spec components")
        return spec.periods


@dataclass(frozen=True)
class McConfig:
    spec: SarfimaSpec
    estimators: tuple
    reps: int
    n: int
    master_seed: int
    method: str = DEFAULT_METHOD
    grid_exponent: int = None
    workers: int = 1
    self_check: bool = True

    def __post_init__(self):
        object.__setattr__(self, "estimators", _check_sequence(self.estimators, "bad-estimator", "estimators", EstimatorDef))
        object.__setattr__(self, "reps", _check_integer(self.reps, 1, "bad-reps", "reps"))
        if not self.estimators:
            raise ValidationError("bad-estimator", "need at least one estimator")
        # the sampler's own checks (n, seed, method, table size, grid exponent), before any acvf work
        sampler = SimConfig(spec=self.spec, n=self.n, seed=self.master_seed, method=self.method,
                            grid_exponent=self.grid_exponent)
        for count, value in (("n", sampler.n), ("master_seed", sampler.seed),
                             ("grid_exponent", sampler.grid_exponent)):
            object.__setattr__(self, count, value)
        workers = _resolve_workers(self.workers)
        if self.workers is not None:   # None reads SARFIMA_THREADS at each run
            object.__setattr__(self, "workers", workers)
        # each worker's block of paths is in flight next to the sampler's table or roots,
        # and every replication's estimates are kept until the summary
        in_flight = min(self.reps, _PATH_BLOCK * workers)
        _check_memory(self.spec, self.n, self.method, self.grid_exponent,
                      in_flight * _BLOCK_BYTES_PER_POINT * self.n
                      + self.reps * len(self.estimators) * _BYTES_PER_REP_ESTIMATE)
        names = [e.name for e in self.estimators]
        if len(set(names)) != len(names):
            raise ValidationError("bad-estimator", "estimator names must be unique")
        for e in self.estimators:
            _validate_estimator(e, self.n, self.spec)


def _validate_estimator(e: EstimatorDef, n: int, spec: SarfimaSpec):
    """Build ``e``'s design at length n: each rule not depending on the data is checked here, once."""
    if e.kind != "whittle":
        _band_design(e.band_plan(n, spec), e.result_periods(spec))
        return
    absent = sorted(set(e.template.spec.periods) - set(spec.periods))
    if absent:
        raise ValidationError("bad-estimator", f"{e.name}: template periods {absent} absent from the data spec")
    _whittle_design(n, e.template)


def _true_d(e: EstimatorDef, spec: SarfimaSpec) -> np.ndarray:
    lookup = {c.period: c.memory for c in spec.components}
    return np.array([lookup[s] for s in e.result_periods(spec)])


def _fit_block(e: EstimatorDef, ordinates: np.ndarray, n: int, spec: SarfimaSpec):
    """Estimator ``e`` on a block of periodograms, one row per replication:
    (estimates, each row's error code or "", each row's Newton steps for a
    whittle fit).  A failed row, a fit that did not converge included, is a
    NaN row with its code, and -1 steps where the fit raised."""
    if e.kind == "whittle":
        fits = _whittle_fits(ordinates, n, e.template)
        codes = [err.code if err else "" if ok else "not-converged"
                 for err, ok in zip(fits.errors, fits.converged)]
        return np.where(fits.converged[:, None], fits.d_hat, np.nan), np.array(codes), fits.steps
    d_hat, errors = _gph_fits(ordinates, e.band_plan(n, spec), e.result_periods(spec))
    return d_hat, np.array([err.code if err else "" for err in errors]), None


def _joined(parts):
    """Consecutive blocks' ``_fit_block`` parts, end to end."""
    return tuple(None if part[0] is None else np.concatenate(part) for part in zip(*parts))


def _run_block(config: McConfig, start: int):
    """The block of replications from ``start``, up to _PATH_BLOCK of them:
    their paths, each from its own derived seed, drawn at once, then each
    estimator's ``_fit_block`` parts."""
    seeds = [derive_rep_seed(config.master_seed, rep)
             for rep in range(start, min(start + _PATH_BLOCK, config.reps))]
    ordinates = _ordinates(_paths(config.spec, config.n, config.grid_exponent, config.method, seeds))
    return [_fit_block(e, ordinates, config.n, config.spec) for e in config.estimators]


@dataclass(frozen=True)
class EstimatorResult:
    name: str
    periods: tuple
    mean: np.ndarray
    mse: np.ndarray
    corr: float          # nan for 1-dim estimators
    failure_count: int
    estimates: np.ndarray  # (reps, dim); failed replications are NaN rows
    failure_codes: dict = field(default_factory=dict)   # error code -> failed replications
    iterations: np.ndarray = None   # whittle: Newton steps per replication, -1 where it raised


@dataclass(frozen=True)
class McSummary:
    results: tuple
    reps: int
    n: int
    master_seed: int


def run_mc(config: McConfig) -> McSummary:
    """Run the full replication study described by ``config``.

    Startup builds the sampler's set-up and runs the acvf grid-halving
    self-check on the grid its paths come from, then each replication
    simulates with its derived seed and every estimator is applied to the
    same path.  The unit of work is a block of up to _PATH_BLOCK replications
    (circulant draws its paths with one batch of FFTs, exact_dl with one
    triangular solve), and each estimator fits a whole block at once: one
    transform, one band regression and one Whittle descent.  Block 0 runs
    in this process and the rest in order, or on a pool of forked workers
    that run scipy's BLAS on one thread each.  A replication's estimates do
    not depend on the block it shares.  The config checked each estimator's
    design, so only replications fail (zero-ordinate, zero-periodogram,
    not-converged); they are excluded from the moments and counted by error
    code.  The summary is identical for any worker count.
    """
    workers = _resolve_workers(config.workers)
    if config.self_check:   # on the grid that the paths are drawn from
        _, nodes, head = _sampler_setup(config.spec, config.n, config.grid_exponent, config.method)
        _halving_shift(config.spec, head, nodes)
    # block 0 (or the self-check) caches the sampler's set-up, so forked
    # workers inherit it along with the estimators' designs
    blocks = [_run_block(config, 0)]
    rest = range(_PATH_BLOCK, config.reps, _PATH_BLOCK)
    if workers == 1:
        blocks += map(_run_block, repeat(config), rest)
    else:
        with _worker_pool(workers) as pool:
            blocks += pool.map(_run_block, repeat(config), rest)

    results = []
    for e, *parts in zip(config.estimators, *blocks):
        slot, codes, steps = _joined(parts)
        ok = codes == ""
        good = slot[ok]
        truth = _true_d(e, config.spec)
        if len(good):
            mean = good.mean(axis=0)
            mse = np.mean((good - truth) ** 2, axis=0)
            corr = float(np.corrcoef(good.T)[0, 1]) if good.shape[1] == 2 and len(good) > 1 else math.nan
        else:
            mean = np.full(slot.shape[1], np.nan)
            mse = np.full(slot.shape[1], np.nan)
            corr = math.nan
        results.append(EstimatorResult(
            name=e.name, periods=e.result_periods(config.spec), mean=mean, mse=mse, corr=corr,
            failure_count=int(config.reps - ok.sum()), estimates=slot,
            failure_codes=dict(sorted(Counter(codes[~ok].tolist()).items())), iterations=steps))
    return McSummary(results=tuple(results), reps=config.reps, n=config.n,
                     master_seed=config.master_seed)


def _scipy_openblas():
    """The OpenBLAS bundled with scipy's wheel, if this process has loaded it
    (exact_dl's ``dtrsm`` does), else None; it is not loaded here."""
    libs = Path(importlib.util.find_spec("scipy").origin).parent.parent / "scipy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            return ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
        except OSError:
            pass


def _one_blas_thread():
    """Pin scipy's OpenBLAS, which runs exact_dl's ``dtrsm``, to one thread: a
    forked worker keeps one per CPU, and two on two CPUs would run four.
    numpy's is left alone: a block's numpy work is FFTs, row sums and small
    ``eigh`` calls, and pinning it in a forked worker measured slower."""
    setter = getattr(_scipy_openblas(), "scipy_openblas_set_num_threads", None)
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)


def _worker_pool(workers: int):
    """A ``ProcessPoolExecutor`` of ``workers`` forked processes, each running
    scipy's BLAS on one thread; the pool modules load only when a run needs
    workers."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_one_blas_thread)


def _resolve_workers(workers) -> int:
    """The worker count: ``workers``, else SARFIMA_THREADS, else 1.  Anything
    but a positive integer is rejected, not coerced."""
    what = "workers"
    if workers is None:
        what, text = "SARFIMA_THREADS", os.environ.get("SARFIMA_THREADS", "1")
        workers = int(text) if text.isascii() and text.isdigit() else text
    return _check_integer(workers, 1, "bad-workers", what)


def standardized_sample(estimates, component: int = 0):
    """(x - mean)/sd for one estimate component, with shape moments.

    Returns (standardized array, {"skewness", "excess_kurtosis"}), using
    population moments.  Needs at least 100 estimates and a positive sd.
    """
    arr = np.asarray(estimates, dtype=float)
    if arr.ndim == 2:
        arr = arr[:, component]
    arr = arr[~np.isnan(arr)]
    if len(arr) < 100:
        raise ValidationError("too-few-estimates", f"need >= 100 estimates, got {len(arr)}")
    sd = arr.std()
    if sd == 0:
        raise ValidationError("zero-variance", "estimates are all identical")
    z = (arr - arr.mean()) / sd
    skew = float(np.mean(z ** 3))
    exkurt = float(np.mean(z ** 4) - 3.0)
    return z, {"skewness": skew, "excess_kurtosis": exkurt}


# ---------------------------------------------------------------------------
# canned designs
# ---------------------------------------------------------------------------

DESIGN_NAMES = ("table1", "table2", "table3", "table4", "table5")

#: misspecified Whittle fits chase memory far outside the stationary region
MISSPEC_BOX = 1.45


def _whittle_with_free_ar(periods, ar_lag: int) -> WhittleTemplate:
    comps = tuple(SeasonalComponent(s, 0.0) for s in periods)
    spec = SarfimaSpec(components=comps, ar_factors=(ArmaFactor(ar_lag, (0.0,)),))
    return WhittleTemplate(spec=spec)


def design(name: str, master_seed: int, reps: int = 2000, n: int = 1080,
           workers: int = 1, method: str = DEFAULT_METHOD) -> McConfig:
    """Benchmark designs behind the ``mc --design`` shorthand.

    table1: single seasonal period 4, d = 0.3, white ARMA part; truncated-
            bandwidth and n^0.5 / n^0.3 single-parameter band OLS plus the
            Whittle fit.
    table2: periods (1, 4), d = (0.1, 0.3), white ARMA part; two-parameter
            band OLS at n^0.5 / n^0.3 plus the Whittle fit.
    table3: as table2 with periods (4, 12).
    table4: table2 model driven by a seasonal AR factor (1 - 0.8 B^4);
            correctly specified Whittle (free AR coefficient) next to a
            deliberately misspecified one (no AR, widened memory box).
    table5: as table4 with periods (4, 12) and the AR factor at lag 12.
    """
    if name == "table1":
        spec = SarfimaSpec(components=(SeasonalComponent(4, 0.3),))
        ests = (
            EstimatorDef(name="gph_T", kind="gph_single", use_gph_T=True),
            EstimatorDef(name="gph_n05", kind="gph_single", alpha=0.5),
            EstimatorDef(name="gph_n03", kind="gph_single", alpha=0.3),
            EstimatorDef(name="ft", kind="whittle", template=WhittleTemplate.pure((4,))),
        )
    elif name in ("table2", "table3"):
        periods = (1, 4) if name == "table2" else (4, 12)
        spec = SarfimaSpec(components=(SeasonalComponent(periods[0], 0.1),
                                       SeasonalComponent(periods[1], 0.3)))
        ests = (
            EstimatorDef(name="gph_n05", kind="gph_multi", alpha=0.5),
            EstimatorDef(name="gph_n03", kind="gph_multi", alpha=0.3),
            EstimatorDef(name="ft", kind="whittle", template=WhittleTemplate.pure(periods)),
        )
    elif name in ("table4", "table5"):
        periods = (1, 4) if name == "table4" else (4, 12)
        ar_lag = 4 if name == "table4" else 12
        spec = SarfimaSpec(components=(SeasonalComponent(periods[0], 0.1),
                                       SeasonalComponent(periods[1], 0.3)),
                           ar_factors=(ArmaFactor(ar_lag, (0.8,)),))
        ests = (
            EstimatorDef(name="gph_n05", kind="gph_multi", alpha=0.5),
            EstimatorDef(name="ft", kind="whittle",
                         template=_whittle_with_free_ar(periods, ar_lag)),
            EstimatorDef(name="ft_misspec", kind="whittle",
                         template=WhittleTemplate.pure(periods, d_box=MISSPEC_BOX)),
        )
    else:
        raise ValidationError("bad-design", f"unknown design {name!r}; pick one of {DESIGN_NAMES}")
    return McConfig(spec=spec, estimators=ests, reps=reps, n=n,
                    master_seed=master_seed, method=method, workers=workers)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def summary_to_csv(summary: McSummary, path):
    """Table-style rows `estimator,param,mean,mse,corr` (corr on 2-dim rows)."""
    write_csv(path, ("estimator", "param", "mean", "mse", "corr"),
              ((res.name, f"d{i+1}", res.mean[i], res.mse[i],
                res.corr if len(res.mean) == 2 and not math.isnan(res.corr) else None)
               for res in summary.results for i in range(len(res.mean))))


def estimates_to_csv(summary: McSummary, path):
    """Per-replication estimates, one row per (rep, estimator, component)."""
    write_csv(path, ("rep", "estimator", "param", "value"),
              ((rep, res.name, f"d{i+1}", None if math.isnan(v) else v)
               for res in summary.results
               for rep, row in enumerate(res.estimates.tolist())
               for i, v in enumerate(row)))
