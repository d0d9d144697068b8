"""Replication engine for estimator benchmarking.

Simulates a known model, applies a battery of estimators to every path, and
reports the table statistics (mean, MSE against the true memories, the
correlation between the two estimated memories, failure counts).  Designed
for bit-reproducibility: per-replication seeds derive from the master seed
and the replication index only, and the reduction is ordered by index, so
serial and parallel runs agree exactly.
"""
from __future__ import annotations

import math
import numbers
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import multiprocessing
import numpy as np

from .errors import SarfimaError, ValidationError
from .model import ArmaFactor, SarfimaSpec, SeasonalComponent
from .spectrum import BandPlan, build_band_plan, resolve_bandwidth, write_csv, _ordinates
from .estimators import WhittleTemplate, _gph_fits, _whittle_fits
from .simulate import (SimConfig, acvf_self_check, derive_rep_seed, _DRAWERS, _circulant_roots,
                       _dl_tables, _seed_rng)

__all__ = ["EstimatorDef", "McConfig", "EstimatorResult", "McSummary", "run_mc",
           "standardized_sample", "design", "DESIGN_NAMES", "summary_to_csv",
           "estimates_to_csv"]

#: most replications whose paths are drawn together, in one triangular solve
#: (exact_dl) or one batch of FFTs; at n = 4096 an exact_dl block is 2 MB
_PATH_BLOCK = 64


@dataclass(frozen=True)
class EstimatorDef:
    """One estimator to run per replication.

    kind: gph_multi (two-parameter band OLS over the spec's two periods),
    gph_single (one-parameter band OLS at ``period``), or whittle (Fox-Taqqu
    fit of ``template``).  Bandwidth comes from exactly one of ``alpha``
    (m = floor(n^alpha)), ``m`` (fixed), or ``use_gph_T`` (the capped
    truncated bandwidth; ``allow_overlap`` switches to the uncapped variant
    and is rejected without ``use_gph_T``).
    """

    name: str
    kind: str
    alpha: float = None
    m: int = None
    use_gph_T: bool = False
    allow_overlap: bool = False
    period: int = None            # gph_single only
    template: WhittleTemplate = None

    def __post_init__(self):
        if self.kind not in ("gph_multi", "gph_single", "whittle"):
            raise ValidationError("bad-estimator", f"unknown estimator kind {self.kind!r}")
        if self.kind == "whittle":
            if self.template is None:
                raise ValidationError("bad-estimator", f"{self.name}: whittle needs a template")
        else:
            picks = sum([self.alpha is not None, self.m is not None, self.use_gph_T])
            if picks != 1:
                raise ValidationError("bad-estimator",
                                      f"{self.name}: pick exactly one of alpha, m, use_gph_T")
        if self.allow_overlap and not self.use_gph_T:
            raise ValidationError("bad-estimator",
                                  f"{self.name}: allow_overlap applies only with use_gph_T")

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
        if self.kind == "gph_multi":
            return spec.periods
        if self.kind == "gph_single":
            return (self._single_period(spec),)
        return self.template.spec.periods

    def _single_period(self, spec: SarfimaSpec) -> int:
        if self.period is not None:
            return self.period
        if len(spec.components) == 1:
            return spec.periods[0]
        raise ValidationError("bad-estimator",
                              f"{self.name}: gph_single needs an explicit period for a two-component spec")


@dataclass(frozen=True)
class McConfig:
    spec: SarfimaSpec
    estimators: tuple
    reps: int
    n: int
    master_seed: int
    method: str = "exact_dl"
    grid_exponent: int = None
    workers: int = 1
    self_check: bool = True

    def __post_init__(self):
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.reps < 1:
            raise ValidationError("bad-reps", f"need reps >= 1, got {self.reps}")
        if not self.estimators:
            raise ValidationError("bad-estimator", "need at least one estimator")
        # the sampler's own checks (n, seed, method, table size, grid exponent), before any acvf work
        sampler = SimConfig(spec=self.spec, n=self.n, seed=self.master_seed, method=self.method,
                            grid_exponent=self.grid_exponent)
        object.__setattr__(self, "grid_exponent", sampler.grid_exponent)
        _resolve_workers(self.workers)
        names = [e.name for e in self.estimators]
        if len(set(names)) != len(names):
            raise ValidationError("bad-estimator", "estimator names must be unique")
        for e in self.estimators:
            _validate_estimator(e, self.n, self.spec)


def _validate_estimator(e: EstimatorDef, n: int, spec: SarfimaSpec):
    periods = spec.periods
    if e.kind == "whittle":
        for s in e.template.spec.periods:
            if s not in periods:
                raise ValidationError("bad-estimator",
                                      f"{e.name}: template period {s} absent from the data spec")
        return
    if e.kind == "gph_multi" and len(periods) != 2:
        raise ValidationError("bad-estimator", f"{e.name}: gph_multi needs a two-component spec")
    if e.kind == "gph_single" and e._single_period(spec) not in periods:
        raise ValidationError("bad-estimator", f"{e.name}: period {e.period} not in the spec")
    e.band_plan(n, spec)


def _true_d(e: EstimatorDef, spec: SarfimaSpec) -> np.ndarray:
    lookup = {c.period: c.memory for c in spec.components}
    return np.array([lookup[s] for s in e.result_periods(spec)])


def _fit_block(e: EstimatorDef, ordinates: np.ndarray, n: int, spec: SarfimaSpec):
    """Estimator ``e`` on a block of periodograms, one row per replication:
    (estimates, each row's error code or "", each row's Newton steps for a
    whittle fit).  A failed row, a fit that did not converge included, is a
    NaN row with its code, and -1 steps where the fit raised."""
    try:
        if e.kind == "whittle":
            fits = _whittle_fits(ordinates, n, e.template)
            codes = [err.code if err else "" if ok else "not-converged"
                     for err, ok in zip(fits.errors, fits.converged)]
            return np.where(fits.converged[:, None], fits.d_hat, np.nan), np.array(codes), fits.steps
        d_hat, errors = _gph_fits(ordinates, e.band_plan(n, spec), e.result_periods(spec))
        return d_hat, np.array([err.code if err else "" for err in errors]), None
    except SarfimaError as exc:
        rows = len(ordinates)
        return (np.full((rows, e.dimension(spec)), np.nan), np.full(rows, exc.code),
                np.full(rows, -1) if e.kind == "whittle" else None)


def _joined(parts):
    """Consecutive blocks' ``_fit_block`` parts, end to end."""
    return tuple(None if part[0] is None else np.concatenate(part) for part in zip(*parts))


def _paths(config: McConfig, reps: range):
    """The sample paths of replications ``reps`` in order, each from its own
    derived seed, as blocks of up to _PATH_BLOCK rows, each drawn at once."""
    draw = _DRAWERS[config.method]
    seeds = [derive_rep_seed(config.master_seed, rep) for rep in reps]
    for lo in range(0, len(seeds), _PATH_BLOCK):
        yield draw(config.spec, config.n, config.grid_exponent,
                   [_seed_rng(seed) for seed in seeds[lo:lo + _PATH_BLOCK]]).T


def _run_reps(config: McConfig, start: int, stop: int):
    """Replications start..stop-1, one block of paths at a time: for each
    estimator, its ``_fit_block`` parts joined in replication order."""
    parts = [[] for _ in config.estimators]
    for ordinates in map(_ordinates, _paths(config, range(start, stop))):
        for e, part in zip(config.estimators, parts):
            part.append(_fit_block(e, ordinates, config.n, config.spec))
    return [_joined(part) for part in parts]


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

    def by_name(self, name: str) -> EstimatorResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)


def run_mc(config: McConfig) -> McSummary:
    """Run the full replication study described by ``config``.

    Startup runs the quadrature doubling self-check, then each replication
    simulates with its derived seed and every estimator is applied to the
    same path.  Paths come in blocks of up to _PATH_BLOCK (exact_dl draws a
    block with one triangular solve, circulant with one batch of FFTs), and
    each estimator fits a whole block at once: one transform, one band
    regression and one Whittle descent.
    A replication's estimates do not depend on the block it shares.  Failed
    estimator applications (guard violations, optimizer non-convergence) are
    excluded from the moments and counted by error code.  The summary is
    identical for any worker count.
    """
    workers = _resolve_workers(config.workers)
    if config.self_check:
        acvf_self_check(config.spec, config.grid_exponent)
    tables = _dl_tables if config.method == "exact_dl" else _circulant_roots
    tables(config.spec, config.n, config.grid_exponent)  # warm before forking

    if workers <= 1 or config.reps < 2 * workers:
        chunks = [_run_reps(config, 0, config.reps)]
    else:
        bounds = np.linspace(0, config.reps, workers * 4 + 1).astype(int)
        spans = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            chunks = list(pool.map(_run_reps, [config] * len(spans),
                                   [a for a, _ in spans], [b for _, b in spans]))

    results = []
    for e, *parts in zip(config.estimators, *chunks):
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


def _resolve_workers(workers) -> int:
    """The worker count: ``workers``, else SARFIMA_THREADS, else 1.  Anything
    but a positive integer is rejected, not coerced."""
    if workers is None:
        env = os.environ.get("SARFIMA_THREADS")
        if env is None:
            return 1
        if not (env.isascii() and env.isdigit() and int(env) > 0):
            raise ValidationError("bad-workers", f"SARFIMA_THREADS must be a positive integer, got {env!r}")
        return int(env)
    if isinstance(workers, bool) or not isinstance(workers, numbers.Integral) or workers < 1:
        raise ValidationError("bad-workers", f"workers must be a positive integer, got {workers!r}")
    return int(workers)


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
           workers: int = 1) -> McConfig:
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
                    master_seed=master_seed, workers=workers)


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
