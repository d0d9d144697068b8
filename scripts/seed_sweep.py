#!/usr/bin/env python3
"""How often acceptance criteria 4, 6 and 7 pass over master seeds, per sampler.

For each seed, computes through the public API the statistics that the
tier-1 acceptance tests compute at their one seed (20260826), n = 1080:

* criterion 4: the empirical variance of the one-period band OLS (period 4,
  d = 0.3, 1000 replications) over its asymptotic law pi^2 / (24 s m), at
  m = n^0.5 and the truncated bandwidth; it passes inside 1 +- 0.25.  Next to
  it, the same variance over the regression variance (pi^2 / 6) / z'z of the
  band design, which leaves out no finite-sample term;
* criterion 6: the skewness and excess kurtosis of both standardized
  memories of the two-period band OLS (periods 1 and 4, 2000 replications);
  it passes with every |skewness| < 0.2 and |excess kurtosis| < 0.5;
* criterion 7: the share of 200 filtered paths (periods 4 and 12) whose
  re-estimated memories both lie within 2 standard errors of 0; it passes
  at 90% or more.

It ends with each sampler's pass counts, with ``--against`` the two-sided
Fisher exact p of each criterion's pass counts between the two samplers,
and the range of the regression-variance ratios.

    python scripts/seed_sweep.py --seeds 1-40 --method circulant --against exact_dl
    python scripts/seed_sweep.py --seeds 20260826 --method exact_dl   # the tier-1 values
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

# this checkout's package, installed or not
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from sarfima import (EstimatorDef, McConfig, SarfimaSpec, SeasonalComponent, SimConfig,
                     build_band_plan, derive_rep_seed, fractional_filter, gph_T_bandwidth,
                     gph_estimate, periodogram, run_mc, simulate, standardized_sample)

N = 1080
METHODS = ("circulant", "exact_dl")
CRITERIA = ("4", "6", "7")


def parse_seeds(text: str) -> list:
    """``1-40``, ``7`` or a comma list of both."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def regression_variance(m: int) -> float:
    """(pi^2 / 6) / z'z: the variance of the one-period band OLS slope at
    bandwidth m, from its band-centred regressor."""
    z = []
    for band in build_band_plan(N, 4, 4, m).bands:
        x = -2 * np.log(np.abs(2 * np.sin(4 * np.pi * band.fourier_indices / N)))
        z.append(x - x.mean())
    z = np.concatenate(z)
    return math.pi ** 2 / 6 / (z @ z)


def criterion_4(seed: int, method: str) -> dict:
    spec = SarfimaSpec(components=(SeasonalComponent(4, 0.3),))
    ms = (int(N ** 0.5), gph_T_bandwidth(N, 4))
    config = McConfig(spec=spec, estimators=(EstimatorDef(name="m_sqrt", kind="gph_single", m=ms[0]),
                                             EstimatorDef(name="m_T", kind="gph_single", use_gph_T=True)),
                      reps=1000, n=N, master_seed=seed, method=method)
    variances = [float(np.var(res.estimates[:, 0])) for res in run_mc(config).results]
    law = [v / (math.pi ** 2 / (24 * 4 * m)) for v, m in zip(variances, ms)]
    return {"ratios": law, "regression": [v / regression_variance(m) for v, m in zip(variances, ms)],
            "pass": all(0.75 <= r <= 1.25 for r in law)}


def criterion_6(seed: int, method: str) -> dict:
    spec = SarfimaSpec(components=(SeasonalComponent(1, 0.1), SeasonalComponent(4, 0.3)))
    config = McConfig(spec=spec, estimators=(EstimatorDef(name="gph", kind="gph_multi", alpha=0.5),),
                      reps=2000, n=N, master_seed=seed, method=method)
    estimates = run_mc(config).results[0].estimates
    shape = [standardized_sample(estimates, component=c)[1] for c in (0, 1)]
    moments = [(s["skewness"], s["excess_kurtosis"]) for s in shape]
    return {"moments": moments, "pass": all(abs(s) < 0.2 and abs(k) < 0.5 for s, k in moments)}


def criterion_7(seed: int, method: str) -> dict:
    spec = SarfimaSpec(components=(SeasonalComponent(4, 0.1), SeasonalComponent(12, 0.3)))
    plan = build_band_plan(N, 4, 12, int(N ** 0.5))
    reps, hits = 200, 0
    for rep in range(reps):
        x = simulate(SimConfig(spec=spec, n=N, seed=derive_rep_seed(seed, rep), method=method))
        est = gph_estimate(periodogram(fractional_filter(x, [0.1, 0.3], [4, 12])), plan, 4, 12)
        hits += bool(np.all(np.abs(est.d_hat) < 2 * est.standard_errors()))
    return {"coverage": hits / reps, "pass": hits / reps >= 0.90}


def sweep_one(seed: int, method: str) -> dict:
    return {"4": criterion_4(seed, method), "6": criterion_6(seed, method), "7": criterion_7(seed, method)}


def row(seed: int, method: str, stats: dict) -> str:
    """One seed's statistics, formatted as the acceptance lines print them."""
    c4, c6, c7 = (stats[c] for c in CRITERIA)
    flags = "".join("P" if stats[c]["pass"] else "." for c in CRITERIA)
    values = [*c4["ratios"], *c4["regression"], *(v for moments in c6["moments"] for v in moments)]
    return f"{seed:>10} {method:<9} " + " ".join(f"{v:7.3f}" for v in values) + f" {c7['coverage']:7.1%}  {flags}"


def main(argv=None) -> int:
    from scipy.stats import fisher_exact
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", required=True, help="master seeds: 1-40, 7, or a comma list of both")
    ap.add_argument("--method", choices=METHODS, required=True, help="the sampler")
    ap.add_argument("--against", choices=METHODS, help="a second sampler, run on the same seeds")
    args = ap.parse_args(argv)
    methods = [args.method] + ([args.against] if args.against and args.against != args.method else [])
    seeds = parse_seeds(args.seeds)
    start = time.perf_counter()
    # criterion 4 at m = n^0.5 and the truncated m, against the law and the
    # regression variance; criterion 6's skewness and excess kurtosis of d1 and d2
    print(f"{'seed':>10} {'method':<9} " + " ".join(f"{h:>7}" for h in (
        "c4_law", "c4_lawT", "c4_reg", "c4_regT", "d1_skew", "d1_kurt", "d2_skew", "d2_kurt", "c7"))
          + "  pass 4,6,7")
    results = {method: [] for method in methods}
    for seed in seeds:
        for method in methods:
            stats = sweep_one(seed, method)
            results[method].append(stats)
            print(row(seed, method, stats), flush=True)
    print(f"{len(seeds)} seeds, {time.perf_counter() - start:.1f} s")
    passes = {method: {c: sum(s[c]["pass"] for s in results[method]) for c in CRITERIA} for method in methods}
    for method in methods:
        print(f"passes {method:<9} " + "  ".join(f"criterion {c}: {passes[method][c]}/{len(seeds)}"
                                                  for c in CRITERIA))
    if len(methods) == 2:
        p = [fisher_exact([[passes[m][c], len(seeds) - passes[m][c]] for m in methods]).pvalue for c in CRITERIA]
        print("fisher p         " + "  ".join(f"criterion {c}: {v:.3g}" for c, v in zip(CRITERIA, p)))
    for method in methods:
        ratios = np.array([s["4"]["regression"] for s in results[method]])
        print(f"regression variance ratio {method:<9} "
              f"{ratios.min():.3f}-{ratios.max():.3f}, median {np.median(ratios):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
