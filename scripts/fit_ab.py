#!/usr/bin/env python3
"""CPU time of Monte Carlo blocks on this checkout against another, in one process.

Loads this checkout's ``src/sarfima`` and the other checkout's as two
packages in one interpreter, then alternates ``run_mc`` runs of one canned
design on the two (default: table4, n = 1080, 8 replications, one block),
swapping which side goes first every round.  Round k uses master seed
``--seed`` + k on both sides.  One untimed run per side builds the caches
first, and the acvf self-check is skipped, so each timed run is the draw and
fits of its block.  Both sides draw their paths by circulant embedding, so
a checkout without that sampler fails with its own ``bad-method``.  Each
round prints both CPU times and their ratio; the last line gives the median
ratio this/against, the rounds in which this checkout was faster, and
whether the two sides' estimates were bitwise equal in every round.

On a shared host, back-to-back processes can differ by more than a change
being measured; alternating in one process puts both sides under the same
load.  Run as a script, BLAS runs one thread (``OPENBLAS_NUM_THREADS=1``
unless already set), so CPU time is not inflated by spinning BLAS threads.

    python scripts/fit_ab.py --against ../parent
    python scripts/fit_ab.py --against ../parent --design table2 --reps 64 --rounds 20
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def load_package(checkout: Path, name: str):
    """``checkout``/src/sarfima imported as the package ``name``."""
    root = Path(checkout).resolve() / "src" / "sarfima"
    if not (root / "__init__.py").is_file():
        raise SystemExit(f"error: no src/sarfima package under {checkout}")
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py",
                                                  submodule_search_locations=[str(root)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def timed_run(package, name: str, seed: int, reps: int, n: int):
    """(CPU seconds, estimates) of one run_mc of the design on ``package``,
    with circulant paths whatever that checkout's default sampler."""
    config = dataclasses.replace(package.design(name, master_seed=seed, reps=reps, n=n),
                                 method="circulant", self_check=False)
    start = time.process_time()
    summary = package.run_mc(config)
    return time.process_time() - start, [res.estimates.tobytes() for res in summary.results]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--against", required=True, metavar="CHECKOUT",
                    help="the other checkout's root directory (holding src/sarfima)")
    ap.add_argument("--design", default="table4", help="canned design (default table4)")
    ap.add_argument("--n", type=int, default=1080, help="series length (default 1080)")
    ap.add_argument("--reps", type=int, default=8, help="replications per run (default 8)")
    ap.add_argument("--rounds", type=int, default=12, help="timed rounds (default 12)")
    ap.add_argument("--seed", type=int, default=20101125, help="master seed of round 0")
    args = ap.parse_args(argv)
    sides = {"this": load_package(HERE, "sarfima_this"),
             "against": load_package(Path(args.against), "sarfima_against")}
    for package in sides.values():   # caches: designs, the sampler's table or roots
        timed_run(package, args.design, args.seed, args.reps, args.n)
    ratios, equal = [], True
    print(f"{args.design}, n {args.n}, {args.reps} reps per run; CPU seconds")
    print("round      this   against   ratio")
    for k in range(args.rounds):
        order = list(sides) if k % 2 == 0 else list(sides)[::-1]
        runs = {side: timed_run(sides[side], args.design, args.seed + k, args.reps, args.n) for side in order}
        (t_this, est_this), (t_against, est_against) = runs["this"], runs["against"]
        equal &= est_this == est_against
        ratios.append(t_this / t_against)
        print(f"{k:5d} {t_this:9.4f} {t_against:9.4f} {ratios[-1]:7.3f}")
    wins = sum(r < 1 for r in ratios)
    print(f"median this/against {statistics.median(ratios):.3f}  this faster in {wins} of {len(ratios)} "
          f"rounds  estimates equal: {'yes' if equal else 'no'}")
    return 0


if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")   # read when the packages load numpy
    sys.exit(main())
