#!/usr/bin/env python3
"""CPU time of Monte Carlo blocks or CLI chains on this checkout against another, in one process.

Loads this checkout's ``src/sarfima`` and the other checkout's as two
packages in one interpreter, then alternates runs on the two, swapping which
side goes first every round.  Round k uses master seed ``--seed`` + k on
both sides, and one untimed run per side builds the caches first.

By default a run is ``run_mc`` of one canned design (default: table4,
n = 1080, 8 replications, one block), with the acvf self-check skipped, so
each timed run is the draw and fits of its block.  Both sides draw their
paths by circulant embedding, so a checkout without that sampler fails with
its own ``bad-method``.

With ``--cli`` a run is ``--reps`` series, each taken through seven CLI
verbs in this process (simulate, periodogram, estimate-gph, scan, filter,
acf, estimate-whittle) on a fixed two-period spec (periods 4 and 12,
memories 0.1 and 0.3), each side in its own temporary directory; the
times are CPU seconds per series, and after every series the two sides'
exit codes and the bytes of every file in their directories are compared.

Each round prints both CPU times and their ratio; the last line gives the
median ratio this/against, the rounds in which this checkout was faster,
and whether the two sides' estimates (or output files) were bitwise equal
in every round.

On a shared host, back-to-back processes can differ by more than a change
being measured; alternating in one process puts both sides under the same
load.  Run as a script, BLAS runs one thread (``OPENBLAS_NUM_THREADS=1``
unless already set), so CPU time is not inflated by spinning BLAS threads.

    python scripts/fit_ab.py --against ../parent
    python scripts/fit_ab.py --against ../parent --design table2 --reps 64 --rounds 20
    python scripts/fit_ab.py --against ../parent --cli --reps 4 --rounds 10
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

#: the spec of ``--cli``: memories 0.1 and 0.3 at periods 4 and 12
CLI_SPEC = {"components": [{"period": 4, "d": 0.1}, {"period": 12, "d": 0.3}], "ar": [], "ma": [], "sigma2": 1.0}


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


def cli_chain(work: Path, seed: int, n: int) -> list:
    """The seven verbs of one series, as argument lists with paths in ``work``."""
    f = lambda name: str(work / name)
    return [
        ["simulate", "--spec", f("spec.json"), "--n", str(n), "--seed", str(seed), "--out", f("x.csv")],
        ["periodogram", "--in", f("x.csv"), "--out", f("pg.csv")],
        ["estimate-gph", "--in", f("x.csv"), "--s1", "4", "--s2", "12", "--alpha", "0.5", "--out", f("gph.json")],
        ["scan", "--in", f("x.csv"), "--s1", "4", "--s2", "12", "--alphas", "0.35,0.4,0.45,0.5",
         "--out", f("scan.csv")],
        ["filter", "--in", f("x.csv"), "--d", "0.1,0.3", "--periods", "4,12", "--out", f("resid.csv")],
        ["acf", "--in", f("resid.csv"), "--max-lag", "48", "--out", f("acf.csv")],
        ["estimate-whittle", "--in", f("x.csv"), "--periods", "4,12", "--out", f("whittle.json")],
    ]


def cli_runner(package, work: Path, reps: int, n: int):
    """``run(seed)``: (CPU seconds per series, outputs) of ``reps`` chains on
    ``package`` in the directory ``work``, series seeds seed * reps + j."""
    dispatch = importlib.import_module(f"{package.__name__}.cli").dispatch
    work.mkdir()
    (work / "spec.json").write_text(json.dumps(CLI_SPEC))

    def run(seed):
        cpu, outputs = 0.0, []
        for j in range(reps):
            start = time.process_time()
            codes = [dispatch(argv) for argv in cli_chain(work, seed * reps + j, n)]
            cpu += time.process_time() - start
            outputs.append((codes, [(p.name, p.read_bytes()) for p in sorted(work.iterdir())]))
        return cpu / reps, outputs
    return run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--against", required=True, metavar="CHECKOUT",
                    help="the other checkout's root directory (holding src/sarfima)")
    ap.add_argument("--cli", action="store_true", help="time the seven-verb CLI chain instead of run_mc")
    ap.add_argument("--design", default="table4", help="canned design (default table4)")
    ap.add_argument("--n", type=int, default=1080, help="series length (default 1080)")
    ap.add_argument("--reps", type=int, default=8, help="replications, or --cli series, per run (default 8)")
    ap.add_argument("--rounds", type=int, default=12, help="timed rounds (default 12)")
    ap.add_argument("--seed", type=int, default=20101125, help="master seed of round 0")
    args = ap.parse_args(argv)
    sides = {"this": load_package(HERE, "sarfima_this"),
             "against": load_package(Path(args.against), "sarfima_against")}
    with tempfile.TemporaryDirectory() as tmp:
        if args.cli:
            runs = {side: cli_runner(package, Path(tmp, side), args.reps, args.n)
                    for side, package in sides.items()}
            print(f"cli chain, n {args.n}, {args.reps} series per run; CPU seconds per series")
        else:
            runs = {side: lambda seed, package=package: timed_run(package, args.design, seed, args.reps, args.n)
                    for side, package in sides.items()}
            print(f"{args.design}, n {args.n}, {args.reps} reps per run; CPU seconds")
        for run in runs.values():   # caches: designs, the sampler's table or roots
            run(args.seed)
        ratios, equal = [], True
        print("round      this   against   ratio")
        for k in range(args.rounds):
            order = list(sides) if k % 2 == 0 else list(sides)[::-1]
            done = {side: runs[side](args.seed + k) for side in order}
            (t_this, out_this), (t_against, out_against) = done["this"], done["against"]
            equal &= out_this == out_against
            ratios.append(t_this / t_against)
            print(f"{k:5d} {t_this:9.4f} {t_against:9.4f} {ratios[-1]:7.3f}")
    wins = sum(r < 1 for r in ratios)
    print(f"median this/against {statistics.median(ratios):.3f}  this faster in {wins} of {len(ratios)} "
          f"rounds  {'outputs' if args.cli else 'estimates'} equal: {'yes' if equal else 'no'}")
    return 0


if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")   # read when the packages load numpy
    sys.exit(main())
