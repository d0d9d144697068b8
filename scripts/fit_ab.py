#!/usr/bin/env python3
"""CPU time of Monte Carlo blocks, CLI chains or cold starts on this checkout against another.

Alternates the two checkouts step by step (a step is the whole run, or
with ``--cold`` one command), swapping which side goes first every round.
Every round uses master seed ``--seed`` on both sides, so that the rounds
differ by timing noise alone, not by their data; one untimed run per side
builds the caches first (with ``--cold``, one ``import sarfima``, which
writes the package's bytecode).

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

With ``--cold`` a run is six commands, each in a fresh interpreter with
that checkout's ``src/`` on PYTHONPATH and ``OPENBLAS_NUM_THREADS=1``:
``import sarfima`` and the verbs ``simulate`` at n = 1080, ``mc --design
table2 --reps 1``, ``mc --design table5 --method exact_dl --reps 1`` (the
Durbin-Levinson set-up), ``filter`` and ``periodogram`` (the last two on a
1080-point path of the table2 spec), each side in its own temporary
directory.  A command's time is the CPU seconds of its child process
(user plus system, from ``RUSAGE_CHILDREN``), which a loaded host disturbs
far less than wall time, and the bytes of every file the commands write
are compared.  A command that exits non-zero stops the script with exit 1.
``--against .`` times this checkout's cold start alone.

The other modes load this checkout's ``src/sarfima`` and the other
checkout's as two packages in one interpreter.  Each round prints both CPU
times and their ratio (with ``--cold``, summed over the commands; each
command's medians, median ratio and wins follow the rounds); the last line
gives the median ratio this/against, the rounds in which this checkout was
faster, and whether the two sides' estimates (or output files) were
bitwise equal in every round.  Two lines close the report: each side's
median and quartiles of CPU seconds per run (per round, summed over the
commands with ``--cold``), and whether this checkout meets the rule for
claiming a gain: faster in at least 9/10 of the rounds, with the medians
further apart than the other side's interquartile range.

On a shared host, back-to-back processes can differ by more than a change
being measured; alternating puts both sides under the same load.  Run as a
script, BLAS runs one thread (``OPENBLAS_NUM_THREADS=1`` unless already
set), so CPU time is not inflated by spinning BLAS threads.

    python scripts/fit_ab.py --against ../parent
    python scripts/fit_ab.py --against ../parent --design table2 --reps 64 --rounds 20
    python scripts/fit_ab.py --against ../parent --cli --reps 4 --rounds 10
    python scripts/fit_ab.py --against ../parent --cold --rounds 7
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib.util
import json
import os
import resource
import statistics
import subprocess
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
    for loaded in [key for key in sys.modules if key.startswith(f"{name}.")]:
        del sys.modules[loaded]   # a package loaded under this name before: its submodules would be reused
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
    """``{"cli": run}``, ``run(seed)`` giving (CPU seconds per series,
    outputs) of ``reps`` chains on ``package`` in the directory ``work``,
    series seeds seed * reps + j."""
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
    return {"cli": run}


#: (label, arguments after the interpreter) of ``--cold``, run in a
#: directory holding spec.json and series.csv
COLD_COMMANDS = [
    ("import", ["-c", "import sarfima"]),
    ("simulate", ["-m", "sarfima", "simulate", "--spec", "spec.json", "--n", "1080", "--seed", "1",
                  "--out", "sim.csv"]),
    ("mc", ["-m", "sarfima", "mc", "--design", "table2", "--seed", "1", "--reps", "1", "--out", "mc.csv"]),
    ("mc_dl", ["-m", "sarfima", "mc", "--design", "table5", "--method", "exact_dl", "--seed", "1", "--reps", "1",
               "--out", "mc_dl.csv"]),
    ("filter", ["-m", "sarfima", "filter", "--in", "series.csv", "--d", "0.1,0.3", "--periods", "1,4",
                "--out", "resid.csv"]),
    ("periodogram", ["-m", "sarfima", "periodogram", "--in", "series.csv", "--out", "pgram.csv"]),
]


def cold_runner(package, checkout: Path, work: Path):
    """``{label: run}`` per cold command, ``run(seed)`` giving (child CPU
    seconds, the files in ``work``) of the command on ``checkout``'s src/;
    ``package`` writes spec.json and series.csv into ``work`` first."""
    work.mkdir()
    dispatch = importlib.import_module(f"{package.__name__}.cli").dispatch
    (work / "spec.json").write_text(package.spec_to_json(package.design("table2", master_seed=1, reps=1).spec))
    dispatch(["simulate", "--spec", str(work / "spec.json"), "--n", "1080", "--seed", "2",
              "--out", str(work / "series.csv")])
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"), OPENBLAS_NUM_THREADS="1")

    def cpu_seconds():
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    def command(args, seed):
        start = cpu_seconds()
        done = subprocess.run([sys.executable, *args], cwd=work, env=env, capture_output=True, text=True)
        cpu = cpu_seconds() - start
        if done.returncode != 0:
            raise SystemExit(f"error: {' '.join(args)} on {checkout} exited {done.returncode}: "
                             f"{done.stderr.strip()}")
        return cpu, [(p.name, p.read_bytes()) for p in sorted(work.iterdir())]
    return {label: functools.partial(command, args) for label, args in COLD_COMMANDS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--against", required=True, metavar="CHECKOUT",
                    help="the other checkout's root directory (holding src/sarfima)")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--cli", action="store_true", help="time the seven-verb CLI chain instead of run_mc")
    mode.add_argument("--cold", action="store_true", help="time six commands in fresh interpreters")
    ap.add_argument("--design", default="table4", help="canned design (default table4)")
    ap.add_argument("--n", type=int, default=1080, help="series length (default 1080)")
    ap.add_argument("--reps", type=int, default=8, help="replications, or --cli series, per run (default 8)")
    ap.add_argument("--rounds", type=int, default=12, help="timed rounds (default 12)")
    ap.add_argument("--seed", type=int, default=20101125, help="master seed of every round")
    args = ap.parse_args(argv)
    checkouts = {"this": HERE, "against": Path(args.against)}
    sides = {side: load_package(checkout, f"sarfima_{side}") for side, checkout in checkouts.items()}
    with tempfile.TemporaryDirectory() as tmp:
        if args.cold:
            runs = {side: cold_runner(sides["this"], checkout, Path(tmp, side))
                    for side, checkout in checkouts.items()}
            print(f"cold start, {len(COLD_COMMANDS)} commands in fresh processes; CPU seconds of the children")
        elif args.cli:
            runs = {side: cli_runner(package, Path(tmp, side), args.reps, args.n)
                    for side, package in sides.items()}
            print(f"cli chain, n {args.n}, {args.reps} series per run; CPU seconds per series")
        else:
            runs = {side: {"run_mc": functools.partial(timed_run, package, args.design, reps=args.reps, n=args.n)}
                    for side, package in sides.items()}
            print(f"{args.design}, n {args.n}, {args.reps} reps per run; CPU seconds")
        for steps in runs.values():   # caches: designs, the sampler's table or roots, bytecode
            next(iter(steps.values()))(args.seed)
        rounds, equal = [], True
        print("round      this   against   ratio")
        for k in range(args.rounds):
            # each step alternates the sides, so that the two runs compared lie close in time
            order = list(sides) if k % 2 == 0 else list(sides)[::-1]
            times = {side: {} for side in sides}
            for label in runs["this"]:
                done = {side: runs[side][label](args.seed) for side in order}
                equal &= done["this"][1] == done["against"][1]
                for side in sides:
                    times[side][label] = done[side][0]
            rounds.append((times["this"], times["against"]))
            total, total_against = sum(times["this"].values()), sum(times["against"].values())
            print(f"{k:5d} {total:9.4f} {total_against:9.4f} {total / total_against:7.3f}")
    if len(runs["this"]) > 1:
        print(f"{'command':12} {'this':>9} {'against':>9} {'ratio':>7}  this faster in")
        for label in runs["this"]:
            ratios = [a[label] / b[label] for a, b in rounds]
            print(f"{label:12} {statistics.median(a[label] for a, _ in rounds):9.4f} "
                  f"{statistics.median(b[label] for _, b in rounds):9.4f} {statistics.median(ratios):7.3f}  "
                  f"{sum(r < 1 for r in ratios)} of {len(ratios)}")
    ratios = [sum(a.values()) / sum(b.values()) for a, b in rounds]
    wins = sum(r < 1 for r in ratios)
    print(f"median this/against {statistics.median(ratios):.3f}  this faster in {wins} of {len(ratios)} "
          f"rounds  {'outputs' if args.cli or args.cold else 'estimates'} equal: {'yes' if equal else 'no'}")
    for line in gain_report(*([sum(times.values()) for times in side] for side in zip(*rounds))):
        print(line)
    return 0


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile) of ``values``, by linear
    interpolation between order statistics; one value is all three."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def gain_report(this: list, against: list) -> list:
    """The two closing lines, from each round's CPU seconds on both sides:
    each side's median and quartiles, and whether this side meets the rule
    for claiming a gain (faster in at least 9/10 of the rounds, and the
    medians further apart than the other side's interquartile range)."""
    (q1, mid, q3), (p1, pmid, p3) = quartiles(this), quartiles(against)
    wins = sum(a < b for a, b in zip(this, against))
    met = 10 * wins >= 9 * len(this) and pmid - mid > p3 - p1
    return [f"CPU seconds per run  this median {mid:.6f} (quartiles {q1:.6f} {q3:.6f})  "
            f"against median {pmid:.6f} (quartiles {p1:.6f} {p3:.6f})",
            f"gain rule: this faster in {wins} of {len(this)} rounds (9/10 needed), median gap "
            f"{pmid - mid:.6f} against IQR {p3 - p1:.6f} (must be wider): {'met' if met else 'not met'}"]


if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")   # read when the packages load numpy
    sys.exit(main())
