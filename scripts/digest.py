#!/usr/bin/env python3
"""Fingerprint every estimate the package computes, to check a change is bitwise neutral.

Prints three SHA-256 digests:

* ``run_mc``: the per-replication estimates of the canned designs table1-5
  (fixed master seed, one process), as raw float64 bytes;
* ``cli``: the bytes of every file a fixed chain of CLI verbs writes (simulate,
  periodogram, both estimators, filter, scan, acf, mc), with each verb's exit
  code;
* ``circulant``: as ``run_mc``, with the paths drawn by circulant embedding.

Run it on two checkouts with the same arguments; equal digests mean equal bits.
Where the bits differ, ``--against CHECKOUT`` loads the other checkout's
package into this process (so both sides run under one BLAS setting) and
compares the run_mc estimates of both samplers replication by replication:
per design and estimator, the largest |change of d_hat|, the replications
whose Newton steps differ, and the code mismatches (replications that
failed on one side only, plus the difference of the failure-code tallies);
a Whittle estimator's line also gives the mean Newton steps on both sides,
over the replications whose fit did not raise.
For each Whittle estimator it also refits the run's paths, drawn here in
run_mc's blocks, with both packages' block fit and counts the
replications whose objective ends lower and higher on this side (by more
than 1e-9).  It also runs the CLI chain with both packages, on the same
input files, and names each verb whose exit code differs and each output
file whose bytes differ.  ``--against`` exits 1 on any step or code
mismatch, exit codes of the verbs included; a file that differs is only
named.

    python scripts/digest.py
    python scripts/digest.py --reps 2      # a quick smoke run
    python scripts/digest.py --n 4096 --against ../parent
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import sys
import tempfile
from pathlib import Path

# this checkout's package, installed or not, and fit_ab's loader of another
sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"), str(Path(__file__).resolve().parent)]

import numpy as np

import sarfima
from fit_ab import load_package
from sarfima import design, spec_to_json

METHODS = ("exact_dl", "circulant")


def mc_runs(package, master_seed: int, reps: int, n: int, method: str) -> dict:
    """Each design's run_mc summary on ``package``, or the error code it
    raised (table3 and table5 admit no band plan at small n)."""
    runs = {}
    for name in package.DESIGN_NAMES:
        try:
            runs[name] = package.run_mc(package.design(name, master_seed=master_seed, reps=reps, n=n,
                                                       method=method))
        except package.SarfimaError as exc:
            runs[name] = exc.code
    return runs


def mc_digest(runs: dict) -> str:
    h = hashlib.sha256()
    for name, summary in runs.items():
        if isinstance(summary, str):
            h.update(f"{name}: {summary}".encode())
            continue
        for res in summary.results:
            h.update(f"{name}/{res.name}/{res.estimates.shape}".encode())
            h.update(res.estimates.tobytes())
    return h.hexdigest()


#: an objective that moves by no more than this has not moved
OBJECTIVE_TOL = 1e-9


def objective_counts(other, master_seed: int, reps: int, n: int) -> dict:
    """Per sampler, design and Whittle estimator, how many replications end
    with a lower and how many with a higher objective on this side: every
    block of run_mc's paths, drawn by this package, is fitted by this
    package's and by ``other``'s ``_whittle_fits``, each with its own
    design's template."""
    from sarfima.estimators import _whittle_fits
    from sarfima.montecarlo import _PATH_BLOCK
    from sarfima.simulate import _paths
    from sarfima.spectrum import _ordinates
    counts = {}
    for method in METHODS:
        for name in sarfima.DESIGN_NAMES:
            try:
                config = design(name, master_seed=master_seed, reps=reps, n=n, method=method)
                other_estimators = other.design(name, master_seed=master_seed, reps=reps, n=n).estimators
            except (sarfima.SarfimaError, other.SarfimaError):
                continue   # reported by the run_mc comparison
            templates = [(e.name, e.template, o.template) for e, o in zip(config.estimators, other_estimators)
                         if e.kind == "whittle"]
            diffs = {label: [] for label, _, _ in templates}
            for start in range(0, reps, _PATH_BLOCK):
                seeds = [sarfima.derive_rep_seed(master_seed, rep)
                         for rep in range(start, min(start + _PATH_BLOCK, reps))]
                ordinates = _ordinates(_paths(config.spec, n, config.grid_exponent, method, seeds))
                for label, mine, theirs in templates:
                    diffs[label].append(_whittle_fits(ordinates, n, mine).objective
                                        - other.estimators._whittle_fits(ordinates, n, theirs).objective)
            for label, parts in diffs.items():
                diff = np.concatenate(parts)
                counts[f"{method}/{name}/{label}"] = (int(np.sum(diff < -OBJECTIVE_TOL)),
                                                      int(np.sum(diff > OBJECTIVE_TOL)))
    return counts


def records(runs_by_method: dict) -> dict:
    """Per sampler and design that raised, its error code; per sampler,
    design and estimator, the estimates, the Newton steps (empty for a band
    regression) and the failure-code tally."""
    out = {}
    for method, runs in runs_by_method.items():
        for name, summary in runs.items():
            if isinstance(summary, str):
                out[f"{method}/{name}"] = summary
                continue
            for res in summary.results:
                steps = np.array([] if res.iterations is None else res.iterations, dtype=int)
                out[f"{method}/{name}/{res.name}"] = (res.estimates, steps, res.failure_codes)
    return out


def mean_steps(steps: np.ndarray) -> str:
    """The mean Newton steps of the fits that did not raise (-1 steps)."""
    ran = steps[steps >= 0]
    return f"{ran.mean():.2f}" if ran.size else "-"


def compare(before: dict, after: dict, objectives: dict) -> tuple:
    """One line per sampler, design and estimator of either record, with the
    mean Newton steps of both sides and the objective counts of a Whittle
    estimator, and whether any steps or codes differ."""
    lines, mismatched = [], False
    for group in dict.fromkeys([*before, *after]):
        if group.count("/") == 1:   # a design that raised on at least one side
            was, got = (r.get(group, "ran") for r in (before, after))
            mismatched |= was != got
            lines.append(f"{group:30} error {was} -> {got}")
            continue
        if group not in before or group not in after:
            continue   # the design raised on one side: reported above
        (a, steps_a, tally_a), (b, steps_b, tally_b) = before[group], after[group]
        failed_a, failed_b = np.isnan(a).any(axis=1), np.isnan(b).any(axis=1)
        both = ~failed_a & ~failed_b
        delta = float(np.max(np.abs(a[both] - b[both]), initial=0.0))
        steps = int(np.sum(steps_a != steps_b))
        codes = int(np.sum(failed_a != failed_b)) + sum(
            abs(tally_a.get(code, 0) - tally_b.get(code, 0)) for code in {*tally_a, *tally_b})
        mismatched |= steps > 0 or codes > 0
        line = f"{group:30} max|dd| {delta:.3g}  steps {steps}  codes {codes}"
        if group in objectives:
            line += "  objective lower {} higher {}".format(*objectives[group])
        if steps_a.size or steps_b.size:   # a Whittle estimator
            line += f"  mean steps {mean_steps(steps_a)} -> {mean_steps(steps_b)}"
        lines.append(line)
    return lines, mismatched


def cli_calls(seed: int, reps: int, n: int):
    """The verb chain, as argument lists run in a fresh working directory."""
    return [
        ["simulate", "--spec", "spec.json", "--n", str(n), "--seed", str(seed), "--out", "series.csv"],
        ["periodogram", "--in", "series.csv", "--out", "pgram.csv"],
        ["estimate-gph", "--in", "series.csv", "--s1", "1", "--s2", "4", "--alpha", "0.5",
         "--out", "gph_multi.json"],
        ["estimate-gph", "--in", "series.csv", "--s1", "4", "--gph-T", "--out", "gph_single.json"],
        ["estimate-whittle", "--in", "series.csv", "--periods", "1,4", "--out", "whittle_pure.json"],
        ["estimate-whittle", "--in", "series.csv", "--template", "template.json",
         "--out", "whittle_ar.json"],
        ["filter", "--in", "series.csv", "--d", "0.1,0.3", "--periods", "1,4", "--out", "resid.csv"],
        ["scan", "--in", "series.csv", "--s1", "1", "--s2", "4", "--alphas", "0.2,0.4,0.5,0.6",
         "--out", "scan.csv"],
        ["acf", "--in", "resid.csv", "--max-lag", "48", "--out", "acf.csv"],
        ["mc", "--design", "table4", "--seed", str(seed), "--reps", str(reps), "--n", str(n),
         "--out", "mc.csv", "--dump-estimates", "mc_estimates.csv"],
    ]


def cli_run(package, seed: int, reps: int, n: int) -> tuple:
    """(each verb's exit code, each written file's bytes by name) of the verb
    chain run by ``package``'s ``dispatch`` on this package's spec and
    template files."""
    dispatch = importlib.import_module(f"{package.__name__}.cli").dispatch
    spec = design("table4", master_seed=seed, reps=1, n=n).spec
    template = {"spec": json.loads(spec_to_json(spec)), "free_d": [True, True], "free_ar": [True]}
    codes = []
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        Path("spec.json").write_text(spec_to_json(spec))
        Path("template.json").write_text(json.dumps(template))
        for argv in cli_calls(seed, reps, n):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append((argv[0], dispatch(argv)))
        files = {path.name: path.read_bytes() for path in sorted(Path(".").iterdir())}
    return codes, files


def cli_digest(run: tuple) -> str:
    codes, files = run
    h = hashlib.sha256()
    for verb, code in codes:
        h.update(f"{verb} -> {code}\n".encode())
    for name, data in files.items():
        h.update(name.encode() + b"\0" + data)
    return h.hexdigest()


def compare_cli(before: tuple, after: tuple) -> tuple:
    """One line per verb call whose exit code differs and per output file
    whose bytes differ (or that one side alone wrote), and whether any exit
    code differs."""
    lines = [f"cli {verb:26} exit {was} -> {got}"
             for (verb, was), (_, got) in zip(before[0], after[0]) if was != got]
    mismatched = bool(lines)
    for name in sorted({*before[1], *after[1]}):
        was, got = before[1].get(name), after[1].get(name)
        if was != got:
            lines.append(f"cli {name:26} " + ("differs" if was is not None and got is not None else
                                               "written here only" if was is None else "not written here"))
    return lines, mismatched


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=20101125, help="master seed")
    ap.add_argument("--reps", type=int, default=100, help="replications per design")
    ap.add_argument("--n", type=int, default=1080, help="series length")
    ap.add_argument("--against", metavar="CHECKOUT",
                    help="compare the run_mc records with those of the checkout CHECKOUT")
    args = ap.parse_args(argv)
    params = (args.seed, args.reps, args.n)
    runs = {method: mc_runs(sarfima, *params, method) for method in METHODS}
    print(f"run_mc {mc_digest(runs['exact_dl'])}  table1-5, seed {args.seed}, "
          f"n {args.n}, {args.reps} reps")
    cli = cli_run(sarfima, *params)
    print(f"cli    {cli_digest(cli)}  {len(cli_calls(0, 0, 0))} verb calls")
    print(f"circulant {mc_digest(runs['circulant'])}  table1-5, seed {args.seed}, "
          f"n {args.n}, {args.reps} reps")
    if args.against:
        other = load_package(Path(args.against), "sarfima_against")
        lines, mismatched = compare(records({method: mc_runs(other, *params, method) for method in METHODS}),
                                    records(runs), objective_counts(other, *params))
        cli_lines, cli_mismatched = compare_cli(cli_run(other, *params), cli)
        print("\n".join(lines + cli_lines))
        return 1 if mismatched or cli_mismatched else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
