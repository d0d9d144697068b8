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
Where the bits differ, ``--save`` on one checkout and ``--against`` on the
other compare the run_mc estimates of both samplers replication by
replication: per design and estimator, the largest |change of d_hat|, the
replications whose Newton steps differ, and the code mismatches (replications
that failed on one side only, plus the difference of the failure-code
tallies).  ``--against`` exits 1 on any step or code mismatch.

    python scripts/digest.py
    python scripts/digest.py --reps 2      # a quick smoke run
    python scripts/digest.py --n 4096 --save before.npz           # on the old checkout
    python scripts/digest.py --n 4096 --against before.npz        # on the new one
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

# this checkout's package, installed or not
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from sarfima import DESIGN_NAMES, SarfimaError, design, run_mc, spec_to_json
from sarfima.cli import dispatch

METHODS = ("exact_dl", "circulant")


def mc_runs(master_seed: int, reps: int, n: int, method: str) -> dict:
    """Each design's run_mc summary, or the error code it raised (table3 and
    table5 admit no band plan at small n)."""
    runs = {}
    for name in DESIGN_NAMES:
        try:
            runs[name] = run_mc(design(name, master_seed=master_seed, reps=reps, n=n, method=method))
        except SarfimaError as exc:
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


def records(runs_by_method: dict) -> dict:
    """The arrays ``--save`` writes: per sampler, design and estimator the
    estimates, the Newton steps (empty for a band regression) and the
    failure-code tally as JSON; per design that raised, its error code."""
    out = {}
    for method, runs in runs_by_method.items():
        for name, summary in runs.items():
            if isinstance(summary, str):
                out[f"{method}/{name}/error"] = np.array(summary)
                continue
            for res in summary.results:
                key = f"{method}/{name}/{res.name}"
                out[f"{key}/estimates"] = res.estimates
                out[f"{key}/steps"] = np.array([] if res.iterations is None else res.iterations, dtype=int)
                out[f"{key}/codes"] = np.array(json.dumps(res.failure_codes, sort_keys=True))
    return out


def compare(saved: dict, now: dict) -> tuple:
    """One line per sampler, design and estimator of either record, and
    whether any steps or codes differ."""
    lines, mismatched = [], False
    groups = dict.fromkeys(key.rsplit("/", 1)[0] for key in list(saved) + list(now))
    for group in groups:
        if group.count("/") == 1:   # a design that raised on at least one side
            was, got = (str(r.get(f"{group}/error", "ran")) for r in (saved, now))
            mismatched |= was != got
            lines.append(f"{group:30} error {was} -> {got}")
            continue
        if not all(f"{group}/estimates" in r for r in (saved, now)):
            continue   # the design raised on one side: reported above
        a, b = saved[f"{group}/estimates"], now[f"{group}/estimates"]
        failed_a, failed_b = np.isnan(a).any(axis=1), np.isnan(b).any(axis=1)
        both = ~failed_a & ~failed_b
        delta = float(np.max(np.abs(a[both] - b[both]), initial=0.0))
        steps = int(np.sum(saved[f"{group}/steps"] != now[f"{group}/steps"]))
        tallies = [json.loads(str(r[f"{group}/codes"])) for r in (saved, now)]
        codes = int(np.sum(failed_a != failed_b)) + sum(
            abs(tallies[0].get(code, 0) - tallies[1].get(code, 0)) for code in {*tallies[0], *tallies[1]})
        mismatched |= steps > 0 or codes > 0
        lines.append(f"{group:30} max|dd| {delta:.3g}  steps {steps}  codes {codes}")
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


def cli_digest(seed: int, reps: int, n: int) -> str:
    spec = design("table4", master_seed=seed, reps=1, n=n).spec
    template = {"spec": json.loads(spec_to_json(spec)), "free_d": [True, True], "free_ar": [True]}
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        Path("spec.json").write_text(spec_to_json(spec))
        Path("template.json").write_text(json.dumps(template))
        for argv in cli_calls(seed, reps, n):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = dispatch(argv)
            h.update(f"{argv[0]} -> {code}\n".encode())
        for path in sorted(Path(".").iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=20101125, help="master seed")
    ap.add_argument("--reps", type=int, default=100, help="replications per design")
    ap.add_argument("--n", type=int, default=1080, help="series length")
    ap.add_argument("--save", metavar="FILE", help="write the run_mc records of both samplers to FILE (.npz)")
    ap.add_argument("--against", metavar="FILE", help="compare the run_mc records with those saved in FILE")
    args = ap.parse_args(argv)
    runs = {method: mc_runs(args.seed, args.reps, args.n, method) for method in METHODS}
    print(f"run_mc {mc_digest(runs['exact_dl'])}  table1-5, seed {args.seed}, "
          f"n {args.n}, {args.reps} reps")
    print(f"cli    {cli_digest(args.seed, args.reps, args.n)}  {len(cli_calls(0, 0, 0))} verb calls")
    print(f"circulant {mc_digest(runs['circulant'])}  table1-5, seed {args.seed}, "
          f"n {args.n}, {args.reps} reps")
    now = records(runs)
    params = json.dumps([args.seed, args.reps, args.n])
    if args.save:
        np.savez(args.save, params=params, **now)
    if args.against:
        with np.load(args.against) as f:
            saved = dict(f)
        if str(saved.pop("params", "")) != params:
            print(f"error: {args.against} was saved with other --seed/--reps/--n", file=sys.stderr)
            return 2
        lines, mismatched = compare(saved, now)
        print("\n".join(lines))
        return 1 if mismatched else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
