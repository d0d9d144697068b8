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

    python scripts/digest.py
    python scripts/digest.py --reps 2      # a quick smoke run
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

# this checkout's package, installed or not
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sarfima import DESIGN_NAMES, design, run_mc, spec_to_json
from sarfima.cli import dispatch


def mc_digest(master_seed: int, reps: int, n: int, method: str = "exact_dl") -> str:
    h = hashlib.sha256()
    for name in DESIGN_NAMES:
        config = design(name, master_seed=master_seed, reps=reps, n=n)
        summary = run_mc(dataclasses.replace(config, method=method))
        for res in summary.results:
            h.update(f"{name}/{res.name}/{res.estimates.shape}".encode())
            h.update(res.estimates.tobytes())
    return h.hexdigest()


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
    args = ap.parse_args(argv)
    print(f"run_mc {mc_digest(args.seed, args.reps, args.n)}  table1-5, seed {args.seed}, "
          f"n {args.n}, {args.reps} reps")
    print(f"cli    {cli_digest(args.seed, args.reps, args.n)}  {len(cli_calls(0, 0, 0))} verb calls")
    print(f"circulant {mc_digest(args.seed, args.reps, args.n, 'circulant')}  table1-5, seed {args.seed}, "
          f"n {args.n}, {args.reps} reps")
    return 0


if __name__ == "__main__":
    sys.exit(main())
