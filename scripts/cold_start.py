#!/usr/bin/env python3
"""Cold-start wall time of five commands, each in a fresh interpreter.

The commands are ``import sarfima`` and four CLI verbs run as
``python -m sarfima``: ``simulate`` at n = 1080, ``mc --design table2 --reps
1``, ``filter`` and ``periodogram`` (the last two on a 1080-point series of
the table2 spec, written once before timing starts).  Each command runs
``--runs`` times in a new process with this checkout's ``src/`` on
PYTHONPATH, and the script prints per command the median, minimum and
maximum wall seconds.  With ``--against CHECKOUT`` the other checkout's
``src/`` is timed too, the two alternating run by run (with the first side
swapped every run), and a last column gives the ratio of the medians,
this/against.  A command that exits non-zero stops the script with exit 1.

    python scripts/cold_start.py
    python scripts/cold_start.py --runs 7 --against ../parent
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

#: (label, arguments after the interpreter), run in a directory holding
#: spec.json and series.csv
COMMANDS = [
    ("import", ["-c", "import sarfima"]),
    ("simulate", ["-m", "sarfima", "simulate", "--spec", "spec.json", "--n", "1080", "--seed", "1",
                  "--out", "sim.csv"]),
    ("mc", ["-m", "sarfima", "mc", "--design", "table2", "--seed", "1", "--reps", "1", "--out", "mc.csv"]),
    ("filter", ["-m", "sarfima", "filter", "--in", "series.csv", "--d", "0.1,0.3", "--periods", "1,4",
                "--out", "resid.csv"]),
    ("periodogram", ["-m", "sarfima", "periodogram", "--in", "series.csv", "--out", "pgram.csv"]),
]


def run(checkout: Path, args: list, cwd: str) -> float:
    """Wall seconds of one fresh ``python args`` on ``checkout``'s src/."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} on {checkout} exited {done.returncode}: {done.stderr.strip()}")
    return wall


def write_inputs(cwd: str):
    """spec.json (table2's spec) and series.csv, a 1080-point path of it."""
    sys.path.insert(0, str(HERE / "src"))
    from sarfima import design, spec_to_json
    Path(cwd, "spec.json").write_text(spec_to_json(design("table2", master_seed=1, reps=1).spec))
    run(HERE, ["-m", "sarfima", "simulate", "--spec", "spec.json", "--n", "1080", "--seed", "2",
               "--out", "series.csv"], cwd)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=7, help="fresh processes per command and checkout")
    ap.add_argument("--against", metavar="CHECKOUT", help="another checkout to time alternately")
    args = ap.parse_args(argv)
    sides = [HERE] + ([Path(args.against)] if args.against else [])
    if args.against and not (Path(args.against) / "src" / "sarfima" / "__init__.py").is_file():
        print(f"error: no src/sarfima package under {args.against}", file=sys.stderr)
        return 2
    times = {(label, side): [] for label, _ in COMMANDS for side in range(len(sides))}
    with tempfile.TemporaryDirectory() as cwd:
        try:
            write_inputs(cwd)
            for k in range(args.runs):
                order = range(len(sides)) if k % 2 == 0 else reversed(range(len(sides)))
                for side in order:
                    for label, command in COMMANDS:
                        times[label, side].append(run(sides[side], command, cwd))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    header = f"{'command':12} {'median':>7} {'min':>7} {'max':>7}"
    if args.against:
        header += f"   {'against':>7} {'min':>7} {'max':>7}   ratio"
    print(f"cold start, {args.runs} fresh processes per command; wall seconds")
    print(header)
    for label, _ in COMMANDS:
        row, medians = f"{label:12}", []
        for side in range(len(sides)):
            t = times[label, side]
            medians.append(statistics.median(t))
            row += ("   " if side else " ") + f"{medians[-1]:7.3f} {min(t):7.3f} {max(t):7.3f}"
        if args.against:
            row += f"   {medians[0] / medians[1]:5.2f}"
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
