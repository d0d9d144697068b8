"""Set-up time of one fresh interpreter, run by perfbench/run.py:

    python3 perfbench/setup_probe.py '<workload as JSON>' <seed> <work dir>

Times ``import sarfima`` through the first 1-replication run_mc, or through the
first ``simulate`` verb.  Only the standard library is loaded before the timer
starts, so the time includes loading numpy and scipy.  Then it runs one block
and prints one JSON line: setup_s_wall, peak_rss_mb and speed (HostSpeed).
"""
import json
import sys
import time
from pathlib import Path


def main(argv) -> int:
    w, seed, work = json.loads(argv[0]), int(argv[1]), Path(argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import sarfima
    if w["kind"] == "mc":
        sarfima.run_mc(sarfima.design(w["design"], master_seed=seed, reps=1, n=w["n"], workers=1))
    else:
        from sarfima.cli import dispatch
        rc = dispatch(["simulate", "--spec", str(work / "spec.json"), "--n", str(w["n"]),
                       "--seed", str(seed), "--out", str(work / "setup.csv")])
        if rc != 0:
            raise SystemExit(f"error: simulate verb exited {rc} during set-up")
    wall = time.perf_counter() - t0

    import run
    w["kernel"] = tuple(w["kernel"])
    print(json.dumps({"setup_s_wall": wall, **run.probe_block(run.Workload(**w), seed, work)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
