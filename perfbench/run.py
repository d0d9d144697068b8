#!/usr/bin/env python3
"""Benchmark of the sarfima library and command line.

Run from the repository root; the program is imported from ``src/``:

    python3 perfbench/run.py --workload mc_pure_n1080 --seed 20101125 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
replays the same work through the public functions of each layer, with a span
around every call, and reports the per-layer metrics.  The metric names and
units printed are those listed in ``BENCHMARK.json``.  A human-readable report
goes to stdout first; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans, the run record
and every metric (including those not in ``BENCHMARK.json``) are written to
``perfbench/out/<workload>-seed<seed>-trace<k>.json``.

Exit codes: 0 when every correctness check passed, 1 when one failed (the
result line is still printed), 2 when the program sources are missing.
``--workload all`` runs every workload in turn, each in its own interpreter.
See perfbench/README.md for the workloads, the metrics and the seed policy.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path

BLAS_THREADS = 1   # at most nproc; one thread keeps timings steady on a shared host
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:   # OpenBLAS reads these when numpy loads
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np
import scipy
from scipy.linalg import solve_triangular
from scipy.optimize import minimize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 20101125
#: set-ups timed per run, each in a fresh interpreter
SETUP_PROBES = 3
#: a run stops measuring at this age even if its accuracy set is incomplete
DEADLINE_S = 150.0
#: |mean(ft) - d| allowed beyond 3 standard errors, on designs without a short-memory factor
FT_MEAN_TOL = 0.02
CLI_PERIODS = (4, 12)
CLI_MEMORIES = (0.1, 0.3)
CLI_ALPHAS = (0.35, 0.4, 0.45, 0.5)
CLI_MAX_LAG = 48
LIMITS = ("no hardware counters or system-wide tracing are used: times are wall clock "
          "(time.perf_counter) and memory is the own-process peak (VmHWM)")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "mc": run_mc blocks; "cli": sarfima.cli.dispatch verb chains
    design: str          # canned design of an "mc" workload
    n: int
    block: int           # replications (mc) or series (cli) per timed block
    accuracy_reps: int   # first replications, pooled into rmse_* and the mean checks
    kernel: tuple = ("fit", "roots")   # HostSpeed kernels that slow down as this workload does


WORKLOADS = {w.name: w for w in (
    Workload("mc_pure_n1080", "mc", "table2", 1080, block=32, accuracy_reps=1024),
    Workload("mc_ar_n1080", "mc", "table4", 1080, block=8, accuracy_reps=320),
    Workload("mc_long_n4096", "mc", "table2", 4096, block=8, accuracy_reps=448,
             kernel=("fit", "solve")),
    Workload("cli_workflow_n1080", "cli", "", 1080, block=4, accuracy_reps=320),
)}


def smoke(w: Workload) -> Workload:
    """Small-size variant for the self-test: every code path in a few seconds."""
    return replace(w, n=720, block=2, accuracy_reps=4)


def block_seed(seed: int, index: int) -> int:
    """Master seed of one run_mc block, or the seed of one CLI series."""
    return seed * 1_000_000 + index


# ---------------------------------------------------------------------------
# spans and checks
# ---------------------------------------------------------------------------

class Tracer:
    """Spans kept in memory: (id, parent id, replication id, name, start, end, attrs).

    A span without an explicit replication id inherits its parent's.
    """

    def __init__(self):
        self.spans = []
        self._open = []      # (id, replication id) of the spans not yet closed
        self._next = 0

    @contextmanager
    def span(self, name, rep=None):
        parent, parent_rep = self._open[-1] if self._open else (None, None)
        sid, self._next = self._next, self._next + 1
        rep = parent_rep if rep is None else rep
        attrs = {}
        self._open.append((sid, rep))
        t0 = time.perf_counter()
        try:
            yield attrs
        finally:
            t1 = time.perf_counter()
            self._open.pop()
            self.spans.append((sid, parent, rep, name, t0, t1, attrs))

    def ms(self, name) -> list:
        return [(s[5] - s[4]) * 1e3 for s in self.spans if s[3] == name]

    def attrs(self, name) -> list:
        return [s[6] for s in self.spans if s[3] == name]

    def names(self, prefix) -> set:
        return {s[3] for s in self.spans if s[3].startswith(prefix)}

    def records(self) -> list:
        return [{"id": s[0], "parent": s[1], "rep": s[2], "name": s[3],
                 "start": s[4], "end": s[5], **s[6]} for s in self.spans]


class Checks:
    """Correctness checks; each one counts as an attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return bool(ok)


def mean(values):
    return sum(values) / len(values) if values else math.nan


def percentile(values, q):
    return float(np.percentile(values, q)) if values else math.nan


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def rmse(estimates, truth) -> float:
    est = np.asarray(estimates, dtype=float)
    est = est[~np.isnan(est).any(axis=1)]
    return float(np.sqrt(np.mean((est - np.asarray(truth)) ** 2)))


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def import_sarfima():
    import sarfima
    if SRC.resolve() not in Path(sarfima.__file__).resolve().parents:
        raise SystemExit(f"error: sarfima imported from {sarfima.__file__}, not from {SRC}")
    return sarfima


def cli_spec_file(work: Path) -> Path:
    path = work / "spec.json"
    if not path.exists():
        doc = {"components": [{"period": s, "d": d} for s, d in zip(CLI_PERIODS, CLI_MEMORIES)],
               "ar": [], "ma": [], "sigma2": 1.0}
        path.write_text(json.dumps(doc))
    return path


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.  VmHWM, not getrusage: Linux
    carries ru_maxrss across exec, so a child would inherit its parent's peak."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def probe_block(w: Workload, seed: int, work: Path) -> dict:
    """Second half of perfbench/setup_probe.py, after the timed set-up: run one
    block, take the peak memory (before HostSpeed allocates its matrix), then
    the host speed that scales the set-up time as reps_per_s is scaled."""
    block_runner(w, seed, work, Checks())(0)
    rss = peak_rss_mb()
    host = HostSpeed(w.kernel)
    return {"peak_rss_mb": rss, "speed": statistics.median(host.scale() for _ in range(9))}


def setup_in_child(w: Workload, seed: int, work: Path, born: float) -> dict:
    cmd = [sys.executable, str(HERE / "setup_probe.py"), json.dumps(asdict(w)), str(seed), str(work)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(DEADLINE_S - (time.perf_counter() - born), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class HostSpeed:
    """Fixed kernels outside the program, timed after every block.

    The host's speed drifts by tens of percent over seconds when other tenants
    load it.  Kernels that use the host the way a workload does slow down with
    it, so block time * nominal / kernel time is the block's time on a host
    that runs the kernels in their nominal time.  "fit" is a Nelder-Mead fit of
    a small numpy objective, "roots" many small eigenvalue problems (both
    interpreter-bound, like the Whittle fits and the CLI); "solve" is a
    triangular solve against a 32 MB matrix (memory-bound, like the n = 4096
    sampler).
    """

    #: medians on the 2-vCPU host the benchmark was written on, in seconds
    NOMINAL_S = {"fit": 0.004, "roots": 0.007, "solve": 0.007}

    def __init__(self, parts):
        rng = np.random.default_rng(0)
        self.parts = tuple(parts)
        self.nominal = sum(self.NOMINAL_S[p] for p in self.parts)
        self.logs = rng.standard_normal((2, 512))
        self.ordinates = rng.exponential(size=512)
        if "solve" in self.parts:
            self.lower = np.tril(rng.standard_normal((2048, 2048))) + 64 * np.eye(2048)
            self.rhs = rng.standard_normal(2048)

    def _objective(self, d):
        g = d @ self.logs
        return np.log(np.mean(self.ordinates * np.exp(-g))) + np.mean(g)

    def _run(self, part):
        if part == "fit":
            minimize(self._objective, np.array([0.1, 0.2]), method="Nelder-Mead",
                     options={"xatol": 1e-8, "fatol": 1e-12})
        elif part == "roots":
            for _ in range(200):
                np.roots([1.0, 0.0, 0.0, 0.0, -0.8])
        else:
            solve_triangular(self.lower, self.rhs, lower=True)

    def scale(self) -> float:
        """Nominal time / measured time of the kernels: above 1 on a fast host."""
        t0 = time.perf_counter()
        for part in self.parts:
            self._run(part)
        return self.nominal / (time.perf_counter() - t0)


def measure(w: Workload, run_block, seconds: float, born: float, on_block) -> dict:
    """Run blocks until ``seconds`` have passed and the accuracy set is complete.

    ``run_block(index)`` returns (busy seconds, result) and ``on_block(index,
    result)`` takes the result.  reps_per_s counts replications per nominal
    second (see HostSpeed); the wall-clock rate is reported beside it.
    """
    host = HostSpeed(w.kernel)
    run_block(0)   # warm-up: this process's own set-up, not timed here
    reps, wall, nominal, kernel = 0, 0.0, 0.0, []
    start = time.perf_counter()
    index = 0
    while index * w.block < w.accuracy_reps or time.perf_counter() - start < seconds:
        if time.perf_counter() - born > DEADLINE_S:
            break
        busy, result = run_block(index)
        speed = host.scale()
        reps, wall, nominal = reps + w.block, wall + busy, nominal + busy * speed
        kernel.append((busy, speed))
        on_block(index, result)
        index += 1
    return {"reps_per_s": reps / nominal, "reps_per_s_wall": reps / wall, "reps": reps,
            "blocks": index, "block_times": kernel,
            "host_speed": statistics.median(k for _, k in kernel)}


def block_runner(w: Workload, seed: int, work: Path, checks: "Checks"):
    """``run_block(index)`` for the workload: (busy seconds, result)."""
    if w.kind == "mc":
        from sarfima import run_mc
        base = mc_base(w, seed)

        def run_block(index):
            cfg = mc_block(base, seed, index)
            t0 = time.perf_counter()
            summary = run_mc(cfg)
            return time.perf_counter() - t0, (cfg, summary)
        return run_block

    from sarfima.cli import dispatch
    cli_spec_file(work)

    def run_block(index):
        busy, results = 0.0, []
        for k in range(w.block):
            t0 = time.perf_counter()
            codes = cli_chain(dispatch, w, block_seed(seed, index * w.block + k), work)
            busy += time.perf_counter() - t0
            results.append((codes, cli_outputs(w, work, checks)))
        return busy, results
    return run_block


def run_record(args, w: Workload) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": w.name, "n": w.n, "design": w.design or None,
        "seed": args.seed, "default_seed": DEFAULT_SEED, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "workers": 1,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
        "limits": LIMITS,
    }


# ---------------------------------------------------------------------------
# Monte Carlo workloads: run_mc on a canned design
# ---------------------------------------------------------------------------

def mc_base(w: Workload, seed: int):
    from sarfima import design
    return design(w.design, master_seed=seed, reps=w.block, n=w.n, workers=1)


def mc_block(base, seed: int, index: int):
    """Block ``index`` of the workload; set-up (the quadrature self-check) is not repeated."""
    return replace(base, master_seed=block_seed(seed, index), self_check=False)


def replay_rep(cfg, rep: int, tr: Tracer) -> list:
    """One replication of ``cfg`` through the public layer functions, as run_mc does it."""
    from sarfima import (SarfimaError, SimConfig, build_band_plan, derive_rep_seed,
                         gph_estimate, periodogram, simulate, whittle_estimate)
    out = []
    with tr.span("montecarlo.rep", rep=f"{cfg.master_seed}:{rep}"):
        with tr.span("montecarlo.derive_rep_seed"):
            rep_seed = derive_rep_seed(cfg.master_seed, rep)
        with tr.span("simulate.path"):
            x = simulate(SimConfig(spec=cfg.spec, n=cfg.n, seed=rep_seed, method=cfg.method,
                                   grid_exponent=cfg.grid_exponent))
        with tr.span("spectrum.periodogram"):
            pg = periodogram(x)
        for e in cfg.estimators:
            value = None
            try:
                if e.kind == "gph_multi":
                    s1, s2 = cfg.spec.periods
                    with tr.span("spectrum.band_plan"):
                        plan = build_band_plan(cfg.n, s1, s2, e.bandwidth(cfg.n, max(s1, s2)),
                                               allow_overlap=e.allow_overlap)
                    with tr.span("estimators.gph"):
                        value = gph_estimate(pg, plan, s1, s2).d_hat
                elif e.kind == "whittle":
                    with tr.span(f"estimators.whittle.{e.name}") as attrs:
                        fit = whittle_estimate(x, e.template)
                    attrs.update(iterations=int(fit.iterations), converged=bool(fit.converged))
                    value = fit.d_hat if fit.converged else None
                else:
                    raise ValueError(f"replay does not cover estimator kind {e.kind!r}")
            except SarfimaError:
                value = None
            out.append(np.full(e.dimension(cfg.spec), np.nan) if value is None else value)
    return out


def replay_matches(cfg, summary, rep: int, tr: Tracer) -> bool:
    """Whether replaying replication ``rep`` reproduces run_mc's estimates bitwise."""
    got = replay_rep(cfg, rep, tr)
    return all(same_bits(g, r.estimates[rep]) for g, r in zip(got, summary.results))


def mean_near(est, truth, slack: float) -> bool:
    """|column mean - truth| <= slack + 3 standard errors of the mean, per column."""
    est = np.asarray(est, dtype=float)
    est = est[~np.isnan(est).any(axis=1)]
    se = est.std(axis=0) / math.sqrt(max(len(est), 1))
    return len(est) > 1 and bool(np.all(np.abs(est.mean(axis=0) - truth) <= slack + 3 * se))


def mc_accuracy_checks(cfg, pooled: dict, checks: Checks):
    truth = np.array(cfg.spec.memories)
    for name, est in pooled.items():
        ok_rows = ~np.isnan(est).any(axis=1)
        checks.check(np.all(np.isfinite(est[ok_rows])) and np.all(np.isnan(est[~ok_rows])),
                     f"{name}: estimates are neither finite nor a whole failed row")
    ft = np.nanmean(pooled["ft"], axis=0)
    if cfg.spec.ar_factors:
        # the repository's acceptance criterion 3: the template without the AR
        # factor pushes the seasonal memory out of the stationary region
        mis = np.nanmean(pooled["ft_misspec"], axis=0)
        checks.check(mis[1] > 0.8 and mean_near(pooled["ft_misspec"][:, :1], truth[:1], 0.05),
                     f"ft_misspec means {mis} lack the misspecification direction")
        checks.check(mean_near(pooled["ft"][:, :1], truth[:1], FT_MEAN_TOL) and ft[1] < mis[1],
                     f"ft means {ft} against truth {truth} and ft_misspec {mis}")
    else:
        checks.check(mean_near(pooled["ft"], truth, FT_MEAN_TOL),
                     f"ft means {ft} differ from truth {truth} by more than {FT_MEAN_TOL} + 3 se")


def mc_untraced(w: Workload, seed: int, seconds: float, checks: Checks, work: Path,
                born: float) -> dict:
    base = mc_base(w, seed)
    pooled = {e.name: [] for e in base.estimators}
    ops = {"attempted": 0, "failed": 0}

    def on_block(index, result):
        cfg, summary = result
        ops["attempted"] += cfg.reps * len(cfg.estimators)
        ops["failed"] += sum(r.failure_count for r in summary.results)
        if index * w.block < w.accuracy_reps:
            for r in summary.results:
                pooled[r.name].append(r.estimates)
        if index == 0:
            ops["first"] = result

    res = measure(w, block_runner(w, seed, work, checks), seconds, born, on_block)
    res.update(attempted=ops["attempted"], failed=ops["failed"])
    done = sum(len(v) for v in pooled["ft"])
    if not checks.check(done >= w.accuracy_reps,
                        f"accuracy set incomplete: {done} of {w.accuracy_reps} replications"):
        return res
    pooled = {k: np.concatenate(v)[: w.accuracy_reps] for k, v in pooled.items()}
    mc_accuracy_checks(base, pooled, checks)
    cfg, summary = ops["first"]
    for rep in range(min(cfg.reps, 2)):
        checks.check(replay_matches(cfg, summary, rep, Tracer()),
                     f"replay of replication {rep} differs from run_mc")
    truth = base.spec.memories
    res.update(rmse_ft=rmse(pooled["ft"], truth), rmse_gph=rmse(pooled["gph_n05"], truth))
    return res


def simulate_probes(spec, n: int, grid_exponent: int, tr: Tracer):
    """Quadrature, self-check and Durbin-Levinson costs of one spec; call first in
    the process so the first acvf call builds the Gauss-Jacobi rules."""
    from sarfima import acvf_numeric, acvf_self_check, durbin_levinson_decompose
    with tr.span("simulate.acvf_cold"):
        gamma = acvf_numeric(spec, n - 1, grid_exponent)
    for _ in range(3):
        with tr.span("simulate.acvf_warm"):
            acvf_numeric(spec, n - 1, grid_exponent)
    with tr.span("simulate.self_check") as attrs:
        attrs["shift"] = acvf_self_check(spec, grid_exponent)
    with tr.span("simulate.dl_table") as attrs:
        _, sigma = durbin_levinson_decompose(gamma)
    attrs["min_sigma"] = float(sigma.min())


def mc_traced(w: Workload, seed: int, seconds: float, checks: Checks, tr: Tracer, born: float) -> dict:
    from sarfima import run_mc
    base = mc_base(w, seed)
    simulate_probes(base.spec, base.n, base.grid_exponent, tr)
    run_mc(replace(base, reps=1, self_check=False))  # builds the cached Durbin-Levinson table
    start = time.perf_counter()
    index, reps, failed = 0, 0, 0
    while index == 0 or (time.perf_counter() - start < seconds
                         and time.perf_counter() - born < DEADLINE_S):
        cfg = mc_block(base, seed, index)
        with tr.span("untraced.block", rep=f"block{index}"):
            summary = run_mc(cfg)
        with tr.span("traced.block", rep=f"block{index}"):
            matches = [replay_matches(cfg, summary, rep, tr) for rep in range(cfg.reps)]
        for rep, ok in enumerate(matches):
            checks.check(ok, f"replay of block {index} replication {rep} differs from run_mc")
        reps += cfg.reps
        failed += sum(r.failure_count for r in summary.results)
        index += 1
    return {"reps": reps, "attempted": reps * len(base.estimators), "failed": failed}


# ---------------------------------------------------------------------------
# CLI workflow: simulate -> periodogram -> estimate-gph -> scan -> filter -> acf
# -> estimate-whittle, through sarfima.cli.dispatch in this process
# ---------------------------------------------------------------------------

CLI_VERBS = ("simulate", "periodogram", "estimate-gph", "scan", "filter", "acf", "estimate-whittle")


def read_column(path: Path, column: int = 0) -> list:
    """One CSV column as floats (blank cells become nan); the header is skipped."""
    lines = path.read_text().split("\n")[1:]
    return [float(cells[column]) if cells[column] else math.nan
            for cells in (ln.split(",") for ln in lines if ln)]


def cli_chain(dispatch, w: Workload, series_seed: int, work: Path, tr: Tracer = None) -> dict:
    """Run the verb chain on one series; returns verb -> exit code."""
    f = lambda name: str(work / name)
    periods = ",".join(map(str, CLI_PERIODS))
    argvs = {
        "simulate": ["--spec", f("spec.json"), "--n", str(w.n), "--seed", str(series_seed),
                     "--out", f("x.csv")],
        "periodogram": ["--in", f("x.csv"), "--out", f("pg.csv")],
        "estimate-gph": ["--in", f("x.csv"), "--s1", str(CLI_PERIODS[0]), "--s2", str(CLI_PERIODS[1]),
                         "--alpha", "0.5", "--out", f("gph.json")],
        "scan": ["--in", f("x.csv"), "--s1", str(CLI_PERIODS[0]), "--s2", str(CLI_PERIODS[1]),
                 "--alphas", ",".join(map(str, CLI_ALPHAS)), "--out", f("scan.csv")],
        "filter": None,
        "acf": ["--in", f("resid.csv"), "--max-lag", str(CLI_MAX_LAG), "--out", f("acf.csv")],
        "estimate-whittle": ["--in", f("x.csv"), "--periods", periods, "--out", f("whittle.json")],
    }
    codes = {}
    for verb in CLI_VERBS:
        argv = argvs[verb]
        if verb == "filter":
            try:
                d_hat = json.loads((work / "gph.json").read_text())["d_hat"]
            except (OSError, ValueError, KeyError):
                d_hat = []   # the verb then fails with a coded error, and is counted
            argv = ["--in", f("x.csv"), "--d=" + ",".join(map(repr, d_hat)),
                    "--periods", periods, "--out", f("resid.csv")]
        if tr is None:
            codes[verb] = dispatch([verb] + argv)
        else:
            with tr.span(f"cli.{verb}"):
                codes[verb] = dispatch([verb] + argv)
    return codes


def cli_outputs(w: Workload, work: Path, checks: Checks) -> dict:
    """Parse every output of one chain; each parse is a check."""
    out = {}

    def parse(name, reader, expect):
        try:
            value = reader(work / name)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            checks.check(False, f"{name} does not parse: {exc}")
            return None
        checks.check(expect(value), f"{name} parsed to an unexpected value")
        return value

    finite = lambda k: (lambda v: len(v) == k and bool(np.all(np.isfinite(v))))
    out["x"] = parse("x.csv", read_column, finite(w.n))
    out["pg"] = parse("pg.csv", lambda p: read_column(p, 2), finite(w.n - 1))
    gph = parse("gph.json", lambda p: json.loads(p.read_text()),
                lambda v: finite(2)(v["d_hat"]) and v["m"] == int(w.n ** 0.5))
    scan = parse("scan.csv", lambda p: (read_column(p, 2), read_column(p, 3)),
                 lambda v: len(v[0]) == len(CLI_ALPHAS))
    out["resid"] = parse("resid.csv", read_column, finite(w.n))
    out["acf"] = parse("acf.csv", lambda p: (read_column(p, 1), read_column(p, 2)),
                       lambda v: finite(CLI_MAX_LAG)(v[0]) and finite(CLI_MAX_LAG)(v[1]))
    whittle = parse("whittle.json", lambda p: json.loads(p.read_text()),
                    lambda v: v["converged"] is True and finite(2)(v["d_hat"]))
    out["gph"] = gph["d_hat"] if gph else [math.nan] * 2
    out["scan"] = scan
    out["ft"] = whittle["d_hat"] if whittle else [math.nan] * 2
    out["ft_iterations"] = whittle["iterations"] if whittle else 0
    return out


def cli_untraced(w: Workload, seed: int, seconds: float, checks: Checks, work: Path,
                 born: float) -> dict:
    gph, ft = [], []
    ops = {"attempted": 0, "failed": 0}

    def on_block(index, results):
        for k, (codes, out) in enumerate(results):
            ops["attempted"] += len(codes)
            ops["failed"] += sum(rc != 0 for rc in codes.values())
            if index * w.block + k < w.accuracy_reps:
                gph.append(out["gph"])
                ft.append(out["ft"])

    res = measure(w, block_runner(w, seed, work, checks), seconds, born, on_block)
    res.update(ops)
    if not checks.check(len(ft) >= w.accuracy_reps,
                        f"accuracy set incomplete: {len(ft)} of {w.accuracy_reps} series"):
        return res
    truth = np.array(CLI_MEMORIES)
    checks.check(mean_near(ft, truth, FT_MEAN_TOL),
                 f"estimate-whittle means {np.nanmean(np.array(ft), axis=0)} differ from truth "
                 f"{truth} by more than {FT_MEAN_TOL} + 3 se")
    res.update(rmse_ft=rmse(ft, truth), rmse_gph=rmse(gph, truth))
    return res


def cli_replay(w: Workload, series_seed: int, out: dict, tr: Tracer, checks: Checks):
    """The library calls behind each verb, on the files the verbs read; each
    result must equal what the verb wrote."""
    from sarfima import (SarfimaSpec, SeasonalComponent, SimConfig, WhittleTemplate,
                         bandwidth_scan, build_band_plan, combined_filter_coefficients,
                         fractional_filter, gph_estimate, periodogram, sample_acf_pacf,
                         simulate, whittle_estimate)
    spec = SarfimaSpec(components=tuple(SeasonalComponent(s, d)
                                        for s, d in zip(CLI_PERIODS, CLI_MEMORIES)))
    if any(out[k] is None for k in ("x", "pg", "scan", "resid", "acf")):
        return   # the failed parse is already a failed check
    x = np.array(out["x"])
    s1, s2 = CLI_PERIODS
    with tr.span("cli.replay", rep=f"series{series_seed}"):
        with tr.span("lib.simulate"), tr.span("simulate.path"):
            path = simulate(SimConfig(spec=spec, n=w.n, seed=series_seed))
        checks.check(same_bits(path, x), "simulate verb output differs from simulate()")
        with tr.span("lib.periodogram"), tr.span("spectrum.periodogram"):
            pg = periodogram(x)
        checks.check(same_bits(pg.ordinates, out["pg"]), "periodogram verb output differs")
        with tr.span("lib.estimate-gph"):
            with tr.span("spectrum.periodogram"):
                pg = periodogram(x)
            with tr.span("spectrum.band_plan"):
                plan = build_band_plan(w.n, s1, s2, int(w.n ** 0.5))
            with tr.span("estimators.gph"):
                est = gph_estimate(pg, plan, s1, s2)
        checks.check(same_bits(est.d_hat, out["gph"]), "estimate-gph verb output differs")
        with tr.span("lib.scan"), tr.span("pipeline.scan"):
            scan = bandwidth_scan(x, s1, s2, CLI_ALPHAS)
        d_scan = [r.estimate.d_hat if r.estimate is not None else (math.nan, math.nan)
                  for r in scan.rows]
        checks.check(out["scan"] is not None and same_bits(np.array(d_scan).T, out["scan"]),
                     "scan verb output differs")
        with tr.span("lib.filter"), tr.span("pipeline.filter"):
            resid = fractional_filter(x, out["gph"], CLI_PERIODS)
        checks.check(same_bits(resid, out["resid"]), "filter verb output differs")
        # nested inside fractional_filter; timed apart and left out of the library sum
        with tr.span("model.filter_coeffs"):
            combined_filter_coefficients(SarfimaSpec(components=tuple(
                SeasonalComponent(s, float(d)) for s, d in zip(CLI_PERIODS, out["gph"]))), w.n - 1)
        with tr.span("lib.acf"), tr.span("pipeline.acf"):
            acf = sample_acf_pacf(np.array(out["resid"]), CLI_MAX_LAG)
        checks.check(same_bits([acf.acf, acf.pacf], out["acf"]), "acf verb output differs")
        with tr.span("lib.estimate-whittle"), tr.span("estimators.whittle.ft") as attrs:
            fit = whittle_estimate(x, WhittleTemplate.pure(CLI_PERIODS))
        attrs.update(iterations=int(fit.iterations), converged=bool(fit.converged))
        checks.check(same_bits(fit.d_hat, out["ft"]) and fit.iterations == out["ft_iterations"],
                     "estimate-whittle verb output differs")


def cli_traced(w: Workload, seed: int, seconds: float, checks: Checks, work: Path,
               tr: Tracer, born: float) -> dict:
    from sarfima import SarfimaSpec, SeasonalComponent, SimConfig
    from sarfima.cli import dispatch
    spec = SarfimaSpec(components=tuple(SeasonalComponent(s, d)
                                        for s, d in zip(CLI_PERIODS, CLI_MEMORIES)))
    simulate_probes(spec, w.n, SimConfig(spec=spec, n=w.n, seed=0).grid_exponent, tr)
    cli_spec_file(work)
    cli_chain(dispatch, w, block_seed(seed, 0), work)   # builds the cached tables
    start = time.perf_counter()
    index, attempted, failed = 0, 0, 0
    while index == 0 or (time.perf_counter() - start < seconds
                         and time.perf_counter() - born < DEADLINE_S):
        series_seed = block_seed(seed, index)
        with tr.span("untraced.block", rep=f"series{series_seed}"):
            cli_chain(dispatch, w, series_seed, work)
        with tr.span("traced.block", rep=f"series{series_seed}"):
            codes = cli_chain(dispatch, w, series_seed, work, tr)
        attempted += len(codes)
        failed += sum(rc != 0 for rc in codes.values())
        cli_replay(w, series_seed, cli_outputs(w, work, checks), tr, checks)
        index += 1
    return {"reps": index, "attempted": attempted, "failed": failed}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def layer_metrics(w: Workload, tr: Tracer, reps: int) -> dict:
    """Every per-layer metric of a traced run, as name -> (value, unit)."""
    m = {}
    cold, warm = tr.ms("simulate.acvf_cold")[0], statistics.median(tr.ms("simulate.acvf_warm"))
    m["simulate.acvf_cold_ms"] = (cold, "ms")
    m["simulate.acvf_warm_ms"] = (warm, "ms")
    m["simulate.jacobi_rule_ms"] = (cold - warm, "ms")
    m["simulate.self_check_ms"] = (tr.ms("simulate.self_check")[0], "ms")
    m["simulate.self_check_shift"] = (tr.attrs("simulate.self_check")[0]["shift"], "acvf")
    m["simulate.dl_table_ms"] = (tr.ms("simulate.dl_table")[0], "ms")
    m["simulate.dl_min_sigma"] = (tr.attrs("simulate.dl_table")[0]["min_sigma"], "sd")
    m["simulate.dl_bytes"] = (float(w.n * w.n * 8), "B_computed")
    paths = tr.ms("simulate.path")
    m["simulate.path_ms.p50"] = (percentile(paths, 50), "ms")
    m["simulate.path_ms.p90"] = (percentile(paths, 90), "ms")
    m["spectrum.periodogram_ms"] = (mean(tr.ms("spectrum.periodogram")), "ms")
    m["spectrum.band_plan_ms"] = (mean(tr.ms("spectrum.band_plan")), "ms")
    m["estimators.gph_ms"] = (mean(tr.ms("estimators.gph")), "ms")
    whittle_total, nonconverged = 0.0, 0
    for name in sorted(tr.names("estimators.whittle.")):
        est = name.rsplit(".", 1)[1]
        times = tr.ms(name)
        iters = [a["iterations"] for a in tr.attrs(name) if "iterations" in a]
        m[f"estimators.whittle_ms.{est}.p50"] = (percentile(times, 50), "ms")
        m[f"estimators.whittle_ms.{est}.p90"] = (percentile(times, 90), "ms")
        m[f"estimators.whittle_iters.{est}.p50"] = (percentile(iters, 50), "count")
        m[f"estimators.whittle_iters.{est}.max"] = (float(max(iters, default=0)), "count")
        whittle_total += sum(times)
        nonconverged += sum(not a.get("converged", False) for a in tr.attrs(name))
    m["estimators.whittle_ms_per_rep"] = (whittle_total / reps, "ms")
    m["estimators.whittle_nonconverged"] = (float(nonconverged), "count")
    # means, not medians: the Whittle times are heavy-tailed
    library = ("montecarlo.derive_rep_seed", "simulate.path", "spectrum.", "estimators.", "pipeline.")
    library_ms = sum((s[5] - s[4]) * 1e3 for s in tr.spans if s[3].startswith(library))
    untraced_ms, traced_ms = sum(tr.ms("untraced.block")), sum(tr.ms("traced.block"))
    m["self_ms_per_rep"] = ((untraced_ms - library_ms) / reps, "ms")
    m["trace.overhead"] = (traced_ms / untraced_ms, "ratio")
    if w.kind == "mc":
        m["montecarlo.self_ms_per_rep"] = m["self_ms_per_rep"]
    else:
        for stage in ("pipeline.scan", "pipeline.filter", "pipeline.acf", "model.filter_coeffs"):
            m[f"{stage}_ms"] = (mean(tr.ms(stage)), "ms")
        io_total = 0.0
        for verb in CLI_VERBS:
            verb_ms = mean(tr.ms(f"cli.{verb}"))
            m[f"cli.{verb}_ms"] = (verb_ms, "ms")
            io_total += verb_ms - mean(tr.ms(f"lib.{verb}"))
        m["cli.io_ms"] = (io_total, "ms")
    m["samples.reps"] = (float(reps), "count")
    return m


def declared(kind: str) -> list:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def run(args, work: Path, born: float) -> int:
    w = WORKLOADS[args.workload]
    if args.smoke:
        w = smoke(w)
    checks = Checks()
    import_sarfima()
    if args.trace:
        tr = Tracer()
        if w.kind == "mc":
            res = mc_traced(w, args.seed, args.seconds, checks, tr, born)
        else:
            res = cli_traced(w, args.seed, args.seconds, checks, work, tr, born)
        everything = layer_metrics(w, tr, res["reps"])
        wanted = declared("per_layer")
    else:
        if w.kind == "cli":
            cli_spec_file(work)
        probes = [setup_in_child(w, args.seed, work, born)
                  for _ in range(1 if args.smoke else SETUP_PROBES)]
        tr = None
        untraced = mc_untraced if w.kind == "mc" else cli_untraced
        res = untraced(w, args.seed, args.seconds, checks, work, born)
        fail_frac = res["failed"] / max(res["attempted"], 1)
        everything = {
            "setup_s": (statistics.median(p["setup_s_wall"] * p["speed"] for p in probes), "s"),
            "reps_per_s": (res["reps_per_s"], "1/s"),
            "reps_per_s_wall": (res["reps_per_s_wall"], "1/s"),
            "host_speed": (res["host_speed"], "ratio"),
            "fail_frac": (fail_frac, "fraction"),
            "ok_frac": (1 - fail_frac, "fraction"),
            "rmse_ft": (res.get("rmse_ft", math.nan), "d"),
            "rmse_gph": (res.get("rmse_gph", math.nan), "d"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in probes), "MB"),
            "samples.reps": (float(res["reps"]), "count"),
            "samples.blocks": (float(res["blocks"]), "count"),
            "setup_s_wall": (statistics.median(p["setup_s_wall"] for p in probes), "s"),
        }
        wanted = declared("end_to_end")

    record = run_record(args, w)
    print(f"# {w.name} seed={args.seed} trace={args.trace} n={w.n} "
          f"python={record['python']} numpy={record['numpy']} scipy={record['scipy']} "
          f"blas={record['blas']} threads={BLAS_THREADS} nproc={record['nproc']} workers=1")
    print(f"# {LIMITS}")
    for name, (value, unit) in everything.items():
        print(f"{name:42s} {value:16.6g} {unit}")
    for msg in checks.messages:
        print(f"CHECK FAILED: {msg}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "record": record, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in everything.items()},
        "checks": {"attempted": checks.attempted, "failed": checks.failed, "messages": checks.messages},
        "spans": tr.records() if tr else [],
        "block_times": res.get("block_times", []),
    }))
    correct = checks.failed == 0
    result = {
        "correct": correct,
        "attempted": res.get("attempted", 0) + checks.attempted,
        "failed": res.get("failed", 0) + checks.failed,
        "metrics": {m["name"]: {"value": everything[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []), cwd=ROOT,
                              capture_output=True, text=True, timeout=300)
        print(f"== {name} (exit {proc.returncode})")
        print(proc.stdout.rstrip() or proc.stderr.rstrip())
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    born = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small sizes, for the self-test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "sarfima" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, work, born)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
