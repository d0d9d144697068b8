"""Command-line front end.

Verbs: simulate, periodogram, estimate-gph, estimate-whittle, filter, scan,
acf, mc.  Exit codes: 0 success, 1 validation error (one machine-parseable
line ``error: <code>: <message>`` on stderr), 2 numeric failure such as
optimizer non-convergence.  Every randomized verb requires an explicit
--seed.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .errors import NumericError, SarfimaError, ValidationError
from .model import spec_from_json, spec_to_json
from .spectrum import build_band_plan, periodogram, resolve_bandwidth, write_csv
from .estimators import (WhittleTemplate, estimate_to_json, gph_estimate,
                         whittle_estimate, whittle_fit_to_json)
from .simulate import SimConfig, simulate
from .pipeline import acf_to_csv, bandwidth_scan, fractional_filter, sample_acf_pacf, scan_to_csv
from .montecarlo import DESIGN_NAMES, design, estimates_to_csv, run_mc, summary_to_csv

__all__ = ["main", "dispatch"]


class _CliArgError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports validation failures on our exit-code contract."""

    def error(self, message):
        raise _CliArgError(message)


def _read_series(path) -> np.ndarray:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 2:
        raise ValidationError("malformed-csv", f"{path}: need a header line and at least one value")
    if any("," in ln for ln in lines):
        raise ValidationError("malformed-csv", f"{path}: need one column, found a line with several cells")
    try:
        float(lines[0])
        raise ValidationError("malformed-csv", f"{path}: first line must be a header, not data")
    except ValueError:
        pass
    try:
        x = np.array([float(ln) for ln in lines[1:]])
    except ValueError as exc:
        raise ValidationError("malformed-csv", f"{path}: non-numeric value ({exc})") from exc
    if not np.isfinite(x).all():
        raise ValidationError("non-finite-input", f"{path}: series contains NaN or infinite values")
    return x


def _write_series(path, x):
    write_csv(path, ("x",), zip(np.asarray(x, dtype=float).tolist()))


def _load_spec(path):
    with open(path) as fh:
        return spec_from_json(fh.read())


def _comma_list(text, flag, kind):
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError("bad-arguments", f"{flag} must be a comma list of "
                              f"{'integers' if kind is int else 'numbers'}") from exc


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> _Parser:
    p = _Parser(prog="sarfima", description=__doc__)
    sub = p.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("simulate", help="draw one sample path")
    sp.add_argument("--spec", required=True, help="model spec JSON file")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--method", choices=["exact_dl", "circulant"], default="exact_dl")
    sp.add_argument("--grid-exponent", type=int, default=None)
    sp.add_argument("--out", required=True)

    pp = sub.add_parser("periodogram", help="periodogram ordinates to CSV")
    pp.add_argument("--in", dest="infile", required=True)
    pp.add_argument("--no-subtract-mean", action="store_true")
    pp.add_argument("--out", required=True)

    ge = sub.add_parser("estimate-gph", help="band log-periodogram regression")
    ge.add_argument("--in", dest="infile", required=True)
    ge.add_argument("--s1", type=int, required=True)
    ge.add_argument("--s2", type=int, default=None,
                    help="second period; omit for the single-parameter estimator")
    ge.add_argument("--alpha", type=float, default=None, help="bandwidth m = floor(n^alpha)")
    ge.add_argument("--m", type=int, default=None, help="fixed bandwidth")
    ge.add_argument("--gph-T", action="store_true", help="capped truncated bandwidth")
    ge.add_argument("--uncapped", action="store_true",
                    help="with --gph-T: allow overlapping bands (uncapped)")
    ge.add_argument("--out", default=None)

    we = sub.add_parser("estimate-whittle", help="Fox-Taqqu parametric fit")
    we.add_argument("--in", dest="infile", required=True)
    we.add_argument("--template", default=None, help="template JSON file")
    we.add_argument("--periods", default=None, help="comma list; shorthand for a pure fractional template")
    we.add_argument("--box", type=float, default=0.49, help="memory box for --periods templates")
    we.add_argument("--out", default=None)

    fl = sub.add_parser("filter", help="remove estimated memory from a series")
    fl.add_argument("--in", dest="infile", required=True)
    fl.add_argument("--d", required=True, help="comma list of memories")
    fl.add_argument("--periods", required=True, help="comma list of periods")
    fl.add_argument("--out", required=True)

    sc = sub.add_parser("scan", help="estimates across bandwidths m = n^alpha")
    sc.add_argument("--in", dest="infile", required=True)
    sc.add_argument("--s1", type=int, required=True)
    sc.add_argument("--s2", type=int, required=True)
    sc.add_argument("--alphas", required=True, help="comma list, strictly increasing, in (0,1)")
    sc.add_argument("--out", required=True)

    ac = sub.add_parser("acf", help="sample ACF/PACF with confidence band")
    ac.add_argument("--in", dest="infile", required=True)
    ac.add_argument("--max-lag", type=int, required=True)
    ac.add_argument("--out", required=True)

    mc = sub.add_parser("mc", help="replication study for a canned design")
    mc.add_argument("--design", required=True, choices=list(DESIGN_NAMES))
    mc.add_argument("--seed", type=int, required=True)
    mc.add_argument("--reps", type=int, default=2000)
    mc.add_argument("--n", type=int, default=1080)
    mc.add_argument("--threads", type=int, default=None,
                    help="worker processes (default: SARFIMA_THREADS or 1)")
    mc.add_argument("--out", required=True)
    mc.add_argument("--dump-estimates", default=None)
    return p


# ---------------------------------------------------------------------------
# verb implementations
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    spec = _load_spec(args.spec)
    cfg = SimConfig(spec=spec, n=args.n, seed=args.seed, method=args.method,
                    grid_exponent=args.grid_exponent)
    _write_series(args.out, simulate(cfg))
    # the sidecar is the config, with the spec as its JSON document
    meta = dict(dataclasses.asdict(cfg), spec=json.loads(spec_to_json(spec)))
    _emit(json.dumps(meta, indent=2) + "\n", args.out + ".meta.json")
    return 0


def _cmd_periodogram(args) -> int:
    x = _read_series(args.infile)
    pg = periodogram(x, subtract_mean=not args.no_subtract_mean)
    pg.to_csv(args.out)
    return 0


def _cmd_estimate_gph(args) -> int:
    x = _read_series(args.infile)
    n = len(x)
    picks = sum([args.alpha is not None, args.m is not None, args.gph_T])
    if picks != 1:
        raise ValidationError("bad-arguments", "pick exactly one of --alpha, --m, --gph-T")
    if args.uncapped and not args.gph_T:
        raise ValidationError("bad-arguments", "--uncapped applies only with --gph-T")
    s2 = args.s1 if args.s2 is None else args.s2   # one period: the single-parameter fit
    m = resolve_bandwidth(n, max(args.s1, s2), alpha=args.alpha,
                          m=args.m, gph_T=args.gph_T, uncapped=args.uncapped)
    pg = periodogram(x)
    plan = build_band_plan(n, args.s1, s2, m, allow_overlap=args.uncapped)
    _emit(estimate_to_json(gph_estimate(pg, plan, args.s1, s2)) + "\n", args.out)
    return 0


def _load_template(path) -> WhittleTemplate:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError("bad-json", f"template is not valid JSON: {exc}") from exc
    try:
        spec = spec_from_json(json.dumps(doc["spec"]))
        d_box = doc.get("d_box", 0.49)
        if type(d_box) not in (int, float):   # true and "0.3" are not JSON numbers
            raise ValidationError("bad-template", f"d_box must be a JSON number, got {d_box!r}")
        return WhittleTemplate(
            spec=spec,
            free_d=tuple(doc["free_d"]) if "free_d" in doc else None,
            free_ar=tuple(doc["free_ar"]) if "free_ar" in doc else None,
            free_ma=tuple(doc["free_ma"]) if "free_ma" in doc else None,
            d_box=float(d_box))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError("bad-template", f"malformed template document: {exc}") from exc


def _cmd_estimate_whittle(args) -> int:
    x = _read_series(args.infile)
    if (args.template is None) == (args.periods is None):
        raise ValidationError("bad-arguments", "pass exactly one of --template, --periods")
    if args.template:
        template = _load_template(args.template)
    else:
        template = WhittleTemplate.pure(_comma_list(args.periods, "--periods", int), d_box=args.box)
    fit = whittle_estimate(x, template)
    _emit(whittle_fit_to_json(fit) + "\n", args.out)
    if not fit.converged:
        raise NumericError("non-convergence",
                           f"optimizer did not converge after {fit.iterations} iterations")
    return 0


def _cmd_filter(args) -> int:
    x = _read_series(args.infile)
    residuals = fractional_filter(x, _comma_list(args.d, "--d", float),
                                  _comma_list(args.periods, "--periods", int))
    _write_series(args.out, residuals)
    return 0


def _cmd_scan(args) -> int:
    x = _read_series(args.infile)
    scan = bandwidth_scan(x, args.s1, args.s2, _comma_list(args.alphas, "--alphas", float))
    scan_to_csv(scan, args.out)
    if all(r.estimate is None for r in scan.rows):
        raise ValidationError(scan.rows[0].error, "no bandwidth gave an estimate: " +
                              ", ".join(f"alpha {r.alpha} {r.error}" for r in scan.rows))
    return 0


def _cmd_acf(args) -> int:
    x = _read_series(args.infile)
    acf_to_csv(sample_acf_pacf(x, args.max_lag), args.out)
    return 0


def _cmd_mc(args) -> int:
    config = design(args.design, master_seed=args.seed, reps=args.reps, n=args.n,
                    workers=args.threads)
    summary = run_mc(config)
    summary_to_csv(summary, args.out)
    if args.dump_estimates:
        estimates_to_csv(summary, args.dump_estimates)
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "periodogram": _cmd_periodogram,
    "estimate-gph": _cmd_estimate_gph,
    "estimate-whittle": _cmd_estimate_whittle,
    "filter": _cmd_filter,
    "scan": _cmd_scan,
    "acf": _cmd_acf,
    "mc": _cmd_mc,
}


def dispatch(argv) -> int:
    """Parse and run; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.verb](args)
    except _CliArgError as exc:
        print(f"error: bad-arguments: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:   # a file that cannot be read or written
        print(f"error: io-error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"error: {exc.code}: {exc.message}", file=sys.stderr)
        return 2
    except SarfimaError as exc:
        print(f"error: {exc.code}: {exc.message}", file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
