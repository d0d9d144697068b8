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
import functools
import json
import sys

import numpy as np

from .errors import NumericError, SarfimaError, ValidationError
from .model import spec_from_json, spec_to_json, _json_document, _json_object, _spec_from_doc
from .spectrum import build_band_plan, periodogram, resolve_bandwidth, write_csv
from .estimators import (WhittleTemplate, estimate_to_json, gph_estimate,
                         whittle_estimate, whittle_fit_to_json)
from .simulate import DEFAULT_METHOD, SimConfig, simulate, _SAMPLERS
from .pipeline import acf_to_csv, bandwidth_scan, fractional_filter, sample_acf_pacf, scan_to_csv
from .montecarlo import DESIGN_NAMES, design, estimates_to_csv, run_mc, summary_to_csv

__all__ = ["main", "dispatch"]


class _CliArgError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports validation failures on our exit-code contract."""

    def error(self, message):
        raise _CliArgError(message)


def _read_text(path, code) -> str:
    """The whole file, decoded as UTF-8; undecodable bytes end in ``code``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(code, f"{path}: not UTF-8 text ({exc})") from exc


#: parsed series by file text, least recently used first: a process that runs
#: many verbs on one file parses it once.  Only texts that parse are stored,
#: and none longer than 2^20 characters (at most 2^19 values), so the four
#: entries stay under 40 MB.
_SERIES_MEMO = {}
_SERIES_MEMO_SIZE = 4
_SERIES_MEMO_MAX_CHARS = 1 << 20


def _read_series(path) -> np.ndarray:
    """The one-column series in ``path``, as a new array the caller may change."""
    text = _read_text(path, "malformed-csv")
    x = _SERIES_MEMO.pop(text, None)
    if x is None:
        x = _parse_series(path, text)
    _remember(text, x)
    return x.copy()


def _remember(text, x):
    if len(text) > _SERIES_MEMO_MAX_CHARS:
        return
    x.setflags(write=False)
    _SERIES_MEMO[text] = x
    while len(_SERIES_MEMO) > _SERIES_MEMO_SIZE:
        del _SERIES_MEMO[next(iter(_SERIES_MEMO))]


def _parse_series(path, text) -> np.ndarray:
    lines = [ln for ln in map(str.strip, text.split("\n")) if ln]
    if len(lines) < 2:
        raise ValidationError("malformed-csv", f"{path}: need a header line and at least one value")
    if "," in text:
        raise ValidationError("malformed-csv", f"{path}: need one column, found a line with several cells")
    try:
        float(lines[0])
        raise ValidationError("malformed-csv", f"{path}: first line must be a header, not data")
    except ValueError:
        pass
    # float() also reads digit-group underscores and non-ASCII digits ("1_000", "\u0663");
    # the header is free text, so a hit in the whole text is checked line by line
    if ("_" in text or not text.isascii()) and any("_" in ln or not ln.isascii() for ln in lines[1:]):
        raise ValidationError("malformed-csv", f"{path}: values must be plain ASCII numbers, "
                              "without '_' digit groups or non-ASCII digits")
    try:
        x = np.array(list(map(float, lines[1:])))
    except ValueError as exc:
        raise ValidationError("malformed-csv", f"{path}: non-numeric value ({exc})") from exc
    if not np.isfinite(x).all():
        raise ValidationError("non-finite-input", f"{path}: series contains NaN or infinite values")
    return x


def _write_series(path, x):
    """Write the series; a finite one is remembered under the text written,
    which reads back to the same bits (float(repr(v)) == v for finite v)."""
    x = np.array(x, dtype=float)
    text = write_csv(path, ("x",), columns=(x.tolist(),))
    if x.ndim == 1 and x.size and np.isfinite(x).all():
        _remember(text, x)


def _load_spec(path):
    return spec_from_json(_read_text(path, "bad-json"))


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


@functools.cache
def build_parser() -> _Parser:
    """The parser of every verb, built on the first call; later calls return
    the same object, which callers must not change.  Parsing leaves it
    unchanged, so ``dispatch`` can reuse it for any number of calls."""
    p = _Parser(prog="sarfima", description=__doc__)
    sub = p.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("simulate", help="draw one sample path")
    sp.add_argument("--spec", required=True, help="model spec JSON file")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--method", choices=sorted(_SAMPLERS), default=DEFAULT_METHOD)
    sp.add_argument("--grid-exponent", type=int, default=None)
    sp.add_argument("--out", required=True)

    pp = sub.add_parser("periodogram", help="periodogram ordinates to CSV")
    pp.add_argument("--in", dest="infile", required=True)
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
    mc.add_argument("--method", choices=sorted(_SAMPLERS), default=DEFAULT_METHOD)
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
    pg = periodogram(x)
    pg.to_csv(args.out)
    return 0


def _cmd_estimate_gph(args) -> int:
    x = _read_series(args.infile)
    n = len(x)
    s2 = args.s1 if args.s2 is None else args.s2   # one period: the single-parameter fit
    m = resolve_bandwidth(n, max(args.s1, s2), alpha=args.alpha, m=args.m, gph_T=args.gph_T, uncapped=args.uncapped)
    pg = periodogram(x)
    plan = build_band_plan(n, args.s1, s2, m, allow_overlap=args.uncapped)
    _emit(estimate_to_json(gph_estimate(pg, plan, args.s1, s2)) + "\n", args.out)
    return 0


def _load_template(path) -> WhittleTemplate:
    """The template in ``path``; ``WhittleTemplate``'s own rules decide its markers and d_box."""
    doc = _json_object(_json_document(_read_text(path, "bad-json"), "template"),
                       ("spec", "free_d", "free_ar", "free_ma", "d_box"), "a template", "bad-template")
    if "spec" not in doc:
        raise ValidationError("bad-template", "malformed template document: missing key 'spec'")
    return WhittleTemplate(spec=_spec_from_doc(doc.pop("spec")), **doc)


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
                    workers=args.threads, method=args.method)
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
    """Parse and run one verb; returns the process exit code.  It can be
    called any number of times in one process, and parses with the parser
    its first call built."""
    try:
        args = build_parser().parse_args(argv)
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
