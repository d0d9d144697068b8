"""Boundary property test of the library's count and bandwidth arguments
and of spec and template JSON documents, and fixed cases of its real,
sequence and series arguments.

Every call either returns, with each count in its result a plain ``int``,
or raises a coded ``SarfimaError``; any other exception, and any warning,
fails the test.  The draws are integers of any sign and past 2^64, floats
(12.0, NaN and infinities among them), bools, None, short strings, and
numpy int64 and float64 values.  A band plan decides its rules in integers
and checks its size before it builds an index, so its draws are unbounded
too; a second strategy draws plans inside the overlap rule, so that most
of its draws build one and its invariants are checked.  The documents
keep a valid shape, with values swapped now and then for a JSON value of
another kind.  Nothing here simulates or runs a study.
"""
import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarfima import (ArmaFactor, EstimatorDef, McConfig, SarfimaError, SarfimaSpec, SeasonalComponent, SimConfig,
                     WhittleTemplate, asymptotic_acvf, asymptotic_cov_matrix, bandwidth_scan, build_band_plan,
                     combined_filter_coefficients, design, fractional_filter, gph_T_bandwidth, periodogram,
                     pi_coefficients, sample_acf_pacf, spec_from_json, spectral_density, whittle_estimate)
from sarfima.cli import dispatch
from sarfima.spectrum import resolve_bandwidth

FUZZ = settings(derandomize=True, max_examples=60, deadline=None)

#: integers that the unbounded strategy draws only rarely
_BIG = (2 ** 64, 2 ** 64 + 1, -2 ** 64, 2 ** 2000)


def values(cap: int = None):
    """Any argument value; integers, plain and numpy, at most ``cap`` if given."""
    ints = st.integers(max_value=cap)
    return st.one_of(
        ints, st.sampled_from([v for v in _BIG if cap is None or v <= cap]),
        st.integers(-2 ** 63, 2 ** 63 - 1 if cap is None else cap).map(np.int64),
        st.floats(), st.sampled_from([12.0, math.nan, math.inf, -math.inf]), st.floats().map(np.float64),
        st.booleans(), st.none(), st.text(max_size=3))


FLAG = st.booleans() | values()   # half bools, so that some choices get past the flag check


def outcome(call, *args, **kwargs):
    """``call``'s result, or None where it raised a coded error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call(*args, **kwargs)
        except SarfimaError as exc:
            assert isinstance(exc.code, str) and exc.code
            return None


def assert_ints(*counts):
    assert all(type(c) is int for c in counts), [type(c) for c in counts]


@FUZZ
@given(n=values(), s=values(),
       choice=st.fixed_dictionaries({}, optional={"alpha": values(), "m": values(),
                                                  "gph_T": FLAG, "uncapped": FLAG}))
def test_resolve_bandwidth(n, s, choice):
    m = outcome(resolve_bandwidth, n, s, **choice)
    if m is not None:
        assert_ints(m)


@FUZZ
@given(n=values(), s1=values(), s2=st.none() | values())
def test_gph_T_bandwidth(n, s1, s2):
    m = outcome(gph_T_bandwidth, n, s1, s2)
    if m is not None:
        assert_ints(m)


@FUZZ
@given(n=values(), s1=values(), s2=values(), m=values(), overlap=st.booleans())
def test_build_band_plan(n, s1, s2, m, overlap):
    plan = outcome(build_band_plan, n, s1, s2, m, allow_overlap=overlap)
    if plan is not None:
        assert_ints(plan.n, plan.s_prime, plan.s_small, plan.m,
                    *(c for b in plan.bands for c in (b.k, b.center_index)))


@st.composite
def plan_args(draw):
    """(n, s1, s2, m) inside the overlap rule: the smaller period divides the
    larger s', m >= 2 and 2 m s' < n <= 2^16; n is a multiple of s' half the time."""
    s_small = draw(st.integers(1, 64))
    sp = s_small * draw(st.integers(1, (2 ** 14 - 1) // s_small))
    m = draw(st.integers(2, (2 ** 16 - 1) // (2 * sp)))
    n = draw(st.integers(2 * m * sp + 1, 2 ** 16))
    if draw(st.booleans()) and -(-n // sp) * sp <= 2 ** 16:
        n = -(-n // sp) * sp
    s1, s2 = draw(st.permutations([s_small, sp]))
    return n, s1, s2, m


@FUZZ
@given(args=plan_args())
def test_band_plans_inside_the_overlap_rule(args):
    n, s1, s2, m = args
    plan = outcome(build_band_plan, n, s1, s2, m)
    sp = max(s1, s2)
    if plan is None:
        # only a centre rounded off the Fourier grid can make two bands touch
        assert n % sp != 0
        with pytest.raises(SarfimaError, match="band-overlap"):
            build_band_plan(n, s1, s2, m)
        return
    assert_ints(plan.n, plan.s_prime, plan.s_small, plan.m,
                *(c for b in plan.bands for c in (b.k, b.center_index)))
    assert (plan.n, plan.s_prime, plan.s_small, plan.m) == (n, sp, min(s1, s2), m)
    assert [b.k for b in plan.bands] == list(range(sp // 2 + 1))
    for b in plan.bands:
        assert len(b.fourier_indices) == (m if b.k == 0 or 2 * b.k == sp else 2 * m)
    indices = np.concatenate([b.fourier_indices for b in plan.bands])
    assert indices.dtype == np.int64
    assert indices.min() >= 1 and indices.max() <= n // 2
    assert len(np.unique(indices)) == len(indices)


@FUZZ
@given(s1=values(), s2=st.none() | values(), m=values())
def test_asymptotic_cov_matrix(s1, s2, m):
    cov = outcome(asymptotic_cov_matrix, s1, s2, m)
    if cov is not None:
        assert cov.shape in ((1, 1), (2, 2))


QUARTERLY = SarfimaSpec(components=(SeasonalComponent(4, 0.3),))


@FUZZ
@given(n=values(), seed=values(), g=st.none() | values(), method=st.sampled_from(["circulant", "exact_dl"]))
def test_sim_config_counts(n, seed, g, method):
    cfg = outcome(SimConfig, spec=QUARTERLY, n=n, seed=seed, method=method, grid_exponent=g)
    if cfg is not None:
        assert_ints(cfg.n, cfg.seed, cfg.grid_exponent)


@FUZZ
@given(reps=values(), n=values(cap=2 ** 20), seed=values(), g=st.none() | values(),
       workers=st.none() | values())
def test_mc_config_counts(reps, n, seed, g, workers):
    estimators = (EstimatorDef(name="gph_T", kind="gph_single", use_gph_T=True),)
    cfg = outcome(McConfig, spec=QUARTERLY, estimators=estimators, reps=reps, n=n, master_seed=seed,
                  grid_exponent=g, workers=workers)
    if cfg is not None:
        assert_ints(cfg.reps, cfg.n, cfg.master_seed, cfg.grid_exponent,
                    *(() if workers is None else (cfg.workers,)))


SERIES = np.random.default_rng(16).standard_normal(256)


@FUZZ
@given(max_lag=values())
def test_sample_acf_pacf_lag(max_lag):
    res = outcome(sample_acf_pacf, SERIES, max_lag)
    if res is not None:
        assert len(res.acf) == max_lag


@FUZZ
@given(alphas=st.lists(values(), min_size=1, max_size=3))
def test_bandwidth_scan_alphas(alphas):
    scan = outcome(bandwidth_scan, SERIES, 1, 4, alphas)
    if scan is not None:
        assert_ints(*(row.m for row in scan.rows))


#: an integer past the 4300 digits that ``str`` converts, and a spec with two memories
HUGE = 10 ** 5000
TWO_PERIODS = SarfimaSpec(components=(SeasonalComponent(4, 0.1), SeasonalComponent(12, 0.3)))


@pytest.mark.parametrize("call, code", [
    (lambda: SimConfig(spec=QUARTERLY, n=HUGE, seed=1), "too-large"),
    (lambda: SimConfig(spec=QUARTERLY, n=100, seed=HUGE), "bad-seed"),
    (lambda: asymptotic_cov_matrix(4, 12, HUGE), "bad-bandwidth"),
    (lambda: sample_acf_pacf(SERIES, HUGE), "bad-lag"),
    (lambda: build_band_plan(HUGE, 4, 12, 2), "too-large"),
    (lambda: build_band_plan(1080, 4, 4 * HUGE, 2), "band-overlap"),
    # 7.28 TiB of coefficients, or more than any array can hold
    (lambda: pi_coefficients(0.1, 4, 10 ** 12), "too-large"),
    (lambda: combined_filter_coefficients(TWO_PERIODS, 10 ** 12), "too-large"),
    (lambda: pi_coefficients(0.1, 4, HUGE), "too-large"),
    # past 2^53, h lambda_p has no fractional part left
    (lambda: asymptotic_acvf(TWO_PERIODS, 10 ** 400), "bad-lag"),
    (lambda: asymptotic_acvf(TWO_PERIODS, 2 ** 53), "bad-lag"),
    # about 45 years at 700 replications a second
    (lambda: McConfig(spec=QUARTERLY, estimators=(EstimatorDef(name="gph_T", kind="gph_single", use_gph_T=True),),
                      reps=10 ** 12, n=1080, master_seed=1), "too-large"),
], ids=["sim-n", "sim-seed", "cov-m", "acf-lag", "plan-n", "plan-period", "pi", "filter", "pi-huge",
        "asymptotic-lag", "asymptotic-2^53", "mc-reps"])
def test_oversized_counts_end_in_codes(call, code):
    # each message prints, even where it names a count too long for str
    with warnings.catch_warnings(), pytest.raises(SarfimaError) as exc:
        warnings.simplefilter("error")
        call()
    assert exc.value.code == code
    assert str(exc.value).startswith(f"{code}: ")


#: an integer past the float range, where a real number is due
PAST_FLOAT = 10 ** 400


@pytest.mark.parametrize("call, code", [
    (lambda: SeasonalComponent(4, PAST_FLOAT), "bad-memory"),
    (lambda: ArmaFactor(4, (PAST_FLOAT,)), "bad-arma-coeffs"),
    (lambda: SarfimaSpec(components=QUARTERLY.components, innovation_variance=PAST_FLOAT), "bad-sigma2"),
    (lambda: pi_coefficients(PAST_FLOAT, 4, 10), "bad-memory"),
    (lambda: fractional_filter(SERIES, [PAST_FLOAT], [4]), "bad-filter"),
    (lambda: WhittleTemplate.pure((4,), d_box=PAST_FLOAT), "bad-template"),
    (lambda: WhittleTemplate.pure((4,), d_box=True), "bad-template"),
], ids=["memory", "arma-coeff", "sigma2", "pi-d", "filter-d", "d-box", "d-box-bool"])
def test_reals_past_the_float_range_end_in_codes(call, code):
    with warnings.catch_warnings(), pytest.raises(SarfimaError) as exc:
        warnings.simplefilter("error")
        call()
    assert exc.value.code == code
    assert str(exc.value).startswith(f"{code}: ")


def test_asymptotic_acvf_below_2_53():
    assert math.isfinite(outcome(asymptotic_acvf, TWO_PERIODS, 2 ** 53 - 1))


# ---------------------------------------------------------------------------
# one rule per kind of argument
# ---------------------------------------------------------------------------

GPH_T = EstimatorDef(name="gph_T", kind="gph_single", use_gph_T=True)
PURE = WhittleTemplate.pure((4,))
WORDS = ["a"] * 100


@pytest.mark.parametrize("call, code", [
    (lambda: spectral_density(QUARTERLY, "a"), "bad-frequency"),
    (lambda: spectral_density(QUARTERLY, PAST_FLOAT), "bad-frequency"),
    (lambda: resolve_bandwidth(1080, 4, alpha="0.5"), "bad-bandwidth"),
    (lambda: bandwidth_scan(SERIES, 1, 4, [math.nan]), "bad-bandwidth"),
    (lambda: bandwidth_scan(SERIES, 1, 4, [0.3, math.inf]), "bad-bandwidth"),
    (lambda: ArmaFactor(4, 0.5), "bad-arma-coeffs"),
    (lambda: ArmaFactor(4, None), "bad-arma-coeffs"),
    (lambda: SarfimaSpec(components=SeasonalComponent(4, 0.1)), "bad-components"),
    (lambda: SarfimaSpec(components=None), "bad-components"),
    (lambda: SarfimaSpec(components=((4, 0.1),)), "bad-components"),
    (lambda: SarfimaSpec(components=QUARTERLY.components, ar_factors=((4, (0.5,)),)), "bad-arma-factors"),
    (lambda: SarfimaSpec(components=QUARTERLY.components, ma_factors=ArmaFactor(4, (0.5,))), "bad-arma-factors"),
    (lambda: WhittleTemplate.pure(4), "bad-template"),
    (lambda: WhittleTemplate(QUARTERLY, free_d=True), "bad-template"),
    (lambda: McConfig(spec=QUARTERLY, estimators=GPH_T, reps=1, n=100, master_seed=1), "bad-estimator"),
    (lambda: McConfig(spec=QUARTERLY, estimators=("gph_T",), reps=1, n=100, master_seed=1), "bad-estimator"),
    (lambda: bandwidth_scan(SERIES, 1, 4, 0.5), "bad-alphas"),
    (lambda: bandwidth_scan(SERIES, 1, 4, "0.5"), "bad-alphas"),
    (lambda: periodogram(WORDS[:20]), "non-finite-input"),
    (lambda: periodogram(SERIES * 1j), "non-finite-input"),
    (lambda: periodogram([PAST_FLOAT] * 20), "non-finite-input"),
    (lambda: sample_acf_pacf(WORDS[:20], 2), "non-finite-input"),
    (lambda: whittle_estimate(WORDS, PURE), "non-finite-input"),
    (lambda: bandwidth_scan(WORDS, 1, 4, [0.5]), "non-finite-input"),
    (lambda: spec_from_json('{"components": [{"period": 4, "d": NaN}]}'), "bad-spec-json"),
    (lambda: spec_from_json('{"components": [{"period": 4, "d": 0.3}], "sigma2": Infinity}'), "bad-spec-json"),
    (lambda: spec_from_json('{"components": [{"period": 4, "d": 0.3}], "ar": [{"lag": 4, "coeffs": 0.5}]}'),
     "bad-spec-json"),
    (lambda: spec_from_json('{"components": {"period": 4, "d": 0.3}}'), "bad-spec-json"),
    (lambda: spec_from_json('{"components": [{"period": 4}]}'), "bad-spec-json"),
    (lambda: spec_from_json("[" * 100000), "bad-json"),
    (lambda: SimConfig(QUARTERLY, n=100, seed=1, method=[1]), "bad-method"),
    (lambda: design("table2", master_seed=1, method=[1]), "bad-method"),
    (lambda: periodogram(["1.5"] * 20), "non-finite-input"),   # numeric strings are not parsed
    (lambda: periodogram([b"1.5"] * 20), "non-finite-input"),
    (lambda: whittle_estimate([1.0] * 99 + ["1.5"], PURE), "non-finite-input"),
], ids=["density-str", "density-past-float", "alpha-str", "scan-nan", "scan-inf", "coeffs-scalar", "coeffs-none",
        "components-scalar", "components-none", "components-tuple", "ar-tuple", "ma-scalar", "pure-scalar",
        "markers-bool", "estimators-scalar", "estimators-str", "alphas-scalar", "alphas-str", "periodogram-str",
        "periodogram-complex", "periodogram-past-float", "acf-str", "whittle-str", "scan-str", "json-nan",
        "json-infinity", "json-coeffs-scalar", "json-components-object", "json-missing-d", "json-deep",
        "sim-method", "design-method", "periodogram-numeric-str", "periodogram-numeric-bytes",
        "whittle-one-numeric-str"])
def test_each_argument_rule_ends_in_its_code(call, code):
    with warnings.catch_warnings(), pytest.raises(SarfimaError) as exc:
        warnings.simplefilter("error")
        call()
    assert exc.value.code == code
    assert str(exc.value).startswith(f"{code}: ")


def test_sequence_arguments_take_any_iterable():
    # a generator, a list or a 1-d numpy array serves as a tuple would
    spec = SarfimaSpec(components=(c for c in QUARTERLY.components), ar_factors=[ArmaFactor(4, np.array([0.5]))])
    assert spec.components == QUARTERLY.components and spec.ar_factors == (ArmaFactor(4, (0.5,)),)
    assert WhittleTemplate.pure(np.array([4])) == PURE
    assert [row.alpha for row in bandwidth_scan(SERIES, 1, 4, np.array([0.3, 0.5])).rows] == [0.3, 0.5]


# ---------------------------------------------------------------------------
# spec and template documents
# ---------------------------------------------------------------------------

#: JSON values of every kind, the NaN and Infinity literals of Python's json among them
ODD = st.one_of(
    st.sampled_from([None, True, False, "", "4", "0.3", math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-320,
                     PAST_FLOAT, 0, -1, 4.5, [], {}, [0.3], {"period": 4, "d": 0.3}]),
    st.integers(), st.floats(), st.text(max_size=3))


@st.composite
def swapped(draw, valid):
    """A draw of ``valid``, or one time in eight a JSON value of any kind."""
    return draw(ODD) if draw(st.integers(0, 7)) == 5 else draw(valid)


NEAR_ONE = st.sampled_from([0.99, -0.99, 1 - 1e-9, -1 + 1e-9, 1.0, -1.0])
COMPONENT = st.fixed_dictionaries({"period": swapped(st.integers(1, 1000)),
                                   "d": swapped(st.floats(-0.49, 0.49) | st.sampled_from([1e-320, 0.0]))})
FACTOR = st.fixed_dictionaries({"lag": swapped(st.integers(1, 1000)),
                                "coeffs": swapped(st.lists(swapped(st.floats(-0.9, 0.9) | NEAR_ONE),
                                                           min_size=1, max_size=2))})
SPEC_DOC = swapped(st.fixed_dictionaries(
    {"components": swapped(st.lists(swapped(COMPONENT), min_size=1, max_size=2))},
    optional={"ar": swapped(st.lists(swapped(FACTOR), max_size=1)),
              "ma": swapped(st.lists(swapped(FACTOR), max_size=1)),
              "sigma2": swapped(st.sampled_from([1.0, 2.5, 1e308, 1e-320]))}))
MARKERS = swapped(st.lists(swapped(st.booleans()), max_size=2))
TEMPLATE_DOC = swapped(st.fixed_dictionaries(
    {"spec": SPEC_DOC},
    optional={"free_d": MARKERS, "free_ar": MARKERS, "free_ma": MARKERS,
              "d_box": swapped(st.floats(0.01, 1.0) | st.sampled_from([0.49, 1e308, 1e-320]))}))

DOCUMENTS = settings(derandomize=True, max_examples=80, deadline=None)


@DOCUMENTS
@given(doc=SPEC_DOC)
def test_spec_documents(doc):
    spec = outcome(spec_from_json, json.dumps(doc))
    if spec is not None:
        assert 1 <= len(spec.components) <= 2


@pytest.fixture(scope="module")
def whittle_files(tmp_path_factory):
    """A 128-point series file, and paths for a template and for the fit."""
    root = tmp_path_factory.mktemp("whittle")
    (root / "x.csv").write_text("x\n" + "".join(f"{v!r}\n" for v in SERIES[:128].tolist()))
    return [str(root / name) for name in ("x.csv", "template.json", "fit.json")]


def run_verb(argv):
    """(exit code, stdout, stderr) of one verb, any warning raised as an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = dispatch(argv)
    return code, out.getvalue(), err.getvalue()


@DOCUMENTS
@given(doc=TEMPLATE_DOC)
def test_template_documents(whittle_files, doc):
    series, template, fit = whittle_files
    with open(template, "w") as fh:
        json.dump(doc, fh)
    code, out, err = run_verb(["estimate-whittle", "--in", series, "--template", template, "--out", fit])
    assert code in (0, 1, 2) and out == ""
    if code == 0:
        assert err == ""
    else:
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and err.split(":")[1].strip(), err


@pytest.mark.parametrize("d_box, code", [(True, 1), ("0.3", 1), (PAST_FLOAT, 1), (math.nan, 1), (None, 1), (0.3, 0)])
def test_template_d_box(whittle_files, d_box, code):
    series, template, fit = whittle_files
    with open(template, "w") as fh:
        json.dump({"spec": {"components": [{"period": 4, "d": 0.1}]}, "d_box": d_box}, fh)
    result = run_verb(["estimate-whittle", "--in", series, "--template", template, "--out", fit])
    assert result[:2] == (code, "")
    assert result[2] == "" if code == 0 else result[2].startswith("error: bad-template:")


def test_template_null_markers_mean_all_free(whittle_files):
    series, template, fit = whittle_files
    spec = {"components": [{"period": 4, "d": 0.1}], "ar": [{"lag": 1, "coeffs": [0.2]}]}
    with open(template, "w") as fh:
        json.dump({"spec": spec, "free_d": None, "free_ar": None}, fh)
    assert run_verb(["estimate-whittle", "--in", series, "--template", template, "--out", fit])[0] in (0, 2)
    with open(fit) as fh:
        assert len(json.load(fh)["short_memory"]["ar"]) == 1
