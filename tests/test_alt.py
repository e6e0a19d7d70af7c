"""Weibull log-linear likelihood, fitting, intervals, and persistence.

Two independent oracles guard the core math: a per-row scalar-python
log-likelihood sum, and central finite differences for the analytic
gradient.  The delta-method SE is checked against a frozen
parametric-bootstrap value.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from ahft import (
    Dataset,
    FactorSpec,
    GllWeibullModel,
    SyntheticSpec,
    builtin_table3,
    coef_ci,
    fit_mle,
    generate_synthetic,
    log_likelihood,
    model_from_json,
    model_to_json,
    positive_param_ci,
    predict_with_interval,
    save_model,
    load_model,
    sweep_curve,
    wald_stats,
    weibull_cdf,
    weibull_quantile,
)
from ahft.alt import _derivatives, _design, _loglik, _response, parse_factor
from ahft.errors import (
    DegenerateFactor,
    InputError,
    MissingFactor,
    NoConvergence,
    NonPositiveSE,
    NonPositiveValue,
    TooFewRows,
    TransformDomainError,
)
from oracles import (
    central_diff_gradient,
    life_characteristic,
    naive_weibull_loglik,
    predict_percentile,
)

TWO_FACTORS = (FactorSpec("available_time"), FactorSpec("stress"))


def _model(factors, alpha, shape, cov=None):
    specs = tuple(FactorSpec(f) if isinstance(f, str) else f for f in factors)
    k = len(alpha) + 1
    cov = np.zeros((k, k)) if cov is None else np.asarray(cov, dtype=float)
    return GllWeibullModel(factors=specs, alpha=np.asarray(alpha, dtype=float),
                           shape=shape, covariance=cov)


def _plain_dataset(ts, xs=None):
    """Rows with an optional single identity factor ``x``."""
    if xs is None:
        return Dataset(("fatigue",), {"fatigue": ts})
    return Dataset(("x", "fatigue"), {"x": xs, "fatigue": ts})


# ---------------------------------------------------------------------------
# Factor specs and the life characteristic
# ---------------------------------------------------------------------------

def test_parse_factor_transforms():
    assert parse_factor("stress") == FactorSpec("stress", "identity")
    assert parse_factor("Available Time:log") == FactorSpec("available_time", "log")
    assert parse_factor("x:ln") == FactorSpec("x", "log")
    assert parse_factor("x:natural-log") == FactorSpec("x", "log")
    assert parse_factor("x:inverse") == FactorSpec("x", "reciprocal")
    with pytest.raises(InputError):
        parse_factor("x:cubic")


@pytest.mark.parametrize("name", ["fatigue", " Fatigue", "duration_hours", "Duration-Hours"])
def test_factor_spec_rejects_reserved_names(name):
    with pytest.raises(InputError, match="reserved column name"):
        FactorSpec(name)
    with pytest.raises(InputError, match="reserved column name"):
        parse_factor(f"{name}:log")


def test_life_characteristic_intercept_only():
    assert life_characteristic(_model((), [0.0], 1.0), {}) == 1.0


def test_life_characteristic_identity_factor():
    model = _model(("x",), [0.0, 1.0], 1.0)
    assert life_characteristic(model, {"x": math.log(2.0)}) == pytest.approx(2.0, rel=1e-15)


def test_life_characteristic_log_and_reciprocal():
    log_model = _model((FactorSpec("x", "log"),), [1.0, -1.0], 1.0)
    assert life_characteristic(log_model, {"x": math.e}) == pytest.approx(1.0, rel=1e-12)
    rec_model = _model((FactorSpec("x", "reciprocal"),), [0.0, 2.0], 1.0)
    assert life_characteristic(rec_model, {"x": 2.0}) == pytest.approx(math.e, rel=1e-12)


def test_life_characteristic_missing_factor():
    model = _model(("x",), [0.0, 1.0], 1.0)
    with pytest.raises(MissingFactor):
        life_characteristic(model, {"y": 1.0})


def test_transform_domain_errors():
    log_model = _model((FactorSpec("x", "log"),), [0.0, 1.0], 1.0)
    with pytest.raises(TransformDomainError):
        life_characteristic(log_model, {"x": 0.0})
    rec_model = _model((FactorSpec("x", "reciprocal"),), [0.0, 1.0], 1.0)
    with pytest.raises(TransformDomainError):
        life_characteristic(rec_model, {"x": 0.0})


# ---------------------------------------------------------------------------
# Log-likelihood
# ---------------------------------------------------------------------------

def test_loglik_unit_exponential_single_row():
    model = _model((), [0.0], 1.0)
    assert log_likelihood(model, _plain_dataset([1.0])) == pytest.approx(-1.0, abs=1e-15)


def test_loglik_shape_two_single_row():
    model = _model((), [0.0], 2.0)
    expected = math.log(2.0) - 1.0
    assert log_likelihood(model, _plain_dataset([1.0])) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "alpha, shape",
    [
        ((-2.6, 0.04, 0.13), 4.0),
        ((-2.0, 0.0, 0.0), 1.0),
        ((-1.5, 0.1, -0.05), 2.5),
    ],
)
def test_loglik_matches_scalar_oracle(table3, alpha, shape):
    model = _model(TWO_FACTORS, alpha, shape)
    ll = log_likelihood(model, table3)
    factor_rows = list(zip(table3.column("available_time"), table3.column("stress")))
    oracle = naive_weibull_loglik(alpha, shape, factor_rows, table3.column("fatigue"))
    assert abs(ll - oracle) < 1e-10 * max(1.0, abs(oracle))


def test_gradient_matches_central_differences(table3):
    z = _design(table3, TWO_FACTORS)
    logt = np.log(_response(table3, "fatigue"))
    rng = np.random.default_rng(7)
    for _ in range(20):
        theta = np.concatenate([
            rng.uniform(-3.0, 0.0, 1),
            rng.uniform(-0.2, 0.2, 2),
            rng.uniform(-0.3, 1.2, 1),
        ])
        analytic = _derivatives(theta, z, logt)[0]
        numeric = central_diff_gradient(lambda th: _loglik(th, z, logt), theta)
        assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def test_fit_first_order_conditions(table3, table3_model):
    z = _design(table3, table3_model.factors)
    logt = np.log(_response(table3, "fatigue"))
    theta = np.concatenate([table3_model.alpha, [math.log(table3_model.shape)]])
    assert np.max(np.abs(_derivatives(theta, z, logt)[0])) < 1e-8
    info = np.linalg.inv(table3_model.covariance)
    assert np.linalg.eigvalsh(info).min() > 0.0
    assert_allclose(table3_model.covariance, table3_model.covariance.T, atol=1e-15)


def test_fit_is_deterministic(table3, table3_model):
    again = fit_mle(table3, TWO_FACTORS)
    assert np.array_equal(again.alpha, table3_model.alpha)
    assert again.shape == table3_model.shape
    assert np.array_equal(again.covariance, table3_model.covariance)
    assert again.fit_meta == table3_model.fit_meta


def test_fit_regression_pin(table3_model):
    # determinism guard: frozen output of this implementation on the
    # bundled workshop data, not an external truth
    assert_allclose(
        table3_model.alpha,
        [-2.620537784473373, 0.04379617507134729, 0.12788346983674279],
        rtol=1e-12,
    )
    assert table3_model.shape == pytest.approx(3.995830490903405, rel=1e-12)
    assert table3_model.fit_meta.converged


def test_fit_recovers_synthetic_truth():
    truth_alpha = (-2.0, 0.3, -0.1)
    truth_shape = 3.0
    factors = (FactorSpec("f1"), FactorSpec("f2"))
    spec = SyntheticSpec(truth_alpha, truth_shape, factors,
                         ((0.5, 1.0, 2.0, 5.0), (1.0, 2.0, 5.0)), n=500, seed=20240601)
    model = fit_mle(generate_synthetic(spec), factors)
    ses = model.standard_errors
    for est, true, se in zip(model.alpha, truth_alpha, ses[:3]):
        assert abs(est - true) <= 3.0 * se
        assert abs(est - true) / abs(true) <= 0.10
    assert abs(math.log(model.shape) - math.log(truth_shape)) <= 3.0 * ses[3]
    assert abs(model.shape - truth_shape) / truth_shape <= 0.10


def test_fit_too_few_rows():
    data = _plain_dataset([0.2, 0.3, 0.4], xs=[1.0, 2.0, 3.0])
    with pytest.raises(TooFewRows):
        fit_mle(data, ("x",))  # 3 parameters need at least 4 rows


def test_fit_degenerate_factor():
    data = _plain_dataset([0.2, 0.3, 0.4, 0.5, 0.35], xs=[2.0] * 5)
    with pytest.raises(DegenerateFactor, match="'x'"):
        fit_mle(data, ("x",))


# A factor that is a linear combination of the intercept and the factors
# before it leaves the design rank-deficient: the fit names it and stops.
@pytest.mark.parametrize("names, dependent", [
    ("available_time,stress,dup", "dup"),
    ("dup,available_time,stress", "stress"),
    ("available_time,twice", "twice"),
    ("available_time:log,twice:log", "twice"),
])
def test_fit_collinear_factor(names, dependent):
    table3 = builtin_table3()
    columns = {c: table3.column(c) for c in table3.column_names}
    columns["dup"] = columns["stress"] + columns["available_time"]
    columns["twice"] = 2.0 * columns["available_time"]
    data = Dataset(table3.column_names + ("dup", "twice"), columns)
    specs = [parse_factor(name) for name in names.split(",")]
    with pytest.raises(DegenerateFactor, match=f"factor '{dependent}' is a linear combination"):
        fit_mle(data, specs)


def test_fit_constant_response_diverges():
    data = _plain_dataset([0.3] * 6)
    with pytest.raises(NoConvergence) as exc:
        fit_mle(data, (), max_iterations=40)
    diag = exc.value.diagnostics
    assert diag["gradient_max_norm"] > 1e-8
    assert {"iterations", "theta", "log_likelihood"} <= set(diag)


def test_fit_reparameterization_invariance(table3):
    log_fit = fit_mle(table3, (FactorSpec("available_time", "log"), FactorSpec("stress")))
    pre_data = Dataset(("log_time", "stress", "fatigue"), {
        "log_time": [math.log(v) for v in table3.column("available_time").tolist()],
        "stress": table3.column("stress"),
        "fatigue": table3.column("fatigue"),
    })
    pre_fit = fit_mle(pre_data, (FactorSpec("log_time"), FactorSpec("stress")))

    assert log_fit.fit_meta.log_likelihood == pytest.approx(
        pre_fit.fit_meta.log_likelihood, abs=1e-8
    )
    for at, stress in [(0.01, 1.0), (0.1, 2.0), (1.0, 5.0), (10.0, 1.0)]:
        eta_log = life_characteristic(log_fit, {"available_time": at, "stress": stress})
        eta_pre = life_characteristic(pre_fit, {"log_time": math.log(at), "stress": stress})
        assert eta_log == pytest.approx(eta_pre, rel=1e-6)


# ---------------------------------------------------------------------------
# Wald statistics and confidence intervals
# ---------------------------------------------------------------------------

def test_wald_stats_reference_rows():
    z, p = wald_stats(36.60, 15.72)
    assert abs(z - 2.33) <= 0.005
    assert abs(p - 0.02) <= 0.005
    z, p = wald_stats(-10723.90, 4344.03)
    assert abs(z - (-2.47)) <= 0.005
    assert abs(p - 0.01) <= 0.005
    assert wald_stats(0.0, 1.0) == (0.0, 1.0)


def test_coef_ci_reference_row():
    lo, hi = coef_ci(36.60, 15.72, 0.99)
    assert abs(lo - (-3.90)) <= 0.02
    assert abs(hi - 77.09) <= 0.02


def test_coef_ci_small_coefficient_row():
    # comparison at the printed two-decimal precision of the reference row
    lo, hi = coef_ci(0.05, 0.02, 0.99)
    assert abs(round(lo, 2) - (-0.00)) <= 0.01 + 1e-9
    assert abs(round(hi, 2) - 0.09) <= 0.01 + 1e-9


def test_coef_ci_width_monotone_in_level():
    widths = [
        (lambda b: b[1] - b[0])(coef_ci(1.0, 0.5, level))
        for level in (0.5, 0.8, 0.9, 0.95, 0.99)
    ]
    assert all(a < b for a, b in zip(widths, widths[1:]))


def test_positive_param_ci_shape_row():
    lo, hi = positive_param_ci(3.64, 0.86, 0.99)
    assert abs(round(lo, 2) - 1.97) <= 0.02 + 1e-9
    assert abs(round(hi, 2) - 6.71) <= 0.02 + 1e-9
    assert 0.0 < lo < hi


def test_positive_param_ci_prediction_row():
    lo, hi = positive_param_ci(0.114565, 0.0200486, 0.99)
    assert abs(lo - 0.0729939) <= 2e-4
    assert abs(hi - 0.179811) <= 2e-4


def test_positive_param_ci_zero_se_collapses():
    assert positive_param_ci(0.4, 0.0, 0.99) == (0.4, 0.4)


def test_positive_param_ci_validation():
    with pytest.raises(NonPositiveValue):
        positive_param_ci(0.0, 0.1, 0.99)
    with pytest.raises(NonPositiveSE):
        positive_param_ci(1.0, -0.1, 0.99)
    with pytest.raises(InputError):
        positive_param_ci(1.0, 0.1, 1.5)


def test_positive_param_ci_rejects_bounds_out_of_range():
    with pytest.raises(InputError, match="too large"):
        positive_param_ci(0.1, 1e300, 0.99)
    with pytest.raises(InputError, match="too large"):
        positive_param_ci(1e300, 1e302, 0.99)


# ---------------------------------------------------------------------------
# Quantiles and prediction
# ---------------------------------------------------------------------------

def test_weibull_quantile_known_values():
    assert weibull_quantile(2.0, 1.0, 0.5) == pytest.approx(2.0 * math.log(2.0), rel=1e-15)
    assert weibull_quantile(1.0, 2.0, 0.25) == pytest.approx(
        math.sqrt(-math.log(0.75)), rel=1e-12
    )
    # at p = 1 - 1/e the quantile is the life characteristic itself
    p = 1.0 - math.exp(-1.0)
    assert weibull_quantile(3.0, 1.7, p) == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(InputError):
        weibull_quantile(1.0, 1.0, 1.0)


@given(
    p=st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
    eta=st.floats(min_value=0.01, max_value=100.0),
    shape=st.floats(min_value=0.3, max_value=20.0),
)
def test_cdf_quantile_round_trip(p, eta, shape):
    t = weibull_quantile(eta, shape, p)
    assert abs(weibull_cdf(t, eta, shape) - p) < 1e-10


def test_cdf_boundaries():
    assert weibull_cdf(0.0, 1.0, 2.0) == 0.0
    assert weibull_cdf(-1.0, 1.0, 2.0) == 0.0
    assert 0.0 < weibull_cdf(1.0, 1.0, 2.0) < 1.0


def test_predict_percentile_matches_quantile(table3_model):
    x = {"available_time": 0.1, "stress": 5.0}
    eta = life_characteristic(table3_model, x)
    assert predict_percentile(table3_model, x, 0.5) == weibull_quantile(
        eta, table3_model.shape, 0.5
    )


def test_predict_interval_zero_covariance_collapses():
    model = _model(("x",), [-1.0, 0.2], 2.0)
    pred = predict_with_interval(model, {"x": 1.0}, 0.5, 0.99)
    assert pred.std_error == 0.0
    assert pred.ci_lower == pred.value == pred.ci_upper


def test_predict_interval_brackets_value(table3_model):
    pred = predict_with_interval(table3_model, {"available_time": 1.0, "stress": 2.0})
    assert pred.ci_lower < pred.value < pred.ci_upper
    assert pred.std_error > 0.0


# Frozen oracle: oracles.bootstrap_prediction_se with make/fit/predict as in
# the test body, n_reps=2000, seed0=777001 (truth alpha (-2.6, 0.05, 0.13),
# shape 4.0, pools ((0.01, 0.1, 1.0, 10.0), (1.0, 2.0, 5.0)), n=200 per
# replicate, prediction at available_time=0.1, stress=5, p=0.5).
FROZEN_BOOTSTRAP_SE = 0.00443853967511594


def test_delta_method_se_against_frozen_bootstrap():
    factors = (FactorSpec("available_time"), FactorSpec("stress"))
    spec = SyntheticSpec((-2.6, 0.05, 0.13), 4.0, factors,
                         ((0.01, 0.1, 1.0, 10.0), (1.0, 2.0, 5.0)), n=200, seed=777000)
    model = fit_mle(generate_synthetic(spec), factors)
    pred = predict_with_interval(model, {"available_time": 0.1, "stress": 5.0}, 0.5, 0.99)
    assert abs(pred.std_error - FROZEN_BOOTSTRAP_SE) / FROZEN_BOOTSTRAP_SE < 0.15


def test_sweep_curve_directions():
    model = _model(("down", "up"), [-1.0, -0.5, 0.8], 2.0)
    falling = sweep_curve(model, "down", [0.5, 1.0, 2.0], {"up": 1.0})
    rising = sweep_curve(model, "up", [0.5, 1.0, 2.0], {"down": 1.0})
    assert all(a > b for a, b in zip(falling, falling[1:]))
    assert all(a < b for a, b in zip(rising, rising[1:]))


def test_sweep_curve_matches_pointwise_prediction(table3_model):
    grid = [1.0, 2.0, 5.0]
    curve = sweep_curve(table3_model, "stress", grid, {"available_time": 1.0}, 0.5)
    assert curve.shape == (len(grid),)
    for g, value in zip(grid, curve.tolist()):
        assert value == predict_percentile(
            table3_model, {"available_time": 1.0, "stress": g}, 0.5
        )


def test_sweep_curve_grid_validation(table3_model):
    with pytest.raises(InputError):
        sweep_curve(table3_model, "stress", [], {"available_time": 1.0})
    with pytest.raises(InputError):
        sweep_curve(table3_model, "stress", [2.0, 1.0], {"available_time": 1.0})


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def test_model_json_round_trip(table3_model):
    restored = model_from_json(model_to_json(table3_model))
    assert restored.factors == table3_model.factors
    assert np.array_equal(restored.alpha, table3_model.alpha)
    assert restored.shape == table3_model.shape
    assert np.array_equal(restored.covariance, table3_model.covariance)
    assert restored.fit_meta == table3_model.fit_meta


def test_model_json_without_fit_meta():
    model = _model(("x",), [0.0, 1.0], 2.0)
    restored = model_from_json(model_to_json(model))
    assert restored.fit_meta is None
    assert restored.factors == model.factors


def test_model_json_rejects_bad_documents(table3_model):
    good = model_to_json(table3_model)
    with pytest.raises(InputError):
        model_from_json("this is not json")
    with pytest.raises(InputError):
        model_from_json(good.replace('"ahft-model"', '"other-format"'))
    with pytest.raises(InputError):
        model_from_json(good.replace('"format_version": 1', '"format_version": 2'))
    with pytest.raises(InputError):
        model_from_json("{}")
    for version in ("true", "1.0"):
        with pytest.raises(InputError, match="format_version"):
            model_from_json(good.replace('"format_version": 1', f'"format_version": {version}'))
    for key, value in [("log_likelihood", True), ("log_likelihood", "30.4"),
                       ("log_likelihood", 10 ** 400), ("log_likelihood", math.nan),
                       ("log_likelihood", math.inf), ("log_likelihood", -math.inf),
                       ("iterations", 1.5), ("iterations", True), ("iterations", "12"),
                       ("converged", "no"), ("converged", 1), ("converged", None)]:
        doc = json.loads(good)
        doc["fit_meta"][key] = value
        with pytest.raises(InputError, match=rf"'fit_meta\.{key}'"):
            model_from_json(json.dumps(doc))


@pytest.mark.parametrize("field, value", [
    ("alpha", ["-2.6", math.nan, 0.1]),
    ("shape", [True, math.nan]),
    ("covariance", [[math.nan, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0], [0.0]]),  # ragged
])
def test_model_json_names_a_type_or_ragged_row_before_a_nan(table3_model, field, value):
    doc = json.loads(model_to_json(table3_model))
    doc[field] = value
    with pytest.raises(InputError, match=rf"^model field '{field}' must hold numbers only$"):
        model_from_json(json.dumps(doc))


# One value of each JSON type, an integer and a number apart.
JSON_VALUES = {"null": None, "boolean": True, "integer": 2, "number": 2.5, "string": "x",
               "array": [], "object": {}}
# The JSON types each field path of a table3_model document may hold.
MODEL_FIELDS = {
    "factors": {"array"},
    "factors[0]": {"object"},
    "factors[0].name": {"string"},
    "factors[0].transform": {"string"},
    "factors[1]": {"object"},
    "factors[1].name": {"string"},
    "factors[1].transform": {"string"},
    "alpha": {"array"},
    "shape": {"integer", "number"},
    "covariance": {"array"},
    "fit_meta": {"object", "null"},
    "fit_meta.log_likelihood": {"integer", "number"},
    "fit_meta.iterations": {"integer"},
    "fit_meta.converged": {"boolean"},
}


@pytest.mark.parametrize("path, fault", [
    (path, fault) for path, types in MODEL_FIELDS.items()
    for fault in ([] if path.endswith("]") else ["missing"]) + sorted(JSON_VALUES.keys() - types)
])
def test_model_json_names_each_missing_or_mistyped_field(table3_model, path, fault):
    doc = json.loads(model_to_json(table3_model))
    *parents, key = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
    container = doc
    for parent in parents:
        container = container[parent]
    if fault == "missing":
        del container[key]
    else:
        container[key] = JSON_VALUES[fault]
    with pytest.raises(InputError) as raised:
        model_from_json(json.dumps(doc))
    message = str(raised.value)
    if fault == "missing":
        assert message == f"model field '{path}' is missing"
    else:  # the typed-entry reader's message, or the numeric fields' own
        assert f"'{path}'" in message or message.startswith(f"{path} must "), message


def test_save_and_load_model(tmp_path, table3_model):
    path = tmp_path / "model.json"
    save_model(table3_model, path)
    restored = load_model(path)
    assert np.array_equal(restored.alpha, table3_model.alpha)
    assert restored.shape == table3_model.shape
    # byte-stable on disk
    save_model(restored, tmp_path / "model2.json")
    assert (tmp_path / "model.json").read_bytes() == (tmp_path / "model2.json").read_bytes()
