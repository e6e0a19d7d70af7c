"""Column-wise datasets and the batched paths against their row-by-row references."""

import math

import numpy as np
import pytest

from ahft import (
    Dataset,
    FactorSpec,
    GllWeibullModel,
    SyntheticSpec,
    evaluate,
    generate_synthetic,
    load_csv,
    serialize,
    sweep_curve,
    weibull_quantile,
)
from ahft.errors import FatigueOutOfRange, InputError, NonNumericCell
from ahft.validation import _splitmix64_stream
from oracles import SplitMix64, predict_percentile

SEEDS = (0, 7, 2**64 - 1)
POOLS = ((0.5, 1.0, 2.0, 5.0), (1.0, 2.0, 5.0), (0.01, 0.1, 1.0, 10.0), (3.0, 7.0), (0.2, 0.4, 0.8))


def _spec(n_factors, seed, n=40):
    factors = tuple(FactorSpec(f"f{j}", t) for j, t in
                    zip(range(n_factors), ("identity", "log", "reciprocal", "identity", "log")))
    alpha = (-3.0, 0.05, -0.08, 0.002, 0.03, -0.1)[:n_factors + 1]
    return SyntheticSpec(alpha, 2.5, factors, POOLS[:n_factors], n=n, seed=seed)


# ---------------------------------------------------------------------------
# SplitMix64: the vectorized stream against the scalar generator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_vectorized_stream_matches_next_u64(seed):
    rng = SplitMix64(seed)
    expected = [rng.next_u64() for _ in range(600)]
    assert _splitmix64_stream(seed, 600).tolist() == expected


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n_factors", (1, 5))
def test_generate_replays_scalar_stream_bit_for_bit(seed, n_factors):
    spec = _spec(n_factors, seed)
    data = generate_synthetic(spec)
    rng = SplitMix64(seed)
    alpha = np.asarray(spec.true_alpha)
    columns = {c: v.tolist() for c, v in data.columns.items()}
    for i in range(data.n_rows):
        values = {f.name: float(pool[rng.choice_index(len(pool))])
                  for f, pool in zip(spec.factors, spec.factor_value_pools)}
        u = rng.uniform()
        z = [1.0] + [float(f.apply(np.array([values[f.name]]))[0]) for f in spec.factors]
        eta = math.exp(float(np.dot(z, alpha)))
        assert {c: columns[c][i] for c in data.psf_names} == values
        assert columns["fatigue"][i] == weibull_quantile(eta, spec.true_shape, u)


# ---------------------------------------------------------------------------
# CSV round trip and ingestion errors
# ---------------------------------------------------------------------------

def test_serialize_round_trip_5k_rows_with_durations():
    spec = _spec(5, seed=2024, n=5000)
    data = generate_synthetic(spec)
    assert data.column("fatigue").max() < 1.0  # load_csv accepts only (0, 1)
    text = serialize(data)
    again = load_csv(text)
    assert again == data
    assert serialize(again) == text


@pytest.mark.parametrize(
    "text, error, message",
    [
        # two bad cells in different rows: the earlier row is reported
        ("x,fatigue\n1,0.5\n2,0.4\nhigh,0.3\n4,0.2\n5,abc\n", NonNumericCell,
         "row 3, column 'x': cannot parse 'high'"),
        # a range fault before a parse fault: still the earlier row
        ("x,fatigue\n1,0.5\n2,1.5\n3,0.4\nlow,0.3\n", FatigueOutOfRange, "row 2: fatigue"),
        # two bad cells in one row: fatigue before the PSFs
        ("x,fatigue\n1,0.5\nhigh,2.0\n", FatigueOutOfRange, "row 2: fatigue"),
        # duration before the PSFs, after fatigue
        ("x,duration_hours,fatigue\n1,1,0.5\nhigh,-2,0.4\n", InputError,
         "row 2: duration_hours must be 1"),
        # a blank line still counts as a row
        ("x,fatigue\n1,0.5\n\n2,0.4\n3,inf\n", NonNumericCell,
         "row 4, column 'fatigue': value 'inf' is not finite"),
        # a ragged row before a bad cell
        ("x,y,fatigue\n1,2,0.5\n1,0.4\n1,z,0.4\n", InputError, "row 2: expected 3 cells, got 2"),
    ],
)
def test_load_csv_reports_first_bad_cell(text, error, message):
    with pytest.raises(error) as exc:
        load_csv(text)
    assert str(exc.value).startswith(message)


def test_dataset_from_columns_reports_first_bad_row():
    with pytest.raises(FatigueOutOfRange, match="got -0.1"):
        Dataset(("x", "fatigue"), {"x": [1.0, 2.0, 3.0],
                                   "fatigue": [0.2, -0.1, math.inf]})
    with pytest.raises(InputError, match="PSF 'x' value must be finite"):
        Dataset(("x", "fatigue"), {"x": [1.0, math.nan], "fatigue": [0.2, -0.1]})
    with pytest.raises(InputError, match="equal length"):
        Dataset(("x", "fatigue"), {"x": [1.0], "fatigue": [0.2, 0.3]})


def test_dataset_columns_are_read_only(table3):
    with pytest.raises(ValueError):
        table3.column("stress")[0] = 99.0


# ---------------------------------------------------------------------------
# Batched prediction against pointwise predict_percentile
# ---------------------------------------------------------------------------

TRANSFORMS = ("identity", "log", "reciprocal")


def _model(n_factors):
    factors = tuple(FactorSpec(f"x{j}", TRANSFORMS[j % 3]) for j in range(n_factors))
    alpha = np.array([-1.7] + [0.11 * (j + 1) * (-1) ** j for j in range(n_factors)])
    k = n_factors + 2
    return GllWeibullModel(factors=factors, alpha=alpha, shape=3.3, covariance=np.eye(k) * 1e-3)


def _points(n_factors, n=200):
    rng = np.random.default_rng(n_factors)
    columns = {f"x{j}": rng.uniform(0.05, 20.0, n) for j in range(n_factors)}
    columns["fatigue"] = rng.uniform(0.01, 0.99, n)
    return Dataset(tuple(columns), columns)


@pytest.mark.parametrize("n_factors", (1, 3, 9))
def test_batched_evaluate_matches_pointwise_prediction(n_factors):
    model, holdout = _model(n_factors), _points(n_factors)
    report = evaluate(model, holdout, 0.3)
    columns = {c: v.tolist() for c, v in holdout.columns.items()}
    for i, (_, observed, predicted, error) in enumerate(report.rows):
        expected = predict_percentile(model, {c: columns[c][i] for c in holdout.psf_names}, 0.3)
        assert predicted == pytest.approx(expected, rel=1e-13)
        assert observed == columns["fatigue"][i]
        assert error == abs(predicted - observed) / observed


@pytest.mark.parametrize("n_factors", (1, 3, 9))
def test_batched_sweep_matches_pointwise_prediction(n_factors):
    model = _model(n_factors)
    fixed = {f"x{j}": 0.5 + j for j in range(n_factors)}
    grid = np.linspace(0.1, 30.0, 101).tolist()
    for factor in fixed:
        curve = sweep_curve(model, factor, grid, fixed, 0.7)
        assert curve.shape == (len(grid),)
        for x, y in zip(grid, curve.tolist()):
            expected = predict_percentile(model, {**fixed, factor: x}, 0.7)
            assert y == pytest.approx(expected, rel=1e-13)


def test_load_csv_large_input_reports_late_bad_row():
    # 40 000 rows with a blank line near the top, which row numbers count
    lines = [f"{i % 7 + 1},{(i % 97 + 1) / 100}" for i in range(40_000)]
    lines[10] = ""
    text = "x,fatigue\n" + "\n".join(lines) + "\n"
    data = load_csv(text)
    assert data.n_rows == 39_999
    assert data.column("x").tolist() == [i % 7 + 1 for i in range(40_000) if i != 10]
    lines[35_000] = "7,1.5"
    with pytest.raises(FatigueOutOfRange, match="row 35001: "):
        load_csv("x,fatigue\n" + "\n".join(lines) + "\n")
