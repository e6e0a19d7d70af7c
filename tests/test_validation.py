"""Hold-out scoring, synthetic generation, and parameter recovery."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from ahft import (
    Dataset,
    FactorSpec,
    GllWeibullModel,
    SyntheticSpec,
    evaluate,
    fit_mle,
    generate_synthetic,
    recovery_check,
    weibull_cdf,
    weibull_quantile,
)
from ahft.errors import DegenerateFactor, InputError, MissingFactor
from ahft.validation import _splitmix64_stream, _uniform, redraw_below_one
from oracles import NonPositiveObserved, SplitMix64, ks_statistic, relative_error

CANONICAL_FACTORS = (FactorSpec("f1"), FactorSpec("f2"))
CANONICAL_POOLS = ((0.5, 1.0, 2.0, 5.0), (1.0, 2.0, 5.0))
CANONICAL_TRUTH = (-2.0, 0.3, -0.1)


def _canonical_spec(n, seed, shape=3.0):
    return SyntheticSpec(CANONICAL_TRUTH, shape, CANONICAL_FACTORS,
                         CANONICAL_POOLS, n=n, seed=seed)


def _model(factors, alpha, shape):
    k = len(alpha) + 1
    return GllWeibullModel(factors=factors, alpha=np.asarray(alpha, dtype=float),
                           shape=shape, covariance=np.zeros((k, k)))


# ---------------------------------------------------------------------------
# relative_error
# ---------------------------------------------------------------------------

def test_relative_error_reference_pairs():
    assert relative_error(0.195, 0.216) == pytest.approx(0.1077, abs=1e-4)
    assert relative_error(0.162, 0.175) == pytest.approx(0.0802, abs=1e-4)
    assert relative_error(0.4, 0.4) == 0.0


@given(
    observed=st.floats(min_value=1e-6, max_value=1e6),
    predicted=st.floats(min_value=0.0, max_value=1e6),
)
def test_relative_error_is_the_literal_formula(observed, predicted):
    assert relative_error(observed, predicted) == abs(predicted - observed) / observed


def test_relative_error_rejects_nonpositive_observed():
    with pytest.raises(NonPositiveObserved):
        relative_error(0.0, 0.1)
    with pytest.raises(NonPositiveObserved):
        relative_error(-1.0, 0.1)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_saturated_model_scores_zero():
    alpha = (-2.0, 0.15)
    shape = 2.7
    model = _model((FactorSpec("x"),), alpha, shape)
    p = 1.0 - math.exp(-1.0)  # the quantile at which t_p equals eta exactly
    xs = (1.0, 2.0, 3.0, 4.0, 5.0)
    columns = {"x": xs, "fatigue": [math.exp(alpha[0] + alpha[1] * x) for x in xs]}
    report = evaluate(model, Dataset(("x", "fatigue"), columns), p)
    assert report.mean_relative_error < 1e-12
    assert report.max_relative_error < 1e-12


def test_evaluate_holdout_report(table3_model, table8):
    report = evaluate(table3_model, table8, 0.5)
    assert [r[0] for r in report.rows] == [1, 2, 3, 4, 5]
    for _, observed, predicted, error in report.rows:
        assert 0.0 < predicted < 1.0
        assert error == relative_error(observed, predicted)
    errors = [r[3] for r in report.rows]
    assert report.mean_relative_error == pytest.approx(np.mean(errors), rel=1e-12)
    assert report.max_relative_error == pytest.approx(np.max(errors), rel=1e-12)


def test_evaluate_mean_adds_left_to_right():
    # Python 3.12's sum is compensated; on these errors that moves the last bit.
    model = _model(CANONICAL_FACTORS, CANONICAL_TRUTH, 3.0)
    report = evaluate(model, generate_synthetic(_canonical_spec(50, 0)), 0.5)
    errors = report.relative_error.tolist()
    acc = 0.0
    for e in errors:
        acc += e
    assert acc != math.fsum(errors)
    assert report.mean_relative_error == acc / len(errors)


def test_evaluate_order_independent(table3_model, table8):
    base = evaluate(table3_model, table8, 0.5)
    order = [3, 0, 4, 2, 1]
    shuffled_data = Dataset(table8.column_names,
                            {c: v[order] for c, v in table8.columns.items()})
    shuffled = evaluate(table3_model, shuffled_data, 0.5)
    assert shuffled.mean_relative_error == pytest.approx(base.mean_relative_error, rel=1e-12)
    assert shuffled.max_relative_error == pytest.approx(base.max_relative_error, rel=1e-12)
    # row ids follow the new positions but carry the same (observed, error) pairs
    assert sorted(r[1:] for r in shuffled.rows) == sorted(r[1:] for r in base.rows)


def test_evaluate_missing_factor_column(table3_model):
    columns = {"stress": [1.0], "fatigue": [0.2]}
    with pytest.raises(MissingFactor):
        evaluate(table3_model, Dataset(("stress", "fatigue"), columns), 0.5)


def test_evaluate_sharper_shapes_score_better():
    # same life characteristic, shrinking response dispersion as shape grows
    truth = (-2.6, 0.05, 0.13)
    factors = (FactorSpec("available_time"), FactorSpec("stress"))
    pools = ((0.01, 0.1, 1.0, 10.0), (1.0, 2.0, 5.0))
    means = []
    for shape in (2.0, 5.0, 20.0):
        model = _model(factors, truth, shape)
        holdout = generate_synthetic(
            SyntheticSpec(truth, shape, factors, pools, n=400, seed=909090)
        )
        means.append(evaluate(model, holdout, 0.5).mean_relative_error)
    assert means[0] > means[1] > means[2] > 0.0


# ---------------------------------------------------------------------------
# SplitMix64
# ---------------------------------------------------------------------------

def test_splitmix64_reference_outputs():
    # published outputs of the splitmix64 algorithm for seed 0
    published = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == published
    assert _splitmix64_stream(0, 3).tolist() == published


def test_splitmix64_is_deterministic_per_seed():
    a = [SplitMix64(123).uniform() for _ in range(5)]
    b = [SplitMix64(123).uniform() for _ in range(5)]
    assert a == b
    assert a != [SplitMix64(124).uniform() for _ in range(5)]


TOP_DRAW = (2**53 - 1) << 11  # the least draw whose top 53 bits are all ones


@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
@example(seed=SplitMix64.seed_for(TOP_DRAW, 2))
def test_splitmix64_uniform_strictly_inside_unit_interval(seed):
    rng = SplitMix64(seed)
    for _ in range(4):
        u = rng.uniform()
        assert 0.0 < u < 1.0


def test_uniform_maps_the_top_draw_below_one_and_keeps_every_other():
    draws = np.array([TOP_DRAW, TOP_DRAW | 0x7FF, (2**53 - 2) << 11, 0], dtype=np.uint64)
    assert _uniform(draws).tolist() == [1 - 2**-53, 1 - 2**-53, 1 - 2**-52, 2**-54]
    rng = SplitMix64(SplitMix64.seed_for(TOP_DRAW, 1))
    assert rng.uniform() == 1 - 2**-53


def test_splitmix64_choice_index_bounds():
    rng = SplitMix64(9)
    draws = [rng.choice_index(7) for _ in range(200)]
    assert set(draws) <= set(range(7))
    assert len(set(draws)) == 7  # every cell reached


# ---------------------------------------------------------------------------
# generate_synthetic
# ---------------------------------------------------------------------------

def test_generate_is_deterministic():
    spec = _canonical_spec(25, seed=5)
    assert generate_synthetic(spec) == generate_synthetic(spec)


def test_generate_follows_documented_stream():
    pools = ((1.0, 2.0, 3.0), (10.0, 20.0))
    factors = (FactorSpec("a"), FactorSpec("b"))
    spec = SyntheticSpec((-1.0, 0.2, 0.01), 2.5, factors, pools, n=4, seed=99)
    data = generate_synthetic(spec)
    # replay the documented stream: per row, one pool draw per factor in
    # declaration order, then one uniform for the response
    rng = SplitMix64(99)
    for row_a, row_b, fatigue in zip(*(data.column(c).tolist() for c in ("a", "b", "fatigue"))):
        a = pools[0][rng.choice_index(3)]
        b = pools[1][rng.choice_index(2)]
        u = rng.uniform()
        assert (row_a, row_b) == (a, b)
        eta = math.exp(-1.0 + 0.2 * a + 0.01 * b)
        assert fatigue == pytest.approx(weibull_quantile(eta, 2.5, u), rel=1e-12)


def test_a_spec_without_factors_draws_n_rows():
    # With no factor column, the design takes its row count from n.
    spec = SyntheticSpec((0.5,), 3.0, (), (), n=200, seed=1)
    data = generate_synthetic(spec)
    rng = SplitMix64(1)
    assert data.column("fatigue").tolist() == pytest.approx(
        [weibull_quantile(math.exp(0.5), 3.0, rng.uniform()) for _ in range(200)], rel=1e-12)
    redrawn = redraw_below_one(spec, data)
    assert redrawn.n_rows == 200 and redrawn.column("fatigue").max() < 1.0
    summary = recovery_check(spec)
    assert summary.parameter_names == ("intercept", "shape")
    assert summary.max_abs_z < 3.0


def test_generate_scale_doubling_is_exact():
    base = generate_synthetic(_canonical_spec(60, seed=314))
    doubled_truth = (CANONICAL_TRUTH[0] + math.log(2.0),) + CANONICAL_TRUTH[1:]
    doubled = generate_synthetic(
        SyntheticSpec(doubled_truth, 3.0, CANONICAL_FACTORS, CANONICAL_POOLS, n=60, seed=314)
    )
    for c in base.psf_names:
        assert base.column(c).tolist() == doubled.column(c).tolist()
    for a, b in zip(base.column("fatigue").tolist(), doubled.column("fatigue").tolist()):
        assert b == pytest.approx(2.0 * a, rel=1e-12)


def test_generate_distribution_matches_cdf():
    spec = SyntheticSpec((0.0, 0.0), 1.7, (FactorSpec("c"),), ((1.0,),),
                         n=10_000, seed=424242)
    draws = generate_synthetic(spec).column("fatigue")
    assert ks_statistic(draws, lambda t: weibull_cdf(t, 1.0, 1.7)) < 0.02


def test_redraw_below_one_leaves_a_dataset_below_one_as_it_is():
    data = generate_synthetic(_canonical_spec(200, seed=1))
    assert data.column("fatigue").max() < 1.0
    assert redraw_below_one(_canonical_spec(200, seed=1), data) is data


def test_redraw_below_one_follows_documented_stream():
    pools = ((1.0, 2.0, 3.0), (10.0, 20.0))
    factors = (FactorSpec("a"), FactorSpec("b"))
    spec = SyntheticSpec((-1.0, 0.4, 0.01), 1.5, factors, pools, n=40, seed=99)
    data = generate_synthetic(spec)
    high = np.flatnonzero(data.column("fatigue") >= 1.0).tolist()
    assert len(high) >= 2
    # the j-th row drawn at or above 1 takes draw n(F+1) + j + 1
    rng = SplitMix64(99)
    for _ in range(40 * 3):
        rng.next_u64()
    expected = data.column("fatigue").tolist()
    for i in high:
        a, b = data.column("a")[i], data.column("b")[i]
        eta = math.exp(-1.0 + 0.4 * a + 0.01 * b)
        below_one = weibull_cdf(1.0, eta, 1.5)
        expected[i] = weibull_quantile(eta, 1.5, rng.uniform() * below_one)
    redrawn = redraw_below_one(spec, data)
    for c in ("a", "b"):
        assert redrawn.column(c).tolist() == data.column(c).tolist()
    assert redrawn.column("fatigue").tolist() == pytest.approx(expected, rel=1e-12)
    assert redrawn.column("fatigue").max() < 1.0


def test_redraw_below_one_matches_the_truncated_cdf():
    spec = SyntheticSpec((0.0, 0.0), 1.7, (FactorSpec("c"),), ((1.0,),),
                         n=10_000, seed=424242)
    draws = redraw_below_one(spec, generate_synthetic(spec)).column("fatigue")
    below_one = weibull_cdf(1.0, 1.0, 1.7)
    assert draws.max() < 1.0
    assert ks_statistic(draws, lambda t: weibull_cdf(t, 1.0, 1.7) / below_one) < 0.02


def test_redraw_below_one_caps_a_redraw_that_rounds_to_one():
    # eta = 1, so a third of the rows draw t >= 1; the first redraw (draw
    # 19) is the top draw, whose t = (-ln(1 - u*F(1)))**(1/3) rounds to 1.
    spec = SyntheticSpec((0.0, 0.0), 3.0, (FactorSpec("f1"),), ((1.0,),), n=9,
                         seed=SplitMix64.seed_for(TOP_DRAW, 19))
    data = generate_synthetic(spec)
    first = int(np.flatnonzero(data.column("fatigue") >= 1.0)[0])
    redrawn = redraw_below_one(spec, data).column("fatigue")
    assert redrawn[first] == 1 - 2**-53
    assert redrawn.max() < 1.0


def test_synthetic_spec_validation():
    f = (FactorSpec("a"),)
    with pytest.raises(InputError):
        SyntheticSpec((0.0,), 1.0, f, ((1.0,),), n=0, seed=0)
    with pytest.raises(InputError):
        SyntheticSpec((0.0, 1.0, 2.0), 1.0, f, ((1.0,),), n=5, seed=0)
    with pytest.raises(InputError):
        SyntheticSpec((0.0, 1.0), 1.0, f, (), n=5, seed=0)
    with pytest.raises(InputError):
        SyntheticSpec((0.0, 1.0), 1.0, f, ((),), n=5, seed=0)
    with pytest.raises(InputError):
        SyntheticSpec((0.0, 1.0), -2.0, f, ((1.0,),), n=5, seed=0)
    with pytest.raises(InputError):
        SyntheticSpec((0.0, 1.0), 1.0, f, ("ab",), n=5, seed=0)
    with pytest.raises(InputError, match="value pools must be nonempty numeric sequences"):
        SyntheticSpec((0.0, 1.0), 1.0, f, ((1.0, "x"),), n=5, seed=0)


@pytest.mark.parametrize("n", (2**62, 10**20))
def test_generate_rejects_a_count_too_large_for_its_draws(n):
    # At n = 2**62 the stream's np.arange stops above 2**63 and comes back
    # empty; the count is named instead of a failed reshape.
    with pytest.raises(InputError, match=f"n = {n} is too large"):
        generate_synthetic(_canonical_spec(n, seed=1))


# ---------------------------------------------------------------------------
# recovery_check
# ---------------------------------------------------------------------------

def test_recovery_within_three_sigma():
    summary = recovery_check(_canonical_spec(500, seed=20240601))
    assert summary.max_abs_z < 3.0
    assert len(summary.parameter_names) == 4
    assert summary.model.fit_meta.converged


def test_recovery_small_samples_have_wider_errors():
    small = recovery_check(_canonical_spec(20, seed=31337))
    large = recovery_check(_canonical_spec(500, seed=31337))
    for se_small, se_large in zip(small.standard_errors, large.standard_errors):
        assert se_small > se_large


def test_recovery_requires_ten_rows_per_factor():
    with pytest.raises(InputError):
        recovery_check(_canonical_spec(19, seed=0))


def test_recovery_single_value_pool_propagates_degenerate_factor():
    spec = SyntheticSpec(CANONICAL_TRUTH, 3.0, CANONICAL_FACTORS,
                         ((1.0,), (1.0, 2.0, 5.0)), n=50, seed=1)
    with pytest.raises(DegenerateFactor):
        recovery_check(spec)
