"""Interval coverage as an oracle: how often each interval covers the truth.

R seeded README-sized datasets (n = 200, the README pools, shape 3,
intercept -2) are fitted with one ``:log`` factor.  At that intercept no
response reaches 1, so ``simulate`` would redraw none and the fitted
likelihood is the law the data follow.  For each kind of interval and
each confidence level the number of datasets whose interval covers the
true value must lie in the two-sided binomial acceptance band of
Binomial(R, level) at a false-alarm rate of ``FALSE_ALARM``.  The
intervals are the ones ``predict`` and ``fit`` write:
``predict_with_interval`` for a percentile, ``coef_ci`` for each
coefficient and ``positive_param_ci`` for the shape.
"""

import math

import pytest

from ahft import FactorSpec, fit_mle
from ahft.alt import coef_ci, positive_param_ci, predict_with_interval, weibull_quantile
from ahft.validation import SyntheticSpec, generate_synthetic

R = 400
N = 200
SEED0 = 5000
TRUE_ALPHA = (-2.0, 0.3, -0.1)
TRUE_SHAPE = 3.0
SPECS = (FactorSpec("f1", "log"), FactorSpec("f2"))
POOLS = ((0.5, 1.0, 2.0, 5.0), (1.0, 2.0, 5.0))
AT = {"f1": 2.0, "f2": 2.0}
LEVELS = (0.8, 0.95)
PERCENTILES = (0.1, 0.5, 0.9)
FALSE_ALARM = 1e-4


def binomial_band(r: int, level: float, false_alarm: float) -> tuple[int, int]:
    """The counts [lo, hi] outside which Binomial(r, level) falls with probability <= false_alarm.

    Each tail below lo and above hi holds at most half of ``false_alarm``.
    """
    pmf = [math.comb(r, k) * level ** k * (1.0 - level) ** (r - k) for k in range(r + 1)]
    lo, below = 0, 0.0
    while below + pmf[lo] <= false_alarm / 2.0:
        below += pmf[lo]
        lo += 1
    hi, above = r, 0.0
    while above + pmf[hi] <= false_alarm / 2.0:
        above += pmf[hi]
        hi -= 1
    return lo, hi


def test_binomial_band():
    assert binomial_band(10, 0.5, 0.0) == (0, 10)
    # P(X = 0) = P(X = 10) = 1/1024; P(X <= 1) = 11/1024.
    assert binomial_band(10, 0.5, 2 * 1 / 1024) == (1, 9)
    assert binomial_band(10, 0.5, 2 * 11 / 1024) == (2, 8)
    lo, hi = binomial_band(R, 0.9, FALSE_ALARM)
    assert lo < 0.9 * R < hi and hi - lo < 60


@pytest.fixture(scope="module")
def fits():
    models = []
    for i in range(R):
        spec = SyntheticSpec(TRUE_ALPHA, TRUE_SHAPE, SPECS, POOLS, N, SEED0 + i)
        data = generate_synthetic(spec)
        assert data.column("fatigue").max() < 1.0  # simulate would redraw no row
        models.append(fit_mle(data, SPECS))
    return models


def _assert_in_band(covered: int, level: float):
    lo, hi = binomial_band(R, level, FALSE_ALARM)
    assert lo <= covered <= hi, f"{covered} of {R} intervals cover; band [{lo}, {hi}]"


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("p", PERCENTILES)
def test_percentile_interval_coverage(fits, p, level):
    eta = math.exp(TRUE_ALPHA[0] + TRUE_ALPHA[1] * math.log(AT["f1"]) + TRUE_ALPHA[2] * AT["f2"])
    truth = weibull_quantile(eta, TRUE_SHAPE, p)
    predictions = [predict_with_interval(m, AT, p, level) for m in fits]
    _assert_in_band(sum(q.ci_lower <= truth <= q.ci_upper for q in predictions), level)


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("j", range(len(TRUE_ALPHA)))
def test_coefficient_interval_coverage(fits, j, level):
    covered = 0
    for m in fits:
        lower, upper = coef_ci(float(m.alpha[j]), float(m.standard_errors[j]), level)
        covered += lower <= TRUE_ALPHA[j] <= upper
    _assert_in_band(covered, level)


@pytest.mark.parametrize("level", LEVELS)
def test_shape_interval_coverage(fits, level):
    covered = 0
    for m in fits:
        se = m.shape * float(m.standard_errors[-1])  # the delta-method SE regression.csv reports
        lower, upper = positive_param_ci(m.shape, se, level)
        covered += lower <= TRUE_SHAPE <= upper
    _assert_in_band(covered, level)

