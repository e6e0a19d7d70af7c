"""Hold-out validation, relative-error metrics, and synthetic oracles.

This module is the package's independent check on the fitting code: it
can replay a fitted model against hold-out observations (relative error
per instance), generate synthetic datasets from known parameters, and
verify that fitting recovers those parameters.

Reproducible randomness
-----------------------
Synthetic generation uses SplitMix64, chosen because the whole algorithm
fits in a paragraph and can be re-implemented exactly in any language:

* state: a 64-bit unsigned integer, initialized to ``seed mod 2**64``;
* next(): state += 0x9E3779B97F4A7C15 (mod 2**64); then
  z = state; z ^= z >> 30; z *= 0xBF58476D1CE4E5B9 (mod 2**64);
  z ^= z >> 27; z *= 0x94D049BB133111EB (mod 2**64); z ^= z >> 31;
  return z;
* uniform(0,1): ((next() >> 11) + 0.5) * 2**-53, except that the top
  value (next() >> 11 == 2**53 - 1), which rounds to 1, gives 1 - 2**-53:
  strictly inside (0,1);
* pool draw: pool[next() mod len(pool)].

Per generated row, the draws happen in a fixed order: one pool draw per
factor (factor order), then one uniform for the response.  The response
is the inverse-CDF Weibull sample t = eta(x) * (-ln(1-u))**(1/beta).
Not cryptographic, and not meant to be.

Fatigue lies in (0, 1), so ``simulate`` conditions each response on
t < 1 (:func:`redraw_below_one`): the j-th row (from 0) that drew t >= 1
takes the next draw after the dataset's last, n(F+1) + j + 1, through the
inverse CDF of its Weibull truncated at 1,
t = eta * (-ln(1 - u*F(1)))**(1/beta) with F(1) = 1 - exp(-eta**-beta).
A redrawn t that rounds to 1 is 1 - 2**-53, so every redrawn response is
below 1.  A dataset with no draw >= 1 is left as it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .alt import (
    FactorSpec,
    GllWeibullModel,
    _design,
    _log_eta,
    _percentiles,
    fit_mle,
)
from .dataset import FATIGUE, Dataset
from .errors import InputError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_BELOW_ONE = 1.0 - 2.0 ** -53  # the largest double below 1


def _splitmix64_stream(seed: int, count: int, skip: int = 0) -> np.ndarray:
    """SplitMix64 outputs ``skip + 1`` to ``skip + count`` for ``seed``, as a uint64 array.

    SplitMix64 is counter-based: after k steps the state is
    seed + k*GAMMA (mod 2**64), so draw k is the mix of that state and
    the whole stream is one vectorized expression.  It is evaluated in
    place with one scratch array, since at large counts every temporary
    is a fresh allocation whose pages are touched for the first time.
    """
    z = np.arange(skip + 1, skip + count + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(int(seed) & _MASK64)
    shifted = np.empty_like(z)
    for shift, mix in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, np.uint64(shift), out=shifted)
        z *= np.uint64(mix)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def _uniform(draws: np.ndarray) -> np.ndarray:
    """uniform(0,1) of each draw: ((draw >> 11) + 0.5) * 2**-53, at most 1 - 2**-53.

    Only the top value, ``draw >> 11 == 2**53 - 1``, rounds to 1; the cap
    maps it to 1 - 2**-53 and leaves every other draw's bits as they are.
    """
    u = ((draws >> np.uint64(11)).astype(float) + 0.5) * 2.0 ** -53
    return np.minimum(u, _BELOW_ONE, out=u)


# ---------------------------------------------------------------------------
# Relative error and hold-out evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Per-instance observed and predicted fatigue, relative errors, and their aggregates.

    ``observed``, ``predicted`` and ``relative_error`` are float arrays in
    hold-out row order.
    """

    observed: np.ndarray
    predicted: np.ndarray
    relative_error: np.ndarray
    mean_relative_error: float
    max_relative_error: float

    @property
    def rows(self) -> tuple[tuple[int, float, float, float], ...]:
        """``(instance, observed, predicted, relative error)`` per row; instances count from 1."""
        return tuple(zip(range(1, len(self.observed) + 1), self.observed.tolist(),
                         self.predicted.tolist(), self.relative_error.tolist()))


def evaluate(model: GllWeibullModel, holdout: Dataset, p: float) -> ValidationReport:
    """Score ``model`` on hold-out data at percentile ``p``.

    Each row's prediction is the model's p-quantile at that row's factor
    values; the metric is relative error against the observed fatigue.
    """
    observed = holdout.column(FATIGUE)
    predicted = _percentiles(model, _design(holdout, model.factors), p)
    errors = np.abs(predicted - observed) / observed
    # validation.csv prints the mean to the last bit, so the errors are added
    # left to right: np.mean adds pairwise, and Python's sum compensates
    # from 3.12 on.
    return ValidationReport(observed, predicted, errors,
                            mean_relative_error=errors.cumsum().item(-1) / len(errors),
                            max_relative_error=float(errors.max()))


# ---------------------------------------------------------------------------
# Synthetic generation and parameter recovery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticSpec:
    """Everything needed to generate a synthetic dataset from known truth."""

    true_alpha: tuple[float, ...]           # intercept first
    true_shape: float
    factors: tuple[FactorSpec, ...]
    factor_value_pools: tuple[tuple[float, ...], ...]
    n: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise InputError("n must be at least 1")
        if len(self.true_alpha) != len(self.factors) + 1:
            raise InputError("true_alpha must have one entry per factor plus intercept")
        if len(self.factor_value_pools) != len(self.factors):
            raise InputError("one value pool per factor required")
        for pool in self.factor_value_pools:
            if isinstance(pool, str) or len(pool) == 0:
                raise InputError("value pools must be nonempty numeric sequences")
            if not all(isinstance(v, (int, float)) for v in pool):
                raise InputError("value pools must be nonempty numeric sequences")
        if not (0 < self.true_shape < math.inf):
            raise InputError(f"true_shape must be positive and finite, got {self.true_shape!r}")


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Draw a dataset from the exact model the fitter assumes.

    Deterministic per seed (see the module docstring for the stream
    layout).  The response column is named ``fatigue``; responses are
    Weibull draws around eta(x) and are clipped nowhere, so callers
    picking parameters should keep eta well inside (0, 1) if they need
    valid fatigue values.
    """
    width = len(spec.factors) + 1
    # numpy indexes no array of more bytes than intp holds; at such a size
    # np.arange of the draws can even come back empty.
    if spec.n * width * 8 > np.iinfo(np.intp).max:
        raise InputError(f"n = {spec.n} is too large for an array of its {width} draws a row")
    draws = _splitmix64_stream(spec.seed, spec.n * width).reshape(spec.n, width)
    columns = {}
    for f, pool, draw in zip(spec.factors, spec.factor_value_pools, draws.T):
        columns[f.name] = np.array([float(v) for v in pool])[draw % np.uint64(len(pool))]
    u = _uniform(draws[:, -1])
    log_eta = _log_eta(_design(columns, spec.factors, spec.n),
                       np.asarray(spec.true_alpha, dtype=float))
    # math, not numpy: numpy's vectorized exp, log1p and power may differ
    # from the C library in the last bit, and the stream is defined by
    # weibull_quantile's scalar arithmetic.
    inverse_shape = 1.0 / spec.true_shape
    try:
        fatigue = [math.exp(s) * (-math.log1p(-v)) ** inverse_shape
                   for s, v in zip(log_eta.tolist(), u.tolist())]
    except OverflowError:
        raise InputError("synthetic responses overflow: lower true_alpha or raise true_shape") from None
    columns[FATIGUE] = fatigue
    return Dataset([f.name for f in spec.factors], columns)


def redraw_below_one(spec: SyntheticSpec, data: Dataset) -> Dataset:
    """``data`` (from ``generate_synthetic(spec)``) with every response >= 1 redrawn below 1.

    Each such row gets an exact draw from its Weibull conditioned on
    t < 1, from the stream's draws after the dataset's last (see the
    module docstring), capped at 1 - 2**-53 where it rounds to 1; its
    factors stay as they are.  With no response >= 1, ``data`` itself is
    returned.
    """
    fatigue = data.column(FATIGUE)
    rows = np.flatnonzero(fatigue >= 1.0)
    if not len(rows):
        return data
    columns = data.columns
    u = _uniform(_splitmix64_stream(spec.seed, len(rows), skip=spec.n * (len(spec.factors) + 1)))
    factors = {f.name: columns[f.name][rows] for f in spec.factors}
    log_eta = _log_eta(_design(factors, spec.factors, len(rows)),
                       np.asarray(spec.true_alpha, dtype=float))
    # Scalar math, as in generate_synthetic.  A row drew t >= 1, so
    # eta**-beta <= -ln(1 - u) <= 54 ln 2 and the inner exp cannot overflow.
    shape = spec.true_shape
    redrawn = fatigue.copy()
    for i, s, v in zip(rows.tolist(), log_eta.tolist(), u.tolist()):
        below_one = -math.expm1(-math.exp(-shape * s))
        t = math.exp(s) * (-math.log1p(-v * below_one)) ** (1.0 / shape)
        if not t > 0.0:  # F(1) or the draw underflowed
            raise InputError(
                f"row {i + 1}: ln(eta) = {s!r} puts fatigue below 1 out of floating-point "
                f"reach; lower true_alpha"
            )
        redrawn[i] = min(t, _BELOW_ONE)
    columns[FATIGUE] = redrawn
    return Dataset(data.column_names, columns)


@dataclass(frozen=True)
class RecoverySummary:
    """Truth vs estimate for every parameter of a synthetic refit."""

    parameter_names: tuple[str, ...]         # intercept, factors..., shape (log scale)
    truth: tuple[float, ...]                 # (alpha..., ln shape)
    estimates: tuple[float, ...]
    standard_errors: tuple[float, ...]
    z_scores: tuple[float, ...]              # (estimate - truth) / se
    model: GllWeibullModel

    @property
    def max_abs_z(self) -> float:
        return max(abs(z) for z in self.z_scores)


def recovery_check(spec: SyntheticSpec) -> RecoverySummary:
    """Generate from known truth, refit, and report the discrepancies.

    The shape is compared on the log scale, matching the covariance
    parameterization, so its z-score uses se(ln shape).  Requires at
    least ten rows per factor coefficient; below that the asymptotic
    standard errors the summary reports are not worth printing.
    """
    if spec.n < 10 * max(1, len(spec.factors)):
        raise InputError("recovery checks need at least ten rows per factor")
    data = generate_synthetic(spec)
    model = fit_mle(data, spec.factors)
    truth = tuple(spec.true_alpha) + (math.log(spec.true_shape),)
    estimates = tuple(model.alpha) + (math.log(model.shape),)
    ses = tuple(float(s) for s in model.standard_errors)
    z_scores = tuple(
        (est - tru) / se if se > 0 else math.inf
        for est, tru, se in zip(estimates, truth, ses)
    )
    return RecoverySummary(
        parameter_names=model.parameter_names,
        truth=truth,
        estimates=estimates,
        standard_errors=ses,
        z_scores=z_scores,
        model=model,
    )
