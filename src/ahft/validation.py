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
* uniform(0,1): ((next() >> 11) + 0.5) * 2**-53 — strictly inside (0,1);
* pool draw: pool[next() mod len(pool)].

Per generated row, the draws happen in a fixed order: one pool draw per
factor (factor order), then one uniform for the response.  The response
is the inverse-CDF Weibull sample t = eta(x) * (-ln(1-u))**(1/beta).
Not cryptographic, and not meant to be.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .alt import (
    FactorSpec,
    FitConfig,
    GllWeibullModel,
    _design,
    _log_eta,
    _percentiles,
    fit_mle,
)
from .dataset import FATIGUE, Dataset
from .errors import InputError, NonPositiveObserved

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix64_stream(seed: int, count: int) -> np.ndarray:
    """The first ``count`` outputs of ``SplitMix64(seed)`` as a uint64 array.

    SplitMix64 is counter-based: after k steps the state is
    seed + k*GAMMA (mod 2**64), so draw k is the mix of that state and
    the whole stream is one vectorized expression.  It is evaluated in
    place with one scratch array, since at large counts every temporary
    is a fresh allocation whose pages are touched for the first time.
    """
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(int(seed) & _MASK64)
    shifted = np.empty_like(z)
    for shift, mix in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, np.uint64(shift), out=shifted)
        z *= np.uint64(mix)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


class SplitMix64:
    """The tiny deterministic generator documented in the module docstring."""

    def __init__(self, seed: int):
        self.state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """A float strictly inside (0, 1), from the top 53 bits."""
        return ((self.next_u64() >> 11) + 0.5) * 2.0 ** -53

    def choice_index(self, n: int) -> int:
        return self.next_u64() % n


# ---------------------------------------------------------------------------
# Relative error and hold-out evaluation
# ---------------------------------------------------------------------------

def relative_error(observed: float, predicted: float) -> float:
    """|predicted - observed| / observed, the per-instance validation metric."""
    if not (observed > 0 and math.isfinite(observed)):
        raise NonPositiveObserved(f"observed value must be positive, got {observed!r}")
    return abs(predicted - observed) / observed


@dataclass(frozen=True)
class ValidationReport:
    """Per-instance predicted vs observed fatigue, with aggregates."""

    rows: tuple[tuple[int, float, float, float], ...]  # (id, observed, predicted, rel err)
    mean_relative_error: float
    max_relative_error: float

    def __post_init__(self):
        errors = [r[3] for r in self.rows]
        if any(e < 0 for e in errors):
            raise InputError("relative errors must be nonnegative")
        if errors:
            if abs(self.mean_relative_error - sum(errors) / len(errors)) > 1e-12:
                raise InputError("mean_relative_error inconsistent with rows")
            if abs(self.max_relative_error - max(errors)) > 1e-12:
                raise InputError("max_relative_error inconsistent with rows")


def evaluate(model: GllWeibullModel, holdout: Dataset, p: float) -> ValidationReport:
    """Score ``model`` on hold-out data at percentile ``p``.

    Each row's prediction is the model's p-quantile at that row's factor
    values; the metric is relative error against the observed fatigue.
    Row ids are 1-based positions in the hold-out dataset.
    """
    observed = holdout.column(FATIGUE)
    predicted = _percentiles(model, holdout, p)
    errors = (np.abs(predicted - observed) / observed).tolist()
    return ValidationReport(
        rows=tuple(zip(range(1, holdout.n_rows + 1), observed.tolist(),
                       predicted.tolist(), errors)),
        mean_relative_error=sum(errors) / len(errors),
        max_relative_error=max(errors),
    )


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
        if not (self.true_shape > 0):
            raise InputError("true_shape must be positive")


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Draw a dataset from the exact model the fitter assumes.

    Deterministic per seed (see the module docstring for the stream
    layout).  The response column is named ``fatigue``; responses are
    Weibull draws around eta(x) and are clipped nowhere, so callers
    picking parameters should keep eta well inside (0, 1) if they need
    valid fatigue values.
    """
    width = len(spec.factors) + 1
    draws = _splitmix64_stream(spec.seed, spec.n * width).reshape(spec.n, width)
    columns = {}
    for f, pool, draw in zip(spec.factors, spec.factor_value_pools, draws.T):
        columns[f.name] = np.array([float(v) for v in pool])[draw % np.uint64(len(pool))]
    u = ((draws[:, -1] >> np.uint64(11)).astype(float) + 0.5) * 2.0 ** -53
    log_eta = _log_eta(_design(columns, spec.factors), np.asarray(spec.true_alpha, dtype=float))
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
    return Dataset(tuple(f.name for f in spec.factors) + (FATIGUE,), columns)


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


def recovery_check(spec: SyntheticSpec, config: FitConfig | None = None) -> RecoverySummary:
    """Generate from known truth, refit, and report the discrepancies.

    The shape is compared on the log scale, matching the covariance
    parameterization, so its z-score uses se(ln shape).  Requires at
    least ten rows per factor coefficient; below that the asymptotic
    standard errors the summary reports are not worth printing.
    """
    if spec.n < 10 * max(1, len(spec.factors)):
        raise InputError("recovery checks need at least ten rows per factor")
    data = generate_synthetic(spec)
    model = fit_mle(data, spec.factors, response=FATIGUE, config=config)
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
