"""Weibull log-linear accelerated-life model of fatigue.

The life characteristic (Weibull scale) is log-linear in the transformed
factors::

    eta(x) = exp(a0 + sum_j aj * g_j(x_j))

with g_j one of identity, natural log (inverse-power-law form) or
reciprocal (Arrhenius form).  Each observation's response t_i (here: the
fatigue value accumulated over the observation window) is an exact
Weibull(eta_i, beta) lifetime, giving the log-likelihood

    l = sum_i [ ln(beta) - beta*ln(eta_i) + (beta-1)*ln(t_i)
                - (t_i / eta_i)**beta ].

Fitting works on theta = (alpha, phi) with phi = ln(beta), so the shape
stays positive without constraints.  Writing u_i = ln(t_i) - z_i.alpha
(z_i the design row with leading 1) each term becomes

    l_i = phi + beta*u_i - ln(t_i) - exp(beta*u_i)

whose gradient and Hessian are closed-form:

    dl/da_k  = beta * sum_i z_ik * (exp(beta*u_i) - 1)
    dl/dphi  = sum_i [ 1 + beta*u_i * (1 - exp(beta*u_i)) ]
    H[aa]    = -beta^2 * Z' diag(exp(beta*u)) Z
    H[aphi]  = beta * Z' (exp(beta*u)*(1 + beta*u) - 1)
    H[pp]    = sum_i [ beta*u_i*(1 - exp(beta*u_i))
                       - (beta*u_i)**2 * exp(beta*u_i) ]

Newton steps with step-halving maximize l; the parameter covariance is
the inverse observed information (negative Hessian) at the optimum, in
the (alpha, ln beta) parameterization.  Quantile prediction inverts the
Weibull CDF at the requested percentile, t_p = eta * (-ln(1-p))**(1/beta),
with a delta-method standard error.

The fit's output is fixed to the bit, and two kinds of operation carry
those bits: the BLAS calls on their operands as they stand (the gemv
``z @ alpha`` and ``z.T @ v``, and the gemm ``ze.T @ z`` on the
C-contiguous ``(n, k)`` buffer of ``z * e[:, None]``), and the
elementwise ops and sums in the order the formulas above are written.
One workspace per fit holds the n-vectors, which every step writes
with ``out=``.  The product ``z * e`` is not kept in a ``(k, n)`` layout,
although that would fill faster: ``zet @ z`` calls BLAS with other
transpose flags, whose kernel may round the last bit differently.
The line search's O(k) likelihood bound carries no bits: it only skips
trials whose O(n) evaluation would be rejected, and every accepted
trial is still evaluated in full.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .dataset import DURATION, FATIGUE, Dataset, _decode, normalize_name, write_artifact
from .errors import (
    DegenerateFactor,
    InputError,
    MissingFactor,
    NoConvergence,
    NonPositiveSE,
    NonPositiveValue,
    SingularInformation,
    TooFewRows,
    TransformDomainError,
)

# Default prediction percentile: the distribution median.
DEFAULT_PERCENTILE = 0.5
DEFAULT_CONFIDENCE = 0.99
# A fit has converged when every gradient entry is below this in magnitude.
GRADIENT_TOL = 1e-8
# fit warns when the estimates' covariance scaled to unit diagonal, their
# correlation matrix, has a condition number above this.  For two estimates
# it is (1 + |r|) / (1 - |r|), so 1e6 means |r| > 1 - 2e-6: the data pin a
# combination of the coefficients, not the coefficients.
CONDITION_WARN = 1e6
_LOG_MAX = math.log(sys.float_info.max)  # exp overflows above it

TRANSFORMS = ("identity", "log", "reciprocal")
_TRANSFORM_ALIASES = {
    "identity": "identity", "id": "identity", "none": "identity",
    "log": "log", "ln": "log", "natural-log": "log", "natural_log": "log",
    "reciprocal": "reciprocal", "inverse": "reciprocal",
}


@dataclass(frozen=True)
class FactorSpec:
    """One model factor: a PSF column name plus its covariate transform.

    The names of the response and duration columns are reserved: a model
    of the response on itself, or a synthetic file with two columns of
    one name, is refused here, for the CLI, the library and saved models.
    So is a name with no ASCII letter or digit, which no column can match.
    """

    name: str
    transform: str = "identity"

    def __post_init__(self):
        name = normalize_name(self.name)
        if not name:
            raise InputError(f"factor name {self.name!r} has no ASCII letter or digit")
        object.__setattr__(self, "name", name)
        if self.name in (FATIGUE, DURATION):
            raise InputError(
                f"factor {self.name!r} is a reserved column name: "
                f"{FATIGUE!r} is the response and {DURATION!r} the reading duration"
            )
        key = _TRANSFORM_ALIASES.get(str(self.transform).strip().lower())
        if key is None:
            raise InputError(
                f"unknown transform {self.transform!r} for factor {self.name!r}; "
                f"choose one of {TRANSFORMS}"
            )
        object.__setattr__(self, "transform", key)

    def apply(self, values):
        """Apply the transform, checking its domain."""
        values = np.asarray(values, dtype=float)
        if self.transform == "identity":
            return values
        if np.any(values <= 0.0):
            raise TransformDomainError(
                f"factor {self.name!r}: {self.transform} transform requires "
                f"strictly positive values"
            )
        if self.transform == "log":
            return np.log(values)
        return 1.0 / values


def parse_factor(text: str) -> FactorSpec:
    """Parse ``name`` or ``name:transform`` (CLI syntax) into a FactorSpec."""
    name, sep, transform = text.partition(":")
    if not name.strip():
        raise InputError(f"empty factor name in {text!r}")
    return FactorSpec(name, transform if sep else "identity")


@dataclass(frozen=True)
class FitMeta:
    log_likelihood: float
    iterations: int
    converged: bool


@dataclass(frozen=True, eq=False)
class GllWeibullModel:
    """A fitted (or hand-built) Weibull log-linear model.

    ``alpha[0]`` is the intercept; ``alpha[j]`` matches ``factors[j-1]``.
    ``covariance`` is over (alpha..., ln shape), so its last row/column
    refers to the log of the shape.  Immutable; safe to share.
    """

    factors: tuple[FactorSpec, ...]
    alpha: np.ndarray
    shape: float
    covariance: np.ndarray
    fit_meta: FitMeta | None = None

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "covariance", cov)
        k = len(self.factors) + 1
        if alpha.shape != (k,):
            raise InputError(f"alpha must have length {k}, got {alpha.shape}")
        if not (self.shape > 0 and math.isfinite(self.shape)):
            raise NonPositiveValue(f"shape must be positive, got {self.shape!r}")
        if cov.shape != (k + 1, k + 1):
            raise InputError(f"covariance must be {(k + 1, k + 1)}, got {cov.shape}")
        if np.max(np.abs(cov - cov.T)) > 1e-8:
            raise InputError("covariance must be symmetric within 1e-8")

    @property
    def parameter_names(self) -> tuple[str, ...]:
        return ("intercept",) + tuple(f.name for f in self.factors) + ("shape",)

    @property
    def standard_errors(self) -> np.ndarray:
        """SEs of (alpha..., ln shape) from the covariance diagonal."""
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))


# ---------------------------------------------------------------------------
# Design matrix and likelihood internals
# ---------------------------------------------------------------------------

def _design(data, factors: tuple[FactorSpec, ...], n: int = 1) -> np.ndarray:
    """The design matrix z = [1, g_1(x_1), ...], one row per point.

    ``data`` is a :class:`Dataset` or a mapping from factor name to one
    value or to an array of values; other keys, and keys that are not
    str, are not read.  Names are matched after :func:`normalize_name`.
    Single values broadcast against arrays; with no factor array z has
    ``n`` rows, or the Dataset's.  A factor without values raises
    :class:`MissingFactor`; values that are no numbers, or arrays that are
    not of one length and one dimension, raise :class:`InputError`.
    """
    if isinstance(data, Dataset):
        data, n = data.columns, data.n_rows
    values = {normalize_name(k): v for k, v in data.items() if isinstance(k, str)}
    columns = []
    for f in factors:
        if f.name not in values:
            raise MissingFactor(f"no value supplied for factor {f.name!r}")
        try:
            column = np.asarray(values[f.name], dtype=float)
        except (TypeError, ValueError):
            raise InputError(
                f"factor {f.name!r} needs numbers, got {values[f.name]!r}") from None
        columns.append(f.apply(column))
    try:  # a shape that does not broadcast, or has more than one axis
        (rows,) = np.broadcast_shapes(*(c.shape for c in columns)) or (n,)
    except ValueError:
        shapes = ", ".join(f"{f.name!r} {c.shape}" for f, c in zip(factors, columns))
        raise InputError(
            f"factor values must be single numbers or 1-D arrays of one length, "
            f"got shapes {shapes}") from None
    z = np.empty((rows, len(factors) + 1))
    z[:, 0] = 1.0
    for j, column in enumerate(columns, start=1):
        z[:, j] = column
    return z


def _response(dataset: Dataset, response: str) -> np.ndarray:
    """The lifetimes; :class:`Dataset` has checked that fatigue is positive and finite."""
    return dataset.column(response)


class _Workspace:
    """The log-likelihood and its derivatives over one fit's ``z`` and ``ln t``.

    The n-vectors ``u``, ``bu`` and ``e = exp(bu)``, two scratch vectors
    and the C-contiguous ``(n, k)`` buffer of ``z * e[:, None]`` are made
    once, and every step writes into them with ``out=``.  ``key`` holds
    the bytes of the theta whose ``u``, ``bu`` and ``e`` the buffers hold,
    set only by a :meth:`loglik` whose total is finite, so its exp did not
    overflow.  :meth:`derivatives` at that theta, as after an accepted
    line-search trial, reuses them; anywhere else it computes them with
    its own exp, which warns on overflow.
    """

    __slots__ = ("z", "logt", "u", "bu", "e", "s1", "s2", "ze", "key", "sums")

    def __init__(self, z: np.ndarray, logt: np.ndarray):
        self.z, self.logt = z, logt
        self.u, self.bu, self.e, self.s1, self.s2 = np.empty((5, len(logt)))
        self.ze = np.empty(z.shape)
        self.key = self.sums = None

    def _terms(self, theta: np.ndarray, beta: float) -> None:
        """u = ln t - z.alpha and bu = beta * u into their buffers."""
        self.key = None
        np.matmul(self.z, theta[:-1], out=self.u)
        np.subtract(self.logt, self.u, out=self.u)
        np.multiply(beta, self.u, out=self.bu)

    def loglik(self, theta: np.ndarray) -> float:
        phi = theta[-1]
        if phi > 700.0:  # exp would overflow; such a trial is never an optimum
            return -math.inf
        self._terms(theta, math.exp(phi))
        bu, e, s = self.bu, self.e, self.s1
        with np.errstate(over="ignore"):
            np.exp(bu, out=e)
            np.add(phi, bu, out=s)
            np.subtract(s, self.logt, out=s)
            np.subtract(s, e, out=s)
            total = float(np.sum(s))
        if not math.isfinite(total):
            return -math.inf
        self.key = theta.tobytes()
        return total

    def upper_bound(self, theta: np.ndarray) -> float:
        """A float that :meth:`loglik` at ``theta`` never exceeds, from O(k) work.

        Jensen's inequality sum exp(b_i) >= n*exp(B/n), with b_i = beta*u_i and
        B = sum b_i = beta*(S - alpha.Z) (S = sum ln t_i, Z = sum z_i), gives
        l <= n*phi + B - S - n*exp(B/n).  Rounding, with u = 2**-53, S1 and Z1
        the sums of |ln t_i| and |z_i|, D = beta*(S1 + |alpha|.Z1) and exp
        taken to err by 4 ulp: B misses the sum of the evaluated b_i by
        (n+2k+6)u*D, and loglik's total misses the exact one over those b_i by
        (n+2)u*(n|phi| + D + S1 + sum exp(b_i)).  tol = 16(n+k+8)u covers each
        share with room left for this expression's own rounding: B enters the
        exp lowered by tol*D, the exp term shrinks by 1 - tol*(1+|m|) (3u|m|
        of it for the rounded argument m), and tol*(n|phi| + S1 + 2D) is
        added.  An underflow errs by far less than tol*(D + n|phi|).
        """
        phi = float(theta[-1])
        if phi > 700.0:
            return -math.inf  # as loglik
        if self.sums is None:
            with np.errstate(over="ignore", invalid="ignore"):
                self.sums = (float(np.sum(self.logt)), float(np.sum(np.abs(self.logt))),
                             self.z.sum(axis=0).tolist(), np.abs(self.z).sum(axis=0).tolist())
        s, s1, z_sum, z1 = self.sums
        alpha, n = theta[:-1].tolist(), len(self.logt)
        beta = math.exp(phi)
        a = sum(abs(x) * y for x, y in zip(alpha, z1))
        d = beta * (s1 + a)
        if not d + a < 1e300:  # loglik's products might overflow and warn
            return math.inf
        tol = (n + len(alpha) + 8) * 2.0**-49
        b = beta * (s - sum(x * y for x, y in zip(alpha, z_sum)))
        m = (b - tol * d) / n  # at most the mean evaluated b_i
        if m > _LOG_MAX:  # the largest b_i's exp is inf, so loglik is -inf
            return -math.inf
        # capped: n*exp(m) past the largest float would give -inf, and loglik may be finite
        e = min((1.0 - tol * (1.0 + abs(m))) * n * math.exp(m), sys.float_info.max)
        return n * phi + b - s + tol * (n * abs(phi) + s1 + 2.0 * d) - e

    def derivatives(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian of the log-likelihood from one exp(beta*u)."""
        z, bu, e, s1, s2, ze = self.z, self.bu, self.e, self.s1, self.s2, self.ze
        phi = theta[-1]
        beta = math.exp(phi)
        if theta.tobytes() != self.key:
            self._terms(theta, beta)
            np.exp(bu, out=e)
        np.subtract(e, 1.0, out=s1)
        g_alpha = beta * (z.T @ s1)
        np.subtract(1.0, e, out=s1)
        np.multiply(bu, s1, out=s1)         # bu * (1 - e), used twice
        np.add(1.0, s1, out=s2)
        g_phi = float(np.sum(s2))
        k = z.shape[1]
        h = np.empty((k + 1, k + 1))
        for j in range(k):
            np.multiply(z[:, j], e, out=ze[:, j])
        h[:k, :k] = -(beta * beta) * (ze.T @ z)
        np.add(1.0, bu, out=s2)
        np.multiply(e, s2, out=s2)
        np.subtract(s2, 1.0, out=s2)
        cross = beta * (z.T @ s2)
        h[:k, k] = cross
        h[k, :k] = cross
        np.multiply(bu, bu, out=s2)
        np.multiply(s2, e, out=s2)
        np.subtract(s1, s2, out=s1)
        h[k, k] = float(np.sum(s1))
        return np.concatenate([g_alpha, [g_phi]]), h


def _loglik(theta: np.ndarray, z: np.ndarray, logt: np.ndarray) -> float:
    return _Workspace(z, logt).loglik(theta)


def _derivatives(theta: np.ndarray, z: np.ndarray,
                 logt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return _Workspace(z, logt).derivatives(theta)


# ---------------------------------------------------------------------------
# Public likelihood and fitting
# ---------------------------------------------------------------------------

def log_likelihood(model: GllWeibullModel, dataset: Dataset) -> float:
    """Exact-observation Weibull log-likelihood of ``dataset``'s fatigue under ``model``."""
    t = _response(dataset, FATIGUE)
    z = _design(dataset, model.factors)
    theta = np.concatenate([model.alpha, [math.log(model.shape)]])
    return _loglik(theta, z, np.log(t))


def fit_mle(dataset: Dataset, factors, max_iterations: int = 200) -> GllWeibullModel:
    """Maximum-likelihood fit of the Weibull log-linear model of ``dataset``'s fatigue.

    ``factors`` may be FactorSpec instances or plain names (identity
    transform).  Deterministic: identical inputs give bit-identical
    models.  Raises :class:`NoConvergence` with diagnostics when the
    gradient has not met :data:`GRADIENT_TOL` within ``max_iterations``
    Newton iterations, :class:`DegenerateFactor` when a transformed
    factor column is constant or a linear combination of the intercept
    and the columns before it, and :class:`SingularInformation` when the
    observed information cannot be inverted.
    """
    if max_iterations < 1:
        raise InputError("max_iterations must be at least 1")
    specs = tuple(f if isinstance(f, FactorSpec) else FactorSpec(str(f)) for f in factors)
    n_params = len(specs) + 2
    if dataset.n_rows < n_params + 1:
        raise TooFewRows(
            f"need at least {n_params + 1} rows to fit {n_params} parameters, "
            f"have {dataset.n_rows}"
        )
    t = _response(dataset, FATIGUE)
    z = _design(dataset, specs)
    for j, spec in enumerate(specs, start=1):
        if np.ptp(z[:, j]) == 0.0:
            raise DegenerateFactor(
                f"factor {spec.name!r} is constant after its {spec.transform} transform"
            )
    if np.linalg.matrix_rank(z) < z.shape[1]:
        j = next(j for j in range(1, z.shape[1]) if np.linalg.matrix_rank(z[:, :j + 1]) <= j)
        raise DegenerateFactor(
            f"factor {specs[j - 1].name!r} is a linear combination of the intercept "
            "and the factors before it, after their transforms"
        )
    logt = np.log(t)

    work = _Workspace(z, logt)
    theta = np.zeros(n_params)
    theta[0] = math.log(float(np.mean(t)))
    ll = work.loglik(theta)
    for iterations in range(1, max_iterations + 1):
        g, h = work.derivatives(theta)
        grad_norm = float(np.max(np.abs(g)))
        if grad_norm < GRADIENT_TOL:
            break
        step = None
        try:
            candidate = np.linalg.solve(h, -g)
            if np.all(np.isfinite(candidate)) and float(candidate @ g) > 0.0:
                step = candidate
        except np.linalg.LinAlgError:
            pass
        if step is None:
            # Hessian unusable here; fall back to a scaled ascent step.
            step = g / max(1.0, grad_norm)
        scale = 1.0
        # Ties are accepted: near the optimum the Newton step improves the
        # objective by less than one ulp, and rejecting it would strand the
        # gradient just above tolerance.
        floor = ll - 1e-12 * max(1.0, abs(ll))
        for _ in range(60):
            trial = theta + scale * step
            # A trial whose O(k) bound is below the floor skips the O(n) pass.
            if not work.upper_bound(trial) < floor:
                ll_trial = work.loglik(trial)
                if math.isfinite(ll_trial) and ll_trial >= floor:
                    theta, ll = trial, ll_trial
                    break
            scale *= 0.5
        else:
            break  # no ascent direction left; final gradient check decides
    else:
        # The budget ran out after a step moved theta: evaluate the end point.
        g, h = work.derivatives(theta)
        grad_norm = float(np.max(np.abs(g)))

    if not grad_norm < GRADIENT_TOL:
        raise NoConvergence(
            f"fit did not converge in {iterations} iterations "
            f"(gradient max-norm {grad_norm:.3e})",
            diagnostics={
                "iterations": iterations,
                "gradient_max_norm": grad_norm,
                "theta": theta.tolist(),
                "log_likelihood": ll,
            },
        )

    information = -h
    try:
        covariance = np.linalg.inv(information)
    except np.linalg.LinAlgError:
        raise SingularInformation(
            "observed information matrix is singular at the optimum"
        ) from None
    if not np.all(np.isfinite(covariance)):
        raise SingularInformation("observed information produced non-finite covariance")
    covariance = (covariance + covariance.T) / 2.0

    return GllWeibullModel(
        factors=specs,
        alpha=theta[:-1].copy(),
        shape=math.exp(theta[-1]),
        covariance=covariance,
        fit_meta=FitMeta(log_likelihood=ll, iterations=iterations, converged=True),
    )


# ---------------------------------------------------------------------------
# Wald statistics and confidence intervals
# ---------------------------------------------------------------------------

def _z_quantile(level: float) -> float:
    """The standard normal quantile at (1 + level) / 2, for a central interval."""
    if not (0.0 < level < 1.0):
        raise InputError(f"confidence level must lie in (0, 1), got {level!r}")
    p = (1.0 + level) / 2.0
    if p == 1.0:
        raise InputError(f"confidence level {level!r} is too close to 1 for a finite interval")
    return _normal_quantile(p)


# NormalDist.inv_cdf evaluates Wichura's AS241 with this routine of CPython's
# C module _statistics, which loads in 0.3 ms where statistics takes 3 to 5.
try:
    from _statistics import _normal_dist_inv_cdf
except ImportError:  # an interpreter without the C module: statistics' own
    from statistics import _normal_dist_inv_cdf


def _normal_quantile(p: float) -> float:
    """The standard normal quantile of ``p`` in (0, 1): ``NormalDist().inv_cdf(p)``."""
    return _normal_dist_inv_cdf(p, 0.0, 1.0)


def correlation_condition(covariance: np.ndarray) -> float:
    """The condition number of ``covariance`` scaled to unit diagonal: its
    largest eigenvalue over its smallest; inf where a variance or an
    eigenvalue is not positive."""
    variances = np.diag(covariance)
    if not np.all(variances > 0.0):
        return math.inf
    scale = np.sqrt(variances)
    low, *_, high = np.linalg.eigvalsh(covariance / scale[:, None] / scale)
    return float(high / low) if low > 0.0 else math.inf


def wald_stats(coef: float, se: float) -> tuple[float, float]:
    """Wald z = coef/se and its two-sided normal p-value."""
    if not (se > 0):
        raise NonPositiveSE(f"standard error must be positive, got {se!r}")
    z = coef / se
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return z, p


def coef_ci(coef: float, se: float, level: float) -> tuple[float, float]:
    """Plain normal interval coef +/- z*se, for sign-unrestricted coefficients."""
    if not (se > 0):
        raise NonPositiveSE(f"standard error must be positive, got {se!r}")
    half = _z_quantile(level) * se
    return coef - half, coef + half


def positive_param_ci(value: float, se: float, level: float) -> tuple[float, float]:
    """Log-normal interval for a positive quantity (shape, percentile).

    A normal interval on ln(value) with delta-method standard error
    se/value, mapped back: value * exp(+/- z*se/value).  Both bounds stay
    positive.  A zero standard error collapses to the point value; one so
    large that a bound leaves the positive finite range raises InputError.
    """
    if not (value > 0 and math.isfinite(value)):
        raise NonPositiveValue(f"value must be positive, got {value!r}")
    if se < 0 or not math.isfinite(se):
        raise NonPositiveSE(f"standard error must be nonnegative, got {se!r}")
    z = _z_quantile(level)
    if se == 0.0:
        return value, value
    try:
        factor = math.exp(z * se / value)
    except OverflowError:
        factor = math.inf
    lower, upper = value / factor, value * factor
    if not (lower > 0.0 and upper < math.inf):
        raise InputError(
            f"standard error {se!r} is too large for a log-normal interval around {value!r}"
        )
    return lower, upper


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Prediction:
    """A percentile prediction with its delta-method uncertainty."""

    percentile_p: float
    value: float
    std_error: float
    ci_lower: float
    ci_upper: float

    def __post_init__(self):
        if not (self.ci_lower <= self.value <= self.ci_upper):
            raise InputError("prediction bounds must bracket the value")


def _log_eta(z: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """z.alpha for every design row.

    ``np.vecdot`` takes each row's dot product with the same kernel as
    ``row @ alpha``, so batched and pointwise predictions agree bit for
    bit; a matrix-vector product (BLAS gemv) may round differently.
    """
    return np.vecdot(z, alpha)


def weibull_quantile(eta: float, shape: float, p: float) -> float:
    """Closed-form Weibull quantile t_p = eta * (-ln(1-p))**(1/shape)."""
    if not (0.0 < p < 1.0):
        raise InputError(f"percentile must lie in (0, 1), got {p!r}")
    return eta * (-math.log1p(-p)) ** (1.0 / shape)


def weibull_cdf(t: float, eta: float, shape: float) -> float:
    """Weibull CDF F(t) = 1 - exp(-(t/eta)**shape) for t >= 0."""
    if t <= 0.0:
        return 0.0
    return -math.expm1(-((t / eta) ** shape))


def _check_in_range(model: GllWeibullModel, z: np.ndarray, values: np.ndarray) -> None:
    """Reject predictions that are not positive finite numbers.

    Such a value means exp(z.alpha) overflowed or underflowed, so the
    :class:`NonPositiveValue` raised at the first one names the largest
    term of ln(eta) there, and its 1-based row when there is more than one.
    """
    bad = np.flatnonzero(~((values > 0.0) & np.isfinite(values)))
    if bad.size == 0:
        return
    i = int(bad[0])
    terms = z[i] * model.alpha
    j = int(np.argmax(np.abs(terms)))
    source = "the intercept" if j == 0 else f"factor {model.factors[j - 1].name!r}"
    at = f" at row {i + 1}" if len(values) > 1 else ""
    raise NonPositiveValue(
        f"predicted value {float(values[i])!r}{at} is out of range: {source} contributes "
        f"{terms[j]:.6g} to ln(eta)"
    )


def _percentiles(model: GllWeibullModel, z: np.ndarray, p: float) -> np.ndarray:
    """The fatigue level not exceeded with probability ``p`` at every row of ``z``.

    Row i gives ``weibull_quantile(exp(z[i] . alpha), shape, p)``.

    A point whose value is out of range raises :class:`NonPositiveValue`.
    """
    scale = weibull_quantile(1.0, model.shape, p)
    with np.errstate(over="ignore"):
        values = np.exp(_log_eta(z, model.alpha)) * scale
    _check_in_range(model, z, values)
    return values


def predict_with_interval(
    model: GllWeibullModel,
    x: dict,
    p: float = DEFAULT_PERCENTILE,
    level: float = DEFAULT_CONFIDENCE,
) -> Prediction:
    """Percentile prediction with a delta-method SE and log-normal CI.

    With w = -ln(1-p), ln(t_p) = z.alpha + ln(w)/beta, so the gradient of
    t_p with respect to (alpha, ln beta) is t_p * (z, -ln(w)/beta); the
    variance is that gradient contracted with the model covariance.
    """
    z = _design(x, model.factors)
    if len(z) != 1:
        raise InputError(f"a prediction point takes one value per factor, got {len(z)} rows")
    value = float(_percentiles(model, z, p)[0])
    w = -math.log1p(-p)
    grad = value * np.concatenate([z[0], [-math.log(w) / model.shape]])
    if not np.all(np.isfinite(model.covariance)):
        raise SingularInformation("model covariance contains non-finite entries")
    variance = float(grad @ model.covariance @ grad)
    se = math.sqrt(max(variance, 0.0))
    lower, upper = positive_param_ci(value, se, level)
    return Prediction(
        percentile_p=p,
        value=value,
        std_error=se,
        ci_lower=lower,
        ci_upper=upper,
    )


def sweep_curve(
    model: GllWeibullModel,
    varying: str,
    grid,
    fixed: dict,
    p: float = DEFAULT_PERCENTILE,
) -> np.ndarray:
    """Predicted fatigue along a grid of one factor, others held fixed.

    ``grid`` is an ascending 1-D sequence of values of the factor
    ``varying``; ``fixed`` maps each other factor to its value.  Returns
    the float array of the ``p`` percentile at each grid point, as long
    as ``grid``.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or not len(grid):
        raise InputError("grid must be nonempty")
    if (grid[1:] < grid[:-1]).any():
        raise InputError("grid must be sorted ascending")
    x = dict(fixed)
    x[normalize_name(varying)] = grid
    return _percentiles(model, _design(x, model.factors), p)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

FORMAT_NAME = "ahft-model"
FORMAT_VERSION = 1
# Each fit_meta key, in document and FitMeta field order, with the type that
# writes it, the JSON types that read it and the word its message uses.
_FIT_META = {
    "log_likelihood": (float, (int, float), "a number"),
    "iterations": (int, (int,), "an integer"),
    "converged": (bool, (bool,), "a boolean"),
}


def model_to_json(model: GllWeibullModel) -> str:
    """Serialize a model to a human-readable JSON document.

    Floats are emitted in shortest-exact form (full precision), so a
    load round-trips every field bit-for-bit.
    """
    doc = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "factors": [{"name": f.name, "transform": f.transform} for f in model.factors],
        "alpha": [float(a) for a in model.alpha],
        "shape": float(model.shape),
        "covariance": [[float(c) for c in row] for row in model.covariance],
        "fit_meta": None
        if model.fit_meta is None
        else {k: write(getattr(model.fit_meta, k)) for k, (write, _, _) in _FIT_META.items()},
    }
    return json.dumps(doc, indent=2) + "\n"


def model_from_json(text: str) -> GllWeibullModel:
    """Read a model document that :func:`model_to_json` wrote; ``format_version`` 1 only.

    Raises :class:`InputError` (:class:`NonPositiveValue` for the shape's sign) for the
    first fault in this order: the JSON text, ``format``, ``format_version``, ``factors``,
    ``fit_meta``, then ``shape``, ``alpha`` and ``covariance`` as :func:`_numbers` reads
    them, then :class:`GllWeibullModel`'s checks, then a covariance with a negative
    variance or a clearly negative eigenvalue.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise InputError(f"model file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise InputError(f"not a {FORMAT_NAME} document")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise InputError(
            f"unsupported format_version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    entries = _entry(doc, "factors", "{}", (list,), "an array")
    factors = []
    for i in range(len(entries)):
        entry = _entry(entries, i, "factors[{}]", (dict,), "an object")
        where = f"factors[{i}].{{}}"
        name = _entry(entry, "name", where, (str,), "a string")
        transform = _entry(entry, "transform", where, (str,), "a string")
        # FactorSpec checks the name before the transform.
        for field, spec in (("name", (name,)), ("transform", (name, transform))):
            try:
                factor = FactorSpec(*spec)
            except InputError as exc:
                raise InputError(f"model field {where.format(field)!r}: {exc}") from None
        if factor in factors:
            raise InputError(
                f"model field {where.format('name')!r} repeats factor {factor.name!r} with "
                f"the {factor.transform} transform of factors[{factors.index(factor)}]"
            )
        factors.append(factor)
    meta = _entry(doc, "fit_meta", "{}", (dict, type(None)), "an object or null")
    fit_meta = None if meta is None else FitMeta(*[
        _entry(meta, key, "fit_meta.{}", types, kind)
        for key, (_, types, kind) in _FIT_META.items()
    ])
    shape = _numbers(doc, "shape")
    if shape.ndim:
        raise InputError(f"model field 'shape' must be a number, got {doc['shape']!r}")
    model = GllWeibullModel(
        factors=tuple(factors),
        alpha=_numbers(doc, "alpha"),
        shape=float(shape),
        covariance=_numbers(doc, "covariance"),
        fit_meta=fit_meta,
    )
    # A covariance has no negative variance, nor an eigenvalue below zero by
    # more than about 1e-10 of the largest variance, which makes the Cholesky
    # factorization of covariance + that shift fail.
    variances = model.covariance.diagonal().tolist()
    for i, variance in enumerate(variances):
        if variance < 0.0:
            raise InputError(
                f"model field 'covariance' has a negative variance {variance!r} at [{i}][{i}]"
            )
    shift = 1e-10 * max(variances) + 1e-300  # the floor keeps a zero matrix valid
    shifted = model.covariance.copy()
    shifted.reshape(-1)[:: len(variances) + 1] += shift  # the diagonal, as a view
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        raise InputError("model field 'covariance' is not positive semidefinite") from None
    return model


def _entry(container, key, path: str, types: tuple = (), kind: str = ""):
    """``container[key]``, of one of the JSON ``types`` if any are given and finite
    if it may be a float; InputError names it by ``path.format(key)``.
    """
    try:
        value = container[key]
    except KeyError:
        raise InputError(f"model field {path.format(key)!r} is missing") from None
    if types and type(value) not in types:  # type, not isinstance: a bool is no number
        raise InputError(f"model field {path.format(key)!r} must be {kind}, got {value!r}")
    if float in types:
        try:
            value = float(value)
        except OverflowError:  # an integer past any double
            value = math.inf
        if not math.isfinite(value):  # json also reads NaN and +-Infinity
            raise InputError(f"model field {path.format(key)!r} is not finite")
    return value


def _numbers(doc: dict, field: str) -> np.ndarray:
    """A numeric model field as a float array; InputError names the field.

    Every entry must be a JSON number: numpy would also read a bool or a
    numeric string as a float.  The faults are named in a fixed order: a
    missing field, a JSON type, then ragged rows or an integer past any
    double (from the one array conversion), then a non-finite entry.
    """
    value = _entry(doc, field, "{}")
    # Lists nest at most two deep: a deeper list is a leaf, and no number.
    rows = value if isinstance(value, list) else [value]
    leaves = [v for row in rows for v in (row if isinstance(row, list) else [row])]
    if not all(type(v) in (int, float) for v in leaves):
        raise InputError(f"model field {field!r} must hold numbers only")
    try:
        values = np.array(value, dtype=float)
    except ValueError:  # ragged rows
        raise InputError(f"model field {field!r} must hold numbers only") from None
    except OverflowError:  # an integer past any double
        raise InputError(f"model field {field!r} has non-finite entries") from None
    # Every int converted above, so none overflows isfinite here.
    if not all(map(math.isfinite, leaves)):
        raise InputError(f"model field {field!r} has non-finite entries")
    return values


def save_model(model: GllWeibullModel, path) -> None:
    write_artifact(path, model_to_json(model))


def load_model(path) -> GllWeibullModel:
    with open(path, "rb") as fh:
        return model_from_json(_decode(fh.read()))
