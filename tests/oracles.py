"""Independent oracles used by the tests.

Each function here re-derives a quantity by a route deliberately
different from the implementation under test: characteristic-polynomial
roots instead of Jacobi rotations, per-row math-module sums instead of
vectorized likelihoods, finite differences instead of analytic
gradients, resampling instead of the delta method, one point at a time
instead of a design matrix, the csv module and
``float`` cell by cell instead of numpy's tokenizer, one string per row
or point instead of block templates, a stepped generator state instead
of the counter form.  Keep it that way.  The exceptions are frozen
copies of earlier code that pin the bits of the current code:
``jacobi_reference``, an earlier eigensolver, and ``loglik_reference``,
``derivatives_reference`` and ``newton_reference``, the likelihood
kernels and Newton loop of the fit before it ran on one workspace, and
``standardize_reference``, column standardization before it summed
along contiguous rows.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from ahft.alt import DEFAULT_PERCENTILE, GRADIENT_TOL, _design, weibull_quantile
from ahft.dataset import Dataset, normalize_name
from ahft.errors import (EmptyDataset, FatigueOutOfRange, InputError, MissingColumn, NoConvergence,
                         NonNumericCell, NotSymmetric, SingularInformation, TooFewRows,
                         ZeroVarianceColumn)
from ahft.pca import JACOBI_TOL, SYMMETRY_TOL, _round_robin


# ---------------------------------------------------------------------------
# SplitMix64, one draw at a time
# ---------------------------------------------------------------------------

class SplitMix64:
    """SplitMix64 one draw at a time with Python integers.

    The reference for ``validation._splitmix64_stream``, which computes
    the whole stream from the counter form instead of stepping a state.
    """

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = int(seed) & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """A float strictly inside (0, 1), from the top 53 bits."""
        return ((self.next_u64() >> 11) + 0.5) * 2.0 ** -53

    def choice_index(self, n: int) -> int:
        return self.next_u64() % n


# ---------------------------------------------------------------------------
# Scalar predictions and errors, one point at a time
# ---------------------------------------------------------------------------

def life_characteristic(model, x: dict) -> float:
    """eta(x) = exp(a0 + sum_j aj * g_j(x_j)) at one factor point.

    The pointwise reference for the batched ``alt._percentiles``: the
    row's dot product ``row @ alpha``, which ``np.vecdot`` matches bit for bit.
    """
    return float(np.exp(_design(x, model.factors)[0] @ model.alpha))


def predict_percentile(model, x: dict, p: float = DEFAULT_PERCENTILE) -> float:
    """Fatigue level not exceeded with probability ``p`` at factor point ``x``."""
    return weibull_quantile(life_characteristic(model, x), model.shape, p)


class NonPositiveObserved(InputError):
    """Relative error needs a strictly positive observed value."""


def relative_error(observed: float, predicted: float) -> float:
    """|predicted - observed| / observed for one hold-out instance."""
    if not (observed > 0 and math.isfinite(observed)):
        raise NonPositiveObserved(f"observed value must be positive, got {observed!r}")
    return abs(predicted - observed) / observed


def charpoly_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues as roots of det(lambda*I - M), Faddeev-LeVerrier form.

    Builds the characteristic polynomial's coefficients from traces of
    matrix powers, then calls numpy's companion-matrix root finder.
    Only sensible for small symmetric matrices; returns real parts
    sorted descending.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    coeffs = [1.0]
    mk = np.zeros_like(m)
    for k in range(1, n + 1):
        mk = m @ (mk + coeffs[-1] * np.eye(n)) if k > 1 else m.copy()
        coeffs.append(-np.trace(mk) / k)
    roots = np.roots(coeffs)
    return np.sort(roots.real)[::-1]


def jacobi_reference(m: np.ndarray, max_sweeps: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Round-robin Jacobi rotations, the bit-for-bit reference of ``eigen_symmetric``.

    The package's solver as it stood before each step ran in place on
    preallocated buffers, kept word for word.  Unlike the other oracles
    this takes the same route as the code under test: it pins the bits
    (values, vectors and ``NoConvergence`` diagnostics), while
    ``charpoly_eigenvalues`` pins the values.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError("matrix entries must be finite")
    asym = float(np.max(np.abs(m - m.T))) if m.size else 0.0
    if asym > SYMMETRY_TOL:
        raise NotSymmetric(f"matrix is asymmetric by {asym:.3e} (> {SYMMETRY_TOL:.0e})")

    n = m.shape[0]
    a = (m + m.T) / 2.0
    threshold = JACOBI_TOL * max(1.0, float(np.max(np.abs(a)))) if n else JACOBI_TOL

    def max_offdiag(x: np.ndarray) -> float:
        if n < 2:
            return 0.0
        off = np.abs(x - np.diag(np.diag(x)))
        return float(off.max())

    # An odd n gets a phantom index with a zero row and column: its pair
    # never passes the threshold, so that step leaves it out.
    size = n + n % 2
    half, width = size // 2, 2 * size
    layout, sigma, here, there = _round_robin(size)
    padded = np.zeros((size, size))
    padded[:n, :n] = a
    # buf = [A | V'] in the current layout: row i of each belongs to index
    # layout[i], and so does column i of A.
    buf = np.concatenate((padded[np.ix_(layout, layout)], np.eye(size)[layout]), axis=1)
    g = np.empty((half, 2, 2))

    sweeps = 0
    while sweeps < max_sweeps and max_offdiag(buf[:, :size]) > threshold:
        sweeps += 1
        for _ in range(size - 1):
            apq, aqp, app, aqq = buf.take(here).reshape(4, half)
            active = np.abs(apq) > threshold
            # Rotation angles annihilating each active a[p, q], by the
            # numerically stable tangent formula; t = 0 leaves a pair as is.
            tau = (aqq - app) / np.where(active, 2.0 * apq, 1.0)
            t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau))
            t = np.where(active, t, 0.0)
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            g[:, 0, 0] = g[:, 1, 1] = c
            g[:, 0, 1] = -s
            g[:, 1, 0] = s
            # A <- J'AJ and V <- VJ.  Mixing the rows of each pair of
            # [A | V'] gives J'A and (VJ)'; as A is symmetric, J'AJ is J'
            # applied to the rows of (J'A)' = AJ.  Rows and columns then
            # move to the next step's layout.
            buf = (g @ buf.reshape(half, 2, width)).reshape(size, width)[sigma]
            buf[:, :size] = (g @ buf[:, :size].T.reshape(half, 2, size)).reshape(size, size)[sigma]
            # The rotated 2x2 blocks are known in closed form; writing them
            # explicitly keeps the zeros exact.  A skipped pair gets back
            # what the step left there: its diagonal, and its (p, q) and
            # (q, p) entries swapped, since the step transposes A.
            buf.put(there, np.concatenate((
                np.where(active, 0.0, aqp), np.where(active, 0.0, apq),
                app - t * apq, aqq + t * apq,
            )))

    a = buf[:, :size]
    final_off = max_offdiag(a)
    if final_off > threshold:
        raise NoConvergence(
            f"Jacobi iteration did not converge in {max_sweeps} sweeps",
            diagnostics={"sweeps": sweeps, "max_offdiag": final_off},
        )

    rows = np.argsort(layout)[:n]  # where each index ended up
    values = np.diag(a)[rows]
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = buf[rows, size:size + n].T[:, order]
    for j in range(n):
        k = int(np.argmax(np.abs(vectors[:, j])))
        if vectors[k, j] < 0:
            vectors[:, j] = -vectors[:, j]
    return values, vectors


# ---------------------------------------------------------------------------
# Column standardization on the (n, k) matrix, the bit-for-bit reference
# ---------------------------------------------------------------------------

def standardize_reference(dataset: Dataset, columns) -> np.ndarray:
    """``dataset.standardize`` as numpy's mean and std on the (n, k) matrix.

    Frozen copy: the column sums add left to right down each column of
    the C-order matrix (pairwise for a single, contiguous column).
    """
    if dataset.n_rows < 2:
        raise TooFewRows("standardization needs at least 2 rows")
    m = np.column_stack([dataset.column(c) for c in columns])
    with np.errstate(over="ignore", invalid="ignore"):
        mean = m.mean(axis=0)
        sd = m.std(axis=0, ddof=1)
    for name, mu, s in zip(columns, mean, sd):
        if not (math.isfinite(mu) and math.isfinite(s)):
            raise InputError(
                f"column {name!r} is too large to standardize: its mean or sample "
                f"standard deviation overflows"
            )
        if s == 0.0:
            raise ZeroVarianceColumn(f"column {name!r} has zero sample variance")
    return (m - mean) / sd


# ---------------------------------------------------------------------------
# The Newton fit as it stood before its workspace, the bit-for-bit reference
# ---------------------------------------------------------------------------

def loglik_reference(theta: np.ndarray, z: np.ndarray, logt: np.ndarray) -> float:
    """The log-likelihood kernel with fresh arrays, word for word as it stood."""
    phi = theta[-1]
    if phi > 700.0:  # exp would overflow; such a trial is never an optimum
        return -math.inf
    beta = math.exp(phi)
    u = logt - z @ theta[:-1]
    bu = beta * u
    with np.errstate(over="ignore"):
        e = np.exp(bu)
        total = float(np.sum(phi + bu - logt - e))
    return total if math.isfinite(total) else -math.inf


def derivatives_reference(theta: np.ndarray, z: np.ndarray,
                          logt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of the log-likelihood from one exp(beta*u)."""
    phi = theta[-1]
    beta = math.exp(phi)
    u = logt - z @ theta[:-1]
    bu = beta * u
    e = np.exp(bu)
    g_alpha = beta * (z.T @ (e - 1.0))
    g_phi = float(np.sum(1.0 + bu * (1.0 - e)))
    k = z.shape[1]
    h = np.empty((k + 1, k + 1))
    h[:k, :k] = -(beta * beta) * ((z * e[:, None]).T @ z)
    cross = beta * (z.T @ (e * (1.0 + bu) - 1.0))
    h[:k, k] = cross
    h[k, :k] = cross
    h[k, k] = float(np.sum(bu * (1.0 - e) - bu * bu * e))
    return np.concatenate([g_alpha, [g_phi]]), h


def newton_reference(z: np.ndarray, t: np.ndarray,
                     max_iterations: int = 200) -> tuple[np.ndarray, float, int, np.ndarray]:
    """``fit_mle``'s Newton loop and covariance on a design and its lifetimes.

    Returns ``(theta, log-likelihood, iterations, covariance)``; raises
    as ``fit_mle`` raised, with the same message and diagnostics.
    """
    logt = np.log(t)
    n_params = z.shape[1] + 1

    theta = np.zeros(n_params)
    theta[0] = math.log(float(np.mean(t)))
    ll = loglik_reference(theta, z, logt)
    for iterations in range(1, max_iterations + 1):
        g, h = derivatives_reference(theta, z, logt)
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
        improved = False
        # Ties are accepted: near the optimum the Newton step improves the
        # objective by less than one ulp, and rejecting it would strand the
        # gradient just above tolerance.
        tie_tol = 1e-12 * max(1.0, abs(ll))
        for _ in range(60):
            trial = theta + scale * step
            ll_trial = loglik_reference(trial, z, logt)
            if math.isfinite(ll_trial) and ll_trial >= ll - tie_tol:
                theta, ll = trial, ll_trial
                improved = True
                break
            scale *= 0.5
        if not improved:
            break  # no ascent direction left; final gradient check decides
    else:
        # The budget ran out after a step moved theta: evaluate the end point.
        g, h = derivatives_reference(theta, z, logt)
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
    return theta, ll, iterations, covariance


def naive_weibull_loglik(alpha, shape, factor_rows, responses) -> float:
    """Per-row density sum with scalar math, no shared code with the package.

    alpha: (intercept, coef_1, ..., coef_k); factor_rows: per-row already
    transformed factor values (length-k sequences); responses: positive
    lifetimes.
    """
    total = 0.0
    for x, t in zip(factor_rows, responses):
        eta = math.exp(alpha[0] + sum(a * v for a, v in zip(alpha[1:], x)))
        total += (
            math.log(shape)
            - shape * math.log(eta)
            + (shape - 1.0) * math.log(t)
            - (t / eta) ** shape
        )
    return total


def central_diff_gradient(f, theta: np.ndarray, rel_step: float = 1e-6) -> np.ndarray:
    """Central finite differences with a per-coordinate relative step."""
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        h = rel_step * max(1.0, abs(theta[i]))
        up = theta.copy()
        up[i] += h
        down = theta.copy()
        down[i] -= h
        grad[i] = (f(up) - f(down)) / (2.0 * h)
    return grad


def ks_statistic(samples, cdf) -> float:
    """Kolmogorov-Smirnov distance between a sample and a model CDF."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    fs = np.array([cdf(x) for x in xs])
    upper = np.max(np.arange(1, n + 1) / n - fs)
    lower = np.max(fs - np.arange(0, n) / n)
    return float(max(upper, lower))


def bootstrap_prediction_se(make_dataset, fit, predict, n_reps: int, seed0: int) -> float:
    """Parametric-bootstrap SE of a prediction.

    make_dataset(seed) draws a fresh dataset from the known truth;
    fit(dataset) returns a model; predict(model) returns the scalar of
    interest.  The SE is the sample standard deviation of the predicted
    values over replicates (divisor n-1).
    """
    values = []
    for i in range(n_reps):
        model = fit(make_dataset(seed0 + i))
        values.append(predict(model))
    values = np.asarray(values)
    return float(values.std(ddof=1))


# ---------------------------------------------------------------------------
# CSV text, row by row
# ---------------------------------------------------------------------------

def _number(text: str, row: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise NonNumericCell(
            f"row {row}, column {column!r}: cannot parse {text!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise NonNumericCell(f"row {row}, column {column!r}: value {text!r} is not finite")
    return value


def rowwise_load_csv(text: str) -> Dataset:
    """Read CSV text with ``csv.reader`` and ``float``, one row at a time.

    The reference for ``load_csv``: the same Dataset for every file it
    accepts, and the same error class and message for the first fault
    of every file it rejects.  Per row: cell count, then fatigue, then
    ``duration_hours``, then the PSFs in column order; blank rows are
    skipped but counted.
    """
    try:
        records = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise InputError(f"malformed CSV: {exc}") from None
    if not records:
        raise EmptyDataset("input has no header row")
    names = [normalize_name(h) for h in records[0]]
    if len(set(names)) != len(names):
        raise InputError(f"duplicate column names after normalization: {names}")
    if "fatigue" not in names:
        raise MissingColumn("required column 'fatigue' is absent")
    psf_names = [n for n in names if n not in ("fatigue", "duration_hours")]
    rows = [(i, r) for i, r in enumerate(records[1:], start=1)
            if not all(cell.strip() == "" for cell in r)]
    if not rows:
        raise EmptyDataset("input has a header but no data rows")
    values = {n: [] for n in psf_names + ["fatigue"]}
    for i, record in rows:
        if len(record) != len(names):
            raise InputError(f"row {i}: expected {len(names)} cells, got {len(record)}")
        cells = dict(zip(names, record))
        fatigue = _number(cells["fatigue"], i, "fatigue")
        if not (0.0 < fatigue < 1.0):
            raise FatigueOutOfRange(f"row {i}: fatigue must lie strictly in (0, 1), got {fatigue}")
        if "duration_hours" in cells:
            duration = _number(cells["duration_hours"], i, "duration_hours")
            if duration != 1.0:
                raise InputError(
                    f"row {i}: duration_hours must be 1 (one-hour readings only), got {duration}"
                )
        for n in psf_names:
            values[n].append(_number(cells[n], i, n))
        values["fatigue"].append(fatigue)
    return Dataset(tuple(psf_names) + ("fatigue",), values)


def rowwise_csv_lines(rows) -> str:
    """CSV text with one joined string per row; every cell written as ``str``."""
    return "".join([",".join(map(str, row)) + "\n" for row in rows])


def rowwise_serialize(dataset: Dataset) -> bytes:
    """A dataset as CSV bytes, each row's floats joined with ``repr``, then ``,1.0``."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(
        list(dataset.psf_names) + ["fatigue", "duration_hours"]
    )
    columns = [dataset.column(c).tolist() for c in dataset.psf_names + ("fatigue",)]
    for row in zip(*columns):
        out.write(",".join(map(repr, row)) + ",1.0\n")
    return out.getvalue().encode("utf-8")


def rowwise_line_chart(points, title: str, x_label: str, y_label: str) -> str:
    """The SVG of ``svg.line_chart`` with one f-string per point."""
    w, h, margin = 640, 400, 56

    def scale(values, lo_px, hi_px):
        vmin, vmax = min(values), max(values)
        span = vmax - vmin
        if span == 0.0:
            return [(lo_px + hi_px) / 2.0 for _ in values], vmin, vmax
        return [lo_px + (v - vmin) * (hi_px - lo_px) / span for v in values], vmin, vmax

    px, xmin, xmax = scale([float(p[0]) for p in points], margin, w - margin // 2)
    py, ymin, ymax = scale([float(p[1]) for p in points], h - margin, margin // 2)
    path = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
    markers = "".join(
        f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="#1f4e79"/>' for x, y in zip(px, py)
    )
    return f"""<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">
<rect width="{w}" height="{h}" fill="white"/>
<text x="{w / 2:.0f}" y="22" text-anchor="middle" font-family="sans-serif" font-size="15">{title}</text>
<line x1="{margin}" y1="{h - margin}" x2="{w - margin // 2}" y2="{h - margin}" stroke="black"/>
<line x1="{margin}" y1="{margin // 2}" x2="{margin}" y2="{h - margin}" stroke="black"/>
<text x="{w / 2:.0f}" y="{h - 14}" text-anchor="middle" font-family="sans-serif" font-size="12">{x_label}</text>
<text x="16" y="{h / 2:.0f}" text-anchor="middle" font-family="sans-serif" font-size="12" transform="rotate(-90 16 {h / 2:.0f})">{y_label}</text>
<text x="{margin}" y="{h - margin + 16}" text-anchor="middle" font-family="sans-serif" font-size="10">{repr(xmin).removesuffix(".0")}</text>
<text x="{w - margin // 2}" y="{h - margin + 16}" text-anchor="middle" font-family="sans-serif" font-size="10">{repr(xmax).removesuffix(".0")}</text>
<text x="{margin - 6}" y="{h - margin + 4}" text-anchor="end" font-family="sans-serif" font-size="10">{ymin:g}</text>
<text x="{margin - 6}" y="{margin // 2 + 4}" text-anchor="end" font-family="sans-serif" font-size="10">{ymax:g}</text>
<polyline points="{path}" fill="none" stroke="#1f4e79" stroke-width="1.5"/>
{markers}
</svg>
"""
