"""Independent oracles used by the tests.

Each function here re-derives a quantity by a route deliberately
different from the implementation under test: characteristic-polynomial
roots instead of Jacobi rotations, per-row math-module sums instead of
vectorized likelihoods, finite differences instead of analytic
gradients, resampling instead of the delta method, the csv module and
``float`` cell by cell instead of numpy's tokenizer, one string per row
or point instead of block templates.  Keep it that way.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from ahft.dataset import Dataset, normalize_name
from ahft.errors import EmptyDataset, FatigueOutOfRange, InputError, MissingColumn, NonNumericCell


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
<text x="{margin}" y="{h - margin + 16}" text-anchor="middle" font-family="sans-serif" font-size="10">{xmin:g}</text>
<text x="{w - margin // 2}" y="{h - margin + 16}" text-anchor="middle" font-family="sans-serif" font-size="10">{xmax:g}</text>
<text x="{margin - 6}" y="{h - margin + 4}" text-anchor="end" font-family="sans-serif" font-size="10">{ymin:g}</text>
<text x="{margin - 6}" y="{margin // 2 + 4}" text-anchor="end" font-family="sans-serif" font-size="10">{ymax:g}</text>
<polyline points="{path}" fill="none" stroke="#1f4e79" stroke-width="1.5"/>
{markers}
</svg>
"""
