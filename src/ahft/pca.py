"""Principal component analysis of the PSF correlation matrix.

Pipeline: standardize the selected columns (the fatigue response is kept
in by default, giving a 9-variable analysis on the bundled case study),
form the Pearson correlation matrix, and eigendecompose it with Jacobi
rotations in the round-robin order of Brent & Luk (SIAM J. Sci. Stat.
Comput. 6(1), 1985), which rotates disjoint index pairs together.
Variance proportions come from the spectrum (lambda_i / sum(lambda));
factor selection keeps the smallest leading block of components that
explains the requested variance share and ranks the PSFs inside it by
eigenvalue-weighted absolute loading.

The Jacobi solver is written out here rather than delegated to a LAPACK
wrapper because the surrounding contract is part of the package API:
a deterministic eigenvector sign convention (largest-magnitude entry
positive, ties broken by lowest index), an explicit iteration budget with
diagnostics on failure, and a tie flag for degenerate spectra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dataset import Dataset, correlation_matrix, normalize_name
from .errors import AllZeroSpectrum, InputError, NoConvergence, NotSymmetric

SYMMETRY_TOL = 1e-10
EIGENVALUE_TIE_TOL = 1e-10
NEGATIVE_CLAMP_TOL = 1e-10
JACOBI_TOL = 1e-13


@lru_cache(maxsize=32)
def _round_robin(size: int) -> tuple[np.ndarray, ...]:
    """Brent-Luk round-robin schedule on an even number of indices.

    Index 0 stays put and the others move one place per step, so the
    ``size - 1`` steps of a sweep pair every two indices exactly once.
    The solver keeps its matrices in the current step's layout, which
    puts that step's pairs at positions (0, 1), (2, 3), ...

    Returns ``(layout, sigma, here, there)``: the first step's layout;
    the permutation that carries each step's layout to the next one's
    (``layout[r + 1] == layout[r][sigma]``; after a full sweep the layout
    is the first one again); and the flat offsets, in a C-ordered
    ``(size, 2 * size)`` array, of every pair's (p, q), (q, p), (p, p)
    and (q, q) entries in a step's layout and in the next one's.
    """
    half, width = size // 2, 2 * size

    def layout(step: int) -> np.ndarray:
        order = np.concatenate(([0], np.roll(np.arange(1, size), step)))
        return np.stack((order[:half], order[::-1][:half]), axis=1).ravel()

    def offsets(p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return np.concatenate((p * width + q, q * width + p, p * width + p, q * width + q))

    first = layout(0)
    sigma = np.argsort(first)[layout(1)]
    p = np.arange(0, size, 2)
    moved = np.argsort(sigma)
    arrays = (first, sigma, offsets(p, p + 1), offsets(moved[p], moved[p + 1]))
    for x in arrays:
        x.flags.writeable = False
    return arrays


def eigen_symmetric(m: np.ndarray, max_sweeps: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a symmetric matrix by round-robin Jacobi rotations.

    Each sweep is ``n - 1`` steps (``n`` for odd ``n``) of the round-robin
    ordering of Brent & Luk (SIAM J. Sci. Stat. Comput. 6(1), 1985); a
    step rotates ``n // 2`` disjoint index pairs at once, skipping pairs
    whose off-diagonal entry is already at most the threshold below.

    Returns ``(values, vectors)`` with eigenvalues sorted descending and
    one orthonormal eigenvector per column.  Each vector is oriented so
    its largest-magnitude entry is positive (first such entry on ties).

    Raises :class:`NotSymmetric` when ``max|m - m.T| > 1e-10`` and
    :class:`NoConvergence` (with diagnostics) when the off-diagonal mass
    has not fallen below ``JACOBI_TOL * max(1, max|m|)`` after ``max_sweeps``
    full sweeps.
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


@dataclass(frozen=True, eq=False)
class PcaResult:
    """Eigen analysis of a correlation matrix.

    ``eigenvectors`` holds one unit-norm column per eigenvalue, row order
    matching ``column_names``; entries are the component loadings.
    ``has_ties`` flags degenerate spectra (two eigenvalues within 1e-10),
    in which case loadings inside a tied block are an arbitrary basis of
    the shared eigenspace and should not be compared entrywise.
    """

    column_names: tuple[str, ...]
    eigenvalues: np.ndarray        # descending
    eigenvectors: np.ndarray       # columns, orthonormal
    proportions: np.ndarray
    cumulative: np.ndarray
    has_ties: bool


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of threshold-based factor selection."""

    retained_components: int
    selected_factors: tuple[tuple[str, float], ...]  # (name, score), ranked

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.selected_factors)


# Cumulative-threshold comparisons tolerate last-bit rounding so that a
# threshold of exactly 1.0 retains the full spectrum.
_THRESHOLD_EPS = 1e-9


def variance_proportions(eigenvalues) -> tuple[np.ndarray, np.ndarray]:
    """Per-component share of total variance, and its running sum.

    proportions[i] = lambda_i / sum(lambda); cumulative[i] is the sum of
    the first i+1 proportions.  Eigenvalues must be nonnegative and not
    all zero.
    """
    values = np.asarray(eigenvalues, dtype=float)
    if values.size == 0 or np.any(values < 0):
        raise InputError("eigenvalues must be a nonempty, nonnegative sequence")
    total = float(values.sum())
    if total <= 0.0:
        raise AllZeroSpectrum("all eigenvalues are zero")
    proportions = values / total
    return proportions, np.cumsum(proportions)


def run_pca(dataset: Dataset, columns=None) -> PcaResult:
    """PCA of the correlation matrix of the selected columns.

    ``columns`` defaults to every dataset column, fatigue included —
    the response rides along so its loadings show how strongly each
    component carries it.  Pass an explicit list to opt out.
    """
    if columns is None:
        columns = list(dataset.column_names)
    columns = [normalize_name(c) for c in columns]
    r = correlation_matrix(dataset, columns)
    values, vectors = eigen_symmetric(r)
    if np.any(values < -NEGATIVE_CLAMP_TOL):
        raise InputError(
            f"correlation matrix has eigenvalue {values.min():.3e} < -1e-10"
        )
    values = np.where(values < 0.0, 0.0, values)
    proportions, cumulative = variance_proportions(values)
    has_ties = bool(np.any(np.abs(np.diff(values)) <= EIGENVALUE_TIE_TOL))
    return PcaResult(
        column_names=tuple(columns),
        eigenvalues=values,
        eigenvectors=vectors,
        proportions=proportions,
        cumulative=cumulative,
        has_ties=has_ties,
    )


def select_factors(pca: PcaResult, threshold: float, response: str) -> SelectionResult:
    """Retain leading components, then rank the PSFs they weight.

    The smallest k with cumulative explained variance >= ``threshold``
    is retained.  Each non-response column is scored by
    sum over retained components c of lambda_c * |loading|, and the
    columns are returned in descending score order (ties keep the
    original column order).
    """
    if not (0.0 < threshold <= 1.0):
        raise InputError(f"threshold must lie in (0, 1], got {threshold!r}")
    response = normalize_name(response)
    if response not in pca.column_names:
        raise InputError(f"response column {response!r} not in the analysis")

    k = int(np.searchsorted(pca.cumulative, threshold - _THRESHOLD_EPS, side="left")) + 1
    k = min(k, len(pca.cumulative))

    names = [c for c in pca.column_names if c != response]
    scores = []
    for name in names:
        row = pca.column_names.index(name)
        loadings = np.abs(pca.eigenvectors[row, :k])
        scores.append(float(np.sum(pca.eigenvalues[:k] * loadings)))
    order = np.argsort(-np.asarray(scores), kind="stable")
    ranked = tuple((names[i], scores[i]) for i in order)
    return SelectionResult(retained_components=k, selected_factors=ranked)
