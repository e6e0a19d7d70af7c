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

Its output is fixed to the bit, and three kinds of operation carry those
bits: ``hypot`` and correctly rounded arithmetic for the rotation angles,
two batched ``matmul`` calls per step that rotate the rows and then the
columns, and closed-form writes of the rotated 2x2 blocks.  The rest of
a step picks the pairs to skip and moves entries between buffers.  The
rotations are not written elementwise as ``c*x - s*y``: BLAS kernels that
fuse the multiply-add round once where that form rounds twice, so it
would change last bits on such machines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dataset import Dataset, correlation_matrix, normalize_name
from .errors import AllZeroSpectrum, InputError, NoConvergence, NotSymmetric

SYMMETRY_TOL = 1e-10
EIGENVALUE_TIE_TOL = 1e-10
NEGATIVE_CLAMP_TOL = 1e-10
JACOBI_TOL = 1e-13
# A matrix with an entry above this is scaled by a power of two first, so
# that neither (m + m.T) / 2 nor a rotation overflows; every other matrix
# takes the solver unscaled.
PRESCALE_CUT = 2.0 ** 960


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

    A matrix with max|m| above ``PRESCALE_CUT`` is solved as m * 2**-s,
    with max|m| * 2**-s in [1, 2), and its eigenvalues are scaled back by
    2**s; :class:`InputError` says when one of them exceeds the float
    range.  Scaling by a power of two is exact short of subnormals, so
    the values and vectors are those of the unscaled solve, had it not
    overflowed.

    A step runs in place on buffers made once per call.  Its bits come
    from the rotation angles (``hypot`` and correctly rounded
    arithmetic), two batched ``matmul`` calls that rotate the rows and
    then the columns, and the closed-form writes of the rotated 2x2
    blocks.  The rotations stay matmul calls on these operands: a BLAS
    kernel that fuses the multiply-add rounds ``c*x - s*y`` once where an
    elementwise rotation rounds twice, so the two differ in last bits.
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
    big = float(np.max(np.abs(m))) if n else 0.0
    shift = math.frexp(big)[1] - 1 if big > PRESCALE_CUT else 0
    if shift:
        m = np.ldexp(m, -shift)
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
    block = buf[:, :size]
    rows = buf.reshape(half, 2, width)
    cols = block.T.reshape(half, 2, size)
    row_out = np.empty((half, 2, width))
    col_out = np.empty((half, 2, size))
    row_flat, col_flat = row_out.reshape(size, width), col_out.reshape(size, size)
    pair_flat = np.empty(4 * half)
    pairs = pair_flat.reshape(4, half)     # a[p, q], a[q, p], a[p, p], a[q, q]
    apq, _, app, aqq = pairs
    swapped = pairs[1::-1]                 # a[q, p], a[p, q]
    written = np.empty((4, half))          # the rotated blocks, in put order
    g = np.empty((half, 2, 2))
    g_flat = g.reshape(half, 4)
    unit = np.ones((4, half))              # rows 1, -t, t, 1 make g with c
    t = unit[2]
    minus_t = unit[1]
    work = np.empty((4, half))
    tau, h, c, scratch = work
    c_col = c.reshape(half, 1)
    skip = np.empty(half, dtype=bool)

    sweeps = 0
    # Only skipped pairs divide by zero or overflow, and their t is then
    # replaced by 0; an active pair has |a[p, q]| > 1e-13 * max|a|.  The
    # take indices are in range: mode="clip" only spares the copy through
    # a temporary that the default mode makes for an out= argument.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while sweeps < max_sweeps and max_offdiag(block) > threshold:
            sweeps += 1
            for _ in range(size - 1):
                buf.take(here, out=pair_flat, mode="clip")
                np.abs(apq, out=scratch)
                np.less_equal(scratch, threshold, out=skip)
                # Rotation angles annihilating each active a[p, q], by the
                # numerically stable tangent formula
                #   t = sign(tau) / (|tau| + hypot(1, tau))
                #     = 1 / (tau + copysign(hypot(1, tau), tau + 0.0)),
                # where adding 0.0 makes tau = -0.0 count as positive.
                # t = 0 leaves a pair as is.
                np.subtract(aqq, app, out=tau)
                np.multiply(apq, 2.0, out=scratch)
                np.divide(tau, scratch, out=tau)
                np.hypot(1.0, tau, out=h)
                np.add(tau, 0.0, out=scratch)
                np.copysign(h, scratch, out=h)
                np.add(tau, h, out=t)
                np.divide(1.0, t, out=t)
                np.copyto(t, 0.0, where=skip)
                np.hypot(1.0, t, out=c)
                np.divide(1.0, c, out=c)
                np.negative(t, out=minus_t)
                np.multiply(unit.T, c_col, out=g_flat)
                # A <- J'AJ and V <- VJ.  Mixing the rows of each pair of
                # [A | V'] gives J'A and (VJ)'; as A is symmetric, J'AJ is
                # J' applied to the rows of (J'A)' = AJ.  Rows and columns
                # then move to the next step's layout.
                np.matmul(g, rows, out=row_out)
                row_flat.take(sigma, axis=0, out=buf, mode="clip")
                np.matmul(g, cols, out=col_out)
                col_flat.take(sigma, axis=0, out=block, mode="clip")
                # The rotated 2x2 blocks are known in closed form; writing
                # them explicitly keeps the zeros exact.  A skipped pair
                # gets back what the step left there: its diagonal, and its
                # (p, q) and (q, p) entries swapped, since the step
                # transposes A.
                written.fill(0.0)
                np.copyto(written[:2], swapped, where=skip)
                np.multiply(t, apq, out=scratch)
                np.subtract(app, scratch, out=written[2])
                np.add(aqq, scratch, out=written[3])
                buf.put(there, written)

    final_off = max_offdiag(block)
    if final_off > threshold:
        raise NoConvergence(
            f"Jacobi iteration did not converge in {max_sweeps} sweeps",
            diagnostics={"sweeps": sweeps, "max_offdiag": math.ldexp(final_off, shift)},
        )

    place = np.argsort(layout)[:n]  # where each index ended up
    values = np.diag(block)[place]
    order = np.argsort(-values, kind="stable")
    values = values[order]
    if shift:
        with np.errstate(over="raise"):
            try:
                values = np.ldexp(values, shift)
            except FloatingPointError:
                raise InputError("an eigenvalue exceeds the float range") from None
    vectors = buf[place, size:size + n].T[:, order]
    if n:
        top = np.argmax(np.abs(vectors), axis=0)
        flip = vectors[top, np.arange(n)] < 0
        vectors[:, flip] = -vectors[:, flip]
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
    original column order).  An analysis with no column besides the
    response has nothing to rank and raises :class:`InputError`.
    """
    if not (0.0 < threshold <= 1.0):
        raise InputError(f"threshold must lie in (0, 1], got {threshold!r}")
    response = normalize_name(response)
    if response not in pca.column_names:
        raise InputError(f"response column {response!r} not in the analysis")
    rows = [i for i, c in enumerate(pca.column_names) if c != response]
    if not rows:
        raise InputError(f"the analysis has no column besides the response {response!r}")

    k = int(np.searchsorted(pca.cumulative, threshold - _THRESHOLD_EPS, side="left")) + 1
    k = min(k, len(pca.cumulative))

    scores = (pca.eigenvalues[:k] * np.abs(pca.eigenvectors[rows, :k])).sum(axis=1)
    order = np.argsort(-scores, kind="stable")
    ranked = tuple((pca.column_names[rows[i]], float(scores[i])) for i in order)
    return SelectionResult(retained_components=k, selected_factors=ranked)
