"""Eigendecomposition and PSF screening.

The eigen solver is checked against an independent oracle: roots of the
characteristic polynomial (Faddeev-LeVerrier coefficients + companion
matrix), never against another iterative eigensolver.
"""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ahft import (
    Dataset,
    builtin_table3,
    correlation_matrix,
    eigen_symmetric,
    run_pca,
    select_factors,
    variance_proportions,
)
from ahft.errors import AllZeroSpectrum, InputError, NoConvergence, NotSymmetric
from ahft.pca import _round_robin
from oracles import charpoly_eigenvalues


def _random_symmetric(seed, n=5):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return (a + a.T) / 2.0


def _dataset(**cols):
    names = tuple(n for n in cols if n != "fatigue") + ("fatigue",)
    n = len(next(iter(cols.values())))
    return Dataset(names, {"fatigue": [0.5] * n, **cols})


# ---------------------------------------------------------------------------
# eigen_symmetric
# ---------------------------------------------------------------------------

def test_eigen_diagonal_matrix():
    values, vectors = eigen_symmetric(np.diag([2.0, 1.0]))
    assert values.tolist() == [2.0, 1.0]
    assert_allclose(vectors, np.eye(2), atol=1e-15)


def test_eigen_two_by_two_correlation():
    values, vectors = eigen_symmetric(np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert_allclose(values, [1.5, 0.5], atol=1e-12)
    s = 1.0 / np.sqrt(2.0)
    assert_allclose(np.abs(vectors), [[s, s], [s, s]], atol=1e-12)
    # orientation: the first largest-magnitude entry of each column is positive
    assert vectors[0, 0] > 0 and vectors[0, 1] > 0


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_eigen_matches_characteristic_polynomial(seed):
    m = _random_symmetric(seed)
    values, _ = eigen_symmetric(m)
    assert_allclose(values, charpoly_eigenvalues(m), atol=1e-6)


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_eigen_reconstruction_and_orthonormality(seed):
    m = _random_symmetric(seed, n=6)
    values, vectors = eigen_symmetric(m)
    assert np.max(np.abs(m - vectors @ np.diag(values) @ vectors.T)) < 1e-8
    assert_allclose(vectors.T @ vectors, np.eye(6), atol=1e-12)


def test_eigen_reconstruction_workshop_correlation(table3):
    r = correlation_matrix(table3, table3.column_names)
    values, vectors = eigen_symmetric(r)
    assert np.max(np.abs(r - vectors @ np.diag(values) @ vectors.T)) < 1e-8
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_eigen_sign_convention():
    values, vectors = eigen_symmetric(_random_symmetric(11))
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_eigen_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        eigen_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigen_rejects_bad_shapes():
    with pytest.raises(InputError):
        eigen_symmetric(np.zeros((2, 3)))
    with pytest.raises(InputError):
        eigen_symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_eigen_exhausted_sweep_budget():
    with pytest.raises(NoConvergence) as exc:
        eigen_symmetric(np.array([[1.0, 0.5], [0.5, 1.0]]), max_sweeps=0)
    assert exc.value.diagnostics["sweeps"] == 0
    assert exc.value.diagnostics["max_offdiag"] == 0.5


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_eigen_matches_characteristic_polynomial_even_and_odd(n):
    # odd n leaves one index out of each round-robin step
    m = _random_symmetric(20 + n, n=n)
    values, _ = eigen_symmetric(m)
    assert_allclose(values, charpoly_eigenvalues(m), atol=1e-6)


@pytest.mark.parametrize("n", [60, 61])
def test_eigen_reconstruction_and_orthonormality_wide(n):
    m = _random_symmetric(n, n=n)
    values, vectors = eigen_symmetric(m)
    assert np.max(np.abs(m - vectors @ np.diag(values) @ vectors.T)) <= 1e-8
    assert np.max(np.abs(vectors.T @ vectors - np.eye(n))) <= 1e-12


def test_eigen_block_diagonal_keeps_blocks_apart():
    # Two blocks, interleaved: every pair across them starts at zero, so
    # no rotation may touch it and each eigenvector stays inside its block.
    first, second = _random_symmetric(31, n=3), _random_symmetric(32, n=4)
    blocks = [np.array([0, 2, 4]), np.array([1, 3, 5, 6])]
    m = np.zeros((7, 7))
    m[np.ix_(blocks[0], blocks[0])] = first
    m[np.ix_(blocks[1], blocks[1])] = second
    values, vectors = eigen_symmetric(m)
    expected = np.sort(np.concatenate([charpoly_eigenvalues(first),
                                       charpoly_eigenvalues(second)]))[::-1]
    assert_allclose(values, expected, atol=1e-6)
    for j in range(7):
        support = [b for b in blocks if np.any(vectors[b, j] != 0.0)]
        assert len(support) == 1


def test_eigen_diagonal_input_needs_no_sweep():
    for m in (np.eye(5), np.diag([4.0, 3.0, 2.5, 1.0, -2.0])):
        values, vectors = eigen_symmetric(m, max_sweeps=0)
        assert values.tolist() == np.diag(m).tolist()
        assert vectors.tolist() == np.eye(5).tolist()


def test_eigen_budget_of_one_sweep_is_reported():
    with pytest.raises(NoConvergence) as exc:
        eigen_symmetric(_random_symmetric(5, n=60), max_sweeps=1)
    assert exc.value.diagnostics["sweeps"] == 1
    assert exc.value.diagnostics["max_offdiag"] > 0.0


def test_eigen_wide_solve_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eigen_symmetric(_random_symmetric(6, n=60))


@pytest.mark.parametrize("size", [2, 4, 8, 62])
def test_round_robin_pairs_every_two_indices_once_per_sweep(size):
    layout, sigma, _, _ = _round_robin(size)
    seen = []
    for _ in range(size - 1):
        seen += [tuple(sorted(pair)) for pair in layout.reshape(-1, 2).tolist()]
        layout = layout[sigma]
    assert sorted(seen) == [(p, q) for p in range(size) for q in range(p + 1, size)]
    assert layout.tolist() == _round_robin(size)[0].tolist()


# ---------------------------------------------------------------------------
# variance_proportions
# ---------------------------------------------------------------------------

def test_variance_proportions_uniform():
    proportions, cumulative = variance_proportions([1.0, 1.0, 1.0, 1.0])
    assert_allclose(proportions, [0.25] * 4)
    assert cumulative[-1] == pytest.approx(1.0, rel=1e-15)


def test_variance_proportions_three_to_one():
    proportions, cumulative = variance_proportions([3.0, 1.0])
    assert_allclose(proportions, [0.75, 0.25])
    assert_allclose(cumulative, [0.75, 1.0])


def test_variance_proportions_rejects_degenerate():
    with pytest.raises(AllZeroSpectrum):
        variance_proportions([0.0, 0.0])
    with pytest.raises(InputError):
        variance_proportions([1.0, -0.5])
    with pytest.raises(InputError):
        variance_proportions([])


# ---------------------------------------------------------------------------
# run_pca
# ---------------------------------------------------------------------------

def test_run_pca_perfectly_correlated_pair():
    data = _dataset(a=[1.0, 2.0, 3.0, 4.0], b=[2.0, 4.0, 6.0, 8.0])
    result = run_pca(data, ["a", "b"])
    assert_allclose(result.eigenvalues, [2.0, 0.0], atol=1e-12)
    assert_allclose(result.proportions, [1.0, 0.0], atol=1e-12)


def test_run_pca_workshop_spectrum_sanity(table3):
    result = run_pca(table3)
    assert result.column_names == table3.column_names
    assert result.eigenvalues.sum() == pytest.approx(9.0, rel=1e-10)
    assert np.all(result.eigenvalues >= 0.0)
    assert not result.has_ties
    assert result.cumulative[-1] == pytest.approx(1.0, rel=1e-12)


def test_run_pca_scale_invariance(table3):
    base = run_pca(table3)
    scaled = run_pca(Dataset(table3.column_names,
                             {**table3.columns, "stress": 7.3 * table3.column("stress")}))
    assert_allclose(scaled.eigenvalues, base.eigenvalues, atol=1e-10)
    assert_allclose(scaled.eigenvectors, base.eigenvectors, atol=1e-8)


def test_run_pca_row_order_invariance(table3):
    base = run_pca(table3)
    order = [7, 3, 14, 0, 9, 1, 12, 5, 11, 2, 13, 8, 4, 10, 6]
    shuffled = run_pca(Dataset(table3.column_names,
                               {c: v[order] for c, v in table3.columns.items()}))
    assert_allclose(shuffled.eigenvalues, base.eigenvalues, atol=1e-10)
    assert_allclose(shuffled.eigenvectors, base.eigenvectors, atol=1e-8)


def test_run_pca_column_permutation_invariance(table3):
    cols = ["available_time", "stress", "complexity", "fatigue"]
    base = run_pca(table3, cols)
    permuted = run_pca(table3, [cols[2], cols[0], cols[1], cols[3]])
    assert_allclose(permuted.eigenvalues, base.eigenvalues, atol=1e-10)
    for name in cols:
        i, j = base.column_names.index(name), permuted.column_names.index(name)
        assert_allclose(permuted.eigenvectors[j, :], base.eigenvectors[i, :], atol=1e-8)


# ---------------------------------------------------------------------------
# select_factors
# ---------------------------------------------------------------------------

def test_select_threshold_one_keeps_all_components(table3):
    result = run_pca(table3)
    selection = select_factors(result, 1.0, "fatigue")
    assert selection.retained_components == 9
    assert set(selection.names) == set(table3.psf_names)


def test_select_workshop_retains_three(table3):
    selection = select_factors(run_pca(table3), 0.65, "fatigue")
    assert selection.retained_components == 3


def test_select_scores_match_direct_recomputation(table3):
    result = run_pca(table3)
    selection = select_factors(result, 0.65, "fatigue")
    k = selection.retained_components
    for name, score in selection.selected_factors:
        i = result.column_names.index(name)
        expected = sum(
            result.eigenvalues[c] * abs(result.eigenvectors[i, c]) for c in range(k)
        )
        assert score == pytest.approx(expected, rel=1e-12)
    scores = [s for _, s in selection.selected_factors]
    assert all(a >= b for a, b in zip(scores, scores[1:]))


def test_select_ranks_response_copy_first():
    rng = np.random.default_rng(42)
    y = rng.uniform(0.1, 0.9, size=24)
    data = _dataset(
        copy=y.tolist(),
        noise_a=rng.normal(size=24).tolist(),
        noise_b=rng.normal(size=24).tolist(),
        fatigue=y.tolist(),
    )
    selection = select_factors(run_pca(data), 0.65, "fatigue")
    assert selection.names[0] == "copy"


def test_select_monotone_in_threshold(table3):
    result = run_pca(table3)
    retained = [
        select_factors(result, t, "fatigue").retained_components
        for t in (0.2, 0.4, 0.65, 0.8, 0.95, 1.0)
    ]
    assert all(a <= b for a, b in zip(retained, retained[1:]))


def test_select_threshold_validation(table3):
    result = run_pca(table3)
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(InputError):
            select_factors(result, bad, "fatigue")
    with pytest.raises(InputError):
        select_factors(result, 0.65, "not_a_column")
