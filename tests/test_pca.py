"""Eigendecomposition and PSF screening.

The eigen solver's values are checked against an independent oracle:
roots of the characteristic polynomial (Faddeev-LeVerrier coefficients +
companion matrix), never against another iterative eigensolver.  Its
bits are checked against ``jacobi_reference``, a frozen copy of the
solver from before its steps ran on preallocated buffers.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st
from numpy.testing import assert_allclose

from ahft import (
    Dataset,
    builtin_table3,
    correlation_matrix,
    eigen_symmetric,
    run_pca,
    select_factors,
)
from ahft.errors import InputError, NoConvergence, NotSymmetric
from ahft.pca import JACOBI_TOL, PcaResult, _round_robin
from oracles import charpoly_eigenvalues, jacobi_reference


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


# ---------------------------------------------------------------------------
# eigen_symmetric against jacobi_reference, bit for bit
# ---------------------------------------------------------------------------

# No shrink or explain phase: a failure is reported as first found.
BITS = settings(max_examples=100, derandomize=True, deadline=None, database=None,
                phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
                suppress_health_check=[HealthCheck.too_slow])


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _outcome(solve, m, **kwargs):
    """What a solver gives: the bits of (values, vectors), or the failure."""
    try:
        values, vectors = solve(m, **kwargs)
    except NoConvergence as exc:
        return ("NoConvergence", str(exc), exc.diagnostics)
    return (values.shape, vectors.shape, _bits(values).tolist(), _bits(vectors).tolist())


def _assert_same_bits(m, **kwargs):
    expected = _outcome(jacobi_reference, m, **kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(eigen_symmetric, m, **kwargs)
    assert got == expected


@st.composite
def jacobi_matrices(draw):
    """Symmetric matrices that steer every branch of a rotation step."""
    n = draw(st.sampled_from(range(1, 13)) | st.sampled_from(range(13, 65)))
    kind = draw(st.sampled_from(["random", "unit_diagonal", "interleaved",
                                 "identity_block", "equicorrelated"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(n, n))
    a = (a + a.T) / 2.0
    if kind == "unit_diagonal":
        # a[p, p] == a[q, q], so tau is +0.0 or -0.0 in the first sweep
        np.fill_diagonal(a, 1.0)
    elif kind == "interleaved":
        # pairs across groups start at zero and stay skipped
        group = rng.integers(0, draw(st.integers(2, 4)), size=n)
        a[group[:, None] != group[None, :]] = 0.0
    elif kind == "identity_block":
        # a tied eigenvalue 1 over the block
        k = draw(st.integers(0, n))
        a[:k, :] = a[:, :k] = 0.0
        a[:k, :k] = np.eye(k)
    elif kind == "equicorrelated":
        # vectors with entries of equal magnitude tie in the sign rule
        a = np.full((n, n), draw(st.sampled_from([0.5, -0.25, 1.0])))
        np.fill_diagonal(a, 1.0)
    a *= draw(st.sampled_from([1.0, 1.0, 1e-3, 1e6]))
    zeros = draw(st.sampled_from([0.0, 0.0, 0.25, 0.75]))
    zero = np.triu(rng.random((n, n)) < zeros, 1)
    negative = zero & (rng.random((n, n)) < 0.5)
    a[zero | zero.T] = 0.0
    a[negative | negative.T] = -0.0
    if n > 1:
        # off-diagonals on both sides of the skip threshold, and tiny ones
        # whose tau overflows
        threshold = JACOBI_TOL * max(1.0, float(np.max(np.abs(a))))
        edges = [np.nextafter(threshold, np.inf), threshold, np.nextafter(threshold, 0.0),
                 1e-300, -5e-324]
        count = draw(st.integers(0, 4))
        i = rng.integers(0, n, size=count)
        j = (i + rng.integers(1, n, size=count)) % n
        # one value per unordered pair, or (p, q) and (q, p) would differ
        for p, q in sorted({(min(p, q), max(p, q)) for p, q in zip(i.tolist(), j.tolist())}):
            a[p, q] = a[q, p] = draw(st.sampled_from(edges)) * draw(st.sampled_from([1.0, -1.0]))
    return a


@BITS
@given(m=jacobi_matrices())
def test_eigen_bits_match_reference(m):
    _assert_same_bits(m)


def _screen(columns, rows=2000, seed=3):
    """Correlation of ``columns`` PSF-like columns that share two factors."""
    rng = np.random.default_rng(seed)
    shared = rng.normal(size=(rows, 2))
    x = shared @ rng.normal(size=(2, columns)) + rng.normal(size=(rows, columns))
    return np.corrcoef(x, rowvar=False)


def test_eigen_bits_match_reference_on_table3_a_wide_screen_and_no_columns(table3):
    _assert_same_bits(correlation_matrix(table3, table3.column_names))
    _assert_same_bits(_screen(60))
    _assert_same_bits(np.zeros((0, 0)))


@pytest.mark.parametrize("n", [3, 8, 61])
def test_eigen_pair_free_steps_turn_a_negative_zero_as_the_reference_does(n):
    # Every step but the one that rotates (0, 1) is pair-free.  Run, such a
    # step turns the -0.0 to +0.0 where it meets a +0.0 in its pair, so the
    # solver may not end the sweep before it.
    m = np.eye(n)
    m[0, 1] = m[1, 0] = 0.5
    m[2, 2] = -0.0
    _assert_same_bits(m)


@pytest.mark.parametrize("max_sweeps", [1, 2, 60])
@pytest.mark.parametrize("negative_zeros", [False, True])
@pytest.mark.parametrize("n", range(2, 65))
def test_eigen_sweep_ends_where_the_reference_does_at_every_step(n, negative_zeros, max_sweeps):
    # The one active pair (0, n - 1) rotates at a step that moves with n;
    # the next step has nothing left to rotate, and the solve may end there
    # unless a -0.0 keeps every step running.  Run, a pair-free step turns
    # a -0.0 diagonal entry to +0.0 where its pair's entry is -0.0.
    m = np.eye(n)
    m[0, n - 1] = m[n - 1, 0] = 0.5
    if negative_zeros:
        i, j = np.indices((n, n))
        m[(m == 0.0) & ((i + j) % 2 == 1)] = -0.0
        m[n // 2, n // 2] = -0.0
    _assert_same_bits(m, max_sweeps=max_sweeps)


@pytest.mark.parametrize("max_sweeps", [0, 1, 2])
@pytest.mark.parametrize("n", [2, 5, 9, 30])
def test_eigen_budget_diagnostics_match_reference(n, max_sweeps):
    _assert_same_bits(_random_symmetric(40 + n, n=n), max_sweeps=max_sweeps)
    _assert_same_bits(_screen(n), max_sweeps=max_sweeps)


# ---------------------------------------------------------------------------
# Finite input near overflow: solved after a power-of-two prescale
# ---------------------------------------------------------------------------

NEAR_OVERFLOW = [
    [[1e308, 1e300], [1e300, -1e308]],
    [[1e308, 0.0], [0.0, 1e308]],
    [[1e308, 5e307, 0.0], [5e307, -3e307, 1e300], [0.0, 1e300, 7e307]],
    _random_symmetric(7, n=6) * 4e307,
    _random_symmetric(8, n=9) * 2.0 ** 961,
]


@pytest.mark.parametrize("m", NEAR_OVERFLOW)
def test_eigen_near_overflow_is_finite(m):
    m = np.array(m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, vectors = eigen_symmetric(m)
    expected = np.linalg.eigvalsh(m)[::-1]
    assert np.all(np.isfinite(values))
    assert np.all(np.abs(values - expected) <= 1e-12 * np.abs(expected).max())
    assert_allclose(vectors.T @ vectors, np.eye(len(m)), atol=1e-12)


@pytest.mark.parametrize("seed", [1, 2])
def test_eigen_prescale_is_exact(seed):
    """Above the cut the solve is the unscaled one's, scaled by a power of two."""
    m = _random_symmetric(seed, n=7)
    values, vectors = eigen_symmetric(np.ldexp(m, 1000))
    small_values, small_vectors = eigen_symmetric(m)
    assert np.ldexp(small_values, 1000).view(np.uint64).tolist() == values.view(np.uint64).tolist()
    assert small_vectors.view(np.uint64).tolist() == vectors.view(np.uint64).tolist()


def test_eigen_near_overflow_budget_diagnostics_are_unscaled():
    with pytest.raises(NoConvergence) as info:
        eigen_symmetric(np.array(NEAR_OVERFLOW[0]), max_sweeps=0)
    assert info.value.diagnostics == {"sweeps": 0, "max_offdiag": 1e300}


def test_eigen_beyond_the_float_range_is_an_input_error():
    with pytest.raises(InputError, match="exceeds the float range"):
        eigen_symmetric(np.full((2, 2), 1e308))


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
# run_pca
# ---------------------------------------------------------------------------

def test_run_pca_perfectly_correlated_pair():
    # fatigue is uncorrelated with the pair, so it is a component of its own.
    data = _dataset(a=[1.0, 2.0, 3.0, 4.0], b=[2.0, 4.0, 6.0, 8.0], fatigue=[0.2, 0.4, 0.4, 0.2])
    result = run_pca(data)
    assert_allclose(result.eigenvalues, [2.0, 1.0, 0.0], atol=1e-12)
    assert_allclose(result.proportions, [2 / 3, 1 / 3, 0.0], atol=1e-12)


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

    def pca_of(names):
        return run_pca(Dataset(names, {c: table3.column(c) for c in names}))

    base = pca_of(cols)
    permuted = pca_of([cols[3], cols[2], cols[0], cols[1]])
    assert_allclose(permuted.eigenvalues, base.eigenvalues, atol=1e-10)
    for name in cols:
        i, j = base.column_names.index(name), permuted.column_names.index(name)
        assert_allclose(permuted.eigenvectors[j, :], base.eigenvectors[i, :], atol=1e-8)


# ---------------------------------------------------------------------------
# select_factors
# ---------------------------------------------------------------------------

def test_select_threshold_one_keeps_all_components(table3):
    result = run_pca(table3)
    selection = select_factors(result, 1.0)
    assert selection.retained_components == 9
    assert set(selection.names) == set(table3.psf_names)


def test_select_workshop_retains_three(table3):
    selection = select_factors(run_pca(table3), 0.65)
    assert selection.retained_components == 3


def test_select_scores_match_direct_recomputation(table3):
    result = run_pca(table3)
    selection = select_factors(result, 0.65)
    k = selection.retained_components
    for name, score in selection.selected_factors:
        i = result.column_names.index(name)
        expected = sum(
            result.eigenvalues[c] * abs(result.eigenvectors[i, c]) for c in range(k)
        )
        assert score == pytest.approx(expected, rel=1e-12)
    scores = [s for _, s in selection.selected_factors]
    assert all(a >= b for a, b in zip(scores, scores[1:]))


def _per_name_ranking(pca, k, response):
    """The ranking with one numpy sum per PSF, looked up by name."""
    names = [c for c in pca.column_names if c != response]
    scores = [float(np.sum(pca.eigenvalues[:k]
                           * np.abs(pca.eigenvectors[pca.column_names.index(name), :k])))
              for name in names]
    order = np.argsort(-np.asarray(scores), kind="stable")
    return tuple((names[i], scores[i]) for i in order)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [2, 9, 60])
def test_select_scores_match_per_name_sums_bit_for_bit(n, seed):
    rng = np.random.default_rng(seed)
    values = np.sort(rng.exponential(size=n))[::-1]
    vectors, _ = np.linalg.qr(rng.normal(size=(n, n)))
    proportions = values / values.sum()
    names = tuple(f"psf_{i}" for i in range(n - 1)) + ("fatigue",)
    names = tuple(rng.permutation(names).tolist())
    pca = PcaResult(names, values, vectors, proportions, np.cumsum(proportions), False)
    for threshold in (0.3, 0.65, 0.9, 0.99, 1.0):
        selection = select_factors(pca, threshold)
        expected = _per_name_ranking(pca, selection.retained_components, "fatigue")
        assert selection.selected_factors == expected
        assert all(type(score) is float for _, score in selection.selected_factors)


def test_select_without_a_psf_column_is_an_input_error():
    with pytest.raises(InputError, match="no column besides the response 'fatigue'"):
        select_factors(run_pca(_dataset(fatigue=[0.2, 0.5, 0.7])), 0.65)


def test_select_ranks_response_copy_first():
    rng = np.random.default_rng(42)
    y = rng.uniform(0.1, 0.9, size=24)
    data = _dataset(
        copy=y.tolist(),
        noise_a=rng.normal(size=24).tolist(),
        noise_b=rng.normal(size=24).tolist(),
        fatigue=y.tolist(),
    )
    selection = select_factors(run_pca(data), 0.65)
    assert selection.names[0] == "copy"


def test_select_monotone_in_threshold(table3):
    result = run_pca(table3)
    retained = [
        select_factors(result, t).retained_components
        for t in (0.2, 0.4, 0.65, 0.8, 0.95, 1.0)
    ]
    assert all(a <= b for a, b in zip(retained, retained[1:]))


def test_select_threshold_validation(table3):
    result = run_pca(table3)
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(InputError):
            select_factors(result, bad)
