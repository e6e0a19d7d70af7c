"""Column standardization against its frozen reference, bit for bit.

``standardize`` builds the (k, n) block of a narrow table's columns and
takes each column's sums along its contiguous row; a wider table is
reduced as the (n, k) matrix.  ``tests/oracles.py`` keeps the version
that ran numpy's ``mean`` and ``std`` on the (n, k) matrix, and
``standardize`` and ``correlation_matrix`` must equal it to the bit
(compared through ``.view(np.uint64)``), with the same failures and the
same warnings, on both sides of the route's crossover.  The sums run on
numpy's SIMD loops, so CI runs this file again on numpy's baseline
dispatch.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from ahft import dataset as dataset_module
from ahft.dataset import Dataset, correlation_matrix, standardize
from oracles import standardize_reference

# No shrink or explain phase: a failure is reported as first found.
BITS = settings(max_examples=100, derandomize=True, deadline=None, database=None,
                phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

# A drawn table holds at most this many PSF cells, so wide tables stay short.
CELLS = 400_000


def _table(values: np.ndarray) -> tuple[Dataset, list[str]]:
    """A Dataset of the rows of ``values`` as PSF columns, and their names."""
    names = [f"c{j}" for j in range(len(values))]
    columns = dict(zip(names, values))
    columns["fatigue"] = np.full(values.shape[1], 0.5)
    return Dataset(names + ["fatigue"], columns), names


def _outcome(f, data, names):
    """The shape, layout and bits of what ``f`` returns, or its failure, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            z = f(data, names)
        except ValueError as exc:  # InputError and numpy's empty-stack error
            result = (type(exc).__name__, str(exc))
        else:
            result = (z.shape, z.flags.c_contiguous, z.view(np.uint64).tolist())
    return result, sorted({(w.category.__name__, str(w.message)) for w in caught})


def _assert_same_bits(data, names):
    assert _outcome(standardize, data, names) == _outcome(standardize_reference, data, names)
    with mock.patch.object(dataset_module, "standardize", standardize_reference):
        expected = _outcome(correlation_matrix, data, names)
    assert _outcome(correlation_matrix, data, names) == expected


@st.composite
def tables(draw):
    """k = 1-70 columns of n = 2-50,000 rows, scaled from 1e-300 to 1e300.

    A table may hold a constant column or a cell of +-1e308 in one column.
    """
    n = draw(st.sampled_from(range(2, 13)) | st.integers(13, 3000) | st.integers(3001, 50_000)
             | st.just(50_000))
    # One column, or either side of standardize's crossover from rows to reduce.
    k = draw(st.just(1) | st.integers(2, 5) | st.integers(6, 70))
    k = min(k, max(1, CELLS // n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Past about 1e150 a column's squares overflow and below 1e-150 they
    # vanish, so most tables keep their scales inside that.
    span = draw(st.sampled_from([0, 5, 50, 140, 140, 300]))
    scale = 10.0 ** rng.integers(-span, span + 1, size=(k, 1))
    if draw(st.booleans()):
        values = rng.standard_normal((k, n))
    else:  # a few levels per column, as the PSF multipliers are
        values = rng.choice(rng.uniform(0.01, 10.0, size=4), size=(k, n))
    values = (values + draw(st.sampled_from([0.0, 1.0, 1e6])) * rng.uniform(-4, 4, (k, 1))) * scale
    j = draw(st.integers(0, k - 1))
    special = draw(st.sampled_from([None, None, None, "constant", "huge"]))
    if special == "constant":
        values[j] = rng.choice([2.0, 0.1, -3e300])
    elif special == "huge":
        values[j, rng.integers(0, n, size=draw(st.integers(1, 3)))] = rng.choice([1e308, -1e308])
    return _table(values)


@BITS
@given(table=tables())
def test_standardize_and_correlation_match_the_reference_bit_for_bit(table):
    _assert_same_bits(*table)


def _edge(case: str, k: int) -> tuple[Dataset, list[str]]:
    rng = np.random.default_rng(k)
    n = 2 if case == "two_rows" else 20_000
    values = rng.standard_normal((k, n)) * 10.0 ** (np.arange(k) - k // 2)[:, None]
    if case == "constant":
        values[k // 2] = 2.0
    elif case == "huge":
        values[k - 1, n // 3] = 1e308
    elif case == "overflow_then_constant":
        values[0, :2] = 1e308
        values[k - 1] = 2.0
    return _table(values)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 6, 9, 70])
@pytest.mark.parametrize("case", ["plain", "two_rows", "constant", "huge", "overflow_then_constant"])
def test_edge_tables_match_the_reference_on_both_routes(case, k):
    _assert_same_bits(*_edge(case, k))


def test_a_table_with_no_columns_is_an_input_error():
    # The reference lets numpy's own "need at least one array" escape.
    data, _ = _table(np.ones((1, 5)))
    message = "standardization needs at least one column"
    assert _outcome(standardize, data, []) == (("InputError", message), [])
    assert _outcome(correlation_matrix, data, []) == (("InputError", message), [])


@pytest.mark.parametrize("k", range(1, 10))
def test_table3_trailing_columns_match_the_reference(table3, k):
    _assert_same_bits(table3, list(table3.column_names[-k:]))
