"""The Newton fit against its frozen reference, bit for bit.

``fit_mle`` runs on one workspace per fit: its likelihood kernels write
every n-vector with ``out=`` and reuse an accepted trial's exp terms.
``tests/oracles.py`` keeps the kernels and the Newton loop as they stood
before, and every result here must equal theirs to the bit (compared
through ``.view(np.uint64)``), with the same warnings and the same
failures.  The equality must hold on every BLAS kernel, so CI runs this
file again on OpenBLAS's unfused Nehalem kernel.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from ahft import FactorSpec, builtin_table3, fit_mle
from ahft.alt import TRANSFORMS, _derivatives, _design, _loglik, _Workspace
from ahft.dataset import Dataset
from ahft.errors import DegenerateFactor, NoConvergence, SingularInformation
from ahft.validation import SyntheticSpec, generate_synthetic, redraw_below_one
from oracles import derivatives_reference, loglik_reference, newton_reference

# No shrink or explain phase: a failure is reported as first found.
BITS = settings(max_examples=100, derandomize=True, deadline=None, database=None,
                phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

README_POOLS = ((0.5, 1.0, 2.0, 5.0), (1.0, 2.0, 5.0))
COHORT_POOLS = ((0.01, 0.1, 1.0, 10.0), (1.0, 2.0, 5.0))


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.uint64).tolist()


def _outcome(f, *args):
    """The bits of what ``f(*args)`` returns, or its failure, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = f(*args)
        except (NoConvergence, SingularInformation) as exc:
            result = (type(exc).__name__, str(exc), repr(getattr(exc, "diagnostics", None)))
        except OverflowError as exc:
            result = ("OverflowError", str(exc))
        else:
            if isinstance(result, tuple):
                result = tuple(_bits(r) if isinstance(r, (np.ndarray, float)) else r
                               for r in result)
            else:
                result = _bits(result)
    return result, sorted({(w.category.__name__, str(w.message)) for w in caught})


# ---------------------------------------------------------------------------
# The kernels
# ---------------------------------------------------------------------------

@st.composite
def designs(draw):
    """A design of n = 1-3000 rows and k = 1-6 columns, with ln t."""
    n = draw(st.sampled_from(range(1, 13)) | st.integers(13, 3000))
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    specs = tuple(FactorSpec(f"x{j}", draw(st.sampled_from(TRANSFORMS))) for j in range(k - 1))
    columns = {f.name: rng.choice(rng.uniform(0.01, 10.0, size=4), size=n) for f in specs}
    z = _design(columns, specs) if specs else np.ones((n, 1))
    logt = rng.normal(-1.0, draw(st.sampled_from([0.1, 1.0, 5.0])), size=n)
    return z, logt, rng


@st.composite
def thetas(draw, k, rng):
    """A theta of k + 1 entries; its phi near 0, at the 700 cut, or far past it."""
    kind = draw(st.sampled_from(["plain", "plain", "overflow", "cut"]))
    alpha = rng.normal(0.0, 0.5, size=k)
    if kind == "plain":
        phi = rng.uniform(-2.0, 2.0)
    elif kind == "overflow":  # beta * u passes ~709 on some row: exp gives inf
        phi = rng.uniform(3.0, 8.0)
    else:
        phi = draw(st.sampled_from([np.nextafter(700.0, 0.0), 700.0, np.nextafter(700.0, 800.0),
                                    709.0, 710.0]))
    return np.concatenate([alpha, [phi]])


@given(data=st.data())
@BITS
def test_kernels_match_reference(data):
    z, logt, rng = data.draw(designs())
    k = z.shape[1]
    a, b = data.draw(thetas(k, rng)), data.draw(thetas(k, rng))
    work = _Workspace(z, logt)
    steps = [  # in this order, on one workspace
        (work.loglik, loglik_reference, a),
        (work.derivatives, derivatives_reference, a),     # reuses a's terms
        (work.loglik, loglik_reference, b),
        (work.derivatives, derivatives_reference, a),     # must recompute
        (work.derivatives, derivatives_reference, a),
        (work.loglik, loglik_reference, b),
        (work.derivatives, derivatives_reference, b),
    ]
    for call, reference, theta in steps:
        assert _outcome(call, theta) == _outcome(reference, theta, z, logt)
    assert _outcome(_loglik, a, z, logt) == _outcome(loglik_reference, a, z, logt)
    assert _outcome(_derivatives, b, z, logt) == _outcome(derivatives_reference, b, z, logt)


@st.composite
def bound_problems(draw):
    """A workspace of 3-2000 rows and eight thetas to bound its log-likelihood at.

    Columns are pooled or continuous, at scales from 1e-3 to 1e3.  A third
    of the designs give every row the same beta*u, Jensen's equality case,
    across the whole range of exp: from underflow past its overflow.
    """
    n = draw(st.sampled_from(range(3, 13)) | st.integers(13, 2000))
    k = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=k)
    z = np.ones((n, k))
    for j in range(1, k):
        if draw(st.booleans()):
            z[:, j] = rng.choice(rng.uniform(-1.0, 1.0, size=4), size=n) * scale[j]
        else:
            z[:, j] = rng.normal(size=n) * scale[j]
    equal = draw(st.sampled_from([False, False, True]))
    logt = np.full(n, rng.normal(0.0, 3.0)) if equal else rng.normal(-1.0, 2.0, size=n)
    points = []
    for _ in range(8):
        phi = draw(st.sampled_from(["plain", "plain", "large", "cut"]))
        phi = {"plain": rng.uniform(-3.0, 3.0), "large": rng.uniform(3.0, 700.0),
               "cut": draw(st.sampled_from([np.nextafter(700.0, 0.0), 700.0,
                                            np.nextafter(700.0, 800.0)]))}[phi]
        if equal:  # every b_i = beta * (ln t - alpha_0), from -800 to 712
            alpha = np.zeros(k)
            alpha[0] = logt[0] - rng.uniform(-800.0, 712.0) / math.exp(phi)
        else:
            alpha = rng.normal(0.0, 1.0, size=k) / scale * 10.0 ** rng.uniform(-4.0, 0.0)
        points.append(np.concatenate([alpha, [phi]]))
    return _Workspace(z, logt), points


@given(problem=bound_problems())
@settings(BITS, max_examples=300)
def test_loglik_never_exceeds_its_bound(problem):
    """The line search skips a trial whose bound is below the floor, so the
    evaluated log-likelihood must never be above the bound, rounding and all;
    and the bound must raise no warning, or a fit would gain one."""
    work, points = problem
    for theta in points:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = work.upper_bound(theta)
        assert work.loglik(theta) <= bound, theta.tolist()


def test_line_search_evaluates_fewer_trials(cohort):
    """The table3 and cohort fits evaluate 31 and 92 trials without the bound."""
    specs = (FactorSpec("available_time"), FactorSpec("stress"))
    calls = []
    loglik = _Workspace.loglik
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Workspace, "loglik", lambda work, theta: calls.append(theta) or
                      loglik(work, theta))
        fit_mle(builtin_table3(), specs)
        assert len(calls) == 15
        calls.clear()
        fit_mle(cohort, specs)
        assert len(calls) == 35


def test_theta_changed_in_place_is_recomputed():
    """The cache keys on theta's bytes, not on the array object."""
    table3 = builtin_table3()
    specs = (FactorSpec("available_time"), FactorSpec("stress"))
    z, logt = _design(table3, specs), np.log(table3.column("fatigue"))
    theta = np.array([-1.0, 0.1, -0.2, 0.5])
    work = _Workspace(z, logt)
    work.loglik(theta)
    theta[1] = 0.3
    assert _outcome(work.derivatives, theta) == _outcome(derivatives_reference, theta, z, logt)


# ---------------------------------------------------------------------------
# Whole fits
# ---------------------------------------------------------------------------

def _fit(data, specs, max_iterations):
    model = fit_mle(data, specs, max_iterations)
    return (model.alpha, np.float64(model.shape), model.covariance,
            np.float64(model.fit_meta.log_likelihood), model.fit_meta.iterations)


def _reference_fit(data, specs, max_iterations):
    theta, ll, iterations, covariance = newton_reference(
        _design(data, specs), data.column("fatigue"), max_iterations)
    return (theta[:-1], np.float64(math.exp(theta[-1])), covariance, np.float64(ll), iterations)


def _assert_same_fit(data, specs, max_iterations=200):
    z = _design(data, specs)
    if np.linalg.matrix_rank(z) < z.shape[1]:  # refused before the reference's Newton loop
        with pytest.raises(DegenerateFactor, match="is a linear combination"):
            fit_mle(data, specs, max_iterations)
        return None
    got = _outcome(_fit, data, specs, max_iterations)
    assert got == _outcome(_reference_fit, data, specs, max_iterations)
    return got


def _simulated(alpha, shape, specs, pools, n, seed):
    spec = SyntheticSpec(tuple(alpha), shape, specs, pools, n, seed)
    return redraw_below_one(spec, generate_synthetic(spec))


TABLE3_FACTORS = [
    ("available_time", "stress"),
    ("available_time:log", "stress"),
    ("available_time:log", "stress:reciprocal", "complexity", "procedures"),
]


@pytest.mark.parametrize("names", TABLE3_FACTORS)
@pytest.mark.parametrize("max_iterations", [1, 2, 5, 200])
def test_table3_fits_match_reference(names, max_iterations):
    specs = tuple(FactorSpec(*name.split(":")) for name in names)
    _assert_same_fit(builtin_table3(), specs, max_iterations)


@pytest.mark.parametrize("seed", [7, 9, 11])
@pytest.mark.parametrize("max_iterations", [1, 2, 5, 200])
@pytest.mark.parametrize("first", ["identity", "log"])
def test_readme_simulate_fits_match_reference(seed, max_iterations, first):
    specs = (FactorSpec("f1", first), FactorSpec("f2"))
    data = _simulated((-2.0, 0.3, -0.1), 3.0, specs, README_POOLS, 200, seed)
    result, _ = _assert_same_fit(data, specs, max_iterations)
    if max_iterations < 5:
        assert result[0] == "NoConvergence"


@pytest.fixture(scope="module")
def cohort(table3_model):
    """A 2e4-row training file drawn from the table3 model, as ``simulate`` draws it."""
    return _simulated(table3_model.alpha, table3_model.shape, table3_model.factors,
                      COHORT_POOLS, 20_000, 6)


@pytest.mark.parametrize("transform", ["identity", "log"])
@pytest.mark.parametrize("max_iterations", [1, 2, 5, 200])
def test_cohort_fit_matches_reference(cohort, transform, max_iterations):
    specs = (FactorSpec("available_time", transform), FactorSpec("stress"))
    result, caught = _assert_same_fit(cohort, specs, max_iterations)
    assert caught == []
    assert (result[0] == "NoConvergence") == (max_iterations <= 5)


@st.composite
def fit_problems(draw):
    """Datasets of 4-3000 rows on 1-5 factors, Weibull, constant or two-valued in t."""
    n_factors = draw(st.integers(1, 5))
    n = draw(st.sampled_from(range(n_factors + 3, 13)) | st.integers(13, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    specs = tuple(FactorSpec(f"x{j}", draw(st.sampled_from(TRANSFORMS)))
                  for j in range(n_factors))
    columns = {}
    for f in specs:
        pool = rng.uniform(0.05, 10.0, size=draw(st.integers(2, 5)))
        column = rng.choice(pool, size=n)
        column[:2] = pool[:2]  # no factor is constant
        columns[f.name] = column
    z = _design(columns, specs)
    kind = draw(st.sampled_from(["weibull", "weibull", "weibull", "constant", "two-valued"]))
    if kind == "weibull":
        alpha = rng.normal(0.0, 0.3, size=n_factors + 1) / np.maximum(1.0, np.abs(z).max(axis=0))
        shape = rng.uniform(0.5, 5.0)
        u = rng.uniform(1e-9, 1.0 - 1e-9, size=n)
        fatigue = np.exp(z @ alpha) * (-np.log1p(-u)) ** (1.0 / shape)
    elif kind == "constant":
        fatigue = np.full(n, rng.uniform(0.1, 0.9))
    else:
        fatigue = rng.choice([0.2, 0.7], size=n)
    columns["fatigue"] = fatigue
    data = Dataset(tuple(f.name for f in specs) + ("fatigue",), columns)
    return data, specs, draw(st.sampled_from([1, 2, 5, 200, 200, 200]))


@given(problem=fit_problems())
@BITS
def test_fits_match_reference(problem):
    _assert_same_fit(*problem)
