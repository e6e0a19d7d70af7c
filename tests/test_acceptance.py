"""Acceptance gate: one test per release criterion, tolerances pinned.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible with
``pytest -s`` or on failure) and asserts the criterion at its pinned
tolerance.  Reference numbers are the frozen published values for the
bundled lathing-workshop study that ships as ``builtin:table3`` /
``builtin:table8``.
"""

import math
import time

import numpy as np

from ahft import (
    DEFAULT_PERCENTILE,
    FactorSpec,
    SyntheticSpec,
    builtin_table3,
    builtin_table8,
    coef_ci,
    evaluate,
    fit_mle,
    generate_synthetic,
    positive_param_ci,
    recovery_check,
    run_pca,
    wald_stats,
    weibull_cdf,
    weibull_quantile,
)
from ahft import Dataset, fatigue_at, rate_from_fatigue
from ahft.alt import _derivatives, _design, _loglik, _response
from ahft.cli import main
from oracles import central_diff_gradient, ks_statistic

# --- frozen reference spectrum of the workshop correlation matrix ----------
REF_EIGENVALUES = np.array(
    [2.7430, 1.7996, 1.3479, 1.1389, 0.7193, 0.6709, 0.3977, 0.1681, 0.0145]
)
REF_PROPORTIONS = np.array(
    [0.305, 0.200, 0.150, 0.127, 0.080, 0.075, 0.044, 0.019, 0.002]
)
REF_CUMULATIVE = np.array(
    [0.305, 0.505, 0.655, 0.781, 0.861, 0.936, 0.980, 0.998, 1.000]
)

# --- frozen reference loading matrix (rows follow the dataset column order) -
REF_LOADINGS = np.array([
    [0.165, -0.641, -0.043, -0.090, 0.214, -0.342, 0.197, -0.523, 0.276],
    [0.244, 0.489, -0.163, -0.421, 0.042, 0.370, 0.365, -0.358, 0.313],
    [0.298, 0.180, -0.219, 0.651, -0.339, 0.024, -0.315, -0.403, 0.173],
    [0.421, 0.041, 0.362, -0.143, 0.462, 0.100, -0.610, 0.103, 0.251],
    [0.402, -0.234, 0.064, 0.439, 0.165, 0.362, 0.497, 0.411, 0.115],
    [0.084, -0.023, -0.809, -0.123, 0.126, -0.209, -0.156, 0.411, 0.265],
    [0.383, -0.001, 0.279, -0.260, -0.653, -0.370, 0.083, 0.279, 0.245],
    [-0.076, -0.509, -0.125, -0.252, -0.393, 0.650, -0.279, -0.017, 0.041],
    [0.571, -0.048, -0.200, -0.178, 0.008, -0.035, -0.019, -0.100, 0.767],
])

TWO_FACTORS = (FactorSpec("available_time"), FactorSpec("stress"))


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_acceptance_01_eigen_spectrum_reproduction():
    data = builtin_table3()
    start = time.perf_counter()
    result = run_pca(data)
    elapsed = time.perf_counter() - start
    eig_err = float(np.max(np.abs(result.eigenvalues - REF_EIGENVALUES)))
    prop_err = float(np.max(np.abs(result.proportions - REF_PROPORTIONS)))
    cum3_err = abs(float(result.cumulative[2]) - 0.655)
    ok = eig_err <= 2e-3 and prop_err <= 1e-3 and cum3_err <= 1e-3 and elapsed < 1.0
    _report(
        "eigen spectrum reproduction", ok,
        f"max eigenvalue err {eig_err:.2e} (<=2e-3), max proportion err "
        f"{prop_err:.2e} (<=1e-3), cumulative[3] err {cum3_err:.2e} (<=1e-3), "
        f"{elapsed * 1e3:.1f} ms (<1 s)",
    )


def test_acceptance_02_loading_matrix_reproduction():
    result = run_pca(builtin_table3())
    vectors = result.eigenvectors
    # compare a component column only when its eigenvalue is separated from
    # both neighbours (tied subspaces make individual loadings arbitrary)
    values = result.eigenvalues
    gaps = np.abs(np.diff(values))
    worst_signed = 0.0
    for c in range(8):  # leading eight components, sign-aligned
        separated = (c == 0 or gaps[c - 1] > 1e-3) and gaps[c] > 1e-3
        if not separated:
            continue
        col = vectors[:, c]
        sign = 1.0 if float(col @ REF_LOADINGS[:, c]) >= 0.0 else -1.0
        worst_signed = max(worst_signed, float(np.max(np.abs(sign * col - REF_LOADINGS[:, c]))))
    last = float(np.max(np.abs(np.abs(vectors[:, 8]) - np.abs(REF_LOADINGS[:, 8]))))
    fatigue_last = abs(abs(vectors[8, 8]) - 0.767)
    ok = worst_signed <= 5e-3 and last <= 5e-3 and fatigue_last <= 5e-3
    _report(
        "loading matrix reproduction", ok,
        f"max signed loading err {worst_signed:.2e} (<=5e-3), last-component "
        f"magnitude err {last:.2e} (<=5e-3), fatigue loading err "
        f"{fatigue_last:.2e} (<=5e-3)",
    )


def test_acceptance_03_interval_and_wald_goldens():
    checks = []

    lo, hi = coef_ci(36.60, 15.72, 0.99)
    checks.append(abs(lo - (-3.90)) <= 0.02 and abs(hi - 77.09) <= 0.02)

    # shape row is compared at the reference table's printed two decimals
    lo, hi = positive_param_ci(3.64, 0.86, 0.99)
    checks.append(
        abs(round(lo, 2) - 1.97) <= 0.02 + 1e-9 and abs(round(hi, 2) - 6.71) <= 0.02 + 1e-9
    )

    lo, hi = positive_param_ci(0.114565, 0.0200486, 0.99)
    checks.append(abs(lo - 0.0729939) <= 2e-4 and abs(hi - 0.179811) <= 2e-4)

    z, p = wald_stats(36.60, 15.72)
    checks.append(abs(z - 2.33) <= 0.005 and abs(p - 0.02) <= 0.005)

    z, p = wald_stats(-10723.90, 4344.03)
    checks.append(abs(z - (-2.47)) <= 0.005 and abs(p - 0.01) <= 0.005)

    ok = all(checks)
    _report(
        "interval and Wald goldens", ok,
        f"{sum(checks)}/5 golden rows inside pinned tolerances "
        "(CI 0.02 raw / 0.02 at printed precision / 2e-4; Wald 0.005)",
    )


def test_acceptance_04_synthetic_recovery_and_coverage():
    start = time.perf_counter()
    truth_alpha = (-2.0, 0.3, -0.1)
    truth_shape = 3.0
    factors = (FactorSpec("f1"), FactorSpec("f2"))
    pools = ((0.5, 1.0, 2.0, 5.0), (1.0, 2.0, 5.0))

    summary = recovery_check(
        SyntheticSpec(truth_alpha, truth_shape, factors, pools, n=500, seed=20240601)
    )
    rel_errors = [
        abs(est - true) / abs(true)
        for est, true in zip(summary.model.alpha, truth_alpha)
    ]
    rel_errors.append(abs(summary.model.shape - truth_shape) / truth_shape)
    recovery_ok = summary.max_abs_z < 3.0 and max(rel_errors) <= 0.10

    truth_vec = list(truth_alpha) + [math.log(truth_shape)]
    hits = np.zeros(4)
    n_reps = 500
    for i in range(n_reps):
        data = generate_synthetic(
            SyntheticSpec(truth_alpha, truth_shape, factors, pools, n=200, seed=50000 + i)
        )
        model = fit_mle(data, factors)
        estimates = list(model.alpha) + [math.log(model.shape)]
        for j, (est, se) in enumerate(zip(estimates, model.standard_errors)):
            lo, hi = coef_ci(est, se, 0.95)
            hits[j] += lo <= truth_vec[j] <= hi
    coverage = hits / n_reps
    coverage_ok = bool(np.all((coverage >= 0.90) & (coverage <= 0.99)))
    elapsed = time.perf_counter() - start

    ok = recovery_ok and coverage_ok and elapsed < 60.0
    _report(
        "synthetic recovery and coverage", ok,
        f"max |z| {summary.max_abs_z:.2f} (<3), max rel err {max(rel_errors):.3f} "
        f"(<=0.10), coverage {np.round(coverage, 3).tolist()} (in [0.90, 0.99]), "
        f"{elapsed:.1f} s (<60 s)",
    )


def test_acceptance_05_holdout_validation_error():
    model = fit_mle(builtin_table3(), TWO_FACTORS)
    report = evaluate(model, builtin_table8(), DEFAULT_PERCENTILE)
    in_range = all(
        math.isfinite(predicted) and 0.0 < predicted < 1.0
        for _, _, predicted, _ in report.rows
    )
    arithmetic_ok = all(
        abs(error - abs(predicted - observed) / observed) <= 1e-4
        for _, observed, predicted, error in report.rows
    )
    ok = in_range and arithmetic_ok and report.mean_relative_error <= 0.5
    _report(
        "hold-out validation error", ok,
        f"mean relative error {report.mean_relative_error:.4f} (<=0.5) at "
        f"p={DEFAULT_PERCENTILE}, predictions finite in (0,1): {in_range}, "
        f"per-row arithmetic within 1e-4: {arithmetic_ok}",
    )


def test_acceptance_06_property_invariants():
    data = builtin_table3()
    failures = []

    # analytic gradient vs central differences at 20 random points (<=1e-4 rel)
    z = _design(data, TWO_FACTORS)
    logt = np.log(_response(data, "fatigue"))
    rng = np.random.default_rng(7)
    for _ in range(20):
        theta = np.concatenate([
            rng.uniform(-3.0, 0.0, 1),
            rng.uniform(-0.2, 0.2, 2),
            rng.uniform(-0.3, 1.2, 1),
        ])
        analytic = _derivatives(theta, z, logt)[0]
        numeric = central_diff_gradient(lambda th: _loglik(th, z, logt), theta)
        if not np.allclose(analytic, numeric, rtol=1e-4, atol=1e-6):
            failures.append("gradient")
            break

    # quantile/CDF round trip (<=1e-10)
    for p in (1e-6, 0.25, 0.5, 1.0 - math.exp(-1.0), 0.99, 1.0 - 1e-6):
        for eta in (0.05, 1.0, 30.0):
            for shape in (0.5, 1.0, 4.0, 18.0):
                t = weibull_quantile(eta, shape, p)
                if abs(weibull_cdf(t, eta, shape) - p) > 1e-10:
                    failures.append("quantile-roundtrip")
                    break

    # fatigue/rate round trip (<=1e-12)
    for f in (1e-6, 0.13, 0.5, 0.97):
        for t in (0.25, 1.0, 12.0):
            if abs(fatigue_at(rate_from_fatigue(f, t), t) - f) > 1e-12:
                failures.append("fatigue-roundtrip")
                break

    # eigen reconstruction (<=1e-8)
    from ahft import correlation_matrix, eigen_symmetric
    r = correlation_matrix(data, data.column_names)
    values, vectors = eigen_symmetric(r)
    if np.max(np.abs(r - vectors @ np.diag(values) @ vectors.T)) > 1e-8:
        failures.append("eigen-reconstruction")

    # PCA invariance under column rescaling and row reordering
    base = run_pca(data)
    scaled = run_pca(Dataset(data.column_names,
                             {**data.columns, "stress": 7.3 * data.column("stress")}))
    order = [7, 3, 14, 0, 9, 1, 12, 5, 11, 2, 13, 8, 4, 10, 6]
    shuffled = run_pca(Dataset(data.column_names,
                               {c: v[order] for c, v in data.columns.items()}))
    if not (
        np.allclose(scaled.eigenvalues, base.eigenvalues, atol=1e-10)
        and np.allclose(scaled.eigenvectors, base.eigenvectors, atol=1e-8)
        and np.allclose(shuffled.eigenvalues, base.eigenvalues, atol=1e-10)
        and np.allclose(shuffled.eigenvectors, base.eigenvectors, atol=1e-8)
    ):
        failures.append("pca-invariance")

    # synthetic draws against the closed-form CDF (KS < 0.02 at 1e4 draws)
    spec = SyntheticSpec((0.0, 0.0), 1.7, (FactorSpec("c"),), ((1.0,),),
                         n=10_000, seed=424242)
    draws = generate_synthetic(spec).column("fatigue")
    ks = ks_statistic(draws, lambda t: weibull_cdf(t, 1.0, 1.7))
    if ks >= 0.02:
        failures.append("ks")

    ok = not failures
    _report(
        "property invariants", ok,
        "gradient 1e-4, quantile round trip 1e-10, fatigue round trip 1e-12, "
        f"eigen reconstruction 1e-8, PCA invariance, KS {ks:.4f} (<0.02)"
        + (f"; failed: {failures}" if failures else ""),
    )


def test_acceptance_07_cli_determinism(tmp_path, monkeypatch):
    monkeypatch.delenv("AHFT_OUTPUT_DIR", raising=False)
    artifacts = ("eigen.csv", "loadings.csv", "scree.csv", "scree.svg",
                 "selection.txt", "model.json", "regression.csv", "validation.csv")
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main(["pca", "--input", "builtin:table3", "--output-dir", str(out)]) == 0
        assert main(["fit", "--input", "builtin:table3",
                     "--factors", "available_time,stress", "--output-dir", str(out)]) == 0
        assert main(["validate", "--model", str(out / "model.json"),
                     "--holdout", "builtin:table8", "--output-dir", str(out)]) == 0
        outs.append(out)
    mismatched = [
        name for name in artifacts
        if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes()
    ]
    ok = not mismatched
    _report(
        "cli determinism", ok,
        f"{len(artifacts)} artifacts byte-identical across runs"
        + (f"; mismatched: {mismatched}" if mismatched else ""),
    )
