"""Command-line front end.

Subcommands mirror the pipeline: ``pca`` (factor screening), ``fit``
(model estimation), ``predict``, ``validate`` (hold-out relative
errors), ``curves`` (factor sweeps), ``simulate`` (synthetic data).

Machine-readable output goes to CSV/SVG/JSON files in the output
directory (``--output-dir``, or the ``AHFT_OUTPUT_DIR`` environment
variable, or the working directory); stdout carries a short human
summary.  Artifacts are byte-identical across runs for identical inputs
and seed.

Exit codes: 0 success, 2 bad input or usage, 3 fit did not converge,
4 numerically singular problem.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain
from pathlib import Path

from . import alt, dataset as ds, pca as pca_mod, svg, validation
from .errors import InputError, NoConvergence, SingularProblem

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_SINGULAR = 4


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _out_dir(args) -> Path:
    """The artifact directory; it is made by the first artifact write."""
    return Path(args.output_dir or os.environ.get("AHFT_OUTPUT_DIR") or ".")


def _load_dataset(spec: str) -> ds.Dataset:
    if spec.startswith("builtin:"):
        name = spec.split(":", 1)[1]
        builder = ds.BUILTIN_DATASETS.get(name)
        if builder is None:
            raise InputError(
                f"unknown builtin dataset {name!r}; "
                f"available: {', '.join(sorted(ds.BUILTIN_DATASETS))}"
            )
        return builder()
    try:
        with open(spec, "rb") as fh:
            return ds.load_csv(fh)
    except FileNotFoundError:
        raise InputError(f"input file not found: {spec}") from None


def _parse_factors(text: str) -> list[alt.FactorSpec]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise InputError("at least one factor required")
    return [alt.parse_factor(piece) for piece in items]


def _is_finite(value: float) -> bool:
    return abs(value) <= sys.float_info.max  # False for inf and nan


def _finite(text: str, piece: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InputError(f"cannot parse {text!r} as a number in {piece!r}") from None
    if not _is_finite(value):
        raise InputError(f"{text!r} in {piece!r} is not a finite number")
    return value


def _parse_assignments(text: str) -> dict[str, float]:
    values: dict[str, float] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, sep, value = piece.partition("=")
        if not sep:
            raise InputError(f"expected name=value, got {piece!r}")
        values[ds.normalize_name(name)] = _finite(value, piece)
    if not values:
        raise InputError("no name=value assignments supplied")
    return values


def _parse_grid(text: str) -> list[float]:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InputError(f"grid range must be start:stop:count, got {text!r}")
        start, stop = _finite(parts[0], text), _finite(parts[1], text)
        try:
            count = int(parts[2])
        except ValueError:
            raise InputError(f"cannot parse grid range {text!r}") from None
        if count < 1:
            raise InputError("grid count must be at least 1")
        if count == 1:
            return [start]
        step = (stop - start) / (count - 1)
        if not _is_finite(step):
            raise InputError(f"grid range {text!r} is too wide to step through")
        return [start + i * step for i in range(count)]
    grid = [_finite(piece, text) for piece in text.split(",") if piece.strip()]
    if not grid:
        raise InputError("grid is empty")
    return grid


def _unit_interval(value: float, name: str) -> float:
    if not (0.0 < value < 1.0):
        raise InputError(f"{name} must be in (0,1)")
    return value


def _write(path: Path, data) -> None:
    """Write ``data``: str, bytes, or an iterable of str blocks written as they come."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        for block in [data] if isinstance(data, (str, bytes)) else data:
            fh.write(block.encode("utf-8") if isinstance(block, str) else block)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_pca(args) -> int:
    threshold = _unit_interval(args.threshold, "threshold")
    data = _load_dataset(args.input)
    out = _out_dir(args)

    result = pca_mod.run_pca(data)
    selection = pca_mod.select_factors(result, threshold, args.response)

    n = len(result.eigenvalues)
    labels = [f"PC{i + 1}" for i in range(n)]
    # eigen.csv: one row per statistic, one column per component.
    stats = (result.eigenvalues.tolist(), result.proportions.tolist(), result.cumulative.tolist())
    _write(out / "eigen.csv", ds.csv_blocks(
        [("eigenvalue", "proportion", "cumulative"), *zip(*stats)], ["component"] + labels
    ))
    _write(out / "loadings.csv", ds.csv_blocks(
        [result.column_names, *result.eigenvectors.T.tolist()], ["variable"] + labels
    ))
    scree = [(i + 1, float(v)) for i, v in enumerate(result.eigenvalues)]
    _write(out / "scree.csv", ds.csv_blocks(list(zip(*scree)), ("component", "eigenvalue")))
    _write(out / "scree.svg", svg.line_chart(scree, "Scree plot", "component", "eigenvalue"))
    lines = [
        f"retained_components: {selection.retained_components}",
        f"threshold: {threshold!r}",
        "factors by importance score:",
    ]
    lines += [f"  {name}: {score!r}" for name, score in selection.selected_factors]
    _write(out / "selection.txt", "\n".join(lines) + "\n")

    print(
        f"pca: {n} components; {selection.retained_components} retained at "
        f"threshold {threshold:g}; top factors: "
        + ", ".join(selection.names[:3])
    )
    if result.has_ties:
        print("note: spectrum contains tied eigenvalues; loadings in tied blocks are arbitrary")
    return EXIT_OK


def cmd_fit(args) -> int:
    confidence = _unit_interval(args.confidence, "confidence")
    data = _load_dataset(args.input)
    factors = _parse_factors(args.factors)
    out = _out_dir(args)
    config = alt.FitConfig(max_iterations=args.max_iterations, gradient_tol=args.tol)
    try:
        model = alt.fit_mle(data, factors, response=args.response, config=config)
    except NoConvergence as exc:
        lines = [f"fit did not converge: {exc}"]
        lines += [f"{k}: {v!r}" for k, v in sorted(exc.diagnostics.items())]
        _write(out / "diagnostics.txt", "\n".join(lines) + "\n")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE

    out.mkdir(parents=True, exist_ok=True)
    alt.save_model(model, out / "model.json")
    ses = model.standard_errors
    header = ("Predictor", "Coef", "StandardError", "Z", "P", "LowerCI", "UpperCI")
    rows = []
    names = ("Intercept",) + tuple(f.name for f in model.factors)
    for i, name in enumerate(names):
        coef, se = float(model.alpha[i]), float(ses[i])
        z, p = alt.wald_stats(coef, se)
        lo, hi = alt.coef_ci(coef, se, confidence)
        rows.append([name, coef, se, z, p, lo, hi])
    # The shape row reports on the beta scale: SE by the delta method from
    # se(ln beta), interval log-normal; no Wald columns.
    se_shape = model.shape * float(ses[-1])
    lo, hi = alt.positive_param_ci(model.shape, se_shape, confidence)
    rows.append(["Shape", float(model.shape), se_shape, "", "", lo, hi])
    _write(out / "regression.csv", ds.csv_blocks(list(zip(*rows)), header))

    print(
        f"fit: converged in {model.fit_meta.iterations} iterations; "
        f"log-likelihood {model.fit_meta.log_likelihood:.6g}; "
        f"shape {model.shape:.6g}; model.json and regression.csv written"
    )
    return EXIT_OK


def cmd_predict(args) -> int:
    confidence = _unit_interval(args.confidence, "confidence")
    percentile = _unit_interval(args.percentile, "percentile")
    model = alt.load_model(args.model)
    point = _parse_assignments(args.at)
    out = _out_dir(args)

    prediction = alt.predict_with_interval(model, point, percentile, confidence)
    factor_names = [f.name for f in model.factors]
    header = factor_names + ["percentile_p", "value", "std_error", "lower_ci", "upper_ci"]
    row = [point[name] for name in factor_names] + [
        prediction.percentile_p, prediction.value, prediction.std_error,
        prediction.ci_lower, prediction.ci_upper,
    ]
    _write(out / "prediction.csv", ds.csv_blocks(list(zip(row)), header))

    at = ", ".join(f"{name}={point[name]:g}" for name in factor_names)
    print(
        f"predict: at {at}, p={percentile:g}: value {prediction.value:.6g}, "
        f"se {prediction.std_error:.6g}, {confidence:.0%} CI "
        f"[{prediction.ci_lower:.6g}, {prediction.ci_upper:.6g}]"
    )
    return EXIT_OK


def cmd_validate(args) -> int:
    percentile = _unit_interval(args.percentile, "percentile")
    model = alt.load_model(args.model)
    holdout = _load_dataset(args.holdout)
    out = _out_dir(args)

    report = validation.evaluate(model, holdout, percentile)
    psf_names = list(holdout.psf_names)
    columns = holdout.columns
    instance, observed, predicted, error = zip(*report.rows)
    header = ["instance"] + psf_names + ["fatigue", "predicted_fatigue", "relative_error"]
    body = [instance, *(columns[c] for c in psf_names), observed, predicted, error]
    trailer = [("mean_relative_error", "max_relative_error"),
               (report.mean_relative_error, report.max_relative_error)]
    _write(out / "validation.csv", chain(ds.csv_blocks(body, header), ds.csv_blocks(trailer)))

    print(
        f"validate: {len(report.rows)} instances at p={percentile:g}; "
        f"mean relative error {report.mean_relative_error:.4f}, "
        f"max {report.max_relative_error:.4f}"
    )
    return EXIT_OK


def cmd_curves(args) -> int:
    percentile = _unit_interval(args.percentile, "percentile")
    model = alt.load_model(args.model)
    grid = sorted(_parse_grid(args.grid))
    fixed = _parse_assignments(args.fixed) if args.fixed else {}
    out = _out_dir(args)

    for factor in [ds.normalize_name(f) for f in args.factor]:
        curve = alt.sweep_curve(model, factor, grid, fixed, percentile)
        _write(out / f"curve_{factor}.csv",
               ds.csv_blocks(list(zip(*curve)), (factor, "fatigue")))
        _write(out / f"curve_{factor}.svg",
               svg.line_chart(curve, f"Fatigue vs {factor}", factor, "fatigue"))
        lo, hi = curve[0][1], curve[-1][1]
        print(f"curves: {factor} over [{grid[0]:g}, {grid[-1]:g}] -> fatigue "
              f"{lo:.6g} .. {hi:.6g}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    factors = _parse_factors(args.factors)
    try:
        true_alpha = tuple(float(a) for a in args.alpha.split(","))
    except ValueError:
        raise InputError(f"cannot parse --alpha {args.alpha!r}") from None
    pools: dict[str, tuple[float, ...]] = {}
    for pool_arg in args.pool or []:
        name, sep, values = pool_arg.partition("=")
        if not sep:
            raise InputError(f"--pool expects name=v1|v2|..., got {pool_arg!r}")
        try:
            pools[ds.normalize_name(name)] = tuple(float(v) for v in values.split("|"))
        except ValueError:
            raise InputError(f"cannot parse pool values in {pool_arg!r}") from None
    missing = [f.name for f in factors if f.name not in pools]
    if missing:
        raise InputError(f"no --pool given for factor(s): {', '.join(missing)}")

    spec = validation.SyntheticSpec(
        true_alpha=true_alpha,
        true_shape=args.shape,
        factors=tuple(factors),
        factor_value_pools=tuple(pools[f.name] for f in factors),
        n=args.n,
        seed=args.seed,
    )
    data = validation.generate_synthetic(spec)
    _write(_out_dir(args) / "synthetic.csv", ds.serialize(data))
    print(f"simulate: {args.n} rows (seed {args.seed}) written to synthetic.csv")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ahft",
        description="Accelerated human-fatigue testing: PSF screening, "
                    "Weibull log-linear fitting, prediction, validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output-dir", "-o", default=None,
                       help="artifact directory (default: $AHFT_OUTPUT_DIR or '.')")

    p = sub.add_parser("pca", help="screen PSFs by principal components")
    p.add_argument("--input", required=True,
                   help="CSV path, builtin:table3, or builtin:table8")
    p.add_argument("--threshold", type=float, default=0.65,
                   help="explained-variance threshold (default 0.65)")
    p.add_argument("--response", default="fatigue")
    common(p)
    p.set_defaults(func=cmd_pca)

    p = sub.add_parser("fit", help="fit the Weibull log-linear model")
    p.add_argument("--input", required=True)
    p.add_argument("--factors", required=True,
                   help="comma-separated, each name[:identity|log|reciprocal]")
    p.add_argument("--response", default="fatigue")
    p.add_argument("--confidence", type=float, default=alt.DEFAULT_CONFIDENCE)
    p.add_argument("--max-iterations", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-8)
    common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="percentile fatigue at a factor point")
    p.add_argument("--model", required=True, help="model.json from fit")
    p.add_argument("--at", required=True, help="factor values, e.g. available_time=0.1,stress=5")
    p.add_argument("--percentile", type=float, default=alt.DEFAULT_PERCENTILE,
                   help="percentile in (0,1) (default 0.5, the median)")
    p.add_argument("--confidence", type=float, default=alt.DEFAULT_CONFIDENCE)
    common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("validate", help="hold-out relative-error report")
    p.add_argument("--model", required=True)
    p.add_argument("--holdout", required=True,
                   help="CSV path, builtin:table3, or builtin:table8")
    p.add_argument("--percentile", type=float, default=alt.DEFAULT_PERCENTILE)
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("curves", help="factor sweep curves")
    p.add_argument("--model", required=True)
    p.add_argument("--factor", action="append", required=True,
                   help="factor to sweep (repeatable)")
    p.add_argument("--grid", required=True, help="comma list or start:stop:count")
    p.add_argument("--fixed", default="", help="other factors, name=value[,name=value]")
    p.add_argument("--percentile", type=float, default=alt.DEFAULT_PERCENTILE)
    common(p)
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--factors", required=True)
    p.add_argument("--alpha", required=True, help="intercept,coef1,... (comma-separated)")
    p.add_argument("--shape", type=float, required=True)
    p.add_argument("--pool", action="append",
                   help="per-factor value pool, name=v1|v2|... (repeatable)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except SingularProblem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
