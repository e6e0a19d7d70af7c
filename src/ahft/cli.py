"""Command-line front end.

Subcommands mirror the pipeline: ``pca`` (factor screening), ``fit``
(model estimation), ``predict``, ``validate`` (hold-out relative
errors), ``curves`` (factor sweeps), ``simulate`` (synthetic data).

Machine-readable output goes to CSV/SVG/JSON files in the output
directory (``--output-dir``, or the ``AHFT_OUTPUT_DIR`` environment
variable, or the working directory); stdout carries a short human
summary.  Artifacts are byte-identical across runs for identical inputs
and seed.

Exit codes: 0 success; 2 bad input or usage, including an input that
cannot be read, an output directory that cannot be made (with the OS's
message) and an input too large for memory; 3 the fit or ``pca``'s
eigensolver did not converge; 4 numerically singular problem.  Each code
is the ``exit_code`` of an error family of :mod:`ahft.errors`.

Each subcommand imports the modules it calls when it runs, so importing
this module costs little more than numpy.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import AhftError, InputError, NoConvergence


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _out_dir(args) -> Path:
    """The artifact directory; it is made by the first artifact write."""
    return Path(args.output_dir or os.environ.get("AHFT_OUTPUT_DIR") or ".")


def _load_dataset(spec: str) -> ds.Dataset:
    from . import dataset as ds

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


def _parse_factors(text: str, one_per_name: bool = False) -> list[alt.FactorSpec]:
    """The factor specs of ``--factors``; a repeated spec is an error.

    With ``one_per_name`` a name may not repeat under another transform
    either, as where each factor becomes a column of its own.
    """
    from . import alt

    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise InputError("at least one factor required")
    factors = [alt.parse_factor(piece) for piece in items]
    seen = set()
    for factor in factors:
        key = factor.name if one_per_name else factor
        if key in seen:
            what = "" if one_per_name else f" with the {factor.transform} transform"
            raise InputError(f"--factors gives factor {factor.name!r}{what} twice")
        seen.add(key)
    return factors


def _finite(text: str, piece: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InputError(f"cannot parse {text!r} as a number in {piece!r}") from None
    if not math.isfinite(value):
        raise InputError(f"{text!r} in {piece!r} is not a finite number")
    return value


def _parse_assignments(text: str) -> dict[str, float]:
    from . import dataset as ds

    values: dict[str, float] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, sep, value = piece.partition("=")
        if not sep:
            raise InputError(f"expected name=value, got {piece!r}")
        name = ds.normalize_name(name)
        if name in values:
            raise InputError(f"{name!r} is assigned twice in {text!r}")
        values[name] = _finite(value, piece)
    if not values:
        raise InputError("no name=value assignments supplied")
    return values


def _check_factor_names(names, model, option: str) -> None:
    """Reject a name that is not a factor of ``model``: it would change nothing."""
    factors = [f.name for f in model.factors]
    for name in names:
        if name not in factors:
            raise InputError(f"{option} names {name!r}, which is not a factor of the model "
                             f"(factors: {', '.join(factors)})")


def _parse_grid(text: str) -> np.ndarray:
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
            return np.array([start])
        step = (stop - start) / (count - 1)
        if not math.isfinite(step):
            raise InputError(f"grid range {text!r} is too wide to step through")
        try:
            steps = np.arange(count)
        except (ValueError, MemoryError):  # numpy cannot index or allocate the array
            raise InputError(f"--grid count {count} is too large for an array") from None
        return start + steps * step
    grid = [_finite(piece, text) for piece in text.split(",") if piece.strip()]
    if not grid:
        raise InputError("grid is empty")
    return np.array(grid)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_pca(args) -> None:
    from . import dataset as ds, pca as pca_mod, svg

    data = _load_dataset(args.input)
    out = _out_dir(args)

    result = pca_mod.run_pca(data)
    selection = pca_mod.select_factors(result, args.threshold, ds.FATIGUE)

    n = len(result.eigenvalues)
    labels = [f"PC{i + 1}" for i in range(n)]
    # eigen.csv: one row per statistic, one column per component.
    stats = (result.eigenvalues.tolist(), result.proportions.tolist(), result.cumulative.tolist())
    ds.write_artifact(out / "eigen.csv", ds.csv_blocks(
        [("eigenvalue", "proportion", "cumulative"), *zip(*stats)], ["component"] + labels
    ))
    ds.write_artifact(out / "loadings.csv", ds.csv_blocks(
        [result.column_names, *result.eigenvectors.T], ["variable"] + labels
    ))
    components = range(1, n + 1)
    ds.write_artifact(out / "scree.csv",
                      ds.csv_blocks([components, result.eigenvalues], ("component", "eigenvalue")))
    ds.write_artifact(out / "scree.svg", svg.line_chart(
        components, result.eigenvalues, "Scree plot", "component", "eigenvalue"))
    lines = [
        f"retained_components: {selection.retained_components}",
        f"threshold: {args.threshold!r}",
        "factors by importance score:",
    ]
    lines += [f"  {name}: {score!r}" for name, score in selection.selected_factors]
    ds.write_artifact(out / "selection.txt", "\n".join(lines) + "\n")

    print(
        f"pca: {n} components; {selection.retained_components} retained at "
        f"threshold {ds.number_text(args.threshold)}; top factors: "
        + ", ".join(selection.names[:3])
    )
    if result.has_ties:
        print("note: spectrum contains tied eigenvalues; loadings in tied blocks are arbitrary")


def cmd_fit(args) -> None:
    from . import alt, dataset as ds

    data = _load_dataset(args.input)
    factors = _parse_factors(args.factors)
    out = _out_dir(args)
    try:
        model = alt.fit_mle(data, factors, args.max_iterations)
    except NoConvergence as exc:
        lines = [f"fit did not converge: {exc}"]
        lines += [f"{k}: {v!r}" for k, v in sorted(exc.diagnostics.items())]
        ds.write_artifact(out / "diagnostics.txt", "\n".join(lines) + "\n")
        raise

    # Every number, so every check on --confidence, comes before the first
    # write: a bad level leaves no output directory.
    ses = model.standard_errors
    header = ("Predictor", "Coef", "StandardError", "Z", "P", "LowerCI", "UpperCI")
    rows = []
    names = ("Intercept",) + tuple(f.name for f in model.factors)
    for i, name in enumerate(names):
        coef, se = float(model.alpha[i]), float(ses[i])
        z, p = alt.wald_stats(coef, se)
        lo, hi = alt.coef_ci(coef, se, args.confidence)
        rows.append([name, coef, se, z, p, lo, hi])
    # The shape row reports on the beta scale: SE by the delta method from
    # se(ln beta), interval log-normal; no Wald columns.
    se_shape = model.shape * float(ses[-1])
    lo, hi = alt.positive_param_ci(model.shape, se_shape, args.confidence)
    rows.append(["Shape", float(model.shape), se_shape, "", "", lo, hi])
    alt.save_model(model, out / "model.json")
    ds.write_artifact(out / "regression.csv", ds.csv_blocks(list(zip(*rows)), header))

    print(
        f"fit: converged in {model.fit_meta.iterations} iterations; "
        f"log-likelihood {model.fit_meta.log_likelihood:.6g}; "
        f"shape {model.shape:.6g}; model.json and regression.csv written"
    )
    condition = alt.correlation_condition(model.covariance)
    if condition > alt.CONDITION_WARN:
        print(f"warning: the estimates' correlation matrix has condition number "
              f"{condition:.3g}, above {alt.CONDITION_WARN:g}: the factors are so nearly "
              "collinear that each coefficient and its standard error mean little",
              file=sys.stderr)


def cmd_predict(args) -> None:
    from . import alt, dataset as ds

    model = alt.load_model(args.model)
    point = _parse_assignments(args.at)
    _check_factor_names(point, model, "--at")
    out = _out_dir(args)

    prediction = alt.predict_with_interval(model, point, args.percentile, args.confidence)
    factor_names = [f.name for f in model.factors]
    header = factor_names + ["percentile_p", "value", "std_error", "lower_ci", "upper_ci"]
    row = [point[name] for name in factor_names] + [
        prediction.percentile_p, prediction.value, prediction.std_error,
        prediction.ci_lower, prediction.ci_upper,
    ]
    ds.write_artifact(out / "prediction.csv", ds.csv_blocks(list(zip(row)), header))

    at = ", ".join(f"{name}={ds.number_text(point[name])}" for name in factor_names)
    print(
        f"predict: at {at}, p={args.percentile!r}: value {prediction.value:.6g}, "
        f"se {prediction.std_error:.6g}, {100 * args.confidence:.15g}% CI "
        f"[{prediction.ci_lower:.6g}, {prediction.ci_upper:.6g}]"
    )


def cmd_validate(args) -> None:
    from . import alt, dataset as ds, validation

    model = alt.load_model(args.model)
    holdout = _load_dataset(args.holdout)
    out = _out_dir(args)

    report = validation.evaluate(model, holdout, args.percentile)
    psf_names = list(holdout.psf_names)
    columns = holdout.columns
    n = holdout.n_rows
    header = ["instance"] + psf_names + ["fatigue", "predicted_fatigue", "relative_error"]
    body = [range(1, n + 1), *(columns[c] for c in psf_names),
            report.observed, report.predicted, report.relative_error]
    trailer = [("mean_relative_error", "max_relative_error"),
               (report.mean_relative_error, report.max_relative_error)]
    ds.write_artifact(out / "validation.csv",
                      chain(ds.csv_blocks(body, header), ds.csv_blocks(trailer)))

    print(
        f"validate: {n} instances at p={args.percentile!r}; "
        f"mean relative error {report.mean_relative_error:.4f}, "
        f"max {report.max_relative_error:.4f}"
    )


def cmd_curves(args) -> None:
    from . import alt, dataset as ds, svg

    model = alt.load_model(args.model)
    grid = np.sort(_parse_grid(args.grid), kind="stable")
    fixed = _parse_assignments(args.fixed) if args.fixed else {}
    swept = [ds.normalize_name(f) for f in args.factor]
    _check_factor_names(swept, model, "--factor")
    for i, factor in enumerate(swept):
        if factor in swept[:i]:
            raise InputError(f"--factor gives {factor!r} twice")
    _check_factor_names(fixed, model, "--fixed")
    unused = [name for name in fixed if all(name == factor for factor in swept)]
    if unused:
        raise InputError(f"--fixed gives {unused[0]!r}, the factor every curve sweeps")
    out = _out_dir(args)

    # Every text is made before the first write: a curve that cannot be
    # computed or charted leaves no file behind.
    curves = []
    for factor in swept:
        fatigue = alt.sweep_curve(model, factor, grid, fixed, args.percentile)
        curves.append((factor, fatigue,
                       list(ds.csv_blocks([grid, fatigue], (factor, "fatigue"))),
                       svg.line_chart(grid, fatigue, f"Fatigue vs {factor}", factor, "fatigue")))
    for factor, fatigue, csv_text, svg_text in curves:
        ds.write_artifact(out / f"curve_{factor}.csv", csv_text)
        ds.write_artifact(out / f"curve_{factor}.svg", svg_text)
        print(f"curves: {factor} over [{ds.number_text(grid[0])}, "
              f"{ds.number_text(grid[-1])}] -> fatigue {fatigue[0]:.6g} .. {fatigue[-1]:.6g}")


def cmd_simulate(args) -> None:
    from . import dataset as ds, validation

    factors = _parse_factors(args.factors, one_per_name=True)
    true_alpha = tuple(_finite(a, f"--alpha {args.alpha}") for a in args.alpha.split(","))
    pools: dict[str, tuple[float, ...]] = {}
    for pool_arg in args.pool or []:
        name, sep, values = pool_arg.partition("=")
        if not sep:
            raise InputError(f"--pool expects name=v1|v2|..., got {pool_arg!r}")
        name = ds.normalize_name(name)
        if name in pools:
            raise InputError(f"--pool gives factor {name!r} twice")
        pools[name] = tuple(_finite(v, f"--pool {pool_arg}") for v in values.split("|"))
    missing = [f.name for f in factors if f.name not in pools]
    if missing:
        raise InputError(f"no --pool given for factor(s): {', '.join(missing)}")
    names = {f.name for f in factors}
    unused = [name for name in pools if name not in names]
    if unused:
        raise InputError(f"--pool names {unused[0]!r}, which --factors does not")

    # numpy indexes no array of more bytes than intp holds; at such a size
    # np.arange of the n(F+1) draws can even come back empty.
    if args.n * (len(factors) + 1) * 8 > np.iinfo(np.intp).max:
        raise InputError(f"--n {args.n} is too large for an array of its draws")
    spec = validation.SyntheticSpec(
        true_alpha=true_alpha,
        true_shape=args.shape,
        factors=tuple(factors),
        factor_value_pools=tuple(pools[f.name] for f in factors),
        n=args.n,
        seed=args.seed,
    )
    try:
        data = validation.redraw_below_one(spec, validation.generate_synthetic(spec))
    except MemoryError as exc:
        raise InputError(f"--n {args.n} is too large: {exc}") from None
    # Fitting data is fatigue in (0, 1) and the redraw keeps every response
    # below 1; should rounding still reach 1, refuse to write a file that
    # fit would refuse to read.
    fatigue = data.column(ds.FATIGUE)
    high = fatigue >= 1.0
    if high.any():
        i = int(high.argmax())
        raise InputError(
            f"row {i + 1}: drew fatigue {float(fatigue[i])!r}, but fatigue must lie "
            f"strictly in (0, 1); lower the --alpha intercept"
        )
    ds.write_artifact(_out_dir(args) / "synthetic.csv", ds.serialize(data))
    print(f"simulate: {args.n} rows (seed {args.seed}) written to synthetic.csv")


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by later ones."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser by name, built once."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="ahft",
        description="Accelerated human-fatigue testing: PSF screening, "
                    "Weibull log-linear fitting, prediction, validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    def add(name, help):
        commands[name] = sub.add_parser(name, help=help)
        return commands[name]

    def common(p):
        p.add_argument("--output-dir", "-o", default=None,
                       help="artifact directory (default: $AHFT_OUTPUT_DIR or '.')")

    p = add("pca", "screen PSFs by principal components")
    p.add_argument("--input", required=True,
                   help="CSV path, builtin:table3, or builtin:table8")
    p.add_argument("--threshold", type=float, default=0.65,
                   help="explained-variance threshold in (0,1] (default 0.65)")
    common(p)
    p.set_defaults(func=cmd_pca)

    p = add("fit", "fit the Weibull log-linear model")
    p.add_argument("--input", required=True)
    p.add_argument("--factors", required=True,
                   help="comma-separated, each name[:identity|log|reciprocal]")
    p.add_argument("--confidence", type=float, default=0.99)
    p.add_argument("--max-iterations", type=int, default=200)
    common(p)
    p.set_defaults(func=cmd_fit)

    p = add("predict", "percentile fatigue at a factor point")
    p.add_argument("--model", required=True, help="model.json from fit")
    p.add_argument("--at", required=True, help="factor values, e.g. available_time=0.1,stress=5")
    p.add_argument("--percentile", type=float, default=0.5,
                   help="percentile in (0,1) (default 0.5, the median)")
    p.add_argument("--confidence", type=float, default=0.99)
    common(p)
    p.set_defaults(func=cmd_predict)

    p = add("validate", "hold-out relative-error report")
    p.add_argument("--model", required=True)
    p.add_argument("--holdout", required=True,
                   help="CSV path, builtin:table3, or builtin:table8")
    p.add_argument("--percentile", type=float, default=0.5)
    common(p)
    p.set_defaults(func=cmd_validate)

    p = add("curves", "factor sweep curves")
    p.add_argument("--model", required=True)
    p.add_argument("--factor", action="append", required=True,
                   help="factor to sweep (repeatable)")
    p.add_argument("--grid", required=True, help="comma list or start:stop:count")
    p.add_argument("--fixed", default="", help="other factors, name=value[,name=value]")
    p.add_argument("--percentile", type=float, default=0.5)
    common(p)
    p.set_defaults(func=cmd_curves)

    p = add("simulate", "generate a synthetic dataset")
    p.add_argument("--factors", required=True)
    p.add_argument("--alpha", required=True, help="intercept,coef1,... (comma-separated)")
    p.add_argument("--shape", type=float, required=True)
    p.add_argument("--pool", action="append",
                   help="per-factor value pool, name=v1|v2|... (repeatable)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_simulate)

    return parser, commands


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, with one subparser's pass where that suffices.

    A known subcommand without leftover arguments parses to the same
    namespace through its own parser alone.  Everything else goes through
    the top-level parser, whose errors (an unknown subcommand, leftover
    arguments) speak for the whole program.
    """
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except (AhftError, OSError, MemoryError) as exc:
        # An input that cannot be read or held in memory is bad input.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return getattr(exc, "exit_code", InputError.exit_code)
    return 0


if __name__ == "__main__":
    sys.exit(main())
