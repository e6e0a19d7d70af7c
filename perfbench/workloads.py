"""The benchmark's workloads: generated inputs, the subcommand calls of
one pass, and the check each call's artifacts must pass.

Every workload runs all six subcommands, so every per-subcommand metric
is measured on every workload; what differs is the input shape that
dominates the pass (see ``WHY``).  Inputs come from the benchmark seed
only.  Generated rows are never clipped, filtered or re-seeded.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ahft import alt, dataset as ds

WHY = {
    "paper": "README walkthrough on the paper's tables, plus the hold-out read from CSV: "
             "tiny numerics, so per-call overhead (argparse, model I/O, artifacts, SVG) rules",
    "cohort": "2e4-row train and hold-out drawn from the paper's fitted model: per-row layers "
              "rule. fail_share 0 does not cover ROADMAP item 5 (README params, n=1e5, seed 7 "
              "emit a response >= 1 that fit rejects)",
    "screen-wide": "pca of a generated 2000-row CSV with 59 PSF columns plus fatigue: the "
                   "Jacobi eigensolver rules pca_s; fit and validation are small",
}

# Eigenvalues the acceptance gate freezes for builtin:table3
# (tests/test_acceptance.py, REF_EIGENVALUES) and its tolerance.
REF_EIGENVALUES = (2.7430, 1.7996, 1.3479, 1.1389, 0.7193, 0.6709, 0.3977, 0.1681, 0.0145)
REF_EIGEN_TOL = 2e-3
# fit on builtin:table3 with available_time,stress (model.json fit_meta).
PAPER_LOGLIK = 30.39603781967838
PAPER_ITERATIONS = 12

# A fitted parameter further than this many standard errors from the
# truth it was drawn from fails its check.  At 3 SE a correct fit of the
# four parameters fails by chance on about 1% of seeds; at 4.5 SE on
# fewer than 3 in 100 000.
Z_LIMIT = 4.5

COHORT_ROWS = 20_000
COHORT_GRID = 10_000
WIDE_ROWS = 2000
WIDE_PSFS = 59
README_SIMULATE = ["--factors", "f1,f2", "--alpha=-2,0.3,-0.1", "--shape", "3",
                   "--pool", "f1=0.5|1|2|5", "--pool", "f2=1|2|5", "--n", "200"]


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    """One subcommand call: its argv, output directory, input CSVs and check."""

    label: str
    command: str
    argv: list[str]
    out: Path
    reads: tuple[Path, ...] = ()
    check: Callable[[dict[str, bytes]], None] | None = None


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _csv_rows(data: bytes) -> list[list[str]]:
    return [line.split(",") for line in data.decode("utf-8").splitlines()]


def _eigenvalues(files) -> np.ndarray:
    row = next(r for r in _csv_rows(files["eigen.csv"]) if r[0] == "eigenvalue")
    return np.array([float(v) for v in row[1:]])


def _data_rows(data: bytes) -> int:
    return data.count(b"\n") - 1


def paper_truth():
    """The model fitted to builtin:table3; the cohorts are drawn from it."""
    return alt.fit_mle(ds.builtin_table3(), (alt.FactorSpec("available_time"),
                                             alt.FactorSpec("stress")))


def _simulate_argv(truth, factors, pools, n, seed):
    alpha = list(truth.alpha) + [0.0] * (len(factors) - len(truth.alpha) + 1)
    argv = ["simulate", "--factors", ",".join(factors),
            "--alpha=" + ",".join(repr(float(a)) for a in alpha),
            "--shape", repr(float(truth.shape)), "--n", str(n), "--seed", str(seed)]
    for name, pool in zip(factors, pools):
        argv += ["--pool", f"{name}=" + "|".join(repr(float(v)) for v in pool)]
    return argv


# --- checks ---------------------------------------------------------------

def check_rows(name: str, rows: int):
    def check(files):
        got = _data_rows(files[name])
        _require(got == rows, f"{name}: {got} data rows, expected {rows}")
    return check


def check_recovery(truth):
    """Every fitted (alpha..., ln shape) within Z_LIMIT SE of the truth."""
    expected = list(truth.alpha) + [math.log(truth.shape)]

    def check(files):
        doc = json.loads(files["model.json"])
        estimates = doc["alpha"] + [math.log(doc["shape"])]
        ses = np.sqrt(np.diag(np.array(doc["covariance"])))
        z = [(e - t) / s for e, t, s in zip(estimates, expected, ses)]
        _require(all(math.isfinite(v) and abs(v) <= Z_LIMIT for v in z),
                 f"fitted parameters off the truth by {z} SE (limit {Z_LIMIT})")
    return check


def check_prediction(files):
    value, _, lower, upper = (float(v) for v in _csv_rows(files["prediction.csv"])[1][-4:])
    _require(all(map(math.isfinite, (value, lower, upper))) and lower <= value <= upper,
             f"prediction {value} outside its interval [{lower}, {upper}]")


def check_validation(rows: int):
    def check(files):
        lines = _csv_rows(files["validation.csv"])
        _require(len(lines) == rows + 3, f"validation.csv has {len(lines) - 3} instances, expected {rows}")
        mean = float(lines[-2][1])
        _require(lines[-2][0] == "mean_relative_error" and math.isfinite(mean),
                 f"hold-out mean relative error is {mean}")
    return check


def check_eigen_sum(k: int):
    def check(files):
        values = _eigenvalues(files)
        _require(len(values) == k, f"{len(values)} eigenvalues, expected {k}")
        _require(abs(values.sum() - k) <= 1e-9 * k, f"eigenvalues sum to {values.sum()!r}, not {k}")
    return check


def check_paper_pca(files):
    err = float(np.max(np.abs(_eigenvalues(files) - np.array(REF_EIGENVALUES))))
    _require(err <= REF_EIGEN_TOL, f"eigenvalues off REF_EIGENVALUES by {err:.3g}")


def check_paper_fit(files):
    meta = json.loads(files["model.json"])["fit_meta"]
    _require(meta["log_likelihood"] == PAPER_LOGLIK and meta["iterations"] == PAPER_ITERATIONS,
             f"fit log-likelihood {meta['log_likelihood']!r} after {meta['iterations']} "
             f"iterations, expected {PAPER_LOGLIK!r} after {PAPER_ITERATIONS}")


def check_same_as(path: Path):
    def check(files):
        _require(files[path.name] == path.read_bytes(), f"{path.name} differs from {path}")
    return check


def check_spectrum_oracle(csv_path: Path):
    """eigen.csv against numpy's eigvalsh of the same correlation matrix."""
    cache = {}

    def check(files):
        data = csv_path.read_bytes()
        if cache.get("data") != data:
            header = data.split(b"\n", 1)[0].decode().split(",")
            columns = [i for i, h in enumerate(header) if h != "duration_hours"]
            table = np.loadtxt(csv_path, delimiter=",", skiprows=1, usecols=columns)
            oracle = np.linalg.eigvalsh(np.corrcoef(table, rowvar=False))[::-1]
            cache.update(data=data, oracle=oracle)
        err = float(np.max(np.abs(_eigenvalues(files) - cache["oracle"])))
        _require(err <= 1e-9, f"eigenvalues differ from numpy eigvalsh by {err:.3g}")
        check_eigen_sum(len(cache["oracle"]))(files)
    return check


# --- workloads ------------------------------------------------------------

def paper(work: Path, seed: int, truth) -> list[Op]:
    """The README walkthrough; the hold-out is also scored from a CSV file."""
    model = str(work / "fit" / "model.json")
    table8 = work / "inputs" / "table8.csv"
    table8.parent.mkdir(parents=True, exist_ok=True)
    table8.write_bytes(ds.serialize(ds.builtin_table8()))
    return [
        Op("pca", "pca", ["pca", "--input", "builtin:table3", "--threshold", "0.65"],
           work / "pca", check=check_paper_pca),
        Op("fit", "fit", ["fit", "--input", "builtin:table3", "--factors", "available_time,stress"],
           work / "fit", check=check_paper_fit),
        Op("predict", "predict", ["predict", "--model", model, "--at", "available_time=0.1,stress=5"],
           work / "predict", check=check_prediction),
        Op("validate", "validate", ["validate", "--model", model, "--holdout", "builtin:table8"],
           work / "validate", check=check_validation(5)),
        Op("validate-csv", "validate", ["validate", "--model", model, "--holdout", str(table8)],
           work / "validate-csv", reads=(table8,),
           check=check_same_as(work / "validate" / "validation.csv")),
        Op("curves", "curves", ["curves", "--model", model, "--factor", "stress", "--grid", "1:5:9",
                                "--fixed", "available_time=0.1"],
           work / "curves", check=check_rows("curve_stress.csv", 9)),
        Op("simulate", "simulate", ["simulate", *README_SIMULATE, "--seed", str(seed)],
           work / "simulate", check=check_rows("synthetic.csv", 200)),
    ]


def cohort(work: Path, seed: int, truth) -> list[Op]:
    """Training and hold-out cohorts drawn from the paper's fitted model.

    The fitted model is queried at every combination of the pool levels.
    """
    factors = ("available_time", "stress")
    pools = ((0.01, 0.1, 1.0, 10.0), (1.0, 2.0, 5.0))
    train = work / "simulate-train" / "synthetic.csv"
    holdout = work / "simulate-holdout" / "synthetic.csv"
    model = str(work / "fit" / "model.json")
    return [
        Op("simulate-train", "simulate", _simulate_argv(truth, factors, pools, COHORT_ROWS, 2 * seed),
           train.parent, check=check_rows("synthetic.csv", COHORT_ROWS)),
        Op("simulate-holdout", "simulate",
           _simulate_argv(truth, factors, pools, COHORT_ROWS, 2 * seed + 1),
           holdout.parent, check=check_rows("synthetic.csv", COHORT_ROWS)),
        Op("pca", "pca", ["pca", "--input", str(train)], work / "pca", reads=(train,),
           check=check_eigen_sum(3)),
        Op("fit", "fit", ["fit", "--input", str(train), "--factors", ",".join(factors)],
           work / "fit", reads=(train,), check=check_recovery(truth)),
        *(Op(f"predict-{i}", "predict",
             ["predict", "--model", model, "--at", f"available_time={a!r},stress={s!r}"],
             work / f"predict-{i}", check=check_prediction)
          for i, (a, s) in enumerate(itertools.product(*pools))),
        Op("validate", "validate", ["validate", "--model", model, "--holdout", str(holdout)],
           work / "validate", reads=(holdout,), check=check_validation(COHORT_ROWS)),
        Op("curves", "curves", ["curves", "--model", model, "--factor", "stress",
                                "--grid", f"1:5:{COHORT_GRID}", "--fixed", "available_time=0.1"],
           work / "curves", check=check_rows("curve_stress.csv", COHORT_GRID)),
    ]


def screen_wide(work: Path, seed: int, truth) -> list[Op]:
    """59 PSF columns, each drawn from one DEFAULT_CATALOG level set in turn.

    The first eight keep the catalog names, so the model fitted on
    available_time and stress is scored on the paper's hold-out.  Only
    those two carry the paper's coefficients, so every response stays
    far below 1.
    """
    catalog = ds.DEFAULT_CATALOG.definitions
    columns = [catalog[j % len(catalog)] for j in range(WIDE_PSFS)]
    factors = [d.name if j < len(catalog) else f"{d.name}_{j // len(catalog) + 1}"
               for j, d in enumerate(columns)]
    wide = work / "simulate" / "synthetic.csv"
    model = str(work / "fit" / "model.json")
    fit_factors = factors[:2]
    return [
        Op("simulate", "simulate",
           _simulate_argv(truth, factors, [d.multipliers for d in columns], WIDE_ROWS, seed),
           wide.parent, check=check_rows("synthetic.csv", WIDE_ROWS)),
        Op("pca", "pca", ["pca", "--input", str(wide)], work / "pca", reads=(wide,),
           check=check_spectrum_oracle(wide)),
        Op("fit", "fit", ["fit", "--input", str(wide), "--factors", ",".join(fit_factors)],
           work / "fit", reads=(wide,), check=check_recovery(truth)),
        Op("predict", "predict", ["predict", "--model", model,
                                  "--at", f"{fit_factors[0]}=0.1,{fit_factors[1]}=5"],
           work / "predict", check=check_prediction),
        Op("validate", "validate", ["validate", "--model", model, "--holdout", "builtin:table8"],
           work / "validate", check=check_validation(5)),
        Op("curves", "curves", ["curves", "--model", model, "--factor", fit_factors[1],
                                "--grid", "1:5:9", "--fixed", f"{fit_factors[0]}=0.1"],
           work / "curves", check=check_rows(f"curve_{fit_factors[1]}.csv", 9)),
    ]


WORKLOADS = {"paper": paper, "cohort": cohort, "screen-wide": screen_wide}
