"""Print a platform record and the sha256 of everything a fixed list of CLI calls writes.

Usage, from the repository root::

    PYTHONPATH=src python tests/identity.py > change.txt
    PYTHONPATH=/path/to/other/checkout/src python tests/identity.py > parent.txt
    diff parent.txt change.txt

``ahft`` comes from ``PYTHONPATH``; the workloads come from this
checkout's ``perfbench/workloads.py``, so two runs differ only in the
package.  Each call runs through ``ahft.cli.main`` in this process, in a
temporary directory, with every path relative to it.  For each call in
order the script prints one line for each artifact of its output
directory, then its stdout, stderr and exit code:
``<sha256 or exit code>  <call> <what>``.

The calls: the three benchmark workloads at seeds 1-3; the README
walkthrough and its usage errors; ``simulate``, ``fit`` and ``validate``
on either side of the byte frames' row threshold and pass size (200,
511, 512, 4095, 4096, 4097 and 8193 rows); ``pca`` of simulated tables
of 22 and 23 columns, whose loadings (484 and 529 cells) fall either
side of the frames' cell threshold; two curves whose grids reach the
float text kernel's ``repr`` fallback: negative values and zero, and
values below 2**-13; ``fit`` and ``predict`` at ``--confidence`` 0.5,
0.9 and 0.999999999999, whose normal quantiles fall in each of AS241's
three regions (|p - 1/2| <= 0.425, r <= 5 and r > 5); and ``predict`` on
edited copies of the README's model.json, one for each message kind of
the model loader.  A fault that escapes ``main`` prints its type on the
exit line, so every line still prints, and the script then shows its
traceback and exits 1.

An artifact's last bits depend on the BLAS kernel and on numpy's SIMD
dispatch, so compare only outputs of one machine and configuration.
The platform record at the top says which.
"""

from __future__ import annotations

import copy
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
from numpy._core import _multiarray_umath as umath

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

from ahft import cli  # noqa: E402

SEEDS = (1, 2, 3)
FRAME_ROWS = (200, 511, 512, 4095, 4096, 4097, 8193)
PCA_COLUMNS = (22, 23)  # loadings of 484 and 529 cells
CONFIDENCES = ("0.5", "0.9", "0.999999999999")  # one level in each region of AS241
SIMULATE = ["simulate", *workloads.README_SIMULATE[:-2]]  # the README's, without its --n
DELETE = object()
ESCAPED: list[str] = []  # the traceback of each call that raised out of cli.main


def _openblas_core():
    """The kernel OpenBLAS picked at load time, if numpy's OpenBLAS says."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                     "openblas_get_corename"):
            get = getattr(lib, name, None)
            if get is not None:
                get.restype = ctypes.c_char_p
                return get().decode()
    return "unknown"


def platform_record():
    features = umath.__cpu_features__
    dispatch = [f for f in umath.__cpu_dispatch__ if features.get(f)]
    return [
        f"# python {platform.python_implementation()} {platform.python_version()}",
        f"# libc {' '.join(platform.libc_ver())} on {platform.machine()}",
        f"# numpy {np.__version__} baseline {' '.join(umath.__cpu_baseline__)}"
        f" dispatch {' '.join(dispatch) or 'none'}",
        f"# openblas core {_openblas_core()}"
        f" (OPENBLAS_CORETYPE={os.environ.get('OPENBLAS_CORETYPE', '')})",
        f"# NPY_DISABLE_CPU_FEATURES={os.environ.get('NPY_DISABLE_CPU_FEATURES', '')}",
    ]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(label: str, argv: list[str], out: Path | None = None) -> list[str]:
    """The lines of one call: its artifacts in ``out``, stdout, stderr and exit code."""
    if out is not None:
        argv = [*argv, "--output-dir", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except Exception as exc:  # the CLI let it escape: a line that a diff shows
            code = f"raised {type(exc).__name__}"
            ESCAPED.append(f"{label}:\n{traceback.format_exc()}")
    lines = []
    if out is not None and out.is_dir():
        lines += [f"{_sha(p.read_bytes())}  {label} {p.name}"
                  for p in sorted(out.iterdir()) if p.is_file()]
    lines.append(f"{_sha(stdout.getvalue().encode())}  {label} stdout")
    lines.append(f"{_sha(stderr.getvalue().encode())}  {label} stderr")
    lines.append(f"{code}  {label} exit")
    return lines


def model_edits(text: str):
    """(label, text) of edited copies of the model document ``text``: one
    for each message kind of the loader, in the order it names faults."""
    doc = json.loads(text)

    def edit(value, *path):
        edited = copy.deepcopy(doc)
        *parents, key = path
        target = edited
        for parent in parents:
            target = target[parent]
        if value is DELETE:
            del target[key]
        else:
            target[key] = value
        return json.dumps(edited)

    cov = doc["covariance"]
    indefinite = copy.deepcopy(cov)
    indefinite[0][1] = indefinite[1][0] = 10.0 * (cov[0][0] * cov[1][1]) ** 0.5
    return [
        ("truncated", text[:-3]),
        ("nested-too-deep", "[" * 100_000),
        ("digits-past-limit", edit("SHAPE", "shape").replace('"SHAPE"', "9" * 5000)),
        ("format", edit("other", "format")),
        ("format-version", edit(2, "format_version")),
        ("factors-missing", edit(DELETE, "factors")),
        ("factors-object", edit({}, "factors")),
        ("factor-entry", edit(5, "factors", 1)),
        ("factor-name", edit(5, "factors", 1, "name")),
        ("factor-transform", edit("cube", "factors", 1, "transform")),
        ("factor-reserved", edit("fatigue", "factors", 1, "name")),
        ("factor-no-letter", edit("!!!", "factors", 1, "name")),
        ("factor-repeated", edit("Available Time", "factors", 1, "name")),
        ("fit-meta", edit(5, "fit_meta")),
        ("fit-meta-missing-key", edit(DELETE, "fit_meta", "iterations")),
        ("fit-meta-key", edit(1.5, "fit_meta", "iterations")),
        ("log-likelihood", edit(10 ** 400, "fit_meta", "log_likelihood")),
        ("shape-missing", edit(DELETE, "shape")),
        ("shape-string", edit("3.99", "shape")),
        ("shape-array", edit([3.99], "shape")),
        ("alpha-past-double", edit(10 ** 400, "alpha", 1)),
        ("covariance-nan", edit(math.nan, "covariance", 2, 2)),
        ("alpha-length", edit(doc["alpha"][:2], "alpha")),
        ("shape-zero", edit(0, "shape")),
        ("covariance-size", edit([row[:3] for row in cov[:3]], "covariance")),
        ("covariance-asymmetric", edit(cov[0][1] + 1e-6, "covariance", 0, 1)),
        ("covariance-negative-variance", edit(-cov[1][1], "covariance", 1, 1)),
        ("covariance-indefinite", edit(indefinite, "covariance")),
    ]


def calls():
    """(label, argv, output directory) of every call, in order."""
    truth = workloads.paper_truth()
    for name, build in workloads.WORKLOADS.items():
        for seed in SEEDS:
            for op in build(Path(f"{name}-{seed}"), seed, truth):
                yield f"{name}-{seed}/{op.label}", op.argv, op.out

    model = "readme/fit/model.json"
    yield from [
        ("readme/pca", ["pca", "--input", "builtin:table3", "--threshold", "0.65"],
         Path("readme/pca")),
        ("readme/fit", ["fit", "--input", "builtin:table3", "--factors", "available_time,stress"],
         Path("readme/fit")),
        ("readme/predict", ["predict", "--model", model, "--at", "available_time=0.1,stress=5"],
         Path("readme/predict")),
        ("readme/validate", ["validate", "--model", model, "--holdout", "builtin:table8"],
         Path("readme/validate")),
        ("readme/curves", ["curves", "--model", model, "--factor", "stress", "--grid", "1:5:9",
                           "--fixed", "available_time=0.1"], Path("readme/curves")),
        ("readme/simulate", [*SIMULATE, "--n", "200", "--seed", "7"], Path("readme/simulate")),
        ("readme/pca-all", ["pca", "--input", "builtin:table3", "--threshold", "1"],
         Path("readme/pca-all")),
        ("readme/unknown-flag", ["predict", "--model", model,
                                 "--at", "available_time=0.1,stress=5", "--bogus"], None),
        ("readme/unknown-command", ["nosuch"], None),
        ("readme/no-factors", ["fit", "--input", "builtin:table3"], None),
        ("readme/bad-confidence", ["fit", "--input", "builtin:table3",
                                   "--factors", "available_time,stress", "--confidence", "1.5"],
         Path("readme/bad")),
        ("grid/negative", ["curves", "--model", model, "--factor", "stress", "--grid=-5:5:1001",
                           "--fixed", "available_time=0.1"], Path("grid/negative")),
        ("grid/tiny", ["curves", "--model", model, "--factor", "available_time",
                       "--grid", "1e-5:1e-4:600", "--fixed", "stress=5"], Path("grid/tiny")),
    ]

    for level in CONFIDENCES:
        out = Path(f"confidence-{level}")
        yield (f"{out}/fit", ["fit", "--input", "builtin:table3", "--factors",
                              "available_time,stress", "--confidence", level], out / "fit")
        yield (f"{out}/predict", ["predict", "--model", model, "--at",
                                  "available_time=0.1,stress=5", "--confidence", level],
               out / "predict")

    for label, text in model_edits(Path(model).read_text()):
        edited = Path(f"model/{label}.json")
        edited.parent.mkdir(exist_ok=True)
        edited.write_text(text)
        yield (f"model/{label}", ["predict", "--model", str(edited),
                                  "--at", "available_time=0.1,stress=5"], Path(f"model/{label}"))

    catalog = workloads.ds.DEFAULT_CATALOG.definitions
    for k in PCA_COLUMNS:
        wide = Path(f"columns-{k}")
        factors = [f"psf{j}" for j in range(k - 1)]
        pools = [catalog[j % len(catalog)].multipliers for j in range(k - 1)]
        yield (f"{wide}/simulate", workloads._simulate_argv(truth, factors, pools, 300, 7),
               wide / "simulate")
        yield (f"{wide}/pca", ["pca", "--input", str(wide / "simulate" / "synthetic.csv")],
               wide / "pca")

    for n in FRAME_ROWS:
        rows = Path(f"rows-{n}")
        yield f"{rows}/simulate", [*SIMULATE, "--n", str(n), "--seed", "7"], rows / "simulate"
        data = str(rows / "simulate" / "synthetic.csv")
        yield f"{rows}/fit", ["fit", "--input", data, "--factors", "f1,f2"], rows / "fit"
        yield (f"{rows}/validate", ["validate", "--model", str(rows / "fit" / "model.json"),
                                    "--holdout", data], rows / "validate")


def main():
    os.environ.pop("AHFT_OUTPUT_DIR", None)
    print("\n".join(platform_record()))
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="ahft-identity-") as work:
        os.chdir(work)
        try:
            for label, argv, out in calls():
                print("\n".join(run(label, argv, out)), flush=True)
        finally:
            os.chdir(home)
    if ESCAPED:
        sys.exit("calls that raised out of cli.main:\n" + "\n".join(ESCAPED))


if __name__ == "__main__":
    main()
