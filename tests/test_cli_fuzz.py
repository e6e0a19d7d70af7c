"""Fuzzed CSV, model.json and simulate input on the CLI: an exit code, never a traceback.

Every call must return 0, 2, 3 or 4; an exception that escapes ``main``
fails the test, and what ``simulate`` writes, ``fit`` and ``validate``
must read.  ``derandomize`` fixes the examples, so every run tries the
same inputs.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import numpy as np

from ahft import FactorSpec, GllWeibullModel, builtin_table3, fit_mle, model_to_json
from ahft.cli import main

EXIT_CODES = {0, 2, 3, 4}
FUZZ = settings(max_examples=80, derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])

PSF_HEADERS = ("available_time", "stress", "x")
FATIGUE_CELLS = ("0.1", "0.2", "0.35", "0.5", "0.9")
PSF_CELLS = ("0.1", "0.5", "1", "2", "5", "10")
ODD_CELLS = ("", " ", "nan", "inf", "-inf", "abc", "1e308", "0", "-1", "1.5", "8", "1e-320",
             '"', "0.5\n0.4")


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as path:
        yield Path(path)


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _splice(draw, raw: bytes) -> bytes:
    """``raw`` with up to three bytes replaced by up to three arbitrary ones, or as is."""
    if draw(st.integers(0, 3)):
        return raw
    at = draw(st.integers(0, len(raw)))
    return raw[:at] + draw(st.binary(max_size=3)) + raw[at + draw(st.integers(0, 3)):]


@st.composite
def csv_bytes(draw):
    """A header of PSF names, ``fatigue`` and perhaps ``duration_hours``, rows of
    valid cells, then a few odd, missing or extra cells and spliced bytes."""
    header = draw(st.lists(st.sampled_from(PSF_HEADERS), max_size=3, unique=True))
    header += ["fatigue"] + draw(st.sampled_from([[], [], ["duration_hours"], ["Fatigue"], [""]]))
    header = draw(st.permutations(header))
    cells = {"fatigue": FATIGUE_CELLS, "duration_hours": ("1", "1.0")}
    column = st.tuples(*(st.sampled_from(cells.get(h, PSF_CELLS)) for h in header))
    rows = [list(r) for r in draw(st.lists(column, max_size=12))]
    for _ in range(draw(st.sampled_from((0, 0, 1, 2))) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        at = draw(st.integers(0, len(row)))
        edit = draw(st.sampled_from(["replace", "drop", "add"]))
        if edit == "add" or at == len(row):
            row.insert(at, draw(st.sampled_from(ODD_CELLS)))
        elif edit == "drop":
            del row[at]
        else:
            row[at] = draw(st.sampled_from(ODD_CELLS))
    text = "\n".join(",".join(cells) for cells in [header] + rows) + "\n"
    return header, _splice(draw, text.encode("utf-8"))


@FUZZ
@given(case=csv_bytes())
def test_arbitrary_csv_gives_an_exit_code(workdir, case):
    header, raw = case
    source = workdir / "input.csv"
    source.write_bytes(raw)
    factors = ",".join(h for h in header if h.lower() not in ("fatigue", "duration_hours", ""))
    out = str(workdir / "out")
    assert _run(["pca", "--input", str(source), "-o", out]) in EXIT_CODES
    argv = ["fit", "--input", str(source), "--factors", factors or "x", "-o", out]
    assert _run(argv) in EXIT_CODES


FITTED = model_to_json(fit_mle(builtin_table3(), ("available_time", "stress")))
NUMBERS = (0.0, -1.0, 1e308, -1e308, 1e-320, 0.5, 50.0, float("nan"), float("inf"))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=4) | st.sampled_from(NUMBERS),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=3),
    max_leaves=6,
)


@st.composite
def model_bytes(draw):
    """The fitted model's JSON with up to two entries scaled, replaced or
    deleted, then perhaps spliced bytes."""
    doc = json.loads(FITTED)
    for _ in range(draw(st.sampled_from((0, 1, 1, 2)))):
        if not doc:
            break
        target, key = doc, draw(st.sampled_from(sorted(doc)))
        while isinstance(target[key], (list, dict)) and target[key] and draw(st.booleans()):
            target = target[key]
            key = draw(st.sampled_from(sorted(target) if isinstance(target, dict)
                                       else range(len(target))))
        edit = draw(st.sampled_from(["scale", "scale", "replace", "delete"]))
        if edit == "delete":
            del target[key]
        elif edit == "replace" or not isinstance(target[key], float):
            target[key] = draw(json_values)
        else:
            target[key] *= draw(st.sampled_from((-1.0, 0.0, 1e-3, 10.0, 1e300)))
    return _splice(draw, json.dumps(doc).encode("utf-8"))


@FUZZ
@given(raw=model_bytes())
def test_arbitrary_model_json_gives_an_exit_code(workdir, raw):
    path = workdir / "model.json"
    path.write_bytes(raw)
    model, out = str(path), str(workdir / "out")
    calls = (
        ["predict", "--model", model, "--at", "available_time=0.1,stress=5"],
        ["curves", "--model", model, "--factor", "stress", "--grid", "1:5:3",
         "--fixed", "available_time=0.1"],
        ["validate", "--model", model, "--holdout", "builtin:table8"],
    )
    for argv in calls:
        assert _run(argv + ["-o", out]) in EXIT_CODES


TRUTH = model_to_json(GllWeibullModel(factors=(FactorSpec("f1"), FactorSpec("f2")),
                                      alpha=np.array([-2.0, 0.3, -0.1]), shape=3.0,
                                      covariance=np.eye(4) * 1e-3))


@st.composite
def simulate_argv(draw):
    """simulate arguments for two factors, from parameters whose draws all
    stay below 1 to ones where most rows exceed it."""
    alpha = [draw(st.floats(-5.0, -1.0))] + draw(st.lists(st.floats(-0.5, 0.5), min_size=2,
                                                         max_size=2))
    argv = ["simulate", "--factors", "f1,f2", f"--alpha={','.join(map(repr, alpha))}",
            "--shape", repr(draw(st.floats(1.0, 8.0)))]
    for name in ("f1", "f2"):
        pool = draw(st.lists(st.sampled_from(PSF_CELLS), min_size=2, max_size=4, unique=True))
        argv += ["--pool", f"{name}={'|'.join(pool)}"]
    n = draw(st.sampled_from((8, 60, 2_000, 20_000, 100_000)))
    return argv + ["--n", str(n), "--seed", str(draw(st.integers(0, 2**64 - 1)))]


@settings(FUZZ, max_examples=40)
@given(argv=simulate_argv())
def test_what_simulate_writes_fit_and_validate_read(workdir, argv):
    out = workdir / "simulated"
    (out / "synthetic.csv").unlink(missing_ok=True)
    rc = _run(argv + ["-o", str(out)])
    assert rc in (0, 2)
    if rc == 2:
        assert not (out / "synthetic.csv").exists()
        return
    data = str(out / "synthetic.csv")
    assert _run(["fit", "--input", data, "--factors", "f1,f2", "-o", str(out)]) in (0, 3, 4)
    model = workdir / "truth.json"
    model.write_text(TRUTH)
    assert _run(["validate", "--model", str(model), "--holdout", data, "-o", str(out)]) == 0
