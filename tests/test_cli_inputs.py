"""Bad input on the command line, in CSV bytes and in model.json: exit 2 with a message."""

import errno
import json
import os
import sys

import numpy as np
import pytest

from ahft import alt, pca, validation
from ahft.cli import main
from ahft.errors import NoConvergence


@pytest.fixture(autouse=True)
def _isolated_env(monkeypatch, tmp_path):
    monkeypatch.delenv("AHFT_OUTPUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)


@pytest.fixture
def model_doc(tmp_path):
    assert main(["fit", "--input", "builtin:table3", "--factors", "available_time,stress",
                 "--output-dir", str(tmp_path / "fit")]) == 0
    return json.loads((tmp_path / "fit" / "model.json").read_text())


def _predict(tmp_path, doc, at="available_time=0.1,stress=5"):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return main(["predict", "--model", str(path), "--at", at, "--output-dir", str(tmp_path)])


def test_non_utf8_csv_exits_two(tmp_path, capsys):
    source = tmp_path / "latin1.csv"
    source.write_bytes(b"x,fatigue\n1,0.5\n2,0.4\n\xff\xfe,0.3\n")
    assert main(["pca", "--input", str(source), "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "not UTF-8" in err and "byte 22" in err
    assert "Traceback" not in err


def test_csv_of_two_undecodable_bytes_exits_two(tmp_path, capsys):
    source = tmp_path / "bom.csv"
    source.write_bytes(b"\xff\xfe")
    assert main(["pca", "--input", str(source), "--output-dir", str(tmp_path)]) == 2
    assert "byte 0" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("alpha", ["x", 0.1, 0.2]),
    ("shape", "four"),
    ("covariance", [["a"] * 4] * 4),
    ("covariance", [[1.0, 2.0], [3.0]]),
    # numpy reads numeric strings and booleans as floats; JSON does not.
    ("alpha", ["3.99", 0.1, 0.2]),
    ("alpha", [-2.0, True, 0.2]),
    ("shape", "3.99"),
    ("shape", True),
    ("shape", [3.99]),
    ("covariance", [["0"] * 4] * 4),
    ("covariance", [[True] * 4] * 4),
    ("covariance", [[[0.0]] * 4] * 4),
])
def test_model_with_non_numeric_field_exits_two(tmp_path, capsys, model_doc, field, value):
    model_doc[field] = value
    assert _predict(tmp_path, model_doc) == 2
    assert repr(field) in capsys.readouterr().err


@pytest.mark.parametrize("field, edit", [
    ("alpha", lambda doc: doc["alpha"].__setitem__(1, float("nan"))),
    ("shape", lambda doc: doc.__setitem__("shape", float("inf"))),
    ("covariance", lambda doc: doc["covariance"][2].__setitem__(2, float("inf"))),
])
def test_model_with_non_finite_entry_exits_two(tmp_path, capsys, model_doc, field, edit):
    edit(model_doc)
    assert _predict(tmp_path, model_doc) == 2
    err = capsys.readouterr().err
    assert repr(field) in err and "non-finite" in err


def test_model_with_int_past_any_double_exits_two(tmp_path, capsys, model_doc):
    model_doc["alpha"][1] = 10 ** 400
    assert _predict(tmp_path, model_doc) == 2
    err = capsys.readouterr().err
    assert "'alpha'" in err and "non-finite" in err


def test_model_with_negative_variance_exits_two(tmp_path, capsys, model_doc):
    model_doc["covariance"][1][1] = -model_doc["covariance"][1][1]
    assert _predict(tmp_path, model_doc) == 2
    assert "negative variance" in capsys.readouterr().err


def test_model_with_negative_eigenvalue_exits_two(tmp_path, capsys, model_doc):
    cov = model_doc["covariance"]
    # every variance stays positive, but the correlation of the first two
    # parameters is 10, which no covariance matrix can have
    cov[0][1] = cov[1][0] = 10.0 * (cov[0][0] * cov[1][1]) ** 0.5
    assert _predict(tmp_path, model_doc) == 2
    assert "positive semidefinite" in capsys.readouterr().err


def test_model_with_huge_variance_exits_two(tmp_path, capsys, model_doc):
    model_doc["covariance"][0][0] = 3.4e298
    assert _predict(tmp_path, model_doc) == 2
    err = capsys.readouterr().err
    assert "too large for a log-normal interval" in err and "Traceback" not in err


def test_fitted_model_still_loads(tmp_path, model_doc):
    assert _predict(tmp_path, model_doc) == 0


@pytest.mark.parametrize("at, piece", [
    ("available_time=nan,stress=5", "available_time=nan"),
    ("available_time=0.1,stress=inf", "stress=inf"),
    ("available_time=-inf,stress=5", "available_time=-inf"),
])
def test_predict_rejects_non_finite_values(tmp_path, capsys, model_doc, at, piece):
    assert _predict(tmp_path, model_doc, at) == 2
    err = capsys.readouterr().err
    assert piece in err and "not a finite number" in err


def test_predict_overflow_names_the_factor(tmp_path, capsys, model_doc):
    assert _predict(tmp_path, model_doc, "available_time=1e308,stress=5") == 2
    err = capsys.readouterr().err
    assert "'available_time'" in err and "out of range" in err


@pytest.mark.parametrize("grid, fixed, piece", [
    ("1,nan,3", "available_time=0.1", "'nan'"),
    ("1:inf:3", "available_time=0.1", "'inf'"),
    ("-1e308:1e308:3", "available_time=0.1", "too wide"),
    ("1,2,3", "available_time=nan", "available_time=nan"),
])
def test_curves_rejects_non_finite_values(tmp_path, capsys, model_doc, grid, fixed, piece):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_doc))
    rc = main(["curves", "--model", str(path), "--factor", "stress", f"--grid={grid}",
               "--fixed", fixed, "--output-dir", str(tmp_path / "curves")])
    assert rc == 2
    assert piece in capsys.readouterr().err
    assert not (tmp_path / "curves" / "curve_stress.csv").exists()


def test_curves_that_cannot_be_charted_exit_two_and_write_nothing(tmp_path, capsys):
    # Each fatigue is finite, but 1e306 - 1e-300 times the chart's width overflows.
    assert main(["fit", "--input", "builtin:table3", "--factors", "available_time:log,stress",
                 "--output-dir", str(tmp_path / "fit")]) == 0
    rc = main(["curves", "--model", str(tmp_path / "fit" / "model.json"),
               "--factor", "available_time", "--grid", "1e-300,1e306", "--fixed", "stress=2",
               "--output-dir", str(tmp_path / "curves")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "available_time over [1e-300, 1e+306]" in err and "not finite" in err
    assert not (tmp_path / "curves").exists()


@pytest.mark.parametrize("option, value, words", [
    ("--shape", "inf", ("true_shape", "finite", "inf")),
    ("--alpha", "nan,0.3,-0.1", ("--alpha", "'nan'", "not a finite number")),
    ("--alpha", "-2,inf,-0.1", ("--alpha", "'inf'", "not a finite number")),
    ("--pool", "f1=0.5|nan", ("--pool", "'nan'", "not a finite number")),
    ("--pool", "f1=0.5|x", ("--pool", "cannot parse 'x'")),
    # Finite options whose responses exp(800) * ... overflow.
    ("--alpha", "800,0,0", ("synthetic responses overflow: lower true_alpha or raise true_shape",)),
])
def test_simulate_rejects_non_finite_options(tmp_path, capsys, option, value, words):
    options = {"--shape": "3", "--alpha": "-2,0.3,-0.1", "--pool": "f1=0.5|1|2|5"}
    options[option] = value
    argv = ["simulate", "--factors", "f1,f2", "--n", "20", "--pool", "f2=1|2|5",
            *(f"{name}={text}" for name, text in options.items())]
    assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert all(word in err for word in words), err
    assert "row 1" not in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_model_with_singular_covariance_still_loads(tmp_path, model_doc):
    # rank one, so positive semidefinite but not definite
    v = [1e-2, 2e-3, -1e-3, 5e-2]
    model_doc["covariance"] = [[a * b for b in v] for a in v]
    assert _predict(tmp_path, model_doc) == 0


@pytest.mark.parametrize("key, value", [("name", 5), ("name", None), ("transform", 1.5)])
def test_model_with_non_string_factor_field_exits_two(tmp_path, capsys, model_doc, key, value):
    model_doc["factors"][1][key] = value
    assert _predict(tmp_path, model_doc) == 2
    err = capsys.readouterr().err
    assert f"'factors[1].{key}'" in err and "must be a string" in err
    assert "Traceback" not in err


def _predict_text(tmp_path, text):
    """``_predict`` on a model file of this ``text``, which need not be JSON."""
    path = tmp_path / "edited.json"
    path.write_text(text)
    return main(["predict", "--model", str(path), "--at", "available_time=0.1,stress=5",
                 "--output-dir", str(tmp_path)])


def test_model_file_nested_past_the_parser_depth_exits_two(tmp_path, capsys):
    # Deeper than any interpreter's recursion limit, which json.loads meets as RecursionError.
    assert _predict_text(tmp_path, "[" * 100_000) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: model file is not valid JSON: ") and "Traceback" not in err


@pytest.fixture(params=["as set", "off"])
def int_digit_limit(request):
    """Python's limit on the decimal digits of an int: as the interpreter sets it, and off."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if request.param == "as set" or not limit:
        yield limit
        return
    sys.set_int_max_str_digits(0)
    try:
        yield 0
    finally:
        sys.set_int_max_str_digits(limit)


def test_model_with_a_5000_digit_integer_exits_two(tmp_path, capsys, model_doc, int_digit_limit):
    model_doc["shape"] = "SHAPE"
    assert _predict_text(tmp_path, json.dumps(model_doc).replace('"SHAPE"', "9" * 5000)) == 2
    err = capsys.readouterr().err
    if int_digit_limit:  # json.loads cannot read the literal
        assert err.startswith("error: model file is not valid JSON: ")
    else:  # it reads an int past any double
        assert err == "error: model field 'shape' has non-finite entries\n"
    assert "Traceback" not in err


def test_curves_overflow_names_the_factor(tmp_path, capsys, model_doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_doc))
    rc = main(["curves", "--model", str(path), "--factor", "stress", "--grid", "1:5:9",
               "--fixed", "available_time=1e308", "--output-dir", str(tmp_path / "curves")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'available_time'" in err and "out of range" in err
    assert not (tmp_path / "curves" / "curve_stress.csv").exists()


def test_validate_overflow_names_the_row_and_factor(tmp_path, capsys, model_doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_doc))
    holdout = tmp_path / "holdout.csv"
    holdout.write_text("available_time,stress,fatigue\n0.1,5,0.5\n0.2,3,0.4\n1e308,2,0.3\n")
    rc = main(["validate", "--model", str(path), "--holdout", str(holdout),
               "--output-dir", str(tmp_path / "validate")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "at row 3" in err and "'available_time'" in err and "out of range" in err
    assert not (tmp_path / "validate" / "validation.csv").exists()


def test_non_utf8_model_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"format": "ahft-\xff"}')
    rc = main(["predict", "--model", str(path), "--at", "stress=1", "--output-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "not UTF-8" in err and "byte 17" in err
    assert "Traceback" not in err


def test_failing_runs_leave_no_output_directory(tmp_path, model_doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_doc))
    holdout = tmp_path / "holdout.csv"
    holdout.write_text("available_time,stress,fatigue\n1e308,2,0.3\n")
    failing = {
        "curves": ["curves", "--model", str(path), "--factor", "stress", "--grid", "1:5:3",
                   "--fixed", "available_time=1e308"],
        "validate": ["validate", "--model", str(path), "--holdout", str(holdout)],
        "predict": ["predict", "--model", str(path), "--at", "available_time=1e308,stress=5"],
    }
    for name, argv in failing.items():
        assert main(argv + ["--output-dir", str(tmp_path / name / "out")]) == 2
        assert not (tmp_path / name).exists()
    nested = tmp_path / "a" / "b" / "c"
    argv = ["predict", "--model", str(path), "--at", "available_time=0.1,stress=5"]
    assert main(argv + ["--output-dir", str(nested)]) == 0
    assert (nested / "prediction.csv").is_file()


def test_pca_on_an_overflowing_column_exits_two(tmp_path, capsys):
    source = tmp_path / "huge.csv"
    source.write_text("available_time,stress,x,fatigue\n"
                      "1e308,2,1,0.3\n1,5,2,0.2\n10,1,3,0.4\n0.1,2,5,0.25\n")
    assert main(["pca", "--input", str(source), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "'available_time'" in err and "overflows" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["fit", "--input", "builtin:table3", "--factors", "available_time", "--response", "stress"],
    ["fit", "--input", "builtin:table3", "--factors", "available_time", "--tol", "1e300"],
    ["pca", "--input", "builtin:table3", "--response", "fatigue"],
])
def test_removed_options_exit_two(tmp_path, capsys, argv):
    assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_pca_threshold_one_keeps_every_component(tmp_path):
    out = tmp_path / "out"
    assert main(["pca", "--input", "builtin:table3", "--threshold", "1", "-o", str(out)]) == 0
    assert "retained_components: 9\n" in (out / "selection.txt").read_text()


@pytest.mark.parametrize("argv, quantity", [
    (["pca", "--input", "builtin:table3", "--threshold", "0"], "threshold"),
    (["pca", "--input", "builtin:table3", "--threshold", "1.5"], "threshold"),
    (["pca", "--input", "builtin:table3", "--threshold", "nan"], "threshold"),
    (["fit", "--input", "builtin:table3", "--factors", "available_time,stress",
      "--confidence", "1.5"], "confidence level"),
    (["fit", "--input", "builtin:table3", "--factors", "available_time,stress",
      "--max-iterations", "0"], "max_iterations"),
    (["predict", "--model", "MODEL", "--at", "available_time=0.1,stress=5",
      "--percentile", "0"], "percentile"),
    (["predict", "--model", "MODEL", "--at", "available_time=0.1,stress=5",
      "--confidence", "1"], "confidence level"),
    (["validate", "--model", "MODEL", "--holdout", "builtin:table8",
      "--percentile", "1"], "percentile"),
    (["curves", "--model", "MODEL", "--factor", "stress", "--grid", "1:5:9",
      "--fixed", "available_time=0.1", "--percentile=-1"], "percentile"),
    # (1 + level) / 2 rounds to 1 at the double next below 1.
    (["fit", "--input", "builtin:table3", "--factors", "available_time,stress",
      "--confidence", "0.9999999999999999"], "confidence level"),
    (["predict", "--model", "MODEL", "--at", "available_time=0.1,stress=5",
      "--confidence", "0.9999999999999999"], "confidence level"),
])
def test_out_of_range_option_exits_two_and_writes_nothing(tmp_path, capsys, model_doc,
                                                          argv, quantity):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_doc))
    argv = [str(path) if a == "MODEL" else a for a in argv]
    assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert quantity in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["predict", "validate", "curves"])
def test_one_point_overflow_names_no_row(tmp_path, capsys, model_doc, command):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_doc))
    holdout = tmp_path / "holdout.csv"
    holdout.write_text("available_time,stress,fatigue\n1e308,2,0.3\n")
    argv = {
        "predict": ["predict", "--model", str(path), "--at", "available_time=1e308,stress=5"],
        "validate": ["validate", "--model", str(path), "--holdout", str(holdout)],
        "curves": ["curves", "--model", str(path), "--factor", "stress", "--grid", "2",
                   "--fixed", "available_time=1e308"],
    }[command]
    assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "is out of range" in err and "at row" not in err


@pytest.mark.parametrize("argv, name", [
    (["predict", "--at", "available_time=0.1,stress=5,stress=2"], "'stress' is assigned twice"),
    (["predict", "--at", "available_time=0.1,Stress=5,stress=2"], "'stress' is assigned twice"),
    (["predict", "--at", "available_time=0.1,stress=5,bogus=3"], "--at names 'bogus'"),
    (["curves", "--factor", "stress", "--grid", "1,2", "--fixed", "available_time=0.1,bogus=1"],
     "--fixed names 'bogus'"),
    (["curves", "--factor", "stress", "--grid", "1,2", "--fixed", "available_time=0.1,stress=9"],
     "--fixed gives 'stress'"),
    (["curves", "--factor", "bogus", "--grid", "1,2", "--fixed", "available_time=0.1,stress=5"],
     "--factor names 'bogus'"),
    (["curves", "--factor", "stress", "--grid", "1,2",
      "--fixed", "available_time=0.1,available_time=1"], "'available_time' is assigned twice"),
    (["curves", "--factor", "stress", "--factor", "Stress", "--grid", "1,2",
      "--fixed", "available_time=0.1"], "--factor gives 'stress' twice"),
])
def test_assignments_that_change_nothing_exit_two(tmp_path, capsys, model_doc, argv, name):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_doc))
    out = tmp_path / "out"
    assert main([argv[0], "--model", str(path), *argv[1:], "-o", str(out)]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_curves_may_fix_a_factor_that_another_curve_sweeps(tmp_path, model_doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_doc))
    assert main(["curves", "--model", str(path), "--factor", "stress", "--factor", "available_time",
                 "--grid", "1,2", "--fixed", "available_time=0.1,stress=5",
                 "-o", str(tmp_path)]) == 0


@pytest.mark.parametrize("argv, message", [
    (["fit", "--input", "builtin:table3", "--factors", "stress,stress"],
     "factor 'stress' with the identity transform twice"),
    (["fit", "--input", "builtin:table3", "--factors", "available_time,Stress,stress:id"],
     "factor 'stress' with the identity transform twice"),
    (["fit", "--input", "builtin:table3", "--factors", "stress:log,stress:ln"],
     "factor 'stress' with the log transform twice"),
    (["simulate", "--factors", "f1,f1", "--alpha=-2,0.3,-0.1", "--shape", "3", "--pool", "f1=1|2",
      "--n", "5"], "factor 'f1' twice"),
    (["simulate", "--factors", "f1,f1:log", "--alpha=-2,0.3,-0.1", "--shape", "3",
      "--pool", "f1=1|2", "--n", "5"], "factor 'f1' twice"),
    (["simulate", "--factors", "f1", "--alpha=-2,0.3", "--shape", "3",
      "--pool", "f1=1|2", "--pool", "F1=3|4", "--n", "5"], "--pool gives factor 'f1' twice"),
    (["simulate", "--factors", "f1", "--alpha=-2,0.3", "--shape", "3",
      "--pool", "f1=1|2", "--pool", "f2=3|4", "--n", "5"], "--pool names 'f2'"),
])
def test_repeated_factors_exit_two(tmp_path, capsys, argv, message):
    assert main([*argv, "-o", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_factor_under_two_transforms_still_fits(tmp_path):
    assert main(["fit", "--input", "builtin:table3", "--factors", "stress,stress:log",
                 "-o", str(tmp_path)]) == 0
    rows = (tmp_path / "regression.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["Intercept", "stress", "stress", "Shape"]


@pytest.mark.parametrize("argv, name", [
    (["fit", "--input", "builtin:table3", "--factors", "fatigue"], "fatigue"),
    (["fit", "--input", "builtin:table3", "--factors", "stress,Duration Hours:log"],
     "duration_hours"),
    (["simulate", "--factors", "fatigue", "--alpha=-2,0.3", "--shape", "3",
      "--pool", "fatigue=0.5|1", "--n", "5"], "fatigue"),
    (["simulate", "--factors", "duration_hours", "--alpha=-2,0.3", "--shape", "3",
      "--n", "5"], "duration_hours"),
])
def test_reserved_names_as_factors_exit_two(tmp_path, capsys, argv, name):
    # A fit of the response on itself, or a synthetic file that holds the
    # response or duration twice, which fit could not read back.
    assert main([*argv, "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"factor {name!r} is a reserved column name" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["fit", "--input", "builtin:table3", "--factors", "available_time,!!!"],
    ["simulate", "--factors", "f1,!!!", "--alpha=-2,0.3,-0.1", "--shape", "3", "--n", "5"],
])
def test_a_factor_name_without_a_letter_or_digit_exits_two(tmp_path, capsys, argv):
    assert main([*argv, "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: factor name '!!!' has no ASCII letter or digit\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, message", [
    ("!!!", "factor name '!!!' has no ASCII letter or digit"),
    ("Available Time", "model field 'factors[1].name' repeats factor 'available_time' "
                       "with the identity transform of factors[0]"),
])
def test_model_with_a_factor_no_column_can_take_exits_two(tmp_path, capsys, model_doc,
                                                          name, message):
    model_doc["factors"][1]["name"] = name
    assert _predict(tmp_path, model_doc, at="available_time=0.1") == 2
    # Every message names the field; FactorSpec's own follows a colon.
    field = "model field 'factors[1].name'"
    expected = message if message.startswith(field) else f"{field}: {message}"
    assert capsys.readouterr().err == f"error: {expected}\n"


def test_model_with_a_reserved_factor_name_exits_two(tmp_path, capsys, model_doc):
    model_doc["factors"][1]["name"] = "Fatigue"
    assert _predict(tmp_path, model_doc, at="available_time=0.1,fatigue=5") == 2
    assert capsys.readouterr().err.startswith(
        "error: model field 'factors[1].name': factor 'fatigue' is a reserved column name")


@pytest.mark.parametrize("command", [["pca"], ["fit", "--factors", "x"]])
@pytest.mark.parametrize("header, cell", [
    ("x,,fatigue", "header cell 2 ('')"),
    ("x,é,fatigue", "header cell 2 ('é')"),
    ("温度,x,fatigue", "header cell 1 ('温度')"),
    ('"x","é",fatigue', "header cell 2 ('é')"),
])
def test_a_header_cell_that_names_no_column_exits_two(tmp_path, capsys, command, header, cell):
    source = tmp_path / "unnamed.csv"
    source.write_text(header + "\n1,2,0.2\n3,5,0.5\n4,1,0.7\n", encoding="utf-8")
    argv = [command[0], "--input", str(source), *command[1:], "-o", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {cell} has no ASCII letter or digit\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["fatigue\n0.2\n0.5\n0.7\n",
                                  "duration_hours,fatigue\n1,0.2\n1,0.5\n1,0.7\n"])
def test_pca_without_a_psf_column_exits_two(tmp_path, capsys, text):
    source = tmp_path / "response_only.csv"
    source.write_text(text)
    assert main(["pca", "--input", str(source), "-o", str(tmp_path / "out")]) == 2
    assert "no column besides the response 'fatigue'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


SIMULATE = ["simulate", "--factors", "f1,f2", "--alpha=-2,0.3,-0.1", "--shape", "3",
            "--pool", "f1=0.5|1|2|5", "--pool", "f2=1|2|5"]


def _curves(tmp_path, model_doc, grid):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_doc))
    return ["curves", "--model", str(path), "--factor", "stress", "--grid", grid,
            "--fixed", "available_time=0.1"]


def _assert_exits_two(tmp_path, capsys, argv, words):
    assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert words in err and "Traceback" not in err, err
    assert not (tmp_path / "out").exists()


# Counts numpy refuses before it allocates anything: 2**62 eight-byte
# cells are more bytes than intp holds, and 10**20 is more than it indexes.
@pytest.mark.parametrize("count", [2 ** 62, 10 ** 20])
def test_huge_counts_name_their_option(tmp_path, capsys, model_doc, count):
    _assert_exits_two(tmp_path, capsys, _curves(tmp_path, model_doc, f"1:5:{count}"),
                      f"--grid count {count} is too large")
    _assert_exits_two(tmp_path, capsys, SIMULATE + ["--n", str(count)],
                      f"--n {count} is too large")


def test_grid_numpy_cannot_allocate_names_the_option(tmp_path, capsys, model_doc, monkeypatch):
    arange = np.arange

    def refuse_large(*args, **kwargs):
        if args and isinstance(args[0], int) and args[0] >= 10 ** 9:
            raise MemoryError("Unable to allocate 7.11 PiB")
        return arange(*args, **kwargs)

    monkeypatch.setattr(np, "arange", refuse_large)
    _assert_exits_two(tmp_path, capsys, _curves(tmp_path, model_doc, "1:5:1000000000000000"),
                      "--grid count 1000000000000000 is too large")


def test_draws_numpy_cannot_allocate_name_the_option(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 14.2 PiB")

    monkeypatch.setattr(validation, "_splitmix64_stream", refuse)
    _assert_exits_two(tmp_path, capsys, SIMULATE + ["--n", "20"],
                      "--n 20 is too large: Unable to allocate 14.2 PiB")


@pytest.mark.parametrize("message, words", [
    ("Unable to allocate 1 TiB", "error: Unable to allocate 1 TiB"),
    ("", "error: out of memory"),
])
def test_memory_error_exits_two(tmp_path, capsys, model_doc, monkeypatch, message, words):
    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(alt, "sweep_curve", refuse)
    _assert_exits_two(tmp_path, capsys, _curves(tmp_path, model_doc, "1:5:9"), words)


def _assert_fails_with(tmp_path, capsys, argv, code, message):
    """``argv`` exits ``code``, prints exactly ``error: message`` and leaves no output."""
    assert main(argv + ["--output-dir", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_one_point_grid_range_draws_a_one_point_curve(tmp_path, capsys, model_doc):
    out = tmp_path / "out"
    assert main(_curves(tmp_path, model_doc, "2:2:1") + ["-o", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("curves: stress over [2, 2] -> ")
    header, *rows = (out / "curve_stress.csv").read_text().splitlines()
    assert header == "stress,fatigue" and len(rows) == 1 and rows[0].startswith("2.0,")
    assert (out / "curve_stress.svg").is_file()


CURVES = ["curves", "--model", "MODEL", "--factor", "stress", "--fixed", "available_time=0.1"]


@pytest.mark.parametrize("argv, message", [
    (CURVES + ["--grid", "1:5"], "grid range must be start:stop:count, got '1:5'"),
    (CURVES + ["--grid", "1:5:x"], "cannot parse grid range '1:5:x'"),
    (CURVES + ["--grid", "1:5:0"], "grid count must be at least 1"),
    (CURVES + ["--grid", ","], "grid is empty"),
    (["predict", "--model", "MODEL", "--at", "stress"], "expected name=value, got 'stress'"),
    (["predict", "--model", "MODEL", "--at", ","], "no name=value assignments supplied"),
    (["fit", "--input", "builtin:table3", "--factors", ","], "at least one factor required"),
    (["fit", "--input", "builtin:table3", "--factors", ":log"], "empty factor name in ':log'"),
    (SIMULATE[:6] + ["--pool", "f1", "--n", "5"], "--pool expects name=v1|v2|..., got 'f1'"),
    (SIMULATE[:8] + ["--n", "5"], "no --pool given for factor(s): f2"),
])
def test_malformed_option_exits_two(tmp_path, capsys, model_doc, argv, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_doc))
    argv = [str(path) if a == "MODEL" else a for a in argv]
    _assert_fails_with(tmp_path, capsys, argv, 2, message)


def test_unreadable_input_and_unwritable_output_exit_two_with_the_os_text(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    out = blocker / "sub"
    assert main(["pca", "--input", "builtin:table3", "-o", str(out)]) == 2
    not_a_directory = f"[Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}"
    assert capsys.readouterr().err == f"error: {not_a_directory}: '{out / 'eigen.csv'}'\n"
    assert blocker.read_text() == "x"
    _assert_fails_with(tmp_path, capsys, ["pca", "--input", str(tmp_path)], 2,
                       f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{tmp_path}'")


TIE_NOTE = "note: spectrum contains tied eigenvalues; loadings in tied blocks are arbitrary"


def test_pca_notes_tied_eigenvalues_only_where_the_spectrum_has_them(tmp_path, capsys):
    source = tmp_path / "twins.csv"
    source.write_text("a,b,c,fatigue\n1,1,2,0.5\n2,2,1,0.4\n3,3,5,0.3\n4,4,3,0.2\n")
    assert main(["pca", "--input", str(source), "-o", str(tmp_path / "twins")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == TIE_NOTE
    assert main(["pca", "--input", "builtin:table3", "-o", str(tmp_path / "table3")]) == 0
    assert "note:" not in capsys.readouterr().out


def test_pca_eigensolver_no_convergence_exits_three_without_diagnostics(tmp_path, capsys,
                                                                         monkeypatch):
    def give_up(*args, **kwargs):
        raise NoConvergence("Jacobi eigensolver did not converge", {"sweeps": 1})

    monkeypatch.setattr(pca, "eigen_symmetric", give_up)
    _assert_fails_with(tmp_path, capsys, ["pca", "--input", "builtin:table3"], 3,
                       "Jacobi eigensolver did not converge")


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.__setitem__("shape", 0), "shape must be positive, got 0.0"),
    (lambda doc: doc.__setitem__("shape", -1.5), "shape must be positive, got -1.5"),
    (lambda doc: doc.__setitem__("covariance", [row[:3] for row in doc["covariance"][:3]]),
     "covariance must be (4, 4), got (3, 3)"),
    (lambda doc: doc["covariance"][0].__setitem__(1, doc["covariance"][0][1] + 1e-6),
     "covariance must be symmetric within 1e-8"),
    (lambda doc: doc["fit_meta"].__setitem__("log_likelihood", 10 ** 400),
     "model field 'fit_meta.log_likelihood' is not finite"),
])
def test_model_field_out_of_its_domain_exits_two(tmp_path, capsys, model_doc, edit, message):
    edit(model_doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(model_doc))
    _assert_fails_with(tmp_path, capsys,
                       ["predict", "--model", str(path), "--at", "available_time=0.1,stress=5"],
                       2, message)
