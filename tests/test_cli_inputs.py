"""Bad input on the command line, in CSV bytes and in model.json: exit 2 with a message."""

import json

import pytest

from ahft.cli import main


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
