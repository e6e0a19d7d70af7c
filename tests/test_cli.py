"""End-to-end command-line behavior: artifacts, exit codes, determinism."""

import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from ahft import (
    Dataset,
    FactorSpec,
    SyntheticSpec,
    builtin_table3,
    generate_synthetic,
    load_csv,
    positive_param_ci,
    serialize,
)
from ahft import alt, cli
from ahft.cli import main
from ahft.validation import redraw_below_one
from oracles import SplitMix64

CONSTANT_FACTOR_CSV = "a,b,fatigue\n2,1,0.2\n2,2,0.3\n2,3,0.25\n2,1,0.4\n2,5,0.35\n"


@pytest.fixture(autouse=True)
def _isolated_env(monkeypatch, tmp_path):
    monkeypatch.delenv("AHFT_OUTPUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _fit_workshop(out):
    rc = main(["fit", "--input", "builtin:table3",
               "--factors", "available_time,stress", "--output-dir", str(out)])
    assert rc == 0
    return out / "model.json"


# ---------------------------------------------------------------------------
# Subcommand artifacts
# ---------------------------------------------------------------------------

def test_pca_writes_all_artifacts(tmp_path):
    out = tmp_path / "pca"
    assert main(["pca", "--input", "builtin:table3", "--output-dir", str(out)]) == 0
    for name in ("eigen.csv", "loadings.csv", "scree.csv", "scree.svg", "selection.txt"):
        assert (out / name).exists(), name
    rows = _read_csv(out / "eigen.csv")
    assert [r[0] for r in rows] == ["component", "eigenvalue", "proportion", "cumulative"]
    eigenvalues = [float(v) for v in rows[1][1:]]
    assert len(eigenvalues) == 9
    assert sum(eigenvalues) == pytest.approx(9.0, rel=1e-9)
    loadings = _read_csv(out / "loadings.csv")
    assert loadings[0] == ["variable"] + [f"PC{i}" for i in range(1, 10)]
    assert len(loadings) == 10
    assert "retained_components: 3" in (out / "selection.txt").read_text()


def test_pca_two_column_input(tmp_path):
    source = tmp_path / "two.csv"
    source.write_text("x,fatigue\n1,0.1\n2,0.3\n3,0.5\n4,0.6\n")
    out = tmp_path / "out"
    assert main(["pca", "--input", str(source), "--output-dir", str(out)]) == 0
    rows = _read_csv(out / "eigen.csv")
    eigenvalues = [float(v) for v in rows[1][1:]]
    assert len(eigenvalues) == 2
    assert sum(eigenvalues) == pytest.approx(2.0, rel=1e-9)


def test_fit_writes_model_and_regression_table(tmp_path):
    model_path = _fit_workshop(tmp_path)
    doc = json.loads(model_path.read_text())
    assert doc["format"] == "ahft-model"
    assert doc["format_version"] == 1
    rows = _read_csv(tmp_path / "regression.csv")
    assert rows[0] == ["Predictor", "Coef", "StandardError", "Z", "P", "LowerCI", "UpperCI"]
    assert [r[0] for r in rows[1:]] == ["Intercept", "available_time", "stress", "Shape"]
    shape_row = rows[-1]
    assert shape_row[3] == "" and shape_row[4] == ""  # no Wald columns for the shape
    assert float(shape_row[5]) < float(shape_row[1]) < float(shape_row[6])


def test_fit_accepts_transforms(tmp_path):
    rc = main(["fit", "--input", "builtin:table3",
               "--factors", "available_time:log,stress", "--output-dir", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "model.json").read_text())
    assert doc["factors"][0] == {"name": "available_time", "transform": "log"}


def test_predict_interval_wiring(tmp_path):
    model_path = _fit_workshop(tmp_path)
    rc = main(["predict", "--model", str(model_path),
               "--at", "available_time=0.1,stress=5", "--output-dir", str(tmp_path)])
    assert rc == 0
    header, row = _read_csv(tmp_path / "prediction.csv")
    assert header == ["available_time", "stress", "percentile_p", "value",
                      "std_error", "lower_ci", "upper_ci"]
    record = dict(zip(header, (float(v) for v in row)))
    assert record["percentile_p"] == 0.5
    assert record["value"] == pytest.approx(0.12637966874095544, rel=1e-12)
    # lower/upper come from the positive-parameter CI path, bit for bit
    lo, hi = positive_param_ci(record["value"], record["std_error"], 0.99)
    assert (record["lower_ci"], record["upper_ci"]) == (lo, hi)


@pytest.mark.parametrize("confidence, printed", [(None, "99% CI"), ("0.999", "99.9% CI"),
                                                ("0.95", "95% CI"), ("0.9999999", "99.99999% CI")])
def test_predict_prints_the_confidence_it_used(tmp_path, capsys, confidence, printed):
    model_path = _fit_workshop(tmp_path)
    capsys.readouterr()
    level = ["--confidence", confidence] if confidence else []
    assert main(["predict", "--model", str(model_path), "--at", "available_time=0.1,stress=5",
                 *level, "--output-dir", str(tmp_path)]) == 0
    assert f" {printed} [" in capsys.readouterr().out


@pytest.mark.parametrize("percentile, printed", [(None, "p=0.5;"), ("0.9999999", "p=0.9999999;"),
                                                 ("1e-9", "p=1e-09;")])
def test_validate_prints_the_percentile_it_used(tmp_path, capsys, percentile, printed):
    model_path = _fit_workshop(tmp_path)
    capsys.readouterr()
    level = ["--percentile", percentile] if percentile else []
    assert main(["validate", "--model", str(model_path), "--holdout", "builtin:table8",
                 *level, "--output-dir", str(tmp_path)]) == 0
    assert f" at {printed} " in capsys.readouterr().out


# Inputs are echoed with every digit, where {:g} kept six; 1, 5 and 0.1
# read as before.
def test_predict_echoes_the_point_with_every_digit(tmp_path, capsys):
    model_path = _fit_workshop(tmp_path)
    capsys.readouterr()
    assert main(["predict", "--model", str(model_path), "--at",
                 "available_time=0.1234567,stress=5", "--output-dir", str(tmp_path)]) == 0
    assert "predict: at available_time=0.1234567, stress=5, p=0.5:" in capsys.readouterr().out


def test_curves_echo_and_label_the_grid_ends_with_every_digit(tmp_path, capsys):
    model_path = _fit_workshop(tmp_path)
    capsys.readouterr()
    assert main(["curves", "--model", str(model_path), "--factor", "stress",
                 "--grid", "1.0000001,1.0000002", "--fixed", "available_time=0.1",
                 "--output-dir", str(tmp_path)]) == 0
    assert "curves: stress over [1.0000001, 1.0000002] -> " in capsys.readouterr().out
    chart = (tmp_path / "curve_stress.svg").read_text()
    assert '">1.0000001</text>' in chart and '">1.0000002</text>' in chart


def test_pca_echoes_the_threshold_with_every_digit(tmp_path, capsys):
    assert main(["pca", "--input", "builtin:table3", "--threshold", "0.9999999",
                 "--output-dir", str(tmp_path)]) == 0
    assert " retained at threshold 0.9999999; " in capsys.readouterr().out


def test_validate_writes_report(tmp_path):
    model_path = _fit_workshop(tmp_path)
    rc = main(["validate", "--model", str(model_path),
               "--holdout", "builtin:table8", "--output-dir", str(tmp_path)])
    assert rc == 0
    rows = _read_csv(tmp_path / "validation.csv")
    assert rows[0][0] == "instance"
    assert rows[0][-3:] == ["fatigue", "predicted_fatigue", "relative_error"]
    assert len(rows) == 1 + 5 + 2
    assert rows[-2][0] == "mean_relative_error"
    assert rows[-1][0] == "max_relative_error"
    assert float(rows[-2][1]) == pytest.approx(0.4458, abs=5e-4)
    for row in rows[1:6]:
        assert 0.0 < float(row[-2]) < 1.0


def test_curves_per_factor_artifacts(tmp_path):
    model_path = _fit_workshop(tmp_path)
    rc = main(["curves", "--model", str(model_path),
               "--factor", "stress", "--factor", "available_time",
               "--grid", "1,2,5", "--fixed", "available_time=1,stress=1",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    for factor in ("stress", "available_time"):
        assert (tmp_path / f"curve_{factor}.csv").exists()
        assert (tmp_path / f"curve_{factor}.svg").exists()
    rows = _read_csv(tmp_path / "curve_stress.csv")
    values = [float(r[1]) for r in rows[1:]]
    assert values == sorted(values)  # fitted stress coefficient is positive


def test_curves_grid_range_syntax(tmp_path):
    model_path = _fit_workshop(tmp_path)
    rc = main(["curves", "--model", str(model_path), "--factor", "stress",
               "--grid", "1:5:9", "--fixed", "available_time=1",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    rows = _read_csv(tmp_path / "curve_stress.csv")
    assert len(rows) == 10
    assert float(rows[1][0]) == 1.0 and float(rows[-1][0]) == 5.0


def test_simulate_then_fit_round_trip(tmp_path):
    rc = main(["simulate", "--factors", "f1,f2", "--alpha=-2,0.3,-0.1",
               "--shape", "3", "--pool", "f1=0.5|1|2|5", "--pool", "f2=1|2|5",
               "--n", "60", "--seed", "7", "--output-dir", str(tmp_path)])
    assert rc == 0
    data = load_csv((tmp_path / "synthetic.csv").read_bytes())
    assert data.n_rows == 60
    assert set(data.column("f2")) <= {1.0, 2.0, 5.0}
    rc = main(["fit", "--input", str(tmp_path / "synthetic.csv"),
               "--factors", "f1,f2", "--output-dir", str(tmp_path / "fit")])
    assert rc == 0


README_SIMULATE = ["simulate", "--factors", "f1,f2", "--alpha=-2,0.3,-0.1", "--shape", "3",
                   "--pool", "f1=0.5|1|2|5", "--pool", "f2=1|2|5"]


def _readme_spec(n, seed):
    """What ``README_SIMULATE`` with ``--n n --seed seed`` asks the generator for."""
    return SyntheticSpec((-2.0, 0.3, -0.1), 3.0, (FactorSpec("f1"), FactorSpec("f2")),
                         ((0.5, 1.0, 2.0, 5.0), (1.0, 2.0, 5.0)), n=n, seed=seed)


def test_simulate_redraws_a_draw_fit_would_reject(tmp_path):
    # The README's parameters at n = 1e5: row 13718 is the first of the rows
    # that draw fatigue >= 1 from the unbounded Weibull (1.0046...); only
    # those rows are drawn again, below 1, and keep their factors.
    out = tmp_path / "sim"
    assert main([*README_SIMULATE, "--n", "100000", "--seed", "7", "--output-dir", str(out)]) == 0
    unbounded = generate_synthetic(_readme_spec(100_000, seed=7))
    high = [int(i) + 1 for i in np.flatnonzero(unbounded.column("fatigue") >= 1.0)]
    assert high[0] == 13718
    expected = serialize(unbounded).split(b"\n")
    written = (out / "synthetic.csv").read_bytes().split(b"\n")
    assert len(written) == len(expected)
    assert [i for i, (a, b) in enumerate(zip(written, expected)) if a != b] == high
    for i in high:
        cells = written[i].split(b",")
        assert cells[:2] == expected[i].split(b",")[:2]
        assert 0.0 < float(cells[2]) < 1.0
    assert main(["fit", "--input", str(out / "synthetic.csv"), "--factors", "f1,f2",
                 "--output-dir", str(tmp_path / "fit")]) == 0


@pytest.mark.parametrize("seed", [9, 10, 32])
def test_simulate_readme_parameters_exit_zero_where_a_draw_reaches_one(tmp_path, seed):
    assert generate_synthetic(_readme_spec(200, seed)).column("fatigue").max() >= 1.0
    out = tmp_path / "sim"
    assert main([*README_SIMULATE, "--n", "200", "--seed", str(seed), "--output-dir", str(out)]) == 0
    assert load_csv((out / "synthetic.csv").read_bytes()).n_rows == 200


def test_simulate_reads_back_where_a_response_takes_the_top_draw(tmp_path):
    # Draw 3, the first row's response, has all of its top 53 bits set: its
    # uniform is 1 - 2**-53, not 1.0, whose log1p(-1) has no value.
    seed = SplitMix64.seed_for((2**53 - 1) << 11, 3)
    assert seed == 13330440679483723533
    out = tmp_path / "sim"
    assert main([*README_SIMULATE, "--n", "5", "--seed", str(seed), "--output-dir", str(out)]) == 0
    assert main(["fit", "--input", str(out / "synthetic.csv"), "--factors", "f1",
                 "--output-dir", str(tmp_path / "fit")]) == 0


def test_simulate_exits_zero_where_a_redraw_takes_the_top_draw(tmp_path):
    # Nine rows draw draws 1-18; draw 19, the first row redrawn below 1,
    # has all of its top 53 bits set, and its t rounds to 1 before the cap.
    seed = SplitMix64.seed_for((2**53 - 1) << 11, 19)
    assert seed == 15386444307408063933
    out = tmp_path / "sim"
    assert main(["simulate", "--factors", "f1", "--alpha=0,0", "--shape", "3", "--pool", "f1=1",
                 "--n", "9", "--seed", str(seed), "--output-dir", str(out)]) == 0
    fatigue = load_csv((out / "synthetic.csv").read_bytes()).column("fatigue")
    assert len(fatigue) == 9 and fatigue.max() < 1.0


def test_simulate_exits_two_when_no_draw_below_one_is_representable(tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--factors", "f", "--alpha=500,0", "--shape", "3", "--pool", "f=1",
                 "--n", "5", "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: row 1: ln(eta) = 500.0 puts fatigue below 1")
    assert not out.exists()


# ---------------------------------------------------------------------------
# Determinism and output routing
# ---------------------------------------------------------------------------

def test_artifacts_byte_identical_across_runs(tmp_path):
    names = ("eigen.csv", "loadings.csv", "scree.csv", "scree.svg", "selection.txt",
             "model.json", "regression.csv", "validation.csv", "synthetic.csv")

    def simulate(out, n):
        assert main(["simulate", "--factors", "f", "--alpha=-2,0", "--shape", "2",
                     "--pool", "f=1|2", "--n", str(n), "--seed", "3",
                     "--output-dir", str(out)]) == 0

    runs = []
    # Two fresh directories, then a rerun into the first after a longer
    # simulate: every artifact is written over an older file of its name.
    for name, longer_first in (("one", False), ("two", False), ("one", True)):
        out = tmp_path / name
        if longer_first:
            simulate(out, 200)
            assert len((out / "synthetic.csv").read_bytes()) > len(runs[0]["synthetic.csv"])
        assert main(["pca", "--input", "builtin:table3", "--output-dir", str(out)]) == 0
        model = _fit_workshop(out)
        assert main(["validate", "--model", str(model), "--holdout", "builtin:table8",
                     "--output-dir", str(out)]) == 0
        simulate(out, 20)
        runs.append({artifact: (out / artifact).read_bytes() for artifact in names})
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def test_parser_is_reused_across_calls_in_one_process(tmp_path, capsys):
    assert main(["fit", "--input", "builtin:table3"]) == 2  # --factors missing
    assert "--factors" in capsys.readouterr().err
    assert cli._parsers() is cli._parsers()
    runs = []
    for name in ("one", "two"):
        out = tmp_path / name
        model = str(out / "model.json")
        codes = [
            main(["pca", "--input", "builtin:table3", "-o", str(out)]),
            main(["fit", "--input", "builtin:table3", "--factors", "available_time,stress",
                  "-o", str(out)]),
            main(["predict", "--model", model, "--at", "available_time=0.1,stress=5",
                  "-o", str(out)]),
            main(["validate", "--model", model, "--holdout", "builtin:table8", "-o", str(out)]),
            main(["curves", "--model", model, "--factor", "stress", "--grid", "1:5:9",
                  "--fixed", "available_time=0.1", "-o", str(out)]),
            main([*README_SIMULATE, "--n", "200", "--seed", "9", "-o", str(out)]),
        ]
        artifacts = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs.append((codes, artifacts, capsys.readouterr()))
    assert runs[0][0] == [0] * 6
    assert len(runs[0][1]) == 12
    assert runs[0] == runs[1]


AT = ["--at", "available_time=0.1,stress=5"]
PARSE_CASES = {
    "pca": ["pca", "--input", "builtin:table3", "--threshold", "0.65"],
    "fit": ["fit", "--input", "builtin:table3", "--factors", "available_time,stress"],
    "predict": ["predict", "--model", "model.json", *AT, "--percentile", "0.9"],
    "validate": ["validate", "--model", "model.json", "--holdout", "builtin:table8"],
    "curves": ["curves", "--model", "model.json", "--factor", "stress", "--grid", "1:5:9",
               "--fixed", "available_time=0.1"],
    "simulate": [*README_SIMULATE, "--n", "200", "--seed", "7"],
    "help": ["-h"],
    "predict-help": ["predict", "-h"],
    "no-arguments": [],
    "unknown-subcommand": ["nosuch"],
    "subcommand-prefix": ["pred", "--model", "model.json", *AT],
    "option-before-subcommand": ["--model", "model.json", "predict", *AT],
    "missing-required-option": ["fit", "--input", "builtin:table3"],
    "missing-and-leftover": ["predict", "--bogus"],
    "abbreviated-option": ["predict", "--mod", "model.json", "--a", "available_time=0.1,stress=5"],
    "bad-option-value": ["pca", "--input", "builtin:table3", "--threshold", "abc"],
    "leftover-option": ["predict", "--model", "model.json", *AT, "--bogus"],
    "leftover-positional": ["pca", "--input", "builtin:table3", "extra"],
    "second-subcommand": ["pca", "--input", "builtin:table3", "fit"],
    "after-double-dash": ["pca", "--input", "builtin:table3", "--", "extra"],
    "help-and-leftover": ["predict", "-h", "--bogus"],
    "command-error": ["predict", "--model", "model.json", "--at", "stress=5"],
}


@pytest.mark.parametrize("argv", PARSE_CASES.values(), ids=PARSE_CASES)
def test_main_answers_as_the_top_level_parser(argv, capsys, monkeypatch):
    _fit_workshop(Path("."))
    capsys.readouterr()

    def run(out, use_sys_argv=False):
        monkeypatch.setenv("AHFT_OUTPUT_DIR", out)
        if use_sys_argv:
            monkeypatch.setattr("sys.argv", ["ahft", *argv])
        code = main() if use_sys_argv else main(list(argv))
        artifacts = {p.name: p.read_bytes() for p in sorted(Path(out).glob("*"))}
        return code, capsys.readouterr(), artifacts

    change = run("change")
    from_sys_argv = run("sys_argv", use_sys_argv=True)
    monkeypatch.setattr(cli, "_parse", lambda argv: cli._parsers()[0].parse_args(argv))
    reference = run("reference")
    assert change == reference
    assert from_sys_argv == reference


@pytest.mark.parametrize("name", ["pca", "fit", "predict", "validate", "curves", "simulate",
                                  "abbreviated-option"])
def test_parse_gives_the_top_level_namespace(name):
    argv = PARSE_CASES[name]
    assert cli._parse(argv) == cli._parsers()[0].parse_args(argv)


def test_parser_defaults_are_the_library_defaults():
    # The parser spells the defaults as literals, so building it imports no ahft module.
    commands = cli._parsers()[1]
    for name in ("fit", "predict"):
        assert commands[name].get_default("confidence") == alt.DEFAULT_CONFIDENCE, name
    for name in ("predict", "validate", "curves"):
        assert commands[name].get_default("percentile") == alt.DEFAULT_PERCENTILE, name


def test_readme_names_exactly_the_flags_the_parser_accepts():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    subparsers = cli._parsers()[0]._subparsers._group_actions[0].choices
    for name, sub in subparsers.items():
        accepted = {flag for action in sub._actions for flag in action.option_strings
                    if flag.startswith("--") and flag != "--help"}
        row = re.search(rf"^\| `{name}` .*$", section, re.MULTILINE)
        assert row is not None, name
        assert set(re.findall(r"--[a-z-]+", row.group())) == accepted, name


def test_output_dir_env_variable(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("AHFT_OUTPUT_DIR", str(env_dir))
    assert main(["pca", "--input", "builtin:table3"]) == 0
    assert (env_dir / "eigen.csv").exists()


def test_output_dir_flag_beats_env(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    flag_dir = tmp_path / "from_flag"
    monkeypatch.setenv("AHFT_OUTPUT_DIR", str(env_dir))
    assert main(["pca", "--input", "builtin:table3", "--output-dir", str(flag_dir)]) == 0
    assert (flag_dir / "eigen.csv").exists()
    assert not (env_dir / "eigen.csv").exists()


def test_input_file_is_not_mutated(tmp_path):
    source = tmp_path / "data.csv"
    source.write_text("x,fatigue\n1,0.1\n2,0.3\n3,0.5\n4,0.6\n5,0.45\n")
    before = hashlib.sha256(source.read_bytes()).hexdigest()
    assert main(["fit", "--input", str(source), "--factors", "x",
                 "--output-dir", str(tmp_path / "out")]) == 0
    assert hashlib.sha256(source.read_bytes()).hexdigest() == before


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["predict", "--model", "m.json"]) == 2  # missing --at
    assert main(["nonsense"]) == 2
    capsys.readouterr()


def test_bad_threshold_exits_two(tmp_path, capsys):
    rc = main(["pca", "--input", "builtin:table3", "--threshold", "1.5",
               "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "threshold" in capsys.readouterr().err


def test_unknown_builtin_and_missing_file_exit_two(tmp_path, capsys):
    assert main(["pca", "--input", "builtin:nope", "--output-dir", str(tmp_path)]) == 2
    assert main(["pca", "--input", str(tmp_path / "ghost.csv"),
                 "--output-dir", str(tmp_path)]) == 2
    capsys.readouterr()


def test_empty_holdout_exits_two(tmp_path, capsys):
    model_path = _fit_workshop(tmp_path)
    empty = tmp_path / "empty.csv"
    empty.write_text("x,fatigue\n")
    rc = main(["validate", "--model", str(model_path), "--holdout", str(empty),
               "--output-dir", str(tmp_path)])
    assert rc == 2
    capsys.readouterr()


def test_bad_fatigue_value_exits_two(tmp_path, capsys):
    source = tmp_path / "bad.csv"
    source.write_text("x,fatigue\n1,0.5\n2,1.2\n")
    rc = main(["pca", "--input", str(source), "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "row 2" in capsys.readouterr().err


def test_missing_predict_factor_exits_two(tmp_path, capsys):
    model_path = _fit_workshop(tmp_path)
    rc = main(["predict", "--model", str(model_path), "--at", "stress=5",
               "--output-dir", str(tmp_path)])
    assert rc == 2
    capsys.readouterr()


def test_exhausted_iteration_budget_exits_three(tmp_path, capsys):
    rc = main(["fit", "--input", "builtin:table3",
               "--factors", "available_time,stress", "--max-iterations", "2",
               "--output-dir", str(tmp_path)])
    assert rc == 3
    diagnostics = (tmp_path / "diagnostics.txt").read_text()
    assert "gradient_max_norm" in diagnostics
    message = diagnostics.splitlines()[0].removeprefix("fit did not converge: ")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_constant_factor_exits_four(tmp_path, capsys):
    source = tmp_path / "constant.csv"
    source.write_text(CONSTANT_FACTOR_CSV)
    rc = main(["fit", "--input", str(source), "--factors", "a,b",
               "--output-dir", str(tmp_path)])
    assert rc == 4
    assert "constant" in capsys.readouterr().err


# Collinear factors: table3 with their sum exited 2 on a zero standard
# error, 2,000 rows with it were fitted with huge standard errors and
# exit 0, and a doubled factor ran out of iterations with exit 3.
@pytest.mark.parametrize("table, factors, dependent", [
    ("table3", "available_time,stress,dup", "dup"),
    ("simulated", "f1,f2,dup", "dup"),
    ("simulated", "f1,twice", "twice"),
])
def test_collinear_factor_exits_four(tmp_path, capsys, table, factors, dependent):
    if table == "table3":
        data, first, second = builtin_table3(), "available_time", "stress"
    else:
        spec = _readme_spec(2000, 7)
        data, first, second = redraw_below_one(spec, generate_synthetic(spec)), "f1", "f2"
    columns = {c: data.column(c) for c in data.column_names}
    columns["dup"] = columns[first] + columns[second]
    columns["twice"] = 2.0 * columns[first]
    source = tmp_path / "collinear.csv"
    source.write_bytes(serialize(Dataset(data.column_names + ("dup", "twice"), columns)))
    rc = main(["fit", "--input", str(source), "--factors", factors,
               "--output-dir", str(tmp_path / "out")])
    assert rc == 4
    assert f"factor '{dependent}' is a linear combination" in capsys.readouterr().err
    assert not (tmp_path / "out" / "model.json").exists()


# Nearly collinear: near = f1 + f2 + noise on the README's 2,000 rows.  At
# noise 1e-6 the fit converges to coefficients near -6800 with SEs near 7400
# for f1 and f2; at 0.1 the estimates are usable and fit stays quiet.
@pytest.mark.parametrize("noise, warns", [(1e-6, True), (1e-2, True), (1e-1, False)])
def test_fit_warns_on_nearly_collinear_factors(tmp_path, capsys, noise, warns):
    spec = _readme_spec(2000, 7)
    data = redraw_below_one(spec, generate_synthetic(spec))
    columns = {c: data.column(c) for c in data.column_names}
    columns["near"] = (columns["f1"] + columns["f2"]
                       + noise * np.random.default_rng(1).standard_normal(data.n_rows))
    source = tmp_path / "near.csv"
    source.write_bytes(serialize(Dataset(data.column_names + ("near",), columns)))
    rc = main(["fit", "--input", str(source), "--factors", "f1,f2,near",
               "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    err = capsys.readouterr().err
    match = re.fullmatch(r"warning: the estimates' correlation matrix has condition number "
                         r"(\S+), above 1e\+06: .*\n", err)
    assert (match is not None) == warns, err
    if warns:
        assert float(match[1]) > 1e6
        assert json.loads((tmp_path / "out" / "model.json").read_text())["format_version"] == 1
