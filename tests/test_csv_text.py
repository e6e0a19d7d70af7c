"""CSV text in and out against the row-by-row references of ``oracles.py``.

Ingest: ``load_csv`` parses with numpy's tokenizer and falls back to the
csv module; on every input it must return a Dataset bit-identical to
``rowwise_load_csv`` or raise the same class with the same message.
Emission: the block templates of ``csv_blocks``, ``serialize`` and
``svg.line_chart`` must write the bytes of one string per row or point.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ahft import evaluate, load_csv, load_model, serialize, sweep_curve
from ahft.alt import DEFAULT_CONFIDENCE, coef_ci, positive_param_ci, wald_stats
from ahft.cli import main
from ahft.dataset import (
    CSV_BLOCK_CELLS,
    Dataset,
    _has_long_line,
    _tokenized_columns,
    csv_blocks,
)
from ahft.errors import InputError
from ahft.svg import line_chart
from oracles import rowwise_csv_lines, rowwise_line_chart, rowwise_load_csv, rowwise_serialize

LONG_CELL = " " * 131073 + "0.5"  # longer than csv.field_size_limit(); float takes it

PSF_HEADERS = ("x", "Stress", "duration_hours", "y z")
ODD_HEADERS = ('"x"', "", "X", "Fatigue")
FATIGUE_CELLS = ("0.5", "0.25", " 0.125", "0.75\t", "5e-324", "1e-320", "+0.1", "0.1\xa0", "9e-1")
PSF_CELLS = ("1", "2.5", "-0", "10", "1e16", "1E-5", " 3 ", ".5", "7.", "1e308")
DURATION_CELLS = ("1", "1.0", " 1 ", "1e0")
ODD_CELLS = ("", " ", "1_0", "١", "１", "nan", "NaN", "inf", "-inf", "1e999", "\x00",
             "0.5\x00", "abc", '"0.5"', '"1,5"', '"', "0.5\x1c", "\x1f0.5", "1e", "0x1", "0",
             "-1", "1.5", "8", LONG_CELL)
BLANK_ROWS = ("", "   ", ",,", ",", "\t")

INGEST = settings(max_examples=400, derandomize=True, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


def _outcome(load, text):
    """Column names and bit patterns of the Dataset, or the error class and message."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = load(text)
    except InputError as exc:
        return type(exc), str(exc)
    return data.column_names, {c: v.view(np.uint64).tolist() for c, v in data.columns.items()}


def _cells_for(name):
    return {"fatigue": FATIGUE_CELLS, "duration_hours": DURATION_CELLS}.get(name.lower(), PSF_CELLS)


@st.composite
def csv_texts(draw):
    """A header, mostly with ``fatigue``; rows of cells valid for their column,
    with odd cells, blank and ragged rows, a cell longer than the csv field
    limit, a lone ``\\r`` now and then; ``\\n`` or ``\\r\\n`` line ends."""
    header = draw(st.lists(st.sampled_from(PSF_HEADERS), max_size=3, unique=True))
    header += ["fatigue"] * draw(st.sampled_from((1, 1, 1, 1, 1, 0)))
    header += draw(st.sampled_from([[]] * 9 + [[h] for h in ODD_HEADERS]))
    header = draw(st.permutations(header))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("row",) * 8 + ("blank", "ragged")))
        if kind == "blank":
            lines.append(draw(st.sampled_from(BLANK_ROWS)))
            continue
        names = list(header)
        if kind == "ragged":
            names = names[:-1] if names and draw(st.booleans()) else names + ["x"]
        cells = [draw(st.sampled_from(_cells_for(n) if draw(st.integers(0, 11)) else ODD_CELLS))
                 for n in names]
        if cells and not draw(st.integers(0, 15)):
            cells[draw(st.integers(0, len(cells) - 1))] = LONG_CELL
        lines.append(",".join(cells))
    ends = [draw(st.sampled_from(("\n", "\n", "\r\n")))] * len(lines)
    if not draw(st.integers(0, 7)):
        ends[draw(st.integers(0, len(ends) - 1))] = "\r"
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


@INGEST
@given(text=csv_texts())
def test_load_csv_matches_rowwise_reference(text):
    assert _outcome(load_csv, text) == _outcome(rowwise_load_csv, text)


@pytest.mark.parametrize("text", [
    "x,fatigue\n1,0.5\n2,0.25\n",
    '"x",fatigue\n"1",0.5\n2,"0.25"\n',
    'x,fatigue\n"1,5",0.5\n',
    "x,fatigue\r\n1,0.5\r\n2,0.25\r\n",
    "x,fatigue\n1,0.5\r2,0.25\n",
    "x,fatigue\r1,0.5\n",
    "x,fatigue\n1,0.5\r\r\n",
    "x,fatigue\n1,0.5\n\n   \n,,\n\t\n2,0.25\n",
    "x,fatigue\n1_0,0.5\n",
    "x,fatigue\n١,0.5\n",
    "x,fatigue\n１,0.5\n",
    "x,fatigue\nnan,0.5\n",
    "x,fatigue\n1,nan\n",
    "x,fatigue\ninf,0.5\n",
    "x,fatigue\n1e999,0.5\n",
    "x,fatigue\n1\x00,0.5\n",
    "x\x00,fatigue\n1,0.5\n",
    "x,fatigue\n2\x1c,0.5\n",
    "x,fatigue\n\ud800,0.5\n",
    "x,fatigue\n1\xa0,0.5\n2\u2028,0.25\n",
    "x,fatigue\n1,0.5,3\n",
    "x,fatigue\n1\n",
    f"x,fatigue\n1,{LONG_CELL}\n",
    f"x,fatigue\n1,0.5\n{LONG_CELL},0.5\n",
    "x,fatigue\n",
    "x,fatigue",
    "fatigue\n0.5\n0.25\n",
    "fatigue\n0.5",
    "x,duration_hours,fatigue\n1,1,0.5\n2,8,0.25\n",
    "x,X,fatigue\n1,2,0.5\n",
    "x,y\n1,2\n",
    "",
    "\n",
    "\nx,fatigue\n1,0.5\n",
])
def test_load_csv_matches_rowwise_reference_on_listed_inputs(text):
    assert _outcome(load_csv, text) == _outcome(rowwise_load_csv, text)


@given(lines=st.lists(st.text("ab,\r", max_size=12), max_size=8), limit=st.integers(1, 10))
def test_has_long_line_matches_longest_split_line(lines, limit):
    text = "\n".join(lines)
    assert _has_long_line(text, limit) == (max(map(len, text.split("\n"))) > limit)


def test_tokenizer_takes_plain_files_and_leaves_the_rest_to_csv(table3):
    text = serialize(table3).decode()
    assert _tokenized_columns(text) is not None
    assert _tokenized_columns(text.replace("\n", "\r\n")) is not None
    for odd in ('"0.5"', "1_0", "١", "nan", "0.5\x1c", LONG_CELL):
        assert _tokenized_columns(text.replace("0.13", odd, 1)) is None


# ---------------------------------------------------------------------------
# Emission: the block templates against one string per row
# ---------------------------------------------------------------------------

VALUES = (-0.0, 1e16, 1e-5, 5e-324, 1e308, 3, -7, 0.1)


def _around_block(width):
    """Row counts one below, at and one above the rows of a block of ``width`` cells."""
    rows = CSV_BLOCK_CELLS // width
    return (rows - 1, rows, rows + 1)


def _cycle(n, offset=0):
    return [VALUES[(i + offset) % len(VALUES)] for i in range(n)]


@pytest.mark.parametrize("n", _around_block(4))
def test_csv_blocks_match_rowwise_lines(n):
    header = ("instance", "a", "b", "")
    columns = [range(n), _cycle(n), np.array(_cycle(n, 3), dtype=float),
               ["" if i % 3 else v for i, v in enumerate(_cycle(n, 5))]]
    rows = [header, *zip(range(n), _cycle(n), map(float, _cycle(n, 3)), columns[3])]
    assert "".join(csv_blocks(columns, header)) == rowwise_csv_lines(rows)
    assert "".join(csv_blocks(columns)) == rowwise_csv_lines(rows[1:])
    with pytest.raises(ValueError):
        list(csv_blocks([range(n), range(n - 1)]))


@pytest.mark.parametrize("n", _around_block(4))
def test_serialize_matches_rowwise(n):
    fatigue = [abs(v) or 0.5 for v in _cycle(n, 1)]
    data = Dataset(("x", "y", "fatigue"), {"x": _cycle(n), "y": _cycle(n, 2), "fatigue": fatigue})
    assert serialize(data) == rowwise_serialize(data)


@pytest.mark.parametrize("n", (1, 2, 4095, 4096, 4097))
def test_line_chart_matches_rowwise(n):
    points = list(zip(_cycle(n), _cycle(n, 4)))
    args = (points, "Fatigue vs x", "x", "fatigue")
    assert line_chart(*args) == rowwise_line_chart(*args)
    args = (list(zip(range(n), [0.25 * i for i in range(n)])), "t", "x", "y")
    assert line_chart(*args) == rowwise_line_chart(*args)


def test_cli_artifacts_match_rowwise(tmp_path, table3):
    out = tmp_path / "out"
    n = CSV_BLOCK_CELLS // 12 + 1  # one row past a block of validation.csv
    points = CSV_BLOCK_CELLS // 2 + 1  # and of curve_stress.csv
    holdout = Dataset(table3.column_names, {c: np.resize(v, n) for c, v in table3.columns.items()})
    source = tmp_path / "holdout.csv"
    source.write_bytes(serialize(holdout))
    assert main(["fit", "--input", "builtin:table3", "--factors", "available_time,stress",
                 "-o", str(out)]) == 0
    model = load_model(out / "model.json")
    argv = ["--model", str(out / "model.json"), "-o", str(out)]
    assert main(["validate", "--holdout", str(source), *argv]) == 0
    assert main(["curves", "--factor", "stress", "--grid", f"1:5:{points}",
                 "--fixed", "available_time=0.1", *argv]) == 0

    ses = model.standard_errors.tolist()
    rows = [["Predictor", "Coef", "StandardError", "Z", "P", "LowerCI", "UpperCI"]]
    for name, coef, se in zip(("Intercept", "available_time", "stress"), model.alpha.tolist(), ses):
        rows.append([name, coef, se, *wald_stats(coef, se), *coef_ci(coef, se, DEFAULT_CONFIDENCE)])
    se_shape = model.shape * ses[-1]
    rows.append(["Shape", float(model.shape), se_shape, "", "",
                 *positive_param_ci(model.shape, se_shape, DEFAULT_CONFIDENCE)])
    assert (out / "regression.csv").read_text() == rowwise_csv_lines(rows)

    report = evaluate(model, holdout, 0.5)
    psf = list(holdout.psf_names)
    rows = [["instance"] + psf + ["fatigue", "predicted_fatigue", "relative_error"]]
    rows += [[i, *cells, obs, pred, err] for (i, obs, pred, err), *cells
             in zip(report.rows, *(holdout.column(c).tolist() for c in psf))]
    rows += [["mean_relative_error", report.mean_relative_error],
             ["max_relative_error", report.max_relative_error]]
    assert (out / "validation.csv").read_text() == rowwise_csv_lines(rows)

    grid = [1.0 + i * (4.0 / (points - 1)) for i in range(points)]
    curve = sweep_curve(model, "stress", grid, {"available_time": 0.1})
    assert (out / "curve_stress.csv").read_text() == rowwise_csv_lines(
        [("stress", "fatigue"), *curve])
    assert (out / "curve_stress.svg").read_text() == rowwise_line_chart(
        curve, "Fatigue vs stress", "stress", "fatigue")
