"""Dataset ingestion, validation, standardization, and the artifact writer."""

import io
import os
import stat

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from ahft import (
    Dataset,
    builtin_table3,
    builtin_table8,
    correlation_matrix,
    load_csv,
    normalize_name,
    run_pca,
    serialize,
    standardize,
)
from ahft.dataset import write_artifact
from ahft.errors import (
    EmptyDataset,
    FatigueOutOfRange,
    InputError,
    MissingColumn,
    NonNumericCell,
    TooFewRows,
    ZeroVarianceColumn,
)


def _dataset(**cols):
    """Build a dataset from parallel value lists; fatigue defaults to 0.5."""
    names = tuple(n for n in cols if n != "fatigue") + ("fatigue",)
    n = len(next(iter(cols.values())))
    return Dataset(names, {"fatigue": [0.5] * n, **cols})


# ---------------------------------------------------------------------------
# Name normalization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "raw, expected",
    [
        ("Available Time", "available_time"),
        ("  Fitness   For Duty ", "fitness_for_duty"),
        ("fatigue", "fatigue"),
        ("Work-Process", "work_process"),
    ],
)
def test_normalize_name(raw, expected):
    assert normalize_name(raw) == expected


# ---------------------------------------------------------------------------
# Built-in datasets
# ---------------------------------------------------------------------------

def test_builtin_workshop_shape(table3):
    assert table3.n_rows == 15
    assert table3.column_names == (
        "available_time", "stress", "complexity", "experience_and_training",
        "procedures", "ergonomics", "fitness_for_duty", "work_process", "fatigue",
    )


def test_builtin_workshop_values(table3):
    fatigue = table3.column("fatigue").tolist()
    assert fatigue[0] == 0.130
    # The last two instances share every PSF level but report different fatigue.
    psf = np.column_stack([table3.column(c) for c in table3.psf_names])
    assert psf[-2].tolist() == psf[-1].tolist()
    assert (fatigue[-2], fatigue[-1]) == (0.126, 0.134)


def test_builtin_holdout(table8):
    assert table8.n_rows == 5
    assert table8.psf_names == table8.column_names[:-1]
    assert_allclose(table8.column("fatigue"), [0.195, 0.062, 0.073, 0.162, 0.114])


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

GOOD_CSV = "Available Time,Stress,fatigue\n10,5,0.13\n1,2,0.2\n0.1,1,0.34\n"


def test_load_csv_from_text():
    data = load_csv(GOOD_CSV)
    assert data.column_names == ("available_time", "stress", "fatigue")
    assert data.n_rows == 3
    assert_allclose(data.column("stress"), [5.0, 2.0, 1.0])


def test_load_csv_from_bytes_and_file():
    assert load_csv(GOOD_CSV.encode()) == load_csv(io.BytesIO(GOOD_CSV.encode()))


def test_load_csv_skips_blank_lines():
    data = load_csv("x,fatigue\n1,0.1\n\n  ,  \n2,0.2\n")
    assert data.n_rows == 2


def test_load_csv_duration_column():
    with pytest.raises(InputError, match=r"^row 1: duration_hours must be 1 \(one-hour "
                                         r"readings only\), got 8.0$"):
        load_csv("x,duration_hours,fatigue\n1,8,0.1\n2,12,0.2\n")
    data = load_csv("x,duration_hours,fatigue\n1,1,0.1\n2,1.0,0.2\n")
    assert data == load_csv("x,fatigue\n1,0.1\n2,0.2\n")
    assert data.psf_names == ("x",)


def test_load_csv_empty_inputs():
    with pytest.raises(EmptyDataset):
        load_csv("")
    with pytest.raises(EmptyDataset):
        load_csv("x,fatigue\n")


def test_load_csv_missing_fatigue_column():
    with pytest.raises(MissingColumn):
        load_csv("x,y\n1,2\n")


def test_load_csv_fatigue_out_of_range_names_row():
    text = "x,fatigue\n1,0.5\n2,0.4\n3,1.2\n"
    with pytest.raises(FatigueOutOfRange, match="row 3"):
        load_csv(text)
    with pytest.raises(FatigueOutOfRange, match="row 1"):
        load_csv("x,fatigue\n1,0\n")


def test_load_csv_non_numeric_names_row_and_column():
    with pytest.raises(NonNumericCell, match="row 2, column 'stress'"):
        load_csv("stress,fatigue\n1,0.5\nhigh,0.4\n")
    with pytest.raises(NonNumericCell, match="not finite"):
        load_csv("stress,fatigue\ninf,0.5\n")


def test_load_csv_ragged_row_rejected():
    with pytest.raises(InputError, match="row 2"):
        load_csv("x,y,fatigue\n1,2,0.5\n1,0.4\n")


def test_load_csv_duplicate_columns_rejected():
    with pytest.raises(InputError, match="duplicate"):
        load_csv("x,X,fatigue\n1,2,0.5\n")


def test_serialize_round_trip(table3):
    again = load_csv(serialize(table3))
    assert again == table3
    # and the byte stream itself is a fixed point
    assert serialize(again) == serialize(table3)


def test_dataset_rejects_mapping_without_named_column():
    with pytest.raises(InputError, match="'y'"):
        Dataset(("x", "y", "fatigue"), {"x": [1.0], "fatigue": [0.5]})
    with pytest.raises(InputError, match="'fatigue'"):
        Dataset(("x", "fatigue"), {"x": [1.0]})


def test_dataset_rejects_a_column_name_that_is_not_a_string():
    with pytest.raises(InputError, match="must be a string, got 1$"):
        Dataset((1, "fatigue"), {1: [1.0, 2.0], "fatigue": [0.1, 0.2]})


def test_dataset_normalizes_column_names_and_round_trips_them():
    data = Dataset(("Stress", "a,b", "Fatigue"),
                   {"Stress": [1.0, 5.0], "a,b": [2.0, 3.0], "Fatigue": [0.2, 0.3]})
    assert data.column_names == ("stress", "a_b", "fatigue")
    assert data.column("Stress").tolist() == [1.0, 5.0]
    assert run_pca(data).column_names == ("stress", "a_b", "fatigue")
    assert load_csv(serialize(data)) == data
    with pytest.raises(InputError, match="duplicate column names after normalization"):
        Dataset(("x", "X", "fatigue"), {"x": [1.0], "X": [2.0], "fatigue": [0.5]})


def test_dataset_column_missing():
    data = _dataset(x=[1, 2, 3])
    with pytest.raises(MissingColumn):
        data.column("y")


# ---------------------------------------------------------------------------
# Standardization and correlation
# ---------------------------------------------------------------------------

def test_standardize_three_points():
    data = _dataset(x=[1, 2, 3])
    z = standardize(data, ["x"])
    assert z[:, 0].tolist() == [-1.0, 0.0, 1.0]


def test_standardize_zero_variance():
    data = _dataset(x=[2, 2, 2])
    with pytest.raises(ZeroVarianceColumn, match="'x'"):
        standardize(data, ["x"])


def test_standardize_too_few_rows():
    data = _dataset(x=[1])
    with pytest.raises(TooFewRows):
        standardize(data, ["x"])


def test_standardized_fatigue_column(table3):
    z = standardize(table3, table3.column_names)
    col = z[:, table3.column_names.index("fatigue")]
    assert abs(col.mean()) < 1e-12
    assert_allclose(col.std(ddof=1), 1.0, rtol=1e-12)
    # the most fatigued instance is the fifth
    assert int(np.argmax(col)) == 4


def test_correlation_identical_and_reversed_columns():
    data = _dataset(x=[1, 2, 3, 4], y=[1, 2, 3, 4], w=[4, 3, 2, 1])
    r = correlation_matrix(data, ["x", "y", "w"])
    assert r[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert r[0, 2] == pytest.approx(-1.0, abs=1e-12)
    assert np.all(np.diag(r) == 1.0)
    assert np.array_equal(r, r.T)


def test_correlation_matrix_is_psd(table3):
    r = correlation_matrix(table3, table3.column_names)
    assert np.linalg.eigvalsh(r).min() >= -1e-10
    assert np.all(np.abs(r) <= 1.0)


@given(
    scale=st.floats(min_value=0.1, max_value=100.0),
    shift=st.floats(min_value=-50.0, max_value=50.0),
)
def test_correlation_invariant_under_positive_affine_rescaling(scale, shift):
    base_x = [1.0, 2.4, 3.1, 0.5, 2.2]
    base_y = [2.0, 1.1, 0.4, 3.3, 1.9]
    plain = correlation_matrix(_dataset(x=base_x, y=base_y), ["x", "y"])
    moved = correlation_matrix(
        _dataset(x=[scale * v + shift for v in base_x], y=base_y), ["x", "y"]
    )
    assert_allclose(moved, plain, atol=1e-10)


# ---------------------------------------------------------------------------
# Artifact writer
# ---------------------------------------------------------------------------

# Blocks of either size: some stay in the write buffer, some go past it.
BLOCKS = ["h" * 10, b"1" * 20_000, "2" * 30_000, b"3" * 10]


def test_write_artifact_over_a_longer_file_leaves_no_old_tail(tmp_path):
    path = tmp_path / "a.csv"
    path.write_bytes(b"x" * 100_000)
    write_artifact(path, BLOCKS)
    written = b"".join(b if isinstance(b, bytes) else b.encode() for b in BLOCKS)
    assert path.read_bytes() == written
    write_artifact(path, written[::-1])
    assert path.read_bytes() == written[::-1]
    write_artifact(path, "short\n")
    assert path.read_bytes() == b"short\n"


def test_write_artifact_block_that_raises_leaves_only_earlier_blocks(tmp_path):
    path = tmp_path / "a.csv"
    path.write_bytes(b"x" * 100_000)

    def blocks():
        yield from BLOCKS[:3]
        raise RuntimeError("block failed")

    with pytest.raises(RuntimeError, match="block failed"):
        write_artifact(path, blocks())
    assert path.read_bytes() == b"h" * 10 + b"1" * 20_000 + b"2" * 30_000


def test_write_artifact_creates_missing_nested_directories(tmp_path):
    path = tmp_path / "one" / "two" / "three.txt"
    write_artifact(path, "text\n")
    assert path.read_bytes() == b"text\n"


@pytest.mark.parametrize("mask", [0o002, 0o022, 0o077])
def test_write_artifact_mode_matches_open_wb(tmp_path, mask):
    old = os.umask(mask)
    try:
        with open(tmp_path / "reference", "wb"):
            pass
        write_artifact(tmp_path / "written", b"")
    finally:
        os.umask(old)
    modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("reference", "written")]
    assert modes[0] == modes[1]


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_write_artifact_through_a_symlink_to_dev_null(tmp_path):
    link = tmp_path / "null.csv"
    link.symlink_to("/dev/null")
    write_artifact(link, ["x" * 100_000, b"y"])
    assert link.is_symlink()
    assert stat.S_ISCHR(os.stat("/dev/null").st_mode)
