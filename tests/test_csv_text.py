"""CSV and SVG text in and out against the row-by-row references of ``oracles.py``.

Ingest: ``load_csv`` parses with numpy's tokenizer and falls back to the
csv module; on every input it must return a Dataset bit-identical to
``rowwise_load_csv`` or raise the same class with the same message.
Emission: the block templates and byte frames of ``csv_blocks`` and
``serialize`` must write the bytes of one string per row, on both sides
of ``FLOAT_TEXT_MIN_ROWS``, and the float text kernel of ``_floattext``
must write ``repr`` of every double.  ``svg.line_chart`` must write the bytes
of one f-string per point, on both sides of ``FIXED_POINT_MIN_POINTS``,
or raise where that reference would write a coordinate that is not
finite; its fixed-point kernel must write ``'%.2f' % v`` for every double
v in [1, 1024).
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings, strategies as st

import ahft
from ahft import dataset as dataset_module, evaluate, load_csv, load_model, serialize, sweep_curve
from ahft._floattext import PASS, ROW_BYTES, SEPARATOR, _bounds, digit_rows, float_rows
from ahft.alt import DEFAULT_CONFIDENCE, coef_ci, positive_param_ci, wald_stats
from ahft.cli import main
from ahft.dataset import (
    CSV_BLOCK_CELLS,
    DISTINCT_PROBE_ROWS,
    FLOAT_TEXT_MIN_ROWS,
    Dataset,
    _frame_slots,
    _has_long_line,
    _hash_index,
    _pools,
    _tokenized_columns,
    csv_blocks,
)
from ahft.errors import InputError
from ahft.svg import FIXED_POINT_MIN_POINTS, _fixed_point_path, line_chart
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
    "x,,fatigue\n1,2,0.5\n",
    "é,fatigue\n1,0.5\n",
    '"温度",fatigue\n1,0.5\n',
    "x,X,!,fatigue\n1,2,3,0.5\n",
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


def _first_difference(got, expected):
    """None for equal texts, else the first differing line of each and its number.

    Keeps a failure report short: a plain ``==`` on texts of thousands of
    rows makes pytest diff them whole, which takes minutes.
    """
    if got == expected:
        return None
    got, expected = got.splitlines(), expected.splitlines()
    i = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
             min(len(got), len(expected)))
    return i, got[i:i + 1], expected[i:i + 1]


def _text(blocks):
    """The text of ``csv_blocks`` output, each of whose blocks must be bytes."""
    blocks = list(blocks)
    assert all(isinstance(block, (bytes, bytearray)) for block in blocks), blocks[:1]
    return b"".join(blocks).decode("utf-8")


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
    assert _first_difference(_text(csv_blocks(columns, header)), rowwise_csv_lines(rows)) is None
    assert _first_difference(_text(csv_blocks(columns)), rowwise_csv_lines(rows[1:])) is None
    with pytest.raises(ValueError):
        list(csv_blocks([range(n), range(n - 1)]))


@pytest.mark.parametrize("n", _around_block(4))
def test_serialize_matches_rowwise(n):
    fatigue = [abs(v) or 0.5 for v in _cycle(n, 1)]
    data = Dataset(("x", "y", "fatigue"), {"x": _cycle(n), "y": _cycle(n, 2), "fatigue": fatigue})
    assert _first_difference(serialize(data).decode(), rowwise_serialize(data).decode()) is None


# Distinct-value text: float columns of the byte frames with few bit
# patterns are formatted once per pattern; the template formats every
# cell.  Pools mix the values whose repr a wrong key would change (0.0 and
# -0.0 compare equal) with the extremes of repr.
POOL_VALUES = (0.0, -0.0, 5e-324, 1e16, 1e-5, 1e308, -1e308, 0.5, 3.0, 0.1)
# No shrink or explain phase: a failure is reported as first found, since
# shrinking examples of 500 to 16 000 rows took minutes and hundreds of MB.
EMIT = settings(max_examples=60, derandomize=True, deadline=None, database=None,
                phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


def _lengths(width):
    """Row counts around the distinct-value probe, the frames' threshold and a
    block of ``width`` cells: pooled columns on both sides of the frames."""
    return (DISTINCT_PROBE_ROWS - 1, DISTINCT_PROBE_ROWS, DISTINCT_PROBE_ROWS + 1,
            FLOAT_TEXT_MIN_ROWS - 1, FLOAT_TEXT_MIN_ROWS, *_around_block(width))


@st.composite
def pooled_arrays(draw, n):
    """A float array of ``n`` rows: pooled, distinct, or a pooled prefix
    before a distinct tail, or the reverse."""
    value = st.sampled_from(POOL_VALUES) | st.floats(allow_nan=False, allow_infinity=False)
    pool = draw(st.lists(value, min_size=1, max_size=6))
    pool = np.array(pool + draw(st.sampled_from(([], [0.0, -0.0]))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pooled = pool[rng.integers(0, len(pool), n)]
    distinct = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    cut = draw(st.integers(0, n))
    kind = draw(st.sampled_from(("pooled", "pooled", "distinct", "pooled-first", "distinct-first")))
    if kind == "pooled":
        return pooled
    if kind == "distinct":
        return distinct
    head, tail = (pooled, distinct) if kind == "pooled-first" else (distinct, pooled)
    return np.concatenate([head[:cut], tail[cut:]])


@st.composite
def mixed_columns(draw):
    """Equally long arrays, ranges, lists and str columns, 1 to 5 of them."""
    width = draw(st.integers(1, 5))
    n = draw(st.sampled_from(_lengths(width)))
    columns = []
    for _ in range(width):
        kind = draw(st.sampled_from(("array", "array", "array", "range", "list", "str")))
        array = draw(pooled_arrays(n))
        columns.append({"array": array, "range": range(n), "list": array.tolist(),
                        "str": ["" if v < 0 else "1.0" for v in array.tolist()]}[kind])
    return columns


@EMIT
@given(columns=mixed_columns())
def test_csv_blocks_with_pooled_columns_match_rowwise_lines(columns):
    rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
    assert _first_difference(_text(csv_blocks(columns)), rowwise_csv_lines(rows)) is None


@EMIT
@given(data=st.data(), width=st.integers(1, 4))
def test_serialize_with_pooled_columns_matches_rowwise(data, width):
    n = data.draw(st.sampled_from(_lengths(width + 2)))
    names = tuple(f"x{j}" for j in range(width))
    columns = {c: data.draw(pooled_arrays(n)) for c in names}
    fatigue = np.abs(data.draw(pooled_arrays(n)))
    columns["fatigue"] = np.where(fatigue > 0.0, fatigue, 0.5)
    dataset = Dataset(names + ("fatigue",), columns)
    got, expected = serialize(dataset), rowwise_serialize(dataset)
    assert _first_difference(got.decode(), expected.decode()) is None


@pytest.mark.parametrize("n", sorted(set(_lengths(1) + _lengths(3))))
def test_csv_blocks_keep_each_bit_pattern_of_a_pool_apart(n):
    pool = np.array([0.0, -0.0, 5e-324, 1e16, 1e-5, 1e308])
    column = pool[np.arange(n) % len(pool)]
    expected = rowwise_csv_lines([(v,) for v in column.tolist()])
    assert _first_difference(_text(csv_blocks([column])), expected) is None
    blocks = list(csv_blocks([range(n), column, column.tolist()]))
    expected = rowwise_csv_lines(zip(range(n), column.tolist(), column.tolist()))
    assert _first_difference(_text(blocks), expected) is None
    assert len(blocks) == -(-n // (CSV_BLOCK_CELLS // 3))
    with pytest.raises(ValueError):
        list(csv_blocks([range(n), column[:-1]]))


# Pool index: a float column whose probe passes is indexed by a hash on
# the probe's distinct keys, or by np.unique when the hash fails; either
# way ``_pools`` gives what np.unique of the bit patterns gives.
def _assert_pool_is_unique(column, hashed):
    """``_pools`` gives np.unique's keys and index for ``column``, by the hash
    if ``hashed`` else by np.unique, and csv_blocks the row-wise text."""
    bits = column.view(np.uint64)
    keys, index = np.unique(bits, return_inverse=True)
    probe_keys = np.unique(bits[:DISTINCT_PROBE_ROWS])
    assert (_hash_index(probe_keys, bits) is not None) == hashed
    [(values, got)] = _pools([column])
    assert np.array(values).view(np.uint64).tolist() == keys.tolist()
    assert got.tolist() == index.tolist()
    n = len(column)
    expected = rowwise_csv_lines(zip(range(n), column.tolist()))
    assert _first_difference(_text(csv_blocks([range(n), column])), expected) is None


def _beside(first, collides):
    """Whole doubles from 2, one for each flag of ``collides``: in the pool
    index's table for them and ``first``, a flagged one takes ``first``'s
    slot and any other a slot of its own."""
    shift = np.uint64(64 - (2 * (len(collides) + 1) ** 2 - 1).bit_length())
    candidates = np.arange(2.0, 20000.0)
    slots = ((candidates.view(np.uint64) * dataset_module._HASH_MULTIPLIER) >> shift).tolist()
    taken = [int((np.array(first).view(np.uint64) * dataset_module._HASH_MULTIPLIER) >> shift)]
    keys = []
    for collide in collides:
        i = next(i for i, slot in enumerate(slots)
                 if candidates[i] not in keys and (slot == taken[0] if collide else slot not in taken))
        keys.append(candidates[i])
        taken.append(slots[i])
    return keys


@pytest.mark.parametrize("n", (FLOAT_TEXT_MIN_ROWS, 2 * PASS + 1))
def test_pool_index_falls_back_for_a_value_after_the_probe(n):
    column = np.resize([0.5, 2.0, 5.0], n)
    column[DISTINCT_PROBE_ROWS + 7] = 0.25  # in no probe cell
    _assert_pool_is_unique(column, hashed=False)


# The index tries its one multiplier, and falls back to np.unique when
# any key shares 0.5's slot.
@pytest.mark.parametrize("n", (DISTINCT_PROBE_ROWS - 1, FLOAT_TEXT_MIN_ROWS, 2 * PASS + 1))
@pytest.mark.parametrize("collides", ((False, False, False), (True, False, False), (True, True, True)))
def test_pool_index_tries_each_multiplier_then_falls_back(n, collides):
    _assert_pool_is_unique(np.resize([*_beside(0.5, collides), 0.5], n), hashed=not any(collides))


@pytest.mark.parametrize("n", (DISTINCT_PROBE_ROWS, FLOAT_TEXT_MIN_ROWS, 2 * PASS + 1))
def test_pool_index_keeps_signed_zeros_and_nan_payloads_apart(n):
    nans = (np.array([0x7FF8000000000001, 0x7FF8000000000002, 0xFFF8000000000003],
                     dtype=np.uint64).view(np.float64))
    pool = np.concatenate([[0.0, -0.0, 1.5], nans])
    column = pool[np.arange(n) * 5 % len(pool)]
    _assert_pool_is_unique(column, hashed=True)
    assert len(_pools([column])[0][0]) == 6


@pytest.mark.parametrize("n", (2, 3, DISTINCT_PROBE_ROWS, FLOAT_TEXT_MIN_ROWS, 2 * PASS + 1))
def test_pool_index_of_a_one_key_column(n):
    _assert_pool_is_unique(np.ones(n), hashed=True)  # such as duration_hours
    assert _pools([np.ones(n)])[0][0] == [1.0]


# 128 keys, the most a pooled probe holds, put positions up to 127 in the
# hash table; 20000 rows is a cohort table.
@pytest.mark.parametrize("n", (DISTINCT_PROBE_ROWS, FLOAT_TEXT_MIN_ROWS, 2 * PASS + 1, 20000))
def test_pool_index_of_a_probe_with_half_its_cells_distinct(n):
    values = 1.0 + np.arange(DISTINCT_PROBE_ROWS // 2) * 0.37
    column = np.resize(values, n)
    _assert_pool_is_unique(column, hashed=True)
    # One key more, and the probe fails: the column is no pool.
    wider = np.resize(np.append(values, -1.0), n)
    assert _pools([column, wider])[1] is None


@pytest.mark.parametrize("n", (8, 17, 100, DISTINCT_PROBE_ROWS - 1))
def test_pool_index_of_columns_shorter_than_the_probe(n):
    _assert_pool_is_unique(np.resize([10.0, 1.0, 0.1, 0.01], n), hashed=True)
    pools = _pools([np.resize([5.0, 2.0], n), np.arange(n) / 3.0])
    assert pools[0][0] == [2.0, 5.0] and pools[1] is None


@EMIT
@given(data=st.data(), n=st.sampled_from(_lengths(2)))
def test_pools_equal_np_unique(data, n):
    columns = [data.draw(pooled_arrays(n)) for _ in range(3)]
    for column, pool in zip(columns, _pools(columns)):
        keys, index = np.unique(column.view(np.uint64), return_inverse=True)
        probe = len(np.unique(column[:DISTINCT_PROBE_ROWS].view(np.uint64)))
        if 2 * probe > min(n, DISTINCT_PROBE_ROWS) or 2 * len(keys) > n:
            assert pool is None
        else:
            assert np.array(pool[0]).view(np.uint64).tolist() == keys.tolist()
            assert pool[1].tolist() == index.tolist()


# Float text kernel: ``_floattext.float_rows`` must write ``repr`` of every
# double, by Ryū's digits on the array or by ``repr`` for the rows it leaves
# out, in rows NUL from byte SEPARATOR on.
def _float_texts(values):
    """The text of each row of ``float_rows(values)``, its NUL bytes dropped."""
    rows = float_rows(np.asarray(values, dtype=np.float64))
    assert rows.shape == (len(values), ROW_BYTES) and not rows[:, SEPARATOR:].any()
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in rows]


def _reprs_mismatch(values):
    """None when ``float_rows(values)`` holds ``repr`` of each value, else the
    first value it misformats with both texts, kept short for the failure report."""
    values = np.asarray(values, dtype=np.float64)
    got, expected = _float_texts(values), [repr(v) for v in values.tolist()]
    if got == expected:
        return None
    return next(((v, a, b) for v, a, b in zip(values.tolist(), got, expected) if a != b),
                (len(got), len(expected)))


def _doubles(exponents, significands, sign):
    return ((np.asarray(exponents, dtype=np.uint64) << np.uint64(52)) | significands
            | np.uint64(sign << 63)).view(np.float64)


@pytest.mark.parametrize("sign", (0, 1))
def test_float_text_at_every_exponent(sign):
    # Zero significands are the powers of two, whose rounding interval is
    # asymmetric; exponent 0 holds the subnormals, 2047 inf and nan.
    exponents = np.arange(1, 2047)
    rng = np.random.default_rng(12)
    for significands in (*rng.integers(1, 2**52, (8, len(exponents)), dtype=np.uint64),
                         np.zeros(len(exponents), dtype=np.uint64),
                         np.full(len(exponents), 2**52 - 1, dtype=np.uint64)):
        assert _reprs_mismatch(_doubles(exponents, significands, sign)) is None


def test_float_text_bounds_carry_across_every_word():
    # (p + e) >> 120 and (p - e) >> 120 on 64-bit words: a carry out of the
    # low word reaches bit 120 for about one double in 2**56, so words are set
    # here to make every carry and borrow happen.
    ones = 2**64 - 1
    words = np.array([0, 1, 2**56 - 1, 2**56, 2**63, ones - 1, ones, 0x9E3779B97F4A7C15],
                     dtype=np.uint64)
    high = np.array([1, 2**53 + 3, 2**54 - 1], dtype=np.uint64)
    grid = np.array(np.meshgrid(words, words, words, words, high)).reshape(5, -1)
    p0, p1, e_lo, e_hi, p2 = grid
    got = np.array(_bounds(p0, p1, p2, e_lo, e_hi)).T.tolist()
    expected = []
    for w0, w1, f0, f1, w2 in grid.T.tolist():
        p, e = w0 | w1 << 64 | w2 << 128, f0 | f1 << 64
        expected.append([p >> 120, (p + e) >> 120, (p - e) >> 120])
    assert got == expected


def _with_neighbours(values):
    values = np.array(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        values = np.concatenate([values, np.nextafter(values, -np.inf),
                                 np.nextafter(values, np.inf)])
    return np.concatenate([values, -values])


def test_float_text_at_zeros_extremes_and_layout_switches():
    # 2**53 bounds the array path; 1e-4 and 1e16 bound repr's fixed notation.
    values = _with_neighbours([0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                               1e23, 2.0 ** 53, 1e-4, 1e-5, 9999999999999998.0, 1e16])
    assert _reprs_mismatch(values) is None
    assert _float_texts(values[:10]) == [
        "0.0", "5e-324", "2.2250738585072014e-308", "1.7976931348623157e+308", "1e+23",
        "9007199254740992.0", "0.0001", "1e-05", "9999999999999998.0", "1e+16"]


@pytest.mark.parametrize("digits", range(1, 18))
def test_float_text_of_shortest_forms(digits):
    # digits-digit decimals from 1e-30 to 1e23 cross every layout of repr.
    rng = np.random.default_rng(digits)
    mantissas = rng.integers(10 ** (digits - 1), 10 ** digits, 2000, dtype=np.int64)
    exponents = rng.integers(-30 - digits, 24 - digits, 2000)
    values = [float(f"{m}e{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())]
    assert _reprs_mismatch(values) is None


def _compact_mismatch(values):
    """None when each row of ``float_rows(values)`` holds ``repr`` of its value
    from byte 0 and NUL from the text's end on, else the first value whose row
    does not, with the row."""
    values = np.asarray(values, dtype=np.float64)
    rows = float_rows(values)
    assert rows.shape == (len(values), ROW_BYTES) and rows.dtype == np.uint8
    for value, row in zip(values.tolist(), rows):
        text = repr(value).encode("ascii")
        if row[:len(text)].tobytes() != text or row[len(text):].any():
            return value, row.tobytes()
    return None


def _longest_texts(n, seed):
    """``n`` doubles whose ``repr`` takes 24 characters: negative, 17
    significant digits and a three-digit exponent, such as
    -1.2345678901234567e-100."""
    rng = np.random.default_rng(seed)
    values = []
    while len(values) < n:
        mantissa = int(rng.integers(10 ** 16, 10 ** 17, dtype=np.int64))
        value = float(f"-{mantissa}e{int(rng.integers(-307, -99)) - 16}")
        if len(repr(value)) == 24:
            values.append(value)
    return np.array(values)


def test_float_rows_write_each_text_from_byte_zero():
    values = np.concatenate([
        _longest_texts(200, 1), [-2.2250738585072014e-308, -1.2345678901234567e-100],
        np.random.default_rng(2).random(500), _doubles(np.arange(1, 2047), 12345, 1), REPR_ONLY])
    assert _compact_mismatch(values) is None
    assert SEPARATOR == max(len(repr(v)) for v in values.tolist()) == 24


def test_float_rows_at_the_layout_switches():
    # One significant digit from 1e-8 to 9e8 crosses every switch of repr's
    # layout: "0.0001" and "0.001", then "1e-05" with no point, then
    # "1.5e-05"; with their neighbours, which take 16 or 17 digits.
    single = [d * 10.0 ** k for d in range(1, 10) for k in range(-8, 9)]
    two = [float(f"{d}.5e{k}") for d in range(1, 10) for k in range(-8, 9)]
    assert _compact_mismatch(_with_neighbours(single + two + [1e-4, 9.999e-05, 0.00015])) is None
    assert _compact_mismatch(_with_neighbours(REPR_ONLY[:8]).tolist() + list(REPR_ONLY)) is None
    assert [t.rstrip(b"\0") for t in float_rows(np.array([1e-4, 1e-05, 1.5e-05, 0.00015]))
            .view(f"S{ROW_BYTES}").ravel()] == [b"0.0001", b"1e-05", b"1.5e-05", b"0.00015"]


def _span(width):
    """Rows of a frame block of ``width`` cells a row: the fewest whole
    kernel passes that hold a block of the template route."""
    step = max(1, CSV_BLOCK_CELLS // width)
    return PASS * -(-step // PASS)


def _around_frame_block(width):
    """Row counts one below, at and one above the first block boundary of a
    table of ``width`` cells a row that the frames take."""
    span = _span(width)
    return (span - 1, span, span + 1)


def _kernel_lengths(width):
    """Row counts around the kernel's threshold and the first frame block
    of ``width`` cells a row."""
    return (FLOAT_TEXT_MIN_ROWS - 1, FLOAT_TEXT_MIN_ROWS, *_around_frame_block(width))


@st.composite
def distinct_arrays(draw, n):
    """A float array of ``n`` rows, nearly all distinct: fatigue-like draws,
    decimals of 1 to 17 digits, raw bit patterns, or a mix of them with the
    values the kernel leaves to ``repr`` (zeros, subnormals, short dyadics,
    values from 2**53 up)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unit = rng.random(n)
    digits = rng.integers(1, 18, n)
    decimal = (rng.integers(1, 10 ** 17, n, dtype=np.int64) // 10 ** (17 - digits)
               * 10.0 ** rng.integers(-25, 5, n).astype(float))
    bits = rng.integers(0, 0x7FF0000000000000, n, dtype=np.uint64).view(np.float64)  # finite
    odd = rng.choice([0.0, -0.0, 5e-324, 1e-310, 0.5, 3.0, 2.0 ** 53, 1e17, 1e300], n)
    mixed = np.choose(rng.integers(0, 4, n), [unit, decimal, bits, odd])
    kind = draw(st.sampled_from(("unit", "decimal", "bits", "mixed")))
    array = {"unit": unit, "decimal": decimal, "bits": bits, "mixed": mixed}[kind]
    return np.where(rng.random(n) < 0.3, -array, array)


@st.composite
def kernel_tables(draw, width, fixed=0, others=("pooled", "range")):
    """``width`` columns: one to four distinct float arrays, the others pooled
    float arrays or ranges, in any order; as many rows as ``_kernel_lengths``
    gives for a table of ``width + fixed`` cells a row."""
    floats = draw(st.integers(1, min(width, 4)))
    kinds = draw(st.permutations(
        ["distinct"] * floats + [draw(st.sampled_from(others)) for _ in range(width - floats)]))
    n = draw(st.sampled_from(_kernel_lengths(width + fixed)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.array(draw(st.lists(st.sampled_from(POOL_VALUES), min_size=1, max_size=6)))
    return [range(n) if kind == "range" else
            draw(distinct_arrays(n)) if kind == "distinct" else pool[rng.integers(0, len(pool), n)]
            for kind in kinds]


@EMIT
@given(data=st.data(), width=st.sampled_from((1, 2, 3, 4, 17, 33)))
def test_csv_blocks_with_kernel_columns_match_rowwise_lines(data, width):
    columns = data.draw(kernel_tables(width))
    rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
    assert _first_difference(_text(csv_blocks(columns)), rowwise_csv_lines(rows)) is None


@EMIT
@given(data=st.data(), width=st.sampled_from((1, 2, 3, 16)))
def test_serialize_with_kernel_columns_matches_rowwise(data, width):
    *psfs, fatigue = data.draw(kernel_tables(width + 1, fixed=1, others=("pooled",)))
    names = tuple(f"x{j}" for j in range(width))
    columns = dict(zip(names, psfs))
    fatigue = np.abs(fatigue)
    columns["fatigue"] = np.where((fatigue > 0.0) & (fatigue < np.inf), fatigue, 0.5)
    dataset = Dataset(names + ("fatigue",), columns)
    got, expected = serialize(dataset), rowwise_serialize(dataset)
    assert _first_difference(got.decode(), expected.decode()) is None


# Byte frames: a table of float arrays and ranges of at least
# FLOAT_TEXT_MIN_ROWS rows is laid out block by block in NUL-padded slots.
REPR_ONLY = (0.0, -0.0, 5e-324, 0.5, 3.0, 2.0 ** 53, 1e16, 1e-5, float("nan"), float("inf"),
             float("-inf"), 1e-100, -1.7976931348623157e308)


def _rows_of(columns):
    return list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))


def _assert_frames_match_rowwise(columns, framed=True):
    blocks = list(csv_blocks(columns))
    assert _first_difference(_text(blocks), rowwise_csv_lines(_rows_of(columns))) is None
    rows = _span(len(columns)) if framed else max(1, CSV_BLOCK_CELLS // len(columns))
    assert len(blocks) == -(-len(columns[0]) // rows)


@st.composite
def frame_tables(draw, width):
    """``width`` pooled, distinct or range columns, the pools and the
    distinct arrays sprinkled with the values the kernel leaves to repr,
    the ranges counting up or down across a change of digit count."""
    n = draw(st.sampled_from(_around_frame_block(width)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(width):
        kind = draw(st.sampled_from(("pooled", "pooled", "distinct", "range")))
        if kind == "range":
            first = draw(st.sampled_from((0, 10000 - n // 2, 10 ** 16 - n)))
            column = range(first, first + n)
            columns.append(column[::-1] if draw(st.booleans()) else column)
            continue
        odd = np.array(draw(st.lists(st.sampled_from(REPR_ONLY), min_size=1, max_size=4)))
        if kind == "pooled":
            pool = np.concatenate([odd, rng.choice(POOL_VALUES, draw(st.integers(0, 3)))])
            columns.append(pool[rng.integers(0, len(pool), n)])
        else:
            column = draw(distinct_arrays(n))
            spots = rng.random(n) < draw(st.sampled_from((0.001, 0.05, 0.5)))
            columns.append(np.where(spots, odd[rng.integers(0, len(odd), n)], column))
    return columns


@EMIT
@given(data=st.data(), width=st.sampled_from((1, 2, 6, 61)))
def test_csv_blocks_frames_match_rowwise_lines(data, width):
    _assert_frames_match_rowwise(data.draw(frame_tables(width)))


@pytest.mark.parametrize("width", (1, 2, 61))
def test_csv_blocks_frames_write_repr_only_values_in_every_slot(width):
    for n in _around_frame_block(width):
        odd = np.resize(np.array(REPR_ONLY), n)
        distinct = np.where(np.arange(n) % 7 == 3, odd, (np.arange(n) + 0.5) / 7.0)
        kinds = [odd, distinct, range(9990, 9990 + n), range(n)]
        _assert_frames_match_rowwise([kinds[j % 4] for j in range(width)])


@pytest.mark.parametrize("width", (1, 2, 3, 61))
def test_csv_blocks_frames_write_the_longest_texts_in_every_slot(width):
    # 24 characters fill a kernel slot up to its separator; here they fill
    # kernel and pooled slots at every position, past a block.
    n = _span(width) + 1
    longest = _longest_texts(n, width)
    kinds = [longest, longest[np.arange(n) % 3], range(n)]
    for first in range(3):
        _assert_frames_match_rowwise([kinds[(first + j) % 3] for j in range(width)])


def test_frame_width_is_the_sum_of_the_slot_widths(monkeypatch):
    # A pooled slot is as wide as its own longest entry and separator, a
    # kernel slot holds the 24 characters of the longest text and its
    # separator, a range slot its largest value's digits and separator.
    n = FLOAT_TEXT_MIN_ROWS
    columns = [range(7, 7 + n), np.resize([0.5, 10.0], n), np.arange(n) / 7.0,
               np.resize([-1.2345678901234567e-100, 1.0], n), np.resize([2.0], n), range(n)]
    slots = _frame_slots(columns)
    assert [width for width, _ in slots] == [4, 5, SEPARATOR + 1, 25, 4, 4]
    frame = np.zeros((n, sum(width for width, _ in slots)), dtype=np.uint8)
    offset = 0
    for width, write in slots:
        write(frame[:, offset:offset + width], 0, n)
        offset += width
    expected = rowwise_csv_lines(_rows_of(columns)).encode("ascii")
    assert frame.tobytes().replace(b"\0", b"") == expected
    # csv_blocks lays the rows out in one frame of that width.
    frames, frombuffer = [], np.frombuffer
    monkeypatch.setattr(np, "frombuffer", lambda buffer, **kw: frames.append(len(buffer))
                        or frombuffer(buffer, **kw))
    assert b"".join(csv_blocks(columns)) == expected
    assert frames == [n * sum(width for width, _ in slots)] == [n * 67]


def test_digit_rows_at_every_digit_count():
    values = np.array([0, 1, 9, 10, 99, 100, 9999, 10000, 123456789, 10 ** 15, 10 ** 16 - 1]
                      + [10 ** k + d for k in range(16) for d in (-1, 0, 1)], dtype=np.int64)
    values = values[values >= 0]
    texts = [row.tobytes().lstrip(b"\0").decode() for row in digit_rows(values)]
    assert texts == [str(v) for v in values.tolist()]


def test_tables_with_ranges_the_frames_do_not_take_match_rowwise_lines():
    # Negative ints and ints from 10**16 up are left to str by the template.
    n = FLOAT_TEXT_MIN_ROWS + 1
    for column in (range(-3, n - 3), range(10 ** 16 - 2, 10 ** 16 - 2 + n)):
        _assert_frames_match_rowwise([column, np.arange(n) / 3.0], framed=False)


# Short wide tables: the frames count the cells of float arrays and
# ranges, so a table of a few rows and many columns takes them too, a str
# column as a byte table.  A column with a negative cell goes through the
# kernel as magnitudes behind a sign byte.
SIGNED = (-0.0, -np.inf, np.copysign(np.nan, -1.0), np.nan, -5e-324, -1e-310, -2.0 ** -14,
          -1.2345678901234567e-100, -1e-5, -0.5, -3.0, -2.0 ** 53, -1.7976931348623157e308)


def _signed_columns(rows, width, seed):
    """``width`` float arrays of ``rows`` mostly distinct cells, about half
    negative, some below 2**-13, with the values of ``SIGNED`` spread over
    every column."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((width, rows)) * 10.0 ** rng.integers(-8, 3, (width, rows))
    flat = values.reshape(-1)
    flat[::7] = np.resize(SIGNED, len(flat[::7]))
    return list(values)


def _frames_taken(monkeypatch):
    """A list that gets one entry for each call of csv_blocks that takes the frames."""
    calls = []
    frame_blocks = dataset_module._frame_blocks
    monkeypatch.setattr(dataset_module, "_frame_blocks",
                        lambda *args: calls.append(len(args[0][0])) or frame_blocks(*args))
    return calls


@pytest.mark.parametrize("width", (1, 2, 7, 22, 23, 61))
def test_short_wide_tables_take_the_frames_from_the_cell_threshold(monkeypatch, width):
    framed = _frames_taken(monkeypatch)
    least = -(-FLOAT_TEXT_MIN_ROWS // width)  # the fewest rows at the threshold
    for rows in (least - 1, least):
        names = tuple(f"v{i}" for i in range(rows))
        columns = [names, *_signed_columns(rows, width, seed=rows)]
        header = ["name"] + [f"c{j}" for j in range(width)]
        expected = rowwise_csv_lines([header, *_rows_of(columns)])
        assert _first_difference(_text(csv_blocks(columns, header)), expected) is None
    assert framed == [least]


def test_str_columns_take_a_byte_table_and_the_rest_the_template(monkeypatch):
    framed = _frames_taken(monkeypatch)
    n = FLOAT_TEXT_MIN_ROWS + 3
    floats = _signed_columns(n, 2, seed=1)
    words = ["", "a", "longer text, with a comma", '"quoted"', "1.0", " "]
    texts = [tuple(words[i % len(words)] for i in range(n)), ["1.0"] * n,
             [words[i % 3] for i in range(n)]]
    columns = [texts[0], floats[0], texts[1], range(n), texts[2], floats[1]]
    assert _first_difference(_text(csv_blocks(columns)),
                             rowwise_csv_lines(_rows_of(columns))) is None
    assert framed == [n]
    # Not ASCII, a NUL, or not all str: the template writes them.
    for odd in (["é"] * n, ["a\0"] * n, ["x"] * (n - 1) + [1.5], ("x",) * (n - 1) + (None,)):
        columns = [odd, floats[0]]
        assert _first_difference(_text(csv_blocks(columns)),
                                 rowwise_csv_lines(_rows_of(columns))) is None
    assert framed == [n]


@pytest.mark.parametrize("rows", (1, 9, 60, PASS - 1, PASS + 1))
def test_frames_write_signs_of_zeros_infinities_nans_and_tiny_negatives(monkeypatch, rows):
    framed = _frames_taken(monkeypatch)
    columns = _signed_columns(rows, -(-FLOAT_TEXT_MIN_ROWS // rows), seed=rows)
    columns += [np.resize(SIGNED, rows), -np.abs(columns[0]) * 2.0 ** -20, np.abs(columns[0])]
    # A run of kernel columns with no negative, then a pooled column, then a signed run.
    split = [np.abs(c) for c in columns[:2]] + [np.resize([0.5, 1.5], rows)] + columns[2:]
    for table in (columns, columns[::-1], split):
        expected = rowwise_csv_lines(_rows_of(table))
        assert _first_difference(_text(csv_blocks(table)), expected) is None
    assert framed == [rows, rows, rows]


def test_cli_import_and_short_columns_leave_the_kernel_unloaded():
    code = ("import sys, numpy, ahft.cli\n"
            "from ahft.dataset import FLOAT_TEXT_MIN_ROWS, csv_blocks\n"
            "short = numpy.arange((FLOAT_TEXT_MIN_ROWS - 1) // 2) / 7.0\n"
            "b''.join(csv_blocks([short, short]))\n"
            "print('ahft._floattext' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ahft.__file__).parent.parent))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (run.returncode, run.stdout, run.stderr) == (0, "False\n", "")


# What ``import ahft.cli`` leaves for the subcommands to import when they run.
CLI_DEFERRED = ("ahft.alt", "ahft.dataset", "ahft.pca", "ahft.svg", "ahft.validation",
                "ahft.fatigue", "ahft._floattext", "argparse", "json", "csv", "statistics",
                "_statistics", "dataclasses")


def test_cli_import_loads_numpy_and_none_of_the_subcommands_modules():
    code = ("import sys, ahft.cli\n"
            f"print([name for name in {CLI_DEFERRED!r} if name in sys.modules])\n"
            "print('numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ahft.__file__).parent.parent))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\nTrue\n", "")


def test_predict_process_loads_neither_pca_svg_validation_nor_the_kernel(tmp_path):
    assert main(["fit", "--input", "builtin:table3", "--factors", "available_time,stress",
                 "--output-dir", str(tmp_path)]) == 0
    # What ``python -m ahft.cli predict ...`` runs, then the package's loaded modules.
    code = ("import runpy, sys\n"
            "try:\n"
            "    runpy.run_module('ahft.cli', run_name='__main__', alter_sys=True)\n"
            "finally:\n"
            "    print(sorted(m for m in sys.modules if m.startswith('ahft.')))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ahft.__file__).parent.parent))
    run = subprocess.run([sys.executable, "-c", code, "predict", "--model", "model.json",
                          "--at", "available_time=0.1,stress=5", "-o", "predict"],
                         capture_output=True, text=True, env=env, cwd=tmp_path)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.startswith("predict: at available_time=0.1, stress=5")
    assert run.stdout.splitlines()[-1] == "['ahft.alt', 'ahft.dataset', 'ahft.errors']"


def test_pca_process_loads_neither_alt_nor_json_nor_statistics(tmp_path):
    # What ``python -m ahft.cli pca ...`` runs, then the package's and two stdlib modules.
    code = ("import runpy, sys\n"
            "try:\n"
            "    runpy.run_module('ahft.cli', run_name='__main__', alter_sys=True)\n"
            "finally:\n"
            "    print(sorted(m for m in sys.modules if m.startswith('ahft.')))\n"
            "    print([m for m in ('json', 'statistics') if m in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ahft.__file__).parent.parent))
    run = subprocess.run([sys.executable, "-c", code, "pca", "--input", "builtin:table3",
                          "-o", "pca"], capture_output=True, text=True, env=env, cwd=tmp_path)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.startswith("pca: 9 components; 3 retained")
    assert run.stdout.splitlines()[-2:] == [
        "['ahft.dataset', 'ahft.errors', 'ahft.pca', 'ahft.svg']", "[]"]


def _assert_chart_matches_rowwise(x, y, *labels):
    """``line_chart(x, y)`` is the reference's text, or raises where that text is not finite."""
    expected = rowwise_line_chart(list(zip(x, y)), *labels)
    if "inf" in expected or "nan" in expected:
        with pytest.raises(InputError, match="pixel coordinates are not finite"):
            line_chart(x, y, *labels)
    else:
        assert _first_difference(line_chart(x, y, *labels), expected) is None
        arrays = np.array(x, dtype=float), np.array(y, dtype=float)
        assert _first_difference(line_chart(*arrays, *labels), expected) is None


@pytest.mark.parametrize("n", (1, 2, FIXED_POINT_MIN_POINTS - 1, FIXED_POINT_MIN_POINTS,
                               FIXED_POINT_MIN_POINTS + 1, 4095, 4096, 4097))
def test_line_chart_matches_rowwise(n):
    # VALUES span more than 1e308, so their coordinates overflow from n = 2 on.
    _assert_chart_matches_rowwise(_cycle(n), _cycle(n, 4), "Fatigue vs x", "x", "fatigue")
    _assert_chart_matches_rowwise(list(range(n)), [0.25 * i for i in range(n)], "t", "x", "y")
    finite = [v for v in VALUES if abs(v) < 1e300]
    _assert_chart_matches_rowwise([finite[i % len(finite)] for i in range(n)],
                                  [0.1 * i * i - 3.0 * i for i in range(n)], "f", "x", "y")
    # Equal extremes: the first of them names the axis, "-0" or "0".
    for zeros in ((-0.0, 0.0), (0.0, -0.0)):
        ties = [zeros[i % 2] if i % 3 else zeros[0] for i in range(n)]
        _assert_chart_matches_rowwise(ties, ties, "z", "x", "y")
        _assert_chart_matches_rowwise(ties, [-v for v in ties], "z", "x", "y")
        _assert_chart_matches_rowwise([v + 1.0 if i % 5 == 4 else v for i, v in enumerate(ties)],
                                      [-v - 1.0 if i % 7 == 6 else -v for i, v in enumerate(ties)],
                                      "z", "x", "y")


def test_line_chart_names_the_axis_it_cannot_scale():
    with pytest.raises(InputError, match=r"cannot chart stress over \[-7\.0, 1e\+308\]"):
        line_chart([-7.0, 1e308], [0.5, 0.25], "t", "stress", "fatigue")
    with pytest.raises(InputError, match=r"cannot chart fatigue over \[0\.5, inf\]"):
        line_chart([1.0, 2.0], [0.5, float("inf")], "t", "stress", "fatigue")
    with pytest.raises(InputError, match="cannot chart fatigue over"):
        line_chart([1.0, 2.0, 3.0], [0.5, float("nan"), 0.5], "t", "stress", "fatigue")
    with pytest.raises(InputError, match="empty point list"):
        line_chart([], [], "t", "stress", "fatigue")
    with pytest.raises(InputError, match="2 x values against 3 y values"):
        line_chart([1.0, 2.0], [1.0, 2.0, 3.0], "t", "stress", "fatigue")


def _kernel_mismatch(values):
    """None when ``_fixed_point_path`` writes the ``%.2f`` polyline of ``values``.

    Else the first value it misformats with both texts, kept short so
    that pytest does not diff whole polylines.
    """
    values = list(values) + [1.0] * (len(values) % 2)
    got = _fixed_point_path(np.array(values))
    expected = " ".join(["%.2f,%.2f"] * (len(values) // 2)) % tuple(values)
    if got == expected:
        return None
    cells = got.replace(",", " ").split(" ")
    return next(((v, text, "%.2f" % v) for v, text in zip(values, cells) if text != "%.2f" % v),
                (got[:80], expected[:80]))


def test_fixed_point_kernel_at_every_tie_and_its_neighbours():
    # '%.2f' ties on a double are exactly the odd multiples of 1/8.
    ties = np.arange(8, 8 * 1024) / 8.0
    values = np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, 2048.0)])
    values = values[(values >= 1.0) & (values < 1024.0)]
    assert _kernel_mismatch(values.tolist()) is None
    assert len(values) == 3 * len(ties) - 1  # only 1024's upper neighbour falls outside
    bounds = np.array([28.0, 56.0, 344.0, 612.0, 334.0, 186.0, 1.0, 1023.995])
    assert _kernel_mismatch(np.concatenate(
        [bounds, np.nextafter(bounds, 0.0), np.nextafter(bounds, 2048.0)]).tolist()) is None


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.lists(st.floats(1.0, 1024.0, exclude_max=True), min_size=1, max_size=64))
@example([np.nextafter(1024.0, 0.0), 1.0, 9.995, 99.995, 999.995, 1023.995])
def test_fixed_point_kernel_matches_percent_format(values):
    assert _kernel_mismatch(values) is None


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
    assert _first_difference((out / "regression.csv").read_text(), rowwise_csv_lines(rows)) is None

    report = evaluate(model, holdout, 0.5)
    psf = list(holdout.psf_names)
    rows = [["instance"] + psf + ["fatigue", "predicted_fatigue", "relative_error"]]
    rows += [[i, *cells, obs, pred, err] for (i, obs, pred, err), *cells
             in zip(report.rows, *(holdout.column(c).tolist() for c in psf))]
    rows += [["mean_relative_error", report.mean_relative_error],
             ["max_relative_error", report.max_relative_error]]
    assert _first_difference((out / "validation.csv").read_text(), rowwise_csv_lines(rows)) is None

    assert points >= FIXED_POINT_MIN_POINTS  # so the chart takes the fixed-point kernel
    grid = [1.0 + i * (4.0 / (points - 1)) for i in range(points)]
    curve = list(zip(grid, sweep_curve(model, "stress", grid, {"available_time": 0.1}).tolist()))
    assert _first_difference((out / "curve_stress.csv").read_text(),
                             rowwise_csv_lines([("stress", "fatigue"), *curve])) is None
    assert _first_difference((out / "curve_stress.svg").read_text(), rowwise_line_chart(
        curve, "Fatigue vs stress", "stress", "fatigue")) is None
