"""Performance-shaping-factor (PSF) datasets and preprocessing.

The package works on small tabular datasets: one row per observed work
instance, one numeric column per PSF (the value is the factor's level
multiplier, e.g. stress "extreme" = 5) and a required ``fatigue``
response in (0, 1).  Every reading covers a one-hour exposure: an
optional ``duration_hours`` column is accepted only when every value is 1.
A :class:`Dataset` stores one float64 array per column; CSV ingestion
parses with numpy's C tokenizer and checks whole columns at once.  CSV
emission formats blocks of rows with one ``%s`` template, or, for long
tables of float arrays and ranges, lays each block out as one NUL-padded
byte frame, each column's slot as wide as its longest text.  Only the
frames pool: each distinct value of a few-valued float column is
formatted once, the other float columns by the array kernel of
``_floattext`` (positive doubles from 2**-13 up to 2**53; ``repr``
writes the rest).  Every artifact of the package goes to disk
through :func:`write_artifact`, which writes over an existing file
instead of truncating it first.

Two reference datasets from a lathing-workshop case study ship with the
package: :func:`builtin_table3` (15 fitting instances over 8 PSFs) and
:func:`builtin_table8` (5 hold-out instances used for validation).

Preprocessing follows the usual PCA pipeline: column standardization with
the sample (n-1) standard deviation, then the Pearson correlation matrix
Z'Z/(n-1) of the standardized columns.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
from collections import namedtuple
from functools import partial
from pathlib import Path

import numpy as np

from .errors import (
    EmptyDataset,
    FatigueOutOfRange,
    InputError,
    MissingColumn,
    NonNumericCell,
    TooFewRows,
    ZeroVarianceColumn,
)

FATIGUE = "fatigue"
DURATION = "duration_hours"


def normalize_name(name: str) -> str:
    """Normalize a column/factor name to lower_snake_case.

    Case-, space- and punctuation-insensitive, so CLI arguments like
    ``Available Time`` or ``available-time`` match the CSV header
    ``available_time``.
    """
    cleaned = re.sub(r"[^0-9a-zA-Z]+", "_", name.strip()).strip("_")
    return cleaned.lower()


# ---------------------------------------------------------------------------
# PSF catalog (reference data)
# ---------------------------------------------------------------------------

# The eight PSFs most commonly retained in human-reliability analysis,
# with SPAR-H-style level multipliers.  Reference data only: datasets
# carry already-encoded numeric values and are not remapped.
PsfLevels = namedtuple("PsfLevels", "name multipliers")
DEFAULT_CATALOG = namedtuple("PsfCatalog", "definitions")((
    # barely adequate, nominal, extra, expansive
    PsfLevels("available_time", (10.0, 1.0, 0.1, 0.01)),
    # extreme, high, nominal
    PsfLevels("stress", (5.0, 2.0, 1.0)),
    # highly complex, moderately complex, nominal
    PsfLevels("complexity", (5.0, 2.0, 1.0)),
    # low, nominal, high
    PsfLevels("experience_and_training", (3.0, 1.0, 0.5)),
    # not available, incomplete, available but poor, nominal, diagnostic oriented
    PsfLevels("procedures", (50.0, 20.0, 5.0, 1.0, 0.5)),
    # missing or misleading, poor, nominal, good
    PsfLevels("ergonomics", (50.0, 10.0, 1.0, 0.5)),
    # degraded fitness, nominal
    PsfLevels("fitness_for_duty", (5.0, 1.0)),
    # poor, nominal, good
    PsfLevels("work_process", (5.0, 1.0, 0.5)),
))


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

class Dataset:
    """An ordered table of one-hour readings sharing one PSF name set.

    ``Dataset(column_names, columns)`` takes a mapping from every PSF name
    and ``fatigue`` to equally long value sequences and stores one
    read-only float64 array per column.  PSF values must be finite and
    the response positive and finite (it acts as a lifetime; measured
    fatigue additionally lies in (0, 1), which CSV ingestion enforces,
    while synthetic lifetimes may exceed 1).  A violation raises for the
    first offending row, checking its PSFs in column order before its
    response.
    """

    __slots__ = ("column_names", "_columns")

    def __init__(self, column_names, columns):
        column_names = tuple(column_names)
        psf_names = tuple(c for c in column_names if c != FATIGUE)
        for name in psf_names + (FATIGUE,):
            if name not in columns:
                raise MissingColumn(f"no values given for column {name!r}")
        arrays = {c: np.array(columns[c], dtype=float) for c in psf_names}
        fatigue = arrays[FATIGUE] = np.array(columns[FATIGUE], dtype=float)
        if fatigue.ndim != 1 or any(a.shape != fatigue.shape for a in arrays.values()):
            raise InputError("dataset columns must be one-dimensional and of equal length")
        bad = ~((fatigue > 0.0) & np.isfinite(fatigue))
        for c in psf_names:
            bad |= ~np.isfinite(arrays[c])
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            for c in psf_names:
                if not math.isfinite(arrays[c][i]):
                    raise InputError(
                        f"row {i + 1}: PSF {c!r} value must be finite, got {float(arrays[c][i])!r}"
                    )
            raise FatigueOutOfRange(
                f"row {i + 1}: response must be positive and finite, got {float(fatigue[i])!r}"
            )
        for values in arrays.values():
            values.setflags(write=False)
        self.column_names = column_names
        self._columns = arrays

    @property
    def psf_names(self) -> tuple[str, ...]:
        return tuple(c for c in self.column_names if c != FATIGUE)

    @property
    def n_rows(self) -> int:
        return len(self._columns[FATIGUE])

    @property
    def columns(self):
        """Every column name (``fatigue`` included) mapped to its read-only array."""
        return dict(self._columns)

    def column(self, name: str) -> np.ndarray:
        """Return one column as a read-only float array (``fatigue`` included)."""
        key = normalize_name(name)
        if key != FATIGUE and key not in self.column_names:
            raise MissingColumn(f"no column named {name!r}")
        return self._columns[key]

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.column_names == other.column_names
            and all(np.array_equal(v, other._columns[c]) for c, v in self._columns.items())
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"Dataset(column_names={self.column_names!r}, n_rows={self.n_rows})"


def number_text(value: float) -> str:
    """``repr`` of a float without a trailing ``.0``, for echoing inputs.

    Keeps every digit, where ``{:g}`` keeps six (``0.1234567``), and
    writes ``1``, ``0.1`` and ``1e-05`` as ``{:g}`` does.
    """
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


# ---------------------------------------------------------------------------
# CSV ingestion / emission
# ---------------------------------------------------------------------------

def _parse_cell(text: str, row: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise NonNumericCell(
            f"row {row}, column {column!r}: cannot parse {text!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise NonNumericCell(f"row {row}, column {column!r}: value {text!r} is not finite")
    return value


def _decode(source) -> str:
    if isinstance(source, str):
        return source
    raw = source if isinstance(source, bytes) else source.read()
    if isinstance(raw, str):
        return raw
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(
            f"input is not UTF-8: byte {exc.start} ({raw[exc.start:exc.start + 1]!r}) "
            f"cannot be decoded"
        ) from None


# Text holding one of these is left to the csv path: '"' opens a quoted
# cell, which only the csv module reads, and numpy's tokenizer strips the
# ASCII separators \x1c-\x1f around a number while ``float`` rejects them.
_CSV_PATH_ONLY = ('"', "\x1c", "\x1d", "\x1e", "\x1f")


def _has_long_line(text: str, limit: int) -> bool:
    """Whether a line of ``text`` has more than ``limit`` characters.

    Each step jumps to the last newline within ``limit + 1`` characters,
    so short lines cost one ``rfind`` per ``limit`` characters of text.
    """
    start = 0
    while len(text) - start > limit:
        newline = text.rfind("\n", start, start + limit + 1)
        if newline < 0:
            return True
        start = newline + 1
    return False


def _tokenized_columns(text: str):
    """``(names, columns)`` parsed by numpy's C tokenizer, or None.

    Returns only what the csv path (:func:`_csv_columns`) would return
    for ``text``, value for value: ``np.loadtxt`` converts each cell with
    the correctly rounded ``PyOS_string_to_double`` that ``float`` uses,
    and rejects the spellings only ``float`` accepts (``1_0``, non-ASCII
    digits, a lone carriage return, whitespace-only rows).  None means
    the csv path must decide: quoted cells, a line longer than the csv
    field size limit, a header it cannot use, no data rows, a cell
    ``loadtxt`` rejects, a ragged table, or a value the column checks
    refuse.
    """
    head, _, body = text.partition("\n")
    if (any(c in text for c in _CSV_PATH_ONLY) or not body.strip()
            or _has_long_line(text, csv.field_size_limit())):
        return None
    try:
        names = [normalize_name(h) for h in next(csv.reader([head]))]
    except csv.Error:
        return None
    if len(set(names)) != len(names) or FATIGUE not in names:
        return None
    try:
        # loadtxt reads a file object line by line, which makes a StringIO
        # hold four bytes per character; UTF-8 bytes hold one per ASCII
        # character.  A lone surrogate fails to encode (a ValueError).
        table = np.loadtxt(io.BytesIO(body.encode("utf-8")), encoding="utf-8", delimiter=",",
                           comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    if table.shape[1] != len(names):
        return None
    columns = dict(zip(names, table.T))
    fatigue = columns[FATIGUE]
    if not (np.isfinite(table).all() and np.all((fatigue > 0.0) & (fatigue < 1.0))
            and np.all(columns.get(DURATION, 1.0) == 1.0)):
        return None
    return names, columns


def _csv_columns(text: str):
    """``(names, columns)`` read row by row with the csv module and ``float``.

    The reference for every ingestion rule and its message: raises for
    the first bad cell, checking per row the cell count, then fatigue,
    then ``duration_hours``, then the PSFs in column order.  Blank rows
    are skipped but counted.
    """
    try:
        records = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise InputError(f"malformed CSV: {exc}") from None
    if not records:
        raise EmptyDataset("input has no header row")

    names = [normalize_name(h) for h in records[0]]
    if len(set(names)) != len(names):
        raise InputError(f"duplicate column names after normalization: {names}")
    if FATIGUE not in names:
        raise MissingColumn("required column 'fatigue' is absent")

    psf_cols = [n for n in names if n not in (FATIGUE, DURATION)]
    columns = {n: [] for n in psf_cols + [FATIGUE]}
    for i, record in enumerate(records[1:], start=1):
        if not "".join(record).strip():
            continue
        if len(record) != len(names):
            raise InputError(f"row {i}: expected {len(names)} cells, got {len(record)}")
        cells = dict(zip(names, record))
        fatigue = _parse_cell(cells[FATIGUE], i, FATIGUE)
        if not (0.0 < fatigue < 1.0):
            raise FatigueOutOfRange(f"row {i}: fatigue must lie strictly in (0, 1), got {fatigue}")
        if DURATION in cells:
            duration = _parse_cell(cells[DURATION], i, DURATION)
            if duration != 1.0:
                raise InputError(
                    f"row {i}: duration_hours must be 1 (one-hour readings only), got {duration}"
                )
        for c in psf_cols:
            columns[c].append(_parse_cell(cells[c], i, c))
        columns[FATIGUE].append(fatigue)
    if not columns[FATIGUE]:
        raise EmptyDataset("input has a header but no data rows")
    return names, columns


def load_csv(source) -> Dataset:
    """Read a dataset from CSV.

    ``source`` is a binary file-like object, ``bytes``, or text; UTF-8,
    header row required.  One column must be named ``fatigue`` (name
    matching is case/space-insensitive); an optional ``duration_hours``
    column must hold 1 in every row, since every reading covers one hour;
    every other column is treated as a PSF.  Numbers may use plain
    decimal or scientific notation with a dot decimal separator.

    The body is parsed by numpy's C tokenizer (``np.loadtxt``).  Text it
    cannot take as it stands (quoted cells, fields beyond the csv field
    size limit, spellings only ``float`` accepts) and every faulty input
    are read again with the csv module and ``float``, which name the
    first bad cell.  Both routes give the same values and messages.

    Raises
    ------
    MissingColumn, NonNumericCell, FatigueOutOfRange, EmptyDataset
        With the offending row (1-based, counting data rows) and column
        named in the message; a ``duration_hours`` other than 1 and input
        that is not UTF-8 raise :class:`InputError`, the latter naming the
        first bad byte offset.
    """
    text = _decode(source)
    names, columns = _tokenized_columns(text) or _csv_columns(text)
    psf_cols = [n for n in names if n not in (FATIGUE, DURATION)]
    return Dataset(tuple(psf_cols) + (FATIGUE,), columns)


CSV_BLOCK_CELLS = 16384


def _is_float_array(column) -> bool:
    return isinstance(column, np.ndarray) and column.ndim == 1 and column.dtype == np.float64


# A float column of a byte frame whose first DISTINCT_PROBE_ROWS cells,
# and then all of whose cells, hold at most half distinct bit patterns is
# formatted once per distinct value (``_pool``); the other way is the
# float kernel.  Break-even, csv_blocks of one 2e4-row column (one Xeon
# core, fastest of 33, the two ways interleaved): a PSF column of catalog
# levels takes 0.5-0.9 ms pooled against 9.0-13.8 ms by the kernel.  A
# column drawn uniformly from 1-45% as many values as it has rows never
# pools, since its first DISTINCT_PROBE_ROWS cells are mostly distinct.
# Fresh values scattered through a few-level pool pass the probe: pooled
# 3.7 against 10.4 ms at 10% of the cells, 9.0 against 9.3 ms at 35% and
# 11.0 against 8.5 ms at 45%, a loss that no workload's column reaches.
DISTINCT_PROBE_ROWS = 256


def _pool(column):
    """``(values, index)`` for a float array with few distinct values, else None.

    ``values`` lists each distinct bit pattern as a float (so ``-0.0``
    stays apart from ``0.0``), and ``index`` says which of them each row
    holds.
    """
    bits = column.view(np.uint64)
    if 2 * len(np.unique(bits[:DISTINCT_PROBE_ROWS])) > DISTINCT_PROBE_ROWS:
        return None
    keys, index = np.unique(bits, return_inverse=True)
    if 2 * len(keys) > len(bits):
        return None
    return keys.view(np.float64).tolist(), index


# A table of at least FLOAT_TEXT_MIN_ROWS rows whose columns are all float
# arrays and ranges is written as byte frames (``_frame_blocks``).
# Break-even, csv_blocks of one column of uniform draws (one Xeon core,
# numpy 2.4, fastest of 41, the two routes interleaved): by the template
# 0.09 / 0.19 / 0.28 / 0.31 / 0.37 / 0.54 / 0.74 / 1.47 ms at 128 / 256 /
# 384 / 448 / 512 / 768 / 1024 / 2000 rows, by the frame 0.22 / 0.25 /
# 0.26 / 0.27 / 0.30 / 0.32 / 0.38 / 0.53 ms.  The narrower frames moved
# the break-even little, to about 350 rows; 512 keeps the margin of the
# measurement's noise, and no table of the pipeline lies between.
FLOAT_TEXT_MIN_ROWS = 512


def _is_digit_range(column) -> bool:
    """Whether ``column`` is a range of non-negative ints below 10**16."""
    return (isinstance(column, range) and len(column) > 0
            and min(column[0], column[-1]) >= 0 and max(column[0], column[-1]) < 10 ** 16)


def _frame_slots(columns):
    """Each column's slot of a frame row: ``(width, text)``.

    ``text(a, b)`` gives the slot bytes of rows [a, b) as a ``(b - a,
    width)`` uint8 array: the cell's text, NUL bytes, and the separator
    (a comma, or a newline after the last column) somewhere after the
    text.  A pooled float column (:func:`_pool`) takes the rows of a byte
    table of its distinct values, as wide as its longest entry.  Another
    float column takes the rows of ``_floattext.float_rows`` up to byte
    ``SEPARATOR``, and a range those of ``_floattext.digit_rows``, as
    many bytes as its largest value has digits.
    """
    from . import _floattext as ft
    separators = [ord(",")] * (len(columns) - 1) + [ord("\n")]
    slots = []
    for column, separator in zip(columns, separators):
        pool = None if isinstance(column, range) else _pool(column)
        if pool is not None:
            values, index = pool
            table = np.array([repr(v).encode("ascii") + bytes([separator]) for v in values])
            table = table[:, None].view(np.uint8)  # NUL-padded to the column's longest entry
            slots.append((table.shape[1], partial(_pooled_text, table, index)))
        elif isinstance(column, range):
            width = len(str(max(column[0], column[-1]))) + 1
            slots.append((width, partial(_range_text, ft, column, width, separator)))
        else:
            slots.append((ft.SEPARATOR + 1, partial(_float_text, ft, column, separator)))
    return slots


def _pooled_text(table, index, a, b):
    return table.take(index[a:b], axis=0)


def _float_text(ft, column, separator, a, b):
    rows = ft.float_rows(column[a:b])
    rows[:, ft.SEPARATOR] = separator
    return rows[:, :ft.SEPARATOR + 1]


def _range_text(ft, column, width, separator, a, b):
    part = column[a:b]
    rows = np.empty((len(part), width), dtype=np.uint8)
    rows[:, :-1] = ft.digit_rows(np.arange(part.start, part.stop, part.step))[:, 17 - width:]
    rows[:, -1] = separator
    return rows


def _frame_blocks(columns, step):
    """The rows of float arrays and digit ranges, one block a span.

    A span is the fewest whole ``_floattext.PASS`` rows that hold ``step``
    rows, so each column runs its kernel once a block, in full passes but
    the last.  A block is a ``(rows, width)`` uint8 frame of each row's
    slots (:func:`_frame_slots`) side by side, ``width`` the sum of the
    slot widths, and one ``bytearray.translate`` drops its NULs.
    """
    from . import _floattext as ft
    n = len(columns[0])
    slots, width = [], 0
    for size, text in _frame_slots(columns):
        slots.append((width, size, text))
        width += size
    span = ft.PASS * -(-step // ft.PASS)
    for first in range(0, n, span):
        stop = min(n, first + span)
        buffer = bytearray((stop - first) * width)
        frame = np.frombuffer(buffer, dtype=np.uint8).reshape(-1, width)
        for offset, size, text in slots:
            # One item of ``size`` bytes a row: numpy copies it as a whole.
            slot = frame[:, offset:offset + size].view(f"V{size}")
            slot[...] = text(first, stop).view(f"V{size}")
        yield buffer.translate(None, b"\0").decode("ascii")


def csv_blocks(columns, header=()):
    """CSV text of a ``header`` row, if given, then the rows of ``columns``.

    ``columns`` are equally long lists, tuples, ranges or float arrays,
    as many as the header has cells (``ValueError`` otherwise).  A cell is
    a str, int or Python float and is written as ``str`` of it, so a float
    in its shortest exact form.  The text comes in blocks of whole rows.
    The reference route takes about ``CSV_BLOCK_CELLS`` cells a block,
    interleaves them into one list by strided slice assignment and formats
    them in one call by a ``%s`` row template repeated per row.  A table
    of at least ``FLOAT_TEXT_MIN_ROWS`` rows of float arrays and ranges of
    non-negative ints gives the same text by another route: each block is
    the fewest whole kernel passes of rows that hold a reference block,
    laid out as one NUL-padded byte frame (:func:`_frame_blocks`) in which
    each column's slot is as wide as its longest text, a float column with
    few distinct values formatted once per value and the others by the
    array kernel of ``_floattext``, and no cell becomes a Python str.
    """
    k = len(columns)
    template = ",".join(["%s"] * k) + "\n"
    n = len(columns[0])
    if any(len(column) != n for column in columns):
        raise ValueError(f"columns of unequal length: {[len(c) for c in columns]}")
    if header:
        yield template % tuple(header)
    step = max(1, CSV_BLOCK_CELLS // k)
    if n >= FLOAT_TEXT_MIN_ROWS and all(_is_float_array(c) or _is_digit_range(c) for c in columns):
        yield from _frame_blocks(columns, step)
        return
    for start in range(0, n, step):
        m = min(step, n - start)
        cells = [None] * (m * k)
        for j, column in enumerate(columns):
            part = column[start:start + m]
            cells[j::k] = part.tolist() if isinstance(part, np.ndarray) else part
        yield template * m % tuple(cells)


# No O_TRUNC: an existing file is written over, then cut to length.
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def write_artifact(path, data) -> None:
    """Write ``data`` to ``path``: a str, bytes, or an iterable of str or
    bytes blocks, written as they come; str is encoded as UTF-8.

    A missing parent directory is created.  A new file gets the mode bits
    ``open(path, "wb")`` would give it.  An existing file is not truncated
    first: the new bytes are written over the old ones, then a longer old
    file is cut to the new length (a same-size rerun skips that call, and
    a device such as ``/dev/null`` is never cut).  On ext4, a truncate to
    zero followed by a write trips the replace-via-truncate heuristic
    (``auto_da_alloc``): it frees and discards the old blocks and starts
    writeback on close, which cost several times the write itself for
    each small artifact.  Every byte is still written on every call.

    A block that raises leaves the blocks before it and no old tail.  A
    run killed mid-write leaves a possibly incomplete file, as a
    truncating write did; after SIGKILL it may also still hold the tail
    of the old file beyond the bytes written.
    """
    try:
        fd = os.open(path, _WRITE_FLAGS, 0o666)
    except FileNotFoundError:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, _WRITE_FLAGS, 0o666)
    with open(fd, "wb") as fh:
        end = 0
        try:
            for block in [data] if isinstance(data, (str, bytes)) else data:
                end += fh.write(block.encode("utf-8") if isinstance(block, str) else block)
        finally:
            if os.fstat(fd).st_size > end:
                os.ftruncate(fd, end)


def serialize(dataset: Dataset) -> bytes:
    """Emit a dataset as CSV bytes; ``load_csv`` round-trips it exactly.

    Floats are written in their shortest exact form (``repr``), so values
    survive the round trip bit-for-bit.  Every row ends with the
    ``duration_hours`` cell ``1.0``.  The rows are formatted by
    :func:`csv_blocks`.  A dataset of at least ``FLOAT_TEXT_MIN_ROWS`` rows
    takes its byte frames, ``duration_hours`` as a float column of ones:
    it is pooled, as a PSF column of a few levels is, and a long column of
    distinct values (the fatigue of a synthetic dataset, say) is formatted
    by the float text kernel.  A shorter one takes the ``%s`` template,
    ``duration_hours`` as str cells, which the template copies without a
    ``repr`` each.
    """
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(
        list(dataset.psf_names) + [FATIGUE, DURATION]
    )
    stored = dataset.columns
    columns = [stored[c] for c in dataset.psf_names + (FATIGUE,)]
    n = dataset.n_rows
    out.writelines(csv_blocks(columns + [np.ones(n) if n >= FLOAT_TEXT_MIN_ROWS else ["1.0"] * n]))
    return out.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# Built-in case-study data
# ---------------------------------------------------------------------------

_PSF_ORDER = (
    "available_time", "stress", "complexity", "experience_and_training",
    "procedures", "ergonomics", "fitness_for_duty", "work_process",
)

# 15 fitting instances: 8 PSF level values + observed fatigue after a
# one-hour exposure.
_TABLE3 = (
    (0.1,  2, 5, 3,   20, 0.5, 5, 0.5, 0.130),
    (10,   2, 2, 0.5, 1,  10,  1, 0.5, 0.110),
    (10,   1, 2, 1,   50, 1,   5, 5,   0.126),
    (0.1,  1, 1, 1,   5,  0.5, 1, 0.5, 0.035),
    (10,   2, 5, 3,   50, 1,   5, 5,   0.165),
    (0.1,  2, 5, 0.5, 1,  1,   5, 1,   0.078),
    (0.01, 1, 1, 0.5, 1,  1,   1, 5,   0.027),
    (1,    5, 2, 1,   1,  1,   1, 5,   0.086),
    (0.01, 5, 2, 0.5, 1,  10,  5, 5,   0.138),
    (10,   2, 1, 3,   1,  10,  5, 5,   0.150),
    (1,    1, 5, 0.5, 1,  10,  1, 5,   0.094),
    (0.1,  5, 5, 3,   50, 10,  1, 1,   0.157),
    (0.01, 5, 5, 0.5, 20, 10,  5, 0.5, 0.142),
    (0.1,  5, 2, 3,   5,  0.5, 5, 1,   0.126),
    (0.1,  5, 2, 3,   5,  0.5, 5, 1,   0.134),
)

# 5 hold-out instances used for validation.
_TABLE8 = (
    (10,   5, 5, 0.5, 20, 10,  5, 1, 0.195),
    (1,    5, 2, 0.5, 50, 0.5, 1, 5, 0.062),
    (1,    5, 1, 0.5, 50, 10,  1, 1, 0.073),
    (10,   5, 1, 1,   5,  1,   5, 5, 0.162),
    (0.01, 5, 2, 1,   1,  10,  5, 1, 0.114),
)


def _build(rows) -> Dataset:
    names = _PSF_ORDER + (FATIGUE,)
    return Dataset(names, dict(zip(names, zip(*rows))))


def builtin_table3() -> Dataset:
    """The bundled 15-instance fitting dataset (one-hour exposures)."""
    return _build(_TABLE3)


def builtin_table8() -> Dataset:
    """The bundled 5-instance hold-out dataset (one-hour exposures)."""
    return _build(_TABLE8)


BUILTIN_DATASETS = {
    "table3": builtin_table3,
    "table8": builtin_table8,
}


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------

# standardize sums the columns of a table this narrow along contiguous rows.
_ROW_SUM_MAX_COLUMNS = 5


def standardize(dataset: Dataset, columns: list[str] | tuple[str, ...]) -> np.ndarray:
    """Center and scale the named columns to mean 0, sample sd 1.

    The divisor is n-1 (sample standard deviation).  Raises
    :class:`InputError` naming the first column whose mean or sample
    standard deviation overflows, :class:`ZeroVarianceColumn` naming the
    first constant column, and :class:`TooFewRows` when fewer than two
    rows are available.
    """
    n = dataset.n_rows
    if n < 2:
        raise TooFewRows("standardization needs at least 2 rows")
    values = [dataset.column(c) for c in columns]
    # Both column sums add each column left to right, as numpy's reduce over
    # axis 0 of the C-order (n, k) matrix does for k >= 2 (a single column
    # is contiguous there, and numpy adds it pairwise).  Narrow tables take
    # them as the last cumsum of each contiguous row of the (k, n) block,
    # since that reduce runs one k-element loop per row; wider ones reduce.
    rows = 2 <= len(values) <= _ROW_SUM_MAX_COLUMNS
    with np.errstate(over="ignore", invalid="ignore"):
        if rows:
            m = np.stack(values)
            d = np.cumsum(m, axis=1)
            mean = d[:, -1] / n
            np.subtract(m, mean[:, None], out=d)
            squares = np.multiply(d, d, out=m)
            sd = np.sqrt(np.cumsum(squares, axis=1, out=squares)[:, -1] / (n - 1))
        else:
            d = np.column_stack(values)
            mean = np.add.reduce(d, axis=0) / n
            d -= mean
            sd = np.sqrt(np.add.reduce(d * d, axis=0) / (n - 1))
    for name, mu, s in zip(columns, mean, sd):
        if not (math.isfinite(mu) and math.isfinite(s)):
            raise InputError(
                f"column {name!r} is too large to standardize: its mean or sample "
                f"standard deviation overflows"
            )
        if s == 0.0:
            raise ZeroVarianceColumn(f"column {name!r} has zero sample variance")
    if not rows:
        return np.divide(d, sd, out=d)
    # The (n, k) C-order result that correlation_matrix hands to z.T @ z.
    z = np.empty((n, len(values)))
    np.divide(d, sd[:, None], out=z.T)
    return z


def correlation_matrix(dataset: Dataset, columns: list[str] | tuple[str, ...]) -> np.ndarray:
    """Pearson correlation matrix Z'Z/(n-1) of the standardized columns.

    Exactly unit diagonal, symmetric, entries clipped to [-1, 1] against
    last-bit rounding.
    """
    z = standardize(dataset, columns)
    n = z.shape[0]
    r = (z.T @ z) / (n - 1)
    r = (r + r.T) / 2.0
    r = np.clip(r, -1.0, 1.0)
    np.fill_diagonal(r, 1.0)
    return r
