"""Performance-shaping-factor (PSF) datasets and preprocessing.

The package works on small tabular datasets: one row per observed work
instance, one numeric column per PSF (the value is the factor's level
multiplier, e.g. stress "extreme" = 5) and a required ``fatigue``
response in (0, 1).  Every reading covers a one-hour exposure: an
optional ``duration_hours`` column is accepted only when every value is 1.
A :class:`Dataset` stores one float64 array per column; CSV ingestion
parses with numpy's C tokenizer and checks whole columns at once.  CSV
emission formats blocks of rows with one ``%s`` template, or, for tables
of float arrays, ranges and str columns with many float cells, lays each
block out as one NUL-padded byte frame, each column's slot as wide as
its longest text.  Only the frames pool: each distinct value of a
few-valued float column is formatted once, the other float columns by
the array kernel of ``_floattext`` (magnitudes from 2**-13 up to 2**53,
behind a sign byte; ``repr`` writes the rest).  Every artifact of the
package goes to disk through :func:`write_artifact`, which writes over
an existing file instead of truncating it first.

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
from functools import lru_cache, partial
from itertools import groupby
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


@lru_cache(maxsize=1024)
def normalize_name(name: str) -> str:
    """Normalize a column/factor name to lower_snake_case.

    Case-, space- and punctuation-insensitive, so CLI arguments like
    ``Available Time`` or ``available-time`` match the CSV header
    ``available_time``.  A name that is not a str raises :class:`InputError`.
    """
    if not isinstance(name, str):
        raise InputError(f"a column or factor name must be a string, got {name!r}")
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
    read-only float64 array per column, under its name after
    :func:`normalize_name`; two names that normalize alike raise
    :class:`InputError`, as in a CSV header.  PSF values must be finite
    and the response positive and finite (it acts as a lifetime;
    measured fatigue additionally lies in (0, 1), which CSV ingestion
    enforces, while synthetic lifetimes may exceed 1).  A violation
    raises for the first offending row, checking its PSFs in column order
    before its response.
    """

    __slots__ = ("column_names", "_columns")

    def __init__(self, column_names, columns):
        given = tuple(column_names)
        column_names = tuple(map(normalize_name, given))
        if len(set(column_names)) != len(column_names):
            raise InputError(f"duplicate column names after normalization: {list(column_names)}")
        keys = {FATIGUE: FATIGUE, **dict(zip(column_names, given))}  # each column's key in columns
        psf_names = tuple(c for c in column_names if c != FATIGUE)
        for name in psf_names + (FATIGUE,):
            if keys[name] not in columns:
                raise MissingColumn(f"no values given for column {keys[name]!r}")
        arrays = {c: np.array(columns[keys[c]], dtype=float) for c in psf_names}
        fatigue = arrays[FATIGUE] = np.array(columns[keys[FATIGUE]], dtype=float)
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
# formatted once per distinct value (``_pools``); the other way is the
# float kernel.  Break-even, csv_blocks of one 2e4-row column (one Xeon
# core, fastest of 33, the two ways interleaved): a PSF column of catalog
# levels takes 0.5-0.9 ms pooled against 9.0-13.8 ms by the kernel.  A
# column drawn uniformly from 1-45% as many values as it has rows never
# pools, since its first DISTINCT_PROBE_ROWS cells are mostly distinct.
# Fresh values scattered through a few-level pool pass the probe: pooled
# 3.7 against 10.4 ms at 10% of the cells, 9.0 against 9.3 ms at 35% and
# 11.0 against 8.5 ms at 45%, a loss that no workload's column reaches.
# A column that passes the probe is indexed by a hash of its cells on the
# probe's distinct keys (``_hash_index``); only a cell that is no key of
# the probe, or a collision under every multiplier, costs the sort of
# ``np.unique``.  _pools of the 4 columns of a cohort synthetic.csv
# (2e4 rows) took 1.0 ms by np.unique and 0.25 ms by the hash, of the 61
# columns of a 2000-row screen-wide table 2.2 against 1.5 ms (one Xeon
# core, fastest of 200).
DISTINCT_PROBE_ROWS = 256

# The pool index's multipliers, tried in turn: the odd constants of
# SplitMix64, the first 2**64 over the golden ratio, Knuth's multiplier
# for multiplicative hashing (TAOCP vol. 3, section 6.4).
_HASH_MULTIPLIERS = tuple(np.uint64(c) for c in (
    0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))


def _hash_index(keys, bits):
    """The position of each of ``bits`` among the ascending distinct ``keys``, or None.

    A cell goes to slot ``(bits * C) >> (64 - b)`` of a table of
    ``2**b >= 2 * m * m`` slots for m keys, C the first multiplier that
    gives each key a slot of its own; the slot holds the key's position.
    None if every multiplier collides, or a cell is no key.  Otherwise
    the index is ``np.unique(bits, return_inverse=True)[1]`` whenever
    ``keys`` are exactly the distinct values of ``bits``.
    """
    m = len(keys)
    shift = np.uint64(64 - (2 * m * m - 1).bit_length())
    positions = np.arange(m)
    for c in _HASH_MULTIPLIERS:
        slots = (keys * c) >> shift
        table = np.zeros(1 << (64 - int(shift)), dtype=np.intp)
        table[slots] = positions
        if (table[slots] == positions).all():
            hashed = np.multiply(bits, c)
            index = table.take(np.right_shift(hashed, shift, out=hashed))
            return index if (keys.take(index) == bits).all() else None
    return None


def _pools(columns):
    """Each float array's ``(values, index)`` if it has few distinct values, else None.

    ``values`` lists each distinct bit pattern as a float (so ``-0.0``
    stays apart from ``0.0``), ascending by bit pattern, and ``index``
    says which of them each row holds, as ``np.unique`` of the bit
    patterns gives them.  One sort probes the first
    ``DISTINCT_PROBE_ROWS`` cells of all the ``columns``; a column whose
    probe passes is indexed by a hash on the probe's distinct keys
    (:func:`_hash_index`), or by ``np.unique`` if the hash fails.
    """
    if not columns:
        return []
    probe = np.stack([column[:DISTINCT_PROBE_ROWS] for column in columns]).view(np.uint64)
    probe.sort(axis=1)
    first = np.ones(probe.shape, dtype=bool)  # where each key starts in its sorted row
    np.not_equal(probe[:, 1:], probe[:, :-1], out=first[:, 1:])
    pools = []
    for column, row, starts, count in zip(columns, probe, first,
                                          np.count_nonzero(first, axis=1).tolist()):
        pool = None
        if 2 * count <= probe.shape[1]:
            bits = column.view(np.uint64)
            keys = row[starts]
            index = _hash_index(keys, bits)
            if index is None:
                keys, index = np.unique(bits, return_inverse=True)
            if 2 * len(keys) <= len(index):
                pool = keys.view(np.float64).tolist(), index
        pools.append(pool)
    return pools


# A table of float arrays, ranges and str columns whose float arrays and
# ranges hold at least FLOAT_TEXT_MIN_ROWS cells (rows times such columns)
# is written as byte frames (``_frame_blocks``); a table of one column
# needs that many rows.  Break-even, csv_blocks of one column of uniform
# draws (one Xeon core, numpy 2.4, fastest of 41, the two routes
# interleaved): by the template 0.09 / 0.19 / 0.28 / 0.31 / 0.37 / 0.54 /
# 0.74 / 1.47 ms at 128 / 256 / 384 / 448 / 512 / 768 / 1024 / 2000 rows,
# by the frame 0.22 / 0.25 / 0.26 / 0.27 / 0.30 / 0.32 / 0.38 / 0.53 ms.
# The narrower frames moved the break-even little, to about 350 rows; 512
# keeps the margin of the measurement's noise.  Wider tables of normal
# draws (fastest of 150), by the frame against the template: 2 and 8
# columns at 512 cells 0.30 against 0.35 ms, 23 columns by 23 rows 0.34
# against 0.38 ms, 30 by 17 0.36 against 0.37 ms, 60 by 9 0.42 against
# 0.38 ms and 60 by 60, the loadings of a 60-column pca, 1.1 against
# 2.5 ms: adjacent kernel columns share one slot, so a column adds little.
FLOAT_TEXT_MIN_ROWS = 512


def _is_digit_range(column) -> bool:
    """Whether ``column`` is a range of non-negative ints below 10**16."""
    return (isinstance(column, range) and len(column) > 0
            and min(column[0], column[-1]) >= 0 and max(column[0], column[-1]) < 10 ** 16)


def _is_text(column) -> bool:
    """Whether ``column`` is a list or tuple of ASCII str with no NUL."""
    if not (isinstance(column, (list, tuple)) and set(map(type, column)) == {str}):
        return False
    text = "".join(column)
    return text.isascii() and "\0" not in text


def _frame_slots(columns):
    """The slots of a frame row, left to right: ``(width, write)``.

    ``write(frame, a, b)`` writes the slot bytes of rows [a, b) into
    ``frame``, a ``(b - a, width)`` uint8 view of the frame's columns: the
    cell's text, NUL bytes, and the separator (a comma, or a newline after
    the last column) somewhere after the text.  A str column, and a pooled float column (:func:`_pools`), take
    the rows of a byte table of their text, as wide as its longest entry.
    Each run of adjacent other float columns is one slot
    (:func:`_kernel_slot`).  A range takes the rows of
    ``_floattext.digit_rows``, as many bytes as its largest value has
    digits.
    """
    from . import _floattext as ft
    separators = [ord(",")] * (len(columns) - 1) + [ord("\n")]
    floats = [j for j, c in enumerate(columns) if _is_float_array(c)]
    pools = dict(zip(floats, _pools([columns[j] for j in floats])))
    kernel = {j for j in floats if pools[j] is None}
    slots = []
    for in_run, run in groupby(range(len(columns)), kernel.__contains__):
        run = list(run)
        if in_run:
            slots.append(_kernel_slot(ft, [columns[j] for j in run], [separators[j] for j in run]))
            continue
        for j in run:
            column, separator = columns[j], separators[j]
            if isinstance(column, range):
                width = len(str(max(column[0], column[-1]))) + 1
                slots.append((width, partial(_range_write, ft, column, separator)))
            elif j not in pools:
                slots.append(_table_slot(column, separator, None))
            else:
                values, index = pools[j]
                slots.append(_table_slot([repr(v) for v in values], separator, index))
    return slots


def _table_slot(entries, separator, index):
    """A slot of a byte table of ASCII str ``entries``: each one NUL-padded to
    the longest, then the separator.  Row i of the column is entry
    ``index[i]``, or entry i with no index."""
    text = np.array(entries, dtype=bytes)
    table = np.empty((len(text), text.itemsize + 1), dtype=np.uint8)
    table[:, :-1] = text[:, None].view(np.uint8)
    table[:, -1] = separator
    return table.shape[1], partial(_table_write, table, index)


def _table_write(table, index, frame, a, b):
    _put(frame, table[a:b] if index is None else table.take(index[a:b], axis=0))


def _put(frame, rows):
    """Copy ``rows`` into ``frame``, a view of some columns of a frame.

    Each row goes as one void item of the rows' width, which numpy copies
    whole.
    """
    item = f"V{frame.shape[-1]}"
    frame.view(item)[...] = rows.view(item)


def _kernel_slot(ft, columns, separators):
    """One slot for adjacent float columns that ``_floattext.float_rows`` writes.

    Each cell takes the kernel's text up to byte ``SEPARATOR``, then the
    column's separator.  If any of the columns holds a negative, the
    kernel gets the magnitudes, and a sign byte comes before each cell:
    ``-``, or NUL for a non-negative value or a NaN.  One kernel call
    formats the cells of all the columns in rows [a, b), stacked.
    """
    signed = int(any(np.signbit(column).any() for column in columns))  # the sign's bytes
    cell = signed + ft.SEPARATOR + 1

    def write(frame, a, b):
        cells = frame.reshape(b - a, len(columns), cell)
        cells[:, :, -1] = separators
        values = np.stack([c[a:b] for c in columns])
        rows = ft.float_rows((np.abs(values) if signed else values).reshape(-1))
        _put(cells[:, :, signed:-1], rows.reshape(len(columns), b - a, ft.ROW_BYTES)
             [:, :, :ft.SEPARATOR].transpose(1, 0, 2))
        if signed:
            negative = np.signbit(values) & ~np.isnan(values)
            cells[:, :, 0] = (negative.view(np.uint8) * np.uint8(ord("-"))).T

    return len(columns) * cell, write


def _range_write(ft, column, separator, frame, a, b):
    part = column[a:b]
    digits = ft.digit_rows(np.arange(part.start, part.stop, part.step))
    _put(frame[:, :-1], digits[:, 17 - frame.shape[1]:])
    frame[:, -1] = separator


def _frame_blocks(columns, step):
    """The rows of float arrays, digit ranges and str columns, one block a span.

    A span is the fewest whole ``_floattext.PASS`` rows that hold ``step``
    rows, so the kernels run once a block, in full passes but the last.
    A block is a ``(rows, width)`` uint8 frame of each row's slots
    (:func:`_frame_slots`) side by side, ``width`` the sum of the slot
    widths, and one ``bytearray.translate`` drops its NULs: the block is
    that ``bytearray``.
    """
    from . import _floattext as ft
    n = len(columns[0])
    slots, width = [], 0
    for size, write in _frame_slots(columns):
        slots.append((width, size, write))
        width += size
    span = ft.PASS * -(-step // ft.PASS)
    for first in range(0, n, span):
        stop = min(n, first + span)
        buffer = bytearray((stop - first) * width)
        frame = np.frombuffer(buffer, dtype=np.uint8).reshape(-1, width)
        for offset, size, write in slots:
            write(frame[:, offset:offset + size], first, stop)
        yield buffer.translate(None, b"\0")


def csv_blocks(columns, header=()):
    """CSV bytes of a ``header`` row, if given, then the rows of ``columns``.

    ``columns`` are equally long lists, tuples, ranges or float arrays,
    as many as the header has cells (``ValueError`` otherwise).  A cell is
    a str, int or Python float and is written as ``str`` of it, so a float
    in its shortest exact form.  The text comes as UTF-8 ``bytes`` or
    ``bytearray`` blocks of whole rows, the header a block of its own.
    The reference route takes about ``CSV_BLOCK_CELLS`` cells a block,
    interleaves them into one list by strided slice assignment, formats
    them in one call by a ``%s`` row template repeated per row and
    encodes the text.  A table of float arrays, ranges of non-negative
    ints and lists or tuples of ASCII str, whose float arrays and ranges
    hold at least ``FLOAT_TEXT_MIN_ROWS`` cells, gives the same text by
    another route: each block is the fewest whole kernel passes of rows
    that hold a reference block, laid out as one NUL-padded byte frame
    (:func:`_frame_blocks`) in which each column's slot is as wide as its
    longest text.  A float column with few distinct values, like a str
    column, is formatted once per entry of a byte table; the others go
    through the array kernel of ``_floattext`` together, negatives as a
    sign byte and their magnitude; no cell becomes a Python str, and the
    frame's ASCII bytes are the block.
    """
    k = len(columns)
    template = ",".join(["%s"] * k) + "\n"
    n = len(columns[0])
    if any(len(column) != n for column in columns):
        raise ValueError(f"columns of unequal length: {[len(c) for c in columns]}")
    if header:
        yield (template % tuple(header)).encode("utf-8")
    step = max(1, CSV_BLOCK_CELLS // k)
    kernels = [_is_float_array(c) or _is_digit_range(c) for c in columns]
    if n * sum(kernels) >= FLOAT_TEXT_MIN_ROWS and all(
            kernel or _is_text(c) for kernel, c in zip(kernels, columns)):
        yield from _frame_blocks(columns, step)
        return
    for start in range(0, n, step):
        m = min(step, n - start)
        cells = [None] * (m * k)
        for j, column in enumerate(columns):
            part = column[start:start + m]
            cells[j::k] = part.tolist() if isinstance(part, np.ndarray) else part
        yield (template * m % tuple(cells)).encode("utf-8")


# No O_TRUNC: an existing file is written over, then cut to length.
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def write_artifact(path, data) -> None:
    """Write ``data`` to ``path``: a str, bytes, or an iterable of str or
    bytes-like blocks, written as they come; str is encoded as UTF-8.

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
    ``duration_hours`` cell ``1.0``.  The header row joins the column
    names, which :class:`Dataset` has normalized, so none needs quotes;
    :func:`csv_blocks` writes the rows, and the result joins their bytes.
    A dataset of at least ``FLOAT_TEXT_MIN_ROWS`` rows takes its byte
    frames, ``duration_hours`` as a float column of ones: it is pooled, as
    a PSF column of a few levels is, and a long column of distinct values
    (the fatigue of a synthetic dataset, say) is formatted by the float
    text kernel.  A shorter one takes the ``%s`` template, its columns as
    lists and ``duration_hours`` as str cells, which the template copies
    without a ``repr`` each.  The frames would take a table of a few
    hundred rows too, as they count cells, but there the few-level columns
    cost more than the template's short cells: 0.28 against 0.20 ms for
    the README's 200 rows (one Xeon core).
    """
    header = (",".join(dataset.psf_names + (FATIGUE, DURATION)) + "\n").encode()
    stored = dataset.columns
    columns = [stored[c] for c in dataset.psf_names + (FATIGUE,)]
    n = dataset.n_rows
    if n >= FLOAT_TEXT_MIN_ROWS:
        columns.append(np.ones(n))
    else:
        columns = [column.tolist() for column in columns] + [["1.0"] * n]
    return b"".join([header, *csv_blocks(columns)])


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
    first constant column, :class:`TooFewRows` when fewer than two rows
    are available, and :class:`InputError` when no column is named.
    """
    n = dataset.n_rows
    if n < 2:
        raise TooFewRows("standardization needs at least 2 rows")
    if not columns:
        raise InputError("standardization needs at least one column")
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
