"""Performance-shaping-factor (PSF) datasets and preprocessing.

The package works on small tabular datasets: one row per observed work
instance, one numeric column per PSF (the value is the factor's level
multiplier, e.g. stress "extreme" = 5) and a required ``fatigue``
response in (0, 1).  Every reading covers a one-hour exposure: an
optional ``duration_hours`` column is accepted only when every value is 1.
A :class:`Dataset` stores one float64 array per column; CSV ingestion
parses with numpy's C tokenizer and checks whole columns at once, and
CSV emission formats blocks of rows with one ``%s`` template.

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
import re
from dataclasses import dataclass

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

@dataclass(frozen=True)
class PsfDefinition:
    """One PSF with its ordered (level label, multiplier) pairs."""

    name: str
    levels: tuple[tuple[str, float], ...]

    def __post_init__(self):
        labels = [label for label, _ in self.levels]
        if len(set(labels)) != len(labels):
            raise InputError(f"duplicate level labels in PSF {self.name!r}")
        for label, mult in self.levels:
            if not (mult > 0 and math.isfinite(mult)):
                raise InputError(
                    f"PSF {self.name!r} level {label!r}: multiplier must be "
                    f"a positive finite number, got {mult!r}"
                )

    @property
    def multipliers(self) -> tuple[float, ...]:
        return tuple(mult for _, mult in self.levels)


@dataclass(frozen=True)
class PsfCatalog:
    """A named collection of PSF definitions."""

    definitions: tuple[PsfDefinition, ...]

    def __post_init__(self):
        names = [d.name for d in self.definitions]
        if len(set(names)) != len(names):
            raise InputError("duplicate PSF names in catalog")


def _catalog() -> PsfCatalog:
    # The eight PSFs most commonly retained in human-reliability analysis,
    # with SPAR-H-style level multipliers.  Reference data only: datasets
    # carry already-encoded numeric values and are not remapped.
    return PsfCatalog((
        PsfDefinition("available_time", (
            ("barely_adequate", 10.0),
            ("nominal", 1.0),
            ("extra", 0.1),
            ("expansive", 0.01),
        )),
        PsfDefinition("stress", (
            ("extreme", 5.0),
            ("high", 2.0),
            ("nominal", 1.0),
        )),
        PsfDefinition("complexity", (
            ("highly_complex", 5.0),
            ("moderately_complex", 2.0),
            ("nominal", 1.0),
        )),
        PsfDefinition("experience_and_training", (
            ("low", 3.0),
            ("nominal", 1.0),
            ("high", 0.5),
        )),
        PsfDefinition("procedures", (
            ("not_available", 50.0),
            ("incomplete", 20.0),
            ("available_but_poor", 5.0),
            ("nominal", 1.0),
            ("diagnostic_oriented", 0.5),
        )),
        PsfDefinition("ergonomics", (
            ("missing_or_misleading", 50.0),
            ("poor", 10.0),
            ("nominal", 1.0),
            ("good", 0.5),
        )),
        PsfDefinition("fitness_for_duty", (
            ("degraded_fitness", 5.0),
            ("nominal", 1.0),
        )),
        PsfDefinition("work_process", (
            ("poor", 5.0),
            ("nominal", 1.0),
            ("good", 0.5),
        )),
    ))


DEFAULT_CATALOG = _catalog()


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

    def matrix(self, columns: list[str] | tuple[str, ...]) -> np.ndarray:
        """Stack the named columns into an (n_rows, len(columns)) array."""
        return np.column_stack([self.column(c) for c in columns])

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


def _raise_first_error(records, names, psf_cols) -> None:
    """Check ``records`` row by row and raise for the first bad cell.

    The reference for every ingestion rule and its message; ``load_csv``
    runs it only after its column-wise checks have found a fault.  Per
    row: cell count, then fatigue, then ``duration_hours``, then the
    PSFs in column order.
    """
    for i, record in enumerate(records, start=1):
        if not record or all(cell.strip() == "" for cell in record):
            continue
        if len(record) != len(names):
            raise InputError(
                f"row {i}: expected {len(names)} cells, got {len(record)}"
            )
        cells = dict(zip(names, record))
        fatigue = _parse_cell(cells[FATIGUE], i, FATIGUE)
        if not (0.0 < fatigue < 1.0):
            raise FatigueOutOfRange(
                f"row {i}: fatigue must lie strictly in (0, 1), got {fatigue}"
            )
        if DURATION in cells:
            duration = _parse_cell(cells[DURATION], i, DURATION)
            if duration != 1.0:
                raise InputError(
                    f"row {i}: duration_hours must be 1 (one-hour readings only), got {duration}"
                )
        for c in psf_cols:
            _parse_cell(cells[c], i, c)


def _parse_columns(records, names) -> dict[str, np.ndarray] | None:
    """Every cell parsed with ``float``, column by column; None if any fails."""
    if set(map(len, records)) != {len(names)}:
        return None
    try:
        return {
            name: np.fromiter(map(float, cells), dtype=float, count=len(records))
            for name, cells in zip(names, zip(*records))
        }
    except ValueError:
        return None


def _columns_valid(columns, psf_cols) -> bool:
    fatigue = columns[FATIGUE]
    if not np.all((fatigue > 0.0) & (fatigue < 1.0)):
        return False
    if DURATION in columns and not np.all(columns[DURATION] == 1.0):
        return False
    return all(np.all(np.isfinite(columns[c])) for c in psf_cols)


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
    if not _columns_valid(columns, [n for n in names if n not in (FATIGUE, DURATION)]):
        return None
    return names, columns


def _csv_columns(text: str):
    """``(names, columns)`` read with the csv module and ``float``; raises on any fault."""
    try:
        records = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise InputError(f"malformed CSV: {exc}") from None
    if not records:
        raise EmptyDataset("input has no header row")
    header, records = records[0], records[1:]

    names = [normalize_name(h) for h in header]
    if len(set(names)) != len(names):
        raise InputError(f"duplicate column names after normalization: {names}")
    if FATIGUE not in names:
        raise MissingColumn("required column 'fatigue' is absent")

    psf_cols = [n for n in names if n not in (FATIGUE, DURATION)]
    data_records = [r for r in records if "".join(r).strip()]  # blank rows are skipped
    if not data_records:
        raise EmptyDataset("input has a header but no data rows")
    columns = _parse_columns(data_records, names)
    if columns is None or not _columns_valid(columns, psf_cols):
        _raise_first_error(records, names, psf_cols)
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


def csv_blocks(columns, header=()):
    """CSV text of a ``header`` row, if given, then the rows of ``columns``.

    ``columns`` are equally long lists, tuples, ranges or float arrays,
    as many as the header has cells.  A cell is a str, int or Python
    float (an array is converted a block at a time) and is written as
    ``str`` of it, so a float in its shortest exact form.  The text comes
    in blocks of whole rows of about ``CSV_BLOCK_CELLS`` cells: a block's
    cells are interleaved into one list by strided slice assignment and
    formatted in one call by a ``%s`` row template repeated per row.
    """
    k = len(columns)
    template = ",".join(["%s"] * k) + "\n"
    if header:
        yield template % tuple(header)
    n = len(columns[0])
    step = max(1, CSV_BLOCK_CELLS // k)
    for start in range(0, n, step):
        m = min(step, n - start)
        cells = [None] * (m * k)
        for j, column in enumerate(columns):
            part = column[start:start + m]
            cells[j::k] = part.tolist() if isinstance(part, np.ndarray) else part
        yield template * m % tuple(cells)


def serialize(dataset: Dataset) -> bytes:
    """Emit a dataset as CSV bytes; ``load_csv`` round-trips it exactly.

    Floats are written in their shortest exact form (``repr``), so values
    survive the round trip bit-for-bit.  Every row ends with the
    ``duration_hours`` cell ``1.0``.  The rows are formatted by
    :func:`csv_blocks`.
    """
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(
        list(dataset.psf_names) + [FATIGUE, DURATION]
    )
    stored = dataset.columns
    columns = [stored[c] for c in dataset.psf_names + (FATIGUE,)]
    out.writelines(csv_blocks(columns + [["1.0"] * dataset.n_rows]))
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

def standardize(dataset: Dataset, columns: list[str] | tuple[str, ...]) -> np.ndarray:
    """Center and scale the named columns to mean 0, sample sd 1.

    The divisor is n-1 (sample standard deviation).  Raises
    :class:`InputError` naming the first column whose mean or sample
    standard deviation overflows, :class:`ZeroVarianceColumn` naming the
    first constant column, and :class:`TooFewRows` when fewer than two
    rows are available.
    """
    if dataset.n_rows < 2:
        raise TooFewRows("standardization needs at least 2 rows")
    m = dataset.matrix(columns)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = m.mean(axis=0)
        sd = m.std(axis=0, ddof=1)
    for name, mu, s in zip(columns, mean, sd):
        if not (math.isfinite(mu) and math.isfinite(s)):
            raise InputError(
                f"column {name!r} is too large to standardize: its mean or sample "
                f"standard deviation overflows"
            )
        if s == 0.0:
            raise ZeroVarianceColumn(f"column {name!r} has zero sample variance")
    return (m - mean) / sd


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
