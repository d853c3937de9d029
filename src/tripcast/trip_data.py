"""Stop-level delivery log model: CSV ingestion, trip assembly, summary stats.

The raw unit is a stop row (one scheduled/actual arrival at one address);
the unit of analysis is the trip, an ordered sequence of stops sharing a
trip number. Both are held as numpy columns, never as one object per row:
a :class:`StopTable` has one entry per stop row and a :class:`TripTable`
one per trip. Trip numbers and cities are integer codes into arrays of
their distinct labels, stop numbers are int64 and timestamps
``datetime64[s]``. Rows that fail validation are rejected with diagnostics,
never silently coerced.

Neither end of the CSV does per-cell work in the ``csv`` module.
:func:`write_stops_csv` has ``csv.writer`` quote each distinct label once
and joins the rows itself. :func:`parse_stops_csv` splits a file in that
dialect on its bytes, by quote parity, and codes labels once per distinct
byte string. A file outside that dialect (a quote that does not wrap a
whole field, a lone ``\\r``, a NUL byte, a field over
``csv.field_size_limit()`` or a trip or city cell over 256 bytes) is parsed
from its start by ``csv.reader`` instead, with the same results. Both paths
number trip and city labels by first appearance. A file that is not UTF-8
is a ``DataError``.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
import statistics
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from types import SimpleNamespace
from typing import IO, Callable, Mapping, Sequence

import numpy as np

from .errors import DataError

TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%S"

#: Canonical stops CSV column order. A stops file's header must name all
#: eight, in any order; parsing reads the ``PARSED_COLUMNS`` among them.
CANONICAL_COLUMNS = (
    "trip_number",
    "trip_description",
    "stop_number",
    "client_name",
    "address",
    "city",
    "scheduled_time",
    "actual_time",
)

#: The columns parsing keeps; the free-text ones are only checked for in the header.
PARSED_COLUMNS = ("trip_number", "stop_number", "city", "scheduled_time", "actual_time")

#: Day-type buckets used by the per-day trip-count statistics.
DAY_TYPES = ("Weekday", "Saturday", "Sunday")

#: All standard deviations reported by :func:`summarize` use this convention.
STD_CONVENTION = "sample (n-1 denominator)"

#: Rows read, converted or written per batch; bounds the per-row Python objects alive at once.
CHUNK_ROWS = 1 << 15


@dataclass(slots=True, frozen=True)
class Coded:
    """A text column as int64 codes into an object array of labels."""

    codes: np.ndarray
    labels: np.ndarray


@dataclass(slots=True, frozen=True)
class StopTable:
    """Stop rows of the delivery log as columns, one entry per row.

    ``text`` holds free-text columns (``trip_description``, ``client_name``,
    ``address``) by their canonical name. Only the generator fills it, for
    the CSV it writes; parsing leaves it empty and nothing downstream reads it.
    """

    trip: Coded
    stop_number: np.ndarray
    city: Coded
    scheduled_time: np.ndarray
    actual_time: np.ndarray
    text: Mapping[str, Coded] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.stop_number)


@dataclass(slots=True, frozen=True)
class TripTable:
    """Assembled trips as columns, one entry per trip, sorted by trip id.

    Durations are in seconds. ``delay`` is actual minus scheduled duration
    and may be negative (the trip finished faster than planned);
    ``start_time`` is the first stop's scheduled time.
    """

    trip_ids: np.ndarray
    num_stops: np.ndarray
    num_cities: np.ndarray
    actual_duration: np.ndarray
    scheduled_duration: np.ndarray
    delay: np.ndarray
    start_time: np.ndarray

    def __len__(self) -> int:
        return len(self.trip_ids)


@dataclass(slots=True, frozen=True)
class RowDiagnostic:
    """Why one CSV row was rejected during parsing."""

    line_number: int
    reason: str


@dataclass(slots=True, frozen=True)
class TripDiagnostic:
    """Why one whole trip was rejected or excluded during assembly."""

    trip_id: str
    reason: str


@dataclass(slots=True)
class DatasetSummary:
    """Aggregate statistics over a table of trips (durations in hours)."""

    total_trips: int
    trips_per_day_mean: float
    trips_per_day_std: float
    trips_per_month_mean: float
    trips_per_month_std: float
    stops_per_trip_mean: float
    stops_per_trip_std: float
    cities_per_trip_mean: float
    cities_per_trip_std: float
    duration_mean: float
    duration_std: float
    delay_mean: float
    delay_std: float
    trips_per_daytype: dict[str, tuple[float, float]] = field(default_factory=dict)
    std_convention: str = STD_CONVENTION

    def as_rows(self) -> list[tuple[str, str]]:
        """Label/value pairs for human-readable output."""
        fmt = "{:.2f} ± {:.2f}".format
        rows = [
            ("Total number of trips", str(self.total_trips)),
            ("Trips per day", fmt(self.trips_per_day_mean, self.trips_per_day_std)),
            ("Trips per month", fmt(self.trips_per_month_mean, self.trips_per_month_std)),
            ("Stops per trip", fmt(self.stops_per_trip_mean, self.stops_per_trip_std)),
            ("Cities per trip", fmt(self.cities_per_trip_mean, self.cities_per_trip_std)),
            ("Trip duration (h)", fmt(self.duration_mean, self.duration_std)),
            ("Trip delay (h)", fmt(self.delay_mean, self.delay_std)),
        ]
        for day_type in DAY_TYPES:
            mean, std = self.trips_per_daytype.get(day_type, (0.0, 0.0))
            rows.append((f"Trips per {day_type}", fmt(mean, std)))
        rows.append(("Std convention", self.std_convention))
        return rows


# ---------------------------------------------------------------------------
# Parsing

#: Bytes the byte parse reads at a time; bounds its index arrays.
BLOCK_BYTES = 1 << 22

#: Longest trip or city cell the byte parse codes; a longer one sends the
#: file to ``csv.reader``, so that a label matrix stays within 8 MB.
_MAX_LABEL_BYTES = 256

_COMMA, _QUOTE, _LF, _CR = b',"\n\r'


class _OutsideDialect(Exception):
    """The file holds something the byte parse leaves to ``csv.reader``."""


_Labels = tuple[list[str], np.ndarray]  # a batch's labels, and per row the index of its label
_Points = tuple[np.ndarray, np.ndarray]  # a :func:`_code_points` pair


def _code(seen: dict[str, int], column: _Labels, keep: np.ndarray) -> np.ndarray:
    """Codes of the kept rows' labels; a label not in ``seen`` gets the next code, ``len(seen)``.

    Each distinct index is looked up once, in order of first appearance.
    """
    labels, index = column[0], column[1][keep]
    present, first = np.unique(index, return_index=True)
    present = present[np.argsort(first)]
    names = list(map(labels.__getitem__, present.tolist()))
    for label in dict.fromkeys(names):
        seen.setdefault(label, len(seen))
    codes = np.zeros(len(labels), np.int64)
    codes[present] = np.fromiter(map(seen.__getitem__, names), np.int64, len(names))
    return codes[index]


class _Columns:
    """The parsed columns of one file, batch by batch, and its rejects in line order."""

    def __init__(self) -> None:
        self.trips: dict[str, int] = {}  # label -> code, in order of first appearance
        self.cities: dict[str, int] = {}
        self.batches: list[tuple[np.ndarray, ...]] = []  # (trip, city, stop, scheduled, actual)
        self.rejects: list[RowDiagnostic] = []
        self.line = 2  # line number of the next non-blank row

    def add(
        self, trips: _Labels, cities: _Labels, stop: _Points, scheduled: _Points, actual: _Points,
        cells: Callable[[int], tuple[str, str, str]],
    ) -> None:
        """Convert, check and code one batch of rows.

        Trip and city labels come stripped. Rows that are not canonical go
        through :func:`_parse_row` with their trip and the raw stop number
        and stamps ``cells(i)`` returns; rejects are recorded and the line
        count moves on by the batch.
        """
        trip_labels, trip = trips
        stop_number, fast = _canonical_counts(*stop)
        scheduled_time, ok = _canonical_timestamps(*scheduled)
        fast &= ok
        actual_time, ok = _canonical_timestamps(*actual)
        fast &= ok & np.fromiter(map(bool, trip_labels), bool, len(trip_labels))[trip]
        keep = fast.copy()
        for i in np.flatnonzero(~fast):
            parsed, reason = _parse_row(trip_labels[trip[i]], *cells(i))
            if parsed is None:
                self.rejects.append(RowDiagnostic(self.line + int(i), reason))
            else:
                stop_number[i], scheduled_time[i], actual_time[i] = parsed
                keep[i] = True
        self.line += len(keep)
        codes = _code(self.trips, trips, keep), _code(self.cities, cities, keep)
        self.batches.append((*codes, stop_number[keep], scheduled_time[keep], actual_time[keep]))

    def table(self, path: Path) -> tuple[StopTable, list[RowDiagnostic]]:
        if sum(len(batch[0]) for batch in self.batches) == 0:
            raise DataError(f"stops file {path} contains no valid rows")
        trip, city, stop_number, scheduled, actual = (np.concatenate(c) for c in zip(*self.batches))
        stops = StopTable(
            trip=Coded(trip, np.array(list(self.trips), dtype=object)),
            stop_number=stop_number,
            city=Coded(city, np.array(list(self.cities), dtype=object)),
            scheduled_time=scheduled,
            actual_time=actual,
        )
        return stops, self.rejects


def parse_stops_csv(path: str | Path) -> tuple[StopTable, list[RowDiagnostic]]:
    """Read a stops CSV and return (valid rows, per-row reject diagnostics).

    The header must name the eight ``CANONICAL_COLUMNS``, in any order.
    Raises ``DataError`` if the file is missing, is not UTF-8, lacks a
    column in its header, or no row parses — partial results are never
    returned for structural failures.

    Rows follow ``csv.DictReader``: blank lines are skipped and not counted
    in line numbers, missing cells read as empty, extra cells are ignored,
    and a header name given twice reads its last column. Cells in canonical
    form (an unpadded positive ASCII stop number, ``YYYY-MM-DDTHH:MM:SS``
    timestamps) convert a batch at a time; every other row goes through
    :func:`_parse_row`, which accepts what ``int`` and ``strptime`` accept
    after stripping whitespace and says why it rejects a row. Trip and city
    labels are numbered in order of first appearance among the kept rows.

    A file in the dialect ``write_stops_csv`` writes is split into records
    and fields on its bytes (:func:`_parse_bytes`). Any other file is read
    from the start by ``csv.reader`` (:func:`_parse_text`); the two give
    the same rows, labels and rejects.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"stops file not found: {path}")
    try:
        try:
            parsed = _parse_bytes(path)
        except _OutsideDialect:
            parsed = _parse_text(path)
    except UnicodeDecodeError:
        try:
            path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as error:  # offsets in the file, not in a decoded chunk
            raise DataError(f"stops file {path} is not UTF-8: {error.reason} at byte {error.start}") from None
        raise
    return parsed.table(path)


def _column_positions(header: list[str] | None, path: Path) -> list[int]:
    """Where each of ``PARSED_COLUMNS`` is in the header; a missing column is a ``DataError``."""
    if header is None:
        raise DataError(f"stops file has no header row: {path}")
    missing = [c for c in CANONICAL_COLUMNS if c not in header]
    if missing:
        raise DataError(f"stops file {path} is missing mandatory column(s): {', '.join(missing)}")
    last = {name: i for i, name in enumerate(header)}
    return [last[c] for c in PARSED_COLUMNS]


def _parse_text(path: Path) -> _Columns:
    """Parse any CSV with ``csv.reader``, a batch of ``CHUNK_ROWS`` rows at a time."""
    out = _Columns()
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        columns = _column_positions(next(reader, None), path)
        width = max(columns) + 1
        rows = filter(None, reader)
        while chunk := list(itertools.islice(rows, CHUNK_ROWS)):
            for i in np.flatnonzero(np.fromiter(map(len, chunk), np.int64, len(chunk)) < width):
                chunk[i] = chunk[i] + [""] * (width - len(chunk[i]))
            trip, stop, city, scheduled, actual = zip(*map(operator.itemgetter(*columns), chunk))
            index = np.arange(len(chunk))
            out.add(
                (list(map(str.strip, trip)), index),
                (list(map(str.strip, city)), index),
                _code_points(stop, _MAX_DIGITS),
                _code_points(scheduled, _STAMP_WIDTH),
                _code_points(actual, _STAMP_WIDTH),
                lambda i: (stop[i], scheduled[i], actual[i]),
            )
    return out


def _parse_bytes(path: Path) -> _Columns:
    """Parse a CSV in ``write_stops_csv``'s dialect from its bytes, ``BLOCK_BYTES`` at a time.

    Each block is cut after its last record; the rest is carried into the
    next. Raises ``_OutsideDialect`` for a file ``csv.reader`` might read
    differently (see :func:`_split`) and for a trip or city cell longer
    than ``_MAX_LABEL_BYTES``.
    """
    out = _Columns()
    columns = None
    with path.open("rb") as handle:
        rest = b""
        while True:
            block = handle.read(BLOCK_BYTES)
            data = rest + block
            split = _split(data, at_end=not block)
            if split is None:
                rest = data
                continue
            rest = data[split.used :]
            first = 0
            if columns is None:  # the first record is the header, even if blank
                header_end = split.terms[split.record_end[0]] + 1 if len(split.record_end) else 0
                header = next(csv.reader(io.StringIO(data[:header_end].decode("utf-8"), newline="")), None)
                columns = _column_positions(header, path)
                first = 1
            body = np.flatnonzero(~split.blank[first:]) + first
            for lo in range(0, body.size, CHUNK_ROWS):
                _byte_batch(split, body[lo : lo + CHUNK_ROWS], columns, out)
            if not block:
                return out


@dataclass(slots=True, frozen=True)
class _Split:
    """Records and fields of the leading whole records of a byte buffer.

    ``terms`` holds the position of every field's terminator (a ``,`` or
    ``\\n`` outside quotes, or the end of the file); field ``t`` spans
    ``starts[t]:ends[t]``, quotes included and a ``\\r`` before its
    ``\\n`` excluded. Record ``r`` is fields ``record_end[r] - n_fields[r] + 1``
    to ``record_end[r]``.
    """

    data: bytes
    windows: np.ndarray  # row i: the _MAX_LABEL_BYTES bytes from data[i], zero past the end
    used: int
    terms: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    record_end: np.ndarray
    n_fields: np.ndarray
    blank: np.ndarray


def _split(data: bytes, at_end: bool) -> _Split | None:
    """Split the whole records of ``data`` by quote parity; None if it holds none yet.

    A ``,``, ``\\n`` or ``\\r`` separates only outside quotes, that is after
    an even number of ``"``. Raises ``_OutsideDialect`` unless every quote
    wraps a whole field with no quote inside, every ``\\r`` outside quotes
    ends a ``\\r\\n``, the file holds no NUL byte, its non-ASCII bytes are
    UTF-8 and no field is longer than ``csv.field_size_limit()``: then
    ``csv.reader`` splits the records and fields at the same bytes.
    """
    b = np.frombuffer(data, np.uint8)
    at = np.flatnonzero((b == _COMMA) | (b == _QUOTE) | (b == _LF) | (b == _CR))
    kind = b[at]
    quote = kind == _QUOTE
    outside = (np.cumsum(quote) & 1) == 0  # for a separator; a quote counts itself
    lf = (kind == _LF) & outside
    if at_end:
        used = len(b)
    elif lf.any():
        used = int(at[np.flatnonzero(lf)[-1]]) + 1
    else:
        return None
    cut = np.searchsorted(at, used)
    at, kind, quote, outside = at[:cut], kind[:cut], quote[:cut], outside[:cut]
    if not b[:used].all():
        raise _OutsideDialect("NUL byte")
    if used and b[:used].max() >= 0x80:
        try:
            data[:used].decode("utf-8")
        except UnicodeDecodeError:
            raise _OutsideDialect("not UTF-8") from None

    quotes = at[quote]
    if quotes.size % 2:
        raise _OutsideDialect("unclosed quote")
    opens, closes = quotes[0::2], quotes[1::2]
    before = np.where(opens > 0, b[opens - 1], _LF)
    after = np.where(closes + 1 < used, b[np.minimum(closes + 1, used - 1)], _LF)
    if not (np.isin(before, (_COMMA, _LF)).all() and np.isin(after, (_COMMA, _LF, _CR)).all()):
        raise _OutsideDialect("quote inside a field")
    cr = at[(kind == _CR) & outside]
    if not (b[np.minimum(cr + 1, used - 1)] == _LF).all():  # a \r at the very end reads itself
        raise _OutsideDialect("lone \\r")

    is_term = ((kind == _COMMA) | (kind == _LF)) & outside
    terms, is_end = at[is_term], kind[is_term] == _LF
    if used > (terms[is_end][-1] + 1 if is_end.any() else 0):  # a last record with no \n
        terms, is_end = np.append(terms, used), np.append(is_end, True)
    starts = np.concatenate(([0], terms + 1))[:-1]
    if (terms - starts).max(initial=0) > csv.field_size_limit():
        raise _OutsideDialect("field over the csv size limit")
    ends = terms.copy()
    ends[np.searchsorted(terms, cr + 1)] -= 1
    record_end = np.flatnonzero(is_end)
    n_fields = np.diff(record_end, prepend=-1)
    blank = (n_fields == 1) & (ends[record_end] == starts[record_end])
    padded = np.concatenate((b, np.zeros(_MAX_LABEL_BYTES, np.uint8)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, _MAX_LABEL_BYTES)
    return _Split(data, windows, used, terms, starts, ends, record_end, n_fields, blank)


def _byte_batch(split: _Split, records: np.ndarray, columns: Sequence[int], out: _Columns) -> None:
    """Cut the cells of the non-blank ``records`` of ``split`` and hand them to ``out`` as one batch."""
    first_field = split.record_end[records] - split.n_fields[records] + 1
    cells = []
    for j in columns:
        has = j < split.n_fields[records]
        t = np.where(has, first_field + j, 0)
        start, end = np.where(has, split.starts[t], 0), np.where(has, split.ends[t], 0)
        quoted = (end > start) & (split.windows[start, 0] == _QUOTE)
        cells.append((start + quoted, end - start - 2 * quoted))
    trip, stop, city, scheduled, actual = cells

    def text(i):
        return tuple(split.data[at[i] : at[i] + n[i]].decode("utf-8") for at, n in (stop, scheduled, actual))

    out.add(
        _byte_labels(split, *trip),
        _byte_labels(split, *city),
        _byte_points(split, *stop, _MAX_DIGITS),
        _byte_points(split, *scheduled, _STAMP_WIDTH),
        _byte_points(split, *actual, _STAMP_WIDTH),
        text,
    )


def _byte_labels(split: _Split, start: np.ndarray, length: np.ndarray) -> _Labels:
    """The distinct cells ``data[start:start + length]``, decoded and stripped, and each cell's index into them."""
    width = int(length.max(initial=1))
    if width > _MAX_LABEL_BYTES:
        raise _OutsideDialect("label over _MAX_LABEL_BYTES")
    cells = np.where(np.arange(width) < length[:, None], split.windows[start, :width], 0)
    cells = cells.view(f"S{width}").ravel()
    # A label mostly repeats on the next row: sort only the first cell of each run.
    run = np.ones(cells.size, dtype=bool)
    run[1:] = cells[1:] != cells[:-1]
    distinct, index = np.unique(cells[run], return_inverse=True)
    return [cell.decode("utf-8").strip() for cell in distinct.tolist()], index[np.cumsum(run) - 1]


def _byte_points(split: _Split, start: np.ndarray, length: np.ndarray, width: int) -> _Points:
    """Like :func:`_code_points`, for the cells ``data[start:start + length]`` of a split buffer."""
    return split.windows[start, :width].astype(np.int32) - ord("0"), length


def _parse_row(
    trip: str, raw_stop: str, raw_scheduled: str, raw_actual: str
) -> tuple[tuple[int, datetime, datetime] | None, str]:
    """One row the canonical fast path did not take: its values, or why it is rejected."""
    if not trip:
        return None, "empty trip_number"
    raw_stop = raw_stop.strip()
    try:
        stop_number = int(raw_stop)
    except ValueError:
        return None, f"stop_number {raw_stop!r} is not an integer"
    if stop_number < 1:
        return None, f"stop_number {stop_number} < 1"
    if stop_number > np.iinfo(np.int64).max:
        return None, f"stop_number {raw_stop!r} is out of range"
    stamps = []
    for name, raw in (("scheduled_time", raw_scheduled), ("actual_time", raw_actual)):
        try:
            stamps.append(datetime.strptime(raw.strip(), TIMESTAMP_FORMAT))
        except ValueError:
            return None, f"unparseable {name} {raw!r}"
    return (stop_number, *stamps), ""


#: Longest stop number taken by the fast path; 18 digits always fit in int64.
_MAX_DIGITS = 18


def _code_points(cells: Sequence[str], width: int) -> _Points:
    """(n, width) int32 code points minus ord('0'), zero-padded, and each cell's length.

    Longer cells are cut to ``width``; callers compare the lengths to tell.
    A cell whose last characters are NULs reads shorter here than its
    length, which no caller's shape test accepts.
    """
    n = len(cells)
    lengths = np.fromiter(map(len, cells), np.int64, n)
    points = np.array(cells, dtype=f"U{width}").view(np.uint32).reshape(n, width)
    return points.astype(np.int32) - ord("0"), lengths


def _canonical_counts(digits: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of cells of 1 to 18 ASCII digits with a value >= 1, and which cells those are.

    Takes a :func:`_code_points` pair, cut to ``_MAX_DIGITS``.
    """
    inside = np.arange(_MAX_DIGITS) < lengths[:, None]
    is_digit = (digits >= 0) & (digits <= 9)
    value = np.zeros(len(lengths), np.int64)
    for j in range(_MAX_DIGITS):
        value = np.where(inside[:, j], value * 10 + digits[:, j], value)
    ok = (lengths <= _MAX_DIGITS) & np.all(is_digit | ~inside, axis=1) & (value >= 1)
    return value, ok


#: Positions of the digits and separators in ``YYYY-MM-DDTHH:MM:SS``.
_STAMP_WIDTH = 19
_STAMP_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_STAMP_SEPARATORS = {4: "-", 7: "-", 10: "T", 13: ":", 16: ":"}


def _canonical_timestamps(d: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Times of cells shaped exactly ``YYYY-MM-DDTHH:MM:SS`` naming a real second.

    Takes a :func:`_code_points` pair, cut to ``_STAMP_WIDTH``. Returns
    ``datetime64[s]`` values (meaningless where not accepted) and the
    acceptance mask. Everything accepted here ``strptime`` accepts with
    the same value; the rest is left to it.
    """
    ok = (lengths == _STAMP_WIDTH) & np.all((d[:, _STAMP_DIGITS] >= 0) & (d[:, _STAMP_DIGITS] <= 9), axis=1)
    for pos, sep in _STAMP_SEPARATORS.items():
        ok &= d[:, pos] == ord(sep) - ord("0")
    d = np.where(ok[:, None], d, 0)

    def number(first: int, last: int) -> np.ndarray:
        value = np.zeros(len(lengths), np.int64)
        for j in range(first, last):
            value = value * 10 + d[:, j]
        return value

    year, month, day = number(0, 4), number(5, 7), number(8, 10)
    hour, minute, second = number(11, 13), number(14, 16), number(17, 19)
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (hour <= 23) & (minute <= 59) & (second <= 59)
    month_start = ((year - 1970) * 12 + np.clip(month, 1, 12) - 1).astype("datetime64[M]")
    first_day = month_start.astype("datetime64[D]")
    days_in_month = ((month_start + 1).astype("datetime64[D]") - first_day).astype(np.int64)
    ok &= (day >= 1) & (day <= days_in_month)
    seconds = hour * 3600 + minute * 60 + second
    return first_day.astype("datetime64[s]") + (day - 1) * 86400 + seconds, ok


# ---------------------------------------------------------------------------
# Writing


def write_stops_csv(stops: StopTable, handle: IO[str]) -> int:
    """Write stop rows to an open text handle in canonical CSV form; row count.

    Writes the bytes ``csv.writer`` would: each distinct label of a coded
    column is quoted once, by ``csv.writer`` itself, and each row joined
    from those strings, ``str`` stop numbers and ``datetime_as_string``
    stamps. Free-text columns that ``stops.text`` does not hold are
    written empty.
    """
    csv.writer(handle).writerow(CANONICAL_COLUMNS)
    coded = {"trip_number": stops.trip, "city": stops.city, **stops.text}
    quoted = {name: _quoted(column.labels) for name, column in coded.items()}
    n = len(stops)
    for lo in range(0, n, CHUNK_ROWS):
        part = slice(lo, lo + CHUNK_ROWS)
        cells = []
        for name in CANONICAL_COLUMNS:
            if name in coded:
                cells.append(quoted[name][coded[name].codes[part]].tolist())
            elif name == "stop_number":
                cells.append(map(str, stops.stop_number[part].tolist()))
            elif name in ("scheduled_time", "actual_time"):
                cells.append(np.datetime_as_string(getattr(stops, name)[part], unit="s").tolist())
            else:
                cells.append(itertools.repeat(""))
        handle.write("\r\n".join(map(",".join, zip(*cells))))
        handle.write("\r\n")
    return n


def _quoted(labels: np.ndarray) -> np.ndarray:
    """Each label as ``csv.writer`` writes it inside a row of several cells."""
    rows: list[str] = []
    # One write per row; a second, empty cell keeps an empty label from being written as "".
    csv.writer(SimpleNamespace(write=rows.append)).writerows(zip(labels.tolist(), itertools.repeat("")))
    return np.array([row[: -len(",\r\n")] for row in rows], dtype=object)


# ---------------------------------------------------------------------------
# Assembly and statistics


def assemble_trips(stops: StopTable) -> tuple[TripTable, list[TripDiagnostic]]:
    """Group stop rows into trips and derive per-trip fields.

    One trip per distinct trip number, stops ordered by stop number. Trips
    are returned sorted by trip id, so any permutation of the input rows
    yields the same output. Trips with duplicate stop numbers, fewer than 2
    stops, or a negative actual duration are excluded with a diagnostic, in
    trip id order.
    """
    ids, trip_of_label = np.unique(stops.trip.labels, return_inverse=True)
    _, city_of_label = np.unique(stops.city.labels, return_inverse=True)
    trip = trip_of_label[stops.trip.codes]
    city = city_of_label[stops.city.codes]
    order = np.lexsort((stops.stop_number, trip))
    trip_sorted, stop_sorted = trip[order], stops.stop_number[order]

    n = len(order)
    new_trip = np.ones(n, dtype=bool)
    new_trip[1:] = trip_sorted[1:] != trip_sorted[:-1]
    starts = np.flatnonzero(new_trip)
    ends = np.append(starts[1:], n)
    first, last = order[starts], order[ends - 1]
    repeated = ~new_trip
    repeated[1:] &= stop_sorted[1:] == stop_sorted[:-1]
    has_duplicate = np.add.reduceat(repeated, starts) > 0

    num_stops = ends - starts
    pairs = np.sort(trip * len(city_of_label) + city)
    distinct = np.ones(n, dtype=bool)
    distinct[1:] = pairs[1:] != pairs[:-1]
    num_cities = np.add.reduceat(distinct, starts)  # pairs sort trip-major, like the groups
    actual = (stops.actual_time[last] - stops.actual_time[first]).astype(np.int64).astype(np.float64)
    scheduled = (stops.scheduled_time[last] - stops.scheduled_time[first]).astype(np.int64).astype(np.float64)

    trip_ids = ids[trip_sorted[starts]]
    excluded = has_duplicate | (num_stops < 2) | (actual < 0)
    diagnostics = []
    for t in np.flatnonzero(excluded):
        if has_duplicate[t]:
            numbers, counts = np.unique(stop_sorted[starts[t] : ends[t]], return_counts=True)
            reason = f"duplicate stop_number(s): {numbers[counts > 1].tolist()}"
        elif num_stops[t] < 2:
            reason = "fewer than 2 stops; duration undefined"
        else:
            reason = "negative actual duration (last stop before first)"
        diagnostics.append(TripDiagnostic(trip_ids[t], reason))

    kept = ~excluded
    trips = TripTable(
        trip_ids=trip_ids[kept],
        num_stops=num_stops[kept],
        num_cities=num_cities[kept],
        actual_duration=actual[kept],
        scheduled_duration=scheduled[kept],
        delay=actual[kept] - scheduled[kept],
        start_time=stops.scheduled_time[first][kept],
    )
    return trips, diagnostics


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    if not values:
        return 0.0, 0.0
    mean = math.fsum(values) / len(values)
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return mean, std


def summarize(trips: TripTable) -> DatasetSummary:
    """Dataset-level statistics over assembled trips.

    Per-day counts group by the calendar date of the trip start; day types
    are Weekday / Saturday / Sunday. Standard deviations use the sample
    (n-1) convention; groups with a single member report std 0.
    """
    if len(trips) == 0:
        raise DataError("summarize() requires at least one trip")

    days, per_day = np.unique(trips.start_time.astype("datetime64[D]"), return_counts=True)
    _, per_month = np.unique(trips.start_time.astype("datetime64[M]"), return_counts=True)

    day_mean, day_std = _mean_std(per_day.tolist())
    month_mean, month_std = _mean_std(per_month.tolist())
    stops_mean, stops_std = _mean_std(trips.num_stops.tolist())
    cities_mean, cities_std = _mean_std(trips.num_cities.tolist())
    dur_mean, dur_std = _mean_std((trips.actual_duration / 3600.0).tolist())
    delay_mean, delay_std = _mean_std((trips.delay / 3600.0).tolist())

    kind = np.maximum(weekdays(days) - 4, 0)  # index into DAY_TYPES
    trips_per_daytype = {d: _mean_std(per_day[kind == k].tolist()) for k, d in enumerate(DAY_TYPES)}

    return DatasetSummary(
        total_trips=len(trips),
        trips_per_day_mean=day_mean,
        trips_per_day_std=day_std,
        trips_per_month_mean=month_mean,
        trips_per_month_std=month_std,
        stops_per_trip_mean=stops_mean,
        stops_per_trip_std=stops_std,
        cities_per_trip_mean=cities_mean,
        cities_per_trip_std=cities_std,
        duration_mean=dur_mean,
        duration_std=dur_std,
        delay_mean=delay_mean,
        delay_std=delay_std,
        trips_per_daytype=trips_per_daytype,
    )


def weekdays(days: np.ndarray) -> np.ndarray:
    """Monday=0 .. Sunday=6 of ``datetime64`` dates (1970-01-01 was a Thursday)."""
    return (days.astype("datetime64[D]").astype(np.int64) + 3) % 7


def day_type_of(date) -> str:
    """Map a date to Weekday / Saturday / Sunday."""
    dow = date.weekday()
    if dow == 5:
        return "Saturday"
    if dow == 6:
        return "Sunday"
    return "Weekday"
