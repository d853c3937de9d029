"""Stop-level delivery log model: CSV ingestion, trip assembly, summary stats.

The raw unit is a stop row (one scheduled/actual arrival at one address);
the unit of analysis is the trip, an ordered sequence of stops sharing a
trip number. Both are held as numpy columns, never as one object per row:
a :class:`StopTable` has one entry per stop row and a :class:`TripTable`
one per trip. Trip numbers and cities are integer codes into arrays of
their distinct labels, stop numbers are int64 and timestamps
``datetime64[s]``. Rows that fail validation are rejected with diagnostics,
never silently coerced: every cell is read by one grammar (:func:`parse_stops_csv`).

Neither end of the CSV does per-cell work in the ``csv`` module.
:func:`write_stops_csv` has ``csv.writer`` quote each distinct label once
and joins the rows itself. :func:`parse_stops_csv` reads that dialect, and
only that dialect, from the file's bytes: it splits records and fields by
quote parity and codes labels once per distinct byte string, numbered by
first appearance. Any other file is a ``DataError`` naming the offset of
the byte where it leaves the dialect: a quote that does not wrap a whole
field, an unclosed quote, a lone ``\\r``, a NUL byte, bytes that are not
UTF-8, a stripped trip or city cell over 256 bytes, or a record not ended
within 4 MiB. The parse reads ``BLOCK_BYTES`` (1 MiB) at a time and lets
go of each block's buffers before it splits the next, so what it holds
besides the rows parsed so far does not grow with the file.
"""

from __future__ import annotations

import csv
import itertools
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import IO, Mapping, Sequence

import numpy as np

from .checks import input_file
from .errors import DataError

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

#: Rows converted or written per batch. It bounds the per-row arrays and
#: Python strings alive at once: the writer's per-chunk strings, about 5 MB at
#: 8,192 rows, were 17 MB at 32,768.
CHUNK_ROWS = 1 << 13


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

#: Bytes the parse reads at a time; bounds its buffers and index arrays.
BLOCK_BYTES = 1 << 20

#: Longest record the parse reads, its line end not counted. A record that
#: has not ended within it is refused, so the buffer a record is sought in
#: stays within it plus one block (5 MiB).
_MAX_RECORD_BYTES = 1 << 22

#: Longest trip or city cell the parse codes, stripped, so that a label matrix stays within 8 MB.
_MAX_LABEL_BYTES = 256

_COMMA, _QUOTE, _LF, _CR = b',"\n\r'

#: Why a row is rejected, by fault code, in the order a row's cells are checked;
#: ``{}`` is the repr of the cell at fault, a stop number stripped and a stamp as it stands.
_REASONS = (
    "", "empty trip_number", "stop_number {} is not an integer", "stop_number 0 < 1", "stop_number {} is out of range",
    "unparseable scheduled_time {}", "unparseable actual_time {}",
)
_EMPTY_TRIP, _NOT_INTEGER, _BELOW_ONE, _OUT_OF_RANGE, _SCHEDULED, _ACTUAL = range(1, len(_REASONS))

_Labels = tuple[list[str], np.ndarray]  # a batch's labels, and per row the index of its label


def _refuse(path: Path, at: int, reason: str) -> DataError:
    """The error for a stops file that leaves the writer's dialect at byte ``at``."""
    return DataError(f"stops file {path} {reason} at byte {at}")


def _code(seen: dict[str, int], column: _Labels, keep: np.ndarray) -> np.ndarray:
    """Codes of the kept rows' labels; a label not in ``seen`` gets the next code, ``len(seen)``.

    Each distinct index is looked up once, in order of first appearance.
    """
    labels, index = column[0], column[1][keep]
    present, first = np.unique(index, return_index=True)
    present = present[np.argsort(first)]
    codes = np.zeros(len(labels), np.int64)
    codes[present] = [seen.setdefault(labels[i], len(seen)) for i in present.tolist()]
    return codes[index]


class _Columns:
    """The parsed columns of one file, batch by batch, and its rejects in line order."""

    def __init__(self) -> None:
        self.trips: dict[str, int] = {}  # label -> code, in order of first appearance
        self.cities: dict[str, int] = {}
        self.batches: list[tuple[np.ndarray, ...]] = []  # (trip, city, stop, scheduled, actual)
        self.rejects: list[RowDiagnostic] = []
        self.line = 2  # line number of the next non-blank row

    def add(self, split: _Split, records: np.ndarray, columns: Sequence[int]) -> None:
        """Convert, check and code the non-blank ``records`` of ``split`` as one batch.

        ``columns`` are the fields that hold the ``PARSED_COLUMNS``; a record
        that ends before one reads it empty. Each row's first fault, in
        ``_REASONS`` order, comes from the batch's masks; Python runs once per
        reject, to write its reason. The line count moves on by the batch.
        """
        fields = np.asarray(columns)[:, None]  # a row of cells per parsed column
        first_field = split.record_end[records] - split.n_fields[records] + 1
        has = fields < split.n_fields[records]
        start, length = split.cells(np.where(has, first_field + fields, 0))
        length = np.where(has, length, 0)
        trip, stop, city, scheduled, actual = zip(*_strip(split, start, length, _SPACE))
        trips, cities = _byte_labels(split, *trip, "trip_number"), _byte_labels(split, *city, "city")
        stop_number, stop_fault = _stop_numbers(split, *stop)
        scheduled_time, scheduled_ok = _canonical_timestamps(split, *scheduled)
        actual_time, actual_ok = _canonical_timestamps(split, *actual)
        faults = [trip[1] == 0, stop_fault > 0, ~scheduled_ok, ~actual_ok]
        fault = np.select(faults, [_EMPTY_TRIP, stop_fault, _SCHEDULED, _ACTUAL], 0)
        shown = {_SCHEDULED: (start[3], length[3]), _ACTUAL: (start[4], length[4])}  # else the stop number
        for i in np.flatnonzero(fault):
            at, n = shown.get(fault[i], stop)
            reason = _REASONS[fault[i]].format(repr(split.text(at[i], n[i])))
            self.rejects.append(RowDiagnostic(self.line + int(i), reason))
        self.line += len(fault)
        keep = fault == 0
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
    Raises ``DataError`` if the path is missing or not a regular file, if
    the header lacks a column, if the file leaves the dialect
    ``write_stops_csv`` writes, or if no row parses — partial results are
    never returned for structural failures. A file leaves the dialect at a
    fault :func:`_split` names or at a stripped trip or city cell over
    ``_MAX_LABEL_BYTES``; the error names the reason and the offset in the
    file of the first fault the parse meets.

    Rows follow ``csv.DictReader``: blank lines are skipped and not counted
    in line numbers, missing cells read as empty, extra cells are ignored,
    and a header name given twice reads its last column. A cell is stripped
    of the ASCII whitespace ``bytes.strip()`` removes; then a trip must not
    be empty, a stop number is 1 to 19 ASCII digits worth 1 to 2**63 - 1,
    and a stamp is exactly ``YYYY-MM-DDTHH:MM:SS`` naming a real second. A
    row is rejected for its first fault in that order, so ``+3``, ``1_000``,
    ``٧`` and ``2019-3-5T1:2:3`` are rejects. Trip and city labels are
    numbered in order of first appearance among the kept rows.

    The file is read ``BLOCK_BYTES`` at a time and split into records and
    fields on its bytes. Each block is cut after its last record; the rest
    is carried into the next. A block's buffers are let go before the next
    is split, so while it reads, the parse holds at most about seven blocks
    under ``tracemalloc`` besides the rows it has parsed, whatever the
    file's size: the block's bytes, as read and padded for cell reads, its
    field indexes and one ``CHUNK_ROWS`` batch's conversions.
    """
    path = input_file(path, "stops file")
    out = _Columns()
    columns = None
    offset, rest = 0, b""
    with path.open("rb") as handle:
        while True:
            block = handle.read(BLOCK_BYTES)
            data = rest + block
            split = _split(path, data, offset, at_end=not block)
            if split is None:
                rest = data
                continue
            rest, offset = data[split.used :], offset + split.used
            first = int(columns is None)  # the first record is the header, even if blank
            if first:
                columns = _column_positions(split)
            body = np.flatnonzero(~split.blank[first:]) + first
            for lo in range(0, body.size, CHUNK_ROWS):
                out.add(split, body[lo : lo + CHUNK_ROWS], columns)
            if not block:
                return out.table(path)
            del split  # the next block is split without this one's buffers


def _column_positions(split: _Split) -> list[int]:
    """Where each of ``PARSED_COLUMNS`` is in the header, the first record of ``split``.

    An empty file or a header that lacks a column is a ``DataError``.
    """
    if not len(split.record_end):
        raise DataError(f"stops file has no header row: {split.path}")
    # The first record's fields are the first fields of the split.
    header = [split.text(at, n) for at, n in zip(*split.cells(np.arange(split.n_fields[0])))]
    missing = [c for c in CANONICAL_COLUMNS if c not in header]
    if missing:
        raise DataError(f"stops file {split.path} is missing mandatory column(s): {', '.join(missing)}")
    last = {name: i for i, name in enumerate(header)}
    return [last[c] for c in PARSED_COLUMNS]


@dataclass(slots=True, frozen=True)
class _Split:
    """Records and fields of the leading whole records of a byte buffer.

    ``data`` starts at byte ``offset`` of the file at ``path``. Field ``t``
    spans ``starts[t]:ends[t]``, up to its terminator (a ``,`` or ``\\n``
    outside quotes, or the end of the file), quotes included and a ``\\r``
    before its ``\\n`` excluded. Record ``r`` is fields
    ``record_end[r] - n_fields[r] + 1`` to ``record_end[r]``.
    """

    path: Path
    data: bytes
    offset: int
    windows: np.ndarray  # row i: the _MAX_LABEL_BYTES bytes from data[i], zero past the end
    used: int
    starts: np.ndarray
    ends: np.ndarray
    record_end: np.ndarray
    n_fields: np.ndarray
    blank: np.ndarray

    def cells(self, fields: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where the text of each field in ``fields`` starts, and its length, enclosing quotes left out."""
        start, end = self.starts[fields], self.ends[fields]
        quoted = (end > start) & (self.windows[start, 0] == _QUOTE)
        return start + quoted, end - start - 2 * quoted

    def text(self, at: int, length: int) -> str:
        """The cell text ``data[at:at + length]``, each ``""`` read as ``"``."""
        return self.data[at : at + length].decode("utf-8").replace('""', '"')


def _split(path: Path, data: bytes, offset: int, at_end: bool) -> _Split | None:
    """Split the whole records of ``data``, byte ``offset`` on in ``path``; None if it holds none yet.

    A ``,`` or ``\\n`` separates fields and records only outside quotes,
    that is after an even number of ``"``. This reads ``csv.writer``'s
    dialect: a quote opens a field and closes it, and inside a quoted field
    a ``""`` stands for one ``"``. Anything else is a ``DataError`` at the
    first byte that is
    - a quote that does not wrap a whole field, or one left unclosed;
    - a ``\\r`` outside quotes that does not come before a ``\\n``;
    - a NUL byte, or not UTF-8;
    - the start of a record that has not ended within ``_MAX_RECORD_BYTES``.
    """
    b = np.frombuffer(data, np.uint8)
    at = np.flatnonzero((b == _COMMA) | (b == _QUOTE) | (b == _LF) | (b == _CR))
    kind = b[at]
    quote = kind == _QUOTE
    outside = (np.cumsum(quote) & 1) == 0  # for a separator; a quote counts itself
    lf = (kind == _LF) & outside
    if at_end:
        used = len(b)
    else:
        used = int(at[np.flatnonzero(lf)[-1]]) + 1 if lf.any() else 0
        if not used and len(b) <= _MAX_RECORD_BYTES:
            return None
    cut = np.searchsorted(at, used)
    at, kind, quote, outside = at[:cut], kind[:cut], quote[:cut], outside[:cut]
    is_term = ((kind == _COMMA) | (kind == _LF)) & outside
    terms, is_end = at[is_term], kind[is_term] == _LF
    if used > (terms[is_end][-1] + 1 if is_end.any() else 0):  # a last record with no \n
        terms, is_end = np.append(terms, used), np.append(is_end, True)
    starts = np.concatenate(([0], terms + 1))[:-1]
    record_end = np.flatnonzero(is_end)
    n_fields = np.diff(record_end, prepend=-1)

    faults = []  # (position in data, reason); the first is refused
    if not b[:used].all():
        faults.append((int(np.argmin(b[:used])), "has a NUL byte"))
    if used and b[:used].max() >= 0x80:
        try:
            data[:used].decode("utf-8")
        except UnicodeDecodeError as error:
            faults.append((error.start, f"is not UTF-8: {error.reason}"))
    quotes = at[quote]
    if quotes.size % 2:
        faults.append((int(quotes[-1]), "has an unclosed quote"))
    # A quote pair sits between separators, or next to another pair: a "" inside a quoted field.
    opens, closes = quotes[0::2], quotes[1::2]
    before = np.where(opens > 0, b[opens - 1], _LF)
    after = np.where(closes + 1 < used, b[np.minimum(closes + 1, used - 1)], _LF)
    stray = np.concatenate((
        opens[~np.isin(before, (_COMMA, _LF, _QUOTE))], closes[~np.isin(after, (_COMMA, _LF, _CR, _QUOTE))]
    ))
    if stray.size:
        faults.append((int(stray.min()), "has a quote that does not wrap a whole field"))
    cr = at[(kind == _CR) & outside]
    lone = cr[b[np.minimum(cr + 1, used - 1)] != _LF]  # a \r at the very end reads itself
    if lone.size:
        faults.append((int(lone[0]), "has a lone \\r"))
    record_start = starts[record_end - n_fields + 1]
    long = record_start[terms[record_end] - record_start > _MAX_RECORD_BYTES]
    if long.size or len(b) - used > _MAX_RECORD_BYTES:
        faults.append((int(long[0]) if long.size else used, f"has a record over {_MAX_RECORD_BYTES} bytes"))
    if faults:
        at, reason = min(faults)
        raise _refuse(path, offset + at, reason)

    ends = terms.copy()
    ends[np.searchsorted(terms, cr + 1)] -= 1
    blank = (n_fields == 1) & (ends[record_end] == starts[record_end])
    padded = np.concatenate((b, np.zeros(_MAX_LABEL_BYTES, np.uint8)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, _MAX_LABEL_BYTES)
    return _Split(path, data, offset, windows, used, starts, ends, record_end, n_fields, blank)


def _byte_labels(split: _Split, start: np.ndarray, length: np.ndarray, name: str) -> _Labels:
    """The distinct cells ``split.text(start, length)`` and each cell's index into them.

    A cell over ``_MAX_LABEL_BYTES`` is a ``DataError`` naming column ``name``.
    """
    width = int(length.max(initial=1))
    if width > _MAX_LABEL_BYTES:
        at = split.offset + int(start[np.argmax(length > _MAX_LABEL_BYTES)])
        raise _refuse(split.path, at, f"has a {name} cell over {_MAX_LABEL_BYTES} bytes")
    cells = np.where(np.arange(width) < length[:, None], split.windows[start, :width], 0)
    cells = cells.view(f"S{width}").ravel()
    # A label mostly repeats on the next row: sort only the first cell of each run.
    run = np.ones(cells.size, dtype=bool)
    run[1:] = cells[1:] != cells[:-1]
    distinct, index = np.unique(cells[run], return_inverse=True)
    labels = [cell.decode("utf-8").replace('""', '"') for cell in distinct.tolist()]
    return labels, index[np.cumsum(run) - 1]


#: The ASCII whitespace ``bytes.strip()`` removes, and the ASCII digits.
_SPACE, _DIGIT = (np.isin(np.arange(256), list(members)) for members in (b" \t\n\v\f\r", b"0123456789"))


def _strip(split: _Split, start: np.ndarray, length: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells at ``start`` of ``length`` bytes with the bytes ``table`` holds taken off both ends.

    Only a cell that starts or ends with one is read further, in time linear
    in its bytes and in about six bytes of memory a byte: one int32 a byte
    (a split buffer holds at most ``_MAX_RECORD_BYTES + BLOCK_BYTES``
    bytes), first its position and then the count of kept bytes up to it.
    """
    last = start + np.maximum(length - 1, 0)
    ends = (length > 0) & (table[split.windows[start, 0]] | table[split.windows[last, 0]])
    if not ends.any():
        return start, length
    cell_start, cell_length = start[ends], length[ends]
    cell_end = np.cumsum(cell_length)  # the cells' bytes one cell after another
    cell_first = cell_end - cell_length
    # Steps between the bytes' positions: 1 inside a cell, a jump to each cell's first byte.
    at = np.ones(cell_end[-1], dtype=np.int32)
    at[cell_first] = cell_start + 1 - np.append(1, cell_start[:-1] + cell_length[:-1])
    np.cumsum(at, out=at)
    n_kept = at  # in place: each position gives way to its byte's count of kept bytes up to it
    np.logical_not(table[split.windows[at, 0]], out=n_kept, casting="unsafe")
    np.cumsum(n_kept, out=n_kept)
    through = n_kept[cell_end - 1]
    before = np.zeros_like(through)  # int32 like the count, which searchsorted would otherwise copy
    before[1:] = through[:-1]
    # A cell's first kept byte is where the count first passes its value before the cell, and
    # its last where the count first reaches its value at the cell's end.
    first = np.searchsorted(n_kept, before + 1)
    length_kept = np.searchsorted(n_kept, through) + 1 - first
    any_kept = through > before
    start, length = start.copy(), length.copy()
    start[ends] = np.where(any_kept, cell_start + first - cell_first, 0)
    length[ends] = np.where(any_kept, length_kept, 0)
    return start, length


#: Most digits in a stop number; 19 digits hold every positive int64.
_MAX_DIGITS = 19
_TENS = 10 ** np.arange(_MAX_DIGITS + 1, dtype=np.uint64)


def _stop_numbers(split: _Split, start: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of stop number cells, and each one's fault: 0 for 1 to 19 ASCII digits worth 1 to 2**63 - 1."""
    width = min(int(length.max(initial=0)), _MAX_DIGITS)  # the batch's longest cell
    digits = split.windows[start, :width].astype(np.int32) - ord("0")
    inside = np.arange(width) < length[:, None]
    is_digit = (digits >= 0) & (digits <= 9)
    integer = (length > 0) & np.all(is_digit | ~inside, axis=1)
    long = integer & (length > _MAX_DIGITS)
    integer[long] = _strip(split, start[long], length[long], _DIGIT)[1] == 0
    # Each cell's digits as one number of ``width`` digits, less the places past its end.
    value = np.where(is_digit & inside, digits, 0).astype(np.uint64) @ _TENS[:width][::-1]
    value //= _TENS[width - np.minimum(length, width)]
    big = (length > _MAX_DIGITS) | (value > np.iinfo(np.int64).max)
    fault = np.select([~integer, big, value == 0], [_NOT_INTEGER, _OUT_OF_RANGE, _BELOW_ONE], 0)
    return value.astype(np.int64), fault


#: Positions of the digits and separators in ``YYYY-MM-DDTHH:MM:SS``.
_STAMP_WIDTH = 19
_STAMP_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_STAMP_SEPARATORS = {4: "-", 7: "-", 10: "T", 13: ":", 16: ":"}


def _canonical_timestamps(split: _Split, start: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Times of cells shaped exactly ``YYYY-MM-DDTHH:MM:SS`` naming a real second, and which cells those are.

    The times are ``datetime64[s]``, meaningless where a cell is not one.
    """
    d = split.windows[start, :_STAMP_WIDTH].astype(np.int32) - ord("0")
    digits = d[:, _STAMP_DIGITS]
    ok = (length == _STAMP_WIDTH) & np.all((digits >= 0) & (digits <= 9), axis=1)
    for pos, sep in _STAMP_SEPARATORS.items():
        ok &= d[:, pos] == ord(sep) - ord("0")
    digits = np.where(ok[:, None], digits, 0)
    pairs = digits[:, 0::2] * 10 + digits[:, 1::2]  # the year's two halves, then month to second
    year = pairs[:, 0] * 100 + pairs[:, 1]
    month, day, hour, minute, second = pairs[:, 2:].T
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

