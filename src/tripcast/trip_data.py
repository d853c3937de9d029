"""Stop-level delivery log model: CSV ingestion, trip assembly, summary stats.

The raw unit is a stop row (one scheduled/actual arrival at one address);
the unit of analysis is the trip, an ordered sequence of stops sharing a
trip number. Both are held as numpy columns, never as one object per row:
a :class:`StopTable` has one entry per stop row and a :class:`TripTable`
one per trip. Trip numbers and cities are integer codes into arrays of
their distinct labels, stop numbers are int64 and timestamps
``datetime64[s]``. Rows that fail validation are rejected with diagnostics,
never silently coerced.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
import statistics
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError

TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%S"

#: Canonical stops CSV column order. A schema mapping may rename columns in
#: the file, but all eight logical fields are mandatory.
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


def parse_timestamp(raw: str) -> datetime:
    """Parse a canonical ``YYYY-MM-DDTHH:MM:SS`` timestamp (naive, local)."""
    return datetime.strptime(raw.strip(), TIMESTAMP_FORMAT)


# ---------------------------------------------------------------------------
# Parsing


class _Labeller:
    """Codes strings by first appearance, across every batch of one parse."""

    def __init__(self) -> None:
        self._first: dict[str, int] = {}
        self._ticks = itertools.count()

    def raw_codes(self, values: Iterable[str], n: int) -> np.ndarray:
        """Per value, the tick at which it was first seen (increasing, not dense)."""
        return np.fromiter(map(self._first.setdefault, values, self._ticks), np.int64, n)

    def column(self, raw: np.ndarray) -> Coded:
        """Dense codes for raw codes, with the labels in order of first appearance."""
        ticks = np.fromiter(self._first.values(), np.int64, len(self._first))
        return Coded(np.searchsorted(ticks, raw), np.array(list(self._first), dtype=object))


def parse_stops_csv(
    path: str | Path,
    schema: Mapping[str, str] | None = None,
) -> tuple[StopTable, list[RowDiagnostic]]:
    """Read a stops CSV and return (valid rows, per-row reject diagnostics).

    ``schema`` maps logical column names (see ``CANONICAL_COLUMNS``) to the
    header names actually present in the file; omitted entries default to the
    canonical names. Raises ``DataError`` if the file is missing, a mandatory
    column is absent from the header, or no row parses — partial results are
    never returned for structural failures.

    Rows follow ``csv.DictReader``: blank lines are skipped and not counted
    in line numbers, missing cells read as empty, extra cells are ignored,
    and a header name given twice reads its last column. Cells in canonical
    form (an unpadded positive ASCII stop number, ``YYYY-MM-DDTHH:MM:SS``
    timestamps) convert a batch at a time; every other row goes through
    :func:`_parse_row`, which accepts what ``int`` and ``strptime`` accept
    after stripping whitespace and says why it rejects a row.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"stops file not found: {path}")
    names = {logical: (schema or {}).get(logical, logical) for logical in CANONICAL_COLUMNS}

    trips, cities = _Labeller(), _Labeller()
    batches: list[tuple[np.ndarray, ...]] = []
    rejects: list[RowDiagnostic] = []
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise DataError(f"stops file has no header row: {path}")
        missing = [c for c in names.values() if c not in header]
        if missing:
            raise DataError(
                f"stops file {path} is missing mandatory column(s): {', '.join(missing)}"
            )
        last = {name: i for i, name in enumerate(header)}
        columns = [last[names[c]] for c in PARSED_COLUMNS]
        rows = filter(None, reader)
        line_number = 2
        while chunk := list(itertools.islice(rows, CHUNK_ROWS)):
            batches.append(_parse_chunk(chunk, columns, line_number, rejects, trips, cities))
            line_number += len(chunk)

    if sum(len(batch[0]) for batch in batches) == 0:
        raise DataError(f"stops file {path} contains no valid rows")
    trip, stop_number, city, scheduled, actual = (np.concatenate(c) for c in zip(*batches))
    stops = StopTable(
        trip=trips.column(trip),
        stop_number=stop_number,
        city=cities.column(city),
        scheduled_time=scheduled,
        actual_time=actual,
    )
    return stops, rejects


def _parse_chunk(
    chunk: list[list[str]],
    columns: Sequence[int],
    first_line: int,
    rejects: list[RowDiagnostic],
    trips: _Labeller,
    cities: _Labeller,
) -> tuple[np.ndarray, ...]:
    """Convert one batch of CSV rows; appends its rejects in line order."""
    n = len(chunk)
    width = max(columns) + 1
    for i in np.flatnonzero(np.fromiter(map(len, chunk), np.int64, n) < width):
        chunk[i] = chunk[i] + [""] * (width - len(chunk[i]))
    trip_raw, stop_raw, city_raw, sched_raw, actual_raw = zip(*map(operator.itemgetter(*columns), chunk))
    trip = list(map(str.strip, trip_raw))

    stop_number, fast = _canonical_counts(stop_raw)
    scheduled, ok = _canonical_timestamps(sched_raw)
    fast &= ok
    actual, ok = _canonical_timestamps(actual_raw)
    fast &= ok
    fast &= np.fromiter(map(bool, trip), bool, n)

    keep = fast.copy()
    for i in np.flatnonzero(~fast):
        parsed, reason = _parse_row(trip[i], stop_raw[i], sched_raw[i], actual_raw[i])
        if parsed is None:
            rejects.append(RowDiagnostic(first_line + int(i), reason))
        else:
            stop_number[i], scheduled[i], actual[i] = parsed
            keep[i] = True
    n_kept, selected = int(np.count_nonzero(keep)), keep.tolist()
    return (
        trips.raw_codes(itertools.compress(trip, selected), n_kept),
        stop_number[keep],
        cities.raw_codes(itertools.compress(map(str.strip, city_raw), selected), n_kept),
        scheduled[keep],
        actual[keep],
    )


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
    try:
        scheduled = parse_timestamp(raw_scheduled)
    except ValueError:
        return None, f"unparseable scheduled_time {raw_scheduled!r}"
    try:
        actual = parse_timestamp(raw_actual)
    except ValueError:
        return None, f"unparseable actual_time {raw_actual!r}"
    return (stop_number, scheduled, actual), ""


#: Longest stop number taken by the fast path; 18 digits always fit in int64.
_MAX_DIGITS = 18


def _code_points(cells: Sequence[str], width: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, width) int64 code points minus ord('0'), zero-padded, and each cell's length.

    Longer cells are cut to ``width``; callers compare the lengths to tell.
    A cell whose last characters are NULs reads shorter here than its
    length, which no caller's shape test accepts.
    """
    n = len(cells)
    lengths = np.fromiter(map(len, cells), np.int64, n)
    points = np.array(cells, dtype=f"U{width}").view(np.uint32).reshape(n, width)
    return points.astype(np.int64) - ord("0"), lengths


def _canonical_counts(cells: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Values of cells of 1 to 18 ASCII digits with a value >= 1, and which cells those are."""
    digits, lengths = _code_points(cells, _MAX_DIGITS)
    inside = np.arange(_MAX_DIGITS) < lengths[:, None]
    is_digit = (digits >= 0) & (digits <= 9)
    value = np.zeros(len(cells), np.int64)
    for j in range(_MAX_DIGITS):
        value = np.where(inside[:, j], value * 10 + digits[:, j], value)
    ok = (lengths <= _MAX_DIGITS) & np.all(is_digit | ~inside, axis=1) & (value >= 1)
    return value, ok


#: Positions of the digits and separators in ``YYYY-MM-DDTHH:MM:SS``.
_STAMP_WIDTH = 19
_STAMP_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_STAMP_SEPARATORS = {4: "-", 7: "-", 10: "T", 13: ":", 16: ":"}


def _canonical_timestamps(cells: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Times of cells shaped exactly ``YYYY-MM-DDTHH:MM:SS`` naming a real second.

    Returns ``datetime64[s]`` values (meaningless where not accepted) and
    the acceptance mask. Everything accepted here ``strptime`` accepts with
    the same value; the rest is left to it.
    """
    d, lengths = _code_points(cells, _STAMP_WIDTH)
    ok = (lengths == _STAMP_WIDTH) & np.all((d[:, _STAMP_DIGITS] >= 0) & (d[:, _STAMP_DIGITS] <= 9), axis=1)
    for pos, sep in _STAMP_SEPARATORS.items():
        ok &= d[:, pos] == ord(sep) - ord("0")
    d = np.where(ok[:, None], d, 0)

    def number(first: int, last: int) -> np.ndarray:
        value = np.zeros(len(cells), np.int64)
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

    Free-text columns that ``stops.text`` does not hold are written empty.
    """
    writer = csv.writer(handle)
    writer.writerow(CANONICAL_COLUMNS)
    coded = {"trip_number": stops.trip, "city": stops.city, **stops.text}
    n = len(stops)
    for lo in range(0, n, CHUNK_ROWS):
        part = slice(lo, lo + CHUNK_ROWS)
        cells = []
        for name in CANONICAL_COLUMNS:
            if name in coded:
                cells.append(coded[name].labels[coded[name].codes[part]].tolist())
            elif name == "stop_number":
                cells.append(stops.stop_number[part].tolist())
            elif name in ("scheduled_time", "actual_time"):
                cells.append(np.datetime_as_string(getattr(stops, name)[part], unit="s").tolist())
            else:
                cells.append(itertools.repeat(""))
        writer.writerows(zip(*cells))
    return n


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
