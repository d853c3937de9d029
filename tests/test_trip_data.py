"""Ingestion, trip assembly, and summary statistics."""

import csv
import hashlib
import io
import math
import re
import tempfile
import time
import tracemalloc
from datetime import datetime
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripcast import cli, trip_data
from tripcast.errors import DataError
from tripcast.trip_data import (
    assemble_trips,
    parse_stops_csv,
    summarize,
    write_stops_csv,
)

from tests.helpers import coded, make_stops, stop_rows, time_limit, trip_table, trip_tables_equal

HEADER = "trip_number,trip_description,stop_number,client_name,address,city,scheduled_time,actual_time"


def _write(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _stop(trip, number, sched, actual, city="Linz"):
    return (trip, number, city, sched, actual)


def test_parse_valid_rows(tmp_path):
    path = _write(
        tmp_path,
        "ok.csv",
        [
            HEADER,
            "T1,desc,1,a,addr,Linz,2019-03-01T08:00:00,2019-03-01T08:05:00",
            "T1,desc,2,b,addr,Wels,2019-03-01T09:00:00,2019-03-01T09:10:00",
            "T2,desc,1,c,addr,Graz,2019-03-02T07:30:00,2019-03-02T07:30:00",
        ],
    )
    records, rejects = parse_stops_csv(path)
    assert len(records) == 3 and rejects == []
    assert stop_rows(records)[0] == (
        "T1",
        1,
        "Linz",
        datetime(2019, 3, 1, 8, 0, 0),
        datetime(2019, 3, 1, 8, 5, 0),
    )


def test_parse_rejects_bad_timestamp_keeps_others(tmp_path):
    path = _write(
        tmp_path,
        "bad_ts.csv",
        [
            HEADER,
            "T1,d,1,a,addr,Linz,2019-03-01T08:00:00,not-a-date",
            "T1,d,2,a,addr,Linz,2019-03-01T09:00:00,2019-03-01T09:00:00",
        ],
    )
    records, rejects = parse_stops_csv(path)
    assert len(records) == 1
    assert len(rejects) == 1
    assert rejects[0].line_number == 2
    assert "actual_time" in rejects[0].reason


@pytest.mark.parametrize(
    "row,fragment",
    [
        ("T1,d,zero,a,addr,Linz,2019-03-01T08:00:00,2019-03-01T08:00:00", "stop_number"),
        ("T1,d,0,a,addr,Linz,2019-03-01T08:00:00,2019-03-01T08:00:00", "< 1"),
        (",d,1,a,addr,Linz,2019-03-01T08:00:00,2019-03-01T08:00:00", "trip_number"),
        ("T1,d,1,a,addr,Linz,never,2019-03-01T08:00:00", "scheduled_time"),
    ],
)
def test_parse_row_rejection_reasons(tmp_path, row, fragment):
    path = _write(tmp_path, "rows.csv", [HEADER, row, "T9,d,1,a,addr,Linz,2019-03-01T08:00:00,2019-03-01T08:00:00"])
    records, rejects = parse_stops_csv(path)
    assert len(records) == 1
    assert fragment in rejects[0].reason


def test_parse_missing_column_is_hard_error(tmp_path):
    header = HEADER.replace("stop_number,", "")
    path = _write(tmp_path, "nocol.csv", [header, "T1,d,a,addr,Linz,2019-03-01T08:00:00,2019-03-01T08:00:00"])
    with pytest.raises(DataError, match="stop_number"):
        parse_stops_csv(path)


def test_parse_missing_file_and_empty(tmp_path):
    with pytest.raises(DataError, match="not found"):
        parse_stops_csv(tmp_path / "absent.csv")
    path = _write(tmp_path, "allbad.csv", [HEADER, "T1,d,1,a,addr,Linz,x,y"])
    with pytest.raises(DataError, match="no valid rows"):
        parse_stops_csv(path)
    with pytest.raises(DataError, match="no valid rows"):
        parse_stops_csv(_write(tmp_path, "header_only.csv", [HEADER]))


def test_parse_stop_number_beyond_int64_rejected(tmp_path):
    big = str(2**63)
    path = _write(
        tmp_path,
        "big.csv",
        [HEADER, f"T1,d,{big},a,addr,Linz,2019-03-01T08:00:00,2019-03-01T08:00:00", f"T1,d,{2**63 - 1},a,addr,Linz,2019-03-01T08:00:00,2019-03-01T08:00:00"],
    )
    records, rejects = parse_stops_csv(path)
    assert stop_rows(records)[0][1] == 2**63 - 1
    assert [(r.line_number, r.reason) for r in rejects] == [(2, f"stop_number {big!r} is out of range")]


# ---------------------------------------------------------------------------
# Parse parity: the batch parser against a row-at-a-time reference.

TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%S"
#: What a cell is stripped of: the ASCII whitespace ``bytes.strip()`` removes.
SPACE = " \t\n\v\f\r"
STAMP = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}")


def reference_parse(path):
    """The plain reading of a stops CSV: DictReader, then the cell grammar one row at a time.

    Every cell is stripped of ``SPACE``. A trip is not empty, a stop number
    is 1 to 19 ASCII digits worth 1 to 2**63 - 1, and a stamp is exactly
    ``YYYY-MM-DDTHH:MM:SS`` naming a real second. Returns (accepted
    (trip, stop, city, scheduled, actual) rows, [(line, reason)]).
    """
    rows, rejects = [], []
    with open(path, newline="", encoding="utf-8") as handle:
        for line_number, row in enumerate(csv.DictReader(handle), start=2):

            def cell(name):
                value = row.get(name)
                return "" if value is None else value

            trip = cell("trip_number").strip(SPACE)
            if not trip:
                rejects.append((line_number, "empty trip_number"))
                continue
            raw_stop = cell("stop_number").strip(SPACE)
            if not (raw_stop.isascii() and raw_stop.isdigit()):
                rejects.append((line_number, f"stop_number {raw_stop!r} is not an integer"))
                continue
            if len(raw_stop) > 19 or int(raw_stop) >= 2**63:
                rejects.append((line_number, f"stop_number {raw_stop!r} is out of range"))
                continue
            stop = int(raw_stop)
            if stop < 1:
                rejects.append((line_number, f"stop_number {stop} < 1"))
                continue
            times = {name: _stamp(cell(name).strip(SPACE)) for name in ("scheduled_time", "actual_time")}
            bad = [name for name, value in times.items() if value is None]
            if bad:
                rejects.append((line_number, f"unparseable {bad[0]} {cell(bad[0])!r}"))
                continue
            rows.append((trip, stop, cell("city").strip(SPACE), *times.values()))
    return rows, rejects


def _stamp(text):
    """The time ``text`` names if it is shaped ``YYYY-MM-DDTHH:MM:SS`` and is a real second, else None."""
    if STAMP.fullmatch(text):
        try:
            return datetime.strptime(text, TIMESTAMP_FORMAT)
        except ValueError:  # the shape, but not a real second
            pass
    return None


def assert_parse_matches_reference(path):
    want_rows, want_rejects = reference_parse(path)
    if not want_rows:
        with pytest.raises(DataError, match="no valid rows"):
            parse_stops_csv(path)
        return
    stops, rejects = parse_stops_csv(path)
    assert stop_rows(stops) == want_rows
    assert [(r.line_number, r.reason) for r in rejects] == want_rejects


EDGE_TIMESTAMPS = [
    "",
    "NaT",
    "nat",
    "today",
    "now",
    "2019-03-01",
    "2019-03-01 08:00:00",
    "+2019-03-01T08:00:00",
    "-2019-03-01T08:00:00",
    "2019-02-30T00:00:00",
    "2019-02-29T00:00:00",
    "2020-02-29T00:00:00",
    "2019-04-31T12:00:00",
    "2019-13-01T00:00:00",
    "2019-00-10T00:00:00",
    "2019-03-00T00:00:00",
    "2019-03-01T24:00:00",
    "2019-03-01T08:60:00",
    "2019-03-01T08:00:60",
    "2019-03-01T08:00:61",
    "0000-01-01T00:00:00",
    "0001-01-01T00:00:00",
    "9999-12-31T23:59:59",
    "2019-03-01T08:00:00Z",
    "2019-03-01T08:00:00.5",
    "2019-3-1T8:0:0",
    "2019-03-1T08:00:00",
    "2019-03-01T8:00:00",
    "١٠١٩-03-01T08:00:00",
    "2019-03-01t08:00:00",
]


def _timestamp(parts, padded):
    year, month, day, hour, minute, second = parts
    if padded:
        return f"{year:04d}-{month:02d}-{day:02d}T{hour:02d}:{minute:02d}:{second:02d}"
    return f"{year}-{month}-{day}T{hour}:{minute}:{second}"


canonical_timestamps = st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59)).map(
    lambda d: _timestamp((d.year, d.month, d.day, d.hour, d.minute, d.second), True)
)
# Canonical cells are drawn as often as odd ones, so that many rows take the
# batch path and an odd cell is often the only thing keeping a row off it.
one_char_off = st.builds(
    lambda stamp, at, char: stamp[:at] + char + stamp[at + 1 :],
    canonical_timestamps,
    st.integers(0, 18),
    st.sampled_from(" T-:/0٣x"),
)
timestamps = st.one_of(
    canonical_timestamps,
    st.sampled_from(EDGE_TIMESTAMPS),
    canonical_timestamps,
    one_char_off,
    st.builds(
        _timestamp,
        st.tuples(
            st.integers(0, 2100),
            st.integers(0, 13),
            st.integers(0, 32),
            st.integers(0, 25),
            st.integers(0, 61),
            st.integers(0, 61),
        ),
        st.booleans(),
    ),
)
stop_numbers = st.one_of(
    st.integers(1, 10**18 - 1).map(str),
    st.sampled_from(["1", "2", "10", "007", "0", "00", "-1", "+3", "3_0", "٣", "1.0", "x", "", " ", "1e3", "99"]),
)
trip_numbers = st.one_of(
    st.sampled_from(["T1", "T2", "T10", "t1", "Tü", "T,1", 'T"1']),
    st.sampled_from(["", " "]),
)
cities = st.sampled_from(["Linz", "Wels", "", "Graz", "a,b"])
# Mostly none: a row takes the batch path only if none of its cells is padded.
padding = st.sampled_from(["", "", "", "", "", "", " ", "\t"])


@st.composite
def stop_row(draw):
    def padded(cell):
        return draw(padding) + draw(cell) + draw(padding)

    row = [
        padded(trip_numbers),
        "desc",
        padded(stop_numbers),
        "client",
        "addr, 1",
        padded(cities),
        padded(timestamps),
        padded(timestamps),
    ]
    width = draw(st.sampled_from([8, 8, 8, 0, 3, 7, 9, 11]))
    return (row + ["extra"] * 3)[:width]


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(stop_row(), min_size=1, max_size=12), chunk=st.sampled_from([1, 2, 5, 1 << 15]))
def test_parse_matches_row_reference(rows, chunk):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stops.csv"
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(HEADER.split(","))
            writer.writerows(rows)
        with mock.patch.object(trip_data, "CHUNK_ROWS", chunk):
            assert_parse_matches_reference(path)


CANONICAL_ROW = ["T1", "d", "1", "c", "a", "Linz", "2019-03-01T08:00:00", "2019-03-01T09:00:00"]
EDGE_STOP_NUMBERS = ["0", "00", "007", "-1", "+3", "3_0", "٣", " 4 ", "", "1.0", "9" * 18, "1" + "0" * 18]


def test_parse_edge_cells_match_reference(tmp_path):
    # Each edge value alone in an otherwise canonical row, so that only the
    # cell under test can send the row off the batch path.
    rows = []
    for value in EDGE_TIMESTAMPS + [" 2019-03-01T08:00:00", "2019-03-01T08:00:00\t"]:
        for column in (6, 7):
            rows.append(CANONICAL_ROW[:column] + [value] + CANONICAL_ROW[column + 1 :])
    for value in EDGE_STOP_NUMBERS:
        rows.append(CANONICAL_ROW[:2] + [value] + CANONICAL_ROW[3:])
    for value in ["", " ", " T1", "T1\t"]:
        rows.append([value] + CANONICAL_ROW[1:])
    path = tmp_path / "edges.csv"
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(HEADER.split(","))
        writer.writerows(rows)
    assert_parse_matches_reference(path)


GRAMMAR_EDGES = [
    ("stop_number", "1_000", "stop_number '1_000' is not an integer"),
    ("stop_number", "\u0667", "stop_number '\u0667' is not an integer"),  # an Arabic-Indic 7
    ("stop_number", "+3", "stop_number '+3' is not an integer"),
    ("stop_number", "-1", "stop_number '-1' is not an integer"),
    ("stop_number", "0", "stop_number 0 < 1"),
    ("stop_number", "007", 7),
    ("stop_number", str(2**63 - 1), 2**63 - 1),
    ("stop_number", str(2**63), f"stop_number '{2**63}' is out of range"),
    ("stop_number", "0" * 21 + "5", f"stop_number '{'0' * 21 + '5'}' is out of range"),
    ("stop_number", "\v\f 12\r\n\t", 12),
    ("scheduled_time", "2019-3-5T1:2:3", "unparseable scheduled_time '2019-3-5T1:2:3'"),
    ("actual_time", "\t2019-03-01T09:00:00\t", datetime(2019, 3, 1, 9)),
    ("trip_number", "T1\xa0", "T1\xa0"),
]


@pytest.mark.parametrize("column,cell,want", GRAMMAR_EDGES, ids=[repr(cell) for _, cell, _ in GRAMMAR_EDGES])
def test_cell_grammar_edges(tmp_path, column, cell, want):
    # One cell under test in an otherwise canonical row: it is kept with its
    # value, or the row is rejected with its reason. Every one of these but
    # 007, 2**63 - 1 and the padded cells was read as a number or a stamp, or
    # folded into the label T1, before the byte path was the only path.
    row = dict(zip(HEADER.split(","), CANONICAL_ROW))
    row[column] = cell
    path = tmp_path / "edge.csv"
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(HEADER.split(","))
        writer.writerows([row.values(), CANONICAL_ROW])
    stops, rejects = parse_stops_csv(path)
    if isinstance(want, str) and column != "trip_number":
        assert [(r.line_number, r.reason) for r in rejects] == [(2, want)] and len(stops) == 1
    else:
        assert rejects == [] and len(stops) == 2
        trip, stop, _, scheduled, actual = stop_rows(stops)[0]
        kept = {"trip_number": trip, "stop_number": stop, "scheduled_time": scheduled, "actual_time": actual}
        assert kept[column] == want
    assert_parse_matches_reference(path)


def _stop_table_digest(stops):
    digest = hashlib.sha256()
    for column in (stops.trip, stops.city):
        digest.update(column.codes.tobytes() + "\0".join(column.labels.tolist()).encode("utf-8"))
    for values in (stops.stop_number, stops.scheduled_time, stops.actual_time):
        digest.update(values.tobytes())
    return digest.hexdigest()


def test_padded_cells_parse_to_the_same_table_without_a_time_cliff(tmp_path):
    # Every stop number and stamp padded with spaces and tabs: the same table,
    # in time within 3x of the unpadded file's (best of 3 runs each). When a
    # padded cell sent its row down a per-row int/strptime path, such a file
    # took about 16x as long.
    n = 50_000
    i = np.arange(n)
    stamps = np.datetime64("2019-03-01T08:00:00") + i * 37
    columns = {
        "trip": [f"T{t:06d}" for t in (i // 8).tolist()],
        "stop": (i % 8 + 1).astype(str).tolist(),
        "city": [f"City-{c}" for c in (i % 13).tolist()],
        "scheduled": np.datetime_as_string(stamps, unit="s").tolist(),
        "actual": np.datetime_as_string(stamps + 600, unit="s").tolist(),
    }
    pads = [(" ", "\t"), ("\t", "  "), (" \t ", "\t \t")]
    paths = []
    for padded in (False, True):
        lines = [HEADER]
        for k, (trip, stop, city, scheduled, actual) in enumerate(zip(*columns.values())):
            left, right = pads[k % 3] if padded else ("", "")
            stop, scheduled, actual = (left + c + right for c in (stop, scheduled, actual))
            lines.append(f"{trip},d,{stop},c,a,{city},{scheduled},{actual}")
        paths.append(_write(tmp_path, f"padded_{padded}.csv", lines))
    best, digests = {}, {}
    for _ in range(3):
        for path in paths:
            start = time.perf_counter()
            stops, rejects = parse_stops_csv(path)
            best[path] = min(best.get(path, math.inf), time.perf_counter() - start)
            assert len(stops) == n and rejects == []
            digests[path] = _stop_table_digest(stops)
    plain, padded = paths
    assert digests[plain] == digests[padded]
    assert best[padded] < 3 * best[plain], best


def test_a_long_padded_cell_parses_to_the_same_table_in_bounded_memory(tmp_path):
    # One stop number behind 4,000,000 bytes of spaces, within the 4 MiB record
    # bound. Stripping it holds about six bytes a padded byte; with int64
    # positions and a full-length np.where per end it held about 17, and the
    # parse peaked at 74.3 MiB under tracemalloc.
    row = "T1,d,{},a,addr,Linz,2019-03-01T08:00:00,2019-03-01T08:05:00"
    plain = _write(tmp_path, "plain.csv", [HEADER, row.format("5")])
    padded = _write(tmp_path, "padded.csv", [HEADER, row.format(" " * 4_000_000 + "5")])
    digests = []
    for path in (plain, padded):
        tracemalloc.start()
        try:
            stops, rejects = parse_stops_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stops.stop_number.tolist() == [5] and rejects == []
        digests.append(_stop_table_digest(stops))
    assert digests[0] == digests[1]
    assert peak < 74.3 / 2 * 2**20, peak


def test_parse_blank_short_and_long_rows(tmp_path):
    path = _write(
        tmp_path,
        "ragged.csv",
        [
            HEADER,
            "",
            "T1,d,1,a,addr,Linz,2019-03-01T08:00:00,2019-03-01T08:05:00",
            "T1,d,2,a,addr,Linz,2019-03-01T09:00:00",
            "",
            "",
            "T1,d,3,a,addr,Wels,2019-03-01T10:00:00,2019-03-01T10:00:00,extra,cells",
            "T2,d,1",
            "T2",
            "T3,d,1,a,addr,,2019-03-01T11:00:00,2019-03-01T11:00:00",
        ],
    )
    assert_parse_matches_reference(path)
    stops, rejects = parse_stops_csv(path)
    # Blank lines are not counted: the short row is the third non-blank row.
    assert [(r.line_number, r.reason) for r in rejects] == [
        (3, "unparseable actual_time ''"),
        (5, "unparseable scheduled_time ''"),
        (6, "stop_number '' is not an integer"),
    ]
    assert [(trip, stop, city) for trip, stop, city, _, _ in stop_rows(stops)] == [
        ("T1", 1, "Linz"),
        ("T1", 3, "Wels"),
        ("T3", 1, ""),
    ]


def test_parse_duplicate_header_reads_last_column(tmp_path):
    path = _write(
        tmp_path,
        "dup.csv",
        [
            HEADER + ",city",
            "T1,d,1,a,addr,Linz,2019-03-01T08:00:00,2019-03-01T08:05:00,Wels",
            "T1,d,2,a,addr,Linz,2019-03-01T09:00:00,2019-03-01T09:05:00",
        ],
    )
    assert_parse_matches_reference(path)
    assert [row[2] for row in stop_rows(parse_stops_csv(path)[0])] == ["Wels", ""]


# ---------------------------------------------------------------------------
# Byte parse: files inside and outside the writer's dialect, read from their bytes.

# Cell text with every byte that matters to the split, and some that do not.
odd_text = st.text(alphabet=',"\n\r \tT1-:ü \x00', max_size=4)


def _quote(cell):
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def raw_cell(draw, values, in_dialect):
    """One cell as it stands in the file: a value, quoted as csv.writer would or not."""
    value = draw(padding) + draw(st.one_of(values, values, odd_text)) + draw(padding)
    if in_dialect:
        value = value.replace("\x00", "")
        needs_quotes = any(c in value for c in ',"\n\r')
        return _quote(value) if needs_quotes or draw(st.booleans()) else value
    form = draw(st.sampled_from(["plain", "quoted", "padded quoted", "quote inside"]))
    if form == "plain":
        return value
    if form == "quoted":
        return _quote(value)
    if form == "padded quoted":
        return " " + _quote(value)
    return value + '"' + value


@st.composite
def stops_file(draw):
    """The text of a stops CSV and whether it keeps to the writer's dialect."""
    in_dialect = draw(st.booleans())
    terminators = ["\n", "\r\n"] if in_dialect else ["\n", "\r\n", "\r"]
    columns = [trip_numbers, st.just("desc"), stop_numbers, st.just("c"), st.just("addr, 1"), cities]
    columns += [timestamps, timestamps, st.just("extra")]
    parts = [HEADER, draw(st.sampled_from(terminators))]
    for _ in range(draw(st.integers(0, 10))):
        if draw(st.integers(0, 5)) == 0:
            parts.append(draw(st.sampled_from(terminators)))  # a blank line
            continue
        width = draw(st.sampled_from([8, 8, 8, 1, 3, 7, 9]))
        parts.append(",".join(draw(raw_cell(values, in_dialect)) for values in columns[:width]))
        parts.append(draw(st.sampled_from(terminators)))
    if draw(st.booleans()):
        parts.pop()  # no line end after the last row
    return "".join(parts), in_dialect


#: A refusal: the file leaves the writer's dialect at the byte it names.
REFUSED = re.compile(r"stops file .* at byte \d+")


@settings(max_examples=400, deadline=None)
@given(doc=stops_file(), block=st.sampled_from([1, 7, 64, 1 << 22]), chunk=st.sampled_from([1, 2, 1 << 15]))
def test_byte_parse_matches_row_reference(doc, block, chunk):
    # A file in the dialect parses as the reference does; any other file
    # either does too or is refused, and only for a quote, a \r or a NUL.
    text, in_dialect = doc
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stops.csv"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(trip_data, "BLOCK_BYTES", block), mock.patch.object(trip_data, "CHUNK_ROWS", chunk):
            try:
                parse_stops_csv(path)
            except DataError as error:
                if REFUSED.fullmatch(str(error)):
                    assert not in_dialect and any(c in text for c in '"\r\x00'), error
                    return
            assert_parse_matches_reference(path)


GOOD_ROW = "T1,d,1,a,addr,Linz,2019-03-01T08:00:00,2019-03-01T08:05:00"


@pytest.mark.parametrize(
    "body,reason,marker",
    [
        ('T2,d,1,a,x"y,Linz,2019-03-01T08:00:00,2019-03-01T08:05:00\n', "a quote that does not wrap a whole field", '"'),
        ('T2,d,1,a, "addr",Linz,2019-03-01T08:00:00,2019-03-01T08:05:00\n', "a quote that does not wrap a whole field", '"'),
        ('T2,d,1,a,"addr"x,Linz,2019-03-01T08:00:00,2019-03-01T08:05:00\n', "a quote that does not wrap a whole field", '"x'),
        ('T2,d,1,a,addr,"Linz', "an unclosed quote", '"'),
        ("T2,d,1,a,addr,Linz,2019-03-01T08:00:00,2019-03-01T08:05:00\rT3,d,1\n", "a lone \\r", "\r"),
        ("T2,d,1,a,addr,Linz,2019-03-01T08:00:00,2019-03-01T08:05:00\r", "a lone \\r", "\r"),
        ("T2,d,1,a,ad\x00dr,Linz,2019-03-01T08:00:00,2019-03-01T08:05:00\n", "a NUL byte", "\x00"),
        ("T2,d,4\x00,a,addr,Linz,2019-03-01T08:00:00,2019-03-01T08:05:00\n", "a NUL byte", "\x00"),
        ("T2,d,1,a,addr,Linz,2019-03-01T08:00:0\x00,2019-03-01T08:05:00\n", "a NUL byte", "\x00"),
        ("T" + "2" * 300 + ",d,1,a,addr,Linz,2019-03-01T08:00:00,2019-03-01T08:05:00\n", "a trip_number cell over 256 bytes", "T2"),
        ('T2,d,1,a,addr,"' + "L" * 300 + '",2019-03-01T08:00:00,2019-03-01T08:05:00\n', "a city cell over 256 bytes", "LL"),
    ],
    ids=[
        "quote inside a field",
        "padded quoted field",
        "text after a closing quote",
        "unclosed quote",
        "lone CR",
        "CR at the end",
        "NUL in free text",
        "NUL in a stop number",
        "NUL in a stamp",
        "long trip",
        "long city",
    ],
)
@pytest.mark.parametrize("block", [7, 1 << 22])
def test_files_outside_the_dialect_are_refused(tmp_path, body, reason, marker, block):
    # Each is refused at the offending byte's offset in the file, also when it lies blocks in.
    path = tmp_path / "odd.csv"
    head = f"{HEADER}\n{GOOD_ROW}\n".encode("utf-8")
    path.write_bytes(head + body.encode("utf-8"))
    at = len(head) + body.encode("utf-8").index(marker.encode("utf-8"))
    with mock.patch.object(trip_data, "BLOCK_BYTES", block):
        with pytest.raises(DataError, match=re.escape(f"stops file {path} has {reason} at byte {at}") + "$"):
            parse_stops_csv(path)


def test_long_records_are_refused_in_bounded_time(tmp_path):
    # Without a bound, each block re-split the growing line: 64 MiB took 2.3 s before failing.
    path = tmp_path / "one_line.csv"
    path.write_bytes(f"{HEADER}\n".encode("utf-8") + b"x" * (64 << 20))
    with time_limit(1.0), pytest.raises(DataError, match=f"has a record over {1 << 22} bytes at byte {len(HEADER) + 1}$"):
        parse_stops_csv(path)
    # A long free-text cell that nothing reads parses.
    path.write_text(f"{HEADER}\n{GOOD_ROW}\nT2,d,1,a,{'a' * 200_000},Linz,2019-03-01T08:00:00,2019-03-01T08:05:00\n")
    stops, rejects = parse_stops_csv(path)
    assert len(stops) == 2 and rejects == []


def test_parse_holds_one_block_at_a_time(tmp_path):
    # While it reads, the parse's transient memory (its peak less the table
    # it returns) stays within a few blocks, however many blocks the file
    # has; joining the batches at the end copies the rows once, less than that
    # here. Measured at 6.7 blocks on this file; holding the previous block's
    # split while the next is split read 8.7, and 4 MiB blocks with
    # 32,768-row batches, which held it too, read 9.6.
    row = '{t},round {t},{s},client-{c},"{s} Depot Street, City-{c}",City-{c},2019-03-01T0{h}:42:58,2019-03-01T0{h}:50:00'
    rows = [HEADER]
    size = 0
    while size < 8 * trip_data.BLOCK_BYTES:
        i = len(rows)
        rows.append(row.format(t=f"T20190301-{i // 10:05d}", s=i % 10 + 1, c=f"{i % 37:03d}", h=i % 10))
        size += len(rows[-1]) + 2
    path = tmp_path / "blocks.csv"
    path.write_bytes("\r\n".join(rows).encode("utf-8") + b"\r\n")
    n = len(rows) - 1
    del rows
    tracemalloc.start()
    try:
        stops, rejects = parse_stops_csv(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(stops) == n and rejects == []
    assert peak - held < 8 * trip_data.BLOCK_BYTES


def test_invalid_utf8_fails_as_csv_reader_does(tmp_path):
    # A non-UTF-8 byte is a data error naming its offset in the file, also
    # blocks in. A file with more than one fault is refused at the first:
    # here a lone \r.
    bad = "T2,d,1,a,Straße,Linz,x,y\n".encode("latin-1")
    head = f"{HEADER}\n{GOOD_ROW}\n".encode("utf-8")
    path = tmp_path / "latin1.csv"
    for before, where in [
        (b"", f"is not UTF-8: invalid continuation byte at byte {len(head) + len('T2,d,1,a,Stra')}"),
        (b"T3,d,1\r", f"has a lone \\r at byte {len(head) + len('T3,d,1')}"),
    ]:
        path.write_bytes(head + before + bad)
        for block in (7, 1 << 22):
            with mock.patch.object(trip_data, "BLOCK_BYTES", block):
                with pytest.raises(DataError, match=re.escape(f"{path} {where}") + "$"):
                    parse_stops_csv(path)


def _no_csv_reader(*args, **kwargs):
    raise AssertionError("csv.reader was asked to read the stops file")


def test_synth_output_parses_without_csv_reader(tmp_path):
    conf = tmp_path / "gen.conf"
    conf.write_text("months = 2019-03\nweekday_trips_mean = 20\nweekday_trips_std = 3\nseed = 3\n", encoding="utf-8")
    path = tmp_path / "stops.csv"
    assert cli.main(["synth", "--config", str(conf), "--out", str(path)]) == 0
    with mock.patch.object(csv, "reader", _no_csv_reader):
        stops, rejects = parse_stops_csv(path)
    assert len(stops) > 100 and rejects == []
    assert_parse_matches_reference(path)


# ---------------------------------------------------------------------------
# Assembly


def test_assemble_duration_from_actual_times():
    # 08:00 -> 12:33 same day is 4 h 33 min = 16380 s
    stops = [
        _stop("T1", 1, "2019-03-04T08:00:00", "2019-03-04T08:00:00"),
        _stop("T1", 2, "2019-03-04T12:30:00", "2019-03-04T12:33:00"),
    ]
    trips, diags = assemble_trips(make_stops(stops))
    assert diags == []
    assert trips.actual_duration[0] == 16380.0
    assert trips.num_stops[0] == 2


def test_assemble_excludes_single_stop_trip():
    trips, diags = assemble_trips(make_stops([_stop("T1", 1, "2019-03-04T08:00:00", "2019-03-04T08:00:00")]))
    assert len(trips) == 0
    assert len(diags) == 1 and "fewer than 2" in diags[0].reason


def test_assemble_delay_is_actual_minus_scheduled():
    stops = [
        _stop("T1", 1, "2019-03-04T08:00:00", "2019-03-04T08:00:00"),
        _stop("T1", 2, "2019-03-04T12:00:00", "2019-03-04T13:00:00"),
    ]
    trips, _ = assemble_trips(make_stops(stops))
    assert trips.scheduled_duration[0] == 14400.0
    assert trips.delay[0] == 3600.0


def test_assemble_rejects_duplicate_stop_numbers():
    stops = [
        _stop("T1", 1, "2019-03-04T08:00:00", "2019-03-04T08:00:00"),
        _stop("T1", 1, "2019-03-04T09:00:00", "2019-03-04T09:00:00"),
        _stop("T1", 2, "2019-03-04T10:00:00", "2019-03-04T10:00:00"),
        _stop("T2", 1, "2019-03-04T08:00:00", "2019-03-04T08:00:00"),
        _stop("T2", 2, "2019-03-04T11:00:00", "2019-03-04T11:00:00"),
    ]
    trips, diags = assemble_trips(make_stops(stops))
    assert trips.trip_ids.tolist() == ["T2"]
    assert len(diags) == 1 and "duplicate" in diags[0].reason
    assert diags[0].reason == "duplicate stop_number(s): [1]"


def test_assemble_rejects_negative_duration():
    stops = [
        _stop("T1", 1, "2019-03-04T08:00:00", "2019-03-04T09:00:00"),
        _stop("T1", 2, "2019-03-04T09:00:00", "2019-03-04T08:00:00"),
    ]
    trips, diags = assemble_trips(make_stops(stops))
    assert len(trips) == 0 and "negative" in diags[0].reason


def test_assemble_permutation_invariant():
    stops = []
    for t in range(6):
        for s in range(1, 5):
            stops.append(_stop(f"T{t}", s, f"2019-03-0{t+1}T08:0{s}:00", f"2019-03-0{t+1}T09:0{s}:00", city=f"C{s%2}"))
    forward, _ = assemble_trips(make_stops(stops))
    backward, _ = assemble_trips(make_stops(list(reversed(stops))))
    assert trip_tables_equal(forward, backward)
    assert forward.num_cities.tolist() == [2] * 6


def test_assemble_round_trip_idempotent():
    stops = [
        _stop("T1", 1, "2019-03-04T08:00:00", "2019-03-04T08:10:00"),
        _stop("T1", 2, "2019-03-04T12:00:00", "2019-03-04T13:00:00"),
        _stop("T2", 1, "2019-03-05T07:00:00", "2019-03-05T07:00:00", city="Graz"),
        _stop("T2", 2, "2019-03-05T08:00:00", "2019-03-05T08:30:00", city="Wels"),
        _stop("T3", 1, "2019-03-05T07:00:00", "2019-03-05T07:00:00"),
    ]
    trips, diags = assemble_trips(make_stops(stops))
    assert [d.trip_id for d in diags] == ["T3"]
    # The rows of the trips that were kept assemble to the same trips.
    kept = [row for row in stops if row[0] in set(trips.trip_ids)]
    again, diags = assemble_trips(make_stops(kept))
    assert trip_tables_equal(again, trips) and diags == []


def test_assemble_diagnostics_in_trip_id_order():
    stops = [
        _stop("T9", 1, "2019-03-04T08:00:00", "2019-03-04T08:00:00"),
        _stop("T5", 1, "2019-03-04T08:00:00", "2019-03-04T09:00:00"),
        _stop("T5", 2, "2019-03-04T09:00:00", "2019-03-04T08:00:00"),
        _stop("T1", 3, "2019-03-04T08:00:00", "2019-03-04T08:00:00"),
        _stop("T1", 3, "2019-03-04T09:00:00", "2019-03-04T09:00:00"),
        _stop("T1", 2, "2019-03-04T09:00:00", "2019-03-04T09:00:00"),
        _stop("T1", 2, "2019-03-04T09:00:00", "2019-03-04T09:00:00"),
    ]
    trips, diags = assemble_trips(make_stops(stops))
    assert len(trips) == 0
    assert [(d.trip_id, d.reason) for d in diags] == [
        ("T1", "duplicate stop_number(s): [2, 3]"),
        ("T5", "negative actual duration (last stop before first)"),
        ("T9", "fewer than 2 stops; duration undefined"),
    ]


def test_write_then_parse_round_trip(tmp_path):
    stops = make_stops(
        [
            _stop("T1", 1, "2019-03-04T08:00:00", "2019-03-04T08:10:00"),
            _stop("T1", 2, "2019-03-04T12:00:00", "2019-03-04T13:00:00"),
        ]
    )
    path = tmp_path / "roundtrip.csv"
    with path.open("w", newline="", encoding="utf-8") as handle:
        assert write_stops_csv(stops, handle) == 2
    parsed, rejects = parse_stops_csv(path)
    assert stop_rows(parsed) == stop_rows(stops) and rejects == []
    # Free text the table does not hold is written empty.
    assert path.read_text().splitlines()[1] == "T1,,1,,,Linz,2019-03-04T08:00:00,2019-03-04T08:10:00"


ODD_LABELS = ["", "a,b", 'say "hi"', "cr\rx", "lf\nx", "crlf\r\n", " pad ", "Straße", '"', ","]


@pytest.mark.parametrize("chunk", [1, 7, trip_data.CHUNK_ROWS])
def test_write_matches_csv_writer_bytes(chunk):
    # At 1 and 7 rows a chunk, chunk boundaries fall inside the table.
    n = 3 * len(ODD_LABELS)
    labels = ODD_LABELS * 3
    stops = make_stops(
        [(labels[i], i + 1, labels[-1 - i], f"2019-03-04T08:{i:02d}:00", f"2019-03-04T09:{i:02d}:00") for i in range(n)]
    )
    stops = trip_data.StopTable(
        stops.trip, stops.stop_number, stops.city, stops.scheduled_time, stops.actual_time,
        text={"address": coded(labels[::-1]), "client_name": coded(labels)},
    )
    got = io.StringIO(newline="")
    with mock.patch.object(trip_data, "CHUNK_ROWS", chunk):
        assert write_stops_csv(stops, got) == n
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(trip_data.CANONICAL_COLUMNS)
    for i in range(n):
        sched, actual = (str(t)[:19].replace(" ", "T") for t in (stops.scheduled_time[i], stops.actual_time[i]))
        writer.writerow([labels[i], "", i + 1, labels[i], labels[-1 - i], labels[-1 - i], sched, actual])
    assert got.getvalue() == want.getvalue()


def test_writer_odd_labels_parse_back_from_bytes(tmp_path):
    # Every label the writer can write, quotes included, is read back stripped without csv.reader.
    labels = ODD_LABELS + ['""', 'x"', '"y']
    n = len(labels)
    stops = make_stops(
        [(labels[i], i + 1, labels[-1 - i], f"2019-03-04T08:{i:02d}:00", f"2019-03-04T09:{i:02d}:00") for i in range(n)]
    )
    stops = trip_data.StopTable(
        stops.trip, stops.stop_number, stops.city, stops.scheduled_time, stops.actual_time,
        text={"address": coded(labels[::-1]), "client_name": coded(labels)},
    )
    path = tmp_path / "odd.csv"
    with path.open("w", newline="", encoding="utf-8") as handle:
        write_stops_csv(stops, handle)
    with mock.patch.object(csv, "reader", _no_csv_reader):
        parsed, rejects = parse_stops_csv(path)
    want = [(trip.strip(), stop, city.strip(), *times) for trip, stop, city, *times in stop_rows(stops)]
    assert stop_rows(parsed) == [row for row in want if row[0]]
    assert [(r.line_number, r.reason) for r in rejects] == [
        (i + 2, "empty trip_number") for i, row in enumerate(want) if not row[0]
    ]


def _trips(*specs):
    """Assembled two-stop trips from (trip id, start, hours) specs."""
    rows = []
    for trip_id, start_iso, hours in specs:
        start = datetime.fromisoformat(start_iso)
        end = start.replace(hour=start.hour + hours)
        rows += [_stop(trip_id, 1, start, start), _stop(trip_id, 2, end, end)]
    return assemble_trips(make_stops(rows))[0]


def test_summarize_duration_mean():
    trips = _trips(("T1", "2019-03-04T08:00:00", 2), ("T2", "2019-03-05T08:00:00", 4))
    s = summarize(trips)
    assert s.duration_mean == pytest.approx(3.0)
    assert s.total_trips == 2
    # sample std of {2, 4} = sqrt(2)
    assert s.duration_std == pytest.approx(math.sqrt(2.0))


def test_summarize_daytype_grouping_completeness():
    # 2019-03-02 and 2019-03-09 are Saturdays
    trips = _trips(("T1", "2019-03-02T08:00:00", 2), ("T2", "2019-03-09T08:00:00", 2))
    s = summarize(trips)
    assert s.trips_per_daytype["Saturday"] == (1.0, 0.0)
    assert s.trips_per_daytype["Weekday"] == (0.0, 0.0)
    assert s.trips_per_daytype["Sunday"] == (0.0, 0.0)


def test_summarize_total_trips_always_matches():
    trips = _trips(*((f"T{i}", "2019-03-04T08:00:00", 2) for i in range(7)))
    assert summarize(trips).total_trips == 7


def test_summarize_empty_errors():
    with pytest.raises(DataError):
        summarize(trip_table([]))


def test_weekdays_match_datetime():
    days = np.arange(np.datetime64("1969-12-25"), np.datetime64("1970-01-10"))
    assert trip_data.weekdays(days).tolist() == [d.weekday() for d in days.tolist()]
