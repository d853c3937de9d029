"""Feature extraction and the chronological feature table."""

import numpy as np
import pytest

from tripcast.errors import DataError
from tripcast.featurize import (
    DAY_TYPE_COLUMN,
    FEATURE_COLUMNS,
    TargetKind,
    build_table,
    calendar_fields,
)
from tripcast.synthgen import GenConfig, generate
from tripcast.trip_data import assemble_trips

from tests.helpers import make_trip, trip_table


def featurize_one(trip, target):
    """The feature row and target of a one-trip table, by feature name."""
    table = build_table(trip_table([trip]), target)
    return dict(zip(FEATURE_COLUMNS, table.X[0].tolist())), float(table.y[0])


def test_featurize_monday_trip_duration_target():
    # 2019-03-04 is a Monday in ISO week 10
    trip = make_trip("T1", "2019-03-04T08:30:00", sched_s=14400, actual_s=18000)
    row, target = featurize_one(trip, TargetKind.DURATION)
    assert (row["num_cities"], row["num_stops"]) == (4, 5)
    assert (row["month"], row["week_number"], row["day_of_month"]) == (3, 10, 4)
    assert (row["day_type"], row["hour"], row["minute"]) == (0, 8, 30)
    assert row["scheduled_duration"] == 14400.0
    assert target == 18000.0


def test_featurize_delay_target():
    trip = make_trip("T1", "2019-03-04T08:30:00", sched_s=14400, actual_s=18000)
    assert featurize_one(trip, TargetKind.DELAY)[1] == 3600.0


def test_featurize_zero_delay():
    trip = make_trip("T1", "2019-03-04T08:30:00", sched_s=7200, actual_s=7200)
    assert featurize_one(trip, TargetKind.DELAY)[1] == 0.0


def test_calendar_fields_match_datetime():
    # Every day of 2000..2030 at a random second of the day; the range holds
    # ISO week 53 (2004, 2009, 2015, 2020, 2026) and December days in week 1.
    days = np.arange(np.datetime64("2000-01-01"), np.datetime64("2031-01-01"))
    seconds = np.random.default_rng(20190301).integers(0, 86400, size=len(days))
    times = days.astype("datetime64[s]") + seconds.astype("timedelta64[s]")
    fields = calendar_fields(times)
    expected = {name: [] for name in fields}
    for ts in times.tolist():
        expected["month"].append(ts.month)
        expected["week_number"].append(ts.isocalendar()[1])
        expected["day_of_month"].append(ts.day)
        expected["day_type"].append(ts.weekday())
        expected["hour"].append(ts.hour)
        expected["minute"].append(ts.minute)
    for name, values in fields.items():
        assert values.tolist() == expected[name], name
    assert 53 in expected["week_number"]
    assert any(ts.month == 12 and ts.isocalendar()[1] == 1 for ts in times.tolist())


def test_feature_vector_order_is_documented():
    assert FEATURE_COLUMNS == (
        "num_cities",
        "num_stops",
        "month",
        "week_number",
        "day_of_month",
        "day_type",
        "hour",
        "minute",
        "scheduled_duration",
    )
    assert FEATURE_COLUMNS[DAY_TYPE_COLUMN] == "day_type"
    trip = make_trip("T1", "2019-03-04T08:30:00", 14400, 18000)
    table = build_table(trip_table([trip]), TargetKind.DURATION)
    assert table.X.tolist() == [[4.0, 5.0, 3.0, 10.0, 4.0, 0.0, 8.0, 30.0, 14400.0]]


def test_build_table_sorted_by_start_time():
    trips = [
        make_trip("T3", "2019-03-06T08:00:00", 3600, 3600),
        make_trip("T1", "2019-03-04T08:00:00", 3600, 3600),
        make_trip("T2", "2019-03-05T08:00:00", 3600, 3600),
    ]
    table = build_table(trip_table(trips), TargetKind.DURATION)
    assert table.trip_ids == ["T1", "T2", "T3"]
    assert table.start_times.dtype == np.dtype("datetime64[s]")
    assert np.all(table.start_times[1:] > table.start_times[:-1])


def test_build_table_tie_break_by_trip_id():
    trips = [
        make_trip("TB", "2019-03-04T08:00:00", 3600, 3600),
        make_trip("TA", "2019-03-04T08:00:00", 3600, 3600),
    ]
    assert build_table(trip_table(trips), TargetKind.DURATION).trip_ids == ["TA", "TB"]


def test_build_table_permutation_invariant():
    trips = [
        make_trip(f"T{i}", f"2019-03-{4 + i:02d}T08:00:00", 3600 * i + 60, 3600 * i + 120)
        for i in range(5)
    ]
    fwd = build_table(trip_table(trips), TargetKind.DELAY)
    rev = build_table(trip_table(list(reversed(trips))), TargetKind.DELAY)
    assert fwd.trip_ids == rev.trip_ids
    assert np.array_equal(fwd.X, rev.X) and np.array_equal(fwd.y, rev.y)


def test_build_table_empty_errors():
    with pytest.raises(DataError):
        build_table(trip_table([]), TargetKind.DURATION)


def test_duration_minus_delay_equals_scheduled_on_generated_data():
    cfg = GenConfig(
        months=((2019, 3),),
        trips_per_daytype={"Weekday": (12.0, 3.0), "Saturday": (3.0, 1.0), "Sunday": (1.0, 0.4)},
        seed=5,
    )
    trips, _ = assemble_trips(generate(cfg))
    t_dur = build_table(trips, TargetKind.DURATION)
    t_del = build_table(trips, TargetKind.DELAY)
    sched = t_dur.X[:, FEATURE_COLUMNS.index("scheduled_duration")]
    assert np.array_equal(t_dur.y - t_del.y, sched)
    # featurize is total on valid trips
    assert len(t_dur) == len(trips)


def test_target_kind_parse():
    assert TargetKind.parse("duration") is TargetKind.DURATION
    assert TargetKind.parse(" DELAY ") is TargetKind.DELAY
    with pytest.raises(DataError, match="unknown target"):
        TargetKind.parse("lateness")
