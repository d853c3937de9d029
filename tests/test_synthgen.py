"""Synthetic generator: determinism, calibration mechanics, invariants."""

import io
import math

import numpy as np
import pytest

from tripcast.errors import DataError
from tripcast.synthgen import GenConfig, generate, load_gen_config
from tripcast.trip_data import assemble_trips, parse_stops_csv, summarize, write_stops_csv

from tests.helpers import stop_rows

ONE_MONTH = ((2019, 3),)


def small_config(**overrides):
    base = dict(
        months=ONE_MONTH,
        trips_per_daytype={"Weekday": (40.0, 8.0), "Saturday": (8.0, 2.0), "Sunday": (2.0, 0.7)},
        seed=11,
    )
    base.update(overrides)
    return GenConfig(**base)


def test_same_seed_byte_identical():
    cfg = small_config()
    a, b = generate(cfg), generate(cfg)
    assert stop_rows(a) == stop_rows(b)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_stops_csv(a, buf_a)
    write_stops_csv(b, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_different_seed_differs():
    a = generate(small_config(seed=1))
    b = generate(small_config(seed=2))
    assert stop_rows(a) != stop_rows(b)


def test_zero_std_degenerate_duration():
    cfg = small_config(
        trips_per_daytype={"Weekday": (10.0, 0.0), "Saturday": (3.0, 0.0), "Sunday": (1.0, 0.0)},
        stops_std=0.0,
        cities_std=0.0,
        duration_std=0.0,
        delay_std=0.0,
    )
    records = generate(cfg)
    trips, diags = assemble_trips(records)
    assert diags == []
    s = summarize(trips)
    assert s.duration_std == 0.0
    assert s.duration_mean == pytest.approx(4.55, abs=1e-3)
    assert s.delay_mean == pytest.approx(0.71, abs=1e-3)
    assert np.all(trips.num_stops == 6)


def test_output_passes_parse_and_assemble_with_zero_rejects(tmp_path):
    records = generate(small_config())
    path = tmp_path / "gen.csv"
    with path.open("w", newline="", encoding="utf-8") as handle:
        write_stops_csv(records, handle)
    parsed, row_rejects = parse_stops_csv(path)
    assert row_rejects == []
    assert stop_rows(parsed) == stop_rows(records)
    trips, trip_rejects = assemble_trips(parsed)
    assert trip_rejects == []
    assert len(set(records.trip.labels[records.trip.codes])) == len(trips)


def test_structural_invariants_per_trip():
    cfg = small_config()
    trips, _ = assemble_trips(generate(cfg))
    assert np.all(trips.num_stops >= cfg.stops_min)
    assert np.all((1 <= trips.num_cities) & (trips.num_cities <= trips.num_stops))
    assert np.all(trips.actual_duration >= cfg.duration_min * 3600.0 - 1.0)  # second rounding
    assert np.all(trips.scheduled_duration >= 0.0)


def test_negative_delay_frequency_matches_configured_normal():
    # ~25k trips: one default-rate month
    cfg = GenConfig(months=ONE_MONTH, seed=3)
    trips, _ = assemble_trips(generate(cfg))
    n = len(trips)
    assert n >= 10_000
    negative = int(np.count_nonzero(trips.delay < 0))
    p = 0.5 * (1.0 + math.erf((0.0 - cfg.delay_mean) / (cfg.delay_std * math.sqrt(2.0))))
    z = (negative / n - p) / math.sqrt(p * (1.0 - p) / n)
    assert abs(z) < 3.29  # two-sided p > 0.001


def test_seed_stability_of_summary_statistics():
    # >= 20k trips per seed; statistics move < 15% between seeds
    stats = []
    for seed in (101, 202):
        cfg = GenConfig(months=ONE_MONTH, seed=seed)
        trips, _ = assemble_trips(generate(cfg))
        assert len(trips) >= 20_000
        s = summarize(trips)
        stats.append(
            [
                s.trips_per_day_mean,
                s.stops_per_trip_mean,
                s.cities_per_trip_mean,
                s.duration_mean,
                s.delay_mean,
            ]
        )
    for a, b in zip(*stats):
        assert abs(a - b) <= 0.15 * max(abs(a), abs(b))


def test_empty_months_rejected():
    with pytest.raises(DataError, match="months"):
        generate(small_config(months=()))


def test_validation_rejects_bad_fields():
    with pytest.raises(DataError):
        small_config(duration_std=-1.0).validate()
    with pytest.raises(DataError):
        small_config(stops_min=1).validate()
    with pytest.raises(DataError):
        small_config(duration_min=0.0).validate()


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"duration_min": NAN}, "duration_min must be a finite number"),
        ({"delay_std": INF}, "delay_std must be a finite number"),
        ({"stops_mean": NAN}, "stops_mean must be a finite number"),
        ({"cities_mean": -INF}, "cities_mean must be a finite number"),
        ({"stops_std": "x"}, "stops_std must be a finite number"),
        ({"delay_mean": True}, "delay_mean must be a finite number"),
        ({"trips_per_daytype": {"Weekday": (NAN, 8.0), "Saturday": (8.0, 2.0), "Sunday": (2.0, 0.7)}},
         "Weekday trips mean must be a finite number"),
        ({"trips_per_daytype": {"Weekday": (40.0, 8.0), "Saturday": (8.0, INF), "Sunday": (2.0, 0.7)}},
         "Saturday trips std must be a finite number"),
        ({"stops_min": 2.5}, "stops_min must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"seed": "1"}, "seed must be an integer"),
    ],
)
def test_validation_rejects_non_finite_and_mistyped_values(overrides, message):
    with pytest.raises(DataError, match=message):
        small_config(**overrides).validate()


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"stops_mean": -5.0}, "stops_mean must be > 0"),
        ({"cities_mean": 0.0}, "cities_mean must be > 0"),
        ({"duration_mean": -1.0}, "duration_mean must be > 0"),
        ({"trips_per_daytype": {"Weekday": (-3.0, 8.0), "Saturday": (8.0, 2.0), "Sunday": (2.0, 0.7)}},
         "Weekday trips mean must be >= 0"),
    ],
)
def test_validation_rejects_means_out_of_range(overrides, message):
    # Unchecked, each of these wrote a CSV with exit 0.
    with pytest.raises(DataError, match=message):
        small_config(**overrides).validate()


def test_load_gen_config_defaults_and_overrides(tmp_path):
    path = tmp_path / "gen.conf"
    path.write_text(
        "\n".join(
            [
                "# comment line",
                "months = 2019-03..2019-05",
                "weekday_trips_mean = 50",
                "seed = 99",
                "duration_mean = 4.0  # inline comment",
            ]
        ),
        encoding="utf-8",
    )
    cfg = load_gen_config(path)
    assert cfg.months == ((2019, 3), (2019, 4), (2019, 5))
    assert cfg.trips_per_daytype["Weekday"][0] == 50.0
    assert cfg.trips_per_daytype["Saturday"] == (198.23, 23.54)  # default kept
    assert cfg.seed == 99
    assert cfg.duration_mean == 4.0


def test_load_gen_config_month_list(tmp_path):
    path = tmp_path / "gen.conf"
    path.write_text("months = 2019-03,2020-01\n", encoding="utf-8")
    assert load_gen_config(path).months == ((2019, 3), (2020, 1))


def test_load_gen_config_errors(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_gen_config(tmp_path / "absent.conf")
    bad_key = tmp_path / "bad_key.conf"
    for line in ("trips = 5\n", "cities_min = 1\n"):  # cities_min was never drawn from
        bad_key.write_text(line, encoding="utf-8")
        with pytest.raises(DataError, match="unknown config key"):
            load_gen_config(bad_key)
    bad_value = tmp_path / "bad_value.conf"
    bad_value.write_text("seed = oops\n", encoding="utf-8")
    with pytest.raises(DataError, match="bad value"):
        load_gen_config(bad_value)
    no_eq = tmp_path / "no_eq.conf"
    no_eq.write_text("just a line\n", encoding="utf-8")
    with pytest.raises(DataError, match="key = value"):
        load_gen_config(no_eq)
    # Years outside datetime.date's range ended in an internal error (exit 3).
    bad_month = tmp_path / "bad_month.conf"
    for months in ("0000-01", "9999-12", "2019-03..10000-01"):
        bad_month.write_text(f"months = {months}\n", encoding="utf-8")
        with pytest.raises(DataError, match="is outside 0001-01..9999-11"):
            load_gen_config(bad_month)
    bad_month.write_text("months = 9999-11\n", encoding="utf-8")
    assert load_gen_config(bad_month).months == ((9999, 11),)


def test_calibration_tracks_custom_targets():
    # Different duration/delay targets should still land near their means.
    cfg = small_config(
        months=((2019, 3), (2019, 4)),
        trips_per_daytype={"Weekday": (120.0, 10.0), "Saturday": (30.0, 5.0), "Sunday": (10.0, 2.0)},
        duration_mean=3.0,
        duration_std=2.0,
        delay_mean=0.3,
        delay_std=4.0,
        seed=21,
    )
    trips, _ = assemble_trips(generate(cfg))
    s = summarize(trips)
    assert s.duration_mean == pytest.approx(3.0, rel=0.10)
    assert s.delay_mean == pytest.approx(0.3, abs=0.12)
    assert s.stops_per_trip_mean == pytest.approx(6.0, rel=0.10)
    assert s.cities_per_trip_mean == pytest.approx(5.0, rel=0.10)


def test_records_sorted_canonically():
    records = generate(small_config())
    keys = [(trip, stop) for trip, stop, *_ in stop_rows(records)]
    assert keys == sorted(keys)
