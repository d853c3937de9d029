"""Synthetic generator: determinism, calibration mechanics, invariants."""

import calendar
import io
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tripcast
from tripcast import synthgen
from tripcast.errors import DataError
from tripcast.synthgen import (
    MAX_CITY_POOL,
    MAX_CONFIG_BYTES,
    MAX_ROWS,
    MAX_STOPS,
    MAX_TRIP_HOURS,
    GenConfig,
    _base_mean_gap,
    _days_by_weekday,
    _expected_cities,
    _norm_cdf,
    _solve_base_duration_mean,
    _solve_city_pool_size,
    _stop_count_pmf,
    generate,
    load_gen_config,
)
from tripcast.trip_data import assemble_trips, parse_stops_csv, summarize, write_stops_csv

from tests.helpers import mutated_bytes, stop_rows, time_limit

ONE_MONTH = ((2019, 3),)


def small_config(**overrides):
    base = dict(
        months=ONE_MONTH,
        weekday_trips_mean=40.0,
        weekday_trips_std=8.0,
        saturday_trips_mean=8.0,
        saturday_trips_std=2.0,
        sunday_trips_mean=2.0,
        sunday_trips_std=0.7,
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
        weekday_trips_mean=10.0,
        weekday_trips_std=0.0,
        saturday_trips_mean=3.0,
        saturday_trips_std=0.0,
        sunday_trips_mean=1.0,
        sunday_trips_std=0.0,
        stops_std=0.0,
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


def test_trips_of_the_last_month_end_by_year_9999(tmp_path):
    # The lognormal base has no upper bound: at a duration std of 80 h three
    # trips of 9999-11 ran into year 10000, and the parser refused 22 rows.
    records = generate(GenConfig(months=((9999, 11),), duration_mean=10.0, duration_std=80.0))
    path = tmp_path / "gen.csv"
    with path.open("w", newline="", encoding="utf-8") as handle:
        write_stops_csv(records, handle)
    parsed, row_rejects = parse_stops_csv(path)
    assert row_rejects == []
    trips, trip_rejects = assemble_trips(parsed)
    assert trip_rejects == []
    longest = MAX_TRIP_HOURS * 3600.0
    assert trips.scheduled_duration.max() == trips.actual_duration.max() == longest  # clipped, not past it


def test_a_trips_std_past_the_float_range_squared_is_refused_as_a_data_error():
    # The row bound squared it with ``**``, which raised OverflowError.
    with pytest.raises(DataError, match="above MAX_ROWS"):
        small_config(weekday_trips_std=1e300).validate()


def test_a_config_that_draws_no_trip_is_refused(tmp_path):
    # Every daily count rounds to 0: synth wrote a header alone, which the parser refuses.
    calm = small_config(**{f"{day}_trips_{law}": value for day in ("weekday", "saturday", "sunday")
                           for law, value in (("mean", 0.4), ("std", 0.0))})
    with pytest.raises(DataError, match="drew no trip on any day"):
        generate(calm)


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
        ({"weekday_trips_mean": NAN}, "GenConfig weekday_trips_mean must be a finite number"),
        ({"saturday_trips_std": INF}, "GenConfig saturday_trips_std must be a finite number"),
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
        ({"weekday_trips_mean": -3.0}, "GenConfig weekday_trips_mean must be >= 0"),
        # Means below the floor every trip meets: 1e-9 wrote 2.45 stops and 3.43 h a trip.
        ({"stops_mean": 1e-9}, "stops_mean 1e-09 is below stops_min 2"),
        ({"stops_mean": 2.5, "stops_min": 3}, "stops_mean 2.5 is below stops_min 3"),
        ({"duration_mean": 1e-9}, "duration_mean 1e-09 is below duration_min 0.05"),
        ({"duration_mean": 0.01}, "duration_mean 0.01 is below duration_min 0.05"),
        # Above the floor, but the delay law lifts every trip further: the generator
        # fell back to a near-zero base duration and missed the mean.
        ({"duration_mean": 0.5}, r"duration_mean 0.5 cannot be met: with delay_mean 0.71 .* at least 3\.2"),
        ({"duration_mean": 2.0}, r"duration_mean 2.0 cannot be met: .*duration_min 0.05"),
        ({"duration_mean": 0.8, "delay_mean": 0.9, "delay_std": 0.0},
         r"duration_mean 0.8 cannot be met: with delay_mean 0.9 \(std 0.0\) and duration_min 0.05 .* at least 0\.9"),
        # Past the ceilings: the stop-count PMF or the draws ran out of memory, and
        # huge durations ended in an OverflowError or wrote NaT stamps.
        ({"stops_mean": 1e7}, r"stops_mean \+ 8 stops_std is 1e\+07, above MAX_STOPS 1000"),
        ({"stops_std": 1e12}, r"stops_mean \+ 8 stops_std is 8e\+12"),
        ({"duration_std": 1e300}, r"is 8e\+300 h, above MAX_TRIP_HOURS 744"),
        ({"duration_mean": 1e300}, r"is 1e\+300 h, above MAX_TRIP_HOURS 744"),
        ({"delay_mean": -1e300}, r"is 1e\+300 h, above MAX_TRIP_HOURS 744"),
        # A delay spread whose 8-std reach passes the ceiling is refused as well.
        ({"delay_std": 90.0}, r"is 7\d\d\.\d+ h, above MAX_TRIP_HOURS 744"),
        # Daily trip counts past the row ceiling: the day's draws ran out of memory.
        ({"weekday_trips_mean": 1e9}, r"ask for 1\.286\d*e\+11 stop rows on average .* above MAX_ROWS 80,000,000"),
        ({"weekday_trips_std": 1e12}, r"ask for 5\.13\d*e\+13 stop rows on average and 2\.758\d*e\+14 at 8 stds"),
        # A negative std names its field; it read "standard deviations must be >= 0".
        ({"sunday_trips_std": -1.0}, "GenConfig sunday_trips_std must be >= 0, got -1.0"),
        # More distinct cities than the largest pool gives: 1e9 was accepted and drew 6.0 a trip.
        ({"cities_mean": 1e9}, r"cities_mean 1000000000\.0 is above 6\.12\d*, .* MAX_CITY_POOL 4,096 cities"),
        ({"cities_mean": 3.0, "stops_mean": 2.0, "stops_std": 0.0}, r"cities_mean 3\.0 is above 1\.99\d*"),
    ],
)
def test_validation_rejects_means_out_of_range(overrides, message):
    # Unchecked, each of these wrote a CSV with exit 0 or failed inside a draw.
    # Each is refused before any draw.
    with pytest.raises(DataError, match=message):
        generate(small_config(**overrides))


def test_configs_at_the_ceilings_pass():
    GenConfig().validate()
    cfg = small_config()
    most_cities = _expected_cities(*_stop_count_pmf(cfg), MAX_CITY_POOL)
    replace(cfg, cities_mean=most_cities).validate()
    assert _solve_city_pool_size(replace(cfg, cities_mean=most_cities)) == MAX_CITY_POOL
    small_config(stops_mean=float(MAX_STOPS), stops_std=0.0, stops_min=MAX_STOPS).validate()
    # 100 + |-44| + 8 * (0 + 75) is MAX_TRIP_HOURS exactly.
    small_config(duration_mean=100.0, duration_std=0.0, delay_mean=-44.0, delay_std=75.0).validate()
    # February 2021 has 20 weekdays; 2 stops on each of MAX_ROWS / 40 trips a weekday is MAX_ROWS exactly.
    at_rows = small_config(
        months=((2021, 2),),
        weekday_trips_mean=MAX_ROWS / 40,
        weekday_trips_std=0.0,
        saturday_trips_mean=0.0,
        saturday_trips_std=0.0,
        sunday_trips_mean=0.0,
        sunday_trips_std=0.0,
        stops_mean=2.0,
        stops_std=0.0,
        cities_mean=1.5,  # two stops visit at most two cities
    )
    at_rows.validate()
    with pytest.raises(DataError, match="above MAX_ROWS"):
        replace(at_rows, weekday_trips_mean=math.nextafter(MAX_ROWS / 40, math.inf)).validate()


def test_three_years_at_the_default_daily_counts_pass():
    months = tuple((year, month) for year in (2019, 2020, 2021) for month in range(1, 13))
    GenConfig(months=months).validate()


def test_four_years_at_the_default_daily_counts_pass_and_fifty_are_refused():
    # Four years draw about 7.3M rows. Their bound read 96.9M, and refused
    # them, when it multiplied a day's 8-std trips by a trip's 8-std stops;
    # it is now the total's mean plus 8 of its stds, 8.25M.
    def years(n):
        return tuple((year, month) for year in range(2019, 2019 + n) for month in range(1, 13))

    GenConfig(months=years(4)).validate()
    with pytest.raises(DataError, match=r"ask for 9\.8\d*e\+07 stop rows on average .* above MAX_ROWS"):
        GenConfig(months=years(50)).validate()


def test_days_by_weekday_matches_a_day_by_day_count():
    months = ((1, 1), (1900, 2), (2000, 2), (2019, 3), (2020, 2), (2021, 2), (2021, 12), (9999, 11))
    counts = [0] * 7
    for year, month in months:
        first_weekday, n_days = calendar.monthrange(year, month)
        for day in range(n_days):
            counts[(first_weekday + day) % 7] += 1
    assert _days_by_weekday(months) == counts


@pytest.mark.parametrize(
    "months",
    [
        ((2019, 3.0),),
        ((2019, True),),
        (("2019", 3),),
        ((2019, 3, 1),),
        ((2019,),),
        (2019,),
        [(2019, 3)],
        ((2019, 3), (2019, 3)),
        ((2019, 4), (2019, 3)),
    ],
)
def test_months_must_be_increasing_pairs_of_integers(months):
    # Unchecked, these ended in a bare TypeError or ValueError, generated January for
    # True, or wrote a repeated month's trips twice under the same trip numbers.
    with pytest.raises(DataError, match="months"):
        small_config(months=months).validate()


def test_trip_numbers_of_years_before_1000_are_zero_padded_and_sorted():
    # strftime("%Y") writes no leading zeros on glibc: T9991201-... sorted after T10000101-...
    records = generate(small_config(months=((999, 12), (1000, 1))))
    trips = [trip for trip, *_ in stop_rows(records)]
    assert trips[0] == "T09991201-00000"
    assert trips[-1].startswith("T10000131-")
    assert trips == sorted(trips)


def test_gen_config_is_hashable():
    # The trip counts were a dict: hash() raised a TypeError, and the dict could change after validate.
    assert hash(GenConfig()) == hash(GenConfig())
    assert len({GenConfig(), GenConfig(), GenConfig(seed=1)}) == 2


#: A valid value other than the default for every scalar GenConfig field.
CHANGED_SCALARS = {
    "weekday_trips_mean": 50.5,
    "weekday_trips_std": 5.25,
    "saturday_trips_mean": 9.0,
    "saturday_trips_std": 1.5,
    "sunday_trips_mean": 2.0,
    "sunday_trips_std": 0.75,
    "stops_mean": 7.0,
    "stops_std": 2.5,
    "stops_min": 3,
    "cities_mean": 4.0,
    "duration_mean": 5.0,
    "duration_std": 3.0,
    "duration_min": 0.1,
    "delay_mean": 0.5,
    "delay_std": 6.0,
    "seed": 99,
}


def test_every_scalar_field_round_trips_through_a_config_file(tmp_path):
    assert set(CHANGED_SCALARS) == {f.name for f in fields(GenConfig)} - {"months"}
    default = GenConfig()
    assert all(getattr(default, name) != value for name, value in CHANGED_SCALARS.items())
    path = tmp_path / "gen.conf"
    path.write_text("".join(f"{name} = {value!r}\n" for name, value in CHANGED_SCALARS.items()), encoding="utf-8")
    assert load_gen_config(path) == replace(default, **CHANGED_SCALARS)


#: A config setting every key, for the mutation test below.
FULL_CONFIG = ("months = 2019-03..2019-05\n" + "".join(f"{k} = {v!r}\n" for k, v in CHANGED_SCALARS.items())).encode()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=mutated_bytes(FULL_CONFIG))
def test_property_mutated_config_loads_or_is_a_data_error(tmp_path, content):
    # Truncated, spliced or flipped bytes, a number in nested brackets or a
    # huge number: the loader returns a checked config or refuses the file.
    path = tmp_path / "gen.conf"
    path.write_bytes(content)
    with time_limit(5):
        try:
            cfg = load_gen_config(path)
        except DataError:
            return
    cfg.validate()


#: Values outside some rule of a float GenConfig field, and of an int one.
WILD_FLOATS = (-1.0, 0.0, math.nan, math.inf, -math.inf, 1e9, 1e300)
WILD_INTS = (-1, 0, 1, 10**9, 10**300, 2.0, True)
#: Values within the rules of each field but months. The trip means are small,
#: so a config that passes draws few rows; 1e9 and 1e300 trips a day pass MAX_ROWS.
TAME = {
    "weekday_trips_mean": (0.4, 3.0),
    "weekday_trips_std": (0.0, 0.5, 2.0),
    "saturday_trips_mean": (0.4, 2.0),
    "saturday_trips_std": (0.0, 0.5),
    "sunday_trips_mean": (0.4, 1.0),
    "sunday_trips_std": (0.0, 0.5),
    "stops_mean": (2.0, 3.5, 6.0),
    "stops_std": (0.5, 3.0),
    "stops_min": (2, 3),
    "cities_mean": (1.0, 2.5, 5.0),
    "duration_mean": (0.5, 4.55, 100.0),
    "duration_std": (1.0, 4.19, 80.0),
    "duration_min": (0.05, 1.0),
    "delay_mean": (-3.0, 0.71),
    "delay_std": (1.0, 7.26),
    "seed": (7, 20190301),
}
#: Years and months a config may and may not name: 0001-01..9999-11 pass.
YEARS, MONTHS = (0, 1, 1969, 2019, 9999, 10000), (0, 1, 2, 11, 12, 13)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_property_a_config_is_refused_before_a_row_is_drawn_or_writes_a_csv_that_reads_back(tmp_path, data):
    # Every field comes from a wide set: up to three from their wild values,
    # the rest tame, and one or two months (or none) from either side of the bounds.
    months = tuple(data.draw(st.lists(st.tuples(st.sampled_from(YEARS), st.sampled_from(MONTHS)), max_size=2)))
    wild = data.draw(st.sets(st.sampled_from(sorted(TAME)), max_size=3))
    config = GenConfig(months=months, **{
        name: data.draw(
            st.sampled_from((WILD_INTS if isinstance(tame[0], int) else WILD_FLOATS) if name in wild else tame),
            label=name,
        )
        for name, tame in TAME.items()
    })
    days = []

    def drawn_day(*args):
        days.append(synthgen_generate_day(*args))
        return days[-1]

    synthgen_generate_day = synthgen._generate_day
    with mock.patch.object(synthgen, "_generate_day", drawn_day), time_limit(5):
        try:
            stops = generate(config)
        except DataError:
            assert all(day is None for day in days)  # refused before any row was drawn
            return
    path = tmp_path / "gen.csv"
    with path.open("w", newline="", encoding="utf-8") as handle:
        write_stops_csv(stops, handle)
    parsed, row_rejects = parse_stops_csv(path)
    assert row_rejects == [] and len(parsed) == len(stops)
    _, trip_rejects = assemble_trips(parsed)
    assert trip_rejects == []


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
    assert cfg.weekday_trips_mean == 50.0
    assert (cfg.saturday_trips_mean, cfg.saturday_trips_std) == (198.23, 23.54)  # default kept
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
    for line in ("trips = 5\n", "cities_min = 1\n", "cities_std = 1\n"):  # neither city key was drawn from
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


def test_config_over_the_size_bound_is_refused(tmp_path):
    # A config is read whole, so its size is bounded: at most MAX_CONFIG_BYTES
    # (and one byte more) is read, whatever the file's length.
    path = tmp_path / "long.conf"
    line = b"seed = 7\n"
    path.write_bytes(line + b"#" * (MAX_CONFIG_BYTES - len(line)))
    assert load_gen_config(path).seed == 7
    path.write_bytes(line + b"#" * (MAX_CONFIG_BYTES - len(line) + 1))
    with pytest.raises(DataError, match=f"has {MAX_CONFIG_BYTES + 1} bytes, over the {MAX_CONFIG_BYTES}"):
        load_gen_config(path)


def test_config_that_changes_size_while_it_is_read_is_refused(tmp_path):
    path = tmp_path / "gen.conf"
    path.write_bytes(b"seed = 7\n")
    real = path.stat()
    stale = SimpleNamespace(st_mode=real.st_mode, st_size=real.st_size - 1)  # as if appended to after the stat
    with mock.patch.object(Path, "stat", return_value=stale), pytest.raises(DataError, match="changed size while it was read"):
        load_gen_config(path)


def test_calibration_tracks_custom_targets():
    # Different duration/delay targets should still land near their means.
    cfg = small_config(
        months=((2019, 3), (2019, 4)),
        weekday_trips_mean=120.0,
        weekday_trips_std=10.0,
        saturday_trips_mean=30.0,
        saturday_trips_std=5.0,
        sunday_trips_mean=10.0,
        sunday_trips_std=2.0,
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


# Φ(a) from mpmath (50 digits), rounded to the nearest double.
NORMAL_CDF = [
    (0.0, 0.5),
    (1.96, 0.9750021048517795),
    (-1.96, 0.024997895148220435),
    (-10.0, 7.619853024160525e-24),
    (-20.0, 2.7536241186062337e-89),
    (-37.0, 5.725571222524577e-300),
    (math.inf, 1.0),
    (-math.inf, 0.0),
]


def test_norm_cdf_matches_reference_values():
    a = np.array([point for point, _ in NORMAL_CDF])
    got = _norm_cdf(a)
    for point, value, reference in zip(a, got, (ref for _, ref in NORMAL_CDF)):
        # Rounding a * sqrt(1/2) to a double moves Φ by about a² ulp in relative
        # terms, so the bound widens in the tails; scipy's ndtr was further off.
        tolerance = max(1e-15, 2.0**-52 * point * point) if math.isfinite(point) else 0.0
        assert abs(value - reference) <= tolerance * reference, (point, value, reference)
    assert np.isnan(_norm_cdf(np.array([math.nan]))).all()


def test_norm_cdf_is_symmetric():
    x = np.linspace(-40.0, 40.0, 8001)
    assert np.array_equal(_norm_cdf(x) + _norm_cdf(-x), np.ones_like(x))


def test_import_does_not_load_scipy():
    src = str(Path(tripcast.__file__).resolve().parents[1])
    code = "import sys, tripcast.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, timeout=60).returncode == 0


def _bisect_100_steps(cfg):
    """The solver's bisection without its early stop: always 100 steps."""
    g = _base_mean_gap(cfg)
    lo, hi = 1e-9, cfg.duration_mean - cfg.delay_mean
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize(
    "overrides",
    [
        {},  # the default calibration, which every benchmark config keeps
        {"stops_std": 0.0, "duration_std": 0.0, "delay_std": 0.0},
        {"delay_std": 0.0},
        {"duration_mean": 3.0, "duration_std": 2.0, "delay_mean": 0.3, "delay_std": 4.0},
        {"duration_mean": 100.0, "duration_std": 30.0, "delay_mean": -3.0, "delay_std": 20.0},
    ],
)
def test_bisection_stops_on_the_100_step_result(overrides):
    cfg = small_config(**overrides)
    assert _solve_base_duration_mean(cfg).hex() == _bisect_100_steps(cfg).hex()
