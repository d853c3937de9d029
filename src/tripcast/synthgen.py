"""Seeded synthetic stop-level data generator.

Produces a stops table whose summary statistics (trips per day type, stops
and cities per trip, trip duration and delay) track a configured set of
targets, so the full experiment pipeline can run without any proprietary
delivery log. Output is deterministic for a fixed seed: every calendar day
derives an independent PCG64 substream from (seed, date), and days are
emitted in chronological order.

The output is a columnar :class:`~tripcast.trip_data.StopTable`. Each day
makes one vectorized draw per quantity (trip count, stop counts, delays,
base durations, start times, interior stop fractions, cities) and lays its
rows out with ``repeat``/``cumsum`` offsets; interior fractions are sorted
within each trip by one ``lexsort``. The draw order and every floating-point
operation are those of a per-stop loop, so the CSV bytes for a seed do not
depend on the layout. Client names and addresses depend only on (stop index,
city) and are stored as codes into the distinct pairs' labels.

Calibration notes. Per-trip delay is drawn directly from the configured
normal distribution. The scheduled duration is ``max(base, min_duration -
delay)`` where ``base`` is lognormal; the floor guarantees every actual
duration (scheduled + delay) respects the configured minimum. Because that
floor lifts the scheduled-duration mean, the lognormal's mean is solved
numerically so the *resulting* actual-duration mean hits the configured
target. Distinct-city counts come from drawing each stop's city out of a
fixed pool whose size is solved so the expected number of distinct cities
per trip matches the configured mean.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields, replace
from datetime import date as Date
from datetime import timedelta
from pathlib import Path
from typing import ClassVar

import numpy as np
from scipy.special import ndtr

from .checks import is_finite, is_int
from .errors import DataError
from .rng import substream
from .trip_data import DAY_TYPES, Coded, StopTable, day_type_of

DEFAULT_MONTHS: tuple[tuple[int, int], ...] = (
    (2019, 3),
    (2019, 4),
    (2019, 5),
    (2019, 6),
    (2019, 7),
    (2019, 8),
    (2019, 9),
)

DEFAULT_SEED = 20190301

#: The months a config may name. ``_month_days`` steps to the day after a
#: month's last, which for 9999-12 is past the range of ``datetime.date``.
FIRST_MONTH, LAST_MONTH = (1, 1), (9999, 11)


@dataclass(slots=True, frozen=True)
class GenConfig:
    """Calibration targets and seed for the synthetic generator.

    All duration/delay figures are hours; trip counts are per calendar day
    of the given day type. Standard deviations of zero give degenerate
    (constant) draws. Cities per trip follow from a pool sized for
    ``cities_mean`` alone, so their spread is not a setting:
    ``cities_std`` is the spread of the default calibration, which the
    benchmark's ingest check (``perfbench/workloads.py``) reads.
    :meth:`validate` requires every float field and each day type's mean
    and std to be a finite number, and ``stops_min`` and ``seed`` to be
    integers. The stop, city and duration means must be > 0, the stop and
    duration means at least their floors ``stops_min`` and
    ``duration_min``, each day type's trips mean >= 0, and every month
    within ``FIRST_MONTH`` to ``LAST_MONTH``. A duration mean that the
    delay law and the floor together put out of reach is refused when the
    generator calibrates, before any draw.
    """

    months: tuple[tuple[int, int], ...] = DEFAULT_MONTHS
    trips_per_daytype: dict[str, tuple[float, float]] = field(
        default_factory=lambda: {
            "Weekday": (1084.57, 237.42),
            "Saturday": (198.23, 23.54),
            "Sunday": (48.88, 14.98),
        }
    )
    stops_mean: float = 6.0
    stops_std: float = 3.0
    stops_min: int = 2
    cities_mean: float = 5.0
    cities_std: ClassVar[float] = 3.0
    duration_mean: float = 4.55
    duration_std: float = 4.19
    duration_min: float = 0.05
    delay_mean: float = 0.71
    delay_std: float = 7.26
    seed: int = DEFAULT_SEED

    def validate(self) -> None:
        if not self.months:
            raise DataError("GenConfig.months must be nonempty")
        for ym in self.months:
            year, month = ym
            if not 1 <= month <= 12:
                raise DataError(f"invalid month {ym!r}")
            if not FIRST_MONTH <= ym <= LAST_MONTH:
                raise DataError(f"month {year:04d}-{month:02d} is outside 0001-01..9999-11")
        for day_type in DAY_TYPES:
            if day_type not in self.trips_per_daytype:
                raise DataError(f"trips_per_daytype is missing {day_type!r}")
        numbers = {f.name: getattr(self, f.name) for f in fields(self) if f.type in (float, "float")}
        for day_type, (mean, std) in self.trips_per_daytype.items():
            numbers |= {f"{day_type} trips mean": mean, f"{day_type} trips std": std}
        for name, value in numbers.items():
            if not is_finite(value):
                raise DataError(f"GenConfig {name} must be a finite number, got {value!r}")
        for name in ("stops_min", "seed"):
            if not is_int(getattr(self, name)):
                raise DataError(f"GenConfig {name} must be an integer, got {getattr(self, name)!r}")
        if any(value < 0 for name, value in numbers.items() if name.endswith("std")):
            raise DataError("standard deviations must be >= 0")
        if self.stops_min < 2:
            raise DataError("stops_min must be >= 2 (trip duration is undefined below)")
        if self.duration_min <= 0:
            raise DataError("duration_min must be > 0")
        for name in ("stops_mean", "cities_mean", "duration_mean"):
            if getattr(self, name) <= 0:
                raise DataError(f"GenConfig {name} must be > 0, got {getattr(self, name)!r}")
        for name, floor in (("stops_mean", "stops_min"), ("duration_mean", "duration_min")):
            if getattr(self, name) < getattr(self, floor):
                raise DataError(
                    f"GenConfig {name} {getattr(self, name)!r} is below {floor} {getattr(self, floor)!r},"
                    " which every trip meets"
                )
        for day_type, (mean, _) in self.trips_per_daytype.items():
            if mean < 0:
                raise DataError(f"{day_type} trips mean must be >= 0, got {mean!r}")


def _norm_cdf(x: np.ndarray | float) -> np.ndarray | float:
    return ndtr(x)


def _lognormal_params(mean: float, std: float) -> tuple[float, float]:
    """(mu, sigma) of a lognormal with the given mean and std (sigma=0 ok)."""
    if std == 0.0:
        return math.log(mean) if mean > 0 else -math.inf, 0.0
    var_log = math.log(1.0 + (std / mean) ** 2)
    return math.log(mean) - 0.5 * var_log, math.sqrt(var_log)


def _expected_floored_base(
    base_mean: float, base_std: float, floor_grid: np.ndarray, floor_pdf_w: np.ndarray
) -> float:
    """E[max(B, F)] where B is lognormal(mean, std) and F has the gridded law."""
    c = floor_grid
    if base_mean <= 0:
        return float(np.sum(np.maximum(c, 0.0) * floor_pdf_w))
    if base_std == 0.0:
        values = np.maximum(base_mean, c)
        return float(np.sum(values * floor_pdf_w))
    mu, sigma = _lognormal_params(base_mean, base_std)
    values = np.full_like(c, base_mean)
    pos = c > 0
    if np.any(pos):
        log_c = np.log(c[pos])
        upper_tail = base_mean * _norm_cdf((mu + sigma * sigma - log_c) / sigma)
        below = c[pos] * _norm_cdf((log_c - mu) / sigma)
        values[pos] = upper_tail + below
    return float(np.sum(values * floor_pdf_w))


def _solve_base_duration_mean(cfg: GenConfig) -> float:
    """Mean of the lognormal scheduled-duration base.

    Solves E[max(B, duration_min - delay)] = duration_mean - delay_mean so the
    actual-duration mean lands on target despite the minimum-duration floor.
    When the floor alone meets or exceeds the target, even with a near-zero
    base, no base reaches it: that is a ``DataError``.
    """
    target = cfg.duration_mean - cfg.delay_mean
    if cfg.delay_std == 0.0:
        floor_grid = np.array([cfg.duration_min - cfg.delay_mean])
        floor_pdf_w = np.array([1.0])
    else:
        lo = cfg.duration_min - cfg.delay_mean - 10.0 * cfg.delay_std
        hi = cfg.duration_min - cfg.delay_mean + 10.0 * cfg.delay_std
        floor_grid = np.linspace(lo, hi, 4001)
        pdf = np.exp(
            -0.5 * ((floor_grid - (cfg.duration_min - cfg.delay_mean)) / cfg.delay_std) ** 2
        )
        floor_pdf_w = pdf / pdf.sum()

    def g(m0: float) -> float:
        return _expected_floored_base(m0, cfg.duration_std, floor_grid, floor_pdf_w) - target

    lo_m, hi_m = 1e-9, target
    if g(lo_m) >= 0.0:
        lowest = g(lo_m) + target + cfg.delay_mean
        raise DataError(
            f"GenConfig duration_mean {cfg.duration_mean!r} cannot be met: with delay_mean"
            f" {cfg.delay_mean!r} (std {cfg.delay_std!r}) and duration_min {cfg.duration_min!r}"
            f" the mean trip duration is at least {lowest:.6g}"
        )
    # g(hi_m) >= 0 because E[max(B, F)] >= E[B]; plain bisection.
    for _ in range(100):
        mid = 0.5 * (lo_m + hi_m)
        if g(mid) < 0.0:
            lo_m = mid
        else:
            hi_m = mid
    return 0.5 * (lo_m + hi_m)


def _stop_count_pmf(cfg: GenConfig) -> tuple[np.ndarray, np.ndarray]:
    """PMF of the per-trip stop count max(round(N(mean, std)), min)."""
    if cfg.stops_std == 0.0:
        k = max(int(round(cfg.stops_mean)), cfg.stops_min)
        return np.array([k]), np.array([1.0])
    k_max = max(cfg.stops_min + 1, int(math.ceil(cfg.stops_mean + 8.0 * cfg.stops_std)))
    ks = np.arange(cfg.stops_min, k_max + 1)
    upper = _norm_cdf((ks + 0.5 - cfg.stops_mean) / cfg.stops_std)
    lower = _norm_cdf((ks - 0.5 - cfg.stops_mean) / cfg.stops_std)
    pmf = upper - lower
    pmf[0] = upper[0]  # everything below min clamps up
    pmf[-1] += 1.0 - upper[-1]
    return ks, pmf


def _solve_city_pool_size(cfg: GenConfig) -> int:
    """Pool size P so that E[#distinct among s uniform draws] hits cities_mean."""
    ks, pmf = _stop_count_pmf(cfg)
    target = cfg.cities_mean
    best_p, best_err = 1, float("inf")
    for p in range(1, 4097):
        expected = float(np.sum(pmf * p * (1.0 - (1.0 - 1.0 / p) ** ks)))
        err = abs(expected - target)
        if err < best_err:
            best_p, best_err = p, err
        if expected > target and err > best_err:
            break  # expected distinct count is increasing in p
    return best_p


def _month_days(year: int, month: int) -> list[Date]:
    day = Date(year, month, 1)
    days = []
    while day.month == month:
        days.append(day)
        day += timedelta(days=1)
    return days


@dataclass(slots=True, frozen=True)
class _Calibration:
    base_mu: float
    base_sigma: float
    base_mean: float
    pool_size: int


def _calibrate(cfg: GenConfig) -> _Calibration:
    base_mean = _solve_base_duration_mean(cfg)
    mu, sigma = _lognormal_params(base_mean, cfg.duration_std)
    return _Calibration(mu, sigma, base_mean, _solve_city_pool_size(cfg))


def generate(config: GenConfig) -> StopTable:
    """Generate the synthetic stops table for ``config``.

    Deterministic for a fixed config+seed. Rows come out sorted by
    (trip_number, stop_number); trip numbers embed the date, so the order is
    chronological by day. Every column is built a day at a time with array
    operations; the only per-trip Python work is formatting trip numbers.
    """
    config.validate()
    cal = _calibrate(config)
    days = [_generate_day(config, cal, day) for year, month in config.months for day in _month_days(year, month)]
    return _stop_table([d for d in days if d is not None], cal.pool_size)


@dataclass(slots=True, frozen=True)
class _Day:
    """One day's trips: per-trip number, delivery round and stop count; per-stop city and times."""

    trip_numbers: list[str]
    delivery_round: np.ndarray
    stop_counts: np.ndarray
    city: np.ndarray
    scheduled_time: np.ndarray
    actual_time: np.ndarray


def _generate_day(cfg: GenConfig, cal: _Calibration, day: Date) -> _Day | None:
    rng = substream(cfg.seed, "day", day.isoformat())
    mean_trips, std_trips = cfg.trips_per_daytype[day_type_of(day)]
    n_trips = int(max(round(rng.normal(mean_trips, std_trips)) if std_trips > 0 else round(mean_trips), 0))
    if n_trips == 0:
        return None

    if cfg.stops_std > 0:
        stop_counts = np.rint(rng.normal(cfg.stops_mean, cfg.stops_std, size=n_trips))
    else:
        stop_counts = np.full(n_trips, round(cfg.stops_mean))
    stop_counts = np.maximum(stop_counts, cfg.stops_min).astype(np.int64)

    delays_h = (
        rng.normal(cfg.delay_mean, cfg.delay_std, size=n_trips)
        if cfg.delay_std > 0
        else np.full(n_trips, cfg.delay_mean)
    )
    if cal.base_sigma > 0:
        base_h = rng.lognormal(cal.base_mu, cal.base_sigma, size=n_trips)
    else:
        base_h = np.full(n_trips, cal.base_mean)
    sched_h = np.maximum(base_h, cfg.duration_min - delays_h)
    actual_h = sched_h + delays_h

    start_seconds = rng.integers(0, 86400, size=n_trips)

    # One flattened draw per day for interior stop fractions and city labels.
    interior_counts = stop_counts - 2
    interior_flat = rng.random(int(interior_counts.sum()))
    city_flat = rng.integers(0, cal.pool_size, size=int(stop_counts.sum()))

    # Each trip's stops sit at fractions 0, its sorted interior draws, then 1
    # of the trip's span; rows are trip-major, so are the interior draws.
    trip_of_row, stop_index = _row_layout(stop_counts)
    last = stop_index == stop_counts[trip_of_row] - 1
    fracs = last.astype(np.float64)
    trip_of_interior = np.repeat(np.arange(n_trips), interior_counts)
    fracs[(stop_index > 0) & ~last] = interior_flat[np.lexsort((interior_flat, trip_of_interior))]

    start = np.datetime64(day, "s") + start_seconds.astype("timedelta64[s]")
    start_of_row = start[trip_of_row]

    def times(span_h: np.ndarray) -> np.ndarray:
        offsets = np.rint(fracs * np.repeat(span_h * 3600.0, stop_counts)).astype(np.int64)
        return start_of_row + offsets.astype("timedelta64[s]")

    date_token = day.strftime("%Y%m%d")
    return _Day(
        trip_numbers=[f"T{date_token}-{i:05d}" for i in range(n_trips)],
        delivery_round=np.arange(n_trips) % 97,
        stop_counts=stop_counts,
        city=city_flat,
        scheduled_time=times(sched_h),
        actual_time=times(actual_h),
    )


def _row_layout(stop_counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trip-major stop rows: each row's trip and its 0-based stop index within the trip."""
    trip = np.repeat(np.arange(len(stop_counts)), stop_counts)
    return trip, np.arange(len(trip)) - (np.cumsum(stop_counts) - stop_counts)[trip]


def _stop_table(days: list[_Day], pool_size: int) -> StopTable:
    """All days' rows as one table, with the generator's free-text columns."""

    def joined(name: str, dtype: str) -> np.ndarray:
        return np.concatenate([getattr(d, name) for d in days] or [np.zeros(0, dtype)])

    stop_counts, city = joined("stop_counts", "int64"), joined("city", "int64")
    trip, stop_index = _row_layout(stop_counts)
    # Client and address text depend on (stop index, city) only: code the pairs.
    pairs, pair_code = np.unique(stop_index * pool_size + city, return_inverse=True)
    pair_stop, pair_city = (part.tolist() for part in np.divmod(pairs, pool_size))
    city_names = [f"City-{c:03d}" for c in range(pool_size)]
    return StopTable(
        trip=Coded(trip, np.array(list(itertools.chain.from_iterable(d.trip_numbers for d in days)), dtype=object)),
        stop_number=stop_index + 1,
        city=Coded(city, np.array(city_names, dtype=object)),
        scheduled_time=joined("scheduled_time", "datetime64[s]"),
        actual_time=joined("actual_time", "datetime64[s]"),
        text={
            "trip_description": Coded(
                np.repeat(joined("delivery_round", "int64"), stop_counts),
                np.array([f"synthetic delivery round {k}" for k in range(97)], dtype=object),
            ),
            "client_name": Coded(
                pair_code,
                np.array([f"client-{c:03d}-{s:02d}" for s, c in zip(pair_stop, pair_city)], dtype=object),
            ),
            "address": Coded(
                pair_code,
                np.array([f"{s + 1} Depot Street, {city_names[c]}" for s, c in zip(pair_stop, pair_city)], dtype=object),
            ),
        },
    )


# ---------------------------------------------------------------------------
# Config file loading: plain key = value lines, # comments, all keys optional.

#: Every scalar GenConfig field, by the type its value is read as.
_SCALAR_KEYS = {f.name: {"float": float, "int": int}[f.type] for f in fields(GenConfig) if f.type in ("float", "int")}

_DAYTYPE_KEYS = {
    "weekday_trips_mean": ("Weekday", 0),
    "weekday_trips_std": ("Weekday", 1),
    "saturday_trips_mean": ("Saturday", 0),
    "saturday_trips_std": ("Saturday", 1),
    "sunday_trips_mean": ("Sunday", 0),
    "sunday_trips_std": ("Sunday", 1),
}


def _parse_months(raw: str) -> tuple[tuple[int, int], ...]:
    def parse_one(token: str) -> tuple[int, int]:
        year_s, _, month_s = token.partition("-")
        return int(year_s), int(month_s)

    raw = raw.strip()
    if ".." in raw:
        first_s, _, last_s = raw.partition("..")
        first, last = parse_one(first_s), parse_one(last_s)
        months = []
        year, month = first
        while (year, month) <= last:
            months.append((year, month))
            month += 1
            if month == 13:
                year, month = year + 1, 1
        if not months:
            raise ValueError("empty month range")
        return tuple(months)
    return tuple(parse_one(tok) for tok in raw.split(",") if tok.strip())


def load_gen_config(path: str | Path) -> GenConfig:
    """Read a GenConfig from a plain key=value file; missing keys keep defaults."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"config file not found: {path}")
    cfg = GenConfig()
    daytype = dict(cfg.trips_per_daytype)
    updates: dict[str, object] = {}
    for line_number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise DataError(f"{path}:{line_number}: expected 'key = value'")
        try:
            if key == "months":
                updates["months"] = _parse_months(value)
            elif key in _SCALAR_KEYS:
                updates[key] = _SCALAR_KEYS[key](value)
            elif key in _DAYTYPE_KEYS:
                day_type, slot = _DAYTYPE_KEYS[key]
                pair = list(daytype[day_type])
                pair[slot] = float(value)
                daytype[day_type] = (pair[0], pair[1])
            else:
                raise DataError(f"{path}:{line_number}: unknown config key {key!r}")
        except (ValueError, TypeError) as exc:
            raise DataError(f"{path}:{line_number}: bad value for {key!r}: {exc}") from exc
    cfg = replace(cfg, trips_per_daytype=daytype, **updates)
    cfg.validate()
    return cfg
