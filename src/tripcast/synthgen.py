"""Seeded synthetic stop-level data generator.

Produces a stops table whose summary statistics (trips per day type, stops
and cities per trip, trip duration and delay) track a configured set of
targets, so the full experiment pipeline can run without any proprietary
delivery log. Output is deterministic for a fixed seed: every calendar day,
a ``datetime64[D]``, derives an independent PCG64 substream from (seed, its
ISO date text), and days are emitted in chronological order.

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
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, ClassVar

import numpy as np

from .checks import is_finite, is_int, read_input_text
from .errors import DataError
from .rng import substream
from .trip_data import Coded, StopTable, weekdays

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

#: The months a config may name. A trip may last ``MAX_TRIP_HOURS``, so one
#: that starts on the last day of 9999-11 still ends in year 9999, the last
#: year a stops-CSV stamp can hold.
FIRST_MONTH, LAST_MONTH = (1, 1), (9999, 11)

#: The most stops a trip may have at 8 stds, ``stops_mean + 8 stops_std``:
#: the top of the stop-count PMF's support.
MAX_STOPS = 1_000

#: The longest trip the duration and delay laws may reach, in hours:
#: ``duration_mean + |delay_mean| + 8 (duration_std + delay_std)`` bounds
#: both the scheduled and the actual span at 8 stds, and the generator clips
#: both spans here. A trip that starts on ``LAST_MONTH``'s last day and lasts
#: 31 days still ends in year 9999.
MAX_TRIP_HOURS = 31 * 24.0

#: The most stop rows a config may ask for: the mean of its total plus 8 of
#: its stds, with the expected stops a trip. The generator's tracemalloc peak
#: is 114 bytes a row (113.9 MiB at the default config's 1,051,325 rows), and
#: ``tripcast synth``'s peak RSS grows 122 bytes a row (169 MB there, 426 MB
#: at three times the daily trips' 3,152,160), so this is about 9.8 GB. Forty
#: years at the default daily counts pass.
MAX_ROWS = 80_000_000

#: The size of the largest city pool :func:`_solve_city_pool_size` tries. A
#: ``cities_mean`` above the distinct cities a trip can expect from it is refused.
MAX_CITY_POOL = 4_096

#: The largest config file :func:`load_gen_config` reads: room for some 7,000 months listed one by one.
MAX_CONFIG_BYTES = 1 << 16


@dataclass(slots=True, frozen=True)
class GenConfig:
    """Calibration targets and seed for the synthetic generator.

    Every field is a config-file key of the same name
    (:func:`load_gen_config`). All duration/delay figures are hours; the
    trips figures count trips per calendar day on weekdays (Monday to
    Friday), Saturdays and Sundays. Standard deviations of zero give
    degenerate (constant) draws. Cities per trip follow from a pool sized
    for ``cities_mean`` alone, so their spread is not a setting:
    ``cities_std`` is the spread of the default calibration, which the
    benchmark's ingest check (``perfbench/workloads.py``) reads.
    :meth:`validate` requires every float field to be a finite number, and
    ``stops_min`` and ``seed`` to be integers. Every std and trips mean must
    be >= 0, the stop, city and duration means > 0, the stop and duration
    means at least their floors ``stops_min`` and ``duration_min``.
    ``months`` must be a nonempty tuple of (year, month) integer pairs, each a
    real month within ``FIRST_MONTH`` to ``LAST_MONTH``, strictly increasing:
    a repeated month would repeat its trip numbers. Stop counts may
    reach at most ``MAX_STOPS``, trips last at most ``MAX_TRIP_HOURS``, and
    the rows number at most ``MAX_ROWS``, each at 8 stds (of the total, for
    the rows). ``cities_mean`` may be at most the distinct cities a trip can
    expect from ``MAX_CITY_POOL`` cities. A duration mean that the delay law
    and the floor together put out of reach is refused when the generator
    calibrates, before any draw.
    """

    months: tuple[tuple[int, int], ...] = DEFAULT_MONTHS
    weekday_trips_mean: float = 1084.57
    weekday_trips_std: float = 237.42
    saturday_trips_mean: float = 198.23
    saturday_trips_std: float = 23.54
    sunday_trips_mean: float = 48.88
    sunday_trips_std: float = 14.98
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
        if not isinstance(self.months, tuple) or not self.months:
            raise DataError(f"GenConfig months must be a nonempty tuple, got {self.months!r}")
        for ym in self.months:
            if not (isinstance(ym, tuple) and len(ym) == 2 and all(map(is_int, ym))):
                raise DataError(f"GenConfig months entries must be (year, month) pairs of integers, got {ym!r}")
            year, month = ym
            if not 1 <= month <= 12:
                raise DataError(f"invalid month {ym!r}")
            if not FIRST_MONTH <= ym <= LAST_MONTH:
                raise DataError(f"month {year:04d}-{month:02d} is outside 0001-01..9999-11")
        for earlier, later in zip(self.months, self.months[1:]):
            if earlier >= later:
                raise DataError(f"GenConfig months must be strictly increasing, got {earlier!r} before {later!r}")
        numbers = {f.name: getattr(self, f.name) for f in fields(self) if f.type in (float, "float")}
        for name, value in numbers.items():
            if not is_finite(value):
                raise DataError(f"GenConfig {name} must be a finite number, got {value!r}")
        for name in ("stops_min", "seed"):
            if not is_int(getattr(self, name)):
                raise DataError(f"GenConfig {name} must be an integer, got {getattr(self, name)!r}")
        for name, value in numbers.items():
            if name.endswith(("_std", "_trips_mean")) and value < 0:
                raise DataError(f"GenConfig {name} must be >= 0, got {value!r}")
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
        most_stops = self.stops_mean + 8.0 * self.stops_std
        if most_stops > MAX_STOPS:
            raise DataError(f"GenConfig stops_mean + 8 stops_std is {most_stops:.6g}, above MAX_STOPS {MAX_STOPS}")
        ks, pmf = _stop_count_pmf(self)
        most_cities = _expected_cities(ks, pmf, MAX_CITY_POOL)
        if self.cities_mean > most_cities:
            raise DataError(
                f"GenConfig cities_mean {self.cities_mean!r} is above {most_cities:.6g}, the distinct cities"
                f" a trip of these stop counts can expect from MAX_CITY_POOL {MAX_CITY_POOL:,} cities"
            )
        # Days and trips draw independently, so the total's variance is the sum of theirs. Clipping
        # a day's trip count at 0 lifts its mean by at most trips_std / sqrt(2 pi).
        stops = float(pmf @ ks)
        stops_var = float(pmf @ (ks - stops) ** 2)
        days = zip(_days_by_weekday(self.months), _trips_by_weekday(self))
        days = [(n, mean + std / math.sqrt(2.0 * math.pi), std) for n, (mean, std) in days]
        rows = stops * sum(n * trips for n, trips, _ in days)
        # A product past the float range reads inf, which the bound refuses; ``**`` would raise OverflowError.
        rows_var = sum(n * (trips * stops_var + (std * stops) * (std * stops)) for n, trips, std in days)
        most_rows = rows + 8.0 * math.sqrt(rows_var)
        if most_rows > MAX_ROWS:
            raise DataError(
                f"GenConfig months ask for {rows:.6g} stop rows on average and {most_rows:.6g} at 8 stds,"
                f" above MAX_ROWS {MAX_ROWS:,}"
            )
        longest = self.duration_mean + abs(self.delay_mean) + 8.0 * (self.duration_std + self.delay_std)
        if longest > MAX_TRIP_HOURS:
            raise DataError(
                f"GenConfig duration_mean + |delay_mean| + 8 (duration_std + delay_std) is {longest:.6g} h,"
                f" above MAX_TRIP_HOURS {MAX_TRIP_HOURS:g}"
            )


_SQRT_HALF = math.sqrt(0.5)


def _each(f: Callable[[float], float], v: np.ndarray) -> np.ndarray:
    """``f`` (a C builtin such as ``math.erf``) over ``v``: no Python frame per element."""
    return np.fromiter(map(f, v.tolist()), np.float64, v.size)


def _norm_cdf(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF, elementwise: cephes ``ndtr`` on the C library's ``erf``/``erfc``.

    Near zero ``0.5 + 0.5 erf(x)`` is accurate; in the tails the complement
    ``0.5 erfc(|x|)`` keeps its relative accuracy where ``erf`` would round
    to 1 (Cody, Math. Comp. 1969).
    """
    x = np.asarray(a, dtype=np.float64) * _SQRT_HALF
    z = np.abs(x)
    near = z < _SQRT_HALF
    out = np.empty_like(x)
    out[near] = 0.5 + 0.5 * _each(math.erf, x[near])
    far = ~near
    tail = 0.5 * _each(math.erfc, z[far])
    out[far] = np.where(x[far] > 0.0, 1.0 - tail, tail)
    return out


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


def _base_mean_gap(cfg: GenConfig) -> Callable[[float], float]:
    """g(m0) = E[max(B, F)] - (duration_mean - delay_mean) for a base B of mean m0.

    F = duration_min - delay is the floor the delay law puts under B, on a
    4,001-point grid over 10 delay stds (a point mass when the delay is
    constant).
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

    return g


def _solve_base_duration_mean(cfg: GenConfig) -> float:
    """Mean of the lognormal scheduled-duration base.

    Solves E[max(B, duration_min - delay)] = duration_mean - delay_mean so the
    actual-duration mean lands on target despite the minimum-duration floor.
    When the floor alone meets or exceeds the target, even with a near-zero
    base, no base reaches it: that is a ``DataError``.
    """
    g = _base_mean_gap(cfg)
    target = cfg.duration_mean - cfg.delay_mean
    lo_m, hi_m = 1e-9, target
    if g(lo_m) >= 0.0:
        lowest = g(lo_m) + target + cfg.delay_mean
        raise DataError(
            f"GenConfig duration_mean {cfg.duration_mean!r} cannot be met: with delay_mean"
            f" {cfg.delay_mean!r} (std {cfg.delay_std!r}) and duration_min {cfg.duration_min!r}"
            f" the mean trip duration is at least {lowest:.6g}"
        )
    # g(hi_m) >= 0 because E[max(B, F)] >= E[B]; plain bisection, at most 100 steps.
    for _ in range(100):
        mid = 0.5 * (lo_m + hi_m)
        if mid == lo_m or mid == hi_m:
            # lo_m and hi_m are adjacent floats: each later step would set one of them
            # to mid, which leaves mid, and so the result, as it is.
            break
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


def _expected_cities(ks: np.ndarray, pmf: np.ndarray, pool: int) -> float:
    """E[#distinct cities] of a trip whose stops (``ks`` with ``pmf``) each draw one of ``pool`` cities."""
    return float(np.sum(pmf * pool * (1.0 - (1.0 - 1.0 / pool) ** ks)))


def _solve_city_pool_size(cfg: GenConfig) -> int:
    """Pool size P so that E[#distinct among s uniform draws] hits cities_mean."""
    ks, pmf = _stop_count_pmf(cfg)
    target = cfg.cities_mean
    best_p, best_err = 1, float("inf")
    for p in range(1, MAX_CITY_POOL + 1):
        expected = _expected_cities(ks, pmf, p)
        err = abs(expected - target)
        if err < best_err:
            best_p, best_err = p, err
        if expected > target and err > best_err:
            break  # expected distinct count is increasing in p
    return best_p


def _month_bounds(months: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, np.ndarray]:
    """Each month's first day and the first day after it, as ``datetime64[D]``."""
    first = np.array([12 * (year - 1970) + month - 1 for year, month in months]).astype("datetime64[M]")
    return first.astype("datetime64[D]"), (first + 1).astype("datetime64[D]")


def _days_by_weekday(months: tuple[tuple[int, int], ...]) -> list[int]:
    """How many days of ``months`` fall on each weekday, Monday first, counted a month at a time."""
    begin, end = _month_bounds(months)
    return [int(np.busday_count(begin, end, weekmask=np.arange(7) == k).sum()) for k in range(7)]


def _trips_by_weekday(cfg: GenConfig) -> tuple[tuple[float, float], ...]:
    """The (mean, std) of the daily trip count on each weekday, Monday first."""
    return (
        *[(cfg.weekday_trips_mean, cfg.weekday_trips_std)] * 5,
        (cfg.saturday_trips_mean, cfg.saturday_trips_std),
        (cfg.sunday_trips_mean, cfg.sunday_trips_std),
    )


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
    A config that draws no trip at all is a ``DataError``.
    """
    config.validate()
    cal = _calibrate(config)
    begin, end = _month_bounds(config.months)
    days = [_generate_day(config, cal, day) for lo, hi in zip(begin, end) for day in np.arange(lo, hi)]
    days = [d for d in days if d is not None]
    if not days:  # a stops file with no row is one that no parse accepts
        raise DataError("GenConfig drew no trip on any day of its months")
    return _stop_table(days, cal.pool_size)


@dataclass(slots=True, frozen=True)
class _Day:
    """One day's trips: per-trip number, delivery round and stop count; per-stop city and times."""

    trip_numbers: list[str]
    delivery_round: np.ndarray
    stop_counts: np.ndarray
    city: np.ndarray
    scheduled_time: np.ndarray
    actual_time: np.ndarray


def _generate_day(cfg: GenConfig, cal: _Calibration, day: np.datetime64) -> _Day | None:
    rng = substream(cfg.seed, "day", str(day))
    mean_trips, std_trips = _trips_by_weekday(cfg)[weekdays(day)]
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
    # The lognormal has no upper bound: a trip's spans stop at MAX_TRIP_HOURS, as its config's bound promises.
    sched_h = np.minimum(np.maximum(base_h, cfg.duration_min - delays_h), MAX_TRIP_HOURS)
    actual_h = np.minimum(sched_h + delays_h, MAX_TRIP_HOURS)

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

    date_token = str(day).replace("-", "")
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


def _parse_months(raw: str) -> tuple[tuple[int, int], ...]:
    """``YYYY-MM`` months, comma-separated, or one ``first..last`` range; each a real month in bounds."""

    def parse_one(token: str) -> tuple[int, int]:
        year_s, _, month_s = token.partition("-")
        year, month = int(year_s), int(month_s)
        if not 1 <= month <= 12:
            raise ValueError(f"{token.strip()!r} is not a month")
        if not FIRST_MONTH <= (year, month) <= LAST_MONTH:
            raise ValueError(f"month {year:04d}-{month:02d} is outside 0001-01..9999-11")
        return year, month

    raw = raw.strip()
    if ".." in raw:
        first_s, _, last_s = raw.partition("..")
        lo, hi = (12 * year + month - 1 for year, month in (parse_one(first_s), parse_one(last_s)))
        if lo > hi:
            raise ValueError("empty month range")
        return tuple((index // 12, index % 12 + 1) for index in range(lo, hi + 1))
    return tuple(parse_one(tok) for tok in raw.split(",") if tok.strip())


def load_gen_config(path: str | Path) -> GenConfig:
    """Read a GenConfig from a plain key=value file; missing keys keep defaults."""
    text = read_input_text(path, "config file", MAX_CONFIG_BYTES)
    updates: dict[str, object] = {}
    for line_number, line in enumerate(text.splitlines(), 1):
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
            else:
                raise DataError(f"{path}:{line_number}: unknown config key {key!r}")
        except (ValueError, TypeError) as exc:
            raise DataError(f"{path}:{line_number}: bad value for {key!r}: {exc}") from exc
    cfg = GenConfig(**updates)
    cfg.validate()
    return cfg
