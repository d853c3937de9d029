"""Reference computations made apart from tripcast, and the checks that use them.

Nothing here imports tripcast. The stops CSV is read with `csv.reader` and
numpy; trips, calendar features, fold windows, the training-mean predictor
and least squares are all recomputed here. Each `check_*` function raises
`CheckFailed` on the first property that does not hold.
"""

from __future__ import annotations

import csv
import hashlib
import math
import operator
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

#: Model input columns of a tripcast feature table, in order (README).
FEATURES = (
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
DAY_TYPE = FEATURES.index("day_type")

#: Scenario 3: weekly retraining over the final three calendar months.
TRAIN_DAYS, TEST_DAYS, TEST_MONTHS = 21, 7, 3


class CheckFailed(AssertionError):
    """A program output contradicts the reference or a required property."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Trips straight from the stops CSV.


@dataclass(frozen=True)
class Trips:
    """One entry per trip, sorted by (start, trip id) like a feature table."""

    n_rows: int
    trip_ids: np.ndarray
    start: np.ndarray  # datetime64[s], first scheduled stop
    num_stops: np.ndarray
    num_cities: np.ndarray
    scheduled_s: np.ndarray
    actual_s: np.ndarray

    @property
    def delay_s(self) -> np.ndarray:
        return self.actual_s - self.scheduled_s

    def features(self) -> np.ndarray:
        """The feature matrix tripcast should build, from datetime64 arithmetic."""
        days = self.start.astype("datetime64[D]")
        day_n = days.astype(np.int64)
        dow = (day_n + 3) % 7  # 1970-01-01 was a Thursday; Monday = 0
        thursday = days - dow + 3  # ISO weeks belong to the year of their Thursday
        iso_week = (thursday - thursday.astype("datetime64[Y]")).astype(np.int64) // 7 + 1
        seconds = (self.start - days).astype(np.int64)
        columns = {
            "num_cities": self.num_cities,
            "num_stops": self.num_stops,
            "month": self.start.astype("datetime64[M]").astype(np.int64) % 12 + 1,
            "week_number": iso_week,
            "day_of_month": (days - days.astype("datetime64[M]")).astype(np.int64) + 1,
            "day_type": dow,
            "hour": seconds // 3600,
            "minute": seconds // 60 % 60,
            "scheduled_duration": self.scheduled_s,
        }
        return np.column_stack([columns[c] for c in FEATURES]).astype(np.float64)


def read_trips(path) -> Trips:
    """Assemble trips from a stops CSV with csv.reader and numpy only."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        wanted = ("trip_number", "stop_number", "city", "scheduled_time", "actual_time")
        pick = operator.itemgetter(*(header.index(c) for c in wanted))
        rows = [pick(row) for row in reader]
    trip_col, stop_col, city_col, sched_col, actual_col = zip(*rows)
    del rows
    ids, trip = np.unique(np.array(trip_col), return_inverse=True)
    stop = np.array(stop_col).astype(np.int64)
    _, city = np.unique(np.array(city_col), return_inverse=True)
    sched = np.array(sched_col, dtype="datetime64[s]")
    actual = np.array(actual_col, dtype="datetime64[s]")

    order = np.lexsort((stop, trip))
    sizes = np.bincount(trip, minlength=len(ids))
    first = order[np.cumsum(sizes) - sizes]
    last = order[np.cumsum(sizes) - 1]
    pairs = np.unique(trip.astype(np.int64) * (int(city.max()) + 1) + city)
    n_cities = np.bincount(pairs // (int(city.max()) + 1), minlength=len(ids))

    start = sched[first]
    by_start = np.lexsort((np.arange(len(ids)), start))  # ids are sorted: ties by id
    return Trips(
        n_rows=len(stop),
        trip_ids=ids[by_start],
        start=start[by_start],
        num_stops=sizes[by_start],
        num_cities=n_cities[by_start],
        scheduled_s=(sched[last] - sched[first]).astype(np.int64)[by_start].astype(np.float64),
        actual_s=(actual[last] - actual[first]).astype(np.int64)[by_start].astype(np.float64),
    )


# ---------------------------------------------------------------------------
# ingest


@dataclass(frozen=True)
class Calibration:
    """What the generator was asked for: trip count and per-trip means/stds."""

    expected_trips: float
    means: dict  # name -> (target mean, configured std); durations in hours


def expected_trips(months: list[tuple[int, int]], daily_means: dict) -> float:
    """Sum of the configured mean trip count over every day of `months`."""
    total = 0.0
    for year, month in months:
        day = date(year, month, 1)
        while day.month == month:
            kind = {5: "saturday", 6: "sunday"}.get(day.weekday(), "weekday")
            total += daily_means[kind]
            day += timedelta(days=1)
    return total


def check_ingest(
    trips: Trips,
    *,
    synth_rows: int,
    parsed_rows: int,
    row_rejects: int,
    trip_rejects: int,
    trip_ids,
    start_times,
    X: np.ndarray,
    y: np.ndarray,
    calibration: Calibration,
) -> None:
    """The featurized table of a `synth` CSV against an independent pass over it."""
    require(synth_rows == trips.n_rows, f"synth reported {synth_rows} rows, the CSV has {trips.n_rows}")
    require(parsed_rows == trips.n_rows, f"parsed {parsed_rows} rows of {trips.n_rows}")
    require(row_rejects == 0 and trip_rejects == 0, f"rejected {row_rejects} rows, {trip_rejects} trips")
    require(len(trip_ids) == len(trips.trip_ids), f"table has {len(trip_ids)} trips, CSV {len(trips.trip_ids)}")
    require(np.array_equal(np.asarray(trip_ids, dtype=str), trips.trip_ids), "trip order or ids differ")
    starts = np.array(start_times, dtype="datetime64[s]")
    require(np.array_equal(starts, trips.start), "trip start times differ")
    expected = trips.features()
    require(X.shape == expected.shape, f"feature matrix shape {X.shape}, expected {expected.shape}")
    for j, name in enumerate(FEATURES):
        bad = np.flatnonzero(X[:, j] != expected[:, j])
        require(bad.size == 0, f"feature {name} differs on {bad.size} rows, first row {bad[:1]}")
    require(np.array_equal(y, trips.actual_s), "duration target differs")

    n = len(trips.trip_ids)
    got = abs(n - calibration.expected_trips) / calibration.expected_trips
    require(got <= 0.10, f"{n} trips, {got:.1%} from the configured {calibration.expected_trips:.0f}")
    observed = {
        "stops": trips.num_stops.mean(),
        "cities": trips.num_cities.mean(),
        "duration": trips.actual_s.mean() / 3600.0,
        "delay": trips.delay_s.mean() / 3600.0,
    }
    for name, (target, std) in calibration.means.items():
        # 10% of the target, or four standard errors where that is wider:
        # a 0.71 h delay mean with a 7.26 h std is only known to ~5% from 43k
        # trips, so a plain 10% test would fail on about one seed in 25.
        tolerance = max(0.10 * abs(target), 4.0 * std / math.sqrt(n))
        require(
            abs(observed[name] - target) <= tolerance,
            f"{name} mean {observed[name]:.4f}, target {target} +- {tolerance:.4f}",
        )


# ---------------------------------------------------------------------------
# retrain


def weekly_windows(start: np.ndarray) -> list[tuple[np.datetime64, np.datetime64, np.datetime64]]:
    """(train start, test start, test end) of each scenario-3 fold.

    Test slices of 7 days tile the final three calendar months, starting on
    the first of the month; the last slice ends one second after the last
    trip. Each fold trains on the 21 days before its test slice.
    """
    last = start.max()
    test_from = last.astype("datetime64[M]") - (TEST_MONTHS - 1)
    end = last + np.timedelta64(1, "s")
    cursor = test_from.astype("datetime64[s]")
    windows = []
    while cursor < end:
        nxt = cursor + np.timedelta64(TEST_DAYS * 86400, "s")
        windows.append((cursor - np.timedelta64(TRAIN_DAYS * 86400, "s"), cursor, min(nxt, end)))
        cursor = nxt
    return windows


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_retrain(trips: Trips, results: list[dict], aggregates: list[dict], models: list[str]) -> None:
    """`results.csv` / `aggregates.csv` rows of a scenario-3 delay run."""
    windows = weekly_windows(trips.start)
    y = trips.delay_s
    at = trips.start.searchsorted
    # A fold with no training or no test rows is skipped by design.
    folds = {
        k: (at(a), at(b), at(c))
        for k, (a, b, c) in enumerate(windows)
        if at(c) > at(b) and at(b) > at(a)
    }
    test_total = int(np.sum(trips.start >= windows[0][1]))
    baseline = float(np.mean([np.mean(np.abs(y[b:c] - y[a:b].mean())) for a, b, c in folds.values()]))

    by_model = {m: [r for r in results if r["model"] == m] for m in models}
    require(len(results) == sum(len(v) for v in by_model.values()), "results.csv has unknown models")
    require([a["model"] for a in aggregates] == models, f"aggregates.csv models {[a['model'] for a in aggregates]}")
    for agg in aggregates:
        name = agg["model"]
        rows = by_model[name]
        require(
            [int(r["fold"]) for r in rows] == list(folds),
            f"{name}: folds {[r['fold'] for r in rows]}, expected {list(folds)}",
        )
        for r in rows:
            fold = int(r["fold"])
            a, b, c = folds[fold]
            require(
                (int(r["n_train"]), int(r["n_test"])) == (b - a, c - b),
                f"{name} fold {fold}: n_train/n_test {r['n_train']}/{r['n_test']}, windows hold {b - a}/{c - b}",
            )
            require(float(r["mae_s"]) <= float(r["rmse_s"]), f"{name} fold {fold}: mae > rmse")
        require(sum(int(r["n_test"]) for r in rows) == test_total, f"{name}: test folds do not tile the test months")
        require(int(agg["n_folds"]) == len(rows), f"{name}: n_folds {agg['n_folds']} of {len(rows)}")
        for key in ("mae_s", "rmse_s", "fit_time_s"):
            mean = math.fsum(float(r[key]) for r in rows) / len(rows)
            require(_close(float(agg[key]), mean), f"{name}: aggregate {key} {agg[key]} is not the fold mean {mean}")
        if name in ("gb", "hgb"):
            require(
                float(agg["mae_s"]) < baseline,
                f"{name}: MAE {float(agg['mae_s']):.1f} s not below the training-mean predictor's {baseline:.1f} s",
            )


# ---------------------------------------------------------------------------
# serve


def lstsq_predictions(X_train: np.ndarray, y_train: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Least squares on an intercept, the other features and a day-type one-hot."""

    def design(M: np.ndarray) -> np.ndarray:
        onehot = np.eye(7)[M[:, DAY_TYPE].astype(np.int64)]
        return np.hstack([np.ones((len(M), 1)), np.delete(M, DAY_TYPE, axis=1), onehot])

    coef, *_ = np.linalg.lstsq(design(X_train), y_train, rcond=None)
    return design(X) @ coef


def digest(pred: np.ndarray) -> str:
    """Identifies a prediction vector bit for bit, dtype and shape included."""
    return f"{pred.dtype.str}{pred.shape}" + hashlib.sha256(np.ascontiguousarray(pred).tobytes()).hexdigest()


def check_serve(
    X: np.ndarray,
    y: np.ndarray,
    n_fit: int,
    before: dict[str, np.ndarray],
    after: dict[str, list[str]],
    lstsq: np.ndarray,
) -> None:
    """Predictions of fitted models (`before` saving) and digests of reloaded ones' (`after`)."""
    require(set(after) == set(before), "reloaded models differ from the saved ones")
    for name, pred in before.items():
        require(pred.shape == (len(X),), f"{name}: {pred.shape} predictions for {len(X)} rows")
        require(bool(np.all(np.isfinite(pred))), f"{name}: non-finite prediction")
        require(
            all(again == digest(pred) for again in after[name]),
            f"{name}: reloaded predictions are not bit-identical",
        )
    rel = np.linalg.norm(before["lr"] - lstsq) / np.linalg.norm(lstsq)
    require(rel <= 1e-8, f"lr predictions differ from lstsq by a relative {rel:.2e}")
    variance = float(np.var(y[:n_fit]))
    for name in ("gb", "hgb", "rf"):
        mse = float(np.mean((before[name][:n_fit] - y[:n_fit]) ** 2))
        require(mse < variance, f"{name}: training MSE {mse:.4g} not below the target variance {variance:.4g}")
