"""Trip-level feature extraction and the chronological feature table.

Each trip becomes one row: counts (stops, cities), calendar fields taken
from the first scheduled stop, the scheduled duration, and one of two
targets (actual duration or delay), all in seconds. The table is built from
a :class:`~tripcast.trip_data.TripTable` column by column: calendar fields
come from ``datetime64`` arithmetic and the row order from one ``lexsort``.
The trip id is carried for traceability but is never part of the model
input: an opaque unique identifier would only act as a memorization key.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .trip_data import TripTable, weekdays


class TargetKind(enum.Enum):
    DURATION = "duration"
    DELAY = "delay"

    @classmethod
    def parse(cls, raw: str) -> "TargetKind":
        try:
            return cls(raw.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise DataError(f"unknown target {raw!r} (expected one of: {valid})") from None


#: Model input columns, in order. day_type is Monday=0 .. Sunday=6; trees
#: consume it as an ordinal, linear models one-hot expand it (see linear).
FEATURE_COLUMNS = (
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

DAY_TYPE_COLUMN = FEATURE_COLUMNS.index("day_type")
N_DAY_TYPES = 7


def calendar_fields(times: np.ndarray) -> dict[str, np.ndarray]:
    """Calendar feature columns of ``datetime64`` times, by feature name.

    Month, ISO week number, day of month, day type (Monday=0), hour and
    minute, all int64, from ``datetime64`` arithmetic alone.
    """
    times = times.astype("datetime64[s]")
    days = times.astype("datetime64[D]")
    day_type = weekdays(days)
    thursday = days + (3 - day_type)  # an ISO week belongs to the year of its Thursday
    seconds = (times - days).astype(np.int64)
    return {
        "month": times.astype("datetime64[M]").astype(np.int64) % 12 + 1,
        "week_number": (thursday - thursday.astype("datetime64[Y]")).astype(np.int64) // 7 + 1,
        "day_of_month": (days - days.astype("datetime64[M]")).astype(np.int64) + 1,
        "day_type": day_type,
        "hour": seconds // 3600,
        "minute": seconds // 60 % 60,
    }


@dataclass(slots=True)
class FeatureTable:
    """One row per trip in chronological order, as numpy arrays.

    ``X`` columns follow ``FEATURE_COLUMNS``; ``start_times`` (``datetime64[s]``)
    hold each row's trip start and drive the fold construction in evaluation.
    """

    trip_ids: list[str]
    start_times: np.ndarray
    X: np.ndarray
    y: np.ndarray
    target: TargetKind

    def __len__(self) -> int:
        return len(self.trip_ids)


def build_table(trips: TripTable, target: TargetKind) -> FeatureTable:
    """Featurize trips into a table sorted by start time (ties: trip id).

    Calendar fields come from each trip's first scheduled stop.
    """
    if len(trips) == 0:
        raise DataError("build_table() requires at least one trip")
    id_rank = np.empty(len(trips), np.int64)
    id_rank[np.argsort(trips.trip_ids, kind="stable")] = np.arange(len(trips))
    order = np.lexsort((id_rank, trips.start_time))
    start = trips.start_time[order]
    columns = {
        "num_cities": trips.num_cities[order],
        "num_stops": trips.num_stops[order],
        **calendar_fields(start),
        "scheduled_duration": trips.scheduled_duration[order],
    }
    y = trips.actual_duration if target is TargetKind.DURATION else trips.delay
    return FeatureTable(
        trip_ids=trips.trip_ids[order].tolist(),
        start_times=start,
        X=np.column_stack([columns[name] for name in FEATURE_COLUMNS]).astype(np.float64),
        y=y[order].astype(np.float64),
        target=target,
    )
