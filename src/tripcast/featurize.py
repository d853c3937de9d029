"""Trip-level feature extraction and the chronological feature table.

Each trip becomes one row: counts (stops, cities), calendar fields taken
from the first scheduled stop, the scheduled duration, and one of two
targets (actual duration or delay), all in seconds. The trip id is carried
for traceability but is never part of the model input: an opaque unique
identifier would only act as a memorization key.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .errors import DataError
from .trip_data import Trip


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


@dataclass(slots=True, frozen=True)
class FeatureRow:
    """One trip's features plus target (seconds)."""

    trip_id: str
    num_cities: int
    num_stops: int
    month: int
    week_number: int
    day_of_month: int
    day_type: int
    hour: int
    minute: int
    scheduled_duration: float
    target: float

    def features(self) -> tuple[float, ...]:
        return (
            float(self.num_cities),
            float(self.num_stops),
            float(self.month),
            float(self.week_number),
            float(self.day_of_month),
            float(self.day_type),
            float(self.hour),
            float(self.minute),
            float(self.scheduled_duration),
        )


def featurize_trip(trip: Trip, target: TargetKind) -> FeatureRow:
    """Feature row for one trip; calendar fields from the first scheduled stop."""
    start = trip.start_time
    return FeatureRow(
        trip_id=trip.trip_id,
        num_cities=trip.num_cities,
        num_stops=trip.num_stops,
        month=start.month,
        week_number=start.isocalendar()[1],
        day_of_month=start.day,
        day_type=start.weekday(),
        hour=start.hour,
        minute=start.minute,
        scheduled_duration=trip.scheduled_duration,
        target=trip.actual_duration if target is TargetKind.DURATION else trip.delay,
    )


@dataclass(slots=True)
class FeatureTable:
    """Feature rows in chronological order, as numpy arrays.

    ``X`` columns follow ``FEATURE_COLUMNS``; ``start_times`` mirror each
    row's trip start and drive the fold construction in evaluation.
    """

    trip_ids: list[str]
    start_times: list[datetime]
    X: np.ndarray
    y: np.ndarray
    target: TargetKind

    def __len__(self) -> int:
        return len(self.trip_ids)


def build_table(trips: Sequence[Trip], target: TargetKind) -> FeatureTable:
    """Featurize trips into a table sorted by start time (ties: trip id)."""
    if not trips:
        raise DataError("build_table() requires at least one trip")
    rows = [featurize_trip(t, target) for t in trips]
    order = sorted(range(len(rows)), key=lambda i: (trips[i].start_time, rows[i].trip_id))
    rows = [rows[i] for i in order]
    X = np.array([r.features() for r in rows], dtype=np.float64)
    y = np.array([r.target for r in rows], dtype=np.float64)
    return FeatureTable(
        trip_ids=[r.trip_id for r in rows],
        start_times=[trips[i].start_time for i in order],
        X=X,
        y=y,
        target=target,
    )


CSV_HEADER = ("trip_id",) + FEATURE_COLUMNS + ("target",)


def write_feature_csv(table: FeatureTable, handle: IO[str]) -> int:
    """Serialize a feature table; first column trip_id, last column target."""
    writer = csv.writer(handle)
    writer.writerow(CSV_HEADER)
    for i, trip_id in enumerate(table.trip_ids):
        row: list[object] = [trip_id]
        row.extend(repr(v) if isinstance(v, float) else v for v in _typed_row(table.X[i]))
        row.append(repr(float(table.y[i])))
        writer.writerow(row)
    return len(table.trip_ids)


def _typed_row(x: np.ndarray) -> list[object]:
    out: list[object] = []
    for name, value in zip(FEATURE_COLUMNS, x):
        if name == "scheduled_duration":
            out.append(float(value))
        else:
            out.append(int(value))
    return out


def read_feature_csv(path: str | Path, target: TargetKind) -> FeatureTable:
    """Load a feature table written by :func:`write_feature_csv`.

    Start times are not stored in the CSV; tables loaded this way support
    model fitting and prediction but not fold construction.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"feature csv not found: {path}")
    trip_ids: list[str] = []
    xs: list[list[float]] = []
    ys: list[float] = []
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != CSV_HEADER:
            raise DataError(f"unexpected feature csv header in {path}")
        for row in reader:
            trip_ids.append(row[0])
            xs.append([float(v) for v in row[1:-1]])
            ys.append(float(row[-1]))
    if not trip_ids:
        raise DataError(f"feature csv {path} has no rows")
    return FeatureTable(
        trip_ids=trip_ids,
        start_times=[],
        X=np.array(xs, dtype=np.float64),
        y=np.array(ys, dtype=np.float64),
        target=target,
    )
