"""Shared construction helpers for the test suite."""

import contextlib
import signal
from datetime import datetime

import numpy as np

from tripcast.registry import REGISTRY, make_model
from tripcast.trees import predict_tree_batch
from tripcast.trip_data import Coded, StopTable, TripTable


def coded(values):
    """A Coded column for a sequence of strings (labels sorted)."""
    labels, codes = np.unique(np.array(values, dtype=object), return_inverse=True)
    return Coded(codes.astype(np.int64), labels)


def make_stops(rows):
    """A StopTable from (trip, stop_number, city, scheduled, actual) tuples, in order.

    Timestamps may be ISO strings or datetimes.
    """
    trip, stop, city, scheduled, actual = (list(c) for c in zip(*rows))
    return StopTable(
        trip=coded(trip),
        stop_number=np.array(stop, dtype=np.int64),
        city=coded(city),
        scheduled_time=np.array(scheduled, dtype="datetime64[s]"),
        actual_time=np.array(actual, dtype="datetime64[s]"),
    )


def stop_rows(stops):
    """A StopTable's rows as (trip, stop_number, city, scheduled, actual) tuples."""
    return list(
        zip(
            stops.trip.labels[stops.trip.codes].tolist(),
            stops.stop_number.tolist(),
            stops.city.labels[stops.city.codes].tolist(),
            stops.scheduled_time.tolist(),
            stops.actual_time.tolist(),
        )
    )


def make_trip(trip_id, start, sched_s, actual_s, num_stops=5, num_cities=4):
    """One hand-built trip with the given scheduled/actual durations (seconds).

    A dict of TripTable fields; :func:`trip_table` stacks a list of them.
    """
    start = datetime.fromisoformat(start) if isinstance(start, str) else start
    return dict(
        trip_ids=trip_id,
        num_stops=num_stops,
        num_cities=num_cities,
        actual_duration=float(actual_s),
        scheduled_duration=float(sched_s),
        delay=float(actual_s - sched_s),
        start_time=start,
    )


TRIP_DTYPES = dict(
    trip_ids=object,
    num_stops=np.int64,
    num_cities=np.int64,
    actual_duration=np.float64,
    scheduled_duration=np.float64,
    delay=np.float64,
    start_time="datetime64[s]",
)


def trip_table(trips):
    """A TripTable of hand-built trips (see :func:`make_trip`), in the given order."""
    return TripTable(**{name: np.array([t[name] for t in trips], dtype=dtype) for name, dtype in TRIP_DTYPES.items()})


def trip_tables_equal(a, b):
    """Whether two TripTables hold the same trips in the same order."""
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in TRIP_DTYPES)


class MeanModel:
    """Predicts the training-target mean; the unconditional baseline."""

    def fit(self, X, y):
        self.mean = float(np.mean(y))
        return self

    def predict(self, X):
        return np.full(X.shape[0], self.mean)


def tree_arrays(tree):
    """A fitted tree's node arrays as lists, for exact structural comparison."""
    return [getattr(tree, name).tolist() for name in ("feature", "threshold", "left", "right", "value")]


def reference_predict(tree, X):
    """Walk each row from the root one node at a time: the plain reading of the node arrays."""
    out = np.empty(X.shape[0])
    for i, x in enumerate(X):
        node = 0
        while tree.feature[node] >= 0:
            go_left = x[tree.feature[node]] <= tree.threshold[node]
            node = tree.left[node] if go_left else tree.right[node]
        out[i] = tree.value[node]
    return out


def training_mse(tree, X, y):
    """Mean squared error of a fitted tree on its training rows."""
    return float(np.mean((y - predict_tree_batch(tree, X)) ** 2))


@contextlib.contextmanager
def time_limit(seconds):
    """Fail the block with TimeoutError if it runs longer than ``seconds``.

    Uses SIGALRM, so a hang inside Python-level code (such as a tree grower
    splitting the same node forever) ends the test instead of the suite.
    """

    def expire(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def small_model(abbrev, seed, n_estimators):
    """``make_model``, with ``n_estimators`` for the models that declare it."""
    settings = {"n_estimators": n_estimators} if "n_estimators" in REGISTRY[abbrev].settings else {}
    return make_model(abbrev, seed, **settings)
