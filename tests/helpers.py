"""Shared construction helpers for the test suite."""

from datetime import datetime, timedelta

import numpy as np

from tripcast.trees import predict_tree_batch
from tripcast.trip_data import StopRecord, Trip


def make_trip(trip_id, start, sched_s, actual_s, num_stops=5, num_cities=4):
    """Hand-built Trip with the given scheduled/actual durations (seconds)."""
    start = datetime.fromisoformat(start) if isinstance(start, str) else start
    stops = tuple(
        StopRecord(
            trip_number=trip_id,
            trip_description="d",
            stop_number=i + 1,
            client_name="c",
            address="a",
            city=f"C{i % num_cities}",
            scheduled_time=start + timedelta(seconds=sched_s * i // max(num_stops - 1, 1)),
            actual_time=start + timedelta(seconds=actual_s * i // max(num_stops - 1, 1)),
        )
        for i in range(num_stops)
    )
    return Trip(
        trip_id=trip_id,
        stops=stops,
        num_stops=num_stops,
        num_cities=num_cities,
        actual_duration=float(actual_s),
        scheduled_duration=float(sched_s),
        delay=float(actual_s - sched_s),
        start_time=start,
    )


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
