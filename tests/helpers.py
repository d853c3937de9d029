"""Shared construction helpers for the test suite."""

import collections
import contextlib
import hashlib
import json
import re
import signal
from datetime import datetime

import numpy as np
from hypothesis import strategies as st

from tripcast.linear import LinearModel, expand_day_type
from tripcast.persist import FORMAT_NAME, FORMAT_VERSION
from tripcast.registry import REGISTRY, make_model
from tripcast.trees import canonical_rows, predict_tree_batch, split_threshold
from tripcast.trip_data import Coded, StopTable, TripTable


def signed(body: bytes, **header) -> bytes:
    """``body``, the bytes after a model document's header line, under a header whose sha256 matches them.

    ``header`` overrides the format and version fields, as an older or a
    future build might write them.
    """
    fields = {"format": FORMAT_NAME, "format_version": FORMAT_VERSION, **header}
    fields["sha256"] = hashlib.sha256(body).hexdigest()
    return json.dumps(fields).encode("utf-8") + b"\n" + body


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
    """A fitted tree's node arrays and its derived left children as lists, for exact structural comparison."""
    return [getattr(tree, name).tolist() for name in ("feature", "threshold", "left", "value")]


def reference_predict(tree, X):
    """Walk each row from the root one node at a time: the plain reading of the node arrays.

    The children of the k-th internal node are nodes 2k + 1 and 2k + 2,
    counted here from ``feature`` alone, not from the tree's ``left``.
    """
    rank = np.cumsum(tree.feature >= 0) - 1  # k of each internal node
    out = np.empty(X.shape[0])
    for i, x in enumerate(X):
        node = 0
        while tree.feature[node] >= 0:
            go_left = x[tree.feature[node]] <= tree.threshold[node]
            node = 2 * rank[node] + (1 if go_left else 2)
        out[i] = tree.value[node]
    return out


def reference_tree(X, y, max_depth=None, bins=None):
    """A tree grown node by node, breadth first, from each node's own rows: node arrays as lists.

    Exact mode (``bins`` None): each node's rows are stably argsorted per
    feature and candidate splits lie between distinct values, whose target
    sums ``reduceat`` adds. Histogram mode (a ``BinnedColumns`` built from
    the canonical rows of ``X``): one ``bincount`` over the (feature, bin)
    keys of the node's rows in canonical order gives
    each bin's row count and target sum, and candidate splits lie between
    consecutive nonempty bins, at ``split_threshold`` of the left bin's
    largest and the right bin's smallest training value. Either way splits
    are scored by S_L^2/N_L + S_R^2/N_R with ties to the lowest threshold,
    then the lowest feature, and taken only if they reduce the SSE. Nodes
    are numbered in the order they leave a queue, the left child first, so
    in level order; each node's left child is given as :func:`tree_arrays`
    gives it.
    """
    X, y = canonical_rows(np.asarray(X, dtype=float), np.asarray(y, dtype=float))
    k = X.shape[1]
    if bins is not None:
        assert bins.keys.shape == X.shape
        width = bins.bin_min.shape[1]  # keys[r, f] is f * width + the bin of X[r, f]
    feature, threshold, left, value = [], [], [], []
    queue = collections.deque([(np.arange(len(y)), 0)])
    while queue:
        idx, depth = queue.popleft()
        node = len(value)
        value.append(float(np.sum(y[idx]) / idx.size))
        best, best_score, best_parent = None, -np.inf, 0.0
        can_split = (max_depth is None or depth < max_depth) and np.any(y[idx] != y[idx[0]])
        if can_split and bins is not None:
            keys = bins.keys[idx].ravel()
            counts = np.bincount(keys, minlength=k * width).reshape(k, width)
            sums = np.bincount(keys, weights=np.repeat(y[idx], k), minlength=k * width).reshape(k, width)
        for f in range(k) if can_split else ():
            if bins is None:
                sorted_idx = idx[np.argsort(X[idx, f], kind="stable")]
                sv = X[sorted_idx, f]
                starts = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1]])
                g_y, g_n = np.add.reduceat(y[sorted_idx], starts), np.diff(np.r_[starts, idx.size])
                lo, hi = sv[starts[:-1]], sv[starts[1:]]
            else:
                nonempty = np.flatnonzero(counts[f])
                g_y, g_n = sums[f, nonempty], counts[f, nonempty]
                lo, hi = bins.bin_max[f][nonempty[:-1]], bins.bin_min[f][nonempty[1:]]
            cy, cn = np.cumsum(g_y), np.cumsum(g_n)
            s_left, s_right, n_left, n_right = cy[:-1], cy[-1] - cy[:-1], cn[:-1], cn[-1] - cn[:-1]
            score = s_left * s_left / n_left + s_right * s_right / n_right
            if score.size and score.max() > best_score:
                pos = int(np.argmax(score))
                best_score, best_parent = score[pos], cy[-1] * cy[-1] / cn[-1]
                best = (f, float(split_threshold(lo[pos], hi[pos])))
        if best is None or best_score - best_parent <= 0.0:
            feature.append(-1), threshold.append(0.0), left.append(node)
            continue
        go_left = X[idx, best[0]] <= best[1]
        left.append(node + len(queue) + 1)  # after every node waiting in the queue
        feature.append(best[0]), threshold.append(best[1])
        queue += [(idx[go_left], depth + 1), (idx[~go_left], depth + 1)]
    return [feature, threshold, left, value]


def training_mse(tree, X, y):
    """Mean squared error of a fitted tree on its training rows."""
    return float(np.mean((y - predict_tree_batch(tree, X)) ** 2))


def linear_objective(
    model: LinearModel, X: np.ndarray, y: np.ndarray, beta: np.ndarray | None = None
) -> float:
    """Penalized objective of ``model`` (or of an alternative ``beta``)."""
    b = model.coefficients if beta is None else np.asarray(beta, dtype=np.float64)
    Xe = expand_day_type(np.asarray(X, dtype=np.float64), model.day_type_col)
    Xs = (Xe - model.feature_means) / model.feature_scales
    res = y - (Xs @ b + model.intercept)
    sse = float(res @ res)
    if model.penalty == "l2":
        return sse + model.lam * float(b @ b)
    if model.penalty == "l1":
        return sse / (2 * X.shape[0]) + model.lam * float(np.sum(np.abs(b)))
    return sse


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


_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")

#: Numbers a reader may choke on: past Python's 4,300-digit limit on integer
#: strings, finite but near the float limit, past the float range either way,
#: and past the int64 range.
HUGE_NUMBERS = [
    b"9" * 5_000,
    b"1.7e308",
    b"-1.7e308",
    b"1" + b"0" * 400,
    b"1e400",
    b"-1e400",
    b"1e-400",
    b"9223372036854775808",
    b"-" + b"9" * 20,
]


@st.composite
def mutated_bytes(draw, original: bytes) -> bytes:
    """``original`` truncated, spliced, with bytes flipped, a number nested in lists, or a number made huge."""
    n = len(original)
    kind = draw(st.sampled_from(["truncate", "splice", "flip", "nest", "huge"]))
    at = draw(st.integers(min_value=0, max_value=n))
    if kind == "truncate":
        return original[:at]
    if kind == "splice":  # a piece of the text, put in place of another
        start = draw(st.integers(min_value=0, max_value=n))
        piece = original[start : start + draw(st.integers(min_value=0, max_value=64))]
        return original[:at] + piece + original[at + draw(st.integers(min_value=0, max_value=64)) :]
    if kind == "flip":
        out = bytearray(original)
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            out[draw(st.integers(min_value=0, max_value=n - 1))] ^= draw(st.integers(min_value=1, max_value=255))
        return bytes(out)
    numbers = list(_NUMBER.finditer(original))
    if not numbers:
        return original
    number = draw(st.sampled_from(numbers))
    if kind == "nest":
        depth = draw(st.one_of(st.integers(min_value=1, max_value=4), st.integers(min_value=900, max_value=5_000)))
        replacement = b"[" * depth + number.group() + b"]" * depth
    else:
        replacement = draw(st.sampled_from(HUGE_NUMBERS))
    return original[: number.start()] + replacement + original[number.end() :]
