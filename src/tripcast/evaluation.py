"""Metrics, rolling-retrain scenarios, fold execution, and the scale bench.

Five retraining scenarios are evaluated over the final three calendar
months of a feature table's timeline:

  0: no retraining (train on the preceding 4 calendar months, one fold)
  1: retrain monthly (3 calendar months train / 1 month test)
  2: retrain every two weeks (42 days train / 14 days test)
  3: retrain weekly (21 days train / 7 days test)
  4: retrain daily (3 days train / 1 day test)

Test slices partition the 3-month test period exactly (the last slice may
be shorter); each fold trains on the window immediately preceding its test
slice, so train always ends where test begins and no fold can leak future
rows into training. "Month" means calendar-month boundaries; week and day
windows are 7/1-day slices anchored at the test-period start. Fold bounds
are ``datetime`` values; the rows of each window are found by binary search
in the table's ``datetime64[s]`` start times, which must be sorted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from .errors import DataError, InsufficientSpanError
from .featurize import FeatureTable

TEST_PERIOD_MONTHS = 3


def mae(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Mean absolute error."""
    y, y_hat = _check_pair(y, y_hat)
    return float(np.mean(np.abs(y - y_hat)))


def rmse(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Root mean squared error (always >= mae on the same pair)."""
    y, y_hat = _check_pair(y, y_hat)
    return float(np.sqrt(np.mean((y - y_hat) ** 2)))


def _check_pair(y, y_hat) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    y_hat = np.asarray(y_hat, dtype=np.float64).reshape(-1)
    if y.shape[0] == 0:
        raise DataError("metrics need at least one value")
    if y.shape[0] != y_hat.shape[0]:
        raise DataError(f"length mismatch: {y.shape[0]} vs {y_hat.shape[0]}")
    return y, y_hat


@dataclass(slots=True, frozen=True)
class ScenarioSpec:
    """One retraining scheme; windows are calendar months or day counts."""

    id: int
    description: str
    test_months: int | None = None
    train_months: int | None = None
    test_days: int | None = None
    train_days: int | None = None

    @classmethod
    def for_id(cls, scenario_id: int) -> "ScenarioSpec":
        try:
            return SCENARIOS[scenario_id]
        except KeyError:
            raise DataError(f"unknown scenario {scenario_id} (expected 0..4)") from None


SCENARIOS: dict[int, ScenarioSpec] = {
    0: ScenarioSpec(0, "no retraining: 4 months train, 3 months test", test_months=3, train_months=4),
    1: ScenarioSpec(1, "retrain monthly: 3 months train, 1 month test", test_months=1, train_months=3),
    2: ScenarioSpec(2, "retrain biweekly: 6 weeks train, 2 weeks test", test_days=14, train_days=42),
    3: ScenarioSpec(3, "retrain weekly: 3 weeks train, 1 week test", test_days=7, train_days=21),
    4: ScenarioSpec(4, "retrain daily: 3 days train, 1 day test", test_days=1, train_days=3),
}


@dataclass(slots=True, frozen=True)
class Fold:
    """Half-open [start, end) train and test ranges; train ends at test start."""

    index: int
    train_range: tuple[datetime, datetime]
    test_range: tuple[datetime, datetime]


def month_floor(ts: datetime) -> datetime:
    return datetime(ts.year, ts.month, 1)


def add_months(ts: datetime, k: int) -> datetime:
    month_index = ts.year * 12 + (ts.month - 1) + k
    return datetime(month_index // 12, month_index % 12 + 1, 1)


def make_folds(table: FeatureTable, spec: ScenarioSpec) -> list[Fold]:
    """Folds covering exactly the final three calendar months of the table."""
    if len(table) == 0:
        raise DataError("cannot fold an empty table")
    starts = table.start_times
    if len(starts) == 0:
        raise DataError("table has no start times; fold on assembled trips")
    if np.any(starts[1:] < starts[:-1]):
        raise DataError("feature table must be chronologically sorted")

    t_min, t_max = starts[0].item(), starts[-1].item()
    test_start = add_months(month_floor(t_max), -(TEST_PERIOD_MONTHS - 1))
    end_exclusive = t_max + timedelta(seconds=1)
    if test_start <= t_min:
        raise InsufficientSpanError(
            f"table spans {t_min}..{t_max}: no room for a {TEST_PERIOD_MONTHS}-month test period"
        )

    slices: list[tuple[datetime, datetime]] = []
    cursor = test_start
    while cursor < end_exclusive:
        if spec.test_months is not None:
            nxt = add_months(cursor, spec.test_months)
        else:
            nxt = cursor + timedelta(days=spec.test_days)
        slices.append((cursor, min(nxt, end_exclusive)))
        cursor = nxt

    folds = []
    for index, (ts, te) in enumerate(slices):
        if spec.train_months is not None:
            train_start = add_months(ts, -spec.train_months)
        else:
            train_start = ts - timedelta(days=spec.train_days)
        folds.append(Fold(index=index, train_range=(train_start, ts), test_range=(ts, te)))

    first_train = folds[0].train_range[0]
    if first_train < month_floor(t_min):
        raise InsufficientSpanError(
            f"training window of fold 0 starts {first_train}, before the table's "
            f"first month ({month_floor(t_min)}); span too short for scenario {spec.id}"
        )
    return folds


class Regressor(Protocol):
    """The common learner contract every model in the registry satisfies."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Regressor": ...

    def predict(self, X: np.ndarray) -> np.ndarray: ...


ModelFactory = Callable[[int], Regressor]


@dataclass(slots=True, frozen=True)
class RunResult:
    """One (scenario, model, target, fold) evaluation."""

    scenario_id: int
    model: str
    target: str
    fold: int
    n_train: int
    n_test: int
    mae: float
    rmse: float
    fit_time: float


@dataclass(slots=True, frozen=True)
class Aggregate:
    mae: float
    rmse: float
    fit_time: float
    n_folds: int


@dataclass(slots=True)
class ScenarioRun:
    results: list[RunResult]
    aggregate: Aggregate
    diagnostics: list[str]


def _row_range(times_s: np.ndarray, lo: datetime, hi: datetime) -> tuple[int, int]:
    lo64 = np.datetime64(lo, "s")
    hi64 = np.datetime64(hi, "s")
    return int(np.searchsorted(times_s, lo64, "left")), int(np.searchsorted(times_s, hi64, "left"))


def run_scenario(
    table: FeatureTable,
    spec: ScenarioSpec,
    model_name: str,
    factory: ModelFactory,
) -> ScenarioRun:
    """Fit/evaluate one model over every fold of a scenario.

    Per fold: fit on the train rows (timed: fitting only), predict the test
    rows, compute MAE/RMSE in target units (seconds). Folds without test
    rows are skipped with a diagnostic; a fold whose training window is
    empty is reported and the run continues. A fold whose fitted model
    reports ``converged=False`` (a lasso out of sweeps), or an AdaBoost.R2
    model that stopped before ``n_estimators`` stages, is kept and gets a
    diagnostic too. Aggregates are unweighted means over the executed
    folds. Metric values are deterministic for a fixed seed; fit times are not.
    """
    folds = make_folds(table, spec)
    times_s = table.start_times

    def leakage_guard(fold: Fold, tr: tuple[int, int], te: tuple[int, int]) -> None:
        last_train = times_s[tr[1] - 1]
        first_test = times_s[te[0]]
        if not (last_train < first_test):
            raise AssertionError(f"fold {fold.index}: train overlaps test")

    def run_fold(fold: Fold) -> tuple[RunResult | None, str | None]:
        tr = _row_range(times_s, *fold.train_range)
        te = _row_range(times_s, *fold.test_range)
        n_train, n_test = tr[1] - tr[0], te[1] - te[0]
        if n_test == 0:
            return None, f"fold {fold.index}: no test rows in {fold.test_range}; skipped"
        if n_train == 0:
            return None, f"fold {fold.index}: no training rows in {fold.train_range}; skipped"
        leakage_guard(fold, tr, te)
        X_train, y_train = table.X[tr[0] : tr[1]], table.y[tr[0] : tr[1]]
        X_test, y_test = table.X[te[0] : te[1]], table.y[te[0] : te[1]]
        model = factory(fold.index)
        t0 = time.perf_counter()
        model.fit(X_train, y_train)
        fit_time = time.perf_counter() - t0
        fitted = getattr(model, "model", model)
        note = None
        if not getattr(fitted, "converged", True):
            note = f"fold {fold.index}: fit did not converge; its last iterate is used"
        elif getattr(fitted, "kind", None) == "adaboost_r2" and len(fitted.members) < fitted.settings["n_estimators"]:
            note = f"fold {fold.index}: stopped after {len(fitted.members)} of {fitted.settings['n_estimators']} stages"
        pred = model.predict(X_test)
        fold_mae = mae(y_test, pred)
        fold_rmse = rmse(y_test, pred)
        if not fold_mae <= fold_rmse * (1 + 1e-12) + 1e-12:
            raise AssertionError(f"fold {fold.index}: mae {fold_mae} > rmse {fold_rmse}")
        return (
            RunResult(
                scenario_id=spec.id,
                model=model_name,
                target=table.target.value,
                fold=fold.index,
                n_train=n_train,
                n_test=n_test,
                mae=fold_mae,
                rmse=fold_rmse,
                fit_time=fit_time,
            ),
            note,
        )

    outcomes = [run_fold(fold) for fold in folds]

    results = [r for r, _ in outcomes if r is not None]
    diagnostics = [d for _, d in outcomes if d is not None]
    if not results:
        raise DataError(f"scenario {spec.id}: no fold produced results")
    aggregate = Aggregate(
        mae=float(np.mean([r.mae for r in results])),
        rmse=float(np.mean([r.rmse for r in results])),
        fit_time=float(np.mean([r.fit_time for r in results])),
        n_folds=len(results),
    )
    return ScenarioRun(results=results, aggregate=aggregate, diagnostics=diagnostics)


@dataclass(slots=True, frozen=True)
class ScaleResult:
    model: str
    n_samples: int
    fit_time: float  # median of the repeats
    repeats: tuple[float, ...]


def run_scale_bench(
    table: FeatureTable,
    sizes: Sequence[int],
    factories: Mapping[str, ModelFactory],
    repeats: int = 3,
) -> list[ScaleResult]:
    """Median wall-clock fit time per (model, training size).

    Each model is fit on the first n chronological rows, ``repeats`` times;
    runs execute strictly serially so timings stay meaningful.
    """
    if not sizes:
        raise DataError("run_scale_bench needs at least one size")
    sizes = [int(n) for n in sizes]
    if min(sizes) < 1:
        raise DataError("sizes must be positive")
    if max(sizes) > len(table):
        raise DataError(f"size {max(sizes)} exceeds table rows ({len(table)})")
    if repeats < 1:
        raise DataError(f"repeats must be >= 1, got {repeats}")
    results = []
    for name, factory in factories.items():
        for n in sizes:
            X, y = table.X[:n], table.y[:n]
            times = []
            for rep in range(repeats):
                model = factory(rep)
                t0 = time.perf_counter()
                model.fit(X, y)
                times.append(time.perf_counter() - t0)
            results.append(
                ScaleResult(
                    model=name,
                    n_samples=n,
                    fit_time=float(np.median(times)),
                    repeats=tuple(times),
                )
            )
    return results


DEFAULT_SCALE_SIZES = (1_000, 5_000, 10_000, 25_000, 50_000, 100_000, 150_000)
