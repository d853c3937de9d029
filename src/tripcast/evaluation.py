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
windows are 7/1-day slices anchored at the test-period start. Windows are
``timedelta64`` months or days; fold bounds are ``datetime64[s]``, whose
rows are found by binary search in the table's sorted start times.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
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
    """One retraining scheme: ``timedelta64`` train and test windows, both in months or both in days."""

    id: int
    description: str
    train: np.timedelta64
    test: np.timedelta64

    @classmethod
    def for_id(cls, scenario_id: int) -> "ScenarioSpec":
        try:
            return SCENARIOS[scenario_id]
        except KeyError:
            raise DataError(f"unknown scenario {scenario_id} (expected 0..4)") from None


SCENARIOS: dict[int, ScenarioSpec] = {
    0: ScenarioSpec(0, "no retraining: 4 months train, 3 months test", np.timedelta64(4, "M"), np.timedelta64(3, "M")),
    1: ScenarioSpec(1, "retrain monthly: 3 months train, 1 month test", np.timedelta64(3, "M"), np.timedelta64(1, "M")),
    2: ScenarioSpec(2, "retrain biweekly: 6 weeks train, 2 weeks test", np.timedelta64(42, "D"), np.timedelta64(14, "D")),
    3: ScenarioSpec(3, "retrain weekly: 3 weeks train, 1 week test", np.timedelta64(21, "D"), np.timedelta64(7, "D")),
    4: ScenarioSpec(4, "retrain daily: 3 days train, 1 day test", np.timedelta64(3, "D"), np.timedelta64(1, "D")),
}


@dataclass(slots=True, frozen=True)
class Fold:
    """Half-open [start, end) ``datetime64[s]`` train and test ranges; train ends at test start."""

    index: int
    train_range: tuple[np.datetime64, np.datetime64]
    test_range: tuple[np.datetime64, np.datetime64]


def make_folds(table: FeatureTable, spec: ScenarioSpec) -> list[Fold]:
    """Folds covering exactly the final three calendar months of the table."""
    if len(table) == 0:
        raise DataError("cannot fold an empty table")
    starts = table.start_times
    if len(starts) == 0:
        raise DataError("table has no start times; fold on assembled trips")
    if np.any(starts[1:] < starts[:-1]):
        raise DataError("feature table must be chronologically sorted")

    t_min, t_max = starts[0], starts[-1]
    test_start = t_max.astype("datetime64[M]") - (TEST_PERIOD_MONTHS - 1)
    if test_start <= t_min:
        raise InsufficientSpanError(
            f"table spans {t_min}..{t_max}: no room for a {TEST_PERIOD_MONTHS}-month test period"
        )
    # Test slices start a whole window apart, in the windows' own unit, up to t_max's.
    unit = np.datetime_data(spec.test)[0]
    first, last = np.datetime64(test_start, unit), np.datetime64(t_max, unit)
    lo = first + spec.test * np.arange((last - first) // spec.test + 1)
    train_lo = (lo - spec.train).astype("datetime64[s]")
    hi = np.minimum((lo + spec.test).astype("datetime64[s]"), t_max + np.timedelta64(1, "s"))
    lo = lo.astype("datetime64[s]")

    if train_lo[0] < t_min.astype("datetime64[M]"):
        raise InsufficientSpanError(
            f"training window of fold 0 starts {train_lo[0]}, before the table's first month"
            f" ({t_min.astype('datetime64[M]')}); span too short for scenario {spec.id}"
        )
    return [Fold(index, (train_lo[index], lo[index]), (lo[index], hi[index])) for index in range(lo.size)]


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
    times_s = table.start_times
    results: list[RunResult] = []
    diagnostics: list[str] = []
    for fold in make_folds(table, spec):
        train, test = fold.train_range, fold.test_range
        (tr0, tr1), (te0, te1) = np.searchsorted(times_s, (train, test)).tolist()
        if te0 == te1:
            diagnostics.append(f"fold {fold.index}: no test rows in {test[0]}..{test[1]}; skipped")
            continue
        if tr0 == tr1:
            diagnostics.append(f"fold {fold.index}: no training rows in {train[0]}..{train[1]}; skipped")
            continue
        if not times_s[tr1 - 1] < times_s[te0]:
            raise AssertionError(f"fold {fold.index}: train overlaps test")
        model = factory(fold.index)
        t0 = time.perf_counter()
        model.fit(table.X[tr0:tr1], table.y[tr0:tr1])
        fit_time = time.perf_counter() - t0
        fitted = getattr(model, "model", model)
        if not getattr(fitted, "converged", True):
            diagnostics.append(f"fold {fold.index}: fit did not converge; its last iterate is used")
        elif getattr(fitted, "kind", None) == "adaboost_r2" and len(fitted.members) < fitted.settings["n_estimators"]:
            diagnostics.append(
                f"fold {fold.index}: stopped after {len(fitted.members)} of {fitted.settings['n_estimators']} stages"
            )
        pred = model.predict(table.X[te0:te1])
        y_test = table.y[te0:te1]
        fold_mae, fold_rmse = mae(y_test, pred), rmse(y_test, pred)
        if not fold_mae <= fold_rmse * (1 + 1e-12) + 1e-12:
            raise AssertionError(f"fold {fold.index}: mae {fold_mae} > rmse {fold_rmse}")
        results.append(RunResult(
            scenario_id=spec.id, model=model_name, target=table.target.value, fold=fold.index,
            n_train=tr1 - tr0, n_test=te1 - te0, mae=fold_mae, rmse=fold_rmse, fit_time=fit_time,
        ))

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
    runs execute strictly serially so timings stay meaningful. Within each
    size and repeat the models take turns, so a drift in machine speed
    reaches every model alike. Results come model by model, then by size.
    """
    if not sizes:
        raise DataError("run_scale_bench needs at least one size")
    sizes = [int(n) for n in sizes]
    if min(sizes) < 1:
        raise DataError("sizes must be positive")
    for i, n in enumerate(sizes):
        if n in sizes[:i]:  # one result row would hold the repeats of both
            raise DataError(f"size {n} is given more than once")
    if max(sizes) > len(table):
        raise DataError(f"size {max(sizes)} exceeds table rows ({len(table)})")
    if repeats < 1:
        raise DataError(f"repeats must be >= 1, got {repeats}")
    times: dict[tuple[str, int], list[float]] = {(name, n): [] for name in factories for n in sizes}
    for n in sizes:
        X, y = table.X[:n], table.y[:n]
        for rep in range(repeats):
            for name, factory in factories.items():
                model = factory(rep)
                t0 = time.perf_counter()
                model.fit(X, y)
                times[name, n].append(time.perf_counter() - t0)
    return [
        ScaleResult(model=name, n_samples=n, fit_time=float(np.median(ts)), repeats=tuple(ts))
        for (name, n), ts in times.items()
    ]


DEFAULT_SCALE_SIZES = (1_000, 5_000, 10_000, 25_000, 50_000, 100_000, 150_000)
