"""Metrics, fold construction, scenario execution, scale bench."""

import math
from datetime import datetime, timedelta
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripcast.errors import DataError, InsufficientSpanError
from tripcast.evaluation import (
    SCENARIOS,
    ScenarioSpec,
    add_months,
    mae,
    make_folds,
    month_floor,
    rmse,
    run_scale_bench,
    run_scenario,
)
from tripcast.featurize import DAY_TYPE_COLUMN, FeatureTable, TargetKind, build_table
from tripcast.linear import fit_lasso
from tripcast.registry import Estimator, make_model
from tests.helpers import MeanModel, make_trip, trip_table


def test_mae_rmse_pinned_values():
    y = np.array([1.0, 2.0, 3.0])
    y_hat = np.array([2.0, 2.0, 5.0])
    assert mae(y, y_hat) == pytest.approx(1.0)
    assert rmse(y, y_hat) == pytest.approx(math.sqrt(5.0 / 3.0))
    assert mae(y, y) == 0.0 and rmse(y, y) == 0.0


def test_metric_errors():
    with pytest.raises(DataError):
        mae(np.zeros(3), np.zeros(4))
    with pytest.raises(DataError):
        rmse(np.zeros(0), np.zeros(0))


def test_metrics_match_bruteforce_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 200))
        y = rng.normal(size=n) * 1e4
        y_hat = rng.normal(size=n) * 1e4
        oracle_mae = math.fsum(abs(a - b) for a, b in zip(y, y_hat)) / n
        oracle_rmse = math.sqrt(math.fsum((a - b) ** 2 for a, b in zip(y, y_hat)) / n)
        assert mae(y, y_hat) == pytest.approx(oracle_mae, rel=1e-12)
        assert rmse(y, y_hat) == pytest.approx(oracle_rmse, rel=1e-12)
        assert rmse(y, y_hat) >= mae(y, y_hat)


finite_values = st.floats(-1e12, 1e12, allow_nan=False)


@st.composite
def equal_absolute_errors(draw):
    """Pairs whose absolute errors are all exactly one value: the case where MAE equals RMSE."""
    error = draw(st.floats(0.0, 1e12))
    pairs = []
    for negative, swap in draw(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=200)):
        pair = (-error if negative else error, 0.0)
        pairs.append(pair[::-1] if swap else pair)
    return pairs


@settings(max_examples=300, deadline=500)
@given(
    pair=st.one_of(
        st.lists(st.tuples(finite_values, finite_values), min_size=1, max_size=1),
        st.lists(st.tuples(finite_values, finite_values), min_size=1, max_size=200),
        equal_absolute_errors(),
    )
)
def test_property_rmse_dominates_mae(pair):
    # The bound run_scenario's fold guard allows: MAE <= RMSE up to rounding.
    y = np.array([a for a, _ in pair])
    y_hat = np.array([b for _, b in pair])
    assert mae(y, y_hat) <= rmse(y, y_hat) * (1 + 1e-12) + 1e-12


def _seven_month_table(trips_per_day=2, target=TargetKind.DURATION):
    """Synthetic trips covering 2019-03-01 .. 2019-09-30, every day."""
    trips = []
    day = datetime(2019, 3, 1)
    i = 0
    while day < datetime(2019, 10, 1):
        for k in range(trips_per_day):
            trips.append(
                make_trip(f"T{i:06d}", day + timedelta(hours=8 + k), 3600 + 60 * k, 4000 + 60 * k)
            )
            i += 1
        day += timedelta(days=1)
    return build_table(trip_table(trips), target)


def test_scenario_0_single_fold_four_month_train():
    table = _seven_month_table()
    folds = make_folds(table, ScenarioSpec.for_id(0))
    assert len(folds) == 1
    fold = folds[0]
    assert fold.train_range == (datetime(2019, 3, 1), datetime(2019, 7, 1))
    assert fold.test_range[0] == datetime(2019, 7, 1)
    assert fold.test_range[1] > datetime(2019, 9, 30)


def test_scenario_1_three_monthly_folds():
    table = _seven_month_table()
    folds = make_folds(table, ScenarioSpec.for_id(1))
    assert len(folds) == 3
    assert folds[0].train_range == (datetime(2019, 4, 1), datetime(2019, 7, 1))
    assert folds[0].test_range[0:1] == (datetime(2019, 7, 1),)
    assert folds[1].test_range[0] == datetime(2019, 8, 1)
    assert folds[2].test_range[0] == datetime(2019, 9, 1)
    # train is the 3 months immediately preceding each test slice
    for fold in folds:
        assert fold.train_range[1] == fold.test_range[0]


def test_scenario_2_biweekly_folds():
    folds = make_folds(_seven_month_table(), ScenarioSpec.for_id(2))
    assert len(folds) == math.ceil(92 / 14)
    for fold in folds:
        assert fold.train_range[1] - fold.train_range[0] == timedelta(days=42)


def test_scenario_4_one_fold_per_day():
    table = _seven_month_table()
    folds = make_folds(table, ScenarioSpec.for_id(4))
    assert len(folds) == 92  # July + August + September 2019
    for fold in folds:
        assert fold.train_range[1] - fold.train_range[0] == timedelta(days=3)


def _start_time_table(first, span_days, points):
    """A table whose only content is its sorted trip start times.

    They run from ``first`` to ``span_days`` later, with one more row at
    each of ``points`` thousandths of the span, rounded down to the second:
    repeated or close points give same-second ties.
    """
    at = np.sort([0, *points, 1000]) * (span_days * 86_400) // 1000
    starts = np.datetime64(first.replace(microsecond=0), "s") + at.astype("timedelta64[s]")
    n = starts.size
    return FeatureTable([f"T{i}" for i in range(n)], starts, np.zeros((n, 1)), np.zeros(n), TargetKind.DURATION)


@pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
@settings(max_examples=60, deadline=2000)
@given(
    first=st.datetimes(datetime(2018, 1, 1), datetime(2020, 12, 31)),
    span_days=st.integers(0, 400),
    points=st.lists(st.integers(0, 1000), max_size=60),
)
def test_fold_partition_and_no_leakage(scenario_id, first, span_days, points):
    # Either the span is too short, or the test windows tile the last three
    # calendar months, each train window ends where its test window starts,
    # and every train row precedes every test row.
    table = _start_time_table(first, span_days, points)
    spec = ScenarioSpec.for_id(scenario_id)
    t_min, t_max = table.start_times[0].item(), table.start_times[-1].item()
    last_three = add_months(month_floor(t_max), -2)
    try:
        folds = make_folds(table, spec)
    except InsufficientSpanError:
        # Only when the test months start at or before the first row, or fold 0's
        # training window would start before the first row's month.
        if spec.train_months is not None:
            train_start = add_months(last_three, -spec.train_months)
        else:
            train_start = last_three - timedelta(days=spec.train_days)
        assert last_three <= t_min or train_start < month_floor(t_min)
        return
    assert folds[0].test_range[0] == last_three > t_min
    assert folds[-1].test_range[1] == t_max + timedelta(seconds=1)
    for a, b in zip(folds, folds[1:]):
        assert a.test_range[1] == b.test_range[0]
    assert folds[0].train_range[0] >= month_floor(t_min)
    times = table.start_times.tolist()
    for fold in folds:
        assert fold.train_range[0] < fold.train_range[1] == fold.test_range[0] < fold.test_range[1]
        train_times = [t for t in times if fold.train_range[0] <= t < fold.train_range[1]]
        test_times = [t for t in times if fold.test_range[0] <= t < fold.test_range[1]]
        if train_times and test_times:
            assert max(train_times) < min(test_times)


def test_insufficient_span_errors():
    trips = []
    day = datetime(2019, 6, 1)
    i = 0
    while day < datetime(2019, 10, 1):  # 4 months only
        trips.append(make_trip(f"T{i:05d}", day + timedelta(hours=9), 3600, 4000))
        i += 1
        day += timedelta(days=1)
    table = build_table(trip_table(trips), TargetKind.DURATION)
    with pytest.raises(InsufficientSpanError):
        make_folds(table, ScenarioSpec.for_id(0))
    # scenario 4 needs only 3 days of history before July: fine
    assert make_folds(table, ScenarioSpec.for_id(4))


def test_unknown_scenario():
    with pytest.raises(DataError):
        ScenarioSpec.for_id(9)


def test_run_scenario_perfect_memorizer_zero_error():
    table = _seven_month_table()  # constant-ish targets per fold? use constant target
    # all targets equal -> the mean model is exact
    table.y[:] = 1234.0
    run = run_scenario(table, ScenarioSpec.for_id(1), "mean", lambda fold: MeanModel())
    assert all(r.mae == 0.0 and r.rmse == 0.0 for r in run.results)
    assert run.aggregate.mae == 0.0


def test_run_scenario_aggregate_is_mean_of_folds():
    table = _seven_month_table()
    run = run_scenario(table, ScenarioSpec.for_id(1), "mean", lambda fold: MeanModel())
    assert len(run.results) == 3
    assert run.aggregate.mae == pytest.approx(np.mean([r.mae for r in run.results]), rel=1e-12)
    assert run.aggregate.rmse == pytest.approx(np.mean([r.rmse for r in run.results]), rel=1e-12)
    for r in run.results:
        assert r.mae <= r.rmse
        assert r.fit_time >= 0.0
        assert r.n_train > 0 and r.n_test > 0


def test_run_scenario_notes_folds_whose_fit_did_not_converge():
    table = _seven_month_table()
    table.y[:] += np.arange(table.y.size) % 7 * 60.0

    def lasso(max_iter):
        return lambda fold: Estimator("linear", partial(fit_lasso, max_iter=max_iter, day_type_col=DAY_TYPE_COLUMN))

    capped = run_scenario(table, ScenarioSpec.for_id(1), "la", lasso(1))
    assert len(capped.results) == 3
    assert capped.diagnostics == [f"fold {r.fold}: fit did not converge; its last iterate is used" for r in capped.results]
    full = run_scenario(table, ScenarioSpec.for_id(1), "la", lasso(10_000))
    assert full.diagnostics == []
    # The note changes nothing else: the capped fits are scored as they are.
    assert [r.mae for r in capped.results] != [r.mae for r in full.results]


def test_run_scenario_notes_adaboost_folds_that_stopped_early():
    # Duration is a step in the start hour, so AdaBoost.R2's first stage
    # fits every training row and boosting stops there.
    table = _seven_month_table()
    fitted = []

    def adaboost(fold):
        fitted.append(make_model("ab", fold, n_estimators=5))
        return fitted[-1]

    stopped = run_scenario(table, ScenarioSpec.for_id(1), "ab", adaboost)
    assert [len(m.model.members) for m in fitted] == [1, 1, 1]
    assert stopped.diagnostics == [f"fold {r.fold}: stopped after 1 of 5 stages" for r in stopped.results]
    table.y[:] += np.arange(table.y.size) % 7 * 60.0
    full = run_scenario(table, ScenarioSpec.for_id(1), "ab", lambda fold: make_model("ab", fold, n_estimators=5))
    assert len(full.results) == 3
    assert full.diagnostics == []


def test_run_scenario_metrics_deterministic():
    table = _seven_month_table()
    a = run_scenario(table, ScenarioSpec.for_id(2), "mean", lambda fold: MeanModel())
    b = run_scenario(table, ScenarioSpec.for_id(2), "mean", lambda fold: MeanModel())
    assert [(r.mae, r.rmse) for r in a.results] == [(r.mae, r.rmse) for r in b.results]


def test_run_scenario_empty_test_fold_skipped_and_reported():
    # Hole aligned with a weekly test slice: slices anchor at Jul 1, so
    # [Sep 2, Sep 9) is exactly the tenth slice.
    trips = []
    day = datetime(2019, 3, 1)
    i = 0
    while day < datetime(2019, 10, 1):
        if not (datetime(2019, 9, 2) <= day < datetime(2019, 9, 9)):
            trips.append(make_trip(f"T{i:06d}", day + timedelta(hours=8), 3600, 4000))
            i += 1
        day += timedelta(days=1)
    table = build_table(trip_table(trips), TargetKind.DURATION)
    run = run_scenario(table, ScenarioSpec.for_id(3), "mean", lambda fold: MeanModel())
    assert any("no test rows" in d for d in run.diagnostics)
    executed_folds = {r.fold for r in run.results}
    assert len(executed_folds) < len(make_folds(table, ScenarioSpec.for_id(3)))


def test_run_scenario_empty_train_fold_reported_run_continues():
    # Hole covering an entire 3-day training window of scenario 4.
    trips = []
    day = datetime(2019, 3, 1)
    i = 0
    while day < datetime(2019, 10, 1):
        if not (datetime(2019, 8, 10) <= day < datetime(2019, 8, 13)):
            trips.append(make_trip(f"T{i:06d}", day + timedelta(hours=8), 3600, 4000))
            i += 1
        day += timedelta(days=1)
    table = build_table(trip_table(trips), TargetKind.DURATION)
    run = run_scenario(table, ScenarioSpec.for_id(4), "mean", lambda fold: MeanModel())
    assert any("no training rows" in d for d in run.diagnostics)
    assert run.results


def test_unsorted_table_rejected():
    table = _seven_month_table()
    table.start_times[0], table.start_times[-1] = table.start_times[-1], table.start_times[0]
    with pytest.raises(DataError, match="sorted"):
        make_folds(table, ScenarioSpec.for_id(1))


def test_run_scale_bench_structure():
    table = _seven_month_table(trips_per_day=3)
    results = run_scale_bench(table, [50, 120], {"mean": lambda rep: MeanModel()}, repeats=3)
    assert [(r.model, r.n_samples) for r in results] == [("mean", 50), ("mean", 120)]
    for r in results:
        assert len(r.repeats) == 3
        assert r.fit_time == sorted(r.repeats)[1]  # median of three
        assert r.fit_time >= 0.0


def test_run_scale_bench_size_errors():
    table = _seven_month_table()
    with pytest.raises(DataError):
        run_scale_bench(table, [10**7], {"mean": lambda rep: MeanModel()})
    with pytest.raises(DataError):
        run_scale_bench(table, [], {"mean": lambda rep: MeanModel()})


@pytest.mark.parametrize("repeats", [0, -1])
def test_run_scale_bench_refuses_repeats_below_one_before_any_fit(repeats):
    # Zero repeats would give NaN medians, which the chart cannot draw.
    table = _seven_month_table(trips_per_day=3)
    built = []
    with pytest.raises(DataError, match="repeats"):
        run_scale_bench(table, [50], {"mean": lambda rep: built.append(rep) or MeanModel()}, repeats=repeats)
    assert built == []
