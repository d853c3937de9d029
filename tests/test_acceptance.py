"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The suite is heavier than the unit tests (it generates the full
default synthetic dataset and runs the 1k..150k scaling ladder); expect
several minutes total.
"""

import csv
import math
import time
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest

from tripcast.cli import main
from tripcast.ensembles import EnsembleConfig, fit_bagging, fit_gbm, fit_random_forest
from tripcast.evaluation import (
    DEFAULT_SCALE_SIZES,
    ScenarioSpec,
    mae,
    make_folds,
    rmse,
    run_scale_bench,
    run_scenario,
)
from tripcast.featurize import TargetKind, build_table
from tripcast.linear import fit_lasso, fit_ols, fit_ridge, lasso_lambda_max
from tripcast.persist import load_model, save_model
from tripcast.registry import make_model
from tripcast.synthgen import GenConfig, generate
from tripcast.trees import (
    fit_tree_exact,
    fit_tree_hist,
    predict_tree_batch,
)
from tripcast.trip_data import assemble_trips, parse_stops_csv, summarize

from tests.helpers import MeanModel, tree_arrays


def _report(number: int, name: str, elapsed: float, budget: float) -> None:
    print(f"\nACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s < {budget:.0f}s]")
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


# ---------------------------------------------------------------------------
# Shared fixtures

SMOKE_CONFIG = """
months = 2019-03..2019-09
weekday_trips_mean = 27
weekday_trips_std = 6
saturday_trips_mean = 5
saturday_trips_std = 1.5
sunday_trips_mean = 1.3
sunday_trips_std = 0.5
seed = 7
"""


@pytest.fixture(scope="module")
def small_stops(tmp_path_factory) -> Path:
    """A scaled-down 7-month synthetic stops CSV (a few thousand trips)."""
    root = tmp_path_factory.mktemp("acceptance")
    conf = root / "gen.conf"
    conf.write_text(SMOKE_CONFIG, encoding="utf-8")
    out = root / "stops.csv"
    assert main(["synth", "--config", str(conf), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def default_trips():
    """Full default-config synthetic dataset (~170k trips). Returns
    (trips, seconds spent generating + assembling)."""
    t0 = time.perf_counter()
    records = generate(GenConfig())
    trips, rejects = assemble_trips(records)
    elapsed = time.perf_counter() - t0
    assert rejects == []
    return trips, elapsed


# ---------------------------------------------------------------------------
# 1. Metric correctness against brute-force oracles.


def test_acceptance_1_metric_correctness():
    rng = np.random.default_rng(20190301)
    t0 = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(1, 200))
        y = rng.normal(scale=1e4, size=n)
        y_hat = y + rng.normal(scale=3e3, size=n)
        oracle_mae = math.fsum(abs(a - b) for a, b in zip(y, y_hat)) / n
        oracle_rmse = math.sqrt(math.fsum((a - b) ** 2 for a, b in zip(y, y_hat)) / n)
        got_mae, got_rmse = mae(y, y_hat), rmse(y, y_hat)
        assert got_mae == pytest.approx(oracle_mae, rel=1e-12)
        assert got_rmse == pytest.approx(oracle_rmse, rel=1e-12)
        assert got_rmse >= got_mae
    _report(1, "metric correctness", time.perf_counter() - t0, 1.0)


# ---------------------------------------------------------------------------
# 2. Exact / histogram split-finding equivalence.


def test_acceptance_2_exact_histogram_equivalence():
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    for case in range(50):
        n = int(rng.integers(2, 201))
        k = int(rng.integers(1, 6))
        distinct = int(rng.integers(2, 256))
        X = rng.integers(0, distinct, size=(n, k)).astype(float)
        if case % 5 == 0:
            y = rng.normal(size=n)  # continuous targets
        else:
            y = rng.integers(-1000, 1001, size=n).astype(float)
        depth = None if case % 3 else 5
        exact = fit_tree_exact(X, y, max_depth=depth)
        hist = fit_tree_hist(X, y, max_depth=depth)
        assert tree_arrays(exact) == tree_arrays(hist), f"case {case}: tree structures differ"
        queries = rng.normal(scale=float(distinct), size=(200, k))
        assert np.array_equal(
            predict_tree_batch(exact, queries), predict_tree_batch(hist, queries)
        ), f"case {case}: predictions differ"
    _report(2, "exact/histogram equivalence", time.perf_counter() - t0, 30.0)


# ---------------------------------------------------------------------------
# 3. Boosting monotonicity.


def test_acceptance_3_boosting_monotonicity():
    t0 = time.perf_counter()
    for seed in range(20):
        rng = np.random.default_rng(9000 + seed)
        X = rng.normal(size=(250, 5))
        y = X[:, 0] * 2.0 + np.sin(2.0 * X[:, 1]) + (X[:, 2] > 0) * 1.5 + rng.normal(size=250)
        for nu in (0.1, 1.0):
            for mode in ("exact", "hist"):
                model = fit_gbm(
                    X, y, EnsembleConfig(n_estimators=40, learning_rate=nu, seed=seed), mode=mode
                )
                mse = np.array(model.train_mse)
                assert np.all(mse[1:] <= mse[:-1] * (1 + 1e-12)), (seed, nu, mode)
    _report(3, "boosting monotonicity", time.perf_counter() - t0, 120.0)


# ---------------------------------------------------------------------------
# 4. Baseline degeneracies.


def test_acceptance_4_baseline_degeneracies():
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    X = rng.normal(size=(250, 6))
    y = X @ np.array([1.0, -2.0, 0.0, 0.5, 3.0, 0.0]) + rng.normal(size=250)
    queries = rng.normal(size=(100, 6))

    # bagging(1 tree, no bootstrap) behaves exactly like a decision tree
    bag = fit_bagging(X, y, EnsembleConfig(n_estimators=1, bootstrap=False, max_depth=5))
    tree = fit_tree_exact(X, y, max_depth=5)
    assert np.array_equal(bag.predict(queries), predict_tree_batch(tree, queries))

    # random forest(feature_subsample=1.0) behaves exactly like bagging
    cfg = EnsembleConfig(n_estimators=8, seed=5, max_depth=5)
    forest = fit_random_forest(
        X, y, EnsembleConfig(n_estimators=8, seed=5, max_depth=5, feature_subsample=1.0)
    )
    assert np.array_equal(fit_bagging(X, y, cfg).predict(queries), forest.predict(queries))

    # ridge(lam=0) == OLS within 1e-8
    assert np.allclose(fit_ridge(X, y, 0.0).coefficients, fit_ols(X, y).coefficients, atol=1e-8)

    # lasso at and above lambda_max: all-zero coefficients
    lam_max = lasso_lambda_max(X, y)
    for lam in (lam_max, 2.0 * lam_max):
        assert np.all(fit_lasso(X, y, lam).coefficients == 0.0)

    # lasso KKT residuals within tolerance
    lam = lam_max / 2.0
    lasso = fit_lasso(X, y, lam, tol=1e-10)
    assert lasso.converged
    Xs = (X - lasso.feature_means) / lasso.feature_scales
    corr = Xs.T @ (y - lasso.predict(X)) / X.shape[0]
    for j, beta_j in enumerate(lasso.coefficients):
        if beta_j == 0.0:
            assert abs(corr[j]) <= lam + 1e-8
        else:
            assert abs(corr[j] - lam * np.sign(beta_j)) <= 1e-8
    _report(4, "baseline degeneracies", time.perf_counter() - t0, 60.0)


# ---------------------------------------------------------------------------
# 5. Fold integrity on a 7-month synthetic table.


def test_acceptance_5_fold_integrity(small_stops):
    records, _ = parse_stops_csv(small_stops)
    trips, _ = assemble_trips(records)
    table = build_table(trips, TargetKind.DURATION)
    assert str(table.start_times[-1].astype("datetime64[D]")) == "2019-09-30"

    t0 = time.perf_counter()
    folds_by_scenario = {sid: make_folds(table, ScenarioSpec.for_id(sid)) for sid in range(5)}
    elapsed = time.perf_counter() - t0

    assert len(folds_by_scenario[0]) == 1
    assert len(folds_by_scenario[1]) == 3
    assert len(folds_by_scenario[4]) == 92  # one per day, July..September 2019

    test_start = folds_by_scenario[0][0].test_range[0]
    end_exclusive = table.start_times[-1] + timedelta(seconds=1)
    times = table.start_times
    for sid, folds in folds_by_scenario.items():
        assert folds[0].test_range[0] == test_start
        assert folds[-1].test_range[1] == end_exclusive
        for a, b in zip(folds, folds[1:]):
            assert a.test_range[1] == b.test_range[0], f"scenario {sid}: gap between folds"
        for fold in folds:
            assert fold.train_range[1] == fold.test_range[0]
            train_times = [t for t in times if fold.train_range[0] <= t < fold.train_range[1]]
            test_times = [t for t in times if fold.test_range[0] <= t < fold.test_range[1]]
            if train_times and test_times:
                assert max(train_times) < min(test_times), f"scenario {sid}: leakage"
    _report(5, "fold integrity", elapsed, 10.0)


# ---------------------------------------------------------------------------
# 6. Generator calibration against the reference statistics.

TABLE_MEANS = {
    "trips_per_day_mean": 811.0,
    "trips_per_month_mean": 24233.0,
    "stops_per_trip_mean": 6.0,
    "cities_per_trip_mean": 5.0,
    "duration_mean": 4.55,
    "delay_mean": 0.71,
}

DAYTYPE_MEANS = {"Weekday": 1084.57, "Saturday": 198.23, "Sunday": 48.88}


def test_acceptance_6_generator_calibration(default_trips):
    trips, gen_elapsed = default_trips
    t0 = time.perf_counter()
    assert len(trips) >= 100_000
    stats = summarize(trips)
    for attr, target in TABLE_MEANS.items():
        value = getattr(stats, attr)
        assert abs(value - target) <= 0.10 * target, f"{attr}: {value} vs {target}"
    for day_type, target in DAYTYPE_MEANS.items():
        value = stats.trips_per_daytype[day_type][0]
        assert abs(value - target) <= 0.10 * target, f"{day_type}: {value} vs {target}"
    _report(6, "generator calibration", gen_elapsed + time.perf_counter() - t0, 120.0)


# ---------------------------------------------------------------------------
# 7. Qualitative scaling reproduction (histogram vs exact boosting).


def test_acceptance_7_scaling_reproduction(default_trips):
    trips, _ = default_trips
    table = build_table(trips, TargetKind.DURATION)
    assert len(table) >= max(DEFAULT_SCALE_SIZES)

    # Equal tree count and depth for both contenders (30 trees, depth 6).
    def factory(mode):
        def build(rep: int):
            return make_model(
                "gb" if mode == "exact" else "hgb", seed=100 + rep, n_estimators=30, max_depth=6
            )

        return build

    t0 = time.perf_counter()
    results = run_scale_bench(
        table, DEFAULT_SCALE_SIZES, {"gb": factory("exact"), "hgb": factory("hist")}, repeats=3
    )
    elapsed = time.perf_counter() - t0

    t_of = {(r.model, r.n_samples): r.fit_time for r in results}
    hist_ratio = t_of[("hgb", 150_000)] / t_of[("hgb", 10_000)]
    exact_ratio = t_of[("gb", 150_000)] / t_of[("gb", 10_000)]
    print(
        f"\n  scaling: exact t(10k)={t_of[('gb', 10_000)]:.2f}s t(150k)={t_of[('gb', 150_000)]:.2f}s "
        f"ratio={exact_ratio:.2f}, hist t(10k)={t_of[('hgb', 10_000)]:.2f}s "
        f"t(150k)={t_of[('hgb', 150_000)]:.2f}s ratio={hist_ratio:.2f}"
    )
    assert t_of[("hgb", 150_000)] < t_of[("gb", 150_000)], "hist not faster than exact at 150k"
    assert hist_ratio < exact_ratio, f"hist ratio {hist_ratio:.2f} !< exact ratio {exact_ratio:.2f}"
    _report(7, "scaling reproduction", elapsed, 900.0)


# ---------------------------------------------------------------------------
# 8. Determinism of runs and persistence.


def test_acceptance_8_determinism(small_stops, tmp_path):
    t0 = time.perf_counter()

    def run_once(out_dir):
        code = main(
            ["run", str(small_stops), "--scenario", "1", "--target", "duration",
             "--models", "hgb,dt", "--seed", "31", "--n-estimators", "10",
             "--out", str(out_dir)]
        )
        assert code == 0
        with (out_dir / "results.csv").open(newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        return ["\x1f".join(row[:8]) for row in rows]  # drop the fit_time column

    assert run_once(tmp_path / "a") == run_once(tmp_path / "b")

    records, _ = parse_stops_csv(small_stops)
    trips, _ = assemble_trips(records)
    table = build_table(trips, TargetKind.DELAY)
    model = make_model("hgb", seed=77, n_estimators=10)
    model.fit(table.X, table.y)
    before = model.predict(table.X)
    path = tmp_path / "model.json"
    save_model(model, path)
    assert np.array_equal(load_model(path).predict(table.X), before)
    _report(8, "determinism", time.perf_counter() - t0, 300.0)


# ---------------------------------------------------------------------------
# 9. End-to-end smoke: synth -> run with the full model roster.


def test_acceptance_9_end_to_end_smoke(small_stops, tmp_path):
    t0 = time.perf_counter()
    out_dir = tmp_path / "smoke"
    code = main(
        ["run", str(small_stops), "--scenario", "3", "--target", "delay",
         "--models", "hgb,gb,rf,dt,lr", "--seed", "13", "--n-estimators", "30",
         "--out", str(out_dir)]
    )
    assert code == 0
    with (out_dir / "results.csv").open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    by_model: dict[str, dict[int, float]] = {}
    for row in rows:
        model, fold, fold_mae, fold_rmse = row[1], int(row[3]), float(row[6]), float(row[7])
        assert math.isfinite(fold_mae) and fold_mae > 0.0
        assert math.isfinite(fold_rmse) and fold_rmse > 0.0
        by_model.setdefault(model, {})[fold] = fold_mae
    assert set(by_model) == {"hgb", "gb", "rf", "dt", "lr"}

    records, _ = parse_stops_csv(small_stops)
    trips, _ = assemble_trips(records)
    table = build_table(trips, TargetKind.DELAY)

    # hgb's MAE stays below the unconditional spread of the delay target
    delay_std = float(np.std(table.y, ddof=1))
    hgb_mean_mae = float(np.mean(list(by_model["hgb"].values())))
    assert hgb_mean_mae < delay_std, f"hgb mae {hgb_mean_mae:.0f} !< delay std {delay_std:.0f}"

    # ... and beats the training-mean predictor on at least 4/5 of the folds
    baseline = run_scenario(table, ScenarioSpec.for_id(3), "mean", lambda fold: MeanModel())
    base_mae = {r.fold: r.mae for r in baseline.results}
    shared = sorted(set(base_mae) & set(by_model["hgb"]))
    wins = sum(1 for fold in shared if by_model["hgb"][fold] < base_mae[fold])
    assert wins >= math.ceil(0.8 * len(shared)), f"hgb beat the mean on only {wins}/{len(shared)} folds"
    _report(9, "end-to-end smoke", time.perf_counter() - t0, 600.0)
