"""Ensembles: identity degeneracies, boosting recursion, AdaBoost.R2 behaviour."""

import time

import numpy as np
import pytest

from tripcast.ensembles import (
    EnsembleConfig,
    fit_adaboost_r2,
    fit_bagging,
    fit_gbm,
    fit_random_forest,
    predict_ensemble_batch,
    weighted_median,
)
from tripcast.errors import DataError
from tripcast.persist import dumps_model
from tripcast.trees import TreeConfig, fit_tree_exact, predict_tree_batch

from tests.helpers import small_model, training_mse, tree_arrays


def _regression_data(seed, n=300, k=5, noise=1.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, k))
    y = X[:, 0] * 2.0 + np.sin(2.0 * X[:, 1]) + (X[:, 2] > 0) * 1.5 + rng.normal(size=n) * noise
    return X, y


def test_bagging_single_tree_identity():
    X, y = _regression_data(0)
    cfg = EnsembleConfig(n_estimators=1, bootstrap=False, tree=TreeConfig(max_depth=4), seed=3)
    bag = fit_bagging(X, y, cfg)
    tree = fit_tree_exact(X, y, cfg=TreeConfig(max_depth=4))
    Xq = np.random.default_rng(1).normal(size=(60, 5))
    assert np.array_equal(bag.predict(Xq), predict_tree_batch(tree, Xq))


def test_constant_target_all_kinds():
    X = np.random.default_rng(0).normal(size=(40, 3))
    y = np.full(40, 3.25)
    Xq = np.random.default_rng(1).normal(size=(10, 3))
    for model in (
        fit_bagging(X, y, EnsembleConfig(n_estimators=3, seed=1)),
        fit_random_forest(X, y, EnsembleConfig(n_estimators=3, seed=1)),
        fit_gbm(X, y, EnsembleConfig(n_estimators=3, seed=1), mode="exact"),
        fit_gbm(X, y, EnsembleConfig(n_estimators=3, seed=1), mode="hist"),
        fit_adaboost_r2(X, y, EnsembleConfig(n_estimators=3, seed=1)),
    ):
        assert np.allclose(model.predict(Xq), 3.25)


def test_gbm_constant_target_zero_stage_trees():
    X = np.random.default_rng(0).normal(size=(30, 2))
    model = fit_gbm(X, np.full(30, 5.0), EnsembleConfig(n_estimators=4, seed=0))
    assert model.base_prediction == 5.0
    for tree, _ in model.members:
        assert tree_arrays(tree) == [[-1], [0.0], [0], [0], [0.0]]


def test_random_forest_full_subsample_equals_bagging():
    X, y = _regression_data(7)
    b = fit_bagging(X, y, EnsembleConfig(n_estimators=6, seed=11, tree=TreeConfig(max_depth=5)))
    f = fit_random_forest(
        X, y, EnsembleConfig(n_estimators=6, seed=11, tree=TreeConfig(max_depth=5), feature_subsample=1.0)
    )
    Xq = np.random.default_rng(2).normal(size=(50, 5))
    assert np.array_equal(b.predict(Xq), f.predict(Xq))


def test_bagging_beats_single_tree_in_paired_runs():
    # 500 rows, 50 trees, same depth-limited TreeConfig: the ensemble's
    # training MSE should win in at least 19 of 20 seeded repetitions.
    wins = 0
    for seed in range(20):
        X, y = _regression_data(1000 + seed, n=500, k=6)
        tc = TreeConfig(max_depth=5)
        bag = fit_bagging(X, y, EnsembleConfig(n_estimators=50, tree=tc, seed=seed))
        tree = fit_tree_exact(X, y, cfg=tc)
        wins += float(np.mean((y - bag.predict(X)) ** 2)) <= training_mse(tree, X, y)
    assert wins >= 19


def test_gbm_two_stage_hand_recursion():
    X = np.array([[0.0], [1.0]])
    y = np.array([0.0, 10.0])
    model = fit_gbm(X, y, EnsembleConfig(n_estimators=2, learning_rate=0.5, tree=TreeConfig(max_depth=1)))
    assert model.base_prediction == 5.0
    # stage 1 leaves -5/+5 -> F1 = [2.5, 7.5]; stage 2 residuals -+2.5 -> F2 = [1.25, 8.75]
    assert np.allclose(model.predict(X), [1.25, 8.75])
    assert predict_ensemble_batch(model, np.array([[0.0]])).tolist() == [1.25]


def test_gbm_one_stage_perfect_fit():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(50, 2))  # continuous features: all rows distinct
    y = rng.normal(size=50)
    model = fit_gbm(
        X, y, EnsembleConfig(n_estimators=1, learning_rate=1.0, tree=TreeConfig(max_depth=None))
    )
    assert model.train_mse[0] == pytest.approx(0.0, abs=1e-18)


@pytest.mark.parametrize("nu", [0.1, 1.0, 2.0])
@pytest.mark.parametrize("mode", ["exact", "hist"])
def test_gbm_training_mse_monotone(nu, mode):
    X, y = _regression_data(21)
    model = fit_gbm(X, y, EnsembleConfig(n_estimators=30, learning_rate=nu, seed=2), mode=mode)
    mse = np.array(model.train_mse)
    assert np.all(mse[1:] <= mse[:-1] * (1 + 1e-12))


def test_gbm_hist_equals_exact_on_integer_grid():
    rng = np.random.default_rng(8)
    X = rng.integers(0, 15, size=(250, 4)).astype(float)
    y = rng.integers(-50, 50, size=250).astype(float)
    cfg = EnsembleConfig(n_estimators=12, seed=5)
    exact = fit_gbm(X, y, cfg, mode="exact")
    hist = fit_gbm(X, y, cfg, mode="hist")
    Xq = rng.normal(scale=8.0, size=(120, 4))
    assert np.array_equal(exact.predict(Xq), hist.predict(Xq))


def test_gbm_learning_rate_bounds():
    X, y = _regression_data(1, n=40)
    with pytest.raises(DataError):
        fit_gbm(X, y, EnsembleConfig(learning_rate=0.0))
    with pytest.raises(DataError):
        fit_gbm(X, y, EnsembleConfig(learning_rate=2.5))


def test_adaboost_perfect_first_learner_short_circuits():
    X = np.array([[0.0], [1.0]])
    y = np.array([2.0, 8.0])
    model = fit_adaboost_r2(X, y, EnsembleConfig(n_estimators=25, seed=1))
    assert len(model.members) == 1
    assert np.allclose(model.predict(X), y)


def test_adaboost_weighted_median_matches_bruteforce():
    X, y = _regression_data(31, n=200, k=4, noise=0.5)
    model = fit_adaboost_r2(X, y, EnsembleConfig(n_estimators=12, seed=9))
    assert len(model.members) > 1
    Xq = np.random.default_rng(4).normal(size=(40, 4))
    got = model.predict(Xq)
    member_preds = np.stack([predict_tree_batch(t, Xq) for t, _ in model.members], axis=1)
    weights = np.array([w for _, w in model.members])
    for i in range(Xq.shape[0]):
        order = np.argsort(member_preds[i], kind="stable")
        cum = np.cumsum(weights[order])
        j = int(np.argmax(cum >= 0.5 * cum[-1]))
        assert got[i] == member_preds[i][order[j]]


@pytest.mark.parametrize("loss", ["linear", "square", "exponential"])
def test_adaboost_loss_variants_fit(loss):
    X, y = _regression_data(5, n=120, k=3)
    model = fit_adaboost_r2(X, y, EnsembleConfig(n_estimators=6, seed=2, loss=loss))
    assert len(model.members) >= 1
    assert all(w > 0 for _, w in model.members)


def test_adaboost_unknown_loss():
    X, y = _regression_data(5, n=20, k=3)
    with pytest.raises(DataError):
        fit_adaboost_r2(X, y, EnsembleConfig(loss="huber"))


def test_prediction_range_bounded_for_averaging_ensembles():
    X, y = _regression_data(41, n=250, k=4)
    Xq = np.random.default_rng(6).normal(scale=4.0, size=(200, 4))
    for fit in (fit_bagging, fit_random_forest):
        model = fit(X, y, EnsembleConfig(n_estimators=10, seed=3))
        pred = model.predict(Xq)
        assert np.all(pred >= y.min()) and np.all(pred <= y.max())


def test_seed_determinism_identical_serialized_models():
    X, y = _regression_data(50, n=150, k=4)
    for fit, kw in (
        (fit_bagging, {}),
        (fit_random_forest, {}),
        (lambda a, b, c: fit_gbm(a, b, c, mode="hist"), {}),
        (fit_adaboost_r2, {}),
    ):
        cfg = EnsembleConfig(n_estimators=5, seed=12345)
        m1, m2 = fit(X, y, cfg), fit(X, y, cfg)
        assert dumps_model(m1) == dumps_model(m2)


def test_ensemble_permutation_invariance():
    X, y = _regression_data(60, n=180, k=4)
    rng = np.random.default_rng(0)
    p = rng.permutation(180)
    cfg = EnsembleConfig(n_estimators=4, seed=8)
    Xq = rng.normal(size=(30, 4))
    for fit in (
        fit_bagging,
        fit_random_forest,
        lambda a, b, c: fit_gbm(a, b, c, mode="exact"),
        lambda a, b, c: fit_gbm(a, b, c, mode="hist"),
        fit_adaboost_r2,
    ):
        assert np.array_equal(fit(X, y, cfg).predict(Xq), fit(X[p], y[p], cfg).predict(Xq))


def test_predict_errors():
    X, y = _regression_data(2, n=50, k=3)
    model = fit_bagging(X, y, EnsembleConfig(n_estimators=2, seed=0))
    with pytest.raises(DataError, match="features"):
        predict_ensemble_batch(model, np.zeros((5, 2)))
    with pytest.raises(DataError):
        fit_bagging(np.zeros((0, 3)), np.zeros(0), EnsembleConfig())


def test_weighted_median_simple_cases():
    preds = np.array([[1.0, 2.0, 100.0]])
    assert weighted_median(preds, np.array([1.0, 1.0, 1.0]))[0] == 2.0
    assert weighted_median(preds, np.array([5.0, 1.0, 1.0]))[0] == 1.0
    assert weighted_median(preds, np.array([1.0, 1.0, 5.0]))[0] == 100.0


@pytest.mark.parametrize("abbrev", ["lr", "ri", "la", "dt", "br", "rf", "gb", "hgb", "ab"])
@pytest.mark.parametrize("where, bad", [("X", np.nan), ("X", np.inf), ("y", np.nan)])
def test_non_finite_training_data_rejected(abbrev, where, bad):
    X, y = _regression_data(3, n=200, k=4)
    if where == "X":
        X[17, 1] = bad
    else:
        y[17] = bad
    model = small_model(abbrev, 0, n_estimators=3)
    t0 = time.perf_counter()
    with pytest.raises(DataError, match="NaN or infinite"):
        model.fit(X, y)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("abbrev", ["lr", "ri", "la", "dt", "br", "rf", "gb", "ab", "hgb"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_rejected(abbrev, bad):
    X, y = _regression_data(4, n=200, k=9)
    X[:, 5] = np.arange(200) % 7  # the day-type column linear models one-hot expand
    model = small_model(abbrev, 0, n_estimators=3).fit(X, y)
    query = X[:5].copy()
    query[2, 3] = bad
    with pytest.raises(DataError, match="NaN or infinite"):
        model.predict(query)
    assert np.all(np.isfinite(model.predict(X[:5])))


@pytest.mark.parametrize("abbrev", ["lr", "ri", "la", "dt", "br", "rf", "gb", "ab", "hgb"])
def test_target_too_large_rejected(abbrev):
    # |y| reaches about 3e153: 200 rows of it would overflow a squared target sum.
    rng = np.random.default_rng(6)
    X = rng.normal(size=(200, 9))
    X[:, 5] = np.arange(200) % 7
    y = 1000.0 * rng.normal(size=200) * 1e150
    with pytest.raises(DataError, match="target too large"):
        small_model(abbrev, 0, n_estimators=3).fit(X, y)


@pytest.mark.parametrize("abbrev", ["dt", "br", "rf", "gb", "ab", "hgb"])
def test_tree_models_scale_exactly_with_a_power_of_two_target(abbrev):
    X, y = _regression_data(7, n=200, k=4)
    y = 1000.0 * y
    scale = 2.0**400
    plain = small_model(abbrev, 0, n_estimators=5).fit(X, y).predict(X)
    scaled = small_model(abbrev, 0, n_estimators=5).fit(X, y * scale).predict(X)
    assert np.array_equal(scaled, plain * scale)


@pytest.mark.parametrize(
    "fit, field, value",
    [
        (fit_bagging, "learning_rate", 0.5),
        (fit_bagging, "loss", "square"),
        (fit_random_forest, "learning_rate", 0.5),
        (fit_random_forest, "loss", "square"),
        (fit_gbm, "loss", "square"),
        (fit_gbm, "bootstrap", False),
        (fit_gbm, "feature_subsample", 0.5),
        (fit_adaboost_r2, "learning_rate", 0.5),
        (fit_adaboost_r2, "bootstrap", False),
        (fit_adaboost_r2, "feature_subsample", 0.5),
    ],
)
def test_config_field_a_kind_does_not_read_is_rejected(fit, field, value):
    X, y = _regression_data(8, n=40)
    with pytest.raises(DataError, match=f"does not read {field}"):
        fit(X, y, EnsembleConfig(n_estimators=2, **{field: value}))
