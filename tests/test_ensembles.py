"""Ensembles: identity degeneracies, boosting recursion, AdaBoost.R2 behaviour."""

import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripcast import linear
from tripcast.checks import TARGET_SUM_LIMIT
from tripcast.ensembles import (
    SETTINGS,
    fit_adaboost_r2,
    fit_bagging,
    fit_gbm,
    fit_random_forest,
    predict_ensemble_batch,
    weighted_median,
)
from tripcast.errors import DataError
from tripcast.persist import dumps_model
from tripcast.registry import REGISTRY, make_model
from tripcast.trees import BinnedColumns, Tree, canonical_rows, fit_tree_exact, fit_tree_hist, predict_tree_batch

from tests.helpers import reference_tree, small_model, training_mse, tree_arrays


def _regression_data(seed, n=300, k=5, noise=1.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, k))
    y = X[:, 0] * 2.0 + np.sin(2.0 * X[:, 1]) + (X[:, 2] > 0) * 1.5 + rng.normal(size=n) * noise
    return X, y


def test_bagging_single_tree_identity():
    X, y = _regression_data(0)
    bag = fit_bagging(X, y, n_estimators=1, bootstrap=False, max_depth=4, seed=3)
    tree = fit_tree_exact(X, y, max_depth=4)
    Xq = np.random.default_rng(1).normal(size=(60, 5))
    assert np.array_equal(bag.predict(Xq), predict_tree_batch(tree, Xq))


def test_constant_target_all_kinds():
    X = np.random.default_rng(0).normal(size=(40, 3))
    y = np.full(40, 3.25)
    Xq = np.random.default_rng(1).normal(size=(10, 3))
    for model in (
        fit_bagging(X, y, n_estimators=3, seed=1),
        fit_random_forest(X, y, n_estimators=3, seed=1),
        fit_gbm(X, y, mode="exact", n_estimators=3),
        fit_gbm(X, y, mode="hist", n_estimators=3),
        fit_adaboost_r2(X, y, n_estimators=3, seed=1),
    ):
        assert np.allclose(model.predict(Xq), 3.25)


def test_gbm_constant_target_zero_stage_trees():
    X = np.random.default_rng(0).normal(size=(30, 2))
    model = fit_gbm(X, np.full(30, 5.0), n_estimators=4)
    assert model.base_prediction == 5.0
    for tree, _ in model.members:
        assert tree_arrays(tree) == [[-1], [0.0], [0], [0.0]]


def test_random_forest_full_subsample_equals_bagging():
    X, y = _regression_data(7)
    b = fit_bagging(X, y, n_estimators=6, seed=11, max_depth=5)
    f = fit_random_forest(X, y, n_estimators=6, seed=11, max_depth=5, feature_subsample=1.0)
    Xq = np.random.default_rng(2).normal(size=(50, 5))
    assert np.array_equal(b.predict(Xq), f.predict(Xq))


def test_bagging_beats_single_tree_in_paired_runs():
    # 500 rows, 50 trees, the same depth limit: the ensemble's
    # training MSE should win in at least 19 of 20 seeded repetitions.
    wins = 0
    for seed in range(20):
        X, y = _regression_data(1000 + seed, n=500, k=6)
        bag = fit_bagging(X, y, n_estimators=50, max_depth=5, seed=seed)
        tree = fit_tree_exact(X, y, max_depth=5)
        wins += float(np.mean((y - bag.predict(X)) ** 2)) <= training_mse(tree, X, y)
    assert wins >= 19


def test_gbm_two_stage_hand_recursion():
    X = np.array([[0.0], [1.0]])
    y = np.array([0.0, 10.0])
    model = fit_gbm(X, y, n_estimators=2, learning_rate=0.5, max_depth=1)
    assert model.base_prediction == 5.0
    # stage 1 leaves -5/+5 -> F1 = [2.5, 7.5]; stage 2 residuals -+2.5 -> F2 = [1.25, 8.75]
    assert np.allclose(model.predict(X), [1.25, 8.75])
    assert predict_ensemble_batch(model, np.array([[0.0]])).tolist() == [1.25]


def test_gbm_one_stage_perfect_fit():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(50, 2))  # continuous features: all rows distinct
    y = rng.normal(size=50)
    model = fit_gbm(X, y, n_estimators=1, learning_rate=1.0, max_depth=None)
    assert model.train_mse[0] == pytest.approx(0.0, abs=1e-18)


@pytest.mark.parametrize("nu", [0.1, 1.0, 2.0])
@pytest.mark.parametrize("mode", ["exact", "hist"])
def test_gbm_training_mse_monotone(nu, mode):
    X, y = _regression_data(21)
    model = fit_gbm(X, y, mode=mode, n_estimators=30, learning_rate=nu)
    mse = np.array(model.train_mse)
    assert np.all(mse[1:] <= mse[:-1] * (1 + 1e-12))


_DUPLICATED_ROWS = dict(
    data=st.lists(
        st.tuples(
            st.lists(st.integers(min_value=0, max_value=4), min_size=6, max_size=6), st.floats(-1e3, 1e3)
        ),
        min_size=1,
        max_size=60,
    ),
    n_features=st.integers(min_value=1, max_value=6),
    copies=st.integers(min_value=1, max_value=3),
)


def _duplicated_rows(data, n_features, copies):
    X = np.tile([x[:n_features] for x, _ in data], (copies, 1)) * 0.5
    return X, np.tile([t for _, t in data], copies)


@settings(max_examples=40, deadline=None)
@given(
    **_DUPLICATED_ROWS,
    depth=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
    mode=st.sampled_from(["exact", "hist"]),
    n_stages=st.integers(min_value=2, max_value=4),
    nu=st.sampled_from([0.5, 1.0]),
)
def test_property_gbm_every_stage_equals_per_node_reference(data, n_features, copies, depth, mode, n_stages, nu):
    # Float targets, duplicated rows and any depth: each boosting stage's node
    # scan must add the same numbers in the same order as a node-by-node scan
    # of that stage's residuals, so state a fit keeps across stages (the
    # exact scan's row mask) must be as it was before stage 1.
    X, y = _duplicated_rows(data, n_features, copies)
    model = fit_gbm(X, y, mode=mode, n_estimators=n_stages, learning_rate=nu, max_depth=depth)
    bins = BinnedColumns(canonical_rows(X, y)[0]) if mode == "hist" else None
    current = np.full(y.size, model.base_prediction)
    for tree, weight in model.members:
        assert tree_arrays(tree) == reference_tree(X, y - current, depth, bins)
        current = current + weight * predict_tree_batch(tree, X)


@settings(max_examples=40, deadline=5000)
@given(
    **_DUPLICATED_ROWS,
    depth=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    mode=st.sampled_from(["exact", "hist"]),
    nu=st.sampled_from([0.1, 0.5, 1.0, 2.0]),
)
def test_property_gbm_training_mse_never_rises(data, n_features, copies, depth, mode, nu):
    # Each stage adds leaf means of the residuals scaled by nu in (0, 2], which
    # cannot raise the training MSE in exact arithmetic. Rounding moves each
    # residual by a few ulps of the largest target, and the MSE by the
    # matching first- and second-order terms.
    X, y = _duplicated_rows(data, n_features, copies)
    mse = np.array(fit_gbm(X, y, mode=mode, n_estimators=6, learning_rate=nu, max_depth=depth).train_mse)
    slack = 8 * np.finfo(float).eps * np.abs(y).max()
    assert np.all(mse[1:] <= mse[:-1] * (1 + 1e-12) + 2 * np.sqrt(mse[:-1]) * slack + slack**2)


def _nodes_reached(tree, X):
    """Which nodes of ``tree`` some row of ``X`` passes through, walking one row at a time."""
    reached = np.zeros(tree.feature.size, dtype=bool)
    for x in X:
        node = 0
        reached[node] = True
        while tree.feature[node] >= 0:
            node = tree.left[node] + (x[tree.feature[node]] > tree.threshold[node])
            reached[node] = True
    return reached


@pytest.mark.parametrize("abbrev", ["br", "rf", "ab", "gb", "hgb"])
@settings(max_examples=25, deadline=5000)
@given(**_DUPLICATED_ROWS, n_estimators=st.integers(min_value=1, max_value=4), seed=st.integers(0, 2**32 - 1))
def test_property_no_split_leaves_a_child_empty(abbrev, data, n_features, copies, n_estimators, seed):
    # A member's rows (a bootstrap resample holds only training rows) reach
    # every node of it, so the whole training set does too.
    X, y = _duplicated_rows(data, n_features, copies)
    model = make_model(abbrev, seed, n_estimators=n_estimators).fit(X, y).model
    for tree, _ in model.members:
        assert _nodes_reached(tree, X).all()


@pytest.mark.parametrize("abbrev", ["dt", "br", "rf", "gb", "ab", "hgb"])
@settings(max_examples=25, deadline=5000)
@given(
    **_DUPLICATED_ROWS,
    max_depth=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_fitted_trees_are_in_level_order(abbrev, data, n_features, copies, max_depth, seed):
    # Both growers number nodes level by level: the k-th internal node's
    # children are nodes 2k + 1 and 2k + 2, after it, and node depths never
    # fall in node order. Each tree survives its persisted form.
    X, y = _duplicated_rows(data, n_features, copies)
    given = {"n_estimators": 2, "max_depth": max_depth}
    model = make_model(abbrev, seed, **{k: v for k, v in given.items() if k in REGISTRY[abbrev].settings}).fit(X, y)
    for tree, _ in model.model.members:
        internal = np.flatnonzero(tree.feature >= 0)
        children = 2 * np.arange(internal.size) + 1
        assert tree.feature.size == 2 * internal.size + 1
        assert np.all(children > internal)
        assert np.array_equal(tree.left[internal], children)
        leaves = np.flatnonzero(tree.feature < 0)
        assert np.array_equal(tree.left[leaves], leaves)
        depth = np.zeros(tree.feature.size, dtype=np.intp)
        for parent, child in zip(internal, children):
            depth[[child, child + 1]] = depth[parent] + 1
        assert np.all(np.diff(depth) >= 0) and depth.max() == tree.depth
        again = Tree.from_dict(json.loads(json.dumps(tree.to_dict())), tree.n_features)
        assert tree_arrays(again) == tree_arrays(tree) and again.depth == tree.depth


def test_gbm_hist_equals_exact_on_integer_grid():
    rng = np.random.default_rng(8)
    X = rng.integers(0, 15, size=(250, 4)).astype(float)
    y = rng.integers(-50, 50, size=250).astype(float)
    exact = fit_gbm(X, y, mode="exact", n_estimators=12)
    hist = fit_gbm(X, y, mode="hist", n_estimators=12)
    Xq = rng.normal(scale=8.0, size=(120, 4))
    assert np.array_equal(exact.predict(Xq), hist.predict(Xq))


def test_gbm_learning_rate_bounds():
    X, y = _regression_data(1, n=40)
    with pytest.raises(DataError):
        fit_gbm(X, y, learning_rate=0.0)
    with pytest.raises(DataError):
        fit_gbm(X, y, learning_rate=2.5)


def test_adaboost_perfect_first_learner_short_circuits():
    X = np.array([[0.0], [1.0]])
    y = np.array([2.0, 8.0])
    model = fit_adaboost_r2(X, y, n_estimators=25, seed=1)
    assert len(model.members) == 1
    assert np.allclose(model.predict(X), y)


def test_adaboost_weighted_median_matches_bruteforce():
    X, y = _regression_data(31, n=200, k=4, noise=0.5)
    model = fit_adaboost_r2(X, y, n_estimators=12, seed=9)
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


def test_adaboost_member_weights_follow_the_linear_loss():
    # Each stage's loss is its absolute error over the largest one on the
    # training rows; the stage weighs ln(1/beta) and reweights rows by beta^(1 - loss).
    X, y = _regression_data(5, n=120, k=3)
    model = fit_adaboost_r2(X, y, n_estimators=6, seed=2)
    assert len(model.members) == 6
    Xc, yc = canonical_rows(X, y)
    sample_weight = np.full(yc.size, 1.0 / yc.size)
    for tree, weight in model.members:
        error = np.abs(predict_tree_batch(tree, Xc) - yc)
        loss = error / error.max()
        avg_loss = float(np.sum(sample_weight * loss))
        beta = avg_loss / (1.0 - avg_loss)
        assert weight == math.log(1.0 / beta) > 0
        sample_weight = sample_weight * np.power(beta, 1.0 - loss)
        sample_weight = sample_weight / np.sum(sample_weight)


def test_adaboost_unknown_loss():
    # AdaBoost.R2 has the linear loss only, so it takes no loss to set.
    X, y = _regression_data(5, n=40, k=3)
    with pytest.raises(DataError, match="adaboost_r2 does not take loss"):
        fit_adaboost_r2(X, y, loss="huber")


@pytest.mark.parametrize("abbrev", ["dt", "br", "rf", "gb", "hgb", "ab"])
def test_prediction_does_not_depend_on_query_memory_layout(abbrev):
    X, y = _regression_data(8, n=200, k=4)
    model = small_model(abbrev, 3, 6).fit(X, y)
    wide = np.random.default_rng(2).normal(size=(151, 6))
    Q = np.ascontiguousarray(wide[:, 1:5])
    want = model.predict(Q).tobytes()
    assert model.predict(np.asfortranarray(Q)).tobytes() == want
    assert model.predict(wide[:, 1:5]).tobytes() == want  # a column slice: rows strided by 6
    half = model.predict(np.ascontiguousarray(Q[::2])).tobytes()
    assert model.predict(Q[::2]).tobytes() == half
    assert model.predict(wide[::2, 1:5]).tobytes() == half


def test_prediction_range_bounded_for_averaging_ensembles():
    X, y = _regression_data(41, n=250, k=4)
    Xq = np.random.default_rng(6).normal(scale=4.0, size=(200, 4))
    for fit in (fit_bagging, fit_random_forest):
        model = fit(X, y, n_estimators=10, seed=3)
        pred = model.predict(Xq)
        assert np.all(pred >= y.min()) and np.all(pred <= y.max())


def test_seed_determinism_identical_serialized_models():
    X, y = _regression_data(50, n=150, k=4)
    for fit, kw in (
        (fit_bagging, {"seed": 12345}),
        (fit_random_forest, {"seed": 12345}),
        (fit_gbm, {"mode": "hist"}),
        (fit_adaboost_r2, {"seed": 12345}),
    ):
        m1, m2 = fit(X, y, n_estimators=5, **kw), fit(X, y, n_estimators=5, **kw)
        assert dumps_model(m1) == dumps_model(m2)


def test_ensemble_permutation_invariance():
    X, y = _regression_data(60, n=180, k=4)
    rng = np.random.default_rng(0)
    p = rng.permutation(180)
    Xq = rng.normal(size=(30, 4))
    for fit, kw in (
        (fit_bagging, {"seed": 8}),
        (fit_random_forest, {"seed": 8}),
        (fit_gbm, {"mode": "exact"}),
        (fit_gbm, {"mode": "hist"}),
        (fit_adaboost_r2, {"seed": 8}),
    ):
        assert np.array_equal(
            fit(X, y, n_estimators=4, **kw).predict(Xq), fit(X[p], y[p], n_estimators=4, **kw).predict(Xq)
        )


def test_subsampled_forest_deterministic_and_row_order_invariant():
    X, y = _regression_data(61, n=150, k=6)
    X, y = np.vstack([X, X[:40]]), np.concatenate([y, y[:40]])  # duplicated rows
    p = np.random.default_rng(1).permutation(len(y))
    cfg = dict(n_estimators=3, seed=21, feature_subsample=0.5)
    model = fit_random_forest(X, y, **cfg)
    assert dumps_model(model) == dumps_model(fit_random_forest(X, y, **cfg))
    assert dumps_model(model) == dumps_model(fit_random_forest(X[p], y[p], **cfg))
    assert dumps_model(model) != dumps_model(fit_random_forest(X, y, **{**cfg, "seed": 22}))


def test_predict_errors():
    X, y = _regression_data(2, n=50, k=3)
    model = fit_bagging(X, y, n_estimators=2, seed=0)
    with pytest.raises(DataError, match="features"):
        predict_ensemble_batch(model, np.zeros((5, 2)))
    with pytest.raises(DataError):
        fit_bagging(np.zeros((0, 3)), np.zeros(0))


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
@settings(max_examples=30, deadline=2000)
@given(
    n=st.integers(2, 60),
    at=st.floats(0.0, 1.0, exclude_max=True),
    bad=st.sampled_from(["nan", "inf", "-inf", "over limit"]),
    excess=st.floats(1.0, 1e100),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_target_too_large_rejected(abbrev, n, at, bad, excess, sign):
    # One bad target among ordinary ones: NaN, an infinity, or a finite value
    # whose rows x max|y| reaches TARGET_SUM_LIMIT, so squared sums could overflow.
    rng = np.random.default_rng(6)
    X = rng.normal(size=(n, 9))
    X[:, 5] = np.arange(n) % 7
    y = rng.normal(size=n)
    big = sign * excess * (TARGET_SUM_LIMIT / n)
    if bad == "over limit" and n * abs(big) < TARGET_SUM_LIMIT:  # the division rounded down
        big = np.nextafter(big, sign * np.inf)
    y[int(at * n)] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "over limit": big}[bad]
    with pytest.raises(DataError, match="NaN or infinite" if bad != "over limit" else "target too large"):
        small_model(abbrev, 0, n_estimators=3).fit(X, y)


@pytest.mark.parametrize(
    "fit",
    [
        *(lambda X, y, abbrev=abbrev: small_model(abbrev, 0, n_estimators=3).fit(X, y)
          for abbrev in ["lr", "ri", "la", "dt", "br", "rf", "gb", "ab", "hgb"]),
        linear.fit_ols,
        linear.fit_ridge,
        linear.fit_lasso,
        linear.lasso_lambda_max,
        fit_tree_exact,
        fit_tree_hist,
    ],
    ids=["lr", "ri", "la", "dt", "br", "rf", "gb", "ab", "hgb",
         "fit_ols", "fit_ridge", "fit_lasso", "lasso_lambda_max", "fit_tree_exact", "fit_tree_hist"],
)
def test_matrix_without_columns_rejected(fit):
    # Unchecked, the trees and ensembles crashed on an empty unpack or max(),
    # the lasso on numpy's zero-size max, and OLS and ridge fit an intercept.
    with pytest.raises(DataError, match="no feature columns"):
        fit(np.zeros((10, 0)), np.arange(10.0))


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
        (fit_random_forest, "learning_rate", 0.5),
        (fit_gbm, "bootstrap", False),
        (fit_gbm, "feature_subsample", 0.5),
        (fit_adaboost_r2, "learning_rate", 0.5),
        (fit_adaboost_r2, "bootstrap", False),
        (fit_adaboost_r2, "feature_subsample", 0.5),
        (fit_bagging, "tree.seed", 99),
        (fit_random_forest, "tree.seed", 99),
        (fit_gbm, "tree.seed", 99),
        (fit_adaboost_r2, "tree.seed", 99),
        (fit_bagging, "tree.feature_subsample", 0.25),
        (fit_random_forest, "tree.feature_subsample", 0.25),
        (fit_gbm, "tree.feature_subsample", 0.25),
        # Refused even at another kind's default: gradient boosting draws nothing at
        # random, bagging never subsamples features and random forest always resamples.
        (fit_gbm, "seed", 0),
        (fit_bagging, "feature_subsample", 1.0),
        (fit_random_forest, "bootstrap", True),
    ],
)
def test_config_field_a_kind_does_not_read_is_rejected(fit, field, value):
    X, y = _regression_data(8, n=40)
    kind = {fit_bagging: "bagging", fit_random_forest: "random_forest", fit_gbm: "gbm_exact", fit_adaboost_r2: "adaboost_r2"}[fit]
    name, _, inner = field.partition(".")
    settings = {name: {inner: value}} if inner else {name: value}  # no kind takes a nested tree
    with pytest.raises(DataError, match=f"{kind} does not take {name}; it takes {', '.join(SETTINGS[kind])}"):
        fit(X, y, n_estimators=2, **settings)


@pytest.mark.parametrize(
    "fit, depth",
    [(fit_bagging, None), (fit_random_forest, None), (fit_gbm, 3), (fit_adaboost_r2, 3)],
)
def test_fitted_config_records_the_kinds_default_depth(fit, depth):
    # A fitted model records every setting its kind takes, with the kind's defaults filled in.
    X, y = _regression_data(9, n=60)
    model = fit(X, y, n_estimators=2)
    assert model.settings == {**SETTINGS[model.kind], "n_estimators": 2}
    assert model.settings["max_depth"] == depth
    assert fit(X, y, n_estimators=2, max_depth=2).settings["max_depth"] == 2
    with pytest.raises(DataError, match="max_depth"):
        fit(X, y, n_estimators=2, max_depth=0)
    # Only integers: 2.5 was fit and persisted, and True grew depth-1 trees (or one stage).
    for bad in (2.5, True):
        with pytest.raises(DataError, match="max_depth must be an integer"):
            fit(X, y, n_estimators=2, max_depth=bad)
        with pytest.raises(DataError, match="n_estimators must be an integer"):
            fit(X, y, n_estimators=bad)
    # Every other setting the kind takes is type-checked too: "x" raised a bare
    # TypeError, and bootstrap="no", seed=1.5 and a True rate or subsample were fit.
    for field, bad, message in [
        ("learning_rate", "x", "learning_rate must be a number"),
        ("learning_rate", True, "learning_rate must be a number"),
        ("learning_rate", math.inf, "learning_rate must be a number"),
        ("feature_subsample", "x", "feature_subsample must be a number"),
        ("feature_subsample", True, "feature_subsample must be a number"),
        ("bootstrap", "no", "bootstrap must be True or False"),
        ("bootstrap", 0, "bootstrap must be True or False"),
        ("seed", 1.5, "seed must be an integer"),
        ("seed", True, "seed must be an integer"),
    ]:
        if field in SETTINGS[model.kind]:
            with pytest.raises(DataError, match=message):
                fit(X, y, n_estimators=2, **{field: bad})
