"""Regression tree fitting: exact scan, histogram scan, and their equivalence."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripcast.ensembles import EnsembleConfig, fit_adaboost_r2, fit_bagging, fit_gbm, fit_random_forest
from tripcast import trees
from tripcast.errors import DataError
from tripcast.rng import derive_seed, substream
from tripcast.trees import (
    Tree,
    TreeConfig,
    build_bins,
    canonical_rows,
    fit_tree_exact,
    fit_tree_hist,
    n_candidate_features,
    predict_tree_batch,
)

from tests.helpers import reference_predict, time_limit, training_mse, tree_arrays


def test_two_point_split():
    tree = fit_tree_exact(np.array([[0.0], [1.0]]), np.array([0.0, 10.0]), cfg=TreeConfig(max_depth=1))
    assert tree_arrays(tree) == [[0, -1, -1], [0.5, 0.0, 0.0], [1, 1, 2], [2, 1, 2], [5.0, 0.0, 10.0]]
    assert tree.depth == 1
    assert training_mse(tree, np.array([[0.0], [1.0]]), np.array([0.0, 10.0])) == 0.0


def test_predict_tie_goes_left():
    tree = fit_tree_exact(np.array([[0.0], [1.0]]), np.array([0.0, 10.0]), cfg=TreeConfig(max_depth=1))
    got = predict_tree_batch(tree, np.array([[0.2], [0.5], [0.51]]))  # 0.5 is the threshold
    assert got.tolist() == [0.0, 0.0, 10.0]


def test_constant_target_single_leaf():
    X = np.array([[1.0], [5.0], [9.0]])
    tree = fit_tree_exact(X, np.full(3, 7.0))
    assert tree_arrays(tree) == [[-1], [0.0], [0], [0], [7.0]]
    assert tree.depth == 0
    assert predict_tree_batch(tree, np.array([[123.0]])).tolist() == [7.0]


def test_perfect_fit_three_rows():
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([1.0, 2.0, 3.0])
    tree = fit_tree_exact(X, y, cfg=TreeConfig(max_depth=None, min_samples_leaf=1))
    assert training_mse(tree, X, y) == 0.0


def test_min_samples_constraints_block_splits():
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([1.0, 2.0, 3.0])
    assert fit_tree_exact(X, y, cfg=TreeConfig(min_samples_leaf=2)).feature.tolist() == [-1]
    assert fit_tree_exact(X, y, cfg=TreeConfig(min_samples_split=4)).feature.tolist() == [-1]


def test_tie_break_lowest_feature_then_threshold():
    # identical columns: equal gain -> feature 0 must win
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    tree = fit_tree_exact(X, np.array([0.0, 10.0]), cfg=TreeConfig(max_depth=1))
    assert tree.feature[0] == 0
    # two equal-gain thresholds within one feature -> the lower one wins
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([0.0, 10.0, 0.0])
    tree = fit_tree_exact(X, y, cfg=TreeConfig(max_depth=1))
    assert tree.threshold[0] == 1.5


def test_build_bins_midpoints_small_cardinality():
    bm = build_bins(np.array([[1.0], [2.0], [3.0], [2.0]]))
    assert np.array_equal(bm.edges[0], [1.5, 2.5])
    assert np.array_equal(bm.bin_min[0], [1.0, 2.0, 3.0])


def test_build_bins_constant_feature():
    bm = build_bins(np.full((10, 1), 4.0))
    assert bm.edges[0].size == 0 and bm.n_bins(0) == 1


def test_build_bins_quantiles():
    rng = np.random.default_rng(0)
    col = rng.random((10_000, 1))
    bm = build_bins(col, max_bins=4)
    assert bm.edges[0].size == 3
    assert np.allclose(bm.edges[0], [0.25, 0.5, 0.75], atol=0.02)
    counts = np.bincount(bm.binize(col)[:, 0], minlength=4)
    assert np.all(np.abs(counts - 2500) <= 150)


def test_binize_maps_every_value_and_clamps_top():
    bm = build_bins(np.array([[1.0], [2.0], [3.0]]))
    got = bm.binize(np.array([[0.5], [1.0], [1.5], [2.0], [99.0]]))
    assert got[:, 0].tolist() == [0, 0, 0, 1, 2]


@pytest.mark.parametrize("seed", range(8))
def test_hist_equals_exact_when_bins_cover_distinct_values(seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 12, size=(160, 4)).astype(float)
    y = rng.integers(-30, 30, size=160).astype(float)
    cfg = TreeConfig(max_depth=None)
    exact = fit_tree_exact(X, y, cfg=cfg)
    hist = fit_tree_hist(X, y, None, cfg, build_bins(X))
    assert tree_arrays(exact) == tree_arrays(hist)
    grid = rng.normal(scale=6.0, size=(300, 4))
    assert np.array_equal(predict_tree_batch(exact, grid), predict_tree_batch(hist, grid))


def test_hist_close_to_exact_on_large_continuous_data():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(50_000, 5))
    y = X[:, 0] * 2.0 + np.sin(X[:, 1] * 3.0) + rng.normal(size=50_000) * 0.2
    cfg = TreeConfig(max_depth=6)
    exact = fit_tree_exact(X, y, cfg=cfg)
    hist = fit_tree_hist(X, y, None, cfg, build_bins(X))
    mse_exact = training_mse(exact, X, y)
    mse_hist = training_mse(hist, X, y)
    assert mse_hist <= mse_exact * 1.05


def test_training_mse_monotone_in_depth():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(400, 5))
    y = X[:, 0] + rng.normal(size=400)
    mses = [
        training_mse(fit_tree_exact(X, y, cfg=TreeConfig(max_depth=d)), X, y)
        for d in range(1, 9)
    ]
    for shallower, deeper in zip(mses, mses[1:]):
        assert deeper <= shallower * (1 + 1e-12)


def test_leaf_values_are_weighted_means():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(300, 3))
    y = rng.normal(size=300)
    w = rng.uniform(0.5, 2.0, size=300)
    tree = fit_tree_exact(X, y, w, TreeConfig(max_depth=4))

    stack = [(0, np.arange(300))]
    while stack:
        node, idx = stack.pop()
        assert idx.size > 0
        expected = float(np.average(y[idx], weights=w[idx]))
        assert tree.value[node] == pytest.approx(expected, rel=1e-12)
        if tree.feature[node] >= 0:
            mask = X[idx, tree.feature[node]] <= tree.threshold[node]
            stack.append((tree.left[node], idx[mask]))
            stack.append((tree.right[node], idx[~mask]))


def test_permutation_invariance_bitwise():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(250, 4))
    y = rng.normal(size=250)
    base = fit_tree_exact(X, y, cfg=TreeConfig(max_depth=5))
    for _ in range(3):
        p = rng.permutation(250)
        again = fit_tree_exact(X[p], y[p], cfg=TreeConfig(max_depth=5))
        assert tree_arrays(base) == tree_arrays(again)


def test_feature_subsample_candidate_count():
    assert n_candidate_features(10, 1.0 / 3.0) == 4
    assert n_candidate_features(9, 1.0) == 9
    assert n_candidate_features(5, 0.01) == 1


def test_feature_subsample_deterministic_given_seed():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(200, 10))
    y = rng.normal(size=200)
    cfg = TreeConfig(max_depth=4, feature_subsample=1.0 / 3.0, seed=77)
    a = fit_tree_exact(X, y, cfg=cfg)
    b = fit_tree_exact(X, y, cfg=cfg)
    assert tree_arrays(a) == tree_arrays(b)
    c = fit_tree_exact(X, y, cfg=TreeConfig(max_depth=4, feature_subsample=1.0 / 3.0, seed=78))
    assert tree_arrays(a) != tree_arrays(c)  # overwhelmingly likely


def test_predict_arity_mismatch():
    tree = fit_tree_exact(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.0, 1.0]), cfg=TreeConfig(max_depth=1))
    with pytest.raises(DataError, match="feature"):
        predict_tree_batch(tree, np.zeros((3, 1)))
    with pytest.raises(DataError, match="feature"):
        predict_tree_batch(tree, np.zeros((3, 3)))


def test_fit_validation_errors():
    with pytest.raises(DataError):
        fit_tree_exact(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(DataError):
        fit_tree_exact(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(DataError):
        fit_tree_exact(np.zeros((2, 2)), np.zeros(2), w=np.array([1.0, 0.0]))
    with pytest.raises(DataError):
        fit_tree_exact(np.zeros((2, 2)), np.zeros(2), cfg=TreeConfig(max_bins=1))


def test_tree_serialization_round_trip():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(100, 3))
    y = rng.normal(size=100)
    tree = fit_tree_exact(X, y, cfg=TreeConfig(max_depth=5))
    clone = Tree.from_dict(tree.to_dict(), tree.n_features)
    assert tree_arrays(clone) == tree_arrays(tree)
    assert np.array_equal(predict_tree_batch(clone, X), predict_tree_batch(tree, X))


def _ensemble_trees():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(400, 4))
    X[:, 3] = rng.integers(0, 5, size=400)  # ties at thresholds
    y = X[:, 0] * 2.0 + np.sin(3.0 * X[:, 1]) + rng.normal(size=400)
    cfg = EnsembleConfig(n_estimators=4, seed=3)
    for model in (
        fit_bagging(X, y, cfg),
        fit_random_forest(X, y, cfg),
        fit_gbm(X, y, cfg, mode="exact"),
        fit_gbm(X, y, cfg, mode="hist"),
        fit_adaboost_r2(X, y, cfg),
    ):
        for tree, _ in model.members:
            yield model.kind, tree, X


def test_vectorized_descent_matches_row_walk_for_every_tree_kind():
    # An unlimited-depth tree on exponentially growing targets peels off one
    # row per level, so it is far deeper than 30 levels.
    X = np.arange(60.0).reshape(-1, 1)
    deep = fit_tree_exact(X, 2.0 ** np.arange(60), cfg=TreeConfig(max_depth=None))
    assert deep.depth > 30
    cases = [("decision_tree", deep, X), *_ensemble_trees()]
    rng = np.random.default_rng(6)
    for kind, tree, X in cases:
        queries = np.vstack([X, rng.normal(scale=3.0, size=(200, X.shape[1]))])
        got = predict_tree_batch(tree, queries)
        assert got.tobytes() == reference_predict(tree, queries).tobytes(), kind


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=-20, max_value=20),
        ),
        min_size=2,
        max_size=40,
    ),
    depth=st.integers(min_value=1, max_value=6),
)
def test_property_hist_exact_equivalence_and_permutation(data, depth):
    X = np.array([[a, b] for a, b, _ in data], dtype=float)
    y = np.array([t for _, _, t in data], dtype=float)
    cfg = TreeConfig(max_depth=depth)
    exact = fit_tree_exact(X, y, cfg=cfg)
    hist = fit_tree_hist(X, y, None, cfg, build_bins(X))
    assert tree_arrays(exact) == tree_arrays(hist)
    rng = np.random.default_rng(0)
    p = rng.permutation(len(y))
    assert tree_arrays(fit_tree_exact(X[p], y[p], cfg=cfg)) == tree_arrays(exact)


BELOW_ONE = np.nextafter(1.0, 0.0)


@pytest.mark.parametrize("max_depth", [None, 4])
def test_split_between_adjacent_floats(max_depth):
    # The midpoint of two adjacent floats rounds onto the upper one; a split
    # there sent both rows left and an unlimited tree split that node forever.
    X = np.array([[BELOW_ONE], [1.0]])
    y = np.array([0.0, 1.0])
    cfg = TreeConfig(max_depth=max_depth)
    with time_limit(5):
        exact = fit_tree_exact(X, y, cfg=cfg)
        hist = fit_tree_hist(X, y, None, cfg, build_bins(X))
    assert exact.feature.tolist() == [0, -1, -1]
    assert exact.threshold[0] == BELOW_ONE
    assert tree_arrays(hist) == tree_arrays(exact)
    assert not np.any(np.isnan(exact.value))
    assert np.array_equal(predict_tree_batch(exact, X), y)


def test_hist_split_at_quantile_edge_below_adjacent_value():
    # With 511 distinct values every quantile edge lands on a value; one edge
    # is BELOW_ONE with 1.0 the smallest value of the next bin.
    col = np.concatenate([np.arange(-254.0, 0.0), [BELOW_ONE, 1.0], np.arange(2.0, 257.0)])
    X = col[:, None]
    y = (col >= 1.0).astype(float)
    bins = build_bins(X)
    assert col.size == 511 and BELOW_ONE in bins.edges[0]
    with time_limit(5):
        tree = fit_tree_hist(X, y, None, TreeConfig(max_depth=3), bins)
    assert not np.any(np.isnan(tree.value))
    assert tree.feature.tolist() == [0, -1, -1] and tree.threshold[0] == BELOW_ONE
    assert np.array_equal(predict_tree_batch(tree, X), y)


def test_split_leaving_a_child_empty_raises(monkeypatch):
    # The old rounding rule, forced back in: the grower must stop, not loop.
    monkeypatch.setattr(trees, "split_threshold", lambda lo, hi: (lo + hi) / 2.0)
    X = np.array([[BELOW_ONE], [1.0]])
    with time_limit(5), pytest.raises(RuntimeError, match="empty"):
        fit_tree_exact(X, np.array([0.0, 1.0]))


EDGE_VALUES = [
    -1.7e308,
    np.nextafter(-1.7e308, 0.0),
    -1.0,
    0.0,
    5e-324,
    1e-323,
    BELOW_ONE,
    1.0,
    np.nextafter(1.0, 2.0),
    np.nextafter(1.7e308, 0.0),
    1.7e308,
]


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.sampled_from(EDGE_VALUES), st.integers(min_value=-20, max_value=20)),
        min_size=2,
        max_size=30,
    ),
)
def test_property_splits_between_adjacent_and_extreme_values(data):
    X = np.array([[v] for v, _ in data])
    y = np.array([t for _, t in data], dtype=float)
    cfg = TreeConfig(max_depth=None)
    with time_limit(10):
        exact = fit_tree_exact(X, y, cfg=cfg)
        hist = fit_tree_hist(X, y, None, cfg, build_bins(X))
    assert tree_arrays(hist) == tree_arrays(exact)
    assert not np.any(np.isnan(exact.value))
    # Grown to purity, every row predicts the mean target of its x value.
    values, group = np.unique(X[:, 0], return_inverse=True)
    means = np.bincount(group, weights=y) / np.bincount(group)
    assert np.array_equal(predict_tree_batch(exact, X), means[group])


def test_bagging_members_equal_exact_trees_on_their_resamples():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(120, 3))
    y = rng.normal(size=120)
    cfg = EnsembleConfig(n_estimators=3, seed=5, tree=TreeConfig(max_depth=6), feature_subsample=0.5)
    model = fit_random_forest(X, y, cfg)
    Xc, yc, _ = canonical_rows(X, y, np.ones(120))
    for m, (tree, _) in enumerate(model.members):
        idx = substream(5, "bootstrap", m).integers(0, 120, size=120)
        member_cfg = replace(cfg.tree, feature_subsample=0.5, seed=derive_seed(5, "member-tree", m))
        assert tree_arrays(tree) == tree_arrays(fit_tree_exact(Xc[idx], yc[idx], cfg=member_cfg))
