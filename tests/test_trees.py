"""Regression tree fitting: exact scan, histogram scan, and their equivalence."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripcast.ensembles import fit_adaboost_r2, fit_bagging, fit_gbm, fit_random_forest
from tripcast import trees
from tripcast.errors import DataError
from tripcast.registry import make_model
from tripcast.rng import derive_seed, substream
from tripcast.trees import (
    MAX_BINS,
    BinnedColumns,
    Tree,
    canonical_rows,
    fit_tree_exact,
    fit_tree_hist,
    n_candidate_features,
    predict_tree_batch,
)

from tests.helpers import reference_predict, reference_tree, time_limit, training_mse, tree_arrays


def test_two_point_split():
    tree = fit_tree_exact(np.array([[0.0], [1.0]]), np.array([0.0, 10.0]), max_depth=1)
    assert tree_arrays(tree) == [[0, -1, -1], [0.5, 0.0, 0.0], [1, 1, 2], [2, 1, 2], [5.0, 0.0, 10.0]]
    assert tree.depth == 1
    assert training_mse(tree, np.array([[0.0], [1.0]]), np.array([0.0, 10.0])) == 0.0


def test_predict_tie_goes_left():
    tree = fit_tree_exact(np.array([[0.0], [1.0]]), np.array([0.0, 10.0]), max_depth=1)
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
    tree = fit_tree_exact(X, y, max_depth=None)
    assert training_mse(tree, X, y) == 0.0
    assert tree.feature.tolist() == [0, -1, 0, -1, -1]  # single rows are leaves


@pytest.mark.parametrize("field", ["min_samples_leaf", "min_samples_split", "max_bins"])
def test_deleted_tree_settings_are_type_errors(field):
    X, y = np.array([[0.0], [1.0]]), np.array([0.0, 1.0])
    for fit in (fit_tree_exact, fit_tree_hist):
        with pytest.raises(TypeError, match=field):
            fit(X, y, **{field: 2})


def test_tie_break_lowest_feature_then_threshold():
    # identical columns: equal gain -> feature 0 must win
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    tree = fit_tree_exact(X, np.array([0.0, 10.0]), max_depth=1)
    assert tree.feature[0] == 0
    # two equal-gain thresholds within one feature -> the lower one wins
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([0.0, 10.0, 0.0])
    tree = fit_tree_exact(X, y, max_depth=1)
    assert tree.threshold[0] == 1.5


def test_build_bins_midpoints_small_cardinality():
    # One bin per distinct value, coded by the value's rank; a second feature
    # of two values gives the key table width 3 and pads its value ranges.
    cols = BinnedColumns(np.array([[1.0, 7.0], [2.0, 5.0], [3.0, 7.0], [2.0, 7.0]]))
    assert cols.keys.tolist() == [[0, 4], [1, 3], [2, 4], [1, 4]]
    assert cols.bin_min.tolist() == cols.bin_max.tolist() == [[1.0, 2.0, 3.0], [5.0, 7.0, 0.0]]


def test_build_bins_constant_feature():
    cols = BinnedColumns(np.full((10, 1), 4.0))
    assert cols.keys.tolist() == [[0]] * 10
    assert cols.bin_min.tolist() == cols.bin_max.tolist() == [[4.0]]


def test_build_bins_quantiles():
    rng = np.random.default_rng(0)
    col = rng.random((25_500, 1))
    cols = BinnedColumns(col)
    codes = cols.keys[:, 0]
    assert cols.keys.dtype == np.intp and cols.bin_min.shape == (1, MAX_BINS) and codes.max() == MAX_BINS - 1
    counts = np.bincount(codes, minlength=MAX_BINS)
    assert np.all(np.abs(counts - 100) <= 40)
    # Each bin's value range is that of its own values; the ranges ascend
    # without overlap, with a boundary near each i/255 quantile.
    lo, hi = cols.bin_min[0], cols.bin_max[0]
    assert np.array_equal(lo, [col[codes == b, 0].min() for b in range(MAX_BINS)])
    assert np.array_equal(hi, [col[codes == b, 0].max() for b in range(MAX_BINS)])
    assert np.all(hi[:-1] < lo[1:])
    assert np.allclose(hi[:-1], np.arange(1, MAX_BINS) / MAX_BINS, atol=0.01)


@pytest.mark.parametrize("seed", range(8))
def test_hist_equals_exact_when_bins_cover_distinct_values(seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 12, size=(160, 4)).astype(float)
    y = rng.integers(-30, 30, size=160).astype(float)
    exact = fit_tree_exact(X, y)
    hist = fit_tree_hist(X, y)
    assert tree_arrays(exact) == tree_arrays(hist)
    grid = rng.normal(scale=6.0, size=(300, 4))
    assert np.array_equal(predict_tree_batch(exact, grid), predict_tree_batch(hist, grid))


def test_hist_close_to_exact_on_large_continuous_data():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(50_000, 5))
    y = X[:, 0] * 2.0 + np.sin(X[:, 1] * 3.0) + rng.normal(size=50_000) * 0.2
    exact = fit_tree_exact(X, y, max_depth=6)
    hist = fit_tree_hist(X, y, max_depth=6)
    mse_exact = training_mse(exact, X, y)
    mse_hist = training_mse(hist, X, y)
    assert mse_hist <= mse_exact * 1.05


def test_training_mse_monotone_in_depth():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(400, 5))
    y = X[:, 0] + rng.normal(size=400)
    mses = [
        training_mse(fit_tree_exact(X, y, max_depth=d), X, y)
        for d in range(1, 9)
    ]
    for shallower, deeper in zip(mses, mses[1:]):
        assert deeper <= shallower * (1 + 1e-12)


def test_leaf_values_are_node_means():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(300, 3))
    y = rng.normal(size=300)
    tree = fit_tree_exact(X, y, max_depth=4)

    stack = [(0, np.arange(300))]
    while stack:
        node, idx = stack.pop()
        assert idx.size > 0
        assert tree.value[node] == pytest.approx(float(np.mean(y[idx])), rel=1e-12)
        if tree.feature[node] >= 0:
            mask = X[idx, tree.feature[node]] <= tree.threshold[node]
            stack.append((tree.left[node], idx[mask]))
            stack.append((tree.right[node], idx[~mask]))


def test_permutation_invariance_bitwise():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(250, 4))
    y = rng.normal(size=250)
    base = fit_tree_exact(X, y, max_depth=5)
    for _ in range(3):
        p = rng.permutation(250)
        again = fit_tree_exact(X[p], y[p], max_depth=5)
        assert tree_arrays(base) == tree_arrays(again)


def test_feature_subsample_candidate_count():
    assert n_candidate_features(10, 1.0 / 3.0) == 4
    assert n_candidate_features(9, 1.0) == 9
    assert n_candidate_features(5, 0.01) == 1


def test_feature_subsample_deterministic_given_seed():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(200, 10))
    y = rng.normal(size=200)
    a = fit_tree_exact(X, y, max_depth=4, feature_subsample=1.0 / 3.0, seed=77)
    b = fit_tree_exact(X, y, max_depth=4, feature_subsample=1.0 / 3.0, seed=77)
    assert tree_arrays(a) == tree_arrays(b)
    c = fit_tree_exact(X, y, max_depth=4, feature_subsample=1.0 / 3.0, seed=78)
    assert tree_arrays(a) != tree_arrays(c)  # overwhelmingly likely


def test_predict_arity_mismatch():
    tree = fit_tree_exact(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.0, 1.0]), max_depth=1)
    with pytest.raises(DataError, match="feature"):
        predict_tree_batch(tree, np.zeros((3, 1)))
    with pytest.raises(DataError, match="feature"):
        predict_tree_batch(tree, np.zeros((3, 3)))


def test_fit_validation_errors():
    with pytest.raises(DataError):
        fit_tree_exact(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(DataError):
        fit_tree_exact(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(TypeError):  # trees take no sample weights
        fit_tree_exact(np.zeros((2, 2)), np.zeros(2), w=np.array([1.0, 0.0]))
    with pytest.raises(DataError, match="max_depth"):
        fit_tree_exact(np.zeros((2, 2)), np.zeros(2), max_depth=0)
    with pytest.raises(DataError, match="feature_subsample"):
        fit_tree_exact(np.zeros((2, 2)), np.zeros(2), feature_subsample=0.0)
    with pytest.raises(DataError, match="max_depth"):
        fit_tree_hist(np.zeros((2, 2)), np.zeros(2), max_depth=0)
    with pytest.raises(DataError):
        fit_tree_hist(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(TypeError):  # histogram trees scan every feature and draw nothing
        fit_tree_hist(np.zeros((2, 2)), np.zeros(2), feature_subsample=0.5)
    # A depth is an integer: 2.5 crashed the exact grower's sizing, and True grew a depth-1 tree.
    X, y = np.zeros((2, 2)), np.arange(2.0)
    for depth in (2.5, True):
        with pytest.raises(DataError, match="max_depth must be an integer"):
            fit_tree_exact(X, y, max_depth=depth)
        with pytest.raises(DataError, match="max_depth must be an integer"):
            fit_tree_hist(X, y, max_depth=depth)
        with pytest.raises(DataError, match="max_depth must be an integer"):
            make_model("dt", 0, max_depth=depth).fit(X, y)
    # A subsample is a finite number, not a bool, and a seed an integer: "x" raised a bare TypeError.
    for subsample in ("x", True, float("nan")):
        with pytest.raises(DataError, match="feature_subsample must be a number"):
            fit_tree_exact(X, y, feature_subsample=subsample)
    for seed in (1.5, "1", True):
        with pytest.raises(DataError, match="seed must be an integer"):
            fit_tree_exact(X, y, feature_subsample=0.5, seed=seed)


def test_tree_serialization_round_trip():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(100, 3))
    y = rng.normal(size=100)
    tree = fit_tree_exact(X, y, max_depth=5)
    clone = Tree.from_dict(tree.to_dict(), tree.n_features)
    assert tree_arrays(clone) == tree_arrays(tree)
    assert np.array_equal(predict_tree_batch(clone, X), predict_tree_batch(tree, X))


def _ensemble_trees():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(400, 4))
    X[:, 3] = rng.integers(0, 5, size=400)  # ties at thresholds
    y = X[:, 0] * 2.0 + np.sin(3.0 * X[:, 1]) + rng.normal(size=400)
    for model in (
        fit_bagging(X, y, n_estimators=4, seed=3),
        fit_random_forest(X, y, n_estimators=4, seed=3),
        fit_gbm(X, y, mode="exact", n_estimators=4),
        fit_gbm(X, y, mode="hist", n_estimators=4),
        fit_adaboost_r2(X, y, n_estimators=4, seed=3),
    ):
        for tree, _ in model.members:
            yield model.kind, tree, X


def test_vectorized_descent_matches_row_walk_for_every_tree_kind():
    # An unlimited-depth tree on exponentially growing targets peels off one
    # row per level, so it is far deeper than 30 levels.
    X = np.arange(60.0).reshape(-1, 1)
    deep = fit_tree_exact(X, 2.0 ** np.arange(60), max_depth=None)
    assert deep.depth > 30
    cases = [("decision_tree", deep, X), *_ensemble_trees()]
    rng = np.random.default_rng(6)
    for kind, tree, X in cases:
        queries = np.vstack([X, rng.normal(scale=3.0, size=(200, X.shape[1]))])
        got = predict_tree_batch(tree, queries)
        assert got.tobytes() == reference_predict(tree, queries).tobytes(), kind


@settings(max_examples=80, deadline=5000)
@given(
    data=st.lists(
        st.tuples(st.lists(st.integers(min_value=0, max_value=4), min_size=6, max_size=6), st.integers(-20, 20)),
        min_size=1,
        max_size=40,
    ),
    n_features=st.integers(min_value=1, max_value=6),
    depth=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
    hist=st.booleans(),
    queries=st.lists(st.lists(st.integers(min_value=-1, max_value=9), min_size=6, max_size=6), min_size=1, max_size=30),
)
def test_property_descent_equals_row_walk(data, n_features, depth, hist, queries):
    # One-row data or equal targets give single-leaf trees. Queries lie on a
    # 0.25 grid, as do the midpoints of the 0.5-spaced training values, and
    # one query per split sits on that split's threshold.
    X = np.array([x[:n_features] for x, _ in data]) * 0.5
    y = np.array([t for _, t in data], dtype=float)
    tree = (fit_tree_hist if hist else fit_tree_exact)(X, y, max_depth=depth)
    split = np.flatnonzero(tree.feature >= 0)
    on_split = np.repeat(X[:1], split.size, axis=0)
    on_split[np.arange(split.size), tree.feature[split]] = tree.threshold[split]
    Q = np.vstack([np.array(queries)[:, :n_features] * 0.25, on_split, X])
    assert predict_tree_batch(tree, Q).tobytes() == reference_predict(tree, Q).tobytes()
    assert predict_tree_batch(tree, Q[-1:]).tobytes() == reference_predict(tree, Q[-1:]).tobytes()


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
    depth=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
)
def test_property_hist_exact_equivalence_and_permutation(data, depth):
    X = np.array([[a, b] for a, b, _ in data], dtype=float)
    y = np.array([t for _, _, t in data], dtype=float)
    exact = fit_tree_exact(X, y, max_depth=depth)
    hist = fit_tree_hist(X, y, max_depth=depth)
    assert tree_arrays(exact) == tree_arrays(hist)
    rng = np.random.default_rng(0)
    p = rng.permutation(len(y))
    assert tree_arrays(fit_tree_exact(X[p], y[p], max_depth=depth)) == tree_arrays(exact)


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.lists(st.integers(min_value=0, max_value=4), min_size=6, max_size=6), st.floats(-1e3, 1e3)
        ),
        min_size=1,
        max_size=60,
    ),
    n_features=st.integers(min_value=1, max_value=6),
    copies=st.integers(min_value=1, max_value=3),
    depth=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
)
def test_property_exact_tree_equals_per_node_reference(data, n_features, copies, depth):
    # Float targets, duplicated rows and any depth: the level-wise grower
    # must add the same numbers in the same order as a node-by-node scan.
    X = np.tile([x[:n_features] for x, _ in data], (copies, 1)) * 0.5
    y = np.tile([t for _, t in data], copies)
    assert tree_arrays(fit_tree_exact(X, y, max_depth=depth)) == reference_tree(X, y, depth)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=MAX_BINS + 1, max_value=800),
    n_features=st.integers(min_value=1, max_value=3),
    distinct=st.integers(min_value=2, max_value=2000),
    depth=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
)
def test_property_hist_tree_equals_per_node_reference_when_bins_merge_values(seed, n, n_features, distinct, depth):
    # Features with more distinct values than MAX_BINS share bins, so split
    # thresholds fall between the value ranges of neighbouring bins.
    rng = np.random.default_rng(seed)
    X = rng.integers(0, distinct, size=(n, n_features)) * 0.25
    X[:, 0] = rng.normal(size=n)  # at least one feature has n > MAX_BINS distinct values
    y = X[:, 0] + rng.normal(size=n)
    bins = BinnedColumns(canonical_rows(X, y)[0])
    assert bins.bin_min.shape[1] <= MAX_BINS < np.unique(X[:, 0]).size
    with time_limit(30):
        hist = fit_tree_hist(X, y, max_depth=depth)
        assert tree_arrays(hist) == reference_tree(X, y, depth, bins)


BELOW_ONE = np.nextafter(1.0, 0.0)


@pytest.mark.parametrize("max_depth", [None, 4])
def test_split_between_adjacent_floats(max_depth):
    # The midpoint of two adjacent floats rounds onto the upper one; a split
    # there sent both rows left and an unlimited tree split that node forever.
    X = np.array([[BELOW_ONE], [1.0]])
    y = np.array([0.0, 1.0])
    with time_limit(5):
        exact = fit_tree_exact(X, y, max_depth=max_depth)
        hist = fit_tree_hist(X, y, max_depth=max_depth)
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
    bins = BinnedColumns(X)
    below = np.flatnonzero(bins.bin_max[0] == BELOW_ONE)  # the bin ending at BELOW_ONE
    assert col.size == 511 and bins.bin_min[0, below + 1].tolist() == [1.0]
    with time_limit(5):
        tree = fit_tree_hist(X, y, max_depth=3)
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
    with time_limit(10):
        exact = fit_tree_exact(X, y)
        hist = fit_tree_hist(X, y)
    assert tree_arrays(hist) == tree_arrays(exact)
    assert not np.any(np.isnan(exact.value))
    # Grown to purity, every row predicts the mean target of its x value.
    values, group = np.unique(X[:, 0], return_inverse=True)
    means = np.bincount(group, weights=y) / np.bincount(group)
    assert np.array_equal(predict_tree_batch(exact, X), means[group])


@pytest.mark.parametrize("block", [1, 500, 750])
def test_scans_over_several_feature_blocks_grow_the_default_trees(monkeypatch, block):
    # Tables of the other tests fit one block; a small _SCAN_BLOCK splits
    # every scan into blocks of one or a few features.
    rng = np.random.default_rng(11)
    X = np.round(rng.normal(size=(250, 5)), 1)
    y = X[:, 0] * 3.0 + np.sin(X[:, 1]) + rng.normal(size=250)

    def fits():
        boosted = [
            fit_gbm(X, y, mode=mode, n_estimators=3, max_depth=4)
            for mode in ("exact", "hist")
        ]
        single = [fit_tree_exact(X, y, feature_subsample=s, seed=2) for s in (1.0, 0.5)]
        return [tree_arrays(t) for model in boosted for t, _ in model.members] + [tree_arrays(t) for t in single]

    default = fits()
    monkeypatch.setattr(trees, "_SCAN_BLOCK", block)
    assert fits() == default


def test_bagging_members_equal_exact_trees_on_their_resamples():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(120, 3))
    y = rng.normal(size=120)
    model = fit_random_forest(X, y, n_estimators=3, seed=5, max_depth=6, feature_subsample=0.5)
    Xc, yc = canonical_rows(X, y)
    for m, (tree, _) in enumerate(model.members):
        idx = substream(5, "bootstrap", m).integers(0, 120, size=120)
        seed = derive_seed(5, "member-tree", m)
        member = fit_tree_exact(Xc[idx], yc[idx], max_depth=6, feature_subsample=0.5, seed=seed)
        assert tree_arrays(tree) == tree_arrays(member)
