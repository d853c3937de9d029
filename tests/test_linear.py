"""Linear baselines: closed forms, coordinate descent, KKT conditions."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripcast.errors import DataError
from tripcast.linear import (
    LinearModel,
    expand_day_type,
    fit_lasso,
    fit_ols,
    fit_ridge,
    lasso_lambda_max,
)

from tripcast.featurize import DAY_TYPE_COLUMN
from tripcast.registry import make_model

from tests.helpers import linear_objective


def _system(seed, n=200, k=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, k))
    beta = np.array([1.0, -2.0, 0.0, 0.5, 3.0])[:k]
    y = X @ beta + rng.normal(size=n)
    return X, y


def _gd_oracle(X, y, iters=200_000):
    """Independent full-batch gradient descent on sum (y - Xb - b0)^2."""
    n, k = X.shape
    A = np.hstack([X, np.ones((n, 1))])
    hessian_scale = np.linalg.eigvalsh(2.0 * A.T @ A).max()
    theta = np.zeros(k + 1)
    step = 1.0 / hessian_scale
    for _ in range(iters):
        grad = 2.0 * A.T @ (A @ theta - y)
        theta = theta - step * grad
    return theta[:k], theta[k]


def _sse(X, y, coef, intercept):
    r = y - X @ coef - intercept
    return float(r @ r)


def _raw_coefficients(m):
    """Coefficients/intercept of the model in the unstandardized space."""
    coef = m.coefficients / m.feature_scales
    intercept = m.intercept - float(np.sum(m.coefficients * m.feature_means / m.feature_scales))
    return coef, intercept


def test_ols_exact_linear_data():
    m = fit_ols(np.array([[1.0], [2.0], [3.0]]), np.array([2.0, 4.0, 6.0]))
    coef, intercept = _raw_coefficients(m)
    assert coef[0] == pytest.approx(2.0, abs=1e-8)
    assert intercept == pytest.approx(0.0, abs=1e-8)


def test_ols_constant_target():
    X = np.random.default_rng(0).normal(size=(20, 4))
    m = fit_ols(X, np.full(20, 3.5))
    assert np.all(np.abs(m.coefficients) < 1e-9)
    assert m.intercept == pytest.approx(3.5)


def test_ols_matches_gradient_descent_oracle():
    X, y = _system(42)
    m = fit_ols(X, y)
    oracle_coef, oracle_intercept = _gd_oracle(X, y)
    ours = _sse(X, y, *_raw_coefficients(m))
    oracle = _sse(X, y, oracle_coef, oracle_intercept)
    assert ours == pytest.approx(oracle, rel=1e-6)


def test_ols_constant_feature_gets_zero_coefficient():
    X = np.column_stack([np.ones(30), np.random.default_rng(1).normal(size=30)])
    y = X[:, 1] * 2.0
    m = fit_ols(X, y)
    assert m.feature_scales[0] == 1.0
    assert m.coefficients[0] == 0.0


def _calendar_window(seed, n):
    """Trips of the feature table's layout over 21 days of one month.

    ``month`` is constant, and the ISO week is a linear function of the day
    of month and the day-type one-hot, as in a weekly-retrain window.
    """
    rng = np.random.default_rng(seed)
    day = rng.integers(4, 25, size=n)  # 2019-03-04, a Monday of ISO week 10, to 2019-03-24
    week = 10 + (day - 4) // 7
    cities, stops, hour = rng.integers(1, 9, n), rng.integers(2, 12, n), rng.integers(0, 24, n)
    scheduled = rng.normal(3e4, 1e4, n)
    X = np.column_stack([cities, stops, np.full(n, 3), week, day, (day - 4) % 7, hour, rng.integers(0, 60, n), scheduled])
    y = 120.0 * cities + 300.0 * week - 40.0 * day + 0.02 * scheduled + rng.normal(0.0, 200.0, n)
    return X.astype(np.float64), y - y.mean()


def test_ols_on_collinear_calendar_columns_is_the_minimum_norm_solution():
    # The standardized Gram has eigenvalues near 1e-12 next to about 4e3, which the
    # former diagonal jitter of 1e-10 left to rounding: predictions off the data's span
    # differed from minimum-norm least squares, and moved when the rows were permuted.
    X, y = _calendar_window(31, 600)
    Xq = X[:80].copy()
    Xq[:, 3] += 1.0  # a week that the day and day type contradict
    Xq[:40, 2] = 4.0  # and a month the window never saw
    model = fit_ols(X, y, day_type_col=DAY_TYPE_COLUMN)
    Xs = (expand_day_type(X, DAY_TYPE_COLUMN) - model.feature_means) / model.feature_scales
    beta, _, rank, _ = np.linalg.lstsq(Xs, y - y.mean(), rcond=None)
    assert rank < Xs.shape[1]
    Xqs = (expand_day_type(Xq, DAY_TYPE_COLUMN) - model.feature_means) / model.feature_scales
    expected = Xqs @ beta
    pred = model.predict(Xq) - y.mean()
    assert np.linalg.norm(pred - expected) <= 1e-9 * np.linalg.norm(expected)
    perm = np.random.default_rng(32).permutation(len(X))
    again = fit_ols(X[perm], y[perm], day_type_col=DAY_TYPE_COLUMN).predict(Xq) - y.mean()
    assert np.linalg.norm(again - pred) <= 1e-9 * np.linalg.norm(pred)


@pytest.mark.parametrize("name", ["lr", "ri", "la"])
def test_fit_and_predict_use_no_cpu_off_the_calling_thread(name):
    # Through ``@``, BLAS split the 40k-row products over threads whose spinning after
    # each call took 60-100 ms of CPU on 2 vCPUs, in a window of the fit, the predict and
    # a 50 ms pause; the products are now numpy's own loops on this thread.
    rng = np.random.default_rng(41)
    X = rng.normal(size=(40_000, 9))
    X[:, DAY_TYPE_COLUMN] = rng.integers(0, 7, size=40_000)
    y = 3.0 * X[:, 0] - X[:, 8] + rng.normal(size=40_000)
    time.sleep(0.3)  # any BLAS worker an earlier test woke is asleep again
    process, thread = time.process_time(), time.thread_time()
    make_model(name, 0).fit(X, y).predict(X)
    time.sleep(0.05)
    elsewhere = (time.process_time() - process) - (time.thread_time() - thread)
    assert elsewhere < 0.010


@pytest.mark.parametrize("day_type_col", [None, DAY_TYPE_COLUMN])
def test_fit_and_predict_leave_the_callers_rows_unchanged(day_type_col):
    # The expanded matrix is standardized in place; it must be a copy even with no day type.
    X, y = _calendar_window(33, 200)
    X_before, y_before = X.copy(), y.copy()
    for fit in (fit_ols, fit_lasso):
        fit(X, y, day_type_col=day_type_col).predict(X)
    assert np.array_equal(X, X_before) and np.array_equal(y, y_before)


def test_ridge_zero_penalty_equals_ols():
    X, y = _system(7)
    a, b = fit_ols(X, y), fit_ridge(X, y, 0.0)
    assert np.allclose(a.coefficients, b.coefficients, atol=1e-8)


def test_ridge_penalty_dominance():
    X, y = _system(8)
    m = fit_ridge(X, y, 1e12)
    assert np.linalg.norm(m.coefficients) < 1e-6
    assert m.intercept == pytest.approx(float(np.mean(y)), abs=1e-9)


@pytest.mark.parametrize("lam", [-0.1, np.nan, np.inf])
@pytest.mark.parametrize("fit", [fit_ridge, fit_lasso], ids=["ri", "la"])
def test_ridge_negative_penalty_rejected(fit, lam):
    # Unchecked, NaN and infinite penalties gave NaN ridge coefficients and an all-zero "converged" lasso.
    X, y = _system(9, n=20)
    with pytest.raises(DataError, match="lam must be a finite number >= 0"):
        fit(X, y, lam)


def test_ridge_none_penalty_rejected():
    # Only the lasso has a None default; a None ridge penalty reached the solve as a TypeError.
    X, y = _system(9, n=20)
    X = np.column_stack([X, np.arange(20) % 7])  # the day-type column the registry's linear models expand
    with pytest.raises(DataError, match="lam must be a finite number >= 0, got None"):
        make_model("ri", 0, lam=None).fit(X, y)


@pytest.mark.parametrize("setting", [{"tol": 0.0}, {"tol": -1e-8}, {"tol": np.nan}, {"tol": np.inf},
                                     {"max_iter": 0}, {"max_iter": 2.5}, {"max_iter": True}])
def test_lasso_stopping_rule_that_could_not_stop_rejected(setting):
    X, y = _system(9, n=20)
    with pytest.raises(DataError, match=next(iter(setting))):
        fit_lasso(X, y, 0.1, **setting)


def test_ridge_objective_beats_ols_coefficients():
    X, y = _system(10)
    ridge = fit_ridge(X, y, 1.0)
    ols = fit_ols(X, y)
    assert linear_objective(ridge, X, y) <= linear_objective(ridge, X, y, beta=ols.coefficients)


def test_ridge_norm_non_increasing_in_lambda():
    X, y = _system(11)
    norms = [float(np.linalg.norm(fit_ridge(X, y, lam).coefficients)) for lam in (0.0, 0.1, 1.0, 10.0, 1e3, 1e5)]
    for a, b in zip(norms, norms[1:]):
        assert b <= a + 1e-12


def test_lasso_zero_penalty_matches_ols():
    X, y = _system(12)
    lasso = fit_lasso(X, y, 0.0, tol=1e-12)
    ols = fit_ols(X, y)
    assert np.allclose(lasso.coefficients, ols.coefficients, atol=1e-6)


def test_lasso_lambda_max_kills_everything():
    X, y = _system(13)
    lmax = lasso_lambda_max(X, y)
    for lam in (lmax, lmax * 1.5):
        m = fit_lasso(X, y, lam)
        assert np.all(m.coefficients == 0.0)
        assert m.converged


@settings(max_examples=60, deadline=3000)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=20, max_value=200),
    k=st.integers(min_value=2, max_value=6),
    day_type=st.booleans(),
    fraction=st.floats(min_value=0.0, max_value=1.5, exclude_min=True),
)
def test_lasso_kkt_conditions(seed, n, k, day_type, fraction):
    # KKT conditions at the returned coefficients, from G = Xs^T Xs / n and
    # c = Xs^T (y - mean(y)) / n taken here from the rows.
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, k))
    col = k - 1 if day_type else None
    if day_type:
        X[:, col] = rng.integers(0, 7, size=n)
    y = X @ rng.normal(size=k) + rng.normal(size=n)
    lam_max = lasso_lambda_max(X, y, day_type_col=col)
    lam = fraction * lam_max
    m = fit_lasso(X, y, lam, tol=1e-10, day_type_col=col)
    if lam >= lam_max:
        assert m.converged and np.all(m.coefficients == 0.0)
    if not m.converged:
        return
    Xs = (expand_day_type(X, col) - m.feature_means) / m.feature_scales
    corr = (Xs.T @ (y - y.mean()) - Xs.T @ Xs @ m.coefficients) / n
    for j, beta_j in enumerate(m.coefficients):
        if beta_j == 0.0:
            assert abs(corr[j]) <= lam + 1e-8
        else:
            assert corr[j] == pytest.approx(lam * np.sign(beta_j), abs=1e-6)


def test_lasso_active_set_non_increasing():
    X, y = _system(15)
    lmax = lasso_lambda_max(X, y)
    grid = np.linspace(1e-4, lmax, 9)
    active = [int(np.sum(fit_lasso(X, y, lam).coefficients != 0.0)) for lam in grid]
    for a, b in zip(active, active[1:]):
        assert b <= a


def test_lasso_non_convergence_flagged():
    X, y = _system(16)
    m = fit_lasso(X, y, 1e-6, tol=1e-15, max_iter=1)
    assert not m.converged


def test_rescaling_feature_leaves_predictions_unchanged():
    X, y = _system(17)
    X10 = X.copy()
    X10[:, 3] *= 10.0
    Xq = np.random.default_rng(3).normal(size=(40, 5))
    Xq10 = Xq.copy()
    Xq10[:, 3] *= 10.0
    lam = lasso_lambda_max(X, y) / 3.0
    for fit_a, fit_b in (
        (lambda: fit_ols(X, y), lambda: fit_ols(X10, y)),
        (lambda: fit_ridge(X, y, 1.0), lambda: fit_ridge(X10, y, 1.0)),
        (lambda: fit_lasso(X, y, lam), lambda: fit_lasso(X10, y, lam)),
    ):
        assert np.allclose(fit_a().predict(Xq), fit_b().predict(Xq10), atol=1e-8)


def test_day_type_one_hot_expansion():
    rng = np.random.default_rng(21)
    X = np.column_stack([rng.normal(size=120), rng.integers(0, 7, size=120)]).astype(float)
    y = X[:, 0] * 1.5 + np.where(X[:, 1] == 6, 4.0, 0.0)
    m = fit_ols(X, y, day_type_col=1)
    assert m.coefficients.shape[0] == 1 + 7
    assert np.abs(m.predict(X) - y).max() < 1e-6
    expanded = expand_day_type(X, 1)
    assert expanded.shape == (120, 8)
    assert np.array_equal(expanded[:, 1:].sum(axis=1), np.ones(120))


@pytest.mark.parametrize("bad", [9.0, -2.0, 3.7, 7.0])
@pytest.mark.parametrize("entry", ["lr", "ri", "la"])
def test_day_type_value_outside_the_week_rejected(entry, bad):
    # Cast and clipped, these would read as days: 9.0 as Sunday, -2.0 as Monday, 3.7 as Thursday.
    rng = np.random.default_rng(23)
    X = rng.normal(size=(60, 9))
    X[:, 5] = np.arange(60) % 7
    y = X[:, 0] + rng.normal(size=60)
    Xbad = X.copy()
    Xbad[17, 5] = bad
    with pytest.raises(DataError, match="day-type column 5"):
        make_model(entry, 0).fit(Xbad, y)
    model = make_model(entry, 0).fit(X, y)
    with pytest.raises(DataError, match="day-type column 5"):
        model.predict(Xbad)
    with pytest.raises(DataError, match="day-type column 1"):
        expand_day_type(Xbad[:, 4:6], 1)


def test_model_dict_round_trip():
    X, y = _system(22)
    m = fit_ridge(X, y, 2.0)
    clone = LinearModel.from_payload(m.to_payload())
    Xq = np.random.default_rng(5).normal(size=(25, 5))
    assert np.array_equal(m.predict(Xq), clone.predict(Xq))


def test_empty_and_mismatched_inputs():
    with pytest.raises(DataError):
        fit_ols(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(DataError):
        fit_ols(np.zeros((3, 2)), np.zeros(4))
    m = fit_ols(np.zeros((3, 2)) + np.arange(6).reshape(3, 2), np.arange(3.0))
    with pytest.raises(DataError):
        m.predict(np.zeros((2, 3)))


@pytest.mark.parametrize("entry", ["ols", "ridge", "lasso", "lambda_max"])
@pytest.mark.parametrize("where, bad", [("X", np.nan), ("X", np.inf), ("X", -np.inf), ("y", np.nan), ("y", np.inf)])
def test_non_finite_training_data_rejected(entry, where, bad):
    # Before the shared check, each of these returned a model predicting NaN.
    X, y = _system(30)
    (X[11] if where == "X" else y)[3] = bad
    fits = {
        "ols": lambda: fit_ols(X, y),
        "ridge": lambda: fit_ridge(X, y, 1.0),
        "lasso": lambda: fit_lasso(X, y, 0.1),
        "lambda_max": lambda: lasso_lambda_max(X, y),
    }
    with pytest.raises(DataError, match="NaN or infinite"):
        fits[entry]()
