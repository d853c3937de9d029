"""Linear baselines: closed forms, coordinate descent, KKT conditions."""

import numpy as np
import pytest

from tripcast.errors import DataError
from tripcast.linear import (
    LinearModel,
    expand_day_type,
    fit_lasso,
    fit_ols,
    fit_ridge,
    lasso_lambda_max,
    linear_objective,
)


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


def test_ridge_zero_penalty_equals_ols():
    X, y = _system(7)
    a, b = fit_ols(X, y), fit_ridge(X, y, 0.0)
    assert np.allclose(a.coefficients, b.coefficients, atol=1e-8)


def test_ridge_penalty_dominance():
    X, y = _system(8)
    m = fit_ridge(X, y, 1e12)
    assert np.linalg.norm(m.coefficients) < 1e-6
    assert m.intercept == pytest.approx(float(np.mean(y)), abs=1e-9)


def test_ridge_negative_penalty_rejected():
    X, y = _system(9, n=20)
    with pytest.raises(DataError):
        fit_ridge(X, y, -0.1)
    with pytest.raises(DataError):
        fit_lasso(X, y, -0.1)


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


def test_lasso_kkt_conditions():
    X, y = _system(14)
    lam = lasso_lambda_max(X, y) / 2.0
    m = fit_lasso(X, y, lam, tol=1e-10)
    assert m.converged
    Xs = (X - m.feature_means) / m.feature_scales
    residual = y - m.predict(X)
    corr = Xs.T @ residual / X.shape[0]
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


def test_model_dict_round_trip():
    X, y = _system(22)
    m = fit_ridge(X, y, 2.0)
    clone = LinearModel.from_dict(m.to_dict())
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
