"""Linear baselines: ordinary least squares, ridge, and lasso.

All three standardize features to zero mean and unit variance, leave the
intercept unpenalized, and can one-hot expand a day-of-week column (trees
split the ordinal directly; a linear model needs the indicator encoding).
Each fit reads its training rows once (:func:`_moments`): the Gram matrix
``Xs^T Xs`` of the standardized features ``Xs`` and their products
``Xs^T (y - mean(y))`` with the centred target. OLS and ridge take the
minimum-norm solution from the Gram's eigenvectors (:func:`_min_norm_solve`),
so a direction the rows do not determine, such as the ISO week that a short
window's day of month and day type fix, gets coefficient 0. Lasso runs
cyclic coordinate descent with soft thresholding on covariance updates
(Friedman, Hastie & Tibshirani, J. Stat. Softw. 2010, section 2.2), so a
sweep costs O(k^2) for k expanded features whatever the number of rows.

The three products over the rows (the Gram, ``Xs^T y`` and a prediction's
``Xs beta``) are ``np.einsum`` calls, numpy's own loops on the calling thread,
not ``@``: BLAS splits products of this size over threads whose helpers keep
spinning after each call while the caller goes on to other work. What is
left for LAPACK and ``@`` (the k x k eigen-decomposition, the lasso's
k-element dots) is too small for BLAS to split.

Objectives (on standardized features, intercept b):
  OLS / ridge:  sum (y - Xb)^2  [+ lam * ||beta||^2]
  lasso:        (1/2n) sum (y - Xb)^2 + lam * ||beta||_1
so ``lasso_lambda_max`` = max_j |<x_j, y - mean(y)>| / n is the smallest
penalty that zeroes every coefficient.

Every fit entry and ``LinearModel.predict`` check their inputs with
:mod:`tripcast.checks`, so NaN or infinite data is a ``DataError`` here as
it is for the trees, and so is a penalty or stopping rule that is not a
finite number in range. :class:`LinearModel` owns its persisted form: its
``from_payload`` checks a document before rebuilding from it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .checks import check_setting, finite_predictions, is_finite, is_int, query_matrix, require, require_keys, training_data
from .errors import DataError, PersistError
from .featurize import N_DAY_TYPES

#: Relative cutoff of the OLS and ridge solve: an eigenvalue of the Gram of n rows and k
#: features at most ``RANK_RTOL * (n + k)`` times the largest is within the rounding of the
#: Gram's n-term sums and of its eigen-decomposition, and its direction gets coefficient 0.
RANK_RTOL = 8 * np.finfo(np.float64).eps


@dataclass(slots=True)
class LinearModel:
    """A fitted linear model in standardized, one-hot-expanded space."""

    coefficients: np.ndarray
    intercept: float
    feature_means: np.ndarray
    feature_scales: np.ndarray
    penalty: str  # "none" | "l2" | "l1"
    lam: float
    day_type_col: int | None
    n_raw_features: int
    converged: bool = True

    #: Model-document kind of every linear model.
    kind = "linear"

    @finite_predictions
    def predict(self, X: np.ndarray) -> np.ndarray:
        X = query_matrix(X, self.n_raw_features)
        Xs = expand_day_type(X, self.day_type_col)
        Xs -= self.feature_means
        Xs /= self.feature_scales
        return np.einsum("ij,j->i", Xs, self.coefficients) + self.intercept

    def to_payload(self) -> dict:
        return {
            "model": {
                "coefficients": self.coefficients.tolist(),
                "intercept": self.intercept,
                "feature_means": self.feature_means.tolist(),
                "feature_scales": self.feature_scales.tolist(),
                "penalty": self.penalty,
                "lam": self.lam,
                "day_type_col": self.day_type_col,
                "n_raw_features": self.n_raw_features,
                "converged": self.converged,
            }
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "LinearModel":
        """Rebuild a persisted model; a malformed document raises ``PersistError``."""
        require_keys(payload, ("model",))
        doc = payload["model"]
        require_keys(doc, _FIELDS, "model")
        n_raw, col = doc["n_raw_features"], doc["day_type_col"]
        require(is_int(n_raw) and n_raw >= 1, "n_raw_features is not a positive integer")
        require(col is None or (is_int(col) and 0 <= col < n_raw), "day_type_col is out of range")
        width = n_raw if col is None else n_raw - 1 + N_DAY_TYPES
        for key in _ARRAYS:
            values = doc[key]
            require(
                isinstance(values, list) and len(values) == width and all(map(is_finite, values)),
                f"{key} is not a list of {width} finite numbers",
            )
        require(all(v != 0 for v in doc["feature_scales"]), "feature_scales holds a zero")
        require(is_finite(doc["intercept"]), "intercept is not a finite number")
        require(doc["penalty"] in ("none", "l2", "l1"), f"unknown penalty {doc['penalty']!r}")
        try:
            check_setting("lam", doc["lam"])
        except DataError as exc:
            raise PersistError(f"malformed model document: {exc}") from exc
        require(doc["penalty"] != "none" or doc["lam"] == 0, f"penalty none with lam {doc['lam']!r}, not 0")
        require(isinstance(doc["converged"], bool), "converged is not a boolean")
        return cls(
            **{key: np.asarray(doc[key], dtype=np.float64) for key in _ARRAYS},
            intercept=float(doc["intercept"]),
            penalty=doc["penalty"],
            lam=float(doc["lam"]),
            day_type_col=col,
            n_raw_features=n_raw,
            converged=doc["converged"],
        )


#: The persisted fields of a model, and those of them that are arrays.
_FIELDS = tuple(f.name for f in fields(LinearModel))
_ARRAYS = ("coefficients", "feature_means", "feature_scales")


def expand_day_type(X: np.ndarray, day_type_col: int | None) -> np.ndarray:
    """A new array of ``X`` with the day-type ordinal column replaced by 7 one-hot indicator columns.

    The indicator columns are appended after the remaining features, in
    day order Monday..Sunday. ``None`` copies ``X``. A value other than an
    integer 0..6 is a ``DataError``, not a day. The result is the caller's
    to standardize in place.
    """
    if day_type_col is None:
        return X.copy()
    if not 0 <= day_type_col < X.shape[1]:
        raise DataError(f"day_type_col {day_type_col} out of range")
    day = X[:, day_type_col]
    if not np.isin(day, np.arange(N_DAY_TYPES)).all():
        raise DataError(f"day-type column {day_type_col} holds a value that is not an integer 0..{N_DAY_TYPES - 1}")
    n, width = X.shape
    out = np.zeros((n, width - 1 + N_DAY_TYPES))
    out[:, :day_type_col] = X[:, :day_type_col]
    out[:, day_type_col : width - 1] = X[:, day_type_col + 1 :]
    out[np.arange(n), width - 1 + day.astype(np.intp)] = 1.0
    return out


class _Moments(NamedTuple):
    """All that a linear fit reads of its training rows."""

    gram: np.ndarray  # Xs^T Xs, Xs the standardized, one-hot-expanded features
    xty: np.ndarray  # Xs^T (y - y_mean)
    y_mean: float
    means: np.ndarray
    scales: np.ndarray
    shape: tuple[int, int]  # rows and raw features of X
    day_type_col: int | None

    def model(self, beta: np.ndarray, penalty: str, lam: float, converged: bool = True) -> LinearModel:
        n_raw = self.shape[1]
        return LinearModel(beta, self.y_mean, self.means, self.scales, penalty, lam, self.day_type_col, n_raw, converged)


def _moments(X: np.ndarray, y: np.ndarray, day_type_col: int | None) -> _Moments:
    """Check the training data, standardize it and take its one pass over the rows."""
    X, y = training_data(X, y)
    Xs = expand_day_type(X, day_type_col)
    means = Xs.mean(axis=0)
    scales = Xs.std(axis=0)
    scales[scales == 0.0] = 1.0
    Xs -= means
    Xs /= scales
    y_mean = float(np.mean(y))
    gram, xty = np.einsum("ij,ik->jk", Xs, Xs), np.einsum("ij,i->j", Xs, y - y_mean)
    return _Moments(gram, xty, y_mean, means, scales, X.shape, day_type_col)


def _min_norm_solve(m: _Moments, lam: float) -> np.ndarray:
    """Minimum-norm ``beta`` of ``(gram + lam I) beta = xty`` over the Gram's eigenvectors above rounding.

    Each eigenvector ``v`` whose eigenvalue ``w`` is above ``RANK_RTOL * (n + k)``
    times the largest carries ``(v . xty) / (w + lam)``, the others nothing.
    """
    w, V = np.linalg.eigh(m.gram)  # ascending
    keep = w > RANK_RTOL * (m.shape[0] + len(w)) * w[-1]
    V = V[:, keep]
    return V @ ((m.xty @ V) / (w[keep] + lam))


def fit_ols(X: np.ndarray, y: np.ndarray, *, day_type_col: int | None = None) -> LinearModel:
    """Minimum-norm least squares from the normal equations (:func:`_min_norm_solve`)."""
    return replace(fit_ridge(X, y, 0.0, day_type_col=day_type_col), penalty="none")


def fit_ridge(X: np.ndarray, y: np.ndarray, lam: float = 1.0, *, day_type_col: int | None = None) -> LinearModel:
    """Ridge regression: closed form on standardized features (:func:`_min_norm_solve`).

    ``lam`` is the coefficient of ||beta||^2 against the plain (unscaled)
    sum of squared residuals; the intercept is unpenalized.
    """
    check_setting("lam", lam)
    m = _moments(X, y, day_type_col)
    return m.model(_min_norm_solve(m, lam), "l2", lam)


def fit_lasso(
    X: np.ndarray,
    y: np.ndarray,
    lam: float | None = None,
    tol: float = 1e-8,
    max_iter: int = 10_000,
    *,
    day_type_col: int | None = None,
) -> LinearModel:
    """Lasso via cyclic coordinate descent with soft thresholding, on covariance updates.

    With ``G = Xs^T Xs / n`` and ``c = Xs^T (y - mean(y)) / n``, coordinate
    j moves to ``S(c_j - G_j . beta + G_jj beta_j, lam) / G_jj`` (S soft
    thresholding), so no sweep reads the rows. ``lam`` of None is a tenth
    of :func:`lasso_lambda_max`, the smallest all-zero penalty. Converged
    when the largest coefficient change in a sweep drops below ``tol``; if
    ``max_iter`` sweeps do not get there the model comes back with
    ``converged=False`` rather than failing silently.
    """
    if lam is not None:  # None: the default below
        check_setting("lam", lam)
    check_setting("tol", tol)
    check_setting("max_iter", max_iter)
    m = _moments(X, y, day_type_col)
    n = m.shape[0]
    G, c = m.gram / n, m.xty / n
    if lam is None:
        lam = 0.1 * float(np.abs(c).max())
    k = c.shape[0]
    diag, c_list = np.diag(G).tolist(), c.tolist()
    beta = np.zeros(k)
    converged = False
    for _ in range(max_iter):
        max_delta = 0.0
        for j in range(k):
            if diag[j] == 0.0:
                continue
            old = float(beta[j])
            rho = c_list[j] - float(G[j] @ beta) + diag[j] * old
            new = _soft_threshold(rho, lam) / diag[j]
            if new != old:
                beta[j] = new
                max_delta = max(max_delta, abs(new - old))
        if max_delta < tol:
            converged = True
            break
    return m.model(beta, "l1", lam, converged)


def _soft_threshold(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def lasso_lambda_max(X: np.ndarray, y: np.ndarray, *, day_type_col: int | None = None) -> float:
    """Smallest lasso penalty for which every coefficient is exactly zero.

    Computed from the same ``c = Xs^T (y - mean(y)) / n`` that coordinate
    descent starts from, so a fit at exactly this penalty really does keep
    every coefficient 0.
    """
    m = _moments(X, y, day_type_col)
    return float(np.abs(m.xty / m.shape[0]).max())
