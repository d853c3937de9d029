"""Linear baselines: ordinary least squares, ridge, and lasso.

All three standardize features to zero mean and unit variance, leave the
intercept unpenalized, and can one-hot expand a day-of-week column (trees
split the ordinal directly; a linear model needs the indicator encoding).
OLS and ridge solve the normal equations with a tiny diagonal jitter for
rank deficiency; lasso runs cyclic coordinate descent with soft
thresholding.

Objectives (on standardized features, intercept b):
  OLS / ridge:  sum (y - Xb)^2  [+ lam * ||beta||^2]
  lasso:        (1/2n) sum (y - Xb)^2 + lam * ||beta||_1
so ``lasso_lambda_max`` = max_j |<x_j, y - mean(y)>| / n is the smallest
penalty that zeroes every coefficient.

Every fit entry and ``LinearModel.predict`` check their inputs with
:mod:`tripcast.checks`, so NaN or infinite data is a ``DataError`` here as
it is for the trees. :class:`LinearModel` owns its persisted form: its
``from_dict`` checks a document before rebuilding from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import is_finite, is_int, query_matrix, require, require_keys, training_data
from .errors import DataError
from .featurize import N_DAY_TYPES

#: Diagonal jitter applied to the normal equations (rank-deficiency guard).
SOLVE_JITTER = 1e-10


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

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = query_matrix(X, self.n_raw_features)
        Xe = expand_day_type(X, self.day_type_col)
        Xs = Xe - self.feature_means  # a new array even when Xe is the caller's X
        Xs /= self.feature_scales
        return Xs @ self.coefficients + self.intercept

    def to_dict(self) -> dict:
        return {
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

    def to_payload(self) -> dict:
        return {"model": self.to_dict()}

    @classmethod
    def from_payload(cls, payload: dict) -> "LinearModel":
        require_keys(payload, ("model",))
        return cls.from_dict(payload["model"])

    @classmethod
    def from_dict(cls, doc: dict) -> "LinearModel":
        """Rebuild a persisted model; a malformed document raises ``PersistError``."""
        require_keys(doc, _FIELDS, "model")
        n_raw, col = doc["n_raw_features"], doc["day_type_col"]
        require(is_int(n_raw) and n_raw >= 1, "n_raw_features is not a positive integer")
        require(col is None or (is_int(col) and 0 <= col < n_raw), "day_type_col is out of range")
        width = n_raw if col is None else n_raw - 1 + N_DAY_TYPES
        for key in ("coefficients", "feature_means", "feature_scales"):
            values = doc[key]
            require(
                isinstance(values, list) and len(values) == width and all(map(is_finite, values)),
                f"{key} is not a list of {width} finite numbers",
            )
        require(all(v != 0 for v in doc["feature_scales"]), "feature_scales holds a zero")
        require(is_finite(doc["intercept"]) and is_finite(doc["lam"]), "intercept or lam is not a finite number")
        require(doc["penalty"] in ("none", "l2", "l1"), f"unknown penalty {doc['penalty']!r}")
        require(isinstance(doc["converged"], bool), "converged is not a boolean")
        return cls(
            coefficients=np.asarray(doc["coefficients"], dtype=np.float64),
            intercept=float(doc["intercept"]),
            feature_means=np.asarray(doc["feature_means"], dtype=np.float64),
            feature_scales=np.asarray(doc["feature_scales"], dtype=np.float64),
            penalty=str(doc["penalty"]),
            lam=float(doc["lam"]),
            day_type_col=doc["day_type_col"],
            n_raw_features=int(doc["n_raw_features"]),
            converged=bool(doc["converged"]),
        )


_FIELDS = (
    "coefficients",
    "intercept",
    "feature_means",
    "feature_scales",
    "penalty",
    "lam",
    "day_type_col",
    "n_raw_features",
    "converged",
)


def expand_day_type(X: np.ndarray, day_type_col: int | None) -> np.ndarray:
    """Replace the day-type ordinal column with 7 one-hot indicator columns.

    The indicator columns are appended after the remaining features, in
    day order Monday..Sunday. ``None`` returns ``X`` unchanged. A value
    other than an integer 0..6 is a ``DataError``, not a day.
    """
    if day_type_col is None:
        return X
    if not 0 <= day_type_col < X.shape[1]:
        raise DataError(f"day_type_col {day_type_col} out of range")
    day = X[:, day_type_col]
    if not np.isin(day, np.arange(N_DAY_TYPES)).all():
        raise DataError(f"day-type column {day_type_col} holds a value that is not an integer 0..{N_DAY_TYPES - 1}")
    rest = np.delete(X, day_type_col, axis=1)
    onehot = np.zeros((X.shape[0], N_DAY_TYPES))
    onehot[np.arange(X.shape[0]), day.astype(np.int64)] = 1.0
    return np.hstack([rest, onehot])


def _standardize(Xe: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    means = Xe.mean(axis=0)
    scales = Xe.std(axis=0)
    scales = np.where(scales == 0.0, 1.0, scales)
    return (Xe - means) / scales, means, scales


def fit_ols(X: np.ndarray, y: np.ndarray, *, day_type_col: int | None = None) -> LinearModel:
    """Least squares via the normal equations (with diagonal jitter)."""
    return fit_ridge(X, y, 0.0, day_type_col=day_type_col, _penalty="none")


def fit_ridge(
    X: np.ndarray,
    y: np.ndarray,
    lam: float = 1.0,
    *,
    day_type_col: int | None = None,
    _penalty: str = "l2",
) -> LinearModel:
    """Ridge regression: closed form on standardized features.

    ``lam`` is the coefficient of ||beta||^2 against the plain (unscaled)
    sum of squared residuals; the intercept is unpenalized.
    """
    if lam < 0:
        raise DataError("ridge penalty must be >= 0")
    X, y = training_data(X, y)
    Xe = expand_day_type(X, day_type_col)
    Xs, means, scales = _standardize(Xe)
    y_mean = float(np.mean(y))
    yc = y - y_mean
    k = Xs.shape[1]
    gram = Xs.T @ Xs + (lam + SOLVE_JITTER) * np.eye(k)
    beta = np.linalg.solve(gram, Xs.T @ yc)
    return LinearModel(
        coefficients=beta,
        intercept=y_mean,
        feature_means=means,
        feature_scales=scales,
        penalty=_penalty,
        lam=lam,
        day_type_col=day_type_col,
        n_raw_features=X.shape[1],
    )


def fit_lasso(
    X: np.ndarray,
    y: np.ndarray,
    lam: float | None = None,
    tol: float = 1e-8,
    max_iter: int = 10_000,
    *,
    day_type_col: int | None = None,
) -> LinearModel:
    """Lasso via cyclic coordinate descent with soft thresholding.

    ``lam`` of None is a tenth of :func:`lasso_lambda_max`, the smallest
    all-zero penalty. Converged when the largest coefficient change in a
    sweep drops below ``tol``; if ``max_iter`` sweeps do not get there the
    model comes back with ``converged=False`` rather than failing silently.
    """
    if lam is None:
        lam = 0.1 * lasso_lambda_max(X, y, day_type_col=day_type_col)
    if lam < 0:
        raise DataError("lasso penalty must be >= 0")
    X, y = training_data(X, y)
    Xe = expand_day_type(X, day_type_col)
    Xs, means, scales = _standardize(Xe)
    y_mean = float(np.mean(y))
    yc = y - y_mean

    n, k = Xs.shape
    col_sq = np.einsum("ij,ij->j", Xs, Xs) / n
    beta = np.zeros(k)
    residual = yc.copy()
    converged = False
    for _ in range(max_iter):
        max_delta = 0.0
        for j in range(k):
            if col_sq[j] == 0.0:
                continue
            old = beta[j]
            rho = (Xs[:, j] @ residual) / n + col_sq[j] * old
            new = _soft_threshold(rho, lam) / col_sq[j]
            if new != old:
                residual -= (new - old) * Xs[:, j]
                beta[j] = new
                max_delta = max(max_delta, abs(new - old))
        if max_delta < tol:
            converged = True
            break
    return LinearModel(
        coefficients=beta,
        intercept=y_mean,
        feature_means=means,
        feature_scales=scales,
        penalty="l1",
        lam=lam,
        day_type_col=day_type_col,
        n_raw_features=X.shape[1],
        converged=converged,
    )


def _soft_threshold(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def lasso_lambda_max(
    X: np.ndarray, y: np.ndarray, *, day_type_col: int | None = None
) -> float:
    """Smallest lasso penalty for which every coefficient is exactly zero.

    Computed with the same per-column dot products coordinate descent uses,
    so a fit at exactly this penalty really does keep every coefficient 0.
    """
    X, y = training_data(X, y)
    Xe = expand_day_type(X, day_type_col)
    Xs, _, _ = _standardize(Xe)
    yc = y - np.mean(y)
    n = X.shape[0]
    return max(abs(float(Xs[:, j] @ yc)) / n for j in range(Xs.shape[1]))

