"""Checks on what enters a model from outside: data and model documents.

Every fit entry calls :func:`training_data` and every predict entry
:func:`query_matrix`, so trees, ensembles and linear models accept and
reject the same inputs with the same :class:`~tripcast.errors.DataError`.
Non-finite values are refused outright: a NaN feature compares false with
every split threshold and poisons a least-squares solve, and a NaN target
turns every prediction into NaN. Targets are bounded too (:data:`TARGET_SUM_LIMIT`).

:func:`check_setting` is the one check of each tree and ensemble setting,
for fitters and model documents alike. The ``require*`` helpers check
persisted model documents, which come from outside the program too; they
raise :class:`~tripcast.errors.PersistError` with a ``malformed model
document: ...`` message.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError, PersistError

#: ``len(y) * max|y|`` stays below this, so a split scan's squared target sums stay finite.
TARGET_SUM_LIMIT = 1e154


def as_matrix(X) -> np.ndarray:
    """``X`` as a 2-D float64 array."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DataError(f"expected a 2-D feature matrix, got shape {X.shape}")
    return X


def training_data(X, y) -> tuple[np.ndarray, np.ndarray]:
    """A finite training matrix with at least one row and one column, and its bounded target, one per row."""
    X = as_matrix(X)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if X.shape[0] != y.shape[0]:
        raise DataError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if X.shape[0] == 0:
        raise DataError("cannot fit a model on empty data")
    if X.shape[1] == 0:
        raise DataError("cannot fit a model on a matrix with no feature columns")
    _require_finite(X)
    if not np.all(np.isfinite(y)):
        raise DataError("target contains NaN or infinite values")
    if y.shape[0] * float(np.max(np.abs(y))) >= TARGET_SUM_LIMIT:
        raise DataError(f"target too large: rows x max|y| must stay below {TARGET_SUM_LIMIT:g}")
    return X, y


def query_matrix(X, n_features: int) -> np.ndarray:
    """A finite query matrix with the arity the model was fit on."""
    X = as_matrix(X)
    if X.shape[1] != n_features:
        raise DataError(f"model was fit on {n_features} features, input has {X.shape[1]}")
    _require_finite(X)
    return X


def _require_finite(X: np.ndarray) -> None:
    if not np.all(np.isfinite(X)):
        raise DataError("feature matrix contains NaN or infinite values")


def require(ok: bool, problem: str) -> None:
    if not ok:
        raise PersistError(f"malformed model document: {problem}")


def require_keys(doc: object, keys: tuple[str, ...], what: str = "payload") -> None:
    require(isinstance(doc, dict), f"{what} is not an object")
    missing = [k for k in keys if k not in doc]  # type: ignore[operator]
    require(not missing, f"{what} lacks {', '.join(missing)}")


def is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite(value: object) -> bool:
    if not (is_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)  # type: ignore[arg-type]
    except OverflowError:  # an integer beyond the float range
        return False


#: What each tree and ensemble setting must be: a test of its value, and the
#: test in words. A learning rate in (0, 2] is the range for which no boosting
#: stage can raise the training loss.
_SETTINGS = {
    "n_estimators": (lambda v: is_int(v) and v >= 1, "an integer >= 1"),
    "max_depth": (lambda v: v is None or (is_int(v) and v >= 1), "an integer >= 1 or None"),
    "learning_rate": (lambda v: is_finite(v) and 0.0 < v <= 2.0, "a number in (0, 2]"),
    "feature_subsample": (lambda v: is_finite(v) and 0.0 < v <= 1.0, "a number in (0, 1]"),
    "bootstrap": (lambda v: isinstance(v, bool), "True or False"),
    "seed": (is_int, "an integer"),
}


def check_setting(name: str, value: object) -> None:
    """Refuse a bad ``value`` of the tree or ensemble setting ``name`` with a ``DataError``."""
    ok, what = _SETTINGS[name]
    if not ok(value):
        raise DataError(f"{name} must be {what}, got {value!r}")
