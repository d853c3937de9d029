"""Checks on what enters a model from outside: data and model documents.

Every fit entry calls :func:`training_data` and every predict entry
:func:`query_matrix` and :func:`finite_predictions`, so trees, ensembles and
linear models accept and reject the same inputs with the same
:class:`~tripcast.errors.DataError`. Non-finite values are refused outright:
a NaN feature compares false with every split threshold and poisons a
least-squares solve, and a NaN target turns every prediction into NaN.
Targets are bounded too (:data:`TARGET_SUM_LIMIT`).

:func:`check_setting` is the one check of each model setting, by the rules
of :data:`SETTING_RULES`, for fitters and model documents alike. The
``require*`` helpers check persisted model documents, which come from
outside the program too; they raise :class:`~tripcast.errors.PersistError`
with a ``malformed model document: ...`` message. :func:`input_file` is
the one check of a path the program reads (a stops CSV, a generator config
or a model document), and :func:`read_input_text` its bounded whole-file reader.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DataError, PersistError

#: ``len(y) * max|y|`` stays below this, so a split scan's squared target sums stay finite.
TARGET_SUM_LIMIT = 1e154


def input_file(path: str | Path, what: str, error: type[DataError] = DataError) -> Path:
    """``path`` as a ``Path`` if it names a regular file (or a link to one); else ``error`` naming it."""
    path = Path(path)
    if not path.exists():
        raise error(f"{what} not found: {path}")
    if not path.is_file():
        raise error(f"{what} {path} is not a regular file")
    return path


def read_input_text(path: str | Path, what: str, limit: int, error: type[DataError] = DataError) -> str:
    """The UTF-8 text of the file at ``path``; ``error`` if over ``limit`` bytes (checked before opening), not UTF-8, or resized."""
    path = input_file(path, what, error)
    size = path.stat().st_size
    if size > limit:
        raise error(f"{what} {path} has {size} bytes, over the {limit} it may have")
    with path.open("rb") as handle:
        data = handle.read(size + 1)
    if len(data) != size:
        raise error(f"{what} {path} changed size while it was read")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8: {exc}") from exc


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


def finite_predictions(predict: Callable[..., np.ndarray]) -> Callable[..., np.ndarray]:
    """``predict``, refusing as a ``DataError`` a prediction that finite parameters overflowed to inf or NaN."""

    @functools.wraps(predict)
    def checked(*args) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, so not also a warning
            predictions = predict(*args)
        bad = np.flatnonzero(~np.isfinite(predictions))
        if bad.size:
            raise DataError(f"model predicts a non-finite value for {bad.size} row(s), the first row {bad[0]}")
        return predictions

    return checked


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


#: What each model setting must be: a test of its value, the test in words,
#: and the type a command-line flag parses it to. A learning rate in (0, 2] is
#: the range for which no boosting stage can raise the training loss. The
#: command line offers, in this order, the settings some registry model takes.
SETTING_RULES = {
    "n_estimators": (lambda v: is_int(v) and v >= 1, "an integer >= 1", int),
    "learning_rate": (lambda v: is_finite(v) and 0.0 < v <= 2.0, "a number in (0, 2]", float),
    "max_depth": (lambda v: v is None or (is_int(v) and v >= 1), "an integer >= 1 or None", int),
    "lam": (lambda v: is_finite(v) and v >= 0, "a finite number >= 0", float),
    "tol": (lambda v: is_finite(v) and v > 0, "a finite number > 0", float),
    "max_iter": (lambda v: is_int(v) and v >= 1, "an integer >= 1", int),
    "feature_subsample": (lambda v: is_finite(v) and 0.0 < v <= 1.0, "a number in (0, 1]", float),
    "bootstrap": (lambda v: isinstance(v, bool), "True or False", bool),
    "seed": (is_int, "an integer", int),
}


def check_setting(name: str, value: object) -> None:
    """Refuse a bad ``value`` of the model setting ``name`` with a ``DataError``."""
    ok, what, _ = SETTING_RULES[name]
    if not ok(value):
        raise DataError(f"{name} must be {what}, got {value!r}")
