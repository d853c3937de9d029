"""Model registry: paper-style abbreviations -> configured estimators.

Every entry builds an :class:`Estimator`: a fit function with its settings
bound (an ensemble fitter with its tree settings, and the seed for a kind
that draws at random, or a linear fitter with its penalty), behind the
common ``fit(X, y)`` / ``predict(X)`` contract. The fitted model, not the
adapter, predicts and writes and checks its own persisted payload. Each
entry declares the settings its model takes, and :func:`make_model`
refuses any other. ``xgb``, ``cb`` and ``lgb`` are reserved names that
fail loudly: the histogram GBM here stands in for that family generically,
and silently aliasing them would misattribute results to the vendor
libraries.
:func:`model_name` is the one check of a model name, for the library and
the CLI alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import ensembles, linear
from .ensembles import fit_adaboost_r2, fit_bagging, fit_gbm, fit_random_forest
from .errors import DataError, PersistError, UsageError
from .featurize import DAY_TYPE_COLUMN


class Estimator:
    """fit/predict adapter: a bound fit function and the model it returned.

    ``fit`` is any ``(X, y) -> model`` callable; the model it returns (an
    :class:`~tripcast.ensembles.EnsembleModel` or a
    :class:`~tripcast.linear.LinearModel`) predicts and writes its own
    persisted payload. A loaded estimator has no fit function.
    """

    def __init__(self, kind: str, fit: Callable[[np.ndarray, np.ndarray], object] | None, model=None):
        self.kind = kind
        self._fit = fit
        self.model = model

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Estimator":
        if self._fit is None:
            raise UsageError("a loaded model cannot be refit; build a new one with make_model")
        self.model = self._fit(X, y)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.model is None:
            raise DataError("model is not fitted")
        return self.model.predict(X)

    def to_payload(self) -> dict:
        if self.model is None:
            raise DataError("cannot persist an unfitted model")
        return self.model.to_payload()


@dataclass(slots=True, frozen=True)
class ModelRegistryEntry:
    """A model's description, its builder ``build(seed, **settings)`` and the settings it takes."""

    description: str
    build: Callable[..., Estimator]
    settings: tuple[str, ...] = ()


def _ensemble(kind: str, fit: Callable, **fixed: object) -> Callable[..., Estimator]:
    """A builder of ``fit`` with ``fixed``, the settings passed, and the seed if ``kind`` takes one."""
    seeded = "seed" in ensembles.SETTINGS[kind]

    def build(seed: int, **settings: object) -> Estimator:
        if seeded:
            settings["seed"] = seed
        return Estimator(kind, partial(fit, **fixed, **settings))

    return build


def _linear(fit: Callable) -> Callable[..., Estimator]:
    """A builder of a linear ``fit`` given only the settings passed; ``fit`` declares their defaults."""

    def build(seed: int, **settings: object) -> Estimator:
        return Estimator("linear", partial(fit, day_type_col=DAY_TYPE_COLUMN, **settings))

    return build


_TREES = ("n_estimators", "max_depth")
_BOOSTING = (*_TREES, "learning_rate")

_EXACT, _HIST = partial(fit_gbm, mode="exact"), partial(fit_gbm, mode="hist")

REGISTRY: dict[str, ModelRegistryEntry] = {
    "lr": ModelRegistryEntry("linear regression (least squares)", _linear(linear.fit_ols)),
    "ri": ModelRegistryEntry("ridge regression (L2)", _linear(linear.fit_ridge), ("lam",)),
    "la": ModelRegistryEntry("lasso (L1)", _linear(linear.fit_lasso), ("lam",)),
    # A single tree is bagging with one member and no bootstrap.
    "dt": ModelRegistryEntry(
        "decision tree (exact CART)", _ensemble("bagging", fit_bagging, n_estimators=1, bootstrap=False), ("max_depth",)
    ),
    "br": ModelRegistryEntry("bagging of trees", _ensemble("bagging", fit_bagging), _TREES),
    "rf": ModelRegistryEntry("random forest", _ensemble("random_forest", fit_random_forest), _TREES),
    "gb": ModelRegistryEntry("gradient boosting (exact splits)", _ensemble("gbm_exact", _EXACT), _BOOSTING),
    "ab": ModelRegistryEntry("AdaBoost.R2", _ensemble("adaboost_r2", fit_adaboost_r2), _TREES),
    "hgb": ModelRegistryEntry("histogram gradient boosting", _ensemble("gbm_hist", _HIST), _BOOSTING),
}

#: Reserved vendor-library names; requesting one is an explicit error.
OUT_OF_SCOPE = {
    "xgb": "extreme gradient boosting is out of scope; its regularized second-order "
    "objective is not reimplemented here. Use 'gb' or 'hgb'.",
    "cb": "catboost is out of scope; ordered boosting is not reimplemented here. "
    "Use 'gb' or 'hgb'.",
    "lgb": "light gradient boosting is out of scope as a vendor reimplementation; "
    "'hgb' is this package's histogram GBM of that family.",
}


def model_name(abbreviation: str) -> str:
    """The registry key for ``abbreviation``, or a UsageError naming the valid ones."""
    abbr = abbreviation.strip().lower()
    if abbr in OUT_OF_SCOPE:
        raise UsageError(f"model {abbr!r} is not available: {OUT_OF_SCOPE[abbr]}")
    if abbr not in REGISTRY:
        raise UsageError(f"unknown model {abbr!r}; valid abbreviations: {', '.join(sorted(REGISTRY))}")
    return abbr


def make_model(abbreviation: str, seed: int, **settings: object) -> Estimator:
    """Instantiate a registered model with some of its settings, or raise a UsageError.

    A setting the model does not declare is refused, not ignored.
    """
    name = model_name(abbreviation)
    entry = REGISTRY[name]
    undeclared = sorted(set(settings) - set(entry.settings))
    if undeclared:
        takes = ", ".join(entry.settings) or "no settings"
        raise UsageError(f"model {name!r} does not take {', '.join(undeclared)}; it takes {takes}")
    return entry.build(seed, **settings)


def model_from_payload(kind: str, payload: dict) -> Estimator:
    """Rebuild a fitted estimator from a persisted payload."""
    if kind == "linear":
        return Estimator(kind, None, linear.LinearModel.from_payload(payload))
    if kind in ("bagging", "random_forest", "gbm_exact", "gbm_hist", "adaboost_r2"):
        return Estimator(kind, None, ensembles.EnsembleModel.from_payload(kind, payload))
    raise PersistError(f"unknown persisted model kind {kind!r}")
