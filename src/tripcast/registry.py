"""Model registry: paper-style abbreviations -> configured estimators.

Every entry holds its fitted kind, its fit function with the fixed
arguments bound, and the settings its model takes. :func:`make_model` is
the one builder: it refuses any other setting, binds those passed (and the
seed, for a model that draws at random) and returns an :class:`Estimator`
behind the common ``fit(X, y)`` / ``predict(X)`` contract. The fitted
model, not the adapter, predicts and writes and checks its own persisted
payload. ``xgb``, ``cb`` and ``lgb`` are reserved names that
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
    """A model's description, fitted kind, fit function with its fixed arguments, and the settings it takes."""

    description: str
    kind: str
    fit: partial
    settings: tuple[str, ...] = ()


def _linear(description: str, fit: Callable, settings: tuple[str, ...] = ()) -> ModelRegistryEntry:
    """The entry of a linear ``fit``, which expands the day-type column and declares its settings' defaults."""
    return ModelRegistryEntry(description, "linear", partial(fit, day_type_col=DAY_TYPE_COLUMN), settings)


_TREES = ("n_estimators", "max_depth")
_BOOSTING = (*_TREES, "learning_rate")

REGISTRY: dict[str, ModelRegistryEntry] = {
    "lr": _linear("linear regression (least squares)", linear.fit_ols),
    "ri": _linear("ridge regression (L2)", linear.fit_ridge, ("lam",)),
    "la": _linear("lasso (L1)", linear.fit_lasso, ("lam",)),
    # A single tree is bagging with one member and no bootstrap. It draws nothing
    # at random, so it keeps bagging's default seed whatever seed it is built with.
    "dt": ModelRegistryEntry(
        "decision tree (exact CART)",
        "bagging",
        partial(fit_bagging, n_estimators=1, bootstrap=False, seed=ensembles.SETTINGS["bagging"]["seed"]),
        ("max_depth",),
    ),
    "br": ModelRegistryEntry("bagging of trees", "bagging", partial(fit_bagging), _TREES),
    "rf": ModelRegistryEntry("random forest", "random_forest", partial(fit_random_forest), _TREES),
    "gb": ModelRegistryEntry("gradient boosting (exact splits)", "gbm_exact", partial(fit_gbm, mode="exact"), _BOOSTING),
    "ab": ModelRegistryEntry("AdaBoost.R2", "adaboost_r2", partial(fit_adaboost_r2), _TREES),
    "hgb": ModelRegistryEntry("histogram gradient boosting", "gbm_hist", partial(fit_gbm, mode="hist"), _BOOSTING),
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
    if "seed" in ensembles.SETTINGS.get(entry.kind, ()) and "seed" not in entry.fit.keywords:
        settings["seed"] = seed
    return Estimator(entry.kind, partial(entry.fit, **settings))


def model_from_payload(kind: str, payload: dict) -> Estimator:
    """Rebuild a fitted estimator from a persisted payload."""
    if kind == "linear":
        return Estimator(kind, None, linear.LinearModel.from_payload(payload))
    if isinstance(kind, str) and kind in ensembles.SETTINGS:
        return Estimator(kind, None, ensembles.EnsembleModel.from_payload(kind, payload))
    raise PersistError(f"unknown persisted model kind {kind!r}")
