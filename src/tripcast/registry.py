"""Model registry: paper-style abbreviations -> configured estimators.

Every entry builds an :class:`Estimator`: a fit function with its settings
bound (an ensemble fitter with its config, or a linear fitter with its
penalty), behind the common ``fit(X, y)`` / ``predict(X)`` contract. The
fitted model, not the adapter, predicts and writes and checks its own
persisted payload. ``xgb``, ``cb`` and ``lgb`` are reserved names that fail
loudly: the histogram GBM here stands in for that family generically, and
silently aliasing them would misattribute results to the vendor libraries.
:func:`model_name` is the one check of a model name, for the library and
the CLI alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import ensembles, linear, trees
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
    abbreviation: str
    description: str
    build: Callable[..., object]


def _build_tree(seed: int, max_depth: int | None = None, **_: object) -> Estimator:
    # A single tree is bagging with one member and no bootstrap; it takes no
    # n_estimators or learning_rate.
    cfg = ensembles.EnsembleConfig(
        n_estimators=1, bootstrap=False, tree=trees.TreeConfig(max_depth=max_depth), seed=seed
    )
    return Estimator("bagging", partial(ensembles.fit_bagging, cfg=cfg))


def _ensemble_builder(kind: str, default_depth: int | None, fit: Callable, **fit_options: object):
    def build(
        seed: int,
        n_estimators: int | None = None,
        learning_rate: float | None = None,
        max_depth: int | None = None,
        **_: object,
    ) -> Estimator:
        cfg = ensembles.EnsembleConfig(
            n_estimators=100 if n_estimators is None else n_estimators,
            learning_rate=0.1 if learning_rate is None else learning_rate,
            tree=trees.TreeConfig(max_depth=default_depth if max_depth is None else max_depth),
            seed=seed,
        )
        return Estimator(kind, partial(fit, cfg=cfg, **fit_options))

    return build


def _build_ols(seed: int, **_: object) -> Estimator:
    return Estimator("linear", partial(linear.fit_ols, day_type_col=DAY_TYPE_COLUMN))


def _build_ridge(seed: int, lam: float | None = None, **_: object) -> Estimator:
    lam = 1.0 if lam is None else lam
    return Estimator("linear", partial(linear.fit_ridge, lam=lam, day_type_col=DAY_TYPE_COLUMN))


def _build_lasso(seed: int, lam: float | None = None, **_: object) -> Estimator:
    def fit(X: np.ndarray, y: np.ndarray) -> linear.LinearModel:
        # Declared default: a tenth of the smallest all-zero penalty.
        penalty = 0.1 * linear.lasso_lambda_max(X, y, day_type_col=DAY_TYPE_COLUMN) if lam is None else lam
        return linear.fit_lasso(X, y, penalty, day_type_col=DAY_TYPE_COLUMN)

    return Estimator("linear", fit)


REGISTRY: dict[str, ModelRegistryEntry] = {
    "lr": ModelRegistryEntry("lr", "linear regression (least squares)", _build_ols),
    "ri": ModelRegistryEntry("ri", "ridge regression (L2, default lam=1.0)", _build_ridge),
    "la": ModelRegistryEntry("la", "lasso (L1, default lam=0.1*lambda_max)", _build_lasso),
    "dt": ModelRegistryEntry("dt", "decision tree (exact CART)", _build_tree),
    "br": ModelRegistryEntry(
        "br", "bagging of trees", _ensemble_builder("bagging", None, ensembles.fit_bagging)
    ),
    "rf": ModelRegistryEntry(
        "rf", "random forest", _ensemble_builder("random_forest", None, ensembles.fit_random_forest)
    ),
    "gb": ModelRegistryEntry(
        "gb",
        "gradient boosting (exact splits)",
        _ensemble_builder("gbm_exact", 3, ensembles.fit_gbm, mode="exact"),
    ),
    "ab": ModelRegistryEntry("ab", "AdaBoost.R2", _ensemble_builder("adaboost_r2", 3, ensembles.fit_adaboost_r2)),
    "hgb": ModelRegistryEntry(
        "hgb",
        "histogram gradient boosting",
        _ensemble_builder("gbm_hist", 3, ensembles.fit_gbm, mode="hist"),
    ),
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


def make_model(abbreviation: str, seed: int, **overrides: object) -> Estimator:
    """Instantiate a registered model, or raise a UsageError."""
    return REGISTRY[model_name(abbreviation)].build(seed, **overrides)


def model_from_payload(kind: str, payload: dict) -> Estimator:
    """Rebuild a fitted estimator from a persisted payload."""
    if kind == "linear":
        return Estimator(kind, None, linear.LinearModel.from_payload(payload))
    if kind in ("bagging", "random_forest", "gbm_exact", "gbm_hist", "adaboost_r2"):
        return Estimator(kind, None, ensembles.EnsembleModel.from_payload(kind, payload))
    raise PersistError(f"unknown persisted model kind {kind!r}")
