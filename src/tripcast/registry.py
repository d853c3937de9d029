"""Model registry: paper-style abbreviations -> configured estimators.

Every entry builds an object with the common ``fit(X, y)`` / ``predict(X)``
contract plus a persistable payload. ``xgb``, ``cb`` and ``lgb`` are
reserved names that fail loudly: the histogram GBM here stands in for that
family generically, and silently aliasing them would misattribute results
to the vendor libraries.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import ensembles, linear, trees
from .errors import DataError, PersistError, UsageError
from .featurize import DAY_TYPE_COLUMN, N_DAY_TYPES


class EnsembleEstimator:
    """fit/predict adapter around the ensemble fitters."""

    def __init__(self, kind: str, config: ensembles.EnsembleConfig):
        self.kind = kind
        self.config = config
        self.model: ensembles.EnsembleModel | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "EnsembleEstimator":
        if self.kind == "bagging":
            self.model = ensembles.fit_bagging(X, y, self.config)
        elif self.kind == "random_forest":
            self.model = ensembles.fit_random_forest(X, y, self.config)
        elif self.kind == "gbm_exact":
            self.model = ensembles.fit_gbm(X, y, self.config, mode="exact")
        elif self.kind == "gbm_hist":
            self.model = ensembles.fit_gbm(X, y, self.config, mode="hist")
        elif self.kind == "adaboost_r2":
            self.model = ensembles.fit_adaboost_r2(X, y, self.config)
        else:
            raise DataError(f"unknown ensemble kind {self.kind!r}")
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.model is None:
            raise DataError("model is not fitted")
        return ensembles.predict_ensemble_batch(self.model, np.asarray(X, dtype=np.float64))

    def to_payload(self) -> dict:
        if self.model is None:
            raise DataError("cannot persist an unfitted model")
        cfg = asdict(self.config)
        return {
            "config": cfg,
            "n_features": self.model.n_features,
            "base_prediction": self.model.base_prediction,
            "members": [
                {"tree": tree.to_dict(), "weight": weight} for tree, weight in self.model.members
            ],
        }

    @classmethod
    def from_payload(cls, kind: str, payload: dict) -> "EnsembleEstimator":
        """Rebuild a persisted ensemble; a malformed payload raises ``PersistError``."""
        _require_keys(payload, ("config", "n_features", "base_prediction", "members"))
        n_features, members = payload["n_features"], payload["members"]
        _require(_is_int(n_features) and n_features >= 1, "n_features is not a positive integer")
        _require(_is_finite(payload["base_prediction"]), "base_prediction is not a finite number")
        _require(isinstance(members, list) and len(members) > 0, "members is not a non-empty list")
        for member in members:
            _require_keys(member, ("tree", "weight"), "member")
            _require(_is_finite(member["weight"]), "a member weight is not a finite number")
        _require(isinstance(payload["config"], dict), "config is not an object")
        cfg_doc = dict(payload["config"])
        tree_doc = cfg_doc.pop("tree", None)
        try:
            tree_cfg = trees.TreeConfig(**tree_doc) if tree_doc is not None else None
            config = ensembles.EnsembleConfig(tree=tree_cfg, **cfg_doc)
            config.validate()
        except (TypeError, DataError) as exc:
            raise PersistError(f"malformed model document: config: {exc}") from exc
        est = cls(kind, config)
        est.model = ensembles.EnsembleModel(
            kind=kind,  # type: ignore[arg-type]
            n_features=n_features,
            base_prediction=float(payload["base_prediction"]),
            members=[(trees.Tree.from_dict(m["tree"], n_features), float(m["weight"])) for m in members],
            config=config,
        )
        return est


class LinearEstimator:
    """fit/predict adapter around the linear fitters (one-hot day type)."""

    kind = "linear"

    def __init__(
        self,
        penalty: str = "none",
        lam: float | None = None,
        day_type_col: int | None = DAY_TYPE_COLUMN,
    ):
        if penalty not in ("none", "l2", "l1"):
            raise DataError(f"unknown penalty {penalty!r}")
        self.penalty = penalty
        self.lam = lam
        self.day_type_col = day_type_col
        self.model: linear.LinearModel | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearEstimator":
        if self.penalty == "none":
            self.model = linear.fit_ols(X, y, day_type_col=self.day_type_col)
        elif self.penalty == "l2":
            lam = 1.0 if self.lam is None else self.lam
            self.model = linear.fit_ridge(X, y, lam, day_type_col=self.day_type_col)
        else:
            # Declared default: a tenth of the smallest all-zero penalty.
            lam = self.lam
            if lam is None:
                lam = 0.1 * linear.lasso_lambda_max(X, y, day_type_col=self.day_type_col)
            self.model = linear.fit_lasso(X, y, lam, day_type_col=self.day_type_col)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.model is None:
            raise DataError("model is not fitted")
        return self.model.predict(np.asarray(X, dtype=np.float64))

    def to_payload(self) -> dict:
        if self.model is None:
            raise DataError("cannot persist an unfitted model")
        return {"model": self.model.to_dict()}

    @classmethod
    def from_payload(cls, payload: dict) -> "LinearEstimator":
        """Rebuild a persisted linear model; a malformed payload raises ``PersistError``."""
        _require_keys(payload, ("model",))
        doc = payload["model"]
        _require_keys(doc, _LINEAR_FIELDS, "model")
        n_raw, col = doc["n_raw_features"], doc["day_type_col"]
        _require(_is_int(n_raw) and n_raw >= 1, "n_raw_features is not a positive integer")
        _require(col is None or (_is_int(col) and 0 <= col < n_raw), "day_type_col is out of range")
        width = n_raw if col is None else n_raw - 1 + N_DAY_TYPES
        for key in ("coefficients", "feature_means", "feature_scales"):
            values = doc[key]
            _require(
                isinstance(values, list) and len(values) == width and all(map(_is_finite, values)),
                f"{key} is not a list of {width} finite numbers",
            )
        _require(all(v != 0 for v in doc["feature_scales"]), "feature_scales holds a zero")
        _require(_is_finite(doc["intercept"]) and _is_finite(doc["lam"]), "intercept or lam is not a finite number")
        _require(doc["penalty"] in ("none", "l2", "l1"), f"unknown penalty {doc['penalty']!r}")
        _require(isinstance(doc["converged"], bool), "converged is not a boolean")
        model = linear.LinearModel.from_dict(doc)
        est = cls(penalty=model.penalty, lam=model.lam, day_type_col=model.day_type_col)
        est.model = model
        return est


_LINEAR_FIELDS = (
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


def _require(ok: bool, problem: str) -> None:
    if not ok:
        raise PersistError(f"malformed model document: {problem}")


def _require_keys(doc: object, keys: tuple[str, ...], what: str = "payload") -> None:
    _require(isinstance(doc, dict), f"{what} is not an object")
    missing = [k for k in keys if k not in doc]  # type: ignore[operator]
    _require(not missing, f"{what} lacks {', '.join(missing)}")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value: object) -> bool:
    if not (_is_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)  # type: ignore[arg-type]
    except OverflowError:  # an integer beyond the float range
        return False


@dataclass(slots=True, frozen=True)
class ModelRegistryEntry:
    abbreviation: str
    description: str
    build: Callable[..., object]


def _build_tree(seed: int, max_depth: int | None = None, **_: object) -> EnsembleEstimator:
    # A single tree is bagging with one member and no bootstrap; it takes no
    # n_estimators or learning_rate.
    cfg = ensembles.EnsembleConfig(
        n_estimators=1, bootstrap=False, tree=trees.TreeConfig(max_depth=max_depth), seed=seed
    )
    return EnsembleEstimator("bagging", cfg)


def _ensemble_builder(kind: str, default_depth: int | None):
    def build(
        seed: int,
        n_estimators: int | None = None,
        learning_rate: float | None = None,
        max_depth: int | None = None,
        **_: object,
    ) -> EnsembleEstimator:
        cfg = ensembles.EnsembleConfig(
            n_estimators=100 if n_estimators is None else n_estimators,
            learning_rate=0.1 if learning_rate is None else learning_rate,
            tree=trees.TreeConfig(max_depth=default_depth if max_depth is None else max_depth),
            seed=seed,
        )
        return EnsembleEstimator(kind, cfg)

    return build


def _linear_builder(penalty: str):
    def build(seed: int, lam: float | None = None, **_: object) -> LinearEstimator:
        return LinearEstimator(penalty=penalty, lam=lam)

    return build


REGISTRY: dict[str, ModelRegistryEntry] = {
    "lr": ModelRegistryEntry("lr", "linear regression (least squares)", _linear_builder("none")),
    "ri": ModelRegistryEntry("ri", "ridge regression (L2, default lam=1.0)", _linear_builder("l2")),
    "la": ModelRegistryEntry("la", "lasso (L1, default lam=0.1*lambda_max)", _linear_builder("l1")),
    "dt": ModelRegistryEntry("dt", "decision tree (exact CART)", _build_tree),
    "br": ModelRegistryEntry("br", "bagging of trees", _ensemble_builder("bagging", None)),
    "rf": ModelRegistryEntry("rf", "random forest", _ensemble_builder("random_forest", None)),
    "gb": ModelRegistryEntry("gb", "gradient boosting (exact splits)", _ensemble_builder("gbm_exact", 3)),
    "ab": ModelRegistryEntry("ab", "AdaBoost.R2", _ensemble_builder("adaboost_r2", 3)),
    "hgb": ModelRegistryEntry("hgb", "histogram gradient boosting", _ensemble_builder("gbm_hist", 3)),
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


def make_model(abbreviation: str, seed: int, **overrides: object):
    """Instantiate a registered model, or raise a UsageError."""
    abbr = abbreviation.strip().lower()
    if abbr in OUT_OF_SCOPE:
        raise UsageError(f"model {abbr!r} is not available: {OUT_OF_SCOPE[abbr]}")
    entry = REGISTRY.get(abbr)
    if entry is None:
        raise UsageError(
            f"unknown model {abbreviation!r}; valid abbreviations: {', '.join(sorted(REGISTRY))}"
        )
    return entry.build(seed, **overrides)


def model_from_payload(kind: str, payload: dict):
    """Rebuild a fitted estimator from a persisted payload."""
    if kind == "linear":
        return LinearEstimator.from_payload(payload)
    if kind in ("bagging", "random_forest", "gbm_exact", "gbm_hist", "adaboost_r2"):
        return EnsembleEstimator.from_payload(kind, payload)
    raise PersistError(f"unknown persisted model kind {kind!r}")
