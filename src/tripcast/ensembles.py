"""Tree ensembles: bagging, random forest, gradient boosting, AdaBoost.R2.

All four are built on the regression trees in :mod:`tripcast.trees`:

* bagging averages trees fit on bootstrap resamples;
* random forest adds per-node feature subsampling;
* gradient boosting fits each stage's tree to the current residuals and
  adds it scaled by the learning rate (exact or histogram split finding);
* AdaBoost.R2 fits trees on weighted bootstrap resamples, reweights samples
  by the linear loss (absolute error over the largest one), and predicts
  with the weighted median of the members.

Bagging, random forest and AdaBoost members are exact trees grown level by
level (:func:`~tripcast.trees.grow_exact`); gradient-boosting stages are
grown depth-first over every feature and also give the leaf of every
training row. The columns a stage scans are built once per fit and shared
by all stages: the presort and a row-membership mask (exact), or the
(feature, bin) key of every value, binned from the training rows
(histogram, a dense feature x bin table per node).

Training data is checked once per fit (:mod:`tripcast.checks`) and brought
into canonical order before any bootstrap index is drawn, so fitted models
are deterministic in (data, settings) and invariant to input row order.
A sorted resample of a canonical table is itself canonical, so members grow
from it directly without a second check or sort. Members are flat
:class:`~tripcast.trees.Tree` records, descended one at a time over a
feature-major copy of the query and combined in member order; AdaBoost.R2
holds its canonical rows only feature-major. A single decision tree is a
one-member bagging ensemble without bootstrap.

Each kind takes the settings :data:`SETTINGS` declares for it, by keyword,
and no others; the fitted :class:`EnsembleModel` records them all, filled in
with the kind's defaults. It owns its persisted form (``to_payload`` /
``from_payload``), which checks a document's settings as a fit does before
rebuilding from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .checks import check_setting, is_finite, is_int, require, require_keys, training_data
from .errors import DataError, PersistError
from .rng import derive_seed, substream
from .trees import (
    BinnedColumns,
    ExactColumns,
    Tree,
    _grow,
    canonical_rows,
    descend,
    feature_major,
    grow_exact,
)

EnsembleKind = Literal["bagging", "random_forest", "gbm_exact", "gbm_hist", "adaboost_r2"]

#: Average losses below this are treated as a perfect fit (see fit_adaboost_r2).
PERFECT_LOSS_EPS = 1e-10

_BOOSTING = {"n_estimators": 100, "max_depth": 3, "learning_rate": 0.1}

#: Each kind's settings and their defaults: a fitter takes these and no
#: others. Bagging and random forest grow unlimited trees by default; only
#: random forest subsamples features, and it always draws bootstrap
#: resamples. Boosting stages split over every feature, and gradient
#: boosting draws nothing at random.
SETTINGS: dict[EnsembleKind, dict[str, object]] = {
    "bagging": {"n_estimators": 100, "max_depth": None, "bootstrap": True, "seed": 0},
    "random_forest": {"n_estimators": 100, "max_depth": None, "feature_subsample": 1.0 / 3.0, "seed": 0},
    "gbm_exact": _BOOSTING,
    "gbm_hist": _BOOSTING,
    "adaboost_r2": {"n_estimators": 100, "max_depth": 3, "seed": 0},
}


def _kind_settings(kind: EnsembleKind, given: dict[str, object]) -> dict[str, object]:
    """``kind``'s settings: its defaults with ``given`` in their place, each checked.

    A name the kind does not take is a ``DataError``, not ignored.
    """
    defaults = SETTINGS[kind]
    for name in given:
        if name not in defaults:
            raise DataError(f"{kind} does not take {name}; it takes {', '.join(defaults)}")
    settings = {**defaults, **given}
    for name, value in settings.items():
        check_setting(name, value)
    return settings


@dataclass(slots=True)
class EnsembleModel:
    """A fitted ensemble: member trees with stage weights.

    ``base_prediction`` is the training-target mean for boosting and unused
    otherwise. ``settings`` holds every setting of the kind (:data:`SETTINGS`)
    the model was fit with. ``train_mse`` tracks the training error after
    each boosting stage (kept in memory only, not persisted).
    """

    kind: EnsembleKind
    n_features: int
    base_prediction: float
    members: list[tuple[Tree, float]]
    settings: dict[str, object]
    train_mse: list[float] = field(default_factory=list)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return predict_ensemble_batch(self, X)

    def to_payload(self) -> dict:
        return {
            "settings": dict(self.settings),
            "n_features": self.n_features,
            "base_prediction": self.base_prediction,
            "members": [{"tree": tree.to_dict(), "weight": weight} for tree, weight in self.members],
        }

    @classmethod
    def from_payload(cls, kind: EnsembleKind, payload: dict) -> "EnsembleModel":
        """Rebuild a persisted ensemble; a malformed payload raises ``PersistError``."""
        require_keys(payload, ("settings", "n_features", "base_prediction", "members"))
        n_features, members = payload["n_features"], payload["members"]
        require(is_int(n_features) and n_features >= 1, "n_features is not a positive integer")
        require(is_finite(payload["base_prediction"]), "base_prediction is not a finite number")
        require(isinstance(members, list) and len(members) > 0, "members is not a non-empty list")
        for member in members:
            require_keys(member, ("tree", "weight"), "member")
            require(is_finite(member["weight"]), "a member weight is not a finite number")
        require_keys(payload["settings"], tuple(SETTINGS[kind]), "settings")
        try:
            settings = _kind_settings(kind, payload["settings"])
        except DataError as exc:
            raise PersistError(f"malformed model document: settings: {exc}") from exc
        return cls(
            kind=kind,
            n_features=n_features,
            base_prediction=float(payload["base_prediction"]),
            members=[(Tree.from_dict(m["tree"], n_features), float(m["weight"])) for m in members],
            settings=settings,
        )


def _prepare(X, y, kind: EnsembleKind, given: dict[str, object]):
    """``kind``'s checked settings, and the checked data in canonical order."""
    return (_kind_settings(kind, given), *canonical_rows(*training_data(X, y)))


def fit_bagging(X: np.ndarray, y: np.ndarray, **settings: object) -> EnsembleModel:
    """Average of trees fit on bootstrap resamples (size n, with replacement), or on the rows themselves."""
    settings, Xc, yc = _prepare(X, y, "bagging", settings)
    return _fit_averaged(Xc, yc, "bagging", settings, settings["bootstrap"], 1.0)


def fit_random_forest(X: np.ndarray, y: np.ndarray, **settings: object) -> EnsembleModel:
    """Bagging plus per-node random feature subsampling."""
    settings, Xc, yc = _prepare(X, y, "random_forest", settings)
    return _fit_averaged(Xc, yc, "random_forest", settings, True, settings["feature_subsample"])


def _fit_averaged(
    Xc, yc, kind: EnsembleKind, settings: dict, bootstrap: bool, subsample: float
) -> EnsembleModel:
    members: list[tuple[Tree, float]] = []
    n = Xc.shape[0]
    for m in range(settings["n_estimators"]):
        if bootstrap:
            rng = substream(settings["seed"], "bootstrap", m)
            idx = np.sort(rng.integers(0, n, size=n))
        else:
            idx = np.arange(n)
        seed = derive_seed(settings["seed"], "member-tree", m)
        members.append((grow_exact(Xc[idx], yc[idx], settings["max_depth"], subsample, seed), 1.0))
    return EnsembleModel(
        kind=kind,
        n_features=Xc.shape[1],
        base_prediction=0.0,
        members=members,
        settings=settings,
    )


def fit_gbm(
    X: np.ndarray, y: np.ndarray, mode: Literal["exact", "hist"] = "exact", **settings: object
) -> EnsembleModel:
    """Forward stagewise squared-loss boosting.

    Starts from the target mean; each stage fits a tree to the current
    residuals (exact or histogram split finding) and adds it scaled by the
    learning rate. Residual trees hold leaf-mean residuals, so with a
    learning rate in (0, 2] the training MSE cannot increase across stages;
    the per-stage values are recorded in ``train_mse``.
    """
    if mode not in ("exact", "hist"):
        raise DataError(f"unknown gbm mode {mode!r}")
    kind: EnsembleKind = "gbm_hist" if mode == "hist" else "gbm_exact"
    settings, Xc, yc = _prepare(X, y, kind, settings)
    n = Xc.shape[0]

    columns = BinnedColumns(Xc) if mode == "hist" else ExactColumns(Xc)
    base = float(np.sum(yc) / n)
    current = np.full(n, base)
    members: list[tuple[Tree, float]] = []
    train_mse: list[float] = []
    nu = settings["learning_rate"]
    for _ in range(settings["n_estimators"]):
        # Growth routed the training rows with the same `<=` test a
        # prediction would, so their leaves give the stage's predictions.
        tree, leaf_of = _grow(Xc, yc - current, settings["max_depth"], columns)
        members.append((tree, nu))
        current = current + nu * tree.value[leaf_of]
        train_mse.append(float(np.mean((yc - current) ** 2)))
    return EnsembleModel(
        kind=kind,
        n_features=Xc.shape[1],
        base_prediction=base,
        members=members,
        settings=settings,
        train_mse=train_mse,
    )


def fit_adaboost_r2(X: np.ndarray, y: np.ndarray, **settings: object) -> EnsembleModel:
    """AdaBoost for regression with weighted-median combination.

    Each stage resamples the training set in proportion to the sample
    weights, fits a tree, and takes the linear loss: per-sample absolute
    errors over the largest one. The stage survives with weight ln(1/beta)
    where beta = avg_loss / (1 - avg_loss); sample weights are multiplied
    by beta^(1 - loss). Boosting stops early when a stage's average loss
    reaches 0.5 (the stage is discarded unless it is the only one) or when
    a stage is essentially perfect (average loss below ``PERFECT_LOSS_EPS``,
    which gets a large finite weight instead of a division by zero).
    """
    settings, Xc, yc = _prepare(X, y, "adaboost_r2", settings)
    cols = np.ascontiguousarray(Xc.T)
    del Xc  # stages grow on rows of cols.T: one copy of the table, not two
    n = yc.shape[0]
    sample_weight = np.full(n, 1.0 / n)
    members: list[tuple[Tree, float]] = []
    for m in range(settings["n_estimators"]):
        rng = substream(settings["seed"], "resample", m)
        idx = np.sort(rng.choice(n, size=n, replace=True, p=sample_weight))
        tree = grow_exact(cols.T[idx], yc[idx], settings["max_depth"])  # every feature is a candidate

        error = np.abs(descend(tree, cols) - yc)
        error_max = float(error.max())
        loss = error / error_max if error_max > 0 else np.zeros(n)

        avg_loss = float(np.sum(sample_weight * loss))
        if avg_loss < PERFECT_LOSS_EPS:
            members.append((tree, math.log(1.0 / PERFECT_LOSS_EPS)))
            break
        if avg_loss >= 0.5:
            if not members:
                # Sole, bad learner: keep it so the model can predict at all.
                members.append((tree, 1.0))
            break
        beta = avg_loss / (1.0 - avg_loss)
        members.append((tree, math.log(1.0 / beta)))
        sample_weight = sample_weight * np.power(beta, 1.0 - loss)
        sample_weight = sample_weight / np.sum(sample_weight)
    return EnsembleModel(
        kind="adaboost_r2",
        n_features=cols.shape[0],
        base_prediction=0.0,
        members=members,
        settings=settings,
    )


def predict_ensemble_batch(model: EnsembleModel, X: np.ndarray) -> np.ndarray:
    """Row-matrix prediction: mean, boosted sum, or weighted median by kind.

    Members are descended one at a time over a feature-major copy of ``X``;
    besides it and AdaBoost's member predictions the working set is a few
    arrays of one entry per row. Sums run in member order.
    """
    cols = feature_major(X, model.n_features)
    if not model.members:
        raise DataError("ensemble has no members")

    if model.kind in ("bagging", "random_forest"):
        total = np.zeros(cols.shape[1])
        for tree, _ in model.members:
            total += descend(tree, cols)
        return total / len(model.members)

    if model.kind in ("gbm_exact", "gbm_hist"):
        out = np.full(cols.shape[1], model.base_prediction)
        for tree, weight in model.members:
            out += weight * descend(tree, cols)
        return out

    if model.kind == "adaboost_r2":
        preds = np.empty((cols.shape[1], len(model.members)))
        for j, (tree, _) in enumerate(model.members):
            preds[:, j] = descend(tree, cols)
        weights = np.array([w for _, w in model.members])
        return weighted_median(preds, weights)

    raise DataError(f"unknown ensemble kind {model.kind!r}")


def weighted_median(predictions: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row-wise weighted median of member predictions.

    For each row, member predictions are sorted and the first one whose
    cumulative weight reaches half the total is returned. Only the picked
    member is gathered through the sort order, and the cumulative weights
    are summed in place, so the temporaries are one index matrix, one
    weight matrix and one boolean mask.
    """
    order = np.argsort(predictions, axis=1, kind="stable")
    cum = weights[order]
    np.cumsum(cum, axis=1, out=cum)
    half = 0.5 * cum[:, -1:]
    pick = np.argmax(cum >= half, axis=1)
    member = np.take_along_axis(order, pick[:, None], axis=1)
    return np.take_along_axis(predictions, member, axis=1)[:, 0]
