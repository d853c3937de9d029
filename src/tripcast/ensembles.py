"""Tree ensembles: bagging, random forest, gradient boosting, AdaBoost.R2.

All four are built on the regression trees in :mod:`tripcast.trees`:

* bagging averages trees fit on bootstrap resamples;
* random forest adds per-node feature subsampling;
* gradient boosting fits each stage's tree to the current residuals and
  adds it scaled by the learning rate (exact or histogram split finding);
* AdaBoost.R2 fits trees on weighted bootstrap resamples, reweights samples
  by normalized absolute loss, and predicts with the weighted median of the
  members.

Training data is checked once per fit (:mod:`tripcast.checks`) and brought
into canonical order before any bootstrap index is drawn, so fitted models
are deterministic in (data, config, seed) and invariant to input row order.
A sorted resample of a canonical table is itself canonical, so members grow
from it directly without a second check or sort. Members are flat
:class:`~tripcast.trees.Tree` records; prediction descends them one at a
time and combines their values in member order. A single decision tree is a
one-member bagging ensemble without bootstrap.

:class:`EnsembleModel` owns its persisted form (``to_payload`` /
``from_payload``), which checks a document before rebuilding from it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Literal

import numpy as np

from .checks import is_finite, is_int, require, require_keys, training_data
from .errors import DataError, PersistError
from .rng import derive_seed, substream
from .trees import (
    Tree,
    TreeConfig,
    _FitData,
    _grow,
    build_bins,
    canonical_rows,
    column_presort,
    descend,
    row_major,
)

EnsembleKind = Literal["bagging", "random_forest", "gbm_exact", "gbm_hist", "adaboost_r2"]

ADABOOST_LOSSES = ("linear", "square", "exponential")

#: Average losses below this are treated as a perfect fit (see fit_adaboost_r2).
PERFECT_LOSS_EPS = 1e-10

#: EnsembleConfig fields that only some kinds read, and those kinds.
READ_BY: dict[str, tuple[EnsembleKind, ...]] = {
    "learning_rate": ("gbm_exact", "gbm_hist"),
    "loss": ("adaboost_r2",),
    "bootstrap": ("bagging", "random_forest"),
    "feature_subsample": ("bagging", "random_forest"),
}


@dataclass(slots=True, frozen=True)
class EnsembleConfig:
    """Shared ensemble settings.

    ``tree`` of None picks the kind's default: unlimited depth for bagging
    and random forest, depth 3 for the boosting variants.
    ``feature_subsample`` of None likewise defaults per kind (1/3 for random
    forest, 1.0 elsewhere). ``learning_rate`` must stay in (0, 2]; that is
    the range for which each boosting stage provably cannot increase the
    training loss. A field that a kind does not read (:data:`READ_BY`) must
    keep its default for that kind.
    """

    n_estimators: int = 100
    learning_rate: float = 0.1
    tree: TreeConfig | None = None
    bootstrap: bool = True
    feature_subsample: float | None = None
    loss: str = "linear"
    seed: int = 0

    def validate(self, kind: EnsembleKind) -> None:
        if self.n_estimators < 1:
            raise DataError("n_estimators must be >= 1")
        if not 0.0 < self.learning_rate <= 2.0:
            raise DataError("learning_rate must be in (0, 2]")
        if self.loss not in ADABOOST_LOSSES:
            raise DataError(f"loss must be one of {ADABOOST_LOSSES}")
        if self.feature_subsample is not None and not 0.0 < self.feature_subsample <= 1.0:
            raise DataError("feature_subsample must be in (0, 1]")
        if self.tree is not None:
            self.tree.validate()
        default = EnsembleConfig()
        for name, readers in READ_BY.items():
            if kind not in readers and getattr(self, name) != getattr(default, name):
                raise DataError(f"{kind} does not read {name}; leave it at {getattr(default, name)!r}")


@dataclass(slots=True)
class EnsembleModel:
    """A fitted ensemble: member trees with stage weights.

    ``base_prediction`` is the training-target mean for boosting and unused
    otherwise. ``train_mse`` tracks the training error after each boosting
    stage (kept in memory only, not persisted).
    """

    kind: EnsembleKind
    n_features: int
    base_prediction: float
    members: list[tuple[Tree, float]]
    config: EnsembleConfig = field(default_factory=EnsembleConfig)
    train_mse: list[float] = field(default_factory=list)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return predict_ensemble_batch(self, X)

    def to_payload(self) -> dict:
        return {
            "config": asdict(self.config),
            "n_features": self.n_features,
            "base_prediction": self.base_prediction,
            "members": [{"tree": tree.to_dict(), "weight": weight} for tree, weight in self.members],
        }

    @classmethod
    def from_payload(cls, kind: EnsembleKind, payload: dict) -> "EnsembleModel":
        """Rebuild a persisted ensemble; a malformed payload raises ``PersistError``."""
        require_keys(payload, ("config", "n_features", "base_prediction", "members"))
        n_features, members = payload["n_features"], payload["members"]
        require(is_int(n_features) and n_features >= 1, "n_features is not a positive integer")
        require(is_finite(payload["base_prediction"]), "base_prediction is not a finite number")
        require(isinstance(members, list) and len(members) > 0, "members is not a non-empty list")
        for member in members:
            require_keys(member, ("tree", "weight"), "member")
            require(is_finite(member["weight"]), "a member weight is not a finite number")
        require(isinstance(payload["config"], dict), "config is not an object")
        cfg_doc = dict(payload["config"])
        tree_doc = cfg_doc.pop("tree", None)
        try:
            tree_cfg = TreeConfig(**tree_doc) if tree_doc is not None else None
            config = EnsembleConfig(tree=tree_cfg, **cfg_doc)
            config.validate(kind)
        except (TypeError, DataError) as exc:
            raise PersistError(f"malformed model document: config: {exc}") from exc
        return cls(
            kind=kind,
            n_features=n_features,
            base_prediction=float(payload["base_prediction"]),
            members=[(Tree.from_dict(m["tree"], n_features), float(m["weight"])) for m in members],
            config=config,
        )


def _prepare(X, y, cfg: EnsembleConfig, kind: EnsembleKind):
    """``cfg`` checked for ``kind``, with the kind's default tree filled in for fits to
    record, and the checked data in canonical order."""
    cfg.validate(kind)
    if cfg.tree is None:
        cfg = replace(cfg, tree=TreeConfig(max_depth=None if kind in ("bagging", "random_forest") else 3))
    X, y = training_data(X, y)
    return (cfg, *canonical_rows(X, y, np.ones(X.shape[0])))


def _grow_member(Xc, yc, wc, rows: np.ndarray, cfg: TreeConfig) -> Tree:
    """An exact tree on ``rows`` (sorted) of a canonical table."""
    fit = _FitData.from_canonical(Xc[rows], yc[rows], wc[rows], cfg)
    return _grow(fit, bins=None, binned=None, presort=None)[0]


def fit_bagging(X: np.ndarray, y: np.ndarray, cfg: EnsembleConfig = EnsembleConfig()) -> EnsembleModel:
    """Average of trees fit on bootstrap resamples (size n, with replacement)."""
    return _fit_averaged(X, y, cfg, kind="bagging", default_subsample=1.0)


def fit_random_forest(
    X: np.ndarray, y: np.ndarray, cfg: EnsembleConfig = EnsembleConfig()
) -> EnsembleModel:
    """Bagging plus per-node random feature subsampling (default rate 1/3)."""
    return _fit_averaged(X, y, cfg, kind="random_forest", default_subsample=1.0 / 3.0)


def _fit_averaged(
    X, y, cfg: EnsembleConfig, kind: EnsembleKind, default_subsample: float
) -> EnsembleModel:
    cfg, Xc, yc, wc = _prepare(X, y, cfg, kind)
    subsample = cfg.feature_subsample if cfg.feature_subsample is not None else default_subsample
    members: list[tuple[Tree, float]] = []
    n = Xc.shape[0]
    for m in range(cfg.n_estimators):
        if cfg.bootstrap:
            rng = substream(cfg.seed, "bootstrap", m)
            idx = np.sort(rng.integers(0, n, size=n))
        else:
            idx = np.arange(n)
        tree_cfg = replace(
            cfg.tree,
            feature_subsample=subsample,
            seed=derive_seed(cfg.seed, "member-tree", m),
        )
        members.append((_grow_member(Xc, yc, wc, idx, tree_cfg), 1.0))
    return EnsembleModel(
        kind=kind,
        n_features=Xc.shape[1],
        base_prediction=0.0,
        members=members,
        config=cfg,
    )


def fit_gbm(
    X: np.ndarray,
    y: np.ndarray,
    cfg: EnsembleConfig = EnsembleConfig(),
    mode: Literal["exact", "hist"] = "exact",
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
    cfg, Xc, yc, wc = _prepare(X, y, cfg, kind)
    n = Xc.shape[0]

    bins = binned = None
    presort = None
    if mode == "hist":
        bins = build_bins(Xc, cfg.tree.max_bins)
        binned = bins.binize(Xc)
    else:
        presort = column_presort(Xc)

    base = float(np.sum(yc) / n)
    current = np.full(n, base)
    members: list[tuple[Tree, float]] = []
    train_mse: list[float] = []
    nu = cfg.learning_rate
    for m in range(cfg.n_estimators):
        residual = yc - current
        stage_cfg = replace(cfg.tree, seed=derive_seed(cfg.seed, "member-tree", m))
        fit = _FitData.from_canonical(Xc, residual, wc, stage_cfg)
        # Growth routed the training rows with the same `<=` test a
        # prediction would, so their leaves give the stage's predictions.
        tree, leaf_of = _grow(fit, bins=bins, binned=binned, presort=presort)
        members.append((tree, nu))
        current = current + nu * tree.value[leaf_of]
        train_mse.append(float(np.mean((yc - current) ** 2)))
    return EnsembleModel(
        kind=kind,
        n_features=Xc.shape[1],
        base_prediction=base,
        members=members,
        config=cfg,
        train_mse=train_mse,
    )


def fit_adaboost_r2(
    X: np.ndarray, y: np.ndarray, cfg: EnsembleConfig = EnsembleConfig()
) -> EnsembleModel:
    """AdaBoost for regression with weighted-median combination.

    Each stage resamples the training set in proportion to the sample
    weights, fits a tree, and normalizes per-sample absolute errors by the
    largest one. The stage survives with weight ln(1/beta) where beta =
    avg_loss / (1 - avg_loss); sample weights are multiplied by
    beta^(1 - loss). Boosting stops early when a stage's average loss
    reaches 0.5 (the stage is discarded unless it is the only one) or when
    a stage is essentially perfect (average loss below ``PERFECT_LOSS_EPS``,
    which gets a large finite weight instead of a division by zero).
    """
    cfg, Xc, yc, wc = _prepare(X, y, cfg, "adaboost_r2")
    n = Xc.shape[0]
    flat, offsets = row_major(Xc, Xc.shape[1])
    sample_weight = np.full(n, 1.0 / n)
    members: list[tuple[Tree, float]] = []
    for m in range(cfg.n_estimators):
        rng = substream(cfg.seed, "resample", m)
        idx = np.sort(rng.choice(n, size=n, replace=True, p=sample_weight))
        stage_cfg = replace(cfg.tree, seed=derive_seed(cfg.seed, "member-tree", m))
        tree = _grow_member(Xc, yc, wc, idx, stage_cfg)

        error = np.abs(descend(tree, flat, offsets) - yc)
        error_max = float(error.max())
        if error_max > 0:
            loss = error / error_max
        else:
            loss = np.zeros(n)
        if cfg.loss == "square":
            loss = loss**2
        elif cfg.loss == "exponential":
            loss = 1.0 - np.exp(-loss)

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
        n_features=Xc.shape[1],
        base_prediction=0.0,
        members=members,
        config=cfg,
    )


def predict_ensemble_batch(model: EnsembleModel, X: np.ndarray) -> np.ndarray:
    """Row-matrix prediction: mean, boosted sum, or weighted median by kind.

    Members are descended one at a time, so apart from AdaBoost's member
    prediction matrix the working set stays a few arrays of one entry per
    row; sums run in member order.
    """
    flat, offsets = row_major(X, model.n_features)
    if not model.members:
        raise DataError("ensemble has no members")

    if model.kind in ("bagging", "random_forest"):
        total = np.zeros(offsets.shape[0])
        for tree, _ in model.members:
            total += descend(tree, flat, offsets)
        return total / len(model.members)

    if model.kind in ("gbm_exact", "gbm_hist"):
        out = np.full(offsets.shape[0], model.base_prediction)
        for tree, weight in model.members:
            out += weight * descend(tree, flat, offsets)
        return out

    if model.kind == "adaboost_r2":
        preds = np.empty((offsets.shape[0], len(model.members)))
        for j, (tree, _) in enumerate(model.members):
            preds[:, j] = descend(tree, flat, offsets)
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
