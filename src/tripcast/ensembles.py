"""Tree ensembles: bagging, random forest, gradient boosting, AdaBoost.R2.

All four are built on the regression trees in :mod:`tripcast.trees`:

* bagging averages trees fit on bootstrap resamples;
* random forest adds per-node feature subsampling;
* gradient boosting fits each stage's tree to the current residuals and
  adds it scaled by the learning rate (exact or histogram split finding);
* AdaBoost.R2 fits trees on weighted bootstrap resamples, reweights samples
  by normalized absolute loss, and predicts with the weighted median of the
  members.

Training rows are brought into canonical order before any bootstrap index
is drawn, so fitted models are deterministic in (data, config, seed) and
invariant to input row order. Members are flat :class:`~tripcast.trees.Tree`
records; prediction descends them one at a time and combines their values
in member order. A single decision tree is a one-member bagging ensemble
without bootstrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Literal

import numpy as np

from .errors import DataError
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
    fit_tree_exact,
    predict_tree_batch,
    require_finite,
    row_major,
)

EnsembleKind = Literal["bagging", "random_forest", "gbm_exact", "gbm_hist", "adaboost_r2"]

ADABOOST_LOSSES = ("linear", "square", "exponential")

#: Average losses below this are treated as a perfect fit (see fit_adaboost_r2).
PERFECT_LOSS_EPS = 1e-10


@dataclass(slots=True, frozen=True)
class EnsembleConfig:
    """Shared ensemble settings.

    ``tree`` of None picks the kind's default: unlimited depth for bagging
    and random forest, depth 3 for the boosting variants.
    ``feature_subsample`` of None likewise defaults per kind (1/3 for random
    forest, 1.0 elsewhere). ``learning_rate`` must stay in (0, 2]; that is
    the range for which each boosting stage provably cannot increase the
    training loss.
    """

    n_estimators: int = 100
    learning_rate: float = 0.1
    tree: TreeConfig | None = None
    bootstrap: bool = True
    feature_subsample: float | None = None
    loss: str = "linear"
    seed: int = 0

    def validate(self) -> None:
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


def _prepare(X, y, cfg: EnsembleConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    cfg.validate()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if X.ndim != 2:
        raise DataError(f"expected a 2-D feature matrix, got shape {X.shape}")
    if X.shape[0] == 0:
        raise DataError("cannot fit an ensemble on empty data")
    if X.shape[0] != y.shape[0]:
        raise DataError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    require_finite(X, y)
    return canonical_rows(X, y, np.ones(X.shape[0]))


def _member_tree_config(cfg: EnsembleConfig, default_depth: int | None) -> TreeConfig:
    tree = cfg.tree if cfg.tree is not None else TreeConfig(max_depth=default_depth)
    return tree


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
    Xc, yc, wc = _prepare(X, y, cfg)
    subsample = cfg.feature_subsample if cfg.feature_subsample is not None else default_subsample
    base_tree = _member_tree_config(cfg, default_depth=None)
    members: list[tuple[Tree, float]] = []
    n = Xc.shape[0]
    for m in range(cfg.n_estimators):
        if cfg.bootstrap:
            rng = substream(cfg.seed, "bootstrap", m)
            idx = rng.integers(0, n, size=n)
        else:
            idx = np.arange(n)
        tree_cfg = replace(
            base_tree,
            feature_subsample=subsample,
            seed=derive_seed(cfg.seed, "member-tree", m),
        )
        tree = fit_tree_exact(Xc[idx], yc[idx], cfg=tree_cfg)
        members.append((tree, 1.0))
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
    Xc, yc, wc = _prepare(X, y, cfg)
    tree_cfg = _member_tree_config(cfg, default_depth=3)
    n = Xc.shape[0]

    bins = binned = None
    presort = None
    if mode == "hist":
        bins = build_bins(Xc, tree_cfg.max_bins)
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
        stage_cfg = replace(tree_cfg, seed=derive_seed(cfg.seed, "member-tree", m))
        fit = _FitData.from_canonical(Xc, residual, wc, stage_cfg)
        # Growth routed the training rows with the same `<=` test a
        # prediction would, so their leaves give the stage's predictions.
        tree, leaf_of = _grow(fit, bins=bins, binned=binned, presort=presort)
        members.append((tree, nu))
        current = current + nu * tree.value[leaf_of]
        train_mse.append(float(np.mean((yc - current) ** 2)))
    return EnsembleModel(
        kind="gbm_hist" if mode == "hist" else "gbm_exact",
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
    Xc, yc, wc = _prepare(X, y, cfg)
    tree_cfg = _member_tree_config(cfg, default_depth=3)
    n = Xc.shape[0]
    sample_weight = np.full(n, 1.0 / n)
    members: list[tuple[Tree, float]] = []
    for m in range(cfg.n_estimators):
        rng = substream(cfg.seed, "resample", m)
        idx = rng.choice(n, size=n, replace=True, p=sample_weight)
        stage_cfg = replace(tree_cfg, seed=derive_seed(cfg.seed, "member-tree", m))
        tree = fit_tree_exact(Xc[idx], yc[idx], cfg=stage_cfg)

        error = np.abs(predict_tree_batch(tree, Xc) - yc)
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
