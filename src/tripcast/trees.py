"""CART regression trees with exact and histogram-binned split finding.

Both fitters grow the same greedy, depth-first, squared-loss tree: at each
node every candidate (feature, threshold) split is scored by weighted
variance reduction and the best is taken, with ties broken toward the lowest
feature index and then the lowest threshold. The exact fitter scans
midpoints between consecutive distinct sorted values; the histogram fitter
scans boundaries between consecutive nonempty quantile bins, accumulating
per-bin (count, weight, weighted target) statistics instead of sorting.

A fitted tree is a :class:`Tree`: parallel node arrays (``feature``,
``threshold``, ``left``, ``right``, ``value``) in depth-first preorder, as
in sklearn's ``Tree`` struct. Prediction descends all rows of a matrix at
once, one vectorized step per depth level (the flattened traversal of
QuickScorer, Lucchese et al., SIGIR 2015), so its cost is O(depth) numpy
calls rather than one Python step per node.

Both fitters place a split between two neighbouring training values with
:func:`split_threshold`, so no split can leave a child empty.

Determinism: rows are brought into a canonical order before fitting, so the
fitted tree is bit-identical under any permutation of the training rows.
When every feature has at most ``max_bins`` distinct values the histogram
tree has the same candidate splits as the exact tree, and the two are
bit-identical when the per-group sums are exact (integer targets, as in the
tests). With float targets the exact scan's ``reduceat`` and the
histogram's sequential ``bincount`` add in different orders, can round the
sums of tied candidates differently, and the trees may then differ.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .checks import as_matrix, query_matrix, training_data
from .errors import DataError, PersistError
from .rng import substream


@dataclass(slots=True, frozen=True)
class TreeConfig:
    """Growth limits and seeding for a single regression tree.

    ``max_depth=None`` means unlimited. ``feature_subsample`` < 1 draws a
    fresh candidate-feature subset at every node (random forest behaviour);
    the subset size is ``ceil(feature_subsample * n_features)``.
    """

    max_depth: int | None = None
    min_samples_leaf: int = 1
    min_samples_split: int = 2
    max_bins: int = 255
    feature_subsample: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if self.max_depth is not None and self.max_depth < 1:
            raise DataError("max_depth must be >= 1 or None")
        if self.min_samples_leaf < 1:
            raise DataError("min_samples_leaf must be >= 1")
        if self.min_samples_split < 2:
            raise DataError("min_samples_split must be >= 2")
        if not 2 <= self.max_bins <= 255:
            raise DataError("max_bins must be in [2, 255]")
        if not 0.0 < self.feature_subsample <= 1.0:
            raise DataError("feature_subsample must be in (0, 1]")


@dataclass(slots=True, frozen=True, eq=False)
class Tree:
    """A fitted regression tree as parallel node arrays in depth-first preorder.

    Node 0 is the root. An internal node routes rows with
    ``x[feature] <= threshold`` to ``left`` (always the next node) and the
    rest to ``right``; both children lie past their parent. A leaf has
    ``feature == -1`` and ``threshold == 0.0`` and is its own left and right
    child, so a descent may keep stepping after a row has reached its leaf.
    ``value`` holds the (weighted) mean training target of each node, and
    ``n_features`` the training arity that predictions must match.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_features: int

    @property
    def depth(self) -> int:
        """Length of the longest root-to-leaf path (0 for a single leaf)."""
        level = np.zeros(1, dtype=np.intp)
        depth = 0
        while True:
            level = level[self.feature[level] >= 0]
            if level.size == 0:
                return depth
            level = np.concatenate((self.left[level], self.right[level]))
            depth += 1

    def to_dict(self) -> dict:
        return {name: getattr(self, name).tolist() for name in _NODE_ARRAYS}

    @classmethod
    def from_dict(cls, doc: dict, n_features: int) -> "Tree":
        """Rebuild a persisted tree, rejecting arrays that do not form one."""
        try:
            feature, left, right = (np.asarray(doc[k], dtype=np.intp) for k in ("feature", "left", "right"))
            threshold, value = (np.asarray(doc[k], dtype=np.float64) for k in ("threshold", "value"))
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistError(f"tree node arrays are missing or not numeric: {exc!r}") from exc
        n = feature.size
        if feature.ndim != 1 or n == 0 or any(a.shape != (n,) for a in (threshold, left, right, value)):
            raise PersistError("tree node arrays are empty or of unequal lengths")
        node = np.arange(n)
        leaf = feature == -1
        if np.any(feature < -1) or np.any(feature >= n_features):
            raise PersistError(f"tree splits on a feature outside 0..{n_features - 1}")
        if not np.all(np.isfinite(threshold)):
            raise PersistError("tree has a non-finite split threshold")
        if np.any(leaf & ((left != node) | (right != node))):
            raise PersistError("tree leaf does not point to itself")
        if np.any(~leaf & ((left <= node) | (right <= node) | (left >= n) | (right >= n))):
            raise PersistError("tree child index out of range or not past its parent")
        children = np.sort(np.concatenate((left[~leaf], right[~leaf])))
        if not np.array_equal(children, node[1:]):
            raise PersistError("tree nodes other than the root must have exactly one parent")
        return cls(feature, threshold, left, right, value, n_features)


_NODE_ARRAYS = ("feature", "threshold", "left", "right", "value")


@dataclass(slots=True)
class BinMap:
    """Per-feature bin edges plus the observed value range of each bin.

    ``edges[f]`` is strictly ascending; a value v maps to the number of
    edges strictly below it (values above the last edge land in the final
    bin). ``bin_min``/``bin_max`` hold the smallest/largest training value
    seen in each bin and provide split thresholds that fall between bins.
    """

    edges: list[np.ndarray]
    bin_min: list[np.ndarray]
    bin_max: list[np.ndarray]

    @property
    def n_features(self) -> int:
        return len(self.edges)

    def n_bins(self, feature: int) -> int:
        return len(self.edges[feature]) + 1

    def binize(self, X: np.ndarray) -> np.ndarray:
        X = as_matrix(X)
        if X.shape[1] != self.n_features:
            raise DataError(
                f"binize: expected {self.n_features} features, got {X.shape[1]}"
            )
        out = np.empty(X.shape, dtype=np.int32)
        for f in range(self.n_features):
            out[:, f] = np.searchsorted(self.edges[f], X[:, f], side="left")
        return out


def build_bins(X: np.ndarray, max_bins: int = 255) -> BinMap:
    """Quantile bin map for ``X``.

    Features with at most ``max_bins`` distinct values get one bin per
    value, with edges at the :func:`split_threshold` of consecutive distinct
    values (histogram splits then have the exact candidates). Denser
    features get edges at the ``i/max_bins`` quantiles, deduplicated.
    """
    X = as_matrix(X)
    if X.shape[0] == 0:
        raise DataError("build_bins: empty feature table")
    if not 2 <= max_bins <= 255:
        raise DataError("max_bins must be in [2, 255]")
    edges: list[np.ndarray] = []
    mins: list[np.ndarray] = []
    maxs: list[np.ndarray] = []
    for f in range(X.shape[1]):
        col = X[:, f]
        uniq = np.unique(col)
        if uniq.size <= max_bins:
            edges.append(split_threshold(uniq[:-1], uniq[1:]))
            mins.append(uniq.copy())
            maxs.append(uniq.copy())
            continue
        qs = np.quantile(col, np.arange(1, max_bins) / max_bins)
        e = np.unique(qs)
        n_bins = e.size + 1
        idx = np.searchsorted(e, col, side="left")
        lo = np.full(n_bins, np.inf)
        hi = np.full(n_bins, -np.inf)
        np.minimum.at(lo, idx, col)
        np.maximum.at(hi, idx, col)
        edges.append(e)
        mins.append(lo)
        maxs.append(hi)
    return BinMap(edges=edges, bin_min=mins, bin_max=maxs)


def fit_tree_exact(
    X: np.ndarray,
    y: np.ndarray,
    w: np.ndarray | None = None,
    cfg: TreeConfig = TreeConfig(),
) -> Tree:
    """Grow a regression tree scanning every distinct-value midpoint split."""
    fit = _FitData.prepare(X, y, w, cfg)
    return _grow(fit, bins=None, binned=None, presort=None)[0]


def fit_tree_hist(
    X: np.ndarray,
    y: np.ndarray,
    w: np.ndarray | None,
    cfg: TreeConfig,
    bins: BinMap,
) -> Tree:
    """Grow a regression tree scanning histogram-bin boundaries.

    ``bins`` must have been built from a superset of ``X``'s values.
    """
    fit = _FitData.prepare(X, y, w, cfg)
    binned = bins.binize(fit.X)
    return _grow(fit, bins=bins, binned=binned, presort=None)[0]


def predict_tree_batch(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Leaf value of every row of ``X`` (ties at a threshold go left)."""
    flat, offsets = row_major(X, tree.n_features)
    return descend(tree, flat, offsets)


def row_major(X: np.ndarray, n_features: int) -> tuple[np.ndarray, np.ndarray]:
    """``X`` as one flat row-major array plus the offset of each row in it.

    Every tree and ensemble prediction enters here, so this is where the
    query is checked (:func:`~tripcast.checks.query_matrix`).
    """
    X = query_matrix(X, n_features)
    return np.ascontiguousarray(X).ravel(), np.arange(X.shape[0]) * n_features


def descend(tree: Tree, flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Route all rows down ``tree`` together, one step per depth level.

    Each row's feature value is read with a 1-D ``take`` at
    ``offset + feature``; leaves point to themselves, so rows that reach one
    early stay put. The next node is looked up at ``2 * node + go_left`` in
    an interleaved (right, left) child table, which is cheaper than
    ``np.where`` on a data-dependent mask. Working memory is a few arrays of
    one entry per row.
    """
    feature = np.maximum(tree.feature, 0)  # a leaf's comparison is moot
    child = np.stack((tree.right, tree.left), axis=1).ravel()
    node = np.zeros(offsets.shape[0], dtype=np.intp)
    for _ in range(tree.depth):
        go_left = flat.take(offsets + feature.take(node)) <= tree.threshold.take(node)
        node = child.take(2 * node + go_left)
    return tree.value.take(node)


def split_threshold(lo, hi):
    """Where to split between neighbouring values ``lo < hi`` (scalars or arrays).

    The midpoint, or ``lo`` itself when the midpoint rounds onto ``hi`` (two
    adjacent floats) or overflows; rows equal to ``lo`` go left and rows
    equal to ``hi`` go right either way.
    """
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2.0
    return np.where((lo <= mid) & (mid < hi), mid, lo)


def n_candidate_features(n_features: int, feature_subsample: float) -> int:
    """Size of the per-node candidate feature set under subsampling."""
    return min(n_features, max(1, int(np.ceil(feature_subsample * n_features))))


# ---------------------------------------------------------------------------
# Fitting internals.


@dataclass(slots=True)
class _FitData:
    """Training arrays in canonical row order plus per-fit scratch."""

    X: np.ndarray
    y: np.ndarray
    w: np.ndarray
    wy: np.ndarray
    cfg: TreeConfig
    rng: np.random.Generator | None

    @classmethod
    def prepare(cls, X, y, w, cfg: TreeConfig) -> "_FitData":
        cfg.validate()
        X, y = training_data(X, y)
        if w is None:
            w = np.ones(X.shape[0], dtype=np.float64)
        else:
            w = np.asarray(w, dtype=np.float64).reshape(-1)
            if w.shape[0] != X.shape[0]:
                raise DataError("sample weights must match the number of rows")
            if not np.all(np.isfinite(w) & (w > 0)):
                raise DataError("sample weights must be positive and finite")
        X, y, w = canonical_rows(X, y, w)
        return cls.from_canonical(X, y, w, cfg)

    @classmethod
    def from_canonical(cls, X, y, w, cfg: TreeConfig) -> "_FitData":
        """Wrap arrays already in canonical row order (no copy, no checks)."""
        rng = None
        if cfg.feature_subsample < 1.0:
            rng = substream(cfg.seed, "tree-feature-subsample")
        return cls(X=X, y=y, w=w, wy=w * y, cfg=cfg, rng=rng)


def canonical_rows(
    X: np.ndarray, y: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort rows into canonical order (by features, then target, then weight).

    Any permutation of identical (x, y, w) rows sorts to the same sequence,
    which makes every downstream floating-point sum bit-stable and fitted
    trees independent of input row order.
    """
    keys = [w, y] + [X[:, f] for f in range(X.shape[1] - 1, -1, -1)]
    order = np.lexsort(tuple(keys))
    return X[order], y[order], w[order]


def column_presort(X: np.ndarray) -> np.ndarray:
    """Per-feature stable sort order of ``X`` (already canonical) rows.

    Lets repeated fits on the same rows (boosting stages) skip per-node
    sorting: a node's value-sorted order is recovered by filtering these
    global orders with the node's membership mask.
    """
    presort = np.empty(X.shape, dtype=np.int64, order="F")
    for f in range(X.shape[1]):
        presort[:, f] = np.argsort(X[:, f], kind="stable")
    return presort


def _grow(
    fit: _FitData,
    bins: BinMap | None,
    binned: np.ndarray | None,
    presort: np.ndarray | None,
) -> tuple[Tree, np.ndarray]:
    """Grow one tree; also return the leaf index of every training row."""
    n_features = fit.X.shape[1]
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []
    leaf_of = np.empty(fit.X.shape[0], dtype=np.intp)
    # Depth-first, preorder; the explicit stack both avoids recursion limits
    # on deep trees and pins the node-visit order the subsample rng sees.
    # Entries are (rows, depth, parent of a right child or -1).
    stack: list[tuple[np.ndarray, int, int]] = [(np.arange(fit.X.shape[0], dtype=np.int64), 0, -1)]
    while stack:
        idx, depth, right_of = stack.pop()
        node = len(value)
        if right_of >= 0:
            right[right_of] = node
        w_sum = float(np.sum(fit.w[idx]))
        value.append(float(np.sum(fit.wy[idx]) / w_sum))
        best = _best_split(fit, idx, depth, n_features, bins, binned, presort)
        if best is None:
            feature.append(-1)
            threshold.append(0.0)
            left.append(node)
            right.append(node)
            leaf_of[idx] = node
            continue
        f, t = best
        go_left = fit.X[idx, f] <= t
        if not 0 < np.count_nonzero(go_left) < idx.shape[0]:
            raise RuntimeError(f"split x[{f}] <= {t!r} leaves a child of node {node} empty")
        feature.append(f)
        threshold.append(t)
        left.append(node + 1)  # the left child is popped next
        right.append(-1)  # set when the right child is visited
        stack.append((idx[~go_left], depth + 1, node))
        stack.append((idx[go_left], depth + 1, -1))
    tree = Tree(
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.intp),
        right=np.array(right, dtype=np.intp),
        value=np.array(value, dtype=np.float64),
        n_features=n_features,
    )
    return tree, leaf_of


def _best_split(
    fit: _FitData,
    idx: np.ndarray,
    depth: int,
    n_features: int,
    bins: BinMap | None,
    binned: np.ndarray | None,
    presort: np.ndarray | None,
) -> tuple[int, float] | None:
    """The split of a node at ``depth`` holding rows ``idx``, or None for a leaf."""
    cfg = fit.cfg
    if cfg.max_depth is not None and depth >= cfg.max_depth:
        return None
    n = idx.shape[0]
    if n < cfg.min_samples_split or n < 2 * cfg.min_samples_leaf:
        return None
    y_node = fit.y[idx]
    if y_node[0] == y_node[-1] and np.all(y_node == y_node[0]):
        return None  # constant target: no split can reduce variance
    features = _candidate_features(fit, n_features)
    if bins is None:
        return _best_split_exact(fit, idx, features, presort)
    return _best_split_hist(fit, idx, features, bins, binned)


def _candidate_features(fit: _FitData, n_features: int) -> np.ndarray:
    if fit.rng is None:
        return np.arange(n_features)
    k = n_candidate_features(n_features, fit.cfg.feature_subsample)
    chosen = fit.rng.choice(n_features, size=k, replace=False)
    chosen.sort()
    return chosen


def _best_split_exact(
    fit: _FitData,
    idx: np.ndarray,
    features: np.ndarray,
    presort: np.ndarray | None,
) -> tuple[int, float] | None:
    """Best (feature, threshold) by variance reduction, or None.

    Candidates are scored by the left+right term of the weighted SSE
    decrease (the parent term is constant per node); scanning features in
    ascending order with strict improvement implements the tie-break rule.
    Sorting a node's rows via the global presort (membership filtering) and
    via a stable per-node argsort yield the same sequence, so both paths
    fit bit-identical trees.
    """
    min_leaf = fit.cfg.min_samples_leaf
    n = idx.shape[0]
    if presort is not None:
        mask = np.zeros(fit.X.shape[0], dtype=bool)
        mask[idx] = True
    else:
        Xn = fit.X[idx]
        wn = fit.w[idx]
        wyn = fit.wy[idx]
        # one stable sort call for all candidate columns
        orders = np.argsort(Xn[:, features], axis=0, kind="stable")

    best_score = -np.inf
    best: tuple[int, float, float] | None = None
    best_parent = 0.0
    for slot, f in enumerate(features):
        if presort is not None:
            col_order = presort[:, f]
            snode = col_order[mask[col_order]]
            sv = fit.X[snode, f]
            sw = fit.w[snode]
            swy = fit.wy[snode]
        else:
            order = orders[:, slot]
            sv = Xn[order, f]
            sw = wn[order]
            swy = wyn[order]
        if sv[0] == sv[-1]:
            continue
        starts = np.flatnonzero(np.concatenate(([True], sv[1:] != sv[:-1])))
        g_w = np.add.reduceat(sw, starts)
        g_wy = np.add.reduceat(swy, starts)
        g_n = np.diff(np.append(starts, n))
        score, pos, parent = _score_groups(g_w, g_wy, g_n, min_leaf)
        if pos < 0 or score <= best_score:
            continue
        uniq = sv[starts]
        best_score, best, best_parent = score, (int(f), uniq[pos], uniq[pos + 1]), parent
    if best is None or best_score - best_parent <= 0.0:
        return None
    f, lo, hi = best
    return f, float(split_threshold(lo, hi))


def _best_split_hist(
    fit: _FitData,
    idx: np.ndarray,
    features: np.ndarray,
    bins: BinMap,
    binned: np.ndarray,
) -> tuple[int, float] | None:
    """Histogram-accumulation variant of :func:`_best_split_exact`.

    Thresholds split between the observed value ranges of consecutive
    nonempty bins, which reduces to the exact rule whenever bins hold single
    distinct values. Buckets accumulate in canonical row order, but
    ``bincount`` adds sequentially and the exact scan's ``reduceat`` does
    not, so the group sums match it bit for bit only when they are exact.
    """
    wn = fit.w[idx]
    wyn = fit.wy[idx]
    bn = binned[idx]
    min_leaf = fit.cfg.min_samples_leaf

    best_score = -np.inf
    best: tuple[int, float, float] | None = None
    best_parent = 0.0
    for f in features:
        b = bn[:, f]
        n_bins = bins.n_bins(f)
        counts = np.bincount(b, minlength=n_bins)
        nonempty = np.flatnonzero(counts)
        if nonempty.size < 2:
            continue
        w_b = np.bincount(b, weights=wn, minlength=n_bins)
        wy_b = np.bincount(b, weights=wyn, minlength=n_bins)
        score, pos, parent = _score_groups(
            w_b[nonempty], wy_b[nonempty], counts[nonempty], min_leaf
        )
        if pos < 0 or score <= best_score:
            continue
        lo, hi = bins.bin_max[f][nonempty[pos]], bins.bin_min[f][nonempty[pos + 1]]
        best_score, best, best_parent = score, (int(f), lo, hi), parent
    if best is None or best_score - best_parent <= 0.0:
        return None
    f, lo, hi = best
    return f, float(split_threshold(lo, hi))


def _score_groups(
    g_w: np.ndarray, g_wy: np.ndarray, g_n: np.ndarray, min_leaf: int
) -> tuple[float, int, float]:
    """Score splits between consecutive value groups.

    Returns (score, position, parent_term) where score = S_L^2/W_L +
    S_R^2/W_R maximized over valid positions, position indexes the last
    left-side group (-1 if no valid split), and parent_term = S^2/W of the
    whole node. Weighted SSE decrease of a split is score - parent_term.
    """
    cw = np.cumsum(g_w)
    cwy = np.cumsum(g_wy)
    cn = np.cumsum(g_n)
    w_tot = cw[-1]
    s_tot = cwy[-1]
    n_tot = cn[-1]

    w_left = cw[:-1]
    s_left = cwy[:-1]
    n_left = cn[:-1]
    w_right = w_tot - w_left
    s_right = s_tot - s_left
    n_right = n_tot - n_left

    valid = (n_left >= min_leaf) & (n_right >= min_leaf)
    if not np.any(valid):
        return -np.inf, -1, 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        score = s_left * s_left / w_left + s_right * s_right / w_right
    score[~valid] = -np.inf
    pos = int(np.argmax(score))
    return float(score[pos]), pos, float(s_tot * s_tot / w_tot)
