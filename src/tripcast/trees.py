"""CART regression trees with exact and histogram-binned split finding.

Both fitters grow the same greedy, squared-loss tree: at each node every
candidate (feature, threshold) split is scored by variance reduction and the
best is taken, with ties broken toward the lowest feature index and then the
lowest threshold. The exact fitter scans midpoints between consecutive
distinct sorted values; the histogram fitter scans boundaries between
consecutive nonempty quantile bins, accumulating per-bin (count, target sum)
statistics instead of sorting.

Deep or unlimited exact trees and random-forest trees are grown level by
level (:func:`_grow_levels`): each level scans all open nodes at once over
per-feature row lists kept sorted by node and value. Histogram trees, the
stages of gradient boosting and shallow exact trees over every feature
(:func:`grow_exact`'s one rule on ``max_depth`` and ``feature_subsample``;
AdaBoost.R2's stages, and bagging and single trees given a small
``max_depth``) are grown one node at a time, breadth first (:func:`_grow`),
and each such node scores all features in one pass. The exact scan
(:class:`ExactColumns`) filters the shared presort to the node, adds each
value group's targets with ``reduceat`` and scores every group at once. The
histogram scan (:class:`BinnedColumns`) counts the node's (feature, bin)
keys into one dense (feature x bin) table with two ``bincount`` calls and
scores every cell at once, an empty bin repeating the score of the bin
before it. Both growers take the same split at every node and number the
nodes alike, so an exact tree is the same whichever grows it; only
:func:`_grow_levels` draws random-forest feature subsets, in level order.

A fitted tree is a :class:`Tree`: parallel node arrays (``feature``,
``threshold``, ``value``) in level order. The children of the k-th
internal node are nodes 2k + 1 and 2k + 2, so no child index is stored
(Jacobson, FOCS 1989). :func:`descend` routes all rows of a
feature-major query at once, one step per depth level: O(depth) numpy calls,
not one Python step per node. On a large query the narrow top levels go by
masks, each internal node comparing its feature's whole column once, and a
per-row path code built one bit per level names the node reached; deeper
levels, and those below the root of a small query, gather each row's column
value at its node. The two bounds between the routes are constants measured
on the benchmark's tables (:data:`_MASK_MAX_NODES`, :data:`_MASK_MIN_ROWS`).

Both fitters place a split between two neighbouring training values with
:func:`split_threshold`, so no split can leave a child empty.

Determinism: rows are brought into a canonical order before fitting, so the
fitted tree is bit-identical under any permutation of the training rows.
A histogram fit bins its own training rows (:class:`BinnedColumns`), as
LightGBM does (Ke et al., NeurIPS 2017), into at most :data:`MAX_BINS` bins
per feature, LightGBM's default, so a bin code fits in a uint8. When
every feature has at most that many distinct values the histogram tree has
the same candidate splits as the exact tree, and the two are bit-identical
when the per-group sums are exact (integer targets, as in the tests). With
float targets the exact scan's
``reduceat`` and the histogram's sequential ``bincount`` add in different
orders, can round the sums of tied candidates differently, and the trees
may then differ.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .checks import check_setting, query_matrix, training_data
from .errors import PersistError
from .rng import substream


@dataclass(slots=True, frozen=True, eq=False)
class Tree:
    """A fitted regression tree as parallel node arrays in level order.

    Node 0 is the root, and the nodes are numbered breadth first, each level
    left to right. An internal node routes rows with
    ``x[feature] <= threshold`` to its left child and the rest to its right
    one; the k-th internal node in node order has children 2k + 1 and
    2k + 2. A leaf has ``feature == -1`` and ``threshold == 0.0``.
    ``value`` holds the mean training target of each node and ``n_features``
    the training arity that predictions must match.

    Two fields are derived from ``feature`` here, where every tree is made:
    ``left``, each node's left child (a leaf is its own, so a descent may
    keep stepping after a row has reached its leaf), and ``depth``, the
    length of the longest root-to-leaf path (0 for a single leaf).
    """

    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray
    n_features: int
    left: np.ndarray = field(init=False)
    depth: int = field(init=False)

    def __post_init__(self):
        internal = self.feature >= 0
        rank = np.cumsum(internal)  # the internal nodes up to and including each node
        object.__setattr__(self, "left", np.where(internal, 2 * rank - 1, np.arange(internal.size)))
        # The nodes of levels 0..depth are 0..end - 1, so the next level ends at twice their splits plus 1.
        depth, end = 0, 1
        while (below := 2 * rank.item(end - 1) + 1) > end:
            depth, end = depth + 1, below
        object.__setattr__(self, "depth", depth)

    def to_dict(self) -> dict:
        return {name: getattr(self, name).tolist() for name in _NODE_ARRAYS}

    @classmethod
    def from_dict(cls, doc: dict, n_features: int) -> "Tree":
        """Rebuild a persisted tree, rejecting arrays that do not form one."""
        if not isinstance(doc, dict) or sorted(doc) != sorted(_NODE_ARRAYS):
            raise PersistError(f"tree node arrays are not exactly {', '.join(_NODE_ARRAYS)}")
        feature = _node_array(doc, "feature", {int}, np.intp)
        threshold, value = (_node_array(doc, name, {int, float}, np.float64) for name in ("threshold", "value"))
        n = feature.size
        if n == 0 or threshold.size != n or value.size != n:
            raise PersistError("tree node arrays are empty or of unequal lengths")
        if np.any(feature < -1) or np.any(feature >= n_features):
            raise PersistError(f"tree splits on a feature outside 0..{n_features - 1}")
        if not (np.all(np.isfinite(threshold)) and np.all(np.isfinite(value))):
            raise PersistError("tree has a non-finite split threshold or node value")
        # With these two, every node but the root has exactly one parent, numbered before it: one tree.
        internal = feature >= 0
        if n != 2 * np.count_nonzero(internal) + 1:
            raise PersistError(f"tree has {n} nodes, not 2 x its {np.count_nonzero(internal)} splits + 1")
        tree = cls(feature, threshold, value, n_features)
        if np.any(tree.left[internal] <= np.flatnonzero(internal)):
            raise PersistError("tree numbers a child before its parent")
        return tree


#: What a persisted tree stores; the children are implied by the level order.
_NODE_ARRAYS = ("feature", "threshold", "value")


def _node_array(doc: dict, name: str, types: set[type], dtype) -> np.ndarray:
    """``doc[name]`` as an array, if it is a list of JSON numbers of ``types``; a boolean is not an int."""
    values = doc[name]
    if not isinstance(values, list) or not set(map(type, values)) <= types:
        raise PersistError(f"tree {name} is not a list of {'integers' if types == {int} else 'numbers'}")
    try:
        return np.array(values, dtype=dtype)
    except OverflowError as exc:  # an integer past int64 or past the float range
        raise PersistError(f"tree {name} holds a number out of range: {exc!r}") from exc


#: Most bins a histogram gives one feature (LightGBM's default, Ke et al., 2017);
#: bin codes 0..MAX_BINS - 1 are stored as uint8.
MAX_BINS = 255


def fit_tree_exact(
    X: np.ndarray, y: np.ndarray, max_depth: int | None = None, feature_subsample: float = 1.0, seed: int = 0
) -> Tree:
    """Grow a regression tree scanning every distinct-value midpoint split.

    ``max_depth=None`` means unlimited: any node with two distinct targets
    may split. ``feature_subsample`` < 1 draws a fresh candidate-feature
    subset at every splittable node (random forest behaviour), in level
    order and seeded by ``seed``; the subset size is
    ``ceil(feature_subsample * n_features)``.
    """
    check_setting("max_depth", max_depth)
    check_setting("feature_subsample", feature_subsample)
    check_setting("seed", seed)
    return grow_exact(*canonical_rows(*training_data(X, y)), max_depth, feature_subsample, seed)


def fit_tree_hist(X: np.ndarray, y: np.ndarray, max_depth: int | None = None) -> Tree:
    """Grow a regression tree over every feature, scanning the boundaries of bins of ``X``'s own values."""
    check_setting("max_depth", max_depth)
    X, y = canonical_rows(*training_data(X, y))
    return _grow(X, y, max_depth, BinnedColumns(X))[0]


def predict_tree_batch(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Leaf value of every row of ``X`` (ties at a threshold go left)."""
    return descend(tree, feature_major(X, tree.n_features))


def feature_major(X: np.ndarray, n_features: int) -> np.ndarray:
    """``X`` copied feature by feature: ``cols[f, i]`` is ``X[i, f]``, each column contiguous.

    Every tree and ensemble prediction enters here, so this is where the
    query is checked (:func:`~tripcast.checks.query_matrix`).
    """
    return np.ascontiguousarray(query_matrix(X, n_features).T)


#: Bounds of :func:`descend`'s mask route: a level goes by masks while it has
#: at most ``_MASK_MAX_NODES`` internal nodes and the query at least
#: ``_MASK_MIN_ROWS`` rows. A mask level costs a few contiguous
#: passes per internal node, a gather level four gathers whatever its width,
#: so masks win on narrow levels of large queries. Per-tree descent time in
#: us, gathers only / masks on levels of at most 4, 8, 16 internal nodes
#: (seed-1 ``serve`` table and models, fastest of 15 alternating runs on
#: 2 vCPUs):
#:
#:   rows     depth-6 gb                   depth-8 rf
#:   2,048    112 / 115, 129, 123          203 / 171, 287, 349
#:   4,096    295 / 244, 246, 230          374 / 373, 397, 464
#:   8,192    430 / 323, 312, 266          672 / 595, 584, 623
#:   42,826   2088 / 1179, 941, 718        2273 / 1911, 1495, 1815
#:
#: At 8 nodes depth-6 gb breaks even near 3,500 rows and depth-8 rf between
#: 4,096 (209 / 221 us) and 6,000 (259 / 252); depth-3 trees, all of whose
#: levels pass by masks, run in half the time from 2,500 rows up.
_MASK_MAX_NODES = 8
_MASK_MIN_ROWS = 8192


def descend(tree: Tree, cols: np.ndarray) -> np.ndarray:
    """Route all rows of feature-major ``cols`` down ``tree`` together, one step per depth level.

    Shallow levels go by masks (predication; Asadi, Lin & de Vries, IEEE
    TKDE 2014): each internal node compares its feature's whole column once,
    ANDs that with its own row mask and XORs for its right child's, and each
    level's right-going rows set one bit of a uint8 path code, as CatBoost
    indexes the leaves of its oblivious trees (Prokhorenkova et al., NeurIPS
    2018). Levels take this route while the code has a bit left, the query
    has at least :data:`_MASK_MIN_ROWS` rows and the level at most
    :data:`_MASK_MAX_NODES` internal nodes (their comment holds the measured
    table). One lookup of the path code then gives each row's node, or its
    leaf value when no deeper level remains.

    Deeper levels gather, from that node on; a smaller query starts at the
    root, whose test reads one whole column. A row's state is its node: a
    step takes it to ``left[node] + (x > bound[node])``, ``x`` gathered from
    ``cols.ravel()`` at the node's column start. A bound is the node's
    threshold, or ``+inf`` at a leaf, its own left child, so rows that reach
    a leaf early stay put. Query values are finite
    (:func:`~tripcast.checks.query_matrix`), so ``x > bound`` is exactly
    ``not x <= threshold``, and both routes take every row to the same leaf.
    """
    n = cols.shape[1]
    feature, threshold, left = tree.feature, tree.threshold, tree.left
    # The level's nodes as (node, path code, row mask); None masks every row,
    # or no row needs one. A leaf is its own left child: its rows stay put.
    level: list[tuple[int, int, np.ndarray | None]] = [(0, 0, None)]
    code = np.zeros(n, dtype=np.uint8)
    depth = 0
    while n >= _MASK_MIN_ROWS and depth < 8 * code.itemsize:
        n_splits = sum(feature.item(node) >= 0 for node, _, _ in level)
        if not 0 < n_splits <= _MASK_MAX_NODES:
            break
        below, went_right = [], None
        for node, path, mask in level:
            if feature.item(node) < 0:
                below.append((node, 2 * path, None))
                continue
            go_left = cols[feature.item(node)] <= threshold.item(node)
            if mask is None:
                mask = ~go_left
            else:
                go_left &= mask
                mask ^= go_left  # the node's rows that go right
            child = left.item(node)
            below += [(child, 2 * path, go_left), (child + 1, 2 * path + 1, mask)]
            went_right = mask if went_right is None else went_right | mask
        code += code  # uint8 shifts are slower than adds
        code |= went_right.view(np.uint8)
        level, depth = below, depth + 1
    at = np.zeros(1 << depth, dtype=np.intp)
    for node, path, _ in level:
        at[path] = node
    path = code.astype(np.intp)  # take() casts narrower indices slowly
    if tree.depth == depth:  # every row is at its leaf
        return tree.value.take(at).take(path)
    flat, rows = cols.ravel(), np.arange(n)
    base = n * np.maximum(feature, 0)  # a leaf's comparison is moot
    bound = np.where(feature >= 0, threshold, np.inf)  # no row goes right of a leaf
    if depth:
        node = at.take(path)
    else:  # a small query: the root's test reads one whole column
        node, depth = left.item(0) + (cols[feature.item(0)] > threshold.item(0)), 1
    for _ in range(tree.depth - depth):
        node = left.take(node) + (flat.take(base.take(node) + rows) > bound.take(node))
    return tree.value.take(node)


def split_threshold(lo, hi):
    """Where to split between neighbouring values ``lo < hi`` (Python floats or arrays).

    The midpoint, or ``lo`` itself when the midpoint rounds onto ``hi`` (two
    adjacent floats) or overflows; rows equal to ``lo`` go left and rows
    equal to ``hi`` go right either way.
    """
    if type(lo) is float:  # one split: Python arithmetic rounds as numpy's does, without its call overhead
        mid = (lo + hi) / 2.0
        return mid if lo <= mid < hi else lo
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2.0
    return np.where((lo <= mid) & (mid < hi), mid, lo)


def n_candidate_features(n_features: int, feature_subsample: float) -> int:
    """Size of the per-node candidate feature set under subsampling."""
    return min(n_features, max(1, int(np.ceil(feature_subsample * n_features))))


# ---------------------------------------------------------------------------
# Fitting internals.


def canonical_rows(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort rows into canonical order (by features, then target).

    Any permutation of identical (x, y) rows sorts to the same sequence,
    which makes every downstream floating-point sum bit-stable and fitted
    trees independent of input row order.
    """
    order = np.lexsort((y, *(X[:, f] for f in range(X.shape[1] - 1, -1, -1))))
    return X[order], y[order]


def column_presort(X: np.ndarray) -> np.ndarray:
    """Per-feature stable sort order of ``X`` (already canonical) rows.

    Ties keep canonical row order. Exact growers start from it instead of
    sorting each node: a node's value-sorted rows are the global order
    restricted to the node.
    """
    presort = np.empty(X.shape, dtype=np.int64, order="F")
    for f in range(X.shape[1]):
        presort[:, f] = np.argsort(X[:, f], kind="stable")
    return presort


#: The deepest bound at which an exact tree over every feature grows node by
#: node. The node scan filters the whole presort at every node and the
#: level-wise one at every level, so the first wins while a tree has few
#: nodes per level. One sorted resample, level-wise / node by node (then
#: depth-first), median of alternating fits on 2 vCPUs: 1.8k rows, depth 5
#: 7.2 / 6.0 ms, 6 10.1 / 9.9, 7 11.5 / 14.9; 40k rows, depth 5 85 / 70 ms,
#: 6 108 / 103, 7 108 / 140.
_NODE_BY_NODE_MAX_DEPTH = 5


def grow_exact(
    X: np.ndarray, y: np.ndarray, max_depth: int | None, feature_subsample: float = 1.0, seed: int = 0
) -> Tree:
    """An exact tree on rows already in canonical order.

    A tree over every feature with ``max_depth`` at most
    :data:`_NODE_BY_NODE_MAX_DEPTH` grows node by node (:func:`_grow`); any
    other grows level by level (:func:`_grow_levels`), which draws
    random-forest feature subsets in level order. Both take the same split
    at every node, so the rule changes only the time a fit takes.
    """
    if feature_subsample >= 1.0 and max_depth is not None and max_depth <= _NODE_BY_NODE_MAX_DEPTH:
        return _grow(X, y, max_depth, ExactColumns(X))[0]
    return _grow_levels(X, y, max_depth, feature_subsample, seed)


def _grow_levels(
    X: np.ndarray, y: np.ndarray, max_depth: int | None, feature_subsample: float = 1.0, seed: int = 0
) -> Tree:
    """An exact tree on rows already in canonical order, grown level by level.

    All open nodes of a level are scanned together, over per-feature row
    lists kept sorted by (node, value, row) and partitioned stably at each
    split, as in SLIQ (Mehta et al., EDBT 1996) and SPRINT (Shafer et al.,
    VLDB 1996). Node values, group sums and prefix sums are each taken over
    the same numbers in the same order as a node-by-node scan would take
    them, so the tree equals the node-by-node one bit for bit. With
    ``feature_subsample`` < 1 the splittable nodes draw their candidate
    features in level order. The node arrays are built in level order, the
    children of each level's splitting nodes numbered after the level in turn.
    """
    n, n_features = X.shape
    rng = substream(seed, "tree-feature-subsample") if feature_subsample < 1.0 else None
    n_draw = n_candidate_features(n_features, feature_subsample)
    # Node arrays in level order. A tree has at most n leaves, so at most
    # 2n - 1 nodes, and one of depth d at most 2**(d + 1) - 1.
    capacity = 2 * n - 1 if max_depth is None else min(2 * n - 1, 2 ** (max_depth + 1) - 1)
    feature = np.full(capacity, -1, dtype=np.intp)
    threshold = np.zeros(capacity)
    value = np.empty(capacity)
    n_nodes = 1  # the nodes numbered so far
    # The open nodes of this level: their ids, their segments [bounds[i],
    # bounds[i + 1]) of `rows` (by node, then row) and of each `order[f]`
    # (by node, then x_f, then row).
    ids = np.zeros(1, dtype=np.intp)
    bounds = np.array([0, n])
    rows = np.arange(n)
    order = column_presort(X).T
    flat = np.ravel(X)  # x[r, f] is flat[r * n_features + f]
    goes_left = np.zeros(n, dtype=bool)
    for depth in itertools.count():
        sizes = np.diff(bounds)
        ys = y[rows]
        edges = bounds.tolist()
        for i, node in enumerate(ids.tolist()):  # np.add.reduce is np.sum without its wrapper
            value[node] = np.add.reduce(ys[edges[i] : edges[i + 1]]) / (edges[i + 1] - edges[i])
        if max_depth is not None and depth >= max_depth:
            break
        # A node splits only if its targets differ, so a single row is a leaf.
        open_ = np.minimum.reduceat(ys, bounds[:-1]) < np.maximum.reduceat(ys, bounds[:-1])
        if not open_.any():
            break
        if rng is None:
            pairs = np.broadcast_to(open_, (n_features, ids.size))
        else:
            pairs = np.zeros((n_features, ids.size), dtype=bool)
            for i in np.flatnonzero(open_):
                pairs[rng.choice(n_features, size=n_draw, replace=False), i] = True
        best_f, best_t, split = _level_splits(flat, y, order, bounds, pairs)
        if not split.any():
            break
        if not split.all():
            keep = np.repeat(split, sizes)
            ids, sizes, best_f, best_t = ids[split], sizes[split], best_f[split], best_t[split]
            rows, order = rows[keep], order[:, keep]
            bounds = np.concatenate(([0], np.cumsum(sizes)))

        at = np.repeat(np.arange(ids.size), sizes)
        go_left = flat.take(rows * n_features + best_f[at]) <= best_t[at]
        lefts = np.cumsum(go_left)[bounds[1:] - 1]
        n_left = np.diff(lefts, prepend=0)
        empty = (n_left == 0) | (n_left == sizes)
        if empty.any():
            i = int(np.argmax(empty))
            f, t = best_f[i], float(best_t[i])
            raise RuntimeError(f"split x[{f}] <= {t!r} leaves a child of node {ids[i]} empty")
        feature[ids], threshold[ids] = best_f, best_t
        ids = np.arange(n_nodes, n_nodes + 2 * ids.size)  # the children, in level order
        n_nodes += ids.size

        goes_left[rows] = go_left
        _partition(rows[None], goes_left, bounds, n_left)
        if max_depth is None or depth + 1 < max_depth:  # else the children are leaves
            _partition(order, goes_left, bounds, n_left)
        bounds = np.append(np.stack((bounds[:-1], bounds[:-1] + n_left), axis=1).ravel(), bounds[-1])
    # Copies: a view would keep the unused capacity alive as long as the tree.
    return Tree(*(a[:n_nodes].copy() for a in (feature, threshold, value)), n_features)


#: Entries of the per-feature row lists that one block of an exact level or
#: node scan reads at once; bounds its working set on large tables.
_SCAN_BLOCK = 1 << 17


def _level_splits(flat, y, order, bounds, pairs):
    """The best split of each open node of a level: (feature, threshold, gain > 0).

    ``flat`` is ``X`` raveled row by row. Only the (feature, node) pairs
    set in ``pairs`` are scanned. Candidate splits lie between the value
    groups of a pair's rows, and ties go to the lowest threshold, then the
    lowest feature. Each pair's prefix sums restart at its first group:
    pairs are laid out as zero-padded rows of blocks of equal power-of-two
    width, so no row is padded more than twofold, and each block is summed
    along its rows.
    """
    n_features, k = pairs.shape
    sizes = np.diff(bounds)
    node_start = np.zeros(bounds[-1], dtype=bool)
    node_start[bounds[:-1]] = True
    step = max(1, _SCAN_BLOCK // bounds[-1])
    parts = [
        _value_groups(flat, y, order, pairs, sizes, node_start, f, f + step) for f in range(0, n_features, step)
    ]
    group_y, group_n, group_x, n_groups = (np.concatenate(a) for a in zip(*parts))
    del parts
    pair_f, pair_node = np.nonzero(pairs)
    pair_end = np.cumsum(n_groups)
    pair_first = pair_end - n_groups

    # A group's place in the table is its pair's row start plus its rank in the pair.
    # Each per-group temporary is deleted once used, to bound the level's peak memory.
    width_exp = np.frexp(n_groups - 1)[1]  # 2**width_exp is the least power of two >= n_groups
    by_width = np.argsort(width_exp, kind="stable")
    width = np.left_shift(1, width_exp[by_width])
    row_start = np.empty_like(width)
    row_start[by_width] = np.cumsum(width) - width
    dst = np.repeat(row_start - pair_first, n_groups)
    dst += np.arange(dst.size)
    padded = np.zeros(int(width.sum()))
    padded[dst] = group_y
    del group_y
    exps, n_rows = np.unique(width_exp[by_width], return_counts=True)
    start = 0
    for e, rows in zip(exps.tolist(), n_rows.tolist()):
        end = start + (rows << e)
        padded[start:end] = np.cumsum(padded[start:end].reshape(rows, 1 << e), axis=1).ravel()
        start = end
    s_left = padded[dst]
    del padded, dst
    n_tot = sizes[pair_node]
    n_left = np.cumsum(group_n)
    del group_n
    n_left -= np.repeat(n_left[pair_end - 1] - n_tot, n_groups)
    s_tot = s_left[pair_end - 1]
    score = _split_scores(s_left, n_left, np.repeat(s_tot, n_groups), np.repeat(n_tot, n_groups))
    del s_left, n_left
    pair_score = np.maximum.reduceat(score, pair_first)
    hit = np.flatnonzero(score == np.repeat(pair_score, n_groups))
    pair_pos = hit[np.searchsorted(hit, pair_first)]  # first best group of each pair

    by_node = np.full((n_features, k), -np.inf)
    by_node[pair_f, pair_node] = pair_score
    pair_at = np.zeros((n_features, k), dtype=np.intp)
    pair_at[pair_f, pair_node] = np.arange(pair_f.size)
    best_f = np.argmax(by_node, axis=0)
    best = pair_at[best_f, np.arange(k)]
    split = by_node[best_f, np.arange(k)] - s_tot[best] * s_tot[best] / n_tot[best] > 0.0
    lo = pair_pos[best[split]]
    best_t = np.zeros(k)
    best_t[split] = split_threshold(group_x[lo], group_x[lo + 1])
    return best_f, best_t, split


def _value_groups(flat, y, order, pairs, sizes, node_start, f0, f1):
    """Target sum, row count and value of each value group of the pairs of features ``f0:f1``.

    Also the number of groups of each pair, pairs in ``np.nonzero`` order.
    """
    block = pairs[f0:f1]
    if block.all():
        sorted_rows = order[f0:f1].ravel()
        new_group = np.tile(node_start, block.shape[0])
        per_feature = np.full(block.shape[0], order.shape[1])
    else:
        keep = np.repeat(block, sizes, axis=1)
        sorted_rows = order[f0:f1][keep]
        new_group = np.broadcast_to(node_start, keep.shape)[keep]
        per_feature = np.count_nonzero(keep, axis=1)
    at = sorted_rows * order.shape[0]  # x[r, f] is flat[r * n_features + f]
    at += np.repeat(np.arange(f0, f0 + block.shape[0]), per_feature)
    sv = flat.take(at)
    del at
    pair_start = new_group.copy()
    new_group[1:] |= sv[1:] != sv[:-1]
    starts = np.flatnonzero(new_group)
    ends = np.append(starts[1:], sv.size)
    pair_first = np.flatnonzero(pair_start[starts])
    return (
        np.add.reduceat(y[sorted_rows], starts),
        ends - starts,
        sv[starts],
        np.append(pair_first[1:], starts.size) - pair_first,
    )


def _partition(a: np.ndarray, goes_left: np.ndarray, bounds: np.ndarray, n_left: np.ndarray) -> None:
    """Move, in place, the left-going entries of every segment of each row of ``a`` ahead of the rest, in order.

    ``goes_left`` is indexed by the entries of ``a``. Rows move one at a
    time, so that no temporary is larger than a row.
    """
    sizes = np.diff(bounds)
    n_through = np.cumsum(n_left)  # left-going entries of the segments up to each one
    # With L the left-going entries of the row up to an entry, a left-going
    # entry moves to its segment's start plus its rank among them ...
    left_base = np.repeat(bounds[:-1] - 1 - (n_through - n_left), sizes)
    # ... and a right-going one ahead by the segment's left-going entries after it.
    right_base = np.arange(bounds[-1]) + np.repeat(n_through, sizes)
    for row in a:
        go_left = goes_left[row]
        lefts = go_left.astype(np.intp)
        np.cumsum(lefts, out=lefts)
        row[np.where(go_left, lefts + left_base, right_base - lefts)] = row.copy()


class ExactColumns:
    """Each feature's rows in ascending value order, with the values: what an exact node scan reads.

    Built from rows in canonical order (ties keep that order), once per
    gradient-boosting fit and shared by its stages, or once per shallow
    exact tree: a node's value-sorted rows are these lists filtered to the
    node, through a row mask each node sets and clears.
    """

    __slots__ = ("rows", "values", "member")

    def __init__(self, X: np.ndarray):
        self.rows = column_presort(X).T  # (n_features, n), C-contiguous
        self.values = np.take_along_axis(X.T, self.rows, axis=1)
        self.member = np.zeros(X.shape[0], dtype=bool)

    def best_split(self, y: np.ndarray, yn: np.ndarray, idx: np.ndarray) -> tuple[int, float] | None:
        """The node's best split between two value groups (see :func:`_grow`).

        Groups of equal values, all features in one list, have their target
        sums added by ``reduceat``, and each feature's prefix sums by one
        ``accumulate``: the same numbers in the same order as a per-feature
        ``cumsum``.
        """
        n_features, n = self.rows.shape
        m = idx.size
        self.member[idx] = True
        step = max(1, _SCAN_BLOCK // n)  # a feature's filter reads all n entries of its list
        parts = []
        for f in range(0, n_features, step):
            rows, sv = self.rows[f : f + step].ravel(), self.values[f : f + step].ravel()
            if m < n:  # keep the node's entries, still sorted by (feature, value)
                at = np.flatnonzero(self.member.take(rows))
                rows, sv = rows.take(at), sv.take(at)
            new_group = np.empty(sv.size, dtype=bool)
            np.not_equal(sv[1:], sv[:-1], out=new_group[1:])
            new_group[::m] = True  # each feature's first entry
            starts = np.flatnonzero(new_group)
            parts.append((np.add.reduceat(y.take(rows), starts), sv.take(starts), starts + f * m))
        self.member[idx] = False
        g_y, g_x, starts = (np.concatenate(a) for a in zip(*parts))
        group_f = starts // m  # every feature keeps all m entries
        ends = np.searchsorted(starts, np.arange(m, (n_features + 1) * m, m))  # past each feature's last group
        bounds = [0, *ends.tolist()]
        s_left = np.concatenate([np.add.accumulate(g_y[a:b]) for a, b in zip(bounds, bounds[1:])])
        last = ends - 1
        s_tot = s_left.take(last)
        s_right = s_tot.take(group_f) - s_left
        n_left = np.append(starts[1:], n_features * m) - group_f * m
        n_right = m - n_left
        n_right[last] = 1  # groups are nonempty: only a feature's last one leaves a side empty
        score = s_left * s_left / n_left + s_right * s_right / n_right
        score[last] = -np.inf
        pos = int(score.argmax())
        f = int(group_f[pos])
        s = s_tot.item(f)
        if score.item(pos) - s * s / m <= 0.0:  # see _split_scores
            return None
        return f, split_threshold(g_x.item(pos), g_x.item(pos + 1))


class BinnedColumns:
    """The histogram key of every value, and the bins' value ranges: what a histogram node scan reads.

    Built once per fit from the training rows, which it bins itself: a
    feature with at most :data:`MAX_BINS` distinct values gets one bin per
    value, so histogram splits have the exact candidates; a denser feature
    gets bins between its deduplicated ``i/MAX_BINS`` quantiles.
    ``keys[r, f]`` is ``f * W + code``, with ``code`` the bin of ``X[r, f]``
    and W the widest feature's bin count: a node's keys count into a dense
    (feature, bin) table of ``n_features * W`` cells. ``bin_min[f, b]`` and
    ``bin_max[f, b]`` are the smallest and largest value in bin b of feature
    f, padded to that table; split thresholds fall between them.
    """

    __slots__ = ("keys", "bin_min", "bin_max")

    def __init__(self, X: np.ndarray):
        codes = np.empty(X.shape[::-1], dtype=np.uint8)  # codes[f, r] is the bin of X[r, f]
        ranges = []
        for f, col in enumerate(X.T):
            uniq = np.unique(col)
            if uniq.size <= MAX_BINS:  # a value's code is its rank
                codes[f] = np.searchsorted(uniq, col)
                ranges.append((uniq, uniq))
                continue
            edges = np.unique(np.quantile(col, np.arange(1, MAX_BINS) / MAX_BINS))
            code = np.searchsorted(edges, col)  # the number of edges below the value
            lo, hi = np.full(edges.size + 1, np.inf), np.full(edges.size + 1, -np.inf)
            np.minimum.at(lo, code, col)
            np.maximum.at(hi, code, col)
            codes[f] = code
            ranges.append((lo, hi))
        width = max(lo.size for lo, _ in ranges)
        self.keys = codes.T.astype(np.intp, order="C")  # bincount would cast narrower keys on every call
        self.keys += np.arange(0, X.shape[1] * width, width)
        self.bin_min, self.bin_max = (
            np.stack([np.pad(v, (0, width - v.size)) for v in a]) for a in zip(*ranges)
        )

    def best_split(self, y: np.ndarray, yn: np.ndarray, idx: np.ndarray) -> tuple[int, float] | None:
        """The node's best split between two nonempty bins (see :func:`_grow`).

        Bins count and sum their rows in canonical order. ``bincount`` adds
        sequentially and the exact scan's ``reduceat`` does not, so the sums
        match exact groups bit for bit only when they are exact. An empty bin
        adds zeros, so it repeats the score of the bin before it.
        """
        n_features, width = self.bin_min.shape
        keys = self.keys.take(idx, axis=0).ravel()
        n_left = np.cumsum(np.bincount(keys, minlength=n_features * width).reshape(n_features, width), axis=1)
        sums = np.bincount(keys, weights=np.repeat(yn, n_features), minlength=n_features * width)
        s_left = np.cumsum(sums.reshape(n_features, width), axis=1)
        s_tot = s_left[:, -1:]
        score = _split_scores(s_left, n_left, s_tot, idx.size)
        f, j = divmod(int(score.argmax()), width)
        s = s_tot.item(f)
        if score.item(f, j) - s * s / idx.size <= 0.0:  # see _split_scores
            return None
        nxt = int(np.searchsorted(n_left[f], n_left[f, j], side="right"))  # the next nonempty bin
        return f, split_threshold(self.bin_max.item(f, j), self.bin_min.item(f, nxt))


def _grow(
    X: np.ndarray, y: np.ndarray, max_depth: int | None, columns: ExactColumns | BinnedColumns
) -> tuple[Tree, np.ndarray]:
    """Grow one tree node by node, breadth first; also return the leaf index of every training row.

    Serves the boosting stages, :func:`fit_tree_hist` and shallow exact
    trees over every feature (:func:`grow_exact`), scanning ``columns``
    built from ``X``; other exact trees grow level by level.
    Every feature is a candidate at every node, and ``columns.best_split``
    gives a node's best split or None for a leaf. Nodes are numbered in the
    order they leave the queue, which is level order (see :class:`Tree`).
    """
    feature: list[int] = []
    threshold: list[float] = []
    value: list[float] = []
    leaf_of = np.empty(X.shape[0], dtype=np.intp)
    queue = deque([(np.arange(X.shape[0], dtype=np.int64), 0)])  # (rows, depth) of each node
    while queue:
        idx, depth = queue.popleft()
        node = len(value)
        yn = y.take(idx)
        value.append(float(np.add.reduce(yn) / idx.size))  # np.add.reduce is np.sum without its wrapper
        # A constant target (a single row included) cannot split: no split can reduce variance.
        stop = (max_depth is not None and depth >= max_depth) or (yn[0] == yn[-1] and (yn == yn[0]).all())
        best = None if stop else columns.best_split(y, yn, idx)
        if best is None:
            feature.append(-1)
            threshold.append(0.0)
            leaf_of[idx] = node
            continue
        f, t = best
        go_left = X[idx, f] <= t
        if not 0 < np.count_nonzero(go_left) < idx.shape[0]:
            raise RuntimeError(f"split x[{f}] <= {t!r} leaves a child of node {node} empty")
        feature.append(f)
        threshold.append(t)
        queue += ((idx[go_left], depth + 1), (idx[~go_left], depth + 1))
    tree = Tree(
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold, dtype=np.float64),
        value=np.array(value, dtype=np.float64),
        n_features=X.shape[1],
    )
    return tree, leaf_of


def _split_scores(s_left, n_left, s_tot, n_tot) -> np.ndarray:
    """S_L^2/N_L + S_R^2/N_R of splitting a node after each value group.

    ``s_left`` and ``n_left`` are the target sum and row count of the groups
    up to each one, ``s_tot`` and ``n_tot`` those of the whole node. A split
    leaving a side empty scores -inf. The SSE decrease of a split is its
    score minus the parent term S^2/N; a node splits at its first best
    candidate (the lowest feature, then the lowest threshold) if that is
    positive, and not when every feature is constant (all -inf).
    """
    s_right = s_tot - s_left
    n_right = n_tot - n_left
    with np.errstate(divide="ignore", invalid="ignore"):
        score = s_left * s_left / n_left + s_right * s_right / n_right
    score[(n_left == 0) | (n_right == 0)] = -np.inf
    return score
