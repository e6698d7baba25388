"""Deterministic gradient-boosted decision trees for binary targets.

Trees are grown leaf-wise (best split anywhere in the tree first) with
exact split search over sorted unique feature values, second-order gain,
and optional row bagging and per-round feature subsampling. Everything
downstream of the seed is deterministic: ties break toward the lower
feature index, then the lower threshold, then the earlier-created leaf,
and the single generator is consumed in a fixed order (bag draw, then
feature draw, each round). This keeps fits reproducible bit-for-bit and
checkable against brute-force oracles.

Split search uses the column blocks of the exact greedy algorithm in
XGBoost (Chen & Guestrin 2016, arXiv:1603.02754). Each fit sorts every
feature once. Each round filters those orders down to the bagged rows
and drawn features, and every leaf carries a (features, rows) block
whose row ``i`` lists the leaf's rows sorted by the ``i``-th drawn
feature. A split divides the block with a boolean mask, which keeps
every order, so no node sorts anything. Equal feature values therefore
accumulate in row-index order in the gradient sums.

Prediction, and each round's score update while fitting, walk one flat
layout of the trees. Every node's feature, threshold, first child and
leaf value sit in arrays, with a node's two children side by side, right
child first, so one step is ``node = first[node] + (x[feature[node]] <=
threshold[node])``: a value equal to the threshold goes left and NaN goes
right. A leaf is its own first child with a NaN threshold, so a step
leaves it in place. All trees and a block of ``_WALK_POSITIONS // n_trees``
rows step together, and every ``_REGATHER_LEVELS`` steps the positions
that have reached a leaf are dropped. Leaf values are then added to the
base score one tree at a time, in tree order, so a row's score is the
same bit for bit whatever else is in its block.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from ._jsonl import from_json_object, typed_value

PROB_EPS = 1e-15

# A split must beat the parent score by more than its floating-point
# cancellation noise; otherwise constant-gradient nodes (e.g. from a
# constant-label fit, where every true gain is exactly zero) would grow
# trees out of ~1e-29 rounding residue.
GAIN_NOISE_REL = 1e-12

_SEED_MASK = 0xFFFFFFFFFFFFFFFF

# Positions (rows times trees) that one block of a tree walk steps together.
_WALK_POSITIONS = 2**15
# Steps taken between drops of the positions that have reached a leaf.
_REGATHER_LEVELS = 6


@dataclass(frozen=True)
class MetaLearnerConfig:
    """Boosting hyperparameters.

    Defaults are the production meta-learner settings; ``seed`` feeds the
    single random generator used for bagging and feature subsampling.
    """

    objective: str = "binary_logloss"
    num_leaves: int = 34
    learning_rate: float = 0.05
    feature_fraction: float = 0.9
    bagging_fraction: float = 0.8
    bagging_freq: int = 5
    num_rounds: int = 100
    min_data_in_leaf: int = 20
    l2_leaf_regularization: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.objective != "binary_logloss":
            raise ValueError(f"unsupported objective {self.objective!r}")
        if self.num_leaves < 2:
            raise ValueError("num_leaves must be at least 2")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0 < self.feature_fraction <= 1:
            raise ValueError("feature_fraction must be in (0, 1]")
        if not 0 < self.bagging_fraction <= 1:
            raise ValueError("bagging_fraction must be in (0, 1]")
        if self.bagging_freq < 1:
            raise ValueError("bagging_freq must be at least 1")
        if self.num_rounds < 0:
            raise ValueError("num_rounds must be nonnegative")
        if self.min_data_in_leaf < 1:
            raise ValueError("min_data_in_leaf must be at least 1")
        if not 0 <= self.l2_leaf_regularization < math.inf:
            raise ValueError("l2_leaf_regularization must be nonnegative and finite")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, cfg: Mapping) -> "MetaLearnerConfig":
        return from_json_object(cls, cfg, "config")


@dataclass
class TreeNode:
    """Binary tree node: internal (feature_index/threshold/children) or leaf (value)."""

    feature_index: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float | None = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"value": self.value}
        return {
            "feature_index": self.feature_index,
            "threshold": self.threshold,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, node: Mapping) -> "TreeNode":
        if "value" in typed_value(node, "dict", "tree node"):
            return cls(value=float(typed_value(node["value"], "float", "value")))
        return cls(
            feature_index=typed_value(node["feature_index"], "int", "feature_index"),
            threshold=float(typed_value(node["threshold"], "float", "threshold")),
            left=cls.from_dict(node["left"]),
            right=cls.from_dict(node["right"]),
        )


@dataclass
class BoostedTrees:
    """A fitted booster: constant base score plus additive trees.

    Prediction builds the flat layout of ``trees`` on first use and keeps
    it. After the first prediction, neither ``trees`` (appending, removing
    or reassigning) nor any node in it (its feature, threshold, value or
    children) may change: later predictions would still score the old
    trees.
    """

    base_score: float
    trees: list[TreeNode]
    config: MetaLearnerConfig
    train_logloss: list[float] = field(default_factory=list)

    @cached_property
    def _flat(self) -> "_FlatTrees":
        return _FlatTrees(self.trees)


def clamp_probability(p: float) -> float:
    """Clamp to [PROB_EPS, 1 - PROB_EPS] so logs and logits stay finite."""
    return min(max(p, PROB_EPS), 1.0 - PROB_EPS)


def _sigmoid_array(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _logloss(raw: np.ndarray, y: np.ndarray) -> float:
    p = np.clip(_sigmoid_array(raw), PROB_EPS, 1.0 - PROB_EPS)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


@dataclass(eq=False)
class _Candidate:
    gain: float
    feature: int
    threshold: float
    left_rows: np.ndarray


@dataclass(eq=False)
class _Leaf:
    block: np.ndarray
    node: TreeNode
    best: "_Candidate | None"


def _filter_block(block: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Rows of ``block`` whose id is marked in ``keep``, each feature's order kept.

    Every row of a block lists the same row set, so each keeps the same
    count and the flat result reshapes exactly.
    """
    return block[keep[block]].reshape(len(block), -1)


def _best_split(
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    block: np.ndarray,
    features: np.ndarray,
    l2: float,
    min_data: int,
) -> _Candidate | None:
    """Exact best split of a leaf; None when no split has positive gain.

    ``block`` is the leaf's (len(features), m) column block: row ``i``
    lists the leaf's row ids sorted by feature ``features[i]``, with equal
    values in row-index order for blocks cut from the per-fit presort.
    All features are scored in one vectorised pass over cumulative
    gradient sums, so no sort happens here. Candidate thresholds are
    midpoints between consecutive distinct sorted values; both children
    must keep at least ``min_data`` rows. Ties break toward the lower
    feature index, then the lower threshold. Gains must clear
    ``GAIN_NOISE_REL`` times the parent score, which rejects true-zero
    gains inflated by cancellation noise.
    """
    m = block.shape[1]
    if m < 2 * min_data:
        return None
    g_total = float(g[block[0]].sum())
    h_total = float(h[block[0]].sum())
    parent_score = g_total * g_total / (h_total + l2)

    # Cut c sends sorted positions 0..c left; lo..hi-1 are the cuts that
    # leave at least min_data rows on each side.
    lo, hi = min_data - 1, m - min_data
    xs = X[block, features[:, None]]
    g_left = np.cumsum(g[block], axis=1)[:, lo:hi]
    h_left = np.cumsum(h[block], axis=1)[:, lo:hi]
    g_right = g_total - g_left
    h_right = h_total - h_left
    gains = 0.5 * (
        g_left * g_left / (h_left + l2)
        + g_right * g_right / (h_right + l2)
        - parent_score
    )
    gains[xs[:, lo:hi] == xs[:, lo + 1 : hi + 1]] = -np.inf
    cuts = np.argmax(gains, axis=1)
    best = gains[np.arange(len(features)), cuts]
    pos = int(np.argmax(best))
    if not best[pos] > GAIN_NOISE_REL * abs(parent_score):
        return None
    cut = lo + int(cuts[pos])
    return _Candidate(
        gain=float(best[pos]),
        feature=int(features[pos]),
        threshold=float((xs[pos, cut] + xs[pos, cut + 1]) / 2.0),
        left_rows=block[pos, : cut + 1],
    )


def _grow_tree(
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    block: np.ndarray,
    features: np.ndarray,
    config: MetaLearnerConfig,
) -> TreeNode | None:
    """Grow one tree leaf-wise from the root's column block.

    Returns None when even the root has no positive-gain split.
    """
    l2 = config.l2_leaf_regularization
    root = TreeNode()
    first = _Leaf(
        block=block,
        node=root,
        best=_best_split(X, g, h, block, features, l2, config.min_data_in_leaf),
    )
    if first.best is None:
        return None
    # ``leaves`` stays in creation order: a split leaf is removed and its
    # children appended. ``max`` returns the first of equal gains, so ties
    # split the earlier-created leaf.
    leaves = [first]
    while len(leaves) < config.num_leaves:
        splittable = [leaf for leaf in leaves if leaf.best is not None]
        if not splittable:
            break
        leaf = max(splittable, key=lambda lf: lf.best.gain)
        cand = leaf.best
        leaf.node.feature_index = cand.feature
        leaf.node.threshold = cand.threshold
        leaf.node.left = TreeNode()
        leaf.node.right = TreeNode()
        leaves.remove(leaf)
        goes_left = np.zeros(len(X), dtype=bool)
        goes_left[cand.left_rows] = True
        for child_block, child in (
            (_filter_block(leaf.block, goes_left), leaf.node.left),
            (_filter_block(leaf.block, ~goes_left), leaf.node.right),
        ):
            leaves.append(
                _Leaf(
                    block=child_block,
                    node=child,
                    best=_best_split(
                        X, g, h, child_block, features, l2, config.min_data_in_leaf
                    ),
                )
            )
    for leaf in leaves:
        g_sum = float(g[leaf.block[0]].sum())
        h_sum = float(h[leaf.block[0]].sum())
        leaf.node.value = -g_sum / (h_sum + l2) * config.learning_rate
    return root


class _FlatTrees:
    """The nodes of ``trees`` in flat arrays, breadth first across all trees.

    Node ``t`` is the root of tree ``t``. An internal node ``i`` has its
    right child at ``first[i]`` and its left child at ``first[i] + 1``; a
    leaf is its own ``first``, with feature 0 and a NaN threshold.
    """

    def __init__(self, trees: Sequence[TreeNode]) -> None:
        nodes = list(trees)
        first, feature, threshold, value = [], [], [], []
        # ``nodes`` grows while it is read: each internal node appends its children.
        for i, node in enumerate(nodes):
            if node.is_leaf:
                first.append(i)
                feature.append(0)
                threshold.append(math.nan)
                value.append(node.value)
            else:
                first.append(len(nodes))
                feature.append(node.feature_index)
                threshold.append(node.threshold)
                value.append(0.0)
                nodes += (node.right, node.left)
        self.n_trees = len(trees)
        self.first = np.array(first, dtype=np.intp)
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold, dtype=np.float64)
        self.value = np.array(value, dtype=np.float64)
        split = self.feature[self.first != np.arange(len(first))]
        # The lowest and highest feature that a split reads; (0, -1) with no split.
        self.feature_span = (int(split.min()), int(split.max())) if len(split) else (0, -1)

    def check_features(self, n_features: int) -> None:
        """Refuse a split on a feature outside ``[0, n_features)``."""
        low, high = self.feature_span
        if low < 0 or high >= n_features:
            bad = low if low < 0 else high
            raise ValueError(f"feature_index must be in [0, {n_features}), got {bad}")


def _add_leaf_values(flat: _FlatTrees, X: np.ndarray, raw: np.ndarray) -> None:
    """Add to ``raw[i]`` the leaf value of every tree for row ``X[i]``, in tree order."""
    n_trees = flat.n_trees
    if n_trees == 0:
        return
    flat.check_features(X.shape[1])
    first, feature, threshold = flat.first, flat.feature, flat.threshold
    rows_per_block = max(1, _WALK_POSITIONS // n_trees)
    for start in range(0, len(X), rows_per_block):
        block = X[start : start + rows_per_block]
        m, d = block.shape
        xs = block.ravel()
        # Position p walks tree p // m for row p % m; ``off`` is where the row starts in xs.
        node = np.repeat(np.arange(n_trees), m)
        live = np.flatnonzero(first[node] != node)
        at = node[live]
        off = (live % m) * d
        while len(live):
            for _ in range(_REGATHER_LEVELS):
                at = first[at] + (xs[off + feature[at]] <= threshold[at])
            node[live] = at
            inner = first[at] != at
            live, at, off = live[inner], at[inner], off[inner]
        # cumsum adds row by row: the block's scores, then each tree's values in turn.
        sums = np.empty((n_trees + 1, m), dtype=np.float64)
        sums[0] = raw[start : start + m]
        sums[1:] = flat.value[node].reshape(n_trees, m)
        raw[start : start + m] = np.cumsum(sums, axis=0)[-1]


def gbdt_fit(
    features: Sequence[Sequence[float]] | np.ndarray,
    labels: Sequence[float] | np.ndarray,
    config: MetaLearnerConfig | None = None,
) -> BoostedTrees:
    """Fit boosted trees to binary labels with logistic loss.

    The base score is the clamped log-odds of the label base rate; each
    round fits one tree to the current gradients, skipping the round's
    tree entirely when no positive-gain root split exists (so a fit on
    constant labels predicts exactly the clamped base rate). Rows are
    re-bagged on rounds divisible by ``bagging_freq`` when
    ``bagging_fraction < 1``; a feature subset of size
    ``ceil(feature_fraction * n_features)`` is drawn every round when
    ``feature_fraction < 1``. ``train_logloss`` holds the full-data loss
    before boosting and after every round.
    """
    config = config or MetaLearnerConfig()
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"features must be 2-dimensional, got shape {X.shape}")
    if len(X) != len(y):
        raise ValueError(f"features ({len(X)}) and labels ({len(y)}) length mismatch")
    if len(X) == 0:
        raise ValueError("cannot fit on an empty dataset")
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise ValueError("labels must be 0 or 1")
    if not np.all(np.isfinite(X)):
        raise ValueError("features must be finite")

    n, d = X.shape
    base_rate = clamp_probability(float(y.mean()))
    base_score = math.log(base_rate / (1.0 - base_rate))
    raw = np.full(n, base_score, dtype=np.float64)
    rng = np.random.default_rng(config.seed & _SEED_MASK)
    trees: list[TreeNode] = []
    losses = [_logloss(raw, y)]
    # Column blocks: row ids sorted by each feature, equal values in
    # row-index order. Sorted once per fit; each round filters them.
    presorted = np.argsort(X, axis=0, kind="stable").T
    in_bag = np.ones(n, dtype=bool)
    for round_index in range(config.num_rounds):
        if config.bagging_fraction < 1 and round_index % config.bagging_freq == 0:
            k = math.ceil(config.bagging_fraction * n)
            in_bag = np.zeros(n, dtype=bool)
            in_bag[rng.choice(n, size=k, replace=False)] = True
        if config.feature_fraction < 1:
            kf = math.ceil(config.feature_fraction * d)
            features_used = np.sort(rng.choice(d, size=kf, replace=False))
        else:
            features_used = np.arange(d)
        p = np.clip(_sigmoid_array(raw), PROB_EPS, 1.0 - PROB_EPS)
        g = p - y
        h = p * (1.0 - p)
        block = _filter_block(presorted[features_used], in_bag)
        tree = _grow_tree(X, g, h, block, features_used, config)
        if tree is not None:
            trees.append(tree)
            _add_leaf_values(_FlatTrees([tree]), X, raw)
        losses.append(_logloss(raw, y))
    return BoostedTrees(base_score=base_score, trees=trees, config=config, train_logloss=losses)


def gbdt_predict_proba_many(model: BoostedTrees, X: np.ndarray) -> np.ndarray:
    """Predicted positive-class probabilities for an (n, d) feature matrix."""
    X = np.asarray(X, dtype=np.float64)
    raw = np.full(len(X), model.base_score, dtype=np.float64)
    _add_leaf_values(model._flat, X, raw)
    return _sigmoid_array(raw)
