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
feature. A split gathers one mask, an entry per block entry marking the
rows that go left, and compresses the flat block by it and by its
negation into the two children's blocks. That keeps every order, so no
node sorts anything, and equal feature values accumulate in row-index
order in the gradient sums. Each round packs every row's gradient and
hessian into one complex number, its real and imaginary parts, so a
search makes one gather and one cumulative sum over the block where it
would make two of each; complex addition adds the parts apart, so each
sum is bit for bit the real one. A cut between two equal feature values
is no split. The search takes the best cut without regard to ties, and
masks the tied cuts and searches again only when that cut is a tie:
masking only lowers gains, so a best cut that is not a tie stays the
first maximum after masking. Nothing reads the best split of the
children of a tree's last split, so they are not searched.

A booster is its nodes in flat, read-only arrays, as XGBoost and LightGBM
keep it: ``roots[t]`` is tree ``t``'s root, and a node's two children sit
side by side after it, right first, so one step is ``node = first[node] +
(x[feature[node]] <= threshold[node])``. A value equal to the threshold
goes left and NaN goes right; a leaf is its own first child with a NaN
threshold, so a step leaves it in place. Prediction, and each round's
score update while fitting, step all trees and a block of
``_WALK_POSITIONS // n_trees`` rows together, and every
``_REGATHER_LEVELS`` steps drop the positions that have reached a leaf.
Leaf values are then added to the base score one tree at a time, in tree
order, so a row's score is the same bit for bit whatever else is in its
block. The grower writes each tree's nodes in creation order; a model
file's nested trees are read breadth first and written with loops, not
recursion. Each node is checked as it is read, so a booster is never
built from a bad file and then swept for bad values.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
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


@dataclass(frozen=True, eq=False)
class BoostedTrees:
    """A fitted booster: a constant base score plus trees in flat node arrays.

    A leaf has feature 0 and a split the value 0, and a split's children
    follow it. The arrays are read-only, so copies made with
    ``dataclasses.replace`` share them.
    """

    base_score: float
    roots: np.ndarray
    first: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray
    train_logloss: list[float] = field(default_factory=list)
    # The lowest and highest feature that a split reads; (0, -1) with no split.
    _feature_span: tuple[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("roots", "first", "feature", "threshold", "value"):
            dtype = np.float64 if name in ("threshold", "value") else np.intp
            array = np.asarray(getattr(self, name), dtype=dtype)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        split = self.feature[self.first != np.arange(len(self.first))]
        span = (int(split.min()), int(split.max())) if len(split) else (0, -1)
        object.__setattr__(self, "_feature_span", span)

    @classmethod
    def from_dicts(cls, base_score: float, trees: Sequence[Mapping], n_features: int,
                   train_logloss: Sequence[float] = ()) -> "BoostedTrees":
        """A booster from nested tree dicts, as :meth:`tree_dicts` gives them.

        Nodes are numbered breadth first across the trees: tree ``t``'s root is node ``t``.
        A split on a feature outside ``[0, n_features)``, or a number that is not
        finite, raises ``ValueError`` naming the field as its node is read.
        """
        nodes = list(trees)
        first, feature, threshold, value = [], [], [], []
        # ``nodes`` grows while it is read: each split appends its children.
        for i, node in enumerate(nodes):
            if "value" in typed_value(node, "dict", "tree node"):
                first.append(i)
                feature.append(0)
                threshold.append(math.nan)
                value.append(float(typed_value(node["value"], "float", "value")))
            else:
                first.append(len(nodes))
                index = typed_value(node["feature_index"], "int", "feature_index")
                if not 0 <= index < n_features:
                    raise ValueError(f"feature_index must be in [0, {n_features}), got {index}")
                feature.append(index)
                threshold.append(float(typed_value(node["threshold"], "float", "threshold")))
                value.append(0.0)
                nodes += (node["right"], node["left"])
        return cls(base_score, np.arange(len(trees)), first, feature, threshold, value,
                   list(train_logloss))

    def tree_dicts(self, roots: Sequence[int] | None = None) -> list[dict]:
        """The trees rooted at ``roots`` (every tree by default) as nested dicts.

        A leaf is ``{"value"}``, a split ``{"feature_index", "threshold", "left", "right"}``.
        Nodes are built last to first, so a split's children, which follow it, are ready.
        """
        first, feature, threshold, value = (
            array.tolist() for array in (self.first, self.feature, self.threshold, self.value)
        )
        nodes: list[dict] = [{}] * len(first)
        for i in reversed(range(len(first))):
            right = first[i]
            if right == i:
                nodes[i] = {"value": value[i]}
            else:
                nodes[i] = {"feature_index": feature[i], "threshold": threshold[i],
                            "left": nodes[right + 1], "right": nodes[right]}
        return [nodes[i] for i in (self.roots.tolist() if roots is None else roots)]

    @property
    def trees(self) -> list["TreeNode"]:
        """A view of each tree's root node, in tree order."""
        return [TreeNode(self, root) for root in self.roots.tolist()]

    def negates(self, other: "BoostedTrees") -> bool:
        """Whether this booster is ``other`` negated, as the Neutral head of a fit is.

        The roots, children, split features and thresholds must be equal (NaN
        equal to NaN), and the base score and every leaf value the negation of
        ``other``'s, compared as bits. Split nodes' values are never read, and a
        negated copy holds ``-0.0`` where the original holds ``0.0``, so they are
        not compared.
        """
        if not (np.array_equal(self.roots, other.roots)
                and np.array_equal(self.first, other.first)
                and np.array_equal(self.feature, other.feature)
                and np.array_equal(self.threshold, other.threshold, equal_nan=True)):
            return False
        leaves = self.first == np.arange(len(self.first))
        mine = np.append(self.base_score, self.value[leaves])
        theirs = np.append(-other.base_score, -other.value[leaves])
        return np.array_equal(mine.view(np.uint64), theirs.view(np.uint64))

    def check_features(self, n_features: int) -> None:
        """Refuse a split on a feature outside ``[0, n_features)``."""
        low, high = self._feature_span
        if low < 0 or high >= n_features:
            bad = low if low < 0 else high
            raise ValueError(f"feature_index must be in [0, {n_features}), got {bad}")


@dataclass(frozen=True)
class TreeNode:
    """A read-only view of node ``index`` of ``booster``.

    A leaf's split attributes are None, and so is a split's ``value``.
    """

    booster: BoostedTrees
    index: int

    @property
    def is_leaf(self) -> bool:
        return int(self.booster.first[self.index]) == self.index

    def _read(self, array: np.ndarray, on_leaf: bool):
        return array[self.index].item() if self.is_leaf == on_leaf else None

    @property
    def feature_index(self) -> int | None:
        return self._read(self.booster.feature, False)

    @property
    def threshold(self) -> float | None:
        return self._read(self.booster.threshold, False)

    @property
    def value(self) -> float | None:
        return self._read(self.booster.value, True)

    @property
    def left(self) -> "TreeNode | None":
        right = self.right
        return None if right is None else TreeNode(self.booster, right.index + 1)

    @property
    def right(self) -> "TreeNode | None":
        first = self._read(self.booster.first, False)
        return None if first is None else TreeNode(self.booster, first)

    def to_dict(self) -> dict:
        return self.booster.tree_dicts([self.index])[0]


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


def _clipped_probabilities(raw: np.ndarray) -> np.ndarray:
    return np.clip(_sigmoid_array(raw), PROB_EPS, 1.0 - PROB_EPS)


def _logloss(p: np.ndarray, y: np.ndarray) -> float:
    """Mean logistic loss of clipped probabilities ``p`` against labels ``y``."""
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
    node: int
    best: "_Candidate | None"


def _filter_block(block: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Rows of ``block`` whose id is marked in ``keep``, each feature's order kept."""
    return _cut(block, keep.take(block).ravel())


def _cut(block: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The entries of ``block`` where the flat ``mask``, one per entry, is set.

    Every row of a block lists the same row set, so each keeps the same
    count and the flat result reshapes exactly.
    """
    return block.compress(mask).reshape(len(block), -1)


def _mask_ties(gains: np.ndarray, X: np.ndarray, block: np.ndarray, features: np.ndarray,
               lo: int) -> None:
    """Set to -inf each gain whose cut falls between two equal feature values.

    ``gains[i, j]`` is the gain of cut ``lo + j`` in row ``i`` of ``block``.
    """
    hi = lo + gains.shape[1]
    xs = X.ravel().take(block * X.shape[1] + features[:, None])
    np.copyto(gains, -np.inf, where=xs[:, lo:hi] == xs[:, lo + 1 : hi + 1])


def _best_split(
    X: np.ndarray,
    gh: np.ndarray,
    block: np.ndarray,
    features: np.ndarray,
    l2: float,
    min_data: int,
) -> _Candidate | None:
    """Exact best split of a leaf; None when no split has positive gain.

    ``gh`` packs each row's gradient and hessian as the real and imaginary
    parts of one complex number. ``block`` is the leaf's (len(features), m)
    column block: row ``i`` lists the leaf's row ids sorted by feature
    ``features[i]``, with equal values in row-index order for blocks cut
    from the per-fit presort. All features are scored in one vectorised
    pass over cumulative gradient sums, so no sort happens here. Candidate
    thresholds are midpoints between consecutive distinct sorted values;
    both children must keep at least ``min_data`` rows. Ties break toward
    the lower feature index, then the lower threshold. Gains must clear
    ``GAIN_NOISE_REL`` times the parent score, which rejects true-zero
    gains inflated by cancellation noise.
    """
    m = block.shape[1]
    if m < 2 * min_data:
        return None
    rows = block[0]
    g_total = float(gh.real.take(rows).sum())
    h_total = float(gh.imag.take(rows).sum())
    parent_score = g_total * g_total / (h_total + l2)

    # Cut c sends sorted positions 0..c left; lo..hi-1 are the cuts that
    # leave at least min_data rows on each side.
    lo, hi = min_data - 1, m - min_data
    # Complex addition adds the two parts apart, so one cumulative sum
    # gives both. The parts are copied out: in-place arithmetic on their
    # strided views is slower.
    left = np.cumsum(gh.take(block), axis=1)[:, lo:hi]
    g_left = left.real.copy()
    h_left = left.imag.copy()
    g_right = g_total - g_left
    h_right = h_total - h_left
    # In place, with the operations and their order of
    # 0.5 * (g_left**2 / (h_left + l2) + g_right**2 / (h_right + l2) - parent_score).
    if l2:
        h_left += l2
        h_right += l2
    g_left *= g_left
    g_left /= h_left
    g_right *= g_right
    g_right /= h_right
    gains = g_left
    gains += g_right
    gains -= parent_score
    gains *= 0.5
    # The first maximum in row-major order: the lowest feature, then the
    # lowest cut. A cut between equal values is no split; masking only
    # lowers gains, so a winner off a tie also wins once ties are masked.
    pos, cut = divmod(int(np.argmax(gains)), hi - lo)
    if X[block[pos, lo + cut], features[pos]] == X[block[pos, lo + cut + 1], features[pos]]:
        _mask_ties(gains, X, block, features, lo)
        pos, cut = divmod(int(np.argmax(gains)), hi - lo)
    gain = gains[pos, cut]
    if not gain > GAIN_NOISE_REL * abs(parent_score):
        return None
    cut += lo
    below, above = X[block[pos, cut : cut + 2], features[pos]]
    return _Candidate(
        gain=float(gain),
        feature=int(features[pos]),
        threshold=float((below + above) / 2.0),
        left_rows=block[pos, : cut + 1],
    )


def _grow_tree(
    X: np.ndarray,
    gh: np.ndarray,
    block: np.ndarray,
    features: np.ndarray,
    config: MetaLearnerConfig,
) -> BoostedTrees | None:
    """Grow one tree leaf-wise from the root's column block, as a one-tree booster.

    Its base score is 0. Node 0 is the root, and each split appends its
    right child, then its left. Returns None when even the root has no
    positive-gain split.
    """
    l2 = config.l2_leaf_regularization
    min_data = config.min_data_in_leaf
    root = _Leaf(block, 0, _best_split(X, gh, block, features, l2, min_data))
    if root.best is None:
        return None
    # Every node starts as a leaf: its own first, feature 0, a NaN threshold.
    first, feature, threshold, value = [0], [0], [math.nan], [0.0]
    # ``leaves`` stays in creation order: a split leaf is removed and its
    # children appended. ``max`` returns the first of equal gains, so ties
    # split the earlier-created leaf.
    leaves = [root]
    while len(leaves) < config.num_leaves:
        splittable = [leaf for leaf in leaves if leaf.best is not None]
        if not splittable:
            break
        leaf = max(splittable, key=lambda lf: lf.best.gain)
        cand = leaf.best
        right = len(first)
        i = leaf.node
        first[i], feature[i], threshold[i] = right, cand.feature, cand.threshold
        first += (right, right + 1)
        feature += (0, 0)
        threshold += (math.nan, math.nan)
        value += (0.0, 0.0)
        leaves.remove(leaf)
        # Nothing reads the best split of the last split's children, so they
        # are not searched and keep only the row list their values need.
        last = len(leaves) + 2 == config.num_leaves
        cut_from = leaf.block[:1] if last else leaf.block
        goes_left = np.zeros(len(X), dtype=bool)
        goes_left[cand.left_rows] = True
        mask = goes_left.take(cut_from).ravel()
        for child_block, child in (
            (_cut(cut_from, mask), right + 1),
            (_cut(cut_from, ~mask), right),
        ):
            best = None if last else _best_split(X, gh, child_block, features, l2, min_data)
            leaves.append(_Leaf(child_block, child, best))
    for leaf in leaves:
        g_sum = float(gh.real.take(leaf.block[0]).sum())
        h_sum = float(gh.imag.take(leaf.block[0]).sum())
        value[leaf.node] = -g_sum / (h_sum + l2) * config.learning_rate
    return BoostedTrees(0.0, [0], first, feature, threshold, value)


def _add_leaf_values(trees: BoostedTrees, X: np.ndarray, raw: np.ndarray) -> None:
    """Add to ``raw[i]`` the leaf value of every tree for row ``X[i]``, in tree order."""
    n_trees = len(trees.roots)
    if n_trees == 0:
        return
    trees.check_features(X.shape[1])
    first, feature, threshold = trees.first, trees.feature, trees.threshold
    rows_per_block = max(1, _WALK_POSITIONS // n_trees)
    for start in range(0, len(X), rows_per_block):
        block = X[start : start + rows_per_block]
        m, d = block.shape
        xs = block.ravel()
        # Position p walks tree p // m for row p % m; ``off`` is where the row starts in xs.
        node = np.repeat(trees.roots, m)
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
        sums[1:] = trees.value[node].reshape(n_trees, m)
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
    # The split search gathers from X.ravel(), which copies an X not in C order.
    X = np.ascontiguousarray(X)

    n, d = X.shape
    base_rate = clamp_probability(float(y.mean()))
    base_score = math.log(base_rate / (1.0 - base_rate))
    raw = np.full(n, base_score, dtype=np.float64)
    rng = np.random.default_rng(config.seed & _SEED_MASK)
    # The nodes of every tree so far, in the arrays of BoostedTrees.
    roots, first, feature, threshold, value = [], [], [], [], []
    p = _clipped_probabilities(raw)
    losses = [_logloss(p, y)]
    # Column blocks: row ids sorted by each feature, equal values in
    # row-index order. Sorted once per fit; each round filters them.
    presorted = np.argsort(X, axis=0, kind="stable").T
    in_bag = np.ones(n, dtype=bool)
    gh = np.empty(n, dtype=np.complex128)
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
        gh.real = p - y
        gh.imag = p * (1.0 - p)
        block = _filter_block(presorted[features_used], in_bag)
        tree = _grow_tree(X, gh, block, features_used, config)
        if tree is not None:
            _add_leaf_values(tree, X, raw)
            p = _clipped_probabilities(raw)
            roots.append(len(first))
            first += (tree.first + roots[-1]).tolist()
            feature += tree.feature.tolist()
            threshold += tree.threshold.tolist()
            value += tree.value.tolist()
        losses.append(_logloss(p, y))
    return BoostedTrees(base_score, roots, first, feature, threshold, value, losses)


def gbdt_raw_scores(model: BoostedTrees, X: np.ndarray) -> np.ndarray:
    """Raw (log-odds) scores for an (n, d) feature matrix."""
    X = np.asarray(X, dtype=np.float64)
    raw = np.full(len(X), model.base_score, dtype=np.float64)
    _add_leaf_values(model, X, raw)
    return raw


def gbdt_predict_proba_many(model: BoostedTrees, X: np.ndarray) -> np.ndarray:
    """Predicted positive-class probabilities for an (n, d) feature matrix."""
    return _sigmoid_array(gbdt_raw_scores(model, X))
