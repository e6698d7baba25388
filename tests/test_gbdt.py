import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hatepool.gbdt
from hatepool import MetaLearnerConfig, gbdt_fit
from hatepool.gbdt import (
    _WALK_POSITIONS,
    PROB_EPS,
    BoostedTrees,
    _add_leaf_values,
    _best_split,
    _clipped_probabilities,
    _filter_block,
    _grow_tree,
    _logloss,
    _mask_ties,
    _sigmoid_array,
    clamp_probability,
    gbdt_predict_proba_many,
)

import gbdt_oracle
import split_search_reference
import tree_walk_reference


def full_batch_config(**overrides):
    defaults = dict(
        num_rounds=1,
        num_leaves=2,
        feature_fraction=1.0,
        bagging_fraction=1.0,
        min_data_in_leaf=1,
        learning_rate=1.0,
    )
    defaults.update(overrides)
    return MetaLearnerConfig(**defaults)


def packed(g, h):
    """Gradients and hessians as the one complex array the split search reads."""
    gh = np.empty(len(g), dtype=np.complex128)
    gh.real, gh.imag = g, h
    return gh


def count_leaves(node):
    if node.is_leaf:
        return 1
    return count_leaves(node.left) + count_leaves(node.right)


def leaf_row_counts(node, X):
    counts = []
    stack = [(node, np.arange(len(X)))]
    while stack:
        n, idx = stack.pop()
        if n.is_leaf:
            counts.append(len(idx))
            continue
        left = X[idx, n.feature_index] <= n.threshold
        stack.append((n.left, idx[left]))
        stack.append((n.right, idx[~left]))
    return counts


class TestSplitGain:
    @staticmethod
    def best_split(x, g, l2=0.0):
        """_best_split on one feature, every hessian 0.25, min_data 1."""
        X = np.array(x, dtype=float)[:, None]
        block = np.argsort(X[:, 0], kind="stable")[None, :]
        h = np.full(len(g), 0.25)
        return _best_split(X, packed(g, h), block, np.array([0]), l2, 1)

    def test_hand_value(self):
        # g = [0.5, 0.5, -0.5, -0.5], h = 0.25 each, split in the middle:
        # 0.5 * (1/0.5 + 1/0.5 - 0/1.0) = 2
        cand = self.best_split([0, 0, 1, 1], [0.5, 0.5, -0.5, -0.5])
        assert (cand.feature, cand.threshold, cand.gain) == (0, 0.5, 2.0)

    def test_zero_gain_on_balanced_split(self):
        # 0.5 * (0.25/0.25 + 0.25/0.25 - 1/0.5) = 0: no split is made
        assert self.best_split([0, 1], [0.5, 0.5]) is None

    def test_l2_shrinks_gain(self):
        x, g = [0, 0, 1, 1], [0.5, 0.5, -0.5, -0.5]
        assert self.best_split(x, g, l2=0.5).gain < self.best_split(x, g).gain


class TestHandWorkedFit:
    def test_perfect_single_split(self):
        # Worked by hand: base score 0, p = 0.5, g = +-0.5, h = 0.25;
        # the only split is feature 0 at 0.5 with gain 2; leaf values are
        # -G/H * lr = -+2.
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = gbdt_fit(X, y, full_batch_config())
        assert model.base_score == 0.0
        assert len(model.trees) == 1
        root = model.trees[0]
        assert root.feature_index == 0
        assert root.threshold == 0.5
        assert root.left.value == -2.0
        assert root.right.value == 2.0
        rows = np.array([[0.0], [1.0]])
        raw = np.zeros(2)
        _add_leaf_values(model, rows, raw)
        assert raw.tolist() == [-2.0, 2.0]
        probs = gbdt_predict_proba_many(model, rows)
        assert probs.tolist() == _sigmoid_array(np.array([-2.0, 2.0])).tolist()
        assert probs[1] == pytest.approx(1 / (1 + math.exp(-2)))

    def test_learning_rate_scales_leaf_values(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = gbdt_fit(X, y, full_batch_config(learning_rate=0.25))
        assert model.trees[0].left.value == -0.5
        assert model.trees[0].right.value == 0.5

    def test_base_score_is_clamped_base_rate_logodds(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1.0, 0.0, 0.0, 0.0])
        model = gbdt_fit(X, y, full_batch_config())
        assert model.base_score == math.log(0.25 / 0.75)

    def test_clamp_probability(self):
        assert clamp_probability(-3.0) == PROB_EPS
        assert clamp_probability(3.0) == 1.0 - PROB_EPS
        assert clamp_probability(0.4) == 0.4


class TestConstantLabels:
    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_no_trees_and_base_rate_prediction(self, label):
        X = np.random.default_rng(3).random((40, 4))
        y = np.full(40, label)
        model = gbdt_fit(X, y, full_batch_config(num_rounds=20, num_leaves=8))
        assert model.trees == []
        clamped = clamp_probability(label)
        assert gbdt_predict_proba_many(model, X[:1])[0] == pytest.approx(clamped, rel=1e-12)
        # loss trace still has one entry per round
        assert len(model.train_logloss) == 21
        assert len(set(model.train_logloss)) == 1


class TestSplitOracle:
    def test_root_split_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            n = int(rng.integers(12, 120))
            d = int(rng.integers(1, 6))
            min_data = int(rng.integers(1, 6))
            X = rng.random((n, d))
            if rng.random() < 0.3:
                X = np.round(X, 1)  # force duplicate feature values
            y = (rng.random(n) < 0.5).astype(float)
            config = full_batch_config(min_data_in_leaf=min_data, learning_rate=0.1)
            model = gbdt_fit(X, y, config)
            g, h = gbdt_oracle.initial_gradients(y)
            oracle_gain, oracle_key = gbdt_oracle.best_split(X, g, h, min_data)
            if not model.trees:
                assert oracle_gain <= 1e-12
                continue
            root = model.trees[0]
            left = X[:, root.feature_index] <= root.threshold
            achieved = gbdt_oracle.gain_of_partition(g, h, left)
            assert achieved == pytest.approx(oracle_gain, abs=1e-9)
            assert (root.feature_index, root.threshold) == oracle_key

    def test_leaf_split_matches_brute_force_on_row_subsets(self):
        # A non-root leaf: a random row subset listed out of index order,
        # a drawn feature subset, integer-grid features with heavy ties,
        # l2 > 0, and min_data at 1, at the largest value that still allows
        # a split, and one above it.
        rng = np.random.default_rng(43)
        unique_winners = 0
        for _ in range(300):
            n = int(rng.integers(8, 90))
            d = int(rng.integers(1, 6))
            X = rng.integers(0, 4, size=(n, d)).astype(float)
            g = rng.uniform(-1.0, 1.0, n)
            h = rng.uniform(0.05, 0.25, n)
            rows = rng.permutation(n)[: int(rng.integers(2, n + 1))]
            features = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
            m = len(rows)
            min_data = int(rng.choice([1, m // 2, m // 2 + 1]))
            l2 = float(rng.uniform(0.1, 2.0))
            block = rows[np.argsort(X[rows][:, features], axis=0, kind="stable")].T
            cand = _best_split(X, packed(g, h), block, features, l2, min_data)
            Xs, gs, hs = X[rows][:, features], g[rows], h[rows]
            oracle_gain, oracle_key = gbdt_oracle.best_split(Xs, gs, hs, min_data, l2)
            if cand is None:
                assert oracle_gain <= 1e-9
                continue
            assert cand.gain == pytest.approx(oracle_gain, rel=1e-9, abs=1e-12)
            left = X[rows, cand.feature] <= cand.threshold
            assert sorted(cand.left_rows) == sorted(rows[left])
            # The gain is symmetric in the children, so another key giving
            # the same two children ties the oracle's up to summation order.
            oracle_left = Xs[:, oracle_key[0]] <= oracle_key[1]
            same_children = [
                (int(features[j]), thr)
                for _, j, thr in gbdt_oracle.all_candidate_gains(Xs, gs, hs, min_data, l2)
                if np.array_equal(Xs[:, j] <= thr, oracle_left)
                or np.array_equal(Xs[:, j] > thr, oracle_left)
            ]
            assert (cand.feature, cand.threshold) in same_children
            unique_winners += len(same_children) == 1
            goes_left = np.zeros(n, dtype=bool)
            goes_left[cand.left_rows] = True
            for child, child_rows in (
                (_filter_block(block, goes_left), rows[left]),
                (_filter_block(block, ~goes_left), rows[~left]),
            ):
                for i, f in enumerate(features):
                    assert sorted(child[i]) == sorted(child_rows)
                    assert np.all(np.diff(X[child[i], f]) >= 0)
        assert unique_winners >= 100

    def test_min_data_in_leaf_respected_everywhere(self):
        rng = np.random.default_rng(7)
        X = rng.random((150, 5))
        y = (X[:, 1] > 0.5).astype(float)
        config = MetaLearnerConfig(
            num_rounds=20, num_leaves=16, min_data_in_leaf=9,
            feature_fraction=1.0, bagging_fraction=1.0,
        )
        model = gbdt_fit(X, y, config)
        assert model.trees
        for tree in model.trees:
            assert all(c >= 9 for c in leaf_row_counts(tree, X))

    def test_num_leaves_cap(self):
        rng = np.random.default_rng(8)
        X = rng.random((300, 6))
        y = (rng.random(300) < 0.5).astype(float)
        config = MetaLearnerConfig(
            num_rounds=10, num_leaves=5, min_data_in_leaf=2,
            feature_fraction=1.0, bagging_fraction=1.0,
        )
        model = gbdt_fit(X, y, config)
        assert model.trees
        assert all(count_leaves(t) <= 5 for t in model.trees)

    def test_last_split_children_are_not_searched(self, monkeypatch):
        # The root, then two children per split but the last: nothing reads
        # the best split of the last split's children.
        rng = np.random.default_rng(9)
        X = rng.random((200, 4))
        g = rng.uniform(-1.0, 1.0, 200)
        h = rng.uniform(0.05, 0.25, 200)
        calls = []

        def counted(*args):
            calls.append(args)
            return _best_split(*args)

        monkeypatch.setattr(hatepool.gbdt, "_best_split", counted)
        for num_leaves in (2, 3, 8, 34):
            calls.clear()
            block = np.argsort(X, axis=0, kind="stable").T
            tree = _grow_tree(X, packed(g, h), block, np.arange(4),
                              full_batch_config(num_leaves=num_leaves))
            assert count_leaves(tree.trees[0]) == num_leaves
            assert len(calls) == 2 * num_leaves - 3

    def test_exact_gain_tie_splits_the_earlier_created_leaf(self):
        # Feature 0 splits the rows into two halves whose gradients are exact
        # negatives of each other, so both children have the same best split
        # on feature 1 with bit-identical gains. With room for one more leaf
        # after the root, the left child, created first, must take it.
        X = np.array([[0, 0], [0, 0], [0, 1], [0, 1], [1, 0], [1, 0], [1, 1], [1, 1]], float)
        g = np.array([-1.0, -1.0, -0.5, -0.5, 1.0, 1.0, 0.5, 0.5])
        h = np.full(8, 0.25)
        features = np.arange(2)
        block = np.argsort(X, axis=0, kind="stable").T
        halves = [_filter_block(block, X[:, 0] == side) for side in (0, 1)]
        gains = [_best_split(X, packed(g, h), half, features, 0.0, 1).gain for half in halves]
        assert gains[0] == gains[1] > 0
        config = full_batch_config(num_leaves=3)
        tree = _grow_tree(X, packed(g, h), block, features, config)
        assert tree.roots.tolist() == [0] and tree.base_score == 0.0
        root = tree.trees[0]
        assert (root.feature_index, root.threshold) == (0, 0.5)
        assert (root.left.feature_index, root.left.threshold) == (1, 0.5)
        assert root.right.is_leaf

    def test_too_few_rows_for_min_data_means_no_split(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.array([0, 1] * 5, dtype=float)
        model = gbdt_fit(X, y, full_batch_config(min_data_in_leaf=6, num_rounds=3))
        assert model.trees == []

    def test_lazy_tie_mask_matches_the_always_masked_search(self, monkeypatch):
        # The search masks tied cuts only when its first winner lands on one.
        # Against the search that always masks: continuous values, integer
        # grids with heavy ties, blocks where every cut is a tie, l2 at 0 and
        # above, and min_data at 1, at the largest value that still allows a
        # split, and one above it.
        masked = []

        def counted(*args):
            masked.append(args)
            return _mask_ties(*args)

        monkeypatch.setattr(hatepool.gbdt, "_mask_ties", counted)
        rng = np.random.default_rng(45)
        splits = {"unmasked": 0, "masked": 0}
        for kind in ("continuous", "grid", "all ties") * 150:
            n = int(rng.integers(2, 80))
            d = int(rng.integers(1, 5))
            if kind == "continuous":
                X = rng.normal(size=(n, d))
            elif kind == "grid":
                X = rng.integers(0, 3, size=(n, d)).astype(float)
            else:
                X = np.repeat(rng.integers(0, 3, size=(1, d)).astype(float), n, axis=0)
            g = rng.uniform(-1.0, 1.0, n)
            h = rng.uniform(0.05, 0.25, n)
            rows = rng.permutation(n)[: int(rng.integers(2, n + 1))]
            features = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
            block = rows[np.argsort(X[rows][:, features], axis=0, kind="stable")].T
            m = len(rows)
            for min_data in sorted({1, m // 2, m // 2 + 1}):
                for l2 in (0.0, float(rng.uniform(0.1, 2.0))):
                    calls = len(masked)
                    cand = _best_split(X, packed(g, h), block, features, l2, min_data)
                    want = split_search_reference.best_split(X, g, h, block, features, l2, min_data)
                    if want is None:
                        assert cand is None
                        continue
                    gain, feature, threshold, left_rows = want
                    assert (cand.gain.hex(), cand.feature, cand.threshold.hex()) == (
                        gain.hex(), feature, threshold.hex())
                    assert cand.left_rows.tobytes() == left_rows.tobytes()
                    splits["masked" if len(masked) > calls else "unmasked"] += 1
        assert splits["unmasked"] >= 100 and splits["masked"] >= 100


class TestLossTrace:
    def test_full_batch_loss_never_increases(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            X = rng.random((80, 8))
            y = ((X[:, 0] + 0.4 * rng.random(80)) > 0.7).astype(float)
            config = MetaLearnerConfig(
                num_rounds=60, feature_fraction=1.0, bagging_fraction=1.0,
                min_data_in_leaf=10, seed=seed,
            )
            model = gbdt_fit(X, y, config)
            diffs = np.diff(model.train_logloss)
            assert diffs.max() <= 1e-12
            assert len(model.train_logloss) == 61

    def test_loss_actually_falls_on_learnable_data(self):
        rng = np.random.default_rng(5)
        X = rng.random((100, 4))
        y = (X[:, 2] > 0.5).astype(float)
        model = gbdt_fit(X, y, full_batch_config(num_rounds=30, num_leaves=8,
                                                 min_data_in_leaf=5, learning_rate=0.3))
        assert model.train_logloss[-1] < 0.1 * model.train_logloss[0]


class TestDeterminism:
    def config(self, seed):
        return MetaLearnerConfig(num_rounds=25, min_data_in_leaf=5, seed=seed)

    def serialize(self, model):
        return json.dumps(
            {
                "base": model.base_score,
                "trees": [t.to_dict() for t in model.trees],
                "loss": model.train_logloss,
            },
            sort_keys=True,
        )

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(10)
        X = rng.random((120, 8))
        y = (X[:, 0] > X[:, 1]).astype(float)
        a = gbdt_fit(X, y, self.config(4))
        b = gbdt_fit(X, y, self.config(4))
        assert self.serialize(a) == self.serialize(b)

    def test_different_seed_changes_bagging(self):
        rng = np.random.default_rng(10)
        X = rng.random((120, 8))
        y = (X[:, 0] > X[:, 1]).astype(float)
        a = gbdt_fit(X, y, self.config(4))
        b = gbdt_fit(X, y, self.config(5))
        assert self.serialize(a) != self.serialize(b)

    def test_row_order_only_perturbs_float_accumulation(self):
        # Identical splits are found for permuted rows; only the order of
        # float additions inside the row sums may differ.
        rng = np.random.default_rng(11)
        X = rng.random((90, 4))
        y = (X[:, 3] > 0.5).astype(float)
        config = full_batch_config(num_rounds=10, num_leaves=6, min_data_in_leaf=4,
                                   learning_rate=0.1)
        a = gbdt_fit(X, y, config)
        perm = rng.permutation(90)
        b = gbdt_fit(X[perm], y[perm], config)
        pa = gbdt_predict_proba_many(a, X)
        pb = gbdt_predict_proba_many(b, X)
        np.testing.assert_allclose(pa, pb, atol=1e-9)


    def test_memory_layout_does_not_change_the_fit(self):
        # The split search gathers from the flat C-order buffer of X; a
        # Fortran-ordered X and a column slice must fit the same booster.
        rng = np.random.default_rng(12)
        X = np.round(rng.random((150, 5)), 1)
        y = (X[:, 0] + 0.5 * rng.random(150) > 0.7).astype(float)
        wide = np.zeros((150, 10))
        wide[:, 1::2] = X
        config = MetaLearnerConfig(num_rounds=15, min_data_in_leaf=3, seed=2)
        fits = [gbdt_fit(x, y, config) for x in (X, np.asfortranarray(X), wide[:, 1::2])]
        assert fits[0].roots.size > 0
        for fit in fits[1:]:
            assert fit.base_score == fits[0].base_score
            assert fit.train_logloss == fits[0].train_logloss
            for name in ("roots", "first", "feature", "threshold", "value"):
                assert getattr(fit, name).tobytes() == getattr(fits[0], name).tobytes()


class TestPrediction:
    def test_equal_value_goes_left(self):
        tree = {"feature_index": 0, "threshold": 0.5, "left": {"value": -1.0},
                "right": {"value": 1.0}}
        model = BoostedTrees.from_dicts(0.0, [tree], 1)
        probs = gbdt_predict_proba_many(model, np.array([[0.5], [0.5000001], [math.nan]]))
        assert probs.tolist() == _sigmoid_array(np.array([-1.0, 1.0, 1.0])).tolist()

    def test_batch_prediction_matches_single(self):
        rng = np.random.default_rng(13)
        X = rng.random((60, 8))
        y = (X[:, 0] > 0.4).astype(float)
        model = gbdt_fit(X, y, MetaLearnerConfig(num_rounds=15, min_data_in_leaf=5))
        batch = gbdt_predict_proba_many(model, X)
        singles = [tree_walk_reference.gbdt_predict_proba(model, x) for x in X]
        assert batch.tolist() == singles

    def test_split_on_a_missing_feature_is_refused(self):
        tree = {"feature_index": 2, "threshold": 0.5, "left": {"value": -1.0},
                "right": {"value": 1.0}}
        model = BoostedTrees.from_dicts(0.0, [tree], 3)
        with pytest.raises(ValueError, match=r"feature_index must be in \[0, 2\), got 2"):
            gbdt_predict_proba_many(model, np.zeros((3, 2)))


def random_tree(rng, thresholds, n_features, depth, stop=0.5):
    """A nested-dict tree with one path of exactly ``depth`` splits.

    Each other branch ends at each level with probability ``stop``.
    """
    root = {}
    stack = [(root, depth, True)]
    while stack:
        node, depth, spine = stack.pop()
        if depth == 0 or (not spine and rng.random() < stop):
            node["value"] = float(rng.standard_normal() * 10.0 ** rng.integers(-3, 3))
            continue
        deep = int(rng.integers(2))
        node.update(feature_index=int(rng.integers(n_features)),
                    threshold=float(rng.choice(thresholds)), left={}, right={})
        stack += ((node["left"], depth - 1, spine and deep == 0),
                  (node["right"], depth - 1, spine and deep == 1))
    return root


def dict_raw_score(base_score, trees, x):
    """The base score plus each nested-dict tree's leaf value for row ``x``, in tree order."""
    raw = base_score
    for node in trees:
        while "value" not in node:
            node = node["left"] if x[node["feature_index"]] <= node["threshold"] else node["right"]
        raw += node["value"]
    return raw


def preorder(trees):
    """Each node of nested-dict ``trees``, depth first, as the reprs of its scalar fields.

    A loop walks the trees, and ``repr`` tells 1 from 1.0 and 0.0 from -0.0,
    so deep trees compare exactly without recursion.
    """
    nodes, stack = [], list(reversed(trees))
    while stack:
        node = stack.pop()
        nodes.append(sorted((k, repr(v)) for k, v in node.items() if k not in ("left", "right")))
        if "left" in node:
            stack += (node["right"], node["left"])
    return nodes


class TestWalk:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_trees=st.integers(0, 6),
        depth=st.integers(0, 14),
        n_features=st.integers(1, 3),
        rows=st.sampled_from(["none", "one", "few", "block-1", "block", "block+1"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_walk_matches_recursive_reference_bit_for_bit(
        self, seed, n_trees, depth, n_features, rows
    ):
        # Thresholds are drawn from the feature values, so ties occur; rows
        # also hold NaN and infinities. Depths reach past the re-gather
        # period, and row counts sit on both sides of a block's edge.
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(int(rng.integers(1, 5)))
        trees = [random_tree(rng, values, n_features, int(rng.integers(depth + 1)))
                 for _ in range(n_trees)]
        model = BoostedTrees.from_dicts(float(rng.standard_normal()), trees, n_features)
        step = _WALK_POSITIONS // max(n_trees, 1)
        n = {"none": 0, "one": 1, "few": int(rng.integers(2, 50)),
             "block-1": step - 1, "block": step, "block+1": step + 1}[rows]
        pool = np.concatenate([values, [math.nan, math.inf, -math.inf]])
        X = rng.choice(pool, size=(n, n_features))
        raw = np.full(n, model.base_score)
        _add_leaf_values(model, X, raw)
        # Rows repeat, so the references walk each distinct row once: the
        # node views, and the nested dicts the booster was read from.
        reference = {}
        for x in X:
            if x.tobytes() not in reference:
                reference[x.tobytes()] = tree_walk_reference.raw_score(model, x)
                assert reference[x.tobytes()] == dict_raw_score(model.base_score, trees, x)
        want = np.array([reference[x.tobytes()] for x in X], dtype=np.float64)
        assert raw.tobytes() == want.tobytes()

    def test_every_fit_round_updates_scores_through_the_walk(self):
        rng = np.random.default_rng(15)
        X = np.round(rng.random((200, 3)), 1)
        y = (X[:, 0] + 0.3 * rng.random(200) > 0.6).astype(float)
        model = gbdt_fit(X, y, full_batch_config(num_rounds=8, num_leaves=12, learning_rate=0.3))
        raw = np.array([tree_walk_reference.raw_score(model, x) for x in X])
        assert model.train_logloss[-1] == _logloss(_clipped_probabilities(raw), y)


class TestTreeSerialization:
    def test_roundtrip_preserves_structure(self):
        rng = np.random.default_rng(14)
        X = rng.random((100, 8))
        y = (X[:, 5] > 0.5).astype(float)
        model = gbdt_fit(X, y, MetaLearnerConfig(num_rounds=12, min_data_in_leaf=5))
        dicts = model.tree_dicts()
        restored = BoostedTrees.from_dicts(model.base_score, json.loads(json.dumps(dicts)), 8)
        assert restored.tree_dicts() == dicts
        assert [tree.to_dict() for tree in model.trees] == dicts
        assert gbdt_predict_proba_many(restored, X).tolist() == (
            gbdt_predict_proba_many(model, X).tolist()
        )

    def test_leaf_and_internal_shapes(self):
        leaf, other = {"value": 0.25}, {"value": -0.25}
        inner = {"feature_index": 2, "threshold": 0.1, "left": leaf, "right": other}
        booster = BoostedTrees.from_dicts(0.0, [leaf, inner], 3)
        assert booster.tree_dicts() == [{"value": 0.25}, inner]
        assert set(booster.tree_dicts()[1]) == {"feature_index", "threshold", "left", "right"}
        root = booster.trees[1]
        assert (root.is_leaf, root.value, root.left.value, root.right.value) == (
            False, None, 0.25, -0.25
        )
        assert (root.left.feature_index, root.left.threshold, root.left.left) == (None, None, None)

    @pytest.mark.parametrize("depth", [0, 1, 14, 3000])
    def test_roundtrip_of_random_trees_at_any_depth(self, depth):
        # A loop, not recursion, reads and writes the trees: 3,000 splits deep
        # is past Python's recursion limit.
        rng = np.random.default_rng(depth)
        trees = [random_tree(rng, rng.standard_normal(3), 4, depth, stop=0.9) for _ in range(3)]
        booster = BoostedTrees.from_dicts(0.5, trees, 4)
        assert preorder(booster.tree_dicts()) == preorder(trees)
        assert preorder([tree.to_dict() for tree in booster.trees]) == preorder(trees)


class TestOneTreeAtATime:
    """Trees are read from an iterator and built as dicts one at a time."""

    @staticmethod
    def fitted():
        rng = np.random.default_rng(17)
        X = rng.random((120, 4))
        return gbdt_fit(X, (X[:, 1] > 0.4).astype(float),
                        MetaLearnerConfig(num_rounds=6, min_data_in_leaf=4))

    def test_trees_from_an_iterator_make_the_booster_a_list_makes(self):
        rng = np.random.default_rng(18)
        trees = [random_tree(rng, rng.standard_normal(3), 4, int(rng.integers(6)))
                 for _ in range(9)]
        drawn = []

        def one_at_a_time():
            for tree in trees:
                drawn.append(tree)
                yield tree

        listed = BoostedTrees.from_dicts(0.5, trees, 4)
        streamed = BoostedTrees.from_dicts(0.5, one_at_a_time(), 4)
        assert drawn == trees
        for name in ("roots", "first", "feature", "threshold", "value"):
            assert getattr(streamed, name).tobytes() == getattr(listed, name).tobytes()

    @pytest.mark.parametrize("layout", ["fitted", "loaded"])
    def test_every_node_builds_the_subtree_under_it(self, layout):
        booster = self.fitted()
        if layout == "loaded":
            booster = BoostedTrees.from_dicts(booster.base_score, booster.tree_dicts(), 4)
        trees = booster.tree_dicts()
        expected = []
        stack = list(reversed(trees))
        while stack:  # every node's nested dict, depth first
            node = stack.pop()
            expected.append(node)
            if "left" in node:
                stack += (node["right"], node["left"])
        got, stack = [], list(reversed(booster.trees))
        while stack:
            node = stack.pop()
            got.append(node.to_dict())
            if not node.is_leaf:
                stack += (node.right, node.left)
        assert got == expected

    def test_tree_dicts_are_built_as_they_are_drawn(self):
        booster = self.fitted()
        trees = booster.iter_tree_dicts()
        first = next(trees)
        assert first == booster.tree_dicts()[0]
        assert [first, *trees] == booster.tree_dicts()


class TestReadOnlyArrays:
    @staticmethod
    def boosters():
        rng = np.random.default_rng(16)
        X = rng.random((80, 3))
        fitted = gbdt_fit(X, (X[:, 0] > 0.5).astype(float), full_batch_config(num_rounds=3))
        loaded = BoostedTrees.from_dicts(fitted.base_score, fitted.tree_dicts(), 3)
        negated = replace(fitted, base_score=-fitted.base_score, value=-fitted.value)
        return {"fitted": fitted, "loaded": loaded, "negated": negated}

    @pytest.mark.parametrize("kind", ["fitted", "loaded", "negated"])
    @pytest.mark.parametrize("name", ["roots", "first", "feature", "threshold", "value"])
    def test_assignment_raises(self, kind, name):
        array = getattr(self.boosters()[kind], name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1

    def test_negation_shares_the_shape_arrays(self):
        boosters = self.boosters()
        fitted, negated = boosters["fitted"], boosters["negated"]
        for name in ("roots", "first", "feature", "threshold"):
            assert getattr(negated, name) is getattr(fitted, name)
        assert negated.value.tolist() == [-v for v in fitted.value.tolist()]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"objective": "mse"},
            {"num_leaves": 1},
            {"learning_rate": 0.0},
            {"feature_fraction": 0.0},
            {"feature_fraction": 1.5},
            {"bagging_fraction": 0.0},
            {"bagging_freq": 0},
            {"num_rounds": -1},
            {"min_data_in_leaf": 0},
            {"l2_leaf_regularization": -0.1},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MetaLearnerConfig(**kwargs)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            MetaLearnerConfig.from_dict({"max_depth": 4})

    def test_roundtrip(self):
        config = MetaLearnerConfig(seed=9, num_rounds=3)
        assert MetaLearnerConfig.from_dict(config.to_dict()) == config

    def test_defaults(self):
        config = MetaLearnerConfig()
        assert config.num_leaves == 34
        assert config.learning_rate == 0.05
        assert config.feature_fraction == 0.9
        assert config.bagging_fraction == 0.8
        assert config.bagging_freq == 5
        assert config.num_rounds == 100
        assert config.min_data_in_leaf == 20
        assert config.l2_leaf_regularization == 0.0

    def test_labels_must_be_binary(self):
        with pytest.raises(ValueError):
            gbdt_fit(np.zeros((4, 2)), np.array([0.0, 1.0, 2.0, 0.0]))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            gbdt_fit(np.zeros((0, 2)), np.zeros(0))
