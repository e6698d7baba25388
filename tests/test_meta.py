import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatepool import (
    BinaryLabel,
    BoostedTrees,
    MetaLearnerConfig,
    MetaLearnerModel,
    SingleClassError,
    load_model,
    mean_hate_score,
    mean_label,
    predict_meta,
    save_model,
    train_meta,
    train_meta_on_vectors,
    vote_hate_score,
    vote_label,
)
import hatepool.gbdt
import hatepool.meta
from hatepool.ensemble import score_rows
from hatepool.meta import check_feature_order, model_from_dict, model_to_dict, predict_meta_many

from conftest import MODEL_IDS, make_vector, random_vectors
from tree_walk_reference import gbdt_predict_proba


def fast_config(seed=0):
    return MetaLearnerConfig(num_rounds=30, min_data_in_leaf=5, seed=seed)


def separable_data(n=120, seed=1):
    """Half Hate with high model agreement, half Neutral with low scores."""
    rng = np.random.default_rng(seed)
    vectors, golds = [], []
    for i in range(n):
        if i % 2 == 0:
            p = 0.7 + 0.3 * rng.random(4)
            golds.append(BinaryLabel.HATE)
        else:
            p = 0.3 * rng.random(4)
            golds.append(BinaryLabel.NEUTRAL)
        vectors.append(make_vector(tuple(p)))
    return vectors, golds


class TestTrainMeta:
    def test_two_heads_with_mirrored_base_scores(self):
        vectors, golds = separable_data()
        model = train_meta_on_vectors(vectors, golds, fast_config())
        # complementary supervision keeps base rates mirrored
        assert model.hate_head.base_score == pytest.approx(-model.neutral_head.base_score)
        assert model.hate_head.trees
        assert model.neutral_head.trees

    def test_one_fit_and_neutral_head_is_exact_negation(self, monkeypatch):
        calls = []
        fit = hatepool.meta.gbdt_fit

        def spy(*args, **kwargs):
            calls.append(args)
            return fit(*args, **kwargs)

        monkeypatch.setattr(hatepool.meta, "gbdt_fit", spy)
        vectors, golds = separable_data()
        model = train_meta_on_vectors(vectors, golds, fast_config())
        assert len(calls) == 1
        hate, neutral = model.hate_head, model.neutral_head
        assert neutral.base_score == -hate.base_score
        assert len(neutral.trees) == len(hate.trees) > 0

        def assert_negated(a, b):
            assert a.is_leaf == b.is_leaf
            if a.is_leaf:
                assert b.value == -a.value
                return
            assert (b.feature_index, b.threshold) == (a.feature_index, a.threshold)
            assert_negated(a.left, b.left)
            assert_negated(a.right, b.right)

        for a, b in zip(hate.trees, neutral.trees):
            assert_negated(a, b)
        assert neutral.train_logloss == hate.train_logloss

    def test_single_class_refused_with_diagnostic(self):
        vectors, _ = separable_data(n=40)
        with pytest.raises(SingleClassError, match="Hate"):
            train_meta_on_vectors(vectors, [BinaryLabel.HATE] * 40, fast_config())
        with pytest.raises(SingleClassError, match="Neutral"):
            train_meta_on_vectors(vectors, [BinaryLabel.NEUTRAL] * 40, fast_config())

    def test_feature_shape_enforced(self):
        with pytest.raises(ValueError):
            train_meta(np.zeros((10, 7)), [BinaryLabel.HATE] * 10)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            train_meta(np.zeros((10, 8)), [BinaryLabel.HATE] * 9)

    def test_separable_data_fits_exactly(self):
        vectors, golds = separable_data()
        model = train_meta_on_vectors(vectors, golds, fast_config())
        predicted = [predict_meta(model, v)[0] for v in vectors]
        assert predicted == golds

    def test_feature_order_recorded(self):
        vectors, golds = separable_data(n=60)
        model = train_meta_on_vectors(vectors, golds, fast_config())
        assert model.feature_order == vectors[0].feature_names()


class TestPredictMeta:
    def test_scores_are_probabilities(self):
        vectors, golds = separable_data()
        model = train_meta_on_vectors(vectors, golds, fast_config())
        for v in random_vectors(50, seed=3):
            label, s_hate, s_neutral = predict_meta(model, v)
            assert 0.0 <= s_hate <= 1.0
            assert 0.0 <= s_neutral <= 1.0
            assert label is (BinaryLabel.HATE if s_hate > s_neutral else BinaryLabel.NEUTRAL)

    def test_tie_goes_neutral(self):
        # identical heads produce identical scores on any input
        vectors, golds = separable_data()
        model = train_meta_on_vectors(vectors, golds, fast_config())
        model.neutral_head = model.hate_head
        label, s_hate, s_neutral = predict_meta(model, vectors[0])
        assert s_hate == s_neutral
        assert label is BinaryLabel.NEUTRAL

    def test_independent_heads_still_score_through_both(self):
        # A file with a Neutral head that is not the Hate head negated, as
        # two separate fits wrote it.
        def stump(left, right):
            return {"feature_index": 0, "threshold": 0.5, "left": {"value": left},
                    "right": {"value": right}}

        payload = {
            "config": fast_config().to_dict(),
            "feature_order": [f"f{i}" for i in range(8)],
            "heads": ["hate", "neutral"],
            "base_scores": [-0.2, 0.1],
            "trees": [[stump(-1.0, 2.0)], [stump(0.5, -1.5), stump(0.25, -0.25)]],
        }
        model = model_from_dict(payload)
        vectors = random_vectors(40, seed=6)
        X = np.stack([v.features() for v in vectors])
        labels, s_h, s_n = predict_meta_many(model, X)
        for i, v in enumerate(vectors):
            label, sh, sn = predict_meta(model, v)
            assert sh == gbdt_predict_proba(model.hate_head, v.features())
            assert sn == gbdt_predict_proba(model.neutral_head, v.features())
            assert sh + sn != pytest.approx(1.0)
            assert label is (BinaryLabel.HATE if sh > sn else BinaryLabel.NEUTRAL)
            assert labels[i] is label
        assert set(labels) == {BinaryLabel.HATE, BinaryLabel.NEUTRAL}

    def test_many_matches_single(self):
        vectors, golds = separable_data()
        model = train_meta_on_vectors(vectors, golds, fast_config())
        X = np.stack([v.features() for v in vectors])
        labels, s_h, s_n = predict_meta_many(model, X)
        for i, v in enumerate(vectors):
            label, sh, sn = predict_meta(model, v)
            assert labels[i] is label
            assert s_h[i] == sh
            assert s_n[i] == sn


class TestSerialization:
    def test_same_fit_same_bytes(self, tmp_path):
        vectors, golds = separable_data()
        a = train_meta_on_vectors(vectors, golds, fast_config(seed=7))
        b = train_meta_on_vectors(vectors, golds, fast_config(seed=7))
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(a, str(path_a))
        save_model(b, str(path_b))
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_roundtrip_preserves_predictions_and_bytes(self, tmp_path):
        vectors, golds = separable_data()
        model = train_meta_on_vectors(vectors, golds, fast_config(seed=9))
        path_one = tmp_path / "one.json"
        save_model(model, str(path_one))
        restored = load_model(str(path_one))
        path_two = tmp_path / "two.json"
        save_model(restored, str(path_two))
        assert path_one.read_bytes() == path_two.read_bytes()
        for v in random_vectors(25, seed=5):
            assert predict_meta(model, v) == predict_meta(restored, v)

    def test_payload_shape(self):
        vectors, golds = separable_data(n=60)
        model = train_meta_on_vectors(vectors, golds, fast_config())
        payload = model_to_dict(model)
        assert set(payload) == {
            "config", "feature_order", "heads", "base_scores", "trees", "train_logloss"
        }
        assert payload["train_logloss"] == model.hate_head.train_logloss
        assert payload["heads"] == ["hate", "neutral"]
        assert len(payload["base_scores"]) == 2
        assert len(payload["trees"]) == 2
        assert len(payload["feature_order"]) == 8

    def test_payload_without_loss_curve_loads(self):
        vectors, golds = separable_data(n=60)
        model = train_meta_on_vectors(vectors, golds, fast_config())
        payload = model_to_dict(model)
        del payload["train_logloss"]
        restored = model_from_dict(payload)
        assert restored.hate_head.train_logloss == []
        assert restored.neutral_head.train_logloss == []
        for v in random_vectors(25, seed=8):
            assert predict_meta(model, v) == predict_meta(restored, v)

    def test_malformed_payloads_rejected(self):
        vectors, golds = separable_data(n=60)
        payload = model_to_dict(train_meta_on_vectors(vectors, golds, fast_config()))
        bad_heads = dict(payload, heads=["a", "b"])
        with pytest.raises(ValueError):
            model_from_dict(bad_heads)
        bad_trees = dict(payload, trees=[payload["trees"][0]])
        with pytest.raises(ValueError):
            model_from_dict(bad_trees)

    def test_model_too_deep_to_write_is_refused_and_leaves_no_file(self, tmp_path):
        # The reader takes any depth, but json's encoder recurses once per level.
        tree = {"value": 0.5}
        for _ in range(1500):
            tree = {"feature_index": 0, "threshold": 0.5, "left": {"value": -0.5}, "right": tree}
        head = BoostedTrees.from_dicts(0.0, [tree], 8)
        model = MetaLearnerModel(head, head, fast_config(), tuple(f"f{i}" for i in range(8)))
        path = tmp_path / "model.json"
        with pytest.raises(ValueError, match=re.escape(f"{path}: JSON nested too deeply")):
            save_model(model, str(path))
        assert list(tmp_path.iterdir()) == []

    def test_seed_changes_model_bytes(self, tmp_path):
        vectors, golds = separable_data()
        a = train_meta_on_vectors(vectors, golds, fast_config(seed=1))
        b = train_meta_on_vectors(vectors, golds, fast_config(seed=2))
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(a, str(path_a))
        save_model(b, str(path_b))
        assert path_a.read_bytes() != path_b.read_bytes()


@pytest.fixture(scope="module")
def trained_model():
    vectors, golds = separable_data()
    return train_meta_on_vectors(vectors, golds, fast_config())


class TestBatchedScoring:
    @given(st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 4), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_single_row_equals_batch_row_exactly(self, trained_model, p_hates):
        vectors = [make_vector(p) for p in p_hates]
        labels, s_h, s_n = predict_meta_many(trained_model, np.stack([v.features() for v in vectors]))
        for i, v in enumerate(vectors):
            assert predict_meta(trained_model, v) == (labels[i], s_h[i], s_n[i])

    def test_score_rows_dispatches_to_each_rule(self, trained_model):
        vectors = random_vectors(40, seed=11)
        X = np.stack([v.features() for v in vectors])
        labels, s_h, _ = predict_meta_many(trained_model, X)
        is_hate, score = score_rows(X, sorted(MODEL_IDS), "lgb", trained_model)
        assert is_hate == [label is BinaryLabel.HATE for label in labels]
        assert score == s_h.tolist()
        for name, label_fn, score_fn in (
            ("vote", vote_label, vote_hate_score),
            ("mean", mean_label, mean_hate_score),
        ):
            is_hate, score = score_rows(X, sorted(MODEL_IDS), name)
            assert is_hate == [label_fn(v) is BinaryLabel.HATE for v in vectors]
            assert score == [score_fn(v) for v in vectors]

    def test_score_rows_rejects_bad_strategies(self, trained_model):
        X = np.stack([v.features() for v in random_vectors(3, seed=12)])
        with pytest.raises(ValueError, match="lgb"):
            score_rows(X, sorted(MODEL_IDS), "lgb")
        with pytest.raises(ValueError, match="median"):
            score_rows(X, sorted(MODEL_IDS), "median", trained_model)

    def test_score_rows_refuses_model_of_other_features(self, trained_model):
        rows = [make_vector((0.1, 0.2, 0.3, 0.4), model_ids=("w", "x", "y", "z")).feature_row()]
        with pytest.raises(ValueError, match="Gemma2-9B:p_hate.*w:p_hate"):
            score_rows(rows, ("w", "x", "y", "z"), "lgb", trained_model)

    def test_feature_order_check_names_both_layouts(self, trained_model):
        check_feature_order(trained_model, random_vectors(1, seed=13)[0].feature_names())
        other = make_vector((0.1, 0.2, 0.3, 0.4), model_ids=("w", "x", "y", "z"))
        with pytest.raises(ValueError, match="Gemma2-9B:p_hate.*w:p_hate"):
            check_feature_order(trained_model, other.feature_names())


def count_walks(monkeypatch):
    """The number of ``_add_leaf_values`` calls made so far, as a one-item list."""
    calls = [0]
    walk = hatepool.gbdt._add_leaf_values

    def spy(*args):
        calls[0] += 1
        return walk(*args)

    monkeypatch.setattr(hatepool.gbdt, "_add_leaf_values", spy)
    return calls


class TestMirroredHeads:
    """A Neutral head that is the Hate head negated is scored from the Hate head's walk."""

    @staticmethod
    def assert_reference_scores(model, X):
        """Both heads' lgb scores equal the two-walk reference's, bit for bit."""
        _, s_h, s_n = hatepool.meta.lgb_scores(model, X)
        for head, scores in ((model.hate_head, s_h), (model.neutral_head, s_n)):
            assert [float.hex(s) for s in scores.tolist()] == [
                float.hex(gbdt_predict_proba(head, x)) for x in X
            ]

    def test_fit_and_reloaded_model_walk_once(self, monkeypatch, tmp_path):
        vectors, golds = separable_data()
        model = train_meta_on_vectors(vectors, golds, fast_config(seed=4))
        path = tmp_path / "model.json"
        save_model(model, str(path))
        X = np.stack([v.features() for v in random_vectors(60, seed=14)])
        walks = count_walks(monkeypatch)
        for scored in (model, load_model(str(path))):
            assert scored.neutral_head.negates(scored.hate_head)
            walks[0] = 0
            self.assert_reference_scores(scored, X)
            assert walks[0] == 1

    @pytest.mark.parametrize("change", ["leaf_ulp", "threshold"])
    def test_a_head_off_by_one_change_walks_twice(self, monkeypatch, change):
        vectors, golds = separable_data()
        payload = model_to_dict(train_meta_on_vectors(vectors, golds, fast_config(seed=4)))
        tree = payload["trees"][1][3]
        if change == "leaf_ulp":
            leaf = tree
            while "value" not in leaf:
                leaf = leaf["left"]
            leaf["value"] = float(np.nextafter(leaf["value"], np.inf))
        else:
            tree["threshold"] += 0.125
        model = model_from_dict(payload)
        assert not model.neutral_head.negates(model.hate_head)
        walks = count_walks(monkeypatch)
        self.assert_reference_scores(model, np.stack([v.features() for v in vectors]))
        assert walks[0] == 2

    @pytest.mark.parametrize("hate_rows,label", [(15, BinaryLabel.NEUTRAL), (16, BinaryLabel.HATE)])
    def test_zero_tree_model_scores_its_base_rates(self, monkeypatch, hate_rows, label):
        # Balanced labels give base scores 0.0 and -0.0, an exact tie that goes to Neutral.
        vectors, _ = separable_data(n=30)
        golds = [BinaryLabel.HATE] * hate_rows + [BinaryLabel.NEUTRAL] * (30 - hate_rows)
        model = train_meta_on_vectors(vectors, golds, MetaLearnerConfig(num_rounds=0))
        assert not model.hate_head.trees
        walks = count_walks(monkeypatch)
        X = np.stack([v.features() for v in vectors])
        self.assert_reference_scores(model, X)
        assert walks[0] == 1
        assert predict_meta_many(model, X)[0] == [label] * 30


class TestGoldenDigest:
    """Model bytes and lgb scores pinned across commits, not just across runs.

    The first digests were taken before the tree representation changed, the
    second fit's (l2 > 0, feature and row subsampling, one-row leaves) before
    the split search moved to flat gathers and in-place gains; a refactor
    that reorders nodes, or moves one rounding, changes them. They pin the
    float results of this platform's numpy, so a different numpy or CPU may
    need them taken again from a known-good commit.
    """

    MODEL_SHA256 = "ded780b821cc817f54f757c3fff1fdfe073c86d556fda548b9eae9f226492921"
    SCORES_SHA256 = "d7b9a1897a71b4a9320dc8559aac948f2c4d1e305224cf2b45f029a336b97b6d"
    SUBSAMPLED_MODEL_SHA256 = "93b541fca0c445c704ac9fafccf502a7c26e4145626fa7a39fc867dd6f87c39c"
    SUBSAMPLED_SCORES_SHA256 = "f9baea19ed9f11d8887d7b0403bf4f3ac8ac937f473b11e030ec1df495b52c59"
    # Taken while model files were still written by json's own indenting encoder.
    DEEP_MODEL_SHA256 = "d83306914fc7ddac0d38b1fde19b8e1326ceba5702a905ac22be783277f65ba2"
    DEEP_SCORES_SHA256 = "5ad7b8468ab98eb621d31bb9bf425d78ea5b9c8a25f76921c25ed5a034da7883"

    @staticmethod
    def synthetic_set():
        rng = np.random.default_rng(1606)
        p_hate = np.round(rng.beta(2.0, 3.0, size=(900, 4)), 2)
        X = np.empty((900, 8))
        X[:, 0::2], X[:, 1::2] = p_hate, 1.0 - p_hate
        noisy = p_hate.mean(axis=1) + 0.15 * rng.standard_normal(900)
        golds = [BinaryLabel.HATE if v > 0.45 else BinaryLabel.NEUTRAL for v in noisy]
        return X, golds

    @staticmethod
    def deep_set():
        """600 rows of distinct feature values, which grow trees over 20 splits deep."""
        rng = np.random.default_rng(600)
        p_hate = rng.random((600, 4))
        X = np.empty((600, 8))
        X[:, 0::2], X[:, 1::2] = p_hate, 1.0 - p_hate
        noisy = p_hate.mean(axis=1) + 0.2 * rng.standard_normal(600)
        golds = [BinaryLabel.HATE if v > 0.5 else BinaryLabel.NEUTRAL for v in noisy]
        return X, golds

    def digests(self, config, tmp_path, data=None):
        """SHA-256 of the saved model file, and of the lgb labels and scores."""
        X, golds = data or self.synthetic_set()
        model = train_meta(X, golds, config)
        path = tmp_path / "model.json"
        save_model(model, str(path))
        is_hate, scores = hatepool.meta.lgb_scores(model, X)[:2]
        return (hashlib.sha256(path.read_bytes()).hexdigest(),
                hashlib.sha256(is_hate.tobytes() + scores.tobytes()).hexdigest())

    def test_model_and_score_bytes_match_the_pinned_digests(self, tmp_path):
        config = MetaLearnerConfig(num_rounds=60, seed=11)
        assert self.digests(config, tmp_path) == (self.MODEL_SHA256, self.SCORES_SHA256)

    def test_subsampled_l2_fit_matches_the_pinned_digests(self, tmp_path):
        config = MetaLearnerConfig(
            num_rounds=40, seed=23, l2_leaf_regularization=1.5, feature_fraction=0.6,
            bagging_fraction=0.7, bagging_freq=3, min_data_in_leaf=1,
        )
        assert self.digests(config, tmp_path) == (
            self.SUBSAMPLED_MODEL_SHA256, self.SUBSAMPLED_SCORES_SHA256,
        )

    def test_deep_trees_match_the_pinned_digests(self, tmp_path):
        config = MetaLearnerConfig(min_data_in_leaf=5, seed=3)
        assert self.digests(config, tmp_path, self.deep_set()) == (
            self.DEEP_MODEL_SHA256, self.DEEP_SCORES_SHA256,
        )
        lines = (tmp_path / "model.json").read_text("utf-8").splitlines()
        assert max(len(line) - len(line.lstrip(" ")) for line in lines) >= 50
