"""Two-head boosted-tree meta-learner over four-model probability features.

One booster is fit, for Hate, on the 8-dimensional features. The Neutral
head is its exact negation, a copy with negated base score and leaf
values that shares the Hate head's read-only tree arrays: under logistic
loss with a shared seed, a booster fit to ``1 - y`` mirrors the Hate
head, so a second fit would only repeat the first. Prediction compares
the two sigmoid head scores, breaking exact ties toward Neutral. A
Neutral head that mirrors the Hate head, as every fit makes it and its
model file keeps it, is not walked: :func:`lgb_scores` walks the Hate
head once and takes the Neutral scores from the negated raw scores,
which are the ones a second walk would sum, bit for bit. Whether the
heads mirror is checked on every call, since a model can be changed
after it is loaded; model files with independently fit heads still load
and score through both.
Feature rows are scored with :func:`hatepool.ensemble.score_rows`, which
refuses a model fit on another layout (:func:`check_feature_order`). Every
lgb score, :func:`predict_meta`'s one row included, comes from the one
batched tree walk in :mod:`hatepool.gbdt`, so a row scores the same bit for
bit alone or in any batch. A model file's nested trees are read into the flat
arrays and written from them with loops. A model file is checked while it
is decoded, by ``typed_value`` and :meth:`BoostedTrees.from_dicts`: a
split on a feature outside ``feature_order`` and a base score, threshold,
leaf value or loss that is not finite are refused, and no pass over the
built booster follows. Saving refuses trees nested too deeply for the
JSON writer (about 1,000 splits) part-way through the write: a file output is
not committed, but on stdout the text written before the refusal stays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ._jsonl import read_json_file, typed_value, write_json_file
from .datasets import BinaryLabel
from .ensemble import ENSEMBLE_SIZE, ProbabilityVector, features_matrix
from .gbdt import BoostedTrees, MetaLearnerConfig, _sigmoid_array, gbdt_fit, gbdt_raw_scores

FEATURE_COUNT = 2 * ENSEMBLE_SIZE

HEAD_NAMES = ("hate", "neutral")


class SingleClassError(ValueError):
    """Raised when the supervision contains only one class."""


@dataclass
class MetaLearnerModel:
    """Fitted pair of boosters plus the feature layout they were trained on."""

    hate_head: BoostedTrees
    neutral_head: BoostedTrees
    config: MetaLearnerConfig
    feature_order: tuple[str, ...]


def train_meta(
    features: np.ndarray,
    golds: Sequence[BinaryLabel],
    config: MetaLearnerConfig | None = None,
    feature_order: Sequence[str] | None = None,
) -> MetaLearnerModel:
    """Fit the Hate head on (n, 8) features and canonical gold labels.

    The Neutral head is the Hate head negated. ``golds`` must contain both
    classes; single-class supervision makes the comparison of heads
    meaningless and is refused.
    """
    config = config or MetaLearnerConfig()
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != FEATURE_COUNT:
        raise ValueError(f"expected features of shape (n, {FEATURE_COUNT}), got {X.shape}")
    if len(X) != len(golds):
        raise ValueError(f"features ({len(X)}) and golds ({len(golds)}) length mismatch")
    y_hate = np.array([1.0 if g is BinaryLabel.HATE else 0.0 for g in golds])
    if len(y_hate) == 0:
        raise ValueError("cannot train on an empty dataset")
    if y_hate.min() == y_hate.max():
        only = BinaryLabel.HATE if y_hate[0] == 1.0 else BinaryLabel.NEUTRAL
        raise SingleClassError(
            f"meta-learner training requires both classes; got only {only.value!r} "
            f"in {len(y_hate)} examples"
        )
    if feature_order is None:
        order = tuple(f"f{i}" for i in range(FEATURE_COUNT))
    else:
        order = tuple(feature_order)
        if len(order) != FEATURE_COUNT:
            raise ValueError(f"feature_order must name {FEATURE_COUNT} features, got {len(order)}")
    hate_head = gbdt_fit(X, y_hate, config)
    # The Neutral head's raw score is exactly ``-raw`` of the Hate head's, and
    # its loss on the complementary labels equals the Hate head's own.
    neutral_head = replace(hate_head, base_score=-hate_head.base_score, value=-hate_head.value)
    return MetaLearnerModel(
        hate_head=hate_head, neutral_head=neutral_head, config=config, feature_order=order
    )


def train_meta_on_vectors(
    vectors: Sequence[ProbabilityVector],
    golds: Sequence[BinaryLabel],
    config: MetaLearnerConfig | None = None,
) -> MetaLearnerModel:
    X = features_matrix(vectors)
    order = vectors[0].feature_names() if vectors else None
    return train_meta(X, golds, config=config, feature_order=order)


def predict_meta(
    model: MetaLearnerModel, vector: ProbabilityVector
) -> tuple[BinaryLabel, float, float]:
    """Label one probability vector; returns (label, hate score, neutral score).

    A one-row :func:`predict_meta_many`, so it equals that row of any batch bit for bit.
    """
    labels, scores_hate, scores_neutral = predict_meta_many(model, vector.features()[None, :])
    return labels[0], float(scores_hate[0]), float(scores_neutral[0])


def lgb_scores(model: MetaLearnerModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(is_hate, hate scores, neutral scores); an exact tie of the heads goes to Neutral.

    The Hate head is walked once. A Neutral head that mirrors it
    (:meth:`BoostedTrees.negates`) scores the negation of the Hate head's raw scores; any other Neutral head is walked too.
    """
    raw_hate = gbdt_raw_scores(model.hate_head, X)
    if model.neutral_head.negates(model.hate_head):
        # Negation commutes with round-to-nearest, so a walk of the Neutral head
        # would sum every tree to ``-raw_hate``, bar the sign of an exact zero,
        # which the sigmoid does not read.
        raw_neutral = -raw_hate
    else:
        raw_neutral = gbdt_raw_scores(model.neutral_head, X)
    scores_hate, scores_neutral = _sigmoid_array(raw_hate), _sigmoid_array(raw_neutral)
    return scores_hate > scores_neutral, scores_hate, scores_neutral


def predict_meta_many(model: MetaLearnerModel, X: np.ndarray) -> tuple[list[BinaryLabel], np.ndarray, np.ndarray]:
    """Vectorized :func:`predict_meta` over a feature matrix."""
    is_hate, scores_hate, scores_neutral = lgb_scores(model, X)
    labels = [BinaryLabel.HATE if h else BinaryLabel.NEUTRAL for h in is_hate.tolist()]
    return labels, scores_hate, scores_neutral


def check_feature_order(model: MetaLearnerModel, feature_names: Sequence[str]) -> None:
    """Refuse features laid out differently from the ones the model was fit on."""
    if tuple(feature_names) != model.feature_order:
        raise ValueError(
            f"model was trained on features {list(model.feature_order)}, "
            f"but the annotations give {list(feature_names)}"
        )


def model_to_dict(model: MetaLearnerModel) -> dict:
    return {
        "config": model.config.to_dict(),
        "feature_order": list(model.feature_order),
        "heads": list(HEAD_NAMES),
        "base_scores": [model.hate_head.base_score, model.neutral_head.base_score],
        "trees": [model.hate_head.tree_dicts(), model.neutral_head.tree_dicts()],
        "train_logloss": list(model.hate_head.train_logloss),
    }


def model_from_dict(payload: dict) -> MetaLearnerModel:
    config = MetaLearnerConfig.from_dict(payload["config"])
    feature_order = typed_value(payload["feature_order"], "tuple[str, ...]", "feature_order")
    heads = payload.get("heads", list(HEAD_NAMES))
    if list(heads) != list(HEAD_NAMES):
        raise ValueError(f"unexpected head layout {heads!r}")
    base_scores = payload["base_scores"]
    tree_lists = payload["trees"]
    if len(base_scores) != 2 or len(tree_lists) != 2:
        raise ValueError("model file must carry exactly two heads")
    # Files written before the loss curve was saved have no train_logloss.
    losses = [
        float(typed_value(v, "float", "train_logloss"))
        for v in typed_value(payload.get("train_logloss", []), "list", "train_logloss")
    ]
    boosters = [
        BoostedTrees.from_dicts(
            float(typed_value(base_score, "float", "base_scores")),
            typed_value(trees, "list", "trees"),
            len(feature_order),
            losses,
        )
        for base_score, trees in zip(base_scores, tree_lists)
    ]
    return MetaLearnerModel(*boosters, config=config, feature_order=feature_order)


def save_model(model: MetaLearnerModel, path: str) -> None:
    """Write the model as indented sorted-key JSON (stable bytes for a fixed model)."""
    write_json_file(path, model_to_dict(model))


def load_model(path: str) -> MetaLearnerModel:
    return read_json_file(path, model_from_dict)
