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
bit alone or in any batch.

A model's trees are held whole only as the flat arrays. :func:`write_model`
and :func:`save_model` write them one tree at a time: each head's trees are
an iterator (:meth:`BoostedTrees.iter_tree_dicts`) that builds one tree's
nested dicts from its slice of the arrays as
:func:`hatepool._jsonl.write_json` writes it, so the file's bytes are those
of the dicts :func:`model_to_dict` gives, and no more than one tree's dicts
exist. :func:`load_model` holds the file's text and walks it member by
member: each tree is decoded and read into its head's node lists
(:meth:`BoostedTrees.from_dicts`) before the next is decoded. A text that
is not laid out as :func:`save_model` writes it is read whole, as
:func:`model_from_dict` reads a decoded file, and so is one the walk refuses,
so every error is that reader's. A model file is checked while it
is decoded, by ``typed_value`` and :meth:`BoostedTrees.from_dicts`: a
split on a feature outside ``feature_order`` and a base score, threshold,
leaf value or loss that is not finite are refused, and no pass over the
built booster follows. Saving refuses trees nested too deeply for the
JSON writer (about 1,000 splits) part-way through the write: a file output is
not committed, but on stdout the text written before the refusal stays.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from ._jsonl import loads, read_json_file, typed_value, write_json, write_json_file
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
    """The JSON value of ``model``'s file, each head's trees a list of nested dicts."""
    payload = _model_value(model)
    payload["trees"] = [list(trees) for trees in payload["trees"]]
    return payload


def _model_value(model: MetaLearnerModel) -> dict:
    """:func:`model_to_dict`'s value, but each head's trees an iterator that builds one
    tree's dicts at a time as :func:`hatepool._jsonl.write_json` writes them."""
    return {
        "config": model.config.to_dict(),
        "feature_order": list(model.feature_order),
        "heads": list(HEAD_NAMES),
        "base_scores": [model.hate_head.base_score, model.neutral_head.base_score],
        "trees": [model.hate_head.iter_tree_dicts(), model.neutral_head.iter_tree_dicts()],
        "train_logloss": list(model.hate_head.train_logloss),
    }


def model_from_dict(payload: dict) -> MetaLearnerModel:
    """The model in the JSON value of a model file; ``ValueError`` naming the member
    that is wrong."""
    return _model(payload, None)


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "a number",
               float: "a number", bool: "a boolean", type(None): "null"}


def _check_type(value, kind: type, name: str):
    """``value``, which must be a ``kind``; ``ValueError`` naming ``name`` and the JSON
    type of ``value`` otherwise, not its text, which can be most of the file."""
    if type(value) is not kind:
        raise ValueError(f"{name} must be {_JSON_TYPES[kind]}, got {_JSON_TYPES[type(value)]}")
    return value


def _model(payload: dict, heads: Iterator[Iterable] | None) -> MetaLearnerModel:
    """The model in ``payload``. ``heads``, if given, yields each head's trees in
    place of ``payload["trees"]``, and each head is read through before the next is
    drawn."""
    _check_type(payload, dict, "model file")
    config = MetaLearnerConfig.from_dict(payload["config"])
    feature_order = typed_value(payload["feature_order"], "tuple[str, ...]", "feature_order")
    names = typed_value(payload.get("heads", list(HEAD_NAMES)), "list", "heads")
    if names != list(HEAD_NAMES):
        raise ValueError(f"unexpected head layout {names!r}")
    base_scores = typed_value(payload["base_scores"], "list", "base_scores")
    if heads is None:
        tree_lists = _check_type(payload["trees"], list, "trees")
        if len(tree_lists) != 2:
            raise ValueError("model file must carry exactly two heads")
        heads = (typed_value(trees, "list", "trees") for trees in tree_lists)
    if len(base_scores) != 2:
        raise ValueError("model file must carry exactly two heads")
    # Files written before the loss curve was saved have no train_logloss.
    losses = [
        float(typed_value(v, "float", "train_logloss"))
        for v in typed_value(payload.get("train_logloss", []), "list", "train_logloss")
    ]
    boosters = [
        BoostedTrees.from_dicts(float(typed_value(base_score, "float", "base_scores")),
                                next(heads), len(feature_order), losses)
        for base_score in base_scores
    ]
    return MetaLearnerModel(*boosters, config=config, feature_order=feature_order)


_SPACE = re.compile(r"[ \t\n\r]*")
# A member name with no escape in it, and the colon after it.
_NAME = re.compile(r'"([^"\\]*)"[ \t\n\r]*:[ \t\n\r]*')
_DECODER = json.JSONDecoder()


class _Cursor:
    """A place in a JSON text, past any whitespace; a step raises ``ValueError`` where
    the text is not what it expects."""

    def __init__(self, text: str):
        self.text = text
        self.pos = _SPACE.match(text).end()

    def take(self, char: str) -> bool:
        """Step past ``char`` and the whitespace after it, if ``char`` is next."""
        if not self.text.startswith(char, self.pos):
            return False
        self.pos = _SPACE.match(self.text, self.pos + 1).end()
        return True

    def expect(self, char: str) -> None:
        if not self.take(char):
            raise ValueError(f"expected {char!r} at {self.pos}")

    def name(self) -> str:
        """The member name that is next, stepped past with its colon."""
        match = _NAME.match(self.text, self.pos)
        if match is None:
            raise ValueError(f"expected a member name at {self.pos}")
        self.pos = match.end()
        return match.group(1)

    def value(self):
        """The JSON value that is next, decoded."""
        value, end = _DECODER.raw_decode(self.text, self.pos)
        self.pos = _SPACE.match(self.text, end).end()
        return value

    def items(self, item) -> Iterator:
        """``item()`` for each item of the JSON list that is next, one at a time."""
        self.expect("[")
        if self.take("]"):
            return
        while True:
            yield item()
            if self.take("]"):
                return
            self.expect(",")


def _model_from_text(text: str) -> MetaLearnerModel:
    """The model in the text of a model file, its trees decoded one at a time.

    A text laid out as :func:`save_model` writes it, an object whose last member is
    ``trees``, is walked member by member: every other member is decoded whole, and
    each tree is decoded, read into its head's nodes and dropped before the next, so
    the dicts do not grow with the model. Any other text, such as one with its
    members in another order or one with a backslash (a string escape, which
    :func:`hatepool._jsonl.loads` checks for lone surrogates), and one the walk
    refuses, is read whole by :func:`model_from_dict` of
    :func:`~hatepool._jsonl.loads`, whose model or error it gives.
    """
    if "\\" not in text:
        try:
            cursor = _Cursor(text)
            cursor.expect("{")
            payload = {}
            while (name := cursor.name()) != "trees":
                payload[name] = cursor.value()
                cursor.expect(",")
            heads = cursor.items(lambda: cursor.items(cursor.value))
            model = _model(payload, heads)
            if next(heads, None) is None and cursor.take("}") and cursor.pos == len(text):
                return model
        except (KeyError, TypeError, ValueError, RecursionError, StopIteration):
            pass
    return model_from_dict(loads(text))


def write_model(fp: TextIO, model: MetaLearnerModel, path: str) -> None:
    """Write the model to ``fp``, the output ``path``, as indented sorted-key JSON
    (stable bytes for a fixed model), one tree at a time."""
    write_json(fp, _model_value(model), path)


def save_model(model: MetaLearnerModel, path: str) -> None:
    """:func:`write_model` to the file ``path``, committed only when it is whole."""
    write_json_file(path, _model_value(model))


def load_model(path: str) -> MetaLearnerModel:
    """The model in the file ``path``, read as :func:`_model_from_text` reads its text;
    errors as :func:`hatepool._jsonl.read_json_file` gives them."""
    return read_json_file(path, parse=_model_from_text)
