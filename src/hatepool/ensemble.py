"""Per-text ensemble decisions over four-model probability features.

Two closed-form strategies live here, batched over feature rows with
one-row wrappers: majority vote over per-model hard votes, and comparison
of the two class-probability means. A feature row is any sequence of 8
floats, each model's p_hate then p_neutral in sorted model order: a list
from :mod:`hatepool.annotations`, or a row of a numpy array. Neither rule
needs numpy, and this module loads it only to build an array. The learned
strategy is in :mod:`hatepool.meta`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .datasets import BinaryLabel
from .prompt import ModelProbability

if TYPE_CHECKING:
    import numpy as np

    from .meta import MetaLearnerModel

ENSEMBLE_SIZE = 4

# A model votes Hate when its hate probability strictly exceeds one half;
# the ensemble says Hate when at least two of the four models do.
VOTE_THRESHOLD = 0.5
MIN_VOTES_FOR_HATE = 2

# Annotation rows read and scored together by ``train-meta``, ``ensemble``
# and ``stats``; this bounds their memory on large inputs.
CHUNK_ROWS = 4096

FeatureRows = Sequence[Sequence[float]]


def check_ensemble_size(n: int) -> None:
    if n != ENSEMBLE_SIZE:
        raise ValueError(f"expected {ENSEMBLE_SIZE} model entries, got {n}")


def feature_names(model_ids: Sequence[str]) -> tuple[str, ...]:
    """Names of the 8 features of rows over the sorted ``model_ids``."""
    return tuple(f"{mid}:{p}" for mid in model_ids for p in ("p_hate", "p_neutral"))


@dataclass(frozen=True)
class ProbabilityVector:
    """Class probabilities from all four models for one text.

    Entries are kept sorted by ``model_id`` so that feature layout and
    serialization order never depend on arrival order.
    """

    entries: tuple[ModelProbability, ...]

    def __post_init__(self) -> None:
        entries = tuple(sorted(self.entries, key=lambda e: e.model_id))
        object.__setattr__(self, "entries", entries)
        check_ensemble_size(len(entries))
        ids = [e.model_id for e in entries]
        if len(set(ids)) != ENSEMBLE_SIZE:
            raise ValueError(f"duplicate model ids: {ids}")

    @property
    def model_ids(self) -> tuple[str, ...]:
        return tuple(e.model_id for e in self.entries)

    @property
    def p_hate(self) -> tuple[float, ...]:
        return tuple(e.p_hate for e in self.entries)

    @property
    def p_neutral(self) -> tuple[float, ...]:
        return tuple(e.p_neutral for e in self.entries)

    def feature_row(self) -> list[float]:
        """The 8 features as a list: each model's p_hate, then its p_neutral."""
        return [p for e in self.entries for p in (e.p_hate, e.p_neutral)]

    def features(self) -> np.ndarray:
        """:meth:`feature_row` as a float64 array, the meta-learner's input."""
        import numpy as np

        return np.array(self.feature_row(), dtype=np.float64)

    def feature_names(self) -> tuple[str, ...]:
        return feature_names(self.model_ids)


def hate_votes(rows: FeatureRows) -> list[tuple[bool, ...]]:
    """Per-model hard votes over feature rows, one tuple of 4 per row."""
    return [tuple(p > VOTE_THRESHOLD for p in row[0::2]) for row in rows]


def vote_scores(rows: FeatureRows) -> tuple[list[bool], list[float]]:
    """Majority vote over each row: (is_hate, fraction of models voting Hate)."""
    votes = [sum(row_votes) for row_votes in hate_votes(rows)]
    return [v >= MIN_VOTES_FOR_HATE for v in votes], [v / ENSEMBLE_SIZE for v in votes]


def mean_scores(rows: FeatureRows) -> tuple[list[bool], list[float]]:
    """Mean comparison over each row: (is_hate, mean hate probability).

    Exact without rational arithmetic, because ``math.fsum`` is correctly
    rounded. Its sign is the exact sign, so ``fsum(p_hate - p_neutral) > 0``
    compares the means, a tie going to Neutral. ``fsum(p_hate) / 4`` is the
    correctly rounded mean: the division is exact from 2**-1020 up, and below
    that the terms are multiples of 2**-1074, so the one bit fsum may drop
    never makes a tie for the division's rounding.
    """
    is_hate = [math.fsum([*row[0::2], *(-p for p in row[1::2])]) > 0 for row in rows]
    score = [math.fsum(row[0::2]) / ENSEMBLE_SIZE for row in rows]
    return is_hate, score


def score_rows(
    rows: FeatureRows,
    model_ids: Sequence[str],
    strategy: str,
    model: MetaLearnerModel | None = None,
) -> tuple[list[bool], list[float]]:
    """Score feature rows over the sorted ``model_ids`` with ``vote``, ``mean`` or
    ``lgb``: (is_hate, score_hate) lists.

    Only ``lgb`` loads numpy and the tree code. It refuses a missing ``model``
    and one fit on another feature layout than ``feature_names(model_ids)``,
    then walks the trees once over the rows as a float64 array.
    """
    if strategy == "vote":
        return vote_scores(rows)
    if strategy == "mean":
        return mean_scores(rows)
    if strategy != "lgb":
        raise ValueError(f"unknown ensemble strategy {strategy!r}")
    if model is None:
        raise ValueError("strategy 'lgb' needs a trained meta-learner model")
    import numpy as np

    from .meta import check_feature_order, lgb_scores

    check_feature_order(model, feature_names(model_ids))
    is_hate, scores, _ = lgb_scores(model, np.array(rows, dtype=np.float64))
    return is_hate.tolist(), scores.tolist()


def _label(is_hate: bool) -> BinaryLabel:
    return BinaryLabel.HATE if is_hate else BinaryLabel.NEUTRAL


def model_votes(vector: ProbabilityVector) -> tuple[bool, ...]:
    """Per-model hard votes, aligned with ``vector.entries``."""
    return hate_votes([vector.feature_row()])[0]


def vote_label(vector: ProbabilityVector) -> BinaryLabel:
    """Majority vote: Hate when at least two models vote Hate."""
    return _label(vote_scores([vector.feature_row()])[0][0])


def vote_hate_score(vector: ProbabilityVector) -> float:
    """Fraction of models voting Hate, usable as a ranking score."""
    return float(vote_scores([vector.feature_row()])[1][0])


def mean_label(vector: ProbabilityVector) -> BinaryLabel:
    """Hate when the mean hate probability exceeds the mean neutral one (exact)."""
    return _label(mean_scores([vector.feature_row()])[0][0])


def mean_hate_score(vector: ProbabilityVector) -> float:
    """Mean hate probability (correctly rounded), usable as a ranking score."""
    return float(mean_scores([vector.feature_row()])[1][0])


def feature_rows(vectors: Sequence[ProbabilityVector]) -> list[list[float]]:
    """The vectors' feature rows, checking a shared model set."""
    if vectors:
        ids = vectors[0].model_ids
        for i, v in enumerate(vectors):
            if v.model_ids != ids:
                raise ValueError(f"vector {i} has model set {v.model_ids}, expected {ids}")
    return [v.feature_row() for v in vectors]


def features_matrix(vectors: Sequence[ProbabilityVector]) -> np.ndarray:
    """:func:`feature_rows` stacked into an (n, 8) float64 array."""
    import numpy as np

    return np.array(feature_rows(vectors), dtype=np.float64).reshape(-1, 2 * ENSEMBLE_SIZE)
