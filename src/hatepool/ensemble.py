"""Per-text ensemble decisions over four-model probability features.

Two closed-form strategies live here, batched over (n, 8) feature matrices
with one-row wrappers: majority vote over per-model hard votes, and
comparison of the two class-probability means. The learned strategy is in
:mod:`hatepool.meta`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .datasets import BinaryLabel
from .prompt import ModelProbability

ENSEMBLE_SIZE = 4

# A model votes Hate when its hate probability strictly exceeds one half;
# the ensemble says Hate when at least two of the four models do.
VOTE_THRESHOLD = 0.5
MIN_VOTES_FOR_HATE = 2


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
        if len(entries) != ENSEMBLE_SIZE:
            raise ValueError(f"expected {ENSEMBLE_SIZE} model entries, got {len(entries)}")
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

    def features(self) -> np.ndarray:
        """Flatten to the 8-dimensional feature layout used by the meta-learner."""
        out = np.empty(2 * ENSEMBLE_SIZE, dtype=np.float64)
        for i, entry in enumerate(self.entries):
            out[2 * i] = entry.p_hate
            out[2 * i + 1] = entry.p_neutral
        return out

    def feature_names(self) -> tuple[str, ...]:
        names: list[str] = []
        for entry in self.entries:
            names.append(f"{entry.model_id}:p_hate")
            names.append(f"{entry.model_id}:p_neutral")
        return tuple(names)


def hate_votes(X: np.ndarray) -> np.ndarray:
    """Per-model hard votes over an (n, 8) feature matrix, as (n, 4) booleans."""
    return np.asarray(X)[:, 0::2] > VOTE_THRESHOLD


def vote_scores(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Majority vote over each row: (is_hate, fraction of models voting Hate)."""
    votes = hate_votes(X).sum(axis=1)
    return votes >= MIN_VOTES_FOR_HATE, votes / ENSEMBLE_SIZE


def mean_scores(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean comparison over each row: (is_hate, mean hate probability).

    Exact without rational arithmetic, because ``math.fsum`` is correctly
    rounded. Its sign is the exact sign, so ``fsum(p_hate - p_neutral) > 0``
    compares the means, a tie going to Neutral. ``fsum(p_hate) / 4`` is the
    correctly rounded mean: the division is exact from 2**-1020 up, and below
    that the terms are multiples of 2**-1074, so the one bit fsum may drop
    never makes a tie for the division's rounding.
    """
    rows = np.asarray(X, dtype=np.float64).tolist()
    is_hate = [math.fsum(row[0::2] + [-p for p in row[1::2]]) > 0 for row in rows]
    score = [math.fsum(row[0::2]) / ENSEMBLE_SIZE for row in rows]
    return np.array(is_hate, dtype=bool), np.array(score, dtype=np.float64)


def _label(is_hate: bool) -> BinaryLabel:
    return BinaryLabel.HATE if is_hate else BinaryLabel.NEUTRAL


def model_votes(vector: ProbabilityVector) -> tuple[bool, ...]:
    """Per-model hard votes, aligned with ``vector.entries``."""
    return tuple(hate_votes(features_matrix([vector]))[0].tolist())


def vote_label(vector: ProbabilityVector) -> BinaryLabel:
    """Majority vote: Hate when at least two models vote Hate."""
    return _label(vote_scores(features_matrix([vector]))[0][0])


def vote_hate_score(vector: ProbabilityVector) -> float:
    """Fraction of models voting Hate, usable as a ranking score."""
    return float(vote_scores(features_matrix([vector]))[1][0])


def mean_label(vector: ProbabilityVector) -> BinaryLabel:
    """Hate when the mean hate probability exceeds the mean neutral one (exact)."""
    return _label(mean_scores(features_matrix([vector]))[0][0])


def mean_hate_score(vector: ProbabilityVector) -> float:
    """Mean hate probability (correctly rounded), usable as a ranking score."""
    return float(mean_scores(features_matrix([vector]))[1][0])


# Rows that ``ensemble`` and ``stats`` read and score together, one
# feature matrix at a time; this bounds their memory on large inputs.
CHUNK_ROWS = 4096


def features_matrix(vectors: Sequence[ProbabilityVector]) -> np.ndarray:
    """Stack vectors into an (n, 8) feature matrix, checking a shared model set."""
    if not vectors:
        return np.empty((0, 2 * ENSEMBLE_SIZE), dtype=np.float64)
    ids = vectors[0].model_ids
    for i, v in enumerate(vectors):
        if v.model_ids != ids:
            raise ValueError(
                f"vector {i} has model set {v.model_ids}, expected {ids}"
            )
    return np.stack([v.features() for v in vectors])
