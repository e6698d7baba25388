import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatepool import (
    BinaryLabel,
    ModelProbability,
    ProbabilityVector,
    mean_hate_score,
    mean_label,
    model_votes,
    vote_hate_score,
    vote_label,
)
from hatepool.ensemble import features_matrix, hate_votes, mean_scores, vote_scores

from conftest import MODEL_IDS, make_vector

# probabilities on a dyadic grid are exact binary floats, so rational
# oracles and float code agree with no rounding slack
dyadic = st.integers(min_value=0, max_value=1024).map(lambda k: k / 1024)


def oracle_vote(p_hates):
    return BinaryLabel.HATE if sum(1 for p in p_hates if p > 0.5) >= 2 else BinaryLabel.NEUTRAL


def oracle_mean(p_hates, p_neutrals):
    mean_h = sum(Fraction(p) for p in p_hates) / 4
    mean_n = sum(Fraction(p) for p in p_neutrals) / 4
    return BinaryLabel.HATE if mean_h > mean_n else BinaryLabel.NEUTRAL


class TestProbabilityVector:
    def test_entries_sorted_by_model_id(self):
        entries = tuple(
            ModelProbability(model_id=m, p_hate=0.5, p_neutral=0.5)
            for m in ("Qwen2.5-14B", "Gemma2-9B", "Mistral-7B", "Llama3.1-8B")
        )
        v = ProbabilityVector(entries)
        assert v.model_ids == MODEL_IDS

    def test_wrong_arity_rejected(self):
        entries = tuple(
            ModelProbability(model_id=m, p_hate=0.5, p_neutral=0.5) for m in ("a", "b", "c")
        )
        with pytest.raises(ValueError):
            ProbabilityVector(entries)

    def test_duplicate_models_rejected(self):
        entries = tuple(
            ModelProbability(model_id="a", p_hate=0.5, p_neutral=0.5) for _ in range(4)
        )
        with pytest.raises(ValueError):
            ProbabilityVector(entries)

    def test_feature_layout_follows_sorted_models(self):
        v = make_vector((0.1, 0.2, 0.3, 0.4))
        np.testing.assert_allclose(
            v.features(), [0.1, 0.9, 0.2, 0.8, 0.3, 0.7, 0.4, 0.6], atol=1e-15
        )
        assert v.feature_names() == (
            "Gemma2-9B:p_hate", "Gemma2-9B:p_neutral",
            "Llama3.1-8B:p_hate", "Llama3.1-8B:p_neutral",
            "Mistral-7B:p_hate", "Mistral-7B:p_neutral",
            "Qwen2.5-14B:p_hate", "Qwen2.5-14B:p_neutral",
        )

    def test_features_matrix_requires_one_model_set(self):
        v1 = make_vector((0.1, 0.2, 0.3, 0.4))
        v2 = make_vector((0.1, 0.2, 0.3, 0.4), model_ids=("a", "b", "c", "d"))
        with pytest.raises(ValueError):
            features_matrix([v1, v2])


class TestVote:
    @pytest.mark.parametrize(
        "p_hates,expected",
        [
            ((0.9, 0.8, 0.2, 0.1), BinaryLabel.HATE),      # 2 votes
            ((0.9, 0.8, 0.7, 0.6), BinaryLabel.HATE),      # 4 votes
            ((0.9, 0.1, 0.2, 0.3), BinaryLabel.NEUTRAL),   # 1 vote
            ((0.1, 0.2, 0.3, 0.4), BinaryLabel.NEUTRAL),   # 0 votes
            ((0.5, 0.5, 0.5, 0.5), BinaryLabel.NEUTRAL),   # 0.5 is not a Hate vote
            ((0.5, 0.5000000001, 0.51, 0.1), BinaryLabel.HATE),
        ],
    )
    def test_cases(self, p_hates, expected):
        assert vote_label(make_vector(p_hates)) is expected

    def test_votes_align_with_entries(self):
        v = make_vector((0.9, 0.2, 0.6, 0.4))
        assert model_votes(v) == (True, False, True, False)

    def test_vote_score_is_vote_fraction(self):
        assert vote_hate_score(make_vector((0.9, 0.2, 0.6, 0.4))) == 0.5


class TestMean:
    def test_exact_tie_goes_neutral(self):
        assert mean_label(make_vector((0.9, 0.2, 0.6, 0.3))) is BinaryLabel.NEUTRAL

    def test_hate_when_mean_exceeds_half(self):
        assert mean_label(make_vector((0.9, 0.2, 0.6, 0.30000001))) is BinaryLabel.HATE

    def test_neutral_when_below(self):
        assert mean_label(make_vector((0.1, 0.2, 0.3, 0.4))) is BinaryLabel.NEUTRAL

    def test_mean_score(self):
        assert mean_hate_score(make_vector((0.1, 0.2, 0.3, 0.4))) == pytest.approx(0.25)

    @given(st.tuples(dyadic, dyadic, dyadic, dyadic))
    @settings(max_examples=300, deadline=None)
    def test_hate_iff_mean_phate_above_half(self, p_hates):
        # With complementary p_neutral the mean comparison reduces to
        # mean(p_hate) > 1/2; exact on the dyadic grid.
        v = make_vector(p_hates)
        expected = sum(Fraction(p) for p in p_hates) / 4 > Fraction(1, 2)
        assert (mean_label(v) is BinaryLabel.HATE) == expected


@given(st.tuples(dyadic, dyadic, dyadic, dyadic))
@settings(max_examples=300, deadline=None)
def test_vote_and_mean_match_oracles(p_hates):
    v = make_vector(p_hates)
    assert vote_label(v) is oracle_vote(p_hates)
    assert mean_label(v) is oracle_mean(v.p_hate, v.p_neutral)


# Inputs for the batched rules: any float in [0, 1] (subnormals included),
# dyadic values that make exact ties likely, and tiny multiples of 2**-1074
# whose sums straddle the subnormal boundary where fsum drops a bit.
probability = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    dyadic,
    st.integers(min_value=0, max_value=2**52).map(lambda k: math.ldexp(k, -1074)),
    st.sampled_from([0.5, math.nextafter(0.5, 1.0), 5e-324, 2.0**-1022, 2.0**-1020]),
)


@st.composite
def feature_rows(draw):
    p_hate = draw(st.lists(probability, min_size=4, max_size=4))
    kind = draw(st.sampled_from(["complement", "off", "tie", "free"]))
    if kind == "complement":
        p_neutral = [1.0 - p for p in p_hate]
    elif kind == "off":
        # renormalized annotator output: within 1e-9 of the complement
        deltas = draw(st.lists(st.floats(-1e-9, 1e-9), min_size=4, max_size=4))
        p_neutral = [min(max(1.0 - p + d, 0.0), 1.0) for p, d in zip(p_hate, deltas)]
    elif kind == "tie":
        # the same values in another order: the two sums are exactly equal
        p_neutral = draw(st.permutations(p_hate))
    else:
        p_neutral = draw(st.lists(probability, min_size=4, max_size=4))
    row = [0.0] * 8
    row[0::2], row[1::2] = p_hate, p_neutral
    return row


class TestBatchedRules:
    @given(st.lists(feature_rows(), min_size=1, max_size=12))
    @settings(max_examples=400, deadline=None)
    def test_match_per_row_oracles(self, rows):
        X = np.array(rows, dtype=np.float64)
        vote_hate, vote_score = vote_scores(X)
        mean_hate, mean_score = mean_scores(X)
        for i, row in enumerate(rows):
            votes = sum(1 for p in row[0::2] if p > 0.5)
            assert vote_hate[i] == (votes >= 2)
            assert vote_score[i] == votes / 4
            sum_hate = sum(Fraction(p) for p in row[0::2])
            sum_neutral = sum(Fraction(p) for p in row[1::2])
            assert mean_hate[i] == (sum_hate > sum_neutral)
            assert mean_score[i] == float(sum_hate / 4)

    def test_exact_ties_go_neutral(self):
        X = np.array([[0.9, 0.3, 0.2, 0.6, 0.6, 0.2, 0.3, 0.9]])
        assert mean_scores(X)[0] == [False]

    def test_empty_matrix(self):
        X = np.empty((0, 8))
        for is_hate, score in (vote_scores(X), mean_scores(X)):
            assert is_hate == score == []

    def test_hate_votes_are_the_model_votes(self):
        vectors = [make_vector(p) for p in ((0.9, 0.2, 0.6, 0.4), (0.5, 0.51, 0.1, 1.0))]
        votes = hate_votes(features_matrix(vectors))
        assert [tuple(r) for r in votes] == [model_votes(v) for v in vectors]
