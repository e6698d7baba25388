import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatepool import (
    BinaryLabel,
    MetaLearnerConfig,
    pool_statistics,
    render_pool_table,
    train_meta_on_vectors,
    vote_label,
)
from hatepool import ensemble
from hatepool.metrics import _scaled_mean, _scaled_sum
from hatepool.poolstats import ALL_KEY

from conftest import MODEL_IDS, make_vector, random_vectors


def random_pool(n, seed, langs=("deu", "eng", "spa", "vie")):
    rng = np.random.default_rng(seed)
    vectors = random_vectors(n, seed + 1)
    return [(str(rng.choice(langs)), v) for v in vectors]


class TestPoolStatistics:
    def test_language_counts_sum_to_total(self):
        pool = random_pool(200, seed=1)
        summary = pool_statistics(pool)
        assert summary.n_total == 200
        assert sum(summary.languages.values()) == 200

    def test_per_model_mean_matches_direct_computation(self):
        pool = random_pool(50, seed=2)
        summary = pool_statistics(pool)
        for slot, model_id in enumerate(MODEL_IDS):
            for lang, count in summary.languages.items():
                values = [v.entries[slot].p_hate for l, v in pool if l == lang]
                assert len(values) == count
                assert summary.per_model[model_id]["mean_p_hate"][lang] == statistics.mean(values)

    def test_all_row_is_count_weighted_recombination(self):
        # bit-exact identity: the All mean equals the count-weighted sum of
        # per-language means, accumulated in sorted language order
        pool = random_pool(137, seed=3)
        summary = pool_statistics(pool)
        for model_id in MODEL_IDS:
            means = summary.per_model[model_id]["mean_p_hate"]
            expected = (
                sum(summary.languages[lang] * means[lang] for lang in sorted(summary.languages))
                / summary.n_total
            )
            assert means[ALL_KEY] == expected

    def test_pct_rows_come_from_integer_counts(self):
        pool = random_pool(80, seed=4)
        summary = pool_statistics(pool)
        for model_id in MODEL_IDS:
            pcts = summary.per_model[model_id]["pct_hate"]
            votes_all = 0
            for lang, count in summary.languages.items():
                votes = round(pcts[lang] * count / 100.0)
                assert pcts[lang] == 100.0 * votes / count
                votes_all += votes
            assert pcts[ALL_KEY] == 100.0 * votes_all / summary.n_total

    def test_strategy_percentages(self):
        pool = random_pool(60, seed=5)
        summary = pool_statistics(pool, strategies=("vote", "mean"))
        hate = sum(1 for _, v in pool if vote_label(v) is BinaryLabel.HATE)
        assert summary.per_strategy["vote"]["pct_hate"][ALL_KEY] == 100.0 * hate / 60

    def test_lgb_strategy_needs_model(self):
        pool = random_pool(10, seed=6)
        with pytest.raises(ValueError, match="lgb"):
            pool_statistics(pool, strategies=("lgb",))

    def test_lgb_refuses_model_of_other_features(self):
        vectors, golds = zip(*[
            (make_vector((p, p, p, p), model_ids=("w", "x", "y", "z")), gold)
            for p, gold in ((0.1, BinaryLabel.NEUTRAL), (0.9, BinaryLabel.HATE))
        ] * 5)
        model = train_meta_on_vectors(
            vectors, golds, MetaLearnerConfig(num_rounds=2, min_data_in_leaf=1)
        )
        pool = random_pool(5, seed=6)
        with pytest.raises(ValueError, match="w:p_hate.*Gemma2-9B:p_hate"):
            pool_statistics(pool, ("vote", "lgb"), model=model)

    def test_language_named_all_rejected(self):
        # Counted as a language, it would be overwritten by the pooled column.
        hate, neutral = make_vector((0.9,) * 4), make_vector((0.1,) * 4)
        with pytest.raises(ValueError, match="language 'All'"):
            pool_statistics([(ALL_KEY, hate)] * 3 + [("eng", neutral)])

    def test_missing_language_counts_as_und(self):
        summary = pool_statistics([(None, make_vector((0.9,) * 4)), ("eng", make_vector((0.1,) * 4))])
        assert summary.languages == {"eng": 1, "und": 1}
        assert summary.per_strategy["vote"]["pct_hate"] == {"eng": 0.0, "und": 100.0, ALL_KEY: 50.0}

    def test_repeated_strategy_rejected(self):
        # Tallied once per listing, a repeated strategy would read 200% Hate.
        pool = [("eng", make_vector((0.9, 0.9, 0.9, 0.9)))] * 3
        with pytest.raises(ValueError, match="strategy 'vote' given twice"):
            pool_statistics(pool, strategies=("vote", "vote"))

    def test_mixed_model_sets_rejected(self):
        good = make_vector((0.1, 0.2, 0.3, 0.4))
        other = make_vector((0.1, 0.2, 0.3, 0.4), model_ids=("a", "b", "c", "d"))
        with pytest.raises(ValueError):
            pool_statistics([("eng", good), ("eng", other)])

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            pool_statistics([])

    def test_raw_label_breakdown_over_labeled_rows(self):
        vectors = random_vectors(6, seed=7)
        pool = [
            ("eng", vectors[0], "Neutral"),
            ("eng", vectors[1], "Hate"),
            ("eng", vectors[2], "Offensive"),
            ("deu", vectors[3], "Neutral"),
            ("deu", vectors[4], None),
            ("deu", vectors[5]),
        ]
        summary = pool_statistics(pool)
        raw = summary.raw_labels
        assert set(raw) == {"Hate", "Neutral", "Offensive"}
        assert raw["Neutral"]["count"] == {"deu": 1, "eng": 1, ALL_KEY: 2}
        assert raw["Neutral"]["pct"]["eng"] == pytest.approx(100 / 3)
        assert raw["Neutral"]["pct"][ALL_KEY] == pytest.approx(50.0)
        assert raw["Offensive"]["count"][ALL_KEY] == 1

    def test_no_raw_labels_no_breakdown(self):
        summary = pool_statistics(random_pool(10, seed=8))
        assert summary.raw_labels is None
        assert "raw_labels" not in summary.to_dict()

    def test_chunk_size_does_not_change_the_summary(self, monkeypatch):
        labels = ("Hate", "Neutral", None)
        pool = [(lang, v, labels[i % 3]) for i, (lang, v) in enumerate(random_pool(50, seed=10))]
        whole = pool_statistics(pool).to_dict()
        monkeypatch.setattr(ensemble, "CHUNK_ROWS", 3)
        assert pool_statistics(iter(pool)).to_dict() == whole

    def test_mixed_model_sets_rejected_across_chunks(self, monkeypatch):
        monkeypatch.setattr(ensemble, "CHUNK_ROWS", 1)
        good = make_vector((0.1, 0.2, 0.3, 0.4))
        other = make_vector((0.1, 0.2, 0.3, 0.4), model_ids=("a", "b", "c", "d"))
        with pytest.raises(ValueError, match="model set"):
            pool_statistics([("eng", good), ("eng", other)])


FINITE = st.floats(allow_nan=False, allow_infinity=False)
SUBNORMAL = st.floats(min_value=-(2.0**-1022), max_value=2.0**-1022)
TINY_AND_HUGE = st.sampled_from([5e-324, -5e-324, 1e-300, 1.0, 1e300, -1e300, 2.0**-1022])


@st.composite
def mean_inputs(draw):
    values = draw(st.lists(st.one_of(FINITE, SUBNORMAL, TINY_AND_HUGE), min_size=1, max_size=30))
    if draw(st.booleans()):  # values that cancel, exactly or up to a remainder
        values += [-v for v in draw(st.permutations(values))] + draw(st.lists(SUBNORMAL, max_size=2))
    cuts = sorted(draw(st.lists(st.integers(0, len(values)), max_size=4)))
    return values, cuts


@given(mean_inputs())
@settings(max_examples=500, deadline=None)
def test_chunked_scaled_mean_is_statistics_mean(case):
    values, cuts = case
    bounds = [0, *cuts, len(values)]
    total = sum(_scaled_sum(values[a:b]) for a, b in zip(bounds, bounds[1:]))
    mean = _scaled_mean(total, len(values))
    expected = statistics.mean(values)
    assert mean == expected and math.copysign(1.0, mean) == math.copysign(1.0, expected)


class TestRenderPoolTable:
    def test_table_mentions_models_languages_and_strategies(self):
        summary = pool_statistics(random_pool(40, seed=9))
        table = render_pool_table(summary)
        for model_id in MODEL_IDS:
            assert model_id in table
        for lang in summary.languages:
            assert lang in table
        assert ALL_KEY in table
        assert "vote" in table and "mean" in table
