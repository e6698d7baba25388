import statistics
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatepool import (
    BinaryLabel,
    ConfusionCounts,
    GroupSpec,
    PredictionRow,
    accuracy,
    apply_threshold,
    build_report,
    confusion,
    default_groups,
    delta_report,
    f1_from_counts,
    macro_f1,
    mean_probability_threshold,
)
from hatepool.metrics import THRESHOLD_SCOPES

import report_reference

H, N = BinaryLabel.HATE, BinaryLabel.NEUTRAL

dyadic = st.integers(min_value=0, max_value=1024).map(lambda k: k / 1024)


class TestConfusion:
    def test_counts(self):
        counts = confusion([H, H, N, N, H], [H, N, N, H, H])
        assert counts == ConfusionCounts(tp=2, fp=1, fn=1, tn=1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([H], [H, N])

    def test_pooling_is_addition(self):
        a = ConfusionCounts(1, 2, 3, 4)
        b = ConfusionCounts(10, 20, 30, 40)
        assert a + b == ConfusionCounts(11, 22, 33, 44)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1, fp=0, fn=0, tn=0)


class TestF1AndMacroF1:
    def test_half_precision_full_recall(self):
        # tp=1 fp=1 fn=0 tn=0: F1(Hate) = 2/3, F1(Neutral) = 0, macro = 1/3
        counts = ConfusionCounts(tp=1, fp=1, fn=0, tn=0)
        assert f1_from_counts(1, 1, 0) == pytest.approx(2 / 3, abs=1e-15)
        assert macro_f1(counts) == pytest.approx(1 / 3, abs=1e-12)

    def test_worked_four_point_example(self):
        # tp=2 fp=1 fn=0 tn=1: F1(Hate) = 4/5, F1(Neutral) = 2/3,
        # macro = 11/15 = 0.7333...
        counts = ConfusionCounts(tp=2, fp=1, fn=0, tn=1)
        assert macro_f1(counts) == pytest.approx(11 / 15, abs=1e-12)

    def test_zero_denominators_score_zero(self):
        assert f1_from_counts(0, 0, 0) == 0.0
        assert macro_f1(ConfusionCounts(tp=0, fp=0, fn=5, tn=5)) == pytest.approx(
            (0.0 + f1_from_counts(5, 5, 0)) / 2
        )
        # everything predicted Hate on all-Hate gold: Neutral side is 0
        assert macro_f1(ConfusionCounts(tp=4, fp=0, fn=0, tn=0)) == 0.5

    def test_perfect_prediction(self):
        assert macro_f1(ConfusionCounts(tp=3, fp=0, fn=0, tn=7)) == 1.0
        assert accuracy(ConfusionCounts(tp=3, fp=0, fn=0, tn=7)) == 1.0

    @given(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounds_property(self, tp, fp, fn, tn):
        counts = ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)
        assert 0.0 <= macro_f1(counts) <= 1.0
        if counts.total:
            assert 0.0 <= accuracy(counts) <= 1.0


class TestThreshold:
    def test_mean_of_equal_scores_marks_all_hate(self):
        scores = [0.4, 0.4, 0.4]
        t = mean_probability_threshold(scores)
        assert t == 0.4
        assert apply_threshold(scores, t) == [H, H, H]

    def test_mean_never_exceeds_max(self):
        # a naive running mean of [0.1]*3 exceeds 0.1 and would label
        # nothing Hate; the exact mean cannot
        scores = [0.1] * 3
        t = mean_probability_threshold(scores)
        assert t <= max(scores)
        assert H in apply_threshold(scores, t)

    def test_threshold_is_inclusive(self):
        assert apply_threshold([0.5, 0.4999999], 0.5) == [H, N]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_probability_threshold([])

    def test_mixed_example(self):
        scores = [0.9, 0.1, 0.5, 0.5]
        t = mean_probability_threshold(scores)
        assert t == 0.5
        assert apply_threshold(scores, t) == [H, N, H, H]

    @given(st.lists(dyadic, min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_mean_threshold_always_yields_a_hate(self, scores):
        t = mean_probability_threshold(scores)
        labels = apply_threshold(scores, t)
        assert H in labels
        # unless all scores are equal, at least one stays Neutral
        if len(set(scores)) > 1:
            assert N in labels

    @given(st.lists(dyadic, min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_mean_is_correctly_rounded(self, scores):
        t = mean_probability_threshold(scores)
        exact = sum(Fraction(s) for s in scores) / len(scores)
        assert t == float(exact)


class TestPooledGroupScores:
    def report(self, groups):
        # At the fixed threshold 0.5, score 1.0 predicts Hate and 0.0 Neutral.
        data = rows(
            [
                ("d1", 1.0, H), ("d1", 1.0, N), ("d1", 0.0, N),
                ("d2", 0.0, H), ("d2", 1.0, H),
                ("d3", 0.0, N),
            ]
        )
        return build_report(data, groups=groups, threshold_mode="fixed", fixed_threshold=0.5)

    def test_groups_pool_rows_not_scores(self):
        report = self.report([GroupSpec("g12", frozenset({"d1", "d2"}))])
        # pooled counts over d1+d2: tp=2 fp=1 fn=1 tn=1
        entry = report.per_group["g12"]
        assert entry["n"] == 5
        assert entry["confusion"] == {"tp": 2, "fp": 1, "fn": 1, "tn": 1}
        assert entry["macro_f1"] == pytest.approx(
            macro_f1(ConfusionCounts(tp=2, fp=1, fn=1, tn=1))
        )

    def test_pooling_differs_from_score_averaging(self):
        report = self.report([GroupSpec("g12", frozenset({"d1", "d2"}))])
        d1 = macro_f1(confusion([H, H, N], [H, N, N]))
        d2 = macro_f1(confusion([N, H], [H, H]))
        assert report.per_group["g12"]["macro_f1"] != pytest.approx((d1 + d2) / 2)

    def test_empty_group_warns_and_is_omitted(self):
        with pytest.warns(RuntimeWarning, match="ghost"):
            report = self.report([GroupSpec("ghost", frozenset({"nope"}))])
        assert report.per_group == {}

    def test_default_groups_cover_registry(self):
        groups = {g.name: g for g in default_groups()}
        assert set(groups) == {"EN", "DE", "ES", "VI", "SevenSet", "Rest", "All"}
        assert len(groups["All"].members) == 16
        assert len(groups["SevenSet"].members) == 7
        assert len(groups["Rest"].members) == 9
        assert groups["SevenSet"].members & groups["Rest"].members == frozenset()

    def test_seven_set_members(self):
        groups = {g.name: g for g in default_groups()}
        assert groups["SevenSet"].members == {
            "HateXplain", "Sexism", "Covid", "US_election",
            "GermEval21", "GermEval19", "ViHSD",
        }


def rows(spec):
    """spec: list of (dataset, score, gold)."""
    return [
        PredictionRow(id=str(i), dataset=d, score_hate=s, gold=g)
        for i, (d, s, g) in enumerate(spec)
    ]


class TestBuildReport:
    def test_group_scope_thresholds_each_unit_at_its_own_mean(self):
        data = rows(
            [
                ("d1", 0.9, H), ("d1", 0.1, N),
                ("d2", 0.8, H), ("d2", 0.2, N),
            ]
        )
        report = build_report(data, groups=[GroupSpec("both", frozenset({"d1", "d2"}))])
        assert report.per_dataset["d1"]["threshold"] == statistics.mean([0.9, 0.1])
        assert report.per_dataset["d2"]["threshold"] == statistics.mean([0.8, 0.2])
        assert report.per_group["both"]["threshold"] == statistics.mean([0.9, 0.1, 0.8, 0.2])
        assert report.per_group["both"]["macro_f1"] == 1.0

    def test_dataset_scope_pools_fixed_labels(self):
        # d2's scores sit entirely above d1's: a pooled mean would label all
        # of d2 Hate, per-dataset labels keep its own split
        data = rows(
            [
                ("d1", 0.30, H), ("d1", 0.10, N),
                ("d2", 0.90, H), ("d2", 0.70, N),
            ]
        )
        report = build_report(
            data,
            groups=[GroupSpec("both", frozenset({"d1", "d2"}))],
            threshold_scope="dataset",
        )
        assert report.per_group["both"]["macro_f1"] == 1.0
        assert report.per_group["both"]["threshold"] is None
        pooled = build_report(
            data,
            groups=[GroupSpec("both", frozenset({"d1", "d2"}))],
            threshold_scope="group",
        )
        assert pooled.per_group["both"]["macro_f1"] < 1.0

    def test_global_scope_uses_one_mean_everywhere(self):
        data = rows(
            [
                ("d1", 0.9, H), ("d1", 0.1, N),
                ("d2", 0.8, H), ("d2", 0.2, N),
            ]
        )
        report = build_report(
            data,
            groups=[GroupSpec("both", frozenset({"d1", "d2"}))],
            threshold_scope="global",
        )
        t = statistics.mean([0.9, 0.1, 0.8, 0.2])
        assert report.per_dataset["d1"]["threshold"] == t
        assert report.per_dataset["d2"]["threshold"] == t
        assert report.threshold_global == t

    def test_fixed_threshold(self):
        data = rows([("d1", 0.9, H), ("d1", 0.6, N), ("d1", 0.4, N)])
        report = build_report(data, threshold_mode="fixed", fixed_threshold=0.7)
        assert report.per_dataset["d1"]["confusion"] == {"tp": 1, "fp": 0, "fn": 0, "tn": 2}

    def test_fixed_mode_requires_value(self):
        with pytest.raises(ValueError):
            build_report(rows([("d", 0.5, H)]), threshold_mode="fixed")

    def test_unknown_modes_rejected(self):
        with pytest.raises(ValueError):
            build_report(rows([("d", 0.5, H)]), threshold_mode="median")
        with pytest.raises(ValueError):
            build_report(rows([("d", 0.5, H)]), threshold_scope="universe")

    def test_unknown_dataset_against_known_universe(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            build_report(rows([("dX", 0.5, H)]), known_datasets={"d1"})

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_report([])


NAMES = ("d1", "d2", "d3", "d4")
# Many scores land exactly on a unit's mean, where ">=" and ">" part ways.
GRID_SCORES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 5e-324])
SCORES = st.one_of(GRID_SCORES, st.floats(0.0, 1.0))
PREDICTIONS = st.lists(st.tuples(st.sampled_from(NAMES), SCORES, st.sampled_from([H, N])),
                       max_size=40)
# Overlapping groups, and groups that match no prediction ("ghost").
GROUPS = st.none() | st.lists(
    st.frozensets(st.sampled_from(NAMES + ("ghost",)), min_size=1), max_size=5
).map(lambda members: [GroupSpec(f"g{i}", m) for i, m in enumerate(members)])


def hex_floats(value):
    """``value`` with every float replaced by its ``float.hex``, so -0.0 and 0.0 differ."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: hex_floats(v) for k, v in value.items()}
    return value


def report_or_error(build, data, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = hex_floats(build(data, **kwargs).to_dict())
        except ValueError as exc:
            result = ("error", str(exc))
    return result, [str(w.message) for w in caught]


class TestBuildReportAgainstReference:
    @given(
        spec=PREDICTIONS,
        groups=GROUPS,
        fixed=st.none() | SCORES,
        scope=st.sampled_from(THRESHOLD_SCOPES),
        known=st.none() | st.frozensets(st.sampled_from(NAMES), min_size=2),
    )
    @settings(max_examples=400, deadline=None)
    def test_streamed_report_is_the_row_list_report(self, spec, groups, fixed, scope, known):
        kwargs = dict(groups=groups, threshold_scope=scope, known_datasets=known,
                      threshold_mode="mean" if fixed is None else "fixed",
                      fixed_threshold=fixed)
        want = report_or_error(report_reference.build_report, rows(spec), **kwargs)
        assert report_or_error(build_report, iter(rows(spec)), **kwargs) == want


class TestDeltaReport:
    def report_dict(self, f1_d1, f1_g):
        return {
            "per_dataset": {"d1": {"macro_f1": f1_d1}},
            "per_group": {"All": {"macro_f1": f1_g}},
        }

    def test_deltas_over_shared_units(self):
        deltas = delta_report(self.report_dict(0.75, 0.8), self.report_dict(0.7, 0.6))
        assert deltas == {
            "per_dataset:d1": pytest.approx(0.05),
            "per_group:All": pytest.approx(0.2),
        }

    def test_missing_units_skipped_with_warning(self):
        current = {
            "per_dataset": {"d1": {"macro_f1": 0.5}, "d2": {"macro_f1": 0.5}},
            "per_group": {},
        }
        baseline = {"per_dataset": {"d1": {"macro_f1": 0.25}}, "per_group": {}}
        with pytest.warns(RuntimeWarning, match="d2"):
            deltas = delta_report(current, baseline)
        assert deltas == {"per_dataset:d1": pytest.approx(0.25)}

    def test_disjoint_reports_error(self):
        current = {"per_dataset": {"d1": {"macro_f1": 0.5}}, "per_group": {}}
        baseline = {"per_dataset": {"d9": {"macro_f1": 0.5}}, "per_group": {}}
        with pytest.raises(ValueError, match="share no"):
            delta_report(current, baseline)
