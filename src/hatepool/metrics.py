"""Accuracy, macro-F1, mean-probability thresholding and the evaluation report.

Hate is the positive class throughout. :func:`build_report` scores every
dataset and every group; a group is scored from the sum of its members'
confusion counts, which are its pooled per-text predictions, never from an
average of per-dataset scores.
"""

from __future__ import annotations

import math
import warnings
from array import array
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping, Sequence

from ._jsonl import typed_value
from .datasets import BinaryLabel, DatasetSpec, load_registry


@dataclass(frozen=True)
class ConfusionCounts:
    """2x2 confusion counts with Hate as the positive class."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __post_init__(self) -> None:
        for name, n in (("tp", self.tp), ("fp", self.fp), ("fn", self.fn), ("tn", self.tn)):
            if n < 0:
                raise ValueError(f"{name} must be nonnegative, got {n}")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            tp=self.tp + other.tp,
            fp=self.fp + other.fp,
            fn=self.fn + other.fn,
            tn=self.tn + other.tn,
        )

    def to_dict(self) -> dict:
        return asdict(self)


def confusion(
    predicted: Sequence[BinaryLabel], gold: Sequence[BinaryLabel]
) -> ConfusionCounts:
    if len(predicted) != len(gold):
        raise ValueError(f"predicted ({len(predicted)}) and gold ({len(gold)}) length mismatch")
    tp = fp = fn = tn = 0
    for p, g in zip(predicted, gold):
        if g is BinaryLabel.HATE:
            if p is BinaryLabel.HATE:
                tp += 1
            else:
                fn += 1
        else:
            if p is BinaryLabel.HATE:
                fp += 1
            else:
                tn += 1
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def accuracy(counts: ConfusionCounts) -> float:
    if counts.total == 0:
        raise ValueError("accuracy undefined on empty counts")
    return (counts.tp + counts.tn) / counts.total


def f1_from_counts(tp: int, fp: int, fn: int) -> float:
    """F1 of one class; zero-denominator precision/recall/F1 score as 0."""
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def macro_f1(counts: ConfusionCounts) -> float:
    """Unweighted mean of the Hate-class and Neutral-class F1 scores."""
    f1_hate = f1_from_counts(counts.tp, counts.fp, counts.fn)
    f1_neutral = f1_from_counts(counts.tn, counts.fn, counts.fp)
    return (f1_hate + f1_neutral) / 2.0


# 2**-1074 is the smallest positive float, so every finite float times
# 2**1074 is an integer, and sums of such integers are exact.
_SCALE_BITS = 1074


def _scaled_sum(values: Iterable[float]) -> int:
    """The exact sum of finite floats times ``2**_SCALE_BITS``, which is an integer."""
    total = 0
    for value in values:
        numerator, denominator = value.as_integer_ratio()
        total += numerator << (_SCALE_BITS + 1 - denominator.bit_length())
    return total


def _scaled_mean(scaled_total: int, n: int) -> float:
    """The mean of ``n`` values from their :func:`_scaled_sum`, rounded once.

    This is the float ``statistics.mean`` returns: the exact sum divided by
    ``n``, correctly rounded.
    """
    return scaled_total / (n << _SCALE_BITS)


def mean_probability_threshold(scores: Sequence[float]) -> float:
    """Mean of the scores, correctly rounded (so it never exceeds the max score)."""
    if len(scores) == 0:
        raise ValueError("threshold undefined on empty scores")
    return _scaled_mean(_scaled_sum(scores), len(scores))


def apply_threshold(scores: Sequence[float], threshold: float) -> list[BinaryLabel]:
    """Hate where score >= threshold; with the mean as threshold, at least one
    score always clears it."""
    return [
        BinaryLabel.HATE if score >= threshold else BinaryLabel.NEUTRAL for score in scores
    ]


@dataclass(frozen=True)
class GroupSpec:
    """A named pool of datasets scored jointly."""

    name: str
    members: frozenset[str]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError(f"group {self.name!r} has no members")


def default_groups(registry: Mapping[str, DatasetSpec] | None = None) -> list[GroupSpec]:
    """Language pools, the seven-dataset pool and its complement, and All."""
    from .datasets import SEVEN_SET

    registry = registry if registry is not None else load_registry()
    by_language: dict[str, set[str]] = {}
    for name, spec in registry.items():
        by_language.setdefault(spec.language, set()).add(name)
    language_names = {"eng": "EN", "deu": "DE", "spa": "ES", "vie": "VI"}
    groups = [
        GroupSpec(name=language_names.get(lang, lang.upper()), members=frozenset(members))
        for lang, members in sorted(by_language.items())
    ]
    seven = frozenset(n for n in SEVEN_SET if n in registry)
    if seven:
        groups.append(GroupSpec(name="SevenSet", members=seven))
        rest = frozenset(registry) - seven
        if rest:
            groups.append(GroupSpec(name="Rest", members=rest))
    groups.append(GroupSpec(name="All", members=frozenset(registry)))
    return groups


@dataclass
class PredictionRow:
    """One scored text: dataset tag, hate score, gold label."""

    id: str
    dataset: str
    score_hate: float
    gold: BinaryLabel

    @classmethod
    def from_dict(cls, row: Mapping) -> "PredictionRow":
        if "gold" not in row:
            raise ValueError("prediction row lacks a gold label; run ensemble with --labels")
        score_hate = float(typed_value(row["score_hate"], "float", "score_hate"))
        if not 0.0 <= score_hate <= 1.0:
            raise ValueError(f"score_hate out of range: {score_hate}")
        return cls(
            id=typed_value(row["id"], "str", "id"),
            dataset=typed_value(row["dataset"], "str", "dataset"),
            score_hate=score_hate,
            gold=BinaryLabel(row["gold"]),
        )


THRESHOLD_SCOPES = ("group", "dataset", "global")


@dataclass
class EvaluationReport:
    """Per-dataset and per-group scores under one thresholding policy."""

    threshold_mode: str
    threshold_scope: str
    threshold_global: float
    per_dataset: dict[str, dict] = field(default_factory=dict)
    per_group: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _score_entry(counts: ConfusionCounts, threshold: float | None) -> dict:
    return {
        "n": counts.total,
        "threshold": threshold,
        "accuracy": accuracy(counts),
        "macro_f1": macro_f1(counts),
        "confusion": counts.to_dict(),
    }


def build_report(
    rows: Iterable[PredictionRow],
    groups: Sequence[GroupSpec] | None = None,
    threshold_mode: str = "mean",
    threshold_scope: str = "group",
    fixed_threshold: float | None = None,
    known_datasets: Iterable[str] | None = None,
) -> EvaluationReport:
    """Threshold scores into labels and score every dataset and group.

    ``threshold_mode`` is ``mean`` (threshold at the mean hate score of the
    population being scored) or ``fixed`` (use ``fixed_threshold``).
    ``threshold_scope`` controls which population the mean is taken over:

    - ``group``: every reported unit (each dataset and each group) is
      thresholded at the mean score of its own pooled rows;
    - ``dataset``: labels are fixed once per dataset, and group scores
      pool those per-dataset labels;
    - ``global``: one mean over all rows everywhere.

    With ``fixed`` mode the scope is irrelevant. ``rows`` is read once and only
    each dataset's scores are kept. An error raised while reading it comes first,
    then an unknown dataset (the first in ``rows``), then an empty ``rows``.
    """
    if threshold_mode not in ("mean", "fixed"):
        raise ValueError(f"unknown threshold mode {threshold_mode!r}")
    if threshold_scope not in THRESHOLD_SCOPES:
        raise ValueError(f"unknown threshold scope {threshold_scope!r}")
    if threshold_mode == "fixed" and (fixed_threshold is None or math.isnan(fixed_threshold)):
        raise ValueError(f"fixed threshold mode requires a threshold value, got {fixed_threshold}")
    # Each dataset's scores by gold class, (Neutral, Hate), in order of first appearance.
    scores: dict[str, tuple[array, array]] = {}
    for row in rows:
        if row.dataset not in scores:
            scores[row.dataset] = (array("d"), array("d"))
        scores[row.dataset][row.gold is BinaryLabel.HATE].append(row.score_hate)
    if known_datasets is not None:
        known = set(known_datasets)
        for name in scores:
            if name not in known:
                raise ValueError(f"prediction row references unknown dataset {name!r}")
    if not scores:
        raise ValueError("cannot build a report from zero prediction rows")

    for name, by_gold in scores.items():
        scores[name] = tuple(array("d", sorted(part)) for part in by_gold)
    # Scaled sums are exact, so a unit's mean from its datasets' sums is its pooled mean.
    sums = {name: (sum(map(_scaled_sum, by_gold)), sum(map(len, by_gold)))
            for name, by_gold in scores.items()}

    def mean_of(names: Iterable[str]) -> float:
        totals, counts = zip(*(sums[name] for name in names))
        return _scaled_mean(sum(totals), sum(counts))

    def counts_at(name: str, threshold: float) -> ConfusionCounts:
        # Hate where score >= threshold, so the scores below it are the Neutral predictions.
        neutral, hate = scores[name]
        tn, fn = bisect_left(neutral, threshold), bisect_left(hate, threshold)
        return ConfusionCounts(tp=len(hate) - fn, fp=len(neutral) - tn, fn=fn, tn=tn)

    global_threshold = fixed_threshold if threshold_mode == "fixed" else mean_of(scores)
    shared_cut = threshold_mode == "fixed" or threshold_scope == "global"

    def score_unit(members: list[str], member_cuts: bool = False) -> dict:
        # With ``member_cuts`` each member is cut at its own mean, and the unit has no threshold.
        t = None if member_cuts else global_threshold if shared_cut else mean_of(members)
        cuts = (mean_of([name]) if member_cuts else t for name in members)
        return _score_entry(sum(map(counts_at, members, cuts), ConfusionCounts()), t)

    per_dataset = {name: score_unit([name]) for name in sorted(scores)}
    member_cuts = threshold_mode == "mean" and threshold_scope == "dataset"
    per_group: dict[str, dict] = {}
    for group in groups if groups is not None else [GroupSpec("All", frozenset(scores))]:
        members = [name for name in group.members if name in scores]
        if not members:
            warnings.warn(f"group {group.name!r} matched no predictions; skipped",
                          RuntimeWarning, stacklevel=2)
            continue
        per_group[group.name] = score_unit(members, member_cuts)
    return EvaluationReport(
        threshold_mode=threshold_mode,
        threshold_scope=threshold_scope,
        threshold_global=global_threshold,
        per_dataset=per_dataset,
        per_group=per_group,
    )


def _flat_metric(report_dict: Mapping, metric: str) -> dict[str, float]:
    """``{"<section>:<unit>": value}`` of one finite metric over both sections."""
    flat: dict[str, float] = {}
    for section in ("per_dataset", "per_group"):
        for name, entry in typed_value(report_dict.get(section, {}), "dict", section).items():
            unit = f"{section}:{name}"
            if metric not in typed_value(entry, "dict", unit):
                raise ValueError(f"{unit} has no {metric}")
            flat[unit] = typed_value(entry[metric], "float", f"{unit} {metric}")
    return flat


def delta_report(
    report: Mapping, baseline: Mapping, metric: str = "macro_f1"
) -> dict[str, float]:
    """Per-unit ``report - baseline`` for one metric over the shared units.

    Units present on only one side are skipped with a warning; fully
    disjoint reports, and a unit without a finite number ``metric``, are
    an error.
    """
    current = _flat_metric(report, metric)
    base = _flat_metric(baseline, metric)
    shared = sorted(set(current) & set(base))
    missing = sorted(set(current) ^ set(base))
    if not shared:
        raise ValueError("report and baseline share no datasets or groups")
    for name in missing:
        warnings.warn(
            f"unit {name!r} present on only one side; skipped in deltas",
            RuntimeWarning,
            stacklevel=2,
        )
    return {name: current[name] - base[name] for name in shared}


def render_report_table(report: EvaluationReport) -> str:
    """Fixed-width text rendering of a report, datasets then groups."""
    lines = []
    header = f"{'unit':<24} {'n':>7} {'accuracy':>9} {'macro_f1':>9}"
    lines.append(header)
    lines.append("-" * len(header))
    for section, entries in (("dataset", report.per_dataset), ("group", report.per_group)):
        for name in sorted(entries):
            entry = entries[name]
            lines.append(
                f"{name:<24} {entry['n']:>7} {entry['accuracy']:>9.4f} {entry['macro_f1']:>9.4f}"
            )
        if entries:
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"
