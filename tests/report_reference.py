"""The row-list evaluation report: the reference for ``hatepool.metrics.build_report``.

It holds every prediction row, groups them by dataset, and labels each
unit's rows one by one with :func:`apply_threshold`. A ``dataset``-scope
group concatenates its members' per-dataset labels; every other group pools
its members' rows and cuts them at the group's own threshold. Only the
entry point is validated: the rows, modes and thresholds it is given are
those a passing ``build_report`` call accepts.
"""

import warnings

from hatepool.metrics import (
    EvaluationReport,
    GroupSpec,
    accuracy,
    apply_threshold,
    confusion,
    macro_f1,
    mean_probability_threshold,
)


def _score_entry(predicted, gold, threshold):
    counts = confusion(predicted, gold)
    return {
        "n": counts.total,
        "threshold": threshold,
        "accuracy": accuracy(counts),
        "macro_f1": macro_f1(counts),
        "confusion": counts.to_dict(),
    }


def build_report(rows, groups=None, threshold_mode="mean", threshold_scope="group",
                 fixed_threshold=None, known_datasets=None):
    rows = list(rows)
    if not rows:
        raise ValueError("cannot build a report from zero prediction rows")
    if known_datasets is not None:
        known = set(known_datasets)
        for row in rows:
            if row.dataset not in known:
                raise ValueError(f"prediction row references unknown dataset {row.dataset!r}")

    datasets_present = sorted({r.dataset for r in rows})
    if groups is None:
        groups = [GroupSpec(name="All", members=frozenset(datasets_present))]
    global_threshold = (
        fixed_threshold
        if threshold_mode == "fixed"
        else mean_probability_threshold([r.score_hate for r in rows])
    )

    by_dataset = {}
    for row in rows:
        by_dataset.setdefault(row.dataset, []).append(row)

    def unit_threshold(unit_rows):
        if threshold_mode == "fixed":
            return fixed_threshold
        if threshold_scope == "global":
            return global_threshold
        return mean_probability_threshold([r.score_hate for r in unit_rows])

    def score_unit(unit_rows):
        t = unit_threshold(unit_rows)
        predicted = apply_threshold([r.score_hate for r in unit_rows], t)
        return predicted, _score_entry(predicted, [r.gold for r in unit_rows], t)

    per_dataset = {}
    dataset_labels = {}
    for name in datasets_present:
        dataset_labels[name], per_dataset[name] = score_unit(by_dataset[name])

    per_group = {}
    for group in groups:
        members = sorted(n for n in group.members if n in by_dataset)
        if not members:
            warnings.warn(f"group {group.name!r} matched no predictions; skipped", RuntimeWarning)
            continue
        pooled_rows = [row for name in members for row in by_dataset[name]]
        if threshold_scope == "dataset" and threshold_mode == "mean":
            predicted = [label for name in members for label in dataset_labels[name]]
            per_group[group.name] = _score_entry(predicted, [r.gold for r in pooled_rows], None)
        else:
            per_group[group.name] = score_unit(pooled_rows)[1]
    return EvaluationReport(
        threshold_mode=threshold_mode,
        threshold_scope=threshold_scope,
        threshold_global=global_threshold,
        per_dataset=per_dataset,
        per_group=per_group,
    )
