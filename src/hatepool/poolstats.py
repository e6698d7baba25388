"""Pool-level annotation statistics by language, model, and ensemble strategy.

Summaries are computed from integer counts wherever possible; the pooled
All row recombines per-language means by count weighting, in sorted
language order, so it is exactly reproducible from the per-language rows.
"""

from __future__ import annotations

import statistics
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .ensemble import ProbabilityVector, features_matrix, hate_votes
from .meta import MetaLearnerModel, check_feature_order, score_matrix

ALL_KEY = "All"

PoolRow = tuple  # (lang, ProbabilityVector) or (lang, ProbabilityVector, raw_label)


@dataclass
class PoolSummary:
    """Aggregate statistics for one annotated pool."""

    n_total: int
    languages: dict[str, int]
    per_model: dict[str, dict]
    per_strategy: dict[str, dict]
    raw_labels: dict[str, dict] | None = None

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.raw_labels is None:
            del out["raw_labels"]
        return out


def _unpack(row: PoolRow) -> tuple[str, ProbabilityVector, str | None]:
    if len(row) == 2:
        lang, vector = row
        return str(lang), vector, None
    if len(row) == 3:
        lang, vector, raw = row
        return str(lang), vector, None if raw is None else str(raw)
    raise ValueError(f"pool rows must have 2 or 3 fields, got {len(row)}")


def pool_statistics(
    pool: Sequence[PoolRow],
    strategies: Sequence[str] = ("vote", "mean"),
    model: MetaLearnerModel | None = None,
) -> PoolSummary:
    """Summarize an annotated pool.

    Pool rows are (language, vector) pairs, optionally extended with a raw
    source label as a third field; when any row carries one, a per-label
    breakdown over the labeled rows is included. All vectors must share
    one model set.
    """
    if not pool:
        raise ValueError("cannot summarize an empty pool")
    rows = [_unpack(r) for r in pool]
    vectors = [vector for _, vector, _ in rows]
    X = features_matrix(vectors)
    if "lgb" in strategies and model is not None:
        check_feature_order(model, vectors[0].feature_names())
    row_langs = np.array([lang for lang, _, _ in rows], dtype=object)
    langs = sorted(set(row_langs.tolist()))
    masks = {lang: row_langs == lang for lang in langs}
    counts = {lang: int(masks[lang].sum()) for lang in langs}
    n_total = len(rows)
    totals = {**counts, ALL_KEY: n_total}

    def count_by_lang(hit: np.ndarray, keys: Sequence[str] = langs) -> dict[str, int]:
        """Rows where ``hit`` holds, per language in ``keys`` and pooled."""
        return {**{lang: int((hit & masks[lang]).sum()) for lang in keys}, ALL_KEY: int(hit.sum())}

    def percent(hits: dict[str, int], base: dict[str, int]) -> dict[str, float]:
        return {key: 100.0 * hits[key] / base[key] for key in hits}

    votes = hate_votes(X)
    per_model: dict[str, dict] = {}
    for slot, model_id in enumerate(vectors[0].model_ids):
        mean_by_lang = {lang: statistics.mean(X[masks[lang], 2 * slot].tolist()) for lang in langs}
        # The pooled mean recombines the per-language means by count so it
        # is exactly recomputable from this summary alone.
        pooled_mean = (
            sum(counts[lang] * mean_by_lang[lang] for lang in langs) / n_total
        )
        per_model[model_id] = {
            "mean_p_hate": {**mean_by_lang, ALL_KEY: pooled_mean},
            "pct_hate": percent(count_by_lang(votes[:, slot]), totals),
        }

    per_strategy = {
        name: {"pct_hate": percent(count_by_lang(score_matrix(X, name, model)[0]), totals)}
        for name in strategies
    }

    raw_summary: dict[str, dict] | None = None
    raw = np.array([label for _, _, label in rows], dtype=object)
    labeled = np.not_equal(raw, None)
    if labeled.any():
        lang_keys = sorted(set(row_langs[labeled].tolist()))
        n_labeled = count_by_lang(labeled, lang_keys)
        raw_summary = {}
        for label in sorted(set(raw[labeled].tolist())):
            count = count_by_lang(raw == label, lang_keys)
            raw_summary[label] = {"count": count, "pct": percent(count, n_labeled)}

    return PoolSummary(
        n_total=n_total,
        languages=counts,
        per_model=per_model,
        per_strategy=per_strategy,
        raw_labels=raw_summary,
    )


def render_pool_table(summary: PoolSummary) -> str:
    """Fixed-width text rendering of a pool summary."""
    langs = sorted(summary.languages)
    columns = langs + [ALL_KEY]
    width = max(12, *(len(c) + 2 for c in columns))
    lines = []
    lines.append(f"{'':<28}" + "".join(f"{c:>{width}}" for c in columns))
    count_row = {**summary.languages, ALL_KEY: summary.n_total}
    lines.append(f"{'texts':<28}" + "".join(f"{count_row[c]:>{width}}" for c in columns))
    lines.append("")
    lines.append("mean hate probability")
    for model_id, entry in summary.per_model.items():
        cells = entry["mean_p_hate"]
        lines.append(f"{model_id:<28}" + "".join(f"{cells[c]:>{width}.4f}" for c in columns))
    lines.append("")
    lines.append("% predicted Hate (per model)")
    for model_id, entry in summary.per_model.items():
        cells = entry["pct_hate"]
        lines.append(f"{model_id:<28}" + "".join(f"{cells[c]:>{width}.2f}" for c in columns))
    lines.append("")
    lines.append("% predicted Hate (per strategy)")
    for name, entry in summary.per_strategy.items():
        cells = entry["pct_hate"]
        lines.append(f"{name:<28}" + "".join(f"{cells[c]:>{width}.2f}" for c in columns))
    if summary.raw_labels:
        lines.append("")
        lines.append("% by source label (labeled rows)")
        for label, entry in summary.raw_labels.items():
            cells = entry["pct"]
            lines.append(
                f"{label:<28}"
                + "".join(f"{cells.get(c, 0.0):>{width}.2f}" for c in columns)
            )
    return "\n".join(lines) + "\n"
