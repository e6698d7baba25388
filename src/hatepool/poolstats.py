"""Pool-level annotation statistics by language, model, and ensemble strategy.

Summaries are computed from integer counts wherever possible; the pooled
All row recombines per-language means by count weighting, in sorted
language order, so it is exactly reproducible from the per-language rows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Sequence

from . import ensemble
from .metrics import _scaled_mean, _scaled_sum

if TYPE_CHECKING:
    from .meta import MetaLearnerModel

ALL_KEY = "All"

PoolRow = tuple  # (lang, ProbabilityVector) or (lang, ProbabilityVector, raw_label)

# (languages or None, raw labels or None, feature rows), one entry per text in each
PoolChunk = tuple[Sequence["str | None"], Sequence["str | None"], ensemble.FeatureRows]


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


def _text(value: object) -> str | None:
    return None if value is None else str(value)


def _unpack(row: PoolRow) -> tuple[str | None, ensemble.ProbabilityVector, str | None]:
    if len(row) == 2:
        lang, vector = row
        return _text(lang), vector, None
    if len(row) == 3:
        lang, vector, raw = row
        return _text(lang), vector, _text(raw)
    raise ValueError(f"pool rows must have 2 or 3 fields, got {len(row)}")


def pool_statistics(
    pool: Iterable[PoolRow],
    strategies: Sequence[str] = ("vote", "mean"),
    model: MetaLearnerModel | None = None,
) -> PoolSummary:
    """Summarize an annotated pool.

    Pool rows are (language, vector) pairs, optionally extended with a raw
    source label as a third field; when any row carries one, a per-label
    breakdown over the labeled rows is included. All vectors must share
    one model set. ``pool`` may be any iterable: it is read and scored
    ``ensemble.CHUNK_ROWS`` rows at a time by :func:`summarize_pool`, so
    memory does not grow with the pool.
    """
    rows = map(_unpack, pool)
    chunk = list(islice(rows, ensemble.CHUNK_ROWS))
    if not chunk:
        raise ValueError("cannot summarize an empty pool")
    model_ids = chunk[0][1].model_ids

    def chunks() -> Iterable[PoolChunk]:
        nonlocal chunk
        while chunk:
            langs, vectors, raw_labels = zip(*chunk)
            if vectors[0].model_ids != model_ids:
                raise ValueError(
                    f"vector model set {vectors[0].model_ids} differs from {model_ids}"
                )
            yield langs, raw_labels, ensemble.feature_rows(vectors)
            chunk = list(islice(rows, ensemble.CHUNK_ROWS))

    return summarize_pool(model_ids, chunks(), strategies, model)


def summarize_pool(
    model_ids: Sequence[str],
    chunks: Iterable[PoolChunk],
    strategies: Sequence[str] = ("vote", "mean"),
    model: MetaLearnerModel | None = None,
) -> PoolSummary:
    """:func:`pool_statistics` over chunks of rows whose features follow the sorted
    ``model_ids``, as :func:`hatepool.annotations.read_annotation_chunks` gives them.

    Each chunk is tallied into integer counts and exact sums, so the summary
    does not depend on how the rows are cut into chunks. A missing language
    (``None``) is counted as ``"und"``. A strategy named twice, and a language
    named ``All`` (the pooled column), raise ``ValueError``; ``lgb`` refuses a
    model fit on another feature layout (:func:`hatepool.ensemble.score_rows`).
    """
    for name in strategies:
        if strategies.count(name) > 1:
            raise ValueError(f"ensemble strategy {name!r} given twice")
    counts: Counter[str] = Counter()
    labeled: Counter[str] = Counter()  # rows with a raw label, per language
    label_counts: Counter[tuple[str, str]] = Counter()  # (raw label, language)
    p_hate_sums: Counter[tuple[int, str]] = Counter()  # (model slot, language), scaled
    votes: Counter[tuple[int, str]] = Counter()
    strategy_hits: Counter[tuple[str, str]] = Counter()  # (strategy, language)
    for langs, raw_labels, rows in chunks:
        langs = ["und" if lang is None else lang for lang in langs]
        counts.update(langs)
        if ALL_KEY in counts:
            raise ValueError(f"language {ALL_KEY!r} is the name of the pooled column")
        pairs = [pair for pair in zip(raw_labels, langs) if pair[0] is not None]
        label_counts.update(pairs)
        labeled.update(lang for _, lang in pairs)
        rows_of: dict[str, list[int]] = {}
        for i, lang in enumerate(langs):
            rows_of.setdefault(lang, []).append(i)
        chunk_votes = ensemble.hate_votes(rows)
        hits = [(name, ensemble.score_rows(rows, model_ids, name, model)[0]) for name in strategies]
        for lang, index in rows_of.items():
            for slot in range(len(model_ids)):
                p_hate_sums[slot, lang] += _scaled_sum(rows[i][2 * slot] for i in index)
                votes[slot, lang] += int(sum(chunk_votes[i][slot] for i in index))
            for name, is_hate in hits:
                strategy_hits[name, lang] += int(sum(is_hate[i] for i in index))
    if not counts:
        raise ValueError("cannot summarize an empty pool")

    languages = dict(sorted(counts.items()))
    n_total = counts.total()
    totals = {**languages, ALL_KEY: n_total}

    def by_lang(tally: Counter, key, keys: Iterable[str] = languages) -> dict[str, int]:
        """``tally[key, lang]`` per language in ``keys``, and their sum."""
        out = {lang: tally[key, lang] for lang in keys}
        return {**out, ALL_KEY: sum(out.values())}

    def percent(hits: dict[str, int], base: dict[str, int]) -> dict[str, float]:
        return {key: 100.0 * hits[key] / base[key] for key in hits}

    per_model: dict[str, dict] = {}
    for slot, model_id in enumerate(model_ids):
        mean_by_lang = {
            lang: _scaled_mean(p_hate_sums[slot, lang], count) for lang, count in languages.items()
        }
        # The pooled mean recombines the per-language means by count so it
        # is exactly recomputable from this summary alone.
        pooled_mean = (
            sum(count * mean_by_lang[lang] for lang, count in languages.items()) / n_total
        )
        per_model[model_id] = {
            "mean_p_hate": {**mean_by_lang, ALL_KEY: pooled_mean},
            "pct_hate": percent(by_lang(votes, slot), totals),
        }

    per_strategy = {
        name: {"pct_hate": percent(by_lang(strategy_hits, name), totals)}
        for name in strategies
    }

    raw_summary: dict[str, dict] | None = None
    if labeled:
        lang_keys = sorted(labeled)
        n_labeled = {**{lang: labeled[lang] for lang in lang_keys}, ALL_KEY: labeled.total()}
        raw_summary = {}
        for label in sorted({label for label, _ in label_counts}):
            count = by_lang(label_counts, label, lang_keys)
            raw_summary[label] = {"count": count, "pct": percent(count, n_labeled)}

    return PoolSummary(
        n_total=n_total,
        languages=languages,
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
