"""In-process traced runs: spans around each layer's public calls.

Spans are recorded only here, around calls into ``hatepool`` modules,
never inside the package. A span has an id, a name, a start, an end and
the id of the span that was open when it began; spans stay in memory
and are written as JSON when the run ends. The tracing overhead is the
measured cost of one span times the number of spans recorded.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import threading
import time
from pathlib import Path


class Tracer:
    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record ``name`` around the block; attributes set on the yielded dict are kept."""
        record = {"name": name}
        if not self.enabled:
            yield record
            return
        record.update(id=len(self.spans), parent=self._stack[-1] if self._stack else None,
                      start=time.perf_counter(), end=None)
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total_s(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def attr_sum(self, name: str, key: str) -> float:
        return sum(s.get(key, 0) for s in self.named(name))

    def coverage(self) -> float:
        """Share of the root span covered by its direct children (the layer spans)."""
        root = self.spans[0]
        covered = sum(s["end"] - s["start"] for s in self.spans if s["parent"] == root["id"])
        return covered / (root["end"] - root["start"])

    def write(self, path: Path) -> None:
        origin = self.spans[0]["start"] if self.spans else 0.0
        rows = [{**s, "start": s["start"] - origin, "end": s["end"] - origin} for s in self.spans]
        path.write_text(json.dumps(rows, indent=0), encoding="utf-8")


SPAN_PROBES = 20_000
SPAN_REPEATS = 5


def span_cost_s() -> float:
    """Seconds one recorded span adds to the block it wraps: a median over repeats."""
    costs = []
    n = SPAN_PROBES
    for _ in range(SPAN_REPEATS):
        tracer = Tracer()
        start = time.perf_counter()
        for _ in range(n):
            pass
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(n):
            with tracer.span("probe"):
                pass
        costs.append((time.perf_counter() - start - bare) / n)
    return statistics.median(costs)


class TimedSleep:
    """A ``sleep=`` stand-in for ``annotate_batch`` that totals backoff sleeps.

    It runs on the gateway's worker threads, so it keeps plain counters
    under a lock instead of opening spans.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.calls = 0
        self.total_s = 0.0

    def __call__(self, seconds: float) -> None:
        start = time.perf_counter()
        time.sleep(seconds)
        elapsed = time.perf_counter() - start
        with self._lock:
            self.calls += 1
            self.total_s += elapsed


@contextlib.contextmanager
def wrap_gbdt_fit(tracer: Tracer):
    """Open a span around each ``gbdt_fit`` call that ``hatepool.meta`` makes."""
    import hatepool.meta as meta

    original = meta.gbdt_fit

    def traced_fit(*args, **kwargs):
        with tracer.span("gbdt.fit"):
            return original(*args, **kwargs)

    meta.gbdt_fit = traced_fit
    try:
        yield
    finally:
        meta.gbdt_fit = original


# --- crawl -------------------------------------------------------------------


def run_crawl(tr: Tracer, wl, out: Path) -> dict:
    from hatepool._jsonl import atomic_output, iter_jsonl_tolerant, write_jsonl_line
    from hatepool.filtering import FilterConfig, WebRecord, filter_records, subsample_by_language

    bad_lines = []
    with tr.span("jsonl.read") as s:
        with open(wl.inputs.web, encoding="utf-8") as fp:
            rows = list(iter_jsonl_tolerant(fp, bad_lines.append))
        s.update(rows=len(rows), bytes=wl.inputs.web.stat().st_size)
    with tr.span("filtering.from_dict"):
        records = [WebRecord.from_dict(row) for row in rows]
        del rows
    with tr.span("filtering.filter") as s:
        kept_iter, stats = filter_records(records, FilterConfig())
        kept = list(kept_iter)
        s.update(records=stats.records_seen, kept=stats.kept, parse_failures=stats.parse_failures)
    with tr.span("filtering.subsample"):
        sampled = subsample_by_language(kept, wl.inputs.quotas, wl.seed)
    with tr.span("filtering.to_dict"):
        sampled_rows = [record.to_dict() for record in sampled]
    path = out / "kept.jsonl"
    with tr.span("jsonl.write") as s:
        with atomic_output(str(path)) as fp:
            for row in sampled_rows:
                write_jsonl_line(fp, row)
        s.update(bytes=path.stat().st_size)
    return {"kept.jsonl": path}


# --- annotate ----------------------------------------------------------------


def run_annotate(tr: Tracer, wl, out: Path) -> dict:
    from hatepool._jsonl import atomic_output, iter_jsonl, write_jsonl_line
    from hatepool.gateway import annotate_batch, read_annotations, write_annotations
    from hatepool.prompt import PromptTemplate, extract_label_probabilities, render_prompt

    endpoints = wl.endpoints()
    template = PromptTemplate()
    with tr.span("jsonl.read") as s:
        with open(wl.inputs.texts, encoding="utf-8") as fp:
            rows = list(iter_jsonl(fp))
        s.update(rows=len(rows), bytes=wl.inputs.texts.stat().st_size)
    texts = [(r["id"], r["text"]) for r in rows]
    lang_by_id = {r["id"]: r["lang"] for r in rows}
    with tr.span("prompt.render"):
        for _, text in texts:
            render_prompt(template, text)
    wl.loadgen.reset()
    sleep = TimedSleep()
    with tr.span("gateway.annotate_batch") as s:
        cpu = time.process_time()
        results, quarantined = annotate_batch(texts, endpoints, template, seed=wl.seed, sleep=sleep)
        s.update(cpu_s=time.process_time() - cpu)
    s.update(backoff_sleep_s=sleep.total_s, backoff_sleeps=sleep.calls,
             results=len(results), quarantined=len(quarantined), server=wl.loadgen.stats())
    with tr.span("prompt.extract"):
        for result in results:
            for model_id, weights in result.raw_weights.items():
                extract_label_probabilities(weights, template, model_id=model_id)
    ann = out / "ann.jsonl"
    with tr.span("gateway.write_annotations") as s:
        with atomic_output(str(ann)) as fp:
            write_annotations(fp, results, lang_by_id=lang_by_id, raw_label_by_id={},
                              model_order=sorted(ep.model_id for ep in endpoints))
        s.update(bytes=ann.stat().st_size)
    dead = out / "ann.jsonl.deadletter.jsonl"
    dead_rows = [q.to_dict() for q in quarantined]
    with tr.span("jsonl.write") as s:
        with atomic_output(str(dead)) as fp:
            for row in dead_rows:
                write_jsonl_line(fp, row)
        s.update(bytes=dead.stat().st_size)
    with tr.span("gateway.read_annotations") as s:
        with open(ann, encoding="utf-8") as fp:
            s.update(rows=len(list(read_annotations(fp)[1])))
    return {"ann.jsonl": ann, "ann.jsonl.deadletter.jsonl": dead}


# --- label -------------------------------------------------------------------


def _prediction_rows(rows, strategy, decisions, labels) -> list[dict]:
    out = []
    for row, (label, score) in zip(rows, decisions):
        example = labels[row.id]
        out.append({"id": row.id, "lang": row.lang, "strategy": strategy, "label": label.value,
                    "score_hate": score, "dataset": example.dataset, "gold": example.gold.value})
    return out


def run_label(tr: Tracer, wl, out: Path) -> dict:
    from hatepool._jsonl import atomic_output, iter_jsonl, write_json_file, write_jsonl_line
    from hatepool.datasets import LabeledExample, get_dataset_spec, ingest_rows, load_registry
    from hatepool.datasets import read_dataset_file
    from hatepool.ensemble import (
        features_matrix, mean_hate_score, mean_label, vote_hate_score, vote_label,
    )
    from hatepool.gateway import read_annotations
    from hatepool.gbdt import MetaLearnerConfig
    from hatepool.meta import load_model, predict_meta, predict_meta_many, save_model, train_meta
    from hatepool.metrics import PredictionRow, build_report, default_groups
    from hatepool.poolstats import pool_statistics

    with tr.span("datasets.ingest") as s:
        registry = load_registry()
        spec = get_dataset_spec(wl.csv_dataset, registry)
        examples = list(ingest_rows(read_dataset_file(str(wl.inputs.csv), spec), spec))
        example_rows = [example.to_dict() for example in examples]
        s.update(rows=len(examples))
    # Joining the other datasets' labels is input preparation, as in the CLI chain.
    direct_labels = wl.inputs.direct_labels.read_text(encoding="utf-8")
    labels_path = out / "labels.jsonl"
    with tr.span("jsonl.write") as s:
        with atomic_output(str(labels_path)) as fp:
            for row in example_rows:
                write_jsonl_line(fp, row)
            fp.write(direct_labels)
        s.update(bytes=labels_path.stat().st_size)
    with tr.span("jsonl.read") as s:
        with open(labels_path, encoding="utf-8") as fp:
            raw = list(iter_jsonl(fp))
        s.update(rows=len(raw), bytes=labels_path.stat().st_size)
    labels = {}
    for row in raw:
        example = LabeledExample.from_dict(row)
        labels[example.id] = example
    with tr.span("gateway.read_annotations") as s:
        with open(wl.inputs.annotations, encoding="utf-8") as fp:
            rows = list(read_annotations(fp)[1])
        s.update(rows=len(rows), bytes=wl.inputs.annotations.stat().st_size)
    vectors = [r.vector for r in rows]
    with tr.span("ensemble.features_matrix") as s:
        X = features_matrix(vectors)
        s.update(rows=len(X))
    golds = [labels[r.id].gold for r in rows]
    with tr.span("meta.train") as s, wrap_gbdt_fit(tr):
        model = train_meta(X, golds, MetaLearnerConfig(seed=wl.seed),
                           feature_order=vectors[0].feature_names())
    heads = (model.hate_head, model.neutral_head)
    # The freshly fitted heads carry their loss curves; a loaded model does not.
    s.update(trees=sum(len(h.trees) for h in heads),
             leaves=sum(_leaves(t) for h in heads for t in h.trees),
             final_train_logloss=model.hate_head.train_logloss[-1])
    model_path = out / "model.json"
    with tr.span("meta.save_model") as s:
        save_model(model, str(model_path))
        s.update(bytes=model_path.stat().st_size)
    with tr.span("meta.load_model"):
        model = load_model(str(model_path))
    with tr.span("meta.predict_row"):
        lgb = [predict_meta(model, v)[:2] for v in vectors]
    with tr.span("meta.predict_many"):
        many_labels, many_scores, _ = predict_meta_many(model, X)
    with tr.span("ensemble.vote"):
        vote = [(vote_label(v), vote_hate_score(v)) for v in vectors]
    with tr.span("ensemble.mean"):
        mean = [(mean_label(v), mean_hate_score(v)) for v in vectors]
    # Building the rows each step writes or takes is the CLI's glue, outside
    # the layer spans.
    pred_rows = {strategy: _prediction_rows(rows, strategy, decisions, labels)
                 for strategy, decisions in (("vote", vote), ("mean", mean), ("lgb", lgb))}
    preds = [PredictionRow(r.id, labels[r.id].dataset, score, labels[r.id].gold)
             for r, (_, score) in zip(rows, lgb)]
    pool = [(r.lang if r.lang is not None else "und", r.vector, r.raw_label) for r in rows]
    files = {}
    with tr.span("jsonl.write") as s:
        for strategy, strategy_rows in pred_rows.items():
            path = files[f"pred_{strategy}.jsonl"] = out / f"pred_{strategy}.jsonl"
            with atomic_output(str(path)) as fp:
                for pred in strategy_rows:
                    write_jsonl_line(fp, pred)
        s.update(bytes=sum(p.stat().st_size for p in files.values()))
    with tr.span("metrics.build_report") as s:
        report = build_report(preds, groups=default_groups(registry), known_datasets=set(registry))
        s.update(units=len(report.per_dataset) + len(report.per_group))
    with tr.span("poolstats.pool_statistics") as s:
        summary = pool_statistics(pool, strategies=("vote", "mean", "lgb"), model=model)
        s.update(rows=len(pool))
    with tr.span("jsonl.write") as s:
        files["report.json"] = out / "report.json"
        files["summary.json"] = out / "summary.json"
        write_json_file(str(files["report.json"]), report.to_dict())
        write_json_file(str(files["summary.json"]), summary.to_dict())
        s.update(bytes=sum(files[n].stat().st_size for n in ("report.json", "summary.json")))
    files["model.json"] = model_path
    if [label for label, _ in lgb] != list(many_labels) or any(
        abs(a - b) > 1e-12 for (_, a), b in zip(lgb, many_scores)
    ):
        raise AssertionError("predict_meta and predict_meta_many disagree")
    return files


def _leaves(node) -> int:
    if node.is_leaf:
        return 1
    return _leaves(node.left) + _leaves(node.right)
