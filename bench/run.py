"""Offline benchmark for the hatepool pipeline.

    python3 bench/run.py --workload crawl|annotate|label --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload's inputs are generated
from the seed under ``bench/out/``; the ``hatepool`` CLI then runs on
them as child processes. With ``--trace 0`` a discarded warm-up pass is
followed by timed passes until ``--seconds`` have gone by (at least
three), every output is checked, and the end-to-end metrics are medians
over the timed passes. With ``--trace 1`` one untimed CLI pass gives the
per-step ``cli.*`` metrics, and the same work then runs in-process
twice: a warm-up, then a run with spans on for the per-layer metrics.
Metric names and units come from ``BENCHMARK.json``. The last line of
stdout is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
from harness import CliRunner, digest_files  # noqa: E402

SETUP_SPAWNS = 7
MIN_PASSES = 3
CLI_STEPS = ("filter", "ingest", "annotate", "train-meta", "ensemble-vote", "ensemble-mean",
             "ensemble-lgb", "evaluate", "stats")

# Which end-to-end metric each per-layer metric should move. Names, units
# and directions come from BENCHMARK.json; BENCHMARK.json has no field for
# this text, so it lives here and is printed next to each value.
MOVES = {
    "cli.startup_s": "setup_s; wall_s on every workload",
    **{f"cli.{step}_s": "wall_s on the workload that runs it" for step in CLI_STEPS},
    **{f"cli.{step}_rss_mb": "peak_rss_mb on the workload that runs it" for step in CLI_STEPS},
    "jsonl.read_s": "filter_records_per_s on crawl; score_s, train_meta_s on label",
    "jsonl.read_rows": "work count",
    "jsonl.bytes_read": "work count",
    "jsonl.write_s": "filter_records_per_s on crawl; none on annotate",
    "jsonl.bytes_written": "work count",
    "filtering.filter_s": "filter_records_per_s on crawl only",
    "filtering.records": "work count",
    "filtering.kept_ratio": "fixed by the input",
    "filtering.parse_failures": "fixed by the input",
    "filtering.subsample_s": "filter_records_per_s on crawl only",
    "datasets.ingest_s": "wall_s on label",
    "datasets.ingest_rows": "work count",
    "prompt.render_s": "annotate_texts_per_s, cpu_s on annotate",
    "prompt.extract_s": "annotate_texts_per_s, cpu_s on annotate",
    "gateway.annotate_batch_s": "annotate_texts_per_s, wall_s on annotate",
    "gateway.cpu_s": "cpu_s on annotate",
    "gateway.requests": "annotate_texts_per_s on annotate",
    "gateway.retries": "annotate_texts_per_s on annotate",
    "gateway.useful_ratio": "annotate_texts_per_s on annotate",
    "gateway.inflight_peak": "fixed at 1 by the endpoint limit",
    **{f"gateway.inflight_peak.{m}": "fixed at 1 by the endpoint limit" for m in gen.MODELS},
    "gateway.req_per_s": "annotate_texts_per_s on annotate",
    "gateway.ideal_req_per_s": "fixed by the load generator",
    "gateway.efficiency": "annotate_texts_per_s on annotate",
    "gateway.client_overhead_ms_per_req": "annotate_texts_per_s, cpu_s on annotate",
    "gateway.backoff_sleep_s": "annotate_texts_per_s, wall_s on annotate",
    "gateway.backoff_sleeps": "annotate_texts_per_s on annotate",
    "gateway.quarantined": "quarantine_share on annotate",
    "gateway.write_annotations_s": "annotate_texts_per_s on annotate",
    "gateway.read_annotations_s": "train_meta_s, score_s on label",
    "ensemble.vote_s": "score_s on label",
    "ensemble.mean_s": "score_s on label",
    "ensemble.features_matrix_s": "train_meta_s on label",
    "ensemble.rows": "work count",
    "meta.train_s": "train_meta_s on label",
    "gbdt.fits": "train_meta_s on label",
    "gbdt.fit_s": "train_meta_s on label",
    "gbdt.trees": "train_meta_s, score_s on label",
    "gbdt.leaves": "train_meta_s, score_s on label",
    "gbdt.final_train_logloss": "macro_f1_lgb on label (quality guard)",
    "meta.predict_row_s": "score_s on label",
    "meta.predict_many_s": "score_s on label",
    "meta.save_model_s": "train_meta_s on label",
    "meta.load_model_s": "score_s on label",
    "meta.model_bytes": "score_s on label",
    "poolstats.pool_statistics_s": "score_s on label",
    "poolstats.rows": "work count",
    "metrics.build_report_s": "wall_s on label",
    "metrics.units": "work count",
    "trace.coverage": "none (trace quality)",
    "trace.overhead_s": "none (cost of tracing)",
}


def end_to_end(wl, passes: list, startup: list[float]) -> dict[str, tuple[float, str, int]]:
    """Every end-to-end metric that applies to ``wl``: (median, unit, sample count)."""
    med, k = statistics.median, len(passes)
    out = {
        "setup_s": (med(startup), "s", len(startup)),
        "wall_s": (med([sum(s.wall_s for s in p) for p, _ in passes]), "s", k),
        "cpu_s": (med([sum(s.cpu_s for s in p) for p, _ in passes]), "s", k),
        "peak_rss_mb": (med([max(s.rss_mb for s in p) for p, _ in passes]), "MB", k),
    }
    per_pass = [wl.named_metrics(steps, out_dir) for steps, out_dir in passes]
    for name, (_, unit) in per_pass[0].items():
        out[name] = (med([m[name][0] for m in per_pass]), unit, k)
    return out


def layer_metrics(tr, wl, cli_steps, startup: list[float], overhead_s: float) -> dict:
    m: dict[str, float] = {"cli.startup_s": statistics.median(startup)}
    for step in CLI_STEPS:
        mine = [s for s in cli_steps if s.name == step]
        m[f"cli.{step}_s"] = sum(s.wall_s for s in mine)
        m[f"cli.{step}_rss_mb"] = max((s.rss_mb for s in mine), default=0.0)
    m["jsonl.read_s"] = tr.total_s("jsonl.read")
    m["jsonl.read_rows"] = tr.attr_sum("jsonl.read", "rows")
    m["jsonl.bytes_read"] = tr.attr_sum("jsonl.read", "bytes")
    m["jsonl.write_s"] = tr.total_s("jsonl.write")
    m["jsonl.bytes_written"] = tr.attr_sum("jsonl.write", "bytes")
    records = tr.attr_sum("filtering.filter", "records")
    m["filtering.filter_s"] = tr.total_s("filtering.filter")
    m["filtering.records"] = records
    m["filtering.kept_ratio"] = (tr.attr_sum("filtering.filter", "kept") / records
                                 if records else 0.0)
    m["filtering.parse_failures"] = tr.attr_sum("filtering.filter", "parse_failures")
    m["filtering.subsample_s"] = tr.total_s("filtering.subsample")
    m["datasets.ingest_s"] = tr.total_s("datasets.ingest")
    m["datasets.ingest_rows"] = tr.attr_sum("datasets.ingest", "rows")
    m["prompt.render_s"] = tr.total_s("prompt.render")
    m["prompt.extract_s"] = tr.total_s("prompt.extract")
    m.update(gateway_metrics(tr, wl))
    m["gateway.write_annotations_s"] = tr.total_s("gateway.write_annotations")
    m["gateway.read_annotations_s"] = tr.total_s("gateway.read_annotations")
    m["ensemble.vote_s"] = tr.total_s("ensemble.vote")
    m["ensemble.mean_s"] = tr.total_s("ensemble.mean")
    m["ensemble.features_matrix_s"] = tr.total_s("ensemble.features_matrix")
    m["ensemble.rows"] = tr.attr_sum("ensemble.features_matrix", "rows")
    m["meta.train_s"] = tr.total_s("meta.train")
    m["gbdt.fits"] = len(tr.named("gbdt.fit"))
    m["gbdt.fit_s"] = tr.total_s("gbdt.fit")
    m["gbdt.trees"] = tr.attr_sum("meta.train", "trees")
    m["gbdt.leaves"] = tr.attr_sum("meta.train", "leaves")
    m["gbdt.final_train_logloss"] = tr.attr_sum("meta.train", "final_train_logloss")
    m["meta.predict_row_s"] = tr.total_s("meta.predict_row")
    m["meta.predict_many_s"] = tr.total_s("meta.predict_many")
    m["meta.save_model_s"] = tr.total_s("meta.save_model")
    m["meta.load_model_s"] = tr.total_s("meta.load_model")
    m["meta.model_bytes"] = tr.attr_sum("meta.save_model", "bytes")
    m["poolstats.pool_statistics_s"] = tr.total_s("poolstats.pool_statistics")
    m["poolstats.rows"] = tr.attr_sum("poolstats.pool_statistics", "rows")
    m["metrics.build_report_s"] = tr.total_s("metrics.build_report")
    m["metrics.units"] = tr.attr_sum("metrics.build_report", "units")
    m["trace.coverage"] = tr.coverage()
    m["trace.overhead_s"] = overhead_s
    return m


def gateway_metrics(tr, wl) -> dict[str, float]:
    m = {f"gateway.{k}": 0.0 for k in (
        "annotate_batch_s", "cpu_s", "requests", "retries", "useful_ratio", "inflight_peak",
        "req_per_s", "ideal_req_per_s", "efficiency", "client_overhead_ms_per_req",
        "backoff_sleep_s", "backoff_sleeps", "quarantined")}
    m.update({f"gateway.inflight_peak.{model}": 0.0 for model in gen.MODELS})
    spans = tr.named("gateway.annotate_batch")
    if not spans:
        return m
    span = spans[0]
    server = span["server"]
    endpoints = wl.endpoints()
    batch_s = span["end"] - span["start"]
    requests = sum(s["requests"] for s in server.values())
    texts = span["results"] + span["quarantined"]
    ideal = sum(ep.max_in_flight for ep in endpoints) / gen.SERVICE_S
    # A request slot is in flight from its endpoint's first request to its
    # last response, except while the client sleeps in backoff.
    slot_s = sum(ep.max_in_flight * (server[ep.model_id]["last_end"]
                                     - server[ep.model_id]["first_start"]) for ep in endpoints)
    busy_s = sum(s["busy_s"] for s in server.values())
    m.update({
        "gateway.annotate_batch_s": batch_s,
        "gateway.cpu_s": span["cpu_s"],
        "gateway.requests": requests,
        "gateway.retries": requests - len(endpoints) * texts,
        "gateway.useful_ratio": len(endpoints) * span["results"] / requests,
        "gateway.inflight_peak": max(s["inflight_peak"] for s in server.values()),
        "gateway.req_per_s": requests / batch_s,
        "gateway.ideal_req_per_s": ideal,
        "gateway.efficiency": requests / batch_s / ideal,
        "gateway.client_overhead_ms_per_req":
            1000.0 * (slot_s - span["backoff_sleep_s"] - busy_s) / requests,
        "gateway.backoff_sleep_s": span["backoff_sleep_s"],
        "gateway.backoff_sleeps": span["backoff_sleeps"],
        "gateway.quarantined": span["quarantined"],
    })
    for model, s in server.items():
        m[f"gateway.inflight_peak.{model}"] = s["inflight_peak"]
    return m


def measure(wl, runner, run_dir: Path, seconds: float) -> tuple[dict, list[str]]:
    """Warm-up pass, then timed passes; returns end-to-end metrics and check failures."""
    warm = run_dir / "warm"
    warm.mkdir()
    wl.chain(runner, warm, warm=True)
    shutil.rmtree(warm)
    passes, digests = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        out = run_dir / f"pass{len(passes)}"
        out.mkdir()
        steps = wl.chain(runner, out)
        passes.append((steps, out))
        digests.append(digest_files(out))
    errors = wl.check(passes[0][1], passes[0][0])
    if any(d != digests[0] for d in digests[1:]):
        errors.append("outputs differ between repeats of one run")
    metrics = end_to_end(wl, passes, runner.startup)
    return metrics, errors


def trace(wl, runner, run_dir: Path) -> tuple[dict, list[str], object]:
    """One CLI pass for the cli.* metrics, then the in-process run, warm-up first."""
    from traced import Tracer, span_cost_s

    cli_dir = run_dir / "cli"
    cli_dir.mkdir()
    cli_steps = wl.chain(runner, cli_dir)
    errors = wl.check(cli_dir, cli_steps)
    cli_digests = digest_files(cli_dir)
    # The first in-process run only warms the allocator and caches.
    for label, enabled in (("warm", False), ("traced", True)):
        tr = Tracer(enabled)
        out = run_dir / label
        out.mkdir()
        with tr.span("run"):
            files = wl.traced(tr, out)
        digests = digest_files(out)
        for name in files:
            if digests.get(name) != cli_digests.get(name):
                errors.append(f"in-process {name} differs from the CLI's ({label} run)")
        shutil.rmtree(out)
    # Two whole runs differ by host noise far above the cost of a few dozen
    # spans, so the overhead is the measured cost of one span times the count.
    overhead_s = span_cost_s() * len(tr.spans)
    metrics = layer_metrics(tr, wl, cli_steps, runner.startup, overhead_s)
    return metrics, errors, tr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Offline benchmark for the hatepool pipeline.")
    parser.add_argument("--workload", required=True, choices=("crawl", "annotate", "label"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hatepool" / "cli.py").is_file():
        print(f"no hatepool sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    # A terminated run still stops its load generator and CLI child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    run_dir = BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    data_dir = run_dir / "data"
    log_dir = run_dir / "logs"
    for d in (data_dir, log_dir):
        d.mkdir(parents=True)
    wl = None
    try:
        wl = WORKLOADS[args.workload](ROOT, data_dir, args.seed)
        runner = CliRunner(ROOT, log_dir)
        runner.startup = runner.startup_s(SETUP_SPAWNS)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "description": wl.description}
        if args.trace:
            metrics, errors, tr = trace(wl, runner, run_dir)
            tr.write(run_dir / "spans.json")
            result = {m["name"]: (metrics[m["name"]], m["unit"]) for m in spec["per_layer"]}
            record["per_layer"] = {n: {"value": v, "unit": u, "moves": MOVES[n]}
                                   for n, (v, u) in result.items()}
        else:
            e2e, errors = measure(wl, runner, run_dir, args.seconds)
            attempted, failed = len(runner.steps), sum(not s.ok for s in runner.steps)
            e2e["step_fail_share"] = (failed / attempted, "ratio", attempted)
            record["end_to_end"] = {n: {"value": v, "unit": u, "samples": k}
                                    for n, (v, u, k) in e2e.items()}
            result = {m["name"]: (e2e[m["name"]][0], m["unit"]) for m in spec["end_to_end"]}
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        if wl is not None:
            wl.close()
        for d in run_dir.iterdir():
            if d.is_dir() and d.name != "logs":
                shutil.rmtree(d)

    attempted, failed = len(runner.steps), sum(not s.ok for s in runner.steps)
    record.update(attempted=attempted, failed=failed, errors=errors,
                  steps=[vars(s) for s in runner.steps])
    (run_dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"workload {args.workload}, seed {args.seed}: {json.dumps(wl.description)}")
    for section in ("end_to_end", "per_layer"):
        for name, entry in record.get(section, {}).items():
            extra = (f"{entry['samples']} samples" if "samples" in entry
                     else f"moves {entry['moves']}")
            print(f"  {name:<40} {entry['value']:>16.6g} {entry['unit']:<6} ({extra})")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(f"record: {run_dir / 'result.json'}")
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
