"""Pipeline command line: filter, ingest, annotate, train-meta, ensemble, evaluate, stats.

Exit codes: 0 success, 1 usage error, 2 data error or a dead ``filter`` worker,
3 partial annotation (some texts quarantined). All diagnostics go to stderr;
only requested output goes to stdout. SIGTERM stops a command as Ctrl-C does,
committing no output and leaving no temp file or worker behind, and the process
then ends by SIGTERM.

Every command has one shape: it decodes its config files (``--config``,
``--endpoints``, ``--groups``, ``--registry``), then opens every output, then
reads only the data inputs its work uses. An output that cannot be written is
named before any data is read and costs no filtering, request or fit, and a
command that exits 2 commits no file. ``filter`` and ``annotate`` each commit
their side output (``filter``'s ``--stats``, ``annotate``'s dead letters) just
before their main output, whose rename alone can still fail after it.
``annotate`` commits its dead-letter file on every run, empty when no text was
quarantined.

Every line of a JSONL input must be one JSON object. Blank lines, which hold
only JSON whitespace (space, tab, CR, LF), are skipped; any other space, such as
U+00A0, makes a line invalid JSON. A bad row exits 2 with ``file:line (id ...):
reason``, and so does a bad CSV/TSV row for ``ingest``, as ``file:line: reason``.
Every data input, ``ingest``'s export included, takes ``-`` for standard input,
named ``<stdin>`` in messages. A string holding a lone surrogate escape,
such as ``\\ud800``, is not valid JSON (I-JSON, RFC 7493). Only ``filter`` skips lines that are
not valid JSON, are nested too deeply or hold an integer of more than
4,300 digits, counting them in ``malformed_lines``. A JSON file (a config, the endpoints, groups,
registry, model or baseline) that is not valid JSON exits 2 with
``file:line:col``, one nested too deeply or holding a lone surrogate with ``file``; one with an
unknown key, a wrong-typed field or a value out of range exits 2 with
``file: reason`` naming the field, and the entry that holds it
(``dataset 'X'``, ``endpoints[i]``, ``config``) where there is one. A
number read from any file must be finite as a double: JSON ``NaN``,
``Infinity`` and an integer too large for a double are refused like a
wrong-typed field, and so is an endpoint ``timeout``
over ``threading.TIMEOUT_MAX``. An empty ``text``, a repeated ``id``, or a ``lang``,
``raw_label`` or ``gold`` (read when ``raw_label`` is absent or null) that is
neither a string nor null in the ``annotate`` input is a bad row, and so is a
repeated ``id`` in a labels file. ``evaluate --threshold fixed:V`` takes only a finite V, ``filter
--quota`` each language once, ``stats --strategies`` only known names, each
once, and ``filter --stats`` and ``annotate --dead-letter`` only a file other
than ``--output`` (each exit 1).

Each command imports its modules inside its handler, so a step pays only
for what it runs: ``ingest``, ``annotate``, ``evaluate``, and ``ensemble
--strategy vote|mean`` and ``stats --strategies vote,mean`` never load numpy or
the tree code, and only ``lgb`` reads ``--model``; only ``annotate`` loads the
HTTP client and a thread pool. No step calls BLAS, so :func:`main` sets
``OPENBLAS_NUM_THREADS`` to 1 unless it is already set, and numpy's
OpenBLAS starts no worker thread.

``filter``, ``ensemble``, ``evaluate`` and ``stats`` stream their input, so memory
does not grow with it. ``filter --quota`` spools each record that passes through
or enters a reservoir to an anonymous temporary file next to the output (in the
temp directory for ``--output -``) and holds only spool line numbers in its
reservoirs; ``ensemble`` and ``stats`` read annotations with
:func:`hatepool.annotations.read_annotation_chunks` and score 4,096 rows at a
time; ``evaluate`` keeps only each dataset's scores, 8 bytes a row.

A JSONL input, standard input included, a CSV/TSV export and a JSON file
must be UTF-8: the first line that is not exits 2 with ``file:line: not
valid UTF-8: ...``, its line counted as ``numbered_lines`` counts it.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import signal
import sys
import threading
import warnings
from contextlib import closing, nullcontext
from typing import TYPE_CHECKING, Sequence

from . import __version__
from ._jsonl import (
    atomic_output,
    from_json_object,
    iter_jsonl,
    json_object,
    open_input,
    read_json_file,
    typed_value,
    write_json,
    write_jsonl_line,
)

if TYPE_CHECKING:
    from .datasets import BinaryLabel
    from .gateway import AnnotatorEndpoint
    from .meta import MetaLearnerModel
    from .metrics import GroupSpec
    from .prompt import PromptTemplate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PARTIAL = 3

STRATEGIES = ("vote", "mean", "lgb")

log = logging.getLogger("hatepool")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; this pipeline
    # reserves 2 for data errors.
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_quota(raw: str) -> tuple[str, int]:
    lang, sep, value = raw.partition("=")
    if not sep or not lang or not value:
        raise argparse.ArgumentTypeError(f"quota must look like LANG=N, got {raw!r}")
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"quota count must be an integer, got {value!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"quota count must be nonnegative, got {n}")
    return lang, n


class _QuotaAction(argparse.Action):
    """Collect repeated ``--quota LANG=N`` into a dict, refusing a language given twice."""

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        lang, n = values
        quotas = getattr(namespace, self.dest) or {}
        if lang in quotas:
            raise argparse.ArgumentError(self, f"language {lang!r} given twice")
        setattr(namespace, self.dest, {**quotas, lang: n})


def _parse_strategies(raw: str) -> list[str]:
    strategies = [s.strip() for s in raw.split(",") if s.strip()]
    for name in strategies:
        if name not in STRATEGIES:
            raise argparse.ArgumentTypeError(
                f"unknown ensemble strategy {name!r} (choose from {', '.join(STRATEGIES)})"
            )
        if strategies.count(name) > 1:
            raise argparse.ArgumentTypeError(f"ensemble strategy {name!r} given twice")
    return strategies


def _parse_threshold(raw: str) -> tuple[str, float | None]:
    if raw == "mean":
        return "mean", None
    if raw.startswith("fixed:"):
        try:
            value = float(raw.split(":", 1)[1])
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad fixed threshold in {raw!r}")
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"fixed threshold must be finite, got {raw!r}")
        return "fixed", value
    raise argparse.ArgumentTypeError(
        f"threshold must be 'mean' or 'fixed:<value>', got {raw!r}"
    )


def cmd_filter(args: argparse.Namespace) -> int:
    from .filtering import FilterConfig, filter_file, write_kept

    config = read_json_file(args.config, FilterConfig.from_dict) if args.config else FilterConfig()
    malformed = [0]

    def on_bad_line(error: ValueError) -> None:
        malformed[0] += 1
        log.warning("%s; skipped", error)

    out_dir = None if args.output == "-" else os.path.dirname(os.path.abspath(args.output))
    stats_sink = atomic_output(args.stats) if args.stats else nullcontext(sys.stderr)
    with (atomic_output(args.output) as out_fp, stats_sink as stats_fp,
          open_input(args.input) as in_fp):
        chunks, stats = filter_file(in_fp, config, on_bad_line)
        # Only kept records go to the output, as UTF-8 bytes. Closing the chunks
        # stops any workers before the outputs are cleaned up, whatever the exit.
        with closing(chunks):
            written = write_kept(chunks, args.quota, args.seed, out_fp.buffer, out_dir)
        payload = {**stats.to_dict(), "malformed_lines": malformed[0], "written": written}
        out_fp.flush()  # on stdout, the records come out before the stats
        write_json(stats_fp, payload, args.stats or "<stderr>")
    log.info("kept %d of %d records", stats.kept, stats.records_seen)
    return EXIT_OK


def cmd_ingest(args: argparse.Namespace) -> int:
    from .datasets import get_dataset_spec, ingest_rows, load_registry, read_dataset_file

    registry = load_registry(args.registry)
    spec = get_dataset_spec(args.dataset, registry)
    count = 0
    with atomic_output(args.output) as out_fp:
        for example in ingest_rows(read_dataset_file(args.input, spec, args.format), spec):
            write_jsonl_line(out_fp, example.to_dict())
            count += 1
    log.info("ingested %d examples from %s", count, args.dataset)
    return EXIT_OK


def _decode_endpoints(cfg: object) -> tuple[list[AnnotatorEndpoint], PromptTemplate]:
    from .gateway import AnnotatorEndpoint, check_endpoints
    from .prompt import PromptTemplate

    json_object(cfg, "endpoints file", ("endpoints", "template"))
    endpoints = typed_value(cfg["endpoints"], "list", "endpoints")
    template = PromptTemplate.from_dict(cfg.get("template", {}))
    endpoints = [from_json_object(AnnotatorEndpoint, e, f"endpoints[{i}]")
                 for i, e in enumerate(endpoints)]
    check_endpoints(endpoints)
    return endpoints, template


def cmd_annotate(args: argparse.Namespace) -> int:
    from .annotations import write_annotations
    from .gateway import annotate_batch

    endpoints, template = read_json_file(args.endpoints, _decode_endpoints)
    dead_path = args.dead_letter or (
        f"{args.output}.deadletter.jsonl" if args.output != "-" else "-"
    )
    dead_sink = nullcontext(sys.stderr) if dead_path == "-" else atomic_output(dead_path)
    texts: dict[str, str] = {}
    lang_by_id: dict[str, str] = {}
    raw_label_by_id: dict[str, str] = {}

    # Called for each row after the rows before it were added to ``texts``.
    def text_row(row: dict) -> tuple:
        text_id = typed_value(row["id"], "str", "id")
        if text_id in texts:
            raise ValueError(f"duplicate text id {text_id!r}")
        text = typed_value(row["text"], "str", "text")
        if not text:
            raise ValueError("text must be a nonempty string")
        lang = typed_value(row.get("lang"), "str | None", "lang")
        raw_label = typed_value(row.get("raw_label"), "str | None", "raw_label")
        if raw_label is None:
            raw_label = typed_value(row.get("gold"), "str | None", "gold")
        return text_id, text, lang, raw_label

    with atomic_output(args.output) as out_fp, dead_sink as dead_fp:
        with open_input(args.input) as in_fp:
            for text_id, text, lang, raw_label in iter_jsonl(in_fp, text_row):
                texts[text_id] = text
                if lang is not None:
                    lang_by_id[text_id] = lang
                if raw_label is not None:
                    raw_label_by_id[text_id] = raw_label
        if not texts:
            raise ValueError("no texts to annotate")
        results, quarantined = annotate_batch(
            list(texts.items()), endpoints, template, seed=args.seed
        )
        write_annotations(out_fp, results, lang_by_id, raw_label_by_id,
                          sorted(ep.model_id for ep in endpoints))
        out_fp.flush()  # on stdout, the annotations come out before the dead letters
        for q in quarantined:
            write_jsonl_line(dead_fp, q.to_dict())
    if not quarantined:
        log.info("annotated %d texts on %d endpoints", len(results), len(endpoints))
        return EXIT_OK
    if dead_path != "-":
        log.warning(
            "%d of %d texts quarantined; details in %s", len(quarantined), len(texts), dead_path
        )
    return EXIT_PARTIAL


def _load_labels(path: str) -> dict[str, tuple[str, BinaryLabel]]:
    from .datasets import LabeledExample

    labels: dict[str, tuple[str, BinaryLabel]] = {}

    # Called for each row after the rows before it were added to ``labels``.
    def example_row(row: dict) -> LabeledExample:
        example = LabeledExample.from_dict(row)
        if example.id in labels:
            raise ValueError(f"duplicate id {example.id!r}")
        return example

    with open_input(path) as fp:
        for example in iter_jsonl(fp, example_row):
            labels[example.id] = (sys.intern(example.dataset), example.gold)
    if not labels:
        raise ValueError(f"no labeled examples in {fp.name}")
    return labels


def cmd_train_meta(args: argparse.Namespace) -> int:
    from dataclasses import replace

    import numpy as np

    from .annotations import read_annotation_chunks
    from .ensemble import feature_names
    from .gbdt import MetaLearnerConfig
    from .meta import model_to_dict, train_meta

    config = MetaLearnerConfig()
    if args.config:
        config = read_json_file(args.config, MetaLearnerConfig.from_dict)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    with atomic_output(args.model_out) as out_fp:
        labels = _load_labels(args.labels)
        blocks, golds = [], []
        with open_input(args.annotations) as fp:
            model_order, chunks = read_annotation_chunks(fp)
            for chunk in chunks:
                joined = [(row, labels[i][1])
                          for i, row in zip(chunk.ids, chunk.rows) if i in labels]
                if joined:
                    rows, chunk_golds = zip(*joined)
                    blocks.append(np.array(rows, dtype=np.float64))
                    golds += chunk_golds
        if not golds:
            raise ValueError("annotations and labels share no ids")
        features = np.concatenate(blocks)
        model = train_meta(features, golds, config,
                           feature_order=feature_names(sorted(model_order)))
        write_json(out_fp, model_to_dict(model), args.model_out)
    log.info(
        "trained meta-learner on %d joined examples (%d trees + %d trees)",
        len(golds),
        len(model.hate_head.roots),
        len(model.neutral_head.roots),
    )
    return EXIT_OK


def _load_model(path: str | None, strategies: Sequence[str]) -> MetaLearnerModel | None:
    """The ``--model`` file, read only when ``lgb`` runs; ``lgb`` refuses to run without it."""
    if "lgb" not in strategies:
        return None
    if not path:
        raise ValueError("strategy 'lgb' requires --model")
    from .meta import load_model

    return load_model(path)


def cmd_ensemble(args: argparse.Namespace) -> int:
    from .annotations import read_annotation_chunks
    from .datasets import BinaryLabel
    from .ensemble import score_rows

    count = 0
    with atomic_output(args.output) as out_fp:
        model = _load_model(args.model, (args.strategy,))
        labels = _load_labels(args.labels) if args.labels else None
        with open_input(args.annotations) as in_fp:
            model_order, chunks = read_annotation_chunks(in_fp)
            model_ids = sorted(model_order)
            for chunk in chunks:
                is_hate, scores = score_rows(chunk.rows, model_ids, args.strategy, model)
                for text_id, lang, hate, score_hate in zip(chunk.ids, chunk.langs, is_hate, scores):
                    out: dict = {
                        "id": text_id,
                        "lang": lang,
                        "strategy": args.strategy,
                        "label": (BinaryLabel.HATE if hate else BinaryLabel.NEUTRAL).value,
                        "score_hate": score_hate,
                    }
                    if labels is not None:
                        label = labels.get(text_id)
                        if label is None:
                            log.warning("id %s has no gold label; row emitted without one",
                                        text_id)
                        else:
                            out["dataset"], gold = label
                            out["gold"] = gold.value
                    write_jsonl_line(out_fp, out)
                count += len(chunk.ids)
        # Raised inside the block so that no empty output file is committed.
        if count == 0:
            raise ValueError("no annotation rows to label")
    log.info("labeled %d texts with strategy %s", count, args.strategy)
    return EXIT_OK


def _decode_groups(cfg: object) -> list[GroupSpec]:
    from .metrics import GroupSpec

    if not typed_value(cfg, "dict", "groups file"):
        raise ValueError("groups file must be a nonempty object of name -> dataset list")
    return [
        GroupSpec(name=name, members=typed_value(members, "frozenset[str]", f"group {name!r}"))
        for name, members in cfg.items()
    ]


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .datasets import load_registry
    from .metrics import (
        PredictionRow,
        build_report,
        default_groups,
        delta_report,
        render_report_table,
    )

    if args.groups:
        groups = read_json_file(args.groups, _decode_groups)
        known = set().union(*(g.members for g in groups))
    else:
        registry = load_registry(args.registry)
        groups = default_groups(registry)
        known = set(registry)
    mode, fixed = args.threshold
    with atomic_output(args.report) as out_fp:
        with open_input(args.predictions) as fp:
            report = build_report(
                iter_jsonl(fp, PredictionRow.from_dict),
                groups=groups,
                threshold_mode=mode,
                threshold_scope=args.threshold_scope,
                fixed_threshold=fixed,
                known_datasets=known,
            )
        payload = report.to_dict()
        if args.baseline:
            # The deltas are computed while the baseline is decoded, so its errors name the file.
            deltas = read_json_file(
                args.baseline,
                lambda b: delta_report(payload, typed_value(b, "dict", "baseline"), "macro_f1"),
            )
            payload["deltas"] = {"macro_f1": deltas}
        write_json(out_fp, payload, args.report)
    if args.table:
        if args.report == "-":
            log.warning("--table skipped because the report went to stdout")
        else:
            sys.stdout.write(render_report_table(report))
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    from .annotations import read_annotation_chunks
    from .poolstats import render_pool_table, summarize_pool

    with atomic_output(args.output) as out_fp:
        model = _load_model(args.model, args.strategies)
        with open_input(args.annotations) as fp:
            model_order, chunks = read_annotation_chunks(fp)
            pool = ((c.langs, c.raw_labels, c.rows) for c in chunks)
            summary = summarize_pool(sorted(model_order), pool, args.strategies, model)
        write_json(out_fp, summary.to_dict(), args.output)
    if args.table:
        if args.output == "-":
            log.warning("--table skipped because the summary went to stdout")
        else:
            sys.stdout.write(render_pool_table(summary))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="hatepool",
        description="Filter web text, annotate it with a four-model LLM ensemble, "
        "train the boosted-tree combiner, and evaluate against benchmarks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--log-level",
        default="warning",
        choices=("debug", "info", "warning", "error"),
        help="stderr log verbosity (default: warning)",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("filter", help="keep conversational records, optionally subsample")
    p.add_argument("--input", required=True, help="web records JSONL ('-' for stdin)")
    p.add_argument("--output", required=True, help="kept records JSONL ('-' for stdout)")
    p.add_argument("--config", help="JSON file overriding keywords/schema whitelist")
    p.add_argument(
        "--quota",
        action=_QuotaAction,
        type=_parse_quota,
        metavar="LANG=N",
        help="per-language reservoir quota; repeatable, once per language; "
        "kept records are spooled to a temporary file next to the output",
    )
    p.add_argument("--seed", type=int, default=0, help="subsampling seed (default: 0)")
    p.add_argument("--stats", help="write filter counters to this JSON file")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("ingest", help="normalize a benchmark dataset to labeled JSONL")
    p.add_argument("--dataset", required=True, help="registry name, e.g. HateXplain")
    p.add_argument("--input", required=True, help="dataset export (csv/tsv/jsonl)")
    p.add_argument("--output", required=True, help="labeled examples JSONL")
    p.add_argument("--registry", help="alternate dataset registry JSON")
    p.add_argument("--format", choices=("csv", "tsv", "jsonl"), help="override format sniffing")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("annotate", help="collect per-model label probabilities over HTTP")
    p.add_argument("--input", required=True, help="texts JSONL with id/text[/lang] fields")
    p.add_argument("--output", required=True, help="annotations JSONL")
    p.add_argument("--endpoints", required=True, help="endpoints config JSON")
    p.add_argument(
        "--dead-letter",
        help="quarantined texts JSONL (default: <output>.deadletter.jsonl)",
    )
    p.add_argument("--seed", type=int, default=0, help="retry-jitter seed (default: 0)")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("train-meta", help="fit the two-head boosted-tree combiner")
    p.add_argument("--annotations", required=True, help="annotations JSONL")
    p.add_argument("--labels", required=True, help="labeled examples JSONL (join on id)")
    p.add_argument("--model-out", required=True, help="model JSON path")
    p.add_argument("--config", help="JSON file with booster hyperparameters")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_train_meta)

    p = sub.add_parser("ensemble", help="turn annotations into per-text labels and scores")
    p.add_argument("--annotations", required=True, help="annotations JSONL")
    p.add_argument("--strategy", required=True, choices=STRATEGIES)
    p.add_argument("--model", help="model JSON; read only by lgb, which requires it")
    p.add_argument("--labels", help="labeled examples JSONL; adds dataset/gold to rows")
    p.add_argument("--output", required=True, help="predictions JSONL")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("evaluate", help="score predictions per dataset and group")
    p.add_argument("--predictions", required=True, help="predictions JSONL with gold labels")
    p.add_argument("--report", required=True, help="report JSON ('-' for stdout)")
    p.add_argument("--groups", help="JSON object of group name -> dataset list")
    p.add_argument("--registry", help="alternate dataset registry JSON")
    p.add_argument(
        "--threshold",
        type=_parse_threshold,
        default=("mean", None),
        metavar="mean|fixed:V",
        help="score threshold policy (default: mean)",
    )
    p.add_argument(
        "--threshold-scope",
        default="group",
        choices=("group", "dataset", "global"),
        help="population the mean threshold is taken over (default: group)",
    )
    p.add_argument("--baseline", help="earlier report JSON; adds per-unit macro-F1 deltas")
    p.add_argument("--table", action="store_true", help="also print a text table to stdout")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("stats", help="summarize an annotated pool")
    p.add_argument("--annotations", required=True, help="annotations JSONL")
    p.add_argument("--output", required=True, help="summary JSON ('-' for stdout)")
    p.add_argument(
        "--strategies",
        type=_parse_strategies,
        default="vote,mean",
        help="comma-separated ensemble strategies (default: vote,mean)",
    )
    p.add_argument("--model", help="model JSON; read only by lgb, which requires it")
    p.add_argument("--table", action="store_true", help="also print a text table to stdout")
    p.set_defaults(func=cmd_stats)

    return parser


class _Terminated(BaseException):
    """Raised in the main thread by SIGTERM, as Ctrl-C raises ``KeyboardInterrupt``."""


def _terminated(signum, frame) -> None:
    raise _Terminated


def main(argv: Sequence[str] | None = None) -> int:
    # OpenBLAS reads this when numpy is first imported. By default it starts a
    # worker thread for each CPU but the caller's, which costs CPU for no call
    # and would still be running when ``filter`` forks.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    # The side output would be committed and then renamed over by the main one.
    for flag in ("stats", "dead_letter"):
        side = getattr(args, flag, None)
        if side and "-" not in (side, args.output) and (
            os.path.realpath(side) == os.path.realpath(args.output)
        ):
            parser.error(f"--{flag.replace('_', '-')} and --output name the same file")
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, args.log_level.upper()),
        format="%(levelname)s %(name)s: %(message)s",
    )
    # SIGTERM unwinds the command as Ctrl-C does, so every ``finally`` and output
    # cleanup runs; the process then ends by SIGTERM, so a shell or ``timeout``
    # still sees the signal. Only the main thread may set a handler.
    on_main_thread = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _terminated) if on_main_thread else None
    # A library warning, such as a group that matched no prediction, is one log line.
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: log.warning("%s", message)
        try:
            return args.func(args)
        except (ValueError, KeyError, OSError) as exc:
            log.error("%s", exc)
            return EXIT_DATA
        except _Terminated:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            signal.raise_signal(signal.SIGTERM)
            raise  # only if SIGTERM is held in this thread
        finally:
            if on_main_thread:
                signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
