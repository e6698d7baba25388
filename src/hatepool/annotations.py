"""The annotation JSONL file: its one writer and its readers, without numpy.

The format::

    {"model_order": [...]}                      first line: the model ids
    {"id": ..., "lang": ..., "models": {model_id: {"hate": h, "neutral": n,
     "raw": {token: weight, ...}}, ...}, ...optional "raw_label"}   one row per text

:func:`write_annotations` writes the header as given (the results' sorted
model ids by default) and each row's ``lang`` when a ``lang_by_id`` is given
or the row has one, and its ``raw_label`` when it is not null.

:func:`read_annotation_chunks` gives each text's probabilities as one feature
row: 8 floats, each model's ``hate`` then ``neutral`` in sorted model order,
the layout of ``ProbabilityVector.features``. Rows come in chunks of
``ensemble.CHUNK_ROWS``, so memory does not grow with the file, and only the
commands that walk trees turn a chunk into a numpy array.
:func:`read_annotations` gives the same rows as :class:`AnnotationRow` objects.

The header must hold ``model_order``, a list of ``ensemble.ENSEMBLE_SIZE``
distinct strings; a file with no header raises ``ValueError("<file>: annotation
file is empty")``. Each row is checked as it is read, in this order: the model set
against the header; each model's ``hate`` and ``neutral`` (a finite number, in
0-1, summing to 1 within 1e-9, as ``ModelProbability`` has it); each ``raw``
through ``dict()``; then ``id``, ``lang`` and ``raw_label``. A bad header
raises ``ValueError("<file>:<line>: <reason>")``, and the first bad row
``ValueError("<file>:<line> (id ...): <reason>")``, for the first check it fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, starmap
from typing import BinaryIO, Iterator, Mapping, NamedTuple, Sequence, TextIO

from . import ensemble
from ._jsonl import iter_jsonl, typed_value, write_jsonl_line
from .ensemble import ProbabilityVector
from .prompt import ModelProbability, check_probabilities


@dataclass
class AnnotationRow:
    """One annotated text: all four model probabilities and the raw label-token weights.

    :func:`hatepool.gateway.annotate_batch` gives rows without ``lang`` or
    ``raw_label``; :func:`read_annotations` gives them as the file has them.
    """

    id: str
    lang: str | None
    vector: ProbabilityVector
    raw_weights: dict[str, dict[str, float]]
    raw_label: str | None = None


class AnnotationChunk(NamedTuple):
    """Consecutive annotation rows, one entry per text in each field."""

    ids: tuple[str, ...]
    langs: tuple[str | None, ...]
    raw_labels: tuple[str | None, ...]
    rows: tuple[list[float], ...]  # 8 features per text


def write_annotations(
    fp: TextIO,
    results: Sequence[AnnotationRow],
    lang_by_id: Mapping[str, str] | None = None,
    raw_label_by_id: Mapping[str, str] | None = None,
    model_order: Sequence[str] | None = None,
) -> None:
    if model_order is None:
        if not results:
            raise ValueError("no annotation results and no explicit model order")
        model_order = list(results[0].vector.model_ids)
    else:
        model_order = list(model_order)
    write_jsonl_line(fp, {"model_order": model_order})
    for result in results:
        if list(result.vector.model_ids) != model_order:
            raise ValueError(f"result {result.id!r} has a different model set")
        row: dict = {
            "id": result.id,
            "models": {
                entry.model_id: {
                    "hate": entry.p_hate,
                    "neutral": entry.p_neutral,
                    "raw": result.raw_weights.get(entry.model_id, {}),
                }
                for entry in result.vector.entries
            },
        }
        if lang_by_id is not None or result.lang is not None:
            row["lang"] = result.lang if lang_by_id is None else lang_by_id.get(result.id)
        raw_label = result.raw_label if raw_label_by_id is None else raw_label_by_id.get(result.id)
        if raw_label is not None:
            row["raw_label"] = raw_label
        write_jsonl_line(fp, row)


def _probability(value: object, name: str) -> float:
    # A float in 0-1 is finite and needs no conversion; anything else gets
    # typed_value's check and message.
    if type(value) is float and 0.0 <= value <= 1.0:
        return value
    return float(typed_value(value, "float", name))


def read_annotation_rows(fp: BinaryIO | TextIO) -> tuple[list[str], Iterator[tuple]]:
    """Read the header; return (model_order, iterator of checked rows).

    Each row is ``(id, lang, raw_label, features, raw)``, ``raw`` being the
    row's ``{model_id: raw weights}``.
    """
    expected: tuple[str, ...] | None = None
    fields: list[tuple[str, str, str]] = []

    def decode(row: dict):
        nonlocal expected
        if expected is None:
            if "model_order" not in row:
                raise ValueError("annotation file must start with a model_order header line")
            model_order = list(typed_value(row["model_order"], "tuple[str, ...]", "model_order"))
            ensemble.check_ensemble_size(len(model_order))
            expected = tuple(sorted(model_order))
            for first, second in zip(expected, expected[1:]):
                if first == second:
                    raise ValueError(f"model_order names {first!r} twice")
            fields.extend((mid, f"{mid} hate", f"{mid} neutral") for mid in expected)
            return model_order
        models = row["models"]
        if tuple(sorted(models)) != expected:
            raise ValueError(f"model set {sorted(models)} does not match header")
        features = []
        for mid, hate_name, neutral_name in fields:
            entry = models[mid]
            p_hate = _probability(entry["hate"], hate_name)
            p_neutral = _probability(entry["neutral"], neutral_name)
            check_probabilities(p_hate, p_neutral)
            features += (p_hate, p_neutral)
        raw = {mid: dict(models[mid].get("raw", {})) for mid in expected}
        text_id = typed_value(row["id"], "str", "id")
        lang = typed_value(row.get("lang"), "str | None", "lang")
        raw_label = typed_value(row.get("raw_label"), "str | None", "raw_label")
        return text_id, lang, raw_label, features, raw

    stream = iter_jsonl(fp, decode)
    model_order = next(stream, None)
    if model_order is None:
        raise ValueError(f"{getattr(fp, 'name', '<stream>')}: annotation file is empty")
    return model_order, stream


def read_annotations(fp: BinaryIO | TextIO) -> tuple[list[str], Iterator[AnnotationRow]]:
    """Read the header; return (model_order, iterator of :class:`AnnotationRow`)."""
    model_order, rows = read_annotation_rows(fp)
    model_ids = sorted(model_order)

    def annotation_row(text_id, lang, raw_label, features, raw) -> AnnotationRow:
        entries = tuple(
            ModelProbability(mid, features[2 * i], features[2 * i + 1])
            for i, mid in enumerate(model_ids)
        )
        return AnnotationRow(text_id, lang, ProbabilityVector(entries), raw, raw_label)

    return model_order, starmap(annotation_row, rows)


def read_annotation_chunks(fp: BinaryIO | TextIO) -> tuple[list[str], Iterator[AnnotationChunk]]:
    """Read the header; return (model_order, iterator of chunks of checked rows).

    Chunks hold ``ensemble.CHUNK_ROWS`` rows, the last one fewer. A bad row
    raises before the chunk that would hold it is given.
    """
    model_order, rows = read_annotation_rows(fp)
    size = ensemble.CHUNK_ROWS

    def chunks() -> Iterator[AnnotationChunk]:
        # Each row's raw weights are dropped as it is read, not held for the chunk.
        while chunk := [row[:4] for row in islice(rows, size)]:
            yield AnnotationChunk(*zip(*chunk))

    return model_order, chunks()
