"""Streaming reader of the annotation JSONL wire format, without numpy.

The format, as :func:`hatepool.gateway.write_annotations` writes it::

    {"model_order": [...]}                      first line: the sorted model ids
    {"id": ..., "lang": ..., "models": {model_id: {"hate": h, "neutral": n,
     "raw": {token: weight, ...}}, ...}, ...optional "raw_label"}   one row per text

:func:`read_annotation_chunks` gives each text's probabilities as one feature
row: 8 floats, each model's ``hate`` then ``neutral`` in sorted model order,
the layout of ``ProbabilityVector.features``. Rows come in chunks of
``ensemble.CHUNK_ROWS``, so memory does not grow with the file, and only the
commands that walk trees turn a chunk into a numpy array. Each row is checked
as it is read, in this order: the model set against the header; each model's
``hate`` and ``neutral`` (a finite number, in 0-1, summing to 1 within 1e-9, as
``ModelProbability`` has it); each ``raw`` through ``dict()``; then ``id``,
``lang``, the ensemble size and ``raw_label``. The first bad row raises
``ValueError("<file>:<line> (id ...): <reason>")`` for the first check it fails.
"""

from __future__ import annotations

from itertools import islice
from typing import BinaryIO, Iterator, NamedTuple, TextIO

from . import ensemble
from ._jsonl import iter_jsonl, typed_value
from .prompt import check_probabilities


class AnnotationChunk(NamedTuple):
    """Consecutive annotation rows, one entry per text in each field."""

    ids: tuple[str, ...]
    langs: tuple[str | None, ...]
    raw_labels: tuple[str | None, ...]
    rows: tuple[list[float], ...]  # 8 features per text


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
            expected = tuple(sorted(model_order))
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
        ensemble.check_ensemble_size(len(expected))
        raw_label = typed_value(row.get("raw_label"), "str | None", "raw_label")
        return text_id, lang, raw_label, features, raw

    stream = iter_jsonl(fp, decode)
    model_order = next(stream, None)
    if model_order is None:
        raise ValueError("annotation file is empty")
    return model_order, stream


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
