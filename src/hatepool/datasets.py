"""Benchmark dataset registry and binary label mapping.

Sixteen hate-speech benchmarks with heterogeneous label vocabularies are
described by a bundled registry file. Every raw label maps onto one of
two canonical classes, Hate or Neutral, via the per-dataset positive set,
and :func:`ingest_rows` turns raw CSV/TSV/JSONL export rows into labeled
examples.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping

from ._jsonl import decode_error, from_json_object, iter_jsonl, numbered_lines, open_input
from ._jsonl import read_json_file, typed_value


class BinaryLabel(str, Enum):
    HATE = "Hate"
    NEUTRAL = "Neutral"

    def __str__(self) -> str:  # keeps f-strings readable
        return self.value


class LabelMappingError(ValueError):
    """Raised when a raw label is not in the dataset's vocabulary."""


class UnknownDatasetError(KeyError):
    """Raised when a dataset name is not in the registry."""

    def __str__(self) -> str:  # a KeyError's str() is the repr of its message
        return str(self.args[0])


@dataclass(frozen=True)
class DatasetSpec:
    """Registry entry for one benchmark dataset."""

    name: str
    language: str
    vocabulary: frozenset[str]
    positives: frozenset[str]
    text_column: str = "text"
    label_column: str = "label"
    id_column: str | None = None

    def __post_init__(self) -> None:
        if not self.vocabulary:
            raise ValueError("empty label vocabulary")
        if not self.positives:
            raise ValueError("empty positive label set")
        stray = self.positives - self.vocabulary
        if stray:
            raise ValueError(f"positives not in vocabulary: {sorted(stray)}")
        # map_label looks raw labels up in canonical form.
        for label in sorted(self.vocabulary):
            if label != canonical_raw_label(label):
                raise ValueError(f"labels must be lowercase and stripped: {label!r}")


@dataclass(frozen=True)
class LabeledExample:
    """One text with its canonical gold label."""

    id: str
    dataset: str
    text: str
    gold: BinaryLabel

    def to_dict(self) -> dict:
        return {"id": self.id, "dataset": self.dataset, "text": self.text, "gold": self.gold.value}

    @classmethod
    def from_dict(cls, row: Mapping) -> "LabeledExample":
        return cls(
            id=typed_value(row["id"], "str", "id"),
            dataset=typed_value(row["dataset"], "str", "dataset"),
            text=typed_value(row["text"], "str", "text"),
            gold=BinaryLabel(row["gold"]),
        )


_BUNDLED_REGISTRY = os.path.join(os.path.dirname(__file__), "data", "dataset_registry.json")


def _decode_registry(raw: object) -> dict[str, DatasetSpec]:
    return {
        name: from_json_object(DatasetSpec, entry, f"dataset {name!r}", name=name)
        for name, entry in typed_value(raw, "dict", "registry").items()
    }


def load_registry(path: str | None = None) -> dict[str, DatasetSpec]:
    """Load the dataset registry; the bundled one when ``path`` is None."""
    return read_json_file(path or _BUNDLED_REGISTRY, _decode_registry)


def get_dataset_spec(name: str, registry: Mapping[str, DatasetSpec]) -> DatasetSpec:
    try:
        return registry[name]
    except KeyError:
        raise UnknownDatasetError(
            f"unknown dataset {name!r}; registered: {', '.join(sorted(registry))}"
        ) from None


def canonical_raw_label(raw: object) -> str:
    """Normalize a raw label for vocabulary lookup (string, stripped, lowercased)."""
    return str(raw).strip().lower()


def map_label(spec: DatasetSpec, raw: object) -> BinaryLabel:
    """Map one raw dataset label onto the binary scheme.

    Lookup is case-insensitive against the registry vocabulary; anything
    outside the vocabulary raises :class:`LabelMappingError` naming both
    the dataset and the offending label.
    """
    label = canonical_raw_label(raw)
    if label not in spec.vocabulary:
        raise LabelMappingError(
            f"dataset {spec.name!r}: unmapped raw label {raw!r} "
            f"(vocabulary: {', '.join(sorted(spec.vocabulary))})"
        )
    return BinaryLabel.HATE if label in spec.positives else BinaryLabel.NEUTRAL


def ingest_rows(rows: Iterable[Mapping], spec: DatasetSpec) -> Iterator[LabeledExample]:
    """Convert raw dataset rows into labeled examples.

    Rows must carry the registry entry's text and label columns; ids come
    from its id column when declared, otherwise a stable running index.
    """
    for index, row in enumerate(rows):
        try:
            text, gold = _text_and_gold(spec, row)
        except KeyError as exc:
            raise ValueError(f"dataset {spec.name!r}: row {index} missing column {exc}") from exc
        if spec.id_column is not None and spec.id_column in row:
            example_id = str(row[spec.id_column])
        else:
            example_id = f"{spec.name}-{index:06d}"
        yield LabeledExample(id=example_id, dataset=spec.name, text=text, gold=gold)


def _text_and_gold(spec: DatasetSpec, row: Mapping) -> tuple[str, BinaryLabel]:
    return str(row[spec.text_column]), map_label(spec, row[spec.label_column])


def _checked_row(spec: DatasetSpec, row: dict) -> dict:
    _text_and_gold(spec, row)
    return row


def read_dataset_file(path: str, spec: DatasetSpec, fmt: str | None = None) -> Iterator[Mapping]:
    """Yield raw rows from a CSV/TSV/JSONL dataset export (``-`` means stdin).

    Each row is checked as it is read, so a bad row raises
    ``ValueError("<file>:<line>: <reason>")``, ``<stdin>:<line>`` for stdin. A
    CSV/TSV row shorter than the header lacks its missing columns. The input is
    read as bytes (see :func:`open_input`), and its lines, ends kept, come from
    :func:`numbered_lines`, which refuses the first that is not UTF-8.
    """
    if fmt is None:
        lowered = path.lower()
        if lowered.endswith(".csv"):
            fmt = "csv"
        elif lowered.endswith(".tsv"):
            fmt = "tsv"
        else:
            fmt = "jsonl"
    if fmt in ("csv", "tsv"):
        with open_input(path) as fp:
            source = getattr(fp, "name", path)
            lines = (line for _, line in numbered_lines(fp))
            reader = csv.DictReader(lines, delimiter="\t" if fmt == "tsv" else ",")
            for row in reader:
                row = {key: value for key, value in row.items() if value is not None}
                try:
                    _text_and_gold(spec, row)
                except (KeyError, ValueError) as exc:
                    raise decode_error(f"{source}:{reader.line_num}", exc) from exc
                yield row
    elif fmt == "jsonl":
        with open_input(path) as fp:
            yield from iter_jsonl(fp, lambda row: _checked_row(spec, row))
    else:
        raise ValueError(f"unknown dataset format {fmt!r}")


# The seven-dataset pool that metrics.default_groups scores as "SevenSet"
# (its complement is "Rest"); an explicit curated list, not derived.
SEVEN_SET = (
    "HateXplain",
    "Sexism",
    "Covid",
    "US_election",
    "GermEval21",
    "GermEval19",
    "ViHSD",
)
