import json

import pytest

from hatepool import (
    BinaryLabel,
    LabeledExample,
    LabelMappingError,
    UnknownDatasetError,
    load_registry,
    map_label,
)
from hatepool.datasets import DatasetSpec, get_dataset_spec, ingest_rows

REGISTRY = load_registry()


class TestRegistry:
    def test_sixteen_datasets(self):
        assert len(REGISTRY) == 16

    def test_languages(self):
        by_lang = {}
        for spec in REGISTRY.values():
            by_lang.setdefault(spec.language, []).append(spec.name)
        assert len(by_lang["eng"]) == 7
        assert len(by_lang["deu"]) == 5
        assert len(by_lang["spa"]) == 3
        assert len(by_lang["vie"]) == 1

    def test_positives_are_subset_of_vocabulary(self):
        for spec in REGISTRY.values():
            assert spec.positives <= spec.vocabulary
            assert spec.positives < spec.vocabulary  # some label maps to Neutral

    def test_unknown_dataset_is_a_named_error(self):
        with pytest.raises(UnknownDatasetError, match="Nope"):
            get_dataset_spec("Nope", REGISTRY)

    def test_custom_registry_file(self, tmp_path):
        path = tmp_path / "registry.json"
        path.write_text(
            json.dumps(
                {"Tiny": {"language": "eng", "vocabulary": ["a", "b"], "positives": ["a"]}}
            ),
            encoding="utf-8",
        )
        registry = load_registry(str(path))
        assert map_label(registry["Tiny"], "a") is BinaryLabel.HATE

    def test_positives_outside_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            DatasetSpec(
                name="Bad",
                language="eng",
                vocabulary=frozenset({"x"}),
                positives=frozenset({"y"}),
            )


class TestMapLabel:
    @pytest.mark.parametrize(
        "dataset,raw,expected",
        [
            ("AHSD", "offensive", BinaryLabel.HATE),
            ("AHSD", "hate", BinaryLabel.HATE),
            ("AHSD", "neither", BinaryLabel.NEUTRAL),
            ("HateXplain", "hatespeech", BinaryLabel.HATE),
            ("HateXplain", "normal", BinaryLabel.NEUTRAL),
            ("AbusEval", "implicit abusive", BinaryLabel.HATE),
            ("AbusEval", "explicit abusive", BinaryLabel.HATE),
            ("AbusEval", "not abusive", BinaryLabel.NEUTRAL),
            ("GermEval18", "OTHER", BinaryLabel.NEUTRAL),
            ("GermEval18", "OFFENSE", BinaryLabel.HATE),
            ("Sexism", "sexist", BinaryLabel.HATE),
            ("Sexism", "not sexist", BinaryLabel.NEUTRAL),
            ("Covid", "counterhate", BinaryLabel.NEUTRAL),
            ("Covid", "hate", BinaryLabel.HATE),
            ("US_election", "hateful", BinaryLabel.HATE),
            ("HASOC", "HOF", BinaryLabel.HATE),
            ("HASOC", "NOT", BinaryLabel.NEUTRAL),
            ("GermEval21", "toxic", BinaryLabel.HATE),
            ("ViHSD", "clean", BinaryLabel.NEUTRAL),
            ("ViHSD", "offensive", BinaryLabel.HATE),
            ("HateEval-eng", 1, BinaryLabel.HATE),
            ("HateEval-eng", 0, BinaryLabel.NEUTRAL),
            ("Haternet", "1", BinaryLabel.HATE),
            ("Gahd", " 1 ", BinaryLabel.HATE),
            ("Chileno", "0", BinaryLabel.NEUTRAL),
        ],
    )
    def test_mapping_total_over_vocabularies(self, dataset, raw, expected):
        assert map_label(get_dataset_spec(dataset, REGISTRY), raw) is expected

    def test_unmapped_label_names_dataset_and_label(self):
        with pytest.raises(LabelMappingError) as err:
            map_label(get_dataset_spec("AHSD", REGISTRY), "sarcastic")
        assert "AHSD" in str(err.value)
        assert "sarcastic" in str(err.value)

    def test_every_vocabulary_entry_maps(self):
        for spec in REGISTRY.values():
            for raw in spec.vocabulary:
                assert map_label(spec, raw) in (BinaryLabel.HATE, BinaryLabel.NEUTRAL)


class TestIngestRows:
    def test_rows_map_and_get_stable_ids(self):
        spec = get_dataset_spec("AHSD", REGISTRY)
        rows = [
            {"tweet": "first", "class": "hate"},
            {"tweet": "second", "class": "neither"},
        ]
        examples = list(ingest_rows(rows, spec))
        assert [e.gold for e in examples] == [BinaryLabel.HATE, BinaryLabel.NEUTRAL]
        assert [e.id for e in examples] == ["AHSD-000000", "AHSD-000001"]
        assert examples[0].dataset == "AHSD"

    def test_declared_id_column_wins(self):
        spec = get_dataset_spec("Sexism", REGISTRY)
        rows = [{"text": "x", "label_sexist": "sexist", "rewire_id": "sx-9"}]
        (example,) = ingest_rows(rows, spec)
        assert example.id == "sx-9"

    def test_missing_column_is_an_error(self):
        spec = get_dataset_spec("AHSD", REGISTRY)
        with pytest.raises(ValueError, match="missing column"):
            list(ingest_rows([{"text": "no tweet column"}], spec))

    def test_roundtrip_through_dict(self):
        example = LabeledExample(id="a", dataset="Covid", text="t", gold=BinaryLabel.HATE)
        assert LabeledExample.from_dict(example.to_dict()) == example
