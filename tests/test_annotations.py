"""The chunked annotation reader gives what the one-row library reader gives."""

import io
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hatepool import ensemble, read_annotations
from hatepool._jsonl import dumps
from hatepool.annotations import read_annotation_chunks
from hatepool.ensemble import features_matrix

from conftest import MODEL_IDS

SUBNORMALS = st.floats(min_value=5e-324, max_value=2.0**-1022, exclude_max=True)
ABSENT = object()  # a field left out of the row


@st.composite
def probability_pairs(draw):
    """(hate, neutral) as JSON gives them: integers, subnormals and floats near a sum of 1."""
    kind = draw(st.sampled_from(["int", "subnormal", "float", "off"]))
    if kind == "int":
        hate = draw(st.sampled_from([0, 1]))
        return hate, draw(st.sampled_from([1 - hate, float(1 - hate)]))
    if kind == "subnormal":
        tiny = draw(SUBNORMALS)
        return draw(st.permutations([tiny, 1.0]))
    hate = draw(st.floats(0.0, 1.0))
    if kind == "float":
        return hate, 1.0 - hate
    return hate, min(max(1.0 - hate + draw(st.floats(-5e-10, 5e-10)), 0.0), 1.0)


@st.composite
def annotation_files(draw):
    """An annotation file's text and the ids, langs, raw labels and features in it."""
    header = draw(st.permutations(MODEL_IDS))
    ids = draw(st.lists(st.text(min_size=1, max_size=6), max_size=14, unique=True))
    lines = [dumps({"model_order": header})]
    langs, raw_labels, features = [], [], []
    for text_id in ids:
        pairs = {m: draw(probability_pairs()) for m in draw(st.permutations(MODEL_IDS))}
        models = {}
        for m, (hate, neutral) in pairs.items():
            models[m] = {"hate": hate, "neutral": neutral}
            raw = draw(st.sampled_from([ABSENT, {}, {"1": 0.25}, [["2", 0.5]]]))
            if raw is not ABSENT:
                models[m]["raw"] = raw
        row = {"id": text_id, "models": models}
        for key, values in (("lang", langs), ("raw_label", raw_labels)):
            value = draw(st.sampled_from([ABSENT, None, "eng", "Hate"]))
            if value is not ABSENT:
                row[key] = value
            values.append(None if value is ABSENT else value)
        lines.append(dumps(row))
        features.append([float(p) for m in sorted(MODEL_IDS) for p in pairs[m]])
    text = "\n".join(lines) + "\n"
    return text, list(header), ids, langs, raw_labels, features


def read_in_chunks(text, chunk_rows):
    """The reader's header and chunks of ``chunk_rows`` rows, every chunk's size checked."""
    with mock.patch.object(ensemble, "CHUNK_ROWS", chunk_rows):
        model_order, chunks = read_annotation_chunks(io.StringIO(text))
        chunks = list(chunks)
    assert all(len(chunk.ids) == chunk_rows for chunk in chunks[:-1])
    assert all(0 < len(chunk.ids) <= chunk_rows for chunk in chunks[-1:])
    return model_order, chunks


@given(annotation_files(), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_chunks_equal_the_library_reader(file, chunk_rows):
    text, header, ids, langs, raw_labels, features = file
    model_order, chunks = read_in_chunks(text, chunk_rows)
    library_order, rows = read_annotations(io.StringIO(text))
    rows = list(rows)
    matrix = features_matrix([row.vector for row in rows])

    chunk_rows_read = [row for chunk in chunks for row in chunk.rows]
    assert model_order == library_order == header
    assert [i for chunk in chunks for i in chunk.ids] == [row.id for row in rows] == ids
    assert [lang for chunk in chunks for lang in chunk.langs] == [row.lang for row in rows] == langs
    assert [label for chunk in chunks for label in chunk.raw_labels] == [
        row.raw_label for row in rows
    ] == raw_labels
    # Bit for bit: the same doubles, subnormals and signed zeros included.
    as_array = np.array(chunk_rows_read, dtype=np.float64).reshape(-1, 8)
    assert as_array.tobytes() == matrix.tobytes() == np.array(features).reshape(-1, 8).tobytes()
    assert all(type(p) is float and math.isfinite(p) for row in chunk_rows_read for p in row)


def test_a_file_of_only_a_header_has_no_chunks():
    text = dumps({"model_order": list(MODEL_IDS)}) + "\n"
    model_order, chunks = read_annotation_chunks(io.StringIO(text))
    assert model_order == list(MODEL_IDS)
    assert list(chunks) == []
