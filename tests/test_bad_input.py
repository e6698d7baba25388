"""Every JSONL-reading command turns one bad row into exit 2 naming its file and line.

Each case starts from a small valid input, corrupts one field of one row
(or the whole row), runs the command in-process and checks: exit code 2,
no output file committed, and ``<path>:<line>`` (plus the row's id, when it
has one) in the logged error, which the CLI writes to stderr.
"""

import copy
import io
import json
import logging
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hatepool import ensemble, filtering
from hatepool._jsonl import dumps, numbered_lines
from hatepool.cli import main

from conftest import MODEL_IDS, piped, strict_error

ROOT = Path(__file__).resolve().parent.parent

NON_OBJECTS = st.sampled_from([[], ["id", "text"], "row", 5, 0.5, None, True])
BAD_NUMBERS = (
    st.sampled_from(
        [math.nan, math.inf, -math.inf, 10**400, "abc", "", "0.5", None, True, False, [0.5],
         {"p": 0.5}]
    )
    | st.floats(min_value=1.0, exclude_min=True, allow_nan=False)
    | st.floats(max_value=-5e-324, allow_nan=False)
)
BAD_LABELS = st.sampled_from(["hate", "HATE", "yes", "", 5, 1.5, math.nan, math.inf, None, []])
NOT_ITERABLE = st.sampled_from([5, 2.5, math.nan, math.inf, None, True])
NOT_TEXT = st.sampled_from([None, 5, 2.5])


def drop(*keys):
    return st.sampled_from(keys).map(
        lambda key: lambda row: {k: v for k, v in row.items() if k != key}
    )


def set_field(key, values):
    return values.map(lambda value: lambda row: {**row, key: value})


def replace_row(values):
    return values.map(lambda value: lambda row: value)


def in_model(edit):
    """Apply ``edit`` to one model's entry in an annotation row."""

    def build(model_and_value):
        model, change = model_and_value

        def corrupt(row):
            row = copy.deepcopy(row)
            row["models"][model] = change(row["models"][model])
            return row

        return corrupt

    return st.tuples(st.sampled_from(MODEL_IDS), edit).map(build)


def model_entry(p):
    return {"hate": p, "neutral": 1.0 - p, "raw": {"1": p, "2": 1.0 - p}}


def with_models(change):
    def corrupt(row):
        row = copy.deepcopy(row)
        change(row["models"])
        return row

    return corrupt


WRONG_MODEL_SET = st.sampled_from(
    [
        with_models(lambda models: models.pop(MODEL_IDS[1])),
        with_models(lambda models: models.update({"Extra-3B": model_entry(0.5)})),
        with_models(lambda models: models.update({"Other-1B": models.pop(MODEL_IDS[0])})),
    ]
)


@dataclass(frozen=True)
class FileKind:
    """Valid rows of one JSONL file kind and the corruptions its reader must refuse."""

    name: str
    rows: tuple
    corruptions: object  # row index -> strategy of functions from row to corrupted row


WEB = FileKind(
    name="web.jsonl",
    rows=tuple(
        {"id": f"w{i}", "url": f"https://ex.org/forum/{i}", "lang": "eng",
         "schema_types": ["Comment"], "text": f"comment {i}"}
        for i in range(4)
    ),
    corruptions=lambda index: (
        drop("id", "url", "lang", "schema_types", "text")
        | set_field("id", NOT_TEXT)
        | set_field("url", NOT_TEXT)
        | set_field("schema_types", NOT_ITERABLE)
        | set_field("schema_types", st.sampled_from(["Comment", "", ["Comment", 5]]))
        | set_field("text", NOT_TEXT)
        | replace_row(NON_OBJECTS)
    ),
)

TEXTS = FileKind(
    name="texts.jsonl",
    rows=tuple({"id": f"t{i}", "text": f"some text {i}", "lang": "eng"} for i in range(4)),
    corruptions=lambda index: (
        drop("id", "text")
        | set_field("id", NOT_TEXT)
        | set_field("text", NOT_TEXT | st.just(""))
        | set_field("id", st.just("t0") if index else st.nothing())
        | replace_row(NON_OBJECTS)
    ),
)

LABELS = FileKind(
    name="labels.jsonl",
    rows=tuple(
        {"id": f"a{i}", "dataset": "AHSD", "text": f"text {i}",
         "gold": "Hate" if i % 2 else "Neutral"}
        for i in range(4)
    ),
    corruptions=lambda index: (
        drop("id", "dataset", "text", "gold")
        | set_field("id", NOT_TEXT)
        | set_field("dataset", NOT_TEXT)
        | set_field("text", NOT_TEXT)
        | set_field("gold", BAD_LABELS)
        | set_field("id", st.just("a0") if index else st.nothing())
        | replace_row(NON_OBJECTS)
    ),
)

ANNOTATIONS = FileKind(
    name="ann.jsonl",
    rows=(
        {"model_order": sorted(MODEL_IDS)},
        *(
            {"id": f"a{i}", "lang": "eng", "raw_label": "Hate",
             "models": {m: model_entry(p) for m, p in zip(MODEL_IDS, (0.25, 0.625, 0.75, 0.5))}}
            for i in range(4)
        ),
    ),
    corruptions=lambda index: (
        drop("model_order")
        | set_field("model_order", NOT_ITERABLE)
        | replace_row(NON_OBJECTS)
        if index == 0
        else drop("id", "models")
        | set_field("models", st.sampled_from([5, None, math.nan, "abcd", list(MODEL_IDS)]))
        | in_model(st.sampled_from([5, "x", None, [], math.inf]).map(lambda v: lambda e: v))
        | in_model(st.sampled_from(["hate", "neutral"]).map(
            lambda key: lambda e: {k: v for k, v in e.items() if k != key}))
        | in_model(st.tuples(st.sampled_from(["hate", "neutral"]), BAD_NUMBERS).map(
            lambda kv: lambda e: {**e, kv[0]: kv[1]}))
        | in_model(st.floats(0.0, 1.0).filter(lambda h: abs(h - 0.5) > 1e-6).map(
            lambda h: lambda e: {**e, "hate": h, "neutral": 0.5}))
        | in_model(st.sampled_from([5, None, 2.5, "ab"]).map(lambda v: lambda e: {**e, "raw": v}))
        | WRONG_MODEL_SET
        | replace_row(NON_OBJECTS)
    ),
)

PREDICTIONS = FileKind(
    name="pred.jsonl",
    rows=tuple(
        {"id": f"a{i}", "lang": "eng", "strategy": "mean", "label": "Hate",
         "score_hate": 0.2 * (i + 1), "dataset": "AHSD", "gold": "Hate" if i % 2 else "Neutral"}
        for i in range(4)
    ),
    corruptions=lambda index: (
        drop("id", "dataset", "score_hate", "gold")
        | set_field("id", NOT_TEXT)
        | set_field("dataset", NOT_TEXT)
        | set_field("score_hate", BAD_NUMBERS)
        | set_field("gold", BAD_LABELS)
        | replace_row(NON_OBJECTS)
    ),
)

EXPORT = FileKind(
    name="export.jsonl",
    rows=tuple({"text": f"post {i}", "label": "hate" if i % 2 else "normal"} for i in range(4)),
    corruptions=lambda index: (
        drop("text", "label")
        | set_field("label", st.sampled_from(["sarcastic", "", 5, 1.5, math.nan, None, []]))
        | replace_row(NON_OBJECTS)
    ),
)

ENDPOINTS = {"endpoints": [{"model_id": m, "base_url": "http://127.0.0.1:9/v1"} for m in MODEL_IDS]}


@dataclass(frozen=True)
class Case:
    """A command, the file kind it gets corrupted, and the valid inputs it needs besides."""

    id: str
    argv: tuple  # "{name}" is replaced by that file's path in the run directory
    target: FileKind
    valid: tuple = ()


CASES = [
    Case("filter", ("filter", "--input", "{web.jsonl}", "--output", "{kept.jsonl}",
                    "--stats", "{stats.json}"), WEB),
    Case("annotate", ("annotate", "--input", "{texts.jsonl}", "--output", "{out.jsonl}",
                      "--endpoints", "{endpoints.json}"), TEXTS),
    Case("train-meta-labels", ("train-meta", "--annotations", "{ann.jsonl}", "--labels",
                               "{labels.jsonl}", "--model-out", "{model.json}"),
         LABELS, (ANNOTATIONS,)),
    Case("train-meta-annotations", ("train-meta", "--annotations", "{ann.jsonl}", "--labels",
                                    "{labels.jsonl}", "--model-out", "{model.json}"),
         ANNOTATIONS, (LABELS,)),
    Case("ensemble", ("ensemble", "--annotations", "{ann.jsonl}", "--strategy", "vote",
                      "--output", "{out.jsonl}"), ANNOTATIONS),
    Case("ensemble-labels", ("ensemble", "--annotations", "{ann.jsonl}", "--strategy", "mean",
                             "--labels", "{labels.jsonl}", "--output", "{out.jsonl}"),
         LABELS, (ANNOTATIONS,)),
    Case("evaluate", ("evaluate", "--predictions", "{pred.jsonl}", "--report", "{report.json}"),
         PREDICTIONS),
    Case("stats", ("stats", "--annotations", "{ann.jsonl}", "--output", "{summary.json}"),
         ANNOTATIONS),
    Case("ingest", ("ingest", "--dataset", "HateXplain", "--format", "jsonl", "--input",
                    "{export.jsonl}", "--output", "{out.jsonl}"), EXPORT),
]


def write_lines(path, rows):
    """One row per line, with a blank line after the first row so that blanks count."""
    lines = [dumps(row) for row in rows]
    lines.insert(1, "")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def lineno_of(index):
    return index + 1 if index == 0 else index + 2


def run(argv, directory):
    args = []
    for arg in argv:
        if arg.startswith("{"):
            arg = os.path.join(directory, arg[1:-1])
        args.append(arg)
    return main(args)


def assert_refused(code, directory, inputs, messages, path, index, bad_row):
    assert code == 2, messages
    assert sorted(os.listdir(directory)) == sorted(inputs), "an output file was committed"
    assert len(messages) == 1, messages
    where = f"{path}:{lineno_of(index)}"
    assert where + ":" in messages[0] or where + " (id" in messages[0], messages[0]
    if isinstance(bad_row, dict) and "id" in bad_row:
        assert f"{where} (id {bad_row['id']!r}): " in messages[0]


@pytest.mark.parametrize("case", CASES, ids=[c.id for c in CASES])
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_one_corrupt_row_exits_2_naming_its_line(case, data, caplog):
    target = case.target
    index = data.draw(st.integers(0, len(target.rows) - 1), label="row")
    corrupt = data.draw(target.corruptions(index), label="corruption")
    rows = list(copy.deepcopy(target.rows))
    rows[index] = bad_row = corrupt(rows[index])
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, target.name)
        write_lines(Path(path), rows)
        for kind in case.valid:
            write_lines(Path(directory, kind.name), kind.rows)
        Path(directory, "endpoints.json").write_text(json.dumps(ENDPOINTS))
        inputs = os.listdir(directory)
        caplog.clear()
        code = run(case.argv, directory)
        messages = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert_refused(code, directory, inputs, messages, path, index, bad_row)


DEEP_ARRAY = "[" * 5000 + "]" * 5000


def with_extra_field(row, text=DEEP_ARRAY):
    """The JSON text of ``row`` with one more field holding ``text`` (a 5,000-deep array)."""
    return dumps(row)[:-1] + ',"extra":' + text + "}"


def refused_with_extra_field(case, text, directory, caplog):
    """Run ``case`` with ``text`` added to its file's third line; the path and the errors.

    The command must exit 2 and commit no output file.
    """
    rows = [dumps(row) for row in case.target.rows]
    rows[2] = with_extra_field(case.target.rows[2], text)
    path = directory / case.target.name
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    for kind in case.valid:
        write_lines(directory / kind.name, kind.rows)
    (directory / "endpoints.json").write_text(json.dumps(ENDPOINTS))
    inputs = os.listdir(directory)
    code = run(case.argv, str(directory))
    messages = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert code == 2, messages
    assert sorted(os.listdir(directory)) == sorted(inputs), "an output file was committed"
    return path, messages


@pytest.mark.parametrize("case", [c for c in CASES if c.id != "filter"],
                         ids=[c.id for c in CASES if c.id != "filter"])
def test_row_nested_too_deeply_exits_2_naming_its_line(case, tmp_path, caplog):
    # json raised RecursionError: a traceback and exit 1.
    path, messages = refused_with_extra_field(case, DEEP_ARRAY, tmp_path, caplog)
    assert messages == [f"{path}:3: invalid JSON: nested too deeply"]


# More digits than int() reads from text (sys.get_int_max_str_digits(), 4,300).
LONG_INTEGER = "1" + "0" * 5000


@pytest.mark.parametrize("case", [c for c in CASES if c.id != "filter"],
                         ids=[c.id for c in CASES if c.id != "filter"])
def test_integer_too_long_to_read_exits_2_naming_its_line(case, tmp_path, caplog):
    # json raised a bare ValueError, which named neither the file nor the line.
    path, messages = refused_with_extra_field(case, LONG_INTEGER, tmp_path, caplog)
    assert len(messages) == 1 and messages[0].startswith(f"{path}:3: invalid JSON: "), messages


def test_filter_skips_an_integer_too_long_to_read(tmp_path):
    # The bare ValueError stopped filter with exit 2 instead of skipping the line.
    rows = [dumps(row) for row in WEB.rows]
    rows[1] = with_extra_field(WEB.rows[1], LONG_INTEGER)
    path = tmp_path / WEB.name
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    kept, stats = tmp_path / "kept.jsonl", tmp_path / "stats.json"
    assert main(["filter", "--input", str(path), "--output", str(kept),
                 "--stats", str(stats)]) == 0
    assert [json.loads(line)["id"] for line in kept.read_text().splitlines()] == ["w0", "w2", "w3"]
    assert json.loads(stats.read_text())["malformed_lines"] == 1


def test_filter_skips_a_line_with_a_space_json_does_not_allow(tmp_path, caplog):
    # Stripped with str.strip(), the first line was read as its record and the second
    # skipped as blank; a no-break space is not JSON whitespace.
    rows = [dumps(row) for row in WEB.rows]
    rows[1] = "\xa0" + rows[1]
    rows[2] = "\xa0"
    path = tmp_path / WEB.name
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    kept, stats = tmp_path / "kept.jsonl", tmp_path / "stats.json"
    with caplog.at_level(logging.WARNING, logger="hatepool"):
        assert main(["filter", "--input", str(path), "--output", str(kept),
                     "--stats", str(stats)]) == 0
    assert [json.loads(line)["id"] for line in kept.read_text().splitlines()] == ["w0", "w3"]
    counts = json.loads(stats.read_text())
    assert (counts["malformed_lines"], counts["records_seen"]) == (2, 2)
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == [
        f"{path}:{line}: invalid JSON: Expecting value: line 1 column 1 (char 0); skipped"
        for line in (2, 3)
    ]


def test_filter_skips_a_row_nested_too_deeply(tmp_path):
    # Like any line that is not valid JSON, the row is skipped and counted.
    rows = [dumps(row) for row in WEB.rows]
    rows[1] = with_extra_field(WEB.rows[1])
    path = tmp_path / WEB.name
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    kept, stats = tmp_path / "kept.jsonl", tmp_path / "stats.json"
    assert main(["filter", "--input", str(path), "--output", str(kept),
                 "--stats", str(stats)]) == 0
    assert [json.loads(line)["id"] for line in kept.read_text().splitlines()] == ["w0", "w2", "w3"]
    counts = json.loads(stats.read_text())
    assert (counts["malformed_lines"], counts["records_seen"], counts["written"]) == (1, 3, 3)


def test_filter_warning_names_the_file_the_line_and_the_reason(tmp_path, caplog):
    # The warning read "input line N is not valid JSON; skipped" for both rows.
    rows = [dumps(row) for row in WEB.rows]
    rows[1] = with_extra_field(WEB.rows[1])
    rows[2] = "{oops"
    path = tmp_path / WEB.name
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    kept, stats = tmp_path / "kept.jsonl", tmp_path / "stats.json"
    with caplog.at_level(logging.WARNING, logger="hatepool"):
        assert main(["filter", "--input", str(path), "--output", str(kept),
                     "--stats", str(stats)]) == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == [
        f"{path}:2: invalid JSON: nested too deeply; skipped",
        f"{path}:3: invalid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1); skipped",
    ]
    assert json.loads(stats.read_text())["malformed_lines"] == 2


@pytest.mark.parametrize(
    "case_id, field",
    [("annotate", "id"), ("ensemble-labels", "id"), ("ensemble-labels", "dataset"),
     ("ensemble-labels", "text"), ("evaluate", "id"), ("evaluate", "dataset")],
)
def test_null_string_field_names_its_line(case_id, field, tmp_path, caplog):
    # Read with str(), null became the id, dataset or text "None": the command exited 0,
    # or for annotate went on to send the text.
    case = next(c for c in CASES if c.id == case_id)
    rows = [dict(row) for row in case.target.rows]
    rows[2][field] = None
    path = tmp_path / case.target.name
    write_lines(path, rows)
    for kind in case.valid:
        write_lines(tmp_path / kind.name, kind.rows)
    (tmp_path / "endpoints.json").write_text(json.dumps(ENDPOINTS))
    inputs = os.listdir(tmp_path)
    code = run(case.argv, str(tmp_path))
    messages = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert_refused(code, str(tmp_path), inputs, messages, str(path), 2, rows[2])
    assert f"{field} must be a string, got None" in messages[0]


@pytest.mark.parametrize(
    "case_id, field",
    [("annotate", "text"), ("train-meta-labels", "text"), ("train-meta-annotations", "lang"),
     ("ensemble", "lang"), ("ensemble-labels", "dataset"), ("evaluate", "dataset"),
     ("stats", "lang"), ("ingest", "text")],
)
def test_lone_surrogate_is_invalid_json_naming_its_line(case_id, field, tmp_path, caplog):
    # json read "\ud800" into a str that cannot be written as UTF-8: a command that
    # wrote it back exited 2 naming no file or line, and the others exited 0.
    case = next(c for c in CASES if c.id == case_id)
    lines = [dumps(row) for row in case.target.rows]
    lines[2] = json.dumps({**case.target.rows[2], field: "\ud800"})  # ASCII, so "\\ud800"
    path = tmp_path / case.target.name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for kind in case.valid:
        write_lines(tmp_path / kind.name, kind.rows)
    (tmp_path / "endpoints.json").write_text(json.dumps(ENDPOINTS))
    inputs = os.listdir(tmp_path)
    code = run(case.argv, str(tmp_path))
    messages = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert code == 2, messages
    assert sorted(os.listdir(tmp_path)) == sorted(inputs), "an output file was committed"
    assert messages == [f"{path}:3: invalid JSON: lone surrogate \\ud800"]


GOOD_MODELS = {m: model_entry(0.5) for m in "abcd"}

# Inputs that exited 1 with a traceback, or exited 2 without naming the line.
ANNOTATION_CASES = {
    "raw-is-a-number": {"id": "t3", "models": {**GOOD_MODELS, "b": {**model_entry(0.5), "raw": 5}}},
    "model-entry-is-a-number": {"id": "t3", "models": {"a": 5, "b": 5, "c": 5, "d": 5}},
    "models-is-a-string": {"id": "t3", "models": "abcd"},
    "hate-missing": {"id": "t3", "models": {**GOOD_MODELS, "c": {"neutral": 0.5}}},
    "hate-is-text": {"id": "t3", "models": {**GOOD_MODELS, "c": {**model_entry(0.5), "hate": "abc"}}},
    "hate-is-nan": {"id": "t3", "models": {**GOOD_MODELS, "c": {**model_entry(0.5), "hate": math.nan}}},
    "hate-is-infinite": {"id": "t3", "models": {
        **GOOD_MODELS, "c": {**model_entry(0.5), "hate": math.inf}}},
    # float() raised OverflowError: a traceback and exit 1.
    "hate-is-huge": {"id": "t3", "models": {
        **GOOD_MODELS, "c": {**model_entry(0.5), "hate": 10**400}}},
    "probabilities-are-bools": {"id": "t3", "models": {
        **GOOD_MODELS, "c": {**model_entry(0.5), "hate": True, "neutral": False}}},
    # Read untyped, these reached the predictions verbatim and ``stats`` as "['x']".
    "lang-is-a-list": {"id": "t3", "lang": ["x"], "models": GOOD_MODELS},
    "lang-is-an-object": {"id": "t3", "lang": {"k": 1}, "models": GOOD_MODELS},
    "lang-is-a-number": {"id": "t3", "lang": 5, "models": GOOD_MODELS},
    # Read with str(), these were the id "None" and the raw label "['x']".
    "id-is-null": {"id": None, "models": GOOD_MODELS},
    "id-is-a-number": {"id": 3, "models": GOOD_MODELS},
    "raw-label-is-a-list": {"id": "t3", "raw_label": ["x"], "models": GOOD_MODELS},
    "raw-label-is-a-number": {"id": "t3", "raw_label": 1, "models": GOOD_MODELS},
}

# The reason each of these cases must give; the range check named p_hate, not the field.
ANNOTATION_REASONS = {
    "hate-is-nan": "c hate must be finite, got nan",
    "hate-is-infinite": "c hate must be finite, got inf",
    "hate-is-huge": "c hate must be finite, got an integer of 401 digits",
}


def write_annotations_with(path, line5=None, header=None):
    lines = [dumps(header if header is not None else {"model_order": list("abcd")})]
    lines += [dumps({"id": f"t{i}", "lang": "eng", "models": GOOD_MODELS}) for i in range(6)]
    if line5 is not None:
        lines[4] = dumps(line5)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("name", sorted(ANNOTATION_CASES))
def test_annotation_row_error_names_file_line_and_id(name, tmp_path, caplog):
    row = ANNOTATION_CASES[name]
    path = write_annotations_with(tmp_path / "ann.jsonl", line5=row)
    out = tmp_path / "pred.jsonl"
    assert main(["ensemble", "--annotations", path, "--strategy", "mean", "--output", str(out)]) == 2
    assert not out.exists()
    assert f"{path}:5 (id {row['id']!r}): {ANNOTATION_REASONS.get(name, '')}" in caplog.text


# score_hate values that exited 1 with a traceback (the integer, in float()),
# or exited 2 naming the range, not the field: (value, reason).
PREDICTION_CASES = {
    "score-is-nan": (math.nan, "score_hate must be finite, got nan"),
    "score-is-infinite": (math.inf, "score_hate must be finite, got inf"),
    "score-is-huge": (10**400, "score_hate must be finite, got an integer of 401 digits"),
}


@pytest.mark.parametrize("name", sorted(PREDICTION_CASES))
def test_prediction_score_error_names_file_line_and_id(name, tmp_path, caplog):
    value, reason = PREDICTION_CASES[name]
    rows = [dict(row) for row in PREDICTIONS.rows]
    rows[2]["score_hate"] = value
    path = tmp_path / PREDICTIONS.name
    write_lines(path, rows)
    report = tmp_path / "report.json"
    assert main(["evaluate", "--predictions", str(path), "--report", str(report)]) == 2
    assert not report.exists()
    messages = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert messages == [f"{path}:4 (id 'a2'): {reason}"]


def test_header_that_is_not_a_list_names_line_1(tmp_path, caplog):
    path = write_annotations_with(tmp_path / "ann.jsonl", header={"model_order": 5})
    out = tmp_path / "pred.jsonl"
    assert main(["ensemble", "--annotations", path, "--strategy", "vote", "--output", str(out)]) == 2
    assert not out.exists()
    assert f"{path}:1: " in caplog.text


def test_header_that_is_a_string_names_line_1(tmp_path, caplog):
    # Read as a sequence, "abcd" would name the models a, b, c and d.
    path = write_annotations_with(tmp_path / "ann.jsonl", header={"model_order": "abcd"})
    out = tmp_path / "pred.jsonl"
    assert main(["ensemble", "--annotations", path, "--strategy", "vote", "--output", str(out)]) == 2
    assert not out.exists()
    assert f"{path}:1: model_order must be a list of strings" in caplog.text


@pytest.mark.parametrize("command", ["ensemble", "stats"])
@pytest.mark.parametrize("n_rows", [0, 1])
def test_header_of_the_wrong_ensemble_size_names_line_1(command, n_rows, tmp_path, caplog):
    # The size was checked on each row: a header of three models with no row after it
    # read as an empty pool, and with one row the error named that row.
    models = {m: model_entry(0.5) for m in "abc"}
    lines = [dumps({"model_order": list("abc")})]
    lines += [dumps({"id": "x", "models": models})] * n_rows
    path = tmp_path / "h.jsonl"
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.json"
    argv = {"ensemble": ["ensemble", "--strategy", "vote"], "stats": ["stats"]}[command]
    assert main([*argv, "--annotations", str(path), "--output", str(out)]) == 2
    assert not out.exists()
    messages = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert messages == [f"{path}:1: expected 4 model entries, got 3"]


# Fields of an annotate input row that are copied into the annotation file. Written
# with str(), each became the Python text of its value, such as "{'k': 1}" or "False".
ANNOTATE_FIELDS = {
    "lang-is-an-object": ("lang", {"k": 1}),
    "lang-is-a-list": ("lang", ["x"]),
    "lang-is-a-number": ("lang", 5),
    "raw-label-is-a-list": ("raw_label", ["x"]),
    "gold-is-a-bool": ("gold", False),
}


@pytest.mark.parametrize("name", sorted(ANNOTATE_FIELDS))
def test_annotate_field_that_is_not_a_string_names_its_line(name, tmp_path, caplog):
    field, value = ANNOTATE_FIELDS[name]
    case = next(c for c in CASES if c.id == "annotate")
    rows = [dict(row) for row in case.target.rows]
    rows[2][field] = value
    path = tmp_path / case.target.name
    write_lines(path, rows)
    (tmp_path / "endpoints.json").write_text(json.dumps(ENDPOINTS))
    inputs = os.listdir(tmp_path)
    code = run(case.argv, str(tmp_path))
    messages = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert_refused(code, str(tmp_path), inputs, messages, str(path), 2, rows[2])
    assert messages[0].endswith(must_be(field, value, "a string or null"))


@pytest.mark.parametrize("command", ["evaluate", "train-meta"])
def test_json_array_row_is_a_data_error(command, tmp_path, caplog):
    rows = [
        dumps({"id": "a0", "dataset": "AHSD", "text": "x", "score_hate": 0.5, "gold": "Hate"}),
        dumps(["a1", "AHSD", "y", 0.5, "Neutral"]),
    ]
    path = tmp_path / "rows.jsonl"
    path.write_text("\n".join(rows) + "\n")
    if command == "evaluate":
        argv = ["evaluate", "--predictions", str(path), "--report", str(tmp_path / "r.json")]
    else:
        ann = write_annotations_with(tmp_path / "ann.jsonl")
        argv = ["train-meta", "--annotations", ann, "--labels", str(path),
                "--model-out", str(tmp_path / "m.json")]
    assert main(argv) == 2
    assert f"{path}:2: not a JSON object" in caplog.text
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "m.json").exists()


def run_module(argv, **kwargs):
    """``python -m hatepool.cli argv`` in a new process with this checkout's ``src``
    first on its path, its output captured."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, "-m", "hatepool.cli", *argv], env=env,
                          capture_output=True, timeout=60, **kwargs)


def test_stderr_names_file_line_and_id(tmp_path):
    path = write_annotations_with(tmp_path / "ann.jsonl", line5=ANNOTATION_CASES["raw-is-a-number"])
    proc = run_module(["ensemble", "--annotations", path, "--strategy", "mean",
                       "--output", str(tmp_path / "pred.jsonl")], text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        f"ERROR hatepool: {path}:5 (id 't3'): 'int' object is not iterable\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ann.jsonl"]


def endpoints_with(index=0, /, **fields):
    """The valid endpoints config with ``fields`` set on endpoint ``index``."""
    config = copy.deepcopy(ENDPOINTS)
    config["endpoints"][index].update(fields)
    return config


class Raw(str):
    """Config file text written as it is, not JSON-encoded."""


FEATURES = [f"{m}:{c}" for m in sorted(MODEL_IDS) for c in ("hate", "neutral")]


TREE = {"feature_index": 2, "threshold": 0.5, "left": {"value": 0.1}, "right": {"value": -0.1}}


def model_with(**fields):
    """A valid model file with ``fields`` replaced."""
    return {"config": {}, "feature_order": FEATURES, "heads": ["hate", "neutral"],
            "base_scores": [0.0, 0.0], "trees": [[], []], **fields}


def model_with_tree(**fields):
    """A valid model file whose one Hate-head tree has ``fields`` replaced."""
    return model_with(trees=[[{**TREE, **fields}], []])


def registry_with(**fields):
    """A registry whose one entry, HateXplain, has ``fields`` set."""
    entry = {"language": "eng", "vocabulary": ["hate", "normal"], "positives": ["hate"]}
    return {"HateXplain": {**entry, **fields}}


def baseline_with(**sections):
    """A baseline report with ``sections`` set."""
    unit = {"n": 4, "threshold": 0.5, "accuracy": 0.5, "macro_f1": 0.5}
    return {"per_dataset": {"AHSD": unit}, "per_group": {"All": unit}, **sections}


INVALID_JSON = Raw('{"a": 1,\n "b": }')


def model_with_deep_tree(depth):
    """A valid model file whose one Hate-head tree is ``depth`` splits deep, as text."""
    split = '{"feature_index": 2, "threshold": 0.5, "right": {"value": 0.1}, "left": '
    tree = split * depth + '{"value": 0.0}' + "}" * depth
    return Raw(json.dumps(model_with(trees=[["TREE"], []])).replace('"TREE"', tree))


# JSON config files whose wrong-typed fields exited 1 with a traceback, were
# silently misread, or whose error did not name the file:
# (command, config, the field the error names).
CONFIG_CASES = {
    "max-in-flight-is-text": ("annotate", endpoints_with(max_in_flight="4"), "max_in_flight"),
    "max-in-flight-is-bool": ("annotate", endpoints_with(max_in_flight=True), "max_in_flight"),
    "retry-limit-is-float": ("annotate", endpoints_with(retry_limit=2.0), "retry_limit"),
    "top-k-is-null": ("annotate", endpoints_with(logprobs_top_k=None), "logprobs_top_k"),
    "timeout-is-text": ("annotate", endpoints_with(timeout="30"), "timeout"),
    # The socket layer raised OverflowError at the first connect.
    "timeout-is-past-the-socket-limit": ("annotate", endpoints_with(timeout=1e10),
                                         "endpoints[0]: timeout must be positive and at most "
                                         "9223372036.0"),
    "timeout-is-huge": ("annotate", endpoints_with(timeout=10**400),
                        "endpoints[0]: timeout must be finite, got an integer of 401 digits"),
    "backoff-is-nan": ("annotate", endpoints_with(backoff_base=math.nan), "backoff_base"),
    "model-id-is-a-number": ("annotate", endpoints_with(model_id=5), "model_id"),
    "base-url-is-a-list": ("annotate", endpoints_with(base_url=["http://x/v1"]), "base_url"),
    "auth-token-is-a-number": ("annotate", endpoints_with(auth_token=5), "auth_token"),
    "endpoints-are-numbers": ("annotate", {"endpoints": [5, 6, 7, 8]}, "endpoint"),
    "endpoints-is-a-number": ("annotate", {"endpoints": 5}, "endpoints"),
    # Both were refused only once the input was read, and without the file's name.
    "three-endpoints": ("annotate", {"endpoints": ENDPOINTS["endpoints"][:3]},
                        "expected 4 endpoints, got 3"),
    "model-id-given-twice": ("annotate", endpoints_with(1, model_id=MODEL_IDS[0]),
                             "duplicate endpoint model ids"),
    "url-keywords-is-a-number": ("filter", {"url_keywords": 5}, "url_keywords"),
    "url-keywords-is-text": ("filter", {"url_keywords": "forum"}, "url_keywords"),
    "whitelist-holds-a-number": ("filter", {"schema_whitelist": ["Comment", 5]},
                                 "schema_whitelist"),
    "expand-is-text": ("filter", {"expand_multiword_keywords": "false"},
                       "expand_multiword_keywords"),
    "filter-config-is-a-list": ("filter", ["forum"], "filter config"),
    "filter-config-unknown-key": ("filter", {"url_keyword": ["forum"]}, "url_keyword"),
    "filter-config-invalid-json": ("filter", INVALID_JSON, ":2:7: invalid JSON"),
    "template-is-a-number": ("annotate", {**ENDPOINTS, "template": 5}, "template"),
    "template-aliases-is-text": ("annotate", {**ENDPOINTS, "template": {"neutral_aliases": " 2"}},
                                 "neutral_aliases"),
    "template-aliases-is-a-number": ("annotate", {**ENDPOINTS, "template": {"hate_aliases": 5}},
                                     "hate_aliases"),
    "template-token-is-a-number": ("annotate", {**ENDPOINTS, "template": {"hate_token": 1}},
                                   "hate_token"),
    "template-unknown-key": ("annotate", {**ENDPOINTS, "template": {"prompt": "{comment}"}},
                             "prompt"),
    "endpoints-file-unknown-key": ("annotate", {**ENDPOINTS, "retries": 3}, "retries"),
    "endpoints-file-is-a-list": ("annotate", [ENDPOINTS], "endpoints file"),
    "endpoints-missing": ("annotate", {"template": {}}, "'endpoints'"),
    "endpoints-invalid-json": ("annotate", INVALID_JSON, ":2:7: invalid JSON"),
    "meta-seed-is-text": ("train-meta", {"seed": "7"}, "seed"),
    "meta-num-rounds-is-float": ("train-meta", {"num_rounds": 2.5}, "num_rounds"),
    "meta-config-is-a-list": ("train-meta", [1], "config"),
    "meta-learning-rate-is-bool": ("train-meta", {"learning_rate": True}, "learning_rate"),
    "meta-learning-rate-is-nan": ("train-meta", {"learning_rate": math.nan}, "learning_rate"),
    "meta-learning-rate-is-inf": ("train-meta", {"learning_rate": math.inf}, "learning_rate"),
    "meta-l2-is-inf": ("train-meta", {"l2_leaf_regularization": math.inf},
                       "l2_leaf_regularization"),
    "meta-l2-is-nan": ("train-meta", {"l2_leaf_regularization": math.nan},
                       "l2_leaf_regularization"),
    "meta-learning-rate-is-huge": ("train-meta", {"learning_rate": 10**400},
                                   "learning_rate must be finite, got an integer of 401 digits"),
    "meta-invalid-json": ("train-meta", INVALID_JSON, ":2:7: invalid JSON"),
    "model-config-is-a-number": ("ensemble", model_with(config=5), "config"),
    "model-config-seed-is-text": ("ensemble", model_with(config={"seed": "7"}), "seed"),
    "model-trees-hold-a-number": ("ensemble", model_with(trees=[5, []]), "trees"),
    "model-invalid-json": ("ensemble", INVALID_JSON, ":2:7: invalid JSON"),
    # json raised RecursionError: a traceback and exit 1.
    "model-nested-too-deeply": ("ensemble", model_with_deep_tree(1500),
                                "config.json: JSON nested too deeply"),
    "groups-member-list-is-a-number": ("evaluate --groups", {"G": 5}, "'G'"),
    "groups-member-list-is-text": ("evaluate --groups", {"G": "abc"}, "'G'"),
    "groups-members-hold-a-number": ("evaluate --groups", {"G": ["AHSD", 5]}, "'G'"),
    "groups-file-is-a-list": ("evaluate --groups", [["AHSD"]], "groups file"),
    "groups-invalid-json": ("evaluate --groups", INVALID_JSON, ":2:7: invalid JSON"),
    "baseline-is-a-list": ("evaluate --baseline", [1], "baseline"),
    "baseline-invalid-json": ("evaluate --baseline", INVALID_JSON, ":2:7: invalid JSON"),
    "registry-vocabulary-is-a-number": ("evaluate --registry", registry_with(vocabulary=5),
                                        "vocabulary"),
    "registry-entry-is-a-list": ("evaluate --registry", {"HateXplain": ["eng"]}, "HateXplain"),
    "registry-is-a-list": ("evaluate --registry", [registry_with()], "registry"),
    "ingest-registry-vocabulary-is-a-number": ("ingest", registry_with(vocabulary=5),
                                               "vocabulary"),
    "ingest-registry-language-is-a-number": ("ingest", registry_with(language=5), "language"),
    "ingest-registry-unknown-key": ("ingest", registry_with(text_col="post"), "text_col"),
    "ingest-registry-name-key": ("ingest", registry_with(name="Other"), "name"),
    "ingest-registry-invalid-json": ("ingest", INVALID_JSON, ":2:7: invalid JSON"),
    # The entry is named with the field: the dataset, or the endpoint's index.
    "registry-field-names-its-dataset": ("ingest", registry_with(vocabulary=5),
                                         "dataset 'HateXplain': vocabulary"),
    "endpoint-field-names-its-index": ("annotate", endpoints_with(2, timeout="30"),
                                       "endpoints[2]: timeout"),
    "endpoint-is-a-number-names-its-index": ("annotate",
                                             {"endpoints": [*ENDPOINTS["endpoints"][:3], 5]},
                                             "endpoints[3] must be an object"),
    # A range error names its entry as a type error does.
    "endpoint-range-error-names-its-index": ("annotate", endpoints_with(2, max_in_flight=0),
                                             "endpoints[2]: max_in_flight must be at least 1"),
    "filter-keyword-is-uppercase": ("filter", {"url_keywords": ["forum", "Thread"]},
                                    "filter config: url keywords must be lowercase: 'Thread'"),
    "template-has-two-placeholders": (
        "annotate", {**ENDPOINTS, "template": {"template_text": "{comment} or {comment}"}},
        "template: template must contain exactly one '{comment}' placeholder, found 2",
    ),
    "meta-num-leaves-is-one": ("train-meta", {"num_leaves": 1},
                               "config: num_leaves must be at least 2"),
    # Registry labels must already be in the form map_label looks up.
    "registry-label-not-lowercase": ("ingest", registry_with(vocabulary=["Hate", "normal"],
                                                             positives=["Hate"]),
                                     "dataset 'HateXplain': labels must be lowercase and "
                                     "stripped: 'Hate'"),
    "registry-label-not-stripped": ("evaluate --registry",
                                    registry_with(vocabulary=["hate", "normal "]),
                                    "labels must be lowercase and stripped: 'normal '"),
    "model-feature-index-is-float": ("ensemble", model_with_tree(feature_index=2.7),
                                     "feature_index"),
    "model-feature-index-is-bool": ("ensemble", model_with_tree(feature_index=True),
                                    "feature_index"),
    "model-feature-index-is-negative": ("ensemble", model_with_tree(feature_index=-1),
                                        "feature_index must be in [0, 8), got -1"),
    "model-feature-index-is-past-the-end": ("ensemble", model_with_tree(feature_index=8),
                                            "feature_index must be in [0, 8), got 8"),
    "model-neutral-feature-index-is-99": ("ensemble",
                                          model_with(trees=[[], [{**TREE, "feature_index": 99}]]),
                                          "feature_index must be in [0, 8), got 99"),
    "model-train-logloss-holds-text": ("ensemble", model_with(train_logloss=["0.5"]),
                                       "train_logloss"),
    "model-threshold-is-text": ("ensemble", model_with_tree(threshold="0.5"), "threshold"),
    "model-leaf-value-is-text": ("ensemble", model_with_tree(left={"value": "0.1"}), "value"),
    "model-tree-node-is-a-number": ("ensemble", model_with_tree(right=5), "tree node"),
    "model-base-score-is-text": ("ensemble", model_with(base_scores=["0", 0.0]), "base_scores"),
    # json reads NaN and Infinity: the file scored every row Neutral and
    # wrote "score_hate":NaN, which is not JSON.
    "model-base-score-is-nan": ("ensemble", model_with(base_scores=[math.nan, 0.0]),
                                "base_scores must be finite, got nan"),
    "model-threshold-is-infinite": ("ensemble", model_with_tree(threshold=math.inf),
                                    "threshold must be finite, got inf"),
    "model-leaf-value-is-nan": ("ensemble", model_with_tree(right={"value": math.nan}),
                                "value must be finite, got nan"),
    # Integers past the double range raised OverflowError: a traceback and exit 1.
    "model-base-score-is-huge": ("ensemble", model_with(base_scores=[10**400, 0.0]),
                                 "base_scores must be finite, got an integer of 401 digits"),
    "model-threshold-is-huge": ("ensemble", model_with_tree(threshold=10**400),
                                "threshold must be finite, got an integer of 401 digits"),
    "model-train-logloss-is-huge": ("ensemble", model_with(train_logloss=[10**400]),
                                    "train_logloss must be finite, got an integer of 401 digits"),
    "model-feature-index-is-huge": ("ensemble", model_with_tree(feature_index=2**70),
                                    "feature_index must be in [0, 8), got 1180591620717411303424"),
    "model-feature-order-is-text": ("ensemble", model_with(feature_order="abcdefgh"),
                                    "feature_order"),
    # Each exited 2 with Python's own words, naming no member: "object of type 'int'
    # has no len()", "'int' object is not iterable", "list indices must be integers or
    # slices, not str", and "trees must be a list, got 'a'" (or, for an object, its
    # first key).
    "model-base-scores-is-a-number": ("ensemble", model_with(base_scores=1),
                                      "base_scores must be a list, got 1"),
    "model-heads-is-a-number": ("ensemble", model_with(heads=3), "heads must be a list, got 3"),
    "model-file-is-a-list": ("ensemble", [model_with()],
                             "model file must be an object, got a list"),
    # Named by its type, not its text, which was most of the file.
    "model-trees-is-an-object": ("ensemble", model_with(trees={"hate": [TREE], "neutral": []}),
                                 "trees must be a list, got an object"),
    "model-trees-is-text": ("ensemble", model_with(trees="ab"),
                            "trees must be a list, got a string"),
    "baseline-section-is-a-number": ("evaluate --baseline", {"per_dataset": 5}, "per_dataset"),
    "baseline-unit-is-a-number": ("evaluate --baseline", baseline_with(per_group={"All": 5}),
                                  "per_group:All"),
    "baseline-unit-lacks-macro-f1": ("evaluate --baseline",
                                     baseline_with(per_dataset={"AHSD": {"n": 4}}),
                                     "per_dataset:AHSD has no macro_f1"),
    "baseline-macro-f1-is-text": ("evaluate --baseline",
                                  baseline_with(per_group={"All": {"macro_f1": "0.5"}}),
                                  "per_group:All macro_f1"),
    "baseline-macro-f1-is-nan": ("evaluate --baseline",
                                 baseline_with(per_group={"All": {"macro_f1": math.nan}}),
                                 "per_group:All macro_f1 must be finite"),
    "baseline-macro-f1-is-huge": (
        "evaluate --baseline", baseline_with(per_group={"All": {"macro_f1": 10**400}}),
        "per_group:All macro_f1 must be finite, got an integer of 401 digits",
    ),
}


def config_argv(command, config_path, directory):
    """Write the valid inputs ``command`` needs; its argv, with the config at ``config_path``."""
    out = str(directory / "out.jsonl")
    kinds, argv = {
        "annotate": ((TEXTS,), ["annotate", "--input", "{texts.jsonl}", "--output", out,
                                "--endpoints", config_path]),
        "filter": ((WEB,), ["filter", "--input", "{web.jsonl}", "--output", out,
                            "--config", config_path]),
        "train-meta": ((ANNOTATIONS, LABELS), ["train-meta", "--annotations", "{ann.jsonl}",
                                               "--labels", "{labels.jsonl}", "--model-out", out,
                                               "--config", config_path]),
        "ensemble": ((ANNOTATIONS,), ["ensemble", "--annotations", "{ann.jsonl}", "--strategy",
                                      "lgb", "--model", config_path, "--output", out]),
        "ingest": ((EXPORT,), ["ingest", "--dataset", "HateXplain", "--format", "jsonl",
                               "--input", "{export.jsonl}", "--output", out,
                               "--registry", config_path]),
    }.get(command) or ((PREDICTIONS,), ["evaluate", "--predictions", "{pred.jsonl}",
                                        "--report", out, command.split()[1], config_path])
    for kind in kinds:
        write_lines(directory / kind.name, kind.rows)
    return [str(directory / arg[1:-1]) if arg.startswith("{") else arg for arg in argv]


@pytest.mark.parametrize("name", sorted(CONFIG_CASES))
def test_config_type_error_exits_2_naming_the_field(name, tmp_path, caplog):
    command, config, field = CONFIG_CASES[name]
    config_path = tmp_path / "config.json"
    config_path.write_text(config if isinstance(config, Raw) else json.dumps(config))
    argv = config_argv(command, str(config_path), tmp_path)
    assert main(argv) == 2
    assert not (tmp_path / "out.jsonl").exists()
    messages = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(messages) == 1 and field in messages[0], messages
    assert messages[0].startswith(f"{config_path}:"), messages


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "Infinity"])
def test_non_finite_fixed_threshold_is_a_usage_error(value, tmp_path, capsys):
    write_lines(tmp_path / PREDICTIONS.name, PREDICTIONS.rows)
    report = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--predictions", str(tmp_path / PREDICTIONS.name), "--report",
              str(report), "--threshold", f"fixed:{value}"])
    assert exc.value.code == 1
    assert not report.exists()
    assert f"fixed threshold must be finite, got 'fixed:{value}'" in capsys.readouterr().err


# CSV/TSV exports whose bad row exited 2 without naming its line:
# (file name, text, line of the bad row, reason).
CSV_CASES = {
    "csv-unmapped-label": ("export.csv", "text,label\nfine,normal\nbad,banana\n", 3,
                           "dataset 'HateXplain': unmapped raw label 'banana'"),
    "csv-short-row": ("export.csv", "text,label\nfine,normal\nshort\n", 3, "missing key 'label'"),
    "tsv-unmapped-label": ("export.tsv", "text\tlabel\nfine\tnormal\n\nbad\tbanana\n", 4,
                           "dataset 'HateXplain': unmapped raw label 'banana'"),
    "tsv-missing-column": ("export.tsv", "post\tlabel\nfine\tnormal\n", 2, "missing key 'text'"),
}


@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_csv_row_error_names_its_line(name, tmp_path, caplog):
    file_name, text, line, reason = CSV_CASES[name]
    path = tmp_path / file_name
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert main(["ingest", "--dataset", "HateXplain", "--input", str(path),
                 "--output", str(out)]) == 2
    assert not out.exists()
    messages = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(messages) == 1 and messages[0].startswith(f"{path}:{line}: {reason}"), messages


MISSING = object()  # a field value that drops the field


def must_be(name, value, kind="a string"):
    return f"{name} must be {kind}, got {value!r}"


@pytest.mark.parametrize(
    "changes, reason",
    [
        *(pytest.param({"lang": value}, must_be("lang", value), id=name)
          for name, value in (("null", None), ("list", ["eng"]), ("number", 5), ("object", {"k": 1}))),
        pytest.param({"id": 5}, must_be("id", 5), id="id-number"),
        pytest.param({"id": None}, must_be("id", None), id="id-null"),
        pytest.param({"url": None}, must_be("url", None), id="url-null"),
        pytest.param({"url": ["https://ex.org/forum/2"]},
                     must_be("url", ["https://ex.org/forum/2"]), id="url-list"),
        pytest.param({"text": 5}, must_be("text", 5), id="text-number"),
        pytest.param({"schema_types": "Comment"},
                     must_be("schema_types", "Comment", "a list of strings"),
                     id="schema-types-a-string"),
        pytest.param({"schema_types": ["Comment", 5]},
                     must_be("schema_types", ["Comment", 5], "a list of strings"),
                     id="schema-types-holding-a-number"),
        pytest.param({"id": True}, must_be("id", True), id="id-true"),
        pytest.param({"text": MISSING}, "missing key 'text'", id="text-missing"),
        pytest.param({"id": 5, "url": MISSING}, must_be("id", 5), id="id-number-and-url-missing"),
    ],
)
def test_web_record_lang_must_be_a_string(changes, reason, tmp_path, caplog):
    # Read with str(), a null language was kept as "None" (which --quota None=1
    # matched) and ["eng"] as "['eng']"; the id 5 was written out as "5", and a
    # null URL was counted as a URL parse failure with exit 0. The first field
    # that is wrong, in the order id, url, lang, schema_types, text, is named.
    rows = [dict(row) for row in WEB.rows]
    for field, value in changes.items():
        if value is MISSING:
            del rows[2][field]
        else:
            rows[2][field] = value
    path = tmp_path / WEB.name
    write_lines(path, rows)
    kept = tmp_path / "kept.jsonl"
    assert main(["filter", "--input", str(path), "--output", str(kept), "--quota", "None=1"]) == 2
    assert not kept.exists()
    messages = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert messages == [f"{path}:4 (id {rows[2]['id']!r}): {reason}"]


UNDECODABLE = "not valid UTF-8: can't decode byte 0xff: invalid start byte"


def rows_with_undecodable_id(kind, n_rows, bad_index):
    """``n_rows`` rows cycling through ``kind``'s, with unique ids; row ``bad_index``'s
    id starts with the byte 0xff, which UTF-8 never holds."""
    lines = []
    for i in range(n_rows):
        row = dict(kind.rows[i % len(kind.rows)])
        row["id"] = f"{row['id']}-{i}"
        lines.append(dumps(row).encode())
    lines[bad_index] = lines[bad_index].replace(b'"id":"', b'"id":"\xff', 1)
    return b"\n".join(lines) + b"\n"


@pytest.mark.parametrize("case", [c for c in CASES if c.id in ("filter", "annotate", "evaluate")],
                         ids=lambda c: c.id)
def test_undecodable_row_names_its_file_and_line(case, tmp_path, caplog):
    # The error read "'utf-8' codec can't decode byte 0xff in position 182: invalid
    # start byte", naming neither the file nor the line, with the position counted
    # from an 8 KiB read chunk. 200 rows put the byte past the first chunk.
    path = tmp_path / case.target.name
    path.write_bytes(rows_with_undecodable_id(case.target, 200, 149))
    for kind in case.valid:
        write_lines(tmp_path / kind.name, kind.rows)
    (tmp_path / "endpoints.json").write_text(json.dumps(ENDPOINTS))
    inputs = os.listdir(tmp_path)
    assert run(case.argv, str(tmp_path)) == 2
    assert sorted(os.listdir(tmp_path)) == sorted(inputs), "an output file was committed"
    messages = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert messages == [f"{path}:150: {UNDECODABLE}"]


def test_filter_reads_every_line_before_the_undecodable_one(tmp_path, caplog):
    # Lines 120 and 149 share the decoder's read chunk with the bad line 150; the
    # malformed one is still skipped with its warning first.
    data = rows_with_undecodable_id(WEB, 200, 149).split(b"\n")
    data[119] = b"{oops"
    path = tmp_path / WEB.name
    path.write_bytes(b"\n".join(data))
    assert main(["filter", "--input", str(path), "--output", str(tmp_path / "kept.jsonl")]) == 2
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", f"{path}:120: invalid JSON: Expecting property name enclosed in double "
                    "quotes: line 1 column 2 (char 1); skipped"),
        ("ERROR", f"{path}:150: {UNDECODABLE}"),
    ]


@pytest.mark.parametrize("name, sep", [("export.csv", ","), ("export.tsv", "\t")], ids=["csv", "tsv"])
def test_undecodable_export_row_names_its_file_and_line(name, sep, tmp_path, caplog):
    # Read by csv outside iter_jsonl, the error read "'utf-8' codec can't decode byte
    # 0xff in position ...: invalid start byte", naming neither the file nor the line.
    # 1,000 rows put the byte past the first 8 KiB read chunk.
    lines = [f"text{sep}label".encode()] + [f"post {i}{sep}normal".encode() for i in range(1000)]
    lines[900] = b"\xff" + lines[900]
    path = tmp_path / name
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert len(b"\n".join(lines[:900])) > 8192
    out = tmp_path / "out.jsonl"
    assert main(["ingest", "--dataset", "HateXplain", "--input", str(path),
                 "--output", str(out)]) == 2
    assert not out.exists()
    messages = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert messages == [f"{path}:901: {UNDECODABLE}"]


def test_undecodable_stdin_is_named(tmp_path):
    proc = run_module(["filter", "--input", "-", "--output", str(tmp_path / "kept.jsonl")],
                      input=rows_with_undecodable_id(WEB, 200, 149))
    assert proc.returncode == 2
    assert proc.stderr.decode() == f"ERROR hatepool: <stdin>:150: {UNDECODABLE}\n"
    assert list(tmp_path.iterdir()) == []


def test_stdin_left_past_its_start_is_numbered_from_there(tmp_path):
    # The shell reads the first line, so the stream starts at the file's line 2 and
    # its line 300 is the file's line 301. The error used to read "<stdin>:301".
    path = tmp_path / WEB.name
    path.write_bytes(rows_with_undecodable_id(WEB, 400, 300))
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = tmp_path / "kept.jsonl"
    proc = subprocess.run(
        ["sh", "-c", '(read -r first; exec "$0" -m hatepool.cli filter --input - '
                     '--output "$1") < "$2"', sys.executable, str(out), str(path)],
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.decode() == f"ERROR hatepool: <stdin>:300: {UNDECODABLE}\n"
    assert not out.exists()


def cr_ended(rows, split_first=False):
    """``rows`` as JSON lines, each ended by a lone ``\\r``; with ``split_first``, the
    first row's first ``",`` is followed by a lone ``\\r`` too, which json reads as
    whitespace."""
    lines = [dumps(row) for row in rows]
    if split_first:
        lines[0] = lines[0].replace('",', '",\r', 1)
    return "".join(line + "\r" for line in lines).encode()


# Each case: the bytes on stdin or in the file, and the command line, "{in}" standing
# for "-" or the file's path and "{web}" for a valid web records file. Every input
# ends its lines with a lone "\r".
PIPE_CASES = {
    "filter": (cr_ended(WEB.rows[:2], split_first=True),
               ["filter", "--input", "{in}", "--output", "kept.jsonl", "--stats", "stats.json"]),
    "ensemble": (cr_ended(ANNOTATIONS.rows),
                 ["ensemble", "--strategy", "mean", "--annotations", "{in}",
                  "--output", "pred.jsonl"]),
    "config": (b'{\r  "url_keywords": ["forum"],\r  "oops"\r}\r',
               ["filter", "--config", "{in}", "--input", "{web}", "--output", "kept.jsonl"]),
    "ingest": (b"text,label\rfirst post,hate\r\"two\rlines\",normal\r",
               ["ingest", "--dataset", "HateXplain", "--format", "csv", "--input", "{in}",
                "--output", "out.jsonl"]),
    "ingest-bad-row": (b"text,label\rfine,normal\rbad,banana\r",
                       ["ingest", "--dataset", "HateXplain", "--format", "csv", "--input",
                        "{in}", "--output", "out.jsonl"]),
}


@pytest.mark.parametrize("name", sorted(PIPE_CASES))
def test_pipe_on_stdin_reads_as_its_file(name, tmp_path):
    # The same bytes through a real pipe and from a file give the same outputs, exit
    # code and stderr, but for the source's name. Read as text, stdin split lines at
    # "\n" alone, so each input was one line: filter kept no record where the file
    # kept one, ensemble refused the header, and the config's error was at "1:41"
    # where the file's was at "4:1".
    data, argv = PIPE_CASES[name]
    path = tmp_path / "input"
    path.write_bytes(data)
    web = tmp_path / WEB.name
    write_lines(web, WEB.rows)
    runs = []
    for source in (str(path), "-"):
        out = tmp_path / ("pipe" if source == "-" else "file")
        out.mkdir()
        # Both get the bytes on stdin; only the "-" run reads them.
        proc = run_module([arg.format(**{"in": source, "web": web}) for arg in argv],
                          input=data, cwd=out)
        outputs = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs.append((proc.returncode, proc.stderr.decode().replace(str(path), "<stdin>"),
                     outputs))
    assert runs[0] == runs[1]


# Byte sequences that UTF-8 never holds: a byte no sequence starts with, a sequence
# cut short by the next character, and an encoded surrogate. The fourth, a
# sequence cut short by the end of the input, only ends the last line.
INVALID = (b"\xff", b"\xe2\x82", b"\xed\xa0\x80")
CUT_AT_EOF = b"\xe2\x82"


@st.composite
def undecodable_input(draw):
    """JSONL bytes with ``\\n``, ``\\r\\n`` and ``\\r`` line ends, blank lines among
    them, and one line holding one invalid UTF-8 sequence at a character boundary."""
    n = draw(st.integers(1, 30), label="lines")
    texts = [
        "" if draw(st.booleans()) else
        dumps({**WEB.rows[0], "id": f"w{i}", "text": draw(st.text("xé€😀 ", max_size=5))})
        for i in range(n)
    ]
    lines = [text.encode() for text in texts]
    ends = [draw(st.sampled_from([b"\n", b"\r\n", b"\r"])) for _ in range(n)]
    bad = draw(st.integers(0, n - 1), label="bad line")
    if bad == n - 1 and draw(st.booleans(), label="cut at the end"):
        lines[bad], ends[bad] = lines[bad] + CUT_AT_EOF, b""
    else:
        at = draw(st.integers(0, len(texts[bad])), label="at")
        lines[bad] = (texts[bad][:at].encode() + draw(st.sampled_from(INVALID))
                      + texts[bad][at:].encode())
    return b"".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=undecodable_input(), range_bytes=st.integers(1, 400))
def test_undecodable_line_is_the_strict_decoders(data, range_bytes, small_ranges, monkeypatch,
                                                 caplog):
    # A file streamed in this process, the same file in ranges on two fork workers,
    # and a pipe on stdin, which cannot seek, all name the line a strict decode names.
    small_ranges(range_bytes)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, WEB.name)
        with open(path, "wb") as fp:
            fp.write(data)
        out = os.path.join(directory, "kept.jsonl")
        for workers, source in ((0, path), (2, path), (0, "-")):
            monkeypatch.setattr(filtering, "_filter_workers", lambda _: workers)
            caplog.clear()
            if source == "-":
                monkeypatch.setattr(sys, "stdin", piped(data))
                with sys.stdin:
                    code = main(["filter", "--input", "-", "--output", out])
            else:
                code = main(["filter", "--input", path, "--output", out])
            messages = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
            expected = strict_error(data, "<stdin>" if source == "-" else path)
            assert (code, messages) == (2, [expected]), workers
            assert not os.path.exists(out)


def test_string_stream_keeps_a_lone_surrogate():
    # Only a stream of decoded bytes can hold escaped ones; text handed over as a
    # string is read as it is.
    assert list(numbered_lines(io.StringIO("a\n\ud800b\n"))) == [(1, "a\n"), (2, "\ud800b\n")]


# Every command that reads annotations, with the valid inputs it needs besides.
# The model's one tree splits on a feature, so ``lgb`` walks it.
SCORING_MODEL = model_with(
    feature_order=[f"{m}:p_{c}" for m in sorted(MODEL_IDS) for c in ("hate", "neutral")],
    trees=[[TREE], []],
)
ANNOTATION_COMMANDS = {
    "ensemble-vote": ["ensemble", "--annotations", "{ann.jsonl}", "--strategy", "vote",
                      "--output", "{out.jsonl}"],
    "ensemble-mean": ["ensemble", "--annotations", "{ann.jsonl}", "--strategy", "mean",
                      "--labels", "{labels.jsonl}", "--output", "{out.jsonl}"],
    "ensemble-lgb": ["ensemble", "--annotations", "{ann.jsonl}", "--strategy", "lgb",
                     "--model", "{model.json}", "--output", "{out.jsonl}"],
    "train-meta": ["train-meta", "--annotations", "{ann.jsonl}", "--labels", "{labels.jsonl}",
                   "--model-out", "{out.json}"],
    "stats": ["stats", "--annotations", "{ann.jsonl}", "--strategies", "vote,mean,lgb",
              "--model", "{model.json}", "--output", "{summary.json}"],
}

# One bad probability pair per kind of check: the value's type, then the range
# and the sum, which hold for the pair.
BAD_PAIRS = {
    "type": ({"hate": "x", "neutral": 0.5}, "Llama3.1-8B hate must be a number, got 'x'"),
    "range": ({"hate": 1.5, "neutral": -0.5}, "p_hate out of range: 1.5"),
    "sum": ({"hate": 0.5, "neutral": 0.25}, "probabilities must sum to 1, got 0.5 + 0.25"),
}


def refused_annotations(command, directory, n_rows, bad):
    """Run ``command`` on ``n_rows`` annotation rows, row ``i`` given the pair ``bad[i]``.

    The file has no blank line, so row ``i`` is on line ``i + 2``. Returns the
    annotation path and the logged errors, after checking exit 2 and no output.
    """
    rows = [{"model_order": sorted(MODEL_IDS)}]
    for i in range(n_rows):
        models = {m: model_entry(p) for m, p in zip(MODEL_IDS, (0.25, 0.625, 0.75, 0.5))}
        if i in bad:
            models["Llama3.1-8B"] = {**models["Llama3.1-8B"], **BAD_PAIRS[bad[i]][0]}
        rows.append({"id": f"t{i}", "lang": "eng", "models": models})
    path = directory / "ann.jsonl"
    path.write_text("".join(dumps(row) + "\n" for row in rows), encoding="utf-8")
    (directory / "labels.jsonl").write_text("".join(
        dumps({"id": f"t{i}", "dataset": "AHSD", "text": "x", "gold": ("Hate", "Neutral")[i % 2]})
        + "\n" for i in range(n_rows)))
    (directory / "model.json").write_text(json.dumps(SCORING_MODEL))
    inputs = sorted(os.listdir(directory))
    code = run(ANNOTATION_COMMANDS[command], str(directory))
    assert code == 2
    assert sorted(os.listdir(directory)) == inputs, "an output file was committed"
    return str(path)


@pytest.mark.parametrize("command", sorted(ANNOTATION_COMMANDS))
@pytest.mark.parametrize(
    "first, second", [("type", "range"), ("type", "sum"), ("range", "type"), ("sum", "type")]
)
def test_first_bad_row_of_a_chunk_is_named(command, first, second, tmp_path, caplog):
    path = refused_annotations(command, tmp_path, 12, {5: first, 9: second})
    messages = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert messages == [f"{path}:7 (id 't5'): {BAD_PAIRS[first][1]}"]


@pytest.mark.parametrize("command", sorted(ANNOTATION_COMMANDS))
def test_bad_first_row_of_the_second_chunk_is_named(command, tmp_path, caplog):
    first_of_second = ensemble.CHUNK_ROWS
    assert first_of_second + 2 == 4098
    path = refused_annotations(
        command, tmp_path, first_of_second + 4, {first_of_second: "sum", first_of_second + 2: "type"}
    )
    messages = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert messages == [f"{path}:4098 (id 't4096'): {BAD_PAIRS['sum'][1]}"]


def run_on_annotations(command, directory, data):
    """The exit code of ``command`` on annotation ``data``, as :func:`run_on_input`
    gives it for ``ann.jsonl``."""
    (directory / "labels.jsonl").write_text(
        dumps({"id": "t0", "dataset": "AHSD", "text": "x", "gold": "Hate"}) + "\n")
    (directory / "model.json").write_text(json.dumps(SCORING_MODEL))
    return run_on_input(ANNOTATION_COMMANDS[command], directory, "ann.jsonl", data)


def run_on_input(argv, directory, name, data):
    """The exit code of ``argv`` with ``data``, bytes read from the input ``name`` or,
    when ``data`` is ``None``, from an empty pipe on stdin. Checks that no output file
    was committed."""
    saved = sys.stdin
    if data is None:
        argv = ["-" if arg == f"{{{name}}}" else arg for arg in argv]
        sys.stdin = piped(b"")
    else:
        (directory / name).write_bytes(data)
    inputs = sorted(os.listdir(directory))
    try:
        code = run(argv, str(directory))
    finally:
        if data is None:
            sys.stdin.close()
        sys.stdin = saved
    assert sorted(os.listdir(directory)) == inputs, "an output file was committed"
    return code


@pytest.mark.parametrize("command", sorted(ANNOTATION_COMMANDS))
@pytest.mark.parametrize("n_rows", [0, 1])
def test_header_naming_a_model_twice_names_line_1(command, n_rows, tmp_path, caplog):
    # Four ids passed the size check: with no row the run read as an empty pool, and
    # with one the error named line 2, "model set ['a', 'b', 'c'] does not match header".
    models = {m: model_entry(0.5) for m in "abc"}
    rows = [{"model_order": list("aabc")}] + [{"id": "t0", "models": models}] * n_rows
    data = "".join(dumps(row) + "\n" for row in rows).encode()
    assert run_on_annotations(command, tmp_path, data) == 2
    messages = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert messages == [f"{tmp_path / 'ann.jsonl'}:1: model_order names 'a' twice"]


@pytest.mark.parametrize("command", sorted(ANNOTATION_COMMANDS))
@pytest.mark.parametrize("source", ["file", "pipe"])
def test_empty_annotation_file_is_named(command, source, tmp_path, caplog):
    # The error read "annotation file is empty", naming no file.
    name = str(tmp_path / "ann.jsonl") if source == "file" else "<stdin>"
    assert run_on_annotations(command, tmp_path, b"" if source == "file" else None) == 2
    messages = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert messages == [f"{name}: annotation file is empty"]


@pytest.mark.parametrize("command", ["ensemble-mean", "train-meta"])
@pytest.mark.parametrize("source", ["file", "pipe"])
def test_empty_labels_file_is_named(command, source, tmp_path, caplog):
    # Standard input was named "-": "no labeled examples in -".
    write_lines(tmp_path / ANNOTATIONS.name, ANNOTATIONS.rows)
    data = b"" if source == "file" else None
    assert run_on_input(ANNOTATION_COMMANDS[command], tmp_path, LABELS.name, data) == 2
    name = str(tmp_path / LABELS.name) if source == "file" else "<stdin>"
    messages = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert messages == [f"no labeled examples in {name}"]
