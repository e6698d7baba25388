"""``filter`` against :func:`filter_oracle.filter_command`, a line-by-line reference.

The one-process path, the worker path and the stdin path share one record loop,
so comparing them with each other cannot catch a fault in it. Here each input
runs through ``cli.main`` four ways, a file in this process, the same file in
small byte ranges on two fork workers, a pipe on stdin, and a file on stdin past
a line already read from it, on two fork workers, and each must give the
reference's exit code, kept bytes, stats bytes and warning and error lines (the
lines the CLI writes to stderr, as ``(level, message)``).
"""

import json
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import run_filter
from filter_oracle import RECORD_FIELDS, filter_command

FIELDS = [name for name, _ in RECORD_FIELDS]

URLS = st.sampled_from([
    "https://ex.org/forum/1", "http://ex.org/a/thread-9?x=1#y", "https://ex.org/status_update/2",
    "https://ex.org/%46orum/3", "https://ex.org/about", "https://ex.org/?forum=1",
    "https://bücher.de/post/4", "https://ex.org/reply;p=1", "/forum/5", "forum/6",
    "mailto:forum@ex.org", "http://[::1/forum/7",
])
SCHEMA_TYPES = st.lists(st.sampled_from([
    "Comment", "https://schema.org/BlogPosting", "http://schema.org/Review", "WebPage",
    "comment", "https://schema.org/https://schema.org/Comment",
]), max_size=3)
TEXT = st.text(st.sampled_from("ab é \u0085\U0001f600\"\\\t"), max_size=8)
EXTRA = st.dictionaries(st.sampled_from(["meta", "Id", "score", "tags"]),
                        st.sampled_from([None, 1, "x", [1, "y"], {"k": "v"}]), max_size=2)
NOT_A_STRING = st.sampled_from([None, True, 5, 2.5, ["x"], {"k": "v"}])
NOT_STRINGS = st.sampled_from([["Comment", 5], ["Comment", None], [True], None, 5, "Comment",
                               {"k": "v"}])
# Lines that are skipped, with a warning or without one.
SKIPPED_LINES = st.sampled_from(["", "   ", "\t", " ", "\u0085", "{oops", "{", '{"id": "x"'])
NOT_OBJECTS = st.sampled_from(["[1, 2]", "5", '"s"', "null"])


@st.composite
def record(draw, faulty=False):
    """A web record with extra keys and its keys shuffled; if ``faulty``, with one
    field missing or of a wrong type, and each field after it as well or not."""
    row = {"id": draw(st.sampled_from(["r1", "r2", "é"])), "url": draw(URLS),
           "lang": draw(st.sampled_from(["eng", "deu", "", "vie"])),
           "schema_types": draw(SCHEMA_TYPES), "text": draw(TEXT), **draw(EXTRA)}
    if faulty:
        first = draw(st.integers(0, len(FIELDS) - 1))
        for index, name in enumerate(FIELDS[first:], start=first):
            if index > first and draw(st.booleans()):
                continue
            if draw(st.booleans()):
                del row[name]
            else:
                row[name] = draw(NOT_STRINGS if name == "schema_types" else NOT_A_STRING)
    order = draw(st.permutations(list(row)))
    return {key: row[key] for key in order}


@st.composite
def good_line(draw):
    """The bytes of a line that is read or skipped, before its line end: a record, a
    blank or invalid JSON line, or a record holding a lone surrogate escape."""
    kind = draw(st.sampled_from(["record"] * 6 + ["skipped", "surrogate"]))
    if kind == "skipped":
        return draw(SKIPPED_LINES).encode()
    row = draw(record())
    if kind == "surrogate":
        row["text"] = "\ud800"  # written as the escape "\ud800"
        return json.dumps(row).encode()
    return json.dumps(row, ensure_ascii=draw(st.booleans())).encode()


@st.composite
def fatal_line(draw):
    """The bytes of a line that ends the command: a faulty record, a line that is
    not a JSON object, or a record holding a byte that is not UTF-8."""
    kind = draw(st.sampled_from(["record"] * 4 + ["not-object", "undecodable"]))
    if kind == "not-object":
        return draw(NOT_OBJECTS).encode()
    if kind == "undecodable":
        return json.dumps(draw(record())).encode().replace(b"{", b'{"bad": "\xff", ', 1)
    return json.dumps(draw(record(faulty=True))).encode()


@st.composite
def web_lines(draw):
    """1-31 lines, at most one of them fatal."""
    lines = [draw(good_line()) for _ in range(draw(st.integers(1, 30)))]
    fatal = draw(st.none() | fatal_line())
    if fatal is not None:
        lines.insert(draw(st.integers(0, len(lines))), fatal)
    return lines


def render(lines, ends, final_end):
    """The input bytes: each line with its line end, the last one with ``final_end``."""
    return b"".join(data + (end if i < len(lines) - 1 else final_end).encode()
                    for i, (data, end) in enumerate(zip(lines, ends)))


def case(*rows):
    """The test's arguments for an input of ``rows``, one line each."""
    return dict(lines=[json.dumps(row).encode() for row in rows], ends=["\n"] * 31,
                final_end="\n", quotas=(), seed=0, range_bytes=300)


KEPT = {"id": "r1", "url": "https://ex.org/forum/1", "lang": "eng", "schema_types": ["Comment"],
        "text": "t"}


@example(**case({**KEPT, "meta": 1}))  # an extra key is not written
@example(**case({"id": True, "lang": "eng"}))  # the bad id is named, not the missing url
@example(**case({**KEPT, "schema_types": ["Comment", 5]}))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(
    lines=web_lines(),
    ends=st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]), min_size=31, max_size=31),
    final_end=st.sampled_from(["", "\n", "\r\n", "\r"]),
    quotas=st.sampled_from([(), (("eng", 1),), (("deu", 0), ("eng", 2))]),
    seed=st.integers(0, 2**32),
    range_bytes=st.integers(1, 300),
)
def test_filter_equals_the_reference(lines, ends, final_end, quotas, seed, range_bytes,
                                     small_ranges):
    small_ranges(range_bytes)
    data = render(lines, ends, final_end)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "web.jsonl")
        with open(path, "wb") as fp:
            fp.write(data)
        expected = filter_command(data, path, dict(quotas), seed)
        for workers in (0, 2):
            assert run_filter(directory, workers, quotas, seed) == expected, workers
        expected = filter_command(data, "<stdin>", dict(quotas), seed)
        assert run_filter(directory, 0, quotas, seed, stdin=data) == expected, "stdin"
        with open(path, "wb") as fp:
            fp.write(b"junk\n" + data)
        redirected = open(path, "rb", buffering=0)
        redirected.readline()  # as a shell's ``read`` leaves it: just past the line
        assert run_filter(directory, 2, quotas, seed, stdin=redirected) == expected, "file"
