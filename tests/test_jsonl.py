from __future__ import annotations

import collections
import enum
import io
import itertools
import json
import math
import os
import re
import stat
import sys
from dataclasses import asdict, dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatepool import AnnotatorEndpoint, DatasetSpec, FilterConfig, MetaLearnerConfig
from hatepool._jsonl import (
    atomic_output,
    dumps,
    dumps_pretty,
    from_json_object,
    iter_jsonl,
    iter_jsonl_tolerant,
    loads,
    numbered_lines,
    read_json_file,
    write_json_file,
)
from hatepool.prompt import PromptTemplate

from conftest import strict_error


def file_mode(path):
    return stat.S_IMODE(os.stat(path).st_mode)


class TestAtomicOutput:
    @pytest.mark.parametrize(
        "mask,expected", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"]
    )
    def test_output_mode_follows_umask(self, tmp_path, mask, expected):
        saved = os.umask(mask)
        try:
            with atomic_output(str(tmp_path / "rows.jsonl")) as fp:
                fp.write("{}\n")
            write_json_file(str(tmp_path / "report.json"), {"a": 1})
            with open(tmp_path / "plain.txt", "w") as fp:
                fp.write("x")
        finally:
            os.umask(saved)
        assert file_mode(tmp_path / "rows.jsonl") == expected
        assert file_mode(tmp_path / "report.json") == expected
        assert file_mode(tmp_path / "plain.txt") == expected

    def test_rename_on_success(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_text("old\n")
        with atomic_output(str(path)) as fp:
            fp.write("new\n")
            assert path.read_text() == "old\n"
        assert path.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["out.jsonl"]

    def test_error_keeps_old_file_and_removes_temp(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_output(str(path)) as fp:
                fp.write("partial")
                raise RuntimeError("boom")
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.jsonl"]

    def test_directory_is_refused_before_the_temp_file(self, tmp_path):
        (tmp_path / "out").mkdir()
        with pytest.raises(IsADirectoryError) as exc:
            with atomic_output(str(tmp_path / "out")):
                pytest.fail("body ran")
        assert str(exc.value) == f"[Errno 21] Is a directory: '{tmp_path / 'out'}'"
        assert os.listdir(tmp_path) == ["out"]

    def test_failed_rename_names_the_path_and_removes_temp(self, tmp_path):
        # The error named the temp file: "'.../.tmp-<hex>.part' -> '.../out'".
        path = tmp_path / "out"
        with pytest.raises(IsADirectoryError) as exc:
            with atomic_output(str(path)) as fp:
                fp.write("x")
                path.mkdir()  # made while the output is written
        assert str(exc.value) == f"[Errno 21] Is a directory: '{path}'"
        assert os.listdir(tmp_path) == ["out"]


class TestIterJsonl:
    def test_blank_lines_count_toward_line_numbers(self):
        stream = io.StringIO('{"a": 1}\n\n   \n{"a": 2}\n{oops\n')
        rows = iter_jsonl(stream)
        assert next(rows) == {"a": 1}
        assert next(rows) == {"a": 2}
        with pytest.raises(ValueError, match=r"^<stream>:5: invalid JSON"):
            next(rows)

    # Python's str.strip() takes each of these, but only space, tab, LF and CR are JSON
    # whitespace (RFC 8259), so a line with one around its object, or of one alone,
    # was read as the object or skipped as blank.
    @pytest.mark.parametrize("space", ["\xa0", "\x0c", "\x0b", "\x85", "\u2028", "\u3000"],
                             ids=["NBSP", "FF", "VT", "NEL", "LS", "IDEOGRAPHIC"])
    @pytest.mark.parametrize("line", ["{0}{{\"a\": 1}}{0}", "{0}", " {0}\t"],
                             ids=["around-an-object", "alone", "among-json-whitespace"])
    def test_only_json_whitespace_is_stripped(self, space, line):
        data = ' \t{"a": 1}\t \r\n \t\r' + line.format(space) + "\n"
        rows = iter_jsonl(io.BytesIO(data.encode()))
        assert next(rows) == {"a": 1}
        with pytest.raises(ValueError, match=r"^<stream>:3: invalid JSON: "):
            next(rows)

    def test_source_is_the_file_name(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"id": "x"}\n\n[1]\n')
        with open(path, encoding="utf-8") as fp:
            with pytest.raises(ValueError) as info:
                list(iter_jsonl(fp))
        assert str(info.value) == f"{path}:3: not a JSON object"

    @pytest.mark.parametrize("line", ["[1, 2]", "5", "null", '"text"', "true"])
    def test_non_object_line_is_fatal(self, line):
        skipped = []
        stream = io.StringIO('{"a": 1}\n' + line + "\n")
        with pytest.raises(ValueError, match=r"^<stream>:2: not a JSON object$"):
            list(iter_jsonl(stream, on_error=skipped.append))
        assert skipped == []

    def test_on_error_skips_only_invalid_json(self):
        skipped = []
        stream = io.StringIO('{"id": "a"}\n{oops\n\n{"id": "b"}\nnot json\n{"id": 3}\n')
        rows = list(iter_jsonl(stream, decode=lambda row: row["id"], on_error=skipped.append))
        assert rows == ["a", "b", 3]
        assert [str(error) for error in skipped] == [
            "<stream>:2: invalid JSON: Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1)",
            "<stream>:5: invalid JSON: Expecting value: line 1 column 1 (char 0)",
        ]
        assert all(type(error) is ValueError for error in skipped)

    @pytest.mark.parametrize(
        "text, value",
        [(r'"\ud83d\ude00"', "\U0001f600"), (r'"\uD83D\uDE00"', "\U0001f600"),
         (r'"\\ud800"', "\\ud800"), (r'"\u00e9"', "\u00e9")],
        ids=["pair", "upper-case-pair", "escaped-backslash", "bmp"],
    )
    def test_escapes_that_are_no_lone_surrogate_are_read(self, text, value):
        assert list(iter_jsonl(io.StringIO('{"t": ' + text + "}\n"))) == [{"t": value}]

    @pytest.mark.parametrize(
        "line, shown",
        [(r'{"t": "\ud800"}', r"\ud800"), (r'{"t": "a\uDFFFb"}', r"\udfff"),
         (r'{"t": "\ude00\ud83d"}', r"\ude00"), (r'{"t": "\\\ud800"}', r"\ud800"),
         (r'{"\udbff": 1}', r"\udbff")],
        ids=["high", "low", "reversed-pair", "after-escaped-backslash", "key"],
    )
    def test_lone_surrogate_is_invalid_json(self, line, shown):
        # json read it into a str that no command could write back as UTF-8.
        skipped = []
        stream = io.StringIO(line + '\n{"t": 1}\n')
        assert list(iter_jsonl(stream, on_error=skipped.append)) == [{"t": 1}]
        assert [str(e) for e in skipped] == [f"<stream>:1: invalid JSON: lone surrogate {shown}"]

    def test_decoder_rejection_stays_fatal_with_on_error(self):
        skipped = []
        stream = io.StringIO('{oops\n{"id": "a"}\n')
        with pytest.raises(ValueError, match=r"^<stream>:2 \(id 'a'\): missing key 'text'$"):
            list(iter_jsonl(stream, decode=lambda row: row["text"], on_error=skipped.append))
        assert [str(error).split(": ")[0] for error in skipped] == ["<stream>:1"]

    @pytest.mark.parametrize(
        "error, reason",
        [
            (KeyError("hate"), "missing key 'hate'"),
            (TypeError("'int' object is not subscriptable"), "'int' object is not subscriptable"),
            (ValueError("p_hate out of range: nan"), "p_hate out of range: nan"),
        ],
        ids=["KeyError", "TypeError", "ValueError"],
    )
    def test_decoder_errors_name_source_line_and_id(self, error, reason):
        def decode(row):
            if row["id"] == "t3":
                raise error
            return row["id"]

        stream = io.StringIO('{"id": "t1"}\n{"id": "t2"}\n\n{"id": "t3"}\n')
        with pytest.raises(ValueError) as info:
            list(iter_jsonl(stream, decode))
        assert str(info.value) == f"<stream>:4 (id 't3'): {reason}"
        assert info.value.__cause__ is error

    def test_decoder_error_without_id(self):
        with pytest.raises(ValueError, match=r"^<stream>:1: missing key 'x'$"):
            list(iter_jsonl(io.StringIO('{"y": 1}\n'), lambda row: row["x"]))

    def test_other_decoder_errors_pass_through(self):
        def decode(row):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="^boom$"):
            list(iter_jsonl(io.StringIO('{"id": "a"}\n'), decode))

    def test_tolerant_reader_delegates(self):
        text = '{"id": "a"}\n{oops\n\n{"id": "b"}\n'
        seen, expected = [], []
        assert list(iter_jsonl_tolerant(io.StringIO(text), seen.append)) == list(
            iter_jsonl(io.StringIO(text), on_error=expected.append)
        )
        assert [str(e) for e in seen] == [str(e) for e in expected]
        assert [str(e).split(": ")[0] for e in seen] == ["<stream>:2"]
        with pytest.raises(ValueError, match="^<stream>:1: not a JSON object$"):
            list(iter_jsonl_tolerant(io.StringIO("[]\n"), seen.append))


# JSON values, nested, with keys in any order, non-ASCII text and the numbers a
# formatter can get wrong.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from([-0.0, 5e-324, 1e16, 1e300, -1e-300, math.nan, math.inf, -math.inf,
                       10**30, -(2**70), "é\u2028😀", "\x00\x1f\x7f\"\\/"]),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200)
@given(JSON_VALUES)
def test_dumps_is_json_dumps_with_its_settings(value):
    assert dumps(value) == json.dumps(value, sort_keys=True, ensure_ascii=False,
                                      separators=(",", ":"))


class Level(enum.IntEnum):
    LOW = 1


class Half(float):
    def __repr__(self):
        return "half"


class Name(str):
    pass


# Values json reads by ``isinstance`` or refuses: subclasses of its types, keys that
# are not strings, mixed key types that cannot be sorted, and types it cannot write.
FOREIGN_VALUES = st.recursive(
    JSON_VALUES
    | st.sampled_from([Level.LOW, Half(0.5), Name("n"), b"x", {1}, collections.OrderedDict(b=1)]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2) | st.integers() | st.floats() | st.booleans()
                      | st.none() | st.sampled_from([Level.LOW, Name("k")]), inner, max_size=3),
    max_leaves=10,
)


def encoded(dump, value):
    """``("text", text)`` or ``(exception type, message)``."""
    try:
        return "text", dump(value)
    except (TypeError, ValueError, RecursionError) as exc:
        return type(exc), str(exc)


def json_pretty(value):
    return json.dumps(value, sort_keys=True, ensure_ascii=False, indent=2)


@settings(max_examples=300)
@given(JSON_VALUES | FOREIGN_VALUES)
def test_dumps_pretty_is_json_dumps_with_indent(value):
    assert encoded(dumps_pretty, value) == encoded(json_pretty, value)


def test_dumps_pretty_refuses_what_json_refuses():
    looped = []
    looped.append({"a": looped})
    deep = []
    for _ in range(5000):
        deep = [deep]
    for value in (looped, deep):
        assert encoded(dumps_pretty, value) == encoded(json_pretty, value)
    assert encoded(dumps_pretty, looped)[0] is ValueError
    assert encoded(dumps_pretty, deep)[0] is RecursionError


# JSON texts as a reader meets them: a value's text, compact or indented, or text
# that json reads but never writes, or not JSON at all, with whitespace or a BOM
# before it and whitespace or junk after it. Nesting is either well inside the
# recursion limit or far past it: near it, the depth that decodes depends on how
# deep the caller's stack already is.
JSON_TEXTS = st.tuples(
    st.sampled_from(["", "", " ", "\t\n\r ", "\ufeff", "\ufeff "]),
    st.one_of(
        JSON_VALUES.map(json.dumps),
        JSON_VALUES.map(lambda value: json.dumps(value, indent=1, ensure_ascii=False)),
        st.tuples(st.sampled_from(["[", '{"a":']), st.sampled_from([1, 50, 200, 10**5]))
        .map(lambda nest: nest[0] * nest[1] + "0" + ("]" if nest[0] == "[" else "}") * nest[1]),
        st.integers(4290, 4310).map(lambda digits: "-" * (digits % 2) + "7" * digits),
        st.sampled_from(["NaN", "-Infinity", "Infinity", "nan", "1e400", "-0", "01", "1.",
                         "tru", "{", "[1,]", '{"a" 1}', '"a\tb"', '"\\x"', '{"a":1,"a":2}',
                         '"\\ud800"', '["\\udfff", 1]', '"\\ud83d\\ude00"', "", "\x00"]),
    ),
    st.sampled_from(["", "", " ", "\n", "\r\n", "x", "]", ",1", " {}", "\x00", "\ufeff"]),
).map("".join)


def decoded(load, text):
    """``("value", json text of the value)`` or ``(exception type, message)``."""
    try:
        value = load(text)
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)
    return "value", json.dumps(value)


@settings(max_examples=400)
@given(JSON_TEXTS)
def test_loads_is_json_loads(text):
    expected = decoded(json.loads, text)
    if expected[0] == "value":
        try:
            dumps(json.loads(text)).encode()
        except UnicodeEncodeError as exc:  # a lone surrogate: the one value loads refuses
            expected = ValueError, f"lone surrogate \\u{ord(exc.object[exc.start]):04x}"
    assert decoded(loads, text) == expected


# What may follow a value: JSON whitespace, which ``loads`` reads past in its one
# scan, and other whitespace, which json refuses as extra data.
SUFFIXES = ["\n", "\r\n", " \t", " \t\n\r", "\x0c", "\xa0", "\u2028", "\n\x0c", " \xa0"]


@settings(max_examples=200)
@given(JSON_VALUES, st.sampled_from(SUFFIXES))
def test_loads_is_json_loads_before_whitespace(value, suffix):
    text = json.dumps(value, ensure_ascii=False) + suffix
    expected = decoded(json.loads, text)
    assert decoded(loads, text) == expected
    if suffix.strip(" \t\n\r"):
        assert expected[0] is json.JSONDecodeError and expected[1].startswith("Extra data")


# Bytes a line reader can trip on: line ends, characters that other readers take
# for line ends, and bytes that are not UTF-8 (a bad start byte, characters cut
# short, an encoded surrogate), beside a BOM and ordinary text.
LINE_BYTES = [b"a", b"{}", b" ", b"\xc3\xa9", b"\xf0\x9f\x98\x80", b"\n", b"\r", b"\r\n",
              b"\xe2\x80\xa8", b"\xc2\x85", b"\x0b\x0c\x1c", b"\xef\xbb\xbf", b"\xff",
              b"\xe4\xb8", b"\xf0\x9f", b"\xed\xa0\x80", b"\xc0\xaf"]


def read_lines(fp):
    """The ``numbered_lines`` of ``fp`` until the first error, and that error's message."""
    lines = []
    try:
        for lineno, line in numbered_lines(fp):
            lines.append((lineno, line))
    except ValueError as exc:
        return lines, str(exc)
    return lines, None


@settings(max_examples=400)
@given(st.lists(st.sampled_from(LINE_BYTES), max_size=12).map(b"".join))
def test_binary_lines_are_text_modes(data):
    # A binary stream's lines are text mode's up to the first that holds a byte that
    # is not UTF-8, which a text stream escapes to U+DC80-U+DCFF; they keep their line
    # ends, where text mode turns each into "\n". The error names the byte, the
    # reason and the line that one strict decode of all the bytes gives.
    binary = io.BytesIO(data)
    binary.name = "web.jsonl"
    lines, error = read_lines(binary)
    escaped = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
    text_lines = list(itertools.takewhile(lambda item: not re.search("[\udc80-\udcff]", item[1]),
                                          enumerate(escaped, start=1)))
    assert error == strict_error(data, "web.jsonl")
    assert [(n, line.replace("\r\n", "\n").replace("\r", "\n")) for n, line in lines] == text_lines


@dataclass(frozen=True)
class Kinds:
    """One field of each kind the decoder knows."""

    text: str = ""
    maybe_text: str | None = None
    count: int = 0
    number: float = 0.0
    flag: bool = False
    ordered: tuple[str, ...] = ()
    members: frozenset[str] = frozenset()


ACCEPTED = {
    "text": ["", "x"],
    "maybe_text": [None, "x"],
    "count": [0, -3, 2**70],
    "number": [0, -3, 2.5, 1e300, 2**70, sys.float_info.max],
    "flag": [True, False],
    "ordered": [[], ["b", "a", "b"]],
    "members": [[], ["b", "a", "b"]],
}

REFUSED = {
    "text": ([5, None, True, ["x"], {"x": 1}], "a string"),
    "maybe_text": ([5, False, [], {}], "a string or null"),
    "count": ([True, False, 2.0, 2.5, "4", None, [4]], "an integer"),
    "number": ([True, False, "1.0", None, [1.0], {}], "a number"),
    "flag": ([0, 1, "true", None], "true or false"),
    "ordered": (["ab", [1], ["a", None], ["a", True], None, 5, {"a": "b"}], "a list of strings"),
    "members": (["ab", [1], ["a", ["b"]], None, {"a": "b"}], "a list of strings"),
}


def as_json(config):
    """``asdict(config)`` with tuples and sets as JSON lists."""
    return json.loads(json.dumps(
        {k: sorted(v) if isinstance(v, frozenset) else v for k, v in asdict(config).items()}
    ))


class TestFromJsonObject:
    @pytest.mark.parametrize(
        "field, value", [(f, v) for f, values in ACCEPTED.items() for v in values]
    )
    def test_kind_accepts(self, field, value):
        decoded = getattr(from_json_object(Kinds, {field: value}, "kinds"), field)
        if isinstance(value, list):
            convert = tuple if field == "ordered" else frozenset
            assert decoded == convert(value) and type(decoded) is convert
        else:
            assert decoded is value or (decoded == value and type(decoded) is type(value))

    @pytest.mark.parametrize(
        "field, value", [(f, v) for f, (values, _) in REFUSED.items() for v in values]
    )
    def test_kind_refuses(self, field, value):
        description = REFUSED[field][1]
        with pytest.raises(ValueError) as info:
            from_json_object(Kinds, {field: value}, "kinds")
        assert str(info.value) == f"kinds: {field} must be {description}, got {value!r}"

    @pytest.mark.parametrize(
        "value, shown",
        [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
         (10**400, "an integer of 401 digits"), (-(10**400), "an integer of 401 digits")],
        ids=["nan", "inf", "-inf", "10**400", "-10**400"],
    )
    def test_number_must_be_finite(self, value, shown):
        # json reads NaN, Infinity and integers past the double range.
        with pytest.raises(ValueError) as info:
            from_json_object(Kinds, {"number": value}, "kinds")
        assert str(info.value) == f"kinds: number must be finite, got {shown}"

    @pytest.mark.parametrize("value", [[1], "x", 5, None, True])
    def test_non_object_refused(self, value):
        with pytest.raises(ValueError) as info:
            from_json_object(Kinds, value, "kinds")
        assert str(info.value) == f"kinds must be an object, got {value!r}"

    def test_unknown_keys_refused(self):
        with pytest.raises(ValueError) as info:
            from_json_object(Kinds, {"text": "x", "zeta": 1, "alpha": 2}, "kinds")
        assert str(info.value) == "unknown kinds keys: ['alpha', 'zeta']"

    def test_fixed_fields(self):
        assert from_json_object(Kinds, {"count": 2}, "kinds", text="t") == Kinds(text="t", count=2)
        with pytest.raises(ValueError, match=r"^unknown kinds keys: \['text'\]$"):
            from_json_object(Kinds, {"text": "x"}, "kinds", text="t")

    def test_defaults_for_absent_fields(self):
        assert from_json_object(Kinds, {}, "kinds") == Kinds()

    @pytest.mark.parametrize(
        "config",
        [
            AnnotatorEndpoint(model_id="m", base_url="http://x/v1", auth_token="k", timeout=5),
            AnnotatorEndpoint(model_id="m", base_url="https://x:8443/v1"),
            MetaLearnerConfig(),
            MetaLearnerConfig(seed=9, num_rounds=3, learning_rate=1, l2_leaf_regularization=0),
            FilterConfig(),
            FilterConfig(url_keywords=("forum", "status update"), schema_whitelist=frozenset({"A"}),
                         expand_multiword_keywords=False),
            PromptTemplate(),
            PromptTemplate(template_text="Q: {comment}", hate_aliases=(" 1",),
                           neutral_aliases=(" 2", "2\n")),
        ],
        ids=lambda config: type(config).__name__,
    )
    def test_config_round_trips(self, config):
        decoded = type(config).from_dict(as_json(config))
        assert decoded == config
        assert as_json(decoded) == as_json(config)

    def test_numbers_keep_their_json_type(self):
        config = MetaLearnerConfig.from_dict({"l2_leaf_regularization": 0, "learning_rate": 1})
        assert type(config.l2_leaf_regularization) is int
        assert json.dumps(config.to_dict()) == json.dumps(
            {**MetaLearnerConfig().to_dict(), "l2_leaf_regularization": 0, "learning_rate": 1}
        )

    def test_registry_entry_round_trips(self):
        spec = DatasetSpec(name="X", language="eng", vocabulary=frozenset({"a", "b"}),
                           positives=frozenset({"a"}), id_column="id")
        entry = {k: v for k, v in as_json(spec).items() if k != "name"}
        assert from_json_object(DatasetSpec, entry, "dataset 'X'", name="X") == spec


class TestReadJsonFile:
    def test_invalid_json_names_file_line_and_column(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{\n  "a": 1,\n  "b": }\n')
        with pytest.raises(ValueError) as info:
            read_json_file(str(path), lambda value: value)
        assert str(info.value) == f"{path}:3:8: invalid JSON: Expecting value"

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["CRLF", "CR"])
    def test_each_line_end_counts_once(self, end, tmp_path):
        # As text mode counts them; stdin, read as bytes too, counts them the same way.
        path = tmp_path / "c.json"
        path.write_bytes(end.join(['{', '  "a": 1,', '  "b": }', '']).encode())
        with pytest.raises(ValueError) as info:
            read_json_file(str(path), lambda value: value)
        assert str(info.value) == f"{path}:3:8: invalid JSON: Expecting value"

    def test_lone_surrogate_names_the_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"endpoints": [{"model_id": "\\ud800"}]}')
        with pytest.raises(ValueError) as info:
            read_json_file(str(path))
        assert str(info.value) == f"{path}: lone surrogate \\ud800"

    def test_undecodable_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"a": "\xff"}')
        with pytest.raises(ValueError) as info:
            read_json_file(str(path), lambda value: value)
        assert str(info.value) == (f"{path}:1: not valid UTF-8: can't decode byte 0xff: "
                                   "invalid start byte")

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
    def test_undecodable_byte_is_named_as_numbered_lines_names_it(self, end, tmp_path):
        path = tmp_path / "c.json"
        path.write_bytes(end.join([b"{", b'  "a": 1,', b'  "b": "\xe4\xb8"', b"}", b""]))
        with open(path, "rb") as fp:
            _, expected = read_lines(fp)
        assert expected.startswith(f"{path}:3: not valid UTF-8: can't decode byte 0xe4")
        with pytest.raises(ValueError) as info:
            read_json_file(str(path))
        assert str(info.value) == expected

    @pytest.mark.parametrize("end", ["\n", "\r\n", " \t"], ids=["LF", "CRLF", "space-tab"])
    def test_a_valid_file_is_parsed_once(self, end, tmp_path, monkeypatch):
        path = tmp_path / "c.json"
        path.write_text(dumps_pretty({"a": [1, 2.5, "é"], "b": None}) + end, newline="")
        calls = []
        monkeypatch.setattr(json, "loads", lambda *args, **kwargs: calls.append(args))
        assert read_json_file(str(path)) == {"a": [1, 2.5, "é"], "b": None}
        assert calls == []

    @pytest.mark.parametrize(
        "error, reason",
        [
            (KeyError("x"), "missing key 'x'"),
            (TypeError("'int' object is not iterable"), "'int' object is not iterable"),
            (ValueError("seed must be an integer, got '7'"), "seed must be an integer, got '7'"),
        ],
        ids=["KeyError", "TypeError", "ValueError"],
    )
    def test_decoder_errors_name_the_file(self, tmp_path, error, reason):
        path = tmp_path / "c.json"
        path.write_text("{}")

        def decode(value):
            raise error

        with pytest.raises(ValueError) as info:
            read_json_file(str(path), decode)
        assert str(info.value) == f"{path}: {reason}"
        assert info.value.__cause__ is error

    def test_other_decoder_errors_pass_through(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}")

        def decode(value):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="^boom$"):
            read_json_file(str(path), decode)

    def test_decoder_recursing_too_deeply_names_the_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}")

        def decode(value):
            return decode(value)

        with pytest.raises(ValueError) as info:
            read_json_file(str(path), decode)
        assert str(info.value) == f"{path}: JSON nested too deeply"
