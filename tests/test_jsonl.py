import io
import os
import stat

import pytest

from hatepool._jsonl import atomic_output, iter_jsonl, iter_jsonl_tolerant, write_json_file


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


class TestIterJsonl:
    def test_blank_lines_count_toward_line_numbers(self):
        stream = io.StringIO('{"a": 1}\n\n   \n{"a": 2}\n{oops\n')
        rows = iter_jsonl(stream)
        assert next(rows) == {"a": 1}
        assert next(rows) == {"a": 2}
        with pytest.raises(ValueError, match=r"^<stream>:5: invalid JSON"):
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
        assert skipped == [2, 5]

    def test_decoder_rejection_stays_fatal_with_on_error(self):
        skipped = []
        stream = io.StringIO('{oops\n{"id": "a"}\n')
        with pytest.raises(ValueError, match=r"^<stream>:2 \(id 'a'\): missing key 'text'$"):
            list(iter_jsonl(stream, decode=lambda row: row["text"], on_error=skipped.append))
        assert skipped == [1]

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
        assert seen == expected == [2]
        with pytest.raises(ValueError, match="^<stream>:1: not a JSON object$"):
            list(iter_jsonl_tolerant(io.StringIO("[]\n"), seen.append))
