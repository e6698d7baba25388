import os
import stat

import pytest

from hatepool._jsonl import atomic_output, write_json_file


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
