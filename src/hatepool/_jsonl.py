"""JSON-lines and atomic-file helpers shared by the pipeline stages.

All serialization in this package goes through :func:`dumps` so that a
fixed input always produces byte-identical output: keys are sorted,
non-ASCII text is written verbatim, and separators carry no whitespace.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from typing import Any, Iterator, TextIO


def dumps(obj: Any) -> str:
    """Serialize ``obj`` to a canonical single-line JSON string."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def dumps_pretty(obj: Any) -> str:
    """Serialize ``obj`` to indented JSON with sorted keys (for reports)."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2)


def write_jsonl_line(fp: TextIO, obj: Any) -> None:
    fp.write(dumps(obj))
    fp.write("\n")


def iter_jsonl(fp: TextIO, decode=None, on_error=None) -> Iterator[Any]:
    """Yield each non-blank line of ``fp`` as a dict, or as ``decode(dict)`` if given.

    Invalid JSON raises, or with ``on_error`` is skipped after ``on_error(lineno)``.
    A non-object line, or a ``KeyError``/``TypeError``/``ValueError`` from ``decode``,
    raises ``ValueError("<file>:<line> (id ...): <reason>")``; blank lines count.
    """
    source = getattr(fp, "name", "<stream>")
    for lineno, line in enumerate(fp, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            row = json.loads(stripped)
        except json.JSONDecodeError as exc:
            if on_error is None:
                raise ValueError(f"{source}:{lineno}: invalid JSON: {exc}") from exc
            on_error(lineno)
            continue
        if not isinstance(row, dict):
            raise ValueError(f"{source}:{lineno}: not a JSON object")
        if decode is not None:
            try:
                row = decode(row)
            except (KeyError, TypeError, ValueError) as exc:
                where = f"{source}:{lineno}" + (f" (id {row['id']!r})" if "id" in row else "")
                reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
                raise ValueError(f"{where}: {reason}") from exc
        yield row


def string_field(row: dict, key: str) -> str:
    """``row[key]``, which must be a JSON string; ``TypeError`` otherwise."""
    value = row[key]
    if not isinstance(value, str):
        raise TypeError(f"{key} must be a string, got {value!r}")
    return value


def iter_jsonl_tolerant(fp: TextIO, on_error) -> Iterator[Any]:
    """``iter_jsonl(fp, on_error=on_error)``; kept because ``bench/traced.py`` imports it."""
    return iter_jsonl(fp, on_error=on_error)


@contextmanager
def open_input(path: str) -> Iterator[TextIO]:
    """Open ``path`` for reading; ``-`` means stdin."""
    if path == "-":
        yield sys.stdin
        return
    with open(path, "r", encoding="utf-8") as fp:
        yield fp


def _create_temp_file(directory: str) -> tuple[int, str]:
    """Create a new, uniquely named file in ``directory`` and open it for writing.

    The mode is ``0o666`` less the umask, as ``open(path, "w")`` would give;
    ``tempfile.mkstemp`` would force ``0o600`` onto every output.
    """
    while True:
        tmp_path = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
        try:
            return os.open(tmp_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666), tmp_path
        except FileExistsError:
            continue


@contextmanager
def atomic_output(path: str) -> Iterator[TextIO]:
    """Write to a temp file and rename over ``path`` on success; ``-`` means stdout.

    The rename only happens when the body completes without raising, so a
    crashed run never leaves a truncated output file behind. The output gets
    the same permissions as a file made with ``open(path, "w")``.
    """
    if path == "-":
        yield sys.stdout
        sys.stdout.flush()
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = _create_temp_file(directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fp:
            yield fp
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def write_json_file(path: str, obj: Any) -> None:
    """Atomically write ``obj`` as indented JSON with a trailing newline."""
    with atomic_output(path) as fp:
        fp.write(dumps_pretty(obj))
        fp.write("\n")


def read_json_file(path: str) -> Any:
    with open_input(path) as fp:
        return json.load(fp)
