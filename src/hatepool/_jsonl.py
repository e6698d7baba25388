"""JSON, JSON-lines and atomic-file helpers shared by the pipeline stages.

All serialization in this package goes through :func:`dumps` so that a
fixed input always produces byte-identical output: keys are sorted,
non-ASCII text is written verbatim, and separators carry no whitespace.

Every JSONL file is read by :func:`iter_jsonl` and every JSON file by
:func:`read_json_file`; a bad row or file raises ``ValueError`` naming the
file. Every input, a file or standard input, is read as bytes (see
:func:`open_input`), and :func:`numbered_lines` cuts JSONL and CSV/TSV lines
alike at ``\\n``, ``\\r\\n`` and a lone ``\\r`` and names the first that is not
UTF-8. :func:`from_json_object` is the one JSON object to config decoder.
"""

from __future__ import annotations

import errno
import io
import json
import os
import re
import sys
from contextlib import contextmanager
from typing import Any, BinaryIO, Iterator, TextIO


# ``encode`` keeps no state between calls (each builds its own circular-reference
# markers), so one encoder serves every thread.
_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def dumps(obj: Any) -> str:
    """Serialize ``obj`` to a canonical single-line JSON string."""
    return _ENCODER.encode(obj)


def dumps_pretty(obj: Any) -> str:
    """Serialize ``obj`` to indented JSON with sorted keys (for models and reports).

    The text is ``json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2)``, but
    written in one recursive pass that appends to one list: with an indent, json
    drops its C encoder for Python generators, one per level, through which every
    chunk is yielded. The pass takes values of exactly the types json reads as
    themselves: ``dict`` with ``str`` keys, ``list``, ``tuple``, ``str``, ``int``,
    ``float``, ``bool`` and ``None``, strings written as json writes them and floats as
    ``repr`` gives them, with ``NaN`` and ``±Infinity`` as json spells them. Any other
    type or key, a subclass included, is left to ``json.dumps``, which gives its text or
    its error. A value nested about 1,000 levels deep, or one that contains itself,
    also goes to ``json.dumps``, which raises ``RecursionError`` or ``ValueError``.
    """
    chunks: list[str] = []
    try:
        _write_pretty(obj, chunks.append, "\n")
    except (_NotPlain, RecursionError):
        return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2)
    return "".join(chunks)


class _NotPlain(Exception):
    """A value :func:`_write_pretty` leaves to ``json.dumps``."""


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


_encode_str = json.encoder.encode_basestring

# Scalar type -> its JSON text, as json's encoder writes it.
_SCALARS = {
    str: _encode_str,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _write_pretty(value: Any, out, newline: str) -> None:
    """Pass the text of ``value`` to ``out``, its nested lines starting with ``newline``
    and two more spaces a level; raise ``_NotPlain`` on a type it does not write."""
    kind = type(value)
    if kind is dict:
        if not value:
            out("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in sorted(value.items()):
            if type(key) is not str:
                raise _NotPlain
            scalar = _SCALARS.get(type(item))
            if scalar is None:
                out(f"{separator}{_encode_str(key)}: ")
                _write_pretty(item, out, inner)
            else:
                out(f"{separator}{_encode_str(key)}: {scalar(item)}")
            separator = "," + inner
        out(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            out("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            scalar = _SCALARS.get(type(item))
            if scalar is None:
                out(separator)
                _write_pretty(item, out, inner)
            else:
                out(separator + scalar(item))
            separator = "," + inner
        out(newline + "]")
    else:
        scalar = _SCALARS.get(kind)
        if scalar is None:
            raise _NotPlain
        out(scalar(value))


def write_jsonl_line(fp: TextIO, obj: Any) -> None:
    fp.write(dumps(obj))
    fp.write("\n")


# The C scanner that ``json.loads`` calls, called directly (it keeps no state
# between calls).
_scan_once = json.JSONDecoder().scan_once


def loads(text: str) -> Any:
    """``json.loads(text)``, refusing a string with a lone surrogate such as ``"\\ud800"``
    (I-JSON, RFC 7493 section 2.1), which no command could write back as UTF-8.

    A text that is one JSON value from its first character, followed by nothing but
    JSON whitespace (``" \\t\\n\\r"``), is decoded by one scanner call; any other text,
    such as one with leading whitespace, a BOM or extra data, goes to ``json.loads``,
    which gives its value or its error.
    """
    try:
        value, end = _scan_once(text, 0)
    except (StopIteration, ValueError):
        end = 0
    if not end or text[end:].strip(" \t\n\r"):
        value = json.loads(text)
    if "\\" in text and re.search(r"\\u[dD][89a-fA-F]", text):  # no escape, no surrogate
        try:
            dumps(value).encode()
        except UnicodeEncodeError as exc:
            raise ValueError(f"lone surrogate \\u{ord(exc.object[exc.start]):04x}") from None
    return value


def iter_jsonl(fp: TextIO | BinaryIO, decode=None, on_error=None) -> Iterator[Any]:
    """Yield each non-blank line of ``fp`` as a dict, or as ``decode(dict)`` if given.

    A blank line holds nothing but JSON whitespace (``" \\t\\n\\r"``), which is also
    all that is stripped around a line's value: any other space, such as U+00A0, is
    invalid JSON.

    Invalid JSON (see :func:`loads`), JSON nested too deeply to decode, or an integer with
    too many digits to decode raises ``ValueError("<file>:<line>: invalid JSON: <reason>")``,
    or with ``on_error`` is skipped after ``on_error`` is called with that error.
    A non-object line, or a ``KeyError``/``TypeError``/``ValueError`` from ``decode``,
    raises ``ValueError("<file>:<line> (id ...): <reason>")``; blank lines count.
    Lines come from :func:`numbered_lines`, which raises on the first that is not UTF-8.
    """
    source = getattr(fp, "name", "<stream>")
    for lineno, line in numbered_lines(fp):
        stripped = line.strip(" \t\n\r")
        if not stripped:
            continue
        # Past ``sys.get_int_max_str_digits()`` digits, json raises a bare ValueError.
        try:
            row = loads(stripped)
        except (ValueError, RecursionError) as exc:
            reason = "nested too deeply" if isinstance(exc, RecursionError) else exc
            error = ValueError(f"{source}:{lineno}: invalid JSON: {reason}")
            if on_error is None:
                raise error from exc
            on_error(error)
            continue
        if not isinstance(row, dict):
            raise ValueError(f"{source}:{lineno}: not a JSON object")
        if decode is not None:
            try:
                row = decode(row)
            except (KeyError, TypeError, ValueError) as exc:
                where = f"{source}:{lineno}"
                if "id" in row:
                    where += f" (id {row['id']!r})"
                raise decode_error(where, exc) from exc
        yield row


def numbered_lines(fp: TextIO | BinaryIO) -> Iterator[tuple[int, str]]:
    """``(lineno, line)`` for the lines of ``fp``.

    A binary stream, such as :func:`open_input` gives or ``io.BytesIO``, is cut at
    ``\\n``, ``\\r\\n`` and a lone ``\\r``, and each line is decoded strictly with its
    line end, which it keeps; the first line that is not valid UTF-8 raises
    ``ValueError("<file>:<line>: not valid UTF-8: ...")`` with the byte and the
    reason one strict decode of all the bytes gives. Any other stream, such as
    ``io.StringIO`` or a file opened in text mode, is read as it is.
    """
    if not isinstance(fp, io.BufferedIOBase):
        yield from enumerate(fp, start=1)
        return
    source = getattr(fp, "name", "<stream>")
    lineno = 0
    for chunk in fp:
        for raw in chunk.splitlines(keepends=True) if b"\r" in chunk else (chunk,):
            lineno += 1
            try:
                line = raw.decode()
            except UnicodeDecodeError as exc:
                raise _not_utf8(source, lineno, exc) from exc
            yield lineno, line


def _not_utf8(source: str, lineno: int, exc: UnicodeDecodeError) -> ValueError:
    """``ValueError("<source>:<lineno>: not valid UTF-8: ...")`` naming the byte and the
    reason of ``exc``."""
    reason = f"can't decode byte 0x{exc.object[exc.start]:02x}: {exc.reason}"
    return ValueError(f"{source}:{lineno}: not valid UTF-8: {reason}")


def line_ends(data: bytes) -> int:
    r"""The line ends in ``data``, as :func:`numbered_lines` cuts them: ``\n``, ``\r\n``
    and a lone ``\r``."""
    ends = data.count(b"\n")
    if b"\r" in data:
        ends += data.count(b"\r") - data.count(b"\r\n")
    return ends


def shifted(error: ValueError, source: str, lines: int) -> ValueError:
    """``error``, raised by :func:`iter_jsonl` on lines of ``source``, with its line
    number ``lines`` more: the error of the same line read after ``lines`` others."""
    rest = str(error)[len(source) + 1 :]
    digits = len(rest) - len(rest.lstrip("0123456789"))
    return ValueError(f"{source}:{int(rest[:digits]) + lines}{rest[digits:]}")


def decode_error(where: str, exc: Exception) -> ValueError:
    """``ValueError("<where>: <reason>")`` for an error a decoder raised."""
    reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return ValueError(f"{where}: {reason}")


def iter_jsonl_tolerant(fp: TextIO, on_error) -> Iterator[Any]:
    """``iter_jsonl(fp, on_error=on_error)``; kept because ``bench/traced.py`` imports it."""
    return iter_jsonl(fp, on_error=on_error)


@contextmanager
def open_input(path: str) -> Iterator[BinaryIO]:
    """Open ``path`` for reading as bytes; ``-`` means the bytes of stdin.

    The bytes go to :func:`numbered_lines` or :func:`read_json_file`, which cut and
    decode a pipe's lines as they do a file's.
    """
    if path == "-":
        yield sys.stdin.buffer
        return
    with open(path, "rb") as fp:
        yield fp


def _create_temp_file(path: str) -> tuple[int, str]:
    """Create a new, uniquely named file next to ``path`` and open it for writing.

    The mode is ``0o666`` less the umask, as ``open(path, "w")`` would give;
    ``tempfile.mkstemp`` would force ``0o600`` onto every output. Errors name ``path``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    while True:
        tmp_path = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
        try:
            return os.open(tmp_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666), tmp_path
        except FileExistsError:
            continue
        except OSError as exc:
            exc.filename = path
            raise


@contextmanager
def atomic_output(path: str) -> Iterator[TextIO]:
    """Write to a temp file and rename over ``path`` on success; ``-`` means stdout.

    The rename only happens when the body completes without raising, so a
    crashed run never leaves a truncated output file behind. The output gets
    the same permissions as a file made with ``open(path, "w")``. An existing
    directory is refused before the temp file is made, and an error in making or
    renaming that file names ``path`` as given.
    """
    if path == "-":
        yield sys.stdout
        sys.stdout.flush()
        return
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    fd, tmp_path = _create_temp_file(path)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fp:
            yield fp
        try:
            os.replace(tmp_path, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from exc
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def write_json(fp: TextIO, obj: Any, path: str) -> None:
    """Write ``obj`` to ``fp``, the output ``path``, as :func:`dumps_pretty` gives it,
    with a trailing newline.

    A value nested too deeply to encode, about 1,000 levels, raises
    ``ValueError("<path>: JSON nested too deeply")`` before anything is written.
    """
    try:
        text = dumps_pretty(obj)
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply") from exc
    fp.write(text)
    fp.write("\n")


def write_json_file(path: str, obj: Any) -> None:
    """Atomically write ``obj`` to ``path`` with :func:`write_json`; an error leaves no
    file behind."""
    with atomic_output(path) as fp:
        write_json(fp, obj, path)


def read_json_file(path: str, decode=None) -> Any:
    """The JSON value in ``path`` (``-`` means stdin), or ``decode(value)`` if given.

    Errors count ``\\n``, ``\\r\\n`` and a lone ``\\r`` as line ends, on stdin as on a file.
    A byte that is not UTF-8 raises the error :func:`numbered_lines` gives,
    ``ValueError("<file>:<line>: not valid UTF-8: ...")``. Invalid JSON raises
    ``ValueError("<file>:<line>:<col>: invalid JSON: ...")``, a lone surrogate (see
    :func:`loads`) or a ``KeyError``/``TypeError``/``ValueError`` from ``decode``
    ``ValueError("<file>: ...")``, and a value nested too deeply to decode or
    convert ``ValueError("<file>: JSON nested too deeply")``.
    """
    with open_input(path) as fp:
        source = getattr(fp, "name", path)
        data = fp.read()
        try:
            text = data.decode()
        except UnicodeDecodeError as exc:
            raise _not_utf8(source, line_ends(data[: exc.start]) + 1, exc) from exc
        try:
            # Line ends become "\n", as text mode makes them, for the line numbers.
            value = loads(text.replace("\r\n", "\n").replace("\r", "\n"))
            return value if decode is None else decode(value)
        except json.JSONDecodeError as exc:
            where = f"{source}:{exc.lineno}:{exc.colno}"
            raise ValueError(f"{where}: invalid JSON: {exc.msg}") from exc
        except RecursionError as exc:
            raise ValueError(f"{source}: JSON nested too deeply") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise decode_error(source, exc) from exc


# Field annotation -> (description, JSON types, conversion of a list of
# strings). Types match exactly, so a bool is never a number, and numbers keep
# their JSON type, so a config written back out has the same bytes. A number
# must also be finite as a double: JSON leaves the range to the reader, and
# Python's json reads NaN, Infinity and integers of any size, so those are
# refused here, for every number read from a file.
_KINDS = {
    "str": ("a string", (str,), None),
    "str | None": ("a string or null", (str, type(None)), None),
    "int": ("an integer", (int,), None),
    "float": ("a number", (int, float), None),
    "bool": ("true or false", (bool,), None),
    "list": ("a list", (list,), None),
    "dict": ("an object", (dict,), None),
    "tuple[str, ...]": ("a list of strings", (list,), tuple),
    "frozenset[str]": ("a list of strings", (list,), frozenset),
}


def typed_value(value: Any, kind: str, name: str) -> Any:
    """``value`` as ``kind`` (a key of ``_KINDS``); ``ValueError`` naming ``name`` otherwise."""
    description, types, convert = _KINDS[kind]
    if type(value) not in types or (convert and not all(type(v) is str for v in value)):
        raise ValueError(f"{name} must be {description}, got {value!r}")
    if kind == "float" and not abs(value) <= sys.float_info.max:
        # A huge integer is shown by its length, not by its hundreds of digits.
        shown = value if type(value) is float else f"an integer of {len(str(abs(value)))} digits"
        raise ValueError(f"{name} must be finite, got {shown}")
    return value if convert is None else convert(value)


def json_object(value: Any, what: str, known) -> dict:
    """``value``, which must be a JSON object with no keys outside ``known``."""
    typed_value(value, "dict", what)
    unknown = sorted(set(value).difference(known))
    if unknown:
        raise ValueError(f"unknown {what} keys: {unknown}")
    return value


def from_json_object(cls, obj: Any, what: str, **fixed: Any) -> Any:
    """The dataclass ``cls`` from the JSON object ``obj`` (called ``what`` in errors).

    Each key must be a field of ``cls`` holding a value of the field's kind,
    or ``ValueError("<what>: <key> must be ...")`` is raised; ``fixed`` gives
    the fields that do not come from ``obj``. A range error from ``cls``
    itself is raised as ``ValueError("<what>: <reason>")``.
    """
    fields = cls.__dataclass_fields__
    json_object(obj, what, [name for name in fields if name not in fixed])
    kwargs = {
        key: typed_value(value, fields[key].type, f"{what}: {key}") for key, value in obj.items()
    }
    try:
        return cls(**fixed, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from exc
