"""Stream filtering of web-index records down to conversational content.

A record survives when its URL path contains one of the configured
conversation keywords and the page declares a whitelisted schema.org
type. Optional per-language reservoir subsampling then trims the
surviving stream to fixed quotas.

A plain URL, ``scheme://host[/path][?query][#fragment]`` written only in
RFC 3986 characters other than ``;``, ``@``, ``[`` and ``]``, has its path
read by one regular expression; any other URL goes through ``urlparse``.
Both give the same path, so the fast path changes no verdict.

``filter`` reads its input in one loop: ``iter_jsonl`` decodes each line, the
record's five fields are checked on the decoded dict, the keep rule counts it,
and a kept record's five fields are encoded once by :func:`_jsonl.dumps`, with no
:class:`WebRecord` in between. :func:`filter_records` applies the same keep rule
to records, and :meth:`WebRecord.from_dict` the same field checks.

``filter`` on a regular file with more than one range (:data:`RANGE_BYTES`,
2.5 MiB) left past its offset, when ``os.sched_getaffinity`` gives more than one
CPU, cuts the rest at line ends once and forks one worker per CPU, but no more
than there are ranges. Worker k of w decodes, filters and serialises ranges k,
k + w, ..., one at a time, decoding each line once, strictly, from the range's
bytes, and pickles each range's results down a pipe that this process alone
reads, range i from pipe i mod w, keeping the counters, the warnings and the
reservoirs in input order. A worker that dies fails the command; a worker whose
command is gone fails its next write. Nothing goes through a file. A pipe, an
input with no descriptor and a file with one range left are filtered in this
process, read as bytes and cut into lines as the workers cut them. Either way
the output, the stats and every message are the same.
"""

from __future__ import annotations

import io
import os
import pickle
import re
import signal
import stat
import sys
import tempfile
from array import array
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, Mapping, Sequence
from urllib.parse import unquote, urlparse

from ._jsonl import dumps, from_json_object, iter_jsonl, line_ends, shifted, typed_value

if TYPE_CHECKING:
    import numpy as np

DEFAULT_URL_KEYWORDS = (
    "thread",
    "forum",
    "reply",
    "post",
    "status update",
    "quote",
)

# Conversational schema.org types, accepted as bare names or prefixed with
# http://schema.org/ or https://schema.org/.
DEFAULT_SCHEMA_WHITELIST = frozenset(
    {
        "DiscussionForumPosting",
        "SocialMediaPosting",
        "BlogPosting",
        "Article",
        "Comment",
        "UserComments",
        "QAPage",
        "Question",
        "Review",
        "Blog",
    }
)

_SCHEMA_PREFIXES = ("https://schema.org/", "http://schema.org/")

_SEED_MASK = 0xFFFFFFFFFFFFFFFF

# A plain absolute URL, in positive ASCII classes only: no whitespace,
# controls, non-ASCII, ";", "@", "[", "]" or "\\". The scheme holds no ":",
# so its ":" is the URL's first colon, as ``urlsplit`` requires; the host is
# nonempty and, like ``urlsplit``'s path, ends at the first "/", "?" or "#".
_URL_CHARS = r"A-Za-z0-9\-._~!$&'()*+,=:%"
_PLAIN_URL = re.compile(
    rf"[A-Za-z][A-Za-z0-9+.\-]*://[{_URL_CHARS}]+"
    rf"((?:/[{_URL_CHARS}/]*)?)(?:\?[{_URL_CHARS}/?]*)?(?:#[{_URL_CHARS}/?#]*)?"
)


class UrlParseError(ValueError):
    """Raised when a record URL is not an absolute parseable URL."""


# A web record's fields, in the order they are checked, and their kinds.
_RECORD_KINDS = (("id", "str"), ("url", "str"), ("lang", "str"),
                 ("schema_types", "tuple[str, ...]"), ("text", "str"))


def _record_fields(row: Mapping) -> tuple[str, str, str, Sequence[str], str]:
    """``(id, url, lang, schema_types, text)`` of the web record ``row``.

    The first field, in that order, that is missing or of the wrong type raises
    ``KeyError`` or ``typed_value``'s ``ValueError``.
    """
    try:
        fields = row["id"], row["url"], row["lang"], row["schema_types"], row["text"]
    except KeyError:
        pass
    else:
        id_, url, lang, schema_types, text = fields
        if (type(id_) is str and type(url) is str and type(lang) is str
                and type(text) is str and type(schema_types) is list
                and all(type(t) is str for t in schema_types)):
            return fields
    # Some field is missing or wrong: check them one by one for the message.
    return tuple(typed_value(row[name], kind, name) for name, kind in _RECORD_KINDS)


@dataclass(frozen=True)
class WebRecord:
    """One exported web-index record."""

    id: str
    url: str
    lang: str
    schema_types: tuple[str, ...]
    text: str

    @classmethod
    def from_dict(cls, row: Mapping) -> "WebRecord":
        id_, url, lang, schema_types, text = _record_fields(row)
        return cls(id_, url, lang, tuple(schema_types), text)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "url": self.url,
            "lang": self.lang,
            "schema_types": list(self.schema_types),
            "text": self.text,
        }


@dataclass(frozen=True)
class FilterConfig:
    """Keyword and schema-type criteria for :func:`filter_records`.

    ``expand_multiword_keywords`` also matches hyphen/underscore spellings
    of keywords that contain spaces ("status update" additionally matches
    "status-update" and "status_update"). Disable it to require the exact
    spelling only.
    """

    url_keywords: tuple[str, ...] = DEFAULT_URL_KEYWORDS
    schema_whitelist: frozenset[str] = DEFAULT_SCHEMA_WHITELIST
    expand_multiword_keywords: bool = True

    def __post_init__(self) -> None:
        if not self.url_keywords:
            raise ValueError("url_keywords must be nonempty")
        if not self.schema_whitelist:
            raise ValueError("schema_whitelist must be nonempty")
        for kw in self.url_keywords:
            if not kw:
                raise ValueError("url keywords must be nonempty strings")
            if kw != kw.lower():
                raise ValueError(f"url keywords must be lowercase: {kw!r}")
        # The match rules, derived once and kept outside the dataclass fields.
        spellings = []
        for kw in self.url_keywords:
            spellings.append(kw)
            if self.expand_multiword_keywords and " " in kw:
                spellings += (kw.replace(" ", "-"), kw.replace(" ", "_"))
        # A declared type loses at most one schema.org prefix, so it matches
        # as a whitelisted name without a prefix, or as one prefix followed by
        # any whitelisted name.
        whitelist = self.schema_whitelist
        accepted = {name for name in whitelist if not name.startswith(_SCHEMA_PREFIXES)}
        accepted.update(prefix + name for prefix in _SCHEMA_PREFIXES for name in whitelist)
        search_path = re.compile("|".join(map(re.escape, spellings))).search
        object.__setattr__(self, "_search_path", search_path)
        object.__setattr__(self, "_accepted_types", frozenset(accepted))

    @classmethod
    def from_dict(cls, cfg: Mapping) -> "FilterConfig":
        return from_json_object(cls, cfg, "filter config")


_DEFAULT_CONFIG = FilterConfig()


@dataclass
class FilterStats:
    """Counters accumulated by one :func:`filter_records` pass.

    ``records_seen == kept + dropped_url + dropped_schema`` always holds;
    records whose URL cannot be parsed count toward ``dropped_url`` and
    are additionally tallied in ``parse_failures``.
    """

    records_seen: int = 0
    kept: int = 0
    dropped_url: int = 0
    dropped_schema: int = 0
    parse_failures: int = 0
    kept_by_language: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**asdict(self), "kept_by_language": dict(sorted(self.kept_by_language.items()))}

    def add(self, other: FilterStats) -> None:
        """Add the counts of ``other``, a pass over a later part of the input."""
        self.records_seen += other.records_seen
        self.kept += other.kept
        self.dropped_url += other.dropped_url
        self.dropped_schema += other.dropped_schema
        self.parse_failures += other.parse_failures
        for lang, n in other.kept_by_language.items():
            self.kept_by_language[lang] = self.kept_by_language.get(lang, 0) + n


def normalize_url_path(url: str) -> str:
    """Return the percent-decoded, lowercased path component of ``url``.

    Decoding happens before lowercasing so that percent-encoded letters
    ("%46orum") land in the same form as literal ones. Query strings and
    fragments are not part of the returned path.

    A plain URL (see the module docstring) takes the path its regular
    expression matched; every other URL is split by ``urlparse``, which
    also decides which of them raise :class:`UrlParseError`.
    """
    plain = _PLAIN_URL.fullmatch(url)
    if plain is not None:
        path = plain[1]
        return (unquote(path) if "%" in path else path).lower()
    try:
        parsed = urlparse(url)
    except ValueError as exc:
        raise UrlParseError(f"unparseable URL: {url!r}") from exc
    if not parsed.scheme or not parsed.netloc:
        raise UrlParseError(f"not an absolute URL: {url!r}")
    return unquote(parsed.path).lower()


def filter_records(
    records: Iterable[WebRecord], config: FilterConfig | None = None
) -> tuple[Iterator[WebRecord], FilterStats]:
    """Lazily filter ``records``, updating the returned stats as you consume.

    A record is kept when its :func:`normalize_url_path` holds a keyword of
    ``config`` as a substring and any of its declared types is whitelisted.
    Types are compared case-sensitively, bare or behind one ``https://schema.org/``
    or ``http://schema.org/`` prefix. The URL criterion is checked first, so a
    record failing both counts only as ``dropped_url``. The stats object is
    complete once the iterator is exhausted.
    """
    config = config or _DEFAULT_CONFIG
    stats = FilterStats()

    def generate() -> Iterator[WebRecord]:
        for record in records:
            if _keep(record.url, record.lang, record.schema_types, config, stats):
                yield record

    return generate(), stats


def _keep(url: str, lang: str, schema_types: Iterable[str], config: FilterConfig,
          stats: FilterStats) -> bool:
    """True when the record is kept; counts it into ``stats`` either way."""
    stats.records_seen += 1
    try:
        path = normalize_url_path(url)
    except UrlParseError:
        stats.dropped_url += 1
        stats.parse_failures += 1
        return False
    if config._search_path(path) is None:
        stats.dropped_url += 1
        return False
    if config._accepted_types.isdisjoint(schema_types):
        stats.dropped_schema += 1
        return False
    stats.kept += 1
    stats.kept_by_language[lang] = stats.kept_by_language.get(lang, 0) + 1
    return True


def language_rng(seed: int, lang: str) -> np.random.Generator:
    """Per-language generator: independent streams, stable across runs."""
    import numpy as np  # only ``--quota`` pays for numpy
    lang_key = int.from_bytes(lang.encode("utf-8"), "big") if lang else 0
    return np.random.default_rng([seed & _SEED_MASK, lang_key])


class _Reservoirs:
    """``held``: one Algorithm R reservoir per quota'd language, an ``array("q")``
    of the caller's integer items; each language draws from its own :func:`language_rng`."""

    def __init__(self, quotas: Mapping[str, int], seed: int) -> None:
        for lang, quota in quotas.items():
            if quota < 0:
                raise ValueError(f"negative quota for language {lang!r}: {quota}")
        self._quotas = quotas
        self._seen = dict.fromkeys(quotas, 0)
        self._rngs = {lang: language_rng(seed, lang) for lang in quotas}
        self.held = {lang: array("q") for lang in quotas}

    def offer(self, lang: str, item: int) -> bool:
        """Offer ``item`` as the next record of the quota'd ``lang``; True if it enters.

        An item that enters takes a free slot, or evicts the holder of the
        slot that Algorithm R draws.
        """
        quota = self._quotas[lang]
        position = self._seen[lang]
        self._seen[lang] = position + 1
        if position < quota:
            self.held[lang].append(item)
            return True
        if quota == 0:
            return False
        slot = int(self._rngs[lang].integers(0, position + 1))
        if slot >= quota:
            return False
        self.held[lang][slot] = item
        return True


def subsample_by_language(
    records: Iterable[WebRecord], quotas: Mapping[str, int], seed: int
) -> list[WebRecord]:
    """Reservoir-sample each quota'd language down to its quota.

    Uses Algorithm R with one seeded generator per language, so a language's
    sample does not depend on which other languages are present. Languages
    absent from ``quotas`` pass through untouched. Output preserves the
    input order of the surviving records, which are the caller's own
    objects. The input is held as a list, and each record's index goes
    through :func:`write_kept` as one line.
    """
    records = list(records)
    out = io.BytesIO()
    write_kept(((b"%d\n" % i, (r.lang,)) for i, r in enumerate(records)), quotas, seed, out)
    return [records[int(line)] for line in out.getvalue().splitlines()]


def write_kept(
    chunks: Iterable[tuple[bytes, Sequence[str]]],
    quotas: Mapping[str, int] | None,
    seed: int,
    out: BinaryIO,
    spool_dir: str | None = None,
) -> int:
    r"""Write the kept records to ``out`` as JSONL; return how many were written.

    Each chunk is ``(data, langs)``: records serialised one per line in
    UTF-8, each line ending in ``\n``, and their languages. Without
    ``quotas`` the data is written as it comes. With ``quotas`` each quota'd
    language is cut to its quota by Algorithm R, drawing from its own
    :func:`language_rng`, and every other language passes through; the
    records written keep their input order. Memory is bounded by the
    quotas, not by the input: each record that passes through or enters
    a reservoir is copied, on arrival, to an anonymous spool file in
    ``spool_dir`` (the default temp directory when None), behind a
    one-character tag: ``p`` passes through, ``r`` entered a reservoir. The
    reservoirs hold spool line numbers. When the input ends, the spool is
    copied to ``out`` in one pass, untagged, keeping every ``p`` line and
    each ``r`` line still held by its reservoir.
    """
    if not quotas:
        written = 0
        for data, langs in chunks:
            out.write(data)
            written += len(langs)
        return written
    reservoirs = _Reservoirs(quotas, seed)
    spooled = 0
    with tempfile.TemporaryFile(dir=spool_dir) as spool:
        for data, langs in chunks:
            end = 0
            for lang in langs:
                start, end = end, data.index(b"\n", end) + 1
                if lang not in quotas:
                    tag = b"p"
                elif reservoirs.offer(lang, spooled):
                    tag = b"r"
                else:
                    continue
                spool.write(tag + data[start:end])
                spooled += 1
        survivors = set(chain.from_iterable(reservoirs.held.values()))
        spool.seek(0)
        written = 0
        for lineno, line in enumerate(spool):
            if line[0] == ord("r") and lineno not in survivors:
                continue
            out.write(line[1:])
            written += 1
    return written


# Size of the byte ranges :func:`filter_file` hands to its workers, 2.5 MiB.
# On 2 vCPUs and a 90 MB input that keeps 30% of its bytes, ranges of 2.5,
# 3 and 4 MiB took the same wall and CPU time, while the workers' peak RSS
# grew with the range (27.2-28.9, 28.1-28.2 and 29.7-32.4 MB). The parent's
# was 38.4-40.3 MB at each size, and 36.8 MB in one process.
RANGE_BYTES = 5 << 19

_LINE_END_BYTE = re.compile(rb"[\r\n]")


def _after_line_end(fd: int, at: int) -> int:
    r"""The offset just past the first line end, ``\n``, ``\r\n`` or a lone ``\r``,
    whose last byte is at or past ``at`` in the file open as ``fd`` (past the end if
    there is none); it reads on in small blocks, and never cuts ``\r\n`` in two."""
    while block := os.pread(fd, io.DEFAULT_BUFFER_SIZE, at):
        if found := _LINE_END_BYTE.search(block):
            at += found.end()
            return at + 1 if found[0] == b"\r" and os.pread(fd, 1, at) == b"\n" else at
        at += len(block)
    return at


def _cuts(fd: int) -> array:
    """The offset of ``fd``, then the end of each range of about :data:`RANGE_BYTES` that
    tiles the file open as ``fd`` from there, each at a line end; nothing between is read."""
    size = os.fstat(fd).st_size
    cuts = array("q", [os.lseek(fd, 0, os.SEEK_CUR)])
    while cuts[-1] < size:
        cuts.append(min(_after_line_end(fd, cuts[-1] + RANGE_BYTES - 1), size))
    return cuts


@contextmanager
def _signals_held() -> Iterator[None]:
    """Hold Ctrl-C (SIGINT) and SIGTERM back in this thread until the block ends; the
    processes it forks meanwhile never see them.

    Raised between a fork and the line that keeps the child's pid, an interrupt
    would lose the worker; raised while the workers are killed and reaped, it
    could leave some running. Workers forked inside the block keep both signals
    held for good, so this process alone decides when they stop.
    """
    held = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT, signal.SIGTERM])
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, held)


def _kept_chunks(
    fp: BinaryIO, config: FilterConfig, on_error, stats: FilterStats
) -> Iterator[tuple[bytes, tuple[str]]]:
    """The records of ``iter_jsonl`` of ``fp`` that :func:`filter_records` would keep,
    each as a chunk for :func:`write_kept`: its JSON line and its language. Every
    record read is counted into ``stats``.

    One loop takes each row's fields from :func:`_record_fields` and encodes a
    kept record's five fields once, with no :class:`WebRecord` in between.
    """
    for id_, url, lang, schema_types, text in iter_jsonl(fp, _record_fields, on_error):
        if _keep(url, lang, schema_types, config, stats):
            record = {"id": id_, "url": url, "lang": lang, "schema_types": schema_types,
                      "text": text}
            yield dumps(record).encode() + b"\n", (lang,)


def _range_result(fd: int, name: str, start: int, end: int, config: FilterConfig):
    r"""Filter the bytes ``start`` to ``end`` of the file named ``name``, open as ``fd``,
    as the one-process path reads them.

    The range's bytes go to ``iter_jsonl`` as they are, so each line is decoded
    once, strictly, from them. Returns the range's ``FilterStats``, its
    :func:`line_ends`, its malformed-line errors and its first fatal error (or
    None), both with line numbers counted from the range's start, and its kept
    records as one :func:`write_kept` chunk.
    """
    # One read gives at most 2 GiB, so the range is read a GiB at a time.
    data = b"".join(os.pread(fd, min(end - at, 1 << 30), at)
                    for at in range(start, end, 1 << 30))
    buffer = io.BytesIO(data)
    buffer.name = name
    malformed: list[ValueError] = []
    stats = FilterStats()
    lines: list[bytes] = []
    langs: list[str] = []
    error = None
    try:
        for line, (lang,) in _kept_chunks(buffer, config, malformed.append, stats):
            lines.append(line)
            # One object per language, so each is pickled once.
            langs.append(sys.intern(lang))
    except ValueError as exc:
        error = exc
    return stats, line_ends(data), malformed, error, b"".join(lines), langs


def _fork_worker(fd: int, name: str, cuts: array, first: int, step: int,
                 config: FilterConfig, readers: list[BinaryIO]) -> int:
    """Fork a worker that pickles the :func:`_range_result` of ranges ``first``, ``first
    + step``, ... of ``cuts`` down a new pipe; append the pipe's read end to
    ``readers``, all of which the worker closes, and return the worker's pid.

    The worker leaves only through ``os._exit``: once its ranges are sent, or at a
    failed write, as with ``EPIPE`` once this process is gone."""
    import fcntl

    read_fd, write_fd = os.pipe()
    readers.append(open(read_fd, "rb"))
    # 1 MiB, Linux's default ``pipe-max-size``. On 2 vCPUs and a 90 MB input, with
    # 64 KiB pipes the workers waited for reads: 8% more wall and 15% more CPU time.
    with suppress(AttributeError, OSError):  # not Linux, or over this user's pipe quota
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 1 << 20)
    if (pid := os.fork()) == 0:
        try:
            for reader in readers:
                os.close(reader.fileno())
            out = open(write_fd, "wb")
            for i in range(first, len(cuts) - 1, step):
                pickle.dump(_range_result(fd, name, cuts[i], cuts[i + 1], config), out,
                            pickle.HIGHEST_PROTOCOL)
                out.flush()
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid


def _filter_workers(fp: BinaryIO) -> int:
    """The most worker processes :func:`filter_file` may run on ``fp``: one per CPU this
    process may run on, for a regular file with more than one range left past its
    offset, on more than one CPU; 0, to stream the input in this process, otherwise."""
    try:
        info, cpus = os.fstat(fp.fileno()), len(os.sched_getaffinity(0))
    except (AttributeError, io.UnsupportedOperation):  # no CPU affinity, or no descriptor
        return 0
    if cpus < 2 or not stat.S_ISREG(info.st_mode) or info.st_size - fp.tell() <= RANGE_BYTES:
        return 0
    return cpus


def filter_file(
    fp: BinaryIO, config: FilterConfig, on_error
) -> tuple[Iterator[tuple[bytes, Sequence[str]]], FilterStats]:
    r""":func:`filter_records` over ``iter_jsonl`` of the binary file ``fp`` from its
    offset on, named ``fp.name`` in messages, in this process or on worker processes;
    the kept records come as :func:`write_kept` chunks.

    On workers, the file is cut once by :func:`_cuts`, from its descriptor's offset, so
    ``fp`` must hold no bytes read ahead in a buffer, and ``w`` workers, the
    :func:`_filter_workers` but no more than the ranges, are forked by
    :func:`_fork_worker`, each reading that descriptor. This process reads range ``i``
    from pipe ``i mod w``, one range at a time, in input order: it calls
    ``on_error`` with each malformed-line error, raises a range's fatal error after
    the errors before it, and adds up the counters, with line numbers counted from
    the offset, so every message is the one-process path's. A pipe that ends before
    the range awaited from it raises ``ValueError`` naming that range. The last range
    leaves ``fp`` at its end, as reading does. The stats are complete once the iterator
    is exhausted; the workers are killed and reaped when it ends, fails or is closed.
    """
    stats = FilterStats()
    workers = _filter_workers(fp)
    if not workers:
        return _kept_chunks(fp, config, on_error, stats), stats

    def generate() -> Iterator[tuple[bytes, list[str]]]:
        fd, name = fp.fileno(), fp.name
        cuts = _cuts(fd)
        step = min(workers, len(cuts) - 1)
        pids, readers = [], []
        try:
            with _signals_held():  # the one thread: ``cli.main`` starts no OpenBLAS one
                for first in range(step):
                    pids.append(_fork_worker(fd, name, cuts, first, step, config, readers))
            lines = 0
            for i in range(len(cuts) - 1):
                try:
                    part, ends, malformed, error, kept, langs = pickle.load(readers[i % step])
                except (EOFError, pickle.UnpicklingError):  # its worker died
                    raise ValueError(f"{name}: a filter worker died before the result for "
                                     f"bytes {cuts[i]}-{cuts[i + 1]} came back") from None
                for exc in malformed:
                    on_error(shifted(exc, name, lines))
                if error is not None:
                    raise shifted(error, name, lines)
                stats.add(part)
                lines += ends
                yield kept, langs
                del kept, langs  # freed before the next range is read
            fp.seek(cuts[-1])
        finally:
            with _signals_held():
                for pid in pids:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                for reader in readers:
                    reader.close()

    return generate(), stats
