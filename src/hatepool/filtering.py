"""Stream filtering of web-index records down to conversational content.

A record survives when its URL path contains one of the configured
conversation keywords and the page declares a whitelisted schema.org
type. Optional per-language reservoir subsampling then trims the
surviving stream to fixed quotas.

A plain URL, ``scheme://host[/path][?query][#fragment]`` written only in
RFC 3986 characters other than ``;``, ``@``, ``[`` and ``]``, has its path
read by one regular expression; any other URL goes through ``urlparse``.
Both give the same path, so the fast path changes no verdict.
"""

from __future__ import annotations

import re
import tempfile
from array import array
from dataclasses import asdict, dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Mapping, MutableSequence, TextIO
from urllib.parse import unquote, urlparse

import numpy as np

from ._jsonl import dumps, from_json_object, typed_value

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
        return cls(
            id=str(row["id"]),
            url=str(row["url"]),
            lang=str(row["lang"]),
            schema_types=typed_value(row["schema_types"], "tuple[str, ...]", "schema_types"),
            text=typed_value(row["text"], "str", "text"),
        )

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
        return unquote(plain[1]).lower()
    try:
        parsed = urlparse(url)
    except ValueError as exc:
        raise UrlParseError(f"unparseable URL: {url!r}") from exc
    if not parsed.scheme or not parsed.netloc:
        raise UrlParseError(f"not an absolute URL: {url!r}")
    return unquote(parsed.path).lower()


def url_keyword_match(url: str, config: FilterConfig | None = None) -> bool:
    """True when the URL path contains any configured keyword as a substring."""
    path = normalize_url_path(url)
    return (config or _DEFAULT_CONFIG)._search_path(path) is not None


def schema_type_match(schema_types: Iterable[str], config: FilterConfig | None = None) -> bool:
    """True when any declared type is whitelisted (bare or schema.org-prefixed).

    Type names are compared case-sensitively.
    """
    return not (config or _DEFAULT_CONFIG)._accepted_types.isdisjoint(schema_types)


def filter_records(
    records: Iterable[WebRecord], config: FilterConfig | None = None
) -> tuple[Iterator[WebRecord], FilterStats]:
    """Lazily filter ``records``, updating the returned stats as you consume.

    The URL criterion is checked first, so a record failing both counts
    only as ``dropped_url``. The stats object is complete once the
    iterator is exhausted.
    """
    config = config or _DEFAULT_CONFIG
    stats = FilterStats()

    def generate() -> Iterator[WebRecord]:
        for record in records:
            stats.records_seen += 1
            try:
                url_ok = url_keyword_match(record.url, config)
            except UrlParseError:
                stats.dropped_url += 1
                stats.parse_failures += 1
                continue
            if not url_ok:
                stats.dropped_url += 1
                continue
            if not schema_type_match(record.schema_types, config):
                stats.dropped_schema += 1
                continue
            stats.kept += 1
            stats.kept_by_language[record.lang] = stats.kept_by_language.get(record.lang, 0) + 1
            yield record

    return generate(), stats


def language_rng(seed: int, lang: str) -> np.random.Generator:
    """Per-language generator: independent streams, stable across runs."""
    lang_key = int.from_bytes(lang.encode("utf-8"), "big") if lang else 0
    return np.random.default_rng([seed & _SEED_MASK, lang_key])


class _Reservoirs:
    """One Algorithm R reservoir per quota'd language, holding the caller's items.

    Each language draws from its own :func:`language_rng`. ``new_reservoir``
    makes a language's reservoir at its first arrival, and ``held`` maps each
    language that has one to it.
    """

    def __init__(self, quotas: Mapping[str, int], seed: int, new_reservoir=list) -> None:
        for lang, quota in quotas.items():
            if quota < 0:
                raise ValueError(f"negative quota for language {lang!r}: {quota}")
        self._quotas = quotas
        self._seed = seed
        self._new_reservoir = new_reservoir
        self._seen: dict[str, int] = {}
        self._rngs: dict[str, np.random.Generator] = {}
        self.held: dict[str, MutableSequence] = {}

    def offer(self, lang: str, item) -> bool:
        """Offer ``item`` as the next record of the quota'd ``lang``; True if it enters.

        An item that enters takes a free slot, or evicts the holder of the
        slot that Algorithm R draws.
        """
        quota = self._quotas[lang]
        position = self._seen.get(lang, 0)
        self._seen[lang] = position + 1
        if quota == 0:
            return False
        if position == 0:
            self._rngs[lang] = language_rng(self._seed, lang)
            self.held[lang] = self._new_reservoir()
        if position < quota:
            self.held[lang].append(item)
            return True
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
    input order of the surviving records.
    """
    reservoirs = _Reservoirs(quotas, seed)
    passthrough: list[tuple[int, WebRecord]] = []
    for index, record in enumerate(records):
        if record.lang in quotas:
            reservoirs.offer(record.lang, (index, record))
        else:
            passthrough.append((index, record))
    survivors = passthrough + [pair for pairs in reservoirs.held.values() for pair in pairs]
    survivors.sort(key=lambda pair: pair[0])
    return [record for _, record in survivors]


def write_subsample(
    records: Iterable[WebRecord],
    quotas: Mapping[str, int],
    seed: int,
    out_fp: TextIO,
    spool_dir: str | None = None,
) -> int:
    """Write :func:`subsample_by_language`'s records to ``out_fp`` as JSONL; return their count.

    Memory is bounded by the quotas, not by the input. Each record that
    passes through or enters a reservoir is serialised once, on arrival, to
    an anonymous spool file in ``spool_dir`` (the default temp directory when
    None), behind a one-character tag: ``p`` passes through, ``r`` entered a
    reservoir. The reservoirs hold spool line numbers. When the input ends,
    the spool is copied to ``out_fp`` in one pass, untagged, keeping every
    ``p`` line and each ``r`` line still held by its reservoir.
    """
    reservoirs = _Reservoirs(quotas, seed, lambda: array("q"))
    spooled = 0
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n", dir=spool_dir) as spool:
        for record in records:
            if record.lang not in quotas:
                tag = "p"
            elif reservoirs.offer(record.lang, spooled):
                tag = "r"
            else:
                continue
            spool.write(f"{tag}{dumps(record.to_dict())}\n")
            spooled += 1
        survivors = set(chain.from_iterable(reservoirs.held.values()))
        spool.seek(0)
        written = 0
        for lineno, line in enumerate(spool):
            if line[0] == "r" and lineno not in survivors:
                continue
            out_fp.write(line[1:])
            written += 1
    return written
