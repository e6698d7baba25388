"""Reference URL-keyword and schema-type rules and reservoir sample for the filter tests.

The rules are the per-record ones the filter used before it derived its match
rules once per config: every URL is split by ``urlparse``, every keyword
spelling is rebuilt and tested as a substring, and every declared type is
stripped of its first matching schema.org prefix, for each record. The
property tests in ``test_filtering.py`` require the same paths and verdicts.

:func:`reservoir_sample` replays Algorithm R (Vitter, "Random Sampling with a
Reservoir", ACM TOMS 1985) one language at a time, deriving each language's
generator itself, so the ``filter --quota`` tests compare the sampler with a
replay that shares none of its code.

:func:`filter_command` restates what ``filter`` does with a JSONL input, line
by line, from these rules and the standard library's ``json``: its exit code,
kept records, stats and messages.
"""

import json
import re
from types import SimpleNamespace
from urllib.parse import unquote, urlparse

import numpy as np

from hatepool.filtering import FilterConfig, UrlParseError

_SCHEMA_PREFIXES = ("https://schema.org/", "http://schema.org/")


def normalize_url_path(url: str) -> str:
    """The percent-decoded, lowercased path of ``url``, as ``urlparse`` splits it."""
    try:
        parsed = urlparse(url)
    except ValueError as exc:
        raise UrlParseError(f"unparseable URL: {url!r}") from exc
    if not parsed.scheme or not parsed.netloc:
        raise UrlParseError(f"not an absolute URL: {url!r}")
    return unquote(parsed.path).lower()


def _keyword_variants(keyword: str, expand: bool) -> tuple[str, ...]:
    if expand and " " in keyword:
        return (keyword, keyword.replace(" ", "-"), keyword.replace(" ", "_"))
    return (keyword,)


def url_keyword_match(url: str, config: FilterConfig | None = None) -> bool:
    """True when the URL path contains any configured keyword as a substring."""
    config = config or FilterConfig()
    path = normalize_url_path(url)
    for keyword in config.url_keywords:
        for variant in _keyword_variants(keyword, config.expand_multiword_keywords):
            if variant in path:
                return True
    return False


def schema_type_match(schema_types, config: FilterConfig | None = None) -> bool:
    """True when any declared type is whitelisted (bare or schema.org-prefixed).

    Type names are compared case-sensitively.
    """
    config = config or FilterConfig()
    for declared in schema_types:
        name = declared
        for prefix in _SCHEMA_PREFIXES:
            if declared.startswith(prefix):
                name = declared[len(prefix):]
                break
        if name in config.schema_whitelist:
            return True
    return False


def reservoir_sample(records, quotas, seed):
    """The ``records`` (each with a ``lang``) left after Algorithm R cuts each language
    in ``quotas`` to its quota, in input order.

    Language ``lang`` draws from ``np.random.default_rng([seed mod 2**64, key])``,
    where ``key`` is ``lang``'s UTF-8 bytes read as a big-endian integer (0 for
    ``""``). Its first ``quota`` records fill the reservoir; record ``pos`` (from
    0) after them draws ``j`` in ``[0, pos]`` and replaces slot ``j`` if
    ``j < quota``.
    """
    records = list(records)
    dropped = set()
    for lang, quota in quotas.items():
        positions = [i for i, record in enumerate(records) if record.lang == lang]
        key = int.from_bytes(lang.encode(), "big") if lang else 0
        rng = np.random.default_rng([seed & (2**64 - 1), key])
        reservoir = positions[:quota]
        for pos in range(quota, len(positions)):
            j = int(rng.integers(0, pos + 1))
            if j < quota:
                reservoir[j] = positions[pos]
        dropped.update(set(positions) - set(reservoir))
    return [record for i, record in enumerate(records) if i not in dropped]


# A web record's fields in the order they are checked, and what each must be.
RECORD_FIELDS = (("id", "a string"), ("url", "a string"), ("lang", "a string"),
                 ("schema_types", "a list of strings"), ("text", "a string"))


def record_error(row):
    """The reason the JSON object ``row`` is no web record, or None if it is one."""
    for name, description in RECORD_FIELDS:
        if name not in row:
            return f"missing key {name!r}"
        value = row[name]
        if description == "a string":
            ok = type(value) is str
        else:
            ok = type(value) is list and all(type(t) is str for t in value)
        if not ok:
            return f"{name} must be {description}, got {value!r}"
    return None


def _canonical(value, **settings):
    return json.dumps(value, sort_keys=True, ensure_ascii=False, **settings)


def filter_command(data, source, quotas=None, seed=0):
    r"""``(exit code, kept bytes, stats bytes, [(level, message), ...])`` of ``filter``
    on the input bytes ``data``, named ``source`` in messages, with ``--stats`` and the
    default config.

    Lines end at ``\n``, ``\r\n`` or ``\r``. A line that is not UTF-8, is not a
    JSON object or is no web record (:func:`record_error`) is fatal: exit 2, no
    output, no stats. A blank line (space, tab, CR and LF only, JSON's whitespace) is
    skipped; a line that is not JSON, or holds a
    string with a lone surrogate, is skipped with a warning and counted in
    ``malformed_lines``. Each record then counts toward the first rule it fails,
    and a kept record is written as the sorted-key JSON of its five fields.
    """
    counts = dict(records_seen=0, kept=0, dropped_url=0, dropped_schema=0, parse_failures=0)
    by_lang, kept, messages, malformed = {}, [], [], 0
    for lineno, raw in enumerate(re.split(rb"\r\n|\r|\n", data), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            reason = f"can't decode byte 0x{raw[exc.start]:02x}: {exc.reason}"
            messages.append(("ERROR", f"{source}:{lineno}: not valid UTF-8: {reason}"))
            return 2, None, None, messages
        line = line.strip(" \t\n\r")
        if not line:
            continue
        try:
            row = json.loads(line)
            _canonical(row).encode()
        except UnicodeEncodeError as exc:  # before ValueError, its base class
            surrogate = f"\\u{ord(exc.object[exc.start]):04x}"
            messages.append(("WARNING", f"{source}:{lineno}: invalid JSON: lone surrogate "
                                        f"{surrogate}; skipped"))
            malformed += 1
            continue
        except ValueError as exc:
            messages.append(("WARNING", f"{source}:{lineno}: invalid JSON: {exc}; skipped"))
            malformed += 1
            continue
        if not isinstance(row, dict):
            messages.append(("ERROR", f"{source}:{lineno}: not a JSON object"))
            return 2, None, None, messages
        reason = record_error(row)
        if reason is not None:
            where = f"{source}:{lineno}" + (f" (id {row['id']!r})" if "id" in row else "")
            messages.append(("ERROR", f"{where}: {reason}"))
            return 2, None, None, messages
        counts["records_seen"] += 1
        try:
            url_ok = url_keyword_match(row["url"])
        except UrlParseError:
            counts["dropped_url"] += 1
            counts["parse_failures"] += 1
            continue
        if not url_ok:
            counts["dropped_url"] += 1
        elif not schema_type_match(row["schema_types"]):
            counts["dropped_schema"] += 1
        else:
            counts["kept"] += 1
            by_lang[row["lang"]] = by_lang.get(row["lang"], 0) + 1
            fields = {name: row[name] for name, _ in RECORD_FIELDS}
            kept.append(SimpleNamespace(lang=row["lang"], line=_canonical(
                fields, separators=(",", ":")) + "\n"))
    if quotas:
        kept = reservoir_sample(kept, quotas, seed)
    stats = {**counts, "kept_by_language": by_lang, "malformed_lines": malformed,
             "written": len(kept)}
    kept_bytes = "".join(record.line for record in kept).encode()
    return 0, kept_bytes, (_canonical(stats, indent=2) + "\n").encode(), messages
