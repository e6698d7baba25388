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
"""

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
