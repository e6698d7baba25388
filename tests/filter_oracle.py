"""Reference URL-keyword and schema-type rules for the filter tests.

These are the per-record rules the filter used before it derived its match
rules once per config: every URL is split by ``urlparse``, every keyword
spelling is rebuilt and tested as a substring, and every declared type is
stripped of its first matching schema.org prefix, for each record. The
property tests in ``test_filtering.py`` require the same paths and verdicts.
"""

from urllib.parse import unquote, urlparse

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
