import io
import os
from urllib.parse import quote

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatepool import filtering
from hatepool import (
    FilterConfig,
    UrlParseError,
    WebRecord,
    filter_records,
    normalize_url_path,
    subsample_by_language,
)

import filter_fixture
import filter_oracle
from conftest import as_stdin, piped


def make_record(id="r", url="https://example.com/thread/1", lang="eng",
                schema_types=("Comment",), text="hello"):
    return WebRecord(id=id, url=url, lang=lang, schema_types=tuple(schema_types), text=text)


def verdict(url="https://example.com/thread/1", schema_types=("Comment",), config=None):
    """How ``filter_records`` counts one record of ``url`` and ``schema_types``:
    ``"kept"``, ``"dropped_url"`` or ``"dropped_schema"``."""
    record = make_record(url=url, schema_types=schema_types)
    kept, stats = filter_records([record], config)
    assert list(kept) == ([record] if stats.kept else [])
    (outcome,) = [name for name in ("kept", "dropped_url", "dropped_schema")
                  if getattr(stats, name)]
    return outcome


def reference_verdict(url, schema_types, config=None):
    """:func:`verdict` from ``filter_oracle``'s two rules, the URL rule first."""
    if not filter_oracle.url_keyword_match(url, config):
        return "dropped_url"
    if not filter_oracle.schema_type_match(schema_types, config):
        return "dropped_schema"
    return "kept"


class TestNormalizeUrlPath:
    def test_lowercases_and_drops_query(self):
        assert normalize_url_path("https://X.example.com/Forum/T1?p=2") == "/forum/t1"

    def test_percent_decoding_happens_before_lowercasing(self):
        assert normalize_url_path("https://example.com/%46orum") == "/forum"

    def test_unicode_escapes_survive(self):
        assert normalize_url_path("https://example.com/f%C3%B3rum") == "/fórum"

    @pytest.mark.parametrize("bad", ["", "not a url", "/relative/thread", "http://", "example.com/thread"])
    def test_rejects_non_absolute_urls(self, bad):
        with pytest.raises(UrlParseError):
            normalize_url_path(bad)

    # Paths shaped like the benchmark crawl's kept and dropped URLs.
    @pytest.mark.parametrize(
        "url, path",
        [
            ("https://example.com/%46orum/1", "/forum/1"),
            ("https://forum.example.de/Forum/Topic-2", "/forum/topic-2"),
            ("http://blog.example.es/article/3?ref=forum", "/article/3"),
            ("http://x.example.org/wiki/4#thread", "/wiki/4"),
        ],
    )
    def test_plain_urls_do_not_reach_urlparse(self, url, path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("urlparse called")

        monkeypatch.setattr("hatepool.filtering.urlparse", refuse)
        assert normalize_url_path(url) == path

    # The benchmark crawl's unparseable URL shapes.
    @pytest.mark.parametrize(
        "url", ["http://[::1/forum/5", "forum/6/thread", "://nohost/forum/7"]
    )
    def test_other_urls_reach_urlparse(self, url, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr("hatepool.filtering.urlparse", reached)
        with pytest.raises(Reached):
            normalize_url_path(url)


def _outcome(normalize, url):
    try:
        return normalize(url)
    except UrlParseError as exc:
        return ("UrlParseError", str(exc))


# Characters that ``urlparse`` strips, splits at or refuses, broken and valid
# percent escapes, and non-ASCII and astral characters.
ODD_PIECES = [
    " ", "\t", "\r", "\n", "\x00", "\x1f", "\x7f", ";", "@", "[", "]", "\\", "?", "#", "/",
    ":", "//", "%", "%4", "%zz", "%41", "%C3%B3", "%ff", "|", "{", "^", '"', "é", "\u00a0",
    "\uff0f", "\u212a", "\U0001f600", "\U00010400",
]
# Well-formed URLs cut into scheme, separator, host, path, query and fragment.
URL_PARTS = [
    ("http", "://", "example.com", "/forum/a", "?q=thread", "#top"),
    ("HTTPS", "://", "h:80", "", "", ""),
    ("a+b.c-1", "://", "x.org", "/%46orum/b%20c/", "?a/b?c", "#a?b#c"),
]


def _joined(parts, edits):
    """``parts`` joined, after putting each ``(part, offset, piece)`` of ``edits`` in."""
    parts = list(parts)
    for index, offset, piece in edits:
        offset %= len(parts[index]) + 1
        parts[index] = parts[index][:offset] + piece + parts[index][offset:]
    return "".join(parts)


@pytest.mark.parametrize("parts", URL_PARTS, ids=[p[0] for p in URL_PARTS])
def test_each_odd_piece_in_each_url_part_gives_the_urlparse_result(parts):
    for index, part in enumerate(parts):
        for offset in sorted({0, len(part) // 2, len(part)}):
            for piece in ODD_PIECES:
                url = _joined(parts, [(index, offset, piece)])
                assert _outcome(normalize_url_path, url) == _outcome(
                    filter_oracle.normalize_url_path, url), url


# Mostly well-formed URLs. A few have a scheme that ``urlsplit`` does not take
# (a leading digit, "_", non-ASCII or astral), no "//", an empty, non-ASCII,
# IPv6 or half-bracketed host, a user, or ";" or a tab in the path. Up to two
# odd pieces or bits of arbitrary text go into any of their parts.
DRAWN_URL_PARTS = st.tuples(
    st.sampled_from(["http", "https", "HTTP", "hTTps", "ftp", "a+b.c-1", "z"] * 2
                    + ["1a", "h_t", "hé", "h\U0001f600"]),
    st.sampled_from(["://"] * 10 + [":", ":/", "//", ":///", ""]),
    st.sampled_from(["example.com", "Ex.org:8080", "h", "1.2.3.4", "a-b.x", "%41b", "x:y:"] * 2
                    + ["u:p@h", "[::1]:80", "[::1", "é.org", ""]),
    st.lists(
        st.sampled_from(["", "forum", "Thread", "%46orum", "a%20b", "-_.~", "=(!'*+,$&:", "p;q",
                         "t\tb"]),
        max_size=4,
    ).map(lambda segments: "/" * bool(segments) + "/".join(segments)),
    st.sampled_from(["", "?", "?q=thread", "?a/b?c", "?x;y@z"]),
    st.sampled_from(["", "#", "#forum", "#a?b#c", "#x;y@z"]),
)
# Each odd piece in each part is one choice, so that every pairing turns up.
ODD_EDITS = st.builds(
    lambda place, offset: (place[0], offset, place[1]),
    st.sampled_from([(index, piece) for index in range(6) for piece in ODD_PIECES]),
    st.integers(0, 20),
)
TEXT_EDITS = st.tuples(st.integers(0, 5), st.integers(0, 20), st.text(min_size=1, max_size=2))
URLS = st.builds(_joined, DRAWN_URL_PARTS, st.lists(ODD_EDITS | TEXT_EDITS, max_size=2))


@given(URLS)
@settings(max_examples=1000, deadline=None)
def test_normalize_url_path_equals_the_urlparse_reference(url):
    assert _outcome(normalize_url_path, url) == _outcome(filter_oracle.normalize_url_path, url)


class TestUrlKeywordMatch:
    @pytest.mark.parametrize(
        "url",
        [
            "https://example.com/thread/1",
            "https://example.com/FORUM/x",
            "https://example.com/a/reply",
            "https://example.com/post-2024",
            "https://example.com/quote",
            "https://example.com/status%20update",
            "https://example.com/status-update/2",
            "https://example.com/status_update/2",
            "https://example.com/threads/99",
        ],
    )
    def test_matches(self, url):
        assert verdict(url) == "kept"

    @pytest.mark.parametrize(
        "url",
        [
            "https://example.com/news",
            "https://example.com/?q=thread",
            "https://example.com/page#forum",
            "https://forum.example.com/start",
            "https://example.com/status/update",
        ],
    )
    def test_non_matches(self, url):
        assert verdict(url) == "dropped_url"

    def test_expansion_can_be_disabled(self):
        strict = FilterConfig(expand_multiword_keywords=False)
        assert verdict("https://example.com/status-update", config=strict) == "dropped_url"
        assert verdict("https://example.com/status%20update", config=strict) == "kept"

    def test_rejects_uppercase_keywords(self):
        with pytest.raises(ValueError):
            FilterConfig(url_keywords=("Thread",))


class TestSchemaTypeMatch:
    def test_bare_and_both_url_prefixes(self):
        assert verdict(schema_types=["Comment"]) == "kept"
        assert verdict(schema_types=["https://schema.org/Comment"]) == "kept"
        assert verdict(schema_types=["http://schema.org/Comment"]) == "kept"

    def test_case_sensitive(self):
        assert verdict(schema_types=["comment"]) == "dropped_schema"
        assert verdict(schema_types=["HTTPS://schema.org/Comment"]) == "dropped_schema"

    def test_any_declared_type_suffices(self):
        assert verdict(schema_types=["Product", "QAPage"]) == "kept"
        assert verdict(schema_types=["Product", "Recipe"]) == "dropped_schema"
        assert verdict(schema_types=[]) == "dropped_schema"


class TestFilterRecords:
    def test_fixture_outcomes(self):
        kept, stats = filter_records(filter_fixture.records())
        kept_ids = [r.id for r in kept]
        assert kept_ids == filter_fixture.expected_ids(filter_fixture.KEEP)
        assert stats.records_seen == 50
        assert stats.kept == 20
        assert stats.dropped_url == 15
        assert stats.dropped_schema == 15
        assert stats.parse_failures == 2
        assert stats.kept_by_language == filter_fixture.EXPECTED_KEPT_BY_LANGUAGE

    def test_counter_invariant_on_fixture(self):
        kept, stats = filter_records(filter_fixture.records())
        list(kept)
        assert stats.kept + stats.dropped_url + stats.dropped_schema == stats.records_seen
        assert sum(stats.kept_by_language.values()) == stats.kept
        assert stats.parse_failures <= stats.dropped_url

    def test_url_check_precedes_schema_check(self):
        # fails both criteria: counts only as a URL drop
        record = make_record(url="https://example.com/pricing", schema_types=("Product",))
        kept, stats = filter_records([record])
        assert list(kept) == []
        assert (stats.dropped_url, stats.dropped_schema) == (1, 0)

    def test_lazy_stats_fill_as_consumed(self):
        kept, stats = filter_records(filter_fixture.records())
        assert stats.records_seen == 0
        next(kept)
        assert stats.records_seen >= 1


@given(
    st.lists(
        st.sampled_from(
            [
                "https://example.com/thread/1",
                "https://example.com/news",
                "https://example.com/forum/x",
                "not a url",
            ]
        ),
        min_size=0,
        max_size=40,
    ),
    st.lists(st.sampled_from([("Comment",), ("Product",), ()]), min_size=0, max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_counter_invariant_property(urls, type_lists):
    records = [
        make_record(id=str(i), url=url, schema_types=types)
        for i, (url, types) in enumerate(zip(urls, type_lists))
    ]
    kept, stats = filter_records(records)
    kept = list(kept)
    assert stats.records_seen == len(records)
    assert stats.kept + stats.dropped_url + stats.dropped_schema == stats.records_seen
    assert stats.kept == len(kept)
    assert stats.parse_failures <= stats.dropped_url


PREFIXES = ("", "https://schema.org/", "http://schema.org/")
NAMES = ("A", "B", "Comment", "")
# Keywords are lowercase and nonempty, and may hold spaces and regular
# expression metacharacters; URL paths mix case, separators, metacharacters
# and percent-encoded spaces around the same letters.
KEYWORDS = st.text(alphabet="ab -_.*+()|\\%", min_size=1, max_size=5)
PATHS = st.lists(
    st.sampled_from(["a", "b", "A", " ", "-", "_", "/", "%20", "ab",
                     ".", "*", "+", "(", ")", "|", "\\", "%", "%25"]),
    max_size=10,
)
# Declared types: bare, behind one prefix, behind a doubled prefix, or
# behind a prefix in the wrong case.
DECLARED = st.builds(
    lambda outer, inner, name: outer + inner + name,
    st.sampled_from(PREFIXES + ("HTTPS://schema.org/",)),
    st.sampled_from(PREFIXES),
    st.sampled_from(NAMES),
)
# Whitelist entries may themselves carry a prefix.
WHITELIST = st.frozensets(
    st.builds(lambda prefix, name: prefix + name,
              st.sampled_from(PREFIXES), st.sampled_from(NAMES)),
    min_size=1,
)
CONFIGS = st.builds(
    FilterConfig,
    url_keywords=st.lists(KEYWORDS, min_size=1, max_size=4).map(tuple),
    schema_whitelist=WHITELIST,
    expand_multiword_keywords=st.booleans(),
)


@given(CONFIGS, PATHS, st.lists(DECLARED, max_size=4))
@settings(max_examples=400, deadline=None)
def test_match_rules_equal_the_per_record_reference(config, path, declared):
    url = "https://example.com/" + "".join(path)
    # URLs that hold a keyword, so the schema rule decides.
    keyword_url = "https://example.com/" + quote(config.url_keywords[0], safe="")
    assert filter_oracle.url_keyword_match(keyword_url, config)
    cases = [(url, config), (keyword_url, config), ("https://example.com/thread", None)]
    for case_url, case_config in cases:
        assert verdict(case_url, declared, case_config) == reference_verdict(
            case_url, declared, case_config)


class TestSubsampleByLanguage:
    # Input order: e0 d0 e1 e2 d1 e3 e4. With seed 7 and quota eng=2 the
    # per-position replacement draws are 2, 0, 3, keeping e1 and e3; both
    # deu records pass through untouched.
    def test_frozen_trace_seed7(self):
        records = [
            make_record(id=i, lang=lang)
            for i, lang in [
                ("e0", "eng"), ("d0", "deu"), ("e1", "eng"), ("e2", "eng"),
                ("d1", "deu"), ("e3", "eng"), ("e4", "eng"),
            ]
        ]
        out = subsample_by_language(records, {"eng": 2}, seed=7)
        assert [r.id for r in out] == ["d0", "e1", "d1", "e3"]

    def test_frozen_trace_matches_reference_replay(self):
        records = [make_record(id=f"e{i}", lang="eng") for i in range(100)]
        expected = [r.id for r in filter_oracle.reservoir_sample(records, {"eng": 10}, seed=7)]
        assert expected == [f"e{i}" for i in (2, 33, 41, 47, 54, 57, 59, 66, 76, 88)]
        out = subsample_by_language(records, {"eng": 10}, seed=7)
        assert [r.id for r in out] == expected

    def test_quota_zero_removes_language(self):
        records = [make_record(id="a", lang="eng"), make_record(id="b", lang="deu")]
        out = subsample_by_language(records, {"eng": 0}, seed=1)
        assert [r.id for r in out] == ["b"]

    def test_quota_above_population_keeps_everything(self):
        records = [make_record(id=str(i), lang="eng") for i in range(5)]
        out = subsample_by_language(records, {"eng": 50}, seed=3)
        assert [r.id for r in out] == [str(i) for i in range(5)]

    def test_languages_without_quota_pass_through(self):
        records = [make_record(id=str(i), lang="vie") for i in range(30)]
        out = subsample_by_language(records, {"eng": 1}, seed=3)
        assert len(out) == 30

    def test_negative_quota_rejected(self):
        with pytest.raises(ValueError):
            subsample_by_language([], {"eng": -1}, seed=0)

    def test_same_seed_same_sample_different_seed_differs(self):
        records = [make_record(id=str(i), lang="eng") for i in range(200)]
        a = subsample_by_language(records, {"eng": 20}, seed=11)
        b = subsample_by_language(records, {"eng": 20}, seed=11)
        c = subsample_by_language(records, {"eng": 20}, seed=12)
        assert [r.id for r in a] == [r.id for r in b]
        assert [r.id for r in a] != [r.id for r in c]

    def test_language_streams_are_independent(self):
        # Adding records of another language must not change which eng
        # records survive.
        eng = [make_record(id=f"e{i}", lang="eng") for i in range(50)]
        mixed = []
        for i, r in enumerate(eng):
            mixed.append(r)
            mixed.append(make_record(id=f"d{i}", lang="deu"))
        only = subsample_by_language(eng, {"eng": 5, "deu": 3}, seed=9)
        both = subsample_by_language(mixed, {"eng": 5, "deu": 3}, seed=9)
        assert [r.id for r in only] == [r.id for r in both if r.lang == "eng"]

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_quota_respected_and_order_preserved(self, seed, quota):
        records = [make_record(id=str(i), lang="eng") for i in range(60)]
        out = subsample_by_language(records, {"eng": quota}, seed=seed)
        assert len(out) == min(quota, 60)
        indices = [int(r.id) for r in out]
        assert indices == sorted(indices)


class TestFilterWorkers:
    """``filter_file`` streams in this process (0) unless a regular file holds more
    than one range past its offset and there is more than one CPU to run workers on."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        def use(n):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

        return use

    @staticmethod
    def sized_file(tmp_path, size):
        """A file of ``size`` bytes, open for reading unbuffered."""
        path = tmp_path / "web.jsonl"
        with open(path, "wb") as fp:
            fp.truncate(size)
        return open(path, "rb", buffering=0)

    def test_stdin_streams(self, cpus):
        cpus(2)
        with piped(b"") as stdin:  # a pipe
            assert filtering._filter_workers(stdin.buffer) == 0

    def test_fifo_streams(self, cpus, tmp_path):
        cpus(2)
        path = tmp_path / "web.fifo"
        os.mkfifo(path)
        with open(os.open(path, os.O_RDONLY | os.O_NONBLOCK), "rb") as fp:
            assert filtering._filter_workers(fp) == 0

    def test_file_of_one_range_streams(self, cpus, tmp_path):
        cpus(2)
        with self.sized_file(tmp_path, filtering.RANGE_BYTES) as fp:
            assert filtering._filter_workers(fp) == 0

    def test_one_cpu_streams(self, cpus, tmp_path):
        cpus(1)
        with self.sized_file(tmp_path, filtering.RANGE_BYTES + 1) as fp:
            assert filtering._filter_workers(fp) == 0

    def test_larger_file_gets_one_worker_per_cpu(self, cpus, tmp_path):
        cpus(2)
        with self.sized_file(tmp_path, filtering.RANGE_BYTES + 1) as fp:
            assert filtering._filter_workers(fp) == 2

    def test_file_on_stdin_counts_from_its_offset(self, cpus, tmp_path):
        # One range is left past the byte already read, so the file streams.
        cpus(2)
        raw = self.sized_file(tmp_path, filtering.RANGE_BYTES + 1)
        raw.seek(1)
        with as_stdin(raw) as stdin:
            assert filtering._filter_workers(stdin.buffer) == 0

    def test_input_without_descriptor_streams(self, cpus):
        cpus(2)
        assert filtering._filter_workers(io.BytesIO(b"x" * (filtering.RANGE_BYTES + 1))) == 0
