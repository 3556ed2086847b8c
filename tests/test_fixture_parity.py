"""Tier-1 correctness gate: the 142-fixture golden corpus.

Per BASELINE.json: per-document span-sequence equality
(kind, text, media_ref, order) + metadata parity against the reference's
own expected.html / expected-metadata.json. We additionally assert
byte-exact content HTML (strictly stronger than the span invariant).
"""

import json
import os

import pytest

from smartreader_ray.extraction import parse_article, try_parse_date
from smartreader_ray.sources import FIXTURE_DIR as PAGES
from smartreader_ray.spanio import flatten_element, flatten_html, spans_equal

if not os.path.isdir(PAGES):
    pytest.skip(f"reference fixtures absent: {PAGES}", allow_module_level=True)

FIXTURES = sorted(
    d for d in os.listdir(PAGES) if os.path.isdir(os.path.join(PAGES, d))
)


def _ttr_seconds(s):
    if not s:
        return 0
    h, m, sec = (int(p) for p in s.split(":"))
    return h * 3600 + m * 60 + sec


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture(name):
    d = os.path.join(PAGES, name)
    with open(os.path.join(d, "source.html"), encoding="utf-8-sig") as f:
        source = f.read()
    with open(os.path.join(d, "expected.html"), encoding="utf-8-sig") as f:
        expected_html = f.read()
    with open(os.path.join(d, "expected-metadata.json"), encoding="utf-8-sig") as f:
        em = json.load(f)

    a = parse_article("https://localhost/", source)

    assert a.completed, a.error
    assert a.is_readable == em.get("readerable", False)
    assert a.title == em.get("title", "")
    assert a.byline == (em.get("byline") or "")
    assert (a.dir or "") == (em.get("dir") or "")
    assert a.excerpt == (em.get("excerpt") or "")
    assert (a.language or "") == (em.get("language") or "")
    assert (a.author or "") == (em.get("author") or "")
    assert a.site_name == (em.get("siteName") or "")
    assert a.featured_image == (em.get("featuredImage") or "")
    assert a.time_to_read_s == _ttr_seconds(em.get("timeToRead"))

    exp_date = em.get("publicationDate")
    if exp_date:
        parsed = try_parse_date(exp_date)
        actual = a.publication_date
        assert actual is not None
        if parsed.tzinfo is not None and actual.tzinfo is not None:
            assert parsed == actual
        else:
            assert parsed.replace(tzinfo=None).date() == actual.replace(
                tzinfo=None
            ).date()
    else:
        assert a.publication_date is None

    alts = em.get("alternativeLanguageUris") or {}
    assert a.alternative_language_uris == alts

    # the north-rule invariant: span-sequence equality
    expected_spans = flatten_html(expected_html)
    got_spans = flatten_element(a.element)
    assert spans_equal(expected_spans, got_spans)

    # strictly stronger: byte-exact serialized content
    assert a.content_html.replace("\r\n", "\n") == expected_html.replace("\r\n", "\n")
