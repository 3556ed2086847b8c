"""Metadata extraction: JSON-LD, meta-tag harvest, title heuristics, dates.

Semantics follow the reference's ``Readability.cs`` (GetJSONLD :344-502,
GetArticleMetadata :520-826, GetArticleTitle :228-314, CleanTitle :166-179,
TextSimilarity :324-336) including its quirks — e.g. the JSON-LD
datePublished/image accessors that throw and abort the scan, and the
literal-``\\s`` hierarchical-separator pattern — because fixtures pin them.
"""

from __future__ import annotations

import calendar
import html as _htmlmod
import json
import re
from datetime import datetime, timedelta, timezone
from typing import Optional

from ..dom import Document, Element, element_matches
from . import regexes
from .nodeutil import get_all_nodes_with_tag, get_inner_text
from .urialg import PageUri

JSONLD_ARTICLE_TYPES = frozenset({
    "Article", "AdvertiserContentArticle", "NewsArticle", "AnalysisNewsArticle",
    "AskPublicNewsArticle", "BackgroundNewsArticle", "OpinionNewsArticle",
    "ReportageNewsArticle", "ReviewNewsArticle", "Report", "SatiricalArticle",
    "ScholarlyArticle", "MedicalScholarlyArticle", "SocialMediaPosting",
    "BlogPosting", "LiveBlogPosting", "DiscussionForumPosting", "TechArticle",
    "APIReference",
})


class Metadata:
    __slots__ = (
        "title", "excerpt", "language", "alternative_language_uris",
        "featured_image", "publication_date", "author", "site_name",
    )

    def __init__(self):
        self.title: str = ""
        self.excerpt: str = ""
        self.language: str = ""
        self.alternative_language_uris: dict[str, str] = {}
        self.featured_image: str = ""
        self.publication_date: Optional[datetime] = None
        self.author: str = ""
        self.site_name: str = ""


# ---------------------------------------------------------------------------
# text similarity (Readability.cs:324-336)
# ---------------------------------------------------------------------------
def text_similarity(text_a: str, text_b: str) -> float:
    tokens_a = [t for t in regexes.TOKENIZE.split(text_a.lower()) if t]
    tokens_b = [t for t in regexes.TOKENIZE.split(text_b.lower()) if t]
    if not tokens_a or not tokens_b:
        return 0.0
    set_a = set(tokens_a)
    uniq_b = [t for t in tokens_b if t not in set_a]
    distance_b = len(" ".join(uniq_b)) / len(" ".join(tokens_b))
    return 1 - distance_b


# ---------------------------------------------------------------------------
# titles (Readability.cs:166-179, 228-314)
# ---------------------------------------------------------------------------
_TITLE_SEPARATORS = "|-»/>"
_TITLE_SEP_CLASS = r"\|\-–—\\\/>»"
_SEP_SPLIT_RE = re.compile(rf"\s[{_TITLE_SEP_CLASS}]\s")
# bug-compat: the reference's "hierarchical separators" patterns use a
# verbatim string, yielding literal-backslash patterns (Readability.cs:255,308)
_HIER_SEP_RE = re.compile(r"\\s[\\\/>»]\\s")
_HIER_STRIP_RE = re.compile(r"\\s[" + _TITLE_SEP_CLASS + r"]\\s", re.I)
_LEADING_SEP_RE = re.compile(rf"^[{_TITLE_SEP_CLASS}]*[{_TITLE_SEP_CLASS}]", re.I)
_WORD_SPLIT_RE = re.compile(r"\s+")


def _word_count(s: str) -> int:
    return len(_WORD_SPLIT_RE.split(s))


def clean_title(title: str, site_name: Optional[str]) -> str:
    if site_name and any(c in title for c in _TITLE_SEPARATORS):
        title = re.sub(
            r"(.*) [\|\-\\/>»] " + re.escape(site_name) + r".*",
            r"\1",
            title,
            flags=re.I,
        )
    return regexes.NORMALIZE.sub(" ", title)


def get_article_title(doc: Document) -> str:
    orig_title = (doc.title or "").strip()
    cur_title = orig_title

    title_had_hierarchical_separators = False

    if _SEP_SPLIT_RE.search(cur_title):
        title_had_hierarchical_separators = bool(_HIER_SEP_RE.search(cur_title))
        last_sep = None
        for m in _SEP_SPLIT_RE.finditer(orig_title):
            last_sep = m
        cur_title = orig_title[: last_sep.start()] if last_sep is not None else orig_title
        if _word_count(cur_title) < 3:
            cur_title = _LEADING_SEP_RE.sub("", orig_title)
    elif ": " in cur_title:
        headings = get_all_nodes_with_tag(doc.document_element, ["h1", "h2"])
        trimmed_title = cur_title.strip()
        match = any(h.text_content.strip() == trimmed_title for h in headings)
        if not match:
            cur_title = orig_title[orig_title.rfind(":") + 1:]
            if _word_count(cur_title) < 3:
                cur_title = orig_title[orig_title.find(":") + 1:]
    elif len(cur_title) > 150 or len(cur_title) < 15:
        h_ones = doc.get_elements_by_tag_name("h1")
        if len(h_ones) == 1:
            cur_title = get_inner_text(h_ones[0])

    cur_title = regexes.NORMALIZE.sub(" ", cur_title.strip())

    cur_title_word_count = _word_count(cur_title)
    if cur_title_word_count <= 4 and (
        not title_had_hierarchical_separators
        or cur_title_word_count != _word_count(_HIER_STRIP_RE.sub("", orig_title)) - 1
    ):
        cur_title = orig_title

    return cur_title


# ---------------------------------------------------------------------------
# JSON-LD (Readability.cs:344-502) — quirk-faithful
# ---------------------------------------------------------------------------
class _JsonAbort(Exception):
    """Mirrors the reference's swallowed JsonElement access exceptions."""


def _get_prop(obj, name):
    """TryGetProperty: False on missing key, throws on non-object."""
    if not isinstance(obj, dict):
        raise _JsonAbort(name)
    if name in obj:
        return True, obj[name]
    return False, None


def _req_prop(obj, name):
    """GetProperty: throws on missing key or non-object."""
    ok, val = _get_prop(obj, name)
    if not ok:
        raise _JsonAbort(name)
    return val


def get_jsonld(doc: Document, scripts: list[Element]) -> dict[str, str]:
    """The JSON-LD metadata of ``doc``, whose ``script`` elements are
    ``scripts``."""
    meta: dict[str, str] = {}

    for script in scripts:
        if meta:
            continue
        if script.get_attribute("type") != "application/ld+json":
            continue
        try:
            content = regexes.CDATA_WRAP.sub("", script.text_content)
            root = json.loads(content)

            if isinstance(root, list):
                for obj in root:
                    ok, t = _get_prop(obj, "@type") if isinstance(obj, dict) else (False, None)
                    if ok and isinstance(t, str) and t in JSONLD_ARTICLE_TYPES:
                        root = obj
                        break

            ok, _ = _get_prop(root, "@type")
            if not ok:
                ok_graph, graph = _get_prop(root, "@graph")
                if ok_graph:
                    if not isinstance(graph, list):
                        raise _JsonAbort("@graph")
                    for obj in graph:
                        ok, t = _get_prop(obj, "@type") if isinstance(obj, dict) else (False, None)
                        if ok and isinstance(t, str) and t in JSONLD_ARTICLE_TYPES:
                            root = obj
                            break

            ok, ctx = _get_prop(root, "@context")
            matches = ok and isinstance(ctx, str) and bool(regexes.SCHEMA_DOT_ORG.match(ctx))
            if not matches:
                ok, ctx = _get_prop(root, "@context")
                if ok and isinstance(ctx, dict):
                    vocab = _req_prop(ctx, "vocab")
                    matches = isinstance(vocab, str) and bool(regexes.SCHEMA_DOT_ORG.match(vocab))
            if not matches:
                continue

            ok, t = _get_prop(root, "@type")
            if not ok or not (isinstance(t, str) and t in JSONLD_ARTICLE_TYPES):
                continue

            ok_name, name = _get_prop(root, "name")
            ok_headline, headline = _get_prop(root, "headline")
            if ok_name and isinstance(name, str) and ok_headline and isinstance(headline, str):
                title = get_article_title(doc)
                name_matches = text_similarity(name.strip(), title) > 0.75
                headline_matches = text_similarity(headline.strip(), title) > 0.75
                if headline_matches and not name_matches:
                    meta["jsonld:title"] = headline.strip()
                else:
                    meta["jsonld:title"] = name.strip()
            elif ok_name and isinstance(name, str):
                meta["jsonld:title"] = name.strip()
            elif ok_headline and isinstance(headline, str):
                meta["jsonld:title"] = headline.strip()

            ok, author = _get_prop(root, "author")
            if ok:
                if isinstance(author, dict):
                    n = _req_prop(author, "name")
                    if not isinstance(n, str):
                        raise _JsonAbort("author.name")
                    meta["jsonld:author"] = n.strip()
                elif isinstance(author, list) and author:
                    first = author[0]
                    first_name = _req_prop(first, "name")
                    if isinstance(first_name, str):
                        byline = []
                        for a in author:
                            ok2, n2 = _get_prop(a, "name")
                            if ok2 and isinstance(n2, str):
                                byline.append(n2.strip())
                        meta["jsonld:author"] = ", ".join(byline)

            ok, desc = _get_prop(root, "description")
            if ok and isinstance(desc, str):
                meta["jsonld:description"] = desc.strip()

            ok, publisher = _get_prop(root, "publisher")
            if ok and isinstance(publisher, dict):
                n = _req_prop(publisher, "name")
                if not isinstance(n, str):
                    raise _JsonAbort("publisher.name")
                meta["jsonld:siteName"] = n.strip()

            # bug-compat (Readability.cs:483-493): datePublished / image are
            # read with GetProperty on a string element, which throws and
            # aborts the scan — the keys set above survive.
            ok, dp = _get_prop(root, "datePublished")
            if ok and isinstance(dp, str):
                raise _JsonAbort("datePublished")
            ok, img = _get_prop(root, "image")
            if ok and isinstance(img, str):
                raise _JsonAbort("image")
        except (_JsonAbort, ValueError, TypeError, KeyError, json.JSONDecodeError):
            continue

    return meta


# ---------------------------------------------------------------------------
# date parsing (DateTime.TryParse subset)
# ---------------------------------------------------------------------------
_ISO_RE = re.compile(
    r"^\s*(?P<y>\d{4})-(?P<mo>\d{1,2})-(?P<d>\d{1,2})"
    r"(?:[T ](?P<h>\d{1,2}):(?P<mi>\d{1,2})(?::(?P<s>\d{1,2})(?P<frac>\.\d+)?)?)?"
    r"\s*(?P<tz>Z|[+-]\d{2}:?\d{2})?\s*$"
)
_SLASH_RE = re.compile(r"^\s*(?P<a>\d{1,4})/(?P<b>\d{1,2})/(?P<c>\d{1,4})\s*$")
_MONTHS = {m.lower(): i for i, m in enumerate(calendar.month_name) if m}
_MONTHS.update({m.lower(): i for i, m in enumerate(calendar.month_abbr) if m})
_TEXTUAL_RE = re.compile(
    r"^\s*(?P<mon>[A-Za-z]+)\.?\s+(?P<d>\d{1,2})(?:st|nd|rd|th)?\s*,?\s+(?P<y>\d{4})"
    r"(?:\s+(?P<h>\d{1,2}):(?P<mi>\d{2})(?::(?P<s>\d{2}))?\s*(?P<ampm>[AaPp][Mm])?)?\s*$"
)
_TEXTUAL_DMY_RE = re.compile(
    r"^\s*(?P<d>\d{1,2})\.?\s+(?P<mon>[A-Za-z]+)\.?\s+(?P<y>\d{4})\s*$"
)


def try_parse_date(value: str | None) -> Optional[datetime]:
    """Parse the date formats the corpus exercises.

    Offset- or Z-carrying values are normalized to UTC and returned
    timezone-aware; plain values return naive (mirrors .NET Kind
    semantics without baking in a host timezone).
    """
    if not value:
        return None
    m = _ISO_RE.match(value)
    if m:
        try:
            frac = m.group("frac")
            micro = int(float(frac) * 1_000_000) if frac else 0
            dt = datetime(
                int(m.group("y")), int(m.group("mo")), int(m.group("d")),
                int(m.group("h") or 0), int(m.group("mi") or 0),
                int(m.group("s") or 0), micro,
            )
        except ValueError:
            return None
        tz = m.group("tz")
        if tz:
            if tz == "Z":
                return dt.replace(tzinfo=timezone.utc)
            sign = 1 if tz[0] == "+" else -1
            hh = int(tz[1:3])
            mm = int(tz[-2:])
            offset = timezone(sign * timedelta(hours=hh, minutes=mm))
            return dt.replace(tzinfo=offset).astimezone(timezone.utc)
        return dt
    m = _SLASH_RE.match(value)
    if m:
        a, b, c = int(m.group("a")), int(m.group("b")), int(m.group("c"))
        try:
            if a > 31:  # yyyy/mm/dd
                return datetime(a, b, c)
            return datetime(c, a, b)  # mm/dd/yyyy (invariant-culture style)
        except ValueError:
            return None
    m = _TEXTUAL_RE.match(value)
    if m:
        mon = _MONTHS.get(m.group("mon").lower())
        if mon:
            try:
                h = int(m.group("h") or 0)
                ampm = m.group("ampm")
                if ampm and ampm.lower() == "pm" and h < 12:
                    h += 12
                elif ampm and ampm.lower() == "am" and h == 12:
                    h = 0
                return datetime(
                    int(m.group("y")), mon, int(m.group("d")),
                    h, int(m.group("mi") or 0), int(m.group("s") or 0),
                )
            except ValueError:
                return None
    m = _TEXTUAL_DMY_RE.match(value)
    if m:
        mon = _MONTHS.get(m.group("mon").lower())
        if mon:
            try:
                return datetime(int(m.group("y")), mon, int(m.group("d")))
            except ValueError:
                return None
    return None


# ---------------------------------------------------------------------------
# meta-tag harvest (Readability.cs:520-826)
# ---------------------------------------------------------------------------
_NAME_PATTERN = re.compile(
    r"^\s*((?:(dc|dcterm|og|twitter|parsely|weibo:(article|webpage))\s*[-\.:]\s*)?"
    r"(author|creator|pub-date|description|title|image|image-url|site_name)|name)\s*$",
    re.I,
)
_PROPERTY_PATTERN_CS = re.compile(
    r"\s*(dc|dcterm|og|twitter|article)\s*:\s*"
    r"(author|creator|description|title|published_time|image|site_name)(\s+|$)"
)
_PROPERTY_PATTERN_CI = re.compile(_PROPERTY_PATTERN_CS.pattern, re.I)
_ITEMPROP_PATTERN = re.compile(r"\s*datePublished\s*", re.I)
_WS_RE = re.compile(r"\s+")
_WS1_RE = re.compile(r"\s")


def _first_non_empty(values) -> Optional[str]:
    for v in values:
        if v:
            return v
    return None


def _is_url(url: Optional[str]) -> bool:
    # Uri.TryCreate(url, RelativeOrAbsolute) accepts nearly everything
    return url is not None


def _first_match(elements: list[Element], selector: str) -> Optional[Element]:
    return next((e for e in elements if element_matches(e, selector)), None)


def get_article_metadata(
    doc: Document, uri: PageUri, language: Optional[str], jsonld: dict[str, str]
) -> Metadata:
    metadata = Metadata()
    values = dict(jsonld)
    metas, html_el, links, times = doc.collect_by_tag(
        ("META",), ("HTML",), ("LINK",), ("TIME",))

    for element in metas:
        element_name = element.get_attribute("name")
        element_property = element.get_attribute("property")
        item_prop = element.get_attribute("itemprop")
        content = element.get_attribute("content")

        if content is None or len(content) == 0:
            continue

        matches = None
        name = ""

        if element_name == "author" or element_property == "author" or item_prop == "author":
            values["author"] = content

        if element_property:
            matches = list(_PROPERTY_PATTERN_CS.finditer(element_property))
            if matches:
                name = _WS_RE.sub("", matches[0].group(0).lower())
                values[name] = content.strip()

        if not matches and element_name and _NAME_PATTERN.search(element_name):
            name = element_name
            name = _WS_RE.sub("", name.lower()).replace(".", ":")
            values[name] = content.strip()
        elif element_property and _PROPERTY_PATTERN_CI.search(element_property):
            name = element_property
        elif item_prop and _ITEMPROP_PATTERN.search(item_prop):
            name = item_prop

        if name:
            content = element.get_attribute("content")
            if content:
                name = _WS1_RE.sub("", name.lower())
                if name not in values:
                    values[name] = content.strip()

    metadata.excerpt = _first_non_empty(
        values.get(k) for k in (
            "jsonld:description", "description", "dc:description",
            "dcterm:description", "og:description", "weibo:article:description",
            "weibo:webpage:description", "twitter:description",
        )
    ) or ""

    metadata.site_name = _first_non_empty(
        values.get(k) for k in ("jsonld:siteName", "og:site_name")
    ) or ""

    metadata.title = _first_non_empty(
        values.get(k) for k in (
            "jsonld:title", "dc:title", "dcterm:title", "og:title",
            "weibo:article:title", "weibo:webpage:title", "twitter:title",
            "parsely-title", "title",
        )
    ) or ""

    metadata.title = clean_title(metadata.title, metadata.site_name)

    if not metadata.title:
        metadata.title = get_article_title(doc)

    # language heuristics (Readability.cs:671-681)
    lang_candidates = [language]
    if html_el:
        lang_candidates.append(html_el[0].get_attribute("lang"))
        lang_candidates.append(html_el[0].get_attribute("xml:lang"))
    cl = _first_match(metas, 'meta[http-equiv="Content-Language"]')
    lang_candidates.append(cl.get_attribute("content") if cl is not None else None)
    ml = _first_match(metas, 'meta[name="lang"]')
    lang_candidates.append(ml.get_attribute("value") if ml is not None else None)
    metadata.language = _first_non_empty(lang_candidates) or ""

    # alternative language links (Readability.cs:684-703)
    for link in links:
        if link.get_attribute("rel") == "alternate":
            href = link.get_attribute("href")
            href_value = uri.to_absolute_uri(href) if href is not None else None
            hreflang = link.get_attribute("hreflang")
            if (
                href_value and href_value.strip()
                and hreflang and hreflang.strip()
                and hreflang != "x-default"
                and hreflang not in metadata.alternative_language_uris
            ):
                metadata.alternative_language_uris[hreflang] = href_value

    metadata.featured_image = _first_non_empty(
        values.get(k) for k in (
            "jsonld:image", "og:image", "twitter:image", "weibo:article:image",
            "weibo:webpage:image", "parsely-image-url",
        )
    ) or ""

    article_author = values.get("article:author")
    if article_author is not None and _is_url(article_author):
        article_author = None

    metadata.author = _first_non_empty(
        [
            values.get("jsonld:author"), values.get("dc:creator"),
            values.get("dcterm:creator"), values.get("author"),
            values.get("parsely-author"), article_author,
        ]
    ) or ""

    # dates (Readability.cs:737-817)
    for key in (
        "jsonld:datePublished", "article:published_time", "date", "datepublished",
        "weibo:article:create_at", "weibo:webpage:create_at", "parsely-pub-date",
    ):
        if key in values:
            d = try_parse_date(values[key])
            if d is not None:
                metadata.publication_date = d
                break

    if metadata.publication_date is None:
        for time_el in times:
            if time_el.get_attribute("pubdate"):
                d = try_parse_date(time_el.get_attribute("datetime"))
                if d is not None:
                    metadata.publication_date = d

    if metadata.publication_date is None:
        m = regexes.URL_DATE.search(uri.path_and_query)
        if m:
            month = int(m.group("month"))
            year = int(m.group("year"))
            day = 1
            if m.group("day"):
                day = int(m.group("day"))
                if calendar.monthrange(year, month)[1] < day:
                    day = 1
            metadata.publication_date = datetime(year, month, day)

    metadata.title = _htmlmod.unescape(metadata.title).strip()
    metadata.excerpt = _htmlmod.unescape(metadata.excerpt).strip()
    metadata.site_name = _htmlmod.unescape(metadata.site_name).strip()

    return metadata
