"""Compiled pattern set for the extraction heuristics.

Semantics (not code) translated from the reference's pre-compiled regex
table (``SmartReader.cs:188-208``) — compiled once per process/actor and
shared, mirroring the reference's static ``G_RE_*`` pattern.
"""

from __future__ import annotations

import re

UNLIKELY_CANDIDATES = re.compile(
    r"-ad-|ai2html|banner|breadcrumbs|combx|comment|community|cover-wrap|disqus|"
    r"extra|footer|gdpr|header|legends|menu|related|remark|replies|rss|shoutbox|"
    r"sidebar|skyscraper|social|sponsor|supplemental|ad-break|agegate|pagination|"
    r"pager|popup|yom-remote|reacties|commentaires|Kommentare|comentarios",
    re.I,
)
OK_MAYBE_ITS_A_CANDIDATE = re.compile(
    r"and|article|body|column|content|main|mathjax|shadow", re.I
)
POSITIVE = re.compile(
    r"article|body|content|entry|hentry|h-entry|main|page|pagination|post|text|"
    r"blog|story",
    re.I,
)
NEGATIVE = re.compile(
    r"-ad-|hidden|^hid$|hid$|hid|^hid|banner|combx|comment|com-|contact|footer|"
    r"gdpr|masthead|media|meta|outbrain|promo|related|scroll|share|shoutbox|"
    r"sidebar|skyscraper|sponsor|shopping|tags|widget",
    re.I,
)
EXTRANEOUS = re.compile(
    r"print|archive|comment|discuss|e[\-]?mail|share|reply|all|login|sign|single|utility",
    re.I,
)
BYLINE = re.compile(r"byline|author|dateline|writtenby|p-author", re.I)
REPLACE_FONTS = re.compile(r"<(\/?)font[^>]*>", re.I)
VIDEOS = re.compile(
    r"\/\/(www\.)?((dailymotion|youtube|youtube-nocookie|player\.vimeo|v\.qq|"
    r"bilibili|live.bilibili)\.com|(archive|upload\.wikimedia)\.org|player\.twitch\.tv)",
    re.I,
)
NEXT_LINK = re.compile(r"(next|weiter|continue|>([^\|]|$)|»([^\|]|$))", re.I)
PREV_LINK = re.compile(r"(prev|earl|old|new|<|«)", re.I)
SHARE_ELEMENTS = re.compile(r"(\b|_)(share|sharedaddy)(\b|_)", re.I)
B64_DATA_URL = re.compile(r"^data:\s*([^\s;,]+)\s*;\s*base64\s*,", re.I)

# Commas across scripts (Latin, Arabic, CJK fullwidth, …).
COMMAS = re.compile(
    ",|،|﹐|︐|︑|⹁|⸴|⸲|，", re.I
)

AD_WORDS = re.compile(
    r"^(ad(vertising|vertisement)?|pub(licité)?|werb(ung)?|广告|Реклама|Anuncio|pubblicità)$",
    re.I,
)
LOADING_WORDS = re.compile(
    r"^((loading|正在加载|Загрузка|chargement|cargando|caricamento)(…|\.\.\.)?)$",
    re.I,
)

WHITESPACE = re.compile(r"^\s*$", re.I)
HAS_CONTENT = re.compile(r"\S$", re.I)
HASH_URL = re.compile(r"^#.+", re.I)

NORMALIZE = re.compile(r"\s{2,}", re.I)
SRCSET_URL = re.compile(r"(\S+)(\s+[\d.]+[xw])?(\s*(?:,|$))", re.I)
TOKENIZE = re.compile(r"\W+", re.I)

IMG_EXT = re.compile(r"\.(jpg|jpeg|png|webp)")
IMG_EXT_SPACE_DIGIT = re.compile(r"\.(jpg|jpeg|png|webp)\s+\d", re.I)
SINGLE_IMAGE_URL = re.compile(r"^\s*\S+\.(jpg|jpeg|png|webp)\S*\s*$", re.I)

SENTENCE_DOT = re.compile(r"\.( |$)", re.I)

PRE_CLEAN_EMPTY_P = re.compile(r"<p[^>]*>\s*(?:&nbsp;|\s)*</p>", re.I | re.M)

CDATA_WRAP = re.compile(r"^\s*<!\[CDATA\[|\]\]>\s*$")
SCHEMA_DOT_ORG = re.compile(r"^https?\:\/\/schema\.org\/?$")

MUSTACHE = re.compile(r"{{.*?}}")

URL_DATE = re.compile(r"/(?P<year>[0-9]{4})/(?P<month>[0-9]{2})/((?P<day>[0-9]{2})/)?")

ELIMINATE_TABS = re.compile(r"\t+")
#: ``(\r?\n){3,}`` written so its first char is a class the regex engine
#: can scan for
NORMALIZE_NEWLINES = re.compile(r"(?:\r\n|\n)(?:\r?\n){2,}")

#: Replaceable-regex surface (reference ``RegularExpressions.cs`` +
#: ``SmartReader.cs:2440-2508``): config carries overrides keyed by these.
REPLACEABLE = {
    "unlikelyCandidates": "UNLIKELY_CANDIDATES",
    "possibleCandidates": "OK_MAYBE_ITS_A_CANDIDATE",
    "positive": "POSITIVE",
    "negative": "NEGATIVE",
    "extraneous": "EXTRANEOUS",
    "byline": "BYLINE",
    "videos": "VIDEOS",
    "shareElements": "SHARE_ELEMENTS",
}
