"""Article output record + plaintext conversion + time-to-read.

Semantics follow the reference's ``Article.cs`` (ConvertToPlaintext
:268-344, Length :103) and ``TimeToReadCalculator.cs:10-70``.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from datetime import datetime
from typing import Optional

from ..dom import Element
from . import regexes

#: chars/minute by language (TimeToReadCalculator.cs:10-29)
CHARACTERS_MINUTE = {
    "Arabic": 612, "Chinese": 255, "Dutch": 978, "English": 987,
    "Finnish": 1078, "French": 998, "German": 920, "Hebrew": 833,
    "Italian": 950, "Japanese": 357, "Polish": 916, "Portuguese": 913,
    "Swedish": 917, "Slovenian": 885, "Spanish": 1025, "Russian": 986,
    "Turkish": 1054,
}

#: ISO-639-1 primary subtag → CultureInfo.EnglishName prefix
#: (stand-in for the .NET culture table, SmartReader.cs:2528-2546)
LANG_ENGLISH_NAME = {
    "ar": "Arabic", "zh": "Chinese", "nl": "Dutch", "en": "English",
    "fi": "Finnish", "fr": "French", "de": "German", "he": "Hebrew",
    "it": "Italian", "ja": "Japanese", "pl": "Polish", "pt": "Portuguese",
    "sv": "Swedish", "sl": "Slovenian", "es": "Spanish", "ru": "Russian",
    "tr": "Turkish", "cs": "Czech", "da": "Danish", "el": "Greek",
    "hu": "Hungarian", "ko": "Korean", "no": "Norwegian", "ro": "Romanian",
    "uk": "Ukrainian", "vi": "Vietnamese", "hi": "Hindi", "th": "Thai",
    "id": "Indonesian", "fa": "Persian", "ht": "Haitian",
}


def english_language_name(language: Optional[str]) -> Optional[str]:
    if not language:
        return None
    primary = language.split("-")[0].split("_")[0].strip().lower()
    return LANG_ENGLISH_NAME.get(primary)


def chars_per_minute(language: Optional[str]) -> int:
    name = english_language_name(language)
    if name is None:
        return 960  # average excluding outliers (TimeToReadCalculator.cs:66)
    for key, value in CHARACTERS_MINUTE.items():
        if name.startswith(key):
            return value
    return 960


def _convert_to_text(el: Element, out: list[str]) -> None:
    """Article.cs:317-344 — newline before P/BR, after P."""
    if el.node_type == 1 and el.node_name in ("P", "BR"):
        out.append("\n")
    for child in el.childNodes:
        if isinstance(child, Element):
            _convert_to_text(child, out)
        elif child.node_type == 3:
            out.append(child.data)
    if el.node_type == 1 and el.node_name == "P":
        out.append("\n")


#: every Unicode Z-category codepoint (Zs + Zl + Zp) — the set the
#: reference's char.IsWhiteSpace-ish "space" test reduces to here
_Z_SPACE = (
    "\x20\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007"
    "\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)
_Z = f"[{_Z_SPACE}]"

#: the Z-spaces the reference's char loop drops: one after a newline or
#: another Z-space (taken with the rest of its run), and one before a
#: newline. The pattern starts with the Z class, so the regex engine
#: scans for it in C and text with nothing to drop costs one scan.
_DROPPED_SPACES = re.compile(rf"{_Z}(?:(?<=[\r\n{_Z_SPACE}]{_Z}){_Z}*|(?=[\r\n]))")


def squash_spaces(text: str) -> str:
    """Article.cs:268-312 drop rule — a Z-category space is dropped iff
    the next char is a newline, the previous char was a newline, or the
    previous char was a space."""
    return _DROPPED_SPACES.sub("", text)


def convert_to_plaintext(el: Element) -> str:
    """Article.cs:268-312 — whitespace-normalizing DOM→text conversion:
    tab runs become one space, then ``squash_spaces``, strip, and runs of
    three or more newlines become a blank line."""
    sb: list[str] = []
    _convert_to_text(el, sb)
    text = squash_spaces(regexes.ELIMINATE_TABS.sub(" ", "".join(sb))).strip()
    return normalize_newlines(text)


def normalize_newlines(text: str) -> str:
    """Runs of three or more line breaks (``(\\r?\\n){3,}``) become one
    blank line. The scan is for ``NORMALIZE_NEWLINES``, whose literal
    first ``\\n`` the regex engine finds in C; a ``\\r`` just before a
    match belongs to the run, so it goes with it."""
    parts = regexes.NORMALIZE_NEWLINES.split(text)
    for i in range(len(parts) - 1):
        if parts[i].endswith("\r"):
            parts[i] = parts[i][:-1]
    return "\n\n".join(parts)


#: every BMP punctuation (P*) codepoint. Astral chars are never deleted,
#: punctuation or not, so each still counts 2 UTF-16 units.
_BMP_PUNCT = "".join(
    c for c in map(chr, range(0x10000)) if unicodedata.category(c)[0] == "P"
)
_BMP_PUNCT_RE = re.compile(f"[{re.escape(_BMP_PUNCT)}]")


def count_letters(text: str) -> int:
    """TimeToReadCalculator.cs:42 — chars that are not ' ' nor punctuation.

    Counted in UTF-16 code units (.NET ``char`` semantics): astral-plane
    characters contribute 2 (surrogates are category Cs — neither space
    nor punctuation). The UTF-16 length is a sum over chars and every
    char the reference deletes is one BMP unit, so the count is the
    UTF-16 length less the spaces and the BMP punctuation: the chars are
    counted where they stand, not deleted from a copy."""
    units = len(text.encode("utf-16-le", "surrogatepass")) // 2
    return units - text.count(" ") - len(_BMP_PUNCT_RE.findall(text))


def time_to_read_seconds(element_text: str, plain_text: str, language: Optional[str]) -> int:
    """TimeToReadCalculator.cs:33-47 (whole minutes, min 1, 0 when empty)."""
    if not plain_text:
        return 0
    weight = chars_per_minute(language)
    letter_count = count_letters(element_text)
    minutes = letter_count // weight
    return max(minutes, 1) * 60


@dataclass
class ArticleResult:
    uri: str
    title: str = ""
    byline: str = ""
    dir: str = ""
    language: str = ""
    author: str = ""
    site_name: str = ""
    excerpt: str = ""
    featured_image: str = ""
    publication_date: Optional[datetime] = None
    alternative_language_uris: dict = field(default_factory=dict)
    is_readable: bool = False
    completed: bool = True
    error: str = ""
    content_html: str = ""
    text_content: str = ""
    length: int = 0
    time_to_read_s: int = 0
    element: Optional[Element] = None
    # extraction metrics (north-rule lineage/metrics requirement)
    chars_kept: int = 0
    chars_dropped: int = 0
    top_candidate_score: float = 0.0
    n_candidates: int = 0
    attempts: int = 0
    parse_ms: float = 0.0
