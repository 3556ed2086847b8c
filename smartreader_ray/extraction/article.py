"""Article output record + plaintext conversion + time-to-read.

Semantics follow the reference's ``Article.cs`` (ConvertToPlaintext
:268-344, Length :103) and ``TimeToReadCalculator.cs:10-70``.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from datetime import datetime
from typing import Optional

import numpy as np

from ..dom import Element
from ..dom.node import TEXT_NODE
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
    """Article.cs:317-344 — newline before P/BR, after P. One pre-order
    walk over the linked children with an explicit stack: a string on
    the stack (a text node's data, or the newline that closes a P) is
    output when popped."""
    emit = out.append
    stack: list = []
    push = stack.append
    node: Optional[Element] = el
    while True:
        if node is not None:
            tag = node.tag
            if tag == "P":
                emit("\n")
                push("\n")
            elif tag == "BR":
                emit("\n")
            c = node._last
            while c is not None:
                if type(c) is Element:
                    push(c)
                elif c.node_type == TEXT_NODE:
                    push(c.data)
                c = c._prev
        if not stack:
            return
        node = stack.pop()
        if type(node) is str:
            emit(node)
            node = None


#: every Unicode Z-category codepoint (Zs + Zl + Zp) — the set the
#: reference's char.IsWhiteSpace-ish "space" test reduces to here
_Z_SPACE = (
    "\x20\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007"
    "\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)


def _code_points(text: str) -> np.ndarray:
    """``text`` as one uint32 per code point (a lone surrogate included)."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


#: code points per kernel pass: a long page's text goes in slices, so the
#: arrays stay a few hundred KB whatever the page size
_CHUNK = 1 << 16

#: per code point below U+3002 (higher ones clip to the last entry):
#: 1 for a Z-space, 2 for CR or LF, 0 otherwise
_SPACE_KIND = np.zeros(0x3002, dtype=np.uint8)
_SPACE_KIND[[ord(c) for c in _Z_SPACE]] = 1
_SPACE_KIND[[ord("\r"), ord("\n")]] = 2


def squash_spaces(text: str) -> str:
    """Article.cs:268-312 drop rule — a Z-category space is dropped iff
    the next char is a newline, the previous char was a newline, or the
    previous char was a space. Vectorized over the code points of each
    slice, read with one char of context on either side; a slice with
    nothing to drop is kept as is."""
    pieces = []
    for start in range(0, len(text), _CHUNK):
        lo = max(start - 1, 0)
        cp = _code_points(text[lo:start + _CHUNK + 1])
        kind = _SPACE_KIND.take(cp, mode="clip")
        drop = np.zeros(len(kind), dtype=bool)
        drop[1:] = kind[:-1] != 0
        drop[:-1] |= kind[1:] == 2
        drop &= kind == 1
        own = slice(start - lo, start - lo + min(_CHUNK, len(text) - start))
        if drop[own].any():
            pieces.append(cp[own][~drop[own]].tobytes().decode("utf-32-le", "surrogatepass"))
        else:
            pieces.append(text[start:start + _CHUNK])
    return "".join(pieces)


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


#: letters per code point (TimeToReadCalculator.cs:42): 0 for ' ' and
#: BMP punctuation (P*), 1 for any other BMP char, and 2 in the last
#: entry, where every astral char clips to: two UTF-16 units, never
#: deleted by the reference, punctuation or not
_LETTER_UNITS = np.ones(0x10001, dtype=np.uint8)
_LETTER_UNITS[[c for c in range(0x10000)
               if unicodedata.category(chr(c))[0] == "P"] + [ord(" ")]] = 0
_LETTER_UNITS[0x10000] = 2


def count_letters(text: str) -> int:
    """TimeToReadCalculator.cs:42 — chars that are not ' ' nor punctuation,
    counted in UTF-16 code units (.NET ``char`` semantics; a lone
    surrogate is one unit, category Cs): one table sum over the code
    points, nothing deleted from a copy."""
    return sum(int(_LETTER_UNITS.take(_code_points(text[i:i + _CHUNK]), mode="clip").sum())
               for i in range(0, len(text), _CHUNK))


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
