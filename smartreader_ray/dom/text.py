"""Text helpers matching the HTML5 space-character rules the reference
relies on (AngleSharp ``StringExtensions.Collapse``, used by
``NodeUtility.GetInnerText`` — reference ``NodeUtility.cs:405-412``)."""

from __future__ import annotations

import re

_SPACE_RUN = re.compile(" {2,}")


def collapse_whitespace(text: str) -> str:
    """Collapse runs of HTML5 space characters (space, tab, LF, FF, CR —
    not U+00A0) into a single space.

    Each non-space HTML5 space becomes a space (``str.replace`` is a
    C-speed scan on any string width), then runs of two or more spaces
    shrink to one; the regex runs only when such a run exists."""
    text = text.replace("\t", " ").replace("\n", " ").replace("\f", " ").replace("\r", " ")
    return _SPACE_RUN.sub(" ", text) if "  " in text else text
