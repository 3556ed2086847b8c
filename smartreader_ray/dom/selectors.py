"""Tiny CSS-selector subset: exactly what the extraction algorithm needs
(`div > br`, `[rel="author"]`, `meta[http-equiv="Content-Language"]`,
`li p`, comma lists). Reference call sites: ``SmartReader.cs:2217``,
``SmartReader.cs:942``, ``Readability.cs:676-678``."""

from __future__ import annotations

import functools
import re

from .node import Element, ParentNode

_PART_RE = re.compile(
    r"""^
    (?P<tag>[a-zA-Z][a-zA-Z0-9-]*|\*)?
    (?P<attrs>(?:\[[^\]]+\])*)
    $""",
    re.X,
)
_ATTR_RE = re.compile(r"""\[\s*([^\]=\s]+)\s*(?:=\s*(?:"([^"]*)"|'([^']*)'|([^\]\s]*)))?\s*\]""")

#: HTML-spec legacy attributes whose values match ASCII case-insensitively
#: in selectors (the reference's AngleSharp honors this list).
_CI_VALUE_ATTRS = frozenset(
    """accept accept-charset align alink axis bgcolor charset checked clear
    codetype color compact declare defer dir direction disabled enctype face
    frame hreflang http-equiv lang language link media method multiple nohref
    noresize noshade nowrap readonly rel rev rules scope scrolling selected
    shape target text type valign valuetype vlink""".split()
)


class _Simple:
    __slots__ = ("tag", "attrs")

    def __init__(self, part: str):
        m = _PART_RE.match(part)
        if not m:
            raise ValueError(f"unsupported selector part: {part!r}")
        tag = m.group("tag")
        self.tag = tag.upper() if tag and tag != "*" else None
        self.attrs: list[tuple[str, str | None]] = []
        for am in _ATTR_RE.finditer(m.group("attrs") or ""):
            name = am.group(1).lower()
            value = am.group(2) if am.group(2) is not None else (
                am.group(3) if am.group(3) is not None else am.group(4)
            )
            self.attrs.append((name, value))

    def matches(self, el: Element) -> bool:
        if self.tag is not None and el.tag != self.tag:
            return False
        for name, value in self.attrs:
            actual = el.get_attribute(name)
            if actual is None:
                return False
            if value is not None:
                if name in _CI_VALUE_ATTRS:
                    if actual.lower() != value.lower():
                        return False
                elif actual != value:
                    return False
        return True


class _Compound:
    """Sequence of simple selectors joined by descendant/child combinators."""

    __slots__ = ("parts",)

    def __init__(self, sel: str):
        tokens = sel.replace(">", " > ").split()
        self.parts: list[tuple[str, _Simple]] = []  # (combinator, simple)
        comb = " "
        for tok in tokens:
            if tok == ">":
                comb = ">"
                continue
            self.parts.append((comb, _Simple(tok)))
            comb = " "

    def matches(self, el: Element) -> bool:
        i = len(self.parts) - 1
        comb, simple = self.parts[i]
        if not simple.matches(el):
            return False
        node = el
        i -= 1
        need_comb = comb
        while i >= 0:
            comb, simple = self.parts[i]
            parent = node.parent_element
            if need_comb == ">":
                if parent is None or not simple.matches(parent):
                    return False
                node = parent
            else:
                found = None
                anc = parent
                while anc is not None:
                    if simple.matches(anc):
                        found = anc
                        break
                    anc = anc.parent_element
                if found is None:
                    return False
                node = found
            need_comb = comb
            i -= 1
        return True


@functools.lru_cache(maxsize=256)
def _compile(selector: str) -> tuple[_Compound, ...]:
    """Parsed once per selector string: the engine matches a handful of
    literal selectors against many elements."""
    return tuple(_Compound(s.strip()) for s in selector.split(",") if s.strip())


def query_selector_all(root: ParentNode, selector: str) -> list[Element]:
    compounds = _compile(selector)
    out = []
    for el in root.iter_elements():
        for c in compounds:
            if c.matches(el):
                out.append(el)
                break
    return out


def query_selector(root: ParentNode, selector: str):
    compounds = _compile(selector)
    for el in root.iter_elements():
        for c in compounds:
            if c.matches(el):
                return el
    return None


def element_matches(el: Element, selector: str) -> bool:
    return any(c.matches(el) for c in _compile(selector))
