"""HTML → DOM tree builder, driven by the one-shot tokenizer in
``tokenizer.py`` (token-for-token compatible with stdlib ``html.parser``).

A pragmatic subset of the HTML5 tree-construction algorithm (the reference
uses AngleSharp's full spec parser with scripting enabled,
``SmartReader.cs:242-316``): implied end tags (p/li/dd/dt/tr/td/...),
head/body synthesis, raw-text elements (script/style/noscript/iframe —
scripting-on semantics make <noscript> raw text), table foster parenting,
and foreign (svg/math) content with self-closing tags.

No code is copied from the reference; this is written against the public
HTML5 parsing spec and validated on the fixture corpus.
"""

from __future__ import annotations

import html as _htmlmod

from .node import (
    CommentNode,
    Document,
    Element,
    TextNode,
    VOID_ELEMENTS,
)
from .tokenizer import tokenize

# RCDATA: tokenized raw but entities decode.
_RCDATA = frozenset({"title", "textarea"})

# Raw-text containers for the tokenizer (scripting enabled → noscript raw).
_CDATA_ELEMS = (
    "script", "style", "noscript", "iframe", "noembed", "noframes", "xmp",
    "title", "textarea",
)

# Start tags that implicitly close an open <p> (HTML5 "in body" rules).
_P_CLOSERS = frozenset(
    """address article aside blockquote center details dialog dir div dl
    fieldset figcaption figure footer form h1 h2 h3 h4 h5 h6 header hgroup
    hr li listing main menu nav ol p plaintext pre section summary table
    ul xmp dd dt""".split()
)

# "Button scope" boundaries for the implied-</p> search.
_P_SCOPE_STOP = frozenset({"html", "table", "td", "th", "caption", "button", "select", "template"})

# Generic end-tag search boundaries ("has element in scope").
_SCOPE_STOP = frozenset({"html", "body", "table", "td", "th", "caption", "object", "template", "select"})

# Elements that terminate the li/dd/dt implied-close walk.
_SPECIAL_BREAK = frozenset(
    """applet area article aside base basefont bgsound blockquote body br
    button caption center col colgroup dd details dir dl dt embed fieldset
    figcaption figure footer form frame frameset h1 h2 h3 h4 h5 h6 head
    header hgroup hr html iframe img input isindex li link listing main
    marquee menu meta nav noembed noframes noscript object ol p param
    plaintext pre script section select source style summary table tbody td
    textarea tfoot th thead title tr track ul wbr xmp""".split()
)

_HEAD_ONLY = frozenset({"base", "basefont", "bgsound", "link", "meta", "title", "style", "script"})

_TABLE_CTX = frozenset({"TABLE", "TBODY", "THEAD", "TFOOT", "TR"})

_FOREIGN_ROOTS = frozenset({"SVG", "MATH"})

# HTML5 spec "adjust SVG attributes": tokenizer-lowercased names → camelCase
_SVG_ATTR_ADJUST = {
    n.lower(): n
    for n in (
        "attributeName attributeType baseFrequency baseProfile calcMode "
        "clipPathUnits diffuseConstant edgeMode filterUnits glyphRef "
        "gradientTransform gradientUnits kernelMatrix kernelUnitLength "
        "keyPoints keySplines keyTimes lengthAdjust limitingConeAngle "
        "markerHeight markerUnits markerWidth maskContentUnits maskUnits "
        "numOctaves pathLength patternContentUnits patternTransform "
        "patternUnits pointsAtX pointsAtY pointsAtZ preserveAlpha "
        "preserveAspectRatio primitiveUnits refX refY repeatCount repeatDur "
        "requiredExtensions requiredFeatures specularConstant "
        "specularExponent spreadMethod startOffset stdDeviation stitchTiles "
        "surfaceScale systemLanguage tableValues targetX targetY textLength "
        "viewBox viewTarget xChannelSelector yChannelSelector zoomAndPan"
    ).split()
}

# HTML5 spec "SVG tag name adjustment"
_SVG_TAG_ADJUST = {
    n.lower(): n
    for n in (
        "altGlyph altGlyphDef altGlyphItem animateColor animateMotion "
        "animateTransform clipPath feBlend feColorMatrix feComponentTransfer "
        "feComposite feConvolveMatrix feDiffuseLighting feDisplacementMap "
        "feDistantLight feDropShadow feFlood feFuncA feFuncB feFuncG feFuncR "
        "feGaussianBlur feImage feMerge feMergeNode feMorphology feOffset "
        "fePointLight feSpecularLighting feSpotLight feTile feTurbulence "
        "foreignObject glyphRef linearGradient radialGradient textPath"
    ).split()
}


def _foreign_element(tag: str, attrs) -> Element:
    """Build a foreign-content element with spec case adjustments and
    case-preserving attribute storage."""
    name = _SVG_TAG_ADJUST.get(tag, tag)
    attrdict: dict[str, str] = {}
    for k, v in attrs:
        k = _SVG_ATTR_ADJUST.get(k, k)
        if k not in attrdict:
            attrdict[k] = v if v is not None else ""
    el = Element(name)
    el.attrs = attrdict
    el._ns = "foreign"
    el.xml_name = name
    return el


def _is_space_only(s: str) -> bool:
    return not s.strip(" \t\n\f\r")


class _TreeBuilder:
    """Tree-construction side of the parser: the ``html.parser`` handler
    surface, driven by ``tokenizer.tokenize`` (which also sets
    ``cdata_elem`` while inside a raw-text element)."""

    CDATA_CONTENT_ELEMENTS = _CDATA_ELEMS

    def __init__(self) -> None:
        self.cdata_elem: str | None = None
        self.doc = Document()
        self.html_el: Element | None = None
        self.head_el: Element | None = None
        self.body_el: Element | None = None
        self.stack: list[Element] = []
        self._foreign_depth = 0

    # -- structure synthesis ---------------------------------------------
    def _ensure_html(self, attrs=None) -> Element:
        if self.html_el is None:
            self.html_el = Element("html", dict(attrs or {}))
            self.doc.append_child(self.html_el)
            self.stack = [self.html_el]
        elif attrs:
            for k, v in attrs.items():
                self.html_el.attrs.setdefault(k, v)
        return self.html_el

    def _ensure_head(self, attrs=None) -> Element:
        self._ensure_html()
        if self.head_el is None:
            self.head_el = Element("head", dict(attrs or {}))
            self.html_el.append_child(self.head_el)
        elif attrs:
            for k, v in attrs.items():
                self.head_el.attrs.setdefault(k, v)
        return self.head_el

    def _ensure_body(self, attrs=None) -> Element:
        self._ensure_head()
        if self.body_el is None:
            self.body_el = Element("body", dict(attrs or {}))
            self.html_el.append_child(self.body_el)
            self.stack = [self.html_el, self.body_el]
        elif attrs:
            for k, v in attrs.items():
                self.body_el.attrs.setdefault(k, v)
        return self.body_el

    @property
    def _top(self) -> Element:
        return self.stack[-1]

    # -- scope helpers ----------------------------------------------------
    def _in_foreign(self) -> bool:
        return self._foreign_depth > 0

    def _close_p_if_open(self) -> None:
        for i in range(len(self.stack) - 1, -1, -1):
            t = self.stack[i].local_name
            if t == "p":
                del self.stack[i:]
                return
            if t in _P_SCOPE_STOP:
                return

    def _close_list_item(self, kinds: frozenset) -> None:
        for i in range(len(self.stack) - 1, -1, -1):
            t = self.stack[i].local_name
            if t in kinds:
                del self.stack[i:]
                return
            if t in _SPECIAL_BREAK and t not in ("address", "div", "p"):
                return

    def _pop_to_tag_inclusive(self, names: frozenset, stop: frozenset) -> bool:
        for i in range(len(self.stack) - 1, -1, -1):
            t = self.stack[i].local_name
            if t in names:
                del self.stack[i:]
                return True
            if t in stop:
                return False
        return False

    # -- insertion --------------------------------------------------------
    def _foster_target(self):
        """(parent, ref) insertion point before the nearest open table."""
        for i in range(len(self.stack) - 1, -1, -1):
            if self.stack[i].tag == "TABLE":
                table = self.stack[i]
                if table.parent is not None:
                    return table.parent, table
                return self.stack[i - 1] if i > 0 else self._ensure_body(), None
        return self._ensure_body(), None

    def _insert_node(self, node, *, foster: bool) -> None:
        top = self.stack[-1]
        if foster and top.tag in _TABLE_CTX:
            parent, ref = self._foster_target()
            parent.insert_before(node, ref)
        else:
            top.append_child(node)

    def _append_text(self, text: str, *, foster: bool = True) -> None:
        top = self.stack[-1]
        if foster and top.tag in _TABLE_CTX and not _is_space_only(text):
            parent, ref = self._foster_target()
            prev = ref.previous_sibling if ref is not None else parent.last_child
            if isinstance(prev, TextNode):
                prev.data += text
            else:
                parent.insert_before(TextNode(text), ref)
            return
        last = top._last
        if isinstance(last, TextNode):
            last.data += text
        else:
            top.append_child(TextNode(text))

    # -- table context normalization --------------------------------------
    def _prep_table_child(self, tag: str) -> bool:
        """Implied wrappers / closes for table-structure tags.

        Returns True when the tag was handled structurally and should be
        inserted at the (possibly adjusted) current insertion point.
        """
        if tag in ("td", "th"):
            # close open cell, ensure row
            self._pop_to_tag_inclusive(frozenset({"td", "th"}), frozenset({"tr", "table", "html"}))
            if self._top.tag in ("TABLE", "TBODY", "THEAD", "TFOOT"):
                if self._top.tag == "TABLE":
                    tb = Element("tbody")
                    self._top.append_child(tb)
                    self.stack.append(tb)
                tr = Element("tr")
                self._top.append_child(tr)
                self.stack.append(tr)
            return True
        if tag == "tr":
            self._pop_to_tag_inclusive(frozenset({"tr"}), frozenset({"table", "html"}))
            if self._top.tag == "TABLE":
                tb = Element("tbody")
                self._top.append_child(tb)
                self.stack.append(tb)
            return True
        if tag in ("tbody", "thead", "tfoot"):
            self._pop_to_tag_inclusive(
                frozenset({"tbody", "thead", "tfoot"}), frozenset({"table", "html"})
            )
            return True
        if tag in ("caption", "colgroup"):
            self._pop_to_tag_inclusive(
                frozenset({"caption", "colgroup", "tbody", "thead", "tfoot", "tr", "td", "th"}),
                frozenset({"table", "html"}),
            )
            return True
        if tag == "col":
            if self._top.tag == "TABLE":
                cg = Element("colgroup")
                self._top.append_child(cg)
                self.stack.append(cg)
            return True
        return False

    # -- tokenizer callbacks (the html.parser handler surface) -------------
    def handle_starttag(self, tag, attrs):
        attrdict: dict[str, str] = {}
        for k, v in attrs:
            if k not in attrdict:
                attrdict[k] = v if v is not None else ""

        if self._foreign_depth > 0:
            el = _foreign_element(tag, attrs)
            self._top.append_child(el)
            self.stack.append(el)
            if tag in ("svg", "math"):
                self._foreign_depth += 1
            return

        if tag == "html":
            self._ensure_html(attrdict)
            return
        if tag == "head":
            self._ensure_head(attrdict)
            return
        if tag == "body":
            self._ensure_body(attrdict)
            return
        if tag == "frameset":
            # no frameset support: treat as a plain container in body
            pass

        if self.body_el is None and tag in _HEAD_ONLY:
            head = self._ensure_head()
            el = Element(tag, attrdict)
            head.append_child(el)
            if tag not in VOID_ELEMENTS:
                self.stack.append(el)
            return
        if self.body_el is None and tag == "noscript":
            head = self._ensure_head()
            el = Element(tag, attrdict)
            head.append_child(el)
            self.stack.append(el)
            return

        if self.body_el is None:
            self._ensure_body()

        if tag in _P_CLOSERS:
            self._close_p_if_open()
        if tag == "li":
            self._close_list_item(frozenset({"li"}))
        elif tag in ("dd", "dt"):
            self._close_list_item(frozenset({"dd", "dt"}))
        elif tag in ("h1", "h2", "h3", "h4", "h5", "h6"):
            if self._top.local_name in ("h1", "h2", "h3", "h4", "h5", "h6"):
                self.stack.pop()
        elif tag == "option":
            if self._top.local_name == "option":
                self.stack.pop()
        elif tag == "optgroup":
            while self._top.local_name in ("option", "optgroup"):
                self.stack.pop()
        elif tag == "a":
            # misnested <a>: the adoption agency closes the open <a> but the
            # block elements above it stay open — remove ONLY the <a> from
            # the stack (formatting-marker boundaries per spec)
            for i in range(len(self.stack) - 1, -1, -1):
                t = self.stack[i].local_name
                if t == "a":
                    del self.stack[i]
                    break
                if t in ("table", "td", "th", "caption", "object", "marquee",
                         "template", "html", "body", "select"):
                    break
        elif tag == "button":
            self._pop_to_tag_inclusive(frozenset({"button"}), _SCOPE_STOP)
        elif tag == "table" and self._top.tag in _TABLE_CTX:
            # new table closes the open one (spec: table in table)
            self._pop_to_tag_inclusive(frozenset({"table"}), frozenset({"html"}))
        elif tag == "form":
            pass

        foster = True
        if tag in ("table", "tbody", "thead", "tfoot", "tr", "td", "th", "caption", "colgroup", "col", "script", "style", "template"):
            if self._top.tag in _TABLE_CTX or tag in ("td", "th", "tr", "tbody", "thead", "tfoot", "caption", "colgroup", "col"):
                if self._top.tag in _TABLE_CTX:
                    self._prep_table_child(tag)
                foster = False

        if tag in ("svg", "math"):
            el = _foreign_element(tag, attrs)
            self._insert_node(el, foster=foster)
            self.stack.append(el)
            self._foreign_depth += 1
            return
        el = Element(tag, attrdict)
        self._insert_node(el, foster=foster)
        if tag not in VOID_ELEMENTS:
            self.stack.append(el)
            if tag in ("pre", "listing", "textarea"):
                self._pre_pending = el

    def handle_startendtag(self, tag, attrs):
        if self._in_foreign():
            el = _foreign_element(tag, attrs)
            self._top.append_child(el)
            return
        # HTML content: self-closing flag is ignored except for void elements
        self.handle_starttag(tag, attrs)
        if tag not in VOID_ELEMENTS and tag not in self.CDATA_CONTENT_ELEMENTS:
            self.handle_endtag(tag)

    def handle_endtag(self, tag):
        if self._in_foreign():
            for i in range(len(self.stack) - 1, -1, -1):
                e = self.stack[i]
                if e.local_name == tag:
                    removed = self.stack[i:]
                    del self.stack[i:]
                    for r in removed:
                        if r.tag in _FOREIGN_ROOTS and r._ns == "foreign":
                            self._foreign_depth -= 1
                    return
                if e._ns != "foreign":
                    return
            return

        if tag in ("html", "body", "head"):
            if tag == "head" and self.body_el is None and self.stack and self.stack[-1].tag == "HEAD":
                self.stack.pop()
            return
        if tag == "br":
            # spec: </br> acts as <br>
            self.handle_starttag("br", [])
            return
        if tag == "p":
            for i in range(len(self.stack) - 1, -1, -1):
                t = self.stack[i].local_name
                if t == "p":
                    del self.stack[i:]
                    return
                if t in _P_SCOPE_STOP:
                    break
            # no open <p>: spec synthesizes an empty one
            self._ensure_body()
            self._insert_node(Element("p"), foster=True)
            return
        if tag == "table":
            self._pop_to_tag_inclusive(frozenset({"table"}), frozenset({"html"}))
            return
        if tag in ("td", "th"):
            self._pop_to_tag_inclusive(frozenset({"td", "th"}), frozenset({"table", "html"}))
            return
        if tag == "tr":
            self._pop_to_tag_inclusive(frozenset({"tr"}), frozenset({"table", "html"}))
            return
        if tag in ("tbody", "thead", "tfoot"):
            self._pop_to_tag_inclusive(frozenset({tag}), frozenset({"table", "html"}))
            return

        stop = _SCOPE_STOP if tag not in _SCOPE_STOP else frozenset({"html"})
        for i in range(len(self.stack) - 1, -1, -1):
            t = self.stack[i].local_name
            if t == tag:
                del self.stack[i:]
                return
            if t in stop:
                return

    def handle_data(self, data):
        if not data:
            return
        cdata = self.cdata_elem  # inside raw-text element?
        if cdata:
            if cdata in _RCDATA:
                data = _htmlmod.unescape(data)
            top = self._top
            if top.local_name in ("pre", "listing", "textarea") and not top.childNodes:
                if data.startswith("\r\n"):
                    data = data[2:]
                elif data.startswith("\n") or data.startswith("\r"):
                    data = data[1:]
            last = top.last_child
            if isinstance(last, TextNode):
                last.data += data
            else:
                top.append_child(TextNode(data))
            return

        if self.body_el is None:
            if _is_space_only(data):
                if self.head_el is not None and self.stack and self.stack[-1] is not self.html_el:
                    # whitespace inside an open head element
                    self._append_text(data, foster=False)
                return
            stripped = data.lstrip(" \t\n\f\r")
            self._ensure_body()
            data = stripped

        top = self._top
        if top.local_name in ("pre", "listing") and not top.childNodes:
            if data.startswith("\r\n"):
                data = data[2:]
            elif data.startswith("\n") or data.startswith("\r"):
                data = data[1:]
            if not data:
                return
        self._append_text(data)

    def handle_comment(self, data):
        node = CommentNode(data)
        if self.html_el is None:
            self.doc.append_child(node)
        else:
            self._top.append_child(node)

    def handle_decl(self, decl):
        pass

    def handle_pi(self, data):
        pass

    def unknown_decl(self, data):
        pass


def parse_html(text: str) -> Document:
    """Parse an HTML string into a Document (html/head/body synthesized).

    The tokenizer is the one-shot scanner in ``tokenizer.py`` (~2× the
    stdlib's throughput, behavior-identical to ``html.parser`` — see the
    differential test in tests/test_dom.py).
    """
    tb = _TreeBuilder()
    tokenize(text, tb)
    tb._ensure_body()
    return tb.doc
