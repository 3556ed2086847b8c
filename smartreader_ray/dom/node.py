"""Minimal mutable DOM for the extraction engine.

A from-scratch node model built for the readability algorithm: elements
carry tag (uppercase, AngleSharp ``TagName`` convention), an ordered
attribute dict, linked children, and a parent pointer. Siblings are a
doubly-linked list so ``next_sibling`` / ``remove_child`` /
``insert_before`` are O(1) — the remove-and-get-next DFS walks the
algorithm performs are linear, like AngleSharp's linked DOM (a plain
list-index model degrades to O(n²) on wide real-world pages).

Score state lives OFF the attribute map (``score`` slot) — the reference
keeps it in a ``readability-score`` string attribute
(``SmartReader.cs:881-905``); semantics are equivalent because the
attribute is parsed back to double on every read and stripped before
serialization.
"""

from __future__ import annotations

from typing import Iterator, Optional

ELEMENT_NODE = 1
TEXT_NODE = 3
COMMENT_NODE = 8
DOCUMENT_NODE = 9

#: Global DOM revision: bumped on every structural mutation (attach /
#: detach). Subtree-text caches are (rev, value) pairs validated against
#: it — one mutation anywhere invalidates everything, which is exactly
#: right for the readability workload: long read-only scoring passes
#: (link density, inner text, char counts) separated by mutation bursts.
#: Text nodes are immutable after construction (no ``.data`` writes in
#: the engine), so structure is the only thing that can change text.
_REV = 0

#: HTML void elements (serialize with no end tag, never have children).
VOID_ELEMENTS = frozenset(
    "area base basefont bgsound br col embed frame hr img input keygen "
    "link meta param source track wbr".split()
)

#: Elements whose text children serialize raw (no entity escaping).
RAW_TEXT_ELEMENTS = frozenset(
    "style script xmp iframe noembed noframes plaintext noscript".split()
)


class Node:
    __slots__ = ("parent", "_next", "_prev")

    node_type = 0

    def __init__(self):
        self.parent: Optional["ParentNode"] = None
        self._next: Optional["Node"] = None
        self._prev: Optional["Node"] = None

    @property
    def next_sibling(self) -> Optional["Node"]:
        return self._next

    @property
    def previous_sibling(self) -> Optional["Node"]:
        return self._prev

    @property
    def parent_element(self) -> Optional["Element"]:
        p = self.parent
        return p if type(p) is Element else None

    def remove(self) -> None:
        if self.parent is not None:
            self.parent.remove_child(self)


class TextNode(Node):
    __slots__ = ("data", "_sum")

    node_type = TEXT_NODE
    node_name = "#text"

    def __init__(self, data: str):
        super().__init__()
        self.data = data
        self._sum = None  # collapsed-text summary (nodeutil), never stale

    @property
    def text_content(self) -> str:
        return self.data

    def __repr__(self) -> str:  # pragma: no cover
        return f"Text({self.data[:30]!r})"


class CommentNode(Node):
    __slots__ = ("data",)

    node_type = COMMENT_NODE
    node_name = "#comment"

    def __init__(self, data: str):
        super().__init__()
        self.data = data

    @property
    def text_content(self) -> str:
        return self.data

    def __repr__(self) -> str:  # pragma: no cover
        return f"Comment({self.data[:30]!r})"


class ParentNode(Node):
    __slots__ = ("_first", "_last", "_n_children", "_tc_rev", "_tc_val",
                 "_it_rev", "_it_val", "_ld_rev", "_ld_val", "_sum_rev", "_sum_val")

    def __init__(self):
        super().__init__()
        self._first: Optional[Node] = None
        self._last: Optional[Node] = None
        self._n_children = 0
        self._tc_rev = -1  # text_content cache
        self._tc_val = ""
        self._it_rev = -1  # normalized inner-text cache (nodeutil)
        self._ld_rev = -1  # link-density cache (nodeutil)
        self._ld_val = 0.0
        self._it_val = ""
        self._sum_rev = -1  # collapsed-text summary cache (nodeutil)
        self._sum_val = None

    # -- linked-list plumbing ---------------------------------------------
    def _detach(self, node: Node) -> None:
        global _REV
        _REV += 1
        prev, nxt = node._prev, node._next
        if prev is not None:
            prev._next = nxt
        else:
            self._first = nxt
        if nxt is not None:
            nxt._prev = prev
        else:
            self._last = prev
        node.parent = None
        node._prev = None
        node._next = None
        self._n_children -= 1

    # -- mutation ---------------------------------------------------------
    def append_child(self, node: Node) -> Node:
        global _REV
        _REV += 1
        if node.parent is not None:
            node.parent._detach(node)
        node.parent = self
        node._prev = self._last
        node._next = None
        if self._last is not None:
            self._last._next = node
        else:
            self._first = node
        self._last = node
        self._n_children += 1
        return node

    def remove_child(self, node: Node) -> Node:
        if node.parent is not self:
            raise ValueError("node is not a child of this parent")
        self._detach(node)
        return node

    def insert_before(self, node: Node, ref: Optional[Node]) -> Node:
        global _REV
        _REV += 1
        if ref is None:
            return self.append_child(node)
        if ref.parent is not self:
            raise ValueError("reference node is not a child of this parent")
        if node is ref:
            return node
        if node.parent is not None:
            node.parent._detach(node)
        prev = ref._prev
        node.parent = self
        node._prev = prev
        node._next = ref
        ref._prev = node
        if prev is not None:
            prev._next = node
        else:
            self._first = node
        self._n_children += 1
        return node

    def replace_child(self, new: Node, old: Node) -> Node:
        if old.parent is not self:
            raise ValueError("old node is not a child of this parent")
        if new is old:
            return old
        self.insert_before(new, old)
        self._detach(old)
        return old

    # -- structure queries ------------------------------------------------
    @property
    def childNodes(self) -> list[Node]:
        out = []
        n = self._first
        while n is not None:
            out.append(n)
            n = n._next
        return out

    @property
    def first_child(self) -> Optional[Node]:
        return self._first

    @property
    def last_child(self) -> Optional[Node]:
        return self._last

    @property
    def has_child_nodes(self) -> bool:
        return self._first is not None

    @property
    def num_child_nodes(self) -> int:
        return self._n_children

    @property
    def children(self) -> list["Element"]:
        out = []
        n = self._first
        while n is not None:
            if type(n) is Element:
                out.append(n)
            n = n._next
        return out

    @property
    def first_element_child(self) -> Optional["Element"]:
        n = self._first
        while n is not None:
            if type(n) is Element:
                return n
            n = n._next
        return None

    @property
    def last_element_child(self) -> Optional["Element"]:
        n = self._last
        while n is not None:
            if type(n) is Element:
                return n
            n = n._prev
        return None

    @property
    def text_content(self) -> str:
        if self._tc_rev == _REV:
            return self._tc_val
        out: list[str] = []
        stack: list[Node] = []
        n = self._last
        while n is not None:
            stack.append(n)
            n = n._prev
        while stack:
            n = stack.pop()
            if n.node_type == TEXT_NODE:
                out.append(n.data)  # type: ignore[attr-defined]
            elif type(n) is Element:
                if n._tc_rev == _REV:
                    out.append(n._tc_val)
                    continue
                c = n._last
                while c is not None:
                    stack.append(c)
                    c = c._prev
        val = "".join(out)
        self._tc_rev = _REV
        self._tc_val = val
        return val

    def has_nonws_text(self) -> bool:
        """True iff ``text_content.strip() != ""`` — without building the
        string. Early-exits at the first text node containing a
        non-whitespace char (``d and not d.isspace()`` ⇔ the strip test,
        since ``str.strip()`` removes exactly the ``isspace`` chars).
        Uses a still-valid text_content cache when present."""
        if self._tc_rev == _REV:
            v = self._tc_val
            return bool(v) and not v.isspace()
        stack: list[Node] = []
        n = self._last
        while n is not None:
            stack.append(n)
            n = n._prev
        while stack:
            n = stack.pop()
            if n.node_type == TEXT_NODE:
                d = n.data  # type: ignore[attr-defined]
                if d and not d.isspace():
                    return True
            elif type(n) is Element:
                if n._tc_rev == _REV:
                    v = n._tc_val
                    if v and not v.isspace():
                        return True
                    continue
                c = n._last
                while c is not None:
                    stack.append(c)
                    c = c._prev
        return False

    def iter_elements(self) -> Iterator["Element"]:
        """Depth-first pre-order over descendant elements."""
        stack = list(reversed(self.children))
        while stack:
            n = stack.pop()
            yield n
            c = n._last
            while c is not None:
                if type(c) is Element:
                    stack.append(c)
                c = c._prev

    def collect_by_tag(self, *groups) -> list[list["Element"]]:
        """One pre-order walk over the descendant elements, sorted into
        one list per group, each in document order. A group is a
        collection of uppercase tags, or None for every element; a tag
        may sit in several groups. The engine's one subtree walk: each
        phase walks once and takes its tag passes from the lists."""
        outs: list[list[Element]] = [[] for _ in groups]
        every = tuple(out.append for out, tags in zip(outs, groups) if tags is None)
        route: dict = {}
        for out, tags in zip(outs, groups):
            for tag in tags or ():
                route[tag] = route.get(tag, every) + (out.append,)
        stack: list[Element] = []
        push = stack.append
        c = self._last
        while c is not None:
            if type(c) is Element:
                push(c)
            c = c._prev
        while stack:
            n = stack.pop()
            for emit in route.get(n.tag, every):
                emit(n)
            c = n._last
            while c is not None:
                if type(c) is Element:
                    push(c)
                c = c._prev
        return outs

    def get_elements_by_tag_name(self, tag: str) -> list["Element"]:
        """Snapshot list in document order; ``*`` matches all elements."""
        return self.collect_by_tag(None if tag == "*" else (tag.upper(),))[0]

    def get_all_nodes_with_tag(self, tags) -> list["Element"]:
        return self.collect_by_tag({t.upper() for t in tags})[0]

    def inside(self, nodes: list["Element"]) -> list["Element"]:
        """The ``nodes`` still in this node's subtree (itself excluded),
        in the given order: a list a walk took before a mutation, less
        what the mutation took out. It matches a new walk as long as the
        mutation inserted no node of the list's tags and moved none out
        of document order."""
        out = []
        for n in nodes:
            p = n.parent
            while p is not None and p is not self:
                p = p.parent
            if p is not None:
                out.append(n)
        return out


class Element(ParentNode):
    """NOTE: Element is effectively final — hot traversal paths use
    `type(x) is Element` (measurably faster than isinstance); subclassing
    Element would silently break them."""

    __slots__ = ("tag", "attrs", "score", "_ns", "xml_name", "_lname")

    node_type = ELEMENT_NODE

    #: (upper, lower) per seen tag name — two str case conversions per
    #: Element construction are measurable at ~1k elements/doc; the tag
    #: vocabulary is tiny so the cache is effectively static after warmup
    _CASE_CACHE: dict = {}

    def __init__(self, tag: str, attrs: Optional[dict] = None):
        super().__init__()
        case = Element._CASE_CACHE.get(tag)
        if case is None:
            u = tag.upper()
            case = (u, u.lower())
            if len(Element._CASE_CACHE) < 4096:  # wild HTML has unbounded
                Element._CASE_CACHE[tag] = case  # tag names; cap the cache
        self.tag, self._lname = case  # tag never reassigned post-init
        self.attrs: dict[str, str] = attrs if attrs is not None else {}
        self.score: Optional[float] = None  # readability score (off-DOM attr)
        self._ns: Optional[str] = None  # set for svg/math foreign content
        self.xml_name: Optional[str] = None  # case-preserved name (foreign)

    @property
    def node_name(self) -> str:
        return self.tag

    @property
    def local_name(self) -> str:
        return self._lname

    # -- attributes -------------------------------------------------------
    def get_attribute(self, name: str) -> Optional[str]:
        """The value of ``name.lower()``. An HTML element's keys are all
        lowercase, so the name is looked up as given first and lowered
        only on a miss; a foreign (svg/math) element keeps camelCase keys
        that only the lowered name may find."""
        value = self.attrs.get(name)
        if (value is None or self._ns is not None) and not name.islower():
            return self.attrs.get(name.lower())
        return value

    def has_attribute(self, name: str) -> bool:
        """Whether ``name.lower()`` is set; looked up like ``get_attribute``."""
        if name in self.attrs and (self._ns is None or name.islower()):
            return True
        return not name.islower() and name.lower() in self.attrs

    def set_attribute(self, name: str, value: str) -> None:
        # NOTE: attribute mutations deliberately do NOT bump the
        # structural _REV counter — the text/inner-text/link-density
        # caches key on _REV and depend only on tree structure and
        # text, except link density which also reads <a href>. That is
        # safe because the extraction core performs all density reads
        # before any href mutation (_fix_relative_uris runs last);
        # bumping _REV here would needlessly flush the text caches on
        # every class/style tweak during cleaning.
        self.attrs[name.lower()] = value

    def remove_attribute(self, name: str) -> None:
        self.attrs.pop(name.lower(), None)

    @property
    def class_name(self) -> str:
        return self.attrs.get("class", "")

    @class_name.setter
    def class_name(self, value: str) -> None:
        self.attrs["class"] = value

    @property
    def id(self) -> str:
        return self.attrs.get("id", "")

    @id.setter
    def id(self, value: str) -> None:
        self.attrs["id"] = value

    # -- element-sibling nav ---------------------------------------------
    @property
    def next_element_sibling(self) -> Optional["Element"]:
        n = self._next
        while n is not None:
            if type(n) is Element:
                return n
            n = n._next
        return None

    @property
    def previous_element_sibling(self) -> Optional["Element"]:
        n = self._prev
        while n is not None:
            if type(n) is Element:
                return n
            n = n._prev
        return None

    def get_root(self) -> Node:
        n: Node = self
        while n.parent is not None:
            n = n.parent
        return n

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{self.tag} {self.attrs!r} children={self._n_children}>"


class Document(ParentNode):
    __slots__ = ()

    node_type = DOCUMENT_NODE
    node_name = "#document"

    @property
    def document_element(self) -> Optional[Element]:
        return self.first_element_child

    @property
    def body(self) -> Optional[Element]:
        root = self.document_element
        if root is None:
            return None
        for c in root.children:
            if c.tag == "BODY":
                return c
        return None

    @property
    def head(self) -> Optional[Element]:
        root = self.document_element
        if root is None:
            return None
        for c in root.children:
            if c.tag == "HEAD":
                return c
        return None

    @property
    def title(self) -> str:
        """Stripped-and-collapsed text of the first <title> (DOM spec)."""
        from .text import collapse_whitespace

        for e in self.iter_elements():
            if e.tag == "TITLE":
                return collapse_whitespace(e.text_content.strip())
        return ""

    def create_element(self, tag: str) -> Element:
        return Element(tag)

    def create_text_node(self, data: str) -> TextNode:
        return TextNode(data)

    def create_document_fragment(self) -> "Document":
        return Document()
