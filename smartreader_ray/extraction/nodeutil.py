"""DOM analysis/mutation helpers for the extraction heuristics.

Semantics follow the reference's ``NodeUtility.cs`` (cited per function);
implemented against our own DOM with snapshot lists + backwards iteration
(the reference's own removal-safe pattern, ``NodeUtility.cs:140-154``).
"""

from __future__ import annotations

import re

from ..dom import Element, Node, collapse_whitespace
from ..dom import node as _dom_node
from ..dom.node import ELEMENT_NODE, TEXT_NODE, ParentNode
from . import regexes

DIV_TO_P_ELEMS = frozenset({"BLOCKQUOTE", "DL", "DIV", "IMG", "OL", "P", "PRE", "TABLE", "UL"})

PRESENTATIONAL_ATTRIBUTES = frozenset({
    "align", "background", "bgcolor", "border", "cellpadding", "cellspacing",
    "frame", "hspace", "rules", "style", "valign", "vspace",
})

DEPRECATED_SIZE_ATTRIBUTE_ELEMS = frozenset({"TABLE", "TH", "TD", "HR", "PRE"})

PHRASING_ELEMS = frozenset({
    "ABBR", "AUDIO", "B", "BDO", "BR", "BUTTON", "CITE", "CODE", "DATA",
    "DATALIST", "DFN", "EM", "EMBED", "I", "IMG", "INPUT", "KBD", "LABEL",
    "MARK", "MATH", "METER", "NOSCRIPT", "OBJECT", "OUTPUT", "PROGRESS", "Q",
    "RUBY", "SAMP", "SCRIPT", "SELECT", "SMALL", "SPAN", "STRONG", "SUB",
    "SUP", "TEXTAREA", "TIME", "VAR", "WBR",
})

TEXTISH_TAGS = ("SPAN", "LI", "TD") + tuple(sorted(DIV_TO_P_ELEMS))

_XML_NAME_START = re.compile(r"[A-Za-z_:À-˿Ͱ-῿‌‍⁰-↏]")
_XML_NAME_CHAR = re.compile(
    r"[A-Za-z0-9_:.\-·À-˿̀-ͯͰ-῿‌‍‿⁀⁰-↏]"
)


# -- attribute name hygiene (NodeUtility.cs:643-652, TextUtility.cs:25-51) --
def clean_xml_name(name: str) -> str:
    if not name:
        return name
    i = 0
    while i < len(name) and not _XML_NAME_START.match(name[i]):
        i += 1
    return "".join(ch for ch in name[i:] if _XML_NAME_CHAR.match(ch))


def is_xml_name(name: str) -> bool:
    if not name or not _XML_NAME_START.match(name[0]):
        return False
    return all(_XML_NAME_CHAR.match(c) for c in name)


def safe_set_attribute(el: Element, name: str, value: str) -> None:
    if is_xml_name(name):
        el.set_attribute(name, value)
    else:
        cleaned = clean_xml_name(name)
        if cleaned:
            el.set_attribute(cleaned, value)


# -- tag replacement (NodeUtility.cs:52-68) ---------------------------------
def set_node_tag(node: Element, tag: str) -> Element:
    replacement = Element(tag)
    while node.first_child is not None:
        replacement.append_child(node.first_child)
    node.parent.replace_child(replacement, node)
    for name, value in list(node.attrs.items()):
        safe_set_attribute(replacement, name, value)
    replacement.score = node.score  # score travels with attrs in the reference
    return replacement


def replace_node_tags(nodes: list[Element], tag: str) -> None:
    for node in nodes:
        if node.parent is not None:
            set_node_tag(node, tag)


# -- visibility (NodeUtility.cs:75-130) -------------------------------------
def get_display_from_style(style: str) -> str | None:
    idx = style.lower().find("display:")
    if idx < 0:
        return None
    value = style[idx + 7:].strip()
    colon = value.find(":")
    if colon < 0:
        return None
    value = value[colon + 1:]
    semi = value.find(";")
    if semi > -1:
        value = value[: semi - colon].strip()
    return value


def get_visibility_from_style(style: str) -> str | None:
    for part in style.split(";"):
        kv = part.split(":")
        if len(kv) != 2:
            continue
        if kv[0].strip() == "visibility":
            return kv[1].strip()
    return None


def is_hidden(el: Element) -> bool:
    style = el.get_attribute("style")
    if style is None:
        return False
    if get_display_from_style(style) == "none":
        return True
    vis = get_visibility_from_style(style)
    return vis in ("hidden", "collapse")


def is_probably_visible(el: Element) -> bool:
    if is_hidden(el):
        return False
    if el.has_attribute("hidden"):
        return False
    aria = el.get_attribute("aria-hidden")
    if aria is not None and aria == "true" and "fallback-image" not in el.class_name:
        return False
    return True


# -- removal-safe iteration (NodeUtility.cs:140-171) ------------------------
def remove_nodes(nodes: list[Element], filter_fn=None) -> None:
    for i in range(len(nodes) - 1, -1, -1):
        node = nodes[i]
        if node.parent is not None:
            if filter_fn is None or filter_fn(node):
                node.parent.remove_child(node)


def for_each_element(nodes: list[Element], fn) -> None:
    for node in nodes:
        fn(node)


# -- structural predicates --------------------------------------------------
def is_single_image(el: Element | None) -> bool:
    """NodeUtility.cs:206-216"""
    while el is not None:
        if el.tag == "IMG":
            return True
        children = el.children
        if len(children) != 1 or el.text_content.strip() != "":
            return False
        el = children[0]
    return False


def has_single_tag_inside_element(el: Element, tag: str) -> bool:
    """NodeUtility.cs:332-351"""
    children = el.children
    if len(children) != 1 or children[0].tag != tag:
        return False
    for child in el.childNodes:
        if child.node_type == TEXT_NODE and regexes.HAS_CONTENT.search(child.data):
            return False
    return True


def is_element_without_content(el: Element) -> bool:
    """NodeUtility.cs:353-359"""
    if el.node_type != ELEMENT_NODE:
        return False
    # early-exit subtree scan — equivalent to text_content.strip() != ""
    # without materializing the string (this predicate runs inside prune
    # loops whose mutations keep invalidating the text cache)
    if el.has_nonws_text():
        return False
    children = el.children
    if len(children) == 0:
        return True
    # one fused subtree walk: children == (#br + #hr anywhere below)
    n_br_hr = len(el.get_all_nodes_with_tag(("br", "hr")))
    return len(children) == n_br_hr


def has_child_block_element(el) -> bool:
    """NodeUtility.cs:366-379"""
    if el is None:
        return False
    for child in el.childNodes:
        if isinstance(child, Element) and (
            child.tag in DIV_TO_P_ELEMS or has_child_block_element(child)
        ):
            return True
    return False


def is_phrasing_content(node: Node) -> bool:
    """NodeUtility.cs:386-390"""
    if node.node_type == TEXT_NODE:
        return True
    name = node.node_name
    if name in PHRASING_ELEMS:
        return True
    if name in ("A", "DEL", "INS") and isinstance(node, ParentNode):
        return all(is_phrasing_content(c) for c in node.childNodes)
    return False


def is_whitespace(node: Node) -> bool:
    """NodeUtility.cs:392-396"""
    if node.node_type == TEXT_NODE and node.text_content.strip() == "":
        return True
    return node.node_type == ELEMENT_NODE and node.node_name == "BR"


# -- text metrics -----------------------------------------------------------
def get_inner_text(node, normalize_spaces: bool = True) -> str:
    """NodeUtility.cs:405-412 (AngleSharp Collapse = HTML5 space chars).

    The normalized form is cached per node against the global DOM
    revision (same validity rule as ``text_content``)."""
    if normalize_spaces and isinstance(node, ParentNode):
        if node._it_rev == _dom_node._REV:
            return node._it_val
        val = collapse_whitespace(node.text_content.strip())
        node._it_rev = _dom_node._REV
        node._it_val = val
        return val
    text = node.text_content.strip()
    return collapse_whitespace(text) if normalize_spaces else text


def get_char_count(el: Element, ch: str = ",") -> int:
    """NodeUtility.cs:420-435"""
    return get_inner_text(el).count(ch)


def get_link_density(el: Element) -> float:
    """NodeUtility.cs:473-490

    Pure function of the subtree → cached per node against the global
    DOM revision (same validity rule as ``text_content``): scoring and
    conditional cleaning re-query the same ancestors repeatedly between
    mutations."""
    if el._ld_rev == _dom_node._REV:
        return el._ld_val
    text_length = len(get_inner_text(el))
    if text_length == 0:
        val = 0.0
    else:
        link_length = 0.0
        for link in el.get_elements_by_tag_name("a"):
            href = link.get_attribute("href")
            coefficient = 0.3 if href and regexes.HASH_URL.match(href) else 1.0
            link_length += len(get_inner_text(link)) * coefficient
        val = link_length / text_length
    el._ld_rev = _dom_node._REV
    el._ld_val = val
    return val


# -- style scrub (NodeUtility.cs:442-466) -----------------------------------
_PRESENTATIONAL_AND_SIZE = PRESENTATIONAL_ATTRIBUTES | {"width", "height"}


def clean_styles(el: Element | None) -> None:
    """Drops the presentational attributes, plus width/height on the
    ``DEPRECATED_SIZE_ATTRIBUTE_ELEMS``, from ``el`` and its descendants
    outside ``svg``: one set intersection per element with attributes.
    Each element is scrubbed on its own, so the walk's order is free."""
    if el is None:
        return
    stack = [el]
    while stack:
        el = stack.pop()
        if el.local_name == "svg":
            continue
        attrs = el.attrs
        if attrs:
            drop = (_PRESENTATIONAL_AND_SIZE if el.tag in DEPRECATED_SIZE_ATTRIBUTE_ELEMS
                    else PRESENTATIONAL_ATTRIBUTES)
            for attr in drop.intersection(attrs):
                del attrs[attr]
        stack += el.children


# -- DFS traversal (NodeUtility.cs:492-551) ---------------------------------
def get_next_node(node: Element | None, ignore_self_and_kids: bool = False):
    if not ignore_self_and_kids and node is not None and node.first_element_child is not None:
        return node.first_element_child
    if node is not None and node.next_element_sibling is not None:
        return node.next_element_sibling
    while node is not None:
        node = node.parent_element
        if node is not None and node.next_element_sibling is not None:
            return node.next_element_sibling
    return None


def remove_and_get_next(el: Element):
    next_node = get_next_node(el, True)
    el.parent.remove_child(el)
    return next_node


def clean_matched_nodes(e: Element, filter_fn) -> None:
    end_of_search = get_next_node(e, True)
    nxt = get_next_node(e)
    while nxt is not None and nxt is not end_of_search:
        if filter_fn(nxt, nxt.class_name + " " + nxt.id):
            nxt = remove_and_get_next(nxt)
        else:
            nxt = get_next_node(nxt)


def get_element_ancestors(el: Element, max_depth: int = 0) -> list[Element]:
    """NodeUtility.cs:594-606"""
    i = 0
    ancestors: list[Element] = []
    node = el
    while node.parent_element is not None:
        ancestors.append(node.parent_element)
        i += 1
        if max_depth != 0 and i == max_depth:
            break
        node = node.parent_element
    return ancestors


def get_node_ancestors(node, max_depth: int = 0) -> list:
    """NodeUtility.cs:608-620 (walks all parents, document included)."""
    i = 0
    ancestors = []
    while node is not None and node.parent is not None:
        ancestors.append(node.parent)
        i += 1
        if max_depth != 0 and i == max_depth:
            break
        node = node.parent
    return ancestors


def next_element(node, whitespace_re=regexes.WHITESPACE):
    """NodeUtility.cs:627-637 — skip whitespace-only non-elements."""
    nxt = node
    while (
        nxt is not None
        and nxt.node_type != ELEMENT_NODE
        and whitespace_re.match(nxt.text_content) is not None
    ):
        nxt = nxt.next_sibling
    return nxt if isinstance(nxt, Element) else None


def has_ancestor_tag(node: Element, tag_name: str, max_depth: int = 3, filter_fn=None) -> bool:
    """SmartReader.cs:1673-1688"""
    tag_upper = tag_name.upper()
    depth = 0
    while node.parent_element is not None:
        if max_depth > 0 and depth > max_depth:
            return False
        parent = node.parent_element
        if parent.tag == tag_upper and (filter_fn is None or filter_fn(parent)):
            return True
        node = parent
        depth += 1
    return False


def get_row_and_column_count(table: Element) -> tuple[int, int]:
    """SmartReader.cs:1698-1728"""
    rows = 0
    columns = 0
    for tr in table.get_elements_by_tag_name("tr"):
        rowspan = _try_parse_int(tr.get_attribute("rowspan"))
        rows += rowspan if rowspan else 1
        cols_in_row = 0
        for cell in tr.get_elements_by_tag_name("td"):
            colspan = _try_parse_int(cell.get_attribute("colspan"))
            cols_in_row += colspan if colspan else 1
        columns = max(columns, cols_in_row)
    return rows, columns


def _try_parse_int(s: str | None) -> int:
    if not s:
        return 0
    try:
        return int(s.strip())
    except ValueError:
        return 0


# -- noscript image unwrap (NodeUtility.cs:225-304) -------------------------
def unwrap_noscript_images(doc) -> None:
    from ..dom import set_inner_html

    for img in doc.get_elements_by_tag_name("img"):
        keep = False
        for name, value in img.attrs.items():
            if name in ("src", "srcset", "data-src", "data-srcset"):
                keep = True
                break
            if regexes.IMG_EXT.search(value):
                keep = True
                break
        if not keep and img.parent is not None:
            img.parent.remove_child(img)

    for noscript in doc.get_elements_by_tag_name("noscript"):
        if noscript.parent is None:
            continue
        from ..dom.serialize import inner_html

        tmp = Element("div")
        set_inner_html(tmp, inner_html(noscript))
        if not is_single_image(tmp):
            continue
        prev = noscript.previous_element_sibling
        if prev is not None and is_single_image(prev):
            prev_img = prev
            if prev_img.tag != "IMG":
                imgs = prev.get_elements_by_tag_name("img")
                if not imgs:
                    continue
                prev_img = imgs[0]
            new_imgs = tmp.get_elements_by_tag_name("img")
            if not new_imgs:
                continue
            new_img = new_imgs[0]
            for name, value in list(prev_img.attrs.items()):
                if value == "":
                    continue
                if name in ("src", "srcset") or regexes.IMG_EXT.search(value):
                    if new_img.get_attribute(name) == value:
                        continue
                    attr_name = name
                    if new_img.has_attribute(attr_name):
                        attr_name = "data-old-" + attr_name
                    new_img.set_attribute(attr_name, value)
            first_child = tmp.first_element_child
            if first_child is not None and noscript.parent is not None:
                noscript.parent.replace_child(first_child, prev)


def remove_scripts(el) -> None:
    """NodeUtility.cs:310-313"""
    remove_nodes(el.get_all_nodes_with_tag(["script", "noscript"]))


def get_all_nodes_with_tag(el, tags) -> list[Element]:
    """NodeUtility.cs:196-199 (document-order union)."""
    return el.get_all_nodes_with_tag(tags)
