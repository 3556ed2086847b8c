"""The extraction core: pre-clean → readerability → metadata → grab → prep.

A from-scratch reimplementation of the reference's per-document chain
(``SmartReader.cs`` — ``Parse()`` :2275-2363, ``GrabArticle`` :990-1589,
``PrepArticle`` :753-834, ``CleanConditionally`` :1933-2151,
``Readability.cs`` post-processing :50-219). Quirks are preserved where
fixtures pin them (score-set-on-nonpositive, integer-division list ratio,
null-classname sibling bonus, …); each is flagged inline.

The whole chain is ONE pure function per document — the Ray Data layer
applies it via ``map_batches`` with warm-actor state (compiled regexes,
config) built once per worker.
"""

from __future__ import annotations

import math
import time
from typing import Optional

from ..dom import (
    Document,
    Element,
    TextNode,
    element_matches,
    inner_html,
    parse_html,
    query_selector,
    query_selector_all,
)
from ..dom.node import TEXT_NODE
from . import regexes
from .article import (
    ArticleResult,
    convert_to_plaintext,
    time_to_read_seconds,
)
from .config import DEFAULT_CONFIG, ExtractorConfig
from .metadata import (
    Metadata,
    get_article_metadata,
    get_jsonld,
    text_similarity,
)
from .nodeutil import (
    clean_matched_nodes,
    clean_styles,
    get_all_nodes_with_tag,
    get_char_count,
    get_element_ancestors,
    get_inner_text,
    get_link_density,
    get_next_node,
    get_node_ancestors,
    get_row_and_column_count,
    has_ancestor_tag,
    has_child_block_element,
    has_single_tag_inside_element,
    is_element_without_content,
    is_phrasing_content,
    is_probably_visible,
    is_whitespace,
    next_element,
    remove_and_get_next,
    remove_nodes,
    remove_scripts,
    replace_node_tags,
    safe_set_attribute,
    set_node_tag,
    unwrap_noscript_images,
)
from .urialg import PageUri

# flag bits (Flags.cs:7-20)
FLAG_STRIP_UNLIKELYS = 1
FLAG_WEIGHT_CLASSES = 2
FLAG_CLEAN_CONDITIONALLY = 4
ALL_FLAGS = FLAG_STRIP_UNLIKELYS | FLAG_WEIGHT_CLASSES | FLAG_CLEAN_CONDITIONALLY

TAGS_TO_SCORE = frozenset({"H2", "H3", "H4", "H5", "H6", "P", "PRE", "SECTION", "TD"})
UNLIKELY_ROLES = frozenset({
    "menu", "menubar", "complementary", "navigation", "alert", "alertdialog", "dialog",
})
ALTER_TO_DIV_EXCEPTIONS = frozenset({"ARTICLE", "DIV", "P", "SECTION", "OL", "UL"})
DATA_TABLE_DESCENDANTS = ("col", "colgroup", "tfoot", "thead", "th")
TEXTISH_TAGS = ("SPAN", "LI", "TD", "BLOCKQUOTE", "DL", "DIV", "IMG", "OL", "P", "PRE", "TABLE", "UL")
HEADING_TAGS = ("h1", "h2", "h3", "h4", "h5", "h6")


class ExtractionBudgetExceeded(RuntimeError):
    """Per-document wall-clock budget overrun (our analogue of the
    reference's OperationCanceledException paths)."""


def _get_score(el: Element) -> float:
    return el.score if el.score is not None else 0.0


def _set_score(el: Element, score: float) -> None:
    el.score = score


def _add_score(el: Element, delta: float) -> None:
    # quirk (SmartReader.cs:881-893): add only when current > 0, else SET.
    cur = _get_score(el)
    if cur > 0.0:
        _set_score(el, cur + delta)
    else:
        _set_score(el, delta)


def _class_id_match_string(el: Element) -> str:
    # AngleSharp ClassName/Id are null when absent → "null + ' ' + null" == " "
    return (el.get_attribute("class") or "") + " " + (el.get_attribute("id") or "")


class Extractor:
    """One instance per worker/actor: compiled patterns + config, reused
    across documents (reference analogue: static ``G_RE_*`` tables)."""

    def __init__(self, config: ExtractorConfig = DEFAULT_CONFIG):
        self.config = config
        rx = config.build_regexes()
        self.re_unlikely = rx["unlikelyCandidates"]
        self.re_maybe = rx["possibleCandidates"]
        self.re_positive = rx["positive"]
        self.re_negative = rx["negative"]
        self.re_byline = rx["byline"]
        self.re_videos = rx["videos"]
        self.re_share = rx["shareElements"]
        self.is_node_visible = config.is_node_visible or is_probably_visible
        # logging surface (SmartReader.cs:118-122): info-level sites fire
        # only when debug/logging=="info"; issue-level sites always fire
        self._log_info = config.debug or config.logging == "info"
        # fast-path flag so per-node trace sites cost nothing when off
        self._trace = config.logger is not None and self._log_info

        # per-document state (reset in parse)
        self._reset()

    def _log(self, msg: str) -> None:
        """Info-level trace (reference: `if (Debug || Logging == Info)`)."""
        if self.config.logger is not None and self._log_info:
            self.config.logger(msg)

    def _log_always(self, msg: str) -> None:
        """Issue-level trace — unguarded in the reference."""
        if self.config.logger is not None:
            self.config.logger(msg)

    def _reset(self) -> None:
        self._deadline: Optional[float] = None
        self.article_title = ""
        self.article_byline: Optional[str] = None
        self.article_dir: Optional[str] = None
        self.language: Optional[str] = None
        self.author: Optional[str] = None
        self.flags = ALL_FLAGS
        self.attempts: list[tuple[Element, int]] = []
        self.n_candidates = 0
        self.top_candidate_score = 0.0
        self.grab_rounds = 0
        self._class_weight_memo: dict = {}
        self._unlikely_memo: dict = {}

    def _flag(self, flag: int) -> bool:
        return (self.flags & flag) > 0

    def _remove_flag(self, flag: int) -> None:
        self.flags &= ~flag

    # ------------------------------------------------------------------
    # public entry: (uri, html) -> ArticleResult   (SmartReader.cs:588-598)
    # ------------------------------------------------------------------
    def parse(
        self, uri: str, text: str, time_budget_s: Optional[float] = None
    ) -> ArticleResult:
        self._reset()
        if time_budget_s:
            self._deadline = time.monotonic() + time_budget_s
        started = time.perf_counter()
        page_uri = PageUri(uri)
        try:
            result = self._parse_inner(page_uri, text)
        except Exception as exc:  # error → row, not raised (SmartReader.cs:479-482)
            result = ArticleResult(uri=uri, title=self.article_title)
            result.is_readable = False
            result.completed = False
            result.error = f"{type(exc).__name__}: {exc}"
        result.parse_ms = (time.perf_counter() - started) * 1000.0
        result.attempts = self.grab_rounds
        return result

    # ------------------------------------------------------------------
    def _prepare_doc(self, text: str) -> Document:
        if self.config.pre_clean_page:
            text = regexes.PRE_CLEAN_EMPTY_P.sub("", text)
        return parse_html(text)

    def _check_budget(self) -> None:
        """Cooperative per-document cancellation, checked at the same phase
        boundaries as the reference's CancellationToken (SmartReader.cs:1015,
        1025, 2291, 2304, 2329, 2341). On overrun the document becomes an
        error row (completed=False), never a task failure."""
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise ExtractionBudgetExceeded("per-document time budget exceeded")

    def _parse_inner(self, uri: PageUri, text: str) -> ArticleResult:
        cfg = self.config
        doc = self._prepare_doc(text)
        self._check_budget()

        if cfg.max_elems_to_parse > 0:
            num_tags = len(doc.get_elements_by_tag_name("*"))
            if num_tags > cfg.max_elems_to_parse:
                raise RuntimeError(
                    f"Aborting parsing document; {num_tags} elements found"
                )

        is_readable = self._is_probably_readerable(doc)
        self._check_budget()

        if not is_readable:
            # SmartReader.cs:2298 — issue-level, unguarded
            self._log_always("<h2>Warning: article probably not readable</h2>")
            if not cfg.continue_if_not_readable:
                return ArticleResult(
                    uri=uri.raw, title=self.article_title, is_readable=False
                )

        for op in cfg.custom_operations_start:
            op(doc.document_element)

        unwrap_noscript_images(doc)
        jsonld = {} if cfg.disable_jsonld else get_jsonld(doc)
        remove_scripts(doc.document_element)
        self._prep_document(doc)

        metadata = get_article_metadata(doc, uri, self.language, jsonld)
        self.article_title = metadata.title or ""

        if self._log_info and doc.document_element is not None:
            # SmartReader.cs:2322-2323
            self._log("<h2>Pre-GrabArticle:</h2>" + inner_html(doc.document_element))

        article_content = self._grab_article(doc, text)
        if article_content is None:
            return ArticleResult(
                uri=uri.raw, title=self.article_title, is_readable=False
            )
        if self._log_info:
            self._log("<h2>Grabbed:</h2>" + inner_html(article_content))  # :2335-2336

        self._check_budget()
        self._post_process_content(article_content, uri, doc)
        if self._log_info:
            self._log("<h2>Post Process result:</h2>" + inner_html(article_content))  # :2347-2348

        for op in cfg.custom_operations_end:
            op(article_content)

        if not metadata.excerpt:
            paragraphs = article_content.get_elements_by_tag_name("p")
            if paragraphs:
                metadata.excerpt = paragraphs[0].text_content.strip()

        return self._build_article(uri, metadata, article_content, is_readable)

    # ------------------------------------------------------------------
    # readerability pre-flight (SmartReader.cs:2206-2267)
    # ------------------------------------------------------------------
    def _min_content_length(self) -> int:
        cfg = self.config
        if not self.language:
            return cfg.min_content_length_readerable.get("Default", 140)
        from .article import english_language_name

        name = english_language_name(self.language) or "Invariant Language"
        for key, value in cfg.min_content_length_readerable.items():
            if name.startswith(key):
                return value
        return cfg.min_content_length_readerable.get("Default", 140)

    def _is_probably_readerable(self, doc: Document) -> bool:
        root = doc.document_element
        nodes = get_all_nodes_with_tag(root, ["p", "pre", "article"])
        br_nodes = query_selector_all(root, "div > br")
        if br_nodes:
            seen = set()
            extra = []
            for br in br_nodes:
                parent = br.parent_element
                if parent is not None and id(parent) not in seen:
                    seen.add(id(parent))
                    extra.append(parent)
            nodes = nodes + extra

        min_len = self._min_content_length()
        score = 0.0
        for node in nodes:
            if not self.is_node_visible(node):
                continue
            match_string = _class_id_match_string(node)
            if self.re_unlikely.search(match_string) and not self.re_maybe.search(
                match_string
            ):
                continue
            if element_matches(node, "li p"):
                continue
            text_len = len(node.text_content.strip())
            if text_len < min_len:
                continue
            score += math.sqrt(text_len - min_len)
            if score > self.config.min_score_readerable:
                return True
        return False

    # ------------------------------------------------------------------
    # document prep (SmartReader.cs:654-731)
    # ------------------------------------------------------------------
    def _prep_document(self, doc: Document) -> None:
        remove_nodes(doc.get_elements_by_tag_name("style"))
        if doc.body is not None:
            self._replace_brs(doc, doc.body)
        replace_node_tags(doc.get_elements_by_tag_name("font"), "SPAN")

    def _replace_brs(self, doc: Document, elem: Element) -> None:
        for br in elem.get_elements_by_tag_name("br"):
            if br.parent is None:
                continue
            nxt = br.next_sibling
            replaced = False
            while True:
                nxt_el = next_element(nxt, regexes.WHITESPACE)
                if nxt_el is None or nxt_el.node_name != "BR":
                    break
                replaced = True
                br_sibling = nxt_el.next_sibling
                nxt_el.parent.remove_child(nxt_el)
                nxt = br_sibling
            if replaced:
                p = Element("p")
                br.parent.replace_child(p, br)
                nxt = p.next_sibling
                while nxt is not None:
                    if isinstance(nxt, Element) and nxt.tag == "BR":
                        next_elem = next_element(nxt.next_sibling, regexes.WHITESPACE)
                        if next_elem is not None and next_elem.tag == "BR":
                            break
                    if not is_phrasing_content(nxt):
                        break
                    sibling = nxt.next_sibling
                    p.append_child(nxt)
                    nxt = sibling
                while p.last_child is not None and is_whitespace(p.last_child):
                    p.remove_child(p.last_child)
                if p.parent.node_name == "P":
                    set_node_tag(p.parent_element, "DIV")

    # ------------------------------------------------------------------
    # byline (SmartReader.cs:913-981)
    # ------------------------------------------------------------------
    def _check_byline(self, node: Element, match_string: str) -> bool:
        if self.article_byline:
            return False

        rel = node.get_attribute("rel") or None
        itemprop = node.get_attribute("itemprop") or None
        # cheap attr/regex conditions FIRST — the reference's && only
        # evaluates IsValidByline(node.TextContent) after they match
        # (SmartReader.cs:926-929); TextContent walks the subtree.
        if not (
            rel == "author"
            or (itemprop and "author" in itemprop)
            or self.re_byline.search(match_string)
        ):
            return False
        byline_length = len(node.text_content.strip())
        if 0 < byline_length < 100:
            if rel == "author":
                self.author = node.text_content.strip()
            else:
                temp_author = query_selector(node, '[rel="author"]')
                if temp_author is not None:
                    self.author = temp_author.text_content.strip()

            end_of_search = get_next_node(node, True)
            nxt = get_next_node(node)
            item_prop_name_node = None
            while nxt is not None and nxt is not end_of_search:
                ip = nxt.get_attribute("itemprop")
                if ip is not None and "name" in ip:
                    item_prop_name_node = nxt
                    break
                nxt = get_next_node(nxt)

            if item_prop_name_node is not None and item_prop_name_node.text_content.strip():
                byline = item_prop_name_node.text_content.strip()
            elif node.text_content.strip():
                byline = node.text_content.strip()
            else:
                byline = None

            if byline is not None:
                if byline.startswith("by"):
                    byline = byline[2:]
                byline = regexes.MUSTACHE.sub("", byline).strip()
            self.article_byline = byline
            return True
        return False

    def _header_duplicates_title(self, node: Element) -> bool:
        if node.tag not in ("H1", "H2"):
            return False
        heading = get_inner_text(node, False)
        return text_similarity(self.article_title, heading) > 0.75

    # ------------------------------------------------------------------
    # class weight (SmartReader.cs:1595-1623)
    # ------------------------------------------------------------------
    def _get_class_weight(self, el: Element) -> int:
        if not self._flag(FLAG_WEIGHT_CLASSES):
            return 0
        # memoized per (class, id) string pair: a page reuses a handful
        # of class names across thousands of nodes, and the weight is a
        # pure function of the two strings (per-parse cache — regex
        # overrides are per-config, flags per document)
        key = (el.get_attribute("class"), el.get_attribute("id"))
        cached = self._class_weight_memo.get(key)
        if cached is not None:
            return cached
        weight = 0
        class_name, el_id = key
        if class_name:
            if self.re_negative.search(class_name):
                weight -= 25
            if self.re_positive.search(class_name):
                weight += 25
        if el_id:
            if self.re_negative.search(el_id):
                weight -= 25
            if self.re_positive.search(el_id):
                weight += 25
        self._class_weight_memo[key] = weight
        return weight

    def _initialize_node(self, node: Element) -> None:
        """SmartReader.cs:840-879 (with the add-on-nonpositive-sets quirk)."""
        _set_score(node, 0.0)
        tag = node.tag
        if tag == "DIV":
            _add_score(node, 5)
        elif tag in ("PRE", "TD", "BLOCKQUOTE"):
            _add_score(node, 3)
        elif tag in ("ADDRESS", "OL", "UL", "DL", "DD", "DT", "LI", "FORM"):
            _add_score(node, -3)
        elif tag in ("H1", "H2", "H3", "H4", "H5", "H6", "TH"):
            _add_score(node, -5)
        _add_score(node, self._get_class_weight(node))

    # ------------------------------------------------------------------
    # the grab loop (SmartReader.cs:990-1589)
    # ------------------------------------------------------------------
    def _grab_article(self, doc: Document, source_text: str) -> Optional[Element]:
        self._log("**** grabArticle ****")  # SmartReader.cs:992-993
        page = doc.body
        if page is None:
            self._log_always("No body found in document. Abort.")  # :1002
            return None
        if self._log_info:
            self._log("Original Body:")  # :1007-1010
            self._log(inner_html(page))

        while True:
            self._check_budget()
            self.grab_rounds += 1
            self._log("Starting grabArticle loop")  # :1027-1028
            result = self._grab_article_once(doc)
            if result is not None:
                return result
            # failed round: a flag was relaxed and the attempt recorded
            # (SmartReader.cs:1526-1567). The reference restores the cached
            # pristine body HTML (:1535); we re-derive the identical prepped
            # state by re-running the deterministic prep on the source text.
            if not self.attempts:
                return None
            doc = self._reprep(source_text)
            if doc.body is None:
                return None

    def _reprep(self, source_text: str) -> Document:
        doc = self._prepare_doc(source_text)
        # The reference caches page.InnerHtml AFTER CustomOperationsStart
        # ran (SmartReader.cs:1020, 2308) and restores it each retry round,
        # so start-hook effects persist; re-run them here to match.
        for op in self.config.custom_operations_start:
            op(doc.document_element)
        unwrap_noscript_images(doc)
        remove_scripts(doc.document_element)
        self._prep_document(doc)
        return doc

    def _grab_article_once(self, doc: Document) -> Optional[Element]:
        cfg = self.config
        page = doc.body
        strip_unlikely = self._flag(FLAG_STRIP_UNLIKELYS)

        elements_to_score: list[Element] = []
        node: Optional[Element] = doc.document_element
        should_remove_title_header = True

        while node is not None:
            match_string = _class_id_match_string(node)

            if not is_probably_visible(node):
                if self._trace:
                    self._log("Removing hidden node - " + match_string)  # :1046-1047
                node = remove_and_get_next(node)
                continue

            if (
                node.get_attribute("aria-modal") == "true"
                and node.get_attribute("role") == "dialog"
            ):
                node = remove_and_get_next(node)
                continue

            if not self.article_byline and self._check_byline(node, match_string):
                node = remove_and_get_next(node)
                continue

            if should_remove_title_header and self._header_duplicates_title(node):
                if self._trace:
                    self._log(  # :1068-1069
                        f"Removing header: {node.text_content.strip()} "
                        f"{self.article_title.strip()}"
                    )
                should_remove_title_header = False
                node = remove_and_get_next(node)
                continue

            if strip_unlikely:
                # regex verdict is a pure function of the class/id string;
                # pages reuse few distinct strings across many nodes
                verdict = self._unlikely_memo.get(match_string)
                if verdict is None:
                    verdict = bool(
                        self.re_unlikely.search(match_string)
                    ) and not self.re_maybe.search(match_string)
                    self._unlikely_memo[match_string] = verdict
                if (
                    verdict
                    and not has_ancestor_tag(node, "table")
                    and not has_ancestor_tag(node, "code")
                    and node.tag != "BODY"
                    and node.tag != "A"
                ):
                    if self._trace:
                        self._log("Removing unlikely candidate - " + match_string)  # :1086-1087
                    node = remove_and_get_next(node)
                    continue

            if (node.get_attribute("role") or "") in UNLIKELY_ROLES:
                self._log_always(  # :1096 — issue-level, unguarded
                    f"Removing content with role {node.get_attribute('role')} "
                    f"-  {match_string}"
                )
                node = remove_and_get_next(node)
                continue

            if node.tag in (
                "DIV", "SECTION", "HEADER", "H1", "H2", "H3", "H4", "H5", "H6",
            ) and is_element_without_content(node):
                node = remove_and_get_next(node)
                continue

            if node.tag in TAGS_TO_SCORE:
                elements_to_score.append(node)

            if node.tag == "P":
                if node.num_child_nodes == 0:
                    node = remove_and_get_next(node)
                    continue
                if node.num_child_nodes == 1:
                    child = node.first_child
                    if child.node_type == TEXT_NODE:
                        raw_text = child.data
                        # quirk (SmartReader.cs:1133): compares the decoded
                        # text to the literal entity string
                        if not raw_text or raw_text.lower() == "&nbsp;":
                            node = remove_and_get_next(node)
                            continue

            if node.tag == "DIV":
                child_node = node.first_child
                while child_node is not None:
                    next_sibling = child_node.next_sibling
                    if is_phrasing_content(child_node):
                        fragment: list = []
                        while child_node is not None and is_phrasing_content(child_node):
                            next_sibling = child_node.next_sibling
                            node.remove_child(child_node)
                            fragment.append(child_node)
                            child_node = next_sibling
                        while fragment and is_whitespace(fragment[0]):
                            fragment.pop(0)
                        while fragment and is_whitespace(fragment[-1]):
                            fragment.pop()
                        if fragment:
                            p = Element("p")
                            for f in fragment:
                                p.append_child(f)
                            node.insert_before(p, next_sibling)
                    child_node = next_sibling

                if (
                    has_single_tag_inside_element(node, "P")
                    and get_link_density(node) < 0.25
                ):
                    new_node = node.children[0]
                    new_node.class_name = (
                        (new_node.get_attribute("class") or "")
                        + " "
                        + (node.get_attribute("class") or "")
                    )
                    node.parent.replace_child(new_node, node)
                    node = new_node
                    elements_to_score.append(node)
                elif not has_child_block_element(node):
                    node = set_node_tag(node, "P")
                    elements_to_score.append(node)

            node = get_next_node(node)

        # -- scoring (SmartReader.cs:1217-1274) ----------------------------
        candidates: list[Element] = []
        for element_to_score in elements_to_score:
            if element_to_score.parent is None:
                continue
            inner_text = get_inner_text(element_to_score)
            if len(inner_text) < cfg.paragraph_threshold:
                continue
            ancestors = get_node_ancestors(element_to_score, cfg.ancestors_depth)
            if len(ancestors) == 0:
                continue

            content_score = 1.0
            content_score += len(regexes.COMMAS.split(inner_text))
            content_score += min(len(inner_text) // 100, 3)

            for level, ancestor in enumerate(ancestors):
                if (
                    not isinstance(ancestor, Element)
                    or not ancestor.tag
                    or ancestor.parent_element is None
                    or not ancestor.parent_element.tag
                ):
                    continue
                if _get_score(ancestor) == 0.0:
                    self._initialize_node(ancestor)
                    candidates.append(ancestor)
                if level == 0:
                    score_divider = 1
                elif level == 1:
                    score_divider = 2
                else:
                    score_divider = level * 3
                _add_score(ancestor, content_score / score_divider)

        # -- top-candidate selection (SmartReader.cs:1276-1303) ------------
        top_candidates: list[Element] = []
        for candidate in candidates:
            candidate_score = _get_score(candidate) * (1 - get_link_density(candidate))
            _set_score(candidate, candidate_score)
            for t in range(cfg.n_top_candidates):
                a_top = top_candidates[t] if t < len(top_candidates) else None
                if a_top is None or candidate_score > _get_score(a_top):
                    top_candidates.insert(t, candidate)
                    if len(top_candidates) > cfg.n_top_candidates:
                        top_candidates.pop()
                    break

        self.n_candidates = len(candidates)

        top_candidate = top_candidates[0] if top_candidates else None
        needed_to_create_top_candidate = False
        parent_of_top_candidate: Optional[Element] = None

        if top_candidate is None or top_candidate.tag == "BODY":
            top_candidate = Element("DIV")
            needed_to_create_top_candidate = True
            while page.first_child is not None:
                top_candidate.append_child(page.first_child)
            page.append_child(top_candidate)
            self._initialize_node(top_candidate)
        else:
            # common-ancestor promotion (SmartReader.cs:1331-1360)
            alternative_ancestors = []
            top_score = _get_score(top_candidate)
            for i in range(1, len(top_candidates)):
                cand_score = _get_score(top_candidates[i])
                # IEEE semantics like the reference: x/0 → ±Inf, 0/0 → NaN
                # (NaN >= 0.75 is False), never an exception
                if top_score == 0.0:
                    ratio = (
                        math.nan
                        if cand_score == 0.0
                        else math.copysign(math.inf, cand_score)
                    )
                else:
                    ratio = cand_score / top_score
                if ratio >= 0.75:
                    alternative_ancestors.append(get_node_ancestors(top_candidates[i]))
            MINIMUM_TOPCANDIDATES = 3
            if len(alternative_ancestors) >= MINIMUM_TOPCANDIDATES:
                parent_of_top_candidate = top_candidate.parent_element
                while (
                    parent_of_top_candidate is not None
                    and parent_of_top_candidate.tag != "BODY"
                ):
                    lists_containing = 0
                    for anc_list in alternative_ancestors:
                        if lists_containing >= MINIMUM_TOPCANDIDATES:
                            break
                        if any(a is parent_of_top_candidate for a in anc_list):
                            lists_containing += 1
                    if lists_containing >= MINIMUM_TOPCANDIDATES:
                        top_candidate = parent_of_top_candidate
                        break
                    parent_of_top_candidate = parent_of_top_candidate.parent_element

            if _get_score(top_candidate) == 0.0:
                self._initialize_node(top_candidate)

            # parent climb while score rises (SmartReader.cs:1374-1399)
            parent_of_top_candidate = top_candidate.parent_element
            last_score = _get_score(top_candidate)
            score_threshold = last_score / 3
            while (
                parent_of_top_candidate is not None
                and parent_of_top_candidate.tag != "BODY"
            ):
                if _get_score(parent_of_top_candidate) == 0.0:
                    parent_of_top_candidate = parent_of_top_candidate.parent_element
                    continue
                parent_score = _get_score(parent_of_top_candidate)
                if parent_score < score_threshold:
                    break
                if parent_score > last_score:
                    top_candidate = parent_of_top_candidate
                    break
                last_score = parent_score
                parent_of_top_candidate = parent_of_top_candidate.parent_element

            # single-child climb (SmartReader.cs:1403-1408)
            parent_of_top_candidate = top_candidate.parent_element
            while (
                parent_of_top_candidate is not None
                and parent_of_top_candidate.tag != "BODY"
                and len(parent_of_top_candidate.children) == 1
            ):
                top_candidate = parent_of_top_candidate
                parent_of_top_candidate = top_candidate.parent_element

            if _get_score(top_candidate) == 0.0:
                self._initialize_node(top_candidate)

        # -- sibling merge (SmartReader.cs:1416-1489) ----------------------
        article_content = Element("DIV")

        sibling_score_threshold = max(10.0, _get_score(top_candidate) * 0.2)
        parent_of_top_candidate = top_candidate.parent_element
        siblings = parent_of_top_candidate.children if parent_of_top_candidate else []

        s = 0
        sl = len(siblings)
        while s < sl:
            sibling = siblings[s]
            append = False

            if sibling is top_candidate:
                append = True
            else:
                content_bonus = 0.0
                # quirk: AngleSharp ClassName is null when absent, and
                # null == null with "null is not ''" → classless pairs get
                # the bonus (SmartReader.cs:1442)
                sib_class = sibling.get_attribute("class")
                top_class = top_candidate.get_attribute("class")
                if sib_class == top_class and top_class != "":
                    content_bonus += _get_score(top_candidate) * 0.2
                if (
                    _get_score(sibling) > 0
                    and _get_score(sibling) + content_bonus >= sibling_score_threshold
                ):
                    append = True
                elif sibling.node_name == "P":
                    link_density = get_link_density(sibling)
                    node_content = get_inner_text(sibling)
                    node_length = len(node_content)
                    if node_length > 80 and link_density < 0.25:
                        append = True
                    elif (
                        node_length < 80
                        and node_length > 0
                        and link_density == 0
                        and regexes.SENTENCE_DOT.search(node_content)
                    ):
                        append = True

            if append:
                if sibling.node_name not in ALTER_TO_DIV_EXCEPTIONS:
                    sibling = set_node_tag(sibling, "DIV")
                article_content.append_child(sibling)
                siblings = parent_of_top_candidate.children if parent_of_top_candidate else []
                s -= 1
                sl -= 1
            s += 1

        if self._log_info:  # SmartReader.cs:1491-1492
            self._log("<h2>Article content pre-prep:</h2>" + inner_html(article_content))
        self._prep_article(article_content)
        if self._log_info:  # :1497-1498
            self._log("<h2>Article content post-prep:</h2>" + inner_html(article_content))

        if needed_to_create_top_candidate:
            top_candidate.id = "readability-page-1"
            top_candidate.class_name = "page"
        else:
            div = Element("DIV")
            div.id = "readability-page-1"
            div.class_name = "page"
            while article_content.first_child is not None:
                div.append_child(article_content.first_child)
            article_content.append_child(div)

        parse_successful = True

        text_length = len(get_inner_text(article_content, True))
        if text_length < self.config.char_threshold:
            parse_successful = False

            if self._flag(FLAG_STRIP_UNLIKELYS):
                self._remove_flag(FLAG_STRIP_UNLIKELYS)
                self.attempts.append((article_content, text_length))
                return None
            elif self._flag(FLAG_WEIGHT_CLASSES):
                self._remove_flag(FLAG_WEIGHT_CLASSES)
                self.attempts.append((article_content, text_length))
                return None
            elif self._flag(FLAG_CLEAN_CONDITIONALLY):
                self._remove_flag(FLAG_CLEAN_CONDITIONALLY)
                self.attempts.append((article_content, text_length))
                return None
            else:
                self.attempts.append((article_content, text_length))
                # no luck: pick the longest attempt (SmartReader.cs:1552-1566)
                self.attempts.sort(key=lambda a: a[1], reverse=True)
                if not self.attempts:
                    return None
                article_content = self.attempts[0][0]
                parse_successful = True

        if parse_successful:
            self.top_candidate_score = _get_score(top_candidate)
            ancestors = [parent_of_top_candidate, top_candidate]
            if parent_of_top_candidate is not None:
                ancestors += get_element_ancestors(parent_of_top_candidate)
            for ancestor in ancestors:
                if ancestor is None or not ancestor.tag:
                    continue
                dir_attr = ancestor.get_attribute("dir")
                if dir_attr:
                    self.article_dir = dir_attr
                    break
            return article_content
        return None  # pragma: no cover

    # ------------------------------------------------------------------
    # conditional cleaning (SmartReader.cs:753-834, 1631-2169)
    # ------------------------------------------------------------------
    def _prep_article(self, article_content: Element) -> None:
        cfg = self.config
        clean_styles(article_content)

        self._mark_data_tables(article_content)
        self._fix_lazy_images(article_content)

        self._clean_conditionally(article_content, "form")
        self._clean_conditionally(article_content, "fieldset")
        self._clean(article_content, ("object", "embed", "footer", "link", "aside"))

        share_element_threshold = cfg.char_threshold
        for top_candidate in article_content.children:
            clean_matched_nodes(
                top_candidate,
                lambda node, match_string: (
                    self.re_share.search(match_string) is not None
                    and len(node.text_content) < share_element_threshold
                ),
            )

        self._clean(article_content, ("iframe", "input", "textarea", "select", "button"))
        self._clean_headers(article_content)

        self._clean_conditionally(article_content, "table")
        self._clean_conditionally(article_content, "ul")
        self._clean_conditionally(article_content, "div")

        replace_node_tags(article_content.get_elements_by_tag_name("h1"), "h2")

        def _empty_paragraph(paragraph: Element) -> bool:
            # the text test first: a paragraph with text needs no media walk
            return not paragraph.has_nonws_text() and not get_all_nodes_with_tag(
                paragraph, ["img", "embed", "object", "iframe"]
            )

        remove_nodes(article_content.get_elements_by_tag_name("p"), _empty_paragraph)

        for br in article_content.get_elements_by_tag_name("br"):
            if br.parent is None:
                continue
            nxt = next_element(br.next_sibling, regexes.WHITESPACE)
            if nxt is not None and nxt.tag == "P":
                br.parent.remove_child(br)

        for table_el in article_content.get_elements_by_tag_name("table"):
            if table_el.parent is None:
                continue
            tbody = (
                table_el.first_element_child
                if has_single_tag_inside_element(table_el, "TBODY")
                else table_el
            )
            if has_single_tag_inside_element(tbody, "TR"):
                row = tbody.first_element_child
                if has_single_tag_inside_element(row, "TD"):
                    cell = row.first_element_child
                    new_tag = (
                        "P"
                        if all(is_phrasing_content(c) for c in cell.childNodes)
                        else "DIV"
                    )
                    cell = set_node_tag(cell, new_tag)
                    # re-parent the cell in place of the whole table
                    cell.parent.remove_child(cell)
                    table_el.parent.replace_child(cell, table_el)

    def _clean(self, e: Element, tags: tuple[str, ...]) -> None:
        """SmartReader.cs:1631-1663, once per tag in ``tags``, in order, over
        one walk of ``e``. A node inside a subtree an earlier tag removed
        is removed from that detached subtree or kept in it, which no
        later step reads."""
        nodes = e.get_all_nodes_with_tag(tags)
        for tag in tags:
            upper = tag.upper()
            remove_nodes(
                [n for n in nodes if n.tag == upper],
                (lambda n: not self._links_video(n))
                if tag in ("object", "embed", "iframe") else None,
            )

    def _links_video(self, embed: Element) -> bool:
        """An attribute, or an OBJECT's inner HTML, names a video host.
        ``_clean`` keeps such an embed, ``_clean_conditionally`` its container."""
        if any(self.re_videos.search(value) for value in embed.attrs.values()):
            return True
        return embed.tag == "OBJECT" and bool(self.re_videos.search(inner_html(embed)))

    def _is_data_table(self, el: Element) -> bool:
        dt = el.get_attribute("datatable")
        return bool(dt) and "true" in dt

    def _mark_data_tables(self, root: Element) -> None:
        """SmartReader.cs:1737-1808"""
        for table in root.get_elements_by_tag_name("table"):
            if table.get_attribute("role") == "presentation":
                table.set_attribute("datatable", "false")
                continue
            if table.get_attribute("datatable") == "0":
                table.set_attribute("datatable", "false")
                continue
            if table.get_attribute("summary"):
                table.set_attribute("datatable", "true")
                continue
            captions = table.get_elements_by_tag_name("caption")
            if captions and captions[0].num_child_nodes > 0:
                table.set_attribute("datatable", "true")
                continue
            if any(
                table.get_elements_by_tag_name(t) for t in DATA_TABLE_DESCENDANTS
            ):
                table.set_attribute("datatable", "true")
                continue
            if table.get_elements_by_tag_name("table"):
                table.set_attribute("datatable", "false")
                continue
            rows, columns = get_row_and_column_count(table)
            if columns == 1 or rows == 1:
                table.set_attribute("datatable", "false")
                continue
            if rows >= 10 or columns > 4:
                table.set_attribute("datatable", "true")
                continue
            if rows * columns > 10:
                table.set_attribute("datatable", "true")

    def _fix_lazy_images(self, root: Element) -> None:
        """SmartReader.cs:1813-1906"""
        for elem in get_all_nodes_with_tag(root, ["img", "picture", "figure"]):
            src = elem.get_attribute("src")
            if src is not None:
                m = regexes.B64_DATA_URL.match(src)
                if m:
                    if m.group(1) == "image/svg+xml":
                        continue
                    src_could_be_removed = False
                    for name, value in elem.attrs.items():
                        if name == "src":
                            continue
                        if regexes.IMG_EXT.search(value):
                            src_could_be_removed = True
                            break
                    if src_could_be_removed:
                        b64_starts = len(m.group(0))
                        b64_length = len(src) - b64_starts
                        if b64_length < 133:
                            elem.remove_attribute("src")

            src = elem.get_attribute("src")
            srcset = elem.get_attribute("srcset")
            class_name = elem.get_attribute("class")
            # quirk (SmartReader.cs:1863-1867): skip only when a class exists
            # and lacks "lazy" — classless elements fall through
            if (src or srcset) and (
                class_name and "lazy" not in class_name.lower()
            ):
                continue

            for name, value in list(elem.attrs.items()):
                if name in ("src", "srcset", "alt"):
                    continue
                copy_to = ""
                if regexes.IMG_EXT_SPACE_DIGIT.search(value):
                    copy_to = "srcset"
                elif regexes.SINGLE_IMAGE_URL.match(value):
                    copy_to = "src"
                if copy_to:
                    if elem.tag in ("IMG", "PICTURE"):
                        elem.set_attribute(copy_to, value)
                    elif elem.tag == "FIGURE" and not get_all_nodes_with_tag(
                        elem, ["IMG", "PICTURE"]
                    ):
                        img = Element("img")
                        img.set_attribute(copy_to, value)
                        elem.append_child(img)

    def _get_text_density(self, e: Element, tags) -> float:
        """SmartReader.cs:1911-1927"""
        text_length = len(get_inner_text(e, True))
        if text_length == 0:
            return 0.0
        children_length = sum(
            len(get_inner_text(child, True))
            for child in get_all_nodes_with_tag(e, tags)
        )
        return children_length / text_length

    def _clean_conditionally(self, e: Element, tag: str) -> None:
        """SmartReader.cs:1933-2151"""
        if not self._flag(FLAG_CLEAN_CONDITIONALLY):
            return

        def _filter(node: Element) -> bool:
            if self._trace:
                self._log(f"Cleaning Conditionally {node.tag}")  # SmartReader.cs:1985-1986
            is_list = tag in ("ul", "ol")
            if not is_list:
                list_length = 0
                for lst in get_all_nodes_with_tag(node, ["ul", "ol"]):
                    list_length += len(get_inner_text(lst))
                total = len(get_inner_text(node))
                if total > 0:
                    # quirk: integer division in the reference
                    # (SmartReader.cs:1957) — ratio is 1 only when lists
                    # span the entire text
                    is_list = (list_length // total) > 0.9

            if tag == "table" and self._is_data_table(node):
                return False
            if has_ancestor_tag(node, "table", -1, self._is_data_table):
                return False
            if has_ancestor_tag(node, "code"):
                return False
            if any(
                self._is_data_table(tbl)
                for tbl in node.get_elements_by_tag_name("table")
            ):
                return False

            weight = self._get_class_weight(node)
            content_score = 0

            if weight + content_score < 0:
                return True

            if get_char_count(node, ",") < 10:
                p = 0.0
                img = 0.0
                li = -100.0
                input_count = 0.0
                embeds: list[Element] = []

                for descendant in node.iter_elements():
                    t = descendant.tag
                    if t == "P":
                        p += 1
                    elif t == "IMG":
                        img += 1
                    elif t == "LI":
                        li += 1
                    elif t == "INPUT":
                        input_count += 1
                    elif t in ("OBJECT", "EMBED", "IFRAME"):
                        embeds.append(descendant)

                heading_density = self._get_text_density(node, HEADING_TAGS)

                if any(self._links_video(embed) for embed in embeds):
                    return False
                embed_count = len(embeds)

                inner_text = get_inner_text(node)
                if regexes.AD_WORDS.search(inner_text) or regexes.LOADING_WORDS.search(
                    inner_text
                ):
                    return True

                link_density = get_link_density(node)
                content_length = len(get_inner_text(node))
                text_density = self._get_text_density(node, TEXTISH_TAGS)
                is_figure_child = has_ancestor_tag(node, "figure")

                have_to_remove = (
                    (not is_figure_child and img > 1 and p / img < 0.5)
                    or (not is_list and li > p)
                    or (input_count > p // 3)
                    or (
                        not is_list
                        and not is_figure_child
                        and heading_density < 0.9
                        and content_length < 25
                        and (img == 0 or img > 2)
                        and link_density > 0
                    )
                    or (
                        not is_list
                        and weight < 25
                        and link_density > (0.2 + self.config.link_density_modifier)
                    )
                    or (
                        weight >= 25
                        and link_density > (0.5 + self.config.link_density_modifier)
                    )
                    or ((embed_count == 1 and content_length < 75) or embed_count > 1)
                    or (img == 0 and text_density == 0)
                )

                if is_list and have_to_remove:
                    for child in node.children:
                        if len(child.children) > 1:
                            return have_to_remove
                    li_count = len(node.get_elements_by_tag_name("li"))
                    if img == li_count:
                        return False

                return have_to_remove
            return False

        remove_nodes(e.get_elements_by_tag_name(tag), _filter)

    def _clean_headers(self, e: Element) -> None:
        """SmartReader.cs:2156-2169"""

        def _low_weight(node: Element) -> bool:
            if self._get_class_weight(node) < 0:
                if self._trace:
                    self._log(  # :2164-2165
                        f"Removing header with low class weight: {node.tag}"
                    )
                return True
            return False

        remove_nodes(get_all_nodes_with_tag(e, ["h1", "h2"]), _low_weight)

    # ------------------------------------------------------------------
    # post-processing (Readability.cs:50-219, SmartReader.cs:628-645)
    # ------------------------------------------------------------------
    def _post_process_content(
        self, article_content: Element, uri: PageUri, doc: Document
    ) -> None:
        self._fix_relative_uris(article_content, uri, doc)
        self._simplify_nested_elements(article_content)
        # the two attribute scrubs change no structure: one walk serves both
        elements = [article_content, *article_content.get_elements_by_tag_name("*")]
        if not self.config.keep_classes:
            self._clean_classes(elements, list(self.config.classes_to_preserve))
        if not self.config.debug:
            # reader-internal attrs (SmartReader.cs:640-644, 736-747);
            # scores live off-DOM so only the data-table marks remain
            self._clean_reader_attributes(elements, "datatable")

    def _clean_reader_attributes(self, elements: list[Element], attribute: str) -> None:
        for el in elements:
            if el.get_attribute(attribute):
                el.remove_attribute(attribute)

    def _fix_relative_uris(
        self, article_content: Element, uri: PageUri, doc: Document
    ) -> None:
        """Readability.cs:83-154"""
        for link in article_content.get_elements_by_tag_name("a"):
            href = link.get_attribute("href")
            if href and href.strip():
                if href.lower().startswith("javascript:"):
                    if (
                        link.num_child_nodes == 1
                        and link.first_child.node_type == TEXT_NODE
                    ):
                        text = TextNode(link.text_content)
                        link.parent.replace_child(text, link)
                    else:
                        container = Element("span")
                        while link.first_child is not None:
                            container.append_child(link.first_child)
                        link.parent.replace_child(container, link)
                else:
                    link.set_attribute("href", uri.to_absolute_uri(href))

        medias = get_all_nodes_with_tag(
            article_content, ["img", "picture", "figure", "video", "audio", "source"]
        )
        for media in medias:
            src = media.get_attribute("src")
            if src is not None:
                media.set_attribute("src", uri.to_absolute_uri(src))
            poster = media.get_attribute("poster")
            if poster is not None:
                media.set_attribute("poster", uri.to_absolute_uri(poster))
            srcset = media.get_attribute("srcset")
            if srcset is not None:
                new_srcset = regexes.SRCSET_URL.sub(
                    lambda m: uri.to_absolute_uri(m.group(1))
                    + (m.group(2) or "")
                    + m.group(3),
                    srcset,
                )
                media.set_attribute("srcset", new_srcset)

    def _simplify_nested_elements(self, article_content: Element) -> None:
        """Readability.cs:188-219"""
        node: Optional[Element] = article_content
        while node is not None:
            if (
                node.parent is not None
                and node.tag in ("DIV", "SECTION")
                and not node.id.startswith("readability")
            ):
                if is_element_without_content(node):
                    node = remove_and_get_next(node)
                    continue
                elif has_single_tag_inside_element(
                    node, "DIV"
                ) or has_single_tag_inside_element(node, "SECTION"):
                    child = node.children[0]
                    for name, value in list(node.attrs.items()):
                        safe_set_attribute(child, name, value)
                    node.parent.replace_child(child, node)
                    node = child
                    continue
            node = get_next_node(node)

    def _clean_classes(self, elements: list[Element], classes_to_preserve: list[str]) -> None:
        """Readability.cs:50-74"""
        for el in elements:
            class_attr = el.get_attribute("class")
            if class_attr is None:
                continue
            class_name = " ".join(
                x for x in class_attr.split(" ") if x and x in classes_to_preserve
            )
            if class_name:
                el.set_attribute("class", class_name)
            else:
                el.remove_attribute("class")

    # ------------------------------------------------------------------
    # final assembly (Article.cs:119-141)
    # ------------------------------------------------------------------
    def _build_article(
        self,
        uri: PageUri,
        metadata: Metadata,
        element: Element,
        is_readable: bool,
    ) -> ArticleResult:
        cfg = self.config
        serializer = cfg.serializer or inner_html
        converter = cfg.converter or convert_to_plaintext

        result = ArticleResult(uri=uri.raw)
        result.element = element
        result.title = self.article_title
        byline = self.article_byline
        result.byline = metadata.author if (byline is None or not byline.strip()) else byline
        result.dir = self.article_dir or ""
        result.content_html = serializer(element)
        result.text_content = converter(element)
        result.length = len(result.text_content)

        meta_lang = metadata.language
        language = meta_lang if meta_lang and meta_lang.strip() else (self.language or "")
        if cfg.language_identification is not None:
            language = cfg.language_identification(result.text_content, language) or ""
        result.language = language

        excerpt = metadata.excerpt or ""
        if cfg.create_summary is not None:
            excerpt = cfg.create_summary(result.text_content, excerpt) or ""
        result.excerpt = excerpt

        result.alternative_language_uris = dict(metadata.alternative_language_uris)
        result.publication_date = metadata.publication_date
        meta_author = metadata.author
        result.author = (
            (self.author or "")
            if (meta_author is None or not meta_author.strip())
            else meta_author
        )
        result.site_name = metadata.site_name or ""
        result.is_readable = is_readable
        result.featured_image = metadata.featured_image or ""
        result.time_to_read_s = time_to_read_seconds(
            element.text_content, result.text_content, result.language
        )
        result.top_candidate_score = self.top_candidate_score
        result.n_candidates = self.n_candidates
        result.chars_kept = result.length
        return result


def parse_article(uri: str, text: str, config: ExtractorConfig = DEFAULT_CONFIG) -> ArticleResult:
    """Module-level convenience mirroring ``Reader.ParseArticle(uri, text)``
    (SmartReader.cs:588-598)."""
    return Extractor(config).parse(uri, text)
