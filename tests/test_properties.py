"""Property tests: optimized hot paths vs naive reference implementations.

The DOM text caches, the regex/``str``-method whitespace kernels
(``collapse_whitespace``, ``squash_spaces``, ``convert_to_plaintext``
and its literal-first tab and newline patterns) and the letter counter
replaced per-char Python loops and repeated subtree walks; these
properties pin them to the straightforward definitions on arbitrary
inputs (hypothesis).
"""

import re
import unicodedata

from hypothesis import given, settings
from hypothesis import strategies as st

# text with a bias toward the interesting classes: spaces of every
# Z category, HTML5 and other control whitespace (\f, \x0b, \x85),
# line/paragraph separators, newlines (CR-heavy runs included), tab
# runs, punctuation, astral chars (astral punctuation included) and a
# lone surrogate
_special = (
    list(" \xa0\u3000\u2003\u205f\u1680\u202f\u2028\u2029")
    + list("\r\n\t\f\x0b\x85")
    + ["\t\t", "\t\t\t", "\r\n", "\n\n\n", "  "]
    + ["\r\r\n", "\n\r\n\n", "\r\n\r\n\r\n"]
    + list(".,!\u00ab\u00bb\u2014\U0001f600\U00010400\U00010100\ud800")
)
_tokens = st.sampled_from(list("abcdef ") + _special)
texts = st.lists(_tokens, max_size=120).map("".join)


def _naive_space_squash(text: str) -> str:
    """The reference's char loop (Article.cs:268-312), written naively."""
    out = []
    prev_space = False
    prev_newline = False
    n = len(text)
    for i in range(n):
        ch = text[i]
        is_space = unicodedata.category(ch).startswith("Z")
        is_newline = ch in ("\r", "\n")
        is_next_newline = i < n - 1 and text[i + 1] in ("\r", "\n")
        if (
            (is_space and is_next_newline)
            or (prev_newline and is_space)
            or (prev_space and is_space)
        ):
            pass
        else:
            out.append(ch)
        prev_space = is_space
        prev_newline = is_newline
    return "".join(out)


@given(texts)
@settings(max_examples=300, deadline=None)
def test_space_squash_matches_naive(text):
    from smartreader_ray.extraction.article import squash_spaces

    assert squash_spaces(text) == _naive_space_squash(text)


@given(texts)
@settings(max_examples=300, deadline=None)
def test_eliminate_tabs_matches_definition(text):
    from smartreader_ray.extraction.regexes import ELIMINATE_TABS

    assert ELIMINATE_TABS.sub(" ", text) == re.sub(r"\t+", " ", text)


@given(texts)
@settings(max_examples=300, deadline=None)
def test_normalize_newlines_matches_definition(text):
    from smartreader_ray.extraction.article import normalize_newlines

    assert normalize_newlines(text) == re.sub(r"(\r?\n){3,}", "\n\n", text)


@given(texts)
@settings(max_examples=300, deadline=None)
def test_collapse_whitespace_matches_regex(text):
    from smartreader_ray.dom import collapse_whitespace

    assert collapse_whitespace(text) == re.sub(r"[ \t\n\f\r]+", " ", text)


def _naive_count_letters(text: str) -> int:
    count = 0
    for ch in text:
        if ord(ch) > 0xFFFF:
            count += 2
        elif ch != " " and not unicodedata.category(ch).startswith("P"):
            count += 1
    return count


@given(texts)
@settings(max_examples=300, deadline=None)
def test_count_letters_matches_naive(text):
    from smartreader_ray.extraction.article import count_letters

    assert count_letters(text) == _naive_count_letters(text)


@st.composite
def whitespace_docs(draw):
    """Random nested P/BR/DIV/SPAN/PRE markup around whitespace-heavy text."""
    parts = ["<html><body>"]
    stack = []
    for _ in range(draw(st.integers(0, 25))):
        action = draw(st.integers(0, 3))
        if action == 0 and len(stack) < 5:
            t = draw(st.sampled_from(["p", "div", "span", "pre"]))
            parts.append(f"<{t}>")
            stack.append(t)
        elif action == 1 and stack:
            parts.append(f"</{stack.pop()}>")
        elif action == 2:
            parts.append("<br>")
        else:
            parts.append(draw(st.lists(_tokens, max_size=12).map("".join)))
    while stack:
        parts.append(f"</{stack.pop()}>")
    parts.append("</body></html>")
    return "".join(parts)


def _naive_dom_text(node) -> str:
    """Article.cs:317-344 written naively: text nodes in document order,
    a newline before every P and BR and after every P."""
    if node.node_type == 3:
        return node.data
    if node.node_type != 1:
        return ""
    inner = "".join(_naive_dom_text(c) for c in node.childNodes)
    if node.node_name == "P":
        return "\n" + inner + "\n"
    if node.node_name == "BR":
        return "\n" + inner
    return inner


@given(whitespace_docs())
@settings(max_examples=300, deadline=None)
def test_convert_to_plaintext_matches_naive(doc):
    from smartreader_ray.dom import parse_html
    from smartreader_ray.extraction import convert_to_plaintext

    body = parse_html(doc).body
    if body is None:
        return
    raw = re.sub(r"\t+", " ", _naive_dom_text(body))
    naive = re.sub(r"(\r?\n){3,}", "\n\n", _naive_space_squash(raw).strip())
    assert convert_to_plaintext(body) == naive


# -- DOM invariants ---------------------------------------------------------
tags = st.sampled_from(["div", "p", "span", "a", "ul", "li", "section"])


@st.composite
def html_docs(draw):
    """Small random well-formed-ish HTML documents."""
    parts = ["<html><body>"]
    depth = 0
    stack = []
    for _ in range(draw(st.integers(0, 30))):
        action = draw(st.integers(0, 2))
        if action == 0 and depth < 5:
            t = draw(tags)
            parts.append(f"<{t}>")
            stack.append(t)
            depth += 1
        elif action == 1 and stack:
            parts.append(f"</{stack.pop()}>")
            depth -= 1
        else:
            parts.append(draw(st.text(alphabet="ab c", max_size=10)))
    while stack:
        parts.append(f"</{stack.pop()}>")
    parts.append("</body></html>")
    return "".join(parts)


@given(html_docs())
@settings(max_examples=150, deadline=None)
def test_collect_elements_matches_iterator(doc):
    from smartreader_ray.dom import parse_html

    d = parse_html(doc)
    body = d.body
    if body is None:
        return
    via_iter = [e for e in body.iter_elements() if e.tag == "P"]
    via_collect = body.get_elements_by_tag_name("p")
    assert via_iter == via_collect
    assert list(body.iter_elements()) == body.get_elements_by_tag_name("*")


@given(html_docs())
@settings(max_examples=150, deadline=None)
def test_text_cache_survives_mutation(doc):
    from smartreader_ray.dom import parse_html

    d = parse_html(doc)
    body = d.body
    if body is None:
        return
    before = body.text_content
    assert body.text_content == before  # cached read
    # mutate: remove the first element child (if any), text must recompute
    first = body.first_element_child
    if first is not None:
        removed_text = first.text_content
        body.remove_child(first)
        after = body.text_content
        # naive recompute from remaining children
        naive = "".join(
            c.text_content for c in body.childNodes
        )
        assert after == naive
        # and re-inserting restores the original text
        body.insert_before(first, body.first_child)
        assert body.text_content == removed_text + after or body.text_content == before


# ---------------------------------------------------------------------------
# vectorized FNV-1a vs the scalar definition (hypothesis)
# ---------------------------------------------------------------------------
@given(st.lists(st.text(max_size=60), max_size=30))
@settings(max_examples=200, deadline=None)
def test_hash64_property(values):
    from smartreader_ray.functions.dedup import _hash64

    def scalar(v: str) -> int:
        h = 0xCBF29CE484222325
        for b in v.encode():
            h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return h

    got = _hash64(values)
    assert [int(g) for g in got] == [scalar(v) for v in values]


# ---------------------------------------------------------------------------
# token-window scanner vs the split/join definition (hypothesis)
# ---------------------------------------------------------------------------
# runs of spaces, tabs, newlines, non-ASCII letters and astral chars;
# leading/trailing whitespace arises from the same alphabet
_window_texts = st.text(alphabet=st.sampled_from(
    list("ab  \t\né日本　\U0001f600")), max_size=80)


@given(_window_texts, st.integers(min_value=1, max_value=6))
@settings(max_examples=300, deadline=None)
def test_windows_match_split_join(text, window):
    from smartreader_ray.functions.dedup import _doc_window_set, _windows

    toks = text.strip().split(" ")
    naive = [" ".join(toks[i:i + window])
             for i in range(len(toks) - window + 1)]
    assert _windows(text, window) == naive
    distinct = []
    for w in naive:
        if w not in distinct:
            distinct.append(w)
    assert _doc_window_set(text, window) == distinct


# ---------------------------------------------------------------------------
# fast tokenizer vs stdlib html.parser on arbitrary markup-ish text
# ---------------------------------------------------------------------------
_markup_alphabet = st.sampled_from(
    list("<>/!&;='\"- abcdeftps#x0123[]?") + ["<p>", "</p>", "<script>",
    "</script>", "<!--", "-->", "&amp;", "&#65;", "<div class='x'>", "<br/>",
    "<![CDATA[", "]]>", "<!doctype html>", "<title>", "</title>"]
)
markup_texts = st.lists(_markup_alphabet, max_size=40).map("".join)


@given(markup_texts)
@settings(max_examples=300, deadline=None)
def test_fast_tokenizer_property(text):
    from tests.test_dom import _events_both

    (se, sx), (fe, fx) = _events_both(text)
    assert sx == fx
    if sx is None:
        assert se == fe


# ---------------------------------------------------------------------------
# curation-operator properties (no Ray needed: batch-level functions)
# ---------------------------------------------------------------------------
word = st.text(alphabet="abcdefg", min_size=1, max_size=5)
docs_texts = st.lists(
    st.lists(word, min_size=0, max_size=40).map(" ".join),
    min_size=1, max_size=12,
)


@given(docs_texts)
@settings(max_examples=150, deadline=None)
def test_repetition_stats_invariants(texts):
    import pyarrow as pa

    from smartreader_ray.functions import repetition_stats

    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": texts,
        }
    )
    out = repetition_stats(t).to_pylist()
    for row, text in zip(out, texts):
        toks = text.split(" ") if text else [""]
        # n_tokens matches the naive split; distinct ≤ total
        assert row["n_tokens"] == len(text.strip().split(" ")) if text.strip() else True
        assert 0 <= row["n_distinct"] <= row["n_tokens"]
        assert row["n_bigrams"] == max(row["n_tokens"] - 1, 0)
        assert 0 <= row["top_bigram_count"] <= max(row["n_bigrams"], 0)
        assert 0.0 <= row["dup_word_frac"] <= 1.0
        assert 0.0 <= row["top_bigram_frac"] <= 1.0


@given(docs_texts, st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=10))
@settings(max_examples=150, deadline=None)
def test_chunking_covers_every_token_exactly_once_when_disjoint(
    texts, chunk_tokens, _unused
):
    """With stride == chunk_tokens the chunks PARTITION the token list."""
    import pyarrow as pa

    from smartreader_ray.functions.curation import chunk_documents

    class _FakeDs:
        def __init__(self, table):
            self.table = table

        def select_columns(self, cols):
            return _FakeDs(self.table.select(cols))

        def map_batches(self, fn, **kw):
            return fn(self.table)

    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": texts,
        }
    )
    out = chunk_documents(_FakeDs(t), chunk_tokens=chunk_tokens).to_pylist()
    by_doc: dict = {}
    for r in out:
        by_doc.setdefault(r["doc_id"], []).append((r["chunk_id"], r["chunk"]))
    for i, text in enumerate(texts):
        chunks = [c for _, c in sorted(by_doc[i])]
        toks = (text or "").strip().split(" ")
        rebuilt = [tok for c in chunks for tok in (c.split(" ") if c else [""])]
        assert rebuilt == toks


@given(st.binary(max_size=400))
@settings(max_examples=300, deadline=None)
def test_warc_parser_never_hangs_on_garbage(data):
    """Arbitrary bytes either parse, return nothing, or raise cleanly —
    never hang or emit malformed records."""
    from smartreader_ray.sources.warc import iter_warc_records

    try:
        for rec in iter_warc_records(data):
            assert isinstance(rec["headers"], dict)
            assert isinstance(rec["block"], bytes)
    except (ValueError, OSError, EOFError):
        pass  # rejected cleanly (bad magic / bad gzip / bad length)


@given(st.lists(
    st.tuples(st.text(alphabet="abcxyz:/._-", min_size=1, max_size=20),
              st.text(min_size=0, max_size=200)),
    min_size=0, max_size=6,
), st.booleans())
@settings(max_examples=150, deadline=None)
def test_warc_roundtrip_property(pages, compress):
    from smartreader_ray.sources.warc import iter_warc_records, make_warc

    blob = make_warc(pages, compress=compress)
    recs = list(iter_warc_records(blob))
    assert len(recs) == len(pages)
    for rec, (uri, html) in zip(recs, pages):
        assert rec["headers"]["warc-target-uri"] == uri
        _, body = rec["block"].split(b"\r\n\r\n", 1)
        assert body == html.encode("utf-8")


@settings(deadline=None, max_examples=200)
@given(
    st.dictionaries(st.text(alphabet="abcdef", min_size=1, max_size=4),
                    st.integers(min_value=0, max_value=1000),
                    min_size=1, max_size=8),
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=1, max_value=3),
)
def test_unimax_allocation_properties(counts, budget, epochs):
    from smartreader_ray.functions import unimax_allocation

    quota = unimax_allocation(counts, budget, epochs)
    caps = {k: n * epochs for k, n in counts.items()}
    assert set(quota) == set(counts)
    # never over cap, never negative
    assert all(0 <= quota[k] <= caps[k] for k in quota)
    # exhausts min(budget, total capacity) exactly
    assert sum(quota.values()) == min(budget, sum(caps.values()))
    # water level: any key below its cap must be within 1 unit of the
    # maximum uncapped allocation (the uniform share)
    uncapped = [quota[k] for k in quota if quota[k] < caps[k]]
    if uncapped:
        assert max(uncapped) - min(uncapped) <= 1
