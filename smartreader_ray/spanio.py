"""Span ⇄ HTML codecs — the engine's interchange data model.

``BASELINE.json.input_hint``: documents are interleaved text+media spans
``list<struct<kind, text, media_ref, offset>>``. Raw markup travels in
``kind="html"`` spans; extracted articles flatten to ``kind="text"`` runs
plus ``kind="image" | "video" | "embed"`` media spans. The flattener is the
per-row invariant used against the reference fixtures (span-sequence
equality on (kind, text, media_ref, order) — applied identically to our
output and to the reference's ``expected.html``).
"""

from __future__ import annotations

from typing import Iterable, Optional

from .dom import CommentNode, Element, TextNode, collapse_whitespace, parse_html
from .dom.node import ParentNode

#: default chunking for synthetic span construction (~64 KB)
DEFAULT_CHUNK = 64 * 1024

#: media element → span kind
_MEDIA_KINDS = {
    "IMG": "image",
    "PICTURE": "image",
    "VIDEO": "video",
    "AUDIO": "video",
    "IFRAME": "embed",
    "EMBED": "embed",
    "OBJECT": "embed",
}

#: elements that break a text run (block-level display, readability's O8
#: plaintext rules put newlines at P/BR — we break runs at all blocks so
#: the invariant is insensitive to inline-markup serialization)
_BLOCK_BREAKERS = frozenset(
    """ADDRESS ARTICLE ASIDE BLOCKQUOTE BODY CAPTION DD DIV DL DT FIELDSET
    FIGCAPTION FIGURE FOOTER FORM H1 H2 H3 H4 H5 H6 HEADER HR LI MAIN NAV
    OL P PRE SECTION TABLE TBODY TD TFOOT TH THEAD TR UL BR""".split()
)

_SKIP_SUBTREES = frozenset({"SCRIPT", "STYLE", "NOSCRIPT", "TEMPLATE", "HEAD"})


def make_span(kind: str, text: str = "", media_ref: str = "", offset: int = 0) -> dict:
    return {"kind": kind, "text": text, "media_ref": media_ref, "offset": offset}


# ---------------------------------------------------------------------------
# assemble: spans -> source html (input side)
# ---------------------------------------------------------------------------
def assemble_html(spans: Iterable[dict]) -> str:
    """Concatenate ``kind='html'`` span text in offset order (F1 rule)."""
    html_spans = [s for s in spans if s.get("kind") == "html"]
    html_spans.sort(key=lambda s: s.get("offset", 0))
    return "".join(s.get("text") or "" for s in html_spans)


def html_to_spans(html: str, chunk_size: int = DEFAULT_CHUNK) -> list[dict]:
    """Chunk raw HTML into consecutive ``kind='html'`` spans (≥1 per doc)."""
    if not html:
        return [make_span("html", "", "", 0)]
    spans = []
    for i, start in enumerate(range(0, len(html), chunk_size)):
        spans.append(make_span("html", html[start:start + chunk_size], "", i))
    return spans


# ---------------------------------------------------------------------------
# flatten: extracted DOM -> interleaved text+media spans (output side)
# ---------------------------------------------------------------------------
def _media_ref_of(el: Element) -> str:
    for attr in ("src", "poster", "data", "srcset", "href"):
        v = el.get_attribute(attr)
        if v:
            if attr == "srcset":
                return v.split(",")[0].strip().split(" ")[0]
            return v
    return ""


def flatten_element(root: ParentNode) -> list[dict]:
    """DFS over the extracted article emitting interleaved spans.

    - text runs break at block boundaries, are whitespace-collapsed and
      trimmed; empty runs are dropped
    - media elements emit (kind, text=alt/caption, media_ref=resolved src)
      at their document position
    """
    spans: list[dict] = []
    buf: list[str] = []

    def flush() -> None:
        if buf:
            text = collapse_whitespace("".join(buf)).strip()
            del buf[:]
            if text:
                spans.append(make_span("text", text, "", len(spans)))

    def walk(node) -> None:
        if isinstance(node, TextNode):
            buf.append(node.data)
            return
        if isinstance(node, CommentNode):
            return
        if isinstance(node, Element):
            tag = node.tag
            if tag in _SKIP_SUBTREES:
                return
            kind = _MEDIA_KINDS.get(tag)
            if kind is not None:
                ref = _media_ref_of(node)
                if tag == "PICTURE":
                    # pick the nested img's src if present
                    imgs = node.get_elements_by_tag_name("img")
                    if imgs:
                        ref = _media_ref_of(imgs[0]) or ref
                flush()
                alt = node.get_attribute("alt") or node.get_attribute("title") or ""
                spans.append(make_span(kind, collapse_whitespace(alt).strip(), ref, len(spans)))
                return
            breaker = tag in _BLOCK_BREAKERS
            if breaker:
                flush()
            for child in node.childNodes:
                walk(child)
            if breaker:
                flush()

    for child in root.childNodes:
        walk(child)
    flush()
    return spans


def flatten_html(html: str) -> list[dict]:
    """Parse an HTML (fragment or document) and flatten its body."""
    doc = parse_html(html)
    body = doc.body if doc.body is not None else doc
    return flatten_element(body)


def spans_equal(a: list[dict], b: list[dict]) -> bool:
    """The per-row invariant: equality on (kind, text, media_ref, order)."""
    if len(a) != len(b):
        return False
    for sa, sb in zip(a, b):
        if (
            sa["kind"] != sb["kind"]
            or sa["text"] != sb["text"]
            or sa["media_ref"] != sb["media_ref"]
        ):
            return False
    return True


def caption_pairs_batch(article_batch) -> "pa.Table":
    """Interleaved-span caption pairing: for every MEDIA span in a
    ``(doc_id, spans)`` row, find its caption text —

    1. the media span's own non-empty ``text`` (alt / ``figcaption``
       markup captured at flatten time) → ``caption_src='alt'``;
    2. else the nearest non-empty TEXT span by span-offset distance,
       the PRECEDING one winning ties → ``'prev'`` / ``'next'``;
    3. else ``caption=''``, ``caption_src='none'``.

    ``distance`` is the span-offset delta (0 for alt, -1 for none).
    The text⇄media alignment step a multimodal training pipeline runs
    right after extraction (image-caption pair mining). Per-doc numpy
    searchsorted over the text-span offsets — no quadratic scan.

    Batch-level function: one input row per document, output one row
    per media span; use inside ``map_batches(..., batch_format="pyarrow")``.
    """
    import numpy as np
    import pyarrow as pa

    media_kinds = ("image", "video", "audio", "embed")
    o_doc, o_ref, o_kind, o_off = [], [], [], []
    o_cap, o_src, o_dist = [], [], []
    doc_col = article_batch.column("doc_id")
    for doc_id, spans in zip(doc_col.to_pylist(),
                             article_batch.column("spans").to_pylist()):
        spans = spans or []
        t_off = np.array([s["offset"] for s in spans
                          if s["kind"] == "text" and (s["text"] or "").strip()],
                         dtype=np.int64)
        t_txt = [s["text"] for s in spans
                 if s["kind"] == "text" and (s["text"] or "").strip()]
        for s in spans:
            if s["kind"] not in media_kinds or not s["media_ref"]:
                continue
            o_doc.append(doc_id)
            o_ref.append(s["media_ref"])
            o_kind.append(s["kind"])
            off = int(s["offset"])
            o_off.append(off)
            alt = (s["text"] or "").strip()
            if alt:
                o_cap.append(alt)
                o_src.append("alt")
                o_dist.append(0)
                continue
            if t_off.size == 0:
                o_cap.append("")
                o_src.append("none")
                o_dist.append(-1)
                continue
            i = int(np.searchsorted(t_off, off))
            prev_d = off - t_off[i - 1] if i > 0 else None
            next_d = t_off[i] - off if i < t_off.size else None
            if next_d is None or (prev_d is not None and prev_d <= next_d):
                o_cap.append(t_txt[i - 1])
                o_src.append("prev")
                o_dist.append(int(prev_d))
            else:
                o_cap.append(t_txt[i])
                o_src.append("next")
                o_dist.append(int(next_d))
    return pa.table({
        "doc_id": pa.array(o_doc, type=doc_col.type),
        "media_ref": pa.array(o_ref, type=pa.string()),
        "kind": pa.array(o_kind, type=pa.string()),
        "offset": pa.array(o_off, type=pa.int64()),
        "caption": pa.array(o_cap, type=pa.string()),
        "caption_src": pa.array(o_src, type=pa.string()),
        "distance": pa.array(o_dist, type=pa.int64()),
    })


def interleave_stats_batch(article_batch) -> "pa.Table":
    """Per-document modality-balance audit over an interleaved
    ``(doc_id, spans)`` row: text/media span counts and the number of
    kind ALTERNATIONS along the span order (adjacent spans of differing
    text-vs-media class) — the MMC4-style interleaving statistic a
    multimodal training mix is tuned on (a doc with images clumped at
    the end trains differently from one with the same images woven
    through the text).

    Fully vectorized over the Arrow list column: one flatten + offsets
    pass, boundary-safe adjacent compare via the list offsets — no
    per-span Python. Batch-level function for
    ``map_batches(..., batch_format="pyarrow")``; output one row per
    document: (doc_id, n_spans, n_text, n_media, n_alt).
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    spans = article_batch.column("spans").combine_chunks()
    # offsets into the flattened child array, robust to a sliced batch
    offsets = spans.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = spans.flatten()
    kinds = flat.field("kind")
    is_text = pc.equal(kinds, "text").to_numpy(zero_copy_only=False)
    # spans are ordered by construction (flatten emits offset order);
    # alternation = adjacent pair whose text-vs-media class differs,
    # masked at document boundaries
    n = len(is_text)
    if n > 1:
        diff = is_text[1:] != is_text[:-1]
    else:
        diff = np.zeros(0, dtype=bool)
    # position i in `diff` compares flat span i and i+1 — kill pairs
    # that straddle a document boundary (i+1 == some offsets[k])
    cum = np.concatenate(([0], np.cumsum(diff, dtype=np.int64)))
    starts = offsets[:-1] - offsets[0]
    ends = offsets[1:] - offsets[0]
    # per-doc alternations = cum[end-1] - cum[start] for non-empty docs
    n_spans = ends - starts
    n_alt = np.where(n_spans > 1,
                     cum[np.maximum(ends - 1, 0)] - cum[starts], 0)
    cum_t = np.concatenate(([0], np.cumsum(is_text, dtype=np.int64)))
    n_text = cum_t[ends] - cum_t[starts]
    return pa.table({
        "doc_id": article_batch.column("doc_id"),
        "n_spans": pa.array(n_spans, type=pa.int64()),
        "n_text": pa.array(n_text, type=pa.int64()),
        "n_media": pa.array(n_spans - n_text, type=pa.int64()),
        "n_alt": pa.array(n_alt, type=pa.int64()),
    })


def pack_spans_batch(article_batch, budget: int = 256,
                     media_cost: int = 64) -> "pa.Table":
    """Multimodal sequence packing over interleaved ``(doc_id, spans)``
    rows: assign every span to a fixed-budget training sequence where a
    TEXT span costs its whitespace-token count and a MEDIA span costs a
    fixed ``media_cost`` token patch budget (the vision-token cost of
    one image in an interleaved-multimodal batch, à la Flamingo/MMC4
    packing).

    Boundary rule is **prefix packing**: a span belongs to the sequence
    its FIRST token falls in — ``seq_idx = (sum of costs of preceding
    spans in the doc) // budget`` — so a sequence can overflow by at
    most one span but the assignment is closed-form (one cumulative sum,
    SQL-replayable), unlike greedy never-split packing which needs
    sequential state. Documents never share a sequence (packing is
    per-doc; cross-doc concat is a shuffle-order question, not a
    per-row one).

    Fully vectorized: one flatten + offsets pass, token counts via ONE
    ``count_substring_regex(\\S+)`` kernel, per-doc exclusive cumsum by
    offset arithmetic, segment rollup via ``np.add.reduceat`` — no
    per-span Python. Output one row per (doc_id, seq_idx): n_spans,
    n_text_tokens, n_media, cost.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    spans = article_batch.column("spans").combine_chunks()
    offsets = spans.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    starts = offsets[:-1] - offsets[0]
    ends = offsets[1:] - offsets[0]
    flat = spans.flatten()
    is_text = pc.equal(flat.field("kind"), "text").to_numpy(
        zero_copy_only=False)
    tok = pc.count_substring_regex(
        pc.coalesce(flat.field("text"), pa.scalar("", type=pa.string())),
        r"\S+").to_numpy(zero_copy_only=False).astype(np.int64)
    tok = np.where(is_text, tok, 0)
    cost = np.where(is_text, tok, np.int64(media_cost))
    # per-doc EXCLUSIVE cumsum: global running sum minus the doc's base
    cum = np.concatenate(([0], np.cumsum(cost, dtype=np.int64)))
    excl = cum[:-1]                       # cost of everything before span i
    n_spans_doc = ends - starts
    doc_base = np.repeat(excl[starts[n_spans_doc > 0]]
                         if len(starts) else np.zeros(0, np.int64),
                         n_spans_doc[n_spans_doc > 0])
    seq = np.zeros(len(cost), dtype=np.int64)
    if len(cost):
        seq = (excl - doc_base) // np.int64(budget)
    # segment boundaries: doc start OR seq change within the doc
    doc_first = np.zeros(len(cost), dtype=bool)
    doc_first[starts[n_spans_doc > 0]] = True
    new_seg = doc_first.copy()
    if len(cost) > 1:
        new_seg[1:] |= (seq[1:] != seq[:-1]) & ~doc_first[1:]
    seg_starts = np.flatnonzero(new_seg)
    doc_idx_per_span = np.repeat(np.arange(len(n_spans_doc)), n_spans_doc)
    if len(seg_starts):
        out_doc_idx = doc_idx_per_span[seg_starts]
        out_seq = seq[seg_starts]
        out_n = np.add.reduceat(np.ones(len(cost), np.int64), seg_starts)
        out_tok = np.add.reduceat(tok, seg_starts)
        out_media = np.add.reduceat((~is_text).astype(np.int64), seg_starts)
        out_cost = np.add.reduceat(cost, seg_starts)
    else:
        out_doc_idx = np.zeros(0, np.int64)
        out_seq = out_n = out_tok = out_media = out_cost = np.zeros(
            0, np.int64)
    return pa.table({
        "doc_id": article_batch.column("doc_id").combine_chunks().take(
            pa.array(out_doc_idx, type=pa.int64())),
        "seq_idx": pa.array(out_seq, type=pa.int64()),
        "n_spans": pa.array(out_n, type=pa.int64()),
        "n_text_tokens": pa.array(out_tok, type=pa.int64()),
        "n_media": pa.array(out_media, type=pa.int64()),
        "cost": pa.array(out_cost, type=pa.int64()),
    })


def normalize_spans_batch(article_batch) -> "pa.Table":
    """Canonicalize interleaved span sequences — the normalization pass
    run before any span-sequence equality compare (the acceptance
    invariant: per-doc (kind, text, media_ref, order) equality):

    * TEXT spans that are empty after whitespace-trim are DROPPED;
    * maximal runs of adjacent TEXT spans are MERGED (trimmed texts
      joined with a single space);
    * media spans pass through unchanged (alt text trimmed);
    * offsets are renumbered 0..n-1 per document.

    Fully vectorized: one flatten + offsets pass, run boundaries via
    adjacent class compare, per-run text merge via ONE
    ``pc.binary_join`` over a rebuilt ListArray — no per-span Python.
    Output is FLAT (one row per normalized span): (doc_id, offset,
    kind, text, media_ref); documents whose every span is dropped emit
    no rows. Batch-level function for
    ``map_batches(..., batch_format="pyarrow")``; embarrassingly
    parallel — nothing leaves the block but the normalized rows.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    spans = article_batch.column("spans").combine_chunks()
    offsets = spans.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    starts = offsets[:-1] - offsets[0]
    ends = offsets[1:] - offsets[0]
    n_doc = ends - starts
    flat = spans.flatten()
    empty_s = pa.scalar("", type=pa.string())
    kind = pc.coalesce(flat.field("kind"), empty_s)
    text = pc.utf8_trim_whitespace(pc.coalesce(flat.field("text"), empty_s))
    media = pc.coalesce(flat.field("media_ref"), empty_s)
    is_text = pc.equal(kind, "text").to_numpy(zero_copy_only=False)
    is_empty = pc.equal(pc.utf8_length(text), 0).to_numpy(
        zero_copy_only=False)
    keep = ~(is_text & is_empty)
    doc_idx = np.repeat(np.arange(len(n_doc), dtype=np.int64), n_doc)
    kidx = np.flatnonzero(keep)
    n2 = len(kidx)
    d2 = doc_idx[kidx]
    it2 = is_text[kidx]
    new_seg = np.ones(n2, dtype=bool)
    if n2 > 1:
        new_seg[1:] = (d2[1:] != d2[:-1]) | ~(it2[1:] & it2[:-1])
    seg_starts = np.flatnonzero(new_seg)
    n_seg = len(seg_starts)
    take_kept = pa.array(kidx, type=pa.int64())
    kept_text = text.take(take_kept)
    list_offs = pa.array(np.append(seg_starts, n2).astype(np.int32))
    merged = pc.binary_join(
        pa.ListArray.from_arrays(list_offs, kept_text), " ")
    first_of_seg = pa.array(kidx[seg_starts], type=pa.int64())
    seg_kind = kind.take(first_of_seg)
    seg_media = media.take(first_of_seg)
    seg_doc = d2[seg_starts] if n_seg else np.zeros(0, np.int64)
    # renumber: segment ordinal minus the doc's first segment ordinal
    doc_first = np.ones(n_seg, dtype=bool)
    if n_seg > 1:
        doc_first[1:] = seg_doc[1:] != seg_doc[:-1]
    seg_ord = np.arange(n_seg, dtype=np.int64)
    base = np.maximum.accumulate(np.where(doc_first, seg_ord, 0))
    doc_col = article_batch.column("doc_id").combine_chunks()
    return pa.table({
        "doc_id": doc_col.take(pa.array(seg_doc, type=pa.int64())),
        "offset": pa.array(seg_ord - base, type=pa.int64()),
        "kind": seg_kind,
        "text": merged,
        "media_ref": seg_media,
    })


def modality_runs_batch(article_batch) -> "pa.Table":
    """Per-document modality RUN-LENGTH audit over interleaved
    ``(doc_id, spans)`` rows: number of maximal same-class (text vs
    media) runs, per-class run counts, and the LONGEST run of each
    class — the burstiness statistic MMC4-style interleaved filters
    gate on (a doc with 12 consecutive images trains differently from
    one alternating text⇄image; complements `interleave_stats_batch`,
    which counts alternations but not run lengths).

    Fully vectorized: flatten + offsets, run boundaries via adjacent
    class compare masked at doc boundaries, run lengths and per-doc
    rollups via ``np.add.reduceat`` / ``np.maximum.reduceat``. Output
    one row per document with ≥1 span: (doc_id, n_runs, n_text_runs,
    n_media_runs, max_text_run, max_media_run) — all exact int64.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    spans = article_batch.column("spans").combine_chunks()
    offsets = spans.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    starts = offsets[:-1] - offsets[0]
    ends = offsets[1:] - offsets[0]
    n_doc = ends - starts
    flat = spans.flatten()
    is_text = pc.equal(flat.field("kind"), "text").to_numpy(
        zero_copy_only=False)
    n = len(is_text)
    doc_idx = np.repeat(np.arange(len(n_doc), dtype=np.int64), n_doc)
    if n == 0:
        empty = pa.array([], type=pa.int64())
        return pa.table({
            "doc_id": article_batch.column("doc_id").slice(0, 0),
            "n_runs": empty, "n_text_runs": empty, "n_media_runs": empty,
            "max_text_run": empty, "max_media_run": empty,
        })
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = (doc_idx[1:] != doc_idx[:-1]) | (is_text[1:] != is_text[:-1])
    run_starts = np.flatnonzero(new_run)
    run_len = np.diff(np.append(run_starts, n)).astype(np.int64)
    run_doc = doc_idx[run_starts]
    run_is_text = is_text[run_starts]
    doc_first = np.ones(len(run_starts), dtype=bool)
    doc_first[1:] = run_doc[1:] != run_doc[:-1]
    doc_run_starts = np.flatnonzero(doc_first)
    ones = np.ones(len(run_starts), dtype=np.int64)
    t_len = np.where(run_is_text, run_len, 0)
    m_len = np.where(run_is_text, 0, run_len)
    out = {
        "n_runs": np.add.reduceat(ones, doc_run_starts),
        "n_text_runs": np.add.reduceat(run_is_text.astype(np.int64),
                                       doc_run_starts),
        "n_media_runs": np.add.reduceat((~run_is_text).astype(np.int64),
                                        doc_run_starts),
        "max_text_run": np.maximum.reduceat(t_len, doc_run_starts),
        "max_media_run": np.maximum.reduceat(m_len, doc_run_starts),
    }
    doc_col = article_batch.column("doc_id").combine_chunks()
    return pa.table({
        "doc_id": doc_col.take(
            pa.array(run_doc[doc_run_starts], type=pa.int64())),
        **{k: pa.array(v, type=pa.int64()) for k, v in out.items()},
    })


def span_diff_batch(batch, col_a: str = "spans_a",
                    col_b: str = "spans_b") -> "pa.Table":
    """Per-document SPAN-SEQUENCE EQUALITY compare — the acceptance
    invariant of the extraction engine ((kind, text, media_ref, order)
    equality per document) expressed as an operator: given two span
    list columns on the same row, report whether the sequences are
    identical, and if not the FIRST mismatching index and which field
    mismatches first there (field priority kind > text > media_ref; a
    pure prefix relation reports 'length' at index min(n_a, n_b)).

    Fully vectorized across documents: ragged prefix index arrays via
    repeat/arange arithmetic, ONE Arrow take + equality kernel per
    field, first-mismatch per doc via ``np.minimum.reduceat`` over
    masked positions. Output one row per document: (doc_id, n_a, n_b,
    equal, first_mismatch, mismatch_field) — ``first_mismatch = -1``
    and ``mismatch_field = ''`` when equal. Per-doc, zero shuffle.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    def flat_parts(col):
        arr = batch.column(col).combine_chunks()
        offs = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        st = offs[:-1] - offs[0]
        flat = arr.flatten()
        empty_s = pa.scalar("", type=pa.string())
        return (st, np.diff(offs).astype(np.int64),
                pc.coalesce(flat.field("kind"), empty_s),
                pc.coalesce(flat.field("text"), empty_s),
                pc.coalesce(flat.field("media_ref"), empty_s))

    st_a, n_a, k_a, t_a, m_a = flat_parts(col_a)
    st_b, n_b, k_b, t_b, m_b = flat_parts(col_b)
    ndocs = len(n_a)
    m = np.minimum(n_a, n_b)
    total = int(m.sum())
    cum0 = np.concatenate(([0], np.cumsum(m)))[:-1]
    within = np.arange(total, dtype=np.int64) - np.repeat(cum0, m)
    gidx_a = pa.array(np.repeat(st_a, m) + within, type=pa.int64())
    gidx_b = pa.array(np.repeat(st_b, m) + within, type=pa.int64())
    neq_k = pc.not_equal(k_a.take(gidx_a), k_b.take(gidx_b)).to_numpy(
        zero_copy_only=False)
    neq_t = pc.not_equal(t_a.take(gidx_a), t_b.take(gidx_b)).to_numpy(
        zero_copy_only=False)
    neq_m = pc.not_equal(m_a.take(gidx_a), m_b.take(gidx_b)).to_numpy(
        zero_copy_only=False)
    neq = neq_k | neq_t | neq_m
    BIG = np.int64(2**62)
    pos = np.where(neq, within, BIG)
    first = np.full(ndocs, BIG, dtype=np.int64)
    nz = np.flatnonzero(m > 0)
    if len(nz):
        # reduceat over only non-empty segments, mapped back
        first[nz] = np.minimum.reduceat(pos, cum0[nz])
    has_field_mm = first < BIG
    # classify the field at the first mismatching position
    mm_doc = np.flatnonzero(has_field_mm)
    field = np.array([""] * ndocs, dtype=object)
    if len(mm_doc):
        p = cum0[mm_doc] + first[mm_doc]
        kk = neq_k[p]
        tt = neq_t[p] & ~kk
        field[mm_doc] = np.where(kk, "kind", np.where(tt, "text",
                                                      "media_ref"))
    len_mm = ~has_field_mm & (n_a != n_b)
    field[len_mm] = "length"
    first_out = np.where(has_field_mm, first,
                         np.where(len_mm, m, np.int64(-1)))
    equal = ~has_field_mm & ~len_mm
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "n_a": pa.array(n_a, type=pa.int64()),
        "n_b": pa.array(n_b, type=pa.int64()),
        "equal": pa.array(equal),
        "first_mismatch": pa.array(first_out, type=pa.int64()),
        "mismatch_field": pa.array(list(field), type=pa.string()),
    })


def media_context_batch(article_batch, k: int = 2) -> "pa.Table":
    """Text context window around every MEDIA span: the concatenated
    texts of the TEXT spans within ±``k`` span positions, in span
    order — the CLIP/BLIP-style (image, surrounding-text) training-pair
    builder over interleaved documents (wider than `caption_pairs_batch`,
    which resolves ONE nearest caption; this keeps the whole local
    window).

    Assumes offsets are dense 0..n-1 per document (the
    `normalize_spans_batch` contract; the synthetic span builders emit
    dense offsets), so span POSITION == span offset and the window is
    pure index arithmetic. Fully vectorized: candidate indices via
    repeat/arange (≤ 2k+1 per media span), one mask for
    text-class-within-doc, ragged regroup via ``np.bincount`` →
    ListArray offsets, per-media join via ONE ``pc.binary_join``.
    Output one row per media span: (doc_id, offset, kind, media_ref,
    context, n_ctx) — per-doc, zero shuffle.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    spans = article_batch.column("spans").combine_chunks()
    offsets = spans.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    starts = offsets[:-1] - offsets[0]
    n_doc = np.diff(offsets).astype(np.int64)
    flat = spans.flatten()
    empty_s = pa.scalar("", type=pa.string())
    kind = pc.coalesce(flat.field("kind"), empty_s)
    text = pc.coalesce(flat.field("text"), empty_s)
    media = pc.coalesce(flat.field("media_ref"), empty_s)
    is_text = pc.equal(kind, "text").to_numpy(zero_copy_only=False)
    n = len(is_text)
    doc_idx = np.repeat(np.arange(len(n_doc), dtype=np.int64), n_doc)
    within = np.arange(n, dtype=np.int64) - np.repeat(starts, n_doc)
    gm = np.flatnonzero(~is_text)           # media spans, global index
    n_media = len(gm)
    if n_media == 0:
        e_i = pa.array([], type=pa.int64())
        e_s = pa.array([], type=pa.string())
        return pa.table({
            "doc_id": article_batch.column("doc_id").slice(0, 0),
            "offset": e_i, "kind": e_s, "media_ref": e_s,
            "context": e_s, "n_ctx": e_i,
        })
    m_doc = doc_idx[gm]
    m_within = within[gm]
    lo = np.maximum(m_within - k, 0)
    hi = np.minimum(m_within + k, n_doc[m_doc] - 1)
    cnt = hi - lo + 1
    total = int(cnt.sum())
    # candidate WITHIN positions per media span, then back to global
    base = np.repeat(lo, cnt)
    step = np.arange(total, dtype=np.int64) - np.repeat(
        np.concatenate(([0], np.cumsum(cnt)))[:-1], cnt)
    cand_g = np.repeat(starts[m_doc], cnt) + base + step
    seg_id = np.repeat(np.arange(n_media, dtype=np.int64), cnt)
    keep = is_text[cand_g]
    kept_g = cand_g[keep]
    kept_seg = seg_id[keep]
    per_media = np.bincount(kept_seg, minlength=n_media).astype(np.int64)
    list_offs = pa.array(
        np.concatenate(([0], np.cumsum(per_media))).astype(np.int32))
    kept_text = text.take(pa.array(kept_g, type=pa.int64()))
    ctx = pc.binary_join(
        pa.ListArray.from_arrays(list_offs, kept_text), " ")
    take_m = pa.array(gm, type=pa.int64())
    doc_col = article_batch.column("doc_id").combine_chunks()
    return pa.table({
        "doc_id": doc_col.take(pa.array(m_doc, type=pa.int64())),
        "offset": pa.array(m_within, type=pa.int64()),
        "kind": kind.take(take_m),
        "media_ref": media.take(take_m),
        "context": ctx,
        "n_ctx": pa.array(per_media, type=pa.int64()),
    })


def truncate_spans_batch(article_batch, budget: int = 96,
                         media_cost: int = 64) -> "pa.Table":
    """Head-truncate every document to a fixed token ``budget`` over its
    interleaved span sequence — the context-window trim before packing
    (the MMC4/Flamingo move: a training example holds the document HEAD
    that fits the window). Cost model matches `pack_spans_batch`: a
    TEXT span costs its whitespace-token count, a MEDIA span costs
    ``media_cost``.

    Boundary rule: a span is KEPT iff its exclusive prefix cost
    < ``budget`` (same closed-form straddle rule as prefix packing);
    the straddling TEXT span is CLIPPED to the remaining
    ``budget − prefix`` tokens (a straddling media span stays whole —
    patches are atomic). Closed-form, SQL-replayable with one window
    SUM; zero shuffle.

    Fully vectorized incl. the clip: whitespace-split → token ListArray
    rebuilt with per-span ``min(n_tok, remaining)`` offsets → ONE
    ``pc.binary_join``. Output one row per KEPT span: (doc_id, offset,
    kind, text, media_ref, cost) with cost = tokens kept (text) or
    media_cost.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    spans = article_batch.column("spans").combine_chunks()
    offsets = spans.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    starts = offsets[:-1] - offsets[0]
    n_doc = np.diff(offsets).astype(np.int64)
    flat = spans.flatten()
    empty_s = pa.scalar("", type=pa.string())
    kind = pc.coalesce(flat.field("kind"), empty_s)
    text = pc.coalesce(flat.field("text"), empty_s)
    media = pc.coalesce(flat.field("media_ref"), empty_s)
    is_text = pc.equal(kind, "text").to_numpy(zero_copy_only=False)
    n = len(is_text)
    doc_idx = np.repeat(np.arange(len(n_doc), dtype=np.int64), n_doc)
    within = np.arange(n, dtype=np.int64) - np.repeat(starts, n_doc)
    tok = pc.count_substring_regex(text, r"\S+").to_numpy(
        zero_copy_only=False).astype(np.int64)
    tok = np.where(is_text, tok, 0)
    cost = np.where(is_text, tok, np.int64(media_cost))
    cum = np.concatenate(([0], np.cumsum(cost, dtype=np.int64)))
    # cum[starts] is ndocs-long even when every doc is empty, so the
    # repeat is always length-matched to n_doc
    excl = cum[:-1] - np.repeat(cum[starts], n_doc)
    keep = excl < np.int64(budget)
    remaining = np.int64(budget) - excl
    kept = np.flatnonzero(keep)
    k_text = is_text[kept]
    clip_n = np.where(k_text, np.minimum(tok[kept], remaining[kept]), 0)
    # rebuild clipped texts: whitespace-split tokens, take first clip_n
    take_kept = pa.array(kept, type=pa.int64())
    # trim first: utf8_split_whitespace merges INTERNAL whitespace runs
    # but emits empty tokens at leading/trailing whitespace, which would
    # desync the token lists from the \S+ cost counts above (a
    # leading-space straddler would keep '' instead of its first word)
    toks = pc.utf8_split_whitespace(
        pc.utf8_trim_whitespace(text.take(take_kept)))
    toff = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    tstart = toff[:-1] - toff[0]
    new_offs = pa.array(np.concatenate(
        ([0], np.cumsum(clip_n))).astype(np.int32))
    idx_base = np.repeat(tstart, clip_n)
    idx_step = np.arange(int(clip_n.sum()), dtype=np.int64) - np.repeat(
        np.concatenate(([0], np.cumsum(clip_n)))[:-1], clip_n)
    flat_toks = toks.flatten().take(
        pa.array(idx_base + idx_step, type=pa.int64()))
    clipped = pc.binary_join(
        pa.ListArray.from_arrays(new_offs, flat_toks), " ")
    # only the straddling span is rewritten; an under-budget text span
    # passes through byte-identical (whitespace untouched)
    need_clip = k_text & (clip_n < tok[kept])
    out_text = pc.if_else(pa.array(need_clip), clipped,
                          text.take(take_kept))
    out_cost = np.where(k_text, clip_n, cost[kept])
    doc_col = article_batch.column("doc_id").combine_chunks()
    return pa.table({
        "doc_id": doc_col.take(pa.array(doc_idx[kept], type=pa.int64())),
        "offset": pa.array(within[kept], type=pa.int64()),
        "kind": kind.take(take_kept),
        "text": out_text,
        "media_ref": media.take(take_kept),
        "cost": pa.array(out_cost, type=pa.int64()),
    })


def span_fingerprint_batch(article_batch,
                           mask_media: bool = True) -> "pa.Table":
    """64-bit content fingerprint of each document's NORMALIZED span
    sequence — the interleaved-payload analog of a full-text dedup
    hash (two text-identical docs whose span STRUCTURE differs — an
    extra leading image, a different alt — are different content, and
    a text-level hash cannot see that).

    Canonical form: ``normalize_spans_batch`` output order, each span
    rendered ``kind + chr(31) + text`` (``media_ref`` MASKED by
    default — identical prose/structure with re-hosted asset URLs is
    the same content; pass ``mask_media=False`` to make asset identity
    significant), spans joined with chr(30), md5 → first 15 hex digits
    → int64 (the SQL oracle replays the identical hash, so parity
    survives even a collision). Docs whose every span normalizes away
    emit no row. Per-block kernel: one vectorized render + one md5 per
    DOCUMENT; only (doc_id, span_fp) leaves the block. Output:
    (doc_id, span_fp).
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from .functions.dedup import _md5_key

    flat = normalize_spans_batch(article_batch)
    n = flat.num_rows
    if n == 0:
        return pa.table({
            "doc_id": pa.array(
                [], type=article_batch.column("doc_id").type),
            "span_fp": pa.array([], type=pa.int64()),
        })
    doc = flat.column("doc_id").combine_chunks()
    kind = flat.column("kind").combine_chunks()
    text = flat.column("text").combine_chunks()
    if mask_media:
        piece = pc.binary_join_element_wise(kind, text, "\x1f")
    else:
        piece = pc.binary_join_element_wise(
            kind, text, flat.column("media_ref").combine_chunks(),
            "\x1f")
    # normalize output is doc-contiguous in offset order (its contract)
    dnp = doc.to_numpy(zero_copy_only=False)
    newdoc = np.empty(n, dtype=bool)
    newdoc[0] = True
    newdoc[1:] = dnp[1:] != dnp[:-1]
    starts = np.flatnonzero(newdoc)
    bounds = np.concatenate((starts, [n]))
    lists = pa.ListArray.from_arrays(
        pa.array(bounds, type=pa.int32()), piece)
    canon = pc.binary_join(lists, "\x1e").to_pylist()
    fps = [_md5_key(c) for c in canon]
    return pa.table({
        "doc_id": doc.take(pa.array(starts, type=pa.int64())),
        "span_fp": pa.array(fps, type=pa.int64()),
    })


def render_flat_spans(flat, sentinel: str = "<image>") -> "pa.Table":
    """Render a FLAT normalized span table (`normalize_spans_batch`
    output: doc-contiguous rows in offset order — the contract; call
    both inside ONE map_batches so a document never straddles a batch
    boundary) into one training string per document: text spans emit
    their text, media spans emit the ``sentinel`` token, joined with
    single spaces — the MMC4/Flamingo final render between curation
    and tokenization.

    Fully vectorized: doc boundaries via ONE adjacent not_equal, ragged
    regroup via ListArray offsets, ONE binary_join; token/image counts
    via ``np.add.reduceat``. Output one row per document: (doc_id,
    rendered, n_text_tokens, n_images).
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    n = flat.num_rows
    doc = flat.column("doc_id").combine_chunks()
    if n == 0:
        return pa.table({
            "doc_id": doc,
            "rendered": pa.array([], type=pa.string()),
            "n_text_tokens": pa.array([], type=pa.int64()),
            "n_images": pa.array([], type=pa.int64()),
        })
    is_text = pc.equal(flat.column("kind"), "text")
    piece = pc.if_else(is_text, flat.column("text"),
                       pa.scalar(sentinel, type=pa.string()))
    chg = np.ones(n, dtype=bool)
    if n > 1:
        chg[1:] = pc.not_equal(doc.slice(1), doc.slice(0, n - 1)) \
            .to_numpy(zero_copy_only=False)
    starts = np.flatnonzero(chg)
    list_offs = pa.array(np.append(starts, n).astype(np.int32))
    rendered = pc.binary_join(
        pa.ListArray.from_arrays(list_offs, piece.combine_chunks()), " ")
    it = is_text.to_numpy(zero_copy_only=False)
    tok = pc.count_substring_regex(
        pc.coalesce(flat.column("text"),
                    pa.scalar("", type=pa.string())),
        r"\S+").to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table({
        "doc_id": doc.take(pa.array(starts, type=pa.int64())),
        "rendered": rendered,
        "n_text_tokens": pa.array(
            np.add.reduceat(np.where(it, tok, 0), starts),
            type=pa.int64()),
        "n_images": pa.array(
            np.add.reduceat((~it).astype(np.int64), starts),
            type=pa.int64()),
    })
