"""Span codec tests: assemble/chunk round-trip + flattener semantics."""

from smartreader_ray.dom import parse_html
from smartreader_ray.spanio import (
    assemble_html,
    flatten_element,
    flatten_html,
    html_to_spans,
    spans_equal,
)


def test_chunk_roundtrip():
    html = "<html><body>" + "x" * 200_000 + "</body></html>"
    spans = html_to_spans(html, chunk_size=64 * 1024)
    assert len(spans) == 4
    assert [s["offset"] for s in spans] == [0, 1, 2, 3]
    assert assemble_html(spans) == html


def test_assemble_sorts_by_offset_and_skips_media():
    spans = [
        {"kind": "html", "text": "b", "media_ref": "", "offset": 1},
        {"kind": "media", "text": "", "media_ref": "m.png", "offset": 2},
        {"kind": "html", "text": "a", "media_ref": "", "offset": 0},
    ]
    assert assemble_html(spans) == "ab"


def test_flatten_interleaves_text_and_media():
    doc = parse_html(
        "<body><div><p>one two</p>"
        '<img src="i.png" alt="pic"><p>three</p>'
        '<iframe src="https://player.example/e"></iframe></div></body>'
    )
    spans = flatten_element(doc.body)
    kinds = [s["kind"] for s in spans]
    assert kinds == ["text", "image", "text", "embed"]
    assert spans[0]["text"] == "one two"
    assert spans[1]["media_ref"] == "i.png"
    assert spans[1]["text"] == "pic"
    assert [s["offset"] for s in spans] == [0, 1, 2, 3]


def test_flatten_collapses_whitespace_and_drops_empty():
    spans = flatten_html("<div>  a \n b  </div><div>   </div>")
    assert len(spans) == 1
    assert spans[0]["text"] == "a b"


def test_spans_equal():
    a = flatten_html("<p>x</p><img src='u'>")
    b = flatten_html("<div><p>x</p></div><img src='u'>")  # same flattened view
    assert spans_equal(a, b)
    c = flatten_html("<p>y</p><img src='u'>")
    assert not spans_equal(a, c)


def test_caption_pairs_rules():
    import pyarrow as pa

    from smartreader_ray.spanio import caption_pairs_batch, make_span

    spans = [
        make_span("image", "", "lead.png", 0),        # next (no prev)
        make_span("text", "alpha", "", 1),
        make_span("image", "my alt", "alt.png", 2),   # own alt wins
        make_span("text", "beta", "", 3),
        make_span("image", "", "tie.png", 4),         # tie: prev wins
        make_span("text", "gamma", "", 5),
        make_span("text", "   ", "", 6),              # blank text ignored
        make_span("image", "", "far.png", 7),         # prev=gamma d=2
        make_span("image", "", "", 8),                # no ref -> skipped
    ]
    lonely = [make_span("image", "", "only.png", 0)]  # none
    batch = pa.table({
        "doc_id": pa.array([1, 2], type=pa.int64()),
        "spans": pa.array([spans, lonely]),
    })
    rows = {r["media_ref"]: r
            for r in caption_pairs_batch(batch).to_pylist()}
    assert len(rows) == 5
    assert rows["lead.png"] == {
        "doc_id": 1, "media_ref": "lead.png", "kind": "image",
        "offset": 0, "caption": "alpha", "caption_src": "next",
        "distance": 1}
    assert (rows["alt.png"]["caption"], rows["alt.png"]["caption_src"],
            rows["alt.png"]["distance"]) == ("my alt", "alt", 0)
    assert (rows["tie.png"]["caption"],
            rows["tie.png"]["caption_src"]) == ("beta", "prev")
    assert (rows["far.png"]["caption"],
            rows["far.png"]["distance"]) == ("gamma", 2)
    assert (rows["only.png"]["caption_src"],
            rows["only.png"]["distance"]) == ("none", -1)


def test_caption_pairs_on_real_extraction():
    """End-to-end on real markup: flatten -> pair uses the img alt."""
    import pyarrow as pa

    from smartreader_ray.spanio import caption_pairs_batch, flatten_html

    spans = flatten_html(
        "<div><p>intro paragraph</p>"
        "<img src='a.png' alt='a chart'>"
        "<p>middle text</p><img src='b.png'>"
        "<p>closing text</p></div>")
    batch = pa.table({
        "doc_id": pa.array(["d1"]),
        "spans": pa.array([spans]),
    })
    rows = {r["media_ref"]: r
            for r in caption_pairs_batch(batch).to_pylist()}
    assert rows["a.png"]["caption_src"] == "alt"
    assert rows["a.png"]["caption"] == "a chart"
    assert rows["b.png"]["caption_src"] in ("prev", "next")
    assert rows["b.png"]["caption"] in ("middle text", "closing text")
    assert rows["b.png"]["doc_id"] == "d1"  # string doc ids preserved


def test_interleave_stats_vectorized_matches_naive():
    """interleave_stats_batch == a per-row Python reference, including
    doc-boundary masking, empty docs, and sliced batches."""
    import pyarrow as pa

    from smartreader_ray.spanio import interleave_stats_batch, make_span

    def doc(kinds):
        return [make_span(k, "t" if k == "text" else "",
                          "" if k == "text" else "m.png", i)
                for i, k in enumerate(kinds)]

    docs = [
        ["text", "image", "text", "text", "image"],  # 4 alternations? t/i,i/t,t/t,t/i -> 3
        ["image"],                                    # single span, 0 alt
        [],                                           # empty doc
        ["text", "text"],                             # 0 alt
        ["image", "text", "image", "text"],           # 3 alt
    ]
    batch = pa.table({
        "doc_id": pa.array(list(range(len(docs))), type=pa.int64()),
        "spans": pa.array([doc(k) for k in docs],
                          type=pa.list_(pa.struct([
                              ("kind", pa.string()),
                              ("text", pa.string()),
                              ("media_ref", pa.string()),
                              ("offset", pa.int64()),
                          ]))),
    })

    def naive(kinds):
        it = [k == "text" for k in kinds]
        alt = sum(1 for a, b in zip(it, it[1:]) if a != b)
        return (len(kinds), sum(it), len(kinds) - sum(it), alt)

    for sl in (batch, batch.slice(1), batch.slice(2, 2)):
        out = {r["doc_id"]: r for r in
               interleave_stats_batch(sl).to_pylist()}
        ids = sl.column("doc_id").to_pylist()
        assert set(out) == set(ids)
        for did in ids:
            ns, nt, nm, na = naive(docs[did])
            r = out[did]
            assert (r["n_spans"], r["n_text"], r["n_media"],
                    r["n_alt"]) == (ns, nt, nm, na), did


def test_pack_spans_vectorized_matches_naive():
    """pack_spans_batch == a per-row Python replay of the prefix-packing
    rule, including doc boundaries, empty docs, sliced batches, and a
    span overflowing the budget."""
    import pyarrow as pa

    from smartreader_ray.spanio import make_span, pack_spans_batch

    BUDGET, MCOST = 10, 4

    def span(kind, ntok):
        if kind == "text":
            return make_span("text", " ".join(["w"] * ntok), "", 0)
        return make_span("image", "", "m.png", 0)

    docs = [
        [("text", 3), ("image", 0), ("text", 6), ("text", 12),
         ("image", 0), ("text", 1)],        # crosses budgets, overflow span
        [("image", 0)],                      # single media
        [],                                  # empty doc
        [("text", 25)],                      # one span >> budget
        [("text", 2), ("text", 2), ("image", 0), ("image", 0),
         ("text", 5)],
    ]
    batch = pa.table({
        "doc_id": pa.array(list(range(len(docs))), type=pa.int64()),
        "spans": pa.array(
            [[span(k, n) for k, n in d] for d in docs],
            type=pa.list_(pa.struct([
                ("kind", pa.string()),
                ("text", pa.string()),
                ("media_ref", pa.string()),
                ("offset", pa.int64()),
            ]))),
    })

    def naive(d):
        out, run = {}, 0
        for k, n in d:
            cost = n if k == "text" else MCOST
            s = run // BUDGET
            run += cost
            ns, nt, nm, c = out.get(s, (0, 0, 0, 0))
            out[s] = (ns + 1, nt + (n if k == "text" else 0),
                      nm + (0 if k == "text" else 1), c + cost)
        return out

    for sl in (batch, batch.slice(1), batch.slice(2, 2)):
        res = pack_spans_batch(sl, budget=BUDGET, media_cost=MCOST)
        got = {}
        for r in res.to_pylist():
            got.setdefault(r["doc_id"], {})[r["seq_idx"]] = (
                r["n_spans"], r["n_text_tokens"], r["n_media"], r["cost"])
        ids = sl.column("doc_id").to_pylist()
        exp = {d: naive(docs[d]) for d in ids if docs[d]}
        assert got == exp


def _mk_span_batch(docs, ids=None):
    """docs: list of list[(kind, text, media_ref)] → (doc_id, spans)."""
    import pyarrow as pa

    ids = ids if ids is not None else list(range(len(docs)))
    return pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "spans": pa.array(
            [[{"kind": k, "text": t, "media_ref": m, "offset": i}
              for i, (k, t, m) in enumerate(d)] for d in docs],
            type=pa.list_(pa.struct([
                ("kind", pa.string()),
                ("text", pa.string()),
                ("media_ref", pa.string()),
                ("offset", pa.int64()),
            ]))),
    })


def test_normalize_spans_merges_and_drops():
    from smartreader_ray.spanio import normalize_spans_batch

    docs = [
        # run of 3 texts (one empty) around an image → 2 rows
        [("text", "a b", ""), ("text", "  ", ""), ("text", "c", ""),
         ("image", " alt ", "img://1"), ("text", "d", "")],
        # all-empty doc → no rows
        [("text", "", ""), ("text", "   ", "")],
        # media-only doc passes through
        [("image", "", "img://2"), ("image", "x", "img://3")],
    ]
    out = normalize_spans_batch(_mk_span_batch(docs)).to_pylist()
    got = [(r["doc_id"], r["offset"], r["kind"], r["text"], r["media_ref"])
           for r in out]
    assert got == [
        (0, 0, "text", "a b c", ""),
        (0, 1, "image", "alt", "img://1"),
        (0, 2, "text", "d", ""),
        (2, 0, "image", "", "img://2"),
        (2, 1, "image", "x", "img://3"),
    ]
    # sliced batch (non-zero list offsets) gives the same rows
    sl = normalize_spans_batch(_mk_span_batch(docs).slice(2)).to_pylist()
    assert [(r["doc_id"], r["offset"]) for r in sl] == [(2, 0), (2, 1)]


def test_modality_runs_rollup():
    from smartreader_ray.spanio import modality_runs_batch

    docs = [
        # T T M M M T  → runs: T(2) M(3) T(1)
        [("text", "a", ""), ("text", "b", ""), ("image", "", "m1"),
         ("image", "", "m2"), ("video", "", "m3"), ("text", "c", "")],
        # single media run
        [("image", "", "m4")],
    ]
    out = {r["doc_id"]: r for r in
           modality_runs_batch(_mk_span_batch(docs)).to_pylist()}
    assert out[0] == {"doc_id": 0, "n_runs": 3, "n_text_runs": 2,
                      "n_media_runs": 1, "max_text_run": 2,
                      "max_media_run": 3}
    assert out[1] == {"doc_id": 1, "n_runs": 1, "n_text_runs": 0,
                      "n_media_runs": 1, "max_text_run": 0,
                      "max_media_run": 1}


def test_span_diff_classifies_first_mismatch():
    import pyarrow as pa

    from smartreader_ray.spanio import span_diff_batch

    a_docs = [
        [("text", "a", ""), ("text", "b", "")],          # equal
        [("text", "a", ""), ("image", "x", "m")],        # kind mismatch @1
        [("text", "a", ""), ("text", "b", "")],          # text mismatch @1
        [("image", "x", "m1")],                          # media_ref @0
        [("text", "a", ""), ("text", "b", "")],          # prefix → length @1
        [],                                              # both empty → equal
    ]
    b_docs = [
        [("text", "a", ""), ("text", "b", "")],
        [("text", "a", ""), ("text", "x", "")],
        [("text", "a", ""), ("text", "B", "")],
        [("image", "x", "m2")],
        [("text", "a", "")],
        [],
    ]
    ta = _mk_span_batch(a_docs)
    tb = _mk_span_batch(b_docs)
    batch = pa.table({
        "doc_id": ta.column("doc_id"),
        "spans_a": ta.column("spans"),
        "spans_b": tb.column("spans"),
    })
    out = {r["doc_id"]: r for r in span_diff_batch(batch).to_pylist()}
    exp = {
        0: (True, -1, ""),
        1: (False, 1, "kind"),
        2: (False, 1, "text"),
        3: (False, 0, "media_ref"),
        4: (False, 1, "length"),
        5: (True, -1, ""),
    }
    for did, (eq, fm, fld) in exp.items():
        r = out[did]
        assert (r["equal"], r["first_mismatch"], r["mismatch_field"]) == \
            (eq, fm, fld), (did, r)
    assert out[4]["n_a"] == 2 and out[4]["n_b"] == 1


def test_media_context_window():
    from smartreader_ray.spanio import media_context_batch

    docs = [
        [("text", "t0", ""), ("image", "", "m0"), ("text", "t2", ""),
         ("text", "t3", ""), ("image", "", "m4")],
        [("image", "", "m5")],                       # no text at all
        [("text", "a", ""), ("text", "b", "")],      # no media -> no rows
    ]
    out = media_context_batch(_mk_span_batch(docs), k=2).to_pylist()
    got = [(r["doc_id"], r["offset"], r["media_ref"], r["context"],
            r["n_ctx"]) for r in out]
    assert got == [
        (0, 1, "m0", "t0 t2 t3", 3),
        (0, 4, "m4", "t2 t3", 2),
        (1, 0, "m5", "", 0),
    ]
    # sliced batch (non-zero list offsets) gives the same windows
    sl = media_context_batch(_mk_span_batch(docs).slice(1), k=2).to_pylist()
    assert [(r["doc_id"], r["media_ref"]) for r in sl] == [(1, "m5")]


def test_truncate_spans_budget_clip():
    from smartreader_ray.spanio import truncate_spans_batch

    docs = [
        # costs 3, 64, 5; budget 68: prefixes 0, 3, 67 -> all kept,
        # straddling text clipped to 1 token
        [("text", "a b c", ""), ("image", "alt", "m1"),
         ("text", "d e f g h", "")],
        # straddling MEDIA stays whole (prefix 64 < 68)
        [("image", "", "m2"), ("image", "", "m3"), ("image", "", "m4")],
        # fully under budget -> untouched
        [("text", "x y", ""), ("text", "z w q", "")],
    ]
    out = truncate_spans_batch(_mk_span_batch(docs), budget=68).to_pylist()
    got = [(r["doc_id"], r["offset"], r["kind"], r["text"],
            r["media_ref"], r["cost"]) for r in out]
    assert got == [
        (0, 0, "text", "a b c", "", 3),
        (0, 1, "image", "alt", "m1", 64),
        (0, 2, "text", "d", "", 1),
        (1, 0, "image", "", "m2", 64),
        (1, 1, "image", "", "m3", 64),
        (2, 0, "text", "x y", "", 2),
        (2, 1, "text", "z w q", "", 3),
    ]
    # doc 1's third image has prefix 128 >= 68 -> dropped
    assert not any(r["media_ref"] == "m4" for r in out)
    # sliced batch consistency
    sl = truncate_spans_batch(_mk_span_batch(docs).slice(2),
                              budget=68).to_pylist()
    assert [(r["doc_id"], r["text"]) for r in sl] == \
        [(2, "x y"), (2, "z w q")]


def test_render_flat_spans_sentinel():
    import pyarrow as pa

    from smartreader_ray.spanio import (normalize_spans_batch,
                                        render_flat_spans)

    docs = [
        [("text", "a b", ""), ("image", "alt", "m1"), ("text", "c", ""),
         ("text", "d", "")],
        [("image", "", "m2")],
        [("text", "  ", "")],     # normalizes to nothing -> no row
    ]
    out = render_flat_spans(
        normalize_spans_batch(_mk_span_batch(docs))).to_pylist()
    assert out == [
        {"doc_id": 0, "rendered": "a b <image> c d",
         "n_text_tokens": 4, "n_images": 1},
        {"doc_id": 1, "rendered": "<image>",
         "n_text_tokens": 0, "n_images": 1},
    ]
    # empty input
    empty = render_flat_spans(
        normalize_spans_batch(_mk_span_batch([])))
    assert empty.num_rows == 0


def test_fixture_span_parity_query(ray_session, reference_fixtures):
    """North-rule acceptance check as a query: extraction output vs
    expected.html under span-sequence equality, all fixtures equal."""
    import __ray_entry__ as entrymod

    df = entrymod.queries()["fixture_span_parity"](
        "/root/testdata/sf0.001").to_pandas()
    assert len(df) == 40
    assert bool(df["equal"].all())
    assert (df["first_mismatch"] == -1).all()
    assert (df["mismatch_field"] == "").all()
