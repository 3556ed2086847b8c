"""In-repo extraction golden: a REGRESSION gate, not reference parity.

The hashes in ``golden/extraction_golden.json`` were produced by this
engine's own code, not by the reference implementation, so a green run
says only "the output did not move". Byte parity with the reference is
``test_fixture_parity.py``'s job, and it runs only where the reference
pages exist; this file guards the per-document chain everywhere else.

Inputs: a seeded ``synthetic_corpus_table`` slice plus inline micro-pages,
one per whitespace rule of the plaintext/collapse/letter-count kernels
and one per inline-writable FIXTURES.md F2/F4 bucket. Each document gets
one sha256 per field in ``FIELDS``.

Regenerate only on purpose, after checking the new output is right
(ideally on a host where the reference-fixture gate passes):

    python tests/test_extraction_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pyarrow as pa

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from smartreader_ray.sources import synthetic_corpus_table  # noqa: E402
from smartreader_ray.spanio import assemble_html  # noqa: E402
from smartreader_ray.stages.extract import ExtractBatch  # noqa: E402

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden", "extraction_golden.json")

FIELDS = ("text_content", "spans", "title", "byline", "length", "time_to_read_s")

SYNTH_DOCS = 12
SYNTH_SEED = 5

_FILL = (
    "The committee met on Tuesday to review the quarterly figures, and the "
    "discussion ran well past the scheduled hour because several members "
    "wanted to revisit the assumptions behind the forecast, which had been "
    "drafted before the latest survey results were available to anyone."
)


def _page(body: str, title: str = "Golden micro page about whitespace rules",
          head: str = "", html_attrs: str = ' lang="en"') -> str:
    return (
        f"<html{html_attrs}><head><title>{title}</title>{head}</head><body>"
        f"<article>{body}<p>{_FILL}</p><p>{_FILL}</p></article></body></html>"
    )


#: astral punctuation (U+10100, Po) and an astral letter (U+1D400, Lu):
#: each is 2 UTF-16 units, so both count 2 letters. The padding puts the
#: article's letter count exactly on a minute boundary of the English
#: rate (987/min), so time_to_read_s moves if either weight changes.
_ASTRAL = "\U00010100" * 40 + " " + "\U0001d400" * 10

MICRO_PAGES = {
    "ws-nbsp-runs": _page(
        "<p>alpha\xa0\xa0\xa0beta \xa0 gamma&nbsp;&nbsp; delta&nbsp;</p>"
        "<p>\xa0\xa0lead nbsp and trail nbsp\xa0\xa0</p>"),
    "ws-ideographic-runs": _page(
        "<p>\u6771\u4eac\u3000\u3000\u3000\u5927\u962a \u3000 \u4eac\u90fd"
        "\u2003\u2003end\u205f\u1680\u202f mixed Z spaces\u3000</p>"),
    "ws-br-runs": _page(
        "<div>one<br>two<br><br>three<br><br><br><br>four<br> <br>five"
        "<br>\n<br>\n\n<br>six</div>"),
    "ws-tab-before-newline": _page(
        "<p>a\t\t\nb c \t \n d\t\te\t</p><pre>x\t\t\ny\t z\n\t\tw</pre>"),
    "ws-crlf": _page(
        "<p>line one\r\nline two&#13;\n line three \r\n\r\n\r\n\r\nline four"
        "\r\rfive \r six</p>"),
    # each page has one kind of droppable space only
    "ws-space-before-cr": _page("<p>space before \rcarriage return</p>"),
    "ws-space-after-cr": _page("<p>carriage return\r then space</p>"),
    "ws-space-before-lf": _page("<p>space before \nline feed</p>"),
    "ws-double-space": _page("<p>two  spaces</p>"),
    "ws-blank-lines": _page(
        "<pre>a\n\n\nb\n\n\n\nc\r\n\r\n\r\nd\n \n \n e\n\n\n\n\n\nf</pre>"
        "<p>after</p><p></p><p> </p><p>\n\n\n</p><p>end</p>"),
    "ws-spaces-after-p": _page(
        "<p>   three leading spaces</p><p> \xa0 nbsp lead</p>"
        "<p>trailing   </p><p>\u3000ideographic lead</p>"),
    "ws-other-controls": _page(
        "<p>form\x0cfeed vt\x0bx nel\x85y ls\u2028ps\u2029end"
        "\u2028 \u2029\nz</p>"),
    "ttr-astral-punct": _page(
        f"<p>{_ASTRAL}</p><p>{'letters ' * 201}abcdefghi</p>"),
    "f2-rtl": _page(
        "<p>זהו מאמר בעברית עם מספיק טקסט כדי להיחשב כתוכן קריא ולא כתפריט "
        "ניווט, והוא ממשיך עוד קצת.</p>",
        title="כותרת המאמר בעברית", html_attrs=' dir="rtl" lang="he"'),
    "f2-data-table": _page(
        "<table><caption>Quarterly results</caption><thead><tr><th>Q</th>"
        "<th>Revenue</th></tr></thead><tbody><tr><td>Q1</td><td>10</td></tr>"
        "<tr><td>Q2</td><td>12</td></tr></tbody></table>"),
    "f2-lazy-image-srcset": _page(
        '<p>figure below</p><img data-src="/img/lazy.jpg" '
        'src="data:image/gif;base64,R0lGODlhAQABAAAAACw=">'
        '<img srcset="/img/b-1x.jpg 1x, /img/b-2x.jpg 2x" alt="srcset">'
        '<picture><source srcset="/img/c.webp"><img src="/img/c.jpg"></picture>'),
    "f2-jsonld-author": _page(
        "<p>structured data page</p>",
        head='<script type="application/ld+json">{"@context":"https://schema.org",'
             '"@type":"NewsArticle","headline":"JSON-LD headline for golden",'
             '"author":{"@type":"Person","name":"Ada Lovelace"}}</script>'),
    "f2-byline": _page(
        '<p class="byline">By Grace Hopper</p><p>body text follows</p>'),
    "f2-base-url": _page(
        '<p>see <a href="../other/page.html">the other page</a> and '
        '<a href="#frag">a fragment</a></p><img src="pics/one.png">',
        head='<base href="https://example.com/sub/dir/">'),
    "f2-hidden-aria": _page(
        '<div style="display:none">hidden by style</div>'
        '<div aria-hidden="true">hidden by aria</div>'
        '<p hidden>hidden attribute</p><p>visible text</p>'),
    "f4-title-en-dash": _page(
        "<p>title cleaning</p>",
        title="An Article With A Long Enough Title \u2013 Site Name"),
    "f4-title-colon": _page(
        "<p>title colon</p>",
        title="Site: The Very Real Interesting Title Here"),
    # a subtree removed between two tag passes of one prep walk: the form
    # goes in the form pass, before the table, ul and div passes reach the
    # nodes inside it; the aside goes in _clean, before _clean_headers
    "mut-form-holds-table-ul-div": _page(
        '<p>intro text</p><form class="widget"><table><tr><td>cell one</td>'
        '<td>cell two</td></tr></table><ul><li><p>first item</p></li>'
        '<li>second item</li></ul><div class="promo">inner div text</div>'
        '</form><p>outro text</p>'),
    # a noscript image unwrapped over a font-wrapped image brings a new
    # font into the document before the font pass; as a span it is
    # phrasing content, so the div's text stays one paragraph
    "mut-noscript-font-image": _page(
        '<div>intro words <font><img src="/img/low.jpg"></font>'
        '<noscript><font><img src="/img/high.jpg"></font></noscript>'
        ' outro words</div>'),
    "mut-aside-holds-headers": _page(
        '<p>intro text</p><aside><h2 class="widget">Aside heading one</h2>'
        '<p>aside text</p><h1 class="widget">Aside heading two</h1></aside>'
        '<h2>Kept heading</h2><p>outro text</p>'),
}


def golden_inputs() -> pa.Table:
    """The golden's input documents as one ``doc_id``/``html`` table."""
    synth = synthetic_corpus_table(SYNTH_DOCS, seed=SYNTH_SEED)
    ids = synth.column("doc_id").to_pylist() + list(MICRO_PAGES)
    htmls = [assemble_html(s) for s in synth.column("spans").to_pylist()]
    htmls += list(MICRO_PAGES.values())
    return pa.table({"doc_id": ids, "html": htmls})


def _sha256(value) -> str:
    blob = json.dumps(value, ensure_ascii=False, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _digests(tables) -> dict:
    """``{doc_id: {field: sha256}}`` of extracted article tables."""
    out = {}
    for table in tables:
        for row in table.select(["doc_id", *FIELDS]).to_pylist():
            out[row["doc_id"]] = {f: _sha256(row[f]) for f in FIELDS}
    return out


def golden_digests() -> dict:
    """``{doc_id: {field: sha256}}`` of the current code's output."""
    return _digests(ExtractBatch()(golden_inputs()))


def _assert_golden(got: dict) -> None:
    with open(GOLDEN_PATH, encoding="utf-8") as f:
        golden = json.load(f)
    assert sorted(got) == sorted(golden)
    moved = [f"{doc}.{field}" for doc in sorted(golden)
             for field in FIELDS if got[doc][field] != golden[doc][field]]
    assert not moved, f"extraction output moved: {moved}"


def test_extraction_golden():
    _assert_golden(golden_digests())


def test_extraction_golden_through_pipeline(ray_session):
    """The same hashes from the Ray pipeline's extraction tasks, with the
    largest doc past the size threshold so its output ships on its own."""
    import ray.data

    from smartreader_ray.pipelines import build_extraction_pipeline

    inputs = golden_inputs()
    sizes = [len(h) for h in inputs.column("html").to_pylist()]
    threshold = max(sizes)  # the largest doc is oversized, the rest are not
    assert min(sizes) < threshold
    out = build_extraction_pipeline(ray.data.from_arrow(inputs),
                                    batch_size=16, size_threshold=threshold)
    _assert_golden(_digests(out.iter_batches(batch_format="pyarrow",
                                             batch_size=None)))


#: subtree element walks (calls of the two DOM walk primitives) that
#: extracting ``golden_inputs()`` takes, 37 documents: 11.4 per document,
#: where each phase of the chain walks its subtree once and takes its
#: tag passes from the lists (39.3 when each pass walked on its own). A
#: new walk at any call site moves a count.
WALKS = {"collect_by_tag": 385, "iter_elements": 37}


def test_walk_census(monkeypatch):
    from collections import Counter

    from smartreader_ray.dom.node import ParentNode

    counts = Counter()
    for name in WALKS:
        walk = getattr(ParentNode, name)

        def counted(self, *args, _walk=walk, _name=name):
            counts[_name] += 1
            return _walk(self, *args)

        monkeypatch.setattr(ParentNode, name, counted)
    inputs = golden_inputs()
    list(ExtractBatch()(inputs))
    assert dict(counts) == WALKS, (
        f"{sum(counts.values()) / inputs.num_rows:.1f} walks per document: {dict(counts)}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as f:
        json.dump(golden_digests(), f, indent=1, sort_keys=True)
        f.write("\n")
