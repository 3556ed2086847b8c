"""DOM layer: parser tree shapes, serializer conventions, selectors."""

from smartreader_ray.dom import (
    Element,
    element_matches,
    inner_html,
    parse_html,
    query_selector,
    query_selector_all,
)


def test_basic_structure():
    doc = parse_html("<html><head><title>T</title></head><body><p>x</p></body></html>")
    assert doc.body is not None
    assert doc.head is not None
    assert doc.title == "T"
    assert [e.tag for e in doc.body.children] == ["P"]


def test_implied_p_close_and_li():
    doc = parse_html("<body><p>one<p>two<ul><li>a<li>b</ul></body>")
    body = doc.body
    assert [e.tag for e in body.children] == ["P", "P", "UL"]
    ul = body.children[2]
    assert [e.tag for e in ul.children] == ["LI", "LI"]
    assert ul.children[0].text_content == "a"


def test_table_synthesis_and_foster():
    doc = parse_html("<body><table>oops<tr><td>cell</table></body>")
    body = doc.body
    # non-space text inside table fosters before it
    assert body.text_content.startswith("oops")
    table = body.get_elements_by_tag_name("table")[0]
    assert table.get_elements_by_tag_name("tbody")
    assert table.get_elements_by_tag_name("td")[0].text_content == "cell"


def test_nested_dl_not_collapsed():
    doc = parse_html("<body><dl><dd>outer<dl><dd>inner</dd></dl>tail</dd></dl></body>")
    outer_dd = doc.body.get_elements_by_tag_name("dd")[0]
    assert "tail" in outer_dd.text_content
    assert outer_dd.get_elements_by_tag_name("dl")


def test_noscript_is_raw_text():
    doc = parse_html("<body><noscript><img src='x.png'></noscript></body>")
    ns = doc.body.get_elements_by_tag_name("noscript")[0]
    assert not ns.children  # scripting-on: content is text, not elements
    assert "<img" in ns.text_content


def test_misnested_anchor_keeps_blocks_open():
    doc = parse_html(
        "<body><div id=w><a id=a1><div id=inner><a id=a2>x</a></div></a>"
        "<p id=after>y</p></div></body>"
    )
    w = query_selector(doc, "[id=w]")
    assert w is not None
    after = query_selector(doc, "[id=after]")
    assert after.parent_element.id == "w"


def test_serializer_conventions():
    doc = parse_html(
        '<body><p title="a&quot;b">x &amp; y\xa0z &lt;tag&gt;</p><br><img src="u"></body>'
    )
    html = inner_html(doc.body)
    assert html == (
        '<p title="a&quot;b">x &amp; y&nbsp;z &lt;tag&gt;</p><br><img src="u">'
    )


def test_raw_text_serialization():
    doc = parse_html("<body><script>if (a < b) & c</script></body>")
    assert "<script>if (a < b) & c</script>" in inner_html(doc.body)


def test_selectors():
    doc = parse_html(
        '<body><div><br></div><li><p id=inli>x</p></li>'
        '<meta http-equiv="content-language" content="en">'
        '<span rel="Author">r</span></body>'
    )
    assert len(query_selector_all(doc, "div > br")) == 1
    p = query_selector(doc, "[id=inli]")
    assert element_matches(p, "li p")
    # legacy case-insensitive attribute values (http-equiv, rel)
    assert query_selector(doc, 'meta[http-equiv="Content-Language"]') is not None
    assert query_selector(doc, '[rel="author"]') is not None


def test_svg_case_preserved():
    doc = parse_html('<body><svg viewBox="0 0 1 1"><feGaussianBlur stdDeviation="2"/></svg></body>')
    html = inner_html(doc.body)
    assert 'viewBox="0 0 1 1"' in html
    assert "<feGaussianBlur" in html


def test_attribute_lookup_lowercases_the_name():
    """``get_attribute``/``has_attribute`` answer for ``name.lower()``:
    an svg element's camelCase key is out of reach of its own spelling,
    an HTML element's key of any spelling of it."""
    body = parse_html('<body><svg viewBox="0 0 1 1"></svg>'
                      '<div data-X="1" class="c"></div></body>').body
    svg, div = body.children
    for el in (svg, div):
        for name in ("viewBox", "viewbox", "VIEWBOX", "data-x", "data-X",
                     "CLASS", "class", "-", "id"):
            assert el.get_attribute(name) == el.attrs.get(name.lower())
            assert el.has_attribute(name) == (name.lower() in el.attrs)
    assert svg.attrs == {"viewBox": "0 0 1 1"} and svg.get_attribute("viewBox") is None
    assert div.get_attribute("DATA-x") == "1" and div.has_attribute("Class")


def test_entity_decoding_and_pre():
    doc = parse_html("<body><pre>\nkeep  it</pre><p>&euro;&#65;</p></body>")
    pre = doc.body.get_elements_by_tag_name("pre")[0]
    assert pre.text_content == "keep  it"  # leading newline stripped
    p = doc.body.get_elements_by_tag_name("p")[0]
    assert p.text_content == "€A"


def test_mutation_api():
    doc = parse_html("<body><div id=a><span>1</span></div></body>")
    div = query_selector(doc, "[id=a]")
    span = div.children[0]
    p = Element("p")
    div.replace_child(p, span)
    assert span.parent is None
    assert div.children[0].tag == "P"
    div.insert_before(span, p)
    assert [c.tag for c in div.children] == ["SPAN", "P"]


# ---------------------------------------------------------------------------
# fast-tokenizer differential parity vs stdlib html.parser
# ---------------------------------------------------------------------------
class _Rec:
    """Records the handler-event stream (adjacent data merged — the tree
    builder coalesces adjacent text nodes, so chunking is not observable)."""

    from smartreader_ray.dom.parser import _CDATA_ELEMS as CDATA_CONTENT_ELEMENTS

    def __init__(self):
        self.events = []
        self.cdata_elem = None

    def handle_data(self, d):
        if self.events and self.events[-1][0] == "data":
            self.events[-1] = ("data", self.events[-1][1] + d)
        else:
            self.events.append(("data", d))

    def handle_starttag(self, t, a):
        self.events.append(("start", t, tuple(a)))

    def handle_startendtag(self, t, a):
        self.events.append(("startend", t, tuple(a)))

    def handle_endtag(self, t):
        self.events.append(("end", t))

    def handle_comment(self, d):
        self.events.append(("comment", d))

    def handle_decl(self, d):
        self.events.append(("decl", d))

    def handle_pi(self, d):
        self.events.append(("pi", d))

    def unknown_decl(self, d):
        self.events.append(("unknown", d))


def _events_both(text):
    from html.parser import HTMLParser

    from smartreader_ray.dom.tokenizer import tokenize

    class _StdRec(HTMLParser, _Rec):
        CDATA_CONTENT_ELEMENTS = _Rec.CDATA_CONTENT_ELEMENTS

        def __init__(self):
            HTMLParser.__init__(self, convert_charrefs=True)
            self.events = []

        handle_data = _Rec.handle_data
        handle_starttag = _Rec.handle_starttag
        handle_startendtag = _Rec.handle_startendtag
        handle_endtag = _Rec.handle_endtag
        handle_comment = _Rec.handle_comment
        handle_decl = _Rec.handle_decl
        handle_pi = _Rec.handle_pi
        unknown_decl = _Rec.unknown_decl

    std = _StdRec()
    std_exc = fast_exc = None
    try:
        std.feed(text)
        std.close()
    except Exception as e:
        std_exc = type(e).__name__
    fast = _Rec()
    try:
        tokenize(text, fast)
    except Exception as e:
        fast_exc = type(e).__name__
    return (std.events, std_exc), (fast.events, fast_exc)


_DIFF_SNIPPETS = [
    "", "<", "a<", "<>", "< p>", "a < b > c",
    "&amp; &notanentity; &#65; &#x41; &#xg;",
    "<p", "<p ", "<p a", "<p a=", "<p a='x", '<p a="x', "<p a=x", "<p/",
    "<p a=1 b='2' c=\"3\" d>", "<P A=B>", "<p a=b=c>", "<p 'weird'>",
    "<p a = = b>", "<p/>x", "<br/>", "<input type=text/>",
    "</p>", "</ p>", "</>", "</ >", "</123>", "</p attr='x'>", "</p", "</",
    "<!-- comment -->", "<!-- unterminated", "<!--->", "<!---->",
    "<!doctype html>", "<!doctype", "<!bogus stuff>", "<!bogus",
    "<?php echo ?>", "<?pi", "<?>",
    "<![CDATA[ stuff ]]>", "<![CDATA[ unterminated", "<![if !IE]>x<![endif]>",
    "<![", "<![unknownkw]]>",
    "<script>var a = '<p>not a tag</p>';</script>after",
    "<script>unterminated...", "<script></SCRIPT >x",
    "<style>a { content: '</'; }</style>", "<title>a &amp; b</title>",
    "<textarea><p>raw</p></textarea>", "<noscript><img src=x></noscript>",
    "<p>a&nbsp;b&NotAnEntity;c&#160;d</p>", "x &# y", "x &#12",
    "<div class=foo id = bar >text</div>", "<a href='x'>link</a trailing>",
    "<table><p>foster</p><tr><td>c</table>", "<em <strong>>weird</em>",
    "text<\x00null>", "<p \x00attr=1>", "tag soup < 3 > 4 <5",
    "<p title='multi\nline'>", '<p title="a&quot;b">',
    "<!--[if IE]>cond<![endif]-->", "<script src='x'/>after",
    "<iframe>raw <p> text</iframe>tail", "<xmp><p>raw</p></xmp>t",
]


def test_fast_tokenizer_differential_snippets():
    for snip in _DIFF_SNIPPETS:
        (se, sx), (fe, fx) = _events_both(snip)
        assert sx == fx, f"exception mismatch on {snip!r}: {sx} vs {fx}"
        if sx is None:
            assert se == fe, f"event mismatch on {snip!r}"


def test_fast_tokenizer_differential_fixtures(reference_fixtures):
    from smartreader_ray.sources import fixture_names, fixture_spans_table
    from smartreader_ray.spanio import assemble_html

    names = fixture_names()[:15]
    t = fixture_spans_table(names)
    for doc_id, spans in zip(
        t.column("doc_id").to_pylist(), t.column("spans").to_pylist()
    ):
        (se, sx), (fe, fx) = _events_both(assemble_html(spans))
        assert sx is None and fx is None
        assert se == fe, f"event mismatch on fixture {doc_id}"


def test_fast_tokenizer_differential_fuzz():
    import random

    rng = random.Random(7)
    templates = [
        "<div id='a'><p>text &amp; more</p><script>x<y</script>"
        "<!-- c --><table><tr><td>z</td></tr></table></div>",
        "<title>t&amp;</title><textarea>&lt;raw</textarea><style>.a{}</style>",
        "<!--c--><!doctype html><?pi?><![CDATA[x]]><!bogus><p>t</p>",
    ]
    chars = list("<>/!&;='\"-[] abcdeftps#x0123")
    for trial in range(800):
        s = list(rng.choice(templates))
        for _ in range(rng.randint(1, 8)):
            pos = rng.randrange(len(s)) if s else 0
            op = rng.random()
            if op < 0.4 and s:
                s[pos] = rng.choice(chars)
            elif op < 0.7:
                s.insert(pos, rng.choice(chars))
            elif s:
                del s[pos]
        text = "".join(s)
        (se, sx), (fe, fx) = _events_both(text)
        assert sx == fx, f"exception mismatch on fuzz input {text!r}"
        if sx is None:
            assert se == fe, f"event mismatch on fuzz input {text!r}"
