"""Sources: span-table readers and deterministic corpus builders.

The canonical input is the F1 interleaved-span table (parquet here; a
thin seam so Lance can slot in where available — ``read_spans``). Plus:
- ``documents_to_spans``: bridge from the driver's ``documents.parquet``
  (doc_id:int64, text, lang, …) into F1 span docs with an HTML wrapper
  whose extraction output is analytically predictable (→ SQL oracles).
- ``fixture_spans_table``: the 142 reference test pages as one span table.
- ``synthetic_corpus``: seeded heavy-tailed corpus for the bench.
"""

from __future__ import annotations

import html as _html
import os
from typing import Optional

import pyarrow as pa

from ..spanio import html_to_spans

#: the reference's golden test pages: the one place the fixture path is set
FIXTURE_DIR = "/root/reference/src/SmartReaderTests/test-pages"


def read_spans(path: str, **kwargs):
    """Read an F1 span table as a Ray Dataset (parquet; lance if present)."""
    import logging

    import ray.data

    log = logging.getLogger(__name__)
    if path.endswith(".lance") or os.path.isdir(os.path.join(path, "_versions")):
        try:
            ds = ray.data.read_lance(path, **kwargs)
            log.info("read_spans: lance path for %s", path)
            return ds
        except (AttributeError, ImportError) as exc:
            log.warning(
                "read_spans: lance unavailable (%s: %s) — falling back to "
                "parquet for %s", type(exc).__name__, exc, path,
            )
    return ray.data.read_parquet(path, **kwargs)


def write_spans(ds, path: str, **kwargs) -> str:
    """Write a span/article Dataset: Lance when the writer exists in this
    environment, else partitioned parquet (same logical table either
    way — the north rule's storage is Lance; parquet is the sandbox
    stand-in). Returns the format actually used."""
    import logging

    log = logging.getLogger(__name__)
    if path.endswith(".lance"):
        try:
            ds.write_lance(path, **kwargs)
            log.info("write_spans: lance path for %s", path)
            return "lance"
        except (AttributeError, ImportError) as exc:
            log.warning(
                "write_spans: lance unavailable (%s: %s) — writing parquet "
                "under %s", type(exc).__name__, exc, path,
            )
    ds.write_parquet(path, **kwargs)
    return "parquet"


# ---------------------------------------------------------------------------
# charset decode (S3 — SmartReader.cs:468-472, HeaderEncodingProvider.cs:9-21)
# ---------------------------------------------------------------------------
_META_CHARSET_RE = None


def decode_html_bytes(
    data: bytes,
    header_charset: Optional[str] = None,
    force_header_encoding: bool = False,
) -> str:
    """bytes → str for raw-byte documents (the reference's transcode path).

    Order mirrors the reference + browser sniffing AngleSharp provides:
    1. ``force_header_encoding`` + a header charset → decode with it
       (errors replaced), like `SmartReader.cs:468-472`.
    2. BOM (utf-8-sig / utf-16).
    3. strict UTF-8.
    4. the header charset, if any.
    5. ``<meta charset=…>`` / ``<meta http-equiv content="…charset=…">``
       sniffed from the first 1024 bytes.
    6. latin-1 (never fails) as the last resort.
    """
    global _META_CHARSET_RE
    import codecs
    import re as _re

    def _try(name: Optional[str], errors: str = "strict") -> Optional[str]:
        if not name:
            return None
        try:
            codecs.lookup(name)
        except LookupError:
            return None
        try:
            return data.decode(name, errors=errors)
        except (UnicodeDecodeError, LookupError):
            return None

    if force_header_encoding and header_charset:
        out = _try(header_charset, errors="replace")
        if out is not None:
            return out
    if data.startswith(codecs.BOM_UTF8):
        return data[len(codecs.BOM_UTF8):].decode("utf-8", errors="replace")
    for bom, enc in ((codecs.BOM_UTF16_LE, "utf-16-le"),
                     (codecs.BOM_UTF16_BE, "utf-16-be")):
        if data.startswith(bom):
            return data[len(bom):].decode(enc, errors="replace")
    out = _try("utf-8")
    if out is not None:
        return out
    out = _try(header_charset)
    if out is not None:
        return out
    if _META_CHARSET_RE is None:
        _META_CHARSET_RE = _re.compile(
            rb"""<meta[^>]+?(?:charset\s*=\s*["']?([A-Za-z0-9_\-]+))""",
            _re.I,
        )
    m = _META_CHARSET_RE.search(data[:1024])
    if m:
        out = _try(m.group(1).decode("ascii", "ignore"))
        if out is not None:
            return out
    return data.decode("latin-1")


# ---------------------------------------------------------------------------
# documents.parquet → span docs (deterministic wrapper; see __ray_entry__
# oracle_sql for the closed-form expected outputs this wrapper guarantees)
# ---------------------------------------------------------------------------
def wrap_document_html(doc_id, text: str) -> str:
    """One <p> per document: extraction output becomes a closed-form
    function of ``text`` (title='Document {id}', text_content=text,
    length=len(text), readerable ⇔ len>240 — two readerability
    contributors, <article> and <p>, each √(len−140), threshold 20)."""
    body = _html.escape(text, quote=False)
    return (
        f"<html><head><title>Document {doc_id}</title></head>"
        f"<body><article><p>{body}</p></article></body></html>"
    )


def documents_to_spans_batch(batch: pa.Table) -> pa.Table:
    doc_ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    langs = (
        batch.column("lang").to_pylist()
        if "lang" in batch.column_names
        else [""] * len(doc_ids)
    )
    out_ids, out_spans, out_langs = [], [], []
    for doc_id, text, lang in zip(doc_ids, texts, langs):
        out_ids.append(str(doc_id))
        out_spans.append(html_to_spans(wrap_document_html(doc_id, text or "")))
        out_langs.append(lang or "")
    from ..stages.extract import SPAN_TYPE

    return pa.Table.from_arrays(
        [
            pa.array(out_ids, type=pa.string()),
            pa.array(out_spans, type=SPAN_TYPE),
            pa.array(out_langs, type=pa.string()),
        ],
        names=["doc_id", "spans", "lang"],
    )


def documents_to_spans(sf_dir: str, **read_kwargs):
    """Ray Dataset of F1 span docs from ``{sf_dir}/documents.parquet``."""
    import ray.data

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "lang"],
        **read_kwargs,
    )
    return ds.map_batches(documents_to_spans_batch, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# fixture corpus (142 reference test pages)
# ---------------------------------------------------------------------------
def fixture_names() -> list[str]:
    return sorted(
        d
        for d in os.listdir(FIXTURE_DIR)
        if os.path.isdir(os.path.join(FIXTURE_DIR, d))
    )


def fixture_spans_table(names: Optional[list[str]] = None) -> pa.Table:
    from ..stages.extract import SPAN_TYPE

    names = names or fixture_names()
    ids, spans = [], []
    for name in names:
        with open(
            os.path.join(FIXTURE_DIR, name, "source.html"), encoding="utf-8-sig"
        ) as f:
            ids.append(name)
            spans.append(html_to_spans(f.read()))
    return pa.Table.from_arrays(
        [pa.array(ids, type=pa.string()), pa.array(spans, type=SPAN_TYPE)],
        names=["doc_id", "spans"],
    )


# ---------------------------------------------------------------------------
# synthetic heavy-tailed corpus (seeded; for bench + skew tests)
# ---------------------------------------------------------------------------
_LOREM = (
    "stream batch filter merge shuffle window partition replica consensus "
    "vector tensor gradient token corpus anchor heading sidebar footer nav "
    "article paragraph sentence figure caption embed quote list table cell"
).split()


def synthetic_doc_html(doc_id: int, size_hint: int, seed: int = 42) -> str:
    """Deterministic page of ~size_hint bytes with realistic structure."""
    import random

    rng = random.Random(seed * 1_000_003 + doc_id)
    parts = [
        "<html><head>",
        f"<title>Synthetic {doc_id} | BenchSite</title>",
        '<meta name="description" content="synthetic benchmark page">',
        "</head><body>",
        '<div id="header" class="header-banner">BenchSite nav nav nav</div>',
        '<div id="content" class="main-content">',
    ]
    size = len("".join(parts))
    p_i = 0
    while size < size_hint:
        n_words = rng.randint(20, 120)
        words = " ".join(rng.choice(_LOREM) for _ in range(n_words))
        para = f"<p>{words}, {words[: rng.randint(10, 60)]}.</p>"
        if p_i % 7 == 3:
            para += f'<img src="/img/{doc_id}_{p_i}.jpg" alt="figure {p_i}">'
        if p_i % 11 == 5:
            para = f'<div class="social-share sharedaddy">share me</div>' + para
        parts.append(para)
        size += len(para)
        p_i += 1
    parts.append("</div>")
    parts.append('<div class="footer" id="footer">footer links</div>')
    parts.append("</body></html>")
    return "".join(parts)


def synthetic_corpus_table(
    n_docs: int,
    seed: int = 42,
    mean_size: int = 16_000,
    heavy_tail_every: int = 200,
    heavy_size: int = 1_600_000,
) -> pa.Table:
    """Seeded corpus whose size distribution mirrors the fixture corpus
    (avg ~197 KB scaled down by default; 1 in ``heavy_tail_every`` docs is
    a ~1.6 MB monster, the fixture max)."""
    import random

    from ..stages.extract import SPAN_TYPE

    rng = random.Random(seed)
    ids, spans = [], []
    for i in range(n_docs):
        if heavy_tail_every and i % heavy_tail_every == heavy_tail_every - 1:
            size = heavy_size
        else:
            size = max(2_000, int(rng.expovariate(1.0 / mean_size)))
        ids.append(f"synth-{i:06d}")
        spans.append(html_to_spans(synthetic_doc_html(i, size, seed)))
    return pa.Table.from_arrays(
        [pa.array(ids, type=pa.string()), pa.array(spans, type=SPAN_TYPE)],
        names=["doc_id", "spans"],
    )
