"""Minimal PDF text extraction — the north rule's "PDF/layout parse" leg.

A from-scratch, stdlib-only (zlib + re) extractor for the common case:
text drawn with Tj / TJ / ' / " operators inside page content streams,
plain or FlateDecode-compressed, standard-encoding string literals.
That covers machine-generated text PDFs (the bulk of a web-scale PDF
corpus). Out of scope — and reported per-row as ``error`` instead of a
task failure: encrypted files, exotic filters (JBIG2, CCITT, DCT text),
CID/Type0 composite fonts with custom CMaps (their strings decode to
garbage, flagged via a heuristic), and OCR-needing scans.

Ray side: a ``PdfTextExtract`` instance is a ``map_batches`` task stage
over ``(doc_id, pdf: binary)`` rows. Layout: text chunks are emitted in
content-stream order, joined per text object (BT..ET) with newlines —
the same reading-order approximation pdfminer uses for untagged PDFs.

There is no PDF path in the reference (Strumenta/SmartReader is
HTML-only); this stage exists because the engine's north rule includes
PDF documents in the interleaved corpus.
"""

from __future__ import annotations

import re
import zlib

import pyarrow as pa

# object:  "1 0 obj ... endobj"
_OBJ_RE = re.compile(rb"(\d+)\s+(\d+)\s+obj\b(.*?)endobj", re.S)
_STREAM_START_RE = re.compile(rb"stream\r?\n")
_LENGTH_RE = re.compile(rb"/Length\s+(\d+)\b")
_FLATE_RE = re.compile(rb"/Filter\s*(?:\[\s*)?/FlateDecode")
_ANY_FILTER_RE = re.compile(rb"/Filter")

# text-showing + line-advance operators inside a content stream:
#   (string) Tj | (string) ' | (string) " | [ ... ] TJ | T* | x y Td/TD
_TJ_RE = re.compile(
    rb"""
    \(((?:\\.|[^\\()])*)\)\s*(Tj|'|")       # literal string + Tj/'/"
    | <([0-9A-Fa-f\s]*)>\s*(?:Tj|'|")       # hex string + Tj/'/"
    | \[((?:[^\]\\]|\\.)*)\]\s*TJ           # TJ array
    | (T\*)                                 # next line
    | -?[\d.]+\s+-?[\d.]+\s+(Td|TD)\b       # text-position move
    """,
    re.S | re.X,
)
_ARRAY_STR_RE = re.compile(rb"\(((?:\\.|[^\\()])*)\)|<([0-9A-Fa-f\s]*)>")
_BT_ET_RE = re.compile(rb"BT(.*?)ET", re.S)

_ESCAPES = {
    b"n": b"\n", b"r": b"\r", b"t": b"\t", b"b": b"\b", b"f": b"\f",
    b"(": b"(", b")": b")", b"\\": b"\\",
}


def _unescape_literal(raw: bytes) -> bytes:
    """PDF string-literal unescape: \\n \\r \\t \\b \\f \\( \\) \\\\ \\ooo
    and line-continuation backslash-newline."""
    if b"\\" not in raw:
        return raw
    out = bytearray()
    i, n = 0, len(raw)
    while i < n:
        c = raw[i:i + 1]
        if c != b"\\":
            out += c
            i += 1
            continue
        nxt = raw[i + 1:i + 2]
        if nxt in _ESCAPES:
            out += _ESCAPES[nxt]
            i += 2
        elif nxt.isdigit():
            j = i + 1
            while j < n and j < i + 4 and raw[j:j + 1].isdigit():
                j += 1
            out.append(int(raw[i + 1:j], 8) & 0xFF)
            i = j
        elif nxt in (b"\n", b"\r"):
            i += 2  # line continuation
            if nxt == b"\r" and raw[i:i + 1] == b"\n":
                i += 1
        else:
            i += 1  # lone backslash: dropped (spec)
    return bytes(out)


def _decode_hex(raw: bytes) -> bytes:
    h = b"".join(raw.split())
    if len(h) % 2:
        h += b"0"
    try:
        return bytes.fromhex(h.decode("ascii"))
    except ValueError:
        return b""


def _strings_from_tj_array(body: bytes) -> list[bytes]:
    parts = []
    for m in _ARRAY_STR_RE.finditer(body):
        if m.group(1) is not None:
            parts.append(_unescape_literal(m.group(1)))
        else:
            parts.append(_decode_hex(m.group(2)))
    return parts


def _content_stream_text(data: bytes) -> list[str]:
    """Text chunks from one decoded content stream, BT..ET grouped.
    Line-advance operators (T*, Td/TD, the ' and " shows) between text
    shows become newlines — the reading-order approximation for untagged
    machine-generated PDFs."""
    chunks: list[str] = []
    regions = _BT_ET_RE.findall(data) or [data]
    for region in regions:
        pieces: list[bytes] = []
        pending_newline = False
        for m in _TJ_RE.finditer(region):
            lit, lit_op, hexs, tj_arr, tstar, td = (
                m.group(1), m.group(2), m.group(3), m.group(4),
                m.group(5), m.group(6),
            )
            if tstar is not None or td is not None:
                pending_newline = bool(pieces)
                continue
            if lit is not None and lit_op in (b"'", b'"'):
                pending_newline = bool(pieces)  # ' and " imply next-line
            if pending_newline:
                pieces.append(b"\n")
                pending_newline = False
            if lit is not None:
                pieces.append(_unescape_literal(lit))
            elif hexs is not None:
                pieces.append(_decode_hex(hexs))
            else:
                pieces.extend(_strings_from_tj_array(tj_arr))
        if pieces:
            text = b"".join(pieces).decode("latin-1", errors="replace")
            chunks.append(text)
    return chunks


def pdf_to_text(data: bytes) -> str:
    """Extract the text of a simple PDF (see module docstring for scope).

    Raises ValueError for files this extractor cannot handle (encrypted,
    non-Flate filters) so callers can produce per-row error records.
    """
    if not data.startswith(b"%PDF"):
        raise ValueError("not a PDF (missing %PDF header)")
    if b"/Encrypt" in data:
        raise ValueError("encrypted PDF not supported")
    texts: list[str] = []
    for m in _OBJ_RE.finditer(data):
        body = m.group(3)
        sm = _STREAM_START_RE.search(body)
        if sm is None:
            continue
        head = body[: sm.start()]
        # slice by /Length when literal — stream BYTES may legitimately
        # contain "endstream" or end with \r, so a regex-to-endstream
        # scan truncates compressed data
        lm = _LENGTH_RE.search(head)
        if lm:
            raw = body[sm.end(): sm.end() + int(lm.group(1))]
        else:  # indirect /Length reference: fall back to the marker
            end = body.find(b"endstream", sm.end())
            if end < 0:
                continue
            raw = body[sm.end(): end]
            if raw.endswith(b"\r\n"):
                raw = raw[:-2]
            elif raw.endswith((b"\n", b"\r")):
                raw = raw[:-1]
        if _FLATE_RE.search(head):
            try:
                raw = zlib.decompress(raw)
            except zlib.error:
                continue  # corrupt stream: skip, keep other pages
        elif _ANY_FILTER_RE.search(head):
            continue  # unsupported filter (image data etc.): not text
        if b"Tj" not in raw and b"TJ" not in raw and b"'" not in raw:
            continue
        texts.extend(_content_stream_text(raw))
    return "\n".join(texts)


class PdfTextExtract:
    """Stage: (doc_id, pdf:binary) → (doc_id, text, n_chars,
    error). Per-file failures are error rows, never task failures."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_text, out_err = [], []
        for data in batch.column("pdf").to_pylist():
            try:
                out_text.append(pdf_to_text(data or b""))
                out_err.append("")
            except Exception as exc:
                out_text.append("")
                out_err.append(f"{type(exc).__name__}: {exc}")
        return pa.Table.from_pydict(
            {
                "doc_id": batch.column("doc_id"),
                "text": pa.array(out_text, type=pa.string()),
                "n_chars": pa.array([len(t) for t in out_text], type=pa.int64()),
                "error": pa.array(out_err, type=pa.string()),
            }
        )


# ---------------------------------------------------------------------------
# deterministic PDF synthesis (tests / oracle input — no external corpus)
# ---------------------------------------------------------------------------
def make_simple_pdf(text: str, compress: bool = True) -> bytes:
    """Build a minimal one-page PDF whose content stream draws ``text``
    line-by-line with Tj. Deterministic; latin-1-representable text only
    (callers strip or replace the rest)."""
    lines = text.split("\n")
    ops = [b"BT /F1 11 Tf 36 760 Td 13 TL"]
    for li, line in enumerate(lines):
        esc = (
            line.encode("latin-1", errors="replace")
            .replace(b"\\", b"\\\\")
            .replace(b"(", b"\\(")
            .replace(b")", b"\\)")
        )
        if li:
            ops.append(b"T*")
        ops.append(b"(" + esc + b") Tj")
    ops.append(b"ET")
    content = b"\n".join(ops)
    filt = b""
    if compress:
        content = zlib.compress(content)
        filt = b" /Filter /FlateDecode"

    objs = [
        b"<< /Type /Catalog /Pages 2 0 R >>",
        b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
        b"/Contents 4 0 R /Resources << /Font << /F1 5 0 R >> >> >>",
        b"<< /Length %d%s >>\nstream\n%s\nendstream" % (len(content), filt, content),
        b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>",
    ]
    out = bytearray(b"%PDF-1.4\n")
    offsets = []
    for i, obj in enumerate(objs, start=1):
        offsets.append(len(out))
        out += b"%d 0 obj\n%s\nendobj\n" % (i, obj)
    xref_at = len(out)
    out += b"xref\n0 %d\n0000000000 65535 f \n" % (len(objs) + 1)
    for off in offsets:
        out += b"%010d 00000 n \n" % off
    out += (
        b"trailer\n<< /Size %d /Root 1 0 R >>\nstartxref\n%d\n%%%%EOF\n"
        % (len(objs) + 1, xref_at)
    )
    return bytes(out)
