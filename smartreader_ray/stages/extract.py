"""Extraction as a Ray Data map stage.

The per-document chain (smartreader_ray.extraction) is pure; this module
adapts it to zero-copy Arrow batches for
``ds.map_batches(ExtractBatch(...), batch_format="pyarrow")``.
The regex set compiles once per process, at import (reference analogue:
the static pre-compiled ``G_RE_*`` table, ``SmartReader.cs:188-208``);
``ExtractBatch`` holds only the extractor and its options, and
``__call__`` handles one batch.

Failures become rows, never task retries (``completed=False`` + ``error``,
mirroring ``SmartReader.cs:479-482``).
"""

from __future__ import annotations

import os
import socket
from typing import Optional

import pyarrow as pa

from .. import __version__
from ..extraction import ArticleResult, Extractor, ExtractorConfig, DEFAULT_CONFIG
from ..spanio import assemble_html, flatten_element

SPAN_STRUCT = pa.struct(
    [
        pa.field("kind", pa.string()),
        pa.field("text", pa.string()),
        pa.field("media_ref", pa.string()),
        pa.field("offset", pa.int32()),
    ]
)
SPAN_TYPE = pa.list_(SPAN_STRUCT)

METRICS_TYPE = pa.struct(
    [
        pa.field("chars_kept", pa.int64()),
        pa.field("chars_dropped", pa.int64()),
        pa.field("top_candidate_score", pa.float64()),
        pa.field("n_candidates", pa.int32()),
        pa.field("attempts", pa.int32()),
        pa.field("parse_ms", pa.float64()),
    ]
)

LINEAGE_TYPE = pa.struct(
    [
        pa.field("partition_id", pa.int64()),
        pa.field("worker_id", pa.string()),
        pa.field("engine_version", pa.string()),
    ]
)

ARTICLE_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("spans", SPAN_TYPE),
        pa.field("title", pa.string()),
        pa.field("byline", pa.string()),
        pa.field("author", pa.string()),
        pa.field("dir", pa.string()),
        pa.field("language", pa.string()),
        pa.field("site_name", pa.string()),
        pa.field("excerpt", pa.string()),
        pa.field("featured_image", pa.string()),
        pa.field("publication_date", pa.timestamp("us")),
        pa.field("time_to_read_s", pa.int32()),
        pa.field("is_readable", pa.bool_()),
        pa.field("completed", pa.bool_()),
        pa.field("error", pa.string()),
        pa.field("content_html", pa.string()),
        pa.field("text_content", pa.string()),
        pa.field("length", pa.int32()),
        pa.field("alt_language_uris", pa.map_(pa.string(), pa.string())),
        pa.field("metrics", METRICS_TYPE),
        pa.field("lineage", LINEAGE_TYPE),
    ]
)


def article_to_row(
    doc_id: str,
    article: ArticleResult,
    partition_id: int = -1,
    worker_id: str = "",
    source_chars: int = 0,
) -> dict:
    pub = article.publication_date
    if pub is not None and pub.tzinfo is not None:
        # try_parse_date already normalized aware values to UTC
        pub = pub.replace(tzinfo=None)
    spans = (
        flatten_element(article.element) if article.element is not None else []
    )
    return {
        "doc_id": doc_id,
        "spans": spans,
        "title": article.title,
        "byline": article.byline or "",
        "author": article.author or "",
        "dir": article.dir or "",
        "language": article.language or "",
        "site_name": article.site_name,
        "excerpt": article.excerpt or "",
        "featured_image": article.featured_image,
        "publication_date": pub,
        "time_to_read_s": article.time_to_read_s,
        "is_readable": article.is_readable,
        "completed": article.completed,
        "error": article.error,
        "content_html": article.content_html,
        "text_content": article.text_content,
        "length": article.length,
        "alt_language_uris": list(article.alternative_language_uris.items()),
        "metrics": {
            "chars_kept": article.length,
            "chars_dropped": max(0, source_chars - article.length),
            "top_candidate_score": article.top_candidate_score,
            "n_candidates": article.n_candidates,
            "attempts": article.attempts,
            "parse_ms": article.parse_ms,
        },
        "lineage": {
            "partition_id": partition_id,
            "worker_id": worker_id,
            "engine_version": __version__,
        },
    }


def rows_to_table(rows: list[dict]) -> pa.Table:
    if not rows:
        return ARTICLE_SCHEMA.empty_table()
    arrays = []
    for f in ARTICLE_SCHEMA:
        arrays.append(pa.array([r[f.name] for r in rows], type=f.type))
    return pa.Table.from_arrays(arrays, schema=ARTICLE_SCHEMA)


class ExtractBatch:
    """Map UDF, one doc per row.

    Built once in the driver and passed to ``map_batches`` as an
    instance, so Ray Data runs it as tasks on the session's warm worker
    pool rather than starting an actor pool per job: nothing here has to
    outlive a call, and the extractor is cheap to unpickle.

    Input batch columns: ``doc_id`` (string castable), ``spans`` (F1 span
    list) OR ``html`` (raw string); optional ``uri`` and ``partition_id``.

    ``__call__`` is a generator: finished rows are flushed as soon as the
    pending output exceeds ``flush_bytes`` (or after any oversized doc),
    so one multi-MB document never pins a whole batch of outputs in the
    worker heap — Ray's streaming executor ships each yielded sub-batch
    downstream immediately. ``time_budget_s`` bounds pathological docs
    (reference war story: notes.md "Dealing with Long Extraction Time");
    an overrun yields an error row (completed=False), never a task death.
    """

    def __init__(
        self,
        config: Optional[ExtractorConfig] = None,
        base_uri: str = "https://localhost/",
        include_content: bool = True,
        time_budget_s: float = 0.0,
        flush_bytes: int = 32 << 20,
        size_threshold: int = 0,
    ):
        self.extractor = Extractor(config or DEFAULT_CONFIG)
        self.base_uri = base_uri
        self.include_content = include_content
        self.time_budget_s = time_budget_s
        self.flush_bytes = flush_bytes
        self.size_threshold = size_threshold

    def __call__(self, batch: pa.Table):
        names = set(batch.column_names)
        doc_ids = batch.column("doc_id").to_pylist()
        if "spans" in names:
            spans_col = batch.column("spans").to_pylist()
            htmls = [assemble_html(s or []) for s in spans_col]
        elif "html" in names:
            htmls = batch.column("html").to_pylist()
            if htmls and isinstance(next((h for h in htmls if h is not None), None), bytes):
                # raw-byte documents: charset transcode path (S3 —
                # SmartReader.cs:468-472). Optional per-row `charset`
                # column carries the HTTP header charset.
                from ..sources import decode_html_bytes

                charsets = (
                    batch.column("charset").to_pylist()
                    if "charset" in names
                    else [None] * len(htmls)
                )
                force = self.extractor.config.force_header_encoding
                htmls = [
                    decode_html_bytes(h, cs, force) if isinstance(h, bytes) else h
                    for h, cs in zip(htmls, charsets)
                ]
        else:
            raise ValueError("ExtractBatch needs a 'spans' or 'html' column")
        uris = (
            batch.column("uri").to_pylist()
            if "uri" in names
            else [self.base_uri] * len(doc_ids)
        )
        pids = (
            batch.column("partition_id").to_pylist()
            if "partition_id" in names
            else [-1] * len(doc_ids)
        )

        # the process running this call, not the one that built the UDF
        worker_id = f"{socket.gethostname()}:{os.getpid()}"
        rows: list[dict] = []
        pending = 0
        for doc_id, html, uri, pid in zip(doc_ids, htmls, uris, pids):
            src_len = len(html or "")
            article = self.extractor.parse(
                uri or self.base_uri,
                html or "",
                time_budget_s=self.time_budget_s or None,
            )
            row = article_to_row(
                str(doc_id),
                article,
                partition_id=pid if pid is not None else -1,
                worker_id=worker_id,
                source_chars=src_len,
            )
            if not self.include_content:
                row["content_html"] = ""
                row["text_content"] = ""
            rows.append(row)
            pending += src_len + len(row["content_html"]) + len(row["text_content"])
            oversized = self.size_threshold and src_len >= self.size_threshold
            if pending >= self.flush_bytes or oversized:
                yield rows_to_table(rows)
                rows, pending = [], 0
        if rows:
            yield rows_to_table(rows)
