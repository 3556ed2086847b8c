"""In-process layer ledger: ``ExtractBatch.__call__`` run in ``run.py``.

Runs the same batches the Ray pipeline gets, with no Ray, and gives
(a) the reference digest every Ray run is checked against and (b) with a
tracer, a span around each layer call: ``stages`` (``ExtractBatch``,
``article_to_row``, ``rows_to_table``), ``spanio`` (``assemble_html``,
``flatten_element``), ``extraction`` (``Extractor.parse``,
``convert_to_plaintext``) and ``dom`` (``parse_html``, ``inner_html``).
The spans come from wrapping those names where the calling module looks
them up; the originals are restored when the run ends.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager

import pyarrow as pa

from smartreader_ray.extraction import core as extraction_core
from smartreader_ray.stages import extract as stages_extract
from smartreader_ray.stages.extract import ExtractBatch

#: columns an extraction run is checked on
DIGEST_COLUMNS = (
    "doc_id", "title", "byline", "text_content", "spans", "is_readable",
    "completed",
)

#: (module, attribute, span name) of each wrapped layer call
_WRAPPED = (
    (stages_extract, "assemble_html", "spanio.assemble_html"),
    (stages_extract, "article_to_row", "stages.article_to_row"),
    (stages_extract, "flatten_element", "spanio.flatten_element"),
    (stages_extract, "rows_to_table", "stages.rows_to_table"),
    (extraction_core, "parse_html", "dom.parse_html"),
    (extraction_core, "inner_html", "dom.inner_html"),
    (extraction_core, "convert_to_plaintext", "extraction.plaintext"),
)


def article_digest(tables) -> str:
    """Order-insensitive digest of article rows over ``DIGEST_COLUMNS``."""
    rows = []
    for t in tables:
        cols = [t.column(c).to_pylist() for c in DIGEST_COLUMNS]
        for vals in zip(*cols):
            rows.append(hashlib.sha256(
                json.dumps(vals, sort_keys=True).encode()).hexdigest())
    rows.sort()
    return hashlib.sha256("".join(rows).encode()).hexdigest()[:16]


def article_counts(tables) -> dict:
    """Behaviour counts that must repeat exactly for the same inputs."""
    counts = {"docs": 0, "failed": 0, "readable": 0, "grab_rounds": 0,
              "candidates": 0, "text_chars": 0}
    for t in tables:
        completed = t.column("completed").to_pylist()
        counts["docs"] += t.num_rows
        counts["failed"] += completed.count(False)
        counts["readable"] += t.column("is_readable").to_pylist().count(True)
        for m in t.column("metrics").to_pylist():
            counts["grab_rounds"] += m["attempts"]
            counts["candidates"] += m["n_candidates"]
        counts["text_chars"] += sum(len(x or "") for x in t.column("text_content").to_pylist())
    return counts


@contextmanager
def _traced_layers(tracer, doc_ref):
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in _WRAPPED]
    try:
        for (mod, attr, name), (_, _, fn) in zip(_WRAPPED, saved):
            setattr(mod, attr, tracer.wrap(name, fn, doc_ref))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def run_ledger(table: pa.Table, batch_size: int, tracer=None) -> list[pa.Table]:
    """``ExtractBatch`` over ``table`` in ``batch_size`` slices; returns
    the output tables. With ``tracer``, every layer call gets a span."""
    udf = ExtractBatch()
    batches = [table.slice(i, batch_size) for i in range(0, table.num_rows, batch_size)]
    if tracer is None:
        return [out for b in batches for out in udf(b)]

    doc = {"n": -1}

    def doc_ref():
        return f"doc-{doc['n']}"

    parse = udf.extractor.parse

    def traced_parse(*args, **kwargs):
        doc["n"] += 1
        with tracer.span("extraction.parse", doc_ref()):
            return parse(*args, **kwargs)

    udf.extractor.parse = traced_parse
    outs = []
    with _traced_layers(tracer, doc_ref):
        for i, b in enumerate(batches):
            with tracer.span("stages.extract_batch", f"batch-{i}"):
                outs.extend(udf(b))
    return outs


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    xs = sorted(values)
    k = max(0, min(len(xs) - 1, int(-(-q * len(xs) // 100)) - 1))
    return xs[k]


def layer_metrics(tracer) -> dict:
    """Per-layer metrics of a traced ledger run, in seconds unless named."""
    parse_ms = [d * 1000.0 for d in tracer.durations("extraction.parse")]
    self_s = tracer.self_times()
    out = {name: tracer.total(name) for name in (
        "dom.parse_html", "dom.inner_html", "extraction.parse",
        "extraction.plaintext", "spanio.assemble_html", "spanio.flatten_element",
        "stages.article_to_row", "stages.rows_to_table", "stages.extract_batch",
    )}
    out = {f"{k}_s": v for k, v in out.items()}
    out["extraction.other_s"] = self_s.get("extraction.parse", 0.0)
    out["extraction.doc_p50_ms"] = percentile(parse_ms, 50)
    out["extraction.doc_p99_ms"] = percentile(parse_ms, 99)
    return out
