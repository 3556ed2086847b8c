"""The streaming extraction pipeline.

Default shape (SURVEY §3.5, single pass — the input is read ONCE):

    read spans → MapBatches(ExtractBatch) tasks (generator UDF)
    → (write / aggregate)

The UDF is pure per document, so no worker keeps state between calls and
the stage runs as Ray Data tasks on the session's warm worker pool: an
``ExtractBatch`` instance, not the class, goes to ``map_batches``. No
actor pool is started per job, and Ray Data sizes the task concurrency
to the session's CPUs. A task holds its CPU only while it runs, so read
and extraction tasks take turns even on a 1-CPU session, where an actor
that held its CPU for the whole job starved the read.

Skew is handled *inside* the UDF, not by branching the plan: it flushes
finished rows incrementally (an oversized doc's output ships on its own,
bounding worker heap), and ``time_budget_s`` cooperatively
cancels pathological docs into error rows (reference war story:
``docfx_project/articles/notes.md`` "Dealing with Long Extraction
Time"). Everything stays lazy/streaming — no materialization, no
shuffle (the extraction map is embarrassingly parallel; the only wide
op anywhere is the optional metrics rollup, which pre-aggregates per
block before the tiny final combine).

There is no size-routed second plan: a branch that sent oversized docs
to their own stage would re-execute the upstream read (a 2× input-IO
tax), and the in-UDF flush already ships an oversized doc's output as
its own sub-batch.
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa
import pyarrow.compute as pc

from ..extraction import ExtractorConfig
from ..stages.extract import ExtractBatch

#: docs at or above this source size flush their output as their own sub-batch
DEFAULT_SIZE_THRESHOLD = 1_000_000


def build_extraction_pipeline(
    ds,
    config: Optional[ExtractorConfig] = None,
    base_uri: str = "https://localhost/",
    batch_size: int = 16,
    size_threshold: int = DEFAULT_SIZE_THRESHOLD,
    include_content: bool = True,
    time_budget_s: float = 0.0,
):
    """spans Dataset → article-rows Dataset (lazy), extracted in tasks."""
    return ds.map_batches(
        ExtractBatch(
            config=config,
            base_uri=base_uri,
            include_content=include_content,
            time_budget_s=time_budget_s,
            size_threshold=size_threshold,
        ),
        batch_size=batch_size,
        batch_format="pyarrow",
    )


def _metrics_fold(batch: pa.Table) -> pa.Table:
    """Per-block partial aggregate — the combine side of the rollup, so the
    driver-side final reduce sees one tiny row per block, not the corpus."""
    metrics = batch.column("metrics")
    flat = pa.Table.from_arrays(
        [metrics.combine_chunks().field(name) for name in (
            "chars_kept", "chars_dropped", "parse_ms",
        )],
        names=["chars_kept", "chars_dropped", "parse_ms"],
    )
    return pa.Table.from_pydict(
        {
            "docs": [batch.num_rows],
            "completed": [pc.sum(pc.cast(batch.column("completed"), pa.int64())).as_py() or 0],
            "readable": [pc.sum(pc.cast(batch.column("is_readable"), pa.int64())).as_py() or 0],
            "chars_kept": [pc.sum(flat.column("chars_kept")).as_py() or 0],
            "chars_dropped": [pc.sum(flat.column("chars_dropped")).as_py() or 0],
            "parse_ms": [pc.sum(flat.column("parse_ms")).as_py() or 0.0],
        }
    )


def corpus_metrics(article_ds) -> dict:
    """Rollup of the extraction metrics columns (small result → driver)."""
    partial = article_ds.map_batches(_metrics_fold, batch_format="pyarrow")
    table = pa.Table.from_pylist(partial.take_all())
    if table.num_rows == 0:
        return {
            "docs": 0, "completed": 0, "readable": 0,
            "chars_kept": 0, "chars_dropped": 0, "parse_ms": 0.0,
        }
    return {
        name: (pc.sum(table.column(name)).as_py() or 0)
        for name in table.column_names
    }
