"""The streaming extraction pipeline.

Default shape (SURVEY §3.5, single pass — the input is read ONCE):

    read spans → ExtractBatch actor pool (generator UDF)
    → (write / aggregate)

Skew is handled *inside* the actor, not by branching the plan: the UDF
flushes finished rows incrementally (an oversized doc's output ships on
its own, bounding actor heap), and ``time_budget_s`` cooperatively
cancels pathological docs into error rows (reference war story:
``docfx_project/articles/notes.md`` "Dealing with Long Extraction
Time"). Everything stays lazy/streaming — no materialization, no
shuffle (the extraction map is embarrassingly parallel; the only wide
op anywhere is the optional metrics rollup, which pre-aggregates per
block before the tiny final combine).

There is no size-routed second plan: a branch that sent oversized docs
to their own pool would re-execute the upstream read (a 2× input-IO
tax), and the in-actor flush already ships an oversized doc's output as
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
    concurrency=None,
    size_threshold: int = DEFAULT_SIZE_THRESHOLD,
    include_content: bool = True,
    time_budget_s: float = 0.0,
):
    """spans Dataset → article-rows Dataset (lazy)."""
    if concurrency is None:
        # size the actor pool to the cluster: extraction is pure-CPU python
        # → up to 1 actor per CPU, autoscaling from 1. A fixed pool of
        # min=n would (a) starve the upstream read tasks at low CPU counts
        # (observed hangs) and (b) warn/idle when the input has fewer
        # blocks than actors; min=1 keeps reads alive and Ray grows the
        # pool as batches queue. The benchmark (perfbench) runs this
        # default; the query driver passes the same shape with a cap
        # (``__ray_entry__._pool_max``).
        try:
            import ray

            n_cpus = int(ray.cluster_resources().get("CPU", 8))
        except Exception:  # pragma: no cover
            n_cpus = 8
        # cap at n-1: a pool that reserves every cluster CPU starves the
        # producer side and the pipeline stalls.
        concurrency = (1, max(2, n_cpus - 1))
    # num_cpus slightly < 1 keeps a little extra headroom for the producer
    # side even when callers pass a full-size pool explicitly. Single pass:
    # the input is read once; skew is handled inside the generator UDF.
    return ds.map_batches(
        ExtractBatch,
        fn_constructor_kwargs=dict(
            config=config,
            base_uri=base_uri,
            include_content=include_content,
            time_budget_s=time_budget_s,
            size_threshold=size_threshold,
        ),
        batch_size=batch_size,
        batch_format="pyarrow",
        num_cpus=0.9,
        concurrency=concurrency,
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
