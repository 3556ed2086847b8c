"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship extraction pipeline on sf0.001.
``queries()`` exposes each implemented operator (SURVEY.md §2 +
corpus-level training-data ops): every module-level ``_q_<name>(sf_dir)``
function is the query ``<name>``, so defining one registers it.
``oracle_sql()`` gives the DuckDB equivalent for the SQL-expressible ones
(the correctness gate compares row-count + schema + order-insensitive
value hash at sf=0.01). Every Ray read of an sf table goes through
``_read(sf_dir, table, columns)``.

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init()`` / ``ray.shutdown()``.

The extraction oracle works because ``sources.wrap_document_html`` wraps
each document as ``<title>Document {id}</title>…<article><p>{text}</p>``,
making the extractor's output a closed form of ``text``:
title = 'Document '||id; length = length(text); readerable ⇔ len > 240
(two readerability contributors, <article> and <p>, each √(len−140),
threshold 20 — SmartReader.cs:2206-2267); time-to-read =
max(1, floor(letters/960))·60 with letters = non-space chars
(TimeToReadCalculator.cs:33-47, default 960 cpm when no language).
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

_EN_STOP = (
    "'the','and','of','to','a','in','is','that','it','for','with','was','on'"
)


def _read(sf_dir: str, table: str, columns: list[str] | None = None):
    """``<sf_dir>/<table>.parquet`` as a Ray Dataset (optionally pruned),
    in blocks sized by the bytes read.

    Ray splits a read into at least 2 × the session's CPUs blocks,
    whatever its size, and every map task and exchange stage downstream
    then runs one task per block: for a sub-MiB table that fixed cost
    per task outweighs the work. Here a table under
    ``read_op_min_num_blocks`` × ``DataContext.target_min_block_size``
    (200 MiB by default) reads as one block per target of the selected
    columns' uncompressed bytes, taken from the parquet footer (no
    column data is read) — Ray's own rule without its CPU-count floor.
    A larger table keeps Ray's sizing; a missing file still raises
    Ray's ``FileNotFoundError`` naming the path."""
    import math

    import pyarrow.parquet as pq
    import ray.data
    from ray.data.context import DataContext

    path = os.path.join(sf_dir, f"{table}.parquet")
    blocks = None
    if os.path.isfile(path):  # a dataset directory keeps Ray's sizing
        meta = pq.read_metadata(path)
        nbytes = sum(
            col.total_uncompressed_size
            for rg in map(meta.row_group, range(meta.num_row_groups))
            for col in map(rg.column, range(rg.num_columns))
            if columns is None or col.path_in_schema.split(".")[0] in columns
        )
        ctx = DataContext.get_current()
        if nbytes < ctx.read_op_min_num_blocks * ctx.target_min_block_size:
            blocks = max(1, math.ceil(nbytes / ctx.target_min_block_size))
    return ray.data.read_parquet(path, columns=columns,
                                 override_num_blocks=blocks)


def _docs(sf_dir: str):
    return _read(sf_dir, "documents", ["doc_id", "text", "lang"])


def _extract_articles(sf_dir: str):
    """documents → F1 spans → streaming extraction pipeline."""
    from smartreader_ray.pipelines import build_extraction_pipeline
    from smartreader_ray.sources import documents_to_spans

    return build_extraction_pipeline(documents_to_spans(sf_dir), batch_size=32)


def entry() -> Any:
    """Flagship: extraction over sf0.001 documents (streaming, tasks)."""
    sf_dir = "/root/testdata/sf0.001"
    return _extract_articles(sf_dir).select_columns(
        ["doc_id", "title", "language", "length", "time_to_read_s",
         "is_readable", "completed", "text_content"]
    )


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------
def _q_extract_meta(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    def project(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
                "title": batch.column("title"),
                "length": pc.cast(batch.column("length"), pa.int64()),
                "time_to_read_s": pc.cast(batch.column("time_to_read_s"), pa.int64()),
                "is_readable": batch.column("is_readable"),
                "completed": batch.column("completed"),
            }
        )

    return _extract_articles(sf_dir).map_batches(project, batch_format="pyarrow")


def _q_extract_text(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    def project(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
                "text_content": batch.column("text_content"),
                "excerpt": batch.column("excerpt"),
            }
        )

    return _extract_articles(sf_dir).map_batches(project, batch_format="pyarrow")


def _q_doc_stats(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.exchange import keyed_agg

    def add_len(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "n_chars", pc.cast(pc.utf8_length(batch.column("text")), pa.int64())
        )

    agg = keyed_agg(_docs(sf_dir).map_batches(add_len, batch_format="pyarrow"),
                    "lang", {"n_docs": ("count", None),
                             "total_chars": ("sum", "n_chars")})

    def finish(batch: pa.Table) -> pa.Table:
        # Integer division on both sides (SQL uses `//`): float AVG's
        # textual form is not portable across engines (driver hash r01),
        # exact int64 division is.
        avg = pc.divide(
            pc.cast(batch.column("total_chars"), pa.int64()),
            pc.cast(batch.column("n_docs"), pa.int64()),
        )
        return batch.append_column("avg_chars", avg)

    return agg.map_batches(finish, batch_format="pyarrow")


def _q_corpus_metrics(sf_dir: str):
    """North-rule metrics rollup over the extraction output (per-block
    partial fold → tiny driver combine), projected to the SQL-checkable
    columns."""
    import pyarrow as pa

    from smartreader_ray.pipelines import corpus_metrics

    m = corpus_metrics(_extract_articles(sf_dir))
    return pa.Table.from_pydict(
        {
            "docs": pa.array([m["docs"]], type=pa.int64()),
            "completed": pa.array([m["completed"]], type=pa.int64()),
            "readable": pa.array([m["readable"]], type=pa.int64()),
            "chars_kept": pa.array([m["chars_kept"]], type=pa.int64()),
        }
    )


def _q_token_stats(sf_dir: str):
    from smartreader_ray.functions import token_stats

    return _docs(sf_dir).map_batches(token_stats, batch_format="pyarrow")


def _q_compress_ratio(sf_dir: str):
    """zlib compression signal (`functions/textstats.py:
    compression_stats`): templated text compresses far below prose,
    gibberish barely at all — the RedPajama-v2-style redundancy axis.
    DuckDB has no zlib → rows-only; determinism and monotonicity
    invariants pinned in tests/test_textstats_sentences.py."""
    from smartreader_ray.functions.textstats import compression_stats

    return _docs(sf_dir).map_batches(compression_stats,
                                     batch_format="pyarrow")


def _q_char_entropy(sf_dir: str):
    """Per-doc character-distribution entropy
    (`functions/textstats.py:char_entropy`) — the gibberish /
    encoding-junk / filler detector on the character axis. Pure
    per-doc kernel, zero shuffle; entropy in NANO-NATS as the
    order-independent integer sum of floored per-char terms (the
    source_entropy DSIR trick), replayed bit-for-bit by the oracle
    over per-character unnest counts."""
    from smartreader_ray.functions.textstats import char_entropy

    return (_docs(sf_dir).map_batches(char_entropy,
                                      batch_format="pyarrow"))


def _q_bpe_token_stats(sf_dir: str):
    """GPT-2-style pre-tokenizer counts (LLM-budget estimator); the
    stdlib-re pattern uses lookahead RE2 lacks → rows-only check, unit
    tests pin the counts."""
    from smartreader_ray.functions import bpe_token_stats

    return _docs(sf_dir).map_batches(bpe_token_stats, batch_format="pyarrow")


def _q_quality_stats(sf_dir: str):
    from smartreader_ray.functions import quality_stats

    return _docs(sf_dir).map_batches(quality_stats, batch_format="pyarrow")


def _q_exact_dedup(sf_dir: str):
    from smartreader_ray.functions import exact_dedup

    return exact_dedup(_docs(sf_dir), key_tokens=5)


def _q_language_id(sf_dir: str):
    from smartreader_ray.functions import language_id

    return language_id(_docs(sf_dir))


def _q_doc_fingerprint(sf_dir: str):
    import pyarrow as pa
    from smartreader_ray.functions import doc_fingerprint

    def fp(batch: pa.Table) -> pa.Table:
        import numpy as np

        out = doc_fingerprint(batch)
        # engine carries int64 two's-complement; display the UNSIGNED
        # decimal (stable across the r5 int64 reinterpretation)
        u = out.column("fingerprint").to_numpy(
            zero_copy_only=False).view(np.uint64)
        return pa.Table.from_pydict(
            {
                "doc_id": out.column("doc_id"),
                "fingerprint": pa.array([str(v) for v in u],
                                        type=pa.string()),
            }
        )

    return _docs(sf_dir).map_batches(fp, batch_format="pyarrow")


def _q_fingerprint_dedup(sf_dir: str):
    """Exact dedup keyed on the rolling-hash fingerprint; the oracle
    groups by the normalized text itself (equivalent modulo 64-bit
    collisions, none at sf scale). Project away the engine-side hash so
    both sides expose (keep_doc_id, n_dups)."""
    import pyarrow as pa

    from smartreader_ray.functions import fingerprint_dedup

    out = fingerprint_dedup(_docs(sf_dir))

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(["keep_doc_id", "n_dups"])

    return out.map_batches(project, batch_format="pyarrow")


def _q_minhash_candidates(sf_dir: str):
    from smartreader_ray.functions import minhash_lsh_candidates

    return minhash_lsh_candidates(_docs(sf_dir))


def _q_minhash_dedup(sf_dir: str):
    """Candidates → exact n-gram-Jaccard verify (full near-dedup chain)."""
    from smartreader_ray.functions import minhash_dedup

    return minhash_dedup(_docs(sf_dir), threshold=0.5)


def _q_ann_ivf(sf_dir: str):
    """IVF search run at nprobe == n_clusters: every list probed, so the
    result is EXACT and shares the brute-force ann_topk oracle — this
    hash-gates the whole IVF machinery (k-means assign, per-cluster
    search, merge); recall at nprobe < n_clusters is pinned separately
    by unit tests (test_similarity.py)."""
    from smartreader_ray.functions import ann_ivf

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    table = ann_ivf(ds, _query_matrix(sf_dir), k=10, n_clusters=16,
                    nprobe=16)
    return table.select(["query_id", "vec_id", "rank"])


def _q_ann_ivf_bucketed(sf_dir: str):
    """IVF bucketed LAYOUT: corpus written partitioned by centroid, search
    lists only probed buckets' files (IO pruning, the 100 TB path). Run
    at nprobe=n_clusters so results are exact → same oracle as ann_topk."""
    import os
    import shutil

    from smartreader_ray.functions import ann_ivf_bucketed, ivf_build_index

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    index_dir = os.path.join(
        "/tmp", "smartreader_ivf_" + os.path.basename(os.path.normpath(sf_dir))
    )
    shutil.rmtree(index_dir, ignore_errors=True)
    ivf_build_index(ds, index_dir, n_clusters=8)
    table = ann_ivf_bucketed(index_dir, _query_matrix(sf_dir), k=10, nprobe=8)
    return table.select(["query_id", "vec_id", "rank"])


def _q_hard_negatives(sf_dir: str):
    """Contrastive hard-negative mining (`functions/similarity.py:
    hard_negatives`): for each of the first 20 vectors, the top-3
    most-cosine-similar vectors with a DIFFERENT label — broadcast
    anchors, masked per-block matmul, partial top-k. Hash gate on
    (query_id, vec_id, rank) like ann_topk."""
    import numpy as np
    import pyarrow.parquet as pq

    from smartreader_ray.functions import hard_negatives

    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding", "label"])
    rows = sorted(zip(t.column("vec_id").to_pylist(),
                      t.column("embedding").to_pylist(),
                      t.column("label").to_pylist()))[:20]
    qm = np.asarray([r[1] for r in rows], dtype=np.float64)
    ql = np.asarray([r[2] for r in rows], dtype=np.int64)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    out = hard_negatives(ds, qm, ql, k=3)
    return out.select(["query_id", "vec_id", "rank"])


def _q_simhash_neardup(sf_dir: str):
    from smartreader_ray.functions import simhash_neardup

    return simhash_neardup(_docs(sf_dir))


def _query_matrix(sf_dir: str, n: int = 5):
    import numpy as np
    import pyarrow.parquet as pq

    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    rows = sorted(
        zip(t.column("vec_id").to_pylist(), t.column("embedding").to_pylist())
    )[:n]
    return np.asarray([r[1] for r in rows], dtype=np.float64)


def _q_ann_topk(sf_dir: str):
    import pyarrow as pa

    from smartreader_ray.functions import ann_topk

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    table = ann_topk(ds, _query_matrix(sf_dir), k=10)
    return table.select(["query_id", "vec_id", "rank"])


def _q_embed_neardup(sf_dir: str):
    from smartreader_ray.functions import embedding_neardup

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    pairs = embedding_neardup(ds, threshold=0.45)
    return pairs.select_columns(["vec_a", "vec_b"])


def _q_embed_neardup_lsh(sf_dir: str):
    from smartreader_ray.functions import embedding_neardup

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    # LSH-bucketed scale path: candidates within identical 8-bit
    # hyperplane signatures (recall < 1 by design → rows-only check)
    return embedding_neardup(ds, threshold=0.45, use_lsh=True, hyperplanes=8)


def _q_lineitem_pricing(sf_dir: str):
    from smartreader_ray.functions.exchange import keyed_agg

    ds = _read(
        sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity"]
    )
    return keyed_agg(ds, ["l_returnflag", "l_linestatus"],
                     {"sum_qty": ("sum", "l_quantity"),
                      "count_order": ("count", "l_quantity")})


def _q_top_orders(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.exchange import keyed_agg

    ds = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]
    )

    def revenue(batch: pa.Table) -> pa.Table:
        return batch.append_column("rev", pc.multiply(
            batch.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), batch.column("l_discount")),
        ))

    total = keyed_agg(ds.map_batches(revenue, batch_format="pyarrow"),
                      "l_orderkey", {"revenue": ("sum", "rev")})
    from smartreader_ray.functions import top_k

    top = top_k(total, [("revenue", "descending"),
                        ("l_orderkey", "ascending")], 10)

    def strip(batch: pa.Table) -> pa.Table:
        return batch.select(["l_orderkey"])

    return top.map_batches(strip, batch_format="pyarrow")


def _q_orders_by_segment(sf_dir: str, salt: int = 1):
    """Big-big distributed hash join (orders ⨝ customer, both sides
    shuffled once) then a partial-combined rollup per market segment —
    the shuffle-join pattern for when no side fits a broadcast.
    ``salt`` > 1 runs the hot-key-splitting variant against the SAME
    oracle (identical result proven by hash)."""
    import pyarrow as pa

    from smartreader_ray.functions import hash_join
    from smartreader_ray.functions.exchange import keyed_agg

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    customer = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    joined = hash_join(
        orders, customer, "o_custkey", "c_custkey",
        ["o_totalprice"], ["c_mktsegment"], salt=salt,
    )

    agg = keyed_agg(joined, "c_mktsegment",
                    {"total_price": ("sum", "o_totalprice"),
                     "n_orders": ("count", "o_totalprice")})

    def finish(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        i = batch.column_names.index("total_price")
        return batch.set_column(
            i, "total_price", pc.round(batch.column("total_price"), 2)
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def _q_orders_by_segment_salted(sf_dir: str):
    return _q_orders_by_segment(sf_dir, salt=4)


def _q_orders_by_nation(sf_dir: str):
    """orders ⨝ customer ⨝ nation as two chained broadcast joins (small
    dimension tables ray.put once), then a partial-combined groupby."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from smartreader_ray.functions import broadcast_join
    from smartreader_ray.functions.exchange import keyed_agg

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    customer = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    )
    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    )
    enriched = broadcast_join(orders, customer, key="o_custkey",
                              value_cols=["c_nationkey"], small_key="c_custkey")
    named = broadcast_join(enriched, nation, key="c_nationkey",
                           value_cols=["n_name"], small_key="n_nationkey")

    agg = keyed_agg(named, "n_name",
                    {"total_price": ("sum", "o_totalprice"),
                     "n_orders": ("count", "o_totalprice")})

    def round_total(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # float sums are summation-order-sensitive in the last bits;
        # round to cents on both sides of the oracle comparison
        i = batch.column_names.index("total_price")
        return batch.set_column(
            i, "total_price", pc.round(batch.column("total_price"), 2)
        )

    return agg.map_batches(round_total, batch_format="pyarrow")


def _q_events_by_type(sf_dir: str):
    from smartreader_ray.functions.exchange import keyed_agg

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    per_user = keyed_agg(ds, ["event_type", "user_id"],
                         {"n_events_user": ("count", None)})
    return keyed_agg(per_user, "event_type",
                     {"n_users": ("count", None),
                      "n_events": ("sum", "n_events_user")})


def _q_training_sample(sf_dir: str):
    """END-TO-END curation chain: quality filter → fingerprint dedup →
    hash-join survivors → deterministic per-lang sample — every stage
    SQL-expressible, so the COMPOSED pipeline gets exact hash equality."""
    from smartreader_ray.pipelines import build_training_pipeline

    return build_training_pipeline(_docs(sf_dir), min_chars=200, n_per_lang=10)


def _q_stratified_sample(sf_dir: str):
    """Deterministic 20-per-language sample of documents (md5-ranked ids
    — the oracle replays the exact ranking in SQL)."""
    from smartreader_ray.functions import stratified_sample

    return stratified_sample(_docs(sf_dir), "lang", 20)


def _q_pii_redact(sf_dir: str):
    """Regex PII scrub (emails, IPv4, phone runs) — three chained RE2
    kernels per batch; the oracle replays the identical patterns through
    DuckDB's RE2, so redacted text hash-matches exactly."""
    from smartreader_ray.functions import pii_redact

    return _docs(sf_dir).map_batches(pii_redact, batch_format="pyarrow")


def _q_source_cap(sf_dir: str):
    """Domain balancing: keep the 10 lowest doc_ids per source. Columns
    pruned to (source, doc_id) BEFORE the groupby — the shuffle moves
    two thin int/str columns, never document text."""
    from smartreader_ray.functions import per_source_cap

    ds = _read(sf_dir, "documents", ["doc_id", "source"])
    return per_source_cap(ds, cap=10)


def _q_decontaminate(sf_dir: str):
    """Test-set decontamination: eval snippets (doc_id % 50 == 0, first
    120 chars — driver-small by construction, like real eval sets) are
    broadcast once; each train doc is flagged by one RE2 alternation
    match per batch."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions import decontaminate

    docs = _docs(sf_dir)

    def snip_batch(b: pa.Table) -> pa.Table:
        # the eval set is a FIXED side input: a bounded doc_id range, so
        # the driver-side harvest does NOT grow with corpus size
        # (VERDICT r3 #5 — was an unbounded 1-in-50 sample)
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        f = b.filter(pa.array((ids % 50 == 0) & (ids < 25_000)))
        return pa.Table.from_pydict(
            {"snip": pc.utf8_slice_codeunits(f.column("text"), 0, 120)}
        )

    snips = [
        r["snip"]
        for r in docs.map_batches(snip_batch, batch_format="pyarrow").take_all()
    ]
    assert len(snips) <= 500, "eval snippet harvest exceeded its fixed bound"
    return decontaminate(docs, snips).select_columns(["doc_id", "contaminated"])


def _q_lm_perplexity(sf_dir: str):
    """CCNet-style model-based quality scoring: a token-bigram LM with
    add-one smoothing is trained DISTRIBUTED on a fixed held-in slice
    (doc_id % 10 == 0 AND doc_id < 25000 — bounded like the decontam
    eval set), broadcast once, and every doc scored map-side
    (`functions/lm.py`). The hash gate compares the exact integer
    sufficient statistics (Σ bigram counts, Σ prefix counts, OOV
    transitions) the SQL oracle replays from the same slice; the float
    log2-perplexity is a closed form of those counts and is
    differential-tested in tests/test_lm.py."""
    import pyarrow as pa

    from smartreader_ray.functions import lm_score, train_bigram_lm

    docs = _docs(sf_dir)

    def held_filter(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array((ids % 10 == 0) & (ids < 25_000)))

    model = train_bigram_lm(
        docs.map_batches(held_filter, batch_format="pyarrow")
    )
    return lm_score(docs, model).select_columns(
        ["doc_id", "n_trans", "sum_bigram_c", "sum_prefix_c", "n_oov"]
    )


def _q_padding_plan(sf_dir: str):
    """Length-sorted batching plan (the sorted/bucketed-batching move
    every seq2seq/LLM trainer uses to cut padding waste): docs ranked
    globally by (n_tokens, doc_id) via the TeraSort-shape
    `global_rank`, grouped into fixed-size batches of 32 consecutive
    ranks, and each batch summarized as (batch_id, n_docs, max_len,
    padding_waste = n·max − Σlen) — all exact int64. The plan TABLE is
    the artifact a dataloader consumes; waste here is provably minimal
    for contiguous batches of a sorted order. Token counts are the
    whitespace ``string_split`` count (SQL-replayable)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.exchange import keyed_agg
    from smartreader_ray.functions.reshape import global_rank

    docs = _docs(sf_dir)

    def lens(b: pa.Table) -> pa.Table:
        toks = pc.split_pattern(
            pc.utf8_trim_whitespace(
                pc.coalesce(pc.cast(b.column("text"), pa.string()),
                            pa.scalar("", type=pa.string()))), " ")
        n = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        ids = b.column("doc_id").to_numpy(zero_copy_only=False).astype(
            np.int64)
        if len(ids) and (ids.max() >= (1 << 33) or n.max() >= (1 << 30)):
            raise ValueError("padding_plan key composition out of range")
        return pa.Table.from_pydict({
            "doc_id": pa.array(ids, type=pa.int64()),
            "n_tokens": pa.array(n, type=pa.int64()),
            "__lk": pa.array((n << 33) | ids, type=pa.int64()),
        })

    ranked = global_rank(
        docs.map_batches(lens, batch_format="pyarrow"), "__lk")

    def to_batch(b: pa.Table) -> pa.Table:
        rn = b.column("rn").to_numpy(zero_copy_only=False).astype(
            np.int64)
        return pa.Table.from_pydict({
            "batch_id": pa.array((rn - 1) // 32, type=pa.int64()),
            "n_tokens": b.column("n_tokens"),
        })

    return (keyed_agg(ranked.map_batches(to_batch, batch_format="pyarrow"),
                      "batch_id", {"n_docs": ("count", None),
                                   "max_len": ("max", "n_tokens"),
                                   "sum_len": ("sum", "n_tokens")})
            .map_batches(lambda b: pa.Table.from_pydict({
                "batch_id": b.column("batch_id"),
                "n_docs": b.column("n_docs"),
                "max_len": b.column("max_len"),
                "padding_waste": pa.array(
                    b.column("n_docs").to_numpy(zero_copy_only=False)
                    * b.column("max_len").to_numpy(zero_copy_only=False)
                    - b.column("sum_len").to_numpy(zero_copy_only=False),
                    type=pa.int64()),
            }), batch_format="pyarrow"))


def _q_curriculum_chain(sf_dir: str):
    """Composed chain #18 — curriculum ordering: bigram-LM difficulty
    (integer OOV-rate proxy ``n_oov·10⁶ // (n_trans+1)``, exact floor
    division on the same sufficient statistics `lm_perplexity` gates)
    → GLOBAL easy-first rank via the TeraSort-shape `global_rank` over
    the unique composed key ``difficulty·2³³ + doc_id`` → 8 NTILE
    curriculum buckets by pure integer arithmetic. Per-doc output
    (doc_id, pos, bucket) is the actual training-order artifact a
    curriculum loader consumes. Docs with < 2 tokens drop (same
    convention as lm_perplexity); loud int64-composition guards."""
    import numpy as np
    import pyarrow as pa

    from smartreader_ray.functions import lm_score, train_bigram_lm
    from smartreader_ray.functions.reshape import global_rank

    docs = _docs(sf_dir)

    def held_filter(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array((ids % 10 == 0) & (ids < 25_000)))

    model = train_bigram_lm(
        docs.map_batches(held_filter, batch_format="pyarrow"))
    scored = lm_score(docs, model)

    def key(b: pa.Table) -> pa.Table:
        oov = b.column("n_oov").to_numpy(zero_copy_only=False).astype(
            np.int64)
        nt = b.column("n_trans").to_numpy(zero_copy_only=False).astype(
            np.int64)
        ids = b.column("doc_id").to_numpy(zero_copy_only=False).astype(
            np.int64)
        score = oov * 1_000_000 // (nt + 1)
        if len(ids) and (ids.max() >= (1 << 33) or
                         score.max() >= (1 << 30)):
            raise ValueError("curriculum key composition out of range")
        return pa.Table.from_pydict({
            "doc_id": pa.array(ids, type=pa.int64()),
            "__ck": pa.array((score << 33) | ids, type=pa.int64()),
        })

    # materialize the THIN (doc_id, __ck) table: three consumers
    # (count, rank sampling, rank stamping) would otherwise re-run the
    # whole LM scoring pass each
    keyed = scored.map_batches(key, batch_format="pyarrow").materialize()
    n = keyed.count()
    ranked = global_rank(keyed, "__ck")

    def out(b: pa.Table) -> pa.Table:
        pos = b.column("rn").to_numpy(zero_copy_only=False).astype(
            np.int64)
        bucket = (pos - 1) * 8 // n + 1
        return pa.Table.from_pydict({
            "doc_id": b.column("doc_id"),
            "pos": pa.array(pos, type=pa.int64()),
            "bucket": pa.array(bucket, type=pa.int64()),
        })

    return ranked.map_batches(out, batch_format="pyarrow")


def _q_lm_perplexity_by_lang(sf_dir: str):
    """The actual CCNet shape: one bigram LM per LANGUAGE, trained on
    the same fixed held-in slice keyed by lang (one distributed count
    pass over (lang, w1, w2)), each doc scored against its own
    language's model (`functions/lm.py: train_bigram_lm_by /
    lm_score_by`). Hash gate on the per-lang integer sufficient
    statistics; same degeneration pattern as `lm_perplexity`."""
    import pyarrow as pa

    from smartreader_ray.functions.lm import lm_score_by, train_bigram_lm_by

    docs = _docs(sf_dir)

    def held_filter(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array((ids % 10 == 0) & (ids < 25_000)))

    models = train_bigram_lm_by(
        docs.map_batches(held_filter, batch_format="pyarrow")
    )
    return lm_score_by(docs, models).select_columns(
        ["doc_id", "lang", "n_trans", "sum_bigram_c", "sum_prefix_c",
         "n_oov"]
    )


def _q_lm_gate_chain(sf_dir: str):
    """Composed chain #4 (round 4): per-language LM scoring → OOV-rate
    quality gate (keep docs with ≤ 25 % out-of-model transitions — the
    CCNet keep-the-head move) → per-language corpus rollup. Three
    streaming stages, ONE SQL statement as oracle — the composition is
    what's being proven, not the pieces."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.exchange import keyed_agg
    from smartreader_ray.functions.lm import lm_score_by, train_bigram_lm_by

    docs = _docs(sf_dir)

    def held_filter(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array((ids % 10 == 0) & (ids < 25_000)))

    models = train_bigram_lm_by(
        docs.map_batches(held_filter, batch_format="pyarrow")
    )
    scored = lm_score_by(docs, models)

    def gate(b: pa.Table) -> pa.Table:
        keep = pc.less_equal(
            pc.multiply(b.column("n_oov"), pa.scalar(4, type=pa.int64())),
            b.column("n_trans"),
        )
        return b.filter(keep).select(["lang", "n_trans", "n_oov"])

    return (
        keyed_agg(scored.map_batches(gate, batch_format="pyarrow"), "lang",
                  {"n_docs": ("count", None),
                   "total_trans": ("sum", "n_trans"),
                   "total_oov": ("sum", "n_oov")})
    )


def _q_ccnet_buckets(sf_dir: str):
    """CCNet's head/middle/tail split (Wenzek et al. 2020): per-language
    bigram LM on the fixed held-in slice, per-doc code length as an
    order-independent int64 micro-nat sum (the DSIR stamp discipline —
    `functions/lm.py: _MbitsScorerBy`), then each language's docs bucket
    into perplexity terciles via ONE TeraSort-shape global_rank over the
    lang-major composite key. The canonical LM-based curation step;
    fully hash-gated (stamps, sums, integer rank key and tercile are
    all SQL-replayable)."""
    import pyarrow as pa

    from smartreader_ray.functions.lm import ccnet_head_middle_tail

    docs = _docs(sf_dir)

    def held_filter(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array((ids % 10 == 0) & (ids < 25_000)))

    return ccnet_head_middle_tail(
        docs, docs.map_batches(held_filter, batch_format="pyarrow")
    )


def _q_ccnet_keep_chain(sf_dir: str):
    """Composed chain #22: the full CCNet curation move — per-lang LM
    tercile bucketing (`ccnet_buckets`) → DROP the tail tercile → the
    kept corpus per language (docs, transitions, total code length).
    One streaming filter + rollup over the bucket stage; ONE SQL
    statement as oracle."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.exchange import keyed_agg

    buckets = _q_ccnet_buckets(sf_dir)

    def keep(b: pa.Table) -> pa.Table:
        return b.filter(
            pc.not_equal(b.column("bucket"), pa.scalar("tail"))
        ).select(["lang", "n_trans", "mbits"])

    return (
        keyed_agg(buckets.map_batches(keep, batch_format="pyarrow"), "lang",
                  {"n_docs": ("count", None),
                   "total_trans": ("sum", "n_trans"),
                   "total_mbits": ("sum", "mbits")})
    )


def _q_source_crossent(sf_dir: str):
    """Cross-source LM divergence matrix (`functions/lm.py:
    source_crossent`): total stamped code length of each source's
    transitions under every source's bigram model — one distributed
    (source, w1, w2) count pass, driver-side vocab²-bounded math,
    every cell an exact int64 the oracle replays."""
    from smartreader_ray.functions import source_crossent

    docs = _read(sf_dir, "documents", ["source", "text"])
    return source_crossent(docs)


def _q_zipf_fit(sf_dir: str):
    """Per-source Zipf-law slope (`functions/ngrams.py: zipf_fit`):
    OLS of ln(freq) on ln(rank) over each source's term-frequency
    table, with all ln values stamped as int64 milli-nats and the fit
    ingredients as exact integer sums — the whole row, float slope
    included (closed form on the ints, round 6), is hash-gated."""
    from smartreader_ray.functions import zipf_fit

    docs = _read(sf_dir, "documents", ["source", "text"])
    return zipf_fit(docs)


def _q_repetition_stats(sf_dir: str):
    """Gopher-style repetition signals. The oracle compares the exact
    integer counts (distinct tokens, top-bigram count); the float
    fractions ride along for API users but stay out of the hash."""
    import pyarrow as pa

    from smartreader_ray.functions import repetition_stats

    def ints_only(b: pa.Table) -> pa.Table:
        return b.select(
            ["doc_id", "n_tokens", "n_distinct", "top_bigram_count", "n_bigrams"]
        )

    return (
        _docs(sf_dir)
        .map_batches(repetition_stats, batch_format="pyarrow")
        .map_batches(ints_only, batch_format="pyarrow")
    )


def _q_pack_sequences(sf_dir: str):
    """Greedy sequence packing into 1024-token training rows,
    shard-deterministic (shard = doc_id // 100). The greedy reset is
    replayed exactly by a recursive-CTE oracle (one recursion step per
    doc within a shard, depth ≤ shard_size). fill_frac is projected out
    of the compare: it is a pure function of n_tokens but float
    rounding conventions differ between Python (banker's) and SQL
    (half-up) at exact 7th-digit ties (t = 8k, k odd)."""
    from smartreader_ray.functions import pack_sequences

    return pack_sequences(
        _docs(sf_dir), max_tokens=1024, shard_size=100
    ).select_columns(["pack_id", "n_docs", "n_tokens"])


def _q_quality_gate(sf_dir: str):
    """Corpus gating at an EXACT per-language median length: thresholds
    come from the distributed value-count histogram
    (``exact_quantile_by`` — only (lang, n_chars, count) rows cross the
    exchange, never the corpus), broadcast as a plain dict (5 keys),
    then one streaming vectorized filter pass keeps docs above their
    language's median — the "threshold at p50 quality" curation step
    computed WITHOUT a global sort. quantile_disc semantics → exact SQL
    oracle. (``approx_quantile_by`` remains the sketch path, exercised
    by value_quantiles.)"""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions import exact_quantile_by

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    med = {
        r["lang"]: r["value"]
        for r in exact_quantile_by(docs, "lang", "n_chars",
                                   qs=(0.5,)).take_all()
    }
    langs = pa.array(sorted(med), type=pa.string())
    thresholds = pa.array([med[lg.as_py()] for lg in langs],
                          type=pa.float64())

    def gate(b: pa.Table) -> pa.Table:
        # vectorized lang → threshold lookup; unknown langs map to null
        # and null > x is null → filtered out (matches dict-miss drop)
        idx = pc.index_in(b.column("lang"), value_set=langs)
        thr = pc.take(thresholds, idx)
        mask = pc.greater(
            pc.cast(b.column("n_chars"), pa.float64()), thr
        )
        return b.filter(mask).select(["lang", "doc_id"])

    return docs.map_batches(gate, batch_format="pyarrow")


def _q_gopher_gate(sf_dir: str):
    """Gopher-style document-quality rule cascade (`functions/textstats.py:
    gopher_rules` — Rae et al. 2021 Table A1 shape): five rules evaluated
    in fixed order with EXACT cross-multiplied integer comparisons (no
    float thresholds), one stateless vectorized map_batches pass — the
    verdict column is the first failing rule or "pass". Scale shape:
    embarrassingly parallel scan; only (doc_id, n_words, verdict) rows
    leave each block."""
    from smartreader_ray.functions.textstats import gopher_rules

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return docs.map_batches(gopher_rules, batch_format="pyarrow")


def _q_dsir_select(sf_dir: str):
    """DSIR-shaped importance selection (`functions/sampling.py:
    dsir_select` — Xie et al. 2023): hashed-unigram (md5 % 256 buckets)
    log-likelihood-ratio scoring of every doc against the lang='en'
    target slice, integer bucket weights floor(1e6·ln(·)) stamped once
    on the driver (256 rows), per-doc score an order-independent int64
    sum, partial top-k reduce. Two streaming passes; the histogram
    exchange is bucket-count-sized, never corpus-sized."""
    from smartreader_ray.functions.sampling import dsir_select

    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    return dsir_select(docs, target_lang="en", n_buckets=256, k=100)


def _sitemap_gated(sf_dir: str):
    """Shared builder for the sitemap chains: build→index-validate→
    re-parse→robots-gate→freshness-filter; see `_q_sitemap_gate`."""
    return _q_sitemap_gate(sf_dir)


def _q_crawl_budget_chain(sf_dir: str):
    """Composed crawl chain #17: sitemap discovery survivors → per-host
    frontier size → Hamilton apportionment of 1000 fetch slots
    (`functions/reshape.py: largest_remainder_alloc` — exact integer
    quotas summing to the budget, remainder ties broken by host). The
    crawl story end to end: discover → gate → budget."""
    import pyarrow as pa

    from smartreader_ray.functions.reshape import largest_remainder_alloc

    gated = _sitemap_gated(sf_dir)

    def weigh(b: pa.Table) -> pa.Table:
        import numpy as np
        return pa.Table.from_pydict({
            "host": b.column("host"),
            "w": pa.array(np.ones(b.num_rows), type=pa.float64()),
        })

    weighted = gated.map_batches(weigh, batch_format="pyarrow")
    return largest_remainder_alloc(
        weighted, "host", "w", total_units=1000)


def _q_sitemap_gate(sf_dir: str):
    """Sitemap-discovery round trip (`sources/sitemap.py` — the crawl
    leg between robots politeness and WARC ingestion): deterministic
    per-host urlset blobs are BUILT from the documents table (7 hosts,
    one per-host map_groups), validated against a sitemapindex of
    their locs, RE-PARSED by the from-scratch namespace-tolerant XML
    parser, then gated by RFC 9309 robots rules (longest-prefix, Allow
    wins ties — /doc/12* allowed inside disallowed /doc/1*) and a
    lastmod freshness cutoff. The oracle replays the URL/lastmod
    arithmetic and the gate directly off doc_id — any writer/parser
    asymmetry breaks the hash (the warc_extract pattern)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.exchange import map_groups
    from smartreader_ray.functions.robots import (parse_robots_txt,
                                                  robots_gate)
    from smartreader_ray.sources.sitemap import (make_sitemap,
                                                 make_sitemap_index,
                                                 parse_sitemap)

    docs = _read(sf_dir, "documents", ["doc_id"])

    def stamp(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        host = [f"ex{i % 7}.org" for i in ids.tolist()]
        url = [f"https://ex{i % 7}.org/doc/{i}" for i in ids.tolist()]
        lastmod = [f"2024-{1 + (i % 12):02d}-{1 + (i % 28):02d}"
                   for i in ids.tolist()]
        return pa.Table.from_pydict({
            "host": pa.array(host, type=pa.string()),
            "url": pa.array(url, type=pa.string()),
            "lastmod": pa.array(lastmod, type=pa.string()),
        })

    def to_blob(g: pa.Table) -> pa.Table:
        order = pc.sort_indices(g, sort_keys=[("url", "ascending")])
        g = g.take(order)
        entries = list(zip(g.column("url").to_pylist(),
                           g.column("lastmod").to_pylist()))
        return pa.Table.from_pydict({
            "host": g.column("host").slice(0, 1),
            "payload": pa.array([make_sitemap(entries)],
                                type=pa.binary()),
        })

    # 7 rows; consumed for index check + parse
    blobs = map_groups(docs.map_batches(stamp, batch_format="pyarrow"),
                       "host", to_blob).materialize()

    # two-level discovery: the index must enumerate exactly the blobs
    hosts = sorted(r["host"] for r in blobs.select_columns(["host"])
                   .take_all())
    index = make_sitemap_index(
        [f"https://{h}/sitemap.xml" for h in hosts])
    kind, children = parse_sitemap(index)
    assert kind == "sitemapindex" and len(children) == len(hosts)

    def parse_blob(b: pa.Table) -> pa.Table:
        out_h, out_u, out_m, out_p = [], [], [], []
        for h, payload in zip(b.column("host").to_pylist(),
                              b.column("payload").to_pylist()):
            k, entries = parse_sitemap(payload)
            if k != "urlset":
                continue  # error row policy: skip non-urlset children
            for loc, lastmod in entries:
                out_h.append(h)
                out_u.append(loc)
                out_m.append(lastmod or "")
                out_p.append(loc.split(".org", 1)[1])
        return pa.Table.from_pydict({
            "host": pa.array(out_h, type=pa.string()),
            "url": pa.array(out_u, type=pa.string()),
            "lastmod": pa.array(out_m, type=pa.string()),
            "path": pa.array(out_p, type=pa.string()),
        })

    rules = parse_robots_txt(
        "User-agent: *\nDisallow: /doc/1\nAllow: /doc/12\n")
    gated = robots_gate(
        blobs.map_batches(parse_blob, batch_format="pyarrow"),
        {h: rules for h in hosts})
    return (gated.filter(
        expr="allowed == True and lastmod >= '2024-07-01'")
        .select_columns(["host", "url", "lastmod"]))


def _q_bitext_mine(sf_dir: str):
    """Margin-criterion bitext mining (`functions/similarity.py:
    bitext_mine` — CCMatrix/LASER shape): label-0 vectors mined against
    broadcast label-1 side, top-2 target neighbors + mutual-top-1 flag,
    one streaming matmul pass per direction, zero exchange. Floats
    dropped from the output (rank contract shared with ann_topk)."""
    from smartreader_ray.functions.similarity import bitext_mine

    emb = _read(sf_dir, "embeddings")
    return bitext_mine(emb, src_label=0, tgt_label=1)


def _q_blocklist_rates(sf_dir: str):
    """Content-policy blocklist screening (the C4 "bad words" step) as
    the per-source audit artifact: a doc is BLOCKED iff any whitespace
    token equals a blocklist entry (token-equality, not substring — no
    Scunthorpe false positives), rolled up per source as (n_docs,
    n_blocked). One vectorized tokenize + ONE is_in kernel per block
    (the blocklist ships inside the closure — pattern-count-
    independent), per-block (source, n, blocked) partials, source-sized
    exchange."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.exchange import keyed_agg

    blocklist = pa.array(["dup", "slow"], type=pa.string())

    docs = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def partial(b: pa.Table) -> pa.Table:
        toks = pc.split_pattern(
            pc.utf8_trim_whitespace(
                pc.coalesce(pc.cast(b.column("text"), pa.string()),
                            pa.scalar("", type=pa.string()))), " ")
        toks = toks.combine_chunks()
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        hit = pc.is_in(toks.flatten(), value_set=blocklist).to_numpy(
            zero_copy_only=False)
        row = np.repeat(np.arange(len(lens)), lens)
        blocked = np.zeros(b.num_rows, dtype=bool)
        blocked[row[hit]] = True
        return pa.Table.from_pydict({
            "source": b.column("source"),
            "n_docs": pa.array(np.ones(b.num_rows, np.int64)),
            "n_blocked": pa.array(blocked.astype(np.int64)),
        })

    return (keyed_agg(docs.map_batches(partial, batch_format="pyarrow"),
                      "source", {"n_docs": ("sum", "n_docs"),
                                 "n_blocked": ("sum", "n_blocked")}))


def _q_novelty_decay(sf_dir: str):
    """Corpus-saturation curve: the novel-8-gram ratio per doc-id
    decile — how fast a GROWING corpus stops contributing new spans
    (the go/no-go signal for 'keep crawling this source?'). Rides
    `ngram_novelty`; the decile rollup carries exact integer sums, and
    the ratio is ONE division stamped on ten rows."""
    import numpy as np
    import pyarrow as pa

    from smartreader_ray.functions.exchange import keyed_agg

    # the novelty table is thin (doc_id, n_windows, n_novel) but its
    # LINEAGE is the full window-hash emit + keyed min —
    # materialize before the two consumers below (count + decile
    # rollup), or Ray re-executes that whole replay per consumer
    nv = _q_ngram_novelty(sf_dir).materialize()
    n = nv.count()

    def decile(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False).astype(
            np.int64)
        # doc ids are dense 0..n-1 in this corpus; rank == id + 1
        d = ids * 10 // n + 1
        return pa.Table.from_pydict({
            "decile": pa.array(np.minimum(d, 10), type=pa.int64()),
            "n_windows": b.column("n_windows"),
            "n_novel": b.column("n_novel"),
        })

    agg = keyed_agg(nv.map_batches(decile, batch_format="pyarrow"),
                    "decile", {"n_windows": ("sum", "n_windows"),
                               "n_novel": ("sum", "n_novel")})

    def ratio(b: pa.Table) -> pa.Table:
        w = b.column("n_windows").to_numpy(zero_copy_only=False).astype(
            np.float64)
        nn = b.column("n_novel").to_numpy(zero_copy_only=False).astype(
            np.float64)
        return b.append_column(
            "novel_ratio", pa.array(nn / w, type=pa.float64()))

    return agg.map_batches(ratio, batch_format="pyarrow")


def _q_source_entropy(sf_dir: str):
    """Per-source token-distribution entropy — the lexical-diversity
    metric behind 'is this source templated junk?': H ≈ Σ_terms
    floor(10⁹ · (c/N) · ln(N/c)) in NANO-NATS, an ORDER-INDEPENDENT
    integer sum (the DSIR floored-ln trick — a float Σ −p·ln p would
    be summation-order-dependent and unhashable across engines).
    Per-(source, term) counts are the only exchange (vocab × sources);
    the per-term float tree is evaluated once per distinct count pair
    and floored before any aggregation."""
    import math

    import pyarrow as pa

    from smartreader_ray.functions.exchange import keyed_agg, keyed_agg_table
    from smartreader_ray.functions.ngrams import _source_term_counts

    docs = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    counts = _source_term_counts(docs, "text", "source").materialize()
    tot = keyed_agg_table(counts, "source", {"c": ("sum", "c")})
    totals = dict(zip(tot.column("source").to_pylist(),
                      tot.column("c").to_pylist()))

    def nano_nats(b: pa.Table) -> pa.Table:
        srcs = b.column("source").to_pylist()
        cs = b.column("c").to_pylist()
        vals = [math.floor(1_000_000_000.0
                           * (float(c) / float(totals[s]))
                           * math.log(float(totals[s]) / float(c)))
                for s, c in zip(srcs, cs)]
        return pa.Table.from_pydict({
            "source": b.column("source"),
            "h": pa.array(vals, type=pa.int64()),
            "n_terms": pa.array([1] * b.num_rows, type=pa.int64()),
        })

    return (keyed_agg(counts.map_batches(nano_nats, batch_format="pyarrow"),
                      "source", {"entropy_nanonats": ("sum", "h"),
                                 "n_distinct_terms": ("sum", "n_terms")}))


def _q_source_risk_rank(sf_dir: str):
    """Composed chain #20 — confidence-adjusted source risk ranking:
    the per-source blocklist rates (`blocklist_rates`) ranked by the
    WILSON LOWER BOUND of the blocked proportion (z = 1.96) — the
    standard small-sample-safe ranking (a 1/2 source never outranks a
    40/100 source). The bound is ONE shared IEEE expression tree on
    exact integer counts (sqrt is correctly rounded in both engines;
    z², z²/2, z²/4 written as explicit products so both sides fold the
    same constants), stamped on the source-count-sized rollup only."""
    import math

    import pyarrow as pa

    rates = _q_blocklist_rates(sf_dir)

    def stamp(b: pa.Table) -> pa.Table:
        z = 1.96
        out = []
        for n, k in zip(b.column("n_docs").to_pylist(),
                        b.column("n_blocked").to_pylist()):
            nf, p = float(n), float(k) / float(n)
            lb = ((p + z * z / (2.0 * nf)
                   - z * math.sqrt((p * (1.0 - p)
                                    + z * z / (4.0 * nf)) / nf))
                  / (1.0 + z * z / nf))
            out.append(lb)
        return pa.Table.from_pydict({
            "source": b.column("source"),
            "n_docs": b.column("n_docs"),
            "n_blocked": b.column("n_blocked"),
            "wilson_lb": pa.array(out, type=pa.float64()),
        })

    return rates.map_batches(stamp, batch_format="pyarrow")


def _q_hybrid_search(sf_dir: str):
    """Composed chain #19 — hybrid retrieval with Reciprocal-Rank
    Fusion (Cormack et al., the standard BM25 ⊕ vector fusion): the
    lexical system is `bm25_search` (["spark","merge"], top-50 ranks),
    the vector system is exact cosine top-50 against the broadcast
    query vector (vec_id 0; vec_id ≡ doc_id in this corpus), and
    RRF = 1/(60+r_lex) + 1/(60+r_vec) with missing-system terms 0 —
    an EXPLICIT two-term float sum on integer ranks (the bm25
    contract), fused driver-side over the two k-sized rank tables
    (the ann_topk merge pattern; both inputs are ≤ 50 rows by
    construction). Top-20 by (rrf DESC, doc_id)."""
    import numpy as np
    import pyarrow as pa

    from smartreader_ray.functions.ngrams import bm25_search
    from smartreader_ray.functions.similarity import ann_topk

    docs = _docs(sf_dir)
    lex = bm25_search(docs, ["spark", "merge"], k=50).take_all()
    lex_rank = {r["doc_id"]: i + 1 for i, r in enumerate(lex)}

    emb = _read(sf_dir, "embeddings")
    qvec = None
    for b in (emb.filter(expr="vec_id == 0")
              .iter_batches(batch_format="pyarrow")):
        if b.num_rows:
            qvec = np.asarray(b.column("embedding")[0].as_py(),
                              dtype=np.float64)
            break
    vec = ann_topk(emb, qvec.reshape(1, -1), k=50)
    vec_rank = {v: i + 1 for i, v in
                enumerate(vec.column("vec_id").to_pylist())}

    ids = sorted(set(lex_rank) | set(vec_rank))
    rrf = []
    for d in ids:
        s = 0.0
        if d in lex_rank:
            s = s + 1.0 / (60.0 + lex_rank[d])
        if d in vec_rank:
            s = s + 1.0 / (60.0 + vec_rank[d])
        rrf.append((d, s))
    rrf.sort(key=lambda t: (-t[1], t[0]))
    top = rrf[:20]
    return pa.Table.from_pydict({
        "doc_id": pa.array([d for d, _ in top], type=pa.int64()),
        "rrf": pa.array([s for _, s in top], type=pa.float64()),
    })


def _q_term_drift(sf_dir: str):
    """Vocabulary-drift screen between corpus halves (the train/eval
    distribution-mismatch check): per term, occurrence counts in the
    doc_id-lower half vs upper half and the 2×2 χ² statistic, for the
    50 highest-total terms. Integer sufficient statistics cross the
    (vocab-sized) exchange; χ² is stamped on the 50-row top-k only,
    as ONE shared IEEE expression tree (the pmi_pairs float
    contract): e1 = t·T1/(T1+T2); chi2 = (c1−e1)²/e1 + (c2−e2)²/e2
    with explicit left-assoc addition."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from smartreader_ray.functions.exchange import keyed_agg
    from smartreader_ray.functions.ngrams import _tokens_flat
    from smartreader_ray.functions.topk import top_k

    docs = _docs(sf_dir)
    half = docs.count() // 2

    def halves(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        flat, row_idx, _ = _tokens_flat(b, "text")
        lo = (ids < half)[row_idx].astype(np.int64)
        return pa.table({"term": flat, "c1": lo, "c2": 1 - lo})

    counts = (keyed_agg(docs.map_batches(halves, batch_format="pyarrow"),
                        "term", {"c1": ("sum", "c1"), "c2": ("sum", "c2")})
              ).materialize()  # vocab-sized; consumed twice (totals +
    # top-k cut) — without this each consumer re-runs the tokenize +
    # groupby exchange over the full corpus
    tot = counts.aggregate(Sum("c1", alias_name="t1"),
                           Sum("c2", alias_name="t2"))
    t1, t2 = float(tot["t1"]), float(tot["t2"])

    def with_total(b: pa.Table) -> pa.Table:
        return b.append_column("__t", pc.add(b.column("c1"), b.column("c2")))

    top = top_k(counts.map_batches(with_total, batch_format="pyarrow"),
                [("__t", "descending"), ("term", "ascending")], 50)

    def stamp(b: pa.Table) -> pa.Table:
        c1 = b.column("c1").to_numpy(zero_copy_only=False).astype(
            np.float64)
        c2 = b.column("c2").to_numpy(zero_copy_only=False).astype(
            np.float64)
        t = c1 + c2
        e1 = t * t1 / (t1 + t2)
        e2 = t * t2 / (t1 + t2)
        chi2 = (c1 - e1) * (c1 - e1) / e1 + (c2 - e2) * (c2 - e2) / e2
        return pa.Table.from_pydict({
            "term": b.column("term"),
            "c1": b.column("c1"),
            "c2": b.column("c2"),
            "chi2": pa.array(chi2, type=pa.float64()),
        })

    return top.map_batches(stamp, batch_format="pyarrow")


def _q_bm25_search(sf_dir: str):
    """BM25 ranked retrieval (`functions/ngrams.py: bm25_search`) for
    the two-term query ["spark", "merge"]: integer tf/len/df
    sufficient stats, driver-side libm idf (term-count-sized), the
    score's float tree written identically on both sides (explicit
    left-assoc term sum, constant-folded (1.2+1.0)/(1.0-0.75) literals
    so k1+1 and 1-b are bit-identical), partial top-20 reduce."""
    from smartreader_ray.functions.ngrams import bm25_search

    return bm25_search(_docs(sf_dir), ["spark", "merge"], k=20)


_SEARCH_EVAL_QUERIES = [("table", "hash"), ("merge", "group"),
                        ("slow", "key"), ("customer", "join"),
                        ("vector", "small"), ("spark", "spark")]


def _q_search_eval(sf_dir: str):
    """Retrieval-quality evaluation (`functions/ngrams.py:search_eval`):
    six 2-term BM25 queries graded against exact-phrase binary
    relevance — hits / first_rank / MRR / DCG / nDCG@10 per query, with
    the harmonic gain table scaled by lcm(1..11)=27720 so every rank
    metric is an exact int64 and nDCG is ONE IEEE division (the
    containment_pairs float contract). One stats pass + one corpus
    aggregate + per-block top-k reduce; the last query ("spark spark",
    a self-bigram) exercises the zero-relevance path."""
    from smartreader_ray.functions.ngrams import search_eval

    return search_eval(_docs(sf_dir), _SEARCH_EVAL_QUERIES, k=10)


def _search_eval_oracle() -> str:
    """Generated oracle for search_eval: shared tf/len/rel stats CTE,
    then per query a BM25 scoring CTE (bit-identical float tree to
    `bm25_search`'s proven oracle), a top-10 ranking, and integer
    harmonic-gain metrics; UNION ALL over queries."""
    terms = sorted({t for q in _SEARCH_EVAL_QUERIES for t in q})
    t_idx = {t: j for j, t in enumerate(terms)}
    tf_cols = ",\n".join(
        f"CAST(len(list_filter(a, x -> x = '{t}')) AS BIGINT) AS tf{j}"
        for t, j in t_idx.items())
    rel_cols = ",\n".join(
        "CASE WHEN len(list_filter(generate_series(1, len(a) - 1), "
        f"i -> list_extract(a, i) = '{t1}' AND "
        f"list_extract(a, i + 1) = '{t2}')) > 0 "
        f"THEN 1 ELSE 0 END AS rel{qi}"
        for qi, (t1, t2) in enumerate(_SEARCH_EVAL_QUERIES))
    df_cols = ",\n".join(
        f"CAST(count(*) FILTER (tf{j} > 0) AS DOUBLE) AS df{j}"
        for j in range(len(terms)))
    nrel_cols = ",\n".join(
        f"CAST(sum(rel{qi}) AS BIGINT) AS nrel{qi}"
        for qi in range(len(_SEARCH_EVAL_QUERIES)))

    def term_expr(j: int) -> str:
        return (f"ln(1.0 + (n - df{j} + 0.5) / (df{j} + 0.5)) * "
                f"((tf{j} * (1.2 + 1.0)) / (tf{j} + 1.2 * "
                "((1.0 - 0.75) + 0.75 * (len / (sl / n)))))")

    blocks = []
    for qi, (t1, t2) in enumerate(_SEARCH_EVAL_QUERIES):
        j0, j1 = t_idx[t1], t_idx[t2]
        blocks.append(f"""
            SELECT '{t1} {t2}' AS query,
                   (SELECT nrel{qi} FROM tot) AS n_relevant,
                   CAST(coalesce(sum(CASE WHEN rel = 1 THEN 1 END), 0)
                        AS BIGINT) AS hits,
                   CAST(coalesce(min(rnk) FILTER (rel = 1), 0)
                        AS BIGINT) AS first_rank,
                   CAST(CASE WHEN min(rnk) FILTER (rel = 1) IS NULL
                        THEN 0 ELSE 27720 // (min(rnk) FILTER (rel = 1))
                        END AS BIGINT) AS mrr_q27720,
                   CAST(coalesce(sum(27720 // (rnk + 1))
                                 FILTER (rel = 1), 0) AS BIGINT)
                       AS dcg_q27720,
                   CAST(coalesce(list_sum(list_transform(
                        generate_series(1, LEAST(CAST(
                            (SELECT nrel{qi} FROM tot) AS BIGINT), 10)),
                        i -> 27720 // (i + 1))), 0) AS BIGINT)
                       AS idcg_q27720
            FROM (
                SELECT rel{qi} AS rel,
                       row_number() OVER (ORDER BY
                           {term_expr(j0)} + {term_expr(j1)} DESC,
                           doc_id) AS rnk
                FROM pd, tot WHERE tf{j0} > 0 OR tf{j1} > 0
            ) WHERE rnk <= 10""")
    union = "\nUNION ALL\n".join(blocks)
    return f"""
        WITH base AS (
            SELECT doc_id, string_split(trim(text), ' ') AS a
            FROM documents
        ),
        pd AS (
            SELECT doc_id, CAST(len(a) AS BIGINT) AS len,
                   {tf_cols},
                   {rel_cols}
            FROM base
        ),
        tot AS (
            SELECT CAST(count(*) AS DOUBLE) AS n,
                   CAST(sum(len) AS DOUBLE) AS sl,
                   {df_cols},
                   {nrel_cols}
            FROM pd
        ),
        m AS ({union})
        SELECT query, n_relevant, hits, first_rank, mrr_q27720,
               dcg_q27720, idcg_q27720,
               CASE WHEN idcg_q27720 = 0 THEN 0.0
                    ELSE CAST(dcg_q27720 AS DOUBLE)
                         / CAST(idcg_q27720 AS DOUBLE) END AS ndcg
        FROM m ORDER BY query
    """


def _q_benford_audit(sf_dir: str):
    """Benford first-significant-digit audit over lineitem prices —
    the classic fabricated-data / ETL-corruption screen: per digit
    1–9, the observed count plus the Benford expectation
    ``ln((d+1)/d)/ln(10)`` (ONE shared libm expression, the pmi_pairs
    float contract). Counts are exact int64 over cents; the digit is
    extracted by a log-step vectorized integer divide (≤ 12 numpy
    passes), digit-sized exchange."""
    import math

    import numpy as np
    import pyarrow as pa

    from smartreader_ray.functions.exchange import keyed_agg

    li = _read(sf_dir, "lineitem", ["l_extendedprice"])

    def first_digits(b: pa.Table) -> pa.Table:
        p = b.column("l_extendedprice").to_numpy(zero_copy_only=False)
        x = np.floor(p * 100.0 + 0.5).astype(np.int64)
        x = x[x > 0]
        while len(x) and x.max() >= 10:
            m = x >= 10
            x[m] //= 10
        return pa.table({"digit": x})

    agg = (keyed_agg(li.map_batches(first_digits, batch_format="pyarrow"),
                     "digit", {"n": ("count", None)}))

    def stamp(b: pa.Table) -> pa.Table:
        d = b.column("digit").to_numpy(zero_copy_only=False)
        exp = [math.log((dd + 1.0) / dd) / math.log(10.0)
               for dd in d.tolist()]
        return pa.Table.from_pydict({
            "digit": b.column("digit"),
            "n": b.column("n"),
            "benford_p": pa.array(exp, type=pa.float64()),
        })

    return agg.map_batches(stamp, batch_format="pyarrow")


def _q_source_overlap(sf_dir: str):
    """Cross-source contamination matrix: for every source pair
    (a < b), how many DISTINCT normalized contents appear in both —
    the inter-source leakage map that decides which sources need
    cross-dedup before mixing. "Content" here is the exact-dedup
    5-token prefix key (`dedup_key_batch` — full-content equality
    yields an empty matrix on this corpus; shared PREFIXES are the
    boilerplate signal). Engine groups by the vectorized FNV-1a hash
    of the key, the oracle by the key string — equivalent modulo
    collisions, the `fingerprint_dedup` contract.

    No per-group Python anywhere: (fp, source_idx) rows are
    block-deduped, globally deduped by a two-key groupby count, folded
    to one mask row per fp via SUM (each bit present at most once per
    fp after the dedup, so SUM == OR; loud <63-source bound), and
    mask→pair expansion is a stateless map. Exchanges are
    fingerprint-count-sized, payloads never move."""
    import numpy as np
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from smartreader_ray.functions.dedup import _hash64, dedup_key_batch
    from smartreader_ray.functions.exchange import keyed_agg, keyed_agg_table

    docs = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    sources = keyed_agg_table(docs.select_columns(["source"]), "source",
                              {}).column("source").to_pylist()  # sorted
    if len(sources) >= 63:
        raise ValueError("source_overlap: >=63 sources — widen the "
                         "mask to multiple int64 lanes")
    idx_of = {s: i for i, s in enumerate(sources)}

    def keyed(b: pa.Table) -> pa.Table:
        keys = dedup_key_batch(b).column("dup_key").to_pylist()
        fp = _hash64(keys).astype(np.int64)
        src = np.fromiter((idx_of[s] for s in
                           b.column("source").to_pylist()),
                          dtype=np.int64, count=b.num_rows)
        # block-level dedup before the exchange
        u = np.unique(np.stack([fp, src], axis=1), axis=0)
        return pa.Table.from_pydict({
            "fp": pa.array(u[:, 0], type=pa.int64()),
            "src": pa.array(u[:, 1], type=pa.int64()),
        })

    masks = (keyed_agg(docs.map_batches(keyed, batch_format="pyarrow"),
                       ["fp", "src"], {"_n": ("count", None)})
             .map_batches(lambda b: pa.Table.from_pydict({
                 "fp": b.column("fp"),
                 "mask": pa.array(
                     np.int64(1) << b.column("src").to_numpy(
                         zero_copy_only=False).astype(np.int64),
                     type=pa.int64()),
             }), batch_format="pyarrow")
             .groupby("fp")
             .aggregate(Sum("mask", alias_name="mask")))

    def pairs(b: pa.Table) -> pa.Table:
        out_k = []
        for m in b.column("mask").to_numpy(zero_copy_only=False).tolist():
            bits = [i for i in range(len(sources)) if m >> i & 1]
            for x in range(len(bits)):
                for y in range(x + 1, len(bits)):
                    out_k.append(bits[x] * 64 + bits[y])
        return pa.Table.from_pydict({
            "pk": pa.array(out_k, type=pa.int64()),
        })

    src_arr = np.array(sources)

    def name(b: pa.Table) -> pa.Table:
        pk = b.column("pk").to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict({
            "source_a": pa.array(src_arr[pk // 64], type=pa.string()),
            "source_b": pa.array(src_arr[pk % 64], type=pa.string()),
            "n_shared": b.column("n_shared"),
        })

    return (keyed_agg(masks.map_batches(pairs, batch_format="pyarrow"), "pk",
                      {"n_shared": ("count", None)})
            .map_batches(name, batch_format="pyarrow"))


def _q_vocab_coverage(sf_dir: str):
    """Tokenizer vocab budgeting: the smallest frequency-ranked
    vocabulary covering 50 / 90 / 99 / 99.9 % of token OCCURRENCES —
    the curve that sizes a tokenizer (or an OOV budget) before
    training. Distributed shape: per-block term-count partials →
    groupby(term) sum (vocab-sized exchange, the same regime as
    tfidf's) → ONE vocab-sized block computes the (cf DESC, term ASC)
    cumulative — the only single-block step, bounded by vocabulary,
    never corpus. All comparisons are cross-multiplied integers
    (cum·1000 ≥ permille·total)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.exchange import keyed_agg
    from smartreader_ray.functions.ngrams import _tokens_flat

    docs = _docs(sf_dir)

    counts = keyed_agg(docs.map_batches(
        lambda b: pa.table({"term": _tokens_flat(b, "text")[0]}),
        batch_format="pyarrow"), "term", {"cf": ("count", None)})

    def curve(b: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            b, sort_keys=[("cf", "descending"), ("term", "ascending")])
        cf = b.take(order).column("cf").to_numpy(
            zero_copy_only=False).astype(np.int64)
        cum = np.cumsum(cf)
        total = int(cum[-1]) if len(cum) else 0
        out_p, out_k, out_c = [], [], []
        for permille in (500, 900, 990, 999):
            k = int(np.searchsorted(cum * 1000, permille * total,
                                    side="left")) + 1
            out_p.append(permille)
            out_k.append(k)
            out_c.append(int(cum[k - 1]) if len(cum) else 0)
        return pa.Table.from_pydict({
            "coverage_permille": pa.array(out_p, type=pa.int64()),
            "vocab_size": pa.array(out_k, type=pa.int64()),
            "covered_tokens": pa.array(out_c, type=pa.int64()),
        })

    return (counts.repartition(1)  # vocab-sized by construction
            .map_batches(curve, batch_format="pyarrow"))


def _q_hrw_resharding(sf_dir: str):
    """HRW elasticity audit: assign every doc at 8 AND 9 shards
    (`functions/sampling.py: rendezvous_shards` twice — pure per-row
    hashing, shuffle-free), roll up per old shard (n_keys, n_moved) —
    the minimal-movement proof as a QUERY artifact: every moved key's
    new home is shard 8, and the expected move fraction is 1/9. The
    capacity-planning check you run before growing a stateful shard
    set online."""
    import numpy as np
    import pyarrow as pa

    from smartreader_ray.functions.exchange import keyed_agg
    from smartreader_ray.functions.sampling import rendezvous_shards

    ds = _read(sf_dir, "documents", ["doc_id"])
    both = rendezvous_shards(
        rendezvous_shards(ds, 8, out_col="shard8"), 9, out_col="shard9")

    def partial(b: pa.Table) -> pa.Table:
        s8 = b.column("shard8").to_numpy(zero_copy_only=False)
        s9 = b.column("shard9").to_numpy(zero_copy_only=False)
        moved = (s8 != s9)
        # minimal movement: a moved key can only have moved TO shard 8
        if bool((s9[moved] != 8).any()):
            raise AssertionError("HRW minimal-movement violated")
        return pa.Table.from_pydict({
            "shard": pa.array(s8, type=pa.int64()),
            "moved": pa.array(moved.astype(np.int64), type=pa.int64()),
        })

    return (keyed_agg(both.map_batches(partial, batch_format="pyarrow"),
                      "shard", {"n_keys": ("count", None),
                                "n_moved": ("sum", "moved")}))


def _q_balanced_interleave(sf_dir: str):
    """Language-balanced round-robin training order
    (`functions/sampling.py: balanced_interleave`): md5-random rank
    within each language, then round-robin interleave across languages
    — two chained TeraSort global_rank passes, langs-sized broadcasts
    only. Oracle: partitioned + global ROW_NUMBER replay."""
    from smartreader_ray.functions.sampling import balanced_interleave

    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    return balanced_interleave(docs, seed="bi")


def _q_epoch_shuffle(sf_dir: str):
    """Deterministic training-epoch permutation (`functions/sampling.py:
    epoch_shuffle`): global 1-based position under md5(seed:id) ranking,
    computed by the TeraSort-shape global_rank (samples + range counts
    on the driver, one range exchange). Oracle: ROW_NUMBER() OVER the
    identical composed key."""
    from smartreader_ray.functions.sampling import epoch_shuffle

    docs = _read(sf_dir, "documents", ["doc_id"])
    return epoch_shuffle(docs, seed="ep1")


def _q_ngram_novelty(sf_dir: str):
    """Per-document novel-8-gram counts (`functions/dedup.py:
    ngram_novelty`): spans ship as md5-derived int64 keys (identical
    hash in the oracle), per-block (key, doc) pre-combine, doc-sized
    rollup, scan-side zero union for sub-window docs."""
    from smartreader_ray.functions.dedup import ngram_novelty

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return ngram_novelty(docs, window=8)


def _q_dsir_gopher_chain(sf_dir: str):
    """Composed curation chain #14: Gopher rule gate → DSIR importance
    selection over the SURVIVORS (target distribution = surviving
    lang='en' docs) → per-language rollup of the top-50 selection
    (n_docs + Σscore). The gate is fused into one vectorized pass
    (verdict computed and filtered in the same batch function); the
    gated corpus is materialized once because DSIR's two passes would
    otherwise re-run the gate per consumer. Everything downstream of
    the gate exchanges only bucket-histogram / k-sized rows."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.exchange import keyed_agg
    from smartreader_ray.functions.sampling import dsir_select
    from smartreader_ray.functions.textstats import gopher_rules

    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang"])

    def gate(b: pa.Table) -> pa.Table:
        verdict = gopher_rules(b).column("verdict")
        return b.filter(pc.equal(verdict, "pass"))

    gated = docs.map_batches(
        gate, batch_format="pyarrow"
    ).materialize()  # consumed twice by DSIR (histogram + scoring pass)
    sel = dsir_select(gated, target_lang="en", n_buckets=256, k=50,
                      carry_cols=("lang",))
    return (keyed_agg(sel, "lang", {"n_docs": ("count", None),
                                    "sum_score": ("sum", "score")}))


def _q_warc_extract(sf_dir: str):
    """WARC → extraction round trip (the crawl-format ingestion leg):
    documents are wrapped as pages, written into per-record-gzipped WARC
    blobs by the deterministic writer, re-read by the from-scratch WARC
    parser, and run through the real extraction pipeline. The oracle is
    exact: extracted text_content must round-trip the source text."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.pipelines import build_extraction_pipeline
    from smartreader_ray.sources import wrap_document_html
    from smartreader_ray.sources.warc import make_warc, warc_pages_batch
    from smartreader_ray.spanio import html_to_spans
    from smartreader_ray.stages.extract import SPAN_TYPE

    def to_warc(batch: pa.Table) -> pa.Table:
        pages = [
            (str(d), wrap_document_html(d, t or ""))
            for d, t in zip(
                batch.column("doc_id").to_pylist(),
                batch.column("text").to_pylist(),
            )
        ]
        return pa.Table.from_pydict(
            {"bytes": pa.array([make_warc(pages, compress=True)],
                               type=pa.binary())}
        )

    def to_spans(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                batch.column("doc_id"),
                pa.array(
                    [html_to_spans(h)
                     for h in batch.column("html").to_pylist()],
                    type=SPAN_TYPE,
                ),
            ],
            names=["doc_id", "spans"],
        )

    spans = (
        _docs(sf_dir)
        .map_batches(to_warc, batch_format="pyarrow")
        .map_batches(warc_pages_batch, batch_format="pyarrow")
        .map_batches(to_spans, batch_format="pyarrow")
    )
    out = build_extraction_pipeline(spans, batch_size=32)

    def project(b: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "doc_id": pc.cast(b.column("doc_id"), pa.int64()),
                "text_content": b.column("text_content"),
            }
        )

    return out.map_batches(project, batch_format="pyarrow")


def _q_top_orders_by_segment(sf_dir: str):
    """Per-key top-k: 5 priciest orders per market segment. Broadcast
    the small customer dim onto orders (zero shuffle), then two-level
    top-k (per-block partial → keyed reduce sees ≤ k×blocks rows per
    key). Deterministic o_orderkey tie-break → exact hash oracle."""
    from smartreader_ray.functions import broadcast_join, top_k_by

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"]
    )
    customer = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    enriched = broadcast_join(
        orders, customer, key="o_custkey", small_key="c_custkey",
        value_cols=["c_mktsegment"],
    )
    return top_k_by(
        enriched, key_col="c_mktsegment", value_col="o_totalprice",
        k=5, tie_col="o_orderkey",
    )


def _q_chunk_documents(sf_dir: str):
    """Overlapping token-window chunking (32-token chunks, stride 24) —
    the embedding-prep flat-map. Pure per-row transform, no shuffle;
    byte-exact SQL oracle."""
    from smartreader_ray.functions import chunk_documents

    return chunk_documents(_docs(sf_dir), chunk_tokens=32, stride=24)


def _q_incremental_neardup(sf_dir: str):
    """Incremental NEAR-dup: index wave 1 (first half) in the sharded
    MinHash-LSH band-key index, then stream wave 2 = second half PLUS
    re-keyed exact copies of wave-1 docs — every copy must be rejected
    (exact dup ⇒ identical signature ⇒ every band hits). LSH hash
    family → rows-only; admit/pollution semantics pinned in
    tests/test_state.py. Returns the wave-2 survivors' doc_ids."""
    import pyarrow as pa

    from smartreader_ray.state import NearDupIndex

    docs = _docs(sf_dir).select_columns(["doc_id", "text"])
    n = docs.count()

    idx = NearDupIndex(num_shards=4)

    def first_half(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids < n // 2))

    def wave2(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        keep = b.filter(pa.array(ids >= n // 2))
        replay = b.filter(pa.array(ids < n // 2))
        replay = replay.set_column(
            0, "doc_id",
            pa.array(replay.column("doc_id").to_numpy(
                zero_copy_only=False) + 10_000_000, type=pa.int64()),
        )
        return pa.concat_tables([keep, replay])

    # wave 1: index everything (consume the stream)
    for _ in idx.filter_new(
        docs.map_batches(first_half, batch_format="pyarrow")
    ).iter_batches(batch_size=None):
        pass
    survivors = idx.filter_new(
        docs.map_batches(wave2, batch_format="pyarrow")
    )
    return survivors.select_columns(["doc_id"])


def _q_incremental_dedup(sf_dir: str):
    """Incremental (cross-job) dedup: index the first half of the corpus
    in the sharded mutable fingerprint index, then stream the second
    half against it — repeats of indexed content drop, new content
    passes. Stateful raw-actor stage (first-arrival wins); the survivor
    SET is deterministic on this corpus (all full texts are distinct →
    exactly the second-half doc_ids survive, every replayed wave-1 copy
    drops), so it hash-gates against plain SQL."""
    import pyarrow as pa

    from smartreader_ray.state import DedupIndex

    docs = _docs(sf_dir).select_columns(["doc_id", "text"])
    n = docs.count()

    def first_half(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids < n // 2))

    def second_half(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids >= n // 2))

    def replay_first_half(b: pa.Table) -> pa.Table:
        # re-keyed copies of wave-1 content: every one must be dropped
        # (this corpus has no natural full-content cross-half dups, so
        # the replicas are what PROVES drops: survivors = n/2, not
        # n/2 + replicas)
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        f = b.filter(pa.array(ids < n // 2))
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(
                    [int(i) + 1_000_000 for i in
                     f.column("doc_id").to_pylist()],
                    type=pa.int64(),
                ),
                "text": f.column("text"),
            }
        )

    index = DedupIndex(num_shards=4)
    # wave 1: index the existing corpus (consume to completion)
    index.filter_new(
        docs.map_batches(first_half, batch_format="pyarrow")
    ).count()
    # wave 2: new second-half content passes; replayed wave-1 content drops
    wave2 = docs.map_batches(second_half, batch_format="pyarrow").union(
        docs.map_batches(replay_first_half, batch_format="pyarrow")
    )
    return index.filter_new(wave2).select_columns(["doc_id"])


def _q_weighted_mix(sf_dir: str):
    """Deterministic weighted corpus mixing (up/down-sample per source):
    src0 kept fully, src1 at 0.5, src2 at 0.25, the rest at 0.1 — a pure
    per-row md5 filter, no shuffle, reproducible across engines."""
    from smartreader_ray.functions import weighted_mix

    ds = _read(sf_dir, "documents", ["doc_id", "source"])
    return weighted_mix(
        ds, {"src0": 1.0, "src1": 0.5, "src2": 0.25}, default_weight=0.1
    )


def _q_dup_passages(sf_dir: str):
    """Substring-level dedup: 8-token passages shared by ≥2 docs.
    Within-doc windows dedupe before the aggregate; exact text keys so
    the oracle is byte-exact."""
    from smartreader_ray.functions import duplicate_passages

    return duplicate_passages(_docs(sf_dir), window=8, min_docs=2)


def _q_substring_lcs(sf_dir: str):
    """Suffix-array-class substring dedup: the EXACT longest shared
    token run per doc pair (k-mer anchors + diagonal gaps-and-islands,
    `functions/dedup.py: longest_common_runs`). Only 8-byte hashed
    window keys + two ints cross the first exchange; the oracle replays
    the diagonal islands off a window-text self-join."""
    from smartreader_ray.functions import longest_common_runs

    return longest_common_runs(_docs(sf_dir), window=8)


def _q_dup_clusters(sf_dir: str):
    """Dedup GROUPS: docs linked by any shared 8-token passage, clustered
    into connected components (cluster_id = min member). Star edges per
    window keep the edge list linear; the oracle replays the component
    math with a recursive CTE."""
    from smartreader_ray.functions import passage_clusters

    return passage_clusters(_docs(sf_dir), window=8)


def _q_dup_clusters_lp(sf_dir: str):
    """The 100 TB clustering path: the SAME star edges as dup_clusters,
    but resolved by distributed label propagation (iterative
    join+groupby-min, no driver union-find, no driver edge
    materialization) — proven against the identical recursive-CTE
    oracle so the scale path can't drift from the exact one."""
    from smartreader_ray.functions import (
        label_propagation_components,
        passage_star_edges,
    )

    edges = passage_star_edges(_docs(sf_dir), window=8)
    return label_propagation_components(edges)


def _q_line_dedup(sf_dir: str):
    """CCNet-style corpus-wide duplicate-line removal
    (`functions/dedup.py:line_dedup`): lines occurring ≥ 2 times across
    the corpus are boilerplate and dropped from every doc; docs are
    re-rendered from the kept lines. The corpus has no newlines, so
    line boundaries are PLANTED deterministically (token groups of
    8 + doc_id%5 joined with '\\n' — the sentence_stats planting
    pattern), which the oracle replays with list slicing; the dedup
    itself is REAL corpus-wide counting (29 flagged lines at sf0.01).
    One thin (hash, count) exchange + a boilerplate-sized broadcast."""
    import pyarrow as pa

    from smartreader_ray.functions import line_dedup

    def plant(b: pa.Table) -> pa.Table:
        out = []
        for did, text in zip(b.column("doc_id").to_pylist(),
                             b.column("text").to_pylist()):
            g = 8 + int(did) % 5
            toks = (text or "").strip().split(" ")
            out.append("\n".join(
                " ".join(toks[i:i + g])
                for i in range(0, len(toks), g)))
        return pa.table({"doc_id": b.column("doc_id"),
                         "text": pa.array(out, type=pa.string())})

    ds = _read(
        sf_dir, "documents", ["doc_id", "text"]
    ).map_batches(plant, batch_format="pyarrow")
    return line_dedup(ds, min_count=2)


def _q_c4_clean_chain(sf_dir: str):
    """Composed chain #37 — the C4/CCNet line-hygiene pipeline end to
    end: plant line boundaries (8 + doc_id%5) → corpus-wide
    duplicate-line removal (`line_dedup`) → gate out boilerplate-heavy
    docs (more than half their lines removed: 2·n_removed > n_lines,
    integer-exact) → stamp each doc's source back via the vectorized
    `hash_join` (doc-sized thin tables, never text) → per-source
    rollup: docs seen/kept/dropped, lines removed, clean chars kept.
    ONE SQL oracle replays the whole chain."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions import line_dedup
    from smartreader_ray.functions.exchange import keyed_agg
    from smartreader_ray.functions.join import hash_join

    def plant(b: pa.Table) -> pa.Table:
        out = []
        for did, text in zip(b.column("doc_id").to_pylist(),
                             b.column("text").to_pylist()):
            g = 8 + int(did) % 5
            toks = (text or "").strip().split(" ")
            out.append("\n".join(
                " ".join(toks[i:i + g])
                for i in range(0, len(toks), g)))
        return pa.table({"doc_id": b.column("doc_id"),
                         "text": pa.array(out, type=pa.string())})

    docs = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    ld = line_dedup(docs.map_batches(plant, batch_format="pyarrow"),
                    min_count=2)

    def stats(b: pa.Table) -> pa.Table:
        n_lines = b.column("n_lines").to_numpy(zero_copy_only=False)
        n_rm = b.column("n_removed").to_numpy(zero_copy_only=False)
        kept = (2 * n_rm <= n_lines).astype(np.int64)
        chars = pc.utf8_length(b.column("clean_text")).to_numpy(
            zero_copy_only=False).astype(np.int64)
        return pa.table({
            "doc_id": b.column("doc_id"),
            "kept": pa.array(kept, type=pa.int64()),
            "lines_removed": b.column("n_removed"),
            "clean_chars": pa.array(chars * kept, type=pa.int64()),
        })

    per_doc = ld.map_batches(stats, batch_format="pyarrow")
    joined = hash_join(
        per_doc, docs.select_columns(["doc_id", "source"]),
        "doc_id", "doc_id",
        ["kept", "lines_removed", "clean_chars"], ["source"])

    return keyed_agg(joined, "source", {
        "n_docs": ("count", None), "n_kept": ("sum", "kept"),
        "lines_removed": ("sum", "lines_removed"),
        "clean_chars": ("sum", "clean_chars")})


def _q_c4_line_gates(sf_dir: str):
    """C4 structural line gates
    (`functions/curation.py:c4_line_gates_batch`, Raffel et al. §2.2):
    drop lines under 3 words, flag docs retaining fewer than 5 lines —
    planted line boundaries (8 + doc_id%5; the remainder line is the
    natural short-line casualty, 88 lines dropped / 184 docs flagged
    at sf0.01). Per-doc kernel, zero shuffle; windowless SQL replay."""
    import pyarrow as pa

    from smartreader_ray.functions import c4_line_gates_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def plant(b: pa.Table) -> pa.Table:
        out = []
        for did, text in zip(b.column("doc_id").to_pylist(),
                             b.column("text").to_pylist()):
            g = 8 + int(did) % 5
            toks = (text or "").strip().split(" ")
            out.append("\n".join(
                " ".join(toks[i:i + g])
                for i in range(0, len(toks), g)))
        return pa.table({"doc_id": b.column("doc_id"),
                         "text": pa.array(out, type=pa.string())})

    return (ds.map_batches(plant, batch_format="pyarrow")
            .map_batches(c4_line_gates_batch, batch_format="pyarrow"))


def _q_intra_dedup(sf_dir: str):
    """Within-document repeated-line removal
    (`functions/dedup.py:intra_line_dedup_batch`) — the intra-doc leg
    of C4 line hygiene (kill copy-paste stutter inside one page; the
    corpus-wide leg is `line_dedup`). Lines are planted at TOKEN
    granularity (spaces → newlines) so the tiny-vocab corpus gives
    every doc real intra-doc repeats; the kernel is per-doc, zero
    shuffle. Oracle replays keep-first-occurrence with a windowed
    row_number."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions import intra_line_dedup_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def plant(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b.column("doc_id"),
            "text": pc.replace_substring(
                pc.utf8_trim_whitespace(b.column("text")), " ", "\n"),
        })

    return (ds.map_batches(plant, batch_format="pyarrow")
            .map_batches(intra_line_dedup_batch, batch_format="pyarrow"))


def _q_pretrain_mix_chain(sf_dir: str):
    """Composed chain #39 — the pretraining-mix tail end to end:
    plant line boundaries → corpus-wide duplicate-line removal
    (`line_dedup`) → drop docs whose cleaned text is empty → re-count
    whitespace tokens on the CLEANED text → stamp lang back via the
    vectorized `hash_join` → exact integer UniMax water-fill of a
    380-doc budget across languages (quota = each language's lowest
    doc_ids among survivors) → greedy first-fit packing of the
    selected docs into 256-token training sequences per language →
    per-language rollup (docs, sequences, tokens). ONE SQL oracle
    replays every stage, the packing via a recursive CTE."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data

    from smartreader_ray.functions import line_dedup
    from smartreader_ray.functions.exchange import keyed_agg_table, map_groups
    from smartreader_ray.functions.join import hash_join
    from smartreader_ray.functions.sampling import unimax_allocation

    def plant(b: pa.Table) -> pa.Table:
        out = []
        for did, text in zip(b.column("doc_id").to_pylist(),
                             b.column("text").to_pylist()):
            g = 8 + int(did) % 5
            toks = (text or "").strip().split(" ")
            out.append("\n".join(
                " ".join(toks[i:i + g])
                for i in range(0, len(toks), g)))
        return pa.table({"doc_id": b.column("doc_id"),
                         "text": pa.array(out, type=pa.string())})

    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    ld = line_dedup(docs.map_batches(plant, batch_format="pyarrow"),
                    min_count=2)

    def tokens(b: pa.Table) -> pa.Table:
        clean = pc.utf8_trim_whitespace(b.column("clean_text"))
        keep = pc.not_equal(clean, "")
        t = b.filter(keep)
        clean = pc.utf8_trim_whitespace(t.column("clean_text"))
        n_tok = pc.cast(pc.list_value_length(
            pc.split_pattern_regex(clean, r"\s+")), pa.int64())
        return pa.table({"doc_id": t.column("doc_id"), "tok": n_tok})

    toks = ld.map_batches(tokens, batch_format="pyarrow")
    tagged = hash_join(toks, docs.select_columns(["doc_id", "lang"]),
                       "doc_id", "doc_id", ["doc_id", "tok"],
                       ["lang"]).materialize()  # counts + selection

    n = keyed_agg_table(tagged, "lang", {"n": ("count", None)})
    counts = dict(zip(n.column("lang").to_pylist(), n.column("n").to_pylist()))
    quota = unimax_allocation(counts, budget=380, max_epochs=1)
    quota_ref = ray.put(quota)

    def pack_group(group: pa.Table) -> pa.Table:
        q = ray.get(quota_ref)
        lang = group.column("lang")[0].as_py()
        ids = group.column("doc_id").to_numpy(zero_copy_only=False)
        tk = group.column("tok").to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")[:int(q.get(lang, 0))]
        n_seqs, cur = 0, 0
        for j in order:
            t = int(tk[j])
            if cur and cur + t > 256:
                cur = 0  # close the open pack; count only on open
            if cur == 0:
                n_seqs += 1
                cur = t
            else:
                cur += t
        return pa.table({
            "lang": pa.array([lang], type=pa.string()),
            "n_docs": pa.array([len(order)], type=pa.int64()),
            "n_seqs": pa.array([n_seqs], type=pa.int64()),
            "n_tokens": pa.array([int(tk[order].sum()) if len(order)
                                  else 0], type=pa.int64()),
        })

    return map_groups(tagged, "lang", pack_group)


def _q_winnow_fps(sf_dir: str):
    """MOSS winnowing fingerprints (Schleimer et al., SIGMOD'03;
    `functions/winnow.py`): FNV-1a over 4-token shingles, window-4
    minimum selection with rightmost tie-break — the local
    fingerprinting scheme guaranteeing any ≥7-token match shares a
    fingerprint at ~2/5 density. Per-doc local compute, zero shuffle;
    the oracle replays the argmin via a packed composite MIN."""
    from smartreader_ray.functions import winnow_fingerprints

    return winnow_fingerprints(_docs(sf_dir), k=4, w=4)


def _q_winnow_dedup(sf_dir: str):
    """Near-dup screen over winnowed fingerprints: doc pairs sharing
    ≥ 2 distinct selected hashes, fingerprint-set sizes stamped via
    the vectorized `hash_join` (never a driver map). The exchanged
    stream is the winnowed density-reduced set, not the shingles."""
    from smartreader_ray.functions import winnow_dedup

    return winnow_dedup(_docs(sf_dir), k=4, w=4, min_shared=2)


def _q_containment_pairs(sf_dir: str):
    """Asymmetric Broder containment over distinct 8-token shingle
    hashes (`functions/winnow.py:containment_pairs`): pairs where
    either side's |A∩B|/|side| reaches 1/2 — the quote/subset signal
    a symmetric Jaccard screen dilutes. Integer keep test; the two
    float columns are each ONE IEEE division of exact ints."""
    from smartreader_ray.functions import containment_pairs

    return containment_pairs(_docs(sf_dir), window=8)


def _q_quote_screen_chain(sf_dir: str):
    """Composed chain #31: containment screen → drop each doc that is
    ≥ 80 % contained (5·shared ≥ 4·n_side, integer-exact) in a doc
    with a LARGER shingle set (doc_id breaks exact-size ties) →
    per-source survivor rollup. The drop set is output-sized and
    broadcast once (`ray.put`), bounded by a loud assert — the
    decontaminate pattern (`__ray_entry__.py` r3 fix)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from smartreader_ray.functions import containment_pairs
    from smartreader_ray.functions.exchange import keyed_agg

    pairs = containment_pairs(_docs(sf_dir), window=8)

    def dropped_ids(b: pa.Table) -> pa.Table:
        sh = b.column("shared").to_numpy(zero_copy_only=False)
        na = b.column("n_a").to_numpy(zero_copy_only=False)
        nb_ = b.column("n_b").to_numpy(zero_copy_only=False)
        da = b.column("doc_a").to_numpy(zero_copy_only=False)
        db = b.column("doc_b").to_numpy(zero_copy_only=False)
        ca = (5 * sh >= 4 * na) & ((na < nb_) | ((na == nb_) & (da > db)))
        cb = (5 * sh >= 4 * nb_) & ((nb_ < na) | ((na == nb_) & (db > da)))
        return pa.table({"d": pa.array(
            np.concatenate([da[ca], db[cb]]), type=pa.int64())})

    dropped: set = set()
    for batch in (pairs.map_batches(dropped_ids, batch_format="pyarrow")
                  .iter_batches(batch_format="pyarrow")):
        dropped.update(batch.column("d").to_pylist())
    assert len(dropped) < 2_000_000, (
        "quote-screen drop set exceeded the broadcast bound — "
        "switch to the hash_join anti path")
    ref = ray.put(dropped)

    def kept(b: pa.Table) -> pa.Table:
        dr = ray.get(ref)
        b = b.filter(pc.is_valid(b.column("source")))
        ids = b.column("doc_id").to_pylist()
        texts = b.column("text").to_pylist()
        keep = np.fromiter((i not in dr for i in ids), dtype=bool,
                           count=len(ids))
        ntok = np.fromiter(
            (len(((t or "").strip()).split(" ")) for t in texts),
            dtype=np.int64, count=len(texts))
        return pa.table({"source": b.column("source").cast(pa.string()),
                         "keep": keep.astype(np.int64),
                         "tok": ntok * keep})

    import ray.data

    docs_src = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    return keyed_agg(docs_src.map_batches(kept, batch_format="pyarrow"),
                     "source", {"n_docs": ("count", None),
                                "n_kept": ("sum", "keep"),
                                "tokens_kept": ("sum", "tok")})


def _q_token_dropout(sf_dir: str):
    """Deterministic word-dropout augmentation
    (`functions/curation.py:token_dropout`): token i of doc d drops
    iff FNV1a("d:i") & 7 = 0 — seedless, partitioning-independent,
    one vectorized hash call per batch; the oracle replays the hash
    and rebuilds the kept string with ordered string_agg."""
    from smartreader_ray.functions import token_dropout

    return token_dropout(_docs(sf_dir), rate_den=8)


def _q_freq_spectrum(sf_dir: str):
    """Good–Turing frequency spectrum
    (`functions/ngrams.py:freq_spectrum`): n_r = distinct terms at
    occurrence count r, mass = r·n_r; the r=1 mass is the GT
    unseen-probability numerator. Second exchange is spectrum-sized."""
    from smartreader_ray.functions import freq_spectrum

    return freq_spectrum(_docs(sf_dir))


def _q_vocab_growth(sf_dir: str):
    """Heaps-law vocabulary growth at doc-rank deciles
    (`functions/ngrams.py:vocab_growth`): first-occurrence
    decomposition (term enters at MIN containing doc) + the TeraSort
    `global_rank` + integer decile arithmetic; the cumulative fill is
    driver math over 10 rows."""
    from smartreader_ray.functions import vocab_growth

    return vocab_growth(_docs(sf_dir))


def _q_curated_corpus(sf_dir: str):
    """END-TO-END safety curation chain: PII redact → repetition filter
    → decontaminate → per-source cap, composed streaming (see
    pipelines/training_data.py). Every stage SQL-expressible → the
    COMPOSED pipeline gets exact hash equality."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.pipelines import build_curation_pipeline

    docs = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def snip_batch(b: pa.Table) -> pa.Table:
        # the eval set is a FIXED side input: a bounded doc_id range, so
        # the driver-side harvest does NOT grow with corpus size
        # (VERDICT r3 #5 — was an unbounded 1-in-50 sample)
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        f = b.filter(pa.array((ids % 50 == 0) & (ids < 25_000)))
        return pa.Table.from_pydict(
            {"snip": pc.utf8_slice_codeunits(f.column("text"), 0, 120)}
        )

    snips = [
        r["snip"]
        for r in docs.map_batches(snip_batch, batch_format="pyarrow").take_all()
    ]
    assert len(snips) <= 500, "eval snippet harvest exceeded its fixed bound"
    return build_curation_pipeline(docs, snips)


def _q_asof_purchase(sf_dir: str):
    """As-of join: each click matched to the user's latest prior (or
    simultaneous) purchase. One all-to-all of the two pruned sides, then
    a vectorized searchsorted per user group; the oracle is DuckDB's
    native ASOF LEFT JOIN. Timestamps cross as epoch-µs int64 so both
    engines stringify identically."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions import asof_join

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def prep(event_type: str, id_name: str, us_name: str):
        def fn(b: pa.Table) -> pa.Table:
            f = b.filter(pc.equal(b.column("event_type"), event_type))
            return pa.Table.from_pydict(
                {
                    "user_id": f.column("user_id"),
                    "ts": f.column("ts"),
                    id_name: f.column("event_id"),
                    us_name: pc.cast(f.column("ts"), pa.int64()),
                }
            )

        return fn

    clicks = ev.map_batches(
        prep("click", "click_event", "click_us"), batch_format="pyarrow"
    )
    purchases = ev.map_batches(
        prep("purchase", "purchase_event", "purchase_us"),
        batch_format="pyarrow",
    )
    return asof_join(
        clicks,
        purchases,
        by="user_id",
        on="ts",
        left_cols=["user_id", "click_event", "click_us"],
        right_cols=["purchase_event", "purchase_us"],
    )


def _q_value_quantiles(sf_dir: str):
    """Per-event-type p50/p90/p99 of value via the mergeable equi-depth
    sketch — only centroid summaries cross the exchange. Approximate →
    rows-only; unit tests pin accuracy against np.quantile."""
    from smartreader_ray.functions import approx_quantile_by

    ds = _read(sf_dir, "events", ["event_type", "value"])
    return approx_quantile_by(ds, "event_type", "value", qs=(0.5, 0.9, 0.99))


def _q_value_quantiles_exact(sf_dir: str):
    """EXACT per-lang n_chars quantiles via the distributed value-count
    histogram (`exact_quantile_by`) — only (key, value, count) rows
    cross the exchange; quantile convention matches quantile_disc, so
    this is the oracle-gated companion to the approximate sketch."""
    from smartreader_ray.functions import exact_quantile_by

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    return exact_quantile_by(ds, "lang", "n_chars", qs=(0.25, 0.5, 0.9))


def _q_distinct_users_exact(sf_dir: str):
    """EXACT per-type distinct users: per-block distinct (key, value)
    partial → one set-union groupby. The oracle-gated companion to the
    HLL sketch (approx_distinct_users)."""
    from smartreader_ray.functions import exact_distinct_by

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    return exact_distinct_by(ds, "event_type", "user_id", out_name="n_users")


def _q_events_next_hour(sf_dir: str):
    """Band/range join (count mode): per event, how many same-user
    events land strictly within the following hour — the second
    temporal join operator (alongside asof) Ray Data lacks natively.
    One user_id-keyed exchange; two vectorized searchsorted probes per
    group."""
    from smartreader_ray.functions import range_join

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    hour_us = 3600 * 1_000_000
    return range_join(
        ds, ds, by="user_id", on="ts", left_cols=["event_id"],
        right_cols=[], lower=0, upper=hour_us, include_lower=False,
        mode="count", count_name="n_next_hour",
    )


def _q_sliding_windows(sf_dir: str):
    """Hopping 5-min windows sliding every 60 s per event_type: the
    k-fold replication happens inside map_batches and is collapsed by a
    per-batch Arrow partial combine before the (key, window) exchange."""
    from smartreader_ray.functions import sliding_window

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])
    return sliding_window(ds, window_s=300.0, slide_s=60.0)


def _q_events_pivot(sf_dir: str):
    """Long→wide pivot: one row per user with per-event-type counts
    (declared pivot columns — the schema is fixed up front, no
    inference scan). Narrow (key, value, count) partials cross the
    exchange; the wide row is assembled per key group."""
    from smartreader_ray.functions import pivot_counts

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    return pivot_counts(
        ds, "user_id", "event_type",
        ["click", "error", "purchase", "signup", "view"],
    )


def _q_jaccard_pairs(sf_dir: str):
    """Exact n-gram Jaccard near-dup: prefix-blocked candidate pairs
    with integer intersection/union sizes of their distinct bigram
    sets — the oracle-provable exact companion to the MinHash
    estimate (same blocking idea, true Jaccard inside each block)."""
    from smartreader_ray.functions import ngram_jaccard_pairs

    return ngram_jaccard_pairs(
        _docs(sf_dir).select_columns(["doc_id", "text"]),
        prefix_tokens=8, n=2,
    )


def _q_term_doc_freq(sf_dir: str):
    """Corpus vocabulary statistics — word-count at scale. Per-block
    (term, df, cf) partials keep the exchange vocabulary-sized; the
    top-100 uses the select_k partial + tiny global sort."""
    from smartreader_ray.functions.ngrams import term_doc_freq

    return term_doc_freq(_docs(sf_dir).select_columns(["doc_id", "text"]))


def _q_chi2_terms(sf_dir: str):
    """Per-language χ² discriminative terms
    (`functions/ngrams.py:chi2_terms`): the Yang & Pedersen feature-
    selection statistic over (label, term) doc-count contingency
    tables — the vocabulary-building step for domain/quality
    classifiers. One (label, term) distinct-doc exchange; per-term
    totals derived inside the term groups; χ² is one fixed-order
    float64 expression over exact int64 counts, replayed bit-for-bit
    by the oracle."""
    from smartreader_ray.functions.ngrams import chi2_terms

    return chi2_terms(
        _docs(sf_dir).select_columns(["doc_id", "text", "lang"]),
        label_col="lang", top_k=15)


def _q_chi2_lid_chain(sf_dir: str):
    """Composed chain #38 — feature selection → classifier → eval, the
    classic build-a-cheap-domain-classifier loop: χ² top-15 vocabulary
    per language (`chi2_terms`) → broadcast the 75-term vocab → score
    every doc per label by DISTINCT vocab terms present (vectorized
    isin + packed (row, term-idx) unique, all integer) → predict the
    argmax label (ties → label asc) → confusion matrix against the
    corpus's true lang labels. Output (true_lang, pred_label, n). One
    SQL oracle replays vocabulary, scoring and argmax."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data

    from smartreader_ray.functions.exchange import keyed_agg
    from smartreader_ray.functions.ngrams import _tokens_flat, chi2_terms

    docs = _docs(sf_dir).select_columns(["doc_id", "text", "lang"])
    vocab_rows = chi2_terms(docs, label_col="lang", top_k=15).take_all()
    labels = sorted({r["label"] for r in vocab_rows})
    vocab = {lb: np.array(sorted({r["term"] for r in vocab_rows
                                  if r["label"] == lb}))
             for lb in labels}
    vocab_ref = ray.put((labels, vocab))

    def classify(b: pa.Table) -> pa.Table:
        lbs, voc = ray.get(vocab_ref)
        flat, row_idx, _ = _tokens_flat(b, "text")
        toks = flat.to_numpy(zero_copy_only=False)
        n = b.num_rows
        scores = np.zeros((n, len(lbs)), dtype=np.int64)
        for j, lb in enumerate(lbs):
            v = voc[lb]
            pos = np.searchsorted(v, toks)
            pos[pos == len(v)] = 0
            hit = v[pos] == toks
            if hit.any():
                packed = row_idx[hit] * np.int64(64) + pos[hit]
                uniq = np.unique(packed)
                scores[:, j] = np.bincount(
                    (uniq // np.int64(64)).astype(np.int64),
                    minlength=n)
        pred = np.argmax(scores, axis=1)  # first max = label asc
        return pa.table({
            "true_lang": b.column("lang"),
            "pred_label": pa.array([lbs[p] for p in pred],
                                   type=pa.string()),
        })

    return (keyed_agg(docs.map_batches(classify, batch_format="pyarrow"),
                      ["true_lang", "pred_label"], {"n": ("count", None)}))


def _q_log_odds_terms(sf_dir: str):
    """Fightin'-Words log-odds with Dirichlet prior
    (`functions/ngrams.py:log_odds_terms`, Monroe et al. 2008): the 15
    most en-leaning and 15 most rest-leaning terms by z-scored smoothed
    log-odds over collection frequencies — the effect-size complement
    of `chi2_terms`. One vocab-sized exchange; fixed-order libm
    ln/sqrt tree replayed bit-for-bit by the oracle."""
    from smartreader_ray.functions.ngrams import log_odds_terms

    return log_odds_terms(
        _docs(sf_dir).select_columns(["doc_id", "text", "lang"]),
        label_col="lang", target_label="en", top_k=15)


def _q_term_burstiness(sf_dir: str):
    """Church–Gale burstiness (`functions/ngrams.py:term_burstiness`):
    top-20 terms by per-doc-count variance-to-mean ratio — the
    content-vs-function-word axis frequency alone misses. Vocab-sized
    exchange of exact (Σc, Σc², df) int64 partials; the VMR float
    tree is replayed bit-for-bit."""
    from smartreader_ray.functions.ngrams import term_burstiness

    return term_burstiness(
        _docs(sf_dir).select_columns(["doc_id", "text"]))


def _q_good_turing(sf_dir: str):
    """Good–Turing unseen mass + Chao1 richness per source
    (`functions/ngrams.py:good_turing`) — the corpus-saturation
    estimators behind 'is this source exhausted?'. One (source, term)
    exchange collapsed to frequency-of-frequencies; exact int64
    sufficient statistics, each float ONE fixed-order expression."""
    from smartreader_ray.functions.ngrams import good_turing

    return good_turing(_read(sf_dir, "documents", ["text", "source"]))


def _q_textrank_terms(sf_dir: str):
    """TextRank keyword extraction (Mihalcea & Tarau, EMNLP 2004):
    integer PageRank (`functions/graph.py:pagerank` — the
    supplier_pagerank fixed-point arithmetic, bit-reproducible) over
    the word co-occurrence graph: distinct adjacent-token pairs,
    symmetrized, self-loops dropped, terms mapped to sorted-vocab ids.
    The graph is vocab-sized (the pair set is bounded by vocab², far
    below it in practice), so the edge build rides the existing bigram
    partial + one vocab-sized exchange; five unrolled rounds replay in
    SQL. Output: every term with (rank, outdeg)."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data

    from smartreader_ray.functions.exchange import keyed_agg_table
    from smartreader_ray.functions.graph import pagerank
    from smartreader_ray.functions.ngrams import _bigrams

    docs = _docs(sf_dir).select_columns(["doc_id", "text"])
    bigrams = keyed_agg_table(docs.map_batches(
        lambda b: _bigrams(b, "text"),
        batch_format="pyarrow"), "bigram", {})
    pair_list = [b.split(" ", 1) for b in
                 bigrams.column("bigram").to_pylist()]  # vocab²-bounded
    pairs = {(a, b) for a, b in pair_list if a != b}
    vocab = sorted({t for p in pairs for t in p})
    t_id = {t: i for i, t in enumerate(vocab)}
    sym = sorted({(t_id[a], t_id[b]) for a, b in pairs}
                 | {(t_id[b], t_id[a]) for a, b in pairs})
    edges = ray.data.from_arrow(pa.table({
        "src": pa.array([e[0] for e in sym], type=pa.int64()),
        "dst": pa.array([e[1] for e in sym], type=pa.int64()),
    }))
    nodes = ray.data.from_arrow(pa.table({
        "v": pa.array(np.arange(len(vocab), dtype=np.int64)),
    }))
    ranked = pagerank(edges, nodes, iterations=5)

    vref = ray.put(vocab)

    def back(b: pa.Table) -> pa.Table:
        vs = ray.get(vref)
        ids = b.column("v").to_numpy(zero_copy_only=False)
        return pa.table({
            "term": pa.array([vs[i] for i in ids], type=pa.string()),
            "rank": b.column("rank"),
            "outdeg": b.column("outdeg"),
        })

    return ranked.map_batches(back, batch_format="pyarrow")


def _q_bigram_counts(sf_dir: str):
    """Top-100 corpus bigrams: vectorized successor-pairing over the
    flattened token array per block, partial counts before the one
    vocabulary-sized groupby."""
    from smartreader_ray.functions.ngrams import bigram_counts

    return bigram_counts(_docs(sf_dir).select_columns(["doc_id", "text"]))


def _q_tfidf_terms(sf_dir: str):
    """Top-3 TF-IDF terms per doc: pass 1 reduces to a vocab-sized DF
    table (broadcast once via ray.put), pass 2 is a shuffle-free
    map_batches scoring + per-doc top-k inside the block."""
    from smartreader_ray.functions.ngrams import tfidf_top_terms

    return tfidf_top_terms(_docs(sf_dir).select_columns(["doc_id", "text"]))


def _roundtrip_agg(back):
    """Shared per-lang rollup used by the text-format round trips."""
    from smartreader_ray.functions.exchange import keyed_agg

    return keyed_agg(back, "lang", {"n_docs": ("count", None),
                                    "sum_chars": ("sum", "n_chars")})


def _q_jsonl_roundtrip(sf_dir: str):
    """JSONL connector proof: parquet → ``write_json`` (one file per
    block, distributed) → ``read_json`` → per-lang rollup. The oracle
    computes the same rollup straight off parquet, so any loss in the
    JSONL encode/decode (types, nulls, row drops) breaks the hash."""
    import shutil
    import tempfile

    import ray.data

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    out = os.path.join(tempfile.gettempdir(), "smartreader_jsonl_rt")
    shutil.rmtree(out, ignore_errors=True)
    ds.write_json(out)
    return _roundtrip_agg(ray.data.read_json(out))


def _q_csv_roundtrip(sf_dir: str):
    """CSV connector proof — same shape as the JSONL round trip."""
    import shutil
    import tempfile

    import ray.data

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    out = os.path.join(tempfile.gettempdir(), "smartreader_csv_rt")
    shutil.rmtree(out, ignore_errors=True)
    ds.write_csv(out)
    return _roundtrip_agg(ray.data.read_csv(out))


def _q_zscore_tfidf_chain(sf_dir: str):
    """Composed end-to-end chain #3: per-lang z-score gate (|rounded z|
    window) → TF-IDF top term over the surviving corpus, checked
    against ONE SQL statement."""
    from smartreader_ray.pipelines.training_data import (
        build_zscore_tfidf_pipeline,
    )

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang", "n_chars"])
    return build_zscore_tfidf_pipeline(ds)


def _q_temperature_mix(sf_dir: str):
    """Temperature-flattened source sampling (α=0.5): data-dependent
    keep rates min(1, 2·n^-0.5) per source, md5-threshold filter; the
    SQL oracle recomputes identical thresholds from the same counts."""
    from smartreader_ray.functions.sampling import temperature_mix

    ds = _read(sf_dir, "documents", ["doc_id", "source"])
    return temperature_mix(ds, alpha=0.5, c=2.0)


def _q_unimax_mix(sf_dir: str):
    """UniMax language mixing (`functions/sampling.py:unimax_mix`,
    Chung et al. ICLR 2023): exact integer water-fill of a 400-doc
    budget across languages with a 1-epoch cap — small languages keep
    everything, the head language (en, 218 docs at sf0.01) absorbs the
    leftover budget. The selection materializes as each language's
    quota lowest doc_ids via the per-key bounded reduce; the rollup
    stamps the allocation next to the observed kept counts and an
    id-sum checksum. Oracle replays the water-fill with window
    cumsums."""
    import pyarrow as pa
    import ray
    import ray.data

    from smartreader_ray.functions.exchange import keyed_agg, keyed_agg_table
    from smartreader_ray.functions.sampling import (unimax_allocation,
                                                    unimax_mix)

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    n = keyed_agg_table(ds, "lang", {"n": ("count", None)})
    counts = dict(zip(n.column("lang").to_pylist(), n.column("n").to_pylist()))
    quota = unimax_allocation(counts, budget=400, max_epochs=1)
    alloc_ref = ray.put((counts, quota))

    rollup = (keyed_agg(unimax_mix(ds, budget=400, max_epochs=1), "lang",
                        {"n_kept": ("count", None),
                         "id_sum": ("sum", "doc_id")}))

    def stamp(b: pa.Table) -> pa.Table:
        cnt, q = ray.get(alloc_ref)
        langs = b.column("lang").to_pylist()
        return pa.table({
            "lang": b.column("lang"),
            "n_docs": pa.array([cnt[lg] for lg in langs], type=pa.int64()),
            "cap": pa.array([cnt[lg] for lg in langs], type=pa.int64()),
            "quota": pa.array([q[lg] for lg in langs], type=pa.int64()),
            "n_kept": b.column("n_kept"),
            "id_sum": b.column("id_sum"),
        })

    return rollup.map_batches(stamp, batch_format="pyarrow")


def _q_keys_union(sf_dir: str):
    """Dataset.union coverage: tag-and-union two key sets (customer ∪
    supplier), one groupby giving per-key row and distinct-source
    counts — the UNION ALL + GROUP BY reconciliation pattern."""
    import pyarrow as pa

    from smartreader_ray.functions.exchange import keyed_agg

    def tagged(table, col, tag):
        import pyarrow.compute as pc

        def fn(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "key": pc.cast(b.column(col), pa.int64()),
                    "src": pa.array([tag] * b.num_rows, type=pa.int32()),
                }
            )

        return _read(sf_dir, table, [col]).map_batches(
            fn, batch_format="pyarrow")

    both = tagged("customer", "c_custkey", 1).union(
        tagged("supplier", "s_suppkey", 2)
    )
    agg = keyed_agg(both, "key", {"n_rows": ("count", None),
                                  "mn": ("min", "src"),
                                  "mx": ("max", "src")})

    def finalize(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n_sources = pc.add(
            pc.cast(pc.not_equal(b.column("mn"), b.column("mx")), pa.int64()),
            1,
        )
        return pa.table(
            {
                "key": b.column("key"),
                "n_rows": pc.cast(b.column("n_rows"), pa.int64()),
                "n_sources": n_sources,
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


def _q_customer_orders_full(sf_dir: str):
    """FULL OUTER hash-join with genuine unmatched rows on BOTH sides
    (customers below 1000 vs per-customer order counts from 500 up):
    nulls opposite each unmatched side, native int64 key over the
    exchange."""
    from smartreader_ray.functions.exchange import keyed_agg
    from smartreader_ray.functions.join import hash_join

    cust = _read(
        sf_dir, "customer", ["c_custkey", "c_mktsegment"]
    ).filter(expr="c_custkey < 1000")
    ords = keyed_agg(
        _read(sf_dir, "orders", ["o_custkey"]).filter(expr="o_custkey >= 500"),
        "o_custkey", {"n_orders": ("count", None)})
    return hash_join(
        cust, ords, left_key="c_custkey", right_key="o_custkey",
        left_cols=["c_custkey", "c_mktsegment"],
        right_cols=["o_custkey", "n_orders"], how="full_outer",
    )


def _q_length_token_corr(sf_dir: str):
    """Per-language Pearson corr(n_chars, n_tokens) from exact int64
    co-moments — the statistical-aggregate pattern: one key-sized
    exchange, IEEE-order finalization the SQL oracle mirrors."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.standardize import corr_by

    def add_tokens(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(
            pc.utf8_trim_whitespace(
                pc.coalesce(pc.cast(batch.column("text"), pa.string()),
                            pa.scalar("", type=pa.string()))
            ),
            " ",
        )
        return pa.table(
            {
                "lang": batch.column("lang"),
                "n_chars": batch.column("n_chars"),
                "n_tokens": pc.cast(pc.list_value_length(toks), pa.int64()),
            }
        )

    ds = _read(
        sf_dir, "documents", ["lang", "n_chars", "text"]
    ).map_batches(add_tokens, batch_format="pyarrow")
    return corr_by(ds, key_col="lang", x_col="n_chars", y_col="n_tokens")


def _q_length_trend(sf_dir: str):
    """Per-language OLS fit n_tokens ~ n_chars (slope/intercept/R²) from
    the same exact int64 co-moments as `length_token_corr` — a model FIT
    distributed via sufficient statistics
    (`functions/standardize.py: linreg_by`), bit-equal to the SQL
    closed form."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.standardize import linreg_by

    def add_tokens(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(
            pc.utf8_trim_whitespace(
                pc.coalesce(pc.cast(batch.column("text"), pa.string()),
                            pa.scalar("", type=pa.string()))
            ),
            " ",
        )
        return pa.table(
            {
                "lang": batch.column("lang"),
                "n_chars": batch.column("n_chars"),
                "n_tokens": pc.cast(pc.list_value_length(toks), pa.int64()),
            }
        )

    ds = _read(
        sf_dir, "documents", ["lang", "n_chars", "text"]
    ).map_batches(add_tokens, batch_format="pyarrow")
    return linreg_by(ds, key_col="lang", x_col="n_chars", y_col="n_tokens")


def _q_range_partition(sf_dir: str):
    """Explicit repartitioning: per-lang quartile boundaries of doc
    length (exact histogram reduction, broadcast once) stamp each doc
    with its range shard — the skew-balanced layout step before a
    partitioned write."""
    from smartreader_ray.functions.reshape import range_partition_by_quantiles

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return range_partition_by_quantiles(ds, "lang", "n_chars")


def _q_late_events(sf_dir: str):
    """Watermark/out-of-order audit: events whose event-time lags the
    per-user arrival-order watermark by > 1 h, with exact integer-µs
    lateness — the batch replay of streaming allowed-lateness. The
    synthetic corpus arrives perfectly time-ordered, so arrival order
    is derived as md5(event_id) — the engine-reproducible determinism
    trick shared with stratified_sample — which both sides replay."""
    import hashlib

    import pyarrow as pa

    from smartreader_ray.functions.windows import late_events

    def add_arrival(batch: pa.Table) -> pa.Table:
        ids = batch.column("event_id").to_pylist()
        return batch.append_column(
            "arrival",
            pa.array(
                [hashlib.md5(str(i).encode()).hexdigest() for i in ids],
                type=pa.string(),
            ),
        )

    ds = _read(
        sf_dir, "events", ["user_id", "ts", "event_id"]
    ).map_batches(add_arrival, batch_format="pyarrow")
    return late_events(ds, tolerance_s=3600.0, order_col="arrival",
                       id_col="event_id")


def _q_frequent_terms(sf_dir: str):
    """Misra–Gries heavy hitters. At capacity ≥ |vocab| the sketch
    degenerates to exact counts with err=0 (the ann_ivf nprobe trick),
    so the full MG code path — block compress, sentinel decrement rows,
    merge, bound attach — runs under the exact SQL oracle; the
    compression math itself is pinned by unit tests on skewed data."""
    from smartreader_ray.functions.sketch import frequent_terms

    return frequent_terms(
        _docs(sf_dir).select_columns(["doc_id", "text"]),
        capacity=256, k=20,
    )


def _q_embed_kmeans(sf_dir: str):
    """Distributed spherical k-means over the full embedding corpus:
    deterministic first-k-ids init, per-iteration broadcast centroids +
    per-(cluster, block) partial sums (the driver only ever combines
    k×blocks small rows, never vectors). Iterative → no SQL oracle;
    unit tests pin exact equivalence to a single-process reference."""
    from smartreader_ray.functions.similarity import kmeans_fit

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    assignments, _ = kmeans_fit(ds, k=8, iters=5)
    return assignments


def _q_quality_zscore(sf_dir: str):
    """Per-language z-score of document length: exact int64 moment
    triples (n, Σx, Σx²) per key → broadcast → shuffle-free scoring.
    The moment arithmetic order matches the SQL oracle expression tree
    exactly, so the doubles are bit-equal."""
    from smartreader_ray.functions.standardize import zscore_by

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return zscore_by(ds, key_col="lang", value_col="n_chars")


def _half(sf_dir: str):
    """(first-half ds, second-half ds, prefix-keyed) document split used
    by the set-op queries; the 5-token prefix is the content key because
    the corpus has shared prefixes but no full-content duplicates."""
    import pyarrow.compute as pc

    def add_prefix(batch):
        import pyarrow as pa

        toks = pc.split_pattern(
            pc.utf8_trim_whitespace(batch.column("text")), " "
        )
        pfx = pc.binary_join(pc.list_slice(toks, 0, 5), " ")
        return batch.append_column("pfx", pc.cast(pfx, pa.string()))

    import pyarrow.parquet as pq

    ds = _docs(sf_dir).select_columns(["doc_id", "text"]).map_batches(
        add_prefix, batch_format="pyarrow"
    )
    # row count straight off parquet metadata — no Ray pass
    n = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    half = n // 2
    return (
        ds.filter(expr=f"doc_id < {half}"),
        ds.filter(expr=f"doc_id >= {half}"),
    )


def _q_orc_roundtrip(sf_dir: str):
    """ORC connector proof (`sources/orc.py`): parquet → distributed
    per-block ORC write → file-parallel read → per-lang rollup. Ray
    Data ships no ORC connector; this one rides pyarrow.orc with the
    repo's WARC file-parallel shape. Oracle computes the rollup off
    parquet, so any encode/decode loss breaks the hash."""
    import shutil
    import tempfile

    from smartreader_ray.sources.orc import read_orc, write_orc

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    out = os.path.join(tempfile.gettempdir(), "smartreader_orc_rt")
    shutil.rmtree(out, ignore_errors=True)
    write_orc(ds, out)
    return _roundtrip_agg(read_orc(out))


def _q_ipc_roundtrip(sf_dir: str):
    """Arrow IPC (Feather v2) connector proof (`sources/ipc.py`) —
    same distributed shape as the ORC round trip; IPC is the zero-copy
    interchange for Arrow-native neighbours."""
    import shutil
    import tempfile

    from smartreader_ray.sources.ipc import read_ipc, write_ipc

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    out = os.path.join(tempfile.gettempdir(), "smartreader_ipc_rt")
    shutil.rmtree(out, ignore_errors=True)
    write_ipc(ds, out)
    return _roundtrip_agg(read_ipc(out))


def _q_docs_except(sf_dir: str):
    """Content-keyed EXCEPT: second-half docs whose 5-token prefix never
    occurs in the first half — hashed-key left_anti exchange, one
    min-doc_id survivor per distinct prefix."""
    from smartreader_ray.functions.setops import except_by_content

    first, second = _half(sf_dir)
    return except_by_content(second, first, id_col="doc_id", content_col="pfx")


def _q_docs_intersect(sf_dir: str):
    """Content-keyed INTERSECT: distinct 5-token prefixes present in
    both halves, as the smallest second-half doc_id per prefix."""
    from smartreader_ray.functions.setops import intersect_by_content

    first, second = _half(sf_dir)
    return intersect_by_content(second, first, id_col="doc_id",
                                content_col="pfx")


def _q_approx_distinct_users(sf_dir: str):
    """HyperLogLog distinct-user counts per event_type: per-batch
    register partials (4 KB/key/block crosses the exchange, never
    values). Approximate (±1.6 % at b=12) yet HASH-EXACT: registers
    are deterministic ints, the harmonic sum is an exact integer
    Σ 2^(53−r) (`sketch._estimate`), and the estimate is one shared
    IEEE tree + floor(x+0.5) — the oracle replays the whole sketch in
    SQL. `distinct_users_exact` remains the exact companion; the unit
    test pins accuracy against exact counts."""
    from smartreader_ray.functions import approx_distinct_by

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    return approx_distinct_by(ds, "event_type", "user_id")


def _q_sessionize(sf_dir: str):
    """Gap-based sessionization (30-min inactivity) over the events
    stream — the engine's windowed-aggregate custom operator; one
    user_id-keyed shuffle, vectorized per-group kernel."""
    from smartreader_ray.functions import sessionize

    ds = _read(sf_dir, "events", ["user_id", "ts", "value", "event_id"])
    return sessionize(ds, gap_s=1800.0)


def _q_window_agg(sf_dir: str):
    """Tumbling 1-hour windows per event_type (partial-combined)."""
    from smartreader_ray.functions import tumbling_window

    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])
    return tumbling_window(ds, window_s=3600.0)


def _q_extract_fixtures(sf_dir: str):
    """Real-HTML extraction over a fixture subset (sf-independent)."""
    import pyarrow as pa
    import ray.data

    from smartreader_ray.pipelines import build_extraction_pipeline
    from smartreader_ray.sources import fixture_names, fixture_spans_table

    names = fixture_names()[:40]
    ds = ray.data.from_arrow(fixture_spans_table(names))
    out = build_extraction_pipeline(ds, batch_size=4)

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(
            ["doc_id", "title", "byline", "language", "length", "is_readable"]
        )

    return out.map_batches(project, batch_format="pyarrow")


def _q_fixture_span_parity(sf_dir: str):
    """The north rule's per-row ACCEPTANCE CHECK as a data operator:
    run the real extraction pipeline over reference fixture pages,
    flatten OUR ``content_html`` and the reference's ``expected.html``
    to interleaved spans, and compare with `spanio.span_diff_batch`
    under (kind, text, media_ref, order) equality. Every row must
    report ``equal=True`` / ``first_mismatch=-1`` — the corpus-scale
    version of the 142-page pytest gate (rows-only: the reference HTML
    is not SQL-expressible; the byte-exact gate is
    `tests/test_fixture_parity.py`)."""
    import os as _os

    import pyarrow as pa
    import ray.data

    from smartreader_ray.pipelines import build_extraction_pipeline
    from smartreader_ray.sources import (FIXTURE_DIR, fixture_names,
                                         fixture_spans_table)
    from smartreader_ray.spanio import flatten_html, span_diff_batch
    from smartreader_ray.stages.extract import SPAN_TYPE

    names = fixture_names()[:40]
    ds = ray.data.from_arrow(fixture_spans_table(names))
    out = build_extraction_pipeline(ds, batch_size=4)

    def diff(batch: pa.Table) -> pa.Table:
        got, exp = [], []
        for did, html in zip(batch.column("doc_id").to_pylist(),
                             batch.column("content_html").to_pylist()):
            got.append(flatten_html(html or ""))
            with open(_os.path.join(FIXTURE_DIR, did, "expected.html"),
                      encoding="utf-8-sig") as f:
                exp.append(flatten_html(f.read()))
        return span_diff_batch(pa.table({
            "doc_id": batch.column("doc_id"),
            "spans_a": pa.array(got, type=SPAN_TYPE),
            "spans_b": pa.array(exp, type=SPAN_TYPE),
        }))

    return out.map_batches(diff, batch_format="pyarrow")


def _q_media_meta(sf_dir: str):
    """Media spans from extracted fixture articles → decode-stub stage."""
    import ray.data

    from smartreader_ray.pipelines import build_extraction_pipeline
    from smartreader_ray.sources import fixture_names, fixture_spans_table
    from smartreader_ray.stages.media import MediaDecodeStub, media_spans_table

    names = fixture_names()[:20]
    ds = ray.data.from_arrow(fixture_spans_table(names))
    articles = build_extraction_pipeline(ds, batch_size=4)
    media = articles.map_batches(media_spans_table, batch_format="pyarrow")
    return media.map_batches(
        MediaDecodeStub(), batch_format="pyarrow", batch_size=16
    )


def _q_media_pipeline(sf_dir: str):
    """Multimodal image chain over REAL byte-level decode: one
    deterministic 24-bit BMP per document (width/height/pixels pure
    functions of doc_id and n_chars — red channel a column ramp
    ``(doc_id + x) % 256``, green/blue constants), task-stage
    nearest-neighbor resize to max_dim=256 (bmp→bmp re-encode), then
    exact integer pixel stats. Every number — resized dims, pixel sum /
    min / max — is replayed by the SQL oracle, including the resize's
    ``(j·w)//nw`` column index map, so this leg is hash-exact: a decoder
    or resampler bug of even one pixel flips the hash. Binary payloads
    never reach the driver."""
    import numpy as np
    import pyarrow as pa

    from smartreader_ray.stages.codecs import bmp_encode
    from smartreader_ray.stages.media import ImageResizeStage, ImageStatsFeatures

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        n_chars = batch.column("n_chars").to_numpy(zero_copy_only=False)
        payloads = []
        for i, nc in zip(ids, n_chars):
            i, nc = int(i), int(nc)
            w = 150 + i % 300          # 150..449: both resize paths hit
            h = 80 + (i * 3) % 200     # 80..279
            px = np.empty((h, w, 3), dtype=np.uint8)
            px[:, :, 0] = ((i + np.arange(w)) % 256)[None, :]
            px[:, :, 1] = nc % 256
            px[:, :, 2] = (i * 7 + 3) % 256
            payloads.append(bmp_encode(px))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "media_ref": pa.array(
                    [f"img://{int(i)}" for i in ids], type=pa.string()
                ),
                "payload": pa.array(payloads, type=pa.binary()),
            }
        )

    ds = _read(
        sf_dir, "documents", ["doc_id", "n_chars"]
    ).map_batches(synth, batch_format="pyarrow")
    resized = ds.map_batches(
        ImageResizeStage(), batch_format="pyarrow", batch_size=16,
    )
    stats = resized.map_batches(
        ImageStatsFeatures(), batch_format="pyarrow", batch_size=16,
    )

    def thin(batch: pa.Table) -> pa.Table:
        assert batch.num_rows == 0 or all(
            e == "" for e in batch.column("error").to_pylist()
        ), "decode errors on synthesized BMPs"
        return batch.select(
            ["doc_id", "width", "height", "n_px", "px_sum", "px_min", "px_max"]
        )

    return stats.map_batches(thin, batch_format="pyarrow")


def _q_audio_spectral(sf_dir: str):
    """Real DSP leg: per doc a pure int16 sine tone is planted at a
    BIN-ALIGNED frequency (bin k = 8 + doc_id % 50 of a 256-sample
    frame, i.e. k whole periods per frame) and the
    `AudioSpectralFeatures` stage must recover exactly that bin as the
    argmax of its Hann-windowed mean FFT spectrum. The oracle replays
    the plant parameters (k and the frame count formula), so a defect
    anywhere in WAV encode → RIFF decode → framing → window → FFT →
    argmax flips the hash — without the oracle computing any FFT."""
    import numpy as np
    import pyarrow as pa

    from smartreader_ray.stages.codecs import wav_encode
    from smartreader_ray.stages.media import AudioSpectralFeatures

    FRAME, HOP, FS = 256, 128, 8000

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        payloads = []
        for i in ids:
            i = int(i)
            n = 1024 + (i % 7) * HOP   # whole-hop lengths
            k = 8 + i % 50             # planted frequency bin
            t = np.arange(n)
            s = (8000.0 * np.sin(2.0 * np.pi * k * t / FRAME)).astype(np.int16)
            payloads.append(wav_encode(s, framerate=FS))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "media_ref": pa.array(
                    [f"tone://{int(i)}" for i in ids], type=pa.string()
                ),
                "payload": pa.array(payloads, type=pa.binary()),
            }
        )

    ds = _read(
        sf_dir, "documents", ["doc_id"]
    ).map_batches(synth, batch_format="pyarrow")
    feats = ds.map_batches(
        AudioSpectralFeatures(), batch_format="pyarrow", batch_size=32,
    )

    def thin(batch: pa.Table) -> pa.Table:
        assert batch.num_rows == 0 or all(
            e == "" for e in batch.column("error").to_pylist()
        ), "spectral errors on synthesized tones"
        return batch.select(["doc_id", "n_frames", "dominant_bin"])

    return feats.map_batches(thin, batch_format="pyarrow")


def _q_audio_ann(sf_dir: str):
    """Audio similarity end to end: planted tones → REAL spectral
    embeddings (`AudioSpectralFeatures`) → exact cosine top-k
    (`ann_topk`). All clips share one length and phase, so docs with the
    same planted band (14 distinct, band-separated bins) have
    bit-identical PCM → bit-identical embeddings → exact sim ties broken
    by vec_id, while cross-band cosines stay well below 1 — the top-10
    per query is exactly the query's band group ordered by id, which the
    oracle replays with one ROW_NUMBER. Proves the audio modality feeds
    the similarity operators for real."""
    import numpy as np
    import pyarrow as pa

    from smartreader_ray.functions import ann_topk
    from smartreader_ray.stages.codecs import wav_encode
    from smartreader_ray.stages.media import AudioSpectralFeatures

    FRAME, N = 256, 1024

    def tone_payloads(ids) -> list:
        t = np.arange(N)
        out = []
        for i in ids:
            k = 4 + (int(i) % 14) * 8  # one bin per spectral band
            s = (8000.0 * np.sin(2.0 * np.pi * k * t / FRAME)).astype(np.int16)
            out.append(wav_encode(s, framerate=8000))
        return out

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "media_ref": pa.array([f"tone://{i}" for i in ids],
                                      type=pa.string()),
                "payload": pa.array(tone_payloads(ids), type=pa.binary()),
            }
        )

    def to_vecs(batch: pa.Table) -> pa.Table:
        assert batch.num_rows == 0 or all(
            e == "" for e in batch.column("error").to_pylist())
        return pa.table(
            {
                "vec_id": batch.column("doc_id"),
                "embedding": batch.column("embedding"),
            }
        )

    ds = (
        _read(sf_dir, "documents", ["doc_id"])
        .map_batches(synth, batch_format="pyarrow")
        .map_batches(AudioSpectralFeatures(), batch_format="pyarrow",
                     batch_size=32)
        .map_batches(to_vecs, batch_format="pyarrow")
    )
    # query matrix: docs 0..4, embeddings computed in-process by the SAME
    # stage code (same numpy → same bits as the workers)
    qbatch = pa.table(
        {
            "doc_id": pa.array(range(5), type=pa.int64()),
            "media_ref": pa.array([f"tone://{i}" for i in range(5)],
                                  type=pa.string()),
            "payload": pa.array(tone_payloads(range(5)), type=pa.binary()),
        }
    )
    qemb = AudioSpectralFeatures()(qbatch).column("embedding").to_pylist()
    table = ann_topk(ds, np.asarray(qemb, dtype=np.float64), k=10)
    return table.select(["query_id", "vec_id", "rank"])


def _q_url_dedup(sf_dir: str):
    """URL-level dedup of a crawl frontier: messy synthesized URLs per
    doc (case noise, explicit default ports, fragments) → RFC 3986
    syntax-based normalization (`extraction/urialg.py:normalize_url`) →
    groupby canonical URL with Min/Count pre-combine — the dedup shape
    of `exact_dedup`, keyed by URL instead of content. The oracle
    replays the plant: every variant of (doc_id % 50, doc_id % 7)
    normalizes to the same canonical form."""
    import pyarrow as pa

    from smartreader_ray.extraction.urialg import normalize_url
    from smartreader_ray.functions.exchange import keyed_agg

    def synth_and_norm(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        urls = []
        for i in ids:
            i = int(i)
            host = f"Example{i % 50}.COM" if i % 3 else f"example{i % 50}.com"
            port = ":80" if i % 2 else ""
            frag = f"#sec{i % 3}" if i % 2 else ""
            urls.append(f"HTTP://{host}{port}/Path{i % 7}/{frag}")
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "url_norm": pa.array([normalize_url(u) for u in urls],
                                     type=pa.string()),
            }
        )

    return keyed_agg(_docs(sf_dir).select_columns(["doc_id"])
                     .map_batches(synth_and_norm, batch_format="pyarrow"),
                     "url_norm", {"keep_doc_id": ("min", "doc_id"),
                                  "n_dups": ("count", None)})


def _q_featured_image(sf_dir: str):
    """`Article.GetImagesAsync` fallback rule (Article.cs:171-220): keep
    images with probed size STRICTLY > 75 KB in document order; first
    keeper becomes FeaturedImage when metadata set none. Three refs are
    synthesized per doc and sized by the deterministic sha256 stub that
    stands in for the HEAD probe (`stages/media.py:_payload_stub`) —
    DuckDB's sha256() replays the size math bit-exactly, so the rule is
    hash-exact end to end (closes VERDICT r3 'What's missing' #1's
    replicable leg)."""
    import pyarrow as pa

    from smartreader_ray.stages.media import _payload_stub, select_article_images

    def rule(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        n_l, feat_l, bytes_l = [], [], []
        for i in ids:
            refs = [f"img://{i}/{j}" for j in range(3)]
            pairs = [(r, len(_payload_stub(r))) for r in refs]
            kept, featured = select_article_images(pairs)
            n_l.append(len(kept))
            feat_l.append(featured)
            bytes_l.append(sum(s for _, s in kept))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_images": pa.array(n_l, type=pa.int64()),
                "featured_image": pa.array(feat_l, type=pa.string()),
                "img_bytes": pa.array(bytes_l, type=pa.int64()),
            }
        )

    return (
        _docs(sf_dir)
        .select_columns(["doc_id"])
        .map_batches(rule, batch_format="pyarrow")
    )


def _q_audio_features(sf_dir: str):
    """Audio modality leg: one deterministic PCM WAV per document
    (mono int16 ramp ``((doc_id%7+1)·j) % 2001 − 1000`` over
    ``50 + doc_id%150`` frames at 8 kHz), decoded for REAL by the
    stdlib `wave` parser inside a task stage, reduced to exact
    integer features (duration, peak, Σs, Σs²). The oracle replays the
    per-sample ramp with a lateral generate_series — hash-exact."""
    import numpy as np
    import pyarrow as pa

    from smartreader_ray.stages.codecs import wav_encode
    from smartreader_ray.stages.media import AudioFeatureStage

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        payloads = []
        for i in ids:
            i = int(i)
            n = 50 + i % 150
            s = (((i % 7 + 1) * np.arange(n)) % 2001 - 1000).astype(np.int16)
            payloads.append(wav_encode(s, framerate=8000))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "media_ref": pa.array(
                    [f"wav://{int(i)}" for i in ids], type=pa.string()
                ),
                "payload": pa.array(payloads, type=pa.binary()),
            }
        )

    ds = _read(
        sf_dir, "documents", ["doc_id"]
    ).map_batches(synth, batch_format="pyarrow")
    feats = ds.map_batches(
        AudioFeatureStage(), batch_format="pyarrow", batch_size=32,
    )

    def thin(batch: pa.Table) -> pa.Table:
        assert batch.num_rows == 0 or all(
            e == "" for e in batch.column("error").to_pylist()
        ), "decode errors on synthesized WAVs"
        return batch.select(
            ["doc_id", "framerate", "n_channels", "n_frames", "duration_ms",
             "peak_abs", "sum_samples", "sum_sq"]
        )

    return feats.map_batches(thin, batch_format="pyarrow")


def _q_pdf_extract(sf_dir: str):
    """North-rule "PDF/layout parse" leg: synthesize a deterministic PDF
    per document (make_simple_pdf over the documents table — no external
    corpus), extract with the from-scratch PdfTextExtract stage, and
    return (doc_id, text). The oracle is exact: extraction must
    round-trip the source text."""
    import pyarrow as pa

    from smartreader_ray.stages.pdf import PdfTextExtract, make_simple_pdf

    def to_pdf(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "doc_id": batch.column("doc_id"),
                "pdf": pa.array(
                    [make_simple_pdf(t or "") for t in batch.column("text").to_pylist()],
                    type=pa.binary(),
                ),
            }
        )

    def project(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.Table.from_pydict(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
                "text": batch.column("text"),
            }
        )

    return (
        _docs(sf_dir)
        .map_batches(to_pdf, batch_format="pyarrow")
        .map_batches(PdfTextExtract(), batch_format="pyarrow", batch_size=64)
        .map_batches(project, batch_format="pyarrow")
    )


def _q_media_data_uri(sf_dir: str):
    """Data-URI image inlining (Image.cs:29-36, Article.cs:236-260) over
    extracted fixture articles; payloads come from the deterministic
    stub resolver (network GET is out of scope). Rows-only."""
    import pyarrow as pa
    import ray.data

    from smartreader_ray.pipelines import build_extraction_pipeline
    from smartreader_ray.sources import fixture_names, fixture_spans_table
    from smartreader_ray.stages.media import ImageDataUriInliner

    names = fixture_names()[:20]
    ds = ray.data.from_arrow(fixture_spans_table(names))
    articles = build_extraction_pipeline(ds, batch_size=4)

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(["doc_id", "n_inlined", "n_removed"])

    return articles.map_batches(
        ImageDataUriInliner(), batch_format="pyarrow", batch_size=8,
    ).map_batches(project, batch_format="pyarrow")


def _q_supplier_pagerank(sf_dir: str):
    """Integer power-iteration PageRank over the supplier hand-off
    graph (edges = consecutive lineitems within an order, DISTINCT,
    self-loops dropped): the canonical *iterative* shuffle workload,
    complementing label propagation's min-fixpoint family. All-integer
    arithmetic (`functions/graph.py`: floor-div contributions, int64
    inflow sums, `BASE + (85·inflow)//100` damping) makes five rounds
    bit-reproducible and SQL-replayable by unrolled CTEs."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.graph import consecutive_edges, pagerank

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_suppkey"])
    edges = consecutive_edges(
        li, "l_orderkey", "l_linenumber", "l_suppkey", seq_stride=1000
    )
    nodes = _read(sf_dir, "supplier", ["s_suppkey"]).map_batches(
        lambda b: pa.table({"v": pc.cast(b.column("s_suppkey"),
                                         pa.int64())}),
        batch_format="pyarrow",
    )
    pr = pagerank(edges, nodes, node_col="v", iterations=5)
    return pr.map_batches(
        lambda b: pa.table(
            {
                "s_suppkey": b.column("v"),
                "rank": b.column("rank"),
                "outdeg": b.column("outdeg"),
            }
        ),
        batch_format="pyarrow",
    )


def _q_norm_curation(sf_dir: str):
    """Composed chain #6: CCNet normalization → normalized exact dedup
    (min-doc_id winners) → survivor hash_join back onto the corpus →
    length gate (n_chars ≥ 100) → per-(lang, source) rollup. One SQL
    chain replays the whole pipeline; the survivor join is the
    distributed `hash_join` (winners can be corpus-sized when nothing
    deduplicates — never a broadcast assumption)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.curation import normalized_dedup
    from smartreader_ray.functions.exchange import keyed_agg
    from smartreader_ray.functions.join import hash_join

    docs = _read(
        sf_dir, "documents", ["doc_id", "text", "lang", "source", "n_chars"]
    )
    winners = normalized_dedup(docs).map_batches(
        lambda b: pa.table({"w": b.column("keep_doc_id")}),
        batch_format="pyarrow",
    )
    kept = hash_join(
        docs.select_columns(["doc_id", "lang", "source", "n_chars"]),
        winners, "doc_id", "w",
        ["doc_id", "lang", "source", "n_chars"], ["w"],
    )

    def gate(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater_equal(
            pc.cast(b.column("n_chars"), pa.int64()),
            pa.scalar(100, type=pa.int64()),
        ))

    return (
        keyed_agg(kept.map_batches(gate, batch_format="pyarrow"),
                  ["lang", "source"], {"n": ("count", "n_chars"),
                                       "sum_chars": ("sum", "n_chars")})
    )


def _q_winsorize(sf_dir: str):
    """Per-event-type winsorization at exact [p05, p95]
    (`functions/curation.py: winsorize_stats`): histogram-sized quantile
    reduction → broadcast bounds → one shuffle-free clip pass; integer
    cents keep the clipped sum hash-exact."""
    from smartreader_ray.functions.curation import winsorize_stats

    ds = _read(sf_dir, "events", ["event_type", "value"])
    return winsorize_stats(ds, "event_type", "value")


def _q_props_extract(sf_dir: str):
    """Semi-structured ETL: extract the integer `k` field from the JSON
    `props` column via RE2 (Arrow == DuckDB engine) and aggregate per
    event_type (`functions/reshape.py: json_field_agg`)."""
    from smartreader_ray.functions.reshape import json_field_agg

    ds = _read(sf_dir, "events", ["event_type", "props"])
    return json_field_agg(ds, json_col="props", key="k",
                          group_col="event_type")


def _q_running_totals(sf_dir: str):
    """Per-user running totals over time — the SQL
    SUM() OVER (PARTITION BY … ORDER BY …) family
    (`functions/windows.py: cumulative_by`). Integer cents via
    floor(v·100+0.5) (identical IEEE ops both sides) keep the running
    sum arithmetic-exact."""
    from smartreader_ray.functions.windows import cumulative_by

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])
    return cumulative_by(ds)


def _q_bpe_pairs(sf_dir: str):
    """First BPE iteration's raw material: adjacent character pairs
    inside words, weighted by word frequency, top-20
    (`functions/bpe.py: bpe_pair_counts`) — the hash-exact companion to
    the rows-only `bpe_merges` trainer. One corpus pass (word histogram
    pre-combined per block), pair work runs on vocab-sized data."""
    from smartreader_ray.functions.bpe import bpe_pair_counts

    ds = _read(sf_dir, "documents", ["text"])
    return bpe_pair_counts(ds, top_k=20)


def _q_bpe_merges(sf_dir: str):
    """BPE tokenizer training (`functions/bpe.py: bpe_train`):
    distributed word histogram → driver merge loop over the bounded
    histogram (the sentencepiece/HF trainer shape — the histogram is a
    sufficient statistic, differential-proven in tests/test_bpe.py).
    Greedy merges aren't SQL-replayable → rows-only; `bpe_pairs` is the
    hash-exact companion on the same reduction."""
    from smartreader_ray.functions.bpe import bpe_train

    ds = _read(sf_dir, "documents", ["text"])
    return bpe_train(ds, num_merges=12)


def _q_value_histogram(sf_dir: str):
    """Fixed-width histogram of events.value over [0, 500) in 50 bins
    (`functions/reshape.py: fixed_width_histogram`): per-block bincount
    partials, nbins-bounded exchange, bit-identical float bin math."""
    from smartreader_ray.functions.reshape import fixed_width_histogram

    ds = _read(sf_dir, "events", ["value"])
    return fixed_width_histogram(ds, "value", lo=0.0, hi=500.0, nbins=50)


def _q_funnel(sf_dir: str):
    """Ordered funnel view→click→purchase: per user, earliest step-k
    timestamp strictly after the step-(k-1) frontier
    (`functions/windows.py: funnel`) — one keyed reduction per step,
    frontier table on the dual broadcast/hash_join regime."""
    from smartreader_ray.functions.windows import funnel

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    return funnel(ds, steps=("view", "click", "purchase"))


def _q_norm_dedup(sf_dir: str):
    """CCNet-style normalization (lowercase / strip punctuation /
    collapse whitespace, Arrow RE2 = DuckDB RE2) then exact dedup on the
    normalized text (`functions/curation.py: normalized_dedup`)."""
    from smartreader_ray.functions.curation import normalized_dedup

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return normalized_dedup(ds)


def _q_pagerank_weighted_parts(sf_dir: str):
    """Composed chain #5: supplier PageRank (iterative integer power
    iteration) → node-sized rank table broadcast onto lineitem →
    Σ rank·qty per part, top 20
    (`functions/graph.py: rank_weighted_rollup`). Demonstrates graph
    state feeding a fact-table rollup without a shuffle join."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.graph import (consecutive_edges,
                                                 pagerank,
                                                 rank_weighted_rollup)

    li_cols = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_suppkey"]
    )
    edges = consecutive_edges(
        li_cols, "l_orderkey", "l_linenumber", "l_suppkey", seq_stride=1000
    )
    nodes = _read(sf_dir, "supplier", ["s_suppkey"]).map_batches(
        lambda b: pa.table({"v": pc.cast(b.column("s_suppkey"),
                                         pa.int64())}),
        batch_format="pyarrow",
    )
    pr = pagerank(edges, nodes, node_col="v", iterations=5)
    fact = _read(sf_dir, "lineitem", ["l_suppkey", "l_partkey", "l_quantity"])
    return rank_weighted_rollup(fact, pr, fact_key="l_suppkey",
                                group_col="l_partkey",
                                qty_col="l_quantity", top_k=20)


def _q_cooccurrence(sf_dir: str):
    """Windowed token co-occurrence (window=3, top-50 unordered pairs
    with both marginals) — the word2vec/PMI preprocessing pass as exact
    integer sufficient statistics
    (`functions/ngrams.py: cooccurrence_window`). Pair exchange is
    distinct-pair-per-block; marginals ride the TF-IDF broadcast."""
    from smartreader_ray.functions.ngrams import cooccurrence_window

    ds = _read(sf_dir, "documents", ["text"])
    return cooccurrence_window(ds, text_col="text", window=3,
                               top_k_pairs=50)


def _pagerank_with_clause(iterations: int = 5) -> str:
    """Shared unrolled-CTE replay of `functions/graph.py: pagerank` —
    one CTE per round, identical integer arithmetic (DuckDB `//` floors
    like Python on the non-negative ranks; SUM(BIGINT) cast back down).
    Final ranks land in CTE ``r{iterations}``."""
    rounds = []
    for i in range(1, iterations + 1):
        rounds.append(f"""r{i} AS (
            SELECT n.v,
                   CAST(150000000000
                        + (85 * COALESCE(s.infl, 0)) // 100 AS BIGINT) AS r
            FROM nodes n LEFT JOIN (
                SELECT e.dst AS v,
                       CAST(SUM(p.r // od.outdeg) AS BIGINT) AS infl
                FROM e JOIN r{i - 1} p ON p.v = e.src
                       JOIN od ON od.v = e.src
                GROUP BY e.dst
            ) s ON s.v = n.v
        )""")
    return f"""
        WITH li AS (
            SELECT l_orderkey * 1000 + l_linenumber AS k, l_suppkey
            FROM lineitem
        ), e AS (
            SELECT DISTINCT a.l_suppkey AS src, b.l_suppkey AS dst
            FROM li a JOIN li b ON b.k = a.k + 1
            WHERE a.l_suppkey <> b.l_suppkey
        ), nodes AS (
            SELECT CAST(s_suppkey AS BIGINT) AS v FROM supplier
        ), od AS (
            SELECT src AS v, CAST(count(*) AS BIGINT) AS outdeg
            FROM e GROUP BY src
        ), r0 AS (
            SELECT v, CAST(1000000000000 AS BIGINT) AS r FROM nodes
        ), {', '.join(rounds)}"""


def _q_robots_gate(sf_dir: str):
    """Crawl-politeness gate: deterministic per-host robots.txt bodies
    run through the real RFC 9309 parser
    (`functions/robots.py: parse_robots_txt`), then every synthesized
    URL is gated by longest-prefix / allow-wins-ties precedence
    (`robots_gate`, host-sized rules broadcast once). Per-host
    allow-rate rollup; the oracle replays the decision with LIKE +
    ROW_NUMBER."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.exchange import keyed_agg
    from smartreader_ray.functions.robots import (parse_robots_txt,
                                                  robots_gate)

    rules_by_host = {
        f"example{h}.com": parse_robots_txt(
            f"User-agent: *\nDisallow: /Path{h % 7}\n"
            f"Allow: /Path{h % 7}/page3\n"
        )
        for h in range(50)
    }

    def make_urls_pd(b: pa.Table) -> pa.Table:
        d = b.column("doc_id").to_numpy(zero_copy_only=False)
        host = ["example%d.com" % (x % 50) for x in d]
        path = ["/Path%d/page%d" % (x % 7, x % 11) for x in d]
        return pa.table(
            {
                "doc_id": pa.array(d, type=pa.int64()),
                "host": pa.array(host, type=pa.string()),
                "path": pa.array(path, type=pa.string()),
            }
        )

    urls = _read(
        sf_dir, "documents", ["doc_id"]
    ).map_batches(make_urls_pd, batch_format="pyarrow")
    gated = robots_gate(urls, rules_by_host)

    def allowed(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b.column("host")))
        return pa.table({"host": b.column("host").cast(pa.string()),
                         "ok": pc.cast(b.column("allowed"), pa.int64())})

    return (
        keyed_agg(gated.map_batches(allowed, batch_format="pyarrow"),
                  "host", {"n": ("count", None),
                           "n_allowed": ("sum", "ok")})
    )


def _q_supplier_hits(sf_dir: str):
    """Integer HITS (hubs & authorities) over the same supplier
    hand-off graph (`functions/graph.py: hits`) — the opposite exchange
    direction from PageRank each half-round; overflow-safe rescale
    ``x // ceil(max/scale)`` keeps both sides in int64."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.graph import consecutive_edges, hits

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_suppkey"])
    edges = consecutive_edges(
        li, "l_orderkey", "l_linenumber", "l_suppkey", seq_stride=1000
    )
    nodes = _read(sf_dir, "supplier", ["s_suppkey"]).map_batches(
        lambda b: pa.table({"v": pc.cast(b.column("s_suppkey"),
                                         pa.int64())}),
        batch_format="pyarrow",
    )
    out = hits(edges, nodes, node_col="v", iterations=4)
    return out.map_batches(
        lambda b: pa.table(
            {
                "s_suppkey": b.column("v"),
                "hub": b.column("hub"),
                "authority": b.column("authority"),
            }
        ),
        batch_format="pyarrow",
    )


def _hits_oracle_sql(iterations: int = 4, scale: int = 10**12) -> str:
    """Unrolled replay of `functions/graph.py: hits` — per round an
    authority half (sum hub over in-edges, rescale by ceil(max/scale))
    then a hub half (sum authority over out-edges, same rescale)."""
    parts = []
    for i in range(1, iterations + 1):
        parts.append(f"""a{i}_raw AS MATERIALIZED (
            SELECT n.v, CAST(COALESCE(s.x, 0) AS BIGINT) AS x
            FROM nodes n LEFT JOIN (
                SELECT e.dst AS v, CAST(SUM(p.s) AS BIGINT) AS x
                FROM e JOIN h{i - 1} p ON p.v = e.src GROUP BY e.dst
            ) s ON s.v = n.v
        ), a{i} AS MATERIALIZED (
            SELECT v, x // (((SELECT GREATEST(MAX(x), 1) FROM a{i}_raw)
                             + {scale - 1}) // {scale}) AS s
            FROM a{i}_raw
        ), h{i}_raw AS MATERIALIZED (
            SELECT n.v, CAST(COALESCE(s.x, 0) AS BIGINT) AS x
            FROM nodes n LEFT JOIN (
                SELECT e.src AS v, CAST(SUM(p.s) AS BIGINT) AS x
                FROM e JOIN a{i} p ON p.v = e.dst GROUP BY e.src
            ) s ON s.v = n.v
        ), h{i} AS MATERIALIZED (
            SELECT v, x // (((SELECT GREATEST(MAX(x), 1) FROM h{i}_raw)
                             + {scale - 1}) // {scale}) AS s
            FROM h{i}_raw
        )""")
    return f"""
        WITH li AS (
            SELECT l_orderkey * 1000 + l_linenumber AS k, l_suppkey
            FROM lineitem
        ), e AS MATERIALIZED (
            SELECT DISTINCT a.l_suppkey AS src, b.l_suppkey AS dst
            FROM li a JOIN li b ON b.k = a.k + 1
            WHERE a.l_suppkey <> b.l_suppkey
        ), nodes AS MATERIALIZED (
            SELECT CAST(s_suppkey AS BIGINT) AS v FROM supplier
        ), h0 AS MATERIALIZED (
            SELECT v, CAST({scale} AS BIGINT) AS s FROM nodes
        ), {', '.join(parts)}
        SELECT n.v AS s_suppkey, hh.s AS hub, aa.s AS authority
        FROM nodes n
        JOIN h{iterations} hh ON hh.v = n.v
        JOIN a{iterations} aa ON aa.v = n.v
        ORDER BY s_suppkey
    """


def _pagerank_oracle_sql(iterations: int = 5) -> str:
    return f"""{_pagerank_with_clause(iterations)}
        SELECT n.v AS s_suppkey, rr.r AS "rank",
               COALESCE(od.outdeg, 0) AS outdeg
        FROM nodes n
        JOIN r{iterations} rr ON rr.v = n.v
        LEFT JOIN od ON od.v = n.v
        ORDER BY "rank" DESC, s_suppkey
    """


def _pagerank_rollup_oracle_sql(iterations: int = 5) -> str:
    """Chain oracle: final ranks joined back through lineitem —
    Σ rank · qty per part, top 20 (deterministic tiebreak)."""
    return f"""{_pagerank_with_clause(iterations)}
        SELECT l.l_partkey,
               CAST(SUM(rr.r * CAST(l.l_quantity AS BIGINT)) AS BIGINT)
                   AS weighted_demand
        FROM lineitem l JOIN r{iterations} rr ON rr.v = l.l_suppkey
        GROUP BY l.l_partkey
        ORDER BY weighted_demand DESC, l_partkey
        LIMIT 20
    """


def _q_cms_counts(sf_dir: str):
    """Count–Min sketch point queries
    (`functions/sketch.py: count_min_term_counts`): constant-size
    per-block grids merged by elementwise sum (CMS is linear), probed
    for eight fixed terms. Every ingredient is a deterministic integer
    (FNV-1a term hash, fmix64 double-hash, wrapped positions, int64
    counter sums), so the oracle replays the ENTIRE sketch in SQL —
    including hash collisions — and the row is hash-exact; the
    accuracy bound (true ≤ est ≤ true + εN) is pinned in tests."""
    from smartreader_ray.functions.sketch import count_min_term_counts

    ds = _read(sf_dir, "documents", ["text"])
    return count_min_term_counts(
        ds, ["join", "hash", "row", "batch", "scan", "column",
             "customer", "filter"])


def _q_scd2_history(sf_dir: str):
    """Type-2 SCD dimension history (`functions/join.py: scd2_apply`):
    two deterministic customer snapshots (snapshot 2 drops key%17==0,
    bumps balances on key%10==0, adds key%17==16) folded into a
    versioned history at ts 1 then 2 — changed rows close and reopen,
    removals close, inserts open. One full-outer hash_join per
    application; closed rows never re-enter the exchange."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from smartreader_ray.functions.join import scd2_apply

    cust = _read(
        sf_dir, "customer", ["c_custkey", "c_mktsegment", "c_acctbal"]
    )

    def base(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.floor(pc.add(pc.multiply(
            b.column("c_acctbal"), 100.0), 0.5)), pa.int64())
        return pa.table({"c_custkey": b.column("c_custkey"),
                         "c_mktsegment": b.column("c_mktsegment"),
                         "bal_cents": cents})

    def snap1(b: pa.Table) -> pa.Table:
        import numpy as np

        t = base(b)
        k = t.column("c_custkey").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(k % 17 != 16))

    def snap2(b: pa.Table) -> pa.Table:
        import numpy as np

        t = base(b)
        k = t.column("c_custkey").to_numpy(zero_copy_only=False)
        bump = pa.array((k % 10 == 0).astype("int64") * 100)
        t = t.set_column(
            t.column_names.index("bal_cents"), "bal_cents",
            pc.add(t.column("bal_cents"), bump))
        return t.filter(pa.array(k % 17 != 0))

    empty = ray.data.from_arrow(pa.table({
        "c_custkey": pa.array([], type=pa.int64()),
        "c_mktsegment": pa.array([], type=pa.string()),
        "bal_cents": pa.array([], type=pa.int64()),
        "valid_from": pa.array([], type=pa.int64()),
        "valid_to": pa.array([], type=pa.int64()),
    }))
    attrs = ["c_mktsegment", "bal_cents"]
    h1 = scd2_apply(empty, cust.map_batches(snap1,
                                            batch_format="pyarrow"),
                    "c_custkey", attrs, ts=1)
    h2 = scd2_apply(h1, cust.map_batches(snap2,
                                         batch_format="pyarrow"),
                    "c_custkey", attrs, ts=2)
    return h2


def _q_fd_histogram(sf_dir: str):
    """Composed chain #11 — statistician's histogram
    (`functions/reshape.py: fd_histogram`): exact q25/q75 off a
    distributed value-count histogram choose the Freedman–Diaconis bin
    width, then nbins-sized bincount partials count the bins. Every
    derived float is one fixed IEEE tree (libm pow == SQL power), so
    the data-dependent edges still hash-gate."""
    from smartreader_ray.functions.reshape import fd_histogram

    ds = _read(sf_dir, "events", ["value"])
    return fd_histogram(ds, "value")


def _q_debounce(sf_dir: str):
    """Retry-storm suppression (`functions/windows.py: debounce`):
    drop events ≤ 60 s after the previous same-(user, type) event,
    then per-type survivor counts + cents — one per-user exchange,
    vectorized lag inside the group."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.exchange import keyed_agg
    from smartreader_ray.functions.windows import debounce

    ds = _read(
        sf_dir, "events", ["event_id", "user_id", "event_type", "ts", "value"]
    )
    kept = debounce(ds, window_s=60.0)

    def cents(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": b.column("event_type"),
            "value_cents": pc.cast(pc.floor(pc.add(pc.multiply(
                pc.cast(b.column("value"), pa.float64()), 100.0), 0.5)),
                pa.int64()),
        })

    return (
        keyed_agg(kept.map_batches(cents, batch_format="pyarrow"),
                  "event_type", {"n": ("count", None),
                                 "value_cents": ("sum", "value_cents")})
    )


def _q_posting_lists(sf_dir: str):
    """Inverted-index build (`functions/ngrams.py: posting_lists`):
    per term the distinct-doc frequency plus the first 10 doc ids —
    within-block (term, doc) dedup is globally exact because a doc is
    one row, so only vocab × blocks partials (≤ 10 ids each) cross the
    wire."""
    from smartreader_ray.functions.ngrams import posting_lists

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return posting_lists(ds, cap=10)


def _q_rendezvous_shards(sf_dir: str):
    """Rendezvous/HRW consistent shard routing
    (`functions/sampling.py: rendezvous_shards`): every doc to the
    shard whose salted md5 wins, 8 shards; rolled up per (shard, lang).
    The minimal-movement property (only 1/(n+1) of rows move when a
    shard is added, all of them TO it) is proven in the unit tests."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.sampling import rendezvous_shards

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    tagged = rendezvous_shards(ds, 8)

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({
            "shard": b.column("shard"),
            "lang": b.column("lang"),
            "n": pa.array([1] * b.num_rows, type=pa.int64()),
        })
        g = t.group_by(["shard", "lang"]).aggregate([("n", "sum")])
        return g.rename_columns(["shard", "lang", "n"])

    def combine(b: pa.Table) -> pa.Table:
        g = b.group_by(["shard", "lang"]).aggregate([("n", "sum")])
        return g.rename_columns(["shard", "lang", "n"])

    return (
        tagged.map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(combine, batch_format="pyarrow")
    )


def _q_clean_rank_chain(sf_dir: str):
    """Composed chain #10 — feature cleaning end-to-end: deterministic
    1-in-20 nulls knocked into event values → per-type exact-median
    imputation (`impute_median`) → tie-safe PERCENT_RANK over the
    imputed column (`percent_rank_by`) → keep the top half (pr ≥ 0.5)
    → per-type rollup (n kept, value cents). Two broadcast-backed
    passes and one histogram exchange; the row-sized data never
    shuffles. One SQL statement replays the whole chain."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.exchange import keyed_agg
    from smartreader_ray.functions.standardize import impute_median
    from smartreader_ray.functions.windows import percent_rank_by

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def synth_nulls(b: pa.Table) -> pa.Table:
        ids = b.column("event_id").to_numpy(zero_copy_only=False)
        v = pc.if_else(pa.array(ids % 20 == 0),
                       pa.scalar(None, pa.float64()),
                       pc.cast(b.column("value"), pa.float64()))
        return pa.table({"event_type": b.column("event_type"), "v": v})

    filled = impute_median(
        ds.map_batches(synth_nulls, batch_format="pyarrow"),
        "event_type", "v")
    ranked = percent_rank_by(filled, "event_type", "v")
    kept = ranked.map_batches(
        lambda b: b.filter(pc.greater_equal(b.column("pr"), 0.5)),
        batch_format="pyarrow")

    def cents(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": b.column("event_type"),
            "value_cents": pc.cast(pc.floor(pc.add(pc.multiply(
                b.column("v"), 100.0), 0.5)), pa.int64()),
        })

    return (
        keyed_agg(kept.map_batches(cents, batch_format="pyarrow"),
                  "event_type", {"n": ("count", None),
                                 "value_cents": ("sum", "value_cents")})
    )


def _q_dataset_split(sf_dir: str):
    """Deterministic 80/10/10 train/val/test assignment
    (`functions/sampling.py: split_assign`): md5-of-id bucketing — ids
    keep their split forever as the corpus grows, no RNG coordination,
    shuffle-free. Rolled up per (split, lang) with doc and char
    counts."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.sampling import split_assign

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    tagged = split_assign(
        ds, {"train": 0.8, "val": 0.1, "test": 0.1})

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({
            "split": b.column("split"),
            "lang": b.column("lang"),
            "n_chars": pc.cast(b.column("n_chars"), pa.int64()),
            "n": pa.array([1] * b.num_rows, type=pa.int64()),
        })
        g = t.group_by(["split", "lang"]).aggregate(
            [("n", "sum"), ("n_chars", "sum")])
        return g.rename_columns(["split", "lang", "n", "chars"])

    def combine(b: pa.Table) -> pa.Table:
        g = b.group_by(["split", "lang"]).aggregate(
            [("n", "sum"), ("chars", "sum")])
        return g.rename_columns(["split", "lang", "n", "chars"])

    return (
        tagged.map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(combine, batch_format="pyarrow")
    )


def _q_id_gaps(sf_dir: str):
    """Data-completeness audit (`functions/reshape.py: id_gaps`): a
    deterministic 3-in-97 filter knocks runs out of the dense event_id
    domain; the operator reports every maximal missing run. Bucket
    width forced small (512) so the driver exercises cross-bucket
    stitching; interior gap rows stay distributed."""
    import numpy as np
    import pyarrow as pa

    from smartreader_ray.functions.reshape import id_gaps

    ds = _read(sf_dir, "events", ["event_id"])

    def drop_some(b: pa.Table) -> pa.Table:
        ids = b.column("event_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 97 >= 3))

    return id_gaps(ds.map_batches(drop_some, batch_format="pyarrow"),
                   "event_id", bucket=512)


def _q_percent_rank(sf_dir: str):
    """PERCENT_RANK over (event_type, value)
    (`functions/windows.py: percent_rank_by`): the tie-safe analytic
    window — per-block histogram partials, one histogram-sized keyed
    exchange, vectorized exclusive cumsum per key, broadcast merge-back
    — the row-sized data never shuffles."""
    from smartreader_ray.functions.windows import percent_rank_by

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    return percent_rank_by(ds, "event_type", "value")


def _q_pq_codes(sf_dir: str):
    """Product-quantization encoding of the embedding table
    (`functions/similarity.py: pq_encode`): 8 subspaces of width 8,
    4-codeword codebook taken deterministically from vec_id < 4,
    integer-exact distances at scale 1000 so the nearest-codeword
    assignment (ties to lowest id) and distortion replay in SQL —
    shuffle-free, one vectorized pass."""
    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from smartreader_ray.functions.similarity import pq_encode

    path = os.path.join(sf_dir, "embeddings.parquet")
    head = pq.read_table(path, columns=["vec_id", "embedding"])
    head = head.filter(pc.less(head.column("vec_id"), 4))
    head = head.take(pc.sort_indices(head.column("vec_id")))
    cb = np.stack([np.asarray(v, dtype=np.float64)
                   for v in head.column("embedding").to_pylist()])
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return pq_encode(ds, cb, n_subspaces=8, scale=1000)


def _q_pq_ann(sf_dir: str):
    """Composed chain #9 — compressed-domain ANN
    (`functions/similarity.py: pq_adc_topk`): PQ-encode the corpus,
    precompute per-query integer LUTs, scan codes with asymmetric
    distance, top-10 per query under the (dist, vec_id) total order.
    Same codebook as `pq_codes` (vec_id < 4); queries are vec_id 10
    and 20 (query_id by vec_id order). All integer → the whole chain
    hash-gates against one SQL replay."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from smartreader_ray.functions.similarity import pq_adc_topk

    path = os.path.join(sf_dir, "embeddings.parquet")
    t = pq.read_table(path, columns=["vec_id", "embedding"])

    def rows(pred):
        f = t.filter(pred)
        f = f.take(pc.sort_indices(f.column("vec_id")))
        return np.stack([np.asarray(v, dtype=np.float64)
                         for v in f.column("embedding").to_pylist()])

    cb = rows(pc.less(t.column("vec_id"), 4))
    qs = rows(pc.is_in(t.column("vec_id"),
                       value_set=pa.array([10, 20], type=pa.int64())))
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return pq_adc_topk(ds, cb, qs, n_subspaces=8, k=10, scale=1000)


def _q_impute_values(sf_dir: str):
    """Null imputation with the per-key exact median
    (`functions/standardize.py: impute_median`): a deterministic 1-in-20
    mask nulls out l_quantity, the per-returnflag median fills the
    holes, and an integer-cent rollup proves the imputed values are
    bit-exactly the SQL percentile_disc(0.5) — histogram reduction +
    broadcast fill, the row-sized data never shuffles."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.exchange import keyed_agg
    from smartreader_ray.functions.standardize import impute_median

    ds = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_linenumber", "l_returnflag", "l_quantity"],
    )

    def synth_nulls(b: pa.Table) -> pa.Table:
        import numpy as np

        k = pc.add(pc.multiply(b.column("l_orderkey"), 7),
                   b.column("l_linenumber")).to_numpy(
                       zero_copy_only=False)
        mask = pa.array(k % 20 == 0)  # Arrow ships no mod kernel
        q = pc.if_else(mask, pa.scalar(None, pa.float64()),
                       pc.cast(b.column("l_quantity"), pa.float64()))
        return pa.table({"l_returnflag": b.column("l_returnflag"),
                         "q": q})

    filled = impute_median(
        ds.map_batches(synth_nulls, batch_format="pyarrow"),
        "l_returnflag", "q")

    def cents(b: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": b.column("l_returnflag"),
            "qty_cents": pc.cast(pc.floor(pc.add(pc.multiply(
                b.column("q"), 100.0), 0.5)), pa.int64()),
        })

    return (
        keyed_agg(filled.map_batches(cents, batch_format="pyarrow"),
                  "l_returnflag", {"n": ("count", None),
                                   "qty_cents": ("sum", "qty_cents")})
    )


def _q_bfs_hops(sf_dir: str):
    """Multi-source BFS radius over the supplier hand-off graph
    (`functions/graph.py: bfs_hops`): minimum hop distance from the
    seed suppliers (every 50th key) to every supplier reachable in ≤3
    hops — crawl-frontier / contamination-blast-radius shape. Exact;
    the oracle is a depth-bounded recursive CTE."""
    from smartreader_ray.functions.graph import bfs_hops, consecutive_edges

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_suppkey"])
    edges = consecutive_edges(
        li, "l_orderkey", "l_linenumber", "l_suppkey", seq_stride=1000
    )
    import pyarrow.parquet as pq

    sup = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                        columns=["s_suppkey"])
    seeds = [k for k in sup.column("s_suppkey").to_pylist() if k % 50 == 0]
    return bfs_hops(edges, seeds, max_hops=3)


def _q_mode_by(sf_dir: str):
    """Per-source modal language with deterministic tie-break
    (`functions/reshape.py: mode_by`): per-batch count partials → one
    (key, value, n) exchange → vectorized per-group argmax."""
    from smartreader_ray.functions.reshape import mode_by

    ds = _read(sf_dir, "documents", ["source", "lang"])
    return mode_by(ds, "source", "lang")


def _q_rollup_sales(sf_dir: str):
    """Single-pass ROLLUP over (l_returnflag, l_linestatus)
    (`functions/reshape.py: rollup_agg`): all prefix grains in ONE
    shuffle; integer cents keep the rolled sums hash-exact."""
    from smartreader_ray.functions.reshape import rollup_agg

    ds = _read(
        sf_dir, "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"],
    )
    return rollup_agg(ds, ["l_returnflag", "l_linestatus"],
                      ["l_quantity", "l_extendedprice"])


def _q_retention(sf_dir: str):
    """Cohort retention triangle over the event stream
    (`functions/windows.py: retention_cohorts`): distinct (user, day)
    dedup → per-user first-day offsets → (cohort, offset) count.
    Integer epoch-day arithmetic both sides."""
    from smartreader_ray.functions.windows import retention_cohorts

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    return retention_cohorts(ds)


def _q_daily_resample(sf_dir: str):
    """Daily counts per event type with explicit zero gap-fill over
    the global day span (`functions/windows.py: resample_daily`) —
    the densification step before trend/moving-average models."""
    from smartreader_ray.functions.windows import resample_daily

    ds = _read(sf_dir, "events", ["event_type", "ts"])
    return resample_daily(ds)


def _q_table_diff(sf_dir: str):
    """Snapshot diff (CDC) between two deterministic versions of the
    corpus (`functions/setops.py: table_diff`): v1 drops doc_id%7==5,
    v2 drops doc_id%7==3 and appends ' v2' to text when doc_id%4==0 —
    yielding added / removed / changed keys. One groupby over (key,
    side, hash) rows; document bytes never cross the exchange."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.setops import table_diff

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def mk_left(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 7 != 5))

    def mk_right(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        keep = ids % 7 != 3
        b = b.filter(pa.array(keep))
        ids = ids[keep]
        suffix = np.where(ids % 4 == 0, " v2", "")
        text = pc.binary_join_element_wise(
            b.column("text"), pa.array(suffix, type=pa.string()), "")
        return pa.table({"doc_id": b.column("doc_id"), "text": text})

    left = docs.map_batches(mk_left, batch_format="pyarrow")
    right = docs.map_batches(mk_right, batch_format="pyarrow")
    return table_diff(left, right)


def _q_skyline_parts(sf_dir: str):
    """2-D Pareto front over parts, maximizing (p_retailprice, p_size)
    (`functions/topk.py: skyline`): per-block vectorized frontier →
    frontier-sized merge block → same kernel once more."""
    from smartreader_ray.functions.topk import skyline

    ds = _read(sf_dir, "part", ["p_partkey", "p_retailprice", "p_size"])
    return skyline(ds, "p_retailprice", "p_size")


def _q_edit1_names(sf_dir: str):
    """Edit-distance-1 similarity self-join over supplier names
    (`functions/fuzzy.py: edit1_pairs`, FastSS deletion blocking):
    candidates only within shared deletion-variant buckets, verified
    in place — never n² distance calls."""
    from smartreader_ray.functions.fuzzy import edit1_pairs

    ds = _read(sf_dir, "supplier", ["s_name"])
    return edit1_pairs(ds, "s_name")


def _q_phrase_search(sf_dir: str):
    """Positional phrase query 'hash join' per source
    (`functions/ngrams.py: phrase_count`): shuffle-free vectorized
    adjacency scan; only (source, n_docs, n_occ) partials exchange."""
    from smartreader_ray.functions.ngrams import phrase_count

    ds = _read(sf_dir, "documents", ["source", "text"])
    return phrase_count(ds, "hash", "join")


def _q_bloom_semi_join(sf_dir: str):
    """Revenue per returnflag over lineitem rows of high-value orders
    (`functions/join.py: semi_join`) through its SCALE path,
    ``_semi_anti_bloom``, whatever the key set's size: Bloom bitmap
    OR-merged from per-block partials, broadcast once, local prefilter,
    then exact verify join — result is exact."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.exchange import keyed_agg
    from smartreader_ray.functions.join import _key_sides, _semi_anti_bloom

    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_returnflag", "l_extendedprice"]
    )
    hv = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"]).map_batches(
        lambda b: b.filter(pc.greater(b.column("o_totalprice"), 450000.0)),
        batch_format="pyarrow",
    )
    kept = _semi_anti_bloom(_key_sides(li, hv, "l_orderkey", "o_orderkey"))

    def cents(b: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": b.column("l_returnflag"),
            "revenue_cents": pc.cast(pc.floor(pc.add(pc.multiply(
                b.column("l_extendedprice"), 100.0), 0.5)), pa.int64()),
        })

    return (
        keyed_agg(kept.map_batches(cents, batch_format="pyarrow"),
                  "l_returnflag", {"n": ("count", None),
                                   "revenue_cents": ("sum", "revenue_cents")})
    )


def _q_anti_join(sf_dir: str):
    """Customers who never placed an order above $300k, rolled up per
    market segment (`functions/join.py: anti_join` — SQL NOT EXISTS)
    through its SCALE path, ``_semi_anti_bloom``, whatever the key set's
    size: a Bloom MISS proves non-membership, so those rows are emitted
    locally with zero exchange; only bloom positives (mostly rows that
    will be dropped) enter the exact ``left_anti`` verify join."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.exchange import keyed_agg
    from smartreader_ray.functions.join import _key_sides, _semi_anti_bloom

    cust = _read(
        sf_dir, "customer", ["c_custkey", "c_mktsegment", "c_acctbal"]
    )
    ords = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        lambda b: b.filter(pc.greater(b.column("o_totalprice"), 300000.0)),
        batch_format="pyarrow",
    )
    never = _semi_anti_bloom(_key_sides(cust, ords, "c_custkey", "o_custkey"),
                             anti=True)

    def cents(b: pa.Table) -> pa.Table:
        return pa.table({
            "c_mktsegment": b.column("c_mktsegment"),
            "bal_cents": pc.cast(pc.floor(pc.add(pc.multiply(
                b.column("c_acctbal"), 100.0), 0.5)), pa.int64()),
        })

    return (
        keyed_agg(never.map_batches(cents, batch_format="pyarrow"),
                  "c_mktsegment", {"n": ("count", None),
                                   "bal_cents": ("sum", "bal_cents")})
    )


def _q_bloom_fpr(sf_dir: str):
    """Bloom-filter confusion matrix, per probe key
    (`functions/join.py: bloom_confusion`): the SAME splitmix64 +
    Kirsch–Mitzenmacher double-hash bitmap `semi_join`/`anti_join`
    broadcast at scale, built from the 1500 distinct customer keys
    into a deliberately small 4096-bit / k=2 filter, probed with the
    2000 part keys (500 true negatives). Output per probe key:
    (p_partkey, is_member, bloom_hit) — the is_member=1→bloom_hit=1
    invariant (no false negatives, i.e. the joins stay EXACT) and the
    measured false-positive rate are both readable off the table. The
    oracle replays splitmix64 bit-for-bit in DuckDB (HUGEINT masked
    multiplies), so this is hash-exact, not rows-only."""
    from smartreader_ray.functions.join import bloom_confusion

    cust = _read(sf_dir, "customer", ["c_custkey"])
    part = _read(sf_dir, "part", ["p_partkey"])
    return bloom_confusion(cust, part, "c_custkey", "p_partkey",
                           bloom_bits=4096, bloom_k=2)


def _q_ewma_activity(sf_dir: str):
    """Exponentially-decayed per-type activity
    (`functions/windows.py: ewma_decay`): half-life-one-day EWMA of
    daily event counts in EXACT Q40 fixed point (Σ c_d·2^(40-gap)) —
    the freshness signal crawl budgeting decays sources by, with no
    float accumulation order to disagree about. keys×days exchange
    only."""
    from smartreader_ray.functions.windows import ewma_decay

    ev = _read(sf_dir, "events", ["event_type", "ts"])
    return ewma_decay(ev, key_col="event_type")


def _q_semantic_decontam(sf_dir: str):
    """Embedding-space decontamination
    (`functions/similarity.py: cross_decontam`): training vectors
    (label≠0) whose cosine vs ANY eval vector (label=0) reaches 0.35,
    with the smallest matching eval id — the paraphrase-leak guard the
    n-gram `decontaminate` op can't see. Eval side broadcast once;
    train side streams through one matmul per block, no shuffle."""
    from smartreader_ray.functions.similarity import cross_decontam

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    return cross_decontam(emb, eval_label=0, tau=0.35)


def _q_decontam_clean_chain(sf_dir: str):
    """Chain #36 — semantic decontamination applied end-to-end:
    `similarity.cross_decontam` finds train vectors within cosine 0.35
    of the eval suite (label 0), `join.anti_join` removes them, and the
    CLEAN training set rolls up per label (count + id-sum so a single
    wrongly-kept/dropped row breaks the hash). The pattern every
    pretraining pipeline runs before mixing: leak-screen → subtract →
    remix."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.exchange import keyed_agg
    from smartreader_ray.functions.join import anti_join
    from smartreader_ray.functions.similarity import cross_decontam

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    bad = cross_decontam(emb, eval_label=0, tau=0.35) \
        .select_columns(["vec_id"]) \
        .map_batches(lambda b: b.rename_columns(["bad_id"]),
                     batch_format="pyarrow")
    train = emb.map_batches(
        lambda b: b.filter(pc.not_equal(b.column("label"), 0))
        .select(["vec_id", "label"]),
        batch_format="pyarrow")
    clean = anti_join(train, bad, "vec_id", "bad_id")

    def vec_ids(b: pa.Table) -> pa.Table:
        return pa.table({"label": b.column("label"),
                         "vec_id": pc.cast(b.column("vec_id"), pa.int64())})

    return (
        keyed_agg(clean.map_batches(vec_ids, batch_format="pyarrow"), "label",
                  {"n_clean": ("count", None),
                   "sum_vec_id": ("sum", "vec_id")})
    )


def _q_k_anonymity(sf_dir: str):
    """k-anonymity release gate (`functions/curation.py: k_anonymity`):
    customer quasi-identifier combinations (market segment × nation)
    whose anonymity set is smaller than k=8 — the groups a privacy
    release must suppress or generalize. Distinct-combination-sized
    exchange only; the under-k filter never sees row-level data."""
    from smartreader_ray.functions.curation import k_anonymity

    cust = _read(sf_dir, "customer", ["c_mktsegment", "c_nationkey"])
    return k_anonymity(cust, ["c_mktsegment", "c_nationkey"], k=8)


def _q_l_diversity(sf_dir: str):
    """l-diversity release gate (`functions/curation.py:l_diversity`,
    Machanavajjhala et al.): customer (segment × nation) groups whose
    account-balance band (floor(acctbal/2000)) shows fewer than l=4
    distinct values — groups that pass size checks but leak the
    sensitive attribute by uniformity. Two collapsing exchanges
    (distinct pairs, then combinations); rows never move."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.curation import l_diversity

    cust = _read(
        sf_dir, "customer", ["c_mktsegment", "c_nationkey", "c_acctbal"]
    )

    def band(b: pa.Table) -> pa.Table:
        v = pc.cast(pc.floor(pc.divide(
            pc.cast(b.column("c_acctbal"), pa.float64()), 2000.0)),
            pa.int64())
        return pa.table({
            "c_mktsegment": b.column("c_mktsegment"),
            "c_nationkey": pc.cast(b.column("c_nationkey"), pa.int64()),
            "band": v,
        })

    return (l_diversity(cust.map_batches(band, batch_format="pyarrow"),
                        ["c_mktsegment", "c_nationkey"], "band", l=4))


def _q_t_closeness(sf_dir: str):
    """t-closeness release gate (`functions/curation.py:t_closeness`,
    Li et al. ICDE'07) — the distribution leg of the privacy triad:
    customer (segment × nation) groups whose account-balance-band
    distribution sits further than t = 9/20 total-variation distance
    from the corpus baseline, decided by EXACT integer
    cross-multiplication (no float ever). Same pair exchange as
    l_diversity; the oracle replays the numerator and the gate."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.curation import t_closeness

    cust = _read(
        sf_dir, "customer", ["c_mktsegment", "c_nationkey", "c_acctbal"]
    )

    def band(b: pa.Table) -> pa.Table:
        v = pc.cast(pc.floor(pc.divide(
            pc.cast(b.column("c_acctbal"), pa.float64()), 2000.0)),
            pa.int64())
        return pa.table({
            "c_mktsegment": b.column("c_mktsegment"),
            "c_nationkey": pc.cast(b.column("c_nationkey"), pa.int64()),
            "band": v,
        })

    return (t_closeness(cust.map_batches(band, batch_format="pyarrow"),
                        ["c_mktsegment", "c_nationkey"], "band",
                        t_num=9, t_den=20))


def _q_join_explain(sf_dir: str):
    """Join planning profiler (`functions/join.py: join_cardinality`):
    exact inner-join output size Σ c_l(k)·c_r(k), distinct-key overlap
    classes, null-drop counts and the max per-key fanout (the skew
    hazard a planner salts on) for lineitem ⋈ high-value orders —
    measured with one distinct-key-sized exchange, BEFORE paying for
    the join itself. One row, all int64."""
    import pyarrow.compute as pc

    from smartreader_ray.functions.join import join_cardinality

    li = _read(sf_dir, "lineitem", ["l_orderkey"])
    hv = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"]).map_batches(
        lambda b: b.filter(pc.greater(b.column("o_totalprice"),
                                      300000.0)).select(["o_orderkey"]),
        batch_format="pyarrow",
    )
    return join_cardinality(li, hv, "l_orderkey", "o_orderkey")


def _q_basket_pairs(sf_dir: str):
    """Market-basket co-occurrence over orders: top-25 part pairs by
    the number of orders containing both (`functions/graph.py:
    basket_pairs`). Deterministic (count desc, pair asc) total order so
    boundary ties never vary with partitioning."""
    from smartreader_ray.functions.graph import basket_pairs

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    return basket_pairs(li, "l_orderkey", "l_partkey", top_n=25)


def _q_triangles(sf_dir: str):
    """Exact triangle count of the undirected PART hand-off graph
    (`functions/graph.py: triangle_count`, degree-ordered node
    iterator): wedges generated once at each triangle's minimum-rank
    vertex, closed by ONE pair-keyed groupby against flagged edges.
    The part graph (not the supplier graph) is the right subject: with
    ~20× more nodes than suppliers it is SPARSE, the regime the
    algorithm's O(m^{3/2}) bound is for — the 1000-node supplier graph
    is a near-clique where ANY exact method degenerates to n³/6."""
    from smartreader_ray.functions.graph import (consecutive_edges,
                                                 triangle_count)

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_partkey"])
    edges = consecutive_edges(
        li, "l_orderkey", "l_linenumber", "l_partkey", seq_stride=1000
    )
    return triangle_count(edges)


def _q_kcore(sf_dir: str):
    """Fixed-round k-core peeling (`functions/graph.py:kcore_rounds`,
    Seidman's cohesion core, synchronous-peel formulation) of the part
    hand-off graph: 3 rounds at k=22 — the graph peels 28983 → 15749
    edges at sf0.01 with 1277 nodes surviving. Edges live as ONE packed
    int64 per round; survivors broadcast as a sorted array; the oracle
    unrolls the same 3 rounds as semi-join CTEs."""
    from smartreader_ray.functions.graph import (consecutive_edges,
                                                 kcore_rounds)

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_partkey"])
    edges = consecutive_edges(
        li, "l_orderkey", "l_linenumber", "l_partkey", seq_stride=1000
    )
    return kcore_rounds(edges, k=22, rounds=3)


def _q_cdc_reprocess_chain(sf_dir: str):
    """Composed chain #7 — incremental reprocessing driven by CDC:
    snapshot-diff the two corpus versions (`setops.table_diff`), keep
    the dirty keys (added + changed), semi-join version 2 down to just
    those documents (`join.semi_join`, AUTO regime — the dirty-key set
    is ~⅓ of the corpus, so the broadcast `is_in` path is the correct
    one; the Bloom scale path is exercised by `bloom_semi_join`), and
    roll up per-lang doc counts + char totals of the TO-REPROCESS set.
    One SQL replay end-to-end — the 'only re-extract what changed
    since the last crawl' loop as a single lazy pipeline."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.exchange import keyed_agg
    from smartreader_ray.functions.join import semi_join
    from smartreader_ray.functions.setops import table_diff

    docs = _read(sf_dir, "documents", ["doc_id", "lang", "text"])

    def mk_left(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 7 != 5)).select(["doc_id", "text"])

    def mk_right(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        keep = ids % 7 != 3
        b = b.filter(pa.array(keep))
        ids = ids[keep]
        suffix = np.where(ids % 4 == 0, " v2", "")
        text = pc.binary_join_element_wise(
            b.column("text"), pa.array(suffix, type=pa.string()), "")
        return pa.table({"doc_id": b.column("doc_id"),
                         "lang": b.column("lang"), "text": text})

    v1 = docs.map_batches(mk_left, batch_format="pyarrow")
    v2 = docs.map_batches(mk_right, batch_format="pyarrow")
    diff = table_diff(v1, v2.select_columns(["doc_id", "text"]))
    dirty = diff.map_batches(
        lambda b: b.filter(
            pc.not_equal(b.column("status"), "removed")
        ).select(["doc_id"]),
        batch_format="pyarrow",
    ).materialize()  # change-sized; semi_join consumes it twice — without
    # this the whole diff pipeline (two corpus scans) re-executes
    kept = semi_join(v2, dirty, "doc_id", "doc_id")

    def chars(b: pa.Table) -> pa.Table:
        return pa.table({
            "lang": b.column("lang"),
            "n_chars": pc.cast(pc.utf8_length(b.column("text")), pa.int64()),
        })

    return (
        keyed_agg(kept.map_batches(chars, batch_format="pyarrow"),
                  "lang", {"n_docs": ("count", None),
                           "sum_chars": ("sum", "n_chars")})
    )


def _q_mad_outliers(sf_dir: str):
    """Robust per-event-type outlier counts via Median Absolute
    Deviation (`functions/standardize.py: mad_outliers`): two exact
    histogram-quantile reductions with key-sized broadcasts between,
    strict |v − med| > 3·mad — bit-equal doubles both sides."""
    from smartreader_ray.functions.standardize import mad_outliers

    ds = _read(sf_dir, "events", ["event_type", "value"])
    return mad_outliers(ds, "event_type", "value", k=3.0)


def _q_user_paths(sf_dir: str):
    """Top-20 per-(user, day) behavioral paths
    (`functions/windows.py: user_day_paths`): one user-keyed exchange,
    C-level path assembly per group, path-sized count groupby,
    deterministic boundary."""
    from smartreader_ray.functions.windows import user_day_paths

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])
    return user_day_paths(ds, top_n=20)


def _q_event_pattern(sf_dir: str):
    """SQL:2016 row-pattern matching, MATCH_RECOGNIZE-lite
    (`functions/windows.py: match_pattern`): per user, count
    non-overlapping 'view (click)+ purchase' runs in the time-ordered
    event-symbol sequence — funnels with repetition that the plain
    step-funnel can't express. Symbols assigned vectorized per batch
    BEFORE the one per-user exchange (1-byte symbol on the wire)."""
    from smartreader_ray.functions.windows import match_pattern

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])
    return match_pattern(
        ds, r"vc+p",
        {"view": "v", "click": "c", "purchase": "p",
         "signup": "s", "error": "e"},
    )


def _q_profile_lineitem(sf_dir: str):
    """Numeric table-health profile of lineitem's measure columns
    (`functions/reshape.py: profile_table`): per column one stats row
    (n, nulls, min, max, cents sum); exchange is columns × blocks."""
    from smartreader_ray.functions.reshape import profile_table

    cols = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
    ds = _read(sf_dir, "lineitem", cols)
    return profile_table(ds, cols)


def _q_sort_bounds(sf_dir: str):
    """Deterministic range-partition boundary planning over
    l_extendedprice (`functions/reshape.py: sort_bounds`): md5-sampled
    rows → exact discrete quantiles of the sample = equi-depth shard
    bounds; the RangePartitioner step, SQL-replayable."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.reshape import sort_bounds

    ds = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_extendedprice"]
    ).map_batches(
        lambda b: pa.table({
            "rid": pc.add(pc.multiply(pc.cast(b.column("l_orderkey"),
                                              pa.int64()), 1000),
                          pc.cast(b.column("l_linenumber"), pa.int64())),
            "l_extendedprice": b.column("l_extendedprice"),
        }),
        batch_format="pyarrow",
    )
    return sort_bounds(ds, "l_extendedprice", "rid",
                       num_shards=8, sample_prob=0.1)


def _q_latest_version(sf_dir: str):
    """Log compaction: each (user, event_type)'s LATEST event by
    (ts desc, id desc) (`functions/reshape.py: latest_by`) — the CDC
    'current state per entity' materialization; associative reduce, so
    only keys × blocks rows cross the exchange."""
    from smartreader_ray.functions.reshape import latest_by

    ds = _read(
        sf_dir, "events", ["user_id", "event_type", "ts", "event_id", "value"]
    )
    return latest_by(ds, ["user_id", "event_type"], "ts", "event_id",
                     ["value"])


def _q_shot_boundaries(sf_dir: str):
    """Video temporal segmentation over REAL demux + byte-level frame
    decode (`stages/media.py: ShotBoundaryStage`): synthetic FVID clips
    whose 16×16 BMP frames are pure functions of (doc_id, frame) —
    scene base shifts the red channel by 128 every scene_len frames —
    so every detected boundary is replayed by the SQL oracle from the
    same formula; a demux/decode/delta bug of one pixel flips the hash
    (the `media_pipeline` gating pattern, extended to video)."""
    import numpy as np
    import pyarrow as pa

    from smartreader_ray.stages.codecs import bmp_encode
    from smartreader_ray.stages.media import ShotBoundaryStage, fvid_encode

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        keep = ids % 5 == 0
        ids = ids[keep]
        payloads = []
        for i in ids:
            i = int(i)
            n_frames = 8 + i % 9
            scene_len = 3 + i % 3
            frames = []
            for f in range(n_frames):
                px = np.empty((16, 16, 3), dtype=np.uint8)
                px[:, :, 0] = (i * 31 + 128 * (f // scene_len)) % 256
                px[:, :, 1] = f % 256
                px[:, :, 2] = (i * 7 + 3) % 256
                frames.append(bmp_encode(px))
            payloads.append(fvid_encode(frames))
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "media_ref": pa.array([f"vid://{int(i)}" for i in ids],
                                  type=pa.string()),
            "payload": pa.array(payloads, type=pa.binary()),
        })

    ds = _read(
        sf_dir, "documents", ["doc_id"]
    ).map_batches(synth, batch_format="pyarrow")
    bounds = ds.map_batches(
        ShotBoundaryStage(), batch_format="pyarrow", batch_size=16,
    )

    def thin(b: pa.Table) -> pa.Table:
        assert all(e == "" for e in b.column("error").to_pylist())
        return b.select(["doc_id", "frame_idx"])

    return bounds.map_batches(thin, batch_format="pyarrow")


def _q_interval_overlap(sf_dir: str):
    """Interval × window overlap join via exact bucket binning
    (`functions/windows.py: interval_window_overlap`): per-(user, day)
    activity intervals expanded to the 6-hour windows they overlap —
    a bucket-keyed count groupby replaces the non-equi join."""
    from smartreader_ray.functions.windows import interval_window_overlap

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    return interval_window_overlap(ds, window_s=21_600)


def _q_engagement_chain(sf_dir: str):
    """Composed chain #8 — engagement distribution over SESSIONIZED
    events: gap-based sessions (`windows.sessionize`) → per-session
    size bucket (1 / 2-3 / 4-7 / 8+) and integer-µs duration → bucket
    rollup (n_sessions, sum_events, sum_duration_us). One SQL replay
    chains the LAG/SUM-OVER sessionization into the same rollup."""
    import numpy as np
    import pyarrow as pa

    from smartreader_ray.functions.exchange import keyed_agg
    from smartreader_ray.functions.windows import sessionize

    ds = _read(sf_dir, "events", ["user_id", "ts", "value", "event_id"])
    sess = sessionize(ds, gap_s=1800.0)

    BUCKETS = np.asarray(["1", "2-3", "4-7", "8+"])

    def sessions(b: pa.Table) -> pa.Table:
        n = b.column("n_events").to_numpy(zero_copy_only=False)
        t0 = b.column("t_start").to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        t1 = b.column("t_end").to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        return pa.table({
            "bucket": pa.array(BUCKETS[np.digitize(n, [2, 4, 8])],
                               type=pa.string()),
            "n_events": n.astype(np.int64),
            "duration_us": t1 - t0,
        })

    return (
        keyed_agg(sess.map_batches(sessions, batch_format="pyarrow"), "bucket",
                  {"n_sessions": ("count", None),
                   "sum_events": ("sum", "n_events"),
                   "sum_duration_us": ("sum", "duration_us")})
    )


def _q_pivot_roundtrip(sf_dir: str):
    """Reshape inverse proof: pivot user × event-type counts wide, then
    `unpivot` back to long (`functions/reshape.py: unpivot`) — the
    output must equal the dense (user × declared-type) count grid,
    explicit zeros included. SQL replays the grid directly."""
    from smartreader_ray.functions import pivot_counts
    from smartreader_ray.functions.reshape import unpivot

    types = ["click", "error", "purchase", "signup", "view"]
    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    wide = pivot_counts(ds, "user_id", "event_type", types)
    return unpivot(
        wide, "user_id", [f"n_{t}" for t in types],
        var_col="variable", val_col="n",
    )


def _q_markov_events(sf_dir: str):
    """First-order Markov transition matrix over per-user event
    sequences (`functions/windows.py: markov_transitions`): one
    user-keyed exchange, per-group vectorized lag pairing, |types|^2
    count partials; p is the single n/tot IEEE division both engines
    evaluate identically."""
    from smartreader_ray.functions.windows import markov_transitions

    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts", "event_id"])
    return markov_transitions(ds)


def _q_attribution(sf_dir: str):
    """First-touch conversion attribution over gap sessions
    (`functions/windows.py: session_attribution`): sessions credited to
    their first event's type; conversions = sessions containing a
    'purchase'; exact integer-cent conversion value."""
    from smartreader_ray.functions.windows import session_attribution

    ds = _read(
        sf_dir, "events", ["user_id", "ts", "event_type", "value", "event_id"]
    )
    return session_attribution(ds)


def _q_rolling_anomaly(sf_dir: str):
    """Trailing-rows anomaly detection (`functions/windows.py:
    rolling_anomaly`): flag events whose cents exceed 2x the mean of
    the previous 4 same-user events — pure int64 compare
    (cents*k > factor*trail_sum), full windows only."""
    from smartreader_ray.functions.windows import rolling_anomaly

    ds = _read(sf_dir, "events", ["user_id", "ts", "value", "event_id"])
    return rolling_anomaly(ds, k=4, factor=2)


def _q_ntile_values(sf_dir: str):
    """NTILE(8) equal-frequency buckets over event value cents with
    (cents, id) total order (`functions/reshape.py: ntile_summary`) —
    a true distributed global ranking (TeraSort sample → range exchange
    → offset ranks), rolled up per bucket."""
    from smartreader_ray.functions.reshape import ntile_summary

    ds = _read(sf_dir, "events", ["value", "event_id"])
    return ntile_summary(ds, "value", "event_id", k=8)


def _q_key_skew_gini(sf_dir: str):
    """Key-skew diagnostics over lineitem's l_partkey (`functions/
    reshape.py: key_gini`): exact Gini over per-key counts via
    distributed ranking — int64 sufficient stats + one IEEE division."""
    from smartreader_ray.functions.reshape import key_gini

    ds = _read(sf_dir, "lineitem", ["l_partkey"])
    return key_gini(ds, "l_partkey")


def _q_audio_autocorr(sf_dir: str):
    """Exact integer PCM autocorrelation at lags 1/2/4 (`stages/
    media.py: AudioAutocorrFeatures`): same deterministic ramp WAVs as
    `audio_features`, REAL stdlib `wave` decode in a task stage, pure
    int64 Σ s[i]·s[i+L]; the oracle replays the ramp per lag with a
    lateral generate_series."""
    import numpy as np
    import pyarrow as pa

    from smartreader_ray.stages.codecs import wav_encode
    from smartreader_ray.stages.media import AudioAutocorrFeatures

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        payloads = []
        for i in ids:
            i = int(i)
            n = 50 + i % 150
            s = (((i % 7 + 1) * np.arange(n)) % 2001 - 1000).astype(np.int16)
            payloads.append(wav_encode(s, framerate=8000))
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "media_ref": pa.array(
                [f"wav://{int(i)}" for i in ids], type=pa.string()),
            "payload": pa.array(payloads, type=pa.binary()),
        })

    ds = _read(
        sf_dir, "documents", ["doc_id"]
    ).map_batches(synth, batch_format="pyarrow")
    feats = ds.map_batches(
        AudioAutocorrFeatures(lags=(1, 2, 4)), batch_format="pyarrow",
        batch_size=32,
    )

    def thin(batch: pa.Table) -> pa.Table:
        assert batch.num_rows == 0 or all(
            e == "" for e in batch.column("error").to_pylist()
        ), "decode errors on synthesized WAVs"
        return batch.select(
            ["doc_id", "n_frames", "ac_0", "ac_1", "ac_2", "ac_4"])

    return feats.map_batches(thin, batch_format="pyarrow")


def _synth_interleaved_spans():
    """Deterministic (doc_id, spans) synthesis from `documents` —
    5-token text chunks, an image after every 3rd chunk, a leading
    image when doc_id%4==0, planted alts — shared by `caption_pairs`
    and `interleave_audit` so their oracles can rebuild the identical
    interleaving (the shared `_SPAN_CTES` SQL prefix)."""
    import pyarrow as pa

    from smartreader_ray.spanio import make_span

    def synth(batch: pa.Table) -> pa.Table:
        rows_doc, rows_spans = [], []
        for did, text in zip(batch.column("doc_id").to_pylist(),
                             batch.column("text").to_pylist()):
            did = int(did)
            toks = (text or "").strip().split(" ")
            spans = []
            if did % 4 == 0:
                spans.append(make_span("image", "", f"img://{did}/0",
                                       len(spans)))
            for j in range((len(toks) + 4) // 5):
                spans.append(make_span(
                    "text", " ".join(toks[j * 5:j * 5 + 5]), "",
                    len(spans)))
                if j % 3 == 1:
                    alt = f"fig {j + 1}" if (did + j) % 5 == 0 else ""
                    spans.append(make_span("image", alt,
                                           f"img://{did}/{j + 1}",
                                           len(spans)))
            rows_doc.append(did)
            rows_spans.append(spans)
        return pa.table({
            "doc_id": pa.array(rows_doc, type=pa.int64()),
            "spans": pa.array(rows_spans),
        })

    return synth


def _q_caption_pairs(sf_dir: str):
    """Interleaved text⇄media alignment (`spanio.py:
    caption_pairs_batch`): every media span paired with its caption —
    own alt text, else nearest non-empty text span (preceding wins
    ties), over the shared deterministic span synthesis
    (`_synth_interleaved_spans`) so the oracle replays the pairing
    with IGNORE-NULLS windows."""
    from smartreader_ray.spanio import caption_pairs_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return (ds.map_batches(_synth_interleaved_spans(),
                           batch_format="pyarrow")
            .map_batches(caption_pairs_batch, batch_format="pyarrow"))


def _q_interleave_audit(sf_dir: str):
    """Per-document modality-balance audit (`spanio.py:
    interleave_stats_batch`): text/media span counts + kind
    ALTERNATIONS along the span order — the MMC4-style interleaving
    statistic, fully vectorized over the Arrow list column (one
    flatten + offsets pass, boundary-safe adjacent compare). Runs on
    the same deterministic span synthesis as `caption_pairs`; every
    output column is an exact int64."""
    from smartreader_ray.spanio import interleave_stats_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return (ds.map_batches(_synth_interleaved_spans(),
                           batch_format="pyarrow")
            .map_batches(interleave_stats_batch, batch_format="pyarrow"))


def _q_mm_pack(sf_dir: str):
    """Multimodal sequence packing (`spanio.py:pack_spans_batch`):
    assign every interleaved span to a fixed 256-token training
    sequence — text spans cost their token count, each image costs a
    64-token patch budget (the Flamingo/MMC4 packing step between
    extraction and batching). Prefix-packing boundary rule
    (seq = exclusive-cumsum // budget) so the assignment is closed-form
    and the oracle replays it with one window SUM; per-doc, zero
    shuffle — the whole operator is two map_batches."""
    from smartreader_ray.spanio import pack_spans_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return (ds.map_batches(_synth_interleaved_spans(),
                           batch_format="pyarrow")
            .map_batches(pack_spans_batch, batch_format="pyarrow"))


def _q_pack_overflow_audit(sf_dir: str):
    """Composed chain #25: corpus rollup of the prefix-packing rule's
    overflow cost — how many sequences exceed the 256-token budget
    (the straddling span the closed-form rule allows), the total and
    max overflow — the number a batching layer needs to size its
    padding/truncation. Per-block 1-row integer partials over the
    packed output; the exchange is ONE row per block."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Max, Sum

    from smartreader_ray.spanio import pack_spans_batch

    def partial(b: pa.Table) -> pa.Table:
        cost = b.column("cost")
        over = pc.max_element_wise(
            pc.subtract(cost, pa.scalar(256, type=pa.int64())),
            pa.scalar(0, type=pa.int64()))
        return pa.table({
            "n_seqs": pa.array([b.num_rows], type=pa.int64()),
            "n_overflow": pa.array(
                [pc.sum(pc.cast(pc.greater(cost, 256), pa.int64())).as_py()
                 or 0], type=pa.int64()),
            "total_cost": pa.array([pc.sum(cost).as_py() or 0],
                                   type=pa.int64()),
            "total_overflow": pa.array([pc.sum(over).as_py() or 0],
                                       type=pa.int64()),
            "max_overflow": pa.array(
                [pc.max(over).as_py() if b.num_rows else 0],
                type=pa.int64()),
        })

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    agg = (ds.map_batches(_synth_interleaved_spans(),
                          batch_format="pyarrow")
           .map_batches(pack_spans_batch, batch_format="pyarrow")
           .map_batches(partial, batch_format="pyarrow")
           .aggregate(Sum("n_seqs", alias_name="n_seqs"),
                      Sum("n_overflow", alias_name="n_overflow"),
                      Sum("total_cost", alias_name="total_cost"),
                      Sum("total_overflow", alias_name="total_overflow"),
                      Max("max_overflow", alias_name="max_overflow")))
    return pa.table({k: pa.array([int(agg[k])], type=pa.int64())
                     for k in ("n_seqs", "n_overflow", "total_cost",
                               "total_overflow", "max_overflow")})


def _q_media_url_dedup(sf_dir: str):
    """Cross-document media dedup (the LAION/MMC4 'same CDN asset on
    many pages' screen): canonicalize every media_ref to its asset
    bucket — deterministic (doc·31 + k·17) % 1000 stand-in for URL
    canonicalization, k parsed from the ref path — and keep the FIRST
    occurrence corpus-wide (min (doc_id, offset), packed into ONE int64
    so winner doc + offset + count all come from a single Min/Sum
    exchange of ≤1000 bucket rows; loud 2²⁰/2⁴² pack bounds — the
    priority_dedup composite pattern)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.exchange import keyed_agg

    def partial(b: pa.Table) -> pa.Table:
        spans = b.column("spans").combine_chunks()
        offsets = spans.offsets.to_numpy(zero_copy_only=False).astype(
            np.int64)
        flat = spans.flatten()
        doc_rep = np.repeat(
            b.column("doc_id").to_numpy(zero_copy_only=False).astype(
                np.int64),
            offsets[1:] - offsets[:-1])
        is_media = pc.invert(pc.equal(flat.field("kind"),
                                      "text")).to_numpy(
            zero_copy_only=False)
        refs = flat.field("media_ref").to_pandas()[is_media]
        doc = doc_rep[is_media]
        off = flat.field("offset").to_numpy(
            zero_copy_only=False).astype(np.int64)[is_media]
        # ref = 'img://{doc}/{k}' — k is the path tail
        k = refs.str.rsplit("/", n=1).str[-1].astype(np.int64).to_numpy()
        assert (off < (1 << 20)).all() and (doc < (1 << 42)).all(), \
            "media_url_dedup pack bounds exceeded"
        return pa.table({"asset_bucket": (doc * 31 + k * 17) % 1000,
                         "packed": doc * (1 << 20) + off})

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    agg = keyed_agg(ds.map_batches(_synth_interleaved_spans(),
                                   batch_format="pyarrow")
                    .map_batches(partial, batch_format="pyarrow"),
                    "asset_bucket", {"packed": ("min", "packed"),
                                     "n_refs": ("count", None)})

    def unpack(b: pa.Table) -> pa.Table:
        packed = b.column("packed").to_numpy(zero_copy_only=False).astype(
            np.int64)
        return pa.table({
            "asset_bucket": b.column("asset_bucket"),
            "winner_doc": pa.array(packed >> 20, type=pa.int64()),
            "winner_offset": pa.array(packed & ((1 << 20) - 1),
                                      type=pa.int64()),
            "n_refs": pc.cast(b.column("n_refs"), pa.int64()),
        })

    return agg.map_batches(unpack, batch_format="pyarrow")


def _q_interleave_gate_chain(sf_dir: str):
    """Composed chain #23: modality-gated curation — interleave stats
    per doc (`interleave_stats_batch`) with the source carried through
    the 1:1 synthesis, gate on 'well-interleaved multimodal doc'
    (n_media ≥ 1 AND n_text ≥ 2·n_media AND n_alt ≥ n_media — images
    woven through text, not clumped), then a per-source keep rollup.
    Stats + gate are stateless map_batches; the only exchange is
    source-sized integer partials."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.exchange import keyed_agg
    from smartreader_ray.spanio import interleave_stats_batch

    synth = _synth_interleaved_spans()

    def kept(b: pa.Table) -> pa.Table:
        stats = interleave_stats_batch(synth(b))  # row-aligned 1:1
        nm = stats.column("n_media").to_numpy(zero_copy_only=False)
        nt = stats.column("n_text").to_numpy(zero_copy_only=False)
        na = stats.column("n_alt").to_numpy(zero_copy_only=False)
        keep = (nm >= 1) & (nt >= 2 * nm) & (na >= nm)
        return pa.table({
            "source": b.column("source"),
            "n_kept": keep.astype(np.int64),
            "media_kept": np.where(keep, nm, 0),
            "alt_kept": np.where(keep, na, 0),
        }).filter(pc.is_valid(b.column("source")))

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    return (keyed_agg(ds.map_batches(kept, batch_format="pyarrow"),
                      "source", {"n_docs": ("count", None),
                                 "n_kept": ("sum", "n_kept"),
                                 "media_kept": ("sum", "media_kept"),
                                 "alt_kept": ("sum", "alt_kept")}))


def _q_mm_minhash_dedup(sf_dir: str):
    """Interleaved (multimodal) near-dedup: MinHash-LSH candidates +
    exact n-gram-Jaccard verify over the MULTIMODAL token stream —
    text tokens and media_refs interleaved in span order — so two
    pages sharing prose but differing image sets score below the
    text-only duplicate threshold (and media-only mirrors still pair).
    Rides the stock MinHasher / minhash_dedup kernels unchanged; the
    only new code is the vectorized span→token-stream join (one
    if_else + binary_join over the list offsets, zero per-span
    Python)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions import minhash_dedup

    def mm_text(b: pa.Table) -> pa.Table:
        spans = b.column("spans").combine_chunks()
        off = spans.offsets.to_numpy(zero_copy_only=False).astype(
            np.int64)
        flat = spans.flatten()
        toks = pc.if_else(pc.equal(flat.field("kind"), "text"),
                          flat.field("text"), flat.field("media_ref"))
        lists = pa.ListArray.from_arrays(
            pa.array(off - off[0], type=pa.int32()), toks)
        return pa.table({
            "doc_id": b.column("doc_id"),
            "text": pc.binary_join(lists, " "),
        })

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    mm = (ds.map_batches(_synth_interleaved_spans(),
                         batch_format="pyarrow")
          .map_batches(mm_text, batch_format="pyarrow"))
    return minhash_dedup(mm, threshold=0.5)


def _q_caption_coverage(sf_dir: str):
    """Composed chain #24: per-source caption-coverage audit — how much
    of each source's media carries a usable caption and from WHERE
    (own alt text / preceding text span / following / none), plus the
    total span-offset distance (alignment tightness: a source whose
    captions sit 4 spans away trains worse image-text pairs than one
    at distance 1). Caption pairing (`spanio.caption_pairs_batch`) runs
    per batch with source attached by an in-batch doc→source merge;
    the only exchange is (source × caption_src)-sized integer
    partials."""
    import pandas as pd
    import pyarrow as pa

    from smartreader_ray.functions.exchange import keyed_agg
    from smartreader_ray.spanio import caption_pairs_batch

    synth = _synth_interleaved_spans()

    def captions(b: pa.Table) -> pa.Table:
        pairs = caption_pairs_batch(synth(b)).to_pandas()
        src = pd.DataFrame({
            "doc_id": b.column("doc_id").to_pandas(),
            "source": b.column("source").to_pandas(),
        })
        j = pairs.merge(src, on="doc_id", how="left").dropna(
            subset=["source", "caption_src"])
        return pa.Table.from_pandas(j[["source", "caption_src", "distance"]],
                                    preserve_index=False)

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    return (keyed_agg(ds.map_batches(captions, batch_format="pyarrow"),
                      ["source", "caption_src"],
                      {"n_media": ("count", None),
                       "total_distance": ("sum", "distance")}))


def _q_span_normalize(sf_dir: str):
    """Span-sequence canonicalization (`spanio.normalize_spans_batch`):
    drop whitespace-empty TEXT spans, merge maximal adjacent-text runs
    (single-space join), trim alts, renumber offsets — the
    normalization pass run before any span-sequence equality compare
    (the engine's acceptance invariant). One flatten + binary_join
    kernel per block, zero shuffle; output is the flat normalized span
    table."""
    from smartreader_ray.spanio import normalize_spans_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return (ds.map_batches(_synth_interleaved_spans(),
                           batch_format="pyarrow")
            .map_batches(normalize_spans_batch, batch_format="pyarrow"))


def _q_modality_runs(sf_dir: str):
    """Modality run-length audit (`spanio.modality_runs_batch`): per-doc
    maximal same-class runs + longest text/media run — the burstiness
    statistic MMC4-style interleaved filters gate on (complements
    `interleave_audit`'s alternation count). Vectorized reduceat
    rollups per block; one row per doc leaves each block."""
    from smartreader_ray.spanio import modality_runs_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return (ds.map_batches(_synth_interleaved_spans(),
                           batch_format="pyarrow")
            .map_batches(modality_runs_batch, batch_format="pyarrow"))


def _synth_span_variants():
    """(doc_id, spans_a, spans_b) synthesis for the span-diff operator:
    variant A is the shared deterministic interleaving
    (`_synth_interleaved_spans`); variant B applies one deterministic
    corruption per residue class — doc%11==3 deletes the span at index
    1, doc%11==5 rewrites the first image's media_ref (`||'?v=2'`),
    doc%11==7 appends ' X' to the first text span — so the diff
    operator sees every mismatch class and the oracle can replay the
    corruption with window functions."""
    import pyarrow as pa

    synth = _synth_interleaved_spans()

    def fn(batch: pa.Table) -> pa.Table:
        t = synth(batch)
        out_b = []
        for did, spans in zip(t.column("doc_id").to_pylist(),
                              t.column("spans").to_pylist()):
            did = int(did)
            b = [dict(s) for s in spans]
            if did % 11 == 3 and len(b) > 1:
                del b[1]
                for i, s in enumerate(b):
                    s["offset"] = i
            elif did % 11 == 5:
                for s in b:
                    if s["kind"] == "image":
                        s["media_ref"] = s["media_ref"] + "?v=2"
                        break
            elif did % 11 == 7:
                for s in b:
                    if s["kind"] == "text":
                        s["text"] = s["text"] + " X"
                        break
            out_b.append(b)
        return pa.table({
            "doc_id": t.column("doc_id"),
            "spans_a": t.column("spans"),
            "spans_b": pa.array(out_b, type=t.column("spans").type),
        })

    return fn


def _q_span_diff(sf_dir: str):
    """Composed chain #26 — the ACCEPTANCE INVARIANT as an operator
    (`spanio.span_diff_batch`): per-document span-sequence equality
    under (kind, text, media_ref, order) against a deterministically
    perturbed variant, reporting the first mismatching index and the
    first mismatching field (kind > text > media_ref; pure prefix →
    'length'). This is the per-row check the north star grades
    extraction on, run corpus-wide as a data operator: per-doc zipper
    compare, fully vectorized, zero shuffle."""
    from smartreader_ray.spanio import span_diff_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return (ds.map_batches(_synth_span_variants(), batch_format="pyarrow")
            .map_batches(span_diff_batch, batch_format="pyarrow"))


def _q_span_boilerplate(sf_dir: str):
    """Cross-document boilerplate-span screen (CCNet's repeated-line
    filter at SPAN granularity — headers/footers/nav chrome repeat
    verbatim across pages): count corpus-wide occurrences of every
    TEXT span's exact content, mark spans whose content occurs >= 20
    times, roll up per document (n_text_spans, n_boiler, n_kept).
    The synthesis plants the chrome the screen exists for — docs with
    doc_id%3==0 carry an 'all rights reserved contact us' footer span,
    doc_id%5==0 additionally 'follow us on social media' — so at
    sf>=0.01 exactly the planted spans cross the threshold while
    natural word-soup chunks (max 7 repeats) stay under it.
    Scale shape: one groupby on the span content for the counts, then
    the repo's vectorized `hash_join` (run-length emit kernel) to
    stamp counts back onto span occurrences, then a per-doc integer
    rollup — two key exchanges, no broadcast of an unbounded hot list,
    no per-key Python."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.exchange import keyed_agg
    from smartreader_ray.functions.join import hash_join

    THRESH = 20
    synth = _synth_interleaved_spans()

    def text_spans(b: pa.Table) -> pa.Table:
        import numpy as np

        t = synth(b)
        spans = t.column("spans").combine_chunks()
        offs = spans.offsets.to_numpy(zero_copy_only=False).astype(
            np.int64)
        n_doc = np.diff(offs)
        flat = spans.flatten()
        txt = pc.coalesce(flat.field("text"),
                          pa.scalar("", type=pa.string()))
        keep = pc.and_(
            pc.equal(flat.field("kind"), "text"),
            pc.greater(pc.utf8_length(txt), 0)).to_numpy(
                zero_copy_only=False)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(
            np.int64)
        doc_rep = np.repeat(ids, n_doc)
        kidx = np.flatnonzero(keep)
        m3 = ids[ids % 3 == 0]
        m5 = ids[ids % 5 == 0]
        foot = pa.array(
            ["all rights reserved contact us"] * len(m3)
            + ["follow us on social media"] * len(m5),
            type=pa.string())
        return pa.table({
            "doc_id": pa.array(np.concatenate([doc_rep[kidx], m3, m5]),
                               type=pa.int64()),
            "txt": pa.concat_arrays(
                [txt.take(pa.array(kidx, type=pa.int64())), foot]),
        })

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    # spans feeds TWO consumers (counts + the stamp-back join):
    # materialize once or the synth+flatten scan re-executes
    spans = ds.map_batches(text_spans,
                           batch_format="pyarrow").materialize()
    counts = keyed_agg(spans, "txt", {"cnt": ("count", None)})
    stamped = hash_join(spans, counts, "txt", "txt",
                        left_cols=["doc_id"], right_cols=["cnt"])

    def partial(b: pa.Table) -> pa.Table:
        boiler = pc.cast(pc.greater_equal(b.column("cnt"), THRESH),
                         pa.int64())
        return pa.table({
            "doc_id": b.column("doc_id"),
            "one": pa.array([1] * b.num_rows, type=pa.int64()),
            "boiler": boiler,
        })

    out = (keyed_agg(stamped.map_batches(partial, batch_format="pyarrow"),
                     "doc_id", {"n_text_spans": ("sum", "one"),
                                "n_boiler": ("sum", "boiler")}))

    def finish(b: pa.Table) -> pa.Table:
        return b.append_column(
            "n_kept", pc.subtract(b.column("n_text_spans"),
                                  b.column("n_boiler")))

    return out.map_batches(finish, batch_format="pyarrow")


def _q_media_context(sf_dir: str):
    """Text context window around every media span
    (`spanio.media_context_batch`): the concatenated TEXT-span texts
    within ±2 span positions — the CLIP/BLIP (image, surrounding-text)
    training-pair builder over interleaved docs (wider than
    `caption_pairs`' single nearest caption). Candidate indices via
    repeat/arange, ONE binary_join per block; per-doc, zero shuffle."""
    from smartreader_ray.spanio import media_context_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return (ds.map_batches(_synth_interleaved_spans(),
                           batch_format="pyarrow")
            .map_batches(media_context_batch, batch_format="pyarrow"))


def _q_span_truncate(sf_dir: str):
    """Token-budget head truncation (`spanio.truncate_spans_batch`):
    keep each doc's span-sequence head under a 96-token budget (text =
    whitespace tokens, media = 64-token patch cost; prefix-straddle
    rule as in `mm_pack`), CLIPPING the straddling text span to the
    remaining tokens — the context-window trim before packing.
    Closed-form (one window SUM in the oracle); the clip is fully
    vectorized (token ListArray rebuild + ONE binary_join); zero
    shuffle."""
    from smartreader_ray.spanio import truncate_spans_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return (ds.map_batches(_synth_interleaved_spans(),
                           batch_format="pyarrow")
            .map_batches(truncate_spans_batch, batch_format="pyarrow"))


def _q_clean_doc_chain(sf_dir: str):
    """Composed chain #27: modality-runs GATE → span normalization →
    per-doc rollup, all inside ONE map_batches (each row is a whole
    doc, so the gate, the normalize pass, and the rollup are
    block-local — the canonical interleaved-curation step shape: no
    exchange). Keep docs with
    n_runs >= 9 AND max_text_run >= 3 (the well-interleaved half of
    the corpus), normalize their spans (drop empty text, merge
    adjacent text runs), report per doc: n_spans, n_text_chars (merged
    text codepoints), n_media."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.spanio import (modality_runs_batch,
                                        normalize_spans_batch)

    synth = _synth_interleaved_spans()

    def fn(b: pa.Table) -> pa.Table:
        t = synth(b)
        stats = modality_runs_batch(t)
        keep = pc.and_(
            pc.greater_equal(stats.column("n_runs"), 9),
            pc.greater_equal(stats.column("max_text_run"), 3))
        keep_ids = stats.filter(keep).column("doc_id").combine_chunks()
        norm = normalize_spans_batch(
            t.filter(pc.is_in(t.column("doc_id"), value_set=keep_ids)))
        is_text = pc.equal(norm.column("kind"), "text")
        chars = pc.if_else(is_text,
                           pc.utf8_length(norm.column("text")),
                           pa.scalar(0, type=pa.int32()))
        prep = pa.table({
            "doc_id": norm.column("doc_id"),
            "one": pa.array([1] * norm.num_rows, type=pa.int64()),
            "chars": pc.cast(chars, pa.int64()),
            "is_media": pc.cast(pc.invert(is_text), pa.int64()),
        })
        out = prep.group_by("doc_id").aggregate(
            [("one", "sum"), ("chars", "sum"), ("is_media", "sum")])
        return out.rename_columns(
            ["doc_id", "n_spans", "n_text_chars", "n_media"])

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(fn, batch_format="pyarrow")


def _q_doc_render(sf_dir: str):
    """Composed chain #28: span normalization → MMC4/Flamingo-style
    RENDER (`spanio.render_flat_spans`) — one training string per doc
    with text spans verbatim and every media span as the literal
    ``<image>`` sentinel token, plus text-token / image counts. Both
    passes inside ONE map_batches (each input row is a whole doc, so
    the flat normalized rows never straddle a batch boundary — the
    render kernel's documented contract); no shuffle."""
    import pyarrow as pa

    from smartreader_ray.spanio import (normalize_spans_batch,
                                        render_flat_spans)

    synth = _synth_interleaved_spans()

    def fn(b: pa.Table) -> pa.Table:
        return render_flat_spans(normalize_spans_batch(synth(b)))

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(fn, batch_format="pyarrow")


def _q_source_affixes(sf_dir: str):
    """Per-source common prefix/suffix screen
    (`functions/curation.py:source_affixes`): the boilerplate-affix
    detector (every page of a site sharing a header/footer banner shows
    as a long per-source common affix), exact via the lexicographic
    min/max LCP trick — LCP(S) = LCP(min S, max S); suffix = the same
    on codepoint-reversed strings. Planted per-source banners
    ('newsroom <src> | ' … ' | (c) <src>') make the detected affixes
    non-trivial. Per-block min/max/count partials (≤ |sources| rows per
    block), ONE source-keyed exchange of partials."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.curation import source_affixes

    ds = _read(sf_dir, "documents", ["source", "text"])
    return (source_affixes(
        ds.map_batches(_plant_affix_banner, batch_format="pyarrow")))


def _plant_affix_banner(b):
    """Planted per-source banner shared by `source_affixes` and
    `affix_strip_chain` (and replayed by the shared `_AFFIX_CTES`
    oracle prefix): 'newsroom <src> | ' <text> ' | (c) <src>'."""
    import pyarrow as pa
    import pyarrow.compute as pc

    src = b.column("source")
    txt = pc.coalesce(b.column("text"), pa.scalar("", type=pa.string()))
    tx = pc.binary_join_element_wise(
        pa.scalar("newsroom "), src, pa.scalar(" | "), txt,
        pa.scalar(" | (c) "), src, "")
    return pa.table({"source": src, "text": tx})


def _q_affix_strip_chain(sf_dir: str):
    """Composed chain #29: affix DETECTION → broadcast STRIP rollup —
    the two-pass shape a 100-TB affix screen actually runs: pass 1
    computes the per-source affix table (source-sized — here via
    `source_affixes`' min/max partials), which is then collected
    (|sources| rows, the legitimate driver-side small collect) and
    broadcast into pass 2, a streaming length rollup over the same
    planted text: chars_removed per doc = min(len, prefix_len +
    suffix_len) (clamp = overlapping affixes on short docs), summed
    per source. Pass 2 is fully vectorized (dictionary_encode the
    source column, numpy gather of the affix lengths) and exchanges
    only source-sized integer partials."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.exchange import keyed_agg

    aff = {r["source"]: (int(r["prefix_len"]), int(r["suffix_len"]))
           for r in _q_source_affixes(sf_dir).take_all()}

    def strip_stats(b: pa.Table) -> pa.Table:
        t = _plant_affix_banner(b)
        enc = pc.dictionary_encode(t.column("source")).combine_chunks()
        dic = enc.dictionary.to_pylist()
        pl = np.array([aff[s][0] + aff[s][1] for s in dic],
                      dtype=np.int64)
        idx = enc.indices.to_numpy(zero_copy_only=False).astype(
            np.int64)
        n = pc.utf8_length(t.column("text")).to_numpy(
            zero_copy_only=False).astype(np.int64)
        removed = np.minimum(n, pl[idx])
        return pa.table({
            "source": t.column("source"),
            "chars_in": pa.array(n, type=pa.int64()),
            "chars_removed": pa.array(removed, type=pa.int64()),
            "chars_out": pa.array(n - removed, type=pa.int64()),
        })

    ds = _read(sf_dir, "documents", ["source", "text"])
    return (keyed_agg(ds.map_batches(strip_stats, batch_format="pyarrow"),
                      "source", {"n_docs": ("count", None),
                                 "chars_in": ("sum", "chars_in"),
                                 "chars_removed": ("sum", "chars_removed"),
                                 "chars_out": ("sum", "chars_out")}))


def _q_sentence_stats(sf_dir: str):
    """Sentence segmentation signals
    (`functions/textstats.py:sentence_stats`): per-doc sentence count /
    longest sentence / mean tokens per sentence over ``[.!?]+``
    boundaries — the Gopher-family doc-quality axis token stats miss.
    The corpus has no punctuation, so boundaries are PLANTED
    deterministically (token groups of size 4 + doc_id%4 joined with
    '. '), making every output column closed-form for the oracle while
    the engine-side kernel does real regex segmentation. Per-doc, zero
    shuffle."""
    import pyarrow as pa

    from smartreader_ray.functions.textstats import sentence_stats

    def plant(b: pa.Table) -> pa.Table:
        out = []
        for did, text in zip(b.column("doc_id").to_pylist(),
                             b.column("text").to_pylist()):
            g = 4 + int(did) % 4
            toks = (text or "").strip().split(" ")
            out.append(". ".join(
                " ".join(toks[i:i + g])
                for i in range(0, len(toks), g)))
        return pa.table({"doc_id": b.column("doc_id"),
                         "text": pa.array(out, type=pa.string())})

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return (ds.map_batches(plant, batch_format="pyarrow")
            .map_batches(sentence_stats, batch_format="pyarrow"))


def _q_readability(sf_dir: str):
    """Flesch–Kincaid readability (`functions/textstats.py:
    readability_stats`): words / sentences / vowel-group syllable
    proxy / the published FK grade formula per doc — the classic
    document-difficulty axis for curriculum ordering. The corpus has
    no punctuation, so sentence boundaries are PLANTED with the same
    deterministic rule `sentence_stats` uses (token groups of
    4 + doc_id%4 joined with '. '), making every column closed-form
    for the oracle while the engine kernel does real regex
    segmentation; the one float column uses the identical IEEE
    expression shape both sides."""
    import pyarrow as pa

    from smartreader_ray.functions.textstats import readability_stats

    def plant(b: pa.Table) -> pa.Table:
        out = []
        for did, text in zip(b.column("doc_id").to_pylist(),
                             b.column("text").to_pylist()):
            g = 4 + int(did) % 4
            toks = (text or "").strip().split(" ")
            out.append(". ".join(
                " ".join(toks[i:i + g])
                for i in range(0, len(toks), g)))
        return pa.table({"doc_id": b.column("doc_id"),
                         "text": pa.array(out, type=pa.string())})

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return (ds.map_batches(plant, batch_format="pyarrow")
            .map_batches(readability_stats, batch_format="pyarrow"))


def _synth_class_bmps():
    """Deterministic 32-visual-class BMP synthesis (v = doc_id % 32;
    red column ramp, green row ramp, blue constant) shared by
    `media_phash` and `phash_band_pairs` so their oracles replay the
    identical pixels (the shared `_PHASH_CTES` SQL prefix)."""
    import numpy as np
    import pyarrow as pa

    from smartreader_ray.stages.codecs import bmp_encode

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        payloads = []
        for i in ids:
            v = int(i) % 32
            w, h = 64 + v * 5, 48 + v * 3
            px = np.empty((h, w, 3), dtype=np.uint8)
            px[:, :, 0] = ((v + np.arange(w)) % 256)[None, :]
            px[:, :, 1] = ((v * 3 + np.arange(h)) % 256)[:, None]
            px[:, :, 2] = (v * 7 + 11) % 256
            payloads.append(bmp_encode(px))
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "media_ref": pa.array(
                [f"img://{int(i)}" for i in ids], type=pa.string()),
            "payload": pa.array(payloads, type=pa.binary()),
        })

    return synth


def _q_media_phash(sf_dir: str):
    """Perceptual near-dup over REAL image bytes
    (`stages/media.py:ImagePHashStage`): per-doc 24-bit BMP (32 visual
    classes — pixels pure integer functions of ``v = doc_id % 32``),
    task-stage average-hash (decode → integer gray → 8×8 nearest
    downsample → mean threshold → 64-bit pack), then the
    hamming-radius-0 bucket screen: groupby(phash) count stamped back
    via the repo's vectorized `hash_join`. Every hash bit is integer
    arithmetic, so the oracle replays the fingerprint bit-for-bit
    (bit_or of shifted UBIGINTs over an 8×8 unnest). Binary payloads
    never leave the hashing stage."""
    from smartreader_ray.functions.exchange import keyed_agg
    from smartreader_ray.functions.join import hash_join
    from smartreader_ray.stages.media import ImagePHashStage

    synth = _synth_class_bmps()

    ds = _read(
        sf_dir, "documents", ["doc_id"]
    ).map_batches(synth, batch_format="pyarrow")
    hashed = ds.map_batches(
        ImagePHashStage(), batch_format="pyarrow", batch_size=64,
    ).drop_columns(["error"]).materialize()
    # ^ two consumers (bucket counts + the stamp-back join): without
    # this the synth+decode+hash pass runs twice
    counts = keyed_agg(hashed, "phash", {"bucket_size": ("count", None)})
    return (hash_join(hashed, counts, "phash", "phash",
                      left_cols=["doc_id", "media_ref", "phash"],
                      right_cols=["bucket_size"]))


def _q_phash_band_pairs(sf_dir: str):
    """Composed chain #30: the standard perceptual near-dup SCREEN on
    top of `media_phash` — banded LSH in hamming space. Distinct
    fingerprints (a groupby over doc-level hashes) emit 4 × 16-bit
    bands; fingerprints sharing ANY band bucket become candidate
    pairs. Banding is the classic recall heuristic: pigeonhole
    GUARANTEES a shared band only for hamming ≤ 3 (4 bands), so pairs
    at 4-12 with all four bands differing are missed by design — the
    oracle replays the SAME banding, so the compare is exact
    regardless of recall; candidates are verified by exact
    ``popcount(xor)`` and weighted by bucket sizes (n_pairs = n_a·n_b).
    Scale shape: the only full-corpus exchange is the fingerprint
    groupby; banding/pairing/verify run over DISTINCT hashes (tiny)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.exchange import keyed_agg, map_groups
    from smartreader_ray.stages.media import ImagePHashStage

    synth = _synth_class_bmps()
    ds = _read(
        sf_dir, "documents", ["doc_id"]
    ).map_batches(synth, batch_format="pyarrow")
    hashed = ds.map_batches(
        ImagePHashStage(), batch_format="pyarrow", batch_size=64,
    )
    cnt = keyed_agg(hashed, "phash", {"n": ("count", None)})

    def emit_bands(b: pa.Table) -> pa.Table:
        band, val, ph, n = [], [], [], []
        for p, c in zip(b.column("phash").to_pylist(),
                        b.column("n").to_pylist()):
            v = int(p, 16)
            for bi in range(4):
                band.append(bi)
                val.append((v >> (16 * bi)) & 0xFFFF)
                ph.append(p)
                n.append(int(c))
        return pa.table({
            "band": pa.array(band, type=pa.int64()),
            "band_val": pa.array(val, type=pa.int64()),
            "phash": pa.array(ph, type=pa.string()),
            "n": pa.array(n, type=pa.int64()),
        })

    def bucket_pairs(g: pa.Table) -> pa.Table:
        rows = sorted(set(zip(g.column("phash").to_pylist(),
                              g.column("n").to_pylist())))
        pa_, pb_, na_, nb_ = [], [], [], []
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                pa_.append(rows[i][0])
                pb_.append(rows[j][0])
                na_.append(rows[i][1])
                nb_.append(rows[j][1])
        return pa.table({
            "phash_a": pa.array(pa_, type=pa.string()),
            "phash_b": pa.array(pb_, type=pa.string()),
            "n_a": pa.array(na_, type=pa.int64()),
            "n_b": pa.array(nb_, type=pa.int64()),
        })

    pairs = keyed_agg(map_groups(cnt.map_batches(emit_bands,
                                                 batch_format="pyarrow"),
                                 ["band", "band_val"], bucket_pairs),
                      ["phash_a", "phash_b"],
                      {"n_a": ("max", "n_a"), "n_b": ("max", "n_b")})

    def verify(b: pa.Table) -> pa.Table:
        ham = [bin(int(x, 16) ^ int(y, 16)).count("1")
               for x, y in zip(b.column("phash_a").to_pylist(),
                               b.column("phash_b").to_pylist())]
        t = pa.table({
            "phash_a": b.column("phash_a"),
            "phash_b": b.column("phash_b"),
            "hamming": pa.array(ham, type=pa.int64()),
            "n_a": b.column("n_a"),
            "n_b": b.column("n_b"),
            "n_pairs": pc.multiply(b.column("n_a"), b.column("n_b")),
        })
        return t.filter(pc.less_equal(t.column("hamming"), 12))

    return pairs.map_batches(verify, batch_format="pyarrow")


def _q_markov_debounced_chain(sf_dir: str):
    """Composed chain #12: debounce(60 s, per user+type) → first-order
    Markov transition matrix over the SURVIVING stream → keep
    transitions with p ≥ 0.2. Proves the event operators compose —
    the lag windows downstream see the filtered sequence, exactly as
    the SQL replay does (debounce CTE, then lag over survivors)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.windows import (debounce,
                                                   markov_transitions)

    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts", "event_id"])
    surviving = debounce(ds, window_s=60.0)
    mat = markov_transitions(surviving)
    return mat.filter(pc.greater_equal(mat.column("p"), 0.2))


def _q_abc_orders(sf_dir: str):
    """Pareto/ABC revenue classification over orders (`functions/
    reshape.py: abc_analysis`): rank by o_totalprice DESC via the
    distributed ranking primitive carrying an inclusive cents running
    total; classes cut at 70.0 % / 90.0 % by pure int64 compare."""
    from smartreader_ray.functions.reshape import abc_analysis

    ds = _read(sf_dir, "orders", ["o_totalprice", "o_orderkey"])
    return abc_analysis(ds, "o_totalprice", "o_orderkey")


def _q_pmi_pairs(sf_dir: str):
    """PMI over the top-50 windowed co-occurrence pairs (`functions/
    ngrams.py: pmi_scores`): integer sufficient stats from the
    distributed pass; the float PMI is ONE shared libm ln expression
    stamped on the 50-row result (math.log == DuckDB ln bit-exactly;
    numpy's SIMD log is NOT — verified)."""
    from smartreader_ray.functions.ngrams import pmi_scores

    ds = _read(sf_dir, "documents", ["text"])
    return pmi_scores(ds, text_col="text", window=3, top_k_pairs=50)


def _q_interval_union(sf_dir: str):
    """Merged-interval coverage per user (`functions/windows.py:
    interval_union`): each event opens [ts, ts+5min); overlapping
    intervals merge via a sorted cumulative-max island scan; exact
    integer µs coverage."""
    from smartreader_ray.functions.windows import interval_union

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    return interval_union(ds, span_s=300.0)


def _q_daily_streaks(sf_dir: str):
    """Longest consecutive-day activity streak per user (`functions/
    windows.py: daily_streaks`): per-block (user, day) dedup partials →
    user-keyed groupby → vectorized gaps-and-islands."""
    from smartreader_ray.functions.windows import daily_streaks

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    return daily_streaks(ds)


def _q_balanced_shards(sf_dir: str):
    """Size-balanced output sharding plan over documents by n_chars
    (`functions/reshape.py: balanced_shards_plan`): contiguous id-order
    bin-packing into 16 near-equal-weight shards — shard =
    exclusive_prefix·k//total, pure int64 on the prefix-sum-carrying
    global rank."""
    from smartreader_ray.functions.reshape import balanced_shards_plan

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    return balanced_shards_plan(ds, "doc_id", "n_chars", k=16)


def _q_click_proximity(sf_dir: str):
    """Temporal proximity join (`functions/windows.py: proximity_join`):
    every purchase joined to the same user's clicks within ±10 min —
    before/after counts + nearest absolute µs via sorted searchsorted,
    O((L+R)·log R) per user where the SQL oracle runs the L×R join."""
    from smartreader_ray.functions.windows import proximity_join

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type", "event_id"])
    return proximity_join(ds, "purchase", "click",
                          window_s=600.0)


def _q_hourly_profile(sf_dir: str):
    """Seasonality heatmap (`functions/windows.py: hourly_profile`):
    (day-of-week, hour) counts + exact cent sums from per-block
    168-bucket partials; dow by pure epoch arithmetic so the oracle
    replays the identical integer formula."""
    from smartreader_ray.functions.windows import hourly_profile

    ds = _read(sf_dir, "events", ["ts", "value"])
    return hourly_profile(ds)


def _q_zorder_layout(sf_dir: str):
    """OPTIMIZE-ZORDER plan (`functions/layout.py: zorder_layout`):
    Morton-interleave (l_partkey, l_suppkey) low 15 bits, global rank
    by the Z key (TeraSort exchange), cut into 16 equal-size shards,
    report per-shard zone maps — the lakehouse two-column clustering
    primitive, exact int64 end to end."""
    from smartreader_ray.functions.layout import zorder_layout

    def rid(b):
        import pyarrow as pa
        ids = (b.column("l_orderkey").to_numpy(zero_copy_only=False) * 8
               + b.column("l_linenumber").to_numpy(zero_copy_only=False))
        return b.append_column("rid", pa.array(ids, type=pa.int64()))

    ds = _read(
        sf_dir, "lineitem",
        ["l_partkey", "l_suppkey", "l_orderkey", "l_linenumber"],
    ).map_batches(rid, batch_format="pyarrow")
    return zorder_layout(ds, "l_partkey", "l_suppkey", "rid", k=16)


def _q_spatial_join(sf_dir: str):
    """Grid-bucketed spatial join (`functions/spatial.py: grid_join`):
    customers vs suppliers placed on a 1024x1024 integer grid by Knuth
    multiplicative hashing; per customer, the count of suppliers within
    Chebyshev radius 32 + exact min squared euclidean distance + the
    nearest supplier (total-order tie-break). One cell-keyed exchange
    with a 9x-replicated small side, never a cross join."""
    from smartreader_ray.functions.spatial import (grid_join,
                                                   multiplicative_coords)

    cust = multiplicative_coords(
        _read(sf_dir, "customer", ["c_custkey"]), "c_custkey")
    supp = multiplicative_coords(
        _read(sf_dir, "supplier", ["s_suppkey"]), "s_suppkey")
    return grid_join(cust, supp, d=32, left_id="c_custkey",
                     right_id="s_suppkey")


def _q_table_fingerprint(sf_dir: str):
    """Order-independent snapshot checksum (`functions/setops.py:
    table_fingerprint`): per-status (Σ md5-row-hash mod 2^61-1, XOR,
    count) over orders — the did-anything-change CDC audit whose
    exchange is one 3-int row per (block, status)."""
    from smartreader_ray.functions.setops import table_fingerprint

    ds = _read(
        sf_dir, "orders",
        ["o_orderkey", "o_custkey", "o_orderstatus", "o_orderpriority",
         "o_orderdate"],
    )
    return table_fingerprint(
        ds, "o_orderstatus",
        ["o_orderkey", "o_custkey", "o_orderstatus", "o_orderpriority",
         "o_orderdate"],
        ts_cols=("o_orderdate",))


def _q_cube_sales(sf_dir: str):
    """CUBE(status, priority) over orders (`functions/reshape.py:
    cube_counts`): all four grouping sets from one pass of block-local
    Arrow pre-aggregation — the exchange carries 4·cells rows per
    block, exact integer cents."""
    from smartreader_ray.functions.reshape import cube_counts

    ds = _read(
        sf_dir, "orders", ["o_orderstatus", "o_orderpriority", "o_totalprice"]
    )
    return cube_counts(ds, "o_orderstatus", "o_orderpriority",
                       "o_totalprice")


def _q_time_weighted_avg(sf_dir: str):
    """Zero-order-hold time-weighted average per user
    (`functions/windows.py: time_weighted_avg`): each event's value
    holds until the user's next event; exact integer cents·seconds."""
    from smartreader_ray.functions.windows import time_weighted_avg

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])
    return time_weighted_avg(ds)


def _q_cusum_alarms(sf_dir: str):
    """Per-user CUSUM changepoint detection (`functions/windows.py:
    cusum_changepoints`): Page's one-sided control chart over each
    user's ts-ordered values, integer cents, SQL-replayable via the
    prefix-sum-minus-running-min reflection identity."""
    from smartreader_ray.functions.windows import cusum_changepoints

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])
    return cusum_changepoints(ds)


def _q_weighted_median(sf_dir: str):
    """Per-flag weighted median of extended price, quantity-weighted
    (`functions/sketch.py: weighted_median_by`): histogram reduction,
    exchange is keys x distinct values x blocks."""
    from smartreader_ray.functions.sketch import weighted_median_by

    ds = _read(
        sf_dir, "lineitem", ["l_returnflag", "l_extendedprice", "l_quantity"]
    )
    return weighted_median_by(ds, "l_returnflag", "l_extendedprice",
                              "l_quantity")


def _q_budget_alloc(sf_dir: str):
    """Largest-remainder (Hamilton) apportionment of exactly 1,000,000
    units across order priorities proportional to revenue
    (`functions/reshape.py: largest_remainder_alloc`); int64-exact,
    total-order tie-break."""
    from smartreader_ray.functions.reshape import largest_remainder_alloc

    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])
    return largest_remainder_alloc(ds, "o_orderpriority", "o_totalprice",
                                   total_units=1_000_000)


def _q_soundex_names(sf_dir: str):
    """American Soundex phonetic codes of the part-name vocabulary
    (`functions/fuzzy.py: soundex_tokens`); encode runs once per
    distinct token, SQL replays the exact translate/collapse chain
    (RE2-safe — single-char run collapses, no backreferences)."""
    from smartreader_ray.functions.fuzzy import soundex_tokens

    ds = _read(sf_dir, "part", ["p_name"])
    return soundex_tokens(ds, "p_name")


def _q_entity_resolution(sf_dir: str):
    """Record linkage over part names (`functions/fuzzy.py:
    resolve_entities`): Soundex blocking -> exact Levenshtein<=2 verify
    -> connected components -> canonical (min-name) label joined back
    to every part. The full ER pipeline, hash-gated end to end."""
    from smartreader_ray.functions.fuzzy import resolve_entities

    ds = _read(sf_dir, "part", ["p_partkey", "p_name"])
    return resolve_entities(ds, "p_partkey", "p_name", max_dist=2)


def _q_boolean_search(sf_dir: str):
    """Boolean retrieval spark AND join AND NOT window over document
    token membership (`functions/ngrams.py: boolean_search`) —
    shuffle-free block-local predicate evaluation."""
    from smartreader_ray.functions.ngrams import boolean_search

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return boolean_search(ds, must=["spark", "join"],
                          must_not=["window"])


def _q_local_supplier_revenue(sf_dir: str):
    """TPC-H-Q5-shaped star join (`functions/join.py:
    star_revenue_by_nation`, composed chain #14): revenue per nation
    where customer and supplier share the nation, orders on/after
    1997-01-01. The fact table streams once against ray.put dense
    dimension LUTs — zero fact-side shuffle; exact int64 centi-cents."""
    import numpy as np
    import pyarrow.parquet as pq

    from smartreader_ray.functions.join import star_revenue_by_nation

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    date_from = int(np.datetime64("1997-01-01", "us").astype(np.int64))
    return star_revenue_by_nation(
        li,
        pq.read_table(os.path.join(sf_dir, "orders.parquet"),
                      columns=["o_orderkey", "o_custkey", "o_orderdate"]),
        pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                      columns=["c_custkey", "c_nationkey"]),
        pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                      columns=["s_suppkey", "s_nationkey"]),
        pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                      columns=["n_nationkey", "n_name"]),
        date_from)


def _q_source_drift(sf_dir: str):
    """PSI distribution drift of every source's n_chars profile vs
    src0 (`functions/audit.py: psi_drift`): exact integer bin counts
    off one (group, bin) exchange; per-bin float terms are one shared
    IEEE tree (libm log == DuckDB ln)."""
    from smartreader_ray.functions.audit import psi_drift

    ds = _read(sf_dir, "documents", ["source", "n_chars"])
    return psi_drift(ds, "source", "n_chars", baseline="src0")


def _q_ohlc_hourly(sf_dir: str):
    """Hourly OHLC candle bars per event type (`functions/windows.py:
    ohlc_bars`): open/close are order statistics computed as plain
    MIN/MAX over an int64 (offset_us, biased-cents) composite — no
    per-group sort, no map_groups, pure mergeable aggregates."""
    from smartreader_ray.functions.windows import ohlc_bars

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])
    return ohlc_bars(ds, width_s=3600)


def _q_schema_union(sf_dir: str):
    """Schema-evolution union (`functions/setops.py: union_by_name`):
    two projection epochs of orders (the older lacks o_orderpriority)
    concatenated by NAME with typed-null fill — shuffle-free
    streaming alignment."""
    from smartreader_ray.functions.setops import union_by_name

    old = _read(
        sf_dir, "orders", ["o_orderkey", "o_totalprice"]
    ).filter(expr="o_orderkey < 7500")
    new = _read(
        sf_dir, "orders", ["o_orderkey", "o_orderpriority", "o_totalprice"]
    ).filter(expr="o_orderkey >= 7500")
    return union_by_name([old, new])


def _q_kcenter_coreset(sf_dir: str):
    """Greedy k-center coreset selection over embeddings
    (`functions/similarity.py: kcenter_select`): Gonzalez
    farthest-point traversal, integer-quantized exact distances,
    total-order argmax — the data-pruning pick whose greedy trajectory
    is partitioning-independent and SQL-replayable as k chained CTEs."""
    from smartreader_ray.functions.similarity import kcenter_select

    ds = _read(sf_dir, "embeddings")
    return kcenter_select(ds, k=8)


def _q_semantic_dedup(sf_dir: str):
    """SemDeDup-shaped semantic dedup (chain #15,
    `functions/similarity.py: semantic_dedup`): k-center seeds →
    integer argmin cluster assignment → within-cluster cosine ≥ 0.45
    edges → components → canonical keep id. Cross-cluster pairs are
    never examined — the locality that makes semantic dedup tractable
    at corpus scale."""
    from smartreader_ray.functions.similarity import semantic_dedup

    ds = _read(sf_dir, "embeddings")
    return semantic_dedup(ds, k_clusters=8, tau=0.45)


def _q_span_corruption(sf_dir: str):
    """T5-style span corruption (`functions/curation.py:
    span_corruption`): deterministic md5-keyed token masking, masked
    runs collapsed to numbered sentinels in the input, sentinel-prefixed
    runs as the target — byte-identical to the gaps-and-islands SQL
    replay, partitioning-independent by construction."""
    from smartreader_ray.functions.curation import span_corruption

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return span_corruption(ds, mask_rate=0.15)


def _q_quantile_normalize(sf_dir: str):
    """Quantile normalization of every source's n_chars distribution
    onto src0's (`functions/standardize.py: quantile_normalize_by`):
    integer cross-multiplied rank comparison — no floats anywhere in
    the mapping, output is a baseline data value."""
    from smartreader_ray.functions.standardize import (
        quantile_normalize_by)

    ds = _read(sf_dir, "documents", ["source", "n_chars"])
    return quantile_normalize_by(ds, "source", "n_chars",
                                 baseline="src0")


def _q_priority_sample(sf_dir: str):
    """Deterministic weighted sampling without replacement
    (`functions/sampling.py: priority_sample`): Duffield–Lund–Thorup
    priorities q = (n_chars·2^40) // (md5_40(doc_id)+1), top-100 by the
    total order (q DESC, doc_id) — per-block pre-cut, survivors-only
    sort."""
    from smartreader_ray.functions.sampling import priority_sample

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    return priority_sample(ds, "n_chars", "doc_id", k=100)


def _q_dq_report(sf_dir: str):
    """Declarative data-quality audit (`functions/audit.py: dq_report`):
    null / range / accepted-values rules in ONE streaming pass, plus
    key-uniqueness (one groupby) and referential integrity against the
    broadcast customer keyset — the pre-promotion gate, a rule-count-
    sized report."""
    from smartreader_ray.functions.audit import (ForeignKey, GreaterThan,
                                                 InSet, NotNull, Unique,
                                                 dq_report)

    orders = _read(
        sf_dir, "orders",
        ["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice"],
    )
    cust = _read(sf_dir, "customer", ["c_custkey"])
    rules = [
        NotNull("o_custkey", name="not_null_custkey"),
        GreaterThan("o_totalprice", 0.0, name="positive_totalprice"),
        InSet("o_orderstatus", ("O", "F", "P"), name="valid_status"),
        Unique("o_orderkey", name="unique_orderkey"),
        ForeignKey("o_custkey", ref_col="c_custkey",
                   name="fk_custkey_customer"),
    ]
    return dq_report(orders, rules,
                     fk_refs={"fk_custkey_customer": cust})


def _q_dq_fingerprint_chain(sf_dir: str):
    """Composed chain #13 — promotion gate: drop rows violating the
    row-local + FK constraints (broadcast customer keyset), then
    checksum the surviving snapshot per status
    (`functions/audit.py` gate → `functions/setops.py:
    table_fingerprint`). The audit-then-attest pipeline a nightly
    snapshot promotion runs; one SQL statement replays both stages."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data

    from smartreader_ray.functions.setops import table_fingerprint

    cust = _read(sf_dir, "customer", ["c_custkey"])
    keys = np.unique(np.concatenate(
        [b["c_custkey"] for b in cust.iter_batches(batch_format="numpy")]
        or [np.array([], dtype=np.int64)]).astype(np.int64))
    keys_ref = ray.put(keys)

    def gate(b: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        price_ok = pc.fill_null(
            pc.greater(b.column("o_totalprice"), 0.0), False)
        status_ok = pc.fill_null(pc.is_in(
            b.column("o_orderstatus"),
            value_set=pa.array(["O", "F", "P"])), False)
        ck = b.column("o_custkey")
        vals = pc.fill_null(ck, -1).to_numpy(zero_copy_only=False).astype(
            np.int64)
        pos = np.searchsorted(ks, vals)
        fk_ok = (pos < ks.size) & (
            ks[np.minimum(pos, ks.size - 1)] == vals) if ks.size \
            else np.zeros(len(vals), dtype=bool)
        mask = pc.and_(pc.and_(price_ok, status_ok), pa.array(fk_ok))
        return b.filter(mask)

    orders = _read(
        sf_dir, "orders",
        ["o_orderkey", "o_custkey", "o_orderstatus", "o_orderpriority",
         "o_orderdate", "o_totalprice"],
    ).map_batches(gate, batch_format="pyarrow")
    return table_fingerprint(
        orders, "o_orderstatus",
        ["o_orderkey", "o_custkey", "o_orderstatus", "o_orderpriority",
         "o_orderdate"],
        ts_cols=("o_orderdate",))


def _q_simpson_diversity(sf_dir: str):
    """Per-source lexical concentration (`functions/ngrams.py:
    simpson_concentration`): the exact integer ingredients of the
    Simpson index — n_tokens, n_terms, Σc² per source. All-int64
    output so the hash is engine-independent; token semantics match
    source_entropy (single-space split of trimmed text, empties kept).
    """
    from smartreader_ray.functions.ngrams import simpson_concentration

    docs = _read(sf_dir, "documents", ["text", "source"])
    return simpson_concentration(docs)


def _q_lru_hits(sf_dir: str):
    """Per-user LRU cache audit (`functions/windows.py: lru_audit`):
    replay each user's event_type stream (ts, event_id order) against
    a capacity-2 LRU; classify hit / cold miss / capacity miss. The
    oracle recomputes via the Mattson stack-distance identity (hit ⇔
    < capacity distinct keys strictly between consecutive accesses).
    """
    from smartreader_ray.functions.windows import lru_audit

    events = _read(
        sf_dir, "events", ["event_id", "ts", "user_id", "event_type"]
    )
    return lru_audit(events, capacity=2)


def _q_diversity_mix_chain(sf_dir: str):
    """Composed chain #21: templated-source purge → diversity-weighted
    sampling budget. Simpson concentration (`functions/ngrams.py:
    simpson_concentration`) → gate sources whose effective term count
    n²/Σc² is at least 29.4 (integer cross-multiplied: 10·n² ≥ 294·Σc²
    — no float threshold) → Gini–Simpson diversity in ppm via integer
    floor-div ((n²−Σc²)·10⁶ // n²) → effective-diverse-token weight
    (n·ppm // 10⁶) → Hamilton apportionment (`functions/reshape.py:
    largest_remainder_alloc`) of a 100k-sample budget across the
    survivors. Every step is int64-exact (guarded: n²·10⁶ wraps int64
    past n ≈ 3e6 tokens/source, raised loudly — shard the source
    first), so the chain hashes identically in both engines."""
    import numpy as np
    import pyarrow as pa

    from smartreader_ray.functions.ngrams import simpson_concentration
    from smartreader_ray.functions.reshape import largest_remainder_alloc

    docs = _read(sf_dir, "documents", ["text", "source"])
    conc = simpson_concentration(docs)

    def weigh(b: pa.Table) -> pa.Table:
        n = b.column("n_tokens").to_numpy(zero_copy_only=False).astype(
            np.int64)
        ss = b.column("sum_sq").to_numpy(zero_copy_only=False).astype(
            np.int64)
        if n.size and int(n.max()) > 2_900_000:
            raise OverflowError(
                "diversity_mix_chain: n_tokens²·10⁶ would wrap int64 "
                "for a source over ~2.9e6 tokens — shard the source")
        n2 = n * n
        keep = 10 * n2 >= 294 * ss
        ppm = np.where(n2 > 0, (n2 - ss) * 1_000_000 // np.maximum(n2, 1),
                       0)
        w = n * ppm // 1_000_000
        out = pa.table({
            "source": b.column("source"),
            "w": pa.array(w.astype(np.float64), type=pa.float64()),
        })
        return out.filter(pa.array(keep & (n > 0)))

    weighted = conc.map_batches(weigh, batch_format="pyarrow")
    return largest_remainder_alloc(
        weighted, "source", "w", total_units=100_000)


def _q_priority_dedup(sf_dir: str):
    """Provenance-priority merge (`functions/dedup.py: priority_dedup`):
    per exact-dedup key keep the copy from the highest-priority source
    (priority = the numeric suffix of `source`, lower wins), ties by
    min doc_id — one packed-composite Min exchange resolves both
    winner fields. 22 of the 23 dup groups at sf0.01 span sources, so
    the priority rule (not the doc_id tiebreak) decides them."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.dedup import priority_dedup

    docs = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def with_priority(b: pa.Table) -> pa.Table:
        pri = pc.cast(pc.utf8_slice_codeunits(
            b.column("source"), 3, 2_147_483_647), pa.int64())
        return b.append_column("priority", pri)

    return priority_dedup(
        docs.map_batches(with_priority, batch_format="pyarrow"),
        "priority")


def _q_mrc_curve(sf_dir: str):
    """Miss-ratio curve (`functions/windows.py: mrc_curve`): hits/misses
    an LRU of capacity 1..4 would score over every user's event_type
    stream, from ONE replay pass per user (LRU inclusion property: hit
    at C ⇔ stack distance < C). The oracle recomputes each event's
    stack distance by the same Mattson identity as lru_hits, then reads
    all four capacities off the distance histogram."""
    from smartreader_ray.functions.windows import mrc_curve

    events = _read(
        sf_dir, "events", ["event_id", "ts", "user_id", "event_type"]
    )
    return mrc_curve(events, max_capacity=4)


def _q_source_cosine(sf_dir: str):
    """Inter-source lexical similarity matrix (`functions/ngrams.py:
    source_cosine`): exact int64 term-count dot products + squared
    norms for every source pair, with the float cosine stamped as one
    shared IEEE tree (int→double casts, product, sqrt, divide — all
    correctly rounded identically in both engines). One vocab-sized
    exchange then a single Cᵀ·C matmul block."""
    from smartreader_ray.functions.ngrams import source_cosine

    docs = _read(sf_dir, "documents", ["text", "source"])
    return source_cosine(docs)


def _q_template_score(sf_dir: str):
    """Templated-text screen (`functions/dedup.py: template_score`):
    per-doc sum/mean corpus-wide frequency of its 4-gram windows —
    ranks mad-libs template farms that token-level perturbations hide
    from near-dedup. Windows ship as md5-derived int64 keys (identical
    hash in the oracle); corpus counts stamp back through the
    vectorized run-length `hash_join`; n_windows rides scan-side."""
    from smartreader_ray.functions.dedup import template_score

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return template_score(docs, window=4)


def _q_span_dedup(sf_dir: str):
    """Interleaved-payload exact dedup (`spanio.span_fingerprint_batch`
    → groupby Min/Count): documents grouped by the 64-bit fingerprint
    of their NORMALIZED span sequence (kind + text per span, media_ref
    masked — re-hosted assets don't split a group; differing structure
    or alts DO, which a text-level hash cannot see). Only
    (span_fp, doc_id) crosses the exchange; Min/Count pre-combine per
    block — the fingerprint_dedup scale shape on the span payload."""
    from smartreader_ray.functions.exchange import keyed_agg
    from smartreader_ray.spanio import span_fingerprint_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return keyed_agg(ds.map_batches(_synth_interleaved_spans(),
                                    batch_format="pyarrow")
                     .map_batches(span_fingerprint_batch,
                                  batch_format="pyarrow"),
                     "span_fp", {"keep_doc_id": ("min", "doc_id"),
                                 "n_dups": ("count", None)})


def _q_dedup_cascade_chain(sf_dir: str):
    """Composed chain #31 — the PRODUCTION dedup cascade: exact
    full-content dedup (md5-derived int64 fingerprint of trimmed text,
    min-doc survivor per group) → MinHash-LSH near-dedup with exact
    n-gram-Jaccard verify over the SURVIVORS (`functions/dedup.py:
    minhash_dedup`, threshold 0.5; the larger doc_id of each verified
    pair is removed) → per-source funnel rollup
    (n_docs, n_exact_kept, n_near_kept). The exact stage is ONE
    exchange hash-partitioned on the fp, one call per partition, that
    emits (doc_id, source, kept, text if kept): text crosses it once and
    is never joined back. The removed ids are a verified-dup-sized
    driver set; ONE ``keyed_agg_table`` on source rolls up all three
    counts."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions import minhash_dedup
    from smartreader_ray.functions.dedup import _md5_key
    from smartreader_ray.functions.exchange import (keyed_agg_table,
                                                    keyed_exchange)

    docs = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def fp(b: pa.Table) -> pa.Table:
        return b.append_column("fp", pa.array(
            [_md5_key((t or "").strip())
             for t in b.column("text").to_pylist()], type=pa.int64()))

    def keep_first(g: pa.Table) -> pa.Table:
        g = g.take(pc.sort_indices(g, [("fp", "ascending"),
                                       ("doc_id", "ascending")]))
        f = g.column("fp").to_numpy()
        kept = np.ones(len(f), dtype=bool)
        kept[1:] = f[1:] != f[:-1]
        text = g.column("text")
        return pa.table({
            "doc_id": g.column("doc_id"),
            "source": g.column("source"),
            "kept": pa.array(kept),
            "text": pc.if_else(pa.array(kept), text,
                               pa.nulls(len(f), type=text.type)),
        })

    # stage 1: exact dedup; read by the LSH and verify passes and rollup
    exact = keyed_exchange(docs.map_batches(fp, batch_format="pyarrow"),
                           "fp", keep_first).materialize()

    # stage 2: near-dedup over the survivors
    surv = exact.filter(expr="kept").select_columns(["doc_id", "text"])
    pairs = minhash_dedup(surv, threshold=0.5)
    removed = pa.array([r["doc_b"] for r in pairs.filter(expr="is_dup")
                        .select_columns(["doc_b"]).take_all()],
                       type=pa.int64())

    # stage 3: per-source funnel, one source-sized rollup
    def funnel(b: pa.Table) -> pa.Table:
        kept = b.column("kept")
        near = pc.and_(kept, pc.invert(pc.is_in(b.column("doc_id"),
                                                value_set=removed)))
        return pa.table({"source": b.column("source"),
                         "kept": pc.cast(kept, pa.int64()),
                         "near": pc.cast(near, pa.int64())})

    # the source-sized result is consumed here: combined on the driver
    return keyed_agg_table(
        exact.map_batches(funnel, batch_format="pyarrow"), "source",
        {"n_docs": ("count", None), "n_exact_kept": ("sum", "kept"),
         "n_near_kept": ("sum", "near")}).to_pandas()


def _q_lid_confusion(sf_dir: str):
    """Language-ID EVALUATION (`functions/textstats.py: LanguageId`
    scored against the corpus's lang labels): the (label, prediction)
    confusion matrix — the per-class error surface a pipeline needs
    before trusting an LID gate. Scoring tasks carry the label through
    (the stopword profiles ship once with the UDF instance); the only
    exchange is (|langs|×|preds|)-sized integer partials."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions.exchange import keyed_agg
    from smartreader_ray.functions.textstats import LanguageId

    class Conf:
        def __init__(self):
            self.lid = LanguageId()

        def __call__(self, b: pa.Table) -> pa.Table:
            b = b.filter(pc.is_valid(b.column("lang")))
            return pa.table({
                "lang": b.column("lang"),
                "pred_lang": pa.array([self.lid.predict(t)[0] for t in
                                       b.column("text").to_pylist()],
                                      type=pa.string()),
            })

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    return (keyed_agg(ds.map_batches(Conf(), batch_format="pyarrow"),
                      ["lang", "pred_lang"], {"n": ("count", None)}))


def _q_leakage_safe_split(sf_dir: str):
    """Composed chain #32 — LEAKAGE-SAFE train/val/test split: exact
    content duplicates must land in the SAME split (an id-keyed split
    leaks a dup's train copy into test — the eval-contamination bug
    `decontaminate` exists to catch downstream). Group id = min doc_id
    per content fingerprint (md5-int64 of trimmed text, the cascade's
    exact stage); `sampling.split_assign` then buckets by
    md5(group_id), so membership is a pure function of CONTENT.
    Exchanges: (fp, doc_id) groupby + the vectorized `hash_join` to
    stamp each doc's group id back; the split itself is shuffle-free.
    Returns per-doc (doc_id, group_id, split)."""
    import pyarrow as pa

    from smartreader_ray.functions.dedup import _md5_key
    from smartreader_ray.functions.exchange import keyed_agg
    from smartreader_ray.functions.join import hash_join
    from smartreader_ray.functions.sampling import split_assign

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def fp(b: pa.Table) -> pa.Table:
        fps = [_md5_key((t or "").strip())
               for t in b.column("text").to_pylist()]
        return pa.table({
            "fp": pa.array(fps, type=pa.int64()),
            "doc_id": b.column("doc_id"),
        })

    fps = docs.map_batches(fp, batch_format="pyarrow").materialize()
    groups = (keyed_agg(fps, "fp", {"group_id": ("min", "doc_id")}))
    tagged = hash_join(fps, groups, "fp", "fp",
                       ["doc_id"], ["group_id"], how="inner")
    return split_assign(
        tagged, {"train": 0.8, "val": 0.1, "test": 0.1},
        id_col="group_id")


def _q_embedding_audit(sf_dir: str):
    """Embedding-table health audit (`functions/audit.py:
    embedding_audit`): per-label counts of vectors unusable for
    similarity math (wrong dim, non-finite elements, all-zero — no
    direction, cosine undefined). Integer-exact; group-sized partials
    only."""
    from smartreader_ray.functions.audit import embedding_audit

    ds = _read(sf_dir, "embeddings", ["label", "embedding"])
    return embedding_audit(ds, dim=64)


def _q_span_pack_chain(sf_dir: str):
    """Composed chain #34 — the COMPLETE preprocessing tail from
    interleaved spans to training examples: normalize (empty-drop +
    adjacent-text merge) → prefix-pack into 256-token sequences (text =
    token count, image = 64-token patch budget; the mm_pack boundary
    rule) → render EACH SEQUENCE as its training string (`<image>`
    sentinels, single-space join) with token/image/cost rollups — one
    row per (doc, seq): exactly what a Flamingo/MMC4-style loader
    consumes. All three stages run inside ONE block-local map_batches
    (a doc never straddles a block), with no exchange. Fully
    vectorized: one cumsum for the pack rule, ONE
    binary_join over sequence-bounded ListArrays, reduceat rollups."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.spanio import normalize_spans_batch

    BUDGET, MEDIA_COST = 256, 64
    synth = _synth_interleaved_spans()

    def fn(b: pa.Table) -> pa.Table:
        flat = normalize_spans_batch(synth(b))
        n = flat.num_rows
        if n == 0:
            return pa.table({
                "doc_id": pa.array([], type=pa.int64()),
                "seq_idx": pa.array([], type=pa.int64()),
                "rendered": pa.array([], type=pa.string()),
                "n_text_tokens": pa.array([], type=pa.int64()),
                "n_images": pa.array([], type=pa.int64()),
                "cost": pa.array([], type=pa.int64()),
            })
        doc = flat.column("doc_id").combine_chunks()
        kind = flat.column("kind").combine_chunks()
        text = flat.column("text").combine_chunks()
        is_text = pc.equal(kind, "text").to_numpy(zero_copy_only=False)
        # normalized TEXT spans are non-empty single-space joins, so
        # token count == separator count + 1 (the SQL's
        # len(string_split(text, ' ')))
        n_sp = (pc.count_substring(text, " ")
                .to_numpy(zero_copy_only=False).astype(np.int64) + 1)
        tok = np.where(is_text, n_sp, 0)
        cost = np.where(is_text, n_sp, np.int64(MEDIA_COST))
        dnp = doc.to_numpy(zero_copy_only=False)
        newdoc = np.empty(n, dtype=bool)
        newdoc[0] = True
        newdoc[1:] = dnp[1:] != dnp[:-1]
        dstarts = np.flatnonzero(newdoc)
        cum = np.concatenate(([0], np.cumsum(cost)))
        excl = cum[:-1] - np.repeat(cum[dstarts],
                                    np.diff(np.concatenate((dstarts,
                                                            [n]))))
        seq = excl // BUDGET
        newseq = newdoc.copy()
        newseq[1:] |= seq[1:] != seq[:-1]
        sstarts = np.flatnonzero(newseq)
        bounds = np.concatenate((sstarts, [n]))
        piece = pc.if_else(pa.array(is_text), text,
                           pa.scalar("<image>", type=pa.string()))
        rendered = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(bounds, type=pa.int32()),
                                     piece), " ")
        take = pa.array(sstarts, type=pa.int64())
        return pa.table({
            "doc_id": doc.take(take),
            "seq_idx": pa.array(seq[sstarts], type=pa.int64()),
            "rendered": rendered,
            "n_text_tokens": pa.array(np.add.reduceat(tok, sstarts),
                                      type=pa.int64()),
            "n_images": pa.array(
                np.add.reduceat((~is_text).astype(np.int64), sstarts),
                type=pa.int64()),
            "cost": pa.array(np.add.reduceat(cost, sstarts),
                             type=pa.int64()),
        })

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(fn, batch_format="pyarrow")


def _q_chi2_drift(sf_dir: str):
    """Categorical drift (`functions/audit.py:chi2_drift`): 2×k χ²
    homogeneity of the event-type mix before vs after Jan 16 — the
    categorical companion of `ks_drift` (event types have no ordering
    for a CDF). Per-category contributions are two IEEE divisions of
    exact int64 products, floored to order-independent nano units;
    one (half, category)-sized exchange."""
    import datetime

    from smartreader_ray.functions.audit import chi2_drift

    ev = _read(sf_dir, "events", ["event_type", "ts"])
    return chi2_drift(ev, "event_type", "ts",
                      datetime.datetime(2024, 1, 16))


def _q_ks_drift(sf_dir: str):
    """Exact two-sample KS drift of every source's n_chars CDF vs src0
    (`functions/audit.py: ks_drift`): integer cross-multiplied max
    CDF deviation on the common denominator n_g·n_b, ONE IEEE division
    for the statistic — the unbinned companion of `source_drift`'s
    PSI."""
    from smartreader_ray.functions.audit import ks_drift

    ds = _read(sf_dir, "documents", ["source", "n_chars"])
    return ks_drift(ds, "source", "n_chars", baseline="src0")


def _q_near_dedup_best_chain(sf_dir: str):
    """Composed chain #35 — provenance-priority NEAR-dedup (the
    near-dup analog of `priority_dedup`, which only sees exact keys):
    MinHash-verified dup pairs → connected components → per cluster
    keep the copy from the HIGHEST-priority source (numeric suffix of
    `source`, lower wins), ties by min doc_id. Output one row per
    cluster (singletons included: the post-dedup corpus).

    Scale shape: the verified-pair set is output-sized (collected
    driver-side under a loud bound — the same legitimacy as every
    verified-dup consumer); union-find runs on that small set; the
    member→cluster map broadcasts via `ray.put` into ONE corpus scan
    that emits (cluster, packed priority·2⁴²+doc) — winner AND both
    fields resolve in a single Min/Count exchange (the priority_dedup
    packing)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data

    from smartreader_ray.functions import minhash_dedup
    from smartreader_ray.functions.exchange import keyed_agg

    _SHIFT = 1 << 42
    PAIR_MAX = 5_000_000

    docs = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    pairs = (minhash_dedup(docs.select_columns(["doc_id", "text"]),
                           threshold=0.5)
             .filter(lambda r: bool(r["is_dup"]))
             .select_columns(["doc_a", "doc_b"]).take_all())
    if len(pairs) > PAIR_MAX:
        raise ValueError(
            f"near_dedup_best_chain: {len(pairs)} verified pairs "
            f"exceed the {PAIR_MAX} driver bound — cluster "
            "distributedly (dup_clusters_lp) instead")

    # union-find with min-id roots over the verified-dup-sized edge set
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:
            parent[x], x = r, parent[x]
        return r

    for p in pairs:
        a, b = find(int(p["doc_a"])), find(int(p["doc_b"]))
        if a != b:
            lo, hi = (a, b) if a < b else (b, a)
            parent[hi] = lo
    cluster_of = {x: find(x) for x in parent}
    cmap_ref = ray.put(cluster_of)

    def pack(b: pa.Table) -> pa.Table:
        cmap = ray.get(cmap_ref)
        ids = b.column("doc_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        pri = pc.cast(pc.utf8_slice_codeunits(
            b.column("source"), 3, 2_147_483_647),
            pa.int64()).to_numpy(zero_copy_only=False)
        if ids.size and (int(ids.max()) >= _SHIFT or int(ids.min()) < 0
                         or int(pri.max()) >= (1 << 20)
                         or int(pri.min()) < 0):
            raise OverflowError(
                "near_dedup_best_chain: doc_id/priority outside the "
                "packed-composite bounds")
        clus = np.array([cmap.get(int(i), int(i)) for i in ids.tolist()],
                        dtype=np.int64)
        return pa.table({
            "cluster_id": pa.array(clus, type=pa.int64()),
            "comp": pa.array(pri * _SHIFT + ids, type=pa.int64()),
        })

    agg = (keyed_agg(docs.map_batches(pack, batch_format="pyarrow"),
                     "cluster_id", {"comp": ("min", "comp"),
                                    "n_members": ("count", None)}))

    def unpack(b: pa.Table) -> pa.Table:
        comp = b.column("comp").to_numpy(zero_copy_only=False)
        return pa.table({
            "cluster_id": b.column("cluster_id"),
            "keep_priority": pa.array(comp // _SHIFT, type=pa.int64()),
            "keep_doc_id": pa.array(comp % _SHIFT, type=pa.int64()),
            "n_members": b.column("n_members"),
        })

    return agg.map_batches(unpack, batch_format="pyarrow")


def _q_lsh_recall_chain(sf_dir: str):
    """Composed chain #33 — SCREEN EVALUATION: measure the MinHash-LSH
    candidate screen's recall/precision against EXACT ground truth
    (n-gram Jaccard ≥ 0.5, all pairs) on a fixed 200-doc probe set —
    the standard way to validate an approximate dedup screen before
    trusting it at corpus scale (exact all-pairs GT is quadratic, so it
    runs on a bounded probe, never the corpus). The LSH leg runs the
    REAL distributed candidate pipeline over the probe; the GT leg
    collects the probe driver-side (bounded + loudly asserted) and
    computes all-pairs distinct-3-gram intersections. Output: one row
    (n_gt, n_cand, n_hit, recall, precision)."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.functions import minhash_lsh_candidates
    from smartreader_ray.functions.dedup import _token_ngrams

    PROBE, PROBE_MAX = 200, 1000
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    probe = docs.map_batches(
        lambda b: b.filter(pc.less(b.column("doc_id"), PROBE)),
        batch_format="pyarrow")

    cands = {(int(r["doc_a"]), int(r["doc_b"]))
             for r in minhash_lsh_candidates(probe).take_all()}

    rows = probe.take_all()
    if len(rows) > PROBE_MAX:
        raise ValueError(
            f"lsh_recall_chain: probe set {len(rows)} exceeds "
            f"{PROBE_MAX} — widen the bound deliberately, not by "
            "accident")
    sets = {int(r["doc_id"]): set(_token_ngrams(r["text"] or "", 3))
            for r in rows}
    ids = sorted(sets)
    gt = set()
    for i, a in enumerate(ids):
        sa = sets[a]
        if not sa:
            continue
        for b in ids[i + 1:]:
            sb = sets[b]
            ni = len(sa & sb)
            if ni and ni / (len(sa) + len(sb) - ni) >= 0.5:
                gt.add((a, b))
    n_gt, n_cand, n_hit = len(gt), len(cands), len(gt & cands)
    return pd.DataFrame({
        "n_gt": pd.array([n_gt], dtype="int64"),
        "n_cand": pd.array([n_cand], dtype="int64"),
        "n_hit": pd.array([n_hit], dtype="int64"),
        "recall": [n_hit / n_gt if n_gt else 0.0],
        "precision": [n_hit / n_cand if n_cand else 0.0],
    })


def queries() -> dict[str, Callable[[str], Any]]:
    """Every module-level ``_q_<name>`` function is the query ``<name>``."""
    return {n[3:]: f for n, f in globals().items() if n.startswith("_q_")}


# Shared CTE chain for the ccnet_buckets / ccnet_keep_chain oracles:
# per-lang held-slice bigram counts -> stamped micro-nat code lengths
# -> per-doc integer sums -> within-lang rank (the engine replays the
# identical stamps via libm math.log — see functions/lm.py).
_CCNET_CTES = """
            WITH held AS (
                SELECT lang, string_split(trim(text), ' ') AS a
                FROM documents WHERE doc_id % 10 = 0 AND doc_id < 25000
            ),
            tr_h AS (
                SELECT lang, a[i] AS w1, a[i+1] AS w2
                FROM held, UNNEST(generate_series(1, len(a) - 1)) AS t(i)
            ),
            c2 AS (SELECT lang, w1, w2, COUNT(*) AS c
                   FROM tr_h GROUP BY lang, w1, w2),
            c1 AS (SELECT lang, w1, COUNT(*) AS c
                   FROM tr_h GROUP BY lang, w1),
            v AS (SELECT lang, COUNT(DISTINCT w1) + 1 AS vv
                  FROM tr_h GROUP BY lang),
            alld AS (
                SELECT doc_id, lang, string_split(trim(text), ' ') AS a
                FROM documents
            ),
            tr AS (
                SELECT doc_id, lang, a[i] AS w1, a[i+1] AS w2
                FROM alld, UNNEST(generate_series(1, len(a) - 1)) AS t(i)
            ),
            j AS (
                SELECT tr.doc_id, tr.lang,
                       COALESCE(c2.c, 0) AS cc2,
                       COALESCE(c1.c, 0) AS cc1,
                       COALESCE(v.vv, 1) AS vv
                FROM tr
                LEFT JOIN c2 ON tr.lang = c2.lang AND tr.w1 = c2.w1
                            AND tr.w2 = c2.w2
                LEFT JOIN c1 ON tr.lang = c1.lang AND tr.w1 = c1.w1
                LEFT JOIN v ON tr.lang = v.lang
            ),
            s AS (
                SELECT doc_id, lang,
                       CAST(COUNT(*) AS BIGINT) AS n_trans,
                       CAST(SUM(CAST(FLOOR(1000000.0 * ln(
                           CAST(cc1 + vv AS DOUBLE)
                           / CAST(cc2 + 1 AS DOUBLE))) AS BIGINT))
                           AS BIGINT) AS mbits
                FROM j GROUP BY doc_id, lang
            ),
            r AS (
                SELECT *,
                       row_number() OVER (
                           PARTITION BY lang
                           ORDER BY (mbits * 100) // n_trans, doc_id
                       ) AS rn,
                       COUNT(*) OVER (PARTITION BY lang) AS nl
                FROM s
            )
"""

# Shared CTE prefix rebuilding `_synth_interleaved_spans`'s
# deterministic interleaving in SQL (text chunk offset =
# lead + j + (j+1)//3; image after chunk j%3==1 at offset+1; leading
# image at offset 0 when doc_id%4==0; alt planted when (doc_id+j)%5==0)
# — consumed by the `caption_pairs` and `interleave_audit` oracles.
_SPAN_CTES = """
    WITH base AS (
        SELECT doc_id, string_split(trim(text), ' ') AS a
        FROM documents
    ), m AS (
        SELECT doc_id, a, len(a) AS ntok,
               CAST(CEIL(len(a) / 5.0) AS BIGINT) AS nc,
               CASE WHEN doc_id % 4 = 0 THEN 1 ELSE 0 END AS lead
        FROM base
    ), chunks AS (
        SELECT doc_id, t.j AS j,
               array_to_string(a[t.j * 5 + 1 :
                                 LEAST(t.j * 5 + 5, ntok)],
                               ' ') AS ctext,
               lead + t.j + (t.j + 1) // 3 AS off
        FROM m, unnest(generate_series(0, nc - 1)) AS t(j)
    ), imgs AS (
        SELECT doc_id,
               'img://' || CAST(doc_id AS VARCHAR) || '/0'
                   AS media_ref,
               0 AS off, '' AS alt
        FROM m WHERE lead = 1
        UNION ALL
        SELECT doc_id,
               'img://' || CAST(doc_id AS VARCHAR) || '/'
                   || CAST(j + 1 AS VARCHAR),
               off + 1,
               CASE WHEN (doc_id + j) % 5 = 0
                    THEN 'fig ' || CAST(j + 1 AS VARCHAR)
                    ELSE '' END
        FROM chunks WHERE j % 3 = 1
    ), allspans AS (
        SELECT doc_id, off, 'text' AS kind, ctext AS txt,
               CAST(NULL AS VARCHAR) AS media_ref
        FROM chunks
        UNION ALL
        SELECT doc_id, off, 'image', alt, media_ref FROM imgs
    )
"""

# Shared verify suffix appended to _minhash_ctes(...): candidates ->
# exact n-gram-Jaccard (exact int |A∩B| / |A∪B|, ONE IEEE division both
# sides) — consumed by `minhash_dedup` and `mm_minhash_dedup`.
_MINHASH_VERIFY_TAIL = """,
    nset AS (SELECT doc_id, count(*) AS ns FROM docg GROUP BY doc_id),
    inter AS (SELECT p.doc_a, p.doc_b, count(*) AS ni
      FROM cpairs p
      JOIN docg x ON x.doc_id = p.doc_a
      JOIN docg y ON y.doc_id = p.doc_b AND y.g = x.g
      GROUP BY 1, 2)
    SELECT CAST(p.doc_a AS BIGINT) AS doc_a,
           CAST(p.doc_b AS BIGINT) AS doc_b,
      CAST(COALESCE(i.ni, 0) AS DOUBLE)
        / CAST(na.ns + nb.ns - COALESCE(i.ni, 0) AS DOUBLE) AS jaccard,
      (CAST(COALESCE(i.ni, 0) AS DOUBLE)
        / CAST(na.ns + nb.ns - COALESCE(i.ni, 0) AS DOUBLE)) >= 0.5
        AS is_dup
    FROM cpairs p
    LEFT JOIN inter i ON i.doc_a = p.doc_a AND i.doc_b = p.doc_b
    JOIN nset na ON na.doc_id = p.doc_a
    JOIN nset nb ON nb.doc_id = p.doc_b
    ORDER BY doc_a, doc_b
"""

# Shared pairing suffix: nearest-text caption resolution over the
# synthesized interleaving (IGNORE-NULLS windows; preceding wins ties)
# — consumed by the `caption_pairs` and `caption_coverage` oracles.
_SPAN_PAIR_CTES = _SPAN_CTES + """
    , w AS (
        SELECT *,
               last_value(CASE WHEN kind = 'text' THEN txt END
                          IGNORE NULLS) OVER pw AS ptxt,
               last_value(CASE WHEN kind = 'text' THEN off END
                          IGNORE NULLS) OVER pw AS poff,
               first_value(CASE WHEN kind = 'text' THEN txt END
                           IGNORE NULLS) OVER nw AS ntxt,
               first_value(CASE WHEN kind = 'text' THEN off END
                           IGNORE NULLS) OVER nw AS noff
        FROM allspans
        WINDOW pw AS (PARTITION BY doc_id ORDER BY off
                      ROWS BETWEEN UNBOUNDED PRECEDING
                               AND 1 PRECEDING),
               nw AS (PARTITION BY doc_id ORDER BY off
                      ROWS BETWEEN 1 FOLLOWING
                               AND UNBOUNDED FOLLOWING)
    ), pairs AS (
        SELECT doc_id, media_ref, CAST(off AS BIGINT) AS off,
               CASE WHEN txt <> '' THEN txt
                    WHEN poff IS NOT NULL AND (noff IS NULL
                         OR off - poff <= noff - off) THEN ptxt
                    WHEN noff IS NOT NULL THEN ntxt
                    ELSE '' END AS caption,
               CASE WHEN txt <> '' THEN 'alt'
                    WHEN poff IS NOT NULL AND (noff IS NULL
                         OR off - poff <= noff - off) THEN 'prev'
                    WHEN noff IS NOT NULL THEN 'next'
                    ELSE 'none' END AS caption_src,
               CAST(CASE WHEN txt <> '' THEN 0
                    WHEN poff IS NOT NULL AND (noff IS NULL
                         OR off - poff <= noff - off)
                        THEN off - poff
                    WHEN noff IS NOT NULL THEN noff - off
                    ELSE -1 END AS BIGINT) AS distance
        FROM w WHERE kind = 'image'
    )
"""

# Shared packing suffix: replay of spanio.pack_spans_batch's
# prefix-packing rule (seq = window-SUM of preceding costs // 256; text
# cost = token count, image cost = 64) ending in the per-(doc, seq)
# rollup — consumed by the `mm_pack` and `pack_overflow_audit` oracles.
_SPAN_PACK_CTES = _SPAN_CTES + """
    , c AS (
        SELECT doc_id, off,
               CASE WHEN kind = 'text'
                    THEN len(string_split(txt, ' '))
                    ELSE 64 END AS cost,
               CASE WHEN kind = 'text'
                    THEN len(string_split(txt, ' '))
                    ELSE 0 END AS tok,
               CASE WHEN kind = 'text' THEN 0 ELSE 1 END AS is_m
        FROM allspans
    ), s AS (
        SELECT *,
               COALESCE(SUM(cost) OVER (
                   PARTITION BY doc_id ORDER BY off
                   ROWS BETWEEN UNBOUNDED PRECEDING
                            AND 1 PRECEDING), 0) // 256
                   AS seq_idx
        FROM c
    ), packed AS (
        SELECT doc_id, CAST(seq_idx AS BIGINT) AS seq_idx,
               CAST(COUNT(*) AS BIGINT) AS n_spans,
               CAST(SUM(tok) AS BIGINT) AS n_text_tokens,
               CAST(SUM(is_m) AS BIGINT) AS n_media,
               CAST(SUM(cost) AS BIGINT) AS cost
        FROM s GROUP BY doc_id, seq_idx
    )
"""

# Shared stats suffix: per-doc modality counts + kind alternations over
# the synthesized interleaving — consumed by the `interleave_audit` and
# `interleave_gate_chain` oracles so the two cannot drift.
_SPAN_STATS_CTES = _SPAN_CTES + """
    , k AS (
        SELECT doc_id,
               CASE WHEN kind = 'text' THEN 1 ELSE 0 END AS it,
               lag(CASE WHEN kind = 'text' THEN 1 ELSE 0 END)
                   OVER (PARTITION BY doc_id ORDER BY off) AS prev_t
        FROM allspans
    ), stats AS (
        SELECT doc_id,
               CAST(COUNT(*) AS BIGINT) AS n_spans,
               CAST(SUM(it) AS BIGINT) AS n_text,
               CAST(COUNT(*) - SUM(it) AS BIGINT) AS n_media,
               CAST(COALESCE(SUM(CASE WHEN prev_t IS NOT NULL
                                      AND prev_t <> it
                                 THEN 1 ELSE 0 END), 0)
                    AS BIGINT) AS n_alt
        FROM k GROUP BY doc_id
    )
"""

# Shared run-length suffix: maximal same-class (text vs media) runs per
# doc — run id = running SUM of the adjacent-class-change flag, one row
# per run in `runs2` — consumed by the `modality_runs` and
# `clean_doc_chain` oracles so the gate cannot drift from the audit.
_SPAN_RUNS_CTES = _SPAN_CTES + """
    , k2 AS (
        SELECT doc_id, off,
               CASE WHEN kind = 'text' THEN 1 ELSE 0 END AS it
        FROM allspans
    ), r2 AS (
        SELECT *, CASE WHEN lag(it) OVER w IS NULL
                            OR lag(it) OVER w <> it
                       THEN 1 ELSE 0 END AS nr
        FROM k2 WINDOW w AS (PARTITION BY doc_id ORDER BY off)
    ), rid2 AS (
        SELECT *, SUM(nr) OVER (
                PARTITION BY doc_id ORDER BY off) AS run_id
        FROM r2
    ), runs2 AS (
        SELECT doc_id, run_id, MAX(it) AS it, COUNT(*) AS rl
        FROM rid2 GROUP BY doc_id, run_id
    )
"""

# Shared normalization suffix: replay of spanio.normalize_spans_batch
# (drop whitespace-empty text spans, merge maximal adjacent-text runs
# via ordered string_agg, renumber) ending at one row per normalized
# span in `nmerged` — consumed by the `span_normalize` and `doc_render`
# oracles so the render cannot drift from the canonical form.
_SPAN_NORM_CTES = _SPAN_CTES + """
    , norm0 AS (
        SELECT doc_id, off, kind, trim(COALESCE(txt, '')) AS t,
               COALESCE(media_ref, '') AS mr
        FROM allspans
        WHERE NOT (kind = 'text' AND trim(COALESCE(txt, '')) = '')
    ), segmark AS (
        SELECT *, CASE WHEN lag(kind) OVER w IS NULL
                            OR NOT (kind = 'text'
                                    AND lag(kind) OVER w = 'text')
                       THEN 1 ELSE 0 END AS new_seg
        FROM norm0
        WINDOW w AS (PARTITION BY doc_id ORDER BY off)
    ), seg AS (
        SELECT *, SUM(new_seg) OVER (
                PARTITION BY doc_id ORDER BY off) AS seg_id
        FROM segmark
    ), nmerged AS (
        SELECT doc_id, seg_id, arg_min(kind, off) AS kind,
               string_agg(t, ' ' ORDER BY off) AS text,
               arg_min(mr, off) AS media_ref
        FROM seg GROUP BY doc_id, seg_id
    )
"""

# Shared phash prefix: bit-for-bit average-hash replay of
# stages/media.ImagePHashStage over the deterministic 32-class pixel
# rule (v = doc_id % 32; red column ramp, green row ramp, blue
# constant): 8x8 nearest-sample grays, integer mean (SUM // 64),
# fingerprint = bit_or of shifted UBIGINTs — one row per doc in `pht`.
# Consumed by the `media_phash` and `phash_band_pairs` oracles.
_PHASH_CTES = """
    WITH g AS (
        SELECT doc_id, doc_id % 32 AS v,
               64 + (doc_id % 32) * 5 AS w,
               48 + (doc_id % 32) * 3 AS h
        FROM documents
    ), samp AS (
        SELECT doc_id, tj.j AS j, tk.k AS k,
               ((v + (tk.k * w) // 8) % 256
                + (v * 3 + (tj.j * h) // 8) % 256
                + (v * 7 + 11) % 256) // 3 AS gray
        FROM g, unnest(generate_series(0, 7)) AS tj(j),
             unnest(generate_series(0, 7)) AS tk(k)
    ), mmean AS (
        SELECT doc_id, SUM(gray) // 64 AS mean
        FROM samp GROUP BY doc_id
    ), pht AS (
        SELECT s.doc_id,
               bit_or(CASE WHEN s.gray >= m.mean
                           THEN CAST(1 AS UBIGINT)
                                << CAST(s.j * 8 + s.k AS INT)
                           ELSE CAST(0 AS UBIGINT) END) AS ph
        FROM samp s JOIN mmean m USING (doc_id)
        GROUP BY s.doc_id
    )
"""

# Shared affix suffix: planted per-source banner + lexicographic
# min/max LCP replay (prefix-closed list_filter lambda) ending at one
# row per source in `lens` — consumed by the `source_affixes` and
# `affix_strip_chain` oracles so the strip cannot drift from the
# detector.
_AFFIX_CTES = """
    WITH t AS (
        SELECT source,
               'newsroom ' || source || ' | '
                   || COALESCE(text, '') || ' | (c) '
                   || source AS tx
        FROM documents
    ), mm AS (
        SELECT source, COUNT(*) AS n_docs,
               MIN(tx) AS mn, MAX(tx) AS mx,
               MIN(reverse(tx)) AS rmn,
               MAX(reverse(tx)) AS rmx
        FROM t GROUP BY source
    ), lens AS (
        SELECT source, n_docs, mn, rmn,
               COALESCE(list_max(list_filter(
                   range(1, LEAST(len(mn), len(mx)) + 1),
                   i -> substr(mn, 1, CAST(i AS INT))
                        = substr(mx, 1, CAST(i AS INT)))), 0)
                   AS prefix_len,
               COALESCE(list_max(list_filter(
                   range(1, LEAST(len(rmn), len(rmx)) + 1),
                   i -> substr(rmn, 1, CAST(i AS INT))
                        = substr(rmx, 1, CAST(i AS INT)))), 0)
                   AS suffix_len
        FROM mm
    )
"""


def oracle_sql() -> dict[str, str]:
    from smartreader_ray.functions import mix_threshold_hex as _mt
    from smartreader_ray.functions.textstats import (
        _STOPWORDS as _LANG_STOPWORDS,
    )

    # shared stopword-LID prediction replay (textstats.LanguageId):
    # per-lang matched counts over the first 400 lowered tokens,
    # integer argmax with profile-order tie-break — consumed by the
    # `language_id` and `lid_confusion` oracles so they cannot drift
    _lid_ctes = f"""
            WITH langs(ord, lang, stops) AS (VALUES {", ".join(
                f"({i}, '{lang}', [{', '.join(chr(39) + w + chr(39) for w in ws)}])"
                for i, (lang, ws) in enumerate(_LANG_STOPWORDS.items()))}),
            base AS (
                SELECT doc_id,
                       list_transform((string_split(trim(text),
                                                    ' '))[1:400],
                                      x -> lower(x)) AS t
                FROM documents
            ), m AS (
                SELECT b.doc_id, l.ord, l.lang, len(b.t) AS n,
                       len(list_filter(b.t,
                               x -> list_contains(l.stops, x)))
                           AS matched
                FROM base b, langs l
            ), best AS (
                SELECT *, row_number() OVER (PARTITION BY doc_id
                              ORDER BY matched DESC, ord ASC) AS rn
                FROM m
            )"""

    def _kcenter_ctes(k: int = 8, dim: int = 64,
                      scale: int = 1000) -> list:
        # greedy k-center replayed as k chained CTEs: c_r = total-order
        # argmax of the running min-distance m_r (exact int squared L2
        # on the same quantization the engine uses). MATERIALIZED is
        # load-bearing: the chain references each m_r twice, so inlined
        # CTEs re-evaluate exponentially (2^k scans of q).
        def dist(a: str, b: str) -> str:
            return (f"(SELECT SUM(({a}.e[i]-{b}.e[i])*({a}.e[i]-{b}.e[i]))"
                    f" FROM generate_series(1,{dim}) t(i))")

        parts = [f"""q AS MATERIALIZED (
          SELECT CAST(vec_id AS BIGINT) AS vec_id,
          list_transform(embedding, x -> CAST(FLOOR(CAST(x AS DOUBLE)
              *{scale}+0.5) AS BIGINT)) AS e FROM embeddings),
        c0 AS MATERIALIZED (SELECT vec_id, e FROM q
          ORDER BY (SELECT SUM(q.e[i]*q.e[i])
                    FROM generate_series(1,{dim}) t(i)) DESC, vec_id
          LIMIT 1),
        m1 AS MATERIALIZED (SELECT q.vec_id, q.e, {dist('q', 'c0')}
               AS mind FROM q, c0)"""]
        for r in range(1, k):
            parts.append(f"c{r} AS MATERIALIZED (SELECT vec_id, e, mind"
                         f" FROM m{r} ORDER BY mind DESC, vec_id"
                         f" LIMIT 1)")
            if r < k - 1:
                parts.append(
                    f"m{r + 1} AS MATERIALIZED (SELECT m{r}.vec_id, "
                    f"m{r}.e, LEAST(m{r}.mind, "
                    f"{dist(f'm{r}', f'c{r}')}) AS mind"
                    f" FROM m{r}, c{r})")
        return parts

    def _kcenter_sql(k: int = 8, dim: int = 64, scale: int = 1000) -> str:
        parts = _kcenter_ctes(k, dim, scale)
        sels = ["SELECT CAST(0 AS BIGINT) AS sel_rank, vec_id, "
                "CAST(-1 AS BIGINT) AS dist2 FROM c0"]
        for r in range(1, k):
            sels.append(f"SELECT CAST({r} AS BIGINT), vec_id, "
                        f"CAST(mind AS BIGINT) FROM c{r}")
        return ("WITH " + ",\n".join(parts) + "\nSELECT * FROM ("
                + " UNION ALL ".join(sels) + ") ORDER BY sel_rank")

    def _semantic_dedup_sql(k: int = 8, dim: int = 64,
                            scale: int = 1000,
                            tau: float = 0.45) -> str:
        # k-center seeds -> integer argmin assignment (ties to lowest
        # seed rank) -> within-cluster cosine edges -> recursive
        # min-label components -> canonical per vector
        parts = _kcenter_ctes(k, dim, scale)
        ctrs = " UNION ALL ".join(
            [f"SELECT CAST({r} AS BIGINT) AS rk, e FROM c{r}"
             for r in range(k)])
        parts.append(f"ctr AS MATERIALIZED ({ctrs})")
        parts.append(f"""dst AS MATERIALIZED (SELECT q.vec_id, ctr.rk,
          (SELECT SUM((q.e[i]-ctr.e[i])*(q.e[i]-ctr.e[i]))
           FROM generate_series(1,{dim}) t(i)) AS d2
          FROM q, ctr)""")
        parts.append("""asg AS MATERIALIZED (
          SELECT vec_id, rk AS cluster FROM (
            SELECT vec_id, rk, ROW_NUMBER() OVER (
                PARTITION BY vec_id ORDER BY d2, rk) AS rn FROM dst)
          WHERE rn = 1)""")
        parts.append(f"""edges AS MATERIALIZED (
          SELECT a.vec_id AS na, b.vec_id AS nb
          FROM asg a JOIN asg b
          ON a.cluster = b.cluster AND a.vec_id < b.vec_id
          JOIN embeddings ea ON CAST(ea.vec_id AS BIGINT) = a.vec_id
          JOIN embeddings eb ON CAST(eb.vec_id AS BIGINT) = b.vec_id
          WHERE list_cosine_similarity(CAST(ea.embedding AS DOUBLE[]),
              CAST(eb.embedding AS DOUBLE[])) >= {tau})""")
        parts.append("""sym AS MATERIALIZED (
          SELECT na AS a, nb AS b FROM edges
          UNION SELECT nb, na FROM edges),
        reach(node, lab) AS (
          SELECT a, a FROM (SELECT DISTINCT a FROM sym)
          UNION
          SELECT s.b, r.lab FROM reach r JOIN sym s ON s.a = r.node),
        comp AS (SELECT node, MIN(lab) AS canon FROM reach
                 GROUP BY node)""")
        return ("WITH RECURSIVE " + ",\n".join(parts) + """
        SELECT asg.vec_id, asg.cluster,
               COALESCE(comp.canon, asg.vec_id) AS canonical
        FROM asg LEFT JOIN comp ON comp.node = asg.vec_id
        ORDER BY asg.vec_id""")

    def _sx(col: str) -> str:
        # American Soundex as a pure RE2-safe SQL expression: the exact
        # step sequence documented in fuzzy.py:soundex (collapse runs
        # per digit class — equivalent to (.)\1+ which RE2 lacks).
        u = f"regexp_replace(upper({col}), '[^A-Z]', '', 'g')"
        u2 = f"substr({u},1,1) || translate(substr({u},2), 'HW', '')"
        codes = (f"translate({u2}, 'BFPVCGJKQSXZDTLMNRAEIOUYHW',"
                 f" '11112222222233455600000000')")
        coll = codes
        for d in "0123456":
            coll = f"regexp_replace({coll}, '{d}{{2,}}', '{d}', 'g')"
        return (f"substr({u},1,1) || substr(replace(substr({coll},2),"
                f"'0','') || '000', 1, 3)")

    # --- MinHash / SimHash / fingerprint replay (dedup.py:_hash64,
    # MinHasher, simhash64, textstats.doc_fingerprint) -----------------
    # All integer ops: FNV-1a over ASCII bytes, (a*h+b) wrapped mod 2^64
    # then mod the Mersenne prime 2^61-1, the band-key FNV fold +
    # splitmix64 avalanche. DuckDB replays them exactly with HUGEINT
    # arithmetic — every mod-2^64 is a bitwise mask (& 2^64-1) and the
    # Mersenne mod is the shift-add fold, because HUGEINT ``%`` is
    # 128-bit division and ~40x slower than the bit ops.
    _FNV_OFFSET = 14695981039346656037
    _FNV_PRIME = 1099511628211
    _MASK64 = 18446744073709551615
    _MERS61 = 2305843009213693951

    def _fnv_sql(col: str) -> str:
        return (
            f"list_reduce(list_prepend({_FNV_OFFSET}::HUGEINT,"
            f" list_transform(string_split({col}, ''), c -> ord(c)::HUGEINT)),"
            f" (h, c) -> ((xor(h::UBIGINT, c::UBIGINT)::HUGEINT"
            f" * {_FNV_PRIME}::HUGEINT) & {_MASK64}::HUGEINT))"
        )

    def _mulmod64_sql(xcol: str, const: int) -> str:
        # (xcol * const) mod 2^64, constant split into 32-bit halves so
        # no intermediate exceeds 2^96 (HUGEINT is SIGNED 128-bit)
        lo, hi = const & 0xFFFFFFFF, const >> 32
        return (
            f"((({xcol}::HUGEINT * {lo}::HUGEINT) + ((({xcol}::HUGEINT"
            f" * {hi}::HUGEINT) & 4294967295::HUGEINT) * 4294967296::HUGEINT))"
            f" & {_MASK64}::HUGEINT)::UBIGINT"
        )

    def _grams_ctes(ngram: int, src: str = "documents") -> str:
        # replay dedup._token_ngrams: lowercase whitespace split (runs
        # of spaces give no empty token); docs shorter than n tokens
        # yield the single full-join gram, docs with no token (null,
        # empty or blank text) none
        return f"""
        toks AS (SELECT doc_id,
                        list_filter(string_split(lower(text), ' '),
                                    w -> w <> '') AS t
                 FROM {src}),
        grams AS (SELECT doc_id, unnest(CASE WHEN len(t) = 0 THEN []
              WHEN len(t) < {ngram} THEN [array_to_string(t, ' ')]
              ELSE [array_to_string(t[i:i+{ngram - 1}], ' ')
                    FOR i IN range(1, len(t) - {ngram - 2})] END) AS g
              FROM toks)"""

    def _mix64_ctes(src: str) -> str:
        # staged replay of sketch._mix64 (murmur fmix64) + the `| 1`
        # finalizer producing the Kirsch–Mitzenmacher second hash:
        # h2 = mix64(h ^ golden) | 1. One CTE column per round so no
        # expression-tree blowup; expects `src` to expose a UBIGINT `h`.
        return f"""
        x0 AS (SELECT *, xor(h, 11400714819323198485::UBIGINT) AS y0
               FROM {src}),
        x1 AS (SELECT *, xor(y0, y0 >> 33) AS y1 FROM x0),
        x2 AS (SELECT *, {_mulmod64_sql('y1', 0xFF51AFD7ED558CCD)} AS y2
               FROM x1),
        x3 AS (SELECT *, xor(y2, y2 >> 33) AS y3 FROM x2),
        x4 AS (SELECT *, {_mulmod64_sql('y3', 0xC4CEB9FE1A85EC53)} AS y4
               FROM x3),
        hh AS (SELECT *, (xor(y4, y4 >> 33) | 1::UBIGINT) AS h2 FROM x4)"""

    def _splitmix64_ctes(src: str, pfx: str, incol: str,
                         outcol: str) -> str:
        # staged replay of exchange._mix64 (splitmix64 finalizer, Steele et
        # al. 2014) — the hash behind semi/anti-join Bloom filters.
        # Distinct from _mix64_ctes above (that one is murmur fmix64,
        # sketch.py's mixer). `incol` must be UBIGINT on `src`.
        return f"""
        {pfx}0 AS (SELECT *, xor({incol}, {incol} >> 30) AS {pfx}y1
               FROM {src}),
        {pfx}1 AS (SELECT *, {_mulmod64_sql(pfx + 'y1', 0xBF58476D1CE4E5B9)}
               AS {pfx}y2 FROM {pfx}0),
        {pfx}2 AS (SELECT *, xor({pfx}y2, {pfx}y2 >> 27) AS {pfx}y3
               FROM {pfx}1),
        {pfx}3 AS (SELECT *, {_mulmod64_sql(pfx + 'y3', 0x94D049BB133111EB)}
               AS {pfx}y4 FROM {pfx}2),
        {pfx}4 AS (SELECT *, xor({pfx}y4, {pfx}y4 >> 31) AS {outcol}
               FROM {pfx}3)"""

    def _minhash_ctes(ngram: int = 3, num_hashes: int = 128,
                      bands: int = 16, seed: int = 42,
                      src: str = "documents") -> str:
        # the engine's (a, b) hash-family parameters are deterministic
        # from the seed (dedup.MinHasher.__init__); embed them as
        # literals so the SQL replays the same family
        import numpy as np

        rng = np.random.RandomState(seed)
        a = rng.randint(1, _MERS61, size=num_hashes, dtype=np.uint64)
        b = rng.randint(0, _MERS61, size=num_hashes, dtype=np.uint64)
        a_list = ",".join(str(int(x)) for x in a)
        b_list = ",".join(str(int(x)) for x in b)
        rows = num_hashes // bands
        # NOTE: replays the UNCAPPED bucket pairing — exact as long as
        # no LSH bucket exceeds DEFAULT_MAX_BUCKET (at the oracle's
        # sf0.01 the largest bucket has 3 members vs the 128 cap)
        return (_grams_ctes(ngram, src=src) + f""",
        docg AS MATERIALIZED (SELECT DISTINCT doc_id, g FROM grams),
        ghash AS MATERIALIZED (SELECT g, {_fnv_sql('g')} AS h
                               FROM (SELECT DISTINCT g FROM docg)),
        ab AS (SELECT unnest(range({num_hashes})) AS fn,
                      unnest([{a_list}]::HUGEINT[]) AS a,
                      unnest([{b_list}]::HUGEINT[]) AS b),
        hv AS MATERIALIZED (
          SELECT h, fn,
                 CASE WHEN y >= {_MERS61} THEN y - {_MERS61} ELSE y END AS v
          FROM (SELECT h, fn, (x >> 61) + (x & {_MERS61}::HUGEINT) AS y
                FROM (SELECT h, fn, (((a * h) & {_MASK64}::HUGEINT) + b)
                             & {_MASK64}::HUGEINT AS x FROM ab, ghash))),
        mins AS MATERIALIZED (
          SELECT d.doc_id, hv.fn, min(hv.v) AS mv
          FROM docg d JOIN ghash USING (g) JOIN hv USING (h)
          GROUP BY 1, 2),
        bkeys AS MATERIALIZED (
          SELECT doc_id,
                 xor(k5, {_mulmod64_sql('band', 0x9E3779B97F4A7C15)}) AS key
          FROM (SELECT doc_id, band, xor(k4, k4 >> 31) AS k5 FROM
            (SELECT doc_id, band,
                    {_mulmod64_sql('k3', 0x94D049BB133111EB)} AS k4 FROM
              (SELECT doc_id, band, xor(k2, k2 >> 27) AS k3 FROM
                (SELECT doc_id, band,
                        {_mulmod64_sql('k1', 0xBF58476D1CE4E5B9)} AS k2 FROM
                  (SELECT doc_id, band, xor(k0, k0 >> 30) AS k1 FROM
                    (SELECT doc_id, fn // {rows} AS band,
                      list_reduce(list_prepend({_FNV_OFFSET}::HUGEINT,
                          list(mv ORDER BY fn)),
                        (h, c) -> ((xor(h::UBIGINT, c::UBIGINT)::HUGEINT
                          * {_FNV_PRIME}::HUGEINT)
                          & {_MASK64}::HUGEINT))::UBIGINT AS k0
                     FROM mins GROUP BY doc_id, band)))))) ),
        cpairs AS MATERIALIZED (
          SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS n_bands
          FROM bkeys a JOIN bkeys b
            ON a.key = b.key AND a.doc_id < b.doc_id
          GROUP BY 1, 2)""")

    def _winnow_ctes(k: int = 4, w: int = 4) -> str:
        # replay winnow.py: FNV-1a over k-token shingles (slices of the
        # trimmed text), window-w minimum with RIGHTMOST tie-break via
        # the packed composite MIN(h·2^32 + (2^32-1-p)) — smallest hash
        # wins, and among equal hashes the largest position (smallest
        # complement). `fpsel` ends with one row per selected (doc,
        # pos) fingerprint; hu is the unsigned 64-bit hash.
        gram = f"array_to_string(a[t.i:t.i+{k - 1}], ' ')"
        return f"""
        base AS (SELECT doc_id, string_split(trim(text), ' ') AS a
                 FROM documents),
        kg AS MATERIALIZED (
            SELECT doc_id, t.i - 1 AS p, {_fnv_sql(gram)} AS h
            FROM base, unnest(generate_series(1, len(a) - {k - 1}))
                 AS t(i)
            WHERE len(a) >= {k}),
        nk AS (SELECT doc_id, COUNT(*) AS n FROM kg GROUP BY doc_id),
        wins AS (SELECT doc_id, LEAST({w}, n) AS we, t.s AS s
                 FROM nk, unnest(generate_series(0, n - LEAST({w}, n)))
                      AS t(s)),
        sel AS (SELECT w.doc_id, w.s,
                       MIN(k.h * 4294967296::HUGEINT
                           + (4294967295 - k.p)::HUGEINT) AS kk
                FROM wins w JOIN kg k ON k.doc_id = w.doc_id
                     AND k.p BETWEEN w.s AND w.s + w.we - 1
                GROUP BY w.doc_id, w.s),
        fpsel AS (SELECT DISTINCT doc_id,
                         CAST(4294967295 - (kk % 4294967296) AS BIGINT)
                             AS pos,
                         kk // 4294967296 AS hu
                  FROM sel)"""

    def _contain_ctes(window: int = 8) -> str:
        # replay winnow.containment_pairs: DISTINCT window-token
        # shingle hashes per doc (engine counts over _hash64 values,
        # so the oracle hashes too — identical even under collisions),
        # symmetric shared counts, per-doc set sizes.
        gram = f"array_to_string(a[t.i:t.i+{window - 1}], ' ')"
        return f"""
        base AS (SELECT doc_id, string_split(trim(text), ' ') AS a
                 FROM documents),
        w8 AS MATERIALIZED (
            SELECT DISTINCT doc_id, {_fnv_sql(gram)} AS h
            FROM base, unnest(generate_series(1, len(a) - {window - 1}))
                 AS t(i)
            WHERE len(a) >= {window}),
        sizes AS (SELECT doc_id, COUNT(*) AS n FROM w8 GROUP BY doc_id),
        cp AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                      COUNT(*) AS shared
               FROM w8 a JOIN w8 b
                 ON a.h = b.h AND a.doc_id < b.doc_id
               GROUP BY 1, 2),
        cj AS (SELECT doc_a, doc_b, shared, sa.n AS n_a, sb.n AS n_b
               FROM cp JOIN sizes sa ON sa.doc_id = cp.doc_a
                       JOIN sizes sb ON sb.doc_id = cp.doc_b)"""

    _U2I = ("CAST(CASE WHEN {x} >= 9223372036854775808::HUGEINT"
            " THEN {x} - 18446744073709551616::HUGEINT"
            " ELSE {x} END AS BIGINT)")

    return {
        "weighted_mix": f"""
            SELECT source, doc_id FROM documents
            WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 8) <
                  CASE source
                      WHEN 'src0' THEN '{_mt(1.0)}'
                      WHEN 'src1' THEN '{_mt(0.5)}'
                      WHEN 'src2' THEN '{_mt(0.25)}'
                      ELSE '{_mt(0.1)}'
                  END
        """,
        "extract_meta": r"""
            SELECT doc_id,
                   'Document ' || CAST(doc_id AS VARCHAR) AS title,
                   length(text) AS length,
                   -- letters = not-space and not Unicode punctuation
                   -- (TimeToReadCalculator.cs:42; \p{P} matches the
                   -- implementation's category-P exclusion; remaining
                   -- divergence only for astral chars, counted as UTF-16
                   -- code units by the impl and codepoints by SQL)
                   CASE WHEN length(text) = 0 THEN 0
                        ELSE GREATEST(CAST(floor(
                            length(regexp_replace(replace(text,' ',''), '\p{P}', '', 'g'))
                            /960) AS BIGINT), 1) * 60
                   END AS time_to_read_s,
                   length(text) > 240 AS is_readable,
                   TRUE AS completed
            FROM documents
        """,
        "extract_text": """
            SELECT doc_id, text AS text_content, text AS excerpt FROM documents
        """,
        "pdf_extract": """
            SELECT doc_id, text FROM documents
        """,
        "corpus_metrics": """
            SELECT CAST(COUNT(*) AS BIGINT) AS docs,
                   CAST(COUNT(*) AS BIGINT) AS completed,
                   CAST(SUM(CASE WHEN length(text) > 240 THEN 1 ELSE 0 END) AS BIGINT) AS readable,
                   CAST(SUM(length(text)) AS BIGINT) AS chars_kept
            FROM documents
        """,
        "doc_stats": """
            SELECT lang,
                   CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(SUM(length(text)) AS BIGINT) AS total_chars,
                   CAST(SUM(length(text)) AS BIGINT) // CAST(COUNT(*) AS BIGINT) AS avg_chars
            FROM documents GROUP BY lang
        """,
        "token_stats": """
            SELECT doc_id,
                   CAST(length(string_split_regex(trim(text), '\\s+')) AS BIGINT) AS n_tokens,
                   CAST(length(regexp_replace(text, '\\s', '', 'g')) AS BIGINT) AS n_chars_nospace
            FROM documents
        """,
        "quality_stats": f"""
            SELECT doc_id,
                   CAST(length(text) AS BIGINT) AS n_chars,
                   CAST(length(string_split_regex(trim(text), '\\s+')) AS BIGINT) AS n_tokens,
                   0.0 AS punct_ratio,
                   0.0 AS digit_ratio,
                   CAST(length(replace(text,' ','')) AS DOUBLE)
                     / length(string_split_regex(trim(text), '\\s+')) AS mean_token_len,
                   CAST(length(list_filter(string_split_regex(trim(lower(text)), '\\s+'),
                                           x -> list_contains([{_EN_STOP}], x))) AS DOUBLE)
                     / length(string_split_regex(trim(text), '\\s+')) AS stopword_ratio_en
            FROM documents
        """,
        "fingerprint_dedup": r"""
            SELECT MIN(doc_id) AS keep_doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_dups
            FROM documents
            GROUP BY regexp_replace(trim(lower(text)), '\s+', ' ', 'g')
        """,
        "exact_dedup": """
            SELECT array_to_string((string_split_regex(trim(text), '\\s+'))[1:5], ' ') AS dup_key,
                   MIN(doc_id) AS keep_doc_id,
                   COUNT(*) AS n_dups
            FROM documents GROUP BY 1
        """,
        "minhash_candidates": "WITH " + _minhash_ctes() + """
            SELECT CAST(doc_a AS BIGINT) AS doc_a,
                   CAST(doc_b AS BIGINT) AS doc_b,
                   CAST(n_bands AS BIGINT) AS n_bands
            FROM cpairs ORDER BY doc_a, doc_b
        """,
        # candidates -> exact n-gram-Jaccard verify: |A∩B| and |A∪B| are
        # exact small ints; the quotient is ONE IEEE division both sides
        # (dedup.ngram_jaccard) -> bit-identical doubles
        "minhash_dedup": "WITH " + _minhash_ctes() + _MINHASH_VERIFY_TAIL,
        # same chain over the MULTIMODAL token stream (text tokens +
        # media_refs in span order, string_agg'd from the shared
        # _SPAN_CTES synthesis) — the interleaved-payload near-dedup
        # winnow_fps: MOSS winnowing fingerprint selection — exact
        # positional replay of the sliding-window rightmost-argmin.
        "winnow_fps": "WITH " + _winnow_ctes() + f"""
            SELECT CAST(doc_id AS BIGINT) AS doc_id, pos,
                   {_U2I.format(x='hu')} AS fp
            FROM fpsel ORDER BY doc_id, pos
        """,
        # winnow_dedup: pairs sharing >= 2 DISTINCT selected hash
        # values + per-doc fingerprint-set sizes. Replays the
        # UNCAPPED bucket pairing (cap 128 not reached at sf0.01,
        # same note as the minhash oracle).
        "winnow_dedup": "WITH " + _winnow_ctes() + """,
            dfp AS (SELECT DISTINCT doc_id, hu FROM fpsel),
            dsz AS (SELECT doc_id, COUNT(*) AS n FROM dfp
                    GROUP BY doc_id),
            p AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                         COUNT(*) AS shared
                  FROM dfp a JOIN dfp b
                    ON a.hu = b.hu AND a.doc_id < b.doc_id
                  GROUP BY 1, 2 HAVING COUNT(*) >= 2)
            SELECT CAST(doc_a AS BIGINT) AS doc_a,
                   CAST(doc_b AS BIGINT) AS doc_b,
                   CAST(shared AS BIGINT) AS shared,
                   CAST(sa.n AS BIGINT) AS n_a,
                   CAST(sb.n AS BIGINT) AS n_b
            FROM p JOIN dsz sa ON sa.doc_id = p.doc_a
                   JOIN dsz sb ON sb.doc_id = p.doc_b
            ORDER BY doc_a, doc_b
        """,
        # containment_pairs: asymmetric Broder containment over
        # distinct 8-token shingle hashes; integer keep test
        # 2·shared >= n_side, each float one IEEE division.
        "containment_pairs": "WITH " + _contain_ctes() + """
            SELECT CAST(doc_a AS BIGINT) AS doc_a,
                   CAST(doc_b AS BIGINT) AS doc_b,
                   CAST(shared AS BIGINT) AS shared,
                   CAST(n_a AS BIGINT) AS n_a,
                   CAST(n_b AS BIGINT) AS n_b,
                   CAST(shared AS DOUBLE) / CAST(n_a AS DOUBLE) AS c_a,
                   CAST(shared AS DOUBLE) / CAST(n_b AS DOUBLE) AS c_b
            FROM cj
            WHERE 2 * shared >= n_a OR 2 * shared >= n_b
            ORDER BY doc_a, doc_b
        """,
        # quote_screen_chain: containment -> drop the CONTAINED doc
        # (5·shared >= 4·n_side, smaller shingle set; doc_id breaks
        # exact ties) -> per-source survivor rollup.
        "quote_screen_chain": "WITH " + _contain_ctes() + """,
            dropped AS (
                SELECT doc_a AS d FROM cj
                WHERE 5 * shared >= 4 * n_a
                  AND (n_a < n_b OR (n_a = n_b AND doc_a > doc_b))
                UNION
                SELECT doc_b FROM cj
                WHERE 5 * shared >= 4 * n_b
                  AND (n_b < n_a OR (n_a = n_b AND doc_b > doc_a))
            )
            SELECT source,
                   CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(COUNT(*) FILTER (WHERE dr.d IS NULL) AS BIGINT)
                       AS n_kept,
                   CAST(COALESCE(SUM(len(string_split(trim(text), ' ')))
                        FILTER (WHERE dr.d IS NULL), 0) AS BIGINT)
                       AS tokens_kept
            FROM documents LEFT JOIN dropped dr ON documents.doc_id = dr.d
            GROUP BY source ORDER BY source
        """,
        # token_dropout: deterministic word-dropout — drop token i of
        # doc d iff FNV1a("d:i") & 7 = 0; ordered string_agg rebuild.
        "token_dropout": f"""
            WITH base AS (SELECT doc_id,
                                 string_split(trim(text), ' ') AS a
                          FROM documents),
            tok AS (
                SELECT doc_id, t.i AS i, a[t.i] AS tk,
                       {_fnv_sql("doc_id::VARCHAR || ':' ||"
                                 " (t.i - 1)::VARCHAR")} AS h
                FROM base, unnest(generate_series(1, len(a))) AS t(i))
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   COALESCE(string_agg(tk, ' ' ORDER BY i)
                            FILTER (WHERE (h & 7) <> 0), '') AS text_aug,
                   CAST(COUNT(*) AS BIGINT) AS n_tokens,
                   CAST(COUNT(*) FILTER (WHERE (h & 7) = 0) AS BIGINT)
                       AS n_dropped
            FROM tok GROUP BY doc_id ORDER BY doc_id
        """,
        # freq_spectrum: Good–Turing count-of-counts; r=1 row's mass
        # is the unseen-probability numerator N1.
        "freq_spectrum": """
            WITH t AS (SELECT unnest(string_split(trim(text), ' '))
                           AS term
                       FROM documents),
            c AS (SELECT term, COUNT(*) AS c FROM t
                  WHERE term <> '' GROUP BY term)
            SELECT CAST(c AS BIGINT) AS r,
                   CAST(COUNT(*) AS BIGINT) AS n_terms,
                   CAST(c * COUNT(*) AS BIGINT) AS mass
            FROM c GROUP BY c ORDER BY r
        """,
        # vocab_growth: Heaps-law curve — term enters the vocab at its
        # MIN containing doc; deciles by exact integer arithmetic
        # ((rk-1)*10)//n + 1 (no NTILE remainder ambiguity); docs_cum
        # = ceil(n*b/10).
        "vocab_growth": """
            WITH tok AS (SELECT doc_id,
                                unnest(string_split(trim(text), ' '))
                                    AS term
                         FROM documents),
            ft AS (SELECT term, MIN(doc_id) AS fd FROM tok
                   WHERE term <> '' GROUP BY term),
            r AS (SELECT doc_id,
                         ROW_NUMBER() OVER (ORDER BY doc_id) AS rk
                  FROM documents),
            n AS (SELECT COUNT(*) AS c FROM documents),
            nb AS (SELECT ((rk - 1) * 10) // c + 1 AS bucket,
                          COUNT(*) AS nt
                   FROM ft JOIN r ON ft.fd = r.doc_id, n GROUP BY 1),
            g AS (SELECT unnest(generate_series(1, 10)) AS bucket)
            SELECT CAST(g.bucket AS BIGINT) AS bucket,
                   CAST((n.c * g.bucket + 9) // 10 AS BIGINT)
                       AS docs_cum,
                   CAST(COALESCE(nb.nt, 0) AS BIGINT) AS new_terms,
                   CAST(SUM(COALESCE(nb.nt, 0))
                        OVER (ORDER BY g.bucket) AS BIGINT) AS vocab_cum
            FROM g LEFT JOIN nb ON nb.bucket = g.bucket, n
            ORDER BY bucket
        """,
        "mm_minhash_dedup": "WITH " + _minhash_ctes(
            src="(" + _SPAN_CTES + """
                SELECT doc_id,
                       string_agg(CASE WHEN kind = 'text' THEN txt
                                       ELSE media_ref END,
                                  ' ' ORDER BY off) AS text
                FROM allspans GROUP BY doc_id)""") + _MINHASH_VERIFY_TAIL,
        # simhash: per-bit majority votes over the gram MULTISET
        # (dedup.simhash64, ngram=2), 4x16-bit pigeonhole bands, exact
        # hamming verify (uncapped pairing — same bucket-size caveat)
        "simhash_neardup": "WITH " + _grams_ctes(2) + f""",
            gcnt AS MATERIALIZED (SELECT doc_id, g, count(*) AS m
                                  FROM grams GROUP BY 1, 2),
            ghash AS MATERIALIZED (SELECT g, {_fnv_sql('g')}::UBIGINT AS h
                                   FROM (SELECT DISTINCT g FROM gcnt)),
            gch AS MATERIALIZED (SELECT doc_id, h, m
                                 FROM gcnt JOIN ghash USING (g)),
            tot AS (SELECT doc_id, sum(m) AS n FROM gch GROUP BY doc_id),
            votes AS MATERIALIZED (
              SELECT doc_id, bit,
                     sum(CASE WHEN (h >> bit::INTEGER) & 1 = 1
                         THEN m ELSE 0 END) AS ones
              FROM gch, (SELECT unnest(range(64)) AS bit) GROUP BY 1, 2),
            sims AS MATERIALIZED (
              SELECT v.doc_id,
                     COALESCE(sum(CASE WHEN 2 * v.ones - t.n > 0
                         THEN (1::UBIGINT << v.bit::INTEGER)::HUGEINT
                         ELSE 0 END), 0)::UBIGINT AS sim
              FROM votes v JOIN tot t USING (doc_id) GROUP BY v.doc_id),
            chunks AS MATERIALIZED (
              SELECT doc_id, sim, c, (sim >> (16 * c)::INTEGER) & 65535 AS piece
              FROM sims, (SELECT unnest(range(4)) AS c))
            SELECT CAST(a.doc_id AS BIGINT) AS doc_a,
                   CAST(b.doc_id AS BIGINT) AS doc_b,
                   CAST(min(bit_count(xor(a.sim, b.sim))) AS INTEGER)
                       AS hamming_min
            FROM chunks a JOIN chunks b
              ON a.c = b.c AND a.piece = b.piece AND a.doc_id < b.doc_id
            WHERE bit_count(xor(a.sim, b.sim)) <= 3
            GROUP BY 1, 2 ORDER BY doc_a, doc_b
        """,
        # Count–Min sketch point queries: the estimate is MIN over d
        # rows of the counter at (h + d·h2) % width — every ingredient
        # is a deterministic integer (FNV-1a term hash, fmix64 second
        # hash, wrapped-mod-2^64 position, int64 counter sums), so the
        # whole sketch replays in SQL including collisions
        "cms_counts": f"""
            WITH tok AS (
                SELECT unnest(string_split(trim(text), ' ')) AS term
                FROM documents
            ), tc AS (
                SELECT term, CAST(count(*) AS HUGEINT) AS c
                FROM tok WHERE term <> '' GROUP BY term
            ), probes AS (
                SELECT unnest(['batch','column','customer','filter',
                               'hash','join','row','scan']) AS term
            ), terms AS (
                SELECT term, c FROM tc
                UNION ALL
                SELECT p.term, 0::HUGEINT FROM probes p
                WHERE p.term NOT IN (SELECT term FROM tc)
            ), th AS (
                SELECT term, c, {_fnv_sql('term')}::UBIGINT AS h
                FROM terms
            ), {_mix64_ctes('th')}, pos AS (
                SELECT term, c, d,
                       CAST(((h::HUGEINT + d::HUGEINT * h2::HUGEINT)
                             & {_MASK64}::HUGEINT) % 16384 AS BIGINT)
                           AS p
                FROM hh, (SELECT unnest(range(4)) AS d)
            ), cells AS (
                SELECT pr.term, pp.d, COALESCE(SUM(q.c), 0) AS cnt
                FROM probes pr
                JOIN pos pp ON pp.term = pr.term
                LEFT JOIN pos q ON q.d = pp.d AND q.p = pp.p
                GROUP BY pr.term, pp.d
            )
            SELECT term, CAST(MIN(cnt) AS BIGINT) AS est
            FROM cells GROUP BY term ORDER BY term
        """,
        # language_id: the stopword heuristic is exact integer math
        # (matched counts share the denominator n, the 2% gate is the
        # rational 50·matched > n, score is ppm floor-div), so SQL
        # replays it: per-lang matched counts over the first 400
        # lowered tokens, argmax with profile-order tie-break
        "language_id": _lid_ctes + """
            SELECT doc_id,
                   CASE WHEN 50 * matched > n THEN lang
                        ELSE 'und' END AS pred_lang,
                   CAST(CASE WHEN n = 0 THEN 0
                             ELSE matched * 1000000 // n END AS BIGINT)
                       AS lang_score_ppm
            FROM best WHERE rn = 1
        """,
        # lid_confusion: the language-ID heuristic EVALUATED against
        # the corpus's lang labels — shared prediction CTEs, then the
        # (label, prediction) confusion-matrix rollup.
        "lid_confusion": _lid_ctes + """
            , pred AS (
                SELECT doc_id,
                       CASE WHEN 50 * matched > n THEN lang
                            ELSE 'und' END AS pred_lang
                FROM best WHERE rn = 1
            )
            SELECT d.lang, p.pred_lang,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM documents d JOIN pred p USING (doc_id)
            GROUP BY d.lang, p.pred_lang
            ORDER BY d.lang, p.pred_lang
        """,
        # HyperLogLog distinct users per event type: registers are
        # deterministic ints (max leftmost-1 position per bucket), the
        # harmonic sum is the EXACT integer Σ 2^(53−r) (sketch._estimate),
        # and the estimate is one shared IEEE tree + floor(x+0.5) — so
        # the whole sketch replays in SQL: FNV-1a over str(user_id),
        # staged fmix64, top-12-bit bucket, staged bit-length for rho,
        # MAX per register, integer sum incl. 2^53 per empty register,
        # linear-counting branch on the same raw/zeros values
        "approx_distinct_users": f"""
            WITH uv AS (
                SELECT DISTINCT event_type,
                       CAST(user_id AS VARCHAR) AS v
                FROM events
            ), th AS (
                SELECT event_type, {_fnv_sql('v')}::UBIGINT AS h0
                FROM uv
            ), m1 AS (SELECT *, xor(h0, h0 >> 33) AS z1 FROM th),
            m2 AS (SELECT *, {_mulmod64_sql('z1', 0xFF51AFD7ED558CCD)}
                             AS z2 FROM m1),
            m3 AS (SELECT *, xor(z2, z2 >> 33) AS z3 FROM m2),
            m4 AS (SELECT *, {_mulmod64_sql('z3', 0xC4CEB9FE1A85EC53)}
                             AS z4 FROM m3),
            mx AS (SELECT event_type, xor(z4, z4 >> 33) AS h FROM m4),
            ir AS (
                SELECT event_type,
                       CAST(h >> 52 AS BIGINT) AS idx,
                       ((h::HUGEINT * 4096::HUGEINT)
                        & {_MASK64}::HUGEINT)::UBIGINT AS rest
                FROM mx
            ), b1 AS (SELECT *,
                       CASE WHEN rest >= 4294967296::UBIGINT
                            THEN 32 ELSE 0 END AS l1,
                       CASE WHEN rest >= 4294967296::UBIGINT
                            THEN rest >> 32 ELSE rest END AS c1 FROM ir),
            b2 AS (SELECT *,
                       CASE WHEN c1 >= 65536 THEN 16 ELSE 0 END AS l2,
                       CASE WHEN c1 >= 65536 THEN c1 >> 16 ELSE c1 END
                           AS c2 FROM b1),
            b3 AS (SELECT *,
                       CASE WHEN c2 >= 256 THEN 8 ELSE 0 END AS l3,
                       CASE WHEN c2 >= 256 THEN c2 >> 8 ELSE c2 END
                           AS c3 FROM b2),
            b4 AS (SELECT *,
                       CASE WHEN c3 >= 16 THEN 4 ELSE 0 END AS l4,
                       CASE WHEN c3 >= 16 THEN c3 >> 4 ELSE c3 END
                           AS c4 FROM b3),
            b5 AS (SELECT *,
                       CASE WHEN c4 >= 4 THEN 2 ELSE 0 END AS l5,
                       CASE WHEN c4 >= 4 THEN c4 >> 2 ELSE c4 END
                           AS c5 FROM b4),
            b6 AS (SELECT *,
                       CASE WHEN c5 >= 2 THEN 1 ELSE 0 END AS l6 FROM b5),
            rr AS (
                SELECT event_type, idx,
                       CASE WHEN rest = 0 THEN 53
                            ELSE 65 - (l1+l2+l3+l4+l5+l6+1) END AS rho
                FROM b6
            ), regs AS (
                SELECT event_type, idx, MAX(rho) AS r
                FROM rr GROUP BY 1, 2
            ), agg AS (
                SELECT event_type,
                       4096 - COUNT(*) AS zeros,
                       SUM(1::HUGEINT << (53 - r)::INTEGER)
                       + (4096 - COUNT(*))::HUGEINT
                         * 9007199254740992::HUGEINT AS s
                FROM regs GROUP BY event_type
            ), est AS (
                SELECT event_type, zeros,
                       ((((0.7213 / (1.0 + 1.079 / 4096.0)) * 4096.0)
                         * 4096.0) * 9007199254740992.0)
                           / CAST(s AS DOUBLE) AS raw
                FROM agg
            )
            SELECT event_type,
                   CAST(FLOOR(CASE WHEN raw <= 10240.0 AND zeros > 0
                                   THEN 4096.0 * ln(4096.0
                                            / CAST(zeros AS DOUBLE))
                                   ELSE raw END + 0.5) AS BIGINT)
                       AS approx_distinct
            FROM est
        """,
        # Rabin-Karp rolling fingerprint (textstats.doc_fingerprint):
        # fold h = h*p + byte mod 2^64 from the seed; the query renders
        # the unsigned decimal, so render the HUGEINT fold directly
        "doc_fingerprint": f"""
            SELECT doc_id, CAST(list_reduce(
                list_prepend(1469598103934665603::HUGEINT,
                  list_transform(string_split(trim(lower(text)), ''),
                                 c -> ord(c)::HUGEINT)),
                (h, b) -> ((h * {_FNV_PRIME}::HUGEINT + b)
                           & {_MASK64}::HUGEINT)
              ) AS VARCHAR) AS fingerprint
            FROM documents ORDER BY doc_id
        """,
        "ann_topk": """
            WITH q AS (SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS qe
                       FROM embeddings WHERE vec_id < 5)
            SELECT query_id, vec_id, rank FROM (
                SELECT q.query_id, e.vec_id,
                       ROW_NUMBER() OVER (
                           PARTITION BY q.query_id
                           ORDER BY list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])) DESC,
                                    e.vec_id ASC
                       ) AS rank
                FROM q CROSS JOIN embeddings e
            ) WHERE rank <= 10
        """,
        "ann_ivf_bucketed": """
            WITH q AS (SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS qe
                       FROM embeddings WHERE vec_id < 5)
            SELECT query_id, vec_id, rank FROM (
                SELECT q.query_id, e.vec_id,
                       ROW_NUMBER() OVER (
                           PARTITION BY q.query_id
                           ORDER BY list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])) DESC,
                                    e.vec_id ASC
                       ) AS rank
                FROM q CROSS JOIN embeddings e
            ) WHERE rank <= 10
        """,
        "embed_neardup": """
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                         CAST(b.embedding AS DOUBLE[])) >= 0.45
        """,
        "lineitem_pricing": """
            SELECT l_returnflag, l_linestatus,
                   SUM(l_quantity) AS sum_qty,
                   COUNT(*) AS count_order
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        "top_orders": """
            SELECT l_orderkey FROM (
                SELECT l_orderkey,
                       SUM(l_extendedprice * (1 - l_discount)) AS revenue
                FROM lineitem GROUP BY l_orderkey
            ) ORDER BY revenue DESC LIMIT 10
        """,
        "orders_by_segment": """
            SELECT c_mktsegment,
                   ROUND(SUM(o_totalprice), 2) AS total_price,
                   CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment
        """,
        "orders_by_segment_salted": """
            SELECT c_mktsegment,
                   ROUND(SUM(o_totalprice), 2) AS total_price,
                   CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment
        """,
        "orders_by_nation": """
            SELECT n_name,
                   ROUND(SUM(o_totalprice), 2) AS total_price,
                   COUNT(*) AS n_orders
            FROM orders
            JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
            GROUP BY n_name
        """,
        "events_by_type": """
            SELECT event_type,
                   COUNT(DISTINCT user_id) AS n_users,
                   COUNT(*) AS n_events
            FROM events GROUP BY event_type
        """,
        "training_sample": r"""
            WITH filt AS (
                SELECT * FROM documents WHERE length(text) >= 200
            ), keep AS (
                SELECT MIN(doc_id) AS doc_id FROM filt
                GROUP BY regexp_replace(trim(lower(text)), '\s+', ' ', 'g')
            ), surv AS (
                SELECT f.lang, f.doc_id FROM filt f JOIN keep k USING (doc_id)
            )
            SELECT lang, doc_id FROM (
                SELECT lang, doc_id,
                       ROW_NUMBER() OVER (
                           PARTITION BY lang
                           ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id
                       ) AS rn
                FROM surv
            ) WHERE rn <= 10
        """,
        "pii_redact": r"""
            WITH red AS (
                SELECT doc_id, text AS orig,
                       regexp_replace(regexp_replace(regexp_replace(text,
                           '[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}',
                           '<EMAIL>', 'g'),
                           '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b',
                           '<IP>', 'g'),
                           '\+?\d[\d \-()]{7,}\d', '<PHONE>', 'g') AS text
                FROM documents)
            SELECT doc_id, text, orig <> text AS had_pii FROM red
        """,
        "source_cap": """
            SELECT source, doc_id FROM (
                SELECT source, doc_id,
                       ROW_NUMBER() OVER (
                           PARTITION BY source ORDER BY doc_id
                       ) AS rn
                FROM documents) WHERE rn <= 10
        """,
        "decontaminate": """
            WITH eval AS (
                -- snip <> '' matches the engine: _ContaminationFlagger
                -- drops empty snippets, while SQL contains(text, '')
                -- would flag every row
                SELECT substr(text, 1, 120) AS snip
                FROM documents WHERE doc_id % 50 = 0 AND doc_id < 25000 AND text <> ''
            )
            SELECT d.doc_id,
                   EXISTS (SELECT 1 FROM eval e
                           WHERE contains(d.text, e.snip)) AS contaminated
            FROM documents d
        """,
        "repetition_stats": """
            WITH base AS (
                SELECT doc_id, string_split(trim(text), ' ') AS a
                FROM documents
            ),
            uni AS (SELECT doc_id, len(a) AS n, len(list_distinct(a)) AS d
                    FROM base),
            bg AS (SELECT doc_id, a[i] || ' ' || a[i+1] AS bigram
                   FROM base,
                        UNNEST(generate_series(1, len(a) - 1)) AS t(i)),
            bgc AS (SELECT doc_id, bigram, COUNT(*) AS c
                    FROM bg GROUP BY doc_id, bigram),
            bgm AS (SELECT doc_id, MAX(c) AS mx
                    FROM bgc GROUP BY doc_id)
            SELECT u.doc_id,
                   CAST(u.n AS BIGINT) AS n_tokens,
                   CAST(u.d AS BIGINT) AS n_distinct,
                   CAST(COALESCE(b.mx, 0) AS BIGINT) AS top_bigram_count,
                   CAST(GREATEST(u.n - 1, 0) AS BIGINT) AS n_bigrams
            FROM uni u LEFT JOIN bgm b USING (doc_id)
        """,
        "warc_extract": """
            SELECT doc_id, text AS text_content FROM documents
        """,
        "top_orders_by_segment": """
            SELECT c_mktsegment, o_totalprice, o_orderkey, rank FROM (
                SELECT c_mktsegment, o_totalprice, o_orderkey,
                       ROW_NUMBER() OVER (
                           PARTITION BY c_mktsegment
                           ORDER BY o_totalprice DESC, o_orderkey
                       ) AS rank
                FROM orders JOIN customer ON o_custkey = c_custkey
            ) WHERE rank <= 5
        """,
        "chunk_documents": """
            WITH base AS (
                SELECT doc_id, string_split(trim(text), ' ') AS a
                FROM documents
            )
            SELECT doc_id,
                   CAST((i - 1) / 24 AS BIGINT) AS chunk_id,
                   array_to_string(a[i:least(i + 31, len(a))], ' ') AS chunk
            FROM base,
                 UNNEST(generate_series(1, greatest(len(a), 1), 24)) AS t(i)
        """,
        "dup_clusters": """
            WITH RECURSIVE base AS (
                SELECT doc_id, string_split(trim(text), ' ') AS a
                FROM documents
            ),
            w AS (
                SELECT DISTINCT doc_id,
                       array_to_string(a[i:i+7], ' ') AS win
                FROM base,
                     UNNEST(generate_series(1, len(a) - 7)) AS t(i)
            ),
            edges AS (
                SELECT DISTINCT x.doc_id AS u, y.doc_id AS v
                FROM w x JOIN w y USING (win)
                WHERE x.doc_id <> y.doc_id
            ),
            reach(node, anc) AS (
                SELECT u, u FROM edges
                UNION
                SELECT r.node, e.v FROM reach r JOIN edges e ON r.anc = e.u
            )
            SELECT node AS doc_id, MIN(anc) AS cluster_id
            FROM reach GROUP BY node
        """,
        "dup_clusters_lp": """
            WITH RECURSIVE base AS (
                SELECT doc_id, string_split(trim(text), ' ') AS a
                FROM documents
            ),
            w AS (
                SELECT DISTINCT doc_id,
                       array_to_string(a[i:i+7], ' ') AS win
                FROM base,
                     UNNEST(generate_series(1, len(a) - 7)) AS t(i)
            ),
            edges AS (
                SELECT DISTINCT x.doc_id AS u, y.doc_id AS v
                FROM w x JOIN w y USING (win)
                WHERE x.doc_id <> y.doc_id
            ),
            reach(node, anc) AS (
                SELECT u, u FROM edges
                UNION
                SELECT r.node, e.v FROM reach r JOIN edges e ON r.anc = e.u
            )
            SELECT node AS doc_id, MIN(anc) AS cluster_id
            FROM reach GROUP BY node
        """,
        "ann_ivf": """
            WITH q AS (SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS qe
                       FROM embeddings WHERE vec_id < 5)
            SELECT query_id, vec_id, rank FROM (
                SELECT q.query_id, e.vec_id,
                       ROW_NUMBER() OVER (
                           PARTITION BY q.query_id
                           ORDER BY list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])) DESC,
                                    e.vec_id ASC
                       ) AS rank
                FROM q CROSS JOIN embeddings e
            ) WHERE rank <= 10
        """,
        "incremental_dedup": """
            -- wave-2 survivors: the corpus has no cross-half
            -- full-content dups, so exactly the second-half ids pass
            -- and every replayed (re-keyed) wave-1 copy drops
            SELECT doc_id FROM documents
            WHERE doc_id >= (SELECT COUNT(*) // 2 FROM documents)
        """,
        "pack_sequences": r"""
            WITH RECURSIVE d AS (
                SELECT doc_id, doc_id // 100 AS shard,
                       len(string_split_regex(trim(text), '\s+')) AS tok,
                       ROW_NUMBER() OVER (
                           PARTITION BY doc_id // 100 ORDER BY doc_id
                       ) AS rn
                FROM documents
            ),
            g AS (
                SELECT shard, rn, doc_id, tok,
                       doc_id AS pack_id, tok AS acc
                FROM d WHERE rn = 1
                UNION ALL
                SELECT d.shard, d.rn, d.doc_id, d.tok,
                       CASE WHEN g.acc + d.tok > 1024
                            THEN d.doc_id ELSE g.pack_id END,
                       CASE WHEN g.acc + d.tok > 1024
                            THEN d.tok ELSE g.acc + d.tok END
                FROM g JOIN d ON d.shard = g.shard AND d.rn = g.rn + 1
            )
            SELECT pack_id,
                   CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(SUM(tok) AS BIGINT) AS n_tokens
            FROM g GROUP BY pack_id
        """,
        # gopher_gate: replay the integer rule cascade — two-level
        # (doc, tok) grouping, then the fixed-order CASE; every
        # comparison is cross-multiplied integers, no float thresholds.
        "gopher_gate": """
            WITH base AS (
                SELECT doc_id, string_split(trim(text), ' ') AS a
                FROM documents
            ),
            toks AS (
                SELECT doc_id, a[i] AS tok
                FROM base, UNNEST(generate_series(1, len(a))) AS t(i)
            ),
            pt AS (
                SELECT doc_id, tok, CAST(count(*) AS BIGINT) AS c
                FROM toks GROUP BY doc_id, tok
            ),
            per AS (
                SELECT doc_id,
                       SUM(c) AS n,
                       SUM(length(tok) * c) AS sum_len,
                       COALESCE(SUM(c) FILTER (
                           regexp_matches(tok, '[a-zA-Z]')), 0) AS n_alpha,
                       CAST(count(*) FILTER (tok IN
                           ('a','and','be','have','in','of','that',
                            'the','to','with')) AS BIGINT) AS n_stop,
                       MAX(c) AS max_cnt
                FROM pt GROUP BY doc_id
            )
            SELECT doc_id, CAST(n AS BIGINT) AS n_words,
                   CASE
                     WHEN n < 50 OR n > 100000 THEN 'word_count'
                     WHEN sum_len < 3 * n OR sum_len > 10 * n
                          THEN 'mean_word_length'
                     WHEN 5 * n_alpha < 4 * n THEN 'alpha_words'
                     WHEN n_stop < 2 THEN 'stopwords'
                     WHEN 5 * max_cnt > n THEN 'repetition'
                     ELSE 'pass'
                   END AS verdict
            FROM per ORDER BY doc_id
        """,
        # dsir_select: identical md5 bucket hash, identical single-
        # expression ln (libm both sides) floored to integer microunits,
        # order-independent integer doc scores, same (score DESC, doc_id)
        # top-100 cut.
        "dsir_select": """
            WITH base AS (
                SELECT doc_id, lang, string_split(trim(text), ' ') AS a
                FROM documents
            ),
            toks AS (
                SELECT doc_id, lang,
                       CAST('0x' || substr(md5(a[i]), 1, 15) AS BIGINT)
                           % 256 AS bucket
                FROM base, UNNEST(generate_series(1, len(a))) AS t(i)
            ),
            cr AS (
                SELECT bucket, CAST(count(*) AS BIGINT) AS c
                FROM toks GROUP BY bucket
            ),
            ct AS (
                SELECT bucket, CAST(count(*) AS BIGINT) AS c
                FROM toks WHERE lang = 'en' GROUP BY bucket
            ),
            nr AS (SELECT CAST(count(*) AS BIGINT) AS n FROM toks),
            nt AS (SELECT CAST(count(*) AS BIGINT) AS n
                   FROM toks WHERE lang = 'en'),
            w AS (
                SELECT cr.bucket,
                       CAST(FLOOR(1000000.0 * ln(
                           CAST(COALESCE(ct.c, 0) + 1 AS DOUBLE)
                           * CAST(nr.n + 256 AS DOUBLE)
                           / (CAST(cr.c + 1 AS DOUBLE)
                              * CAST(nt.n + 256 AS DOUBLE))
                       )) AS BIGINT) AS w
                FROM cr LEFT JOIN ct USING (bucket), nr, nt
            ),
            db AS (
                SELECT doc_id, bucket, CAST(count(*) AS BIGINT) AS c
                FROM toks GROUP BY doc_id, bucket
            )
            SELECT db.doc_id,
                   CAST(SUM(db.c * w.w) AS BIGINT) AS score
            FROM db JOIN w USING (bucket)
            GROUP BY db.doc_id
            ORDER BY score DESC, db.doc_id
            LIMIT 100
        """,
        # sitemap_gate: the URL/lastmod arithmetic and the RFC 9309
        # longest-prefix gate replayed directly off doc_id — the engine
        # side must survive the XML writer→parser round trip to match.
        "sitemap_gate": """
            WITH u AS (
                SELECT 'ex' || CAST(doc_id % 7 AS VARCHAR) || '.org'
                           AS host,
                       'https://ex' || CAST(doc_id % 7 AS VARCHAR)
                           || '.org/doc/' || CAST(doc_id AS VARCHAR)
                           AS url,
                       printf('2024-%02d-%02d',
                              1 + (doc_id % 12),
                              1 + (doc_id % 28)) AS lastmod,
                       '/doc/' || CAST(doc_id AS VARCHAR) AS path
                FROM documents
            )
            SELECT host, url, lastmod FROM u
            WHERE (CASE WHEN path LIKE '/doc/12%' THEN TRUE
                        WHEN path LIKE '/doc/1%' THEN FALSE
                        ELSE TRUE END)
              AND lastmod >= '2024-07-01'
            ORDER BY url
        """,
        # crawl_budget_chain: sitemap gate CTE -> per-host counts (100
        # cents/url, mirroring the engine's unit weights) -> Hamilton
        # replay (base + largest remainders), END-TO-END one statement.
        "crawl_budget_chain": """
            WITH u AS (
                SELECT 'ex' || CAST(doc_id % 7 AS VARCHAR) || '.org'
                           AS host,
                       printf('2024-%02d-%02d',
                              1 + (doc_id % 12),
                              1 + (doc_id % 28)) AS lastmod,
                       '/doc/' || CAST(doc_id AS VARCHAR) AS path
                FROM documents
            ), kept AS (
                SELECT host FROM u
                WHERE (CASE WHEN path LIKE '/doc/12%' THEN TRUE
                            WHEN path LIKE '/doc/1%' THEN FALSE
                            ELSE TRUE END)
                  AND lastmod >= '2024-07-01'
            ), w AS (
                SELECT host,
                       CAST(count(*) * 100 AS BIGINT) AS weight_cents
                FROM kept GROUP BY host
            ), t AS (
                SELECT SUM(weight_cents) AS tw, 1000 AS units FROM w
            ), b AS (
                SELECT host, weight_cents,
                       units * weight_cents // tw AS base,
                       units * weight_cents % tw AS rem
                FROM w, t
            ), r AS (
                SELECT *, ROW_NUMBER() OVER (ORDER BY rem DESC, host)
                           AS rk,
                       (SELECT units FROM t) - SUM(base) OVER ()
                           AS leftover
                FROM b
            )
            SELECT host, CAST(weight_cents AS BIGINT) AS weight_cents,
                   CAST(base + CASE WHEN rk <= leftover THEN 1 ELSE 0
                        END AS BIGINT) AS alloc
            FROM r ORDER BY host
        """,
        # bitext_mine: both mining directions replayed as ROW_NUMBER
        # over list_cosine_similarity; floats never reach the output.
        "bitext_mine": """
            WITH a AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e
                       FROM embeddings WHERE label = 0),
            b AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e
                  FROM embeddings WHERE label = 1),
            ab AS (
                SELECT a.vec_id AS src, b.vec_id AS tgt,
                       ROW_NUMBER() OVER (PARTITION BY a.vec_id
                           ORDER BY list_cosine_similarity(a.e, b.e)
                                    DESC, b.vec_id) AS rn
                FROM a CROSS JOIN b
            ),
            top AS (
                SELECT src,
                       MAX(tgt) FILTER (rn = 1) AS best_tgt,
                       MAX(tgt) FILTER (rn = 2) AS second_tgt
                FROM ab WHERE rn <= 2 GROUP BY src
            ),
            ba AS (
                SELECT tgt, src AS best_src FROM (
                    SELECT b.vec_id AS tgt, a.vec_id AS src,
                           ROW_NUMBER() OVER (PARTITION BY b.vec_id
                               ORDER BY list_cosine_similarity(a.e, b.e)
                                        DESC, a.vec_id) AS rn
                    FROM a CROSS JOIN b
                ) WHERE rn = 1
            )
            SELECT top.src AS src_id, top.best_tgt, top.second_tgt,
                   (ba.best_src = top.src) AS mutual
            FROM top JOIN ba ON ba.tgt = top.best_tgt
            ORDER BY src_id
        """,
        # balanced_interleave: per-lang md5 rank then (rank, lang)
        # global order — exactly the engine's two composed-key ranks.
        "balanced_interleave": """
            WITH l AS (
                SELECT doc_id, lang,
                       CAST('0x' || substr(md5('bi:' ||
                           CAST(doc_id AS VARCHAR)), 1, 9) AS BIGINT)
                           AS h
                FROM documents
            ),
            rl AS (
                SELECT doc_id, lang,
                       ROW_NUMBER() OVER (PARTITION BY lang
                           ORDER BY h, doc_id) AS ril
                FROM l
            )
            SELECT doc_id, lang,
                   CAST(ROW_NUMBER() OVER (ORDER BY ril, lang)
                        AS BIGINT) AS pos
            FROM rl
        """,
        # epoch_shuffle: ROW_NUMBER over the identical composed key
        # (36 md5 bits << 27 | id). substr start is 1-based; 9 hex
        # digits = 36 bits, exactly the engine's hexdigest()[:9].
        "epoch_shuffle": """
            SELECT doc_id,
                   CAST(ROW_NUMBER() OVER (ORDER BY
                       CAST('0x' || substr(md5('ep1:' ||
                           CAST(doc_id AS VARCHAR)), 1, 9) AS BIGINT)
                       * 134217728 + doc_id) AS BIGINT) AS pos
            FROM documents
        """,
        # ngram_novelty: identical md5-int64 window keys; min-doc
        # ownership; occurrence-counted novelty; LEFT JOIN restores
        # sub-window docs as zeros.
        "ngram_novelty": """
            WITH base AS (
                SELECT doc_id, string_split(trim(text), ' ') AS a
                FROM documents
            ),
            w AS (
                SELECT doc_id,
                       CAST('0x' || substr(md5(
                           array_to_string(a[i:i+7], ' ')), 1, 15)
                           AS BIGINT) AS k
                FROM base, UNNEST(generate_series(1, len(a) - 7)) AS t(i)
            ),
            dw AS (
                SELECT k, doc_id, CAST(count(*) AS BIGINT) AS c
                FROM w GROUP BY k, doc_id
            ),
            fd AS (SELECT k, min(doc_id) AS first_doc FROM dw GROUP BY k),
            nv AS (
                SELECT dw.doc_id,
                       SUM(dw.c) AS n_win,
                       COALESCE(SUM(dw.c) FILTER (
                           dw.doc_id = fd.first_doc), 0) AS n_novel
                FROM dw JOIN fd USING (k) GROUP BY dw.doc_id
            )
            SELECT d.doc_id,
                   CAST(COALESCE(nv.n_win, 0) AS BIGINT) AS n_windows,
                   CAST(COALESCE(nv.n_novel, 0) AS BIGINT) AS n_novel
            FROM documents d LEFT JOIN nv USING (doc_id)
            ORDER BY d.doc_id
        """,
        # dsir_gopher_chain: full replay — gopher cascade filters the
        # corpus, DSIR weights are refit on the survivors (target =
        # surviving en docs), top-50 by (score DESC, doc_id), per-lang
        # rollup. Same md5 buckets / floored-ln integer weights.
        "dsir_gopher_chain": """
            WITH base AS (
                SELECT doc_id, lang, string_split(trim(text), ' ') AS a
                FROM documents
            ),
            toks0 AS (
                SELECT doc_id, a[i] AS tok
                FROM base, UNNEST(generate_series(1, len(a))) AS t(i)
            ),
            pt AS (
                SELECT doc_id, tok, CAST(count(*) AS BIGINT) AS c
                FROM toks0 GROUP BY doc_id, tok
            ),
            per AS (
                SELECT doc_id,
                       SUM(c) AS n,
                       SUM(length(tok) * c) AS sum_len,
                       COALESCE(SUM(c) FILTER (
                           regexp_matches(tok, '[a-zA-Z]')), 0) AS n_alpha,
                       CAST(count(*) FILTER (tok IN
                           ('a','and','be','have','in','of','that',
                            'the','to','with')) AS BIGINT) AS n_stop,
                       MAX(c) AS max_cnt
                FROM pt GROUP BY doc_id
            ),
            surv AS (
                SELECT b.doc_id, b.lang, b.a
                FROM base b JOIN per p USING (doc_id)
                WHERE NOT (p.n < 50 OR p.n > 100000)
                  AND NOT (p.sum_len < 3 * p.n OR p.sum_len > 10 * p.n)
                  AND NOT (5 * p.n_alpha < 4 * p.n)
                  AND NOT (p.n_stop < 2)
                  AND NOT (5 * p.max_cnt > p.n)
            ),
            toks AS (
                SELECT doc_id, lang,
                       CAST('0x' || substr(md5(a[i]), 1, 15) AS BIGINT)
                           % 256 AS bucket
                FROM surv, UNNEST(generate_series(1, len(a))) AS t(i)
            ),
            cr AS (
                SELECT bucket, CAST(count(*) AS BIGINT) AS c
                FROM toks GROUP BY bucket
            ),
            ct AS (
                SELECT bucket, CAST(count(*) AS BIGINT) AS c
                FROM toks WHERE lang = 'en' GROUP BY bucket
            ),
            nr AS (SELECT CAST(count(*) AS BIGINT) AS n FROM toks),
            nt AS (SELECT CAST(count(*) AS BIGINT) AS n
                   FROM toks WHERE lang = 'en'),
            w AS (
                SELECT cr.bucket,
                       CAST(FLOOR(1000000.0 * ln(
                           CAST(COALESCE(ct.c, 0) + 1 AS DOUBLE)
                           * CAST(nr.n + 256 AS DOUBLE)
                           / (CAST(cr.c + 1 AS DOUBLE)
                              * CAST(nt.n + 256 AS DOUBLE))
                       )) AS BIGINT) AS w
                FROM cr LEFT JOIN ct USING (bucket), nr, nt
            ),
            db AS (
                SELECT doc_id, lang, bucket, CAST(count(*) AS BIGINT) AS c
                FROM toks GROUP BY doc_id, lang, bucket
            ),
            sc AS (
                SELECT db.doc_id, db.lang,
                       CAST(SUM(db.c * w.w) AS BIGINT) AS score
                FROM db JOIN w USING (bucket)
                GROUP BY db.doc_id, db.lang
            ),
            top AS (
                SELECT * FROM sc ORDER BY score DESC, doc_id LIMIT 50
            )
            SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(SUM(score) AS BIGINT) AS sum_score
            FROM top GROUP BY lang ORDER BY lang
        """,
        "quality_gate": """
            WITH med AS (
                SELECT lang, quantile_disc(n_chars, 0.5) AS m
                FROM documents GROUP BY lang
            )
            SELECT d.lang, d.doc_id
            FROM documents d JOIN med USING (lang)
            WHERE d.n_chars > med.m
        """,
        "dup_passages": """
            WITH base AS (
                SELECT doc_id, string_split(trim(text), ' ') AS a
                FROM documents
            ),
            w AS (
                SELECT doc_id, array_to_string(a[i:i+7], ' ') AS win
                FROM base,
                     UNNEST(generate_series(1, len(a) - 7)) AS t(i)
            )
            SELECT win, COUNT(DISTINCT doc_id) AS n_docs
            FROM w GROUP BY win HAVING COUNT(DISTINCT doc_id) >= 2
        """,
        # line_dedup: replay the deterministic line planting (token
        # groups of 8 + doc_id%5) with list slicing, count each line
        # corpus-wide, drop lines with count >= 2, re-join survivors.
        "line_dedup": """
            WITH m AS (
                SELECT doc_id, 8 + doc_id % 5 AS g,
                       string_split(trim(text), ' ') AS a
                FROM documents
            ),
            lines AS (
                SELECT doc_id, i,
                       array_to_string(a[1 + i*g : (i+1)*g], ' ') AS line
                FROM m,
                     UNNEST(range(CAST((len(a) + g - 1) // g
                                       AS BIGINT))) AS t(i)
            ),
            cnt AS (SELECT line, count(*) AS c FROM lines GROUP BY line),
            marked AS (
                SELECT l.doc_id, l.i, l.line, (cnt.c >= 2) AS dup
                FROM lines l JOIN cnt USING (line)
            )
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(count(*) AS BIGINT) AS n_lines,
                   CAST(count(*) FILTER (WHERE dup) AS BIGINT)
                       AS n_removed,
                   coalesce(string_agg(line, chr(10) ORDER BY i)
                            FILTER (WHERE NOT dup), '') AS clean_text
            FROM marked GROUP BY doc_id ORDER BY doc_id
        """,
        # c4_line_gates: planted lines, >=3-word keep filter, >=5-line
        # doc flag, surviving lines re-joined in order.
        "c4_line_gates": """
            WITH m AS (
                SELECT doc_id, 8 + doc_id % 5 AS g,
                       string_split(trim(text), ' ') AS a
                FROM documents
            ),
            lines AS (
                SELECT doc_id, i,
                       array_to_string(a[1 + i*g : (i+1)*g], ' ') AS line
                FROM m,
                     UNNEST(range(CAST((len(a) + g - 1) // g
                                       AS BIGINT))) AS t(i)
            ),
            marked AS (
                SELECT doc_id, i, line,
                       (len(string_split(line, ' ')) >= 3) AS ok
                FROM lines
            )
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(count(*) AS BIGINT) AS n_lines,
                   CAST(count(*) FILTER (WHERE ok) AS BIGINT)
                       AS n_kept_lines,
                   CAST(CASE WHEN count(*) FILTER (WHERE ok) >= 5
                             THEN 1 ELSE 0 END AS BIGINT) AS kept,
                   coalesce(string_agg(line, chr(10) ORDER BY i)
                            FILTER (WHERE ok), '') AS clean_text
            FROM marked GROUP BY doc_id ORDER BY doc_id
        """,
        # intra_dedup: token-granularity lines, keep-first via a
        # (doc, line) windowed row_number, re-join in original order.
        "intra_dedup": """
            WITH lines AS (
                SELECT doc_id, i, list_extract(a, i + 1) AS line
                FROM (SELECT doc_id, string_split(trim(text), ' ') AS a
                      FROM documents),
                     UNNEST(range(CAST(len(a) AS BIGINT))) AS t(i)
            ),
            firsts AS (
                SELECT doc_id, i, line,
                       row_number() OVER (PARTITION BY doc_id, line
                                          ORDER BY i) AS rn
                FROM lines
            )
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(count(*) AS BIGINT) AS n_lines,
                   CAST(count(*) FILTER (WHERE rn > 1) AS BIGINT)
                       AS n_removed,
                   coalesce(string_agg(line, chr(10) ORDER BY i)
                            FILTER (WHERE rn = 1), '') AS clean_text
            FROM firsts GROUP BY doc_id ORDER BY doc_id
        """,
        # pretrain_mix_chain: line_dedup replay -> cleaned-token
        # recount -> UniMax window-cumsum water-fill (budget 380) ->
        # per-lang quota prefix -> recursive-CTE greedy 256-token
        # packing -> per-lang rollup.
        "pretrain_mix_chain": r"""
            WITH RECURSIVE m AS (
                SELECT doc_id, 8 + doc_id % 5 AS g,
                       string_split(trim(text), ' ') AS a
                FROM documents
            ),
            lines AS (
                SELECT doc_id, i,
                       array_to_string(a[1 + i*g : (i+1)*g], ' ') AS line
                FROM m,
                     UNNEST(range(CAST((len(a) + g - 1) // g
                                       AS BIGINT))) AS t(i)
            ),
            cnt AS (SELECT line, count(*) AS c FROM lines GROUP BY line),
            marked AS (
                SELECT l.doc_id, l.i, l.line, (cnt.c >= 2) AS dup
                FROM lines l JOIN cnt USING (line)
            ),
            per_doc AS (
                SELECT doc_id,
                       coalesce(string_agg(line, chr(10) ORDER BY i)
                                FILTER (WHERE NOT dup), '') AS clean_text
                FROM marked GROUP BY doc_id
            ),
            tok AS (
                SELECT p.doc_id, d.lang,
                       CAST(len(string_split_regex(trim(p.clean_text),
                                                   '\s+'))
                            AS BIGINT) AS tok
                FROM per_doc p JOIN documents d USING (doc_id)
                WHERE trim(p.clean_text) <> ''
            ),
            c2 AS (SELECT lang, CAST(count(*) AS BIGINT) AS n
                   FROM tok GROUP BY lang),
            ord AS (
                SELECT lang, n, n AS cap,
                       row_number() OVER (ORDER BY n, lang) AS i,
                       sum(n) OVER (ORDER BY n, lang
                                    ROWS UNBOUNDED PRECEDING) AS s,
                       count(*) OVER () AS k
                FROM c2
            ),
            flag AS (
                SELECT *, (cap * (k - i + 1) + (s - cap) <= 380) AS capped
                FROM ord
            ),
            agg AS (
                SELECT coalesce(sum(cap) FILTER (WHERE capped), 0) AS s_k,
                       count(*) FILTER (WHERE NOT capped) AS mm
                FROM flag
            ),
            quotas AS (
                SELECT f.lang,
                       CASE WHEN f.capped THEN f.cap
                            ELSE (380 - a2.s_k) // a2.mm
                                 + CASE WHEN row_number() OVER (
                                            PARTITION BY f.capped
                                            ORDER BY f.lang)
                                        <= (380 - a2.s_k) % a2.mm
                                        THEN 1 ELSE 0 END
                       END AS quota
                FROM flag f, agg a2
            ),
            sel AS (
                SELECT t.lang, t.doc_id, t.tok,
                       row_number() OVER (PARTITION BY t.lang
                                          ORDER BY t.doc_id) AS rn
                FROM tok t
            ),
            kept AS (
                SELECT s.lang, s.doc_id, s.tok, s.rn
                FROM sel s JOIN quotas q USING (lang)
                WHERE s.rn <= q.quota
            ),
            gseq AS (
                SELECT lang, rn, doc_id, tok,
                       doc_id AS pack_id, tok AS acc
                FROM kept WHERE rn = 1
                UNION ALL
                SELECT k.lang, k.rn, k.doc_id, k.tok,
                       CASE WHEN g.acc + k.tok > 256
                            THEN k.doc_id ELSE g.pack_id END,
                       CASE WHEN g.acc + k.tok > 256
                            THEN k.tok ELSE g.acc + k.tok END
                FROM gseq g JOIN kept k
                     ON k.lang = g.lang AND k.rn = g.rn + 1
            )
            SELECT q.lang,
                   CAST(coalesce(count(g2.doc_id), 0) AS BIGINT)
                       AS n_docs,
                   CAST(coalesce(count(DISTINCT g2.pack_id), 0)
                        AS BIGINT) AS n_seqs,
                   CAST(coalesce(sum(g2.tok), 0) AS BIGINT) AS n_tokens
            FROM quotas q LEFT JOIN gseq g2 USING (lang)
            GROUP BY q.lang ORDER BY q.lang
        """,
        # char_entropy: per-character counts via indexed unnest, then
        # the identical floored nano-nat expression, integer-summed.
        "char_entropy": """
            WITH ch AS (
                SELECT doc_id, length(text) AS n,
                       unnest(list_transform(
                           generate_series(1, length(text)),
                           i -> text[i])) AS c
                FROM documents
            ),
            cc AS (SELECT doc_id, any_value(n) AS n, c, count(*) AS cnt
                   FROM ch GROUP BY doc_id, c),
            per AS (
                SELECT doc_id,
                       CAST(any_value(n) AS BIGINT) AS n_chars,
                       CAST(count(*) AS BIGINT) AS n_distinct,
                       CAST(sum(CAST(floor(1000000000.0 *
                            ((CAST(cnt AS DOUBLE) / CAST(n AS DOUBLE))
                             * ln(CAST(n AS DOUBLE)
                                  / CAST(cnt AS DOUBLE))))
                            AS BIGINT)) AS BIGINT) AS entropy_nano
                FROM cc GROUP BY doc_id
            )
            SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
                   coalesce(p.n_chars, 0) AS n_chars,
                   coalesce(p.n_distinct, 0) AS n_distinct,
                   coalesce(p.entropy_nano, 0) AS entropy_nano
            FROM documents d LEFT JOIN per p USING (doc_id)
            ORDER BY doc_id
        """,
        # c4_clean_chain: the full line-hygiene chain in one statement —
        # line_dedup replay + the 2*removed <= lines keep gate + source
        # rollup (clean chars counted over kept docs only).
        "c4_clean_chain": """
            WITH m AS (
                SELECT doc_id, 8 + doc_id % 5 AS g,
                       string_split(trim(text), ' ') AS a
                FROM documents
            ),
            lines AS (
                SELECT doc_id, i,
                       array_to_string(a[1 + i*g : (i+1)*g], ' ') AS line
                FROM m,
                     UNNEST(range(CAST((len(a) + g - 1) // g
                                       AS BIGINT))) AS t(i)
            ),
            cnt AS (SELECT line, count(*) AS c FROM lines GROUP BY line),
            marked AS (
                SELECT l.doc_id, l.line, (cnt.c >= 2) AS dup
                FROM lines l JOIN cnt USING (line)
            ),
            per_doc AS (
                SELECT doc_id,
                       count(*) AS n_lines,
                       count(*) FILTER (WHERE dup) AS n_removed,
                       coalesce(sum(length(line) + 1)
                                FILTER (WHERE NOT dup), 0)
                           - CASE WHEN count(*) FILTER (WHERE NOT dup)
                                       > 0 THEN 1 ELSE 0 END
                           AS clean_chars
                FROM marked GROUP BY doc_id
            )
            SELECT d.source,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(CASE WHEN 2 * p.n_removed <= p.n_lines
                                 THEN 1 ELSE 0 END) AS BIGINT) AS n_kept,
                   CAST(sum(p.n_removed) AS BIGINT) AS lines_removed,
                   CAST(sum(CASE WHEN 2 * p.n_removed <= p.n_lines
                                 THEN p.clean_chars ELSE 0 END)
                        AS BIGINT) AS clean_chars
            FROM per_doc p JOIN documents d USING (doc_id)
            GROUP BY d.source ORDER BY d.source
        """,
        # lm_perplexity: replay the bigram LM's training counts off the
        # same held-in slice and re-derive each doc's integer sufficient
        # statistics; docs with < 2 tokens drop out of both sides.
        # padding_plan: identical composed sort key, batch = rank//32,
        # per-batch integer rollup.
        "padding_plan": """
            WITH l AS (
                SELECT doc_id,
                       CAST(len(string_split(trim(text), ' '))
                            AS BIGINT) AS n
                FROM documents
            ),
            r AS (
                SELECT n, ROW_NUMBER() OVER (ORDER BY
                           n * 8589934592 + doc_id) AS rn
                FROM l
            )
            SELECT CAST((rn - 1) // 32 AS BIGINT) AS batch_id,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(MAX(n) AS BIGINT) AS max_len,
                   CAST(count(*) * MAX(n) - SUM(n) AS BIGINT)
                       AS padding_waste
            FROM r GROUP BY 1 ORDER BY 1
        """,
        # curriculum_chain: the lm_perplexity stat replay extended by
        # the integer difficulty, ROW_NUMBER easy-first rank over the
        # identical composed key, and NTILE-by-arithmetic buckets.
        "curriculum_chain": """
            WITH held AS (
                SELECT string_split(trim(text), ' ') AS a
                FROM documents WHERE doc_id % 10 = 0 AND doc_id < 25000
            ),
            tr_h AS (
                SELECT a[i] AS w1, a[i+1] AS w2
                FROM held, UNNEST(generate_series(1, len(a) - 1)) AS t(i)
            ),
            c2 AS (SELECT w1, w2, COUNT(*) AS c FROM tr_h GROUP BY w1, w2),
            alld AS (
                SELECT doc_id, string_split(trim(text), ' ') AS a
                FROM documents
            ),
            tr AS (
                SELECT doc_id, a[i] AS w1, a[i+1] AS w2
                FROM alld, UNNEST(generate_series(1, len(a) - 1)) AS t(i)
            ),
            j AS (
                SELECT tr.doc_id, COALESCE(c2.c, 0) AS cc2
                FROM tr LEFT JOIN c2 ON tr.w1 = c2.w1 AND tr.w2 = c2.w2
            ),
            stats AS (
                SELECT doc_id,
                       CAST(COUNT(*) AS BIGINT) AS n_trans,
                       CAST(SUM(CASE WHEN cc2 = 0 THEN 1 ELSE 0 END)
                            AS BIGINT) AS n_oov
                FROM j GROUP BY doc_id
            ),
            k AS (
                SELECT doc_id,
                       (n_oov * 1000000 // (n_trans + 1)) AS score
                FROM stats
            ),
            r AS (
                SELECT doc_id,
                       ROW_NUMBER() OVER (ORDER BY
                           score * 8589934592 + doc_id) AS pos,
                       COUNT(*) OVER () AS n
                FROM k
            )
            SELECT doc_id, CAST(pos AS BIGINT) AS pos,
                   CAST((pos - 1) * 8 // n + 1 AS BIGINT) AS bucket
            FROM r
        """,
        "lm_perplexity": """
            WITH held AS (
                SELECT string_split(trim(text), ' ') AS a
                FROM documents WHERE doc_id % 10 = 0 AND doc_id < 25000
            ),
            tr_h AS (
                SELECT a[i] AS w1, a[i+1] AS w2
                FROM held, UNNEST(generate_series(1, len(a) - 1)) AS t(i)
            ),
            c2 AS (SELECT w1, w2, COUNT(*) AS c FROM tr_h GROUP BY w1, w2),
            c1 AS (SELECT w1, COUNT(*) AS c FROM tr_h GROUP BY w1),
            alld AS (
                SELECT doc_id, string_split(trim(text), ' ') AS a
                FROM documents
            ),
            tr AS (
                SELECT doc_id, a[i] AS w1, a[i+1] AS w2
                FROM alld, UNNEST(generate_series(1, len(a) - 1)) AS t(i)
            ),
            j AS (
                SELECT tr.doc_id,
                       COALESCE(c2.c, 0) AS cc2,
                       COALESCE(c1.c, 0) AS cc1
                FROM tr
                LEFT JOIN c2 ON tr.w1 = c2.w1 AND tr.w2 = c2.w2
                LEFT JOIN c1 ON tr.w1 = c1.w1
            )
            SELECT doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_trans,
                   CAST(SUM(cc2) AS BIGINT) AS sum_bigram_c,
                   CAST(SUM(cc1) AS BIGINT) AS sum_prefix_c,
                   CAST(SUM(CASE WHEN cc2 = 0 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_oov
            FROM j GROUP BY doc_id
        """,
        # lm_perplexity_by_lang: the per-language variant — counts keyed
        # by (lang, w1, w2); a doc's transitions join only its own
        # language's counts.
        "lm_perplexity_by_lang": """
            WITH held AS (
                SELECT lang, string_split(trim(text), ' ') AS a
                FROM documents WHERE doc_id % 10 = 0 AND doc_id < 25000
            ),
            tr_h AS (
                SELECT lang, a[i] AS w1, a[i+1] AS w2
                FROM held, UNNEST(generate_series(1, len(a) - 1)) AS t(i)
            ),
            c2 AS (SELECT lang, w1, w2, COUNT(*) AS c
                   FROM tr_h GROUP BY lang, w1, w2),
            c1 AS (SELECT lang, w1, COUNT(*) AS c FROM tr_h GROUP BY lang, w1),
            alld AS (
                SELECT doc_id, lang, string_split(trim(text), ' ') AS a
                FROM documents
            ),
            tr AS (
                SELECT doc_id, lang, a[i] AS w1, a[i+1] AS w2
                FROM alld, UNNEST(generate_series(1, len(a) - 1)) AS t(i)
            ),
            j AS (
                SELECT tr.doc_id, tr.lang,
                       COALESCE(c2.c, 0) AS cc2,
                       COALESCE(c1.c, 0) AS cc1
                FROM tr
                LEFT JOIN c2 ON tr.lang = c2.lang AND tr.w1 = c2.w1
                            AND tr.w2 = c2.w2
                LEFT JOIN c1 ON tr.lang = c1.lang AND tr.w1 = c1.w1
            )
            SELECT doc_id, lang,
                   CAST(COUNT(*) AS BIGINT) AS n_trans,
                   CAST(SUM(cc2) AS BIGINT) AS sum_bigram_c,
                   CAST(SUM(cc1) AS BIGINT) AS sum_prefix_c,
                   CAST(SUM(CASE WHEN cc2 = 0 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_oov
            FROM j GROUP BY doc_id, lang
        """,
        # lm_gate_chain: composed chain #4 — the per-lang LM stats, the
        # OOV-rate gate (4*n_oov <= n_trans), and the per-lang rollup in
        # one statement.
        "lm_gate_chain": """
            WITH held AS (
                SELECT lang, string_split(trim(text), ' ') AS a
                FROM documents WHERE doc_id % 10 = 0 AND doc_id < 25000
            ),
            tr_h AS (
                SELECT lang, a[i] AS w1, a[i+1] AS w2
                FROM held, UNNEST(generate_series(1, len(a) - 1)) AS t(i)
            ),
            c2 AS (SELECT lang, w1, w2, COUNT(*) AS c
                   FROM tr_h GROUP BY lang, w1, w2),
            alld AS (
                SELECT doc_id, lang, string_split(trim(text), ' ') AS a
                FROM documents
            ),
            tr AS (
                SELECT doc_id, lang, a[i] AS w1, a[i+1] AS w2
                FROM alld, UNNEST(generate_series(1, len(a) - 1)) AS t(i)
            ),
            stats AS (
                SELECT tr.doc_id, tr.lang,
                       COUNT(*) AS n_trans,
                       SUM(CASE WHEN COALESCE(c2.c, 0) = 0 THEN 1 ELSE 0 END)
                           AS n_oov
                FROM tr
                LEFT JOIN c2 ON tr.lang = c2.lang AND tr.w1 = c2.w1
                            AND tr.w2 = c2.w2
                GROUP BY tr.doc_id, tr.lang
            )
            SELECT lang,
                   CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(SUM(n_trans) AS BIGINT) AS total_trans,
                   CAST(SUM(n_oov) AS BIGINT) AS total_oov
            FROM stats WHERE 4 * n_oov <= n_trans
            GROUP BY lang
        """,
        # ccnet_buckets: replay the per-lang add-one bigram code lengths
        # as stamped int64 micro-nats (FLOOR(1e6*ln(float division)) —
        # the DSIR stamp discipline, bit-identical to the engine's libm
        # math.log), sum per doc, integer rank key, tercile by
        # row_number within lang. (_CCNET_CTES shared with
        # ccnet_keep_chain below — one definition, two consumers.)
        "ccnet_buckets": _CCNET_CTES + """
            SELECT doc_id, lang, n_trans, mbits,
                   CASE (3 * (rn - 1)) // nl
                       WHEN 0 THEN 'head'
                       WHEN 1 THEN 'middle'
                       ELSE 'tail' END AS bucket
            FROM r
        """,
        # ccnet_keep_chain: drop the tail tercile, roll up the kept
        # corpus per language.
        "ccnet_keep_chain": _CCNET_CTES + """
            , b AS (
                SELECT lang, n_trans, mbits,
                       CASE (3 * (rn - 1)) // nl
                           WHEN 0 THEN 'head'
                           WHEN 1 THEN 'middle'
                           ELSE 'tail' END AS bucket
                FROM r
            )
            SELECT lang,
                   CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(SUM(n_trans) AS BIGINT) AS total_trans,
                   CAST(SUM(mbits) AS BIGINT) AS total_mbits
            FROM b WHERE bucket <> 'tail' GROUP BY lang
        """,
        # source_crossent: every source's transition counts scored under
        # every source's add-one bigram model with the stamped micro-nat
        # discipline (FLOOR(1e6*ln(float division)), libm both sides).
        "source_crossent": """
            WITH alld AS (
                SELECT source, string_split(trim(text), ' ') AS a
                FROM documents
            ),
            tr AS (
                SELECT source, a[i] AS w1, a[i+1] AS w2
                FROM alld, UNNEST(generate_series(1, len(a) - 1)) AS t(i)
            ),
            tc AS (SELECT source AS dsrc, w1, w2,
                          CAST(count(*) AS BIGINT) AS cnt
                   FROM tr GROUP BY source, w1, w2),
            c2 AS (SELECT source AS msrc, w1, w2, COUNT(*) AS c
                   FROM tr GROUP BY source, w1, w2),
            c1 AS (SELECT source AS msrc, w1, COUNT(*) AS c
                   FROM tr GROUP BY source, w1),
            v AS (SELECT source AS msrc, COUNT(DISTINCT w1) + 1 AS vv
                  FROM tr GROUP BY source),
            x AS (
                SELECT tc.dsrc, v.msrc, tc.cnt,
                       COALESCE(c2.c, 0) AS cc2,
                       COALESCE(c1.c, 0) AS cc1,
                       v.vv
                FROM tc CROSS JOIN v
                LEFT JOIN c2 ON c2.msrc = v.msrc AND c2.w1 = tc.w1
                            AND c2.w2 = tc.w2
                LEFT JOIN c1 ON c1.msrc = v.msrc AND c1.w1 = tc.w1
            )
            SELECT dsrc AS data_source, msrc AS model_source,
                   CAST(SUM(cnt) AS BIGINT) AS n_trans,
                   CAST(SUM(cnt * CAST(FLOOR(1000000.0 * ln(
                       CAST(cc1 + vv AS DOUBLE)
                       / CAST(cc2 + 1 AS DOUBLE))) AS BIGINT))
                       AS BIGINT) AS mbits
            FROM x GROUP BY dsrc, msrc
        """,
        # hard_negatives: different-label top-3 by cosine, rank ties on
        # vec_id — the ann_topk compare shape with a label mask.
        "hard_negatives": """
            WITH q AS (
                SELECT vec_id AS query_id, label AS ql,
                       CAST(embedding AS DOUBLE[]) AS qe
                FROM embeddings WHERE vec_id < 20
            )
            SELECT query_id, vec_id, rank FROM (
                SELECT q.query_id, e.vec_id,
                       ROW_NUMBER() OVER (
                           PARTITION BY q.query_id
                           ORDER BY list_cosine_similarity(
                               q.qe, CAST(e.embedding AS DOUBLE[])) DESC,
                                    e.vec_id ASC
                       ) AS rank
                FROM q JOIN embeddings e ON e.label <> q.ql
            ) WHERE rank <= 3
        """,
        # zipf_fit: stamp ln(rank)/ln(count) as int64 milli-nats
        # (FLOOR(1000*ln(...)) — libm both sides), sum the OLS
        # ingredients as exact ints, closed-form slope rounded to 6.
        "zipf_fit": """
            WITH base AS (
                SELECT source, string_split(trim(text), ' ') AS a
                FROM documents
            ),
            tok AS (
                SELECT source, a[i] AS term
                FROM base, UNNEST(generate_series(1, len(a))) AS u(i)
            ),
            c AS (SELECT source, term, CAST(count(*) AS BIGINT) AS c
                  FROM tok GROUP BY source, term),
            r AS (
                SELECT source, c,
                       row_number() OVER (
                           PARTITION BY source
                           ORDER BY c DESC, term) AS rk
                FROM c
            ),
            st AS (
                SELECT source, c,
                       CAST(FLOOR(1000.0 * ln(CAST(rk AS DOUBLE)))
                            AS BIGINT) AS x,
                       CAST(FLOOR(1000.0 * ln(CAST(c AS DOUBLE)))
                            AS BIGINT) AS y
                FROM r
            ),
            s AS (
                SELECT source,
                       CAST(SUM(c) AS BIGINT) AS n_tokens,
                       CAST(COUNT(*) AS BIGINT) AS n_terms,
                       CAST(SUM(x) AS BIGINT) AS sx,
                       CAST(SUM(y) AS BIGINT) AS sy,
                       CAST(SUM(x * x) AS BIGINT) AS sxx,
                       CAST(SUM(x * y) AS BIGINT) AS sxy
                FROM st GROUP BY source
            )
            SELECT source, n_tokens, n_terms, sx, sy, sxx, sxy,
                   CASE WHEN n_terms < 2 THEN NULL ELSE round(
                       (CAST(n_terms AS DOUBLE) * CAST(sxy AS DOUBLE)
                        - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
                       / (CAST(n_terms AS DOUBLE) * CAST(sxx AS DOUBLE)
                          - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE)), 6)
                   END AS slope
            FROM s
        """,
        # substring_lcs: a shared token run of length L >= 8 appears as
        # exactly L-7 consecutive 8-token window matches on one
        # (pos_a - pos_b) diagonal; gaps-and-islands over the window-text
        # self-join reconstructs the exact max run — the same diagonal
        # math the engine runs off hashed window keys.
        "substring_lcs": """
            WITH base AS (
                SELECT doc_id, string_split(trim(text), ' ') AS a
                FROM documents
            ),
            w AS (
                SELECT doc_id, i AS pos, array_to_string(a[i:i+7], ' ') AS win
                FROM base,
                     UNNEST(generate_series(1, len(a) - 7)) AS t(i)
            ),
            m AS (
                SELECT x.doc_id AS doc_a, y.doc_id AS doc_b,
                       x.pos AS pa, y.pos AS pb
                FROM w x JOIN w y
                  ON x.win = y.win AND x.doc_id < y.doc_id
            ),
            isles AS (
                SELECT doc_a, doc_b, pa - pb AS diag,
                       pa - ROW_NUMBER() OVER (
                           PARTITION BY doc_a, doc_b, pa - pb
                           ORDER BY pa) AS isle
                FROM m
            ),
            runs AS (
                SELECT doc_a, doc_b, COUNT(*) AS m
                FROM isles GROUP BY doc_a, doc_b, diag, isle
            )
            SELECT doc_a, doc_b, CAST(MAX(m) + 7 AS BIGINT) AS lcs_tokens
            FROM runs GROUP BY doc_a, doc_b
        """,
        "curated_corpus": r"""
            WITH red AS (
                SELECT doc_id, source,
                       regexp_replace(regexp_replace(regexp_replace(text,
                           '[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}',
                           '<EMAIL>', 'g'),
                           '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b',
                           '<IP>', 'g'),
                           '\+?\d[\d \-()]{7,}\d', '<PHONE>', 'g') AS text
                FROM documents),
            q AS (
                SELECT doc_id, source, text FROM red
                WHERE len(list_distinct(string_split(trim(text), ' '))) * 2
                      >= len(string_split(trim(text), ' '))),
            eval AS (
                SELECT substr(text, 1, 120) AS snip
                FROM documents WHERE doc_id % 50 = 0 AND doc_id < 25000 AND text <> ''),
            clean AS (
                SELECT doc_id, source FROM q d
                WHERE NOT EXISTS (SELECT 1 FROM eval e
                                  WHERE contains(d.text, e.snip)))
            SELECT source, doc_id FROM (
                SELECT source, doc_id,
                       ROW_NUMBER() OVER (
                           PARTITION BY source ORDER BY doc_id) AS rn
                FROM clean) WHERE rn <= 10
        """,
        "asof_purchase": """
            WITH l AS (
                SELECT event_id AS click_event, user_id, ts
                FROM events WHERE event_type = 'click'
            ),
            r AS (
                SELECT event_id AS purchase_event, user_id AS r_uid,
                       ts AS r_ts
                FROM events WHERE event_type = 'purchase'
            )
            SELECT l.user_id, l.click_event, epoch_us(l.ts) AS click_us,
                   r.purchase_event, epoch_us(r.r_ts) AS purchase_us
            FROM l ASOF LEFT JOIN r
              ON l.user_id = r.r_uid AND l.ts >= r.r_ts
        """,
        "stratified_sample": """
            SELECT lang, doc_id FROM (
                SELECT lang, doc_id,
                       ROW_NUMBER() OVER (
                           PARTITION BY lang
                           ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id
                       ) AS rn
                FROM documents
            ) WHERE rn <= 20
        """,
        "window_agg": """
            SELECT event_type,
                   date_trunc('hour', ts) AS window_start,
                   ROUND(SUM(value), 2) AS sum_value,
                   CAST(COUNT(*) AS BIGINT) AS n_events
            FROM events GROUP BY event_type, date_trunc('hour', ts)
        """,
        "sliding_windows": """
            -- hopping 300s/60s windows: every event lands in 5 windows,
            -- window starts are epoch-aligned 60s multiples (the engine's
            -- floor-division convention, written out here explicitly)
            SELECT event_type,
                   make_timestamp(((epoch_us(ts) // 60000000) - k.k)
                                  * 60000000) AS window_start,
                   ROUND(SUM(value), 2) AS sum_value,
                   CAST(COUNT(*) AS BIGINT) AS n_events
            FROM events CROSS JOIN (SELECT unnest(range(5)) AS k) k
            GROUP BY 1, 2
        """,
        "events_next_hour": """
            SELECT l.event_id,
                   CAST((SELECT count(*) FROM events r
                         WHERE r.user_id = l.user_id AND r.ts > l.ts
                           AND r.ts <= l.ts + INTERVAL 3600 SECOND)
                        AS BIGINT) AS n_next_hour
            FROM events l
        """,
        "events_pivot": """
            SELECT user_id,
                   CAST(count(*) FILTER (event_type = 'click') AS BIGINT)
                       AS n_click,
                   CAST(count(*) FILTER (event_type = 'error') AS BIGINT)
                       AS n_error,
                   CAST(count(*) FILTER (event_type = 'purchase') AS BIGINT)
                       AS n_purchase,
                   CAST(count(*) FILTER (event_type = 'signup') AS BIGINT)
                       AS n_signup,
                   CAST(count(*) FILTER (event_type = 'view') AS BIGINT)
                       AS n_view
            FROM events GROUP BY user_id
        """,
        "distinct_users_exact": """
            SELECT event_type,
                   CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
            FROM events GROUP BY event_type
        """,
        "value_quantiles_exact": """
            SELECT lang, CAST(0.25 AS DOUBLE) AS q,
                   CAST(quantile_disc(n_chars, 0.25) AS DOUBLE) AS value
            FROM documents GROUP BY lang
            UNION ALL
            SELECT lang, CAST(0.5 AS DOUBLE) AS q,
                   CAST(quantile_disc(n_chars, 0.5) AS DOUBLE) AS value
            FROM documents GROUP BY lang
            UNION ALL
            SELECT lang, CAST(0.9 AS DOUBLE) AS q,
                   CAST(quantile_disc(n_chars, 0.9) AS DOUBLE) AS value
            FROM documents GROUP BY lang
        """,
        "jaccard_pairs": """
            -- distinct-bigram intersection/union sizes for prefix-blocked
            -- pairs; single-space tokenizer matches the engine exactly
            WITH toks AS (
                SELECT doc_id, string_split(trim(text), ' ') AS w
                FROM documents
            ), grams AS (
                SELECT doc_id,
                       array_to_string(w[1:8], ' ') AS pfx,
                       list_distinct(list_transform(
                           range(1, greatest(len(w) - 1, 0) + 1),
                           i -> w[i] || ' ' || w[i + 1])) AS g
                FROM toks
            )
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   CAST(len(list_intersect(a.g, b.g)) AS BIGINT) AS n_inter,
                   CAST(len(list_distinct(a.g || b.g)) AS BIGINT) AS n_union
            FROM grams a JOIN grams b
              ON a.pfx = b.pfx AND a.doc_id < b.doc_id
        """,
        "term_doc_freq": """
            WITH t AS (
                SELECT DISTINCT doc_id,
                       unnest(string_split(trim(text), ' ')) AS term
                FROM documents
            ), dfq AS (
                SELECT term, CAST(count(*) AS BIGINT) AS df
                FROM t WHERE term <> '' GROUP BY term
            ), cfq AS (
                SELECT term, CAST(count(*) AS BIGINT) AS cf
                FROM (SELECT unnest(string_split(trim(text), ' ')) AS term
                      FROM documents)
                WHERE term <> '' GROUP BY term
            )
            SELECT dfq.term, df, cf
            FROM dfq JOIN cfq USING (term)
            ORDER BY df DESC, term LIMIT 100
        """,
        # chi2_terms: replay the (label, term) distinct-doc contingency
        # counts and the exact float64 expression order the engine
        # uses: num = N*((ad-bc)*(ad-bc)); den = ((a+b)*(c+d)) *
        # ((a+c)*(b+d)); degenerate tables (term in every doc / label
        # covering the corpus) are defined as 0.
        "chi2_terms": """
            WITH tl AS (
                SELECT DISTINCT doc_id, lang AS label,
                       unnest(string_split(trim(text), ' ')) AS term
                FROM documents
            ),
            lt AS (
                SELECT label, term, CAST(count(*) AS BIGINT) AS a
                FROM tl WHERE term <> '' GROUP BY label, term
            ),
            nl AS (
                SELECT lang AS label, CAST(count(*) AS BIGINT) AS n_label
                FROM documents GROUP BY lang
            ),
            tot AS (SELECT CAST(count(*) AS BIGINT) AS n FROM documents),
            tt AS (
                SELECT term, CAST(sum(a) AS BIGINT) AS t
                FROM lt GROUP BY term
            ),
            scored AS (
                SELECT lt.label, lt.term,
                       lt.a AS df_in,
                       tt.t - lt.a AS df_out,
                       CASE WHEN tt.t = tot.n OR nl.n_label = tot.n
                            THEN 0.0
                            ELSE (CAST(tot.n AS DOUBLE) *
                                  ((CAST(lt.a AS DOUBLE) *
                                    CAST(tot.n - nl.n_label
                                         - (tt.t - lt.a) AS DOUBLE)
                                    - CAST(nl.n_label - lt.a AS DOUBLE) *
                                      CAST(tt.t - lt.a AS DOUBLE))
                                   *
                                   (CAST(lt.a AS DOUBLE) *
                                    CAST(tot.n - nl.n_label
                                         - (tt.t - lt.a) AS DOUBLE)
                                    - CAST(nl.n_label - lt.a AS DOUBLE) *
                                      CAST(tt.t - lt.a AS DOUBLE))))
                                 / ((CAST(lt.a + (nl.n_label - lt.a)
                                          AS DOUBLE) *
                                     CAST((tt.t - lt.a)
                                          + (tot.n - nl.n_label
                                             - (tt.t - lt.a)) AS DOUBLE))
                                    *
                                    (CAST(lt.a + (tt.t - lt.a) AS DOUBLE) *
                                     CAST((nl.n_label - lt.a)
                                          + (tot.n - nl.n_label
                                             - (tt.t - lt.a)) AS DOUBLE)))
                       END AS chi2
                FROM lt
                JOIN nl USING (label)
                JOIN tt USING (term), tot
            )
            SELECT label, term, df_in, df_out, chi2
            FROM scored
            QUALIFY row_number() OVER (
                PARTITION BY label ORDER BY chi2 DESC, term) <= 15
            ORDER BY label, chi2 DESC, term
        """,
        # term_burstiness: per-(term, doc) counts, per-term exact
        # (cf, sc2, df) sums, then the identical VMR float tree.
        "term_burstiness": """
            WITH td AS (
                SELECT term, doc_id, CAST(count(*) AS BIGINT) AS c
                FROM (SELECT doc_id,
                             unnest(string_split(trim(text), ' '))
                                 AS term
                      FROM documents)
                WHERE term <> '' GROUP BY term, doc_id
            ),
            tot AS (
                SELECT term,
                       CAST(sum(c) AS BIGINT) AS cf,
                       CAST(sum(c * c) AS BIGINT) AS sc2,
                       CAST(count(*) AS BIGINT) AS df
                FROM td GROUP BY term
            ),
            nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM documents)
            SELECT term, df, cf,
                   ((CAST(sc2 AS DOUBLE)
                     - (CAST(cf AS DOUBLE) * CAST(cf AS DOUBLE)) / n)
                    / n) / (CAST(cf AS DOUBLE) / n) AS vmr
            FROM tot, nn
            ORDER BY vmr DESC, term LIMIT 20
        """,
        # good_turing: (source, term) counts -> frequency-of-
        # frequencies -> the identical GT / Chao1 float expressions.
        "good_turing": """
            WITH st AS (
                SELECT source, term, CAST(count(*) AS BIGINT) AS c
                FROM (SELECT source,
                             unnest(string_split(trim(text), ' '))
                                 AS term
                      FROM documents)
                WHERE term <> '' GROUP BY source, term
            ),
            tot AS (
                SELECT source,
                       CAST(sum(c) AS BIGINT) AS n_tokens,
                       CAST(count(*) AS BIGINT) AS vocab,
                       CAST(count(*) FILTER (c = 1) AS BIGINT) AS f1,
                       CAST(count(*) FILTER (c = 2) AS BIGINT) AS f2
                FROM st GROUP BY source
            )
            SELECT source, n_tokens, vocab, f1, f2,
                   CASE WHEN n_tokens > 0
                        THEN CAST(f1 AS DOUBLE)
                             / CAST(n_tokens AS DOUBLE)
                        ELSE 0.0 END AS unseen_mass,
                   CASE WHEN f2 > 0
                        THEN CAST(vocab AS DOUBLE)
                             + (CAST(f1 AS DOUBLE) * CAST(f1 AS DOUBLE))
                               / (2.0 * CAST(f2 AS DOUBLE))
                        ELSE CAST(vocab AS DOUBLE)
                             + (CAST(f1 AS DOUBLE)
                                * (CAST(f1 AS DOUBLE) - 1.0)) / 2.0
                   END AS chao1
            FROM tot ORDER BY source
        """,
        # textrank_terms: distinct adjacent pairs -> sorted-vocab ids ->
        # symmetric edges -> the supplier_pagerank integer CTE stack
        # (five unrolled rounds) -> term join-back.
        "textrank_terms": """
            WITH toks AS (
                SELECT doc_id, string_split(trim(text), ' ') AS l
                FROM documents
            ),
            bi AS (
                SELECT DISTINCT list_extract(l, i) AS t1,
                                list_extract(l, i + 1) AS t2
                FROM toks,
                     unnest(generate_series(1, len(l) - 1)) AS s(i)
                WHERE list_extract(l, i) <> ''
                  AND list_extract(l, i + 1) <> ''
                  AND list_extract(l, i) <> list_extract(l, i + 1)
            ),
            vocab AS (
                SELECT term,
                       row_number() OVER (ORDER BY term) - 1 AS v
                FROM (SELECT t1 AS term FROM bi
                      UNION SELECT t2 FROM bi)
            ),
            e AS (
                SELECT va.v AS src, vb.v AS dst
                FROM bi JOIN vocab va ON va.term = bi.t1
                        JOIN vocab vb ON vb.term = bi.t2
                UNION
                SELECT vb.v, va.v
                FROM bi JOIN vocab va ON va.term = bi.t1
                        JOIN vocab vb ON vb.term = bi.t2
            ),
            nodes AS (SELECT v FROM vocab),
            od AS (
                SELECT src AS v, CAST(count(*) AS BIGINT) AS outdeg
                FROM e GROUP BY src
            ),
            r0 AS (
                SELECT v, CAST(1000000000000 AS BIGINT) AS r FROM nodes
            ),
            r1 AS (
                SELECT n.v,
                       CAST(150000000000
                            + (85 * COALESCE(s.infl, 0)) // 100
                            AS BIGINT) AS r
                FROM nodes n LEFT JOIN (
                    SELECT e.dst AS v,
                           CAST(SUM(p.r // od.outdeg) AS BIGINT) AS infl
                    FROM e JOIN r0 p ON p.v = e.src
                           JOIN od ON od.v = e.src
                    GROUP BY e.dst
                ) s ON s.v = n.v
            ),
            r2 AS (
                SELECT n.v,
                       CAST(150000000000
                            + (85 * COALESCE(s.infl, 0)) // 100
                            AS BIGINT) AS r
                FROM nodes n LEFT JOIN (
                    SELECT e.dst AS v,
                           CAST(SUM(p.r // od.outdeg) AS BIGINT) AS infl
                    FROM e JOIN r1 p ON p.v = e.src
                           JOIN od ON od.v = e.src
                    GROUP BY e.dst
                ) s ON s.v = n.v
            ),
            r3 AS (
                SELECT n.v,
                       CAST(150000000000
                            + (85 * COALESCE(s.infl, 0)) // 100
                            AS BIGINT) AS r
                FROM nodes n LEFT JOIN (
                    SELECT e.dst AS v,
                           CAST(SUM(p.r // od.outdeg) AS BIGINT) AS infl
                    FROM e JOIN r2 p ON p.v = e.src
                           JOIN od ON od.v = e.src
                    GROUP BY e.dst
                ) s ON s.v = n.v
            ),
            r4 AS (
                SELECT n.v,
                       CAST(150000000000
                            + (85 * COALESCE(s.infl, 0)) // 100
                            AS BIGINT) AS r
                FROM nodes n LEFT JOIN (
                    SELECT e.dst AS v,
                           CAST(SUM(p.r // od.outdeg) AS BIGINT) AS infl
                    FROM e JOIN r3 p ON p.v = e.src
                           JOIN od ON od.v = e.src
                    GROUP BY e.dst
                ) s ON s.v = n.v
            ),
            r5 AS (
                SELECT n.v,
                       CAST(150000000000
                            + (85 * COALESCE(s.infl, 0)) // 100
                            AS BIGINT) AS r
                FROM nodes n LEFT JOIN (
                    SELECT e.dst AS v,
                           CAST(SUM(p.r // od.outdeg) AS BIGINT) AS infl
                    FROM e JOIN r4 p ON p.v = e.src
                           JOIN od ON od.v = e.src
                    GROUP BY e.dst
                ) s ON s.v = n.v
            )
            SELECT vc.term, rr.r AS "rank",
                   COALESCE(od.outdeg, 0) AS outdeg
            FROM nodes n
            JOIN r5 rr ON rr.v = n.v
            LEFT JOIN od ON od.v = n.v
            JOIN vocab vc ON vc.v = n.v
            ORDER BY "rank" DESC, vc.term
        """,
        # log_odds_terms: side-split collection frequencies, totals off
        # the same count table, the identical ln/sqrt z expression,
        # both rank ends via ordered-limit subqueries; UNION emits a
        # term once when the two ends overlap (vocab <= 2*top_k).
        "log_odds_terms": """
            WITH tok AS (
                SELECT CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS is_t,
                       unnest(string_split(trim(text), ' ')) AS term
                FROM documents
            ),
            cnt AS (
                SELECT term,
                       CAST(sum(is_t) AS BIGINT) AS cf_target,
                       CAST(sum(1 - is_t) AS BIGINT) AS cf_rest
                FROM tok WHERE term <> '' GROUP BY term
            ),
            tot AS (SELECT CAST(sum(cf_target) AS BIGINT) AS n1,
                           CAST(sum(cf_rest) AS BIGINT) AS n2,
                           CAST(count(*) AS BIGINT) AS v
                    FROM cnt),
            sc AS (
                SELECT term, cf_target, cf_rest,
                       (ln((cf_target + 0.5)
                           / (n1 + 0.5 * v - cf_target - 0.5))
                        - ln((cf_rest + 0.5)
                             / (n2 + 0.5 * v - cf_rest - 0.5)))
                       / sqrt(1.0 / (cf_target + 0.5)
                              + 1.0 / (cf_rest + 0.5)) AS z
                FROM cnt, tot
            )
            SELECT * FROM (
                (SELECT term, cf_target, cf_rest, z FROM sc
                 ORDER BY z DESC, term LIMIT 15)
                UNION
                (SELECT term, cf_target, cf_rest, z FROM sc
                 ORDER BY z ASC, term LIMIT 15)
            ) ORDER BY z DESC, term
        """,
        # chi2_lid_chain: chi2_terms CTE stack -> top-15 vocab per
        # label -> per-(doc,label) distinct-vocab-hit counts (zero
        # rows kept via the cross join) -> argmax with label-asc ties
        # -> confusion counts against the true lang column.
        "chi2_lid_chain": """
            WITH tl AS (
                SELECT DISTINCT doc_id, lang AS label,
                       unnest(string_split(trim(text), ' ')) AS term
                FROM documents
            ),
            lt AS (
                SELECT label, term, CAST(count(*) AS BIGINT) AS a
                FROM tl WHERE term <> '' GROUP BY label, term
            ),
            nl AS (
                SELECT lang AS label, CAST(count(*) AS BIGINT) AS n_label
                FROM documents GROUP BY lang
            ),
            tot AS (SELECT CAST(count(*) AS BIGINT) AS n FROM documents),
            tt AS (
                SELECT term, CAST(sum(a) AS BIGINT) AS t
                FROM lt GROUP BY term
            ),
            scored AS (
                SELECT lt.label, lt.term,
                       CASE WHEN tt.t = tot.n OR nl.n_label = tot.n
                            THEN 0.0
                            ELSE (CAST(tot.n AS DOUBLE) *
                                  ((CAST(lt.a AS DOUBLE) *
                                    CAST(tot.n - nl.n_label
                                         - (tt.t - lt.a) AS DOUBLE)
                                    - CAST(nl.n_label - lt.a AS DOUBLE) *
                                      CAST(tt.t - lt.a AS DOUBLE))
                                   *
                                   (CAST(lt.a AS DOUBLE) *
                                    CAST(tot.n - nl.n_label
                                         - (tt.t - lt.a) AS DOUBLE)
                                    - CAST(nl.n_label - lt.a AS DOUBLE) *
                                      CAST(tt.t - lt.a AS DOUBLE))))
                                 / ((CAST(lt.a + (nl.n_label - lt.a)
                                          AS DOUBLE) *
                                     CAST((tt.t - lt.a)
                                          + (tot.n - nl.n_label
                                             - (tt.t - lt.a)) AS DOUBLE))
                                    *
                                    (CAST(lt.a + (tt.t - lt.a) AS DOUBLE) *
                                     CAST((nl.n_label - lt.a)
                                          + (tot.n - nl.n_label
                                             - (tt.t - lt.a)) AS DOUBLE)))
                       END AS chi2
                FROM lt
                JOIN nl USING (label)
                JOIN tt USING (term), tot
            ),
            vocab AS (
                SELECT label, term FROM scored
                QUALIFY row_number() OVER (
                    PARTITION BY label ORDER BY chi2 DESC, term) <= 15
            ),
            dt AS (SELECT DISTINCT doc_id, term FROM tl),
            sc AS (
                SELECT d.doc_id, v.label, count(DISTINCT v.term) AS s
                FROM dt d JOIN vocab v USING (term)
                GROUP BY d.doc_id, v.label
            ),
            allp AS (
                SELECT doc.doc_id, l.label, coalesce(sc.s, 0) AS s
                FROM documents doc
                CROSS JOIN (SELECT DISTINCT label FROM vocab) l
                LEFT JOIN sc ON sc.doc_id = doc.doc_id
                            AND sc.label = l.label
            ),
            pred AS (
                SELECT doc_id, label AS pred_label
                FROM allp
                QUALIFY row_number() OVER (
                    PARTITION BY doc_id ORDER BY s DESC, label) = 1
            )
            SELECT d.lang AS true_lang, p.pred_label,
                   CAST(count(*) AS BIGINT) AS n
            FROM pred p JOIN documents d USING (doc_id)
            GROUP BY d.lang, p.pred_label
            ORDER BY d.lang, p.pred_label
        """,
        "bigram_counts": """
            WITH toks AS (
                SELECT doc_id, string_split(trim(text), ' ') AS l
                FROM documents
            ), bi AS (
                SELECT unnest(list_transform(
                    generate_series(1, len(l) - 1),
                    i -> list_extract(l, i) || ' ' || list_extract(l, i + 1)
                )) AS bigram
                FROM toks
            )
            SELECT bigram, CAST(count(*) AS BIGINT) AS cnt
            FROM bi
            WHERE bigram NOT LIKE '% '
              AND bigram NOT LIKE ' %'
            GROUP BY bigram ORDER BY cnt DESC, bigram LIMIT 100
        """,
        "tfidf_terms": """
            -- same tokenizer, idf = ln(N/df); score rounded to 6 BEFORE
            -- ranking so near-ties break identically to the engine
            WITH t AS (
                SELECT doc_id, unnest(string_split(trim(text), ' ')) AS term
                FROM documents
            ), tf AS (
                SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf
                FROM t WHERE term <> '' GROUP BY doc_id, term
            ), df AS (
                SELECT term, CAST(count(*) AS BIGINT) AS df
                FROM tf GROUP BY term
            ), n AS (
                SELECT CAST(count(*) AS DOUBLE) AS nn FROM documents
            ), s AS (
                SELECT doc_id, tf.term, tf.tf, df.df,
                       round(tf.tf * ln(nn / df.df), 6) AS score
                FROM tf JOIN df USING (term) CROSS JOIN n
            ), rk AS (
                SELECT *, row_number() OVER (
                    PARTITION BY doc_id ORDER BY score DESC, term) AS rn
                FROM s
            )
            SELECT doc_id, term, tf, df, score FROM rk WHERE rn <= 3
        """,
        # unimax_mix: replay the integer water-fill with window cumsums
        # (key i capped iff cap_i*(K-i+1) + s_{i-1} <= budget, a prefix
        # property), split the remainder evenly with the integer
        # leftover going to the lexicographically first uncapped langs,
        # then keep each lang's quota lowest doc_ids.
        "unimax_mix": """
            WITH c AS (
                SELECT lang, CAST(count(*) AS BIGINT) AS n
                FROM documents GROUP BY lang
            ),
            ord AS (
                SELECT lang, n, n AS cap,
                       row_number() OVER (ORDER BY n, lang) AS i,
                       sum(n) OVER (ORDER BY n, lang
                                    ROWS UNBOUNDED PRECEDING) AS s,
                       count(*) OVER () AS k
                FROM c
            ),
            flag AS (
                SELECT *, (cap * (k - i + 1) + (s - cap) <= 400) AS capped
                FROM ord
            ),
            agg AS (
                SELECT coalesce(sum(cap) FILTER (WHERE capped), 0) AS s_k,
                       count(*) FILTER (WHERE NOT capped) AS m
                FROM flag
            ),
            quotas AS (
                SELECT f.lang, f.n, f.cap,
                       CASE WHEN f.capped THEN f.cap
                            ELSE (400 - a.s_k) // a.m
                                 + CASE WHEN row_number() OVER (
                                            PARTITION BY f.capped
                                            ORDER BY f.lang)
                                        <= (400 - a.s_k) % a.m
                                        THEN 1 ELSE 0 END
                       END AS quota
                FROM flag f, agg a
            ),
            kept AS (
                SELECT d.lang, d.doc_id
                FROM (SELECT lang, doc_id,
                             row_number() OVER (PARTITION BY lang
                                                ORDER BY doc_id) AS rn
                      FROM documents) d
                JOIN quotas q USING (lang)
                WHERE d.rn <= q.quota
            )
            SELECT q.lang,
                   q.n AS n_docs,
                   q.cap,
                   q.quota,
                   CAST(count(k.doc_id) AS BIGINT) AS n_kept,
                   CAST(coalesce(sum(k.doc_id), 0) AS BIGINT) AS id_sum
            FROM quotas q LEFT JOIN kept k USING (lang)
            GROUP BY q.lang, q.n, q.cap, q.quota
            ORDER BY q.lang
        """,
        "temperature_mix": """
            -- recompute the engine's data-dependent thresholds: libm
            -- power() both sides, no cross-source sum, lowercase hex
            WITH cnt AS (
                SELECT source, CAST(count(*) AS DOUBLE) AS n
                FROM documents GROUP BY source
            ), thr AS (
                SELECT source,
                       CASE WHEN least(1.0, 2.0 * power(n, -0.5)) >= 1.0
                            THEN 'g'
                            ELSE lower(lpad(to_hex(CAST(trunc(
                                least(1.0, 2.0 * power(n, -0.5))
                                * 4294967296.0) AS BIGINT)), 8, '0'))
                       END AS t
                FROM cnt
            )
            SELECT d.source, d.doc_id
            FROM documents d JOIN thr USING (source)
            WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 8) < t
        """,
        "zscore_tfidf_chain": """
            -- one statement = the whole engine chain: z-gate on the
            -- ROUNDED z, then TF-IDF with survivor-count N/survivor DF
            WITH agg AS (
                SELECT lang,
                       CAST(count(*) AS BIGINT) AS n,
                       CAST(sum(n_chars) AS BIGINT) AS s,
                       CAST(sum(n_chars * n_chars) AS BIGINT) AS ss
                FROM documents GROUP BY lang
            ), z AS (
                SELECT d.doc_id, d.text,
                       CASE WHEN (ss / CAST(n AS DOUBLE)
                                  - (s / CAST(n AS DOUBLE)) * (s / CAST(n AS DOUBLE))) > 0
                            THEN round(
                                (d.n_chars - s / CAST(n AS DOUBLE))
                                / sqrt(ss / CAST(n AS DOUBLE)
                                       - (s / CAST(n AS DOUBLE)) * (s / CAST(n AS DOUBLE))),
                                6)
                            ELSE NULL END AS zv
                FROM documents d JOIN agg USING (lang)
            ), surv AS (
                SELECT doc_id, text FROM z
                WHERE zv IS NOT NULL AND zv >= -1.0 AND zv <= 2.0
            ), t AS (
                SELECT doc_id, unnest(string_split(trim(text), ' ')) AS term
                FROM surv
            ), tf AS (
                SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf
                FROM t WHERE term <> '' GROUP BY doc_id, term
            ), df AS (
                SELECT term, CAST(count(*) AS BIGINT) AS df
                FROM tf GROUP BY term
            ), nn AS (
                SELECT CAST(count(*) AS DOUBLE) AS nv FROM surv
            ), s2 AS (
                SELECT doc_id, tf.term, tf.tf, df.df,
                       round(tf.tf * ln(nv / df.df), 6) AS score
                FROM tf JOIN df USING (term) CROSS JOIN nn
            ), rk AS (
                SELECT *, row_number() OVER (
                    PARTITION BY doc_id ORDER BY score DESC, term) AS rn
                FROM s2
            )
            SELECT doc_id, term, tf, df, score FROM rk WHERE rn <= 1
        """,
        "keys_union": """
            WITH u AS (
                SELECT c_custkey AS key, 1 AS src FROM customer
                UNION ALL
                SELECT s_suppkey AS key, 2 AS src FROM supplier
            )
            SELECT key, CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(count(DISTINCT src) AS BIGINT) AS n_sources
            FROM u GROUP BY key
        """,
        "customer_orders_full": """
            WITH c AS (
                SELECT c_custkey, c_mktsegment FROM customer
                WHERE c_custkey < 1000
            ), o AS (
                SELECT o_custkey, CAST(count(*) AS BIGINT) AS n_orders
                FROM orders WHERE o_custkey >= 500 GROUP BY o_custkey
            )
            SELECT c.c_custkey, c.c_mktsegment, o.o_custkey, o.n_orders
            FROM c FULL JOIN o ON c.c_custkey = o.o_custkey
        """,
        "length_token_corr": """
            -- mirrors corr_by's IEEE order: every exact int64 product is
            -- cast to DOUBLE before any subtraction
            WITH t AS (
                SELECT lang, n_chars,
                       CAST(length(string_split(trim(text), ' ')) AS BIGINT)
                           AS n_tokens
                FROM documents
            ), m AS (
                SELECT lang,
                       CAST(count(*) AS BIGINT) AS n,
                       CAST(sum(n_chars) AS BIGINT) AS sx,
                       CAST(sum(n_tokens) AS BIGINT) AS sy,
                       CAST(sum(n_chars * n_chars) AS BIGINT) AS sxx,
                       CAST(sum(n_tokens * n_tokens) AS BIGINT) AS syy,
                       CAST(sum(n_chars * n_tokens) AS BIGINT) AS sxy
                FROM t GROUP BY lang
            )
            SELECT lang, n,
                   CASE WHEN (CAST(n * sxx AS DOUBLE) - CAST(sx * sx AS DOUBLE)) > 0
                         AND (CAST(n * syy AS DOUBLE) - CAST(sy * sy AS DOUBLE)) > 0
                        THEN round(
                            (CAST(n * sxy AS DOUBLE) - CAST(sx * sy AS DOUBLE))
                            / (sqrt(CAST(n * sxx AS DOUBLE) - CAST(sx * sx AS DOUBLE))
                               * sqrt(CAST(n * syy AS DOUBLE) - CAST(sy * sy AS DOUBLE))),
                            6)
                        ELSE NULL END AS corr
            FROM m
        """,
        # length_trend: the OLS closed form in the engine's exact IEEE
        # order — each int64 product cast to DOUBLE before subtracting;
        # intercept uses the UNROUNDED slope; r2 = corr·corr.
        "length_trend": """
            WITH t AS (
                SELECT lang, n_chars,
                       CAST(length(string_split(trim(text), ' ')) AS BIGINT)
                           AS n_tokens
                FROM documents
            ), m AS (
                SELECT lang,
                       CAST(count(*) AS BIGINT) AS n,
                       CAST(sum(n_chars) AS BIGINT) AS sx,
                       CAST(sum(n_tokens) AS BIGINT) AS sy,
                       CAST(sum(n_chars * n_chars) AS BIGINT) AS sxx,
                       CAST(sum(n_tokens * n_tokens) AS BIGINT) AS syy,
                       CAST(sum(n_chars * n_tokens) AS BIGINT) AS sxy
                FROM t GROUP BY lang
            ), d AS (
                SELECT lang, n,
                       CAST(n * sxy AS DOUBLE) - CAST(sx * sy AS DOUBLE) AS num,
                       CAST(n * sxx AS DOUBLE) - CAST(sx * sx AS DOUBLE) AS vx,
                       CAST(n * syy AS DOUBLE) - CAST(sy * sy AS DOUBLE) AS vy,
                       CAST(sx AS DOUBLE) AS sxd,
                       CAST(sy AS DOUBLE) AS syd,
                       CAST(n AS DOUBLE) AS nd
                FROM m
            )
            SELECT lang, n,
                   CASE WHEN vx > 0 THEN round(num / vx, 6) END AS slope,
                   CASE WHEN vx > 0
                        THEN round((syd - (num / vx) * sxd) / nd, 6)
                   END AS intercept,
                   CASE WHEN vx > 0 AND vy > 0
                        THEN round((num / (sqrt(vx) * sqrt(vy)))
                                   * (num / (sqrt(vx) * sqrt(vy))), 6)
                   END AS r2
            FROM d
        """,
        "range_partition": """
            -- shard = strict-comparator bucket against percentile_disc
            -- quartiles, matching the engine's exact histogram quantiles
            WITH b AS (
                SELECT lang,
                       percentile_disc(0.25) WITHIN GROUP (ORDER BY n_chars) AS b1,
                       percentile_disc(0.50) WITHIN GROUP (ORDER BY n_chars) AS b2,
                       percentile_disc(0.75) WITHIN GROUP (ORDER BY n_chars) AS b3
                FROM documents GROUP BY lang
            )
            SELECT d.doc_id, d.lang, d.n_chars,
                   CAST((d.n_chars > b1) :: INT + (d.n_chars > b2) :: INT
                        + (d.n_chars > b3) :: INT AS BIGINT) AS shard
            FROM documents d JOIN b USING (lang)
        """,
        "late_events": """
            -- arrival order = md5(event_id): deterministic scramble both
            -- engines replay (the corpus itself arrives time-ordered)
            WITH w AS (
                SELECT user_id, event_id, ts,
                       MAX(ts) OVER (PARTITION BY user_id
                           ORDER BY md5(CAST(event_id AS VARCHAR)), event_id
                           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
                           AS wm
                FROM events
            )
            SELECT user_id, event_id,
                   CAST(epoch_us(wm) - epoch_us(ts) AS BIGINT) AS lateness_us
            FROM w
            WHERE wm IS NOT NULL
              AND epoch_us(wm) - epoch_us(ts) > CAST(3600000000 AS BIGINT)
        """,
        "frequent_terms": """
            -- capacity ≥ |vocab| ⇒ MG is exact with err = 0
            WITH t AS (
                SELECT unnest(string_split(trim(text), ' ')) AS term
                FROM documents
            )
            SELECT term, CAST(count(*) AS BIGINT) AS est,
                   CAST(0 AS BIGINT) AS err
            FROM t WHERE term <> ''
            GROUP BY term ORDER BY est DESC, term LIMIT 20
        """,
        "jsonl_roundtrip": """
            SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars
            FROM documents GROUP BY lang
        """,
        "orc_roundtrip": """
            SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars
            FROM documents GROUP BY lang
        """,
        "ipc_roundtrip": """
            SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars
            FROM documents GROUP BY lang
        """,
        "csv_roundtrip": """
            SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars
            FROM documents GROUP BY lang
        """,
        "quality_zscore": """
            -- identical expression tree to functions/standardize.py:
            -- mean = s/n, msq = ss/n, var = msq - mean^2, z = (x-mean)/sqrt(var)
            WITH agg AS (
                SELECT lang,
                       CAST(count(*) AS BIGINT) AS n,
                       CAST(sum(n_chars) AS BIGINT) AS s,
                       CAST(sum(n_chars * n_chars) AS BIGINT) AS ss
                FROM documents GROUP BY lang
            )
            SELECT d.doc_id, d.lang, d.n_chars,
                   CASE WHEN (ss / CAST(n AS DOUBLE)
                              - (s / CAST(n AS DOUBLE)) * (s / CAST(n AS DOUBLE))) > 0
                        THEN round(
                            (d.n_chars - s / CAST(n AS DOUBLE))
                            / sqrt(ss / CAST(n AS DOUBLE)
                                   - (s / CAST(n AS DOUBLE)) * (s / CAST(n AS DOUBLE))),
                            6)
                        ELSE NULL END AS z
            FROM documents d JOIN agg USING (lang)
        """,
        "docs_except": """
            WITH n AS (SELECT count(*) // 2 AS h FROM documents),
            pfx AS (
                SELECT doc_id,
                       array_to_string(string_split(trim(text), ' ')[1:5], ' ') AS pfx
                FROM documents
            ),
            l AS (SELECT doc_id, pfx FROM pfx, n WHERE doc_id >= h),
            r AS (SELECT pfx FROM pfx, n WHERE doc_id < h)
            SELECT CAST(min(doc_id) AS BIGINT) AS doc_id
            FROM l WHERE pfx NOT IN (SELECT pfx FROM r)
            GROUP BY pfx
        """,
        "docs_intersect": """
            WITH n AS (SELECT count(*) // 2 AS h FROM documents),
            pfx AS (
                SELECT doc_id,
                       array_to_string(string_split(trim(text), ' ')[1:5], ' ') AS pfx
                FROM documents
            ),
            l AS (SELECT doc_id, pfx FROM pfx, n WHERE doc_id >= h),
            r AS (SELECT pfx FROM pfx, n WHERE doc_id < h)
            SELECT CAST(min(doc_id) AS BIGINT) AS doc_id
            FROM l WHERE pfx IN (SELECT pfx FROM r)
            GROUP BY pfx
        """,
        "sessionize": """
            WITH marks AS (
              SELECT user_id, ts, value, event_id,
                     CASE WHEN LAG(ts) OVER w IS NULL
                               OR ts - LAG(ts) OVER w > INTERVAL 30 MINUTE
                          THEN 1 ELSE 0 END AS new_s
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ), nums AS (
              SELECT user_id, ts, value,
                     SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS UNBOUNDED PRECEDING) AS session_id
              FROM marks
            )
            SELECT user_id, CAST(session_id AS BIGINT) AS session_id,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   MIN(ts) AS t_start, MAX(ts) AS t_end,
                   ROUND(SUM(value), 2) AS total_value
            FROM nums GROUP BY user_id, session_id
        """,
        # media_pipeline: replay the BMP synthesis rule (dims + channel
        # values are pure functions of doc_id/n_chars), the nearest-neighbor
        # resize's integer index map ((j·w)//nw), and the exact pixel stats.
        # The red-channel ramp is re-summed per selected column via a lateral
        # generate_series — one wrong pixel anywhere flips the hash.
        "media_pipeline": """
            WITH p AS (
                SELECT doc_id,
                       150 + doc_id % 300 AS w,
                       80 + (doc_id * 3) % 200 AS h,
                       n_chars % 256 AS g,
                       (doc_id * 7 + 3) % 256 AS b
                FROM documents
            ), e AS (
                SELECT doc_id, w, h, g, b,
                       CASE WHEN greatest(w, h) <= 256 THEN w
                            ELSE greatest(1, (w * 256) // greatest(w, h)) END AS nw,
                       CASE WHEN greatest(w, h) <= 256 THEN h
                            ELSE greatest(1, (h * 256) // greatest(w, h)) END AS nh
                FROM p
            ), r AS (
                SELECT e.doc_id,
                       sum((e.doc_id + (s.j * e.w) // e.nw) % 256) AS rsum,
                       min((e.doc_id + (s.j * e.w) // e.nw) % 256) AS rmin,
                       max((e.doc_id + (s.j * e.w) // e.nw) % 256) AS rmax
                FROM e, unnest(generate_series(0, e.nw - 1)) AS s(j)
                GROUP BY e.doc_id
            )
            SELECT e.doc_id,
                   CAST(e.nw AS BIGINT) AS width,
                   CAST(e.nh AS BIGINT) AS height,
                   CAST(e.nw * e.nh * 3 AS BIGINT) AS n_px,
                   CAST(e.nh * r.rsum + e.nw * e.nh * (e.g + e.b) AS BIGINT)
                       AS px_sum,
                   CAST(least(r.rmin, e.g, e.b) AS BIGINT) AS px_min,
                   CAST(greatest(r.rmax, e.g, e.b) AS BIGINT) AS px_max
            FROM e JOIN r USING (doc_id)
        """,
        # audio_features: replay the per-sample int16 ramp with a lateral
        # generate_series and aggregate the exact integer features the WAV
        # decode stage must reproduce after a real RIFF round trip.
        "audio_features": """
            WITH p AS (
                SELECT doc_id, 50 + doc_id % 150 AS nf, doc_id % 7 + 1 AS k
                FROM documents
            ), s AS (
                SELECT p.doc_id,
                       max(abs((p.k * t.j) % 2001 - 1000)) AS peak_abs,
                       sum((p.k * t.j) % 2001 - 1000) AS sum_samples,
                       sum(((p.k * t.j) % 2001 - 1000)
                           * ((p.k * t.j) % 2001 - 1000)) AS sum_sq
                FROM p, unnest(generate_series(0, p.nf - 1)) AS t(j)
                GROUP BY p.doc_id
            )
            SELECT p.doc_id,
                   CAST(8000 AS BIGINT) AS framerate,
                   CAST(1 AS BIGINT) AS n_channels,
                   CAST(p.nf AS BIGINT) AS n_frames,
                   CAST(p.nf * 1000 // 8000 AS BIGINT) AS duration_ms,
                   CAST(s.peak_abs AS BIGINT) AS peak_abs,
                   CAST(s.sum_samples AS BIGINT) AS sum_samples,
                   CAST(s.sum_sq AS BIGINT) AS sum_sq
            FROM p JOIN s USING (doc_id)
        """,
        # audio_spectral: the tone is planted bin-aligned, so the oracle
        # replays the plant (bin k, frame-count formula) — no SQL FFT.
        "audio_spectral": """
            SELECT doc_id,
                   CAST(1 + (1024 + (doc_id % 7) * 128 - 256) // 128
                        AS BIGINT) AS n_frames,
                   CAST(8 + doc_id % 50 AS BIGINT) AS dominant_bin
            FROM documents
        """,
        # url_dedup: every messy variant normalizes to the planted
        # canonical form 'http://example<g>.com/Path<p>/'.
        "url_dedup": """
            WITH norm AS (
                SELECT doc_id,
                       'http://example' || CAST(doc_id % 50 AS VARCHAR)
                           || '.com/Path' || CAST(doc_id % 7 AS VARCHAR)
                           || '/' AS url_norm
                FROM documents
            )
            SELECT url_norm,
                   CAST(MIN(doc_id) AS BIGINT) AS keep_doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_dups
            FROM norm GROUP BY url_norm
        """,
        # audio_ann: same-band tones have bit-identical embeddings (exact
        # sim ties -> vec_id order); cross-band cosines < 1, so top-10 =
        # the query's band group ordered by id.
        "audio_ann": """
            WITH q AS (
                SELECT doc_id AS query_id, doc_id % 14 AS grp
                FROM documents WHERE doc_id < 5
            ),
            ranked AS (
                SELECT q.query_id, d.doc_id AS vec_id,
                       ROW_NUMBER() OVER (
                           PARTITION BY q.query_id ORDER BY d.doc_id
                       ) AS rank
                FROM q JOIN documents d ON d.doc_id % 14 = q.grp
            )
            SELECT query_id, vec_id, CAST(rank AS BIGINT) AS rank
            FROM ranked WHERE rank <= 10
        """,
        # featured_image: replay the deterministic sha256 HEAD-probe stub
        # (size = 1000 + first-4-bytes-of-sha256 % 200000) and the
        # Article.cs:171-220 rule (size STRICTLY > 75000, doc order,
        # first keeper is the featured image).
        "featured_image": """
            WITH refs AS (
                SELECT doc_id, t.j,
                       'img://' || CAST(doc_id AS VARCHAR) || '/'
                           || CAST(t.j AS VARCHAR) AS ref
                FROM documents, UNNEST(generate_series(0, 2)) AS t(j)
            ),
            sized AS (
                SELECT doc_id, j, ref,
                       1000 + CAST(CONCAT('0x', substr(sha256(ref), 1, 8))
                                   AS BIGINT) % 200000 AS sz
                FROM refs
            ),
            keep AS (
                SELECT doc_id, COUNT(*) AS n, arg_min(ref, j) AS first_ref,
                       SUM(sz) AS total
                FROM sized WHERE sz > 75000 GROUP BY doc_id
            )
            SELECT d.doc_id,
                   CAST(COALESCE(k.n, 0) AS BIGINT) AS n_images,
                   COALESCE(k.first_ref, '') AS featured_image,
                   CAST(COALESCE(k.total, 0) AS BIGINT) AS img_bytes
            FROM documents d LEFT JOIN keep k USING (doc_id)
        """,
        # supplier_pagerank: unrolled-CTE replay of the all-integer power
        # iteration — identical floor-div/damping arithmetic per round.
        "supplier_pagerank": _pagerank_oracle_sql(5),
        # scd2_history: set logic over the two snapshots — opened-at-1
        # rows close at 2 iff changed/removed; opened-at-2 rows are the
        # new/changed ones.
        "scd2_history": """
            WITH base AS (
                SELECT c_custkey, c_mktsegment,
                       CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT)
                           AS bal_cents
                FROM customer
            ), s1 AS (
                SELECT * FROM base WHERE c_custkey % 17 <> 16
            ), s2 AS (
                SELECT c_custkey, c_mktsegment,
                       bal_cents + CASE WHEN c_custkey % 10 = 0
                                        THEN 100 ELSE 0 END AS bal_cents
                FROM base WHERE c_custkey % 17 <> 0
            ), h1 AS (
                SELECT s1.c_custkey, s1.c_mktsegment, s1.bal_cents,
                       CAST(1 AS BIGINT) AS valid_from,
                       CASE WHEN s2.c_custkey IS NULL THEN 2
                            WHEN s2.bal_cents <> s1.bal_cents
                              OR s2.c_mktsegment <> s1.c_mktsegment
                            THEN 2 ELSE NULL END AS valid_to
                FROM s1 LEFT JOIN s2 ON s2.c_custkey = s1.c_custkey
            ), h2 AS (
                SELECT s2.c_custkey, s2.c_mktsegment, s2.bal_cents,
                       CAST(2 AS BIGINT) AS valid_from,
                       CAST(NULL AS BIGINT) AS valid_to
                FROM s2 LEFT JOIN s1 ON s1.c_custkey = s2.c_custkey
                WHERE s1.c_custkey IS NULL
                   OR s1.bal_cents <> s2.bal_cents
                   OR s1.c_mktsegment <> s2.c_mktsegment
            )
            SELECT c_custkey, c_mktsegment, bal_cents,
                   valid_from, CAST(valid_to AS BIGINT) AS valid_to
            FROM (SELECT * FROM h1 UNION ALL SELECT * FROM h2)
            ORDER BY c_custkey, valid_from
        """,
        # fd_histogram: the SAME IEEE expression tree — percentile_disc
        # quantiles, h = 2·IQR/power(n,1/3), nbins = ceil(span/h),
        # w = (lo + nbins·h − lo)/nbins, clamp(floor((v−lo)/w)).
        "fd_histogram": """
            WITH s AS (
                SELECT CAST(count(*) AS BIGINT) AS n,
                       min(CAST(value AS DOUBLE)) AS lo,
                       max(CAST(value AS DOUBLE)) AS hiv,
                       percentile_disc(0.25) WITHIN GROUP
                           (ORDER BY CAST(value AS DOUBLE)) AS q25,
                       percentile_disc(0.75) WITHIN GROUP
                           (ORDER BY CAST(value AS DOUBLE)) AS q75
                FROM events WHERE value IS NOT NULL
            ), p AS (
                SELECT n, lo, hiv,
                       2.0 * (q75 - q25)
                           / power(CAST(n AS DOUBLE), 1.0 / 3.0) AS h
                FROM s
            ), q AS (
                SELECT lo,
                       CAST(CEIL((hiv - lo) / h) AS BIGINT) AS nbins, h
                FROM p
            ), e AS (
                SELECT lo, nbins,
                       (lo + CAST(nbins AS DOUBLE) * h - lo)
                           / CAST(nbins AS DOUBLE) AS w
                FROM q
            ), assigned AS (
                SELECT least(greatest(CAST(FLOOR(
                           (CAST(v.value AS DOUBLE) - e.lo) / e.w)
                           AS BIGINT), 0), e.nbins - 1) AS bin,
                       e.lo AS lo, e.w AS w
                FROM events v CROSS JOIN e
                WHERE v.value IS NOT NULL
            )
            SELECT bin, lo + CAST(bin AS DOUBLE) * w AS bin_lo,
                   CAST(count(*) AS BIGINT) AS n
            FROM assigned GROUP BY bin, lo, w ORDER BY bin
        """,
        # debounce: lag() over (user, type), keep first-of-key or
        # gap > 60 s — integer microsecond comparison both sides.
        "debounce": """
            WITH l AS (
                SELECT event_type, value,
                       epoch_us(ts) - epoch_us(lag(ts) OVER (
                           PARTITION BY user_id, event_type
                           ORDER BY ts, event_id)) AS dt_us
                FROM events
            )
            SELECT event_type, CAST(count(*) AS BIGINT) AS n,
                   CAST(SUM(CAST(FLOOR(CAST(value AS DOUBLE) * 100
                                       + 0.5) AS BIGINT)) AS BIGINT)
                       AS value_cents
            FROM l WHERE dt_us IS NULL OR dt_us > 60000000
            GROUP BY event_type ORDER BY event_type
        """,
        # posting_lists: same single-space tokenization convention;
        # first-10 postings via row_number, df from the full set.
        "posting_lists": """
            WITH tok AS (
                SELECT DISTINCT doc_id, term FROM (
                    SELECT doc_id,
                           UNNEST(string_split(trim(text), ' ')) AS term
                    FROM documents
                ) WHERE term <> ''
            ), r AS (
                SELECT term, doc_id,
                       row_number() OVER (PARTITION BY term
                                          ORDER BY doc_id) AS rn
                FROM tok
            ), c AS (
                SELECT term, CAST(count(*) AS BIGINT) AS n_docs
                FROM tok GROUP BY term
            ), p AS (
                SELECT term,
                       string_agg(CAST(doc_id AS VARCHAR), ','
                                  ORDER BY doc_id) AS postings
                FROM r WHERE rn <= 10 GROUP BY term
            )
            SELECT c.term, c.n_docs, p.postings
            FROM c JOIN p USING (term) ORDER BY term
        """,
        # rendezvous_shards: argmax over the salted md5s via a
        # DESC-ordered row_number, ties to the lowest shard id.
        # blocklist_rates: token-equality screen via list_has_any.
        "blocklist_rates": """
            SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(count(*) FILTER (list_has_any(
                       string_split(trim(text), ' '),
                       ['dup', 'slow'])) AS BIGINT) AS n_blocked
            FROM documents GROUP BY source ORDER BY source
        """,
        # novelty_decay: the ngram_novelty replay rolled to deciles.
        "novelty_decay": """
            WITH base AS (
                SELECT doc_id, string_split(trim(text), ' ') AS a
                FROM documents
            ),
            w AS (
                SELECT doc_id,
                       CAST('0x' || substr(md5(
                           array_to_string(a[i:i+7], ' ')), 1, 15)
                           AS BIGINT) AS k
                FROM base, UNNEST(generate_series(1, len(a) - 7)) AS t(i)
            ),
            dw AS (
                SELECT k, doc_id, CAST(count(*) AS BIGINT) AS c
                FROM w GROUP BY k, doc_id
            ),
            fd AS (SELECT k, min(doc_id) AS first_doc FROM dw GROUP BY k),
            nv AS (
                SELECT dw.doc_id,
                       SUM(dw.c) AS n_win,
                       COALESCE(SUM(dw.c) FILTER (
                           dw.doc_id = fd.first_doc), 0) AS n_novel
                FROM dw JOIN fd USING (k) GROUP BY dw.doc_id
            ),
            nvq AS (
                SELECT d.doc_id,
                       COALESCE(nv.n_win, 0) AS n_windows,
                       COALESCE(nv.n_novel, 0) AS n_novel
                FROM documents d LEFT JOIN nv USING (doc_id)
            ),
            cnt AS (SELECT count(*) AS n FROM documents),
            dec AS (
                SELECT LEAST(doc_id * 10 // (SELECT n FROM cnt) + 1,
                             10) AS decile,
                       n_windows, n_novel
                FROM nvq
            )
            SELECT CAST(decile AS BIGINT) AS decile,
                   CAST(SUM(n_windows) AS BIGINT) AS n_windows,
                   CAST(SUM(n_novel) AS BIGINT) AS n_novel,
                   CAST(SUM(n_novel) AS DOUBLE)
                       / CAST(SUM(n_windows) AS DOUBLE) AS novel_ratio
            FROM dec GROUP BY decile ORDER BY decile
        """,
        # source_entropy: the identical floored nano-nat terms summed
        # as integers (order-independent by construction).
        "source_entropy": """
            WITH base AS (
                SELECT source, string_split(trim(text), ' ') AS a
                FROM documents
            ),
            tok AS (
                SELECT source, a[i] AS term
                FROM base, UNNEST(generate_series(1, len(a))) AS u(i)
            ),
            c AS (SELECT source, term, CAST(count(*) AS BIGINT) AS c
                  FROM tok GROUP BY source, term),
            t AS (SELECT source, SUM(c) AS n FROM c GROUP BY source)
            SELECT c.source,
                   CAST(SUM(CAST(FLOOR(1000000000.0
                       * (CAST(c.c AS DOUBLE) / CAST(t.n AS DOUBLE))
                       * ln(CAST(t.n AS DOUBLE) / CAST(c.c AS DOUBLE)))
                       AS BIGINT)) AS BIGINT) AS entropy_nanonats,
                   CAST(count(*) AS BIGINT) AS n_distinct_terms
            FROM c JOIN t USING (source)
            GROUP BY c.source ORDER BY c.source
        """,
        # simpson_diversity: all-integer Simpson ingredients — same
        # token semantics as source_entropy (empties kept).
        "simpson_diversity": """
            WITH base AS (
                SELECT source, string_split(trim(text), ' ') AS a
                FROM documents
            ),
            tok AS (
                SELECT source, a[i] AS term
                FROM base, UNNEST(generate_series(1, len(a))) AS u(i)
            ),
            c AS (SELECT source, term, CAST(count(*) AS BIGINT) AS c
                  FROM tok GROUP BY source, term)
            SELECT source,
                   CAST(SUM(c) AS BIGINT) AS n_tokens,
                   CAST(count(*) AS BIGINT) AS n_terms,
                   CAST(SUM(c * c) AS BIGINT) AS sum_sq
            FROM c GROUP BY source ORDER BY source
        """,
        # lru_hits: Mattson stack-distance identity — an access hits a
        # capacity-C LRU iff fewer than C distinct keys were accessed
        # strictly between the previous access of the same key and now.
        "lru_hits": """
            WITH e AS (
                SELECT user_id, event_type AS k,
                       row_number() OVER (
                           PARTITION BY user_id
                           ORDER BY ts, event_id) AS seq
                FROM events
            ),
            p AS (
                SELECT user_id, k, seq,
                       lag(seq) OVER (
                           PARTITION BY user_id, k ORDER BY seq) AS prev
                FROM e
            ),
            d AS (
                SELECT p.user_id, p.prev,
                       CASE WHEN p.prev IS NULL THEN NULL ELSE (
                           SELECT count(DISTINCT m.k) FROM e m
                           WHERE m.user_id = p.user_id
                             AND m.seq > p.prev AND m.seq < p.seq
                       ) END AS dist
                FROM p
            )
            SELECT user_id,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(count(*) FILTER (prev IS NOT NULL AND dist < 2)
                        AS BIGINT) AS hits,
                   CAST(count(*) FILTER (prev IS NULL)
                        AS BIGINT) AS cold_misses,
                   CAST(count(*) FILTER (prev IS NOT NULL AND dist >= 2)
                        AS BIGINT) AS capacity_misses
            FROM d GROUP BY user_id ORDER BY user_id
        """,
        # diversity_mix_chain: Simpson gate (integer cross-multiplied)
        # → ppm diversity via integer floor-div → Hamilton allocation,
        # the same all-BIGINT tree as crawl_budget_chain.
        "diversity_mix_chain": """
            WITH base AS (
                SELECT source, string_split(trim(text), ' ') AS a
                FROM documents
            ),
            tok AS (
                SELECT source, a[i] AS term
                FROM base, UNNEST(generate_series(1, len(a))) AS u(i)
            ),
            c AS (SELECT source, term, CAST(count(*) AS BIGINT) AS c
                  FROM tok GROUP BY source, term),
            s AS (SELECT source, CAST(SUM(c) AS BIGINT) AS n,
                         CAST(SUM(c * c) AS BIGINT) AS ss
                  FROM c GROUP BY source),
            g AS (SELECT source, n, ss, n * n AS n2 FROM s
                  WHERE 10 * n * n >= 294 * ss AND n > 0),
            w AS (SELECT source,
                         CAST((n * (((n2 - ss) * 1000000) // n2))
                              // 1000000 * 100 AS BIGINT) AS weight_cents
                  FROM g),
            t AS (SELECT SUM(weight_cents) AS tw, 100000 AS units FROM w),
            b AS (
                SELECT source, weight_cents,
                       units * weight_cents // tw AS base,
                       units * weight_cents % tw AS rem
                FROM w, t
            ),
            r AS (
                SELECT *, ROW_NUMBER() OVER (ORDER BY rem DESC, source)
                           AS rk,
                       (SELECT units FROM t) - SUM(base) OVER ()
                           AS leftover
                FROM b
            )
            SELECT source, CAST(weight_cents AS BIGINT) AS weight_cents,
                   CAST(base + CASE WHEN rk <= leftover THEN 1 ELSE 0
                        END AS BIGINT) AS alloc
            FROM r ORDER BY source
        """,
        # mrc_curve: stack-distance histogram read at capacities 1..4
        # — same Mattson identity as lru_hits, cross-joined with the
        # capacity grid.
        "mrc_curve": """
            WITH e AS (
                SELECT user_id, event_type AS k,
                       row_number() OVER (
                           PARTITION BY user_id
                           ORDER BY ts, event_id) AS seq
                FROM events
            ),
            p AS (
                SELECT user_id, k, seq,
                       lag(seq) OVER (
                           PARTITION BY user_id, k ORDER BY seq) AS prev
                FROM e
            ),
            d AS (
                SELECT CASE WHEN p.prev IS NULL THEN NULL ELSE (
                           SELECT count(DISTINCT m.k) FROM e m
                           WHERE m.user_id = p.user_id
                             AND m.seq > p.prev AND m.seq < p.seq
                       ) END AS dist
                FROM p
            ),
            caps AS (SELECT unnest(generate_series(1, 4)) AS capacity)
            SELECT CAST(capacity AS BIGINT) AS capacity,
                   CAST(count(*) FILTER (dist IS NOT NULL
                        AND dist < capacity) AS BIGINT) AS hits,
                   CAST(count(*) FILTER (dist IS NULL
                        OR dist >= capacity) AS BIGINT) AS misses
            FROM caps CROSS JOIN d
            GROUP BY capacity ORDER BY capacity
        """,
        # source_cosine: exact integer dots/norms via term self-join,
        # full pair grid so zero-overlap pairs still appear; float
        # cosine is the identical IEEE cast/product/sqrt/divide tree.
        "source_cosine": """
            WITH base AS (
                SELECT source, string_split(trim(text), ' ') AS a
                FROM documents
            ),
            tok AS (
                SELECT source, a[i] AS term
                FROM base, UNNEST(generate_series(1, len(a))) AS u(i)
            ),
            c AS (SELECT source, term, CAST(count(*) AS BIGINT) AS c
                  FROM tok GROUP BY source, term),
            n AS (SELECT source, CAST(SUM(c * c) AS BIGINT) AS n2
                  FROM c GROUP BY source),
            p AS (SELECT na.source AS source_a, nb.source AS source_b,
                         na.n2 AS na2, nb.n2 AS nb2
                  FROM n na JOIN n nb ON na.source < nb.source),
            dots AS (
                SELECT a.source AS sa, b.source AS sb,
                       CAST(SUM(a.c * b.c) AS BIGINT) AS dot
                FROM c a JOIN c b
                  ON a.term = b.term AND a.source < b.source
                GROUP BY a.source, b.source
            )
            SELECT p.source_a, p.source_b,
                   CAST(COALESCE(dots.dot, 0) AS BIGINT) AS dot,
                   p.na2, p.nb2,
                   CAST(COALESCE(dots.dot, 0) AS DOUBLE)
                       / sqrt(CAST(p.na2 AS DOUBLE)
                              * CAST(p.nb2 AS DOUBLE)) AS cosine
            FROM p LEFT JOIN dots
              ON dots.sa = p.source_a AND dots.sb = p.source_b
            ORDER BY p.source_a, p.source_b
        """,
        # priority_dedup: the packed-composite Min replayed in SQL —
        # MIN(pri·2⁴² + doc_id) then integer unpack.
        "priority_dedup": """
            WITH k AS (
                SELECT array_to_string(
                           (string_split_regex(trim(text), '\\s+'))[1:5],
                           ' ') AS dup_key,
                       CAST(substr(source, 4) AS BIGINT) AS pri,
                       doc_id
                FROM documents
            ),
            m AS (
                SELECT dup_key,
                       MIN(pri * 4398046511104 + doc_id) AS comp,
                       CAST(count(*) AS BIGINT) AS n_dups
                FROM k GROUP BY dup_key
            )
            SELECT dup_key,
                   CAST(comp // 4398046511104 AS BIGINT) AS keep_priority,
                   CAST(comp % 4398046511104 AS BIGINT) AS keep_doc_id,
                   n_dups
            FROM m ORDER BY dup_key
        """,
        # source_risk_rank: the identical Wilson-lower-bound tree on
        # the blocklist rollup; sqrt correctly rounded both engines.
        "source_risk_rank": """
            WITH r AS (
                SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
                       CAST(count(*) FILTER (list_has_any(
                           string_split(trim(text), ' '),
                           ['dup', 'slow'])) AS BIGINT) AS n_blocked
                FROM documents GROUP BY source
            ),
            w AS (
                SELECT source, n_docs, n_blocked,
                       CAST(n_blocked AS DOUBLE)
                           / CAST(n_docs AS DOUBLE) AS p,
                       CAST(n_docs AS DOUBLE) AS nf
                FROM r
            )
            SELECT source, n_docs, n_blocked,
                   (p + 1.96 * 1.96 / (2.0 * nf)
                    - 1.96 * sqrt((p * (1.0 - p)
                                   + 1.96 * 1.96 / (4.0 * nf)) / nf))
                   / (1.0 + 1.96 * 1.96 / nf) AS wilson_lb
            FROM w ORDER BY wilson_lb DESC, source
        """,
        # hybrid_search: bm25 CTE + cosine CTE, both ranked by
        # ROW_NUMBER, FULL OUTER fuse, identical two-term RRF sum.
        "hybrid_search": """
            WITH base AS (
                SELECT doc_id, string_split(trim(text), ' ') AS a
                FROM documents
            ),
            pd AS (
                SELECT doc_id, CAST(len(a) AS BIGINT) AS len,
                       CAST(len(list_filter(a, x -> x = 'spark'))
                            AS BIGINT) AS tf0,
                       CAST(len(list_filter(a, x -> x = 'merge'))
                            AS BIGINT) AS tf1
                FROM base
            ),
            tot AS (
                SELECT CAST(count(*) AS DOUBLE) AS n,
                       CAST(SUM(len) AS DOUBLE) AS sl,
                       CAST(count(*) FILTER (tf0 > 0) AS DOUBLE) AS df0,
                       CAST(count(*) FILTER (tf1 > 0) AS DOUBLE) AS df1
                FROM pd
            ),
            sc AS (
                SELECT doc_id,
                       ln(1.0 + (n - df0 + 0.5) / (df0 + 0.5))
                         * ((tf0 * (1.2 + 1.0))
                            / (tf0 + 1.2 * ((1.0 - 0.75)
                               + 0.75 * (len / (sl / n)))))
                     + ln(1.0 + (n - df1 + 0.5) / (df1 + 0.5))
                         * ((tf1 * (1.2 + 1.0))
                            / (tf1 + 1.2 * ((1.0 - 0.75)
                               + 0.75 * (len / (sl / n)))))
                           AS score
                FROM pd, tot WHERE tf0 > 0 OR tf1 > 0
            ),
            lex AS (
                SELECT doc_id, ROW_NUMBER() OVER (
                    ORDER BY score DESC, doc_id) AS rl
                FROM sc
            ),
            lex50 AS (SELECT * FROM lex WHERE rl <= 50),
            q AS (SELECT CAST(embedding AS DOUBLE[]) AS qe
                  FROM embeddings WHERE vec_id = 0),
            vec AS (
                SELECT e.vec_id AS doc_id, ROW_NUMBER() OVER (
                    ORDER BY list_cosine_similarity(q.qe,
                        CAST(e.embedding AS DOUBLE[])) DESC,
                        e.vec_id) AS rv
                FROM embeddings e, q
            ),
            vec50 AS (SELECT * FROM vec WHERE rv <= 50),
            u AS (
                SELECT COALESCE(l.doc_id, v.doc_id) AS doc_id,
                       l.rl, v.rv
                FROM lex50 l FULL OUTER JOIN vec50 v
                  ON l.doc_id = v.doc_id
            )
            SELECT doc_id,
                   COALESCE(1.0 / (60.0 + rl), 0.0)
                 + COALESCE(1.0 / (60.0 + rv), 0.0) AS rrf
            FROM u ORDER BY rrf DESC, doc_id LIMIT 20
        """,
        # term_drift: integer half-counts, identical single χ² tree on
        # the 50-row top-k only.
        "term_drift": """
            WITH n AS (SELECT count(*) // 2 AS h FROM documents),
            base AS (
                SELECT doc_id, string_split(trim(text), ' ') AS a
                FROM documents
            ),
            tok AS (
                SELECT doc_id, a[i] AS term
                FROM base, UNNEST(generate_series(1, len(a))) AS u(i)
            ),
            c AS (
                SELECT term,
                       CAST(count(*) FILTER (doc_id <
                           (SELECT h FROM n)) AS BIGINT) AS c1,
                       CAST(count(*) FILTER (doc_id >=
                           (SELECT h FROM n)) AS BIGINT) AS c2
                FROM tok GROUP BY term
            ),
            t AS (SELECT CAST(SUM(c1) AS DOUBLE) AS t1,
                         CAST(SUM(c2) AS DOUBLE) AS t2 FROM c),
            top AS (SELECT * FROM c
                    ORDER BY (c1 + c2) DESC, term LIMIT 50),
            sel AS (
                SELECT term, c1, c2,
                       CAST(c1 + c2 AS DOUBLE) * t1 / (t1 + t2) AS e1,
                       CAST(c1 + c2 AS DOUBLE) * t2 / (t1 + t2) AS e2
                FROM top, t
            )
            SELECT term, c1, c2,
                   (c1 - e1) * (c1 - e1) / e1
                 + (c2 - e2) * (c2 - e2) / e2 AS chi2
            FROM sel
        """,
        # bm25_search: the identical float tree — constant-foldable
        # (1.2+1.0)/(1.0-0.75) instead of 2.2/0.25 literals, explicit
        # two-term sum (never SUM()), same ln shape.
        "search_eval": _search_eval_oracle(),
        "bm25_search": """
            WITH base AS (
                SELECT doc_id, string_split(trim(text), ' ') AS a
                FROM documents
            ),
            pd AS (
                SELECT doc_id, CAST(len(a) AS BIGINT) AS len,
                       CAST(len(list_filter(a, x -> x = 'spark'))
                            AS BIGINT) AS tf0,
                       CAST(len(list_filter(a, x -> x = 'merge'))
                            AS BIGINT) AS tf1
                FROM base
            ),
            tot AS (
                SELECT CAST(count(*) AS DOUBLE) AS n,
                       CAST(SUM(len) AS DOUBLE) AS sl,
                       CAST(count(*) FILTER (tf0 > 0) AS DOUBLE) AS df0,
                       CAST(count(*) FILTER (tf1 > 0) AS DOUBLE) AS df1
                FROM pd
            ),
            sc AS (
                SELECT doc_id,
                       ln(1.0 + (n - df0 + 0.5) / (df0 + 0.5))
                         * ((tf0 * (1.2 + 1.0))
                            / (tf0 + 1.2 * ((1.0 - 0.75)
                               + 0.75 * (len / (sl / n)))))
                     + ln(1.0 + (n - df1 + 0.5) / (df1 + 0.5))
                         * ((tf1 * (1.2 + 1.0))
                            / (tf1 + 1.2 * ((1.0 - 0.75)
                               + 0.75 * (len / (sl / n)))))
                           AS score
                FROM pd, tot WHERE tf0 > 0 OR tf1 > 0
            )
            SELECT doc_id, score FROM sc
            ORDER BY score DESC, doc_id LIMIT 20
        """,
        # benford_audit: first digit of the cents integer via string
        # head; expectation as the identical single ln expression.
        "benford_audit": """
            WITH d AS (
                SELECT CAST(substr(CAST(CAST(FLOOR(
                           CAST(l_extendedprice AS DOUBLE) * 100 + 0.5)
                           AS BIGINT) AS VARCHAR), 1, 1) AS BIGINT)
                           AS digit
                FROM lineitem
                WHERE l_extendedprice > 0
            ),
            c AS (SELECT digit, CAST(count(*) AS BIGINT) AS n
                  FROM d GROUP BY digit)
            SELECT g.d AS digit, COALESCE(c.n, 0) AS n,
                   ln((g.d + 1.0) / g.d) / ln(10.0) AS benford_p
            FROM generate_series(1, 9) g(d)
            LEFT JOIN c ON c.digit = g.d
            ORDER BY 1
        """,
        # source_overlap: distinct (5-token prefix key, source) pairs
        # self-joined with source_a < source_b (string order == the
        # engine's sorted-index order).
        "source_overlap": r"""
            WITH g AS (
                SELECT DISTINCT
                       array_to_string((string_split_regex(trim(text),
                           '\s+'))[1:5], ' ') AS nt,
                       source
                FROM documents
            )
            SELECT a.source AS source_a, b.source AS source_b,
                   CAST(count(*) AS BIGINT) AS n_shared
            FROM g a JOIN g b
              ON a.nt = b.nt AND a.source < b.source
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        # vocab_coverage: frequency-ranked cumulative coverage replay;
        # min rank where cum*1000 >= permille*total, integer-exact.
        "vocab_coverage": """
            WITH base AS (
                SELECT string_split(trim(text), ' ') AS a FROM documents
            ),
            t AS (
                SELECT a[i] AS term
                FROM base, UNNEST(generate_series(1, len(a))) AS u(i)
            ),
            c AS (SELECT term, CAST(count(*) AS BIGINT) AS cf
                  FROM t GROUP BY term),
            r AS (
                SELECT cf, term,
                       SUM(cf) OVER (ORDER BY cf DESC, term
                           ROWS UNBOUNDED PRECEDING) AS cum,
                       ROW_NUMBER() OVER (ORDER BY cf DESC, term) AS k,
                       SUM(cf) OVER () AS total
                FROM c
            ),
            p AS (SELECT * FROM (VALUES (500), (900), (990), (999))
                  v(permille)),
            sel AS (
                SELECT p.permille, MIN(r.k) AS vocab_size
                FROM p JOIN r ON r.cum * 1000 >= p.permille * r.total
                GROUP BY p.permille
            )
            SELECT CAST(sel.permille AS BIGINT) AS coverage_permille,
                   CAST(sel.vocab_size AS BIGINT) AS vocab_size,
                   CAST(r.cum AS BIGINT) AS covered_tokens
            FROM sel JOIN r ON r.k = sel.vocab_size
            ORDER BY 1
        """,
        # hrw_resharding: both assignments replayed with the identical
        # per-(id, shard) md5 argmax; moved = winner differs at 9.
        "hrw_resharding": """
            WITH w8 AS (
                SELECT doc_id, s.s AS shard,
                       row_number() OVER (
                           PARTITION BY doc_id
                           ORDER BY substr(md5(CAST(doc_id AS VARCHAR)
                                     || ':' || CAST(s.s AS VARCHAR)),
                                     1, 8) DESC, s.s) AS rn
                FROM documents CROSS JOIN generate_series(0, 7) s(s)
            ),
            w9 AS (
                SELECT doc_id, s.s AS shard,
                       row_number() OVER (
                           PARTITION BY doc_id
                           ORDER BY substr(md5(CAST(doc_id AS VARCHAR)
                                     || ':' || CAST(s.s AS VARCHAR)),
                                     1, 8) DESC, s.s) AS rn
                FROM documents CROSS JOIN generate_series(0, 8) s(s)
            ),
            j AS (
                SELECT a.doc_id, a.shard AS s8, b.shard AS s9
                FROM (SELECT doc_id, shard FROM w8 WHERE rn = 1) a
                JOIN (SELECT doc_id, shard FROM w9 WHERE rn = 1) b
                USING (doc_id)
            )
            SELECT CAST(s8 AS BIGINT) AS shard,
                   CAST(count(*) AS BIGINT) AS n_keys,
                   CAST(SUM(CASE WHEN s8 <> s9 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_moved
            FROM j GROUP BY s8 ORDER BY s8
        """,
        "rendezvous_shards": """
            WITH a AS (
                SELECT doc_id, lang, s.s AS shard,
                       row_number() OVER (
                           PARTITION BY doc_id
                           ORDER BY substr(md5(CAST(doc_id AS VARCHAR)
                                     || ':' || CAST(s.s AS VARCHAR)),
                                     1, 8) DESC, s.s) AS rn
                FROM documents CROSS JOIN generate_series(0, 7) s(s)
            )
            SELECT CAST(shard AS BIGINT) AS shard, lang,
                   CAST(count(*) AS BIGINT) AS n
            FROM a WHERE rn = 1
            GROUP BY shard, lang ORDER BY shard, lang
        """,
        # clean_rank_chain: nulls → COALESCE(percentile_disc) →
        # PERCENT_RANK (value-only, tie-safe) → pr ≥ 0.5 → cents.
        "clean_rank_chain": """
            WITH x AS (
                SELECT event_type,
                       CASE WHEN event_id % 20 = 0 THEN NULL
                            ELSE CAST(value AS DOUBLE) END AS v
                FROM events
            ), m AS (
                SELECT event_type,
                       percentile_disc(0.5) WITHIN GROUP (ORDER BY v)
                           AS med
                FROM x WHERE v IS NOT NULL GROUP BY event_type
            ), f AS (
                SELECT x.event_type, COALESCE(x.v, m.med) AS v
                FROM x LEFT JOIN m USING (event_type)
            ), r AS (
                SELECT event_type, v,
                       round(PERCENT_RANK() OVER (
                           PARTITION BY event_type ORDER BY v), 6) AS pr
                FROM f
            )
            SELECT event_type, CAST(count(*) AS BIGINT) AS n,
                   CAST(SUM(CAST(FLOOR(v * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS value_cents
            FROM r WHERE pr >= 0.5
            GROUP BY event_type ORDER BY event_type
        """,
        # dataset_split: same md5 hex thresholds (0.8 → cccccccc,
        # 0.9 → e6666666); fixed-width lowercase hex compares like the
        # number it encodes.
        "dataset_split": """
            WITH x AS (
                SELECT CASE
                         WHEN substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)
                              < 'cccccccc' THEN 'train'
                         WHEN substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)
                              < 'e6666666' THEN 'val'
                         ELSE 'test'
                       END AS split,
                       lang, n_chars
                FROM documents
            )
            SELECT split, lang, CAST(count(*) AS BIGINT) AS n,
                   CAST(SUM(CAST(n_chars AS BIGINT)) AS BIGINT) AS chars
            FROM x GROUP BY split, lang ORDER BY split, lang
        """,
        # id_gaps: the classic lead()-over-ids islands query — interior
        # gaps only (between observed min and max), same as the engine.
        "id_gaps": """
            WITH ids AS (
                SELECT DISTINCT event_id AS id FROM events
                WHERE event_id % 97 >= 3
            ), nxt AS (
                SELECT id, lead(id) OVER (ORDER BY id) AS nid FROM ids
            )
            SELECT id + 1 AS gap_start, nid - 1 AS gap_end,
                   CAST(nid - 1 - id AS BIGINT) AS n_missing
            FROM nxt WHERE nid > id + 1 ORDER BY gap_start
        """,
        # percent_rank: (rank-1)/(n-1) depends only on the value, so
        # it replays under any partitioning; round before hashing.
        "percent_rank": """
            SELECT event_id, event_type, value,
                   round(PERCENT_RANK() OVER (
                       PARTITION BY event_type ORDER BY value), 6) AS pr
            FROM events ORDER BY event_id
        """,
        # pq_codes: codebook = vec_id < 4; integer quantization at
        # scale 1000 makes the squared-L2 sum order-independent, so
        # the argmin (ties to lowest cid) replays exactly; lists are
        # 1-indexed in DuckDB.
        "pq_codes": """
            WITH cb AS (
                SELECT vec_id AS cid, embedding AS cemb
                FROM embeddings WHERE vec_id < 4
            ), d AS (
                SELECT e.vec_id, s.m, c.cid,
                       (SELECT CAST(SUM(q.dd * q.dd) AS BIGINT) FROM (
                            SELECT CAST(FLOOR(CAST(e.embedding[
                                       CAST(s.m * 8 + g.i AS INT)]
                                       AS DOUBLE) * 1000 + 0.5) AS BIGINT)
                                 - CAST(FLOOR(CAST(c.cemb[
                                       CAST(s.m * 8 + g.i AS INT)]
                                       AS DOUBLE) * 1000 + 0.5) AS BIGINT)
                                   AS dd
                            FROM generate_series(1, 8) g(i)) q) AS dist
                FROM embeddings e
                CROSS JOIN generate_series(0, 7) s(m)
                CROSS JOIN cb c
            )
            SELECT vec_id, CAST(m AS BIGINT) AS m, code, dist FROM (
                SELECT vec_id, m, cid AS code, dist,
                       row_number() OVER (PARTITION BY vec_id, m
                                          ORDER BY dist, cid) AS rn
                FROM d
            ) WHERE rn = 1
            ORDER BY vec_id, m
        """,
        # pq_ann: replays the pq_codes assignment, builds the per-query
        # integer LUT the same way, joins codes to LUT cells, sums —
        # all BIGINT, ties broken (dist, vec_id).
        "pq_ann": """
            WITH cb AS (
                SELECT vec_id AS cid, embedding AS cemb
                FROM embeddings WHERE vec_id < 4
            ), codes AS (
                SELECT vec_id, m, code FROM (
                    SELECT e.vec_id, s.m, c.cid AS code,
                           (SELECT CAST(SUM(q.dd * q.dd) AS BIGINT)
                            FROM (
                             SELECT CAST(FLOOR(CAST(e.embedding[
                                        CAST(s.m * 8 + g.i AS INT)]
                                        AS DOUBLE) * 1000 + 0.5)
                                        AS BIGINT)
                                  - CAST(FLOOR(CAST(c.cemb[
                                        CAST(s.m * 8 + g.i AS INT)]
                                        AS DOUBLE) * 1000 + 0.5)
                                        AS BIGINT) AS dd
                             FROM generate_series(1, 8) g(i)) q) AS dist,
                           row_number() OVER (
                               PARTITION BY e.vec_id, s.m
                               ORDER BY (SELECT CAST(SUM(q.dd * q.dd)
                                                AS BIGINT) FROM (
                                 SELECT CAST(FLOOR(CAST(e.embedding[
                                            CAST(s.m * 8 + g.i AS INT)]
                                            AS DOUBLE) * 1000 + 0.5)
                                            AS BIGINT)
                                      - CAST(FLOOR(CAST(c.cemb[
                                            CAST(s.m * 8 + g.i AS INT)]
                                            AS DOUBLE) * 1000 + 0.5)
                                            AS BIGINT) AS dd
                                 FROM generate_series(1, 8) g(i)) q),
                                 c.cid) AS rn
                    FROM embeddings e
                    CROSS JOIN generate_series(0, 7) s(m)
                    CROSS JOIN cb c
                ) WHERE rn = 1
            ), qv AS (
                SELECT CAST(row_number() OVER (ORDER BY vec_id) - 1
                            AS BIGINT) AS query_id,
                       embedding AS qemb
                FROM embeddings WHERE vec_id IN (10, 20)
            ), lut AS (
                SELECT qv.query_id, s.m, c.cid,
                       (SELECT CAST(SUM(q.dd * q.dd) AS BIGINT) FROM (
                            SELECT CAST(FLOOR(CAST(qv.qemb[
                                       CAST(s.m * 8 + g.i AS INT)]
                                       AS DOUBLE) * 1000 + 0.5) AS BIGINT)
                                 - CAST(FLOOR(CAST(c.cemb[
                                       CAST(s.m * 8 + g.i AS INT)]
                                       AS DOUBLE) * 1000 + 0.5) AS BIGINT)
                                   AS dd
                            FROM generate_series(1, 8) g(i)) q) AS ld
                FROM qv
                CROSS JOIN generate_series(0, 7) s(m)
                CROSS JOIN cb c
            ), dist AS (
                SELECT l.query_id, c2.vec_id,
                       CAST(SUM(l.ld) AS BIGINT) AS dist
                FROM codes c2
                JOIN lut l ON l.m = c2.m AND l.cid = c2.code
                GROUP BY l.query_id, c2.vec_id
            )
            SELECT query_id, CAST(rn AS BIGINT) AS rank, vec_id, dist
            FROM (
                SELECT *, row_number() OVER (PARTITION BY query_id
                           ORDER BY dist, vec_id) AS rn
                FROM dist
            ) WHERE rn <= 10
            ORDER BY query_id, rank
        """,
        # impute_values: same 1-in-20 null mask; COALESCE with the
        # per-key percentile_disc(0.5); keys with no survivors keep
        # nulls (LEFT JOIN) — cents sum then replays exactly.
        "impute_values": """
            WITH x AS (
                SELECT l_returnflag,
                       CASE WHEN (l_orderkey * 7 + l_linenumber) % 20 = 0
                            THEN NULL
                            ELSE CAST(l_quantity AS DOUBLE) END AS q
                FROM lineitem
            ), m AS (
                SELECT l_returnflag,
                       percentile_disc(0.5) WITHIN GROUP (ORDER BY q)
                           AS med
                FROM x WHERE q IS NOT NULL GROUP BY l_returnflag
            ), f AS (
                SELECT x.l_returnflag, COALESCE(x.q, m.med) AS q
                FROM x LEFT JOIN m USING (l_returnflag)
            )
            SELECT l_returnflag, CAST(count(*) AS BIGINT) AS n,
                   CAST(SUM(CAST(FLOOR(q * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS qty_cents
            FROM f GROUP BY l_returnflag ORDER BY l_returnflag
        """,
        # bfs_hops: depth-bounded recursive CTE; UNION dedups (v, d)
        # pairs so cycles can't loop, min(d) picks the BFS layer.
        "bfs_hops": """
            WITH RECURSIVE li AS (
                SELECT l_orderkey * 1000 + l_linenumber AS k, l_suppkey
                FROM lineitem
            ), e AS (
                SELECT DISTINCT a.l_suppkey AS src, b.l_suppkey AS dst
                FROM li a JOIN li b ON b.k = a.k + 1
                WHERE a.l_suppkey <> b.l_suppkey
            ), seeds AS (
                SELECT CAST(s_suppkey AS BIGINT) AS v FROM supplier
                WHERE s_suppkey % 50 = 0
            ), r AS (
                SELECT v, 0 AS d FROM seeds
                UNION
                SELECT e.dst, r.d + 1 FROM r JOIN e ON e.src = r.v
                WHERE r.d < 3
            )
            SELECT v, CAST(min(d) AS BIGINT) AS hops
            FROM r GROUP BY v ORDER BY v
        """,
        # pagerank_weighted_parts: same CTE chain, ranks joined back
        # through lineitem — Σ rank·qty per part (all-int), top 20.
        "pagerank_weighted_parts": _pagerank_rollup_oracle_sql(5),
        # supplier_hits: unrolled half-round CTEs, same integer rescale.
        "supplier_hits": _hits_oracle_sql(4),
        # robots_gate: longest-prefix / allow-wins precedence via LIKE +
        # ROW_NUMBER over the same deterministic per-host rule recipe.
        "robots_gate": """
            WITH urls AS (
                SELECT doc_id,
                       'example' || CAST(doc_id % 50 AS VARCHAR)
                           || '.com' AS host,
                       '/Path' || CAST(doc_id % 7 AS VARCHAR)
                           || '/page' || CAST(doc_id % 11 AS VARCHAR)
                           AS path
                FROM documents
            ), rules AS (
                SELECT 'example' || CAST(h AS VARCHAR) || '.com' AS host,
                       FALSE AS allow,
                       '/Path' || CAST(h % 7 AS VARCHAR) AS prefix
                FROM UNNEST(generate_series(0, 49)) t(h)
                UNION ALL
                SELECT 'example' || CAST(h AS VARCHAR) || '.com', TRUE,
                       '/Path' || CAST(h % 7 AS VARCHAR) || '/page3'
                FROM UNNEST(generate_series(0, 49)) t(h)
            ), m AS (
                SELECT u.doc_id, r.allow,
                       ROW_NUMBER() OVER (
                           PARTITION BY u.doc_id
                           ORDER BY length(r.prefix) DESC, r.allow DESC
                       ) AS rn
                FROM urls u JOIN rules r
                  ON r.host = u.host AND u.path LIKE r.prefix || '%'
            ), dec AS (
                SELECT u.host, COALESCE(m.allow, TRUE) AS allowed
                FROM urls u LEFT JOIN (SELECT doc_id, allow FROM m
                                       WHERE rn = 1) m USING (doc_id)
            )
            SELECT host, CAST(count(*) AS BIGINT) AS n,
                   CAST(SUM(CASE WHEN allowed THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_allowed
            FROM dec GROUP BY host ORDER BY host
        """,
        # norm_curation: the whole chain in one SQL pipeline.
        "norm_curation": r"""
            WITH norm AS (
                SELECT doc_id, lang, source, n_chars,
                       trim(regexp_replace(regexp_replace(lower(text),
                            '[^a-z0-9\s]+', '', 'g'),
                            '\s+', ' ', 'g')) AS text_norm
                FROM documents
            ), winners AS (
                SELECT MIN(doc_id) AS doc_id FROM norm GROUP BY text_norm
            ), kept AS (
                SELECT n.lang, n.source, n.n_chars
                FROM norm n JOIN winners w USING (doc_id)
                WHERE n.n_chars >= 100
            )
            SELECT lang, source, CAST(count(*) AS BIGINT) AS n,
                   CAST(SUM(n_chars) AS BIGINT) AS sum_chars
            FROM kept GROUP BY lang, source ORDER BY lang, source
        """,
        # winsorize: percentile_disc bounds, LEAST/GREATEST clip, cents.
        "winsorize": """
            WITH b AS (
                SELECT event_type,
                       percentile_disc(0.05) WITHIN GROUP
                           (ORDER BY value) AS lo,
                       percentile_disc(0.95) WITHIN GROUP
                           (ORDER BY value) AS hi
                FROM events GROUP BY event_type
            ), c AS (
                SELECT e.event_type,
                       LEAST(GREATEST(e.value, b.lo), b.hi) AS w,
                       CASE WHEN e.value < b.lo THEN 1 ELSE 0 END AS is_lo,
                       CASE WHEN e.value > b.hi THEN 1 ELSE 0 END AS is_hi
                FROM events e JOIN b USING (event_type)
            )
            SELECT event_type, CAST(count(*) AS BIGINT) AS n,
                   CAST(SUM(is_lo) AS BIGINT) AS n_clipped_lo,
                   CAST(SUM(is_hi) AS BIGINT) AS n_clipped_hi,
                   CAST(SUM(CAST(FLOOR(w * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS sum_cents
            FROM c GROUP BY event_type ORDER BY event_type
        """,
        # props_extract: same RE2 pattern, group addressed by number.
        "props_extract": r"""
            WITH x AS (
                SELECT event_type,
                       CAST(regexp_extract(props, '"k":\s*(\d+)', 1)
                            AS BIGINT) AS v
                FROM events
                WHERE regexp_extract(props, '"k":\s*(\d+)', 1) <> ''
            )
            SELECT event_type, CAST(count(*) AS BIGINT) AS n,
                   CAST(SUM(v) AS BIGINT) AS sum_v,
                   CAST(MIN(v) AS BIGINT) AS min_v,
                   CAST(MAX(v) AS BIGINT) AS max_v
            FROM x GROUP BY event_type ORDER BY event_type
        """,
        # running_totals: window-function replay; no (user_id, ts) ties
        # in the corpus so the frame is deterministic.
        "running_totals": """
            WITH c AS (
                SELECT user_id, ts,
                       CAST(FLOOR(value * 100 + 0.5) AS BIGINT)
                           AS amount_cents
                FROM events
            )
            SELECT user_id, ts, amount_cents,
                   CAST(SUM(amount_cents) OVER (
                       PARTITION BY user_id ORDER BY ts
                       ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
                   ) AS BIGINT) AS running_cents,
                   CAST(ROW_NUMBER() OVER (
                       PARTITION BY user_id ORDER BY ts
                   ) AS BIGINT) AS running_n
            FROM c ORDER BY user_id, ts
        """,
        # bpe_pairs: word histogram -> in-word adjacent char pairs via
        # substring arithmetic; bpe_merges (greedy trainer) is rows-only.
        "bpe_pairs": """
            WITH toks AS (
                SELECT a[i] AS w
                FROM (SELECT string_split(trim(text), ' ') AS a
                      FROM documents),
                     UNNEST(generate_series(1, len(a))) AS t(i)
            ), words AS (
                SELECT w, CAST(count(*) AS BIGINT) AS c FROM toks
                WHERE length(w) > 0 GROUP BY w
            ), pairs AS (
                SELECT substring(w, i, 1) AS l,
                       substring(w, i + 1, 1) AS r, c
                FROM words,
                     UNNEST(generate_series(1, length(w) - 1)) AS t(i)
            )
            SELECT l, r, CAST(SUM(c) AS BIGINT) AS n FROM pairs
            GROUP BY l, r ORDER BY n DESC, l, r LIMIT 20
        """,
        # value_histogram: identical clamp/floor bin math; only observed
        # bins; bin_lo = bin * 10.0 is exact in float64.
        "value_histogram": """
            SELECT bin, CAST(bin AS DOUBLE) * 10.0 AS bin_lo,
                   CAST(count(*) AS BIGINT) AS n
            FROM (
                SELECT LEAST(GREATEST(CAST(FLOOR((value - 0.0) / 10.0)
                             AS BIGINT), 0), 49) AS bin
                FROM events WHERE value IS NOT NULL
            ) GROUP BY bin ORDER BY bin
        """,
        # funnel: chain of join-filter-groupby-min CTEs, strict > on ts
        # (the corpus has no (user_id, ts) ties).
        "funnel": """
            WITH s1 AS (
                SELECT user_id, MIN(ts) AS t_view FROM events
                WHERE event_type = 'view' GROUP BY user_id
            ), s2 AS (
                SELECT e.user_id, MIN(e.ts) AS t_click
                FROM events e JOIN s1 ON s1.user_id = e.user_id
                WHERE e.event_type = 'click' AND e.ts > s1.t_view
                GROUP BY e.user_id
            ), s3 AS (
                SELECT e.user_id, MIN(e.ts) AS t_purchase
                FROM events e JOIN s2 ON s2.user_id = e.user_id
                WHERE e.event_type = 'purchase' AND e.ts > s2.t_click
                GROUP BY e.user_id
            )
            SELECT s1.user_id, s1.t_view, s2.t_click, s3.t_purchase
            FROM s1
            LEFT JOIN s2 ON s2.user_id = s1.user_id
            LEFT JOIN s3 ON s3.user_id = s1.user_id
            ORDER BY s1.user_id
        """,
        # norm_dedup: the same RE2 normalization chain, grouped.
        "norm_dedup": r"""
            WITH norm AS (
                SELECT doc_id,
                       trim(regexp_replace(regexp_replace(lower(text),
                            '[^a-z0-9\s]+', '', 'g'),
                            '\s+', ' ', 'g')) AS text_norm
                FROM documents
            )
            SELECT text_norm,
                   CAST(MIN(doc_id) AS BIGINT) AS keep_doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_dups
            FROM norm GROUP BY text_norm
        """,
        # cooccurrence: one UNION ALL branch per window shift; LEAST /
        # GREATEST canonicalize like the engine's numpy swap (binary
        # collation = ASCII). Ties at the cut rank break by (a, b) in
        # both, so LIMIT 50 is deterministic.
        "cooccurrence": """
            WITH base AS (
                SELECT string_split(trim(text), ' ') AS a FROM documents
            ), raw AS (
                SELECT a[i] AS x, a[i + 1] AS y
                FROM base, UNNEST(generate_series(1, len(a) - 1)) AS t(i)
                UNION ALL
                SELECT a[i], a[i + 2]
                FROM base, UNNEST(generate_series(1, len(a) - 2)) AS t(i)
                UNION ALL
                SELECT a[i], a[i + 3]
                FROM base, UNNEST(generate_series(1, len(a) - 3)) AS t(i)
            ), canon AS (
                SELECT LEAST(x, y) AS a, GREATEST(x, y) AS b FROM raw
            ), pcnt AS (
                SELECT a, b, CAST(count(*) AS BIGINT) AS pair_count
                FROM canon GROUP BY a, b
            ), marg AS (
                SELECT tok, CAST(count(*) AS BIGINT) AS c
                FROM (SELECT a[i] AS tok
                      FROM base,
                           UNNEST(generate_series(1, len(a))) AS t(i))
                GROUP BY tok
            ), top AS (
                SELECT * FROM pcnt ORDER BY pair_count DESC, a, b LIMIT 50
            )
            SELECT top.a, top.b, top.pair_count,
                   ma.c AS count_a, mb.c AS count_b
            FROM top
            JOIN marg ma ON ma.tok = top.a
            JOIN marg mb ON mb.tok = top.b
            ORDER BY pair_count DESC, a, b
        """,
        # mode_by: ROW_NUMBER argmax with the same (n DESC, lang ASC)
        # tie-break the engine applies.
        "mode_by": """
            WITH c AS (
                SELECT source, lang, count(*) AS n
                FROM documents GROUP BY source, lang
            ), r AS (
                SELECT source, lang, n,
                       ROW_NUMBER() OVER (PARTITION BY source
                           ORDER BY n DESC, lang ASC) AS rk,
                       SUM(n) OVER (PARTITION BY source) AS tot
                FROM c
            )
            SELECT source, lang AS mode_lang,
                   CAST(n AS BIGINT) AS n_mode,
                   CAST(tot AS BIGINT) AS n_rows
            FROM r WHERE rk = 1 ORDER BY source
        """,
        # rollup_sales: GROUP BY ROLLUP, rolled levels surfaced as the
        # engine's '(all)' sentinel; identical cents math.
        "rollup_sales": """
            SELECT COALESCE(l_returnflag, '(all)') AS l_returnflag,
                   COALESCE(l_linestatus, '(all)') AS l_linestatus,
                   CAST(SUM(CAST(FLOOR(l_quantity * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS sum_l_quantity_cents,
                   CAST(SUM(CAST(FLOOR(l_extendedprice * 100 + 0.5)
                                 AS BIGINT))
                        AS BIGINT) AS sum_l_extendedprice_cents,
                   CAST(count(*) AS BIGINT) AS n
            FROM lineitem
            GROUP BY ROLLUP(l_returnflag, l_linestatus)
            ORDER BY 1, 2
        """,
        # retention: distinct-day pairs, per-user MIN cohort, integer
        # epoch-day arithmetic (date subtraction = int days in DuckDB).
        "retention": """
            WITH p AS (
                SELECT DISTINCT user_id, CAST(ts AS DATE) AS d FROM events
            ), f AS (
                SELECT user_id, MIN(d) AS fd FROM p GROUP BY user_id
            )
            SELECT CAST(fd - DATE '1970-01-01' AS BIGINT) AS cohort_day,
                   CAST(d - fd AS BIGINT) AS offset_days,
                   CAST(count(*) AS BIGINT) AS n_users
            FROM p JOIN f USING (user_id)
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        # daily_resample: generate_series grid over the global day span
        # CROSS JOIN distinct types, LEFT JOIN counts, COALESCE 0.
        "daily_resample": """
            WITH c AS (
                SELECT event_type,
                       CAST(ts AS DATE) - DATE '1970-01-01' AS d,
                       count(*) AS n
                FROM events GROUP BY 1, 2
            ), s AS (
                SELECT CAST(min(d) AS BIGINT) AS lo,
                       CAST(max(d) AS BIGINT) AS hi FROM c
            ), g AS (
                SELECT DISTINCT event_type FROM c
            ), grid AS (
                SELECT g.event_type, t.d
                FROM g, s, UNNEST(generate_series(s.lo, s.hi)) AS t(d)
            )
            SELECT grid.event_type, CAST(grid.d AS BIGINT) AS day,
                   CAST(COALESCE(c.n, 0) AS BIGINT) AS n
            FROM grid LEFT JOIN c
                ON c.event_type = grid.event_type AND c.d = grid.d
            ORDER BY 1, 2
        """,
        # table_diff: FULL OUTER JOIN on the two deterministic corpus
        # versions; the engine compares 64-bit content hashes, the
        # oracle compares the text itself — identical verdicts absent a
        # blake2b collision (odds documented in setops.py).
        "table_diff": """
            WITH l AS (
                SELECT doc_id, text FROM documents WHERE doc_id % 7 != 5
            ), r AS (
                SELECT doc_id,
                       CASE WHEN doc_id % 4 = 0 THEN text || ' v2'
                            ELSE text END AS text
                FROM documents WHERE doc_id % 7 != 3
            )
            SELECT COALESCE(l.doc_id, r.doc_id) AS doc_id,
                   CASE WHEN r.doc_id IS NULL THEN 'removed'
                        WHEN l.doc_id IS NULL THEN 'added'
                        ELSE 'changed' END AS status
            FROM l FULL OUTER JOIN r ON l.doc_id = r.doc_id
            WHERE r.doc_id IS NULL OR l.doc_id IS NULL OR l.text <> r.text
            ORDER BY doc_id
        """,
        # skyline_parts: textbook NOT EXISTS strict-dominance predicate.
        "skyline_parts": """
            SELECT p_partkey, p_retailprice, p_size FROM part a
            WHERE NOT EXISTS (
                SELECT 1 FROM part b
                WHERE b.p_retailprice >= a.p_retailprice
                  AND b.p_size >= a.p_size
                  AND (b.p_retailprice > a.p_retailprice
                       OR b.p_size > a.p_size)
            )
            ORDER BY p_partkey
        """,
        # edit1_names: brute levenshtein self-join on distinct names —
        # the oracle pays the n² the engine's deletion blocking avoids.
        "edit1_names": """
            WITH n AS (SELECT DISTINCT s_name AS s FROM supplier)
            SELECT a.s AS a, b.s AS b
            FROM n a JOIN n b
              ON a.s < b.s AND levenshtein(a.s, b.s) = 1
            ORDER BY a, b
        """,
        # phrase_search: positional adjacency via generate_series over
        # token indices; sources with zero hits still appear (LEFT JOIN).
        "phrase_search": """
            WITH base AS (
                SELECT doc_id, source, string_split(trim(text), ' ') AS a
                FROM documents
            ), m AS (
                SELECT doc_id, source, COUNT(*) AS n
                FROM base,
                     UNNEST(generate_series(1, len(a) - 1)) AS t(i)
                WHERE a[i] = 'hash' AND a[i + 1] = 'join'
                GROUP BY doc_id, source
            ), s AS (
                SELECT DISTINCT source FROM documents
            )
            SELECT s.source,
                   CAST(COALESCE(x.n_docs, 0) AS BIGINT) AS n_docs,
                   CAST(COALESCE(x.n_occ, 0) AS BIGINT) AS n_occ
            FROM s LEFT JOIN (
                SELECT source, count(*) AS n_docs, SUM(n) AS n_occ
                FROM m GROUP BY source
            ) x USING (source)
            ORDER BY source
        """,
        # bloom_semi_join: plain WHERE EXISTS — the bloom is invisible
        # to semantics, only to exchange volume.
        "bloom_semi_join": """
            WITH s AS (
                SELECT l_returnflag, l_extendedprice FROM lineitem l
                WHERE EXISTS (
                    SELECT 1 FROM orders o
                    WHERE o.o_orderkey = l.l_orderkey
                      AND o.o_totalprice > 450000.0
                )
            )
            SELECT l_returnflag, CAST(count(*) AS BIGINT) AS n,
                   CAST(SUM(CAST(FLOOR(l_extendedprice * 100 + 0.5)
                                 AS BIGINT)) AS BIGINT) AS revenue_cents
            FROM s GROUP BY l_returnflag ORDER BY l_returnflag
        """,
        # bloom_fpr: bit-for-bit replay of the production Bloom —
        # splitmix64 (HUGEINT masked multiplies) twice per key for
        # (h1, h2), Kirsch–Mitzenmacher positions (h1 + i*h2) & 4095,
        # build-side position set, probe hit = all k positions present.
        "bloom_fpr": f"""
            WITH build AS (SELECT DISTINCT c_custkey::UBIGINT AS key
                           FROM customer WHERE c_custkey IS NOT NULL),
            probe AS (SELECT DISTINCT p_partkey::UBIGINT AS key
                      FROM part WHERE p_partkey IS NOT NULL),
            allk AS (SELECT key FROM build UNION SELECT key FROM probe),
            k0 AS (SELECT key, key AS ua FROM allk),
            {_splitmix64_ctes('k0', 'a', 'ua', 'ha')},
            k1 AS (SELECT key, ha,
                          xor(ha, 11400714819323198485::UBIGINT) AS ub
                   FROM a4),
            {_splitmix64_ctes('k1', 'b', 'ub', 'hb')},
            kh AS (SELECT key, ha AS h1, (hb | 1::UBIGINT) AS h2
                   FROM b4),
            pos AS (SELECT key,
                           ((h1::HUGEINT + i * h2::HUGEINT)
                            & 4095)::BIGINT AS p
                    FROM kh, (SELECT unnest(range(2)) AS i)),
            bbits AS (SELECT DISTINCT p FROM pos
                      WHERE key IN (SELECT key FROM build)),
            ph AS (SELECT pos.key,
                          CASE WHEN bool_and(bb.p IS NOT NULL)
                               THEN 1 ELSE 0 END AS bloom_hit
                   FROM pos JOIN probe USING (key)
                   LEFT JOIN bbits bb ON pos.p = bb.p
                   GROUP BY pos.key)
            SELECT CAST(ph.key AS BIGINT) AS p_partkey,
                   CASE WHEN ph.key IN (SELECT key FROM build)
                        THEN 1 ELSE 0 END AS is_member,
                   ph.bloom_hit AS bloom_hit
            FROM ph ORDER BY p_partkey
        """,
        # decontam_clean_chain: NOT EXISTS over the same cosine screen.
        "decontam_clean_chain": """
            SELECT t.label,
                   CAST(count(*) AS BIGINT) AS n_clean,
                   CAST(sum(t.vec_id) AS BIGINT) AS sum_vec_id
            FROM embeddings t
            WHERE t.label <> 0 AND NOT EXISTS (
                SELECT 1 FROM embeddings e
                WHERE e.label = 0
                  AND list_cosine_similarity(
                          CAST(t.embedding AS DOUBLE[]),
                          CAST(e.embedding AS DOUBLE[])) >= 0.35)
            GROUP BY t.label ORDER BY t.label
        """,
        # ewma_activity: Q40 fixed-point decay replayed with integer
        # shifts; T is the corpus-wide max day.
        "ewma_activity": """
            WITH d AS (
                SELECT event_type,
                       date_diff('day', DATE '1970-01-01',
                                 CAST(ts AS DATE)) AS day,
                       count(*) AS c
                FROM events WHERE ts IS NOT NULL GROUP BY 1, 2
            ), t AS (SELECT max(day) AS td FROM d)
            SELECT event_type,
                   CAST(sum(c) AS BIGINT) AS n_events,
                   CAST(count(*) AS BIGINT) AS n_days,
                   CAST(sum(CASE WHEN td - day <= 40
                            THEN c * (1::BIGINT << (40 - (td - day)))
                            ELSE 0 END) AS BIGINT) AS ewma_q40
            FROM d, t GROUP BY event_type ORDER BY event_type
        """,
        # semantic_decontam: normalized cosine against every eval
        # vector; min matching eval id replays the engine's ascending-
        # id argmax tie-break.
        "semantic_decontam": """
            SELECT t.vec_id,
                   min(e.vec_id) AS matched_eval_id
            FROM embeddings t, embeddings e
            WHERE t.label <> 0 AND e.label = 0
              AND list_cosine_similarity(
                      CAST(t.embedding AS DOUBLE[]),
                      CAST(e.embedding AS DOUBLE[])) >= 0.35
            GROUP BY t.vec_id ORDER BY t.vec_id
        """,
        # k_anonymity: GROUP BY ... HAVING count < k.
        # t_closeness: pair counts -> global bands + total -> exact
        # integer TVD numerator (present terms + missing-band mass) ->
        # the 20*tvd_num > 18*ng*N cross-multiplied gate.
        "t_closeness": """
            WITH pairs AS (
                SELECT c_mktsegment,
                       CAST(c_nationkey AS BIGINT) AS c_nationkey,
                       CAST(floor(CAST(c_acctbal AS DOUBLE) / 2000.0)
                            AS BIGINT) AS band,
                       CAST(count(*) AS BIGINT) AS c
                FROM customer GROUP BY 1, 2, 3
            ),
            gb AS (SELECT band, CAST(sum(c) AS BIGINT) AS cb
                   FROM pairs GROUP BY band),
            tot AS (SELECT CAST(sum(c) AS BIGINT) AS n FROM pairs),
            grp AS (SELECT c_mktsegment, c_nationkey,
                           CAST(sum(c) AS BIGINT) AS ng
                    FROM pairs GROUP BY 1, 2),
            terms AS (
                SELECT p.c_mktsegment, p.c_nationkey,
                       CAST(sum(abs(p.c * t.n - g2.ng * gb.cb))
                            AS BIGINT) AS pt,
                       CAST(sum(gb.cb) AS BIGINT) AS pcb
                FROM pairs p
                JOIN gb USING (band)
                JOIN grp g2 USING (c_mktsegment, c_nationkey), tot t
                GROUP BY 1, 2
            )
            SELECT t2.c_mktsegment, t2.c_nationkey,
                   g2.ng AS n_rows,
                   CAST(t2.pt + g2.ng * (t.n - t2.pcb) AS BIGINT)
                       AS tvd_num
            FROM terms t2
            JOIN grp g2 USING (c_mktsegment, c_nationkey), tot t
            WHERE 20 * (t2.pt + g2.ng * (t.n - t2.pcb))
                  > 2 * 9 * g2.ng * t.n
            ORDER BY c_mktsegment, c_nationkey
        """,
        # l_diversity: distinct (quasi, band) pairs with row counts,
        # then per-combination distinct-band + row totals, under-l.
        "l_diversity": """
            WITH pairs AS (
                SELECT c_mktsegment,
                       CAST(c_nationkey AS BIGINT) AS c_nationkey,
                       CAST(floor(CAST(c_acctbal AS DOUBLE) / 2000.0)
                            AS BIGINT) AS band,
                       CAST(count(*) AS BIGINT) AS n
                FROM customer GROUP BY 1, 2, 3
            )
            SELECT c_mktsegment, c_nationkey,
                   CAST(count(*) AS BIGINT) AS n_sensitive,
                   CAST(sum(n) AS BIGINT) AS n_rows
            FROM pairs GROUP BY 1, 2
            HAVING count(*) < 4
            ORDER BY c_mktsegment, c_nationkey
        """,
        "k_anonymity": """
            SELECT c_mktsegment, c_nationkey,
                   CAST(count(*) AS BIGINT) AS n
            FROM customer
            GROUP BY c_mktsegment, c_nationkey
            HAVING count(*) < 8
            ORDER BY c_mktsegment, c_nationkey
        """,
        # join_explain: full-outer over the two per-key count tables;
        # every output is an integer sufficient statistic.
        "join_explain": """
            WITH l AS (SELECT l_orderkey AS key, count(*) AS cl
                       FROM lineitem WHERE l_orderkey IS NOT NULL
                       GROUP BY 1),
            r AS (SELECT o_orderkey AS key, count(*) AS cr FROM orders
                  WHERE o_totalprice > 300000.0
                    AND o_orderkey IS NOT NULL GROUP BY 1),
            j AS (SELECT coalesce(cl, 0) AS cl, coalesce(cr, 0) AS cr
                  FROM l FULL OUTER JOIN r USING (key))
            SELECT CAST(sum(cl) AS BIGINT) AS n_left,
                   CAST(sum(cr) AS BIGINT) AS n_right,
                   CAST((SELECT count(*) FROM lineitem
                         WHERE l_orderkey IS NULL)
                      + (SELECT count(*) FROM orders
                         WHERE o_totalprice > 300000.0
                           AND o_orderkey IS NULL) AS BIGINT)
                       AS n_null_both,
                   CAST(count(*) FILTER (cl > 0) AS BIGINT)
                       AS n_keys_left,
                   CAST(count(*) FILTER (cr > 0) AS BIGINT)
                       AS n_keys_right,
                   CAST(count(*) FILTER (cl > 0 AND cr > 0) AS BIGINT)
                       AS n_keys_both,
                   CAST(sum(cl * cr) AS BIGINT) AS est_inner_rows,
                   CAST(max(cl * cr) AS BIGINT) AS max_fanout,
                   CAST(count(*) FILTER (cl > 0 AND cr = 0) AS BIGINT)
                       AS n_keys_left_only,
                   CAST(count(*) FILTER (cr > 0 AND cl = 0) AS BIGINT)
                       AS n_keys_right_only
            FROM j
        """,
        # anti_join: plain WHERE NOT EXISTS — the bloom split is
        # invisible to semantics, only to exchange volume.
        "anti_join": """
            SELECT c_mktsegment, CAST(count(*) AS BIGINT) AS n,
                   CAST(SUM(CAST(FLOOR(c_acctbal * 100 + 0.5)
                                 AS BIGINT)) AS BIGINT) AS bal_cents
            FROM customer c
            WHERE NOT EXISTS (
                SELECT 1 FROM orders o
                WHERE o.o_custkey = c.c_custkey
                  AND o.o_totalprice > 300000.0
            )
            GROUP BY c_mktsegment ORDER BY c_mktsegment
        """,
        # basket_pairs: distinct (order, part) self-join; same total
        # order for the top-25 cut.
        "basket_pairs": """
            WITH d AS (
                SELECT DISTINCT l_orderkey AS ok, l_partkey AS pk
                FROM lineitem
            ), p AS (
                SELECT a.pk AS item_a, b.pk AS item_b, count(*) AS n
                FROM d a JOIN d b ON a.ok = b.ok AND a.pk < b.pk
                GROUP BY 1, 2
            )
            SELECT item_a, item_b, CAST(n AS BIGINT) AS n_groups
            FROM p ORDER BY n DESC, item_a, item_b LIMIT 25
        """,
        # triangles: same degree-(then id)-ordered orientation via SQL
        # row-value comparison; wedges = oriented out-neighbor pairs;
        # closing edge looked up in the undirected edge set.
        # kcore: unroll the 3 synchronous peel rounds as CTEs — each
        # round recomputes degrees over the surviving edge set and
        # keeps edges whose BOTH endpoints still have deg >= 22.
        "kcore": """
            WITH li AS (
                SELECT l_orderkey * 1000 + l_linenumber AS k, l_partkey
                FROM lineitem
            ), e AS (
                SELECT DISTINCT a.l_partkey AS src, b.l_partkey AS dst
                FROM li a JOIN li b ON b.k = a.k + 1
                WHERE a.l_partkey <> b.l_partkey
            ), e0 AS (
                SELECT DISTINCT LEAST(src, dst) AS a,
                                GREATEST(src, dst) AS b
                FROM e
            ),
            d1 AS (SELECT v, count(*) AS deg FROM (
                       SELECT a AS v FROM e0
                       UNION ALL SELECT b AS v FROM e0) GROUP BY v),
            a1 AS (SELECT v FROM d1 WHERE deg >= 22),
            e1 AS (SELECT a, b FROM e0
                   WHERE a IN (SELECT v FROM a1)
                     AND b IN (SELECT v FROM a1)),
            d2 AS (SELECT v, count(*) AS deg FROM (
                       SELECT a AS v FROM e1
                       UNION ALL SELECT b AS v FROM e1) GROUP BY v),
            a2 AS (SELECT v FROM d2 WHERE deg >= 22),
            e2 AS (SELECT a, b FROM e1
                   WHERE a IN (SELECT v FROM a2)
                     AND b IN (SELECT v FROM a2)),
            d3 AS (SELECT v, count(*) AS deg FROM (
                       SELECT a AS v FROM e2
                       UNION ALL SELECT b AS v FROM e2) GROUP BY v),
            a3 AS (SELECT v FROM d3 WHERE deg >= 22),
            e3 AS (SELECT a, b FROM e2
                   WHERE a IN (SELECT v FROM a3)
                     AND b IN (SELECT v FROM a3))
            SELECT CAST(v AS BIGINT) AS v, CAST(count(*) AS BIGINT) AS deg
            FROM (SELECT a AS v FROM e3 UNION ALL SELECT b AS v FROM e3)
            GROUP BY v ORDER BY v
        """,
        "triangles": """
            WITH li AS (
                SELECT l_orderkey * 1000 + l_linenumber AS k, l_partkey
                FROM lineitem
            ), e AS (
                SELECT DISTINCT a.l_partkey AS src, b.l_partkey AS dst
                FROM li a JOIN li b ON b.k = a.k + 1
                WHERE a.l_partkey <> b.l_partkey
            ), u AS (
                SELECT DISTINCT LEAST(src, dst) AS a,
                                GREATEST(src, dst) AS b
                FROM e
            ), d AS (
                SELECT v, count(*) AS deg FROM (
                    SELECT a AS v FROM u UNION ALL SELECT b AS v FROM u
                ) GROUP BY v
            ), o AS (
                SELECT CASE WHEN (da.deg, u.a) < (db.deg, u.b)
                            THEN u.a ELSE u.b END AS s,
                       CASE WHEN (da.deg, u.a) < (db.deg, u.b)
                            THEN u.b ELSE u.a END AS t
                FROM u JOIN d da ON da.v = u.a JOIN d db ON db.v = u.b
            ), w AS (
                SELECT o1.s, LEAST(o1.t, o2.t) AS x,
                       GREATEST(o1.t, o2.t) AS y
                FROM o o1 JOIN o o2 ON o1.s = o2.s AND o1.t < o2.t
            )
            SELECT (SELECT CAST(count(*) AS BIGINT) FROM d) AS n_nodes,
                   (SELECT CAST(count(*) AS BIGINT) FROM u) AS n_edges,
                   (SELECT CAST(count(*) AS BIGINT) FROM w) AS n_wedges,
                   (SELECT CAST(count(*) AS BIGINT)
                    FROM w JOIN u ON u.a = w.x AND u.b = w.y)
                       AS n_triangles
        """,
        # cdc_reprocess_chain: diff -> dirty keys -> semi-join -> rollup
        # in one statement; length() = Python len on the ASCII corpus.
        "cdc_reprocess_chain": """
            WITH l AS (
                SELECT doc_id, text FROM documents WHERE doc_id % 7 != 5
            ), r AS (
                SELECT doc_id, lang,
                       CASE WHEN doc_id % 4 = 0 THEN text || ' v2'
                            ELSE text END AS text
                FROM documents WHERE doc_id % 7 != 3
            ), dirty AS (
                SELECT r.doc_id FROM r LEFT JOIN l USING (doc_id)
                WHERE l.doc_id IS NULL OR l.text <> r.text
            )
            SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(SUM(length(text)) AS BIGINT) AS sum_chars
            FROM r JOIN dirty USING (doc_id)
            GROUP BY lang ORDER BY lang
        """,
        # mad_outliers: nested percentile_disc medians; identical IEEE
        # ABS/compare expression tree.
        "mad_outliers": """
            WITH m AS (
                SELECT event_type,
                       percentile_disc(0.5) WITHIN GROUP
                           (ORDER BY value) AS med
                FROM events GROUP BY event_type
            ), d AS (
                SELECT e.event_type, e.value, m.med,
                       ABS(e.value - m.med) AS dev
                FROM events e JOIN m USING (event_type)
            ), md AS (
                SELECT event_type,
                       percentile_disc(0.5) WITHIN GROUP
                           (ORDER BY dev) AS mad
                FROM d GROUP BY event_type
            )
            SELECT d.event_type, CAST(count(*) AS BIGINT) AS n,
                   MAX(d.med) AS med, MAX(md.mad) AS mad,
                   CAST(SUM(CASE WHEN d.dev > 3.0 * md.mad
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_outliers
            FROM d JOIN md USING (event_type)
            GROUP BY d.event_type ORDER BY d.event_type
        """,
        # user_paths: string_agg with in-aggregate ORDER BY (ts, id) —
        # a total order, event ids unique; same top-20 boundary rule.
        "user_paths": """
            WITH p AS (
                SELECT user_id,
                       CAST(ts AS DATE) AS day,
                       string_agg(event_type, '>'
                           ORDER BY ts, event_id) AS path
                FROM events GROUP BY user_id, day
            )
            SELECT path, CAST(count(*) AS BIGINT) AS n_user_days
            FROM p GROUP BY path
            ORDER BY n_user_days DESC, path LIMIT 20
        """,
        # event_pattern: RE2's regexp_extract_all replays Python
        # re.findall because the non-overlapping scan semantics of
        # 'vc+p' (greedy class repetition, terminal literal) agree.
        "event_pattern": """
            WITH s AS (
                SELECT user_id,
                       string_agg(CASE event_type
                                  WHEN 'view' THEN 'v'
                                  WHEN 'click' THEN 'c'
                                  WHEN 'purchase' THEN 'p'
                                  WHEN 'signup' THEN 's'
                                  ELSE 'e' END, ''
                                  ORDER BY ts, event_id) AS seq
                FROM events GROUP BY user_id
            )
            SELECT user_id,
                   CAST(len(regexp_extract_all(seq, 'vc+p'))
                        AS BIGINT) AS n_matches
            FROM s
            WHERE len(regexp_extract_all(seq, 'vc+p')) >= 1
            ORDER BY user_id
        """,
        # profile_lineitem: one UNION ALL leg per declared column.
        "profile_lineitem": """
            WITH legs AS (
                SELECT 'l_quantity' AS column_name, l_quantity AS v FROM lineitem
                UNION ALL
                SELECT 'l_extendedprice', l_extendedprice FROM lineitem
                UNION ALL
                SELECT 'l_discount', l_discount FROM lineitem
                UNION ALL
                SELECT 'l_tax', l_tax FROM lineitem
            )
            SELECT column_name, CAST(count(*) AS BIGINT) AS n,
                   CAST(SUM(CASE WHEN v IS NULL THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_null,
                   MIN(v) AS min_v, MAX(v) AS max_v,
                   CAST(SUM(CAST(FLOOR(v * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS sum_cents
            FROM legs GROUP BY column_name ORDER BY column_name
        """,
        # sort_bounds: identical md5 sample draw + percentile_disc.
        "sort_bounds": """
            WITH s AS (
                SELECT l_extendedprice AS v FROM lineitem
                WHERE substr(md5(CAST(l_orderkey * 1000 + l_linenumber
                                      AS VARCHAR)), 1, 8) < '19999999'
            )
            SELECT CAST(1/8.0 AS DOUBLE) AS q, percentile_disc(1/8.0) WITHIN GROUP (ORDER BY v) AS bound FROM s
            UNION ALL SELECT CAST(2/8.0 AS DOUBLE) AS q, percentile_disc(2/8.0) WITHIN GROUP (ORDER BY v) AS bound FROM s
            UNION ALL SELECT CAST(3/8.0 AS DOUBLE) AS q, percentile_disc(3/8.0) WITHIN GROUP (ORDER BY v) AS bound FROM s
            UNION ALL SELECT CAST(4/8.0 AS DOUBLE) AS q, percentile_disc(4/8.0) WITHIN GROUP (ORDER BY v) AS bound FROM s
            UNION ALL SELECT CAST(5/8.0 AS DOUBLE) AS q, percentile_disc(5/8.0) WITHIN GROUP (ORDER BY v) AS bound FROM s
            UNION ALL SELECT CAST(6/8.0 AS DOUBLE) AS q, percentile_disc(6/8.0) WITHIN GROUP (ORDER BY v) AS bound FROM s
            UNION ALL SELECT CAST(7/8.0 AS DOUBLE) AS q, percentile_disc(7/8.0) WITHIN GROUP (ORDER BY v) AS bound FROM s
            ORDER BY q
        """,
        # latest_version: ROW_NUMBER over the same total order.
        "latest_version": """
            SELECT user_id, event_type, ts, event_id, value FROM (
                SELECT *, ROW_NUMBER() OVER (
                    PARTITION BY user_id, event_type
                    ORDER BY ts DESC, event_id DESC) AS rk
                FROM events
            ) WHERE rk = 1 ORDER BY user_id, event_type
        """,
        # shot_boundaries: the scene formula guarantees every scene
        # change clears the threshold (mean delta (128+1)/3 ≈ 43 > 10)
        # and nothing within a scene does (1/3); the oracle replays the
        # boundary set the decode path must reproduce byte-exactly.
        "shot_boundaries": """
            WITH d AS (
                SELECT doc_id, 8 + doc_id % 9 AS nf, 3 + doc_id % 3 AS sl
                FROM documents WHERE doc_id % 5 = 0
            ), b AS (
                SELECT doc_id, t.f FROM d,
                     UNNEST(generate_series(1, nf - 1)) AS t(f)
                WHERE f % sl = 0
            )
            SELECT doc_id, CAST(f AS INTEGER) AS frame_idx
            FROM b ORDER BY doc_id, frame_idx
        """,
        # interval_overlap: the same floor-bucket expansion in SQL —
        # equivalently a correlated non-equi join, but the bucket replay
        # pins the engine's binning algebra exactly.
        "interval_overlap": """
            WITH iv AS (
                SELECT user_id, CAST(ts AS DATE) AS d,
                       MIN(ts) AS s, MAX(ts) AS e
                FROM events GROUP BY 1, 2
            ), b AS (
                SELECT epoch_us(s) // 21600000000 AS b0,
                       epoch_us(e) // 21600000000 AS b1
                FROM iv
            ), x AS (
                SELECT t.k FROM b,
                     UNNEST(generate_series(b0, b1)) AS t(k)
            )
            SELECT CAST(k * 21600000000 AS BIGINT) AS window_us,
                   CAST(count(*) AS BIGINT) AS n_intervals
            FROM x GROUP BY 1 ORDER BY 1
        """,
        # engagement_chain: the sessionize CTEs feed the same bucket
        # rollup; duration summed in integer microseconds.
        "engagement_chain": """
            WITH marks AS (
              SELECT user_id, ts, event_id,
                     CASE WHEN LAG(ts) OVER w IS NULL
                               OR ts - LAG(ts) OVER w > INTERVAL 30 MINUTE
                          THEN 1 ELSE 0 END AS new_s
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ), nums AS (
              SELECT user_id, ts,
                     SUM(new_s) OVER (PARTITION BY user_id
                         ORDER BY ts, event_id
                         ROWS UNBOUNDED PRECEDING) AS session_id
              FROM marks
            ), sess AS (
              SELECT user_id, session_id, COUNT(*) AS n_events,
                     epoch_us(MAX(ts)) - epoch_us(MIN(ts)) AS dur_us
              FROM nums GROUP BY user_id, session_id
            )
            SELECT CASE WHEN n_events < 2 THEN '1'
                        WHEN n_events < 4 THEN '2-3'
                        WHEN n_events < 8 THEN '4-7'
                        ELSE '8+' END AS bucket,
                   CAST(count(*) AS BIGINT) AS n_sessions,
                   CAST(SUM(n_events) AS BIGINT) AS sum_events,
                   CAST(SUM(dur_us) AS BIGINT) AS sum_duration_us
            FROM sess GROUP BY bucket ORDER BY bucket
        """,
        # pivot_roundtrip: the dense user × type grid with explicit
        # zeros and the 'n_<type>' variable labels the melt emits.
        "pivot_roundtrip": """
            WITH u AS (SELECT DISTINCT user_id FROM events),
            t AS (
                SELECT * FROM (VALUES ('n_click', 'click'),
                                      ('n_error', 'error'),
                                      ('n_purchase', 'purchase'),
                                      ('n_signup', 'signup'),
                                      ('n_view', 'view'))
                     AS v(variable, et)
            ), c AS (
                SELECT user_id, event_type, count(*) AS n
                FROM events GROUP BY 1, 2
            )
            SELECT u.user_id, t.variable,
                   CAST(COALESCE(c.n, 0) AS BIGINT) AS n
            FROM u CROSS JOIN t
            LEFT JOIN c ON c.user_id = u.user_id AND c.event_type = t.et
            ORDER BY u.user_id, t.variable
        """,
        # markov_events: lag() window replays the per-user (ts, id)
        # sequencing; p is the identical single IEEE division n/tot.
        "markov_events": """
            WITH l AS (
                SELECT event_type,
                       lag(event_type) OVER (
                           PARTITION BY user_id
                           ORDER BY ts, event_id) AS prev_type
                FROM events
            ), c AS (
                SELECT prev_type, event_type,
                       CAST(count(*) AS BIGINT) AS n
                FROM l WHERE prev_type IS NOT NULL
                GROUP BY prev_type, event_type
            ), t AS (
                SELECT prev_type, SUM(n) AS tot FROM c GROUP BY prev_type
            )
            SELECT c.prev_type, c.event_type, c.n,
                   CAST(c.n AS DOUBLE) / CAST(t.tot AS DOUBLE) AS p
            FROM c JOIN t USING (prev_type)
            ORDER BY c.prev_type, c.event_type
        """,
        # attribution: the engagement_chain sessionize CTE + ROW_NUMBER
        # first-touch and an exact integer-cent conversion rollup.
        "attribution": """
            WITH marks AS (
              SELECT user_id, ts, event_id, event_type, value,
                     CASE WHEN LAG(ts) OVER w IS NULL
                               OR ts - LAG(ts) OVER w > INTERVAL 30 MINUTE
                          THEN 1 ELSE 0 END AS new_s
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ), nums AS (
              SELECT *, SUM(new_s) OVER (PARTITION BY user_id
                         ORDER BY ts, event_id
                         ROWS UNBOUNDED PRECEDING) AS session_id
              FROM marks
            ), ranked AS (
              SELECT *, ROW_NUMBER() OVER (
                         PARTITION BY user_id, session_id
                         ORDER BY ts, event_id) AS rn
              FROM nums
            ), sess AS (
              SELECT user_id, session_id,
                     MAX(CASE WHEN rn = 1 THEN event_type END)
                         AS first_touch,
                     MAX(CASE WHEN event_type = 'purchase'
                              THEN 1 ELSE 0 END) AS converted,
                     SUM(CASE WHEN event_type = 'purchase'
                              THEN CAST(FLOOR(CAST(value AS DOUBLE) * 100
                                              + 0.5) AS BIGINT)
                              ELSE 0 END) AS conv_cents
              FROM ranked GROUP BY user_id, session_id
            )
            SELECT first_touch,
                   CAST(count(*) AS BIGINT) AS n_sessions,
                   CAST(SUM(converted) AS BIGINT) AS n_converted,
                   CAST(SUM(CASE WHEN converted = 1 THEN conv_cents
                                 ELSE 0 END) AS BIGINT)
                       AS converted_value_cents
            FROM sess GROUP BY first_touch ORDER BY first_touch
        """,
        # rolling_anomaly: SUM/COUNT OVER ROWS BETWEEN 4 PRECEDING AND
        # 1 PRECEDING; the flag compare is pure int64 on both sides.
        "rolling_anomaly": """
            WITH c AS (
                SELECT user_id, event_id, ts,
                       CAST(FLOOR(CAST(value AS DOUBLE) * 100 + 0.5)
                            AS BIGINT) AS cents
                FROM events
            ), w AS (
                SELECT user_id, event_id, cents,
                       SUM(cents) OVER (PARTITION BY user_id
                           ORDER BY ts, event_id
                           ROWS BETWEEN 4 PRECEDING AND 1 PRECEDING)
                           AS trail_sum,
                       COUNT(*) OVER (PARTITION BY user_id
                           ORDER BY ts, event_id
                           ROWS BETWEEN 4 PRECEDING AND 1 PRECEDING)
                           AS cnt
                FROM c
            )
            SELECT user_id, event_id, cents,
                   CAST(trail_sum AS BIGINT) AS trail_sum
            FROM w WHERE cnt = 4 AND cents * 4 > 2 * trail_sum
            ORDER BY event_id
        """,
        # ntile_values: NTILE over the identical (cents, event_id)
        # total order; per-bucket int64 rollup.
        "ntile_values": """
            WITH c AS (
                SELECT event_id,
                       CAST(FLOOR(CAST(value AS DOUBLE) * 100 + 0.5)
                            AS BIGINT) AS cents
                FROM events
            ), t AS (
                SELECT cents,
                       ntile(8) OVER (ORDER BY cents, event_id) AS bucket
                FROM c
            )
            SELECT CAST(bucket AS BIGINT) AS bucket,
                   CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(min(cents) AS BIGINT) AS min_cents,
                   CAST(max(cents) AS BIGINT) AS max_cents,
                   CAST(sum(cents) AS BIGINT) AS sum_cents
            FROM t GROUP BY bucket ORDER BY bucket
        """,
        # key_skew_gini: row_number over (count, key) replays the
        # ranking; gini is the one shared IEEE division.
        "key_skew_gini": """
            WITH c AS (
                SELECT l_partkey AS key, count(*) AS n
                FROM lineitem GROUP BY 1
            ), r AS (
                SELECT n, row_number() OVER (ORDER BY n, key) AS rn
                FROM c
            ), s AS (
                SELECT CAST(count(*) AS BIGINT) AS k,
                       CAST(SUM(n) AS BIGINT) AS tot,
                       CAST(SUM(rn * n) AS BIGINT) AS s1,
                       CAST(MAX(n) AS BIGINT) AS max_n
                FROM r
            )
            SELECT k AS n_keys, tot AS total_rows, max_n AS max_count,
                   s1 AS rank_weighted_sum,
                   CAST(2 * s1 - (k + 1) * tot AS DOUBLE)
                       / CAST(k * tot AS DOUBLE) AS gini
            FROM s
        """,
        # audio_autocorr: replay the planted PCM ramp per lag with a
        # lateral generate_series — Σ s(j)·s(j+L) in pure integers.
        "audio_autocorr": """
            WITH p AS (
                SELECT doc_id, 50 + doc_id % 150 AS nf, doc_id % 7 + 1 AS k
                FROM documents
            ), a AS (
                SELECT p.doc_id,
                       sum(((p.k * t.j) % 2001 - 1000)
                           * ((p.k * t.j) % 2001 - 1000)) AS ac_0
                FROM p, unnest(generate_series(0, p.nf - 1)) AS t(j)
                GROUP BY p.doc_id
            ), l1 AS (
                SELECT p.doc_id,
                       sum(((p.k * t.j) % 2001 - 1000)
                           * ((p.k * (t.j + 1)) % 2001 - 1000)) AS ac_1
                FROM p, unnest(generate_series(0, p.nf - 2)) AS t(j)
                GROUP BY p.doc_id
            ), l2 AS (
                SELECT p.doc_id,
                       sum(((p.k * t.j) % 2001 - 1000)
                           * ((p.k * (t.j + 2)) % 2001 - 1000)) AS ac_2
                FROM p, unnest(generate_series(0, p.nf - 3)) AS t(j)
                GROUP BY p.doc_id
            ), l4 AS (
                SELECT p.doc_id,
                       sum(((p.k * t.j) % 2001 - 1000)
                           * ((p.k * (t.j + 4)) % 2001 - 1000)) AS ac_4
                FROM p, unnest(generate_series(0, p.nf - 5)) AS t(j)
                GROUP BY p.doc_id
            )
            SELECT p.doc_id, CAST(p.nf AS BIGINT) AS n_frames,
                   CAST(a.ac_0 AS BIGINT) AS ac_0,
                   CAST(l1.ac_1 AS BIGINT) AS ac_1,
                   CAST(l2.ac_2 AS BIGINT) AS ac_2,
                   CAST(l4.ac_4 AS BIGINT) AS ac_4
            FROM p JOIN a USING (doc_id) JOIN l1 USING (doc_id)
                 JOIN l2 USING (doc_id) JOIN l4 USING (doc_id)
        """,
        # caption_pairs: rebuild the deterministic interleaving
        # (shared _SPAN_CTES prefix) and replay the nearest-text
        # pairing with IGNORE NULLS windows.
        "caption_pairs": _SPAN_PAIR_CTES + """
            SELECT doc_id, media_ref, 'image' AS kind,
                   off AS "offset", caption, caption_src, distance
            FROM pairs ORDER BY doc_id, "offset"
        """,
        # caption_coverage: shared pairing CTE -> per-source rollup of
        # caption provenance + alignment distance (chain #24).
        "caption_coverage": _SPAN_PAIR_CTES + """
            SELECT d.source, p.caption_src,
                   CAST(COUNT(*) AS BIGINT) AS n_media,
                   CAST(SUM(p.distance) AS BIGINT) AS total_distance
            FROM pairs p JOIN documents d USING (doc_id)
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        # interleave_audit: same span synthesis; alternation = adjacent
        # spans (by offset, per doc) whose text-vs-media class differs.
        "interleave_audit": _SPAN_STATS_CTES + """
            SELECT * FROM stats
        """,
        # mm_pack: shared prefix-packing replay (_SPAN_PACK_CTES).
        "mm_pack": _SPAN_PACK_CTES + """
            SELECT * FROM packed ORDER BY doc_id, seq_idx
        """,
        # pack_overflow_audit: corpus rollup of the prefix rule's
        # overflow cost (chain #25) over the same packed CTE.
        "pack_overflow_audit": _SPAN_PACK_CTES + """
            SELECT CAST(COUNT(*) AS BIGINT) AS n_seqs,
                   CAST(SUM(CASE WHEN cost > 256 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_overflow,
                   CAST(SUM(cost) AS BIGINT) AS total_cost,
                   CAST(SUM(CASE WHEN cost > 256 THEN cost - 256
                                 ELSE 0 END) AS BIGINT)
                       AS total_overflow,
                   CAST(GREATEST(MAX(cost) - 256, 0) AS BIGINT)
                       AS max_overflow
            FROM packed
        """,
        # span_normalize: replay of spanio.normalize_spans_batch —
        # drop whitespace-empty TEXT spans, merge maximal adjacent-text
        # runs (trimmed texts joined with ' '), trim alts, renumber.
        # Run boundary = doc change OR NOT(both text); segment id via
        # running SUM of the boundary flag, merge via ordered
        # string_agg, first-of-segment kind/media via arg_min.
        "span_normalize": _SPAN_NORM_CTES + """
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(seg_id - 1 AS BIGINT) AS "offset",
                   kind, text, media_ref
            FROM nmerged ORDER BY doc_id, "offset"
        """,
        # doc_render: shared normalize replay -> one training string
        # per doc (text verbatim, media as the '<image>' sentinel,
        # single-space join in segment order) + token/image counts
        # (chain #28).
        "doc_render": _SPAN_NORM_CTES + """
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   string_agg(CASE WHEN kind = 'text' THEN text
                                   ELSE '<image>' END,
                              ' ' ORDER BY seg_id) AS rendered,
                   CAST(SUM(CASE WHEN kind = 'text'
                                 THEN len(string_split(text, ' '))
                                 ELSE 0 END) AS BIGINT)
                       AS n_text_tokens,
                   CAST(SUM(CASE WHEN kind <> 'text' THEN 1
                                 ELSE 0 END) AS BIGINT) AS n_images
            FROM nmerged GROUP BY doc_id ORDER BY doc_id
        """,
        # span_dedup: shared normalize replay -> canonical doc string
        # (kind + US + text per span, RS-joined, media masked) -> the
        # ENGINE'S md5-derived int64 fingerprint -> min-doc groups.
        "span_dedup": _SPAN_NORM_CTES + """
            , canon AS (
                SELECT doc_id,
                       string_agg(kind || chr(31) || text, chr(30)
                                  ORDER BY seg_id) AS cs
                FROM nmerged GROUP BY doc_id
            ), sfp AS (
                SELECT doc_id,
                       CAST('0x' || substr(md5(cs), 1, 15) AS BIGINT)
                           AS span_fp
                FROM canon
            )
            SELECT span_fp,
                   CAST(MIN(doc_id) AS BIGINT) AS keep_doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_dups
            FROM sfp GROUP BY span_fp ORDER BY keep_doc_id
        """,
        # template_score: ngram_novelty's md5-keyed 4-gram windows ->
        # corpus counts joined back per (window, doc) occurrence ->
        # per-doc sum + ONE IEEE division for the mean.
        "template_score": """
            WITH base AS (
                SELECT doc_id, string_split(trim(text), ' ') AS a
                FROM documents
            ),
            w AS (
                SELECT doc_id,
                       CAST('0x' || substr(md5(
                           array_to_string(a[i:i+3], ' ')), 1, 15)
                           AS BIGINT) AS k
                FROM base, UNNEST(generate_series(1, len(a) - 3)) AS t(i)
            ),
            dw AS (
                SELECT k, doc_id, CAST(count(*) AS BIGINT) AS c
                FROM w GROUP BY k, doc_id
            ),
            tot AS (SELECT k, SUM(c) AS tot FROM dw GROUP BY k),
            sc AS (
                SELECT dw.doc_id, SUM(dw.c) AS n_win,
                       SUM(dw.c * tot.tot) AS s
                FROM dw JOIN tot USING (k) GROUP BY dw.doc_id
            )
            SELECT d.doc_id,
                   CAST(COALESCE(sc.n_win, 0) AS BIGINT) AS n_windows,
                   CAST(COALESCE(sc.s, 0) AS BIGINT) AS sum_freq,
                   CASE WHEN COALESCE(sc.n_win, 0) > 0
                        THEN CAST(sc.s AS DOUBLE) / sc.n_win
                        ELSE 0.0 END AS template_score
            FROM documents d LEFT JOIN sc USING (doc_id)
            ORDER BY d.doc_id
        """,
        # dedup_cascade_chain (chain #31): md5-int64 exact-dedup
        # keepers -> the full MinHash CTE stack replayed over the
        # SURVIVOR corpus (src='survdocs') -> exact-Jaccard removed set
        # (doc_b of each pair >= 0.5) -> per-source funnel.
        "dedup_cascade_chain": """
            WITH fps AS (
                SELECT doc_id, source,
                       CAST('0x' || substr(md5(trim(text)), 1, 15)
                           AS BIGINT) AS fp
                FROM documents
            ), keepers AS (
                SELECT MIN(doc_id) AS doc_id FROM fps GROUP BY fp
            ), survdocs AS (
                SELECT d.doc_id, d.text
                FROM documents d JOIN keepers USING (doc_id)
            ), """ + _minhash_ctes(src="survdocs") + """,
            nset AS (SELECT doc_id, count(*) AS ns FROM docg
                     GROUP BY doc_id),
            inter AS (SELECT p.doc_a, p.doc_b, count(*) AS ni
                      FROM cpairs p
                      JOIN docg x ON x.doc_id = p.doc_a
                      JOIN docg y ON y.doc_id = p.doc_b AND y.g = x.g
                      GROUP BY 1, 2),
            removed AS (
                SELECT DISTINCT p.doc_b AS doc_id
                FROM cpairs p
                LEFT JOIN inter i ON i.doc_a = p.doc_a
                                 AND i.doc_b = p.doc_b
                JOIN nset na ON na.doc_id = p.doc_a
                JOIN nset nb ON nb.doc_id = p.doc_b
                WHERE CAST(COALESCE(i.ni, 0) AS DOUBLE)
                      / CAST(na.ns + nb.ns - COALESCE(i.ni, 0)
                             AS DOUBLE) >= 0.5
            )
            SELECT d.source,
                   CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(COUNT(*) FILTER (k.doc_id IS NOT NULL)
                        AS BIGINT) AS n_exact_kept,
                   CAST(COUNT(*) FILTER (k.doc_id IS NOT NULL
                                         AND r.doc_id IS NULL)
                        AS BIGINT) AS n_near_kept
            FROM documents d
            LEFT JOIN keepers k ON k.doc_id = d.doc_id
            LEFT JOIN removed r ON r.doc_id = d.doc_id
            GROUP BY d.source ORDER BY d.source
        """,
        # leakage_safe_split (chain #32): exact-content group ids
        # (min doc per md5-int64 fp) -> split_assign's md5 hex-bucket
        # rule applied to the GROUP id, per-doc assignment.
        "leakage_safe_split": """
            WITH fps AS (
                SELECT doc_id,
                       CAST('0x' || substr(md5(trim(text)), 1, 15)
                           AS BIGINT) AS fp
                FROM documents
            ), grp AS (
                SELECT fp, MIN(doc_id) AS group_id FROM fps GROUP BY fp
            ), tagged AS (
                SELECT f.doc_id, g.group_id
                FROM fps f JOIN grp g USING (fp)
            )
            SELECT doc_id, group_id,
                   CASE WHEN substr(md5(CAST(group_id AS VARCHAR)), 1, 8)
                             < 'cccccccc' THEN 'train'
                        WHEN substr(md5(CAST(group_id AS VARCHAR)), 1, 8)
                             < 'e6666666' THEN 'val'
                        ELSE 'test' END AS split
            FROM tagged ORDER BY doc_id
        """,
        # embedding_audit: integer-exact vector health counts; all-zero
        # is min=max=0 per list (||v||=0 without a float norm); a
        # non-finite vector is excluded from the zero count both sides.
        "embedding_audit": """
            SELECT label AS "group",
                   CAST(COUNT(*) AS BIGINT) AS n_vecs,
                   CAST(SUM(CASE WHEN len(embedding) <> 64
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_bad_dim,
                   CAST(SUM(CASE WHEN len(list_filter(embedding,
                                     x -> NOT isfinite(x))) > 0
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_nonfinite,
                   CAST(SUM(CASE WHEN len(embedding) > 0
                                 AND len(list_filter(embedding,
                                     x -> NOT isfinite(x))) = 0
                                 AND list_aggregate(embedding,
                                                    'min') = 0
                                 AND list_aggregate(embedding,
                                                    'max') = 0
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_zero
            FROM embeddings GROUP BY label ORDER BY label
        """,
        # span_pack_chain (chain #34): shared normalize replay ->
        # prefix-pack window SUM over nmerged (seg order) -> per-(doc,
        # seq) ordered string_agg render + integer rollups.
        "span_pack_chain": _SPAN_NORM_CTES + """
            , pc2 AS (
                SELECT doc_id, seg_id, kind, text,
                       CASE WHEN kind = 'text'
                            THEN len(string_split(text, ' '))
                            ELSE 64 END AS cost,
                       CASE WHEN kind = 'text'
                            THEN len(string_split(text, ' '))
                            ELSE 0 END AS tok,
                       CASE WHEN kind = 'text' THEN 0 ELSE 1 END AS is_m
                FROM nmerged
            ), ps AS (
                SELECT *,
                       COALESCE(SUM(cost) OVER (
                           PARTITION BY doc_id ORDER BY seg_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING), 0) // 256
                           AS seq_idx
                FROM pc2
            )
            SELECT doc_id, CAST(seq_idx AS BIGINT) AS seq_idx,
                   string_agg(CASE WHEN kind = 'text' THEN text
                                   ELSE '<image>' END,
                              ' ' ORDER BY seg_id) AS rendered,
                   CAST(SUM(tok) AS BIGINT) AS n_text_tokens,
                   CAST(SUM(is_m) AS BIGINT) AS n_images,
                   CAST(SUM(cost) AS BIGINT) AS cost
            FROM ps GROUP BY doc_id, seq_idx
            ORDER BY doc_id, seq_idx
        """,
        # ks_drift: exact unbinned two-sample KS — per-source cumulative
        # counts on the shared value grid, integer cross-multiplied max
        # deviation, one IEEE division.
        # chi2_drift: half-split counts per category, then the exact
        # integer-product chi-square contributions in floored nano
        # units (identical float tree: two divisions then one add).
        "chi2_drift": """
            WITH c AS (
                SELECT event_type AS category,
                       CAST(sum(CASE WHEN ts < TIMESTAMP '2024-01-16'
                                     THEN 1 ELSE 0 END) AS BIGINT) AS a,
                       CAST(sum(CASE WHEN ts < TIMESTAMP '2024-01-16'
                                     THEN 0 ELSE 1 END) AS BIGINT) AS b
                FROM events GROUP BY 1
            ),
            tot AS (SELECT CAST(sum(a) AS BIGINT) AS n1,
                           CAST(sum(b) AS BIGINT) AS n2
                    FROM c)
            SELECT category, a AS n_early, b AS n_late,
                   CAST(floor(1000000000.0 * (
                        CAST((a*(n1+n2) - n1*(a+b))
                             * (a*(n1+n2) - n1*(a+b)) AS DOUBLE)
                          / CAST((a+b) * n1 * (n1+n2) AS DOUBLE)
                      + CAST((b*(n1+n2) - n2*(a+b))
                             * (b*(n1+n2) - n2*(a+b)) AS DOUBLE)
                          / CAST((a+b) * n2 * (n1+n2) AS DOUBLE)))
                        AS BIGINT) AS contrib_nano
            FROM c, tot ORDER BY category
        """,
        "ks_drift": """
            WITH c AS (
                SELECT source, n_chars AS v, CAST(COUNT(*) AS BIGINT)
                       AS c
                FROM documents GROUP BY 1, 2
            ), vals AS (SELECT DISTINCT v FROM c),
            tot AS (SELECT source, SUM(c) AS n FROM c GROUP BY source),
            grid AS (SELECT t.source, vv.v FROM tot t CROSS JOIN vals vv),
            j AS (SELECT g.source, g.v, COALESCE(c.c, 0) AS c
                  FROM grid g LEFT JOIN c
                    ON c.source = g.source AND c.v = g.v),
            cum AS (SELECT source, v,
                           SUM(c) OVER (PARTITION BY source ORDER BY v)
                               AS cc
                    FROM j),
            b AS (SELECT v, cc AS c0 FROM cum WHERE source = 'src0'),
            n0 AS (SELECT n FROM tot WHERE source = 'src0'),
            ksn AS (
                SELECT cum.source,
                       MAX(ABS(cum.cc * n0.n - b.c0 * t.n)) AS ks_num
                FROM cum JOIN b USING (v)
                JOIN tot t ON t.source = cum.source, n0
                WHERE cum.source <> 'src0'
                GROUP BY cum.source
            )
            SELECT k.source AS "group",
                   CAST(t.n AS BIGINT) AS n_group,
                   CAST((SELECT n FROM n0) AS BIGINT) AS n_base,
                   CAST(k.ks_num AS BIGINT) AS ks_num,
                   CASE WHEN t.n > 0 AND (SELECT n FROM n0) > 0
                        THEN CAST(k.ks_num AS DOUBLE)
                             / (t.n * (SELECT n FROM n0))
                        ELSE 0.0 END AS ks
            FROM ksn k JOIN tot t ON t.source = k.source
            ORDER BY k.source
        """,
        # near_dedup_best_chain (chain #35): minhash verify -> verified
        # edges both directions -> recursive reach components (min
        # member = cluster id) -> per-cluster packed-composite winner,
        # singletons via LEFT JOIN COALESCE.
        "near_dedup_best_chain": "WITH RECURSIVE " + _minhash_ctes() + """,
            nset AS (SELECT doc_id, count(*) AS ns FROM docg
                     GROUP BY doc_id),
            inter AS (SELECT p.doc_a, p.doc_b, count(*) AS ni
                      FROM cpairs p
                      JOIN docg x ON x.doc_id = p.doc_a
                      JOIN docg y ON y.doc_id = p.doc_b AND y.g = x.g
                      GROUP BY 1, 2),
            vp AS (
                SELECT p.doc_a, p.doc_b
                FROM cpairs p
                LEFT JOIN inter i ON i.doc_a = p.doc_a
                                 AND i.doc_b = p.doc_b
                JOIN nset na ON na.doc_id = p.doc_a
                JOIN nset nb ON nb.doc_id = p.doc_b
                WHERE CAST(COALESCE(i.ni, 0) AS DOUBLE)
                      / CAST(na.ns + nb.ns - COALESCE(i.ni, 0)
                             AS DOUBLE) >= 0.5
            ),
            edges AS (SELECT doc_a AS u, doc_b AS v FROM vp
                      UNION ALL SELECT doc_b, doc_a FROM vp),
            reach(node, anc) AS (
                SELECT u, u FROM edges
                UNION
                SELECT r.node, e.v FROM reach r
                JOIN edges e ON r.anc = e.u
            ),
            comp AS (SELECT node AS doc_id, MIN(anc) AS cluster_id
                     FROM reach GROUP BY node),
            fullc AS (
                SELECT d.doc_id,
                       COALESCE(c.cluster_id, d.doc_id) AS cluster_id,
                       CAST(substr(d.source, 4) AS BIGINT) AS priority
                FROM documents d LEFT JOIN comp c USING (doc_id)
            )
            SELECT CAST(cluster_id AS BIGINT) AS cluster_id,
                   CAST(MIN(priority * 4398046511104 + doc_id)
                        // 4398046511104 AS BIGINT) AS keep_priority,
                   CAST(MIN(priority * 4398046511104 + doc_id)
                        % 4398046511104 AS BIGINT) AS keep_doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_members
            FROM fullc GROUP BY cluster_id ORDER BY cluster_id
        """,
        # lsh_recall_chain (chain #33): full MinHash CTE stack over the
        # 200-doc probe (src='probe') -> exact all-pairs n-gram-Jaccard
        # GT from the SAME docg -> candidate/GT intersection + the two
        # IEEE ratio divisions.
        "lsh_recall_chain": """
            WITH probe AS (
                SELECT doc_id, text FROM documents WHERE doc_id < 200
            ), """ + _minhash_ctes(src="probe") + """,
            nset AS (SELECT doc_id, count(*) AS ns FROM docg
                     GROUP BY doc_id),
            ip AS (SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS ni
                   FROM docg x JOIN docg y
                     ON x.g = y.g AND x.doc_id < y.doc_id
                   GROUP BY 1, 2),
            gt AS (SELECT a, b FROM ip
                   JOIN nset na ON na.doc_id = a
                   JOIN nset nb ON nb.doc_id = b
                   WHERE CAST(ni AS DOUBLE)
                         / CAST(na.ns + nb.ns - ni AS DOUBLE) >= 0.5),
            cand AS (SELECT doc_a AS a, doc_b AS b FROM cpairs),
            hit AS (SELECT a, b FROM cand
                    INTERSECT SELECT a, b FROM gt),
            k AS (SELECT (SELECT count(*) FROM gt) AS n_gt,
                         (SELECT count(*) FROM cand) AS n_cand,
                         (SELECT count(*) FROM hit) AS n_hit)
            SELECT CAST(n_gt AS BIGINT) AS n_gt,
                   CAST(n_cand AS BIGINT) AS n_cand,
                   CAST(n_hit AS BIGINT) AS n_hit,
                   CASE WHEN n_gt > 0
                        THEN CAST(n_hit AS DOUBLE) / n_gt
                        ELSE 0.0 END AS recall,
                   CASE WHEN n_cand > 0
                        THEN CAST(n_hit AS DOUBLE) / n_cand
                        ELSE 0.0 END AS precision
            FROM k
        """,
        # modality_runs: same-class (text vs media) run-length rollup
        # per doc over the shared runs2 CTE.
        "modality_runs": _SPAN_RUNS_CTES + """
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_runs,
                   CAST(SUM(it) AS BIGINT) AS n_text_runs,
                   CAST(COUNT(*) - SUM(it) AS BIGINT) AS n_media_runs,
                   CAST(COALESCE(MAX(CASE WHEN it = 1 THEN rl END), 0)
                        AS BIGINT) AS max_text_run,
                   CAST(COALESCE(MAX(CASE WHEN it = 0 THEN rl END), 0)
                        AS BIGINT) AS max_media_run
            FROM runs2 GROUP BY doc_id ORDER BY doc_id
        """,
        # media_context: ±2-span text window per media span — LEFT JOIN
        # on |off distance| <= 2 + ordered string_agg (offsets are
        # dense per doc, so position == offset).
        "media_context": _SPAN_CTES + """
            , t AS (
                SELECT doc_id, off, txt FROM allspans
                WHERE kind = 'text'
            ), i AS (
                SELECT doc_id, off, media_ref FROM allspans
                WHERE kind <> 'text'
            )
            SELECT CAST(i.doc_id AS BIGINT) AS doc_id,
                   CAST(i.off AS BIGINT) AS "offset",
                   'image' AS kind, i.media_ref,
                   COALESCE(string_agg(t.txt, ' ' ORDER BY t.off), '')
                       AS context,
                   CAST(COUNT(t.off) AS BIGINT) AS n_ctx
            FROM i LEFT JOIN t
                 ON t.doc_id = i.doc_id AND abs(t.off - i.off) <= 2
            GROUP BY i.doc_id, i.off, i.media_ref
            ORDER BY doc_id, "offset"
        """,
        # span_truncate: replay of the prefix-straddle head truncation —
        # one window SUM for the exclusive prefix, keep prefix < 96,
        # clip the straddling text span to the remaining tokens via a
        # computed list slice.
        "span_truncate": _SPAN_CTES + """
            , c AS (
                SELECT doc_id, off, kind, COALESCE(txt, '') AS t,
                       COALESCE(media_ref, '') AS mr,
                       CASE WHEN kind = 'text'
                            THEN len(string_split(txt, ' '))
                            ELSE 64 END AS cost,
                       CASE WHEN kind = 'text'
                            THEN len(string_split(txt, ' '))
                            ELSE 0 END AS ntok
                FROM allspans
            ), s AS (
                SELECT *, COALESCE(SUM(cost) OVER (
                        PARTITION BY doc_id ORDER BY off
                        ROWS BETWEEN UNBOUNDED PRECEDING
                                 AND 1 PRECEDING), 0) AS pfx
                FROM c
            )
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(off AS BIGINT) AS "offset", kind,
                   CASE WHEN kind = 'text' AND ntok > 96 - pfx
                        THEN array_to_string(
                            string_split(t, ' ')
                                [1:CAST(96 - pfx AS BIGINT)], ' ')
                        ELSE t END AS text,
                   mr AS media_ref,
                   CAST(CASE WHEN kind = 'text'
                             THEN LEAST(ntok, 96 - pfx)
                             ELSE 64 END AS BIGINT) AS cost
            FROM s WHERE pfx < 96 ORDER BY doc_id, "offset"
        """,
        # clean_doc_chain: shared runs2 gate (n_runs >= 9 AND
        # max text-run >= 3) -> normalize replay (same CTE shape as
        # span_normalize, gated) -> per-doc rollup (chain #27).
        "clean_doc_chain": _SPAN_RUNS_CTES + """
            , gate AS (
                SELECT doc_id FROM runs2 GROUP BY doc_id
                HAVING COUNT(*) >= 9
                   AND COALESCE(MAX(CASE WHEN it = 1 THEN rl END), 0)
                       >= 3
            ), norm0 AS (
                SELECT doc_id, off, kind, trim(COALESCE(txt, '')) AS t
                FROM allspans
                WHERE doc_id IN (SELECT doc_id FROM gate)
                      AND NOT (kind = 'text'
                               AND trim(COALESCE(txt, '')) = '')
            ), segmark AS (
                SELECT *, CASE WHEN lag(kind) OVER w IS NULL
                                    OR NOT (kind = 'text'
                                            AND lag(kind) OVER w
                                                = 'text')
                               THEN 1 ELSE 0 END AS new_seg
                FROM norm0
                WINDOW w AS (PARTITION BY doc_id ORDER BY off)
            ), seg AS (
                SELECT *, SUM(new_seg) OVER (
                        PARTITION BY doc_id ORDER BY off) AS seg_id
                FROM segmark
            ), merged AS (
                SELECT doc_id, seg_id, arg_min(kind, off) AS kind,
                       string_agg(t, ' ' ORDER BY off) AS text
                FROM seg GROUP BY doc_id, seg_id
            )
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_spans,
                   CAST(SUM(CASE WHEN kind = 'text' THEN len(text)
                                 ELSE 0 END) AS BIGINT)
                       AS n_text_chars,
                   CAST(SUM(CASE WHEN kind <> 'text' THEN 1
                                 ELSE 0 END) AS BIGINT) AS n_media
            FROM merged GROUP BY doc_id ORDER BY doc_id
        """,
        # source_affixes: lexicographic min/max LCP replay — the
        # common prefix of a set equals LCP(min, max); suffix = same on
        # reversed strings; LCP length via a prefix-closed list_filter
        # lambda (equal length-i prefixes imply equal shorter prefixes,
        # so MAX of matching i IS the LCP). Shared _AFFIX_CTES prefix
        # with the affix_strip_chain oracle.
        "source_affixes": _AFFIX_CTES + """
            SELECT source, CAST(n_docs AS BIGINT) AS n_docs,
                   CAST(prefix_len AS BIGINT) AS prefix_len,
                   substr(mn, 1, CAST(prefix_len AS INT))
                       AS common_prefix,
                   CAST(suffix_len AS BIGINT) AS suffix_len,
                   reverse(substr(rmn, 1, CAST(suffix_len AS INT)))
                       AS common_suffix
            FROM lens ORDER BY source
        """,
        # affix_strip_chain: shared affix detection (lens) joined back
        # onto the planted per-doc text; removed = min(len, plen+slen)
        # (clamp = overlapping affixes on short docs) — chain #29.
        "affix_strip_chain": _AFFIX_CTES + """
            SELECT t.source, CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(SUM(len(tx)) AS BIGINT) AS chars_in,
                   CAST(SUM(LEAST(len(tx),
                                  l.prefix_len + l.suffix_len))
                        AS BIGINT) AS chars_removed,
                   CAST(SUM(len(tx) - LEAST(len(tx),
                                  l.prefix_len + l.suffix_len))
                        AS BIGINT) AS chars_out
            FROM t JOIN lens l USING (source)
            GROUP BY t.source ORDER BY t.source
        """,
        # sentence_stats: the planted boundaries (groups of 4+doc%4
        # tokens joined '. ') make every column closed-form: ceil(n/g)
        # sentences, max = min(g, n), mean = the same single IEEE
        # division the kernel performs (tot/n_sent, identical
        # operands).
        "sentence_stats": """
            WITH m AS (
                SELECT doc_id,
                       len(string_split(trim(text), ' ')) AS n,
                       4 + doc_id % 4 AS g
                FROM documents
            )
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST((n + g - 1) // g AS BIGINT) AS n_sentences,
                   CAST(n AS BIGINT) AS total_sent_tokens,
                   CAST(LEAST(g, n) AS BIGINT) AS max_sentence_tokens,
                   CAST(n AS DOUBLE) / CAST((n + g - 1) // g AS DOUBLE)
                       AS mean_sentence_tokens
            FROM m ORDER BY doc_id
        """,
        # readability: same planted-boundary closed form as
        # sentence_stats; FK grade is the identical IEEE expression
        # shape both sides (two divisions, two multiplies, fixed
        # association).
        "readability": """
            WITH m AS (
                SELECT doc_id,
                       len(string_split(trim(text), ' ')) AS w,
                       len(regexp_extract_all(text,
                                              '[aeiouAEIOU]+')) AS v,
                       4 + doc_id % 4 AS g
                FROM documents
            )
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(w AS BIGINT) AS n_words,
                   CAST((w + g - 1) // g AS BIGINT) AS n_sentences,
                   CAST(v AS BIGINT) AS n_vowel_groups,
                   0.39 * (CAST(w AS DOUBLE)
                           / CAST((w + g - 1) // g AS DOUBLE))
                   + 11.8 * (CAST(v AS DOUBLE) / CAST(w AS DOUBLE))
                   - 15.59 AS fk_grade
            FROM m ORDER BY doc_id
        """,
        # media_phash: bit-for-bit average-hash replay (shared
        # _PHASH_CTES: 8x8 sample grays from the deterministic pixel
        # rule, integer mean, bit_or of shifted UBIGINTs), bucket via
        # window COUNT.
        "media_phash": _PHASH_CTES + """
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   'img://' || CAST(doc_id AS VARCHAR) AS media_ref,
                   lpad(lower(to_hex(ph)), 16, '0') AS phash,
                   CAST(COUNT(*) OVER (PARTITION BY ph) AS BIGINT)
                       AS bucket_size
            FROM pht ORDER BY doc_id
        """,
        # phash_band_pairs: banded-LSH candidate pairs over DISTINCT
        # fingerprints (4 bands x 16 bits; a pair is a candidate iff
        # any band matches) verified by exact hamming <= 12 via
        # bit_count(xor) — chain #30.
        "phash_band_pairs": _PHASH_CTES + """
            , cnt AS (
                SELECT ph, lpad(lower(to_hex(ph)), 16, '0') AS phash,
                       COUNT(*) AS n
                FROM pht GROUP BY ph
            ), cand AS (
                SELECT a.phash AS phash_a, b.phash AS phash_b,
                       a.ph AS pha, b.ph AS phb,
                       a.n AS n_a, b.n AS n_b
                FROM cnt a JOIN cnt b ON a.phash < b.phash
                 AND (((a.ph >> 0) & CAST(65535 AS UBIGINT))
                        = ((b.ph >> 0) & CAST(65535 AS UBIGINT))
                   OR ((a.ph >> 16) & CAST(65535 AS UBIGINT))
                        = ((b.ph >> 16) & CAST(65535 AS UBIGINT))
                   OR ((a.ph >> 32) & CAST(65535 AS UBIGINT))
                        = ((b.ph >> 32) & CAST(65535 AS UBIGINT))
                   OR ((a.ph >> 48) & CAST(65535 AS UBIGINT))
                        = ((b.ph >> 48) & CAST(65535 AS UBIGINT)))
            )
            SELECT phash_a, phash_b,
                   CAST(bit_count(xor(pha, phb)) AS BIGINT) AS hamming,
                   CAST(n_a AS BIGINT) AS n_a,
                   CAST(n_b AS BIGINT) AS n_b,
                   CAST(n_a * n_b AS BIGINT) AS n_pairs
            FROM cand WHERE bit_count(xor(pha, phb)) <= 12
            ORDER BY phash_a, phash_b
        """,
        # span_diff: replay _synth_span_variants' per-residue
        # corruption (doc%11==3 delete index 1; ==5 first image's
        # media_ref || '?v=2'; ==7 first text span || ' X'), then the
        # zipper compare: first mismatching index over the common
        # prefix with field priority kind > text > media_ref, pure
        # prefix -> 'length' at min(n_a, n_b).
        "span_diff": _SPAN_CTES + """
            , a AS (
                SELECT doc_id,
                       row_number() OVER (PARTITION BY doc_id
                                          ORDER BY off) - 1 AS i,
                       kind, COALESCE(txt, '') AS t,
                       COALESCE(media_ref, '') AS mr
                FROM allspans
            ), marks AS (
                SELECT *, MIN(CASE WHEN kind = 'image' THEN i END)
                              OVER (PARTITION BY doc_id) AS fimg,
                          MIN(CASE WHEN kind = 'text' THEN i END)
                              OVER (PARTITION BY doc_id) AS ftxt,
                          COUNT(*) OVER (PARTITION BY doc_id) AS na
                FROM a
            ), b AS (
                SELECT doc_id,
                       CASE WHEN doc_id % 11 = 3 AND na > 1 AND i > 1
                            THEN i - 1 ELSE i END AS i,
                       kind,
                       CASE WHEN doc_id % 11 = 7 AND i = ftxt
                            THEN t || ' X' ELSE t END AS t,
                       CASE WHEN doc_id % 11 = 5 AND i = fimg
                            THEN mr || '?v=2' ELSE mr END AS mr
                FROM marks
                WHERE NOT (doc_id % 11 = 3 AND na > 1 AND i = 1)
            ), j AS (
                SELECT COALESCE(x.doc_id, y.doc_id) AS doc_id,
                       COALESCE(x.i, y.i) AS i,
                       x.kind AS ka, y.kind AS kb, x.t AS ta,
                       y.t AS tb, x.mr AS ma, y.mr AS mb,
                       x.i IS NOT NULL AS ina, y.i IS NOT NULL AS inb
                FROM a x FULL OUTER JOIN b y
                     ON x.doc_id = y.doc_id AND x.i = y.i
            ), dd AS (
                SELECT doc_id,
                       COUNT(CASE WHEN ina THEN 1 END) AS n_a,
                       COUNT(CASE WHEN inb THEN 1 END) AS n_b,
                       MIN(CASE WHEN ina AND inb AND (ka <> kb
                                OR ta <> tb OR ma <> mb)
                                THEN i END) AS fm,
                       arg_min(CASE WHEN ka <> kb THEN 'kind'
                                    WHEN ta <> tb THEN 'text'
                                    ELSE 'media_ref' END, i)
                           FILTER (WHERE ina AND inb AND (ka <> kb
                                   OR ta <> tb OR ma <> mb)) AS ffield
                FROM j GROUP BY doc_id
            )
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(n_a AS BIGINT) AS n_a,
                   CAST(n_b AS BIGINT) AS n_b,
                   (fm IS NULL AND n_a = n_b) AS equal,
                   CAST(CASE WHEN fm IS NOT NULL THEN fm
                             WHEN n_a <> n_b THEN LEAST(n_a, n_b)
                             ELSE -1 END AS BIGINT) AS first_mismatch,
                   CASE WHEN fm IS NOT NULL THEN ffield
                        WHEN n_a <> n_b THEN 'length'
                        ELSE '' END AS mismatch_field
            FROM dd ORDER BY doc_id
        """,
        # span_boilerplate: corpus-wide exact-content counts over the
        # non-empty TEXT spans plus the planted chrome (doc%3 footer,
        # doc%5 social line); boiler = content count >= 20; per-doc
        # rollup.
        "span_boilerplate": _SPAN_CTES + """
            , ts AS (
                SELECT doc_id, txt FROM allspans
                WHERE kind = 'text' AND txt <> ''
                UNION ALL
                SELECT doc_id, 'all rights reserved contact us'
                FROM m WHERE doc_id % 3 = 0
                UNION ALL
                SELECT doc_id, 'follow us on social media'
                FROM m WHERE doc_id % 5 = 0
            ), cnts AS (
                SELECT txt, COUNT(*) AS cnt FROM ts GROUP BY txt
            )
            SELECT CAST(t.doc_id AS BIGINT) AS doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_text_spans,
                   CAST(SUM(CASE WHEN c.cnt >= 20 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_boiler,
                   CAST(COUNT(*) - SUM(CASE WHEN c.cnt >= 20
                                            THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_kept
            FROM ts t JOIN cnts c USING (txt)
            GROUP BY t.doc_id ORDER BY doc_id
        """,
        # media_url_dedup: canonical asset bucket from (doc, k) parsed
        # out of the ref path; first occurrence via MIN of the packed
        # (doc << 20 | offset) composite — the priority_dedup unpack.
        "media_url_dedup": _SPAN_CTES + """
            , media AS (
                SELECT doc_id,
                       CAST(string_split(media_ref, '/')[4] AS BIGINT)
                           AS k,
                       off
                FROM allspans WHERE kind = 'image'
            ), b AS (
                SELECT (doc_id * 31 + k * 17) % 1000 AS asset_bucket,
                       doc_id * 1048576 + off AS packed
                FROM media
            )
            SELECT CAST(asset_bucket AS BIGINT) AS asset_bucket,
                   CAST(MIN(packed) // 1048576 AS BIGINT) AS winner_doc,
                   CAST(MIN(packed) % 1048576 AS BIGINT)
                       AS winner_offset,
                   CAST(COUNT(*) AS BIGINT) AS n_refs
            FROM b GROUP BY asset_bucket ORDER BY asset_bucket
        """,
        # interleave_gate_chain: shared stats CTE -> well-interleaved
        # gate -> per-source keep rollup (chain #23).
        "interleave_gate_chain": _SPAN_STATS_CTES + """
            , gated AS (
                SELECT s.doc_id, d.source, s.n_media, s.n_alt,
                       CASE WHEN s.n_media >= 1
                                 AND s.n_text >= 2 * s.n_media
                                 AND s.n_alt >= s.n_media
                            THEN 1 ELSE 0 END AS keep
                FROM stats s JOIN documents d ON s.doc_id = d.doc_id
            )
            SELECT source,
                   CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(SUM(keep) AS BIGINT) AS n_kept,
                   CAST(SUM(keep * n_media) AS BIGINT) AS media_kept,
                   CAST(SUM(keep * n_alt) AS BIGINT) AS alt_kept
            FROM gated GROUP BY source ORDER BY source
        """,
        # markov_debounced_chain: debounce CTE (same rule as the
        # debounce oracle) -> lag over survivors -> p >= 0.15 gate.
        "markov_debounced_chain": """
            WITH l AS (
                SELECT user_id, event_type, ts, event_id,
                       epoch_us(ts) - epoch_us(lag(ts) OVER (
                           PARTITION BY user_id, event_type
                           ORDER BY ts, event_id)) AS dt_us
                FROM events
            ), surv AS (
                SELECT user_id, event_type, ts, event_id FROM l
                WHERE dt_us IS NULL OR dt_us > 60000000
            ), lg AS (
                SELECT event_type,
                       lag(event_type) OVER (
                           PARTITION BY user_id
                           ORDER BY ts, event_id) AS prev_type
                FROM surv
            ), c AS (
                SELECT prev_type, event_type,
                       CAST(count(*) AS BIGINT) AS n
                FROM lg WHERE prev_type IS NOT NULL
                GROUP BY prev_type, event_type
            ), t AS (
                SELECT prev_type, SUM(n) AS tot FROM c GROUP BY prev_type
            )
            SELECT c.prev_type, c.event_type, c.n,
                   CAST(c.n AS DOUBLE) / CAST(t.tot AS DOUBLE) AS p
            FROM c JOIN t USING (prev_type)
            WHERE CAST(c.n AS DOUBLE) / CAST(t.tot AS DOUBLE) >= 0.2
            ORDER BY c.prev_type, c.event_type
        """,
        # abc_orders: running SUM OVER (ORDER BY cents DESC, key);
        # class cut is the identical int64 permille compare.
        "abc_orders": """
            WITH c AS (
                SELECT o_orderkey AS id,
                       CAST(FLOOR(CAST(o_totalprice AS DOUBLE) * 100
                                  + 0.5) AS BIGINT) AS cents
                FROM orders
            ), w AS (
                SELECT cents,
                       SUM(cents) OVER (ORDER BY cents DESC, id
                           ROWS UNBOUNDED PRECEDING) AS cum
                FROM c
            ), tot AS (SELECT CAST(SUM(cents) AS BIGINT) AS t FROM c)
            SELECT CASE WHEN cum * 1000 <= 700 * t THEN 'A'
                        WHEN cum * 1000 <= 900 * t THEN 'B'
                        ELSE 'C' END AS cls,
                   CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(SUM(cents) AS BIGINT) AS sum_cents
            FROM w, tot GROUP BY 1 ORDER BY 1
        """,
        # pmi_pairs: the cooccurrence oracle + corpus totals + the ONE
        # shared ln expression (identical left-assoc IEEE order).
        "pmi_pairs": """
            WITH base AS (
                SELECT string_split(trim(text), ' ') AS a FROM documents
            ), raw AS (
                SELECT a[i] AS x, a[i + 1] AS y
                FROM base, UNNEST(generate_series(1, len(a) - 1)) AS t(i)
                UNION ALL
                SELECT a[i], a[i + 2]
                FROM base, UNNEST(generate_series(1, len(a) - 2)) AS t(i)
                UNION ALL
                SELECT a[i], a[i + 3]
                FROM base, UNNEST(generate_series(1, len(a) - 3)) AS t(i)
            ), canon AS (
                SELECT LEAST(x, y) AS a, GREATEST(x, y) AS b FROM raw
            ), pcnt AS (
                SELECT a, b, CAST(count(*) AS BIGINT) AS pair_count
                FROM canon GROUP BY a, b
            ), marg AS (
                SELECT tok, CAST(count(*) AS BIGINT) AS c
                FROM (SELECT a[i] AS tok
                      FROM base,
                           UNNEST(generate_series(1, len(a))) AS t(i))
                GROUP BY tok
            ), tot AS (
                SELECT CAST(SUM(len(a)) AS DOUBLE) AS nt,
                       CAST(SUM(GREATEST(len(a) - 1, 0)
                                + GREATEST(len(a) - 2, 0)
                                + GREATEST(len(a) - 3, 0)) AS DOUBLE)
                           AS np
                FROM base
            ), top AS (
                SELECT * FROM pcnt ORDER BY pair_count DESC, a, b LIMIT 50
            )
            SELECT top.a, top.b, top.pair_count,
                   ma.c AS count_a, mb.c AS count_b,
                   ln(CAST(top.pair_count AS DOUBLE) * tot.nt * tot.nt
                      / (tot.np * CAST(ma.c AS DOUBLE)
                         * CAST(mb.c AS DOUBLE))) AS pmi
            FROM top, tot
            JOIN marg ma ON ma.tok = top.a
            JOIN marg mb ON mb.tok = top.b
            ORDER BY pair_count DESC, a, b
        """,
        # interval_union: cumulative-max islands over sorted starts;
        # same half-open merge rule (break only when st > prev max).
        "interval_union": """
            WITH s AS (
                SELECT user_id, epoch_us(ts) AS st,
                       epoch_us(ts) + 300000000 AS en
                FROM events
            ), w AS (
                SELECT user_id, st, en,
                       MAX(en) OVER (PARTITION BY user_id
                           ORDER BY st, en
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING) AS pmax
                FROM s
            ), m AS (
                SELECT *, CASE WHEN pmax IS NULL OR st > pmax
                               THEN 1 ELSE 0 END AS brk
                FROM w
            ), g AS (
                SELECT *, SUM(brk) OVER (PARTITION BY user_id
                              ORDER BY st, en
                              ROWS UNBOUNDED PRECEDING) AS island
                FROM m
            ), isl AS (
                SELECT user_id, island, MIN(st) AS i_st, MAX(en) AS i_en
                FROM g GROUP BY user_id, island
            )
            SELECT user_id, CAST(count(*) AS BIGINT) AS n_islands,
                   CAST(SUM(i_en - i_st) AS BIGINT) AS covered_us
            FROM isl GROUP BY user_id ORDER BY user_id
        """,
        # daily_streaks: the day - row_number() gaps-and-islands trick
        # over distinct (user, epoch-day) pairs.
        "daily_streaks": """
            WITH d AS (
                SELECT DISTINCT user_id,
                       epoch_us(ts) // 86400000000 AS day
                FROM events
            ), r AS (
                SELECT user_id, day,
                       day - row_number() OVER (PARTITION BY user_id
                                                ORDER BY day) AS grp
                FROM d
            ), runs AS (
                SELECT user_id, grp, count(*) AS len
                FROM r GROUP BY user_id, grp
            )
            SELECT user_id, CAST(SUM(len) AS BIGINT) AS n_days,
                   CAST(MAX(len) AS BIGINT) AS longest_streak
            FROM runs GROUP BY user_id ORDER BY user_id
        """,
        # balanced_shards: exclusive prefix sum over id order, shard =
        # prefix*k//total — the identical int64 bin-pack rule.
        "balanced_shards": """
            WITH w AS (
                SELECT doc_id, n_chars,
                       SUM(n_chars) OVER (ORDER BY doc_id
                           ROWS UNBOUNDED PRECEDING) - n_chars AS pfx
                FROM documents
            ), tot AS (
                SELECT CAST(SUM(n_chars) AS BIGINT) AS t FROM documents
            ), a AS (
                SELECT doc_id, n_chars,
                       CAST(pfx AS BIGINT) * 16 // tot.t AS shard
                FROM w, tot
            )
            SELECT CAST(shard AS BIGINT) AS shard,
                   CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(SUM(n_chars) AS BIGINT) AS sum_weight,
                   CAST(MIN(doc_id) AS BIGINT) AS min_id,
                   CAST(MAX(doc_id) AS BIGINT) AS max_id
            FROM a GROUP BY shard ORDER BY shard
        """,
        # click_proximity: the L×R windowed join the engine avoids;
        # same-µs right events count as before (<=), exact integer µs.
        "click_proximity": """
            WITH l AS (
                SELECT user_id, event_id, epoch_us(ts) AS t
                FROM events WHERE event_type = 'purchase'
            ), r AS (
                SELECT user_id, epoch_us(ts) AS t
                FROM events WHERE event_type = 'click'
            ), j AS (
                SELECT l.user_id, l.event_id,
                       CAST(SUM(CASE WHEN r.t <= l.t THEN 1 ELSE 0 END)
                            AS BIGINT) AS n_before,
                       CAST(SUM(CASE WHEN r.t > l.t THEN 1 ELSE 0 END)
                            AS BIGINT) AS n_after,
                       CAST(MIN(ABS(r.t - l.t)) AS BIGINT)
                           AS nearest_abs_us
                FROM l JOIN r ON r.user_id = l.user_id
                     AND r.t BETWEEN l.t - 600000000 AND l.t + 600000000
                GROUP BY l.user_id, l.event_id
            )
            SELECT l.user_id, l.event_id,
                   COALESCE(j.n_before, 0) AS n_before,
                   COALESCE(j.n_after, 0) AS n_after,
                   j.nearest_abs_us
            FROM l LEFT JOIN j USING (user_id, event_id)
            ORDER BY l.event_id
        """,
        # hourly_profile: identical integer epoch formulas — no
        # calendar/timezone function on either side.
        "hourly_profile": """
            WITH b AS (
                SELECT ((epoch_us(ts) // 86400000000) + 4) % 7 AS dow,
                       (epoch_us(ts) // 3600000000) % 24 AS hour,
                       CAST(FLOOR(CAST(value AS DOUBLE) * 100 + 0.5)
                            AS BIGINT) AS cents
                FROM events
            )
            SELECT CAST(dow AS BIGINT) AS dow,
                   CAST(hour AS BIGINT) AS hour,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(SUM(cents) AS BIGINT) AS value_cents
            FROM b GROUP BY dow, hour ORDER BY dow, hour
        """,
        # zorder_layout: the identical Morton bit-spread ladder (decimal
        # masks — DuckDB hex literals don't parse), rank bin-packing
        # rn0·16 // total, zone maps per shard.
        "zorder_layout": """
            WITH c AS (
                SELECT (l_partkey & 32767) AS x, (l_suppkey & 32767) AS y,
                       l_orderkey * 8 + l_linenumber AS rid
                FROM lineitem
            ), s1 AS (
                SELECT rid, x, y,
                       ((x | (x << 8)) & 16711935) AS xs,
                       ((y | (y << 8)) & 16711935) AS ys
                FROM c
            ), s2 AS (
                SELECT rid, x, y,
                       ((xs | (xs << 4)) & 252645135) AS xs,
                       ((ys | (ys << 4)) & 252645135) AS ys
                FROM s1
            ), s3 AS (
                SELECT rid, x, y,
                       ((xs | (xs << 2)) & 858993459) AS xs,
                       ((ys | (ys << 2)) & 858993459) AS ys
                FROM s2
            ), s4 AS (
                SELECT rid, x, y,
                       ((xs | (xs << 1)) & 1431655765) AS xs,
                       ((ys | (ys << 1)) & 1431655765) AS ys
                FROM s3
            ), z AS (
                SELECT rid, x, y, (xs | (ys << 1)) AS zkey FROM s4
            ), r AS (
                SELECT x, y, zkey,
                       ROW_NUMBER() OVER
                           (ORDER BY zkey * 4294967296 + rid) - 1 AS rn0,
                       COUNT(*) OVER () AS total
                FROM z
            ), a AS (
                SELECT x, y, zkey, rn0 * 16 // total AS shard FROM r
            )
            SELECT CAST(shard AS BIGINT) AS shard,
                   CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(MIN(x) AS BIGINT) AS x_min,
                   CAST(MAX(x) AS BIGINT) AS x_max,
                   CAST(MIN(y) AS BIGINT) AS y_min,
                   CAST(MAX(y) AS BIGINT) AS y_max,
                   CAST(MIN(zkey) AS BIGINT) AS z_min,
                   CAST(MAX(zkey) AS BIGINT) AS z_max
            FROM a GROUP BY shard ORDER BY shard
        """,
        # spatial_join: the LxR join the grid plan avoids; identical
        # multiplicative-hash coords and composite-min tie-break.
        "spatial_join": """
            WITH l AS (
                SELECT c_custkey,
                       ((c_custkey * 2654435761) % 4294967296)
                           // 4194304 AS x,
                       ((c_custkey * 2246822519) % 4294967296)
                           // 4194304 AS y
                FROM customer
            ), r AS (
                SELECT s_suppkey,
                       ((s_suppkey * 2654435761) % 4294967296)
                           // 4194304 AS x,
                       ((s_suppkey * 2246822519) % 4294967296)
                           // 4194304 AS y
                FROM supplier
            ), j AS (
                SELECT l.c_custkey,
                       CAST(count(*) AS BIGINT) AS n_within,
                       MIN(((l.x - r.x) * (l.x - r.x)
                            + (l.y - r.y) * (l.y - r.y)) * 1000000
                           + r.s_suppkey) AS comp
                FROM l JOIN r
                  ON ABS(l.x - r.x) <= 32 AND ABS(l.y - r.y) <= 32
                GROUP BY l.c_custkey
            )
            SELECT c_custkey, n_within,
                   CAST(comp // 1000000 AS BIGINT) AS min_d2,
                   CAST(comp % 1000000 AS BIGINT) AS nearest_s_suppkey
            FROM j ORDER BY c_custkey
        """,
        # table_fingerprint: identical md5 row hash (hex-substr cast ==
        # Python int(hex,16)), order-independent sum-mod/xor aggregates.
        "table_fingerprint": """
            WITH h AS (
                SELECT o_orderstatus,
                       CAST('0x' || substr(md5(concat_ws('|',
                           o_orderkey, o_custkey, o_orderstatus,
                           o_orderpriority, epoch_us(o_orderdate))),
                           1, 15) AS BIGINT) AS h
                FROM orders
            )
            SELECT o_orderstatus,
                   CAST(SUM(CAST(h AS HUGEINT))
                        % 2305843009213693951 AS BIGINT) AS sum_fp,
                   bit_xor(h) AS xor_fp,
                   CAST(count(*) AS BIGINT) AS n_rows
            FROM h GROUP BY o_orderstatus ORDER BY o_orderstatus
        """,
        # dq_report: the five constraint rules as scalar UNION ALL —
        # pure integer counts.
        "dq_report": """
            WITH t AS (SELECT count(*) AS n FROM orders)
            SELECT * FROM (
                SELECT 'fk_custkey_customer' AS rule,
                       CAST((SELECT count(*) FROM orders o
                             WHERE o.o_custkey IS NOT NULL
                               AND NOT EXISTS (SELECT 1 FROM customer c
                                   WHERE c.c_custkey = o.o_custkey))
                            AS BIGINT) AS n_violations,
                       CAST((SELECT count(o_custkey) FROM orders)
                            AS BIGINT) AS n_checked
                UNION ALL
                SELECT 'not_null_custkey',
                       CAST((SELECT count(*) FROM orders
                             WHERE o_custkey IS NULL) AS BIGINT),
                       CAST((SELECT n FROM t) AS BIGINT)
                UNION ALL
                SELECT 'positive_totalprice',
                       CAST((SELECT count(*) FROM orders
                             WHERE NOT (o_totalprice > 0)
                                OR o_totalprice IS NULL) AS BIGINT),
                       CAST((SELECT n FROM t) AS BIGINT)
                UNION ALL
                SELECT 'unique_orderkey',
                       CAST((SELECT count(*)
                                    - count(DISTINCT o_orderkey)
                             FROM orders) AS BIGINT),
                       CAST((SELECT n FROM t) AS BIGINT)
                UNION ALL
                SELECT 'valid_status',
                       CAST((SELECT count(*) FROM orders
                             WHERE o_orderstatus NOT IN ('O','F','P')
                                OR o_orderstatus IS NULL) AS BIGINT),
                       CAST((SELECT n FROM t) AS BIGINT)
            ) ORDER BY rule
        """,
        # dq_fingerprint_chain: gate + checksum in one statement.
        "dq_fingerprint_chain": """
            WITH clean AS (
                SELECT * FROM orders o
                WHERE o.o_totalprice > 0
                  AND o.o_orderstatus IN ('O', 'F', 'P')
                  AND o.o_custkey IS NOT NULL
                  AND EXISTS (SELECT 1 FROM customer c
                              WHERE c.c_custkey = o.o_custkey)
            ), h AS (
                SELECT o_orderstatus,
                       CAST('0x' || substr(md5(concat_ws('|',
                           o_orderkey, o_custkey, o_orderstatus,
                           o_orderpriority, epoch_us(o_orderdate))),
                           1, 15) AS BIGINT) AS h
                FROM clean
            )
            SELECT o_orderstatus,
                   CAST(SUM(CAST(h AS HUGEINT))
                        % 2305843009213693951 AS BIGINT) AS sum_fp,
                   bit_xor(h) AS xor_fp,
                   CAST(count(*) AS BIGINT) AS n_rows
            FROM h GROUP BY o_orderstatus ORDER BY o_orderstatus
        """,
        # priority_sample: identical md5-40-bit uniform + integer
        # floor-division priority; total order (q DESC, id).
        "priority_sample": """
            WITH q AS (
                SELECT doc_id, CAST(n_chars AS BIGINT) AS weight,
                       (n_chars * 1099511627776) //
                       (CAST('0x' || substr(
                            md5(CAST(doc_id AS VARCHAR)), 1, 10)
                         AS BIGINT) + 1) AS priority
                FROM documents
            )
            SELECT doc_id, weight, CAST(priority AS BIGINT) AS priority
            FROM q ORDER BY priority DESC, doc_id LIMIT 100
        """,
        # local_supplier_revenue: the 5-table Q5 star with the
        # cross-dimension c_nationkey = s_nationkey predicate.
        "local_supplier_revenue": """
            SELECT n_name,
                   CAST(SUM(CAST(FLOOR(CAST(l_extendedprice AS DOUBLE)
                                       *100 + 0.5) AS BIGINT)
                            * (100 - CAST(FLOOR(CAST(l_discount
                                       AS DOUBLE)*100 + 0.5) AS BIGINT)))
                        AS BIGINT) AS revenue_cc
            FROM lineitem
            JOIN orders   ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey  = c_custkey
            JOIN supplier ON l_suppkey  = s_suppkey
            JOIN nation   ON s_nationkey = n_nationkey
            WHERE c_nationkey = s_nationkey
              AND o_orderdate >= TIMESTAMP '1997-01-01'
            GROUP BY n_name ORDER BY n_name
        """,
        # source_drift: PSI per (source, bin) vs src0 — exact counts,
        # one shared IEEE tree for p/q/term (DuckDB ln == libm log).
        "source_drift": """
            WITH b AS (
                SELECT source,
                       LEAST(CAST(FLOOR(CAST(n_chars AS DOUBLE)/64.0)
                                  AS BIGINT), 15) AS bin
                FROM documents
            ), c AS (
                SELECT source, bin, CAST(count(*) AS BIGINT) AS c
                FROM b GROUP BY 1, 2
            ), s AS (SELECT DISTINCT source FROM documents),
            g AS (SELECT source, i AS bin
                  FROM s, generate_series(0, 15) t(i)),
            d AS (SELECT g.source, g.bin, COALESCE(c.c, 0) AS c
                  FROM g LEFT JOIN c
                  ON c.source = g.source AND c.bin = g.bin),
            n AS (SELECT source, CAST(SUM(c) AS BIGINT) AS n
                  FROM d GROUP BY source),
            base AS (SELECT d.bin, d.c AS cb, n.n AS nb
                     FROM d JOIN n USING (source)
                     WHERE d.source = 'src0')
            SELECT d.source AS "group", d.bin,
                   base.cb AS expected_n, d.c AS actual_n,
                   ((CAST(d.c+1 AS DOUBLE)/CAST(n.n+16 AS DOUBLE))
                    - (CAST(base.cb+1 AS DOUBLE)
                       /CAST(base.nb+16 AS DOUBLE)))
                   * ln((CAST(d.c+1 AS DOUBLE)/CAST(n.n+16 AS DOUBLE))
                        / (CAST(base.cb+1 AS DOUBLE)
                           /CAST(base.nb+16 AS DOUBLE))) AS psi_term
            FROM d JOIN n ON n.source = d.source
            JOIN base ON base.bin = d.bin
            WHERE d.source <> 'src0'
            ORDER BY d.source, d.bin
        """,
        # ohlc_hourly: open/close via the same int64 composite
        # (offset_us * 2^21 + cents + 2^20) the engine packs.
        "ohlc_hourly": """
            WITH e AS (
                SELECT event_type, epoch_us(ts) AS t,
                       CAST(FLOOR(CAST(value AS DOUBLE)*100 + 0.5)
                            AS BIGINT) AS cents
                FROM events
            ), w AS (
                SELECT event_type, t - t % 3600000000 AS window_us,
                       (t - (t - t % 3600000000)) * 2097152
                           + (cents + 1048576) AS comp,
                       cents
                FROM e
            )
            SELECT event_type, window_us,
                   CAST(MIN(comp) % 2097152 - 1048576 AS BIGINT)
                       AS open_cents,
                   CAST(MAX(cents) AS BIGINT) AS high_cents,
                   CAST(MIN(cents) AS BIGINT) AS low_cents,
                   CAST(MAX(comp) % 2097152 - 1048576 AS BIGINT)
                       AS close_cents,
                   CAST(count(*) AS BIGINT) AS n
            FROM w GROUP BY 1, 2 ORDER BY 1, 2
        """,
        # schema_union: UNION ALL BY NAME with explicit typed-null fill.
        "schema_union": """
            SELECT o_orderkey, o_totalprice,
                   CAST(NULL AS VARCHAR) AS o_orderpriority
            FROM orders WHERE o_orderkey < 7500
            UNION ALL
            SELECT o_orderkey, o_totalprice, o_orderpriority
            FROM orders WHERE o_orderkey >= 7500
            ORDER BY o_orderkey
        """,
        "kcenter_coreset": _kcenter_sql(k=8),
        "semantic_dedup": _semantic_dedup_sql(k=8, tau=0.45),
        # quantile_normalize: smallest baseline value whose cumulative
        # count crosses the row's rank — integer cross-multiplication.
        "quantile_normalize": """
            WITH h AS (
                SELECT source AS grp, CAST(n_chars AS DOUBLE) AS v,
                       CAST(count(*) AS BIGINT) AS c
                FROM documents GROUP BY 1, 2
            ), cum AS (
                SELECT grp, v, c,
                       SUM(c) OVER (PARTITION BY grp ORDER BY v) AS cg,
                       SUM(c) OVER (PARTITION BY grp) AS ng
                FROM h
            ), base AS (
                SELECT v AS w, cg AS cb, ng AS nb FROM cum
                WHERE grp = 'src0'
            )
            SELECT grp AS source, v AS n_chars, c AS n,
                   (SELECT MIN(b.w) FROM base b
                    WHERE b.cb * cum.ng >= cum.cg * b.nb) AS normalized
            FROM cum ORDER BY source, n_chars
        """,
        # span_corruption: masked runs via gaps-and-islands; strings
        # must be byte-identical (same md5 keying, same sentinels).
        "span_corruption": f"""
            WITH tk AS (
                SELECT doc_id, string_split(trim(text), ' ') AS toks
                FROM documents
            ), px AS (
                SELECT doc_id, toks,
                       UNNEST(generate_series(1, len(toks))) AS pos
                FROM tk
            ), t AS (
                SELECT doc_id, pos, toks[pos] AS tok,
                       substr(md5(CAST(doc_id AS VARCHAR) || ':'
                                  || CAST(pos-1 AS VARCHAR)), 1, 8)
                           < '{_mt(0.15)}' AS mask
                FROM px
            ), rs AS (
                SELECT *, mask AND NOT COALESCE(
                    LAG(mask) OVER (PARTITION BY doc_id ORDER BY pos),
                    FALSE) AS run_start
                FROM t
            ), r AS (
                SELECT *, SUM(CASE WHEN run_start THEN 1 ELSE 0 END)
                    OVER (PARTITION BY doc_id ORDER BY pos) - 1
                    AS run_id
                FROM rs
            )
            SELECT doc_id,
                COALESCE(string_agg(
                    CASE WHEN NOT mask THEN tok
                         WHEN run_start THEN '<extra_id_'
                             || CAST(run_id AS VARCHAR) || '>'
                    END, ' ' ORDER BY pos)
                    FILTER (WHERE NOT mask OR run_start), '')
                    AS input_text,
                COALESCE(string_agg(
                    CASE WHEN run_start THEN '<extra_id_'
                             || CAST(run_id AS VARCHAR) || '> ' || tok
                         ELSE tok END, ' ' ORDER BY pos)
                    FILTER (WHERE mask), '') AS target_text,
                CAST(SUM(CASE WHEN mask THEN 1 ELSE 0 END) AS BIGINT)
                    AS n_masked
            FROM r GROUP BY doc_id ORDER BY doc_id
        """,
        # cusum_alarms: the max(0, S+d) recursion replayed WITHOUT
        # recursion via S_t = P_t - min(0, running min of P); exact ints.
        "cusum_alarms": """
            WITH e AS (
                SELECT user_id, epoch_us(ts) AS t,
                       CAST(FLOOR(CAST(value AS DOUBLE)*100 + 0.5)
                            AS BIGINT) AS cents
                FROM events
            ), k AS (
                SELECT user_id, SUM(cents) // COUNT(*) + 50 AS kk
                FROM e GROUP BY user_id
            ), p AS (
                SELECT e.user_id, t,
                       SUM(cents - kk) OVER (PARTITION BY e.user_id
                                             ORDER BY t) AS P
                FROM e JOIN k USING (user_id)
            ), s AS (
                SELECT user_id, t,
                       P - LEAST(0, MIN(P) OVER (PARTITION BY user_id
                                                 ORDER BY t)) AS S
                FROM p
            ), x AS (
                SELECT user_id, t, S,
                       COALESCE(LAG(S) OVER (PARTITION BY user_id
                                             ORDER BY t), 0) AS Sp
                FROM s
            )
            SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(MAX(S) AS BIGINT) AS max_cusum,
                   CAST(SUM(CASE WHEN Sp < 3000 AND S >= 3000
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_alarms,
                   CAST(COALESCE(MIN(CASE WHEN Sp < 3000 AND S >= 3000
                                 THEN t END), -1) AS BIGINT)
                       AS first_alarm_us
            FROM x GROUP BY user_id ORDER BY user_id
        """,
        # weighted_median: cumulative-weight crossing over the exact
        # (key, value) histogram; the median is a data value.
        "weighted_median": """
            WITH h AS (
                SELECT l_returnflag,
                       CAST(l_extendedprice AS DOUBLE) AS value,
                       SUM(CAST(FLOOR(CAST(l_quantity AS DOUBLE) + 0.5)
                                AS BIGINT)) AS w
                FROM lineitem GROUP BY 1, 2
            ), c AS (
                SELECT l_returnflag, value,
                       SUM(w) OVER (PARTITION BY l_returnflag
                                    ORDER BY value) AS cum,
                       SUM(w) OVER (PARTITION BY l_returnflag) AS tot
                FROM h
            )
            SELECT l_returnflag,
                   CAST(MAX(tot) AS BIGINT) AS total_weight,
                   MIN(CASE WHEN 2*cum >= tot THEN value END) AS wmedian
            FROM c GROUP BY l_returnflag ORDER BY l_returnflag
        """,
        # budget_alloc: Hamilton apportionment — floor quota + leftover
        # units to the largest remainders (rem DESC, key ASC).
        "budget_alloc": """
            WITH w AS (
                SELECT o_orderpriority,
                       SUM(CAST(FLOOR(CAST(o_totalprice AS DOUBLE)*100
                                      + 0.5) AS BIGINT)) AS weight_cents
                FROM orders GROUP BY 1
            ), t AS (
                SELECT SUM(weight_cents) AS tw, 1000000 AS units FROM w
            ), b AS (
                SELECT o_orderpriority, weight_cents,
                       units * weight_cents // tw AS base,
                       units * weight_cents % tw AS rem
                FROM w, t
            ), r AS (
                SELECT *, ROW_NUMBER() OVER (ORDER BY rem DESC,
                                             o_orderpriority) AS rk,
                       (SELECT units FROM t) - SUM(base) OVER ()
                           AS leftover
                FROM b
            )
            SELECT o_orderpriority,
                   CAST(weight_cents AS BIGINT) AS weight_cents,
                   CAST(base + CASE WHEN rk <= leftover THEN 1 ELSE 0
                        END AS BIGINT) AS alloc
            FROM r ORDER BY o_orderpriority
        """,
        # soundex_names: the encoder replayed as a SQL expression chain.
        "soundex_names": f"""
            WITH d AS (SELECT DISTINCT p_name FROM part),
            t AS (SELECT DISTINCT unnest(string_split(p_name,' '))
                      AS token FROM d)
            SELECT token, {_sx('token')} AS soundex
            FROM t WHERE length(token) > 0 ORDER BY token
        """,
        # entity_resolution: blocking + levenshtein edges + recursive
        # min-label reachability (symmetric edges => connectivity).
        "entity_resolution": f"""
            WITH RECURSIVE d AS (SELECT DISTINCT p_name FROM part),
            tk AS (SELECT DISTINCT p_name,
                       unnest(string_split(p_name,' ')) AS token FROM d),
            sx AS (SELECT p_name, {_sx('token')} AS code
                   FROM tk WHERE length(token) > 0),
            cand AS (SELECT DISTINCT a.p_name AS na, b.p_name AS nb
                     FROM sx a JOIN sx b
                     ON a.code = b.code AND a.p_name < b.p_name),
            edges AS (SELECT na, nb FROM cand
                      WHERE levenshtein(na, nb) <= 2),
            sym AS (SELECT na AS a, nb AS b FROM edges
                    UNION SELECT nb, na FROM edges),
            reach(node, lab) AS (
                SELECT a, a FROM (SELECT DISTINCT a FROM sym)
                UNION
                SELECT s.b, r.lab FROM reach r JOIN sym s
                ON s.a = r.node
            ),
            comp AS (SELECT node, MIN(lab) AS canon FROM reach
                     GROUP BY node)
            SELECT p.p_partkey, p.p_name,
                   COALESCE(c.canon, p.p_name) AS canonical
            FROM part p LEFT JOIN comp c ON c.node = p.p_name
            ORDER BY p.p_partkey
        """,
        # boolean_search: token-membership predicates on the shared
        # single-space tokenization.
        "boolean_search": """
            SELECT doc_id FROM documents
            WHERE list_contains(string_split(trim(text),' '), 'spark')
              AND list_contains(string_split(trim(text),' '), 'join')
              AND NOT list_contains(string_split(trim(text),' '),
                                    'window')
            ORDER BY doc_id
        """,
        # time_weighted_avg: LEAD-window replay of the zero-order-hold
        # integrals; identical integer cents/seconds flooring.
        "time_weighted_avg": """
            WITH e AS (
                SELECT user_id, epoch_us(ts) AS t,
                       CAST(FLOOR(CAST(value AS DOUBLE) * 100 + 0.5)
                            AS BIGINT) AS cents
                FROM events
            ), w AS (
                SELECT user_id, cents,
                       (LEAD(t) OVER (PARTITION BY user_id ORDER BY t)
                        - t) // 1000000 AS dt
                FROM e
            ), a AS (
                SELECT user_id,
                       CAST(count(*) AS BIGINT) AS n_events,
                       CAST(SUM(dt) AS BIGINT) AS active_s,
                       CAST(SUM(cents * dt) AS BIGINT)
                           AS weighted_cents_s
                FROM w GROUP BY user_id
            )
            SELECT user_id, n_events, active_s, weighted_cents_s,
                   CAST(weighted_cents_s * 100 // active_s AS BIGINT)
                       AS twa_centicents
            FROM a WHERE active_s > 0 ORDER BY user_id
        """,
        # cube_sales: explicit grouping sets with the 'ALL' sentinel
        # (clearer than CUBE's NULL convention); exact cents.
        "cube_sales": """
            WITH b AS (
                SELECT o_orderstatus AS s, o_orderpriority AS p,
                       CAST(FLOOR(CAST(o_totalprice AS DOUBLE) * 100
                                  + 0.5) AS BIGINT) AS cents
                FROM orders
            )
            SELECT * FROM (
                SELECT s AS o_orderstatus, p AS o_orderpriority,
                       CAST(count(*) AS BIGINT) AS n,
                       CAST(SUM(cents) AS BIGINT) AS value_cents
                FROM b GROUP BY s, p
                UNION ALL
                SELECT s, 'ALL', CAST(count(*) AS BIGINT),
                       CAST(SUM(cents) AS BIGINT) FROM b GROUP BY s
                UNION ALL
                SELECT 'ALL', p, CAST(count(*) AS BIGINT),
                       CAST(SUM(cents) AS BIGINT) FROM b GROUP BY p
                UNION ALL
                SELECT 'ALL', 'ALL', CAST(count(*) AS BIGINT),
                       CAST(SUM(cents) AS BIGINT) FROM b
            ) ORDER BY o_orderstatus, o_orderpriority
        """,
        # extract_fixtures, embed_neardup_lsh, media_meta: not
        # SQL-expressible (readability heuristics / approximate index /
        # decode stage) → rows-only. language_id, cms_counts and
        # approx_distinct_users graduated to hash-exact above.
    }
