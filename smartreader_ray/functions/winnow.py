"""Winnowing fingerprints and shingle-containment screens.

Local document fingerprinting per Schleimer, Wilkerson & Aiken,
"Winnowing: Local Algorithms for Document Fingerprinting" (SIGMOD '03)
— the MOSS scheme: hash every k-token shingle, slide a window of w
consecutive hashes, keep each window's minimum (rightmost occurrence
on ties). Guarantees: any match of length ≥ w+k-1 tokens shares at
least one selected fingerprint; expected density 2/(w+1), so the
exchanged fingerprint set is ~2/(w+1) of the shingle stream.

Containment (Broder, "On the resemblance and containment of
documents", 1997): C(A→B) = |W_A ∩ W_B| / |W_A| over distinct window
shingles — the ASYMMETRIC overlap that catches quote/subset
duplication a symmetric Jaccard screen dilutes away (a short doc
fully quoted inside a long one has high containment, low Jaccard).

No counterpart in the reference (SmartReader is per-page,
`src/SmartReader/Readability.cs` has no corpus surface); these are
corpus-level curation operators over the `documents` table.

Scale shape: shingle hashing and window selection are per-doc local
(zero shuffle); the only exchanges are fingerprint-keyed groupbys
whose traffic is the winnowed (density-reduced) or distinct-window
stream, pair emission is bucket-capped, and per-doc sizes reattach
through the vectorized `hash_join` — never a driver-side map.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .dedup import (
    DEFAULT_MAX_BUCKET,
    _bucket_pairs,
    _doc_window_set,
    _hash64,
    _windows,
)
from .exchange import keyed_agg


def _doc_kgram_hashes(t: str | None, k: int) -> np.ndarray:
    """uint64 FNV-1a hashes of ALL k-token shingles of one doc, in
    position order (duplicates kept — winnowing is positional); the
    shingles are the passage oracles' windows (``dedup._windows``)."""
    return _hash64(_windows(t, k))


def _winnow_select(h: np.ndarray, w: int) -> np.ndarray:
    """Selected positions of the winnowing scheme over hash sequence
    ``h`` with window ``w`` (clamped to len(h) so every non-empty doc
    yields ≥ 1 fingerprint): per window the MIN hash, rightmost on
    ties, positions deduplicated. Vectorized: one sliding-window view
    + one argmin over the REVERSED window axis (first min of the
    reversal = rightmost min of the original)."""
    n = int(h.size)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    we = min(w, n)
    wv = np.lib.stride_tricks.sliding_window_view(h, we)
    j = np.argmin(wv[:, ::-1], axis=1)
    sel = np.arange(wv.shape[0], dtype=np.int64) + (we - 1 - j)
    return np.unique(sel)


def _fingerprint_rows(batch: pa.Table, k: int, w: int,
                      text_col: str) -> pa.Table:
    texts = batch.column(text_col).to_pylist()
    ids = batch.column("doc_id").to_pylist()
    id_type = batch.schema.field("doc_id").type
    out_ids, out_pos, out_fp = [], [], []
    for doc_id, t in zip(ids, texts):
        h = _doc_kgram_hashes(t, k)
        sel = _winnow_select(h, w)
        if sel.size:
            out_ids.extend([doc_id] * sel.size)
            out_pos.extend(sel.tolist())
            out_fp.extend(h[sel].astype(np.int64).tolist())
    return pa.table({
        "doc_id": pa.array(out_ids, type=id_type),
        "pos": pa.array(out_pos, type=pa.int64()),
        "fp": pa.array(out_fp, type=pa.int64()),
    })


def winnow_fingerprints(ds, k: int = 4, w: int = 4,
                        text_col: str = "text"):
    """(doc_id, pos, fp) selected winnowing fingerprints — per-doc
    local compute, zero shuffle (callers sort/exchange as needed)."""
    pruned = ds.select_columns(["doc_id", text_col])
    return pruned.map_batches(
        lambda b: _fingerprint_rows(b, k, w, text_col),
        batch_format="pyarrow",
    )


def winnow_dedup(ds, k: int = 4, w: int = 4, min_shared: int = 2,
                 text_col: str = "text",
                 max_bucket: int = DEFAULT_MAX_BUCKET):
    """Near-dup pair screen over winnowed fingerprints: docs sharing
    ≥ ``min_shared`` DISTINCT selected hash values, with each side's
    fingerprint-set size attached (doc_a < doc_b).

    Exchanges: one fingerprint-keyed groupby over the winnowed stream
    (density ~2/(w+1) of the shingles), bucket-capped pair emission,
    one pair-keyed count, and two vectorized `hash_join`s to stamp
    sizes — the per-doc size table never touches the driver.
    """
    from .join import hash_join

    pruned = ds.select_columns(["doc_id", text_col])

    def emit_distinct(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        ids = batch.column("doc_id").to_pylist()
        id_type = batch.schema.field("doc_id").type
        out_ids, out_fp = [], []
        for doc_id, t in zip(ids, texts):
            h = _doc_kgram_hashes(t, k)
            sel = _winnow_select(h, w)
            if sel.size:
                u = np.unique(h[sel]).astype(np.int64)
                out_ids.extend([doc_id] * u.size)
                out_fp.extend(u.tolist())
        return pa.table({
            "doc_id": pa.array(out_ids, type=id_type),
            "fp": pa.array(out_fp, type=pa.int64()),
        })

    # per-doc distinct happens INSIDE the emit (np.unique on the
    # selected hashes), so no (doc, fp)-keyed dedup exchange exists.
    # docfp feeds TWO consumers (sizes + pair exchange) and sizes feeds
    # TWO hash_joins — materialize both (winnowed-stream- and doc-sized
    # in the object store) or every consumer re-executes the whole
    # shingle+winnow scan
    docfp = pruned.map_batches(emit_distinct,
                               batch_format="pyarrow").materialize()

    sizes = keyed_agg(docfp, "doc_id", {"n_fp": ("count", None)})

    pairs = keyed_agg(_bucket_pairs(docfp, "fp", max_bucket),
                      ["doc_a", "doc_b"], {"shared": ("count", None)})

    def keep(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return b.filter(
            pc.greater_equal(b.column("shared"), min_shared))

    pairs = pairs.map_batches(keep, batch_format="pyarrow")

    def ren(col_from: str, col_to: str):
        def fn(b: pa.Table) -> pa.Table:
            return b.rename_columns(
                [col_to if c == col_from else c for c in b.schema.names])
        return fn

    j1 = hash_join(pairs, sizes.map_batches(
        ren("n_fp", "n_a"), batch_format="pyarrow"),
        "doc_a", "doc_id",
        ["doc_a", "doc_b", "shared"], ["n_a"])
    j2 = hash_join(j1, sizes.map_batches(
        ren("n_fp", "n_b"), batch_format="pyarrow"),
        "doc_b", "doc_id",
        ["doc_a", "doc_b", "shared", "n_a"], ["n_b"])
    return j2


def containment_pairs(ds, window: int = 8, text_col: str = "text",
                      max_bucket: int = DEFAULT_MAX_BUCKET):
    """Asymmetric containment screen over distinct ``window``-token
    shingle hashes: pairs where EITHER direction's containment
    |A∩B| / |side| reaches 1/2, kept by the exact integer test
    ``2·shared ≥ n_side`` (the float columns are each ONE IEEE
    division of exact ints — bit-reproducible).

    Output: (doc_a, doc_b, shared, n_a, n_b, c_a, c_b), doc_a < doc_b.
    """
    from .join import hash_join

    pruned = ds.select_columns(["doc_id", text_col])

    def emit(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        ids = batch.column("doc_id").to_pylist()
        id_type = batch.schema.field("doc_id").type
        out_h, out_ids = [], []
        for doc_id, t in zip(ids, texts):
            wins = _doc_window_set(t, window)
            if wins:
                out_h.extend(_hash64(wins).astype(np.int64).tolist())
                out_ids.extend([doc_id] * len(wins))
        return pa.table({
            "wh": pa.array(out_h, type=pa.int64()),
            "doc_id": pa.array(out_ids, type=id_type),
        })

    # same double-consumption as winnow_dedup
    docw = pruned.map_batches(emit,
                              batch_format="pyarrow").materialize()
    sizes = keyed_agg(docw, "doc_id", {"n_win": ("count", None)})

    pairs = keyed_agg(_bucket_pairs(docw, "wh", max_bucket),
                      ["doc_a", "doc_b"], {"shared": ("count", None)})

    def ren(col_to: str):
        def fn(b: pa.Table) -> pa.Table:
            return b.rename_columns(
                [col_to if c == "n_win" else c for c in b.schema.names])
        return fn

    j1 = hash_join(pairs, sizes.map_batches(
        ren("n_a"), batch_format="pyarrow"),
        "doc_a", "doc_id", ["doc_a", "doc_b", "shared"], ["n_a"])
    j2 = hash_join(j1, sizes.map_batches(
        ren("n_b"), batch_format="pyarrow"),
        "doc_b", "doc_id",
        ["doc_a", "doc_b", "shared", "n_a"], ["n_b"])

    def finish(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        sh2 = pc.multiply(b.column("shared"), 2)
        keep = pc.or_(pc.greater_equal(sh2, b.column("n_a")),
                      pc.greater_equal(sh2, b.column("n_b")))
        b = b.filter(keep)
        sh = b.column("shared").to_numpy(zero_copy_only=False)
        na = b.column("n_a").to_numpy(zero_copy_only=False)
        nb = b.column("n_b").to_numpy(zero_copy_only=False)
        b = b.append_column("c_a", pa.array(sh / na, type=pa.float64()))
        return b.append_column("c_b", pa.array(sh / nb,
                                               type=pa.float64()))

    return j2.map_batches(finish, batch_format="pyarrow")
