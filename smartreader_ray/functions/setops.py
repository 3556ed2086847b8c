"""Distributed set operations by content — EXCEPT / INTERSECT at scale.

SQL's ``EXCEPT`` / ``INTERSECT DISTINCT`` over wide rows (full document
text) would ship every byte of both corpora through the exchange. These
operators hash the compared column down to an 8-byte fingerprint first
(same blake2b-derived hash64 as ``fingerprint_dedup``), so the all-to-all
carries (hash, id) pairs — ~16 bytes/row regardless of document size.
Collision odds at 64 bits are ~n²/2⁶⁵ (≈3·10⁻⁸ for a billion docs), the
standard content-addressing trade documented in `functions/dedup.py`.

Both ops reuse :func:`smartreader_ray.functions.join.hash_join`'s
left_anti / inner machinery (hot-key guard included) rather than a
bespoke shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .dedup import _hash64, _md5_key
from .exchange import keyed_agg, map_groups
from .join import hash_join


def _with_content_hash(ds, content_col: str, out_col: str):
    def add_hash(batch: pa.Table) -> pa.Table:
        import numpy as np

        vals = batch.column(content_col).to_pylist()
        h = np.asarray(_hash64([v or "" for v in vals]), dtype=np.uint64)
        return batch.append_column(
            out_col, pa.array(h.view(np.int64), type=pa.int64())
        )

    return ds.map_batches(add_hash, batch_format="pyarrow")


def except_by_content(left, right, id_col: str = "doc_id",
                      content_col: str = "text"):
    """Rows of ``left`` whose ``content_col`` value does not appear
    anywhere in ``right`` — SQL ``EXCEPT`` semantics on content, with
    one distinct survivor per content value (smallest ``id_col``, so the
    result is engine-reproducible across partitionings).

    Plan: hash both sides → left_anti hash-join on the 8-byte hash →
    groupby(hash).min(id) dedups the survivors. Only (hash, id) pairs
    cross either exchange; document bytes never do.
    """
    lh = _with_content_hash(left.select_columns([id_col, content_col]),
                            content_col, "__h").select_columns([id_col, "__h"])
    rh = _with_content_hash(right.select_columns([content_col]),
                            content_col, "__rh").select_columns(["__rh"])
    survivors = hash_join(
        lh, rh, left_key="__h", right_key="__rh",
        left_cols=[id_col, "__h"], right_cols=["__rh"], how="left_anti",
    )
    return keyed_agg(survivors, "__h", {id_col: ("min", id_col)}
                     ).select_columns([id_col])


def intersect_by_content(left, right, id_col: str = "doc_id",
                         content_col: str = "text"):
    """Distinct content values present in BOTH sides, reported as the
    smallest left-side ``id_col`` per value (SQL ``INTERSECT`` with a
    deterministic representative).

    The right side is reduced to its distinct hashes BEFORE the join,
    so the semi-join ships one row per distinct content value and each
    left row matches at most one right row — the cross-product guard
    can never trip on duplicate-heavy inputs.
    """
    lh = _with_content_hash(left.select_columns([id_col, content_col]),
                            content_col, "__h").select_columns([id_col, "__h"])
    rh = keyed_agg(_with_content_hash(right.select_columns([content_col]),
                                      content_col, "__rh")
                   .select_columns(["__rh"]), "__rh", {})
    matched = hash_join(
        lh, rh, left_key="__h", right_key="__rh",
        left_cols=[id_col, "__h"], right_cols=["__rh"], how="inner",
    )
    return keyed_agg(matched, "__h", {id_col: ("min", id_col)}
                     ).select_columns([id_col])


def table_diff(left, right, key_col: str = "doc_id",
               content_col: str = "text"):
    """Snapshot diff (CDC) between two versions of a keyed corpus:
    which keys were ``added``, ``removed``, or ``changed`` between
    version 1 (``left``) and version 2 (``right``) — the dataset-
    versioning primitive behind incremental reprocessing ("re-extract
    only what changed since the last crawl").

    Precondition: ``key_col`` is unique within each side (a version
    snapshot); a duplicate key raises loudly rather than misclassifying.

    Plan: tag each side (1=left, 2=right), hash content to 8 bytes, and
    run ONE ``groupby(key)`` over (key, side, hash) rows — ~24
    bytes/row crosses the exchange regardless of document size.
    side_sum 1 → removed, 2 → added, 3 → changed iff the two hashes
    differ (equal-content rows are dropped — diff output is
    change-sized, not corpus-sized). Same 64-bit collision trade as
    ``except_by_content``.
    """
    import numpy as np

    def tag(side: int):
        def f(b: pa.Table) -> pa.Table:
            vals = b.column(content_col).to_pylist()
            h = np.asarray(_hash64([v or "" for v in vals]),
                           dtype=np.uint64).view(np.int64)
            return pa.table({
                key_col: b.column(key_col),
                "__side": pa.array(
                    np.full(len(vals), side, dtype=np.int64)),
                "__h": pa.array(h, type=pa.int64()),
            })
        return f

    tagged = (
        left.select_columns([key_col, content_col])
        .map_batches(tag(1), batch_format="pyarrow")
        .union(right.select_columns([key_col, content_col])
               .map_batches(tag(2), batch_format="pyarrow"))
    )
    agg = keyed_agg(tagged, key_col, {
        "side_sum": ("sum", "__side"), "h_min": ("min", "__h"),
        "h_max": ("max", "__h"), "n": ("count", None)})

    def classify(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n = b.column("n").to_numpy(zero_copy_only=False)
        ss = b.column("side_sum").to_numpy(zero_copy_only=False)
        if ((n > 2) | (ss < 1) | (ss > 3) | ((n == 2) & (ss != 3))).any():
            raise ValueError(
                "table_diff: duplicate key within a snapshot side — "
                "CDC requires key-unique versions")
        changed = (ss == 3) & (
            b.column("h_min").to_numpy(zero_copy_only=False)
            != b.column("h_max").to_numpy(zero_copy_only=False))
        status = np.where(ss == 1, "removed",
                          np.where(ss == 2, "added", "changed"))
        keep = (ss != 3) | changed
        t = pa.table({
            key_col: b.column(key_col),
            "status": pa.array(status, type=pa.string()),
        })
        return t.filter(pa.array(keep))

    return (
        agg.map_batches(classify, batch_format="pyarrow")
    )


def table_fingerprint(ds, group_col: str, cols: list[str],
                      ts_cols: tuple = ()):
    """Order-independent table checksum per ``group_col`` value — the
    snapshot-verification primitive behind CDC / replication audits
    (`table_diff` tells you WHICH rows changed; this answers "did
    anything change?" with one k-row exchange and no key shuffle).

    Each row hashes to ``h = int(md5('|'.join(cols))[:15], 16)`` (60
    bits; columns rendered as ints/strings only — floats are excluded
    by contract because their text rendering is engine-specific;
    timestamps in ``ts_cols`` render as epoch-µs ints). Per group the
    fingerprint is the pair of ORDER-INDEPENDENT aggregates

        sum_fp = (Σ h) mod (2^61 - 1)      xor_fp = XOR of h

    so any partitioning/arrival order yields the same answer, partials
    combine associatively inside each block, and only (group, 3 ints)
    rows ever cross the exchange. SQL replays it with md5 + hugeint
    modulo + bit_xor.
    """
    _P = (1 << 61) - 1
    ts_set = set(ts_cols)

    def partial(b: pa.Table) -> pa.Table:
        rendered = []
        for c in cols:
            col = b.column(c)
            if c in ts_set:
                vals = col.to_numpy(zero_copy_only=False).astype(
                    "datetime64[us]").astype(np.int64)
                rendered.append([str(v) for v in vals])
            else:
                rendered.append([str(v) for v in col.to_pylist()])
        groups = b.column(group_col).to_pylist()
        acc: dict = {}
        for i, g in enumerate(groups):
            h = _md5_key("|".join(r[i] for r in rendered))
            s, x, n = acc.get(g, (0, 0, 0))
            acc[g] = ((s + h) % _P, x ^ h, n + 1)
        keys = sorted(acc)
        return pa.Table.from_pydict({
            group_col: pa.array(keys,
                                type=b.schema.field(group_col).type),
            "sum_fp": pa.array([acc[k][0] for k in keys],
                               type=pa.int64()),
            "xor_fp": pa.array([acc[k][1] for k in keys],
                               type=pa.int64()),
            "n_rows": pa.array([acc[k][2] for k in keys],
                               type=pa.int64()),
        })

    def combine(g: pa.Table) -> pa.Table:
        s = 0
        for v in g.column("sum_fp").to_pylist():
            s = (s + v) % _P
        x = 0
        for v in g.column("xor_fp").to_pylist():
            x ^= v
        return pa.Table.from_pydict({
            group_col: g.column(group_col).slice(0, 1),
            "sum_fp": pa.array([s], type=pa.int64()),
            "xor_fp": pa.array([x], type=pa.int64()),
            "n_rows": pa.array(
                [int(np.sum(g.column("n_rows").to_numpy(
                    zero_copy_only=False)))], type=pa.int64()),
        })

    return map_groups(
        ds.select_columns(list(dict.fromkeys([group_col, *cols])))
        .map_batches(partial, batch_format="pyarrow"),
        group_col, combine)


def union_by_name(datasets):
    """Schema-evolution union: concatenate Datasets whose schemas
    overlap but don't match (new columns added across ingestion
    epochs, reordered projections) by NAME — missing columns become
    typed nulls, column order is first-seen. The reader-side half of
    "add a column without rewriting history" that every long-lived
    corpus needs; plain ``union`` would mis-zip by position or reject.

    Column types must agree where shared (loudly checked); the
    alignment is a shuffle-free per-batch projection, so the union
    stays fully streaming.
    """
    if not datasets:
        raise ValueError("union_by_name: need at least one dataset")
    cols: list[str] = []
    types: dict[str, pa.DataType] = {}
    for d in datasets:
        s = d.schema()
        for name, typ in zip(s.names, s.types):
            if name in types:
                if types[name] != typ:
                    raise ValueError(
                        f"union_by_name: column {name!r} has "
                        f"conflicting types {types[name]} vs {typ}")
            else:
                cols.append(name)
                types[name] = typ

    def align(b: pa.Table) -> pa.Table:
        arrays = []
        for c in cols:
            if c in b.column_names:
                arrays.append(b.column(c))
            else:
                arrays.append(pa.nulls(b.num_rows, type=types[c]))
        return pa.table(dict(zip(cols, arrays)))

    aligned = [d.map_batches(align, batch_format="pyarrow")
               for d in datasets]
    out = aligned[0]
    for d in aligned[1:]:
        out = out.union(d)
    return out
