"""Reshape operators: long→wide pivots over a distributed Dataset.

The reference is strictly per-document and has no tabular reshaping;
this is engine surface for the corpus side (feature tables: one row
per entity with per-category counts/sums, the classic input layout for
training-data mixing decisions and quality dashboards).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import (N_PARTS, keyed_agg, keyed_agg_table, keyed_exchange,
                       map_groups)
from .topk import head_by


def pivot_counts(ds, key_col: str, col: str, values: list[str],
                 value_col: str | None = None, prefix: str = "n_"):
    """Long→wide pivot: one output row per ``key_col`` with a column
    ``{prefix}{v}`` per pivot value ``v`` counting rows where ``col ==
    v`` (or, with ``value_col``, summing that column instead —
    cent-rounded). Rows whose ``col`` is outside ``values`` are ignored
    — the pivot column set must be DECLARED, never inferred, so the
    output schema is fixed up front (schema inference over 100 TB would
    itself be a full scan).

    Ray shape: per-batch Arrow ``group_by(key, col)`` partial combine →
    one narrow (key, value, agg) row per block×key×value crosses the
    exchange → ``groupby(key)`` assembles the wide row vectorized. No
    per-row Python; exchange size independent of row count.
    """
    out_cols = [f"{prefix}{v}" for v in values]
    agg_int = value_col is None

    def partial(batch: pa.Table) -> pa.Table:
        sel = [key_col, col] + ([value_col] if value_col else [])
        t = batch.select(sel)
        if value_col:
            g = t.group_by([key_col, col]).aggregate([(value_col, "sum")])
            return g.rename_columns([key_col, "__pv", "__agg"])
        g = t.group_by([key_col, col]).aggregate([([], "count_all")])
        return g.rename_columns([key_col, "__pv", "__agg"])

    val_idx = {v: i for i, v in enumerate(values)}

    def widen(group: pa.Table) -> pa.Table:
        if not agg_int:
            # float partials must accumulate in a deterministic order —
            # group-arrival order varies with partitioning, and a total on
            # a half-cent boundary would flip the rounded cent run-to-run
            import pyarrow.compute as pc

            group = group.take(pc.sort_indices(
                group, sort_keys=[("__pv", "ascending"), ("__agg", "ascending")]
            ))
        pv = group.column("__pv").to_pylist()
        agg = group.column("__agg").to_numpy(zero_copy_only=False)
        acc = np.zeros(len(values), dtype=np.float64)
        for v, a in zip(pv, agg):
            i = val_idx.get(v)
            if i is not None:
                acc[i] += a
        cols = {key_col: group.column(key_col).combine_chunks().slice(0, 1)}
        for name, total in zip(out_cols, acc):
            cols[name] = pa.array(
                [int(total)] if agg_int else [round(float(total), 2)],
                type=pa.int64() if agg_int else pa.float64(),
            )
        return pa.Table.from_pydict(cols)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return map_groups(partials, key_col, widen)


def range_partition_by_quantiles(ds, key_col: str, value_col: str,
                                 qs=(0.25, 0.5, 0.75)):
    """Assign each row a range-partition shard within its key group,
    with boundaries at the EXACT per-key quantiles of ``value_col`` —
    the explicit-repartitioning primitive: compute balanced boundaries
    once (a histogram-sized reduction, `sketch.exact_quantile_by`),
    broadcast them, and stamp shards in a single shuffle-free
    ``map_batches``. ``shard = Σ (value > boundary_i)`` — the strict
    comparator an oracle can replay off ``percentile_disc``.

    Downstream, `Dataset.write_parquet(partition_cols=[key, "shard"])`
    (the `ivf_build_index` layout pattern) turns the stamps into a
    physically range-partitioned, skew-balanced table.

    Returns ``ds`` + ``shard`` (int64 in [0, len(qs)]).
    """
    import numpy as np
    import ray

    from .sketch import exact_quantile_by

    bounds = exact_quantile_by(ds, key_col, value_col, qs=qs).to_pandas()
    by_key: dict = {}
    for k, grp in bounds.groupby(key_col, sort=False):
        by_key[k] = grp.sort_values("q")["value"].to_numpy()
    bounds_ref = ray.put(by_key)

    def stamp(batch: pa.Table) -> pa.Table:
        import pandas as pd

        bk = ray.get(bounds_ref)
        keys = batch.column(key_col).to_pandas()
        vals = batch.column(value_col).to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        shard = np.zeros(len(keys), dtype=np.int64)
        # one vectorized boundary comparison per key group (keys are the
        # partition keys — few by construction), no per-row Python
        for k, idxs in keys.groupby(keys, sort=False).groups.items():
            ii = np.asarray(idxs, dtype=np.int64)
            shard[ii] = (vals[ii][:, None] > bk[k][None, :]).sum(axis=1)
        return batch.append_column("shard", pa.array(shard, type=pa.int64()))

    return ds.map_batches(stamp, batch_format="pyarrow")


def fixed_width_histogram(ds, value_col: str, lo: float, hi: float,
                          nbins: int):
    """Data-profiling histogram with FIXED bin edges: bin =
    ``clamp(floor((v - lo) / w), 0, nbins-1)`` with ``w = (hi-lo)/nbins``
    — one float divide + floor per value, bit-identical in SQL, so the
    result is hash-exact (unlike a quantile-based histogram, whose edges
    are data-dependent floats). Nulls are dropped. Returns one row per
    OBSERVED bin: ``(bin, bin_lo, n)``, ordered by bin.

    Scale shape: one ``keyed_agg`` count per bin; the exchange is
    bounded by nbins × blocks regardless of corpus size.
    """
    import numpy as np

    w = (hi - lo) / nbins

    def bins(b: pa.Table) -> pa.Table:
        v = b.column(value_col).to_numpy(zero_copy_only=False).astype(
            "float64"
        )
        v = v[~np.isnan(v)]
        return pa.table({"bin": np.clip(np.floor((v - lo) / w)
                                        .astype("int64"), 0, nbins - 1)})

    agg = keyed_agg(ds.map_batches(bins, batch_format="pyarrow"), "bin",
                    {"n": ("count", None)})
    return agg.map_batches(
        lambda b: pa.table(
            {
                "bin": b.column("bin"),
                "bin_lo": pc.add(
                    pa.scalar(lo, type=pa.float64()),
                    pc.multiply(pc.cast(b.column("bin"), pa.float64()),
                                pa.scalar(w, type=pa.float64())),
                ),
                "n": b.column("n"),
            }
        ),
        batch_format="pyarrow",
    ).sort("bin")


def json_field_agg(ds, json_col: str, key: str, group_col: str):
    """Semi-structured ETL: extract an integer field from a JSON-string
    column with an RE2 pattern (``"key":\\s*(\\d+)``) and aggregate per
    group — n / sum / min / max. Arrow's RE2 is DuckDB's RE2, the
    repo's proven parity route for string extraction (a full JSON
    parser is unnecessary for flat integer fields and would add a
    per-row Python hop).

    Rows where the field is absent are dropped (both sides). Per-block
    pre-combine keeps the exchange group-sized. All-integer outputs →
    hash-exact.
    """
    # Arrow extract_regex requires a NAMED group; DuckDB addresses the
    # same group by number — one RE2 semantics either way
    pattern = r'"' + key + r'":\s*(?P<v>\d+)'

    def values(b: pa.Table) -> pa.Table:
        ext = pc.extract_regex(
            pc.coalesce(pc.cast(b.column(json_col), pa.string()),
                        pa.scalar("", type=pa.string())),
            pattern,
        )
        t = pa.table({group_col: b.column(group_col),
                      "v": pc.cast(pc.struct_field(ext, "v"), pa.int64())})
        return t.filter(pc.and_(pc.is_valid(t.column(group_col)),
                                pc.is_valid(t.column("v"))))

    return keyed_agg(
        ds.map_batches(values, batch_format="pyarrow"), group_col,
        {"n": ("count", None), "sum_v": ("sum", "v"),
         "min_v": ("min", "v"), "max_v": ("max", "v")},
    ).sort(group_col)


def mode_by(ds, key_col: str, col: str):
    """Per-key modal value of ``col`` with a deterministic tie-break
    (smallest value wins) — the categorical companion to the numeric
    per-key stats: "dominant language per source", "most common event
    per user". SQL equivalent: ROW_NUMBER() OVER (PARTITION BY key
    ORDER BY n DESC, col ASC) = 1.

    Ray shape: per-batch Arrow ``group_by(key, col)`` count partials →
    one ``groupby(key)`` exchange of (key, value, n) rows (cardinality
    = keys × distinct values, independent of row count) → per-group
    vectorized argmax. Output: key, mode_<col>, n_mode, n_rows.
    """

    def partial(b: pa.Table) -> pa.Table:
        g = (b.select([key_col, col])
             .group_by([key_col, col]).aggregate([([], "count_all")]))
        return g.rename_columns([key_col, col, "n"])

    def pick(group: pa.Table) -> pa.Table:
        g = group.group_by([key_col, col]).aggregate([("n", "sum")])
        g = g.rename_columns([key_col, col, "n"])
        idx = pc.sort_indices(
            g, sort_keys=[("n", "descending"), (col, "ascending")])
        top = g.take(idx.slice(0, 1))
        total = pc.sum(g.column("n")).as_py()
        return pa.table({
            key_col: top.column(key_col),
            f"mode_{col}": top.column(col),
            "n_mode": pc.cast(top.column("n"), pa.int64()),
            "n_rows": pa.array([int(total)], type=pa.int64()),
        })

    return (
        map_groups(ds.map_batches(partial, batch_format="pyarrow"),
                   key_col, pick)
        .sort(key_col)
    )


def rollup_agg(ds, key_cols: list[str], value_cols: list[str],
               all_token: str = "(all)"):
    """Single-pass ROLLUP: every prefix grain of ``key_cols`` —
    (k1, k2), (k1, ALL), (ALL, ALL) — computed in ONE shuffle instead
    of one aggregation job per grain. Each batch contributes a
    pre-combined partial per grain (rolled levels take the sentinel
    ``all_token``), so the exchange carries grain-count × group-count
    rows regardless of input size; at 100 TB this replaces G full
    passes with one.

    Value columns cross the exchange as integer cents
    (floor(v·100+0.5), the repo's established float-exactness route) so
    the rolled-up sums are hash-exact and order-independent.
    """
    sum_cols = [f"sum_{v}_cents" for v in value_cols]

    def levels(b: pa.Table) -> pa.Table:
        n = b.num_rows
        cents = {
            sc: pc.cast(
                pc.floor(pc.add(pc.multiply(
                    pc.cast(b.column(v), pa.float64()), 100.0), 0.5)),
                pa.int64())
            for v, sc in zip(value_cols, sum_cols)
        }
        all_col = pa.array([all_token] * n, type=pa.string())
        return pa.concat_tables([
            pa.table({**{k: b.column(k) if i < lvl else all_col
                         for i, k in enumerate(key_cols)}, **cents})
            for lvl in range(len(key_cols), -1, -1)])

    return keyed_agg(
        ds.map_batches(levels, batch_format="pyarrow"), key_cols,
        {**{c: ("sum", c) for c in sum_cols}, "n": ("count", None)},
    ).sort(key_cols)


def profile_table(ds, columns: list[str]):
    """Numeric table-health profiler: per declared column, one row of
    (n, n_null, min, max, integer-cents sum) — the stats pass a
    pipeline runs before trusting an unfamiliar 100 TB drop (nulls
    where none are expected, out-of-range values, truncated loads).

    Columns are DECLARED, not inferred (schema inference is itself a
    full scan). Per batch every column collapses to ONE stats row, so
    the exchange is columns × blocks rows; min/max are raw data
    values, the sum crosses as floor(v·100+0.5) int64 — all
    SQL-replayable. All-null blocks emit null min/max (the groupby's
    ignore-nulls Min/Max handles them).
    """
    def partial(b: pa.Table) -> pa.Table:
        names, ns, nulls, mins, maxs, sums = [], [], [], [], [], []
        for c in columns:
            col = pc.cast(b.column(c), pa.float64())
            n = len(col)
            nn = col.null_count
            names.append(c)
            ns.append(n)
            nulls.append(nn)
            if n - nn > 0:
                mm = pc.min_max(col)
                mins.append(mm["min"].as_py())
                maxs.append(mm["max"].as_py())
                v = col.drop_null().to_numpy(zero_copy_only=False)
                sums.append(int(np.floor(v * 100.0 + 0.5)
                                .astype(np.int64).sum()))
            else:
                mins.append(None)
                maxs.append(None)
                sums.append(0)
        return pa.table({
            "column_name": pa.array(names, type=pa.string()),
            "n": pa.array(ns, type=pa.int64()),
            "n_null": pa.array(nulls, type=pa.int64()),
            "min_v": pa.array(mins, type=pa.float64()),
            "max_v": pa.array(maxs, type=pa.float64()),
            "sum_cents": pa.array(sums, type=pa.int64()),
        })

    return (
        keyed_agg(ds.select_columns(columns)
                  .map_batches(partial, batch_format="pyarrow"),
                  "column_name",
                  {"n": ("sum", "n"), "n_null": ("sum", "n_null"),
                   "min_v": ("min", "min_v"), "max_v": ("max", "max_v"),
                   "sum_cents": ("sum", "sum_cents")})
        .sort("column_name")
    )


def sort_bounds(ds, value_col: str, id_col: str,
                num_shards: int = 8, sample_prob: float = 0.1):
    """Range-partition boundary planner — what Spark's RangePartitioner
    does before a distributed sort, made DETERMINISTIC: sample rows
    whose ``md5(str(id))`` falls under ``sample_prob`` (the repo's
    reproducible-draw convention, SQL-replayable), then read the
    equi-depth boundaries off the sample's exact discrete quantiles.
    Output: (q, bound) for q = i/num_shards, i = 1..num_shards−1 —
    feed to a range shuffle so every shard gets ~equal rows without
    scanning full data twice.

    Ray shape: the sample filter is a shuffle-free map pass; the
    quantile reduction exchanges only the sample's value histogram
    (`sketch.exact_quantile_by` convention = percentile_disc).
    """
    from .sampling import _md5_hex, mix_threshold_hex
    from .sketch import exact_quantile_by

    threshold = mix_threshold_hex(sample_prob)

    def sample(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_pylist()
        hexes = _md5_hex(ids)
        mask = pa.array([h[:8] < threshold for h in hexes])
        kept = b.filter(mask)
        return pa.table({
            "__g": pa.array(["all"] * kept.num_rows, type=pa.string()),
            value_col: kept.column(value_col),
        })

    qs = tuple(i / num_shards for i in range(1, num_shards))
    bounds = exact_quantile_by(
        ds.select_columns([id_col, value_col]).map_batches(
            sample, batch_format="pyarrow"),
        "__g", value_col, qs=qs)
    return bounds.map_batches(
        lambda b: pa.table({
            "q": b.column("q"),
            "bound": pc.cast(b.column("value"), pa.float64()),
        }),
        batch_format="pyarrow",
    ).sort("q")


def latest_by(ds, key_cols: list[str], ts_col: str, id_col: str,
              value_cols: list[str]):
    """Log compaction / upsert resolution: keep each key's LATEST row
    by (ts desc, id desc) — the materialize step of every CDC or
    event-sourced table ("current state per entity"). The (ts, id)
    order is total because ids are unique, so the survivor is
    deterministic. A ``topk.head_by`` with ``n = 1``: each block first
    keeps one candidate row per key, and only keys × blocks rows cross
    the keyed exchange. The rows come back in no particular order.
    """
    cols = key_cols + [ts_col, id_col] + value_cols
    return head_by(ds.select_columns(cols), key_cols,
                   [(ts_col, "descending"), (id_col, "descending")],
                   1).drop_columns(["rank"])


def unpivot(ds, key_col: str, value_cols: list[str],
            var_col: str = "variable", val_col: str = "value"):
    """Wide→long melt — `pivot_counts`' inverse: each input row emits
    one (key, variable, value) row per declared wide column. A pure
    per-batch expansion: zero shuffle, the fan-out factor is the
    declared column count, and the variable names are string constants
    per column (never inferred from data).
    """
    import numpy as np

    def melt(b: pa.Table) -> pa.Table:
        n = b.num_rows
        k = len(value_cols)
        idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), k))
        keys = pc.take(b.column(key_col), idx)
        names = pa.array(
            np.tile(np.asarray(value_cols, dtype=object), n),
            type=pa.string())
        vals = pa.concat_arrays([
            b.column(c).combine_chunks().cast(pa.int64())
            for c in value_cols
        ])
        # interleave: values currently column-major; reorder row-major
        order = pa.array(
            (np.arange(n * k).reshape(k, n).T).reshape(-1))
        return pa.table({
            key_col: keys,
            var_col: names,
            val_col: pc.take(vals, order),
        })

    return ds.map_batches(melt, batch_format="pyarrow")


def id_gaps(ds, id_col: str, bucket: int = 1 << 20):
    """Missing-run detection over an expected-dense integer id column:
    emit every maximal run of absent ids strictly between the observed
    min and max — ``(gap_start, gap_end, n_missing)`` sorted by start.
    The data-completeness audit (dropped event ranges, lost shards)
    that SQL spells as the lead()-over-ids islands query.

    Ray shape: ids are bucketed by ``id // bucket`` so ONE keyed
    groupby co-locates each contiguous id range; inside a bucket the
    interior runs fall out of one vectorized diff over the sorted
    unique ids, and those gap rows STAY distributed. Only the
    per-bucket (first, last) summaries come to the driver (non-empty-
    bucket-sized — at the default bucket width, one row per ~10⁶ ids),
    where cross-bucket gaps are stitched by comparing consecutive
    summaries; empty buckets in between are covered by construction.
    Duplicates are legal (deduped per block before the exchange).
    """
    import numpy as np
    import pyarrow.compute as pc
    import ray.data

    def partial(b: pa.Table) -> pa.Table:
        ids = np.unique(b.column(id_col).to_numpy(
            zero_copy_only=False).astype(np.int64))
        return pa.table({
            "__bucket": pa.array(ids // bucket, type=pa.int64()),
            "__id": pa.array(ids, type=pa.int64()),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        u = np.unique(g.column("__id").to_numpy(zero_copy_only=False))
        d = np.diff(u)
        at = np.flatnonzero(d > 1)
        starts = u[at] + 1
        ends = u[at + 1] - 1
        # kind 0: interior gap rows; kind 1: the bucket summary
        return pa.table({
            "kind": pa.array([0] * len(at) + [1], type=pa.int8()),
            "a": pa.array(np.concatenate([starts, [u[0]]]),
                          type=pa.int64()),
            "b": pa.array(np.concatenate([ends, [u[-1]]]),
                          type=pa.int64()),
        })

    tagged = map_groups(
        ds.select_columns([id_col])
        .map_batches(partial, batch_format="pyarrow"),
        "__bucket", per_bucket).materialize()

    if tagged.count() == 0:
        return ray.data.from_arrow(pa.table({
            "gap_start": pa.array([], type=pa.int64()),
            "gap_end": pa.array([], type=pa.int64()),
            "n_missing": pa.array([], type=pa.int64()),
        }))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "gap_start": t.column("a"),
            "gap_end": t.column("b"),
            "n_missing": pc.add(pc.subtract(t.column("b"),
                                            t.column("a")), 1),
        })

    interior = tagged.map_batches(
        lambda b: finish(b.filter(pc.equal(b.column("kind"), 0))),
        batch_format="pyarrow")

    summaries = sorted(
        (r["a"], r["b"])
        for r in tagged.map_batches(
            lambda b: b.filter(pc.equal(b.column("kind"), 1)),
            batch_format="pyarrow").take_all()
    )
    xs, xe = [], []
    for (pa_, pb), (na, _nb) in zip(summaries, summaries[1:]):
        if na > pb + 1:
            xs.append(pb + 1)
            xe.append(na - 1)
    cross = ray.data.from_arrow(finish(pa.table({
        "a": pa.array(xs, type=pa.int64()),
        "b": pa.array(xe, type=pa.int64()),
        "kind": pa.array([1] * len(xs), type=pa.int8()),
    })))
    return interior.union(cross).sort("gap_start")


def fd_histogram(ds, value_col: str, max_driver_values: int = 5_000_000):
    """Auto-binned histogram with the Freedman–Diaconis rule: bin width
    ``h = 2·IQR / n^(1/3)`` — the statistician's default when nobody
    wants to hand-pick ``nbins``. Two passes:

    1. a distributed value-count histogram (exchange = distinct values
       × blocks — the `exact_quantile_by` bounded-domain contract; the
       merged histogram comes to the driver, guarded at
       ``max_driver_values``) yields EXACT q25/q75 (percentile_disc
       convention), min, max, n;
    2. the derived edges feed :func:`fixed_width_histogram`, whose
       bincount partials are nbins-sized.

    Every derived float (h, hi, w, bin_lo) is computed by one fixed
    IEEE expression tree — libm ``pow(n, 1/3)`` is SQL ``power()`` —
    so a SQL replay spelling the same tree is bit-identical and the
    result hash-gates. Degenerate spread (IQR = 0 or min = max)
    collapses to one bin covering everything.
    """
    import math

    import numpy as np

    def values(b: pa.Table) -> pa.Table:
        v = b.column(value_col).to_numpy(zero_copy_only=False).astype(
            np.float64)
        return pa.table({"v": v[~np.isnan(v)]})

    hist = keyed_agg(ds.select_columns([value_col])
                     .map_batches(values, batch_format="pyarrow"),
                     "v", {"cnt": ("count", None)}).materialize()
    n_distinct = hist.count()
    if n_distinct == 0:
        import ray.data

        return ray.data.from_arrow(pa.table({
            "bin": pa.array([], type=pa.int64()),
            "bin_lo": pa.array([], type=pa.float64()),
            "n": pa.array([], type=pa.int64()),
        }))
    if n_distinct > max_driver_values:
        raise ValueError(
            f"fd_histogram: {n_distinct} distinct values exceeds the "
            f"driver guard ({max_driver_values}); the value domain is "
            "not bounded — pre-round the column or use "
            "fixed_width_histogram with chosen edges")
    t = pa.concat_tables(list(hist.iter_batches(batch_format="pyarrow",
                                                batch_size=None)))
    order = pc.sort_indices(t.column("v"))
    vals = t.column("v").take(order).to_numpy(zero_copy_only=False)
    cnts = t.column("cnt").take(order).to_numpy(
        zero_copy_only=False).astype(np.int64)
    n = int(cnts.sum())
    cum = np.cumsum(cnts)

    def disc(q):  # smallest value with cumulative fraction ≥ q
        pos = max(0, math.ceil(q * n) - 1)
        return float(vals[np.searchsorted(cum, pos + 1, side="left")])

    q25, q75 = disc(0.25), disc(0.75)
    lo, hi_v = float(vals[0]), float(vals[-1])
    h = 2.0 * (q75 - q25) / math.pow(float(n), 1.0 / 3.0)
    if h <= 0.0 or hi_v <= lo:
        nbins, hi = 1, hi_v + 1.0
    else:
        nbins = int(math.ceil((hi_v - lo) / h))
        hi = lo + float(nbins) * h
    return fixed_width_histogram(ds, value_col, lo, hi, nbins)


def global_rank(ds, ckey_col: str, sum_col: str | None = None):
    """Exact global 1-based row numbering over a UNIQUE int64 sort key —
    the distributed-ranking primitive behind NTILE / median-split /
    Gini. TeraSort shape: (1) ``ds`` is materialized once, one task per
    block takes ``N_PARTS`` evenly-spaced sort-key samples → driver picks
    ``N_PARTS - 1`` range bounds (the sample table is bounded by the
    block count, never the row count); (2) one range-keyed exchange;
    (3) per-range counts → driver prefix-sum → broadcast offsets; (4)
    per-range local sort + offset. Only the sample and the range-count
    table ever reach the driver. The rank is exact whatever the range
    count.

    ``ckey_col`` must be UNIQUE int64 (compose ties as
    ``value * 2^32 + id``) — uniqueness makes the rank total and the
    range assignment unambiguous.

    Returns the dataset with an added ``rn`` (int64, 1-based). With
    ``sum_col`` (an int64 column) it also adds ``cum`` — the INCLUSIVE
    prefix sum of ``sum_col`` in rank order (per-range subtotal offsets
    ride the same driver prefix-sum as the row counts) — the running
    total behind Pareto/ABC cuts and equal-weight splits.
    """
    import ray

    @ray.remote
    def samp(b: pa.Table) -> np.ndarray:
        if b.num_rows == 0:  # an empty block may lack the columns
            return np.array([], dtype=np.int64)
        v = np.sort(b.column(ckey_col).to_numpy(zero_copy_only=False)
                    .astype(np.int64))
        return v[np.linspace(0, v.size - 1, N_PARTS).astype(np.int64)]

    # sampled (one task per block, no Dataset execution) and stamped from
    # one copy, so the input's lineage runs once
    ds = ds.materialize()
    sample_vals = np.sort(np.concatenate(
        [np.array([], np.int64)]
        + ray.get([samp.remote(b) for b in ds.to_arrow_refs()])))
    if sample_vals.size == 0:
        def empty_cols(b: pa.Table) -> pa.Table:
            b = b.append_column("rn", pa.array([], type=pa.int64()))
            if sum_col is not None:
                b = b.append_column("cum", pa.array([], type=pa.int64()))
            return b
        return ds.map_batches(empty_cols, batch_format="pyarrow")
    qs = np.linspace(0, 1, N_PARTS + 1)[1:-1]
    bounds = np.unique(np.quantile(sample_vals, qs).astype(np.int64))
    bounds_ref = ray.put(bounds)

    def stamp(b: pa.Table) -> pa.Table:
        bd = ray.get(bounds_ref)
        v = b.column(ckey_col).to_numpy(zero_copy_only=False)
        rng = np.searchsorted(bd, v, side="right").astype(np.int64)
        return b.append_column("__range", pa.array(rng, type=pa.int64()))

    stamped = ds.map_batches(stamp, batch_format="pyarrow")
    aggs = {"n": ("count", None)}
    if sum_col is not None:
        aggs["vsum"] = ("sum", sum_col)
    cnt = keyed_agg_table(stamped, "__range", aggs)  # sorted by range
    ranges = cnt.column("__range").to_numpy()
    offs = np.cumsum(cnt.column("n").to_numpy()) - cnt.column("n").to_numpy()
    voffs = None
    if sum_col is not None:
        vsum = cnt.column("vsum").to_numpy().astype(np.int64)
        voffs = np.cumsum(vsum) - vsum
    offs_ref = ray.put((ranges, offs, voffs))

    def rank_part(g: pa.Table) -> pa.Table:
        """Rank the rows of the ranges in one partition: ranges are
        disjoint key intervals, so in key order each range is one run,
        and a row's rank is its range's offset plus its place in the
        run."""
        n = g.num_rows
        ranges, offs, voffs = ray.get(offs_ref)
        v = g.column(ckey_col).to_numpy(zero_copy_only=False)
        order = np.argsort(v, kind="stable")
        r = g.column("__range").to_numpy(zero_copy_only=False)[order]
        first = np.searchsorted(r, r, side="left")
        at = np.searchsorted(ranges, r)
        rn = np.empty(n, dtype=np.int64)
        rn[order] = offs[at] + 1 + np.arange(n, dtype=np.int64) - first
        g = g.drop_columns(["__range"]).append_column(
            "rn", pa.array(rn, type=pa.int64()))
        if sum_col is not None:
            vals = g.column(sum_col).to_numpy(
                zero_copy_only=False).astype(np.int64)[order]
            cs = np.cumsum(vals)
            cum = np.empty(n, dtype=np.int64)
            cum[order] = voffs[at] + cs - (cs[first] - vals[first])
            g = g.append_column("cum", pa.array(cum, type=pa.int64()))
        return g

    return keyed_exchange(stamped, "__range", rank_part)


def ntile_summary(ds, value_col: str, id_col: str, k: int = 8):
    """NTILE(k) over the total order (value-cents, id) — per-bucket
    rollup ``bucket, n_rows, min_cents, max_cents, sum_cents``. The
    equal-frequency binning step behind quantile features and balanced
    dataset splits, exercised as a true distributed global ranking
    (`global_rank`) rather than a single-node window.

    Bucket rule (standard SQL NTILE): with n rows, q = n//k, r = n%k,
    the first r buckets take q+1 rows. Exact int64 arithmetic end to
    end (cents = floor(v*100 + 0.5)); ids must fit in [0, 2^31) so the
    composite sort key cents·2³² + id stays int64-exact.
    """
    def keyed(b: pa.Table) -> pa.Table:
        v = b.column(value_col).to_numpy(zero_copy_only=False)
        ids = b.column(id_col).to_numpy(zero_copy_only=False).astype(
            np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= 2**31):
            raise OverflowError(
                f"ntile_summary: {id_col} outside [0, 2^31) breaks the "
                "composite int64 sort key")
        cents = np.floor(v.astype(np.float64) * 100.0 + 0.5).astype(
            np.int64)
        return pa.table({
            "__ck": pa.array(cents * (2**32) + ids, type=pa.int64()),
            "cents": pa.array(cents, type=pa.int64()),
        })

    keyed_ds = ds.map_batches(keyed, batch_format="pyarrow")
    n = keyed_ds.count()
    if n == 0:
        return pa.table({
            "bucket": pa.array([], type=pa.int64()),
            "n_rows": pa.array([], type=pa.int64()),
            "min_cents": pa.array([], type=pa.int64()),
            "max_cents": pa.array([], type=pa.int64()),
            "sum_cents": pa.array([], type=pa.int64()),
        })
    ranked = global_rank(keyed_ds, "__ck")
    q, r = divmod(n, k)

    def bucketize(b: pa.Table) -> pa.Table:
        rn0 = b.column("rn").to_numpy(zero_copy_only=False) - 1
        cut = r * (q + 1)
        small = np.maximum(q, 1)  # q==0 rows never take the else branch
        bucket = np.where(rn0 < cut, rn0 // (q + 1),
                          r + (rn0 - cut) // small) + 1
        return pa.table({
            "bucket": pa.array(bucket, type=pa.int64()),
            "cents": b.column("cents"),
        })

    return keyed_agg(ranked.map_batches(bucketize, batch_format="pyarrow"),
                     "bucket", {"n_rows": ("count", None),
                                "min_cents": ("min", "cents"),
                                "max_cents": ("max", "cents"),
                                "sum_cents": ("sum", "cents")}
                     ).sort("bucket")


def key_gini(ds, key_col: str):
    """Key-skew diagnostics for shuffle planning: per-key row counts →
    exact Gini coefficient over the count distribution (0 = perfectly
    even keys, →1 = one hot key), plus n_keys / total_rows / max_count.
    The "will this groupby straggle?" probe the engine's own salting
    guards (`hash_join`, `orders_by_segment_salted`) act on.

    Gini = (2·Σ rn·cᵢ − (n+1)·Σcᵢ) / (n·Σcᵢ) over counts ranked
    ascending (ties broken by key id) — ranks come from `global_rank`
    on the composite count·2³² + key, so the whole statistic is exact
    int64 sufficient stats + ONE final IEEE division, identical in SQL.
    Loud int64 bound: n_keys · total_rows must stay below 2^63.
    """
    counts = keyed_agg(ds.select_columns([key_col]), key_col,
                       {"n": ("count", None)})

    def keyed(b: pa.Table) -> pa.Table:
        kv = b.column(key_col).to_numpy(zero_copy_only=False).astype(
            np.int64)
        n = b.column("n").to_numpy(zero_copy_only=False).astype(
            np.int64)
        if kv.size and (kv.min() < 0 or kv.max() >= 2**31):
            raise OverflowError(
                f"key_gini: {key_col} outside [0, 2^31) breaks the "
                "composite int64 sort key")
        return pa.table({
            "__ck": pa.array(n * (2**32) + kv, type=pa.int64()),
            "n": pa.array(n, type=pa.int64()),
        })

    ranked = global_rank(counts.map_batches(keyed, batch_format="pyarrow"),
                         "__ck")

    def partial(b: pa.Table) -> pa.Table:
        n = b.column("n").to_numpy(zero_copy_only=False)
        rn = b.column("rn").to_numpy(zero_copy_only=False)
        # object-int product sum: rn*n can exceed int64 inside a block
        # long before the guarded total does — Python ints never wrap
        s1_blk = int((rn.astype(object) * n.astype(object)).sum()) \
            if n.size else 0
        if s1_blk >= 2**63:
            raise OverflowError(
                "key_gini: block rank-weighted sum exceeds int64")
        return pa.table({
            "k": pa.array([n.size], type=pa.int64()),
            "tot": pa.array([int(n.sum())], type=pa.int64()),
            "s1": pa.array([s1_blk], type=pa.int64()),
            "max_n": pa.array([int(n.max()) if n.size else 0],
                              type=pa.int64()),
        })

    parts = ranked.map_batches(partial, batch_format="pyarrow").to_pandas()
    k = int(parts["k"].sum())
    tot = int(parts["tot"].sum())
    s1 = int(parts["s1"].sum())  # Python ints: overflow-safe combine
    max_n = int(parts["max_n"].max()) if len(parts) else 0
    if k == 0:
        return pa.table({
            "n_keys": pa.array([], type=pa.int64()),
            "total_rows": pa.array([], type=pa.int64()),
            "max_count": pa.array([], type=pa.int64()),
            "rank_weighted_sum": pa.array([], type=pa.int64()),
            "gini": pa.array([], type=pa.float64()),
        })
    if k * tot >= 2**63 or s1 >= 2**63:
        raise OverflowError(
            "key_gini: n_keys*total_rows exceeds int64 — the exactness "
            "contract fails loudly instead of wrapping")
    gini = float(2 * s1 - (k + 1) * tot) / float(k * tot)
    return pa.table({
        "n_keys": pa.array([k], type=pa.int64()),
        "total_rows": pa.array([tot], type=pa.int64()),
        "max_count": pa.array([max_n], type=pa.int64()),
        "rank_weighted_sum": pa.array([s1], type=pa.int64()),
        "gini": pa.array([gini], type=pa.float64()),
    })


def abc_analysis(ds, value_col: str, id_col: str,
                 permille=(700, 900)):
    """Pareto / ABC classification: rank rows by value DESC (ties by
    id ASC), take the inclusive running total of exact integer cents,
    and cut classes at ``permille`` shares of the grand total (A =
    running ≤ 70.0 %, B ≤ 90.0 %, C = rest, by default). The
    "which 20 % of orders carry 80 % of revenue" rollup.

    Rides `global_rank(sum_col=...)` — rank + running total come from
    ONE TeraSort-shaped exchange. The class test is pure int64:
    ``cum · 1000 ≤ p · total`` (guarded: total must stay < 2^63/1000).
    Returns one row per class: ``cls, n_rows, sum_cents``.
    """
    from ray.data.aggregate import Sum

    if list(permille) != sorted(permille) or len(permille) != 2:
        raise ValueError("permille must be two ascending thresholds")

    def keyed(b: pa.Table) -> pa.Table:
        v = b.column(value_col).to_numpy(zero_copy_only=False)
        ids = b.column(id_col).to_numpy(zero_copy_only=False).astype(
            np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= 2**31):
            raise OverflowError(
                f"abc_analysis: {id_col} outside [0, 2^31) breaks the "
                "composite int64 sort key")
        cents = np.floor(v.astype(np.float64) * 100.0 + 0.5).astype(
            np.int64)
        return pa.table({
            "__ck": pa.array((-cents) * (2**32) + ids, type=pa.int64()),
            "cents": pa.array(cents, type=pa.int64()),
        })

    ranked = global_rank(
        ds.map_batches(keyed, batch_format="pyarrow"), "__ck",
        sum_col="cents").materialize()
    tot_row = ranked.aggregate(Sum("cents", alias_name="t"))
    total = int(tot_row["t"] or 0)
    if total * 1000 >= 2**63:
        raise OverflowError(
            "abc_analysis: permille compare would exceed int64 — "
            "failing loudly instead of wrapping")
    lo, hi = int(permille[0]), int(permille[1])

    def classify(b: pa.Table) -> pa.Table:
        cum = b.column("cum").to_numpy(zero_copy_only=False)
        cls = np.where(cum * 1000 <= lo * total, "A",
                       np.where(cum * 1000 <= hi * total, "B", "C"))
        return pa.table({
            "cls": pa.array(cls, type=pa.string()),
            "cents": b.column("cents"),
        })

    return keyed_agg(ranked.map_batches(classify, batch_format="pyarrow"),
                     "cls", {"n_rows": ("count", None),
                             "sum_cents": ("sum", "cents")}).sort("cls")


def balanced_shards_plan(ds, id_col: str, weight_col: str, k: int = 16):
    """Compaction / output-layout planning: assign rows IN ID ORDER to
    ``k`` shards of near-equal total weight (bytes, chars, rows×cost) —
    ``shard = exclusive_prefix(weight) · k // total`` — the classic
    contiguous bin-packing a writer uses to emit same-sized files while
    preserving input order (resumable-output rule: one directory per
    shard). Returns the per-shard plan: ``shard, n_rows, sum_weight,
    min_id, max_id`` — contiguous, gap-free id ranges.

    Rides `global_rank(sum_col=...)`: ranking key is the (unique)
    ``id_col`` itself, the running weight total comes with the same
    exchange. Pure int64 (guarded: total · k < 2^63).
    """
    from ray.data.aggregate import Sum

    if k <= 0:
        raise ValueError("k must be positive")

    def keyed(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy(zero_copy_only=False).astype(
            np.int64)
        w = b.column(weight_col).to_numpy(zero_copy_only=False).astype(
            np.int64)
        if w.size and w.min() < 0:
            raise ValueError("weights must be non-negative")
        return pa.table({
            "__ck": pa.array(ids, type=pa.int64()),
            "w": pa.array(w, type=pa.int64()),
        })

    ranked = global_rank(
        ds.map_batches(keyed, batch_format="pyarrow"), "__ck",
        sum_col="w").materialize()
    tot_row = ranked.aggregate(Sum("w", alias_name="t"))
    total = int(tot_row["t"] or 0)
    if total <= 0:
        return pa.table({
            "shard": pa.array([], type=pa.int64()),
            "n_rows": pa.array([], type=pa.int64()),
            "sum_weight": pa.array([], type=pa.int64()),
            "min_id": pa.array([], type=pa.int64()),
            "max_id": pa.array([], type=pa.int64()),
        })
    if total * k >= 2**63:
        raise OverflowError(
            "balanced_shards_plan: total weight × k exceeds int64 — "
            "failing loudly instead of wrapping")

    def assign(b: pa.Table) -> pa.Table:
        cum = b.column("cum").to_numpy(zero_copy_only=False)
        w = b.column("w").to_numpy(zero_copy_only=False)
        shard = (cum - w) * k // total  # exclusive prefix
        return pa.table({
            "shard": pa.array(shard, type=pa.int64()),
            "w": b.column("w"),
            "id": b.column("__ck"),
        })

    return keyed_agg(ranked.map_batches(assign, batch_format="pyarrow"),
                     "shard", {"n_rows": ("count", None),
                               "sum_weight": ("sum", "w"),
                               "min_id": ("min", "id"),
                               "max_id": ("max", "id")}).sort("shard")


def cube_counts(ds, a_col: str, b_col: str, value_col: str,
                sentinel: str = "ALL"):
    """CUBE(a, b) rollup — all four grouping sets {(a,b), (a), (b), ()}
    in ONE pass: each row is emitted four times with ``sentinel``
    substituted for the rolled-up dimension, and one ``keyed_agg``
    counts and sums them, pre-aggregated per block. The exchange
    carries 4·cells rows per block (cells = distinct (a,b) pairs, tiny
    for categorical dims) — never 4x the data. Value sums are exact
    integer cents.

    ``sentinel`` marks rolled-up levels explicitly (real NULLs in the
    dimensions would be ambiguous under SQL CUBE's NULL convention —
    declared sentinel beats inferred NULL for a reproducible gate).
    """

    def cells(b: pa.Table) -> pa.Table:
        cents = np.floor(
            b.column(value_col).to_numpy(zero_copy_only=False)
            * 100.0 + 0.5).astype(np.int64)
        a = b.column(a_col).cast(pa.string())
        bb = b.column(b_col).cast(pa.string())
        alls = pa.array([sentinel] * b.num_rows, type=pa.string())
        return pa.concat_tables([
            pa.table({a_col: x, b_col: y, "value_cents": cents})
            for x, y in ((a, bb), (a, alls), (alls, bb), (alls, alls))])

    return keyed_agg(ds.select_columns([a_col, b_col, value_col])
                     .map_batches(cells, batch_format="pyarrow"),
                     [a_col, b_col], {"n": ("count", None),
                                      "value_cents": ("sum", "value_cents")}
                     ).sort([a_col, b_col])


def largest_remainder_alloc(ds, key_col: str, weight_col: str,
                            total_units: int = 1_000_000):
    """Proportional integer apportionment by the largest-remainder
    (Hamilton) method: split exactly ``total_units`` indivisible units
    (budget cents, sample quotas, shard slots) across keys proportional
    to each key's weight sum. Naive rounding of the real-valued quota
    never sums back to the total; Hamilton gives every key
    floor(total*w/W) and hands the leftover units to the largest
    fractional remainders (ties broken by key ascending — a TOTAL
    order, so the result is partitioning-independent).

    All arithmetic is int64-exact: weights are floored to cents per
    row, summed distributed, and total*w_cents stays well inside int64
    for any realistic budget (guarded). The final ranking runs on the
    KEY-SIZED aggregate in one block — the only driver-adjacent step,
    bounded by key cardinality, never rows.

    Returns (key, weight_cents, alloc: int64) with sum(alloc) ==
    total_units.
    """
    def cents_partial(b: pa.Table) -> pa.Table:
        w = np.floor(b.column(weight_col).to_numpy(
            zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
        return pa.table({
            key_col: b.column(key_col),
            "weight_cents": pa.array(w, type=pa.int64()),
        })

    agg = keyed_agg(ds.select_columns([key_col, weight_col])
                    .map_batches(cents_partial, batch_format="pyarrow"),
                    key_col, {"weight_cents": ("sum", "weight_cents")})

    def allocate(b: pa.Table) -> pa.Table:
        keys = b.column(key_col)
        w = b.column("weight_cents").to_numpy(
            zero_copy_only=False).astype(np.int64)
        total_w = int(w.sum())
        if total_w <= 0:
            raise ValueError("largest_remainder_alloc: non-positive "
                             "total weight")
        if total_units * total_w >= 2 ** 62:
            raise OverflowError(
                "largest_remainder_alloc: total_units * total weight "
                "exceeds int64-exact range")
        base = total_units * w // total_w
        rem = total_units * w % total_w
        leftover = total_units - int(base.sum())
        # rank by (remainder DESC, key ASC) — total order
        order = np.lexsort((np.arange(len(w)), -rem))
        extra = np.zeros(len(w), dtype=np.int64)
        extra[order[:leftover]] = 1
        return pa.table({
            key_col: keys,
            "weight_cents": pa.array(w, type=pa.int64()),
            "alloc": pa.array(base + extra, type=pa.int64()),
        })

    # key-sized by construction: repartition(1) so ranking sees every key
    return (agg.sort(key_col).repartition(1)
            .map_batches(allocate, batch_format="pyarrow")
            .sort(key_col))
