"""The keyed exchange and the keyed aggregate under the corpus operators.

``keyed_exchange(ds, key, emit)`` is the one hash-partitioned all-to-all:
each row is stamped with ``__part`` (``hash64(key) % N_PARTS``, or the
reserved ``NULL_PART`` for a row with a null key), the stamped rows are
grouped by ``__part`` with Ray's ``groupby().map_groups``, and
``emit(group)`` runs once per partition, with every row of each key in
one call. ``hash_join``/``range_join``/``asof_join``, the near-dup pair
emitters, the exact-dedup stage, ``join_cardinality``, ``global_rank``
and ``topk.head_by`` (every per-key "first n rows" operator) all run on
it; nothing else stamps ``__part``.

``keyed_agg(ds, keys, aggs)`` is the aggregate for decomposable
functions (count, sum, min, max; mean as sum + count). Each block is
pre-aggregated with an Arrow ``group_by`` in a map stage that fuses into
the upstream map or read task. The partials are materialized, and their
bytes pick the combine: partials within
``DataContext.target_max_block_size`` are combined by one Arrow
``group_by`` in one task (``keyed_agg_table`` combines them on the
driver instead, for a site that consumes the result there); larger
partials go through ``keyed_exchange``, with one Arrow ``group_by`` per
partition. A caller that rounds (cents) rounds the combined result, so
rounding never happens on a partial.

``fits(ds)`` is the one size rule for holding a side on the driver (or
broadcasting it) versus exchanging it: ``ds`` materialized once, its
Arrow bytes against ``DataContext.target_max_block_size``, the budget of
``keyed_agg``'s partials. It picks the regime of ``join``'s semi/anti
joins (distinct right keys), ``windows.funnel`` (frontier) and
``percent_rank_by`` (rank map), ``standardize.zscore_by`` (moments),
``ngrams.tfidf_top_terms`` (term dfs), ``dedup.connected_components``
(edges; past the rule it runs ``label_propagation_components``) and
``label_propagation_components`` (labels), and ``graph``'s
``consecutive_edges``, ``basket_pairs``, ``pagerank``, ``hits``,
``triangle_count`` and ``bfs_hops`` (nodes, edges, degrees). So one low
budget puts all their scale paths under test. Bounds on something else
than a collected side's bytes stay parameters: ``minhash_dedup``'s
``broadcast_pair_limit`` (a dict every task unpickles),
``embedding_neardup``'s ``brute_limit``/``use_lsh`` (O(n²) compute) and
the guards that raise (``flagged_max``, ``max_pairs_per_key``,
``member_limit``, ``max_vocab_*``, ``max_driver_values``,
``eval_rows_max``, ``alive_max``).

Caller contract: hand ``keyed_agg`` rows, not partials. ``_Partial`` is
the per-block pre-aggregate, so a map that groups its block before
``keyed_agg`` groups the same rows twice in one task. The map keeps the
row work (tokenize, hash, round to cents, mask) and the aggregate goes
into ``aggs``: a column of ones is ``("count", None)``, a per-row value
is ``("sum", col)``, a per-block distinct is ``{}``. ``keyed_agg``
keeps null keys as a group; a map whose key can be null and whose
result must not show it filters it out. A map still groups only for
what ``keyed_agg`` cannot compute from rows: a distinct count within a
block (``ngrams._partial_term_counts``' ``df``) or a bounded sketch
(``sketch.mg_partial``'s Misra-Gries counters).

Why not Ray's own operators (``nproc`` 1, Ray at 2 CPUs):

- Ray 2.49's ``groupby().aggregate()`` sorts, then walks each sorted
  block row by row in Python before its per-group combine. On
  ``customer_orders_full``'s 3,897 rows and 979 groups that is 123-136 ms
  of ``AggregateMap`` and 71-74 ms of ``AggregateReduce`` task time,
  where an Arrow ``group_by`` does the same in about 1 ms; on 200k rows
  and 5,000 groups in 4 blocks it takes 4.0 s against 0.26 s for the
  partial → exchange → Arrow combine shape.
- Ray's ``ShuffleStrategy.HASH_SHUFFLE`` ran that aggregate and did not
  finish in 150 s: it asks for 64 aggregator actors (2.56 CPUs, 33 GiB)
  and started more than 24 worker processes. Ray's ``Dataset.join``
  (inner, 200k × 5k, ``num_partitions=4``) took 2.6 s.
- A materializing ``keyed_exchange`` with a one-task path (a Ray-core
  reduce over the union's block refs) stayed hash-exact but ran
  ``customer_orders_full`` as 3 executions instead of 2, and a cold
  first job of the four ``corpus_dedup_join`` queries read
  4.49 / 4.51 / 3.62 s against 4.06 / 3.55 / 3.46 s for the Arrow
  aggregate alone, so the exchange stays lazy.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

#: the reserved partition of null-key rows (outer joins keep them)
NULL_PART = -1
#: hash partitions of every keyed exchange
N_PARTS = 64

#: keyed_agg's functions and, per function, the Arrow aggregate that
#: combines its partials
_COMBINE = {"count": "sum", "sum": "sum", "min": "min", "max": "max"}


def _mix64(x):
    """splitmix64 finalizer, vectorized over uint64 — the standard
    public integer mixer (Steele et al., 2014)."""
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


def _key_hash_u64(arr: pa.ChunkedArray | pa.Array):
    """Column → uint64 hashes: integer and temporal keys are mixed
    in-register; other keys go through the repo's FNV-1a ``_hash64`` of
    their string form."""
    t = arr.type
    if pa.types.is_temporal(t):
        arr, t = pc.cast(arr, pa.int64()), pa.int64()
    if pa.types.is_integer(t):
        # fill nulls BEFORE to_numpy: a null in an int64 column makes
        # to_numpy return float64 (NaN), and .view on float bits would
        # hash every value in the batch wrong. Null rows hash as 0 —
        # callers mask them out (a null key matches nothing) or route
        # them to NULL_PART.
        v = pc.fill_null(pc.cast(arr, pa.int64()), 0).to_numpy(
            zero_copy_only=False)
        return _mix64(v.astype(np.int64).view(np.uint64))
    from .dedup import _hash64

    vals = arr.to_pylist()
    return np.asarray(_hash64([str(v) for v in vals]), dtype=np.uint64)


def _parts(b: pa.Table, keys: list[str]) -> pa.Array:
    """``__part`` of each row: the hash partition of its key tuple, or
    ``NULL_PART`` when any key column is null."""
    h = _key_hash_u64(b.column(keys[0]))
    for k in keys[1:]:
        with np.errstate(over="ignore"):
            h = _mix64(h * np.uint64(31) + _key_hash_u64(b.column(k)))
    parts = (h % np.uint64(N_PARTS)).astype(np.int64)
    for k in keys:
        col = b.column(k)
        if col.null_count:
            parts[pc.is_null(col).to_numpy(zero_copy_only=False)] = NULL_PART
    return pa.array(parts)


def keyed_exchange(ds, key, emit):
    """ONE exchange hash-partitioned on ``key`` (a column or a list of
    columns): ``emit(group)`` runs once per partition, with all rows of
    each key in that call, never once per key. Rows with a null key all
    meet in one partition of their own. ``ds`` may be a list of
    Datasets with the same schema: each is stamped in its own map
    (fused into its upstream map), then they are unioned. Lazy."""
    keys = [key] if isinstance(key, str) else list(key)

    def stamp(b: pa.Table) -> pa.Table:
        return b.append_column("__part", _parts(b, keys))

    def call(group: pa.Table) -> pa.Table:
        return emit(group.drop_columns(["__part"]))

    sides = [s.map_batches(stamp, batch_format="pyarrow")
             for s in (ds if isinstance(ds, (list, tuple)) else [ds])]
    stamped = sides[0].union(*sides[1:]) if len(sides) > 1 else sides[0]
    return (stamped.groupby("__part")
            .map_groups(call, batch_format="pyarrow"))


def _partial_cols(aggs: dict) -> list[tuple[str, str, str | None]]:
    """``(partial column, function, source column)`` per partial: one
    per aggregate, two for a mean (its sum and its non-null count)."""
    out = []
    for name, (fn, col) in aggs.items():
        if fn == "mean":
            out += [(f"{name}.sum", "sum", col), (f"{name}.n", "count", col)]
        elif fn in _COMBINE:
            out.append((name, fn, col))
        else:
            raise ValueError(f"keyed_agg: unsupported function {fn!r}")
    return out


def _group(t: pa.Table, keys: list[str], specs) -> pa.Table:
    """One single-threaded Arrow ``group_by`` (a fixed float summation
    order) of ``t``; ``specs`` is ``(output, function, source)`` with
    ``source`` None for a row count. Returns keys then outputs."""
    arrow = [([], "count_all") if col is None else (col, fn)
             for _, fn, col in specs]
    # pyarrow 16 splits a group of several keys when a key column holds
    # nulls (2,000 rows, 205 (string, int) groups came out as 453): such
    # a key is grouped as its null-filled value plus a null flag
    types = {k: t.schema.field(k).type for k in keys}
    flagged = [k for k in keys if len(keys) > 1 and t.column(k).null_count]
    for k in flagged:
        col = t.column(k)
        valid = col.drop_null()
        filled = (pc.fill_null(col, valid[0]) if len(valid)
                  else col.cast(pa.int8()).fill_null(0))
        t = t.set_column(t.schema.get_field_index(k), k, filled) \
            .append_column(f"{k}.null", pc.is_null(col))
    g = t.group_by(keys + [f"{k}.null" for k in flagged],
                   use_threads=False).aggregate(arrow)
    # by position: two specs may share a (source, function) name
    at = [g.schema.names.index(k) for k in keys]
    cols = [g.column(i) for i in at]
    for k in flagged:
        i = keys.index(k)
        cols[i] = pc.if_else(g.column(f"{k}.null"),
                             pa.scalar(None, cols[i].type),
                             cols[i]).cast(types[k])
    skip = set(at) | {g.schema.names.index(f"{k}.null") for k in flagged}
    return pa.table(cols + [g.column(i) for i in range(g.num_columns)
                            if i not in skip],
                    names=keys + [name for name, _, _ in specs])


class _Partial:
    """Per-block Arrow ``group_by`` partial of ``keyed_agg``."""

    def __init__(self, keys: list[str], aggs: dict):
        self.keys = keys
        self.specs = _partial_cols(aggs)

    def __call__(self, b: pa.Table) -> pa.Table:
        if not set(self.keys) <= set(b.column_names):
            return b  # an empty block that lost its columns upstream
        return _group(b, self.keys, self.specs)


def _combine(keys: list[str], aggs: dict, *tables: pa.Table) -> pa.Table:
    """The final combine of ``keyed_agg`` partials: one Arrow
    ``group_by`` over all of them, means divided out, sorted by
    ``keys``. Columns: ``keys`` then ``aggs`` in order."""
    specs = _partial_cols(aggs)
    tables = [t for t in tables if set(keys) <= set(t.column_names)]
    if not tables:
        return pa.table({})  # as Ray's aggregate of an empty input
    t = pa.concat_tables(tables) if len(tables) > 1 else tables[0]
    g = _group(t, keys, [(p, _COMBINE[fn], p) for p, fn, _ in specs])
    cols = {k: g.column(k) for k in keys}
    for name, (fn, _) in aggs.items():
        if fn == "mean":
            cols[name] = pc.divide(pc.cast(g.column(f"{name}.sum"),
                                           pa.float64()),
                                   g.column(f"{name}.n"))
        else:
            cols[name] = g.column(name)
    out = pa.table(cols)
    return out.take(pc.sort_indices(out, [(k, "ascending") for k in keys]))


@functools.lru_cache(maxsize=None)
def _combine_task():
    import ray

    return ray.remote(_combine)


def fits(ds):
    """``(ds materialized, whether its bytes fit the one size budget,
    DataContext.target_max_block_size)``: the rule by which every
    operator picks between collecting or broadcasting a side and
    exchanging it. Materializing an already materialized Dataset starts
    no execution."""
    from ray.data import DataContext

    ds = ds.materialize()
    limit = DataContext.get_current().target_max_block_size
    return ds, limit is None or ds.size_bytes() <= limit


def _partials(ds, keys, aggs):
    """``(keys as a list, the per-block partials, lazy)``."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    return keys, ds.map_batches(_Partial(keys, aggs), batch_format="pyarrow",
                                batch_size=None)


def keyed_agg(ds, keys, aggs: dict):
    """``GROUP BY keys`` of the decomposable ``aggs``, a dict
    ``{output: (function, column)}`` with function ``count`` (column
    None counts rows, else the non-null values), ``sum``, ``min``,
    ``max`` or ``mean``. Returns a Dataset with columns ``keys`` then
    ``aggs`` in order, one row per distinct key tuple (null keys form a
    group, as in SQL). Partials within ``target_max_block_size`` are
    combined in one task, whose output is sorted by ``keys`` and comes
    back as a one-block ``MaterializedDataset``; larger
    ones through ``keyed_exchange``, sorted within each partition."""
    import ray

    keys, parts = _partials(ds, keys, aggs)
    parts, small = fits(parts)
    if small:
        refs = parts.to_arrow_refs()
        if not refs:
            return parts
        # materialized, so that reading its block refs back (a
        # driver-side consumer) starts no further execution
        return ray.data.from_arrow_refs(
            [_combine_task().remote(keys, aggs, *refs)]).materialize()
    return keyed_exchange(parts, keys,
                          functools.partial(_combine, keys, aggs))


def keyed_agg_table(ds, keys, aggs: dict) -> pa.Table:
    """``keyed_agg`` combined on the driver, for a site that consumes
    the result there: the partials' blocks are fetched and combined in
    one Arrow ``group_by``, with no task and no further execution."""
    import ray

    keys, parts = _partials(ds, keys, aggs)
    return _combine(keys, aggs,
                    *ray.get(parts.materialize().to_arrow_refs()))
