"""The keyed exchange and the keyed aggregate under the corpus operators.

``keyed_exchange(ds, key, emit)`` is the one hash-partitioned all-to-all:
each row is stamped with ``__part`` (``hash64(key) % N_PARTS``, or the
reserved ``NULL_PART`` for a row with a null key), the stamped rows are
grouped by ``__part`` with Ray's ``groupby().map_groups``, and
``emit(group)`` runs once per partition, with every row of each key in
one call. ``hash_join``/``range_join``/``asof_join``, the near-dup pair
emitters, the exact-dedup stage, ``join_cardinality``, ``global_rank``
and ``topk.head_by`` (every per-key "first n rows" operator) all run on
it; nothing else stamps ``__part``, and its ``groupby("__part")`` is the
program's only Ray grouping.

``map_groups(ds, key, fn)`` is ``ds.groupby(key).map_groups(fn,
batch_format="pyarrow")`` on that exchange: each partition is sorted by
key, ``key_runs`` (the run finder ``topk.head_by`` shares) cuts it into
key runs, ``fn`` runs once per run, and the partition's outputs leave as
one contiguous table. Null keys form one group, as in SQL ``GROUP BY``.
Every per-key map runs on it: 19 in ``windows`` (``sessionize``,
``cumulative_by``, ``lru_audit``, …), 7 in ``dedup`` (the candidate
pair verifiers, ``passage_star_edges``, ``ngram_jaccard_pairs`` and
``longest_common_runs``), 5 in ``sketch``, 3 each in ``curation``,
``ngrams``, ``reshape`` and ``__ray_entry__``, 2 each in ``fuzzy`` and
``similarity`` and 1 each in ``graph``, ``setops`` and ``spatial``.

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
- Ray's sort-based ``groupby(key)`` raises ``TypeError: '<' not
  supported between instances of 'NoneType' and 'str'`` when a null
  string key sits in more than one block (its range boundaries go
  through numpy's ``searchsorted``), and it calls Python once per key
  after the sort: an identity per-key map over sf0.01's 22,579-key
  table of 8-token windows took 3.1-3.5 s through
  ``groupby("win").map_groups`` and 0.29-0.43 s through ``map_groups``
  (3 runs each).
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
    their string form, once per distinct value (a Python pass per row
    took 0.1 s of a 60k-row block's string key)."""
    t = arr.type
    if pa.types.is_temporal(t):
        # Arrow casts 32-bit temporals (date32, time32) only to int32
        t = pa.int32() if t.bit_width == 32 else pa.int64()
        arr = pc.cast(arr, t)
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

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    try:
        enc = pc.dictionary_encode(arr)
    except pa.ArrowNotImplementedError:  # nested keys: hash every row
        return np.asarray(_hash64([str(v) for v in arr.to_pylist()]),
                          dtype=np.uint64)
    # a null row hashes as str(None), the entry after the dictionary's
    h = np.asarray(_hash64([str(v) for v in enc.dictionary.to_pylist()]
                           + ["None"]), dtype=np.uint64)
    return h[pc.fill_null(enc.indices, len(enc.dictionary)).to_numpy(
        zero_copy_only=False)]


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


def key_runs(t: pa.Table, keys: list[str]) -> np.ndarray:
    """Where each key run of ``t`` (sorted by ``keys``) starts: a bool
    per row, True where any key column differs from the row before.
    Null keys are equal to each other, so they form one run, and so are
    NaN keys (as in SQL and Ray's groupby)."""
    m = t.num_rows
    start = np.zeros(m, dtype=bool)
    start[:1] = True
    for k in keys:
        col = t.column(k).combine_chunks()
        if pa.types.is_null(col.type):
            continue  # all null: one run
        cur, prev = col.slice(1), col.slice(0, max(m - 1, 0))
        neq = pc.fill_null(pc.not_equal(cur, prev), True)
        same = pc.and_(pc.is_null(cur), pc.is_null(prev))
        if pa.types.is_floating(col.type):
            same = pc.or_(same, pc.fill_null(
                pc.and_(pc.is_nan(cur), pc.is_nan(prev)), False))
        start[1:] |= pc.and_not(neq, same).to_numpy(zero_copy_only=False)
    return start


def map_groups(ds, key, fn):
    """``ds.groupby(key).map_groups(fn, batch_format="pyarrow")`` as one
    ``keyed_exchange``: each partition is sorted by ``key`` (a column or
    a list of columns), ``fn`` runs once per key run with that key's
    rows as one table and returns a table, and the partition's outputs
    leave as one contiguous table. Null keys form one group, as in SQL
    ``GROUP BY``. ``ds`` may be a list of Datasets, as for
    ``keyed_exchange``. Lazy."""
    keys = [key] if isinstance(key, str) else list(key)

    def emit(part: pa.Table) -> pa.Table:
        part = part.take(pc.sort_indices(
            part, sort_keys=[(k, "ascending") for k in keys]))
        at = np.flatnonzero(key_runs(part, keys)).tolist() + [part.num_rows]
        outs = [fn(part.slice(i, j - i)) for i, j in zip(at, at[1:])]
        # one chunk per column: thousands of per-key outputs left as
        # chunks slow every later stage
        return pa.concat_tables(outs, promote_options="default") \
            .combine_chunks()

    return keyed_exchange(ds, keys, emit)


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
    t = (pa.concat_tables(tables, promote_options="default")
         if len(tables) > 1 else tables[0])
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
