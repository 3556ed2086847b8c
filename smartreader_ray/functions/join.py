"""Joins: broadcast (map-side) for small sides, one partitioned exchange
for big-big, and one distinct-key set for [NOT] EXISTS.

``broadcast_join``: when one side fits in memory (dimension tables,
lookup maps), ship it once inside the ``map_batches`` UDF instance and
enrich the big side in tasks — zero shuffle, the big side streams
through exactly once. Always prefer this when it applies.

The **partitioned-exchange core** serves ``hash_join``, ``range_join``
and ``asof_join``. Each side is pruned and packed into rows of
``__key`` (the join key in ``_key_type``; null for the null-key rows
a mode keeps), ``__side`` and payload; ``_exchange`` runs the two sides
through ``exchange.keyed_exchange`` on ``__key`` — ONE all-to-all — and
each partition is one vectorized call over its ``_key_runs``.

- ``hash_join``: equi-join; per key the left×right cross product with
  numpy run-length arithmetic; a guard fails loudly on a hot key
  instead of OOMing the group task.
- ``range_join``: band/interval join; per key two ``np.searchsorted``
  probes over the sorted right ``on`` values.
- ``asof_join``: temporal join (each left row matched to the latest
  right row at-or-before it, per key) — the operator Ray Data lacks
  natively; per key one ``np.searchsorted``.

Partitioning assumption for all three: one key's rows fit in a group
task (salt or pre-bucket a pathological key).

The **key-set core** serves ``semi_join``, ``anti_join`` and
``bloom_confusion``: the distinct non-null keys of one side
(``_distinct_keys``), collected into one broadcast array
(``_collect_keys``) or folded into a Bloom bitmap (``_bloom_build``,
probed by ``_bloom_probe`` — the only two functions that know the bit
layout). Both sides' keys are cast to ``_key_type`` first, so the
broadcast and Bloom regimes agree on which keys match.
``semi_join`` and ``anti_join`` are one algorithm (``_semi_anti``).
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa
import pyarrow.compute as pc

from .exchange import (_key_hash_u64, _mix64, fits, keyed_agg,
                       keyed_exchange)


def compacted(ds, target_rows_per_block: int = 65_536):
    """Materialize ``ds`` and, when its block layout is pathologically
    fragmented (block count far above rows/target), coalesce with one
    ``repartition`` — a union- or shuffle-heavy chain can leave a small
    table scattered over hundreds of near-empty blocks, and every
    downstream map op then pays one TASK per near-empty block (pure
    scheduling overhead). At 100 TB blocks are full-sized and this is a
    straight materialize; the repartition branch only fires on the
    tiny-table pathology it exists for."""
    m = ds.materialize()
    rows = m.count()
    nb = m.num_blocks()
    want = max(1, -(-rows // target_rows_per_block))
    if nb > 4 * want:
        return m.repartition(want).materialize()
    return m


class _Enrich:
    """Left-join probe of each batch against the small side's key and
    value arrays, which the instance carries to every task."""

    def __init__(self, key: str, small_keys: pa.Array, values: dict):
        self.key = key
        self.small_keys = small_keys
        self.values = values

    def __call__(self, batch: pa.Table) -> pa.Table:
        # null index for unmatched keys → take yields null (left join).
        # SQL semantics: a NULL probe key matches NOTHING — index_in
        # would match a null build-side key, so mask null probes out.
        probe = batch.column(self.key)
        idx = pc.index_in(probe, value_set=self.small_keys)
        idx = pc.if_else(pc.is_valid(probe), idx,
                         pa.scalar(None, type=idx.type))
        for c, vals in self.values.items():
            batch = batch.append_column(c, pc.take(vals, idx))
        return batch


def broadcast_join(ds, small, key: str, value_cols: list[str],
                   small_key: Optional[str] = None):
    """Enrich ``ds`` with ``value_cols`` from the small side.

    ``small``: pyarrow Table or Ray Dataset (materialized — it must be
    the SMALL side). ``key``: join column on ``ds``; ``small_key``: join
    column on the small side (defaults to ``key``). Unmatched rows get
    nulls (left join semantics). Duplicate small-side keys resolve to
    the first occurrence.

    The probe is Arrow-native: ``pc.index_in`` maps each batch key to
    its small-side row (hash lookup in C), then one ``take`` per value
    column — no per-row Python.
    """
    if hasattr(small, "to_arrow_refs"):  # Ray Dataset → driver table
        small = pa.Table.from_pylist(small.take_all())
    small = small.combine_chunks()
    enrich = _Enrich(key, small.column(small_key or key).combine_chunks(),
                     {c: small.column(c).combine_chunks() for c in value_cols})
    return ds.map_batches(enrich, batch_format="pyarrow")


def _with_schema(ds):
    """``(ds, schema)`` for one join side, running its plan at most once:
    a schema Ray cannot infer costs a one-block run of the plan, which
    for a side with an all-to-all is the whole exchange — so such a side
    is materialized and the join reads that run. A filter never changes
    the schema, so a side that ends in filters takes the schema of the
    plan under them when Ray can infer that one (a read → filter side
    runs nothing here). A map-only side keeps the one-block probe and
    streams into the join."""
    from ray.data._internal.logical.operators.all_to_all_operator import (
        AbstractAllToAll)
    from ray.data._internal.logical.operators.map_operator import Filter

    def exchange(op) -> bool:
        return isinstance(op, AbstractAllToAll) or any(
            map(exchange, op.input_dependencies))

    schema = ds.schema(fetch_if_missing=False)
    op = ds._logical_plan.dag
    while schema is None and isinstance(op, Filter):
        op = op.input_dependencies[0]
        schema = op.infer_schema()
    if schema is not None:
        return ds, schema
    if exchange(ds._logical_plan.dag):
        ds = ds.materialize()
    return ds, ds.schema()


def _col_type(schema, col: str) -> pa.DataType:
    """The type of ``col`` in a pyarrow or Ray Dataset schema."""
    return schema.types[list(schema.names).index(col)]


def _types(schema, cols) -> list[tuple[str, pa.DataType]]:
    return [(c, _col_type(schema, c)) for c in cols]


def _key_type(lt, rt):
    """The type both sides' keys are cast to before they are exchanged,
    hashed or compared: the NATIVE type when the two sides agree (an
    int64 key ships 8 bytes/row across the all-to-all where its decimal
    string ships up to 20, and sorts in-register), else string. A side
    whose type is ``None`` (an empty key set has no schema) takes the
    other's."""
    if lt is None or rt is None:
        return rt if lt is None else lt
    return lt if lt == rt else pa.string()


def _empty_table(names, types) -> pa.Table:
    return pa.Table.from_arrays(
        [pa.nulls(0, type=t) for t in types], names=names
    )


def _exchange(l_packed, r_packed, empty: pa.Table, emit_nulls, emit_runs):
    """The one all-to-all of hash_join, range_join and asof_join: the
    two packed sides meet in ``keyed_exchange`` on ``__key``; each
    partition is ONE call — ``emit_nulls(group)`` for the partition of
    null keys, ``emit_runs(group)`` for a hash partition, ``empty`` for
    an empty group. Null-key rows a mode keeps travel the same exchange
    in their own partition: no second scan of either input."""

    def emit_part(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return empty
        if group.column("__key").null_count:
            return emit_nulls(group)
        return emit_runs(group)

    return keyed_exchange([l_packed, r_packed], "__key", emit_part)


def _key_runs(group: pa.Table, then: tuple[str, ...] = ()):
    """Sort one hash partition by ``(__key, __side, *then)`` and find
    its key runs: each run is one key's left rows (side 0) followed by
    its right rows. Returns ``(g, k, starts, ends, nl)``: the sorted
    group, its key column, the run bounds and each run's left-row
    count."""
    import numpy as np

    order = pc.sort_indices(
        group,
        sort_keys=[("__key", "ascending"), ("__side", "ascending")]
        + [(c, "ascending") for c in then],
    )
    g = group.take(order)
    n = g.num_rows
    k = g.column("__key").combine_chunks()
    sides = g.column("__side").to_numpy(zero_copy_only=False)
    if n > 1:
        neq = pc.not_equal(k.slice(1, n - 1), k.slice(0, n - 1))
        change = np.flatnonzero(
            pc.fill_null(neq, True).to_numpy(zero_copy_only=False)
        ).astype(np.int64) + 1
    else:
        change = np.empty(0, dtype=np.int64)
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [n]))
    cs = np.concatenate(([0], np.cumsum(sides == 0, dtype=np.int64)))
    return g, k, starts, ends, cs[ends] - cs[starts]


def hash_join(left, right, left_key: str, right_key: str,
              left_cols: list[str], right_cols: list[str],
              max_pairs_per_key: int = 10_000_000, how: str = "inner",
              salt: int = 1):
    """Distributed equi-join of two big Datasets.

    Both sides are pruned to ``key + cols``, packed into one struct
    column each, tagged, and hash-partitioned on the key by
    ``keyed_exchange``; ONE vectorized kernel
    per partition sorts its rows by key and emits every key's
    left×right cross product with numpy run-length arithmetic — no
    per-distinct-key Python (the round-4 pathology: near-unique keys
    meant millions of per-group UDF calls). Output columns:
    ``left_cols + right_cols`` (caller must make them disjoint).

    ``how``: "inner" (default), "left" (unmatched left rows kept with
    null right columns), "right" (the mirror), "full_outer" (unmatched
    rows of BOTH sides kept with nulls opposite), or "left_anti" (ONLY
    unmatched left rows, right columns omitted — the scalable
    blocklist-subtraction: subtract a dup/exclusion set too big to
    broadcast).

    A group whose cross product exceeds ``max_pairs_per_key`` raises —
    a hot join key at 100 TB should fail loudly (then be salted or
    broadcast) rather than OOM a reduce task.

    ``salt`` > 1 is the remedy that guard points at: each left row is
    routed to one of ``salt`` sub-keys and the right side is replicated
    once per sub-key, splitting a hot key's reduce group ``salt`` ways
    at the cost of ``salt×`` right-side exchange volume (so salt a join
    whose RIGHT side is the smaller one). Results are identical to the
    unsalted join (same-oracle-proven); inner/left only — full_outer /
    left_anti would double-count replicated unmatched right rows.
    """
    if how not in ("inner", "left", "right", "full_outer", "left_anti"):
        raise ValueError(f"unsupported how={how!r}")
    if salt > 1 and how not in ("inner", "left"):
        raise ValueError(f"salt requires how='inner' or 'left', got {how!r}")
    overlap = set(left_cols) & set(right_cols)
    if overlap:
        raise ValueError(f"output column collision: {sorted(overlap)}")

    # each side's schema is fetched once; a side whose schema costs an
    # exchange to learn is materialized, so the probe is the run
    left, lschema = _with_schema(left)
    right, rschema = _with_schema(right)
    key_type = _key_type(_col_type(lschema, left_key),
                         _col_type(rschema, right_key))
    l_fields = _types(lschema, left_cols)
    r_fields = _types(rschema, right_cols)
    left_type = pa.struct([pa.field(c, t) for c, t in l_fields])
    right_type = pa.struct([pa.field(c, t) for c, t in r_fields])

    # SQL semantics: a NULL key matches NOTHING (not even another NULL).
    # Modes that must KEEP unmatched null-key rows send them through
    # the exchange's null-key partition instead of re-reading the
    # whole input in a second null-extraction leg — at 100 TB an outer
    # join must not scan its inputs twice.
    need_left_nulls = how in ("left", "left_anti", "full_outer")
    need_right_nulls = how in ("right", "full_outer")

    def pack(key_col, cols, side):
        keep_nulls = need_left_nulls if side == 0 else need_right_nulls

        def fn(batch: pa.Table) -> pa.Table:
            import numpy as np

            if not keep_nulls:
                batch = batch.filter(pc.is_valid(batch.column(key_col)))
            if salt > 1 and side == 1:
                # replicate the right side once per sub-key
                idx = pa.array(
                    np.repeat(np.arange(batch.num_rows, dtype=np.int64), salt)
                )
                batch = batch.take(idx)
            payload = pa.StructArray.from_arrays(
                [batch.column(c).combine_chunks() for c in cols], names=cols
            )
            n = batch.num_rows
            keys = pc.cast(batch.column(key_col), key_type)
            if salt > 1:
                if side == 0:
                    sv = np.arange(n, dtype=np.int64) % salt
                else:
                    sv = np.tile(np.arange(salt, dtype=np.int64),
                                 n // salt if salt else 0)
                keys = pc.binary_join_element_wise(
                    pc.cast(keys, pa.string()),
                    pa.array(sv.astype("U"), type=pa.string()),
                    "\x1f",
                )
            return pa.Table.from_pydict(
                {
                    "__key": keys,
                    "__side": pa.array([side] * n, type=pa.int8()),
                    "__left": payload if side == 0 else pa.nulls(
                        n, type=left_type
                    ),
                    "__right": payload if side == 1 else pa.nulls(
                        n, type=right_type
                    ),
                }
            )

        return fn

    l_sel = [left_key] + [c for c in left_cols if c != left_key]
    r_sel = [right_key] + [c for c in right_cols if c != right_key]
    l_packed = left.select_columns(l_sel).map_batches(
        pack(left_key, left_cols, 0), batch_format="pyarrow"
    )
    r_packed = right.select_columns(r_sel).map_batches(
        pack(right_key, right_cols, 1), batch_format="pyarrow"
    )

    out_names = left_cols if how == "left_anti" else left_cols + right_cols
    out_types = [t for _, t in l_fields] + (
        [] if how == "left_anti" else [t for _, t in r_fields])
    empty = _empty_table(out_names, out_types)

    def emit_nulls(group: pa.Table) -> pa.Table:
        """The null-key partition: only sides whose unmatched rows this
        mode keeps ever route here — emit them as unmatched (nulls
        opposite), exactly like SQL outer joins."""
        sides_np = group.column("__side").to_numpy(zero_copy_only=False)
        chunks: list[pa.Table] = []
        ln = group.column("__left").combine_chunks().filter(
            pa.array(sides_np == 0))
        if len(ln):
            arrays = [ln.field(c) for c in left_cols]
            if how != "left_anti":
                arrays += [pa.nulls(len(ln), type=t) for _, t in r_fields]
            chunks.append(pa.Table.from_arrays(arrays, names=out_names))
        rn = group.column("__right").combine_chunks().filter(
            pa.array(sides_np == 1))
        if len(rn):
            chunks.append(pa.Table.from_arrays(
                [pa.nulls(len(rn), type=t) for _, t in l_fields]
                + [rn.field(c) for c in right_cols],
                names=out_names))
        return pa.concat_tables(chunks) if chunks else empty

    def emit_runs(group: pa.Table) -> pa.Table:
        """Emit every key run's cross product (plus the mode's unmatched
        rows) with pure numpy index arithmetic — zero per-key Python."""
        import numpy as np

        g, k, starts, ends, nl = _key_runs(group)
        runs = ends - starts
        nr = runs - nl
        l_struct = g.column("__left").combine_chunks()
        r_struct = g.column("__right").combine_chunks()

        if how == "left_anti":
            rows = np.flatnonzero(np.repeat(nr == 0, runs))
            if not len(rows):
                return empty
            ls = l_struct.take(pa.array(rows, type=pa.int64()))
            return pa.Table.from_arrays(
                [ls.field(c) for c in left_cols], names=left_cols
            )

        out_parts: list[pa.Table] = []
        m = (nl > 0) & (nr > 0)
        if m.any():
            ppk = nl[m] * nr[m]
            mx = int(ppk.max())
            if mx > max_pairs_per_key:
                run = np.flatnonzero(m)[int(ppk.argmax())]
                raise ValueError(
                    f"hash_join: key {k[int(starts[run])].as_py()!r} would "
                    f"emit {mx} pairs (> {max_pairs_per_key}); salt the key "
                    "or broadcast the smaller side"
                )
            tot = int(ppk.sum())
            kp = np.repeat(np.arange(len(ppk), dtype=np.int64), ppk)
            base = np.concatenate(([0], np.cumsum(ppk)))[:-1]
            j = np.arange(tot, dtype=np.int64) - base[kp]
            nr_m = nr[m]
            li = starts[m][kp] + j // nr_m[kp]
            ri = (starts[m] + nl[m])[kp] + j % nr_m[kp]
            ls = l_struct.take(pa.array(li))
            rs = r_struct.take(pa.array(ri))
            out_parts.append(pa.Table.from_arrays(
                [ls.field(c) for c in left_cols]
                + [rs.field(c) for c in right_cols],
                names=left_cols + right_cols,
            ))
        if how in ("left", "full_outer"):
            rows = np.flatnonzero(np.repeat((nr == 0) & (nl > 0), runs))
            if len(rows):
                ls = l_struct.take(pa.array(rows, type=pa.int64()))
                out_parts.append(pa.Table.from_arrays(
                    [ls.field(c) for c in left_cols]
                    + [pa.nulls(len(rows), type=t) for _, t in r_fields],
                    names=left_cols + right_cols,
                ))
        if how in ("right", "full_outer"):
            rows = np.flatnonzero(np.repeat(nl == 0, runs))
            if len(rows):
                rs = r_struct.take(pa.array(rows, type=pa.int64()))
                out_parts.append(pa.Table.from_arrays(
                    [pa.nulls(len(rows), type=t) for _, t in l_fields]
                    + [rs.field(c) for c in right_cols],
                    names=left_cols + right_cols,
                ))
        if not out_parts:
            return empty
        return pa.concat_tables(out_parts)

    return _exchange(l_packed, r_packed, empty, emit_nulls, emit_runs)


def _pack_by_on(left, right, by: str, on: str, left_cols: list[str],
                right_cols: list[str], keep_left_nulls: bool):
    """Both sides of range_join/asof_join, pruned and packed for
    ``_exchange``: ``__key`` (``by`` in ``_key_type``, null where ``by``
    or ``on`` is), ``__on``, ``__side``, the side's own payload columns,
    and the other side's payload columns as typed nulls. Returns
    ``(l_packed, r_packed, l_types, r_types)`` with each payload's
    ``(name, type)``.

    SQL semantics: a null ``by``/``on`` can never produce a match. Such
    rows are dropped, except on the left side of a left-outer operator
    (``keep_left_nulls``), where they ride the same exchange in its
    null-key partition instead of a second scan of the input."""
    left, lschema = _with_schema(left)
    right, rschema = _with_schema(right)
    key_type = _key_type(_col_type(lschema, by), _col_type(rschema, by))
    l_types = _types(lschema, left_cols)
    r_types = _types(rschema, right_cols)

    def pack(ds, side, mine, theirs, keep_nulls):
        def fn(batch: pa.Table) -> pa.Table:
            valid = pc.and_(pc.is_valid(batch.column(by)),
                            pc.is_valid(batch.column(on)))
            if not keep_nulls:
                batch = batch.filter(valid)
            n = batch.num_rows
            keys = pc.cast(batch.column(by), key_type)
            if keep_nulls:
                keys = pc.if_else(valid, keys,
                                  pa.scalar(None, type=key_type))
            cols = {
                "__key": keys,
                "__on": batch.column(on),
                "__side": pa.array([side] * n, type=pa.int8()),
            }
            for c in mine:
                cols[c] = batch.column(c)
            for c, t in theirs:
                cols[c] = pa.nulls(n, type=t)
            return pa.Table.from_pydict(cols)

        keep = [by, on] + [c for c in mine if c not in (by, on)]
        return ds.select_columns(keep).map_batches(fn, batch_format="pyarrow")

    return (pack(left, 0, left_cols, r_types, keep_left_nulls),
            pack(right, 1, right_cols, l_types, False),
            l_types, r_types)


def range_join(left, right, by: str, on: str,
               left_cols: list[str], right_cols: list[str],
               lower, upper, include_lower: bool = True,
               include_upper: bool = True, mode: str = "pairs",
               count_name: str = "n_matches",
               max_pairs_per_key: int = 10_000_000):
    """Distributed band/interval join: for every left row, the right rows
    (same ``by`` key) whose ``on`` lies within ``[left.on + lower,
    left.on + upper]`` (bounds in the column's native units — e.g.
    MICROseconds for timestamp[us]; pass ``None`` for an open bound;
    inclusivity per flag). The second temporal-join operator Ray Data
    lacks natively, alongside :func:`asof_join`.

    ``mode="pairs"`` emits the inner-join pairs (``left_cols +
    right_cols``); ``mode="count"`` emits one row per LEFT row
    (left-outer) with the match count as ``count_name`` — the bounded
    output shape for dense windows (a per-key window count never
    explodes the way the pair cross-product can).

    Ray shape: identical to ``asof_join`` — both sides pruned and
    union-shuffled once on ``by``; within a key group the band is two
    vectorized ``np.searchsorted`` probes against the sorted right
    timestamps. Partitioning assumption: one key's rows fit in a group
    task; ``max_pairs_per_key`` fails loudly on a hot key in pairs mode.
    """
    import numpy as np

    if mode not in ("pairs", "count"):
        raise ValueError(f"unsupported mode={mode!r}")
    overlap = set(left_cols) & set(right_cols)
    if overlap and mode == "pairs":
        raise ValueError(f"output column collision: {sorted(overlap)}")

    # count mode is left-outer (null rows count 0) and carries no right
    # payload
    l_packed, r_packed, l_types, r_types = _pack_by_on(
        left, right, by, on, left_cols,
        right_cols if mode == "pairs" else [],
        keep_left_nulls=mode == "count")

    def _on_i64(col) -> "np.ndarray":
        v = col.to_numpy(zero_copy_only=False)
        if v.dtype.kind == "M":  # datetime64 → int64 epoch in native unit
            return v.astype("datetime64[us]").astype(np.int64)
        if v.dtype.kind not in "iu":
            # a float `on` would silently truncate toward zero, evaluating
            # band membership on the wrong values (1.9 vs bound 1.5 → 1)
            raise TypeError(
                f"range_join `on` must be integer or timestamp, got {v.dtype}"
            )
        return v.astype(np.int64)

    if mode == "count":
        out_names = left_cols + [count_name]
        out_types = [t for _, t in l_types] + [pa.int64()]
    else:
        out_names = left_cols + right_cols
        out_types = [t for _, t in l_types] + [t for _, t in r_types]
    empty = _empty_table(out_names, out_types)

    def emit_nulls(group: pa.Table) -> pa.Table:
        # count mode only: one row per null-by/on left row, zero matches
        out = {c: group.column(c) for c in left_cols}
        out[count_name] = pa.array(np.zeros(group.num_rows, dtype=np.int64))
        return pa.Table.from_pydict(out)

    def emit_runs(group: pa.Table) -> pa.Table:
        """Sort by (key, side, on), then per key run two searchsorted
        probes over the run's right slice; pair/count indices accumulate
        into flat arrays and ONE take builds the output — no per-key
        group-UDF dispatch."""
        g, k, starts, ends, nl = _key_runs(group, ("__on",))
        on_all = _on_i64(g.column("__on"))

        l_rows_acc: list = []
        cnt_acc: list = []
        ri_acc: list = []
        for r in range(len(starts)):
            nlr = int(nl[r])
            if nlr == 0:
                continue
            s = int(starts[r])
            r_lo, r_hi = s + nlr, int(ends[r])
            l_on = on_all[s:s + nlr]
            if r_hi == r_lo:
                if mode == "count":
                    l_rows_acc.append(np.arange(s, s + nlr, dtype=np.int64))
                    cnt_acc.append(np.zeros(nlr, dtype=np.int64))
                continue
            r_on = on_all[r_lo:r_hi]
            lo = (np.zeros(nlr, dtype=np.int64) if lower is None else
                  np.searchsorted(r_on, l_on + int(lower),
                                  side="left" if include_lower else "right"))
            hi = (np.full(nlr, len(r_on), dtype=np.int64) if upper is None
                  else np.searchsorted(r_on, l_on + int(upper),
                                       side="right" if include_upper
                                       else "left"))
            counts = np.maximum(hi - lo, 0)
            l_rows_acc.append(np.arange(s, s + nlr, dtype=np.int64))
            if mode == "count":
                cnt_acc.append(counts.astype(np.int64))
                continue
            total = int(counts.sum())
            if total > max_pairs_per_key:
                raise ValueError(
                    f"range_join: key {k[s].as_py()!r} would emit {total} "
                    f"pairs (> {max_pairs_per_key}); narrow the band or use "
                    "mode='count'"
                )
            cnt_acc.append(counts)
            if total:
                cc = np.concatenate(([0], np.cumsum(counts)))[:-1]
                ri_acc.append(
                    np.arange(total, dtype=np.int64)
                    - np.repeat(cc, counts) + np.repeat(lo, counts) + r_lo)

        if not l_rows_acc:
            return empty
        l_rows = np.concatenate(l_rows_acc)
        counts_all = np.concatenate(cnt_acc) if cnt_acc else \
            np.zeros(len(l_rows), dtype=np.int64)
        if mode == "count":
            lt = g.take(pa.array(l_rows))
            out = {c: lt.column(c) for c in left_cols}
            out[count_name] = pa.array(counts_all.astype(np.int64))
            return pa.Table.from_pydict(out)
        if not ri_acc:
            return empty
        li = np.repeat(l_rows, counts_all)
        ri = np.concatenate(ri_acc)
        lt2 = g.take(pa.array(li))
        rt2 = g.take(pa.array(ri))
        arrays = [lt2.column(c).combine_chunks() for c in left_cols] + [
            rt2.column(c).combine_chunks() for c in right_cols
        ]
        return pa.Table.from_arrays(arrays, names=out_names)

    return _exchange(l_packed, r_packed, empty, emit_nulls, emit_runs)


def asof_join(left, right, by: str, on: str,
              left_cols: list[str], right_cols: list[str],
              direction: str = "backward", allow_equal: bool = True):
    """Distributed as-of join: for every left row, the single right row
    with the greatest ``on`` ≤ left's ``on`` (direction="backward"; with
    "forward", the least ``on`` ≥ left's) sharing the same ``by`` key.
    Left-outer semantics: unmatched left rows keep null right columns.

    ``by`` and ``on`` must exist on both sides (same types) and are
    internal — the output is exactly ``left_cols + right_cols`` (caller
    includes copies of by/on in a payload list if wanted, which also
    sidesteps name collisions). Both sides are pruned to key + payload
    before the single all-to-all; within each key group the match is one
    ``np.searchsorted`` over the sorted right side — no per-row Python.
    """
    import numpy as np

    if direction not in ("backward", "forward"):
        raise ValueError(f"unsupported direction={direction!r}")
    overlap = set(left_cols) & set(right_cols)
    if overlap:
        raise ValueError(f"output column collision: {sorted(overlap)}")

    # left-outer: left null-by/on rows are kept with null right columns
    l_packed, r_packed, l_types, r_types = _pack_by_on(
        left, right, by, on, left_cols, right_cols, keep_left_nulls=True)
    out_names = left_cols + right_cols
    empty = _empty_table(out_names, [t for _, t in l_types + r_types])

    def emit_nulls(group: pa.Table) -> pa.Table:
        # left rows only; their right columns are already null in the
        # packed layout
        return group.select(out_names)

    def emit_runs(group: pa.Table) -> pa.Table:
        """Sort by (key, side, on, right payload tie-breakers) so each
        key run holds its left rows then its on-sorted right rows; per
        run the match is one searchsorted over numpy slices, with match
        indices accumulated into flat arrays and ONE take per output
        column — no per-key group-UDF dispatch. Tie rule (preserved from
        the per-key kernel): among equal __on right rows, backward
        matches pick the LARGEST payload tuple (searchsorted
        side="right" lands past the last tied row), forward matches the
        smallest."""
        g, _, starts, ends, nl = _key_runs(group, ("__on", *right_cols))
        on_all = g.column("__on").to_numpy(zero_copy_only=False)

        l_rows_acc: list = []
        take_acc: list = []
        valid_acc: list = []
        for r in range(len(starts)):
            nlr = int(nl[r])
            if nlr == 0:
                continue
            s = int(starts[r])
            r_lo, r_hi = s + nlr, int(ends[r])
            l_rows_acc.append(np.arange(s, s + nlr, dtype=np.int64))
            if r_hi == r_lo:
                take_acc.append(np.zeros(nlr, dtype=np.int64))
                valid_acc.append(np.zeros(nlr, dtype=bool))
                continue
            r_on = on_all[r_lo:r_hi]
            l_on = on_all[s:s + nlr]
            if direction == "backward":
                idx = np.searchsorted(
                    r_on, l_on, side="right" if allow_equal else "left"
                ) - 1
                valid = idx >= 0
            else:
                idx = np.searchsorted(
                    r_on, l_on, side="left" if allow_equal else "right"
                )
                valid = idx < len(r_on)
            take_acc.append(np.where(valid, idx, 0) + r_lo)
            valid_acc.append(valid)

        if not l_rows_acc:
            return empty
        l_rows = pa.array(np.concatenate(l_rows_acc))
        tk = np.concatenate(take_acc)
        vd = np.concatenate(valid_acc)
        take_idx = pa.array(tk, mask=~vd)
        out = {c: g.column(c).take(l_rows) for c in left_cols}
        for c in right_cols:
            out[c] = g.column(c).take(take_idx)
        return pa.Table.from_pydict(out)

    return _exchange(l_packed, r_packed, empty, emit_nulls, emit_runs)


def _bloom_positions(h, bloom_bits: int, k: int):
    """k double-hashed bit positions per key (Kirsch–Mitzenmacher)."""
    import numpy as np

    h1 = h
    h2 = _mix64(h ^ np.uint64(0x9E3779B97F4A7C15)) | np.uint64(1)
    mask = np.uint64(bloom_bits - 1)
    with np.errstate(over="ignore"):
        return [(h1 + np.uint64(i) * h2) & mask for i in range(k)]


def _distinct_keys(ds, key: str):
    """The distinct non-null values of ``ds[key]`` as a one-column
    Dataset, and their type (``None`` when there are none: an empty
    Dataset has no schema). SQL [NOT] EXISTS: a null key matches
    nothing, so it is dropped from the set.

    Materialized: the set is distinct-key-sized and lives in the OBJECT
    STORE (spills, never driver heap); its consumers (count, Bloom
    build, broadcast, verify join) would each re-execute the whole
    derivation otherwise."""
    keys = (
        keyed_agg(ds.select_columns([key]), key, {})
        .map_batches(lambda b: b.filter(
            pc.is_valid(b.column(key))), batch_format="pyarrow")
    ).materialize()
    schema = keys.schema()
    return keys, None if schema is None else _col_type(schema, key)


def _collect_keys(keys, key: str, key_type) -> pa.Array:
    """A distinct-key Dataset as ONE array in ``key_type``, to broadcast."""
    return pa.chunked_array(
        [pc.cast(b.column(key), key_type)
         for b in keys.iter_batches(batch_format="pyarrow")],
        type=key_type,
    ).combine_chunks()


def _bloom_build(keys, key: str, key_type, bloom_bits: int, bloom_k: int):
    """The Bloom bitmap (``bloom_bits // 8`` uint8 bytes; bit ``p`` is
    bit ``p & 7`` of byte ``p >> 3``) of a distinct-key Dataset, keys
    cast to ``key_type`` and hashed by ``_key_hash_u64``. Built from
    per-block partial bitmaps OR-merged on the driver: constant
    ``bloom_bits/8`` bytes per block regardless of key count
    (tree-merge if block count ever makes the driver OR the
    bottleneck)."""
    import numpy as np

    nbytes = bloom_bits // 8

    def bloom_partial(b: pa.Table) -> pa.Table:
        bits = np.zeros(nbytes, dtype=np.uint8)
        h = _key_hash_u64(pc.cast(b.column(key), key_type))
        for idx in _bloom_positions(h, bloom_bits, bloom_k):
            np.bitwise_or.at(bits, (idx >> np.uint64(3)).astype(np.int64),
                             np.uint8(1) << (idx & np.uint64(7)).astype(np.uint8))
        return pa.table({"bits": pa.array([bits.tobytes()],
                                          type=pa.binary())})

    merged = np.zeros(nbytes, dtype=np.uint8)
    for row in keys.map_batches(bloom_partial,
                                batch_format="pyarrow").iter_rows():
        merged |= np.frombuffer(row["bits"], dtype=np.uint8)
    return merged


def _bloom_probe(bits, keys, bloom_bits: int, bloom_k: int):
    """Per key of ``keys`` (already in the build's ``key_type``): does
    the ``_bloom_build`` bitmap ``bits`` claim membership? A numpy
    bool array; no false negatives."""
    import numpy as np

    h = _key_hash_u64(keys)
    hit = np.ones(len(h), dtype=bool)
    for idx in _bloom_positions(h, bloom_bits, bloom_k):
        byte = bits[(idx >> np.uint64(3)).astype(np.int64)]
        hit &= (byte >> (idx & np.uint64(7)).astype(np.uint8)) & 1 > 0
    return hit


def _key_sides(left, right, left_key: str, right_key: str):
    """What both regimes of ``_semi_anti`` start from: ``(left, its
    schema, left_key, the materialized distinct non-null right keys,
    right_key, the type both sides' keys are cast to)``."""
    left, lschema = _with_schema(left)
    rk, rtype = _distinct_keys(right, right_key)
    return (left, lschema, left_key, rk, right_key,
            _key_type(_col_type(lschema, left_key), rtype))


def _semi_anti(left, right, left_key: str, right_key: str,
               bloom_bits: int, bloom_k: int, anti: bool):
    """The one algorithm behind :func:`semi_join` (``anti=False``) and
    :func:`anti_join` (``anti=True``): left rows whose key is (or is
    NOT) among the distinct non-null right keys, both sides' keys cast
    to ``_key_type`` so the two regimes agree. A null left key matches
    nothing: semi drops its row, anti keeps it. Distinct keys that
    ``exchange.fits`` are broadcast; others go through
    ``_semi_anti_bloom``."""
    import ray

    sides = _key_sides(left, right, left_key, right_key)
    left, _, _, rk, right_key, key_type = sides
    if not fits(rk)[1]:
        return _semi_anti_bloom(sides, bloom_bits, bloom_k, anti)
    ref = ray.put(_collect_keys(rk, right_key, key_type))

    def filt(b: pa.Table) -> pa.Table:
        member = pc.fill_null(pc.is_in(
            pc.cast(b.column(left_key), key_type),
            value_set=ray.get(ref)), False)
        return b.filter(pc.invert(member) if anti else member)

    return left.map_batches(filt, batch_format="pyarrow")


def _semi_anti_bloom(sides, bloom_bits: int = 1 << 23, bloom_k: int = 4,
                     anti: bool = False):
    """The scale regime of ``_semi_anti`` over its ``_key_sides``,
    whatever their size: a Bloom bitmap of the right keys prunes the
    left side locally, and only its positives enter the exact verify
    ``hash_join``."""
    import ray
    import ray.data

    left, lschema, left_key, rk, right_key, key_type = sides
    left_cols = lschema.names
    bloom_ref = ray.put(_bloom_build(rk, right_key, key_type,
                                     bloom_bits, bloom_k))

    def hits(b: pa.Table) -> pa.Array:
        keys = pc.cast(b.column(left_key), key_type)
        # a null key hashes to SOME bucket but matches nothing: never a
        # hit (anti keeps its row with the proven misses)
        hit = _bloom_probe(ray.get(bloom_ref), keys, bloom_bits, bloom_k)
        return pa.array(hit & pc.is_valid(keys).to_numpy(
            zero_copy_only=False))

    # seed with an empty block of the KNOWN schema: if the bloom sends
    # zero rows to the verify join, a bare map_batches dataset reports
    # schema()=None and hash_join's introspection would crash
    seed = ray.data.from_arrow(_empty_table(left_cols, lschema.types))
    positives = seed.union(left.map_batches(
        lambda b: b.filter(hits(b)), batch_format="pyarrow"))
    rk2 = rk.map_batches(
        lambda b: b.rename_columns(["__rk"]), batch_format="pyarrow")
    verified = hash_join(
        positives, rk2, left_key=left_key, right_key="__rk",
        left_cols=left_cols, right_cols=["__rk"],
        how="left_anti" if anti else "inner",
    ).map_batches(lambda b: b.select(left_cols), batch_format="pyarrow")
    if not anti:
        return verified
    # a bloom MISS proves non-membership: emitted without any exchange
    misses = left.map_batches(
        lambda b: b.filter(pc.invert(hits(b))), batch_format="pyarrow")
    return misses.union(verified)


def semi_join(left, right, left_key: str, right_key: str,
              bloom_bits: int = 1 << 23, bloom_k: int = 4):
    """EXACT semi-join: left rows whose key appears in ``right`` —
    SQL ``WHERE EXISTS`` — without ever shipping the full left table
    through a shuffle.

    Two regimes on the DISTINCT right keys (one keys-only groupby
    either way), chosen by ``exchange.fits``:

    * keys that fit: they are ``ray.put`` once and every left task
      filters with an Arrow ``is_in`` — zero left-side exchange.
    * beyond: a Bloom filter (``bloom_bits`` bits, ``bloom_k``
      double-hashed probes) is built from per-block partial bitmaps
      OR-merged on the driver, broadcast once, and left batches drop
      non-members locally — so only the ~1 % false positives plus true
      members reach the exact verify ``hash_join`` against the distinct
      keys. The result is EXACT; the bloom only prunes exchange volume.

    Keys of different types compare as strings (``hash_join``'s rule)
    in both regimes.
    """
    return _semi_anti(left, right, left_key, right_key, bloom_bits,
                      bloom_k, anti=False)


def anti_join(left, right, left_key: str, right_key: str,
              bloom_bits: int = 1 << 23, bloom_k: int = 4):
    """EXACT anti-join: left rows whose key appears NOWHERE in ``right``
    — SQL ``WHERE NOT EXISTS`` — the mirror of :func:`semi_join`, and
    like it built to avoid shipping the full left table when it can.

    Null-key semantics follow SQL ``NOT EXISTS``: a null left key never
    equals anything, so those rows are KEPT (unlike ``NOT IN``).

    Two regimes on the DISTINCT right keys, chosen by
    ``exchange.fits``:

    * keys that fit: they are ``ray.put`` once and every left task
      drops members with Arrow ``is_in`` locally — zero left-side
      exchange.
    * beyond: the Bloom filter is even better placed here than in the
      semi-join — a bloom MISS proves non-membership, so every
      definitely-absent left row is emitted locally without ever
      entering an exchange; only the bloom POSITIVES (true members plus
      ~1 % false positives, i.e. rows that will mostly be *dropped*)
      go through the exact ``left_anti`` hash-join against the distinct
      keys. Output is the union of proven-absent rows and
      verified-absent positives — exact.

    Keys of different types compare as strings (``hash_join``'s rule)
    in both regimes.
    """
    return _semi_anti(left, right, left_key, right_key, bloom_bits,
                      bloom_k, anti=True)


def scd2_apply(history, snapshot, id_col: str, attr_cols: list[str],
               ts: int, from_col: str = "valid_from",
               to_col: str = "valid_to"):
    """Type-2 slowly-changing-dimension merge: fold a new snapshot into
    a versioned history table at time ``ts``. History rows carry
    ``[id, attrs..., valid_from, valid_to]`` with ``valid_to`` NULL on
    the current version. Per id:

    - attrs unchanged → current row passes through untouched;
    - attrs changed  → current row is CLOSED (``valid_to = ts``) and a
      new version opens (``valid_from = ts``);
    - id absent from the snapshot → current row is closed (deletion);
    - id new in the snapshot → a first version opens.

    Already-closed rows pass through untouched — the operator is
    idempotent-append: applying snapshots in ts order builds the full
    audit history, the warehouse companion to `reshape.table_diff`'s
    stateless CDC diff. ``attr_cols`` must be non-null (dimension
    attributes; a null would make 'changed' ambiguous — enforced).

    Ray shape: closed rows never enter the exchange (one pruned
    filter); current ∪ snapshot meet in ONE `hash_join` full-outer on
    the id; classification is vectorized per joined batch. Output
    schema == history schema.
    """
    import numpy as np
    import ray.data

    hist_cols = [id_col] + list(attr_cols) + [from_col, to_col]

    def keep_closed(b: pa.Table) -> pa.Table:
        return b.select(hist_cols).filter(pc.is_valid(b.column(to_col)))

    def keep_current(b: pa.Table) -> pa.Table:
        return b.select(hist_cols).filter(pc.is_null(b.column(to_col)))

    # consumed twice (closed + current) — materialize once, or every
    # downstream read re-executes the whole upstream apply chain; the
    # empty seed gives the lazy filters a KNOWN schema (an all-current
    # history has zero closed rows and vice versa). compacted(): a
    # freshly-applied history arrives fragmented into join-shuffle-many
    # near-empty blocks — coalescing once halves the NEXT apply's task
    # count chain-wide
    history = compacted(history)
    htypes = dict(zip(history.schema().names, history.schema().types))
    hseed = ray.data.from_arrow(pa.Table.from_arrays(
        [pa.nulls(0, type=htypes[c]) for c in hist_cols],
        names=hist_cols))
    closed = hseed.union(
        history.map_batches(keep_closed, batch_format="pyarrow"))
    current = hseed.union(
        history.map_batches(keep_current, batch_format="pyarrow"))

    s_attr = [f"__s_{c}" for c in attr_cols]

    def prep_snap(b: pa.Table) -> pa.Table:
        for c in attr_cols:
            if pc.any(pc.is_null(b.column(c))).as_py():
                raise ValueError(
                    f"scd2_apply: snapshot attr {c!r} contains nulls")
        return pa.table(
            {"__sid": b.column(id_col),
             **{f"__s_{c}": b.column(c) for c in attr_cols}})

    stypes = dict(zip(snapshot.schema().names, snapshot.schema().types))
    sseed = ray.data.from_arrow(pa.Table.from_arrays(
        [pa.nulls(0, type=stypes[id_col])] +
        [pa.nulls(0, type=stypes[c]) for c in attr_cols],
        names=["__sid"] + s_attr))
    snap = sseed.union(
        snapshot.select_columns([id_col] + list(attr_cols)).map_batches(
            prep_snap, batch_format="pyarrow"))

    joined = hash_join(
        current, snap, left_key=id_col, right_key="__sid",
        left_cols=hist_cols, right_cols=["__sid"] + s_attr,
        how="full_outer",
    )

    def classify(b: pa.Table) -> pa.Table:
        import numpy as np

        has_cur = pc.is_valid(b.column(id_col)).to_numpy(
            zero_copy_only=False)
        has_snap = pc.is_valid(b.column("__sid")).to_numpy(
            zero_copy_only=False)
        same = np.ones(b.num_rows, dtype=bool)
        for c in attr_cols:
            eq = pc.equal(b.column(c), b.column(f"__s_{c}"))
            same &= pc.fill_null(eq, False).to_numpy(
                zero_copy_only=False)
        unchanged = has_cur & has_snap & same
        closing = has_cur & ~unchanged          # changed or removed
        opening = has_snap & ~unchanged         # changed or brand new

        out = []
        keep = b.filter(pa.array(unchanged))
        out.append(pa.table({c: keep.column(c) for c in hist_cols}))
        cl = b.filter(pa.array(closing))
        out.append(pa.table({
            **{c: cl.column(c) for c in hist_cols if c != to_col},
            to_col: pa.array([ts] * cl.num_rows,
                             type=cl.column(to_col).type),
        }).select(hist_cols))
        op = b.filter(pa.array(opening))
        out.append(pa.table({
            id_col: op.column("__sid"),
            **{c: op.column(f"__s_{c}") for c in attr_cols},
            from_col: pa.array([ts] * op.num_rows,
                               type=cl.column(from_col).type),
            to_col: pa.nulls(op.num_rows, type=cl.column(to_col).type),
        }).select(hist_cols))
        return pa.concat_tables(out)

    return closed.union(
        joined.map_batches(classify, batch_format="pyarrow"))


def star_revenue_by_nation(lineitem, orders_tbl, customer_tbl,
                           supplier_tbl, nation_tbl,
                           date_from_us: int):
    """TPC-H-Q5-shaped star join: revenue per nation over line items
    whose ORDER ships on/after ``date_from_us`` and whose customer and
    supplier sit in the SAME nation — the classic 5-table join with a
    cross-dimension correlation predicate (c_nationkey = s_nationkey)
    that a pairwise join planner handles worst.

    Ray shape — the 100 TB fact-table pattern: the FACT (lineitem)
    streams through ONE ``map_batches`` stage; every DIMENSION becomes
    a dense int64 numpy lookup array (keys here are 0..n-1 by
    construction — the general case hashes instead) shipped once via
    ``ray.put`` and indexed with one fancy-indexing gather per batch.
    No fact-side shuffle exists at all: the only exchange is the final
    ~|nations|-row aggregate. When a dimension outgrows broadcast, the
    named fallback is `hash_join` with salt on the hot side.

    Revenue is exact int64 centi-cents: extprice_cents x (100 -
    round(discount*100)); per-batch Arrow pre-aggregation means each
    block contributes at most |nations| partial rows.

    Returns (n_name, revenue_cc: int64).
    """
    import numpy as np
    import ray
    import ray.data

    def dense_lut(tbl, key_col, val_col, fill=-1):
        k = tbl.column(key_col).to_numpy(zero_copy_only=False).astype(
            np.int64)
        v = tbl.column(val_col).to_numpy(zero_copy_only=False)
        out = np.full(int(k.max()) + 1, fill, dtype=np.int64)
        out[k] = v.astype(np.int64)
        return out

    odate = orders_tbl.column("o_orderdate").to_numpy(
        zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
    ocust = orders_tbl.column("o_custkey").to_numpy(
        zero_copy_only=False).astype(np.int64)
    okey = orders_tbl.column("o_orderkey").to_numpy(
        zero_copy_only=False).astype(np.int64)
    cust_of_order = np.full(int(okey.max()) + 1, -1, dtype=np.int64)
    keep = odate >= date_from_us
    cust_of_order[okey[keep]] = ocust[keep]  # -1 = date-filtered out

    nat_of_cust = dense_lut(customer_tbl, "c_custkey", "c_nationkey")
    nat_of_supp = dense_lut(supplier_tbl, "s_suppkey", "s_nationkey")
    refs = ray.put((cust_of_order, nat_of_cust, nat_of_supp))
    names = {int(r["n_nationkey"]): str(r["n_name"])
             for r in nation_tbl.to_pylist()}

    def revenue_rows(b: pa.Table) -> pa.Table:
        orders_lut, cust_lut, supp_lut = ray.get(refs)
        ok = b.column("l_orderkey").to_numpy(zero_copy_only=False)
        sk = b.column("l_suppkey").to_numpy(zero_copy_only=False)
        cust = orders_lut[ok]
        snat = supp_lut[sk]
        sel = cust >= 0
        sel &= cust_lut[np.where(sel, cust, 0)] == snat
        ep = b.column("l_extendedprice").to_numpy(zero_copy_only=False)
        dc = b.column("l_discount").to_numpy(zero_copy_only=False)
        cents = np.floor(ep * 100.0 + 0.5).astype(np.int64)
        pct = np.floor(dc * 100.0 + 0.5).astype(np.int64)
        return pa.table({
            "nationkey": pa.array(snat[sel], type=pa.int64()),
            "revenue_cc": pa.array(cents[sel] * (100 - pct[sel]),
                                   type=pa.int64()),
        })

    agg = keyed_agg(lineitem.select_columns(
        ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])
        .map_batches(revenue_rows, batch_format="pyarrow"),
        "nationkey", {"revenue_cc": ("sum", "revenue_cc")})

    def name_out(b: pa.Table) -> pa.Table:
        nk = b.column("nationkey").to_pylist()
        return pa.table({
            "n_name": pa.array([names[int(k)] for k in nk],
                               type=pa.string()),
            "revenue_cc": b.column("revenue_cc").cast(pa.int64()),
        })

    return agg.map_batches(name_out, batch_format="pyarrow")


def bloom_confusion(build, probe, build_key: str, probe_key: str,
                    bloom_bits: int = 1 << 23, bloom_k: int = 4,
                    member_limit: int = 2_000_000):
    """Bloom-filter quality evaluation: for every distinct PROBE key,
    report whether the production semi/anti-join Bloom (the SAME
    ``_bloom_build``/``_bloom_probe`` path and bit layout those
    operators broadcast at scale) claims membership, alongside exact
    ground truth against the distinct BUILD keys. Output columns:
    ``(probe_key, is_member int32, bloom_hit int32)``.

    The invariant a Bloom must satisfy — no false negatives
    (``is_member=1 → bloom_hit=1``) — and its measured false-positive
    rate both fall out of this table; `semi_join`'s docstring claim
    that the Bloom "only prunes exchange volume" is exactly the
    no-false-negative row being empty.

    Ray shape: the bitmap is OR-merged from per-block partials
    (constant ``bloom_bits/8`` bytes per block) and ``ray.put`` once;
    probe batches test membership locally. Ground truth broadcasts the
    distinct build keys once — unlike the joins themselves this is a
    QA operator over key sets you can afford to broadcast, enforced
    loudly via ``member_limit``. Keys of different types compare as
    strings, as in the joins.
    """
    import numpy as np
    import ray

    rk, btype = _distinct_keys(build, build_key)
    n_keys = rk.count()
    if n_keys > member_limit:
        raise ValueError(
            f"bloom_confusion ground truth needs the {n_keys} distinct "
            f"build keys broadcast; raise member_limit (={member_limit}) "
            "only if one worker heap holds them")
    pk, ptype = _distinct_keys(probe, probe_key)
    key_type = _key_type(ptype, btype)
    bloom_ref = ray.put(_bloom_build(rk, build_key, key_type,
                                     bloom_bits, bloom_k))
    keys_ref = ray.put(_collect_keys(rk, build_key, key_type))

    def annotate(b: pa.Table) -> pa.Table:
        keys = pc.cast(b.column(probe_key), key_type)
        hit = _bloom_probe(ray.get(bloom_ref), keys, bloom_bits, bloom_k)
        member = pc.fill_null(pc.is_in(
            keys, value_set=ray.get(keys_ref)), False)
        return pa.table({
            probe_key: b.column(probe_key),
            "is_member": pc.cast(member, pa.int32()),
            "bloom_hit": pa.array(hit.astype(np.int32), type=pa.int32()),
        })

    return pk.map_batches(annotate, batch_format="pyarrow")


def join_cardinality(left, right, left_key: str, right_key: str):
    """Join PLANNING profiler: before paying for an exchange, measure
    what an inner equi-join of ``left×right`` would produce. One-row
    Arrow table, all int64:

    ``n_left/n_right`` (non-null-key rows), ``n_null_left/right``
    (rows an inner join silently drops), ``n_keys_left/right/both/
    left_only/right_only`` (distinct-key overlap), ``est_inner_rows``
    (exact inner-join output size, Σ c_l(k)·c_r(k)) and ``max_fanout``
    (max per-key product — the skew hazard: one hot key with fanout
    ~10⁹ means salt before joining).

    Ray shape: per-block partial counts tagged by side meet in ONE
    key-hash-partitioned exchange; each partition combines its keys
    and collapses straight to 8 scalars in the same call (the per-key
    table never exists as a dataset). Nothing larger than the
    distinct-key partials ever moves. Keys must be integer-castable
    (the profiler targets surrogate-key joins; hash string keys with
    `_key_hash_u64` first — collisions only perturb the estimate).
    """
    import numpy as np

    def side_partial(col: str, mine: str, other: str):
        def f(b: pa.Table) -> pa.Table:
            arr = b.column(col)
            t = pa.table({"key": pc.cast(arr, pa.int64()),
                          "one": pa.array(np.ones(b.num_rows,
                                                  dtype=np.int64))})
            t = t.filter(pc.is_valid(t.column("key")))
            g = t.group_by("key").aggregate([("one", "sum")])
            cnt = g.column("one_sum")
            z = pa.array(np.zeros(g.num_rows, dtype=np.int64))
            cols = {"key": g.column("key"), mine: cnt, other: z,
                    "n_null": z}
            rows = pa.table({k: cols[k]
                             for k in ("key", "cl", "cr", "n_null")})
            # null-count carrier row rides key=0 with zero counts; it
            # only feeds the Sum(n_null) rollup (fixed column order so
            # both sides union with one schema)
            nulls = pa.table({
                "key": pa.array([0], type=pa.int64()),
                "cl": pa.array([0], type=pa.int64()),
                "cr": pa.array([0], type=pa.int64()),
                "n_null": pa.array([arr.null_count], type=pa.int64()),
            })
            return pa.concat_tables([rows, nulls])
        return f

    lc = left.select_columns([left_key]).map_batches(
        side_partial(left_key, "cl", "cr"), batch_format="pyarrow")
    rc = right.select_columns([right_key]).map_batches(
        side_partial(right_key, "cr", "cl"), batch_format="pyarrow")
    # ONE all-to-all: each key partition of the side-tagged partials
    # combines its keys AND rolls up to 8 scalars in a single Python
    # call — a key-keyed aggregate would build a per-key table this
    # profiler immediately collapses anyway.
    def part_rollup(g: pa.Table) -> pa.Table:
        t = g.select(["key", "cl", "cr", "n_null"])
        agg = t.group_by("key").aggregate(
            [("cl", "sum"), ("cr", "sum"), ("n_null", "sum")])
        cl = agg.column("cl_sum").to_numpy(zero_copy_only=False)
        cr = agg.column("cr_sum").to_numpy(zero_copy_only=False)
        nn = agg.column("n_null_sum").to_numpy(zero_copy_only=False)
        prod = cl * cr
        both = (cl > 0) & (cr > 0)
        return pa.table({
            "n_left": [int(cl.sum())], "n_right": [int(cr.sum())],
            "n_null_both": [int(nn.sum())],
            "n_keys_left": [int((cl > 0).sum())],
            "n_keys_right": [int((cr > 0).sum())],
            "n_keys_both": [int(both.sum())],
            "est_inner_rows": [int(prod.sum())],
            "max_fanout": [int(prod.max()) if len(prod) else 0],
        })

    # one row of 8 scalars per partition is all that reaches the
    # driver; n_null carrier rows (key=0, zero counts) don't perturb
    # key-class tallies because cl>0/cr>0 masks exclude them
    rolled = keyed_exchange([lc, rc], "key", part_rollup).to_pandas()
    names = ["n_left", "n_right", "n_null_both", "n_keys_left",
             "n_keys_right", "n_keys_both", "est_inner_rows",
             "max_fanout"]
    agg = {n: int(rolled[n].sum()) for n in names[:-1]}
    agg["max_fanout"] = int(rolled["max_fanout"].max()) if len(rolled) else 0
    out = pa.table({n: pa.array([int(agg[n])], type=pa.int64())
                    for n in names})
    return out.append_column(
        "n_keys_left_only",
        pa.array([int(agg["n_keys_left"] - agg["n_keys_both"])],
                 type=pa.int64())).append_column(
        "n_keys_right_only",
        pa.array([int(agg["n_keys_right"] - agg["n_keys_both"])],
                 type=pa.int64()))
