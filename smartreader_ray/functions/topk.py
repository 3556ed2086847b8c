"""Distributed top-k without a full sort.

``ds.sort(col).limit(k)`` is an all-to-all exchange of EVERY row; at
100 TB that is the single most expensive plan node. Top-k only needs the
k best per block + one tiny global reduce: each block is cut to its
local top-k with ``pyarrow.compute.select_k_unstable`` (a partial
selection, O(n) per block), so the final sort sees at most
``k × num_blocks`` rows instead of the corpus.

``head_by`` is the per-key form, SQL's ``ROW_NUMBER() OVER (PARTITION
BY key ORDER BY …) <= n``: one vectorized kernel (sort by key then
order, numpy run arithmetic for each key's rank) prunes each block and
then finishes each partition of one ``exchange.keyed_exchange``. Every
"first n rows per key" operator runs on it: ``top_k_by``,
``curation.per_source_cap``, ``sampling.stratified_sample`` and
``unimax_mix``, ``reshape.latest_by``, ``ngrams.chi2_terms``' per-label
top-k and ``ngrams.tfidf_top_terms``' join regime.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import keyed_exchange


def _local_top_k(value_col: str, k: int, order: str):
    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows > k:
            indices = pc.select_k_unstable(
                batch, k=k, sort_keys=[(value_col, order)]
            )
            batch = batch.take(indices)
        return batch

    return fn


def top_k(ds, value_col: str, k: int = 10, descending: bool = True):
    """Top ``k`` rows of ``ds`` by ``value_col`` (lazy Dataset result).

    Per-block partial select-k → global sort over the ≤ k·blocks
    survivors → limit. Ties at the boundary resolve arbitrarily (same as
    SQL ``ORDER BY … LIMIT k`` with non-deterministic tie order).
    """
    order = "descending" if descending else "ascending"
    reduced = ds.map_batches(_local_top_k(value_col, k, order), batch_format="pyarrow")
    return reduced.sort(value_col, descending=descending).limit(k)


def _head(b: pa.Table, keys: list[str], sort_keys: list, n: int,
          ranked: bool) -> pa.Table:
    """The first ``n`` rows of each key run of ``b`` in ``sort_keys``
    order (keys first), with their 1-based ``rank`` when ``ranked``.
    Null keys are equal to each other, so they form one run."""
    b = b.take(pc.sort_indices(b, sort_keys=sort_keys))
    m = b.num_rows
    start = np.zeros(m, dtype=bool)
    start[:1] = True
    for k in keys:
        col = b.column(k).combine_chunks()
        cur, prev = col.slice(1), col.slice(0, max(m - 1, 0))
        neq = pc.fill_null(pc.not_equal(cur, prev), True)
        both_null = pc.and_(pc.is_null(cur), pc.is_null(prev))
        start[1:] |= pc.and_not(neq, both_null).to_numpy(
            zero_copy_only=False)
    at = np.arange(m, dtype=np.int64)
    rank = at - np.maximum.accumulate(np.where(start, at, 0)) + 1
    keep = rank <= n
    b = b.filter(pa.array(keep, type=pa.bool_()))
    return b.append_column("rank", pa.array(rank[keep])) if ranked else b


def head_by(ds, key, order: list[tuple[str, str]], n: int):
    """``ROW_NUMBER() OVER (PARTITION BY key ORDER BY order) <= n``: the
    first ``n`` rows of each ``key`` (a column or a list of columns) in
    ``order``, a list of ``(column, "ascending" | "descending")`` with
    nulls last, plus their 1-based ``rank``. Null keys form one group,
    as in SQL. The result is the same under every block layout when
    ``order`` is total within a key.

    One kernel runs twice: each block first keeps its own ``n`` best
    rows per key (every global winner is among its block's winners), so
    the keyed exchange carries at most ``n`` × blocks rows per key,
    never a hot key's whole row set; then it runs once per partition of
    that exchange, never once per key."""
    keys = [key] if isinstance(key, str) else list(key)
    sort_keys = [(k, "ascending") for k in keys] + list(order)

    def prune(b: pa.Table) -> pa.Table:
        return _head(b, keys, sort_keys, n, ranked=False)

    def final(group: pa.Table) -> pa.Table:
        return _head(group, keys, sort_keys, n, ranked=True)

    return keyed_exchange(ds.map_batches(prune, batch_format="pyarrow"),
                          keys, final)


def top_k_by(ds, key_col: str, value_col: str, k: int = 10,
             descending: bool = True, tie_col: str | None = None):
    """Per-key top ``k``: the k best rows by ``value_col`` within each
    ``key_col`` group, with deterministic ``tie_col`` tie-breaking
    (ascending) so results are engine-reproducible. A ``head_by`` on
    the pruned columns; output adds a ``rank`` column (1-based)."""
    order = [(value_col, "descending" if descending else "ascending")]
    if tie_col is not None:
        order.append((tie_col, "ascending"))
    cols = [key_col, value_col] + ([tie_col] if tie_col else [])
    return head_by(ds.select_columns(cols), key_col, order, k)


def skyline(ds, x_col: str, y_col: str):
    """2-D Pareto front, maximizing BOTH columns: keep exactly the rows
    no other row strictly dominates (x' ≥ x AND y' ≥ y with at least
    one strict). The multi-objective companion to top-k — "best
    price-for-size" style frontier queries.

    Distributed shape (the classic two-phase skyline): a vectorized
    per-block skyline pass prunes everything locally dominated — the
    frontier of a block is tiny relative to the block — then the union
    of local survivors is collapsed to one block and the SAME kernel
    runs once more. Correct because local pruning is conservative
    (a point dominated within a block is dominated globally, and every
    global frontier point survives its own block). The merge block is
    frontier-sized; for adversarial inputs whose frontier exceeds one
    block, chain another local round (tree merge) — documented, not
    needed for real distributions.

    Per-block kernel: lexsort by (x desc, y desc); within each distinct
    x the max-y rows survive iff that max beats the running max-y of
    all strictly-greater-x groups. Equal (x, y) duplicates are all kept
    (they do not dominate each other), matching SQL NOT EXISTS.
    """
    def local(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b
        x = b.column(x_col).to_numpy(zero_copy_only=False)
        y = b.column(y_col).to_numpy(zero_copy_only=False)
        order = np.lexsort((-y, -x))
        xs, ys = x[order], y[order]
        new_grp = np.r_[True, xs[1:] != xs[:-1]]
        gid = np.cumsum(new_grp) - 1
        gmax = ys[new_grp]  # y sorted desc within group → first is max
        prev = np.r_[-np.inf, np.maximum.accumulate(gmax)[:-1]]
        keep_grp = gmax > prev
        keep = keep_grp[gid] & (ys == gmax[gid])
        return b.take(pa.array(order[keep]))

    return (
        ds.map_batches(local, batch_format="pyarrow")
        .repartition(1)
        .map_batches(local, batch_format="pyarrow")
    )
