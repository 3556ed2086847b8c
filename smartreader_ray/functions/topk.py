"""Global and per-key top-N on one kernel, without a Ray sort.

``ds.sort(col).limit(k)`` is an all-to-all exchange of EVERY row: a
boundary-sample pass, then a range exchange. A top-N only needs the n
best rows of each block and one tiny reduce. ``_head`` is that
kernel: it sorts a table by key then order (nulls last, NaN above every
number), finds each key's run with ``exchange.key_runs`` and keeps each
run's first n rows with numpy arithmetic. Both operators run it twice.

``top_k`` is SQL's ``ORDER BY … LIMIT n``: ``_head`` with no key per
block (one run), ``repartition(1)``, then ``_head`` once more, whose
output is one block in order. The merge block holds at most n ×
blocks rows.

``head_by`` is the per-key form, SQL's ``ROW_NUMBER() OVER (PARTITION
BY key ORDER BY …) <= n``: the per-block pass prunes each block, then
the kernel finishes each partition of one ``exchange.keyed_exchange``.
``key_runs`` is the run finder ``exchange.map_groups`` cuts its
partitions with too, so null keys form one run in both. Every
"first n rows per key" operator runs on it: ``top_k_by``,
``curation.per_source_cap``, ``sampling.stratified_sample`` and
``unimax_mix``, ``reshape.latest_by``, ``ngrams.chi2_terms``' per-label
top-k and ``ngrams.tfidf_top_terms``' join regime.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import key_runs, keyed_exchange


def _sort_indices(b: pa.Table, sort_keys: list) -> pa.Array:
    """``pc.sort_indices`` in SQL's order: nulls last, and NaN above
    every number, so first in a descending float column (Arrow puts NaN
    last in both directions)."""
    cols, keys = {}, []
    for c, d in sort_keys:
        col = b.column(c)
        if d == "descending" and pa.types.is_floating(col.type):
            cols[f"__nan{len(keys)}"] = pc.is_nan(col)
            keys.append((f"__nan{len(keys)}", "descending"))
        cols[c] = col
        keys.append((c, d))
    return pc.sort_indices(pa.table(cols), sort_keys=keys)


def _head(b: pa.Table, keys: list[str], order: list, n: int,
          ranked: bool = False) -> pa.Table:
    """The first ``n`` rows of each key run of ``b`` in ``order`` (keys
    first, ascending), with their 1-based ``rank`` when ``ranked``. Null
    keys are equal to each other, so they form one run; no keys, one
    run."""
    idx = _sort_indices(b, [(k, "ascending") for k in keys] + order)
    if not keys and not ranked:
        return b.take(idx.slice(0, n))
    at = np.arange(b.num_rows, dtype=np.int64)
    start = key_runs(b.select(keys).take(idx), keys)
    rank = at - np.maximum.accumulate(np.where(start, at, 0)) + 1
    keep = rank <= n
    b = b.take(idx.filter(pa.array(keep, type=pa.bool_())))
    return b.append_column("rank", pa.array(rank[keep])) if ranked else b


def top_k(ds, order: list[tuple[str, str]], n: int):
    """``ORDER BY order LIMIT n``: the first ``n`` rows of ``ds`` in
    ``order``, a list of ``(column, "ascending" | "descending")`` with
    nulls last, as one block in that order (lazy Dataset). Ties break
    by the trailing order columns; the result is the same under every
    block layout when ``order`` is total."""
    order = list(order)

    def cut(b: pa.Table) -> pa.Table:
        return _head(b, [], order, n)

    return (ds.map_batches(cut, batch_format="pyarrow")
            .repartition(1)
            .map_batches(cut, batch_format="pyarrow"))


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
    order = list(order)

    def prune(b: pa.Table) -> pa.Table:
        return _head(b, keys, order, n)

    def final(group: pa.Table) -> pa.Table:
        return _head(group, keys, order, n, ranked=True)

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
