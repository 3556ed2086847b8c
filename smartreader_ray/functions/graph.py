"""Graph operators: derived edge lists + integer-exact PageRank.

The reference engine has no graph stage; this module is corpus
infrastructure in the same class as the dedup clustering in
`functions/dedup.py` — link-graph ranking is the canonical web-corpus
curation signal (quality weighting / crawl prioritisation), and power
iteration is the canonical *iterative* shuffle workload, complementing
label propagation (`dedup.py: label_propagation_components`) which
exercises the min-fixpoint family.

Everything here is ALL-INTEGER so the result is bit-reproducible and
SQL-replayable (the repo's proven hash-gate pattern): ranks live at a
fixed scale (``SCALE = 10**12``), per-edge contributions are floor
divisions, inflow is an int64 sum (order-independent), and the damping
update is ``BASE + (85 * inflow) // 100``. Truncation leaks a little
rank mass per round — that is part of the *defined* computation, not an
approximation to hide: an oracle unrolling the same rounds in SQL
matches hash-exactly.

Overflow headroom: every rank is bounded by ``BASE + 0.85 · N · SCALE``
(total mass never grows), so with the default scale the math stays in
int64 up to ~10^6 nodes; `pagerank` checks the bound and asks the
caller to lower ``scale`` past it (fail loudly, never wrap — the
`standardize.py` contract).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from . import topk
from .exchange import fits, keyed_agg, keyed_agg_table, map_groups

SCALE = 10**12
DAMP_NUM, DAMP_DEN = 85, 100

__all__ = ["consecutive_edges", "pagerank", "rank_weighted_rollup",
           "hits", "basket_pairs", "triangle_count", "bfs_hops", "SCALE"]


def consecutive_edges(ds, group_col: str, seq_col: str, node_col: str,
                      seq_stride: int = 1000):
    """Directed DISTINCT edges between nodes at consecutive sequence
    positions within a group: for every pair of rows in the same
    ``group_col`` whose ``seq_col`` values are ``s`` and ``s+1``, emit
    ``(src=node[s], dst=node[s+1])``, dropping self-loops. Duplicate
    ``(group, seq)`` rows (legal in the input) produce the cross
    product of their nodes, exactly like the equivalent SQL self-join —
    DISTINCT then canonicalises.

    Keyed on one composite int64 ``group * seq_stride + seq`` per side
    (the right side keyed at ``seq - 1``); raises if any ``seq_col``
    value falls outside ``[0, seq_stride)`` (a colliding composite key
    would silently merge groups). Two regimes:

    - **local** (the (key, node) rows pass ``exchange.fits`` and nodes are
      integers): pull (key, node) once, one numpy argsort + searchsorted
      range expansion + ``np.unique`` — the repo's `hash_join` costs one
      Python ``emit`` per distinct key, pathological when keys are
      near-unique per row (measured: the sf0.1 supplier graph's edge
      derivation dominated `supplier_pagerank` at 45 s; this path cuts
      the query to ~6 s).
    - **distributed** (beyond the bound): `hash_join` + per-block
      distinct pre-combine + global groupby — one all-to-all on an
      8-byte key, nothing driver-sized.
    """
    from .join import hash_join

    def keyed(shift: int, out: str):
        def fn(batch: pa.Table) -> pa.Table:
            g = pc.cast(batch.column(group_col), pa.int64())
            s = pc.cast(batch.column(seq_col), pa.int64())
            bad = pc.any(
                pc.or_(pc.less(s, 0), pc.greater_equal(s, seq_stride))
            ).as_py()
            if bad:
                raise ValueError(
                    f"{seq_col} outside [0, {seq_stride}): composite key "
                    "would collide — raise seq_stride"
                )
            k = pc.add(pc.multiply(g, seq_stride), pc.add(s, shift))
            return pa.table({"k": k, out: batch.column(node_col)})
        return fn

    left, small = fits(ds.map_batches(keyed(0, "src"),
                                      batch_format="pyarrow"))
    node_type = left.schema().base_schema.field("src").type
    if small and pa.types.is_integer(node_type):
        import numpy as np
        import ray.data

        k_parts, n_parts = [], []
        for b in left.iter_batches(batch_format="pyarrow",
                                   batch_size=None):
            k_parts.append(b.column("k").to_numpy(zero_copy_only=False))
            n_parts.append(b.column("src").to_numpy(
                zero_copy_only=False))
        if not k_parts:
            return ray.data.from_arrow(
                pa.table({"src": pa.array([], type=pa.int64()),
                          "dst": pa.array([], type=pa.int64())})
            )
        k = np.concatenate(k_parts)
        nv = np.concatenate(n_parts).astype(np.int64)
        order = np.argsort(k, kind="stable")
        ks, ns = k[order], nv[order]
        lo = np.searchsorted(ks, ks + 1, side="left")
        hi = np.searchsorted(ks, ks + 1, side="right")
        cnt = hi - lo
        m = cnt > 0
        counts = cnt[m]
        total = int(counts.sum())
        # vectorized range expansion: dst row index for every pair
        offs = np.repeat(lo[m], counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        src = np.repeat(ns[m], counts)
        dst = ns[offs + within]
        keep = src != dst
        pairs_arr = np.unique(
            np.stack([src[keep], dst[keep]], axis=1), axis=0
        )
        tbl = pa.table(
            {
                "src": pa.array(pairs_arr[:, 0], type=pa.int64()),
                "dst": pa.array(pairs_arr[:, 1], type=pa.int64()),
            }
        )
        # return PRE-SLICED blocks (no shuffle): a single-block edge
        # list serializes every downstream sort-based groupby onto one
        # core (measured 33 s vs 3.3 s on a 600k-key aggregate)
        n_slices = min(32, max(1, tbl.num_rows // 8192))
        step = -(-tbl.num_rows // n_slices) if tbl.num_rows else 1
        return ray.data.from_arrow(
            [tbl.slice(i, step) for i in range(0, max(tbl.num_rows, 1),
                                               step)])

    # right side keyed at seq-1 so (left.k == right.k) ⇔ consecutive
    right = ds.map_batches(keyed(-1, "dst"), batch_format="pyarrow")
    pairs = hash_join(left, right, "k", "k", ["src"], ["dst"])

    def no_self_loops(b: pa.Table) -> pa.Table:
        return b.filter(pc.not_equal(b.column("src"), b.column("dst")))

    # distinct pairs: repeated hand-offs collapse in keyed_agg's
    # per-block partial, map-side
    return keyed_agg(pairs.map_batches(no_self_loops, batch_format="pyarrow"),
                     ["src", "dst"], {})


def _check_headroom(n_nodes: int, scale: int):
    # rank ≤ BASE + 0.85 · n · scale must stay well inside int64, and
    # the oracle-side 85 · inflow intermediate (inflow ≤ n · scale)
    # must too — bound the larger of the two
    if 85 * n_nodes * scale >= 2**62:
        raise OverflowError(
            f"pagerank int64 headroom exceeded: n_nodes={n_nodes} at "
            f"scale={scale}; lower scale (needs 85·n·scale < 2^62)"
        )


def pagerank(edges, nodes, node_col: str = "v", iterations: int = 5,
             scale: int = SCALE):
    """Integer power-iteration PageRank over a DISTINCT directed edge
    list. Returns a Dataset ``(node_col, rank: int64, outdeg: int64)``
    covering every node in ``nodes`` (dangling and isolated nodes
    included; dangling mass is dropped by definition, see module doc).

    Per round, for every node ``v``::

        inflow(v) = Σ_{u→v} rank(u) // outdeg(u)        (int64 sum)
        rank'(v)  = (15·scale)//100 + (85 · inflow(v)) // 100

    Three regimes, the `label_propagation_components` pattern plus its
    measured lesson (per-round Ray orchestration ~2 s dwarfs tiny-state
    rounds — `dup_clusters_lp`'s dual-regime fix), chosen by
    ``exchange.fits`` on the node and the edge table:

    - **local** (both fit): pull the (src, dst) code arrays once and
      run every round as a vectorized ``np.add.at`` over int64 —
      zero per-round Ray executions (measured: 45 s → ~11 s for the
      supplier graph at sf0.1, all of it in edge derivation).
    - **broadcast** (the nodes fit, the edges do not): the contribution
      dict ``{u: rank(u)//outdeg(u)}``
      is ``ray.put`` once per round; each edge block resolves it
      map-side and pre-combines to node-sized partials, so a round
      costs ONE keyed exchange (groupby-sum) over node-sized data.
    - **distributed** (the nodes do not fit): rank state stays a
      Dataset; each round is `hash_join` (edges ⋈ state on src) →
      groupby-sum → left `hash_join` back onto the node table. Nothing
      driver-sized.

    The node and edge tables are materialized once, so every round
    reads the same run.
    """
    import ray
    import ray.data

    from .join import hash_join

    base = (15 * scale) // 100

    node_ids, nodes_fit = fits(nodes.select_columns([node_col]))
    _check_headroom(max(node_ids.count(), 1), scale)
    edges, edges_fit = fits(edges)

    def _result(rank_of: dict, outdeg_of: dict):
        vs = sorted(rank_of)
        return ray.data.from_arrow(
            pa.table(
                {
                    node_col: pa.array(vs, type=pa.int64()),
                    "rank": pa.array([rank_of[v] for v in vs],
                                     type=pa.int64()),
                    "outdeg": pa.array([outdeg_of.get(v, 0) for v in vs],
                                       type=pa.int64()),
                }
            )
        )

    if nodes_fit and edges_fit:
        import numpy as np
        import pandas as pd

        node_vals = [
            v
            for b in node_ids.iter_batches(batch_format="pyarrow",
                                           batch_size=None)
            for v in b.column(node_col).to_pylist()
        ]
        idx = pd.Index(node_vals)
        src_parts, dst_parts = [], []
        for b in edges.iter_batches(batch_format="pyarrow",
                                    batch_size=None):
            src_parts.append(b.column("src").to_numpy(
                zero_copy_only=False))
            dst_parts.append(b.column("dst").to_numpy(
                zero_copy_only=False))
        n = len(node_vals)
        rank_arr = np.full(n, scale, dtype=np.int64)
        outdeg_arr = np.zeros(n, dtype=np.int64)
        if src_parts:
            code_src = idx.get_indexer(np.concatenate(src_parts))
            code_dst = idx.get_indexer(np.concatenate(dst_parts))
            # divisor counts ALL outgoing edges (mass to non-node dsts
            # leaks — same semantics as the other regimes / the oracle)
            np.add.at(outdeg_arr, code_src[code_src >= 0], 1)
            both = (code_src >= 0) & (code_dst >= 0)
            cs, cd = code_src[both], code_dst[both]
        else:
            cs = cd = np.array([], dtype=np.int64)
        for _ in range(iterations):
            infl = np.zeros(n, dtype=np.int64)
            if len(cs):
                np.add.at(infl, cd, rank_arr[cs] // outdeg_arr[cs])
            rank_arr = base + (DAMP_NUM * infl) // DAMP_DEN
        return _result(
            dict(zip(node_vals, rank_arr.tolist())),
            dict(zip(node_vals, outdeg_arr.tolist())),
        )

    if nodes_fit:
        od = keyed_agg_table(edges.select_columns(["src"]), "src",
                             {"n": ("count", None)})
        outdeg = dict(zip(od.column("src").to_pylist(),
                          od.column("n").to_pylist()))
        rank = {
            v: scale
            for b in node_ids.iter_batches(batch_format="pyarrow",
                                           batch_size=None)
            for v in b.column(node_col).to_pylist()
        }
        for _ in range(iterations):
            contrib = {
                u: rank[u] // d for u, d in outdeg.items() if u in rank
            }
            ref = ray.put(contrib)

            def contribs(b: pa.Table, _ref=ref) -> pa.Table:
                c = b.column("src").to_pandas().map(ray.get(_ref))
                # drop unmapped sources BEFORE casting: a NaN would force
                # float64 and silently round int64 sums > 2^53
                keep = (c.notna().to_numpy()
                        & pc.is_valid(b.column("dst")).to_numpy(
                            zero_copy_only=False))
                return pa.table({
                    "v": pc.cast(b.column("dst").filter(keep), pa.int64()),
                    "infl": pa.array(c[keep].astype("int64").to_numpy()),
                })

            inflow = keyed_agg_table(
                edges.map_batches(contribs, batch_format="pyarrow"), "v",
                {"infl": ("sum", "infl")})
            inflow = dict(zip(inflow.column("v").to_pylist(),
                              inflow.column("infl").to_pylist()))
            rank = {
                v: base + (DAMP_NUM * inflow.get(v, 0)) // DAMP_DEN
                for v in rank
            }
        return _result(rank, outdeg)

    # ---- distributed regime: rank state never leaves the cluster ----
    od_named = keyed_agg(edges.select_columns(["src"]), "src",
                         {"n": ("count", None)}).map_batches(
        lambda b: pa.table(
            {
                "od_v": pc.cast(b.column("src"), pa.int64()),
                "outdeg": pc.cast(b.column("n"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    node_od = hash_join(
        node_ids, od_named, node_col, "od_v", [node_col], ["outdeg"],
        how="left",
    ).map_batches(
        lambda b: pa.table(
            {
                node_col: pc.cast(b.column(node_col), pa.int64()),
                "outdeg": pc.coalesce(
                    pc.cast(b.column("outdeg"), pa.int64()),
                    pa.scalar(0, type=pa.int64()),
                ),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    state = node_od.map_batches(
        lambda b: b.append_column(
            "rank", pa.array([scale] * b.num_rows, type=pa.int64())
        ),
        batch_format="pyarrow",
    ).materialize()

    for _ in range(iterations):
        def _contrib(b: pa.Table) -> pa.Table:
            # arrow divide raises on 0 divisors even under if_else (both
            # branches evaluate) — substitute 1 first, mask after
            od = b.column("outdeg")
            pos = pc.greater(od, 0)
            safe = pc.if_else(pos, od, pa.scalar(1, type=pa.int64()))
            return pa.table(
                {
                    "sv": b.column(node_col),
                    "contrib": pc.if_else(
                        pos,
                        pc.divide(b.column("rank"), safe),
                        pa.scalar(0, type=pa.int64()),
                    ),
                }
            )

        src_state = state.map_batches(_contrib, batch_format="pyarrow")
        infl = (
            keyed_agg(hash_join(edges, src_state, "src", "sv", ["dst"],
                                ["contrib"]),
                      "dst", {"infl": ("sum", "contrib")})
            .map_batches(
                lambda b: pa.table(
                    {
                        "iv": pc.cast(b.column("dst"), pa.int64()),
                        "infl": pc.cast(b.column("infl"), pa.int64()),
                    }
                ),
                batch_format="pyarrow",
            )
        )
        state = hash_join(
            node_od, infl, node_col, "iv", [node_col, "outdeg"], ["infl"],
            how="left",
        ).map_batches(
            lambda b: pa.table(
                {
                    node_col: b.column(node_col),
                    "outdeg": b.column("outdeg"),
                    "rank": pc.add(
                        pa.scalar(base, type=pa.int64()),
                        pc.divide(
                            pc.multiply(
                                pa.scalar(DAMP_NUM, type=pa.int64()),
                                pc.coalesce(
                                    pc.cast(b.column("infl"), pa.int64()),
                                    pa.scalar(0, type=pa.int64()),
                                ),
                            ),
                            pa.scalar(DAMP_DEN, type=pa.int64()),
                        ),
                    ),
                }
            ),
            batch_format="pyarrow",
        ).materialize()

    return state.select_columns([node_col, "rank", "outdeg"])


def rank_weighted_rollup(fact, ranks, fact_key: str, group_col: str,
                         qty_col: str, node_col: str = "v",
                         top_k: int = 20):
    """Composed-chain step: roll a node-sized rank table up through a
    fact table — ``Σ rank(fact_key) · qty`` per ``group_col``, top-k.
    The rank side is node-sized by construction (one row per graph
    node), so it ships as ONE broadcast (`ray.put`) read map-side by
    every fact block — the small-side-lookup pattern, never a shuffle
    join; the only exchange is the group-sized rollup, pre-combined
    per block.

    All-integer: ``qty_col`` must hold integral values (checked — the
    safe Arrow cast raises on a lossy float) and products accumulate in
    int64; with the default rank scale this holds to ~10^5 qty·rows per
    group per 10^12-rank node (fail-loudly contract, no silent wrap).
    Ties at the cut break by ``group_col``.
    """
    import ray

    rank_map = {
        v: r
        for b in ranks.iter_batches(batch_format="pyarrow",
                                    batch_size=None)
        for v, r in zip(b.column(node_col).to_pylist(),
                        b.column("rank").to_pylist())
    }
    ref = ray.put(rank_map)

    def weighted(b: pa.Table, _ref=ref) -> pa.Table:
        r = b.column(fact_key).to_pandas().map(ray.get(_ref))
        # safe cast: raises on non-integral quantities instead of
        # silently rounding differently than the SQL side
        qty = pc.cast(b.column(qty_col), pa.int64()).to_pandas()
        keep = (r.notna().to_numpy()
                & pc.is_valid(b.column(group_col)).to_numpy(
                    zero_copy_only=False))
        return pa.table({
            group_col: pc.cast(b.column(group_col).filter(keep), pa.int64()),
            "weighted_demand": pa.array(
                (r[keep].astype("int64") * qty[keep]).to_numpy()),
        })

    return topk.top_k(
        keyed_agg(fact.map_batches(weighted, batch_format="pyarrow"),
                  group_col, {"weighted_demand": ("sum", "weighted_demand")}),
        [("weighted_demand", "descending"), (group_col, "ascending")], top_k)


def hits(edges, nodes, node_col: str = "v", iterations: int = 4,
         scale: int = SCALE):
    """Integer HITS (hubs & authorities) over a DISTINCT directed edge
    list — the second classic link-analysis iteration, exercising the
    OPPOSITE exchange direction from PageRank each half-round. Returns
    ``(node_col, hub, authority)`` over every node in ``nodes``.

    Per round (classic update order, authorities first)::

        a_raw(v) = Σ_{u→v} h(u);  a = a_raw // ceil(max(a_raw, 1)/scale)
        h_raw(v) = Σ_{v→w} a(w);  h = h_raw // ceil(max(h_raw, 1)/scale)

    The rescale divides by ``ceil(max/scale)`` instead of multiplying by
    ``scale/max`` so every intermediate stays in int64 (sums are bounded
    by n·scale — guarded) and the oracle replays it with plain BIGINT
    arithmetic, no int128. Two regimes: **local** (driver numpy
    ``np.add.at`` rounds when the node and the edge table both pass
    ``exchange.fits``) and
    **distributed** (per half-round `hash_join` of the score table onto
    the edge list + groupby-sum + scalar max — the `pagerank`
    distributed shape; the max is a scalar aggregate, never
    driver-sized state).
    """
    import numpy as np
    import pandas as pd
    import ray
    import ray.data
    from ray.data.aggregate import Max

    from .join import hash_join

    node_ids, nodes_fit = fits(nodes.select_columns([node_col]))
    _check_headroom(max(node_ids.count(), 1), scale)
    edges, edges_fit = fits(edges)

    if nodes_fit and edges_fit:
        node_vals = [
            v
            for b in node_ids.iter_batches(batch_format="pyarrow",
                                           batch_size=None)
            for v in b.column(node_col).to_pylist()
        ]
        idx = pd.Index(node_vals)
        s_parts, d_parts = [], []
        for b in edges.iter_batches(batch_format="pyarrow",
                                    batch_size=None):
            s_parts.append(b.column("src").to_numpy(
                zero_copy_only=False))
            d_parts.append(b.column("dst").to_numpy(
                zero_copy_only=False))
        n = len(node_vals)
        if s_parts:
            cs = idx.get_indexer(np.concatenate(s_parts))
            cd = idx.get_indexer(np.concatenate(d_parts))
            both = (cs >= 0) & (cd >= 0)
            cs, cd = cs[both], cd[both]
        else:
            cs = cd = np.array([], dtype=np.int64)
        h = np.full(n, scale, dtype=np.int64)
        a = np.full(n, scale, dtype=np.int64)
        for _ in range(iterations):
            a_raw = np.zeros(n, dtype=np.int64)
            if len(cs):
                np.add.at(a_raw, cd, h[cs])
            da = (max(int(a_raw.max(initial=0)), 1) + scale - 1) // scale
            a = a_raw // da
            h_raw = np.zeros(n, dtype=np.int64)
            if len(cs):
                np.add.at(h_raw, cs, a[cd])
            dh = (max(int(h_raw.max(initial=0)), 1) + scale - 1) // scale
            h = h_raw // dh
        vs = sorted(range(n), key=lambda i: node_vals[i])
        return ray.data.from_arrow(
            pa.table(
                {
                    node_col: pa.array([node_vals[i] for i in vs],
                                       type=pa.int64()),
                    "hub": pa.array([int(h[i]) for i in vs],
                                    type=pa.int64()),
                    "authority": pa.array([int(a[i]) for i in vs],
                                          type=pa.int64()),
                }
            )
        )

    # ---- distributed regime ----
    def _init(name):
        return node_ids.map_batches(
            lambda b: pa.table(
                {
                    node_col: pc.cast(b.column(node_col), pa.int64()),
                    name: pa.array([scale] * b.num_rows,
                                   type=pa.int64()),
                }
            ),
            batch_format="pyarrow",
        ).materialize()

    def _half_round(score_ds, score_name, from_col, to_col, out_name):
        """sum score over edges grouped by `to_col`, rescale to scale."""
        named = score_ds.map_batches(
            lambda b: pa.table({"jv": b.column(node_col),
                                "s": b.column(score_name)}),
            batch_format="pyarrow",
        )
        raw = (
            keyed_agg(hash_join(edges, named, from_col, "jv", [to_col],
                                ["s"]),
                      to_col, {"raw": ("sum", "s")})
            .map_batches(
                lambda b: pa.table(
                    {
                        "rv": pc.cast(b.column(to_col), pa.int64()),
                        "raw": pc.cast(b.column("raw"), pa.int64()),
                    }
                ),
                batch_format="pyarrow",
            )
            .materialize()
        )
        mx = raw.aggregate(Max("raw"))["max(raw)"] if raw.count() else 0
        d = (max(int(mx or 0), 1) + scale - 1) // scale
        return hash_join(
            node_ids.map_batches(
                lambda b: pa.table(
                    {node_col: pc.cast(b.column(node_col), pa.int64())}
                ),
                batch_format="pyarrow",
            ),
            raw, node_col, "rv", [node_col], ["raw"], how="left",
        ).map_batches(
            lambda b, _d=d: pa.table(
                {
                    node_col: b.column(node_col),
                    out_name: pc.divide(
                        pc.coalesce(pc.cast(b.column("raw"), pa.int64()),
                                    pa.scalar(0, type=pa.int64())),
                        pa.scalar(_d, type=pa.int64()),
                    ),
                }
            ),
            batch_format="pyarrow",
        ).materialize()

    h_ds = _init("hub")
    a_ds = _init("authority")
    for _ in range(iterations):
        a_ds = _half_round(h_ds, "hub", "src", "dst", "authority")
        h_ds = _half_round(a_ds, "authority", "dst", "src", "hub")

    joined = hash_join(
        h_ds.map_batches(
            lambda b: pa.table({node_col: b.column(node_col),
                                "hub": b.column("hub")}),
            batch_format="pyarrow",
        ),
        a_ds.map_batches(
            lambda b: pa.table({"av": b.column(node_col),
                                "authority": b.column("authority")}),
            batch_format="pyarrow",
        ),
        node_col, "av", [node_col, "hub"], ["authority"],
    )
    return joined


def basket_pairs(ds, group_col: str, item_col: str, top_n: int = 25):
    """Market-basket co-occurrence: count, per unordered item pair, the
    number of groups (orders / sessions / docs) containing BOTH items —
    the sufficient statistic for association rules and co-click graphs.
    Output: top ``top_n`` pairs by count (ties broken by pair id).

    Same dual-regime shape as `consecutive_edges` (graph.py:39), and
    for the same measured reason: the group key is near-unique (a few
    rows per order), the regime where a generic hash self-join pays one
    Python emit per key. Local regime (the (group, item) rows pass
    ``exchange.fits`` and items are integers): one argsort on the
    (group, item) pairs + fully vectorized within-segment pair
    expansion (items sorted within a group, so pairs come out
    id-canonical a<b for free) + ``np.unique`` counts. Distributed
    regime: distinct (group, item) → `hash_join` self-join on the
    group key → per-block pre-combine → pair groupby; one 16-byte-row
    all-to-all, nothing driver-sized.

    Group sizes are assumed bounded (baskets, not corpora): a group of
    size c emits C(c, 2) pairs — a degenerate mega-group fails loudly
    at ``max_pairs_per_key`` in the distributed regime rather than OOM.
    """
    import numpy as np
    import ray.data

    def finalize_counts(pairs_counts):
        # a TOTAL order (count desc, pair asc): the cut is the same
        # under every partitioning
        return topk.top_k(
            pairs_counts.select_columns(["item_a", "item_b", "n_groups"]),
            [("n_groups", "descending"), ("item_a", "ascending"),
             ("item_b", "ascending")], top_n)

    rows, small = fits(ds.select_columns([group_col, item_col]))
    item_type = rows.schema().base_schema.field(item_col).type
    if small and pa.types.is_integer(item_type):
        g_parts, i_parts = [], []
        for b in rows.iter_batches(batch_format="pyarrow", batch_size=None):
            g_parts.append(pc.cast(b.column(group_col), pa.int64())
                           .to_numpy(zero_copy_only=False))
            i_parts.append(pc.cast(b.column(item_col), pa.int64())
                           .to_numpy(zero_copy_only=False))
        g = np.concatenate(g_parts)
        v = np.concatenate(i_parts)
        gv = np.unique(np.stack([g, v], axis=1), axis=0)  # distinct, sorted
        g, v = gv[:, 0], gv[:, 1]
        seg_start = np.r_[True, g[1:] != g[:-1]]
        seg_id = np.cumsum(seg_start) - 1
        seg_sizes = np.bincount(seg_id)
        pos = np.arange(len(g)) - np.repeat(
            np.cumsum(seg_sizes) - seg_sizes, seg_sizes)
        tails = (seg_sizes[seg_id] - pos - 1).astype(np.int64)
        firsts = np.repeat(np.arange(len(g), dtype=np.int64), tails)
        within = np.arange(tails.sum(), dtype=np.int64) - np.repeat(
            np.cumsum(tails) - tails, tails)
        seconds = firsts + 1 + within
        pairs = np.stack([v[firsts], v[seconds]], axis=1)
        uniq, counts = np.unique(pairs, axis=0, return_counts=True)
        tbl = pa.table({
            "item_a": pa.array(uniq[:, 0], type=pa.int64()),
            "item_b": pa.array(uniq[:, 1], type=pa.int64()),
            "n_groups": pa.array(counts.astype(np.int64), type=pa.int64()),
        })
        return finalize_counts(ray.data.from_arrow(tbl))

    from .join import hash_join

    distinct = keyed_agg(rows, [group_col, item_col], {})
    left = distinct.map_batches(
        lambda b: b.rename_columns(["g", "item_a"]),
        batch_format="pyarrow")
    right = distinct.map_batches(
        lambda b: b.rename_columns(["g2", "item_b"]),
        batch_format="pyarrow")
    joined = hash_join(left, right, "g", "g2", ["item_a"], ["item_b"])

    def ordered(b: pa.Table) -> pa.Table:
        return b.filter(pc.less(b.column("item_a"), b.column("item_b")))

    return finalize_counts(keyed_agg(
        joined.map_batches(ordered, batch_format="pyarrow"),
        ["item_a", "item_b"], {"n_groups": ("count", None)}))




def _orient_arrays(a, bb, da, db):
    """Vectorized degree-(then id)-order edge orientation: returns
    (s, t) with rank(s) < rank(t), rank = (deg, id)."""
    import numpy as np

    a_first = (da < db) | ((da == db) & (a < bb))
    return np.where(a_first, a, bb), np.where(a_first, bb, a)


def triangle_count(edges, wedge_cap: int = 20_000):
    """EXACT triangle count of the undirected graph induced by a
    directed edge list — the standard clustering/cohesion statistic
    for link graphs. Node-iterator with degree ordering (Suri &
    Vassilvitskii, "Counting Triangles and the Curse of the Last
    Reducer", WWW 2011 — the public MapReduce algorithm): each edge is
    oriented from its lower-(degree, id) endpoint, so every wedge is
    generated at its minimum-rank vertex exactly once and a vertex's
    oriented out-degree is O(√m) regardless of its raw degree — the
    celebrity-node wedge explosion cannot happen. Meaningful on SPARSE
    graphs (the real link-graph regime); a near-clique is Θ(n³)
    triangles for ANY exact method.

    Returns one row (n_nodes, n_edges, n_wedges, n_triangles), all
    int64 — hash-exact against the SQL replay.

    Regimes, chosen by ``exchange.fits``:

    * **local** (the directed edge list fits): the edge
      list is pulled once (16 bytes/edge), and orientation → lexsort →
      within-segment pair expansion → sorted-key membership are all
      single numpy kernels. This exists for the same measured reason
      as `consecutive_edges`' local regime: per-group Python overhead
      across 10⁴–10⁵ wedge groups dwarfs the actual work (measured
      325 s → ~4 s on the sf0.1 part graph, 294k edges / 2.3M wedges).
    * **distributed**, after the symmetrize-distinct and degree-count
      stages (both edge-sized exchanges): degrees attached by broadcast
      map when the degree table fits (else two `hash_join`s), wedges
      per source via ``groupby(src)`` (a group beyond ``wedge_cap``
      raises loudly — C(cap,2) pairs would OOM the task), and ONE
      pair-keyed groupby over wedge-counts ∪ flagged-edges closes
      triangles and tallies wedges in the same pass — no join
      operator, nothing driver-sized.
    """
    import numpy as np
    import ray
    import ray.data as _rd

    def result(n_edges, n_nodes, n_wedges, n_triangles):
        return _rd.from_arrow(pa.table({
            "n_nodes": pa.array([int(n_nodes)], type=pa.int64()),
            "n_edges": pa.array([int(n_edges)], type=pa.int64()),
            "n_wedges": pa.array([int(n_wedges)], type=pa.int64()),
            "n_triangles": pa.array([int(n_triangles)], type=pa.int64()),
        }))

    edges, small = fits(edges)
    if small:
        # symmetrize + distinct + count + orient + wedge-expand + close,
        # all as single numpy kernels on 16 bytes/edge — no exchange at
        # all (a two-key distinct groupby alone measured 30 s on the
        # 294k-edge part graph; this path does the whole count in ~4 s)
        a_parts, b_parts = [], []
        for blk in edges.iter_batches(batch_format="pyarrow",
                                      batch_size=None):
            a_parts.append(pc.cast(blk.column("src"), pa.int64())
                           .to_numpy(zero_copy_only=False))
            b_parts.append(pc.cast(blk.column("dst"), pa.int64())
                           .to_numpy(zero_copy_only=False))
        if not a_parts:
            return result(0, 0, 0, 0)
        sa = np.concatenate(a_parts)
        sb = np.concatenate(b_parts)
        keep = sa != sb
        sa, sb = sa[keep], sb[keep]
        if len(sa) == 0:
            return result(0, 0, 0, 0)
        # factorize FIRST, then dedup pairs as one int64 composite key:
        # np.unique(axis=0) sorts a void view ~10× slower than int keys,
        # and m = len(nodes) < 2^31 guarantees lo·m+hi fits int64
        nodes, inv = np.unique(np.concatenate([sa, sb]),
                               return_inverse=True)
        ja, jb = inv[:len(sa)], inv[len(sa):]
        m = np.int64(len(nodes))
        edge_keys_all = np.minimum(ja, jb) * m + np.maximum(ja, jb)
        uniq_keys = np.unique(edge_keys_all)
        ia, ib = uniq_keys // m, uniq_keys % m
        n_edges = len(ia)
        degs = np.bincount(np.concatenate([ia, ib]),
                           minlength=len(nodes))
        # orient on COMPACT indices; rank = (deg, original id) and ids
        # are sorted within np.unique, so index order == id order
        s_idx, t_idx = _orient_arrays(ia, ib, degs[ia], degs[ib])
        order = np.lexsort((t_idx, s_idx))
        ss, ts = s_idx[order], t_idx[order]
        seg_start = np.r_[True, ss[1:] != ss[:-1]]
        seg_id = np.cumsum(seg_start) - 1
        seg_sizes = np.bincount(seg_id)
        pos = np.arange(len(ss)) - np.repeat(
            np.cumsum(seg_sizes) - seg_sizes, seg_sizes)
        tails = (seg_sizes[seg_id] - pos - 1).astype(np.int64)
        firsts = np.repeat(np.arange(len(ss), dtype=np.int64), tails)
        within = np.arange(tails.sum(), dtype=np.int64) - np.repeat(
            np.cumsum(tails) - tails, tails)
        seconds = firsts + 1 + within
        wx, wy = ts[firsts], ts[seconds]  # sorted within segment → x<y
        wedge_keys = wx * m + wy          # compact indices: no overflow
        edge_keys = np.sort(ia * m + ib)  # ia<ib ⇔ id-canonical
        hit = np.searchsorted(edge_keys, wedge_keys, side="left")
        hit = np.clip(hit, 0, len(edge_keys) - 1)
        closed = edge_keys[hit] == wedge_keys
        return result(n_edges, len(nodes), len(wedge_keys),
                      int(closed.sum()))

    def undirect(b: pa.Table) -> pa.Table:
        s = pc.cast(b.column("src"), pa.int64())
        d = pc.cast(b.column("dst"), pa.int64())
        t = pa.table({
            "a": pc.min_element_wise(s, d),
            "b": pc.max_element_wise(s, d),
        })
        return t.filter(pc.not_equal(t.column("a"), t.column("b")))

    und = keyed_agg(  # edge-sized; feeds degrees, orientation, closing
        edges.map_batches(undirect, batch_format="pyarrow"), ["a", "b"], {}
    ).materialize()
    n_edges = und.count()

    def endpoints(b: pa.Table) -> pa.Table:
        v = pa.concat_arrays([
            b.column("a").combine_chunks().cast(pa.int64()),
            b.column("b").combine_chunks().cast(pa.int64()),
        ])
        return pa.table({"v": v})

    deg, deg_fits = fits(keyed_agg(
        und.map_batches(endpoints, batch_format="pyarrow"), "v",
        {"deg": ("count", None)}))
    n_nodes = deg.count()

    if deg_fits:
        vs_parts, dg_parts = [], []
        for b in deg.iter_batches(batch_format="pyarrow",
                                  batch_size=None):
            vs_parts.append(pc.cast(b.column("v"), pa.int64())
                            .to_numpy(zero_copy_only=False))
            dg_parts.append(pc.cast(b.column("deg"), pa.int64())
                            .to_numpy(zero_copy_only=False))
        vs = np.concatenate(vs_parts)
        dgs = np.concatenate(dg_parts)
        order = np.argsort(vs)
        deg_ref = ray.put((vs[order], dgs[order]))

        def orient(b: pa.Table) -> pa.Table:
            v_sorted, d_sorted = ray.get(deg_ref)
            a = b.column("a").to_numpy(zero_copy_only=False)
            bb = b.column("b").to_numpy(zero_copy_only=False)
            s, t = _orient_arrays(
                a, bb, d_sorted[np.searchsorted(v_sorted, a)],
                d_sorted[np.searchsorted(v_sorted, bb)])
            return pa.table({"s": pa.array(s, type=pa.int64()),
                             "t": pa.array(t, type=pa.int64())})

        oriented = und.map_batches(orient, batch_format="pyarrow")
    else:
        from .join import hash_join

        da = hash_join(und, deg.map_batches(
            lambda b: b.rename_columns(["va", "deg_a"]),
            batch_format="pyarrow"), "a", "va",
            ["a", "b"], ["deg_a"])
        dab = hash_join(da, deg.map_batches(
            lambda b: b.rename_columns(["vb", "deg_b"]),
            batch_format="pyarrow"), "b", "vb",
            ["a", "b", "deg_a"], ["deg_b"])

        def orient_joined(b: pa.Table) -> pa.Table:
            a = b.column("a").to_numpy(zero_copy_only=False)
            bb = b.column("b").to_numpy(zero_copy_only=False)
            s, t = _orient_arrays(
                a, bb, b.column("deg_a").to_numpy(zero_copy_only=False),
                b.column("deg_b").to_numpy(zero_copy_only=False))
            return pa.table({"s": pa.array(s, type=pa.int64()),
                             "t": pa.array(t, type=pa.int64())})

        oriented = dab.map_batches(orient_joined, batch_format="pyarrow")

    def wedges(g: pa.Table) -> pa.Table:
        ws = np.sort(g.column("t").to_numpy(zero_copy_only=False))
        c = len(ws)
        if c > wedge_cap:
            raise ValueError(
                f"triangle_count: oriented out-degree {c} exceeds "
                f"wedge_cap={wedge_cap} — near-clique graph; raise the "
                "cap only with the memory to hold C(cap,2) wedges")
        if c < 2:
            return pa.table({
                "x": pa.array([], type=pa.int64()),
                "y": pa.array([], type=pa.int64()),
                "n": pa.array([], type=pa.int64()),
                "flag": pa.array([], type=pa.int64()),
            })
        i, j = np.triu_indices(c, k=1)
        return pa.table({
            "x": pa.array(ws[i], type=pa.int64()),
            "y": pa.array(ws[j], type=pa.int64()),
            "n": pa.array(np.ones(len(i), dtype=np.int64)),
            "flag": pa.array(np.zeros(len(i), dtype=np.int64)),
        })

    wedge_rows = map_groups(oriented, "s", wedges)
    flagged_edges = und.map_batches(
        lambda b: pa.table({
            "x": pc.cast(b.column("a"), pa.int64()),
            "y": pc.cast(b.column("b"), pa.int64()),
            "n": pa.array(np.zeros(b.num_rows, dtype=np.int64)),
            "flag": pa.array(np.ones(b.num_rows, dtype=np.int64)),
        }),
        batch_format="pyarrow",
    )

    def closed_partial(b: pa.Table) -> pa.Table:
        # per-block partial of BOTH tallies: Σn = wedges, Σn·[flag>0]
        # = closed wedges = triangles — one pass, two int64s per block
        n = pc.cast(b.column("n"), pa.int64())
        f = pc.cast(b.column("f"), pa.int64())
        hit = pc.if_else(pc.greater(f, 0), n,
                         pa.scalar(0, type=pa.int64()))
        return pa.table({
            "wedges": pa.array([int(pc.sum(n).as_py() or 0)],
                               type=pa.int64()),
            "tri": pa.array([int(pc.sum(hit).as_py() or 0)],
                            type=pa.int64()),
        })

    tallies = (
        keyed_agg(wedge_rows.union(flagged_edges), ["x", "y"],
                  {"n": ("sum", "n"), "f": ("sum", "flag")})
        .map_batches(closed_partial, batch_format="pyarrow")
        .take_all()
    )
    n_wedges = sum(r["wedges"] for r in tallies)
    n_triangles = sum(r["tri"] for r in tallies)
    return result(n_edges, n_nodes, n_wedges, n_triangles)


def bfs_hops(edges, sources, max_hops: int = 4):
    """Multi-source BFS over a directed edge list ``(src, dst)``:
    minimum hop count from ANY source to every node reachable within
    ``max_hops``. Returns ``(v: int64, hops: int64)`` including the
    sources at hop 0 — crawl-frontier radius, link
    distance, contamination blast-radius style queries.

    ``sources`` is a small driver-side list (seed sets are curated,
    not data-sized); the rounds are where scale lives. Three regimes,
    the `pagerank` pattern (per-round Ray orchestration ~2 s dwarfs
    tiny-state rounds — measured in `dup_clusters_lp`), chosen by
    ``exchange.fits``:

    - **local** (the edge list fits): pull the coded
      (src, dst) arrays once; each round is one boolean-mask gather
      (``in_frontier[src_codes]``) + ``np.unique`` — zero per-round Ray
      executions.
    - **broadcast** (the distinct node table fits): the
      frontier node set is ``ray.put`` once per round; every edge block
      emits its frontier-adjacent dst set (pre-deduped per block), the
      driver merges node-sized partials — one map pass per round, no
      shuffle, state bounded by the node count (the LP broadcast-regime
      contract).
    - **distributed** (beyond): frontier and visited stay Datasets;
      a round is `hash_join` (edges ⋈ frontier on src) → distinct dst
      → `anti_join` against visited (bloom-split: most already-visited
      nodes never enter the verify exchange) → union into visited.
      Nothing driver-sized.

    BFS visits each edge at most ``max_hops`` times and each node once
    — unlike label propagation there is no fixpoint uncertainty, so
    the SQL replay is a depth-bounded recursive CTE (UNION-deduped on
    (v, d), then ``min(d)``).
    """
    import numpy as np
    import ray
    import ray.data

    from .join import anti_join, hash_join

    seeds = sorted(set(int(s) for s in sources))
    if not seeds:
        raise ValueError("bfs_hops: sources must be non-empty")

    edges, small = fits(edges)
    if small:

        parts = [b for b in edges.iter_batches(batch_format="pyarrow",
                                               batch_size=None)]
        if parts:
            t = pa.concat_tables(parts)
            src = t.column("src").to_numpy(zero_copy_only=False).astype(
                np.int64)
            dst = t.column("dst").to_numpy(zero_copy_only=False).astype(
                np.int64)
        else:
            src = dst = np.array([], dtype=np.int64)
        seed_arr = np.asarray(seeds, dtype=np.int64)
        all_nodes = np.unique(np.concatenate([src, dst, seed_arr]))
        s_codes = np.searchsorted(all_nodes, src)
        d_codes = np.searchsorted(all_nodes, dst)
        dist = np.full(len(all_nodes), -1, dtype=np.int64)
        frontier = np.searchsorted(all_nodes, seed_arr)
        dist[frontier] = 0
        for h in range(1, max_hops + 1):
            if not len(frontier) or not len(src):
                break
            in_frontier = np.zeros(len(all_nodes), dtype=bool)
            in_frontier[frontier] = True
            cand = d_codes[in_frontier[s_codes]]
            new = np.unique(cand[dist[cand] < 0])
            dist[new] = h
            frontier = new
        hit = dist >= 0
        return ray.data.from_arrow(pa.table({
            "v": pa.array(all_nodes[hit], type=pa.int64()),
            "hops": pa.array(dist[hit], type=pa.int64()),
        }))

    # the distinct nodes pick the wide regime
    if fits(keyed_agg(edges.map_batches(
            lambda b: pa.table({"v": pa.chunked_array(
                [b.column("src"), b.column("dst")]).combine_chunks()}),
            batch_format="pyarrow"), "v", {}))[1]:
        visited = {int(s): 0 for s in seeds}
        frontier = list(seeds)
        for h in range(1, max_hops + 1):
            if not frontier:
                break
            f_ref = ray.put(pa.array(frontier, type=pa.int64()))

            def step(b: pa.Table) -> pa.Table:
                f = ray.get(f_ref)
                m = pc.is_in(pc.cast(b.column("src"), pa.int64()),
                             value_set=f)
                return pa.table({"dst": pc.unique(pc.cast(
                    b.filter(m).column("dst"), pa.int64()))})

            nxt = set()
            for bb in edges.map_batches(
                    step, batch_format="pyarrow").iter_batches(
                        batch_format="pyarrow"):
                nxt.update(bb.column("dst").to_pylist())
            frontier = [v for v in nxt if v not in visited]
            for v in frontier:
                visited[v] = h
        vs = sorted(visited)
        return ray.data.from_arrow(pa.table({
            "v": pa.array(vs, type=pa.int64()),
            "hops": pa.array([visited[v] for v in vs], type=pa.int64()),
        }))

    visited = ray.data.from_arrow(pa.table({
        "v": pa.array(seeds, type=pa.int64()),
        "hops": pa.array([0] * len(seeds), type=pa.int64()),
    })).materialize()
    frontier = visited.map_batches(lambda b: b.select(["v"]),
                                   batch_format="pyarrow")
    for h in range(1, max_hops + 1):
        adj = hash_join(
            edges, frontier, left_key="src", right_key="v",
            left_cols=["dst"], right_cols=["v"], how="inner",
        ).map_batches(lambda b: b.select(["dst"]), batch_format="pyarrow")
        nxt = (
            keyed_agg(adj, "dst", {})
            .map_batches(lambda b: pa.table({"v": pc.cast(
                b.column("dst"), pa.int64())}), batch_format="pyarrow")
        )
        unseen = anti_join(nxt, visited, "v", "v").map_batches(
            lambda b, _h=h: b.append_column(
                "hops", pa.array([_h] * b.num_rows, type=pa.int64())),
            batch_format="pyarrow",
        ).materialize()
        if unseen.count() == 0:
            break
        visited = visited.union(unseen).materialize()
        frontier = unseen.map_batches(lambda b: b.select(["v"]),
                                      batch_format="pyarrow")
    return visited


def kcore_rounds(edges, k: int = 3, rounds: int = 3,
                 src_col: str = "src", dst_col: str = "dst",
                 alive_max: int = 50_000_000):
    """Fixed-round k-core peeling of the undirected graph induced by a
    directed edge list — the cohesion filter link-graph curation uses
    to separate densely-embedded pages from spam tendrils (Seidman's
    k-core, the batched "peel degree < k, repeat" formulation; each
    round here is one synchronous peel, exactly the round structure of
    the MapReduce k-core algorithms). The FIXED ``rounds`` contract
    (rather than run-to-fixpoint) keeps the operator deterministic AND
    SQL-replayable — the oracle unrolls the same R rounds as CTEs; at
    convergence (edges stop shrinking) the result IS the true k-core.

    Output: one row per node with ≥ 1 surviving edge after R peels —
    ``(v, deg)``, the node's degree within the peeled edge set.

    Scale shape: canonical distinct edges live as ONE packed int64
    (lo << 32 | hi; loud guard: node ids must fit 31 bits — widen to a
    2-column exchange past that), so the initial distinct and every
    round's filter exchange 8 B/edge. Each round = unpacked endpoints
    → one node-sized ``keyed_agg_table`` count, combined on the driver
    → survivors (deg ≥ k) broadcast once as a sorted array via
    ``ray.put`` (bounded by
    ``alive_max``; the named alternative past the bound is two
    semi-joins on the endpoint columns) → vectorized searchsorted
    filter of the packed edges, materialized so the next round starts
    from the shrunk list instead of replaying the lineage.
    """
    import numpy as np
    import ray

    lim = np.int64(1) << np.int64(31)

    def pack(batch: pa.Table) -> pa.Table:
        s = pc.cast(batch.column(src_col), pa.int64()).to_numpy(
            zero_copy_only=False)
        d = pc.cast(batch.column(dst_col), pa.int64()).to_numpy(
            zero_copy_only=False)
        if len(s) and (min(s.min(), d.min()) < 0
                       or max(s.max(), d.max()) >= lim):
            raise ValueError("kcore_rounds: node ids outside [0, 2^31) "
                             "— use a 2-column edge exchange")
        m = s != d
        lo = np.minimum(s[m], d[m])
        hi = np.maximum(s[m], d[m])
        return pa.table({"e": pa.array((lo << np.int64(32)) | hi,
                                       type=pa.int64())})

    # distinct edges: a keyed_agg with no aggregate
    cur = keyed_agg(edges.map_batches(pack, batch_format="pyarrow"),
                    "e", {}).materialize()

    def endpoints(batch: pa.Table) -> pa.Table:
        e = batch.column("e").to_numpy(zero_copy_only=False)
        return pa.table({"v": np.concatenate([e >> np.int64(32),
                                              e & np.int64(0xFFFFFFFF)])})

    def ends(ds):
        return ds.map_batches(endpoints, batch_format="pyarrow")

    for _ in range(rounds):
        # combined and filtered on the driver, which consumes it: no
        # execution beyond the partials
        deg = keyed_agg_table(ends(cur), "v", {"deg": ("count", None)})
        alive = (np.sort(deg.filter(pc.greater_equal(deg.column("deg"), k))
                         .column("v").to_numpy())
                 if deg.num_rows else np.empty(0, np.int64))
        if len(alive) > alive_max:
            raise ValueError(
                f"kcore_rounds: {len(alive)} surviving nodes exceed "
                f"the broadcast bound {alive_max} — switch the round "
                "filter to two endpoint semi-joins")
        alive_ref = ray.put(alive)

        def keep_alive(batch: pa.Table, _ref=alive_ref) -> pa.Table:
            al = ray.get(_ref)
            e = batch.column("e").to_numpy(zero_copy_only=False)
            if not len(al):
                return pa.table({"e": pa.array([], type=pa.int64())})
            a = e >> np.int64(32)
            b = e & np.int64(0xFFFFFFFF)

            def member(x):
                p = np.searchsorted(al, x)
                p[p == len(al)] = 0
                return al[p] == x

            return pa.table({"e": pa.array(e[member(a) & member(b)],
                                           type=pa.int64())})

        cur = cur.map_batches(keep_alive,
                              batch_format="pyarrow").materialize()

    return keyed_agg(ends(cur), "v", {"deg": ("count", None)})
