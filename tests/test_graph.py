"""Graph operators: consecutive_edges derivation + integer PageRank.

The regime-equality test is the load-bearing one: the distributed path
(hash_join + groupby-sum rounds) must produce bit-identical ranks to
the broadcast path, because the oracle replays one arithmetic and the
engine picks its regime by the bytes of its node and edge tables
(``exchange.fits``). A test forces a regime through the one budget,
``DataContext.target_max_block_size`` (the ``size_budget`` fixture).
"""

import pyarrow as pa
import pytest

from smartreader_ray.functions.graph import (SCALE, consecutive_edges,
                                             pagerank)


def _edges_table():
    # group 1: nodes 10 -> 20 -> 10 (cycle); group 2: duplicate seq rows
    # (legal) giving a cross product; one self-loop to drop
    return pa.table(
        {
            "g": [1, 1, 1, 2, 2, 2, 2, 3, 3],
            "s": [1, 2, 3, 1, 1, 2, 2, 1, 2],
            "n": [10, 20, 10, 30, 40, 50, 30, 60, 60],
        }
    )


def _pagerank_reference(edges, nodes, iterations):
    """Plain-dict replay of the defined integer arithmetic."""
    from collections import Counter

    base = (15 * SCALE) // 100
    outdeg = Counter(s for s, _ in edges)
    rank = {v: SCALE for v in nodes}
    for _ in range(iterations):
        infl = Counter()
        for s, d in edges:
            if s in rank:
                infl[d] += rank[s] // outdeg[s]
        rank = {v: base + (85 * infl.get(v, 0)) // 100 for v in rank}
    return rank


def _collect_pairs(ds):
    t = pa.concat_tables(
        list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    )
    return set(zip(t.column("src").to_pylist(), t.column("dst").to_pylist()))


@pytest.mark.parametrize("budget", [20_000_000, 0])
def test_consecutive_edges_tiny(ray_session, size_budget, budget):
    """budget in bytes: 20 MB keeps the local regime, 0 the hash_join."""
    import ray.data

    ds = ray.data.from_arrow(_edges_table())
    size_budget(budget)
    pairs = _collect_pairs(
        consecutive_edges(ds, "g", "s", "n", seq_stride=10)
    )
    # group 1: (10,20), (20,10); group 2 cross product of {30,40}x{50,30}
    # minus the 30->30 self-loop; group 3: 60->60 dropped entirely
    assert pairs == {(10, 20), (20, 10), (30, 50), (40, 50), (40, 30)}


def test_consecutive_edges_stride_guard(ray_session):
    import ray.data

    ds = ray.data.from_arrow(_edges_table())
    with pytest.raises(Exception, match="seq_stride"):
        _collect_pairs(consecutive_edges(ds, "g", "s", "n", seq_stride=2))


@pytest.mark.parametrize("regime", [
    "local",        # both tables fit: driver numpy rounds
    "broadcast",    # the nodes fit, the edges do not: per-round exchange
    "distributed",  # neither fits: hash_join rounds
])
def test_pagerank_matches_reference(ray_session, size_budget, regime):
    import random

    import ray.data

    rng = random.Random(7)
    nodes = list(range(1, 31))
    edges = sorted(
        {(rng.randrange(1, 31), rng.randrange(1, 31)) for _ in range(120)
         if True}
    )
    edges = [(s, d) for s, d in edges if s != d]
    # a source outside the node table contributes nothing after round 0
    edges.append((99, 1))

    edges_ds = ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array([s for s, _ in edges], type=pa.int64()),
                "dst": pa.array([d for _, d in edges], type=pa.int64()),
            }
        )
    )
    nodes_ds = ray.data.from_arrow(
        pa.table({"v": pa.array(nodes, type=pa.int64())})
    )
    if regime == "broadcast":
        assert nodes_ds.size_bytes() < edges_ds.size_bytes()
        size_budget(edges_ds.size_bytes() - 1)
    elif regime == "distributed":
        size_budget(0)
    out = pa.concat_tables(
        list(
            pagerank(edges_ds, nodes_ds, node_col="v", iterations=4)
            .iter_batches(batch_format="pyarrow", batch_size=None)
        )
    )
    got = dict(zip(out.column("v").to_pylist(),
                   out.column("rank").to_pylist()))
    # reference restricts contributing sources to the node table the
    # same way both engine regimes do
    ref_edges = [(s, d) for s, d in edges]
    want = _pagerank_reference(ref_edges, nodes, 4)
    assert got == want
    assert set(out.column("v").to_pylist()) == set(nodes)
    # outdeg column: node 99 absent, in-table sources counted
    od = dict(zip(out.column("v").to_pylist(),
                  out.column("outdeg").to_pylist()))
    from collections import Counter

    want_od = Counter(s for s, _ in edges)
    assert all(od[v] == want_od.get(v, 0) for v in nodes)


def test_pagerank_headroom_guard(ray_session):
    import ray.data

    edges_ds = ray.data.from_arrow(
        pa.table({"src": pa.array([1], type=pa.int64()),
                  "dst": pa.array([2], type=pa.int64())})
    )
    nodes_ds = ray.data.from_arrow(
        pa.table({"v": pa.array([1, 2], type=pa.int64())})
    )
    with pytest.raises(OverflowError, match="headroom"):
        pagerank(edges_ds, nodes_ds, node_col="v", scale=2**61)


def test_rank_weighted_rollup(ray_session):
    import ray.data

    from smartreader_ray.functions.graph import rank_weighted_rollup

    ranks = ray.data.from_arrow(
        pa.table(
            {
                "v": pa.array([1, 2], type=pa.int64()),
                "rank": pa.array([100, 10], type=pa.int64()),
                "outdeg": pa.array([1, 1], type=pa.int64()),
            }
        )
    )
    fact = ray.data.from_arrow(
        pa.table(
            {
                "k": pa.array([1, 1, 2, 3], type=pa.int64()),
                "grp": pa.array([7, 8, 7, 7], type=pa.int64()),
                # float-but-integral quantities, like l_quantity
                "q": pa.array([2.0, 3.0, 5.0, 9.0], type=pa.float64()),
            }
        )
    )
    out = pa.concat_tables(
        list(
            rank_weighted_rollup(fact, ranks, fact_key="k",
                                 group_col="grp", qty_col="q", top_k=10)
            .iter_batches(batch_format="pyarrow", batch_size=None)
        )
    )
    got = dict(zip(out.column("grp").to_pylist(),
                   out.column("weighted_demand").to_pylist()))
    # grp 7: 100*2 + 10*5 (k=3 has no rank -> dropped); grp 8: 100*3
    assert got == {7: 250, 8: 300}
    # ordering: weighted desc, then grp
    assert out.column("grp").to_pylist() == [8, 7]


def test_rank_weighted_rollup_rejects_lossy_qty(ray_session):
    import pytest as _pytest
    import ray.data

    from smartreader_ray.functions.graph import rank_weighted_rollup

    ranks = ray.data.from_arrow(
        pa.table({"v": pa.array([1], type=pa.int64()),
                  "rank": pa.array([5], type=pa.int64()),
                  "outdeg": pa.array([0], type=pa.int64())})
    )
    fact = ray.data.from_arrow(
        pa.table({"k": pa.array([1], type=pa.int64()),
                  "grp": pa.array([1], type=pa.int64()),
                  "q": pa.array([1.5], type=pa.float64())})
    )
    with _pytest.raises(Exception):
        pa.concat_tables(
            list(
                rank_weighted_rollup(fact, ranks, fact_key="k",
                                     group_col="grp", qty_col="q")
                .iter_batches(batch_format="pyarrow", batch_size=None)
            )
        )


def _hits_reference(edges, nodes, iterations):
    h = {v: SCALE for v in nodes}
    a = {v: SCALE for v in nodes}
    edges = [(s, d) for s, d in edges if s in h and d in h]
    for _ in range(iterations):
        a_raw = {v: 0 for v in nodes}
        for s, d in edges:
            a_raw[d] += h[s]
        da = (max(max(a_raw.values(), default=0), 1) + SCALE - 1) // SCALE
        a = {v: x // da for v, x in a_raw.items()}
        h_raw = {v: 0 for v in nodes}
        for s, d in edges:
            h_raw[s] += a[d]
        dh = (max(max(h_raw.values(), default=0), 1) + SCALE - 1) // SCALE
        h = {v: x // dh for v, x in h_raw.items()}
    return h, a


@pytest.mark.parametrize("budget", [5_000_000, 0])
def test_hits_matches_reference(ray_session, size_budget, budget):
    """budget in bytes: 5 MB keeps the local regime, 0 the distributed."""
    import random

    import ray.data

    from smartreader_ray.functions.graph import hits

    rng = random.Random(13)
    nodes = list(range(1, 21))
    edges = sorted({(rng.randrange(1, 21), rng.randrange(1, 21))
                    for _ in range(70)})
    edges = [(s, d) for s, d in edges if s != d]
    edges_ds = ray.data.from_arrow(
        pa.table({"src": pa.array([s for s, _ in edges], type=pa.int64()),
                  "dst": pa.array([d for _, d in edges],
                                  type=pa.int64())})
    )
    nodes_ds = ray.data.from_arrow(
        pa.table({"v": pa.array(nodes, type=pa.int64())})
    )
    size_budget(budget)
    out = pa.concat_tables(
        list(
            hits(edges_ds, nodes_ds, node_col="v", iterations=3)
            .iter_batches(batch_format="pyarrow", batch_size=None)
        )
    )
    got_h = dict(zip(out.column("v").to_pylist(),
                     out.column("hub").to_pylist()))
    got_a = dict(zip(out.column("v").to_pylist(),
                     out.column("authority").to_pylist()))
    want_h, want_a = _hits_reference(edges, nodes, 3)
    assert got_h == want_h
    assert got_a == want_a


def _bfs_reference(edges, seeds, max_hops):
    adj = {}
    for s, d in edges:
        adj.setdefault(s, set()).add(d)
    dist = {s: 0 for s in seeds}
    frontier = set(seeds)
    for h in range(1, max_hops + 1):
        nxt = set()
        for u in frontier:
            nxt |= adj.get(u, set())
        frontier = {v for v in nxt if v not in dist}
        for v in frontier:
            dist[v] = h
    return dist


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("regime", ["local", "broadcast", "distributed"])
def test_bfs_hops_all_regimes(ray_session, size_budget, seed, regime):
    """bfs_hops vs a dict BFS AND DuckDB's recursive CTE, on random
    directed graphs with cycles, unreachable nodes, and multi-seeds —
    every regime forced via the size budget."""
    import duckdb
    import numpy as np
    import ray.data

    from smartreader_ray.functions.graph import bfs_hops

    rng = np.random.RandomState(seed)
    n, m = 25, 80
    edges = sorted({(int(rng.randint(0, n)), int(rng.randint(0, n)))
                    for _ in range(m)})
    edges = [(s, d) for s, d in edges if s != d]
    seeds = sorted({int(rng.randint(0, n)) for _ in range(3)})
    table = pa.table({
        "src": pa.array([s for s, _ in edges], type=pa.int64()),
        "dst": pa.array([d for _, d in edges], type=pa.int64()),
    })
    eds = ray.data.from_arrow(table).repartition(3)
    if regime == "broadcast":
        # the distinct-node table (one int64 per node) fits, the edges not
        n_nodes = len({v for e in edges for v in e})
        assert 8 * n_nodes < table.nbytes
        size_budget(table.nbytes - 1)
    elif regime == "distributed":
        size_budget(32)
    out = bfs_hops(eds, seeds, max_hops=3).take_all()
    got = {r["v"]: r["hops"] for r in out}
    want = _bfs_reference(edges, seeds, 3)
    assert got == want, (seed, regime)

    con = duckdb.connect()
    con.register("e", pa.table({
        "src": pa.array([s for s, _ in edges], type=pa.int64()),
        "dst": pa.array([d for _, d in edges], type=pa.int64())}))
    con.register("s", pa.table({"v": pa.array(seeds, type=pa.int64())}))
    dd = dict(con.sql("""
        WITH RECURSIVE r AS (
            SELECT v, 0 AS d FROM s
            UNION
            SELECT e.dst, r.d + 1 FROM r JOIN e ON e.src = r.v
            WHERE r.d < 3
        ) SELECT v, min(d) FROM r GROUP BY v
    """).fetchall())
    assert got == dd, (seed, regime)


def test_bfs_hops_empty_sources_raise(ray_session):
    import ray.data

    from smartreader_ray.functions.graph import bfs_hops

    eds = ray.data.from_arrow(pa.table({
        "src": pa.array([1], type=pa.int64()),
        "dst": pa.array([2], type=pa.int64())}))
    with pytest.raises(ValueError, match="non-empty"):
        bfs_hops(eds, [])


def test_kcore_rounds_peels_tendrils(ray_session):
    import ray.data

    from smartreader_ray.functions import kcore_rounds

    # 4-clique (nodes 0..3) with a pendant path 3-10-11: the path peels
    # off in two rounds at k=2; the clique is the stable 2-core.
    clique = [(a, b) for a in range(4) for b in range(4) if a < b]
    edges = clique + [(3, 10), (10, 11)]
    ds = ray.data.from_items(
        [{"src": a, "dst": b} for a, b in edges])
    out = {r["v"]: r["deg"]
           for r in kcore_rounds(ds, k=2, rounds=3).take_all()}
    assert set(out) == {0, 1, 2, 3}
    assert all(out[v] == 3 for v in range(4))

    # rounds=0 returns raw canonical-distinct degrees
    out0 = {r["v"]: r["deg"]
            for r in kcore_rounds(ds, k=2, rounds=0).take_all()}
    assert out0[10] == 2 and out0[11] == 1

    # k above the max degree empties the graph
    assert kcore_rounds(ds, k=10, rounds=2).take_all() == []


def test_kcore_rounds_runs_one_execution_per_round(ray_session,
                                                   monkeypatch):
    """Each peel round materializes its degree partials and its filtered
    edges; the survivors are filtered on the driver from keyed_agg's
    one-task block, with no further execution."""
    import ray.data
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    from smartreader_ray.functions import kcore_rounds

    clique = [(a, b) for a in range(4) for b in range(4) if a < b]
    ds = ray.data.from_items(
        [{"src": a, "dst": b} for a, b in clique + [(3, 10), (10, 11)]])
    runs = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        runs.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    out = kcore_rounds(ds, k=2, rounds=3).take_all()
    assert {r["v"] for r in out} == {0, 1, 2, 3}
    # the distinct edges' partials; per round the degree partials and
    # the filtered edges; the last degrees' partials
    assert len(runs) == 1 + 2 * 3 + 1
