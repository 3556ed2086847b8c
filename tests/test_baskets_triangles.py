"""basket_pairs (market-basket co-occurrence) and triangle_count
(degree-ordered node iterator) — brute-force differentials and
local/distributed regime equality."""

import itertools

import numpy as np
import pyarrow as pa


def _baskets(seed=5, n_groups=40, n_items=15, rows=300):
    rng = np.random.default_rng(seed)
    return pa.table({
        "g": pa.array(rng.integers(0, n_groups, rows), type=pa.int64()),
        "item": pa.array(rng.integers(0, n_items, rows), type=pa.int64()),
    })


def _brute_basket(t, top_n):
    by_group = {}
    for g, v in zip(t.column("g").to_pylist(), t.column("item").to_pylist()):
        by_group.setdefault(g, set()).add(v)
    counts = {}
    for items in by_group.values():
        for a, b in itertools.combinations(sorted(items), 2):
            counts[(a, b)] = counts.get((a, b), 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(a, b, n) for (a, b), n in ranked[:top_n]]


def test_basket_pairs_local_matches_bruteforce(ray_session):
    import ray.data

    from smartreader_ray.functions.graph import basket_pairs

    t = _baskets()
    out = basket_pairs(ray.data.from_arrow(t).repartition(4),
                       "g", "item", top_n=10).take_all()
    got = [(r["item_a"], r["item_b"], r["n_groups"]) for r in out]
    assert got == _brute_basket(t, 10)


def test_basket_pairs_distributed_regime_matches_local(ray_session,
                                                        size_budget):
    import ray.data

    from smartreader_ray.functions.graph import basket_pairs

    t = _baskets(seed=8)
    ds = ray.data.from_arrow(t).repartition(3)
    local = basket_pairs(ds, "g", "item", top_n=12).take_all()
    size_budget(0)  # no (group, item) row fits: the distributed regime
    dist = basket_pairs(ds, "g", "item", top_n=12).take_all()
    assert local == dist == [
        {"item_a": a, "item_b": b, "n_groups": n}
        for a, b, n in _brute_basket(t, 12)]


def _brute_triangles(edges):
    adj = {}
    und = set()
    for s, d in edges:
        if s == d:
            continue
        a, b = min(s, d), max(s, d)
        und.add((a, b))
    for a, b in und:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    tri = 0
    nodes = sorted(adj)
    for x, y in und:
        tri += len(adj[x] & adj[y] - {x, y})
    return len(nodes), len(und), tri // 3


def test_triangle_count_matches_bruteforce(ray_session):
    import ray.data

    from smartreader_ray.functions.graph import triangle_count

    rng = np.random.default_rng(13)
    m = 300
    src = rng.integers(0, 40, m).astype(np.int64)
    dst = rng.integers(0, 40, m).astype(np.int64)
    edges = ray.data.from_arrow(pa.table({
        "src": pa.array(src), "dst": pa.array(dst)})).repartition(4)
    out = triangle_count(edges).take_all()[0]
    n_nodes, n_edges, n_tri = _brute_triangles(zip(src, dst))
    assert out["n_nodes"] == n_nodes
    assert out["n_edges"] == n_edges
    assert out["n_triangles"] == n_tri


def test_triangle_count_all_three_regimes_agree(ray_session, size_budget):
    import ray.data

    from smartreader_ray.functions.graph import triangle_count

    rng = np.random.default_rng(21)
    src = rng.integers(0, 25, 150).astype(np.int64)
    dst = rng.integers(0, 25, 150).astype(np.int64)
    table = pa.table({"src": pa.array(src), "dst": pa.array(dst)})
    edges = ray.data.from_arrow(table).repartition(3)
    local = triangle_count(edges).take_all()[0]
    # the (v, deg) table (two int64 per node) fits, the edges do not
    n_nodes = len(set(src) | set(dst))
    assert 16 * n_nodes < table.nbytes
    size_budget(table.nbytes - 1)
    dist_bcast = triangle_count(edges).take_all()[0]
    size_budget(0)
    dist_join = triangle_count(edges).take_all()[0]
    assert local == dist_bcast == dist_join


def test_triangle_count_known_graph(ray_session):
    import ray.data

    from smartreader_ray.functions.graph import triangle_count

    # K4 has 4 triangles; plus a pendant edge adds none
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]
    t = pa.table({
        "src": pa.array([e[0] for e in edges], type=pa.int64()),
        "dst": pa.array([e[1] for e in edges], type=pa.int64()),
    })
    out = triangle_count(ray.data.from_arrow(t)).take_all()[0]
    assert out == {"n_nodes": 5, "n_edges": 7, "n_wedges": out["n_wedges"],
                   "n_triangles": 4}
