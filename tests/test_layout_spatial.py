"""Differential tests for physical-layout (Z-order) and spatial-join
operators (`functions/layout.py`, `functions/spatial.py`)."""

import numpy as np
import pyarrow as pa
import pytest


def _morton_ref(x: int, y: int) -> int:
    """Bit-by-bit reference interleave."""
    z = 0
    for i in range(16):
        z |= ((x >> i) & 1) << (2 * i)
        z |= ((y >> i) & 1) << (2 * i + 1)
    return z


class TestMorton:
    def test_spread_matches_bitwise_reference(self):
        from smartreader_ray.functions.layout import morton_key

        rng = np.random.default_rng(7)
        x = rng.integers(0, 1 << 15, 500).astype(np.int64)
        y = rng.integers(0, 1 << 15, 500).astype(np.int64)
        got = morton_key(x, y)
        for xi, yi, zi in zip(x, y, got):
            assert int(zi) == _morton_ref(int(xi), int(yi))

    def test_monotone_in_each_dim(self):
        # Fixing one coordinate, the Morton key is strictly monotone in
        # the other — the property zone maps rely on.
        from smartreader_ray.functions.layout import morton_key

        y = np.full(100, 37, dtype=np.int64)
        x = np.arange(100, dtype=np.int64)
        z = morton_key(x, y)
        assert (np.diff(z) > 0).all()


class TestZorderLayout:
    def test_zone_maps_match_bruteforce(self, ray_session):
        import ray.data

        from smartreader_ray.functions.layout import (morton_key,
                                                      zorder_layout)

        rng = np.random.default_rng(11)
        n, k = 3000, 8
        x = rng.integers(0, 1 << 15, n).astype(np.int64)
        y = rng.integers(0, 1 << 15, n).astype(np.int64)
        ids = rng.permutation(n).astype(np.int64)
        ds = ray.data.from_arrow(
            pa.table({"x": x, "y": y, "id": ids})).repartition(7)
        got = zorder_layout(ds, "x", "y", "id", k=k).to_pandas()

        z = morton_key(x, y)
        order = np.argsort(z * (1 << 32) + ids, kind="stable")
        shard = np.arange(n, dtype=np.int64) * k // n
        exp_rows = {}
        for s in range(k):
            sel = order[shard == s]
            exp_rows[s] = (len(sel), x[sel].min(), x[sel].max(),
                           y[sel].min(), y[sel].max(),
                           z[sel].min(), z[sel].max())
        assert len(got) == k
        for row in got.itertuples(index=False):
            e = exp_rows[row.shard]
            assert (row.n_rows, row.x_min, row.x_max, row.y_min,
                    row.y_max, row.z_min, row.z_max) == e
        # near-equal shard sizes: bin-packing property
        assert got["n_rows"].max() - got["n_rows"].min() <= 1

    def test_id_guard(self, ray_session):
        import ray.data

        from smartreader_ray.functions.layout import zorder_layout

        ds = ray.data.from_arrow(pa.table({
            "x": pa.array([1], type=pa.int64()),
            "y": pa.array([2], type=pa.int64()),
            "id": pa.array([1 << 33], type=pa.int64())}))
        with pytest.raises(Exception, match="2\\^32"):
            zorder_layout(ds, "x", "y", "id", k=2).materialize()

    def test_prune_fraction(self):
        from smartreader_ray.functions.layout import zone_prune_fraction

        zones = pa.table({
            "shard": pa.array([0, 1, 2], type=pa.int64()),
            "x_min": pa.array([0, 100, 200], type=pa.int64()),
            "x_max": pa.array([99, 199, 299], type=pa.int64()),
            "y_min": pa.array([0, 0, 0], type=pa.int64()),
            "y_max": pa.array([50, 50, 50], type=pa.int64()),
            "z_min": pa.array([0, 0, 0], type=pa.int64()),
            "z_max": pa.array([0, 0, 0], type=pa.int64()),
        })
        out = zone_prune_fraction(zones, 120, 150, 0, 10)
        assert out == {"shards": 3, "scanned": 1, "pruned": 2}


class TestGridJoin:
    def _points(self, rng, n, lo=0, hi=500):
        return (rng.integers(lo, hi, n).astype(np.int64),
                rng.integers(lo, hi, n).astype(np.int64))

    def test_matches_bruteforce(self, ray_session):
        import ray.data

        from smartreader_ray.functions.spatial import grid_join

        rng = np.random.default_rng(23)
        nl, nr, d = 400, 60, 25
        lx, ly = self._points(rng, nl)
        rx, ry = self._points(rng, nr)
        lids = np.arange(nl, dtype=np.int64)
        rids = np.arange(nr, dtype=np.int64)
        left = ray.data.from_arrow(
            pa.table({"id": lids, "x": lx, "y": ly})).repartition(5)
        right = ray.data.from_arrow(
            pa.table({"id": rids, "x": rx, "y": ry})).repartition(3)
        got = grid_join(left, right, d=d).to_pandas().set_index("id")

        # brute force: all pairs
        exp = {}
        for i in range(nl):
            dx, dy = lx[i] - rx, ly[i] - ry
            ok = (np.abs(dx) <= d) & (np.abs(dy) <= d)
            if not ok.any():
                continue
            comp = (dx[ok] ** 2 + dy[ok] ** 2) * 1_000_000 + rids[ok]
            best = comp.min()
            exp[i] = (int(ok.sum()), int(best // 1_000_000),
                      int(best % 1_000_000))
        assert set(got.index) == set(exp)
        for i, (n_within, min_d2, nearest) in exp.items():
            row = got.loc[i]
            assert (row["n_within"], row["min_d2"],
                    row["nearest_id"]) == (n_within, min_d2, nearest)

    def test_hot_cell_guard(self, ray_session):
        import ray.data

        from smartreader_ray.functions.spatial import grid_join

        n = 50  # all points in one cell -> group of 50 + 50 > cap
        t = pa.table({"id": np.arange(n, dtype=np.int64),
                      "x": np.ones(n, dtype=np.int64),
                      "y": np.ones(n, dtype=np.int64)})
        left = ray.data.from_arrow(t)
        right = ray.data.from_arrow(t)
        with pytest.raises(Exception, match="hot cell"):
            grid_join(left, right, d=10, max_per_cell=40).materialize()

    def test_coords_deterministic(self, ray_session):
        import ray.data

        from smartreader_ray.functions.spatial import multiplicative_coords

        keys = np.array([1, 2, 1000, 123456], dtype=np.int64)
        ds = ray.data.from_arrow(pa.table({"k": keys}))
        out = multiplicative_coords(ds, "k").to_pandas()
        for _, row in out.iterrows():
            k = int(row["k"])
            assert row["x"] == ((k * 2654435761) % 2**32) // 4194304
            assert row["y"] == ((k * 2246822519) % 2**32) // 4194304
            assert 0 <= row["x"] < 1024 and 0 <= row["y"] < 1024
