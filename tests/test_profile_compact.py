"""profile_table, sort_bounds, latest_by — semantics on crafted inputs."""

import datetime

import numpy as np
import pytest
import pyarrow as pa


def test_profile_table_nulls_and_stats(ray_session):
    import ray.data

    from smartreader_ray.functions.reshape import profile_table

    t = pa.table({
        "x": pa.array([1.0, 2.0, None, 4.0], type=pa.float64()),
        "y": pa.array([10.5, None, None, -2.25], type=pa.float64()),
    })
    out = profile_table(ray.data.from_arrow(t).repartition(3),
                        ["x", "y"]).take_all()
    by = {r["column_name"]: r for r in out}
    assert by["x"]["n"] == 4 and by["x"]["n_null"] == 1
    assert by["x"]["min_v"] == 1.0 and by["x"]["max_v"] == 4.0
    assert by["x"]["sum_cents"] == 700
    assert by["y"]["n_null"] == 2
    assert by["y"]["min_v"] == -2.25 and by["y"]["max_v"] == 10.5
    # floor(-2.25·100 + 0.5) = -225 + 0.5 → floor(-224.5) = -225
    assert by["y"]["sum_cents"] == 1050 + (-225)


def test_sort_bounds_equidepth(ray_session):
    import ray.data

    from smartreader_ray.functions.reshape import sort_bounds

    n = 4000
    t = pa.table({
        "rid": pa.array(np.arange(n), type=pa.int64()),
        "v": pa.array(np.arange(n, dtype=np.float64)),
    })
    out = sort_bounds(ray.data.from_arrow(t).repartition(4), "v", "rid",
                      num_shards=4, sample_prob=0.5).take_all()
    assert [r["q"] for r in out] == [0.25, 0.5, 0.75]
    # a uniform ramp sampled at 50% must give near-equidepth bounds
    b = [r["bound"] for r in out]
    assert b[0] < b[1] < b[2]
    for got, want in zip(b, (n * 0.25, n * 0.5, n * 0.75)):
        assert abs(got - want) < n * 0.05


def test_latest_by_picks_newest_with_id_tiebreak(ray_session):
    import ray.data

    from smartreader_ray.functions.reshape import latest_by

    def ts(h):
        return datetime.datetime(2024, 1, 1, h)

    t = pa.table({
        "k": ["a", "a", "a", "b", "b", None, None],
        "ts": pa.array([ts(1), ts(5), ts(5), ts(2), ts(1), ts(3), ts(3)],
                       type=pa.timestamp("us")),
        "id": pa.array([1, 2, 3, 4, 5, 6, 7], type=pa.int64()),
        "v": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
    })
    for ds in (ray.data.from_arrow(t), ray.data.from_arrow(t).repartition(3)):
        out = latest_by(ds, ["k"], "ts", "id", ["v"]).take_all()
        by = {r["k"]: r for r in out}
        assert len(out) == 3
        # key a: two rows tie at ts(5) → larger id (3) wins
        assert by["a"]["id"] == 3 and by["a"]["v"] == 3.0
        assert by["b"]["id"] == 4 and by["b"]["v"] == 4.0
        # the null key is one group
        assert by[None]["id"] == 7 and by[None]["v"] == 7.0


def test_latest_by_partitioning_invariant(ray_session):
    import ray.data

    from smartreader_ray.functions.reshape import latest_by

    rng = np.random.default_rng(2)
    n = 500
    t = pa.table({
        "k": [f"k{i % 20}" for i in range(n)],
        "ts": pa.array(
            [datetime.datetime(2024, 1, 1)
             + datetime.timedelta(seconds=int(s))
             for s in rng.integers(0, 3600, n)],
            type=pa.timestamp("us")),
        "id": pa.array(np.arange(n), type=pa.int64()),
        "v": pa.array(rng.normal(size=n)),
    })
    a = latest_by(ray.data.from_arrow(t).repartition(2),
                  ["k"], "ts", "id", ["v"]).take_all()
    b = latest_by(ray.data.from_arrow(t).repartition(11),
                  ["k"], "ts", "id", ["v"]).take_all()
    # the output is unordered (one row per key): compare in key order
    assert len(a) == 20
    assert sorted(a, key=lambda r: r["k"]) == sorted(b, key=lambda r: r["k"])


class TestIdGaps:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("bucket", [4, 1 << 20])
    def test_matches_duckdb_islands(self, ray_session, seed, bucket):
        """Random sparse id sets (with duplicates) vs the lead() islands
        query — tiny bucket forces cross-bucket stitching, huge bucket
        the single-bucket path."""
        import duckdb
        import numpy as np
        import pyarrow as pa
        import ray.data

        from smartreader_ray.functions.reshape import id_gaps

        rng = np.random.RandomState(seed)
        ids = rng.choice(200, size=60, replace=True).astype(np.int64)
        t = pa.table({"id": pa.array(ids, type=pa.int64())})
        out = id_gaps(ray.data.from_arrow(t).repartition(4), "id",
                      bucket=bucket).take_all()
        got = sorted((r["gap_start"], r["gap_end"], r["n_missing"])
                     for r in out)
        con = duckdb.connect()
        con.register("t", t)
        exp = con.sql("""
            WITH ids AS (SELECT DISTINCT id FROM t),
            nxt AS (SELECT id, lead(id) OVER (ORDER BY id) AS nid
                    FROM ids)
            SELECT id + 1, nid - 1, nid - 1 - id
            FROM nxt WHERE nid > id + 1 ORDER BY 1
        """).fetchall()
        assert got == [tuple(r) for r in exp], (seed, bucket)

    def test_dense_and_empty(self, ray_session):
        import pyarrow as pa
        import ray.data

        from smartreader_ray.functions.reshape import id_gaps

        dense = pa.table({"id": pa.array(range(10), type=pa.int64())})
        assert id_gaps(ray.data.from_arrow(dense), "id").take_all() == []
        empty = pa.table({"id": pa.array([], type=pa.int64())})
        assert id_gaps(ray.data.from_arrow(empty), "id").take_all() == []


class TestFDHistogram:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_duckdb_same_tree(self, ray_session, seed):
        import duckdb
        import numpy as np
        import pyarrow as pa
        import ray.data

        from smartreader_ray.functions.reshape import fd_histogram

        rng = np.random.RandomState(seed)
        vals = np.round(rng.gamma(2.0, 10.0, size=400), 2)
        t = pa.table({"value": pa.array(vals, type=pa.float64())})
        out = fd_histogram(ray.data.from_arrow(t).repartition(4),
                           "value").take_all()
        got = [(r["bin"], r["bin_lo"], r["n"]) for r in out]
        con = duckdb.connect()
        con.register("t", t)
        exp = con.sql("""
            WITH s AS (
                SELECT CAST(count(*) AS BIGINT) AS n,
                       min(value) AS lo, max(value) AS hiv,
                       percentile_disc(0.25) WITHIN GROUP
                           (ORDER BY value) AS q25,
                       percentile_disc(0.75) WITHIN GROUP
                           (ORDER BY value) AS q75
                FROM t
            ), p AS (SELECT n, lo, hiv,
                       2.0*(q75-q25)/power(CAST(n AS DOUBLE), 1.0/3.0)
                           AS h FROM s),
            q AS (SELECT lo, CAST(CEIL((hiv-lo)/h) AS BIGINT) AS nbins,
                         h FROM p),
            e AS (SELECT lo, nbins,
                         (lo + CAST(nbins AS DOUBLE)*h - lo)
                             / CAST(nbins AS DOUBLE) AS w FROM q),
            a AS (SELECT least(greatest(CAST(FLOOR(
                             (v.value - e.lo)/e.w) AS BIGINT), 0),
                             e.nbins-1) AS bin, e.lo AS lo, e.w AS w
                  FROM t v CROSS JOIN e)
            SELECT bin, lo + CAST(bin AS DOUBLE)*w, CAST(count(*)
                   AS BIGINT)
            FROM a GROUP BY bin, lo, w ORDER BY bin
        """).fetchall()
        assert got == [tuple(r) for r in exp], seed

    def test_degenerate_spread_single_bin(self, ray_session):
        import pyarrow as pa
        import ray.data

        from smartreader_ray.functions.reshape import fd_histogram

        t = pa.table({"value": pa.array([5.0] * 20, type=pa.float64())})
        out = fd_histogram(ray.data.from_arrow(t), "value").take_all()
        assert len(out) == 1 and out[0]["n"] == 20 and out[0]["bin"] == 0

    def test_driver_guard_raises(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import pytest
        import ray.data

        from smartreader_ray.functions.reshape import fd_histogram

        t = pa.table({"value": pa.array(
            np.arange(100, dtype=np.float64))})
        with pytest.raises(ValueError, match="driver guard"):
            fd_histogram(ray.data.from_arrow(t), "value",
                         max_driver_values=10)
