"""Differential tests for the distributed global-ranking primitive and
its NTILE / Gini consumers (`functions/reshape.py`)."""

import numpy as np
import pyarrow as pa
import pytest


class TestGlobalRank:
    @pytest.mark.parametrize("blocks", [3, 16])
    def test_rank_is_argsort_position(self, ray_session, blocks):
        import ray.data

        from smartreader_ray.functions.reshape import global_rank

        rng = np.random.default_rng(5)
        v = rng.permutation(2000).astype(np.int64)
        ds = ray.data.from_arrow(pa.table({"__ck": v})).repartition(blocks)
        got = {r["__ck"]: r["rn"]
               for r in global_rank(ds, "__ck").take_all()}
        for key, rn in got.items():
            assert rn == key + 1  # values are a permutation of 0..n-1
        assert len(got) == 2000

    def test_empty(self, ray_session):
        import ray.data

        from smartreader_ray.functions.reshape import global_rank

        ds = ray.data.from_arrow(
            pa.table({"__ck": pa.array([], type=pa.int64())}))
        assert global_rank(ds, "__ck").count() == 0


class TestNtile:
    def test_matches_duckdb_semantics(self, ray_session):
        import duckdb
        import ray.data

        from smartreader_ray.functions.reshape import ntile_summary

        rng = np.random.default_rng(13)
        n = 1003  # deliberately not divisible by k
        t = pa.table({
            "event_id": pa.array(np.arange(n), type=pa.int64()),
            # heavy ties: only ~40 distinct cent values
            "value": pa.array(np.round(rng.integers(0, 40, n) / 4.0, 2)),
        })
        got = ntile_summary(
            ray.data.from_arrow(t).repartition(7), "value", "event_id",
            k=8)
        want = duckdb.sql("""
            WITH c AS (SELECT event_id,
                       CAST(FLOOR(CAST(value AS DOUBLE)*100+0.5) AS BIGINT)
                           AS cents FROM t),
            b AS (SELECT cents,
                  ntile(8) OVER (ORDER BY cents, event_id) AS bucket FROM c)
            SELECT CAST(bucket AS BIGINT) bucket,
                   CAST(count(*) AS BIGINT) n_rows,
                   CAST(min(cents) AS BIGINT) min_cents,
                   CAST(max(cents) AS BIGINT) max_cents,
                   CAST(sum(cents) AS BIGINT) sum_cents
            FROM b GROUP BY bucket ORDER BY bucket
        """).arrow()
        assert got.to_pandas().equals(want.to_pandas())

    def test_id_overflow_guard(self, ray_session):
        import ray.data

        from smartreader_ray.functions.reshape import ntile_summary

        t = pa.table({
            "event_id": pa.array([2**31], type=pa.int64()),
            "value": pa.array([1.0]),
        })
        with pytest.raises(Exception, match="2\\^31"):
            ntile_summary(ray.data.from_arrow(t), "value", "event_id", k=2)


class TestKeyGini:
    def test_matches_bruteforce(self, ray_session):
        import ray.data

        from smartreader_ray.functions.reshape import key_gini

        rng = np.random.default_rng(21)
        # skewed keys: key 0 is hot
        keys = np.concatenate([
            np.zeros(500, dtype=np.int64),
            rng.integers(1, 60, size=800).astype(np.int64)])
        ds = ray.data.from_arrow(pa.table({"k": keys})).repartition(6)
        got = key_gini(ds, "k").to_pylist()[0]

        import collections
        cnt = collections.Counter(keys.tolist())
        ranked = sorted(cnt.items(), key=lambda kv: (kv[1], kv[0]))
        n = len(ranked)
        tot = sum(c for _, c in ranked)
        s1 = sum((i + 1) * c for i, (_, c) in enumerate(ranked))
        gini = float(2 * s1 - (n + 1) * tot) / float(n * tot)
        assert got["n_keys"] == n
        assert got["total_rows"] == tot
        assert got["max_count"] == cnt[0] == 500
        assert got["rank_weighted_sum"] == s1
        assert got["gini"] == gini

    def test_uniform_keys_low_gini(self, ray_session):
        import ray.data

        from smartreader_ray.functions.reshape import key_gini

        keys = np.repeat(np.arange(50, dtype=np.int64), 10)
        ds = ray.data.from_arrow(pa.table({"k": keys}))
        got = key_gini(ds, "k").to_pylist()[0]
        assert got["gini"] == 0.0  # perfectly even counts


class TestPrefixSumCarry:
    def test_cum_matches_sorted_cumsum(self, ray_session):
        import ray.data

        from smartreader_ray.functions.reshape import global_rank

        rng = np.random.default_rng(8)
        ck = rng.permutation(1500).astype(np.int64)
        vals = rng.integers(1, 100, size=1500).astype(np.int64)
        t = pa.table({"__ck": ck, "cents": vals})
        got = global_rank(ray.data.from_arrow(t).repartition(8), "__ck",
                          sum_col="cents").take_all()
        by_ck = {r["__ck"]: r for r in got}
        order = np.argsort(ck)
        cum = np.cumsum(vals[order])
        for pos, i in enumerate(order):
            assert by_ck[ck[i]]["rn"] == pos + 1
            assert by_ck[ck[i]]["cum"] == cum[pos]


class TestAbcAnalysis:
    def test_matches_bruteforce(self, ray_session):
        import ray.data

        from smartreader_ray.functions.reshape import abc_analysis

        rng = np.random.default_rng(17)
        n = 900
        t = pa.table({
            "id": pa.array(np.arange(n), type=pa.int64()),
            # heavy ties + a few whales
            "price": pa.array(np.where(np.arange(n) % 97 == 0, 5000.0,
                                       rng.integers(1, 50, n) * 1.0)),
        })
        got = {r["cls"]: (r["n_rows"], r["sum_cents"])
               for r in abc_analysis(
                   ray.data.from_arrow(t).repartition(5), "price", "id"
               ).take_all()}

        cents = np.floor(t.column("price").to_numpy() * 100 + 0.5).astype(
            np.int64)
        ids = t.column("id").to_numpy()
        order = np.lexsort((ids, -cents))
        cum = np.cumsum(cents[order])
        total = int(cents.sum())
        want = {}
        for c, cm in zip(cents[order], cum):
            cls = ("A" if cm * 1000 <= 700 * total
                   else "B" if cm * 1000 <= 900 * total else "C")
            nr, sc = want.get(cls, (0, 0))
            want[cls] = (nr + 1, sc + int(c))
        assert got == want
        assert set(got) == {"A", "B", "C"}
        # whales concentrate value: A must be far fewer rows than C
        assert got["A"][0] < got["C"][0]

    def test_bad_permille(self, ray_session):
        import ray.data

        from smartreader_ray.functions.reshape import abc_analysis

        t = pa.table({"id": pa.array([1], type=pa.int64()),
                      "price": pa.array([1.0])})
        with pytest.raises(ValueError):
            abc_analysis(ray.data.from_arrow(t), "price", "id",
                         permille=(900, 700))


class TestBalancedShards:
    def test_contiguous_and_balanced(self, ray_session):
        import ray.data

        from smartreader_ray.functions.reshape import balanced_shards_plan

        rng = np.random.default_rng(31)
        n, k = 1200, 8
        ids = np.arange(n, dtype=np.int64)
        w = rng.integers(1, 500, size=n).astype(np.int64)
        t = pa.table({"doc_id": ids, "n_chars": w})
        plan = balanced_shards_plan(
            ray.data.from_arrow(t).repartition(7), "doc_id", "n_chars",
            k=k).to_pandas()

        # brute force
        pfx = np.cumsum(w) - w
        total = int(w.sum())
        shard = pfx * k // total
        import pandas as pd
        want = (pd.DataFrame({"shard": shard, "w": w, "id": ids})
                .groupby("shard")
                .agg(n_rows=("w", "size"), sum_weight=("w", "sum"),
                     min_id=("id", "min"), max_id=("id", "max"))
                .reset_index())
        got = plan.astype("int64")
        assert got.values.tolist() == want.astype("int64").values.tolist()
        # contiguity: shard i+1 starts right after shard i ends
        for a, b in zip(got.itertuples(), got.iloc[1:].itertuples()):
            assert b.min_id == a.max_id + 1
        # balance: every shard within 2x of ideal weight
        ideal = total / k
        assert (got["sum_weight"] < 2 * ideal).all()

    def test_zero_total_empty_plan(self, ray_session):
        import ray.data

        from smartreader_ray.functions.reshape import balanced_shards_plan

        t = pa.table({"doc_id": pa.array([], type=pa.int64()),
                      "n_chars": pa.array([], type=pa.int64())})
        assert balanced_shards_plan(
            ray.data.from_arrow(t), "doc_id", "n_chars").num_rows == 0
