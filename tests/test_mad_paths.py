"""mad_outliers (robust stats) and user_day_paths (journey mining)."""

import datetime

import numpy as np
import pytest
import pyarrow as pa


def test_mad_outliers_flags_only_the_spike(ray_session):
    import ray.data

    from smartreader_ray.functions.standardize import mad_outliers

    # key 'a': med of {9,10,11,12,1000} = 11 (percentile_disc),
    # deviations {2,1,0,1,989} → mad = 1; only 989 > 3·1 → 1 outlier
    t = pa.table({
        "k": ["a"] * 5 + ["b"] * 3,
        "v": [10.0, 9.0, 11.0, 12.0, 1000.0, 5.0, 5.0, 5.0],
    })
    out = mad_outliers(ray.data.from_arrow(t).repartition(3),
                       "k", "v").take_all()
    by = {r["k"]: r for r in out}
    assert by["a"]["med"] == 11.0 and by["a"]["mad"] == 1.0
    assert by["a"]["n_outliers"] == 1 and by["a"]["n"] == 5
    # constant key: mad = 0, nothing strictly exceeds 0
    assert by["b"]["mad"] == 0.0 and by["b"]["n_outliers"] == 0


def test_mad_outliers_partitioning_invariant(ray_session):
    import ray.data

    from smartreader_ray.functions.standardize import mad_outliers

    rng = np.random.default_rng(4)
    t = pa.table({
        "k": [f"k{i % 4}" for i in range(200)],
        "v": rng.normal(50, 10, 200),
    })
    a = mad_outliers(ray.data.from_arrow(t).repartition(2),
                     "k", "v").take_all()
    b = mad_outliers(ray.data.from_arrow(t).repartition(9),
                     "k", "v").take_all()
    assert a == b


def test_user_day_paths_orders_and_counts(ray_session):
    import ray.data

    from smartreader_ray.functions.windows import user_day_paths

    def ts(day, hour):
        return datetime.datetime(2024, 1, day, hour)

    # user 1 day 1: view>click ; user 2 day 1: view>click ;
    # user 1 day 2: purchase   — ties impossible (ids unique)
    t = pa.table({
        "user_id": pa.array([1, 1, 2, 2, 1], type=pa.int64()),
        "ts": pa.array([ts(1, 2), ts(1, 3), ts(1, 1), ts(1, 9), ts(2, 1)],
                       type=pa.timestamp("us")),
        "event_id": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
        "event_type": ["view", "click", "view", "click", "purchase"],
    })
    out = user_day_paths(ray.data.from_arrow(t).repartition(2),
                         top_n=5).take_all()
    assert out[0] == {"path": "view>click", "n_user_days": 2}
    assert {"path": "purchase", "n_user_days": 1} in out


class TestMatchPattern:
    """MATCH_RECOGNIZE-lite: randomized differential vs a pure-Python
    per-key replay AND DuckDB's regexp_extract_all."""

    SYM = {"view": "v", "click": "c", "purchase": "p",
           "signup": "s", "error": "e"}

    def _mk(self, seed, n_users=6, n_events=120):
        import numpy as np
        import pyarrow as pa

        rng = np.random.RandomState(seed)
        steps = list(self.SYM)
        return pa.table({
            "user_id": pa.array(rng.randint(0, n_users, size=n_events),
                                type=pa.int64()),
            "ts": pa.array(
                rng.permutation(n_events).astype("datetime64[us]")),
            "event_id": pa.array(np.arange(n_events), type=pa.int64()),
            "event_type": [steps[i] for i in
                           rng.randint(0, len(steps), size=n_events)],
        })

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("pattern", ["vc+p", "s(v|c)*p", "e{2,}"])
    def test_matches_python_and_duckdb(self, ray_session, seed, pattern):
        import re

        import duckdb
        import ray.data

        from smartreader_ray.functions.windows import match_pattern

        t = self._mk(seed)
        got = {
            r["user_id"]: r["n_matches"]
            for r in match_pattern(
                ray.data.from_arrow(t), pattern, self.SYM).take_all()
        }
        # pure-Python replay
        rows = sorted(zip(t.column("ts").to_pylist(),
                          t.column("event_id").to_pylist(),
                          t.column("user_id").to_pylist(),
                          t.column("event_type").to_pylist()))
        seqs = {}
        for ts, eid, u, s in rows:
            seqs[u] = seqs.get(u, "") + self.SYM[s]
        exp = {u: len(re.findall(pattern, s)) for u, s in seqs.items()}
        exp = {u: n for u, n in exp.items() if n >= 1}
        assert got == exp, (seed, pattern)
        # RE2 parity (the oracle's engine)
        con = duckdb.connect()
        con.register("t", t)
        sql_pat = pattern.replace("{", "{").replace("}", "}")
        dd = dict(con.sql(f"""
            WITH s AS (
                SELECT user_id, string_agg(CASE event_type
                    WHEN 'view' THEN 'v' WHEN 'click' THEN 'c'
                    WHEN 'purchase' THEN 'p' WHEN 'signup' THEN 's'
                    ELSE 'e' END, '' ORDER BY ts, event_id) AS seq
                FROM t GROUP BY user_id)
            SELECT user_id, len(regexp_extract_all(seq, '{sql_pat}'))
            FROM s WHERE len(regexp_extract_all(seq, '{sql_pat}')) >= 1
        """).fetchall())
        assert got == dd, (seed, pattern)

    def test_unmapped_step_raises(self, ray_session):
        import pyarrow as pa
        import ray.data

        from smartreader_ray.functions.windows import match_pattern

        t = pa.table({
            "user_id": pa.array([1], type=pa.int64()),
            "ts": pa.array([0], type=pa.timestamp("us")),
            "event_id": pa.array([1], type=pa.int64()),
            "event_type": ["mystery"],
        })
        with pytest.raises(Exception, match="unmapped step"):
            match_pattern(ray.data.from_arrow(t), "v",
                          {"view": "v"}).take_all()

    def test_multichar_symbol_raises(self, ray_session):
        import ray.data

        from smartreader_ray.functions.windows import match_pattern

        with pytest.raises(ValueError, match="single chars"):
            match_pattern(ray.data.from_arrow(self._mk(0)), "v",
                          {"view": "vw"})


class TestPercentRank:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("budget", [2_000_000, 0])
    def test_matches_duckdb_window(self, ray_session, size_budget, seed,
                                   budget):
        """The rank map broadcast (a 2 MB size budget) or joined back
        (0 bytes)."""
        import duckdb
        import ray.data

        from smartreader_ray.functions.windows import percent_rank_by

        rng = np.random.RandomState(seed)
        n = 80
        t = pa.table({
            "rid": pa.array(range(n), type=pa.int64()),
            "k": [f"k{rng.randint(0, 3)}" for _ in range(n)],
            # heavy ties: few distinct values
            "v": pa.array(rng.randint(0, 6, size=n).astype(float)),
        })
        ds = ray.data.from_arrow(t).repartition(4)
        size_budget(budget)
        out = percent_rank_by(ds, "k", "v").take_all()
        got = {r["rid"]: r["pr"] for r in out}
        con = duckdb.connect()
        con.register("t", t)
        exp = dict(con.sql("""
            SELECT rid, round(PERCENT_RANK() OVER (
                PARTITION BY k ORDER BY v), 6) FROM t
        """).fetchall())
        assert got == exp, (seed, budget)

    def test_single_row_key_is_zero(self, ray_session):
        import ray.data

        from smartreader_ray.functions.windows import percent_rank_by

        t = pa.table({"rid": pa.array([0], type=pa.int64()),
                      "k": ["solo"], "v": [42.0]})
        out = percent_rank_by(ray.data.from_arrow(t), "k", "v").take_all()
        assert out[0]["pr"] == 0.0


class TestDebounce:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_duckdb_lag(self, ray_session, seed):
        import duckdb
        import ray.data

        from smartreader_ray.functions.windows import debounce

        rng = np.random.RandomState(seed)
        n = 120
        t = pa.table({
            "event_id": pa.array(range(n), type=pa.int64()),
            "user_id": pa.array(rng.randint(0, 4, size=n),
                                type=pa.int64()),
            "event_type": [["a", "b"][i] for i in
                           rng.randint(0, 2, size=n)],
            # coarse seconds so gaps straddle the 10 s window often
            "ts": pa.array((rng.randint(0, 300, size=n) * 1_000_000)
                           .astype("datetime64[us]")),
        })
        out = debounce(ray.data.from_arrow(t).repartition(3),
                       window_s=10.0).take_all()
        got = sorted(r["event_id"] for r in out)
        con = duckdb.connect()
        con.register("t", t)
        exp = sorted(r[0] for r in con.sql("""
            WITH l AS (
                SELECT event_id,
                       epoch_us(ts) - epoch_us(lag(ts) OVER (
                           PARTITION BY user_id, event_type
                           ORDER BY ts, event_id)) AS dt
                FROM t)
            SELECT event_id FROM l
            WHERE dt IS NULL OR dt > 10000000
        """).fetchall())
        assert got == exp, seed
