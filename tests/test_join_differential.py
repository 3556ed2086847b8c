"""Randomized differential test: every hash_join mode vs DuckDB on the
same tables — seeds fixed, duplicates/nulls/empty-side cases included."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest

from smartreader_ray.functions.join import hash_join

MODES = ["inner", "left", "right", "full_outer", "left_anti"]
SQL = {
    "inner": "SELECT k, lv, rk, rv FROM l JOIN r ON k = rk",
    "left": "SELECT k, lv, rk, rv FROM l LEFT JOIN r ON k = rk",
    "right": "SELECT k, lv, rk, rv FROM l RIGHT JOIN r ON k = rk",
    "full_outer": "SELECT k, lv, rk, rv FROM l FULL JOIN r ON k = rk",
    "left_anti": "SELECT k, lv FROM l ANTI JOIN r ON k = rk",
}


def _rand_table(rng, n, key_name, val_name, null_frac=0.15, key_lo=0,
                key_hi=6):
    keys = rng.randint(key_lo, key_hi, size=n).astype(object)
    for i in range(n):
        if rng.rand() < null_frac:
            keys[i] = None
    vals = [f"{val_name}{i}" for i in range(n)]
    return pa.table(
        {key_name: pa.array(list(keys), type=pa.int64()), val_name: vals}
    )


def _norm(rows):
    return sorted(
        (tuple("<N>" if v is None else v for v in r) for r in rows), key=str
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("salt", [1, 3])
def test_hash_join_matches_duckdb(ray_session, seed, salt):
    import ray.data

    rng = np.random.RandomState(seed)
    # empty sides on seed 3 to cover the degenerate shapes
    n_l = 0 if seed == 3 else rng.randint(1, 25)
    n_r = rng.randint(0, 25)
    left = _rand_table(rng, n_l, "k", "lv")
    right = _rand_table(rng, n_r, "rk", "rv")
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    lds = ray.data.from_arrow(left) if n_l else ray.data.from_arrow(
        left.schema.empty_table())
    rds = ray.data.from_arrow(right) if n_r else ray.data.from_arrow(
        right.schema.empty_table())

    for how in MODES:
        if salt > 1 and how not in ("inner", "left"):
            continue
        out = hash_join(
            lds, rds, left_key="k", right_key="rk",
            left_cols=["k", "lv"], right_cols=["rk", "rv"], how=how,
            salt=salt,
        ).take_all()
        cols = ["k", "lv"] if how == "left_anti" else ["k", "lv", "rk", "rv"]
        got = _norm(tuple(r.get(c) for c in cols) for r in out)
        exp = _norm(con.sql(SQL[how]).fetchall())
        assert got == exp, (how, seed, salt)


EXCEPT_SQL = """
    SELECT CAST(min(doc_id) AS BIGINT) AS doc_id FROM l
    WHERE text NOT IN (SELECT text FROM r) GROUP BY text
"""
INTERSECT_SQL = """
    SELECT CAST(min(doc_id) AS BIGINT) AS doc_id FROM l
    WHERE text IN (SELECT text FROM r) GROUP BY text
"""


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_setops_match_duckdb(ray_session, seed):
    import ray.data

    from smartreader_ray.functions.setops import (
        except_by_content,
        intersect_by_content,
    )

    rng = np.random.RandomState(seed)
    vocab = [f"w{i}" for i in range(8)]
    def mk(n, start):
        texts = [" ".join(rng.choice(vocab, size=3)) for _ in range(n)]
        return pa.table(
            {
                "doc_id": pa.array(range(start, start + n), type=pa.int64()),
                "text": texts,
            }
        )

    left = mk(rng.randint(1, 30), 100)
    right = mk(rng.randint(0, 20), 0)
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    lds = ray.data.from_arrow(left)
    rds = (ray.data.from_arrow(right) if right.num_rows
           else ray.data.from_arrow(right.schema.empty_table()))

    got_ex = sorted(r["doc_id"] for r in except_by_content(lds, rds).take_all())
    exp_ex = sorted(r[0] for r in con.sql(EXCEPT_SQL).fetchall())
    assert got_ex == exp_ex, seed

    got_in = sorted(
        r["doc_id"] for r in intersect_by_content(lds, rds).take_all()
    )
    exp_in = sorted(r[0] for r in con.sql(INTERSECT_SQL).fetchall())
    assert got_in == exp_in, seed


@pytest.mark.parametrize("seed", [20, 21])
def test_zscore_corr_bit_equal_vs_duckdb(ray_session, seed):
    """The exact-moment operators must match DuckDB bit-for-bit on
    arbitrary integer data when SQL spells the same expression tree."""
    import ray.data

    from smartreader_ray.functions.standardize import corr_by, zscore_by

    rng = np.random.RandomState(seed)
    n = rng.randint(5, 60)
    t = pa.table(
        {
            "doc_id": pa.array(range(n), type=pa.int64()),
            "lang": [f"l{rng.randint(0, 3)}" for _ in range(n)],
            "x": pa.array(rng.randint(0, 5000, size=n), type=pa.int64()),
            "y": pa.array(rng.randint(0, 900, size=n), type=pa.int64()),
        }
    )
    con = duckdb.connect()
    con.register("t", t)
    ds = ray.data.from_arrow(t).repartition(3)

    got_z = {
        r["doc_id"]: r["z"]
        for r in zscore_by(ds, "lang", "x").take_all()
    }
    exp_z = dict(con.sql("""
        WITH agg AS (SELECT lang, CAST(count(*) AS BIGINT) n,
                            CAST(sum(x) AS BIGINT) s,
                            CAST(sum(x*x) AS BIGINT) ss
                     FROM t GROUP BY lang)
        SELECT doc_id,
               CASE WHEN (ss/CAST(n AS DOUBLE)
                          - (s/CAST(n AS DOUBLE))*(s/CAST(n AS DOUBLE))) > 0
                    THEN round((x - s/CAST(n AS DOUBLE))
                         / sqrt(ss/CAST(n AS DOUBLE)
                                - (s/CAST(n AS DOUBLE))*(s/CAST(n AS DOUBLE))), 6)
                    ELSE NULL END
        FROM t JOIN agg USING (lang)
    """).fetchall())
    assert got_z == exp_z, seed

    got_c = {
        r["lang"]: r["corr"] for r in corr_by(ds, "lang", "x", "y").take_all()
    }
    exp_c = dict(con.sql("""
        WITH m AS (SELECT lang, CAST(count(*) AS BIGINT) n,
                          CAST(sum(x) AS BIGINT) sx, CAST(sum(y) AS BIGINT) sy,
                          CAST(sum(x*x) AS BIGINT) sxx,
                          CAST(sum(y*y) AS BIGINT) syy,
                          CAST(sum(x*y) AS BIGINT) sxy
                   FROM t GROUP BY lang)
        SELECT lang,
               CASE WHEN (CAST(n*sxx AS DOUBLE) - CAST(sx*sx AS DOUBLE)) > 0
                     AND (CAST(n*syy AS DOUBLE) - CAST(sy*sy AS DOUBLE)) > 0
                    THEN round((CAST(n*sxy AS DOUBLE) - CAST(sx*sy AS DOUBLE))
                         / (sqrt(CAST(n*sxx AS DOUBLE) - CAST(sx*sx AS DOUBLE))
                            * sqrt(CAST(n*syy AS DOUBLE) - CAST(sy*sy AS DOUBLE))), 6)
                    ELSE NULL END
        FROM m
    """).fetchall())
    assert got_c == exp_c, seed


ANTI_SQL = """
    SELECT k, lv FROM l
    WHERE NOT EXISTS (SELECT 1 FROM r WHERE r.rk = l.k)
"""


@pytest.mark.parametrize("seed", [30, 31, 32, 33])
@pytest.mark.parametrize("budget", [2_000_000, 1])
def test_anti_join_matches_duckdb(ray_session, size_budget, seed, budget):
    """anti_join (both regimes: a size budget of 2 MB and of 1 byte) vs
    DuckDB NOT EXISTS — nulls kept, duplicates preserved, empty sides
    covered."""
    import ray.data

    from smartreader_ray.functions.join import anti_join

    rng = np.random.RandomState(seed)
    n_l = 0 if seed == 33 else rng.randint(1, 30)
    n_r = rng.randint(0, 25)
    left = _rand_table(rng, n_l, "k", "lv")
    right = _rand_table(rng, n_r, "rk", "rv")
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    lds = ray.data.from_arrow(left) if n_l else ray.data.from_arrow(
        left.schema.empty_table())
    rds = ray.data.from_arrow(right) if n_r else ray.data.from_arrow(
        right.schema.empty_table())

    size_budget(budget)
    out = anti_join(lds, rds, "k", "rk").take_all()
    got = _norm(tuple(r.get(c) for c in ("k", "lv")) for r in out)
    exp = _norm(con.sql(ANTI_SQL).fetchall())
    assert got == exp, (seed, budget)


SEMI_SQL = """
    SELECT k, lv FROM l
    WHERE EXISTS (SELECT 1 FROM r WHERE r.rk = l.k)
"""


@pytest.mark.parametrize("seed", [40, 41, 42])
@pytest.mark.parametrize("budget", [2_000_000, 1])
def test_semi_join_nullable_keys(ray_session, size_budget, seed, budget):
    """semi_join on columns WITH nulls, at a size budget of 2 MB and of
    1 byte (regression: an int64 batch with
    a null key used to hash as float bits in the bloom prefilter,
    dropping true members; and a null right key in the broadcast set
    used to match null left keys unlike SQL EXISTS)."""
    import ray.data

    from smartreader_ray.functions.join import semi_join

    rng = np.random.RandomState(seed)
    left = _rand_table(rng, rng.randint(1, 30), "k", "lv", null_frac=0.3)
    right = _rand_table(rng, rng.randint(1, 25), "rk", "rv", null_frac=0.3)
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    lds = ray.data.from_arrow(left)
    rds = ray.data.from_arrow(right)

    size_budget(budget)
    out = semi_join(lds, rds, "k", "rk").take_all()
    got = _norm(tuple(r.get(c) for c in ("k", "lv")) for r in out)
    exp = _norm(con.sql(SEMI_SQL).fetchall())
    assert got == exp, (seed, budget)


class TestSCD2Apply:
    def _hist(self, rows):
        import pyarrow as pa

        return pa.table({
            "id": pa.array([r[0] for r in rows], type=pa.int64()),
            "attr": pa.array([r[1] for r in rows], type=pa.string()),
            "valid_from": pa.array([r[2] for r in rows],
                                   type=pa.int64()),
            "valid_to": pa.array([r[3] for r in rows], type=pa.int64()),
        })

    def _snap(self, d):
        import pyarrow as pa

        return pa.table({
            "id": pa.array(list(d), type=pa.int64()),
            "attr": pa.array([d[k] for k in d], type=pa.string()),
        })

    def test_three_snapshot_lifecycle(self, ray_session):
        import ray.data

        from smartreader_ray.functions.join import scd2_apply

        empty = ray.data.from_arrow(self._hist([]))
        h = scd2_apply(empty, ray.data.from_arrow(
            self._snap({1: "a", 2: "b", 3: "c"})), "id", ["attr"], ts=1)
        # t=2: 1 unchanged, 2 changed, 3 removed, 4 new
        h = scd2_apply(h, ray.data.from_arrow(
            self._snap({1: "a", 2: "B", 4: "d"})), "id", ["attr"], ts=2)
        # t=3: 2 changes back, 4 removed
        h = scd2_apply(h, ray.data.from_arrow(
            self._snap({1: "a", 2: "b"})), "id", ["attr"], ts=3)
        got = sorted((r["id"], r["attr"], r["valid_from"], r["valid_to"])
                     for r in h.take_all())
        assert got == [
            (1, "a", 1, None),
            (2, "B", 2, 3), (2, "b", 1, 2), (2, "b", 3, None),
            (3, "c", 1, 2),
            (4, "d", 2, 3),
        ]

    def test_null_attr_raises(self, ray_session):
        import pyarrow as pa
        import ray.data

        from smartreader_ray.functions.join import scd2_apply

        empty = ray.data.from_arrow(self._hist([]))
        snap = pa.table({
            "id": pa.array([1], type=pa.int64()),
            "attr": pa.array([None], type=pa.string()),
        })
        with pytest.raises(Exception, match="contains nulls"):
            scd2_apply(empty, ray.data.from_arrow(snap), "id",
                       ["attr"], ts=1).take_all()


def test_join_cardinality_matches_naive(ray_session):
    """Profiler outputs equal a naive pandas computation, including
    null drops, key-overlap classes and the exact inner-join size."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from smartreader_ray.functions.join import join_cardinality

    rng = np.random.default_rng(11)
    lk = rng.integers(0, 40, 500).astype(float)
    lk[::17] = np.nan
    rk = rng.integers(20, 60, 300).astype(float)
    rk[::23] = np.nan
    left = pa.table({"a": pa.array(
        np.nan_to_num(lk).astype(np.int64), mask=np.isnan(lk))})
    right = pa.table({"b": pa.array(
        np.nan_to_num(rk).astype(np.int64), mask=np.isnan(rk))})
    out = join_cardinality(
        ray.data.from_arrow(left).repartition(4),
        ray.data.from_arrow(right).repartition(3), "a", "b").to_pandas()

    la = pd.Series(lk).dropna().astype(int)
    rb = pd.Series(rk).dropna().astype(int)
    cl, cr = la.value_counts(), rb.value_counts()
    keys = cl.index.union(cr.index)
    c1 = cl.reindex(keys, fill_value=0)
    c2 = cr.reindex(keys, fill_value=0)
    row = out.iloc[0]
    assert row["n_left"] == len(la) and row["n_right"] == len(rb)
    assert row["n_null_both"] == (np.isnan(lk).sum() + np.isnan(rk).sum())
    assert row["n_keys_left"] == cl.size and row["n_keys_right"] == cr.size
    assert row["n_keys_both"] == ((c1 > 0) & (c2 > 0)).sum()
    assert row["est_inner_rows"] == int((c1 * c2).sum())
    assert row["max_fanout"] == int((c1 * c2).max())
    assert row["n_keys_left_only"] == ((c1 > 0) & (c2 == 0)).sum()
    assert row["n_keys_right_only"] == ((c2 > 0) & (c1 == 0)).sum()


def test_join_side_with_exchange_runs_once(tmp_path, ray_session):
    """The schema probe of a join side whose plan has an exchange reads
    the same run as the join: the side's map UDF runs once per input
    block, not once for the probe and again for the join. A map-only
    side is not materialized: it streams into the join."""
    import uuid

    import ray.data

    from smartreader_ray.functions.join import _with_schema

    calls = tmp_path / "calls"
    calls.mkdir()

    def tag(b: pa.Table) -> pa.Table:
        (calls / uuid.uuid4().hex).touch()  # one file per call
        return b

    blocks = [pa.table({"k": pa.array([i % 7 for i in range(10 * j,
                                                          10 * j + 10)],
                                      type=pa.int64())}) for j in range(4)]
    right = (ray.data.from_arrow(blocks)
             .map_batches(tag, batch_format="pyarrow")
             .groupby("k").count())
    left = ray.data.from_arrow(pa.table({
        "lk": pa.array([0, 3, 6, 9], type=pa.int64()),
        "lv": ["a", "b", "c", "d"]})).map_batches(
        lambda b: b, batch_format="pyarrow")
    assert _with_schema(left)[0] is left

    out = hash_join(left, right, "lk", "k", ["lk", "lv"], ["count()"],
                    how="left").to_pandas()
    assert len(list(calls.iterdir())) == len(blocks)
    got = dict(zip(out["lk"], out["count()"].fillna(0).astype(int)))
    assert got == {0: 6, 3: 6, 6: 5, 9: 0}  # k = i % 7 over i < 40
