"""Set-ops by content (functions/setops.py) + z-score (standardize.py)."""

import math

import pyarrow as pa
import pytest

from smartreader_ray.functions.setops import (
    except_by_content,
    intersect_by_content,
)
from smartreader_ray.functions.standardize import zscore_by


def _left():
    return pa.table(
        {
            "doc_id": pa.array([10, 11, 12, 13], type=pa.int64()),
            "text": ["shared one", "only left", "shared one", "shared two"],
        }
    )


def _right():
    return pa.table(
        {
            "doc_id": pa.array([1, 2], type=pa.int64()),
            "text": ["shared one", "shared two"],
        }
    )


def test_except_by_content(ray_session):
    import ray.data

    out = except_by_content(
        ray.data.from_arrow(_left()), ray.data.from_arrow(_right())
    ).take_all()
    # only "only left" survives; one row per distinct content
    assert [r["doc_id"] for r in out] == [11]


def test_intersect_by_content_min_id(ray_session):
    import ray.data

    out = intersect_by_content(
        ray.data.from_arrow(_left()), ray.data.from_arrow(_right())
    ).take_all()
    # "shared one" → min(10, 12) = 10; "shared two" → 13
    assert sorted(r["doc_id"] for r in out) == [10, 13]


def test_intersect_right_duplicates_no_pair_blowup(ray_session):
    import ray.data

    right_dup = pa.table(
        {
            "doc_id": pa.array(list(range(50)), type=pa.int64()),
            "text": ["shared one"] * 50,
        }
    )
    out = intersect_by_content(
        ray.data.from_arrow(_left()), ray.data.from_arrow(right_dup)
    ).take_all()
    assert sorted(r["doc_id"] for r in out) == [10]


def test_zscore_exact_values(ray_session):
    import ray.data

    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
            "lang": ["en", "en", "en", "fr"],
            "n_chars": pa.array([10, 20, 30, 7], type=pa.int64()),
        }
    )
    out = zscore_by(ray.data.from_arrow(t), "lang", "n_chars").take_all()
    by_id = {r["doc_id"]: r["z"] for r in out}
    std = math.sqrt((100 + 400 + 900) / 3 - 20.0**2)
    assert by_id[0] == round((10 - 20.0) / std, 6)
    assert by_id[1] == 0.0
    assert by_id[2] == round((30 - 20.0) / std, 6)
    # single-value key: variance 0 → null
    assert by_id[3] is None


def test_zscore_join_path_matches_broadcast(ray_session, size_budget):
    """Past ``exchange.fits`` zscore_by switches to the
    hash-shuffle join regime (r4 verdict #5: the seam used to raise
    NotImplementedError); both regimes must produce bit-identical z per
    doc, including the null-z verdicts for constant keys and null
    keys."""
    import numpy as np
    import ray.data

    rng = np.random.RandomState(7)
    n = 400
    langs = [f"l{int(v)}" for v in rng.randint(0, 50, n)]
    langs[5] = None          # null key → null z in both regimes
    t = pa.table(
        {
            "doc_id": pa.array(range(n), type=pa.int64()),
            "lang": pa.array(langs, type=pa.string()),
            "n_chars": pa.array(rng.randint(0, 10_000, n),
                                type=pa.int64()),
        }
    )
    broad = zscore_by(ray.data.from_arrow(t), "lang", "n_chars").take_all()
    ds = ray.data.from_arrow(t)
    size_budget(1)
    joined = zscore_by(ds, "lang", "n_chars").take_all()
    assert {r["doc_id"]: r["z"] for r in broad} == \
        {r["doc_id"]: r["z"] for r in joined}


def test_zscore_overflow_guard(ray_session):
    import ray.data

    t = pa.table(
        {
            "doc_id": pa.array([0, 1], type=pa.int64()),
            "lang": ["en", "en"],
            "n_chars": pa.array([4_000_000_000, 1], type=pa.int64()),
        }
    )
    with pytest.raises(Exception):  # OverflowError surfaces as RayTaskError
        zscore_by(ray.data.from_arrow(t), "lang", "n_chars").take_all()


def test_zscore_checksum_catches_sum_wrap(ray_session):
    # Two rows of 3e9 each pass the per-value guard (|v| ≤ 3e9) but
    # Σx² = 2·9e18 = 1.8e19 wraps int64 — the float64 checksum that rides
    # the same exchange must catch it (ADVICE r3: guard was per-value only).
    import ray.data

    t = pa.table(
        {
            "doc_id": pa.array([0, 1], type=pa.int64()),
            "lang": ["en", "en"],
            "n_chars": pa.array([3_000_000_000, 3_000_000_000], type=pa.int64()),
        }
    )
    with pytest.raises(OverflowError):
        zscore_by(ray.data.from_arrow(t), "lang", "n_chars").take_all()


def test_zscore_checksum_catches_moderate_value_wrap(ray_session):
    # Many rows of a moderate value: 3000 rows of 2e9 → Σx² = 1.2e22 ≫ 2⁶³.
    # No single value trips the per-value guard; only the checksum can.
    import ray.data

    t = pa.table(
        {
            "doc_id": pa.array(range(3000), type=pa.int64()),
            "lang": ["en"] * 3000,
            "n_chars": pa.array([2_000_000_000] * 3000, type=pa.int64()),
        }
    )
    with pytest.raises(OverflowError):
        zscore_by(ray.data.from_arrow(t), "lang", "n_chars").take_all()


def test_corr_checksum_catches_comoment_wrap(ray_session):
    import ray.data

    from smartreader_ray.functions.standardize import corr_by

    n = 3000
    t = pa.table(
        {
            "lang": ["en"] * n,
            "x": pa.array([2_000_000_000 - i for i in range(n)], type=pa.int64()),
            "y": pa.array([2_000_000_000 + i for i in range(n)], type=pa.int64()),
        }
    )
    with pytest.raises(Exception) as ei:
        corr_by(ray.data.from_arrow(t), "lang", "x", "y").take_all()
    assert "wrapped" in str(ei.value) or "OverflowError" in str(ei.value)


def test_zscore_checksum_passes_legit_large(ray_session):
    # Values near (but inside) the exact regime must NOT false-positive:
    # 10_000 rows of ~1e6 → Σx² = 1e16 < 2⁶³, checksum agrees.
    import ray.data

    n = 10_000
    t = pa.table(
        {
            "doc_id": pa.array(range(n), type=pa.int64()),
            "lang": ["en"] * n,
            "n_chars": pa.array([1_000_000 + (i % 7) for i in range(n)],
                                type=pa.int64()),
        }
    )
    out = zscore_by(ray.data.from_arrow(t), "lang", "n_chars").take_all()
    assert len(out) == n
    assert all(r["z"] is not None for r in out)


def test_late_events_watermark(ray_session):
    import ray.data

    from smartreader_ray.functions.windows import late_events

    # arrival order 0..4; event times jump ahead then fall behind
    t0 = 1_700_000_000_000_000  # µs epoch
    H = 3_600_000_000
    tbl = pa.table(
        {
            "user_id": pa.array([1] * 5 + [2], type=pa.int64()),
            "event_id": pa.array([0, 1, 2, 3, 4, 5], type=pa.int64()),
            "ts": pa.array(
                [t0, t0 + 10 * H, t0 + 2 * H, t0 + 10 * H - 1, t0 + 11 * H,
                 t0],
                type=pa.timestamp("us"),
            ),
        }
    )
    out = late_events(
        ray.data.from_arrow(tbl), tolerance_s=3600.0, order_col="event_id"
    ).take_all()
    got = {r["event_id"]: r["lateness_us"] for r in out}
    # event 2 is 8h behind the watermark (t0+10H); event 3 only 1µs —
    # within tolerance; events 0,1,4 advance the watermark; user 2 has
    # a single event (never late)
    assert got == {2: 8 * H}


def test_range_partition_balanced_shards(ray_session):
    import ray.data

    from smartreader_ray.functions.reshape import range_partition_by_quantiles

    t = pa.table(
        {
            "doc_id": pa.array(range(8), type=pa.int64()),
            "lang": ["en"] * 8,
            "n_chars": pa.array([1, 2, 3, 4, 5, 6, 7, 8], type=pa.int64()),
        }
    )
    out = range_partition_by_quantiles(
        ray.data.from_arrow(t), "lang", "n_chars"
    ).take_all()
    shards = {r["n_chars"]: r["shard"] for r in out}
    # percentile_disc quartiles of 1..8 are 2, 4, 6 → strict buckets
    assert shards == {1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2, 7: 3, 8: 3}


def test_corr_by_exact(ray_session):
    import math

    import ray.data

    from smartreader_ray.functions.standardize import corr_by

    t = pa.table(
        {
            "lang": ["en"] * 4 + ["fr"] * 2,
            "x": pa.array([1, 2, 3, 4, 5, 5], type=pa.int64()),
            "y": pa.array([2, 4, 6, 9, 1, 7], type=pa.int64()),
        }
    )
    out = {r["lang"]: r for r in corr_by(
        ray.data.from_arrow(t), "lang", "x", "y").take_all()}
    # en: near-perfect positive correlation, computed by the closed form
    n, sx, sy = 4, 10, 21
    sxx, syy, sxy = 30, 137, 64
    num = n * sxy - sx * sy
    ref = num / (math.sqrt(n * sxx - sx * sx) * math.sqrt(n * syy - sy * sy))
    assert out["en"]["corr"] == round(ref, 6)
    assert out["en"]["n"] == 4
    # fr: x is constant → zero variance → null
    assert out["fr"]["corr"] is None


def test_hash_join_right_and_full_outer(ray_session):
    import ray.data

    from smartreader_ray.functions.join import hash_join

    left = pa.table(
        {"k": pa.array([1, 2], type=pa.int64()), "lv": ["a", "b"]}
    )
    right = pa.table(
        {"rk": pa.array([2, 3], type=pa.int64()), "rv": ["x", "y"]}
    )
    kw = dict(left_key="k", right_key="rk",
              left_cols=["k", "lv"], right_cols=["rk", "rv"])
    lds, rds = ray.data.from_arrow(left), ray.data.from_arrow(right)

    full = sorted(
        ((r["k"], r["lv"], r["rk"], r["rv"])
         for r in hash_join(lds, rds, how="full_outer", **kw).take_all()),
        key=lambda t: (t[0] is None, t[0] or 0),
    )
    assert full == [(1, "a", None, None), (2, "b", 2, "x"),
                    (None, None, 3, "y")]

    rj = sorted(
        ((r["k"], r["lv"], r["rk"], r["rv"])
         for r in hash_join(lds, rds, how="right", **kw).take_all()),
        key=lambda t: (t[2] or 0),
    )
    assert rj == [(2, "b", 2, "x"), (None, None, 3, "y")]


def test_salted_join_equals_unsalted(ray_session):
    import ray.data

    from smartreader_ray.functions.join import hash_join

    left = pa.table(
        {
            "k": pa.array([1, 1, 1, 1, 2, 3], type=pa.int64()),
            "lv": pa.array([10, 11, 12, 13, 20, 30], type=pa.int64()),
        }
    )
    right = pa.table(
        {
            "rk": pa.array([1, 2, 4], type=pa.int64()),
            "rv": ["one", "two", "four"],
        }
    )
    kw = dict(left_key="k", right_key="rk",
              left_cols=["k", "lv"], right_cols=["rv"])
    lds = ray.data.from_arrow(left).repartition(3)
    rds = ray.data.from_arrow(right)

    def rows(ds):
        return sorted((r["k"], r["lv"], r["rv"]) for r in ds.take_all())

    for how in ("inner", "left"):
        plain = rows(hash_join(lds, rds, how=how, **kw))
        salted = rows(hash_join(lds, rds, how=how, salt=3, **kw))
        assert plain == salted, how

    with pytest.raises(ValueError):
        hash_join(lds, rds, how="full_outer", salt=2, **kw)


def test_temperature_mix_flattens_sources(ray_session):
    import ray.data

    from smartreader_ray.functions.sampling import temperature_mix

    big = 400
    small = 16
    t = pa.table(
        {
            "doc_id": pa.array(range(big + small), type=pa.int64()),
            "source": ["big"] * big + ["small"] * small,
        }
    )
    out = temperature_mix(
        ray.data.from_arrow(t), alpha=0.5, c=4.0
    ).to_pandas()
    kept = out.groupby("source").size()
    # small source: rate = min(1, 4/sqrt(16)) = 1 → all kept
    assert kept["small"] == small
    # big source: rate = 4/sqrt(400) = 0.2 → ~80 kept (md5-deterministic)
    frac = kept["big"] / big
    assert 0.1 < frac < 0.3
    # deterministic: a second run keeps the identical rows
    out2 = temperature_mix(
        ray.data.from_arrow(t), alpha=0.5, c=4.0
    ).to_pandas()
    assert sorted(out["doc_id"]) == sorted(out2["doc_id"])


def test_hash_join_null_keys_sql_semantics(ray_session):
    """NULL join keys must match NOTHING (SQL semantics): dropped from
    inner, kept as unmatched rows by the outer-ish modes."""
    import ray.data

    from smartreader_ray.functions.join import hash_join

    left = pa.table(
        {"k": pa.array([1, None, 2], type=pa.int64()), "lv": ["a", "b", "c"]}
    )
    right = pa.table(
        {"rk": pa.array([None, 2, 3], type=pa.int64()), "rv": ["x", "y", "z"]}
    )
    lds, rds = ray.data.from_arrow(left), ray.data.from_arrow(right)
    kw = dict(left_key="k", right_key="rk",
              left_cols=["k", "lv"], right_cols=["rv"])

    def rows(how):
        return sorted(
            (tuple(str(v) for v in r.values())
             for r in hash_join(lds, rds, how=how, **kw).take_all())
        )

    assert rows("inner") == [("2", "c", "y")]
    assert rows("left") == [("1", "a", "None"), ("2", "c", "y"),
                            ("None", "b", "None")]
    assert rows("right") == [("2", "c", "y"), ("None", "None", "x"),
                             ("None", "None", "z")]
    assert rows("full_outer") == [
        ("1", "a", "None"), ("2", "c", "y"), ("None", "None", "x"),
        ("None", "None", "z"), ("None", "b", "None"),
    ]
    anti = sorted(
        ((r["k"], r["lv"])
         for r in hash_join(lds, rds, how="left_anti", **kw).take_all()),
        key=str,
    )
    assert anti == [(1, "a"), (None, "b")]


def test_broadcast_join_null_probe_matches_nothing(ray_session):
    import ray.data

    from smartreader_ray.functions.join import broadcast_join

    left = pa.table(
        {"k": pa.array([1, None, 2], type=pa.int64()), "lv": ["a", "b", "c"]}
    )
    small = pa.table(
        {"k": pa.array([2, None], type=pa.int64()), "sv": ["y", "x"]}
    )
    out = broadcast_join(
        ray.data.from_arrow(left), small, "k", ["sv"]
    ).take_all()
    got = sorted((str(r["k"]), r["lv"], str(r["sv"])) for r in out)
    # the NULL probe row must NOT pick up the null build-side key's value
    assert got == [("1", "a", "None"), ("2", "c", "y"), ("None", "b", "None")]


def test_asof_and_range_join_null_semantics(ray_session):
    """Null by/on rows: never match; left-outer modes keep left rows."""
    import ray.data

    from smartreader_ray.functions.join import asof_join, range_join

    left = pa.table(
        {
            "u": pa.array([1, 1, None], type=pa.int64()),
            "ts": pa.array([100, 200, 150], type=pa.timestamp("us")),
            "lv": ["a", "b", "c"],
        }
    )
    right = pa.table(
        {
            "u": pa.array([1, 1], type=pa.int64()),
            "ts": pa.array([90, None], type=pa.timestamp("us")),
            "rv": ["x", "y"],
        }
    )
    out = asof_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right),
        by="u", on="ts", left_cols=["u", "ts", "lv"], right_cols=["rv"],
    ).take_all()
    got = sorted((str(r["u"]), r["lv"], str(r["rv"])) for r in out)
    # null-ts right row is never a match; null-u left row stays unmatched
    assert got == [("1", "a", "x"), ("1", "b", "x"), ("None", "c", "None")]

    rleft = pa.table(
        {
            "u": pa.array([1, None], type=pa.int64()),
            "ts": pa.array([100, 150], type=pa.int64()),
            "lv": ["a", "c"],
        }
    )
    rright = pa.table(
        {
            "u": pa.array([1, 1], type=pa.int64()),
            "ts": pa.array([95, None], type=pa.int64()),
            "rv": ["x", "y"],
        }
    )
    cnt = range_join(
        ray.data.from_arrow(rleft), ray.data.from_arrow(rright),
        by="u", on="ts", left_cols=["u", "lv"], right_cols=["rv"],
        lower=-10, upper=0, mode="count",
    ).take_all()
    assert sorted((str(r["u"]), r["lv"], r["n_matches"]) for r in cnt) == [
        ("1", "a", 1), ("None", "c", 0),
    ]


def test_linreg_by_matches_numpy_polyfit(ray_session):
    import numpy as np
    import ray.data

    from smartreader_ray.functions.standardize import linreg_by

    rng = np.random.RandomState(11)
    rows = []
    for lang, (a, b) in {"en": (3, 2), "de": (-5, 7)}.items():
        x = rng.randint(0, 1000, 60)
        noise = rng.randint(-20, 21, 60)
        for xi, ni in zip(x, noise):
            rows.append({"lang": lang, "x": int(xi), "y": int(a + b * xi + ni)})
    rows.append({"lang": "xx", "x": 5, "y": 9})  # single point: null fit
    rows.append({"lang": "cc", "x": 4, "y": 1})  # constant x: null fit
    rows.append({"lang": "cc", "x": 4, "y": 8})
    ds = ray.data.from_items(rows).repartition(3)
    got = {r["lang"]: r for r in linreg_by(ds, "lang", "x", "y").take_all()}
    for lang in ("en", "de"):
        xs = np.array([r["x"] for r in rows if r["lang"] == lang], dtype=float)
        ys = np.array([r["y"] for r in rows if r["lang"] == lang], dtype=float)
        slope, intercept = np.polyfit(xs, ys, 1)
        assert got[lang]["slope"] == pytest.approx(slope, abs=1e-4)
        assert got[lang]["intercept"] == pytest.approx(intercept, abs=1e-3)
        r = np.corrcoef(xs, ys)[0, 1]
        assert got[lang]["r2"] == pytest.approx(r * r, abs=1e-6)
    assert got["xx"]["slope"] is None and got["cc"]["slope"] is None


class TestImputeMedian:
    def test_fills_with_exact_median_and_passes_through(self, ray_session):
        import ray.data

        from smartreader_ray.functions.standardize import impute_median

        t = pa.table({
            "k": ["a"] * 5 + ["b"] * 3 + ["c"] * 2,
            "v": [1.0, None, 3.0, 2.0, None,   10.0, None, 30.0,
                  None, None],
            "tag": list("pqrstuvwxy"),
        })
        out = impute_median(
            ray.data.from_arrow(t).repartition(3), "k", "v").take_all()
        got = {r["tag"]: r["v"] for r in out}
        # a: median of {1,2,3} = 2 (percentile_disc); b: {10,30} → 10
        assert got["q"] == 2.0 and got["t"] == 2.0
        assert got["v"] == 10.0
        # all-null key 'c' keeps nulls — inventing a value would be
        # silent corruption
        assert got["x"] is None and got["y"] is None
        assert {r["tag"] for r in out} == set("pqrstuvwxy")
        assert got["p"] == 1.0 and got["u"] == 10.0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_duckdb_coalesce_percentile(self, ray_session, seed):
        import duckdb
        import numpy as np
        import ray.data

        from smartreader_ray.functions.standardize import impute_median

        rng = np.random.RandomState(seed)
        n = 60
        vals = rng.randint(0, 9, size=n).astype(float)
        vals[rng.rand(n) < 0.3] = np.nan
        t = pa.table({
            "k": [f"k{rng.randint(0, 4)}" for _ in range(n)],
            "v": pa.array(vals, from_pandas=True),
            "rid": pa.array(range(n), type=pa.int64()),
        })
        out = impute_median(
            ray.data.from_arrow(t).repartition(4), "k", "v").take_all()
        got = {r["rid"]: r["v"] for r in out}
        con = duckdb.connect()
        con.register("t", t)
        exp = dict(con.sql("""
            WITH m AS (
                SELECT k, percentile_disc(0.5) WITHIN GROUP (ORDER BY v)
                       AS med
                FROM t WHERE v IS NOT NULL GROUP BY k)
            SELECT rid, COALESCE(t.v, m.med) FROM t
            LEFT JOIN m USING (k)
        """).fetchall())
        assert got == exp, seed
