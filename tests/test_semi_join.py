"""semi_join: broadcast vs bloom-prefilter regimes, exactness, key types."""

import numpy as np
import pyarrow as pa
import pytest


def _mk(ray, n=5000, seed=3):
    rng = np.random.default_rng(seed)
    left = pa.table({
        "k": pa.array(rng.integers(0, 1000, n), type=pa.int64()),
        "v": pa.array(np.arange(n), type=pa.int64()),
    })
    right = pa.table({
        "rk": pa.array(rng.choice(1000, 120, replace=False).astype(np.int64)),
    })
    import ray.data
    return (ray.data.from_arrow(left).repartition(4),
            ray.data.from_arrow(right).repartition(3),
            set(right.column("rk").to_pylist()),
            left)


def test_semi_join_broadcast_regime_exact(ray_session):
    from smartreader_ray.functions.join import semi_join

    left, right, keys, lt = _mk(ray_session)
    out = semi_join(left, right, "k", "rk").take_all()
    want = sorted(v for k, v in zip(lt.column("k").to_pylist(),
                                    lt.column("v").to_pylist()) if k in keys)
    assert sorted(r["v"] for r in out) == want


def test_semi_join_bloom_regime_matches_broadcast(ray_session, size_budget):
    from smartreader_ray.functions.join import semi_join

    left, right, keys, lt = _mk(ray_session, seed=9)
    a = sorted(r["v"] for r in semi_join(
        left, right, "k", "rk").take_all())
    # a budget just below the 120 distinct int64 keys' bytes → bloom +
    # verify path (a lower one splits the 5,000 left rows finer)
    size_budget(8 * len(keys) - 1)
    b = sorted(r["v"] for r in semi_join(
        left, right, "k", "rk", bloom_bits=1 << 16).take_all())
    assert a == b
    want = sorted(v for k, v in zip(lt.column("k").to_pylist(),
                                    lt.column("v").to_pylist()) if k in keys)
    assert b == want


def test_semi_join_string_keys_bloom(ray_session, size_budget):
    import ray.data

    from smartreader_ray.functions.join import semi_join

    left = pa.table({
        "name": [f"u{i % 50}" for i in range(400)],
        "v": pa.array(np.arange(400), type=pa.int64()),
    })
    right = pa.table({"rn": [f"u{i}" for i in range(0, 50, 5)]})
    lds = ray.data.from_arrow(left).repartition(3)
    rds = ray.data.from_arrow(right)
    size_budget(32)  # below the 10 keys' bytes: the Bloom regime
    out = semi_join(lds, rds, "name", "rn", bloom_bits=1 << 12).take_all()
    keys = {f"u{i}" for i in range(0, 50, 5)}
    want = sorted(v for n, v in zip(left.column("name").to_pylist(),
                                    left.column("v").to_pylist())
                  if n in keys)
    assert sorted(r["v"] for r in out) == want


def test_bloom_confusion_no_false_negatives_and_truth(ray_session):
    """Every true member must bloom-hit (the joins' exactness hinges on
    it); ground-truth column must equal set membership; tiny filters
    must show SOME false positives (the evaluation is non-degenerate)."""
    import ray.data
    from smartreader_ray.functions.join import bloom_confusion

    rng = np.random.default_rng(17)
    build = pa.table({"bk": pa.array(
        rng.choice(5000, 800, replace=False).astype(np.int64))})
    probe = pa.table({"pk": pa.array(
        np.arange(2500, dtype=np.int64))})
    members = set(build.column("bk").to_pylist())
    out = bloom_confusion(
        ray.data.from_arrow(build).repartition(3),
        ray.data.from_arrow(probe).repartition(4),
        "bk", "pk", bloom_bits=2048, bloom_k=2).take_all()
    assert len(out) == 2500
    fp = 0
    for r in out:
        want = 1 if r["pk"] in members else 0
        assert r["is_member"] == want
        if want:
            assert r["bloom_hit"] == 1  # no false negatives, ever
        elif r["bloom_hit"]:
            fp += 1
    assert fp > 0  # 800 keys into 2048 bits: saturated enough to FP


def test_bloom_confusion_string_keys(ray_session):
    """String keys ride the blake2b hash64 path; same invariants."""
    import ray.data
    from smartreader_ray.functions.join import bloom_confusion

    build = pa.table({"bk": pa.array([f"doc-{i}" for i in range(300)])})
    probe = pa.table({"pk": pa.array([f"doc-{i}" for i in range(600)])})
    out = bloom_confusion(
        ray.data.from_arrow(build), ray.data.from_arrow(probe),
        "bk", "pk", bloom_bits=1 << 16, bloom_k=4).take_all()
    assert len(out) == 600
    for r in out:
        want = 1 if int(r["pk"].split("-")[1]) < 300 else 0
        assert r["is_member"] == want
        if want:
            assert r["bloom_hit"] == 1


@pytest.mark.parametrize("budget", [2_000_000, 1])
def test_semi_anti_mixed_key_types_agree_across_regimes(ray_session,
                                                        size_budget,
                                                        budget):
    """int64 left keys against string right keys compare as strings
    (hash_join's key-type rule) in the broadcast AND the Bloom regime
    (a budget of 2 MB and of 1 byte)."""
    import ray.data

    from smartreader_ray.functions.join import anti_join, semi_join

    left = ray.data.from_arrow(pa.table({
        "k": pa.array(np.arange(200), type=pa.int64()),
        "v": pa.array(np.arange(200), type=pa.int64()),
    }))
    right = ray.data.from_arrow(pa.table(
        {"rk": [str(i) for i in range(0, 200, 10)]}))
    size_budget(budget)
    semi = sorted(r["v"] for r in semi_join(
        left, right, "k", "rk", bloom_bits=1 << 20).take_all())
    anti = sorted(r["v"] for r in anti_join(
        left, right, "k", "rk", bloom_bits=1 << 20).take_all())
    assert semi == list(range(0, 200, 10))
    assert anti == [v for v in range(200) if v % 10]


def test_semi_anti_empty_right(ray_session):
    """An empty right side is an empty key set: semi keeps nothing,
    anti keeps every left row."""
    import ray.data

    from smartreader_ray.functions.join import anti_join, semi_join

    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, None], type=pa.int64()), "v": [1, 2, 3]}))
    right = ray.data.from_arrow(pa.table(
        {"rk": pa.array([], type=pa.int64())}))
    assert semi_join(left, right, "k", "rk").take_all() == []
    assert sorted(r["v"] for r in anti_join(
        left, right, "k", "rk").take_all()) == [1, 2, 3]
