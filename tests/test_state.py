"""Incremental dedup index: sharded mutable state via raw actors."""

import pyarrow as pa


def _docs(ids_and_texts):
    return pa.table(
        {
            "doc_id": pa.array([i for i, _ in ids_and_texts], type=pa.int64()),
            "text": [t for _, t in ids_and_texts],
        }
    )


def test_incremental_dedup_two_waves(ray_session):
    import ray.data

    from smartreader_ray.state import DedupIndex

    idx = DedupIndex(num_shards=4)
    wave1 = ray.data.from_arrow(
        _docs([(1, "aaa bbb ccc"), (2, "ddd eee fff"), (3, "aaa bbb ccc")])
    )
    kept1 = idx.filter_new(wave1).take_all()
    # one survivor per distinct content within the wave
    assert sorted({r["text"] for r in kept1}) == ["aaa bbb ccc", "ddd eee fff"]
    assert len(kept1) == 2

    # second wave: repeats of indexed content all drop, new content passes
    wave2 = ray.data.from_arrow(
        _docs([(10, "aaa bbb ccc"), (11, "new stuff here"), (12, "ddd eee fff")])
    )
    kept2 = idx.filter_new(wave2).take_all()
    assert [r["doc_id"] for r in kept2] == [11]

    st = idx.stats()
    assert st["entries"] == 3 and st["shards"] == 4


def test_incremental_dedup_exactly_one_survivor_under_parallelism(ray_session):
    import ray.data

    from smartreader_ray.state import DedupIndex

    idx = DedupIndex(num_shards=2)
    # 200 docs, only 10 distinct contents, spread over many blocks so
    # several map tasks race on the same fingerprints
    rows = [(i, f"content number {i % 10} repeated") for i in range(200)]
    ds = ray.data.from_arrow(_docs(rows)).repartition(16)
    kept = idx.filter_new(ds).take_all()
    assert len(kept) == 10
    assert {r["text"] for r in kept} == {t for _, t in rows}


def test_bloom_shard_mode(ray_session):
    import ray.data

    from smartreader_ray.state import DedupIndex

    idx = DedupIndex(num_shards=2, bloom_bits=1 << 16)
    rows = [(i, f"doc {i} body") for i in range(100)] + [
        (1000 + i, f"doc {i} body") for i in range(100)  # exact repeats
    ]
    kept = idx.filter_new(ray.data.from_arrow(_docs(rows))).take_all()
    # every repeat is caught; Bloom may only over-drop (none expected at
    # this load factor: 100 entries in 65536 bits)
    texts = [r["text"] for r in kept]
    assert len(texts) == len(set(texts))
    assert 95 <= len(texts) <= 100

    st = idx.stats()
    assert st["entries"] is None  # bloom mode doesn't track counts
    assert st["approx_bytes"] == 2 * (1 << 16) // 8


def test_bloom_bits_validation(ray_session):
    import pytest
    import ray

    from smartreader_ray.state import FingerprintShard

    shard = FingerprintShard.remote(bloom_bits=1000)  # not a power of two
    with pytest.raises(Exception, match="power of two"):
        ray.get(shard.check_and_add.remote([1]))


def test_neardup_index_two_waves(ray_session):
    """Wave 2's near-duplicates of wave-1 docs are rejected; genuinely
    new content passes; accepted docs record their bands."""
    import pyarrow as pa
    import ray.data

    from smartreader_ray.state.dedup_index import NearDupIndex

    base = ("the quick brown fox jumps over the lazy dog and keeps running "
            "through the wide open field towards the distant river bank "
            "every single morning before sunrise without fail")
    near = base.replace("lazy", "sleepy")  # high-Jaccard near-dup
    other = ("completely different content about database systems and "
             "distributed query execution with vectorized operators and "
             "shuffle services plus columnar storage layouts")

    idx = NearDupIndex(num_shards=2)
    w1 = ray.data.from_arrow(pa.table(
        {"doc_id": pa.array([1], type=pa.int64()), "text": [base]}
    ))
    kept1 = idx.filter_new(w1).take_all()
    assert [r["doc_id"] for r in kept1] == [1]

    w2 = ray.data.from_arrow(pa.table(
        {"doc_id": pa.array([2, 3], type=pa.int64()),
         "text": [near, other]}
    ))
    kept2 = sorted(r["doc_id"] for r in idx.filter_new(w2).take_all())
    assert kept2 == [3]  # near-dup of wave 1 rejected, new doc kept
    assert idx.stats()["band_keys"] > 0


def test_neardup_index_rejected_doc_does_not_pollute(ray_session):
    """A REJECTED doc must not record its bands: a later doc similar to
    the rejected one (but not to any accepted one) is admitted."""
    import pyarrow as pa
    import ray.data

    from smartreader_ray.state.dedup_index import NearDupIndex

    a = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
         "lambda mu nu xi omicron pi rho sigma tau upsilon phi chi")
    idx = NearDupIndex(num_shards=2)
    idx.filter_new(ray.data.from_arrow(pa.table(
        {"doc_id": pa.array([1], type=pa.int64()), "text": [a]}
    ))).take_all()
    n1 = idx.stats()["band_keys"]
    # an exact duplicate is rejected and must add nothing
    kept = idx.filter_new(ray.data.from_arrow(pa.table(
        {"doc_id": pa.array([2], type=pa.int64()), "text": [a]}
    ))).take_all()
    assert kept == []
    assert idx.stats()["band_keys"] == n1


def test_neardup_index_admits_docs_without_ngrams(ray_session):
    """A doc without n-grams (null, empty or blank text) records no band
    keys and is nobody's near-duplicate, as in ``MinHasher``: a later
    batch of such docs is admitted whole, not rejected as duplicates of
    the first gram-less doc."""
    import ray.data

    from smartreader_ray.state.dedup_index import NearDupIndex

    text = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lambda mu nu xi omicron pi rho sigma tau upsilon phi chi")
    idx = NearDupIndex(num_shards=2)
    first = idx.filter_new(ray.data.from_arrow(_docs(
        [(1, None), (2, ""), (3, text)]))).take_all()
    assert sorted(r["doc_id"] for r in first) == [1, 2, 3]
    n_keys = idx.stats()["band_keys"]
    assert n_keys == idx.bands  # the one doc with n-grams

    later = idx.filter_new(ray.data.from_arrow(_docs(
        [(4, None), (5, "   ")]))).take_all()
    assert sorted(r["doc_id"] for r in later) == [4, 5]
    assert idx.stats()["band_keys"] == n_keys


def test_neardup_index_matches_naive_across_save_load_resume(ray_session,
                                                             tmp_path):
    """Seeded waves of near-duplicate clusters through ``NearDupIndex``
    vs a naive single-process reference of its admit rule: a doc is
    admitted iff none of its band keys was recorded by a previously
    ADMITTED doc, and only admitted docs record keys. The index is saved
    after wave 2 and reloaded; the reloaded index and the uninterrupted
    one must both follow the reference on waves 3-4."""
    import random

    import ray.data

    from smartreader_ray.functions.dedup import MinHasher
    from smartreader_ray.state.dedup_index import NearDupIndex

    rng = random.Random(11)
    words = [f"w{j}" for j in range(500)]
    templates = [[rng.choice(words) for _ in range(40)] for _ in range(12)]
    waves, doc_id = [], 0
    for _ in range(4):
        wave = []
        # each template at most once per wave: near-dups only ever meet
        # across waves, so batch boundaries inside a wave do not matter
        for t in rng.sample(range(len(templates)), 6):
            toks = list(templates[t])
            if rng.random() < 0.5:
                toks[rng.randrange(len(toks))] = rng.choice(words)
            wave.append((doc_id, " ".join(toks)))
            doc_id += 1
        waves.append(wave)

    idx = NearDupIndex(num_shards=2)
    hasher = MinHasher(num_hashes=idx.num_hashes, bands=idx.bands,
                       ngram=idx.ngram, seed=idx.seed)
    recorded: set = set()
    want_kept, want_sizes = [], []
    for wave in waves:
        keys = hasher.band_keys_batch(
            hasher.signatures_batch([t for _, t in wave]))
        doc_keys = [set(int(k) for k in row) for row in keys]
        for i in range(len(doc_keys)):
            for j in range(i):
                assert not doc_keys[i] & doc_keys[j]
        kept = [d for (d, _), ks in zip(wave, doc_keys)
                if not ks & recorded]
        for (d, _), ks in zip(wave, doc_keys):
            if d in kept:
                recorded |= ks
        want_kept.append(kept)
        want_sizes.append(len(recorded))
    assert any(len(k) < len(w) for k, w in zip(want_kept, waves))

    def run(index, wave):
        kept = index.filter_new(ray.data.from_arrow(_docs(wave))).take_all()
        return sorted(r["doc_id"] for r in kept)

    for w in range(2):
        assert run(idx, waves[w]) == want_kept[w]
        assert idx.stats()["band_keys"] == want_sizes[w]
    idx.save(str(tmp_path / "near"))
    resumed = NearDupIndex.load(str(tmp_path / "near"))
    assert resumed.stats()["band_keys"] == want_sizes[1]
    for w in range(2, 4):
        for index in (resumed, idx):
            assert run(index, waves[w]) == want_kept[w]
            assert index.stats()["band_keys"] == want_sizes[w]
