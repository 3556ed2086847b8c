"""epoch_shuffle permutation and ngram_novelty memorization scan."""

import hashlib

import pyarrow as pa
import pytest


def test_epoch_shuffle_is_seeded_permutation(ray_session):
    import ray.data

    from smartreader_ray.functions.sampling import epoch_shuffle

    t = pa.table({"doc_id": pa.array(range(50), type=pa.int64())})
    ds = ray.data.from_arrow(t).repartition(4)
    out = epoch_shuffle(ds, seed="s1").take_all()
    by_pos = sorted((r["pos"], r["doc_id"]) for r in out)
    assert [p for p, _ in by_pos] == list(range(1, 51))
    # matches a direct md5 ranking
    expect = sorted(
        range(50),
        key=lambda i: (int(hashlib.md5(f"s1:{i}".encode())
                           .hexdigest()[:9], 16) << 27) | i)
    assert [d for _, d in by_pos] == expect
    # a different seed gives a different permutation
    out2 = epoch_shuffle(ds, seed="s2").take_all()
    by_pos2 = sorted((r["pos"], r["doc_id"]) for r in out2)
    assert [d for _, d in by_pos2] != [d for _, d in by_pos]


def test_epoch_shuffle_reads_its_input_once(ray_session, tmp_path):
    """The input's lineage runs once: global_rank samples and stamps
    from one materialized copy, so a counting map sees each row once."""
    import ray.data

    from smartreader_ray.functions.sampling import epoch_shuffle

    log = str(tmp_path / "rows.log")

    def count(b: pa.Table) -> pa.Table:
        with open(log, "a") as f:
            f.write(f"{b.num_rows}\n")
        return b

    t = pa.table({"doc_id": pa.array(range(50), type=pa.int64())})
    ds = ray.data.from_arrow(t).repartition(4).map_batches(
        count, batch_format="pyarrow")
    assert len(epoch_shuffle(ds, seed="s1").take_all()) == 50
    with open(log) as f:
        assert sum(int(n) for n in f) == 50


def test_epoch_shuffle_rejects_oversized_ids(ray_session):
    import ray.data

    from smartreader_ray.functions.sampling import epoch_shuffle

    t = pa.table({"doc_id": pa.array([1, 1 << 27], type=pa.int64())})
    with pytest.raises(Exception, match="2\\^27|hierarchical"):
        epoch_shuffle(ray.data.from_arrow(t)).take_all()


def test_ngram_novelty_counts(ray_session):
    import ray.data

    from smartreader_ray.functions.dedup import ngram_novelty

    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
        "text": [
            "a b c d e f g h i",      # windows a..h, b..i — both novel
            "a b c d e f g h",        # window a..h seen in doc 1
            "x y",                    # too short -> zeros
            "a b c d e f g h a b c d e f g h",  # repeats + overlap spans
        ],
    })
    out = ngram_novelty(ray.data.from_arrow(t).repartition(3)).take_all()
    rows = {r["doc_id"]: (r["n_windows"], r["n_novel"]) for r in out}
    assert rows[1] == (2, 2)
    assert rows[2] == (1, 0)
    assert rows[3] == (0, 0)
    # doc 4: 9 windows total, none novel for the 2 occurrences of
    # "a..h" (doc 1 owns it); the 7 bridging windows are novel
    assert rows[4] == (9, 7)


def test_ngram_novelty_partitioning_invariance(ray_session):
    import ray.data

    from smartreader_ray.functions.dedup import ngram_novelty

    rows = [{"doc_id": i,
             "text": " ".join(f"w{(i + j) % 6}" for j in range(12))}
            for i in range(30)]
    outs = []
    for parts in (1, 4, 9):
        ds = ray.data.from_items(rows).repartition(parts)
        outs.append(sorted(
            (r["doc_id"], r["n_windows"], r["n_novel"])
            for r in ngram_novelty(ds).take_all()))
    assert outs[0] == outs[1] == outs[2]


def test_balanced_interleave_round_robin(ray_session):
    import ray.data

    from smartreader_ray.functions.sampling import balanced_interleave

    rows = [{"doc_id": i, "lang": ["en", "de", "fr"][i % 3] if i < 30
             else "en"} for i in range(40)]
    out = balanced_interleave(
        ray.data.from_items(rows).repartition(5)).take_all()
    by_pos = sorted((r["pos"], r["lang"], r["doc_id"]) for r in out)
    assert [p for p, _, _ in by_pos] == list(range(1, 41))
    # while every language has supply, each stripe of 3 is one of each
    for s in range(10):
        stripe = {l for _, l, _ in by_pos[3 * s:3 * s + 3]}
        assert stripe == {"en", "de", "fr"}
    # the dominant language fills the tail
    assert all(l == "en" for _, l, _ in by_pos[30:])


def test_balanced_interleave_many_langs(ray_session):
    """12 languages — lang index ≥ 8 used to wrap the signed ``li <<
    60`` composite silently (ADVICE r4); the uint64/sign-flip
    composition must keep the exact (lang-balanced md5) order. Verified
    against an independent pandas replay of the documented semantics:
    md5-rank within language, then round-robin by (rank, lang)."""
    import hashlib

    import pandas as pd
    import ray.data

    from smartreader_ray.functions.sampling import balanced_interleave

    langs = [f"lang{i:02d}" for i in range(12)]
    rows = [{"doc_id": i, "lang": langs[i % 12]} for i in range(96)]
    out = balanced_interleave(
        ray.data.from_items(rows).repartition(4), seed="bi").take_all()
    got = {r["doc_id"]: r["pos"] for r in out}

    df = pd.DataFrame(rows)
    df["h"] = [int(hashlib.md5(f"bi:{i}".encode()).hexdigest()[:9], 16)
               for i in df["doc_id"]]
    df["ril"] = df.sort_values(["h", "doc_id"]).groupby("lang").cumcount()
    df = df.sort_values(["ril", "lang"]).reset_index(drop=True)
    want = {int(r.doc_id): i + 1 for i, r in df.iterrows()}
    assert got == want

    # 17 languages exceeds the 4-bit lang slot — must refuse loudly
    import pytest

    rows17 = [{"doc_id": i, "lang": f"l{i % 17}"} for i in range(34)]
    with pytest.raises(Exception, match="16 lang"):
        balanced_interleave(ray.data.from_items(rows17)).take_all()


def test_balanced_interleave_partitioning_invariance(ray_session):
    import ray.data

    from smartreader_ray.functions.sampling import balanced_interleave

    rows = [{"doc_id": i, "lang": ["en", "zh"][i % 2]} for i in range(24)]
    outs = []
    for parts in (1, 3, 6):
        ds = ray.data.from_items(rows).repartition(parts)
        outs.append(sorted((r["pos"], r["doc_id"]) for r in
                           balanced_interleave(ds).take_all()))
    assert outs[0] == outs[1] == outs[2]
