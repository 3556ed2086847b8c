"""Curation-operator tests: PII redaction, per-source caps,
decontamination, repetition signals, sequence packing."""

import numpy as np
import pyarrow as pa

from smartreader_ray.functions import pii_redact, repetition_stats


def test_pii_redact_patterns():
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": [
                "write to alice.smith+news@ex-ample.co.uk today",
                "call +1 (415) 555-0133 or 020-7946-0958 now",
                "host 192.168.1.100 and 10.0.0.1 are up",
                "nothing sensitive here at all",
            ],
        }
    )
    out = pii_redact(t)
    texts = out.column("text").to_pylist()
    assert texts[0] == "write to <EMAIL> today"
    assert texts[1] == "call <PHONE> or <PHONE> now"
    assert texts[2] == "host <IP> and <IP> are up"
    assert texts[3] == "nothing sensitive here at all"
    assert out.column("had_pii").to_pylist() == [True, True, True, False]


def test_pii_redact_email_wins_over_phone():
    # digit-heavy email local parts must become <EMAIL>, not <PHONE>
    t = pa.table(
        {
            "doc_id": pa.array([1], type=pa.int64()),
            "text": ["reach 123456789@example.com please"],
        }
    )
    assert pii_redact(t).column("text")[0].as_py() == "reach <EMAIL> please"


def test_per_source_cap(ray_session):
    import ray.data

    from smartreader_ray.functions import per_source_cap

    t = pa.table(
        {
            "doc_id": pa.array([5, 3, 1, 9, 7, 2, 4], type=pa.int64()),
            "source": ["a", "a", "a", "a", "b", "b", "b"],
        }
    )
    out = per_source_cap(ray.data.from_arrow(t), cap=2).take_all()
    kept = {(r["source"], r["doc_id"]) for r in out}
    # lowest ids per source survive, deterministically
    assert kept == {("a", 1), ("a", 3), ("b", 2), ("b", 4)}

    # rows without a source are one source of their own, in one block
    # or spread over several
    nulls = pa.table({"doc_id": pa.array([8, 6, 10], type=pa.int64()),
                      "source": pa.array([None] * 3, type=pa.string())})
    both = pa.concat_tables([t, nulls])
    for ds in (ray.data.from_arrow(both),
               ray.data.from_arrow(both).repartition(4)):
        kept = {(r["source"], r["doc_id"])
                for r in per_source_cap(ds, cap=2).take_all()}
        assert kept == {("a", 1), ("a", 3), ("b", 2), ("b", 4),
                        (None, 6), (None, 8)}


def test_decontaminate_flags_containment(ray_session):
    import ray.data

    from smartreader_ray.functions import decontaminate

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": [
                "prefix the secret eval passage suffix",
                "entirely clean document",
                "regex specials .*+ should not fire",
            ],
        }
    )
    out = decontaminate(
        ray.data.from_arrow(t), ["the secret eval passage", "x[y]z"]
    ).take_all()
    flags = {r["doc_id"]: r["contaminated"] for r in out}
    assert flags == {1: True, 2: False, 3: False}


def test_decontaminate_empty_snippets(ray_session):
    import ray.data

    from smartreader_ray.functions import decontaminate

    t = pa.table(
        {"doc_id": pa.array([1], type=pa.int64()), "text": ["anything"]}
    )
    out = decontaminate(ray.data.from_arrow(t), []).take_all()
    assert out[0]["contaminated"] is False


def test_repetition_stats_counts():
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": [
                "a b a b a b",  # 6 tokens, 2 distinct, "a b" bigram x3 of 5
                "u v w x y",  # all distinct, every bigram unique
                "solo",  # one token: no bigrams
            ],
        }
    )
    out = repetition_stats(t)
    rows = {r["doc_id"]: r for r in out.to_pylist()}
    assert rows[1]["n_tokens"] == 6 and rows[1]["n_distinct"] == 2
    assert rows[1]["top_bigram_count"] == 3 and rows[1]["n_bigrams"] == 5
    assert rows[1]["dup_word_frac"] == np.round(1 - 2 / 6, 6)
    assert rows[1]["top_bigram_frac"] == 0.6
    assert rows[2]["dup_word_frac"] == 0.0
    assert rows[2]["top_bigram_count"] == 1
    assert rows[3]["n_bigrams"] == 0 and rows[3]["top_bigram_frac"] == 0.0


def test_pack_sequences_greedy(ray_session):
    import ray.data

    from smartreader_ray.functions import pack_sequences

    texts = {
        1: "w " * 10,  # 10 tokens
        2: "w " * 10,
        3: "w " * 10,  # 1+2+3 = 30 > 25 → pack resets before 3
        4: "w " * 40,  # oversized: its own pack
        5: "w " * 5,
    }
    t = pa.table(
        {
            "doc_id": pa.array(sorted(texts), type=pa.int64()),
            "text": [texts[k].strip() for k in sorted(texts)],
        }
    )
    out = pack_sequences(
        ray.data.from_arrow(t), max_tokens=25, shard_size=1000
    ).take_all()
    packs = {r["pack_id"]: r for r in out}
    assert packs[1]["n_docs"] == 2 and packs[1]["n_tokens"] == 20
    assert packs[3]["n_docs"] == 1 and packs[3]["n_tokens"] == 10
    assert packs[4]["n_docs"] == 1 and packs[4]["n_tokens"] == 40
    assert packs[4]["fill_frac"] == 1.0  # clamped for oversized docs
    assert packs[5]["n_docs"] == 1 and packs[5]["n_tokens"] == 5


def test_pack_sequences_shard_determinism(ray_session):
    import ray.data

    from smartreader_ray.functions import pack_sequences

    t = pa.table(
        {
            "doc_id": pa.array(list(range(40)), type=pa.int64()),
            "text": ["tok " * (i % 7 + 1) for i in range(40)],
        }
    )
    # different block layouts, same sharded packing
    a = pack_sequences(
        ray.data.from_arrow(t), max_tokens=16, shard_size=10
    ).take_all()
    b = pack_sequences(
        ray.data.from_arrow(t).repartition(8), max_tokens=16, shard_size=10
    ).take_all()
    key = lambda r: r["pack_id"]
    assert sorted(a, key=key) == sorted(b, key=key)


def test_curation_pipeline_end_to_end(ray_session):
    import ray.data

    from smartreader_ray.pipelines import build_curation_pipeline

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
            "text": [
                "alpha beta gamma delta epsilon zeta",  # clean, distinct
                "spam spam spam spam spam ham",  # repetitive → dropped
                "THE EVAL SET PASSAGE appears right here",  # contaminated
                "mail bob@example.com about the launch plan",  # PII → redacted, kept
                "one two three four five six seven",
            ],
            "source": ["s1", "s1", "s1", "s2", "s2"],
        }
    )
    out = build_curation_pipeline(
        ray.data.from_arrow(t), ["THE EVAL SET PASSAGE"], cap=10
    ).take_all()
    kept = {r["doc_id"] for r in out}
    assert kept == {1, 4, 5}
    # cap enforcement
    capped = build_curation_pipeline(
        ray.data.from_arrow(t), [], cap=1
    ).take_all()
    assert {(r["source"], r["doc_id"]) for r in capped} == {("s1", 1), ("s2", 4)}


def test_chunk_documents(ray_session):
    import pytest
    import ray.data

    from smartreader_ray.functions import chunk_documents

    t = pa.table(
        {
            "doc_id": pa.array([1, 2], type=pa.int64()),
            "text": [" ".join(str(i) for i in range(10)), "short"],
        }
    )
    out = chunk_documents(
        ray.data.from_arrow(t), chunk_tokens=4, stride=3
    ).take_all()
    by_key = {(r["doc_id"], r["chunk_id"]): r["chunk"] for r in out}
    assert by_key[(1, 0)] == "0 1 2 3"
    assert by_key[(1, 1)] == "3 4 5 6"  # overlap of 1 token
    assert by_key[(1, 2)] == "6 7 8 9"
    assert by_key[(1, 3)] == "9"  # short tail chunk
    assert by_key[(2, 0)] == "short"
    assert len(by_key) == 5

    with pytest.raises(ValueError, match="positive"):
        chunk_documents(ray.data.from_arrow(t), chunk_tokens=0)


def test_per_source_cap_hot_key_partial_combine(ray_session):
    import ray.data

    from smartreader_ray.functions import per_source_cap

    # one hot source spread over many blocks: the per-block partial must
    # still deliver exactly the cap globally-lowest ids
    n = 5000
    t = pa.table(
        {
            "doc_id": pa.array(list(range(n - 1, -1, -1)), type=pa.int64()),
            "source": ["hot"] * n,
        }
    )
    out = per_source_cap(
        ray.data.from_arrow(t).repartition(32), cap=5
    ).take_all()
    assert sorted(r["doc_id"] for r in out) == [0, 1, 2, 3, 4]


def test_normalize_text_batch_semantics():
    import pyarrow as pa

    from smartreader_ray.functions.curation import normalize_text_batch

    t = pa.table({"text": ["Hello, World!  foo\tbar", "  A.B;C  ", "",
                           None, "ALL CAPS 42!"]})
    got = normalize_text_batch(t).column("text_norm").to_pylist()
    assert got == ["hello world foo bar", "abc", "", "", "all caps 42"]


def test_normalized_dedup_groups_case_punct_variants(ray_session):
    import pyarrow as pa
    import ray.data

    from smartreader_ray.functions.curation import normalized_dedup

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": ["The Cat.", "the cat", "THE   CAT!!!", "a dog"],
        }
    )
    out = pa.concat_tables(
        list(
            normalized_dedup(ray.data.from_arrow(t).repartition(3))
            .iter_batches(batch_format="pyarrow", batch_size=None)
        )
    )
    got = {
        k: (d, n)
        for k, d, n in zip(out.column("text_norm").to_pylist(),
                           out.column("keep_doc_id").to_pylist(),
                           out.column("n_dups").to_pylist())
    }
    assert got == {"the cat": (1, 3), "a dog": (4, 1)}


def test_winsorize_stats_clips_at_exact_quantiles(ray_session):
    import pyarrow as pa
    import ray.data

    from smartreader_ray.functions.curation import winsorize_stats

    # key "a": values 1..10; percentile_disc(0.05)=ceil(0.5)-1 -> 1.0,
    # p95 = ceil(9.5)-1 = idx 9 -> 10.0 => nothing clips. Tighter check
    # with q=(0.25, 0.75): lo=3 (idx 2), hi=8 (idx 7)
    t = pa.table(
        {
            "k": ["a"] * 10 + ["b"] * 2,
            "v": [float(x) for x in range(1, 11)] + [5.0, 7.0],
        }
    )
    out = pa.concat_tables(
        list(
            winsorize_stats(ray.data.from_arrow(t).repartition(3),
                            "k", "v", q_lo=0.25, q_hi=0.75)
            .iter_batches(batch_format="pyarrow", batch_size=None)
        )
    )
    rows = {
        k: (n, lo, hi, s)
        for k, n, lo, hi, s in zip(out.column("k").to_pylist(),
                                   out.column("n").to_pylist(),
                                   out.column("n_clipped_lo").to_pylist(),
                                   out.column("n_clipped_hi").to_pylist(),
                                   out.column("sum_cents").to_pylist())
    }
    # a: clip 1,2 -> 3 and 9,10 -> 8: sum = 3+3+3+4+5+6+7+8+8+8 = 55
    assert rows["a"] == (10, 2, 2, 5500)
    # b: lo=5 (idx ceil(.5)-1 = 0), hi=7 -> nothing clips
    assert rows["b"] == (2, 0, 0, 1200)


def test_k_anonymity_flags_small_groups(ray_session):
    """Groups under k are reported with exact sizes; groups at/above k
    are absent; result is invariant to partitioning."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from smartreader_ray.functions.curation import k_anonymity

    seg = ["A"] * 12 + ["B"] * 3 + ["B"] * 12 + ["C"] * 1
    nat = [1] * 12 + [2] * 3 + [3] * 12 + [4] * 1
    t = pa.table({"seg": pa.array(seg), "nat": pa.array(nat, type=pa.int64())})
    for parts in (1, 5):
        out = sorted(
            (r["seg"], r["nat"], r["n"]) for r in k_anonymity(
                ray.data.from_arrow(t).repartition(parts),
                ["seg", "nat"], k=10).take_all())
        assert out == [("B", 2, 3), ("C", 4, 1)]


def test_l_diversity_flags_uniform_groups(ray_session):
    import ray.data

    from smartreader_ray.functions import l_diversity

    rows = (
        # group A: 4 rows but only one sensitive value -> flagged
        [{"seg": "A", "nat": 1, "s": 10}] * 4
        # group B: 3 rows, 3 distinct values -> passes l=2
        + [{"seg": "B", "nat": 1, "s": v} for v in (1, 2, 3)]
        # group C: 2 rows, 2 distinct -> passes
        + [{"seg": "C", "nat": 2, "s": v} for v in (5, 6)]
    )
    out = l_diversity(ray.data.from_items(rows), ["seg", "nat"], "s",
                      l=2).take_all()
    assert len(out) == 1
    r = out[0]
    assert (r["seg"], r["nat"]) == ("A", 1)
    assert r["n_sensitive"] == 1 and r["n_rows"] == 4


def test_t_closeness_flags_skewed_groups(ray_session):
    import ray.data

    from smartreader_ray.functions import t_closeness

    rows = (
        # group A: all rows in band 0 while the corpus is 50/50 ->
        # TVD = 0.5, above t = 0.3
        [{"seg": "A", "nat": 1, "s": 0}] * 10
        # group B mirrors the corpus distribution -> TVD small
        + [{"seg": "B", "nat": 1, "s": v} for v in ([0] * 5 + [1] * 5)]
        # group C: all band 1
        + [{"seg": "C", "nat": 1, "s": 1}] * 5
    )
    out = {(r["seg"], r["nat"]): r
           for r in t_closeness(ray.data.from_items(rows),
                                ["seg", "nat"], "s",
                                t_num=3, t_den=10).take_all()}
    # corpus: band0 = 15/25, band1 = 10/25
    # A: |10*25 - 10*15| + 10*(25-15) = 100+100=200; tvd = 200/(2*10*25)=0.4
    assert ("A", 1) in out and out[("A", 1)]["tvd_num"] == 200
    # B: |5*25-10*15| + |5*25-10*10| = 25+25=50 -> 0.1 -> passes
    assert ("B", 1) not in out
    # C: |5*25-5*10| + 5*(25-10) = 75+75 = 150 -> 150/250 = 0.6 -> flagged
    assert ("C", 1) in out and out[("C", 1)]["tvd_num"] == 150


def test_t_closeness_numerator_does_not_wrap():
    from smartreader_ray.functions.curation import _tvd_num

    # 64 global bands of 2^28 - 1 rows: max(c_b) * N stays under the
    # 2^62 guard, and a group holding 32 whole bands makes each band
    # term ~2^61 -- their sum (~2^66) wraps int64
    cb_all = [(1 << 28) - 1] * 64
    n = sum(cb_all)
    assert max(cb_all) * n < (1 << 62)
    c = np.array(cb_all[:32], dtype=np.int64)
    cb = np.array(cb_all[:32], dtype=np.int64)
    ng = int(c.sum())
    want = (sum(abs(ci * n - ng * bi) for ci, bi in zip(c.tolist(),
                                                        cb.tolist()))
            + ng * (n - sum(cb.tolist())))
    assert want >= (1 << 63)
    assert _tvd_num(c, cb, ng, n) == want


def test_c4_line_gates(ray_session):
    import ray.data

    from smartreader_ray.functions import c4_line_gates_batch

    docs = [
        {"doc_id": 1,
         "text": "one two three\nshort\na b c d\nx y z\nkeep me now\nlast line here"},
        {"doc_id": 2, "text": "a b\nc d"},  # everything under 3 words
    ]
    out = {r["doc_id"]: r
           for r in ray.data.from_items(docs)
           .map_batches(c4_line_gates_batch, batch_format="pyarrow")
           .take_all()}
    r1 = out[1]
    assert r1["n_lines"] == 6 and r1["n_kept_lines"] == 5
    assert r1["kept"] == 1
    assert "short" not in r1["clean_text"]
    r2 = out[2]
    assert r2["n_kept_lines"] == 0 and r2["kept"] == 0
    assert r2["clean_text"] == ""
