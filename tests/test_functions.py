"""Corpus-operator tests: dedup families, similarity search, text stats."""

import numpy as np
import pyarrow as pa
import pytest

from smartreader_ray.functions import ngram_jaccard
from smartreader_ray.functions.dedup import simhash64


def _docs_table():
    base = (
        "the quick brown fox jumps over the lazy dog and keeps running through "
        "the wide open field towards the distant river bank every morning"
    )
    near = base.replace("lazy", "sleepy")  # near-duplicate
    other = (
        "completely different content about database systems and distributed "
        "query execution with vectorized operators and shuffle services"
    )
    return pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": [base, base, near, other],
        }
    )


def test_exact_dedup(ray_session):
    import ray.data

    from smartreader_ray.functions import exact_dedup

    out = exact_dedup(ray.data.from_arrow(_docs_table()), key_tokens=5).take_all()
    by_key = {r["dup_key"]: r for r in out}
    key = "the quick brown fox jumps"
    assert by_key[key]["n_dups"] == 3  # doc 1, 2 and the near-dup share first-5
    assert by_key[key]["keep_doc_id"] == 1


def test_minhash_finds_near_duplicates(ray_session):
    import ray.data

    from smartreader_ray.functions import minhash_lsh_candidates

    pairs = minhash_lsh_candidates(
        ray.data.from_arrow(_docs_table()), num_hashes=64, bands=16
    ).take_all()
    found = {(r["doc_a"], r["doc_b"]) for r in pairs}
    assert (1, 2) in found  # exact dup always a candidate
    assert (1, 3) in found or (2, 3) in found  # near-dup caught by some band
    assert all(4 not in p for p in found)  # unrelated doc never pairs


def test_ngram_jaccard():
    assert ngram_jaccard("a b c d", "a b c d") == 1.0
    assert ngram_jaccard("a b c d", "x y z w") == 0.0
    j = ngram_jaccard(
        "the quick brown fox jumps over the fence",
        "the quick brown fox leaps over the fence",
    )
    assert 0.0 < j < 1.0


def test_simhash_hamming(ray_session):
    import ray.data

    from smartreader_ray.functions import simhash_neardup

    a = simhash64("the quick brown fox jumps over the lazy dog " * 4)
    b = simhash64("the quick brown fox jumps over the sleepy dog " * 4)
    c = simhash64("unrelated text about completely different topics entirely")
    assert int(a ^ b).bit_count() < int(a ^ c).bit_count()

    pairs = simhash_neardup(
        ray.data.from_arrow(_docs_table()), max_hamming=3
    ).take_all()
    found = {(r["doc_a"], r["doc_b"]) for r in pairs}
    assert (1, 2) in found  # identical docs: hamming 0


def test_ann_topk_matches_numpy(ray_session):
    import ray.data

    from smartreader_ray.functions import ann_topk

    rng = np.random.RandomState(7)
    mat = rng.randn(50, 16)
    table = pa.table(
        {
            "vec_id": pa.array(range(50), type=pa.int64()),
            "embedding": pa.array(
                [list(map(float, row)) for row in mat],
                type=pa.list_(pa.float32()),
            ),
        }
    )
    queries = mat[:3].astype(np.float64)
    got = ann_topk(ray.data.from_arrow(table), queries, k=5)

    # numpy reference
    m32 = np.asarray(
        [np.asarray(v, dtype=np.float64) for v in table.column("embedding").to_pylist()]
    )
    norm = m32 / np.linalg.norm(m32, axis=1, keepdims=True)
    qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    sims = qn @ norm.T
    for qi in range(3):
        expect = np.argsort(-sims[qi], kind="stable")[:5].tolist()
        got_q = got.filter(
            __import__("pyarrow.compute", fromlist=["x"]).equal(
                got.column("query_id"), qi
            )
        )
        assert got_q.column("vec_id").to_pylist() == expect
        assert got_q.column("vec_id").to_pylist()[0] == qi  # self is top hit


def test_ann_topk_ties_keep_smallest_ids_across_blocks(ray_session):
    """Bit-identical vectors tie on similarity; whatever the block
    boundaries, the top-k are the smallest ids (the oracle's order)."""
    import ray.data

    from smartreader_ray.functions import ann_topk

    ids = list(range(19, -1, -1))  # descending: small ids in the last block
    table = pa.table({
        "vec_id": pa.array(ids, type=pa.int64()),
        "embedding": pa.array([[1.0, 0.0]] * 20, type=pa.list_(pa.float32())),
    })
    blocks = [table.slice(5 * i, 5) for i in range(4)]
    got = ann_topk(ray.data.from_arrow(blocks), np.array([[1.0, 0.0]]), k=3)
    assert got.column("vec_id").to_pylist() == [0, 1, 2]
    assert got.column("rank").to_pylist() == [1, 2, 3]


def test_block_top_k_equals_full_sort():
    """The per-block top-k picks exactly the first k of a full
    (sim desc, id asc) sort, with ties, -inf (masked) and NaN sims."""
    from smartreader_ray.functions.similarity import _top_k

    rng = np.random.default_rng(3)
    for _ in range(2000):
        n, k = int(rng.integers(0, 30)), int(rng.integers(0, 33))
        row = rng.integers(0, 4, n) / 3.0
        if n:
            row[rng.integers(0, n, 2)] = -np.inf
            row[rng.integers(0, n, 2)] = rng.choice([np.nan, 1.0])
        ids = rng.permutation(n) + 100
        want = np.lexsort((ids, -row))[:k]
        assert _top_k(row, ids, k).tolist() == want.tolist()


def test_embedding_neardup_brute(ray_session):
    import ray.data

    from smartreader_ray.functions import embedding_neardup

    v = np.eye(4)
    vecs = [v[0], v[0] * 0.9 + v[1] * 0.01, v[2]]
    table = pa.table(
        {
            "vec_id": pa.array([0, 1, 2], type=pa.int64()),
            "embedding": pa.array(
                [list(map(float, x)) for x in vecs], type=pa.list_(pa.float32())
            ),
        }
    )
    pairs = embedding_neardup(
        ray.data.from_arrow(table), threshold=0.95
    ).take_all()
    found = {(r["vec_a"], r["vec_b"]) for r in pairs}
    assert (0, 1) in found
    assert all(2 not in p for p in found)


def test_token_and_quality_stats(ray_session):
    import ray.data

    from smartreader_ray.functions import quality_stats, token_stats

    table = pa.table(
        {
            "doc_id": pa.array([1], type=pa.int64()),
            "text": ["the cat sat on the mat"],
        }
    )
    t = token_stats(table)
    assert t.column("n_tokens").to_pylist() == [6]
    assert t.column("n_chars_nospace").to_pylist() == [17]

    q = quality_stats(table)
    assert q.column("n_tokens").to_pylist() == [6]
    assert q.column("stopword_ratio_en").to_pylist()[0] == pytest.approx(3 / 6)


def test_language_id(ray_session):
    import ray.data

    from smartreader_ray.functions import language_id

    table = pa.table(
        {
            "doc_id": pa.array([1, 2], type=pa.int64()),
            "text": [
                "the cat and the dog sat in the house for a while and it was good",
                "der Hund und die Katze sind nicht auf der Straße mit dem Ball",
            ],
        }
    )
    rows = {r["doc_id"]: r["pred_lang"] for r in language_id(
        ray.data.from_arrow(table)
    ).take_all()}
    assert rows[1] == "en"
    assert rows[2] == "de"


def test_top_k(ray_session):
    import random

    import ray.data

    from smartreader_ray.functions import top_k

    rng = random.Random(7)
    vals = [(i, rng.random()) for i in range(5000)]
    ds = ray.data.from_items(
        [{"id": i, "v": v} for i, v in vals]
    ).repartition(13)
    got = top_k(ds, "v", k=10).take_all()
    want = sorted(vals, key=lambda t: -t[1])[:10]
    assert [r["id"] for r in got] == [i for i, _ in want]
    # ascending too
    got_asc = top_k(ds, "v", k=5, descending=False).take_all()
    want_asc = sorted(vals, key=lambda t: t[1])[:5]
    assert [r["id"] for r in got_asc] == [i for i, _ in want_asc]


def test_verify_candidate_pairs(ray_session):
    import ray.data

    from smartreader_ray.functions import ngram_jaccard, verify_candidate_pairs

    docs = {
        1: "the quick brown fox jumps over the lazy dog again and again",
        2: "the quick brown fox jumps over the lazy dog again and once more",
        3: "completely different content about ray data pipelines and arrow",
    }
    ds = ray.data.from_items([{"doc_id": k, "text": v} for k, v in docs.items()])
    out = verify_candidate_pairs(ds, [(1, 2), (1, 3)], ngram=3, threshold=0.5)
    rows = {(r["doc_a"], r["doc_b"]): r for r in out.take_all()}
    assert set(rows) == {(1, 2), (1, 3)}
    # jaccard matches the scalar reference implementation exactly (the
    # raw IEEE quotient — r5 dropped the Python round(j, 6), which the
    # SQL oracle cannot replay)
    assert rows[(1, 2)]["jaccard"] == ngram_jaccard(docs[1], docs[2], 3)
    assert rows[(1, 2)]["is_dup"]
    assert not rows[(1, 3)]["is_dup"]


def test_minhash_dedup_end_to_end(ray_session):
    import ray.data

    from smartreader_ray.functions import minhash_dedup

    base = "word%d " * 50
    near = (base % tuple(range(50))) 
    docs = [
        {"doc_id": 1, "text": near},
        {"doc_id": 2, "text": near.replace("word49", "word99")},  # near-dup of 1
        {"doc_id": 3, "text": "totally unrelated text about something else entirely " * 10},
    ]
    out = minhash_dedup(ray.data.from_items(docs), threshold=0.5).take_all()
    pairs = {(r["doc_a"], r["doc_b"]): r for r in out}
    assert (1, 2) in pairs
    assert pairs[(1, 2)]["is_dup"]
    assert all(not r["is_dup"] for k, r in pairs.items() if k != (1, 2))


def test_ann_ivf_recall(ray_session):
    import numpy as np
    import ray.data

    from smartreader_ray.functions import ann_ivf, ann_topk

    rng = np.random.RandomState(3)
    n, dim = 400, 16
    mat = rng.randn(n, dim)
    ds = ray.data.from_items(
        [{"vec_id": i, "embedding": mat[i].tolist()} for i in range(n)]
    ).repartition(8)
    queries = mat[:3] + rng.randn(3, dim) * 0.01
    exact = ann_topk(ds, queries, k=10)
    # nprobe == n_clusters → IVF degenerates to exact brute force
    full = ann_ivf(ds, queries, k=10, n_clusters=8, nprobe=8, train_sample=256)
    assert exact.select(["query_id", "vec_id", "rank"]).equals(
        full.select(["query_id", "vec_id", "rank"])
    )
    # pruned probe: recall stays high on clustered queries
    pruned = ann_ivf(ds, queries, k=10, n_clusters=8, nprobe=3, train_sample=256)
    exact_set = set(zip(exact.column("query_id").to_pylist(), exact.column("vec_id").to_pylist()))
    pruned_set = set(zip(pruned.column("query_id").to_pylist(), pruned.column("vec_id").to_pylist()))
    recall = len(exact_set & pruned_set) / len(exact_set)
    assert recall >= 0.5, recall


def test_broadcast_join(ray_session):
    import pyarrow as pa
    import ray.data

    from smartreader_ray.functions import broadcast_join

    big = ray.data.from_items(
        [{"k": i % 3, "v": i} for i in range(20)]
    ).repartition(4)
    small = pa.Table.from_pydict(
        {"key": [0, 1], "name": ["zero", "one"], "w": [10.0, 11.0]}
    )
    out = broadcast_join(big, small, key="k", value_cols=["name", "w"], small_key="key")
    rows = out.take_all()
    assert len(rows) == 20
    for r in rows:
        if r["k"] == 0:
            assert r["name"] == "zero" and r["w"] == 10.0
        elif r["k"] == 1:
            assert r["name"] == "one" and r["w"] == 11.0
        else:  # unmatched → left-join nulls
            assert r["name"] is None and r["w"] is None


def test_hash64_matches_scalar_fnv1a():
    """The vectorized _hash64 must stay bit-identical to scalar FNV-1a —
    minhash/simhash signatures (and their pinned tests) depend on it."""
    import numpy as np

    from smartreader_ray.functions.dedup import _hash64

    def scalar(v: str) -> int:
        h = 0xCBF29CE484222325
        for b in v.encode():
            h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return h

    vals = ["", "a", "hello world", "日本語テキスト", "x" * 200, "word1 word2 word3"]
    got = _hash64(vals)
    assert got.dtype == np.uint64
    assert [int(g) for g in got] == [scalar(v) for v in vals]


def test_lsh_bucket_cap_bounds_degenerate_corpus(ray_session):
    """Skew guard: a corpus where every doc lands in the same LSH buckets
    (identical text) must produce a bounded pair count — O(n·cap), never
    the quadratic C(n,2)."""
    import ray.data

    from smartreader_ray.functions import minhash_lsh_candidates

    n, cap, bands = 600, 50, 16
    docs = [{"doc_id": i, "text": "identical boilerplate page text " * 30}
            for i in range(n)]
    cands = minhash_lsh_candidates(
        ray.data.from_items(docs), max_bucket=cap, bands=bands
    )
    n_pairs = cands.count()
    # per band, emission ≤ ceil(n/cap)·C(cap,2) ≈ n·cap/2 (linear in n);
    # the distinct union across bands is bounded by bands× that
    assert 0 < n_pairs <= bands * n * cap // 2
    assert n_pairs < n * (n - 1) // 2 // 3  # well under the quadratic


def test_simhash_bucket_cap(ray_session):
    import ray.data

    from smartreader_ray.functions import simhash_neardup

    n, cap = 400, 40
    docs = [{"doc_id": i, "text": "same exact content repeated " * 20}
            for i in range(n)]
    pairs = simhash_neardup(ray.data.from_items(docs), max_bucket=cap)
    n_pairs = pairs.count()
    assert 0 < n_pairs <= 4 * n * cap
    assert n_pairs < n * (n - 1) // 2


def _clustered_docs(seed, n_templates=6, copies=7, n_toks=40):
    """Seeded corpus of near-duplicate clusters: each template appears
    ``copies`` times, some copies verbatim and some with one token
    swapped, so LSH buckets hold more members than a small cap."""
    import random

    rng = random.Random(seed)
    words = [f"w{j}" for j in range(300)]
    docs = []
    for t in range(n_templates):
        toks = [rng.choice(words) for _ in range(n_toks)]
        for _ in range(copies):
            v = list(toks)
            if rng.random() < 0.5:
                v[rng.randrange(n_toks)] = rng.choice(words)
            docs.append(" ".join(v))
    rng.shuffle(docs)
    return [{"doc_id": i, "text": t} for i, t in enumerate(docs)]


def _naive_bucket_pairs(buckets, cap):
    """Reference pairer: per bucket key, the sorted distinct members,
    sub-split by ``_capped_subgroups`` (salt ``str(key)``), every pair
    within a sub-bucket; counts how many buckets emit each pair."""
    from collections import Counter
    from itertools import combinations

    from smartreader_ray.functions.dedup import _capped_subgroups

    out = Counter()
    for key, members in buckets.items():
        for sub in _capped_subgroups(sorted(members), cap, str(key)):
            out.update(combinations(sub, 2))
    return out


def test_lsh_pairers_match_naive_reference_with_sub_split(ray_session):
    """``minhash_lsh_candidates`` and ``simhash_neardup`` at a cap of 3
    (the over-cap sub-split fires on every cluster bucket) emit exactly
    the pair set of a per-bucket in-process reference."""
    import numpy as np
    import ray.data

    from smartreader_ray.functions import (minhash_lsh_candidates,
                                           simhash_neardup)
    from smartreader_ray.functions.dedup import MinHasher, simhash64

    cap = 3
    docs = _clustered_docs(seed=5)
    ids = [d["doc_id"] for d in docs]
    texts = [d["text"] for d in docs]
    ds = ray.data.from_items(docs).repartition(3)

    h = MinHasher()  # minhash_lsh_candidates' defaults
    keys = h.band_keys_batch(h.signatures_batch(texts)).view(np.int64)
    buckets: dict = {}
    for d, row in zip(ids, keys.tolist()):
        for k in row:
            buckets.setdefault(k, set()).add(d)
    assert max(len(m) for m in buckets.values()) > cap
    want = _naive_bucket_pairs(buckets, cap)
    got = {(r["doc_a"], r["doc_b"]): r["n_bands"]
           for r in minhash_lsh_candidates(ds, max_bucket=cap).take_all()}
    assert got == dict(want)

    sims = {d: simhash64(t, 2) for d, t in zip(ids, texts)}
    buckets = {}
    for d, s in sims.items():
        for c in range(4):
            buckets.setdefault((c << 16) | ((s >> (16 * c)) & 0xFFFF),
                               set()).add(d)
    assert max(len(m) for m in buckets.values()) > cap
    want = {p: bin(sims[p[0]] ^ sims[p[1]]).count("1")
            for p in _naive_bucket_pairs(buckets, cap)}
    want = {p: d for p, d in want.items() if d <= 3}
    got = {(r["doc_a"], r["doc_b"]): r["hamming_min"]
           for r in simhash_neardup(ds, max_bucket=cap).take_all()}
    assert want and got == want


def test_minhash_dedup_distributed_verify_matches_broadcast(ray_session):
    """Forcing the distributed verify join (broadcast_pair_limit=0) must
    give the same verified pairs as the broadcast path."""
    import ray.data

    from smartreader_ray.functions import minhash_dedup

    base = "token%d " * 60
    near = base % tuple(range(60))
    docs = [
        {"doc_id": 1, "text": near},
        {"doc_id": 2, "text": near.replace("token59", "token99")},
        {"doc_id": 3, "text": near.replace("token0", "tokenX")},
        {"doc_id": 4, "text": "completely different content here " * 12},
    ]

    def norm(rows):
        return sorted(
            (r["doc_a"], r["doc_b"], r["jaccard"], r["is_dup"]) for r in rows
        )

    ds = ray.data.from_items(docs)
    via_broadcast = norm(minhash_dedup(ds, threshold=0.5).take_all())
    ds2 = ray.data.from_items(docs)
    via_distributed = norm(
        minhash_dedup(ds2, threshold=0.5, broadcast_pair_limit=0).take_all()
    )
    assert via_broadcast == via_distributed
    assert len(via_broadcast) >= 1


def test_minhash_dedup_empty_schema_follows_doc_id_type(ray_session):
    """ADVICE r01: a string-keyed corpus with no candidates must return a
    string-typed empty (doc_a, doc_b) — not hardcoded int64."""
    import pyarrow as pa
    import ray.data

    from smartreader_ray.functions import minhash_dedup

    docs = [
        {"doc_id": "alpha", "text": "first entirely unique document body " * 8},
        {"doc_id": "beta", "text": "second text with no overlap at all whatsoever " * 8},
        {"doc_id": "gamma", "text": "third subject matter completely distinct again " * 8},
    ]
    out = minhash_dedup(ray.data.from_items(docs))
    schema = out.schema()
    types = dict(zip(schema.names, schema.types))
    assert out.count() == 0
    assert types["doc_a"] == pa.string()
    assert types["doc_b"] == pa.string()


def test_quality_stats_matches_scalar_reference():
    """Vectorized quality_stats must agree with the straightforward
    per-row Python definition on edge cases (empty, None, unicode,
    punctuation, digits, stopwords)."""
    import unicodedata

    import numpy as np
    import pyarrow as pa

    from smartreader_ray.functions import quality_stats
    from smartreader_ray.functions.textstats import _STOPWORDS

    texts = [
        "", "   ", "The quick, brown fox! It was 42 times faster...",
        "no punct here at all", "...!!!", "The the THE of and 123 456",
        "multi\nline\ttext with the stopwords for it",
        "日本語、テキスト。punct mixed the", None, "a",
    ]
    batch = pa.table(
        {"doc_id": list(range(len(texts))),
         "text": pa.array(texts, type=pa.string())}
    )
    got = quality_stats(batch).to_pydict()
    en_stop = _STOPWORDS["en"]
    for i, text in enumerate(texts):
        t = text or ""
        toks = t.split()
        n = len(t)
        punct = sum(1 for c in t if unicodedata.category(c).startswith("P"))
        digit = sum(1 for c in t if c.isdigit())
        assert got["n_chars"][i] == n
        assert got["n_tokens"][i] == len(toks)
        assert abs(got["punct_ratio"][i] - (punct / n if n else 0.0)) < 1e-12
        assert abs(got["digit_ratio"][i] - (digit / n if n else 0.0)) < 1e-12
        if toks:
            assert abs(got["mean_token_len"][i]
                       - sum(len(w) for w in toks) / len(toks)) < 1e-12
            assert abs(got["stopword_ratio_en"][i]
                       - sum(1 for w in toks if w.lower() in en_stop) / len(toks)) < 1e-12


def test_doc_fingerprint_properties():
    """Rolling-hash fingerprint: deterministic, whitespace/case
    normalized, content-sensitive, rolling-composable."""
    import numpy as np
    import pyarrow as pa

    from smartreader_ray.functions import doc_fingerprint
    from smartreader_ray.functions.textstats import _FP_PRIME, _FP_SEED, _fp_powers

    b = pa.table({"doc_id": [0, 1, 2, 3],
                  "text": ["  The QUICK,  brown fox! ",
                           "the quick, brown fox!",
                           "the quick, brown fox?",
                           ""]})
    fp = doc_fingerprint(b).to_pydict()["fingerprint"]
    assert fp == doc_fingerprint(b).to_pydict()["fingerprint"]  # deterministic
    assert fp[0] == fp[1]      # normalization invariance
    assert fp[1] != fp[2]      # sensitivity
    assert fp[3] == int(_FP_SEED)  # empty → seed

    # rolling property: fp(x+y) = fp(x)·p^len(y) + poly(y)  (mod 2^64)
    x, y = "abcd", "efgh"
    fx, fxy = (
        doc_fingerprint(
            pa.table({"doc_id": [0, 1], "text": [x, x + y]})
        ).to_pydict()["fingerprint"]
    )
    pows = _fp_powers(len(y) + 1)
    with np.errstate(over="ignore"):
        poly_y = np.uint64(0)
        for ch in y.encode():
            poly_y = poly_y * _FP_PRIME + np.uint64(ch)
        expect = np.uint64(fx) * pows[len(y)] + poly_y
    assert fxy == int(expect)


def test_ivf_bucketed_layout(ray_session, tmp_path):
    """Cluster-partitioned index: search reads ONLY probed buckets'
    files; nprobe=n_clusters degenerates to exact brute force."""
    import glob
    import os

    import ray.data

    from smartreader_ray.functions import ann_ivf_bucketed, ann_topk, ivf_build_index

    rng = np.random.RandomState(11)
    mat = rng.randn(120, 12)
    table = pa.table(
        {
            "vec_id": pa.array(range(120), type=pa.int64()),
            "embedding": pa.array(
                [list(map(float, row)) for row in mat], type=pa.list_(pa.float32())
            ),
        }
    )
    index_dir = str(tmp_path / "ivf")
    ivf_build_index(ray.data.from_arrow(table), index_dir, n_clusters=6)

    # layout: one directory per cluster, centroids stored
    dirs = sorted(glob.glob(os.path.join(index_dir, "cluster=*")))
    assert 1 < len(dirs) <= 6
    assert os.path.exists(os.path.join(index_dir, "centroids.npy"))

    queries = mat[:3].astype(np.float64)
    # full probe == exact: matches brute-force ann_topk
    exact = ann_topk(ray.data.from_arrow(table), queries, k=5)
    full = ann_ivf_bucketed(index_dir, queries, k=5, nprobe=6)
    assert full.column("vec_id").to_pylist() == exact.column("vec_id").to_pylist()
    assert full.column("rank").to_pylist() == exact.column("rank").to_pylist()

    # nprobe=1 recalls each query's own vector (it sits in the probed
    # bucket by construction)
    pruned = ann_ivf_bucketed(index_dir, queries, k=5, nprobe=1)
    got = {
        (q, v)
        for q, v in zip(
            pruned.column("query_id").to_pylist(), pruned.column("vec_id").to_pylist()
        )
    }
    for qi in range(3):
        assert (qi, qi) in got


def test_sessionize(ray_session):
    """Gap-based sessions: boundaries at gaps > gap_s, per-session
    aggregates, deterministic ordering, skew cap."""
    from datetime import datetime, timedelta

    import ray.data

    from smartreader_ray.functions import sessionize

    t0 = datetime(2024, 1, 1)
    rows = []
    # user 1: three events close together, a 2h gap, two more
    for i, offset_min in enumerate([0, 5, 10, 130, 140]):
        rows.append({"event_id": i, "user_id": 1,
                     "ts": t0 + timedelta(minutes=offset_min), "value": 10.0})
    # user 2: single event
    rows.append({"event_id": 99, "user_id": 2, "ts": t0, "value": 1.5})
    out = sessionize(
        ray.data.from_items(rows), gap_s=1800.0
    ).take_all()
    by_key = {(r["user_id"], r["session_id"]): r for r in out}
    assert set(by_key) == {(1, 1), (1, 2), (2, 1)}
    assert by_key[(1, 1)]["n_events"] == 3
    assert by_key[(1, 1)]["total_value"] == 30.0
    assert by_key[(1, 2)]["n_events"] == 2
    assert by_key[(2, 1)]["n_events"] == 1
    s1 = by_key[(1, 1)]
    assert s1["t_start"] == t0 and s1["t_end"] == t0 + timedelta(minutes=10)

    # skew cap keeps earliest events and still yields sessions
    big = [{"event_id": i, "user_id": 7,
            "ts": t0 + timedelta(seconds=i), "value": 1.0}
           for i in range(500)]
    capped = sessionize(
        ray.data.from_items(big), gap_s=1800.0, max_events_per_user=100
    ).take_all()
    assert len(capped) == 1
    assert capped[0]["n_events"] == 100


def test_fingerprint_dedup(ray_session):
    """Full-content dedup on the rolling-hash fingerprint: whitespace/
    case-normalized duplicates collapse, distinct content survives."""
    import ray.data

    from smartreader_ray.functions import fingerprint_dedup

    docs = [
        {"doc_id": 1, "text": "The quick brown fox jumps over the dog."},
        {"doc_id": 2, "text": "  the QUICK  brown fox jumps over the dog. "},
        {"doc_id": 3, "text": "The quick brown fox jumps over the dog."},
        {"doc_id": 4, "text": "entirely different content here"},
    ]
    out = fingerprint_dedup(ray.data.from_items(docs)).take_all()
    groups = {r["keep_doc_id"]: r["n_dups"] for r in out}
    assert groups == {1: 3, 4: 1}


def test_bpe_token_stats():
    import pyarrow as pa

    from smartreader_ray.functions import bpe_token_stats

    texts = [
        "Hello world",            # ["Hello", " world"] = 2
        "it's 2024, really!",     # it + 's + " 2024" + "," + " really" + "!" = 6
        "",                       # 0
        "one",                    # 1
    ]
    batch = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    out = bpe_token_stats(batch)
    assert out.column("n_bpe_tokens").to_pylist() == [2, 6, 0, 1]


def test_approx_distinct_hll(ray_session):
    """HyperLogLog: ~1.6 % standard error at b=12; partials merge
    associatively; per-key variant tracks exact COUNT(DISTINCT)."""
    import ray.data

    from smartreader_ray.functions import approx_distinct, approx_distinct_by

    n = 20_000
    rows = [{"k": "a" if i % 3 else "b", "v": f"user-{i % 7001}"}
            for i in range(n)]
    ds = ray.data.from_items(rows).repartition(8)
    est = approx_distinct(ds, "v", b=12)
    assert abs(est - 7001) / 7001 < 0.05

    per_key = {r["k"]: r["approx_distinct"]
               for r in approx_distinct_by(ds, "k", "v", b=12).take_all()}
    exact_a = len({f"user-{i % 7001}" for i in range(n) if i % 3})
    exact_b = len({f"user-{i % 7001}" for i in range(n) if not i % 3})
    assert abs(per_key["a"] - exact_a) / exact_a < 0.05
    assert abs(per_key["b"] - exact_b) / exact_b < 0.05


def test_stratified_sample(ray_session):
    """Deterministic per-key sample: stable across runs and partitioning,
    correct per-key counts, subset of the input."""
    import ray.data

    from smartreader_ray.functions import stratified_sample

    rows = [{"doc_id": i, "lang": "en" if i % 2 else "de"} for i in range(200)]

    def norm(out):
        return sorted((r["lang"], r["doc_id"]) for r in out)

    a = norm(stratified_sample(
        ray.data.from_items(rows), "lang", 10).take_all())
    b = norm(stratified_sample(
        ray.data.from_items(rows).repartition(7), "lang", 10).take_all())
    assert a == b  # partitioning-independent
    langs = {}
    for lang, i in a:
        langs.setdefault(lang, []).append(i)
        assert (i % 2 == 1) == (lang == "en")
    assert len(langs["en"]) == 10 and len(langs["de"]) == 10

    # n larger than the group: whole group comes back
    c = norm(stratified_sample(
        ray.data.from_items(rows[:6]), "lang", 50).take_all())
    assert len(c) == 6

    # rows without a key are one group, sampled like the others
    t = pa.Table.from_pylist(
        rows[:20] + [{"doc_id": 100 + i, "lang": None} for i in range(5)])
    for ds in (ray.data.from_arrow(t), ray.data.from_arrow(t).repartition(3)):
        got = stratified_sample(ds, "lang", 3).take_all()
        assert sorted(r["doc_id"] for r in got if r["lang"] is None) == [
            101, 103, 104]


def test_hash_join(ray_session):
    """Big-big inner equi-join: cross product per key, unmatched keys
    dropped, hot-key guard and column-collision checks raise."""
    import ray.data

    from smartreader_ray.functions import hash_join

    left = ray.data.from_items(
        [
            {"k": 1, "lv": "a"}, {"k": 1, "lv": "b"},
            {"k": 2, "lv": "c"}, {"k": 9, "lv": "z"},
        ]
    )
    right = ray.data.from_items(
        [
            {"k2": 1, "rv": 10.0}, {"k2": 1, "rv": 20.0},
            {"k2": 2, "rv": 30.0}, {"k2": 7, "rv": 99.0},
        ]
    )
    out = hash_join(left, right, "k", "k2", ["lv"], ["rv"]).take_all()
    got = sorted((r["lv"], r["rv"]) for r in out)
    # key 1: 2×2 cross product; key 2: 1×1; keys 9/7 unmatched → dropped
    assert got == [("a", 10.0), ("a", 20.0), ("b", 10.0), ("b", 20.0), ("c", 30.0)]

    with pytest.raises(Exception, match="collision"):
        hash_join(left, right, "k", "k2", ["lv"], ["lv"])

    # hot-key guard: key 1 would emit 4 pairs > cap 2 → the job fails loudly
    import ray.exceptions

    guarded = hash_join(left, right, "k", "k2", ["lv"], ["rv"],
                        max_pairs_per_key=2)
    with pytest.raises(Exception, match="salt the key|RayTaskError|pairs"):
        guarded.take_all()


def test_hash_join_left_and_anti(ray_session):
    import ray.data

    from smartreader_ray.functions import hash_join

    left = ray.data.from_items(
        [{"k": 1, "lv": "a"}, {"k": 2, "lv": "b"}, {"k": 9, "lv": "z"}]
    )
    right = ray.data.from_items([{"k2": 1, "rv": 10.0}, {"k2": 7, "rv": 99.0}])

    out = hash_join(left, right, "k", "k2", ["lv"], ["rv"], how="left").take_all()
    got = sorted(((r["lv"], r["rv"]) for r in out), key=lambda t: t[0])
    assert got == [("a", 10.0), ("b", None), ("z", None)]

    anti = hash_join(left, right, "k", "k2", ["lv"], ["rv"],
                     how="left_anti").take_all()
    assert sorted(r["lv"] for r in anti) == ["b", "z"]
    assert all(set(r) == {"lv"} for r in anti)

    with pytest.raises(ValueError, match="how"):
        hash_join(left, right, "k", "k2", ["lv"], ["rv"], how="outer")


def test_asof_join_backward_and_forward(ray_session):
    import ray.data

    from smartreader_ray.functions import asof_join

    left = ray.data.from_items(
        [
            {"k": 1, "t": 10, "l": "a"},
            {"k": 1, "t": 20, "l": "b"},
            {"k": 1, "t": 5, "l": "c"},   # before any right row
            {"k": 2, "t": 100, "l": "d"},  # key with no right rows
        ]
    )
    right = ray.data.from_items(
        [
            {"k": 1, "t": 8, "r": "r8"},
            {"k": 1, "t": 15, "r": "r15"},
            {"k": 1, "t": 20, "r": "r20"},
        ]
    )
    out = asof_join(left, right, by="k", on="t",
                    left_cols=["l"], right_cols=["r"]).take_all()
    got = {r["l"]: r["r"] for r in out}
    # backward + allow_equal: latest right at-or-before each left
    assert got == {"a": "r8", "b": "r20", "c": None, "d": None}

    strict = asof_join(left, right, by="k", on="t", allow_equal=False,
                       left_cols=["l"], right_cols=["r"]).take_all()
    assert {r["l"]: r["r"] for r in strict}["b"] == "r15"  # 20 excluded

    fwd = asof_join(left, right, by="k", on="t", direction="forward",
                    left_cols=["l"], right_cols=["r"]).take_all()
    assert {r["l"]: r["r"] for r in fwd} == {
        "a": "r15", "b": "r20", "c": "r8", "d": None
    }

    with pytest.raises(ValueError, match="direction"):
        asof_join(left, right, by="k", on="t", direction="nearest",
                  left_cols=["l"], right_cols=["r"])
    with pytest.raises(ValueError, match="collision"):
        asof_join(left, right, by="k", on="t",
                  left_cols=["l"], right_cols=["l"])


@pytest.mark.parametrize("on_type", [pa.int64(), pa.timestamp("us")])
def test_asof_join_naive_reference(ray_session, on_type):
    """Seeded differential against a per-row Python scan: several keys
    over three blocks, many ties on ``on`` (backward picks the largest
    right payload among equal ``on``, forward the smallest), null
    by/on on both sides, both directions x allow_equal."""
    import ray.data

    from smartreader_ray.functions import asof_join

    rng = np.random.default_rng(23)

    def side(n, id_name, id_base):
        def nullable(vals):
            return [None if rng.random() < 0.1 else int(v) for v in vals]

        return pa.table({
            "k": pa.array(nullable(rng.integers(0, 6, n)), type=pa.int64()),
            "t": pa.array(nullable(rng.integers(0, 40, n)),
                          type=pa.int64()).cast(on_type),
            id_name: pa.array(id_base + rng.permutation(n), type=pa.int64()),
        })

    lt, rt = side(120, "lid", 0), side(150, "rv", 1000)

    def blocks(t):
        return ray.data.from_arrow([t.slice(0, 40), t.slice(40, 40),
                                    t.slice(80)])

    def rows(t, id_name):
        t = t.set_column(1, "t", t.column("t").cast(pa.int64()))
        return list(zip(*(t.column(c).to_pylist()
                          for c in ("k", "t", id_name))))

    lrows, rrows = rows(lt, "lid"), rows(rt, "rv")
    for direction in ("backward", "forward"):
        for allow_equal in (True, False):
            want = {}
            for k, t, lid in lrows:
                if k is None or t is None:
                    want[lid] = None
                    continue
                if direction == "backward":
                    c = [(rt_, rv) for rk, rt_, rv in rrows
                         if rk == k and rt_ is not None
                         and (rt_ <= t if allow_equal else rt_ < t)]
                    want[lid] = max(c)[1] if c else None
                else:
                    c = [(rt_, rv) for rk, rt_, rv in rrows
                         if rk == k and rt_ is not None
                         and (rt_ >= t if allow_equal else rt_ > t)]
                    want[lid] = min(c)[1] if c else None
            out = asof_join(blocks(lt), blocks(rt), by="k", on="t",
                            left_cols=["lid"], right_cols=["rv"],
                            direction=direction,
                            allow_equal=allow_equal).take_all()
            got = {r["lid"]: r["rv"] for r in out}
            assert len(out) == len(lrows)
            assert got == want, (direction, allow_equal)


def test_approx_quantile_accuracy(ray_session):
    import numpy as np
    import ray.data

    from smartreader_ray.functions import approx_quantile_by

    rng = np.random.default_rng(7)
    vals_a = rng.normal(100.0, 15.0, 50_000)
    vals_b = rng.exponential(10.0, 30_000)
    items = pa.table(
        {
            "key": ["a"] * len(vals_a) + ["b"] * len(vals_b),
            "v": np.concatenate([vals_a, vals_b]),
        }
    )
    out = approx_quantile_by(
        ray.data.from_arrow(items).repartition(8), "key", "v",
        qs=(0.5, 0.9, 0.99),
    ).take_all()
    got = {(r["key"], r["q"]): r["value"] for r in out}
    for key, vals in (("a", vals_a), ("b", vals_b)):
        spread = np.quantile(vals, 0.99) - np.quantile(vals, 0.01)
        for q in (0.5, 0.9, 0.99):
            exact = np.quantile(vals, q)
            # rank error O(1/k) → value error well under 2 % of spread
            assert abs(got[(key, q)] - exact) < 0.02 * spread, (key, q)


def test_exact_quantile_by_matches_quantile_disc(ray_session):
    """exact_quantile_by must reproduce quantile_disc/percentile_disc
    semantics (smallest value with cumulative fraction >= q, i.e. the
    element at sorted index ceil(q*n)-1) exactly, across blocks, for
    odd and even counts and heavy duplicate values."""
    import numpy as np
    import ray.data

    from smartreader_ray.functions import exact_quantile_by

    rng = np.random.default_rng(11)
    # integer-valued columns with many duplicates, one even-count key
    vals_a = rng.integers(0, 200, 10_001)   # odd n
    vals_b = rng.integers(50, 60, 4_000)    # even n, 10 distinct values
    items = pa.table(
        {
            "key": ["a"] * len(vals_a) + ["b"] * len(vals_b),
            "v": np.concatenate([vals_a, vals_b]).astype(np.int64),
        }
    )
    qs = (0.0, 0.25, 0.5, 0.9, 1.0)
    out = exact_quantile_by(
        ray.data.from_arrow(items).repartition(7), "key", "v", qs=qs
    ).take_all()
    got = {(r["key"], r["q"]): r["value"] for r in out}
    for key, vals in (("a", vals_a), ("b", vals_b)):
        s = np.sort(vals)
        for q in qs:
            expect = float(s[max(int(np.ceil(len(s) * q)) - 1, 0)])
            assert got[(key, q)] == expect, (key, q)


def test_duplicate_passages(ray_session):
    import ray.data

    from smartreader_ray.functions import duplicate_passages

    shared = "one two three four"  # the 4-token passage docs 1+2 share
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": [
                f"{shared} alpha beta",
                f"gamma {shared} delta",
                "totally unrelated words here now",
            ],
        }
    )
    out = duplicate_passages(
        ray.data.from_arrow(t), window=4, min_docs=2
    ).take_all()
    got = {r["win"]: r["n_docs"] for r in out}
    assert got == {shared: 2}

    # within-doc repetition must NOT count as cross-doc duplication
    rep = pa.table(
        {
            "doc_id": pa.array([1], type=pa.int64()),
            "text": ["x y x y x y x y"],
        }
    )
    assert duplicate_passages(
        ray.data.from_arrow(rep), window=2, min_docs=2
    ).count() == 0


def test_weighted_mix(ray_session):
    import ray.data

    from smartreader_ray.functions import weighted_mix

    n = 2000
    t = pa.table(
        {
            "doc_id": pa.array(list(range(n)), type=pa.int64()),
            "source": ["a" if i % 2 == 0 else "b" for i in range(n)],
        }
    )
    ds = ray.data.from_arrow(t)
    out = weighted_mix(ds, {"a": 1.0, "b": 0.25}).take_all()
    a = [r for r in out if r["source"] == "a"]
    b = [r for r in out if r["source"] == "b"]
    assert len(a) == n // 2  # weight 1.0 keeps everything
    assert abs(len(b) / (n // 2) - 0.25) < 0.05  # md5 draw ≈ uniform

    # reproducible across partitionings
    again = weighted_mix(
        ds.repartition(7), {"a": 1.0, "b": 0.25}
    ).take_all()
    assert sorted(r["doc_id"] for r in again) == sorted(
        r["doc_id"] for r in out
    )

    # weight 0 drops the source entirely
    none = weighted_mix(ds, {"a": 0.0}, default_weight=0.0).count()
    assert none == 0


def test_top_k_by(ray_session):
    import ray.data

    from smartreader_ray.functions import top_k_by

    t = pa.table(
        {
            "k": ["a"] * 6 + ["b"] * 3 + [None] * 3,
            "v": [5.0, 1.0, 9.0, 9.0, 3.0, 7.0, 2.0, 8.0, 8.0,
                  4.0, 6.0, 6.0],
            "id": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
        }
    )
    out = top_k_by(
        ray.data.from_arrow(t).repartition(4), "k", "v", k=2, tie_col="id"
    ).take_all()
    got = {(r["k"], r["rank"]): (r["v"], r["id"]) for r in out}
    # ties break on ascending id: (9.0, id 3) before (9.0, id 4); the
    # null key is one group
    assert got == {
        ("a", 1): (9.0, 3), ("a", 2): (9.0, 4),
        ("b", 1): (8.0, 8), ("b", 2): (8.0, 9),
        (None, 1): (6.0, 11), (None, 2): (6.0, 12),
    }

    asc = top_k_by(
        ray.data.from_arrow(t), "k", "v", k=1, descending=False, tie_col="id"
    ).take_all()
    assert {(r["k"], r["v"]) for r in asc} == {("a", 1.0), ("b", 2.0),
                                               (None, 4.0)}


def test_connected_components(ray_session, size_budget, monkeypatch):
    import ray.data

    from smartreader_ray.functions import connected_components, dedup

    pairs = ray.data.from_items(
        [{"doc_a": 5, "doc_b": 3}, {"doc_a": 3, "doc_b": 9},
         {"doc_a": 20, "doc_b": 21}, {"doc_a": 9, "doc_b": 5}]
    )
    out = connected_components(pairs).take_all()
    got = {r["doc_id"]: r["cluster_id"] for r in out}
    assert got == {3: 3, 5: 3, 9: 3, 20: 20, 21: 20}

    # an edge list past the size budget goes to label propagation, with
    # the same clusters, instead of raising
    calls = []
    lp = dedup.label_propagation_components
    monkeypatch.setattr(dedup, "label_propagation_components",
                        lambda *a, **k: calls.append(a) or lp(*a, **k))
    size_budget(pairs.size_bytes() - 1)
    got = {r["doc_id"]: r["cluster_id"]
           for r in connected_components(pairs).take_all()}
    assert got == {3: 3, 5: 3, 9: 3, 20: 20, 21: 20}
    assert len(calls) == 1


def test_passage_clusters(ray_session):
    import ray.data

    from smartreader_ray.functions import passage_clusters

    shared1 = "a b c d"
    shared2 = "p q r s"
    docs = [
        {"doc_id": 1, "text": f"{shared1} x1"},
        {"doc_id": 2, "text": f"x2 {shared1} and {shared2}"},  # bridges
        {"doc_id": 3, "text": f"{shared2} x3"},
        {"doc_id": 7, "text": "nothing in common with others"},
    ]
    out = passage_clusters(
        ray.data.from_items(docs).repartition(2), window=4
    ).take_all()
    got = {r["doc_id"]: r["cluster_id"] for r in out}
    # 1-2 share shared1, 2-3 share shared2 → one component rooted at 1
    assert got == {1: 1, 2: 1, 3: 1}
    assert 7 not in got  # isolated docs don't appear


def test_label_propagation_matches_union_find(ray_session, size_budget):
    import ray.data

    from smartreader_ray.functions import (
        connected_components,
        label_propagation_components,
    )

    # small-diameter graph: each Ray round costs several shuffles, so the
    # test graph converges in ~2 rounds (star + chain link + isolated pair)
    edges = [
        {"doc_a": 3, "doc_b": 1}, {"doc_a": 1, "doc_b": 4},
        {"doc_a": 1, "doc_b": 2}, {"doc_a": 5, "doc_b": 4},
        {"doc_a": 10, "doc_b": 11},
    ]
    ds = ray.data.from_items(edges).repartition(2)
    uf = {r["doc_id"]: r["cluster_id"]
          for r in connected_components(ds).take_all()}
    lp = {r["doc_id"]: r["cluster_id"]
          for r in label_propagation_components(ds).take_all()}
    assert uf == lp
    assert lp == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 10: 10, 11: 10}
    # force the fully-distributed regime (shuffle join + moved-label
    # fixpoint) — must agree with both other paths
    size_budget(0)
    dist = {r["doc_id"]: r["cluster_id"]
            for r in label_propagation_components(ds).take_all()}
    assert dist == lp


def test_label_propagation_deep_chain(ray_session):
    # a 40-node path graph: diameter >> 1 exercises the driver-side path
    # compression (broadcast regime) and multi-round convergence
    import ray.data

    from smartreader_ray.functions import (
        connected_components,
        label_propagation_components,
    )

    edges = [{"doc_a": i, "doc_b": i + 1} for i in range(40)]
    ds = ray.data.from_items(edges).repartition(3)
    uf = {r["doc_id"]: r["cluster_id"]
          for r in connected_components(ds).take_all()}
    lp = {r["doc_id"]: r["cluster_id"]
          for r in label_propagation_components(ds).take_all()}
    assert uf == lp and set(lp.values()) == {0}


def test_label_propagation_distributed_pointer_jump(ray_session,
                                                   size_budget):
    # forced distributed regime on a diameter-63 path graph: the
    # pointer-jump self-join (label ← label(label)) must converge in
    # ≤ ⌈log₂ d⌉+1 Ray rounds, not O(d) (VERDICT r4 #7)
    import math

    import ray.data

    from smartreader_ray.functions import label_propagation_components

    d = 63
    edges = [{"doc_a": i, "doc_b": i + 1} for i in range(d)]
    ds = ray.data.from_items(edges).repartition(3)
    size_budget(0)
    stats: dict = {}
    lp = {r["doc_id"]: r["cluster_id"]
          for r in label_propagation_components(
              ds, stats=stats).take_all()}
    assert set(lp.values()) == {0} and len(lp) == d + 1
    assert stats["regime"] == "distributed"
    # +1 for the fixpoint-detection round (no label moved)
    assert stats["rounds"] <= math.ceil(math.log2(d)) + 1, stats


# ---------------------------------------------------------------------------
# Round 3: range join, sliding windows, pivot, exact distinct, jaccard pairs
# ---------------------------------------------------------------------------
def _events_table():
    # 2 users; user 1 has a burst at t=0,30,70,200s; user 2 at t=0,500s
    base = np.datetime64("2024-01-01T00:00:00", "us")
    offs = [0, 30, 70, 200, 0, 500]
    users = [1, 1, 1, 1, 2, 2]
    return pa.table(
        {
            "event_id": pa.array(range(6), type=pa.int64()),
            "user_id": pa.array(users, type=pa.int64()),
            "ts": pa.array([base + np.timedelta64(o, "s") for o in offs],
                           type=pa.timestamp("us")),
            "value": pa.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            "event_type": ["a", "b", "a", "b", "a", "b"],
        }
    )


def test_range_join_count_and_pairs(ray_session):
    import ray.data

    from smartreader_ray.functions import range_join

    ds = ray.data.from_arrow(_events_table())
    us = 1_000_000
    # events strictly after me, within 100s
    counts = {
        r["event_id"]: r["n_matches"]
        for r in range_join(
            ds, ds, by="user_id", on="ts", left_cols=["event_id"],
            right_cols=[], lower=0, upper=100 * us, include_lower=False,
            mode="count",
        ).take_all()
    }
    assert counts == {0: 2, 1: 1, 2: 0, 3: 0, 4: 0, 5: 0}

    pairs = range_join(
        ds, ds, by="user_id", on="ts", left_cols=["event_id"],
        right_cols=["value"], lower=0, upper=100 * us,
        include_lower=False, mode="pairs",
    ).take_all()
    got = {(r["event_id"], r["value"]) for r in pairs}
    assert got == {(0, 2.0), (0, 3.0), (1, 3.0)}

    # open lower bound: everything at-or-before within the key
    before = {
        r["event_id"]: r["n_matches"]
        for r in range_join(
            ds, ds, by="user_id", on="ts", left_cols=["event_id"],
            right_cols=[], lower=None, upper=0, mode="count",
        ).take_all()
    }
    assert before == {0: 1, 1: 2, 2: 3, 3: 4, 4: 1, 5: 2}


def test_range_join_rejects_float_on(ray_session):
    # ADVICE r3: a float `on` column was silently truncated toward zero
    # (r.on=1.9 vs bound 1.5 compared as 1) — must raise instead.
    import ray.data

    from smartreader_ray.functions import range_join

    t = pa.table(
        {
            "user_id": pa.array([1, 1], type=pa.int64()),
            "ts": pa.array([1.9, 1.5], type=pa.float64()),
            "event_id": pa.array([0, 1], type=pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t)
    with pytest.raises(Exception) as ei:
        range_join(ds, ds, by="user_id", on="ts", left_cols=["event_id"],
                   right_cols=[], lower=0, upper=1, mode="count").take_all()
    assert "integer or timestamp" in str(ei.value)


def test_range_join_brute_force_equivalence(ray_session):
    import itertools

    import ray.data

    from smartreader_ray.functions import range_join

    rng = np.random.default_rng(7)
    n = 300
    base = np.datetime64("2024-01-01", "us")
    tbl = pa.table(
        {
            "event_id": pa.array(range(n), type=pa.int64()),
            "user_id": pa.array(rng.integers(0, 10, n), type=pa.int64()),
            "ts": pa.array(
                [base + np.timedelta64(int(o), "ms")
                 for o in rng.integers(0, 60_000, n)],
                type=pa.timestamp("us"),
            ),
        }
    )
    us = 1_000_000
    lo, hi = -2 * us, 5 * us
    ds = ray.data.from_arrow(tbl)
    got = {
        r["event_id"]: r["n_matches"]
        for r in range_join(
            ds, ds, by="user_id", on="ts", left_cols=["event_id"],
            right_cols=[], lower=lo, upper=hi, mode="count",
        ).take_all()
    }
    uid = tbl.column("user_id").to_pylist()
    ts = tbl.column("ts").to_numpy().astype("datetime64[us]").astype(np.int64)
    want = {
        i: sum(
            1 for j in range(n)
            if uid[j] == uid[i] and ts[i] + lo <= ts[j] <= ts[i] + hi
        )
        for i in range(n)
    }
    assert got == want


def test_sliding_window_matches_brute(ray_session):
    import ray.data

    from smartreader_ray.functions import sliding_window

    tbl = _events_table()
    out = sliding_window(
        ray.data.from_arrow(tbl), window_s=120, slide_s=60,
        key_col="event_type",
    ).take_all()
    got = {
        (r["event_type"], str(r["window_start"])): (r["n_events"], r["sum_value"])
        for r in out
    }
    # every event appears in exactly window/slide = 2 windows
    assert sum(v[0] for v in got.values()) == 2 * tbl.num_rows
    # a-events in [0,120): u1@0 (1.0), u1@70 (3.0), u2@0 (5.0)
    assert got[("a", "2024-01-01 00:00:00")] == (3, 9.0)
    # window starting at -60s catches only t in [-60,60): events at t=0,30
    assert got[("a", "2023-12-31 23:59:00")] == (2, 6.0)  # a@0 (two users)


def test_pivot_counts_and_sums(ray_session):
    import ray.data

    from smartreader_ray.functions import pivot_counts

    ds = ray.data.from_arrow(_events_table())
    wide = {
        r["user_id"]: r
        for r in pivot_counts(
            ds, "user_id", "event_type", ["a", "b", "zzz"]
        ).take_all()
    }
    assert wide[1]["n_a"] == 2 and wide[1]["n_b"] == 2 and wide[1]["n_zzz"] == 0
    assert wide[2]["n_a"] == 1 and wide[2]["n_b"] == 1

    sums = {
        r["user_id"]: r
        for r in pivot_counts(
            ds, "user_id", "event_type", ["a", "b"], value_col="value"
        ).take_all()
    }
    assert sums[1]["n_a"] == 4.0 and sums[1]["n_b"] == 6.0
    assert sums[2]["n_a"] == 5.0 and sums[2]["n_b"] == 6.0


def test_exact_distinct_by(ray_session):
    import ray.data

    from smartreader_ray.functions import exact_distinct_by

    ds = ray.data.from_arrow(_events_table())
    out = {
        r["event_type"]: r["n_distinct"]
        for r in exact_distinct_by(ds, "event_type", "user_id").take_all()
    }
    assert out == {"a": 2, "b": 2}


def test_ngram_jaccard_pairs_exact(ray_session):
    import ray.data

    from smartreader_ray.functions import ngram_jaccard_pairs

    shared = "alpha beta gamma delta epsilon zeta eta theta"
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": [
                shared + " one two three",
                shared + " one two four",
                "totally different prefix here with other words entirely",
            ],
        }
    )
    out = ngram_jaccard_pairs(
        ray.data.from_arrow(docs), prefix_tokens=8, n=2
    ).take_all()
    assert len(out) == 1
    r = out[0]
    assert (r["doc_a"], r["doc_b"]) == (1, 2)
    # doc1 bigrams: 10, doc2 bigrams: 10, shared: the 8 within/joining the
    # common 9-token run ("alpha beta".."theta one") plus "one two" = 9
    assert r["n_inter"] == 9
    assert r["n_union"] == 11
    # empty/1-token docs: empty gram sets, zero intersection AND union
    tiny = pa.table(
        {
            "doc_id": pa.array([1, 2], type=pa.int64()),
            "text": ["solo", "solo"],
        }
    )
    out2 = ngram_jaccard_pairs(
        ray.data.from_arrow(tiny), prefix_tokens=8, n=2
    ).take_all()
    assert out2 == [{"doc_a": 1, "doc_b": 2, "n_inter": 0, "n_union": 0}]


# ---------------------------------------------------------------------------
# Round 4: longest-common-run substring dedup
# ---------------------------------------------------------------------------
def _lcs_tokens_brute(a: list, b: list) -> int:
    """Classic O(n·m) longest-common-substring DP over token lists."""
    best = 0
    prev = [0] * (len(b) + 1)
    for i in range(1, len(a) + 1):
        cur = [0] * (len(b) + 1)
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                cur[j] = prev[j - 1] + 1
                best = max(best, cur[j])
        prev = cur
    return best


def test_longest_common_runs_planted(ray_session):
    import ray.data

    from smartreader_ray.functions import longest_common_runs

    boiler = " ".join(f"b{i}" for i in range(20))  # 20-token shared block
    docs = [
        {"doc_id": 1, "text": f"u1 u2 u3 {boiler} v1 v2"},
        {"doc_id": 2, "text": f"w1 {boiler} w2 w3 w4 w5"},
        {"doc_id": 3, "text": " ".join(f"x{i}" for i in range(30))},
        # exactly one shared 8-window with doc 1 (first 8 boiler tokens)
        {"doc_id": 4, "text": "y1 y2 " + " ".join(f"b{i}" for i in range(8)) + " z9"},
    ]
    out = {(r["doc_a"], r["doc_b"]): r["lcs_tokens"]
           for r in longest_common_runs(
               ray.data.from_items(docs).repartition(2), window=8
           ).take_all()}
    assert out[(1, 2)] == 20
    assert out[(1, 4)] == 8
    assert out[(2, 4)] == 8
    assert not any(3 in k for k in out)


def test_longest_common_runs_matches_brute_force(ray_session):
    import random

    import ray.data

    from smartreader_ray.functions import longest_common_runs

    rng = random.Random(4242)
    vocab = [f"t{i}" for i in range(12)]  # tiny vocab → frequent collisions
    toks = {d: [rng.choice(vocab) for _ in range(rng.randint(8, 60))]
            for d in range(10)}
    docs = [{"doc_id": d, "text": " ".join(ts)} for d, ts in toks.items()]
    W = 4
    got = {(r["doc_a"], r["doc_b"]): r["lcs_tokens"]
           for r in longest_common_runs(
               ray.data.from_items(docs).repartition(3), window=W
           ).take_all()}
    for a in range(10):
        for b in range(a + 1, 10):
            expect = _lcs_tokens_brute(toks[a], toks[b])
            if expect >= W:
                assert got[(a, b)] == expect, (a, b)
            else:
                assert (a, b) not in got, (a, b)


def test_longest_common_runs_min_run_filter_and_guard(ray_session):
    import pytest
    import ray.data

    from smartreader_ray.functions import longest_common_runs

    boiler = " ".join(f"b{i}" for i in range(12))
    docs = [{"doc_id": i, "text": f"s{i} {boiler} e{i}"} for i in range(6)]
    ds = ray.data.from_items(docs)
    out = longest_common_runs(ds, window=8, min_run_tokens=12).take_all()
    assert len(out) == 15 and all(r["lcs_tokens"] == 12 for r in out)
    with pytest.raises(Exception) as ei:
        longest_common_runs(ds, window=8, max_rows_per_window=3).take_all()
    assert "degenerate" in str(ei.value)


def test_funnel_regimes_agree_and_match_duckdb(ray_session, size_budget):
    import duckdb
    import pyarrow as pa
    import ray.data

    from smartreader_ray.functions.windows import funnel

    import random
    rng = random.Random(3)
    n = 400
    base = 1_700_000_000_000_000  # us epoch
    rows = {
        "user_id": pa.array([rng.randrange(12) for _ in range(n)],
                            type=pa.int64()),
        "ts": pa.array([base + i * 1_000_000 for i in range(n)],
                       type=pa.timestamp("us")),
        "event_type": [rng.choice(["view", "click", "purchase", "other"])
                       for _ in range(n)],
    }
    t = pa.table(rows)

    ds = ray.data.from_arrow(t).repartition(5)

    def run():
        out = funnel(ds, steps=("view", "click", "purchase"))
        return pa.concat_tables(
            list(out.iter_batches(batch_format="pyarrow",
                                  batch_size=None))
        ).sort_by("user_id")

    broad = run()
    size_budget(0)  # the frontier does not fit: the distributed regime
    dist = run()
    assert broad.equals(dist.cast(broad.schema))

    con = duckdb.connect()
    con.register("events", t)
    want = con.execute("""
        WITH s1 AS (SELECT user_id, MIN(ts) AS t_view FROM events
                    WHERE event_type='view' GROUP BY user_id),
        s2 AS (SELECT e.user_id, MIN(e.ts) AS t_click FROM events e
               JOIN s1 ON s1.user_id=e.user_id
               WHERE e.event_type='click' AND e.ts > s1.t_view
               GROUP BY e.user_id),
        s3 AS (SELECT e.user_id, MIN(e.ts) AS t_purchase FROM events e
               JOIN s2 ON s2.user_id=e.user_id
               WHERE e.event_type='purchase' AND e.ts > s2.t_click
               GROUP BY e.user_id)
        SELECT s1.user_id, s1.t_view, s2.t_click, s3.t_purchase
        FROM s1 LEFT JOIN s2 ON s2.user_id=s1.user_id
        LEFT JOIN s3 ON s3.user_id=s1.user_id ORDER BY s1.user_id
    """).arrow()
    assert broad.num_rows == want.num_rows
    for c in ("user_id", "t_view", "t_click", "t_purchase"):
        assert broad.column(c).to_pylist() == want.column(c).to_pylist(), c


def test_fixed_width_histogram_clamps_and_sums(ray_session):
    import pyarrow as pa
    import ray.data

    from smartreader_ray.functions.reshape import fixed_width_histogram

    t = pa.table(
        {"value": pa.array([-5.0, 0.0, 9.99, 10.0, 499.9, 520.0, None],
                           type=pa.float64())}
    )
    out = pa.concat_tables(
        list(
            fixed_width_histogram(ray.data.from_arrow(t).repartition(3),
                                  "value", 0.0, 500.0, 50)
            .iter_batches(batch_format="pyarrow", batch_size=None)
        )
    )
    got = dict(zip(out.column("bin").to_pylist(),
                   out.column("n").to_pylist()))
    # -5 clamps into bin 0; 520 clamps into bin 49; null dropped
    assert got == {0: 3, 1: 1, 49: 2}
    lo = dict(zip(out.column("bin").to_pylist(),
                  out.column("bin_lo").to_pylist()))
    assert lo == {0: 0.0, 1: 10.0, 49: 490.0}


def test_cumulative_by_running_sums(ray_session):
    import pyarrow as pa
    import ray.data

    from smartreader_ray.functions.windows import cumulative_by

    base = 1_700_000_000_000_000
    t = pa.table(
        {
            "user_id": pa.array([2, 1, 1, 2, 1], type=pa.int64()),
            "ts": pa.array([base + 5, base + 3, base + 1, base + 2,
                            base + 4], type=pa.timestamp("us")),
            "value": pa.array([1.25, 0.1, 2.0, 0.05, 10.0],
                              type=pa.float64()),
        }
    )
    out = pa.concat_tables(
        list(
            cumulative_by(ray.data.from_arrow(t).repartition(3))
            .iter_batches(batch_format="pyarrow", batch_size=None)
        )
    )
    # user 1 by ts: 2.0 (200), 0.1 (10), 10.0 (1000); user 2: 0.05, 1.25
    assert out.column("user_id").to_pylist() == [1, 1, 1, 2, 2]
    assert out.column("amount_cents").to_pylist() == [200, 10, 1000, 5,
                                                      125]
    assert out.column("running_cents").to_pylist() == [200, 210, 1210,
                                                       5, 130]
    assert out.column("running_n").to_pylist() == [1, 2, 3, 1, 2]


def test_json_field_agg_drops_nonmatching(ray_session):
    import pyarrow as pa
    import ray.data

    from smartreader_ray.functions.reshape import json_field_agg

    t = pa.table(
        {
            "g": ["a", "a", "b", "b", "a"],
            "props": ['{"k": 3}', '{"k": 10}', '{"x": 1}', '{"k": 7}',
                      None],
        }
    )
    out = pa.concat_tables(
        list(
            json_field_agg(ray.data.from_arrow(t).repartition(3),
                           "props", "k", "g")
            .iter_batches(batch_format="pyarrow", batch_size=None)
        )
    )
    rows = {
        g: (n, s, lo, hi)
        for g, n, s, lo, hi in zip(out.column("g").to_pylist(),
                                   out.column("n").to_pylist(),
                                   out.column("sum_v").to_pylist(),
                                   out.column("min_v").to_pylist(),
                                   out.column("max_v").to_pylist())
    }
    # '{"x": 1}' and the null row contribute nothing
    assert rows == {"a": (2, 13, 3, 10), "b": (1, 7, 7, 7)}

    # rows with a null group are dropped, like rows without the field
    nulls = pa.table({"g": pa.array([None, "a", None], pa.string()),
                      "props": ['{"k": 5}', '{"k": 1}', '{"k": 2}']})
    out = json_field_agg(ray.data.from_arrow(pa.concat_tables([t, nulls]))
                         .repartition(3), "props", "k", "g").take_all()
    assert {r["g"]: (r["n"], r["sum_v"], r["min_v"], r["max_v"])
            for r in out} == {"a": (3, 14, 1, 10), "b": (1, 7, 7, 7)}


def test_parse_robots_txt_groups_and_precedence():
    from smartreader_ray.functions.robots import parse_robots_txt

    body = """
# comment
User-agent: googlebot
Disallow: /g

User-agent: *
Disallow: /private
Allow: /private/pub
Crawl-delay: 10

User-agent: mybot
User-agent: otherbot
Allow: /only
"""
    assert parse_robots_txt(body) == [(False, "/private"),
                                      (True, "/private/pub")]
    # longest matching agent token wins over *
    assert parse_robots_txt(body, agent="mybot/1.0") == [(True, "/only")]
    assert parse_robots_txt(body, agent="googlebot") == [(False, "/g")]
    # empty Disallow means allow-all (no rules emitted)
    assert parse_robots_txt("User-agent: *\nDisallow:") == []


def test_robots_gate_longest_prefix_allow_ties(ray_session):
    import pyarrow as pa
    import ray.data

    from smartreader_ray.functions.robots import robots_gate

    rules = {
        "a.com": [(False, "/x"), (True, "/x/pub")],
        # equal-length tie: Allow wins
        "t.com": [(False, "/ab"), (True, "/ab")],
    }
    t = pa.table(
        {
            "host": ["a.com", "a.com", "a.com", "b.com", "t.com"],
            "path": ["/x/secret", "/x/pub/1", "/y", "/x/secret",
                     "/ab/z"],
        }
    )
    out = pa.concat_tables(
        list(
            robots_gate(ray.data.from_arrow(t).repartition(2), rules)
            .iter_batches(batch_format="pyarrow", batch_size=None)
        )
    )
    got = dict(zip(zip(out.column("host").to_pylist(),
                       out.column("path").to_pylist()),
                   out.column("allowed").to_pylist()))
    assert got == {
        ("a.com", "/x/secret"): False,
        ("a.com", "/x/pub/1"): True,
        ("a.com", "/y"): True,            # no match -> allowed
        ("b.com", "/x/secret"): True,     # unknown host -> allowed
        ("t.com", "/ab/z"): True,         # equal-length tie -> Allow
    }


class TestSplitAssign:
    def test_partition_complete_disjoint_stable(self, ray_session):
        import hashlib

        import ray.data

        from smartreader_ray.functions.sampling import split_assign

        t = pa.table({"doc_id": pa.array(range(300), type=pa.int64())})
        fr = {"train": 0.8, "val": 0.1, "test": 0.1}
        out = split_assign(
            ray.data.from_arrow(t).repartition(4), fr).take_all()
        got = {r["doc_id"]: r["split"] for r in out}
        assert len(got) == 300  # every row assigned exactly once
        # pure function of the id: replay with the same thresholds
        t1 = format(int(0.8 * 16 ** 8), "08x")
        t2 = format(int(0.9 * 16 ** 8), "08x")
        for i in range(300):
            h = hashlib.md5(str(i).encode()).hexdigest()[:8]
            want = "train" if h < t1 else ("val" if h < t2 else "test")
            assert got[i] == want, i
        # roughly proportional (md5 is uniform; wide tolerance)
        n_train = sum(1 for s in got.values() if s == "train")
        assert 0.7 * 300 < n_train < 0.9 * 300

    def test_bad_fractions_raise(self, ray_session):
        import pytest
        import ray.data

        from smartreader_ray.functions.sampling import split_assign

        t = pa.table({"doc_id": pa.array([1], type=pa.int64())})
        with pytest.raises(ValueError, match="sum to 1"):
            split_assign(ray.data.from_arrow(t), {"a": 0.5, "b": 0.2})
        with pytest.raises(ValueError, match="non-empty"):
            split_assign(ray.data.from_arrow(t), {})


class TestRendezvousShards:
    def test_minimal_movement_property(self, ray_session):
        """THE defining HRW property: n → n+1 shards moves only the
        rows the new shard wins, and every moved row moves TO it."""
        import ray.data

        from smartreader_ray.functions.sampling import rendezvous_shards

        t = pa.table({"doc_id": pa.array(range(400), type=pa.int64())})
        ds = ray.data.from_arrow(t).repartition(3)
        a = {r["doc_id"]: r["shard"]
             for r in rendezvous_shards(ds, 5).take_all()}
        b = {r["doc_id"]: r["shard"]
             for r in rendezvous_shards(ds, 6).take_all()}
        moved = {i for i in a if a[i] != b[i]}
        assert all(b[i] == 5 for i in moved)  # all moves go TO shard 5
        # expected fraction ≈ 1/6; generous band
        assert 0.05 < len(moved) / 400 < 0.30
        # balance: every shard owns something
        assert set(a.values()) == set(range(5))

    def test_matches_hash_argmax(self, ray_session):
        import hashlib

        import ray.data

        from smartreader_ray.functions.sampling import rendezvous_shards

        t = pa.table({"doc_id": pa.array(range(50), type=pa.int64())})
        got = {r["doc_id"]: r["shard"] for r in rendezvous_shards(
            ray.data.from_arrow(t), 4).take_all()}
        for i in range(50):
            hs = [hashlib.md5(f"{i}:{s}".encode()).hexdigest()[:8]
                  for s in range(4)]
            assert got[i] == hs.index(max(hs)), i

    def test_bad_n_raises(self, ray_session):
        import pytest
        import ray.data

        from smartreader_ray.functions.sampling import rendezvous_shards

        t = pa.table({"doc_id": pa.array([1], type=pa.int64())})
        with pytest.raises(ValueError):
            rendezvous_shards(ray.data.from_arrow(t), 0)


def test_line_dedup(ray_session):
    import ray.data

    from smartreader_ray.functions import line_dedup

    docs = [
        {"doc_id": 1, "text": "alpha beta\ncookie banner\nunique one"},
        {"doc_id": 2, "text": "cookie banner\nunique two"},
        {"doc_id": 3, "text": "cookie banner"},       # all boilerplate
        {"doc_id": 4, "text": ""},                    # one empty line
        {"doc_id": 5, "text": "solo line stays"},
    ]
    out = {r["doc_id"]: r
           for r in line_dedup(ray.data.from_items(docs),
                               min_count=2).take_all()}
    assert out[1]["n_lines"] == 3 and out[1]["n_removed"] == 1
    assert out[1]["clean_text"] == "alpha beta\nunique one"
    assert out[2]["clean_text"] == "unique two"
    assert out[3]["n_removed"] == 1 and out[3]["clean_text"] == ""
    # the single empty line of doc 4 is unique corpus-wide -> kept
    assert out[4]["n_lines"] == 1 and out[4]["n_removed"] == 0
    assert out[5]["clean_text"] == "solo line stays"


def test_line_dedup_no_flagged_lines(ray_session):
    import ray.data

    from smartreader_ray.functions import line_dedup

    docs = [{"doc_id": i, "text": f"only line {i}"} for i in range(4)]
    out = line_dedup(ray.data.from_items(docs), min_count=2).take_all()
    assert all(r["n_removed"] == 0 for r in out)
    assert all(r["clean_text"] == f"only line {r['doc_id']}" for r in out)


def test_unimax_allocation_waterfill():
    from smartreader_ray.functions import unimax_allocation

    # head language absorbs the leftover once the tail is capped
    q = unimax_allocation({"fr": 64, "de": 70, "es": 73, "zh": 75,
                           "en": 218}, budget=400)
    assert q == {"fr": 64, "de": 70, "es": 73, "zh": 75, "en": 118}
    # nobody capped: even split, leftover to lexicographically first
    q = unimax_allocation({"a": 10, "b": 10, "c": 100}, budget=50,
                          max_epochs=2)
    assert q == {"a": 17, "b": 17, "c": 16} and sum(q.values()) == 50
    # budget >= total capacity: everyone takes the full cap
    q = unimax_allocation({"a": 3, "b": 5}, budget=100, max_epochs=2)
    assert q == {"a": 6, "b": 10}


def test_unimax_mix_selection(ray_session):
    import ray.data

    from smartreader_ray.functions import unimax_mix

    docs = ([{"doc_id": i, "lang": "small"} for i in range(3)]
            + [{"doc_id": 100 + i, "lang": "big"} for i in range(20)])
    out = unimax_mix(ray.data.from_items(docs), budget=10).take_all()
    by_lang = {}
    for r in out:
        by_lang.setdefault(r["lang"], []).append(r["doc_id"])
    # small capped at its 3 docs; big gets the remaining 7, lowest ids
    assert sorted(by_lang["small"]) == [0, 1, 2]
    assert sorted(by_lang["big"]) == [100 + i for i in range(7)]

    # a doc without a language is never selected and takes no share of
    # the budget
    t = pa.Table.from_pylist(docs + [{"doc_id": 50, "lang": None}])
    for ds in (ray.data.from_arrow(t), ray.data.from_arrow(t).repartition(3)):
        got = sorted((r["lang"], r["doc_id"])
                     for r in unimax_mix(ds, budget=10).take_all())
        assert got == ([("big", 100 + i) for i in range(7)]
                       + [("small", i) for i in range(3)])


def test_intra_line_dedup_keeps_first(ray_session):
    import ray.data

    from smartreader_ray.functions import intra_line_dedup_batch

    docs = [
        {"doc_id": 1, "text": "nav\nbody one\nnav\nbody two\nnav"},
        {"doc_id": 2, "text": "only\nunique\nlines"},
        {"doc_id": 3, "text": ""},
    ]
    out = {r["doc_id"]: r
           for r in ray.data.from_items(docs)
           .map_batches(intra_line_dedup_batch, batch_format="pyarrow")
           .take_all()}
    assert out[1]["n_lines"] == 5 and out[1]["n_removed"] == 2
    assert out[1]["clean_text"] == "nav\nbody one\nbody two"
    assert out[2]["n_removed"] == 0
    assert out[3] == {"doc_id": 3, "n_lines": 1, "n_removed": 0,
                      "clean_text": ""}
