"""``MinHasher.signatures_batch``'s chunked sweep (bit-identical to the
per-doc ``signature()``, transient memory bounded whatever the batch
size) and ``minhash_dedup`` on docs without n-grams against its DuckDB
oracle on both verify paths."""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pyarrow as pa
import pytest

from smartreader_ray.functions.dedup import _MAX_HASH, MinHasher

WORDS = ("data stream batch join merge window hash table the and of to "
         "in is that it was for with on").split()


def _texts(n: int, seed: int = 3) -> list[str]:
    rng = random.Random(seed)
    return [" ".join(rng.choice(WORDS) for _ in range(rng.randint(8, 90)))
            for _ in range(n)]


def test_signatures_batch_equals_per_doc_signature():
    h = MinHasher()
    long_doc = " ".join(f"w{i}" for i in range(3 * MinHasher.CHUNK_GRAMS))
    texts = _texts(150) + [None, "", "   ", "one", "two words", long_doc]
    texts.insert(40, long_doc.upper())  # a chunk-spanning doc mid-batch
    n_grams = sum(max(len((t or "").split()) - 2, 0) for t in texts)
    assert n_grams > 3 * MinHasher.CHUNK_GRAMS

    got = h.signatures_batch(texts)
    want = np.stack([h.signature(t or "") for t in texts])
    assert got.dtype == want.dtype == np.uint64
    assert np.array_equal(got, want)
    gramless = [i for i, t in enumerate(texts) if not (t or "").split()]
    assert (got[gramless] == _MAX_HASH).all()


@pytest.mark.parametrize("n_docs", [200, 2000])
def test_signatures_batch_memory_is_bounded(n_docs):
    """The transient (grams, hashes) products are per chunk: the peak
    stays under one bound at 200 and at 2,000 docs (one whole-batch
    product took ~18 MB at 200 docs and ~70 MB at 2,000)."""
    h = MinHasher()
    texts = _texts(n_docs)
    h.signatures_batch(texts[:10])
    tracemalloc.start()
    try:
        h.signatures_batch(texts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def _gramless_tables():
    s = " ".join(_texts(1, seed=5))
    near = s.rsplit(" ", 1)[0] + " tail"
    return [
        [None, None, s, s],
        ["", "", s, s],
        [None, "", "   ", "short", "short", s, near, "two words", s],
    ]


def test_minhasher_emits_no_band_rows_for_gramless_docs():
    h = MinHasher()
    batch = pa.table({"doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
                      "text": [None, "", " ", "a b c d"]})
    out = h(batch)
    assert out.column("doc_id").to_pylist() == [3] * h.bands


@pytest.mark.parametrize("texts", _gramless_tables())
def test_minhash_dedup_gramless_docs_match_oracle(texts, ray_session):
    """A doc with no n-grams (null, empty or blank text) is nobody's
    candidate: both verify paths equal the oracle, which has no grams
    for such a doc."""
    import duckdb
    import ray.data

    import __ray_entry__ as entry
    from smartreader_ray.functions import minhash_dedup
    from tools.oracle_check import value_hash

    documents = pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string())})
    con = duckdb.connect()
    con.register("documents", documents)
    want = con.sql(entry.oracle_sql()["minhash_dedup"]).df()
    con.close()
    assert len(want)  # the non-empty duplicates still pair
    for limit in (200_000, 0):
        got = minhash_dedup(ray.data.from_arrow(documents), threshold=0.5,
                            broadcast_pair_limit=limit).to_pandas()
        assert value_hash(got) == value_hash(want), limit
