"""CCNet-style bigram-LM perplexity scoring (functions/lm.py)."""

import pyarrow as pa
import pytest

from smartreader_ray.functions.lm import (
    lm_perplexity_reference,
    lm_score,
    train_bigram_lm,
)


def _corpus():
    held = [
        "the cat sat on the mat",
        "the dog sat on the rug",
        "the cat ran to the dog",
    ]
    probes = [
        "the cat sat on the rug",     # fluent: all bigrams seen
        "rug mat dog zzz qqq www",    # gibberish: mostly OOV
        "x",                          # single token: no transitions
    ]
    rows = [{"doc_id": i, "text": t} for i, t in enumerate(held)]
    rows += [{"doc_id": 100 + i, "text": t} for i, t in enumerate(probes)]
    return held, probes, rows


def test_train_counts_exact(ray_session):
    import ray.data

    held, _, rows = _corpus()
    ds = ray.data.from_items(rows[:3]).repartition(2)
    m = train_bigram_lm(ds)
    assert m["c2"][("the", "cat")] == 2
    assert m["c2"][("sat", "on")] == 2
    assert m["c1"]["the"] == 6  # 'the' opens 6 transitions across held
    assert m["V"] == len(m["c1"]) + 1


def test_lm_score_matches_scalar_reference(ray_session):
    import ray.data

    held, probes, rows = _corpus()
    ds = ray.data.from_items(rows).repartition(3)
    model = train_bigram_lm(
        ds.filter(expr="doc_id < 100")
    )
    out = {r["doc_id"]: r for r in lm_score(ds, model).take_all()}
    for i, probe in enumerate(probes):
        ref = lm_perplexity_reference(held, probe)
        if ref is None:
            assert 100 + i not in out  # no transitions → omitted
        else:
            # numpy pairwise vs sequential sum differ at most in the last
            # ulp before rounding
            assert out[100 + i]["log2_ppl"] == pytest.approx(ref, abs=1e-5)
    # fluent probe scores strictly better than gibberish
    assert out[100]["log2_ppl"] < out[101]["log2_ppl"]
    # integer sufficient statistics: exact
    assert out[101]["n_oov"] == 5
    assert out[100]["n_trans"] == 5 and out[100]["n_oov"] == 0


def test_lm_score_partitioning_invariance(ray_session):
    import ray.data

    _, _, rows = _corpus()
    model = train_bigram_lm(
        ray.data.from_items(rows[:3])
    )

    def run(parts):
        ds = ray.data.from_items(rows).repartition(parts)
        return sorted(
            (tuple(sorted(r.items())) for r in lm_score(ds, model).take_all())
        )

    assert run(1) == run(4)


def test_train_vocab_bound(ray_session):
    import ray.data

    _, _, rows = _corpus()
    with pytest.raises(Exception) as ei:
        train_bigram_lm(ray.data.from_items(rows[:3]), max_vocab_entries=2)
    assert "shard the LM" in str(ei.value)


def test_per_lang_models_isolated(ray_session):
    import ray.data

    from smartreader_ray.functions.lm import lm_score_by, train_bigram_lm_by

    rows = [
        {"doc_id": 0, "lang": "en", "text": "the cat sat on the mat"},
        {"doc_id": 1, "lang": "en", "text": "the dog sat on the rug"},
        {"doc_id": 2, "lang": "de", "text": "der Hund und die Katze"},
        # probe: English bigrams scored against the GERMAN model are OOV
        {"doc_id": 3, "lang": "de", "text": "the cat sat on the mat"},
    ]
    ds = ray.data.from_items(rows).repartition(2)
    models = train_bigram_lm_by(ds.filter(expr="doc_id < 3"))
    assert set(models) == {"en", "de"}
    assert models["en"]["c2"][("sat", "on")] == 2
    assert ("der", "Hund") in models["de"]["c2"]
    out = {r["doc_id"]: r for r in lm_score_by(ds, models).take_all()}
    assert out[0]["n_oov"] == 0            # en doc vs en model
    assert out[3]["n_oov"] == 5            # en text vs de model: all OOV
    assert out[3]["sum_bigram_c"] == 0
    # a key with no model scores against the empty model (all OOV)
    stray = ray.data.from_items(
        [{"doc_id": 9, "lang": "fr", "text": "le chat noir dort"}]
    )
    r = lm_score_by(stray, models).take_all()[0]
    assert r["n_oov"] == 3 and r["sum_prefix_c"] == 0


def test_ccnet_buckets_terciles_and_invariance(ray_session):
    import math

    import ray.data

    from smartreader_ray.functions.lm import ccnet_head_middle_tail

    # 6 en docs of increasing OOV-ness vs a tiny held set, 3 de docs
    held = [
        {"doc_id": 100, "lang": "en", "text": "a b a b a b a b"},
        {"doc_id": 101, "lang": "de", "text": "x y x y x y"},
    ]
    rows = [
        {"doc_id": 0, "lang": "en", "text": "a b a b"},     # in-model
        {"doc_id": 1, "lang": "en", "text": "a b a q"},
        {"doc_id": 2, "lang": "en", "text": "a q a q"},
        {"doc_id": 3, "lang": "en", "text": "q q a b"},
        {"doc_id": 4, "lang": "en", "text": "q q q b"},
        {"doc_id": 5, "lang": "en", "text": "q q q q"},     # all OOV
        {"doc_id": 6, "lang": "de", "text": "x y x y"},
        {"doc_id": 7, "lang": "de", "text": "x q x y"},
        {"doc_id": 8, "lang": "de", "text": "q q q q"},
    ]

    def run(parts):
        ds = ray.data.from_items(rows).repartition(parts)
        hd = ray.data.from_items(held).repartition(2)
        out = ccnet_head_middle_tail(ds, hd).take_all()
        return {r["doc_id"]: (r["lang"], r["bucket"], r["mbits"],
                              r["n_trans"]) for r in out}

    got = run(1)
    # per-lang terciles: en 6 docs -> 2/2/2, de 3 docs -> 1/1/1, in
    # increasing code-length (decreasing quality) order
    # hand-ranked by stamped key (mbits*100//n_trans): doc0 35.9M,
    # doc3 84.5M, doc1 89.6M, doc4 = doc5 109.9M (doc_id tiebreak),
    # doc2 166.3M
    assert [got[i][1] for i in range(6)] == [
        "head", "middle", "tail", "head", "middle", "tail"]
    assert [got[i][1] for i in (6, 7, 8)] == ["head", "middle", "tail"]
    # stamp exactness: doc 0 replays by hand against the held-en model
    # c2: (a,b)=4 (b,a)=3; c1: a=4 b=3; V=3
    w_ab = math.floor(1e6 * math.log((4 + 3) / (4 + 1)))
    w_ba = math.floor(1e6 * math.log((3 + 3) / (3 + 1)))
    assert got[0][2] == 2 * w_ab + w_ba and got[0][3] == 3
    # partitioning invariance
    assert got == run(4)


def test_source_crossent_diagonal_minimal(ray_session):
    import ray.data

    from smartreader_ray.functions import source_crossent

    rows = [
        {"source": "s1", "text": "a b a b a b"},
        {"source": "s2", "text": "x y x y x y"},
        {"source": "s3", "text": "a b a b x y"},
    ]

    def run(parts):
        t = source_crossent(ray.data.from_items(rows).repartition(parts))
        return {(d, m): (n, b) for d, m, n, b in zip(
            t.column("data_source").to_pylist(),
            t.column("model_source").to_pylist(),
            t.column("n_trans").to_pylist(),
            t.column("mbits").to_pylist())}

    got = run(1)
    assert len(got) == 9
    # hand-replay the s1 diagonal: transitions (a,b)x3 (b,a)x2,
    # c1: a=3 b=2, V=3
    import math

    w_ab = math.floor(1e6 * math.log((3 + 3) / (3 + 1)))
    w_ba = math.floor(1e6 * math.log((2 + 3) / (2 + 1)))
    assert got[("s1", "s1")] == (5, 3 * w_ab + 2 * w_ba)
    # s1 data under s2's model: every transition OOV-prefix (a,b not in
    # s2's vocab), stamp = floor(1e6*ln(V)) with V=3
    assert got[("s1", "s2")][1] == 5 * math.floor(1e6 * math.log(3.0))
    # s3 shares bigrams with s1 but none with s2 — s1's model codes s3
    # shorter than s2's (all-OOV) model does
    assert got[("s3", "s1")][1] < got[("s3", "s2")][1]
    assert got == run(3)
