"""N-gram statistics + TF-IDF operator tests (functions/ngrams.py)."""

import math
from collections import Counter

import pyarrow as pa
import pytest

from smartreader_ray.functions.ngrams import (
    _bigrams,
    _partial_term_counts,
    bigram_counts,
    term_doc_freq,
    tfidf_top_terms,
)


def _tbl():
    return pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": [
                "a b a c",
                "b b c",
                "",  # empty doc must contribute nothing
            ],
        }
    )


def test_partial_term_counts_df_vs_cf():
    out = _partial_term_counts(_tbl(), "text")
    rows = {r["term"]: r for r in out.to_pylist()}
    assert rows["a"]["df"] == 1 and rows["a"]["cf"] == 2
    assert rows["b"]["df"] == 2 and rows["b"]["cf"] == 3
    assert rows["c"]["df"] == 2 and rows["c"]["cf"] == 2
    assert "" not in rows


def test_partial_bigrams_respect_doc_boundaries():
    out = _bigrams(_tbl(), "text")
    rows = Counter(out.column("bigram").to_pylist())
    # "c" (end of doc 1) never pairs with "b" (start of doc 2)
    assert "c b" not in rows
    assert rows == {"a b": 1, "b a": 1, "a c": 1, "b b": 1, "b c": 1}


def test_term_doc_freq_order_and_ties(ray_session):
    import ray.data

    ds = ray.data.from_arrow(_tbl())
    out = term_doc_freq(ds, top_n=2).take_all()
    # b and c tie on df=2 → term-ascending tie-break
    assert [(r["term"], r["df"]) for r in out] == [("b", 2), ("c", 2)]


def test_bigram_counts_top(ray_session):
    import ray.data

    out = bigram_counts(ray.data.from_arrow(_tbl()), top_n=3).take_all()
    # all counts tie at 1 → bigram-ascending order decides
    assert [(r["bigram"], r["cnt"]) for r in out] == [
        ("a b", 1), ("a c", 1), ("b a", 1),
    ]


def test_tfidf_scores_exact(ray_session):
    import ray.data

    ds = ray.data.from_arrow(_tbl())
    out = tfidf_top_terms(ds, k=2).take_all()
    by_doc = {}
    for r in out:
        by_doc.setdefault(r["doc_id"], []).append(r)
    # doc 1: a (tf=2, df=1) dominates; c (tf=1, df=2) beats b (idf ties,
    # term asc picks b... check actual): score(b)=1*ln(3/2)=score(c) →
    # tie broken by term asc → b ranks before c.
    top1 = by_doc[1]
    assert top1[0]["term"] == "a"
    assert top1[0]["tf"] == 2 and top1[0]["df"] == 1
    assert top1[0]["score"] == round(2 * math.log(3 / 1), 6)
    assert top1[1]["term"] == "b"
    # empty doc emits no rows
    assert 3 not in by_doc


def test_tfidf_auto_falls_back_to_join(ray_session, size_budget):
    import ray.data

    # a size budget of 1 byte forces the join regime; results must be
    # identical to the broadcast regime
    b = tfidf_top_terms(ray.data.from_arrow(_tbl()), k=2).take_all()
    ds = ray.data.from_arrow(_tbl())
    size_budget(1)
    a = tfidf_top_terms(ds, k=2).take_all()
    key = lambda r: (r["doc_id"], -r["score"], r["term"])
    assert sorted(a, key=key) == sorted(b, key=key)


def test_tfidf_join_path_equivalence(ray_session, size_budget):
    import ray.data

    ds = ray.data.from_arrow(_tbl())
    b = tfidf_top_terms(ds, k=2).take_all()
    size_budget(0)
    j = tfidf_top_terms(ds, k=2).take_all()
    key = lambda r: (r["doc_id"], -r["score"], r["term"])
    assert sorted(b, key=key) == sorted(j, key=key)


def test_tfidf_join_path_equivalence_corpus(ray_session, size_budget):
    import ray.data

    ds = ray.data.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    ).repartition(4)
    b = tfidf_top_terms(ds).take_all()
    size_budget(0)
    j = tfidf_top_terms(ds).take_all()
    key = lambda r: (r["doc_id"], -r["score"], r["term"])
    assert sorted(b, key=key) == sorted(j, key=key)


def test_partial_cooc_window_and_boundaries():
    from smartreader_ray.functions.ngrams import _cooc_pairs

    t = pa.table({"text": ["a b c d", "x y"]})
    out = _cooc_pairs(t, "text", 2)
    got = Counter(zip(out.column("a").to_pylist(),
                      out.column("b").to_pylist()))
    # doc 1 shift-1: (a,b),(b,c),(c,d); shift-2: (a,c),(b,d);
    # doc 2 shift-1: (x,y); no cross-doc pair (d,x)/(c,x)
    assert got == {("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1,
                   ("a", "c"): 1, ("b", "d"): 1, ("x", "y"): 1}


def test_cooccurrence_differential_duckdb(ray_session):
    import random

    import duckdb
    import ray.data

    from smartreader_ray.functions.ngrams import cooccurrence_window

    rng = random.Random(11)
    vocab = ["alpha", "beta", "gamma", "delta", "eps"]
    texts = [" ".join(rng.choice(vocab)
                      for _ in range(rng.randrange(0, 12)))
             for _ in range(60)]
    t = pa.table({"text": texts})

    got = pa.concat_tables(
        list(
            cooccurrence_window(ray.data.from_arrow(t).repartition(7),
                                window=3, top_k_pairs=10)
            .iter_batches(batch_format="pyarrow", batch_size=None)
        )
    )
    con = duckdb.connect()
    con.register("documents", t)
    want = con.execute("""
        WITH base AS (
            SELECT string_split(trim(text), ' ') AS a FROM documents
        ), raw AS (
            SELECT a[i] AS x, a[i+1] AS y
            FROM base, UNNEST(generate_series(1, len(a) - 1)) AS t(i)
            UNION ALL SELECT a[i], a[i+2]
            FROM base, UNNEST(generate_series(1, len(a) - 2)) AS t(i)
            UNION ALL SELECT a[i], a[i+3]
            FROM base, UNNEST(generate_series(1, len(a) - 3)) AS t(i)
        ), canon AS (SELECT LEAST(x,y) AS a, GREATEST(x,y) AS b FROM raw),
        pcnt AS (SELECT a, b, CAST(count(*) AS BIGINT) AS pair_count
                 FROM canon GROUP BY a, b),
        marg AS (SELECT tok, CAST(count(*) AS BIGINT) AS c
                 FROM (SELECT a[i] AS tok FROM base,
                       UNNEST(generate_series(1, len(a))) AS t(i))
                 GROUP BY tok),
        top AS (SELECT * FROM pcnt ORDER BY pair_count DESC, a, b LIMIT 10)
        SELECT top.a, top.b, top.pair_count, ma.c AS count_a,
               mb.c AS count_b
        FROM top JOIN marg ma ON ma.tok = top.a
        JOIN marg mb ON mb.tok = top.b
        ORDER BY pair_count DESC, a, b
    """).arrow()
    assert got.num_rows == want.num_rows == 10
    for col in ("a", "b", "pair_count", "count_a", "count_b"):
        assert got.column(col).to_pylist() == \
            want.column(col).to_pylist(), col


def test_posting_lists_matches_duckdb(ray_session):
    import duckdb
    import ray.data

    from smartreader_ray.functions.ngrams import posting_lists

    docs = ["a b a", "b c", "", "a   c", "c c c"]
    t = pa.table({
        "doc_id": pa.array([10, 3, 7, 5, 1], type=pa.int64()),
        "text": docs,
    })
    out = posting_lists(ray.data.from_arrow(t).repartition(3),
                        cap=2).take_all()
    got = {r["term"]: (r["n_docs"], r["postings"]) for r in out}
    con = duckdb.connect()
    con.register("t", t)
    exp = {r[0]: (r[1], r[2]) for r in con.sql("""
        WITH tok AS (
            SELECT DISTINCT doc_id, term FROM (
                SELECT doc_id,
                       UNNEST(string_split(trim(text), ' ')) AS term
                FROM t) WHERE term <> ''
        ), r AS (
            SELECT term, doc_id, row_number() OVER (
                PARTITION BY term ORDER BY doc_id) AS rn FROM tok
        )
        SELECT term, (SELECT count(*) FROM tok x
                      WHERE x.term = r.term) AS n_docs,
               string_agg(CAST(doc_id AS VARCHAR), ','
                          ORDER BY doc_id) AS postings
        FROM r WHERE rn <= 2 GROUP BY term
    """).fetchall()}
    assert got == exp
    assert got["a"] == (2, "5,10")  # multi-occurrence dedup + order


def test_pmi_scores_bruteforce(ray_session):
    import math

    import ray.data

    from smartreader_ray.functions.ngrams import pmi_scores

    docs = pa.table({"text": [
        "a b c a b", "b c d", "a a a b", "x y", "c d a b c",
    ]})
    got = pmi_scores(ray.data.from_arrow(docs).repartition(3),
                     window=2, top_k_pairs=10).take_all()

    toks = [t["text"].strip().split(" ") for t in docs.to_pylist()]
    from collections import Counter
    marg = Counter(w for d in toks for w in d)
    pairs = Counter()
    for d in toks:
        for w in (1, 2):
            for i in range(len(d) - w):
                a, b = sorted((d[i], d[i + w]))
                pairs[(a, b)] += 1
    nt = float(sum(marg.values()))
    npair = float(sum(max(len(d) - w, 0) for d in toks for w in (1, 2)))
    want = {k: v for k, v in pairs.items()}
    assert len(got) == min(10, len(pairs))
    for r in got:
        cab = want[(r["a"], r["b"])]
        assert r["pair_count"] == cab
        assert r["count_a"] == marg[r["a"]]
        assert r["count_b"] == marg[r["b"]]
        assert r["pmi"] == math.log(
            float(cab) * nt * nt
            / (npair * float(marg[r["a"]]) * float(marg[r["b"]])))
    # frequently-together tokens score above independents
    by_pair = {(r["a"], r["b"]): r["pmi"] for r in got}
    assert by_pair[("x", "y")] > 0  # x,y only ever co-occur


def test_bm25_search_matches_brute_force(ray_session):
    import math

    import ray.data

    rows = [
        {"doc_id": 1, "text": "spark merge spark table"},
        {"doc_id": 2, "text": "merge join order"},
        {"doc_id": 3, "text": "spark spark spark spark"},
        {"doc_id": 4, "text": "window filter group"},
        {"doc_id": 5, "text": "spark merge"},
    ]
    from smartreader_ray.functions.ngrams import bm25_search

    out = bm25_search(ray.data.from_items(rows).repartition(3),
                      ["spark", "merge"], k=5).take_all()

    # brute force, same expression shape
    terms = ["spark", "merge"]
    docs = {r["doc_id"]: r["text"].split(" ") for r in rows}
    n = float(len(docs))
    avg = sum(len(t) for t in docs.values()) / n
    dfs = [float(sum(1 for t in docs.values() if term in t))
           for term in terms]
    idf = [math.log(1.0 + (n - df + 0.5) / (df + 0.5)) for df in dfs]
    exp = {}
    for d, toks in docs.items():
        L = float(len(toks))
        norm = 1.2 * ((1.0 - 0.75) + 0.75 * (L / avg))
        s = None
        hit = False
        for j, term in enumerate(terms):
            tf = float(toks.count(term))
            hit = hit or tf > 0
            sj = idf[j] * ((tf * (1.2 + 1.0)) / (tf + norm))
            s = sj if s is None else s + sj
        if hit:
            exp[d] = s
    want = sorted(exp.items(), key=lambda kv: (-kv[1], kv[0]))
    assert [(r["doc_id"], r["score"]) for r in out] == want
    # doc 4 matches nothing and must be absent
    assert 4 not in {r["doc_id"] for r in out}


def test_zipf_fit_hand_and_invariance(ray_session):
    import math

    import ray.data

    from smartreader_ray.functions import zipf_fit

    rows = [
        {"source": "s1", "text": "a a a b b c"},
        {"source": "s1", "text": "a b"},
        {"source": "s2", "text": "z"},
    ]

    def run(parts):
        return {r["source"]: r for r in zipf_fit(
            ray.data.from_items(rows).repartition(parts)).take_all()}

    got = run(1)
    # s1 counts: a=4, b=3, c=1 -> ranks 1,2,3
    x = [math.floor(1000.0 * math.log(float(r))) for r in (1, 2, 3)]
    y = [math.floor(1000.0 * math.log(float(v))) for v in (4, 3, 1)]
    s1 = got["s1"]
    assert s1["n_tokens"] == 8 and s1["n_terms"] == 3
    assert s1["sx"] == sum(x) and s1["sy"] == sum(y)
    assert s1["sxx"] == sum(v * v for v in x)
    assert s1["sxy"] == sum(a * b for a, b in zip(x, y))
    n = 3
    den = float(n) * float(s1["sxx"]) - float(s1["sx"]) * float(s1["sx"])
    exp = round((float(n) * float(s1["sxy"])
                 - float(s1["sx"]) * float(s1["sy"])) / den, 6)
    assert s1["slope"] == exp and exp < 0       # Zipf slope is negative
    # single-term source: slope undefined
    assert got["s2"]["n_terms"] == 1 and got["s2"]["slope"] is None
    assert got == run(3)


def test_chi2_terms_discriminative(ray_session):
    import ray.data

    from smartreader_ray.functions import chi2_terms

    # "bonjour" only in fr docs, "hello" only in en docs, "the" everywhere
    docs = (
        [{"doc_id": i, "lang": "fr", "text": "bonjour the monde"}
         for i in range(5)]
        + [{"doc_id": 5 + i, "lang": "en", "text": "hello the world"}
           for i in range(5)]
    )
    out = chi2_terms(ray.data.from_items(docs), label_col="lang",
                     top_k=3).take_all()
    by_label = {}
    for r in out:
        by_label.setdefault(r["label"], []).append(r)
    # the perfectly discriminative term ranks first for each label
    assert by_label["fr"][0]["term"] == "bonjour"
    assert by_label["en"][0]["term"] == "hello"
    assert by_label["fr"][0]["chi2"] == 10.0  # N for a perfect split
    assert by_label["fr"][0]["df_in"] == 5
    assert by_label["fr"][0]["df_out"] == 0
    # "the" appears in every doc -> degenerate table -> chi2 defined 0
    the_rows = [r for r in out if r["term"] == "the"]
    assert the_rows and all(r["chi2"] == 0.0 for r in the_rows)


def test_search_eval_metrics(ray_session):
    import ray.data

    from smartreader_ray.functions import search_eval

    docs = [
        {"doc_id": 1, "text": "alpha beta alpha beta alpha beta"},  # rel, tf-heavy
        {"doc_id": 2, "text": "alpha beta gamma"},                  # rel
        {"doc_id": 3, "text": "beta alpha gamma"},                  # terms, no phrase
        {"doc_id": 4, "text": "gamma gamma gamma"},                 # no terms
    ]
    out = search_eval(ray.data.from_items(docs),
                      [("alpha", "beta"), ("gamma", "alpha")],
                      k=10).take_all()
    by_q = {r["query"]: r for r in out}
    ab = by_q["alpha beta"]
    assert ab["n_relevant"] == 2 and ab["hits"] == 2
    assert ab["first_rank"] == 1  # doc 1 ranks first (highest tf)
    assert ab["mrr_q27720"] == 27720
    # ranks 1 and 2 relevant: dcg = 27720/2 + 27720/3 = ideal -> ndcg 1.0
    assert ab["dcg_q27720"] == 13860 + 9240 == ab["idcg_q27720"]
    assert ab["ndcg"] == 1.0
    ga = by_q["gamma alpha"]  # phrase "gamma alpha" occurs nowhere
    assert ga["n_relevant"] == 0 and ga["ndcg"] == 0.0
    assert ga["first_rank"] == 0 and ga["mrr_q27720"] == 0


def test_log_odds_terms_direction(ray_session):
    import ray.data

    from smartreader_ray.functions import log_odds_terms

    docs = ([{"doc_id": i, "lang": "en",
              "text": "hello world common common"} for i in range(5)]
            + [{"doc_id": 5 + i, "lang": "fr",
                "text": "bonjour monde common common"} for i in range(5)])
    out = log_odds_terms(ray.data.from_items(docs), label_col="lang",
                         target_label="en", top_k=2).take_all()
    zs = {r["term"]: r["z"] for r in out}
    # en-exclusive terms lean positive, fr-exclusive negative
    assert zs["hello"] > 0 and zs["world"] > 0
    assert zs["bonjour"] < 0 and zs["monde"] < 0
    assert zs["hello"] == zs["world"]  # symmetric counts, same z
    top = max(out, key=lambda r: r["z"])
    assert top["cf_target"] == 5 and top["cf_rest"] == 0


def test_log_odds_terms_small_vocab_emits_each_term_once(ray_session):
    import ray.data

    from smartreader_ray.functions import log_odds_terms

    # five terms, top_k=5: both rank ends span the whole vocabulary
    docs = [{"doc_id": 0, "lang": "en", "text": "alpha beta gamma"},
            {"doc_id": 1, "lang": "fr", "text": "gamma delta epsilon"}]
    out = log_odds_terms(ray.data.from_items(docs), label_col="lang",
                         target_label="en", top_k=5).take_all()
    terms = [r["term"] for r in out]
    assert sorted(terms) == ["alpha", "beta", "delta", "epsilon", "gamma"]
    zs = sorted(((r["z"], r["term"]) for r in out),
                key=lambda x: (-x[0], x[1]))
    assert [t for _, t in zs] == ["alpha", "beta", "gamma", "delta",
                                  "epsilon"]


def test_log_odds_terms_oracle_matches_engine_on_small_vocab(ray_session,
                                                             tmp_path):
    """The `log_odds_terms` query and its DuckDB oracle agree on a
    5-term corpus, where both rank ends (top_k=15) span the whole
    vocabulary."""
    import duckdb
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from tools.oracle_check import value_hash

    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1], type=pa.int64()),
        "text": ["alpha beta gamma", "gamma delta epsilon"],
        "lang": ["en", "fr"],
    }), tmp_path / "documents.parquet")
    got = entrymod.queries()["log_odds_terms"](str(tmp_path)).to_pandas()
    con = duckdb.connect()
    con.sql("CREATE VIEW documents AS SELECT * FROM "
            f"'{tmp_path / 'documents.parquet'}'")
    exp = con.sql(entrymod.oracle_sql()["log_odds_terms"]).df()
    assert len(got) == len(exp) == 5
    assert value_hash(got) == value_hash(exp)


def test_good_turing_estimators(ray_session):
    import ray.data

    from smartreader_ray.functions import good_turing

    docs = [
        # srcA: tokens a a b c  -> N=4 V=3 f1=2 (b,c) f2=1 (a... no, a
        # appears twice -> f2=1); unseen = 2/4, chao1 = 3 + 4/(2*1) = 5
        {"doc_id": 1, "source": "srcA", "text": "a a b c"},
        # srcB: all singletons, no doubletons -> bias-corrected branch
        {"doc_id": 2, "source": "srcB", "text": "x y z"},
    ]
    out = {r["source"]: r
           for r in good_turing(ray.data.from_items(docs)).take_all()}
    a = out["srcA"]
    assert (a["n_tokens"], a["vocab"], a["f1"], a["f2"]) == (4, 3, 2, 1)
    assert a["unseen_mass"] == 0.5 and a["chao1"] == 5.0
    b = out["srcB"]
    assert (b["n_tokens"], b["vocab"], b["f1"], b["f2"]) == (3, 3, 3, 0)
    assert b["unseen_mass"] == 1.0
    assert b["chao1"] == 3.0 + 3.0 * 2.0 / 2.0  # V + f1(f1-1)/2


def test_term_burstiness_ranks_bursty_terms(ray_session):
    import ray.data

    from smartreader_ray.functions import term_burstiness

    docs = (
        # 'bursty' piles 8 occurrences into one of 8 docs
        [{"doc_id": 0, "text": "bursty " * 7 + "bursty"}]
        # 'flat' appears exactly once in every doc
        + [{"doc_id": i, "text": "flat"} for i in range(1, 8)]
    )
    docs[0]["text"] += " flat"
    out = {r["term"]: r
           for r in term_burstiness(ray.data.from_items(docs),
                                    top_k=5).take_all()}
    # flat: every doc once -> variance 0 -> vmr 0
    assert out["flat"]["vmr"] == 0.0 and out["flat"]["df"] == 8
    # bursty: mean 1, E[c^2] = 64/8 = 8 -> var 7 -> vmr 7
    assert out["bursty"]["cf"] == 8 and out["bursty"]["df"] == 1
    assert abs(out["bursty"]["vmr"] - 7.0) < 1e-12
