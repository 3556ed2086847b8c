"""Partitioning-invariance: every round-3 corpus operator must produce
IDENTICAL results at 1 block and at many small blocks — the property
that makes a result trustworthy on a cluster whose block layout the
user doesn't control."""

import pyarrow as pa
import pytest


def _docs_tbl():
    rows = []
    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lambda mu nu xi omicron pi rho sigma tau upsilon")
    words = base.split()
    for i in range(24):
        text = " ".join(words[(i * 3 + j) % len(words)] for j in range(12))
        rows.append((i, text, ["en", "fr", "de"][i % 3], len(text)))
    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "text": [r[1] for r in rows],
            "lang": [r[2] for r in rows],
            "n_chars": pa.array([r[3] for r in rows], type=pa.int64()),
        }
    )


def _pair(ray, k=6):
    import ray.data

    tbl = _docs_tbl()
    return ray.data.from_arrow(tbl), ray.data.from_arrow(tbl).repartition(k)


def _rows(ds):
    return sorted(
        (tuple(sorted(r.items())) for r in ds.take_all())
    )


def test_term_doc_freq_invariant(ray_session):
    from smartreader_ray.functions.ngrams import term_doc_freq

    a, b = _pair(ray_session)
    assert _rows(term_doc_freq(a, top_n=30)) == _rows(term_doc_freq(b, top_n=30))


def test_bigram_counts_invariant(ray_session):
    from smartreader_ray.functions.ngrams import bigram_counts

    a, b = _pair(ray_session)
    assert _rows(bigram_counts(a, top_n=30)) == _rows(bigram_counts(b, top_n=30))


def test_tfidf_invariant_both_regimes(ray_session, size_budget):
    from smartreader_ray.functions.ngrams import tfidf_top_terms

    a, b = _pair(ray_session)
    one = _rows(tfidf_top_terms(a, k=2))
    assert one == _rows(tfidf_top_terms(b, k=2))
    size_budget(0)  # the join regime
    assert one == _rows(tfidf_top_terms(b, k=2))


def test_zscore_invariant(ray_session):
    from smartreader_ray.functions.standardize import zscore_by

    a, b = _pair(ray_session)
    assert _rows(zscore_by(a, "lang", "n_chars")) == _rows(
        zscore_by(b, "lang", "n_chars")
    )


def test_corr_invariant(ray_session):
    from smartreader_ray.functions.standardize import corr_by

    a, b = _pair(ray_session)
    assert _rows(corr_by(a, "lang", "n_chars", "doc_id")) == _rows(
        corr_by(b, "lang", "n_chars", "doc_id")
    )


def test_setops_invariant(ray_session):
    import ray.data

    from smartreader_ray.functions.setops import (
        except_by_content,
        intersect_by_content,
    )

    tbl = _docs_tbl()
    left1 = ray.data.from_arrow(tbl)
    left2 = ray.data.from_arrow(tbl).repartition(5)
    right = ray.data.from_arrow(tbl.slice(0, 8))
    assert _rows(except_by_content(left1, right)) == _rows(
        except_by_content(left2, right)
    )
    assert _rows(intersect_by_content(left1, right)) == _rows(
        intersect_by_content(left2, right)
    )


def test_frequent_terms_exact_regime_invariant(ray_session):
    from smartreader_ray.functions.sketch import frequent_terms

    a, b = _pair(ray_session)
    assert _rows(frequent_terms(a, capacity=512, k=10)) == _rows(
        frequent_terms(b, capacity=512, k=10)
    )


def test_cooccurrence_invariant(ray_session):
    from smartreader_ray.functions.ngrams import cooccurrence_window

    a, b = _pair(ray_session)
    assert _rows(cooccurrence_window(a, window=3, top_k_pairs=15)) == \
        _rows(cooccurrence_window(b, window=3, top_k_pairs=15))


def test_normalized_dedup_invariant(ray_session):
    from smartreader_ray.functions.curation import normalized_dedup

    a, b = _pair(ray_session)
    assert _rows(normalized_dedup(a)) == _rows(normalized_dedup(b))


def test_pagerank_invariant_across_edge_partitioning(ray_session):
    import ray.data

    from smartreader_ray.functions.graph import pagerank

    edges = pa.table(
        {
            "src": pa.array([i % 7 for i in range(40)], type=pa.int64()),
            "dst": pa.array([(i * 3) % 7 for i in range(40)],
                            type=pa.int64()),
        }
    )
    nodes = pa.table({"v": pa.array(list(range(7)), type=pa.int64())})
    one = _rows(
        pagerank(ray.data.from_arrow(edges), ray.data.from_arrow(nodes),
                 node_col="v", iterations=3)
    )
    many = _rows(
        pagerank(ray.data.from_arrow(edges).repartition(9),
                 ray.data.from_arrow(nodes), node_col="v", iterations=3)
    )
    assert one == many


def test_line_dedup_invariant(ray_session):
    import pyarrow as pa
    import ray.data

    from smartreader_ray.functions import line_dedup

    # inject real newlines so lines repeat across docs
    tbl = _docs_tbl()
    texts = [t.replace(" ", "\n", 3) for t in tbl.column("text").to_pylist()]
    tbl = tbl.set_column(1, "text", pa.array(texts, type=pa.string()))
    a = ray.data.from_arrow(tbl)
    b = ray.data.from_arrow(tbl).repartition(6)
    assert _rows(line_dedup(a, min_count=2)) == \
        _rows(line_dedup(b, min_count=2))


def test_chi2_terms_invariant(ray_session):
    from smartreader_ray.functions import chi2_terms

    a, b = _pair(ray_session)
    assert _rows(chi2_terms(a, label_col="lang", top_k=5)) == \
        _rows(chi2_terms(b, label_col="lang", top_k=5))


def test_unimax_mix_invariant(ray_session):
    from smartreader_ray.functions import unimax_mix

    a, b = _pair(ray_session)
    assert _rows(unimax_mix(a, budget=10)) == \
        _rows(unimax_mix(b, budget=10))


def test_kcore_invariant(ray_session):
    import ray.data

    from smartreader_ray.functions import kcore_rounds

    edges = [{"src": a % 7, "dst": (a * 3 + 1) % 7} for a in range(30)]
    x = ray.data.from_items(edges)
    y = ray.data.from_items(edges).repartition(5)
    assert _rows(kcore_rounds(x, k=2, rounds=2)) == \
        _rows(kcore_rounds(y, k=2, rounds=2))


def test_search_eval_invariant(ray_session):
    from smartreader_ray.functions import search_eval

    a, b = _pair(ray_session)
    qs = [("alpha", "beta"), ("gamma", "delta")]
    assert _rows(search_eval(a, qs, k=5)) == _rows(search_eval(b, qs, k=5))
