"""The ``corpus_dedup_join`` benchmark queries against their DuckDB
oracles on a seeded sf dir (``corpus_sf_dir``): the engine output's
value hash must equal the ``oracle_sql()`` result's, as in
``tools/oracle_check.py``. The dir has exact duplicates across sources,
near duplicates that share several LSH bands, and unmatched join keys
on both sides of ``customer_orders_full``."""

from __future__ import annotations

import os

import pytest

QUERIES = ("dedup_cascade_chain", "customer_orders_full", "line_dedup",
           "minhash_dedup")


@pytest.fixture(scope="module")
def oracle(corpus_sf_dir):
    import duckdb

    con = duckdb.connect()
    for name in ("documents", "customer", "orders"):
        path = os.path.join(corpus_sf_dir, f"{name}.parquet")
        con.sql(f"CREATE VIEW {name} AS SELECT * FROM '{path}'")
    yield con
    con.close()


def test_seeded_corpus_has_the_cases(corpus_sf_dir, ray_session):
    """The cases the queries must get right are in the data."""
    import pyarrow.parquet as pq
    import ray.data

    from smartreader_ray.functions import minhash_lsh_candidates

    docs = pq.read_table(os.path.join(corpus_sf_dir, "documents.parquet"))
    by_text: dict = {}
    for text, src in zip(docs.column("text").to_pylist(),
                         docs.column("source").to_pylist()):
        by_text.setdefault(text, set()).add(src)
    assert any(len(srcs) > 1 for srcs in by_text.values())
    cands = minhash_lsh_candidates(ray.data.from_arrow(
        docs.select(["doc_id", "text"]))).to_pandas()
    assert cands["n_bands"].max() > 1


@pytest.mark.parametrize("name", QUERIES)
def test_query_matches_oracle(name, corpus_sf_dir, oracle, ray_session):
    import __ray_entry__ as entry
    from tools.oracle_check import to_pandas, value_hash

    got = to_pandas(entry.queries()[name](corpus_sf_dir))
    want = oracle.sql(entry.oracle_sql()[name]).df()
    assert sorted(got.columns) == sorted(want.columns)
    assert len(got) == len(want)
    assert value_hash(got) == value_hash(want)
    if name == "customer_orders_full":  # unmatched rows on both sides
        assert got["o_custkey"].isna().any() and got["c_custkey"].isna().any()
    if name == "minhash_dedup":
        assert got["is_dup"].any()
    if name == "dedup_cascade_chain":  # both stages remove docs
        assert (got["n_exact_kept"] < got["n_docs"]).any()
        assert (got["n_near_kept"] < got["n_exact_kept"]).any()
