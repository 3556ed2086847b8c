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


#: a target block size far below the seeded tables' sizes: every read
#: splits into many blocks
SMALL_BLOCK = 512


@pytest.fixture
def small_blocks(monkeypatch):
    from ray.data.context import DataContext

    monkeypatch.setattr(DataContext.get_current(), "target_min_block_size",
                        SMALL_BLOCK)


@pytest.mark.parametrize("name", QUERIES)
def test_query_matches_oracle_in_small_blocks(name, corpus_sf_dir, oracle,
                                              ray_session, small_blocks):
    """Block sizing moves no output: with every read split into many
    blocks, each query still equals its oracle."""
    import __ray_entry__ as entry
    from tools.oracle_check import to_pandas, value_hash

    assert entry._read(corpus_sf_dir, "documents").materialize() \
        .num_blocks() > 1
    got = to_pandas(entry.queries()[name](corpus_sf_dir))
    want = oracle.sql(entry.oracle_sql()[name]).df()
    assert value_hash(got) == value_hash(want)


def test_read_sizes_blocks_by_bytes(corpus_sf_dir, ray_session, monkeypatch):
    """A sub-MiB table reads as one block, whatever the CPU count; the
    same table at a target of a few hundred bytes reads as several."""
    import __ray_entry__ as entry
    from ray.data.context import DataContext

    def blocks(*cols):
        return entry._read(corpus_sf_dir, "documents",
                           list(cols) or None).materialize().num_blocks()

    assert os.path.getsize(os.path.join(corpus_sf_dir,
                                        "documents.parquet")) < 1 << 20
    assert blocks() == 1
    monkeypatch.setattr(DataContext.get_current(), "target_min_block_size",
                        SMALL_BLOCK)
    many = blocks()
    assert many > 1
    assert blocks("doc_id") < many  # only the selected columns count


def test_read_missing_file_names_the_path(tmp_path):
    import __ray_entry__ as entry

    with pytest.raises(FileNotFoundError, match="nosuch.parquet"):
        entry._read(str(tmp_path), "nosuch")


#: streaming executions per bench query: the cascade's exact-stage
#: exchange, LSH pairs, verify and rollup; the aggregated ``orders`` side
#: materialized once, then the join (the filtered ``customer`` side takes
#: the read's schema, so it needs no one-block probe run); the line
#: counts' partials, then the render (the one-task combine is filtered
#: on the driver); the band pairs, then the verify
EXECUTIONS = {"dedup_cascade_chain": 4, "customer_orders_full": 2,
              "line_dedup": 2, "minhash_dedup": 2}


@pytest.mark.parametrize("name", QUERIES)
def test_query_runs_its_executions(name, corpus_sf_dir, oracle,
                                   ray_session, monkeypatch):
    """A plan that runs an input twice starts one more streaming
    execution than ``EXECUTIONS`` names."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    import __ray_entry__ as entry
    from tools.oracle_check import to_pandas, value_hash

    runs = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        runs.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    got = to_pandas(entry.queries()[name](corpus_sf_dir))
    assert len(runs) == EXECUTIONS[name]
    want = oracle.sql(entry.oracle_sql()[name]).df()
    assert value_hash(got) == value_hash(want)
