"""Corpus-operator map stages run as Ray Data tasks, not actor pools.

Each stage hands ``map_batches`` a UDF instance built on the driver, so
it runs on the session's warm task workers: no actor pool starts per
call, and a task holds its CPU only while it runs. The plan test pins
the strategy; the 1-CPU test runs such stages, and two queries whose
stages are exchanges, end to end in a ``num_cpus=1`` session, where an
actor pool held the only CPU and starved the read.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _map_op(ds, name: str):
    """The logical operator called ``name`` upstream of ``ds``."""
    stack = [ds._logical_plan.dag]
    while stack:
        op = stack.pop()
        if op.name == name:
            return op
        stack.extend(op.input_dependencies)
    raise AssertionError(f"{name} not in the plan")


def test_plan_runs_corpus_stages_as_tasks(corpus_sf_dir, ray_session):
    import ray.data
    from ray.data._internal.compute import TaskPoolStrategy

    from smartreader_ray.functions import broadcast_join, language_id
    from smartreader_ray.functions.dedup import (DEFAULT_MAX_BUCKET,
                                                 _band_pairs)

    ds = ray.data.from_arrow(pq.read_table(
        os.path.join(corpus_sf_dir, "documents.parquet")))
    small = pa.table({"lang": ["en", "de"], "name": ["English", "German"]})
    plans = {
        # minhash_lsh_candidates' band pairs: its keyed_agg materializes
        # them, so the lazy plan is the one upstream of the aggregate
        "MapBatches(MinHasher)": _band_pairs(ds, 128, 16, 3,
                                             DEFAULT_MAX_BUCKET),
        "MapBatches(LanguageId)": language_id(ds),
        "MapBatches(_Enrich)": broadcast_join(ds, small, key="lang",
                                              value_cols=["name"]),
    }
    for name, out in plans.items():
        assert isinstance(_map_op(out, name)._compute, TaskPoolStrategy), name


_ONE_CPU_CHILD = """
import json, sys
import ray
import __ray_entry__ as entry

ray.init(address="local", num_cpus=1, include_dashboard=False,
         log_to_driver=False)
from tools.oracle_check import to_pandas
from tests.test_task_stages import exchanged_order_counts

out = {name: to_pandas(entry.queries()[name](sys.argv[1])).to_dict("records")
       for name in json.loads(sys.argv[2])}
out["keyed_agg_exchange"] = exchanged_order_counts(sys.argv[1])
print(json.dumps(out))
"""

#: union-fed exchanges among them: vocab_growth's sort, template_score's
#: aggregate
_ONE_CPU_QUERIES = ["minhash_dedup", "lid_confusion", "dedup_cascade_chain",
                    "customer_orders_full", "vocab_growth", "template_score"]


def exchanged_order_counts(sf_dir: str) -> list[dict]:
    """Orders and max order key per customer by ``keyed_agg``, with
    block targets so small that the read splits into many blocks and
    their partials take the ``keyed_exchange`` path."""
    from ray.data.context import DataContext

    import __ray_entry__ as entry
    from smartreader_ray.functions.exchange import keyed_agg

    ctx = DataContext.get_current()
    saved = ctx.target_min_block_size, ctx.target_max_block_size
    ctx.target_min_block_size, ctx.target_max_block_size = 512, 2048
    try:
        orders = entry._read(sf_dir, "orders", ["o_custkey", "o_orderkey"])
        out = keyed_agg(orders, "o_custkey", {
            "n": ("count", None), "max_key": ("max", "o_orderkey")})
        _map_op(out, "Sort")  # the exchange, not the one-task combine
        return out.to_pandas().to_dict("records")
    finally:
        ctx.target_min_block_size, ctx.target_max_block_size = saved


def _rows(records: list[dict]) -> list[str]:
    return sorted(json.dumps(r, sort_keys=True) for r in records)


def test_one_cpu_session_runs_dedup_and_lid(corpus_sf_dir, ray_session):
    """``minhash_dedup``, the language-ID confusion rollup, the dedup
    cascade, the full outer ``hash_join``, ``vocab_growth``,
    ``template_score`` and ``keyed_agg``'s exchange path finish in a
    ``num_cpus=1`` session and give the rows of the shared 4-CPU
    session. All but the first two have exchange-only stages. Runs in
    its own process under a deadline."""
    import __ray_entry__ as entry
    from tools.oracle_check import to_pandas

    # one file per table, as in a generated sf dir: with one read task,
    # a (1, 8) actor pool at num_cpus=1 never let the read run
    want = {name: _rows(to_pandas(entry.queries()[name](corpus_sf_dir))
                        .to_dict("records")) for name in _ONE_CPU_QUERIES}
    want["keyed_agg_exchange"] = _rows(exchanged_order_counts(corpus_sf_dir))
    assert any(r["is_dup"] for r in map(json.loads, want["minhash_dedup"]))

    child = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_CHILD, corpus_sf_dir,
         json.dumps(_ONE_CPU_QUERIES)],
        cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail(f"{_ONE_CPU_QUERIES} did not finish in 120 s at "
                    "num_cpus=1")
    assert child.returncode == 0
    got = json.loads(stdout.splitlines()[-1])
    assert {name: _rows(rows) for name, rows in got.items()} == want
