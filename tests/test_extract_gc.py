"""How extraction runs under Ray: as tasks, with CPython's GC left alone.

``build_extraction_pipeline`` hands ``map_batches`` an ``ExtractBatch``
instance, so the stage runs on the session's warm task workers and no
actor pool is started. The UDF sets no process-wide GC state, and its
finished documents' DOM trees are freed by an ordinary collect.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys

import pyarrow as pa

from smartreader_ray.dom.node import Element
from smartreader_ray.sources import synthetic_doc_html
from smartreader_ray.stages.extract import ExtractBatch


def _doc_table(n: int) -> pa.Table:
    htmls = [synthetic_doc_html(i, 16_000, seed=3) for i in range(n)]
    return pa.table({"doc_id": [str(i) for i in range(n)], "html": htmls})


def test_plan_runs_extraction_as_tasks(ray_session):
    import ray.data
    from ray.data._internal.compute import TaskPoolStrategy

    from smartreader_ray.pipelines import build_extraction_pipeline

    op = build_extraction_pipeline(ray.data.from_arrow(_doc_table(1)))._logical_plan.dag
    assert op.name == "MapBatches(ExtractBatch)"
    assert isinstance(op._compute, TaskPoolStrategy)


def test_gc_untouched_in_tasks_and_actors(ray_session):
    ray = ray_session

    def build_call_and_report(table):
        import gc

        from smartreader_ray.stages.extract import ExtractBatch

        list(ExtractBatch()(table))
        return gc.isenabled(), gc.get_freeze_count()

    table = _doc_table(2)
    assert ray.get(ray.remote(build_call_and_report).remote(table)) == (True, 0)

    class Actor:
        def report(self, table):
            return build_call_and_report(table)

    actor = ray.remote(Actor).remote()
    assert ray.get(actor.report.remote(table)) == (True, 0)


def test_extract_batch_starts_no_ray():
    code = ("import ray\n"
            "from smartreader_ray.stages.extract import ExtractBatch\n"
            "ExtractBatch()\n"
            "print(ray.is_initialized())\n")
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run([sys.executable, "-c", code], cwd=repo, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


def _n_elements() -> int:
    return sum(isinstance(o, Element) for o in gc.get_objects())


def test_finished_trees_are_freed():
    table = _doc_table(32)
    gc.collect()
    before = _n_elements()
    udf = ExtractBatch()
    out = pa.concat_tables(udf(table))
    gc.collect()
    assert out.num_rows == 32
    assert _n_elements() == before
