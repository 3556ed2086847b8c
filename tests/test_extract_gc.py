"""The extraction actor's GC regime: where it applies and what it frees.

Inside a Ray actor, ``ExtractBatch`` freezes the warm heap, turns off
automatic GC and runs one full collect per ``_GC_EVERY`` documents. These
tests pin down that the regime stays out of task workers, and that the
cadence collects still free every finished document's DOM tree.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys

import pyarrow as pa

from smartreader_ray.dom import parse_html
from smartreader_ray.dom.node import Element
from smartreader_ray.sources import synthetic_doc_html
from smartreader_ray.stages import extract
from smartreader_ray.stages.extract import _GC_EVERY, ExtractBatch


def test_gc_regime_only_in_actors(ray_session):
    ray = ray_session

    def build_and_report():
        import gc

        from smartreader_ray.stages.extract import ExtractBatch

        ExtractBatch()
        return gc.isenabled(), gc.get_freeze_count()

    # a pooled task worker goes on to run other operators' tasks
    enabled, frozen = ray.get(ray.remote(build_and_report).remote())
    assert enabled and frozen == 0

    class Actor:
        def report(self):
            return build_and_report()

    enabled, frozen = ray.get(ray.remote(Actor).remote().report.remote())
    assert not enabled and frozen > 0


def test_actor_check_starts_no_ray():
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


def test_cadence_collects_free_trees(monkeypatch):
    n = 2 * _GC_EVERY
    htmls = [synthetic_doc_html(i, 16_000, seed=3) for i in range(n)]
    one_tree = max(sum(1 for _ in parse_html(h).iter_elements()) for h in htmls)
    table = pa.table({"doc_id": [str(i) for i in range(n)], "html": htmls})
    monkeypatch.setattr(extract, "_in_ray_actor", lambda: True)
    gc.collect()
    before = _n_elements()
    try:
        udf = ExtractBatch()
        assert not gc.isenabled() and gc.get_freeze_count() > 0
        # one flush at the end: the generator stops right after the
        # collect of the n-th doc, whose tree is still alive
        out = next(udf(table))
        # a tree frozen during extraction is hidden from gc.get_objects()
        # and never freed; unfreezing brings it back into the count
        gc.unfreeze()
        live = _n_elements() - before
    finally:
        gc.unfreeze()
        gc.enable()
    assert out.num_rows == n
    assert live <= one_tree, f"{live} Elements alive, one tree has {one_tree}"
