"""Corpus-operator map stages run as Ray Data tasks, not actor pools.

Each stage hands ``map_batches`` a UDF instance built on the driver, so
it runs on the session's warm task workers: no actor pool starts per
call, and a task holds its CPU only while it runs. The plan test pins
the strategy; the 1-CPU test runs two such stages end to end in a
``num_cpus=1`` session, where an actor pool held the only CPU and
starved the read.
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


def _docs_table() -> pa.Table:
    """A seeded corpus in the ``documents`` shape: stopword-rich lines
    in four labelled languages, with planted near-duplicates."""
    import random

    words = {
        "en": "the and of to in is that it was for with on".split(),
        "de": "der die und das ist nicht mit von auf ein sich den".split(),
        "fr": "le la les et des est une pas que dans pour sur".split(),
        "es": "el la los y que en por con una para del las".split(),
    }
    fill = "data stream batch join merge window hash table".split()
    rng = random.Random(7)
    ids, texts, langs = [], [], []
    for i in range(48):
        lang = sorted(words)[i % 4]
        toks = [rng.choice(words[lang] if rng.random() < 0.5 else fill)
                for _ in range(30 + rng.randrange(30))]
        ids.append(i)
        texts.append(" ".join(toks))
        langs.append(lang)
    for j in range(8):  # near-dups: one trailing token changed
        src = texts[j * 5].split()
        ids.append(100 + j)
        texts.append(" ".join(src[:-1] + ["tail"]))
        langs.append(langs[j * 5])
    return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                     "text": texts, "lang": langs})


def test_plan_runs_corpus_stages_as_tasks(ray_session):
    import ray.data
    from ray.data._internal.compute import TaskPoolStrategy

    from smartreader_ray.functions import (broadcast_join, language_id,
                                           minhash_lsh_candidates)

    ds = ray.data.from_arrow(_docs_table())
    small = pa.table({"lang": ["en", "de"], "name": ["English", "German"]})
    plans = {
        "MapBatches(MinHasher)": minhash_lsh_candidates(ds),
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
print(json.dumps({name: entry.queries()[name](sys.argv[1]).to_pandas()
                  .to_dict("records") for name in json.loads(sys.argv[2])}))
"""

_ONE_CPU_QUERIES = ["minhash_dedup", "lid_confusion"]


def _rows(records: list[dict]) -> list[str]:
    return sorted(json.dumps(r, sort_keys=True) for r in records)


def test_one_cpu_session_runs_dedup_and_lid(tmp_path, ray_session):
    """``minhash_dedup`` and the language-ID confusion rollup finish in a
    ``num_cpus=1`` session and give the rows of the shared 4-CPU
    session. Runs in its own process under a deadline."""
    import __ray_entry__ as entry

    sf_dir = tmp_path / "sf"
    sf_dir.mkdir()
    # one file, as in a generated sf dir: with one read task, a (1, 8)
    # actor pool at num_cpus=1 never let the read run
    pq.write_table(_docs_table(), sf_dir / "documents.parquet")
    want = {name: _rows(entry.queries()[name](str(sf_dir)).to_pandas()
                        .to_dict("records")) for name in _ONE_CPU_QUERIES}
    assert any(r["is_dup"] for r in map(json.loads, want["minhash_dedup"]))

    child = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_CHILD, str(sf_dir),
         json.dumps(_ONE_CPU_QUERIES)],
        cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail("minhash_dedup + lid_confusion did not finish in 120 s "
                    "at num_cpus=1")
    assert child.returncode == 0
    got = json.loads(stdout.splitlines()[-1])
    assert {name: _rows(rows) for name, rows in got.items()} == want
