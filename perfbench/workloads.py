"""The two benchmark workloads: seeded inputs, reference, and the job.

``generate`` and ``reference`` run in the benchmark's own process;
``run_job`` and ``layer_extras`` run in a sample process that owns a
fresh Ray session. Every path is relative to the run's work directory
``meta["work"]``.

* ``pages_heavy_tail`` — ``synthetic_corpus_table``-model pages
  (exponential sizes, mean 16 KB, one 1.6 MB page per 200; see
  ``seeded_pages``) as in-memory
  blocks through ``build_extraction_pipeline`` with library defaults.
  Nothing is written. Loads the ``dom``/``extraction`` kernels and the
  tail: the extractor is most of the wall time here.
* ``corpus_dedup_join`` — ``dedup_cascade_chain``,
  ``customer_orders_full`` (``hash_join``), ``line_dedup`` and
  ``minhash_dedup`` from ``__ray_entry__.queries()`` on seeded
  tables, each checked against its ``oracle_sql()`` by the value hash of
  ``tools/oracle_check.py``. Exchange, joins and dedup; no extraction.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time

import pyarrow as pa
import pyarrow.parquet as pq

from .ledger import article_counts, article_digest, run_ledger

#: rows per ``ExtractBatch`` call, the pipeline's default ``batch_size``
BATCH_SIZE = 16

QUERIES = ("dedup_cascade_chain", "customer_orders_full", "line_dedup",
           "minhash_dedup")

# sizes: (full run, smoke run)
SIZES = {
    "pages_heavy_tail": ({"docs": 200}, {"docs": 12}),
    "corpus_dedup_join": (
        {"docs": 200, "customers": 1500, "orders": 6000},
        {"docs": 60, "customers": 1200, "orders": 3000},
    ),
}

_WORDS = (
    "a the key agg row scan slow fast table value part hash merge batch "
    "spark line sort window data column join small customer query order "
    "big group stream filter vector"
).split()
_LANGS = ("en", "en", "en", "zh", "es", "de", "fr")
_SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")


def files_digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        with open(p, "rb") as f:
            h.update(os.path.basename(p).encode() + b"\x1f" + f.read() + b"\x1e")
    return h.hexdigest()[:16]


def seeded_pages(n: int, seed: int, mean_size: int, heavy_tail_every: int,
                 heavy_size: int = 1_600_000) -> pa.Table:
    """``synthetic_corpus_table``'s corpus with its size draws stratified.

    Same page builder, same size model (exponential with ``mean_size``,
    floor 2 KB, a ``heavy_size`` page at every ``heavy_tail_every``-th
    position), but the light pages take the midpoints of ``n`` equal
    quantile strata in a seeded order. So every seed has the same
    multiset of page sizes, and the seed sets only which page gets which
    size and the words on each page. Independent draws would move the
    corpus size, and with it every timing, by several per cent per seed.
    """
    from smartreader_ray.sources import synthetic_doc_html
    from smartreader_ray.spanio import html_to_spans
    from smartreader_ray.stages.extract import SPAN_TYPE

    def heavy(i):
        return heavy_tail_every and i % heavy_tail_every == heavy_tail_every - 1

    light = [i for i in range(n) if not heavy(i)]
    sizes = [max(2_000, int(-mean_size * math.log(1 - (k + 0.5) / len(light))))
             for k in range(len(light))]
    random.Random(seed).shuffle(sizes)
    size_of = dict(zip(light, sizes))
    ids = [f"synth-{i:06d}" for i in range(n)]
    spans = [html_to_spans(synthetic_doc_html(i, size_of.get(i, heavy_size), seed))
             for i in range(n)]
    return pa.Table.from_arrays([pa.array(ids, type=pa.string()),
                                 pa.array(spans, type=SPAN_TYPE)],
                                names=["doc_id", "spans"])


def _spans_bytes(table: pa.Table) -> int:
    return sum(len((s["text"] or "").encode())
               for spans in table.column("spans").to_pylist() for s in spans)


def _extraction_pool(n_cpus: int):
    # the pool build_extraction_pipeline picks when concurrency is None
    return (1, max(2, n_cpus - 1))


class Identity:
    def __call__(self, batch):
        return batch


def identity_map(ds, n_cpus: int) -> dict:
    """Identity actor ``map_batches`` with the extraction stage's batch
    size, batch format, actor CPUs and pool: what Ray alone costs."""
    started = time.perf_counter()
    first = None
    it = ds.map_batches(Identity, batch_size=BATCH_SIZE, batch_format="pyarrow",
                        num_cpus=0.9, concurrency=_extraction_pool(n_cpus))
    for _ in it.iter_batches(batch_format="pyarrow", batch_size=None):
        if first is None:
            first = time.perf_counter() - started
    return {"pipelines.identity_map_s": time.perf_counter() - started,
            "pipelines.first_batch_s": first}


class PagesHeavyTail:
    name = "pages_heavy_tail"
    rss_role = "ExtractBatch"
    #: about how long one job takes here: a run makes ``seconds / job_s`` jobs
    job_s = 6.0

    def generate(self, work: str, seed: int, size: dict) -> dict:
        table = seeded_pages(size["docs"], seed, mean_size=16_000, heavy_tail_every=200)
        path = os.path.join(work, "inputs", "pages.arrow")
        os.makedirs(os.path.dirname(path))
        with pa.OSFile(path, "wb") as sink, pa.ipc.new_file(sink, table.schema) as w:
            w.write_table(table)
        return {"inputs": [path], "docs": table.num_rows,
                "source_mb": _spans_bytes(table) / 1e6, "ops": table.num_rows}

    def ledger_table(self, meta: dict) -> pa.Table:
        with pa.memory_map(meta["inputs"][0]) as src:
            return pa.ipc.open_file(src).read_all()

    def reference(self, meta: dict, ledger_ref=None) -> dict:
        """The in-process ledger's digest and counts: ``ledger_ref`` when
        the run has already traced the ledger, else an untraced ledger."""
        if ledger_ref is not None:
            return ledger_ref
        outs = run_ledger(self.ledger_table(meta), BATCH_SIZE)
        return {"digest": article_digest(outs), "counts": article_counts(outs)}

    def run_job(self, meta: dict, tracer) -> dict:
        import ray.data

        from smartreader_ray.pipelines import build_extraction_pipeline

        table = self.ledger_table(meta)
        started = time.perf_counter()
        with tracer.span("job", self.name):
            with tracer.span("pipelines.build_plan"):
                out = build_extraction_pipeline(ray.data.from_arrow(table))
            batches = []
            for i, b in enumerate(out.iter_batches(batch_format="pyarrow", batch_size=None)):
                with tracer.span("pipelines.output_batch", f"batch-{i}"):
                    batches.append(b)
        wall = time.perf_counter() - started
        return {"wall_s": wall, "digest": article_digest(batches),
                "counts": article_counts(batches)}

    def layer_extras(self, meta: dict, n_cpus: int) -> dict:
        import ray.data

        return identity_map(ray.data.from_arrow(self.ledger_table(meta)), n_cpus)

    def check(self, meta: dict, ref: dict, res: dict) -> list[str]:
        errs = []
        if res["digest"] != ref["digest"]:
            errs.append(f"digest {res['digest']} != in-process {ref['digest']}")
        if res["counts"] != ref["counts"]:
            errs.append(f"counts {res['counts']} != in-process {ref['counts']}")
        return errs

    def failed_ops(self, res: dict) -> int:
        return res["counts"]["failed"]


class CorpusDedupJoin:
    name = "corpus_dedup_join"
    #: every Ray worker: operator tasks are too short to be seen running,
    #: and a worker that never ran one stays far below one that did.
    #: Ray's own service actors are left out
    rss_role = ""
    job_s = 6.0

    def generate(self, work: str, seed: int, size: dict) -> dict:
        rng = random.Random(seed)
        texts = []
        for i in range(size["docs"]):
            if i >= 20 and i % 25 == 0:  # exact duplicate of an earlier doc
                texts.append(texts[rng.randrange(i)])
            elif i >= 20 and i % 17 == 0:  # near duplicate: ~10 % of tokens swapped
                toks = texts[rng.randrange(i)].split(" ")
                for _ in range(max(1, len(toks) // 10)):
                    toks[rng.randrange(len(toks))] = rng.choice(_WORDS)
                texts.append(" ".join(toks))
            else:
                texts.append(" ".join(rng.choice(_WORDS)
                                      for _ in range(rng.randint(8, 90))))
        n = len(texts)
        documents = pa.table({
            "doc_id": pa.array(range(n), type=pa.int64()),
            "text": texts,
            "lang": [rng.choice(_LANGS) for _ in range(n)],
            "source": [f"src{i % 20}" for i in range(n)],
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        })
        customer = pa.table({
            "c_custkey": pa.array(range(size["customers"]), type=pa.int64()),
            "c_mktsegment": [rng.choice(_SEGMENTS) for _ in range(size["customers"])],
        })
        orders = pa.table({
            "o_orderkey": pa.array(range(size["orders"]), type=pa.int64()),
            "o_custkey": pa.array([rng.randrange(size["customers"])
                                   for _ in range(size["orders"])], type=pa.int64()),
        })
        sf_dir = os.path.join(work, "inputs")
        os.makedirs(sf_dir)
        paths = []
        for name, t in (("documents", documents), ("customer", customer), ("orders", orders)):
            paths.append(os.path.join(sf_dir, f"{name}.parquet"))
            pq.write_table(t, paths[-1])
        return {"inputs": paths, "sf_dir": sf_dir, "docs": n,
                "source_mb": sum(os.path.getsize(p) for p in paths) / 1e6,
                "ops": len(QUERIES)}

    def ledger_table(self, meta: dict) -> pa.Table:
        from smartreader_ray.sources import documents_to_spans_batch

        return documents_to_spans_batch(
            pq.read_table(os.path.join(meta["sf_dir"], "documents.parquet")))

    def reference(self, meta: dict, ledger_ref=None) -> dict:
        """Each query's ``oracle_sql()`` hash; the ledger does not apply."""
        import duckdb

        import __ray_entry__
        from tools.oracle_check import value_hash

        oracles = __ray_entry__.oracle_sql()
        con = duckdb.connect()
        for p in meta["inputs"]:
            name = os.path.basename(p)[: -len(".parquet")]
            con.sql(f"CREATE VIEW {name} AS SELECT * FROM '{p}'")
        hashes = {}
        for q in QUERIES:
            df = con.sql(oracles[q]).df()
            hashes[q] = {"hash": value_hash(df), "rows": len(df)}
        con.close()
        return {"oracle": hashes}

    def run_job(self, meta: dict, tracer) -> dict:
        import __ray_entry__
        from tools.oracle_check import to_pandas, value_hash

        queries = __ray_entry__.queries()
        results, query_s, datasets = {}, {}, {}
        started = time.perf_counter()
        with tracer.span("job", self.name):
            for q in QUERIES:
                t0 = time.perf_counter()
                with tracer.span(f"functions.{q}"):
                    raw = queries[q](meta["sf_dir"])
                    df = to_pandas(raw)
                query_s[q] = time.perf_counter() - t0
                results[q] = df
                datasets[q] = raw
        wall = time.perf_counter() - started
        res = {"wall_s": wall, "query_s": query_s,
               "hashes": {q: {"hash": value_hash(df), "rows": len(df)}
                          for q, df in results.items()}}
        res["exchange_share"] = {q: _exchange_share(ds) for q, ds in datasets.items()}
        return res

    def layer_extras(self, meta: dict, n_cpus: int) -> dict:
        import ray.data

        return identity_map(ray.data.from_arrow(self.ledger_table(meta)), n_cpus)

    def check(self, meta: dict, ref: dict, res: dict) -> list[str]:
        return [f"{q}: {res['hashes'][q]} != oracle {ref['oracle'][q]}"
                for q in QUERIES if res["hashes"][q] != ref["oracle"][q]]

    def failed_ops(self, res: dict) -> int:
        return 0  # a query either returns (then hash-checked) or fails the sample


#: Ray Data's all-to-all (sub)operators: SortMap/SortReduce,
#: AggregateMap/AggregateReduce, Repartition, RandomShuffle, ...
_EXCHANGE_OPS = ("Sort", "Aggregate", "Repartition", "Shuffle")


def _exchange_share(ds):
    """Share of operator wall time spent in all-to-all operators, over the
    result's ``Dataset.stats()`` and those of the datasets it was built
    from; None when the query returned no Dataset."""
    import ray.data

    if not isinstance(ds, ray.data.Dataset):
        return None
    total = exchange = 0.0
    todo = [ds._get_stats_summary()]
    while todo:
        summary = todo.pop()
        todo.extend(summary.parents)
        for op in summary.operators_stats:
            t = op.time_total_s or 0.0
            total += t
            if any(k in op.operator_name for k in _EXCHANGE_OPS):
                exchange += t
    return exchange / total if total else None


WORKLOADS = {w.name: w for w in (PagesHeavyTail(), CorpusDedupJoin())}


def save_json(path: str, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True, default=str)
