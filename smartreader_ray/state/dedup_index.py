"""Sharded mutable fingerprint index for INCREMENTAL dedup.

Batch dedup (``functions.dedup``) assumes the whole corpus is in the
job: a groupby brings equal keys together once. Production pipelines
also need the other shape — dedup a stream of NEW documents against
everything already accepted (today's crawl vs. the corpus) — which
requires state that mutates across batches. Ray Data cannot express
cross-batch mutable state; this is the documented raw-actor exception
(see package docstring).

Design:
- The index is hash-sharded over N actors; a fingerprint belongs to
  exactly one shard (``fp % N``), so membership+insert is atomic per
  fingerprint without any cross-actor coordination, and shards scale
  horizontally across nodes.
- ``check_and_add`` is one message per (batch, shard): the map task
  sends each shard only its slice of the batch's fingerprints, so
  traffic per batch is O(batch) split N ways, not O(index).
- First arrival wins. Exactly one copy of each distinct fingerprint
  survives globally, whatever the batch/task interleaving — the only
  per-key serialization point is the owning shard actor.
- Exact mode holds a Python set (~60 B/entry: fine to ~10^9 entries per
  shard); ``bloom_bits`` switches a shard to a Bloom filter with
  constant memory for the 10^12-document regime, trading a documented
  false-positive rate (FP ⇒ a non-duplicate dropped; never the
  reverse). The partitioning assumption either way: one shard's index
  fits one actor's heap — size ``num_shards`` to the corpus.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

_BLOOM_HASHES = 4


@ray.remote
class FingerprintShard:
    """One shard of the index. ``bloom_bits=None`` → exact set;
    otherwise a fixed-size Bloom filter (``bloom_bits`` must be a power
    of two)."""

    def __init__(self, bloom_bits: int | None = None):
        if bloom_bits is None:
            self._seen: set | None = set()
            self._bits = None
        else:
            if bloom_bits & (bloom_bits - 1):
                raise ValueError("bloom_bits must be a power of two")
            self._seen = None
            self._bits = np.zeros(bloom_bits // 8, dtype=np.uint8)
            self._mask = np.uint64(bloom_bits - 1)

    def check_and_add(self, fps: list[int]) -> list[bool]:
        """For each fingerprint, True iff it was ALREADY present; new
        ones are inserted. Atomic: the actor processes one call at a
        time, so exactly one caller ever sees False for a given fp."""
        if self._seen is not None:
            seen = self._seen
            out = []
            for fp in fps:
                if fp in seen:
                    out.append(True)
                else:
                    seen.add(fp)
                    out.append(False)
            return out
        bits = self._bits
        out = []
        h = np.asarray(fps, dtype=np.uint64)
        with np.errstate(over="ignore"):
            idxs = [
                ((h * np.uint64(0x9E3779B97F4A7C15 + 2 * k + 1))
                 >> np.uint64(17)) & self._mask
                for k in range(_BLOOM_HASHES)
            ]
        for j in range(len(fps)):
            present = True
            for k in range(_BLOOM_HASHES):
                pos = int(idxs[k][j])
                byte, bit = pos >> 3, 1 << (pos & 7)
                if not bits[byte] & bit:
                    present = False
                    bits[byte] |= bit  # insert while checking
            out.append(present)
        return out

    def size_bytes(self) -> int:
        if self._seen is not None:
            return len(self._seen) * 60  # CPython set-entry estimate
        return int(self._bits.nbytes)

    def count(self) -> int:
        """Exact mode: entries held. Bloom mode: -1 (not tracked)."""
        return len(self._seen) if self._seen is not None else -1

    def dump(self):
        """Snapshot this shard's state for persistence: exact mode →
        sorted int list; Bloom mode → the raw bit array bytes."""
        if self._seen is not None:
            return ("exact", sorted(self._seen))
        return ("bloom", self._bits.tobytes())

    def restore(self, payload) -> None:
        kind, data = payload
        if kind == "exact":
            if self._seen is None:
                raise ValueError("cannot restore exact snapshot into Bloom shard")
            self._seen.update(data)
        else:
            if self._bits is None:
                raise ValueError("cannot restore Bloom snapshot into exact shard")
            bits = np.frombuffer(data, dtype=np.uint8)
            if bits.shape != self._bits.shape:
                raise ValueError("Bloom snapshot size mismatch")
            self._bits |= bits


class DedupIndex:
    """Driver-side handle over the shard actors."""

    def __init__(self, num_shards: int = 8, bloom_bits: int | None = None):
        self.num_shards = num_shards
        self.bloom_bits = bloom_bits
        self.shards = [
            FingerprintShard.remote(bloom_bits) for _ in range(num_shards)
        ]

    def filter_new(self, ds, text_col: str = "text"):
        """documents → the subset not seen before (and index them).

        Each batch fingerprints locally (vectorized rolling hash), sends
        every shard its own fingerprint slice, and drops rows whose
        fingerprint was already indexed — by this job or any earlier
        one sharing the index.
        """
        from ..functions.textstats import doc_fingerprint

        shards = self.shards
        n_shards = self.num_shards

        def fn(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return batch
            fps = doc_fingerprint(batch, text_col=text_col).column(
                "fingerprint"
            ).to_numpy(zero_copy_only=False).astype(np.uint64)
            shard_of = (fps % np.uint64(n_shards)).astype(np.int64)
            dup = np.zeros(len(fps), dtype=bool)
            pending = []
            for s in range(n_shards):
                idx = np.nonzero(shard_of == s)[0]
                if len(idx):
                    pending.append(
                        (idx,
                         shards[s].check_and_add.remote(
                             [int(f) for f in fps[idx]]))
                    )
            for idx, fut in pending:
                dup[idx] = ray.get(fut)
            return batch.filter(pa.array(~dup))

        return ds.map_batches(fn, batch_format="pyarrow")

    def stats(self) -> dict:
        counts = ray.get([s.count.remote() for s in self.shards])
        sizes = ray.get([s.size_bytes.remote() for s in self.shards])
        return {
            "shards": self.num_shards,
            "entries": sum(counts) if all(c >= 0 for c in counts) else None,
            "approx_bytes": sum(sizes),
        }

    def save(self, path: str) -> None:
        """Persist the index as one parquet per shard + meta.json — the
        cross-JOB durability leg: actors die with the Ray session, the
        snapshot doesn't. All shards dump in parallel."""
        _save_shards(path, self.shards,
                     {"kind": "DedupIndex", "num_shards": self.num_shards,
                      "bloom_bits": self.bloom_bits})

    @classmethod
    def load(cls, path: str) -> "DedupIndex":
        """Rebuild an index from :meth:`save` output (shard count and
        mode come from the snapshot)."""
        meta = _load_meta(path, "DedupIndex")
        idx = cls(num_shards=meta["num_shards"],
                  bloom_bits=meta.get("bloom_bits"))
        _restore_shards(path, idx.shards)
        return idx


@ray.remote
class BandKeyShard:
    """One shard of the near-dup index: a set of seen LSH band keys,
    with SEPARATE check and add calls (the near-dup admit decision
    needs all of a doc's bands, which live on different shards — see
    :class:`NearDupIndex` for the resulting consistency contract)."""

    def __init__(self):
        self._seen: set = set()

    def check(self, keys: list[int]) -> list[bool]:
        seen = self._seen
        return [k in seen for k in keys]

    def add(self, keys: list[int]) -> None:
        self._seen.update(keys)

    def count(self) -> int:
        return len(self._seen)

    def size_bytes(self) -> int:
        return len(self._seen) * 60

    def dump(self):
        return ("exact", sorted(self._seen))

    def restore(self, payload) -> None:
        _, data = payload
        self._seen.update(data)


class NearDupIndex:
    """Incremental NEAR-dup index: MinHash-LSH band keys sharded over
    actors — the streaming companion to ``minhash_lsh_candidates``
    exactly as :class:`DedupIndex` is to ``fingerprint_dedup``. A new
    document is rejected when ANY of its band keys was recorded by a
    previously accepted document (same bucket ⇒ likely Jaccard ≥ the
    band threshold); an accepted document records all its band keys.

    Consistency contract (documented, weaker than ``DedupIndex``):
    check and add are separate rounds because one doc's bands span
    shards, so two CONCURRENT near-dup batches can, rarely, both admit
    — the standard streaming-LSH trade. Within one `filter_new` stream
    the actor serialization makes admits deterministic per batch order;
    cross-batch, first-checked wins. Exactness (no false drops beyond
    LSH's own false-positive buckets) is preserved: keys are only added
    for ACCEPTED documents.
    """

    def __init__(self, num_shards: int = 8, num_hashes: int = 64,
                 bands: int = 16, ngram: int = 3, seed: int = 42):
        self.num_shards = num_shards
        self.num_hashes = num_hashes
        self.bands = bands
        self.ngram = ngram
        self.seed = seed
        self.shards = [BandKeyShard.remote() for _ in range(num_shards)]

    def filter_new(self, ds, text_col: str = "text"):
        """documents → the subset whose MinHash bands hit no recorded
        bucket (and record them). One check round + one add round per
        (batch, shard)."""
        from ..functions.dedup import MinHasher

        shards = self.shards
        n_shards = self.num_shards

        class Filter:
            def __init__(self, hasher: MinHasher):
                self.hasher = hasher

            def __call__(self, batch: pa.Table) -> pa.Table:
                if batch.num_rows == 0:
                    return batch
                texts = batch.column(text_col).to_pylist()
                # a doc without n-grams has no keys: never a duplicate
                has, keys = self.hasher.gram_band_keys(texts)
                flat = keys.reshape(-1).astype(np.uint64)
                doc_of = np.repeat(has, keys.shape[1])
                shard_of = (flat % np.uint64(n_shards)).astype(np.int64)
                hit = np.zeros(len(flat), dtype=bool)
                pending = []
                for s in range(n_shards):
                    idx = np.nonzero(shard_of == s)[0]
                    if len(idx):
                        pending.append(
                            (idx, shards[s].check.remote(
                                [int(k) for k in flat[idx]]))
                        )
                for idx, fut in pending:
                    hit[idx] = ray.get(fut)
                dup_doc = np.zeros(len(texts), dtype=bool)
                np.logical_or.at(dup_doc, doc_of, hit)
                accept = ~dup_doc
                add_mask = accept[doc_of]
                adds = []
                for s in range(n_shards):
                    idx = np.nonzero((shard_of == s) & add_mask)[0]
                    if len(idx):
                        adds.append(shards[s].add.remote(
                            [int(k) for k in flat[idx]]))
                ray.get(adds)  # barrier: accepted keys visible before return
                return batch.filter(pa.array(accept))

        # a task stage: the shard actors hold the state, the filter none
        hasher = MinHasher(num_hashes=self.num_hashes, bands=self.bands,
                           ngram=self.ngram, seed=self.seed)
        return ds.map_batches(Filter(hasher), batch_format="pyarrow")

    def stats(self) -> dict:
        counts = ray.get([s.count.remote() for s in self.shards])
        return {"shards": self.num_shards, "band_keys": sum(counts)}

    def save(self, path: str) -> None:
        """Persist band-key shards + the LSH family parameters (a
        snapshot is only valid against the SAME hash family — load
        re-creates it from meta and refuses a mismatch)."""
        _save_shards(
            path, self.shards,
            {
                "kind": "NearDupIndex", "num_shards": self.num_shards,
                "num_hashes": self.num_hashes, "bands": self.bands,
                "ngram": self.ngram, "seed": self.seed,
            },
        )

    @classmethod
    def load(cls, path: str) -> "NearDupIndex":
        meta = _load_meta(path, "NearDupIndex")
        idx = cls(num_shards=meta["num_shards"],
                  num_hashes=meta["num_hashes"], bands=meta["bands"],
                  ngram=meta["ngram"], seed=meta["seed"])
        _restore_shards(path, idx.shards)
        return idx


# ---------------------------------------------------------------------------
# snapshot persistence helpers
# ---------------------------------------------------------------------------
def _save_shards(path: str, shards, meta: dict) -> None:
    import json
    import os

    import pyarrow.parquet as pq

    os.makedirs(path, exist_ok=True)
    dumps = ray.get([s.dump.remote() for s in shards])
    for i, (kind, data) in enumerate(dumps):
        if kind == "exact":
            t = pa.table({"key": pa.array(data, type=pa.uint64())})
        else:  # bloom bit array as a single binary row
            t = pa.table({"bits": pa.array([data], type=pa.binary())})
        pq.write_table(t, os.path.join(path, f"shard_{i:04d}.parquet"))
    meta = dict(meta)
    meta["shard_kinds"] = [k for k, _ in dumps]
    tmp = os.path.join(path, "meta.json.tmp")
    with open(tmp, "w") as f:
        json.dump(meta, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, os.path.join(path, "meta.json"))


def _load_meta(path: str, expect_kind: str) -> dict:
    import json
    import os

    with open(os.path.join(path, "meta.json")) as f:
        meta = json.load(f)
    if meta.get("kind") != expect_kind:
        raise ValueError(
            f"snapshot at {path} is a {meta.get('kind')}, not {expect_kind}"
        )
    return meta


def _restore_shards(path: str, shards) -> None:
    import os

    import pyarrow.parquet as pq

    futs = []
    for i, shard in enumerate(shards):
        t = pq.read_table(os.path.join(path, f"shard_{i:04d}.parquet"))
        if "key" in t.column_names:
            payload = ("exact", t.column("key").to_pylist())
        else:
            payload = ("bloom", t.column("bits")[0].as_py())
        futs.append(shard.restore.remote(payload))
    ray.get(futs)
