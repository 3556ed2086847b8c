"""Resumable incremental crawl pipeline: the end-to-end composition of
the engine's streaming pieces (VERDICT r3 #7).

    wave N of crawl (WARC shards)
      → from-scratch WARC parse (sources/warc.py)
      → DOM extraction (pipelines/build_extraction_pipeline)
      → quality gate (min token count)
      → incremental EXACT dedup against everything ever accepted
        (state.DedupIndex — sharded fingerprint actors)
      → incremental NEAR dedup (state.NearDupIndex — MinHash-LSH bands)
      → curated append to <output>/wave=<name>/

Submit with::

    ray job submit --working-dir . -- \
        python jobs/crawl_job.py --input /data/crawl --output /data/corpus

Resume contract (the CheckpointedTransform discipline, lifted to
wave granularity): after each completed wave the job (1) snapshots both
dedup indexes to ``<output>/_state/<wave>/`` and (2) appends one fsync'd
line to ``<output>/_CRAWL_MANIFEST.jsonl``. Re-running the same command
after ANY crash skips committed waves, reloads the index snapshots of
the LAST COMMITTED wave (stale snapshots/partial outputs of an
uncommitted wave are overwritten), and continues — wave-2 documents
that duplicate wave-1 content are rejected even though the index actors
died with the crashed session.

Scale notes: one WARC shard per Ray read task (the CC corpus layout);
waves are processed one at a time, each streaming end to end; the only
driver-side state is the manifest and the bounded per-wave metric
counts. Index memory is sharded across actors; exact mode to ~10⁹
entries per shard, ``--bloom-bits`` for the 10¹² regime.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

MANIFEST = "_CRAWL_MANIFEST.jsonl"


def _read_manifest(output: str) -> tuple[dict | None, list[dict]]:
    path = os.path.join(output, MANIFEST)
    if not os.path.exists(path):
        return None, []
    header, waves = None, []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("header"):
                header = rec
            else:
                waves.append(rec)
    return header, waves


def _append_manifest(output: str, rec: dict) -> None:
    with open(os.path.join(output, MANIFEST), "a") as f:
        f.write(json.dumps(rec, sort_keys=True) + "\n")
        f.flush()
        os.fsync(f.fileno())


def run_crawl(input_dir: str, output: str, *, min_tokens: int = 5,
              num_shards: int = 4, bloom_bits: int | None = None,
              batch_size: int = 16, max_waves: int | None = None) -> dict:
    """Process every pending wave; returns the job summary. Owns no Ray
    session (caller inits)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from smartreader_ray.pipelines import build_extraction_pipeline
    from smartreader_ray.sources.warc import read_warc
    from smartreader_ray.spanio import html_to_spans
    from smartreader_ray.stages.extract import SPAN_TYPE
    from smartreader_ray.state import DedupIndex, NearDupIndex

    waves = sorted(
        p for p in glob.glob(os.path.join(input_dir, "*"))
        if os.path.isfile(p) and (p.endswith(".warc") or p.endswith(".warc.gz"))
    )
    if not waves:
        raise FileNotFoundError(f"no *.warc[.gz] wave files under {input_dir}")
    os.makedirs(output, exist_ok=True)
    state_dir = os.path.join(output, "_state")

    header, committed = _read_manifest(output)
    params = {"min_tokens": min_tokens, "num_shards": num_shards,
              "bloom_bits": bloom_bits}
    if header is None:
        _append_manifest(output, {"header": 1, **params})
    elif any(header.get(k) != v for k, v in params.items()):
        raise ValueError(
            f"resume parameter mismatch: manifest has "
            f"{ {k: header.get(k) for k in params} }, got {params}"
        )
    done = {rec["wave"] for rec in committed}

    # recover index state: load the snapshot of the LAST COMMITTED wave
    # (snapshots of uncommitted waves are stale — ignored and overwritten)
    if committed:
        last = committed[-1]["wave"]
        snap = os.path.join(state_dir, last)
        exact_idx = DedupIndex.load(os.path.join(snap, "exact"))
        near_idx = NearDupIndex.load(os.path.join(snap, "near"))
    else:
        exact_idx = DedupIndex(num_shards=num_shards, bloom_bits=bloom_bits)
        near_idx = NearDupIndex(num_shards=num_shards)

    def to_spans(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                batch.column("doc_id"),
                pa.array(
                    [html_to_spans(h)
                     for h in batch.column("html").to_pylist()],
                    type=SPAN_TYPE,
                ),
            ],
            names=["doc_id", "spans"],
        )

    def thin(batch: pa.Table) -> pa.Table:
        text = batch.column("text_content")
        n_tok = pc.list_value_length(pc.split_pattern(pc.utf8_trim_whitespace(
            text), " "))
        return pa.Table.from_pydict(
            {
                "doc_id": batch.column("doc_id"),
                "text": text,
                "n_tokens": pc.cast(n_tok, pa.int64()),
            }
        )

    summary = {"waves_run": 0, "waves_skipped": len(done), "accepted": 0}
    for wave_path in waves:
        wave = os.path.basename(wave_path)
        if wave in done:
            continue
        if max_waves is not None and summary["waves_run"] >= max_waves:
            break
        t0 = time.monotonic()
        # each wave is incremental (bounded), so materializing it between
        # stages for the stage counts is driver-safe by construction
        extracted = (
            build_extraction_pipeline(
                read_warc([wave_path]).map_batches(
                    to_spans, batch_format="pyarrow"),
                batch_size=batch_size)
            .map_batches(thin, batch_format="pyarrow")
            .materialize()
        )
        n_in = extracted.count()
        gated = extracted.filter(
            expr=f"n_tokens >= {int(min_tokens)}").materialize()
        n_gated = gated.count()
        uniq = exact_idx.filter_new(gated).materialize()
        n_uniq = uniq.count()
        accepted = near_idx.filter_new(uniq).materialize()
        n_acc = accepted.count()

        wave_out = os.path.join(output, f"wave={wave}")
        if os.path.exists(wave_out):  # partial output of a crashed run
            shutil.rmtree(wave_out)
        accepted.write_parquet(wave_out)

        # commit order matters: snapshot FIRST, manifest line LAST — a
        # crash in between re-runs the wave against the previous snapshot
        snap = os.path.join(state_dir, wave)
        exact_idx.save(os.path.join(snap, "exact"))
        near_idx.save(os.path.join(snap, "near"))
        rec = {
            "wave": wave, "docs": n_in, "quality_pass": n_gated,
            "exact_new": n_uniq, "accepted": n_acc,
            "wall_ms": round((time.monotonic() - t0) * 1000, 1),
        }
        _append_manifest(output, rec)
        done.add(wave)
        summary["waves_run"] += 1
        summary["accepted"] += n_acc
    summary["index"] = {"exact": exact_idx.stats(), "near": near_idx.stats()}
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", required=True,
                    help="directory of wave files (*.warc / *.warc.gz)")
    ap.add_argument("--output", required=True, help="curated corpus directory")
    ap.add_argument("--min-tokens", type=int, default=5)
    ap.add_argument("--num-shards", type=int, default=4)
    ap.add_argument("--bloom-bits", type=int, default=None)
    ap.add_argument("--batch-size", type=int, default=16)
    ap.add_argument("--max-waves", type=int, default=None,
                    help="stop after N uncommitted waves (testing)")
    args = ap.parse_args(argv)

    import ray

    owns = not ray.is_initialized()
    if owns:
        ray.init(include_dashboard=False)
    summary = run_crawl(
        args.input, args.output, min_tokens=args.min_tokens,
        num_shards=args.num_shards, bloom_bits=args.bloom_bits,
        batch_size=args.batch_size, max_waves=args.max_waves,
    )
    print(json.dumps(summary))
    if owns:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
