"""Tier-3 pipeline tests: Ray extraction end-to-end, error isolation,
skew routing, checkpoint/resume, pathological docs, media stage."""

import json
import os

import pyarrow as pa
import pytest

from smartreader_ray.sources import fixture_spans_table, synthetic_corpus_table
from smartreader_ray.spanio import html_to_spans
from smartreader_ray.stages.extract import SPAN_TYPE


def _spans_table(docs: dict[str, str]) -> pa.Table:
    return pa.Table.from_arrays(
        [
            pa.array(list(docs.keys()), type=pa.string()),
            pa.array([html_to_spans(h) for h in docs.values()], type=SPAN_TYPE),
        ],
        names=["doc_id", "spans"],
    )


def test_extraction_pipeline_on_fixtures(ray_session, reference_fixtures):
    import ray.data

    from smartreader_ray.pipelines import build_extraction_pipeline, corpus_metrics

    names = ["001", "002", "aclu", "videos-1", "rtl-1"]
    ds = ray.data.from_arrow(fixture_spans_table(names))
    out = build_extraction_pipeline(ds, batch_size=2)
    rows = {r["doc_id"]: r for r in out.take_all()}
    assert set(rows) == set(names)
    assert rows["001"]["title"] == "Get your Frontend JavaScript Code Covered | Code"
    assert rows["001"]["completed"]
    assert rows["rtl-1"]["dir"] == "rtl"
    assert all(r["lineage"]["engine_version"] for r in rows.values())

    metrics = corpus_metrics(build_extraction_pipeline(ds, batch_size=2))
    assert metrics["docs"] == len(names)
    assert metrics["completed"] == len(names)
    assert metrics["chars_kept"] > 0


def test_error_row_isolation(ray_session):
    import ray.data

    from smartreader_ray.pipelines import build_extraction_pipeline

    # a doc whose spans are null-ish plus healthy docs: all rows come back
    table = _spans_table(
        {
            "good": "<html><body><p>fine content here</p></body></html>",
            "broken": "\x00<not html at all<<<>><p",
            "empty": "",
        }
    )
    out = build_extraction_pipeline(ray.data.from_arrow(table), batch_size=2)
    rows = {r["doc_id"]: r for r in out.take_all()}
    assert set(rows) == {"good", "broken", "empty"}
    assert rows["good"]["completed"]
    # degenerate inputs produce rows (completed or not), never task failures
    for r in rows.values():
        assert isinstance(r["completed"], bool)


def test_skew_routing_splits_paths(ray_session):
    import ray.data

    from smartreader_ray.pipelines import build_extraction_pipeline

    big_doc = (
        "<html><body>" + "<p>big paragraph with text</p>" * 60_000 + "</body></html>"
    )
    table = _spans_table(
        {"small": "<html><body><p>small doc text</p></body></html>", "big": big_doc}
    )
    out = build_extraction_pipeline(
        ray.data.from_arrow(table),
        batch_size=4,
        size_threshold=100_000,
    )
    rows = {r["doc_id"]: r for r in out.take_all()}
    assert set(rows) == {"small", "big"}
    assert rows["big"]["completed"]
    assert rows["big"]["length"] > 100_000


def test_lineage_names_the_extracting_worker(ray_session):
    import ray.data

    from smartreader_ray.pipelines import build_extraction_pipeline

    table = synthetic_corpus_table(8, seed=11, mean_size=2_000)
    out = build_extraction_pipeline(ray.data.from_arrow(table), batch_size=2)
    ids = [r["lineage"]["worker_id"] for r in out.take_all()]
    assert len(ids) == 8
    # the UDF instance is built here and pickled to the tasks
    assert all(int(i.rsplit(":", 1)[1]) != os.getpid() for i in ids), ids


#: the columns a 1-CPU run must reproduce from the in-process UDF
_ONE_CPU_COLUMNS = ["doc_id", "spans", "title", "byline", "content_html",
                    "text_content", "length", "is_readable", "completed"]

_ONE_CPU_CHILD = """
import json, sys
import ray, ray.data
from smartreader_ray.pipelines import build_extraction_pipeline

ray.init(address="local", num_cpus=1, include_dashboard=False,
         log_to_driver=False)
out = build_extraction_pipeline(ray.data.read_parquet(sys.argv[1]))
print(json.dumps(out.select_columns(json.loads(sys.argv[2])).take_all()))
"""


def _rows_digest(rows: list[dict]) -> str:
    import hashlib

    blobs = sorted(json.dumps(r, sort_keys=True) for r in rows)
    return hashlib.sha256("\n".join(blobs).encode()).hexdigest()


def test_one_cpu_session_reads_and_extracts(tmp_path):
    """read_parquet → extraction in a ``num_cpus=1`` session finishes:
    read and extraction tasks each hold the CPU only while they run, so
    neither stage waits forever for the other. Runs in its own process
    under a deadline, because the shared test session has 4 CPUs."""
    import signal
    import subprocess
    import sys

    import pyarrow.parquet as pq

    from smartreader_ray.stages.extract import ExtractBatch

    table = synthetic_corpus_table(64, seed=13, mean_size=4_000)
    for i in range(4):
        pq.write_table(table.slice(16 * i, 16), tmp_path / f"spans-{i}.parquet")
    want = pa.concat_tables(ExtractBatch()(table)).select(_ONE_CPU_COLUMNS)

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    child = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_CHILD, str(tmp_path),
         json.dumps(_ONE_CPU_COLUMNS)],
        cwd=repo, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail("read → extract did not finish in 120 s at num_cpus=1")
    assert child.returncode == 0
    got = json.loads(stdout.splitlines()[-1])
    assert len(got) == 64
    assert _rows_digest(got) == _rows_digest(want.to_pylist())


def test_oversized_doc_flushes_own_subbatch():
    # generator UDF: the oversized doc's output ships as its own table
    from smartreader_ray.stages.extract import ExtractBatch

    big_doc = (
        "<html><body>" + "<p>big paragraph with text</p>" * 10_000 + "</body></html>"
    )
    table = _spans_table(
        {
            "a": "<html><body><p>small doc text one</p></body></html>",
            "big": big_doc,
            "b": "<html><body><p>small doc text two</p></body></html>",
        }
    )
    udf = ExtractBatch(size_threshold=10_000)
    outs = list(udf(table))
    assert len(outs) >= 2  # the big doc forced an early flush
    ids = [i for t in outs for i in t.column("doc_id").to_pylist()]
    assert ids == ["a", "big", "b"]  # row order preserved across flushes


def test_time_budget_yields_error_row():
    from smartreader_ray.extraction import Extractor

    # tens of thousands of nodes + an impossible budget → error row,
    # never an exception escaping parse()
    doc = (
        "<html><body><div>"
        + "<p>some repeated paragraph text</p>" * 20_000
        + "</div></body></html>"
    )
    a = Extractor().parse("https://localhost/", doc, time_budget_s=1e-4)
    assert not a.completed
    assert "budget" in a.error
    # and with no budget the same doc completes
    b = Extractor().parse("https://localhost/", doc)
    assert b.completed


def test_pathological_empty_paragraphs_preclean(ray_session):
    import time

    from smartreader_ray.extraction import ExtractorConfig, parse_article

    # the notes.md war story: tens of thousands of empty <p> nodes
    doc = "<html><body><div>" + "<p>&nbsp;</p>" * 20_000 + "<p>real text</p></div></body></html>"
    cfg = ExtractorConfig(pre_clean_page=True)
    t0 = time.time()
    a = parse_article("https://localhost/", doc, cfg)
    assert time.time() - t0 < 30
    assert a.completed
    assert "real text" in a.text_content


def test_checkpoint_resume(ray_session, tmp_path):
    import ray.data

    from smartreader_ray.pipelines import CheckpointedExtraction, read_manifest

    table = synthetic_corpus_table(24, heavy_tail_every=0)
    out_dir = str(tmp_path / "out")

    def make_ds():
        return ray.data.from_arrow(table)

    job = CheckpointedExtraction(out_dir, num_partitions=4, batch_size=4)
    # first run: only 2 of 4 partitions (simulated crash after wave 2)
    summary1 = job.run(make_ds, max_partitions=2)
    assert summary1["partitions_run"] == 2
    committed = read_manifest(out_dir)
    assert len(committed) == 2

    # resume: processes ONLY the remaining partitions
    job2 = CheckpointedExtraction(out_dir, num_partitions=4, batch_size=4)
    pending_before = set(job2.pending_partitions())
    summary2 = job2.run(make_ds)
    assert summary2["partitions_run"] == 2
    assert set(read_manifest(out_dir)) == {0, 1, 2, 3}
    assert pending_before.isdisjoint(set(committed))

    # final table covers every doc exactly once
    result = job2.result_dataset()
    doc_ids = [r["doc_id"] for r in result.select_columns(["doc_id"]).take_all()]
    assert sorted(doc_ids) == sorted(table.column("doc_id").to_pylist())

    # manifest carries per-partition lineage metrics
    for rec in read_manifest(out_dir).values():
        assert rec["row_count"] > 0
        assert rec["metrics"]["chars_kept"] > 0
        assert rec["wall_ms"] > 0


def test_media_stage(ray_session):
    import ray.data

    from smartreader_ray.pipelines import build_extraction_pipeline
    from smartreader_ray.stages.media import MediaDecodeStub, media_spans_table

    table = _spans_table(
        {
            "withimg": (
                "<html><body><div><p>some long enough paragraph of text here</p>"
                '<img src="/a.png" alt="A"><p>more text follows here too</p>'
                "</div></body></html>"
            )
        }
    )
    articles = build_extraction_pipeline(ray.data.from_arrow(table), batch_size=2)
    media = articles.map_batches(media_spans_table, batch_format="pyarrow")
    decoded = media.map_batches(
        MediaDecodeStub, batch_format="pyarrow", concurrency=(1, 2)
    ).take_all()
    assert len(decoded) == 1
    meta = decoded[0]["media_meta"]
    assert meta["kind"] == "image"
    assert meta["media_ref"].endswith("/a.png")
    assert meta["sha256"]


def test_resume_rewrites_uncommitted_partition(ray_session, tmp_path):
    """Crash window: partition files on disk but the manifest line was
    never fsync'd → the partition is NOT committed and must be rewritten
    from scratch on resume (no duplicates, no missing docs)."""
    import glob

    import ray.data

    from smartreader_ray.pipelines import CheckpointedExtraction, read_manifest

    table = synthetic_corpus_table(16, heavy_tail_every=0)
    out_dir = str(tmp_path / "out")

    def make_ds():
        return ray.data.from_arrow(table)

    job = CheckpointedExtraction(out_dir, num_partitions=2, batch_size=4)
    job.run(make_ds, max_partitions=1)
    committed = set(read_manifest(out_dir))
    assert len(committed) == 1

    # simulate the crash window for the OTHER partition: files exist,
    # manifest line lost
    pending = job.pending_partitions()[0]
    part_dir = tmp_path / "out" / f"part-{pending:05d}"
    part_dir.mkdir()
    (part_dir / "garbage.parquet").write_bytes(b"not a parquet file")

    job2 = CheckpointedExtraction(out_dir, num_partitions=2, batch_size=4)
    assert job2.pending_partitions() == [pending]
    job2.run(make_ds)
    assert set(read_manifest(out_dir)) == {0, 1}

    result = job2.result_dataset()
    doc_ids = [r["doc_id"] for r in result.select_columns(["doc_id"]).take_all()]
    assert sorted(doc_ids) == sorted(table.column("doc_id").to_pylist())


def test_checkpoint_file_sliced_reads_only_own_slice(ray_session, tmp_path):
    """run_files: each wave reads ONLY its file slice — the whole run
    passes every input file to the reader exactly once (no K full scans),
    and resume picks up only the uncommitted slices."""
    import pyarrow.parquet as pq
    import ray.data

    from smartreader_ray.pipelines import CheckpointedExtraction, read_manifest

    table = synthetic_corpus_table(24, heavy_tail_every=0)
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    files = []
    for i in range(6):  # 6 input files x 4 docs
        path = str(in_dir / f"shard-{i:03d}.parquet")
        pq.write_table(table.slice(i * 4, 4), path)
        files.append(path)
    out_dir = str(tmp_path / "out")

    calls: list[list[str]] = []

    def reader(fs):
        calls.append(list(fs))
        return ray.data.read_parquet(fs)

    job = CheckpointedExtraction(out_dir, num_partitions=3, batch_size=4)
    job.run_files(files, reader=reader, max_partitions=1)
    assert len(calls) == 1 and len(calls[0]) == 2  # wave 0: files [0::3]
    assert set(read_manifest(out_dir)) == {0}

    job2 = CheckpointedExtraction(out_dir, num_partitions=3, batch_size=4)
    job2.run_files(files, reader=reader)
    assert set(read_manifest(out_dir)) == {0, 1, 2}
    # across all waves every file was read exactly once
    seen = [f for c in calls for f in c]
    assert sorted(seen) == sorted(files)
    # slices are disjoint
    assert len(set(seen)) == len(seen)

    result = job2.result_dataset()
    doc_ids = [r["doc_id"] for r in result.select_columns(["doc_id"]).take_all()]
    assert sorted(doc_ids) == sorted(table.column("doc_id").to_pylist())
    # lineage: each row tagged with the partition that owned its file
    pids = {r["lineage"]["partition_id"]
            for r in result.select_columns(["lineage"]).take_all()}
    assert pids == {0, 1, 2}


def test_checkpoint_header_guards_resume(ray_session, tmp_path):
    """Manifest header fail-fast: resuming with a different num_partitions
    or a different input listing raises instead of silently remapping."""
    import pyarrow.parquet as pq
    import ray.data

    from smartreader_ray.pipelines import CheckpointedExtraction

    table = synthetic_corpus_table(8, heavy_tail_every=0)
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    files = []
    for i in range(4):
        path = str(in_dir / f"shard-{i:03d}.parquet")
        pq.write_table(table.slice(i * 2, 2), path)
        files.append(path)
    out_dir = str(tmp_path / "out")

    job = CheckpointedExtraction(out_dir, num_partitions=4, batch_size=4)
    job.run_files(files, max_partitions=1)

    # wrong partition count
    bad = CheckpointedExtraction(out_dir, num_partitions=2, batch_size=4)
    with pytest.raises(ValueError, match="num_partitions"):
        bad.run_files(files)

    # wrong input listing
    bad2 = CheckpointedExtraction(out_dir, num_partitions=4, batch_size=4)
    with pytest.raises(ValueError, match="input"):
        bad2.run_files(files[:3])

    # wrong mode (hash resume over a files manifest)
    bad3 = CheckpointedExtraction(out_dir, num_partitions=4, batch_size=4)
    with pytest.raises(ValueError, match="mode"):
        bad3.run(lambda: ray.data.from_arrow(table))

    # correct config resumes fine
    ok = CheckpointedExtraction(out_dir, num_partitions=4, batch_size=4)
    ok.run_files(files)
    assert ok.pending_partitions() == []


def test_convert_images_to_data_uri():
    """BasicTests.cs:429-467 parity: big image inlined byte-exact, small
    image removed."""
    import base64

    from smartreader_ray.stages.media import (
        convert_image_to_data_uri,
        convert_images_to_data_uri,
    )

    # byte-exact length check ported from TestConvertImagesAsDataURI:
    # big_image.jpg is 429282 bytes → base64 572376 chars + 23-char
    # "data:image/jpeg;base64," prefix = 572399; the reference asserts
    # 572400 counting the opening quote of src="
    big = bytes(range(256)) * 1676 + bytes(226)  # 429282 bytes
    assert len(big) == 429282
    uri = convert_image_to_data_uri("/big_image.jpg", big)
    assert len(uri) == 572399
    assert 1 + len(uri) == 572400
    assert uri.startswith("data:image/jpeg;base64,")
    assert uri == "data:image/jpeg;base64," + base64.b64encode(big).decode()

    html = (
        "<div><p>This is a paragraph with some text.</p>"
        '<p>small <img src="https://localhost/small_image.png" alt="Nothing valuable"></p>'
        '<p>big <img src="https://localhost/big_image.jpg" alt="Something very valuable"></p></div>'
    )
    payloads = {
        "https://localhost/small_image.png": b"x" * 28834,
        "https://localhost/big_image.jpg": big,
    }
    new_html, n_in, n_rm = convert_images_to_data_uri(html, payloads.__getitem__)
    assert (n_in, n_rm) == (1, 1)
    assert new_html.count("<img") == 1  # small one removed
    assert "data:image/jpeg;base64," in new_html
    assert "small_image.png" not in new_html

    # fetch error leaves the img untouched (reference bare catch)
    def broken(_):
        raise OSError("no network")

    unchanged, n_in2, n_rm2 = convert_images_to_data_uri(html, broken)
    assert (n_in2, n_rm2) == (0, 0)
    assert unchanged.count("<img") == 2


def test_svg_data_uri_preserved_by_fix_relative_uris():
    """BasicTests.cs:470-486 parity: a data: src must never be
    absolutized against the page URI."""
    from smartreader_ray.extraction import parse_article

    svg = (
        "data:image/svg+xml,%3C%3Fxml version='1.0' encoding='UTF-8'%3F%3E"
        "%3Csvg xmlns='http://www.w3.org/2000/svg' width='1' height='1'/%3E"
    )
    doc = (
        "<html><body><div><p>"
        + "Plenty of real article prose, with commas, to extract. " * 20
        + f'</p><p>inline vector <img src="{svg}"></p></div></body></html>'
    )
    a = parse_article("https://localhost/article", doc)
    assert svg in a.content_html
    assert "https://localhost/data:" not in a.content_html


def test_image_data_uri_inliner_stage(ray_session):
    import pyarrow as pa
    import ray.data

    from smartreader_ray.stages.media import ImageDataUriInliner

    rows = pa.table(
        {
            "doc_id": ["d1", "d2"],
            "content_html": [
                '<div><p>text</p><img src="https://x/img-a.jpg"><img src="https://x/img-b.png"></div>',
                "<div><p>no images at all</p></div>",
            ],
        }
    )
    out = {
        r["doc_id"]: r
        for r in ray.data.from_arrow(rows)
        .map_batches(ImageDataUriInliner, batch_format="pyarrow",
                     concurrency=1, batch_size=8)
        .take_all()
    }
    assert out["d1"]["n_inlined"] + out["d1"]["n_removed"] == 2
    assert out["d2"]["n_inlined"] == 0 and out["d2"]["n_removed"] == 0
    if out["d1"]["n_inlined"]:
        assert "data:image/" in out["d1"]["content_html"]


def test_decode_html_bytes_charset_paths():
    """S3 charset transcode parity (SmartReader.cs:468-472,
    HeaderEncodingProvider.cs:9-21): header forcing, BOM, UTF-8, header
    fallback, meta sniff, latin-1 last resort."""
    from smartreader_ray.sources import decode_html_bytes

    text = "café città naïve"
    # forced header encoding wins even over valid utf-8 bytes
    forced = decode_html_bytes(
        text.encode("utf-8"), "latin-1", force_header_encoding=True
    )
    assert forced == text.encode("utf-8").decode("latin-1")
    # BOM
    assert decode_html_bytes(b"\xef\xbb\xbf" + text.encode("utf-8")) == text
    assert decode_html_bytes(
        b"\xff\xfe" + text.encode("utf-16-le")) == text
    # plain utf-8
    assert decode_html_bytes(text.encode("utf-8")) == text
    # not utf-8 → header charset
    assert decode_html_bytes(text.encode("latin-1"), "latin-1") == text
    # not utf-8, no header → meta sniff
    doc = f'<html><head><meta charset="iso-8859-1"></head><body>{text}</body></html>'
    assert text in decode_html_bytes(doc.encode("latin-1"))
    doc2 = ('<html><head><meta http-equiv="Content-Type" '
            f'content="text/html; charset=iso-8859-1"></head><body>{text}</body></html>')
    assert text in decode_html_bytes(doc2.encode("latin-1"))
    # garbage charset names never raise
    assert decode_html_bytes(text.encode("latin-1"), "no-such-charset") == \
        text.encode("latin-1").decode("latin-1")


def test_extract_batch_decodes_byte_html(ray_session):
    """Raw-byte html column + charset column flows through the extractor."""
    import pyarrow as pa
    import ray.data

    from smartreader_ray.pipelines import build_extraction_pipeline

    body = "Séance prose with accents, et plus encore. " * 15
    html = f"<html><body><div><p>{body}</p></div></body></html>"
    table = pa.table(
        {
            "doc_id": ["latin", "utf8"],
            "html": pa.array(
                [html.encode("latin-1"), html.encode("utf-8")], type=pa.binary()
            ),
            "charset": ["iso-8859-1", None],
        }
    )
    out = build_extraction_pipeline(ray.data.from_arrow(table), batch_size=2)
    rows = {r["doc_id"]: r for r in out.take_all()}
    assert rows["latin"]["completed"] and rows["utf8"]["completed"]
    assert "Séance" in rows["latin"]["text_content"]
    assert "Séance" in rows["utf8"]["text_content"]


def test_pdf_text_roundtrip():
    """From-scratch PDF extractor: text round-trips through the
    deterministic generator for plain and FlateDecode streams."""
    from smartreader_ray.stages.pdf import make_simple_pdf, pdf_to_text

    cases = [
        "Hello, PDF world!",
        "Line one\nLine two\nLine three",
        "Parens (and) backslash \\ escapes",
        "",
        "special chars: 50% #1 <tag> & café",  # latin-1 range
    ]
    for text in cases:
        for compress in (True, False):
            assert pdf_to_text(make_simple_pdf(text, compress=compress)) == text

    import pytest as _pytest

    with _pytest.raises(ValueError, match="not a PDF"):
        pdf_to_text(b"plain bytes")
    with _pytest.raises(ValueError, match="encrypted"):
        pdf_to_text(b"%PDF-1.4 /Encrypt 1 0 R")


def test_pdf_tj_array_and_hex_strings():
    """TJ arrays (kerned text) and hex strings decode too."""
    import zlib

    from smartreader_ray.stages.pdf import pdf_to_text

    content = b"BT [(Kerned) -20 ( text)] TJ T* <48656C6C6F> Tj ET"
    pdf = (
        b"%%PDF-1.4\n1 0 obj\n<< /Length %d >>\nstream\n%s\nendstream\nendobj\n"
        % (len(content), content)
    )
    assert pdf_to_text(pdf) == "Kerned text\nHello"


def test_pdf_extract_stage(ray_session):
    """Ray actor-pool stage: per-file failures become error rows."""
    import pyarrow as pa
    import ray.data

    from smartreader_ray.stages.pdf import PdfTextExtract, make_simple_pdf

    rows = pa.table(
        {
            "doc_id": ["ok", "broken", "encrypted"],
            "pdf": pa.array(
                [
                    make_simple_pdf("good document text"),
                    b"garbage not a pdf",
                    b"%PDF-1.4 /Encrypt x",
                ],
                type=pa.binary(),
            ),
        }
    )
    out = {
        r["doc_id"]: r
        for r in ray.data.from_arrow(rows)
        .map_batches(PdfTextExtract, batch_format="pyarrow", concurrency=1)
        .take_all()
    }
    assert out["ok"]["text"] == "good document text"
    assert out["ok"]["error"] == ""
    assert "ValueError" in out["broken"]["error"]
    assert "encrypted" in out["encrypted"]["error"]
    assert out["broken"]["text"] == "" and out["encrypted"]["text"] == ""


def test_write_spans_seam(ray_session, tmp_path):
    """write_spans: lance writer when present, parquet fallback — the
    round-trip preserves the span table."""
    import ray.data

    from smartreader_ray.sources import read_spans, write_spans

    table = synthetic_corpus_table(8, heavy_tail_every=0)
    out = str(tmp_path / "spans_out")
    fmt = write_spans(ray.data.from_arrow(table), out)
    assert fmt in ("lance", "parquet")
    back = read_spans(out)
    ids = sorted(r["doc_id"] for r in back.select_columns(["doc_id"]).take_all())
    assert ids == sorted(table.column("doc_id").to_pylist())


def test_driver_entry_contract(ray_session):
    """The driver smoke-check: entry() runs and yields rows with a stable
    schema; every oracle_sql() key exists in queries()."""
    import importlib
    import sys

    sys.path.insert(0, "/root/repo")
    entrymod = importlib.import_module("__ray_entry__")
    ds = entrymod.entry()
    rows = ds.take(5) if hasattr(ds, "take") else ds[:5]
    assert len(rows) > 0
    assert {"doc_id", "title", "length"} <= set(rows[0].keys())
    q = entrymod.queries()
    oracles = entrymod.oracle_sql()
    assert set(oracles) <= set(q), set(oracles) - set(q)


def test_training_pipeline_composition(ray_session):
    """filter → dedup → join-back → sample, end to end: short docs and
    duplicate content are excluded before sampling."""
    import ray.data

    from smartreader_ray.pipelines import build_training_pipeline

    body = "long enough document body text " * 10  # ~310 chars
    rows = (
        [{"doc_id": i, "text": f"{body} unique {i}", "lang": "en"}
         for i in range(20)]
        + [{"doc_id": 100 + i, "text": body + " duplicate", "lang": "de"}
           for i in range(5)]                       # 5 exact dups → 1 kept
        + [{"doc_id": 200, "text": "short", "lang": "en"}]  # filtered out
    )
    out = build_training_pipeline(
        ray.data.from_items(rows), min_chars=200, n_per_lang=10
    ).take_all()
    by_lang = {}
    for r in out:
        by_lang.setdefault(r["lang"], set()).add(r["doc_id"])
    assert len(by_lang["en"]) == 10
    assert 200 not in by_lang["en"]          # quality-filtered
    assert by_lang["de"] == {100}            # dups collapsed to min doc_id


def test_oracle_sql_all_parse_in_duckdb():
    """Every oracle SQL string must at least plan against the real sf0.001
    views — catches column/name drift between queries() and oracle_sql()
    before the driver does."""
    import importlib
    import sys

    import duckdb

    sys.path.insert(0, "/root/repo")
    entrymod = importlib.import_module("__ray_entry__")
    con = duckdb.connect()
    tables = ("region nation customer supplier part orders lineitem "
              "events documents embeddings").split()
    for t in tables:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('/root/testdata/sf0.001/{t}.parquet')"
        )
    for name, sql in entrymod.oracle_sql().items():
        try:
            con.execute(f"EXPLAIN {sql}")
        except Exception as exc:  # pragma: no cover
            raise AssertionError(f"oracle {name!r} does not plan: {exc}")


def test_oracle_check_skips_only_absent_fixture_reads(tmp_path,
                                                     monkeypatch):
    """tools/oracle_check.py names a query skipped only when the fixture
    directory is missing AND the query's FileNotFoundError is for a
    path under it; every other exception stays a failure."""
    import smartreader_ray.sources as sources
    from tools.oracle_check import fixtures_absent

    fixtures = str(tmp_path / "pages")
    monkeypatch.setattr(sources, "FIXTURE_DIR", fixtures)

    def missing(path):
        return FileNotFoundError(2, "No such file or directory", path)

    assert fixtures_absent(missing(fixtures)) == fixtures
    assert fixtures_absent(
        missing(os.path.join(fixtures, "001", "source.html"))) == fixtures
    assert fixtures_absent(missing(str(tmp_path / "pages2"))) is None
    assert fixtures_absent(missing(str(tmp_path / "orders.parquet"))) is None
    assert fixtures_absent(FileNotFoundError("no filename")) is None
    assert fixtures_absent(ValueError(fixtures)) is None
    os.mkdir(fixtures)
    assert fixtures_absent(missing(os.path.join(fixtures, "x"))) is None


def test_checkpointed_transform_generic_resume(ray_session, tmp_path):
    """The generic checkpoint base works for a NON-extraction pipeline:
    a curation-style filter+stat transform, committed per partition,
    resumed without re-running committed work."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from smartreader_ray.pipelines import CheckpointedTransform

    def make_input():
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([str(i) for i in range(40)],
                                       type=pa.string()),
                    "n": pa.array(list(range(40)), type=pa.int64()),
                }
            )
        )

    def transform(ds):
        def keep_even(b):
            return b.filter(pc.equal(pc.bit_wise_and(b.column("n"), 1), 0))

        return ds.map_batches(keep_even, batch_format="pyarrow").map_batches(
            lambda b: b.append_column(
                "n2", pc.multiply(b.column("n"), b.column("n"))
            ),
            batch_format="pyarrow",
        )

    out = str(tmp_path / "ckpt")
    job = CheckpointedTransform(out, transform, num_partitions=4,
                                input_fingerprint="t1")
    first = job.run(make_input, max_partitions=2)
    assert first["partitions_run"] == 2
    # resume: only the remaining two partitions run
    second = CheckpointedTransform(out, transform, num_partitions=4,
                                   input_fingerprint="t1").run(make_input)
    assert second["partitions_run"] == 2
    result = job.result_dataset()
    rows = sorted(r["n"] for r in result.take_all())
    assert rows == list(range(0, 40, 2))
    # a different input fingerprint must refuse to resume
    import pytest as _pytest

    with _pytest.raises(ValueError):
        CheckpointedTransform(out, transform, num_partitions=4,
                              input_fingerprint="OTHER").run(make_input)
