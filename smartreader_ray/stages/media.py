"""Multimodal span processing: decode / feature-extract stages.

Media payloads are opaque ``binary`` columns + typed metadata. Each
stage is a callable class whose instance ``map_batches`` runs as tasks;
the codecs are stateless, so no worker keeps state between calls. Image
(BMP/PPM/PGM) and audio (PCM WAV) decoding is REAL — pure-stdlib
parsers in ``stages/codecs.py`` — so the resize / stats / audio-feature
stages exercise genuine byte-level decode end to end. PIL/ffmpeg
formats (JPEG/MP4/…) are NOT in this container: ``MediaDecodeStub``
remains the deterministic stand-in for payload-less metadata probes,
and the FVID container stands in for video demux (its frames are real
BMPs). Swap the decoders for PIL/ffmpeg kernels on a cluster that has
them — every stage signature already matches.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

MEDIA_META_TYPE = pa.struct(
    [
        pa.field("media_ref", pa.string()),
        pa.field("kind", pa.string()),
        pa.field("n_bytes", pa.int64()),
        pa.field("width", pa.int32()),
        pa.field("height", pa.int32()),
        pa.field("duration_ms", pa.int32()),
        pa.field("sha256", pa.string()),
    ]
)


def _decode_stub(kind: str, payload: bytes) -> dict:
    """Deterministic fake decode. A real kernel would raise
    NotImplementedError here until PIL/ffmpeg are available."""
    digest = hashlib.sha256(payload).hexdigest()
    seed = int(digest[:8], 16)
    width = 64 + (seed % 1920)
    height = 64 + ((seed >> 8) % 1080)
    duration = (seed >> 16) % 600_000 if kind in ("video", "audio") else 0
    return {
        "n_bytes": len(payload),
        "width": width if kind in ("image", "video") else 0,
        "height": height if kind in ("image", "video") else 0,
        "duration_ms": duration,
        "sha256": digest,
    }


class MediaDecodeStub:
    """Stage over rows of (doc_id, media_ref, kind, payload).

    Large binary payloads → keep ``batch_size`` small (e.g. 4-16) so a
    batch times the tasks running at once (up to the session's CPUs)
    fits worker heap; the object store spills the rest. Per-item failures become ``error`` values, not task failures.
    """

    def __init__(self, decoder=None):
        self.decoder = decoder or _decode_stub

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        refs = batch.column("media_ref").to_pylist()
        kinds = batch.column("kind").to_pylist()
        payloads = (
            batch.column("payload").to_pylist()
            if "payload" in batch.column_names
            else [b""] * len(doc_ids)
        )
        metas, errors = [], []
        for kind, ref, payload in zip(kinds, refs, payloads):
            try:
                info = self.decoder(kind or "", payload or b"")
                metas.append({"media_ref": ref or "", "kind": kind or "", **info})
                errors.append("")
            except NotImplementedError as exc:
                metas.append(
                    {
                        "media_ref": ref or "", "kind": kind or "", "n_bytes": len(payload or b""),
                        "width": 0, "height": 0, "duration_ms": 0, "sha256": "",
                    }
                )
                errors.append(f"decode-unavailable: {exc}")
        return pa.Table.from_arrays(
            [
                pa.array(doc_ids, type=pa.string()),
                pa.array(metas, type=MEDIA_META_TYPE),
                pa.array(errors, type=pa.string()),
            ],
            names=["doc_id", "media_meta", "error"],
        )


# ---------------------------------------------------------------------------
# data-URI image inlining (Image.cs:29-36, Article.cs:236-260)
# ---------------------------------------------------------------------------
#: extension (no dot, lowercase) → mime type; the reference delegates to
#: the MimeTypeNames package — this is the image/video subset it resolves.
MIME_FROM_EXTENSION = {
    "jpg": "image/jpeg", "jpeg": "image/jpeg", "png": "image/png",
    "gif": "image/gif", "webp": "image/webp", "svg": "image/svg+xml",
    "bmp": "image/bmp", "ico": "image/x-icon", "tif": "image/tiff",
    "tiff": "image/tiff", "avif": "image/avif",
    "mp4": "video/mp4", "webm": "video/webm", "ogv": "video/ogg",
    "mp3": "audio/mpeg", "ogg": "audio/ogg", "wav": "audio/wav",
}


def convert_image_to_data_uri(path: str, data: bytes) -> str:
    """`Image.ConvertImageToDataUri` parity (Image.cs:29-36): mime from
    the path's last-dot extension, standard padded base64."""
    import base64

    dot = path.rfind(".")
    ext = path[dot + 1 :].lower() if dot > 0 else ""
    # strip URL query/fragment remnants ("logo.png?v=2")
    ext = ext.split("?", 1)[0].split("#", 1)[0]
    mime = MIME_FROM_EXTENSION.get(ext, "application/octet-stream")
    return f"data:{mime};base64,{base64.b64encode(data).decode('ascii')}"


def convert_images_to_data_uri(
    content_html: str, fetch, min_size: int = 75000
) -> tuple[str, int, int]:
    """`Article.ConvertImagesToDataUriAsync` parity (Article.cs:236-260):
    every ``<img src>`` whose payload exceeds ``min_size`` bytes gets its
    src replaced by the data-URI form; smaller images are REMOVED; fetch
    errors leave the img untouched (the reference's bare catch).

    ``fetch(src) -> bytes`` replaces the network GET (out of scope here);
    pipelines pass a payload-column resolver or the deterministic stub.
    Returns (new_html, n_inlined, n_removed).
    """
    from urllib.parse import urlparse

    from ..dom import parse_html
    from ..dom.serialize import inner_html

    doc = parse_html(content_html)
    body = doc.body
    if body is None:
        return content_html, 0, 0
    inlined = removed = 0
    for img in list(body.get_elements_by_tag_name("img")):
        src = img.get_attribute("src")
        if not src or src.startswith("data:"):
            continue
        try:
            data = fetch(src)
            if data is None:
                continue
            if len(data) > min_size:
                img.set_attribute(
                    "src", convert_image_to_data_uri(urlparse(src).path, data)
                )
                inlined += 1
            else:
                img.remove()
                removed += 1
        except Exception:
            continue
    return inner_html(body), inlined, removed


def _payload_stub(media_ref: str) -> bytes:
    """Deterministic fake image bytes (size derived from the ref hash) —
    stands in for the network GET the sandbox cannot do."""
    digest = hashlib.sha256((media_ref or "").encode()).digest()
    size = 1000 + int.from_bytes(digest[:4], "big") % 200_000
    reps = -(-size // len(digest))
    return (digest * reps)[:size]


class ImageDataUriInliner:
    """Stage over extracted article rows: rewrite
    ``content_html`` inlining images as data URIs (resolver-fed payloads,
    default deterministic stub). Emits per-doc inline/remove counts."""

    def __init__(self, resolver=None, min_size: int = 75000):
        self.resolver = resolver or _payload_stub
        self.min_size = min_size

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_html, out_inlined, out_removed = [], [], []
        for html in batch.column("content_html").to_pylist():
            new_html, n_in, n_rm = convert_images_to_data_uri(
                html or "", self.resolver, self.min_size
            )
            out_html.append(new_html)
            out_inlined.append(n_in)
            out_removed.append(n_rm)
        return pa.Table.from_pydict(
            {
                "doc_id": batch.column("doc_id"),
                "content_html": pa.array(out_html, type=pa.string()),
                "n_inlined": pa.array(out_inlined, type=pa.int64()),
                "n_removed": pa.array(out_removed, type=pa.int64()),
            }
        )


def select_article_images(refs_and_sizes, min_size: int = 75_000,
                          featured: str = "") -> tuple[list, str]:
    """`Article.GetImagesAsync` parity (Article.cs:171-220): keep images
    whose probed byte size is STRICTLY greater than ``min_size``, in
    document order; if no FeaturedImage was set by metadata, the first
    qualifying image becomes it. The network HEAD probe is out of scope
    in this sandbox — callers supply (ref, size) pairs from whatever
    probe they have (real HEAD on a cluster, the deterministic
    ``_payload_stub`` here).

    Returns (kept [(ref, size), ...], featured_image)."""
    kept = [(r, s) for r, s in refs_and_sizes if r and s > min_size]
    if not featured and kept:
        featured = kept[0][0]
    return kept, featured


def media_spans_table(article_batch: pa.Table) -> pa.Table:
    """Explode extracted article rows into one row per media span —
    the hand-off from extraction output to media-processing stages."""
    out_doc, out_ref, out_kind, out_offset = [], [], [], []
    for doc_id, spans in zip(
        article_batch.column("doc_id").to_pylist(),
        article_batch.column("spans").to_pylist(),
    ):
        for span in spans or []:
            if span["kind"] in ("image", "video", "audio", "embed") and span["media_ref"]:
                out_doc.append(doc_id)
                out_ref.append(span["media_ref"])
                out_kind.append(span["kind"])
                out_offset.append(span["offset"])
    return pa.Table.from_pydict(
        {
            "doc_id": pa.array(out_doc, type=pa.string()),
            "media_ref": pa.array(out_ref, type=pa.string()),
            "kind": pa.array(out_kind, type=pa.string()),
            "offset": pa.array(out_offset, type=pa.int32()),
        }
    )


# ---------------------------------------------------------------------------
# resize / frame-sample / feature-extract stages
#
# Image decode is REAL: 24-bit BMP and binary PPM/PGM, parsed from
# bytes with the struct module (`stages/codecs.py`) — no PIL needed.
# Audio decode is REAL: PCM WAV via stdlib `wave`. Only the *video
# container* remains bespoke (no ffmpeg in this container): FVID is a
# trivial length-prefixed frame concatenation standing in for demux,
# but the frames inside it are real BMPs that downstream stages decode
# for real. The byte-histogram feature extractor needs no codec at all.

FVID_MAGIC = b"FVID"


def fvid_encode(frames: list[bytes]) -> bytes:
    """Trivial video container (demux stand-in — no ffmpeg in this
    environment): magic + uint16 frame count, then per frame uint32
    length + bytes. Frames themselves are real encoded images (BMP)."""
    out = [FVID_MAGIC, len(frames).to_bytes(2, "big")]
    for f in frames:
        out.append(len(f).to_bytes(4, "big"))
        out.append(f)
    return b"".join(out)


def fvid_decode(payload: bytes):
    from .codecs import MediaDecodeError

    if payload[:4] != FVID_MAGIC or len(payload) < 6:
        raise MediaDecodeError("not an FVID container")
    n = int.from_bytes(payload[4:6], "big")
    pos = 6
    for _ in range(n):
        ln = int.from_bytes(payload[pos:pos + 4], "big")
        pos += 4
        yield payload[pos:pos + ln]
        pos += ln


# backward-compatible aliases (pre-round-4 names)
fake_video_encode = fvid_encode


def _resize_nearest(px, max_dim: int):
    """Deterministic nearest-neighbor downscale preserving aspect ratio:
    new dims by integer floor division, source indices ``(i·src)//dst``
    — pure integer math an oracle can replay. No-op if already within
    ``max_dim``."""
    import numpy as np

    h, w = px.shape[:2]
    mx = max(w, h)
    if mx <= max_dim:
        return px, w, h
    nw = max(1, (w * max_dim) // mx)
    nh = max(1, (h * max_dim) // mx)
    rows = (np.arange(nh) * h) // nh
    cols = (np.arange(nw) * w) // nw
    return px[rows][:, cols], nw, nh


class ImageResizeStage:
    """Stage: (doc_id, media_ref, payload) → resized payload
    + before/after dimensions. REAL decode (BMP/PPM/PGM via
    `stages/codecs.py`), deterministic nearest-neighbor resample,
    re-encode in the source format. Per-item failures become ``error``
    rows, never task failures (the skew/error philosophy of
    `ExtractBatch`).

    Batch sizing rule for binary columns: payload_bytes × batch_size ×
    the tasks running at once (up to the session's CPUs) must fit the
    worker heap — callers pass batch_size≈4-16 for multi-MB images.
    """

    def __init__(self, max_dim: int = 256):
        self.max_dim = max_dim

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .codecs import MediaDecodeError, decode_image, encode_image

        payloads = batch.column("payload").to_pylist()
        out_payload, out_w, out_h, src_w, src_h, errors = [], [], [], [], [], []
        for p in payloads:
            try:
                fmt, px = decode_image(p or b"")
                h, w = px.shape[:2]
                npx, nw, nh = _resize_nearest(px, self.max_dim)
                out_payload.append(encode_image(fmt, npx))
                out_w.append(nw); out_h.append(nh)
                src_w.append(w); src_h.append(h)
                errors.append("")
            except MediaDecodeError as exc:
                out_payload.append(b"")
                out_w.append(0); out_h.append(0); src_w.append(0); src_h.append(0)
                errors.append(str(exc))
        return pa.Table.from_pydict(
            {
                "doc_id": batch.column("doc_id"),
                "media_ref": batch.column("media_ref"),
                "payload": pa.array(out_payload, type=pa.binary()),
                "src_width": pa.array(src_w, type=pa.int32()),
                "src_height": pa.array(src_h, type=pa.int32()),
                "width": pa.array(out_w, type=pa.int32()),
                "height": pa.array(out_h, type=pa.int32()),
                "error": pa.array(errors, type=pa.string()),
            }
        )


class ImageStatsFeatures:
    """Stage: decode each image payload (real BMP/PPM/PGM)
    and emit EXACT integer pixel statistics — (width, height, n_px,
    px_sum, px_min, px_max). Integer-exact by construction, so a SQL
    oracle can replay them from whatever deterministic rule synthesized
    the pixels — the hash-exact gate for the multimodal leg."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        from .codecs import MediaDecodeError, decode_image

        payloads = batch.column("payload").to_pylist()
        w_l, h_l, n_l, sum_l, min_l, max_l, err_l = [], [], [], [], [], [], []
        for p in payloads:
            try:
                _, px = decode_image(p or b"")
                h, w = px.shape[:2]
                flat = px.reshape(-1).astype(np.int64)
                w_l.append(w); h_l.append(h); n_l.append(flat.size)
                sum_l.append(int(flat.sum()))
                min_l.append(int(flat.min())); max_l.append(int(flat.max()))
                err_l.append("")
            except MediaDecodeError as exc:
                w_l.append(0); h_l.append(0); n_l.append(0)
                sum_l.append(0); min_l.append(0); max_l.append(0)
                err_l.append(str(exc))
        return pa.Table.from_pydict(
            {
                "doc_id": batch.column("doc_id"),
                "media_ref": batch.column("media_ref"),
                "width": pa.array(w_l, type=pa.int64()),
                "height": pa.array(h_l, type=pa.int64()),
                "n_px": pa.array(n_l, type=pa.int64()),
                "px_sum": pa.array(sum_l, type=pa.int64()),
                "px_min": pa.array(min_l, type=pa.int64()),
                "px_max": pa.array(max_l, type=pa.int64()),
                "error": pa.array(err_l, type=pa.string()),
            }
        )


class AudioFeatureStage:
    """Stage over (doc_id, media_ref, payload) WAV rows →
    exact integer audio features: framerate, n_channels, n_frames,
    duration_ms (floor), peak_abs, sum_samples, sum_sq — all int64, so
    the oracle can replay them exactly from the synthesis rule. Decode
    is stdlib `wave` (real RIFF parsing); malformed payloads become
    error rows. sum_sq is exact: |s| ≤ 2¹⁵ so n·2³⁰ stays inside int64
    for any realistic clip length (< 2³³ samples)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        from .codecs import MediaDecodeError, wav_decode

        payloads = batch.column("payload").to_pylist()
        cols = {k: [] for k in ("framerate", "n_channels", "n_frames",
                                "duration_ms", "peak_abs", "sum_samples",
                                "sum_sq")}
        errs = []
        for p in payloads:
            try:
                framerate, n_ch, samples = wav_decode(p or b"")
                s = samples.astype(np.int64)
                n_frames = len(s) // max(1, n_ch)
                cols["framerate"].append(framerate)
                cols["n_channels"].append(n_ch)
                cols["n_frames"].append(n_frames)
                cols["duration_ms"].append(n_frames * 1000 // framerate
                                           if framerate else 0)
                cols["peak_abs"].append(int(np.abs(s).max()) if len(s) else 0)
                cols["sum_samples"].append(int(s.sum()))
                cols["sum_sq"].append(int((s * s).sum()))
                errs.append("")
            except MediaDecodeError as exc:
                for k in cols:
                    cols[k].append(0)
                errs.append(str(exc))
        out = {
            "doc_id": batch.column("doc_id"),
            "media_ref": batch.column("media_ref"),
        }
        for k, v in cols.items():
            out[k] = pa.array(v, type=pa.int64())
        out["error"] = pa.array(errs, type=pa.string())
        return pa.Table.from_pydict(out)


class AudioSpectralFeatures:
    """Stage: real spectral analysis of WAV payloads with
    numpy's FFT — (doc_id, media_ref, payload) → per-clip features:

    - ``n_frames``: sliding analysis frames (``frame_size`` samples,
      ``hop`` apart) — int, pure function of clip length;
    - ``dominant_bin``: argmax of the mean Hann-windowed magnitude
      spectrum over all frames — for a bin-aligned pure tone this is
      exactly the planted frequency bin, which makes the whole
      encode → RIFF decode → frame → window → FFT → argmax chain
      oracle-checkable without the oracle recomputing an FFT;
    - ``embedding``: ``n_bands`` log-compressed band energies of the
      mean spectrum (``list<float>``), directly consumable by the
      similarity operators (ann_topk / embedding_neardup) — the audio
      analogue of ``ByteHistogramFeatures``.

    Stereo clips are analyzed on channel 0 (deterministic). Clips
    shorter than one frame and malformed payloads become error rows.
    """

    def __init__(self, frame_size: int = 256, hop: int = 128,
                 n_bands: int = 16):
        self.frame_size = frame_size
        self.hop = hop
        self.n_bands = n_bands
        import numpy as np

        self._window = np.hanning(frame_size)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        from .codecs import MediaDecodeError, wav_decode

        n_fr_l, dom_l, emb_l, err_l = [], [], [], []
        n_bins = self.frame_size // 2 + 1
        edges = np.linspace(0, n_bins, self.n_bands + 1).astype(int)
        for p in batch.column("payload").to_pylist():
            try:
                _, n_ch, samples = wav_decode(p or b"")
                s = samples.astype(np.float64)
                if n_ch > 1:
                    s = s[::n_ch]  # channel 0
                if len(s) < self.frame_size:
                    raise MediaDecodeError(
                        f"clip shorter than one analysis frame "
                        f"({len(s)} < {self.frame_size} samples)"
                    )
                n_frames = 1 + (len(s) - self.frame_size) // self.hop
                idx = (np.arange(self.frame_size)[None, :]
                       + self.hop * np.arange(n_frames)[:, None])
                frames = s[idx] * self._window[None, :]
                spec = np.abs(np.fft.rfft(frames, axis=1)).mean(axis=0)
                bands = np.array([
                    np.log10(1.0 + (spec[a:b] ** 2).sum())
                    for a, b in zip(edges[:-1], edges[1:])
                ], dtype=np.float32)
                n_fr_l.append(n_frames)
                dom_l.append(int(spec.argmax()))
                emb_l.append(bands)
                err_l.append("")
            except MediaDecodeError as exc:
                n_fr_l.append(0)
                dom_l.append(-1)
                emb_l.append(np.zeros(self.n_bands, dtype=np.float32))
                err_l.append(str(exc))
        return pa.Table.from_pydict(
            {
                "doc_id": batch.column("doc_id"),
                "media_ref": batch.column("media_ref"),
                "n_frames": pa.array(n_fr_l, type=pa.int64()),
                "dominant_bin": pa.array(dom_l, type=pa.int64()),
                "embedding": pa.array(
                    [list(map(float, e)) for e in emb_l],
                    type=pa.list_(pa.float32()),
                ),
                "error": pa.array(err_l, type=pa.string()),
            }
        )


class FrameSampleStage:
    """Flat-map stage: one input video row → one output row per
    sampled frame (every ``every_k``-th). The row-count expansion is the
    real thing being exercised: a generator-style stage whose output
    row count differs from its input's, with frame index metadata.
    Container demux is FVID (no ffmpeg here); the frames it carries are
    real encoded images for downstream `ImageStatsFeatures`."""

    def __init__(self, every_k: int = 10):
        self.every_k = every_k

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .codecs import MediaDecodeError

        doc_ids = batch.column("doc_id").to_pylist()
        refs = batch.column("media_ref").to_pylist()
        payloads = batch.column("payload").to_pylist()
        o_doc, o_ref, o_idx, o_frame, o_err = [], [], [], [], []
        for d, r, p in zip(doc_ids, refs, payloads):
            try:
                for i, frame in enumerate(fvid_decode(p or b"")):
                    if i % self.every_k == 0:
                        o_doc.append(d); o_ref.append(r)
                        o_idx.append(i); o_frame.append(frame); o_err.append("")
            except MediaDecodeError as exc:
                o_doc.append(d); o_ref.append(r)
                o_idx.append(-1); o_frame.append(b""); o_err.append(str(exc))
        return pa.Table.from_arrays(
            [
                pa.array(o_doc, type=pa.string()),
                pa.array(o_ref, type=pa.string()),
                pa.array(o_idx, type=pa.int32()),
                pa.array(o_frame, type=pa.binary()),
                pa.array(o_err, type=pa.string()),
            ],
            names=["doc_id", "media_ref", "frame_idx", "frame", "error"],
        )


class ByteHistogramFeatures:
    """Real (no codec needed) feature extraction: normalized 256-bin
    byte histogram per payload → ``list<float>`` embedding column,
    directly consumable by `functions/similarity.py` (ann_topk /
    embedding_neardup). The batched-inference pattern: "model" (here
    just numpy) set up once per instance, whole batch vectorized per call.
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        payloads = batch.column("payload").to_pylist()
        feats = np.zeros((len(payloads), 256), dtype=np.float32)
        for i, p in enumerate(payloads):
            if p:
                counts = np.bincount(
                    np.frombuffer(p, dtype=np.uint8), minlength=256
                )
                feats[i] = counts / counts.sum()
        return pa.Table.from_arrays(
            [
                batch.column("doc_id"),
                batch.column("media_ref"),
                pa.array(list(feats), type=pa.list_(pa.float32())),
            ],
            names=["doc_id", "media_ref", "embedding"],
        )


class ShotBoundaryStage:
    """Video temporal segmentation stage: demux the FVID container,
    decode every frame (real byte-level BMP/PPM decode), and flag a shot
    boundary wherever the mean absolute pixel delta between consecutive
    frames exceeds ``threshold`` — the classic histogram/intensity-delta
    shot detector (the first stage of any video curation pipeline:
    scene-level sampling, per-shot captioning, duplicate-shot pruning).

    Emits one row per detected boundary ``(doc_id, media_ref,
    frame_idx, delta)`` — frame_idx is the FIRST frame of the new shot —
    plus nothing for undecodable rows beyond an error row at idx −1
    (the stage-error convention of `FrameSampleStage`). Binary payloads
    never leave the stage.
    """

    def __init__(self, threshold: float = 10.0):
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        from .codecs import MediaDecodeError, decode_image

        doc_ids = batch.column("doc_id").to_pylist()
        refs = batch.column("media_ref").to_pylist()
        payloads = batch.column("payload").to_pylist()
        o_doc, o_ref, o_idx, o_delta, o_err = [], [], [], [], []
        for d, r, p in zip(doc_ids, refs, payloads):
            try:
                frames = fvid_decode(p or b"")
                prev = None
                for i, fr in enumerate(frames):
                    _, px = decode_image(fr)
                    cur = px.astype(np.int32)
                    if prev is not None and cur.shape == prev.shape:
                        delta = float(np.abs(cur - prev).mean())
                        if delta > self.threshold:
                            o_doc.append(d); o_ref.append(r)
                            o_idx.append(i)
                            o_delta.append(delta); o_err.append("")
                    prev = cur
            except MediaDecodeError as exc:
                o_doc.append(d); o_ref.append(r)
                o_idx.append(-1); o_delta.append(0.0)
                o_err.append(str(exc))
        return pa.Table.from_arrays(
            [
                pa.array(o_doc, type=pa.int64()),
                pa.array(o_ref, type=pa.string()),
                pa.array(o_idx, type=pa.int32()),
                pa.array(o_delta, type=pa.float64()),
                pa.array(o_err, type=pa.string()),
            ],
            names=["doc_id", "media_ref", "frame_idx", "delta", "error"],
        )


class AudioAutocorrFeatures:
    """Stage: EXACT integer autocorrelation of WAV PCM at
    fixed sample lags — ``ac_{L} = Σ s[i]·s[i+L]`` over channel 0 —
    the periodicity / pitch-strength signal (YIN-class detectors reduce
    to these sums) kept in pure int64 so an oracle can replay it from
    the synthesis rule: |s| ≤ 2¹⁵ ⇒ each product ≤ 2³⁰, safe for any
    clip under 2³³ samples. Malformed payloads become error rows.

    Output: doc_id, media_ref, n_frames, ac_0 (= energy Σs²), one
    ``ac_{L}`` per requested lag, error.
    """

    def __init__(self, lags: tuple = (1, 2, 4)):
        if not lags or any(int(l) <= 0 for l in lags):
            raise ValueError("lags must be positive sample offsets")
        self.lags = tuple(int(l) for l in lags)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        from .codecs import MediaDecodeError, wav_decode

        names = ["n_frames", "ac_0"] + [f"ac_{L}" for L in self.lags]
        cols = {k: [] for k in names}
        errs = []
        for p in batch.column("payload").to_pylist():
            try:
                _rate, n_ch, samples = wav_decode(p or b"")
                s = samples.astype(np.int64)[::max(1, n_ch)]  # channel 0
                cols["n_frames"].append(len(s))
                cols["ac_0"].append(int((s * s).sum()))
                for L in self.lags:
                    cols[f"ac_{L}"].append(
                        int((s[:-L] * s[L:]).sum()) if len(s) > L else 0)
                errs.append("")
            except MediaDecodeError as exc:
                for k in names:
                    cols[k].append(0)
                errs.append(str(exc))
        out = {
            "doc_id": batch.column("doc_id"),
            "media_ref": batch.column("media_ref"),
        }
        for k in names:
            out[k] = pa.array(cols[k], type=pa.int64())
        out["error"] = pa.array(errs, type=pa.string())
        return pa.Table.from_pydict(out)


class ImagePHashStage:
    """Stage: average-hash (aHash) perceptual fingerprint —
    decode (real BMP/PPM/PGM bytes), integer grayscale ``(r+g+b)//3``,
    8×8 nearest-neighbor downsample with the SAME index map as
    `ImageResizeStage` (row ``(j*h)//8``, col ``(k*w)//8``), threshold
    at the integer mean (``sum//64``), pack the 64 bits LSB-first in
    sample order (bit ``j*8+k``). Every step is integer arithmetic, so
    a SQL oracle replays the hash BIT-FOR-BIT from whatever
    deterministic pixel rule synthesized the corpus; emitted as a
    16-hex string (uint64 renders sign-free everywhere). Identical
    images hash equal; the bucket count downstream is the classic
    perceptual near-dup screen (hamming-radius-0 buckets)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        from .codecs import MediaDecodeError, decode_image

        payloads = batch.column("payload").to_pylist()
        hashes, errs = [], []
        shifts = (np.uint64(1) << np.arange(64, dtype=np.uint64))
        for p in payloads:
            try:
                _, px = decode_image(p or b"")
                h, w = px.shape[:2]
                g64 = px.astype(np.int64)
                gray = (g64.sum(axis=2) // px.shape[2]
                        if px.ndim == 3 else g64)
                rows = (np.arange(8, dtype=np.int64) * h) // 8
                cols = (np.arange(8, dtype=np.int64) * w) // 8
                s = gray[np.ix_(rows, cols)]
                mean = int(s.sum()) // 64
                bits = (s.reshape(-1) >= mean).astype(np.uint64)
                ph = int((bits * shifts).sum(dtype=np.uint64))
                hashes.append(format(ph, "016x"))
                errs.append("")
            except MediaDecodeError as exc:
                hashes.append("")
                errs.append(str(exc))
        return pa.Table.from_pydict({
            "doc_id": batch.column("doc_id"),
            "media_ref": batch.column("media_ref"),
            "phash": pa.array(hashes, type=pa.string()),
            "error": pa.array(errs, type=pa.string()),
        })
