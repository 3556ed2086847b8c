"""Real, dependency-free media codecs for the multimodal stages.

The container has no PIL/ffmpeg, but three formats are decodable with
the standard library alone, so the decode legs of the media pipeline
exercise REAL byte-level parsing instead of a fake framing:

- **BMP** (24-bit uncompressed ``BI_RGB``, the Windows bitmap format):
  hand-parsed with ``struct`` — file header, ``BITMAPINFOHEADER``,
  4-byte-padded bottom-up (or top-down, negative height) BGR rows.
- **PPM/PGM** (netpbm ``P6``/``P5`` binary): ASCII header with comment
  handling + raw sample payload.
- **WAV** (PCM via stdlib ``wave``): RIFF parse delegated to the
  standard library, samples decoded to int16/uint8 numpy arrays.

Every decoder raises :class:`MediaDecodeError` on malformed input so
map stages can convert failures to error rows. Encoders exist
for all three so pipelines can synthesize deterministic payloads and
round-trip them (the test strategy: encode → decode → exact stats,
with a SQL oracle replaying the stats straight off the source table).
"""

from __future__ import annotations

import io
import struct
import wave

import numpy as np


class MediaDecodeError(ValueError):
    """Malformed or unsupported media payload."""


# ---------------------------------------------------------------------------
# BMP — 24-bit uncompressed
# ---------------------------------------------------------------------------

def bmp_encode(pixels: "np.ndarray") -> bytes:
    """Encode an (h, w, 3) uint8 RGB array as a 24-bit BI_RGB BMP
    (bottom-up rows, 4-byte row padding)."""
    px = np.asarray(pixels, dtype=np.uint8)
    if px.ndim != 3 or px.shape[2] != 3:
        raise ValueError("bmp_encode expects an (h, w, 3) uint8 array")
    h, w = px.shape[:2]
    row_bytes = w * 3
    pad = (-row_bytes) % 4
    stride = row_bytes + pad
    img_size = stride * h
    off = 14 + 40
    header = struct.pack("<2sIHHI", b"BM", off + img_size, 0, 0, off)
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, img_size,
                       2835, 2835, 0, 0)
    bgr = px[::-1, :, ::-1]  # bottom-up rows, RGB→BGR
    if pad:
        rows = np.zeros((h, stride), dtype=np.uint8)
        rows[:, :row_bytes] = bgr.reshape(h, row_bytes)
        body = rows.tobytes()
    else:
        body = bgr.tobytes()
    return header + info + body


def bmp_decode(payload: bytes) -> "np.ndarray":
    """Decode a 24-bit BI_RGB BMP to an (h, w, 3) uint8 RGB array.
    Handles bottom-up and top-down (negative height) row order and
    4-byte row padding; anything else raises :class:`MediaDecodeError`."""
    if len(payload) < 54 or payload[:2] != b"BM":
        raise MediaDecodeError("not a BMP payload")
    (off,) = struct.unpack_from("<I", payload, 10)
    (hdr_size, w, h_signed, planes, bpp, compression) = struct.unpack_from(
        "<IiiHHI", payload, 14
    )
    if hdr_size < 40:
        raise MediaDecodeError(f"unsupported BMP header size {hdr_size}")
    if bpp != 24 or compression != 0:
        raise MediaDecodeError(
            f"unsupported BMP ({bpp} bpp, compression {compression}); "
            "only 24-bit BI_RGB is implemented"
        )
    top_down = h_signed < 0
    h = -h_signed if top_down else h_signed
    if w <= 0 or h <= 0:
        raise MediaDecodeError(f"bad BMP dimensions {w}x{h_signed}")
    stride = (w * 3 + 3) & ~3
    need = off + stride * h
    if len(payload) < need:
        raise MediaDecodeError(
            f"truncated BMP: need {need} bytes, have {len(payload)}"
        )
    rows = np.frombuffer(payload, dtype=np.uint8, count=stride * h,
                         offset=off).reshape(h, stride)
    bgr = rows[:, : w * 3].reshape(h, w, 3)
    rgb = bgr[:, :, ::-1]
    return np.ascontiguousarray(rgb if top_down else rgb[::-1])


# ---------------------------------------------------------------------------
# PPM (P6) / PGM (P5)
# ---------------------------------------------------------------------------

def ppm_encode(pixels: "np.ndarray") -> bytes:
    """Encode (h, w, 3) uint8 RGB as binary PPM (P6) or (h, w) uint8
    grayscale as binary PGM (P5), maxval 255."""
    px = np.asarray(pixels, dtype=np.uint8)
    if px.ndim == 3 and px.shape[2] == 3:
        magic = b"P6"
    elif px.ndim == 2:
        magic = b"P5"
    else:
        raise ValueError("ppm_encode expects (h, w, 3) or (h, w) uint8")
    h, w = px.shape[:2]
    return magic + f"\n{w} {h}\n255\n".encode() + px.tobytes()


def _pnm_tokens(payload: bytes, n: int, pos: int) -> tuple[list[int], int]:
    """Read ``n`` whitespace-separated ASCII ints starting at ``pos``,
    skipping ``#`` comments (netpbm header grammar)."""
    vals: list[int] = []
    ln = len(payload)
    while len(vals) < n:
        while pos < ln and payload[pos : pos + 1].isspace():
            pos += 1
        if pos < ln and payload[pos : pos + 1] == b"#":
            while pos < ln and payload[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < ln and not payload[pos : pos + 1].isspace():
            pos += 1
        tok = payload[start:pos]
        if not tok.isdigit():
            raise MediaDecodeError(f"bad netpbm header token {tok!r}")
        vals.append(int(tok))
    return vals, pos + 1  # single whitespace after maxval precedes raster


def ppm_decode(payload: bytes) -> "np.ndarray":
    """Decode binary PPM (P6 → (h, w, 3)) or PGM (P5 → (h, w)) uint8."""
    magic = payload[:2]
    if magic not in (b"P6", b"P5"):
        raise MediaDecodeError("not a binary PPM/PGM payload")
    (w, h, maxval), pos = _pnm_tokens(payload, 3, 2)
    if maxval != 255:
        raise MediaDecodeError(f"unsupported netpbm maxval {maxval}")
    if w <= 0 or h <= 0:
        raise MediaDecodeError(f"bad netpbm dimensions {w}x{h}")
    ch = 3 if magic == b"P6" else 1
    need = w * h * ch
    if len(payload) - pos < need:
        raise MediaDecodeError(
            f"truncated netpbm raster: need {need}, have {len(payload) - pos}"
        )
    px = np.frombuffer(payload, dtype=np.uint8, count=need, offset=pos)
    return px.reshape((h, w, 3) if ch == 3 else (h, w)).copy()


# ---------------------------------------------------------------------------
# WAV (PCM) via stdlib `wave`
# ---------------------------------------------------------------------------

def wav_encode(samples: "np.ndarray", framerate: int = 8000,
               n_channels: int = 1) -> bytes:
    """Encode an int16 sample array (frames×channels interleaved or 1-D
    mono) as a PCM WAV."""
    s = np.asarray(samples, dtype="<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(n_channels)
        w.setsampwidth(2)
        w.setframerate(framerate)
        w.writeframes(s.tobytes())
    return buf.getvalue()


def wav_decode(payload: bytes) -> tuple[int, int, "np.ndarray"]:
    """Decode a PCM WAV → (framerate, n_channels, samples). 16-bit →
    int16 array, 8-bit → uint8; frames×channels flattened in interleaved
    order. RIFF/fmt parsing is the stdlib's; its errors surface as
    :class:`MediaDecodeError`."""
    try:
        with wave.open(io.BytesIO(payload), "rb") as w:
            framerate = w.getframerate()
            n_ch = w.getnchannels()
            width = w.getsampwidth()
            frames = w.readframes(w.getnframes())
    except (wave.Error, EOFError, struct.error) as exc:
        raise MediaDecodeError(f"not a PCM WAV payload: {exc}") from exc
    if width == 2:
        samples = np.frombuffer(frames, dtype="<i2")
    elif width == 1:
        samples = np.frombuffer(frames, dtype=np.uint8)
    else:
        raise MediaDecodeError(f"unsupported WAV sample width {width}")
    return framerate, n_ch, samples


# ---------------------------------------------------------------------------
# sniffing
# ---------------------------------------------------------------------------

def sniff_media_format(payload: bytes) -> str:
    """Best-effort container sniff by magic bytes: 'bmp' | 'ppm' | 'pgm'
    | 'wav' | 'fimg' | 'fvid' | 'unknown'."""
    if payload[:2] == b"BM":
        return "bmp"
    if payload[:2] == b"P6":
        return "ppm"
    if payload[:2] == b"P5":
        return "pgm"
    if payload[:4] == b"RIFF" and payload[8:12] == b"WAVE":
        return "wav"
    if payload[:4] == b"FIMG":
        return "fimg"
    if payload[:4] == b"FVID":
        return "fvid"
    return "unknown"


def decode_image(payload: bytes) -> tuple[str, "np.ndarray"]:
    """Decode any supported image payload → (format, (h, w, 3) RGB or
    (h, w) gray uint8 array)."""
    fmt = sniff_media_format(payload or b"")
    if fmt == "bmp":
        return fmt, bmp_decode(payload)
    if fmt in ("ppm", "pgm"):
        return fmt, ppm_decode(payload)
    raise MediaDecodeError(f"unsupported image payload (sniffed {fmt!r})")


def encode_image(fmt: str, pixels: "np.ndarray") -> bytes:
    if fmt == "bmp":
        return bmp_encode(pixels)
    if fmt in ("ppm", "pgm"):
        return ppm_encode(pixels)
    raise ValueError(f"unknown image format {fmt!r}")
