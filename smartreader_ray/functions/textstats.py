"""Text analysis operators: token stats, quality scoring, language ID,
document fingerprinting. All vectorized per batch; language ID builds its
profile tables once on the driver and ships them with the UDF instance.
"""

from __future__ import annotations

import re
import unicodedata

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_WS_RE = re.compile(r"\s+")

#: minimal stopword profiles for the n-gram/stopword language heuristic
_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "that", "it", "for", "with", "was", "on"},
    "de": {"der", "die", "und", "das", "ist", "nicht", "ein", "mit", "auf", "für", "von", "zu"},
    "fr": {"le", "la", "les", "et", "des", "est", "un", "une", "dans", "que", "pour", "qui"},
    "es": {"el", "la", "los", "las", "y", "es", "un", "una", "en", "que", "por", "para"},
    "it": {"il", "la", "che", "di", "e", "un", "una", "per", "con", "del", "non", "sono"},
    "pt": {"o", "a", "os", "as", "e", "um", "uma", "que", "de", "para", "com", "não"},
    "nl": {"de", "het", "een", "en", "van", "is", "dat", "op", "te", "met", "voor", "niet"},
}


def token_stats(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """doc_id + n_tokens (whitespace) + n_chars_nospace + avg_token_len."""
    text = batch.column(text_col)
    trimmed = pc.utf8_trim_whitespace(text)
    tokens = pc.split_pattern_regex(trimmed, r"\s+")
    n_tokens = pc.list_value_length(tokens)
    no_space = pc.replace_substring_regex(text, r"\s", "")
    n_chars = pc.utf8_length(no_space)
    return pa.Table.from_pydict(
        {
            "doc_id": batch.column("doc_id"),
            "n_tokens": pc.cast(n_tokens, pa.int64()),
            "n_chars_nospace": pc.cast(n_chars, pa.int64()),
        }
    )


_PUNCT_TABLE: dict | None = None
_DIGIT_RE = re.compile(r"\d")

#: GPT-2-style pre-tokenizer (the published pattern, with \p{L}/\p{N}
#: expressed in stdlib-re classes): contraction suffixes, space-prefixed
#: letter runs, digit runs, punctuation runs, residual whitespace.
_BPE_PRETOK_RE = re.compile(
    r"'s|'t|'re|'ve|'m|'ll|'d| ?[^\W\d_]+| ?\d+| ?[^\s\w]+|\s+(?!\S)|\s+"
)


def bpe_token_stats(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """BPE-ish token counting: the GPT-2 pre-tokenization split, which
    upper-bounds (and for common text closely tracks) real BPE token
    counts — the standard cheap estimator for LLM-corpus budgeting.
    One compiled-regex findall per doc; no per-char Python."""
    findall = _BPE_PRETOK_RE.findall
    counts = [len(findall(t or "")) for t in batch.column(text_col).to_pylist()]
    return pa.Table.from_pydict(
        {
            "doc_id": batch.column("doc_id"),
            "n_bpe_tokens": pa.array(counts, type=pa.int64()),
        }
    )


def _punct_delete_table() -> dict:
    """str.translate delete-table of every Unicode P* codepoint, built
    once per worker process (the per-char unicodedata.category loop was
    the old hot path — translate counts at C speed)."""
    global _PUNCT_TABLE
    if _PUNCT_TABLE is None:
        import sys

        _PUNCT_TABLE = {
            cp: None
            for cp in range(sys.maxunicode + 1)
            if unicodedata.category(chr(cp)).startswith("P")
        }
    return _PUNCT_TABLE


def quality_stats(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Quality-scoring signals: lengths, punctuation ratio, mean word
    length, digit ratio, stopword ratio (en).

    Counting kernels are C-speed: punctuation via a str.translate delete
    table, digits via a compiled regex, token math via Arrow +
    np.add.reduceat over the flattened token list — no per-char Python.
    """
    import pyarrow.compute as _pc

    punct_tbl = _punct_delete_table()
    rows = batch.column(text_col).to_pylist()
    n = len(rows)
    n_chars = np.fromiter((len(t or "") for t in rows), np.int64, n)
    punct = np.fromiter(
        (len(t) - len(t.translate(punct_tbl)) if t else 0 for t in rows),
        np.int64, n,
    )
    digit = np.fromiter(
        (len(_DIGIT_RE.findall(t)) if t else 0 for t in rows), np.int64, n
    )

    text_arr = _pc.cast(batch.column(text_col), pa.string())
    filled = _pc.coalesce(text_arr, pa.scalar("", type=pa.string()))
    tokens = _pc.split_pattern_regex(
        _pc.utf8_trim_whitespace(_pc.utf8_lower(filled)), r"\s+"
    ).combine_chunks()
    # empty text splits to one "" token — mask those out
    tok_lens = _pc.list_value_length(tokens).to_numpy(zero_copy_only=False)
    flat = tokens.flatten()
    flat_len = _pc.utf8_length(flat).to_numpy(zero_copy_only=False)
    flat_stop = _pc.is_in(
        flat, value_set=pa.array(sorted(_STOPWORDS["en"]))
    ).to_numpy(zero_copy_only=False)
    offsets = tokens.offsets.to_numpy(zero_copy_only=False)[:-1]
    # per-row sums over the flattened token arrays
    sum_len = np.add.reduceat(flat_len, offsets) if len(flat) else np.zeros(n, np.int64)
    sum_stop = (
        np.add.reduceat(flat_stop.astype(np.int64), offsets)
        if len(flat) else np.zeros(n, np.int64)
    )
    empty = flat_len[offsets] == 0 if len(flat) else np.ones(n, bool)
    n_tokens = np.where(empty & (tok_lens == 1), 0, tok_lens).astype(np.int64)

    safe_chars = np.maximum(n_chars, 1).astype(np.float64)
    safe_toks = np.maximum(n_tokens, 1).astype(np.float64)
    return pa.Table.from_pydict(
        {
            "doc_id": batch.column("doc_id"),
            "n_chars": pa.array(n_chars, type=pa.int64()),
            "n_tokens": pa.array(n_tokens, type=pa.int64()),
            "punct_ratio": pa.array(
                np.where(n_chars > 0, punct / safe_chars, 0.0), type=pa.float64()
            ),
            "digit_ratio": pa.array(
                np.where(n_chars > 0, digit / safe_chars, 0.0), type=pa.float64()
            ),
            "mean_token_len": pa.array(
                np.where(n_tokens > 0, sum_len / safe_toks, 0.0), type=pa.float64()
            ),
            "stopword_ratio_en": pa.array(
                np.where(n_tokens > 0, sum_stop / safe_toks, 0.0), type=pa.float64()
            ),
        }
    )


class LanguageId:
    """Stopword-profile language ID: profiles built once on the driver,
    per-batch scoring in tasks.

    Heuristic analogue of the reference's optional FastText stage
    (``SmartReader.NaturalLanguageProcessing/NLP.cs:16-32``) — same
    pipeline position (its own map_batches stage), stdlib model.

    COVERAGE CAVEAT: this stopword heuristic distinguishes 7 Latin-script
    languages (en/de/fr/es/it/pt/nl) and returns "und" otherwise; the
    reference's FastText model covers 170+. It is a sandbox substitute
    (no model download available) — swap ``predict`` for a real model on
    a connected cluster. ``lang_score_ppm`` is the matched-stopword
    fraction of the first 400 tokens in parts-per-million (integer
    floor-div — monotone in evidence, NOT a calibrated probability);
    the 2 % acceptance threshold (``50·matched > n``, an EXACT rational
    compare — no float boundary) was tuned on the fixture corpus to
    avoid false positives on short texts. Every output is an exact
    integer, so the whole heuristic replays in SQL: all languages share
    the denominator n, making the argmax a plain integer compare with
    profile-order tie-break.
    """

    def __init__(self):
        self.profiles = {lang: frozenset(ws) for lang, ws in _STOPWORDS.items()}

    def predict(self, text: str) -> tuple[str, int]:
        toks = [w.lower() for w in (text or "").split()[:400]]
        if not toks:
            return "und", 0
        n = len(toks)
        best_lang, best_matched = "und", 0
        for lang, stops in self.profiles.items():
            matched = sum(1 for w in toks if w in stops)
            if matched > best_matched:
                best_lang, best_matched = lang, matched
        ppm = best_matched * 1_000_000 // n
        return (best_lang if 50 * best_matched > n else "und"), ppm

    def __call__(self, batch: pa.Table) -> pa.Table:
        preds, scores = [], []
        for text in batch.column("text").to_pylist():
            lang, ppm = self.predict(text)
            preds.append(lang)
            scores.append(ppm)
        return pa.Table.from_pydict(
            {
                "doc_id": batch.column("doc_id"),
                "pred_lang": pa.array(preds, type=pa.string()),
                "lang_score_ppm": pa.array(scores, type=pa.int64()),
            }
        )


def language_id(ds):
    return ds.select_columns(["doc_id", "text"]).map_batches(
        LanguageId(), batch_format="pyarrow"
    )


_FP_SEED = np.uint64(1469598103934665603)
_FP_PRIME = np.uint64(1099511628211)

# Per-process scratch buffers. On this class of sandboxed hosts,
# FIRST-TOUCH page faults on fresh large allocations cost ~300 µs/page
# (measured), so a 1 MB/doc hot path must never allocate fresh MB-scale
# arrays per call — grow-once buffers keep the kernel at memory speed.
_FP_BUFS: dict[str, np.ndarray] = {}


def _fp_scratch(name: str, n: int, dtype) -> np.ndarray:
    buf = _FP_BUFS.get(name)
    if buf is None or len(buf) < n:
        new_len = max(n, 1 << 16, 0 if buf is None else 2 * len(buf))
        buf = np.empty(new_len, dtype=dtype)
        buf[:] = 0  # touch pages once, up front
        _FP_BUFS[name] = buf
    return buf[:n]


def _fp_powers(n: int) -> np.ndarray:
    """pows[k] = p^k mod 2^64, cached per process and grown on demand."""
    pows = _FP_BUFS.get("pows")
    if pows is None or len(pows) < n:
        new_len = max(n, 1 << 16, 0 if pows is None else 2 * len(pows))
        pows = np.empty(new_len, dtype=np.uint64)
        pows[0] = 1
        pows[1:] = _FP_PRIME
        with np.errstate(over="ignore"):
            np.multiply.accumulate(pows, out=pows)
        _FP_BUFS["pows"] = pows
    return pows


def doc_fingerprint(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """64-bit rolling polynomial hash over the normalized text — a stable
    content fingerprint for exact-dup detection and lineage.

    fp(b₀…bₙ₋₁) = (seed·pⁿ + Σ bᵢ·pⁿ⁻¹⁻ⁱ) mod 2⁶⁴ — the classic
    Rabin-Karp rolling form, fully vectorized: one frombuffer + a cached
    cumulative-product powers table + one wrapped dot product per doc
    (reused scratch, no per-call large allocations). The previous
    per-byte Python loop cost ~1 s/MB; this is memory-speed.
    """
    norms = [
        _WS_RE.sub(" ", (t or "").strip().lower()).encode()
        for t in batch.column(text_col).to_pylist()
    ]
    maxlen = max((len(b) for b in norms), default=0)
    pows = _fp_powers(max(maxlen, 1))
    fps = np.empty(len(norms), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for i, raw in enumerate(norms):
            n = len(raw)
            if n == 0:
                fps[i] = _FP_SEED
                continue
            data = _fp_scratch("data", n, np.uint64)
            np.copyto(data, np.frombuffer(raw, dtype=np.uint8), casting="unsafe")
            prod = _fp_scratch("prod", n, np.uint64)
            np.multiply(data, pows[n - 1 :: -1], out=prod)
            fps[i] = _FP_SEED * pows[n - 1] * _FP_PRIME + prod.sum()
    # two's-complement int64 reinterpretation of the 64-bit hash: the
    # SAME bits, but pandas/Ray aggregate exchanges handle int64
    # natively (a uint64 > 2^63 forces a per-block pickle fallback in
    # Ray's groupby), and every consumer that needs the unsigned value
    # views back losslessly (.astype/.view(np.uint64))
    return pa.Table.from_pydict(
        {
            "doc_id": batch.column("doc_id"),
            "fingerprint": pa.array(fps.view(np.int64), type=pa.int64()),
        }
    )


#: Gopher-style stopword probe set (Rae et al. 2021, Table A1 uses
#: {the, be, to, of, and, that, have, with}; we keep the published set
#: plus "a"/"in" so short Latin-script docs have a fair chance).
_GOPHER_STOPWORDS = (
    "a", "and", "be", "have", "in", "of", "that", "the", "to", "with",
)

#: rule names in evaluation order — first failure wins
_GOPHER_RULES = (
    "word_count", "mean_word_length", "alpha_words", "stopwords",
    "repetition",
)


def gopher_rules(batch: pa.Table, text_col: str = "text",
                 min_words: int = 50, max_words: int = 100_000) -> pa.Table:
    """Gopher-style document-quality rule cascade (Rae et al. 2021,
    "Scaling Language Models", Table A1 — public paper), evaluated with
    EXACT integer arithmetic so the verdict is engine-reproducible:

    1. ``word_count``       — n_words outside [min_words, max_words]
    2. ``mean_word_length`` — Σ|w| outside [3·n, 10·n]  (mean ∉ [3, 10])
    3. ``alpha_words``      — 5·(#words containing a letter) < 4·n  (<80 %)
    4. ``stopwords``        — fewer than 2 DISTINCT probe stopwords
    5. ``repetition``       — 5·max_word_count > n  (top word > 20 %)

    The paper's symbol/bullet/ellipsis line rules need line structure
    this interleaved-span corpus doesn't carry (single-line text spans,
    no C4-style newlines) and are intentionally omitted — documented
    here rather than silently degenerate.

    Output: (doc_id, n_words, verdict) with verdict = first failing
    rule name or "pass". All ratios are cross-multiplied integer
    comparisons — no float thresholds, so the DuckDB oracle replays the
    cascade exactly. Vectorized: one Arrow tokenize + dictionary-encode,
    numpy reduceat/lexsort run-length kernels; no per-token Python.
    """
    from .ngrams import _tokens_flat

    flat, row_idx, lens = _tokens_flat(batch, text_col)
    n = batch.num_rows
    n_words = lens.astype(np.int64)

    flat_len = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
    sum_len = np.bincount(row_idx, weights=flat_len, minlength=n).astype(np.int64)

    alpha = pc.match_substring_regex(flat, "[A-Za-z]").to_numpy(
        zero_copy_only=False)
    n_alpha = np.bincount(row_idx, weights=alpha, minlength=n).astype(np.int64)

    stop_distinct = np.zeros(n, dtype=np.int64)
    for sw in _GOPHER_STOPWORDS:
        eq = pc.equal(flat, sw).to_numpy(zero_copy_only=False)
        present = np.zeros(n, dtype=bool)
        present[row_idx[eq]] = True
        stop_distinct += present

    # max single-word count per row: run lengths over (row, token-code)
    if len(flat):
        enc = pc.dictionary_encode(flat)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((codes, row_idx))
        r_s, c_s = row_idx[order], codes[order]
        new_run = np.r_[True, (r_s[1:] != r_s[:-1]) | (c_s[1:] != c_s[:-1])]
        run_starts = np.flatnonzero(new_run)
        run_lens = np.diff(np.r_[run_starts, len(c_s)])
        run_rows = r_s[run_starts]
        max_cnt = np.zeros(n, dtype=np.int64)
        np.maximum.at(max_cnt, run_rows, run_lens)
    else:
        max_cnt = np.zeros(n, dtype=np.int64)

    fails = np.stack([
        (n_words < min_words) | (n_words > max_words),
        (sum_len < 3 * n_words) | (sum_len > 10 * n_words),
        5 * n_alpha < 4 * n_words,
        stop_distinct < 2,
        5 * max_cnt > n_words,
    ])
    # first failing rule index, else "pass"
    any_fail = fails.any(axis=0)
    first = np.argmax(fails, axis=0)
    names = np.array(_GOPHER_RULES + ("pass",))
    verdict = names[np.where(any_fail, first, len(_GOPHER_RULES))]
    return pa.Table.from_pydict({
        "doc_id": batch.column("doc_id"),
        "n_words": pa.array(n_words, type=pa.int64()),
        "verdict": pa.array(verdict.tolist(), type=pa.string()),
    })


def sentence_stats(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Sentence segmentation signals (the Gopher-family doc-quality
    axis the token-level stats miss): split on ``[.!?]+`` runs, trim,
    drop empty pieces; per doc report sentence count, total tokens
    across sentences, the longest sentence (tokens), and the mean
    (ONE IEEE division). Fully vectorized: one split_pattern_regex +
    one count_substring_regex over the flattened piece list,
    per-doc rollups via masked ``np.add.reduceat`` /
    ``np.maximum.reduceat``.
    """
    import pyarrow.compute as _pc

    text_arr = _pc.cast(batch.column(text_col), pa.string())
    filled = _pc.coalesce(text_arr, pa.scalar("", type=pa.string()))
    pieces = _pc.split_pattern_regex(filled, r"[.!?]+").combine_chunks()
    offs = pieces.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    starts = offs[:-1] - offs[0]
    counts = np.diff(offs).astype(np.int64)
    n = len(counts)
    flat = _pc.utf8_trim_whitespace(pieces.flatten())
    nonempty = (_pc.utf8_length(flat).to_numpy(zero_copy_only=False)
                > 0)
    ntok = _pc.count_substring_regex(flat, r"\S+").to_numpy(
        zero_copy_only=False).astype(np.int64)
    ntok = np.where(nonempty, ntok, 0)
    if len(flat):
        n_sent = np.add.reduceat(nonempty.astype(np.int64), starts)
        tot = np.add.reduceat(ntok, starts)
        mx = np.maximum.reduceat(ntok, starts)
        # reduceat on an empty segment (a doc whose split produced 0
        # pieces cannot happen — split always yields >= 1) is safe
    else:
        n_sent = tot = mx = np.zeros(n, np.int64)
    mean = np.where(n_sent > 0, tot / np.maximum(n_sent, 1), 0.0)
    return pa.Table.from_pydict({
        "doc_id": batch.column("doc_id"),
        "n_sentences": pa.array(n_sent, type=pa.int64()),
        "total_sent_tokens": pa.array(tot, type=pa.int64()),
        "max_sentence_tokens": pa.array(mx, type=pa.int64()),
        "mean_sentence_tokens": pa.array(mean, type=pa.float64()),
    })


def compression_stats(batch: pa.Table, text_col: str = "text",
                      level: int = 6) -> pa.Table:
    """Per-doc zlib compression signal: ``(doc_id, n_bytes,
    n_zlib_bytes)``. The compression RATIO (n_zlib/n_bytes) is the
    classic cheap redundancy detector (RedPajama-v2 / Gopher-family
    quality axis): templated or repeated text compresses far below
    natural prose, machine-generated gibberish barely compresses at
    all. DEFLATE at a fixed level is deterministic for a given zlib,
    so the column is stable across partitionings and reruns; there is
    no SQL replay (DuckDB has no zlib), so the queries() entry is
    rows-only with the invariants pinned in unit tests. Byte-level
    compute per row, no shuffle — the same scale shape as the codec
    stages."""
    import zlib

    ids = batch.column("doc_id")
    n_raw, n_z = [], []
    for text in batch.column(text_col).to_pylist():
        raw = (text or "").encode("utf-8")
        n_raw.append(len(raw))
        n_z.append(len(zlib.compress(raw, level)))
    return pa.table({
        "doc_id": ids,
        "n_bytes": pa.array(n_raw, type=pa.int64()),
        "n_zlib_bytes": pa.array(n_z, type=pa.int64()),
    })


def readability_stats(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-doc Flesch–Kincaid-style readability: ``(doc_id, n_words,
    n_sentences, n_vowel_groups, fk_grade)``. Words are whitespace
    tokens; sentences are ``[.!?]+``-delimited segments (terminal
    punctuation doesn't open an empty trailing sentence; floor 1);
    syllables are approximated by vowel-group runs — the standard
    dictionary-free proxy. ``fk_grade`` is the published FK formula
    ``0.39·(words/sentence) + 11.8·(syllables/word) − 15.59`` computed
    in IEEE double with the same expression shape the SQL oracle uses,
    so the float column hashes identically. Vectorized Arrow kernels,
    zero shuffle."""
    import numpy as np

    text = batch.column(text_col)
    trimmed = pc.utf8_trim_whitespace(text)
    w = pc.cast(pc.list_value_length(
        pc.split_pattern_regex(trimmed, r"\s+")), pa.int64()) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    runs = pc.cast(pc.count_substring_regex(text, r"[.!?]+"),
                   pa.int64()).to_numpy(zero_copy_only=False)
    tail_closed = pc.match_substring_regex(text, r"[.!?]+\s*$") \
        .to_numpy(zero_copy_only=False)
    s = np.maximum(runs + np.where(tail_closed, 0, 1), 1).astype(np.int64)
    v = pc.cast(pc.count_substring_regex(text, r"[aeiouAEIOU]+"),
                pa.int64()).to_numpy(zero_copy_only=False).astype(np.int64)
    wf = w.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        grade = np.where(
            w > 0,
            0.39 * (wf / s) + 11.8 * (v.astype(np.float64) / wf) - 15.59,
            0.0)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "n_words": pa.array(w, type=pa.int64()),
        "n_sentences": pa.array(s, type=pa.int64()),
        "n_vowel_groups": pa.array(v, type=pa.int64()),
        "fk_grade": pa.array(grade, type=pa.float64()),
    })


def char_entropy(batch: pa.Table, text_col: str = "text",
                 id_col: str = "doc_id") -> pa.Table:
    """Per-document CHARACTER-distribution entropy — the cheap
    gibberish / encoding-junk / repeated-filler detector that token
    stats miss (mojibake and base64 blobs have near-maximal char
    entropy; `aaaa…` filler has near-zero): the RedPajama-v2/Gopher
    quality-signal family's character axis.

    Pure per-doc ``map_batches`` kernel, zero shuffle. Entropy is the
    ORDER-INDEPENDENT integer sum of per-character nano-nat terms
    (the `source_entropy` DSIR floored-ln trick — an IEEE Σ −p·ln p
    would be summation-order-dependent and unhashable across engines):
    ``entropy_nano = Σ_chars floor(10⁹ · (c/n) · ln(n/c))``. Counting
    is vectorized over UTF-32 code points per doc (np.unique), which
    matches SQL's per-character semantics code point for code point.

    Output per doc: ``(doc_id, n_chars, n_distinct, entropy_nano)``;
    empty docs score (0, 0, 0).
    """
    ids = batch.column(id_col)
    out_n, out_d, out_e = [], [], []
    for t in batch.column(text_col).to_pylist():
        cp = np.frombuffer((t or "").encode("utf-32-le"), dtype=np.uint32)
        n = len(cp)
        if n == 0:
            out_n.append(0); out_d.append(0); out_e.append(0)
            continue
        _, c = np.unique(cp, return_counts=True)
        cf = c.astype(np.float64)
        nf = np.float64(n)
        terms = np.floor(1e9 * ((cf / nf) * np.log(nf / cf))).astype(
            np.int64)
        out_n.append(n)
        out_d.append(len(c))
        out_e.append(int(terms.sum()))
    return pa.table({
        id_col: ids,
        "n_chars": pa.array(out_n, type=pa.int64()),
        "n_distinct": pa.array(out_d, type=pa.int64()),
        "entropy_nano": pa.array(out_e, type=pa.int64()),
    })
