"""Corpus-curation operators for training-data pipelines: PII redaction,
per-source caps, test-set decontamination, repetition (Gopher-style)
signals, and greedy sequence packing.

These extend the reference's per-document extraction chain (see
SURVEY.md §2.7) with the wide curation steps a 100 TB pre-training
pipeline needs. Every operator is batch-vectorized; wide steps shuffle
only pruned key columns, and small sides are broadcast once via
``ray.put``, never re-shipped per batch.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import keyed_agg, keyed_agg_table, map_groups
from .topk import head_by

# ---------------------------------------------------------------------------
# PII redaction
# ---------------------------------------------------------------------------
# RE2-compatible patterns (Arrow's compute layer and DuckDB both run RE2,
# so the oracle SQL applies the exact same regex engine semantics).
# Order matters: emails first (their local parts contain digit runs a
# phone pattern could claim), then dotted IPv4 (dots break the phone
# class so IP must go before phone only for the replacement-token text),
# then phone runs.
PII_EMAIL = r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}"
PII_IPV4 = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"
PII_PHONE = r"\+?\d[\d \-()]{7,}\d"

_PII_STAGES = (
    (PII_EMAIL, "<EMAIL>"),
    (PII_IPV4, "<IP>"),
    (PII_PHONE, "<PHONE>"),
)


def pii_redact(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Redact emails, IPv4 addresses and phone-number runs.

    Three chained ``pc.replace_substring_regex`` passes — RE2 kernels,
    no Python per row. Output: doc_id, redacted text, had_pii flag.
    """
    text = batch.column(text_col)
    redacted = text
    for pattern, token in _PII_STAGES:
        redacted = pc.replace_substring_regex(redacted, pattern, token)
    return pa.Table.from_pydict(
        {
            "doc_id": batch.column("doc_id"),
            "text": redacted,
            "had_pii": pc.invert(pc.equal(text, redacted)),
        }
    )


# ---------------------------------------------------------------------------
# per-source cap
# ---------------------------------------------------------------------------
def per_source_cap(ds, cap: int = 10, source_col: str = "source",
                   id_col: str = "doc_id"):
    """Keep at most ``cap`` docs per source (deterministic: lowest ids).

    The classic domain-balancing step, a ``topk.head_by`` on (source,
    id): each block keeps its own ``cap`` lowest ids per source before
    the keyed exchange, so it carries ≤ cap × blocks rows per source
    instead of a source's entire row set. Columns are pruned to (source,
    id) first; document text never moves. Join the surviving ids back to
    the corpus with ``broadcast_join`` (small survivor set) or
    ``hash_join`` when the cap output is itself large.
    """
    return (head_by(ds.select_columns([source_col, id_col]), source_col,
                    [(id_col, "ascending")], cap)
            .drop_columns(["rank"]))


# ---------------------------------------------------------------------------
# test-set decontamination
# ---------------------------------------------------------------------------
class _ContaminationFlagger:
    """Task UDF: the eval-snippet alternation is built once on the
    driver and travels with the instance; each batch is flagged with one
    vectorized ``pc.match_substring_regex`` call (RE2 builds a DFA over
    the alternation — effectively Aho-Corasick multi-pattern matching).
    """

    def __init__(self, snippets: Sequence[str], text_col: str = "text"):
        import re as _re

        # escape: snippets are literals, not patterns
        self.pattern = "|".join(_re.escape(s) for s in snippets if s)
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.pattern:
            flags = pc.match_substring_regex(
                batch.column(self.text_col), self.pattern
            )
        else:
            flags = pa.array([False] * batch.num_rows, type=pa.bool_())
        # passthrough: input columns survive so the flag composes into
        # larger pipelines (filter + keep source/text downstream)
        return batch.append_column("contaminated", flags)


def decontaminate(ds, snippets: Sequence[str], text_col: str = "text"):
    """Flag docs containing any eval-set snippet (substring containment).

    ``snippets`` (the benchmark/eval side) must be driver-small — the
    standard shape: eval sets are KBs–MBs while the train corpus is TBs.
    Their pattern ships once inside the UDF instance and the corpus
    streams through in one pass of tasks, nothing shuffles.
    """
    return ds.map_batches(_ContaminationFlagger(snippets, text_col),
                          batch_format="pyarrow")


# ---------------------------------------------------------------------------
# repetition signals (Gopher-style quality filters)
# ---------------------------------------------------------------------------
def repetition_stats(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Repetition-based quality signals per document:

    - ``dup_word_frac``: 1 − distinct_tokens / total_tokens
    - ``top_bigram_frac``: share of all word-bigrams taken by the most
      frequent one

    (the duplicate-line / top-n-gram family of Gopher's quality rules,
    restated for single-line documents). Token splitting is one Arrow
    kernel; the per-doc distinct/bigram counts run on numpy arrays of
    the flattened token list — no per-character Python.

    Alongside the float fractions the exact integer counts
    (n_tokens, n_distinct, top_bigram_count, n_bigrams) are emitted:
    the oracle compares those — integers hash identically across
    engines, floats only per rounding convention.
    """
    text = batch.column(text_col)
    tokens = pc.split_pattern(pc.utf8_trim_whitespace(text), " ")
    if isinstance(tokens, pa.ChunkedArray):
        tokens = tokens.combine_chunks()
    # one dictionary-encode over the whole batch's flattened token list:
    # per-doc work then runs on small int codes, never on strings
    flat_codes = np.asarray(
        pc.dictionary_encode(tokens.flatten()).indices, dtype=np.int64
    )
    lens = pc.list_value_length(tokens).to_numpy(zero_copy_only=False)
    offsets = np.concatenate(([0], np.cumsum(lens)))
    vocab = int(flat_codes.max()) + 1 if flat_codes.size else 1

    n_rows = len(lens)
    n_distinct = np.zeros(n_rows, dtype=np.int64)
    top_count = np.zeros(n_rows, dtype=np.int64)
    for i in range(n_rows):
        codes = flat_codes[offsets[i]:offsets[i + 1]]
        n = len(codes)
        if n == 0:
            continue
        n_distinct[i] = np.unique(codes).size
        if n >= 2:
            bigrams = codes[:-1] * vocab + codes[1:]
            _, counts = np.unique(bigrams, return_counts=True)
            top_count[i] = counts.max()
    n_tokens = lens.astype(np.int64)
    n_bigrams = np.maximum(n_tokens - 1, 0)
    with np.errstate(invalid="ignore", divide="ignore"):
        dup_frac = np.where(n_tokens > 0, 1.0 - n_distinct / n_tokens, 0.0)
        top_bg = np.where(n_bigrams > 0, top_count / n_bigrams, 0.0)
    return pa.Table.from_pydict(
        {
            "doc_id": batch.column("doc_id"),
            "n_tokens": n_tokens,
            "n_distinct": n_distinct,
            "top_bigram_count": top_count,
            "n_bigrams": n_bigrams,
            "dup_word_frac": np.round(dup_frac, 6),
            "top_bigram_frac": np.round(top_bg, 6),
        }
    )


# ---------------------------------------------------------------------------
# greedy sequence packing
# ---------------------------------------------------------------------------
def pack_sequences(ds, max_tokens: int = 1024, text_col: str = "text",
                   shard_size: int | None = None):
    """Greedy first-fit packing of documents into training sequences.

    By default each BLOCK packs independently (no global state — the
    property that makes this embarrassingly parallel at 100 TB;
    cross-block packing would serialize the whole corpus for a ~1 %
    fill-rate gain). Within a unit, docs are taken in doc_id order and
    appended to the open pack while the whitespace-token budget holds;
    oversized docs get a pack of their own (truncation is the trainer's
    call, not ours).

    ``shard_size`` switches the packing unit from "whatever block the
    scheduler produced" to the deterministic shard ``doc_id //
    shard_size`` via a groupby — output then no longer depends on block
    layout (reproducible training runs), at the cost of one shuffle of
    the pruned (doc_id, token-count) pair. Note the shuffle moves two
    int columns, not text: token counts are computed BEFORE the
    exchange.

    Output rows: (pack_id = first doc_id in the pack, n_docs, n_tokens,
    fill_frac). Rows-only oracle (greedy reset logic is not
    SQL-expressible).
    """

    def count_tokens(batch: pa.Table) -> pa.Table:
        n_tok = pc.list_value_length(
            pc.split_pattern_regex(
                pc.utf8_trim_whitespace(batch.column(text_col)), r"\s+"
            )
        )
        cols = {
            "doc_id": batch.column("doc_id"),
            "n_tok": pc.cast(n_tok, pa.int64()),
        }
        if shard_size is not None:
            cols["shard"] = pc.cast(
                pc.divide(batch.column("doc_id"), shard_size), pa.int64()
            )
        return pa.Table.from_pydict(cols)

    def pack_batch(batch: pa.Table) -> pa.Table:
        n_tok = batch.column("n_tok").to_numpy(zero_copy_only=False)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")
        pack_ids, pack_docs, pack_toks = [], [], []
        cur_id, cur_docs, cur_toks = None, 0, 0
        for j in order:
            t = int(n_tok[j])
            if cur_id is not None and cur_toks + t > max_tokens:
                pack_ids.append(cur_id)
                pack_docs.append(cur_docs)
                pack_toks.append(cur_toks)
                cur_id, cur_docs, cur_toks = None, 0, 0
            if cur_id is None:
                cur_id = ids[j]
            cur_docs += 1
            cur_toks += t
        if cur_id is not None:
            pack_ids.append(cur_id)
            pack_docs.append(cur_docs)
            pack_toks.append(cur_toks)
        return pa.Table.from_pydict(
            {
                "pack_id": pa.array(pack_ids,
                                    type=batch.schema.field("doc_id").type),
                "n_docs": pa.array(pack_docs, type=pa.int64()),
                "n_tokens": pa.array(pack_toks, type=pa.int64()),
                "fill_frac": pa.array(
                    [round(min(t, max_tokens) / max_tokens, 6)
                     for t in pack_toks],
                    type=pa.float64(),
                ),
            }
        )

    counted = ds.select_columns(["doc_id", text_col]).map_batches(
        count_tokens, batch_format="pyarrow"
    )
    if shard_size is None:
        return counted.map_batches(pack_batch, batch_format="pyarrow")
    return map_groups(counted, "shard", pack_batch)


# ---------------------------------------------------------------------------
# document chunking
# ---------------------------------------------------------------------------
def chunk_documents(ds, chunk_tokens: int = 256, stride: int | None = None,
                    text_col: str = "text"):
    """Split documents into (overlapping) token-window chunks — the
    embedding-pipeline prep step (encoders take ~512-token inputs, docs
    don't). Chunk k covers tokens [k·stride, k·stride + chunk_tokens);
    ``stride < chunk_tokens`` gives overlap, default stride = no
    overlap. Every start position ≤ len emits (the final chunk may be
    short) — a rule simple enough that the SQL oracle replays it
    byte-exactly.

    Pure per-row flat-map: no shuffle, each input block maps to one
    output block. Output: (doc_id, chunk_id, chunk).
    """
    if stride is None:
        stride = chunk_tokens
    if stride <= 0 or chunk_tokens <= 0:
        raise ValueError("chunk_tokens and stride must be positive")

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        ids = batch.column("doc_id").to_pylist()
        id_type = batch.schema.field("doc_id").type
        out_ids, out_cids, out_chunks = [], [], []
        for doc_id, t in zip(ids, texts):
            toks = (t or "").strip().split(" ")
            n = len(toks)
            k = 0
            for start in range(0, max(n, 1), stride):
                out_ids.append(doc_id)
                out_cids.append(k)
                out_chunks.append(" ".join(toks[start:start + chunk_tokens]))
                k += 1
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(out_ids, type=id_type),
                "chunk_id": pa.array(out_cids, type=pa.int64()),
                "chunk": pa.array(out_chunks, type=pa.string()),
            }
        )

    return ds.select_columns(["doc_id", text_col]).map_batches(
        fn, batch_format="pyarrow"
    )


def normalize_text_batch(batch: pa.Table, text_col: str = "text",
                         out_col: str = "text_norm") -> pa.Table:
    """CCNet-style text normalization: lowercase → strip everything but
    ``[a-z0-9]`` and whitespace → collapse whitespace runs to one space
    → trim. The canonical pre-dedup normalization (case/punctuation
    variants of the same page collapse to one key).

    Arrow RE2 kernels end to end — the same regex engine DuckDB uses,
    so the oracle's ``regexp_replace(..., 'g')`` replays byte-exactly.
    """
    import pyarrow.compute as pc

    t = pc.coalesce(pc.cast(batch.column(text_col), pa.string()),
                    pa.scalar("", type=pa.string()))
    low = pc.utf8_lower(t)
    nopunct = pc.replace_substring_regex(low, r"[^a-z0-9\s]+", "")
    collapsed = pc.replace_substring_regex(nopunct, r"\s+", " ")
    return batch.append_column(out_col, pc.utf8_trim_whitespace(collapsed))


def normalized_dedup(ds, doc_col: str = "doc_id", text_col: str = "text"):
    """Exact dedup on the NORMALIZED text (`normalize_text_batch`):
    representative (min doc_id) + group size per distinct normalized
    content — the `url_dedup` contract applied to page text.

    The exchange here keys on the normalized string itself so the
    result is oracle-exact; the 100 TB path is `fingerprint_dedup`
    (hash the normalized text to 64 bits and group on that — identical
    output modulo ~n²/2⁶⁵ collisions, exchange rows shrink from
    page-sized to 16 bytes). Only (text_norm, doc_id) ships — the raw
    text column is pruned before the groupby, and Min/Count pre-combine
    per block.
    """
    keyed = ds.map_batches(
        lambda b: normalize_text_batch(b, text_col),
        batch_format="pyarrow",
    ).select_columns(["text_norm", doc_col])
    return keyed_agg(keyed, "text_norm",
                     {"keep_doc_id": ("min", doc_col),
                      "n_dups": ("count", None)})


def winsorize_stats(ds, key_col: str, value_col: str,
                    q_lo: float = 0.05, q_hi: float = 0.95):
    """Per-key winsorization (outlier clipping) at EXACT discrete
    quantiles: clip each value into ``[p_lo, p_hi]`` of its key group
    and report per key ``n / n_clipped_lo / n_clipped_hi / sum_cents``
    of the clipped values. The standard robust-statistics curation step
    (cap pathological lengths/scores before mixing decisions).

    Exactness: bounds come from `sketch.exact_quantile_by` (the
    ``percentile_disc`` convention, SQL-comparable), clipping only ever
    RETURNS an existing value, and the clipped sum rides integer cents
    (``floor(v·100 + 0.5)``, identical IEEE ops to the oracle) — so the
    whole result is hash-exact.

    Shape: one histogram-sized quantile reduction, bounds broadcast
    once, then a single shuffle-free clip pass with per-block
    pre-combine into the final group-sized exchange.
    """
    import numpy as np
    import ray

    from .sketch import exact_quantile_by

    b = exact_quantile_by(ds, key_col, value_col,
                          qs=(q_lo, q_hi)).to_pandas()
    by_key = {}
    for k, grp in b.groupby(key_col, sort=False):
        g = grp.sort_values("q")["value"].to_numpy()
        by_key[k] = (float(g[0]), float(g[-1]))
    ref = ray.put(by_key)

    def clip(batch: pa.Table) -> pa.Table:
        bk = ray.get(ref)
        batch = batch.filter(pc.is_valid(batch.column(key_col)))
        keys = batch.column(key_col).to_pandas()
        vals = batch.column(value_col).to_numpy(
            zero_copy_only=False).astype(np.float64)
        lo = keys.map(lambda k: bk[k][0]).to_numpy()
        hi = keys.map(lambda k: bk[k][1]).to_numpy()
        w = np.minimum(np.maximum(vals, lo), hi)
        return pa.table({
            key_col: batch.column(key_col),
            "n_clipped_lo": (vals < lo).astype(np.int64),
            "n_clipped_hi": (vals > hi).astype(np.int64),
            "sum_cents": np.floor(w * 100.0 + 0.5).astype(np.int64),
        })

    sums = ("n_clipped_lo", "n_clipped_hi", "sum_cents")
    return keyed_agg(ds.map_batches(clip, batch_format="pyarrow"),
                     key_col, {"n": ("count", None),
                               **{c: ("sum", c) for c in sums}}).sort(key_col)


def span_corruption(ds, doc_col: str = "doc_id", text_col: str = "text",
                    mask_rate: float = 0.15):
    """T5-style span corruption (Raffel et al. 2020, public): mask a
    deterministic ~``mask_rate`` of each document's tokens, collapse
    each masked RUN to one numbered sentinel in the input, and emit the
    masked runs (sentinel-prefixed) as the target — the
    denoising-objective pair generator of an LLM pretraining pipeline.

    Reproducibility is the whole design: a token is masked iff the
    first 8 hex chars of md5("{doc_id}:{pos}") fall under the
    ``mask_rate`` threshold (`mix_threshold_hex` — the same keyed-hash
    convention as `weighted_mix`/`split_assign`), so the corruption of
    a document never depends on partitioning, epoch, or corpus
    composition, and a SQL replay produces byte-identical strings
    (runs numbered by the gaps-and-islands trick). At real scale the
    md5 would swap for a cheaper keyed hash; md5 is the SQL-parity
    choice.

    Shuffle-free: a document is one row, so tokenize -> mask -> run
    detection -> string assembly all happen inside the block.

    Returns (doc_id, input_text, target_text, n_masked).
    """
    import hashlib

    from .sampling import mix_threshold_hex

    thresh = mix_threshold_hex(mask_rate)

    def corrupt(b: pa.Table) -> pa.Table:
        docs = b.column(doc_col).to_pylist()
        texts = b.column(text_col).to_pylist()
        out_in: list[str] = []
        out_tg: list[str] = []
        out_n: list[int] = []
        for d, txt in zip(docs, texts):
            toks = (txt or "").strip().split(" ")
            mask = np.fromiter(
                (hashlib.md5(f"{d}:{i}".encode()).hexdigest()[:8]
                 < thresh for i in range(len(toks))),
                dtype=bool, count=len(toks))
            prev = np.concatenate(([False], mask[:-1]))
            run_start = mask & ~prev
            run_id = np.cumsum(run_start) - 1
            inp: list[str] = []
            tgt: list[str] = []
            for i, tok in enumerate(toks):
                if not mask[i]:
                    inp.append(tok)
                elif run_start[i]:
                    inp.append(f"<extra_id_{run_id[i]}>")
                    tgt.append(f"<extra_id_{run_id[i]}> {tok}")
                else:
                    tgt.append(tok)
            out_in.append(" ".join(inp))
            out_tg.append(" ".join(tgt))
            out_n.append(int(mask.sum()))
        return pa.table({
            doc_col: b.column(doc_col),
            "input_text": pa.array(out_in, type=pa.string()),
            "target_text": pa.array(out_tg, type=pa.string()),
            "n_masked": pa.array(out_n, type=pa.int64()),
        })

    return (ds.select_columns([doc_col, text_col])
            .map_batches(corrupt, batch_format="pyarrow")
            .sort(doc_col))


def source_affixes(ds, source_col: str = "source",
                   text_col: str = "text"):
    """Per-source COMMON PREFIX and COMMON SUFFIX over a text column —
    the boilerplate-affix screen (every page of a site sharing a
    header/footer banner shows up as a long per-source common affix;
    what a curation layer strips before dedup so chrome doesn't mask
    content-level similarity).

    Exactness via the lexicographic min/max trick: for any set S under
    lexicographic order, ``LCP(S) = LCP(min S, max S)`` (every s lies
    between them, so any divergence from the min/max pair is a
    divergence inside the set) — the common suffix is the same trick
    on the codepoint-REVERSED strings. UTF-8 bytewise order equals
    codepoint order, so pyarrow's binary min/max, Python's str
    compare, and DuckDB's default collation all agree.

    Scale shape: per-block pyarrow ``group_by`` min/max/count partials
    (≤ |sources| rows per block, strings only travel twice per block),
    then ONE source-keyed exchange of those partials combined by
    ``map_groups`` (the LCP itself runs on exactly two strings per
    source). No full-text shuffle, no driver collection. Output one
    row per source: (source, n_docs, prefix_len, common_prefix,
    suffix_len, common_suffix) — lengths in codepoints.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    def partial(b: pa.Table) -> pa.Table:
        tx = b.column(text_col)
        t = pa.table({
            source_col: b.column(source_col),
            "tx": tx,
            "rtx": pc.utf8_reverse(tx),
        })
        out = t.group_by(source_col).aggregate(
            [("tx", "min"), ("tx", "max"),
             ("rtx", "min"), ("rtx", "max"),
             ("tx", "count")])
        return out.rename_columns(
            [source_col, "mn", "mx", "rmn", "rmx", "n"])

    def _lcp(a: str, b: str) -> int:
        m = min(len(a), len(b))
        i = 0
        while i < m and a[i] == b[i]:
            i += 1
        return i

    def final(g: pa.Table) -> pa.Table:
        mn = min(g.column("mn").to_pylist())
        mx = max(g.column("mx").to_pylist())
        rmn = min(g.column("rmn").to_pylist())
        rmx = max(g.column("rmx").to_pylist())
        p = _lcp(mn, mx)
        s = _lcp(rmn, rmx)
        return pa.table({
            source_col: g.column(source_col).slice(0, 1),
            "n_docs": pa.array([sum(g.column("n").to_pylist())],
                               type=pa.int64()),
            "prefix_len": pa.array([p], type=pa.int64()),
            "common_prefix": pa.array([mn[:p]], type=pa.string()),
            "suffix_len": pa.array([s], type=pa.int64()),
            "common_suffix": pa.array([rmn[:s][::-1]],
                                      type=pa.string()),
        })

    return map_groups(ds.map_batches(partial, batch_format="pyarrow"),
                      source_col, final)


def token_dropout(ds, rate_den: int = 8, doc_col: str = "doc_id",
                  text_col: str = "text"):
    """Deterministic word-dropout augmentation (the span-corruption
    sibling at TOKEN granularity, cf. BERT/T5-style masking): token at
    position ``i`` of doc ``d`` is DROPPED iff
    ``FNV1a(f"{d}:{i}") % rate_den == 0`` — a seedless integer draw,
    reproducible across engines and partitionings (the DuckDB oracle
    replays the identical hash), expected rate exactly 1/rate_den over
    the hash family.

    Tokenizer contract is the oracle's ``string_split(trim(text), ' ')``
    (empty tokens on space runs kept — they're positions too). Pure
    per-row compute, zero shuffle; one vectorized `_hash64` call per
    BATCH (keys flattened across docs), reassembly via numpy boundary
    splits — no per-token Python hashing.

    Returns rows (doc_col, text_aug, n_tokens, n_dropped).
    """
    from .dedup import _hash64

    def aug(batch: pa.Table) -> pa.Table:
        ids = batch.column(doc_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        id_type = batch.schema.field(doc_col).type
        tok_lists = [((t or "").strip()).split(" ") for t in texts]
        lens = np.fromiter((len(ts) for ts in tok_lists),
                           dtype=np.int64, count=len(tok_lists))
        keys: list[str] = []
        for d, ts in zip(ids, tok_lists):
            prefix = f"{d}:"
            keys.extend(prefix + str(i) for i in range(len(ts)))
        h = _hash64(keys)
        drop = (h % np.uint64(rate_den)) == 0
        out_text, out_drop = [], []
        pos = 0
        for ts, n in zip(tok_lists, lens.tolist()):
            m = drop[pos:pos + n]
            out_text.append(" ".join(
                t for t, dr in zip(ts, m.tolist()) if not dr))
            out_drop.append(int(m.sum()))
            pos += n
        return pa.table({
            doc_col: pa.array(ids, type=id_type),
            "text_aug": pa.array(out_text, type=pa.string()),
            "n_tokens": pa.array(lens, type=pa.int64()),
            "n_dropped": pa.array(out_drop, type=pa.int64()),
        })

    return ds.select_columns([doc_col, text_col]).map_batches(
        aug, batch_format="pyarrow")


def l_diversity(ds, quasi_cols: list[str], sensitive_col: str,
                l: int = 3):
    """The l-diversity companion of :func:`k_anonymity` (Machanavajjhala
    et al., ICDE 2006): a quasi-identifier group can be large enough to
    pass k-anonymity yet still leak — if every member shares the same
    SENSITIVE value, membership alone discloses it. Returns the
    violating groups: ``(*quasi_cols, n_sensitive, n_rows)`` where the
    group's distinct-sensitive-value count is below ``l``.

    Ray shape, two collapsing exchanges, row data never moves past the
    first map: per-block partials pre-combine to distinct
    (quasi, sensitive) pairs with row counts → one groupby over the
    pair table (bounded by QI-domain × sensitive-domain, not rows) →
    one groupby over quasi combinations counting pairs (= distinct
    sensitive values) and summing rows → the under-l filter.
    """
    cols = quasi_cols + [sensitive_col]

    pairs = keyed_agg(ds.select_columns(cols), cols, {"n": ("count", None)})

    def under_l(b: pa.Table) -> pa.Table:
        return b.filter(pc.less(b.column("n_sensitive"), l))

    return keyed_agg(pairs, quasi_cols,
                     {"n_sensitive": ("count", None),
                      "n_rows": ("sum", "n")}
                     ).map_batches(under_l, batch_format="pyarrow")


def _tvd_num(c: np.ndarray, cb: np.ndarray, ng: int, n: int) -> int:
    """t_closeness numerator Σ_b |c_gb·N − n_g·c_b| + n_g·(N − Σ c_b).
    Each band term fits int64 under the 2⁶² guard; their sum may not,
    so it is taken in Python ints."""
    present = sum(map(abs, (c * n - ng * cb).tolist()))
    return present + ng * (n - int(cb.sum()))


def t_closeness(ds, quasi_cols: list[str], sensitive_col: str,
                t_num: int = 9, t_den: int = 20):
    """The third leg of the privacy triad (Li, Li & Venkatasubramanian,
    ICDE 2007): a group can be k-anonymous AND l-diverse yet still leak
    if its sensitive-value DISTRIBUTION diverges from the corpus
    baseline (e.g. 95 % one disease vs 5 % globally). Flags groups
    whose total-variation distance to the global distribution exceeds
    ``t = t_num/t_den`` — computed EXACTLY in integers: with group
    pair-counts c_gb, group size n_g, global band counts c_b, total N,

        TVD_g = Σ_b |c_gb·N − n_g·c_b| / (2·n_g·N)

    (bands absent from the group contribute n_g·c_b, folded in as
    n_g·(N − Σ_present c_b)), and the gate is the integer
    cross-multiplication ``t_den·tvd_num > 2·t_num·n_g·N`` — no float
    ever. Loud guard: c·N must stay under 2⁶² (past that, scale both
    sides down by a common factor first).

    Ray shape: the same distinct-(quasi, sensitive)-pair exchange as
    :func:`l_diversity`; global band counts + N are a tiny broadcast;
    per-group math runs inside a ``map_groups`` over the pair table
    (all of a group's bands co-locate). Output (violating groups
    only): ``(*quasi_cols, n_rows, tvd_num)``; the caller recovers
    TVD as tvd_num / (2·n_rows·N).
    """
    import numpy as np
    import ray

    cols = quasi_cols + [sensitive_col]

    pairs = keyed_agg(ds.select_columns(cols), cols, {"n": ("count", None)}
                      ).materialize()  # consumed twice: global bands + groups

    gb = {r[sensitive_col]: int(r["n"])
          for r in keyed_agg_table(pairs, sensitive_col,
                                   {"n": ("sum", "n")}).to_pylist()}
    n_total = sum(gb.values())
    if n_total and max(gb.values()) * n_total >= (1 << 62):
        raise OverflowError(
            "t_closeness: c_b*N reaches 2^62 — rescale counts by a "
            "common factor before the integer cross-multiplication")
    gb_ref = ray.put((gb, n_total))

    def group_tvd(group: pa.Table) -> pa.Table:
        bands, n = ray.get(gb_ref)
        c = group.column("n").to_numpy(zero_copy_only=False)
        ng = int(c.sum())
        cb = np.fromiter(
            (bands[v] for v in group.column(sensitive_col).to_pylist()),
            dtype=np.int64, count=group.num_rows)
        tvd_num = _tvd_num(c, cb, ng, n)
        if t_den * tvd_num <= 2 * t_num * ng * n:
            return pa.table(
                {q: group.column(q).slice(0, 0) for q in quasi_cols}
                | {"n_rows": pa.array([], type=pa.int64()),
                   "tvd_num": pa.array([], type=pa.int64())})
        return pa.table(
            {q: group.column(q).slice(0, 1) for q in quasi_cols}
            | {"n_rows": pa.array([ng], type=pa.int64()),
               "tvd_num": pa.array([tvd_num], type=pa.int64())})

    return map_groups(pairs, quasi_cols, group_tvd)


def k_anonymity(ds, quasi_cols: list[str], k: int = 10):
    """Privacy / governance audit: rows sharing a quasi-identifier
    combination form an anonymity set; any combination with fewer than
    ``k`` members re-identifies its rows (Sweeney's k-anonymity).
    Returns the VIOLATING combinations — ``(*quasi_cols, n)`` with
    ``n < k`` — the table a release gate suppresses or generalizes.

    Ray shape: per-block partial counts over the quasi-tuple collapse
    the exchange to distinct-combination size (bounded by the QI
    domain product, not the row count); the under-k filter runs on the
    combination table. Pairs with `pii_redact` (cell-level) the way a
    census release pairs suppression with masking: one guards values,
    this guards group sizes.
    """

    def under_k(b: pa.Table) -> pa.Table:
        return b.filter(pc.less(b.column("n"), k))

    return keyed_agg(ds.select_columns(quasi_cols), quasi_cols,
                     {"n": ("count", None)}
                     ).map_batches(under_k, batch_format="pyarrow")


def c4_line_gates_batch(batch: pa.Table, text_col: str = "text",
                        id_col: str = "doc_id", min_words: int = 3,
                        min_lines: int = 5,
                        sep: str = "\n") -> pa.Table:
    """The C4 line-level structural gates (Raffel et al. 2020, §2.2 —
    public): drop every line with fewer than ``min_words`` whitespace
    words, then flag documents retaining fewer than ``min_lines``
    lines. (C4 also gates on terminal punctuation; the corpus has
    none, so that axis lives with the planted-boundary readability
    ops.) Pure per-doc ``map_batches`` kernel, zero shuffle.

    Output per doc: ``(doc_id, n_lines, n_kept_lines, kept,
    clean_text)`` — ``kept`` is int64 0/1, ``clean_text`` the
    surviving lines re-joined (regardless of the doc gate, so a
    downstream chain can choose to salvage).
    """
    ids = batch.column(id_col)
    n_lines, n_kept, kept_flag, clean = [], [], [], []
    for t in batch.column(text_col).to_pylist():
        lines = (t or "").split(sep)
        keep = [ln for ln in lines if len(ln.split()) >= min_words]
        n_lines.append(len(lines))
        n_kept.append(len(keep))
        kept_flag.append(1 if len(keep) >= min_lines else 0)
        clean.append(sep.join(keep))
    return pa.table({
        id_col: ids,
        "n_lines": pa.array(n_lines, type=pa.int64()),
        "n_kept_lines": pa.array(n_kept, type=pa.int64()),
        "kept": pa.array(kept_flag, type=pa.int64()),
        "clean_text": pa.array(clean, type=pa.string()),
    })
