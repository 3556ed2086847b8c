"""Deterministic sampling for corpus balancing.

Training-data pipelines constantly need "n documents per language /
domain / bucket" subsets that are (a) uniform-ish, (b) reproducible
across runs and engines, and (c) cheap at scale. Ranking by a
content-independent cryptographic hash of the id gives all three: the
sample is a pure function of the ids, any engine computes the same one
(md5 is everywhere — the DuckDB oracle replays it exactly), and no RNG
state needs coordinating across workers.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .dedup import _md5_key
from .exchange import keyed_agg_table
from .topk import head_by, top_k


def _counts(ds, key_col: str):
    """Rows per ``key_col`` value as a driver DataFrame
    (``key_col``, ``n``), sorted by key."""
    return keyed_agg_table(ds.select_columns([key_col]), key_col,
                           {"n": ("count", None)}).to_pandas()


def _md5_hex(values: list) -> list[str]:
    md5 = hashlib.md5
    return [
        md5(str(v).encode()).hexdigest() for v in values
    ]


def stratified_sample(ds, key_col: str, n_per_key: int, id_col: str = "doc_id"):
    """Deterministic per-key sample: the ``n_per_key`` ids with the
    smallest ``md5(str(id))`` in each key group (ties broken by id).

    A ``topk.head_by`` on (key, id, md5): only those columns cross the
    exchange — never payloads — and each block keeps its own
    ``n_per_key`` smallest per key first, bounding any key's group at
    n × blocks rows even when one key covers most of a 100 TB corpus.
    Winners come back as a small (key, id) table to semi-join against
    the corpus (broadcast the id set) when full rows are needed.
    Equivalent SQL: ``ROW_NUMBER() OVER (PARTITION BY key ORDER BY
    md5(CAST(id AS VARCHAR)), id) <= n``.
    """

    def keyed(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        return batch.append_column(
            "rank_md5", pa.array(_md5_hex(ids), type=pa.string()))

    keyed_ds = ds.select_columns([key_col, id_col]).map_batches(
        keyed, batch_format="pyarrow")
    return head_by(keyed_ds, key_col, [("rank_md5", "ascending"),
                                       (id_col, "ascending")],
                   n_per_key).select_columns([key_col, id_col])


def mix_threshold_hex(weight: float) -> str:
    """8-hex-digit keep-threshold for ``weighted_mix``: a row survives
    iff ``md5(str(id))[:8] < threshold``. Lowercase-hex string order ==
    numeric order at fixed width, so the same comparison runs unchanged
    in SQL. weight ≥ 1 → "g" (> every hex digit: keep all); ≤ 0 → ""
    (< everything: keep none)."""
    if weight >= 1.0:
        return "g"
    if weight <= 0.0:
        return ""
    return format(int(weight * 16 ** 8), "08x")


def weighted_mix(ds, weights: dict, default_weight: float = 0.0,
                 key_col: str = "source", id_col: str = "doc_id"):
    """Deterministic weighted corpus mixing: independently keep each row
    with its source's probability, driven by ``md5(str(id))`` as the
    uniform draw — the standard up/down-sampling step when rebalancing a
    training mix across sources/domains.

    A pure per-row filter: no shuffle, no RNG state to coordinate,
    reproducible across engines and partitionings (the DuckDB oracle
    replays the identical md5 comparison). Expected kept fraction per
    source is exact to 1/16^8.
    """
    thresholds = {k: mix_threshold_hex(w) for k, w in weights.items()}
    default_t = mix_threshold_hex(default_weight)

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        keys = batch.column(key_col).to_pylist()
        hexes = _md5_hex(ids)
        mask = pa.array(
            [h[:8] < thresholds.get(k, default_t)
             for h, k in zip(hexes, keys)]
        )
        return batch.filter(mask)

    return ds.select_columns([key_col, id_col]).map_batches(
        keep, batch_format="pyarrow"
    )


def temperature_mix(ds, alpha: float = 0.5, c: float = 8.0,
                    key_col: str = "source", id_col: str = "doc_id"):
    """Temperature-flattened source sampling: keep each row of source
    ``s`` with probability ``min(1, c · n_s^(α−1))`` — the standard
    corpus-rebalancing move (α < 1 flattens the source distribution so
    giant sources stop dominating the mix; α = 1 keeps everything, the
    multilingual-balancing trick popularized by XLM-R / mT5 sampling).

    Unlike :func:`weighted_mix` the rates are DATA-DEPENDENT: phase 1
    is a key-cardinality-sized count per source; the driver derives the
    per-source keep rate with libm ``pow`` (bit-identical to SQL
    ``power()``, so a DuckDB oracle recomputes the exact same 8-hex
    thresholds from the same counts — no normalizing sum across sources
    is used anywhere, keeping every double computed per-source and
    order-independent); phase 2 is the shuffle-free md5-threshold
    filter shared with ``weighted_mix``.
    """
    import math

    counts = _counts(ds, key_col)
    weights = {
        k: min(1.0, c * math.pow(float(n), alpha - 1.0))
        for k, n in zip(counts[key_col], counts["n"])
    }
    return weighted_mix(ds, weights, default_weight=0.0,
                        key_col=key_col, id_col=id_col)


def split_assign(ds, fractions: "dict[str, float]",
                 id_col: str = "doc_id", out_col: str = "split"):
    """Deterministic dataset splitting (train/val/test): every row is
    assigned to exactly one named split by where ``md5(str(id))[:8]``
    falls among the cumulative-fraction thresholds — a pure function of
    the id, so the split is reproducible across runs, engines and
    repartitionings, documents never leak between splits when the
    corpus grows (an id keeps its bucket forever), and no RNG state is
    coordinated across workers.

    ``fractions`` must sum to 1 (±1e-9); the LAST split absorbs the
    hex-rounding sliver so every row lands somewhere. Shuffle-free:
    one vectorized md5 + ``np.searchsorted`` per batch appends
    ``out_col``; SQL replays it as a CASE over the same hex literals
    (lowercase fixed-width hex compares like the number it encodes).
    """
    import numpy as np
    import pyarrow.compute as pc

    names = list(fractions)
    if not names:
        raise ValueError("fractions must be non-empty")
    total = sum(fractions.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {total}")
    cum, acc = [], 0.0
    for name in names[:-1]:
        acc += fractions[name]
        cum.append(mix_threshold_hex(acc))
    bounds = np.array(cum, dtype="U8")
    labels = pa.array(names, type=pa.string())

    def assign(batch: pa.Table) -> pa.Table:
        h = np.array(
            [x[:8] for x in _md5_hex(batch.column(id_col).to_pylist())],
            dtype="U8")
        idx = np.searchsorted(bounds, h, side="right")
        return batch.append_column(
            out_col, pc.take(labels, pa.array(idx, type=pa.int64())))

    return ds.map_batches(assign, batch_format="pyarrow")


def rendezvous_shards(ds, n_shards: int, id_col: str = "doc_id",
                      out_col: str = "shard"):
    """Rendezvous (highest-random-weight) shard assignment: each row
    goes to ``argmax over s of md5(f"{id}:{s}")[:8]`` (ties to the
    lowest shard id) — the consistent-placement scheme whose defining
    property is MINIMAL MOVEMENT: growing from n to n+1 shards moves
    only the rows the new shard wins (≈ 1/(n+1) of them), and every
    moved row moves TO the new shard; nothing reshuffles among old
    shards. The standard router for stateful actor pools / incremental
    index shards (`state/dedup_index.py` uses modulo; HRW is what you
    deploy when shard counts must change online).

    Pure per-row function of (id, shard set): shuffle-free, no
    coordination, engine-reproducible — SQL replays it with the same
    md5 over a ``generate_series`` cross join and an ``arg``-max
    window. Cost is ``n_shards`` hashes per row; HRW is for routing
    to worker/shard counts (10s–1000s), not for value partitioning.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    import hashlib

    import numpy as np

    def assign(batch: pa.Table) -> pa.Table:
        md5 = hashlib.md5
        ids = batch.column(id_col).to_pylist()
        n = len(ids)
        best_h = np.full(n, "", dtype="U8")
        best_s = np.zeros(n, dtype=np.int64)
        for s in range(n_shards):
            suf = f":{s}".encode()
            h = np.array(
                [md5(str(v).encode() + suf).hexdigest()[:8]
                 for v in ids], dtype="U8")
            win = h > best_h  # strict: ties keep the earlier (lower) s
            best_h[win] = h[win]
            best_s[win] = s
        return batch.append_column(
            out_col, pa.array(best_s, type=pa.int64()))

    return ds.map_batches(assign, batch_format="pyarrow")


def priority_sample(ds, weight_col: str, id_col: str = "doc_id",
                    k: int = 100):
    """Weighted sampling WITHOUT replacement — Duffield–Lund–Thorup
    priority sampling, made deterministic and integer-exact: each row
    gets priority ``q = (w · 2^40) // (h + 1)`` where ``h`` is the
    40-bit md5 of its id (the fixed-seed stand-in for u ~ U(0,1); q is
    the floor of w/u scaled), and the sample is the top-``k`` rows by
    ``(q DESC, id ASC)`` — a TOTAL order, so any partitioning yields
    the same sample and a SQL oracle replays it with the identical
    md5-substr + integer division.

    Heavier rows win proportionally more often (w/u dominates), the
    textbook weighted-reservoir semantics for corpus subsampling.
    Ray shape: a per-block priority map, then ``topk.top_k`` (per-block
    cut, one merge over ``k × n_blocks`` survivors). Weights must be
    ints in [0, 2^20) so the scaled product stays int64-exact (loud
    guard).
    """
    import hashlib

    if k < 1:
        raise ValueError("k must be >= 1")
    md5 = hashlib.md5

    def priority(b: pa.Table) -> pa.Table:
        w = b.column(weight_col).to_numpy(zero_copy_only=False).astype(
            np.int64)
        if w.size and (w.min() < 0 or w.max() >= (1 << 20)):
            raise ValueError(
                f"priority_sample: {weight_col} must be in [0, 2^20) "
                "for int64-exact priorities; bucket the weight first")
        ids = b.column(id_col).to_pylist()
        h = np.fromiter(
            (int(md5(str(v).encode()).hexdigest()[:10], 16) for v in ids),
            dtype=np.int64, count=len(ids))
        q = (w << np.int64(40)) // (h + 1)
        return pa.Table.from_pydict({
            id_col: pc.cast(b.column(id_col), pa.int64()),
            "weight": pa.array(w, type=pa.int64()),
            "priority": pa.array(q, type=pa.int64()),
        })

    return top_k(ds.select_columns([id_col, weight_col])
                 .map_batches(priority, batch_format="pyarrow"),
                 [("priority", "descending"), (id_col, "ascending")], k)


def dsir_select(ds, target_lang: str = "en", n_buckets: int = 256,
                k: int = 100, text_col: str = "text",
                lang_col: str = "lang", id_col: str = "doc_id",
                carry_cols: tuple = ()):
    """DSIR-shaped data selection (Xie et al. 2023, "Data Selection for
    Language Models via Importance Resampling" — public paper): score
    every document by the log-likelihood ratio of its hashed-unigram
    features under the TARGET distribution (docs with ``lang_col ==
    target_lang``) vs the RAW distribution (whole corpus), then keep the
    top ``k``.

    Engine-reproducible by construction:
    - bucket(token) = int(md5(token)[:15], 16) % n_buckets — the repo's
      standard cross-engine hash (DuckDB replays it).
    - per-bucket weight w[b] = floor(1e6 · ln((c_t[b]+1)·(N_r+B) /
      ((c_r[b]+1)·(N_t+B)))) stamped as an INT64 once per bucket (libm
      ``math.log`` on exactly-representable integer operands, identical
      expression order in the SQL oracle; floor, never banker's round).
    - doc score = Σ_tokens w[bucket] — an order-independent integer sum,
      so the float math never touches corpus-sized data.

    Scale shape: two streaming passes. Pass 1 emits one (bucket,
    c_raw, c_target) histogram of ``n_buckets`` rows PER BLOCK (partial
    combine) into a groupby-sum whose result is bucket-count-sized; the
    weight table is built on the driver (B rows) and broadcast via
    closure capture. Pass 2 is a stateless scoring map + ``topk.top_k``
    — at most k rows per block reach its one-block merge.
    """
    import math

    import pyarrow.compute as pc

    B = int(n_buckets)

    def _buckets_for(flat: pa.Array) -> np.ndarray:
        """md5 bucket per token, hashing each DISTINCT token once."""
        enc = pc.dictionary_encode(flat)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        vocab = enc.dictionary.to_pylist()
        vb = np.fromiter((_md5_key(t) % B for t in vocab),
                         dtype=np.int64, count=len(vocab))
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        return vb[codes] if len(codes) else np.zeros(0, np.int64)

    def _tokens(b: pa.Table):
        text = pc.cast(b.column(text_col), pa.string())
        filled = pc.coalesce(text, pa.scalar("", type=pa.string()))
        toks = pc.split_pattern(
            pc.utf8_trim_whitespace(filled), " ").combine_chunks()
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        return toks.flatten(), np.repeat(
            np.arange(len(lens), dtype=np.int64), lens)

    def token_buckets(b: pa.Table) -> pa.Table:
        flat, row_idx = _tokens(b)
        is_t = pc.equal(
            b.column(lang_col), target_lang).to_numpy(zero_copy_only=False)
        return pa.table({"bucket": _buckets_for(flat),
                         "is_t": is_t[row_idx].astype(np.int64)})

    hist = keyed_agg_table(ds.select_columns([text_col, lang_col])
                           .map_batches(token_buckets, batch_format="pyarrow"),
                           "bucket", {"c_raw": ("count", None),
                                      "c_target": ("sum", "is_t")}
                           ).to_pylist()
    c_raw = np.zeros(B, np.int64)
    c_tgt = np.zeros(B, np.int64)
    for r in hist:
        c_raw[r["bucket"]] = r["c_raw"]
        c_tgt[r["bucket"]] = r["c_target"]
    n_raw, n_tgt = int(c_raw.sum()), int(c_tgt.sum())

    w = np.fromiter(
        (math.floor(1_000_000.0 * math.log(
            float(ct + 1) * float(n_raw + B)
            / (float(cr + 1) * float(n_tgt + B))))
         for ct, cr in zip(c_tgt.tolist(), c_raw.tolist())),
        dtype=np.int64, count=B)

    def score(b: pa.Table) -> pa.Table:
        flat, row_idx = _tokens(b)
        bk = _buckets_for(flat)
        s = np.zeros(b.num_rows, dtype=np.int64)
        np.add.at(s, row_idx, w[bk])
        cols = {id_col: b.column(id_col),
                "score": pa.array(s, type=pa.int64())}
        for c in carry_cols:
            cols[c] = b.column(c)
        return pa.Table.from_pydict(cols)

    keep = [id_col, text_col, lang_col]
    keep += [c for c in carry_cols if c not in keep]
    return top_k(ds.select_columns(keep)
                 .map_batches(score, batch_format="pyarrow"),
                 [("score", "descending"), (id_col, "ascending")], k)


def epoch_shuffle(ds, seed: str = "ep1", id_col: str = "doc_id"):
    """Deterministic global training-epoch permutation: every row gets
    an explicit 1-based ``pos`` — its rank under the keyed hash
    ``md5(f"{seed}:{id}")`` — so any engine (and any rerun) materializes
    the SAME shuffle order for a given seed, the property epoch
    reproducibility and mid-epoch resume both need. Changing ``seed``
    gives an independent permutation per epoch.

    The sort key is the UNIQUE int64 composition ``(hash36 << 27) | id``
    (36 hash bits, 27 id bits), ranked by the TeraSort-shape
    ``global_rank`` — per-block samples → driver range bounds → ONE
    range exchange; only samples and the range-count table touch the
    driver. Ids ≥ 2^27 raise loudly: at larger id domains compose the
    epoch key per shard and rank shard-locally (hierarchical shuffle)
    instead of silently truncating.
    """
    import pyarrow.compute as pc

    from .reshape import global_rank

    md5 = hashlib.md5

    def key(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy(zero_copy_only=False).astype(
            np.int64)
        if len(ids) and (ids.min() < 0 or ids.max() >= (1 << 27)):
            raise ValueError(
                "epoch_shuffle: id outside [0, 2^27) — use a "
                "hierarchical per-shard shuffle at this id scale")
        h = np.fromiter(
            (int(md5(f"{seed}:{i}".encode()).hexdigest()[:9], 16)
             for i in ids.tolist()),
            dtype=np.int64, count=len(ids))
        k = (h << np.int64(27)) | ids
        return pa.Table.from_pydict({
            id_col: b.column(id_col),
            "__ek": pa.array(k, type=pa.int64()),
        })

    ranked = global_rank(
        ds.select_columns([id_col]).map_batches(key, batch_format="pyarrow"),
        "__ek")

    def out(b: pa.Table) -> pa.Table:
        return pa.Table.from_pydict({
            id_col: b.column(id_col),
            "pos": b.column("rn"),
        })

    return ranked.map_batches(out, batch_format="pyarrow")


def balanced_interleave(ds, seed: str = "bi", id_col: str = "doc_id",
                        lang_col: str = "lang"):
    """Language-balanced deterministic training order: rows are ranked
    md5-random WITHIN each language, then interleaved round-robin
    across languages (every consecutive |langs|-row stripe holds ≤ 1
    doc per language until a language runs dry) — the multilingual
    training-order move that stops a dominant language from front-
    loading an epoch, reproducible across engines/reruns like
    :func:`epoch_shuffle`.

    Two TeraSort-shape `global_rank` passes, zero driver-side data:
    (1) rank over the lang-major key ``lang_idx·2⁶⁰ | h36·2²⁴ | id`` —
    per-language rank falls out by subtracting the language's
    prefix-count offset (a langs-sized broadcast from the same count
    table that assigns lang_idx); (2) rank over ``rank_in_lang·2⁴ |
    lang_idx`` for the contiguous interleave position. The lang-major
    key is composed in uint64 and sign-bit-flipped to an
    order-isomorphic int64 (4+36+24 bits fill all 64 — a signed
    ``li << 60`` would wrap for lang index ≥ 8, ADVICE r4). Loud
    guards: ids < 2²⁴ and ≤ 16 languages per composition
    (hierarchical per-shard interleave is the named alternative above
    those bounds).
    """
    import pyarrow.compute as pc

    from .reshape import global_rank

    md5 = hashlib.md5

    counts = _counts(ds, lang_col)
    langs = sorted(counts[lang_col].tolist())
    if len(langs) > 16:
        raise ValueError("balanced_interleave: >16 languages (lang "
                         "index needs >4 bits) — use a hierarchical "
                         "per-shard interleave")
    lang_idx = {lg: i for i, lg in enumerate(langs)}
    n_of = dict(zip(counts[lang_col], counts["n"]))
    offsets, acc = {}, 0
    for lg in langs:
        offsets[lg] = acc
        acc += int(n_of[lg])
    off_by_idx = np.array([offsets[lg] for lg in langs], dtype=np.int64)

    def key1(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy(zero_copy_only=False).astype(
            np.int64)
        if len(ids) and (ids.min() < 0 or ids.max() >= (1 << 24)):
            raise ValueError("balanced_interleave: id outside [0, 2^24) "
                             "— use a hierarchical per-shard interleave")
        li = np.fromiter((lang_idx[lg] for lg in
                          b.column(lang_col).to_pylist()),
                         dtype=np.int64, count=b.num_rows)
        h = np.fromiter(
            (int(md5(f"{seed}:{i}".encode()).hexdigest()[:9], 16)
             for i in ids.tolist()),
            dtype=np.int64, count=len(ids))
        # compose in uint64 (li=4 bits | h=36 | id=24 = 64 bits: li≥8
        # would wrap a signed shift — ADVICE r4), then flip the sign
        # bit: (u ^ 2⁶³) viewed as int64 is order-ISOMORPHIC to the
        # unsigned composite, so global_rank's int64 sort preserves
        # the (lang, h, id) order for all 16 language slots
        u = ((li.astype(np.uint64) << np.uint64(60))
             | (h.astype(np.uint64) << np.uint64(24))
             | ids.astype(np.uint64))
        k = (u ^ np.uint64(1 << 63)).view(np.int64)
        return pa.Table.from_pydict({
            id_col: pa.array(ids, type=pa.int64()),
            "__li": pa.array(li, type=pa.int64()),
            "__k1": pa.array(k, type=pa.int64()),
        })

    r1 = global_rank(ds.select_columns([id_col, lang_col])
                     .map_batches(key1, batch_format="pyarrow"),
                     "__k1")

    def key2(b: pa.Table) -> pa.Table:
        rn = b.column("rn").to_numpy(zero_copy_only=False).astype(
            np.int64)
        li = b.column("__li").to_numpy(zero_copy_only=False)
        ril = rn - off_by_idx[li]
        return pa.Table.from_pydict({
            id_col: b.column(id_col),
            "__li": b.column("__li"),
            "__k2": pa.array((ril << np.int64(4)) | li, type=pa.int64()),
        })

    r2 = global_rank(r1.map_batches(key2, batch_format="pyarrow"),
                     "__k2")

    lang_arr = pa.array(langs, type=pa.string())

    def out(b: pa.Table) -> pa.Table:
        li = b.column("__li").to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict({
            id_col: b.column(id_col),
            "lang": pc.take(lang_arr, pa.array(li, type=pa.int64())),
            "pos": b.column("rn"),
        })

    return r2.map_batches(out, batch_format="pyarrow")


def unimax_allocation(counts: dict, budget: int, max_epochs: int = 1
                      ) -> dict:
    """Exact integer UniMax water-fill (Chung et al., ICLR 2023 —
    public): distribute ``budget`` examples across keys as uniformly as
    possible while capping each key at ``max_epochs`` passes over its
    ``counts[key]`` examples.

    Water level: keys ascending by cap (ties by key); key i is CAPPED
    iff cap_i·(K−i+1) + s_{i−1} ≤ budget (a prefix property — the LHS is
    nondecreasing in i). Capped keys take their full cap; the remaining
    budget splits evenly among the m uncapped keys, integer leftover
    (rem % m) going one unit each to the lexicographically first
    uncapped keys. Every step is int arithmetic, so a SQL oracle can
    replay it with window cumsums. Returns {key: quota}; quotas sum to
    min(budget, Σcap).
    """
    items = sorted(((int(n) * max_epochs, k) for k, n in counts.items()))
    total = len(items)
    quota, s = {}, 0
    uncapped = []
    for i, (cap, k) in enumerate(items, start=1):
        if not uncapped and cap * (total - i + 1) + s <= budget:
            quota[k] = cap
            s += cap
        else:
            uncapped.append(k)
    if uncapped:
        rem = budget - s
        base, extra = divmod(rem, len(uncapped))
        for j, k in enumerate(sorted(uncapped)):
            quota[k] = base + (1 if j < extra else 0)
    return quota


def unimax_mix(ds, budget: int, max_epochs: int = 1,
               lang_col: str = "lang", id_col: str = "doc_id"):
    """UniMax corpus mixing: materialize the water-fill allocation as a
    deterministic subsample — each language keeps its ``min(quota, n)``
    LOWEST ids (quota > n only when ``max_epochs`` > 1; the repeat
    passes are the trainer's epoch loop, not extra rows here).

    Scale shape: the language-count aggregate is langs-sized; one
    ``topk.head_by`` keeps the largest quota's worth of lowest ids per
    language (so the exchange carries ≤ that many × blocks rows per
    language, never a language's whole row set), then one map keeps
    each language's own quota. A row with a null language is dropped
    before the counts, so it takes no share of the budget. Returns the
    selected (lang, doc_id) rows.
    """
    ds = ds.select_columns([lang_col, id_col]).map_batches(
        lambda b: b.filter(pc.is_valid(b.column(lang_col))),
        batch_format="pyarrow")
    c = _counts(ds, lang_col)
    counts = dict(zip(c[lang_col].tolist(), c["n"].tolist()))
    quota = unimax_allocation(counts, budget, max_epochs)

    def within_quota(b: pa.Table) -> pa.Table:
        caps = np.array([quota[lang]
                         for lang in b.column(lang_col).to_pylist()],
                        dtype=np.int64)
        keep = b.column("rank").to_numpy(zero_copy_only=False) <= caps
        return b.filter(pa.array(keep, type=pa.bool_())).select(
            [lang_col, id_col])

    return (head_by(ds, lang_col, [(id_col, "ascending")],
                    max(quota.values(), default=0))
            .map_batches(within_quota, batch_format="pyarrow"))
