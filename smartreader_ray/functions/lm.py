"""CCNet-style model-based quality scoring: n-gram LM perplexity.

CCNet (Wenzek et al., "CCNet: Extracting High Quality Monolingual
Datasets from Web Crawl Data") ranks web documents by the perplexity of
a language model trained on held-in high-quality text — low perplexity
≈ fluent, in-distribution prose; high ≈ boilerplate/gibberish. The
reference engine delegates NLP scoring to a pluggable model
(SmartReader.NaturalLanguageProcessing/NLP.cs); no model binaries exist
in this container, so the model here is a from-scratch token-bigram LM
with add-one smoothing — small enough to train distributed in one
groupby and broadcast whole, real enough to rank documents.

Ray shape (the two-phase broadcast pattern):

1. **Train** (`train_bigram_lm`): per-block Arrow ``group_by`` partial
   bigram counts over the held-in slice → one vocab²-bounded groupby →
   driver collects the (bounded, asserted) count table and derives
   prefix counts by summation.
2. **Score** (`lm_score`): shuffle-free ``map_batches`` tasks — the
   scorer instance carries the model (shipped once per stage) and
   scores transitions vectorized.

Oracle strategy (the repo's degeneration pattern): the float perplexity
is order-sensitive to sum per doc, so the HASH GATE compares the exact
integer sufficient statistics instead — per doc ``n_trans``,
``sum_bigram_c`` (Σ c₂(w_{i−1},w_i)), ``sum_prefix_c`` (Σ c₁(w_{i−1})),
``n_oov`` — all replayable in SQL from the same held-in slice. The
perplexity itself is a pure closed-form function of per-transition
counts (p = (c₂+1)/(c₁+V)) and is differential-tested against a scalar
reference; given equal integer counts, both engines evaluate the same
expression tree.

Tokenizer is single-space split of the trimmed text — exactly DuckDB's
``string_split(trim(text), ' ')``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .exchange import keyed_agg, keyed_agg_table


def _tokens(t: str | None) -> list[str]:
    return (t or "").strip().split(" ")


def train_bigram_lm(ds, text_col: str = "text",
                    max_vocab_entries: int = 5_000_000) -> dict:
    """Train the bigram LM over ``ds`` (the HELD-IN slice — pass a
    filtered Dataset; the caller owns what counts as held-in).

    Returns the model dict: ``{"c2": {(w1, w2): n}, "c1": {w1: n},
    "V": vocab_size}`` where ``c1`` counts transition PREFIXES (so
    ``c1[w] = Σ_w2 c2[w, w2]``, derived driver-side — no second
    exchange) and ``V`` = number of distinct prefix tokens + 1 (the
    add-one smoothing denominator's unseen-event slot).

    The collected count table is vocab²-bounded, NOT corpus-bounded;
    ``max_vocab_entries`` asserts that loudly. At 100 TB with an open
    vocabulary, shard the model by prefix hash instead (the
    ``state/dedup_index`` actor pattern) — this trainer names that path
    rather than silently collecting an unbounded table.
    """
    def bigrams(batch: pa.Table) -> pa.Table:
        w1s, w2s = [], []
        for t in batch.column(text_col).to_pylist():
            toks = _tokens(t)
            if len(toks) < 2:
                continue
            w1s.extend(toks[:-1])
            w2s.extend(toks[1:])
        return pa.table({"w1": pa.array(w1s, type=pa.string()),
                         "w2": pa.array(w2s, type=pa.string())})

    totals = keyed_agg(ds.select_columns([text_col])
                       .map_batches(bigrams, batch_format="pyarrow"),
                       ["w1", "w2"], {"n": ("count", None)})
    c2: dict = {}
    for b in totals.iter_batches(batch_format="pyarrow", batch_size=None):
        for w1, w2, n in zip(b.column("w1").to_pylist(),
                             b.column("w2").to_pylist(),
                             b.column("n").to_pylist()):
            c2[(w1, w2)] = int(n)
            if len(c2) > max_vocab_entries:
                raise ValueError(
                    f"bigram vocabulary exceeds {max_vocab_entries} "
                    "entries; shard the LM by prefix hash (actor pool) "
                    "instead of broadcasting it"
                )
    c1: dict = {}
    for (w1, _), n in c2.items():
        c1[w1] = c1.get(w1, 0) + n
    return {"c2": c2, "c1": c1, "V": len(c1) + 1}


class _LMScorer:
    """Task UDF that carries the model and scores each doc's
    transitions. Emits the exact integer sufficient statistics (the
    hash-gated columns) plus the float ``log2_ppl``
    (order-deterministic per doc: sequential sum in token order)."""

    def __init__(self, model: dict):
        self.c2 = model["c2"]
        self.c1 = model["c1"]
        self.V = model["V"]

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, n_tr, s_big, s_pfx, n_oov, ppl = [], [], [], [], [], []
        doc_ids = batch.column("doc_id").to_pylist()
        for doc_id, t in zip(doc_ids, batch.column("text").to_pylist()):
            toks = _tokens(t)
            if len(toks) < 2:
                continue  # no transitions — mirrors the SQL inner join
            cc2 = np.fromiter(
                (self.c2.get((a, b), 0)
                 for a, b in zip(toks[:-1], toks[1:])),
                dtype=np.int64, count=len(toks) - 1,
            )
            cc1 = np.fromiter(
                (self.c1.get(a, 0) for a in toks[:-1]),
                dtype=np.int64, count=len(toks) - 1,
            )
            ids.append(doc_id)
            n_tr.append(len(cc2))
            s_big.append(int(cc2.sum()))
            s_pfx.append(int(cc1.sum()))
            n_oov.append(int((cc2 == 0).sum()))
            # add-one smoothed per-transition probability; numpy's pairwise
            # sum over the fixed token order is deterministic per doc
            # (partitioning-invariant), though not bit-equal to a naive
            # left-to-right sum — hence ints in the hash gate, not this
            logp = np.log2((cc2 + 1).astype(np.float64)
                           / (cc1 + self.V).astype(np.float64))
            ppl.append(round(float(-logp.sum() / len(logp)), 6))
        id_type = batch.schema.field("doc_id").type
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids, type=id_type),
                "n_trans": pa.array(n_tr, type=pa.int64()),
                "sum_bigram_c": pa.array(s_big, type=pa.int64()),
                "sum_prefix_c": pa.array(s_pfx, type=pa.int64()),
                "n_oov": pa.array(n_oov, type=pa.int64()),
                "log2_ppl": pa.array(ppl, type=pa.float64()),
            }
        )


def lm_score(ds, model: dict, text_col: str = "text", batch_size: int = 64):
    """Score every doc in ``ds`` against a trained bigram LM (see
    module docstring). Returns (doc_id, n_trans, sum_bigram_c,
    sum_prefix_c, n_oov, log2_ppl); docs with < 2 tokens are omitted."""
    return ds.select_columns(["doc_id", text_col]).map_batches(
        _LMScorer(model), batch_format="pyarrow", batch_size=batch_size)


def train_bigram_lm_by(ds, key_col: str = "lang", text_col: str = "text",
                       max_vocab_entries: int = 5_000_000) -> dict:
    """Per-key (per-LANGUAGE — the actual CCNet shape: one KenLM per
    language) bigram LM training: one distributed count pass keyed by
    (key, w1, w2), then per-key models built driver-side behind the same
    vocab bound as :func:`train_bigram_lm`.

    Returns ``{key: model}`` where each model has the
    :func:`train_bigram_lm` shape. A key absent from ``ds`` simply has
    no entry; scorers must define the empty-model convention (see
    :func:`lm_score_by`: V=1, every transition OOV)."""
    def bigrams(batch: pa.Table) -> pa.Table:
        ks, w1s, w2s = [], [], []
        for k, t in zip(batch.column(key_col).to_pylist(),
                        batch.column(text_col).to_pylist()):
            toks = _tokens(t)
            if len(toks) < 2:
                continue
            ks.extend([k] * (len(toks) - 1))
            w1s.extend(toks[:-1])
            w2s.extend(toks[1:])
        return pa.table({"k": pa.array(ks, type=pa.string()),
                         "w1": pa.array(w1s, type=pa.string()),
                         "w2": pa.array(w2s, type=pa.string())})

    totals = keyed_agg(ds.select_columns([key_col, text_col])
                       .map_batches(bigrams, batch_format="pyarrow"),
                       ["k", "w1", "w2"], {"n": ("count", None)})
    c2_by: dict = {}
    n_entries = 0
    for b in totals.iter_batches(batch_format="pyarrow", batch_size=None):
        for k, w1, w2, n in zip(b.column("k").to_pylist(),
                                b.column("w1").to_pylist(),
                                b.column("w2").to_pylist(),
                                b.column("n").to_pylist()):
            c2_by.setdefault(k, {})[(w1, w2)] = int(n)
            n_entries += 1
            if n_entries > max_vocab_entries:
                raise ValueError(
                    f"per-key bigram vocabulary exceeds {max_vocab_entries} "
                    "entries; shard the LM by (key, prefix) hash instead"
                )
    models: dict = {}
    for k, c2 in c2_by.items():
        c1: dict = {}
        for (w1, _), n in c2.items():
            c1[w1] = c1.get(w1, 0) + n
        models[k] = {"c2": c2, "c1": c1, "V": len(c1) + 1}
    return models


class _LMScorerBy:
    """Per-key task scorer that carries the {key: model} map; a row
    whose key has no model scores against the empty model (V=1, every
    transition OOV) — the same convention the SQL oracle replays with
    COALESCEs."""

    def __init__(self, models: dict):
        self.models = models

    def __call__(self, batch: pa.Table) -> pa.Table:
        empty = {"c2": {}, "c1": {}, "V": 1}
        ids, ks, n_tr, s_big, s_pfx, n_oov, ppl = [], [], [], [], [], [], []
        for doc_id, k, t in zip(batch.column("doc_id").to_pylist(),
                                batch.column(batch.column_names[1]).to_pylist(),
                                batch.column("text").to_pylist()):
            toks = _tokens(t)
            if len(toks) < 2:
                continue
            m = self.models.get(k, empty)
            c2, c1, V = m["c2"], m["c1"], m["V"]
            cc2 = np.fromiter(
                (c2.get((a, b), 0) for a, b in zip(toks[:-1], toks[1:])),
                dtype=np.int64, count=len(toks) - 1,
            )
            cc1 = np.fromiter(
                (c1.get(a, 0) for a in toks[:-1]),
                dtype=np.int64, count=len(toks) - 1,
            )
            ids.append(doc_id)
            ks.append(k)
            n_tr.append(len(cc2))
            s_big.append(int(cc2.sum()))
            s_pfx.append(int(cc1.sum()))
            n_oov.append(int((cc2 == 0).sum()))
            logp = np.log2((cc2 + 1).astype(np.float64)
                           / (cc1 + V).astype(np.float64))
            ppl.append(round(float(-logp.sum() / len(logp)), 6))
        id_type = batch.schema.field("doc_id").type
        key_name = batch.column_names[1]
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids, type=id_type),
                key_name: pa.array(ks, type=pa.string()),
                "n_trans": pa.array(n_tr, type=pa.int64()),
                "sum_bigram_c": pa.array(s_big, type=pa.int64()),
                "sum_prefix_c": pa.array(s_pfx, type=pa.int64()),
                "n_oov": pa.array(n_oov, type=pa.int64()),
                "log2_ppl": pa.array(ppl, type=pa.float64()),
            }
        )


def lm_score_by(ds, models: dict, key_col: str = "lang",
                text_col: str = "text", batch_size: int = 64):
    """Score every doc against ITS key's model (see
    :func:`train_bigram_lm_by`). Output adds ``key_col``; docs with
    < 2 tokens are omitted."""
    return ds.select_columns(["doc_id", key_col, text_col]).map_batches(
        _LMScorerBy(models), batch_format="pyarrow", batch_size=batch_size)


def lm_perplexity_reference(held_texts: list[str], text: str) -> float | None:
    """Scalar reference implementation (tests only): train on
    ``held_texts``, return the add-one-smoothed bigram log2-perplexity
    of ``text`` — None if it has no transitions."""
    c2: dict = {}
    c1: dict = {}
    for h in held_texts:
        toks = _tokens(h)
        for a, b in zip(toks[:-1], toks[1:]):
            c2[(a, b)] = c2.get((a, b), 0) + 1
            c1[a] = c1.get(a, 0) + 1
    V = len(c1) + 1
    toks = _tokens(text)
    if len(toks) < 2:
        return None
    import math

    logs = [math.log2((c2.get((a, b), 0) + 1) / (c1.get(a, 0) + V))
            for a, b in zip(toks[:-1], toks[1:])]
    return round(-sum(logs) / len(logs), 6)


class _MbitsScorerBy:
    """Task UDF for :func:`ccnet_head_middle_tail`: built once on the
    driver from the ``{lang: model}`` map, it pre-stamps every known
    bigram's code length as an INT64 micro-nat weight
    ``floor(1e6 · ln((c1[w1]+V)/(c2[w1,w2]+1)))`` (libm ``math.log`` on
    an explicit float division, floor — the DSIR stamp discipline, so
    the SQL oracle replays it bit-for-bit with
    ``FLOOR(1000000.0*ln(CAST(cc1+V AS DOUBLE)/CAST(cc2+1 AS
    DOUBLE)))``). Per doc the score is an order-independent integer sum
    of stamps — the float math never touches corpus-sized data."""

    def __init__(self, models: dict):
        import math

        self.stamp: dict = {}   # lang -> {(w1,w2): micro-nats}
        self.pfx: dict = {}     # lang -> {w1: micro-nats of an OOV w2}
        self.oov: dict = {}     # lang -> micro-nats of an OOV w1
        for k, m in models.items():
            c2, c1, V = m["c2"], m["c1"], m["V"]
            self.stamp[k] = {
                bg: math.floor(1_000_000.0 * math.log(
                    float(c1[bg[0]] + V) / float(n + 1)))
                for bg, n in c2.items()}
            self.pfx[k] = {
                a: math.floor(1_000_000.0 * math.log(float(n + V) / 1.0))
                for a, n in c1.items()}
            self.oov[k] = math.floor(
                1_000_000.0 * math.log(float(V) / 1.0))

    def __call__(self, batch: pa.Table) -> pa.Table:
        key_name = batch.column_names[1]
        ids, ks, n_tr, mb = [], [], [], []
        for doc_id, k, t in zip(batch.column("doc_id").to_pylist(),
                                batch.column(key_name).to_pylist(),
                                batch.column("text").to_pylist()):
            toks = _tokens(t)
            if len(toks) < 2:
                continue  # no transitions — mirrors the SQL inner join
            st = self.stamp.get(k, {})
            pf = self.pfx.get(k, {})
            ov = self.oov.get(k, 0)
            s = 0
            for a, b in zip(toks[:-1], toks[1:]):
                w = st.get((a, b))
                if w is None:
                    w = pf.get(a, ov)
                s += w
            ids.append(doc_id)
            ks.append(k)
            n_tr.append(len(toks) - 1)
            mb.append(s)
        return pa.Table.from_pydict({
            "doc_id": pa.array(ids,
                               type=batch.schema.field("doc_id").type),
            key_name: pa.array(ks, type=pa.string()),
            "n_trans": pa.array(n_tr, type=pa.int64()),
            "mbits": pa.array(mb, type=pa.int64()),
        })


def ccnet_head_middle_tail(ds, held, key_col: str = "lang",
                           text_col: str = "text", id_col: str = "doc_id",
                           batch_size: int = 64):
    """CCNet's head/middle/tail quality split (Wenzek et al. 2020,
    public paper): train one bigram LM per language on the held-in
    slice, score every document's total smoothed code length, and
    bucket each language's documents into perplexity terciles — head =
    most in-distribution third, tail = least. The canonical CCNet
    curation step this engine's LM family builds toward.

    Exactness: per-transition code lengths are stamped int64 micro-nats
    (:class:`_MbitsScorerBy`), the per-doc score is their integer sum,
    the ranking key is the integer ``mbits·100 // n_trans`` (mean
    centi-micro-nats per transition, floored), and ties break on
    ``id_col`` — every step is SQL-replayable, so the whole output is
    hash-gated.

    Scale shape: one distributed count pass for the models
    (vocab²-bounded broadcast, see :func:`train_bigram_lm_by`), one
    scoring map as tasks, then the tercile rank rides ONE
    TeraSort-shape :func:`~smartreader_ray.functions.reshape.global_rank`
    over the lang-major composite ``li·2⁶⁰ | key·2²⁴ | id`` (the
    proven ``balanced_interleave`` layout; per-language rank falls out
    by subtracting the language's prefix-count offset, a langs-sized
    broadcast). Loud guards: ≤ 16 languages, ids < 2²⁴, key < 2³⁶.
    The scored table (4 thin columns) is materialized once because the
    offset count and the rank both consume it.
    """
    import ray.data  # noqa: F401

    from .reshape import global_rank

    models = train_bigram_lm_by(held, key_col=key_col, text_col=text_col)
    scored = ds.select_columns([id_col, key_col, text_col]).map_batches(
        _MbitsScorerBy(models), batch_format="pyarrow", batch_size=batch_size,
    ).materialize()  # thin (id, lang, n_trans, mbits); consumed twice

    counts = keyed_agg_table(scored.select_columns([key_col]), key_col,
                             {"n": ("count", None)}).to_pandas()
    langs = sorted(counts[key_col].tolist())
    if len(langs) > 16:
        raise ValueError("ccnet_head_middle_tail: >16 languages (lang "
                         "index needs >4 bits) — bucket per shard "
                         "hierarchically instead")
    lang_idx = {lg: i for i, lg in enumerate(langs)}
    n_of = dict(zip(counts[key_col], counts["n"]))
    offsets, acc = {}, 0
    for lg in langs:
        offsets[lg] = acc
        acc += int(n_of[lg])
    off_by_idx = np.array([offsets[lg] for lg in langs], dtype=np.int64)
    n_by_idx = np.array([int(n_of[lg]) for lg in langs], dtype=np.int64)

    def key1(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy(zero_copy_only=False).astype(
            np.int64)
        if len(ids) and (ids.min() < 0 or ids.max() >= (1 << 24)):
            raise ValueError("ccnet_head_middle_tail: id outside "
                             "[0, 2^24) — bucket per shard instead")
        mb = b.column("mbits").to_numpy(zero_copy_only=False)
        nt = b.column("n_trans").to_numpy(zero_copy_only=False)
        key = (mb * 100) // nt
        if len(key) and key.max() >= (1 << 36):
            raise ValueError("ccnet_head_middle_tail: rank key >= 2^36")
        li = np.fromiter((lang_idx[lg] for lg in
                          b.column(key_col).to_pylist()),
                         dtype=np.int64, count=b.num_rows)
        # uint64 composite + sign-bit flip → order-isomorphic int64
        # (the balanced_interleave layout: 4 | 36 | 24 bits)
        u = ((li.astype(np.uint64) << np.uint64(60))
             | (key.astype(np.uint64) << np.uint64(24))
             | ids.astype(np.uint64))
        k = (u ^ np.uint64(1 << 63)).view(np.int64)
        return pa.Table.from_pydict({
            id_col: pa.array(ids, type=pa.int64()),
            "__li": pa.array(li, type=pa.int64()),
            "n_trans": b.column("n_trans"),
            "mbits": b.column("mbits"),
            "__k1": pa.array(k, type=pa.int64()),
        })

    r1 = global_rank(scored.map_batches(key1, batch_format="pyarrow"),
                     "__k1")

    lang_arr = pa.array(langs, type=pa.string())
    bucket_arr = pa.array(["head", "middle", "tail"], type=pa.string())

    def out(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        li = b.column("__li").to_numpy(zero_copy_only=False)
        rn = b.column("rn").to_numpy(zero_copy_only=False)
        ril = rn - off_by_idx[li]          # 1-based rank within lang
        tercile = (3 * (ril - 1)) // n_by_idx[li]
        return pa.Table.from_pydict({
            id_col: b.column(id_col),
            key_col: pc.take(lang_arr, pa.array(li, type=pa.int64())),
            "n_trans": b.column("n_trans"),
            "mbits": b.column("mbits"),
            "bucket": pc.take(bucket_arr,
                              pa.array(tercile, type=pa.int64())),
        })

    return r1.map_batches(out, batch_format="pyarrow")


def source_crossent(ds, key_col: str = "source", text_col: str = "text"):
    """Cross-source LM divergence matrix: for every (data source d,
    model source m) pair, the total stamped code length of d's
    transitions under m's add-one bigram model — the "which sources are
    distributionally similar / which mixture components are redundant"
    audit (rows with small off-diagonal mbits/n_trans are
    near-duplicates in distribution; the diagonal is training code
    length). Complements ``source_cosine`` (surface lexical overlap)
    with sequential structure.

    ONE distributed count pass (the same (key, w1, w2) exchange as
    :func:`train_bigram_lm_by`); everything after is driver-side math
    on the vocab²-bounded count dicts — the per-pair sum
    ``Σ_bg cnt_d(bg) · stamp_m(bg)`` never touches corpus-sized data.
    Stamps are the DSIR/:class:`_MbitsScorerBy` int64 micro-nats
    (libm ``math.log`` on an explicit float division, floor), so every
    cell is an exact integer the SQL oracle replays. Output: one row
    per (data_source, model_source) with ``n_trans`` (d's transition
    count) and ``mbits``.
    """
    import math

    models = train_bigram_lm_by(ds, key_col=key_col, text_col=text_col)
    srcs = sorted(models)
    stamp: dict = {}
    pfx: dict = {}
    oov: dict = {}
    for k in srcs:
        m = models[k]
        c2, c1, V = m["c2"], m["c1"], m["V"]
        stamp[k] = {bg: math.floor(1_000_000.0 * math.log(
            float(c1[bg[0]] + V) / float(n + 1))) for bg, n in c2.items()}
        pfx[k] = {a: math.floor(1_000_000.0 * math.log(
            float(n + V) / 1.0)) for a, n in c1.items()}
        oov[k] = math.floor(1_000_000.0 * math.log(float(V) / 1.0))

    d_col, m_col, nt_col, mb_col = [], [], [], []
    for d in srcs:
        c2d = models[d]["c2"]
        n_tr = sum(c2d.values())
        for m in srcs:
            st, pf, ov = stamp[m], pfx[m], oov[m]
            s = 0
            for bg, cnt in c2d.items():
                w = st.get(bg)
                if w is None:
                    w = pf.get(bg[0], ov)
                s += cnt * w
            d_col.append(d)
            m_col.append(m)
            nt_col.append(n_tr)
            mb_col.append(s)
    return pa.Table.from_pydict({
        "data_source": pa.array(d_col, type=pa.string()),
        "model_source": pa.array(m_col, type=pa.string()),
        "n_trans": pa.array(nt_col, type=pa.int64()),
        "mbits": pa.array(mb_col, type=pa.int64()),
    })
