"""Corpus n-gram statistics and TF-IDF — the word-count family at scale.

Counting terms over 100 TB is the canonical shuffle-reduction problem:
the naive plan (flat_map every token → groupby) ships one row per token
occurrence (~10^14 rows) through an all-to-all. Every operator here
pre-aggregates inside ``map_batches`` so the exchange carries one row
per *distinct* key per block — vocabulary-sized, not corpus-sized.

Tokenization matches the DuckDB oracles exactly: single-space split of
the trimmed text (``string_split(trim(text), ' ')``), the convention
fixed by round-2 ADVICE for the passage-dedup family.

TF-IDF is the two-pass broadcast pattern: pass 1 reduces the corpus to
a vocabulary-sized document-frequency table; the derived IDF map is
``ray.put`` once and read inside every pass-2 task, which re-tokenizes,
scores, and takes each doc's top-k terms *within the batch* — a doc's
terms never leave the block that produced them, so pass 2 is entirely
shuffle-free.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import fits, keyed_agg, keyed_agg_table, map_groups
from .topk import head_by, top_k


def _tokens_flat(batch: pa.Table, text_col: str):
    """(flat token array, per-row doc index, per-row token counts).

    Single-space split via the Arrow kernel; empty tokens (from runs of
    spaces / empty docs) are KEPT to match ``string_split`` semantics,
    then filtered by callers that need non-empty terms.
    """
    text = pc.cast(batch.column(text_col), pa.string())
    filled = pc.coalesce(text, pa.scalar("", type=pa.string()))
    toks = pc.split_pattern(pc.utf8_trim_whitespace(filled), " ").combine_chunks()
    lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    flat = toks.flatten()
    row_idx = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    return flat, row_idx, lens


def _terms(batch: pa.Table, text_col: str) -> pa.Table:
    """One ``term`` row per non-empty token."""
    flat, _, _ = _tokens_flat(batch, text_col)
    return pa.table({"term": flat.filter(pc.greater(pc.utf8_length(flat),
                                                    0))})


def _source_term_counts(ds, text_col: str, source_col: str,
                        nonempty: bool = False):
    """``keyed_agg`` count ``c`` per ``(source, term)`` over every token
    of every doc with a source (empty tokens only when not
    ``nonempty``)."""

    def source_terms(b: pa.Table) -> pa.Table:
        flat, row_idx, _ = _tokens_flat(b, text_col)
        t = pa.table({"source": pc.take(b.column(source_col),
                                        pa.array(row_idx)).cast(pa.string()),
                      "term": flat})
        keep = pc.is_valid(t.column("source"))
        if nonempty:
            keep = pc.and_(keep, pc.greater(pc.utf8_length(flat), 0))
        return t.filter(keep)

    return keyed_agg(ds.select_columns([source_col, text_col])
                     .map_batches(source_terms, batch_format="pyarrow"),
                     ["source", "term"], {"c": ("count", None)})


def _partial_term_counts(batch: pa.Table, text_col: str) -> pa.Table:
    """Per-block (term, df, cf) partial: df counts distinct docs
    containing the term, cf counts total occurrences. One pandas
    C-level groupby per block; no per-token Python."""
    flat, row_idx, _ = _tokens_flat(batch, text_col)
    terms = flat.to_pandas()
    mask = terms.str.len() > 0
    df = pd.DataFrame({"term": terms[mask], "row": row_idx[mask.to_numpy()]})
    g = df.groupby("term", sort=False)
    cf = g.size()
    dfreq = g["row"].nunique()
    return pa.table(
        {
            "term": pa.array(cf.index, type=pa.string()),
            "df": pa.array(dfreq.to_numpy(), type=pa.int64()),
            "cf": pa.array(cf.to_numpy(), type=pa.int64()),
        }
    )


def term_doc_freq(ds, text_col: str = "text", top_n: int = 100):
    """Top ``top_n`` vocabulary terms by document frequency.

    map_batches partial (vocab-sized per block) → groupby Sum (the only
    exchange, ≤ |vocab| × blocks rows) → distributed top-n with
    deterministic (df desc, term asc) tie order.
    """
    partial = ds.select_columns([text_col]).map_batches(
        lambda b: _partial_term_counts(b, text_col), batch_format="pyarrow"
    )
    totals = keyed_agg(partial, "term",
                       {"df": ("sum", "df"), "cf": ("sum", "cf")})

    def local(b: pa.Table) -> pa.Table:
        if b.num_rows > top_n:
            idx = pc.select_k_unstable(
                b, k=top_n,
                sort_keys=[("df", "descending"), ("term", "ascending")],
            )
            b = b.take(idx)
        return b

    return (
        totals.map_batches(local, batch_format="pyarrow")
        .sort(["df", "term"], descending=[True, False])
        .limit(top_n)
    )


def chi2_terms(ds, text_col: str = "text", label_col: str = "lang",
               top_k: int = 15):
    """Discriminative-term mining: per-label χ² feature selection (the
    Yang & Pedersen 1997 text-categorization statistic — public), the
    step that builds domain/quality classifier vocabularies from a
    labeled corpus. For each (label, term) contingency table —
    a = label docs containing the term, b = label docs without it,
    c = other docs with it, d = the rest —

        χ² = N·(ad − bc)² / ((a+b)(c+d)(a+c)(b+d))

    computed in float64 with a FIXED operation order the SQL oracle
    replays bit-for-bit (all inputs are exact int64 doc counts; terms
    present in every doc, or labels covering the whole corpus, carry no
    signal and get χ² = 0 rather than 0/0).

    Scale shape: one (label, term) distinct-doc-count exchange (block
    partials pre-combined with a pandas C groupby, so ≤ |vocab|×|labels|
    rows per block cross, never tokens); label totals are a tiny
    driver-side table broadcast into the per-term ``map_groups`` that
    derives per-term totals WITHIN the group (all labels of a term
    co-locate), so no second join; a final per-label ``topk.head_by``
    over the vocab-sized score table. Output: ``top_k`` rows per label —
    (label, term, df_in, df_out, chi2) — ordered (label, χ² desc, term).
    """
    import ray

    def partial(batch: pa.Table) -> pa.Table:
        flat, row_idx, _ = _tokens_flat(batch, text_col)
        labels = batch.column(label_col).to_pandas()
        terms = flat.to_pandas()
        mask = (terms.str.len() > 0).to_numpy()
        d = pd.DataFrame({
            "term": terms[mask],
            "label": labels.iloc[row_idx[mask]].to_numpy(),
            "row": row_idx[mask],
        })
        g = d.groupby(["label", "term"], sort=False)["row"].nunique()
        idx = g.index.to_frame(index=False)
        return pa.table({
            "label": pa.array(idx["label"], type=pa.string()),
            "term": pa.array(idx["term"], type=pa.string()),
            "a": pa.array(g.to_numpy(), type=pa.int64()),
        })

    lt = keyed_agg(ds.select_columns([text_col, label_col])
                   .map_batches(partial, batch_format="pyarrow"),
                   ["label", "term"], {"a": ("sum", "a")})

    n_lab = keyed_agg_table(ds.select_columns([label_col]), label_col,
                            {"n": ("count", None)})
    n_of = dict(zip(n_lab.column(label_col).to_pylist(),
                    n_lab.column("n").to_pylist()))
    n_total = sum(n_of.values())
    n_ref = ray.put(n_of)

    def score_term(group: pa.Table) -> pa.Table:
        n_label_map = ray.get(n_ref)
        labels = group.column("label").to_pylist()
        a = group.column("a").to_numpy(zero_copy_only=False)
        t = int(a.sum())  # per-term doc frequency: all labels co-locate
        n_label = np.fromiter((n_label_map[lb] for lb in labels),
                              dtype=np.int64, count=len(labels))
        b = n_label - a
        c = t - a
        d = n_total - n_label - c
        af, bf, cf, df_ = (x.astype(np.float64) for x in (a, b, c, d))
        nf = np.float64(n_total)
        ad_bc = af * df_ - bf * cf
        num = nf * (ad_bc * ad_bc)
        den = ((af + bf) * (cf + df_)) * ((af + cf) * (bf + df_))
        degenerate = (t == n_total) | (n_label == n_total)
        chi2 = np.where(degenerate, 0.0, num / np.where(degenerate, 1.0, den))
        return pa.table({
            "label": group.column("label"),
            "term": group.column("term"),
            "df_in": pa.array(a, type=pa.int64()),
            "df_out": pa.array(c, type=pa.int64()),
            "chi2": pa.array(chi2, type=pa.float64()),
        })

    scored = map_groups(lt, "term", score_term)
    return (head_by(scored, "label", [("chi2", "descending"),
                                      ("term", "ascending")], top_k)
            .drop_columns(["rank"])
            .sort(["label", "chi2", "term"],
                  descending=[False, True, False]))


def _bigrams(batch: pa.Table, text_col: str) -> pa.Table:
    """One ``bigram`` row per adjacent token pair, vectorized: flatten
    all tokens, pair each with its successor, mask pairs that cross
    document boundaries or hold an empty token."""
    flat, row_idx, _ = _tokens_flat(batch, text_col)
    n = len(flat)
    if n < 2:
        return pa.table({"bigram": pa.array([], type=pa.string())})
    left, right = flat.slice(0, n - 1), flat.slice(1, n - 1)
    keep = pc.and_(
        pa.array(row_idx[:-1] == row_idx[1:]),
        pc.and_(pc.greater(pc.utf8_length(left), 0),
                pc.greater(pc.utf8_length(right), 0)))
    return pa.table({"bigram": pc.binary_join_element_wise(
        left.filter(keep), right.filter(keep), " ")})


def bigram_counts(ds, text_col: str = "text", top_n: int = 100):
    """Top ``top_n`` corpus bigrams (adjacent token pairs within a doc)
    by count, ties broken by bigram text ascending. One vocabulary-sized
    ``keyed_agg`` count, as in :func:`term_doc_freq`."""
    partial = ds.select_columns([text_col]).map_batches(
        lambda b: _bigrams(b, text_col), batch_format="pyarrow"
    )
    totals = keyed_agg(partial, "bigram", {"cnt": ("count", None)})

    def local(b: pa.Table) -> pa.Table:
        if b.num_rows > top_n:
            idx = pc.select_k_unstable(
                b, k=top_n,
                sort_keys=[("cnt", "descending"), ("bigram", "ascending")],
            )
            b = b.take(idx)
        return b

    return (
        totals.map_batches(local, batch_format="pyarrow")
        .sort(["cnt", "bigram"], descending=[True, False])
        .limit(top_n)
    )


def _doc_term_tf(batch: pa.Table, doc_col: str, text_col: str) -> pd.DataFrame:
    """(doc_id, term, tf) for every doc in the batch — each doc is one
    row, so a doc's terms are always complete within its batch."""
    flat, row_idx, _ = _tokens_flat(batch, text_col)
    terms = flat.to_pandas()
    mask = (terms.str.len() > 0).to_numpy()
    doc_ids = batch.column(doc_col).to_numpy(zero_copy_only=False)
    df = pd.DataFrame(
        {"doc_id": doc_ids[row_idx[mask]], "term": terms[mask].to_numpy()}
    )
    tf = df.groupby(["doc_id", "term"], sort=False).size().reset_index(name="tf")
    return tf


def tfidf_top_terms(ds, doc_col: str = "doc_id", text_col: str = "text",
                    k: int = 3, round_to: int = 6):
    """Top ``k`` terms per document by TF-IDF (idf = ln(N/df), raw tf).

    Pass 1 always reduces the corpus to a vocabulary-sized (term, df)
    table. Pass 2 picks one of two scale regimes by ``exchange.fits``
    on that table:

    - ``broadcast`` (the table fits): the IDF map is
      ``ray.put`` once and pass 2 is a single shuffle-free
      ``map_batches`` — re-tokenize, score, keep each doc's top-k
      inside its own block.
    - ``join`` (an unbounded vocabulary — URLs, hashes, typos): the
      (doc, term, tf) table hash-joins the DF table on ``term`` (only
      (doc_id, term, tf) triples cross the exchange, never text), then
      a ``topk.head_by`` keeps each doc's top-k. Two shuffles
      instead of zero — the price of not holding the vocabulary
      anywhere.

    Both regimes produce identical rows (equivalence pinned in tests;
    a ``target_max_block_size`` below the table's bytes forces the join
    regime).

    Ordering inside a doc is (rounded score desc, term asc) — rounding
    BEFORE ranking so the engine and the SQL oracle break near-ties
    identically.
    """
    import ray

    n_docs = ds.count()
    partial = ds.select_columns([text_col]).map_batches(
        lambda b: _partial_term_counts(b, text_col), batch_format="pyarrow"
    )
    df_tbl, small = fits(keyed_agg(partial, "term", {"df": ("sum", "df")}))
    if not small:
        return _tfidf_join_path(ds, df_tbl, n_docs, doc_col, text_col, k,
                                round_to)
    df_pd = df_tbl.to_pandas()
    df_map_ref = ray.put(
        dict(zip(df_pd["term"].to_numpy(), df_pd["df"].to_numpy()))
    )

    def score(batch: pa.Table) -> pa.Table:
        df_map = ray.get(df_map_ref)
        tf = _doc_term_tf(batch, doc_col, text_col)
        dfv = tf["term"].map(df_map).to_numpy(dtype=np.float64)
        raw = tf["tf"].to_numpy(dtype=np.float64) * np.log(n_docs / dfv)
        tf["df"] = tf["term"].map(df_map).astype(np.int64)
        tf["score"] = np.round(raw, round_to)
        tf = tf.sort_values(
            ["doc_id", "score", "term"], ascending=[True, False, True],
            kind="mergesort",
        )
        top = tf.groupby("doc_id", sort=False).head(k)
        return pa.table(
            {
                "doc_id": pa.array(top["doc_id"].to_numpy()),
                "term": pa.array(top["term"].to_numpy(), type=pa.string()),
                "tf": pa.array(top["tf"].to_numpy(), type=pa.int64()),
                "df": pa.array(top["df"].to_numpy(), type=pa.int64()),
                "score": pa.array(top["score"].to_numpy(), type=pa.float64()),
            }
        )

    return ds.select_columns([doc_col, text_col]).map_batches(
        score, batch_format="pyarrow"
    )


def _tfidf_join_path(ds, df_tbl, n_docs: int, doc_col: str, text_col: str,
                     k: int, round_to: int):
    """Unbounded-vocabulary TF-IDF: hash-join (doc, term, tf) against
    (term, df) on the term, score per row, then one ``topk.head_by``
    keeps each document's top ``k``."""
    from .join import hash_join

    def to_triples(batch: pa.Table) -> pa.Table:
        tf = _doc_term_tf(batch, doc_col, text_col)
        return pa.table(
            {
                doc_col: pa.array(tf["doc_id"].to_numpy()),
                "term": pa.array(tf["term"].to_numpy(), type=pa.string()),
                "tf": pa.array(tf["tf"].to_numpy(), type=pa.int64()),
            }
        )

    triples = ds.select_columns([doc_col, text_col]).map_batches(
        to_triples, batch_format="pyarrow"
    )
    joined = hash_join(
        triples, df_tbl, left_key="term", right_key="term",
        left_cols=[doc_col, "term", "tf"], right_cols=["df"], how="inner",
    )

    def score(batch: pa.Table) -> pa.Table:
        tf = batch.column("tf").to_numpy(zero_copy_only=False).astype(np.float64)
        dfv = batch.column("df").to_numpy(zero_copy_only=False).astype(np.float64)
        return batch.append_column(
            "score",
            pa.array(np.round(tf * np.log(n_docs / dfv), round_to),
                     type=pa.float64()),
        )

    return head_by(joined.map_batches(score, batch_format="pyarrow"),
                   doc_col, [("score", "descending"), ("term", "ascending")],
                   k).select_columns([doc_col, "term", "tf", "df", "score"])


def _cooc_pairs(batch: pa.Table, text_col: str, window: int) -> pa.Table:
    """One canonical ``(a, b)`` row per token pair within ``window``
    positions in the same doc. Empty tokens are KEPT — `string_split`
    semantics, like the oracle."""
    flat, row_idx, _ = _tokens_flat(batch, text_col)
    toks = flat.to_numpy(zero_copy_only=False)
    xs, ys = [np.empty(0, dtype=object)], [np.empty(0, dtype=object)]
    for d in range(1, min(window, len(toks) - 1) + 1):
        same = row_idx[:-d] == row_idx[d:]
        x, y = toks[:-d][same], toks[d:][same]
        swap = x > y  # canonical order: lexicographic (binary, ASCII)
        xs.append(np.where(swap, y, x))
        ys.append(np.where(swap, x, y))
    return pa.table({"a": pa.array(np.concatenate(xs), type=pa.string()),
                     "b": pa.array(np.concatenate(ys), type=pa.string())})


def cooccurrence_window(ds, text_col: str = "text", window: int = 3,
                        top_k_pairs: int = 50):
    """Windowed token co-occurrence — the word2vec/PMI preprocessing
    pass: count every unordered token pair within ``window`` positions
    of the same document, return the global top ``top_k_pairs`` with
    both marginal token counts attached (the exact integer sufficient
    statistics PMI/NPMI derive from — kept integral so the result is
    hash-reproducible; the float PMI is one deterministic log away).

    Shape at scale: the pair exchange carries one row per DISTINCT pair
    per block (``keyed_agg``'s per-block pre-combine), never per
    occurrence; the
    marginal table is vocabulary-sized and rides the TF-IDF broadcast
    pattern (``ray.put`` once, attached to the 50-row top-k map-side —
    no join shuffle for a lookup two orders smaller than a block).
    Ties at the cut rank break deterministically by (a, b).
    """
    import ray

    pairs = keyed_agg(
        ds.map_batches(lambda b: _cooc_pairs(b, text_col, window),
                       batch_format="pyarrow"),
        ["a", "b"], {"pair_count": ("count", None)})
    top = pairs.sort(
        ["pair_count", "a", "b"], descending=[True, False, False]
    ).limit(top_k_pairs)

    marg = keyed_agg_table(ds.map_batches(
        lambda b: pa.table({"tok": _tokens_flat(b, text_col)[0]}),
        batch_format="pyarrow"), "tok", {"c": ("count", None)})
    marg_ref = ray.put(dict(zip(marg.column("tok").to_pylist(),
                                marg.column("c").to_pylist())))

    def attach(b: pa.Table, _ref=marg_ref) -> pa.Table:
        m = ray.get(_ref)
        a = b.column("a").to_pylist()
        bb = b.column("b").to_pylist()
        return pa.table(
            {
                "a": b.column("a"),
                "b": b.column("b"),
                "pair_count": pc.cast(b.column("pair_count"), pa.int64()),
                "count_a": pa.array([m[t] for t in a], type=pa.int64()),
                "count_b": pa.array([m[t] for t in bb], type=pa.int64()),
            }
        )

    return top.map_batches(attach, batch_format="pyarrow")


def phrase_count(ds, w1: str, w2: str, text_col: str = "text",
                 group_col: str = "source"):
    """Positional phrase query: per ``group_col``, how many documents
    contain the exact two-token phrase ``w1 w2`` and how many total
    (possibly overlapping) occurrences — the inverted-index adjacency
    join (pos₂ = pos₁ + 1) that substring LIKE cannot express once
    occurrences may overlap.

    Ray shape: entirely shuffle-free scan — each batch tokenizes with
    the corpus convention (single-space split), finds adjacent
    (w1, w2) positions vectorized (one Arrow equality per word + one
    numpy AND over the flat token stream, row-boundary masked), and
    pre-aggregates per group; only (group, n_docs, n_occ) partials
    reach the final vocabulary-sized groupby.
    """
    def partial(b: pa.Table) -> pa.Table:
        flat, row_idx, lens = _tokens_flat(b, text_col)
        if len(flat) == 0:
            return pa.table({
                group_col: pa.array([], type=pa.string()),
                "occ": pa.array([], type=pa.int64()),
                "hit": pa.array([], type=pa.int64()),
            })
        is1 = pc.equal(flat, w1).to_numpy(zero_copy_only=False)
        is2 = pc.equal(flat, w2).to_numpy(zero_copy_only=False)
        adj = is1[:-1] & is2[1:] & (row_idx[:-1] == row_idx[1:])
        occ = np.zeros(len(lens), dtype=np.int64)
        np.add.at(occ, row_idx[:-1][adj], 1)
        return pa.table({
            group_col: b.column(group_col),
            "occ": pa.array(occ),
            "hit": pa.array((occ > 0).astype(np.int64)),
        })

    return keyed_agg(ds.map_batches(partial, batch_format="pyarrow"),
                     group_col, {"n_docs": ("sum", "hit"),
                                 "n_occ": ("sum", "occ")}).sort(group_col)


def posting_lists(ds, doc_col: str = "doc_id", text_col: str = "text",
                  cap: int = 10):
    """Inverted-index construction: per term, the distinct-document
    frequency and the first ``cap`` doc ids (ascending, comma-joined) —
    the search-engine posting-list build, capped so the output stays
    browsable (a full index build would write the list column to
    partitioned parquet instead of capping).

    Partitioning assumption (stated because correctness rides on it):
    ``doc_col`` identifies a ROW — each document lives in exactly one
    block — so within-block (term, doc) dedup is globally exact and no
    (term × doc)-sized exchange is needed for the df count. Per block:
    one vectorized tokenize + pandas dedup emits (term, df_partial,
    first-cap ids); one ``groupby(term)`` merges partials (vocab ×
    blocks rows on the wire, each carrying ≤ cap ids).
    """
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        flat, row_idx, _ = _tokens_flat(batch, text_col)
        docs = batch.column(doc_col).to_numpy(zero_copy_only=False)
        df = pd.DataFrame({
            "term": flat.to_pandas(),
            "doc": docs[row_idx],
        })
        df = df[df["term"].str.len() > 0].drop_duplicates()
        df = df.sort_values(["term", "doc"], kind="stable")
        g = df.groupby("term", sort=False)["doc"]
        agg = g.agg(df_part="size", ids=lambda s: s.head(cap).tolist())
        return pa.table({
            "term": pa.array(agg.index, type=pa.string()),
            "df_part": pa.array(agg["df_part"].to_numpy(),
                                type=pa.int64()),
            "ids": pa.array(agg["ids"].tolist(),
                            type=pa.list_(pa.int64())),
        })

    def merge(group: pa.Table) -> pa.Table:
        n_docs = int(pc.sum(group.column("df_part")).as_py())
        ids = sorted(
            x for lst in group.column("ids").to_pylist() for x in lst
        )[:cap]
        return pa.table({
            "term": group.column("term").slice(0, 1),
            "n_docs": pa.array([n_docs], type=pa.int64()),
            "postings": pa.array(
                [",".join(str(i) for i in ids)], type=pa.string()),
        })

    return (
        map_groups(ds.select_columns([doc_col, text_col])
                   .map_batches(partial, batch_format="pyarrow"),
                   "term", merge)
        .sort("term")
    )


def pmi_scores(ds, text_col: str = "text", window: int = 3,
               top_k_pairs: int = 50):
    """Pointwise mutual information for the top windowed co-occurrence
    pairs: PMI = ln(P(a,b) / (P(a)·P(b))) with P(a,b) = c_ab/N_p and
    P(t) = c_t/N_t, evaluated as ONE double expression
    ``ln(c_ab·N_t·N_t / (N_p·c_a·c_b))`` in the identical left-assoc
    IEEE order both engines use — DuckDB's ``ln`` is libm's, so
    ``math.log`` (NOT numpy's SIMD log, which differs in the last bit
    on some inputs) keeps the float hash-exact.

    All sufficient statistics are exact integers from
    `cooccurrence_window`; the totals N_t (tokens) and N_p (windowed
    pair slots, Σ_docs Σ_{w≤window} max(m−w, 0)) are one scan-side
    aggregate each. PMI is stamped on the 50-row top-k only — the
    float math never touches corpus-sized data.
    """
    import math

    from ray.data.aggregate import Sum

    top = cooccurrence_window(ds, text_col=text_col, window=window,
                              top_k_pairs=top_k_pairs)

    def totals_partial(b: pa.Table) -> pa.Table:
        n = pc.list_value_length(
            pc.split_pattern(pc.utf8_trim_whitespace(b.column(text_col)),
                             " ")).to_numpy(zero_copy_only=False)
        n = n.astype(np.int64)
        n_pairs = np.zeros_like(n)
        for w in range(1, window + 1):
            n_pairs += np.maximum(n - w, 0)
        return pa.table({
            "nt": pa.array([int(n.sum())], type=pa.int64()),
            "np": pa.array([int(n_pairs.sum())], type=pa.int64()),
        })

    tot = (ds.map_batches(totals_partial, batch_format="pyarrow")
           .aggregate(Sum("nt", alias_name="nt"),
                      Sum("np", alias_name="np")))
    nt, npair = float(tot["nt"]), float(tot["np"])

    def stamp(b: pa.Table) -> pa.Table:
        pmi = [
            math.log(float(cab) * nt * nt
                     / (npair * float(ca) * float(cb)))
            for cab, ca, cb in zip(b.column("pair_count").to_pylist(),
                                   b.column("count_a").to_pylist(),
                                   b.column("count_b").to_pylist())
        ]
        return b.append_column("pmi", pa.array(pmi, type=pa.float64()))

    return top.map_batches(stamp, batch_format="pyarrow")


def boolean_search(ds, must, must_not=(), doc_col: str = "doc_id",
                   text_col: str = "text"):
    """Boolean retrieval (term_1 AND ... AND term_k AND NOT x_1 ...)
    over whitespace-token membership — the query side of the
    `posting_lists` index, evaluated index-free as a shuffle-free
    scan: a document is one row, so every predicate resolves inside
    its own block and NOTHING crosses an exchange but matching doc
    ids. Per block: one Arrow tokenize, one vectorized equality mask
    per query term (k+m kernel passes, no Python over tokens).

    Returns matching ``doc_col`` rows sorted ascending.
    """
    must = list(must)
    must_not = list(must_not)
    if not must:
        raise ValueError("boolean_search: need at least one must-term")

    def filt(b: pa.Table) -> pa.Table:
        flat, row_idx, _ = _tokens_flat(b, text_col)
        n = b.num_rows

        def rows_with(term: str) -> np.ndarray:
            mask = pc.equal(flat, term).to_numpy(zero_copy_only=False)
            out = np.zeros(n, dtype=bool)
            out[row_idx[mask]] = True
            return out

        keep = np.ones(n, dtype=bool)
        for t in must:
            keep &= rows_with(t)
        for t in must_not:
            keep &= ~rows_with(t)
        return b.filter(pa.array(keep)).select([doc_col])

    return (ds.select_columns([doc_col, text_col])
            .map_batches(filt, batch_format="pyarrow")
            .sort(doc_col))


def bm25_search(ds, terms, k: int = 20, doc_col: str = "doc_id",
                text_col: str = "text", k1: float = 1.2, b: float = 0.75):
    """BM25 ranked retrieval (Robertson–Spärck Jones, the standard IR
    scoring function) for a small fixed term list — the ranked
    companion of :func:`boolean_search`, engine-reproducible to the
    last float bit:

    - integer sufficient statistics only cross the corpus: per-doc
      term frequencies + doc length (one vectorized tokenize +
      equality kernel per term, block-local), corpus totals (N, Σlen)
      and per-term document frequencies from ONE aggregate pass;
    - idf_t = ln(1 + (N − df + 0.5)/(df + 0.5)) via libm ``math.log``
      (the pmi_pairs contract) on the driver, term-count-sized;
    - score = Σ_terms idf_t · (tf·(k1+1)) / (tf + k1·(1−b + b·(len/avg)))
      with the term sum written as an EXPLICIT left-assoc chain (never
      a SUM aggregate — float reduction order must be fixed), every
      elementwise op correctly rounded identically by numpy and SQL;
    - docs matching no term never leave their block; partial top-k
      reduce, final sort over ≤ k·blocks rows by (score DESC, id).
    """
    import math

    from ray.data.aggregate import Sum

    terms = list(terms)
    if not terms or len(terms) > 8:
        raise ValueError("bm25_search: 1..8 query terms")

    def stats(batch: pa.Table) -> pa.Table:
        flat, row_idx, lens = _tokens_flat(batch, text_col)
        n = batch.num_rows
        cols = {
            doc_col: batch.column(doc_col),
            "len": pa.array(lens.astype(np.int64)),
        }
        for j, t in enumerate(terms):
            eq = pc.equal(flat, t).to_numpy(zero_copy_only=False)
            cols[f"tf{j}"] = pa.array(
                np.bincount(row_idx[eq], minlength=n).astype(np.int64))
        return pa.Table.from_pydict(cols)

    per_doc = ds.select_columns([doc_col, text_col]).map_batches(
        stats, batch_format="pyarrow").materialize()  # consumed twice

    def df_partial(b: pa.Table) -> pa.Table:
        cols = {"n_docs": pa.array([b.num_rows], type=pa.int64()),
                "sum_len": pa.array(
                    [int(b.column("len").to_numpy(
                        zero_copy_only=False).sum())], type=pa.int64())}
        for j in range(len(terms)):
            tf = b.column(f"tf{j}").to_numpy(zero_copy_only=False)
            cols[f"df{j}"] = pa.array([int((tf > 0).sum())],
                                      type=pa.int64())
        return pa.Table.from_pydict(cols)

    tot_aggs = [Sum("n_docs", alias_name="n_docs"),
                Sum("sum_len", alias_name="sum_len")]
    tot_aggs += [Sum(f"df{j}", alias_name=f"df{j}")
                 for j in range(len(terms))]
    tot = (per_doc.map_batches(df_partial, batch_format="pyarrow")
           .aggregate(*tot_aggs))
    n_docs, sum_len = float(tot["n_docs"]), float(tot["sum_len"])
    avg_len = sum_len / n_docs
    idf = [math.log(1.0 + (n_docs - float(tot[f"df{j}"]) + 0.5)
                    / (float(tot[f"df{j}"]) + 0.5))
           for j in range(len(terms))]
    k1p1 = k1 + 1.0
    one_minus_b = 1.0 - b

    def score(batch: pa.Table) -> pa.Table:
        L = batch.column("len").to_numpy(
            zero_copy_only=False).astype(np.float64)
        norm = k1 * (one_minus_b + b * (L / avg_len))
        s = None
        any_tf = np.zeros(batch.num_rows, dtype=bool)
        for j in range(len(terms)):
            tf = batch.column(f"tf{j}").to_numpy(
                zero_copy_only=False).astype(np.float64)
            any_tf |= tf > 0
            sj = idf[j] * ((tf * k1p1) / (tf + norm))
            s = sj if s is None else s + sj  # fixed left-assoc order
        keep = pa.array(any_tf)
        out = pa.Table.from_pydict({
            doc_col: batch.column(doc_col),
            "score": pa.array(s, type=pa.float64()),
        })
        return out.filter(keep)

    def local_cut(b: pa.Table) -> pa.Table:
        if b.num_rows > k:
            idx = pc.select_k_unstable(
                b, k=k, sort_keys=[("score", "descending"),
                                   (doc_col, "ascending")])
            b = b.take(idx)
        return b

    return (per_doc.map_batches(score, batch_format="pyarrow")
            .map_batches(local_cut, batch_format="pyarrow")
            .sort(key=["score", doc_col], descending=[True, False])
            .limit(k))


def simpson_concentration(ds, text_col: str = "text",
                          source_col: str = "source"):
    """Per-source lexical concentration: the exact integer ingredients
    of the Simpson index λ = Σ_t (c_t/N)² — a templated-junk detector
    that complements entropy (high λ = few terms dominate the source).

    Returns one row per source: ``n_tokens`` (N = Σ c_t), ``n_terms``
    (distinct terms), ``sum_sq`` (Σ c_t²) — all EXACT int64, so the
    value hash is engine-independent (λ itself is the caller's ratio;
    comparisons should cross-multiply, e.g. λ > 1/K ⇔ K·sum_sq > N²).
    Token semantics match ``source_entropy``: single-space split of the
    trimmed text, empty tokens kept (``string_split(trim(text), ' ')``).

    Ray shape: ``_source_term_counts``, a (source, term) count
    pre-combined per block (the only vocab-sized exchange) → per-block
    squaring → groupby(source) Sum over a source-sized table. Overflow
    regime: Σc² < 2⁶³ holds while no single source-term count exceeds
    ~3e9; counts are int64 and the squaring block would wrap silently
    beyond that, so it raises if any c > 3_000_000_000.
    """
    counts = _source_term_counts(ds, text_col, source_col)

    def square(b: pa.Table) -> pa.Table:
        c = b.column("c").to_numpy(zero_copy_only=False)
        if c.size and int(c.max()) > 3_000_000_000:
            raise OverflowError(
                "simpson_concentration: a source-term count exceeds 3e9; "
                "its c² product alone would wrap int64 — shard the "
                "source first")
        return pa.Table.from_pydict({
            "source": b.column("source"),
            "c": b.column("c"),
            "c2": pa.array(c * c, type=pa.int64()),
        })

    rolled = keyed_agg(counts.map_batches(square, batch_format="pyarrow"),
                       "source", {"n_tokens": ("sum", "c"),
                                  "n_terms": ("count", None),
                                  "sum_sq": ("sum", "c2")})

    def check_totals(b: pa.Table) -> pa.Table:
        # the SAFE invariant is the per-source token total N ≤ 3e9
        # (sum_sq ≤ N², so N ≤ 3.03e9 certifies the int64 Σc² never
        # wrapped — ADVICE r4: bounding each per-term count does NOT
        # bound the sum of their squares). n_tokens itself is an exact
        # int64 far from its own bound, so checking it post-rollup is
        # sound.
        n = b.column("n_tokens").to_numpy(zero_copy_only=False)
        if n.size and int(n.max()) > 3_000_000_000:
            raise OverflowError(
                "simpson_concentration: a source's token total exceeds "
                "3e9 — Σc² (≤ N²) can wrap int64; shard the source first")
        return b

    return rolled.map_batches(
        check_totals, batch_format="pyarrow").sort("source")


def source_cosine(ds, text_col: str = "text", source_col: str = "source",
                  max_vocab_block: int = 5_000_000):
    """Inter-source lexical similarity matrix: for every source pair
    (a < b), the EXACT int64 dot product of their term-count vectors
    (Σ_t c_a·c_b) plus each side's squared norm — the
    which-sources-are-near-duplicates-of-each-other rollup that
    complements `source_overlap` (shared prefix keys) and `term_drift`
    (χ² on one split). A float ``cosine`` is stamped on the pair-sized
    output as ONE shared IEEE tree (dot / sqrt(na2·nb2), products of
    exactly-representable ints, sqrt correctly rounded — identical in
    both engines).

    Ray shape: ``_source_term_counts`` (the vocab×sources exchange, same
    as ``simpson_concentration``) → ONE vocab-sized pivot block where a
    single numpy Cᵀ·C matmul yields all pairs at once (the tfidf /
    vocab_coverage single-block regime — bounded by |vocab|·|sources|,
    never by rows; loud guard at ``max_vocab_block`` naming the
    term-keyed pair-emission alternative). Token semantics match
    ``source_entropy`` (single-space split of trimmed text, empties
    kept). Overflow: every dot/norm accumulation is ≤ N_a·N_b for
    per-source token totals N — guarded on N ≤ 3e9 per source (the
    same invariant as simpson_concentration; a per-term-count bound
    would NOT bound the accumulation).
    """
    import math

    counts = _source_term_counts(ds, text_col, source_col)

    def pairwise(b: pa.Table) -> pa.Table:
        if b.num_rows > max_vocab_block:
            raise MemoryError(
                f"source_cosine: {b.num_rows} (source, term) rows exceed "
                f"max_vocab_block={max_vocab_block}; use a term-keyed "
                "pair-emission path (emit c_a·c_b per term, groupby pair)")
        c = b.column("c").to_numpy(zero_copy_only=False)
        df = pd.DataFrame({
            "source": b.column("source").to_pylist(),
            "term": b.column("term").to_pylist(),
            "c": c,
        })
        mat = df.pivot_table(index="term", columns="source", values="c",
                             aggfunc="sum", fill_value=0)
        sources = list(mat.columns)
        M = mat.to_numpy(dtype=np.int64)
        # the SAFE invariant is each source's token total N ≤ 3e9:
        # every dot/norm accumulation is ≤ N_a·N_b ≤ 9.0e18 < 2⁶³
        # (ADVICE r4: bounding per-term counts does not bound the
        # Cᵀ·C accumulation)
        totals = M.sum(axis=0)
        if totals.size and int(totals.max()) > 3_000_000_000:
            raise OverflowError(
                "source_cosine: a source's token total exceeds 3e9; the "
                "dot accumulation (≤ N_a·N_b) can wrap int64 — shard "
                "the source first")
        dots = M.T @ M  # (S, S) exact int64
        rows = []
        for i in range(len(sources)):
            for j in range(i + 1, len(sources)):
                dot = int(dots[i, j])
                na2, nb2 = int(dots[i, i]), int(dots[j, j])
                cos = (dot / math.sqrt(float(na2) * float(nb2))
                       if na2 and nb2 else 0.0)
                rows.append((sources[i], sources[j], dot, na2, nb2, cos))
        return pa.Table.from_pydict({
            "source_a": pa.array([r[0] for r in rows], type=pa.string()),
            "source_b": pa.array([r[1] for r in rows], type=pa.string()),
            "dot": pa.array([r[2] for r in rows], type=pa.int64()),
            "na2": pa.array([r[3] for r in rows], type=pa.int64()),
            "nb2": pa.array([r[4] for r in rows], type=pa.int64()),
            "cosine": pa.array([r[5] for r in rows], type=pa.float64()),
        })

    # vocab-sized by construction: repartition(1) so the matmul sees
    # every (source, term) row in one block
    return (counts.repartition(1)
            .map_batches(pairwise, batch_format="pyarrow")
            .sort(["source_a", "source_b"]))


def zipf_fit(ds, text_col: str = "text", source_col: str = "source",
             scale: int = 1000):
    """Per-source Zipf-law fit: OLS slope of ln(frequency) on ln(rank)
    over the source's term-frequency table — natural text sits near
    slope −1 (Zipf 1949, public); templated/machine junk drifts far
    from it, making the slope a cheap per-source quality audit beside
    ``simpson_concentration`` and ``source_entropy``.

    Exactness: ln values are stamped as int64 milli-nats
    (``floor(scale·ln(v))``, libm ``math.log`` — the DSIR stamp
    discipline) and the OLS ingredients are their order-independent
    integer sums: per source ``n_terms, sx=Σx, sy=Σy, sxx=Σx², sxy=Σxy``
    with x = stamp(rank), y = stamp(count), rank by (count desc, term).
    ``slope`` is the closed form on those ints rounded to 6 — the SQL
    oracle replays every step. Overflow regime: stamps ≤ scale·ln(3e9)
    ≈ 2.2e4, so Σx² fits int64 to ~1.9e10 terms/source; loud guard at
    1e9 (shard the source past that).

    Ray shape: the same ``_source_term_counts`` vocab-sized exchange as
    ``simpson_concentration``, then ONE vectorized ``map_groups`` call
    per source over its vocab-sized count table (sources are few; the
    documented partitioning assumption is one source's vocabulary fits
    a group task).
    """
    import math

    counts = _source_term_counts(ds, text_col, source_col)

    fscale = float(scale)

    def fit(group: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            group, sort_keys=[("c", "descending"), ("term", "ascending")])
        c = group.take(order).column("c").to_numpy(zero_copy_only=False)
        n = len(c)
        if n > 1_000_000_000 or int(c.max()) > 3_000_000_000:
            raise OverflowError(
                "zipf_fit: source vocabulary or a term count exceeds the "
                "int64-exact stamp-sum regime — shard the source first")
        # libm stamps (scalar math.log, never np.log: vectorized log can
        # differ from libm in the last ulp and flip a floor)
        x = np.fromiter(
            (math.floor(fscale * math.log(float(r)))
             for r in range(1, n + 1)), dtype=np.int64, count=n)
        y = np.fromiter(
            (math.floor(fscale * math.log(float(v)))
             for v in c.tolist()), dtype=np.int64, count=n)
        sx, sy = int(x.sum()), int(y.sum())
        sxx, sxy = int((x * x).sum()), int((x * y).sum())
        if n < 2:
            slope = None
        else:
            den = float(n) * float(sxx) - float(sx) * float(sx)
            slope = round(
                (float(n) * float(sxy) - float(sx) * float(sy)) / den, 6)
        return pa.Table.from_pydict({
            "source": group.column("source").slice(0, 1),
            "n_tokens": pa.array([int(c.sum())], type=pa.int64()),
            "n_terms": pa.array([n], type=pa.int64()),
            "sx": pa.array([sx], type=pa.int64()),
            "sy": pa.array([sy], type=pa.int64()),
            "sxx": pa.array([sxx], type=pa.int64()),
            "sxy": pa.array([sxy], type=pa.int64()),
            "slope": pa.array([slope], type=pa.float64()),
        })

    return map_groups(counts, "source", fit)


def freq_spectrum(ds, text_col: str = "text"):
    """Frequency-of-frequencies (the Good–Turing spectrum): for each
    occurrence count r, how many distinct terms occur exactly r times
    (n_r) and the token mass they carry (r·n_r). The r = 1 row's mass
    over the total IS the Good–Turing unseen-probability estimate
    p₀ = N₁/N — reported as exact integers plus the single IEEE
    division (bit-reproducible both engines).

    Exchanges: token rows → one term-keyed count,
    then a COUNT-sized (distinct r values) second groupby — the second
    exchange is spectrum-sized, never corpus-sized.
    """
    counts = keyed_agg(ds.select_columns([text_col]).map_batches(
        lambda b: _terms(b, text_col), batch_format="pyarrow"),
        "term", {"c": ("count", None)})

    spec = keyed_agg(counts, "c", {"n_terms": ("count", None)})

    def finish(b: pa.Table) -> pa.Table:
        r = b.column("c").to_numpy(zero_copy_only=False)
        n = b.column("n_terms").to_numpy(zero_copy_only=False)
        return pa.table({
            "r": pa.array(r, type=pa.int64()),
            "n_terms": pa.array(n, type=pa.int64()),
            "mass": pa.array(r * n, type=pa.int64()),
        })

    return spec.map_batches(finish, batch_format="pyarrow").sort("r")


def vocab_growth(ds, doc_col: str = "doc_id", text_col: str = "text",
                 n_buckets: int = 10):
    """Heaps-law vocabulary growth curve: rank docs by ``doc_col``,
    split the ranking into ``n_buckets`` equal spans (bucket of rank =
    ``(rank-1)·n_buckets // n_docs + 1`` — exact integer arithmetic the
    SQL replays verbatim, no NTILE remainder ambiguity), and report per
    bucket the cumulative distinct-term count among all docs ranked so
    far. First-occurrence decomposition makes it distributive: a term
    enters the vocabulary exactly at its MIN containing doc_id.

    Exchanges: (term, doc) rows → one term-keyed Min,
    the TeraSort-shaped `global_rank` over the doc ids, one vectorized
    hash_join to stamp ranks, then a bucket-sized rollup; the cumulative
    sum runs driver-side over ``n_buckets`` rows.
    """
    from ray.data.aggregate import Max

    from .join import hash_join
    from .reshape import global_rank

    def first_docs(batch: pa.Table) -> pa.Table:
        flat, row_idx, _ = _tokens_flat(batch, text_col)
        keep = pc.greater(pc.utf8_length(flat), 0)
        return pa.table({
            "term": flat.filter(keep),
            "fd": pc.cast(pc.take(batch.column(doc_col),
                                  pa.array(row_idx).filter(keep)),
                          pa.int64()),
        })

    first = keyed_agg(ds.select_columns([doc_col, text_col])
                      .map_batches(first_docs, batch_format="pyarrow"),
                      "term", {"fd": ("min", "fd")})

    ranked = global_rank(ds.select_columns([doc_col]), doc_col)
    n_docs = int(ranked.aggregate(Max("rn"))["max(rn)"])

    joined = hash_join(first, ranked, "fd", doc_col, ["term"], ["rn"])

    def to_bucket(b: pa.Table) -> pa.Table:
        rn = b.column("rn").to_numpy(zero_copy_only=False)
        bk = (rn - 1) * n_buckets // n_docs + 1
        return pa.table({"bucket": pa.array(bk, type=pa.int64())})

    per_bucket = keyed_agg_table(
        joined.map_batches(to_bucket, batch_format="pyarrow"), "bucket",
        {"new_terms": ("count", None)})

    # bucket-sized (n_buckets rows): the cumulative fill is driver math
    rows = {int(r["bucket"]): int(r["new_terms"])
            for r in per_bucket.to_pylist()}
    out_b, out_docs, out_new, out_vocab = [], [], [], []
    cum_v = 0
    for b in range(1, n_buckets + 1):
        nt = rows.get(b, 0)
        cum_v += nt
        # ranks with bucket ≤ b: (r-1)·K//n ≤ b-1 ⟺ r ≤ ⌈n·b/K⌉
        out_b.append(b)
        out_docs.append((n_docs * b + n_buckets - 1) // n_buckets)
        out_new.append(nt)
        out_vocab.append(cum_v)
    return pa.table({
        "bucket": pa.array(out_b, type=pa.int64()),
        "docs_cum": pa.array(out_docs, type=pa.int64()),
        "new_terms": pa.array(out_new, type=pa.int64()),
        "vocab_cum": pa.array(out_vocab, type=pa.int64()),
    })


_HARMONIC_LCM = 27720  # lcm(1..11): 27720/(r+1) exact for ranks 1..10


def search_eval(ds, queries, k: int = 10, doc_col: str = "doc_id",
                text_col: str = "text", k1: float = 1.2, b: float = 0.75):
    """Ranked-retrieval EVALUATION harness (the TREC-style companion of
    :func:`bm25_search`): for each 2-term query, score the corpus with
    BM25, take the top ``k``, and grade the ranking against binary
    ground-truth relevance = exact adjacent-phrase presence
    ("t1 t2" as consecutive tokens). Per query the output row carries
    ``n_relevant, hits, first_rank`` and three rank metrics:

    - gain function: HARMONIC 1/(rank+1) instead of the classic
      1/log2(rank+1), scaled by 27720 = lcm(1..11) so every partial sum
      is an exact int64 — ``dcg_q27720``, ``idcg_q27720`` (ideal: best
      min(n_relevant, k) ranks) and ``mrr_q27720`` = 27720/first_rank
      are integers the SQL oracle replays term-for-term (the same gain
      family, only the gain table differs from log2);
    - ``ndcg`` is ONE IEEE division of the two exact ints (0.0 when the
      query has no relevant docs).

    Scale shape: ONE stats pass computes doc length, per-term tf
    (vectorized equality over the flattened token array) and per-query
    phrase-relevance flags (successor equality, doc-boundary masked);
    one corpus aggregate gives N / Σlen / df / n_relevant; scoring
    reuses `bm25_search`'s bit-fixed float expression; each block
    reduces to its local top-k per query, so the driver sees ≤
    |queries|·k·blocks candidate rows — never the corpus.
    """
    import math

    from ray.data.aggregate import Sum

    import ray.data

    queries = [tuple(q) for q in queries]
    if not queries or len(queries) > 8 or any(len(q) != 2 for q in queries):
        raise ValueError("search_eval: 1..8 queries of exactly 2 terms")
    if k > 10:
        raise ValueError("search_eval: k <= 10 (harmonic gain table "
                         "is exact for ranks 1..10)")
    terms = sorted({t for q in queries for t in q})
    t_idx = {t: j for j, t in enumerate(terms)}

    def stats(batch: pa.Table) -> pa.Table:
        flat, row_idx, lens = _tokens_flat(batch, text_col)
        n = batch.num_rows
        eqs = {j: pc.equal(flat, t).to_numpy(zero_copy_only=False)
               for t, j in t_idx.items()}
        cols = {doc_col: batch.column(doc_col),
                "len": pa.array(lens.astype(np.int64))}
        for j in range(len(terms)):
            cols[f"tf{j}"] = pa.array(
                np.bincount(row_idx[eqs[j]], minlength=n).astype(np.int64))
        same_doc = row_idx[:-1] == row_idx[1:] if len(flat) > 1 else \
            np.zeros(0, dtype=bool)
        for qi, (t1, t2) in enumerate(queries):
            if len(flat) > 1:
                hit = eqs[t_idx[t1]][:-1] & eqs[t_idx[t2]][1:] & same_doc
                rel = np.bincount(row_idx[:-1][hit], minlength=n) > 0
            else:
                rel = np.zeros(n, dtype=bool)
            cols[f"rel{qi}"] = pa.array(rel.astype(np.int64))
        return pa.Table.from_pydict(cols)

    per_doc = ds.select_columns([doc_col, text_col]).map_batches(
        stats, batch_format="pyarrow").materialize()  # consumed twice

    def tot_partial(bt: pa.Table) -> pa.Table:
        cols = {"n_docs": pa.array([bt.num_rows], type=pa.int64()),
                "sum_len": pa.array([int(bt.column("len").to_numpy(
                    zero_copy_only=False).sum())], type=pa.int64())}
        for j in range(len(terms)):
            tf = bt.column(f"tf{j}").to_numpy(zero_copy_only=False)
            cols[f"df{j}"] = pa.array([int((tf > 0).sum())], type=pa.int64())
        for qi in range(len(queries)):
            r = bt.column(f"rel{qi}").to_numpy(zero_copy_only=False)
            cols[f"nrel{qi}"] = pa.array([int(r.sum())], type=pa.int64())
        return pa.Table.from_pydict(cols)

    aggs = [Sum("n_docs", alias_name="n_docs"),
            Sum("sum_len", alias_name="sum_len")]
    aggs += [Sum(f"df{j}", alias_name=f"df{j}") for j in range(len(terms))]
    aggs += [Sum(f"nrel{qi}", alias_name=f"nrel{qi}")
             for qi in range(len(queries))]
    tot = (per_doc.map_batches(tot_partial, batch_format="pyarrow")
           .aggregate(*aggs))
    n_docs, sum_len = float(tot["n_docs"]), float(tot["sum_len"])
    avg_len = sum_len / n_docs
    nrel = [int(tot[f"nrel{qi}"]) for qi in range(len(queries))]
    idf = [math.log(1.0 + (n_docs - float(tot[f"df{j}"]) + 0.5)
                    / (float(tot[f"df{j}"]) + 0.5))
           for j in range(len(terms))]
    k1p1, one_minus_b = k1 + 1.0, 1.0 - b

    def local_topk(bt: pa.Table) -> pa.Table:
        L = bt.column("len").to_numpy(zero_copy_only=False).astype(
            np.float64)
        norm = k1 * (one_minus_b + b * (L / avg_len))
        ids = bt.column(doc_col).to_numpy(zero_copy_only=False)
        out_qi, out_id, out_sc, out_rel = [], [], [], []
        for qi, (t1, t2) in enumerate(queries):
            j0, j1 = t_idx[t1], t_idx[t2]
            tf0 = bt.column(f"tf{j0}").to_numpy(
                zero_copy_only=False).astype(np.float64)
            tf1 = bt.column(f"tf{j1}").to_numpy(
                zero_copy_only=False).astype(np.float64)
            s = (idf[j0] * ((tf0 * k1p1) / (tf0 + norm))
                 + idf[j1] * ((tf1 * k1p1) / (tf1 + norm)))
            m = (tf0 > 0) | (tf1 > 0)
            if not m.any():
                continue
            cand_ids, cand_s = ids[m], s[m]
            rel = bt.column(f"rel{qi}").to_numpy(zero_copy_only=False)[m]
            order = np.lexsort((cand_ids, -cand_s))[:k]
            out_qi.extend([qi] * len(order))
            out_id.extend(cand_ids[order].tolist())
            out_sc.extend(cand_s[order].tolist())
            out_rel.extend(rel[order].tolist())
        return pa.table({
            "qi": pa.array(out_qi, type=pa.int64()),
            doc_col: pa.array(out_id, type=pa.int64()),
            "score": pa.array(out_sc, type=pa.float64()),
            "rel": pa.array(out_rel, type=pa.int64()),
        })

    cands = per_doc.map_batches(local_topk, batch_format="pyarrow")
    rows = cands.take_all()  # <= |queries| * k * blocks rows

    out = {c: [] for c in ("query", "n_relevant", "hits", "first_rank",
                           "mrr_q27720", "dcg_q27720", "idcg_q27720",
                           "ndcg")}
    for qi, (t1, t2) in enumerate(queries):
        r = [x for x in rows if x["qi"] == qi]
        r.sort(key=lambda x: (-x["score"], x[doc_col]))
        top = r[:k]
        ranks_rel = [i + 1 for i, x in enumerate(top) if x["rel"]]
        dcg = sum(_HARMONIC_LCM // (i + 1) for i in ranks_rel)
        ideal = min(nrel[qi], k)
        idcg = sum(_HARMONIC_LCM // (i + 1)
                   for i in range(1, ideal + 1))
        first = ranks_rel[0] if ranks_rel else 0
        out["query"].append(f"{t1} {t2}")
        out["n_relevant"].append(nrel[qi])
        out["hits"].append(len(ranks_rel))
        out["first_rank"].append(first)
        out["mrr_q27720"].append(_HARMONIC_LCM // first if first else 0)
        out["dcg_q27720"].append(dcg)
        out["idcg_q27720"].append(idcg)
        out["ndcg"].append(float(dcg) / float(idcg) if idcg else 0.0)

    import ray.data as rd
    return rd.from_arrow(pa.table({
        "query": pa.array(out["query"], type=pa.string()),
        "n_relevant": pa.array(out["n_relevant"], type=pa.int64()),
        "hits": pa.array(out["hits"], type=pa.int64()),
        "first_rank": pa.array(out["first_rank"], type=pa.int64()),
        "mrr_q27720": pa.array(out["mrr_q27720"], type=pa.int64()),
        "dcg_q27720": pa.array(out["dcg_q27720"], type=pa.int64()),
        "idcg_q27720": pa.array(out["idcg_q27720"], type=pa.int64()),
        "ndcg": pa.array(out["ndcg"], type=pa.float64()),
    })).sort("query")


def log_odds_terms(ds, text_col: str = "text", label_col: str = "lang",
                   target_label: str = "en", top_k: int = 15):
    """Monroe, Colaresi & Quinn's "Fightin' Words" log-odds-ratio with
    a Dirichlet prior (2008 — the standard corpus-comparison statistic;
    the EFFECT-SIZE complement of :func:`chi2_terms`' significance
    ranking): for every term, the z-scored difference in smoothed
    log-odds between the target label's token stream and the rest,

        δ_t = ln((c1+½)/(n1+V/2−c1−½)) − ln((c2+½)/(n2+V/2−c2−½))
        z_t = δ_t / sqrt(1/(c1+½) + 1/(c2+½))

    with COLLECTION frequencies c (not doc counts), side totals n1/n2
    and vocab size V (the α=½ uninformative prior). The float tree is
    fixed-order libm ln/sqrt on exact int64 counts — the SQL oracle
    replays it bit for bit. Output: the ``top_k`` most target-leaning
    (z desc) and ``top_k`` most rest-leaning (z asc) terms, each term
    once, columns ``(term, cf_target, cf_rest, z)``, ordered (z desc,
    term).

    Scale shape: ONE vocab-sized exchange — each token row carries its
    side split map-side (cf_target, cf_rest), and one ``keyed_agg``
    sums both columns; totals n1/n2/V are three numbers
    derived from the same materialized count table; scoring is one
    vectorized ``map_batches``; the two rank ends ride select_k
    partials + a tiny global sort.
    """
    from ray.data.aggregate import Sum

    def sides(b: pa.Table) -> pa.Table:
        flat, row_idx, _ = _tokens_flat(b, text_col)
        is_t = np.asarray(
            [lb == target_label for lb in b.column(label_col).to_pylist()],
            dtype=np.int64)
        keep = pc.greater(pc.utf8_length(flat), 0)
        ct = is_t[pa.array(row_idx).filter(keep).to_numpy()]
        return pa.table({"term": flat.filter(keep),
                         "cf_target": ct, "cf_rest": 1 - ct})

    counts = keyed_agg(ds.select_columns([text_col, label_col])
                       .map_batches(sides, batch_format="pyarrow"),
                       "term", {"cf_target": ("sum", "cf_target"),
                                "cf_rest": ("sum", "cf_rest")}
                       ).materialize()  # totals + scoring + 2 rank ends

    def tot_partial(b: pa.Table) -> pa.Table:
        return pa.table({
            "n1": pa.array([int(b.column("cf_target").to_numpy(
                zero_copy_only=False).sum())], type=pa.int64()),
            "n2": pa.array([int(b.column("cf_rest").to_numpy(
                zero_copy_only=False).sum())], type=pa.int64()),
            "v": pa.array([b.num_rows], type=pa.int64()),
        })

    tot = (counts.map_batches(tot_partial, batch_format="pyarrow")
           .aggregate(Sum("n1", alias_name="n1"),
                      Sum("n2", alias_name="n2"),
                      Sum("v", alias_name="v")))
    n1, n2, v = (np.float64(tot["n1"]), np.float64(tot["n2"]),
                 np.float64(tot["v"]))

    def score(b: pa.Table) -> pa.Table:
        c1 = b.column("cf_target").to_numpy(
            zero_copy_only=False).astype(np.float64)
        c2 = b.column("cf_rest").to_numpy(
            zero_copy_only=False).astype(np.float64)
        d1 = np.log((c1 + 0.5) / (n1 + 0.5 * v - c1 - 0.5))
        d2 = np.log((c2 + 0.5) / (n2 + 0.5 * v - c2 - 0.5))
        delta = d1 - d2
        var = 1.0 / (c1 + 0.5) + 1.0 / (c2 + 0.5)
        z = delta / np.sqrt(var)
        return b.append_column("z", pa.array(z, type=pa.float64()))

    scored = counts.map_batches(score, batch_format="pyarrow")

    def ends(order):
        def local(b: pa.Table) -> pa.Table:
            if b.num_rows > top_k:
                idx = pc.select_k_unstable(
                    b, k=top_k,
                    sort_keys=[("z", order), ("term", "ascending")])
                b = b.take(idx)
            return b
        return (scored.map_batches(local, batch_format="pyarrow")
                .sort(["z", "term"],
                      descending=[order == "descending", False])
                .limit(top_k))

    # with V <= 2*top_k the two ends overlap and together cover the
    # whole vocabulary: emit every term once instead of their union
    out = (scored if v <= 2 * top_k
           else ends("descending").union(ends("ascending")))
    return out.sort(["z", "term"], descending=[True, False])


def good_turing(ds, text_col: str = "text", source_col: str = "source"):
    """Per-source corpus-saturation estimators: Good–Turing unseen
    mass and the Chao1 richness lower bound (Good 1953; Chao 1984 —
    the standard "do we need more data from this source?" statistics):

    - ``unseen_mass`` = f1/N — the GT estimate of the probability the
      NEXT token drawn from the source is a previously-unseen type;
    - ``chao1`` = V + f1²/(2·f2) (the f2=0 bias-corrected form
      V + f1·(f1−1)/2 when no doubletons exist) — the estimated true
      vocabulary size;

    where V = observed vocabulary, N = token total, f1/f2 = singleton/
    doubleton type counts. All sufficient statistics are exact int64;
    each float column is ONE fixed-order IEEE expression the SQL
    oracle replays bit-for-bit.

    Scale shape: ONE (source, term) counting exchange (pre-combined
    per block, so ≤ |vocab|×|sources| rows per block cross); the
    frequency-of-frequencies rollup collapses that table to
    sources × {1, 2, other} before the driver-visible result.
    """
    st = _source_term_counts(ds, text_col, source_col, nonempty=True)

    def fof(b: pa.Table) -> pa.Table:
        c = b.column("c").to_numpy(zero_copy_only=False)
        return pa.table({
            "source": b.column("source"),
            "n": c,
            "f1": (c == 1).astype(np.int64),
            "f2": (c == 2).astype(np.int64),
        })

    tot = keyed_agg(st.map_batches(fof, batch_format="pyarrow"),
                    "source", {"n_tokens": ("sum", "n"),
                               "vocab": ("count", None), "f1": ("sum", "f1"),
                               "f2": ("sum", "f2")})

    def finalize(b: pa.Table) -> pa.Table:
        n = b.column("n_tokens").to_numpy(zero_copy_only=False)
        v = b.column("vocab").to_numpy(zero_copy_only=False)
        f1 = b.column("f1").to_numpy(zero_copy_only=False)
        f2 = b.column("f2").to_numpy(zero_copy_only=False)
        nf, vf = n.astype(np.float64), v.astype(np.float64)
        f1f, f2f = f1.astype(np.float64), f2.astype(np.float64)
        unseen = np.where(n > 0, f1f / np.where(n > 0, nf, 1.0), 0.0)
        chao1 = np.where(
            f2 > 0,
            vf + (f1f * f1f) / (2.0 * np.where(f2 > 0, f2f, 1.0)),
            vf + (f1f * (f1f - 1.0)) / 2.0)
        return pa.table({
            "source": b.column("source"),
            "n_tokens": pa.array(n, type=pa.int64()),
            "vocab": pa.array(v, type=pa.int64()),
            "f1": pa.array(f1, type=pa.int64()),
            "f2": pa.array(f2, type=pa.int64()),
            "unseen_mass": pa.array(unseen, type=pa.float64()),
            "chao1": pa.array(chao1, type=pa.float64()),
        })

    return (tot.map_batches(finalize, batch_format="pyarrow")
            .sort("source"))


def term_burstiness(ds, text_col: str = "text", top_k: int = 20):
    """Church–Gale term burstiness: the variance-to-mean ratio (VMR)
    of each term's per-document count over ALL docs (zeros included) —
    ≈1 for Poisson-scattered function words, ≫1 for bursty topical
    words that pile into few documents (the classic content-word
    detector; public). Exact int64 sufficient statistics per term
    (Σc, Σc², doc frequency) from one vocab-sized exchange; with N
    docs, population variance = (Σc² − (Σc)²/N)/N and

        vmr = ((sc2 − (sc·sc)/N)/N) / (sc/N)

    is ONE fixed-order float tree the oracle replays. Output: top_k
    terms by (vmr DESC, term), columns (term, df, cf, vmr).
    """
    def partial(b: pa.Table) -> pa.Table:
        flat, row_idx, _ = _tokens_flat(b, text_col)
        terms = flat.to_pandas()
        mask = (terms.str.len() > 0).to_numpy()
        d = pd.DataFrame({"term": terms[mask], "row": row_idx[mask]})
        per = d.groupby(["term", "row"], sort=False).size()
        idx = per.index.to_frame(index=False)
        c = per.to_numpy()
        d2 = pd.DataFrame({"term": idx["term"].to_numpy(), "sc": c,
                           "sc2": c * c,
                           "df": np.ones(len(c), dtype=np.int64)})
        g = d2.groupby("term", sort=False).sum()
        return pa.table({
            "term": pa.array(g.index, type=pa.string()),
            "sc": pa.array(g["sc"].to_numpy(), type=pa.int64()),
            "sc2": pa.array(g["sc2"].to_numpy(), type=pa.int64()),
            "df": pa.array(g["df"].to_numpy(), type=pa.int64()),
        })

    n_docs = float(ds.count())
    totals = keyed_agg(ds.select_columns([text_col])
                       .map_batches(partial, batch_format="pyarrow"),
                       "term", {"cf": ("sum", "sc"), "sc2": ("sum", "sc2"),
                                "df": ("sum", "df")})

    def score(b: pa.Table) -> pa.Table:
        sc = b.column("cf").to_numpy(zero_copy_only=False).astype(
            np.float64)
        sc2 = b.column("sc2").to_numpy(zero_copy_only=False).astype(
            np.float64)
        vmr = ((sc2 - (sc * sc) / n_docs) / n_docs) / (sc / n_docs)
        return pa.table({
            "term": b.column("term"),
            "df": b.column("df"),
            "cf": b.column("cf"),
            "vmr": pa.array(vmr, type=pa.float64()),
        })

    scored = totals.map_batches(score, batch_format="pyarrow")

    def local(b: pa.Table) -> pa.Table:
        if b.num_rows > top_k:
            idx = pc.select_k_unstable(
                b, k=top_k,
                sort_keys=[("vmr", "descending"), ("term", "ascending")])
            b = b.take(idx)
        return b

    return (scored.map_batches(local, batch_format="pyarrow")
            .sort(["vmr", "term"], descending=[True, False])
            .limit(top_k))
