"""BPE tokenizer training over a corpus — the standard two-phase shape.

Phase 1 (distributed, the only corpus-sized pass): reduce the corpus to
a WORD HISTOGRAM — one exchange carrying one row per distinct word per
block (the `ngrams.py` pre-combine contract). Every production BPE
trainer (sentencepiece, HuggingFace tokenizers) trains on this
histogram, not the raw text: merge counting weights each word's pair
multiset by its corpus frequency, so the histogram is a sufficient
statistic for the whole training run.

Phase 2 (driver, histogram-sized): the classic greedy merge loop over
symbol sequences. State is bounded by DISTINCT words (~10⁷–10⁸ at web
scale — node-sized, not corpus-sized); a guard fails loudly past
``max_vocab_words`` rather than silently degrading (cap the histogram
by frequency upstream if a corpus exceeds it).

Determinism: merges pick the highest weighted pair count with ties
broken by the lexicographically smallest (left, right) pair — fully
reproducible across partitionings and runs, differential-tested against
an independent per-document scalar implementation.

Tokenization convention matches the repo's oracles: single-space split
of trimmed text; empty tokens dropped (a word must be non-empty). Each
word ends with the ``</w>`` end-of-word symbol, the original BPE paper
convention (Sennrich et al. 2016, public).
"""

from __future__ import annotations

import pyarrow as pa

from .ngrams import _terms

END = "</w>"

__all__ = ["word_histogram", "bpe_train_from_histogram", "bpe_train",
           "bpe_pair_counts", "END"]


def word_histogram(ds, text_col: str = "text"):
    """Distinct-word frequency table — ONE corpus pass, pre-combined
    per block so the exchange is vocabulary-sized."""
    from .exchange import keyed_agg

    return keyed_agg(ds.map_batches(
        lambda b: _terms(b, text_col).rename_columns(["word"]),
        batch_format="pyarrow"), "word", {"c": ("count", None)})


def bpe_train_from_histogram(hist: dict[str, int], num_merges: int):
    """Greedy BPE merge loop over a word histogram. Returns a list of
    ``(rank, left, right, pair_count)`` tuples, one per executed merge
    (stops early if no pair occurs twice)."""
    # symbol sequences: word chars + END, weighted by corpus frequency
    seqs = [(list(w) + [END], c) for w, c in hist.items()]
    merges = []
    for rank in range(num_merges):
        counts: dict[tuple[str, str], int] = {}
        for sym, c in seqs:
            for i in range(len(sym) - 1):
                p = (sym[i], sym[i + 1])
                counts[p] = counts.get(p, 0) + c
        if not counts:
            break
        # max count, ties by lexicographically smallest pair
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        (left, right), n = best
        if n < 2:
            break
        merges.append((rank, left, right, n))
        joined = left + right
        new_seqs = []
        for sym, c in seqs:
            i, out = 0, []
            while i < len(sym):
                if (i + 1 < len(sym) and sym[i] == left
                        and sym[i + 1] == right):
                    out.append(joined)
                    i += 2
                else:
                    out.append(sym[i])
                    i += 1
            new_seqs.append((out, c))
        seqs = new_seqs
    return merges


def bpe_train(ds, text_col: str = "text", num_merges: int = 16,
              max_vocab_words: int = 5_000_000):
    """Train BPE merges over a Dataset: distributed word histogram →
    driver merge loop (see module doc for why the histogram is the
    correct — and bounded — driver-side state). Returns a Dataset
    ``(rank, left, right, pair_count)`` ordered by rank."""
    import ray.data

    hist = {}
    n = 0
    for b in word_histogram(ds, text_col).iter_batches(
            batch_format="pyarrow", batch_size=None):
        n += b.num_rows
        if n > max_vocab_words:
            raise OverflowError(
                f"word histogram exceeds max_vocab_words="
                f"{max_vocab_words}; cap the histogram by frequency "
                "before training"
            )
        hist.update(zip(b.column("word").to_pylist(),
                        b.column("c").to_pylist()))
    merges = bpe_train_from_histogram(hist, num_merges)
    return ray.data.from_arrow(
        pa.table(
            {
                "rank": pa.array([m[0] for m in merges], type=pa.int64()),
                "left": pa.array([m[1] for m in merges],
                                 type=pa.string()),
                "right": pa.array([m[2] for m in merges],
                                  type=pa.string()),
                "pair_count": pa.array([m[3] for m in merges],
                                       type=pa.int64()),
            }
        )
    )


def bpe_pair_counts(ds, text_col: str = "text", top_k: int = 20):
    """The hash-exact companion (the repo's approx↔exact pairing): the
    FIRST BPE iteration's raw material — adjacent character pairs inside
    words (no end-of-word marker, so SQL substring arithmetic replays
    it), weighted by word frequency, global top-k with deterministic
    (l, r) tie-break. The word histogram rides the same single corpus
    pass as training."""
    def pairs(b: pa.Table) -> pa.Table:
        # a loop over DISTINCT words (vocab-, not corpus-sized): one
        # row per adjacent pair, weighted by the word's count
        ls, rs, ns = [], [], []
        for word, cnt in zip(b.column("word").to_pylist(),
                             b.column("c").to_pylist()):
            ls.extend(word[:-1])
            rs.extend(word[1:])
            ns.extend([cnt] * (len(word) - 1))
        return pa.table({"l": pa.array(ls, type=pa.string()),
                         "r": pa.array(rs, type=pa.string()),
                         "n": pa.array(ns, type=pa.int64())})

    from . import topk
    from .exchange import keyed_agg

    return topk.top_k(keyed_agg(word_histogram(ds, text_col)
                                .map_batches(pairs, batch_format="pyarrow"),
                                ["l", "r"], {"n": ("sum", "n")}),
                      [("n", "descending"), ("l", "ascending"),
                       ("r", "ascending")], top_k)
