"""Fuzzy string matching: edit-distance-1 similarity join via
deletion-neighborhood blocking — the FastSS / SymSpell family (Bocek
et al., "Fast Similarity Search in Large Dictionaries", 2007; public
algorithm). Typo-clustering over entity names / URLs / queries is a
standard record-linkage step in web-corpus curation.

Why blocking: the naive similarity join is all-pairs (n² edit-distance
calls — 10¹⁴ at a 10⁷ vocabulary). Under deletion blocking two strings
at Levenshtein distance ≤ 1 ALWAYS share a block key (one string
itself, or a 1-deletion variant of it): substitution pairs share the
deletion at the mismatch position, insertion/deletion pairs share the
shorter string itself. So candidates = within-bucket pairs only, and
each bucket's size is bounded by alphabet × key frequency, not n.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa

from .exchange import keyed_agg, map_groups

_LOG = logging.getLogger(__name__)


def is_edit1(a: str, b: str) -> bool:
    """Exact check: Levenshtein(a, b) == 1. O(len) two-pointer —
    no DP table needed at distance 1."""
    la, lb = len(a), len(b)
    if la == lb:
        if a == b:
            return False
        diff = 0
        for x, y in zip(a, b):
            if x != y:
                diff += 1
                if diff > 1:
                    return False
        return diff == 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    if lb - la != 1:
        return False
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1:]


def edit1_pairs(ds, col: str, bucket_cap: int = 1024):
    """All DISTINCT value pairs of ``col`` at Levenshtein distance
    exactly 1, verified — SQL-equivalent to a self-join on
    ``levenshtein(a, b) = 1`` without the n² blowup.

    Plan: distinct values (keys-only groupby) → each value emits itself
    plus its 1-deletion variants as block keys (L+1 short rows per
    value) → ``groupby(bucket)`` co-locates candidates → within-bucket
    pairs are VERIFIED in place (O(len) check, so unverified candidates
    never cross a second exchange) → ``groupby(pair)`` dedups pairs
    found via multiple shared keys. A degenerate bucket beyond
    ``bucket_cap`` values is truncated loudly (same skew-guard
    philosophy as the LSH band caps — at that size the key is a
    near-constant prefix and the pairs are noise).
    """

    distinct = keyed_agg(ds.select_columns([col]), col, {})

    def variants(b: pa.Table) -> pa.Table:
        vals = b.column(col).to_pylist()
        keys: list[str] = []
        strs: list[str] = []
        for s in vals:
            s = s or ""
            keys.append(s)
            strs.append(s)
            for i in range(len(s)):
                keys.append(s[:i] + s[i + 1:])
                strs.append(s)
        return pa.table({
            "bucket": pa.array(keys, type=pa.string()),
            "s": pa.array(strs, type=pa.string()),
        })

    def bucket_pairs(g: pa.Table) -> pa.Table:
        ss = sorted(set(g.column("s").to_pylist()))
        if len(ss) > bucket_cap:
            _LOG.warning(
                "edit1_pairs: bucket %r truncated %d -> %d values",
                g.column("bucket")[0].as_py(), len(ss), bucket_cap)
            ss = ss[:bucket_cap]
        a_out: list[str] = []
        b_out: list[str] = []
        for i in range(len(ss)):
            for j in range(i + 1, len(ss)):
                if is_edit1(ss[i], ss[j]):
                    a_out.append(ss[i])
                    b_out.append(ss[j])
        return pa.table({
            "a": pa.array(a_out, type=pa.string()),
            "b": pa.array(b_out, type=pa.string()),
        })

    return keyed_agg(map_groups(distinct.map_batches(variants,
                                                     batch_format="pyarrow"),
                                "bucket", bucket_pairs),
                     ["a", "b"], {}).sort(["a", "b"])


# ---------------------------------------------------------------------------
# phonetic encoding + entity resolution
# ---------------------------------------------------------------------------
# American Soundex (the 1918 Russell/Odell algorithm; public domain,
# specified in Knuth TAOCP vol. 3): first letter + 3 digits, consonant
# classes B/F/P/V=1 C/G/J/K/Q/S/X/Z=2 D/T=3 L=4 M/N=5 R=6, adjacent
# same-class letters coded once, H/W transparent (same-class letters
# separated by H/W still collapse), vowels separate (coded twice).
_SOUNDEX_TRANS = str.maketrans("BFPVCGJKQSXZDTLMNRAEIOUYHW",
                               "11112222222233455600000000")
import re as _re

_SOUNDEX_RUN = _re.compile(r"(.)\1+")
_SOUNDEX_NONALPHA = _re.compile(r"[^A-Z]")


def soundex(word: str) -> str:
    """American Soundex code of ``word`` (empty string for no-letter
    input). Implemented as the exact sequence a SQL replay can run on
    RE2 (no backreferences needed there: collapsing runs of a SINGLE
    character per class is equivalent to the generic ``(.)\\1+``
    collapse used here, because every run is single-character):

        u      = letters of upper(word)
        u2     = u[0] + (u[1:] with H and W removed)   # H/W transparency
        codes  = translate(u2, classes -> digits, vowels/H/W -> 0)
        coll   = collapse adjacent equal digits
        tail   = coll[1:] with '0' removed             # drop first code
        result = u[0] + (tail + '000')[:3]
    """
    u = _SOUNDEX_NONALPHA.sub("", word.upper())
    if not u:
        return ""
    first = u[0]
    u2 = first + u[1:].replace("H", "").replace("W", "")
    codes = u2.translate(_SOUNDEX_TRANS)
    coll = _SOUNDEX_RUN.sub(lambda m: m.group(1), codes)
    tail = coll[1:].replace("0", "")
    return first + (tail + "000")[:3]


def levenshtein(a: str, b: str) -> int:
    """Plain unit-cost Levenshtein distance (classic two-row DP) —
    semantics identical to DuckDB's ``levenshtein()`` so verified edges
    are SQL-replayable (differential-tested in the suite)."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        ca = a[i - 1]
        for j in range(1, lb + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (ca != b[j - 1]))
        prev = cur
    return prev[lb]


def soundex_tokens(ds, text_col: str):
    """Distinct (token, soundex) pairs over the whitespace tokens of
    ``text_col`` — the phonetic-key vocabulary build. Per block the
    encode runs once per DISTINCT token (vocabulary-sized work, not
    row-sized); one keys-only groupby dedups globally."""

    def encode(b: pa.Table) -> pa.Table:
        toks: set[str] = set()
        for name in set(b.column(text_col).to_pylist()):
            for t in (name or "").split(" "):
                if t:
                    toks.add(t)
        toks_l = sorted(toks)
        return pa.table({
            "token": pa.array(toks_l, type=pa.string()),
            "soundex": pa.array([soundex(t) for t in toks_l],
                                type=pa.string()),
        })

    return keyed_agg(ds.select_columns([text_col])
                     .map_batches(encode, batch_format="pyarrow"),
                     ["token", "soundex"], {}).sort("token")


def resolve_entities(ds, id_col: str, name_col: str, max_dist: int = 2,
                     block_cap: int = 512):
    """Entity resolution over a (id, name) table — the record-linkage
    pipeline in its canonical shape:

      1. BLOCK: each distinct name emits one block key per token's
         Soundex code (phonetic blocking — names sharing any
         similar-sounding word meet; candidates never leave their
         block, so no all-pairs).
      2. MATCH: within-block distinct-name pairs verified with exact
         Levenshtein <= ``max_dist``. A degenerate block beyond
         ``block_cap`` distinct names raises loudly (at web scale that
         code is a stopword-class key; the fix is a longer blocking
         key, not silent truncation).
      3. CLUSTER: verified pairs -> connected components; canonical
         label = lexicographically smallest name in the component.
      4. ASSIGN: the component map is OUTPUT-sized (matched names
         only), so it broadcasts once via ``ray.put`` and every (id,
         name) row gets its canonical name in one shuffle-free pass.

    Returns (id_col, name_col, canonical) sorted by ``id_col``.
    """
    import ray
    import ray.data

    from .dedup import connected_components

    distinct = keyed_agg(ds.select_columns([name_col]), name_col, {})

    def block_keys(b: pa.Table) -> pa.Table:
        codes: list[str] = []
        names: list[str] = []
        for name in b.column(name_col).to_pylist():
            for t in set((name or "").split(" ")):
                if t:
                    codes.append(soundex(t))
                    names.append(name)
        return pa.table({
            "code": pa.array(codes, type=pa.string()),
            "name": pa.array(names, type=pa.string()),
        })

    def block_pairs(g: pa.Table) -> pa.Table:
        names = sorted(set(g.column("name").to_pylist()))
        if len(names) > block_cap:
            raise ValueError(
                f"resolve_entities: block {g.column('code')[0].as_py()!r}"
                f" holds {len(names)} names (> block_cap={block_cap}); "
                "use a longer blocking key")
        a_out: list[str] = []
        b_out: list[str] = []
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                if levenshtein(names[i], names[j]) <= max_dist:
                    a_out.append(names[i])
                    b_out.append(names[j])
        return pa.table({
            "a": pa.array(a_out, type=pa.string()),
            "b": pa.array(b_out, type=pa.string()),
        })

    pairs = keyed_agg(map_groups(distinct.map_batches(block_keys,
                                                      batch_format="pyarrow"),
                                 "code", block_pairs),
                      ["a", "b"], {})

    comp = connected_components(pairs, col_a="a", col_b="b")
    canon = {r["doc_id"]: r["cluster_id"]
             for r in comp.iter_rows()}  # matched-names-sized
    canon_ref = ray.put(canon)

    def assign(b: pa.Table) -> pa.Table:
        m = ray.get(canon_ref)
        names = b.column(name_col).to_pylist()
        return pa.table({
            id_col: b.column(id_col),
            name_col: b.column(name_col),
            "canonical": pa.array([m.get(n, n) for n in names],
                                  type=pa.string()),
        })

    return (ds.select_columns([id_col, name_col])
            .map_batches(assign, batch_format="pyarrow")
            .sort(id_col))
