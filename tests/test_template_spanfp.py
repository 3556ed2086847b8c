"""template_score corpus-frequency screen and span_fingerprint dedup."""

import pyarrow as pa

from smartreader_ray.spanio import span_fingerprint_batch

_SPAN_T = pa.list_(pa.struct([
    ("kind", pa.string()),
    ("text", pa.string()),
    ("media_ref", pa.string()),
    ("offset", pa.int64()),
]))


def _spans_tbl(docs):
    return pa.table({
        "doc_id": pa.array(range(len(docs)), type=pa.int64()),
        "spans": pa.array(
            [[{"kind": k, "text": t, "media_ref": m, "offset": i}
              for i, (k, t, m) in enumerate(d)] for d in docs],
            type=_SPAN_T),
    })


def _brute_template(texts, window):
    from collections import Counter
    wins = []
    for t in texts:
        toks = t.strip().split(" ")
        wins.append([" ".join(toks[i:i + window])
                     for i in range(max(len(toks) - window + 1, 0))])
    tot = Counter(w for ws in wins for w in ws)
    out = []
    for i, ws in enumerate(wins):
        s = sum(tot[w] for w in ws)
        out.append((i, len(ws), s, s / len(ws) if ws else 0.0))
    return out


def test_template_score_matches_bruteforce(ray_session):
    import ray.data

    from smartreader_ray.functions.dedup import template_score

    texts = [
        "a b c d e",        # shares "a b" with doc2, "c d" with doc3
        "x y z",
        "a b q r",
        "p c d",
        "zz",               # sub-window doc -> n_windows 0, score 0.0
    ]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts),
    })
    got = template_score(
        ray.data.from_arrow(t).repartition(3), window=2).take_all()
    rows = [(r["doc_id"], r["n_windows"], r["sum_freq"],
             r["template_score"]) for r in got]
    assert sorted(rows) == _brute_template(texts, 2)


def test_template_score_partitioning_invariance(ray_session):
    import ray.data

    from smartreader_ray.functions.dedup import template_score

    texts = [f"tok{i % 4} tok{(i + 1) % 3} tok{i % 2} end"
             for i in range(40)]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts),
    })

    def run(nparts):
        ds = ray.data.from_arrow(t).repartition(nparts)
        return sorted(
            (r["doc_id"], r["n_windows"], r["sum_freq"],
             r["template_score"])
            for r in template_score(ds, window=3).take_all())

    assert run(1) == run(7)


def test_span_fingerprint_groups_and_masks():
    # doc0 and doc1 normalize to the SAME canonical sequence: doc1's
    # split text run merges, its empty text span drops, and its
    # re-hosted media_ref is masked
    doc0 = [("text", "hello world", ""), ("image", "fig", "img://a/1"),
            ("text", "tail", "")]
    doc1 = [("text", "hello", ""), ("text", "world", ""),
            ("text", "   ", ""), ("image", "fig", "img://b/9"),
            ("text", "tail", "")]
    # doc2 differs only in the image ALT -> different content
    doc2 = [("text", "hello world", ""), ("image", "FIG", "img://a/1"),
            ("text", "tail", "")]
    out = span_fingerprint_batch(_spans_tbl([doc0, doc1, doc2]))
    fp = {r["doc_id"]: r["span_fp"] for r in out.to_pylist()}
    assert fp[0] == fp[1]
    assert fp[2] != fp[0]
    # with media significant, the re-hosted asset splits doc0/doc1
    strict = span_fingerprint_batch(
        _spans_tbl([doc0, doc1]), mask_media=False)
    sfp = {r["doc_id"]: r["span_fp"] for r in strict.to_pylist()}
    assert sfp[0] != sfp[1]


def test_span_fingerprint_drops_normalized_away_docs():
    docs = [[("text", "  ", "")], [("text", "kept", "")]]
    out = span_fingerprint_batch(_spans_tbl(docs))
    assert out.column("doc_id").to_pylist() == [1]
    # a batch whose every doc normalizes away emits an empty table
    empty = span_fingerprint_batch(_spans_tbl([[("text", " ", "")]]))
    assert empty.num_rows == 0


def test_leakage_safe_split_keeps_dups_together(ray_session):
    import hashlib

    import ray.data

    from smartreader_ray.functions.join import hash_join
    from smartreader_ray.functions.sampling import split_assign
    from ray.data.aggregate import Min

    # 30 docs in dup pairs (2k, 2k+1) sharing content k — every pair
    # must land in ONE split
    texts = [f"shared content body {i // 2}" for i in range(30)]
    t = pa.table({
        "doc_id": pa.array(range(30), type=pa.int64()),
        "text": pa.array(texts),
    })

    def fp(b):
        md5 = hashlib.md5
        fps = [int(md5(x.strip().encode()).hexdigest()[:15], 16)
               for x in b.column("text").to_pylist()]
        return pa.table({"fp": pa.array(fps, type=pa.int64()),
                         "doc_id": b.column("doc_id")})

    fps = (ray.data.from_arrow(t).repartition(5)
           .map_batches(fp, batch_format="pyarrow").materialize())
    groups = fps.groupby("fp").aggregate(Min("doc_id",
                                             alias_name="group_id"))
    tagged = hash_join(fps, groups, "fp", "fp",
                       ["doc_id"], ["group_id"], how="inner")
    out = split_assign(tagged, {"train": 0.8, "val": 0.1, "test": 0.1},
                       id_col="group_id").take_all()
    split_of = {r["doc_id"]: r["split"] for r in out}
    group_of = {r["doc_id"]: r["group_id"] for r in out}
    assert len(split_of) == 30
    for k in range(15):
        a, b = 2 * k, 2 * k + 1
        assert group_of[a] == group_of[b] == a
        assert split_of[a] == split_of[b]
    # sanity: with 15 distinct groups the assignment isn't all-one-split
    assert len(set(split_of.values())) >= 2


def test_embedding_audit_flags_planted_bad_vectors(ray_session):
    import ray.data

    from smartreader_ray.functions.audit import embedding_audit

    good = [0.5] * 4
    rows = [
        ("a", good),                 # clean
        ("a", [1.0, 2.0]),           # bad dim
        ("a", [float("nan")] * 4),   # non-finite (and NOT zero)
        ("b", [0.0] * 4),            # all-zero
        ("b", [float("inf"), 0.0, 0.0, 0.0]),  # non-finite
        ("b", [-0.0] * 4),           # -0.0 counts as zero
        ("b", good),
    ]
    t = pa.table({
        "label": pa.array([r[0] for r in rows]),
        "embedding": pa.array([r[1] for r in rows],
                              type=pa.list_(pa.float32())),
    })
    out = embedding_audit(ray.data.from_arrow(t).repartition(3),
                          dim=4).take_all()
    by = {r["group"]: r for r in out}
    assert by["a"]["n_vecs"] == 3
    assert by["a"]["n_bad_dim"] == 1
    assert by["a"]["n_nonfinite"] == 1
    assert by["a"]["n_zero"] == 0
    assert by["b"]["n_vecs"] == 4
    assert by["b"]["n_bad_dim"] == 0
    assert by["b"]["n_nonfinite"] == 1
    assert by["b"]["n_zero"] == 2


def test_ks_drift_matches_bruteforce(ray_session):
    import ray.data

    from smartreader_ray.functions.audit import ks_drift

    vals = {"base": [1, 1, 2, 3, 5, 8],
            "g1": [1, 2, 2, 4],          # shifted
            "g2": [1, 1, 2, 3, 5, 8]}    # identical -> ks 0
    rows = [(g, v) for g, vs in vals.items() for v in vs]
    t = pa.table({"src": pa.array([r[0] for r in rows]),
                  "x": pa.array([r[1] for r in rows],
                                type=pa.int64())})
    out = ks_drift(ray.data.from_arrow(t).repartition(3), "src", "x",
                   baseline="base").take_all()
    by = {r["group"]: r for r in out}
    assert set(by) == {"g1", "g2"}

    def brute(a, b):
        pts = sorted(set(a) | set(b))
        na, nb = len(a), len(b)
        return max(abs(sum(x <= p for x in a) * nb
                       - sum(x <= p for x in b) * na) for p in pts)

    assert by["g1"]["ks_num"] == brute(vals["g1"], vals["base"])
    assert by["g1"]["ks"] == by["g1"]["ks_num"] / float(4 * 6)
    assert by["g2"]["ks_num"] == 0
    assert by["g2"]["ks"] == 0.0


def test_chi2_drift_detects_mix_shift(ray_session):
    import datetime

    import ray.data

    from smartreader_ray.functions.audit import chi2_drift

    split = datetime.datetime(2024, 1, 16)
    early = datetime.datetime(2024, 1, 10)
    late = datetime.datetime(2024, 1, 20)
    rows = (
        # 'stable' is 50/50 across the split -> zero contribution
        [{"event_type": "stable", "ts": early}] * 10
        + [{"event_type": "stable", "ts": late}] * 10
        # 'shifted' only exists late -> large contribution
        + [{"event_type": "shifted", "ts": late}] * 10
    )
    out = {r["category"]: r
           for r in chi2_drift(ray.data.from_items(rows), "event_type",
                               "ts", split).take_all()}
    assert out["stable"]["n_early"] == 10 and out["stable"]["n_late"] == 10
    assert out["shifted"]["n_early"] == 0 and out["shifted"]["n_late"] == 10
    # stable isn't exactly the margin ratio (10/20 early overall vs
    # 10/30 margin) so it carries some signal, but far less than the
    # appears-from-nowhere category
    assert out["shifted"]["contrib_nano"] > out["stable"]["contrib_nano"]
    assert out["shifted"]["contrib_nano"] > 0

    # null categories are no category: they count in neither half
    nulls = [{"event_type": None, "ts": early}] * 4 + [
        {"event_type": None, "ts": late}] * 2
    with_nulls = {r["category"]: r
                  for r in chi2_drift(ray.data.from_items(rows + nulls),
                                      "event_type", "ts", split).take_all()}
    assert with_nulls == out


def test_chi2_drift_one_sided_split_raises(ray_session):
    import datetime

    import pytest
    import ray.data

    from smartreader_ray.functions.audit import chi2_drift

    from smartreader_ray.functions.audit import _chi2_contrib, chi2_drift

    rows = [{"event_type": "a", "ts": datetime.datetime(2024, 1, 20)}] * 3
    # raised inside a Ray task, so it surfaces wrapped; match its message
    with pytest.raises(Exception, match="one side empty"):
        chi2_drift(ray.data.from_items(rows), "event_type", "ts",
                   datetime.datetime(2024, 1, 1)).take_all()
    late_only = pa.table({"cat": ["a"], "a": pa.array([0], pa.int64()),
                          "b": pa.array([3], pa.int64())})
    with pytest.raises(ValueError, match="one side empty"):
        _chi2_contrib(late_only)


def test_chi2_drift_denominator_past_int64():
    from smartreader_ray.functions.audit import _chi2_contrib

    # n1 = n2 = 2^22, N = 2^23, m = 2^22: m*n1*N = 2^67 wraps int64,
    # while |aN - n1*m| = 100 * 2^23 stays under the 2^31 guard
    half = 1 << 21
    t = pa.table({
        "cat": ["x", "y"],
        "a": pa.array([half + 100, half - 100], type=pa.int64()),
        "b": pa.array([half - 100, half + 100], type=pa.int64()),
    })
    out = _chi2_contrib(t).column("contrib_nano").to_pylist()
    n1 = n2 = 1 << 22
    n, m, d = n1 + n2, 1 << 22, 100 * (1 << 23)
    want = int(1e9 * (d * d / float(m * n1 * n) + d * d / float(m * n2 * n)))
    assert out == [want, want]
    assert want > 0
