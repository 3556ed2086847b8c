"""Similarity search over an embedding column (list<float>).

- ann_topk: brute-force cosine top-k — the small-side query matrix
  rides in the ``map_batches`` UDF instance (shipped once per stage,
  never per batch) and is matmul'd against every batch; per-batch
  partial top-k keeps the combine tiny.
- embedding_neardup: near-dup pairs by cosine ≥ threshold; brute
  all-pairs per batch against the broadcast matrix for small corpora,
  or LSH (random-hyperplane) bucketed for the scale path.

Every per-batch scorer here is a UDF instance built on the driver, so
its stage runs as Ray Data tasks: no actor pool starts per call.
"""

from __future__ import annotations

import heapq

import numpy as np
import pyarrow as pa

from .exchange import map_groups


def _normalize(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


def _embeddings_matrix(batch: pa.Table, col: str = "embedding") -> np.ndarray:
    lists = batch.column(col)
    arr = lists.combine_chunks()
    if isinstance(arr, pa.ChunkedArray):  # pragma: no cover
        arr = arr.combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False)
    dim = len(flat) // max(1, batch.num_rows)
    return flat.reshape(batch.num_rows, dim).astype(np.float64)


def _top_k(row: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` best entries of ``row`` by (sim desc, id asc),
    the order of :func:`_merge_topk_partials`: a tie at the k-th place
    keeps the smaller id wherever the block boundaries fall. Only the
    entries at least as good as the k-th best value are sorted."""
    neg = -row
    if 0 < k < neg.size:
        cand = np.flatnonzero(~(neg > np.partition(neg, k - 1)[k - 1]))
    else:
        cand = np.arange(neg.size)
    return cand[np.lexsort((ids[cand], neg[cand]))][:k]


class _TopKPartial:
    """Per-batch partial top-k against a broadcast query matrix."""

    def __init__(self, queries: np.ndarray, k: int):
        self.queries = _normalize(np.asarray(queries, dtype=np.float64))
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        mat = _normalize(_embeddings_matrix(batch))
        sims = self.queries @ mat.T  # (Q, B)
        vec_ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        out_q, out_v, out_s = [], [], []
        for qi in range(sims.shape[0]):
            row = sims[qi]
            for i in _top_k(row, vec_ids, self.k):
                out_q.append(qi)
                out_v.append(int(vec_ids[i]))
                out_s.append(float(row[i]))
        return pa.Table.from_pydict(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "vec_id": pa.array(out_v, type=pa.int64()),
                "sim": pa.array(out_s, type=pa.float64()),
            }
        )


def ann_topk(ds, query_matrix: np.ndarray, k: int = 10, round_to: int = 6):
    """Exact cosine top-k: partial top-k per block, tiny final heap merge
    on the driver. Returns a pyarrow Table (query_id, vec_id, sim, rank)
    ordered by (query_id, -sim, vec_id) — deterministic under ties.

    Scale path: replace the driver merge with a groupby(query_id)
    .map_groups top-k when Q is large; here Q is small by construction.
    """
    partials = ds.map_batches(_TopKPartial(query_matrix, k),
                              batch_format="pyarrow")
    return _merge_topk_partials(partials, k, round_to)


class _NearDupBrute:
    def __init__(self, matrix: np.ndarray, ids: np.ndarray, threshold: float):
        self.all_mat = _normalize(np.asarray(matrix, dtype=np.float64))
        self.all_ids = np.asarray(ids, dtype=np.int64)
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        mat = _normalize(_embeddings_matrix(batch))
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        sims = mat @ self.all_mat.T  # (B, N)
        rows, cols = np.where(sims >= self.threshold)
        out_a, out_b, out_s = [], [], []
        for r, c in zip(rows, cols):
            a = int(ids[r])
            b = int(self.all_ids[c])
            if a < b:
                out_a.append(a)
                out_b.append(b)
                out_s.append(round(float(sims[r, c]), 6))
        return pa.Table.from_pydict(
            {
                "vec_a": pa.array(out_a, type=pa.int64()),
                "vec_b": pa.array(out_b, type=pa.int64()),
                "sim": pa.array(out_s, type=pa.float64()),
            }
        )


def embedding_neardup(ds, threshold: float = 0.95, use_lsh: bool | None = None,
                      hyperplanes: int = 16, seed: int = 42,
                      brute_limit: int = 100_000,
                      max_bucket: int = 4096):
    """Cosine near-dup pairs (vec_a < vec_b, sim ≥ threshold).

    Brute path: broadcast the (normalized) full matrix once in the UDF
    instance; each batch matmuls against it — O(N·B) per batch but zero
    shuffle.
    LSH path: random-hyperplane signature → bucket groupby → in-bucket
    pair check; only signatures + embeddings of co-bucketed vectors
    shuffle, and buckets over ``max_bucket`` are sub-split (skew guard).

    ``use_lsh=None`` (default) auto-selects: corpora over ``brute_limit``
    rows take the LSH path — brute is quadratic in corpus size and
    materializes the full matrix, so it is only ever the small-N /
    exact-oracle path.
    """
    if use_lsh is None:
        use_lsh = ds.count() > brute_limit
    if not use_lsh:
        # bounded by brute_limit (auto path): build the broadcast matrix
        # from Arrow blocks directly — no per-row Python dicts
        ids_parts, mat_parts = [], []
        for batch in ds.select_columns(["vec_id", "embedding"]).iter_batches(
            batch_format="pyarrow", batch_size=None
        ):
            if batch.num_rows:
                ids_parts.append(
                    batch.column("vec_id").to_numpy(zero_copy_only=False)
                )
                mat_parts.append(_embeddings_matrix(batch))
        mat = np.vstack(mat_parts) if mat_parts else np.zeros((0, 1))
        ids = (
            np.concatenate(ids_parts).astype(np.int64)
            if ids_parts else np.zeros(0, dtype=np.int64)
        )
        return ds.map_batches(_NearDupBrute(mat, ids, threshold),
                              batch_format="pyarrow")

    planes = None  # built lazily per worker from the seed (deterministic)

    def sign_batch(batch: pa.Table) -> pa.Table:
        nonlocal planes
        mat = _normalize(_embeddings_matrix(batch))
        if planes is None:
            # seed-deterministic; cached per worker closure after the
            # first batch (each task deserializes its own copy)
            planes = np.random.RandomState(seed).randn(mat.shape[1], hyperplanes)
        bits = (mat @ planes) > 0
        keys = ["".join("1" if b else "0" for b in row) for row in bits]
        return pa.Table.from_pydict(
            {
                "bucket": pa.array(keys, type=pa.string()),
                "vec_id": batch.column("vec_id"),
                "embedding": batch.column("embedding"),
            }
        )

    def bucket_pairs(group: pa.Table) -> pa.Table:
        from .dedup import _capped_subgroups

        mat = _normalize(_embeddings_matrix(group))
        ids = group.column("vec_id").to_pylist()
        bucket = group.column("bucket")[0].as_py() if group.num_rows else ""
        out_a, out_b, out_s = [], [], []
        # sub-split oversized buckets: the sims matrix is O(n²) memory,
        # so one hot bucket must never pair all-vs-all
        for sub in _capped_subgroups(
            list(range(len(ids))), max_bucket, bucket, key=lambda i: ids[i]
        ):
            idx = np.asarray(sub, dtype=np.int64)
            sims = mat[idx] @ mat[idx].T
            ii, jj = np.where(np.triu(sims >= threshold, k=1))
            for si, sj in zip(ii, jj):
                a, b = ids[idx[si]], ids[idx[sj]]
                s = sims[si, sj]
                if a > b:
                    a, b = b, a
                out_a.append(a)
                out_b.append(b)
                out_s.append(round(float(s), 6))
        return pa.Table.from_pydict(
            {
                "vec_a": pa.array(out_a, type=pa.int64()),
                "vec_b": pa.array(out_b, type=pa.int64()),
                "sim": pa.array(out_s, type=pa.float64()),
            }
        )

    signed = ds.map_batches(sign_batch, batch_format="pyarrow")
    return map_groups(signed, "bucket", bucket_pairs)


# ---------------------------------------------------------------------------
# IVF bucketed LAYOUT: cluster-partitioned storage so unprobed buckets
# are never READ (ann_ivf prunes compute only; this prunes IO — the
# actual 100 TB win)
# ---------------------------------------------------------------------------
def ivf_build_index(ds, index_dir: str, n_clusters: int = 16,
                    train_sample: int = 2048, seed: int = 0) -> np.ndarray:
    """Write the embedding corpus PARTITIONED BY nearest centroid:
    ``index_dir/centroids.npy`` + ``index_dir/cluster=K/*.parquet``.

    Search then lists only the probed clusters' files — at scale the
    unprobed (1 − nprobe/n_clusters) of the corpus never leaves storage.
    Centroids train on a driver-side sample (small by construction);
    assignment is a broadcast-centroid ``map_batches``; the partitioned
    write is Ray's own ``partition_cols``. Returns the centroid matrix.
    """
    import os

    import ray

    sample_rows = ds.select_columns(["embedding"]).limit(train_sample).take_all()
    sample = np.asarray([r["embedding"] for r in sample_rows], dtype=np.float64)
    centroids = kmeans_centroids(sample, n_clusters, seed=seed)
    centroids_ref = ray.put(centroids)

    def assign(batch: pa.Table) -> pa.Table:
        C = ray.get(centroids_ref)
        mat = _normalize(_embeddings_matrix(batch))
        cluster = np.argmax(mat @ C.T, axis=1).astype(np.int64)
        arr = pa.array(cluster, type=pa.int64())
        # `cluster` becomes the directory partition (dropped from file
        # contents by the hive write); `cl` keeps the value in-data so
        # an explicit-file-list read needs no partition inference
        return batch.append_column("cluster", arr).append_column("cl", arr)

    os.makedirs(index_dir, exist_ok=True)
    ds.map_batches(assign, batch_format="pyarrow").write_parquet(
        index_dir, partition_cols=["cluster"]
    )
    np.save(os.path.join(index_dir, "centroids.npy"), centroids)
    return centroids


def ann_ivf_bucketed(index_dir: str, query_matrix: np.ndarray, k: int = 10,
                     nprobe: int = 4, round_to: int = 6):
    """Top-k search over an ``ivf_build_index`` layout, reading ONLY the
    probed clusters' parquet files. ``nprobe == n_clusters`` degenerates
    to exact brute force (every bucket read) — the oracle path."""
    import glob
    import os

    import ray
    import ray.data

    centroids = np.load(os.path.join(index_dir, "centroids.npy"))
    queries = _normalize(np.asarray(query_matrix, dtype=np.float64))
    nprobe = min(nprobe, centroids.shape[0])
    probed = np.argsort(-(queries @ centroids.T), axis=1)[:, :nprobe]  # (Q, nprobe)
    clusters = sorted(set(int(c) for row in probed for c in row))
    files = [
        f
        for c in clusters
        for f in sorted(glob.glob(os.path.join(index_dir, f"cluster={c}", "*.parquet")))
    ]
    if not files:
        return pa.Table.from_pydict(
            {"query_id": pa.array([], type=pa.int64()),
             "vec_id": pa.array([], type=pa.int64()),
             "sim": pa.array([], type=pa.float64()),
             "rank": pa.array([], type=pa.int64())}
        )
    ds = ray.data.read_parquet(files)

    def bucket_partial(batch: pa.Table) -> pa.Table:
        mat = _normalize(_embeddings_matrix(batch))
        vec_ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        cl = batch.column("cl").to_numpy(zero_copy_only=False).astype(np.int64)
        out_q, out_v, out_s = [], [], []
        for qi in range(queries.shape[0]):
            mask = np.isin(cl, probed[qi])
            if not mask.any():
                continue
            row = queries[qi] @ mat[mask].T
            ids = vec_ids[mask]
            for i in _top_k(row, ids, k):
                out_q.append(qi)
                out_v.append(int(ids[i]))
                out_s.append(float(row[i]))
        return pa.Table.from_pydict(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "vec_id": pa.array(out_v, type=pa.int64()),
                "sim": pa.array(out_s, type=pa.float64()),
            }
        )

    partials = ds.map_batches(bucket_partial, batch_format="pyarrow")
    return _merge_topk_partials(partials, k, round_to)


def _merge_topk_partials(partials, k: int, round_to: int) -> pa.Table:
    """Tiny driver-side heap merge of per-block partial top-k rows
    (shared by ann_topk / ann_ivf / ann_ivf_bucketed / hard_negatives).
    Ties break on the smaller vec_id."""
    heaps: dict[int, list] = {}
    for batch in partials.iter_batches(batch_format="pyarrow"):
        for q, v, s in zip(
            batch.column("query_id").to_pylist(),
            batch.column("vec_id").to_pylist(),
            batch.column("sim").to_pylist(),
        ):
            heap = heaps.setdefault(q, [])
            item = (s, -v)
            if len(heap) < k:
                heapq.heappush(heap, item)
            elif item > heap[0]:
                heapq.heapreplace(heap, item)
    out_q, out_v, out_s, out_r = [], [], [], []
    for q in sorted(heaps):
        ranked = sorted(heaps[q], key=lambda t: (-t[0], -t[1]))
        for rank, (s, negv) in enumerate(ranked, start=1):
            out_q.append(q)
            out_v.append(-negv)
            out_s.append(round(s, round_to))
            out_r.append(rank)
    return pa.Table.from_pydict(
        {
            "query_id": pa.array(out_q, type=pa.int64()),
            "vec_id": pa.array(out_v, type=pa.int64()),
            "sim": pa.array(out_s, type=pa.float64()),
            "rank": pa.array(out_r, type=pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# IVF (inverted-file) ANN — the bucketed scale path for top-k search
# ---------------------------------------------------------------------------
def kmeans_centroids(sample: np.ndarray, n_clusters: int, iters: int = 10,
                     seed: int = 0) -> np.ndarray:
    """Spherical k-means on a (driver-side) sample. The sample is small
    by construction; training never touches the full corpus."""
    rng = np.random.RandomState(seed)
    X = _normalize(np.asarray(sample, dtype=np.float64))
    k = min(n_clusters, len(X))
    idx = rng.choice(len(X), size=k, replace=False)
    C = X[idx].copy()
    for _ in range(iters):
        assign = np.argmax(X @ C.T, axis=1)
        for j in range(k):
            pts = X[assign == j]
            if len(pts):
                c = pts.mean(axis=0)
                n = np.linalg.norm(c)
                if n > 0:
                    C[j] = c / n
    return C


class _IVFPartial:
    """Per-batch scan-pruned search: a vector is scored against a query
    only if the vector's nearest centroid is one of that query's
    ``nprobe`` probed clusters. Centroids + queries broadcast once."""

    def __init__(self, queries: np.ndarray, centroids: np.ndarray, k: int,
                 nprobe: int):
        self.queries = _normalize(np.asarray(queries, dtype=np.float64))
        self.centroids = np.asarray(centroids, dtype=np.float64)
        self.k = k
        sims_qc = self.queries @ self.centroids.T  # (Q, C)
        nprobe = min(nprobe, self.centroids.shape[0])
        self.probed = np.argsort(-sims_qc, axis=1)[:, :nprobe]  # (Q, nprobe)

    def __call__(self, batch: pa.Table) -> pa.Table:
        mat = _normalize(_embeddings_matrix(batch))
        vec_ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        assign = np.argmax(mat @ self.centroids.T, axis=1)  # (B,)
        out_q, out_v, out_s = [], [], []
        for qi in range(self.queries.shape[0]):
            mask = np.isin(assign, self.probed[qi])
            if not mask.any():
                continue
            sub = mat[mask]
            ids = vec_ids[mask]
            row = self.queries[qi] @ sub.T
            for i in _top_k(row, ids, self.k):
                out_q.append(qi)
                out_v.append(int(ids[i]))
                out_s.append(float(row[i]))
        return pa.Table.from_pydict(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "vec_id": pa.array(out_v, type=pa.int64()),
                "sim": pa.array(out_s, type=pa.float64()),
            }
        )


def ann_ivf(ds, query_matrix: np.ndarray, k: int = 10, n_clusters: int = 16,
            nprobe: int = 4, train_sample: int = 2048, round_to: int = 6,
            seed: int = 0):
    """Approximate cosine top-k via IVF: train centroids on a sample,
    broadcast (centroids, queries) once, scan-prune every batch to the
    probed clusters, partial top-k per batch, tiny driver merge.

    Recall < 1 by design (vectors in unprobed clusters are skipped);
    nprobe=n_clusters degenerates to exact brute force. At real scale the
    corpus would be written bucketed by centroid id so unprobed buckets
    are never READ — here pruning saves compute, not IO.
    """
    sample_rows = ds.select_columns(["embedding"]).limit(train_sample).take_all()
    sample = np.asarray([r["embedding"] for r in sample_rows], dtype=np.float64)
    centroids = kmeans_centroids(sample, n_clusters, seed=seed)
    partials = ds.map_batches(_IVFPartial(query_matrix, centroids, k, nprobe),
                              batch_format="pyarrow")
    return _merge_topk_partials(partials, k, round_to)


def _kmeans_assign_partial(centroids_ref, id_col: str, emb_col: str):
    """One row per (cluster, block): partial vector sum + count, tagged
    with the block's min id so the driver can combine partials in a
    FIXED order — float addition isn't associative, and an order-free
    combine would make centroids (hence assignments) vary run to run."""
    import ray

    def fn(batch: pa.Table) -> pa.Table:
        C = ray.get(centroids_ref)
        X = _normalize(_embeddings_matrix(batch, emb_col))
        assign = np.argmax(X @ C.T, axis=1)
        k, d = C.shape
        sums = np.zeros((k, d), dtype=np.float64)
        np.add.at(sums, assign, X)
        counts = np.bincount(assign, minlength=k).astype(np.int64)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        tag = int(ids.min()) if len(ids) else 0
        present = np.flatnonzero(counts)
        return pa.Table.from_pydict(
            {
                "cluster": pa.array(present, type=pa.int64()),
                "count": pa.array(counts[present], type=pa.int64()),
                "vsum": pa.array(list(sums[present]), type=pa.list_(pa.float64())),
                "tag": pa.array([tag] * len(present), type=pa.int64()),
            }
        )

    return fn


def kmeans_fit(ds, k: int = 8, iters: int = 5, id_col: str = "vec_id",
               emb_col: str = "embedding"):
    """Distributed spherical k-means (Lloyd's) over the FULL corpus.

    Initialization is deterministic — the k vectors with the smallest
    ids (a sort pushed down to ``limit`` over the id-sorted dataset).
    Each iteration broadcasts the (k×d) centroid matrix via ``ray.put``
    and reduces the corpus to per-(cluster, block) partial sums — the
    only data the driver ever sees is k × num_blocks small rows, never
    vectors — combined in (cluster, block-tag) sorted order so repeated
    runs produce bit-identical centroids on a fixed input layout.

    Returns ``(assignments_dataset, centroids)`` where the dataset has
    (id_col, cluster) and centroids is the final (k, d) float64 matrix.
    The input is re-scanned once per iteration (+1 for the final
    assignment): callers looping many iterations over hot data should
    ``ds = ds.materialize()`` first to pin blocks in the object store.
    """
    import ray

    seed_rows = ds.sort(id_col).limit(k).take_all()
    dim = len(seed_rows[0][emb_col])
    C = _normalize(np.array(
        [r[emb_col] for r in seed_rows], dtype=np.float64
    ).reshape(k, dim))

    thin = ds.select_columns([id_col, emb_col])
    for _ in range(iters):
        c_ref = ray.put(C)
        partials = thin.map_batches(
            _kmeans_assign_partial(c_ref, id_col, emb_col),
            batch_format="pyarrow",
        ).take_all()  # ≤ k × num_blocks rows by construction
        partials.sort(key=lambda r: (r["cluster"], r["tag"]))
        sums = np.zeros((k, dim), dtype=np.float64)
        counts = np.zeros(k, dtype=np.int64)
        for r in partials:
            sums[r["cluster"]] += np.asarray(r["vsum"], dtype=np.float64)
            counts[r["cluster"]] += r["count"]
        nonempty = counts > 0
        C = C.copy()
        C[nonempty] = _normalize(sums[nonempty] / counts[nonempty, None])

    final_ref = ray.put(C)

    def assign(batch: pa.Table) -> pa.Table:
        Cf = ray.get(final_ref)
        X = _normalize(_embeddings_matrix(batch, emb_col))
        lab = np.argmax(X @ Cf.T, axis=1)
        return pa.Table.from_pydict(
            {
                id_col: batch.column(id_col),
                "cluster": pa.array(lab, type=pa.int64()),
            }
        )

    return thin.map_batches(assign, batch_format="pyarrow"), C


def pq_encode(ds, codebook: np.ndarray, n_subspaces: int,
              scale: int = 1000, id_col: str = "vec_id",
              emb_col: str = "embedding"):
    """Product-quantization encoding — the vector-compression leg of
    the ANN stack (Jégou et al., "Product Quantization for Nearest
    Neighbor Search", TPAMI 2011): split each D-dim vector into
    ``n_subspaces`` contiguous blocks and store, per block, the index
    of the nearest codeword — D floats become ``n_subspaces`` small
    ints (the IVF-PQ memory layout at billion-vector scale).

    EXACT-integer variant so the assignment is reproducible and
    SQL-replayable: vectors AND codewords are quantized to int64 at
    ``scale`` (``floor(v·scale + 0.5)``) and the squared L2 distance is
    an int64 sum — order-independent, no float-sum ambiguity; ties
    break to the lowest codeword id. Returns the long form
    ``(id_col, m, code, dist)`` with ``dist`` the exact int64 squared
    distortion of the chosen codeword.

    ``codebook``: driver-side (k, D) float array (codebooks are
    curated-small: k ≤ 256 per PQ convention) — quantized once,
    ``ray.put`` once, read per actor. Encoding is shuffle-free: one
    vectorized (B, k, w) numpy pass per batch.
    """
    import ray

    k, d = codebook.shape
    if d % n_subspaces:
        raise ValueError(f"dim {d} not divisible by {n_subspaces}")
    w = d // n_subspaces
    cq = np.floor(codebook.astype(np.float64) * scale + 0.5).astype(
        np.int64)
    cb_ref = ray.put(cq)

    def encode(batch: pa.Table) -> pa.Table:
        cb = ray.get(cb_ref)
        e = _embeddings_matrix(batch, emb_col)
        if e.shape[1] != d:
            raise ValueError(f"vector dim {e.shape[1]} != codebook {d}")
        eq = np.floor(e * scale + 0.5).astype(np.int64)
        n = eq.shape[0]
        ids = batch.column(id_col)
        out_id, out_m, out_code, out_dist = [], [], [], []
        for m in range(n_subspaces):
            s = slice(m * w, (m + 1) * w)
            diff = eq[:, None, s] - cb[None, :, s]     # (B, k, w) int64
            dist = np.einsum("bkw,bkw->bk", diff, diff)
            code = np.argmin(dist, axis=1)             # first min = low id
            out_id.append(ids)
            out_m.append(np.full(n, m, dtype=np.int64))
            out_code.append(code.astype(np.int64))
            out_dist.append(dist[np.arange(n), code])
        return pa.table({
            id_col: pa.concat_arrays(
                [c.combine_chunks() if isinstance(c, pa.ChunkedArray)
                 else c for c in out_id]),
            "m": pa.array(np.concatenate(out_m), type=pa.int64()),
            "code": pa.array(np.concatenate(out_code), type=pa.int64()),
            "dist": pa.array(np.concatenate(out_dist), type=pa.int64()),
        })

    return ds.select_columns([id_col, emb_col]).map_batches(
        encode, batch_format="pyarrow")


def pq_adc_topk(ds, codebook: np.ndarray, queries: np.ndarray,
                n_subspaces: int, k: int = 10, scale: int = 1000,
                id_col: str = "vec_id", emb_col: str = "embedding"):
    """PQ search with Asymmetric Distance Computation (Jégou et al.
    2011 §IV): corpus vectors are seen only through their PQ codes;
    each query precomputes a (n_subspaces × k_codewords) lookup table
    of exact-integer subspace distances, and a vector's approximate
    distance is ``Σ_m LUT[m][code_m]`` — k_codewords·D multiplies per
    QUERY instead of D per (query, vector). The compressed-domain
    scan that makes billion-vector ANN tractable; composes the same
    integer quantization as `pq_encode`, so encode → LUT → top-k is
    reproducible end to end.

    Output: (query_id, rank, vec_id, dist) — top ``k`` per query in
    the TOTAL order (dist asc, vec_id asc), so boundary ties never
    vary with partitioning. ``queries`` is a (Q, D) driver-side array
    (broadcast once with the quantized codebook + LUT); per block one
    vectorized encode + LUT gather emits only the per-query top-k
    partial (Q·k rows/block across the wire), merged by a single-slot
    final cut — small-Q contract, same as `ann_topk`.
    """
    import ray

    kcb, d = codebook.shape
    if d % n_subspaces:
        raise ValueError(f"dim {d} not divisible by {n_subspaces}")
    w = d // n_subspaces
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != d:
        raise ValueError(f"queries must be (Q, {d})")
    cq = np.floor(codebook.astype(np.float64) * scale + 0.5).astype(
        np.int64)
    qq = np.floor(q * scale + 0.5).astype(np.int64)
    # LUT[m, query, codeword] = exact int64 squared L2 in subspace m
    lut = np.empty((n_subspaces, qq.shape[0], kcb), dtype=np.int64)
    for m in range(n_subspaces):
        s = slice(m * w, (m + 1) * w)
        diff = qq[:, None, s] - cq[None, :, s]
        lut[m] = np.einsum("qkw,qkw->qk", diff, diff)
    ref = ray.put((cq, lut))

    def scan(batch: pa.Table) -> pa.Table:
        cb, tbl = ray.get(ref)
        e = _embeddings_matrix(batch, emb_col)
        eq = np.floor(e * scale + 0.5).astype(np.int64)
        n = eq.shape[0]
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(
            np.int64)
        dist = np.zeros((tbl.shape[1], n), dtype=np.int64)  # (Q, B)
        for m in range(n_subspaces):
            s = slice(m * w, (m + 1) * w)
            diff = eq[:, None, s] - cb[None, :, s]
            codes = np.argmin(
                np.einsum("bkw,bkw->bk", diff, diff), axis=1)
            dist += tbl[m][:, codes]
        out_q, out_v, out_d = [], [], []
        kk = min(k, n)
        for qi in range(dist.shape[0]):
            # total order (dist, vec_id): lexsort minor-to-major
            order = np.lexsort((ids, dist[qi]))[:kk]
            out_q.append(np.full(kk, qi, dtype=np.int64))
            out_v.append(ids[order])
            out_d.append(dist[qi][order])
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q), type=pa.int64()),
            "vec_id": pa.array(np.concatenate(out_v), type=pa.int64()),
            "dist": pa.array(np.concatenate(out_d), type=pa.int64()),
        })

    def final_cut(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        idx = pc.sort_indices(b, sort_keys=[
            ("query_id", "ascending"), ("dist", "ascending"),
            ("vec_id", "ascending")])
        t = b.take(idx)
        qid = t.column("query_id").to_numpy(zero_copy_only=False)
        pos = np.arange(len(qid), dtype=np.int64)
        first = np.zeros(len(qid), dtype=np.int64)
        if len(qid):
            starts = np.flatnonzero(np.diff(qid, prepend=qid[0] - 1))
            first = np.repeat(pos[starts], np.diff(
                np.append(starts, len(qid))))
        rank = pos - first + 1
        keep = rank <= k
        t = t.filter(pa.array(keep))
        return pa.table({
            "query_id": t.column("query_id"),
            "rank": pa.array(rank[keep], type=pa.int64()),
            "vec_id": t.column("vec_id"),
            "dist": t.column("dist"),
        })

    return (
        ds.select_columns([id_col, emb_col])
        .map_batches(scan, batch_format="pyarrow")
        .repartition(1)
        .map_batches(final_cut, batch_format="pyarrow")
    )


def kcenter_select(ds, k: int = 8, scale: int = 1000,
                   id_col: str = "vec_id", embed_col: str = "embedding"):
    """Greedy k-center (farthest-point traversal / Gonzalez 1985)
    coreset selection — the data-pruning primitive: pick k vectors so
    every vector is close to some pick (2-approximation of the optimal
    k-center cover). Round r broadcasts only the NEWEST center, each
    block updates its running min-distance column and emits ONE
    (best mind, best id) candidate, and the driver reduces blocks —
    per-round exchange is O(blocks), state is one int64 column riding
    the corpus.

    Determinism end to end: embeddings int64-quantized at ``scale``
    (same convention as PQ), distances are exact integer squared L2,
    and every argmax uses the TOTAL order (mind DESC, id ASC) — so the
    greedy trajectory is partitioning-independent and SQL-replayable
    (k chained CTEs). Seed pick = max squared norm, min id on ties.

    Returns (sel_rank, vec_id, dist2) — dist2 is the picked vector's
    distance to the previously selected set (the coverage radius
    sequence, nonincreasing; -1 for the seed).
    """
    import ray

    def quant(b: pa.Table) -> pa.Table:
        e = np.stack(b.column(embed_col).to_pandas().to_numpy())
        eq = np.floor(e.astype(np.float64) * scale + 0.5).astype(
            np.int64)
        return pa.table({
            id_col: b.column(id_col),
            "eq": pa.array(list(eq), type=pa.list_(pa.int64())),
            "mind": pa.array(np.full(len(eq), -1, dtype=np.int64)),
        })

    state = ds.select_columns([id_col, embed_col]).map_batches(
        quant, batch_format="pyarrow").materialize()

    def seed_partial(b: pa.Table) -> pa.Table:
        eq = np.stack(b.column("eq").to_pandas().to_numpy())
        ids = b.column(id_col).to_numpy(zero_copy_only=False)
        norms = (eq * eq).sum(axis=1)
        order = np.lexsort((ids, -norms))
        i = order[0]
        return pa.table({
            id_col: pa.array([ids[i]], type=pa.int64()),
            "score": pa.array([int(norms[i])], type=pa.int64()),
            "eq": pa.array([eq[i].tolist()], type=pa.list_(pa.int64())),
        })

    def best_of(cands: pa.Table):
        ids = cands.column(id_col).to_numpy(zero_copy_only=False)
        sc = cands.column("score").to_numpy(zero_copy_only=False)
        i = int(np.lexsort((ids, -sc))[0])
        return (int(ids[i]), int(sc[i]),
                np.asarray(cands.column("eq")[i].as_py(),
                           dtype=np.int64))

    def collect(cand_ds) -> pa.Table:
        # blocks-sized by construction: one candidate row per block
        return pa.concat_tables(
            list(cand_ds.iter_batches(batch_format="pyarrow",
                                      batch_size=None)))

    seeds = collect(state.map_batches(seed_partial,
                                      batch_format="pyarrow"))
    sel_id, _, center = best_of(seeds)
    picks = [(0, sel_id, -1)]

    for _ in range(1, k):
        c_ref = ray.put(center)

        def update(b: pa.Table, _c=c_ref) -> pa.Table:
            c = ray.get(_c)
            eq = np.stack(b.column("eq").to_pandas().to_numpy())
            diff = eq - c
            d2 = (diff * diff).sum(axis=1)
            old = b.column("mind").to_numpy(zero_copy_only=False)
            mind = np.where(old < 0, d2, np.minimum(old, d2))
            return pa.table({
                id_col: b.column(id_col),
                "eq": b.column("eq"),
                "mind": pa.array(mind, type=pa.int64()),
            })

        state = state.map_batches(
            update, batch_format="pyarrow").materialize()

        def cand_partial(b: pa.Table) -> pa.Table:
            ids = b.column(id_col).to_numpy(zero_copy_only=False)
            mind = b.column("mind").to_numpy(zero_copy_only=False)
            i = int(np.lexsort((ids, -mind))[0])
            return pa.table({
                id_col: pa.array([ids[i]], type=pa.int64()),
                "score": pa.array([int(mind[i])], type=pa.int64()),
                "eq": pa.array([b.column("eq")[i].as_py()],
                               type=pa.list_(pa.int64())),
            })

        cands = collect(state.map_batches(cand_partial,
                                          batch_format="pyarrow"))
        sel_id, score, center = best_of(cands)
        picks.append((len(picks), sel_id, score))

    import ray.data

    return ray.data.from_arrow(pa.table({
        "sel_rank": pa.array([p[0] for p in picks], type=pa.int64()),
        id_col: pa.array([p[1] for p in picks], type=pa.int64()),
        "dist2": pa.array([p[2] for p in picks], type=pa.int64()),
    }))


def semantic_dedup(ds, k_clusters: int = 8, tau: float = 0.45,
                   scale: int = 1000, id_col: str = "vec_id",
                   embed_col: str = "embedding",
                   cluster_cap: int = 100_000):
    """SemDeDup-shaped semantic deduplication (Abbas et al. 2023,
    public): cluster the embedding space, then treat within-cluster
    pairs above cosine ``tau`` as duplicates and keep one
    representative per duplicate component. Cross-cluster pairs are
    never examined — that locality is what makes semantic dedup
    tractable at corpus scale (all-pairs is n²).

    Deterministic end to end: cluster seeds are the `kcenter_select`
    picks (integer-exact, SQL-replayable), assignment is integer
    squared-L2 argmin with ties to the lowest seed rank, and the
    canonical representative is the component's minimum id (driver
    union-find on the OUTPUT-sized edge list). The cosine test itself
    follows the `embed_neardup` precedent: float threshold, identical
    formula both sides of the gate.

    Ray shape: k tiny seed rounds (see kcenter_select) + ONE
    ``groupby(cluster)`` exchange; per cluster a vectorized normalize +
    matmul emits pairs. A cluster beyond ``cluster_cap`` raises loudly
    (the fix is more clusters, not silent truncation).

    Returns (vec_id, cluster, canonical) sorted by id.
    """
    import ray
    import ray.data

    from .dedup import connected_components

    seeds = kcenter_select(ds, k=k_clusters, scale=scale,
                           id_col=id_col, embed_col=embed_col)
    seed_ids = [int(r[id_col]) for r in seeds.iter_rows()]  # k rows
    id_to_rank = {v: i for i, v in enumerate(seed_ids)}

    # fetch the seed vectors (k rows) in one pruned pass
    def grab_seeds(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy(zero_copy_only=False)
        mask = np.isin(ids, np.asarray(seed_ids, dtype=np.int64))
        return b.filter(pa.array(mask))

    picked = pa.concat_tables(
        list(ds.select_columns([id_col, embed_col])
             .map_batches(grab_seeds, batch_format="pyarrow")
             .iter_batches(batch_format="pyarrow", batch_size=None)))
    centers = np.zeros(
        (k_clusters,
         len(picked.column(embed_col)[0].as_py())), dtype=np.int64)
    for i in range(picked.num_rows):
        rank = id_to_rank[int(picked.column(id_col)[i].as_py())]
        v = np.asarray(picked.column(embed_col)[i].as_py(),
                       dtype=np.float64)
        centers[rank] = np.floor(v * scale + 0.5).astype(np.int64)
    c_ref = ray.put(centers)

    def assign(b: pa.Table) -> pa.Table:
        c = ray.get(c_ref)
        e = np.stack(b.column(embed_col).to_pandas().to_numpy())
        eq = np.floor(e.astype(np.float64) * scale + 0.5).astype(
            np.int64)
        # exact int d2 to every center; argmin ties -> lowest rank
        d2 = ((eq[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        cl = d2.argmin(axis=1)  # argmin takes the FIRST (lowest rank)
        return pa.table({
            id_col: b.column(id_col),
            "cluster": pa.array(cl, type=pa.int64()),
            embed_col: b.column(embed_col),
        })

    assigned = ds.select_columns([id_col, embed_col]).map_batches(
        assign, batch_format="pyarrow").materialize()

    def cluster_pairs(g: pa.Table) -> pa.Table:
        if g.num_rows > cluster_cap:
            raise ValueError(
                f"semantic_dedup: cluster {g.column('cluster')[0]} has "
                f"{g.num_rows} rows (> cluster_cap={cluster_cap}); "
                "raise k_clusters")
        ids = g.column(id_col).to_numpy(zero_copy_only=False)
        e = np.stack(g.column(embed_col).to_pandas().to_numpy()).astype(
            np.float64)
        nrm = e / np.linalg.norm(e, axis=1, keepdims=True)
        cos = nrm @ nrm.T
        ai, bi = np.where(np.triu(cos >= tau, k=1))
        a, b = ids[ai], ids[bi]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pa.table({
            "a": pa.array(lo, type=pa.int64()),
            "b": pa.array(hi, type=pa.int64()),
        })

    edges = map_groups(assigned, "cluster", cluster_pairs)
    comp = connected_components(edges, col_a="a", col_b="b")
    canon = {int(r["doc_id"]): int(r["cluster_id"])
             for r in comp.iter_rows()}  # duplicate-rows-sized
    canon_ref = ray.put(canon)

    def out(b: pa.Table) -> pa.Table:
        m = ray.get(canon_ref)
        ids = b.column(id_col).to_numpy(zero_copy_only=False)
        return pa.table({
            id_col: b.column(id_col),
            "cluster": b.column("cluster"),
            "canonical": pa.array([m.get(int(i), int(i)) for i in ids],
                                  type=pa.int64()),
        })

    return assigned.map_batches(out, batch_format="pyarrow").sort(
        id_col)


def bitext_mine(ds, src_label: int = 0, tgt_label: int = 1,
                id_col: str = "vec_id", label_col: str = "label"):
    """Margin-criterion bitext mining (the CCMatrix / LASER shape,
    Schwenk et al. — public papers): for every SOURCE-side vector, its
    top-1 and top-2 cosine neighbors on the TARGET side, plus the
    ``mutual`` flag (source is also its best target's best source) that
    the mining pipelines use as the alignment acceptance test. Output
    columns are ids/ranks only — float similarities are dropped exactly
    as in ``ann_topk`` (rank order is stable unless two sims collide
    within double rounding; same contract as the other ANN oracles).

    Scale shape: the forward direction streams — the TARGET side's
    normalized matrix, ids, and per-vector best-source map ship once
    via ``ray.put`` and every source block runs one matmul +
    argpartition against them, no exchange. The BACK direction (best
    source per target) is computed up front with BOTH sides
    driver-resident: one driver matmul of the collected source matrix
    against the collected target matrix. Assumption, stated honestly
    (ADVICE r4 — an earlier docstring claimed only the target side was
    held): BOTH embedding matrices fit in driver memory; mine the
    smaller language pair-half into the larger to minimize the
    broadcast. When that fails, the named fallback is per-source-block
    partial best-per-target rows (float sims mapped through the
    monotone IEEE-754 sortable-int transform) reduced by a
    ``groupby(tgt)`` Min exchange, plus per-block top-k +
    ``groupby(src)`` merge for the forward direction.
    """
    import ray

    def side(label):
        return (ds.select_columns([id_col, "embedding", label_col])
                .filter(expr=f"{label_col} == {label}"))

    def collect(side_ds):
        ids_parts, mats = [], []
        for b in side_ds.iter_batches(batch_format="pyarrow"):
            if b.num_rows == 0:
                continue
            ids_parts.append(
                b.column(id_col).to_numpy(zero_copy_only=False)
                .astype(np.int64))
            mats.append(_normalize(_embeddings_matrix(b)))
        if not ids_parts:
            return np.zeros(0, np.int64), np.zeros((0, 1))
        return np.concatenate(ids_parts), np.vstack(mats)

    # broadcastable sides (documented assumption above)
    tgt_ids, tgt_mat = collect(side(tgt_label))
    src_ids, src_mat = collect(side(src_label))
    if len(tgt_ids) < 2 or len(src_ids) == 0:
        raise ValueError("bitext_mine: need >=2 target and >=1 source vectors")

    def top_against(q_mat, q_ids, base_mat, base_ids, k):
        sims = q_mat @ base_mat.T  # (Q, N)
        # total order (sim DESC, id ASC): lexsort over each row
        order = np.lexsort((base_ids[None, :].repeat(len(q_ids), 0),
                            -sims), axis=1)[:, :k]
        return base_ids[order]  # (Q, k) neighbor ids

    # back direction: best source per target, as a broadcast dict
    back = top_against(tgt_mat, tgt_ids, src_mat, src_ids, 1)[:, 0]
    best_src_of = {int(t): int(s) for t, s in zip(tgt_ids, back)}

    tgt_ref = ray.put((tgt_ids, tgt_mat, best_src_of))

    def mine(batch: pa.Table) -> pa.Table:
        b_ids, b_mat, b_best = ray.get(tgt_ref)
        ids = batch.column(id_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        mat = _normalize(_embeddings_matrix(batch))
        nb = top_against(mat, ids, b_mat, b_ids, 2)
        best, second = nb[:, 0], nb[:, 1]
        mutual = np.fromiter(
            (b_best[int(t)] == int(s) for s, t in zip(ids, best)),
            dtype=bool, count=len(ids))
        return pa.Table.from_pydict({
            "src_id": pa.array(ids, type=pa.int64()),
            "best_tgt": pa.array(best, type=pa.int64()),
            "second_tgt": pa.array(second, type=pa.int64()),
            "mutual": pa.array(mutual, type=pa.bool_()),
        })

    return side(src_label).map_batches(
        mine, batch_format="pyarrow").sort("src_id")


class _HardNegPartial:
    """Per-batch partial top-k of DIFFERENT-label neighbors against a
    broadcast (queries, labels) pair — the masking twin of
    :class:`_TopKPartial`."""

    def __init__(self, queries: np.ndarray, qlabels: np.ndarray, k: int):
        self.queries = _normalize(np.asarray(queries, dtype=np.float64))
        self.qlabels = np.asarray(qlabels, dtype=np.int64)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        mat = _normalize(_embeddings_matrix(batch))
        sims = self.queries @ mat.T  # (Q, B)
        labels = batch.column("label").to_numpy(
            zero_copy_only=False).astype(np.int64)
        # a same-label column can never be a hard negative (this also
        # removes the query's own row)
        sims[self.qlabels[:, None] == labels[None, :]] = -np.inf
        vec_ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        out_q, out_v, out_s = [], [], []
        for qi in range(sims.shape[0]):
            row = sims[qi]
            for i in _top_k(row, vec_ids, self.k):
                if row[i] == -np.inf:
                    continue
                out_q.append(qi)
                out_v.append(int(vec_ids[i]))
                out_s.append(float(row[i]))
        return pa.Table.from_pydict({
            "query_id": pa.array(out_q, type=pa.int64()),
            "vec_id": pa.array(out_v, type=pa.int64()),
            "sim": pa.array(out_s, type=pa.float64()),
        })


def hard_negatives(ds, query_matrix: np.ndarray, query_labels: np.ndarray,
                   k: int = 3, round_to: int = 6):
    """Hard-negative mining for contrastive/embedding training: for each
    anchor, the top-k most-similar vectors whose ``label`` DIFFERS from
    the anchor's — the standard in-batch-negatives upgrade (mine the
    near-misses, not random negatives). Returns (query_id, vec_id, sim,
    rank) ordered by (query_id, −sim, vec_id), deterministic under ties.

    Same scale shape as :func:`ann_topk`: broadcast the (Q×d) anchor
    matrix + Q labels once in the UDF instance, one masked matmul per block
    (partial top-k per block, ≤ Q·k rows leave any block), tiny driver
    heap merge. Q is small by construction; for large Q switch the merge
    to groupby(query_id) top-k as named in ``ann_topk``.
    """
    partials = ds.map_batches(
        _HardNegPartial(query_matrix, query_labels, k), batch_format="pyarrow")
    return _merge_topk_partials(partials, k, round_to)


def cross_decontam(ds, eval_label: int = 0, tau: float = 0.35,
                   id_col: str = "vec_id", emb_col: str = "embedding",
                   label_col: str = "label",
                   eval_rows_max: int = 1_000_000):
    """Semantic decontamination ACROSS sets: find training vectors
    whose cosine similarity to ANY eval-set vector reaches ``tau`` —
    the embedding-space counterpart of n-gram `curation.decontaminate`
    (paraphrased eval leakage that exact n-grams miss). Returns the
    CONTAMINATED rows ``(vec_id, matched_eval_id)`` where
    ``matched_eval_id`` is the smallest eval id at/above threshold
    (deterministic under ties); an anti-join against this table is the
    clean training set.

    Ray shape: the eval side is a benchmark suite — k-sized by nature
    — so it is collected ONCE onto the driver (bounded loudly by
    ``eval_rows_max``), L2-normalized, and ``ray.put`` broadcast; the
    training side streams through one `map_batches` matmul per block.
    No shuffle anywhere; 100 TB of train embeddings flow at read
    bandwidth.
    """
    import pyarrow.compute as pc
    import ray

    ev = ds.map_batches(
        lambda b: b.filter(pc.equal(b.column(label_col), eval_label))
        .select([id_col, emb_col]),
        batch_format="pyarrow",
    )
    tabs = [b for b in ev.iter_batches(batch_format="pyarrow")]
    evt = pa.concat_tables([t for t in tabs if t.num_rows] or tabs)
    if evt.num_rows > eval_rows_max:
        raise ValueError(
            f"eval side has {evt.num_rows} rows > eval_rows_max="
            f"{eval_rows_max}; a broadcast eval matrix must fit one "
            "worker heap — shard the eval suite or raise the bound")
    eval_ids = evt.column(id_col).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    order = np.argsort(eval_ids)
    eval_ids = eval_ids[order]
    emat = _normalize(_embeddings_matrix(evt))[order]
    ref = ray.put((eval_ids, emat))

    def screen(b: pa.Table) -> pa.Table:
        ids_e, em = ray.get(ref)
        t = b.filter(pc.not_equal(b.column(label_col), eval_label))
        if t.num_rows == 0:
            return pa.table({id_col: pa.array([], type=pa.int64()),
                             "matched_eval_id": pa.array(
                                 [], type=pa.int64())})
        mat = _normalize(_embeddings_matrix(t.select([emb_col])))
        sims = mat @ em.T  # (B, E)
        hit = sims >= tau
        any_hit = hit.any(axis=1)
        # eval ids are ascending → argmax over the boolean row is the
        # SMALLEST matching id (deterministic tie-break)
        first = hit.argmax(axis=1)
        ids_t = t.column(id_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            id_col: pa.array(ids_t[any_hit], type=pa.int64()),
            "matched_eval_id": pa.array(ids_e[first[any_hit]],
                                        type=pa.int64()),
        })

    return ds.map_batches(screen, batch_format="pyarrow")
