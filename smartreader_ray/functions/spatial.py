"""Spatial operators: grid-bucketed within-distance joins.

Engine surface beyond the per-document reference: the standard
shuffle-safe spatial join. Both point sets are bucketed into square
grid cells whose side equals the join radius; the smaller (right) side
is replicated into each cell's 3x3 neighborhood, so after ONE cell-keyed
exchange every left point meets exactly the candidate set that can be
within Chebyshev radius ``d`` — the classic "replicate the small side
into halo cells" plan (same family as Sedona/Magellan grid joins), never
an all-pairs cross join.

Coordinates are caller-derived integers (bucketed/quantized positions),
so distances and the join decision are exact int64 arithmetic a SQL
oracle replays verbatim.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa

from .exchange import map_groups

_LOG = logging.getLogger(__name__)

_CELL_SHIFT = 1 << 20  # composite cell id = cx * 2^20 + cy


def grid_join(left, right, d: int,
              left_id: str = "id", right_id: str = "id",
              x_col: str = "x", y_col: str = "y",
              right_id_scale: int = 1_000_000,
              max_per_cell: int = 100_000):
    """Within-Chebyshev-distance-``d`` join of two integer point sets.

    ``left`` / ``right``: datasets with columns (``left_id``/``right_id``,
    ``x_col``, ``y_col``), coordinates non-negative int64 < 2^20.

    Returns one row per LEFT point with at least one right point within
    Chebyshev distance ``d``::

        <left_id>, n_within, min_d2, nearest_<right_id>

    where ``min_d2`` is the minimum squared EUCLIDEAN distance among
    qualifying rights and ``nearest`` the lowest right id achieving it
    (ties broken by id via the exact composite ``d2·scale + id``, so the
    result is a total-order pick, reproducible under any partitioning).

    Ray shape: left stamped with its cell, right flat-mapped to its 9
    neighbor cells (9x a SMALL side, the explicit trade against an
    all-to-all), one ``groupby(cell)`` exchange, then a vectorized
    LxR check inside each cell — each left point's candidates are fully
    contained in its own cell's group, so per-cell results are final
    (no second aggregation). ``max_per_cell`` is the loud skew guard:
    a degenerate cell would make the in-cell product quadratic; raise
    the grid resolution (smaller ``d`` buckets) instead.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    from ray.data import Dataset  # noqa: F401  (documentation import)

    def stamp_left(b: pa.Table) -> pa.Table:
        x = b.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
        y = b.column(y_col).to_numpy(zero_copy_only=False).astype(np.int64)
        ids = b.column(left_id).to_numpy(zero_copy_only=False).astype(
            np.int64)
        cell = (x // d) * _CELL_SHIFT + (y // d)
        return pa.Table.from_pydict({
            "cell": pa.array(cell, type=pa.int64()),
            "side": pa.array(np.zeros(len(ids), dtype=np.int8)),
            "pid": pa.array(ids, type=pa.int64()),
            "px": pa.array(x, type=pa.int64()),
            "py": pa.array(y, type=pa.int64()),
        })

    def replicate_right(b: pa.Table) -> pa.Table:
        x = b.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
        y = b.column(y_col).to_numpy(zero_copy_only=False).astype(np.int64)
        ids = b.column(right_id).to_numpy(zero_copy_only=False).astype(
            np.int64)
        if ids.size and ids.max() >= right_id_scale:
            raise ValueError(
                f"grid_join: {right_id} >= right_id_scale "
                f"({right_id_scale}); raise the scale")
        n = len(ids)
        cx, cy = x // d, y // d
        cells = []
        for ox in (-1, 0, 1):
            for oy in (-1, 0, 1):
                cells.append((cx + ox) * _CELL_SHIFT + (cy + oy))
        cell = np.concatenate(cells)
        rep = np.tile(np.arange(n), 9)
        return pa.Table.from_pydict({
            "cell": pa.array(cell, type=pa.int64()),
            "side": pa.array(np.ones(9 * n, dtype=np.int8)),
            "pid": pa.array(ids[rep], type=pa.int64()),
            "px": pa.array(x[rep], type=pa.int64()),
            "py": pa.array(y[rep], type=pa.int64()),
        })

    out_nearest = f"nearest_{right_id}"

    def per_cell(g: pa.Table) -> pa.Table:
        empty = pa.Table.from_pydict({
            left_id: pa.array([], type=pa.int64()),
            "n_within": pa.array([], type=pa.int64()),
            "min_d2": pa.array([], type=pa.int64()),
            out_nearest: pa.array([], type=pa.int64()),
        })
        if g.num_rows > max_per_cell:
            raise ValueError(
                f"grid_join: cell holds {g.num_rows} points "
                f"(max_per_cell={max_per_cell}) — degenerate hot cell; "
                "use a finer grid (smaller d buckets) or pre-split")
        side = g.column("side").to_numpy(zero_copy_only=False)
        lmask = side == 0
        if not lmask.any() or lmask.all():
            return empty
        pid = g.column("pid").to_numpy(zero_copy_only=False)
        px = g.column("px").to_numpy(zero_copy_only=False)
        py = g.column("py").to_numpy(zero_copy_only=False)
        lx, ly, lid = px[lmask], py[lmask], pid[lmask]
        rx, ry, rid = px[~lmask], py[~lmask], pid[~lmask]
        dx = lx[:, None] - rx[None, :]
        dy = ly[:, None] - ry[None, :]
        ok = (np.abs(dx) <= d) & (np.abs(dy) <= d)
        n_within = ok.sum(axis=1)
        comp = np.where(ok, (dx * dx + dy * dy) * right_id_scale
                        + rid[None, :], np.iinfo(np.int64).max)
        best = comp.min(axis=1)
        keep = n_within > 0
        if not keep.any():
            return empty
        return pa.Table.from_pydict({
            left_id: pa.array(lid[keep], type=pa.int64()),
            "n_within": pa.array(n_within[keep], type=pa.int64()),
            "min_d2": pa.array(best[keep] // right_id_scale,
                               type=pa.int64()),
            out_nearest: pa.array(best[keep] % right_id_scale,
                                  type=pa.int64()),
        })

    tagged_l = left.select_columns([left_id, x_col, y_col]).map_batches(
        stamp_left, batch_format="pyarrow")
    tagged_r = right.select_columns([right_id, x_col, y_col]).map_batches(
        replicate_right, batch_format="pyarrow")
    return map_groups([tagged_l, tagged_r], "cell", per_cell)


def multiplicative_coords(ds, key_col: str, grid: int = 1024,
                          out_x: str = "x", out_y: str = "y"):
    """Deterministic synthetic point positions from an integer key —
    Knuth multiplicative hashing, top bits of two 32-bit products:
    ``coord = ((key·A) mod 2^32) // (2^32/grid)``. Pure int64 both
    sides of the oracle gate; the stand-in for a real lat/lon bucketing
    step (geohash cell ids) the sandbox's tables don't carry."""
    if grid & (grid - 1):
        raise ValueError("grid must be a power of two")
    div = (1 << 32) // grid

    def derive(b: pa.Table) -> pa.Table:
        k = b.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
        x = ((k * 2654435761) % (1 << 32)) // div
        y = ((k * 2246822519) % (1 << 32)) // div
        b = b.append_column(out_x, pa.array(x, type=pa.int64()))
        return b.append_column(out_y, pa.array(y, type=pa.int64()))

    return ds.map_batches(derive, batch_format="pyarrow")
