"""Physical-layout operators: Z-order (Morton) clustering + zone maps.

The reference engine is strictly per-document and has no notion of
table layout; this is corpus-side engine surface for the 100 TB story.
``zorder_layout`` is the OPTIMIZE-ZORDER primitive of lakehouse
engines: interleave the bits of two (bucketed) dimension columns into
a Morton key, globally sort by it, cut the sorted order into k
equal-size output shards, and report each shard's zone map (per-shard
min/max of both dimensions). A reader filtering on EITHER dimension
can then prune shards whose zone map excludes the predicate — the
whole point of Z-order is that both columns stay range-clusterable at
once, where a plain sort only serves its leading column.

Everything is exact int64 arithmetic (bit spread + rank bin-packing),
so a SQL oracle can replay the layout decision bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

# 16-bit → 32-bit even-position bit spread (standard Morton magic
# numbers, the 32-bit ladder).
_SPREAD_STEPS = (
    (8, np.int64(0x00FF00FF)),
    (4, np.int64(0x0F0F0F0F)),
    (2, np.int64(0x33333333)),
    (1, np.int64(0x55555555)),
)


def spread_bits16(v: np.ndarray) -> np.ndarray:
    """Spread the low 16 bits of each value into the even bit
    positions of a 32-bit lane (b_i → bit 2i). Input must be int64 in
    [0, 2^16)."""
    v = v.astype(np.int64, copy=True)
    for shift, mask in _SPREAD_STEPS:
        v = (v | (v << shift)) & mask
    return v


def morton_key(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Interleave two ≤16-bit coordinates into one Morton (Z-order)
    key: x in even bits, y in odd bits. With 15-bit inputs the key is
    < 2^30, leaving room to compose a unique int64 sort key."""
    return spread_bits16(x) | (spread_bits16(y) << 1)


def zorder_layout(ds, x_col: str, y_col: str, id_col: str,
                  k: int = 16, bits: int = 15):
    """Z-order clustering plan with zone maps.

    Masks ``x_col`` / ``y_col`` to their low ``bits`` bits (the
    dimension-bucketing transform — real deployments Z-order on
    range-bucketed values for exactly this reason: the key width is
    fixed no matter the column domain), Morton-interleaves them,
    assigns each row to one of ``k`` equal-size shards by GLOBAL rank
    of ``(zkey, id)`` (TeraSort-style distributed ranking via
    `reshape.global_rank` — only block samples and a range-count table
    ever reach the driver), and returns the k-row shard
    plan: ``shard, n_rows, x_min, x_max, y_min, y_max, z_min, z_max``.

    ``id_col`` must be a unique non-negative int64 < 2^32 so the
    composite sort key ``zkey·2³² + id`` is unique and int64-exact
    (loud guard below). Shard rule: ``(rank-1)·k // n_total`` — the
    same contiguous bin-packing as `balanced_shards_plan`, here over
    the Z-order total order, giving near-equal row counts per output
    file regardless of key skew.

    At 100 TB: the expensive step is the one range exchange inside
    `global_rank`; zone maps are a k-row table. Writing the actual
    shards is a ``write_parquet`` partitioned by ``shard`` on the
    ranked dataset (not materialized here — the plan IS the output).
    """
    if bits < 1 or bits > 15:
        raise ValueError("bits must be in [1, 15] (two 15-bit lanes "
                         "+ a 32-bit id is the int64 budget)")
    if k < 1:
        raise ValueError("k must be >= 1")
    from smartreader_ray.functions.exchange import keyed_agg
    from smartreader_ray.functions.reshape import global_rank

    mask = np.int64((1 << bits) - 1)

    def keyed(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= (1 << 32)):
            raise ValueError(
                f"zorder_layout: {id_col} must be in [0, 2^32) to "
                "compose an int64-exact sort key; rebucket the id")
        x = b.column(x_col).to_numpy(zero_copy_only=False).astype(
            np.int64) & mask
        y = b.column(y_col).to_numpy(zero_copy_only=False).astype(
            np.int64) & mask
        z = morton_key(x, y)
        return pa.Table.from_pydict({
            "x": pa.array(x, type=pa.int64()),
            "y": pa.array(y, type=pa.int64()),
            "zkey": pa.array(z, type=pa.int64()),
            "ckey": pa.array(z * (1 << 32) + ids, type=pa.int64()),
        })

    prepped = ds.select_columns([x_col, y_col, id_col]).map_batches(
        keyed, batch_format="pyarrow").materialize()
    total = prepped.count()
    if total == 0:
        return prepped.drop_columns(["x", "y", "zkey", "ckey"])
    ranked = global_rank(prepped, "ckey")

    def stamp_shard(b: pa.Table) -> pa.Table:
        rn = b.column("rn").to_numpy(zero_copy_only=False)
        shard = (rn - 1) * k // total
        return b.append_column("shard", pa.array(shard, type=pa.int64()))

    zones = keyed_agg(
        ranked.map_batches(stamp_shard, batch_format="pyarrow"), "shard",
        {"n_rows": ("count", None), "x_min": ("min", "x"),
         "x_max": ("max", "x"), "y_min": ("min", "y"),
         "y_max": ("max", "y"), "z_min": ("min", "zkey"),
         "z_max": ("max", "zkey")})

    return zones


def zone_prune_fraction(zones_table: pa.Table, x_lo: int, x_hi: int,
                        y_lo: int, y_hi: int) -> dict:
    """Driver-side zone-map pruning check (the read-side payoff of the
    layout): given the k-row plan from `zorder_layout` and a query box,
    how many shards could a reader skip outright? Pure arithmetic on a
    k-row table — never touches data."""
    xmn = zones_table.column("x_min").to_numpy(zero_copy_only=False)
    xmx = zones_table.column("x_max").to_numpy(zero_copy_only=False)
    ymn = zones_table.column("y_min").to_numpy(zero_copy_only=False)
    ymx = zones_table.column("y_max").to_numpy(zero_copy_only=False)
    hit = (xmx >= x_lo) & (xmn <= x_hi) & (ymx >= y_lo) & (ymn <= y_hi)
    k = len(hit)
    return {"shards": k, "scanned": int(hit.sum()),
            "pruned": int(k - hit.sum())}
