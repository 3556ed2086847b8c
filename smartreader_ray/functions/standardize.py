"""Per-key feature standardization over integer-valued columns.

Z-scoring a column per group is the canonical two-phase broadcast
pattern: phase 1 reduces the corpus to per-key moment triples
(n, Σx, Σx²) — exact in int64, so the derived mean/std are the same
IEEE doubles on every engine that evaluates the same expression — and
phase 2 is a shuffle-free ``map_batches`` against the broadcast moments.
Nothing row-sized ever crosses an exchange; the only groupby input is
the key-cardinality-sized partial table.

Exactness bound: int64 moments require ``n_key · max(x)² < 2⁶³``
(≈9·10¹⁸ — e.g. 10¹² rows of values up to ~3000). Beyond that a
production variant should shift values per key or merge Welford states;
this module fails loudly instead of overflowing silently, via TWO
guards: a per-value magnitude check (so each ``v²`` product is exact),
and a float64 checksum — every int64 partial is accompanied by a
float64 partial summed through the same exchange, and after the merge
the int total is compared against the float approximation of the TRUE
total. An int64 wrap anywhere (inside a block's pandas sum or in the
Ray ``Sum`` merge) shifts the int total by ±k·2⁶⁴ ≈ 1.8·10¹⁹ while the
float total tracks the true value to ~10⁻¹⁰ relative, so the mismatch
is unmissable and raises ``OverflowError`` naming the fix.

The per-double arithmetic ORDER is part of the contract: mean = Σx/n,
msq = Σx²/n, var = msq − mean², z = (x − mean)/√var — the SQL oracle
(`__ray_entry__.py: quality_zscore`) spells out the identical
expression tree so both sides produce bit-equal doubles from the exact
integer moments.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import fits, keyed_agg


def _check_int_totals(int_totals: "np.ndarray", float_totals: "np.ndarray",
                      what: str) -> None:
    """Raise OverflowError if any int64 total disagrees with its float64
    checksum beyond float-summation error. A wrap shifts the int total
    by ≥2⁶⁴; float (pairwise) summation error is ≤ ~1e-10 relative, so
    tol = max(1e6, 1e-6·|float|) separates the two regimes cleanly."""
    diff = np.abs(int_totals.astype(np.float64) - float_totals)
    tol = np.maximum(1e6, 1e-6 * np.abs(float_totals))
    if np.any(diff > tol):
        raise OverflowError(
            f"int64 {what} moment total wrapped (n·max(x)² exceeded 2⁶³); "
            "shift values per key or use a Welford-merge variant"
        )


def _moment_rows(key_col: str, value_col: str):
    def fn(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch.column(key_col)))
        v = batch.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if np.any(np.abs(v) > 3_000_000_000):
            raise OverflowError(
                f"{value_col} values exceed the int64 moment bound; "
                "shift per key or use a Welford-merge variant"
            )
        vf = v.astype(np.float64)
        # one float checksum column suffices: for integer inputs
        # Σx² ≥ Σ|x|, so a Σx wrap forces a Σx² wrap — checking ss
        # covers s too (x² terms are non-negative, so wraps can never
        # cancel at the merge either)
        return pa.table({key_col: batch.column(key_col), "v": v,
                         "v2": v * v, "v2f": vf * vf})

    return fn


def zscore_by(ds, key_col: str, value_col: str, round_to: int = 6):
    """Append ``z`` = per-``key_col`` z-score of ``value_col``.

    Output columns: id columns of ``ds`` are preserved as-is plus ``z``
    (population std; a single-value or constant key yields null z).
    Per-key moments that ``exchange.fits`` are broadcast to a map over
    the rows; others are joined back (``_zscore_join_path``).
    """
    import ray

    rows = ds.select_columns([key_col, value_col]).map_batches(
        _moment_rows(key_col, value_col), batch_format="pyarrow"
    )
    totals, small = fits(keyed_agg(rows, key_col, {
        "n": ("count", None), "s": ("sum", "v"), "ss": ("sum", "v2"),
        "ss_f": ("sum", "v2f")}))
    if not small:
        return _zscore_join_path(ds, totals, key_col, value_col, round_to)
    moments = totals.to_pandas()
    _check_int_totals(moments["ss"].to_numpy(dtype=np.int64),
                      moments["ss_f"].to_numpy(dtype=np.float64), "Σx²")
    keys_idx = moments[key_col]
    stats_ref = ray.put(
        (
            dict(zip(keys_idx, moments["n"].astype("int64"))),
            dict(zip(keys_idx, moments["s"].astype("int64"))),
            dict(zip(keys_idx, moments["ss"].astype("int64"))),
        )
    )

    def score(batch: pa.Table) -> pa.Table:
        n_map, s_map, ss_map = ray.get(stats_ref)
        keys = batch.column(key_col).to_pandas()
        n = keys.map(n_map).to_numpy(dtype=np.float64)
        s = keys.map(s_map).to_numpy(dtype=np.float64)
        ss = keys.map(ss_map).to_numpy(dtype=np.float64)
        x = batch.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        mean = s / n
        var = ss / n - mean * mean
        with np.errstate(invalid="ignore", divide="ignore"):
            z = np.round((x - mean) / np.sqrt(var), round_to)
        z[~(var > 0)] = np.nan  # constant / single-value keys → null z
        return batch.append_column(
            "z", pa.array(z, type=pa.float64(), from_pandas=True)
        )

    return ds.map_batches(score, batch_format="pyarrow")


def _zscore_join_path(ds, totals, key_col: str, value_col: str,
                      round_to: int):
    """Scale regime of :func:`zscore_by`, for per-key moments past
    ``exchange.fits``: overflow-check the moment totals DISTRIBUTED (per
    totals block — the checksum gate is per-key, no driver collect),
    then hash-shuffle join the rows against the key-sized moment table
    and stamp z per joined batch with the IDENTICAL double expression
    tree as the broadcast path (same oracle contract). Row order is not
    preserved (the join exchange hash-partitions); z values are
    bit-equal."""
    from .join import hash_join

    def checked(b: pa.Table) -> pa.Table:
        _check_int_totals(
            b.column("ss").to_numpy(zero_copy_only=False).astype(np.int64),
            b.column("ss_f").to_numpy(zero_copy_only=False), "Σx²")
        return pa.table({
            "__zk": b.column(key_col),
            "__zn": pc.cast(b.column("n"), pa.int64()),
            "__zs": pc.cast(b.column("s"), pa.int64()),
            "__zss": pc.cast(b.column("ss"), pa.int64()),
        })

    mom = totals.map_batches(checked, batch_format="pyarrow")
    out_cols = list(ds.schema().names)
    joined = hash_join(
        ds, mom, left_key=key_col, right_key="__zk",
        left_cols=out_cols, right_cols=["__zn", "__zs", "__zss"],
        how="left",  # null-key rows keep null moments → null z, the
        # same verdict the broadcast path's map-miss produces
    )

    def score(batch: pa.Table) -> pa.Table:
        n = batch.column("__zn").to_numpy(zero_copy_only=False).astype(
            np.float64)
        s = batch.column("__zs").to_numpy(zero_copy_only=False).astype(
            np.float64)
        ss = batch.column("__zss").to_numpy(zero_copy_only=False).astype(
            np.float64)
        x = batch.column(value_col).to_numpy(
            zero_copy_only=False).astype(np.float64)
        mean = s / n
        var = ss / n - mean * mean
        with np.errstate(invalid="ignore", divide="ignore"):
            z = np.round((x - mean) / np.sqrt(var), round_to)
        z[~(var > 0)] = np.nan
        return batch.select(out_cols).append_column(
            "z", pa.array(z, type=pa.float64(), from_pandas=True)
        )

    return joined.map_batches(score, batch_format="pyarrow")


def _comoment_rows(key_col: str, x_col: str, y_col: str):
    def fn(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch.column(key_col)))
        x = batch.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
        y = batch.column(y_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if np.any(np.abs(x) > 3_000_000_000) or np.any(np.abs(y) > 3_000_000_000):
            raise OverflowError(
                "values exceed the int64 co-moment bound; shift per key first"
            )
        xf, yf = x.astype(np.float64), y.astype(np.float64)
        return pa.table({
            key_col: batch.column(key_col),
            "x": x, "y": y, "xx": x * x, "yy": y * y, "xy": x * y,
            "xxf": xf * xf, "yyf": yf * yf, "xyf": xf * yf,
        })

    return fn


def _comoment_totals(ds, key_col: str, x_col: str, y_col: str):
    """Shared reduction for :func:`corr_by` / :func:`linreg_by`: exact
    int64 co-moment totals per key (+ float64 overflow checksums)."""
    rows = ds.select_columns([key_col, x_col, y_col]).map_batches(
        _comoment_rows(key_col, x_col, y_col), batch_format="pyarrow"
    )
    return keyed_agg(rows, key_col, {
        "n": ("count", None),
        **{"s" + c: ("sum", c) for c in ("x", "y", "xx", "yy", "xy")},
        **{f"s{c}_f": ("sum", f"{c}f") for c in ("xx", "yy", "xy")}})


def linreg_by(ds, key_col: str, x_col: str, y_col: str, round_to: int = 6):
    """Per-key ordinary least squares ``y = intercept + slope·x`` from
    the SAME exact int64 co-moments as :func:`corr_by` (one
    key-cardinality-sized exchange, overflow-checksummed). Closed form
    evaluated in a fixed double-precision order — each exact integer
    product cast to double FIRST — so the SQL oracle spelling the same
    tree is bit-equal:

        slope     = (n·Σxy − Σx·Σy) / (n·Σx² − (Σx)²)
        intercept = (Σy − slope·Σx) / n
        r2        = corr²  (NULL when x is constant)

    The trend-fitting primitive for corpus dashboards (tokens-vs-time,
    quality-vs-length) — a model FIT distributed via sufficient
    statistics, the same pattern as the bigram LM's integer counts.
    """
    import numpy as np

    totals = _comoment_totals(ds, key_col, x_col, y_col)

    def finalize(b: pa.Table) -> pa.Table:
        for c in ("sxx", "syy", "sxy"):
            _check_int_totals(
                b.column(c).to_numpy(zero_copy_only=False).astype(np.int64),
                b.column(c + "_f").to_numpy(zero_copy_only=False), "Σ" + c[1:]
            )
        n = b.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        sx = b.column("sx").to_numpy(zero_copy_only=False).astype(np.float64)
        sy = b.column("sy").to_numpy(zero_copy_only=False).astype(np.float64)
        sxx = b.column("sxx").to_numpy(zero_copy_only=False).astype(np.float64)
        syy = b.column("syy").to_numpy(zero_copy_only=False).astype(np.float64)
        sxy = b.column("sxy").to_numpy(zero_copy_only=False).astype(np.float64)
        num = n * sxy - sx * sy
        vx = n * sxx - sx * sx
        vy = n * syy - sy * sy
        with np.errstate(invalid="ignore", divide="ignore"):
            slope = num / vx
            intercept = (sy - slope * sx) / n
            r2 = (num / (np.sqrt(vx) * np.sqrt(vy))) ** 2
        bad = ~(vx > 0)
        slope[bad] = np.nan
        intercept[bad] = np.nan
        r2[bad | ~(vy > 0)] = np.nan
        return pa.table(
            {
                key_col: b.column(key_col),
                "n": b.column("n"),
                "slope": pa.array(np.round(slope, round_to),
                                  type=pa.float64(), from_pandas=True),
                "intercept": pa.array(np.round(intercept, round_to),
                                      type=pa.float64(), from_pandas=True),
                "r2": pa.array(np.round(r2, round_to),
                               type=pa.float64(), from_pandas=True),
            }
        )

    return totals.map_batches(finalize, batch_format="pyarrow")


def corr_by(ds, key_col: str, x_col: str, y_col: str, round_to: int = 6):
    """Per-key Pearson correlation of two integer columns from EXACT
    int64 co-moments (n, Σx, Σy, Σx², Σy², Σxy) — one key-cardinality-
    sized exchange, nothing row-sized. The closed form is evaluated in
    a fixed double-precision order — each exact int64 product cast to
    double FIRST, then IEEE subtract/divide — and the SQL oracle must
    spell the same tree (``CAST(n*sxy AS DOUBLE) - CAST(sx*sy AS
    DOUBLE)``, not int subtraction then one cast) for bit-equal output.

    Output: (key_col, n, corr) with corr NULL when either variance is 0.
    """
    totals = _comoment_totals(ds, key_col, x_col, y_col)

    def finalize(b: pa.Table) -> pa.Table:
        # checksum gate: for integer inputs a Σx/Σy wrap forces a Σx²/Σy²
        # wrap (Σx² ≥ Σ|x| for ints), so the squared/cross sums cover all
        for c in ("sxx", "syy", "sxy"):
            _check_int_totals(
                b.column(c).to_numpy(zero_copy_only=False).astype(np.int64),
                b.column(c + "_f").to_numpy(zero_copy_only=False), "Σ" + c[1:]
            )
        n = b.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        sx = b.column("sx").to_numpy(zero_copy_only=False).astype(np.float64)
        sy = b.column("sy").to_numpy(zero_copy_only=False).astype(np.float64)
        sxx = b.column("sxx").to_numpy(zero_copy_only=False).astype(np.float64)
        syy = b.column("syy").to_numpy(zero_copy_only=False).astype(np.float64)
        sxy = b.column("sxy").to_numpy(zero_copy_only=False).astype(np.float64)
        num = n * sxy - sx * sy
        vx = n * sxx - sx * sx
        vy = n * syy - sy * sy
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = np.round(num / (np.sqrt(vx) * np.sqrt(vy)), round_to)
        corr[~((vx > 0) & (vy > 0))] = np.nan
        return pa.table(
            {
                key_col: b.column(key_col),
                "n": b.column("n"),
                "corr": pa.array(corr, type=pa.float64(), from_pandas=True),
            }
        )

    return totals.map_batches(finalize, batch_format="pyarrow")


def mad_outliers(ds, key_col: str, value_col: str, k: float = 3.0):
    """Robust per-key outlier detection via Median Absolute Deviation:
    med = percentile_disc(0.5) of the values, mad = percentile_disc(0.5)
    of |v − med|, outlier ⇔ |v − med| > k·mad (strict). The
    mean/std z-score (`zscore_by`) is itself dragged by the outliers it
    hunts; MAD has a 50 % breakdown point — the robust-statistics
    standard for heavy-tailed quality signals.

    Exactness without rounding: med and mad are DATA values (discrete
    quantile convention, `sketch.exact_quantile_by`), and |v − med| /
    k·mad / the comparison are single IEEE ops evaluated identically by
    the SQL replay — bit-equal doubles end to end.

    Ray shape: two histogram reductions (each exchanges only keys ×
    distinct values × blocks rows) with a key-sized broadcast between
    and after — the value pass is shuffle-free both times; the final
    count is a key-sized groupby. Three passes over the input is the
    honest cost of nested medians; each is a pruned-column scan.
    """
    import numpy as np
    import ray

    from .sketch import exact_quantile_by

    def qmap(qds):
        out = {}
        for r in qds.iter_rows():  # key-sized by construction
            out[r[key_col]] = float(r["value"])
        return out

    med_ref = ray.put(qmap(exact_quantile_by(ds, key_col, value_col,
                                             qs=(0.5,))))

    def add_dev(b: pa.Table) -> pa.Table:
        med = ray.get(med_ref)
        keys = b.column(key_col).to_pylist()
        v = b.column(value_col).to_numpy(zero_copy_only=False).astype(
            np.float64)
        m = np.asarray([med[kk] for kk in keys], dtype=np.float64)
        return pa.table({
            key_col: b.column(key_col),
            "dev": pa.array(np.abs(v - m), type=pa.float64()),
        })

    dev_ds = ds.select_columns([key_col, value_col]).map_batches(
        add_dev, batch_format="pyarrow")
    mad_ref = ray.put(qmap(exact_quantile_by(dev_ds, key_col, "dev",
                                             qs=(0.5,))))

    def outliers(b: pa.Table) -> pa.Table:
        med = ray.get(med_ref)
        mad = ray.get(mad_ref)
        keys = b.column(key_col).to_pylist()
        v = b.column(value_col).to_numpy(zero_copy_only=False).astype(
            np.float64)
        m = np.asarray([med[kk] for kk in keys], dtype=np.float64)
        t = np.asarray([mad[kk] for kk in keys], dtype=np.float64)
        return pa.table({
            key_col: b.column(key_col),
            "n_outliers": (np.abs(v - m) > k * t).astype(np.int64),
        })

    counted = keyed_agg(ds.select_columns([key_col, value_col])
                        .map_batches(outliers, batch_format="pyarrow"),
                        key_col, {"n": ("count", None),
                                  "n_outliers": ("sum", "n_outliers")})

    def finalize(b: pa.Table) -> pa.Table:
        med = ray.get(med_ref)
        mad = ray.get(mad_ref)
        keys = b.column(key_col).to_pylist()
        return pa.table({
            key_col: b.column(key_col),
            "n": b.column("n"),
            "med": pa.array([med[kk] for kk in keys],
                            type=pa.float64()),
            "mad": pa.array([mad[kk] for kk in keys],
                            type=pa.float64()),
            "n_outliers": b.column("n_outliers"),
        })

    return counted.map_batches(
        finalize, batch_format="pyarrow")


def impute_median(ds, key_col: str, value_col: str):
    """Null imputation with the per-key EXACT median (percentile_disc
    0.5 of the key's non-null values) — the standard numeric-cleaning
    step before training-feature export. Keys whose values are ALL
    null keep their nulls (inventing a value for an empty distribution
    would be silent data corruption); every other column passes
    through untouched.

    Exactness: the imputed value is a DATA value (discrete quantile
    convention, `sketch.exact_quantile_by`), so downstream integer-cent
    rollups stay hash-exact against a SQL replay.

    Ray shape: one histogram reduction over the non-null rows (exchange
    is keys × distinct values × blocks — `exact_quantile_by`), the
    key-sized median map is ``ray.put`` once, and the fill pass is a
    shuffle-free vectorized ``index_in`` + ``if_else`` over every
    batch. Two pruned scans total; the row-sized data never shuffles.
    """
    import ray

    from .sketch import exact_quantile_by

    present = ds.map_batches(
        lambda b: b.select([key_col, value_col]).filter(
            pc.is_valid(b.column(value_col))),
        batch_format="pyarrow",
    )
    med_rows = exact_quantile_by(present, key_col, value_col,
                                 qs=(0.5,)).take_all()  # key-sized
    med_keys, med_vals = [], []
    for r in med_rows:
        med_keys.append(r[key_col])
        med_vals.append(float(r["value"]))
    key_type = dict(zip(ds.schema().names, ds.schema().types))[key_col]
    ref = ray.put((pa.array(med_keys, type=key_type),
                   pa.array(med_vals, type=pa.float64())))

    def fill(b: pa.Table) -> pa.Table:
        mk, mv = ray.get(ref)
        v = pc.cast(b.column(value_col), pa.float64())
        idx = pc.index_in(b.column(key_col), value_set=mk)
        fills = pc.take(mv, idx)  # null where key has no median
        out = pc.if_else(pc.is_valid(v), v, fills)
        i = b.column_names.index(value_col)
        return b.set_column(i, value_col, out)

    return ds.map_batches(fill, batch_format="pyarrow")


def quantile_normalize_by(ds, group_col: str, value_col: str,
                          baseline: str):
    """Quantile normalization against a baseline group: every value is
    mapped to the BASELINE group's value at the same cumulative rank —
    the feature-prep standard for making per-source score
    distributions comparable (microarray lineage) before a global
    threshold is applied.

    Exactness without floats: with c_g(v) = # values <= v in group g
    and n_g = |g|, the normalized value is the smallest baseline value
    w with c_b(w) * n_g >= c_g(v) * n_b — integer cross-multiplication
    in place of a rank-fraction comparison, so the gate is hash-exact
    and the output is a baseline DATA value.

    Ray shape: ONE (group, value) count exchange (distinct-values x
    blocks rows); the cumulative walk + searchsorted mapping runs on
    the histogram-sized aggregate in a single block. Returns the
    mapping table (group, value, n, normalized) — joinable back
    to rows with a broadcast when per-row output is needed.
    """
    def cells(b: pa.Table) -> pa.Table:
        return pa.table({
            "grp": b.column(group_col).cast(pa.string()),
            "value": b.column(value_col).cast(pa.float64()),
        })

    hist = keyed_agg(ds.select_columns([group_col, value_col])
                     .map_batches(cells, batch_format="pyarrow"),
                     ["grp", "value"], {"n": ("count", None)})

    def normalize(b: pa.Table) -> pa.Table:
        grp = np.asarray(b.column("grp").to_pylist())
        val = b.column("value").to_numpy(zero_copy_only=False)
        cnt = b.column("n").to_numpy(zero_copy_only=False).astype(
            np.int64)
        order = np.lexsort((val, grp))
        grp, val, cnt = grp[order], val[order], cnt[order]
        out_norm = np.empty(len(val), dtype=np.float64)
        # per-group cumulative counts (groups are contiguous after sort)
        uniq, starts = np.unique(grp, return_index=True)
        bounds = dict(zip(uniq, starts))
        if baseline not in bounds:
            raise ValueError(f"quantile_normalize_by: baseline group "
                             f"{baseline!r} absent from input")
        ends = dict(zip(uniq, list(starts[1:]) + [len(grp)]))
        cums = {}
        for g in uniq:
            s, e = bounds[g], ends[g]
            cums[g] = np.cumsum(cnt[s:e])
        b_s, b_e = bounds[baseline], ends[baseline]
        bw = val[b_s:b_e]
        bc = cums[baseline]
        nb = int(bc[-1])
        for g in uniq:
            s, e = bounds[g], ends[g]
            cg = cums[g]
            ng = int(cg[-1])
            # smallest baseline w with cb*ng >= cg*nb
            idx = np.searchsorted(bc * ng, cg * nb, side="left")
            out_norm[s:e] = bw[np.minimum(idx, len(bw) - 1)]
        return pa.table({
            group_col: pa.array(grp, type=pa.string()),
            value_col: pa.array(val, type=pa.float64()),
            "n": pa.array(cnt, type=pa.int64()),
            "normalized": pa.array(out_norm, type=pa.float64()),
        })

    return (hist.repartition(1)
            .map_batches(normalize, batch_format="pyarrow"))
