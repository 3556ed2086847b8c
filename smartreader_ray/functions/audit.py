"""Data-quality audit: declarative constraint checking at scale.

The Deequ/Great-Expectations-shaped operator a production pipeline runs
before promoting a snapshot: a fixed set of DECLARED rules, one streaming
pass for all row-local rules (null / range / accepted-values), plus the
two rules that need more than a row to decide — uniqueness (one key
groupby) and referential integrity (broadcast dimension keyset; swap in
`functions/join.py`'s Bloom path when the dimension stops being
broadcastable). Output is the tiny ``(rule, n_violations, n_checked)``
report — integers end to end, so the gate is hash-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import keyed_agg, keyed_agg_table


@dataclass(frozen=True)
class NotNull:
    col: str
    name: str = ""


@dataclass(frozen=True)
class GreaterThan:
    col: str
    lo: float
    name: str = ""


@dataclass(frozen=True)
class InSet:
    col: str
    values: tuple = field(default_factory=tuple)
    name: str = ""


@dataclass(frozen=True)
class Unique:
    col: str
    name: str = ""


@dataclass(frozen=True)
class ForeignKey:
    col: str
    ref_col: str = ""
    name: str = ""
    # ref dataset is passed to dq_report separately (datasets aren't
    # hashable dataclass fields)


def _rule_name(r) -> str:
    if r.name:
        return r.name
    return f"{type(r).__name__.lower()}_{r.col}"


def dq_report(ds, rules: list, fk_refs: dict | None = None) -> pa.Table:
    """Run the declared ``rules`` over ``ds`` and return the audit
    report: one row per rule, ``rule, n_violations, n_checked``,
    sorted by rule name.

    ``fk_refs`` maps a ForeignKey rule's ``name`` (or default name) to
    its reference DATASET; the reference keyset is collected once and
    broadcast (``ray.put``) — the dimension-table regime. Row-local
    rules share a single streaming pass; per-block partials are
    (rule, 2 ints) rows, so the exchange is rule-count-sized.

    The report is a driver-side table bounded by len(rules) — never by
    data size.
    """
    import ray

    local_rules = [r for r in rules
                   if isinstance(r, (NotNull, GreaterThan, InSet))]
    uniq_rules = [r for r in rules if isinstance(r, Unique)]
    fk_rules = [r for r in rules if isinstance(r, ForeignKey)]
    if len(local_rules) + len(uniq_rules) + len(fk_rules) != len(rules):
        raise ValueError("unknown rule type in rules")

    results: dict[str, tuple[int, int]] = {}

    # --- one pass for all row-local rules -------------------------------
    if local_rules:
        cols = sorted({r.col for r in local_rules})

        def partial(b: pa.Table) -> pa.Table:
            names, viol, checked = [], [], []
            for r in local_rules:
                col = b.column(r.col)
                n = b.num_rows
                if isinstance(r, NotNull):
                    v = col.null_count
                elif isinstance(r, GreaterThan):
                    ok = pc.greater(col, r.lo)
                    v = n - pc.sum(pc.cast(ok, pa.int64())).as_py() \
                        if n else 0
                else:  # InSet
                    ok = pc.is_in(col, value_set=pa.array(list(r.values)))
                    v = n - pc.sum(pc.cast(ok, pa.int64())).as_py() \
                        if n else 0
                names.append(_rule_name(r))
                viol.append(int(v))
                checked.append(n)
            return pa.Table.from_pydict({
                "rule": pa.array(names, type=pa.string()),
                "n_violations": pa.array(viol, type=pa.int64()),
                "n_checked": pa.array(checked, type=pa.int64()),
            })

        agg = keyed_agg_table(
            ds.select_columns(cols).map_batches(partial,
                                                batch_format="pyarrow"),
            "rule", {"n_violations": ("sum", "n_violations"),
                     "n_checked": ("sum", "n_checked")})
        for row in agg.to_pylist():
            results[row["rule"]] = (int(row["n_violations"]),
                                    int(row["n_checked"]))

    # --- uniqueness: one key groupby, dup rows = sum(cnt-1 | cnt>1) -----
    for r in uniq_rules:
        counts = keyed_agg(ds.select_columns([r.col]), r.col,
                           {"c": ("count", None)})

        def dup_partial(b: pa.Table) -> pa.Table:
            c = b.column("c").to_numpy(zero_copy_only=False)
            return pa.Table.from_pydict({
                "d": pa.array([int(c[c > 1].sum() - (c > 1).sum())],
                              type=pa.int64()),
                "n": pa.array([int(c.sum())], type=pa.int64()),
            })

        # one (d, n) row per block of key counts reaches the driver
        parts = counts.map_batches(dup_partial,
                                   batch_format="pyarrow").take_all()
        results[_rule_name(r)] = (sum(p["d"] for p in parts),
                                  sum(p["n"] for p in parts))

    # --- referential integrity: broadcast dimension keyset --------------
    for r in fk_rules:
        nm = _rule_name(r)
        if not fk_refs or nm not in fk_refs:
            raise ValueError(f"ForeignKey rule {nm} needs fk_refs[{nm!r}]")
        ref_ds, ref_col = fk_refs[nm], (r.ref_col or r.col)
        keys = np.unique(np.concatenate(
            [b[ref_col] for b in ref_ds.select_columns([ref_col])
             .iter_batches(batch_format="numpy")]
            or [np.array([], dtype=np.int64)]).astype(np.int64))
        keys_ref = ray.put(keys)

        def fk_partial(b: pa.Table, _col=r.col, _kr=keys_ref) -> pa.Table:
            ks = ray.get(_kr)
            col = b.column(_col)
            vals = col.drop_null().to_numpy(zero_copy_only=False).astype(
                np.int64)
            if ks.size == 0:
                miss = len(vals)
            else:
                pos = np.searchsorted(ks, vals)
                in_set = (pos < ks.size) & (
                    ks[np.minimum(pos, ks.size - 1)] == vals)
                miss = int(len(vals) - in_set.sum())
            return pa.Table.from_pydict({
                "d": pa.array([int(miss)], type=pa.int64()),
                "n": pa.array([len(vals)], type=pa.int64()),
            })

        s = (ds.select_columns([r.col])
             .map_batches(fk_partial, batch_format="pyarrow")
             .sum(["d", "n"]))
        results[nm] = (int(s["sum(d)"]), int(s["sum(n)"]))

    names = sorted(results)
    return pa.table({
        "rule": pa.array(names, type=pa.string()),
        "n_violations": pa.array([results[n][0] for n in names],
                                 type=pa.int64()),
        "n_checked": pa.array([results[n][1] for n in names],
                              type=pa.int64()),
    })


def psi_drift(ds, group_col: str, value_col: str, baseline: str,
              nbins: int = 16, bin_width: float = 64.0):
    """Population Stability Index between each group's value
    distribution and the ``baseline`` group's — the standard
    drift-detection gate (credit-risk lineage; PSI > 0.25 = major
    shift) run before promoting a new corpus snapshot: has src_k's
    length/score profile moved against the reference source?

    Fixed-width bins (floor(v / bin_width), clamped to nbins-1) keep
    the binning data-independent, and counts are exact integers off ONE
    pre-aggregated (group, bin) exchange of at most groups x bins x
    blocks rows. Add-one smoothing handles empty bins. Per-bin floats
    are ONE shared IEEE tree — p = (c+1)/(n+nbins) via double division,
    term = (q - p) * ln(q / p) with libm log (math.log == DuckDB ln
    bit-exact; the numpy SIMD log is NOT and is avoided) — so the gate
    hashes the floats too. PSI totals are left to the consumer (a
    16-term float sum is order-sensitive; the per-bin rows are the
    reproducible artifact).

    Returns (group, bin, expected_n, actual_n, psi_term) for every
    group except the baseline, dense over all bins.
    """
    import math

    def bin_rows(b: pa.Table) -> pa.Table:
        v = b.column(value_col).to_numpy(zero_copy_only=False)
        bins = np.minimum(np.floor(v / bin_width).astype(np.int64),
                          nbins - 1)
        return pa.table({
            "group": b.column(group_col).cast(pa.string()),
            "bin": pa.array(bins, type=pa.int64()),
        })

    agg = keyed_agg(ds.select_columns([group_col, value_col])
                    .map_batches(bin_rows, batch_format="pyarrow"),
                    ["group", "bin"], {"c": ("count", None)})

    def finalize(b: pa.Table) -> pa.Table:
        groups = b.column("group").to_pylist()
        bins = b.column("bin").to_numpy(zero_copy_only=False)
        c = b.column("c").to_numpy(zero_copy_only=False)
        dense: dict[str, np.ndarray] = {}
        for g, bi, ci in zip(groups, bins, c):
            dense.setdefault(g, np.zeros(nbins, dtype=np.int64))[bi] = ci
        if baseline not in dense:
            raise ValueError(f"psi_drift: baseline group {baseline!r} "
                             "absent from input")
        cb = dense[baseline]
        nb = int(cb.sum())
        out = {"group": [], "bin": [], "expected_n": [],
               "actual_n": [], "psi_term": []}
        for g in sorted(dense):
            if g == baseline:
                continue
            cg = dense[g]
            ng = int(cg.sum())
            for bi in range(nbins):
                p = (int(cb[bi]) + 1) / (nb + nbins)
                q = (int(cg[bi]) + 1) / (ng + nbins)
                out["group"].append(g)
                out["bin"].append(bi)
                out["expected_n"].append(int(cb[bi]))
                out["actual_n"].append(int(cg[bi]))
                out["psi_term"].append((q - p) * math.log(q / p))
        return pa.table({
            "group": pa.array(out["group"], type=pa.string()),
            "bin": pa.array(out["bin"], type=pa.int64()),
            "expected_n": pa.array(out["expected_n"], type=pa.int64()),
            "actual_n": pa.array(out["actual_n"], type=pa.int64()),
            "psi_term": pa.array(out["psi_term"], type=pa.float64()),
        })

    # groups x bins rows by construction — one block
    return (agg.repartition(1)
            .map_batches(finalize, batch_format="pyarrow"))


def embedding_audit(ds, dim: int = 64, vec_col: str = "embedding",
                    group_col: str = "label"):
    """Embedding-table health audit — the vector-side dq_report: per
    ``group_col``, how many vectors exist and how many are UNUSABLE for
    similarity math (wrong dimension, any non-finite element, or
    all-zero — an all-zero vector has no direction, so cosine against
    it is undefined and silently poisons ANN/k-means stages downstream).

    Every output is an exact integer count, so the whole audit replays
    in SQL (all-zero is checked as min=max=0 per list — equivalent to
    ||v||=0 without a float norm). Vectorized per block: one flatten +
    isfinite/abs-extrema reduceat pass; only group-sized integer
    partials exchange.

    Returns (group, n_vecs, n_bad_dim, n_nonfinite, n_zero).
    """
    import numpy as np

    def flags(b: pa.Table) -> pa.Table:
        col = b.column(vec_col).combine_chunks()
        off = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        starts, ends = off[:-1] - off[0], off[1:] - off[0]
        lens = ends - starts
        vals = col.flatten().to_numpy(zero_copy_only=False).astype(
            np.float64)
        bad_dim = lens != dim
        nonempty = lens > 0
        nonfin = np.zeros(len(lens), dtype=bool)
        zero = np.zeros(len(lens), dtype=bool)
        if vals.size and nonempty.any():
            s = starts[nonempty]
            bad_vals = (~np.isfinite(vals)).astype(np.int64)
            nonfin[nonempty] = np.add.reduceat(bad_vals, s) > 0
            zero[nonempty] = np.maximum.reduceat(np.abs(vals), s) == 0
            # NaN propagates through abs/maximum -> NaN max != 0: a
            # non-finite vector is never also counted as zero
            zero &= ~nonfin
        t = pa.table({
            "group": b.column(group_col),
            "n_bad_dim": bad_dim.astype(np.int64),
            "n_nonfinite": nonfin.astype(np.int64),
            "n_zero": zero.astype(np.int64),
        })
        return t.filter(pc.is_valid(t.column("group")))  # no null group

    sums = ("n_bad_dim", "n_nonfinite", "n_zero")
    return keyed_agg(ds.select_columns([group_col, vec_col])
                     .map_batches(flags, batch_format="pyarrow"),
                     "group", {"n_vecs": ("count", None),
                               **{c: ("sum", c) for c in sums}})


def ks_drift(ds, group_col: str, value_col: str, baseline: str):
    """Two-sample Kolmogorov–Smirnov drift of every group's
    ``value_col`` distribution against ``baseline`` — the UNBINNED
    companion of ``psi_drift`` (no bin-edge tuning; sensitive to any
    CDF deviation). KS = max over observed values v of
    |F_g(v) − F_b(v)|, computed EXACTLY on the common denominator
    n_g·n_b: ks_num = max |cum_g(v)·n_b − cum_b(v)·n_g| is pure int64
    (guarded n_g·n_b < 2⁶²) and the statistic is ONE IEEE division.

    Scale shape: one (group, value) counting exchange (pre-combined
    per block); the finalize runs on the dense |values|×|groups|
    grid — value-distribution-sized, the psi_drift legitimacy (a
    bounded metric has bounded distinct values; for an unbounded one,
    quantize first).

    Returns (group, n_group, n_base, ks_num, ks), baseline excluded.
    """
    import numpy as np

    counts = keyed_agg(ds.select_columns([group_col, value_col]),
                       [group_col, value_col], {"c": ("count", None)})

    def finalize(b: pa.Table) -> pa.Table:
        import pandas as pd

        df = b.to_pandas()
        piv = (df.pivot_table(index=value_col, columns=group_col,
                              values="c", aggfunc="sum", fill_value=0)
               .sort_index())
        if baseline not in piv.columns:
            raise ValueError(f"ks_drift: baseline {baseline!r} absent")
        cum = piv.cumsum().to_numpy(dtype=np.int64)
        groups = list(piv.columns)
        n = cum[-1, :] if len(cum) else np.zeros(len(groups),
                                                 dtype=np.int64)
        bi = groups.index(baseline)
        nb = int(n[bi])
        out = {"group": [], "n_group": [], "n_base": [],
               "ks_num": [], "ks": []}
        for gi, g in enumerate(groups):
            if g == baseline:
                continue
            ng = int(n[gi])
            if ng * nb >= (1 << 62):
                raise OverflowError(
                    "ks_drift: n_group*n_base >= 2^62 wraps the exact "
                    "numerator; subsample or shard first")
            num = int(np.abs(cum[:, gi] * nb - cum[:, bi] * ng).max()) \
                if len(cum) else 0
            out["group"].append(g)
            out["n_group"].append(ng)
            out["n_base"].append(nb)
            out["ks_num"].append(num)
            # float() the denominator FIRST: the SQL promotes the int
            # product to DOUBLE before dividing, and above 2^53 that
            # rounds differently than python's exact int division
            out["ks"].append(num / float(ng * nb) if ng and nb else 0.0)
        return pa.table({
            "group": pa.array(out["group"], type=pa.string()),
            "n_group": pa.array(out["n_group"], type=pa.int64()),
            "n_base": pa.array(out["n_base"], type=pa.int64()),
            "ks_num": pa.array(out["ks_num"], type=pa.int64()),
            "ks": pa.array(out["ks"], type=pa.float64()),
        })

    # (groups x values) rows by construction — one block
    return (counts.repartition(1)
            .map_batches(finalize, batch_format="pyarrow"))


def chi2_drift(ds, cat_col: str, ts_col: str, split_ts):
    """Categorical drift — the 2×k χ² homogeneity test comparing a
    categorical column's distribution BEFORE vs AFTER ``split_ts``
    (the categorical companion of :func:`ks_drift`; KS needs an
    ordering, event types have none). Per category t with early/late
    counts (a, b), half totals (n1, n2), margin m = a+b and N = n1+n2,
    the χ² contribution

        (a − n1·m/N)²/(n1·m/N) + (b − n2·m/N)²/(n2·m/N)
      = (aN − n1m)²/(N·n1·m) + (bN − n2m)²/(N·n2·m)

    is two IEEE divisions of EXACT int64 products, scaled to nano
    units and floored so the per-category values — and any sum a
    consumer takes over them — are order-independent integers (the
    source_entropy nano trick). Loud guards: |aN − n1·m| must stay
    below 2³¹ so its square fits int64, and a ``split_ts`` that leaves
    either half empty raises ``ValueError``.

    Scale shape: one (half, category)-sized counting exchange,
    pre-combined per block; the finalize sees only the k-row
    contingency table. Returns (category, n_early, n_late,
    contrib_nano).
    """
    import numpy as np

    def halves(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b.column(cat_col)))  # no null category
        early = pc.less(b.column(ts_col), pa.scalar(split_ts)).to_numpy(
            zero_copy_only=False).astype(np.int64)
        return pa.table({"cat": b.column(cat_col).cast(pa.string()),
                         "a": early, "b": 1 - early})

    counts = keyed_agg(ds.select_columns([cat_col, ts_col])
                       .map_batches(halves, batch_format="pyarrow"),
                       "cat", {"a": ("sum", "a"), "b": ("sum", "b")})

    # k rows by construction — one block
    return (counts.repartition(1)
            .map_batches(_chi2_contrib, batch_format="pyarrow"))


def _chi2_contrib(t: pa.Table) -> pa.Table:
    """chi2_drift's finalize over the (cat, a, b) contingency table."""
    a = t.column("a").to_numpy(zero_copy_only=False)
    b = t.column("b").to_numpy(zero_copy_only=False)
    n1, n2 = int(a.sum()), int(b.sum())
    if len(a) and (n1 == 0 or n2 == 0):
        raise ValueError(
            "chi2_drift: split_ts leaves one side empty "
            f"(n_early={n1}, n_late={n2}); the statistic is undefined")
    n = n1 + n2
    m = a + b
    d1 = a * n - n1 * m
    d2 = b * n - n2 * m
    if len(m) and max(int(np.abs(d1).max()),
                      int(np.abs(d2).max())) >= (1 << 31):
        raise OverflowError(
            "chi2_drift: |aN - n1*m| reaches 2^31; its square wraps "
            "int64 — subsample or rescale counts first")
    # m*n1*N passes 2^63 near 2M rows, so the denominators are exact
    # Python ints rounded once to float64: the oracle's
    # CAST(BIGINT AS DOUBLE) gives the same value wherever it fits.
    mo = m.astype(object)
    r1 = (d1 * d1).astype(np.float64) / (mo * n1 * n).astype(np.float64)
    r2 = (d2 * d2).astype(np.float64) / (mo * n2 * n).astype(np.float64)
    contrib = np.floor(1e9 * (r1 + r2)).astype(np.int64)
    return pa.table({
        "category": t.column("cat"),
        "n_early": pa.array(a, type=pa.int64()),
        "n_late": pa.array(b, type=pa.int64()),
        "contrib_nano": pa.array(contrib, type=pa.int64()),
    })
