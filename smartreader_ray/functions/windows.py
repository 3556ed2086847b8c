"""Windowed / sessionized aggregates over event streams.

The reference has no streaming or windowing (strictly per-document);
these are engine operators for the corpus side (SURVEY §2.7): the
classic gap-based sessionization every behavioral/training-data
pipeline needs.

Partitioning assumption: one shuffle keyed by ``user_id`` co-locates
each user's events; per-user event counts are assumed bounded (a bot
user with millions of events would make a straggler group — cap with
``max_events_per_user`` which keeps the EARLIEST events and logs, the
same skew-guard philosophy as the LSH bucket caps).
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa

from .exchange import fits, keyed_agg, keyed_agg_table, map_groups
from .topk import top_k

_LOG = logging.getLogger(__name__)


def _window_sums(events, key_col: str, value_col: str):
    """(``key_col``, window_start, ``value_col``) events → one row per
    (key, window) with cent-rounded ``sum_value`` and ``n_events`` (the
    non-null values): one ``keyed_agg``, rounded after its final
    combine. Ray's ``groupby().aggregate()`` walks each sorted block
    row by row and combines each group in Python: sliding windows have
    about one group per replicated event, and 10k events (45k windows)
    cost ~13 s of task time there."""
    import pyarrow.compute as pc

    def cents(b: pa.Table) -> pa.Table:
        return b.set_column(2, "sum_value", pc.round(b.column(2), 2))

    return keyed_agg(events, [key_col, "window_start"],
                     {"sum_value": ("sum", value_col),
                      "n_events": ("count", value_col)}).map_batches(
        cents, batch_format="pyarrow")


def sessionize(ds, gap_s: float = 1800.0, user_col: str = "user_id",
               ts_col: str = "ts", value_col: str = "value",
               order_col: str = "event_id",
               max_events_per_user: int = 1_000_000):
    """Gap-based sessions per user: a new session starts when the time
    since the previous event exceeds ``gap_s`` seconds.

    Returns one row per (user, session): ``user_id, session_id`` (1-based
    ordinal within user, by time), ``n_events, t_start, t_end,
    total_value`` (rounded to cents — float sum order differs between
    engines). Events ordered by (ts, order_col) for deterministic ties.

    Ray shape: one column-pruned shuffle on ``user_id`` then a
    vectorized per-group kernel (sort → diff → cumsum) — no driver-side
    state, no per-row Python loops.
    """

    def per_user(group: pa.Table) -> pa.Table:
        n = group.num_rows
        ts_type = group.schema.field(ts_col).type
        ts = group.column(ts_col).to_numpy(zero_copy_only=False)  # datetime64
        order = group.column(order_col).to_numpy(zero_copy_only=False)
        vals = group.column(value_col).to_numpy(zero_copy_only=False)
        idx = np.lexsort((order, ts))
        if n > max_events_per_user:
            _LOG.warning(
                "sessionize: user %s has %d events, capping at %d (earliest kept)",
                group.column(user_col)[0].as_py(), n, max_events_per_user,
            )
            idx = idx[:max_events_per_user]
            n = max_events_per_user
        ts_s = ts[idx].astype("datetime64[us]").astype(np.int64) / 1e6
        gaps = np.diff(ts_s, prepend=ts_s[0] - (gap_s + 1.0))
        new_session = gaps > gap_s
        session_ids = np.cumsum(new_session)  # 1-based ordinals
        starts = np.flatnonzero(new_session)
        ends = np.append(starts[1:], n)
        vals_sorted = vals[idx]
        cum = np.concatenate(([0.0], np.cumsum(vals_sorted)))
        totals = cum[ends] - cum[starts]
        counts = (ends - starts).astype(np.int64)
        user = group.column(user_col)[0]
        return pa.Table.from_pydict(
            {
                "user_id": pa.array(
                    [user.as_py()] * len(starts),
                    type=group.schema.field(user_col).type,
                ),
                "session_id": pa.array(session_ids[starts], type=pa.int64()),
                "n_events": pa.array(counts, type=pa.int64()),
                "t_start": pa.array(ts[idx][starts], type=ts_type),
                "t_end": pa.array(ts[idx][ends - 1], type=ts_type),
                "total_value": pa.array(np.round(totals, 2), type=pa.float64()),
            }
        )

    pruned = ds.select_columns([user_col, ts_col, value_col, order_col])
    return map_groups(pruned, user_col, per_user)


def sliding_window(ds, window_s: float = 300.0, slide_s: float = 60.0,
                   ts_col: str = "ts", key_col: str = "event_type",
                   value_col: str = "value"):
    """Sliding (hopping) time-window aggregate per key: windows of
    ``window_s`` seconds starting every ``slide_s`` seconds; each event
    lands in ``window_s / slide_s`` overlapping windows. One row per
    (key, window_start) with ``n_events`` and cent-rounded ``sum_value``.

    ``window_s`` must be an integer multiple of ``slide_s``. Window
    starts are epoch-aligned multiples of ``slide_s`` (same convention
    as ``tumbling_window``'s ``floor_temporal``).

    Ray shape: the k-fold replication happens INSIDE ``map_batches``
    and is immediately collapsed by ``keyed_agg``'s per-block Arrow
    partial in the same task, so only one row per (block, key, window)
    is combined — the replication factor never crosses the combine
    (``_window_sums``).
    """
    import pyarrow.compute as pc

    slide_us = int(slide_s * 1_000_000)
    k = int(round(window_s / slide_s))
    if k * slide_s != window_s or k < 1:
        raise ValueError("window_s must be a positive integer multiple of slide_s")

    def partial(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        ts = batch.column(ts_col).to_numpy(zero_copy_only=False)
        ts_us = ts.astype("datetime64[us]").astype(np.int64)
        base = ts_us // slide_us * slide_us
        # (n, k) window starts per event, flattened row-major so the
        # repeated key/value columns line up with np.repeat(…, k)
        starts = base[:, None] - (np.arange(k, dtype=np.int64) * slide_us)[None, :]
        idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), k))
        return pa.Table.from_pydict(
            {
                key_col: pc.take(batch.column(key_col), idx),
                "window_start": pa.array(starts.reshape(-1)).cast(
                    pa.timestamp("us")
                ),
                value_col: pc.take(batch.column(value_col), idx),
            }
        )

    return _window_sums(
        ds.select_columns([key_col, ts_col, value_col])
        .map_batches(partial, batch_format="pyarrow"), key_col, value_col)


def tumbling_window(ds, window_s: float = 3600.0, ts_col: str = "ts",
                    key_col: str = "event_type", value_col: str = "value"):
    """Fixed (tumbling) time-window aggregate per key: one row per
    (key, window_start) with ``n_events`` and cent-rounded ``sum_value``.

    Shape: ``_window_sums``' per-block Arrow partial fuses into the
    window-stamping map, so only one row per (block, key, window) is
    combined — the same pre-aggregate-before-exchange pattern as the
    TPC-H rollups.
    """
    import pyarrow.compute as pc

    def windowed(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                key_col: batch.column(key_col),
                "window_start": pc.floor_temporal(
                    batch.column(ts_col), unit="second",
                    multiple=int(window_s)),
                value_col: batch.column(value_col),
            }
        )

    return _window_sums(
        ds.select_columns([key_col, ts_col, value_col])
        .map_batches(windowed, batch_format="pyarrow"), key_col, value_col)


def late_events(ds, tolerance_s: float = 3600.0, user_col: str = "user_id",
                ts_col: str = "ts", order_col: str = "event_id",
                id_col: str | None = None):
    """Watermark-style out-of-order detection: an event is LATE when its
    event-time ``ts`` lags the per-user watermark — the maximum
    event-time among earlier-ARRIVING events (``order_col`` is the
    arrival order) — by more than ``tolerance_s``. This is the batch
    replay of streaming allowed-lateness: the rows a windowed stream
    job would have dropped or side-channeled.

    Output: one row per late event — (user_id, event_id, lateness_us)
    with lateness as exact integer microseconds (watermark − ts), so
    the SQL oracle (MAX(ts) OVER ... ROWS ... 1 PRECEDING) matches
    hash-exactly. First-arriving event of a user is never late.

    ``order_col`` is the arrival order (ties broken by ``id_col``);
    ``id_col`` (default: ``order_col``) names the column reported back
    for each late event.

    Ray shape: identical to ``sessionize`` — one pruned shuffle on the
    user key, then a vectorized sort + exclusive prefix-max per group.
    """
    tol_us = int(tolerance_s * 1_000_000)
    id_col = id_col or order_col

    def per_user(group: pa.Table) -> pa.Table:
        n = group.num_rows
        empty = pa.Table.from_pydict(
            {
                "user_id": pa.array([], group.schema.field(user_col).type),
                "event_id": pa.array([], group.schema.field(id_col).type),
                "lateness_us": pa.array([], type=pa.int64()),
            }
        )
        if n < 2:
            return empty
        ts = group.column(ts_col).to_numpy(zero_copy_only=False)
        order = group.column(order_col).to_numpy(zero_copy_only=False)
        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        idx = np.lexsort((ids, order))
        ts_us = ts[idx].astype("datetime64[us]").astype(np.int64)
        # watermark BEFORE each arrival: exclusive running max
        wm = np.maximum.accumulate(ts_us)[:-1]
        lateness = wm - ts_us[1:]
        late = lateness > tol_us
        if not late.any():
            return empty
        sel = idx[1:][late]
        return pa.Table.from_pydict(
            {
                "user_id": pa.array(
                    [group.column(user_col)[0].as_py()] * int(late.sum()),
                    type=group.schema.field(user_col).type,
                ),
                "event_id": pa.array(
                    ids[sel], type=group.schema.field(id_col).type
                ),
                "lateness_us": pa.array(lateness[late], type=pa.int64()),
            }
        )

    cols = list(dict.fromkeys([user_col, ts_col, order_col, id_col]))
    pruned = ds.select_columns(cols)
    return map_groups(pruned, user_col, per_user)


def funnel(ds, steps=("view", "click", "purchase"),
           user_col: str = "user_id", ts_col: str = "ts",
           type_col: str = "event_type"):
    """Ordered-funnel analysis: per user, the earliest timestamp of each
    step STRICTLY AFTER the previous step's earliest qualifying
    timestamp (t₁ = min ts of step 1; tₖ = min ts of step k with
    ts > tₖ₋₁). Returns one row per user who completed step 1:
    ``(user_col, t_<step1>, t_<step2>, …)``, later stages null where
    the user never converted. The SQL equivalent is a chain of
    join-filter-groupby-min CTEs — replayed exactly (timestamps are
    compared, never arithmetically combined, so no float concerns).

    One pass per step, each a single keyed reduction over only that
    step's rows (type filter is pushed into the batch scan). The
    per-user frontier table between passes rides the repo's dual
    regime, chosen by ``exchange.fits`` on the stage-1 frontier:

    - **broadcast** (the frontier fits): frontier dicts live on the driver
      (bounded by the regime check); each later step is ONE Ray execution
      — `ray.put` the {user: tₖ₋₁} dict, filter + pre-combine per block
      map-side, merge the user-sized partials on the driver
      (int/timestamp min is associative). Assembly is a driver-built
      table — no joins, no sort stage. Measured: 34.6 s → ~7 s at sf0.1
      vs the join-chain formulation (orchestration, not data, was the
      cost).
    - **distributed**: `hash_join` the frontier onto the step's rows,
      filter, groupby-min, chained left joins to assemble — nothing
      driver-sized.

    Both regimes scan a single materialized projection holding only the
    funnel steps' (user, ts, type) rows — the raw table is read once.
    """
    import pyarrow.compute as pc
    import ray
    import ray.data

    from .join import hash_join

    step_list = list(steps)

    def project(b: pa.Table) -> pa.Table:
        keep = pc.is_in(b.column(type_col),
                        value_set=pa.array(step_list, type=pa.string()))
        return pa.table(
            {
                "u": b.column(user_col),
                "t": b.column(ts_col),
                "k": b.column(type_col),
            }
        ).filter(keep)

    base = ds.map_batches(project, batch_format="pyarrow").materialize()

    def step_rows(step):
        return base.map_batches(
            lambda b, _s=step: b.filter(pc.equal(b.column("k"), _s))
            .select(["u", "t"]),
            batch_format="pyarrow",
        )

    frontier_ds, small = fits(keyed_agg(step_rows(steps[0]), "u",
                                        {"t": ("min", "t")}))
    ts_type = frontier_ds.schema().types[
        frontier_ds.schema().names.index("t")
    ]

    if small:
        front = {
            u: t
            for b in frontier_ds.iter_batches(batch_format="pyarrow",
                                              batch_size=None)
            for u, t in zip(b.column("u").to_pylist(),
                            b.column("t").to_pylist())
        }
        stage_dicts = [front]
        for step in steps[1:]:
            ref = ray.put(front)

            def qualify(b: pa.Table, _ref=ref) -> pa.Table:
                import pandas as pd

                m = ray.get(_ref)
                u = b.column("u").to_pandas()
                t = b.column("t").to_pandas()
                prev_t = u.map(m)
                keep = prev_t.notna() & (t > prev_t)
                g = (
                    pd.DataFrame({"u": u[keep], "t": t[keep]})
                    .groupby("u", sort=False)["t"]
                    .min()
                )
                return pa.table(
                    {
                        "u": pa.array(g.index.to_numpy()),
                        "t": pa.array(g.to_numpy(),
                                      type=b.column("t").type),
                    }
                )

            merged: dict = {}
            for b in step_rows(step).map_batches(
                    qualify, batch_format="pyarrow").iter_batches(
                    batch_format="pyarrow", batch_size=None):
                for u, t in zip(b.column("u").to_pylist(),
                                b.column("t").to_pylist()):
                    if u not in merged or t < merged[u]:
                        merged[u] = t
            front = merged
            stage_dicts.append(front)

        users = sorted(stage_dicts[0])
        cols = {user_col: pa.array(users)}
        for step, d in zip(steps, stage_dicts):
            cols[f"t_{step}"] = pa.array([d.get(u) for u in users],
                                         type=ts_type)
        return ray.data.from_arrow(pa.table(cols))

    # ---- distributed regime: frontier never leaves the cluster ----
    frontier = frontier_ds
    stage_tables = [frontier]
    for step in steps[1:]:
        rows = step_rows(step)
        prev_named = frontier.map_batches(
            lambda b: pa.table({"pu": b.column("u"),
                                "pt": b.column("t")}),
            batch_format="pyarrow",
        )
        joined = hash_join(rows, prev_named, "u", "pu",
                           ["u", "t"], ["pt"])
        frontier = keyed_agg(
            joined.map_batches(
                lambda b: b.filter(
                    pc.greater(b.column("t"), b.column("pt"))
                ).select(["u", "t"]),
                batch_format="pyarrow",
            ), "u", {"t": ("min", "t")}).materialize()
        stage_tables.append(frontier)

    out = stage_tables[0].map_batches(
        lambda b, _n=f"t_{steps[0]}": pa.table(
            {user_col: b.column("u"), _n: b.column("t")}
        ),
        batch_format="pyarrow",
    )
    cols = [user_col, f"t_{steps[0]}"]
    for step, tbl in zip(steps[1:], stage_tables[1:]):
        named = tbl.map_batches(
            lambda b, _n=f"t_{step}": pa.table(
                {"ju": b.column("u"), _n: b.column("t")}
            ),
            batch_format="pyarrow",
        )
        # copy: hash_join captures the column list in a LAZY closure, so
        # mutating it after the call would leak next-stage columns in
        out = hash_join(out, named, user_col, "ju",
                        list(cols), [f"t_{step}"], how="left")
        cols.append(f"t_{step}")
    return out


def cumulative_by(ds, key_col: str = "user_id", ts_col: str = "ts",
                  value_col: str = "value"):
    """Per-key running aggregates ordered by time — the SQL
    ``SUM(...) OVER (PARTITION BY key ORDER BY ts)`` family. Emits one
    row per input row: ``(key, ts, amount_cents, running_cents,
    running_n)``.

    Exactness: the float value is converted to integer cents with
    ``floor(v·100 + 0.5)`` — the SAME IEEE ops the oracle runs — and
    the running sum accumulates in int64, so the result is order- and
    arithmetic-exact (a float running sum would depend on the engine's
    internal summation tree).

    Scale shape: `exchange.map_groups` on the key — rows of a key must
    co-locate for ANY engine computing a keyed running total, so the
    keyed exchange is the floor cost; within a group the kernel is one
    numpy sort + cumsum. A pathologically hot key concentrates its rows
    in one task (same caveat/remedy as `sessionize`: split such keys
    upstream or bound them with a per-key cap).
    """
    import numpy as np
    import pyarrow.compute as pc

    def per_group(g: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            g, sort_keys=[(ts_col, "ascending")]
        )
        g = g.take(order)
        v = g.column(value_col).to_numpy(zero_copy_only=False).astype(
            "float64"
        )
        cents = np.floor(v * 100.0 + 0.5).astype("int64")
        return pa.table(
            {
                key_col: g.column(key_col),
                ts_col: g.column(ts_col),
                "amount_cents": pa.array(cents, type=pa.int64()),
                "running_cents": pa.array(np.cumsum(cents),
                                          type=pa.int64()),
                "running_n": pa.array(
                    np.arange(1, len(cents) + 1, dtype=np.int64),
                    type=pa.int64(),
                ),
            }
        )

    return (
        map_groups(ds, key_col, per_group)
    )


def retention_cohorts(ds, user_col: str = "user_id", ts_col: str = "ts"):
    """Cohort retention over an event stream: users are cohorted by
    their first active day; the output counts, per (cohort_day,
    offset_days), how many of that cohort's users were active
    offset_days after their first day — the table behind every
    retention-triangle dashboard.

    Ray shape, three bounded exchanges, none row-sized:
      1. dedup to distinct (user, epoch_day) pairs — per-batch Arrow
         group_by partial, then one ``groupby([user, day])`` exchange
         whose output is activity-sized (users × active days), far
         below event count;
      2. ``groupby(user)`` over those pairs: per-group numpy min →
         emit (cohort_day, offset_days) per active day;
      3. per-batch pre-combine → ``groupby([cohort, offset])`` count —
         calendar²-sized.
    Day arithmetic is integer epoch days (timestamp → date32 → int32),
    identical to SQL's ``CAST(ts AS DATE) - DATE '1970-01-01'``.
    """
    import pyarrow.compute as pc

    def day_pairs(b: pa.Table) -> pa.Table:
        days = pc.cast(pc.cast(b.column(ts_col), pa.date32()), pa.int32())
        return pa.table({user_col: b.column(user_col), "day": days})

    def per_user(g: pa.Table) -> pa.Table:
        days = np.unique(g.column("day").to_numpy(zero_copy_only=False))
        first = int(days.min())
        return pa.table({
            "cohort_day": pa.array(
                np.full(len(days), first, dtype=np.int64)),
            "offset_days": pa.array(
                (days - first).astype(np.int64)),
            "n": pa.array(np.ones(len(days), dtype=np.int64)),
        })

    pairs = keyed_agg(ds.map_batches(day_pairs, batch_format="pyarrow"),
                      [user_col, "day"], {"_n": ("count", None)})
    return keyed_agg(
        map_groups(pairs, user_col, per_user),
        ["cohort_day", "offset_days"], {"n_users": ("sum", "n")},
    )


def resample_daily(ds, group_col: str = "event_type", ts_col: str = "ts"):
    """Time-series resample with gap fill: daily event counts per
    group over the GLOBAL [min_day, max_day] span, missing days emitted
    as explicit zeros — the densification step before any
    moving-average / trend model (which would otherwise silently skip
    gaps).

    Ray shape: per-batch (group, day) count partials → one
    ``groupby([group, day])`` exchange (groups × days rows) → the
    dense grid is filled per group with the global day span broadcast
    to each map task. The grid is calendar-bounded — days × groups, a
    few thousand rows per year even at 10^12 events — so the densify
    step is never the scale problem; the single count exchange is.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Max, Min

    def days(b: pa.Table) -> pa.Table:
        return pa.table({group_col: b.column(group_col), "day": pc.cast(
            pc.cast(b.column(ts_col), pa.date32()), pa.int32())})

    # groups × days rows — tiny; reused twice below
    counts = keyed_agg(ds.map_batches(days, batch_format="pyarrow"),
                       [group_col, "day"], {"n": ("count", None)}
                       ).materialize()
    # global day span: a 2-value reduction, not a materialization
    span = counts.aggregate(Min("day"), Max("day"))
    lo, hi = int(span["min(day)"]), int(span["max(day)"])

    def densify(g: pa.Table) -> pa.Table:
        days = np.arange(lo, hi + 1, dtype=np.int64)
        filled = np.zeros(len(days), dtype=np.int64)
        have = g.column("day").to_numpy(zero_copy_only=False).astype(
            np.int64)
        n = g.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        filled[have - lo] = n
        key = g.column(group_col).to_pylist()[0]
        return pa.table({
            group_col: pa.array([key] * len(days)),
            "day": pa.array(days, type=pa.int64()),
            "n": pa.array(filled, type=pa.int64()),
        })

    return (
        map_groups(counts, group_col, densify)
    )


def user_day_paths(ds, top_n: int = 20, user_col: str = "user_id",
                   ts_col: str = "ts", step_col: str = "event_type",
                   id_col: str = "event_id", sep: str = ">"):
    """Behavioral path mining: the ordered event-type sequence of each
    (user, day), counted per DISTINCT path — 'view>click>purchase'
    style journey frequencies, the input to funnel discovery (the
    declared-funnel companion is `funnel`). Output: top ``top_n`` paths
    by the number of user-days following them, deterministic
    (count desc, path asc) boundary.

    Ray shape: one ``groupby(user)`` exchange co-locates each user's
    events (the floor cost for ANY per-user sequencing); inside a
    group the day-paths are built by ONE pandas sort + C-level
    ``groupby(day).agg(join)`` — no per-event Python. Path partials
    pre-combine per block before the path-keyed count groupby
    (path-cardinality-sized), then ``topk.top_k``. Ordering within a
    day is (ts, id) — total because event ids are unique.
    """
    import pyarrow.compute as pc

    def per_user(g: pa.Table) -> pa.Table:
        import pandas as pd

        df = pd.DataFrame({
            "day": pc.cast(pc.cast(g.column(ts_col), pa.date32()),
                           pa.int32()).to_numpy(zero_copy_only=False),
            "ts": g.column(ts_col).to_numpy(zero_copy_only=False),
            "id": g.column(id_col).to_numpy(zero_copy_only=False),
            "step": g.column(step_col).to_pandas(),
        }).sort_values(["day", "ts", "id"], kind="stable")
        paths = df.groupby("day", sort=False)["step"].agg(sep.join)
        vc = paths.value_counts()
        return pa.table({
            "path": pa.array(vc.index.to_numpy(), type=pa.string()),
            "n_user_days": pa.array(vc.to_numpy().astype("int64"),
                                    type=pa.int64()),
        })

    return top_k(
        keyed_agg(map_groups(ds.select_columns([user_col, ts_col, id_col,
                                                step_col]),
                             user_col, per_user),
                  "path", {"n_user_days": ("sum", "n_user_days")}),
        [("n_user_days", "descending"), ("path", "ascending")], top_n)


def interval_window_overlap(ds, user_col: str = "user_id",
                            ts_col: str = "ts",
                            window_s: int = 21_600):
    """Interval × window overlap join via bucket binning — the
    distributed pattern for joining two interval sets without a cross
    product: each (user, day) activity interval [first_ts, last_ts] is
    expanded to exactly the fixed ``window_s`` windows it overlaps
    (floor(start/w) .. floor(end/w) — the closed-interval vs
    half-open-window algebra makes that range EXACT), and a bucket-keyed
    count groupby replaces the non-equi join. Output: one row per
    window with ≥1 overlapping interval: (window_us, n_intervals).

    Ray shape: interval derivation is one (user, day)-keyed min/max
    groupby (activity-sized, pre-combined per block); bin expansion is
    a vectorized repeat/arange whose fan-out is interval_span/window_s
    (bounded: a day-bounded interval covers ≤ 86 400/window_s buckets);
    the final exchange is calendar-sized. The same binning handles
    interval × interval joins (bin BOTH sides, join within bucket,
    dedup pair) — documented here as the scale recipe.
    """
    import pyarrow.compute as pc

    w_us = int(window_s) * 1_000_000

    def day_pairs(b: pa.Table) -> pa.Table:
        days = pc.cast(pc.cast(b.column(ts_col), pa.date32()), pa.int32())
        return pa.table({
            user_col: b.column(user_col),
            "day": days,
            "ts": b.column(ts_col),
        })

    intervals = keyed_agg(
        ds.select_columns([user_col, ts_col])
        .map_batches(day_pairs, batch_format="pyarrow"),
        [user_col, "day"], {"s": ("min", "ts"), "e": ("max", "ts")})

    def expand(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"window_us": pa.array([], type=pa.int64())})
        s = b.column("s").to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        e = b.column("e").to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        k0 = s // w_us
        k1 = e // w_us
        counts = (k1 - k0 + 1).astype(np.int64)
        flat = np.repeat(k0, counts) + (
            np.arange(counts.sum(), dtype=np.int64)
            - np.repeat(np.cumsum(counts) - counts, counts))
        return pa.table({"window_us": flat * w_us})

    return keyed_agg(intervals.map_batches(expand, batch_format="pyarrow"),
                     "window_us", {"n_intervals": ("count", None)})


def match_pattern(ds, pattern: str, symbol_map: dict,
                  user_col: str = "user_id", ts_col: str = "ts",
                  id_col: str = "event_id", step_col: str = "event_type",
                  min_matches: int = 1):
    """MATCH_RECOGNIZE-lite: count NON-OVERLAPPING occurrences of a
    regex ``pattern`` in each key's time-ordered event-symbol sequence
    ('view click click purchase' → 'vccp'), emitting keys with
    ``≥ min_matches``. The distributed form of SQL:2016 row-pattern
    matching restricted to per-key sequences — funnels with repetition
    ('v c+ p'), alternation, optional steps.

    ``symbol_map``: step value → single ASCII letter. Steps absent from
    the map raise (a silent drop would change adjacency semantics).
    The pattern must stick to the mapped letters and regex operators
    whose non-overlapping scan semantics agree between engines
    (classes, +, *, ?, |, anchors) — the contract that lets a SQL
    oracle replay it with RE2's ``regexp_extract_all``.

    Ray shape: symbols are assigned per BATCH before the exchange
    (vectorized ``pc.index_in`` + take — the wire carries a 1-byte
    symbol, not the step string), then ONE ``groupby(user)`` co-locates
    each key's events — the floor cost of any per-key sequencing; in
    the group: one pandas sort + join + compiled-regex findall per key.
    Per-key sequence must fit a group task (same contract as
    sessionize/user_day_paths).
    """
    import re

    import pyarrow.compute as pc

    for sym in symbol_map.values():
        if len(sym) != 1:
            raise ValueError(f"symbols must be single chars, got {sym!r}")
    vocab = pa.array(list(symbol_map.keys()), type=pa.string())
    chars = pa.array(list(symbol_map.values()), type=pa.string())

    def symbolize(b: pa.Table) -> pa.Table:
        idx = pc.index_in(b.column(step_col), value_set=vocab)
        if pc.any(pc.and_(pc.is_null(idx),
                          pc.is_valid(b.column(step_col)))).as_py():
            seen = pc.unique(b.column(step_col)).to_pylist()
            missing = sorted(set(seen) - set(symbol_map))
            raise ValueError(f"unmapped step values: {missing}")
        return pa.table({
            user_col: b.column(user_col),
            "__ts": b.column(ts_col),
            "__id": b.column(id_col),
            "__sym": pc.take(chars, idx),
        })

    rx = re.compile(pattern)

    def per_key(g: pa.Table) -> pa.Table:
        import pandas as pd

        df = pd.DataFrame({
            "ts": g.column("__ts").to_numpy(zero_copy_only=False),
            "id": g.column("__id").to_numpy(zero_copy_only=False),
            "sym": g.column("__sym").to_pandas(),
        }).sort_values(["ts", "id"], kind="stable")
        n = len(rx.findall("".join(df["sym"])))
        if n < min_matches:
            return pa.table({user_col: pa.array([], type=g.column(
                user_col).type), "n_matches": pa.array([], pa.int64())})
        return pa.table({
            user_col: g.column(user_col).slice(0, 1),
            "n_matches": pa.array([n], type=pa.int64()),
        })

    return (
        map_groups(ds.select_columns([user_col, ts_col, id_col, step_col])
                   .map_batches(symbolize, batch_format="pyarrow"),
                   user_col, per_key)
    )


def percent_rank_by(ds, key_col: str, value_col: str,
                    round_to: int = 6):
    """Tie-safe analytic ranking: appends ``pr`` =
    ``PERCENT_RANK() OVER (PARTITION BY key ORDER BY value)`` to every
    row — (strictly-smaller count) / (n−1), 0 for single-row keys.
    Unlike NTILE/ROW_NUMBER this depends only on the VALUE, never on
    physical row order, so it is deterministic under any partitioning
    — the only window-rank family that can be hash-gated.

    Ray shape (no row-sized shuffle): per-block Arrow (key, value,
    count) partials → one ``groupby(key)`` over the HISTOGRAM (exchange
    is keys × distinct values × blocks — the `exact_quantile_by`
    bounded-domain contract) → per key one vectorized sort + exclusive
    cumsum gives (value → pr). The rank map is broadcast and applied
    with a pandas hash merge per batch when it fits
    (``exchange.fits``); beyond, it joins back via
    `join.hash_join` on a composite (key, value-bits) string — exact,
    float bits hex-encoded rather than formatted.
    """
    import pyarrow.compute as pc

    def partial(b: pa.Table) -> pa.Table:
        g = b.select([key_col, value_col]).group_by(
            [key_col, value_col]).aggregate([([], "count_all")])
        return g.rename_columns([key_col, "__v", "__cnt"])

    def per_key(g: pa.Table) -> pa.Table:
        v = g.column("__v").to_numpy(zero_copy_only=False)
        c = g.column("__cnt").to_numpy(zero_copy_only=False).astype(
            np.int64)
        order = np.argsort(v, kind="stable")
        v, c = v[order], c[order]
        # merge duplicate values across block partials
        uniq, inv = np.unique(v, return_inverse=True)
        cnt = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(cnt, inv, c)
        below = np.concatenate(([0], np.cumsum(cnt)))[:-1]
        n = int(cnt.sum())
        pr = (below / (n - 1) if n > 1
              else np.zeros(len(uniq), dtype=np.float64))
        return pa.table({
            key_col: pa.array([g.column(key_col)[0].as_py()] * len(uniq),
                              type=g.column(key_col).type),
            "__v": pa.array(uniq, type=g.column("__v").type),
            "pr": pa.array(np.round(pr, round_to), type=pa.float64()),
        })

    rank_map, small = fits(map_groups(
        ds.map_batches(partial, batch_format="pyarrow"), key_col, per_key))

    if small:
        import ray

        parts = list(rank_map.iter_batches(batch_format="pyarrow",
                                           batch_size=None))
        ref = ray.put(pa.concat_tables(parts).combine_chunks())

        def apply(b: pa.Table) -> pa.Table:
            import pandas as pd

            rm = ray.get(ref)
            left = pd.DataFrame({
                "k": b.column(key_col).to_pandas(),
                "v": b.column(value_col).to_numpy(zero_copy_only=False),
            })
            right = pd.DataFrame({
                "k": rm.column(key_col).to_pandas(),
                "v": rm.column("__v").to_numpy(zero_copy_only=False),
                "pr": rm.column("pr").to_numpy(zero_copy_only=False),
            })
            merged = left.merge(right, on=["k", "v"], how="left",
                                sort=False)
            return b.append_column(
                "pr", pa.array(merged["pr"].to_numpy(),
                               type=pa.float64()))

        return ds.map_batches(apply, batch_format="pyarrow")

    from .join import hash_join

    def add_ck(key, val):
        def fn(b: pa.Table) -> pa.Table:
            v = b.column(val).to_numpy(zero_copy_only=False).astype(
                np.float64)
            hexes = np.char.mod("%016x", v.view(np.uint64))
            ck = pc.binary_join_element_wise(
                pc.cast(b.column(key), pa.string()),
                pa.array(hexes.astype(object), type=pa.string()), "\x1f")
            return b.append_column("__ck", ck)
        return fn

    left = ds.map_batches(add_ck(key_col, value_col),
                          batch_format="pyarrow")
    right = rank_map.map_batches(add_ck(key_col, "__v"),
                                 batch_format="pyarrow").map_batches(
        lambda b: b.select(["__ck", "pr"]), batch_format="pyarrow")
    out_cols = ds.schema().names
    joined = hash_join(left, right, left_key="__ck", right_key="__ck",
                       left_cols=out_cols, right_cols=["pr"], how="left")
    return joined


def debounce(ds, window_s: float = 60.0, user_col: str = "user_id",
             type_col: str = "event_type", ts_col: str = "ts",
             id_col: str = "event_id"):
    """Event debouncing: drop a row when the PREVIOUS event of the same
    (user, type) — by (ts, id) order — happened ``≤ window_s`` seconds
    before it; the first of each (user, type) always survives. The
    duplicate-click / retry-storm suppressor every event pipeline runs
    before sessionizing. Lag-based (the reference event is the previous
    row whether or not IT survived), which is exactly SQL
    ``lag() OVER (PARTITION BY user, type ORDER BY ts, id)`` — the
    kept-anchored variant is sequential and not window-expressible.

    Ray shape: one ``groupby(user)`` exchange (the per-user sequencing
    floor, shared with `sessionize`); inside a group one vectorized
    sort over (type, ts, id) and one diff — type boundaries reset via
    a pandas factorize, no per-event Python.
    """
    import pyarrow.compute as pc

    win_us = int(window_s * 1_000_000)

    def per_user(g: pa.Table) -> pa.Table:
        import pandas as pd

        ts = g.column(ts_col).to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        ids = g.column(id_col).to_numpy(zero_copy_only=False)
        codes, _ = pd.factorize(g.column(type_col).to_pandas(),
                                sort=False)
        order = np.lexsort((ids, ts, codes))
        dt = np.diff(ts[order])
        same = np.diff(codes[order]) == 0
        drop_sorted = np.concatenate(
            ([False], same & (dt <= win_us)))
        keep = np.ones(g.num_rows, dtype=bool)
        keep[order] = ~drop_sorted
        return g.filter(pa.array(keep))

    return map_groups(ds, user_col, per_user)


def markov_transitions(ds, user_col: str = "user_id",
                       type_col: str = "event_type", ts_col: str = "ts",
                       id_col: str = "event_id"):
    """First-order Markov transition matrix over per-user event
    sequences: count of (prev_type -> event_type) steps by (ts, id)
    order, plus the row-normalized transition probability. The
    behavioral-model / anomaly-baseline primitive (what follows a
    'view'? how often does 'error' repeat?).

    Returns ``prev_type, event_type, n, p`` sorted by (prev, curr);
    ``p`` is the single IEEE division n/tot so both engines produce the
    identical double bit pattern (SQL: lag() window -> GROUP BY).

    Ray shape: one ``groupby(user)`` exchange (the per-user sequencing
    floor shared with `sessionize`); each group emits LOCAL
    (prev, curr, n) count partials, so the second exchange ships at
    most |types|^2 rows per group; the final normalize runs on the
    collected |types|^2 matrix — bounded by the type vocabulary, never
    by the corpus.
    """
    import pandas as pd

    def per_user(g: pa.Table) -> pa.Table:
        n = g.num_rows
        empty = pa.table({
            "prev_type": pa.array([], type=pa.string()),
            "event_type": pa.array([], type=pa.string()),
            "n": pa.array([], type=pa.int64()),
        })
        if n < 2:
            return empty
        ts = g.column(ts_col).to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        ids = g.column(id_col).to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, ts))
        t = g.column(type_col).to_numpy(zero_copy_only=False)[order]
        df = pd.DataFrame({"prev_type": t[:-1], "event_type": t[1:]})
        c = (df.groupby(["prev_type", "event_type"], sort=False)
               .size().reset_index(name="n"))
        return pa.Table.from_pandas(c, preserve_index=False).cast(
            empty.schema)

    pruned = ds.select_columns([user_col, type_col, ts_col, id_col])
    partials = map_groups(pruned, user_col, per_user)
    # |types|^2 rows — driver-side finalize is bounded by the type
    # vocabulary, not the corpus.
    mat = keyed_agg_table(partials, ["prev_type", "event_type"],
                          {"n": ("sum", "n")}).to_pandas()
    empty_out = pa.table({
        "prev_type": pa.array([], type=pa.string()),
        "event_type": pa.array([], type=pa.string()),
        "n": pa.array([], type=pa.int64()),
        "p": pa.array([], type=pa.float64()),
    })
    if len(mat) == 0:
        return empty_out
    tot = mat.groupby("prev_type")["n"].transform("sum").astype(np.int64)
    mat["p"] = mat["n"].to_numpy(np.float64) / tot.to_numpy(np.float64)
    mat = mat.sort_values(["prev_type", "event_type"]).reset_index(drop=True)
    return pa.Table.from_pandas(
        mat[["prev_type", "event_type", "n", "p"]], preserve_index=False)


def session_attribution(ds, gap_s: float = 1800.0,
                        convert_type: str = "purchase",
                        user_col: str = "user_id", ts_col: str = "ts",
                        type_col: str = "event_type",
                        value_col: str = "value",
                        id_col: str = "event_id"):
    """First-touch conversion attribution: split each user's events into
    gap sessions (same rule as `sessionize`), credit every session to
    the event_type of its FIRST event (the acquisition channel), and
    roll up per channel: sessions started, sessions that contain a
    ``convert_type`` event, and the exact integer-cent value of those
    conversion events.

    Ray shape: the per-user kernel does sessions + per-session firsts +
    conversion sums fully vectorized (cumsum / np.add.at over session
    ordinals) and emits per-channel partials — at most |types| rows per
    user — then one tiny (channel)-keyed sum. No session-level rows ever
    shuffle.
    """
    gap_us = int(gap_s * 1_000_000)
    empty = pa.table({
        "first_touch": pa.array([], type=pa.string()),
        "n_sessions": pa.array([], type=pa.int64()),
        "n_converted": pa.array([], type=pa.int64()),
        "converted_value_cents": pa.array([], type=pa.int64()),
    })

    def per_user(g: pa.Table) -> pa.Table:
        import pandas as pd

        n = g.num_rows
        ts = g.column(ts_col).to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        ids = g.column(id_col).to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, ts))
        ts_o = ts[order]
        types = g.column(type_col).to_numpy(zero_copy_only=False)[order]
        vals = g.column(value_col).to_numpy(zero_copy_only=False)[order]
        new_s = np.empty(n, dtype=bool)
        new_s[0] = True
        new_s[1:] = np.diff(ts_o) > gap_us
        sid = np.cumsum(new_s) - 1          # 0-based session ordinal
        n_sess = int(sid[-1]) + 1
        firsts = types[new_s]                # first_touch per session
        conv = types == convert_type
        cents = np.floor(vals.astype(np.float64) * 100.0 + 0.5).astype(
            np.int64)
        conv_any = np.zeros(n_sess, dtype=np.int64)
        np.add.at(conv_any, sid[conv], 1)
        conv_val = np.zeros(n_sess, dtype=np.int64)
        np.add.at(conv_val, sid[conv], cents[conv])
        df = pd.DataFrame({
            "first_touch": firsts,
            "one": np.ones(n_sess, dtype=np.int64),
            "cvt": (conv_any > 0).astype(np.int64),
            "val": np.where(conv_any > 0, conv_val, 0),
        })
        out = df.groupby("first_touch", sort=False).agg(
            n_sessions=("one", "sum"), n_converted=("cvt", "sum"),
            converted_value_cents=("val", "sum")).reset_index()
        return pa.Table.from_pandas(out, preserve_index=False).cast(
            empty.schema)

    pruned = ds.select_columns(
        [user_col, ts_col, type_col, value_col, id_col])
    partials = map_groups(pruned, user_col, per_user)
    sums = ("n_sessions", "n_converted", "converted_value_cents")
    out = keyed_agg_table(partials, "first_touch",
                          {c: ("sum", c) for c in sums})
    return out if out.num_rows else empty


def rolling_anomaly(ds, k: int = 4, factor: int = 2,
                    user_col: str = "user_id", ts_col: str = "ts",
                    value_col: str = "value", id_col: str = "event_id"):
    """Trailing-rows anomaly detector: flag an event whose value (exact
    integer cents) exceeds ``factor`` x the mean of the PREVIOUS ``k``
    events of the same user (by (ts, id) order), evaluated only where a
    full k-window exists. The compare is pure int64 —
    ``cents * k > factor * trail_sum`` — so there is no float mean to
    drift (SQL: SUM/COUNT OVER ROWS BETWEEN k PRECEDING AND 1
    PRECEDING).

    Ray shape: one ``groupby(user)`` exchange; per group a lexsort +
    cumsum sliding sum; only flagged rows leave the group.
    """

    def per_user(g: pa.Table) -> pa.Table:
        empty = pa.table({
            "user_id": pa.array([], type=pa.int64()),
            "event_id": pa.array([], type=pa.int64()),
            "cents": pa.array([], type=pa.int64()),
            "trail_sum": pa.array([], type=pa.int64()),
        })
        n = g.num_rows
        if n <= k:
            return empty
        ts = g.column(ts_col).to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        ids = g.column(id_col).to_numpy(zero_copy_only=False).astype(
            np.int64)
        order = np.lexsort((ids, ts))
        vals = g.column(value_col).to_numpy(zero_copy_only=False)[order]
        cents = np.floor(vals.astype(np.float64) * 100.0 + 0.5).astype(
            np.int64)
        csum = np.concatenate(([0], np.cumsum(cents)))
        # trailing sum of rows [i-k, i) — full windows start at i=k
        trail = csum[k:-1] - csum[:-(k + 1)]
        cur = cents[k:]
        flag = cur * k > factor * trail
        if not flag.any():
            return empty
        uid = int(g.column(user_col)[0].as_py())
        idx = np.flatnonzero(flag) + k
        return pa.table({
            "user_id": pa.array(np.full(idx.size, uid), type=pa.int64()),
            "event_id": pa.array(ids[order][idx], type=pa.int64()),
            "cents": pa.array(cents[idx], type=pa.int64()),
            "trail_sum": pa.array(trail[flag], type=pa.int64()),
        })

    pruned = ds.select_columns([user_col, ts_col, value_col, id_col])
    return map_groups(pruned, user_col, per_user)


def interval_union(ds, span_s: float = 300.0, user_col: str = "user_id",
                   ts_col: str = "ts"):
    """Total covered time per user after merging overlaps: each event
    opens the interval [ts, ts + span_s); overlapping/touching
    intervals merge into islands; output per user the merged coverage —
    ``n_islands`` and exact ``covered_us`` — the "active seconds"
    metric ad/engagement pipelines bill on, and the interval-union
    primitive genomics/log pipelines call coverage.

    Exact integer µs end to end. Islands: sort starts; a new island
    opens where start > running max end (touching endpoints merge —
    half-open intervals). Ray shape: the per-user groupby floor; inside
    a group one sort + cumulative max (numpy), no per-event Python.
    """
    span_us = int(span_s * 1_000_000)

    def per_user(g: pa.Table) -> pa.Table:
        n = g.num_rows
        ts = np.sort(g.column(ts_col).to_numpy(
            zero_copy_only=False).astype("datetime64[us]").astype(np.int64))
        ends = ts + span_us
        run_max = np.maximum.accumulate(ends)
        new_island = np.empty(n, dtype=bool)
        new_island[0] = True
        new_island[1:] = ts[1:] > run_max[:-1]
        starts_idx = np.flatnonzero(new_island)
        island_ends = np.concatenate(
            (run_max[starts_idx[1:] - 1], [run_max[-1]]))
        covered = int((island_ends - ts[starts_idx]).sum())
        uid = int(g.column(user_col)[0].as_py())
        return pa.table({
            "user_id": pa.array([uid], type=pa.int64()),
            "n_islands": pa.array([len(starts_idx)], type=pa.int64()),
            "covered_us": pa.array([covered], type=pa.int64()),
        })

    return map_groups(ds.select_columns([user_col, ts_col]), user_col,
                      per_user)


def daily_streaks(ds, user_col: str = "user_id", ts_col: str = "ts"):
    """Longest consecutive-day activity streak per user — the retention
    health metric. Distinct epoch-days per user → gaps-and-islands on
    day − position (consecutive days share the constant) → per-user
    ``n_days`` (distinct active days) and ``longest_streak``.

    Ray shape: per-block (user, day) dedup partials shrink the exchange
    to distinct pairs; one user-keyed groupby; vectorized island scan.
    """

    def day_pairs(b: pa.Table) -> pa.Table:
        ts = b.column(ts_col).to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        day = ts // 86_400_000_000
        uid = b.column(user_col).to_numpy(zero_copy_only=False).astype(
            np.int64)
        t = pa.table({"user_id": pa.array(uid, type=pa.int64()),
                      "day": pa.array(day, type=pa.int64())})
        return t.group_by(["user_id", "day"]).aggregate([])

    def per_user(g: pa.Table) -> pa.Table:
        days = np.unique(g.column("day").to_numpy(zero_copy_only=False))
        if days.size == 0:
            return pa.table({
                "user_id": pa.array([], type=pa.int64()),
                "n_days": pa.array([], type=pa.int64()),
                "longest_streak": pa.array([], type=pa.int64()),
            })
        breaks = np.flatnonzero(np.diff(days) != 1)
        lengths = np.diff(np.concatenate(([-1], breaks, [days.size - 1])))
        uid = int(g.column("user_id")[0].as_py())
        return pa.table({
            "user_id": pa.array([uid], type=pa.int64()),
            "n_days": pa.array([days.size], type=pa.int64()),
            "longest_streak": pa.array([int(lengths.max())],
                                       type=pa.int64()),
        })

    return map_groups(ds.select_columns([user_col, ts_col])
                      .map_batches(day_pairs, batch_format="pyarrow"),
                      "user_id", per_user)


def proximity_join(ds, left_type: str = "purchase",
                   right_type: str = "click", window_s: float = 600.0,
                   user_col: str = "user_id", ts_col: str = "ts",
                   type_col: str = "event_type", id_col: str = "event_id"):
    """Stream⇄stream temporal proximity join: for every LEFT event
    (e.g. purchase), count the same user's RIGHT events (e.g. click)
    within ±``window_s`` and report the nearest absolute distance —
    the "was this conversion preceded by engagement" feature, a
    windowed non-equi self-join no equality key can express.

    Output per left event: ``user_id, event_id, n_before, n_after,
    nearest_abs_us`` (NULL when no right event is in window; a right
    event at the exact same µs counts as before). Exact integer µs.

    Ray shape: the per-user groupby floor; inside a group the right
    timestamps are sorted ONCE and every left event resolves via two
    searchsorteds (counts) plus insertion-point neighbors (nearest) —
    O((L+R)·log R) per user, never the L×R SQL join the oracle runs.
    """
    win_us = int(window_s * 1_000_000)

    def per_user(g: pa.Table) -> pa.Table:
        empty = pa.table({
            "user_id": pa.array([], type=pa.int64()),
            "event_id": pa.array([], type=pa.int64()),
            "n_before": pa.array([], type=pa.int64()),
            "n_after": pa.array([], type=pa.int64()),
            "nearest_abs_us": pa.array([], type=pa.int64()),
        })
        types = g.column(type_col).to_numpy(zero_copy_only=False)
        ts = g.column(ts_col).to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        ids = g.column(id_col).to_numpy(zero_copy_only=False).astype(
            np.int64)
        lmask = types == left_type
        if not lmask.any():
            return empty
        lt, lid = ts[lmask], ids[lmask]
        rt = np.sort(ts[types == right_type])
        uid = int(g.column(user_col)[0].as_py())
        n = lt.size
        if rt.size == 0:
            n_before = n_after = np.zeros(n, dtype=np.int64)
            nearest = pa.array([None] * n, type=pa.int64())
        else:
            lo = np.searchsorted(rt, lt - win_us, side="left")
            mid = np.searchsorted(rt, lt, side="right")  # same-µs: before
            hi = np.searchsorted(rt, lt + win_us, side="right")
            n_before = (mid - lo).astype(np.int64)
            n_after = (hi - mid).astype(np.int64)
            prev_i = np.clip(mid - 1, 0, rt.size - 1)
            next_i = np.clip(mid, 0, rt.size - 1)
            d_prev = np.where(mid > 0, np.abs(lt - rt[prev_i]),
                              np.int64(2**62))
            d_next = np.where(mid < rt.size, np.abs(rt[next_i] - lt),
                              np.int64(2**62))
            dmin = np.minimum(d_prev, d_next)
            has = (n_before + n_after) > 0
            nearest = pa.array(
                [int(d) if h else None for d, h in zip(dmin, has)],
                type=pa.int64())
        return pa.table({
            "user_id": pa.array(np.full(n, uid), type=pa.int64()),
            "event_id": pa.array(lid, type=pa.int64()),
            "n_before": pa.array(n_before, type=pa.int64()),
            "n_after": pa.array(n_after, type=pa.int64()),
            "nearest_abs_us": nearest,
        })

    pruned = ds.select_columns([user_col, ts_col, type_col, id_col])
    return map_groups(pruned, user_col, per_user)


def hourly_profile(ds, ts_col: str = "ts", value_col: str = "value"):
    """Seasonality profile: events bucketed by (day-of-week, hour-of-day)
    with count and exact integer-cent value sums — the load-shape /
    staffing heatmap input. Day-of-week via pure epoch arithmetic
    ``(epoch_days + 4) % 7`` (0 = Sunday; 1970-01-01 was a Thursday) so
    the oracle replays the identical integer formula with no calendar
    or timezone function in the loop.

    Ray shape: one ``keyed_agg`` over (day-of-week, hour) — the
    exchange is 168 rows per block regardless of corpus size.
    """

    def buckets(b: pa.Table) -> pa.Table:
        ts = b.column(ts_col).to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        v = b.column(value_col).to_numpy(zero_copy_only=False)
        return pa.table({
            "dow": ((ts // 86_400_000_000) + 4) % 7,
            "hour": (ts // 3_600_000_000) % 24,
            "value_cents": np.floor(v.astype(np.float64) * 100.0
                                    + 0.5).astype(np.int64),
        })

    return keyed_agg(ds.select_columns([ts_col, value_col])
                     .map_batches(buckets, batch_format="pyarrow"),
                     ["dow", "hour"],
                     {"n": ("count", None),
                      "value_cents": ("sum", "value_cents")})


def time_weighted_avg(ds, user_col: str = "user_id", ts_col: str = "ts",
                      value_col: str = "value"):
    """Time-weighted average per user over an irregular event stream —
    the metrics-engine aggregate where each observed value HOLDS until
    the next observation (zero-order hold), so a value seen for an hour
    weighs 60x one seen for a minute. Plain AVG() answers a different
    (sampling-biased) question.

    Exact integer semantics both sides of the oracle gate: value →
    cents = floor(v·100 + 0.5); interval = floor(Δt_µs / 10⁶) seconds;
    per user over ts-ascending events::

        active_s        = Σ Δt          (the user's observed span)
        weighted_cents_s = Σ cents_i · Δt_i   (value held · duration)
        twa_centicents  = weighted·100 // active

    Users with < 2 events or a zero-second span have no interval to
    average over and are dropped.

    Ray shape: column-pruned user shuffle → vectorized per-group kernel
    (sort → diff → two dot products), one output row per user.
    """

    def per_user(g: pa.Table) -> pa.Table:
        empty = pa.Table.from_pydict({
            user_col: pa.array([], g.schema.field(user_col).type),
            "n_events": pa.array([], type=pa.int64()),
            "active_s": pa.array([], type=pa.int64()),
            "weighted_cents_s": pa.array([], type=pa.int64()),
            "twa_centicents": pa.array([], type=pa.int64()),
        })
        n = g.num_rows
        if n < 2:
            return empty
        t = g.column(ts_col).to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        v = g.column(value_col).to_numpy(zero_copy_only=False)
        order = np.argsort(t, kind="stable")
        t, v = t[order], v[order]
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        dt = (t[1:] - t[:-1]) // 1_000_000
        active = int(dt.sum())
        if active <= 0:
            return empty
        weighted = int((cents[:-1] * dt).sum())
        return pa.Table.from_pydict({
            user_col: g.column(user_col).slice(0, 1),
            "n_events": pa.array([n], type=pa.int64()),
            "active_s": pa.array([active], type=pa.int64()),
            "weighted_cents_s": pa.array([weighted], type=pa.int64()),
            "twa_centicents": pa.array([weighted * 100 // active],
                                       type=pa.int64()),
        })

    return map_groups(ds.select_columns([user_col, ts_col, value_col]),
                      user_col, per_user)


def cusum_changepoints(ds, user_col: str = "user_id", ts_col: str = "ts",
                       value_col: str = "value",
                       allowance_cents: int = 50,
                       threshold_cents: int = 3000):
    """One-sided CUSUM changepoint detection per user — the classic
    Page (1954) control chart: over the user's ts-ordered values the
    statistic S_t = max(0, S_{t-1} + (x_t - k)) accumulates upward
    drift above the user's own baseline and an alarm fires whenever S
    crosses ``threshold_cents`` from below. The monitoring primitive
    behind data-quality drift alerts and per-source corpus anomaly
    detection.

    Exact integer semantics both sides of the oracle gate:
    x = floor(value*100 + 0.5) cents; baseline k = (sum(x) // n) +
    allowance_cents (floor mean, integer); and the recursion is
    replayed in SQL WITHOUT recursion via the reflection identity

        S_t = P_t - min(0, min_{j<=t} P_j),  P_t = cumsum(x - k)

    (prefix sum minus its running minimum), so the gate needs only two
    window functions. Alarms are UPWARD CROSSINGS (S_{t-1} < h <= S_t)
    so a long excursion counts once.

    Per user: n_events, max_cusum, n_alarms, first_alarm_us (epoch
    microseconds of the first crossing; -1 when none — a sentinel, not
    NULL, for hash-stable output).

    Ray shape: one column-pruned ``groupby(user)`` exchange, then a
    vectorized per-group kernel (sort, cumsum, running min) — no
    Python loop over events.
    """

    def per_user(g: pa.Table) -> pa.Table:
        t = g.column(ts_col).to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        v = g.column(value_col).to_numpy(zero_copy_only=False)
        order = np.argsort(t, kind="stable")
        t = t[order]
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)[order]
        n = len(cents)
        k = int(cents.sum()) // n + allowance_cents
        p = np.cumsum(cents - k)
        runmin = np.minimum(np.minimum.accumulate(p), 0)
        s = p - runmin
        s_prev = np.concatenate(([0], s[:-1]))
        cross = (s_prev < threshold_cents) & (s >= threshold_cents)
        n_alarms = int(cross.sum())
        first = int(t[np.argmax(cross)]) if n_alarms else -1
        return pa.Table.from_pydict({
            user_col: g.column(user_col).slice(0, 1),
            "n_events": pa.array([n], type=pa.int64()),
            "max_cusum": pa.array([int(s.max())], type=pa.int64()),
            "n_alarms": pa.array([n_alarms], type=pa.int64()),
            "first_alarm_us": pa.array([first], type=pa.int64()),
        })

    return map_groups(ds.select_columns([user_col, ts_col, value_col]),
                      user_col, per_user)


def ohlc_bars(ds, key_col: str = "event_type", ts_col: str = "ts",
              value_col: str = "value", width_s: int = 3600):
    """OHLC candle bars per key per tumbling window — open (value at
    the earliest event), high, low, close (value at the latest), count.
    The financial/metrics resample whose open/close are ORDER
    statistics, not algebraic aggregates — the part that normally
    forces a per-group sort.

    No sort and no per-group Python here: open/close ride ordinary
    MIN/MAX by packing each event into one int64 composite

        comp = offset_us * 2^21 + (cents + 2^20)

    where offset_us = ts - window_start (< width) dominates and the
    biased cents break ties low/high deterministically. min(comp)
    decodes to the open, max(comp) to the close — associative,
    commutative, mergeable, and replayable in SQL with the same
    arithmetic. Guards keep the packing exact: |cents| < 2^20 and
    width_s * 1e6 * 2^21 within int64 (width <= ~611 hours).

    Ray shape: one ``keyed_agg`` on (key, window): its per-block Arrow
    partials fuse into the packing map, so the combine sees cells x
    blocks rows, never events.

    Returns (key, window_us, open_cents, high_cents, low_cents,
    close_cents, n).
    """
    width_us = int(width_s) * 1_000_000
    bias = 1 << 20
    scale = 1 << 21
    if width_us * scale >= 2 ** 62:
        raise OverflowError("ohlc_bars: width_s too large for exact "
                            "int64 composite packing")

    def pack(b: pa.Table) -> pa.Table:
        t = b.column(ts_col).to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        v = b.column(value_col).to_numpy(zero_copy_only=False)
        # guard on the FLOATS: int64 overflow in the cast would wrap to
        # INT64_MIN whose np.abs is itself negative and slips any
        # post-cast check
        if len(v) and (np.abs(v * 100.0) >= bias).any():
            raise OverflowError(
                "ohlc_bars: |value| cents exceed the 2^20 packing "
                "range; rescale the value column")
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        win = t - t % width_us
        comp = (t - win) * scale + (cents + bias)
        return pa.table({
            key_col: b.column(key_col),
            "window_us": pa.array(win, type=pa.int64()),
            "comp": pa.array(comp, type=pa.int64()),
            "cents": pa.array(cents, type=pa.int64()),
        })

    agg = keyed_agg(
        ds.select_columns([key_col, ts_col, value_col])
        .map_batches(pack, batch_format="pyarrow"),
        [key_col, "window_us"],
        {"comp_min": ("min", "comp"), "comp_max": ("max", "comp"),
         "hi": ("max", "cents"), "lo": ("min", "cents"),
         "n": ("count", None)})

    def decode(b: pa.Table) -> pa.Table:
        cmin = b.column("comp_min").to_numpy(zero_copy_only=False)
        cmax = b.column("comp_max").to_numpy(zero_copy_only=False)
        return pa.table({
            key_col: b.column(key_col),
            "window_us": b.column("window_us").cast(pa.int64()),
            "open_cents": pa.array(cmin % scale - bias,
                                   type=pa.int64()),
            "high_cents": b.column("hi").cast(pa.int64()),
            "low_cents": b.column("lo").cast(pa.int64()),
            "close_cents": pa.array(cmax % scale - bias,
                                    type=pa.int64()),
            "n": b.column("n").cast(pa.int64()),
        })

    return agg.map_batches(decode, batch_format="pyarrow")


def lru_audit(ds, capacity: int = 2, user_col: str = "user_id",
              key_col: str = "event_type", ts_col: str = "ts",
              order_col: str = "event_id"):
    """Per-user LRU cache simulation over the event stream: replay each
    user's accesses in (ts, order) sequence against an LRU cache of
    ``capacity`` keys and classify every access as hit / cold miss
    (first touch of the key) / capacity miss (key was evicted). The
    working-set/locality audit used to size feature caches or pick a
    shard-affinity policy from real access logs.

    Returns one row per user: ``user_id, n_events, hits, cold_misses,
    capacity_misses`` — exact integers (a hit is equivalent to "fewer
    than ``capacity`` distinct keys accessed strictly between the
    previous access of this key and now", the Mattson stack-distance
    identity, which is what a SQL oracle can recompute).

    Ray shape: one column-pruned shuffle keyed by ``user_col``; the
    per-group kernel is a sequential replay by construction (LRU
    eviction is order-dependent state), so the loop is the algorithm —
    parallelism is across users, state is O(capacity + distinct keys
    per user), and nothing touches the driver.
    """
    from collections import OrderedDict

    if capacity < 1:
        raise ValueError("lru_audit: capacity must be >= 1")

    def per_user(group: pa.Table) -> pa.Table:
        n = group.num_rows
        ts = group.column(ts_col).to_numpy(zero_copy_only=False)
        order = group.column(order_col).to_numpy(zero_copy_only=False)
        keys = group.column(key_col).to_pylist()
        cache: OrderedDict = OrderedDict()
        seen: set = set()
        hits = cold = evicted = 0
        for i in np.lexsort((order, ts)):
            k = keys[i]
            if k in cache:
                hits += 1
                cache.move_to_end(k)
            else:
                if k in seen:
                    evicted += 1
                else:
                    cold += 1
                    seen.add(k)
                cache[k] = True
                if len(cache) > capacity:
                    cache.popitem(last=False)
        return pa.Table.from_pydict({
            "user_id": group.column(user_col).slice(0, 1),
            "n_events": pa.array([n], type=pa.int64()),
            "hits": pa.array([hits], type=pa.int64()),
            "cold_misses": pa.array([cold], type=pa.int64()),
            "capacity_misses": pa.array([evicted], type=pa.int64()),
        })

    pruned = ds.select_columns([user_col, key_col, ts_col, order_col])
    return map_groups(pruned, user_col, per_user)


def mrc_curve(ds, max_capacity: int = 4, user_col: str = "user_id",
              key_col: str = "event_type", ts_col: str = "ts",
              order_col: str = "event_id"):
    """Mattson miss-ratio curve: hits an LRU of capacity C would score
    for EVERY C in 1..``max_capacity``, from one replay pass — the
    cache-sizing curve (`lru_audit` answers one capacity; this answers
    them all, exploiting LRU's inclusion property: hit at C ⇔ stack
    distance < C, so one distance histogram yields the whole curve).

    Returns one row per capacity: ``capacity, hits, misses`` summed
    over all users (misses include cold first-touches, which no finite
    LRU can serve).

    Ray shape: shuffle keyed by ``user_col``; each group replays its
    sequence once maintaining an LRU stack of at most ``max_capacity``
    keys (distances beyond it are clamped — they miss at every measured
    capacity), emits a (max_capacity+1)-bin histogram; a tiny fixed-size
    groupby Sum merges the histograms and a single-block finish turns
    counts into the cumulative curve. Exchange size: (capacities+1) ×
    users rows, never events.
    """
    if max_capacity < 1:
        raise ValueError("mrc_curve: max_capacity must be >= 1")

    def per_user(group: pa.Table) -> pa.Table:
        ts = group.column(ts_col).to_numpy(zero_copy_only=False)
        order = group.column(order_col).to_numpy(zero_copy_only=False)
        keys = group.column(key_col).to_pylist()
        # hist[d] = accesses at stack distance d (d = #distinct keys
        # since previous touch of this key); hist[max_capacity] pools
        # distances >= max_capacity AND cold misses — both miss at
        # every capacity we report.
        hist = np.zeros(max_capacity + 1, dtype=np.int64)
        stack: list = []  # most-recent-first, clamped to max_capacity
        for i in np.lexsort((order, ts)):
            k = keys[i]
            try:
                d = stack.index(k)  # O(max_capacity) scan
                hist[d] += 1
                del stack[d]
            except ValueError:
                hist[max_capacity] += 1
            stack.insert(0, k)
            if len(stack) > max_capacity:
                stack.pop()
        return pa.Table.from_pydict({
            "d": pa.array(np.arange(max_capacity + 1), type=pa.int64()),
            "n": pa.array(hist, type=pa.int64()),
        })

    pruned = ds.select_columns([user_col, key_col, ts_col, order_col])
    merged = keyed_agg(map_groups(pruned, user_col, per_user),
                       "d", {"n": ("sum", "n")})

    def finish(b: pa.Table) -> pa.Table:
        d = b.column("d").to_numpy(zero_copy_only=False)
        n = b.column("n").to_numpy(zero_copy_only=False)
        full = np.zeros(max_capacity + 1, dtype=np.int64)
        full[d] = n
        total = int(full.sum())
        hits = np.cumsum(full)[:-1]  # hits at C = Σ_{d<C} hist[d]
        return pa.Table.from_pydict({
            "capacity": pa.array(np.arange(1, max_capacity + 1),
                                 type=pa.int64()),
            "hits": pa.array(hits, type=pa.int64()),
            "misses": pa.array(total - hits, type=pa.int64()),
        })

    # (max_capacity+1)-row aggregate: one block by construction
    return merged.repartition(1).map_batches(finish, batch_format="pyarrow")


def ewma_decay(ds, key_col: str = "event_type", ts_col: str = "ts",
               gap_cap: int = 40):
    """Exponentially-decayed activity per key, EXACT fixed-point: with
    half-life one day, the unnormalized EWMA of daily counts is
    ``Σ_d c_d · 2^-(T-d)`` (T = the corpus's latest day). Emitted
    scaled by 2^40 so every value is an integer —
    ``ewma_q40 = Σ c_d · 2^(40-(T-d))`` — no float accumulation order
    to disagree about; days older than ``gap_cap`` contribute below
    the Q40 resolution and are dropped EXACTLY (weight 0), the
    documented semantics rather than a rounding accident. Output per
    key: ``(key, n_events, n_days, ewma_q40)`` — the freshness signal
    crawl schedulers and mixture re-weighters decay sources by.

    Ray shape: per-block (key, day) partials collapse the exchange to
    keys × days; T is one Max over that table (materialized once,
    it's tiny); the decay weighting is a vectorized shift per row
    feeding a key-sized groupby. A daily count at/above 2^22 would
    overflow the Q40 scale and raises loudly.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Max

    def days(b: pa.Table) -> pa.Table:
        days = pc.cast(pc.cast(b.column(ts_col), pa.date32()),
                       pa.int32())
        return pa.table({"key": b.column(key_col),
                         "day": days}).filter(pc.is_valid(days))

    daily = keyed_agg(
        ds.select_columns([key_col, ts_col])
        .map_batches(days, batch_format="pyarrow"),
        ["key", "day"], {"c": ("count", None)},
    ).materialize()  # keys × days rows; consumed twice (T + weighting)
    t_day = int(daily.aggregate(Max("day", alias_name="t"))["t"])

    def weigh(b: pa.Table) -> pa.Table:
        c = b.column("c").to_numpy(zero_copy_only=False).astype(np.int64)
        if c.size and int(c.max()) >= (1 << 22):
            raise ValueError(
                f"daily count {int(c.max())} >= 2^22 overflows the Q40 "
                "fixed-point scale; pre-aggregate or lower gap_cap")
        gap = t_day - b.column("day").to_numpy(
            zero_copy_only=False).astype(np.int64)
        w = np.where(gap <= gap_cap,
                     np.left_shift(np.int64(1),
                                   np.maximum(40 - gap, 0)), 0)
        w = np.where(gap > 40, np.int64(0), w)
        return pa.table({
            "key": b.column("key"),
            "n_events": pa.array(c, type=pa.int64()),
            "n_days": pa.array(np.ones(len(c), dtype=np.int64)),
            "ewma_q40": pa.array(c * w, type=pa.int64()),
        })

    sums = ("n_events", "n_days", "ewma_q40")
    out = keyed_agg(daily.map_batches(weigh, batch_format="pyarrow"),
                    "key", {c: ("sum", c) for c in sums})
    return out.map_batches(lambda b: b.rename_columns([key_col, *sums]),
                           batch_format="pyarrow")
