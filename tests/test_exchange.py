"""``keyed_agg`` gives Ray's aggregate and the SQL oracle's rows at every
block layout: one block (the default target), many blocks of partials
(combined in one task) and partials past ``target_max_block_size``
(combined through ``keyed_exchange``)."""

from __future__ import annotations

import functools
import random

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

#: name → DataContext settings; each layout takes a different combine
LAYOUTS = {
    "default": {},
    "many_blocks": {"target_min_block_size": 512},
    "exchange": {"target_min_block_size": 512,
                 "target_max_block_size": 2048},
}

AGGS = {"n": ("count", None), "n_f": ("count", "f"), "s_i": ("sum", "i"),
        "s_f": ("sum", "f"), "lo": ("min", "f"), "hi": ("max", "i"),
        "m_f": ("mean", "f")}

SQL = """SELECT {keys}, count(*) AS n, count(f) AS n_f, sum(i) AS s_i,
                round(sum(f), 2) AS s_f, min(f) AS lo, max(i) AS hi,
                round(avg(f), 6) AS m_f
         FROM t GROUP BY {keys}"""


def _events(n: int = 2_000) -> pa.Table:
    """Null keys in both key columns, null values, int and cent-valued
    float columns."""
    rng = random.Random(5)
    pick = lambda vals: [rng.choice(vals) for _ in range(n)]  # noqa: E731
    return pa.table({
        "src": pick(["a", "b", "c", "d", None]),
        "k": pa.array(pick(list(range(40)) + [None]), type=pa.int64()),
        "i": pa.array(pick(list(range(-50, 500))), type=pa.int64()),
        "f": pa.array(pick([round(x * 0.01, 2) for x in range(-999, 99_999, 7)]
                           + [None]), type=pa.float64()),
    })


@pytest.fixture(scope="module")
def events_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("keyed_agg")
    pq.write_table(_events(), d / "events.parquet")
    return str(d)


def _exchanged(ds) -> bool:
    """Whether ``ds``'s plan holds an exchange (``map_groups``' sort)."""
    stack = [ds._logical_plan.dag]
    while stack:
        op = stack.pop()
        if op.name == "Sort":
            return True
        stack.extend(op.input_dependencies)
    return False


def _rows(df, keys):
    df = df.copy()
    df["s_f"] = df["s_f"].round(2)
    df["m_f"] = df["m_f"].round(6)
    df = df.sort_values(keys, na_position="last").reset_index(drop=True)
    return [tuple(None if v != v else v for v in r)
            for r in df.itertuples(index=False)]


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("keys", [["src"], ["src", "k"]])
@pytest.mark.parametrize("empty", [False, True])
def test_keyed_agg_matches_ray_and_oracle(layout, keys, empty, events_dir,
                                          ray_session, monkeypatch):
    import duckdb
    from ray.data.aggregate import Count, Max, Mean, Min, Sum
    from ray.data.context import DataContext

    import __ray_entry__ as entry
    from smartreader_ray.functions.exchange import keyed_agg

    ctx = DataContext.get_current()
    for name, value in LAYOUTS[layout].items():
        monkeypatch.setattr(ctx, name, value)
    ds = entry._read(events_dir, "events")
    if empty:
        ds = ds.filter(expr="i < -1000")
    if layout != "default":
        assert ds.materialize().num_blocks() > 1

    out = keyed_agg(ds, keys, AGGS)
    assert _exchanged(out) == (layout == "exchange" and not empty)
    got = out.to_pandas()
    # Ray's sort cannot order a null key against a string: it runs on
    # the rows whose keys are all valid
    ray_df = ds.map_batches(lambda b: b.filter(
        functools.reduce(pc.and_, [pc.is_valid(b.column(k)) for k in keys])),
        batch_format="pyarrow").groupby(keys).aggregate(
        Count(alias_name="n"), Count("f", alias_name="n_f"),
        Sum("i", alias_name="s_i"), Sum("f", alias_name="s_f"),
        Min("f", alias_name="lo"), Max("i", alias_name="hi"),
        Mean("f", alias_name="m_f")).to_pandas()
    if empty:
        assert got.empty and ray_df.empty
        return
    assert list(got.columns) == keys + list(AGGS)

    con = duckdb.connect()
    con.register("t", pq.read_table(f"{events_dir}/events.parquet"))
    want = con.sql(SQL.format(keys=", ".join(keys))).df()
    assert _rows(got, keys) == _rows(want, keys)
    valid = got[keys].notna().all(axis=1)
    assert valid.sum() < len(got)  # null key groups are covered
    assert _rows(got[valid], keys) == _rows(ray_df, keys)
