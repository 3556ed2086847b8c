"""``topk.top_k`` gives DuckDB's ``ORDER BY … LIMIT n`` at every block
layout: one block (the default target) and many blocks (a 512-byte
target), with nulls and NaN in the ordered value, ties broken by a
second column, both directions and ``n`` past the row count."""

from __future__ import annotations

import math
import random

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

#: name → DataContext settings
LAYOUTS = {"default": {}, "many_blocks": {"target_min_block_size": 512}}

#: (top_k order, the same order in SQL)
ORDERS = {
    "v_desc": ([("v", "descending"), ("id", "ascending")],
               "v DESC NULLS LAST, id ASC"),
    "v_asc": ([("v", "ascending"), ("id", "descending")],
              "v ASC NULLS LAST, id DESC"),
    "s_v": ([("s", "ascending"), ("v", "descending"), ("id", "ascending")],
            "s ASC NULLS LAST, v DESC NULLS LAST, id ASC"),
}


def _rows(n: int = 1_500) -> pa.Table:
    """A float value with few distinct values (ties), nulls and NaN, a
    nullable string and a unique id that breaks the ties."""
    rng = random.Random(5)
    ids = list(range(n))
    rng.shuffle(ids)
    return pa.table({
        "s": [rng.choice(["a", "b", None]) for _ in range(n)],
        "v": pa.array([rng.choice([0.5, 1.0, 2.5, -3.0, math.nan, None])
                       for _ in range(n)], type=pa.float64()),
        "id": pa.array(ids, type=pa.int64()),
    })


@pytest.fixture(scope="module")
def rows_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("top_k")
    pq.write_table(_rows(), d / "rows.parquet")
    return str(d)


def _listed(rows) -> list[tuple]:
    """Rows as tuples in order, NaN as a string so that it equals
    itself."""
    return [tuple("nan" if isinstance(x, float) and math.isnan(x) else x
                  for x in r) for r in rows]


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", [7, 400, 5_000])
def test_top_k_matches_order_by_limit(layout, order, n, rows_dir,
                                      ray_session, monkeypatch):
    import duckdb
    from ray.data.context import DataContext

    import __ray_entry__ as entry
    from smartreader_ray.functions.topk import top_k

    ctx = DataContext.get_current()
    for name, value in LAYOUTS[layout].items():
        monkeypatch.setattr(ctx, name, value)
    ds = entry._read(rows_dir, "rows")
    if layout != "default":
        assert ds.materialize().num_blocks() > 1

    by, sql_order = ORDERS[order]
    out = top_k(ds, by, n).materialize()
    assert out.num_blocks() == 1
    got = _listed((r["s"], r["v"], r["id"]) for r in out.take_all())
    t = pq.read_table(f"{rows_dir}/rows.parquet")
    want = _listed(duckdb.sql(
        f"SELECT s, v, id FROM t ORDER BY {sql_order} LIMIT {n}"
    ).fetchall())
    assert got == want


@pytest.mark.parametrize("blocks,n,want", [
    (1, 5, [5.0, 4.0, 3.0, 1.0, None]),
    (2, 3, [5.0, 4.0, 3.0]),
])
def test_top_k_keeps_null_rows(blocks, n, want, ray_session):
    """Null values sort last and still count toward ``n``, in one block
    and in two."""
    import ray.data

    from smartreader_ray.functions.topk import top_k

    v = pa.array([3, None, 5, 1, None, 4, None], type=pa.float64())
    t = pa.table({"v": v})
    cut = -(-len(v) // blocks)
    ds = ray.data.from_arrow([t.slice(i, cut) for i in range(0, len(v), cut)])
    got = [r["v"] for r in top_k(ds, [("v", "descending")], n).take_all()]
    assert got == want
