"""``topk.head_by`` gives DuckDB's ``ROW_NUMBER() OVER (PARTITION BY key
ORDER BY …) <= n`` at every block layout: one block (the default
target) and many blocks (a 512-byte target), with null keys, a
two-column key, ties in the ranked value, ``n`` past a group's size
and an empty input."""

from __future__ import annotations

import random

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

#: name → DataContext settings
LAYOUTS = {"default": {}, "many_blocks": {"target_min_block_size": 512}}

#: (head_by order, the same order in SQL)
ORDERS = {
    "v_desc": ([("v", "descending"), ("id", "ascending")],
               "v DESC NULLS LAST, id ASC"),
    "v_asc": ([("v", "ascending"), ("id", "descending")],
              "v ASC NULLS LAST, id DESC"),
}


def _rows(n: int = 1_500) -> pa.Table:
    """Null keys in both key columns, a value with few distinct values
    (ties) and nulls, and a unique id that breaks the ties."""
    rng = random.Random(11)
    ids = list(range(n))
    rng.shuffle(ids)
    return pa.table({
        "src": [rng.choice(["a", "b", "c", None]) for _ in range(n)],
        "k": pa.array([rng.choice(list(range(12)) + [None])
                       for _ in range(n)], type=pa.int64()),
        "v": pa.array([rng.choice(list(range(9)) + [None])
                       for _ in range(n)], type=pa.int64()),
        "id": pa.array(ids, type=pa.int64()),
    })


@pytest.fixture(scope="module")
def rows_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("head_by")
    pq.write_table(_rows(), d / "rows.parquet")
    return str(d)


def _sorted(t: pa.Table) -> list[tuple]:
    cols = ["src", "k", "v", "id", "rank"]
    return sorted(zip(*(t.column(c).to_pylist() for c in cols)),
                  key=lambda r: r[3])


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("keys", [["src"], ["src", "k"]])
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", [3, 1_000])
def test_head_by_matches_row_number(layout, keys, order, n, rows_dir,
                                    ray_session, monkeypatch):
    import duckdb
    from ray.data.context import DataContext

    import __ray_entry__ as entry
    from smartreader_ray.functions.topk import head_by

    ctx = DataContext.get_current()
    for name, value in LAYOUTS[layout].items():
        monkeypatch.setattr(ctx, name, value)
    ds = entry._read(rows_dir, "rows")
    if layout != "default":
        assert ds.materialize().num_blocks() > 1

    by, sql_order = ORDERS[order]
    got = pa.Table.from_pylist(
        head_by(ds, keys if len(keys) > 1 else keys[0], by, n).take_all())
    t = pq.read_table(f"{rows_dir}/rows.parquet")
    want = duckdb.sql(f"""
        SELECT * FROM (
            SELECT *, ROW_NUMBER() OVER (PARTITION BY {", ".join(keys)}
                                         ORDER BY {sql_order}) AS rank
            FROM t)
        WHERE rank <= {n}""").arrow()
    assert _sorted(got) == _sorted(want)
    assert any(r[0] is None for r in _sorted(got))  # null keys covered
    if n > 100:  # every group is smaller than n: every row comes back
        assert got.num_rows == t.num_rows


def test_head_by_empty(ray_session):
    import ray.data

    from smartreader_ray.functions.topk import head_by

    t = pa.table({"src": pa.array([], type=pa.string()),
                  "v": pa.array([], type=pa.int64())})
    assert head_by(ray.data.from_arrow(t), "src", [("v", "descending")],
                   2).take_all() == []
