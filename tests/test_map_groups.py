"""``exchange.map_groups`` gives Ray's ``groupby().map_groups`` on
non-null keys at every block layout, forms one group of a null key
wherever its rows sit, and is the program's only per-key map: no
module but ``exchange.py`` calls Ray's ``groupby(...).map_groups``."""

from __future__ import annotations

import ast
import datetime as dt
import pathlib
import random

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: name → DataContext settings
LAYOUTS = {"default": {}, "many_blocks": {"target_min_block_size": 512}}


def _rows(n: int = 1_500) -> pa.Table:
    rng = random.Random(3)
    return pa.table({
        "src": [rng.choice("abcdefg") for _ in range(n)],
        "k": pa.array([rng.randrange(15) for _ in range(n)], type=pa.int64()),
        "v": pa.array([rng.randrange(-50, 100) for _ in range(n)],
                      type=pa.int64()),
        "id": pa.array(range(n), type=pa.int64()),
    })


def _summary(keys):
    """Per group: its key, row count, value sum and ids in order."""
    def fn(g: pa.Table) -> pa.Table:
        return pa.table({k: g.column(k).slice(0, 1) for k in keys} | {
            "n": pa.array([g.num_rows], type=pa.int64()),
            "s": pa.array([pc.sum(g.column("v")).as_py()], type=pa.int64()),
            "ids": pa.array([sorted(g.column("id").to_pylist())],
                            type=pa.list_(pa.int64())),
        })
    return fn


def _sorted(rows: list[dict]) -> list[tuple]:
    return sorted((tuple(r.values()) for r in rows), key=repr)


@pytest.fixture(scope="module")
def rows_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("map_groups")
    pq.write_table(_rows(), d / "rows.parquet")
    return str(d)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("keys", [["src"], ["src", "k"]])
def test_map_groups_matches_ray(layout, keys, rows_dir, ray_session,
                                monkeypatch):
    from ray.data.context import DataContext

    import __ray_entry__ as entry
    from smartreader_ray.functions.exchange import map_groups

    ctx = DataContext.get_current()
    for name, value in LAYOUTS[layout].items():
        monkeypatch.setattr(ctx, name, value)
    ds = entry._read(rows_dir, "rows")
    if layout != "default":
        assert ds.materialize().num_blocks() > 1

    key = keys if len(keys) > 1 else keys[0]
    got = map_groups(ds, key, _summary(keys)).take_all()
    want = ds.groupby(key).map_groups(_summary(keys),
                                      batch_format="pyarrow").take_all()
    assert len(got) == len({tuple(r[k] for k in keys) for r in want})
    assert _sorted(got) == _sorted(want)


def _null_key_blocks() -> list[pa.Table]:
    """Three blocks; a null ``src`` in two of them, and in both key
    columns of one row."""
    def block(src, k, ids):
        return pa.table({"src": pa.array(src, type=pa.string()),
                         "k": pa.array(k, type=pa.int64()),
                         "v": pa.array(ids, type=pa.int64()),
                         "id": pa.array(ids, type=pa.int64())})
    return [block(["a", None, "b"], [1, 1, None], [0, 1, 2]),
            block(["b", "a"], [1, 1], [3, 4]),
            block([None, None, "a"], [1, None, 1], [5, 6, 7])]


def _null_typed_items():
    """``from_items`` rows, one per block: a block whose key is None
    has Arrow type ``null``, the others ``string``."""
    import ray.data

    rows = [{"src": s, "k": 1, "v": i, "id": i}
            for i, s in enumerate(["a", None, "b", None, "a"])]
    return ray.data.from_items(rows, override_num_blocks=len(rows))


def test_null_key_is_one_group(ray_session):
    import ray.data

    from smartreader_ray.functions.exchange import map_groups

    ds = ray.data.from_arrow(_null_key_blocks())
    got = {r["src"]: (r["n"], r["ids"])
           for r in map_groups(ds, "src", _summary(["src"])).take_all()}
    assert got == {"a": (3, [0, 4, 7]), "b": (2, [2, 3]),
                   None: (3, [1, 5, 6])}

    two = {(r["src"], r["k"]): r["ids"] for r in map_groups(
        ds, ["src", "k"], _summary(["src", "k"])).take_all()}
    assert two == {("a", 1): [0, 4, 7], ("b", None): [2], ("b", 1): [3],
                   (None, 1): [1, 5], (None, None): [6]}

    typed = {r["src"]: r["ids"] for r in map_groups(
        _null_typed_items(), "src", _summary(["src"])).take_all()}
    assert typed == {"a": [0, 4], "b": [2], None: [1, 3]}

    nan = float("nan")
    floats = ray.data.from_arrow([
        pa.table({"f": [1.0, nan, None], "v": [0, 1, 2], "id": [0, 1, 2]}),
        pa.table({"f": [nan, None, 1.0], "v": [3, 4, 5], "id": [3, 4, 5]})])
    by_f = sorted((repr(r["f"]), r["ids"]) for r in map_groups(
        floats, "f", _summary(["f"])).take_all())
    assert by_f == [("1.0", [0, 5]), ("None", [2, 4]), ("nan", [1, 3])]


def test_sessionize_null_user_across_blocks(ray_session):
    """A null ``user_id`` in two blocks is one user's sessions, the same
    as a named user's with the same events."""
    import ray.data

    from smartreader_ray.functions import sessionize

    t0 = dt.datetime(2024, 1, 1)

    def block(users, minutes, ids):
        return pa.table({
            "user_id": pa.array(users, type=pa.string()),
            "ts": pa.array([t0 + dt.timedelta(minutes=m) for m in minutes],
                           type=pa.timestamp("us")),
            "value": pa.array([1.5] * len(ids)),
            "event_id": pa.array(ids, type=pa.int64()),
        })

    def sessions(user):
        blocks = [block(["u1", user, "u2"], [0, 0, 5], [0, 1, 2]),
                  block([user, "u1"], [10, 100], [3, 4]),
                  block(["u2", user], [200, 300], [5, 6])]
        out = sessionize(ray.data.from_arrow(blocks), gap_s=1800).take_all()
        return {(r["user_id"], r["session_id"]):
                (r["n_events"], r["t_start"], r["total_value"]) for r in out}

    got, named = sessions(None), sessions("zz")
    assert {k: v for k, v in got.items() if k[0] is None} == {
        (None, 1): (2, t0, 3.0),
        (None, 2): (1, t0 + dt.timedelta(minutes=300), 1.5)}
    assert got == {(None if u == "zz" else u, s): v
                   for (u, s), v in named.items()}


def test_map_groups_empty(ray_session):
    import ray.data

    from smartreader_ray.functions.exchange import map_groups

    ds = ray.data.from_arrow(_null_key_blocks())
    assert map_groups(ds, "src", lambda g: g.slice(0, 0)).take_all() == []
    assert map_groups(ds.filter(expr="v < -1"), "src",
                      _summary(["src"])).take_all() == []


def test_map_groups_partition_is_one_chunk(ray_session):
    """Each partition's per-key outputs leave as one chunk per column,
    so an output block holds at most one chunk per partition in it."""
    import ray
    import ray.data

    from smartreader_ray.functions.exchange import _parts, map_groups

    t = pa.table({"win": pa.array(np.arange(3_000) % 1_000),
                  "id": pa.array(np.arange(3_000))})
    out = map_groups(ray.data.from_arrow([t.slice(i, 500)
                                          for i in range(0, 3_000, 500)]),
                     "win", lambda g: g).materialize()
    assert out.count() == 3_000
    for block in ray.get(out.to_arrow_refs()):
        parts = np.unique(_parts(block, ["win"]).to_numpy())
        assert max(c.num_chunks for c in block.columns) <= len(parts)


def test_no_ray_grouping_outside_exchange():
    """Every per-key map runs on ``exchange.map_groups``: Ray's
    ``groupby(...).map_groups`` is called in ``exchange.py`` alone."""
    sites = []
    for path in [ROOT / "__ray_entry__.py",
                 *(ROOT / "smartreader_ray").rglob("*.py")]:
        if path.name == "exchange.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", "") == "map_groups"
                    and getattr(getattr(node.func.value, "func", None),
                                "attr", "") == "groupby"):
                sites.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert sites == []
