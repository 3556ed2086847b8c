"""Local stand-in for the driver's correctness gate: run each queries()
entry and its oracle_sql() side-by-side on one sf dir and compare
row-count, schema (column names), and an order-insensitive value hash.
Every line also prints the engine output's own value hash, so two
checkouts' outputs can be diffed, rows-only queries included. Ray runs
at ``max(2, nproc)`` CPUs, as ``perfbench/run.py`` does: at one CPU an
exchange fed by a union can stall for good (see ROADMAP 3(c)).
A query that needs the reference fixture directory prints
``skip <name>: reference fixtures absent: <dir>`` when that directory is
missing, and does not count as a failure.

With ``--times PATH`` it also writes a JSON artifact: the host facts a
timing needs (``nproc``, Ray's ``num_cpus``, the checkout's git sha,
versions) and each query's status, rows, hash and wall time, so the
per-query times of two checkouts can be compared.

With ``--block-bytes N`` it sets Ray Data's
``DataContext.target_min_block_size`` to N bytes before any query runs,
so the gate can be run at a block layout other than the default (every
line must then equal the default run's); the host facts record the
value in effect.

Usage: python tools/oracle_check.py [sf_dir] [query ...] [--times PATH]
       [--block-bytes N]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def to_pandas(result):
    import pandas as pd
    import pyarrow as pa

    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()  # ray Dataset


def value_hash(df) -> str:
    import pandas as pd

    df = df.reindex(sorted(df.columns), axis=1)
    rows = []
    for row in df.itertuples(index=False):
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(f"{v:.9g}")
            else:
                cells.append(str(v))
        rows.append("\x1f".join(cells))
    rows.sort()
    return hashlib.sha256("\x1e".join(rows).encode()).hexdigest()[:16]


def fixtures_absent(exc: BaseException) -> str | None:
    """The fixture directory, when ``exc`` is a missing-file error for a
    path under it and the directory itself does not exist: such a query
    is skipped by name, not counted as a failure. ``None`` otherwise."""
    from smartreader_ray.sources import FIXTURE_DIR

    if (not isinstance(exc, FileNotFoundError) or exc.filename is None
            or os.path.exists(FIXTURE_DIR)):
        return None
    root = os.path.abspath(FIXTURE_DIR)
    path = os.path.abspath(os.fsdecode(exc.filename))
    return FIXTURE_DIR if os.path.commonpath([root, path]) == root else None


def git_sha() -> str | None:
    """The checkout's ``git describe --always --dirty``, or ``None``
    outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # git would name an enclosing repo
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=ROOT, text=True, capture_output=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def host_facts(sf_dir: str) -> dict:
    import duckdb
    import pyarrow
    import ray
    from ray.data import DataContext

    from perfbench.run import host_nproc

    return {
        "sf_dir": os.path.abspath(sf_dir),
        "git_sha": git_sha(),
        "nproc": host_nproc(),
        "ray_num_cpus": int(ray.cluster_resources().get("CPU", 0)),
        "target_min_block_size":
            DataContext.get_current().target_min_block_size,
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "duckdb": duckdb.__version__,
    }


def main() -> None:
    ap = argparse.ArgumentParser(
        usage="%(prog)s [sf_dir] [query ...] [--times PATH] "
              "[--block-bytes N]",
        description=__doc__.split("\n\n")[0])
    ap.add_argument("--times", metavar="PATH",
                    help="write host facts and per-query times as JSON")
    ap.add_argument("--block-bytes", metavar="N", type=int,
                    help="set DataContext.target_min_block_size to N")
    args, sys.argv[1:] = ap.parse_known_args()  # the rest is positional
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import duckdb
    import ray
    from ray.data import DataContext

    from perfbench.run import host_nproc

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=max(2, host_nproc()),
                 include_dashboard=False)
    if args.block_bytes is not None:
        DataContext.get_current().target_min_block_size = args.block_bytes

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        path = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(path):
            con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{path}'")

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    failures = 0
    times: dict[str, dict] = {}
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            t0 = time.perf_counter()
            got = to_pandas(fn(sf_dir))
            dt = time.perf_counter() - t0
        except Exception as exc:
            import traceback

            absent = fixtures_absent(exc)
            if absent:
                print(f"skip {name}: reference fixtures absent: {absent}")
                times[name] = {"status": "skip"}
                continue
            traceback.print_exc()
            print(f"FAIL {name}: query raised {type(exc).__name__}: {exc}")
            times[name] = {"status": "raised"}
            failures += 1
            continue
        got_hash = value_hash(got)
        times[name] = {"status": "rows-only", "rows": len(got),
                       "hash": got_hash, "wall_s": round(dt, 4)}
        if name not in oracles:
            print(f"ok   {name}: rows={len(got)} hash={got_hash} "
                  f"(rows-only, {dt:.1f}s)")
            if len(got) == 0 and name not in ("embed_neardup_lsh",):
                print(f"     WARNING: zero rows")
            continue
        exp = con.sql(oracles[name]).df()
        ok_rows = len(got) == len(exp)
        ok_cols = sorted(got.columns) == sorted(exp.columns)
        ok_hash = got_hash == value_hash(exp) if ok_rows and ok_cols else False
        status = "ok  " if (ok_rows and ok_cols and ok_hash) else "FAIL"
        times[name]["status"] = status.strip()
        if status == "FAIL":
            failures += 1
        print(
            f"{status} {name}: rows {len(got)}/{len(exp)} cols_ok={ok_cols} "
            f"hash_ok={ok_hash} hash={got_hash} ({dt:.1f}s)"
        )
        if not ok_cols:
            print(f"     got  cols: {sorted(got.columns)}")
            print(f"     want cols: {sorted(exp.columns)}")
        elif not ok_hash and ok_rows:
            merged = _first_diff(got, exp)
            if merged is not None:
                print(f"     first diff:\n{merged}")
    if args.times:
        with open(args.times, "w") as f:
            json.dump({**host_facts(sf_dir), "failures": failures,
                       "queries": times}, f, indent=1)
    sys.exit(1 if failures else 0)


def _first_diff(got, exp):
    import pandas as pd

    g = got.reindex(sorted(got.columns), axis=1)
    e = exp.reindex(sorted(exp.columns), axis=1)
    key = list(g.columns)[0]
    try:
        g = g.sort_values(list(g.columns)).reset_index(drop=True)
        e = e.sort_values(list(e.columns)).reset_index(drop=True)
        neq = (g != e) & ~(g.isna() & e.isna())
        bad = neq.any(axis=1)
        if bad.any():
            i = bad.idxmax()
            return pd.concat([g.loc[[i]], e.loc[[i]]], keys=["got", "exp"])
    except Exception:
        return None
    return None


if __name__ == "__main__":
    main()
