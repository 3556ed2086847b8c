"""One benchmark sample: one fresh Ray session (run by ``run.py``).

Usage: python3 perfbench/sample.py META_JSON RESULT_JSON {jobs,trace,stall} [N_JOBS]

* ``jobs``: time set-up (``ray.init`` plus the first trivial Ray Data
  execution), then run the workload's job N_JOBS times (possibly 0),
  one at a time. Each job's timings and output digest go to
  RESULT_JSON.
* ``trace``: set-up, one untraced job, the same job with spans recorded
  around each layer call, then the Ray-only layer run (identity
  ``map_batches``). The spans go to ``spans-ray.jsonl`` in the work
  directory.
* ``stall``: a parquet read feeding an identity actor ``map_batches``
  at ``num_cpus`` = the host's CPU count. ``run.py``'s deadline decides
  whether it stalled; this process only reports completion.

Once set-up returns, the sample creates ``RESULT_JSON.ready``, so that
``run.py`` can start a deadline that set-up time does not eat into.

Between two jobs of a session, the sample waits until the finished
job's actors have handed back every CPU, so no actor of one job holds
resources the next one needs.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time

import ray
import ray.data

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench.spans import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, identity_map, save_json  # noqa: E402

#: how long a finished job's actors may take to hand back their CPUs
IDLE_DEADLINE_S = 30.0


class _NoTracer(Tracer):
    """Tracer with spans off: the untraced run pays one no-op per call."""

    def span(self, name, ref=""):
        return _NULL


class _Null:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL = _Null()


def start_ray(meta: dict, num_cpus: int) -> None:
    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        log_to_driver=False,
        object_store_memory=meta["object_store_bytes"],
        _temp_dir=meta["ray_temp_dir"],
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    ray.data.range(8).map_batches(lambda b: b).take_all()


def wait_idle() -> None:
    """Return once every CPU of the session is free again."""
    gc.collect()  # drops the finished job's Dataset and with it its actor pool
    total = ray.cluster_resources().get("CPU", 0.0)
    deadline = time.monotonic() + IDLE_DEADLINE_S
    while ray.available_resources().get("CPU", 0.0) < total:
        if time.monotonic() > deadline:
            raise RuntimeError(f"CPUs still held {IDLE_DEADLINE_S:.0f} s after a job ended")
        time.sleep(0.05)


def run_jobs(workload, meta: dict, n: int) -> list[dict]:
    jobs = []
    for _ in range(n):
        started = time.monotonic()
        jobs.append(workload.run_job(meta, _NoTracer()))
        jobs[-1]["window"] = (started, time.monotonic())
        wait_idle()
    return jobs


def run_trace(workload, meta: dict) -> dict:
    untraced = workload.run_job(meta, _NoTracer())
    wait_idle()
    tracer = Tracer()
    origin = time.perf_counter()
    traced = workload.run_job(meta, tracer)
    tracer.dump(os.path.join(meta["work"], "spans-ray.jsonl"), origin)
    wait_idle()
    extras = workload.layer_extras(meta, meta["ray_num_cpus"])
    return {"jobs": [untraced], "traced": traced, "extras": extras}


def main(meta_path: str, result_path: str, mode: str, n_jobs: str = "0") -> None:
    with open(meta_path) as f:
        meta = json.load(f)
    workload = WORKLOADS[meta["workload"]]
    started = time.monotonic()
    start_ray(meta, meta["nproc"] if mode == "stall" else meta["ray_num_cpus"])
    setup_window = (started, time.monotonic())
    open(result_path + ".ready", "w").close()
    if mode == "stall":
        identity_map(ray.data.read_parquet(meta["stall_inputs"]), meta["nproc"])
        res = {"completed": True}
    else:
        wait_idle()
        if mode == "jobs":
            res = {"jobs": run_jobs(workload, meta, int(n_jobs))}
        else:
            res = run_trace(workload, meta)
        res["setup_s"] = setup_window[1] - setup_window[0]
        res["setup_window"] = setup_window
    save_json(result_path, res)
    ray.shutdown()


if __name__ == "__main__":
    main(*sys.argv[1:5])
