"""Layer-ledger benchmark of smartreader_ray: one command, two workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

This process generates the workload's inputs from ``--seed`` and
computes the reference output in-process. Then it runs two samples,
one at a time. Each sample is a fresh process with a fresh Ray session
under a deadline: it times set-up, then runs jobs one at a time (a
closed loop with one client) and reports each job's wall time and
output digest, which must equal the reference. A run makes about
``--seconds`` of jobs (``seconds / job_s`` of them, at least one).

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
traced in-process layer ledger, the stall probe and one session with
an untraced and a traced job, and prints the per-layer metrics. The
last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every output was correct. Artifacts (host facts, samples,
spans, ledger) go to ``.pbw/<workload>-s<seed>-t<trace>/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import watchdog  # noqa: E402
from perfbench.ledger import (  # noqa: E402
    article_counts, article_digest, layer_metrics, run_ledger,
)
from perfbench.spans import Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    BATCH_SIZE, QUERIES, SIZES, WORKLOADS, files_digest, save_json,
)

WORK_ROOT = os.path.join(ROOT, ".pbw")
#: Ray sessions per untraced run; each times set-up once
SESSIONS = 2
SAMPLE_DEADLINE_S = 120.0
#: a run must end within this: no sample's deadline reaches past it
RUN_BUDGET_S = 170.0
STALL_DEADLINE_S = 15.0
#: the reference host speed: a gauge chunk (``watchdog.GAUGE_ITERS``
#: loop iterations) takes this long; times are scaled to it
GAUGE_REF_S = 0.012
#: Unix socket paths are capped at 107 bytes; Ray's longest socket path
#: adds about 63 bytes to its temp dir
MAX_RAY_TEMP_DIR = 44

HT = "pages_heavy_tail"
KERNEL = f"docs_per_s/mb_per_s on {HT}, nothing on corpus_dedup_join"
SAME = "nothing: a change means behaviour changed"

#: what each per-layer metric of BENCHMARK.json should move
SHOULD_MOVE = {
    "dom.parse_html_s": KERNEL,
    "dom.inner_html_s": KERNEL,
    "extraction.parse_s": KERNEL,
    "extraction.plaintext_s": KERNEL,
    "extraction.other_s": KERNEL,
    "extraction.doc_p50_ms": f"docs_per_s on {HT}",
    "extraction.doc_p99_ms": f"wall_s on {HT}",
    "spanio.assemble_html_s": f"docs_per_s on {HT}",
    "spanio.flatten_element_s": f"docs_per_s on {HT}",
    "stages.article_to_row_s": f"docs_per_s on {HT}",
    "stages.rows_to_table_s": f"docs_per_s on {HT}",
    "stages.extract_batch_s": f"docs_per_s on {HT}",
    "pipelines.identity_map_s": f"wall_s on {HT}",
    "pipelines.first_batch_s": f"wall_s on {HT}",
    "pipelines.read_actor_stall_at_nproc": "nothing timed (robustness target)",
    "extraction.readable": SAME,
    "extraction.grab_rounds": SAME,
    "extraction.candidates": SAME,
    "extraction.text_chars": SAME,
    "trace.overhead_s": "nothing: traced minus untraced wall_s",
}

#: per-layer metrics of one workload only: in the artifact and the
#: printout, not in BENCHMARK.json; name → (unit, what it should move)
WORKLOAD_ONLY = {
    "pipelines.ray_share": ("1", f"wall_s on {HT}"),
    **{f"functions.{q}_s": ("s", "wall_s on corpus_dedup_join") for q in QUERIES},
    **{f"functions.{q}_exchange_share": ("1", "wall_s on corpus_dedup_join")
       for q in QUERIES},
}


def metric_units(trace: int) -> dict:
    """Name → unit of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def source_digest() -> str:
    """Digest of the program under test, for the reference cache."""
    h = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(ROOT, "smartreader_ray", "**", "*.py"),
                             recursive=True))
    files += [os.path.join(ROOT, "__ray_entry__.py"),
              os.path.join(ROOT, "tools", "oracle_check.py")]
    for p in files:
        with open(p, "rb") as f:
            h.update(os.path.relpath(p, ROOT).encode() + b"\x1f" + f.read())
    return h.hexdigest()[:16]


def host_nproc() -> int:
    """What ``nproc`` reports: it honours OMP_NUM_THREADS, which is how
    this host's CPU share is stated; the affinity count is the fallback."""
    try:
        return int(subprocess.run(["nproc"], text=True, capture_output=True,
                                  timeout=10).stdout)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return len(os.sched_getaffinity(0))


def host_facts(args, meta: dict) -> dict:
    import pyarrow
    import ray

    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # else git would name an enclosing repo
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": meta["nproc"],
        "cpus_in_affinity_mask": len(os.sched_getaffinity(0)),
        "ray_num_cpus": meta["ray_num_cpus"],
        "ray_num_cpus_why": (
            "max(2, nproc): at num_cpus=1 a parquet read feeding an actor "
            "map_batches stalls with the CPU idle (see "
            "pipelines.read_actor_stall_at_nproc)"),
        "git_sha": sha,
        "source_digest": meta["source_digest"],
        "seed": args.seed,
        "inputs_digest": meta["inputs_digest"],
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "ray_temp_dir": meta["ray_temp_dir"],
    }


def reference(workload, meta: dict, ledger_ref) -> dict:
    """The workload's reference result, cached per input and program.
    ``ledger_ref`` is this run's traced in-process ledger result, if any."""
    cache = os.path.join(WORK_ROOT, "cache", "-".join(
        (workload.name, meta["inputs_digest"], meta["source_digest"])) + ".json")
    if ledger_ref is None and os.path.exists(cache):
        with open(cache) as f:
            return json.load(f)
    ref = workload.reference(meta, ledger_ref)
    os.makedirs(os.path.dirname(cache), exist_ok=True)
    save_json(cache, ref)
    return ref


class Runner:
    def __init__(self, workload, meta: dict, ref: dict, started: float):
        self.workload, self.meta, self.ref, self.started = workload, meta, ref, started
        self.meta_path = os.path.join(meta["work"], "meta.json")
        save_json(self.meta_path, meta)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (ROOT, os.environ.get("PYTHONPATH")) if p))
        self.n = 0

    def sample(self, mode: str, n_jobs: int = 0, deadline_s: float = SAMPLE_DEADLINE_S,
               after_setup_s: float | None = None) -> dict:
        """One sample process; returns its result with ``ok``/``errors``.
        With ``after_setup_s``, it also times out that long after its Ray
        set-up returned."""
        self.n += 1
        deadline_s = min(deadline_s, RUN_BUDGET_S - (time.monotonic() - self.started))
        out = os.path.join(self.meta["work"], f"sample-{self.n:03d}-{mode}.json")
        ran = watchdog.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "sample.py"),
             self.meta_path, out, mode, str(n_jobs)],
            env=self.env, cwd=ROOT, deadline_s=deadline_s,
            log_path=os.path.join(self.meta["work"], "samples.log"),
            role=self.workload.rss_role,
            ready=(out + ".ready", after_setup_s) if after_setup_s else None,
        )
        gauge = ran.pop("gauge")
        res = {"mode": mode, **ran, "ok": False, "jobs": []}
        if ran["returncode"] is None:
            res["errors"] = ["deadline passed"]
        elif ran["returncode"] != 0 or not os.path.exists(out):
            res["errors"] = [f"sample exited with code {ran['returncode']}"]
        else:
            with open(out) as f:
                res.update(json.load(f))
            for job in res["jobs"]:
                job["gauge_s"] = gauge_s(gauge, job.get("window"))
            res["setup_gauge_s"] = gauge_s(gauge, res.get("setup_window"))
            res["errors"] = [e for job in checked_jobs(res)
                             for e in self.workload.check(self.meta, self.ref, job)]
            res["ok"] = not res["errors"]
        return res

    def ops(self, res: dict) -> tuple[int, int]:
        """(attempted, failed) operations of a sample's checked jobs; a
        sample that broke counts one job's operations, all failed."""
        checked = checked_jobs(res)
        if not res["ok"]:
            n = max(1, len(checked)) * self.meta["ops"]
            return n, n
        return (len(checked) * self.meta["ops"],
                sum(self.workload.failed_ops(job) for job in checked))


def gauge_s(gauge: list, window) -> float | None:
    """Median time of the gauge chunks that overlap ``window`` (monotonic
    start, end). Chunks follow each other with gaps of tens of ms, so
    every job or set-up window overlaps some."""
    if window is None:
        return None
    a, b = window
    return statistics.median(d for t, d in gauge if t <= b and t + d >= a)


def checked_jobs(res: dict) -> list[dict]:
    return res["jobs"] + ([res["traced"]] if "traced" in res else [])


def median_or_none(xs):
    return statistics.median(xs) if xs else None


def scaled(seconds: float, gauge: float) -> float:
    """``seconds`` at the reference host speed ``GAUGE_REF_S``."""
    return seconds * GAUGE_REF_S / gauge


def end_to_end(meta: dict, samples: list[dict]) -> tuple[dict, dict]:
    """Metrics and, per metric, the samples they come from. Each metric
    is the median of its samples; times are scaled to the reference
    host speed."""
    ok = [s for s in samples if s["ok"]]
    walls = [scaled(j["wall_s"], j["gauge_s"]) for s in ok for j in s["jobs"]]
    per = {
        "wall_s": walls,
        "docs_per_s": [meta["docs"] / w for w in walls],
        "mb_per_s": [meta["source_mb"] / w for w in walls],
        "setup_s": [scaled(s["setup_s"], s["setup_gauge_s"]) for s in ok],
        "peak_rss_mb": [s["peak_rss_mb"] for s in ok if s["jobs"]],
    }
    return {k: median_or_none(v) for k, v in per.items()}, per


def tail_note(n: int) -> str:
    """The highest percentile with at least ten samples beyond it."""
    if n < 20:
        return f"n={n}; no tail percentile has 10 samples beyond it"
    p = 100.0 * (1 - 10.0 / n)
    return f"n={n}; p{p:.0f} is the highest supported percentile"


def generate(args, workload) -> dict:
    smoke = 1 if args.smoke else 0
    work = os.path.join(WORK_ROOT, f"{workload.name}-s{args.seed}-t{args.trace}"
                        + ("-smoke" if smoke else ""))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ray_temp = os.path.join(WORK_ROOT, "ray")
    nproc = host_nproc()
    meta = workload.generate(work, args.seed, SIZES[workload.name][smoke])
    meta.update(
        workload=workload.name, work=work, nproc=nproc,
        ray_num_cpus=max(2, nproc),
        ray_temp_dir=ray_temp if len(ray_temp) <= MAX_RAY_TEMP_DIR else None,
        object_store_bytes=400 << 20,
        inputs_digest=files_digest(meta["inputs"]),
        source_digest=source_digest(),
    )
    return meta


def stall_probe(runner: Runner) -> int:
    """1 when a parquet read feeding an identity actor ``map_batches``
    at ``num_cpus`` = nproc does not finish within ``STALL_DEADLINE_S``
    of its Ray set-up."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = os.path.join(runner.meta["work"], "stall")
    os.makedirs(d)
    files = []
    for i in range(4):
        files.append(os.path.join(d, f"part-{i}.parquet"))
        pq.write_table(pa.table({"x": list(range(i * 64, (i + 1) * 64))}), files[-1])
    runner.meta["stall_inputs"] = files
    save_json(runner.meta_path, runner.meta)
    res = runner.sample("stall", after_setup_s=STALL_DEADLINE_S)
    return 0 if res["ok"] and res.get("completed") else 1


def traced_ledger(workload, meta: dict) -> tuple[Tracer, dict]:
    """The in-process layer ledger with spans; its digest is the
    reference the Ray runs of an extraction workload are checked on."""
    tracer = Tracer()
    origin = time.perf_counter()
    outs = run_ledger(workload.ledger_table(meta), BATCH_SIZE, tracer)
    tracer.dump(os.path.join(meta["work"], "spans-ledger.jsonl"), origin)
    return tracer, {"digest": article_digest(outs), "counts": article_counts(outs)}


def traced_run(workload, meta, facts: dict, runner: Runner, tracer: Tracer,
               ledger_ref: dict, units: dict, printer) -> tuple[dict, list]:
    """Per-layer metrics: the traced ledger's, the stall probe's, and
    those of one session with an untraced and a traced job."""
    metrics = layer_metrics(tracer)
    metrics.update({f"extraction.{k}": ledger_ref["counts"][k] for k in
                    ("readable", "grab_rounds", "candidates", "text_chars")})
    metrics["pipelines.read_actor_stall_at_nproc"] = stall_probe(runner)
    sample = runner.sample("trace")
    extra = dict(sample.get("extras") or {})
    metrics["pipelines.identity_map_s"] = extra.pop("pipelines.identity_map_s", None)
    metrics["pipelines.first_batch_s"] = extra.pop("pipelines.first_batch_s", None)
    metrics["trace.overhead_s"] = None
    if sample["ok"]:
        untraced, traced = sample["jobs"][0], sample["traced"]
        metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        printer(f"{workload.name} tracing overhead: traced wall_s "
                f"{traced['wall_s']:.4f} s - untraced {untraced['wall_s']:.4f} s = "
                f"{metrics['trace.overhead_s']:+.4f} s")
        if "digest" in runner.ref:
            extra["pipelines.ray_share"] = 1 - metrics["stages.extract_batch_s"] / untraced["wall_s"]
            printer(f"{workload.name} pipelines.ray_share = 1 - stages.extract_batch_s "
                    f"{metrics['stages.extract_batch_s']:.4f} s / untraced wall_s "
                    f"{untraced['wall_s']:.4f} s = {extra['pipelines.ray_share']:.4f}")
        if "query_s" in traced:
            for q in QUERIES:
                extra[f"functions.{q}_s"] = traced["query_s"][q]
                extra[f"functions.{q}_exchange_share"] = traced["exchange_share"][q]
    save_json(os.path.join(meta["work"], "ledger.json"),
              {"facts": facts, "per_layer": metrics, "workload_only": extra,
               "self_s": tracer.self_times(), "trace_sample": sample})
    for name, value in sorted(metrics.items()):
        printer(f"{workload.name} {name} = {_fmt(value)} {units[name]}  "
                f"(should move {SHOULD_MOVE[name]})")
    for name, value in sorted(extra.items()):
        unit, moves = WORKLOAD_ONLY[name]
        printer(f"{workload.name} {name} = {_fmt(value)} {unit}  (should move {moves})")
    return metrics, [sample]


def _fmt(v) -> str:
    return "n/a" if v is None else (f"{v:.6g}" if isinstance(v, float) else str(v))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs: checks that the benchmark runs, measures nothing")
    args = ap.parse_args(argv)
    started = time.monotonic()
    # on SIGTERM, unwind so that the watchdog stops the running sample's processes
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    def printer(line: str) -> None:
        print(line, flush=True)

    workload = WORKLOADS[args.workload]
    meta = generate(args, workload)
    if args.trace:
        tracer, ledger_ref = traced_ledger(workload, meta)
    ref = reference(workload, meta, ledger_ref if args.trace else None)
    facts = host_facts(args, meta)
    save_json(os.path.join(meta["work"], "facts.json"), facts)
    printer(f"host {json.dumps(facts, sort_keys=True)}")
    runner = Runner(workload, meta, ref, started)
    units = metric_units(args.trace)

    if args.trace:
        metrics, samples = traced_run(workload, meta, facts, runner, tracer, ledger_ref,
                                      units, printer)
    else:
        n_jobs = max(1, round(args.seconds / workload.job_s))
        samples = []
        for i in range(SESSIONS):
            samples.append(runner.sample("jobs", n_jobs // SESSIONS + (i < n_jobs % SESSIONS)))
            if not samples[-1]["ok"]:
                break  # a stalled or broken program: do not spend more deadlines
        metrics, per = end_to_end(meta, samples)
        for name, unit in units.items():
            printer(f"{workload.name} {name} = {_fmt(metrics[name])} {unit} (median; "
                    f"{tail_note(len(per[name]))}; samples {[round(x, 4) for x in per[name]]})")
        ok = [s for s in samples if s["ok"]]
        printer(f"{workload.name} unscaled: job wall_s {[round(j['wall_s'], 4) for s in ok for j in s['jobs']]}"
                f" s, setup_s {[round(s['setup_s'], 4) for s in ok]} s; gauge chunk "
                f"{[round(j['gauge_s'] * 1e3, 3) for s in ok for j in s['jobs']]} / "
                f"{[round(s['setup_gauge_s'] * 1e3, 3) for s in ok]} ms against "
                f"{GAUGE_REF_S * 1e3:g} ms")

    attempted, failed = map(sum, zip(*(runner.ops(s) for s in samples)))
    correct = all(s["ok"] for s in samples)
    for s in samples:
        for err in s.get("errors") or []:
            printer(f"{workload.name} FAILED {s['mode']} sample: {err}")
    printer(f"{workload.name} failed_frac = {failed / attempted:.4f} "
            f"({failed} of {attempted} operations)")
    save_json(os.path.join(meta["work"], "result.json"),
              {"facts": facts, "meta": meta, "reference": ref, "samples": samples,
               "metrics": metrics, "elapsed_s": time.monotonic() - started})
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
