"""Smoke run of the benchmark itself: tiny inputs, every workload of
``BENCHMARK.json``, both modes. Checks the exit code and that the last
stdout line is a correct result whose every metric is a number.

    python3 perfbench/smoke.py [workload ...]

Takes a few minutes; it measures nothing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check(workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode} (sample logs: .pbw/{workload}-s7-t{trace}"
                f"-smoke/samples.log)\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errs = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errs.append(f"{where}: keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        errs.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            errs.append(f"{where}: {name} = {m['value']!r} is not a number")
    return errs


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = sys.argv[1:] or [w["name"] for w in json.load(f)["workloads"]]
    errs = []
    for w in workloads:
        for trace in (0, 1):
            found = check(w, trace)
            print(f"{w} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            errs += found
    for e in errs:
        print(e)
    return 1 if errs else 0


if __name__ == "__main__":
    sys.exit(main())
