"""Run a sample process under a deadline and leave nothing behind.

The sample starts in a new session, and Ray's services and workers stay
in it, so the session id names every process the sample started. After
the sample exits, or when its deadline passes, the whole session is
stopped and waited for before the next sample starts: no actor leaks
into the next sample.

While it waits, ``run.py`` reads ``VmHWM`` from ``/proc/<pid>/status`` of
the session's worker processes whose title marks the workload's role
(for extraction, the ``ExtractBatch`` actors; else every Ray worker).
A process that ever served as one of Ray's own service actors is never
counted.

Between those reads it runs the speed gauge: a fixed pure-Python loop
in short chunks, each timed. The host's speed drifts by up to 2x over
minutes, and the gauge's chunk time during a job tells how fast the
host ran it (see ``run.py``).
"""

from __future__ import annotations

import os
import signal
import subprocess
import time

POLL_S = 0.25
#: iterations of one gauge chunk, about 12 ms here
GAUGE_ITERS = 100_000
#: Ray's and Ray Data's service actors: not workload memory
_SERVICE_ACTORS = ("ray::_StatsActor", "ray::AutoscalingRequester",
                   "ray::ActorLocationTracker")


def _session_procs(sid: int):
    """(pid, state, title) of each live process in session ``sid``."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            if int(fields[3]) != sid or fields[0] == "Z":
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                title = f.read().replace(b"\0", b" ").decode(errors="replace")
        except (OSError, IndexError, ValueError):
            continue  # exited while we looked
        yield int(entry), fields[0], title.strip()


def _vmhwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _gauge_chunk() -> int:
    s = 0
    for i in range(GAUGE_ITERS):
        s += i * i % 7
    return s


def _is_role(title: str, role: str) -> bool:
    return role in title if role else title.startswith("ray::")


def stop_session(sid: int, grace_s: float = 10.0) -> None:
    """SIGTERM, then SIGKILL after ``grace_s``, every process of ``sid``;
    returns once none is left."""
    deadline = time.monotonic() + grace_s
    sig = signal.SIGTERM
    while True:
        pids = [pid for pid, _, _ in _session_procs(sid)]
        if not pids:
            return
        if time.monotonic() > deadline:
            sig = signal.SIGKILL
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.2)


def run(argv, env, cwd, deadline_s: float, log_path: str, role: str,
        ready: tuple[str, float] | None = None) -> dict:
    """Run ``argv``; returns returncode (None on timeout), elapsed seconds,
    the highest VmHWM (MB) seen among the session's ``role`` workers and
    the gauge chunks as (``time.monotonic()`` at start, seconds). With
    ``ready`` = (path, seconds), the run also times out ``seconds`` after
    ``path`` appears."""
    started = time.monotonic()
    ready_at = None
    peak, service, gauge = {}, set(), []
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        rc = None
        try:
            next_poll = started
            while True:
                t = time.monotonic()
                _gauge_chunk()
                now = time.monotonic()
                gauge.append((t, now - t))
                if now < next_poll:
                    continue
                next_poll = now + POLL_S
                rc = proc.poll()
                if rc is not None:
                    break
                for pid, _, title in _session_procs(proc.pid):
                    if title.startswith(_SERVICE_ACTORS):
                        service.add(pid)
                    if pid in peak or _is_role(title, role):
                        peak[pid] = max(peak.get(pid, 0.0), _vmhwm_mb(pid))
                now = time.monotonic()
                if ready and ready_at is None and os.path.exists(ready[0]):
                    ready_at = now
                if now - started > deadline_s or (ready_at and now - ready_at > ready[1]):
                    break
        finally:  # also when the benchmark itself is interrupted or terminated
            stop_session(proc.pid)
            if rc is None:
                proc.wait()
    return {"returncode": rc, "elapsed_s": time.monotonic() - started,
            "peak_rss_mb": max((mb for pid, mb in peak.items() if pid not in service),
                               default=0.0),
            "gauge": gauge}
