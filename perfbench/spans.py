"""In-memory span recorder for the traced benchmark run.

A span is (id, name, parent, ref, start, end). ``ref`` names the document
or batch the span worked on. Spans are kept in a list and written out
once, when the run ends. Self time is a span's duration minus the
durations of its direct children; calls are nested on one thread, so the
children never overlap.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, ref: str = ""):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "ref": ref,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, ref=None):
        """``fn`` with a span around every call; ``ref()`` names the span."""

        def traced(*args, **kwargs):
            with self.span(name, ref() if ref else ""):
                return fn(*args, **kwargs)

        return traced

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over its spans."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, kids in zip(self.spans, child_time):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"] - kids)
        return out

    def dump(self, path: str, origin: float = 0.0) -> None:
        """One JSON span per line, times in seconds from ``origin``."""
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({**s, "start": s["start"] - origin,
                                    "end": s["end"] - origin}) + "\n")
