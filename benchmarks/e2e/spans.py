"""Phase spans: name, start, end, parent, workload id.

Spans are recorded around the benchmark's own calls into the simulator
(set-up, reference, each build/run/summarize/export), kept in memory,
and written out by the driver when the run ends.  Work *inside* a run
phase is far too fine for per-call spans (~10^6 calls a pass); that is
aggregated by ``trace.py`` instead.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List


class Span:
    __slots__ = ("name", "start", "end", "start_wall")

    def __init__(self, name: str) -> None:
        self.name = name
        self.start = time.perf_counter()
        #: wall-clock start, comparable across processes (the driver's
        #: spawn stamp is taken from the same clock)
        self.start_wall = time.time()
        self.end = self.start

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanLog:
    """An in-memory span list with a parent stack."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.rows: List[Dict[str, Any]] = []
        self._stack: List[str] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = Span(name)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()
            self.rows.append(
                {
                    "name": name,
                    "start": span.start,
                    "end": span.end,
                    "parent": parent,
                    "workload": self.workload,
                }
            )
