"""In-memory span recorder for the traced benchmark run.

Used only by benchmark code, around the calls it makes into the
program's public functions; nothing under ``src/`` knows about it.
Spans live in a list until :meth:`Tracer.write_chrome` dumps them once
as Chrome trace-event JSON (loadable in Perfetto next to
``repro.obs.chrometrace`` output).  A disabled tracer records nothing,
so workload code is the same in the traced and the untraced run.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List


class Tracer:
    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        #: [name, start_ns, end_ns, parent index or -1, args]
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **args) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, args])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + n

    def durations_ms(self, name: str) -> List[float]:
        return [(s[2] - s[1]) / 1e6 for s in self.spans if s[0] == name]

    def self_ms(self) -> Dict[str, float]:
        """Per-name self time: each span minus the time its children cover."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[str, float] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child_ns):
            out[name] = out.get(name, 0.0) + (end - start - covered) / 1e6
        return out

    def write_chrome(self, path: str) -> None:
        origin = self.spans[0][1] if self.spans else 0
        events = [{"name": name, "ph": "X", "pid": 1, "tid": self.workload,
                   "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
                   "args": dict(args, parent=parent)}
                  for name, start, end, parent, args in self.spans]
        events += [{"name": name, "ph": "C", "pid": 1, "tid": self.workload,
                    "ts": 0, "args": {"value": value}}
                   for name, value in sorted(self.counters.items())]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
