"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent): ``parent`` is the index of the span
that was open when this one started, or None at the top.  Spans stay in
memory until ``write`` dumps them as JSON at the end of the run.  The
recorder also times its own bookkeeping (``self_s``), which is the part
of the tracing overhead it adds by itself.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent]
        self._open: list[int] = []
        self.self_s = 0.0

    @contextmanager
    def span(self, name: str):
        t_in = time.perf_counter()
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else None])
        self._open.append(index)
        start = time.perf_counter()
        self.self_s += start - t_in
        try:
            yield
        finally:
            end = time.perf_counter()
            record = self.spans[index]
            record[1], record[2] = start, end
            self._open.pop()
            self.self_s += time.perf_counter() - end

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))

    def write(self, path: Path) -> None:
        rows = [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]
        Path(path).write_text(json.dumps({"spans": rows}, indent=1) + "\n", encoding="utf-8")
