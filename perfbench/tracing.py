"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name, start, end, parent index and call count.  Spans are kept in
a list and written out when the run ends; nothing is emitted while timing.
"""

import contextlib
import time


class Tracer:
    """Records nested spans; ``span`` is a context manager."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, calls=1):
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "calls": calls,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def mark(self):
        return len(self.spans)

    def self_times(self, since=0):
        """{name: (self seconds, calls)} over spans recorded after ``since``.

        Self time is a span's duration minus the durations of its direct
        children, so nested layers are not counted twice.
        """
        spans = self.spans[since:]
        child_time = [0.0] * len(spans)
        for rec in spans:
            parent = rec["parent"]
            if parent is not None and parent >= since:
                child_time[parent - since] += rec["end"] - rec["start"]
        out = {}
        for rec, children in zip(spans, child_time):
            own, calls = out.get(rec["name"], (0.0, 0))
            out[rec["name"]] = (own + rec["end"] - rec["start"] - children, calls + rec["calls"])
        return out


class NullTracer:
    """Tracing off: spans cost one context-manager entry and record nothing."""

    def span(self, name, calls=1):
        return contextlib.nullcontext()

    def mark(self):
        return 0

    def self_times(self, since=0):
        return {}
