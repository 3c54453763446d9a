"""In-memory spans recorded from the benchmark's side of each layer boundary.

A span is ``name, op, pass, parent, start, end``: the layer call it wraps,
the operation (request) it belongs to, which replay of the op list it was
taken in, and the span that caused it.  Spans stay in a list until the run
ends; ``floors`` reduces them to one duration per ``(name, op)`` with the
same floor statistic the end-to-end metrics use.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from benchmarks.layered.stats import span_self_times


class Span:
    """One open or finished span; use as a context manager."""

    __slots__ = ("tracer", "name", "op", "index", "parent", "start", "end", "pass_index")

    def __init__(self, tracer: "Tracer", name: str, op: str):
        self.tracer = tracer
        self.name = name
        self.op = op
        self.end = 0.0

    def __enter__(self) -> "Span":
        tracer = self.tracer
        self.pass_index = tracer.pass_index
        self.parent = tracer.stack[-1] if tracer.stack else -1
        self.index = len(tracer.spans)
        tracer.spans.append(self)
        tracer.stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end = time.perf_counter()
        self.tracer.stack.pop()

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; a traced run keeps one for set-up and one for passes."""

    def __init__(self):
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.pass_index = 0

    def span(self, name: str, op: str = "") -> Span:
        return Span(self, name, op)

    def floors(self, warmup: int, self_time: bool = False) -> Dict[str, Dict[str, float]]:
        """``{span name: {op: min over passes >= warmup}}`` of span durations
        (or of span self times with ``self_time``).

        Spans of one ``(name, op)`` within one pass are summed first (a
        session built per view variant, a probe repeated inside a pass), so
        the floor is of the layer's time per op per pass.
        """
        if self_time:
            seconds = span_self_times([(s.parent, s.start, s.end) for s in self.spans])
        else:
            seconds = [span.seconds for span in self.spans]
        per_pass: Dict[tuple, float] = {}
        for span, value in zip(self.spans, seconds):
            if span.pass_index >= warmup:
                key = (span.name, span.op, span.pass_index)
                per_pass[key] = per_pass.get(key, 0.0) + value
        floors: Dict[str, Dict[str, float]] = {}
        for (name, op, _pass), value in per_pass.items():
            ops = floors.setdefault(name, {})
            if op not in ops or value < ops[op]:
                ops[op] = value
        return floors

    def to_json(self, origin: Optional[float] = None) -> List[dict]:
        """JSON-ready span list with self times, times in ms from ``origin``."""
        if not self.spans:
            return []
        origin = self.spans[0].start if origin is None else origin
        selfs = span_self_times([(s.parent, s.start, s.end) for s in self.spans])
        return [
            {
                "id": span.index,
                "parent": span.parent,
                "name": span.name,
                "op": span.op,
                "pass": span.pass_index,
                "start_ms": (span.start - origin) * 1e3,
                "end_ms": (span.end - origin) * 1e3,
                "self_ms": self_seconds * 1e3,
            }
            for span, self_seconds in zip(self.spans, selfs)
        ]
