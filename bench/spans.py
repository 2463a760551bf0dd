"""The benchmark's own spans, recorded around its calls into each layer.

Spans are kept in memory and written once, when the run ends.  Nothing
here reaches into ``src/``: a span is what the caller saw.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple


class SpanRecorder:
    """Rows of ``[id, name, start_s, end_s, parent id, request id]`` on
    the ``perf_counter`` axis."""

    def __init__(self) -> None:
        self.rows: List[list] = []
        self._ids = itertools.count()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None,
            request: Optional[int] = None) -> int:
        span_id = next(self._ids)
        self.rows.append([span_id, name, start, end, parent, request])
        return span_id

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None
             ) -> Iterator[int]:
        span_id = next(self._ids)
        row = [span_id, name, time.perf_counter(), None, parent, None]
        self.rows.append(row)
        try:
            yield span_id
        finally:
            row[3] = time.perf_counter()

    def duration(self, span_id: int) -> float:
        for row in reversed(self.rows):     # callers ask about recent spans
            if row[0] == span_id:
                return row[3] - row[2]
        raise KeyError(span_id)

    def self_times(self) -> Dict[int, float]:
        """Span id -> its duration minus the part of that interval its
        child spans cover (overlapping children are counted once)."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for _, _, start, end, parent, _ in self.rows:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        result: Dict[int, float] = {}
        for span_id, _, start, end, _, _ in self.rows:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            result[span_id] = (end - start) - covered
        return result

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """Span name -> count, total seconds, self seconds."""
        self_times = self.self_times()
        table: Dict[str, Dict[str, float]] = {}
        for span_id, name, start, end, _, _ in self.rows:
            entry = table.setdefault(
                name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += self_times[span_id]
        return table

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({
                "columns": ["id", "name", "start_s", "end_s", "parent",
                            "request"],
                "by_name": self.by_name(),
                "spans": self.rows,
            }, handle)
