"""Structured request tracing: span trees for end-to-end serving latency.

A sampled serving request carries a :class:`RequestTrace` from the
moment ``infer()`` accepts it.  The engine stamps wall-clock *marks* at
each pipeline boundary (enqueue, dequeue, batch-task start, batch
assembled, execute start/end, completion) and attaches the executor's
per-step timeline; :meth:`RequestTrace.build_spans` then decomposes the
request's total latency into a span tree::

    request
    ├── queue_wait        submit -> dispatcher pops the batch
    ├── dispatch_wait     batch popped -> batch task starts on the pool
    ├── batch_assembly    feed concatenation along the batch axis
    ├── execute           the plan run
    │   ├── <step 0>      per-step kernel spans (executor timeline)
    │   └── ...
    └── finalize          splitting the batch into per-request copies

Sampling is **off by default** and deterministic: a rate of ``r`` traces
every ``1/r``-th accepted request (rate 1.0 traces everything), so the
untraced hot path pays exactly one branch per request.  Finished traces
land in the :class:`Tracer`'s bounded ring buffer, from which
:mod:`repro.telemetry.export` renders Chrome trace-event JSON that loads
directly in Perfetto / ``chrome://tracing``.

All trace timestamps use ``time.perf_counter()`` — the same clock as the
executor's step timeline — so step spans nest exactly inside their
batch's execute span.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

_trace_ids = itertools.count(1)


@dataclass
class Span:
    """One timed operation; ``start_s``/``end_s`` are perf_counter seconds.

    ``process`` names the process track a span belongs to in a merged
    multi-process trace (``None`` means the parent/serving process; the
    replica tier stamps remote spans ``replica-<index>``).  All times are
    expected to be on the *parent's* perf_counter axis by the time a
    span reaches the exporter — cross-process alignment happens where
    spans are merged (see :mod:`repro.telemetry.clock`).
    """

    name: str
    category: str
    start_s: float
    end_s: float
    thread: int = 0
    args: Dict[str, object] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)
    process: Optional[str] = None

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


class RequestTrace:
    """Per-request mark sheet that renders into a span tree.

    Engine code calls :meth:`mark` with well-known keys (cheap: one
    perf_counter read and a dict store); span construction is deferred
    to :meth:`build_spans`, which runs once, off the hot path, after the
    request completes.
    """

    __slots__ = ("trace_id", "name", "marks", "steps", "batch_size",
                 "children", "_root")

    # (span name, begin mark key, end mark key) in pipeline order.
    # Subclasses override to describe a different pipeline (the replica
    # tier's TierRequestTrace swaps in IPC phases).
    _PHASES: Tuple[Tuple[str, str, str], ...] = (
        ("queue_wait", "enqueued", "dequeued"),
        ("dispatch_wait", "dequeued", "task_start"),
        ("batch_assembly", "task_start", "assembled"),
        ("execute", "assembled", "executed"),
        ("finalize", "executed", "completed"),
    )
    # The phase that hosts executor step spans / attached child spans.
    _STEPS_PHASE = "execute"

    def __init__(self, name: str = "request") -> None:
        self.trace_id = next(_trace_ids)
        self.name = name
        self.marks: Dict[str, float] = {}
        # Executor step timeline entries (dicts with name/op/start/end/
        # thread, start/end relative to the run's own t0).
        self.steps: List[Dict[str, object]] = []
        self.batch_size: int = 0
        # Pre-built child spans (absolute parent-clock times) adopted
        # into a named phase — how remote replica spans join the tree.
        self.children: Dict[str, List[Span]] = {}
        self._root: Optional[Span] = None

    def mark(self, key: str, at: Optional[float] = None) -> None:
        self.marks[key] = time.perf_counter() if at is None else at

    def attach_steps(self, timeline: List[Dict[str, object]]) -> None:
        """Adopt an executor timeline (run-relative times) for this trace."""
        self.steps = list(timeline)

    def attach_children(self, phase: str, spans: List[Span]) -> None:
        """Adopt finished spans (absolute times) under a named phase."""
        self.children.setdefault(phase, []).extend(spans)

    def build_spans(self) -> Optional[Span]:
        """The request's span tree, or None if the trace never started."""
        if self._root is not None:
            return self._root
        marks = self.marks
        start = marks.get("enqueued")
        end = marks.get("completed", marks.get("executed"))
        if start is None or end is None:
            return None
        root = Span(self.name, "request", start, end,
                    args={"trace_id": self.trace_id,
                          "batch_size": self.batch_size})
        for span_name, begin_key, end_key in self._PHASES:
            begin = marks.get(begin_key)
            finish = marks.get(end_key)
            if begin is None or finish is None:
                continue
            phase = Span(span_name, "serving", begin, finish)
            if span_name == self._STEPS_PHASE and self.steps:
                execute_t0 = marks.get("execute_t0", begin)
                for entry in self.steps:
                    phase.children.append(Span(
                        str(entry["name"]), str(entry.get("op", "step")),
                        execute_t0 + float(entry["start"]),
                        execute_t0 + float(entry["end"]),
                        thread=int(entry.get("thread", 0)),
                    ))
            phase.children.extend(self.children.get(span_name, ()))
            root.children.append(phase)
        self._root = root
        return root

    def phase_durations_ms(self) -> Dict[str, float]:
        """Span name -> milliseconds, for the slow-request log line."""
        root = self.build_spans()
        if root is None:
            return {}
        durations = {child.name: child.duration_s * 1e3
                     for child in root.children}
        durations["total"] = root.duration_s * 1e3
        return durations


class Tracer:
    """Sampling decision + bounded store of finished request traces.

    ``sample_rate`` of 0.0 (the default) disables tracing entirely; the
    serving hot path then pays a single ``is None`` / ``enabled`` branch
    per request.  Sampling is deterministic (an accumulator, not a RNG):
    rate 0.25 traces exactly every 4th request, which keeps tests and CI
    smoke runs reproducible.
    """

    def __init__(self, sample_rate: float = 0.0,
                 capacity: int = 256) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be within [0, 1]")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sample_rate = float(sample_rate)
        self._lock = threading.Lock()
        self._accumulator = 0.0
        self._sampled = 0
        self._finished: Deque[RequestTrace] = deque(maxlen=capacity)

    @property
    def enabled(self) -> bool:
        return self.sample_rate > 0.0

    def sample(self) -> bool:
        """Decide whether the next request is traced (thread-safe)."""
        if self.sample_rate <= 0.0:
            return False
        if self.sample_rate >= 1.0:
            with self._lock:
                self._sampled += 1
            return True
        with self._lock:
            self._accumulator += self.sample_rate
            if self._accumulator >= 1.0:
                self._accumulator -= 1.0
                self._sampled += 1
                return True
            return False

    def finish(self, trace: RequestTrace) -> None:
        trace.build_spans()
        with self._lock:
            self._finished.append(trace)

    def traces(self) -> List[RequestTrace]:
        with self._lock:
            return list(self._finished)

    @property
    def sampled_count(self) -> int:
        return self._sampled

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()
