"""Dynamic micro-batching: coalesce single-sample requests into batches.

The throughput lever of the paper's batch-size study (Fig. 4) applied to
online serving: single-sample ``infer()`` calls arriving close together
are stacked along the leading batch axis and executed as one plan run,
amortizing dispatch and memory traffic.

Two assembly policies share this queue:

* **Fixed-knob** (the default, and the fallback while the latency model
  is cold): a batch is dispatched as soon as ``max_batch`` requests are
  waiting, or once the *linger window* of ``max_latency_s`` closes,
  whichever comes first.  The window opens when the oldest request
  arrived or, if the consumer was already waiting on an empty queue by
  then, when that wait began (:func:`linger_deadline`): a request that
  finds the consumer idle is charged only what is left of the window —
  nothing once the consumer has idled a whole one — while a request
  queued behind a busy consumer lingers the full ``max_latency_s`` from
  its arrival.  No request ever waits longer than ``max_latency_s`` for
  company, and a non-full batch is handed out at most once per window
  of consumer time.  Under light load the engine degrades gracefully to
  batch-1 execution.
* **Deadline-aware** (``cost_model`` set): each request may carry an
  absolute deadline (its SLO) and a priority class.  The consumer
  assembles the **largest batch whose predicted completion still meets
  the tightest deadline among the selected requests**, using the cost
  model's execute-latency prediction; it waits for more arrivals only
  while the model says a bigger batch would still make the deadline,
  and never past the same linger window.
  Requests whose deadline cannot be met even at batch size 1 are *shed*
  through the ``on_shed`` callback instead of burning a queue slot and
  execute time on a guaranteed miss.

Priorities order both service and shedding: higher classes dispatch
first (FIFO within a class), and when the queue is capacity-bounded
(``queue_limit``) an arriving higher-priority request evicts the
youngest request of the lowest class rather than being turned away.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

import numpy as np


class QueueClosedError(RuntimeError):
    """Raised by :meth:`BatchQueue.submit` once the queue is closed.

    A typed subclass so callers (the engine, the replica tier) can
    distinguish "the queue shut down under me" from an arbitrary
    ``RuntimeError`` raised by request execution and translate it into
    their own closed-error type.
    """


class RequestShedError(RuntimeError):
    """Raised on a request's future when the serving tier sheds it.

    The single-process counterpart of
    :class:`repro.serving.replicas.TierSaturatedError`: a typed signal
    that the request was rejected *early* — its deadline was predicted
    unmeetable, it was evicted by a higher-priority arrival, or the
    admission controller was over its miss-rate threshold — rather than
    left to time out after consuming a queue slot and execute time.
    Callers can retry with backoff, divert, or degrade.
    """


def linger_deadline(oldest_enqueued: float,
                    waiting_since: Optional[float],
                    max_latency_s: float) -> float:
    """When batch assembly stops waiting for more arrivals.

    The linger window is ``max_latency_s`` long and opens at the earlier
    of the oldest queued request's arrival and ``waiting_since`` — when
    the consumer began waiting on an empty queue (None: it found the
    queue non-empty, so it was busy and the window is the oldest
    request's own).  Never later than ``oldest_enqueued +
    max_latency_s``.
    """
    opened = oldest_enqueued if waiting_since is None \
        else min(oldest_enqueued, waiting_since)
    return opened + max_latency_s


@dataclass
class InferenceRequest:
    """One queued single-sample request (leading batch axis of size 1)."""

    feeds: Dict[str, np.ndarray]
    future: "Future" = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.monotonic)
    # SLO fields (None/0 for best-effort traffic): ``deadline_s`` is an
    # *absolute* time.monotonic() deadline for request completion;
    # ``priority`` orders classes (higher serves first, sheds last).
    deadline_s: Optional[float] = None
    priority: int = 0
    # Set by the engine only for sampled requests (tracing default-off):
    # a repro.telemetry.tracing.RequestTrace collecting pipeline marks.
    trace: Optional[object] = None


class BatchQueue:
    """A deadline-driven coalescing queue of inference requests.

    ``next_batch`` is the consumer side (the engine's dispatcher thread):
    it blocks until at least one request is queued, then keeps collecting
    until the batch is full, the assembly policy decides waiting longer
    would break an SLO, or the linger window closes
    (:func:`linger_deadline`: time the consumer already spent waiting on
    the empty queue counts towards it).  Returns ``None`` once the queue
    is closed and drained.

    Parameters
    ----------
    max_batch / max_latency_s
        The fixed knobs: batch-size cap and the linger window — the
        upper bound on how long a queued request waits for company.
    cost_model
        Optional callable ``(batch_size) -> predicted execute seconds or
        None``; supplying it enables deadline-aware assembly (None
        predictions — a cold model — fall back to the timer policy).
    on_shed
        Callable invoked (outside the queue lock) with each request the
        queue sheds; the owner fails the request's future and records
        the event.  Without it nothing is ever shed.
    queue_limit
        Optional bound on queued requests; an arrival past it either
        evicts the youngest lowest-priority request (if the arrival
        outranks it) or is itself shed.  Requires ``on_shed``.
    headroom_s
        Scheduling slack subtracted from every deadline comparison:
        covers dispatch/assembly/finalize overhead the execute-latency
        cost model does not see.
    """

    def __init__(self, max_batch: int = 8,
                 max_latency_s: float = 0.002,
                 cost_model: Optional[Callable[[int], Optional[float]]]
                 = None,
                 on_shed: Optional[Callable[["InferenceRequest"], None]]
                 = None,
                 queue_limit: Optional[int] = None,
                 headroom_s: float = 0.0005) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_latency_s < 0:
            raise ValueError("max_latency_s must be >= 0")
        if queue_limit is not None and queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if queue_limit is not None and on_shed is None:
            raise ValueError("queue_limit requires an on_shed callback")
        self.max_batch = int(max_batch)
        self.max_latency_s = float(max_latency_s)
        self.cost_model = cost_model
        self.on_shed = on_shed
        self.queue_limit = queue_limit
        self.headroom_s = float(headroom_s)
        # One FIFO per priority class; priority order is recomputed
        # lazily (classes are few: think interactive/batch/background).
        self._classes: Dict[int, Deque[InferenceRequest]] = {}
        self._priorities: List[int] = []       # descending, kept sorted
        self._depth = 0
        self._cond = threading.Condition()
        self._closed = False
        # When the consumer began waiting on an empty queue; kept across
        # next_batch()'s re-examinations, cleared when a batch goes out.
        self._waiting_since: Optional[float] = None

    # -- producer side -------------------------------------------------------

    def submit(self, request: InferenceRequest) -> None:
        """Enqueue one request; may shed (evict) under ``queue_limit``."""
        shed: List[InferenceRequest] = []
        with self._cond:
            if self._closed:
                raise QueueClosedError("batch queue is closed")
            if self.queue_limit is not None and \
                    self._depth >= self.queue_limit:
                victim = self._evict_lower_priority(request.priority)
                if victim is None:
                    # Nothing outranked: the arrival itself is shed.
                    shed.append(request)
                else:
                    shed.append(victim)
            if not shed or shed[0] is not request:
                self._append(request)
                self._cond.notify()
        for victim in shed:
            self.on_shed(victim)

    def _append(self, request: InferenceRequest) -> None:
        queue = self._classes.get(request.priority)
        if queue is None:
            queue = self._classes[request.priority] = deque()
            self._priorities = sorted(self._classes, reverse=True)
        queue.append(request)
        self._depth += 1

    def _evict_lower_priority(self, priority: int
                              ) -> Optional[InferenceRequest]:
        """Pop the youngest request of the lowest class below
        ``priority``; lock must be held."""
        for level in reversed(self._priorities):
            if level >= priority:
                return None
            queue = self._classes[level]
            if queue:
                self._depth -= 1
                return queue.pop()
        return None

    def depth(self) -> int:
        with self._cond:
            return self._depth

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # -- consumer side -------------------------------------------------------

    def next_batch(self) -> Optional[List[InferenceRequest]]:
        while True:
            shed: List[InferenceRequest] = []
            with self._cond:
                while not self._depth:
                    if self._closed:
                        return None
                    if self._waiting_since is None:
                        self._waiting_since = time.monotonic()
                    self._cond.wait()
                if self.cost_model is not None:
                    batch = self._assemble_adaptive(shed)
                else:
                    batch = self._assemble_fixed()
                if batch:
                    self._waiting_since = None
            # Shed futures resolve *now*, outside the lock — a doomed
            # request must not wait for the next dispatch to learn its
            # fate.
            for request in shed:
                self.on_shed(request)
            if batch is None:
                return None
            if batch:
                return batch
            # Empty list: the policy shed, timed out, or wants the
            # queue re-examined after a wait — loop.

    # Full batch, or the linger window closes.
    def _assemble_fixed(self) -> Optional[List[InferenceRequest]]:
        if self.max_batch > 1 and self.max_latency_s > 0:
            deadline = self._linger_deadline()
            while self._depth < self.max_batch and not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(timeout=remaining)
                if not self._depth:
                    return None if self._closed else []
        return self._pop(min(self.max_batch, self._depth))

    def _assemble_adaptive(self, shed: List[InferenceRequest]
                           ) -> Optional[List[InferenceRequest]]:
        """One deadline-aware assembly decision.

        Returns a non-empty batch to dispatch, ``[]`` to make the caller
        flush ``shed`` and re-examine the queue (after any wait done in
        here), or None when the queue closed and drained.
        """
        now = time.monotonic()
        # Shed requests that cannot make their deadline even alone —
        # executing them anyway would spend capacity on guaranteed
        # misses and push *feasible* requests past their SLOs.
        floor = self.cost_model(1)
        if floor is not None and self.on_shed is not None:
            self._shed_doomed(now + floor + self.headroom_s, shed)
            if shed:
                # Return before any wait: the caller flushes the shed
                # callbacks first, so doomed futures fail *now* rather
                # than after an arrival-wait they are no longer part of.
                return []
            if not self._depth:
                return None if self._closed else []
        candidates = self._peek(self.max_batch)
        tightest = min((r.deadline_s for r in candidates
                        if r.deadline_s is not None), default=None)
        feasible = self._feasible_size(len(candidates), tightest, now)
        if feasible is None:
            # Cold model: behave exactly like the fixed-knob queue.
            return self._assemble_fixed()
        if feasible >= self.max_batch or feasible < self._depth:
            # Either the batch is maxed out, or the queue already holds
            # more work than one deadline-meeting batch can carry —
            # dispatch immediately, waiting cannot help anyone.
            return self._pop(min(feasible, self.max_batch))
        # Everything queued fits in one feasible batch and there is
        # headroom: wait for more arrivals only while a bigger batch
        # would still meet the tightest deadline, and never past the
        # linger window.
        wait_until = self._linger_deadline()
        if tightest is not None:
            next_cost = self.cost_model(
                min(self.max_batch, self._depth + 1))
            if next_cost is not None:
                wait_until = min(wait_until,
                                 tightest - next_cost - self.headroom_s)
        remaining = wait_until - time.monotonic()
        if remaining <= 0 or self._closed:
            return self._pop(min(feasible, self._depth))
        self._cond.wait(timeout=remaining)
        return []                      # re-evaluate with fresh arrivals

    def _feasible_size(self, available: int, tightest: Optional[float],
                       now: float) -> Optional[int]:
        """Largest n <= available predicted to finish by ``tightest``
        (always >= 1: the head request runs even if late — only the
        shed path drops work).  None when the model is cold."""
        if tightest is None:
            cost = self.cost_model(max(1, available))
            return None if cost is None else max(1, available)
        best = None
        for size in range(1, max(1, available) + 1):
            cost = self.cost_model(size)
            if cost is None:
                return None
            if now + cost + self.headroom_s <= tightest:
                best = size
            else:
                break
        return best if best is not None else 1

    def _shed_doomed(self, earliest_finish: float,
                     shed: List[InferenceRequest]) -> None:
        """Move every request whose deadline precedes ``earliest_finish``
        into ``shed``; lock must be held."""
        for level in self._priorities:
            queue = self._classes[level]
            survivors = [r for r in queue
                         if r.deadline_s is None
                         or r.deadline_s >= earliest_finish]
            if len(survivors) != len(queue):
                shed.extend(r for r in queue
                            if r.deadline_s is not None
                            and r.deadline_s < earliest_finish)
                self._depth -= len(queue) - len(survivors)
                queue.clear()
                queue.extend(survivors)

    # -- selection helpers (lock held) --------------------------------------

    def _linger_deadline(self) -> float:
        oldest = min(queue[0].enqueued_at
                     for queue in self._classes.values() if queue)
        return linger_deadline(oldest, self._waiting_since,
                               self.max_latency_s)

    def _peek(self, count: int) -> List[InferenceRequest]:
        """First ``count`` requests in (priority desc, FIFO) order."""
        out: List[InferenceRequest] = []
        for level in self._priorities:
            for request in self._classes[level]:
                out.append(request)
                if len(out) == count:
                    return out
        return out

    def _pop(self, count: int) -> List[InferenceRequest]:
        out: List[InferenceRequest] = []
        for level in self._priorities:
            queue = self._classes[level]
            while queue and len(out) < count:
                out.append(queue.popleft())
            if len(out) == count:
                break
        self._depth -= len(out)
        return out

    def drain(self) -> List[InferenceRequest]:
        """Remove and return everything still queued (used at shutdown)."""
        with self._cond:
            items: List[InferenceRequest] = []
            for level in self._priorities:
                items.extend(self._classes[level])
                self._classes[level].clear()
            self._depth = 0
            return items
