"""Thread-safe serving metrics: throughput, latency percentiles, batching.

The serving engine records one event per executed batch; a
:class:`MetricsSnapshot` is an immutable, consistent view a monitoring
loop (or the ``serve-bench`` CLI) can pull at any time without pausing
the workers.  Latency percentiles *and throughput* are computed over the
same sliding window of recent requests, so a long-running engine reports
current behaviour, not its lifetime average (``lifetime_rps`` keeps the
old meaning).  Failed requests contribute to the picture too: their
completion timestamps (and, when the engine knows them, their elapsed
latencies and batch sizes) enter the same windows, so p99 no longer
silently excludes the worst outcomes, and ``failure_rate`` reports the
windowed share of failures.

The recorder also publishes into the process-wide telemetry registry:
per-request latencies feed the ``repro_serving_latency_seconds``
log-bucket histogram and batch sizes feed ``repro_serving_batch_size``
(one shared series across engines, Prometheus-exportable via
``repro metrics``).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional

from ..telemetry import DEFAULT_SIZE_BUCKETS, get_registry

LATENCY_WINDOW = 8192

# Error-budget burn-rate windows (Prometheus label -> seconds) and the
# default availability SLO backing ``error_budget_burn``.
BURN_WINDOWS = (("1m", 60.0), ("5m", 300.0))
DEFAULT_SLO_TARGET = 0.99


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(q / 100.0 * (len(sorted_values) - 1)))))
    return float(sorted_values[rank])


@dataclass(frozen=True)
class MetricsSnapshot:
    """One consistent view of an engine's serving behaviour."""

    requests: int
    batches: int
    failures: int
    queue_depth: int
    uptime_s: float
    # Sliding-window throughput: completions in the recent window divided
    # by the window's time span (current behaviour, like the latency
    # percentiles below).  ``lifetime_rps`` is the old lifetime average.
    throughput_rps: float
    mean_batch: float
    batch_histogram: Dict[int, int]
    p50_ms: float
    p95_ms: float
    p99_ms: float
    lifetime_rps: float = 0.0
    # Windowed share of failed requests among recent completions.
    failure_rate: float = 0.0
    # SLO accounting (all zero for engines serving no-deadline traffic):
    # requests shed before execution, completed requests that missed
    # their deadline, and the windowed rate of SLO-met completions
    # (goodput) next to the raw throughput above.
    shed: int = 0
    slo_misses: int = 0
    goodput_rps: float = 0.0
    # Windowed share of bad outcomes (failures + sheds + deadline
    # misses) among recent completions — the signal the load-shedding
    # admission controller keys on.
    miss_rate: float = 0.0
    # Allocation behaviour aggregated over the engine's workers (each
    # arena and workspace counted once, whatever batch sizes ran on it):
    # a warmed-up engine shows flat allocation counts and growing reuses.
    arena_allocations: int = 0
    arena_large_allocations: int = 0
    arena_reuses: int = 0
    workspace_allocations: int = 0
    # Persistent plan-cache traffic for the engine's per-batch-size plan
    # builds: hits are warm starts that skipped specialization entirely.
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0

    def report(self) -> str:
        histogram = " ".join(f"{size}:{count}" for size, count
                             in sorted(self.batch_histogram.items()))
        return "\n".join([
            f"requests {self.requests} in {self.uptime_s:.2f}s "
            f"({self.throughput_rps:.1f} req/s windowed, "
            f"{self.lifetime_rps:.1f} lifetime), {self.batches} batches, "
            f"{self.failures} failed "
            f"({self.failure_rate * 100:.1f}% of window), "
            f"{self.shed} shed, {self.slo_misses} SLO misses "
            f"({self.goodput_rps:.1f} goodput req/s), "
            f"queue depth {self.queue_depth}",
            f"latency p50 {self.p50_ms:.2f} ms, p95 {self.p95_ms:.2f} ms, "
            f"p99 {self.p99_ms:.2f} ms",
            f"mean batch {self.mean_batch:.2f} (histogram {histogram or '-'})",
            f"arena: {self.arena_allocations} allocations "
            f"({self.arena_large_allocations} large), "
            f"{self.arena_reuses} reuses, "
            f"{self.workspace_allocations} workspace buffers",
            f"plan cache: {self.plan_cache_hits} hits, "
            f"{self.plan_cache_misses} misses",
        ])


@dataclass
class _Counters:
    requests: int = 0
    batches: int = 0
    failures: int = 0
    shed: int = 0
    slo_misses: int = 0
    batch_histogram: Dict[int, int] = field(default_factory=dict)


class MetricsRecorder:
    """Accumulates serving events; all methods are thread-safe.

    ``clock`` is injectable for tests (defaults to ``time.monotonic``).
    ``registry`` is the telemetry registry the shared latency/batch-size
    histograms live in (defaults to the process-wide one).
    """

    def __init__(self, window: int = LATENCY_WINDOW,
                 clock=time.monotonic, registry=None) -> None:
        self._lock = threading.Lock()
        self._clock = clock
        self._counters = _Counters()
        self._latencies: Deque[float] = deque(maxlen=window)
        # Completion/failure/shed/SLO-met timestamp streams backing the
        # windowed throughput, failure-rate, goodput, and miss-rate
        # computations.
        self._completions: Deque[float] = deque(maxlen=window)
        self._failure_times: Deque[float] = deque(maxlen=window)
        self._shed_times: Deque[float] = deque(maxlen=window)
        self._good_times: Deque[float] = deque(maxlen=window)
        self._started_at = clock()
        registry = registry or get_registry()
        self._latency_hist = registry.histogram(
            "repro_serving_latency_seconds",
            "End-to-end request latency (enqueue to completion)")
        self._batch_hist = registry.histogram(
            "repro_serving_batch_size",
            "Executed batch sizes", buckets=DEFAULT_SIZE_BUCKETS)

    def record_batch(self, batch_size: int, latencies_s,
                     slo_misses: int = 0) -> None:
        """Record one executed batch.

        ``slo_misses`` counts the requests in the batch that completed
        *after* their deadline; the rest (including no-deadline
        requests, which cannot miss) enter the goodput window.
        """
        latencies_s = list(latencies_s)
        now = self._clock()
        slo_misses = max(0, min(int(slo_misses), batch_size))
        with self._lock:
            self._counters.requests += batch_size
            self._counters.batches += 1
            self._counters.slo_misses += slo_misses
            histogram = self._counters.batch_histogram
            histogram[batch_size] = histogram.get(batch_size, 0) + 1
            self._latencies.extend(latencies_s)
            self._completions.extend([now] * batch_size)
            self._good_times.extend([now] * (batch_size - slo_misses))
        for latency in latencies_s:
            self._latency_hist.observe(latency)
        self._batch_hist.observe(batch_size)

    def record_shed(self, count: int = 1) -> None:
        """Record ``count`` requests shed before execution (early,
        typed rejections — not failures, not completions)."""
        now = self._clock()
        with self._lock:
            self._counters.shed += count
            self._shed_times.extend([now] * count)

    def record_failure(self, count: int, latencies_s=None) -> None:
        """Record ``count`` failed requests.

        Failures enter the same sliding windows as successes: their
        timestamps back ``failure_rate``, and — when the caller knows
        how long the doomed requests had been in flight — their
        ``latencies_s`` join the percentile window and their batch size
        bumps the batch histogram, so p99 reflects the worst outcomes
        instead of silently excluding them.
        """
        latencies_s = list(latencies_s) if latencies_s is not None else []
        now = self._clock()
        with self._lock:
            self._counters.failures += count
            self._failure_times.extend([now] * count)
            if latencies_s:
                self._latencies.extend(latencies_s)
                histogram = self._counters.batch_histogram
                histogram[count] = histogram.get(count, 0) + 1
        for latency in latencies_s:
            self._latency_hist.observe(latency)

    def _windowed_rates(self, now: float, lifetime_rps: float):
        """(windowed rps, failure rate, goodput rps, miss rate); lock
        must be held."""
        completions = self._completions
        failures = self._failure_times
        sheds = self._shed_times
        events = len(completions) + len(failures) + len(sheds)
        oldest = min((stream[0] for stream in
                      (completions, failures, sheds) if stream),
                     default=None)
        if oldest is None:
            return 0.0, 0.0, 0.0, 0.0
        span = now - oldest
        # A burst finishing within clock resolution has no measurable
        # span; fall back to the lifetime average rather than report 0
        # or infinity.
        rps = (len(completions) / span) if span > 0 else lifetime_rps
        goodput = (len(self._good_times) / span) if span > 0 else rps
        failure_rate = len(failures) / events if events else 0.0
        # Bad outcomes: failures, sheds, and completions past deadline
        # (completions - good).
        bad = len(failures) + len(sheds) + \
            (len(completions) - len(self._good_times))
        miss_rate = bad / events if events else 0.0
        return rps, failure_rate, goodput, miss_rate

    def miss_rate(self) -> float:
        """Windowed share of bad outcomes (failures + sheds + deadline
        misses) among recent requests — cheap enough for the admission
        controller to consult on every submit."""
        with self._lock:
            return self._windowed_rates(self._clock(), 0.0)[3]

    def window_events(self) -> int:
        """Requests currently represented in the sliding windows."""
        with self._lock:
            return (len(self._completions) + len(self._failure_times)
                    + len(self._shed_times))

    @staticmethod
    def _count_since(stream: Deque[float], cutoff: float) -> int:
        """Events at or after ``cutoff`` in an ascending timestamp deque."""
        count = 0
        for stamp in reversed(stream):
            if stamp < cutoff:
                break
            count += 1
        return count

    def error_budget_burn(self, window_s: float,
                          slo_target: float = DEFAULT_SLO_TARGET) -> float:
        """SRE-style burn rate of the error budget over ``window_s``.

        The bad-event rate (failures + sheds + deadline misses, the same
        stream :meth:`miss_rate` sees) over the window, divided by the
        budget the SLO allows (``1 - slo_target``): 1.0 means the budget
        is being spent exactly as fast as it accrues; 14.4 over 1h is
        the classic page-now threshold.  0.0 when the window saw no
        traffic.  Bounded by the deque window (``LATENCY_WINDOW`` recent
        events), so under extreme rates long windows under-count equally
        on both sides of the ratio.
        """
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if not 0.0 <= slo_target < 1.0:
            raise ValueError("slo_target must be within [0, 1)")
        cutoff = self._clock() - window_s
        with self._lock:
            completions = self._count_since(self._completions, cutoff)
            failures = self._count_since(self._failure_times, cutoff)
            sheds = self._count_since(self._shed_times, cutoff)
            good = self._count_since(self._good_times, cutoff)
        total = completions + failures + sheds
        if total == 0:
            return 0.0
        bad = failures + sheds + max(0, completions - good)
        return (bad / total) / (1.0 - slo_target)

    def snapshot(self, queue_depth: int = 0,
                 arena_stats=None,
                 workspace_allocations: int = 0,
                 plan_cache_hits: int = 0,
                 plan_cache_misses: int = 0) -> MetricsSnapshot:
        """Build a consistent snapshot; ``arena_stats`` is an aggregated
        :class:`repro.runtime.arena.ArenaStats` (or None)."""
        with self._lock:
            counters = self._counters
            now = self._clock()
            uptime = now - self._started_at
            window = sorted(self._latencies)
            requests = counters.requests
            batches = counters.batches
            lifetime_rps = requests / uptime if uptime > 0 else 0.0
            windowed_rps, failure_rate, goodput_rps, miss_rate = \
                self._windowed_rates(now, lifetime_rps)
            return MetricsSnapshot(
                requests=requests,
                batches=batches,
                failures=counters.failures,
                shed=counters.shed,
                slo_misses=counters.slo_misses,
                queue_depth=queue_depth,
                uptime_s=uptime,
                throughput_rps=windowed_rps,
                lifetime_rps=lifetime_rps,
                failure_rate=failure_rate,
                goodput_rps=goodput_rps,
                miss_rate=miss_rate,
                mean_batch=requests / batches if batches else 0.0,
                batch_histogram=dict(counters.batch_histogram),
                p50_ms=percentile(window, 50) * 1e3,
                p95_ms=percentile(window, 95) * 1e3,
                p99_ms=percentile(window, 99) * 1e3,
                arena_allocations=(arena_stats.allocations
                                   if arena_stats else 0),
                arena_large_allocations=(arena_stats.large_allocations
                                         if arena_stats else 0),
                arena_reuses=arena_stats.reuses if arena_stats else 0,
                workspace_allocations=workspace_allocations,
                plan_cache_hits=plan_cache_hits,
                plan_cache_misses=plan_cache_misses,
            )
