"""Closed-loop serving benchmark: sweep workers x max_batch configurations.

Measures what the serving layer actually buys on the host: a set of
client threads issues synchronous single-sample requests as fast as the
engine answers them, for each configuration in the sweep.  Throughput at
``max_batch > 1`` versus ``max_batch = 1`` isolates the micro-batching
win (the paper's batch-size lever); throughput at ``workers > 1`` versus
one worker isolates the plan-pool win (meaningful only on multi-core
hosts, since numpy only overlaps inside GIL-releasing BLAS calls).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..ir.graph import Graph
from .engine import InferenceEngine
from .metrics import MetricsSnapshot, percentile


@dataclass(frozen=True)
class BenchResult:
    """One measured (workers, max_batch) configuration."""

    workers: int
    max_batch: int
    clients: int
    requests: int
    elapsed_s: float
    throughput_rps: float
    mean_batch: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    arena_allocations: int
    arena_reuses: int


def sample_feeds(graph: Graph, seed: int = 0) -> Dict[str, np.ndarray]:
    """One synthetic single-sample feed dict for ``graph``'s inputs."""
    rng = np.random.default_rng(seed)
    template = graph.with_batch(1)
    return {
        spec.name: rng.standard_normal(spec.shape).astype(
            spec.dtype.to_numpy())
        for spec in template.inputs
    }


def _closed_loop(engine: InferenceEngine, feeds: Mapping[str, np.ndarray],
                 clients: int, requests: int) -> float:
    """Issue ``requests`` total sync requests from ``clients`` threads;
    returns elapsed wall-clock seconds."""
    remaining = [requests]
    lock = threading.Lock()
    errors: List[BaseException] = []

    def client() -> None:
        while True:
            with lock:
                if remaining[0] <= 0:
                    return
                remaining[0] -= 1
            try:
                engine.infer_sync(feeds, timeout=60.0)
            except BaseException as exc:  # surfaced after the join below
                with lock:
                    errors.append(exc)
                return

    import time
    threads = [threading.Thread(target=client, daemon=True)
               for _ in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return elapsed


def run_bench(graph: Graph,
              configs: Sequence[Tuple[int, int]] = ((1, 1), (1, 8)),
              requests: int = 64, clients: Optional[int] = None,
              warmup: int = 8,
              max_latency_ms: float = 2.0,
              tracer=None,
              slow_request_ms: Optional[float] = None) -> List[BenchResult]:
    """Benchmark ``graph`` under each ``(workers, max_batch)`` config.

    ``clients`` defaults to ``workers * max_batch`` per config so the
    queue has enough concurrent demand to actually fill batches.
    ``tracer`` and ``slow_request_ms`` are handed to every engine, so a
    benchmark run doubles as a source of request traces
    (``serve-bench --trace-out``).
    """
    results: List[BenchResult] = []
    feeds = sample_feeds(graph)
    for workers, max_batch in configs:
        n_clients = clients if clients is not None else workers * max_batch
        with InferenceEngine(graph, workers=workers, max_batch=max_batch,
                             max_latency_ms=max_latency_ms,
                             tracer=tracer,
                             slow_request_ms=slow_request_ms) as engine:
            _closed_loop(engine, feeds, n_clients, warmup)
            before = engine.metrics()
            elapsed = _closed_loop(engine, feeds, n_clients, requests)
            after = engine.metrics()
            measured = after.requests - before.requests
            batches = after.batches - before.batches
            results.append(BenchResult(
                workers=workers,
                max_batch=max_batch,
                clients=n_clients,
                requests=measured,
                elapsed_s=elapsed,
                throughput_rps=measured / elapsed if elapsed > 0 else 0.0,
                mean_batch=measured / batches if batches else 0.0,
                p50_ms=after.p50_ms,
                p95_ms=after.p95_ms,
                p99_ms=after.p99_ms,
                arena_allocations=(after.arena_allocations
                                   - before.arena_allocations),
                arena_reuses=after.arena_reuses - before.arena_reuses,
            ))
    return results


@dataclass(frozen=True)
class ReplicaBenchResult:
    """One measured serving mode in a replica-scaling sweep."""

    mode: str                  # "in-process" or "replicas"
    replicas: int              # 0 for the in-process baseline
    max_batch: int
    clients: int
    requests: int
    elapsed_s: float
    throughput_rps: float
    mean_batch: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    failures: int
    restarts: int


def run_replica_bench(graph: Graph,
                      replica_counts: Sequence[int] = (1, 2, 4),
                      requests: int = 128, clients: Optional[int] = None,
                      warmup: int = 16, max_batch: int = 8,
                      max_latency_ms: float = 2.0,
                      max_inflight: int = 2,
                      cache_dir=None,
                      start_method: str = "spawn",
                      shm: Optional[bool] = None,
                      on_tier=None,
                      tracer=None,
                      slow_request_ms: Optional[float] = None
                      ) -> List[ReplicaBenchResult]:
    """Single-process engine baseline vs the replica tier at each count.

    The baseline is the best in-process configuration (one worker, same
    ``max_batch``); every replica row uses the identical micro-batching
    knobs, so the measured ratio isolates what crossing the process
    boundary buys (multi-core scale) and costs (frame serialization).
    **Every row — the baseline included — is measured under the same
    offered load**: ``clients`` closed-loop threads when given, else
    enough to keep the *largest* tier's in-flight budget full
    (``max(replica_counts) * max_inflight * max_batch``).  Comparing
    rows at unequal offered load would fold demand differences into the
    reported speedups.  ``on_tier``, if given, is called with each
    still-live tier after its measurement — the CLI uses it to scrape
    the telemetry registry while per-replica series exist.  ``tracer``
    and ``slow_request_ms`` go to the replica-tier rows only (the
    in-process baseline stays untraced): the sampled traces carry the
    merged cross-process spans for ``serve-bench --replicas
    --trace-out``.
    """
    from .engine import InferenceEngine
    from .replicas import ReplicaEngine

    feeds = sample_feeds(graph)
    results: List[ReplicaBenchResult] = []
    offered_clients = clients if clients is not None \
        else max(replica_counts) * max_inflight * max_batch

    def _measure(engine, mode: str, replicas: int,
                 n_clients: int) -> None:
        _closed_loop(engine, feeds, n_clients, warmup)
        before = engine.metrics()
        elapsed = _closed_loop(engine, feeds, n_clients, requests)
        after = engine.metrics()
        measured = after.requests - before.requests
        batches = after.batches - before.batches
        results.append(ReplicaBenchResult(
            mode=mode,
            replicas=replicas,
            max_batch=max_batch,
            clients=n_clients,
            requests=measured,
            elapsed_s=elapsed,
            throughput_rps=measured / elapsed if elapsed > 0 else 0.0,
            mean_batch=measured / batches if batches else 0.0,
            p50_ms=after.p50_ms,
            p95_ms=after.p95_ms,
            p99_ms=after.p99_ms,
            failures=after.failures - before.failures,
            restarts=getattr(engine, "restarts", 0),
        ))

    with InferenceEngine(graph, workers=1, max_batch=max_batch,
                         max_latency_ms=max_latency_ms) as engine:
        _measure(engine, "in-process", 0, offered_clients)
    for count in replica_counts:
        with ReplicaEngine(graph, replicas=count, max_batch=max_batch,
                           max_latency_ms=max_latency_ms,
                           max_inflight=max_inflight,
                           cache_dir=cache_dir,
                           start_method=start_method,
                           shm=shm, tracer=tracer,
                           slow_request_ms=slow_request_ms) as tier:
            _measure(tier, "replicas", count, offered_clients)
            if on_tier is not None:
                on_tier(tier)
    return results


@dataclass(frozen=True)
class ShmBenchResult:
    """One measured data plane (pipe or shm) at one batch size."""

    data_plane: str            # "pipe" or "shm"
    batch: int                 # max_batch for the tier
    clients: int
    requests: int
    request_kb: float          # per-request tensor payload (inputs), KiB
    elapsed_s: float
    throughput_rps: float
    mean_batch: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    shm_requests: int          # batches that crossed via a ring slot
    shm_fallbacks: int         # batches that fell back to the pipe codec


def run_shm_bench(graph: Graph,
                  batch_sizes: Sequence[int] = (1, 8, 32),
                  requests: int = 128, clients: Optional[int] = None,
                  warmup: int = 16,
                  max_latency_ms: float = 2.0,
                  max_inflight: int = 2,
                  cache_dir=None,
                  start_method: str = "spawn") -> List[ShmBenchResult]:
    """Pipe codec vs shared-memory rings on a one-replica tier.

    One replica isolates the data-plane cost: with a single child both
    modes run the identical execution schedule, so the measured delta is
    pure transport — frame pack/unpack + pipe writes on one side, slot
    copies + a fixed-size control frame on the other.  Each batch size
    gets its own tier pair (the ring slots are sized from ``max_batch``)
    measured under the same offered load, ``clients`` when given else
    ``max_inflight * batch`` so the in-flight budget stays full.  Both
    modes share ``cache_dir`` so plan compilation is warm after the
    first tier.
    """
    from .replicas import ReplicaEngine

    feeds = sample_feeds(graph)
    payload_kb = sum(array.nbytes for array in feeds.values()) / 1024.0
    results: List[ShmBenchResult] = []
    for batch in batch_sizes:
        n_clients = clients if clients is not None \
            else max_inflight * batch
        for shm in (False, True):
            with ReplicaEngine(graph, replicas=1, max_batch=batch,
                               max_latency_ms=max_latency_ms,
                               max_inflight=max_inflight,
                               cache_dir=cache_dir,
                               start_method=start_method,
                               shm=shm) as tier:
                _closed_loop(tier, feeds, n_clients, warmup)
                before = tier.metrics()
                shm_before = (tier.shm_requests, tier.shm_fallbacks)
                elapsed = _closed_loop(tier, feeds, n_clients, requests)
                after = tier.metrics()
                measured = after.requests - before.requests
                batches = after.batches - before.batches
                results.append(ShmBenchResult(
                    data_plane="shm" if shm else "pipe",
                    batch=batch,
                    clients=n_clients,
                    requests=measured,
                    request_kb=payload_kb,
                    elapsed_s=elapsed,
                    throughput_rps=measured / elapsed if elapsed > 0
                    else 0.0,
                    mean_batch=measured / batches if batches else 0.0,
                    p50_ms=after.p50_ms,
                    p95_ms=after.p95_ms,
                    p99_ms=after.p99_ms,
                    shm_requests=tier.shm_requests - shm_before[0],
                    shm_fallbacks=tier.shm_fallbacks - shm_before[1],
                ))
    return results


def render_shm(results: Sequence[ShmBenchResult], name: str = "") -> str:
    """Fixed-width table of a pipe-vs-shm sweep (speedups are shm
    relative to the pipe row at the same batch size)."""
    header = (f"{'plane':<6} {'batch':>5} {'clients':>7} {'req/s':>9} "
              f"{'mean_b':>6} {'p50ms':>7} {'p95ms':>7} {'slots':>6} "
              f"{'fallbk':>6}")
    lines = []
    if name:
        lines.append(f"serve-bench --shm: {name}")
    lines.append(header)
    lines.append("-" * len(header))
    pipe_rps = {row.batch: row.throughput_rps for row in results
                if row.data_plane == "pipe"}
    for row in results:
        base = pipe_rps.get(row.batch, 0.0)
        speedup = (f" ({row.throughput_rps / base:.2f}x)"
                   if row.data_plane == "shm" and base > 0 else "")
        lines.append(
            f"{row.data_plane:<6} {row.batch:>5} {row.clients:>7} "
            f"{row.throughput_rps:>9.1f} {row.mean_batch:>6.2f} "
            f"{row.p50_ms:>7.2f} {row.p95_ms:>7.2f} "
            f"{row.shm_requests:>6} {row.shm_fallbacks:>6}{speedup}")
    return "\n".join(lines)


def render_replicas(results: Sequence[ReplicaBenchResult],
                    name: str = "") -> str:
    """Fixed-width table of a replica-scaling sweep (speedups are
    relative to the in-process baseline row)."""
    header = (f"{'mode':<12} {'procs':>5} {'clients':>7} {'req/s':>9} "
              f"{'mean_b':>6} {'p50ms':>7} {'p95ms':>7} {'fail':>5} "
              f"{'restart':>7}")
    lines = []
    if name:
        lines.append(f"serve-bench --replicas: {name}")
    lines.append(header)
    lines.append("-" * len(header))
    base = results[0].throughput_rps if results else 0.0
    for row in results:
        speedup = (f" ({row.throughput_rps / base:.2f}x)"
                   if base > 0 and row is not results[0] else "")
        label = row.mode if row.replicas == 0 \
            else f"{row.mode}-{row.replicas}"
        lines.append(
            f"{label:<12} {row.replicas:>5} {row.clients:>7} "
            f"{row.throughput_rps:>9.1f} {row.mean_batch:>6.2f} "
            f"{row.p50_ms:>7.2f} {row.p95_ms:>7.2f} {row.failures:>5} "
            f"{row.restarts:>7}{speedup}")
    return "\n".join(lines)


@dataclass(frozen=True)
class TraceReplayResult:
    """One open-loop trace replay of a single engine configuration.

    Latency percentiles cover *admitted* (completed) requests only —
    shed requests fail fast by design and would otherwise drag the
    percentiles toward the shed path's microseconds.  ``slo_met`` and
    ``goodput_rps`` count completions at or under the SLO.
    """

    mode: str              # "adaptive" or "fixed"
    trace: str             # arrival-process kind ("bursty", ...)
    slo_ms: float
    offered: int
    offered_rps: float
    completed: int
    slo_met: int
    shed: int
    failed: int
    elapsed_s: float
    throughput_rps: float
    goodput_rps: float
    mean_batch: float
    p50_ms: float
    p95_ms: float
    p99_ms: float


def make_trace(kind: str, rate_rps: float, duration_s: float,
               seed: int = 0) -> List[float]:
    """Deterministic open-loop arrival offsets (seconds, ascending).

    ``rate_rps`` is the *mean* arrival rate for every kind; the kinds
    differ in how that rate is distributed over ``duration_s``:

    * ``poisson`` — homogeneous Poisson process (exponential
      inter-arrivals), the steady-traffic control.
    * ``bursty`` — four on/off cycles: the first 20% of each cycle
      arrives at 4x the mean rate, the rest at 0.25x, so bursts
      transiently exceed service capacity even when the mean does not.
    * ``diurnal`` — one sinusoidal day: rate swings smoothly between
      0.2x and 1.8x of the mean over the whole duration.

    Non-homogeneous kinds are generated by thinning a homogeneous
    process at the peak rate, so the same seed yields the same trace.
    """
    if rate_rps <= 0 or duration_s <= 0:
        raise ValueError("rate_rps and duration_s must be positive")
    if kind == "poisson":
        modulate = lambda t: 1.0  # noqa: E731
        peak = 1.0
    elif kind == "bursty":
        period = duration_s / 4.0

        def modulate(t: float) -> float:
            return 4.0 if (t % period) < 0.2 * period else 0.25
        peak = 4.0
    elif kind == "diurnal":
        def modulate(t: float) -> float:
            return 1.0 + 0.8 * float(
                np.sin(2.0 * np.pi * t / duration_s))
        peak = 1.8
    else:
        raise ValueError(f"unknown trace kind {kind!r}; expected "
                         f"poisson, bursty, or diurnal")
    rng = np.random.default_rng(seed)
    arrivals: List[float] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / (rate_rps * peak)))
        if t >= duration_s:
            break
        if rng.random() * peak <= modulate(t):
            arrivals.append(t)
    return arrivals


def run_trace_replay(graph: Graph, arrivals: Sequence[float],
                     slo_ms: float, trace_name: str = "trace",
                     adaptive: bool = True,
                     max_batch: int = 8, max_latency_ms: float = 2.0,
                     workers: int = 1,
                     shed_policy=None, plan_cache=None,
                     warmup: int = 32,
                     headroom_ms: Optional[float] = None,
                     timeout_s: float = 120.0) -> TraceReplayResult:
    """Replay ``arrivals`` open-loop against one engine configuration.

    Unlike the closed-loop sweeps above, submission times come from the
    trace, not from the engine's own completion rate — so overload is
    visible as growing queues, SLO misses, and (on the adaptive path)
    shedding, instead of being hidden by client back-pressure.  Each
    request carries ``slo_ms``; outcomes are classified per request:
    completed-in-SLO, completed-late, shed (typed fast failure), or
    failed.  ``headroom_ms`` defaults to 25% of the SLO on the
    adaptive path — slack for dispatch/finalize overhead and scheduler
    noise the execute cost model cannot see, sized so the admitted
    tail lands *under* the SLO rather than exactly on the admission
    boundary; it is ignored on the fixed path.
    """
    import time

    from .batcher import RequestShedError

    if headroom_ms is None:
        headroom_ms = max(0.5, 0.25 * slo_ms)
    feeds = sample_feeds(graph)
    with InferenceEngine(graph, workers=workers, max_batch=max_batch,
                         max_latency_ms=max_latency_ms,
                         adaptive=adaptive,
                         shed_policy=shed_policy,
                         plan_cache=plan_cache,
                         headroom_ms=headroom_ms) as engine:
        if warmup > 0:
            # Mixed-concurrency warmup compiles the per-size plans and
            # gives the adaptive path calibration points at several
            # batch sizes before the clock starts.
            _closed_loop(engine, feeds, max_batch, warmup)
            _closed_loop(engine, feeds, 1, min(4, warmup))
        before = engine.metrics()
        done_at: Dict[int, float] = {}
        lock = threading.Lock()

        def stamp(index: int):
            def callback(_future) -> None:
                with lock:
                    done_at[index] = time.monotonic()
            return callback

        records: List[Tuple[float, object]] = []
        start = time.monotonic()
        for index, offset in enumerate(arrivals):
            delay = (start + offset) - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            submitted = time.monotonic()
            future = engine.infer(feeds, slo_ms=slo_ms)
            future.add_done_callback(stamp(index))
            records.append((submitted, future))
        completed = shed = failed = slo_met = 0
        latencies: List[float] = []
        slo_s = slo_ms / 1e3
        for index, (submitted, future) in enumerate(records):
            try:
                future.result(timeout=timeout_s)
            except RequestShedError:
                shed += 1
                continue
            except BaseException:
                failed += 1
                continue
            with lock:
                finished = done_at.get(index, time.monotonic())
            latency = finished - submitted
            latencies.append(latency)
            completed += 1
            if latency <= slo_s:
                slo_met += 1
        end = time.monotonic()
        after = engine.metrics()
    elapsed = max(end - start, 1e-9)
    batches = after.batches - before.batches
    measured = after.requests - before.requests
    latencies.sort()
    return TraceReplayResult(
        mode="adaptive" if adaptive else "fixed",
        trace=trace_name,
        slo_ms=float(slo_ms),
        offered=len(records),
        offered_rps=len(records) / elapsed,
        completed=completed,
        slo_met=slo_met,
        shed=shed,
        failed=failed,
        elapsed_s=elapsed,
        throughput_rps=completed / elapsed,
        goodput_rps=slo_met / elapsed,
        mean_batch=measured / batches if batches else 0.0,
        p50_ms=percentile(latencies, 50) * 1e3,
        p95_ms=percentile(latencies, 95) * 1e3,
        p99_ms=percentile(latencies, 99) * 1e3,
    )


def render_trace_replay(results: Sequence[TraceReplayResult],
                        name: str = "") -> str:
    """Fixed-width table of trace-replay outcomes (goodput ratios are
    adaptive relative to the fixed row of the same trace)."""
    header = (f"{'mode':<9} {'trace':<8} {'slo_ms':>6} {'offered':>7} "
              f"{'ok':>6} {'in-slo':>6} {'shed':>5} {'fail':>4} "
              f"{'good/s':>8} {'p50ms':>7} {'p99ms':>8}")
    lines = []
    if name:
        lines.append(f"serve-bench --trace: {name}")
    lines.append(header)
    lines.append("-" * len(header))
    fixed_goodput = {row.trace: row.goodput_rps for row in results
                     if row.mode == "fixed"}
    for row in results:
        ratio = ""
        base = fixed_goodput.get(row.trace, 0.0)
        if row.mode == "adaptive" and base > 0:
            ratio = f" ({row.goodput_rps / base:.2f}x)"
        lines.append(
            f"{row.mode:<9} {row.trace:<8} {row.slo_ms:>6.1f} "
            f"{row.offered:>7} {row.completed:>6} {row.slo_met:>6} "
            f"{row.shed:>5} {row.failed:>4} {row.goodput_rps:>8.1f} "
            f"{row.p50_ms:>7.2f} {row.p99_ms:>8.2f}{ratio}")
    return "\n".join(lines)


def render(results: Sequence[BenchResult], name: str = "") -> str:
    """Fixed-width table of a benchmark sweep."""
    header = (f"{'workers':>7} {'batch':>5} {'clients':>7} {'req/s':>9} "
              f"{'mean_b':>6} {'p50ms':>7} {'p95ms':>7} "
              f"{'allocs':>6} {'reuses':>7}")
    lines = []
    if name:
        lines.append(f"serve-bench: {name}")
    lines.append(header)
    lines.append("-" * len(header))
    base = results[0].throughput_rps if results else 0.0
    for row in results:
        speedup = (f" ({row.throughput_rps / base:.2f}x)"
                   if base > 0 and row is not results[0] else "")
        lines.append(
            f"{row.workers:>7} {row.max_batch:>5} {row.clients:>7} "
            f"{row.throughput_rps:>9.1f} {row.mean_batch:>6.2f} "
            f"{row.p50_ms:>7.2f} {row.p95_ms:>7.2f} "
            f"{row.arena_allocations:>6} {row.arena_reuses:>7}{speedup}")
    return "\n".join(lines)
