"""Batched inference engine: micro-batching over a pool of plan workers.

The serving layer the ROADMAP's "heavy traffic" north star asks for,
built on the compiled-plan runtime:

* a :class:`repro.serving.batcher.BatchQueue` coalesces concurrent
  single-sample requests along the leading batch axis (Fig. 4's batch
  scaling, applied online);
* whole batches run as tasks on the process-wide shared
  :class:`repro.runtime.parallel.WorkerPool` — numpy's BLAS-bound
  kernels release the GIL, so batches overlap on multi-core hosts; each
  batch's executor runs its plan sequentially on the worker that took
  the batch.  There are no ad-hoc threads;
* every worker owns exactly one memory set — one scratch arena and one
  kernel workspace (``reuse_buffers``) — that all of its per-batch-size
  executors run on: buffer capacity grows to the largest batch the
  worker has actually seen and smaller batches draw leading-row views
  of the same buffers, so the engine's footprint is ``workers`` sets,
  not one per batch size, and steady-state serving performs no large
  heap allocations: batch results are split into per-request copies and
  the batch buffers immediately recycled.

Plans are compiled once per observed batch size and shared: workers hold
cheap ``with_buffers()`` instances over the same immutable compiled
steps, and the prepacked weights are built once — every later batch
size binds its kernels to the first plan's packs.
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..ir.graph import Graph
from ..runtime.arena import ArenaStats, RunContext
from ..runtime.executor import Executor
from ..runtime.parallel import get_pool
from ..runtime.plan import ExecutionPlan, compile_plan, fresh_buffers
from ..telemetry import collectors as _telemetry
from ..telemetry.tracing import RequestTrace, Tracer
from .batcher import (
    BatchQueue,
    InferenceRequest,
    QueueClosedError,
    RequestShedError,
)
from .latency_model import BatchLatencyModel, model_path
from .metrics import MetricsRecorder, MetricsSnapshot

logger = logging.getLogger("repro.serving")


class EngineClosedError(RuntimeError):
    """Raised when submitting to an engine that has been shut down."""


@dataclass(frozen=True)
class ShedPolicy:
    """When and what the engine sheds instead of queueing.

    ``queue_limit`` bounds the batch queue: an arrival past it evicts
    the youngest lowest-priority queued request if the arrival outranks
    it, else the arrival itself is shed (both with
    :class:`RequestShedError`).  ``miss_rate_threshold`` arms a
    windowed circuit breaker: once the recorder's miss rate (failures +
    sheds + deadline misses over recent requests) reaches it, arriving
    requests with ``priority <= shed_priority`` are shed at admission —
    the lowest classes brown out first while higher classes keep their
    SLO.  The breaker only arms after ``min_events`` requests so a cold
    engine is never judged on two data points.
    """

    queue_limit: Optional[int] = None
    miss_rate_threshold: Optional[float] = None
    shed_priority: int = 0
    min_events: int = 32


def check_sample(input_specs: Mapping[str, "object"],
                 feeds: Mapping[str, np.ndarray]
                 ) -> Dict[str, np.ndarray]:
    """Validate one single-sample feed dict against ``input_specs``
    (name -> :class:`repro.ir.tensor.TensorSpec`) and return arrays the
    serving pipeline *owns*.

    ``astype(..., copy=False)`` aliases the caller's buffer whenever no
    dtype conversion is needed, so a caller mutating its array after
    ``infer()`` returns would corrupt the in-flight batch; any feed that
    still shares memory with the caller's array is copied here.
    """
    sample: Dict[str, np.ndarray] = {}
    for name, spec in input_specs.items():
        if name not in feeds:
            raise ValueError(f"missing feed for graph input {name!r}")
        raw = feeds[name]
        value = np.asarray(raw)
        if tuple(value.shape) != spec.shape:
            raise ValueError(
                f"feed {name!r} has shape {value.shape}, expected the "
                f"single-sample shape {spec.shape}")
        converted = value.astype(spec.dtype.to_numpy(), copy=False)
        if isinstance(raw, np.ndarray) and \
                np.shares_memory(converted, raw):
            converted = converted.copy()
        sample[name] = converted
    extra = set(feeds) - set(sample)
    if extra:
        raise ValueError(f"unknown feed tensors: {sorted(extra)}")
    return sample


class _Worker:
    """One memory set and the executors that run on it, one per batch
    size the worker has served.  One batch runs on a worker at a time,
    so the arena stays single-owner.  Executors hold no reference back
    to their worker: the bookkeeping is acyclic, and a closed engine's
    buffers are freed by refcount, not by a later collection."""

    __slots__ = ("buffers", "executors")

    def __init__(self, reuse_buffers: bool) -> None:
        self.buffers: Optional[RunContext] = (
            fresh_buffers() if reuse_buffers else None)
        self.executors: Dict[int, Executor] = {}


class InferenceEngine:
    """Serves single-sample requests through dynamically formed batches.

    Parameters
    ----------
    graph
        Model to serve; rebatched internally, so any build batch works.
    workers
        Concurrent plan workers (and the bound on in-flight batches).
    max_batch
        Largest batch the queue may coalesce.
    max_latency_ms
        Upper bound on how long a queued request lingers for the batch
        to fill before being dispatched anyway.  Time the dispatcher
        already spent idle on an empty queue counts towards it
        (:func:`repro.serving.batcher.linger_deadline`), so a request
        that finds the engine idle for this long is dispatched at once.
    reuse_buffers
        Run workers on scratch arenas (allocation-free steady state).
    plan_cache
        Optional :class:`repro.runtime.plan_cache.PlanCache`: per-batch
        plan builds go through :func:`load_or_build`, so a restarted
        engine warm-starts from disk instead of respecializing.  Hit and
        miss counts surface in :meth:`metrics`.
    aot_config
        :class:`repro.optim.passes.AOTConfig` for cache-backed builds
        (bitwise-safe defaults when None).
    prewarm
        Pre-populate each worker arena from the plan's activation shapes
        (first run allocation-free, not just steady state).
    tracer
        Optional :class:`repro.telemetry.tracing.Tracer`.  Requests the
        tracer samples carry a :class:`RequestTrace` through the whole
        pipeline (queue wait, dispatch wait, batch assembly, execute
        with per-step kernel spans, finalize); finished traces land in
        the tracer's ring buffer for Chrome-trace export.  ``None`` (the
        default) disables tracing: the hot path pays one branch.
    slow_request_ms
        When set, any request whose end-to-end latency is at or above
        this many milliseconds is logged on the ``repro.serving`` logger
        (with its phase decomposition when traced) and counted in
        ``repro_serving_slow_requests_total``.
    adaptive
        Enable SLO-aware adaptive batching: the engine fits an online
        :class:`repro.serving.latency_model.BatchLatencyModel` from its
        own execute timings and the queue assembles the largest batch
        whose predicted completion still meets the tightest in-queue
        deadline (falling back to the fixed knobs while the model is
        cold).  Requests whose deadline is predicted unmeetable even at
        batch 1 are shed with :class:`RequestShedError`.  With a
        ``plan_cache`` attached the model is persisted next to the plan
        entry, so a restarted engine starts calibrated.
    default_slo_ms
        Deadline assigned to requests that do not pass ``slo_ms``
        explicitly (None: such requests are best-effort and never miss).
    shed_policy
        A :class:`ShedPolicy` arming queue-bound eviction and the
        windowed miss-rate admission breaker.
    latency_model
        Inject a pre-built/shared :class:`BatchLatencyModel` (tests,
        cross-engine calibration); default builds or loads one when
        ``adaptive`` is set.
    headroom_ms
        Scheduling slack the adaptive assembly reserves on every
        deadline comparison (dispatch/finalize overhead the execute
        cost model does not see).  Raise it to trade goodput for a
        tighter admitted-request tail; a useful rule of thumb is
        10-20% of the SLO.
    """

    def __init__(self, graph: Graph, workers: int = 1, max_batch: int = 8,
                 max_latency_ms: float = 2.0,
                 reuse_buffers: bool = True,
                 plan_cache=None, aot_config=None,
                 prewarm: bool = False,
                 tracer: Optional[Tracer] = None,
                 slow_request_ms: Optional[float] = None,
                 adaptive: bool = False,
                 default_slo_ms: Optional[float] = None,
                 shed_policy: Optional[ShedPolicy] = None,
                 latency_model: Optional[BatchLatencyModel] = None,
                 headroom_ms: float = 0.5) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.template = graph.with_batch(1)
        self.workers = int(workers)
        self.max_batch = int(max_batch)
        self.reuse_buffers = reuse_buffers
        self.plan_cache = plan_cache
        self.aot_config = aot_config
        self.prewarm = bool(prewarm)
        self._cache_hits = 0
        self._cache_misses = 0
        self._input_specs = {spec.name: spec for spec in self.template.inputs}
        self.adaptive = bool(adaptive)
        self.default_slo_ms = (float(default_slo_ms)
                               if default_slo_ms is not None else None)
        self.shed_policy = shed_policy
        self.latency_model = latency_model
        self._latency_model_path = None
        if self.adaptive and self.latency_model is None:
            if plan_cache is not None:
                # Warm starts begin calibrated: the model is keyed and
                # stored alongside the plan-cache entry it timed.
                key = plan_cache.key_for(self.template, aot_config)
                self._latency_model_path = model_path(
                    plan_cache.directory, key)
                self.latency_model = BatchLatencyModel.load(
                    self._latency_model_path)
            if self.latency_model is None:
                self.latency_model = BatchLatencyModel()
        needs_shed = self.adaptive or (
            shed_policy is not None and (
                shed_policy.queue_limit is not None
                or shed_policy.miss_rate_threshold is not None))
        self.queue = BatchQueue(
            max_batch=max_batch,
            max_latency_s=max_latency_ms / 1e3,
            cost_model=(self.latency_model.predict
                        if self.adaptive else None),
            on_shed=self._shed_request if needs_shed else None,
            queue_limit=(shed_policy.queue_limit
                         if shed_policy is not None else None),
            headroom_s=headroom_ms / 1e3)
        self.recorder = MetricsRecorder()
        self.tracer = tracer if tracer is not None and tracer.enabled \
            else None
        self.slow_request_ms = (float(slow_request_ms)
                                if slow_request_ms is not None else None)
        self.slow_requests = 0
        self._slow_lock = threading.Lock()
        self._closed = False
        # Compiled base plans shared across workers, keyed by batch size.
        self._compile_lock = threading.Lock()
        self._compiled: Dict[int, Tuple[Graph, ExecutionPlan]] = {}
        # Idle workers, plus every worker ever created (at most
        # ``workers``: the slot semaphore bounds how many are out), for
        # aggregate arena stats.
        self._pool_lock = threading.Lock()
        self._idle: List[_Worker] = []
        self._workers: List[_Worker] = []
        # A worker slot must be free before the dispatcher forms a batch;
        # otherwise it would drain the queue into the shared pool's
        # backlog and lose every coalescing opportunity.
        self._slots = threading.Semaphore(self.workers)
        # The shared process pool runs the engine's batch tasks, one per
        # worker slot.
        self._pool = get_pool(ensure=self.workers)
        self._dispatcher = threading.Thread(target=self._dispatch_loop,
                                            name="repro-serve-dispatch",
                                            daemon=True)
        self._dispatcher.start()
        # Serving series (requests, failures, queue depth, windowed
        # percentiles) surface in the process-wide metrics registry via
        # a scrape-time collector over live engines.
        _telemetry.track_engine(self)

    # -- public API ----------------------------------------------------------

    def infer(self, feeds: Mapping[str, np.ndarray],
              slo_ms: Optional[float] = None,
              priority: int = 0) -> "Future":
        """Submit one sample (leading batch axis 1); returns a Future
        resolving to a dict of output name -> array.

        ``slo_ms`` attaches a completion deadline this many ms from now
        (default: the engine's ``default_slo_ms``); the adaptive batcher
        sizes batches so predicted completion meets the tightest queued
        deadline, and sheds requests it predicts will miss anyway.
        ``priority`` orders service and shedding (higher serves first,
        sheds last).  The future may fail with
        :class:`RequestShedError` when the request is shed.
        """
        if self._closed:
            raise EngineClosedError("engine is closed")
        request = InferenceRequest(feeds=self._check_sample(feeds),
                                   priority=int(priority))
        if slo_ms is None:
            slo_ms = self.default_slo_ms
        if slo_ms is not None:
            request.deadline_s = request.enqueued_at + slo_ms / 1e3
        policy = self.shed_policy
        if policy is not None and \
                policy.miss_rate_threshold is not None and \
                request.priority <= policy.shed_priority and \
                self.recorder.window_events() >= policy.min_events and \
                self.recorder.miss_rate() >= policy.miss_rate_threshold:
            # The breaker is open: fail fast with the typed shed error
            # instead of queueing work the window says will go bad.
            self._shed_request(request)
            return request.future
        if self.tracer is not None and self.tracer.sample():
            trace = RequestTrace(self.template.name or "request")
            trace.mark("enqueued")
            request.trace = trace
        try:
            self.queue.submit(request)
        except QueueClosedError:
            # close() won the race between our _closed check and the
            # queue submit; surface the same typed error as the check.
            raise EngineClosedError("engine is closed") from None
        return request.future

    def infer_sync(self, feeds: Mapping[str, np.ndarray],
                   timeout: Optional[float] = None,
                   slo_ms: Optional[float] = None,
                   priority: int = 0) -> Dict[str, np.ndarray]:
        return self.infer(feeds, slo_ms=slo_ms,
                          priority=priority).result(timeout=timeout)

    def infer_many(self, samples: Sequence[Mapping[str, np.ndarray]],
                   timeout: Optional[float] = None,
                   slo_ms: Optional[float] = None,
                   priority: int = 0) -> List[Dict[str, np.ndarray]]:
        """Submit a burst of samples and wait for all results in order."""
        futures = [self.infer(sample, slo_ms=slo_ms, priority=priority)
                   for sample in samples]
        return [future.result(timeout=timeout) for future in futures]

    def metrics(self) -> MetricsSnapshot:
        """A consistent snapshot of throughput/latency/batching/arena."""
        arena_stats = ArenaStats()
        workspace_allocations = 0
        with self._pool_lock:
            workers = list(self._workers)
        for worker in workers:
            if worker.buffers is None:
                continue
            stats = worker.buffers.arena.stats
            arena_stats.allocations += stats.allocations
            arena_stats.allocated_bytes += stats.allocated_bytes
            arena_stats.large_allocations += stats.large_allocations
            arena_stats.reuses += stats.reuses
            arena_stats.reused_bytes += stats.reused_bytes
            workspace_allocations += worker.buffers.workspace.allocations
        with self._compile_lock:
            cache_hits, cache_misses = self._cache_hits, self._cache_misses
        return self.recorder.snapshot(
            queue_depth=self.queue.depth(),
            arena_stats=arena_stats,
            workspace_allocations=workspace_allocations,
            plan_cache_hits=cache_hits,
            plan_cache_misses=cache_misses)

    def close(self, timeout: Optional[float] = None) -> None:
        """Stop accepting work, fail whatever is still queued, and wait
        for in-flight batches to finish.

        The shared process pool is never shut down (other subsystems use
        it); instead, draining every worker slot proves all of this
        engine's batch tasks have completed."""
        if self._closed:
            return
        self._closed = True
        self.queue.close()
        self._dispatcher.join(timeout=timeout)
        drained = self.queue.drain()
        if drained:
            # Requests failed at shutdown are failures like any other:
            # without this, ``failures``/``failure_rate`` under-report
            # every request the close drained.
            self._fail_batch(
                drained, EngineClosedError("engine closed before "
                                           "execution"))
        acquired = 0
        for _ in range(self.workers):
            ok = (self._slots.acquire(timeout=timeout)
                  if timeout is not None else self._slots.acquire())
            if not ok:
                break
            acquired += 1
        for _ in range(acquired):
            self._slots.release()
        if self._latency_model_path is not None and \
                self.latency_model is not None and \
                self.latency_model.observations > 0:
            # Persist the calibration next to the plan-cache entry so
            # the next engine on this model starts warm.
            try:
                self.latency_model.save(self._latency_model_path)
            except OSError as exc:
                logger.warning("could not persist latency model to %s: "
                               "%s", self._latency_model_path, exc)

    def __enter__(self) -> "InferenceEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals -----------------------------------------------------------

    def _check_sample(self, feeds: Mapping[str, np.ndarray]
                      ) -> Dict[str, np.ndarray]:
        return check_sample(self._input_specs, feeds)

    def _shed_request(self, request: InferenceRequest) -> None:
        """Fail one request with the typed shed error and record it."""
        self.recorder.record_shed(1)
        if not request.future.done():
            deadline_note = ""
            if request.deadline_s is not None:
                remaining_ms = (request.deadline_s
                                - time.monotonic()) * 1e3
                deadline_note = (f" ({remaining_ms:.1f} ms of SLO "
                                 f"budget left)")
            request.future.set_exception(RequestShedError(
                f"request shed by SLO-aware admission control"
                f"{deadline_note}; retry with backoff or lower load"))
        if request.trace is not None:
            self._finish_traces([request.trace], failed=True)

    def _fail_batch(self, requests: List[InferenceRequest],
                    exc: BaseException, traces: Sequence = ()) -> None:
        """Record and propagate a whole batch's failure.

        Failure latencies join the same percentile window as successes,
        so p99 reflects the worst outcomes.
        """
        failed_at = time.monotonic()
        self.recorder.record_failure(
            len(requests), [failed_at - request.enqueued_at
                            for request in requests])
        for request in requests:
            if not request.future.done():
                request.future.set_exception(exc)
        self._finish_traces(list(traces), failed=True)

    def _base_plan(self, batch: int) -> Tuple[Graph, ExecutionPlan]:
        with self._compile_lock:
            entry = self._compiled.get(batch)
            if entry is None:
                graph = self.template.with_batch(batch)
                if self.plan_cache is not None:
                    from ..runtime.plan_cache import load_or_build

                    model = load_or_build(graph, self.aot_config,
                                          self.plan_cache)
                    if model.from_cache:
                        self._cache_hits += 1
                    else:
                        self._cache_misses += 1
                    entry = (model.graph, model.plan)
                else:
                    # Prepacked weights do not depend on the batch size:
                    # build them once, bind every later size to them.
                    packs = next((plan.packs for _, plan
                                  in self._compiled.values()), None)
                    entry = (graph, compile_plan(graph, packs=packs))
                self._compiled[batch] = entry
            return entry

    def _checkout(self) -> _Worker:
        with self._pool_lock:
            if self._idle:
                return self._idle.pop()
            worker = _Worker(self.reuse_buffers)
            self._workers.append(worker)
            return worker

    def _checkin(self, worker: _Worker) -> None:
        with self._pool_lock:
            self._idle.append(worker)

    def _executor_for(self, worker: _Worker, batch: int) -> Executor:
        executor = worker.executors.get(batch)
        if executor is None:
            graph, plan = self._base_plan(batch)
            executor = worker.executors[batch] = Executor(
                graph, reuse_buffers=self.reuse_buffers, plan=plan,
                prewarm=self.prewarm, buffers=worker.buffers)
        return executor

    def _dispatch_loop(self) -> None:
        while True:
            self._slots.acquire()
            batch = self.queue.next_batch()
            if batch is None:
                self._slots.release()
                return
            if self.tracer is not None:
                for request in batch:
                    if request.trace is not None:
                        request.trace.mark("dequeued")
            try:
                self._pool.submit(self._make_batch_task(batch))
            except BaseException as exc:
                # The task never made it onto the pool, so its finally
                # block will never run: release the worker slot here (a
                # leaked permit would hang a later close() on slot
                # drain) and fail the batch's futures.
                self._slots.release()
                self._fail_batch(
                    batch, exc,
                    traces=[request.trace for request in batch
                            if request.trace is not None])

    def _make_batch_task(self, batch: List[InferenceRequest]):
        def task() -> None:
            try:
                self._run_batch(batch)
            finally:
                self._slots.release()
        return task

    def _run_batch(self, requests: List[InferenceRequest]) -> None:
        size = len(requests)
        # Traces ride along only for sampled requests; with no tracer
        # attached this is a single falsy check per batch.
        traces = [request.trace for request in requests
                  if request.trace is not None] if self.tracer is not None \
            else []
        for trace in traces:
            trace.batch_size = size
            trace.mark("task_start")
        task_t0 = time.perf_counter() if self.latency_model is not None \
            else 0.0
        try:
            worker = self._checkout()
            try:
                executor = self._executor_for(worker, size)
                if size == 1:
                    feeds = requests[0].feeds
                else:
                    feeds = {
                        name: np.concatenate(
                            [request.feeds[name] for request in requests],
                            axis=0)
                        for name in self._input_specs
                    }
                if traces:
                    execute_t0 = time.perf_counter()
                    for trace in traces:
                        trace.mark("assembled", execute_t0)
                        trace.mark("execute_t0", execute_t0)
                    executor.record_timeline = True
                try:
                    outputs = executor.run(feeds)
                finally:
                    if traces:
                        executor.record_timeline = False
                if traces:
                    timeline = executor.last_timeline or []
                    for trace in traces:
                        trace.mark("executed")
                        trace.attach_steps(timeline)
                # Per-request copies so the (large) batch buffers can go
                # straight back to the worker's arena.
                results = [
                    {name: array[index:index + 1].copy()
                     for name, array in outputs.items()}
                    for index in range(size)
                ]
                executor.recycle(outputs)
            finally:
                self._checkin(worker)
        except BaseException as exc:
            self._fail_batch(requests, exc, traces=traces)
            return
        if self.latency_model is not None:
            # The model predicts task-start-to-results time (assembly +
            # execute + finalize): exactly the interval the assembly
            # policy adds to "now" when it asks whether a batch of n
            # makes a deadline.
            self.latency_model.observe(
                size, time.perf_counter() - task_t0)
        completed = time.monotonic()
        latencies = [completed - request.enqueued_at
                     for request in requests]
        slo_misses = sum(
            1 for request in requests
            if request.deadline_s is not None
            and completed > request.deadline_s)
        self.recorder.record_batch(size, latencies,
                                   slo_misses=slo_misses)
        for request, result in zip(requests, results):
            request.future.set_result(result)
        for trace in traces:
            trace.mark("completed")
        self._finish_traces(traces, failed=False)
        if self.slow_request_ms is not None:
            self._log_slow(requests, latencies)

    def _finish_traces(self, traces, failed: bool) -> None:
        if not traces or self.tracer is None:
            return
        for trace in traces:
            if failed:
                trace.mark("completed")
            self.tracer.finish(trace)

    def _log_slow(self, requests: List[InferenceRequest],
                  latencies: List[float]) -> None:
        threshold_s = self.slow_request_ms / 1e3
        for request, latency in zip(requests, latencies):
            if latency < threshold_s:
                continue
            with self._slow_lock:
                self.slow_requests += 1
            if request.trace is not None:
                phases = request.trace.phase_durations_ms()
                detail = ", ".join(f"{name} {value:.2f} ms"
                                   for name, value in phases.items())
                logger.warning(
                    "slow request (trace %d): %.2f ms >= %.2f ms (%s)",
                    request.trace.trace_id, latency * 1e3,
                    self.slow_request_ms, detail)
            else:
                logger.warning(
                    "slow request: %.2f ms >= %.2f ms "
                    "(enable tracing for a phase breakdown)",
                    latency * 1e3, self.slow_request_ms)
