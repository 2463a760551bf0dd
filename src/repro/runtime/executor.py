"""Reference executor: runs a compiled plan on numpy tensors.

This is the "runtime" stage of the deployment flow (paper Sec. III,
step 6).  The graph is compiled once at construction time
(:func:`repro.runtime.plan.compile_plan`): every node's attributes and
quantization parameters are resolved into a bound kernel callable, and a
liveness schedule (from the activation-memory planner) marks where each
intermediate tensor dies.  :meth:`Executor.run` is then a thin loop —
call the bound kernel, fire hooks, store outputs, drop dead tensors — so
repeated inference pays no per-run dispatch or attr-lookup cost and holds
no more activation memory than the planner's ``peak_live_bytes``.

With ``reuse_buffers=True`` the executor goes one step further: node
outputs are allocated through the plan instance's scratch arena and dead
intermediates are returned to it, so after a warmup run steady-state
inference performs no large heap allocations (the arena's stats counters
prove it).  Callers that want a fully closed loop hand their finished
output arrays back via :meth:`Executor.recycle` — what the serving
engine does after splitting a batch into per-request copies.

It supports float graphs, QDQ-quantized graphs produced by the PTQ pass,
binarized graphs, and fused graphs.  Per-node hooks allow the profiler
(latency/memory measurements, Kenning-style) and the safety fault
injector to observe or perturb intermediate tensors.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Union

import numpy as np

from ..ir.graph import Graph, Node
from ..ir.tensor import TensorSpec
from . import kernels
from .arena import RunContext, WorkerSlices
from .parallel import get_pool, resolve_num_threads
from .plan import ExecutionError, ExecutionPlan, compile_plan

# Hook signature: (node, output arrays) -> possibly-replaced output arrays.
NodeHook = Callable[[Node, List[np.ndarray]], Optional[List[np.ndarray]]]


class Executor:
    """Executes a graph through its compiled plan.

    Parameters
    ----------
    graph
        The graph to execute; validated and compiled at construction.
    keep_intermediates
        When true, :meth:`run` returns every tensor, not just graph outputs
        (used by the robustness monitors and by debugging tools).  This
        disables early release of dead activations.
    reuse_buffers
        When true, the executor attaches a per-instance scratch arena and
        kernel workspace to the plan and routes all activation storage
        through them.  Incompatible with ``keep_intermediates`` (tensors
        kept for the caller can never be recycled).
    plan
        An already-compiled plan to reuse (compiled steps are immutable
        and shareable); the serving engine's worker pool passes the same
        base plan to every worker instead of recompiling the graph.
    prewarm
        With ``reuse_buffers``, pre-populate the scratch arena's free
        pool from the plan's activation shapes so even the first run
        allocates nothing from the heap.
    buffers
        With ``reuse_buffers``, run on this arena and workspace instead
        of fresh ones.  The caller may hand the same pair to several
        executors (the serving engine's worker does, one per batch
        size) as long as only one of them runs at a time.
    num_threads
        Worker threads for plan execution: the plan's dependency-counted
        schedule dispatches independent steps (and row shards of wide
        steps) onto the shared process pool.  ``None`` defers to the
        ``REPRO_NUM_THREADS`` environment default, else 1 (sequential).
        Results are bitwise-identical to sequential execution at any
        thread count.  Runs with per-node hooks registered always take
        the sequential path — hook order is part of their contract.
    """

    def __init__(self, graph: Graph, keep_intermediates: bool = False,
                 reuse_buffers: bool = False,
                 plan: Optional[ExecutionPlan] = None,
                 prewarm: bool = False,
                 num_threads: Optional[int] = None,
                 buffers: Optional[RunContext] = None) -> None:
        if keep_intermediates and reuse_buffers:
            raise ValueError(
                "keep_intermediates and reuse_buffers are mutually "
                "exclusive: kept tensors can never be recycled")
        if buffers is not None and not reuse_buffers:
            raise ValueError("buffers requires reuse_buffers")
        if plan is None:
            plan = compile_plan(graph)
        if reuse_buffers:
            plan = plan.with_buffers(prewarm=prewarm, buffers=buffers)
        self.plan: ExecutionPlan = plan
        self.graph = graph
        self.specs: Dict[str, TensorSpec] = self.plan.specs
        self.keep_intermediates = keep_intermediates
        self.reuse_buffers = reuse_buffers
        self._ctx: Optional[RunContext] = (
            RunContext(plan.arena, plan.workspace) if reuse_buffers else None)
        self._hooks: List[NodeHook] = []
        self.num_threads = resolve_num_threads(num_threads)
        # When recording, each parallel run leaves per-step wall spans in
        # last_timeline (the profiler's raw material for observed
        # concurrency).
        self.record_timeline = False
        self.last_timeline: Optional[List[Dict[str, object]]] = None
        self._worker_spaces: Optional[WorkerSlices] = None
        if self.num_threads > 1:
            if reuse_buffers:
                # Activation buffers genuinely cross threads (produced on
                # one worker, consumed and released on another), so the
                # arena opts into locked shared mode; kernel scratch
                # never crosses threads and stays per-worker.
                self.plan.arena.share()
                self._worker_spaces = WorkerSlices(kernels.Workspace)
            get_pool(ensure=self.num_threads - 1)

    def add_hook(self, hook: NodeHook) -> None:
        """Register a per-node hook, called after each node executes."""
        self._hooks.append(hook)

    def clear_hooks(self) -> None:
        self._hooks.clear()

    # -- feeds ---------------------------------------------------------------

    def _check_feeds(self, feeds: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        env: Dict[str, np.ndarray] = {}
        for spec in self.graph.inputs:
            if spec.name not in feeds:
                raise ExecutionError(f"missing feed for graph input {spec.name!r}")
            value = np.asarray(feeds[spec.name])
            if tuple(value.shape) != spec.shape:
                raise ExecutionError(
                    f"feed {spec.name!r} has shape {value.shape}, "
                    f"expected {spec.shape}"
                )
            env[spec.name] = value.astype(spec.dtype.to_numpy(), copy=False)
        extra = set(feeds) - set(env)
        if extra:
            raise ExecutionError(f"unknown feed tensors: {sorted(extra)}")
        return env

    # -- execution -------------------------------------------------------------

    def run(self, feeds: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Run one inference; returns a dict of output name to array."""
        env = self._check_feeds(feeds)
        env.update(self.graph.initializers)
        if (self.num_threads > 1 and not self._hooks
                and not self.keep_intermediates
                and self.plan.schedule is not None):
            return self._run_parallel(env)
        release = not self.keep_intermediates
        ctx = self._ctx
        # Sequential per-step timeline (same span shape as the parallel
        # path) for tracing/export; one predictable branch per step when
        # disabled, zero allocations.
        timeline: Optional[List[Dict[str, object]]] = (
            [] if self.record_timeline else None)
        clock = time.perf_counter
        t0 = clock() if timeline is not None else 0.0
        for step in self.plan.steps:
            node = step.node
            args = [env[name] for name in node.inputs]
            if timeline is not None:
                step_start = clock()
            try:
                outputs = step.run(args, ctx) if ctx is not None \
                    else step.run(args)
            except ExecutionError:
                raise
            except Exception as exc:
                raise ExecutionError(
                    f"node {node.name!r} ({node.op_type}) failed: {exc}"
                ) from exc
            if timeline is not None:
                timeline.append({
                    "name": node.name, "op": node.op_type,
                    "start": step_start - t0, "end": clock() - t0,
                    "thread": threading.get_ident()})
            for hook in self._hooks:
                replaced = hook(node, outputs)
                if replaced is not None:
                    if ctx is not None:
                        # A hook that substitutes a tensor orphans the
                        # arena original; reclaim it unless the
                        # replacement still aliases its storage.
                        for orig, new in zip(outputs, replaced):
                            if new is not orig and \
                                    not np.may_share_memory(orig, new):
                                ctx.arena.release(orig)
                    outputs = replaced
            for name, value in zip(node.outputs, outputs):
                env[name] = value
            if release:
                for name in step.release:
                    dead = env.pop(name)
                    if ctx is not None:
                        ctx.arena.release(dead)
        if timeline is not None:
            self.last_timeline = timeline
        if self.keep_intermediates:
            return env
        results = {name: env[name] for name in self.graph.output_names}
        if ctx is not None:
            # Outputs escape to the caller; stop tracking them so the
            # arena never hands their storage out again behind the
            # caller's back.  recycle() re-donates them explicitly.
            for value in results.values():
                ctx.arena.detach(value)
        return results

    def _run_parallel(self, env: Dict[str, np.ndarray]
                      ) -> Dict[str, np.ndarray]:
        """Dependency-scheduled execution on the shared worker pool.

        The calling thread always *participates* in the claim loop, so
        the run completes even if every pool worker is busy elsewhere;
        ``num_threads - 1`` helper tasks are invited onto the shared
        pool.  Steps become ready when their dependency count reaches
        zero; wide steps with a :class:`ShardPlan` are expanded into row
        shards writing disjoint views of one preallocated output.  Dead
        activations are released when their per-buffer refcount drops to
        zero — the out-of-order-safe equivalent of the sequential
        release schedule.  Outputs are bitwise-identical to the
        sequential path by construction (same bound kernels; shards
        split only row-independent ops).
        """
        plan = self.plan
        steps = plan.steps
        schedule = plan.schedule
        total = len(steps)
        arena = plan.arena if self._ctx is not None else None
        lock = threading.Lock()
        cond = threading.Condition(lock)
        queue: deque = deque(
            index for index in range(total) if schedule.indegree[index] == 0)
        indegree = list(schedule.indegree)
        refcounts = dict(schedule.refcounts)
        state: Dict[str, object] = {"done": 0, "error": None}
        timeline: Optional[List[Dict[str, object]]] = (
            [] if self.record_timeline else None)
        clock = time.perf_counter
        t0 = clock()

        def _release_locked(name: str) -> None:
            dead = env.pop(name, None)
            if dead is not None and arena is not None:
                arena.release(dead)

        def _complete_locked(index: int, outputs: List[np.ndarray]) -> None:
            node = steps[index].node
            for name, value in zip(node.outputs, outputs):
                env[name] = value
            for name in node.outputs:
                if refcounts.get(name) == 0:
                    _release_locked(name)  # dead on arrival: no consumers
            for name in set(node.inputs):
                count = refcounts.get(name)
                if count is None:
                    continue
                refcounts[name] = count - 1
                if count == 1:
                    _release_locked(name)
            for succ in schedule.successors[index]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    queue.append(succ)
            state["done"] += 1
            cond.notify_all()

        def _fail_locked(node: Node, exc: BaseException) -> None:
            if state["error"] is None:
                state["error"] = (node, exc)
            cond.notify_all()

        def _claim_locked():
            """Pop a work item; expands a shardable step into row-shard
            subtasks (queued at the front so helpers join immediately)
            and hands the first shard to the claimant."""
            if not queue:
                return None
            item = queue.popleft()
            if not isinstance(item, int):
                return item
            step = steps[item]
            args = [env[name] for name in step.node.inputs]
            shard = step.shard
            if shard is not None:
                parts = min(self.num_threads, shard.rows)
                if parts >= 2:
                    out = (arena.alloc(shard.shape, shard.dtype)
                           if arena is not None
                           else np.empty(shard.shape, dtype=shard.dtype))
                    bounds = kernels.shard_bounds(shard.rows, parts)
                    holder = {"index": item, "args": args, "out": out,
                              "shard": shard, "remaining": len(bounds)}
                    for span in reversed(bounds[1:]):
                        queue.appendleft(("shard", holder, span))
                    cond.notify_all()
                    return ("shard", holder, bounds[0])
            return ("step", item, args)

        def _record_locked(node: Node, start: float, end: float,
                           rows=None) -> None:
            if timeline is not None:
                entry = {"name": node.name, "op": node.op_type,
                         "start": start - t0, "end": end - t0,
                         "thread": threading.get_ident()}
                if rows is not None:
                    entry["rows"] = rows
                timeline.append(entry)

        def _execute(item) -> None:
            start = clock()
            if item[0] == "step":
                _, index, args = item
                step = steps[index]
                ctx = (RunContext(plan.arena, self._worker_spaces.get())
                       if self._ctx is not None else None)
                try:
                    outputs = step.run(args, ctx) if ctx is not None \
                        else step.run(args)
                except BaseException as exc:
                    with lock:
                        _fail_locked(step.node, exc)
                    return
                with lock:
                    _record_locked(step.node, start, clock())
                    _complete_locked(index, outputs)
                return
            _, holder, (lo, hi) = item
            shard = holder["shard"]
            node = steps[holder["index"]].node
            workspace = (self._worker_spaces.get()
                         if self._worker_spaces is not None else None)
            try:
                shard.run_shard(holder["args"], holder["out"], lo, hi,
                                workspace=workspace)
            except BaseException as exc:
                with lock:
                    _fail_locked(node, exc)
                return
            with lock:
                _record_locked(node, start, clock(), rows=(lo, hi))
                holder["remaining"] -= 1
                if holder["remaining"] == 0:
                    _complete_locked(holder["index"], [holder["out"]])

        def _participate() -> None:
            while True:
                with lock:
                    while True:
                        if state["error"] is not None \
                                or state["done"] == total:
                            return
                        item = _claim_locked()
                        if item is not None:
                            break
                        cond.wait()
                _execute(item)

        helpers = self.num_threads - 1
        if helpers > 0:
            pool = get_pool(ensure=helpers)
            for _ in range(helpers):
                pool.submit(_participate)
        _participate()
        with lock:
            error = state["error"]
        self.last_timeline = timeline
        if error is not None:
            node, exc = error
            if isinstance(exc, ExecutionError):
                raise exc
            raise ExecutionError(
                f"node {node.name!r} ({node.op_type}) failed: {exc}"
            ) from exc
        results = {name: env[name] for name in self.graph.output_names}
        if arena is not None:
            for value in results.values():
                arena.detach(value)
        return results

    def recycle(self, outputs: Union[Mapping[str, np.ndarray],
                                     Iterable[np.ndarray]]) -> None:
        """Donate finished output arrays back to the scratch arena.

        No-op without ``reuse_buffers``.  After recycling, the arrays
        must no longer be read — their storage will back future runs.
        """
        if self._ctx is None:
            return
        arrays = outputs.values() if isinstance(outputs, Mapping) else outputs
        for array in arrays:
            self._ctx.arena.adopt(array)

    def __call__(self, feeds: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        return self.run(feeds)


def run_graph(graph: Graph, feeds: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """One-shot convenience wrapper around :class:`Executor`."""
    return Executor(graph).run(feeds)
