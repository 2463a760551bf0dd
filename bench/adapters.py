"""The one seam between the benchmark and ``repro``.

Every call into the program lives here and passes only arguments that
have no default (plus ``replicas=1`` and ``cache_dir``): the benchmark
measures the default-configured public API, and the knobs the ROADMAP
lists for audit or deletion (``adaptive``, ``num_threads``, ``shm=False``,
``plan_layout``, ``max_latency_ms``) can disappear without touching any
other file of the benchmark.  :func:`start_slo_probe_engine` is the one
exception and says so.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.ir import GraphBuilder, build_model
from repro.optim import quantize_int8, specialize_graph
from repro.runtime import (
    Executor,
    PlanCache,
    Profiler,
    compile_plan,
    load_or_build,
    run_graph,
)
from repro.serving import (
    BatchQueue,
    InferenceEngine,
    InferenceRequest,
    ReplicaEngine,
    RequestShedError,
    ShmChannel,
    TierSaturatedError,
)
from repro.serving.replicas import (
    decode_tensors,
    encode_tensors,
    pack_tensor_frame,
)
from repro.serving.shm import layout_tensors, read_tensors, write_tensors
from repro.telemetry import Tracer, render_prometheus

# What a front end raises (or sets on a future) to refuse a request.
REFUSALS = (TierSaturatedError, RequestShedError)

Feeds = Dict[str, np.ndarray]


# -- ir / optim -------------------------------------------------------------

def _frame_pool_net():
    """A model whose compute is negligible next to its 192 KiB input, so
    the tier's data plane is what a request pays for."""
    b = GraphBuilder("frame_pool_net")
    x = b.input("input", (1, 3, 128, 128))
    x = b.avgpool2d(x, 8)
    x = b.flatten(x)
    x = b.dense(x, 10)
    return b.finish(b.softmax(x))


_MODELS = {
    "mlp": lambda: build_model("mlp"),
    "tiny_yolo": lambda: build_model("tiny_yolo"),
    "tiny_convnet64": lambda: build_model("tiny_convnet", image_size=64),
    "frame_pool_net": _frame_pool_net,
}


def build_graph(model: str):
    return _MODELS[model]()


def quantize(graph, calibration_feeds: List[Feeds]):
    return quantize_int8(graph, calibration_feeds)


def specialize(graph):
    return specialize_graph(graph)


def input_specs(graph) -> List[Tuple[str, Tuple[int, ...], np.dtype]]:
    """(name, single-sample shape, numpy dtype) of each graph input."""
    return [(spec.name, tuple(spec.shape), np.dtype(spec.dtype.to_numpy()))
            for spec in graph.with_batch(1).inputs]


def tensor_bytes(graph) -> Dict[str, int]:
    """Bytes of every tensor in the graph, from its specs (computed, not
    measured)."""
    return {name: int(np.prod(spec.shape, dtype=np.int64))
            * np.dtype(spec.dtype.to_numpy()).itemsize
            for name, spec in graph.infer_specs().items()}


def node_io(graph) -> List[Tuple[str, List[str], List[str]]]:
    return [(node.op_type, list(node.inputs), list(node.outputs))
            for node in graph.nodes]


def reference(graph, feeds: Feeds) -> Feeds:
    """The oracle: unplanned reference execution at batch 1."""
    return run_graph(graph.with_batch(1), feeds)


# -- runtime ----------------------------------------------------------------

def compile_for_batch(graph, batch: int):
    return compile_plan(graph.with_batch(batch))


def cache_load_or_build(graph, cache_dir: str):
    """One ``load_or_build`` against ``cache_dir``; returns (from_cache,
    bytes of the entries now in the directory)."""
    cache = PlanCache(cache_dir)
    model = load_or_build(graph, cache=cache)
    return model.from_cache, sum(int(e["bytes"]) for e in cache.entries())


def make_executor(graph, batch: int) -> Executor:
    """A warmed-path executor as the engines build it: scratch arena on."""
    return Executor(graph.with_batch(batch), reuse_buffers=True)


def executor_run(executor: Executor, feeds: Feeds) -> None:
    executor.recycle(executor.run(feeds))


def executor_step_times(executor: Executor, feeds: Feeds
                        ) -> Tuple[float, float, int]:
    """One run with the executor's public per-step timeline on: (wall
    seconds, seconds inside the steps' kernels, step count)."""
    executor.record_timeline = True
    try:
        start = time.perf_counter()
        outputs = executor.run(feeds)
        wall = time.perf_counter() - start
    finally:
        executor.record_timeline = False
    executor.recycle(outputs)
    timeline = executor.last_timeline
    inside = sum(entry["end"] - entry["start"] for entry in timeline)
    return wall, inside, len(timeline)


def profile_by_op(graph, batch: int, feeds: Feeds, runs: int
                  ) -> Tuple[Dict[str, float], float, float]:
    """Public ``Profiler`` at ``batch``: (op type -> mean seconds per
    run, GFLOP of the ops that have a cost model per run, mean seconds
    per run those ops took)."""
    result = Profiler(graph.with_batch(batch)).profile(feeds, runs=runs)
    by_op = {op: total / result.runs
             for op, total in result.by_op_type().items()}
    modelled = [layer for layer in result.layers if layer.macs]
    gflop = sum(2.0 * layer.macs for layer in modelled) / 1e9
    seconds = sum(layer.total_seconds for layer in modelled) / result.runs
    return by_op, gflop, seconds


# -- serving.batcher --------------------------------------------------------

def make_batch_queue() -> BatchQueue:
    return BatchQueue()


def make_request(feeds: Feeds) -> InferenceRequest:
    return InferenceRequest(feeds)


# -- serving front ends -----------------------------------------------------

def make_tracer() -> Tracer:
    return Tracer(sample_rate=1.0)


def start_engine(graph, tracer: Optional[Tracer] = None) -> InferenceEngine:
    if tracer is None:
        return InferenceEngine(graph)
    return InferenceEngine(graph, tracer=tracer)


def start_tier(graph, cache_dir: str,
               tracer: Optional[Tracer] = None) -> ReplicaEngine:
    if tracer is None:
        return ReplicaEngine(graph, replicas=1, cache_dir=cache_dir)
    return ReplicaEngine(graph, replicas=1, cache_dir=cache_dir,
                         tracer=tracer)


def start_slo_probe_engine(graph) -> Optional[InferenceEngine]:
    """The one non-default construction in the benchmark: the adaptive
    SLO batcher, probed but never gated on.  None when the constructor
    no longer takes these arguments."""
    try:
        return InferenceEngine(graph, adaptive=True, default_slo_ms=10)
    except TypeError:
        return None


def counters(front) -> Dict[str, float]:
    """Cumulative counters of a live front end, flat; phases difference
    two of these.  Tier-only keys are absent on the in-process engine."""
    snap = front.metrics()
    out = {
        "requests": snap.requests,
        "batches": snap.batches,
        "failures": snap.failures,
        "shed": snap.shed,
        "slo_misses": snap.slo_misses,
        "arena_allocations": snap.arena_allocations,
        "arena_reuses": snap.arena_reuses,
    }
    if isinstance(front, ReplicaEngine):
        stats = front.replica_stats()
        out.update(
            arena_allocations=sum(s.child_arena_allocations for s in stats),
            arena_reuses=sum(s.child_arena_reuses for s in stats),
            shm_requests=front.shm_requests,
            shm_fallbacks=front.shm_fallbacks,
            restarts=front.restarts,
            refused=front.shed_requests,
        )
    return out


def child_pids(front) -> List[int]:
    if not isinstance(front, ReplicaEngine):
        return []
    return [s.pid for s in front.replica_stats() if s.pid is not None]


def shm_segment_names(front) -> List[str]:
    if not isinstance(front, ReplicaEngine):
        return []
    return front.shm_segment_names()


def phase_durations_ms(tracer: Tracer) -> Dict[str, List[float]]:
    """Phase name -> one duration per finished trace in the tracer's
    ring (it keeps the most recent requests).  ``total`` is the tracer's
    own request span."""
    columns: Dict[str, List[float]] = {}
    for trace in tracer.traces():
        for name, value in trace.phase_durations_ms().items():
            columns.setdefault(name, []).append(value)
    return columns


def scrape() -> int:
    """One Prometheus scrape of the live process-wide registry; returns
    the exposition's length so the work cannot be skipped."""
    return len(render_prometheus())


# -- serving.shm / wire codec -----------------------------------------------

class ShmSlot:
    """One request-ring slot of a real ``ShmChannel`` sized for
    ``arrays``; ``close`` retires the channel."""

    def __init__(self, arrays: Mapping[str, np.ndarray]) -> None:
        self.arrays = dict(arrays)
        self.descs, total = layout_tensors(self.arrays)
        self.channel = ShmChannel(1, total, total, 1)
        self.view = self.channel.request_ring.slot_view(0)

    def write(self) -> None:
        descs, _ = layout_tensors(self.arrays)
        write_tensors(self.view, self.arrays, descs)

    def read(self) -> int:
        return len(read_tensors(self.view, self.descs))

    def segment_names(self) -> Tuple[str, str]:
        return self.channel.segment_names()

    def close(self) -> None:
        self.view.release()
        self.channel.retire()


def wire_pack(arrays: Mapping[str, np.ndarray]) -> bytearray:
    return pack_tensor_frame(1, 0, (0, 0, 0, 0, 0), arrays)


def wire_payload_offset(arrays: Mapping[str, np.ndarray],
                        frame: bytearray) -> int:
    """Where the tensor table starts inside a packed frame."""
    return len(frame) - len(encode_tensors(arrays))


def wire_decode(frame: bytearray, offset: int) -> int:
    return len(decode_tensors(memoryview(frame)[offset:]))
