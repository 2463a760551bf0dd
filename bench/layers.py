"""Per-layer measurements taken from outside: the benchmark times calls
into each layer's public functions, one span per call, with no engine
in the way.  Nothing here is gated; these numbers say *where* an
end-to-end change came from."""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from . import adapters, host, stats
from .loadgen import Feeds
from .metrics import KERNEL_GROUPS
from .spans import SpanRecorder
from .workloads import Workload

# Requests pushed through a bare BatchQueue.
QUEUE_REQUESTS = 20_000


def _timed(spans: SpanRecorder, parent: int, name: str,
           call: Callable[[], object], repeats: int):
    """Median seconds of ``repeats`` calls, each under its own span;
    also returns the last call's result."""
    seconds: List[float] = []
    result = None
    for _ in range(repeats):
        with spans.span(name, parent) as span_id:
            result = call()
        seconds.append(spans.duration(span_id))
    return stats.median(seconds), result


def _steady_ms(spans: SpanRecorder, parent: int, name: str,
               call: Callable[[], object], budget_s: float) -> float:
    """Median milliseconds of a warmed call repeated for ``budget_s``
    (at least five times); one span covers the whole loop."""
    for _ in range(3):
        call()
    samples: List[float] = []
    with spans.span(name, parent):
        end = time.perf_counter() + budget_s
        while len(samples) < 5 or time.perf_counter() < end:
            start = time.perf_counter()
            call()
            samples.append(time.perf_counter() - start)
    return stats.median(samples) * 1e3


def _stack(inputs: List[Feeds], batch: int) -> Feeds:
    return {name: np.concatenate([inputs[i % len(inputs)][name]
                                  for i in range(batch)])
            for name in inputs[0]}


def measure(workload: Workload, inputs: List[Feeds], spans: SpanRecorder,
            scratch_dir: str, budget_s: float, peaks_budget_s: float
            ) -> Dict[str, Optional[float]]:
    """Every per-layer metric that needs no running front end.
    ``budget_s`` bounds each steady-state timing loop and
    ``peaks_budget_s`` the host-peak microbenchmarks."""
    out: Dict[str, Optional[float]] = {}
    with spans.span("layers") as root:
        _model_layers(workload, inputs, spans, root, scratch_dir,
                      budget_s, peaks_budget_s, out)
        _batcher(inputs, spans, root, out)
        _data_plane(inputs, spans, root, budget_s, out)
    return out


def _model_layers(workload, inputs, spans, root, scratch_dir, budget_s,
                  peaks_budget_s, out) -> None:
    out["ir.build_s"], graph = _timed(
        spans, root, "ir.build",
        lambda: adapters.build_graph(workload.model), 5)
    out["optim.quantize_s"] = None
    if workload.int8:
        float_graph = graph
        out["optim.quantize_s"], graph = _timed(
            spans, root, "optim.quantize",
            lambda: adapters.quantize(float_graph, inputs[:4]), 3)
    out["optim.specialize_s"], _ = _timed(
        spans, root, "optim.specialize",
        lambda: adapters.specialize(graph), 3)
    for batch in (1, 8):
        out[f"plan.compile_b{batch}_s"], _ = _timed(
            spans, root, f"plan.compile_b{batch}",
            lambda: adapters.compile_for_batch(graph, batch), 3)

    cold: List[float] = []
    warm: List[float] = []
    for _ in range(3):
        cache_dir = tempfile.mkdtemp(dir=scratch_dir)
        try:
            seconds, (hit, _) = _timed(
                spans, root, "plan_cache.cold_build",
                lambda: adapters.cache_load_or_build(graph, cache_dir), 1)
            cold.append(seconds)
            seconds, (hit_again, size) = _timed(
                spans, root, "plan_cache.warm_load",
                lambda: adapters.cache_load_or_build(graph, cache_dir), 1)
            warm.append(seconds)
            if hit or not hit_again:
                raise RuntimeError("plan cache did not miss then hit")
            out["plan_cache.entry_bytes"] = float(size)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
    out["plan_cache.cold_build_s"] = stats.median(cold)
    out["plan_cache.warm_load_s"] = stats.median(warm)

    feeds = {1: inputs[0], 8: _stack(inputs, 8)}
    executors = {b: adapters.make_executor(graph, b) for b in (1, 8)}
    for batch in (1, 8):
        out[f"executor.run_b{batch}_ms"] = _steady_ms(
            spans, root, f"executor.run_b{batch}",
            lambda: adapters.executor_run(executors[batch], feeds[batch]),
            budget_s)
    overheads = []
    with spans.span("executor.step_times", root):
        for _ in range(15):
            wall, inside, steps = adapters.executor_step_times(
                executors[1], feeds[1])
            overheads.append((wall - inside) / steps)
    out["executor.step_overhead_us"] = stats.median(overheads) * 1e6

    runs = max(3, min(50, int(budget_s * 1e3
                              / max(out["executor.run_b1_ms"], 0.02))))
    with spans.span("kernels.profile_b1", root):
        by_op, _, _ = adapters.profile_by_op(graph, 1, feeds[1], runs)
    for metric, ops in KERNEL_GROUPS.items():
        out[metric] = sum(by_op.get(op, 0.0) for op in ops) * 1e3
    runs8 = max(2, min(20, int(budget_s * 1e3
                               / max(out["executor.run_b8_ms"], 0.02))))
    with spans.span("kernels.profile_b8", root):
        _, gflop, seconds = adapters.profile_by_op(graph, 8, feeds[8],
                                                  runs8)
    with spans.span("host.peaks", root):
        peaks = host.peaks(peaks_budget_s)
    out.update(peaks)
    out["kernels.gflops_b8"] = gflop / seconds if seconds else 0.0
    # The int8 kernels accumulate exactly in float64 GEMMs.
    peak = peaks["host.dgemm_gflops" if workload.int8
                 else "host.sgemm_gflops"]
    out["kernels.peak_share_b8"] = out["kernels.gflops_b8"] / peak
    sizes = adapters.tensor_bytes(graph)
    # Computed from tensor sizes, not measured: every node reads its
    # inputs (weights included) and writes its outputs once.
    out["kernels.bytes_moved_mb_b1"] = sum(
        sizes[name] for _, ins, outs in adapters.node_io(graph)
        for name in ins + outs) / 1e6


def _batcher(inputs, spans, root, out) -> None:
    """A bare BatchQueue: submit everything, then pop it all back."""
    queue = adapters.make_batch_queue()
    requests = [adapters.make_request(inputs[0])
                for _ in range(QUEUE_REQUESTS)]
    with spans.span("batcher.submit", root) as span_id:
        for request in requests:
            queue.submit(request)
    out["batcher.submit_us"] = \
        spans.duration(span_id) / QUEUE_REQUESTS * 1e6
    popped = 0
    with spans.span("batcher.next_batch", root) as span_id:
        while popped < QUEUE_REQUESTS:
            popped += len(queue.next_batch())
    out["batcher.next_batch_us"] = \
        spans.duration(span_id) / QUEUE_REQUESTS * 1e6
    queue.close()


def _data_plane(inputs, spans, root, budget_s, out) -> None:
    """The batch-8 payload through a real shm slot and through the pipe
    codec the tier falls back to."""
    payload = _stack(inputs, 8)
    nbytes = sum(array.nbytes for array in payload.values())
    slot = adapters.ShmSlot(payload)
    names = slot.segment_names()
    try:
        write_ms = _steady_ms(spans, root, "shm.write_b8", slot.write,
                              budget_s / 2)
        read_ms = _steady_ms(spans, root, "shm.read_b8", slot.read,
                             budget_s / 2)
    finally:
        slot.close()
    out["shm.write_us_b8"] = write_ms * 1e3
    out["shm.read_us_b8"] = read_ms * 1e3
    out["shm.gbps"] = nbytes / (write_ms / 1e3) / 1e9
    out["shm.leaked_segments"] = float(sum(
        os.path.exists(os.path.join("/dev/shm", name)) for name in names))
    out["wire.pack_us_b8"] = _steady_ms(
        spans, root, "wire.pack_b8",
        lambda: adapters.wire_pack(payload), budget_s / 2) * 1e3
    frame = adapters.wire_pack(payload)
    offset = adapters.wire_payload_offset(payload, frame)
    out["wire.decode_us_b8"] = _steady_ms(
        spans, root, "wire.decode_b8",
        lambda: adapters.wire_decode(frame, offset), budget_s / 2) * 1e3
