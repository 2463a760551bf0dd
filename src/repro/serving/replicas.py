"""Multi-process replica serving tier: break the GIL ceiling.

``BENCH_pr4.json`` showed intra-process threading *losing* throughput
(0.87-0.93x at 2-8 threads): the numpy hot paths are GIL/cache-bound, so
more threads in one interpreter cannot deliver multi-core scale.  This
module moves the parallelism across *processes* instead — the VEDLIoT
premise applied to the host: match the execution substrate to the
workload rather than adding threads.

Architecture
------------

* **Replica processes.**  ``N`` executor processes, each owning its own
  compiled plans and one scratch arena and kernel workspace that every
  batch size's plan runs on — no shared Python state, no GIL
  contention, private caches.  A replica is a tight loop:
  receive a batch frame, run the plan, send the results back.

* **Zero-copy shared weights.**  Replicas never receive weights over the
  wire.  The front-end pre-warms the persistent plan cache
  (:mod:`repro.runtime.plan_cache`) for every batch size the tier can
  form, and each replica ``np.memmap``-s the entry's 64-byte-aligned
  ``weights.bin`` blob read-only.  File-backed read-only pages are
  physically shared by the OS, so *N* replicas reference **one**
  resident copy of the weights — the cache's flat-blob layout was built
  for exactly this.

* **Front-end routing with admission control and backpressure.**  The
  parent keeps the existing :class:`~repro.serving.batcher.BatchQueue`
  micro-batching; the dispatcher routes each assembled batch to the
  least-loaded live replica, bounded by ``max_inflight`` outstanding
  batches per replica.  When every replica is saturated the dispatcher
  blocks (backpressure into the queue), and once the queue itself holds
  ``queue_limit`` requests, new submissions are *shed* with a typed
  :class:`TierSaturatedError` instead of growing an unbounded backlog.

* **Lifecycle.**  Replicas are spawned (``spawn`` start method: safe
  with the parent's threads), health-checked via a READY handshake, and
  restarted on crash: a dead replica's in-flight requests fail with
  :class:`ReplicaCrashError`, its queue is re-routed to survivors, and a
  replacement process is spawned (up to ``restart_limit`` times).

* **Zero-copy data plane.**  With shared memory enabled (the default;
  ``REPRO_REPLICA_SHM=0`` or ``shm=False`` disables), tensor payloads
  never cross the pipe at all: the parent writes each batch **once**
  into a 64-byte-aligned slot of the replica's request ring
  (:mod:`repro.serving.shm`), sends a tiny control frame (slot index,
  ring generation, descriptor table), and the replica executes straight
  out of read-only views of the mapped slot, writing outputs into the
  paired response-ring slot the parent reads zero-copy.  Slot
  availability *is* the ``max_inflight`` bound, rings are retired
  (unlinked) whole on crash so a restarted replica serves from a fresh
  generation, and anything that does not fit a slot falls back
  per-frame to the pipe codec below — bitwise-identical either way.

* **Serialization.**  Pipe-borne requests and results (the shm-off
  path, and the per-frame fallback) cross as compact binary frames
  (:func:`pack_tensor_frame` / :func:`decode_tensors`): raw C-order
  bytes plus dtype/shape headers, no pickle on the hot path, assembled
  with a single allocation (headers packed in place, payloads
  ``np.copyto``-ed into views of one ``bytearray``), bitwise-exact
  round-trips by construction.

* **Telemetry.**  Each response frame piggybacks the replica's local
  counters (requests, batches, failures, arena traffic) — a few ints,
  effectively free — and the front-end registers with
  :mod:`repro.telemetry.collectors`, so one registry scrape shows the
  whole tier as ``repro_replica_*`` series labeled by replica index.

* **Distributed tracing.**  With a :class:`Tracer` attached, sampled
  requests carry a :class:`TierRequestTrace` whose phases decompose the
  tier pipeline (queue wait / slot wait / assembly / dispatch /
  finalize).  The dispatch frame of a traced batch grows an optional
  trailing trace-context block; the replica answers with its per-step
  executor timeline piggybacked on the result frame, and the parent
  merges those spans — aligned onto its own ``perf_counter`` axis via
  the spawn-time clock handshake (:mod:`repro.telemetry.clock`, min-RTT
  midpoint, periodically resynced over the same pipe) and clamped into
  the batch's dispatch window — under the request's ``dispatch`` phase.
  Untraced batches carry zero extra bytes and the replica takes the
  exact pre-existing path.

* **Flight recorder.**  The tier feeds the always-on bounded event ring
  (:mod:`repro.telemetry.flightrec`): admissions, sheds, batch
  compositions, slot waits, SLO misses, generation retirements,
  restarts, breaker trips.  The ring auto-dumps (versioned JSON +
  Chrome trace) on a replica crash-restart or a breaker-open
  transition, so the moments before an incident are always on disk.

The front-end mirrors :class:`repro.serving.engine.InferenceEngine`'s
surface (``infer`` / ``infer_sync`` / ``infer_many`` / ``metrics`` /
``close``), so serve-bench and client code treat both tiers uniformly.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..ir.graph import Graph
from ..runtime.arena import ArenaStats
from ..runtime.executor import Executor
from ..runtime.plan import fresh_buffers
from ..runtime.plan_cache import PlanCache, default_cache_dir, load_or_build
from ..telemetry import collectors as _telemetry
from ..telemetry.clock import (
    DEFAULT_HANDSHAKE_PROBES,
    DEFAULT_RESYNC_S,
    ClockSync,
)
from ..telemetry.flightrec import FlightRecorder, get_flight_recorder
from ..telemetry.registry import get_registry, log_buckets
from ..telemetry.tracing import RequestTrace, Span, Tracer
from .batcher import (
    BatchQueue,
    InferenceRequest,
    QueueClosedError,
    RequestShedError,
)
from .engine import EngineClosedError, ShedPolicy, check_sample
from .latency_model import BatchLatencyModel, model_path
from .metrics import MetricsRecorder, MetricsSnapshot
from .shm import (
    ShmAttachment,
    ShmChannel,
    ShmRingSpec,
    layout_tensors,
    pack_descriptors,
    read_tensors,
    required_slot_bytes,
    shm_available,
    unpack_descriptors,
    write_tensors,
)

logger = logging.getLogger("repro.serving")


class TierSaturatedError(RuntimeError):
    """Raised when the tier sheds a request because its queue is full.

    The typed signal of the admission controller: the caller can retry
    with backoff, divert to another tier, or degrade — anything but
    silently growing an unbounded backlog.
    """


class ReplicaError(RuntimeError):
    """A replica reported a failure executing a batch (remote error)."""


class ReplicaCrashError(RuntimeError):
    """A replica process died with requests in flight."""


class ReplicaProtocolError(RuntimeError):
    """A malformed frame crossed the replica pipe."""


# -- wire format ------------------------------------------------------------
#
# Every frame is:   header | stats | payload
#   header  !4sBQ   magic, kind, request id
#   stats   !5Q     replica-local counters piggybacked on every frame:
#                   requests, batches, failures, arena allocations,
#                   arena reuses (zeros on frames the parent sends)
#   payload         kind-specific (tensors for REQUEST/RESULT, a typed
#                   message for ERROR, empty for READY/SHUTDOWN; for
#                   SHM_REQUEST/SHM_RESULT a !II slot-index/generation
#                   pair plus a tensor descriptor table — the payload
#                   bytes themselves live in the shared-memory rings)

_MAGIC = b"RPRT"
_KIND_REQUEST = 1
_KIND_RESULT = 2
_KIND_ERROR = 3
_KIND_READY = 4
_KIND_SHUTDOWN = 5
_KIND_SHM_REQUEST = 6
_KIND_SHM_RESULT = 7
# Clock probe: the replica answers with its perf_counter reading; the
# parent brackets the round trip to estimate the clock-domain offset
# (spawn-time handshake + periodic resync, see telemetry.clock).
_KIND_CLOCK = 8

_SHM_SLOT = struct.Struct("!II")

_HEADER = struct.Struct("!4sBQ")
_STATS = struct.Struct("!5Q")
_U8 = struct.Struct("!B")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")
_F64 = struct.Struct("!d")

_ZERO_STATS = (0, 0, 0, 0, 0)

# Optional trailing blocks.  Both tensor codecs are self-delimiting
# (decode consumes exactly what encode produced), so a traced frame can
# append a magic-tagged block after the regular payload without
# changing the wire format untraced frames use — old and new payloads
# are byte-identical when tracing is off.
#
#   trace context  !2sQ     b"Tc", trace id — appended to a dispatched
#                           batch frame to ask the replica for spans
#   span block     !2sQddd  b"Sp", trace id, frame-received /
#                           execute-start / execute-end perf_counter
#                           readings in the *replica's* clock domain,
#                           then a !I count of per-step entries
#   span entry     !ddQHH   step start/end (seconds relative to
#                           execute-start), thread ident, name/op byte
#                           lengths, followed by the name and op bytes
_TRACE_CTX = struct.Struct("!2sQ")
_TRACE_CTX_MAGIC = b"Tc"
_SPAN_HEADER = struct.Struct("!2sQddd")
_SPAN_MAGIC = b"Sp"
_SPAN_ENTRY = struct.Struct("!ddQHH")


def encode_tensors(arrays: Mapping[str, np.ndarray]) -> bytes:
    """Encode named arrays as one compact binary payload.

    Raw C-order bytes plus name/dtype/shape headers — no pickle, and a
    bitwise-exact round-trip through :func:`decode_tensors` for every
    dtype the runtime uses (fp32/fp16/int8/int32/uint8/bool).
    """
    parts: List[bytes] = [_U32.pack(len(arrays))]
    for name in sorted(arrays):
        array = np.asarray(arrays[name])
        name_bytes = name.encode("utf-8")
        dtype_bytes = array.dtype.str.encode("ascii")
        parts.append(_U16.pack(len(name_bytes)))
        parts.append(name_bytes)
        parts.append(_U16.pack(len(dtype_bytes)))
        parts.append(dtype_bytes)
        parts.append(_U8.pack(array.ndim))
        parts.append(struct.pack(f"!{array.ndim}Q", *array.shape))
        parts.append(_U64.pack(array.nbytes))
        parts.append(array.tobytes())
    return b"".join(parts)


def decode_tensors(payload) -> Dict[str, np.ndarray]:
    """Decode :func:`encode_tensors` output.

    The returned arrays are read-only views over ``payload`` (no copy);
    consumers that need ownership copy the slices they keep — both the
    replica executor (inputs are never written) and the front-end's
    per-request result split already satisfy that.
    """
    return _decode_tensors(payload)[0]


def _decode_tensors(payload) -> Tuple[Dict[str, np.ndarray], int]:
    """Decode plus the bytes consumed, so callers can find a trailing
    trace block appended after the tensor table."""
    view = memoryview(payload)
    offset = 0
    (count,) = _U32.unpack_from(view, offset)
    offset += _U32.size
    arrays: Dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = _U16.unpack_from(view, offset)
        offset += _U16.size
        name = bytes(view[offset:offset + name_len]).decode("utf-8")
        offset += name_len
        (dtype_len,) = _U16.unpack_from(view, offset)
        offset += _U16.size
        dtype = np.dtype(bytes(view[offset:offset + dtype_len])
                         .decode("ascii"))
        offset += dtype_len
        (ndim,) = _U8.unpack_from(view, offset)
        offset += _U8.size
        shape = struct.unpack_from(f"!{ndim}Q", view, offset)
        offset += ndim * _U64.size
        (nbytes,) = _U64.unpack_from(view, offset)
        offset += _U64.size
        data = view[offset:offset + nbytes]
        if len(data) != nbytes:
            raise ReplicaProtocolError("truncated tensor payload")
        offset += nbytes
        arrays[name] = np.frombuffer(data, dtype=dtype).reshape(shape)
    return arrays, offset


def pack_tensor_frame(kind: int, request_id: int,
                      stats: Tuple[int, ...],
                      arrays: Mapping[str, np.ndarray]) -> bytearray:
    """Assemble a complete tensor frame in **one** allocation.

    Wire-compatible with ``_pack_frame(kind, id, stats,
    encode_tensors(arrays))`` — same bytes — but where that path
    materializes every array via ``tobytes()``, joins the parts, and
    concatenates the header (three traversals of the payload), this
    packs headers in place and ``np.copyto``-s each tensor directly
    into a view of the final ``bytearray``: exactly one pass over the
    payload bytes, and no intermediate the allocator has to find room
    for next to the result.  ``Connection.send_bytes`` accepts the
    bytearray as-is.
    """
    names = sorted(arrays)
    metas = []
    total = _HEADER.size + _STATS.size + _U32.size
    for name in names:
        array = np.asarray(arrays[name])
        name_bytes = name.encode("utf-8")
        dtype_bytes = array.dtype.str.encode("ascii")
        metas.append((array, name_bytes, dtype_bytes))
        total += (_U16.size + len(name_bytes) + _U16.size
                  + len(dtype_bytes) + _U8.size + array.ndim * _U64.size
                  + _U64.size + array.nbytes)
    frame = bytearray(total)
    _HEADER.pack_into(frame, 0, _MAGIC, kind, request_id)
    _STATS.pack_into(frame, _HEADER.size, *stats)
    offset = _HEADER.size + _STATS.size
    _U32.pack_into(frame, offset, len(metas))
    offset += _U32.size
    for array, name_bytes, dtype_bytes in metas:
        _U16.pack_into(frame, offset, len(name_bytes))
        offset += _U16.size
        frame[offset:offset + len(name_bytes)] = name_bytes
        offset += len(name_bytes)
        _U16.pack_into(frame, offset, len(dtype_bytes))
        offset += _U16.size
        frame[offset:offset + len(dtype_bytes)] = dtype_bytes
        offset += len(dtype_bytes)
        _U8.pack_into(frame, offset, array.ndim)
        offset += _U8.size
        struct.pack_into(f"!{array.ndim}Q", frame, offset, *array.shape)
        offset += array.ndim * _U64.size
        _U64.pack_into(frame, offset, array.nbytes)
        offset += _U64.size
        target = np.frombuffer(frame, dtype=array.dtype,
                               count=array.size,
                               offset=offset).reshape(array.shape)
        np.copyto(target, array, casting="no")
        offset += array.nbytes
    return frame


def _pack_frame(kind: int, request_id: int,
                stats: Tuple[int, ...] = _ZERO_STATS,
                payload: bytes = b"") -> bytes:
    return _HEADER.pack(_MAGIC, kind, request_id) + _STATS.pack(*stats) \
        + payload


def _unpack_frame(frame: bytes):
    if len(frame) < _HEADER.size + _STATS.size:
        raise ReplicaProtocolError("short frame")
    magic, kind, request_id = _HEADER.unpack_from(frame, 0)
    if magic != _MAGIC:
        raise ReplicaProtocolError(f"bad frame magic {magic!r}")
    stats = _STATS.unpack_from(frame, _HEADER.size)
    payload = memoryview(frame)[_HEADER.size + _STATS.size:]
    return kind, request_id, stats, payload


def _pack_error(request_id: int, stats: Tuple[int, ...],
                exc: BaseException) -> bytes:
    kind_bytes = type(exc).__name__.encode("utf-8")
    message_bytes = str(exc).encode("utf-8", errors="replace")
    payload = (_U32.pack(len(kind_bytes)) + kind_bytes
               + _U32.pack(len(message_bytes)) + message_bytes)
    return _pack_frame(_KIND_ERROR, request_id, stats, payload)


def _unpack_error(payload) -> Tuple[str, str]:
    view = memoryview(payload)
    (kind_len,) = _U32.unpack_from(view, 0)
    offset = _U32.size
    kind = bytes(view[offset:offset + kind_len]).decode("utf-8")
    offset += kind_len
    (message_len,) = _U32.unpack_from(view, offset)
    offset += _U32.size
    message = bytes(view[offset:offset + message_len]).decode("utf-8")
    return kind, message


def _unpack_trace_ctx(rest) -> Optional[int]:
    """Trace id from a request frame's trailing context block, or None
    (untraced frames simply end where the tensor payload ends)."""
    if len(rest) < _TRACE_CTX.size:
        return None
    magic, trace_id = _TRACE_CTX.unpack_from(rest, 0)
    if magic != _TRACE_CTX_MAGIC:
        return None
    return trace_id


def _pack_span_block(trace_id: int, recv_t: float, exec_start: float,
                     exec_end: float,
                     timeline: Sequence[Mapping[str, object]]) -> bytes:
    """The replica's span payload: batch landmarks + per-step entries,
    all in the replica's own perf_counter domain (steps relative to
    ``exec_start``, exactly as the executor timeline records them)."""
    parts: List[bytes] = [
        _SPAN_HEADER.pack(_SPAN_MAGIC, trace_id, recv_t, exec_start,
                          exec_end),
        _U32.pack(len(timeline)),
    ]
    for entry in timeline:
        name_bytes = str(entry["name"]).encode("utf-8")
        op_bytes = str(entry.get("op", "step")).encode("utf-8")
        parts.append(_SPAN_ENTRY.pack(
            float(entry["start"]), float(entry["end"]),
            int(entry.get("thread", 0)) & 0xFFFFFFFFFFFFFFFF,
            len(name_bytes), len(op_bytes)))
        parts.append(name_bytes)
        parts.append(op_bytes)
    return b"".join(parts)


def _unpack_span_block(rest):
    """Inverse of :func:`_pack_span_block`; None when ``rest`` holds no
    span block (untraced result frames end at the tensor payload)."""
    if len(rest) < _SPAN_HEADER.size:
        return None
    magic, trace_id, recv_t, exec_start, exec_end = \
        _SPAN_HEADER.unpack_from(rest, 0)
    if magic != _SPAN_MAGIC:
        return None
    offset = _SPAN_HEADER.size
    (count,) = _U32.unpack_from(rest, offset)
    offset += _U32.size
    steps: List[Dict[str, object]] = []
    for _ in range(count):
        start, end, thread, name_len, op_len = \
            _SPAN_ENTRY.unpack_from(rest, offset)
        offset += _SPAN_ENTRY.size
        name = bytes(rest[offset:offset + name_len]).decode("utf-8")
        offset += name_len
        op = bytes(rest[offset:offset + op_len]).decode("utf-8")
        offset += op_len
        steps.append({"name": name, "op": op, "start": start,
                      "end": end, "thread": thread})
    return trace_id, recv_t, exec_start, exec_end, steps


# -- replica process --------------------------------------------------------


@dataclass
class ReplicaSpec:
    """Everything a replica process needs to serve (picklable).

    Weights travel as a plan-cache directory plus per-batch-size keys —
    never over the pipe; each replica memmaps the shared blob read-only.
    """

    index: int
    cache_dir: str
    keys: Dict[int, str]
    reuse_buffers: bool = True
    num_threads: int = 1
    prewarm_batches: Tuple[int, ...] = ()
    # Shared-memory ring pair to attach (None: pipe codec only).  The
    # generation inside ties every control frame to this spawn's rings.
    shm: Optional[ShmRingSpec] = None


def _replica_main(conn, spec: ReplicaSpec) -> None:
    """One replica process: load mmap-shared plans, serve batch frames."""
    import signal

    # The parent coordinates shutdown over the pipe; a ^C delivered to
    # the whole process group must not kill replicas mid-frame.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):          # non-main thread / platform
        pass

    requests = batches = failures = 0
    cache = PlanCache(spec.cache_dir)
    # One memory set for the whole replica: every batch size's executor
    # runs on it (one frame at a time), so the footprint is that of the
    # largest batch seen, not the sum over sizes.
    buffers = fresh_buffers() if spec.reuse_buffers else None
    executors: Dict[int, Executor] = {}

    def _executor_for(batch: int) -> Executor:
        executor = executors.get(batch)
        if executor is None:
            key = spec.keys.get(batch)
            if key is None:
                raise ReplicaProtocolError(
                    f"no plan-cache key for batch size {batch} "
                    f"(tier prewarmed {sorted(spec.keys)})")
            loaded = cache.load(key)       # mmap: weights shared, read-only
            if loaded is None:
                raise RuntimeError(
                    f"plan-cache entry {key[:12]}… missing or corrupt")
            graph, plan = loaded
            executor = Executor(graph, plan=plan,
                                reuse_buffers=spec.reuse_buffers,
                                num_threads=spec.num_threads,
                                buffers=buffers)
            executors[batch] = executor
        return executor

    def _stats() -> Tuple[int, int, int, int, int]:
        arena = buffers.arena.stats if buffers is not None else ArenaStats()
        return (requests, batches, failures, arena.allocations, arena.reuses)

    attachment: Optional[ShmAttachment] = None
    try:
        if spec.shm is not None:
            # Attach both rings before READY: an attach failure is a
            # startup failure the parent's handshake surfaces, never a
            # tier silently serving over a slower path than configured.
            attachment = ShmAttachment(spec.shm)
        for batch in spec.prewarm_batches:
            _executor_for(batch)
        conn.send_bytes(_pack_frame(_KIND_READY, 0, _stats()))
        while True:
            try:
                frame = conn.recv_bytes()
            except (EOFError, OSError):
                break
            recv_t = time.perf_counter()
            kind, request_id, _, payload = _unpack_frame(frame)
            if kind == _KIND_SHUTDOWN:
                break
            if kind == _KIND_CLOCK:
                # Answer with our clock reading immediately: every
                # microsecond between recv and reply widens the RTT
                # bound on the parent's offset estimate.
                try:
                    conn.send_bytes(_pack_frame(
                        _KIND_CLOCK, request_id, _stats(),
                        _F64.pack(time.perf_counter())))
                except (BrokenPipeError, OSError):
                    break
                continue
            if kind not in (_KIND_REQUEST, _KIND_SHM_REQUEST):
                continue
            size = 0
            trace_id = None
            try:
                if kind == _KIND_SHM_REQUEST:
                    slot, generation = _SHM_SLOT.unpack_from(payload, 0)
                    if attachment is None:
                        raise ReplicaProtocolError(
                            "shm frame on a pipe-only replica")
                    if generation != attachment.generation:
                        raise ReplicaProtocolError(
                            f"shm frame for generation {generation}, "
                            f"attached {attachment.generation}")
                    descs, consumed = unpack_descriptors(
                        payload[_SHM_SLOT.size:])
                    trace_id = _unpack_trace_ctx(
                        payload[_SHM_SLOT.size + consumed:])
                    # Execute straight out of the mapped slot: no
                    # payload bytes ever crossed the pipe.
                    feeds = attachment.request_views(slot, descs)
                else:
                    feeds, consumed = _decode_tensors(payload)
                    trace_id = _unpack_trace_ctx(payload[consumed:])
                size = int(next(iter(feeds.values())).shape[0]) \
                    if feeds else 0
                executor = _executor_for(size)
                if trace_id is not None:
                    executor.record_timeline = True
                try:
                    exec_start = time.perf_counter()
                    outputs = executor.run(feeds)
                    exec_end = time.perf_counter()
                finally:
                    if trace_id is not None:
                        executor.record_timeline = False
                out_descs = None
                if kind == _KIND_SHM_REQUEST:
                    # One copy arena -> response slot; the parent reads
                    # it zero-copy.  None: outputs outgrew the slot
                    # (dynamic shapes) — fall back to the pipe codec
                    # for this frame only.
                    out_descs = attachment.write_response(slot, outputs)
                requests += size
                batches += 1
                # A traced batch ships its spans home piggybacked on
                # the result frame; untraced frames append nothing.
                span_block = b""
                if trace_id is not None:
                    span_block = _pack_span_block(
                        trace_id, recv_t, exec_start, exec_end,
                        executor.last_timeline or ())
                if out_descs is not None:
                    response = _pack_frame(
                        _KIND_SHM_RESULT, request_id, _stats(),
                        _SHM_SLOT.pack(slot, attachment.generation)
                        + pack_descriptors(out_descs) + span_block)
                else:
                    # Single-allocation framing: headers packed in
                    # place, result bytes copied out of the arena once.
                    response = pack_tensor_frame(
                        _KIND_RESULT, request_id, _stats(), outputs)
                    if span_block:
                        response += span_block
                executor.recycle(outputs)
            except BaseException as exc:
                failures += size if size else 1
                response = _pack_error(request_id, _stats(), exc)
            try:
                conn.send_bytes(response)
            except (BrokenPipeError, OSError):
                break
            feeds = None               # release the slot views between
    finally:                           # frames and before close below
        feeds = None
        conn.close()
        if attachment is not None:
            attachment.close()


# -- front end --------------------------------------------------------------


class TierRequestTrace(RequestTrace):
    """Span decomposition for a request crossing the replica tier.

    Same mark-sheet machinery as the in-process engine's trace, but the
    phases follow the tier pipeline, and the ``dispatch`` window (send
    to receive, the time the batch spends on the other side of the data
    plane) hosts the replica's merged remote spans::

        request
        ├── queue_wait       submit -> dispatcher pops the batch
        ├── slot_wait        waiting for a live replica with capacity
        ├── batch_assembly   concat + slot write / frame pack + send
        ├── dispatch         frame sent -> result frame received
        │   └── replica_batch   (replica process track, clock-aligned)
        │       └── execute
        │           └── <per-step kernel spans>
        └── finalize         per-request split + future completion
    """

    __slots__ = ()

    _PHASES = (
        ("queue_wait", "enqueued", "dequeued"),
        ("slot_wait", "dequeued", "acquired"),
        ("batch_assembly", "acquired", "sent"),
        ("dispatch", "sent", "received"),
        ("finalize", "received", "completed"),
    )
    _STEPS_PHASE = "dispatch"


@dataclass
class _Inflight:
    requests: List[InferenceRequest]
    sent_at: float
    # Shared-memory bookkeeping: the request-ring slot this batch rides
    # in (None: pipe frame) and the payload bytes parked there.
    slot: Optional[int] = None
    shm_bytes: int = 0
    # Tracing: the sampled traces riding in this batch and the
    # perf_counter send stamp bounding the dispatch window (remote
    # spans are clamped into [sent_pc, received_pc] after alignment).
    traces: Tuple[TierRequestTrace, ...] = ()
    sent_pc: float = 0.0


class _Replica:
    """Parent-side handle of one replica process."""

    def __init__(self, index: int, process, conn,
                 channel: Optional[ShmChannel] = None) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.channel = channel
        self.send_lock = threading.Lock()
        self.inflight: Dict[int, _Inflight] = {}
        self.alive = True
        self.completed_requests = 0
        self.completed_batches = 0
        self.failed_requests = 0
        # Latest piggybacked child counters: requests, batches,
        # failures, arena allocations, arena reuses.
        self.child_stats: Tuple[int, ...] = _ZERO_STATS
        # Clock-domain alignment: offset estimate for this process
        # (handshaken before the receiver starts, resynced in-band) and
        # the send stamps of resync probes still in flight.
        self.clock = ClockSync()
        self.clock_probes: Dict[int, float] = {}

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid


@dataclass(frozen=True)
class ReplicaStats:
    """One replica's view in :meth:`ReplicaEngine.replica_stats`."""

    index: int
    pid: Optional[int]
    alive: bool
    inflight: int
    completed_requests: int
    completed_batches: int
    failed_requests: int
    child_requests: int
    child_batches: int
    child_failures: int
    child_arena_allocations: int
    child_arena_reuses: int


_BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS")


class ReplicaEngine:
    """Routes micro-batched requests across N executor processes.

    Parameters
    ----------
    graph
        Model to serve; rebatched internally, so any build batch works.
    replicas
        Executor processes to spawn.  Throughput scales with cores
        because each replica is a full interpreter with its own GIL.
    max_batch / max_latency_ms
        Micro-batching knobs, exactly as on ``InferenceEngine``:
        ``max_latency_ms`` is the upper bound on linger, and a request
        that finds the dispatcher idle is charged only the rest of it.
    max_inflight
        Outstanding batches allowed per replica; one executes while the
        next waits in the replica's pipe (pipelining), and the
        dispatcher blocks once every live replica is at the bound
        (backpressure).
    queue_limit
        Admission bound on the front-end queue; submissions past it are
        shed with :class:`TierSaturatedError`.  Defaults to
        ``4 * replicas * max_inflight * max_batch``.
    cache_dir
        Plan-cache directory shared with the replicas (default: the
        process-wide cache).  The tier pre-warms an entry per batch
        size ``1..max_batch``; replicas memmap those entries read-only,
        so all processes share one resident copy of the weights and a
        restarted tier warm-starts from disk.
    aot_config
        :class:`repro.optim.passes.AOTConfig` for the pre-warmed builds
        (bitwise-safe defaults when None).
    num_threads
        Intra-process executor threads per replica (default 1: the tier
        scales by process, and oversubscribing cores hurts).
    blas_threads
        Value exported to the BLAS thread-count env vars around replica
        spawn (default 1, same rationale); ``None`` leaves the
        environment alone.
    start_method
        ``multiprocessing`` start method (default ``"spawn"``: safe
        with the parent's dispatcher/receiver threads; ``"fork"`` is
        faster to boot but inherits arbitrary thread state).
    restart_limit
        Total replica restarts the tier will perform before declaring
        surviving capacity final (default 3).
    ready_timeout_s
        How long to wait for each replica's READY handshake.
    shm
        Route tensor payloads through per-replica shared-memory rings
        instead of the pipe (:mod:`repro.serving.shm`).  ``None`` (the
        default) follows ``REPRO_REPLICA_SHM`` (on unless set to
        ``0``); either way the tier silently runs pipe-only where POSIX
        shared memory is unavailable.  Slot sizes are fixed from the
        graph's input/output specs at ``max_batch``, with one slot pair
        per ``max_inflight`` batch; oversized frames fall back to the
        pipe codec per-request (counted in ``shm_fallbacks``).
    adaptive
        Enable SLO-aware assembly on the tier's *front-end* queue: a
        tier-level :class:`BatchLatencyModel` is fitted from
        dispatch-to-completion timings and the queue forms the largest
        batch predicted to meet the tightest queued deadline, shedding
        requests that cannot make their SLO even alone — *before* they
        cross the data plane.  The model persists next to the plan
        cache (``<key>-tier``), so a restarted tier starts calibrated.
    default_slo_ms / shed_policy / latency_model / headroom_ms
        Exactly as on :class:`repro.serving.engine.InferenceEngine`:
        the default request deadline, the queue-bound/miss-rate
        :class:`ShedPolicy`, an injected shared model, and the
        scheduling slack the assembly reserves per comparison.
    tracer
        Optional :class:`repro.telemetry.Tracer`; sampled requests
        carry a :class:`TierRequestTrace` across the data plane, and
        finished traces include the replica's clock-aligned per-step
        spans (see the module docstring).  ``None`` (the default) keeps
        every frame byte-identical to the untraced wire format.
    slow_request_ms
        Log a warning (with the tier-phase breakdown when the request
        was traced) for any request completing slower than this many
        milliseconds; mirrors the in-process engine's slow-request log
        and feeds ``slow_requests``.
    flight_recorder
        The event ring the tier records into (default: the process-wide
        recorder).  Auto-dumped on crash-restart and breaker trips.
    clock_resync_s
        How often (seconds) the dispatcher refreshes each replica's
        clock-offset estimate with an in-band probe (default 30).
    """

    def __init__(self, graph: Graph, replicas: int = 2, max_batch: int = 8,
                 max_latency_ms: float = 2.0,
                 max_inflight: int = 2,
                 queue_limit: Optional[int] = None,
                 cache_dir=None, aot_config=None,
                 reuse_buffers: bool = True,
                 num_threads: int = 1,
                 blas_threads: Optional[int] = 1,
                 start_method: str = "spawn",
                 restart_limit: int = 3,
                 ready_timeout_s: float = 120.0,
                 shm: Optional[bool] = None,
                 adaptive: bool = False,
                 default_slo_ms: Optional[float] = None,
                 shed_policy: Optional[ShedPolicy] = None,
                 latency_model: Optional[BatchLatencyModel] = None,
                 headroom_ms: float = 0.5,
                 tracer: Optional[Tracer] = None,
                 slow_request_ms: Optional[float] = None,
                 flight_recorder: Optional[FlightRecorder] = None,
                 clock_resync_s: float = DEFAULT_RESYNC_S) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.template = graph.with_batch(1)
        self.replicas = int(replicas)
        self.max_batch = int(max_batch)
        self.max_inflight = int(max_inflight)
        self.queue_limit = int(queue_limit) if queue_limit is not None \
            else 4 * self.replicas * self.max_inflight * self.max_batch
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.restart_limit = int(restart_limit)
        self.ready_timeout_s = float(ready_timeout_s)
        self.blas_threads = blas_threads
        self._ctx = multiprocessing.get_context(start_method)
        self._input_specs = {spec.name: spec
                             for spec in self.template.inputs}
        self.recorder = MetricsRecorder()
        self._cond = threading.Condition()
        self._closed = False
        self._next_id = 1
        self._restarts = 0
        self._shed = 0
        # Test seam: clearing the gate holds the dispatcher between
        # batches, making queue-drain/shed behaviour deterministic.
        self._dispatch_gate = threading.Event()
        self._dispatch_gate.set()

        # -- observability -----------------------------------------------
        self.tracer = tracer
        self.slow_request_ms = (float(slow_request_ms)
                                if slow_request_ms is not None else None)
        self.slow_requests = 0
        self.flightrec = flight_recorder if flight_recorder is not None \
            else get_flight_recorder()
        self.clock_resync_s = float(clock_resync_s)
        # Breaker-open edge detection: the flight recorder dumps once
        # per trip, not once per shed request while the breaker stays
        # open.
        self._breaker_open = False

        # -- shared-memory data plane ------------------------------------
        if shm is None:
            env = os.environ.get("REPRO_REPLICA_SHM", "")
            shm = env.strip().lower() not in ("0", "false", "off", "no")
        self.shm_enabled = bool(shm) and shm_available()
        self._generation = 0
        self._shm_requests = 0
        self._shm_fallbacks = 0
        self._shm_bytes_inflight = 0
        self._slot_wait = None
        if self.shm_enabled:
            # Fixed slot sizes from the specs at max_batch: the common
            # case always fits, dynamic shapes fall back per-frame.
            self._request_slot_bytes = required_slot_bytes(
                self.template.inputs, self.max_batch)
            specs = self.template.infer_specs()
            self._response_slot_bytes = required_slot_bytes(
                [specs[name] for name in self.template.output_names],
                self.max_batch)
            self._slot_wait = get_registry().histogram(
                "repro_replica_shm_slot_wait_seconds",
                "Dispatcher wait for a live replica with a free "
                "shared-memory slot pair",
                buckets=log_buckets(1e-5, 4.0, 12))

        # Pre-warm one plan-cache entry per batch size the queue can
        # form; replicas load these by key (mmap, zero-copy).
        self.cache_dir = str(cache_dir) if cache_dir is not None \
            else str(default_cache_dir())
        cache = PlanCache(self.cache_dir)
        self._cache_hits = 0
        self._cache_misses = 0
        keys: Dict[int, str] = {}
        for batch in range(1, self.max_batch + 1):
            model = load_or_build(self.template.with_batch(batch),
                                  aot_config, cache)
            if model.from_cache:
                self._cache_hits += 1
            else:
                self._cache_misses += 1
            keys[batch] = model.key
        self._spec_template = ReplicaSpec(
            index=-1, cache_dir=self.cache_dir, keys=keys,
            reuse_buffers=bool(reuse_buffers),
            num_threads=int(num_threads),
            prewarm_batches=(1, self.max_batch) if self.max_batch > 1
            else (1,))

        # -- SLO-aware front-end assembly --------------------------------
        self.adaptive = bool(adaptive)
        self.default_slo_ms = (float(default_slo_ms)
                               if default_slo_ms is not None else None)
        self.shed_policy = shed_policy
        self.latency_model = latency_model
        self._latency_model_path = None
        if self.adaptive and self.latency_model is None:
            # Keyed off the batch-1 plan entry, suffixed so the tier's
            # dispatch-to-completion timings never mix with the
            # in-process engine's execute-only model for the same plan.
            self._latency_model_path = model_path(
                self.cache_dir, keys[1] + "-tier")
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

        self._replicas: List[_Replica] = []
        self._receivers: List[threading.Thread] = []
        try:
            for index in range(self.replicas):
                self._replicas.append(self._spawn(index))
            for replica in self._replicas:
                self._await_ready(replica)
        except BaseException:
            for replica in self._replicas:
                if replica.process.is_alive():
                    replica.process.terminate()
                if replica.channel is not None:
                    replica.channel.retire()
            raise
        for replica in self._replicas:
            self._start_receiver(replica)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-replica-dispatch",
            daemon=True)
        self._dispatcher.start()
        _telemetry.track_replica_tier(self)

    # -- public API ----------------------------------------------------------

    def infer(self, feeds: Mapping[str, np.ndarray],
              slo_ms: Optional[float] = None, priority: int = 0):
        """Submit one sample; returns a Future resolving to the output
        dict.  Raises :class:`TierSaturatedError` when the admission
        queue is full and :class:`EngineClosedError` after close.

        ``slo_ms``/``priority`` mirror the in-process engine's SLO API:
        the deadline (default: ``default_slo_ms``) feeds the tier's
        SLO-miss and goodput accounting, and priority orders the
        admission queue (higher classes dispatch to replicas first,
        FIFO within a class).  With ``adaptive`` set, the front-end
        queue sizes batches to the tightest queued deadline and sheds
        requests predicted to miss even alone — their futures fail with
        :class:`RequestShedError` before any payload crosses the data
        plane.
        """
        if self._closed:
            raise EngineClosedError("replica tier is closed")
        sample = check_sample(self._input_specs, feeds)
        if self.queue.depth() >= self.queue_limit:
            with self._cond:
                self._shed += 1
            self.recorder.record_shed(1)
            self.flightrec.record("shed", reason="queue_full",
                                  priority=int(priority))
            raise TierSaturatedError(
                f"replica tier saturated: {self.queue_limit} requests "
                f"queued; request shed")
        request = InferenceRequest(feeds=sample, priority=int(priority))
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
            # The windowed breaker is open: fail fast with the typed
            # shed error instead of queueing work the window says will
            # go bad.
            with self._cond:
                tripped = not self._breaker_open
                self._breaker_open = True
            if tripped:
                self.flightrec.record(
                    "breaker_trip",
                    miss_rate=self.recorder.miss_rate(),
                    threshold=policy.miss_rate_threshold)
                self.flightrec.try_dump("breaker-trip")
            self._shed_request(request)
            return request.future
        if self._breaker_open:
            with self._cond:
                self._breaker_open = False
        tracer = self.tracer
        if tracer is not None and tracer.sample():
            trace = TierRequestTrace()
            trace.mark("enqueued")
            request.trace = trace
        self.flightrec.record("admit", priority=request.priority,
                              slo_ms=slo_ms)
        try:
            self.queue.submit(request)
        except QueueClosedError:
            raise EngineClosedError("replica tier is closed") from None
        return request.future

    def infer_sync(self, feeds: Mapping[str, np.ndarray],
                   timeout: Optional[float] = None,
                   slo_ms: Optional[float] = None, priority: int = 0
                   ) -> Dict[str, np.ndarray]:
        return self.infer(feeds, slo_ms=slo_ms,
                          priority=priority).result(timeout=timeout)

    def infer_many(self, samples: Sequence[Mapping[str, np.ndarray]],
                   timeout: Optional[float] = None,
                   slo_ms: Optional[float] = None, priority: int = 0
                   ) -> List[Dict[str, np.ndarray]]:
        futures = [self.infer(sample, slo_ms=slo_ms, priority=priority)
                   for sample in samples]
        return [future.result(timeout=timeout) for future in futures]

    def metrics(self) -> MetricsSnapshot:
        """Front-end serving snapshot (same shape as the in-process
        engine's); per-replica detail lives in :meth:`replica_stats`."""
        return self.recorder.snapshot(
            queue_depth=self.queue.depth(),
            plan_cache_hits=self._cache_hits,
            plan_cache_misses=self._cache_misses)

    def replica_stats(self) -> List[ReplicaStats]:
        """Per-replica health and counters (parent + piggybacked)."""
        with self._cond:
            return [
                ReplicaStats(
                    index=replica.index,
                    pid=replica.pid,
                    alive=replica.alive,
                    inflight=len(replica.inflight),
                    completed_requests=replica.completed_requests,
                    completed_batches=replica.completed_batches,
                    failed_requests=replica.failed_requests,
                    child_requests=replica.child_stats[0],
                    child_batches=replica.child_stats[1],
                    child_failures=replica.child_stats[2],
                    child_arena_allocations=replica.child_stats[3],
                    child_arena_reuses=replica.child_stats[4],
                )
                for replica in self._replicas
            ]

    @property
    def restarts(self) -> int:
        with self._cond:
            return self._restarts

    @property
    def shed_requests(self) -> int:
        with self._cond:
            return self._shed

    @property
    def shm_requests(self) -> int:
        """Batches whose payload crossed via a shared-memory slot."""
        with self._cond:
            return self._shm_requests

    @property
    def shm_fallbacks(self) -> int:
        """Frames that fell back to the pipe codec while shm was on
        (oversize request or response, or no free slot)."""
        with self._cond:
            return self._shm_fallbacks

    @property
    def shm_bytes_inflight(self) -> int:
        """Request-payload bytes currently parked in ring slots."""
        with self._cond:
            return self._shm_bytes_inflight

    def shm_segment_names(self) -> List[str]:
        """Names of every live (non-retired) ring segment — the tier's
        current /dev/shm footprint (tests assert it empties on close)."""
        with self._cond:
            names: List[str] = []
            for replica in self._replicas:
                channel = replica.channel
                if channel is not None and not channel.retired:
                    names.extend(channel.segment_names())
            return names

    def close(self, timeout: Optional[float] = None) -> None:
        """Stop admissions, fail whatever is still queued, wait for
        in-flight batches, and shut the replica processes down."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
        self.queue.close()
        self._dispatch_gate.set()
        self._dispatcher.join(timeout=timeout)
        drained = self.queue.drain()
        if drained:
            self._fail_requests(
                drained,
                EngineClosedError("replica tier closed before execution"))
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        with self._cond:
            while any(replica.alive and replica.inflight
                      for replica in self._replicas):
                remaining = 0.5 if deadline is None \
                    else min(0.5, deadline - time.monotonic())
                if remaining <= 0:
                    break
                self._cond.wait(timeout=remaining)
        with self._cond:
            replicas = list(self._replicas)
        for replica in replicas:
            try:
                with replica.send_lock:
                    replica.conn.send_bytes(
                        _pack_frame(_KIND_SHUTDOWN, 0))
            except (OSError, ValueError):
                pass
        for replica in replicas:
            replica.process.join(timeout=5.0)
            if replica.process.is_alive():
                replica.process.terminate()
                replica.process.join(timeout=1.0)
                if replica.process.is_alive():
                    replica.process.kill()
                    replica.process.join(timeout=1.0)
            try:
                replica.conn.close()
            except OSError:
                pass
            if replica.channel is not None:
                # After the join above no process maps the rings, so
                # retirement both unlinks the names and releases the
                # parent mapping — nothing of this tier survives in
                # /dev/shm.
                replica.channel.retire()
        for thread in self._receivers:
            thread.join(timeout=5.0)
        if self._latency_model_path is not None and \
                self.latency_model is not None and \
                self.latency_model.observations > 0:
            # Persist the tier-level calibration so the next tier on
            # this model starts warm (mirrors the in-process engine).
            try:
                self.latency_model.save(self._latency_model_path)
            except OSError as exc:
                logger.warning("could not persist tier latency model "
                               "to %s: %s", self._latency_model_path,
                               exc)

    def __enter__(self) -> "ReplicaEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self, index: int) -> _Replica:
        channel: Optional[ShmChannel] = None
        if self.shm_enabled:
            # A fresh generation per spawn: a restarted replica can
            # never see (or be addressed through) a predecessor's
            # rings, so stale frames cannot alias new batches.
            with self._cond:
                self._generation += 1
                generation = self._generation
            channel = ShmChannel(self.max_inflight,
                                 self._request_slot_bytes,
                                 self._response_slot_bytes, generation)
        spec = ReplicaSpec(
            index=index,
            cache_dir=self._spec_template.cache_dir,
            keys=self._spec_template.keys,
            reuse_buffers=self._spec_template.reuse_buffers,
            num_threads=self._spec_template.num_threads,
            prewarm_batches=self._spec_template.prewarm_batches,
            shm=channel.spec() if channel is not None else None)
        try:
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            saved = {}
            if self.blas_threads is not None:
                # The replica inherits its environment at spawn: pin its
                # BLAS pools so N replicas do not oversubscribe the cores
                # they are supposed to split.
                for var in _BLAS_ENV_VARS:
                    saved[var] = os.environ.get(var)
                    os.environ[var] = str(self.blas_threads)
            try:
                process = self._ctx.Process(
                    target=_replica_main, args=(child_conn, spec),
                    name=f"repro-replica-{index}", daemon=True)
                process.start()
            finally:
                for var, value in saved.items():
                    if value is None:
                        os.environ.pop(var, None)
                    else:
                        os.environ[var] = value
        except BaseException:
            if channel is not None:
                channel.retire()
            raise
        child_conn.close()
        return _Replica(index, process, parent_conn, channel=channel)

    def _await_ready(self, replica: _Replica) -> None:
        if not replica.conn.poll(self.ready_timeout_s):
            replica.process.terminate()
            raise RuntimeError(
                f"replica {replica.index} failed to become ready within "
                f"{self.ready_timeout_s:.0f}s")
        try:
            frame = replica.conn.recv_bytes()
        except (EOFError, OSError):
            replica.process.join(timeout=1.0)
            raise RuntimeError(
                f"replica {replica.index} died during startup (exit "
                f"code {replica.process.exitcode})") from None
        kind, _, stats, _ = _unpack_frame(frame)
        if kind != _KIND_READY:
            replica.process.terminate()
            raise ReplicaProtocolError(
                f"replica {replica.index} sent frame kind {kind} "
                f"instead of READY")
        replica.child_stats = stats
        self._sync_clock(replica)

    def _sync_clock(self, replica: _Replica,
                    probes: int = DEFAULT_HANDSHAKE_PROBES) -> None:
        """Spawn-time offset handshake: a few synchronous round trips
        over the just-idle pipe (runs between READY and the receiver
        thread starting, so the parent owns the connection).  Keeps the
        min-RTT midpoint estimate; see :mod:`repro.telemetry.clock`."""
        for _ in range(probes):
            t_send = time.perf_counter()
            replica.conn.send_bytes(_pack_frame(_KIND_CLOCK, 0))
            if not replica.conn.poll(self.ready_timeout_s):
                replica.process.terminate()
                raise RuntimeError(
                    f"replica {replica.index} did not answer the clock "
                    f"handshake within {self.ready_timeout_s:.0f}s")
            frame = replica.conn.recv_bytes()
            t_recv = time.perf_counter()
            kind, _, stats, payload = _unpack_frame(frame)
            if kind != _KIND_CLOCK or len(payload) < _F64.size:
                replica.process.terminate()
                raise ReplicaProtocolError(
                    f"replica {replica.index} answered the clock "
                    f"handshake with frame kind {kind}")
            replica.child_stats = stats
            (t_child,) = _F64.unpack_from(payload, 0)
            replica.clock.observe(t_send, t_child, t_recv)

    def _start_receiver(self, replica: _Replica) -> None:
        thread = threading.Thread(
            target=self._receive_loop, args=(replica,),
            name=f"repro-replica-recv-{replica.index}", daemon=True)
        thread.start()
        self._receivers.append(thread)

    def _restart(self, replica: _Replica) -> None:
        """Spawn a replacement for a crashed replica (receiver thread)."""
        replacement = None
        try:
            replacement = self._spawn(replica.index)
            self._await_ready(replacement)
        except BaseException:
            logger.exception("replica %d restart failed", replica.index)
            if replacement is not None and \
                    replacement.channel is not None:
                replacement.channel.retire()
            with self._cond:
                self._cond.notify_all()
            return
        with self._cond:
            if self._closed:
                # close() raced the restart: the replacement never
                # entered the replica list, so shut it down here.
                replacement.alive = False
            else:
                position = self._replicas.index(replica)
                self._replicas[position] = replacement
            self._cond.notify_all()
        if not replacement.alive:
            replacement.process.terminate()
            replacement.process.join(timeout=1.0)
            if replacement.channel is not None:
                replacement.channel.retire()
            return
        self._start_receiver(replacement)
        logger.warning("replica %d restarted (pid %s)", replica.index,
                       replacement.pid)

    def _on_replica_failure(self, replica: _Replica,
                            exc: BaseException) -> None:
        with self._cond:
            if not replica.alive:
                return
            replica.alive = False
            doomed = list(replica.inflight.values())
            replica.inflight.clear()
            replica.failed_requests += sum(
                len(inflight.requests) for inflight in doomed)
            for inflight in doomed:
                if inflight.slot is not None:
                    self._shm_bytes_inflight -= inflight.shm_bytes
            should_restart = (not self._closed
                              and self._restarts < self.restart_limit)
            if should_restart:
                self._restarts += 1
            self._cond.notify_all()
        generation = replica.channel.generation \
            if replica.channel is not None else None
        if replica.channel is not None:
            # Retire the whole generation: both segment names leave
            # /dev/shm immediately; in-flight slots die with it (a
            # racing slot write holds the mapping open — close defers,
            # the quarantined mapping drains, the name is already
            # gone).  The replacement spawns fresh rings.
            replica.channel.retire()
        try:
            replica.conn.close()
        except OSError:
            pass
        replica.process.join(timeout=1.0)
        for inflight in doomed:
            self._fail_requests(inflight.requests, ReplicaCrashError(
                f"replica {replica.index} (pid {replica.pid}) died with "
                f"the batch in flight: {exc}"))
        if doomed or not self._closed:
            logger.warning(
                "replica %d (pid %s) exited%s", replica.index,
                replica.pid,
                f" failing {len(doomed)} in-flight batches" if doomed
                else "")
            # Crash path: record the generation retirement, then dump
            # the ring so the moments before the crash (last admits,
            # batch compositions, the retire itself) are on disk even
            # if the process never recovers.
            self.flightrec.record(
                "generation_retire", replica=replica.index,
                generation=generation if generation is not None else -1,
                inflight_batches=len(doomed),
                inflight_requests=sum(len(inflight.requests)
                                      for inflight in doomed),
                restarting=should_restart)
            if should_restart:
                self.flightrec.record("restart", replica=replica.index)
            self.flightrec.try_dump(f"replica-{replica.index}-crash")
        if should_restart:
            self._restart(replica)

    # -- dispatch ------------------------------------------------------------

    def _shed_request(self, request: InferenceRequest) -> None:
        """Fail one request with the typed shed error and record it
        (the queue's ``on_shed`` callback and the admission breaker)."""
        with self._cond:
            self._shed += 1
        self.recorder.record_shed(1)
        self.flightrec.record("shed", reason="slo",
                              priority=request.priority)
        self._finish_trace(request)
        if not request.future.done():
            deadline_note = ""
            if request.deadline_s is not None:
                remaining_ms = (request.deadline_s
                                - time.monotonic()) * 1e3
                deadline_note = (f" ({remaining_ms:.1f} ms of SLO "
                                 f"budget left)")
            request.future.set_exception(RequestShedError(
                f"request shed by the replica tier's SLO-aware "
                f"admission control{deadline_note}; retry with backoff "
                f"or lower load"))

    def _finish_trace(self, request: InferenceRequest) -> None:
        """Close out a sampled request's trace on a non-success path so
        the partial span tree (however far it got) still exports."""
        trace = request.trace
        if trace is None or self.tracer is None:
            return
        trace.mark("completed")
        self.tracer.finish(trace)

    def _fail_requests(self, requests: List[InferenceRequest],
                       exc: BaseException) -> None:
        failed_at = time.monotonic()
        self.recorder.record_failure(
            len(requests), [failed_at - request.enqueued_at
                            for request in requests])
        for request in requests:
            self._finish_trace(request)
            if not request.future.done():
                request.future.set_exception(exc)

    def _acquire_replica(self) -> Optional[_Replica]:
        """Least-loaded live replica with a free in-flight slot; blocks
        while all are saturated (backpressure), returns None once no
        replica is alive and no restart is pending.

        With the shm data plane the in-flight bound is one ring-slot
        pair per batch, so this wait *is* the slot wait — it feeds the
        ``repro_replica_shm_slot_wait_seconds`` histogram.
        """
        started = time.perf_counter()
        waited = False
        with self._cond:
            while True:
                live = [replica for replica in self._replicas
                        if replica.alive]
                available = [replica for replica in live
                             if len(replica.inflight) < self.max_inflight]
                if available:
                    if self._slot_wait is not None:
                        self._slot_wait.observe(
                            time.perf_counter() - started)
                    choice = min(available,
                                 key=lambda r: len(r.inflight))
                    break
                if not live:
                    return None
                waited = True
                self._cond.wait(timeout=0.25)
        if waited:
            # Only actual blocking is an event: the common free-slot
            # path stays recorder-free.
            self.flightrec.record(
                "slot_wait", replica=choice.index,
                wait_s=time.perf_counter() - started)
        return choice

    def _dispatch_loop(self) -> None:
        while True:
            self._dispatch_gate.wait()
            batch = self.queue.next_batch()
            if batch is None:
                return
            traces = () if self.tracer is None else \
                tuple(request.trace for request in batch
                      if request.trace is not None)
            if traces:
                dequeued = time.perf_counter()
                for trace in traces:
                    trace.mark("dequeued", at=dequeued)
            while True:
                replica = self._acquire_replica()
                if replica is None:
                    self._fail_requests(batch, ReplicaCrashError(
                        "no live replicas (crashed beyond the restart "
                        "limit)"))
                    break
                if traces:
                    acquired = time.perf_counter()
                    for trace in traces:
                        trace.mark("acquired", at=acquired)
                if self._send_batch(replica, batch, traces):
                    break

    def _send_batch(self, replica: _Replica,
                    batch: List[InferenceRequest],
                    traces: Tuple[TierRequestTrace, ...] = ()) -> bool:
        """Route ``batch`` to ``replica``; False if the replica died
        between acquisition and registration (caller re-routes)."""
        if len(batch) == 1:
            feeds = batch[0].feeds
        else:
            feeds = {
                name: np.concatenate(
                    [request.feeds[name] for request in batch], axis=0)
                for name in self._input_specs
            }
        descs = None
        total = 0
        if replica.channel is not None:
            descs, total = layout_tensors(feeds)
            if total > replica.channel.request_slot_bytes:
                descs = None               # oversize: pipe fallback
        slot = None
        view = None
        with self._cond:
            if not replica.alive:
                # The in-flight registry is only mutated while the
                # replica is alive, so the crash handler's drain is
                # guaranteed to see every registered batch.
                return False
            if descs is not None:
                slot = replica.channel.acquire_slot()
                if slot is not None:
                    # Materialize the slot view while the replica is
                    # known alive: a concurrent retirement now finds a
                    # live export and defers its close, so the write
                    # below lands in a (worst case quarantined) mapping
                    # rather than a released one.
                    view = replica.channel.request_ring.slot_view(slot)
                    self._shm_bytes_inflight += total
                    self._shm_requests += 1
            if replica.channel is not None and slot is None:
                self._shm_fallbacks += 1
            request_id = self._next_id
            self._next_id += 1
            entry = _Inflight(
                batch, time.monotonic(), slot=slot,
                shm_bytes=total if slot is not None else 0,
                traces=traces)
            replica.inflight[request_id] = entry
        # A traced batch asks the replica for spans by appending the
        # trace-context block after the regular payload (both codecs
        # are self-delimiting, so untraced frames are byte-identical to
        # the pre-tracing wire format).
        trailer = _TRACE_CTX.pack(_TRACE_CTX_MAGIC, traces[0].trace_id) \
            if traces else b""
        if slot is not None:
            # The data plane's single copy, outside the lock: payload
            # bytes go straight into the mapped slot and only the tiny
            # control frame crosses the pipe.
            write_tensors(view, feeds, descs)
            frame = _pack_frame(
                _KIND_SHM_REQUEST, request_id,
                payload=_SHM_SLOT.pack(slot, replica.channel.generation)
                + pack_descriptors(descs) + trailer)
        else:
            frame = pack_tensor_frame(_KIND_REQUEST, request_id,
                                      _ZERO_STATS, feeds)
            if trailer:
                frame += trailer
        probe_id = None
        if self.tracer is not None and \
                replica.clock.stale(resync_s=self.clock_resync_s):
            with self._cond:
                if not replica.clock_probes:
                    probe_id = self._next_id
                    self._next_id += 1
                    replica.clock_probes[probe_id] = 0.0
        try:
            with replica.send_lock:
                if probe_id is not None:
                    # Periodic in-band resync, sent *ahead* of the
                    # batch so the reply never queues behind the
                    # execution (which would balloon the RTT bound; a
                    # worse sample loses to the min-RTT estimate, but
                    # there is no reason to collect one on purpose).
                    replica.clock_probes[probe_id] = \
                        time.perf_counter()
                    replica.conn.send_bytes(
                        _pack_frame(_KIND_CLOCK, probe_id))
                # Stamp and mark *before* the send: the receiver thread
                # may process the reply (and freeze the trace's span
                # tree) before this thread runs again, so marking after
                # the send races the merge and can lose the dispatch
                # phase entirely.
                sent_pc = time.perf_counter()
                if traces:
                    entry.sent_pc = sent_pc
                    for trace in traces:
                        trace.mark("sent", at=sent_pc)
                        trace.batch_size = len(batch)
                replica.conn.send_bytes(frame)
        except (OSError, ValueError) as exc:
            # The crash handler (here or on the receiver thread) drains
            # the registered in-flight entry, failing these futures.
            self._on_replica_failure(replica, exc)
            return True
        self.flightrec.record(
            "batch", replica=replica.index, size=len(batch),
            slot=slot if slot is not None else -1, shm_bytes=total)
        return True

    # -- receive -------------------------------------------------------------

    def _receive_loop(self, replica: _Replica) -> None:
        while True:
            try:
                frame = replica.conn.recv_bytes()
            except (EOFError, OSError):
                break
            try:
                kind, request_id, stats, payload = _unpack_frame(frame)
            except ReplicaProtocolError:
                logger.exception("replica %d sent a malformed frame",
                                 replica.index)
                break
            if kind in (_KIND_RESULT, _KIND_SHM_RESULT):
                self._on_result(replica, request_id, stats, payload,
                                shm=(kind == _KIND_SHM_RESULT))
            elif kind == _KIND_ERROR:
                self._on_error(replica, request_id, stats, payload)
            elif kind == _KIND_CLOCK:
                self._on_clock(replica, request_id, stats, payload)
        self._on_replica_failure(
            replica, ReplicaCrashError("connection lost"))

    def _on_clock(self, replica: _Replica, request_id: int,
                  stats: Tuple[int, ...], payload) -> None:
        """Fold a resync probe reply into the replica's offset estimate
        (receiver thread only, so ClockSync needs no lock)."""
        t_recv = time.perf_counter()
        with self._cond:
            replica.child_stats = tuple(stats)
            t_send = replica.clock_probes.pop(request_id, None)
        if t_send is None or t_send <= 0.0 or \
                len(payload) < _F64.size:
            return
        (t_child,) = _F64.unpack_from(payload, 0)
        replica.clock.observe(t_send, t_child, t_recv)

    def _merge_replica_spans(self, replica: _Replica, entry: _Inflight,
                             received_pc: float, block) -> None:
        """Attach the replica's piggybacked spans to every trace in the
        batch, aligned onto the parent clock and clamped into the
        batch's dispatch window.

        Alignment maps child readings through the replica's offset
        estimate; clamping into ``[sent_pc, received_pc]`` then makes
        the nesting *structural* — whatever residual offset error
        remains (bounded by the winning probe's RTT/2), the replica's
        spans cannot escape the parent span that caused them, so the
        merged trace is always monotonic.
        """
        trace_id, recv_c, exec_start_c, exec_end_c, steps = block
        offset = replica.clock.offset_s
        lo, hi = entry.sent_pc, received_pc

        def align(t_child: float) -> float:
            return min(max(t_child + offset, lo), hi)

        process = f"replica-{replica.index}"
        execute = Span("execute", "replica",
                       align(exec_start_c), align(exec_end_c),
                       process=process)
        for step in steps:
            execute.children.append(Span(
                str(step["name"]), str(step["op"]),
                align(exec_start_c + float(step["start"])),
                align(exec_start_c + float(step["end"])),
                thread=int(step["thread"]), process=process))
        root = Span("replica_batch", "replica",
                    align(recv_c), align(exec_end_c),
                    process=process,
                    args={"replica": replica.index,
                          "trace_id": trace_id,
                          "batch_size": len(entry.requests),
                          "clock_offset_s": offset,
                          "clock_rtt_s": replica.clock.rtt_s},
                    children=[execute])
        for trace in entry.traces:
            trace.attach_children("dispatch", [root])

    def _log_slow_requests(self, entry: _Inflight, replica: _Replica,
                           latencies: List[float]) -> None:
        """Mirror the in-process engine's slow-request log, with the
        tier-phase breakdown (slot wait, dispatch/IPC) when traced."""
        threshold_s = self.slow_request_ms / 1e3
        slow = [(request, latency) for request, latency
                in zip(entry.requests, latencies)
                if latency >= threshold_s]
        if not slow:
            return
        with self._cond:
            self.slow_requests += len(slow)
        for request, latency in slow:
            trace = request.trace
            if trace is not None:
                phases = trace.phase_durations_ms()
                breakdown = ", ".join(
                    f"{name} {phases[name]:.2f}ms" for name in
                    ("queue_wait", "slot_wait", "batch_assembly",
                     "dispatch", "finalize") if name in phases)
                logger.warning(
                    "slow request on replica tier: %.2f ms "
                    "(threshold %.2f ms, replica %d, batch %d): %s",
                    latency * 1e3, self.slow_request_ms,
                    replica.index, len(entry.requests), breakdown)
            else:
                logger.warning(
                    "slow request on replica tier: %.2f ms "
                    "(threshold %.2f ms, replica %d, batch %d; "
                    "untraced — attach a tracer for the phase "
                    "breakdown)", latency * 1e3, self.slow_request_ms,
                    replica.index, len(entry.requests))

    def _peek_inflight(self, replica: _Replica, request_id: int,
                       stats: Tuple[int, ...]) -> Optional[_Inflight]:
        """Look the entry up *without* releasing anything: its slots
        stay owned until :meth:`_finish_inflight` — releasing before
        the result bytes are copied out would let the next batch
        overwrite a response slot still being read."""
        with self._cond:
            replica.child_stats = tuple(stats)
            return replica.inflight.get(request_id)

    def _finish_inflight(self, replica: _Replica,
                         request_id: int) -> Optional[_Inflight]:
        """Pop the entry and recycle its ring slot; None when the
        crash handler raced us and already failed the batch."""
        with self._cond:
            entry = replica.inflight.pop(request_id, None)
            if entry is not None and entry.slot is not None:
                if replica.channel is not None:
                    replica.channel.release_slot(entry.slot)
                self._shm_bytes_inflight -= entry.shm_bytes
            self._cond.notify_all()
        return entry

    def _on_result(self, replica: _Replica, request_id: int,
                   stats: Tuple[int, ...], payload,
                   shm: bool = False) -> None:
        received_pc = time.perf_counter()
        entry = self._peek_inflight(replica, request_id, stats)
        if entry is None:
            return
        requests = entry.requests
        span_block = None
        try:
            if shm:
                slot, generation = _SHM_SLOT.unpack_from(payload, 0)
                channel = replica.channel
                with self._cond:
                    if channel is None or channel.retired or \
                            generation != channel.generation or \
                            slot != entry.slot:
                        raise ReplicaProtocolError(
                            f"shm result for slot {slot} generation "
                            f"{generation} does not match the in-"
                            f"flight batch")
                    # Export the view under the lock (same rule as the
                    # send side): a concurrent retirement defers its
                    # close instead of unmapping under the read.
                    view = channel.response_ring.slot_view(slot)
                descs, consumed = unpack_descriptors(
                    payload[_SHM_SLOT.size:])
                if entry.traces:
                    span_block = _unpack_span_block(
                        payload[_SHM_SLOT.size + consumed:])
                outputs = read_tensors(view, descs)
            else:
                if entry.slot is not None:
                    # The batch went out over shm but the outputs did
                    # not fit the response slot: the replica fell back
                    # to an inline pipe result for this frame.
                    with self._cond:
                        self._shm_fallbacks += 1
                outputs, consumed = _decode_tensors(payload)
                if entry.traces:
                    span_block = _unpack_span_block(payload[consumed:])
            # The per-request split is the read side's only copy; the
            # response slot is free for reuse the moment it is done.
            results = [
                {name: array[index:index + 1].copy()
                 for name, array in outputs.items()}
                for index in range(len(requests))
            ]
        except BaseException as exc:
            if self._finish_inflight(replica, request_id) is not None:
                self._record_replica_failure(
                    replica, requests, ReplicaError(
                        f"replica {replica.index} returned an "
                        f"undecodable result: {exc}"))
            return
        if self._finish_inflight(replica, request_id) is None:
            return
        if self.latency_model is not None:
            # Tier-level calibration point: dispatch-to-completion for
            # this batch size — exactly the interval the front-end
            # assembly adds to "now" when it sizes a batch against a
            # deadline (pipe transit and replica queueing included).
            self.latency_model.observe(
                len(requests), time.monotonic() - entry.sent_at)
        if entry.traces:
            for trace in entry.traces:
                trace.mark("received", at=received_pc)
            if span_block is not None:
                self._merge_replica_spans(replica, entry, received_pc,
                                          span_block)
        completed = time.monotonic()
        latencies = [completed - request.enqueued_at
                     for request in requests]
        slo_misses = sum(1 for request in requests
                         if request.deadline_s is not None
                         and completed > request.deadline_s)
        self.recorder.record_batch(len(requests), latencies,
                                   slo_misses=slo_misses)
        if slo_misses:
            self.flightrec.record("slo_miss", replica=replica.index,
                                  count=slo_misses, size=len(requests))
        with self._cond:
            replica.completed_requests += len(requests)
            replica.completed_batches += 1
        for request, result in zip(requests, results):
            if not request.future.done():
                request.future.set_result(result)
        if entry.traces:
            completed_pc = time.perf_counter()
            tracer = self.tracer
            for trace in entry.traces:
                trace.mark("completed", at=completed_pc)
                if tracer is not None:
                    tracer.finish(trace)
        if self.slow_request_ms is not None:
            self._log_slow_requests(entry, replica, latencies)

    def _on_error(self, replica: _Replica, request_id: int,
                  stats: Tuple[int, ...], payload) -> None:
        with self._cond:
            replica.child_stats = tuple(stats)
        entry = self._finish_inflight(replica, request_id)
        if entry is None:
            return
        try:
            kind, message = _unpack_error(payload)
        except BaseException:
            kind, message = "unknown", "malformed error frame"
        self._record_replica_failure(
            replica, entry.requests,
            ReplicaError(f"replica {replica.index} failed the batch: "
                         f"{kind}: {message}"))

    def _record_replica_failure(self, replica: _Replica,
                                requests: List[InferenceRequest],
                                exc: BaseException) -> None:
        with self._cond:
            replica.failed_requests += len(requests)
        self._fail_requests(requests, exc)
