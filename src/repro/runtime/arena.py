"""Scratch arenas: recycled activation buffers for steady-state inference.

The memory planner (repro.optim.memory_planner) proves how small the live
set of a plan can be; this module makes repeated execution actually *stay*
there.  A :class:`ScratchArena` is a pool of previously-used activation
buffers.  The executor allocates every node output through the arena and
returns each intermediate to it the moment the liveness schedule declares
it dead, so after a warmup run every "allocation" is a recycled buffer
and steady-state inference performs no large heap allocations at all —
the behaviour of a static arena on an embedded target (paper Sec. II-B),
reproduced on the host runtime.

Buffers are pooled by **trailing shape and dtype**; the leading extent
(the batch axis of every activation) is a capacity, not part of the key.
The pool holds owning *base* arrays, and :meth:`ScratchArena.alloc`
hands out the leading-row view ``base[:n]`` — C-contiguous, starting at
the base address, of exactly the requested shape, so a kernel cannot
tell it from a private buffer.  A pooled base with fewer rows than a
request is replaced by one that has enough, so capacity settles at the
largest leading extent seen.  One arena therefore serves every batch
size a worker runs: a batch-3 run draws views of the buffers the
batch-8 run left behind instead of owning a second set.  Byte counters
(``outstanding_bytes``, ``peak_bytes``, ``pooled_bytes()``) count base
bytes — the memory actually held — not view bytes.

Ownership rules keep recycling safe:

* only the views handed out by :meth:`ScratchArena.alloc` are accepted
  back by :meth:`release`, which returns the view's base to the pool (a
  graph-input feed dying in the liveness schedule is silently ignored,
  never pooled);
* graph outputs are :meth:`detach`-ed before they escape to the caller,
  and can be explicitly returned later via :meth:`adopt` (what the
  serving engine does after splitting a batch into per-request copies).
  ``adopt`` takes an owning C-contiguous array or a leading-row view of
  one — the form outputs leave in — and refuses everything else (offset
  or reshaped views, other dtypes, non-contiguous arrays), because
  pooling the base of such a view would alias memory the caller still
  addresses through it;
* an arena is **single-owner by default**: every mutating call carries a
  cheap in-use assertion, so two threads recycling through one arena
  concurrently raise :class:`ArenaOwnershipError` instead of silently
  corrupting the free pool.  The parallel executor's activation buffers
  genuinely cross threads (a branch computed on worker A is consumed and
  released on worker B), so it opts its arena into *shared* mode
  (:meth:`ScratchArena.share`), which replaces the assertion with a real
  lock.  Intra-kernel scratch never crosses threads and stays private:
  each pool worker draws from its own :class:`WorkerSlices` slice.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..telemetry import collectors as _telemetry


class ArenaOwnershipError(RuntimeError):
    """Concurrent use of a single-owner arena (see module docs)."""

# Allocations above this many bytes count as "large" in the stats — the
# threshold the batch-scaling acceptance check asserts against.
LARGE_ALLOCATION_BYTES = 1 << 20


@dataclass
class ArenaStats:
    """Counters describing how an arena has been used.

    ``allocations`` increments only when a request misses the free pool
    and real memory is obtained from the heap; a steady-state workload
    therefore shows a flat ``allocations`` (and ``large_allocations``)
    count while ``reuses`` keeps growing.
    """

    allocations: int = 0
    allocated_bytes: int = 0
    large_allocations: int = 0
    reuses: int = 0
    reused_bytes: int = 0
    releases: int = 0
    foreign_releases: int = 0
    # Live-footprint accounting: ``outstanding_bytes`` is the sum of
    # buffers currently checked out; ``peak_bytes`` is the high-water
    # mark of outstanding + pooled bytes — the arena's real memory
    # footprint at its worst moment.  ``clear()`` resets the live
    # numbers but keeps the peak (it happened).
    outstanding_bytes: int = 0
    peak_bytes: int = 0

    def snapshot(self) -> "ArenaStats":
        return replace(self)


class ScratchArena:
    """A free-list pool of activation buffers keyed by (trailing shape,
    dtype); requests receive leading-row views (see module docs)."""

    def __init__(self, large_threshold: int = LARGE_ALLOCATION_BYTES) -> None:
        self.large_threshold = int(large_threshold)
        self.stats = ArenaStats()
        # Incremental mirror of pooled_bytes() so peak accounting costs
        # one add per mutation instead of a free-list walk.
        self._pooled_nbytes = 0
        # Owning base arrays, any leading extent, per pool key.
        self._free: Dict[Tuple[Tuple[int, ...], str], List[np.ndarray]] = {}
        # Strong references to every view currently checked out (a view
        # keeps its base alive through ``.base``).  Keying by id() is
        # safe exactly because the reference is strong: an id cannot be
        # recycled while the array it names is still held here.
        self._issued: Dict[int, np.ndarray] = {}
        # Single-owner guard state: None until shared.  ``_active`` holds
        # the thread currently inside a mutating call; a second thread
        # entering while it is set is concurrent misuse.
        self._lock: "threading.Lock | None" = None
        self._active: "int | None" = None
        # Scrape-time telemetry: the registry reads this arena's stats
        # through a weak reference; the alloc/release paths pay nothing.
        _telemetry.track_arena(self)

    def share(self) -> "ScratchArena":
        """Opt into thread-safe shared mode: mutating calls serialize on
        a lock instead of asserting single ownership.  Idempotent."""
        if self._lock is None:
            self._lock = threading.Lock()
        return self

    @property
    def is_shared(self) -> bool:
        return self._lock is not None

    def _enter(self) -> bool:
        """Begin a mutating call; returns True when a lock was taken."""
        lock = self._lock
        if lock is not None:
            lock.acquire()
            return True
        me = threading.get_ident()
        holder = self._active
        if holder is not None and holder != me:
            raise ArenaOwnershipError(
                "ScratchArena used concurrently from multiple threads; "
                "arenas are single-owner — call share() for thread-safe "
                "use, or give each worker its own arena")
        self._active = me
        return False

    def _exit(self, locked: bool) -> None:
        if locked:
            self._lock.release()
        else:
            self._active = None

    @staticmethod
    def pool_key(shape, dtype) -> Tuple[int, Tuple[Tuple[int, ...], str]]:
        """``(rows, key)`` of a request: its leading extent and the
        (trailing shape, dtype) pool it draws from.  A 0-d request is
        one row of the 1-d pool."""
        shape = tuple(int(d) for d in shape)
        return (shape[0] if shape else 1), (shape[1:], np.dtype(dtype).str)

    def _new_base(self, rows: int, key) -> np.ndarray:
        base = np.empty((rows,) + key[0], dtype=np.dtype(key[1]))
        self.stats.allocations += 1
        self.stats.allocated_bytes += base.nbytes
        if base.nbytes > self.large_threshold:
            self.stats.large_allocations += 1
        return base

    def _pool(self, base: np.ndarray) -> None:
        self._free.setdefault((base.shape[1:], base.dtype.str),
                              []).append(base)
        self._pooled_nbytes += base.nbytes

    def alloc(self, shape, dtype) -> np.ndarray:
        """Return an uninitialized buffer, recycled when possible."""
        rows, key = self.pool_key(shape, dtype)
        locked = self._enter()
        try:
            free = self._free.get(key)
            base = None
            if free:
                base = free.pop()
                self._pooled_nbytes -= base.nbytes
            if base is not None and base.shape[0] >= rows:
                self.stats.reuses += 1
                self.stats.reused_bytes += base.nbytes
            else:
                # A miss, or a pooled base this request has outgrown:
                # that one is dropped, its replacement has the rows.
                base = self._new_base(rows, key)
            view = base[:rows]
            if not len(shape):
                view = view.reshape(())
            self._issued[id(view)] = view
            self.stats.outstanding_bytes += base.nbytes
            self._note_peak()
            return view
        finally:
            self._exit(locked)

    def reserve(self, shape, dtype, count: int = 1) -> int:
        """Pre-populate the free pool up to ``count`` buffers of this
        key, each with room for ``shape``'s leading extent (pooled
        buffers with fewer rows are replaced).

        Used by plan prewarm so even the first run draws recycled
        buffers.  The heap memory obtained here is counted in the
        allocation stats (it is real memory), but it is acquired before
        steady state begins.  Returns how many buffers were added.
        """
        rows, key = self.pool_key(shape, dtype)
        locked = self._enter()
        try:
            free = self._free.setdefault(key, [])
            added = 0
            for index, base in enumerate(free):
                if base.shape[0] < rows:
                    self._pooled_nbytes -= base.nbytes
                    free[index] = base = self._new_base(rows, key)
                    self._pooled_nbytes += base.nbytes
                    added += 1
            while len(free) < count:
                self._pool(self._new_base(rows, key))
                added += 1
            self._note_peak()
            return added
        finally:
            self._exit(locked)

    def release(self, array: np.ndarray) -> bool:
        """Return a dead tensor to the pool; ignores arrays we never issued."""
        locked = self._enter()
        try:
            issued = self._issued.pop(id(array), None)
            if issued is None:
                self.stats.foreign_releases += 1
                return False
            base = issued.base
            self.stats.releases += 1
            self.stats.outstanding_bytes -= base.nbytes
            self._pool(base)
            return True
        finally:
            self._exit(locked)

    def detach(self, array: np.ndarray) -> None:
        """Stop tracking an issued buffer (it escapes to the caller)."""
        locked = self._enter()
        try:
            issued = self._issued.pop(id(array), None)
            if issued is not None:
                self.stats.outstanding_bytes -= issued.base.nbytes
        finally:
            self._exit(locked)

    @staticmethod
    def _adoptable_base(array) -> "np.ndarray | None":
        """The owning base ``array`` may be pooled as: itself, or the
        base it is a leading-row view of; None for anything else."""
        if not isinstance(array, np.ndarray) \
                or not array.flags["C_CONTIGUOUS"]:
            return None
        base = array.base
        if base is None:
            return array if array.ndim else None
        # A contiguous run of whole rows of ``base`` is the leading one
        # exactly when it overlaps row 0 (a bounds test: reading either
        # address costs several times as much).
        if isinstance(base, np.ndarray) and base.base is None \
                and base.ndim and base.flags["C_CONTIGUOUS"] \
                and base.dtype == array.dtype \
                and base.shape[1:] == array.shape[1:] \
                and np.may_share_memory(array, base[:1]):
            return base
        return None

    def adopt(self, array: np.ndarray) -> bool:
        """Donate a caller-owned array to the pool (explicit recycle):
        an owning base, or a leading-row view of one (see module docs)."""
        base = self._adoptable_base(array)
        if base is None:
            return False
        locked = self._enter()
        try:
            self.stats.releases += 1
            self._pool(base)
            self._note_peak()
            return True
        finally:
            self._exit(locked)

    def _note_peak(self) -> None:
        live = self.stats.outstanding_bytes + self._pooled_nbytes
        if live > self.stats.peak_bytes:
            self.stats.peak_bytes = live

    def pooled_bytes(self) -> int:
        return sum(buf.nbytes for bufs in self._free.values() for buf in bufs)

    def clear(self) -> None:
        locked = self._enter()
        try:
            self._free.clear()
            self._issued.clear()
            self._pooled_nbytes = 0
            self.stats.outstanding_bytes = 0
        finally:
            self._exit(locked)


class WorkerSlices:
    """Per-worker-thread scratch slices for parallel execution.

    Kernel workspaces (im2col columns, padded inputs, accumulators) are
    keyed by shape, so two threads running equal-shaped kernels through
    one workspace would silently trample each other's scratch.  This
    container gives every pool worker its own lazily-created slice,
    keyed by thread identity; slices persist across runs, so per-worker
    scratch reaches the same allocate-once steady state as the
    sequential path.
    """

    def __init__(self, factory: Callable[[], object]) -> None:
        self._factory = factory
        self._slices: Dict[int, object] = {}
        self._lock = threading.Lock()

    def get(self) -> object:
        """The calling thread's slice, created on first use."""
        ident = threading.get_ident()
        slice_ = self._slices.get(ident)
        if slice_ is None:
            with self._lock:
                slice_ = self._slices.get(ident)
                if slice_ is None:
                    slice_ = self._factory()
                    self._slices[ident] = slice_
        return slice_

    def __len__(self) -> int:
        return len(self._slices)

    def values(self):
        return list(self._slices.values())


class RunContext:
    """Per-execution handle the bound kernels allocate through.

    Carries the plan instance's arena (inter-node activation buffers) and
    kernel workspace (intra-kernel scratch such as im2col columns).  A
    builder that receives ``ctx=None`` must fall back to plain allocating
    behaviour, so compiled steps stay usable without an arena.
    """

    __slots__ = ("arena", "workspace")

    def __init__(self, arena: ScratchArena, workspace) -> None:
        self.arena = arena
        self.workspace = workspace

    def alloc(self, shape, dtype) -> np.ndarray:
        return self.arena.alloc(shape, dtype)
