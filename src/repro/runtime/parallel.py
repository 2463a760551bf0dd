"""Shared persistent worker pool for multi-core plan execution.

The runtime's parallelism — inter-op graph scheduling in the executor and
intra-op batch sharding in the kernels — all runs on *one* process-wide
pool of daemon worker threads.  numpy's BLAS-bound kernels release the
GIL, so independent plan steps (and shards of one wide step) genuinely
overlap on multi-core hosts; everything else (scheduling bookkeeping,
small elementwise ops) serializes on the GIL and is kept deliberately
cheap.

Design rules that keep the pool deadlock-free under composition (the
serving engine runs whole batches on the pool, and each batch's executor
schedules its steps on the same pool):

* A caller that runs a plan in parallel always *participates* in its own
  run: ``Executor`` drives a claim loop on the calling thread and only
  *invites* pool workers to help.  If every pool worker is busy with
  other work, the run still completes on the caller's thread alone.
* Pool tasks never block waiting for other pool tasks to be *scheduled*;
  helpers wait only on the run's condition variable, which is always
  signalled by whichever thread (caller included) completes a step.

``REPRO_NUM_THREADS`` is the process-wide default thread count consumed
by :func:`resolve_num_threads`; ``Executor``, ``Profiler``, and
``InferenceEngine`` all resolve their ``num_threads`` knob through it, so
one environment variable turns the whole stack multi-core (the CI
threaded job runs the suite with ``REPRO_NUM_THREADS=4``).
"""

from __future__ import annotations

import os
import threading
from collections import deque
from typing import Callable, Optional

from ..telemetry import collectors as _telemetry

NUM_THREADS_ENV_VAR = "REPRO_NUM_THREADS"


def resolve_num_threads(explicit: Optional[int] = None) -> int:
    """Resolve a thread-count knob: explicit value, else the
    ``REPRO_NUM_THREADS`` environment default, else 1 (sequential)."""
    if explicit is not None:
        value = int(explicit)
    else:
        raw = os.environ.get(NUM_THREADS_ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"{NUM_THREADS_ENV_VAR} must be an integer, got {raw!r}")
    if value < 1:
        raise ValueError(f"num_threads must be >= 1, got {value}")
    return value


class WorkerPool:
    """A persistent FIFO pool of daemon worker threads.

    Unlike ``concurrent.futures.ThreadPoolExecutor`` there are no
    futures and no shutdown ceremony: tasks are plain callables expected
    to do their own error handling, workers live for the life of the
    process, and :meth:`ensure` only ever grows the pool — multiple
    subsystems sharing the pool each state the capacity they need and
    the pool settles at the maximum.
    """

    def __init__(self, name: str = "repro-pool") -> None:
        self._name = name
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._tasks: deque = deque()
        self._threads: list = []
        # Lifetime task counters, read at telemetry scrape time; both
        # increments happen under locks the pool already takes.
        self.tasks_submitted = 0
        self.tasks_completed = 0
        _telemetry.track_pool(self)

    @property
    def size(self) -> int:
        return len(self._threads)

    def ensure(self, workers: int) -> int:
        """Grow the pool to at least ``workers`` threads; returns the
        resulting size.  Never shrinks."""
        with self._lock:
            while len(self._threads) < workers:
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"{self._name}-{len(self._threads)}",
                    daemon=True)
                self._threads.append(thread)
                thread.start()
            return len(self._threads)

    def submit(self, task: Callable[[], None]) -> None:
        """Enqueue a callable; it runs on some pool worker, FIFO order."""
        with self._lock:
            self._tasks.append(task)
            self.tasks_submitted += 1
            self._cond.notify()

    def pending(self) -> int:
        with self._lock:
            return len(self._tasks)

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._tasks:
                    self._cond.wait()
                task = self._tasks.popleft()
            try:
                task()
            except BaseException:
                # Tasks own their error handling (the executor records
                # failures into its run state); a task that still leaks
                # must not kill the shared worker.
                pass
            finally:
                # Drop the task before waiting for the next: a closure
                # left bound here would keep its owner (an engine, its
                # plans and arenas) alive until this thread's next task.
                task = None
                with self._lock:
                    self.tasks_completed += 1


_shared_pool: Optional[WorkerPool] = None
_shared_pool_lock = threading.Lock()


def get_pool(ensure: Optional[int] = None) -> WorkerPool:
    """The process-wide shared pool, created on first use.

    ``ensure`` grows it to at least that many workers before returning.
    """
    global _shared_pool
    with _shared_pool_lock:
        if _shared_pool is None:
            _shared_pool = WorkerPool()
        pool = _shared_pool
    if ensure:
        pool.ensure(ensure)
    return pool
