"""Shared persistent worker pool.

The serving engine (:class:`repro.serving.engine.InferenceEngine`) runs
its batches on *one* process-wide pool of daemon worker threads.
numpy's BLAS-bound kernels release the GIL, so batches on different
workers can overlap; the pool itself is deliberately minimal — plain
callables, FIFO order, no futures, no shutdown ceremony.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Optional

from ..telemetry import collectors as _telemetry


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
                # Tasks own their error handling (the engine records
                # failures on the batch's futures); a task that still leaks
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
