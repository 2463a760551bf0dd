"""What the host is and what it can do: fingerprint, process accounting
from ``/proc``, and the measured peaks kernels are held against."""

from __future__ import annotations

import os
import platform
import resource
import signal
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional

import numpy as np

_TICK = os.sysconf("SC_CLK_TCK")


def fingerprint() -> Dict[str, object]:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
    }


def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of one live process (all threads)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mib(pid: int) -> float:
    """High-water resident set of one live process, MiB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def own_peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CpuMeter:
    """CPU seconds this process and the given children spend between
    ``start`` and ``stop``, against the wall clock."""

    def __init__(self, children: Iterable[int] = ()) -> None:
        self.children = list(children)

    def start(self) -> None:
        self._wall = time.perf_counter()
        self._own = time.process_time()
        self._child = sum(cpu_seconds(pid) for pid in self.children)

    def stop(self) -> Dict[str, float]:
        return {
            "wall_s": time.perf_counter() - self._wall,
            "parent_cpu_s": time.process_time() - self._own,
            "child_cpu_s": sum(cpu_seconds(pid)
                               for pid in self.children) - self._child,
        }


def _children() -> List[int]:
    """Pids of this process's live or unreaped children."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_children() -> None:
    """Stop every process this one started and wait until each has
    ended, so nothing of a run outlives it.

    Spawning a replica or creating a shared-memory segment starts
    ``multiprocessing``'s resource tracker, which otherwise ends only
    once it notices this process has gone — some milliseconds *after*
    the run has exited."""
    from multiprocessing import active_children, resource_tracker

    for process in active_children():
        process.terminate()
        process.join(timeout=5.0)
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        try:
            # Closes the tracker's pipe and waits for it: its own way out.
            tracker._stop()
        except (OSError, ChildProcessError):
            pass
    for pid in _children():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def _rate(work: float, body, budget_s: float) -> float:
    """Best work/second of ``body`` over about ``budget_s`` seconds."""
    best = 0.0
    end = time.perf_counter() + budget_s
    while True:
        start = time.perf_counter()
        body()
        now = time.perf_counter()
        best = max(best, work / (now - start))
        if now >= end:
            return best


def peaks(budget_s: float) -> Dict[str, float]:
    """This host's single-thread peaks, from about ``budget_s`` seconds
    of microbenchmarks: GEMM rates in both precisions the kernels use
    (the int8 path accumulates exactly in float64) and copy bandwidth."""
    n = 384
    rng = np.random.default_rng(0)
    out: Dict[str, float] = {}
    for key, dtype in (("host.sgemm_gflops", np.float32),
                       ("host.dgemm_gflops", np.float64)):
        a = rng.standard_normal((n, n)).astype(dtype)
        b = rng.standard_normal((n, n)).astype(dtype)
        c = np.empty((n, n), dtype=dtype)
        out[key] = _rate(2.0 * n ** 3 / 1e9,
                         lambda: np.matmul(a, b, out=c), budget_s / 3)
    src = np.ones(16 << 20, dtype=np.uint8)
    dst = np.empty_like(src)
    # Bytes read plus bytes written.
    out["host.memcpy_gbps"] = _rate(2.0 * src.nbytes / 1e9,
                                    lambda: np.copyto(dst, src),
                                    budget_s / 3)
    return out
