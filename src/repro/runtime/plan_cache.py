"""Persistent compiled-plan cache: pay for specialization once per model.

The paper's deployment flow compiles a model ahead of time and ships the
artifact; every later start of the runtime loads it instead of redoing
the compiler's work.  This module is that artifact store for the
reference runtime.  A cache entry persists everything
:func:`repro.runtime.plan.compile_plan` derives from a graph —

* the AOT-specialized graph itself (constant-folded per the config),
* the inferred tensor specs,
* the liveness release schedule and planned peak,
* every weight and prepacked array (``ExecutionPlan.packs``) in one flat
  binary blob, indexed by offset from ``meta.json``,

so a warm start skips graph specialization, validation, shape inference,
liveness analysis, and prepacking; only the cheap closure binding runs.
The blob is ``np.memmap``-ed read-only and every array is a zero-copy
view into the mapping — per-array container overhead (the reason an
``.npz`` was slower here than just recompiling) never appears, and
because the pages are file-backed and shared, *N* replica processes
loading the same entry reference one physical copy of the weights (the
substrate of :mod:`repro.serving.replicas`).  ``load(..., mmap=False)``
keeps the old private-copy ``np.fromfile`` read for callers that need
writable arrays.

Entries are keyed by a SHA-256 over the *original* graph's canonical
serialization (topology + attrs + raw weight bytes), the
:class:`repro.optim.passes.AOTConfig` token, and the IR/pack format
versions — change any weight, config knob, or format and the key moves,
so stale entries are never loaded.  Writes go to a temp directory first
and are published with one ``os.replace``, keeping concurrent processes
safe; any unreadable or torn entry is treated as a miss and rebuilt.

Location: ``$REPRO_PLAN_CACHE_DIR`` if set, else
``$XDG_CACHE_HOME/repro/plan-cache`` (default ``~/.cache/repro/...``).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..ir.graph import Graph
from ..ir.serialization import (
    FORMAT_VERSION,
    graph_fingerprint,
    graph_from_dict,
    graph_to_dict,
)
from ..ir.tensor import DType, TensorSpec
from .plan import (
    PACK_FORMAT_VERSION,
    ExecutionPlan,
    compile_plan,
)

CACHE_ENV_VAR = "REPRO_PLAN_CACHE_DIR"

ENTRY_FORMAT = "repro-plan"
# v2: entries persisted a dependency-counted step schedule for a
# threaded executor; v1 entries miss the version check and are rebuilt
# in place.
# v3: steps carry a layout tag (NCHW/NHWC from the layout-planner pass)
# and prepacked weights use the v2 pack format (float64 exact-GEMM
# panels, NHWC packs, NHWC row terms).  The pack version is also part of
# the cache key, so v2 entries both miss the key and fail the version
# check — either way they are rebuilt and atomically replaced in place.
# v4: exact-GEMM packs are stored under dtype-neutral names
# ("w2_exact"/"wt_exact"/"w_nhwc_exact") as float32 where the prepacker
# proved that exact, and constant batchnorms carry a scale/shift pack.
# The key is unchanged, so a v3 entry fails the version check and is
# rebuilt in place.
# v5: every exact-GEMM pack is float32 and carries "k_bounds", the int64
# reduction chunks within which the prepacker proved a float32 GEMM exact
# (one chunk for most layers); float64 packs are gone.  Same key again:
# a v4 entry — whose wide layers hold float64 packs and no bounds — fails
# the version check and is rebuilt in place.
# v6: the step schedule is gone with the threaded executor it fed.  Same
# key: a v5 entry fails the version check and is rebuilt in place.
ENTRY_VERSION = 6

_META_FILE = "meta.json"
_BLOB_FILE = "weights.bin"

# Arrays in the blob start on 64-byte boundaries so dtype views are
# aligned (and cache-line friendly) no matter what precedes them.
_BLOB_ALIGN = 64


def default_cache_dir() -> Path:
    """Resolve the cache root from the environment (see module docs)."""
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro" / "plan-cache"


@dataclass
class CacheStats:
    """Hit/miss/store counters for one :class:`PlanCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0


@dataclass
class SpecializedModel:
    """A graph + plan pair ready to execute, with cache provenance."""

    graph: Graph
    plan: ExecutionPlan
    key: str
    from_cache: bool


class PlanCache:
    """Content-addressed store of specialized graphs and their plans."""

    def __init__(self, directory: Union[str, Path, None] = None) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()
        self.stats = CacheStats()
        # Hit/miss/store counts surface in the process-wide metrics
        # registry (read at scrape time; lookups pay nothing extra).
        from ..telemetry import collectors as _telemetry
        _telemetry.track_plan_cache(self)

    # -- keys ------------------------------------------------------------------

    def key_for(self, graph: Graph, config=None) -> str:
        """Cache key for ``graph`` under ``config`` (an AOTConfig).

        Hashes the canonical serialization of the *unspecialized* graph,
        so a lookup needs nothing but the model the caller already has.
        """
        from ..optim.passes import AOTConfig

        config = config or AOTConfig()
        token = (f"{graph_fingerprint(graph)}:{config.cache_token()}"
                 f":ir={FORMAT_VERSION}:pack={PACK_FORMAT_VERSION}")
        return hashlib.sha256(token.encode("ascii")).hexdigest()

    # -- load / store ----------------------------------------------------------

    def load(self, key: str, *, mmap: bool = True
             ) -> Optional[Tuple[Graph, ExecutionPlan]]:
        """Hydrate a cached entry; None (and a counted miss) on absence
        or on any defect — a corrupt entry is just a rebuild, never an
        error.

        With ``mmap`` (the default) the weight blob is mapped read-only:
        zero copies, lazily paged, and physically shared between every
        process that loads the same entry — replica executors all run
        off one resident copy of the weights.  ``mmap=False`` reads a
        private writable copy instead (``np.fromfile``).
        """
        entry = self.directory / key
        try:
            meta = json.loads((entry / _META_FILE).read_text())
            if meta.get("format") != ENTRY_FORMAT or \
                    meta.get("version") != ENTRY_VERSION:
                raise ValueError("unsupported cache entry format")
            graph = graph_from_dict(meta["graph"], validate=False)
            specs = {
                s["name"]: TensorSpec(s["name"], tuple(s["shape"]),
                                      DType(s["dtype"]))
                for s in meta["specs"]
            }
            # One map (or read) for every weight and pack; each array
            # below is a zero-copy view into this buffer.  (An .npz here
            # costs more than recompiling: ~200 zipfile reads + crc32
            # passes.)
            blob_path = entry / _BLOB_FILE
            if blob_path.stat().st_size == 0:
                blob = np.zeros(0, dtype=np.uint8)
            elif mmap:
                blob = np.memmap(blob_path, dtype=np.uint8, mode="r")
            else:
                blob = np.fromfile(blob_path, dtype=np.uint8)

            def _view(index: List) -> np.ndarray:
                dtype_str, shape, offset, nbytes = index
                return blob[offset:offset + nbytes] \
                    .view(np.dtype(dtype_str)).reshape(tuple(shape))

            packs: Dict[str, Dict[str, np.ndarray]] = {}
            for name, dtype, *index in meta["initializers"]:
                graph.add_initializer(name, _view(index), DType(dtype))
            for node_name, entry_name, *index in meta["packs"]:
                packs.setdefault(node_name, {})[entry_name] = _view(index)
            plan = compile_plan(
                graph, specs, packs=packs,
                releases=[tuple(r) for r in meta["releases"]],
                peak_live=int(meta["peak_live_bytes"]))
        except Exception:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return graph, plan

    def store(self, key: str, graph: Graph, plan: ExecutionPlan) -> Path:
        """Persist a specialized graph + compiled plan atomically."""
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(dir=str(self.directory),
                                    prefix=f".{key[:12]}-"))
        try:
            init_index: List[List] = []
            pack_index: List[List] = []
            with open(tmp / _BLOB_FILE, "wb") as blob:

                def _append(value: np.ndarray) -> List:
                    value = np.ascontiguousarray(value)
                    pad = -blob.tell() % _BLOB_ALIGN
                    if pad:
                        blob.write(b"\x00" * pad)
                    offset = blob.tell()
                    blob.write(value.data)
                    return [str(value.dtype), list(value.shape),
                            offset, value.nbytes]

                for name in graph.initializers:
                    value = graph.initializers[name]
                    dtype = graph.initializer_dtypes.get(
                        name, DType.from_numpy(value.dtype))
                    init_index.append([name, dtype.value] + _append(value))
                for node_name in sorted(plan.packs):
                    for entry_name in sorted(plan.packs[node_name]):
                        pack_index.append(
                            [node_name, entry_name]
                            + _append(plan.packs[node_name][entry_name]))
            # The graph topology goes to JSON *without* weights; they are
            # restored from the blob at load time.  Shallow clone: the
            # serializer only reads, so nodes/specs can be shared.
            stripped = Graph(graph.name)
            stripped.inputs = list(graph.inputs)
            stripped.output_names = list(graph.output_names)
            stripped.metadata = dict(graph.metadata)
            stripped.nodes = graph.nodes
            meta = {
                "format": ENTRY_FORMAT,
                "version": ENTRY_VERSION,
                "key": key,
                "graph": graph_to_dict(stripped),
                "initializers": init_index,
                "specs": [
                    {"name": s.name, "shape": list(s.shape),
                     "dtype": s.dtype.value}
                    for s in plan.specs.values()
                ],
                "releases": [list(step.release) for step in plan.steps],
                "peak_live_bytes": int(plan.peak_live_bytes),
                "packs": pack_index,
            }
            (tmp / _META_FILE).write_text(json.dumps(meta))
            target = self.directory / key
            try:
                os.replace(tmp, target)
            except OSError:
                # Target already exists — a concurrent publish, or a
                # defective entry this process just failed to load.
                # Content addressing makes our fresh copy equivalent or
                # better, so move the old entry aside and swap ours in;
                # if even that races, keep whatever won.
                stale = self.directory / f".stale-{os.getpid()}-{key[:12]}"
                try:
                    os.replace(target, stale)
                    os.replace(tmp, target)
                except OSError:
                    shutil.rmtree(tmp, ignore_errors=True)
                shutil.rmtree(stale, ignore_errors=True)
            self.stats.stores += 1
            return target
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise

    # -- maintenance -----------------------------------------------------------

    def entries(self) -> List[Dict[str, object]]:
        """Metadata of every readable entry (for CLI ``plan-cache stats``)."""
        if not self.directory.is_dir():
            return []
        found: List[Dict[str, object]] = []
        for child in sorted(self.directory.iterdir()):
            meta_path = child / _META_FILE
            if child.name.startswith(".") or not meta_path.is_file():
                continue
            try:
                meta = json.loads(meta_path.read_text())
            except Exception:
                continue
            size = sum(f.stat().st_size for f in child.iterdir()
                       if f.is_file())
            found.append({
                "key": child.name,
                "graph": meta.get("graph", {}).get("name", "?"),
                "nodes": len(meta.get("graph", {}).get("nodes", [])),
                "packed_arrays": len(meta.get("packs", [])),
                "bytes": size,
            })
        return found

    def clear(self) -> int:
        """Delete every entry (and any orphaned temp dir); returns the
        number of entries removed."""
        if not self.directory.is_dir():
            return 0
        removed = 0
        for child in list(self.directory.iterdir()):
            if not child.is_dir():
                continue
            if not child.name.startswith("."):
                removed += 1
            shutil.rmtree(child, ignore_errors=True)
        return removed


def load_or_build(graph: Graph, config=None,
                  cache: Optional[PlanCache] = None) -> SpecializedModel:
    """The AOT entry point: cached specialized plan, or build-and-store.

    On a hit, returns the persisted specialized graph and a plan rebound
    from the cached specs/releases/packs.  On a miss, runs
    :func:`repro.optim.passes.specialize_graph`, compiles (with
    prepacking per the config), stores the entry, and returns the cold
    result.  Either way the returned plan executes bitwise-identically
    to interpreting the original graph.
    """
    from ..optim.passes import AOTConfig, specialize_graph

    config = config or AOTConfig()
    cache = cache if cache is not None else PlanCache()
    key = cache.key_for(graph, config)
    loaded = cache.load(key)
    if loaded is not None:
        warm_graph, warm_plan = loaded
        return SpecializedModel(warm_graph, warm_plan, key, from_cache=True)
    specialized = specialize_graph(graph, config)
    plan = compile_plan(specialized, prepack=config.prepack)
    cache.store(key, specialized, plan)
    return SpecializedModel(specialized, plan, key, from_cache=False)
