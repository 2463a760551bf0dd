"""One memory set per worker, shared by every batch size.

``ScratchArena`` and ``Workspace.get`` pool buffers by trailing shape and
dtype and hand out leading-row views of a base grown to the largest
leading extent seen; the serving engine and the replica process run every
batch size's plan on one such pair per worker.  These tests pin the view
contract, the bitwise bar on buffers left dirty by another batch size,
and the footprint the sharing is for.
"""

import gc
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import build_model
from repro.optim import binarize, convert_fp16, quantize_int8
from repro.runtime import (
    ArenaOwnershipError,
    Executor,
    ScratchArena,
    compile_plan,
    fresh_buffers,
    kernels,
)
from repro.runtime.plan_cache import PlanCache, load_or_build
from repro.serving import InferenceEngine, ReplicaEngine


def feeds_for(graph, seed):
    rng = np.random.default_rng(seed)
    return {spec.name: rng.normal(size=spec.shape)
            .astype(spec.dtype.to_numpy()) for spec in graph.inputs}


def int8_yolo():
    graph = build_model("tiny_yolo", batch=1)
    return quantize_int8(graph, [feeds_for(graph, s) for s in range(2)])


def assert_bitwise(want, got):
    assert want.keys() == got.keys()
    for name in want:
        assert want[name].dtype == got[name].dtype
        assert want[name].shape == got[name].shape
        assert want[name].tobytes() == got[name].tobytes(), name


def address(array):
    return array.ctypes.data


# -- (1) arena: random alloc / release / detach / adopt ------------------------

TRAILING = [(), (3,), (2, 5), (4, 1, 2)]
DTYPES = [np.float32, np.int8, np.float64]

arena_ops = st.lists(
    st.tuples(st.sampled_from(["alloc", "alloc", "release", "detach",
                               "adopt", "refuse"]),
              st.integers(0, len(TRAILING) - 1),
              st.integers(0, len(DTYPES) - 1),
              st.integers(0, 9),          # leading extent / victim index
              st.booleans()),             # request a 0-d buffer
    max_size=60)


def bad_views(view):
    """Arrays cut from ``view`` that adopt() must refuse."""
    bad = []
    if view.ndim and view.shape[0] > 1:
        bad.append(view[1:])                              # offset
    if view.ndim >= 2 and view.size:
        rows = view.reshape(view.shape[0], -1)
        bad.append(rows[:, :1])        # non-contiguous, or other trailing
        bad.append(view.reshape(-1))                      # other trailing
    if view.ndim:
        bad.append(view.view(np.uint8))                   # other dtype
    return bad


class TestArenaViews:
    @settings(max_examples=150, deadline=None)
    @given(arena_ops)
    def test_random_sequences_never_alias(self, ops):
        arena = ScratchArena()
        live = []          # (view, stamp) issued and not yet returned
        escaped = []       # (view, stamp) detached: caller-owned memory
        stamp = 0

        def held_bases():
            return [view.base for view, _ in live + escaped]

        for op, trailing_i, dtype_i, number, scalar in ops:
            trailing, dtype = TRAILING[trailing_i], DTYPES[dtype_i]
            if op == "alloc":
                shape = () if scalar and not trailing \
                    else (number,) + trailing
                view = arena.alloc(shape, dtype)
                assert view.shape == shape and view.dtype == dtype
                assert view.flags["C_CONTIGUOUS"]
                base = view.base
                assert base.base is None and base.shape[1:] == trailing
                assert address(view) == address(base)
                # never a base somebody still holds, issued or escaped
                assert all(base is not held for held in held_bases())
                for other, _ in live + escaped:
                    assert not np.shares_memory(view, other)
                stamp = (stamp + 1) % 100
                view[...] = stamp
                live.append((view, stamp))
            elif op in ("release", "detach") and live:
                view, value = live.pop(number % len(live))
                assert np.all(view == value)       # nobody wrote over it
                if op == "release":
                    assert arena.release(view) is True
                    assert arena.release(view) is False   # now foreign
                else:
                    arena.detach(view)
                    assert arena.release(view) is False
                    escaped.append((view, value))
            elif op == "adopt" and escaped:
                view, value = escaped.pop(number % len(escaped))
                assert np.all(view == value)
                # (an empty view has no rows to place: refused, unpooled)
                assert arena.adopt(view) is (view.size > 0)
            elif op == "refuse":
                pooled = arena.pooled_bytes()
                for view, _ in escaped:
                    for bad in bad_views(view):
                        assert arena.adopt(bad) is False
                assert arena.adopt(np.empty((4, 6))[:, :3]) is False
                assert arena.adopt(np.empty((4, 6))[2:]) is False
                assert arena.adopt(np.empty((4, 6)).T) is False
                assert arena.adopt([1, 2, 3]) is False
                assert arena.release(np.empty(3)) is False
                assert arena.pooled_bytes() == pooled
            # accounting: base bytes, never negative, mirror in step
            stats = arena.stats
            assert stats.outstanding_bytes == sum(
                view.base.nbytes for view, _ in live)
            assert arena._pooled_nbytes == arena.pooled_bytes() >= 0
            assert stats.peak_bytes >= \
                stats.outstanding_bytes + arena.pooled_bytes()
            pooled_ids = [id(base) for bases in arena._free.values()
                          for base in bases]
            assert len(pooled_ids) == len(set(pooled_ids))
            assert not set(pooled_ids) & {id(b) for b in held_bases()}

    def test_capacity_grows_to_the_largest_leading_extent(self):
        arena = ScratchArena()
        one = arena.alloc((1, 4, 4), np.float32)
        small = address(one)
        arena.release(one)
        eight = arena.alloc((8, 4, 4), np.float32)      # outgrown: replaced
        assert eight.base.shape == (8, 4, 4)
        assert arena.stats.allocations == 2 and arena.stats.reuses == 0
        arena.release(eight)
        assert arena.pooled_bytes() == 8 * 64           # the small one is gone
        three = arena.alloc((3, 4, 4), np.float32)      # a view of the big one
        assert three.shape == (3, 4, 4)
        assert address(three) == address(eight) != small
        assert arena.stats.allocations == 2 and arena.stats.reuses == 1
        assert arena.stats.outstanding_bytes == 8 * 64  # base bytes
        arena.release(three)
        assert arena.stats.peak_bytes == 8 * 64

    def test_owning_arrays_are_still_adoptable(self):
        arena = ScratchArena()
        donated = np.empty((5, 2), dtype=np.float32)
        assert arena.adopt(donated) is True
        view = arena.alloc((2, 2), np.float32)
        assert view.base is donated
        assert arena.adopt(np.empty(())) is False       # nothing to slice

    def test_reserve_follows_the_pool_keys(self):
        arena = ScratchArena()
        assert arena.reserve((2, 6), np.float32, count=2) == 2
        assert arena.reserve((2, 6), np.float32, count=2) == 0
        # more rows on the same key: both pooled buffers are replaced
        assert arena.reserve((5, 6), np.float32, count=2) == 2
        assert arena.pooled_bytes() == 2 * 5 * 6 * 4
        before = arena.stats.allocations
        a = arena.alloc((5, 6), np.float32)
        b = arena.alloc((1, 6), np.float32)
        assert arena.stats.allocations == before
        assert not np.shares_memory(a, b)

    def test_prewarm_makes_every_batch_size_allocation_free(self):
        graph = build_model("tiny_yolo", batch=1, image_size=32)
        buffers = fresh_buffers()
        big = Executor(graph.with_batch(4), reuse_buffers=True,
                       prewarm=True, buffers=buffers)
        small = Executor(graph.with_batch(2), reuse_buffers=True,
                         prewarm=True, buffers=buffers)
        before = buffers.arena.stats.allocations
        for executor in (big, small, big):
            executor.recycle(executor.run(feeds_for(executor.graph, 0)))
        assert buffers.arena.stats.allocations == before


class TestArenaOwnership:
    def test_concurrent_misuse_fails_loudly(self):
        arena = ScratchArena()
        arena._active = threading.get_ident() + 1   # a thread mid-call
        with pytest.raises(ArenaOwnershipError):
            arena.alloc((4,), np.float32)


# -- (2) workspace -------------------------------------------------------------

class TestWorkspaceViews:
    def test_grow_then_shrink_views_one_base(self):
        ws = kernels.Workspace()
        calls = []

        def init(base):
            calls.append(base.shape)
            base.fill(0)

        one = ws.get((1, 3, 3), np.float32, "cols", init=init)
        assert calls == [(1, 3, 3)]
        eight = ws.get((8, 3, 3), np.float32, "cols", init=init)
        assert calls == [(1, 3, 3), (8, 3, 3)]          # grew: init again
        assert eight.shape == (8, 3, 3) and np.all(eight == 0)
        eight[...] = 7
        three = ws.get((3, 3, 3), np.float32, "cols", init=init)
        assert len(calls) == 2                           # a hit: never
        assert three.shape == (3, 3, 3) and three.flags["C_CONTIGUOUS"]
        assert address(three) == address(eight) != address(one)
        assert three.base is eight.base and np.all(three == 7)
        again = ws.get((8, 3, 3), np.float32, "cols", init=init)
        assert len(calls) == 2 and address(again) == address(eight)
        assert ws.allocations == 2 and ws.hits == 2
        assert ws.nbytes() == 8 * 9 * 4                  # one base, its bytes
        assert ws.peak_bytes == 8 * 9 * 4

    def test_equal_tag_other_trailing_shape_or_dtype_never_alias(self):
        ws = kernels.Workspace()
        a = ws.get((4, 6), np.float32, "t")
        b = ws.get((4, 3, 2), np.float32, "t")           # same bytes per row
        c = ws.get((4, 6), np.int32, "t")                # same itemsize
        d = ws.get((4, 6), np.float32, "u")
        for x, value in ((a, 1), (b, 2), (c, 3), (d, 4)):
            x[...] = value
        arrays = (a, b, c, d)
        for i, x in enumerate(arrays):
            assert np.all(x == i + 1)
            for y in arrays[i + 1:]:
                assert not np.shares_memory(x, y)

    def test_rank_zero_request(self):
        ws = kernels.Workspace()
        scalar = ws.get((), np.float64, "s")
        assert scalar.shape == ()
        scalar[...] = 2.5
        assert ws.get((), np.float64, "s") == 2.5


# -- (3) bitwise on dirty shared buffers ---------------------------------------

def _variant(name):
    if name == "int8":
        return int8_yolo()
    graph = build_model("tiny_convnet", batch=1)
    if name == "fp16":
        return convert_fp16(graph)
    if name == "binary":
        return binarize(graph)
    return graph


class TestDirtySharedBuffersBitwise:
    BATCHES = (8, 3, 8, 1, 5)

    def run_interleaved(self, graph_for):
        buffers = fresh_buffers()
        shared = {}
        largest_private = 0
        for turn, batch in enumerate(self.BATCHES):
            graph, plan = graph_for(batch)
            feeds = feeds_for(graph, seed=turn)
            private = Executor(graph, plan=plan, reuse_buffers=True)
            want = private.run(feeds)
            largest_private = max(
                largest_private, private.plan.arena.stats.peak_bytes
                + private.plan.workspace.nbytes())
            if batch not in shared:
                shared[batch] = Executor(graph, plan=plan,
                                         reuse_buffers=True, buffers=buffers)
            executor = shared[batch]
            assert executor.plan.arena is buffers.arena
            got = executor.run(feeds)
            assert_bitwise(want, got)
            for value in got.values():
                assert value.shape[0] == batch
            executor.recycle(got)
            # Whatever the next batch size draws from the pool is dirty.
            for bases in buffers.arena._free.values():
                for base in bases:
                    base.view(np.uint8).fill(0xA5)
        # five runs at four batch sizes cost what the largest costs alone
        assert buffers.arena.stats.peak_bytes + buffers.workspace.nbytes() \
            <= 1.1 * largest_private

    @pytest.mark.parametrize("variant", ["float", "fp16", "int8", "binary"])
    def test_interleaved_batches_match_private_executors(self, variant):
        template = _variant(variant)
        packs = {}

        def graph_for(batch):
            graph = template.with_batch(batch)
            plan = compile_plan(graph, packs=packs.get("first"))
            packs.setdefault("first", plan.packs)
            return graph, plan

        self.run_interleaved(graph_for)

    @pytest.mark.parametrize("variant", ["float", "int8"])
    def test_specialized_cached_plans(self, variant, tmp_path):
        """The AOT-specialized plans the replica tier loads (NHWC int8
        columns with a zeroed border among them)."""
        template = _variant(variant)
        cache = PlanCache(tmp_path)

        def graph_for(batch):
            model = load_or_build(template.with_batch(batch), None, cache)
            return model.graph, model.plan

        self.run_interleaved(graph_for)


# -- (4) engine and tier -------------------------------------------------------

def burst_until_batch(engine, samples, size, compiled):
    """Drive bursts until a batch of ``size`` has run (a burst coalesces
    whole inside the linger window; an engine idle for longer dispatches
    the first request alone and the rest coalesce behind it)."""
    for attempt in range(20):
        engine.infer_many([samples[i % len(samples)]
                           for i in range(size + attempt % 2)], timeout=60)
        if size in compiled():
            return
    raise AssertionError(f"no batch of {size} formed")


class TestEngineMemorySets:
    def test_every_batch_size_shares_one_set_and_one_pack_set(self):
        graph = int8_yolo()
        samples = [feeds_for(graph, seed) for seed in range(4)]
        private = Executor(graph.with_batch(8), reuse_buffers=True)
        for _ in range(2):
            private.recycle(private.run(
                {name: np.concatenate([s[name] for s in samples * 2])
                 for name in samples[0]}))
        budget = (private.plan.arena.stats.peak_bytes
                  + private.plan.workspace.nbytes())
        with InferenceEngine(graph) as engine:
            for size in range(1, 9):
                burst_until_batch(engine, samples, size,
                                  lambda: engine._compiled)
            plans = [plan for _, plan in engine._compiled.values()]
            assert len(plans) >= 8
            assert all(plan.packs is plans[0].packs for plan in plans)
            assert len(engine._workers) == 1
            worker = engine._workers[0]
            assert set(worker.executors) == set(engine._compiled)
            for executor in worker.executors.values():
                assert executor.plan.arena is worker.buffers.arena
                assert executor.plan.workspace is worker.buffers.workspace
            footprint = (worker.buffers.arena.stats.peak_bytes
                         + worker.buffers.workspace.nbytes())
            assert footprint <= 1.1 * budget
            # stats count the arena once, not once per executor
            snapshot = engine.metrics()
            assert snapshot.arena_allocations == \
                worker.buffers.arena.stats.allocations
            assert snapshot.arena_reuses == worker.buffers.arena.stats.reuses
            assert snapshot.workspace_allocations == \
                worker.buffers.workspace.allocations

    def test_two_workers_two_sets_under_a_closed_loop(self):
        graph = build_model("tiny_convnet", batch=1)
        samples = [feeds_for(graph, seed) for seed in range(8)]
        want = [Executor(graph).run(sample) for sample in samples]
        total, outstanding = 400, 32
        done = threading.Semaphore(0)
        futures = []
        with InferenceEngine(graph, workers=2) as engine:
            def submit(index):
                future = engine.infer(samples[index % len(samples)])
                future.add_done_callback(lambda _: done.release())
                futures.append(future)

            for index in range(outstanding):
                submit(index)
            for index in range(outstanding, total):
                assert done.acquire(timeout=60)
                submit(index)
            # result() re-raises an ArenaOwnershipError from any batch
            for index, future in enumerate(futures):
                got = future.result(timeout=60)
                for name, value in want[index % len(samples)].items():
                    np.testing.assert_allclose(got[name], value,
                                               rtol=1e-5, atol=1e-6)
            assert engine.metrics().failures == 0
            assert len(engine._workers) == 2
            first, second = engine._workers
            assert first.buffers.arena is not second.buffers.arena
            assert first.buffers.workspace is not second.buffers.workspace
            # single-owner arenas: every guarded call let go of its
            # worker's arena, so the next owner may take it
            for worker in engine._workers:
                assert worker.buffers.arena._active is None

    def test_closed_engine_is_freed_by_refcount(self):
        """The pool thread must not keep its last batch task (and through
        it the engine, its plans and arenas) while it waits for work."""
        graph = build_model("mlp", batch=1)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            engine = InferenceEngine(graph)
            engine.infer_sync(feeds_for(graph, 0), timeout=60)
            worker = engine._workers[0]
            refs = [weakref.ref(engine), weakref.ref(worker.buffers.arena),
                    weakref.ref(worker.executors[1]),
                    weakref.ref(worker.executors[1].plan)]
            del worker
            engine.close()
            del engine
            # close() returns when the batch's slot is back, a few
            # bytecodes before the pool thread lets go of the task.
            deadline = time.monotonic() + 10
            while any(ref() is not None for ref in refs) \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            if was_enabled:
                gc.enable()


class TestReplicaMemorySet:
    def test_smaller_batches_allocate_nothing_after_the_largest(self,
                                                                tmp_path):
        """The replica's arena counters (the stats every result frame
        carries): once a batch of 8 has run, batches of other sizes draw
        views of its buffers — no heap allocation, only reuses."""
        graph = build_model("tiny_convnet", batch=1, image_size=32)
        samples = [feeds_for(graph, seed) for seed in range(4)]
        with ReplicaEngine(graph, replicas=1, cache_dir=tmp_path) as tier:
            sizes = lambda: tier.metrics().batch_histogram
            burst_until_batch(tier, samples, 8, sizes)
            after_largest = tier.replica_stats()[0]
            for size in (3, 5, 2, 6):
                burst_until_batch(tier, samples, size, sizes)
            stats = tier.replica_stats()[0]
            assert len(sizes()) >= 5
            assert stats.child_arena_allocations == \
                after_largest.child_arena_allocations
            assert stats.child_arena_reuses > after_largest.child_arena_reuses
