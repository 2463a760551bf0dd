"""The memory-bound kernels: fold max pooling, two-pass activations,
in-place (re)quantization, and the exact-float32 quantized GEMM.

Each fast form is held bitwise against the formulation it replaced,
written out here as the seed wrote it: a gathered-window reduction for
pooling, ``np.where`` for leaky_relu, chained temporaries for the
quantize/dequantize/requantize arithmetic, int64 matmuls for the GEMMs.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import build_model
from repro.ir.graph import Graph
from repro.ir.tensor import DType, TensorSpec
from repro.optim import quantize_int8
from repro.runtime import (
    Executor,
    PlanCache,
    QuantParams,
    build_requant_plan,
    compile_plan,
    kernels,
    load_or_build,
)
from repro.runtime.plan import _exact_k_bounds
from repro.runtime.plan_cache import ENTRY_VERSION
from repro.runtime.quantized import RequantPlan

# One sign of zero only: with both, numpy's *own* max reduction returns
# either sign depending on its SIMD width (see _pool2d's docstring), so
# strict bit equality against it is only defined without the mix.
SPECIALS = [0.0, 1.0, -1.0, np.nan, np.inf, -np.inf, 6e-8, -6e-8, 0.5, -2.5]
SPECIALS_SIGNED_ZERO = SPECIALS + [-0.0]
# The mean sums: +-3e38 overflows float32 (and is inf in float16).
MEAN_SPECIALS = SPECIALS + [3e38, -3e38]


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def special_array(rng, shape, dtype, pool=SPECIALS):
    return rng.choice(np.array(pool, dtype=np.float64), size=shape) \
        .astype(dtype)


def window_pool(data, kernel, stride, padding, reducer, pad_value, nhwc):
    """The seed's pooling: pad, gather kh*kw strided views into a window
    buffer in i*kw + j order, reduce its last axis."""
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    ya, xa = (1, 2) if nhwc else (2, 3)
    widths = [(0, 0)] * 4
    widths[ya], widths[xa] = (ph, ph), (pw, pw)
    data = np.pad(data, widths, constant_values=pad_value)
    oh = (data.shape[ya] - kh) // sh + 1
    ow = (data.shape[xa] - kw) // sw + 1
    views = []
    for i in range(kh):
        for j in range(kw):
            index = [slice(None)] * 4
            index[ya] = slice(i, i + sh * oh, sh)
            index[xa] = slice(j, j + sw * ow, sw)
            views.append(data[tuple(index)])
    windows = np.empty(views[0].shape + (kh * kw,), dtype=data.dtype)
    for idx, view in enumerate(views):
        windows[..., idx] = view
    return reducer(windows, axis=-1)


# Kernels reaching every branch of numpy's pairwise sum, which the mean
# fold replays: one element, the left fold (2-7), eight lanes (8-128,
# with and without a tail of n % 8), one split (129-256) and two (300).
SCHEDULE_KERNELS = [(1, 1), (1, 2), (2, 2), (2, 3), (1, 7), (2, 4), (3, 3),
                    (3, 5), (4, 4), (5, 5), (8, 8), (9, 9), (12, 12),
                    (13, 13), (12, 25)]


@st.composite
def pool_geometry(draw):
    kernel = draw(st.one_of(
        st.tuples(st.integers(1, 4), st.integers(1, 4)),
        st.sampled_from(SCHEDULE_KERNELS)))
    stride = tuple(draw(st.integers(1, max(3, k // 3))) for k in kernel)
    padding = tuple(draw(st.integers(0, 2)) for _ in kernel)
    hw = tuple(draw(st.integers(max(4, k - 2 * p), max(11, k + 3)))
               for k, p in zip(kernel, padding))
    return (draw(st.sampled_from([np.float16, np.float32, np.float64])),
            draw(st.booleans()),                          # NHWC
            draw(st.sampled_from([1, 8])),                # batch
            kernel, stride, padding, hw,
            draw(st.integers(0, 2 ** 32 - 1)))


def pool_input(rng, dtype, nhwc, batch, hw, special, pool=SPECIALS):
    shape = (batch,) + hw + (3,) if nhwc else (batch, 3) + hw
    if special:
        return special_array(rng, shape, dtype, pool)
    return rng.normal(size=shape).astype(dtype)


class TestMaxPoolFold:
    """Left fold of np.maximum over the strided views == np.max over the
    gathered window, bit for bit: kernel != stride, overlapping windows,
    asymmetric padding, three float widths, both layouts."""

    @settings(max_examples=120, deadline=None)
    @given(pool_geometry(), st.booleans())
    def test_fold_matches_window_reduction(self, geometry, special):
        dtype, nhwc, batch, kernel, stride, padding, hw, seed = geometry
        rng = np.random.default_rng(seed)
        data = pool_input(rng, dtype, nhwc, batch, hw, special)
        want = window_pool(data, kernel, stride, padding, np.max, -np.inf,
                           nhwc)
        fn = kernels.maxpool2d_nhwc if nhwc else kernels.maxpool2d
        assert_bitwise(fn(data, kernel, stride, padding), want)
        # Scratch form: caller's out, padding drawn from a dirty workspace.
        ws = kernels.Workspace()
        for _ in range(2):
            out = np.full(want.shape, 7, dtype=dtype)
            got = fn(data, kernel, stride, padding, out=out, workspace=ws)
            assert got is out
            assert_bitwise(got, want)
            for buf in ws._buffers.values():
                buf.fill(0x5A)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [(2, 2), (3, 3), (5, 5), (13, 13)])
    def test_mixed_zero_signs_only_move_the_sign_of_zero(self, dtype,
                                                         kernel):
        """With +0 and -0 in one window numpy's SIMD max reduction (taken
        for wide windows) picks a sign by lane order; the fold is the
        scalar reduction's left-to-right answer.  Nothing but the sign of
        a zero maximum may differ."""
        rng = np.random.default_rng(kernel[0])
        data = special_array(rng, (2, 3, 17, 19), dtype,
                             SPECIALS_SIGNED_ZERO)
        pad = (kernel[0] // 2, kernel[1] // 2)
        want = window_pool(data, kernel, (1, 1), pad, np.max, -np.inf,
                           False)
        got = kernels.maxpool2d(data, kernel, 1, pad)
        unsigned = f"u{np.dtype(dtype).itemsize}"
        same = got.view(unsigned) == want.view(unsigned)
        assert np.all(same | ((got == 0) & (want == 0)))
        # ... and the fold itself is exactly the sequential reduction.
        windows = window_pool(data, kernel, (1, 1), pad,
                              lambda w, axis: w, -np.inf, False)
        sequential = windows[..., 0].copy()
        for idx in range(1, windows.shape[-1]):
            sequential = np.maximum(sequential, windows[..., idx])
        assert_bitwise(got, sequential)

    def test_max_path_keeps_no_window_buffer(self):
        ws = kernels.Workspace()
        data = np.ones((8, 16, 32, 32), dtype=np.float32)
        out = np.empty((8, 16, 16, 16), dtype=np.float32)
        kernels.maxpool2d(data, 2, out=out, workspace=ws)
        assert ws.nbytes() == 0          # unpadded: no scratch at all
        kernels.maxpool2d(data, 3, 2, 1, out=out, workspace=ws)
        assert ws.nbytes() == 8 * 16 * 34 * 34 * 4   # the padded input only

    @settings(max_examples=80, deadline=None)
    @given(pool_geometry(), st.booleans())
    def test_avgpool_still_the_window_mean(self, geometry, special):
        """avgpool2d folds numpy's pairwise schedule over the strided
        views; its bits are still np.mean's over the gathered window."""
        dtype, nhwc, batch, kernel, stride, padding, hw, seed = geometry
        rng = np.random.default_rng(seed)
        with np.errstate(all="ignore"):
            data = pool_input(rng, dtype, nhwc, batch, hw, special,
                              MEAN_SPECIALS)
            want = window_pool(data, kernel, stride, padding, np.mean, 0.0,
                               nhwc)
            windows = window_pool(data, kernel, stride, padding,
                                  lambda w, axis: w, 0.0, nhwc)
            fn = kernels.avgpool2d_nhwc if nhwc else kernels.avgpool2d
            assert_mean_bitwise(fn(data, kernel, stride, padding), want,
                                windows)
            # The out= form returns the same bits: float16 sums in float32
            # and rounds once, as np.mean does without out=.
            out = np.empty(want.shape, dtype=dtype)
            got = fn(data, kernel, stride, padding, out=out,
                     workspace=kernels.Workspace())
        assert got is out
        assert_mean_bitwise(got, want, windows)


def assert_mean_bitwise(got, want, windows):
    """Bitwise equality, except the sign of a NaN where NaNs of both signs
    meet in a window: a +NaN input and a -NaN one, or a NaN input and the
    NaN of +inf + -inf (infinite inputs, or sums that overflow the
    accumulator), which takes the host's default sign.  Which operand's
    NaN an addition keeps depends on how numpy's C loop was compiled."""
    assert got.dtype == want.dtype and got.shape == want.shape
    unsigned = f"u{got.itemsize}"
    differ = got.view(unsigned) != want.view(unsigned)
    nan = np.isnan(windows)
    negative = np.signbit(windows)
    limit = np.finfo(np.float32 if windows.dtype == np.float16
                     else windows.dtype).max
    with np.errstate(all="ignore"):
        wide = windows.astype(np.float64)
        positive = np.where(wide > 0, wide, 0).sum(-1) > limit
        below = np.where(wide < 0, wide, 0).sum(-1) < -limit
    mixed = ((nan & negative).any(-1) & (nan & ~negative).any(-1)) \
        | (nan.any(-1) & positive & below)
    assert not np.any(differ & ~(mixed & np.isnan(got) & np.isnan(want)))


class TestMeanPoolFold:
    """The mean fold against np.mean over the gathered window, on every
    branch of the schedule, and its scratch."""

    @pytest.mark.parametrize("kernel", SCHEDULE_KERNELS)
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("nhwc", [False, True])
    def test_every_branch_of_the_schedule(self, kernel, dtype, nhwc):
        rng = np.random.default_rng(kernel[0] * 31 + kernel[1])
        hw = (kernel[0] + 5, kernel[1] + 4)
        fn = kernels.avgpool2d_nhwc if nhwc else kernels.avgpool2d
        ws = kernels.Workspace()
        for stride, padding in [((1, 1), (0, 0)), (kernel, (0, 0)),
                                ((2, 1), (kernel[0] // 2, kernel[1] // 2))]:
            for special in (False, True):
                with np.errstate(all="ignore"):
                    data = pool_input(rng, dtype, nhwc, 2, hw, special,
                                      MEAN_SPECIALS)
                    want = window_pool(data, kernel, stride, padding,
                                       np.mean, 0.0, nhwc)
                    windows = window_pool(data, kernel, stride, padding,
                                          lambda w, axis: w, 0.0, nhwc)
                    got = fn(data, kernel, stride, padding)
                    planned = fn(data, kernel, stride, padding,
                                 out=np.empty(want.shape, dtype),
                                 workspace=ws)
                assert_mean_bitwise(got, want, windows)
                assert_mean_bitwise(planned, want, windows)

    def test_negative_zero_windows_average_to_positive_zero(self):
        """np.add.reduce starts from +0, so an all -0 window sums to +0."""
        for kernel in [(1, 1), (2, 2), (3, 3), (12, 12)]:
            data = np.full((1, 2) + kernel, -0.0, dtype=np.float32)
            want = window_pool(data, kernel, kernel, (0, 0), np.mean, 0.0,
                               False)
            assert not np.signbit(want).any()
            assert_bitwise(kernels.avgpool2d(data, kernel), want)

    def test_fp16_graph_same_bits_planned_and_unplanned(self):
        """An fp16 graph's avgpool: the engine's planned path (reuse_buffers)
        returns the allocating Executor's bits."""
        from repro.ir.builder import GraphBuilder
        from repro.optim import convert_fp16

        b = GraphBuilder("fp16_pool")
        x = b.input("input", (1, 4, 58, 58))
        g = convert_fp16(b.finish(b.avgpool2d(x, 3, stride=1)))
        rng = np.random.default_rng(11)
        feeds = {g.inputs[0].name: rng.normal(
            size=g.inputs[0].shape).astype(np.float16)}
        want = Executor(g).run(feeds)
        got = Executor(g, reuse_buffers=True).run(feeds)
        for name, value in want.items():
            assert value.dtype == np.float16
            assert_bitwise(got[name], value)

    def test_shared_workspace_across_batch_sizes(self):
        """One workspace interleaving batch sizes and geometries returns a
        fresh workspace's bits every call, and keeps no window buffer."""
        rng = np.random.default_rng(12)
        geometries = [((13, 13), (2, 2), (6, 6), np.float32),
                      ((3, 5), (1, 2), (1, 2), np.float16)]
        shared = kernels.Workspace()
        for batch in (8, 3, 8, 1):
            for kernel, stride, padding, dtype in geometries:
                data = rng.normal(size=(batch, 3, 20, 21)).astype(dtype)
                want = kernels.avgpool2d(data, kernel, stride, padding,
                                         out=None,
                                         workspace=kernels.Workspace())
                got = kernels.avgpool2d(data, kernel, stride, padding,
                                        out=np.empty_like(want),
                                        workspace=shared)
                assert_bitwise(got, want)
                for buf in shared._buffers.values():
                    buf.fill(0x5A)
        tags = {key[1] for key in shared._buffers}
        assert "pool_windows" not in tags
        assert tags <= {"pool_pad", "pool_acc"} | {
            tag for tag in tags if tag.startswith("pool_sum")}

    def test_tiny_convnet_allocates_nothing_after_warmup(self):
        g = build_model("tiny_convnet", batch=8)
        assert any(n.op_type == "avgpool2d" for n in g.nodes)
        rng = np.random.default_rng(13)
        feeds = {g.inputs[0].name: rng.normal(
            size=g.inputs[0].shape).astype(np.float32)}
        reference = Executor(g).run(feeds)
        executor = Executor(g, reuse_buffers=True)
        executor.recycle(executor.run(feeds))
        arena, workspace = executor.plan.arena, executor.plan.workspace
        before = arena.stats.allocations
        scratch_allocations = workspace.allocations
        for _ in range(2):
            got = executor.run(feeds)
            for tensor, value in reference.items():
                assert_bitwise(got[tensor], value)
            executor.recycle(got)
        assert arena.stats.allocations == before
        assert workspace.allocations == scratch_allocations


class TestTwoPassLeakyRelu:
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("alpha", [1e-3, 0.1, 1.0])
    def test_matches_where_form(self, dtype, alpha):
        rng = np.random.default_rng(3)
        tiny = np.finfo(dtype).smallest_subnormal
        for data in (rng.normal(size=4096).astype(dtype) * 3,
                     special_array(rng, 4096, dtype, SPECIALS_SIGNED_ZERO),
                     np.array([tiny, -tiny, 3 * tiny, -3 * tiny], dtype)):
            want = np.where(data >= 0, data, alpha * data)
            out = np.full(data.shape, 9, dtype=dtype)
            assert kernels.apply_activation("leaky_relu", data, out,
                                            alpha=alpha)
            assert_bitwise(out, want)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.5])
    def test_slope_outside_unit_interval_keeps_where_form(self, alpha):
        """max(slope * x, x) is leaky_relu only for 0 < slope <= 1; a
        zero slope already fails at +inf (0 * inf is NaN)."""
        data = np.linspace(-4, 4, 64, dtype=np.float32)
        data[-1] = np.inf
        out = np.empty_like(data)
        assert not kernels.apply_activation("leaky_relu", data, out,
                                            alpha=alpha)
        g = Graph("leaky")
        g.add_input(TensorSpec("x", (1, 64)))
        g.add_node("leaky_relu", ["x"], ["y"], alpha=alpha)
        g.set_outputs(["y"])
        feeds = {"x": data.reshape(1, 64)}
        with np.errstate(invalid="ignore"):
            want = np.where(data >= 0, data, alpha * data).reshape(1, 64)
            for executor in (Executor(g), Executor(g, reuse_buffers=True)):
                assert_bitwise(executor.run(feeds)["y"], want)

    def test_never_aliases_its_input(self):
        data = np.linspace(-1, 1, 8, dtype=np.float32)
        assert not kernels.apply_activation("leaky_relu", data, data)

    def test_fused_conv_epilogue_matches_allocating_form(self):
        """The arena path routes a leaky_relu-fused conv through the
        transient twin and writes the arena buffer once; the allocating
        path applies the np.where reference to the conv's result."""
        from repro.optim import fuse_graph
        g = fuse_graph(build_model("tiny_yolo", batch=2, image_size=32))
        assert any(n.attrs.get("activation") == "leaky_relu"
                   for n in g.nodes)
        rng = np.random.default_rng(5)
        feeds = {g.inputs[0].name: rng.normal(
            size=g.inputs[0].shape).astype(np.float32)}
        want = Executor(g).run(feeds)
        executor = Executor(g, reuse_buffers=True, prewarm=True)
        baseline = executor.plan.arena.stats.snapshot()
        for _ in range(2):
            got = executor.run(feeds)
            for name, value in want.items():
                assert_bitwise(got[name], value)
            executor.recycle(got)
        assert executor.plan.arena.stats.allocations == baseline.allocations


def seed_quantize(real, scale, zero, qmin, qmax, dtype):
    q = np.round(real.astype(np.float64) / scale) + zero
    return np.clip(q, qmin, qmax).astype(dtype)


def seed_requant(acc, plan):
    real = acc * plan.multiplier
    if plan.bias is not None:
        real = real + plan.bias
    real = real.astype(np.float32)
    if plan.activation is not None:
        real = plan.activation(real)
    return seed_quantize(real, plan.out_scale, plan.out_zero, plan.qmin,
                         plan.qmax, plan.out_dtype)


class RecordingWorkspace(kernels.Workspace):
    """Notes the dtype of every transient buffer a kernel asks for."""

    def transient(self, shape, dtype, tag):
        self.__dict__.setdefault("seen", []).append((tag, np.dtype(dtype)))
        return super().transient(shape, dtype, tag)


def dirty(workspace):
    for buf in workspace._buffers.values():
        buf.fill(0xA5)


class TestInPlaceQuantization:
    PARAMS = [
        QuantParams(np.array(0.037), np.array(-5)),
        QuantParams(np.array(0.02), np.array(131), DType.UINT8),
        QuantParams(np.array([0.5, 0.01, 0.2]), np.array([0, 3, -7]),
                    channel_axis=1),
    ]

    @pytest.mark.parametrize("params", PARAMS)
    def test_quantize_dequantize_forms_agree(self, params):
        rng = np.random.default_rng(8)
        real = (rng.normal(size=(4, 3, 9, 5)) * 3).astype(np.float32)
        scale, zero = params.broadcast_for(4)
        want_q = seed_quantize(real, scale, zero, params.qmin, params.qmax,
                               params.dtype.to_numpy())
        want_real = ((want_q.astype(np.float64) - zero) * scale) \
            .astype(np.float32)
        assert_bitwise(params.quantize(real), want_q)
        assert_bitwise(params.dequantize(want_q), want_real)
        ws = kernels.Workspace()
        for _ in range(2):
            q_out = np.empty(real.shape, dtype=want_q.dtype)
            assert params.quantize(real, out=q_out, workspace=ws) is q_out
            assert_bitwise(q_out, want_q)
            dirty(ws)
            r_out = np.empty(real.shape, dtype=np.float32)
            assert params.dequantize(want_q, out=r_out,
                                     workspace=ws) is r_out
            assert_bitwise(r_out, want_real)
            dirty(ws)

    @pytest.mark.parametrize("activation,alpha", [
        (None, None), ("relu", None), ("leaky_relu", 0.2),
        ("leaky_relu", 1.7), ("sigmoid", None), ("hardswish", None)])
    @pytest.mark.parametrize("acc_dtype", [np.int32, np.float32, np.float64])
    def test_requant_forms_agree(self, activation, alpha, acc_dtype):
        rng = np.random.default_rng(9)
        data_p = QuantParams(np.array(0.05), np.array(3))
        weight_p = QuantParams(rng.uniform(0.001, 0.01, size=6),
                               np.zeros(6, dtype=np.int64), channel_axis=0)
        out_p = QuantParams(np.array(0.11), np.array(-4))
        bias = rng.normal(size=6).astype(np.float32)
        plan = build_requant_plan(data_p, weight_p, bias, out_p, 4,
                                  activation=activation,
                                  activation_alpha=alpha)
        acc = rng.integers(-40000, 40000, size=(2, 6, 7, 5)) \
            .astype(acc_dtype)
        want = seed_requant(acc, plan)
        kept = acc.copy()
        assert_bitwise(plan(acc), want)
        assert_bitwise(acc, kept)         # reference form leaves acc alone
        ws = kernels.Workspace()
        for _ in range(2):
            out = np.empty(acc.shape, dtype=np.int8)
            assert plan(acc.copy(), out=out, workspace=ws) is out
            assert_bitwise(out, want)
            dirty(ws)


class TestRoundingDoesNotDependOnPromotionRules:
    """float32 / 0-d float64 is float64 under NumPy 2 (NEP 50) and
    float32 under NumPy 1's value-based casting; the divide states its
    dtype, so the .5 boundaries below land the same everywhere."""

    # x = 0.1f * (k + 0.5): in float32 x / 0.1f is exactly k + 0.5 (ties
    # to even), in float64 x / 0.1 sits just above it (rounds up).
    HALVES = (np.float32(0.1) * (np.arange(0, 40, 2) + np.float32(0.5))) \
        .astype(np.float32)

    def test_quantize_boundary_values(self):
        params = QuantParams(np.array(0.1), np.array(0))
        want = np.round(self.HALVES.astype(np.float64) / 0.1).astype(np.int8)
        in_float32 = np.round(self.HALVES / np.float32(0.1)).astype(np.int8)
        assert np.any(want != in_float32)     # the inputs do discriminate
        ws = RecordingWorkspace()
        np.testing.assert_array_equal(params.quantize(self.HALVES), want)
        np.testing.assert_array_equal(
            params.quantize(self.HALVES, workspace=ws), want)
        assert ws.seen and all(dt == np.float64 for _, dt in ws.seen)

    def test_requant_boundary_values(self):
        plan = RequantPlan(np.array([1.0]), None, None, None,
                           np.array(0.1).reshape(()),
                           np.array(0).reshape(()), -128, 127, np.int8)
        acc = self.HALVES.astype(np.float64)  # float32-exact real values
        want = np.round(acc / 0.1).astype(np.int8)
        ws = RecordingWorkspace()
        np.testing.assert_array_equal(plan(acc), want)
        np.testing.assert_array_equal(plan(acc.copy(), workspace=ws), want)
        assert dict(ws.seen) == {"requant_f32": np.dtype(np.float32)}
        np.testing.assert_array_equal(
            plan(acc.astype(np.float32), workspace=ws), want)
        assert dict(ws.seen)["f64_stage"] == np.float64


# 255 * 127 * 518 = 16,775,430 < 2**24 <= 255 * 127 * 519.
WIDEST_F32_K = 518


def adversarial_weights(rng, out_dim, k, pattern):
    if pattern == "all+":
        return np.full((out_dim, k), 127, dtype=np.int8)
    if pattern == "all-":
        return np.full((out_dim, k), -127, dtype=np.int8)
    return rng.choice(np.array([-127, 127], dtype=np.int8), size=(out_dim, k))


class TestExactFloat32Gemm:
    def test_bound_is_tight(self):
        rng = np.random.default_rng(0)
        for pattern in ("all+", "all-", "mixed"):
            assert _exact_k_bounds(adversarial_weights(
                rng, 4, WIDEST_F32_K, pattern)).tolist() == [0, 518]
            assert _exact_k_bounds(adversarial_weights(
                rng, 4, WIDEST_F32_K + 1, pattern)).tolist() == [0, 259, 519]
        one_wide_row = np.zeros((4, 600), dtype=np.int8)
        one_wide_row[2] = 127
        assert _exact_k_bounds(one_wide_row).tolist() == [0, 300, 600]

    @pytest.mark.parametrize("pattern", ["all+", "all-", "mixed"])
    @pytest.mark.parametrize("q_dtype,zero,fill", [
        (np.int8, -128, 127),       # q - z = +255 everywhere
        (np.int8, 127, -128),       # q - z = -255 everywhere
        (np.uint8, 255, None),      # random codes, q - z in [-255, 0]
        (np.int8, 0, None),
    ])
    def test_dense_accumulator_is_the_integer(self, pattern, q_dtype, zero,
                                              fill, monkeypatch):
        rng = np.random.default_rng(1)
        w = adversarial_weights(rng, 9, WIDEST_F32_K, pattern)
        info = np.iinfo(q_dtype)
        q = rng.choice(np.array([info.min, info.max], dtype=q_dtype),
                       size=(5, WIDEST_F32_K))
        if fill is not None:
            q[:3] = fill
        want = (q.astype(np.int64) - zero) @ w.astype(np.int64).T
        assert np.abs(want).max() < kernels.EXACT_F32_BOUND
        wt = np.ascontiguousarray(w.astype(np.float32).T)
        for panel in (kernels.QGEMM_PANEL_BYTES, 64):   # whole / blocked
            monkeypatch.setattr(kernels, "QGEMM_PANEL_BYTES", panel)
            acc = kernels.qdense_acc(q, wt, (0, WIDEST_F32_K),
                                     input_zero=zero)
            assert acc.dtype == np.float32
            np.testing.assert_array_equal(acc.astype(np.int64), want)

    @pytest.mark.parametrize("nhwc", [False, True])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_conv_accumulator_is_the_integer(self, nhwc, padding,
                                             monkeypatch):
        rng = np.random.default_rng(2)
        in_c, kernel = 74, (1, 7)                  # K = 518
        w = adversarial_weights(rng, 6, WIDEST_F32_K, "mixed") \
            .reshape(6, in_c, *kernel)
        q = rng.choice(np.array([-128, 127], dtype=np.int8),
                       size=(2, in_c, 5, 12))
        q[0] = 127
        zero = -128
        shifted = q.astype(np.int64) - zero        # pad *after* the shift
        want = kernels.conv2d(shifted, w.astype(np.int64), padding=padding)
        if nhwc:
            pack = np.ascontiguousarray(
                w.transpose(2, 3, 1, 0).reshape(WIDEST_F32_K, 6)
                .astype(np.float32))
            run = lambda: kernels.qconv2d_acc_nhwc(  # noqa: E731
                np.ascontiguousarray(q.transpose(0, 2, 3, 1)), pack,
                (0, WIDEST_F32_K), kernel, 1, padding,
                input_zero=zero).transpose(0, 3, 1, 2)
        else:
            pack = np.ascontiguousarray(
                w.reshape(6, WIDEST_F32_K).astype(np.float32))
            run = lambda: kernels.qconv2d_acc(  # noqa: E731
                q, pack, (0, WIDEST_F32_K), kernel, 1, padding,
                input_zero=zero)
        for panel in (kernels.QGEMM_PANEL_BYTES, 1 << 12):
            monkeypatch.setattr(kernels, "QGEMM_PANEL_BYTES", panel)
            acc = run()
            assert acc.dtype == np.float32
            np.testing.assert_array_equal(acc.astype(np.int64), want)


def adversarial_graph(k):
    """quantize -> qdense (rows of +-127, width ``k``) -> dequantize,
    with the input zero point at the rail so q - z reaches 255."""
    rng = np.random.default_rng(k)
    g = Graph(f"adversarial_{k}")
    g.add_input(TensorSpec("x", (4, k)))
    g.add_initializer("w", adversarial_weights(rng, 8, k, "mixed"),
                      DType.INT8)
    g.add_node("quantize", ["x"], ["xq"], name="q", scale=np.array([1.0]),
               zero_point=np.array([-128]), dtype=DType.INT8)
    g.add_node("qdense", ["xq", "w"], ["yq"], name="fc",
               input_scale=np.array([1.0]),
               input_zero_point=np.array([-128]),
               weight_scale=np.array([0.01]),
               weight_zero_point=np.array([0]), weight_channel_axis=None,
               out_scale=np.array([1400.0]), out_zero_point=np.array([0]),
               out_dtype=DType.INT8)
    g.add_node("dequantize", ["yq"], ["y"], name="dq",
               scale=np.array([1400.0]), zero_point=np.array([0]))
    g.set_outputs(["y"])
    return g


class TestExactPackDtypeInPlans:
    @pytest.mark.parametrize("k,bounds", [
        (WIDEST_F32_K, [0, 518]), (WIDEST_F32_K + 1, [0, 259, 519])])
    def test_pack_dtype_follows_the_bound_and_bits_hold(self, k, bounds,
                                                        tmp_path):
        g = adversarial_graph(k)
        rng = np.random.default_rng(4)
        feeds = {"x": rng.choice(np.array([-300.0, 300.0, 12.0]),
                                 size=(4, k)).astype(np.float32)}
        reference = Executor(g, plan=compile_plan(g, prepack=False)) \
            .run(feeds)["y"]
        assert len(np.unique(reference)) > 2          # not saturated away
        plan = compile_plan(g)
        assert plan.packs["fc"]["wt_exact"].dtype == np.float32
        assert plan.packs["fc"]["k_bounds"].tolist() == bounds
        assert_bitwise(Executor(g, plan=plan).run(feeds)["y"], reference)
        arena = Executor(g, reuse_buffers=True)
        for _ in range(2):
            assert_bitwise(arena.run(feeds)["y"], reference)
        # The pack and its proof are what the plan cache persists.
        cache = PlanCache(tmp_path)
        cold = load_or_build(g, cache=cache)
        warm = load_or_build(g, cache=cache)
        assert not cold.from_cache and warm.from_cache
        assert warm.plan.packs["fc"]["wt_exact"].dtype == np.float32
        assert warm.plan.packs["fc"]["k_bounds"].tolist() == bounds
        assert_bitwise(Executor(warm.graph, plan=warm.plan).run(feeds)["y"],
                       reference)

    def test_v3_entry_with_old_pack_names_is_rebuilt(self, tmp_path):
        g = adversarial_graph(WIDEST_F32_K)
        cache = PlanCache(tmp_path)
        cold = load_or_build(g, cache=cache)
        meta_path = tmp_path / cold.key / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 3
        for entry in meta["packs"]:
            entry[1] = entry[1].replace("wt_exact", "wt_f64")
        meta_path.write_text(json.dumps(meta))
        rebuilt = load_or_build(g, cache=cache)
        assert not rebuilt.from_cache
        assert "wt_exact" in rebuilt.plan.packs["fc"]
        assert json.loads(meta_path.read_text())["version"] == ENTRY_VERSION
        assert load_or_build(g, cache=cache).from_cache


class TestQuantizedSteadyState:
    """The new arena and scratch buffers (quantize/dequantize/requant
    outputs, transient pools) reach the allocate-once steady state."""

    @pytest.mark.parametrize("name", ["mlp", "tiny_convnet", "tiny_yolo"])
    def test_int8_zoo_models_allocate_nothing_after_warmup(self, name):
        g = build_model(name, batch=2)
        rng = np.random.default_rng(6)
        feeds = [{s.name: rng.normal(size=s.shape).astype(np.float32)
                  for s in g.inputs} for _ in range(3)]
        q = quantize_int8(g, feeds)
        reference = Executor(q, plan=compile_plan(q, prepack=False)) \
            .run(feeds[0])
        executor = Executor(q, reuse_buffers=True)
        executor.recycle(executor.run(feeds[0]))
        arena, workspace = executor.plan.arena, executor.plan.workspace
        before = arena.stats.snapshot()
        scratch_allocations = workspace.allocations
        for _ in range(2):
            got = executor.run(feeds[0])
            for tensor, value in reference.items():
                assert_bitwise(got[tensor], value)
            executor.recycle(got)
        assert arena.stats.allocations == before.allocations
        assert arena.stats.reuses > before.reuses
        assert workspace.allocations == scratch_allocations


class TestHoistedBatchnorm:
    def test_constant_parameters_fold_to_the_kernels_bits(self):
        g = build_model("tiny_convnet", batch=2)
        rng = np.random.default_rng(7)
        feeds = {g.inputs[0].name: rng.normal(
            size=g.inputs[0].shape).astype(np.float32)}
        plan = compile_plan(g)
        bn = [n.name for n in g.nodes if n.op_type == "batchnorm"]
        assert bn and all({"scale", "shift"} <= set(plan.packs[name])
                          for name in bn)
        want = Executor(g, plan=compile_plan(g, prepack=False)).run(feeds)
        for executor in (Executor(g, plan=plan),
                         Executor(g, reuse_buffers=True)):
            got = executor.run(feeds)
            for name, value in want.items():
                assert_bitwise(got[name], value)
