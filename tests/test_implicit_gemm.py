"""Implicit-GEMM convolution and cache-blocked quantized GEMM tests.

The implicit path must be *bitwise* identical to the materialized-im2col
reference — same column buffer content and layout means the same BLAS
call and therefore the same bits.  The sweeps here cover the geometry
corners the gather math has to get right (stride > kernel, asymmetric
padding, padding wider than the kernel, grouped convolutions) and the
exact float32 quantized GEMMs against the int32 references, including
with cache blocking forced on by shrinking the panel budget.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.tensor import DType
from repro.runtime import kernels
from repro.runtime.quantized import (
    QuantParams,
    build_requant_plan,
    choose_qparams,
    quantized_conv2d,
    quantized_dense,
    zero_point_row_term,
)


def _conv_both_modes(data, weight, bias=None, stride=1, padding=0,
                     groups=1, workspace=None):
    """Run conv2d in implicit and im2col modes; return (implicit, ref)."""
    prev = kernels.set_conv_mode("implicit")
    try:
        got = kernels.conv2d(data, weight, bias, stride=stride,
                             padding=padding, groups=groups,
                             workspace=workspace)
        kernels.set_conv_mode("im2col")
        ref = kernels.conv2d(data, weight, bias, stride=stride,
                             padding=padding, groups=groups)
    finally:
        kernels.set_conv_mode(prev)
    return got, ref


def _assert_bitwise(got, ref):
    assert got.dtype == ref.dtype
    assert got.shape == ref.shape
    np.testing.assert_array_equal(got, ref)


class TestConvModeSwitch:
    def test_default_is_implicit(self):
        assert kernels.conv_mode() in kernels._CONV_MODES

    def test_set_returns_previous_and_rejects_junk(self):
        prev = kernels.set_conv_mode("im2col")
        try:
            assert kernels.conv_mode() == "im2col"
            with pytest.raises(ValueError):
                kernels.set_conv_mode("winograd")
        finally:
            kernels.set_conv_mode(prev)


class TestImplicitConvBitwise:
    """conv2d(implicit) == conv2d(im2col) bit for bit."""

    @pytest.mark.parametrize("kernel", [(1, 1), (2, 2), (3, 3), (5, 3),
                                        (1, 3)])
    @pytest.mark.parametrize("stride", [1, 2, 3, (2, 1)])
    @pytest.mark.parametrize("padding", [0, 1, (2, 1), (0, 2)])
    def test_geometry_grid_fp32(self, kernel, stride, padding):
        rng = np.random.default_rng(hash((kernel, stride, padding)) % 2**31)
        data = rng.normal(size=(2, 3, 11, 9)).astype(np.float32)
        weight = rng.normal(size=(4, 3) + kernel).astype(np.float32)
        bias = rng.normal(size=4).astype(np.float32)
        got, ref = _conv_both_modes(data, weight, bias, stride=stride,
                                    padding=padding)
        _assert_bitwise(got, ref)

    def test_stride_larger_than_kernel(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(1, 2, 13, 13)).astype(np.float32)
        weight = rng.normal(size=(3, 2, 2, 2)).astype(np.float32)
        got, ref = _conv_both_modes(data, weight, stride=3, padding=1)
        _assert_bitwise(got, ref)

    def test_padding_wider_than_kernel(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
        weight = rng.normal(size=(2, 2, 1, 1)).astype(np.float32)
        got, ref = _conv_both_modes(data, weight, stride=2, padding=(2, 3))
        _assert_bitwise(got, ref)

    @pytest.mark.parametrize("groups", [2, 3])
    def test_grouped(self, groups):
        rng = np.random.default_rng(groups)
        data = rng.normal(size=(2, 6, 8, 8)).astype(np.float32)
        weight = rng.normal(size=(6, 6 // groups, 3, 3)).astype(np.float32)
        got, ref = _conv_both_modes(data, weight, stride=1, padding=1,
                                    groups=groups)
        _assert_bitwise(got, ref)

    def test_fp16_io_dtype_preserved(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(2, 3, 9, 9)).astype(np.float16)
        weight = rng.normal(size=(4, 3, 3, 3)).astype(np.float16)
        got, ref = _conv_both_modes(data, weight, stride=2, padding=1)
        assert got.dtype == np.float16
        _assert_bitwise(got, ref)

    def test_pointwise_view_path(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(2, 5, 7, 7)).astype(np.float32)
        weight = rng.normal(size=(4, 5, 1, 1)).astype(np.float32)
        got, ref = _conv_both_modes(data, weight)
        _assert_bitwise(got, ref)

    def test_workspace_reuse_keeps_border_zeros(self):
        """Second call through a shared workspace must not see stale
        border columns from the first call's data."""
        rng = np.random.default_rng(4)
        ws = kernels.Workspace()
        weight = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        prev = kernels.set_conv_mode("implicit")
        try:
            for seed in (5, 6):
                data = np.random.default_rng(seed) \
                    .normal(size=(2, 3, 10, 10)).astype(np.float32)
                got = kernels.conv2d(data, weight, stride=1, padding=1,
                                     workspace=ws)
                kernels.set_conv_mode("im2col")
                ref = kernels.conv2d(data, weight, stride=1, padding=1)
                kernels.set_conv_mode("implicit")
                _assert_bitwise(got, ref)
        finally:
            kernels.set_conv_mode(prev)

    def test_workspace_and_out_buffer(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(2, 3, 9, 9)).astype(np.float32)
        weight = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        ws = kernels.Workspace()
        out = np.empty((2, 4, 5, 5), dtype=np.float32)
        prev = kernels.set_conv_mode("implicit")
        try:
            got = kernels.conv2d(data, weight, stride=2, padding=1,
                                 out=out, workspace=ws)
        finally:
            kernels.set_conv_mode(prev)
        assert got is out
        _, ref = _conv_both_modes(data, weight, stride=2, padding=1)
        _assert_bitwise(out, ref)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3), in_c=st.integers(1, 4),
        out_c=st.integers(1, 5),
        h=st.integers(4, 12), w=st.integers(4, 12),
        kh=st.integers(1, 4), kw=st.integers(1, 4),
        sh=st.integers(1, 3), sw=st.integers(1, 3),
        ph=st.integers(0, 3), pw=st.integers(0, 3),
        fp16=st.booleans(), seed=st.integers(0, 2**16),
    )
    def test_property_sweep(self, n, in_c, out_c, h, w, kh, kw, sh, sw,
                            ph, pw, fp16, seed):
        if h + 2 * ph < kh or w + 2 * pw < kw:
            return
        rng = np.random.default_rng(seed)
        dt = np.float16 if fp16 else np.float32
        data = rng.normal(size=(n, in_c, h, w)).astype(dt)
        weight = rng.normal(size=(out_c, in_c, kh, kw)).astype(dt)
        got, ref = _conv_both_modes(data, weight, stride=(sh, sw),
                                    padding=(ph, pw),
                                    workspace=kernels.Workspace())
        _assert_bitwise(got, ref)


def _qconv_reference_and_exact(seed, n=2, in_c=3, out_c=4, hw=9,
                               kernel=(3, 3), stride=1, padding=1,
                               data_dtype=DType.INT8, zero=0,
                               activation=None, alpha=None,
                               per_channel=True, nhwc=False):
    """Build matched reference / exact-GEMM qconv results."""
    rng = np.random.default_rng(seed)
    real = rng.normal(size=(n, in_c, hw, hw)).astype(np.float32)
    w_real = rng.normal(size=(out_c, in_c) + kernel).astype(np.float32)
    bias = rng.normal(size=out_c).astype(np.float32) * 10
    dp = choose_qparams(real, dtype=data_dtype,
                        symmetric=data_dtype is DType.INT8)
    if zero:
        dp = QuantParams(dp.scale, np.array(zero), dp.dtype, None)
    wp = choose_qparams(w_real, channel_axis=0 if per_channel else None)
    op = choose_qparams(rng.normal(size=16).astype(np.float32) * 4,
                        symmetric=False, dtype=DType.UINT8)
    q_data = dp.quantize(real)
    q_weight = wp.quantize(w_real)
    ref = quantized_conv2d(q_data, dp, q_weight, wp, bias, op,
                           stride=stride, padding=padding,
                           activation=activation, activation_alpha=alpha)
    izero = int(dp.zero_point.ravel()[0])
    row_term = zero_point_row_term(q_weight, dp, (1, 2, 3))
    padded = padding not in (0, (0, 0))
    if row_term is not None and padded:
        row_term = None  # padding injects zeros, not zero_point
    if nhwc:
        k = in_c * kernel[0] * kernel[1]
        w_pack = np.ascontiguousarray(
            q_weight.transpose(2, 3, 1, 0).reshape(k, out_c)
            .astype(np.float32))
        src = np.ascontiguousarray(q_data.transpose(0, 2, 3, 1))
        acc = kernels.qconv2d_acc_nhwc(
            src, w_pack, (0, k), kernel, stride, padding,
            input_zero=0 if row_term is not None else izero)
        if row_term is not None:
            acc -= row_term.reshape(1, 1, 1, -1)
        requant = build_requant_plan(dp, wp, bias, op, 4,
                                     activation=activation,
                                     activation_alpha=alpha,
                                     channel_axis=-1)
        got = np.ascontiguousarray(requant(acc).transpose(0, 3, 1, 2))
    else:
        k = in_c * kernel[0] * kernel[1]
        w2 = np.ascontiguousarray(
            q_weight.reshape(out_c, k).astype(np.float32))
        acc = kernels.qconv2d_acc(
            q_data, w2, (0, k), kernel, stride, padding,
            input_zero=0 if row_term is not None else izero)
        if row_term is not None:
            acc -= row_term.reshape(1, -1, 1, 1)
        requant = build_requant_plan(dp, wp, bias, op, 4,
                                     activation=activation,
                                     activation_alpha=alpha)
        got = requant(acc)
    return got, ref


class TestExactQuantizedConv:
    """Exact blocked qconv GEMM == int32 reference, bitwise."""

    @pytest.mark.parametrize("zero", [0, 7, -3])
    @pytest.mark.parametrize("nhwc", [False, True])
    def test_zero_points(self, zero, nhwc):
        got, ref = _qconv_reference_and_exact(10 + zero, zero=zero,
                                              nhwc=nhwc)
        _assert_bitwise(got, ref)

    @pytest.mark.parametrize("nhwc", [False, True])
    def test_uint8_activation_large_zero(self, nhwc):
        got, ref = _qconv_reference_and_exact(
            11, data_dtype=DType.UINT8, zero=100, nhwc=nhwc)
        _assert_bitwise(got, ref)

    @pytest.mark.parametrize("nhwc", [False, True])
    def test_fused_activation(self, nhwc):
        got, ref = _qconv_reference_and_exact(
            12, activation="leaky_relu", alpha=0.2, nhwc=nhwc)
        _assert_bitwise(got, ref)

    @pytest.mark.parametrize("nhwc", [False, True])
    def test_per_tensor_weights(self, nhwc):
        got, ref = _qconv_reference_and_exact(13, per_channel=False,
                                              nhwc=nhwc)
        _assert_bitwise(got, ref)

    @pytest.mark.parametrize("nhwc", [False, True])
    def test_strided_no_padding(self, nhwc):
        got, ref = _qconv_reference_and_exact(14, stride=2, padding=0,
                                              zero=5, nhwc=nhwc)
        _assert_bitwise(got, ref)

    @pytest.mark.parametrize("nhwc", [False, True])
    def test_forced_multi_panel_blocking(self, monkeypatch, nhwc):
        """Shrink the panel budget so the output genuinely splits into
        many cache panels; blocking must not change a single bit."""
        monkeypatch.setattr(kernels, "QGEMM_PANEL_BYTES", 1 << 10)
        got, ref = _qconv_reference_and_exact(15, hw=17, zero=7,
                                              nhwc=nhwc)
        _assert_bitwise(got, ref)

    def test_workspace_variant(self):
        ws = kernels.Workspace()
        rng = np.random.default_rng(16)
        real = rng.normal(size=(2, 3, 9, 9)).astype(np.float32)
        w_real = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        dp = choose_qparams(real)
        wp = choose_qparams(w_real, channel_axis=0)
        op = choose_qparams(real.ravel()[:32] * 3, symmetric=False,
                            dtype=DType.UINT8)
        q_data, q_weight = dp.quantize(real), wp.quantize(w_real)
        ref = quantized_conv2d(q_data, dp, q_weight, wp, None, op,
                               stride=1, padding=1)
        w2 = np.ascontiguousarray(
            q_weight.reshape(4, -1).astype(np.float32))
        for _ in range(2):  # second call reuses the workspace buffers
            acc = kernels.qconv2d_acc(q_data, w2, (0, 27), (3, 3), (1, 1),
                                      (1, 1), workspace=ws)
            got = build_requant_plan(dp, wp, None, op, 4)(acc)
            _assert_bitwise(got, ref)


class TestExactQuantizedDense:
    @pytest.mark.parametrize("zero", [0, 9])
    def test_matches_reference(self, zero):
        rng = np.random.default_rng(20 + zero)
        real = rng.normal(size=(5, 37)).astype(np.float32)
        w_real = rng.normal(size=(11, 37)).astype(np.float32)
        bias = rng.normal(size=11).astype(np.float32)
        dp = choose_qparams(real)
        if zero:
            dp = QuantParams(dp.scale, np.array(zero), dp.dtype, None)
        wp = choose_qparams(w_real, channel_axis=0)
        op = choose_qparams(real.ravel()[:64] * 2, symmetric=False,
                            dtype=DType.UINT8)
        q_data, q_weight = dp.quantize(real), wp.quantize(w_real)
        ref = quantized_dense(q_data, dp, q_weight, wp, bias, op)
        wt = np.ascontiguousarray(q_weight.astype(np.float32).T)
        row_term = zero_point_row_term(q_weight, dp, (1,))
        acc = kernels.qdense_acc(
            q_data, wt, (0, 37),
            input_zero=0 if row_term is not None
            else int(dp.zero_point.ravel()[0]))
        if row_term is not None:
            acc -= row_term.reshape(1, -1)
        got = build_requant_plan(dp, wp, bias, op, 2)(acc)
        _assert_bitwise(got, ref)

    def test_forced_column_panels(self, monkeypatch):
        monkeypatch.setattr(kernels, "QGEMM_PANEL_BYTES", 1 << 8)
        self.test_matches_reference(9)


class TestWorkspaceIsolation:
    """Workspace.get must never hand back a mismatched buffer."""

    def test_same_tag_different_shape_gets_distinct_buffers(self):
        ws = kernels.Workspace()
        a = ws.get((4, 4), np.float32, "shared")
        a.fill(3.0)
        b = ws.get((8, 2), np.float32, "shared")
        assert b.shape == (8, 2)
        assert a.shape == (4, 4)
        b.fill(5.0)
        assert np.all(a == 3.0)
        assert not np.shares_memory(a, b)
        # both keys stay resident; re-requests hit their own buffers
        # (views of one base each, so identity is by address)
        again_a = ws.get((4, 4), np.float32, "shared")
        again_b = ws.get((8, 2), np.float32, "shared")
        assert again_a.ctypes.data == a.ctypes.data
        assert again_b.ctypes.data == b.ctypes.data
        assert again_a.shape == (4, 4) and again_b.shape == (8, 2)
        assert np.all(again_a == 3.0) and np.all(again_b == 5.0)

    def test_same_tag_same_shape_different_dtype(self):
        ws = kernels.Workspace()
        f32 = ws.get((6,), np.float32, "t")
        f64 = ws.get((6,), np.float64, "t")
        assert f32.dtype == np.float32
        assert f64.dtype == np.float64
        assert not np.shares_memory(f32, f64)

    def test_init_runs_once_per_buffer(self):
        ws = kernels.Workspace()
        calls = []
        for _ in range(3):
            buf = ws.get((5,), np.float32, "z",
                         init=lambda b: (calls.append(1), b.fill(0)))
        assert len(calls) == 1
        buf[0] = 7  # dirty it; a re-get must NOT re-zero
        again = ws.get((5,), np.float32, "z",
                       init=lambda b: (calls.append(1), b.fill(0)))
        assert again[0] == 7
        assert len(calls) == 1

    def test_peak_bytes_survives_clear(self):
        ws = kernels.Workspace()
        ws.get((1024,), np.float64, "big")
        peak = ws.peak_bytes
        assert peak >= 8192
        ws.clear()
        assert ws.nbytes() == 0
        assert ws.peak_bytes == peak

    def test_hits_and_allocations_counted(self):
        ws = kernels.Workspace()
        ws.get((3,), np.float32, "a")
        ws.get((3,), np.float32, "a")
        assert ws.allocations == 1
        assert ws.hits == 1
