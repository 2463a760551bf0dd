"""Tests for repro.runtime.kernels against naive references."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime import kernels


def naive_conv2d(data, weight, bias=None, stride=1, padding=0):
    """Straightforward quadruple-loop convolution used as ground truth."""
    sh = sw = stride
    ph = pw = padding
    n, c, h, w = data.shape
    oc, ic, kh, kw = weight.shape
    padded = np.pad(data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    out = np.zeros((n, oc, oh, ow), dtype=np.float64)
    for b in range(n):
        for o in range(oc):
            for y in range(oh):
                for x in range(ow):
                    patch = padded[b, :, y * sh:y * sh + kh,
                                   x * sw:x * sw + kw]
                    out[b, o, y, x] = np.sum(patch * weight[o])
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out.astype(np.float32)


class TestConv2d:
    def test_matches_naive(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(2, 3, 7, 7)).astype(np.float32)
        weight = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        bias = rng.normal(size=4).astype(np.float32)
        got = kernels.conv2d(data, weight, bias, stride=1, padding=1)
        want = naive_conv2d(data, weight, bias, stride=1, padding=1)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    def test_stride_2(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(1, 2, 8, 8)).astype(np.float32)
        weight = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        got = kernels.conv2d(data, weight, stride=2, padding=1)
        want = naive_conv2d(data, weight, stride=2, padding=1)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    def test_grouped_equals_blockwise(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(1, 4, 6, 6)).astype(np.float32)
        weight = rng.normal(size=(4, 2, 3, 3)).astype(np.float32)
        got = kernels.conv2d(data, weight, groups=2, padding=1)
        lo = naive_conv2d(data[:, :2], weight[:2], padding=1)
        hi = naive_conv2d(data[:, 2:], weight[2:], padding=1)
        np.testing.assert_allclose(got, np.concatenate([lo, hi], axis=1),
                                   rtol=1e-4, atol=1e-5)

    def test_depthwise(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(1, 3, 5, 5)).astype(np.float32)
        weight = rng.normal(size=(3, 1, 3, 3)).astype(np.float32)
        got = kernels.conv2d(data, weight, groups=3, padding=1)
        for channel in range(3):
            want = naive_conv2d(data[:, channel:channel + 1],
                                weight[channel:channel + 1], padding=1)
            np.testing.assert_allclose(got[:, channel:channel + 1], want,
                                       rtol=1e-4, atol=1e-5)

    def test_int32_accumulation_preserved(self):
        data = np.ones((1, 1, 4, 4), dtype=np.int32) * 100
        weight = np.ones((1, 1, 3, 3), dtype=np.int32)
        out = kernels.conv2d(data, weight, padding=0)
        assert np.issubdtype(out.dtype, np.integer)
        assert out[0, 0, 0, 0] == 900

    def test_fp16_output_dtype(self):
        data = np.ones((1, 1, 4, 4), dtype=np.float16)
        weight = np.ones((1, 1, 3, 3), dtype=np.float16)
        out = kernels.conv2d(data, weight)
        assert out.dtype == np.float16

    @given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 1))
    @settings(max_examples=20, deadline=None)
    def test_property_linear_in_input(self, k, s, p):
        rng = np.random.default_rng(17)
        data = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
        weight = rng.normal(size=(2, 2, k, k)).astype(np.float32)
        if (6 + 2 * p - k) < 0:
            return
        a = kernels.conv2d(data, weight, stride=s, padding=p)
        b = kernels.conv2d(2.0 * data, weight, stride=s, padding=p)
        np.testing.assert_allclose(b, 2.0 * a, rtol=1e-4, atol=1e-5)


class TestDense:
    def test_matches_matmul(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(3, 5)).astype(np.float32)
        weight = rng.normal(size=(2, 5)).astype(np.float32)
        bias = rng.normal(size=2).astype(np.float32)
        np.testing.assert_allclose(kernels.dense(data, weight, bias),
                                   data @ weight.T + bias, rtol=1e-5)


class TestBatchNorm:
    def test_matches_formula(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        gamma = rng.uniform(0.5, 2, 3).astype(np.float32)
        beta = rng.normal(size=3).astype(np.float32)
        mean = rng.normal(size=3).astype(np.float32)
        var = rng.uniform(0.5, 2, 3).astype(np.float32)
        got = kernels.batchnorm(data, gamma, beta, mean, var, epsilon=1e-5)
        want = gamma.reshape(1, -1, 1, 1) * (
            data - mean.reshape(1, -1, 1, 1)
        ) / np.sqrt(var.reshape(1, -1, 1, 1) + 1e-5) + beta.reshape(1, -1, 1, 1)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)


class TestActivations:
    def test_relu(self):
        np.testing.assert_array_equal(
            kernels.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_relu6(self):
        np.testing.assert_array_equal(
            kernels.relu6(np.array([-1.0, 3.0, 9.0])), [0.0, 3.0, 6.0])

    def test_leaky_relu(self):
        np.testing.assert_allclose(
            kernels.leaky_relu(np.array([-10.0, 5.0]), alpha=0.1),
            [-1.0, 5.0])

    def test_sigmoid_stable_at_extremes(self):
        out = kernels.sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-9)

    def test_hardswish_known_points(self):
        np.testing.assert_allclose(
            kernels.hardswish(np.array([-4.0, 0.0, 4.0])), [0.0, 0.0, 4.0])

    def test_mish_matches_definition(self):
        x = np.linspace(-3, 3, 7)
        want = x * np.tanh(np.log1p(np.exp(x)))
        np.testing.assert_allclose(kernels.mish(x), want, rtol=1e-6)

    def test_softmax_rows_sum_to_one(self):
        out = kernels.softmax(np.random.default_rng(0).normal(size=(4, 9)))
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(4), rtol=1e-6)

    def test_softmax_shift_invariant(self):
        x = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(kernels.softmax(x),
                                   kernels.softmax(x + 100.0), rtol=1e-6)


class TestPooling:
    def test_maxpool(self):
        data = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = kernels.maxpool2d(data, 2)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_avgpool(self):
        data = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = kernels.avgpool2d(data, 2)
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_maxpool_padding_uses_neg_inf(self):
        data = -np.ones((1, 1, 2, 2), dtype=np.float32)
        out = kernels.maxpool2d(data, 2, stride=1, padding=1)
        # Padded corners must still report the real (negative) maximum.
        assert out.max() == -1.0

    def test_global_avgpool(self):
        data = np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)
        out = kernels.global_avgpool2d(data)
        np.testing.assert_allclose(out.reshape(-1), [1.5, 5.5])

    def test_spp_style_same_size_pool(self):
        data = np.random.default_rng(0).normal(size=(1, 2, 13, 13)) \
            .astype(np.float32)
        out = kernels.maxpool2d(data, 5, stride=1, padding=2)
        assert out.shape == data.shape


class TestSpatial:
    def test_upsample_nearest(self):
        data = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)
        out = kernels.upsample2d(data, 2)
        np.testing.assert_array_equal(out[0, 0, :2, :2], [[1, 1], [1, 1]])
        assert out.shape == (1, 1, 4, 4)

    def test_pad(self):
        out = kernels.pad(np.ones((1, 2)), [(1, 0), (0, 2)])
        assert out.shape == (2, 4)


class TestGroupedConvBias:
    """Regression: grouped/depthwise conv must apply bias exactly once,
    at the very end — not once per group recursion."""

    def test_grouped_bias_applied_once(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(2, 4, 6, 6)).astype(np.float32)
        weight = rng.normal(size=(6, 2, 3, 3)).astype(np.float32)
        bias = rng.normal(size=6).astype(np.float32)
        with_bias = kernels.conv2d(data, weight, bias, padding=1, groups=2)
        without = kernels.conv2d(data, weight, None, padding=1, groups=2)
        np.testing.assert_allclose(
            with_bias, without + bias.reshape(1, -1, 1, 1),
            rtol=1e-5, atol=1e-6)

    def test_depthwise_bias_matches_per_channel_reference(self):
        rng = np.random.default_rng(12)
        data = rng.normal(size=(1, 3, 5, 5)).astype(np.float32)
        weight = rng.normal(size=(3, 1, 3, 3)).astype(np.float32)
        bias = np.array([10.0, -20.0, 30.0], dtype=np.float32)
        got = kernels.conv2d(data, weight, bias, padding=1, groups=3)
        for channel in range(3):
            want = naive_conv2d(data[:, channel:channel + 1],
                                weight[channel:channel + 1],
                                bias[channel:channel + 1], padding=1)
            np.testing.assert_allclose(got[:, channel:channel + 1], want,
                                       rtol=1e-4, atol=1e-4)


class TestIm2col:
    def test_padding_fills_zero(self):
        data = np.full((1, 1, 2, 2), 7.0, dtype=np.float32)
        cols, (oh, ow) = kernels.im2col(data, kernel=(3, 3), stride=(1, 1),
                                        padding=(1, 1))
        # Every border patch position must see explicit zeros, so column
        # sums under-count the interior exactly by the padded fraction.
        assert (oh, ow) == (2, 2)
        assert cols.shape == (1, 9, 4)
        corners = cols[0, :, 0]
        assert np.count_nonzero(corners) == 4      # 2x2 data in a 3x3 patch
        assert corners.sum() == 4 * 7.0

    def test_fp16_input_preserved_and_upcast_columns(self):
        data = np.arange(16, dtype=np.float16).reshape(1, 1, 4, 4)
        cols, _ = kernels.im2col(data, kernel=(3, 3), stride=(1, 1),
                                 padding=(1, 1))
        assert cols.dtype == np.float16
        out = np.empty(cols.shape, dtype=np.float32)
        up, _ = kernels.im2col(data, kernel=(3, 3), stride=(1, 1),
                               padding=(1, 1), out=out)
        assert up.base is out and up.dtype == np.float32
        np.testing.assert_array_equal(up, cols.astype(np.float32))

    def test_fp16_conv_output_dtype_preserved(self):
        rng = np.random.default_rng(13)
        data = rng.normal(size=(1, 2, 6, 6)).astype(np.float16)
        weight = rng.normal(size=(3, 2, 3, 3)).astype(np.float16)
        out = kernels.conv2d(data, weight, padding=1)
        assert out.dtype == np.float16


class TestScratchVariants:
    """``out=``/workspace kernel variants must be bitwise-identical to
    the allocating paths — the allocation-free executor relies on it."""

    def test_conv2d_out_bitwise(self):
        rng = np.random.default_rng(21)
        data = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        weight = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        bias = rng.normal(size=4).astype(np.float32)
        want = kernels.conv2d(data, weight, bias, stride=2, padding=1)
        out = np.empty(want.shape, dtype=want.dtype)
        ws = kernels.Workspace()
        got = kernels.conv2d(data, weight, bias, stride=2, padding=1,
                             out=out, workspace=ws)
        assert got is out
        np.testing.assert_array_equal(got, want)
        # Second call reuses the workspace buffers instead of allocating.
        allocations = ws.allocations
        kernels.conv2d(data, weight, bias, stride=2, padding=1,
                       out=out, workspace=ws)
        assert ws.allocations == allocations
        assert ws.hits > 0

    def test_grouped_conv2d_out_bitwise(self):
        rng = np.random.default_rng(22)
        data = rng.normal(size=(1, 4, 6, 6)).astype(np.float32)
        weight = rng.normal(size=(6, 2, 3, 3)).astype(np.float32)
        bias = rng.normal(size=6).astype(np.float32)
        want = kernels.conv2d(data, weight, bias, padding=1, groups=2)
        out = np.empty(want.shape, dtype=want.dtype)
        got = kernels.conv2d(data, weight, bias, padding=1, groups=2,
                             out=out, workspace=kernels.Workspace())
        np.testing.assert_array_equal(got, want)

    def test_dense_out_bitwise(self):
        rng = np.random.default_rng(23)
        data = rng.normal(size=(4, 16)).astype(np.float32)
        weight = rng.normal(size=(8, 16)).astype(np.float32)
        bias = rng.normal(size=8).astype(np.float32)
        want = kernels.dense(data, weight, bias)
        out = np.empty(want.shape, dtype=want.dtype)
        got = kernels.dense(data, weight, bias, out=out,
                            workspace=kernels.Workspace())
        assert got is out
        np.testing.assert_array_equal(got, want)

    def test_fp16_conv2d_out_bitwise(self):
        rng = np.random.default_rng(24)
        data = rng.normal(size=(1, 2, 6, 6)).astype(np.float16)
        weight = rng.normal(size=(3, 2, 3, 3)).astype(np.float16)
        want = kernels.conv2d(data, weight, padding=1)
        out = np.empty(want.shape, dtype=np.float16)
        got = kernels.conv2d(data, weight, padding=1, out=out,
                             workspace=kernels.Workspace())
        assert got.dtype == np.float16
        np.testing.assert_array_equal(got, want)

    def test_pool_out_bitwise(self):
        rng = np.random.default_rng(25)
        data = rng.normal(size=(1, 2, 8, 8)).astype(np.float32)
        for fn in (kernels.maxpool2d, kernels.avgpool2d):
            want = fn(data, 2, stride=2, padding=1)
            out = np.empty(want.shape, dtype=want.dtype)
            got = fn(data, 2, stride=2, padding=1, out=out,
                     workspace=kernels.Workspace())
            assert got is out
            np.testing.assert_array_equal(got, want)

    def test_batchnorm_out_bitwise(self):
        rng = np.random.default_rng(26)
        data = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        gamma = rng.normal(size=3).astype(np.float32)
        beta = rng.normal(size=3).astype(np.float32)
        mean = rng.normal(size=3).astype(np.float32)
        var = np.abs(rng.normal(size=3)).astype(np.float32) + 0.5
        want = kernels.batchnorm(data, gamma, beta, mean, var)
        out = np.empty(want.shape, dtype=want.dtype)
        got = kernels.batchnorm(data, gamma, beta, mean, var, out=out)
        assert got is out
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", sorted(kernels.BUFFERED_ACTIVATIONS))
    def test_buffered_activation_bitwise(self, name):
        rng = np.random.default_rng(27)
        data = rng.normal(size=(64,)).astype(np.float32) * 4.0
        want = kernels.resolve_activation(name)(data)
        out = np.empty_like(data)
        assert kernels.apply_activation(
            name, data, out, workspace=kernels.Workspace()) is True
        np.testing.assert_array_equal(out, want)
        # A buffer the caller owns: in place, except leaky_relu's twin.
        buf = data.copy()
        ws = kernels.Workspace()
        dest = kernels.activation_twin(name, buf, ws, "twin")
        assert (dest is buf) == (name != "leaky_relu")
        assert kernels.apply_activation(name, buf, dest, workspace=ws)
        np.testing.assert_array_equal(dest, want)

    def test_upsample_and_pad_out_bitwise(self):
        data = np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)
        want = kernels.upsample2d(data, 2)
        out = np.empty(want.shape, dtype=want.dtype)
        np.testing.assert_array_equal(
            kernels.upsample2d(data, 2, out=out), want)
        pads = [(0, 0), (0, 0), (1, 1), (1, 1)]
        want_pad = kernels.pad(data, pads)
        out_pad = np.empty(want_pad.shape, dtype=want_pad.dtype)
        np.testing.assert_array_equal(
            kernels.pad(data, pads, out=out_pad), want_pad)
