"""Quantized tensor representation and INT8 arithmetic.

Implements the affine quantization scheme used by the toolchain's
post-training quantization pass: ``real = scale * (q - zero_point)``.
Per-tensor and per-channel parameterizations are both supported; the
hardware-aware optimizer benchmarks the accuracy difference between them
(a design-choice ablation called out in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from ..ir.tensor import DType
from . import kernels

INT8_MIN, INT8_MAX = -128, 127
UINT8_MIN, UINT8_MAX = 0, 255


@dataclass(frozen=True)
class QuantParams:
    """Affine quantization parameters.

    ``scale`` and ``zero_point`` are scalars for per-tensor quantization or
    1-D arrays (indexed by ``channel_axis``) for per-channel quantization.
    """

    scale: np.ndarray
    zero_point: np.ndarray
    dtype: DType = DType.INT8
    channel_axis: Optional[int] = None

    def __post_init__(self) -> None:
        scale = np.atleast_1d(np.asarray(self.scale, dtype=np.float64))
        zero = np.atleast_1d(np.asarray(self.zero_point, dtype=np.int64))
        if np.any(scale <= 0):
            raise ValueError("quantization scale must be positive")
        if scale.shape != zero.shape:
            raise ValueError("scale and zero_point must have matching shapes")
        if self.channel_axis is None and scale.size != 1:
            raise ValueError("per-tensor params must be scalar")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "zero_point", zero)
        # Broadcast-shaped views are pure functions of the (immutable)
        # params and the operand rank; cache them so the hot quantize/
        # dequantize loop never re-reshapes per call.
        object.__setattr__(self, "_bcache", {})

    @property
    def qmin(self) -> int:
        return UINT8_MIN if self.dtype is DType.UINT8 else INT8_MIN

    @property
    def qmax(self) -> int:
        return UINT8_MAX if self.dtype is DType.UINT8 else INT8_MAX

    def _broadcast(self, values: np.ndarray, ndim: int) -> np.ndarray:
        if self.channel_axis is None:
            return values.reshape(())
        shape = [1] * ndim
        shape[self.channel_axis] = -1
        return values.reshape(shape)

    def broadcast_for(self, ndim: int) -> Tuple[np.ndarray, np.ndarray]:
        """Cached ``(scale, zero_point)`` reshaped to broadcast over an
        ``ndim``-rank operand — the plan-build-time form of
        :meth:`_broadcast`."""
        entry = self._bcache.get(ndim)
        if entry is None:
            entry = (self._broadcast(self.scale, ndim),
                     self._broadcast(self.zero_point, ndim))
            self._bcache[ndim] = entry
        return entry

    def quantize(self, real: np.ndarray, out: Optional[np.ndarray] = None,
                 workspace: Optional["kernels.Workspace"] = None
                 ) -> np.ndarray:
        """Quantize float values to the integer grid (round-to-nearest-even).

        The divide is float64 by statement, not by promotion: a float32
        array over the 0-d float64 scale is float64 only under NumPy 2's
        rules, and the rounding boundary must not depend on that.  Every
        stage rewrites one float64 buffer (``workspace`` scratch when
        given, fresh otherwise); ``out`` receives the integer codes.
        """
        scale, zero = self.broadcast_for(real.ndim)
        q = kernels.scratch(workspace, real.shape, np.float64, "f64_stage")
        np.divide(real, scale, out=q, dtype=np.float64)
        return _to_grid(q, zero, self.qmin, self.qmax, out,
                        self.dtype.to_numpy())

    def dequantize(self, q: np.ndarray, out: Optional[np.ndarray] = None,
                   workspace: Optional["kernels.Workspace"] = None
                   ) -> np.ndarray:
        scale, zero = self.broadcast_for(q.ndim)
        real = kernels.scratch(workspace, q.shape, np.float64, "f64_stage")
        np.subtract(q, zero, out=real, dtype=np.float64)
        np.multiply(real, scale, out=real)
        return _cast_into(out, real, np.float32)


def _cast_into(out: Optional[np.ndarray], values: np.ndarray,
               dtype) -> np.ndarray:
    """``values`` cast to ``dtype``: into ``out`` when given, else fresh."""
    if out is None:
        return values.astype(dtype)
    np.copyto(out, values, casting="unsafe")
    return out


def _to_grid(q: np.ndarray, zero: np.ndarray, qmin: int, qmax: int,
             out: Optional[np.ndarray], dtype) -> np.ndarray:
    """Round, shift and saturate the float64 buffer ``q`` in place, then
    cast it to the integer grid — the tail quantize and requantize share."""
    np.round(q, out=q)
    np.add(q, zero, out=q)
    np.clip(q, qmin, qmax, out=q)
    return _cast_into(out, q, dtype)


def choose_qparams(
    values: np.ndarray,
    dtype: DType = DType.INT8,
    symmetric: bool = True,
    channel_axis: Optional[int] = None,
) -> QuantParams:
    """Pick scale/zero-point from observed value range.

    Symmetric mode (weights) centres the grid on zero; asymmetric mode
    (activations after ReLU etc.) uses the full [min, max] range.
    """
    if channel_axis is not None:
        axes = tuple(i for i in range(values.ndim) if i != channel_axis)
        lo = values.min(axis=axes)
        hi = values.max(axis=axes)
    else:
        lo = np.array(values.min())
        hi = np.array(values.max())
    # Work in float64 with a positive floor: float32 denormal ranges
    # divided by the grid width would underflow to an invalid zero scale.
    lo = np.minimum(lo.astype(np.float64), 0.0)
    hi = np.maximum(hi.astype(np.float64), 0.0)
    tiny = float(np.finfo(np.float32).tiny)
    qmin = UINT8_MIN if dtype is DType.UINT8 else INT8_MIN
    qmax = UINT8_MAX if dtype is DType.UINT8 else INT8_MAX
    if symmetric:
        if dtype is DType.UINT8:
            raise ValueError("symmetric quantization requires a signed dtype")
        bound = np.maximum(np.abs(lo), np.abs(hi))
        scale = np.where(bound > 0, np.maximum(bound / qmax, tiny), 1.0)
        zero = np.zeros_like(scale, dtype=np.int64)
    else:
        span = hi - lo
        scale = np.where(span > 0, np.maximum(span / (qmax - qmin), tiny),
                         1.0)
        zero = np.round(qmin - lo / scale).astype(np.int64)
        zero = np.clip(zero, qmin, qmax)
    return QuantParams(scale, zero, dtype, channel_axis)


def quantized_conv2d(
    q_data: np.ndarray, data_params: QuantParams,
    q_weight: np.ndarray, weight_params: QuantParams,
    bias: Optional[np.ndarray],
    out_params: QuantParams,
    stride=1, padding=0, groups: int = 1,
    activation: Optional[str] = None,
    activation_alpha: Optional[float] = None,
) -> np.ndarray:
    """INT8 convolution with int32 accumulation and requantization.

    Mirrors how integer NPUs execute quantized convolutions: the inner
    product runs entirely in integers; the float rescale happens once per
    output channel at requantization.
    """
    acc = kernels.conv2d(
        (q_data.astype(np.int32) - int(data_params.zero_point.ravel()[0])),
        q_weight.astype(np.int32),
        stride=stride, padding=padding, groups=groups,
    )
    return _requantize(acc, data_params, weight_params, bias, out_params,
                       channel_ndim=4, activation=activation,
                       activation_alpha=activation_alpha)


def quantized_dense(
    q_data: np.ndarray, data_params: QuantParams,
    q_weight: np.ndarray, weight_params: QuantParams,
    bias: Optional[np.ndarray],
    out_params: QuantParams,
    activation: Optional[str] = None,
    activation_alpha: Optional[float] = None,
) -> np.ndarray:
    """INT8 matmul with int32 accumulation and requantization."""
    acc = (q_data.astype(np.int32) - int(data_params.zero_point.ravel()[0])) @ \
        q_weight.astype(np.int32).T
    return _requantize(acc, data_params, weight_params, bias, out_params,
                       channel_ndim=2, activation=activation,
                       activation_alpha=activation_alpha)


class RequantPlan:
    """Requantization with every weight-dependent constant precomputed.

    Folds the combined ``input_scale * weight_scale`` multiplier, the
    broadcast-reshaped bias, and the output grid's broadcast scale/zero
    into plan-build time, so applying the plan to an int32 accumulator
    performs only the arithmetic an integer NPU's requantization unit
    would.  :func:`_requantize` routes through this class, so the hoisted
    path is bitwise-identical to per-call requantization by construction.
    """

    __slots__ = ("multiplier", "bias", "act_name", "act_alpha", "activation",
                 "out_scale", "out_zero", "qmin", "qmax", "out_dtype")

    def __init__(self, multiplier: np.ndarray, bias: Optional[np.ndarray],
                 activation: Optional[str], activation_alpha: Optional[float],
                 out_scale: np.ndarray, out_zero: np.ndarray,
                 qmin: int, qmax: int, out_dtype: np.dtype) -> None:
        self.multiplier = multiplier
        self.bias = bias
        self.act_name = activation
        self.act_alpha = activation_alpha
        self.activation = kernels.resolve_activation(activation,
                                                     activation_alpha)
        self.out_scale = out_scale
        self.out_zero = out_zero
        self.qmin = qmin
        self.qmax = qmax
        self.out_dtype = out_dtype

    def __call__(self, acc: np.ndarray, out: Optional[np.ndarray] = None,
                 workspace: Optional["kernels.Workspace"] = None
                 ) -> np.ndarray:
        """Requantize ``acc`` (int32, or an exact float accumulator).

        One float64 buffer carries scale, bias, divide, round, shift and
        clip; one float32 buffer the real-domain value the activation
        sees.  Without a workspace both are fresh (the reference form);
        with one they are reused scratch, and a float64 ``acc`` — the
        GEMM kernel's own accumulator scratch — is scaled in place.
        """
        if workspace is not None and acc.dtype == np.float64:
            wide = acc
        else:
            wide = kernels.scratch(workspace, acc.shape, np.float64,
                                   "f64_stage")
        np.multiply(acc, self.multiplier, out=wide, dtype=np.float64)
        if self.bias is not None:
            np.add(wide, self.bias, out=wide)
        real = kernels.scratch(workspace, acc.shape, np.float32,
                               "requant_f32")
        np.copyto(real, wide)
        if self.activation is not None:
            dest = kernels.activation_twin(self.act_name, real, workspace,
                                           "requant_act")
            if kernels.apply_activation(self.act_name, real, dest, workspace,
                                        alpha=self.act_alpha):
                real = dest
            else:
                real = self.activation(real)
        np.divide(real, self.out_scale, out=wide, dtype=np.float64)
        return _to_grid(wide, self.out_zero, self.qmin, self.qmax, out,
                        self.out_dtype)


def requant_multiplier(data_params: QuantParams,
                       weight_params: QuantParams,
                       channel_ndim: int,
                       channel_axis: Optional[int] = None) -> np.ndarray:
    """The combined float rescale ``input_scale * weight_scale``, reshaped
    to broadcast over a ``channel_ndim``-rank accumulator.

    ``channel_axis`` names the accumulator's output-channel axis; the
    default keeps the historical convention (axis 1 for NCHW conv
    accumulators, last axis for dense).  The layout pass passes ``-1``
    for NHWC conv accumulators.
    """
    w_scale = weight_params.scale
    if weight_params.channel_axis is not None:
        if channel_axis is None:
            channel_axis = 1 if channel_ndim == 4 else -1
        shape = [1] * channel_ndim
        shape[channel_axis] = -1
        w_scale = w_scale.reshape(shape)
    return float(data_params.scale.ravel()[0]) * w_scale


def build_requant_plan(data_params: QuantParams,
                       weight_params: QuantParams,
                       bias: Optional[np.ndarray],
                       out_params: QuantParams, channel_ndim: int,
                       activation: Optional[str] = None,
                       activation_alpha: Optional[float] = None,
                       channel_axis: Optional[int] = None
                       ) -> RequantPlan:
    """Precompute every constant of the requantization step once.

    The plan consumes int32 accumulators — or the exact float32 /
    float64 accumulators of the blocked quantized GEMMs: conversion of
    any of them to float64 is exact and the first plan operation
    multiplies by the float64 combined scale either way, so every
    accumulator dtype produces bit-identical outputs.

    ``channel_axis`` (NHWC: ``-1``) positions the per-channel multiplier
    and bias; NHWC callers must use per-tensor (scalar) output params,
    which broadcast the same in any layout.
    """
    if bias is not None and channel_ndim == 4:
        if channel_axis in (None, 1):
            bias = bias.reshape(1, -1, 1, 1)
        else:
            bias = bias.reshape(1, 1, 1, -1)
    out_scale, out_zero = out_params.broadcast_for(channel_ndim)
    return RequantPlan(
        requant_multiplier(data_params, weight_params, channel_ndim,
                           channel_axis=channel_axis),
        bias, activation or None, activation_alpha,
        out_scale, out_zero,
        out_params.qmin, out_params.qmax, out_params.dtype.to_numpy(),
    )


def _requantize(acc: np.ndarray, data_params: QuantParams,
                weight_params: QuantParams, bias: Optional[np.ndarray],
                out_params: QuantParams, channel_ndim: int,
                activation: Optional[str] = None,
                activation_alpha: Optional[float] = None) -> np.ndarray:
    """Scale int32 accumulators into the output quantization grid.

    An optional fused activation is applied in the real domain before
    requantization, matching how integer NPUs fold activations into the
    requantization step.  Builds a throwaway :class:`RequantPlan`; hot
    paths build the plan once and reuse it per call.
    """
    return build_requant_plan(data_params, weight_params, bias, out_params,
                              channel_ndim, activation=activation,
                              activation_alpha=activation_alpha)(acc)


# Widest reduction (in_channels * kh * kw, or in_features) for which the
# zero-point row-sum rewrite provably stays inside int32: every product
# |q| * |w| is bounded by 255 * 128 (uint8 data, int8 weights), so both
# the unshifted accumulator and the correction term stay below
# 32640 * 2^16 = 2,139,095,040 < 2^31 - 1 for reductions up to 2^16.
ZERO_POINT_ROW_TERM_MAX_REDUCE = 1 << 16


def zero_point_row_term(q_weight: np.ndarray, data_params: QuantParams,
                        reduce_axes: Tuple[int, ...]) -> Optional[np.ndarray]:
    """Precompute ``zero_point * sum(W)`` per output channel.

    Rewrites ``(q - z) @ W^T`` as ``q @ W^T - z * rowsum(W)``: integer
    arithmetic is exact, so the rewrite is bitwise-identical as long as
    the int32 accumulator cannot overflow — guarded by the reduction
    width.  Returns ``None`` when the zero point is already 0 (nothing to
    hoist) or when the reduction is too wide for the overflow guard;
    callers then keep the subtract-first form.
    """
    zero = int(data_params.zero_point.ravel()[0])
    if zero == 0:
        return None
    width = int(np.prod([q_weight.shape[axis] for axis in reduce_axes]))
    if width > ZERO_POINT_ROW_TERM_MAX_REDUCE:
        return None
    row_sums = q_weight.astype(np.int64).sum(axis=reduce_axes)
    return (zero * row_sums).astype(np.int32)


def quantization_error(real: np.ndarray, params: QuantParams) -> float:
    """RMS round-trip error of quantizing ``real`` with ``params``."""
    round_trip = params.dequantize(params.quantize(real))
    return float(np.sqrt(np.mean((real - round_trip) ** 2)))
