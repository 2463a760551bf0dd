"""Compiled execution plans: bind kernels once, free activations early.

The paper's toolchain (Sec. III) compiles a model once and then runs it
many times on a memory-constrained target.  This module is the compile
half of that split for the reference runtime: :func:`compile_plan` walks a
validated graph a single time and produces, per node, a *bound* kernel
callable with every attribute, quantization parameter, and shape already
resolved — the run loop does no attr lookups, dtype parsing, or
isinstance checks.

Ahead-of-time weight prepacking extends the same bind-once idea to the
weights themselves.  A :func:`prepack_graph` sweep runs the
``_PREPACKERS`` registry over every node whose weights are initializers
and precomputes the arrays the kernels would otherwise derive per call:
conv filters reshaped into the im2col GEMM layout, fp16 weights cast up
to the fp32 compute dtype, binary weights packed to a 1-bit bitplane,
integer weights pre-cast (and, for ``qdense``, pre-transposed — integer
matmul is exact, so the transposed call form is bitwise-identical), and
quantized zero-point row-sums folded into a single additive term.
Exact-GEMM-eligible quantized nodes (single group, reduction within
``kernels.EXACT_GEMM_MAX_REDUCE``) instead pack float weight matrices
(``w2_exact``/``wt_exact``, or ``w_nhwc_exact`` for NHWC-layout regions)
that feed the blocked BLAS GEMMs in :mod:`repro.runtime.kernels` —
always float32, beside the ``k_bounds`` reduction chunks within which
the layer's weights prove a float32 GEMM exact
(:func:`_exact_k_bounds`).  The accumulators are
exact integers, so these packs are bitwise-identical to the int32 forms
they replace.  Constant batchnorm parameters fold to one per-channel
``scale``/``shift`` pair.  Float
GEMM weights are deliberately *not* pre-transposed: ``x @ W.T`` and
``x @ ascontiguousarray(W.T)`` take different BLAS code paths (NT vs NN)
whose results differ in the last ulp, and every specialized path must
stay bitwise-identical to the interpreter (see DESIGN.md).  Packs are
plain ``{name: ndarray}`` dicts, so a plan's prepack state can be
persisted by :mod:`repro.runtime.plan_cache` and rebound on a warm start
without re-deriving anything.

The plan also carries a liveness schedule derived from
:func:`repro.optim.memory_planner.compute_lifetimes`: after each step, the
intermediate tensors whose last consumer just ran are released, so the
executor's live set never exceeds the memory planner's
``peak_live_bytes`` lower bound (the arena-reuse semantics of
Sec. II-B's activation-memory study, applied to execution).

A plan *instance* additionally runs on a scratch arena and kernel
workspace (:meth:`ExecutionPlan.with_buffers`): every bound kernel
accepts an optional :class:`repro.runtime.arena.RunContext` and, when
given one, writes its output into recycled arena buffers and draws
intra-kernel scratch from the workspace, so steady-state inference
performs no large allocations.  Compiled steps are immutable and shared —
a worker pool clones cheap per-worker instances over the same steps, and
one worker's instances for different batch sizes share one arena and
workspace (buffer capacity does not depend on the batch size).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ir.graph import Graph, Node
from ..ir.tensor import DType, TensorSpec
from . import kernels
from .arena import RunContext, ScratchArena
from .quantized import (
    QuantParams,
    build_requant_plan,
    quantized_conv2d,
    quantized_dense,
    zero_point_row_term,
)

# A bound kernel: positional input arrays in, output arrays out.  The
# optional context supplies arena/workspace buffers; kernels must behave
# identically (bitwise) with or without it.
KernelFn = Callable[..., List[np.ndarray]]

# Version of the prepack entry layout.  Part of the plan-cache key, so a
# change to what any prepacker stores invalidates stale cache entries.
# v2: quantized packs for exact-GEMM-eligible nodes store float weight
# matrices ("w2_exact"/"wt_exact"/"w_nhwc_exact") instead of int32
# tensors, and NHWC-layout convs store the NHWC-ordered pack + row term.
# Renaming those entries, narrowing them to float32 and adding their
# "k_bounds" moved plan_cache.ENTRY_VERSION instead of this number: the
# key stays put, so a stale entry is rebuilt in place rather than
# orphaned at an old key.
PACK_FORMAT_VERSION = 2


class ExecutionError(RuntimeError):
    """Raised when graph compilation or execution fails."""


@dataclass(frozen=True)
class CompiledStep:
    """One node of the plan: the IR node, its bound kernel, and the
    intermediate tensors whose storage may be reclaimed after it runs."""

    node: Node
    run: KernelFn
    release: Tuple[str, ...]
    layout: str = "NCHW"


def fresh_buffers() -> RunContext:
    """A new memory set: one scratch arena and one kernel workspace."""
    return RunContext(ScratchArena(), kernels.Workspace())


@dataclass
class ExecutionPlan:
    """The compiled form of a graph: an ordered list of bound steps.

    ``packs`` holds the per-node prepacked weight arrays (empty when the
    plan was compiled with ``prepack=False``); the plan cache persists
    exactly this mapping.  ``arena`` and ``workspace`` are the scratch
    storage an instance runs on (None on a freshly compiled plan);
    :meth:`with_buffers` derives an instance that shares the immutable
    compiled steps and runs on fresh buffers or on ones handed in, which
    is how each of the serving engine's workers runs every batch size's
    plan on its one memory set without recompiling.
    """

    graph_name: str
    steps: List[CompiledStep]
    specs: Dict[str, TensorSpec]
    peak_live_bytes: int
    packs: Dict[str, Dict[str, np.ndarray]] = field(
        default_factory=dict, repr=False)
    arena: Optional[ScratchArena] = field(default=None, repr=False)
    workspace: Optional[kernels.Workspace] = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.steps)

    def with_buffers(self, prewarm: bool = False,
                     buffers: Optional[RunContext] = None
                     ) -> "ExecutionPlan":
        """A new plan instance sharing compiled steps, with its own
        scratch arena and kernel workspace — or running on ``buffers``,
        an arena and workspace the caller also runs its other plan
        instances on, one at a time (the serving engine's worker: one
        memory set for every batch size).

        With ``prewarm=True`` the arena's free pool is pre-populated with
        one buffer per activation pool key at its peak concurrency under
        the release schedule, so even the *first* run draws from the
        pool instead of the heap — the serving engine's cold-start
        smoothing.
        """
        if buffers is None:
            buffers = fresh_buffers()
        if prewarm:
            for (trailing, dtype), (rows, count) in \
                    self._peak_concurrency().items():
                buffers.arena.reserve((rows,) + trailing, dtype, count)
        return ExecutionPlan(self.graph_name, self.steps, self.specs,
                             self.peak_live_bytes, packs=self.packs,
                             arena=buffers.arena,
                             workspace=buffers.workspace)

    def _peak_concurrency(self) -> Dict[Tuple[Tuple[int, ...], str],
                                        Tuple[int, int]]:
        """Per arena pool key (trailing shape, dtype): the largest
        leading extent and the max simultaneously-live activation count,
        walking the steps against the release schedule."""
        live: Dict[str, Tuple[Tuple[int, ...], str]] = {}
        count: Dict[Tuple[Tuple[int, ...], str], int] = {}
        peak: Dict[Tuple[Tuple[int, ...], str], Tuple[int, int]] = {}
        for step in self.steps:
            for name in step.node.outputs:
                spec = self.specs.get(name)
                if spec is None:
                    continue
                rows, key = ScratchArena.pool_key(spec.shape,
                                                  spec.dtype.to_numpy())
                live[name] = key
                count[key] = count.get(key, 0) + 1
                widest, most = peak.get(key, (0, 0))
                peak[key] = (max(widest, rows), max(most, count[key]))
            for name in step.release:
                key = live.pop(name, None)
                if key is not None:
                    count[key] -= 1
        return peak

    def summary(self) -> str:
        """Human-readable step listing with the release schedule."""
        packed = sum(len(p) for p in self.packs.values())
        lines = [
            f"execution plan for {self.graph_name!r}: {len(self.steps)} "
            f"steps, peak live {self.peak_live_bytes / 1024:.1f} KiB, "
            f"{packed} prepacked arrays"
        ]
        for step in self.steps:
            frees = (f"  frees {', '.join(step.release)}"
                     if step.release else "")
            lines.append(
                f"  {step.node.name:<28} {step.node.op_type:<16}{frees}"
            )
        return "\n".join(lines)


# -- per-op kernel builders ----------------------------------------------------
#
# A builder runs once at compile time; everything it resolves from node
# attrs, specs, or the optional prepack entry is captured in the returned
# closure.  Each closure takes (args, ctx=None): without a context it
# allocates exactly as the seed kernels did; with one it routes outputs
# through the arena and scratch through the workspace.

_BUILDERS: Dict[str, Callable[..., KernelFn]] = {}


def _builder(*op_types: str):
    def deco(fn):
        for op in op_types:
            _BUILDERS[op] = fn
        return fn
    return deco


def _conv_attrs(node: Node) -> Dict[str, object]:
    return {
        "stride": node.attrs.get("stride", 1),
        "padding": node.attrs.get("padding", 0),
        "groups": node.attrs.get("groups", 1),
    }


def _fused_activation(node: Node):
    return kernels.resolve_activation(
        node.attrs.get("activation"), node.attrs.get("activation_alpha"))


def _out_spec(node: Node, specs) -> Tuple[Tuple[int, ...], np.dtype]:
    spec = specs[node.outputs[0]]
    return tuple(spec.shape), spec.dtype.to_numpy()


def _finish_activation(name, alpha, act, pre: np.ndarray, out: np.ndarray,
                       ctx: RunContext) -> np.ndarray:
    """Apply a fused activation on its way into the arena buffer ``out``.

    ``pre`` holds the kernel's result: ``out`` itself, or the transient
    twin :func:`kernels.activation_twin` chose when the activation may
    not run in place.  Activations ``apply_activation`` cannot write go
    through the allocating form and hand ``out`` straight back."""
    if act is None or kernels.apply_activation(name, pre, out, ctx.workspace,
                                               alpha=alpha):
        return out
    result = act(pre)
    ctx.arena.release(out)
    return result


def _node_qparams(node: Node, prefix: str, channel_axis=None) -> QuantParams:
    dtype = node.attrs.get(f"{prefix}_dtype", DType.INT8)
    if isinstance(dtype, str):
        dtype = DType(dtype)
    scale = np.asarray(node.attrs[f"{prefix}_scale"])
    axis = node.attrs.get(f"{prefix}_channel_axis", channel_axis)
    if scale.size == 1:
        axis = None
    return QuantParams(
        scale, np.asarray(node.attrs[f"{prefix}_zero_point"]),
        dtype, channel_axis=axis,
    )


def _own_qparams(node: Node) -> QuantParams:
    dtype = node.attrs.get("dtype", DType.INT8)
    if isinstance(dtype, str):
        dtype = DType(dtype)
    scale = np.asarray(node.attrs["scale"])
    axis = node.attrs.get("channel_axis") if scale.size > 1 else None
    return QuantParams(scale, np.asarray(node.attrs["zero_point"]), dtype,
                       channel_axis=axis)


def _unpack_bitplane(pack: Dict[str, np.ndarray]) -> np.ndarray:
    """Expand a 1-bit sign plane back to the ±1.0 fp32 weights.

    Inverse of the ``bits``/``bshape`` entries written by the binary
    prepackers; ``2 * bit - 1`` reproduces ``signs.astype(float32)``
    exactly for the ±1 sign tensors BinarizePass emits.
    """
    shape = tuple(int(d) for d in pack["bshape"])
    size = int(np.prod(shape))
    bits = np.unpackbits(pack["bits"], count=size)
    return (bits.astype(np.float32) * 2.0 - 1.0).reshape(shape)


@_builder("conv2d", "fused_conv2d")
def _build_conv2d(node: Node, specs, pack=None) -> KernelFn:
    attrs = _conv_attrs(node)
    act_name = node.attrs.get("activation")
    act_alpha = node.attrs.get("activation_alpha")
    act = _fused_activation(node)
    has_bias = len(node.inputs) > 2
    shape, dtype = _out_spec(node, specs)
    w2 = pack.get("w2") if pack else None

    def run(args, ctx=None):
        bias = args[2] if has_bias else None
        if ctx is None:
            out = kernels.conv2d(args[0], args[1], bias=bias,
                                 packed_weight=w2, **attrs)
            return [act(out) if act else out]
        out = ctx.alloc(shape, dtype)
        pre = kernels.activation_twin(act_name, out, ctx.workspace, "preact")
        kernels.conv2d(args[0], args[1], bias=bias, out=pre,
                       workspace=ctx.workspace, packed_weight=w2, **attrs)
        return [_finish_activation(act_name, act_alpha, act, pre, out, ctx)]
    return run


@_builder("dense", "fused_dense")
def _build_dense(node: Node, specs, pack=None) -> KernelFn:
    act_name = node.attrs.get("activation")
    act_alpha = node.attrs.get("activation_alpha")
    act = _fused_activation(node)
    has_bias = len(node.inputs) > 2
    shape, dtype = _out_spec(node, specs)
    w32 = pack.get("w32") if pack else None

    def run(args, ctx=None):
        weight = w32 if w32 is not None else args[1]
        bias = args[2] if has_bias else None
        if ctx is None:
            out = kernels.dense(args[0], weight, bias=bias)
            return [act(out) if act else out]
        out = ctx.alloc(shape, dtype)
        pre = kernels.activation_twin(act_name, out, ctx.workspace, "preact")
        kernels.dense(args[0], weight, bias=bias, out=pre,
                      workspace=ctx.workspace)
        return [_finish_activation(act_name, act_alpha, act, pre, out, ctx)]
    return run


@_builder("bconv2d")
def _build_bconv2d(node: Node, specs, pack=None) -> KernelFn:
    attrs = _conv_attrs(node)
    scale = np.asarray(node.attrs["scale"],
                       dtype=np.float32).reshape(1, -1, 1, 1)
    act = _fused_activation(node)
    has_bias = len(node.inputs) > 2
    signs32 = _unpack_bitplane(pack) if pack and "bits" in pack else None
    w2 = None
    if signs32 is not None and int(attrs["groups"]) == 1:
        w2 = signs32.reshape(signs32.shape[0], -1)

    def run(args, ctx=None):
        weight = signs32 if signs32 is not None \
            else args[1].astype(np.float32)
        out = kernels.conv2d(args[0], weight, packed_weight=w2, **attrs)
        out = out * scale
        if has_bias:
            out = out + args[2].reshape(1, -1, 1, 1)
        return [act(out) if act else out]
    return run


@_builder("bdense")
def _build_bdense(node: Node, specs, pack=None) -> KernelFn:
    scale = np.asarray(node.attrs["scale"], dtype=np.float32)
    act = _fused_activation(node)
    has_bias = len(node.inputs) > 2
    signs32 = _unpack_bitplane(pack) if pack and "bits" in pack else None

    def run(args, ctx=None):
        weight = signs32 if signs32 is not None \
            else args[1].astype(np.float32)
        out = kernels.dense(args[0], weight) * scale
        if has_bias:
            out = out + args[2]
        return [act(out) if act else out]
    return run


def _scratch_form(ctx: Optional[RunContext], shape, dtype) -> dict:
    """``out=``/``workspace=`` for a quantize/requantize call: an arena
    buffer and the plan's scratch with a context, nothing — the
    allocating reference form — without one."""
    if ctx is None:
        return {}
    return {"out": ctx.alloc(shape, dtype), "workspace": ctx.workspace}


def _conv_kernel_hw(node: Node, specs) -> Tuple[int, int]:
    w_spec = specs[node.inputs[1]]
    return int(w_spec.shape[2]), int(w_spec.shape[3])


def _pack_k_bounds(pack: Dict[str, np.ndarray]) -> Tuple[int, ...]:
    """The reduction chunks an exact-GEMM pack was proven for.  Required:
    a float32 pack without them is an unproven GEMM, so a pack that
    lacks the entry fails to bind instead of running one."""
    return tuple(int(b) for b in pack["k_bounds"])


@_builder("qconv2d")
def _build_qconv2d(node: Node, specs, pack=None) -> KernelFn:
    attrs = _conv_attrs(node)
    input_params = _node_qparams(node, "input")
    weight_params = _node_qparams(node, "weight", channel_axis=0)
    out_params = _node_qparams(node, "out")
    activation = node.attrs.get("activation")
    alpha = node.attrs.get("activation_alpha")
    has_bias = len(node.inputs) > 2
    shape, dtype = _out_spec(node, specs)

    if node.attrs.get("layout") == "NHWC":
        # Layout-pass region: activations flow NHWC through this node.
        # Weights are still OIHW initializers; the pack carries the
        # NHWC-ordered float matrix.  Without a pack, semantics are
        # *defined* by transposing back to the NCHW reference.
        if pack and "w_nhwc_exact" in pack and (
                not has_bias or "bias" in pack):
            w_pack = pack["w_nhwc_exact"]
            k_bounds = _pack_k_bounds(pack)
            row_term = pack.get("row_term_nhwc")
            input_zero = int(input_params.zero_point.ravel()[0])
            requant = build_requant_plan(
                input_params, weight_params,
                pack.get("bias") if has_bias else None, out_params,
                channel_ndim=4, activation=activation,
                activation_alpha=alpha, channel_axis=-1)
            kernel_hw = _conv_kernel_hw(node, specs)
            stride, padding = attrs["stride"], attrs["padding"]

            def run(args, ctx=None):
                acc = kernels.qconv2d_acc_nhwc(
                    args[0], w_pack, k_bounds, kernel_hw, stride, padding,
                    input_zero=0 if row_term is not None else input_zero,
                    workspace=ctx.workspace if ctx is not None else None)
                if row_term is not None:
                    acc -= row_term
                return [requant(acc, **_scratch_form(ctx, shape, dtype))]
            return run

        def run(args, ctx=None):
            nchw = np.ascontiguousarray(args[0].transpose(0, 3, 1, 2))
            out = quantized_conv2d(
                nchw, input_params, args[1], weight_params,
                args[2] if has_bias else None, out_params,
                activation=activation, activation_alpha=alpha, **attrs)
            return [np.ascontiguousarray(out.transpose(0, 2, 3, 1))]
        return run

    if pack and "w2_exact" in pack and (not has_bias or "bias" in pack):
        # Exact blocked-GEMM path: the float accumulator holds the same
        # integers the int32 reference computes (see kernels module
        # docstring), and the requant plan's first op converts either to
        # float64 exactly — identical bits either way.  For a folded
        # batch the accumulator is a transposed view; the row term and
        # the requant plan are elementwise and take it as it comes.
        w2 = pack["w2_exact"]
        k_bounds = _pack_k_bounds(pack)
        row_term = pack.get("row_term")
        input_zero = int(input_params.zero_point.ravel()[0])
        requant = build_requant_plan(
            input_params, weight_params,
            pack.get("bias") if has_bias else None, out_params,
            channel_ndim=4, activation=activation, activation_alpha=alpha)
        kernel_hw = _conv_kernel_hw(node, specs)
        stride, padding = attrs["stride"], attrs["padding"]

        def run(args, ctx=None):
            acc = kernels.qconv2d_acc(
                args[0], w2, k_bounds, kernel_hw, stride, padding,
                input_zero=0 if row_term is not None else input_zero,
                workspace=ctx.workspace if ctx is not None else None)
            if row_term is not None:
                acc -= row_term
            return [requant(acc, **_scratch_form(ctx, shape, dtype))]
        return run

    if pack and "w_int" in pack and (not has_bias or "bias" in pack):
        w_int = pack["w_int"]
        row_term = pack.get("row_term")
        input_zero = int(input_params.zero_point.ravel()[0])
        requant = build_requant_plan(
            input_params, weight_params,
            pack.get("bias") if has_bias else None, out_params,
            channel_ndim=4, activation=activation, activation_alpha=alpha)
        w2 = (w_int.reshape(w_int.shape[0], -1)
              if int(attrs["groups"]) == 1 else None)

        def run(args, ctx=None):
            q = args[0].astype(np.int32)
            if row_term is None:
                acc = kernels.conv2d(q - input_zero, w_int,
                                     packed_weight=w2, **attrs)
            else:
                # (q - z) * W == q * W - z * rowsum(W): integer-exact, so
                # the shift folds into the prepacked additive term.
                acc = kernels.conv2d(q, w_int, packed_weight=w2, **attrs)
                acc -= row_term
            return [requant(acc, **_scratch_form(ctx, shape, dtype))]
        return run

    def run(args, ctx=None):
        return [quantized_conv2d(
            args[0], input_params, args[1], weight_params,
            args[2] if has_bias else None, out_params,
            activation=activation, activation_alpha=alpha, **attrs)]
    return run


@_builder("qdense")
def _build_qdense(node: Node, specs, pack=None) -> KernelFn:
    input_params = _node_qparams(node, "input")
    weight_params = _node_qparams(node, "weight", channel_axis=0)
    out_params = _node_qparams(node, "out")
    activation = node.attrs.get("activation")
    alpha = node.attrs.get("activation_alpha")
    has_bias = len(node.inputs) > 2
    shape, dtype = _out_spec(node, specs)

    if pack and "wt_exact" in pack and (not has_bias or "bias" in pack):
        wt = pack["wt_exact"]
        k_bounds = _pack_k_bounds(pack)
        row_term = pack.get("row_term")
        input_zero = int(input_params.zero_point.ravel()[0])
        requant = build_requant_plan(
            input_params, weight_params,
            pack.get("bias") if has_bias else None, out_params,
            channel_ndim=2, activation=activation, activation_alpha=alpha)

        def run(args, ctx=None):
            acc = kernels.qdense_acc(
                args[0], wt, k_bounds,
                input_zero=0 if row_term is not None else input_zero,
                workspace=ctx.workspace if ctx is not None else None)
            if row_term is not None:
                acc -= row_term
            return [requant(acc, **_scratch_form(ctx, shape, dtype))]
        return run

    if pack and "wt_int" in pack and (not has_bias or "bias" in pack):
        wt_int = pack["wt_int"]
        row_term = pack.get("row_term")
        input_zero = int(input_params.zero_point.ravel()[0])
        requant = build_requant_plan(
            input_params, weight_params,
            pack.get("bias") if has_bias else None, out_params,
            channel_ndim=2, activation=activation, activation_alpha=alpha)

        def run(args, ctx=None):
            q = args[0].astype(np.int32)
            if row_term is None:
                acc = (q - input_zero) @ wt_int
            else:
                acc = q @ wt_int
                acc -= row_term
            return [requant(acc, **_scratch_form(ctx, shape, dtype))]
        return run

    def run(args, ctx=None):
        return [quantized_dense(
            args[0], input_params, args[1], weight_params,
            args[2] if has_bias else None, out_params,
            activation=activation, activation_alpha=alpha)]
    return run


@_builder("batchnorm")
def _build_batchnorm(node: Node, specs, pack=None) -> KernelFn:
    epsilon = float(node.attrs.get("epsilon", 1e-5))
    shape, dtype = _out_spec(node, specs)

    if pack and "scale" in pack:
        # Constant parameters: the kernel's scale/shift, computed once by
        # the prepacker with the kernel's own expressions.
        channels = [1] * len(shape)
        channels[1] = -1
        scale = pack["scale"].reshape(channels)
        shift = pack["shift"].reshape(channels)

        def run(args, ctx=None):
            if ctx is None:
                return [args[0] * scale + shift]
            out = ctx.alloc(shape, dtype)
            np.multiply(args[0], scale, out=out)
            np.add(out, shift, out=out)
            return [out]
        return run

    def run(args, ctx=None):
        if ctx is None:
            return [kernels.batchnorm(*args, epsilon=epsilon)]
        return [kernels.batchnorm(*args, epsilon=epsilon,
                                  out=ctx.alloc(shape, dtype))]
    return run


@_builder("softmax")
def _build_softmax(node: Node, specs, pack=None) -> KernelFn:
    axis = int(node.attrs.get("axis", -1))
    shape, dtype = _out_spec(node, specs)

    def run(args, ctx=None):
        # Into an arena buffer: a classifier's softmax is its graph
        # output, and a fresh array there is one more buffer donated to
        # the pool by every recycle().
        out = ctx.alloc(shape, dtype) if ctx is not None else None
        return [kernels.softmax(args[0], axis=axis, out=out)]
    return run


def _build_binop(ufunc):
    def build(node: Node, specs, pack=None) -> KernelFn:
        shape, dtype = _out_spec(node, specs)

        def run(args, ctx=None):
            if ctx is None:
                return [ufunc(args[0], args[1])]
            return [ufunc(args[0], args[1], out=ctx.alloc(shape, dtype))]
        return run
    return build


_BUILDERS["add"] = _build_binop(np.add)
_BUILDERS["sub"] = _build_binop(np.subtract)
_BUILDERS["mul"] = _build_binop(np.multiply)
_BUILDERS["maximum"] = _build_binop(np.maximum)


def _build_pool(kernel_fn, kernel_fn_nhwc):
    def build(node: Node, specs, pack=None) -> KernelFn:
        kernel = node.attrs["kernel"]
        stride = node.attrs.get("stride")
        padding = node.attrs.get("padding", 0)
        shape, dtype = _out_spec(node, specs)
        # NHWC windows reduce the same kh*kw values per output element in
        # the same gather order, so the pooled bits match the NCHW pool's
        # output exactly, merely transposed.
        fn = kernel_fn_nhwc if node.attrs.get("layout") == "NHWC" \
            else kernel_fn

        def run(args, ctx=None):
            if ctx is None:
                return [fn(args[0], kernel, stride, padding)]
            return [fn(args[0], kernel, stride, padding,
                       out=ctx.alloc(shape, dtype),
                       workspace=ctx.workspace)]
        return run
    return build


_BUILDERS["maxpool2d"] = _build_pool(kernels.maxpool2d,
                                     kernels.maxpool2d_nhwc)
_BUILDERS["avgpool2d"] = _build_pool(kernels.avgpool2d,
                                     kernels.avgpool2d_nhwc)


@_builder("transpose")
def _build_transpose(node: Node, specs, pack=None) -> KernelFn:
    perm = tuple(int(p) for p in node.attrs["perm"])
    shape, dtype = _out_spec(node, specs)

    def run(args, ctx=None):
        if ctx is None:
            return [np.ascontiguousarray(args[0].transpose(perm))]
        out = ctx.alloc(shape, dtype)
        np.copyto(out, args[0].transpose(perm))
        return [out]
    return run


@_builder("global_avgpool2d")
def _build_global_avgpool2d(node: Node, specs, pack=None) -> KernelFn:
    shape, dtype = _out_spec(node, specs)

    def run(args, ctx=None):
        if ctx is None:
            return [kernels.global_avgpool2d(args[0])]
        # Into an arena buffer: a pooled graph output is recycled into
        # the arena, and a fresh array per run would grow its pool.
        return [kernels.global_avgpool2d(args[0],
                                         out=ctx.alloc(shape, dtype))]
    return run


@_builder("upsample2d")
def _build_upsample2d(node: Node, specs, pack=None) -> KernelFn:
    scale = int(node.attrs["scale"])
    shape, dtype = _out_spec(node, specs)

    def run(args, ctx=None):
        if ctx is None:
            return [kernels.upsample2d(args[0], scale)]
        return [kernels.upsample2d(args[0], scale,
                                   out=ctx.alloc(shape, dtype))]
    return run


def _build_view_copy(node: Node, specs, pack=None) -> KernelFn:
    """flatten/reshape: a view when allocating, an arena copy with a
    context (views into buffers the arena may recycle are never issued)."""
    shape, dtype = _out_spec(node, specs)

    def run(args, ctx=None):
        if ctx is None:
            return [args[0].reshape(shape)]
        out = ctx.alloc(shape, dtype)
        out[...] = args[0].reshape(shape)
        return [out]
    return run


_BUILDERS["flatten"] = _build_view_copy
_BUILDERS["reshape"] = _build_view_copy


@_builder("concat")
def _build_concat(node: Node, specs, pack=None) -> KernelFn:
    axis = int(node.attrs.get("axis", 1))
    shape, dtype = _out_spec(node, specs)

    def run(args, ctx=None):
        if ctx is None:
            return [np.concatenate(args, axis=axis)]
        return [np.concatenate(args, axis=axis,
                               out=ctx.alloc(shape, dtype))]
    return run


@_builder("pad")
def _build_pad(node: Node, specs, pack=None) -> KernelFn:
    pads = node.attrs["pads"]
    shape, dtype = _out_spec(node, specs)

    def run(args, ctx=None):
        if ctx is None:
            return [kernels.pad(args[0], pads)]
        return [kernels.pad(args[0], pads, out=ctx.alloc(shape, dtype))]
    return run


@_builder("quantize")
def _build_quantize(node: Node, specs, pack=None) -> KernelFn:
    params = _own_qparams(node)
    shape, dtype = _out_spec(node, specs)
    return lambda args, ctx=None: [
        params.quantize(args[0], **_scratch_form(ctx, shape, dtype))]


@_builder("dequantize")
def _build_dequantize(node: Node, specs, pack=None) -> KernelFn:
    params = _own_qparams(node)
    shape, dtype = _out_spec(node, specs)
    return lambda args, ctx=None: [
        params.dequantize(args[0], **_scratch_form(ctx, shape, dtype))]


def _build_activation(node: Node, specs, pack=None) -> KernelFn:
    name = node.op_type
    alpha = node.attrs.get("alpha")
    fn = kernels.resolve_activation(name, alpha)
    buffered = name in kernels.BUFFERED_ACTIVATIONS
    shape, dtype = _out_spec(node, specs)

    def run(args, ctx=None):
        x = args[0]
        if buffered:
            out = np.empty(x.shape, dtype=dtype) if ctx is None \
                else ctx.alloc(shape, dtype)
            if kernels.apply_activation(
                    name, x, out, ctx.workspace if ctx is not None else None,
                    alpha=alpha):
                return [out]
            if ctx is not None:
                ctx.arena.release(out)
        return [fn(x)]
    return run


for _name in kernels.ACTIVATIONS:
    _BUILDERS[_name] = _build_activation


# -- weight prepacking ---------------------------------------------------------
#
# A prepacker inspects one node whose weights are graph initializers and
# returns the ``{entry: ndarray}`` pack its builder consumes, or None
# when nothing about the node can be specialized (dynamic weights,
# unsupported layout).  Every entry must be a plain ndarray so the plan
# cache can persist packs losslessly in an .npz archive.

_PREPACKERS: Dict[str, Callable[..., Optional[Dict[str, np.ndarray]]]] = {}


def _prepacker(*op_types: str):
    def deco(fn):
        for op in op_types:
            _PREPACKERS[op] = fn
        return fn
    return deco


def _weight_init(node: Node, graph: Graph) -> Optional[np.ndarray]:
    if len(node.inputs) < 2:
        return None
    return graph.initializers.get(node.inputs[1])


def _bias_init(node: Node, graph: Graph) -> Optional[np.ndarray]:
    if len(node.inputs) < 3:
        return None
    return graph.initializers.get(node.inputs[2])


def _padding_is_zero(node: Node) -> bool:
    padding = node.attrs.get("padding", 0)
    if isinstance(padding, (tuple, list)):
        return not any(int(p) for p in padding)
    return int(padding) == 0


@_prepacker("conv2d", "fused_conv2d")
def _prepack_conv2d(node, graph, specs):
    weight = _weight_init(node, graph)
    if weight is None or int(node.attrs.get("groups", 1)) != 1:
        return None
    w2 = weight.reshape(weight.shape[0], -1)
    if specs[node.inputs[0]].dtype.to_numpy() == np.float16:
        # The fp16 path accumulates in fp32; prepack the upcast so the
        # hot loop's workspace copy disappears.  Same values into the
        # same GEMM call form, hence bitwise-identical.
        w2 = w2.astype(np.float32)
    return {"w2": np.ascontiguousarray(w2)}


@_prepacker("dense", "fused_dense")
def _prepack_dense(node, graph, specs):
    weight = _weight_init(node, graph)
    if weight is None or not np.issubdtype(weight.dtype, np.floating) \
            or weight.dtype == np.float32:
        # fp32 GEMM weights stay untouched: pre-transposing would flip
        # OpenBLAS from its NT to its NN kernel, whose results are not
        # bitwise-identical (see DESIGN.md).  Only the fp16 upcast — the
        # same values entering the same call form — is safe to hoist.
        return None
    return {"w32": weight.astype(np.float32)}


@_prepacker("bconv2d", "bdense")
def _prepack_binary(node, graph, specs):
    signs = _weight_init(node, graph)
    if signs is None:
        return None
    # BinarizePass emits strict ±1 sign tensors, so one bit per weight
    # round-trips exactly (bit = sign > 0, weight = 2 * bit - 1).
    return {
        "bits": np.packbits(signs.reshape(-1) > 0),
        "bshape": np.asarray(signs.shape, dtype=np.int64),
    }


@_prepacker("batchnorm")
def _prepack_batchnorm(node, graph, specs):
    params = [graph.initializers.get(name) for name in node.inputs[1:5]]
    if len(params) != 4 or any(p is None for p in params):
        return None
    scale, shift = kernels.batchnorm_affine(
        *params, float(node.attrs.get("epsilon", 1e-5)))
    return {"scale": scale, "shift": shift}


def _exact_k_bounds(rows: np.ndarray) -> np.ndarray:
    """Where to cut a layer's reduction axis so float32 GEMMs are exact.

    ``rows`` is the integer weight matrix as (outputs, K), K in the
    pack's own reduction order.  Operands are ``q - z`` in [-255, 255]
    (or raw codes), so every partial sum of an output over a stretch of
    K — in any BLAS blocking or FMA grouping — is an integer of
    magnitude at most ``255 * sum|w|`` over that stretch of the output's
    row.  Returns int64 ``[0, ..., K]``: the fewest equal chunks such
    that the bound stays under ``kernels.EXACT_F32_BOUND`` for every
    chunk of every row — ``[0, K]`` whenever the whole row is.  One
    weight is at most 128, so K chunks always pass.
    """
    k = int(rows.shape[1])
    mags = np.abs(rows.astype(np.int16))
    widest = int(mags.sum(axis=1, dtype=np.int64).max())
    # A row of total T cannot fit in fewer than 255 * T / bound chunks.
    fewest = 255 * widest // kernels.EXACT_F32_BOUND + 1
    for chunks in range(fewest, k + 1):
        bounds = np.arange(chunks + 1, dtype=np.int64) * k // chunks
        if chunks > 1:
            widest = max(
                int(mags[:, lo:hi].sum(axis=1, dtype=np.int64).max())
                for lo, hi in zip(bounds[:-1], bounds[1:]))
        if 255 * widest < kernels.EXACT_F32_BOUND:
            return bounds
    raise AssertionError("unreachable: a single weight is under the bound")


def _exact_pack(name: str, rows: np.ndarray,
                transposed: bool) -> Dict[str, np.ndarray]:
    """An exact-GEMM pack: the (outputs, K) integer ``rows`` as float32
    under ``name`` — K-major when ``transposed`` — with their proof."""
    w = rows.astype(np.float32)
    return {name: np.ascontiguousarray(w.T if transposed else w),
            "k_bounds": _exact_k_bounds(rows)}


def _exact_qconv_eligible(node: Node, q_weight: np.ndarray) -> bool:
    """Whether the conv may run through the exact blocked float GEMM:
    single-group, reduction narrow enough that the float64 sum over its
    float32-exact chunks is an exact integer *and* matches the int32
    reference (which cannot overflow below this width either)."""
    k = int(np.prod(q_weight.shape[1:]))
    return (kernels.exact_qgemm_enabled()
            and int(node.attrs.get("groups", 1)) == 1
            and k <= kernels.EXACT_GEMM_MAX_REDUCE)


@_prepacker("qconv2d")
def _prepack_qconv2d(node, graph, specs):
    q_weight = _weight_init(node, graph)
    if q_weight is None:
        return None
    layout = node.attrs.get("layout", "NCHW")
    out_c = q_weight.shape[0]
    k = int(np.prod(q_weight.shape[1:]))
    exact = _exact_qconv_eligible(node, q_weight)
    if layout == "NHWC":
        if not exact:
            # The layout pass only tags exact-eligible convs; a stale
            # tag (e.g. exact GEMM disabled after planning) falls back
            # to the transposing reference builder, which needs no pack.
            return None
        # OIHW -> (kh, kw, in_c, out_c): row index (i*kw + j)*C + ci,
        # the NHWC column gather order.
        pack = _exact_pack(
            "w_nhwc_exact",
            q_weight.transpose(0, 2, 3, 1).reshape(out_c, k),
            transposed=True)
    elif exact:
        pack = _exact_pack("w2_exact", q_weight.reshape(out_c, k),
                           transposed=False)
    else:
        pack = {"w_int": q_weight.astype(np.int32)}
    bias = _bias_init(node, graph)
    if len(node.inputs) > 2:
        if bias is None:
            return None  # dynamic bias: requant cannot be hoisted
        pack["bias"] = bias
    if _padding_is_zero(node):
        # Zero padding injects literal zeros *after* the zero-point
        # shift, so the rowsum identity only holds for unpadded convs.
        row_term = zero_point_row_term(
            q_weight, _node_qparams(node, "input"), (1, 2, 3))
        if row_term is not None:
            if layout == "NHWC":
                pack["row_term_nhwc"] = row_term.reshape(1, 1, 1, -1)
            else:
                pack["row_term"] = row_term.reshape(1, -1, 1, 1)
    return pack


@_prepacker("qdense")
def _prepack_qdense(node, graph, specs):
    q_weight = _weight_init(node, graph)
    if q_weight is None:
        return None
    # Integer matmul is exact, so the pre-transposed contiguous call
    # form is bitwise-identical to the strided `q @ W.T` it replaces —
    # and, within the exact-GEMM reduction bound, so is the float
    # BLAS form (see kernels module docstring).
    if kernels.exact_qgemm_enabled() \
            and q_weight.shape[1] <= kernels.EXACT_GEMM_MAX_REDUCE:
        pack = _exact_pack("wt_exact", q_weight, transposed=True)
    else:
        pack = {"wt_int": np.ascontiguousarray(q_weight.astype(np.int32).T)}
    bias = _bias_init(node, graph)
    if len(node.inputs) > 2:
        if bias is None:
            return None
        pack["bias"] = bias
    row_term = zero_point_row_term(
        q_weight, _node_qparams(node, "input"), (1,))
    if row_term is not None:
        pack["row_term"] = row_term
    return pack


def prepack_graph(graph: Graph,
                  specs: Optional[Dict[str, TensorSpec]] = None
                  ) -> Dict[str, Dict[str, np.ndarray]]:
    """Precompute every weight-derived array the kernels would otherwise
    build per call.  Returns ``{node_name: {entry: ndarray}}``."""
    if specs is None:
        specs = graph.infer_specs()
    packs: Dict[str, Dict[str, np.ndarray]] = {}
    for node in graph.nodes:
        packer = _PREPACKERS.get(node.op_type)
        if packer is None:
            continue
        pack = packer(node, graph, specs)
        if pack:
            packs[node.name] = pack
    return packs


# -- compilation ---------------------------------------------------------------

def compile_node(node: Node, specs: Dict[str, TensorSpec],
                 pack: Optional[Dict[str, np.ndarray]] = None) -> KernelFn:
    """Resolve one node into a bound kernel callable."""
    builder = _BUILDERS.get(node.op_type)
    if builder is None:
        raise ExecutionError(f"no kernel for op {node.op_type!r}")
    try:
        return builder(node, specs, pack)
    except ExecutionError:
        raise
    except Exception as exc:
        raise ExecutionError(
            f"node {node.name!r} ({node.op_type}) failed to compile: {exc}"
        ) from exc


def compile_plan(graph: Graph,
                 specs: Optional[Dict[str, TensorSpec]] = None,
                 *,
                 prepack: bool = True,
                 packs: Optional[Dict[str, Dict[str, np.ndarray]]] = None,
                 releases: Optional[Sequence[Sequence[str]]] = None,
                 peak_live: Optional[int] = None) -> ExecutionPlan:
    """Compile ``graph`` into an :class:`ExecutionPlan`.

    The keyword-only arguments are the warm-start seams the plan cache
    uses: when ``specs``, ``releases``/``peak_live`` and ``packs`` are
    all supplied (from a cache hit), compilation skips validation, shape
    inference, liveness analysis and prepacking — only the cheap kernel
    binding remains.  A cold call computes all of them.
    """
    # Deferred import: repro.optim pulls in passes that import this runtime
    # package at module scope.
    from ..optim.memory_planner import (
        compute_lifetimes, peak_live_bytes, release_schedule,
    )

    if specs is None:
        graph.validate()
        specs = graph.infer_specs()
    if releases is None or peak_live is None:
        lifetimes = compute_lifetimes(graph)
        releases = release_schedule(graph, lifetimes)
        peak_live = peak_live_bytes(lifetimes)
    if packs is None:
        packs = prepack_graph(graph, specs) if prepack else {}
    steps = [
        CompiledStep(node, compile_node(node, specs, packs.get(node.name)),
                     tuple(releases[position]),
                     layout=str(node.attrs.get("layout", "NCHW")))
        for position, node in enumerate(graph.nodes)
    ]
    return ExecutionPlan(graph.name, steps, specs, int(peak_live),
                         packs=packs)
