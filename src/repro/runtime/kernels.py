"""Numpy reference kernels for every IR operator.

These implement the float semantics of the op set.  They favour clarity and
vectorization over micro-optimization, with two deliberate fast
formulations on the conv hot path:

* **Implicit-GEMM convolution** (the default conv mode, ``"implicit"``).
  Pointwise convs (1x1, stride 1, no padding, no groups) feed the GEMM a
  zero-copy ``reshape`` view of the input — no column buffer exists at
  all.  General convs skip the materialized *padded* input: a per-geometry
  column buffer is border-zeroed **once** at creation and every call
  copies only the clipped in-bounds patch rectangles straight out of the
  unpadded input (``_gather_cols``).  Both forms hand the GEMM a buffer
  with bit-identical content and memory layout to the classic
  materialized im2col, so the results are bitwise-identical — the same
  BLAS call sees the same bytes.  :func:`set_conv_mode` (``"im2col"``)
  selects the reference path: pad-buffer copy plus full strided gather,
  kept as the equivalence oracle for the property tests and benchmarks.
  Nothing else selects it: the mode is not read from the environment.
* **Exact float32 integer GEMM** (:func:`exact_gemm`, behind
  :func:`qconv2d_acc`, :func:`qconv2d_acc_nhwc` and :func:`qdense_acc`).
  The quantized accumulators are integers, and an sgemm whose every
  partial sum — in any BLAS blocking or FMA grouping — is an integer
  below ``2**24`` (``EXACT_F32_BOUND``) computes them *exactly*, whatever
  the summation order.  That makes it bitwise-safe to run the quantized
  matmuls through BLAS (numpy's integer matmul has no BLAS path) and to
  re-block them freely.  The prepacker proves the bound per layer:
  operands are ``q - z`` in [-255, 255], so a partial sum of one output
  is at most ``255 * sum|w|`` over the part of that output's weight row
  it covers, and the pack carries ``k_bounds``, the fewest equal chunks
  of the reduction axis for which every chunk of every row stays under
  the bound (one chunk for most layers).  Each chunk is one sgemm; the
  chunk results are exact integers, and their sum is taken in float64,
  where integers are exact below ``2**53`` — far above what the guarded
  reduction width (``EXACT_GEMM_MAX_REDUCE``) can reach.  Three
  re-blockings ride on the proof: the reduction split itself, L2-sized
  output panels (``QGEMM_PANEL_BYTES``), and the *batch fold* — a conv
  whose per-sample output plane is narrow (``QCONV_FOLD_MAX_PLANE``)
  gathers the whole batch into one ``(K, n*oh*ow)`` column matrix and
  runs one wide GEMM instead of ``n`` skinny ones.  Reductions wider than
  ``EXACT_GEMM_MAX_REDUCE`` fall back to the int32 reference path, whose
  wrap-on-overflow semantics a float GEMM would not reproduce.

Split-K (splitting the *reduction* axis of a GEMM) remains forbidden for
every *float* conv and dense: it reassociates floating-point accumulation
and is not bitwise-safe, and neither is folding a batch into one float
GEMM (OpenBLAS picks kernels by shape).  The prohibition is lifted only
for the exact-integer GEMMs above, and only under the per-chunk proof:
there is no rounding to reassociate.  The float conv never splits or
re-blocks its GEMM — the implicit path changes how the column buffer is
*filled*, never the GEMM call itself.

Every hot kernel additionally accepts scratch buffers so the serving
engine's steady-state path performs no large allocations: ``out=`` receives
a preallocated destination (normally from a plan's
:class:`repro.runtime.arena.ScratchArena`) and ``workspace=`` a
:class:`Workspace` holding reusable intra-kernel scratch (column buffers,
fp32 accumulators, GEMM chunk partials) keyed by (tag, shape, dtype).  The
scratch variants are bitwise-identical to the allocating path: both sides
run the same ufunc/BLAS calls in the same order, only the destination
differs.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..telemetry import collectors as _telemetry


def _pair(value) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


# -- kernel-mode switches ------------------------------------------------------
#
# Both switches exist so the reference formulations stay runnable as the
# equivalence oracle: the property tests and the Txt-P benchmark flip
# them to compare the fast paths against the classic ones bit for bit.

# Widest reduction (C*kh*kw or K) the exact integer GEMM accepts.  int8
# products are <= 127*128 = 16256, so K = 2**16 bounds every accumulator
# below 2**31 — the float64 sum over reduction chunks is the exact
# integer (far below 2**53) and the int32 reference cannot overflow
# either.  Beyond this the int32 reference path runs instead: its
# wrap-on-overflow semantics are part of the observable behaviour and a
# float GEMM would not reproduce them.  Matches
# quantized.ZERO_POINT_ROW_TERM_MAX_REDUCE.
EXACT_GEMM_MAX_REDUCE = 1 << 16

# A quantized GEMM is exact in float32 when every partial sum, in any BLAS
# blocking or FMA grouping, is an integer below 2**24.  The activation
# operand is q - z in [-255, 255] (or a raw code, smaller still), so any
# partial sum of one output is bounded by 255 * sum|w| over the stretch
# of that output's weight row being reduced; the prepacker splits the
# reduction axis (``k_bounds``) until every stretch is under this bound.
EXACT_F32_BOUND = 1 << 24

# Target panel size (bytes of accumulator columns) for the
# cache-blocked quantized GEMMs.  512 KiB keeps one panel of columns plus
# the weight pack stripe resident in a typical 1 MiB L2.
QGEMM_PANEL_BYTES = 1 << 19

# Widest per-sample output plane (oh*ow) for which qconv2d_acc folds the
# batch into the GEMM's column axis.  Below it a per-sample GEMM is a
# skinny (out_c x K)·(K x oh*ow) product that re-streams the whole weight
# pack for a few dozen columns; folded, the pack is read once for n*oh*ow
# columns.  Above it the per-sample GEMMs are already wide enough to run
# at BLAS speed and the panel path keeps their columns cache-resident.
QCONV_FOLD_MAX_PLANE = 256

_CONV_MODES = ("implicit", "im2col")

_conv_mode = "implicit"

_exact_qgemm = os.environ.get("REPRO_EXACT_QGEMM", "1") != "0"


def conv_mode() -> str:
    """Current float-conv formulation: ``"implicit"`` or ``"im2col"``."""
    return _conv_mode


def set_conv_mode(mode: str) -> str:
    """Select the conv formulation; returns the previous mode."""
    global _conv_mode
    if mode not in _CONV_MODES:
        raise ValueError(f"unknown conv mode: {mode!r} (expected one of "
                         f"{_CONV_MODES})")
    previous = _conv_mode
    _conv_mode = mode
    return previous


def exact_qgemm_enabled() -> bool:
    """Whether prepacking may emit exact-GEMM quantized packs."""
    return _exact_qgemm


def set_exact_qgemm(enabled: bool) -> bool:
    """Enable/disable exact-GEMM quantized packs; returns previous value."""
    global _exact_qgemm
    previous = _exact_qgemm
    _exact_qgemm = bool(enabled)
    return previous


class Workspace:
    """Reusable scratch buffers keyed by (tag, trailing shape, dtype),
    plus per-tag :meth:`transient` byte pools for stateless scratch.

    A kernel asks for the same trailing shape on every call and only its
    leading extent (the batch rows) varies with the batch it runs, so the
    key leaves the leading extent out: each key owns one base buffer,
    grown when a call needs more rows than it has, and :meth:`get` hands
    out the leading-row view ``base[:n]`` — C-contiguous, at the base
    address, of exactly the requested shape.  One workspace therefore
    serves every batch size a worker runs, at the footprint of the
    largest.  The tag separates buffers a single kernel needs
    simultaneously (columns vs. padded input vs. accumulator); the
    implicit-GEMM conv additionally encodes the conv *geometry* in its
    tag, because its border-zeroed column buffers are initialized once
    and may only be shared by calls that never write the border — the
    trailing shape alone does not say which cells those are, so the tag
    still has to.

    Because the full key is (tag, trailing shape, dtype), two kernels
    that reuse a tag with different trailing shapes or dtypes always
    receive **different** buffers — handing back a mismatched buffer
    would corrupt results, which the workspace regression tests guard.

    ``init`` (optional) runs on the whole base whenever one is created —
    the first request of a key and every time it grows, never on a hit —
    the hook the border-zeroed column buffers use to write their zeros
    outside the per-call hot path.

    ``nbytes()`` and ``peak_bytes`` count base bytes; ``peak_bytes`` is
    the high-water mark of resident scratch across the workspace's
    lifetime (it survives :meth:`clear`), surfaced by the telemetry
    collectors and the kernel-speed benchmark.
    """

    __slots__ = ("_buffers", "allocations", "allocated_bytes", "hits",
                 "peak_bytes", "__weakref__")

    def __init__(self) -> None:
        self._buffers: Dict[tuple, np.ndarray] = {}
        self.allocations = 0
        self.allocated_bytes = 0
        self.hits = 0
        self.peak_bytes = 0
        # Scrape-time telemetry: registered through a weak reference,
        # the hot get() path pays nothing.
        _telemetry.track_workspace(self)

    def get(self, shape, dtype, tag: str = "",
            init: Optional[Callable[[np.ndarray], None]] = None
            ) -> np.ndarray:
        shape = tuple(int(d) for d in shape)
        key = (tag, shape[1:], np.dtype(dtype).str)
        rows = shape[0] if shape else 1
        base = self._buffers.get(key)
        if base is None or base.shape[0] < rows:
            base = np.empty((rows,) + key[1], dtype=np.dtype(key[2]))
            if init is not None:
                init(base)
            self._buffers[key] = base
            self.allocations += 1
            self.allocated_bytes += base.nbytes
            self.peak_bytes = max(self.peak_bytes, self.nbytes())
        else:
            self.hits += 1
        view = base[:rows]
        return view if shape else view.reshape(())

    def transient(self, shape, dtype, tag: str) -> np.ndarray:
        """Scratch that is dead when the kernel returns: a view over one
        byte pool per tag, grown to the largest request and shared by
        every shape and dtype that asks.  Unlike :meth:`get` buffers the
        content never survives a call, so a plan's layers all reuse the
        same (cache-warm) bytes and resident scratch is the widest
        layer's, not the sum over layers."""
        dtype = np.dtype(dtype)
        shape = tuple(int(d) for d in shape)
        nbytes = dtype.itemsize
        for dim in shape:
            nbytes *= dim
        key = ("transient", tag)
        pool = self._buffers.get(key)
        if pool is None or pool.nbytes < nbytes:
            pool = self._buffers[key] = np.empty(nbytes, dtype=np.uint8)
            self.allocations += 1
            self.allocated_bytes += nbytes
            self.peak_bytes = max(self.peak_bytes, self.nbytes())
        else:
            self.hits += 1
        return pool[:nbytes].view(dtype).reshape(shape)

    def nbytes(self) -> int:
        return sum(buf.nbytes for buf in self._buffers.values())

    def clear(self) -> None:
        self._buffers.clear()


def scratch(workspace: Optional[Workspace], shape, dtype,
            tag: str) -> np.ndarray:
    """An uninitialized buffer the kernel fully rewrites and is done with
    when it returns: ``workspace`` transient scratch when there is one,
    fresh otherwise (the allocating reference form)."""
    if workspace is not None:
        return workspace.transient(shape, dtype, tag)
    return np.empty(tuple(shape), dtype=dtype)


def _spatial(axes: Tuple[int, int], ys, xs) -> tuple:
    """Index of a rank-4 array taking ``ys``/``xs`` on its two spatial
    ``axes`` — (2, 3) for NCHW, (1, 2) for NHWC — and everything else."""
    index = [slice(None)] * 4
    index[axes[0]], index[axes[1]] = ys, xs
    return tuple(index)


def _pad_into(buffer: np.ndarray, data: np.ndarray, ph: int, pw: int,
              value: float, axes: Tuple[int, int] = (2, 3)) -> np.ndarray:
    """Fill ``buffer`` with ``data`` surrounded by a constant border."""
    h, w = data.shape[axes[0]], data.shape[axes[1]]
    rest = slice(None)
    buffer[_spatial(axes, slice(0, ph), rest)] = value
    buffer[_spatial(axes, slice(ph + h, None), rest)] = value
    buffer[_spatial(axes, rest, slice(0, pw))] = value
    buffer[_spatial(axes, rest, slice(pw + w, None))] = value
    buffer[_spatial(axes, slice(ph, ph + h), slice(pw, pw + w))] = data
    return buffer


def im2col(data: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int],
           padding: Tuple[int, int], out: Optional[np.ndarray] = None,
           pad_buffer: Optional[np.ndarray] = None,
           ) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold NCHW input into (N, C*kh*kw, oh*ow) patch columns.

    ``out`` may be a preallocated column buffer (its dtype wins: slice
    assignment upcasts fp16 data exactly, which is how the fp16 path
    builds fp32 columns without an intermediate copy).  ``pad_buffer`` is
    a reusable (N, C, H+2ph, W+2pw) scratch for the padded input; padding
    is always zero-filled explicitly so fp16 inputs keep their dtype and
    pad value through ``np.pad``.
    """
    n, c, h, w = data.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    if ph or pw:
        if pad_buffer is not None:
            data = _pad_into(pad_buffer, data, ph, pw, 0)
        else:
            data = np.pad(data, ((0, 0), (0, 0), (ph, ph), (pw, pw)),
                          constant_values=0)
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    # Gather all kernel offsets via strided slicing; avoids Python loops over
    # output pixels (the dominant cost for reference conv).
    if out is None:
        cols = np.empty((n, c, kh, kw, oh, ow), dtype=data.dtype)
    else:
        cols = out.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        i_end = i + sh * oh
        for j in range(kw):
            j_end = j + sw * ow
            cols[:, :, i, j] = data[:, :, i:i_end:sh, j:j_end:sw]
    return cols.reshape(n, c * kh * kw, oh * ow), (oh, ow)


def _gather_cols(data: np.ndarray, cols6: np.ndarray, kernel, stride,
                 padding, row_offset: int = 0) -> None:
    """Fill patch columns straight from the *unpadded* input.

    ``cols6`` is an (N, C, kh, kw, rows, ow) view of a column buffer whose
    border entries (positions where the receptive field falls into the
    padding) are already zero.  For each kernel offset (i, j) only the
    rectangle of output positions whose source pixel lies inside the
    input is copied — the strided copies touch exactly the same elements
    the pad-then-gather im2col writes there, so the buffer content is
    bit-identical without ever materializing the padded input.

    ``row_offset`` names the first output row covered by ``cols6`` so the
    cache-blocked quantized path can gather one output-row panel at a
    time.
    """
    n, c, h, w = data.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    rows, ow = cols6.shape[4], cols6.shape[5]
    for i in range(kh):
        # Output rows oy with 0 <= oy*sh + i - ph <= h-1, clipped to the
        # panel [row_offset, row_offset + rows).
        oy_lo = max(row_offset, -((i - ph) // sh))
        oy_hi = min(row_offset + rows, (h - 1 - i + ph) // sh + 1)
        if oy_hi <= oy_lo:
            continue
        y0 = oy_lo * sh + i - ph
        ycnt = oy_hi - oy_lo
        for j in range(kw):
            ox_lo = max(0, -((j - pw) // sw))
            ox_hi = min(ow, (w - 1 - j + pw) // sw + 1)
            if ox_hi <= ox_lo:
                continue
            x0 = ox_lo * sw + j - pw
            xcnt = ox_hi - ox_lo
            cols6[:, :, i, j,
                  oy_lo - row_offset:oy_hi - row_offset,
                  ox_lo:ox_hi] = \
                data[:, :,
                     y0:y0 + (ycnt - 1) * sh + 1:sh,
                     x0:x0 + (xcnt - 1) * sw + 1:sw]


def _implicit_cols(data: np.ndarray, kernel, stride, padding,
                   oh: int, ow: int, compute_dtype,
                   workspace: Optional[Workspace]) -> np.ndarray:
    """Column buffer for implicit-GEMM conv, (N, C*kh*kw, oh*ow).

    Skips the padded-input materialization entirely: the buffer's border
    is zeroed once (at workspace-buffer creation, or per call when
    allocating) and :func:`_gather_cols` copies only in-bounds patch
    rectangles.  The result has bit-identical content and layout to the
    classic :func:`im2col` output, so the downstream GEMM is unchanged.

    The workspace tag encodes the conv geometry: a border-zeroed buffer
    is only valid for calls that never write its border cells, so buffers
    from different geometries must never alias even at equal shape.
    """
    n, c, h, w = data.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    shape = (n, c * kh * kw, oh * ow)
    padded = bool(ph or pw)
    if workspace is not None:
        tag = f"cols:{h}x{w}:k{kh}x{kw}:s{sh}x{sw}:p{ph}x{pw}"
        init = (lambda buf: buf.fill(0)) if padded else None
        cols = workspace.get(shape, compute_dtype, tag, init=init)
    elif padded:
        cols = np.zeros(shape, dtype=compute_dtype)
    else:
        cols = np.empty(shape, dtype=compute_dtype)
    _gather_cols(data, cols.reshape(n, c, kh, kw, oh, ow),
                 kernel, stride, padding)
    return cols


def conv2d(data: np.ndarray, weight: np.ndarray, bias=None,
           stride=1, padding=0, groups: int = 1,
           out: Optional[np.ndarray] = None,
           workspace: Optional[Workspace] = None,
           packed_weight: Optional[np.ndarray] = None) -> np.ndarray:
    """2-D convolution, NCHW input, OIHW weight, optional groups.

    With ``out``/``workspace`` the kernel writes its result into the
    caller's buffer and draws all scratch (columns, padded input, fp32
    accumulator for fp16 data) from the workspace instead of the heap.

    ``packed_weight`` is an optional ``(out_c, in_c*kh*kw)`` matrix
    prepacked at plan-build time (already reshaped into im2col layout
    and, for fp16 data, already cast to fp32), so the hot loop skips the
    per-call reshape/cast.  ``weight`` still supplies the kernel shape.
    """
    stride = _pair(stride)
    padding = _pair(padding)
    n, _, h, w = data.shape
    out_c, in_c, kh, kw = weight.shape
    ph, pw = padding
    oh = (h + 2 * ph - kh) // stride[0] + 1
    ow = (w + 2 * pw - kw) // stride[1] + 1
    if groups == 1:
        # FP16 semantics: half-precision storage, single-precision
        # accumulation (what FP16 tensor units actually do).
        halved = data.dtype == np.float16
        compute_dtype = np.float32 if halved else data.dtype
        pointwise = (kh == 1 and kw == 1 and stride == (1, 1)
                     and not (ph or pw))
        if _conv_mode == "implicit" and pointwise:
            # A 1x1/stride-1 conv is exactly a GEMM over the flattened
            # spatial axis: the reshape view already has the content and
            # layout its im2col would build, so no column buffer exists.
            if not halved:
                cols = data.reshape(n, in_c, h * w)
            elif workspace is not None:
                cols = workspace.get((n, in_c, h * w), np.float32, "im2col")
                np.copyto(cols, data.reshape(n, in_c, h * w))
            else:
                cols = data.reshape(n, in_c, h * w).astype(np.float32)
        elif _conv_mode == "implicit":
            cols = _implicit_cols(data, (kh, kw), stride, padding, oh, ow,
                                  compute_dtype, workspace)
        else:
            cols_buf = pad_buf = None
            if workspace is not None:
                cols_buf = workspace.get((n, in_c * kh * kw, oh * ow),
                                         compute_dtype, "im2col")
                if ph or pw:
                    pad_buf = workspace.get((n, in_c, h + 2 * ph, w + 2 * pw),
                                            data.dtype, "pad")
            cols, _ = im2col(data, (kh, kw), stride, padding,
                             out=cols_buf, pad_buffer=pad_buf)
        w2 = weight.reshape(out_c, in_c * kh * kw) \
            if packed_weight is None else packed_weight
        if halved:
            if cols.dtype != np.float32:
                cols = cols.astype(np.float32)
            if w2.dtype == np.float32:
                pass                     # prepacked fp32 copy, nothing to do
            elif workspace is not None:
                w32 = workspace.get(w2.shape, np.float32, "weight")
                np.copyto(w32, w2)
                w2 = w32
            else:
                w2 = w2.astype(np.float32)
        if out is not None and out.dtype == compute_dtype:
            acc = out.reshape(n, out_c, oh * ow)
            np.matmul(w2, cols, out=acc)
            res = out
        elif out is not None:
            if workspace is not None:
                acc_buf = workspace.get((n, out_c, oh * ow), compute_dtype,
                                        "acc")
            else:
                acc_buf = np.empty((n, out_c, oh * ow), dtype=compute_dtype)
            np.matmul(w2, cols, out=acc_buf)
            res = acc_buf.reshape(n, out_c, oh, ow)
        else:
            res = np.matmul(w2, cols).reshape(n, out_c, oh, ow)
    else:
        in_per_group = data.shape[1] // groups
        out_per_group = out_c // groups
        if out is None:
            parts = []
            for g in range(groups):
                d = data[:, g * in_per_group:(g + 1) * in_per_group]
                wg = weight[g * out_per_group:(g + 1) * out_per_group]
                parts.append(conv2d(d, wg, stride=stride, padding=padding,
                                    workspace=workspace))
            res = np.concatenate(parts, axis=1)
        else:
            for g in range(groups):
                d = data[:, g * in_per_group:(g + 1) * in_per_group]
                wg = weight[g * out_per_group:(g + 1) * out_per_group]
                gbuf = None
                if workspace is not None:
                    gbuf = workspace.get((n, out_per_group, oh, ow),
                                         out.dtype, "group_out")
                part = conv2d(d, wg, stride=stride, padding=padding,
                              out=gbuf, workspace=workspace)
                out[:, g * out_per_group:(g + 1) * out_per_group] = part
            res = out
    if bias is not None:
        b4 = bias.reshape(1, -1, 1, 1)
        if out is None:
            res = res + b4
        else:
            np.add(res, b4, out=res)
    if np.issubdtype(data.dtype, np.floating) and res.dtype != data.dtype:
        if out is not None:
            out[...] = res       # cast-copy (fp32 accumulator -> fp16 out)
            res = out
        else:
            res = res.astype(data.dtype, copy=False)
    return res


def dense(data: np.ndarray, weight: np.ndarray, bias=None,
          out: Optional[np.ndarray] = None,
          workspace: Optional[Workspace] = None) -> np.ndarray:
    """Affine map over the last axis: y = x @ W.T + b (weight is (out, in))."""
    halved = data.dtype == np.float16
    if halved:
        if workspace is None:
            a32 = data.astype(np.float32)
        else:
            a32 = workspace.get(data.shape, np.float32, "dense_in")
            np.copyto(a32, data)
        if weight.dtype == np.float32:
            w32 = weight                 # prepacked fp32 copy, reuse as-is
        elif workspace is None:
            w32 = weight.astype(np.float32)
        else:
            w32 = workspace.get(weight.shape, np.float32, "dense_w")
            np.copyto(w32, weight)
        if out is not None:
            acc_shape = data.shape[:-1] + (weight.shape[0],)
            if workspace is not None:
                acc = workspace.get(acc_shape, np.float32, "dense_acc")
            else:
                acc = np.empty(acc_shape, dtype=np.float32)
            np.matmul(a32, w32.T, out=acc)
            res = acc
        else:
            res = a32 @ w32.T
    elif out is not None:
        np.matmul(data, weight.T, out=out)
        res = out
    else:
        res = data @ weight.T
    if bias is not None:
        if out is None:
            res = res + bias
        else:
            np.add(res, bias, out=res)
    if np.issubdtype(data.dtype, np.floating) and res.dtype != data.dtype:
        if out is not None:
            out[...] = res
            res = out
        else:
            res = res.astype(data.dtype, copy=False)
    return res


# -- exact blocked quantized GEMM ---------------------------------------------
#
# The quantized matmuls accumulate integers, and integer accumulation is
# exact under any grouping — so unlike the float GEMMs these may be
# re-blocked (output panels, reduction chunks, batch fold) and still
# produce bit-identical accumulators.  Running them as BLAS GEMMs is what
# makes them fast: numpy's integer matmul has no BLAS path.  Every GEMM
# below goes through exact_gemm, in float32, over the reduction chunks
# the prepacker proved exact (see the module docstring): shifted input,
# columns and chunk results live in float32, and only a layer that needs
# more than one chunk carries a float64 accumulator.


def exact_acc_dtype(k_bounds) -> np.dtype:
    """Accumulator dtype :func:`exact_gemm` writes for ``k_bounds``:
    float32 holds a single proven chunk exactly; the sum over several
    chunks may pass ``EXACT_F32_BOUND`` and is kept in float64."""
    return np.dtype(np.float32 if len(k_bounds) == 2 else np.float64)


def exact_gemm(a: np.ndarray, b: np.ndarray, k_bounds, out: np.ndarray,
               workspace: Optional[Workspace] = None) -> np.ndarray:
    """``out[...] = a @ b`` for integer-valued float32 operands, exactly.

    The reduction axis (``a``'s last, ``b``'s second to last) is cut at
    ``k_bounds`` — ``[0, ..., K]``, the chunks within which the
    prepacker proved every partial sum an integer below
    ``EXACT_F32_BOUND``.  Each chunk is one sgemm whose result is
    therefore exact in any BLAS blocking; chunk results are summed in
    the float64 ``out`` (exact below ``2**53``).  A single chunk writes
    the float32 ``out`` directly.  ``out`` must be of
    :func:`exact_acc_dtype`; it may be a strided view with a unit inner
    stride (BLAS takes the row stride as ``ldc``).
    """
    if k_bounds[0] != 0 or k_bounds[-1] != a.shape[-1]:
        raise ValueError(f"k_bounds {tuple(k_bounds)} do not span the "
                         f"reduction axis of width {a.shape[-1]}")
    acc_dtype = exact_acc_dtype(k_bounds)
    if out.dtype != acc_dtype:
        raise ValueError(f"{len(k_bounds) - 1}-chunk exact GEMM needs a "
                         f"{acc_dtype} accumulator, got {out.dtype}")
    if len(k_bounds) == 2:
        return np.matmul(a, b, out=out)
    part = scratch(workspace, out.shape, np.float32, "qchunk")
    for k0, k1 in zip(k_bounds[:-1], k_bounds[1:]):
        np.matmul(a[..., k0:k1], b[..., k0:k1, :], out=part)
        if k0 == 0:
            np.copyto(out, part)
        else:
            np.add(out, part, out=out)
    return out


def _shifted(q_data: np.ndarray, input_zero: int,
             workspace: Optional[Workspace], tag: str) -> np.ndarray:
    """``q - z`` in float32 scratch, or the raw codes when ``z`` is 0
    (the gather's slice assignment converts them)."""
    if not input_zero:
        return q_data
    src = scratch(workspace, q_data.shape, np.float32, tag)
    np.subtract(q_data, float(input_zero), out=src, dtype=np.float32)
    return src


def qconv2d_acc(q_data: np.ndarray, w2: np.ndarray, k_bounds, kernel,
                stride, padding, input_zero: int = 0,
                workspace: Optional[Workspace] = None) -> np.ndarray:
    """Exact conv accumulator (N, out_c, oh, ow) via blocked BLAS GEMM.

    ``q_data`` is the raw int8/uint8 NCHW activation; ``w2`` the
    prepacked (out_c, C*kh*kw) integer-valued float32 weight matrix and
    ``k_bounds`` the reduction chunks proven exact for it (see
    :func:`exact_gemm`); the accumulator comes back in
    :func:`exact_acc_dtype`.
    With ``input_zero`` the zero point is subtracted *before* the gather,
    so zero padding enters the columns as shifted-domain zeros — exactly
    the reference path's subtract-then-pad semantics.  With
    ``input_zero=0`` the raw codes are gathered directly (the caller
    corrects via the hoisted zero-point row term).

    A batch of narrow output planes (``oh*ow <= QCONV_FOLD_MAX_PLANE``)
    is *folded*: the columns of all ``n`` samples are gathered side by
    side into one (K, n*oh*ow) matrix and one GEMM computes them, so the
    weight pack is streamed once instead of ``n`` times.  The result is
    then the (N, out_c, oh, ow) *transposed view* of an (out_c, N, oh,
    ow) buffer — requantization's first ufunc reads it once and writes
    contiguous memory.  Otherwise the accumulation is tiled over
    output-row panels of roughly ``QGEMM_PANEL_BYTES`` of columns.
    Every GEMM computes exact integers, so none of the re-blocking can
    change a bit.
    """
    kernel = _pair(kernel)
    stride = _pair(stride)
    padding = _pair(padding)
    n, c, h, w = q_data.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    out_c = w2.shape[0]
    k = c * kh * kw
    padded = bool(ph or pw)
    src = _shifted(q_data, input_zero, workspace, "qshift")
    acc_dtype = exact_acc_dtype(k_bounds)
    if n > 1 and oh * ow <= QCONV_FOLD_MAX_PLANE:
        # Transient scratch, zeroed per call: where a sample's padding
        # cells sit in the (K, n*oh*ow) layout depends on n, so a buffer
        # border-zeroed once could not serve two batch sizes.
        cols = scratch(workspace, (c, kh, kw, n, oh, ow), np.float32,
                       "fcols")
        if padded:
            cols.fill(0)
        _gather_cols(src, cols.transpose(3, 0, 1, 2, 4, 5), kernel, stride,
                     padding)
        acc = scratch(workspace, (out_c, n, oh, ow), acc_dtype, "qacc")
        exact_gemm(w2, cols.reshape(k, n * oh * ow), k_bounds,
                   acc.reshape(out_c, n * oh * ow), workspace)
        return acc.transpose(1, 0, 2, 3)
    acc = scratch(workspace, (n, out_c, oh, ow), acc_dtype, "qacc")
    acc3 = acc.reshape(n, out_c, oh * ow)
    panel_rows = max(1, min(oh, QGEMM_PANEL_BYTES // max(1, k * ow * 4)))
    if panel_rows >= oh:
        cols = _implicit_cols(src, kernel, stride, padding, oh, ow,
                              np.float32, workspace)
        exact_gemm(w2, cols, k_bounds, acc3, workspace)
        return acc
    for r0 in range(0, oh, panel_rows):
        rows = min(panel_rows, oh - r0)
        m = rows * ow
        cbuf = scratch(workspace, (n, c, kh, kw, rows, ow), np.float32,
                       "qcols")
        if padded:
            cbuf.fill(0)
        _gather_cols(src, cbuf, kernel, stride, padding, row_offset=r0)
        exact_gemm(w2, cbuf.reshape(n, k, m), k_bounds,
                   acc3[:, :, r0 * ow:r0 * ow + m], workspace)
    return acc


def qdense_acc(q_data: np.ndarray, wt: np.ndarray, k_bounds,
               input_zero: int = 0,
               workspace: Optional[Workspace] = None) -> np.ndarray:
    """Exact dense accumulator (..., out): ``(q - z) @ wt``.

    ``wt`` is the prepacked (in, out) transposed float32 weight and
    ``k_bounds`` its proven reduction chunks (see :func:`exact_gemm`).
    The GEMM is tiled over output-column panels; integer-exact, so
    blocking never changes a bit of the accumulator.
    """
    in_dim = q_data.shape[-1]
    out_dim = wt.shape[1]
    a = scratch(workspace, q_data.shape, np.float32, "qdense_in")
    np.subtract(q_data, float(input_zero), out=a, dtype=np.float32)
    acc_dtype = exact_acc_dtype(k_bounds)
    acc = scratch(workspace, q_data.shape[:-1] + (out_dim,), acc_dtype,
                  "qdense_acc")
    m = 1
    for dim in q_data.shape[:-1]:
        m *= int(dim)
    a2 = a.reshape(m, in_dim)
    acc2 = acc.reshape(m, out_dim)
    panel_cols = max(1, min(out_dim, QGEMM_PANEL_BYTES
                            // max(1, m * acc_dtype.itemsize)))
    for c0 in range(0, out_dim, panel_cols):
        c1 = min(out_dim, c0 + panel_cols)
        exact_gemm(a2, wt[:, c0:c1], k_bounds, acc2[:, c0:c1], workspace)
    return acc


def _gather_cols_nhwc(data: np.ndarray, cols6: np.ndarray, kernel, stride,
                      padding, row_offset: int = 0) -> None:
    """NHWC twin of :func:`_gather_cols`.

    ``cols6`` is (N, rows, ow, kh, kw, C): patch columns laid out so the
    flattened reduction axis is (i*kw + j)*C + ci — the order the NHWC
    weight pack uses.
    """
    n, h, w, c = data.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    rows, ow = cols6.shape[1], cols6.shape[2]
    for i in range(kh):
        oy_lo = max(row_offset, -((i - ph) // sh))
        oy_hi = min(row_offset + rows, (h - 1 - i + ph) // sh + 1)
        if oy_hi <= oy_lo:
            continue
        y0 = oy_lo * sh + i - ph
        ycnt = oy_hi - oy_lo
        for j in range(kw):
            ox_lo = max(0, -((j - pw) // sw))
            ox_hi = min(ow, (w - 1 - j + pw) // sw + 1)
            if ox_hi <= ox_lo:
                continue
            x0 = ox_lo * sw + j - pw
            xcnt = ox_hi - ox_lo
            cols6[:, oy_lo - row_offset:oy_hi - row_offset, ox_lo:ox_hi,
                  i, j, :] = \
                data[:,
                     y0:y0 + (ycnt - 1) * sh + 1:sh,
                     x0:x0 + (xcnt - 1) * sw + 1:sw, :]


def qconv2d_acc_nhwc(q_data: np.ndarray, w_pack: np.ndarray, k_bounds,
                     kernel, stride, padding, input_zero: int = 0,
                     workspace: Optional[Workspace] = None) -> np.ndarray:
    """Exact NHWC conv accumulator (N, oh, ow, out_c).

    ``q_data`` is NHWC int8/uint8; ``w_pack`` the (kh*kw*C, out_c)
    float32 weight pack whose rows follow the NHWC gather order, and
    ``k_bounds`` its proven reduction chunks.  Same zero-point,
    exactness and panel-blocking contract as :func:`qconv2d_acc`.
    """
    kernel = _pair(kernel)
    stride = _pair(stride)
    padding = _pair(padding)
    n, h, w, c = q_data.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    out_c = w_pack.shape[1]
    k = kh * kw * c
    padded = bool(ph or pw)
    src = _shifted(q_data, input_zero, workspace, "qshift_nhwc")
    acc = scratch(workspace, (n, oh, ow, out_c), exact_acc_dtype(k_bounds),
                  "qacc_nhwc")
    acc3 = acc.reshape(n, oh * ow, out_c)
    panel_rows = max(1, min(oh, QGEMM_PANEL_BYTES // max(1, k * ow * 4)))
    if panel_rows >= oh:
        shape6 = (n, oh, ow, kh, kw, c)
        if workspace is not None:
            tag = f"qcols_nhwc:{h}x{w}:k{kh}x{kw}:s{sh}x{sw}:p{ph}x{pw}"
            init = (lambda buf: buf.fill(0)) if padded else None
            cols = workspace.get(shape6, np.float32, tag, init=init)
        elif padded:
            cols = np.zeros(shape6, dtype=np.float32)
        else:
            cols = np.empty(shape6, dtype=np.float32)
        _gather_cols_nhwc(src, cols, kernel, stride, padding)
        exact_gemm(cols.reshape(n, oh * ow, k), w_pack, k_bounds, acc3,
                   workspace)
        return acc
    for r0 in range(0, oh, panel_rows):
        rows = min(panel_rows, oh - r0)
        m = rows * ow
        cbuf = scratch(workspace, (n, rows, ow, kh, kw, c), np.float32,
                       "qcols_nhwc_panel")
        if padded:
            cbuf.fill(0)
        _gather_cols_nhwc(src, cbuf, kernel, stride, padding, row_offset=r0)
        exact_gemm(cbuf.reshape(n, m, k), w_pack, k_bounds,
                   acc3[:, r0 * ow:r0 * ow + m], workspace)
    return acc


def batchnorm_affine(gamma: np.ndarray, beta: np.ndarray, mean: np.ndarray,
                     var: np.ndarray, epsilon: float
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-channel ``(scale, shift)`` with ``batchnorm(x) = x * scale +
    shift``.  The one place the expressions live: the prepacker hoists
    them for constant parameters and must produce the kernel's bits."""
    scale = gamma / np.sqrt(var + epsilon)
    shift = beta - mean * gamma / np.sqrt(var + epsilon)
    return scale, shift


def batchnorm(data: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
              mean: np.ndarray, var: np.ndarray,
              epsilon: float = 1e-5,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """Inference-mode batch normalization over the channel axis (axis 1)."""
    shape = [1] * data.ndim
    shape[1] = -1
    scale, shift = batchnorm_affine(gamma, beta, mean, var, epsilon)
    scale, shift = scale.reshape(shape), shift.reshape(shape)
    if out is None:
        return data * scale + shift
    np.multiply(data, scale, out=out)
    np.add(out, shift, out=out)
    return out


# -- activations -------------------------------------------------------------

def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu6(x: np.ndarray) -> np.ndarray:
    return np.clip(x, 0, 6)


def leaky_relu(x: np.ndarray, alpha: float = 0.1) -> np.ndarray:
    return np.where(x >= 0, x, alpha * x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # Split positive/negative branches for numerical stability.
    out = np.empty_like(x, dtype=np.result_type(x.dtype, np.float32))
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def hardsigmoid(x: np.ndarray) -> np.ndarray:
    return np.clip(x / 6.0 + 0.5, 0.0, 1.0)


def hardswish(x: np.ndarray) -> np.ndarray:
    return x * hardsigmoid(x)


def mish(x: np.ndarray) -> np.ndarray:
    # x * tanh(softplus(x)); softplus computed stably.
    sp = np.logaddexp(0.0, x)
    return x * np.tanh(sp)


def softmax(x: np.ndarray, axis: int = -1,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return np.divide(e, np.sum(e, axis=axis, keepdims=True), out=out)


ACTIVATIONS = {
    "relu": relu,
    "relu6": relu6,
    "leaky_relu": leaky_relu,
    "sigmoid": sigmoid,
    "tanh": tanh,
    "hardswish": hardswish,
    "hardsigmoid": hardsigmoid,
    "mish": mish,
    "identity": lambda x: x,
}

# Activations apply_activation can write into a caller's buffer without
# changing a single output bit relative to the ACTIVATIONS entry.
BUFFERED_ACTIVATIONS = frozenset({
    "identity", "relu", "relu6", "tanh", "leaky_relu",
    "hardsigmoid", "hardswish",
})


def resolve_activation(name, alpha=None):
    """Bind an activation name (and optional ``leaky_relu`` slope) once.

    Returns ``None`` for no activation, otherwise a unary callable.  This
    is the single place fused-activation attributes are interpreted, so
    every dispatch site (float, binary, quantized) agrees on the slope
    instead of silently falling back to ``leaky_relu``'s default.
    """
    if name is None:
        return None
    if name == "leaky_relu":
        slope = _leaky_slope(alpha)
        return lambda x: leaky_relu(x, alpha=slope)
    return ACTIVATIONS[name]


def _leaky_slope(alpha) -> float:
    return 0.1 if alpha is None else float(alpha)


def _two_pass_slope(alpha) -> bool:
    """Whether ``max(slope * x, x)`` equals ``leaky_relu``: only for a
    slope in (0, 1], where ``slope * x >= x`` exactly when ``x <= 0``
    (a zero slope would turn ``+inf`` into ``0 * inf = NaN``)."""
    return 0.0 < _leaky_slope(alpha) <= 1.0


def apply_activation(name, x: np.ndarray, out: np.ndarray,
                     workspace: Optional[Workspace] = None,
                     alpha=None) -> bool:
    """Write ``activation(x)`` into ``out``; return False if unsupported.

    Every supported form runs the ufuncs of the allocating form with
    ``out`` as destination — no copy pass first — so the values written
    are bitwise-identical to the ACTIVATIONS entry, the invariant the zoo
    equivalence suite asserts.  ``out`` may be ``x`` itself (in place)
    except for ``leaky_relu``, whose second pass re-reads ``x``.
    """
    if name == "identity":
        if out is not x:
            np.copyto(out, x)
    elif name == "relu":
        np.maximum(x, 0, out=out)
    elif name == "relu6":
        np.clip(x, 0, 6, out=out)
    elif name == "tanh":
        np.tanh(x, out=out)
    elif name == "hardsigmoid":
        np.divide(x, 6.0, out=out)
        out += 0.5
        np.clip(out, 0.0, 1.0, out=out)
    elif name == "hardswish":
        gate = scratch(workspace, x.shape, x.dtype, "act_gate")
        apply_activation("hardsigmoid", x, gate)
        np.multiply(x, gate, out=out)
    elif name == "leaky_relu" and out is not x and _two_pass_slope(alpha):
        # max(slope * x, x) picks slope * x exactly where x < 0 (and is
        # x twice over at +-0 and NaN): np.where's bits in two passes.
        np.multiply(x, _leaky_slope(alpha), out=out)
        np.maximum(out, x, out=out)
    else:
        return False
    return True


def activation_twin(name, buf: np.ndarray, workspace: Optional[Workspace],
                    tag: str) -> np.ndarray:
    """The second buffer of an ``apply_activation`` call whose caller owns
    ``buf``: ``buf`` itself (in place) for every activation that may
    alias, transient scratch of the same shape for ``leaky_relu``."""
    if name == "leaky_relu":
        return scratch(workspace, buf.shape, buf.dtype, tag)
    return buf


# -- pooling ------------------------------------------------------------------

# numpy's pairwise summation (``pairwise_sum`` in
# ``numpy/_core/src/umath/loops_utils.h.src``): a left fold below the
# unroll, eight interleaved accumulators up to ``PW_BLOCKSIZE``, and a
# split in two (at a multiple of the unroll) above it.
_PW_UNROLL = 8
_PW_BLOCKSIZE = 128


def _pairwise_sum(views, acc: np.ndarray, workspace: Optional[Workspace],
                  depth: int = 0) -> None:
    """Write numpy's pairwise sum of ``views`` into ``acc``, in ``acc``'s
    dtype: the additions ``np.add.reduce`` makes over a contiguous axis
    holding ``views`` in order, each one a whole-array ``np.add``.  The
    seven other accumulators are transient scratch, one tag set per
    recursion depth."""
    n = len(views)
    if n < _PW_UNROLL:
        # numpy starts this fold from -0.0, which v0 replaces exactly.
        if n == 1:
            np.copyto(acc, views[0])
        else:
            np.add(views[0], views[1], out=acc, dtype=acc.dtype)
        for view in views[2:]:
            np.add(acc, view, out=acc)
        return
    if n > _PW_BLOCKSIZE:
        half = n // 2
        half -= half % _PW_UNROLL
        _pairwise_sum(views[:half], acc, workspace, depth + 1)
        rest = scratch(workspace, acc.shape, acc.dtype, f"pool_sum{depth}")
        _pairwise_sum(views[half:], rest, workspace, depth + 1)
        np.add(acc, rest, out=acc)
        return

    def lane_buffer(k):
        return acc if k == 0 else scratch(workspace, acc.shape, acc.dtype,
                                          f"pool_sum{depth}_{k}")

    # r[k] = v[k] + v[k + 8] + ... over whole blocks of eight; a lane of
    # one view is that view, uncopied.
    blocks = n - n % _PW_UNROLL
    lanes = []
    for k in range(_PW_UNROLL):
        lane = views[k:blocks:_PW_UNROLL]
        if len(lane) == 1:
            lanes.append(lane[0])
            continue
        buf = lane_buffer(k)
        np.add(lane[0], lane[1], out=buf, dtype=acc.dtype)
        for view in lane[2:]:
            np.add(buf, view, out=buf)
        lanes.append(buf)
    # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the tail.
    step = 1
    while step < _PW_UNROLL:
        for k in range(0, _PW_UNROLL, 2 * step):
            buf = lane_buffer(k)
            np.add(lanes[k], lanes[k + step], out=buf, dtype=acc.dtype)
            lanes[k] = buf
        step *= 2
    for view in views[blocks:]:
        np.add(acc, view, out=acc)


def _pool2d(data: np.ndarray, kernel, stride, padding, take_max: bool,
            out: Optional[np.ndarray] = None,
            workspace: Optional[Workspace] = None,
            axes: Tuple[int, int] = (2, 3)) -> np.ndarray:
    """Pool over the two spatial ``axes``: (2, 3) NCHW, (1, 2) NHWC.

    Both poolings fold the ``kh * kw`` strided views of the input, in
    ``i * kw + j`` offset order, and keep no window buffer; the bits are
    those of gathering the views into a ``(..., kh * kw)`` window and
    reducing its last axis (the tests' oracle).  Both layouts take the
    views in the same order, so NHWC output is the NCHW output's bits,
    transposed.

    Max pooling is a left fold straight into ``out``: one ``np.maximum``
    pass per offset, the sequence numpy's scalar ``max`` reduction
    applies to a gathered window (numpy's SIMD reduction, taken for
    windows wider than a vector, may return the other sign of a zero
    maximum when a window holds both +0 and -0; every other value, NaN
    and inf included, is identical).

    Mean pooling is ``np.mean`` of the window: ``0 + pairwise(v0, ...)``
    with numpy's pairwise schedule (:func:`_pairwise_sum`), then a
    divide by ``kh * kw``.  Accumulator 0 is ``out`` itself, except for
    float16, which sums in float32 scratch and rounds to half once,
    after the divide, so the planned (``out=``) form returns the
    allocating form's bits.  The one exception: where NaNs of both signs
    meet in a window (a NaN input and one of the other sign, or the NaN
    that ``+inf + -inf`` makes), the result is NaN on both sides but its
    sign bit may differ, since which operand's NaN an addition keeps
    depends on how numpy's C loop was compiled.
    """
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    if ph or pw:
        shape = list(data.shape)
        shape[axes[0]] += 2 * ph
        shape[axes[1]] += 2 * pw
        data = _pad_into(scratch(workspace, shape, data.dtype, "pool_pad"),
                         data, ph, pw, -np.inf if take_max else 0.0, axes)
    oh = (data.shape[axes[0]] - kh) // sh + 1
    ow = (data.shape[axes[1]] - kw) // sw + 1
    index = [slice(None)] * 4
    views = []
    for i in range(kh):
        index[axes[0]] = slice(i, i + sh * oh, sh)
        for j in range(kw):
            index[axes[1]] = slice(j, j + sw * ow, sw)
            views.append(data[tuple(index)])
    if take_max:
        if out is None:
            out = np.empty(views[0].shape, dtype=data.dtype)
        if len(views) == 1:
            np.copyto(out, views[0])
        else:
            np.maximum(views[0], views[1], out=out)
        for view in views[2:]:
            np.maximum(out, view, out=out)
        return out
    # np.mean's dtypes: integers average in float64, float16 sums in
    # float32.
    if out is None:
        out = np.empty(views[0].shape, dtype=data.dtype
                       if data.dtype.kind == "f" else np.float64)
    acc_dtype = np.float32 if out.dtype == np.float16 else out.dtype
    acc = out if out.dtype == acc_dtype else \
        scratch(workspace, out.shape, acc_dtype, "pool_acc")
    _pairwise_sum(views, acc, workspace)
    np.add(acc, 0.0, out=acc)          # the reduction's +0 start: -0 -> +0
    np.true_divide(acc, kh * kw, out=acc)
    if acc is not out:
        np.copyto(out, acc)
    return out


def maxpool2d(data: np.ndarray, kernel, stride=None, padding=0,
              out: Optional[np.ndarray] = None,
              workspace: Optional[Workspace] = None) -> np.ndarray:
    stride = kernel if stride is None else stride
    return _pool2d(data, kernel, stride, padding, True,
                   out=out, workspace=workspace)


def avgpool2d(data: np.ndarray, kernel, stride=None, padding=0,
              out: Optional[np.ndarray] = None,
              workspace: Optional[Workspace] = None) -> np.ndarray:
    """Average pooling with *count-include-pad* semantics.

    Padded positions contribute zeros to the window sum and are counted in
    the divisor (every window divides by ``kh * kw``), matching ONNX
    AveragePool's ``count_include_pad=1`` — not PyTorch's default of
    excluding padding from the divisor.
    """
    stride = kernel if stride is None else stride
    return _pool2d(data, kernel, stride, padding, False,
                   out=out, workspace=workspace)


def maxpool2d_nhwc(data: np.ndarray, kernel, stride=None, padding=0,
                   out: Optional[np.ndarray] = None,
                   workspace: Optional[Workspace] = None) -> np.ndarray:
    stride = kernel if stride is None else stride
    return _pool2d(data, kernel, stride, padding, True,
                   out=out, workspace=workspace, axes=(1, 2))


def avgpool2d_nhwc(data: np.ndarray, kernel, stride=None, padding=0,
                   out: Optional[np.ndarray] = None,
                   workspace: Optional[Workspace] = None) -> np.ndarray:
    stride = kernel if stride is None else stride
    return _pool2d(data, kernel, stride, padding, False,
                   out=out, workspace=workspace, axes=(1, 2))


def global_avgpool2d(data: np.ndarray,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    if out is None:
        return data.mean(axis=(2, 3), keepdims=True)
    if data.dtype == np.float16:
        # np.mean sums fp16 in float32 and rounds once at the end; given
        # an fp16 ``out`` it would round the sum too.
        out[...] = data.mean(axis=(2, 3), keepdims=True)
        return out
    return np.mean(data, axis=(2, 3), keepdims=True, out=out)


def upsample2d(data: np.ndarray, scale: int,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """Nearest-neighbour upsampling by an integer factor."""
    if out is None:
        return data.repeat(scale, axis=2).repeat(scale, axis=3)
    n, c, h, w = data.shape
    view = out.reshape(n, c, h, scale, w, scale)
    view[...] = data[:, :, :, None, :, None]
    return out


def pad(data: np.ndarray, pads,
        out: Optional[np.ndarray] = None) -> np.ndarray:
    if out is None:
        return np.pad(data, [(int(b), int(a)) for b, a in pads])
    out.fill(0)
    interior = tuple(slice(int(b), int(b) + dim)
                     for (b, _), dim in zip(pads, data.shape))
    out[interior] = data
    return out
