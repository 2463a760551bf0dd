"""The exact quantized GEMM: reduction chunks proven at pack time, the
batch fold, and the packs that carry the proof.

Real activations never come near ``255 * sum|w|``, so a GEMM that ran a
wide layer in float32 *without* its reduction split would pass every
test that feeds it friendly data.  The inputs here sit on the bound
instead: weight rows of +-127 / -128 against activations at the rails
(``q - z`` in {0, 255}), checked against int64 ``einsum`` — arithmetic
that shares nothing with BLAS.  Uniform rows alone are a weak adversary
past the first unrepresentable sum (equal addends tie and round back
and forth), so some rows and samples vary by a code or two, and every
test that proves the split exact also shows the *unsplit* float32 GEMM
wrong on the same data — the tests cannot pass by luck or by a dropped
``k_bounds``.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import build_model
from repro.ir.graph import Graph
from repro.ir.tensor import DType, TensorSpec
from repro.optim import quantize_int8
from repro.optim.passes import LayoutPlanner, PassManager
from repro.runtime import (
    Executor,
    PlanCache,
    compile_plan,
    kernels,
    load_or_build,
)
from repro.runtime.plan import _exact_k_bounds
from repro.runtime.plan_cache import ENTRY_VERSION

from .test_elementwise_pool_kernels import (
    WIDEST_F32_K,
    adversarial_graph,
    adversarial_weights,
    assert_bitwise,
)

# Reduction widths around the float32 bound and its multiples, plus the
# two the zoo actually has on wide layers.  K -> (in_c, kh, kw).
CONV_SHAPES = {
    WIDEST_F32_K: (74, 1, 7),
    WIDEST_F32_K + 1: (173, 1, 3),
    2 * WIDEST_F32_K: (148, 1, 7),
    2 * WIDEST_F32_K + 1: (61, 1, 17),
    2304: (256, 3, 3),
    4608: (512, 3, 3),
}
WIDTHS = sorted(CONV_SHAPES)
RAIL_ZERO = -128          # q in {-128, 127}  ->  q - z in {0, 255}
SMALL_PANEL = 1 << 12


def heavy_rows(rng, k):
    """Seven weight rows at the int8 limits: all +127, all -127, all
    -128, one sign with magnitudes 125..127 (twice), random-sign 127s
    (twice)."""
    near = rng.integers(125, 128, size=(2, k))
    rows = np.concatenate([
        np.full((1, k), 127), np.full((1, k), -127), np.full((1, k), -128),
        near[:1], -near[1:], adversarial_weights(rng, 2, k, "mixed")])
    return rows.astype(np.int8)


def rail_codes(rng, shape):
    """int8 activations at the rails: the first sample all at +127, the
    second within two codes of it, the rest at either rail."""
    q = rng.choice(np.array([-128, 127], dtype=np.int8), size=shape)
    q[0] = 127
    if shape[0] > 1:
        q[1] = rng.integers(125, 128, size=shape[1:])
    return q


def conv_reference(shifted, weight, stride, padding):
    """int64 conv of the already-shifted input (zero padding enters
    *after* the shift), by sliding windows and einsum."""
    x = np.pad(shifted, ((0, 0), (0, 0), (padding, padding),
                         (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(
        x, weight.shape[2:], axis=(2, 3))[:, :, ::stride, ::stride]
    return np.einsum("nchwij,ocij->nohw", windows, weight.astype(np.int64))


def chunk_count(rows):
    """Independent statement of the proof obligation: the fewest equal
    chunks with ``255 * sum|w|`` under the bound in each, by int64 sums."""
    mags = np.abs(rows.astype(np.int64))
    k = rows.shape[1]
    for chunks in range(1, k + 1):
        edges = [k * i // chunks for i in range(chunks + 1)]
        if all(255 * mags[:, lo:hi].sum(axis=1).max()
               < kernels.EXACT_F32_BOUND
               for lo, hi in zip(edges[:-1], edges[1:])):
            return chunks
    raise AssertionError("no split found")


class TestAccumulatorsAtTheBound:
    @pytest.mark.parametrize("k", WIDTHS)
    def test_dense(self, k, monkeypatch):
        rng = np.random.default_rng(k)
        w = heavy_rows(rng, k)
        q = rail_codes(rng, (5, k))
        want = np.einsum("mk,ok->mo", q.astype(np.int64) - RAIL_ZERO,
                         w.astype(np.int64))
        assert np.abs(want).max() == 255 * 128 * k
        bounds = _exact_k_bounds(w)
        wt = np.ascontiguousarray(w.astype(np.float32).T)
        for panel in (kernels.QGEMM_PANEL_BYTES, 64):     # whole / blocked
            monkeypatch.setattr(kernels, "QGEMM_PANEL_BYTES", panel)
            for ws in (None, kernels.Workspace()):
                acc = kernels.qdense_acc(q, wt, bounds,
                                         input_zero=RAIL_ZERO, workspace=ws)
                assert acc.dtype == kernels.exact_acc_dtype(bounds)
                np.testing.assert_array_equal(acc.astype(np.int64), want)
        if k > WIDEST_F32_K:
            unsplit = kernels.qdense_acc(q, wt, (0, k), input_zero=RAIL_ZERO)
            assert np.any(unsplit.astype(np.int64) != want)

    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("n", [1, 3])       # 3: the folded GEMM
    @pytest.mark.parametrize("nhwc", [False, True])
    @pytest.mark.parametrize("k", WIDTHS)
    def test_conv(self, k, nhwc, n, padding, monkeypatch):
        rng = np.random.default_rng(k + n)
        in_c, kh, kw = CONV_SHAPES[k]
        w = heavy_rows(rng, k)
        out_c = len(w)
        w4 = w.reshape(out_c, in_c, kh, kw)
        q = rail_codes(rng, (n, in_c, 4, 18))
        want = conv_reference(q.astype(np.int64) - RAIL_ZERO, w4, 1, padding)
        assert np.abs(want).max() == 255 * 128 * k  # a whole interior patch
        if nhwc:
            rows = w4.transpose(0, 2, 3, 1).reshape(out_c, k)
            pack = np.ascontiguousarray(rows.astype(np.float32).T)
            data = np.ascontiguousarray(q.transpose(0, 2, 3, 1))

            def run(bounds, ws=None):
                return kernels.qconv2d_acc_nhwc(
                    data, pack, bounds, (kh, kw), 1, padding,
                    input_zero=RAIL_ZERO, workspace=ws).transpose(0, 3, 1, 2)
        else:
            rows = w
            pack = np.ascontiguousarray(w.astype(np.float32))

            def run(bounds, ws=None):
                return kernels.qconv2d_acc(
                    q, pack, bounds, (kh, kw), 1, padding,
                    input_zero=RAIL_ZERO, workspace=ws)
        bounds = _exact_k_bounds(rows)
        for panel in (kernels.QGEMM_PANEL_BYTES, SMALL_PANEL):
            monkeypatch.setattr(kernels, "QGEMM_PANEL_BYTES", panel)
            for ws in (None, kernels.Workspace()):
                np.testing.assert_array_equal(
                    run(bounds, ws).astype(np.int64), want)
        if k > WIDEST_F32_K:
            assert np.any(run((0, k)).astype(np.int64) != want)

    def test_one_float32_chunk_is_wrong_one_past_the_bound(self):
        """What a dropped ``k_bounds`` would compute.  255 * 127 * 519 =
        16 808 085 is odd and above 2**24: no float32 holds it."""
        k = WIDEST_F32_K + 1
        w = np.full((1, k), 127, dtype=np.float32)
        x = np.full((k, 4), 255, dtype=np.float32)
        want = 255 * 127 * k
        assert want > kernels.EXACT_F32_BOUND and want % 2 == 1
        unsplit = np.empty((1, 4), dtype=np.float32)
        kernels.exact_gemm(w, x, (0, k), unsplit)
        assert np.all(unsplit.astype(np.int64) != want)
        bounds = _exact_k_bounds(w.astype(np.int8))
        assert bounds.tolist() == [0, 259, 519]
        split = np.empty((1, 4), dtype=np.float64)
        kernels.exact_gemm(w, x, bounds, split)
        assert np.all(split.astype(np.int64) == want)

    def test_gemm_refuses_bounds_that_do_not_fit(self):
        w = np.ones((2, 10), dtype=np.float32)
        x = np.ones((10, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="span"):
            kernels.exact_gemm(w, x, (0, 9), np.empty((2, 3), np.float32))
        with pytest.raises(ValueError, match="span"):
            kernels.exact_gemm(w, x, (1, 10), np.empty((2, 3), np.float32))
        with pytest.raises(ValueError, match="accumulator"):
            kernels.exact_gemm(w, x, (0, 5, 10), np.empty((2, 3), np.float32))


weight_rows = st.tuples(
    st.integers(1, 5), st.integers(1, 1400),
    st.sampled_from(["all+", "all-", "mixed", "random", "one_wide_row"]),
    st.integers(0, 2 ** 32 - 1))


class TestReductionChunks:
    @settings(max_examples=60, deadline=None)
    @given(weight_rows)
    def test_invariants(self, case):
        out_dim, k, pattern, seed = case
        rng = np.random.default_rng(seed)
        if pattern == "random":
            rows = rng.integers(-128, 128, size=(out_dim, k)).astype(np.int8)
        elif pattern == "one_wide_row":
            rows = rng.integers(-3, 4, size=(out_dim, k)).astype(np.int8)
            rows[rng.integers(out_dim)] = -128
        else:
            rows = adversarial_weights(rng, out_dim, k, pattern)
        bounds = _exact_k_bounds(rows)
        assert bounds.dtype == np.int64
        assert bounds[0] == 0 and bounds[-1] == k
        assert np.all(np.diff(bounds) > 0)
        assert np.ptp(np.diff(bounds)) <= 1               # equal chunks
        mags = np.abs(rows.astype(np.int64))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            assert 255 * mags[:, lo:hi].sum(axis=1).max() \
                < kernels.EXACT_F32_BOUND
        assert len(bounds) - 1 == chunk_count(rows)       # and the fewest
        if 255 * mags.sum(axis=1).max() < kernels.EXACT_F32_BOUND:
            assert bounds.tolist() == [0, k]

    def test_the_pack_order_is_the_order_that_is_proven(self):
        """Half the input channels carry all the weight: one contiguous
        stretch of the NCHW pack's K order (half of K is over the bound,
        a third is not), spread evenly through the NHWC pack's."""
        w4 = np.zeros((2, 16, 9, 9), dtype=np.int8)
        w4[:, :8] = 127
        nchw = _exact_k_bounds(w4.reshape(2, -1))
        nhwc = _exact_k_bounds(w4.transpose(0, 2, 3, 1).reshape(2, -1))
        assert nchw.tolist() == [0, 432, 864, 1296]
        assert nhwc.tolist() == [0, 648, 1296]


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("shift", ["input_zero", "row_term", "none"])
@pytest.mark.parametrize("bounds", [(0, 45), (0, 20, 45)])
def test_fold_equals_per_sample(stride, padding, shift, bounds):
    """For n = 1..8 the folded accumulator is the stack of batch-1 ones."""
    rng = np.random.default_rng(7)
    in_c, out_c, zero = 5, 6, 11
    w = rng.integers(-128, 128, size=(out_c, in_c, 3, 3)).astype(np.int8)
    pack = np.ascontiguousarray(w.reshape(out_c, -1).astype(np.float32))
    q = rng.integers(-128, 128, size=(8, in_c, 9, 9)).astype(np.int8)
    row_term = (zero * w.astype(np.int64).sum(axis=(1, 2, 3))) \
        .astype(np.int32).reshape(1, -1, 1, 1)
    ws = kernels.Workspace()

    def acc_of(data):
        acc = kernels.qconv2d_acc(
            data, pack, bounds, 3, stride, padding,
            input_zero=zero if shift == "input_zero" else 0, workspace=ws)
        if shift == "row_term":
            acc -= row_term
        return acc

    singles = [acc_of(q[i:i + 1]).copy() for i in range(8)]
    if shift != "none" and not (shift == "row_term" and padding):
        np.testing.assert_array_equal(
            singles[0].astype(np.int64),
            conv_reference(q[:1].astype(np.int64) - zero, w, stride, padding))
    for n in range(1, 9):
        folded = acc_of(q[:n])
        # The fold is what ran: its result is the transposed view.
        assert folded.flags.c_contiguous == (n == 1)
        assert_bitwise(np.ascontiguousarray(folded), np.concatenate(
            singles[:n], axis=0))


def test_unfolded_batch_runs_chunks_inside_panels(monkeypatch):
    """A batch of wide planes keeps the per-sample GEMMs: every panel is
    a strided view of the float64 accumulator, summed chunk by chunk."""
    monkeypatch.setattr(kernels, "QGEMM_PANEL_BYTES", SMALL_PANEL)
    rng = np.random.default_rng(15)
    w = rng.integers(-128, 128, size=(6, 8, 3, 3)).astype(np.int8)
    pack = np.ascontiguousarray(w.reshape(6, 72).astype(np.float32))
    q = rng.integers(-128, 128, size=(2, 8, 17, 17)).astype(np.int8)
    want = conv_reference(q.astype(np.int64) - 5, w, 1, 1)
    for ws in (None, kernels.Workspace()):
        acc = kernels.qconv2d_acc(q, pack, (0, 30, 72), 3, 1, 1,
                                  input_zero=5, workspace=ws)
        assert acc.dtype == np.float64 and acc.flags.c_contiguous
        np.testing.assert_array_equal(acc.astype(np.int64), want)


def test_folded_columns_are_not_border_zeroed_once():
    """Where a sample's padding cells sit in the (K, n*oh*ow) layout
    depends on n, so a column buffer zeroed for one batch size holds
    stale patches where another's zeros must be.  One workspace, batch
    sizes up and down, two geometries of equal K and equal plane."""
    rng = np.random.default_rng(8)
    in_c, out_c, zero = 4, 5, -9
    w = rng.integers(-128, 128, size=(out_c, in_c * 9)).astype(np.float32)
    bounds = (0, in_c * 9)
    shared = kernels.Workspace()
    for n in (8, 3, 8, 1, 5):
        for hw in ((8, 8), (16, 4)):
            q = rng.integers(-128, 128, size=(n, in_c) + hw).astype(np.int8)
            got = kernels.qconv2d_acc(q, w, bounds, 3, 1, 1,
                                      input_zero=zero, workspace=shared)
            fresh = kernels.qconv2d_acc(q, w, bounds, 3, 1, 1,
                                        input_zero=zero,
                                        workspace=kernels.Workspace())
            assert_bitwise(np.ascontiguousarray(got),
                           np.ascontiguousarray(fresh))
            np.testing.assert_array_equal(
                got.astype(np.int64), conv_reference(
                    q.astype(np.int64) - zero,
                    w.reshape(out_c, in_c, 3, 3), 1, 1))


EXPOSED_K = 2304
EXPOSED_BODY = 2288       # 255 * 127 * 2288 = 2**4 * 4631055: a float32
EXPOSED_BULK = 255 * 127 * EXPOSED_BODY


def exposed_graph(kind, batch):
    """quantize -> qdense / 3x3 qconv2d (K = 2304) -> dequantize whose
    int8 output is the accumulator's *low bits*.  Each weight row is 127
    over 2288 of the reduction and +-1 on a few free weights; on
    :func:`exposed_feeds` the accumulator is 74 096 880 plus at most
    112 — above 2**26, where float32 keeps multiples of 8.  The bias
    takes the 74M back out, in the requantization's float64, and every
    scale is 1, so the output is the small remainder exactly.  A float32
    GEMM that skipped the reduction split cannot even *hold* most of
    these accumulators, whatever order it sums in."""
    rng = np.random.default_rng(EXPOSED_K)
    out_dim = 8
    if kind == "dense":
        w = np.concatenate([
            np.full((out_dim, EXPOSED_BODY), 127),
            rng.choice([-1, 1], size=(out_dim, EXPOSED_K - EXPOSED_BODY))],
            axis=1)
        x_shape, extra = (batch, EXPOSED_K), {}
    else:
        w = np.full((out_dim, 256, 3, 3), 127)
        w[:, 254].reshape(out_dim, 9)[:, 2:] = 0     # 254 * 9 + 2 = 2288
        w[:, 255] = rng.choice([-1, 1], size=(out_dim, 3, 3))
        x_shape = (batch, 256, 6, 6)
        extra = {"stride": 1, "padding": 0, "groups": 1}
    sign = np.where(np.arange(out_dim) % 2, -1, 1)
    w = w * sign.reshape((-1,) + (1,) * (w.ndim - 1))
    bias = (-sign * EXPOSED_BULK).astype(np.float32)
    assert np.all(bias.astype(np.int64) == -sign * EXPOSED_BULK)
    one, zero = np.array([1.0]), np.array([0])
    g = Graph(f"exposed_{kind}")
    g.add_input(TensorSpec("x", x_shape))
    g.add_initializer("w", w.astype(np.int8), DType.INT8)
    g.add_initializer("b", bias)
    g.add_node("quantize", ["x"], ["xq"], name="q", scale=one,
               zero_point=np.array([RAIL_ZERO]), dtype=DType.INT8)
    g.add_node("qdense" if kind == "dense" else "qconv2d",
               ["xq", "w", "b"], ["yq"], name="layer", input_scale=one,
               input_zero_point=np.array([RAIL_ZERO]), weight_scale=one,
               weight_zero_point=zero, weight_channel_axis=None,
               out_scale=one, out_zero_point=zero, out_dtype=DType.INT8,
               **extra)
    g.add_node("dequantize", ["yq"], ["y"], name="dq", scale=one,
               zero_point=zero)
    g.set_outputs(["y"])
    return g


def exposed_feeds(graph, seed):
    """255 under every heavy weight, 0..7 under the free ones."""
    rng = np.random.default_rng(seed)
    shape = graph.inputs[0].shape
    x = np.full(shape, 255)
    if len(shape) == 2:
        x[:, EXPOSED_BODY:] = rng.integers(
            0, 8, size=(shape[0], EXPOSED_K - EXPOSED_BODY))
    else:
        x[:, 255] = rng.integers(0, 8, size=(shape[0],) + shape[2:])
    return {"x": x.astype(np.float32)}


def exact_packs(plan):
    """{node: (weights, k_bounds)} of the plan's exact-GEMM packs."""
    found = {}
    for name, pack in plan.packs.items():
        for entry in ("w2_exact", "wt_exact", "w_nhwc_exact"):
            if entry in pack:
                found[name] = (pack[entry], pack["k_bounds"])
    return found


def single_node_graph(graph, node_name):
    """The quantized node ``node_name`` of ``graph`` alone, fed its int8
    input directly, with the model's own weights and parameters."""
    node = next(n for n in graph.nodes if n.name == node_name)
    specs = graph.infer_specs()
    g = Graph(f"{graph.name}_{node_name}")
    g.add_input(specs[node.inputs[0]])
    for name in node.inputs[1:]:
        g.add_initializer(name, graph.initializers[name],
                          graph.initializer_dtypes.get(name))
    g.add_node(node.op_type, list(node.inputs), list(node.outputs),
               name=node.name, **node.attrs)
    g.set_outputs(list(node.outputs))
    return g


@pytest.fixture(scope="module")
def int8_zoo():
    """resnet50 and yolov4 quantized at a small image: the wide layers
    keep their published reduction widths."""
    graphs = {}
    for name in ("resnet50", "yolov4"):
        g = build_model(name, batch=1, image_size=32)
        rng = np.random.default_rng(9)
        feeds = [{s.name: rng.normal(size=s.shape).astype(np.float32)
                  for s in g.inputs}]
        graphs[name] = quantize_int8(g, feeds)
    return graphs


class TestPlansCarryTheProof:
    def test_tiny_yolo_packs_and_cache_round_trip(self, tmp_path):
        g = build_model("tiny_yolo", batch=2)
        rng = np.random.default_rng(10)
        feeds = [{s.name: rng.normal(size=s.shape).astype(np.float32)
                  for s in g.inputs} for _ in range(2)]
        q = quantize_int8(g, feeds)
        reference = Executor(q, plan=compile_plan(q, prepack=False)) \
            .run(feeds[0])
        cache = PlanCache(tmp_path)
        cold = load_or_build(q, cache=cache)
        warm = load_or_build(q, cache=cache)
        assert not cold.from_cache and warm.from_cache
        for model in (cold, warm):
            packs = exact_packs(model.plan)
            assert len(packs) == 7
            for name, (weights, bounds) in packs.items():
                assert weights.dtype == np.float32
                assert bounds.dtype == np.int64
                # neck_conv (K = 2304) is the one layer over the bound.
                assert len(bounds) - 1 == (2 if name == "neck_conv" else 1)
            got = Executor(model.graph, plan=model.plan).run(feeds[0])
            for tensor, value in reference.items():
                assert_bitwise(got[tensor], value)

    @pytest.mark.parametrize("model,node,k,chunks", [
        ("resnet50", "fc", 2048, 2),
        ("yolov4", "csp5_r0_b_conv", 4608, 3),
    ])
    def test_wide_zoo_layers(self, int8_zoo, model, node, k, chunks,
                             tmp_path):
        q = int8_zoo[model]
        plan = compile_plan(q)
        packs = exact_packs(plan)
        assert len(packs) > 50                  # every conv and the fc
        for name, (weights, bounds) in packs.items():
            assert weights.dtype == np.float32, name
            assert bounds[0] == 0 and bounds[-1] in weights.shape, name
            assert np.all(np.diff(bounds) > 0), name
        weights, bounds = packs[node]
        assert k in weights.shape and bounds[-1] == k
        assert len(bounds) - 1 == chunks
        # The layer alone, through the cache, on rail inputs.
        g = single_node_graph(q, node)
        spec = g.inputs[0]
        feeds = {spec.name: rail_codes(np.random.default_rng(11), spec.shape)}
        reference = Executor(g, plan=compile_plan(g, prepack=False)) \
            .run(feeds)
        cache = PlanCache(tmp_path)
        cold = load_or_build(g, cache=cache)
        warm = load_or_build(g, cache=cache)
        assert not cold.from_cache and warm.from_cache
        for loaded in (cold, warm):
            weights, bounds = exact_packs(loaded.plan)[node]
            assert weights.dtype == np.float32
            assert len(bounds) - 1 == chunks
            got = Executor(loaded.graph, plan=loaded.plan).run(feeds)
            for tensor, value in reference.items():
                assert_bitwise(got[tensor], value)

    def test_v4_entry_with_float64_pack_is_rebuilt_in_place(self, tmp_path):
        """A parent-era entry: version 4, the wide layer's pack float64,
        no ``k_bounds`` anywhere."""
        g = adversarial_graph(WIDEST_F32_K + 1)
        cache = PlanCache(tmp_path)
        cold = load_or_build(g, cache=cache)
        entry = tmp_path / cold.key
        meta = json.loads((entry / "meta.json").read_text())
        blob = (entry / "weights.bin").read_bytes()
        blob += b"\x00" * (-len(blob) % 64)
        wide = np.ascontiguousarray(
            cold.plan.packs["fc"]["wt_exact"].astype(np.float64))
        packs = []
        for node, name, *index in meta["packs"]:
            if name == "k_bounds":
                continue
            if name == "wt_exact":
                index = ["float64", list(wide.shape), len(blob), wide.nbytes]
            packs.append([node, name] + index)
        meta["packs"], meta["version"] = packs, 4
        (entry / "weights.bin").write_bytes(blob + wide.tobytes())
        (entry / "meta.json").write_text(json.dumps(meta))
        rebuilt = load_or_build(g, cache=cache)
        assert not rebuilt.from_cache and rebuilt.key == cold.key
        assert rebuilt.plan.packs["fc"]["wt_exact"].dtype == np.float32
        assert rebuilt.plan.packs["fc"]["k_bounds"].tolist() == [0, 259, 519]
        assert json.loads((entry / "meta.json").read_text())["version"] \
            == ENTRY_VERSION
        assert load_or_build(g, cache=cache).from_cache

    def test_pack_without_bounds_does_not_bind(self, tmp_path):
        """No consumer runs an unproven float32 GEMM: a current-version
        entry that lost its ``k_bounds`` is a miss, not a plan."""
        g = adversarial_graph(WIDEST_F32_K + 1)
        cache = PlanCache(tmp_path)
        cold = load_or_build(g, cache=cache)
        meta_path = tmp_path / cold.key / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["packs"] = [p for p in meta["packs"] if p[1] != "k_bounds"]
        meta_path.write_text(json.dumps(meta))
        assert cache.load(cold.key) is None
        packs = {"fc": {k: v for k, v in cold.plan.packs["fc"].items()
                        if k != "k_bounds"}}
        with pytest.raises(Exception, match="k_bounds"):
            compile_plan(g, packs=packs)

    @pytest.mark.parametrize("kind", ["dense", "conv"])
    def test_every_consumer_of_the_pack_runs_the_split(self, kind):
        """Builder, arena form and both shard forms on the layer whose
        output is the low bits of a 2**26-sized accumulator."""
        g = exposed_graph(kind, batch=8)
        feeds = exposed_feeds(g, 12)
        reference = Executor(g, plan=compile_plan(g, prepack=False)) \
            .run(feeds)["y"]
        assert np.abs(reference).max() < 127          # nothing saturated
        assert len(np.unique(reference)) > 16
        # Most of the true accumulators are not float32 values at all.
        sign = np.where(np.arange(8) % 2, -1, 1).reshape(
            (1, 8) + (1,) * (reference.ndim - 2))
        acc = EXPOSED_BULK + sign * reference.astype(np.int64)
        assert np.mean(acc.astype(np.float32).astype(np.int64) != acc) > 0.5
        plan = compile_plan(g)
        weights, bounds = exact_packs(plan)["layer"]
        assert weights.dtype == np.float32
        # 255 * 127 * 2288 is 4.4 bounds wide: five chunks.
        assert len(bounds) - 1 == 5
        assert_bitwise(Executor(g, plan=plan).run(feeds)["y"], reference)
        arena = Executor(g, reuse_buffers=True, num_threads=1)
        for _ in range(2):
            assert_bitwise(arena.run(feeds)["y"], reference)
        for reuse in (False, True):
            threaded = Executor(g, num_threads=2, reuse_buffers=reuse)
            threaded.record_timeline = True
            for _ in range(2):
                assert_bitwise(threaded.run(feeds)["y"], reference)
            assert any(span["name"] == "layer" and "rows" in span
                       for span in threaded.last_timeline)
        if kind == "conv":
            nhwc = PassManager([LayoutPlanner(min_convs=1)]).run(g)
            plan = compile_plan(nhwc)
            assert len(plan.packs["layer"]["k_bounds"]) - 1 == 5
            assert plan.packs["layer"]["w_nhwc_exact"].dtype == np.float32
            assert_bitwise(Executor(nhwc, plan=plan).run(feeds)["y"],
                           reference)


class TestGlobalAvgpoolInTheArena:
    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_out_form_has_the_same_bits(self, dtype):
        rng = np.random.default_rng(13)
        data = (rng.normal(size=(3, 5, 7, 6)) * 50).astype(dtype)
        want = kernels.global_avgpool2d(data)
        out = np.empty_like(want)
        assert kernels.global_avgpool2d(data, out=out) is out
        assert_bitwise(out, want)

    def test_pooled_graph_output_allocates_nothing_after_warmup(self):
        g = Graph("pooled_output")
        g.add_input(TensorSpec("x", (4, 6, 5, 5)))
        g.add_node("relu", ["x"], ["r"], name="relu")
        g.add_node("global_avgpool2d", ["r"], ["y"], name="gap")
        g.set_outputs(["y"])
        rng = np.random.default_rng(14)
        feeds = {"x": rng.normal(size=(4, 6, 5, 5)).astype(np.float32)}
        reference = Executor(g).run(feeds)["y"]
        executor = Executor(g, reuse_buffers=True, num_threads=1)
        executor.recycle(executor.run(feeds))
        arena = executor.plan.arena
        before = arena.stats.snapshot()
        pooled = arena.pooled_bytes
        for _ in range(3):
            got = executor.run(feeds)
            assert_bitwise(got["y"], reference)
            executor.recycle(got)
        assert arena.stats.allocations - before.allocations == 0
        assert arena.stats.reuses > before.reuses
        assert arena.pooled_bytes == pooled
