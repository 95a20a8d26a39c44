import re
import threading

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from roteq import conv, network
from roteq.conv import (
    ConvGeometry,
    Epilogue,
    correlate2d,
    correlate2d_backward,
    max_pool2d,
    max_pool2d_backward,
    output_size,
    stride_preserves_equivariance,
)
from roteq.tensor import rotate90

from reference import (
    fresh_thread_peak,
    max_rel,
    naive_correlate2d,
    naive_max_pool2d,
    naive_max_pool2d_backward,
    strided_scatter_input_grad,
    tensordot_correlate2d,
    whole_matrix_filter_grad,
)


def test_all_ones_window_sum():
    x = np.ones((1, 1, 3, 3))
    w = np.ones((1, 1, 2, 2))
    np.testing.assert_array_equal(correlate2d(x, w), np.full((1, 1, 2, 2), 4.0))


def test_identity_kernel(rng):
    x = rng.standard_normal((2, 1, 4, 4))
    w = np.ones((1, 1, 1, 1))
    np.testing.assert_array_equal(correlate2d(x, w), x)


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
def test_matches_naive_loop_oracle(rng, stride, pad):
    x = rng.standard_normal((1, 3, 6, 6))
    w = rng.standard_normal((2, 3, 3, 3))
    got = correlate2d(x, w, ConvGeometry(stride, pad))
    want = naive_correlate2d(x, w, stride, pad)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


def test_rectangular_kernel_against_oracle(rng):
    x = rng.standard_normal((2, 2, 5, 7))
    w = rng.standard_normal((3, 2, 2, 4))
    np.testing.assert_allclose(
        correlate2d(x, w), naive_correlate2d(x, w), rtol=1e-13, atol=1e-13
    )


def test_linearity(rng):
    x1 = rng.standard_normal((1, 2, 5, 5))
    x2 = rng.standard_normal((1, 2, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    np.testing.assert_allclose(
        correlate2d(x1 + x2, w), correlate2d(x1, w) + correlate2d(x2, w), rtol=1e-12
    )


def test_errors():
    with pytest.raises(ValueError, match="channels"):
        correlate2d(np.zeros((1, 2, 4, 4)), np.zeros((1, 3, 3, 3)))
    with pytest.raises(ValueError, match="does not fit"):
        correlate2d(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 3, 3)))
    with pytest.raises(ValueError):
        ConvGeometry(stride=0)
    with pytest.raises(ValueError):
        ConvGeometry(pad=-1)


def per_image_block_bytes(shape, w, geom):
    """Bytes of one contiguous (c, h, w) image's patch columns and GEMM result
    in correlate2d's forward block: row runs (stride 1, more than one output
    entry) span the padded width per output row, every other lowering ow."""
    kh, kw = w.shape[2:]
    oh = output_size(shape[1], kh, geom.stride, geom.pad)
    ow = output_size(shape[2], kw, geom.stride, geom.pad)
    width = shape[2] + 2 * geom.pad if geom.stride == 1 and oh * ow > 1 else ow
    return (shape[0] * kh * kw + w.shape[0]) * oh * width * w.itemsize


def assert_blocking_is_exact(monkeypatch, rng, shape, w, geom):
    """Under a 2 MiB forward budget, a batch of 3 full chunks and one image
    runs as 4 chunks of near-equal size, bit-identical to the one-chunk call.

    The balance matters: a lone one-image chunk can be small enough
    that OpenBLAS routes its GEMM to a small-matrix kernel, which
    rounds differently. Balanced chunks of at least half the budget
    stay clear of it.
    """
    budget, per_image = 1 << 21, per_image_block_bytes(shape, w, geom)
    n = 3 * (budget // per_image) + 1
    x = rng.standard_normal((n,) + shape).astype(w.dtype)
    gemms = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda *args, **kwargs: gemms.append(1) or matmul(*args, **kwargs))
    monkeypatch.setattr(conv, "_BLOCK_BYTES", budget)
    monkeypatch.setattr(conv._workspace, "buf", None, raising=False)  # so the whole-batch buffer is dropped after
    chunked = correlate2d(x, w, geom)
    assert len(gemms) == 4
    monkeypatch.setattr(conv, "_BLOCK_BYTES", n * per_image)
    whole = correlate2d(x, w, geom)
    assert len(gemms) == 5
    monkeypatch.setattr(np, "matmul", matmul)
    # one chunk is the unblocked lowering: one tensordot over the whole batch
    kh, kw = w.shape[2:]
    patches = conv._patches(conv._pad_spatial(x, geom.pad), kh, kw, geom.stride)
    unblocked = np.tensordot(w, patches, axes=([1, 2, 3], [1, 2, 3])).transpose(1, 0, 2, 3)
    assert_same_bits(whole, np.ascontiguousarray(unblocked))
    assert_same_bits(chunked, whole)
    assert chunked.flags.c_contiguous and whole.flags.c_contiguous


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("preset", ["dren-z2cnn-shape", "z2cnn-shape", "bench-nin-shape", "dren-small"])
def test_blocked_lowering_is_bit_identical_on_preset_layers(monkeypatch, rng, preset, precision):
    # the input shape and filter bank of every conv-like layer
    model = network.build_model(network.preset_stack(preset), precision=precision, input_size=28)
    calls = []

    def record(x, w, geom=ConvGeometry(), **epilogue):
        calls.append((x.shape[1:], w, geom))
        return correlate2d(x, w, geom, **epilogue)

    with monkeypatch.context() as m:
        m.setattr(network, "correlate2d", record)
        network.forward(model, np.zeros((1, 1, 28, 28)), mode="eval")
    assert len(calls) == sum(s.kind in ("cycle", "isotonic", "decycle", "conv") for s in model.specs)
    for shape, w, geom in calls:
        assert w.dtype == np.dtype(precision)
        assert_blocking_is_exact(monkeypatch, rng, shape, w, geom)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("geom", [ConvGeometry(), ConvGeometry(pad=1), ConvGeometry(stride=2)])
def test_epilogue_gives_the_plain_steps_bytes(monkeypatch, rng, dtype, geom):
    # pool first, then bias and ReLU, per block, is the plain bias, ReLU and
    # pool over the whole output, bit for bit: NaN windows and all-zero
    # windows (outputs of exactly +-bias or 0) included, over several blocks
    x = rng.standard_normal((9, 3, 13, 13)).astype(dtype)
    x[2, :, :6, :6] = 0
    x[4, 1, 7, 8] = np.nan
    w = rng.standard_normal((4, 3, 3, 3)).astype(dtype)
    bias = rng.standard_normal(4).astype(dtype)
    monkeypatch.setattr(conv, "_BLOCK_BYTES", 3 * (27 + 4) * 13 * 15 * x.itemsize)  # 3 or 4 images a block at stride 1
    plain = correlate2d(x, w, geom)
    for pool in (None, (2, 2), (3, 2)):
        for b in (None, bias):
            for relu in (False, True):
                want = plain if b is None else plain + b.reshape(-1, 1, 1)
                want = np.maximum(want, 0) if relu else want
                want = want if pool is None else max_pool2d(want, *pool)
                got = correlate2d(x, w, geom, epilogue=Epilogue(pool, b, relu))
                assert np.isnan(got).any()
                assert_same_bits(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocked_lowering_is_bit_identical_strided_and_padded(monkeypatch, rng, dtype):
    w = rng.standard_normal((8, 3, 3, 3)).astype(dtype)
    assert_blocking_is_exact(monkeypatch, rng, (3, 9, 9), w, ConvGeometry(stride=2, pad=1))


def test_blocked_lowering_bounds_the_patch_matrix(rng):
    # unblocked, the (180, 256*24*24) float32 patch matrix alone is 106 MB;
    # the peak counts the workspace, which a fresh thread allocates
    x = rng.standard_normal((256, 20, 26, 26), dtype=np.float32)
    w = rng.standard_normal((20, 20, 3, 3), dtype=np.float32)
    _, peak = fresh_thread_peak(lambda: correlate2d(x, w))
    assert peak < 40e6, peak


@pytest.mark.parametrize(
    "shape,w_shape,stride,pad",
    [
        # row runs: 14 columns per output row, not 12; a budget counting 12
        # would fit 36 images a block, and 5 blocks of 32-33 images, 4.4 MB each
        ((161, 20, 12, 12), (20, 20, 3, 3), 1, 1),
        ((256, 24, 17, 17), (24, 24, 3, 3), 2, 1),  # tensordot's operand, a copy
    ],
)
def test_no_forward_gemm_operand_exceeds_the_budget(monkeypatch, rng, shape, w_shape, stride, pad):
    # a block's patch columns and GEMM result together stay within the forward's budget
    sizes = []

    def spy(a, b, *, out):
        sizes.append(b.nbytes + out.nbytes)
        return matmul(a, b, out=out)

    matmul = np.matmul
    x = rng.standard_normal(shape, dtype=np.float32)
    w = rng.standard_normal(w_shape, dtype=np.float32)
    geom = ConvGeometry(stride, pad)
    with monkeypatch.context() as m:
        m.setattr(np, "matmul", spy)
        chunked = correlate2d(x, w, geom)
        blocks = len(sizes)
        m.setattr(conv, "_BLOCK_BYTES", 1 << 40)
        m.setattr(conv._workspace, "buf", None, raising=False)  # so the whole-batch buffer is dropped after
        whole = correlate2d(x, w, geom)
    assert blocks > 1 and max(sizes[:blocks]) <= conv._BLOCK_BYTES, sizes
    assert len(sizes) == blocks + 1  # the whole batch as one block
    assert_same_bits(whole, tensordot_correlate2d(x, w, stride, pad))
    assert_same_bits(chunked, whole)


def test_strided_lowering_holds_one_block_operand_at_a_time(rng):
    # 15 blocks of 17-18 images; each block's (216, 18*16*16) float32 copy
    # is 4.0 MB, so two alive at once would take the peak past 8 MB
    x = rng.standard_normal((256, 24, 33, 33), dtype=np.float32)
    w = rng.standard_normal((4, 24, 3, 3), dtype=np.float32)
    per_image = 24 * 3 * 3 * 16 * 16 * 4
    bounds = conv._block_bounds(256, per_image + 4 * 16 * 16 * 4)
    operand = max(hi - lo for lo, hi in bounds) * per_image
    out, peak = fresh_thread_peak(lambda: correlate2d(x, w, ConvGeometry(stride=2)))
    assert len(bounds) == 15
    assert peak - out.nbytes <= 1.25 * operand, peak


def test_forward_output_outlives_the_next_call(rng):
    # the workspace is reused by the next call, of any shape and dtype, so
    # no output may be a view of it
    x = rng.standard_normal((64, 20, 26, 26), dtype=np.float32)
    w = rng.standard_normal((20, 20, 3, 3), dtype=np.float32)
    first = correlate2d(x, w)
    kept = first.copy()
    correlate2d(rng.standard_normal((16, 20, 12, 12)), rng.standard_normal((20, 20, 3, 3)), ConvGeometry(pad=1))
    assert_same_bits(first, kept)
    assert not np.shares_memory(first, conv._workspace.buf)


def test_forward_workspace_holds_one_block_and_is_reused(rng):
    # dren-z2cnn-shape's 26-px layer at batch 256: 8 images a block, whose
    # (180, 8*24*26) columns are 3.6 MB and (20, 8*24*26) result 0.4 MB;
    # the whole batch's columns would be 115 MB
    x = rng.standard_normal((256, 20, 26, 26), dtype=np.float32)
    w = rng.standard_normal((20, 20, 3, 3), dtype=np.float32)
    held = []

    def calls():
        for _ in range(2):
            correlate2d(x, w)
            held.append(conv._workspace.buf)

    thread = threading.Thread(target=calls)
    thread.start()
    thread.join()
    assert held[0] is held[1]
    assert 8 * 180 * 24 * 26 * 4 <= held[0].nbytes <= conv._BLOCK_BYTES, held[0].nbytes


def test_an_image_past_the_budget_keeps_no_workspace(monkeypatch, rng):
    # one image's 0.5 MB of columns and result exceed a 64 KiB budget: its
    # block is one image, in buffers freed with the call
    x = rng.standard_normal((3, 20, 26, 26), dtype=np.float32)
    w = rng.standard_normal((20, 20, 3, 3), dtype=np.float32)
    monkeypatch.setattr(conv, "_BLOCK_BYTES", 1 << 16)
    held = []

    def call():
        out = correlate2d(x, w)
        held.append(getattr(conv._workspace, "buf", None))
        return out

    out, _ = fresh_thread_peak(call)
    assert held == [None]
    assert_same_bits(out, tensordot_correlate2d(x, w))


def test_threads_calling_at_once_give_the_sequential_bytes(rng):
    # each thread lowers into its own workspace; a shared one would let a
    # thread's copy overwrite the other's columns while BLAS reads them
    cases = [
        (rng.standard_normal((32, 20, 26, 26), dtype=np.float32), rng.standard_normal((20, 20, 3, 3), dtype=np.float32)),
        (rng.standard_normal((48, 20, 12, 12)), rng.standard_normal((20, 20, 3, 3))),
    ]
    want = [correlate2d(x, w) for x, w in cases]
    got = [[], []]
    start = threading.Barrier(2)

    def run(j):
        start.wait()
        for _ in range(8):
            got[j].append(correlate2d(*cases[j]))

    threads = [threading.Thread(target=run, args=(j,)) for j in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for j in range(2):
        assert len(got[j]) == 8
        for out in got[j]:
            assert_same_bits(out, want[j])


def preset_conv_layers(monkeypatch, preset, precision):
    """(input shape, filter bank, geometry) of every conv-like layer of `preset` at 28 px."""
    model = network.build_model(network.preset_stack(preset), precision=precision, input_size=28)
    calls = []

    def record(x, w, geom=ConvGeometry(), **epilogue):
        calls.append((x.shape[1:], w, geom))
        return correlate2d(x, w, geom, **epilogue)

    with monkeypatch.context() as m:
        m.setattr(network, "correlate2d", record)
        network.forward(model, np.zeros((1, 1, 28, 28)), mode="eval")
    assert len(calls) == sum(s.kind in ("cycle", "isotonic", "decycle", "conv") for s in model.specs)
    return calls


def assert_lowering_matches_tensordot(x, w, geom):
    want = tensordot_correlate2d(x, w, geom.stride, geom.pad)
    got = correlate2d(x, w, geom)
    assert_same_bits(got, want)
    assert got.flags.c_contiguous


@pytest.mark.parametrize("batch", [8, 64, 256])
@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("preset", ["dren-z2cnn-shape", "z2cnn-shape", "bench-nin-shape", "dren-small", "cnn-small"])
def test_lowering_matches_tensordot_on_preset_layers(monkeypatch, rng, preset, precision, batch):
    # row runs on the stride-1 layers, tensordot's operand on the 1x1 heads
    for shape, w, geom in preset_conv_layers(monkeypatch, preset, precision):
        x = rng.standard_normal((batch,) + shape).astype(w.dtype)
        assert_lowering_matches_tensordot(x, w, geom)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "shape,w_shape,stride,pad",
    [
        ((20, 14, 14), (20, 20, 3, 3), 1, 1),
        ((12, 13, 11), (16, 12, 5, 3), 1, 2),
        ((24, 17, 17), (16, 24, 3, 3), 2, 1),  # strided: per-row copies
        ((20, 4, 4), (10, 20, 4, 4), 1, 0),  # whole-window 1x1 head: a view
        ((20, 6, 6), (10, 20, 5, 5), 3, 0),  # partial-window 1x1 head: a copy
    ],
)
def test_lowering_matches_tensordot_padded_strided_and_heads(rng, dtype, shape, w_shape, stride, pad):
    w = rng.standard_normal(w_shape).astype(dtype)
    for batch in (8, 64):
        x = rng.standard_normal((batch,) + shape).astype(dtype)
        assert_lowering_matches_tensordot(x, w, ConvGeometry(stride, pad))


@pytest.mark.parametrize("view", [lambda x: x[..., ::-1, ::-1], lambda x: x.swapaxes(2, 3)])
def test_lowering_matches_tensordot_on_views(rng, view):
    # a half turn keeps each plane one flat run (negative strides); a
    # transpose does not, and goes through per-row copies
    x = view(rng.standard_normal((16, 20, 12, 12)))
    w = rng.standard_normal((20, 20, 3, 3))
    assert not x.flags.c_contiguous
    assert_lowering_matches_tensordot(x, w, ConvGeometry())


@pytest.mark.parametrize("pad", [0, 1])
def test_lowering_reads_no_image_past_the_batch(rng, pad):
    # each row run ends at its image's last entry; the overhang past the
    # last output row is zeroed, never read from the next image
    n = 16
    big = rng.standard_normal((n + 4, 20, 10, 10))
    big[n:] = np.nan
    w = rng.standard_normal((8, 20, 3, 3))
    out = correlate2d(big[:n], w, ConvGeometry(pad=pad))
    assert not np.isnan(out).any()
    assert_same_bits(out, tensordot_correlate2d(big[:n], w, pad=pad))


def test_lowering_of_an_empty_batch(rng):
    w = rng.standard_normal((8, 3, 3, 3))
    for geom, size in ((ConvGeometry(), 7), (ConvGeometry(stride=2), 7), (ConvGeometry(), 3)):
        out = correlate2d(np.zeros((0, 3, size, size)), w, geom)
        oh = output_size(size, 3, geom.stride)
        assert out.shape == (0, 8, oh, oh)


# Largest deviation of a blocked filter gradient from a float64 whole-matrix
# GEMM, relative to its largest entry: no looser than the one-GEMM call's own
# (see assert_backward_blocking_is_exact)
FILTER_GRAD_BOUND = {np.dtype(np.float32): 6.5e-7, np.dtype(np.float64): 2e-15}


def assert_backward_blocking_is_exact(monkeypatch, rng, shape, w, geom):
    """Under a 2 MiB budget, a batch-64 backward runs both halves in batch
    blocks wherever a block's buffers exceed the budget. Its input gradient
    is bit-identical to the one-block call's. Its filter gradient sums the
    blocks' partial products in block order, which rounds otherwise than
    one GEMM: it stays within `FILTER_GRAD_BOUND` of a float64 whole-matrix
    GEMM, and so does the one-block call's. Returns the filter-gradient
    half's block count.

    The bounds: in float32 one GEMM over the whole batch deviated from
    float64 by up to 7.4e-7 on these layers at batches 8-256. In float64 the reference is that one GEMM itself,
    whose own error against a long-double product was 2.4e-16-9.9e-16 on
    dren-z2cnn-shape's layers; the blocked sums came within 1.3e-15 of it.

    Budgets below 1 MiB cut blocks to an image or two, where OpenBLAS's
    small-matrix and gemv kernels round differently, so none is used.
    """
    budget, n = 1 << 21, 64
    x = rng.standard_normal((n,) + shape).astype(w.dtype)
    g = rng.standard_normal(correlate2d(x, w, geom).shape).astype(w.dtype)
    stages = []  # (count, item bytes, spare bytes, block count) of each _block_bounds call

    def spy(count, item_bytes, spare_bytes=0):
        bounds = block_bounds(count, item_bytes, spare_bytes)
        stages.append((count, item_bytes, spare_bytes, len(bounds)))
        return bounds

    block_bounds = conv._block_bounds
    with monkeypatch.context() as m:
        m.setattr(conv, "_BLOCK_BYTES", budget)
        m.setattr(conv, "_block_bounds", spy)
        gx, gw = correlate2d_backward(g, x, w, geom)
        none, gw_only = correlate2d_backward(g, x, w, geom, input_grad=False)
    assert [count for count, *_ in stages] == [n] * 3
    for count, item_bytes, spare_bytes, blocks in stages:
        assert (blocks > 1) == (count * item_bytes + spare_bytes > budget), (count, item_bytes, spare_bytes)
    with monkeypatch.context() as m:
        m.setattr(conv, "_BLOCK_BYTES", 1 << 40)
        m.setattr(conv._workspace, "buf", None, raising=False)  # so the whole-batch buffer is dropped after
        gx_whole, gw_whole = correlate2d_backward(g, x, w, geom)
    want = whole_matrix_filter_grad(*(a.astype(np.float64) for a in (g, x, w)), geom.stride, geom.pad)
    bound = FILTER_GRAD_BOUND[w.dtype]
    assert max_rel(gw, want) <= bound, max_rel(gw, want)
    assert max_rel(gw_whole, want) <= bound, max_rel(gw_whole, want)
    assert_same_bits(gx, gx_whole)
    assert none is None
    assert_same_bits(gw_only, gw)
    assert gx.flags.c_contiguous and gw.flags.c_contiguous
    return stages[0][3]


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("preset", ["dren-z2cnn-shape", "z2cnn-shape", "bench-nin-shape", "dren-small"])
def test_blocked_backward_is_bit_identical_on_preset_layers(monkeypatch, rng, preset, precision):
    # the input shape and filter bank of every conv-like layer
    model = network.build_model(network.preset_stack(preset), precision=precision, input_size=28)
    calls = []

    def record(x, w, geom=ConvGeometry(), **epilogue):
        calls.append((x.shape[1:], w, geom))
        return correlate2d(x, w, geom, **epilogue)

    with monkeypatch.context() as m:
        m.setattr(network, "correlate2d", record)
        network.forward(model, np.zeros((1, 1, 28, 28)), mode="eval")
    assert len(calls) == sum(s.kind in ("cycle", "isotonic", "decycle", "conv") for s in model.specs)
    blocks = [assert_backward_blocking_is_exact(monkeypatch, rng, shape, w, geom) for shape, w, geom in calls]
    # every 26-px layer (L4, bench-nin-shape's 1x1 layers) splits its batch
    wide = [i for i, (shape, _, _) in enumerate(calls) if shape[1] == 26]
    assert wide and all(blocks[i] > 1 for i in wide), blocks


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocked_backward_is_bit_identical_strided_and_padded(monkeypatch, rng, dtype):
    w = rng.standard_normal((8, 24, 3, 3)).astype(dtype)
    assert assert_backward_blocking_is_exact(monkeypatch, rng, (24, 33, 33), w, ConvGeometry(stride=2, pad=1)) > 1


def test_blocked_backward_bounds_its_operands(rng):
    # dren-z2cnn-shape's L4 at batch 256: unblocked, the float32 patch
    # matrix alone is 106 MB and the call's traced peak 118 MB; blocked by
    # input channel in 16 MiB per-call buffers, 42.3 MB. In 4 MiB batch
    # blocks the peak, 17.9 MB, is the 13.8 MB input gradient, the
    # workspace (a fresh thread allocates it, 4.1 MB) and small arrays
    x = rng.standard_normal((256, 20, 26, 26), dtype=np.float32)
    w = rng.standard_normal((20, 20, 3, 3), dtype=np.float32)
    g = rng.standard_normal((256, 20, 24, 24), dtype=np.float32)
    (gx, _), peak = fresh_thread_peak(lambda: correlate2d_backward(g, x, w))
    assert peak <= gx.nbytes + conv._BLOCK_BYTES + 1e6, peak


def test_backward_output_outlives_the_next_call(rng):
    # both gradients are fresh arrays, never views of the workspace that
    # the next call, of either pass, overwrites
    x = rng.standard_normal((64, 20, 26, 26), dtype=np.float32)
    w = rng.standard_normal((20, 20, 3, 3), dtype=np.float32)
    g = rng.standard_normal((64, 20, 24, 24), dtype=np.float32)
    grads = correlate2d_backward(g, x, w)
    kept = [a.copy() for a in grads]
    x2 = rng.standard_normal((16, 20, 12, 12))
    correlate2d_backward(rng.standard_normal((16, 20, 12, 12)), x2, rng.standard_normal((20, 20, 3, 3)), ConvGeometry(pad=1))
    correlate2d(x, w)
    for got, want in zip(grads, kept):
        assert_same_bits(got, want)
        assert not np.shares_memory(got, conv._workspace.buf)


def test_threads_running_both_passes_at_once_give_the_sequential_bytes(rng):
    # each thread's forward and backward take their blocks from its own
    # workspace; a shared one would let one thread's copies overwrite the
    # other's columns, laid-out gradient or accumulator while BLAS reads them
    cases = [
        (rng.standard_normal((32, 20, 26, 26), dtype=np.float32), rng.standard_normal((20, 20, 3, 3), dtype=np.float32), ConvGeometry()),
        (rng.standard_normal((48, 20, 12, 12)), rng.standard_normal((20, 20, 3, 3)), ConvGeometry(pad=1)),
    ]
    cases = [(x, w, geom, rng.standard_normal(correlate2d(x, w, geom).shape).astype(x.dtype)) for x, w, geom in cases]

    def both_passes(x, w, geom, g):
        return (correlate2d(x, w, geom), *correlate2d_backward(g, x, w, geom))

    want = [both_passes(*case) for case in cases]
    got, workspaces = [[], []], [None, None]
    start = threading.Barrier(2)

    def run(j):
        start.wait()
        for _ in range(4):
            got[j].append(both_passes(*cases[j]))
        workspaces[j] = conv._workspace.buf

    threads = [threading.Thread(target=run, args=(j,)) for j in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert workspaces[0] is not workspaces[1]
    for j in range(2):
        assert len(got[j]) == 4
        for outs in got[j]:
            for out, ref in zip(outs, want[j]):
                assert_same_bits(out, ref)
                assert not any(np.shares_memory(out, buf) for buf in workspaces)


@pytest.mark.parametrize(
    "x_shape,w_shape,message",
    [
        ((2, 3, 5, 5), (4, 2, 3, 3), "input has 3 channels but filters expect 2"),
        ((2, 3, 5, 5, 1), (4, 3, 3, 3), "expected rank-4 input and filters"),
    ],
)
def test_backward_rejects_the_operands_the_forward_rejects(x_shape, w_shape, message):
    for call in (
        lambda: correlate2d(np.zeros(x_shape), np.zeros(w_shape)),
        lambda: correlate2d_backward(np.zeros((2, 4, 3, 3)), np.zeros(x_shape), np.zeros(w_shape)),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


def test_backward_zero_grad(rng):
    x = rng.standard_normal((1, 2, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    gx, gw = correlate2d_backward(np.zeros((1, 3, 3, 3)), x, w)
    assert not gx.any() and not gw.any()


def test_backward_scalar_kernel_chain_rule(rng):
    x = rng.standard_normal((2, 1, 4, 4))
    w = rng.standard_normal((1, 1, 1, 1))
    g = rng.standard_normal((2, 1, 4, 4))
    _, gw = correlate2d_backward(g, x, w)
    np.testing.assert_allclose(gw[0, 0, 0, 0], (g * x).sum(), rtol=1e-12)


def test_backward_shape_mismatch(rng):
    x = rng.standard_normal((1, 1, 5, 5))
    w = rng.standard_normal((1, 1, 3, 3))
    with pytest.raises(ValueError, match="grad_out"):
        correlate2d_backward(np.zeros((1, 1, 2, 2)), x, w)


# (stride, pad, x shape, w shape) for the backward checks below
BACKWARD_CASES = {
    "1-0": (1, 0, (1, 2, 5, 5), (2, 2, 3, 3)),
    "2-1": (2, 1, (1, 2, 5, 5), (2, 2, 3, 3)),
    "batch2-3to4": (1, 0, (2, 3, 6, 6), (4, 3, 3, 3)),
    "k1x1": (1, 0, (2, 3, 4, 4), (5, 3, 1, 1)),
    "k4x4-decycle": (1, 0, (3, 4, 6, 6), (2, 4, 4, 4)),
    "k2x3-rect": (1, 1, (2, 3, 5, 6), (2, 3, 2, 3)),
    "3-2": (3, 2, (2, 2, 7, 7), (3, 2, 3, 3)),
}


@pytest.mark.parametrize(
    "stride,pad,x_shape,w_shape", list(BACKWARD_CASES.values()), ids=list(BACKWARD_CASES)
)
def test_backward_matches_finite_differences(rng, stride, pad, x_shape, w_shape):
    x = rng.standard_normal(x_shape)
    w = rng.standard_normal(w_shape)
    geom = ConvGeometry(stride, pad)
    g = rng.standard_normal(correlate2d(x, w, geom).shape)

    def loss(xx, ww):
        return float((correlate2d(xx, ww, geom) * g).sum())

    gx, gw = correlate2d_backward(g, x, w, geom)
    assert gx.shape == x.shape and gw.shape == w.shape
    eps = 1e-5
    for arr, grad, which in ((x, gx, "x"), (w, gw, "w")):
        flat = arr.reshape(-1)
        idx = rng.choice(flat.size, size=min(8, flat.size), replace=False)
        for j in idx:
            orig = flat[j]
            flat[j] = orig + eps
            hi = loss(x, w)
            flat[j] = orig - eps
            lo = loss(x, w)
            flat[j] = orig
            fd = (hi - lo) / (2 * eps)
            assert abs(fd - grad.reshape(-1)[j]) / max(abs(fd), 1e-8) < 1e-6, which


def test_adjoint_identities(rng):
    for stride, pad, x_shape, w_shape in BACKWARD_CASES.values():
        geom = ConvGeometry(stride, pad)
        x = rng.standard_normal(x_shape)
        w = rng.standard_normal(w_shape)
        y = correlate2d(x, w, geom)
        g = rng.standard_normal(y.shape)
        gx, gw = correlate2d_backward(g, x, w, geom)
        lhs = np.vdot(y, g)
        assert abs(lhs - np.vdot(x, gx)) / abs(lhs) < 1e-10, (stride, pad, x_shape, w_shape)
        assert abs(lhs - np.vdot(w, gw)) / abs(lhs) < 1e-10, (stride, pad, x_shape, w_shape)


def test_backward_keeps_float32_and_tracks_float64(rng):
    # the 20->20 isotonic layer of dren-z2cnn-shape at 26x26, batch 4
    x = rng.standard_normal((4, 20, 26, 26))
    w = rng.standard_normal((20, 20, 3, 3))
    g = rng.standard_normal((4, 20, 24, 24))
    gx64, gw64 = correlate2d_backward(g, x, w)
    gx32, gw32 = correlate2d_backward(*(a.astype(np.float32) for a in (g, x, w)))
    assert gx32.dtype == np.float32 and gw32.dtype == np.float32
    assert gx64.dtype == np.float64 and gw64.dtype == np.float64
    assert max_rel(gx32, gx64) <= 1e-5
    assert max_rel(gw32, gw64) <= 1e-5


@st.composite
def col2im_cases(draw):
    """(x shape, w shape, stride, pad, dtype, numpy seed) for an input-gradient check."""
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    stride, pad = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    n, c, o = draw(st.integers(1, 17)), draw(st.integers(1, 6)), draw(st.integers(1, 24))
    h = max(1, kh - 2 * pad) + draw(st.integers(0, 8))
    w = max(1, kw - 2 * pad) + draw(st.integers(0, 8))
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    return (n, c, h, w), (o, c, kh, kw), stride, pad, dtype, draw(st.integers(0, 2**32 - 1))


@seed(20240817)
@settings(max_examples=80, deadline=None, database=None)
@given(case=col2im_cases())
@example(case=((8, 20, 4, 4), (10, 20, 4, 4), 1, 0, np.float32, 1))  # the 4x4 -> 1x1 decycle head
@example(case=((1, 20, 4, 4), (10, 20, 4, 4), 1, 0, np.float32, 2))  # ... at batch 1
@example(case=((8, 20, 26, 26), (20, 20, 3, 3), 1, 0, np.float32, 3))  # dren-z2cnn-shape L4
@example(case=((16, 3, 9, 8), (5, 3, 2, 3), 3, 2, np.float64, 4))  # stride 3, pad 2, rectangular
def test_flat_shift_col2im_matches_strided_scatter(case):
    x_shape, w_shape, stride, pad, dtype, draw_seed = case
    rng = np.random.default_rng(draw_seed)
    x = rng.standard_normal(x_shape).astype(dtype)
    w = rng.standard_normal(w_shape).astype(dtype)
    geom = ConvGeometry(stride, pad)
    g = rng.standard_normal(correlate2d(x, w, geom).shape).astype(dtype)
    g[rng.random(g.shape) < 0.2] = 0.0
    g[rng.random(g.shape) < 0.2] = -0.0
    gx, gw = correlate2d_backward(g, x, w, geom)
    want = strided_scatter_input_grad(g, w, x_shape, stride, pad)
    assert gx.dtype == want.dtype and gx.flags.c_contiguous
    if x_shape[0] % 8 == 0:
        # every GEMM column block full: each entry rounds as in the scatter
        assert gx.tobytes() == want.tobytes()
    else:
        # OpenBLAS rounds a trailing partial column block (and a one-column
        # product) its own way, and padding moves entries in or out of it
        assert max_rel(gx, want) <= 8 * np.finfo(dtype).eps
    none, gw_only = correlate2d_backward(g, x, w, geom, input_grad=False)
    assert none is None and gw_only.tobytes() == gw.tobytes()


def test_stride_predicate_examples():
    assert stride_preserves_equivariance(6, 2, 2)
    assert not stride_preserves_equivariance(7, 2, 2)
    assert stride_preserves_equivariance(5, 1, 3)
    assert not stride_preserves_equivariance(2, 1, 3)
    with pytest.raises(ValueError):
        stride_preserves_equivariance(0, 2, 2)


def test_stride_predicate_tracks_measured_equivariance(rng):
    # distributive law R(w*x) == R(w)*R(x) holds exactly when the rule does
    for size in range(3, 13):
        holds = stride_preserves_equivariance(size, 2, 3)
        if size < 3:
            continue
        x = rng.standard_normal((1, 1, size, size))
        w = rng.standard_normal((2, 1, 3, 3))
        geom = ConvGeometry(stride=2)
        lhs = rotate90(correlate2d(x, w, geom))
        rhs = correlate2d(rotate90(x), rotate90(w), geom)
        dev = max_rel(lhs, rhs)
        if holds:
            assert dev < 1e-12, size
        else:
            assert dev > 1e-3, size


def test_output_size():
    assert output_size(28, 3) == 26
    assert output_size(24, 2, 2) == 12
    assert output_size(5, 3, 1, 1) == 5
    with pytest.raises(ValueError):
        output_size(2, 3)


def test_max_pool_examples():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    np.testing.assert_array_equal(max_pool2d(x, 2, 2), np.full((1, 1, 1, 1), 4.0))
    const = np.full((2, 3, 6, 6), 2.5)
    np.testing.assert_array_equal(max_pool2d(const, 2, 2), np.full((2, 3, 3, 3), 2.5))


def test_max_pool_commutes_with_rotation_when_rule_holds(rng):
    x = rng.standard_normal((2, 2, 6, 6))
    assert stride_preserves_equivariance(6, 2, 2)
    np.testing.assert_array_equal(max_pool2d(rotate90(x), 2, 2), rotate90(max_pool2d(x, 2, 2)))


def test_max_pool_backward_routes_to_argmax(rng):
    x = rng.standard_normal((2, 2, 4, 4))
    g = rng.standard_normal((2, 2, 2, 2))
    gx = max_pool2d_backward(g, x, max_pool2d(x, 2, 2), 2, 2)
    # every window's gradient lands on its maximum, everything else is zero
    for b in range(2):
        for c in range(2):
            for p in range(2):
                for q in range(2):
                    win = x[b, c, 2 * p : 2 * p + 2, 2 * q : 2 * q + 2]
                    gwin = gx[b, c, 2 * p : 2 * p + 2, 2 * q : 2 * q + 2]
                    u, v = np.unravel_index(np.argmax(win), (2, 2))
                    assert gwin[u, v] == g[b, c, p, q]
                    assert np.count_nonzero(gwin) <= 1


def test_max_pool_rejects_empty_windows_and_zero_stride():
    x = np.zeros((1, 1, 4, 4))
    with pytest.raises(ValueError, match="positive"):
        max_pool2d(x, 0, 1)
    with pytest.raises(ValueError, match="positive"):
        max_pool2d_backward(np.zeros((1, 1, 2, 2)), x, np.zeros((1, 1, 2, 2)), 2, 0)


@pytest.mark.parametrize("grad_shape,out_shape", [((2, 3, 1, 1), (2, 3, 2, 2)), ((2, 3, 2, 2), (2, 3, 1, 1))])
def test_max_pool_backward_rejects_misshaped_gradient_or_output(grad_shape, out_shape):
    # a (2, 3, 1, 1) array would broadcast over the (2, 3, 2, 2) windows
    x = np.ones((2, 3, 4, 4))
    message = re.escape(f"grad_out {grad_shape} and pooled output {out_shape} must both be (2, 3, 2, 2)")
    with pytest.raises(ValueError, match=message):
        max_pool2d_backward(np.ones(grad_shape), x, np.ones(out_shape), 2, 2)


POOL_FILLS = ("normal", "relu", "ties", "nan", "inf")


@st.composite
def pool_cases(draw):
    """(x shape, kernel, stride, dtype, fill, numpy seed) for a pooling check."""
    kernel = draw(st.integers(1, 4))
    stride = draw(st.integers(1, 3))
    shape = (
        draw(st.integers(1, 2)),
        draw(st.integers(1, 3)),
        kernel + draw(st.integers(0, 7)),
        kernel + draw(st.integers(0, 7)),
    )
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    return shape, kernel, stride, dtype, draw(st.sampled_from(POOL_FILLS)), draw(st.integers(0, 2**32 - 1))


def pool_input(rng, shape, dtype, fill):
    """Pooling input; `relu` and `ties` give tied maxima, `nan`/`inf` non-finite entries."""
    if fill == "ties":
        return rng.integers(-2, 3, shape).astype(dtype)
    x = rng.standard_normal(shape)
    if fill == "relu":
        x = np.maximum(x, 0)
    elif fill == "nan":
        x[rng.random(shape) < 0.2] = np.nan
    elif fill == "inf":
        x[rng.random(shape) < 0.4] = -np.inf
        x[rng.random(shape) < 0.1] = np.inf
    return x.astype(dtype)


def assert_same_bits(got, want):
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@seed(20240817)
@settings(max_examples=80, deadline=None, database=None)
@given(case=pool_cases())
@example(case=((2, 3, 8, 8), 3, 1, np.float32, "relu", 1))  # overlapping windows
@example(case=((1, 2, 9, 7), 3, 2, np.float64, "nan", 2))  # overlapping, stride 2
@example(case=((2, 2, 27, 27), 2, 2, np.float32, "inf", 3))  # odd size: last row/column unused
@example(case=((2, 2, 27, 27), 2, 2, np.float64, "ties", 4))
def test_max_pool_matches_loop_reference_bit_for_bit(case):
    shape, kernel, stride, dtype, fill, draw_seed = case
    rng = np.random.default_rng(draw_seed)
    x = pool_input(rng, shape, dtype, fill)
    out = max_pool2d(x, kernel, stride)
    assert_same_bits(out, naive_max_pool2d(x, kernel, stride))
    assert out.flags.c_contiguous
    # dyadic gradients sum exactly in any order, so overlapping windows
    # can be compared bit for bit too
    g = (rng.integers(-8, 9, out.shape) / 4).astype(dtype)
    assert_same_bits(
        max_pool2d_backward(g, x, out, kernel, stride), naive_max_pool2d_backward(g, x, kernel, stride)
    )
