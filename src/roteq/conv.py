"""2-D multi-channel spatial correlation, its adjoints, and pooling.

The forward pass lowers input patches to a column matrix and multiplies
it by the (o, c*kh*kw) filter matrix, so both the tied-filter layers
and the map-rotating reference path share one kernel. It lowers the
batch in cache-sized blocks: the output is allocated once, and each
block of images is lowered to one column matrix, multiplied into one
result buffer (`np.matmul` with `out=`) and written, transposed, into
its slice of the output. A block's column matrix and GEMM result
together stay within `_FORWARD_BYTES` (4 MiB); the budget counts the
columns as allocated, the padded width W per output row for row runs
and ow otherwise, so the lowering is bounded whatever the batch size
(Cho & Brand 2017, "MEC", on the lowering's memory overhead; Goto &
van de Geijn 2008 on sizing a GEMM's blocks for the cache). The column
buffer that row runs (below) copy into and the result buffer come from
a per-thread workspace that the next call reuses (see "Why 4 MiB"
below); every other correlation multiplies `tensordot`'s own operand,
built per block and released before the next block's. On a
256x20x26x26 float32 input with 20 3x3 filters the whole-batch matrix
is 106 MB and the call's traced peak was 118 MB; in 32 blocks of 8
images the peak is 15.8 MB, the 4.0 MB workspace included. A batch
whose block fits the budget is one block.

Row runs (stride 1): row (channel, u, v) of a block's column matrix
holds, per image, one contiguous run of the padded (H, W) plane read
as a flat array: the (oh-1)*W + ow entries from offset u*W + v on,
copied through one `as_strided` view. Output entry (p, q) reads entry
p*W + q of the run, x_pad[p+u, q+v], so the matrix's columns run along
the padded width W instead of ow. Each output row gets W - ow extra
columns, which wrap onto the next input row; the GEMM computes them
and the write into the output drops them. On that 26-px layer at batch
256, a copy of 180*256 runs of 622 floats replaces one of 180*256*24
runs of 24: the copy alone went from 13.7-15.3 to 7.8-8.5 ms, and the
whole call, with its buffers reused, from 44-48 to 25-26 ms (2 vCPUs,
OpenBLAS 0.3.31).

Why kept entries are bit-identical: each is still the dot product of
the same filter row with the same c*kh*kw inputs in the same order,
and only its column in the GEMM moves. OpenBLAS running on 2 or more
threads rounds an entry the same wherever its column lies on full
column blocks (see the input gradient below): with 2 and 4 BLAS
threads, on every preset layer, in both precisions, at batches 8, 16,
32, 50, 64 and 256, the output matches `tensordot`'s lowering bit for
bit. On 1 BLAS thread it holds in float32 only: in float64, on the
12-, 13-, 24- and 26-px layers of the presets at batches 64 and 256,
tens to thousands of entries of a layer round differently, by up to
6.5e-16 of its largest output. At batches of 7 or fewer the GEMMs of
the small layers (the 12-, 8- and 6-px layers of the z2cnn family, and at
batch 1 the last 3x3 layer of dren-small and cnn-small) fall under
OpenBLAS's small-matrix kernel, where the wider matrix rounds
differently: by up to 4.8e-7 relative in float32 and 6.5e-16 in
float64 per layer.

Why only the overhang is zeroed: the columns between output rows hold
input values, finite wherever the input is, and their products land
in dropped columns. The run of the last output row ends at its
image's last entry, so the W - ow columns after it are never copied
into. They are zeroed once per call: left as an earlier call or the
allocator left them, they could hold an Inf whose product with a zero
weight sets numpy's invalid-value flag, and reading them from the
input instead would run into the next image or past the array.

Why every other correlation multiplies `tensordot`'s operand,
`patches.transpose(1, 2, 3, 0, 4, 5).reshape(c*kh*kw, n*oh*ow)`: row
runs need stride 1, a (H, W) plane that is one flat run, and more than
one output entry. At stride s > 1 an output row reads every s-th entry
of an input row, which no contiguous run holds; row runs with element
step s would give each output row W GEMM columns, about s times the ow
kept, and made stride-2 calls 1.3-1.8x slower. For those layers, and
for inputs whose plane is not one flat run (a transposed view, say,
with no padding to copy it), the reshape is numpy's C-order copy,
which is exactly the operand `tensordot` builds. For a 1x1 output (the
4x4 decycle head) whose window covers the whole padded image, the
reshape is a view and BLAS runs a transposed-operand GEMM. Copying
that block to a contiguous matrix first changed the head's output at
batch 64 by up to 5.1e-7 relative in float32 and 1.1e-15 in float64,
and a transposed view of an (n, c*kh*kw) copy changed a 6-px k5
stride-3 head by up to 5.7e-7 in float32 and 9.6e-16 in float64, so
the operand stays `tensordot`'s wherever row runs do not apply.

Why the blocks are near-equal: a lone small remainder block can fall
under OpenBLAS's small-matrix GEMM threshold (about 1e6
multiply-adds), whose kernel rounds differently from the one the
unblocked call used. Splitting into as few blocks as the budget allows,
with sizes differing by at most one image, keeps every block at half
the budget or more; on every preset layer, in both precisions, the
output is then bit-identical to the unblocked call's.

Why 4 MiB, in a reused workspace: a block's columns are written by
the copy and read straight back by the GEMM, and at 4 MiB (the L2 of
the 2-vCPU Xeon these figures come from is 2 x 2 MiB) they are still
in cache when BLAS reads them; 16 MiB blocks streamed them back from
memory. Small blocks alone are not enough. Allocated per call, they
are the largest temporaries freed, so glibc's dynamic mmap and trim
thresholds stay low, and each activation of a few MB is returned to the
OS and faulted in again on its next allocation: a 4 MiB budget with
per-call buffers made the z2cnn-shape forward at batch 64 21-26%
slower (pinning MALLOC_MMAP_THRESHOLD_ and MALLOC_TRIM_THRESHOLD_
removed that). The workspace takes the allocator out of it:
`_workspace_bytes` keeps one flat byte buffer per thread
(`threading.local`), grown to the largest block the thread has needed
and so never past `_FORWARD_BYTES`, and each call takes its column and
result buffers from it instead of freeing them. A block whose one
image alone exceeds the budget gets its own buffer, freed with the
call. Outputs are fresh arrays, never views of the workspace, which
the next call overwrites; each thread lowers into its own, so calls
made at once give the bytes of calls made in turn. On dren-z2cnn-shape's
batch-256 eval forward (float32, 2 vCPUs, OpenBLAS 0.3.31, interleaved
runs, medians of 30) 16 MiB blocks in per-call buffers took 115-153 ms
and 2,000-2,600 minor faults per forward; 4 MiB blocks with the
workspace took 65-78 ms and none, against 79-91 ms at 2 MiB and
65-98 ms at 8 MiB.

Why the backward keeps 16 MiB (`_COLS_BYTES`) and per-call buffers: each
of its column blocks meets the whole (o, n*oh*ow) output gradient in
its GEMM, so smaller blocks stream that operand once more per block.
At 4 MiB, `train-dren` ran 3-6% slower in 3 of 3 interleaved pairs,
though its traced peak fell from 29.2 to 22.4 MB.

The epilogue: an `Epilogue` hands `correlate2d` a max pool, a bias of
one value per output channel and a ReLU, which it finishes on each
block's GEMM result before the write, while the block is still in
cache. An eval-mode `network.forward` gives each conv-like layer the
ReLU and max pool after it, and the bias of a batch norm folded into
its filters, so no full-resolution map before a pool is stored and no
pass over the whole output runs for them. A block pools first, with
one `max_pool2d` call over its (o, b, oh, ow) view, then adds the bias
and applies the ReLU in place over one contiguous array: the pooled
block, or without a pool the whole GEMM result, whose dropped columns
hold finite values wherever the input is (see the overhang below). On
dren-z2cnn-shape at batch 256 (float32) the 26-px layer's 11.8 MB
output before its pool gives way to its 2.9 MB pooled one, and the eval
forward's traced peak went from 44.1 to 35.7 MB.

Why pooling first is exact: rounding is monotone, so for a finite
bias b, fl(max(x, y) + b) = max(fl(x + b), fl(y + b)), and max(., 0)
commutes with a window's maximum as well; pool, bias, ReLU gives the
value that bias, ReLU, pool gives, bit for bit. A NaN wins its window
(`max_pool2d`) and stays NaN under the bias and the ReLU, in either
order. The only equal values a maximum can tell apart are +0 and -0.
The ReLU maps both to +0 (numpy's maximum(-0.0, 0) is +0), and so does
adding a bias b != 0 map both to b, or b = +0 map both to +0; adding
-0 changes no value at all, so either order keeps the same zero.

The backward pass is two GEMMs over contiguous operands (unrolled
convolution, Chellapilla et al. 2006). With the output gradient laid
out as an (o, n*oh*ow) matrix, the filter gradient is that matrix
times the transposed patch columns. The input gradient is the filter
bank times it, scattered back over the patch windows (col2im) as flat
shifts, the row-shift idea of MEC. The output gradient is first spread
over the padded input's (H, W) grid: entry (p, q) goes to (p*s, q*s)
for stride s, every other position is zero. In the accumulator's flat
(c, n, H, W) order, kernel offset (u, v) moves every entry u*W + v
places on, so its whole scatter is one contiguous add of a GEMM row
block. Each kernel row u is one GEMM of the filters' (kw*c, o) slice
with the spread gradient, written into one preallocated buffer; the
accumulator's (kh-1)*W + kw - 1 spare entries take the last shifts'
overhang. A shift carries zeros across row, image and channel borders
but never a gradient entry, which lands at (p*s + u, q*s + v), inside
its own image. For finite filters a zero contributes +0 or -0, the
accumulator starts at +0 and so never holds -0, and adding a signed
zero leaves any other value as it was; each entry gets the same terms
in the same order as from a strided scatter of the unspread gradient.
On a 64x20x26x26 float32 input with 20 3x3 filters that scatter
walked 30,720 strided runs of 24 elements per offset; a shift is one
add over a single 865,280-element run, and the whole backward went
from 20-23 to 16-19 ms (2 vCPUs, OpenBLAS 0.3.31).

Both backward GEMMs stay within `_COLS_BYTES`, blocked by input
channel with the forward's rule (as few blocks as the budget
allows, sizes differing by at most one). The filter gradient copies
one block's (cb*kh*kw, n*oh*ow) patch columns at a time and fills that
block's columns of the gradient; col2im forms one block's (kw*cb, o)
products at a time, and their shifted adds land in the block's own
contiguous (cb, n, H, W) run of the accumulator. What a block's last
shifts carry past its last channel is zeros only, by the border
argument above, so the adds it makes into the next block's run change
nothing and their order does not matter. A channel block splits only
the output columns of each GEMM: every gradient entry is still one dot
product over all n*oh*ow (or all o) terms. Blocking by batch would
split the filter gradient's n*oh*ow reduction into partial sums and
change its rounding, so the batch is never blocked here. A layer whose
operands fit the budget runs as one block, exactly the unblocked GEMMs.
On dren-z2cnn-shape's 20->20 3x3 layer at 26x26 (float32) the
backward's traced peak went from 29.5 to 17.3 MB at batch 64 and from
118.0 to 42.3 MB at batch 256, and a batch-64 train step of that preset
from 52.2 to 40.1 MB. Its time did not move: 18-21 ms at batch 64
either way, in interleaved runs (2 vCPUs, OpenBLAS 0.3.31). The filter gradient and the
input gradient are bit-identical to the one-block call's on every
preset layer under a 2 MiB budget; budgets far below 1 MiB leave
blocks of a channel or two, whose GEMMs go to OpenBLAS's small-matrix
and gemv kernels and round differently, as in the forward.

The input gradient is bit-identical to that scatter's wherever BLAS
rounds a GEMM entry the same whatever its column's position. OpenBLAS
does so on full 8-column blocks, so at a batch that is a multiple of
8 (every preset layer, every benchmark batch) the results match. A
trailing partial block rounds its own way in some shapes, and a
one-column product goes to gemv; the spread moves entries into and out
of those, and there the two differ by an ulp or so. Every sum runs in
a fixed order, so repeated runs are bitwise reproducible. Below the
lowest trainable layer no input gradient is needed, and
`input_grad=False` skips the col2im stage.

Max pooling is k^2 elementwise maxima: one (n, c, oh, ow) strided view
per kernel offset, folded into the output with `np.maximum`. Reducing
the two inner axes of the 6-D patch view instead walks memory with
short, widely strided inner loops; on a 256x20x26x26 float32 input
with 2x2 windows that took 110.8 ms against 4.5 ms for the offset loop.
The backward pass takes the forward's pooled output instead of pooling
again, and routes each window's gradient to its first row-major maximum
of it (a NaN winning its window) with a running "taken" mask, so no
k^2-sized copy or argmax index array is built. Keeping that output costs
no memory in any preset, as the conv-like layer after each pool caches
the same array as its input; after a layer that caches no input (relu,
say), a pool holds |x|/k^2 more until its backward.
"""

import threading
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConvGeometry:
    """Stride and symmetric zero padding for a correlation."""

    stride: int = 1
    pad: int = 0

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError(f"stride must be positive, got {self.stride}")
        if self.pad < 0:
            raise ValueError(f"pad must be non-negative, got {self.pad}")


def output_size(size: int, kernel: int, stride: int = 1, pad: int = 0) -> int:
    """Spatial output size floor((size + 2*pad - kernel)/stride) + 1."""
    if kernel < 1 or stride < 1:
        raise ValueError(f"kernel and stride must be positive, got kernel {kernel}, stride {stride}")
    out = (size + 2 * pad - kernel) // stride + 1
    if out < 1:
        raise ValueError(
            f"kernel {kernel} with stride {stride} does not fit input {size} (pad {pad})"
        )
    return out


def stride_preserves_equivariance(input_size: int, stride: int, kernel_size: int) -> bool:
    """True iff input_size = k*stride + kernel_size for some integer k >= 0.

    Strided windows then tile the image edge to edge, which is exactly
    the condition under which a quarter-turn of the input commutes with
    the strided correlation.
    """
    if input_size < 1 or stride < 1 or kernel_size < 1:
        raise ValueError("all sizes must be positive")
    return input_size >= kernel_size and (input_size - kernel_size) % stride == 0


def _pad_spatial(x: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))


def _patches(xp: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Strided view (n, c, kh, kw, oh, ow) over a padded input. Read-only."""
    n, c, h, w = xp.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    s0, s1, s2, s3 = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, (n, c, kh, kw, oh, ow), (s0, s1, s2, s3, s2 * stride, s3 * stride), writeable=False
    )


# Budget of one forward block's patch columns and GEMM result, and of the
# per-thread workspace that holds them; see the module docstring.
_FORWARD_BYTES = 1 << 22
# Operand budget of one backward GEMM; see the module docstring.
_COLS_BYTES = 1 << 24

_workspace = threading.local()


def _block_bounds(count: int, item_bytes: int, budget: int | None = None) -> list:
    """(lo, hi) of as few blocks of `count` items, `item_bytes` each, as keep
    every block within `budget` (default `_COLS_BYTES`); block sizes differ
    by at most one."""
    most = max(1, (_COLS_BYTES if budget is None else budget) // item_bytes)
    parts = max(1, -(-count // most))
    return [(k * count // parts, (k + 1) * count // parts) for k in range(parts)]


def _workspace_bytes(nbytes: int) -> np.ndarray:
    """`nbytes` uint8 scratch bytes from this thread's forward workspace,
    grown to fit and kept for the thread's next call; a request past
    `_FORWARD_BYTES` (one image over the budget) gets its own array."""
    if nbytes > _FORWARD_BYTES:
        return np.empty(nbytes, dtype=np.uint8)
    buf = getattr(_workspace, "buf", None)
    if buf is None or buf.nbytes < nbytes:
        buf = _workspace.buf = np.empty(nbytes, dtype=np.uint8)
    return buf[:nbytes]


@dataclass(frozen=True, eq=False)
class Epilogue:
    """What `correlate2d` finishes on each block of its output before writing
    it (module docstring): a max pool of `pool` = (kernel, stride) first,
    then a `bias` of one value per output channel, then a ReLU."""

    pool: tuple | None = None
    bias: np.ndarray | None = None
    relu: bool = False


def _finish(block: np.ndarray, maps: np.ndarray, epilogue: Epilogue) -> np.ndarray:
    """The (o, b, oh, ow) `maps` view of a GEMM result `block` (o, b*span)
    after `epilogue`; the bias and ReLU run in place over one contiguous
    array, the pooled maps or else the whole block."""
    if epilogue.pool is not None:
        maps = max_pool2d(maps, *epilogue.pool)
        block = maps.reshape(maps.shape[0], -1)
    if epilogue.bias is not None:
        block += epilogue.bias.reshape(-1, 1)
    if epilogue.relu:
        np.maximum(block, 0, out=block)
    return maps


def correlate2d(
    x: np.ndarray, w: np.ndarray, geom: ConvGeometry = ConvGeometry(), *, epilogue: Epilogue = Epilogue()
) -> np.ndarray:
    """Valid cross-correlation of x (n,c,h,w) with filters w (o,c,kh,kw).

    out[n,o,p,q] = sum_{c,u,v} w[o,c,u,v] * x_pad[n,c, p*stride+u, q*stride+v],
    with `epilogue`'s steps applied to it; a pooled output is (n, o, ph, pw).
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError(f"expected rank-4 input and filters, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ValueError(f"input has {x.shape[1]} channels but filters expect {w.shape[1]}")
    kh, kw = w.shape[2], w.shape[3]
    output_size(x.shape[2], kh, geom.stride, geom.pad)
    output_size(x.shape[3], kw, geom.stride, geom.pad)
    xp = _pad_spatial(x, geom.pad)
    patches = _patches(xp, kh, kw, geom.stride)
    n, c, _, _, oh, ow = patches.shape
    o, k, wp = w.shape[0], c * kh * kw, xp.shape[3]
    ph, pw = oh, ow
    if epilogue.pool is not None:
        ph, pw = output_size(oh, *epilogue.pool), output_size(ow, *epilogue.pool)
    out = np.empty((n, o, ph, pw), dtype=np.result_type(w, xp))
    w2 = w.reshape(o, k).astype(out.dtype, copy=False)
    # row runs (module docstring) need stride 1, each (h, w) plane one flat
    # run and more than one output entry; `width` is the GEMM's column
    # count per output row
    rows = geom.stride == 1 and xp.strides[2] == wp * xp.strides[3] and oh * ow > 1
    width = wp if rows else ow
    run, span = (oh - 1) * wp + ow, oh * width
    bounds = _block_bounds(n, (k + o) * span * out.itemsize, _FORWARD_BYTES)
    most = max(hi - lo for lo, hi in bounds)
    # the workspace holds the row-run columns, if any, then the result
    cols_bytes = k * most * span * out.itemsize if rows else 0
    scratch = _workspace_bytes(cols_bytes + o * most * span * out.itemsize)
    res = scratch[cols_bytes:].view(out.dtype).reshape(o, most * span)
    if rows:  # (c, kh, kw, n, run): the run of row (channel, u, v) in each image
        s0, s1, s2, s3 = xp.strides
        runs = np.lib.stride_tricks.as_strided(xp, (c, kh, kw, n, run), (s1, s2, s3, s0, s3), writeable=False)
        cols = scratch[:cols_bytes].view(out.dtype).reshape(c, kh, kw, most, span)
        cols[..., run:] = 0  # the last output row's overhang, which no copy writes
    for lo, hi in bounds:
        b = hi - lo
        if rows:
            np.copyto(cols[:, :, :, :b, :run], runs[:, :, :, lo:hi])
            lowered = cols.reshape(k, most, span)[:, :b].reshape(k, b * span)
        else:  # tensordot's operand: a view when the window covers the image
            lowered = patches[lo:hi].transpose(1, 2, 3, 0, 4, 5).reshape(k, b * span)
        block = np.matmul(w2, lowered, out=res[:, : b * span])
        del lowered  # before the next block's operand is built
        out[lo:hi] = _finish(block, block.reshape(o, b, oh, width)[..., :ow], epilogue).transpose(1, 0, 2, 3)
    return out


def correlate2d_backward(
    grad_out: np.ndarray,
    x: np.ndarray,
    w: np.ndarray,
    geom: ConvGeometry = ConvGeometry(),
    *,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Adjoints of correlate2d: gradients w.r.t. the input and the filters.

    With `input_grad=False` the input gradient is not formed and is
    returned as None.
    """
    kh, kw = w.shape[2], w.shape[3]
    oh = output_size(x.shape[2], kh, geom.stride, geom.pad)
    ow = output_size(x.shape[3], kw, geom.stride, geom.pad)
    expected = (x.shape[0], w.shape[0], oh, ow)
    if grad_out.shape != expected:
        raise ValueError(f"grad_out shape {grad_out.shape} does not match forward output {expected}")

    o, c = w.shape[0], w.shape[1]
    n, s, pad = x.shape[0], geom.stride, geom.pad
    xp = _pad_spatial(x, pad)
    # both GEMM operands contiguous: g2 is (o, n*oh*ow), a block's cols (cb*kh*kw, n*oh*ow)
    g2 = np.ascontiguousarray(grad_out.transpose(1, 0, 2, 3)).reshape(o, n * oh * ow)
    patches = _patches(xp, kh, kw, s).transpose(1, 2, 3, 0, 4, 5)
    grad_w = np.empty((o, c * kh * kw), dtype=np.result_type(g2, xp))
    for lo, hi in _block_bounds(c, kh * kw * n * oh * ow * xp.itemsize):
        cols = np.ascontiguousarray(patches[lo:hi]).reshape((hi - lo) * kh * kw, n * oh * ow)
        grad_w[:, lo * kh * kw : hi * kh * kw] = g2 @ cols.T
        del cols  # before the next block's copy, so only one block is ever alive
    grad_w = grad_w.reshape(o, c, kh, kw)
    if not input_grad:
        return None, grad_w

    # col2im as flat shifts (module docstring): the gradient dilated by
    # the stride and padded to the input's (H, W), each channel's batch
    # one flat run, then one contiguous add per kernel offset
    hp, wp = xp.shape[2:]
    run = n * hp * wp  # one channel's flat run in acc
    gd = np.zeros((o, n, hp, wp), dtype=g2.dtype)
    gd[:, :, : (oh - 1) * s + 1 : s, : (ow - 1) * s + 1 : s] = g2.reshape(o, n, oh, ow)
    gd = gd.reshape(o, run)
    del g2
    acc = np.zeros(c * run + (kh - 1) * wp + kw - 1, dtype=xp.dtype)
    blocks = _block_bounds(c, kw * run * gd.itemsize)
    rows = np.empty((kw * max(hi - lo for lo, hi in blocks), run), dtype=np.result_type(w, gd))
    for lo, hi in blocks:
        size = (hi - lo) * run
        wt = np.ascontiguousarray(w[:, lo:hi].transpose(2, 3, 1, 0))  # (kh, kw, cb, o)
        for u in range(kh):
            prod = np.matmul(wt[u].reshape(kw * (hi - lo), o), gd, out=rows[: kw * (hi - lo)])
            prod = prod.reshape(kw, size)
            for v in range(kw):
                shift = lo * run + u * wp + v
                acc[shift : shift + size] += prod[v]
    del rows, prod, gd  # before the transposed copy, so they never coexist with it
    grad_xp = acc[: c * run].reshape(c, n, hp, wp)[:, :, pad : hp - pad, pad : wp - pad]
    return np.ascontiguousarray(grad_xp.transpose(1, 0, 2, 3)), grad_w


def _pool_windows(shape: tuple, kernel: int, stride: int):
    """Index of each kernel offset's (n, c, oh, ow) strided view, in row-major offset order."""
    oh = output_size(shape[2], kernel, stride)
    ow = output_size(shape[3], kernel, stride)
    for u in range(kernel):
        for v in range(kernel):
            yield (Ellipsis, slice(u, u + oh * stride, stride), slice(v, v + ow * stride, stride))


def max_pool2d(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Windowed spatial maximum per channel; NaN wins its window.

    A window whose maximum is zero and that holds both +0 and -0 returns
    its last zero in row-major order: the offsets fold in that order, and
    `np.maximum` returns its second operand when the two compare equal
    (numpy 2.4, float32 and float64, on every array size tried).
    """
    windows = _pool_windows(x.shape, kernel, stride)
    out = x[next(windows)].copy()
    for win in windows:
        np.maximum(out, x[win], out=out)
    return out


def max_pool2d_backward(grad_out: np.ndarray, x: np.ndarray, out: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Route pooled gradients to the first (row-major) maximum of each window.

    `out` is the forward's `max_pool2d(x, kernel, stride)`. A NaN counts
    as its window's maximum, as it does for argmax.
    """
    expected = (*x.shape[:2], output_size(x.shape[2], kernel, stride), output_size(x.shape[3], kernel, stride))
    if grad_out.shape != expected or out.shape != expected:
        raise ValueError(f"grad_out {grad_out.shape} and pooled output {out.shape} must both be {expected}")
    taken = np.zeros(out.shape, dtype=bool)
    grad_x = np.zeros_like(x)
    for win in _pool_windows(x.shape, kernel, stride):
        view = x[win]
        hit = view == out
        hit |= np.isnan(view)
        hit &= ~taken
        taken |= hit
        grad_x[win] += grad_out * hit
    return grad_x
