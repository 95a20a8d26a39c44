"""2-D multi-channel spatial correlation, its adjoints, and pooling.

The forward pass lowers input patches to a column matrix and multiplies
it by the (o, c*kh*kw) filter matrix, so both the tied-filter layers
and the map-rotating reference path share one kernel. It lowers the
batch in blocks: the output is allocated once, and each block of
images is copied into one column buffer, multiplied into one result
buffer (`np.matmul` with `out=`) and written, transposed, into its
slice of the output. Both buffers are allocated once per call, sized
for the largest block. A block's patch columns stay within
`_COLS_BYTES` (16 MiB), so the lowering is bounded whatever the batch
size (Cho & Brand 2017, "MEC", on the lowering's memory overhead). On
a 256x20x26x26 float32 input with 20 3x3 filters the whole-batch
matrix is 106 MB and the call's traced peak was 118 MB; blocked, the
peak is 30.3 MB. A batch whose columns fit the budget is one block.

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
and only its column in the GEMM moves. OpenBLAS rounds an entry the
same wherever its column lies on full column blocks (see the input
gradient below): on every preset layer, in both precisions, at
batches 8, 16, 32, 50, 64 and 256, the output matches the per-row
lowering bit for bit. At batches of 7 or fewer the GEMMs of the
small layers (the 12-, 8- and 6-px layers of the z2cnn family, and at
batch 1 the last 3x3 layer of dren-small and cnn-small) fall under
OpenBLAS's small-matrix kernel, where the wider matrix rounds
differently: by up to 4.8e-7 relative in float32 and 6.5e-16 in
float64 per layer.

Why only the overhang is zeroed: the columns between output rows hold
input values, finite wherever the input is, and their products land
in dropped columns. The run of the last output row ends at its
image's last entry, so the W - ow columns after it are never copied
into. They are zeroed once per call: left as they were allocated, they
could hold an Inf whose product with a zero weight sets numpy's
invalid-value flag, and reading them from the input instead would run
into the next image or past the array.

Why strided layers keep per-row copies: at stride s > 1 an output row
reads every s-th entry of an input row, which no contiguous run holds.
Those layers, and inputs whose (H, W) plane is not one flat run (a
transposed view, say, with no padding to copy it), copy one run of ow
entries per output row into the same buffer: the operand `tensordot`
built, with the same layout.

Why 1x1 outputs (the 4x4 decycle head) keep `tensordot`'s operand,
`patches.transpose(1, 2, 3, 0, 4, 5).reshape(c*kh*kw, n)`: when the
window covers the whole padded image, that reshape is a view and BLAS
runs a transposed-operand GEMM. Copying the block to a contiguous
matrix first changed that layer's output at batch 64 by up to 5.1e-7
relative in float32 and 1.1e-15 in float64. A partial window's reshape
is the same C-order copy `tensordot` made; a transposed view of an
(n, c*kh*kw) copy instead changed a 6-px k5 stride-3 head by up to
5.7e-7 in float32 and 9.6e-16 in float64.

Why the blocks are near-equal: a lone small remainder block can fall
under OpenBLAS's small-matrix GEMM threshold (about 1e6
multiply-adds), whose kernel rounds differently from the one the
unblocked call used. Splitting into as few blocks as the budget allows,
with sizes differing by at most one image, keeps every block at half
the budget or more; on every preset layer, in both precisions, the
output is then bit-identical to the unblocked call's.

Why 16 MiB: a 4 MiB budget made the z2cnn-shape forward at batch 64
21-26% slower. Once no large temporary is freed any more, glibc's
dynamic mmap and trim thresholds stay low, so each 3.5 MB activation
is returned to the OS and faulted in again on its next allocation.
Pinning MALLOC_MMAP_THRESHOLD_ and MALLOC_TRIM_THRESHOLD_ removed the
slowdown; 16 MiB removes it with no allocator setting.

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

Both backward GEMMs stay within the forward's `_COLS_BYTES`, blocked
by input channel with the forward's rule (as few blocks as the budget
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
The backward pass recomputes the maxima the same way and routes each
window's gradient to its first row-major maximum with a running "taken"
mask, so no k^2-sized copy or argmax index array is built.
"""

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


# Operand budget of one lowering GEMM, forward or backward; see the module docstring.
_COLS_BYTES = 1 << 24


def _block_bounds(count: int, item_bytes: int) -> list:
    """(lo, hi) of as few blocks of `count` items, `item_bytes` each, as keep
    every block within `_COLS_BYTES`; block sizes differ by at most one."""
    most = max(1, _COLS_BYTES // item_bytes)
    parts = max(1, -(-count // most))
    return [(k * count // parts, (k + 1) * count // parts) for k in range(parts)]


def correlate2d(x: np.ndarray, w: np.ndarray, geom: ConvGeometry = ConvGeometry()) -> np.ndarray:
    """Valid cross-correlation of x (n,c,h,w) with filters w (o,c,kh,kw).

    out[n,o,p,q] = sum_{c,u,v} w[o,c,u,v] * x_pad[n,c, p*stride+u, q*stride+v]
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
    out = np.empty((n, o, oh, ow), dtype=np.result_type(w, xp))
    w2 = w.reshape(o, k).astype(out.dtype, copy=False)
    # row runs (module docstring) need stride 1 and each (h, w) plane one
    # flat run; `width` is the GEMM's column count per output row
    head = oh == ow == 1
    rows = geom.stride == 1 and xp.strides[2] == wp * xp.strides[3] and not head
    width = wp if rows else ow
    run, span = (oh - 1) * wp + ow, oh * width
    if rows:  # (c, kh, kw, n, run): the run of row (channel, u, v) in each image
        s0, s1, s2, s3 = xp.strides
        runs = np.lib.stride_tricks.as_strided(xp, (c, kh, kw, n, run), (s1, s2, s3, s0, s3), writeable=False)
    bounds = _block_bounds(n, k * oh * ow * xp.itemsize)
    most = max(hi - lo for lo, hi in bounds)
    res = np.empty((o, most * span), dtype=out.dtype)
    if not head:
        cols = np.empty((c, kh, kw, most, oh, width), dtype=out.dtype)
        flat = cols.reshape(c, kh, kw, most, span)
        if rows:
            flat[..., run:] = 0  # the last output row's overhang, which no copy writes
    for lo, hi in bounds:
        b = hi - lo
        per_row = patches[lo:hi].transpose(1, 2, 3, 0, 4, 5)  # (c, kh, kw, b, oh, ow)
        if head:  # tensordot's operand: a view when the window covers the image
            lowered = per_row.reshape(k, b)
        else:
            if rows:
                np.copyto(flat[:, :, :, :b, :run], runs[:, :, :, lo:hi])
            else:
                np.copyto(cols[:, :, :, :b], per_row)
            lowered = flat.reshape(k, most, span)[:, :b].reshape(k, b * span)
        block = np.matmul(w2, lowered, out=res[:, : b * span])
        out[lo:hi] = block.reshape(o, b, oh, width)[..., :ow].transpose(1, 0, 2, 3)
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


def _pool_max(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    # the backward pass calls this rather than max_pool2d, so a profiler
    # that wraps max_pool2d counts one call per forward
    windows = _pool_windows(x.shape, kernel, stride)
    out = x[next(windows)].copy()
    for win in windows:
        np.maximum(out, x[win], out=out)
    return out


def max_pool2d(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Windowed spatial maximum per channel; NaN wins its window."""
    return _pool_max(x, kernel, stride)


def max_pool2d_backward(grad_out: np.ndarray, x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Route pooled gradients to the first (row-major) maximum of each window.

    A NaN counts as its window's maximum, as it does for argmax. The
    maxima are recomputed here, so the forward keeps no pooled output.
    """
    out = _pool_max(x, kernel, stride)
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
