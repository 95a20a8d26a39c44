"""2-D multi-channel spatial correlation, its adjoints, and pooling.

The forward pass lowers input patches to a column tensor (a strided
view, copied once inside the GEMM) so both the tied-filter layers and
the map-rotating reference path share one kernel. It lowers the batch
in blocks: the output is allocated once, and each block of images is
one `np.tensordot` of the filters with that block's patch view,
written into its slice of the output. A block's patch columns stay
within `_COLS_BYTES` (16 MiB), so the patch matrix is bounded whatever
the batch size (Cho & Brand 2017, "MEC", on the lowering's memory
overhead). On a 256x20x26x26 float32 input with 20 3x3 filters the
whole-batch matrix is 106 MB and the call's traced peak 118 MB;
blocked, the peak is 30.6 MB. A batch whose columns fit the budget is
one block, exactly the unblocked call.

Why each block stays a `tensordot`: its reshape of the patch view is
the same as the unblocked call's, so BLAS sees the same operand
layout. For a 1x1 output (the 4x4 decycle head) that reshape is a
view and BLAS runs a transposed-operand GEMM; copying the block to a
contiguous matrix first changed that layer's float32 output by up to
6.3e-7 relative at batch 64.

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
with the spread gradient, so at most one kernel row's columns exist at
once and peak memory stays at the forward's patch matrix; the
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


# Patch-column budget of one forward GEMM; see the module docstring.
_COLS_BYTES = 1 << 24


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
    out = np.empty((n, w.shape[0], oh, ow), dtype=np.result_type(w, xp))
    most = max(1, _COLS_BYTES // (c * kh * kw * oh * ow * xp.itemsize))
    parts = max(1, -(-n // most))
    bounds = [k * n // parts for k in range(parts + 1)]  # sizes differ by at most one
    for lo, hi in zip(bounds, bounds[1:]):
        block = np.tensordot(w, patches[lo:hi], axes=([1, 2, 3], [1, 2, 3]))
        out[lo:hi] = block.transpose(1, 0, 2, 3)
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
    # both GEMM operands contiguous: g2 is (o, n*oh*ow), cols is (c*kh*kw, n*oh*ow)
    g2 = np.ascontiguousarray(grad_out.transpose(1, 0, 2, 3)).reshape(o, n * oh * ow)
    cols = _patches(xp, kh, kw, s).transpose(1, 2, 3, 0, 4, 5)
    cols = np.ascontiguousarray(cols).reshape(c * kh * kw, n * oh * ow)
    grad_w = (g2 @ cols.T).reshape(o, c, kh, kw)
    if not input_grad:
        return None, grad_w
    del cols  # before col2im, so only one patch matrix is ever alive

    # col2im as flat shifts (module docstring): the gradient dilated by
    # the stride and padded to the input's (H, W), each channel's batch
    # one flat run, then one contiguous add per kernel offset
    hp, wp = xp.shape[2:]
    size = c * n * hp * wp
    gd = np.zeros((o, n, hp, wp), dtype=g2.dtype)
    gd[:, :, : (oh - 1) * s + 1 : s, : (ow - 1) * s + 1 : s] = g2.reshape(o, n, oh, ow)
    gd = gd.reshape(o, n * hp * wp)
    del g2
    wt = np.ascontiguousarray(w.transpose(2, 3, 1, 0))  # (kh, kw, c, o)
    acc = np.zeros(size + (kh - 1) * wp + kw - 1, dtype=xp.dtype)
    for u in range(kh):
        rows = (wt[u].reshape(kw * c, o) @ gd).reshape(kw, size)
        for v in range(kw):
            shift = u * wp + v
            acc[shift : shift + size] += rows[v]
    grad_xp = acc[:size].reshape(c, n, hp, wp)[:, :, pad : hp - pad, pad : wp - pad]
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
