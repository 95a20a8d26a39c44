"""2-D multi-channel spatial correlation, its adjoints, and pooling.

The forward pass lowers input patches to a column matrix and multiplies
it by the (o, c*kh*kw) filter matrix, so both the tied-filter layers
and the map-rotating reference path share one kernel. It lowers the
batch in blocks of images: the output is allocated once, and each block
is lowered to one column matrix, multiplied into one result buffer
(`np.matmul` with `out=`) and written, transposed, into its slice of the
output. A block's column matrix and GEMM result together stay within
`_BLOCK_BYTES` (4 MiB); the budget counts the columns as allocated, the
padded width W per output row for row runs and ow otherwise, so the
lowering is bounded whatever the batch size (Cho & Brand 2017, "MEC",
on the lowering's memory overhead; Goto & van de Geijn 2008 on sizing a
GEMM's blocks for the cache). A batch whose block fits the budget is
one block. The backward pass walks the batch the same way, within the
same budget, through the same lowering (`_Lowering`), and both passes
take their block buffers from a reused per-thread workspace (below).

Row runs (stride 1): row (channel, u, v) of a block's column matrix
holds, per image, one contiguous run of the padded (H, W) plane read
as a flat array: the (oh-1)*W + ow entries from offset u*W + v on,
copied through one `as_strided` view. Output entry (p, q) reads entry
p*W + q of the run, x_pad[p+u, q+v], so the matrix's columns run along
the padded width W instead of ow. Each output row gets W - ow extra
columns, which wrap onto the next input row; the GEMM computes them
and the write into the output drops them. The copy moves one long run
per image and matrix row instead of one short run per output row, which
pays most on the short rows of small layers (CHANGES.md has the runs
measured against copying `tensordot`'s operand into the workspace).

Why kept entries are bit-identical: each is still the dot product of
the same filter row with the same c*kh*kw inputs in the same order,
and only its column in the GEMM moves. OpenBLAS running on 2 or more
threads rounds an entry the same wherever its column lies on full
column blocks (see the input gradient below), so on every preset layer,
in both precisions, the output matches `tensordot`'s lowering bit for
bit. On 1 BLAS thread it holds in float32 only: in float64 some entries
of a layer round differently, by an ulp or so. (A wider matrix can also
cross OpenBLAS's small-matrix threshold; see `network.forward`.)

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
kept. For those layers, and for inputs whose plane is not one flat run
(a transposed view, say, with no padding to copy it), the reshape is
numpy's C-order copy, exactly the operand `tensordot` builds. For a 1x1
output whose window covers the whole padded image (the 4x4 decycle
head) it is a view, and BLAS runs a transposed-operand GEMM; any other
operand for such a head changed its output bits.

Why the blocks are near-equal: a lone small remainder block can fall
under OpenBLAS's small-matrix GEMM threshold, whose kernel rounds
differently from the one the unblocked call used. Splitting into as few
blocks as the budget allows, with sizes differing by at most one image
(`tensor.batch_chunks`), keeps every block at half the budget or more;
on every preset layer, in both precisions, the output is then
bit-identical to the unblocked call's.

Why 4 MiB, in a reused workspace: a block's columns are written by the
copy and read straight back by the GEMM, and a block that fits the L2
cache is still there when BLAS reads it, where larger blocks stream it
back from memory. Small blocks alone are not enough. Allocated per call,
they are the largest temporaries freed, so glibc's dynamic mmap and trim
thresholds stay low, and each activation above them is returned to the
OS and faulted in again on its next allocation. The workspace takes the
allocator out of it: `_workspace_bytes` keeps one flat byte buffer per
thread (`threading.local`), grown to the largest block the thread has
needed and so never past `_BLOCK_BYTES`, and each call of either pass
takes its block buffers from it instead of freeing them. The thread
drops its old buffer before it allocates a larger one, so the two are
not held together unless a caller still holds a view of the old one. A
block whose one image alone exceeds the budget gets its own buffer,
freed with the call. Outputs are fresh arrays, never views of the
workspace, which the next call overwrites; each thread lowers into its
own, so calls made at once give the bytes of calls made in turn
(CHANGES.md has the other budgets' times and page faults).

The epilogue: `correlate2d`'s keyword `epilogue` is a tuple of steps,
each a ReLU, a max pool or an affine (a scale a and a shift b per output
channel), that it runs in order on each block's GEMM result before the
write, while the block is still in cache. A pool is one `max_pool2d`
call over the block's (o, b, oh, ow) view; a ReLU or an affine runs in
place over one contiguous array: the last pool's output, or before any
pool the whole GEMM result, whose dropped columns hold finite values
wherever the input is (see the overhang above). They are the plain
steps' own elementwise operations (`np.maximum(x, 0)`, then x*a and + b,
as the batch norm's eval pass runs them), so each gives the plain step's
bytes. `network.forward`'s fusion rule says which layers a filter step
takes as its epilogue, and why a pool may run ahead of them.

The backward pass is two GEMMs per block of images (unrolled
convolution, Chellapilla et al. 2006), both halves walking the batch in
near-equal blocks within `_BLOCK_BYTES` and taking every block buffer
from the thread's workspace. Besides its two gradients a call allocates
only the padded input (for pad > 0, as the forward does) and arrays the
size of the filter bank. The filter half reads the input and finishes
before col2im writes its first block, so a caller done with the input
passes it as `out` and the input gradient is written over it.

The filter gradient: a block's columns are the forward's own lowering,
row runs where the forward takes them and otherwise the values of
`tensordot`'s operand, copied into the workspace. The block's output
gradient is laid out on the same columns, entry (p, q) of an image at
column p*width + q, with zeros in the W - ow overhang, whose columns
belong to no output entry. The block's partial gradient is that
(o, b*span) matrix times the transposed (c*kh*kw, b*span) columns, and
the partial products are added into the gradient in block order. A
block counts (c*kh*kw + o)*span entries per image, as the forward's
does. The overhang's columns multiply input values by zeros: for finite
inputs they add signed zeros only (a non-finite input there would add a
NaN, where the forward only drops it).

Why the filter gradient's bits differ from one GEMM's: each entry is a
sum over all n*oh*ow output positions. Blocked by batch, it is a sum of
one partial sum per block, and the padding below changes where BLAS
cuts the reduction, so it rounds otherwise than the one GEMM over the
whole batch did. It is no less accurate: against a float64 product, it
deviates no more than the one GEMM on the presets' layers (CHANGES.md).

Why the reduction grain: OpenBLAS cuts a GEMM's reduction into panels,
and its one-thread and threaded drivers split the last two panels
differently unless the reduction's length is a multiple of 32 or fits
one panel (OpenBLAS 0.3.31, SkylakeX kernels, both precisions). So each
block's b*span columns are padded with zero columns, in the columns and
in the laid-out gradient alike, up to a multiple of `_REDUCTION_GRAIN`
(32), and the block budget keeps room for them; without it, dren-small's
batch-32 train step ended in other parameter bits at 1 and 2 threads.

The input gradient (col2im) is the filter bank times the output
gradient, scattered back over the patch windows as flat shifts, the
row-shift idea of MEC. A block's output gradient is first spread over
the padded input's (H, W) grid: entry (p, q) goes to (p*s, q*s) for
stride s, every other position is zero. In the accumulator's flat
(c, b, H, W) order, kernel offset (u, v) moves every entry u*W + v
places on, so its whole scatter is one contiguous add of a GEMM row
block, where a strided scatter walks one short run per output row. Each
kernel row u is one GEMM of the filters' (kw*c, o) slice with the
spread gradient, written into one workspace buffer; the accumulator's
(kh-1)*W + kw - 1 spare entries take the last shifts' overhang. A shift
carries zeros across row, image and channel borders but never a
gradient entry, which lands at (p*s + u, q*s + v), inside its own
image. For finite filters a zero contributes +0 or -0, the accumulator
starts at +0 and so never holds -0, and adding a signed zero leaves any
other value as it was; each entry gets the same terms in the same order
as from a strided scatter of the unspread gradient. The block is then
written, transposed and unpadded, into the input gradient. A block
counts (kw*c + o + c)*H*W entries per image and the spare entries once;
the spread buffer is zeroed once per call, as every block writes the
same positions of it.

Why blocking keeps the input gradient's bits: each of its entries is a
sum over output channels and kernel offsets only, none over images, so
a batch block moves GEMM columns and splits no sum. The input gradient
is bit-identical to the strided scatter's wherever BLAS rounds a GEMM
entry the same whatever its column's position. OpenBLAS does so on
full 8-column blocks, so at a batch that is a multiple of 8 (every
preset layer, every benchmark batch) the results match. A trailing
partial block rounds its own way in some shapes, and a one-column
product goes to gemv; the spread moves entries into and out of those,
and there the two differ by an ulp or so, as do some float64 entries
on 1 BLAS thread, as the forward's do. Every sum runs in a fixed order,
so repeated runs are bitwise reproducible. Below the lowest trainable
layer no input gradient is needed, and `input_grad=False` skips the
col2im half.

Max pooling is k^2 elementwise maxima: one (n, c, oh, ow) strided view
per kernel offset, folded into the output with `np.maximum` by
`tensor.max_fold`, whose docstring states the first-maximum rule (strict
improvement, NaN wins, +0 and -0 tie); reducing the two inner axes of
the 6-D patch view instead walks memory in short, widely strided loops.
The backward needs no input, only where each window's maximum came
from: the pooling "switches" of Zeiler & Fergus (2013).
`return_index` forms them during the same folds, by that rule:
the row-major offset of each window's first maximum, in the smallest
unsigned dtype that holds k^2 - 1 (uint8 up to k = 16). The backward
(`tensor.max_route`) adds grad_out * (index == j) into zeros per offset,
the same adds, in the same order, as routing from the input, so the
same bytes, signed zeros included. Both form their per-offset
temporaries one chunk of images at a time, within `tensor.CHUNK_BYTES`.
The group pool (`eqlayers.group_cross_channel_pool`) runs the same fold
and router over its four slots. What the train walk keeps and writes
over, layer by layer: `network.forward`.
"""

import threading
from dataclasses import dataclass

import numpy as np

from .tensor import batch_chunks, max_fold, max_route


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


# Budget of one block's buffers, in either pass, and of the per-thread
# workspace that holds them; see the module docstring.
_BLOCK_BYTES = 1 << 22
# The filter gradient's GEMMs reduce over a multiple of this many columns,
# so their rounding does not depend on the BLAS thread count; see the
# module docstring.
_REDUCTION_GRAIN = 32

_workspace = threading.local()


def _workspace_bytes(nbytes: int) -> np.ndarray:
    """`nbytes` uint8 scratch bytes from this thread's workspace, grown to fit
    and kept for the thread's next call; a request past `_BLOCK_BYTES` (one
    image over the budget) gets its own array."""
    if nbytes > _BLOCK_BYTES:
        return np.empty(nbytes, dtype=np.uint8)
    buf = getattr(_workspace, "buf", None)
    if buf is None or buf.nbytes < nbytes:
        _workspace.buf = buf = None  # freed before the larger one is allocated
        buf = _workspace.buf = np.empty(nbytes, dtype=np.uint8)
    return buf[:nbytes]


class _Lowering:
    """The forward's lowering of a padded input `xp` (module docstring): per
    block of images, a (k, b*span) column matrix, k = c*kh*kw, each output
    row taking `width` columns, the padded width W for row runs, else ow."""

    def __init__(self, xp: np.ndarray, kh: int, kw: int, stride: int):
        self.patches = _patches(xp, kh, kw, stride)
        n, c, _, _, oh, ow = self.patches.shape
        wp = xp.shape[3]
        # row runs need stride 1, each (h, w) plane one flat run and more
        # than one output entry
        self.rows = stride == 1 and xp.strides[2] == wp * xp.strides[3] and oh * ow > 1
        self.width = wp if self.rows else ow
        self.k, self.span, self.run = c * kh * kw, oh * self.width, (oh - 1) * wp + ow
        if self.rows:  # (c, kh, kw, n, run): the run of row (channel, u, v) in each image
            s0, s1, s2, s3 = xp.strides
            self.runs = np.lib.stride_tricks.as_strided(xp, (c, kh, kw, n, self.run), (s1, s2, s3, s0, s3), writeable=False)

    def buffers(self, o: int, most: int, dtype, *, cols: bool = True, grain: int = 1) -> tuple:
        """A (k, L) column buffer (None without `cols`) and an (o, L) buffer
        after it, both from this thread's workspace; L is `most` images'
        columns rounded up to `grain`. The overhang of each image's last
        output row, which no row-run copy writes, is zeroed."""
        width = -(-most * self.span // grain) * grain
        item = np.dtype(dtype).itemsize
        cols_bytes = self.k * width * item if cols else 0
        scratch = _workspace_bytes(cols_bytes + o * width * item)
        second = scratch[cols_bytes:].view(dtype).reshape(o, width)
        if not cols:
            return None, second
        buf = scratch[:cols_bytes].view(dtype).reshape(self.k, width)
        if self.rows:
            buf[:, : most * self.span].reshape(self.k, most, self.span)[:, :, self.run :] = 0
        return buf, second

    def block(self, cols: np.ndarray | None, lo: int, hi: int) -> np.ndarray:
        """Block lo:hi's (k, b*span) column matrix, copied into `cols`; without
        `cols` (only where row runs do not apply), tensordot's own operand."""
        b, patches = hi - lo, self.patches[lo:hi].transpose(1, 2, 3, 0, 4, 5)
        if cols is None:  # a view when the window covers the image
            return patches.reshape(self.k, b * self.span)
        lowered = cols[:, : b * self.span]
        if self.rows:
            np.copyto(lowered.reshape(*patches.shape[:4], self.span)[..., : self.run], self.runs[:, :, :, lo:hi])
        else:
            np.copyto(lowered.reshape(patches.shape), patches)
        return lowered


def _finish(block: np.ndarray, maps: np.ndarray, epilogue: tuple) -> np.ndarray:
    """The (o, b, oh, ow) `maps` view of a GEMM result `block` (o, b*span)
    after `correlate2d`'s epilogue; a ReLU or affine runs in place over one
    contiguous array, the last pool's output or else the whole block."""
    for step, *args in epilogue:
        if step == "max_pool":
            maps = max_pool2d(maps, *args)
            block = maps.reshape(maps.shape[0], -1)
        elif step == "relu":
            np.maximum(block, 0, out=block)
        else:
            block *= args[0].reshape(-1, 1)
            block += args[1].reshape(-1, 1)
    return maps


def _check_operands(x: np.ndarray, w: np.ndarray, geom: ConvGeometry) -> tuple:
    """(oh, ow) of correlating x (n,c,h,w) with filters w (o,c,kh,kw), once
    both ranks, the channel counts and the window are checked."""
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError(f"expected rank-4 input and filters, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ValueError(f"input has {x.shape[1]} channels but filters expect {w.shape[1]}")
    oh = output_size(x.shape[2], w.shape[2], geom.stride, geom.pad)
    return oh, output_size(x.shape[3], w.shape[3], geom.stride, geom.pad)


def correlate2d(x: np.ndarray, w: np.ndarray, geom: ConvGeometry = ConvGeometry(), *, epilogue: tuple = ()) -> np.ndarray:
    """Valid cross-correlation of x (n,c,h,w) with filters w (o,c,kh,kw).

    out[n,o,p,q] = sum_{c,u,v} w[o,c,u,v] * x_pad[n,c, p*stride+u, q*stride+v],
    then the `epilogue`'s steps in order (module docstring): ("relu",),
    ("max_pool", kernel, stride) and ("affine", a, b), a and b one value
    each per output channel, as y = a*x + b. The output size follows each
    pool.
    """
    oh, ow = _check_operands(x, w, geom)
    xp = _pad_spatial(x, geom.pad)
    low = _Lowering(xp, w.shape[2], w.shape[3], geom.stride)
    n, o, k, span = x.shape[0], w.shape[0], low.k, low.span
    ph, pw = oh, ow
    for step, *args in epilogue:
        if step == "max_pool":
            ph, pw = output_size(ph, *args), output_size(pw, *args)
        elif step not in ("relu", "affine"):
            raise ValueError(f"unknown epilogue step {step!r}")
    out = np.empty((n, o, ph, pw), dtype=np.result_type(w, xp))
    w2 = w.reshape(o, k).astype(out.dtype, copy=False)
    bounds = batch_chunks(n, (k + o) * span * out.itemsize, _BLOCK_BYTES)
    # the workspace holds the row-run columns, if any, then the result
    cols, res = low.buffers(o, max(hi - lo for lo, hi in bounds), out.dtype, cols=low.rows)
    for lo, hi in bounds:
        b = hi - lo
        lowered = low.block(cols, lo, hi)
        block = np.matmul(w2, lowered, out=res[:, : b * span])
        del lowered  # before the next block's operand is built
        out[lo:hi] = _finish(block, block.reshape(o, b, oh, low.width)[..., :ow], epilogue).transpose(1, 0, 2, 3)
    return out


def correlate2d_backward(
    grad_out: np.ndarray,
    x: np.ndarray,
    w: np.ndarray,
    geom: ConvGeometry = ConvGeometry(),
    *,
    input_grad: bool = True,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Adjoints of correlate2d: gradients w.r.t. the input and the filters.

    With `input_grad=False` the input gradient is not formed and is
    returned as None. Given `out`, an array of x's shape and of the
    gradients' dtype, the input gradient is written into it; `out` may be
    x itself, as the filter gradient has read all of x before the first
    write. Writing over x is the caller's choice, not the default (unlike
    `GroupBatchNorm.backward`, whose xhat only its own forward made): x
    may be an array its caller reads again, or of another dtype.
    """
    oh, ow = _check_operands(x, w, geom)
    expected = (x.shape[0], w.shape[0], oh, ow)
    if grad_out.shape != expected:
        raise ValueError(f"grad_out shape {grad_out.shape} does not match forward output {expected}")
    (n, c), (o, _, kh, kw), s, pad = x.shape[:2], w.shape, geom.stride, geom.pad
    dtype = np.result_type(grad_out, x, w)
    if out is not None and (out.shape != x.shape or out.dtype != dtype):
        raise ValueError(f"out {out.shape} {out.dtype} does not match the input gradient {x.shape} {dtype}")
    item = dtype.itemsize
    xp = _pad_spatial(x, pad)

    # filter gradient: each block's columns, as the forward lowers them,
    # against its output gradient laid out on the same columns, zero in the
    # overhang and in the padding up to the grain; partial products summed
    # in block order
    low, grain = _Lowering(xp, kh, kw, s), _REDUCTION_GRAIN
    k, span = low.k, low.span
    bounds = batch_chunks(n, (k + o) * span * item, _BLOCK_BYTES - (k + o) * (grain - 1) * item)
    most = max(hi - lo for lo, hi in bounds)
    cols, gcols = low.buffers(o, most, dtype, grain=grain)
    laid = gcols[:, : most * span].reshape(o, most, oh, low.width)
    laid[..., ow:] = 0
    grad_w, partial = np.empty((o, k), dtype=dtype), np.empty((o, k), dtype=dtype)
    for lo, hi in bounds:
        b = hi - lo
        end = -(-b * span // grain) * grain
        low.block(cols, lo, hi)
        laid[:, :b, :, :ow] = grad_out[lo:hi].transpose(1, 0, 2, 3)
        cols[:, b * span : end] = 0
        gcols[:, b * span : end] = 0
        np.matmul(gcols[:, :end], cols[:, :end].T, out=partial if lo else grad_w)
        if lo:
            grad_w += partial
    grad_w = grad_w.reshape(w.shape)
    del cols, gcols, laid  # so a workspace that col2im grows is freed, not kept by these views
    if not input_grad:
        return None, grad_w

    # col2im as flat shifts (module docstring), one block of images at a
    # time: the block's gradient dilated by the stride and padded to the
    # input's (H, W), then one contiguous add per kernel offset
    hp, wp = xp.shape[2:]
    plane, tail = hp * wp, (kh - 1) * wp + kw - 1  # tail: the last shifts' overhang
    bounds = batch_chunks(n, (o + c + kw * c) * plane * item, _BLOCK_BYTES - tail * item)
    most = max(hi - lo for lo, hi in bounds)
    scratch = _workspace_bytes(((o + c + kw * c) * most * plane + tail) * item).view(dtype)
    gd = scratch[: o * most * plane].reshape(o, most * plane)
    gd[...] = 0  # the spread below writes the same entries in every block
    spread = gd.reshape(o, most, hp, wp)[:, :, : (oh - 1) * s + 1 : s, : (ow - 1) * s + 1 : s]
    acc_all, prod_all = np.split(scratch[o * most * plane :], [c * most * plane + tail])
    wt = np.ascontiguousarray(w.transpose(2, 3, 1, 0), dtype=dtype).reshape(kh, kw * c, o)
    grad_x = np.empty((n, c) + x.shape[2:], dtype=dtype) if out is None else out
    for lo, hi in bounds:
        b = hi - lo
        size = c * b * plane
        spread[:, :b] = grad_out[lo:hi].transpose(1, 0, 2, 3)
        acc = acc_all[: size + tail]
        acc[...] = 0
        prod = prod_all[: kw * size].reshape(kw * c, b * plane)
        for u in range(kh):
            np.matmul(wt[u], gd[:, : b * plane], out=prod)
            for v, row in enumerate(prod.reshape(kw, size)):
                acc[u * wp + v : u * wp + v + size] += row
        grad_x[lo:hi] = acc[:size].reshape(c, b, hp, wp)[:, :, pad : hp - pad, pad : wp - pad].transpose(1, 0, 2, 3)
    return grad_x, grad_w


def _pool_windows(shape: tuple, kernel: int, stride: int):
    """Index of each kernel offset's (n, c, oh, ow) strided view, in row-major offset order."""
    oh = output_size(shape[2], kernel, stride)
    ow = output_size(shape[3], kernel, stride)
    for u in range(kernel):
        for v in range(kernel):
            yield (Ellipsis, slice(u, u + oh * stride, stride), slice(v, v + ow * stride, stride))


def _index_dtype(kernel: int) -> np.dtype:
    """The smallest unsigned dtype that holds every offset 0..kernel^2 - 1 of a window."""
    return np.min_scalar_type(kernel * kernel - 1)


def max_pool2d(x: np.ndarray, kernel: int, stride: int, *, return_index: bool = False):
    """Windowed spatial maximum per channel, by `tensor.max_fold`'s
    first-maximum rule over the window's k^2 offsets in row-major order.

    With `return_index` it returns (output, index): the row-major offset
    u*kernel + v of each window's first maximum (its first NaN, if any),
    in `_index_dtype(kernel)`, which `max_pool2d_backward` routes by.
    """
    views = [x[win] for win in _pool_windows(x.shape, kernel, stride)]
    out, index = max_fold(views, _index_dtype(kernel) if return_index else None)
    return (out, index) if return_index else out


def max_pool2d_backward(grad_out: np.ndarray, index: np.ndarray, shape: tuple, kernel: int, stride: int) -> np.ndarray:
    """Route pooled gradients to the first (row-major) maximum of each window.

    `index` is the one `max_pool2d(x, kernel, stride, return_index=True)`
    returned, and `shape` is x's; `tensor.max_route` routes by it and
    checks it. A NaN counts as its window's maximum, as it does for
    argmax. A turned input puts another of a window's tied maxima first,
    so the gradient is turn-invariant only away from positive ties (ties
    at zero under a ReLU get a zero gradient either way).
    """
    grad_x = np.zeros(shape, dtype=grad_out.dtype)
    views = [grad_x[win] for win in _pool_windows(shape, kernel, stride)]
    max_route(grad_out, index, views, f"{kernel}x{kernel} window")
    return grad_x
