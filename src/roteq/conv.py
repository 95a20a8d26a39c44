"""2-D multi-channel spatial correlation, its adjoints, and pooling.

The forward pass lowers input patches to a column matrix and multiplies
it by the (o, c*kh*kw) filter matrix, so both the tied-filter layers
and the map-rotating reference path share one kernel. It lowers the
batch in cache-sized blocks: the output is allocated once, and each
block of images is lowered to one column matrix, multiplied into one
result buffer (`np.matmul` with `out=`) and written, transposed, into
its slice of the output. A block's column matrix and GEMM result
together stay within `_BLOCK_BYTES` (4 MiB); the budget counts the
columns as allocated, the padded width W per output row for row runs
and ow otherwise, so the lowering is bounded whatever the batch size
(Cho & Brand 2017, "MEC", on the lowering's memory overhead; Goto &
van de Geijn 2008 on sizing a GEMM's blocks for the cache). The column
buffer that row runs (below) copy into and the result buffer come from
a per-thread workspace that the next call reuses (see "Why 4 MiB"
below); every other correlation multiplies `tensordot`'s own operand,
built per block and released before the next block's. The backward
pass walks the batch the same way, within the same budget and
workspace, through the same lowering (`_Lowering`). On a
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
OpenBLAS 0.3.31). Row runs were measured against their removal on the
same machine: copying `tensordot`'s operand into the workspace instead
keeps the eval logits' bytes, but dren-z2cnn-shape's 12-px 20->20 layer
took 5.6-5.7 ms against 5.0-5.1 ms with row runs at batch 256 in
float32 (the 26-px layer about even, 29-31 against 29-33 ms), and the
`infer-dren` benchmark's img/s was lower in 6 of 6 alternating 12 s
pairs (medians 4299 against 4489). They stay: they pay on the short
rows of the 12-, 10- and 8-px layers.

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
and so never past `_BLOCK_BYTES`, and each call of either pass takes
its block buffers from it instead of freeing them. The thread drops its
old buffer before it allocates a larger one, so the two are not held
together unless a caller still holds a view of the old one: a batch-64
train step of dren-z2cnn-shape in a fresh thread peaked at 17.2 MB in
L13's forward, where the buffer grew, and peaks at 15.1 MB without the
old buffer. A block whose one image alone exceeds the budget gets its
own buffer, freed with the call. Outputs are fresh arrays, never views of the workspace, which
the next call overwrites; each thread lowers into its own, so calls
made at once give the bytes of calls made in turn. On dren-z2cnn-shape's
batch-256 eval forward (float32, 2 vCPUs, OpenBLAS 0.3.31, interleaved
runs, medians of 30) 16 MiB blocks in per-call buffers took 115-153 ms
and 2,000-2,600 minor faults per forward; 4 MiB blocks with the
workspace took 65-78 ms and none, against 79-91 ms at 2 MiB and
65-98 ms at 8 MiB.

The epilogue: `correlate2d`'s keyword `epilogue` is a tuple of steps,
each a ReLU, a max pool or an affine (a scale a and a shift b per output
channel), that it runs in order on each block's GEMM result before the
write, while the block is still in cache. An eval-mode `network.forward`
hands each conv-like layer the ReLUs, max pools and group batch norms
after it, each batch norm as its eval map y = a*x + b (its docstring says
in what order), so no full-resolution map before a pool is stored and no
pass over the whole output runs for them. A pool is one `max_pool2d` call
over the block's (o, b, oh, ow) view; a ReLU or an affine runs in place
over one contiguous array: the last pool's output, or before any pool the
whole GEMM result, whose dropped columns hold finite values wherever the
input is (see the overhang below). They are the plain steps' own
elementwise operations (`np.maximum(x, 0)`, then x*a and + b, as the
batch norm's eval pass runs them), so each gives the plain step's bytes.
On dren-z2cnn-shape at batch 256 (float32) the 26-px layer's 11.8 MB
output before its pool gives way to its 2.9 MB pooled one, and the eval
forward's traced peak went from 44.1 to 35.7 MB.

Why a pool may run ahead of ReLUs and affines: a non-decreasing map f
commutes with a window's maximum, max(f(x), f(y)) = f(max(x, y)) in
value. Rounding is monotone, so max(., 0) and x -> fl(fl(a*x) + b) for a
finite a > 0 and a finite b are non-decreasing, and neither makes a NaN
of a number; a NaN wins its window (`tensor.max_fold`) and stays NaN under
each. The only equal values a maximum can tell apart are +0 and -0, and
each step maps both to the same bits and returns no -0 (numpy's
maximum(-0.0, 0) is +0, and `GroupBatchNorm.affine` gives no b = -0), so
pooling first gives the bytes of the stack's order. An a <= 0 turns a
window's maximum into its minimum, and an infinite a or b can make a NaN
of a zero or an infinity, so no pool moves ahead of such an affine.

The backward pass is two GEMMs per block of images (unrolled
convolution, Chellapilla et al. 2006), both halves walking the batch in
near-equal blocks within `_BLOCK_BYTES` and taking every block buffer
from the thread's workspace. Besides its two gradients a call allocates
only the padded input (for pad > 0, as the forward does) and arrays the
size of the filter bank. The filter half reads the input and finishes
before col2im writes its first block, so a caller done with the input
passes it as `out` and the input gradient is written over it, allocating
nothing the input's size (`network.backward` does, above the lowest
trainable layer).

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
whole batch did. It is no less accurate. Against a float64 product, the
float32 gradient of every conv-like layer of dren-z2cnn-shape,
z2cnn-shape, bench-nin-shape and dren-small at batches 8, 64 and 256
deviated by up to 5.9e-7 of its largest entry, the one GEMM by up to
7.4e-7. In float64 the blocked gradient stayed within 1.3e-15 of the
one GEMM's, whose own error against a long-double product was 2.4e-16
to 9.9e-16 on dren-z2cnn-shape's layers (batch 16).

Why the reduction grain: OpenBLAS cuts a GEMM's reduction into panels,
and its one-thread and threaded drivers split the last two panels
differently unless the reduction's length is a multiple of 32 or fits
one panel. Over lengths 16-16000 in steps of 4 (M 10, 20 and 40, N 180
and 360), products matched at 1 and 2 threads at every multiple of 32
in both precisions, and differed at most other lengths from 452
(float32) and 388 (float64) up (OpenBLAS 0.3.31, SkylakeX kernels).
So each block's b*span columns are padded with zero columns, in the
columns and in the laid-out gradient alike, up to a multiple of
`_REDUCTION_GRAIN` (32), and the block budget keeps room for them.
Without the padding, dren-small's batch-32 train step (its 22-px layer
in blocks of 10 and 11 images, 4,400 and 4,840 columns) ended in other
parameter bits at 1 and 2 threads. The one GEMM agreed there only
because the tested batches (32 and 64 images) made its n*oh*ow columns
a multiple of 32.

The input gradient (col2im) is the filter bank times the output
gradient, scattered back over the patch windows as flat shifts, the
row-shift idea of MEC. A block's output gradient is first spread over
the padded input's (H, W) grid: entry (p, q) goes to (p*s, q*s) for
stride s, every other position is zero. In the accumulator's flat
(c, b, H, W) order, kernel offset (u, v) moves every entry u*W + v
places on, so its whole scatter is one contiguous add of a GEMM row
block. Each kernel row u is one GEMM of the filters' (kw*c, o) slice
with the spread gradient, written into one workspace buffer; the
accumulator's (kh-1)*W + kw - 1 spare entries take the last shifts'
overhang. A shift carries zeros across row, image and channel borders
but never a gradient entry, which lands at (p*s + u, q*s + v), inside
its own image. For finite filters a zero contributes +0 or -0, the
accumulator starts at +0 and so never holds -0, and adding a signed
zero leaves any other value as it was; each entry gets the same terms
in the same order as from a strided scatter of the unspread gradient.
The block is then written, transposed and unpadded, into the input
gradient. A block counts (kw*c + o + c)*H*W entries per image and the
spare entries once; the spread buffer is zeroed once per call, as every
block writes the same positions of it. On a 64x20x26x26 float32 input
with 20 3x3 filters the strided scatter walked 30,720 strided runs of
24 elements per offset; a shift over the whole batch is one add over a
single 865,280-element run, and the whole backward went from 20-23 to
16-19 ms (2 vCPUs, OpenBLAS 0.3.31).

Why blocking keeps the input gradient's bits: each of its entries is a
sum over output channels and kernel offsets only, none over images, so
a batch block moves GEMM columns and splits no sum. The input gradient
is bit-identical to the strided scatter's wherever BLAS rounds a GEMM
entry the same whatever its column's position. OpenBLAS does so on
full 8-column blocks, so at a batch that is a multiple of 8 (every
preset layer, every benchmark batch) the results match. A trailing
partial block rounds its own way in some shapes, and a one-column
product goes to gemv; the spread moves entries into and out of those,
and there the two differ by an ulp or so. On every conv-like layer of
the four presets above the blocked input gradient is the bits of the
whole-batch one, in float32 at batches 8, 64 and 256 and in float64 at
8 and 64, at 1 and 2 BLAS threads. Under a 2 MiB budget on 1 thread,
float64, bench-nin-shape's 11-px 1x1 layer at batch 64 (blocks of 21
and 22 images) rounded 290 of its 247,808 entries otherwise, by up to
1.8e-15 absolute, as the forward's one-thread float64 GEMMs do. Every sum runs
in a fixed order, so repeated runs are bitwise reproducible. Below the
lowest trainable layer no input gradient is needed, and
`input_grad=False` skips the col2im half.

What the blocks bought, on dren-z2cnn-shape's 20->20 3x3 layer at 26x26
(float32; 2 vCPUs, OpenBLAS 0.3.31; peaks traced in a fresh thread, so
the workspace counts): the backward's peak went from 17.3 to 7.5 MB at
batch 64 and from 42.3 to 17.9 MB at batch 256, where it is now the
13.8 MB input gradient, the 4.1 MB workspace and a few small arrays.
The 17.3 and 42.3 MB were per-call buffers blocked by input channel
within 16 MiB, each block's GEMM meeting the whole (o, n*oh*ow) output
gradient (29.5 and 118.0 MB unblocked). The call's median time went
from 25 to 19-20 ms at batch 64 and from 169-176 to 74-79 ms at batch
256, in alternating runs. A batch-64
momentum-SGD step of the preset, after one warm step, peaked at 22.0 MB
against 29.0 MB, in a batch-norm backward over 19.7 MB of forward
caches. Since the train walk keeps no batch norm's output and packs its
ReLU and dropout masks 8 per byte (`network.forward`), the caches hold
8.9 MB and the step peaked at 15.7 MB, still in that backward. With each
max pool keeping a routing index instead of its input (below), and the
batch norm and conv backward writing their input gradients over their
spent xhat and input, the caches hold 9.1 MB and the step peaked at
12.8 MB, in L7's batch-norm backward, with L7's forward at 12.7 MB.
With the train walk's ReLU, dropout and batch-norm steps also writing
over spent activations (`network.forward`), the batch-norm backward
and the pool's routing forming their temporaries a chunk of images at a
time (`tensor.batch_chunks`, 256 KiB), the step peaks at 11.0 MB, in
L8's max-pool backward, with L8's forward at 10.9 MB and L4's conv
backward at 10.2 MB next; at batch 256 it peaks at 43.1 MB (50.9 MB
before). The workspace stays at the 4.1 MB the forward already needed.

Max pooling is k^2 elementwise maxima: one (n, c, oh, ow) strided view
per kernel offset, folded into the output with `np.maximum` by
`tensor.max_fold`, whose docstring states the first-maximum rule (strict
improvement, NaN wins, +0 and -0 tie). Reducing the two inner axes of
the 6-D patch view instead walks memory with short, widely strided inner
loops; on a 256x20x26x26 float32 input with 2x2 windows that took
110.8 ms against 4.5 ms for the offset loop.

A train-mode pool keeps no input for its backward, only where each
window's maximum came from: the pooling "switches" of Zeiler & Fergus
(2013). `return_index` forms them during the same folds, by that rule:
the row-major offset of each window's first maximum, in the smallest
unsigned dtype that holds k^2 - 1 (uint8 up to k = 16). The backward
(`tensor.max_route`) adds grad_out * (index == j) into zeros per offset,
the same adds, in the same order, as routing from the input, so the
same bytes, signed zeros included. Both form their per-offset
temporaries (the comparison and its offset, or the mask and the routed
product) one chunk of images at a time, within `tensor.CHUNK_BYTES`;
forming them for the whole batch took 0.37 MB forward and 0.92 MB
backward on dren-z2cnn-shape's L8 at batch 64. On dren-z2cnn-shape at
batch 64 the index is 0.18 MB where the pool's input, a batch norm's
output the backward rebuilt from its xhat, was 2.9 MB. The group pool
(`eqlayers.group_cross_channel_pool`) runs the same fold and router over
its four slots.
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
