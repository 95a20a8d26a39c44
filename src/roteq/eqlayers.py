"""The three tied-weight layer types and their equivariance companions.

A cycle layer stacks the four quarter-turn rotations of each base
filter, turning input rotation into a channel permutation plus a
rotation. Isotonic layers tie a 4x4 block of filters (generated by four
free kernels per group pair) so that permuted-rotated inputs map to
permuted-rotated outputs. A decycle layer is the row form of the cycle
stack and collapses the permutation, leaving plain rotation
equivariance. Each tied layer is one plain base array; every function
here takes that array and reads group counts off the shapes of the
arrays it is given. Rotating a filter only moves its entries, so the
forward pass gathers the bank from the base (each entry lands in four
places, once per quarter turn) and the backward collapse is that
gather's adjoint: each entry's gradient sums its four bank gradients.
Both read one index table per (kind, base shape), built once. The
module depends only on `tensor`; the correlation that applies a bank
is the caller's (`network` runs it through `conv.correlate2d`).

Free parameter counts: a cycle layer holds g*c_in*k^2 reals, an
isotonic layer 4*g_out*g_in*k^2 (one quarter of the 16*g_out*g_in*k^2
an untied layer of the same expanded width would need), a decycle layer
c_out*g_in*k^2.
"""

import functools
import math

import numpy as np

from .tensor import batch_chunks, group_count, max_fold, max_route, rotate90


@functools.cache
def _tying(kind: str, shape: tuple) -> tuple:
    """(gather, scatter) of a `kind` base of `shape`: the flat base index
    of each bank entry, in the bank's shape, and each base entry's four
    flat bank positions in ascending order, shape (4, *shape). The three
    branches are the only statement of each kind's tying."""
    if kind == "isotonic" and (len(shape) != 5 or shape[1] != 4):
        raise ValueError(f"isotonic base must have shape (g_out, 4, g_in, k, k), got {shape}")
    ndim = 5 if kind == "isotonic" else 4
    if len(shape) != ndim:
        raise ValueError(f"{kind} base must be rank {ndim}, got shape {shape}")
    if shape[-1] != shape[-2]:
        raise ValueError(f"{kind} kernels must be square, got {shape[-2]}x{shape[-1]}")
    g, k = shape[0], shape[-1]
    idx = np.arange(math.prod(shape)).reshape(math.prod(shape[:-2]), 1, k, k)
    turns = [rotate90(idx, j).reshape(shape) for j in range(4)]
    if kind == "cycle":  # output channel (a, j): filter a turned j times
        gather = np.stack(turns, axis=1).reshape(4 * g, *shape[1:])
    elif kind == "isotonic":  # block (a, j, b, i): generator (i - j) mod 4 turned j times
        rolled = [np.roll(t, j, axis=1) for j, t in enumerate(turns)]
        gather = np.stack(rolled, axis=1).swapaxes(2, 3).reshape(4 * g, 4 * shape[2], k, k)
    else:  # decycle input slot j of every group: filter turned j times
        gather = np.stack(turns, axis=2).reshape(g, 4 * shape[1], k, k)
    scatter = np.argsort(gather, axis=None, kind="stable").reshape(-1, 4).T.reshape(4, *shape)
    gather.flags.writeable = scatter.flags.writeable = False  # shared by every later call
    return gather, scatter


def expand_cycle(base: np.ndarray) -> np.ndarray:
    """Expanded filter bank (4*g_out, c_in, k, k) of cycle base filters (g_out, c_in, k, k).

    Output channel (a, i) holds the base filter of group a rotated i
    quarter turns, i = 0..3 within each group.
    """
    return base.ravel()[_tying("cycle", base.shape)[0]]


def expand_isotonic(base: np.ndarray) -> np.ndarray:
    """Expanded filter bank (4*g_out, 4*g_in, k, k) of isotonic generators (g_out, 4, g_in, k, k).

    Axis 1 of `base` indexes the four generators of the tied 4x4 block
    of each (out-group, in-group) pair. The block entry at output slot
    j, input slot i of group pair (a, b) is the generator
    base[a, (i-j) mod 4, b] rotated j quarter turns; the resulting bank
    is a fixed point of the shift-both-slots-then-rotate map.
    """
    return base.ravel()[_tying("isotonic", base.shape)[0]]


def expand_decycle(base: np.ndarray) -> np.ndarray:
    """Expanded filter bank (c_out, 4*g_in, k, k) of decycle base filters (c_out, g_in, k, k).

    Input slot j of every group holds the base filter rotated j quarter
    turns: the row form [w, Rw, R^2w, R^3w].
    """
    return base.ravel()[_tying("decycle", base.shape)[0]]


def _collapse(kind: str, grad_w: np.ndarray, shape: tuple) -> np.ndarray:
    gather, scatter = _tying(kind, shape)
    # the reshape rejects a gradient whose size does not match the bank
    return grad_w.reshape(gather.shape).ravel()[scatter].sum(axis=0)


def collapse_cycle_grad(grad_w: np.ndarray) -> np.ndarray:
    """Fold a (4*g_out, c_in, k, k) expanded-filter gradient back onto the cycle base."""
    four_g, c_in, k, _ = grad_w.shape
    return _collapse("cycle", grad_w, (four_g // 4, c_in, k, k))


def collapse_isotonic_grad(grad_w: np.ndarray) -> np.ndarray:
    """Fold a (4*g_out, 4*g_in, k, k) expanded-filter gradient back onto the isotonic generators."""
    four_g_out, four_g_in, k, _ = grad_w.shape
    return _collapse("isotonic", grad_w, (four_g_out // 4, 4, four_g_in // 4, k, k))


def collapse_decycle_grad(grad_w: np.ndarray) -> np.ndarray:
    """Fold a (c_out, 4*g_in, k, k) expanded-filter gradient back onto the decycle base."""
    c_out, four_g, k, _ = grad_w.shape
    return _collapse("decycle", grad_w, (c_out, four_g // 4, k, k))


def group_cross_channel_pool(x: np.ndarray, mode: str = "max", *, return_index: bool = False):
    """Per pixel, reduce the 4 cyclic channels of each group to one channel.

    Max mode takes `tensor.max_fold`'s first maximum over the four slots.
    With `return_index` (max mode only) it returns (output, index): per
    output entry, the uint8 slot 0..3 of its group's first maximum (its
    first NaN, if any), which `group_cross_channel_pool_backward` routes by.
    """
    n, c, h, w = x.shape
    grouped = x.reshape(n, group_count(c), 4, h, w)
    if mode == "max":
        out, index = max_fold([grouped[:, :, i] for i in range(4)], np.uint8 if return_index else None)
        return (out, index) if return_index else out
    if mode == "mean":
        if return_index:
            raise ValueError("mean mode keeps no index")
        return grouped.mean(axis=2)
    raise ValueError(f"unknown pooling mode {mode!r}")


def group_cross_channel_pool_backward(grad_out: np.ndarray, index: np.ndarray | None, mode: str) -> np.ndarray:
    """Gradient w.r.t. the (n, 4*g, h, w) input of a pool whose output
    gradient is (n, g, h, w): in max mode each entry goes to the slot
    `index` names (the forward's; `tensor.max_route` routes by it and
    checks it), in mean mode, where index is None, a quarter to each slot."""
    n, g, h, w = grad_out.shape
    if mode == "max":
        grad = np.zeros((n, g, 4, h, w), dtype=grad_out.dtype)
        max_route(grad_out, index, [grad[:, :, i] for i in range(4)], "4 slots of a group")
    elif mode == "mean":
        grad = np.repeat(grad_out[:, :, None] / 4, 4, axis=2)
    else:
        raise ValueError(f"unknown pooling mode {mode!r}")
    return grad.reshape(n, 4 * g, h, w)


def global_spatial_avg_pool(x: np.ndarray) -> np.ndarray:
    """Mean over all pixels per (sample, channel); output is (n, c, 1, 1)."""
    return x.mean(axis=(2, 3), keepdims=True)


def global_spatial_avg_pool_backward(grad_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    h, w = x.shape[2], x.shape[3]
    return np.broadcast_to(grad_out / (h * w), x.shape).astype(x.dtype)


def shared_bias_add(x: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Add one shared bias value to all 4 channels of each group."""
    groups = group_count(x.shape[1])
    if bias.shape != (groups,):
        raise ValueError(f"expected {groups} bias values, got shape {bias.shape}")
    return x + np.repeat(bias, 4).reshape(1, -1, 1, 1)


def shared_bias_backward(grad_out: np.ndarray) -> np.ndarray:
    """Gradient of the shared bias: sum over batch, group channels and pixels."""
    n, c, h, w = grad_out.shape
    return grad_out.reshape(n, group_count(c), 4, h, w).sum(axis=(0, 2, 3, 4))


class GroupBatchNorm:
    """Batch normalization with statistics and affine parameters shared per group.

    There is no instance: the layout comes from the arrays. The group
    count is the length of gamma, and an input of c channels splits into
    groups of c // groups consecutive channels; there is no group-size
    option. Call `forward` and `backward` through the class: a profiler
    that patches and restores them leaves plain functions there. Statistics
    are computed jointly over batch, spatial positions and the channels
    of a group, so permuting channels within a group leaves them
    unchanged; sharing the running statistics the same way is what keeps
    eval mode equivariant. Groups of 4 are the tied layout; groups of 1
    recover ordinary per-channel batch norm.

    Train mode takes the mean once and keeps x - mean: its square is
    the variance's summand and, scaled by 1/sqrt(var+eps), it becomes
    the normalized input xhat, which the cache keeps with inv_std; the
    output gamma*xhat + beta (`output`) is written over the squares.
    Given `out`, which may be x itself, x - mean is written there, so the
    pass allocates its output and no other full-size array. The backward
    pass writes its input gradient over the cache's xhat (the in-place
    backward of Rota Bulo et al. 2017) and runs over chunks of images
    (`tensor.batch_chunks`), reusing one chunk-sized buffer. How the
    train walk uses `out`, the spent xhat and `output`: the train-walk
    rules of `network.forward`. grad_gamma sums go*xhat the way numpy's
    `(go*xhat).sum(axis=(0, 2))` does: with more than one group, one
    pairwise sum per (image, group) row, folded over the images in
    order; with one group, numpy sums the whole product as one flat
    pairwise sum, which is halved the way numpy halves it until a part
    fits the buffer. Then, per chunk, the buffer takes go - grad_beta/m
    while xhat is scaled by grad_gamma/m in place, and the input
    gradient, their difference times gamma*inv_std, is written over
    xhat. go is never written. Every value is the one the plain two-pass
    formula gives, bit for bit, with no full-size temporary.

    Eval mode folds the running statistics into one per-group scale and
    shift (`affine`), a = gamma/sqrt(var+eps) and b = beta - mean*a + 0,
    so the output is the only full-size array it allocates; no normalized
    copy is built. The + 0 turns a shift of -0 into +0 and changes no
    other value, so the map returns no -0. Its rounding differs from the
    two-pass train formula (within 1e-12 relative in float64). It keeps
    no cache and returns no new state: `backward` follows train-mode
    passes only. Inside a conv-like layer's epilogue an eval-mode
    `network.forward` applies the same affine instead (its fusion rule).
    """

    eps = 1e-5  # added to the variance before the square root
    momentum = 0.1  # weight of the batch statistics in the running ones

    @classmethod
    def affine(cls, params, state):
        """Per-group (a, b) of the eval-mode map y = a*x + b; no b is -0."""
        a = params["gamma"] * (1.0 / np.sqrt(state["var"] + cls.eps))
        return a, params["beta"] - state["mean"] * a + 0.0

    @staticmethod
    def forward(x, params, state, train: bool, *, out=None):
        """Returns (y, cache, new_state), cache and new_state None in eval
        mode; state is never mutated in place. A train-mode pass writes
        xhat into `out` if given, which may be x itself; called plainly it
        writes nothing it was given."""
        n, c, h, w = x.shape
        g = params["gamma"].size
        if c % g != 0:
            raise ValueError(f"{c} channels do not split into {g} equal groups")
        xg = x.reshape(n, g, c // g, h, w)
        if not train:
            a, b = GroupBatchNorm.affine(params, state)
            y = xg * a.reshape(1, g, 1, 1, 1)
            y += b.reshape(1, g, 1, 1, 1)
            return y.reshape(n, c, h, w), None, None
        mean = xg.mean(axis=(0, 2, 3, 4), keepdims=True)
        xhat = np.subtract(xg, mean, out=None if out is None else out.reshape(xg.shape))  # normalized once var is known
        y = np.multiply(xhat, xhat)
        var = y.mean(axis=(0, 2, 3, 4))  # the sum and divide np.var makes
        mean = mean.reshape(g)
        m = GroupBatchNorm.momentum
        new_state = {
            "mean": (1 - m) * state["mean"] + m * mean,
            "var": (1 - m) * state["var"] + m * var,
        }
        inv_std = 1.0 / np.sqrt(var + GroupBatchNorm.eps)
        xhat *= inv_std.reshape(1, g, 1, 1, 1)
        cache = {"xhat": xhat, "inv_std": inv_std}
        return GroupBatchNorm.output(xhat, params, out=y), cache, new_state

    @staticmethod
    def output(xhat, params, out=None):
        """The train-mode output gamma*xhat + beta as (n, c, h, w), from the
        normalized input (n, groups, c // groups, h, w), written into `out`
        if given. `forward` writes it over its squares; `network.backward`
        calls it to rebuild the output."""
        n, g, size, h, w = xhat.shape
        y = np.multiply(params["gamma"].reshape(1, g, 1, 1, 1), xhat, out=out)
        y += params["beta"].reshape(1, g, 1, 1, 1)
        return y.reshape(n, g * size, h, w)

    @staticmethod
    def backward(grad_out, params, cache):
        """Returns (grad_x, grad_params) from the cache of a train-mode
        forward; grad_x is written over the cache's xhat, which is spent.
        grad_out is never written. Besides that, the pass allocates one
        chunk of images (`tensor.batch_chunks`) and arrays of one value per
        image and group."""
        go = grad_out.reshape(grad_out.shape[0], params["gamma"].size, -1)
        xhat = cache["xhat"].reshape(go.shape)
        n, g, size = go.shape
        grad_beta = go.sum(axis=(0, 2))
        bounds = batch_chunks(n, g * size * go.itemsize)
        t = np.empty((max(hi - lo for lo, hi in bounds), g, size), go.dtype)
        if g == 1:  # numpy sums (go * xhat) over (0, 2) as one flat pairwise sum
            grad_gamma = _pairwise_product_sum(go.reshape(-1), xhat.reshape(-1), t.reshape(-1))[None]
        else:  # one pairwise sum per row, folded over the images in order, as numpy does
            rows = np.zeros((n + 1, g), go.dtype)
            for lo, hi in bounds:
                np.multiply(go[lo:hi], xhat[lo:hi], out=t[: hi - lo]).sum(axis=2, out=rows[lo + 1 : hi + 1])
            grad_gamma = np.add.accumulate(rows, axis=0)[-1]
        m = n * size
        shift, slope = (grad_beta / m)[:, None], (grad_gamma / m)[:, None]
        scale = (params["gamma"] * cache["inv_std"])[:, None]
        for lo, hi in bounds:  # (go - grad_beta/m) - xhat*grad_gamma/m, times gamma*inv_std
            d, x = t[: hi - lo], xhat[lo:hi]
            np.subtract(go[lo:hi], shift, out=d)
            x *= slope
            np.subtract(d, x, out=x)
            x *= scale
        return xhat.reshape(grad_out.shape), {"gamma": grad_gamma, "beta": grad_beta}


def _pairwise_product_sum(a, b, buf):
    """numpy's `(a * b).sum()` of two flat arrays, with the products formed
    at most `buf.size` at a time: numpy's pairwise sum halves a run longer
    than 128 entries at a multiple of 8, so the halves are summed alike
    until one fits `buf`, which holds 128 entries or more."""
    size = a.size
    if size <= buf.size:
        return np.multiply(a, b, out=buf[:size]).sum()
    half = size // 2 - size // 2 % 8
    return _pairwise_product_sum(a[:half], b[:half], buf) + _pairwise_product_sum(a[half:], b[half:], buf)


__all__ = [
    "expand_cycle",
    "expand_isotonic",
    "expand_decycle",
    "collapse_cycle_grad",
    "collapse_isotonic_grad",
    "collapse_decycle_grad",
    "group_cross_channel_pool",
    "group_cross_channel_pool_backward",
    "global_spatial_avg_pool",
    "global_spatial_avg_pool_backward",
    "shared_bias_add",
    "shared_bias_backward",
    "GroupBatchNorm",
]
