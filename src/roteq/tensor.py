"""Rank-4 tensor helpers and the exact symmetry operators.

Feature maps live in (batch, channel, height, width) arrays. The two
operators everything else is built on are the quarter-turn spatial
rotation and the cyclic permutation of 4-channel groups; both are pure
index permutations, so composing or inverting them is exact.
"""

import numpy as np

CHUNK_BYTES = 1 << 18  # default budget of one chunk of a pass's temporaries (`batch_chunks`)


class LayoutError(ValueError):
    """Channel count incompatible with a 4-channel group layout."""


def group_count(channels: int) -> int:
    """Number of 4-channel cyclic groups in a channel axis.

    Channel index = group*4 + cyclic_index, cyclic_index in 0..3.
    Raises LayoutError if `channels` is not divisible by 4.
    """
    if channels % 4 != 0:
        raise LayoutError(f"channel count {channels} is not divisible by 4")
    return channels // 4


def batch_chunks(count: int, item_bytes: int, budget: int = CHUNK_BYTES) -> list:
    """(lo, hi) of as few chunks of `count` items, `item_bytes` each, as keep
    every chunk within `budget` bytes (one item at least); chunk sizes differ
    by at most one."""
    most = max(1, budget // max(1, item_bytes))
    parts = max(1, -(-count // most))
    return [(k * count // parts, (k + 1) * count // parts) for k in range(parts)]


def max_fold(views: list, index_dtype=None):
    """(out, index): the elementwise maximum of equal-shape `views`, and
    with `index_dtype` the position in `views` of each entry's first
    maximum (index None without it). Every max pool forms its output and
    routing index here (`conv.max_pool2d` over a window's k^2 offsets,
    `eqlayers.group_cross_channel_pool` over a group's 4 slots).

    The first-maximum rule: the views fold into a copy of the first with
    `np.maximum`, in order. Before view j folds in, the entries it beats
    strictly take j as their index, so each index is its entry's last
    strict improvement, the first of its maxima, as +0 and -0 compare
    equal. A NaN wins: the output is NaN and the index that of the first
    NaN. NaN compares false with everything, so the NaN case is a fix-up:
    only in a chunk whose output holds a NaN (its minimum is NaN), the
    views are walked from last to first, each NaN entry setting the
    index to its view. Among tied zeros the output is the last one, +0
    or -0: `np.maximum` returns its second operand when the two compare
    equal (numpy 2.4, float32 and float64, on every array size tried).

    The index's temporaries (the comparison and its position) are formed
    one chunk of the leading axis at a time (`batch_chunks`)."""
    out = views[0].copy()
    if index_dtype is None:
        for view in views[1:]:
            np.maximum(out, view, out=out)
        return out, None
    position = np.dtype(index_dtype).type
    index = np.zeros(out.shape, position)
    bounds = batch_chunks(out.shape[0], (1 + index.itemsize) * out[:1].size)  # gt and step
    gt = np.empty((max(hi - lo for lo, hi in bounds), *out.shape[1:]), bool)
    step = np.empty(gt.shape, position)
    for lo, hi in bounds:
        pooled, routes, b = out[lo:hi], index[lo:hi], hi - lo
        for j, view in enumerate(views[1:], start=1):
            np.greater(view[lo:hi], pooled, out=gt[:b])
            np.maximum(routes, np.multiply(gt[:b], position(j), out=step[:b]), out=routes)
            np.maximum(pooled, view[lo:hi], out=pooled)
        if pooled.size and np.isnan(pooled.min()):  # each NaN entry ends at its first NaN
            for j in range(len(views) - 1, -1, -1):
                np.copyto(routes, position(j), where=np.isnan(views[j][lo:hi], out=gt[:b]))
    return out, index


def max_route(grad_out: np.ndarray, index, views: list, window: str) -> None:
    """Add each entry of `grad_out` onto the one of `views` (of the input
    gradient, zero where nothing routes) that `index`, a `max_fold` index,
    names: the inverse of the fold's routing, one chunk of the leading axis
    at a time, with one product and one mask per view. Raises ValueError
    unless grad_out and index both have the views' shape, index is of an
    unsigned dtype that holds every position, and none is past the last
    view; `window` names the views in that message."""
    expected, last = views[0].shape, len(views) - 1
    if grad_out.shape != expected or getattr(index, "shape", None) != expected:
        raise ValueError(
            f"grad_out {grad_out.shape} and index {getattr(index, 'shape', None)} must both be {expected}:"
            f" a max pool routes by the forward's index, of shape {expected}"
        )
    if index.dtype.kind != "u" or np.iinfo(index.dtype).max < last:
        raise ValueError(f"an index of dtype {index.dtype} cannot hold the offsets 0..{last}")
    if index.size and index.max() > last:
        raise ValueError(f"index holds offset {index.max()}, past the {window}")
    bounds = batch_chunks(expected[0], (grad_out.itemsize + 1) * grad_out[:1].size)  # product and mask
    hit = np.empty((max(hi - lo for lo, hi in bounds), *expected[1:]), bool)
    routed = np.empty(hit.shape, grad_out.dtype)
    for lo, hi in bounds:
        b = hi - lo
        for j, view in enumerate(views):
            np.equal(index[lo:hi], j, out=hit[:b])
            view[lo:hi] += np.multiply(grad_out[lo:hi], hit[:b], out=routed[:b])


def _require_rank4(t: np.ndarray) -> None:
    if t.ndim != 4:
        raise ValueError(f"expected a rank-4 array, got shape {t.shape}")


def rotate90(t: np.ndarray, times: int = 1) -> np.ndarray:
    """Rotate the two trailing axes (maps, or each kernel of a filter bank) by times*90 deg ccw.

    Index convention for one turn: out[i, j] = in[j, w-1-i]. Pure
    permutation, no arithmetic; times is taken modulo 4 and may be
    negative. Spatial dims swap when times is odd.
    """
    _require_rank4(t)
    return np.ascontiguousarray(np.rot90(t, times % 4, axes=(2, 3)))


def cyclic_permute(t: np.ndarray, times: int = 1) -> np.ndarray:
    """Shift the cyclic slot of every 4-channel group by +times (mod 4).

    Destination slot = source slot + times, so one step maps the group
    [x0, x1, x2, x3] to [x3, x0, x1, x2]. Groups are independent.
    """
    _require_rank4(t)
    n, c, h, w = t.shape
    grouped = t.reshape(n, group_count(c), 4, h, w)
    return np.roll(grouped, times % 4, axis=2).reshape(n, c, h, w).copy()
