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
