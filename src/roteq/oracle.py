"""Reference layers that rotate feature maps instead of filters.

Each function computes the same values as its tied-filter counterpart
by pulling the rotation through the correlation: a slot that the fast
path serves with a rotated filter is served here by counter-rotating
the input maps, correlating with the unrotated base stack, and rotating
the result back. Nothing is cached and the four slot passes stay
separate on purpose; this is the slow path the benchmark contrasts
against, and the independent witness used to cross-check the
tied-filter implementation. Both paths share the same correlation
kernel, so discrepancies localize to the layer algebra. The module
depends only on `conv` and `tensor`: it imports none of the code it
witnesses, and callers pair it with `network.KINDS` themselves.
"""

import numpy as np

from .conv import ConvGeometry, correlate2d
from .tensor import rotate90


def oracle_cycle(base: np.ndarray, x: np.ndarray, geom: ConvGeometry = ConvGeometry()) -> np.ndarray:
    """Cycle layer output of base filters (g, c_in, k, k), computed by rotating the feature maps.

    Output channel (a, i) = R^i( base[a] * R^-i(x) ).
    """
    g = base.shape[0]
    slots = []
    for i in range(4):
        y = correlate2d(rotate90(x, -i), base, geom)
        slots.append(rotate90(y, i))
    n, _, oh, ow = slots[0].shape
    return np.stack(slots, axis=2).reshape(n, 4 * g, oh, ow)


def oracle_isotonic(base: np.ndarray, x: np.ndarray, geom: ConvGeometry = ConvGeometry()) -> np.ndarray:
    """Isotonic layer output of generators (g_out, 4, g_in, k, k), computed
    by rolling and rotating the maps.

    For output slot j, the input channels are cyclically shifted by j,
    rotated by -j, correlated with the fixed generator stack, and the
    result rotated back by +j.
    """
    g_out, _, g_in, k, _ = base.shape
    n, c, h, w = x.shape
    if c != 4 * g_in:
        raise ValueError(f"expected {4 * g_in} input channels, got {c}")
    xg = x.reshape(n, g_in, 4, h, w)
    # generator stack with input channel order (group, generator index)
    base_stack = np.ascontiguousarray(base.transpose(0, 2, 1, 3, 4)).reshape(
        g_out, 4 * g_in, k, k
    )
    slots = []
    for j in range(4):
        rolled = np.roll(xg, -j, axis=2).reshape(n, 4 * g_in, h, w)
        y = correlate2d(rotate90(rolled, -j), base_stack, geom)
        slots.append(rotate90(y, j))
    oh, ow = slots[0].shape[2], slots[0].shape[3]
    return np.stack(slots, axis=2).reshape(n, 4 * g_out, oh, ow)


def oracle_decycle(base: np.ndarray, x: np.ndarray, geom: ConvGeometry = ConvGeometry()) -> np.ndarray:
    """Decycle layer output of base filters (c_out, g_in, k, k), as a sum
    over counter-rotated slot correlations.

    y_o = sum_j R^j( base[o] * R^-j(x at cyclic slot j) ).
    """
    g_in = base.shape[1]
    n, c, h, w = x.shape
    if c != 4 * g_in:
        raise ValueError(f"expected {4 * g_in} input channels, got {c}")
    xg = x.reshape(n, g_in, 4, h, w)
    acc = None
    for j in range(4):
        y = correlate2d(rotate90(np.ascontiguousarray(xg[:, :, j]), -j), base, geom)
        y = rotate90(y, j)
        acc = y if acc is None else acc + y
    return acc


def relative_deviation(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """(max abs diff, max diff scaled by the larger magnitude of the pair)."""
    max_abs = float(np.max(np.abs(a - b))) if a.size else 0.0
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 0.0)
    return max_abs, (max_abs / scale if scale > 0 else 0.0)

