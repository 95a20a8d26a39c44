"""Independent brute-force oracles used to pin expected values.

Everything here is written as plainly as possible (explicit loops,
index formulas straight from the definitions) and never calls the
library code it is used to check.
"""

import numpy as np


def naive_correlate2d(x, w, stride=1, pad=0):
    """Six-nested-loop valid cross-correlation with symmetric zero pad."""
    n, c, h, w_in = x.shape
    o, c2, kh, kw = w.shape
    assert c == c2
    if pad:
        padded = np.zeros((n, c, h + 2 * pad, w_in + 2 * pad), dtype=x.dtype)
        padded[:, :, pad : pad + h, pad : pad + w_in] = x
        x = padded
        h, w_in = h + 2 * pad, w_in + 2 * pad
    oh = (h - kh) // stride + 1
    ow = (w_in - kw) // stride + 1
    out = np.zeros((n, o, oh, ow), dtype=x.dtype)
    for b in range(n):
        for oc in range(o):
            for p in range(oh):
                for q in range(ow):
                    acc = 0.0
                    for ic in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                acc += w[oc, ic, u, v] * x[b, ic, p * stride + u, q * stride + v]
                    out[b, oc, p, q] = acc
    return out


def _first_max(img, top, left, kernel):
    """Row-major first position of a window's maximum; a NaN wins at once."""
    best = (top, left)
    for u in range(top, top + kernel):
        for v in range(left, left + kernel):
            if img[u, v] != img[u, v]:
                return u, v
            if img[u, v] > img[best]:
                best = (u, v)
    return best


def naive_max_pool2d(x, kernel, stride):
    """Window maxima by explicit loops over every output position."""
    n, c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    out = np.empty((n, c, oh, ow), dtype=x.dtype)
    for b in range(n):
        for ch in range(c):
            for p in range(oh):
                for q in range(ow):
                    out[b, ch, p, q] = x[b, ch][_first_max(x[b, ch], p * stride, q * stride, kernel)]
    return out


def naive_max_pool2d_backward(grad_out, x, kernel, stride):
    """Each window's gradient added onto its first (row-major) maximum."""
    n, c, oh, ow = grad_out.shape
    grad_x = np.zeros_like(x)
    for b in range(n):
        for ch in range(c):
            for p in range(oh):
                for q in range(ow):
                    u, v = _first_max(x[b, ch], p * stride, q * stride, kernel)
                    grad_x[b, ch, u, v] += grad_out[b, ch, p, q]
    return grad_x


def _turn(w, times):
    """Each (out, in) kernel of a filter bank rotated `times` quarter turns ccw."""
    return np.ascontiguousarray(np.rot90(w, times % 4, axes=(2, 3)))


def naive_expand_cycle(base):
    """Cycle bank: output channel (a, i) is base filter a turned i times."""
    g, c_in, k, _ = base.shape
    out = np.empty((g, 4, c_in, k, k), dtype=base.dtype)
    for i in range(4):
        out[:, i] = _turn(base, i)
    return out.reshape(4 * g, c_in, k, k)


def naive_expand_isotonic(base):
    """Isotonic bank: block entry (a, j, b, i) is generator (i - j) mod 4 turned j times."""
    g_out, _, g_in, k, _ = base.shape
    out = np.empty((g_out, 4, g_in, 4, k, k), dtype=base.dtype)
    for j in range(4):
        for i in range(4):
            out[:, j, :, i] = _turn(base[:, (i - j) % 4], j)
    return out.reshape(4 * g_out, 4 * g_in, k, k)


def naive_expand_decycle(base):
    """Decycle bank: input slot j of every group is the base filter turned j times."""
    c_out, g_in, k, _ = base.shape
    out = np.empty((c_out, g_in, 4, k, k), dtype=base.dtype)
    for j in range(4):
        out[:, :, j] = _turn(base, j)
    return out.reshape(c_out, 4 * g_in, k, k)


def naive_collapse_cycle_grad(grad_w):
    """Cycle base gradient: each slot's gradient turned back, summed from slot 0 up."""
    four_g, c_in, k, _ = grad_w.shape
    gw = grad_w.reshape(four_g // 4, 4, c_in, k, k)
    acc = np.zeros((four_g // 4, c_in, k, k), dtype=grad_w.dtype)
    for i in range(4):
        acc += _turn(gw[:, i], -i)
    return acc


def naive_collapse_isotonic_grad(grad_w):
    """Isotonic generator gradient: block (j, (m + j) mod 4) turned back onto generator m."""
    four_g_out, four_g_in, k, _ = grad_w.shape
    g_out, g_in = four_g_out // 4, four_g_in // 4
    gw = grad_w.reshape(g_out, 4, g_in, 4, k, k)
    acc = np.zeros((g_out, 4, g_in, k, k), dtype=grad_w.dtype)
    for j in range(4):
        for m in range(4):
            acc[:, m] += _turn(gw[:, j, :, (m + j) % 4], -j)
    return acc


def naive_collapse_decycle_grad(grad_w):
    """Decycle base gradient: each input slot's gradient turned back, summed from slot 0 up."""
    c_out, four_g, k, _ = grad_w.shape
    gw = grad_w.reshape(c_out, four_g // 4, 4, k, k)
    acc = np.zeros((c_out, four_g // 4, k, k), dtype=grad_w.dtype)
    for j in range(4):
        acc += _turn(gw[:, :, j], -j)
    return acc


def rot180_permutation(img):
    """out[i, j] = in[h-1-i, w-1-j] via explicit index loops."""
    h, w = img.shape
    out = np.empty_like(img)
    for i in range(h):
        for j in range(w):
            out[i, j] = img[h - 1 - i, w - 1 - j]
    return out


def rot90_ccw_permutation(img):
    """out[i, j] = in[j, w-1-i] via explicit index loops."""
    h, w = img.shape
    out = np.empty((w, h), dtype=img.dtype)
    for i in range(w):
        for j in range(h):
            out[i, j] = img[j, w - 1 - i]
    return out


def max_rel(a, b):
    """Max elementwise deviation scaled by the larger magnitude present."""
    diff = float(np.max(np.abs(a - b))) if np.asarray(a).size else 0.0
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    return diff / scale
