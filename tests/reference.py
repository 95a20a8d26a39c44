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
