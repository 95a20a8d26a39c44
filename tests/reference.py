"""Independent brute-force oracles used to pin expected values.

Everything here is written as plainly as possible (explicit loops,
index formulas straight from the definitions) and never calls the
library code it is used to check. `plain_train_walk` checks the train
walk's caching and `plain_eval_walk` the eval walk's fusion, not the
layers: they run the library's own layer steps, one at a time.
`random_batchnorm` and `TIED_PRESETS` set up the models they are run
on. `fresh_thread_peak` is the one measuring helper.
"""

import threading
import tracemalloc

import numpy as np

from roteq import conv, eqlayers, network


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


def tensordot_correlate2d(x, w, stride=1, pad=0, budget=1 << 24):
    """Correlation lowered as one `np.tensordot` per batch block.

    The batch splits into as few blocks as keep each block's
    (n_b, c, kh, kw, oh, ow) patch view within `budget` bytes, sizes
    differing by at most one; each block is one tensordot of the
    filters with its patch view, written into its slice of the output.
    """
    n, c, h, w_in = x.shape
    o, _, kh, kw = w.shape
    padded = np.zeros((n, c, h + 2 * pad, w_in + 2 * pad), dtype=x.dtype)
    padded[:, :, pad : pad + h, pad : pad + w_in] = x
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w_in + 2 * pad - kw) // stride + 1
    s0, s1, s2, s3 = padded.strides
    patches = np.lib.stride_tricks.as_strided(
        padded, (n, c, kh, kw, oh, ow), (s0, s1, s2, s3, s2 * stride, s3 * stride)
    )
    most = max(1, budget // (c * kh * kw * oh * ow * x.itemsize))
    parts = max(1, -(-n // most))
    out = np.empty((n, o, oh, ow), dtype=np.result_type(w, x))
    for k in range(parts):
        lo, hi = k * n // parts, (k + 1) * n // parts
        out[lo:hi] = np.tensordot(w, patches[lo:hi], axes=([1, 2, 3], [1, 2, 3])).transpose(1, 0, 2, 3)
    return out


def strided_scatter_input_grad(grad_out, w, x_shape, stride=1, pad=0):
    """Input gradient of a correlation by the strided col2im scatter.

    One GEMM of the filters' kernel-row slice with the (o, n*oh*ow)
    output gradient per kernel row, then each kernel offset's block
    added over its strided input window, offsets in row-major order.
    """
    n, c, h, w_in = x_shape
    o, _, kh, kw = w.shape
    _, _, oh, ow = grad_out.shape
    s = stride
    g2 = np.ascontiguousarray(grad_out.transpose(1, 0, 2, 3)).reshape(o, n * oh * ow)
    wt = np.ascontiguousarray(w.transpose(2, 1, 3, 0))  # (kh, c, kw, o)
    grad_xp = np.zeros((c, n, h + 2 * pad, w_in + 2 * pad), dtype=np.result_type(grad_out, w))
    for u in range(kh):
        rows = (wt[u].reshape(c * kw, o) @ g2).reshape(c, kw, n, oh, ow)
        for v in range(kw):
            grad_xp[:, :, u : u + oh * s : s, v : v + ow * s : s] += rows[:, v]
    grad_xp = grad_xp[:, :, pad : pad + h, pad : pad + w_in]
    return np.ascontiguousarray(grad_xp.transpose(1, 0, 2, 3))


def whole_matrix_filter_grad(grad_out, x, w, stride=1, pad=0):
    """Filter gradient as one GEMM of the (o, n*oh*ow) output gradient
    with the whole transposed (c*kh*kw, n*oh*ow) patch matrix, the
    matrix built one kernel offset at a time from the padded input."""
    n, c, h, w_in = x.shape
    o, _, kh, kw = w.shape
    _, _, oh, ow = grad_out.shape
    s = stride
    padded = np.zeros((n, c, h + 2 * pad, w_in + 2 * pad), dtype=x.dtype)
    padded[:, :, pad : pad + h, pad : pad + w_in] = x
    cols = np.empty((c, kh, kw, n, oh, ow), dtype=x.dtype)
    for u in range(kh):
        for v in range(kw):
            cols[:, u, v] = padded[:, :, u : u + oh * s : s, v : v + ow * s : s].transpose(1, 0, 2, 3)
    g2 = np.ascontiguousarray(grad_out.transpose(1, 0, 2, 3)).reshape(o, n * oh * ow)
    return (g2 @ cols.reshape(c * kh * kw, n * oh * ow).T).reshape(o, c, kh, kw)


def two_pass_batchnorm_train(x, gamma, beta, groups, eps=1e-5):
    """Train-mode group batch norm as the plain formula: (y, xhat, inv_std, mean, var)."""
    n, c, h, w = x.shape
    xg = x.reshape(n, groups, c // groups, h, w)
    mean = xg.mean(axis=(0, 2, 3, 4))
    var = xg.var(axis=(0, 2, 3, 4))
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (xg - mean.reshape(1, groups, 1, 1, 1)) * inv_std.reshape(1, groups, 1, 1, 1)
    y = gamma.reshape(1, groups, 1, 1, 1) * xhat + beta.reshape(1, groups, 1, 1, 1)
    return y.reshape(x.shape), xhat, inv_std, mean, var


def two_pass_batchnorm_train_backward(grad_out, gamma, xhat, inv_std):
    """(grad_x, grad_gamma, grad_beta) of `two_pass_batchnorm_train`, term by term."""
    g = gamma.size
    go = grad_out.reshape(grad_out.shape[0], g, -1)
    xhat = xhat.reshape(go.shape)
    grad_beta = go.sum(axis=(0, 2))
    grad_gamma = (go * xhat).sum(axis=(0, 2))
    m = go.shape[0] * go.shape[2]
    scale = (gamma * inv_std)[:, None]
    grad_xg = scale * (go - (grad_beta / m)[:, None] - xhat * (grad_gamma / m)[:, None])
    return grad_xg.reshape(grad_out.shape), grad_gamma, grad_beta


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
    """Window maxima by explicit loops over every output position. A NaN
    wins its window; otherwise a later entry equal to the running maximum
    replaces it, so a window whose maximum is zero returns its last zero
    in row-major order, +0 or -0 (`conv.max_pool2d`'s rule)."""
    n, c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    out = np.empty((n, c, oh, ow), dtype=x.dtype)
    for b in range(n):
        for ch in range(c):
            for p in range(oh):
                for q in range(ow):
                    window = x[b, ch, p * stride : p * stride + kernel, q * stride : q * stride + kernel].ravel()
                    best = window[0]
                    for value in window[1:]:
                        if best == best and (value != value or value >= best):
                            best = value
                    out[b, ch, p, q] = best
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


def naive_group_pool_max_backward(grad_out, x):
    """Each pixel's gradient onto the first of its group's four channels
    holding the maximum (the first NaN, if any); zero everywhere else."""
    n, c, h, w = x.shape
    grad_x = np.zeros_like(x)
    for b in range(n):
        for g in range(c // 4):
            for u in range(h):
                for v in range(w):
                    best = 4 * g
                    for ch in range(4 * g, 4 * g + 4):
                        if x[b, ch, u, v] != x[b, ch, u, v]:
                            best = ch
                            break
                        if x[b, ch, u, v] > x[b, best, u, v]:
                            best = ch
                    grad_x[b, best, u, v] = grad_out[b, g, u, v]
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


def segment_rule_violation(kinds):
    """Index of the first layer the tied-segment ordering rules reject,
    len(kinds) for a segment never closed, or None for an accepted stack.

    The explicit per-kind chain the rules were first written as: zone
    "pre" until the cycle layer, "dren" inside the segment, "post" after
    the decycle or group-pool terminator.
    """
    dren_kinds = ("cycle", "isotonic", "decycle", "group_pool_max", "group_pool_mean")
    uses_dren = any(kind in dren_kinds for kind in kinds)
    zone = "pre"
    for i, kind in enumerate(kinds):
        if kind == "cycle":
            if zone != "pre":
                return i
            if uses_dren and "conv" in kinds[:i]:
                return i
        elif kind == "isotonic" and zone != "dren":
            return i
        elif kind == "decycle" and zone != "dren":
            return i
        elif kind in ("group_pool_max", "group_pool_mean") and zone != "dren":
            return i
        elif kind == "conv" and zone == "dren":
            return i
        if kind == "cycle":
            zone = "dren"
        elif kind in ("decycle", "group_pool_max", "group_pool_mean"):
            zone = "post"
    return len(kinds) if zone == "dren" else None


def per_image_rotate_dataset_arbitrary(images, seed):
    """`data.rotate_dataset_arbitrary`'s images as one bilinear rotation per image, zero fill."""
    angles = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=len(images))
    out = np.empty_like(images)
    for k, theta in enumerate(angles):
        img = images[k, 0]
        h, w = img.shape
        ci, cj = (h - 1) / 2.0, (w - 1) / 2.0
        jj, ii = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
        di, dj = ii - ci, jj - cj
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        src_i = ci + cos_t * di + sin_t * dj
        src_j = cj - sin_t * di + cos_t * dj
        for src in (src_i, src_j):
            nearest = np.rint(src)
            snap = np.abs(src - nearest) < 1e-9
            src[snap] = nearest[snap]
        i0 = np.floor(src_i).astype(np.int64)
        j0 = np.floor(src_j).astype(np.int64)
        fi, fj = src_i - i0, src_j - j0

        def sample(ia, ja):
            inside = (ia >= 0) & (ia < h) & (ja >= 0) & (ja < w)
            vals = np.zeros_like(src_i)
            vals[inside] = img[ia[inside], ja[inside]]
            return vals

        rotated = (
            sample(i0, j0) * (1 - fi) * (1 - fj)
            + sample(i0, j0 + 1) * (1 - fi) * fj
            + sample(i0 + 1, j0) * fi * (1 - fj)
            + sample(i0 + 1, j0 + 1) * fi * fj
        )
        out[k, 0] = rotated.astype(img.dtype)
    return out


TIED_PRESETS = [name for name in network.PRESETS if any(s.kind in network.TIED_KINDS for s in network.preset_stack(name))]


def random_batchnorm(model, rng):
    """Give every batch norm random statistics and affine parameters, gamma > 0."""
    for i, state in model.state.items():
        shape = state["mean"].shape
        state["mean"] = rng.standard_normal(shape).astype(model.dtype)
        state["var"] = rng.uniform(0.5, 2.0, shape).astype(model.dtype)
        model.params[i]["gamma"] = rng.uniform(0.5, 2.0, shape).astype(model.dtype)
        model.params[i]["beta"] = rng.standard_normal(shape).astype(model.dtype)
    return model


def plain_eval_walk(model, x, kinds=network.KINDS):
    """Eval logits of every layer's own step in `kinds` in turn, each input freed
    as the next layer runs: the walk with no epilogue."""
    h = x.astype(model.dtype, copy=False)
    for i, spec in enumerate(model.specs):
        h = kinds[spec.kind].forward(model, i, h, False, None)[0]
    return h.reshape(h.shape[0], -1)


def plain_train_walk(model, x, rng=None):
    """A train-mode forward that keeps every layer's input and its boolean
    ReLU or dropout mask unpacked: (output, [(input, kept) per layer], new
    state), the output unflattened. It calls the library's layer functions
    (correlation, batch norm, pooling) in the order the layer steps do and
    draws dropout masks from `rng` as `network._keep_mask` does, but keeps
    the batch norms' outputs and never rebuilds one."""
    h = x.astype(model.dtype, copy=False)
    kept, new_state = [], {}
    for i, spec in enumerate(model.specs):
        kind, x_in, extra = spec.kind, h, None
        if network.KINDS[kind].expand is not None:
            h = conv.correlate2d(h, model.expanded_filter(i), conv.ConvGeometry(spec.stride, spec.pad))
        elif kind == "relu":
            extra = h > 0
            h = np.maximum(h, 0)
        elif kind == "dropout":  # one 32-bit word per entry, kept at or above rate * 2**32
            words = rng.bit_generator.random_raw((h.size + 1) // 2).view(np.uint32)[: h.size]
            extra = (words >= np.uint32(min(round(spec.rate * 2**32), 2**32 - 1))).reshape(h.shape)
            h = np.multiply(h, extra)
            h *= np.asarray(1.0 / (1.0 - spec.rate), dtype=model.dtype)
        elif kind == "group_batchnorm":
            h, extra, new_state[i] = eqlayers.GroupBatchNorm.forward(h, model.params[i], model.state[i], True)
        elif kind == "max_pool":
            h, extra = conv.max_pool2d(h, spec.kernel, spec.stride, return_index=True)
        elif kind == "shared_bias":
            h = eqlayers.shared_bias_add(h, model.params[i]["bias"])
        elif kind == "group_pool_max":
            h, extra = eqlayers.group_cross_channel_pool(h, "max", return_index=True)
        elif kind == "group_pool_mean":
            h = eqlayers.group_cross_channel_pool(h, "mean")
        else:
            assert kind == "global_avg_pool", kind
            h = eqlayers.global_spatial_avg_pool(h)
        kept.append((x_in, extra))
    return h, kept, new_state


def plain_train_backward(model, kept, grad_out):
    """{layer: {name: grad}} of `plain_train_walk`'s step for the output
    gradient `grad_out`, every layer's backward run down to the bottom."""
    grads = {}
    g = grad_out
    for i in range(len(model.specs) - 1, -1, -1):
        spec, (x_in, extra) = model.specs[i], kept[i]
        entry = network.KINDS[spec.kind]
        if entry.expand is not None:
            geom = conv.ConvGeometry(spec.stride, spec.pad)
            g, grad_w = conv.correlate2d_backward(g, x_in, model.expanded_filter(i), geom)
            grads[i] = {entry.params[0]: entry.collapse(grad_w)}
        elif spec.kind == "relu":
            g = g * extra
        elif spec.kind == "dropout":
            g = np.multiply(g, extra)
            g *= np.asarray(1.0 / (1.0 - spec.rate), dtype=model.dtype)
        elif spec.kind == "group_batchnorm":
            g, grads[i] = eqlayers.GroupBatchNorm.backward(g, model.params[i], extra)
        elif spec.kind == "max_pool":
            g = conv.max_pool2d_backward(g, extra, x_in.shape, spec.kernel, spec.stride)
        elif spec.kind == "shared_bias":
            grads[i] = {"bias": eqlayers.shared_bias_backward(g)}
        elif spec.kind in ("group_pool_max", "group_pool_mean"):
            g = eqlayers.group_cross_channel_pool_backward(g, extra, spec.kind.rsplit("_", 1)[1])
        else:
            g = eqlayers.global_spatial_avg_pool_backward(g, x_in)
    return grads


def traced_allocation(fn):
    """(fn(), peak bytes the call allocated beyond what was held before it)."""
    tracemalloc.start()
    held = tracemalloc.get_traced_memory()[0]
    result = fn()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return result, peak - held


def fresh_thread_peak(fn):
    """(fn(), traced peak bytes of the call) with fn run in a new thread, whose
    per-thread buffers (`conv`'s forward workspace) start empty and so count."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn()))
    tracemalloc.start()
    try:
        thread.start()
        thread.join()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result) == 1, "fn raised in its thread"
    return result[0], peak
