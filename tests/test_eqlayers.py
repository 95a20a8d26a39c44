import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from roteq import eqlayers, tensor
from roteq.conv import ConvGeometry, correlate2d, correlate2d_backward
from roteq.eqlayers import (
    GroupBatchNorm,
    expand_cycle,
    expand_decycle,
    expand_isotonic,
    global_spatial_avg_pool,
    group_cross_channel_pool,
    group_cross_channel_pool_backward,
    shared_bias_add,
)
from roteq.network import KINDS
from roteq.tensor import cyclic_permute, rotate90

import reference
from reference import max_rel, naive_correlate2d


def R(t, k=1):
    return rotate90(t, k)


def P(t, k=1):
    return cyclic_permute(t, k)


# ---------------------------------------------------------------------------
# expansion


def test_expand_cycle_fixed_1x1():
    p = np.full((1, 1, 1, 1), 5.0)
    w = expand_cycle(p)
    assert w.shape == (4, 1, 1, 1)
    np.testing.assert_array_equal(w.ravel(), [5.0, 5.0, 5.0, 5.0])


def test_expand_cycle_delta_corners():
    base = np.zeros((1, 1, 3, 3))
    base[0, 0, 0, 0] = 1.0  # top-left delta
    w = expand_cycle(base)
    corners = [(0, 0), (2, 0), (2, 2), (0, 2)]  # CCW path of the top-left corner
    for i, (r, c) in enumerate(corners):
        assert w[i, 0, r, c] == 1.0
        assert w[i].sum() == 1.0


def test_expand_cycle_rows_are_successive_rotations(rng):
    p = rng.standard_normal((3, 2, 3, 3))
    w = expand_cycle(p).reshape(3, 4, 2, 3, 3)
    for i in range(1, 4):
        np.testing.assert_array_equal(w[:, i], rotate90(w[:, i - 1], 1))


def test_expand_isotonic_symmetric_base_all_equal(rng):
    base = np.broadcast_to(rng.standard_normal((1, 1, 1, 1, 1)), (1, 4, 1, 1, 1)).copy()
    w = expand_isotonic(base)
    assert w.shape == (4, 4, 1, 1)
    assert np.all(w == base[0, 0, 0, 0, 0])


def test_expand_isotonic_generator_layout(rng):
    # row 0 of each group block is [A, B, C, D] unrotated
    p = rng.standard_normal((2, 4, 3, 3, 3))
    w = expand_isotonic(p).reshape(2, 4, 3, 4, 3, 3)
    for a in range(2):
        for b in range(3):
            for m in range(4):
                np.testing.assert_array_equal(w[a, 0, b, m], p[a, m, b])


def test_expand_isotonic_fixed_point_bit_exact(rng):
    p = rng.standard_normal((1, 4, 1, 3, 3))
    w = expand_isotonic(p).reshape(1, 4, 1, 4, 3, 3)
    # shift both cyclic indices by one, rotate every entry once
    drw = np.empty_like(w)
    for j in range(4):
        for i in range(4):
            drw[:, j, :, i] = np.rot90(w[:, (j - 1) % 4, :, (i - 1) % 4], 1, axes=(-2, -1))
    np.testing.assert_array_equal(w, drw)


def test_isotonic_parameter_count_quarter():
    p = np.zeros((1, 4, 1, 3, 3))
    assert p.size == 36
    assert expand_isotonic(p).size == 144
    assert p.size * 4 == expand_isotonic(p).size


def test_expand_decycle_mean_pooling_base(rng):
    p = np.full((1, 1, 1, 1), 0.25)
    x = rng.standard_normal((2, 4, 5, 5))
    np.testing.assert_allclose(
        correlate2d(x, expand_decycle(p)),
        group_cross_channel_pool(x, "mean"),
        rtol=1e-15,
        atol=1e-15,
    )


def test_expand_decycle_columns_are_successive_rotations(rng):
    p = rng.standard_normal((3, 2, 3, 3))
    w = expand_decycle(p).reshape(3, 2, 4, 3, 3)
    for j in range(1, 4):
        np.testing.assert_array_equal(
            w[:, :, j], np.rot90(w[:, :, j - 1], 1, axes=(-2, -1))
        )


def test_expand_decycle_delta_base_hand_expanded(rng):
    base = np.zeros((1, 1, 3, 3))
    base[0, 0, 0, 1] = 1.0
    x = rng.standard_normal((1, 4, 6, 6))
    want = np.zeros((1, 1, 4, 4))
    for j in range(4):
        rotated = np.rot90(base[0, 0], j)
        want += naive_correlate2d(x[:, j : j + 1], rotated.reshape(1, 1, 3, 3))
    np.testing.assert_allclose(correlate2d(x, expand_decycle(base)), want, rtol=1e-13, atol=1e-13)


# ---------------------------------------------------------------------------
# layer identities


@pytest.mark.parametrize("kernel", [1, 3])
@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_cycle_identity(rng, kernel, dtype, tol):
    for _ in range(10):
        g = int(rng.integers(1, 4))
        size = int(rng.integers(max(4, kernel), 13))
        x = rng.standard_normal((2, 2, size, size)).astype(dtype)
        p = rng.standard_normal((g, 2, kernel, kernel)).astype(dtype)
        lhs = correlate2d(R(x), expand_cycle(p))
        rhs = R(P(correlate2d(x, expand_cycle(p))))
        assert max_rel(lhs, rhs) <= tol


@pytest.mark.parametrize("kernel", [1, 3])
@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_isotonic_identity(rng, kernel, dtype, tol):
    for _ in range(10):
        g_in, g_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        size = int(rng.integers(max(4, kernel), 13))
        x = rng.standard_normal((2, 4 * g_in, size, size)).astype(dtype)
        p = rng.standard_normal((g_out, 4, g_in, kernel, kernel)).astype(dtype)
        lhs = correlate2d(R(P(x)), expand_isotonic(p))
        rhs = R(P(correlate2d(x, expand_isotonic(p))))
        assert max_rel(lhs, rhs) <= tol


@pytest.mark.parametrize("kernel", [1, 3])
@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_decycle_identity(rng, kernel, dtype, tol):
    for _ in range(10):
        g_in = int(rng.integers(1, 4))
        size = int(rng.integers(max(4, kernel), 13))
        x = rng.standard_normal((2, 4 * g_in, size, size)).astype(dtype)
        p = rng.standard_normal((5, g_in, kernel, kernel)).astype(dtype)
        lhs = correlate2d(R(P(x)), expand_decycle(p))
        rhs = R(correlate2d(x, expand_decycle(p)))
        assert max_rel(lhs, rhs) <= tol


def test_composition_identity_with_interleaved_layers(rng):
    # cycle -> k isotonic -> decycle with relu/shared bias/eval batchnorm between
    for k_iso in range(4):
        g = 2
        x = rng.standard_normal((2, 1, 9, 9))
        p_c = rng.standard_normal((g, 1, 3, 3))
        isos = [rng.standard_normal((g, 4, g, 3, 3)) for _ in range(k_iso)]
        p_d = rng.standard_normal((3, g, 1, 1))
        bias = rng.standard_normal(g)
        bn = GroupBatchNorm
        bp = {"gamma": rng.standard_normal(g), "beta": rng.standard_normal(g)}
        bs = {"mean": rng.standard_normal(g), "var": rng.uniform(0.5, 2.0, g)}

        def f(inp):
            h = correlate2d(inp, expand_cycle(p_c))
            h = shared_bias_add(h, bias)
            h = np.maximum(h, 0)
            for pi in isos:
                h = correlate2d(h, expand_isotonic(pi))
                h, _, _ = bn.forward(h, bp, bs, train=False)
                h = np.maximum(h, 0)
            return correlate2d(h, expand_decycle(p_d))

        assert max_rel(f(R(x)), R(f(x))) <= 1e-12


def test_kernel_must_be_square():
    with pytest.raises(ValueError, match="square"):
        expand_cycle(np.zeros((1, 1, 2, 3)))
    with pytest.raises(ValueError, match="square"):
        expand_isotonic(np.zeros((1, 4, 1, 3, 2)))
    with pytest.raises(ValueError, match="rank 4"):
        expand_decycle(np.zeros((1, 1, 3)))
    with pytest.raises(ValueError, match=r"\(g_out, 4, g_in, k, k\)"):
        expand_isotonic(np.zeros((1, 3, 1, 3, 3)))


@st.composite
def tied_cases(draw):
    kind = draw(st.sampled_from(("cycle", "isotonic", "decycle")))
    a, b, k = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    shape = (a, 4, b, k, k) if kind == "isotonic" else (a, b, k, k)
    return kind, shape, draw(st.sampled_from((np.float32, np.float64))), draw(st.integers(0, 2**32 - 1))


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@seed(20240817)
@settings(max_examples=60, deadline=None, database=None)
@given(case=tied_cases())
@example(case=("cycle", (5, 1, 3, 3), np.float32, 1))  # dren-z2cnn-shape's tied layers
@example(case=("isotonic", (5, 4, 5, 3, 3), np.float32, 3))
@example(case=("decycle", (10, 5, 4, 4), np.float32, 5))
@example(case=("cycle", (5, 3, 3, 3), np.float64, 2))
@example(case=("isotonic", (8, 4, 8, 1, 1), np.float64, 4))  # bench-nin-shape's 1x1 layers
def test_tied_table_matches_loop_reference_bit_for_bit(case):
    kind, shape, dtype, draw_seed = case
    rng = np.random.default_rng(draw_seed)
    base = rng.standard_normal(shape).astype(dtype)
    bank = getattr(eqlayers, f"expand_{kind}")(base)
    assert_same_array(bank, getattr(reference, f"naive_expand_{kind}")(base))
    grad = rng.standard_normal(bank.shape).astype(dtype)
    grad[rng.random(grad.shape) < 0.2] = -0.0  # signed zeros keep their sum order visible
    assert_same_array(
        getattr(eqlayers, f"collapse_{kind}_grad")(grad),
        getattr(reference, f"naive_collapse_{kind}_grad")(grad),
    )
    gather, _ = eqlayers._tying(kind, shape)
    assert (np.bincount(gather.ravel(), minlength=base.size) == 4).all()


# ---------------------------------------------------------------------------
# tied gradients


def tied_backward(kind, p, x, grad_out):
    """(grad_x, grad_base) of a tied layer, the way network.backward takes them."""
    grad_x, grad_w = correlate2d_backward(grad_out, x, KINDS[kind].expand(p))
    return grad_x, KINDS[kind].collapse(grad_w)


def test_tied_backward_zero_grad(rng):
    x = rng.standard_normal((1, 4, 6, 6))
    p = rng.standard_normal((1, 4, 1, 3, 3))
    y = correlate2d(x, expand_isotonic(p))
    gx, gb = tied_backward("isotonic", p, x, np.zeros_like(y))
    assert not gx.any() and not gb.any()


def test_tied_backward_cycle_1x1_sums_channels(rng):
    x = rng.standard_normal((2, 3, 5, 5))
    p = rng.standard_normal((2, 3, 1, 1))
    g = rng.standard_normal((2, 8, 5, 5))
    _, gb = tied_backward("cycle", p, x, g)
    # 1x1 kernels are rotation-fixed: base grad is the plain sum of the
    # four expanded channel gradients
    _, gw = correlate2d_backward(g, x, expand_cycle(p))
    np.testing.assert_allclose(gb, gw.reshape(2, 4, 3, 1, 1).sum(axis=1), rtol=1e-12)


@pytest.mark.parametrize("kind", ["cycle", "isotonic", "decycle"])
def test_tied_backward_matches_finite_differences(rng, kind):
    x = rng.standard_normal((2, 4, 6, 6))
    if kind == "cycle":
        p = rng.standard_normal((2, 4, 3, 3))
        fwd = lambda b: correlate2d(x, expand_cycle(b))
    elif kind == "isotonic":
        p = rng.standard_normal((2, 4, 1, 3, 3))
        fwd = lambda b: correlate2d(x, expand_isotonic(b))
    else:
        p = rng.standard_normal((3, 1, 3, 3))
        fwd = lambda b: correlate2d(x, expand_decycle(b))

    y = fwd(p)
    g = rng.standard_normal(y.shape)
    _, gb = tied_backward(kind, p, x, g)
    eps = 1e-5
    flat = p.reshape(-1)
    for j in rng.choice(flat.size, size=12, replace=False):
        orig = flat[j]
        flat[j] = orig + eps
        hi = float((fwd(p) * g).sum())
        flat[j] = orig - eps
        lo = float((fwd(p) * g).sum())
        flat[j] = orig
        fd = (hi - lo) / (2 * eps)
        assert abs(fd - gb.reshape(-1)[j]) / max(abs(fd) + abs(gb.reshape(-1)[j]), 1e-8) < 1e-6


def test_tied_backward_grad_x_adjoint(rng):
    x = rng.standard_normal((2, 4, 6, 6))
    p = rng.standard_normal((3, 1, 3, 3))
    y = correlate2d(x, expand_decycle(p))
    g = rng.standard_normal(y.shape)
    gx, _ = tied_backward("decycle", p, x, g)
    assert abs(np.vdot(y, g) - np.vdot(x, gx)) / abs(np.vdot(y, g)) < 1e-10


# ---------------------------------------------------------------------------
# pooling, bias, batch norm


def test_group_pool_values():
    x = np.arange(1, 5, dtype=float).reshape(1, 4, 1, 1)
    assert group_cross_channel_pool(x, "mean").ravel()[0] == 2.5
    assert group_cross_channel_pool(x, "max").ravel()[0] == 4.0
    with pytest.raises(ValueError):
        group_cross_channel_pool(x, "median")
    with pytest.raises(ValueError, match="mean mode keeps no index"):
        group_cross_channel_pool(x, "mean", return_index=True)


def test_group_pool_permutation_invariant(rng):
    x = rng.standard_normal((2, 8, 4, 4))
    np.testing.assert_array_equal(
        group_cross_channel_pool(P(x), "max"), group_cross_channel_pool(x, "max")
    )
    # mean sums the permuted channels in a different order: equal to the ulp
    np.testing.assert_allclose(
        group_cross_channel_pool(P(x), "mean"),
        group_cross_channel_pool(x, "mean"),
        rtol=1e-15,
        atol=1e-15,
    )


@pytest.mark.parametrize("mode", ["max", "mean"])
def test_group_pool_decycle_style_identity(rng, mode):
    x = rng.standard_normal((2, 8, 5, 5))
    lhs = group_cross_channel_pool(R(P(x)), mode)
    rhs = R(group_cross_channel_pool(x, mode))
    assert max_rel(lhs, rhs) < 1e-15


@seed(20261019)
@settings(max_examples=80, deadline=None, database=None)
@given(
    n=st.integers(1, 3),
    groups=st.integers(1, 3),
    h=st.integers(1, 4),
    w=st.integers(1, 4),
    dtype=st.sampled_from((np.float32, np.float64)),
    draw_seed=st.integers(0, 2**32 - 1),
)
def test_group_pool_backward_at_ties_and_nan_matches_loop_reference(n, groups, h, w, dtype, draw_seed):
    # inputs drawn from six values, so groups often tie, hold +0 beside -0, or hold NaN
    rng = np.random.default_rng(draw_seed)
    x = rng.choice([0.0, -0.0, 1.0, -1.0, 2.5, np.nan], size=(n, 4 * groups, h, w)).astype(dtype)
    go = rng.standard_normal((n, groups, h, w)).astype(dtype)
    out, index = group_cross_channel_pool(x, "max", return_index=True)
    assert out.tobytes() == group_cross_channel_pool(x, "max").tobytes()
    # numpy's reduction gives the same bytes, tied zeros and NaN included
    assert out.tobytes() == x.reshape(n, groups, 4, h, w).max(axis=2).tobytes()
    assert index.dtype == np.uint8 and index.shape == go.shape
    assert index.tobytes() == reference.naive_group_pool_first_max(x).tobytes()
    got = group_cross_channel_pool_backward(go, index, "max")
    assert got.dtype == dtype and got.shape == x.shape
    np.testing.assert_array_equal(got, reference.naive_group_pool_max_backward(go, x))
    mean = group_cross_channel_pool_backward(go, None, "mean")
    assert mean.dtype == dtype
    np.testing.assert_array_equal(mean, np.repeat(go / 4, 4, axis=1))


def test_group_pool_max_backward_needs_the_forward_index():
    go = np.ones((1, 2, 3, 3))
    for index in (None, np.zeros((1, 2, 3, 1), np.uint8)):
        with pytest.raises(ValueError, match=re.escape("the forward's index, of shape (1, 2, 3, 3)")):
            group_cross_channel_pool_backward(go, index, "max")


@pytest.mark.parametrize(
    "index,message",
    [
        (np.array([0, 7], np.uint8), "offset 7, past the 4 slots of a group"),
        (np.array([0, -1], np.int8), "cannot hold the offsets 0..3"),
        (np.array([0.0, 1.0]), "cannot hold the offsets 0..3"),
    ],
    ids=["past-slot-3", "signed", "float"],
)
def test_group_pool_max_backward_rejects_an_index_it_cannot_route_by(index, message):
    # an unchecked slot 7 would drop the second pixel's gradient
    with pytest.raises(ValueError, match=message):
        group_cross_channel_pool_backward(np.ones((1, 1, 1, 2)), index.reshape(1, 1, 1, 2), "max")


def test_group_pool_backward_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown pooling mode 'median'"):
        group_cross_channel_pool_backward(np.ones((1, 1, 2, 2)), None, "median")


def test_global_pool_constant_and_invariance(rng):
    const = np.full((2, 3, 4, 4), 1.75)
    np.testing.assert_array_equal(global_spatial_avg_pool(const), np.full((2, 3, 1, 1), 1.75))
    x = rng.standard_normal((2, 3, 5, 5))
    np.testing.assert_allclose(
        global_spatial_avg_pool(rotate90(x)), global_spatial_avg_pool(x), rtol=1e-13
    )


def test_full_stack_logit_invariance(rng):
    # random weights, full stack ending in global pooling: logits match under R
    x = rng.standard_normal((3, 1, 9, 9))
    p_c = rng.standard_normal((2, 1, 3, 3))
    p_i = rng.standard_normal((2, 4, 2, 3, 3))
    p_d = rng.standard_normal((7, 2, 3, 3))

    def logits(inp):
        h = np.maximum(correlate2d(inp, expand_cycle(p_c)), 0)
        h = np.maximum(correlate2d(h, expand_isotonic(p_i)), 0)
        return global_spatial_avg_pool(correlate2d(h, expand_decycle(p_d)))[:, :, 0, 0]

    base = logits(x)
    for k in range(4):
        lk = logits(rotate90(x, k))
        assert max_rel(base, lk) < 1e-12
        np.testing.assert_array_equal(np.argmax(lk, 1), np.argmax(base, 1))


def test_shared_bias(rng):
    x = rng.standard_normal((2, 8, 3, 3))
    np.testing.assert_array_equal(shared_bias_add(x, np.zeros(2)), x)
    bias = rng.standard_normal(2)
    np.testing.assert_array_equal(
        shared_bias_add(P(x), bias), P(shared_bias_add(x, bias))
    )
    with pytest.raises(ValueError):
        shared_bias_add(x, np.zeros(3))


def test_isotonic_identity_with_bias(rng):
    g = 2
    x = rng.standard_normal((2, 4 * g, 8, 8))
    p = rng.standard_normal((g, 4, g, 3, 3))
    bias = rng.standard_normal(g)
    f = lambda t: shared_bias_add(correlate2d(t, expand_isotonic(p)), bias)
    assert max_rel(f(R(P(x))), R(P(f(x)))) <= 1e-12


def test_batchnorm_constant_input_returns_shift(rng):
    bn = GroupBatchNorm
    x = np.full((3, 8, 4, 4), 3.0)
    params = {"gamma": np.array([2.0, 3.0]), "beta": np.array([0.5, -1.0])}
    state = {"mean": np.zeros(2), "var": np.ones(2)}
    y, _, _ = bn.forward(x, params, state, train=True)
    np.testing.assert_allclose(y[:, :4], 0.5, atol=1e-6)
    np.testing.assert_allclose(y[:, 4:], -1.0, atol=1e-6)


def test_batchnorm_permutation_and_rotation_equivariance(rng):
    bn = GroupBatchNorm
    x = rng.standard_normal((4, 8, 5, 5))
    params = {"gamma": rng.standard_normal(2), "beta": rng.standard_normal(2)}
    state = {"mean": rng.standard_normal(2), "var": rng.uniform(0.5, 2.0, 2)}
    for train in (True, False):
        yp, _, _ = bn.forward(P(x), params, state, train)
        y, _, _ = bn.forward(x, params, state, train)
        assert max_rel(yp, P(y)) < 1e-12
    y_rot, _, _ = bn.forward(R(x), params, state, False)
    np.testing.assert_array_equal(y_rot, R(y))


def test_batchnorm_reads_its_group_size_off_its_input(rng):
    bn = GroupBatchNorm
    params = {"gamma": np.array([2.0, 3.0]), "beta": np.array([0.5, -1.0])}
    state = {"mean": np.zeros(2), "var": np.ones(2)}
    for c in (2, 8):  # per-channel, then groups of 4
        x = rng.standard_normal((3, c, 4, 4))
        y, _, _ = bn.forward(x, params, state, train=False)
        want = x * np.repeat(params["gamma"], c // 2)[:, None, None] / np.sqrt(1 + bn.eps)
        assert max_rel(y, want + np.repeat(params["beta"], c // 2)[:, None, None]) <= 1e-15
    for train in (True, False):
        with pytest.raises(ValueError, match="7 channels do not split into 2 equal groups"):
            bn.forward(rng.standard_normal((3, 7, 4, 4)), params, state, train)


def test_batchnorm_running_stats_update(rng):
    bn = GroupBatchNorm
    x = rng.standard_normal((8, 4, 3, 3))
    state = {"mean": np.zeros(1), "var": np.ones(1)}
    params = {"gamma": np.ones(1), "beta": np.zeros(1)}
    _, _, new_state = bn.forward(x, params, state, train=True)
    np.testing.assert_allclose(new_state["mean"], GroupBatchNorm.momentum * x.mean(), rtol=1e-12)
    assert state["mean"][0] == 0.0  # input state untouched


def eval_batchnorm_case(rng, dtype):
    bn = GroupBatchNorm
    x = (rng.standard_normal((8, 20, 13, 13)) * 3.0 + 1.0).astype(dtype)
    params = {"gamma": rng.uniform(0.5, 2.0, 5).astype(dtype), "beta": rng.standard_normal(5).astype(dtype)}
    state = {"mean": rng.standard_normal(5).astype(dtype), "var": rng.uniform(0.5, 2.0, 5).astype(dtype)}
    return bn, x, params, state


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_eval_batchnorm_is_one_scale_and_shift(rng, dtype, tol):
    bn, x, params, state = eval_batchnorm_case(rng, dtype)
    before = x.copy()
    y, _, new_state = bn.forward(x, params, state, train=False)
    assert y.dtype == dtype and y.shape == x.shape
    assert x.tobytes() == before.tobytes()
    assert new_state is None
    # the two-pass formula gamma * (x - mean) / sqrt(var + eps) + beta, in float64
    g = (1, 5, 1, 1, 1)
    mean, var = (state[k].astype(np.float64).reshape(g) for k in ("mean", "var"))
    gamma, beta = (params[k].astype(np.float64).reshape(g) for k in ("gamma", "beta"))
    xhat = (x.astype(np.float64).reshape(8, 5, 4, 13, 13) - mean) / np.sqrt(var + bn.eps)
    assert max_rel(y, (gamma * xhat + beta).reshape(x.shape)) <= tol


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_eval_batchnorm_shift_is_never_minus_zero(dtype):
    # beta - mean*a is -0 for beta = -0 and mean*a = +0; adding +0 makes that
    # +0 and leaves every other shift's bytes, so the eval map returns no -0
    bn = eqlayers.GroupBatchNorm
    params = {"gamma": np.array([1.0, -1.0, 2.0, 0.5], dtype=dtype), "beta": np.array([-0.0, -0.0, 0.0, 0.3], dtype=dtype)}
    state = {"mean": np.array([0.0, 0.0, -0.0, 1.5], dtype=dtype), "var": np.ones(4, dtype=dtype)}
    a, b = bn.affine(params, state)
    want = params["beta"] - state["mean"] * a
    assert np.signbit(want).tolist() == [True, False, False, True]
    assert b.dtype == dtype and b.tolist() == want.tolist() and not np.signbit(b[:3]).any()
    assert b[3].tobytes() == want[3].tobytes()
    y, _, _ = bn.forward(np.array([-0.0, 0.0, -0.0, 0.0], dtype=dtype).reshape(1, 4, 1, 1), params, state, train=False)
    assert not np.signbit(y[:, :3]).any()


def test_eval_batchnorm_allocates_only_its_output(rng):
    bn, _, params, state = eval_batchnorm_case(rng, np.float32)
    x = rng.standard_normal((64, 20, 26, 26), dtype=np.float32)  # a dren-z2cnn-shape activation
    tracemalloc.start()
    y, cache, _ = bn.forward(x, params, state, train=False)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 1.1 * y.nbytes, (peak, y.nbytes)
    assert cache is None  # eval mode keeps nothing for a backward pass


@seed(20240817)
@settings(max_examples=60, deadline=None, database=None)
@given(
    n=st.integers(1, 6),
    groups=st.integers(1, 3),
    group_size=st.sampled_from((1, 4)),
    h=st.integers(1, 7),
    w=st.integers(1, 7),
    dtype=st.sampled_from((np.float32, np.float64)),
    draw_seed=st.integers(0, 2**32 - 1),
)
@example(n=64, groups=5, group_size=4, h=26, w=26, dtype=np.float32, draw_seed=1)  # dren-z2cnn-shape L3
@example(n=64, groups=20, group_size=1, h=24, w=24, dtype=np.float64, draw_seed=2)  # z2cnn-shape, per channel
# grad_gamma folds per-image row sums in image order, or with one group
# splits numpy's flat pairwise sum, over chunks of images
@example(n=1, groups=3, group_size=4, h=5, w=5, dtype=np.float32, draw_seed=3)
@example(n=7, groups=1, group_size=1, h=26, w=26, dtype=np.float64, draw_seed=4)
@example(n=256, groups=3, group_size=4, h=12, w=12, dtype=np.float32, draw_seed=5)
@example(n=256, groups=1, group_size=4, h=12, w=12, dtype=np.float64, draw_seed=6)
def test_train_batchnorm_matches_two_pass_formula_bit_for_bit(n, groups, group_size, h, w, dtype, draw_seed):
    rng = np.random.default_rng(draw_seed)
    bn = GroupBatchNorm
    x = (rng.standard_normal((n, groups * group_size, h, w)) * 3.0 + 1.0).astype(dtype)
    params = {"gamma": rng.uniform(0.5, 2.0, groups).astype(dtype), "beta": rng.standard_normal(groups).astype(dtype)}
    state = {"mean": rng.standard_normal(groups).astype(dtype), "var": rng.uniform(0.5, 2.0, groups).astype(dtype)}
    go = rng.standard_normal(x.shape).astype(dtype)
    go[rng.random(x.shape) < 0.2] = -0.0
    before, go_before = x.tobytes(), go.tobytes()
    y, cache, new_state = bn.forward(x, params, state, train=True)
    xhat = cache["xhat"].copy()  # the backward writes its input gradient over it
    gx, gp = bn.backward(go, params, cache)
    assert np.shares_memory(gx, cache["xhat"]) and go.tobytes() == go_before
    want_y, want_xhat, want_inv_std, mean, var = reference.two_pass_batchnorm_train(
        x, params["gamma"], params["beta"], groups, bn.eps
    )
    want_gx, want_gamma, want_beta = reference.two_pass_batchnorm_train_backward(
        go, params["gamma"], want_xhat, want_inv_std
    )
    m = bn.momentum
    want_state = {"mean": (1 - m) * state["mean"] + m * mean, "var": (1 - m) * state["var"] + m * var}
    pairs = [(y, want_y), (xhat, want_xhat), (cache["inv_std"], want_inv_std), (gx, want_gx)]
    pairs += [(gp["gamma"], want_gamma), (gp["beta"], want_beta)]
    pairs += [(new_state[k], want_state[k]) for k in ("mean", "var")]
    for got, want in pairs:
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
    assert x.tobytes() == before


@pytest.mark.parametrize("groups", [5, 1])
def test_train_batchnorm_forms_no_full_size_temporary(rng, groups):
    # forward writes xhat over a spent input given as `out`, so it allocates
    # its output and per-group values only; backward writes grad_x over xhat
    # and forms the products of grad_gamma and the difference a chunk at a time
    x = rng.standard_normal((64, 20, 24, 24), dtype=np.float32)  # dren-z2cnn-shape's L7 input
    params = {"gamma": rng.uniform(0.5, 2.0, groups).astype(np.float32), "beta": np.zeros(groups, np.float32)}
    state = {"mean": np.zeros(groups, np.float32), "var": np.ones(groups, np.float32)}
    (y, cache, _), allocated = reference.traced_allocation(lambda: GroupBatchNorm.forward(x, params, state, True, out=x))
    slack = 1 << 16  # per-group values and numpy's reduction buffers
    assert np.shares_memory(cache["xhat"], x) and allocated <= y.nbytes + slack, (allocated, y.nbytes)
    go = rng.standard_normal(x.shape, dtype=np.float32)
    (gx, _), allocated = reference.traced_allocation(lambda: GroupBatchNorm.backward(go, params, cache))
    assert np.shares_memory(gx, x) and allocated <= tensor.CHUNK_BYTES + slack, allocated


@pytest.mark.parametrize("group_size", [4, 1])
def test_batchnorm_backward_matches_finite_differences(rng, group_size):
    bn, groups = GroupBatchNorm, 8 // group_size
    x = rng.standard_normal((3, 8, 4, 4)) * 2.0 + 0.5
    params = {"gamma": rng.uniform(0.5, 2.0, groups), "beta": rng.standard_normal(groups)}
    state = {"mean": rng.standard_normal(groups), "var": rng.uniform(0.5, 2.0, groups)}
    r = rng.standard_normal(x.shape)

    def loss():
        y, _, _ = bn.forward(x, params, state, train=True)
        return float((y * r).sum())

    _, cache, _ = bn.forward(x, params, state, train=True)
    gx, gp = bn.backward(r, params, cache)
    assert gx.shape == x.shape
    eps = 1e-6
    checks = [(x, gx, rng.choice(x.size, size=12, replace=False))]
    checks += [(params[k], gp[k], range(groups)) for k in ("gamma", "beta")]
    for arr, grad, idx in checks:
        flat = arr.reshape(-1)
        for j in idx:
            orig = flat[j]
            flat[j] = orig + eps
            hi = loss()
            flat[j] = orig - eps
            lo = loss()
            flat[j] = orig
            fd = (hi - lo) / (2 * eps)
            assert abs(fd - grad.reshape(-1)[j]) <= 1e-6 * max(abs(fd), 1.0)


def test_argmax_invariance_with_tie_break(rng):
    # equal logits tie-break to the lowest index on both sides
    logits = np.array([[0.5, 0.5, 0.1]])
    assert np.argmax(logits, axis=1)[0] == 0
