import dataclasses
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from roteq import bench, cli, conv, data, eqlayers, network
from roteq.eqlayers import GroupBatchNorm
from roteq.network import (
    KIND_ALIASES,
    KINDS,
    LAYER_TOKENS,
    PRESETS,
    LayerSpec,
    ModelSpecError,
    TrainConfig,
    backward,
    build_model,
    evaluate,
    finite_diff_check,
    forward,
    parse_layer_stack,
    predict,
    preset_stack,
    softmax_cross_entropy,
    train,
)
from roteq.oracle import relative_deviation
from roteq.tensor import rotate90

import reference


def dren_small_linear():
    return [
        LayerSpec("cycle", width=5, kernel=3),
        LayerSpec("isotonic", width=5, kernel=3),
        LayerSpec("isotonic", width=5, kernel=3),
        LayerSpec("decycle", width=10, kernel=3),
        LayerSpec("global_avg_pool"),
    ]


# ---------------------------------------------------------------------------
# building and counting


def test_dren_small_parameter_count():
    model = build_model(preset_stack("dren-small"), in_channels=1, seed=0)
    # hand count: cycle 5*1*9, two isotonic 5*4*5*9, decycle 10*5*9
    assert model.num_parameters == 45 + 900 + 900 + 450 == 2295


def test_plain_counterpart_is_four_times():
    dren = build_model(preset_stack("dren-small"), in_channels=1, seed=0)
    plain = build_model(preset_stack("cnn-small"), in_channels=1, seed=0)
    assert plain.num_parameters == 4 * dren.num_parameters


def test_z2cnn_shape_parameter_count():
    model = build_model(preset_stack("z2cnn-shape"), in_channels=1, seed=0, input_size=28)
    # six 3x3 conv layers at 20 channels, a 4x4 head to 10 classes, and
    # per-channel batch norm scale+shift after each of the six body layers
    convs = 20 * 1 * 9 + 5 * (20 * 20 * 9) + 10 * 20 * 16
    bn = 6 * (20 + 20)
    assert convs == 21380 and model.num_parameters == convs + bn == 21620
    assert round(model.num_parameters / 1000) == 22  # the commonly quoted "22k"


def test_empty_stack_rejected():
    with pytest.raises(ModelSpecError, match="empty"):
        build_model([])


def test_ordering_violations():
    with pytest.raises(ModelSpecError, match="isotonic"):
        build_model([LayerSpec("isotonic", width=1, kernel=3)])
    with pytest.raises(ModelSpecError, match="cycle"):
        build_model([LayerSpec("decycle", width=4, kernel=3)])
    with pytest.raises(
        ModelSpecError,
        match="layer 1: cycle after untied conv layer 0; no untied conv may precede the tied segment",
    ):
        build_model(
            [
                LayerSpec("conv", width=4, kernel=3),
                LayerSpec("cycle", width=1, kernel=3),
            ]
        )
    # a per-channel batch norm commutes with quarter turns, so it may precede the segment
    model = build_model(parse_layer_stack("bn,cycle:g1:k3,decycle:c4:k1,gap"))
    assert model.parameter_counts()[0] == 2
    with pytest.raises(ModelSpecError):  # tied layer after the terminator
        build_model(
            [
                LayerSpec("cycle", width=1, kernel=3),
                LayerSpec("decycle", width=4, kernel=3),
                LayerSpec("isotonic", width=1, kernel=3),
            ]
        )
    with pytest.raises(ModelSpecError, match="inside"):
        build_model(
            [
                LayerSpec("cycle", width=1, kernel=3),
                LayerSpec("conv", width=4, kernel=3),
                LayerSpec("decycle", width=4, kernel=3),
            ]
        )
    with pytest.raises(ModelSpecError, match="terminated"):
        build_model(
            [
                LayerSpec("cycle", width=1, kernel=3),
                LayerSpec("isotonic", width=1, kernel=3),
                LayerSpec("global_avg_pool"),
            ]
        )


def test_conv_head_after_decycle_allowed():
    model = build_model(
        [
            LayerSpec("cycle", width=2, kernel=3),
            LayerSpec("decycle", width=8, kernel=3),
            LayerSpec("conv", width=10, kernel=3),
            LayerSpec("global_avg_pool"),
        ],
        in_channels=1,
    )
    assert model.channels[-1] == 10


def test_stride_condition_warning():
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        build_model(
            [
                LayerSpec("cycle", width=1, kernel=2, stride=2),
                LayerSpec("group_pool_max"),
                LayerSpec("global_avg_pool"),
            ],
            input_size=7,
        )
    assert any("equivariance" in str(w.message) for w in rec)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        build_model(preset_stack("dren-z2cnn-shape"), input_size=28)
    assert not rec  # the 28x28 stack satisfies the condition everywhere


# one grammar item per kind, sized so that only the segment rules can reject
_SEGMENT_ITEMS = {
    "cycle": "cycle:g2:k1",
    "isotonic": "isotonic:g1:k1",
    "decycle": "decycle:c4:k1",
    "group_pool_max": "gpmax",
    "group_pool_mean": "gpmean",
    "conv": "conv:c4:k1",
    "relu": "relu",
    "group_batchnorm": "bn",
    "global_avg_pool": "gap",
}


@seed(20261018)
@settings(max_examples=400, deadline=None, database=None)
@given(kinds=st.lists(st.sampled_from(sorted(_SEGMENT_ITEMS)), min_size=1, max_size=8))
@example(kinds=["cycle", "relu", "group_pool_max", "conv", "relu", "conv", "global_avg_pool"])
@example(kinds=["group_batchnorm", "cycle", "isotonic", "decycle", "conv", "global_avg_pool"])
@example(kinds=["conv", "relu", "cycle", "decycle"])
@example(kinds=["cycle", "decycle", "cycle", "decycle"])
@example(kinds=["cycle", "group_pool_mean", "isotonic"])
@example(kinds=["cycle", "conv", "decycle"])
@example(kinds=["cycle", "isotonic", "global_avg_pool"])
@example(kinds=["conv", "decycle"])
def test_segment_rules_match_the_per_kind_reference(kinds):
    specs = parse_layer_stack(",".join(_SEGMENT_ITEMS[kind] for kind in kinds))
    want = reference.segment_rule_violation(kinds)
    try:
        network.plan_layers(specs, in_channels=1)
    except ModelSpecError as exc:
        at = re.match(r"layer (\d+): ", str(exc))
        if at is None:
            assert "never terminated" in str(exc), exc
        assert (int(at.group(1)) if at else len(kinds)) == want, exc
    else:
        assert want is None


# ---------------------------------------------------------------------------
# the layer grammar


@pytest.mark.parametrize(
    "text,message",
    [
        ("conv:c4:k3:r0.5", "conv takes no rate: token 'r0.5' in 'conv:c4:k3:r0.5'"),
        ("cycle:g2:k3,bn:c8,decycle:c2:k1", "group_batchnorm takes no width: token 'c8' in 'bn:c8'"),
        ("conv:c2:k1,gpmean:s2", "group_pool_mean takes no stride: token 's2' in 'gpmean:s2'"),
    ],
)
def test_grammar_rejects_tokens_the_kind_does_not_read(text, message):
    with pytest.raises(ModelSpecError) as exc:
        parse_layer_stack(text)
    assert str(exc.value) == message


_GRAMMAR_WORDS = sorted(set(KINDS) | set(KIND_ALIASES)) + ["@" + name for name in PRESETS]
_GRAMMAR_ALPHABET = "".join(
    sorted(set("".join(_GRAMMAR_WORDS)) | set(LAYER_TOKENS) | set("0123456789.-+e:,@ "))
)


@st.composite
def grammar_texts(draw):
    """Stack text over the grammar's alphabet: free strings, or items of real kinds and tokens."""
    if draw(st.booleans()):
        return draw(st.text(alphabet=_GRAMMAR_ALPHABET, max_size=60))
    odd_numbers = st.one_of(st.floats().map(str), st.text("0123456789.-e", max_size=4))
    items = []
    for word in draw(st.lists(st.sampled_from(_GRAMMAR_WORDS), min_size=1, max_size=6)):
        kind = KINDS.get(KIND_ALIASES.get(word, word))
        read = [c for c, (field, _) in LAYER_TOKENS.items() if kind and field in kind.reads]
        # mostly small integers in tokens the kind reads, so that many draws parse
        fair = draw(st.integers(0, 4)) > 0
        letters = read if read and fair else sorted(LAYER_TOKENS)
        number = st.integers(-3, 40).map(str) if fair else odd_numbers
        token = st.builds(str.__add__, st.sampled_from(letters), number)
        items.append(":".join([word, *draw(st.lists(token, max_size=4 if read else int(not fair)))]))
    return ",".join(items)


@seed(20240817)
@settings(max_examples=300, deadline=None, database=None)
@given(text=grammar_texts())
@example(text="@dren-z2cnn-shape")
@example(text="conv:c1_0:k3")  # int() takes digit-group underscores
@example(text="dropout:rnan,dropout:r-inf")
@example(text="cycle:g" + "9" * 5000)  # past int()'s digit limit
def test_grammar_returns_specs_or_raises_a_spec_error(text):
    try:
        specs = parse_layer_stack(text)
    except ModelSpecError:
        return
    assert specs and all(isinstance(spec, LayerSpec) for spec in specs)
    default = LayerSpec("relu")
    for spec in specs:  # a field the kind does not read keeps its default
        unread = {f.name for f in dataclasses.fields(LayerSpec)} - {"kind", *KINDS[spec.kind].reads}
        assert all(getattr(spec, name) == getattr(default, name) for name in unread), spec


# ---------------------------------------------------------------------------
# loss


def test_softmax_cross_entropy_examples():
    loss, grad = softmax_cross_entropy(np.array([[0.0, 0.0]]), np.array([0]))
    assert np.isclose(loss, np.log(2))
    np.testing.assert_allclose(grad, [[-0.5, 0.5]])

    loss, _ = softmax_cross_entropy(np.array([[100.0, 0.0, 0.0]]), np.array([0]))
    assert loss < 1e-10

    with pytest.raises(ValueError, match="labels"):
        softmax_cross_entropy(np.zeros((1, 3)), np.array([3]))


def test_softmax_gradient_matches_finite_differences(rng):
    logits = rng.standard_normal((4, 6))
    labels = rng.integers(0, 6, 4)
    _, grad = softmax_cross_entropy(logits, labels)
    eps = 1e-7
    for _ in range(10):
        i, j = rng.integers(0, 4), rng.integers(0, 6)
        bumped = logits.copy()
        bumped[i, j] += eps
        hi, _ = softmax_cross_entropy(bumped, labels)
        bumped[i, j] -= 2 * eps
        lo, _ = softmax_cross_entropy(bumped, labels)
        fd = (hi - lo) / (2 * eps)
        assert abs(fd - grad[i, j]) / max(abs(fd), 1e-8) < 1e-6


# ---------------------------------------------------------------------------
# gradients through whole models


def test_single_parameter_linear_model_slope():
    model = build_model(
        [LayerSpec("conv", width=1, kernel=1), LayerSpec("global_avg_pool")],
        in_channels=1,
        precision="float64",
    )
    x = np.full((1, 1, 2, 2), 3.0)
    logits, cache = forward(model, x, mode="train")
    grads = backward(model, cache, np.ones((1, 1)))
    # d(mean of w*x)/dw is exactly the mean input value
    assert grads[0]["w"].ravel()[0] == 3.0


def test_finite_diff_dren_small_double(rng):
    model = build_model(dren_small_linear(), in_channels=1, seed=5, precision="float64")
    x = rng.random((2, 1, 10, 10))
    labels = np.array([3, 7])
    assert finite_diff_check(model, x, labels) < 1e-4


def test_finite_diff_mixed_layers(rng):
    # relu, shared bias, batch norm, max pool, group pools all in one stack
    stack = [
        LayerSpec("cycle", width=2, kernel=3),
        LayerSpec("shared_bias"),
        LayerSpec("relu"),
        LayerSpec("group_batchnorm"),
        LayerSpec("isotonic", width=2, kernel=3),
        LayerSpec("max_pool", kernel=2, stride=2),
        LayerSpec("decycle", width=6, kernel=1),
        LayerSpec("global_avg_pool"),
    ]
    model = build_model(stack, in_channels=1, seed=3, precision="float64")
    x = np.random.default_rng(17).random((3, 1, 12, 12))
    labels = np.array([0, 2, 5])
    assert finite_diff_check(model, x, labels) < 1e-4


def test_finite_diff_group_pool_terminator(rng):
    stack = [
        LayerSpec("cycle", width=3, kernel=3),
        LayerSpec("group_pool_mean"),
        LayerSpec("conv", width=5, kernel=1),
        LayerSpec("global_avg_pool"),
    ]
    model = build_model(stack, in_channels=1, seed=2, precision="float64")
    x = np.random.default_rng(23).random((2, 1, 8, 8))
    assert finite_diff_check(model, x, np.array([1, 4])) < 1e-4


def test_finite_diff_rejects_dropout():
    stack = [LayerSpec("conv", width=2, kernel=1), LayerSpec("dropout"), LayerSpec("global_avg_pool")]
    model = build_model(stack, precision="float64")
    with pytest.raises(ValueError, match="dropout"):
        finite_diff_check(model, np.zeros((1, 1, 2, 2)), np.array([0]))


def test_dropout_needs_rng():
    stack = [LayerSpec("conv", width=2, kernel=1), LayerSpec("dropout")]
    model = build_model(stack)
    with pytest.raises(ValueError, match="rng"):
        forward(model, np.zeros((1, 1, 2, 2)), mode="train")
    logits, _ = forward(model, np.ones((1, 1, 2, 2)), mode="eval")
    assert logits.shape == (1, 8)


def dropout_model(rate, precision="float32"):
    return build_model([LayerSpec("dropout", rate=rate)], precision=precision)


@pytest.mark.parametrize("rate", [0.1, 0.25, 0.5, 0.9])
def test_dropout_keeps_one_minus_rate(rate):
    out, _ = forward(dropout_model(rate), np.ones((1, 1, 400, 500)), mode="train", rng=np.random.default_rng(5))
    n = out.size
    kept = np.count_nonzero(out) / n
    assert abs(kept - (1 - rate)) <= 6 * np.sqrt(rate * (1 - rate) / n)
    assert (out[out != 0] == np.float32(1 / (1 - rate))).all()


def test_dropout_rate_zero_returns_the_input_bytes(rng):
    x = rng.standard_normal((3, 2, 5, 5)).astype(np.float32)
    x[0, 0, 0, :3] = (-0.0, np.inf, -np.inf)
    out, _ = forward(dropout_model(0.0), x, mode="train", rng=rng)
    assert out.tobytes() == x.tobytes()


def test_dropout_rate_next_to_one_does_not_overflow(rng):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, _ = forward(dropout_model(float(np.nextafter(1.0, 0.0))), np.ones((2, 1, 50, 50)), mode="train", rng=rng)
    assert not out.any()  # an entry is kept with probability 2**-32


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_dropout_backward_applies_the_forward_mask_and_scale(rng, precision):
    model = dropout_model(0.25, precision)
    dtype = network.PRECISIONS[precision]
    x = rng.standard_normal((4, 3, 6, 6)).astype(dtype)
    out, cache = forward(model, x, mode="train", rng=rng)
    g = rng.standard_normal(x.shape).astype(dtype)
    gx, _ = KINDS["dropout"].backward(model, 0, g, cache.layer_caches[0])
    kept = out.reshape(x.shape) != 0  # no entry of x is zero
    scale = np.asarray(1 / 0.75, dtype=dtype)
    assert out.dtype == gx.dtype == dtype
    assert out.tobytes() == (x * kept * scale).tobytes()
    assert gx.tobytes() == (g * kept * scale).tobytes()


def test_dropout_mask_follows_the_seed():
    model = dropout_model(0.5)
    x = np.ones((2, 3, 8, 8))
    a, b, c = (forward(model, x, mode="train", rng=np.random.default_rng(s))[0] for s in (7, 7, 8))
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


def full_backward_walk(model, cache, grad_logits):
    """Parameter gradients from every layer's backward step, the bottom layer included."""
    grads = {}
    g = grad_logits.reshape(cache.logits_shape)
    for i in range(len(model.specs) - 1, -1, -1):
        g, layer_grads = KINDS[model.specs[i].kind].backward(model, i, g, cache.layer_caches[i])
        if layer_grads is not None:
            grads[i] = layer_grads
    return grads


def backward_case(rng, stack, size):
    model = build_model(stack, precision="float64", input_size=size)
    logits, cache = forward(model, rng.standard_normal((3, 1, size, size)), mode="train")
    _, grad = softmax_cross_entropy(logits, np.array([0, 1, 2]))
    return model, cache, grad


def assert_same_grads(got, want):
    assert got.keys() == want.keys()
    for i in want:
        assert got[i].keys() == want[i].keys()
        for name in want[i]:
            assert got[i][name].tobytes() == want[i][name].tobytes(), (i, name)


def test_backward_forms_no_input_gradient_at_the_lowest_trainable_layer(rng, monkeypatch):
    calls = []
    real = network.correlate2d_backward

    def recording(g, x, w, geom, **kwargs):
        calls.append((x, kwargs.get("input_grad", True)))
        return real(g, x, w, geom, **kwargs)

    model, cache, grad = backward_case(rng, preset_stack("dren-small"), 12)
    bottom_input = cache.layer_caches[0][0]
    want = full_backward_walk(model, cache, grad)  # before backward consumes the cache
    monkeypatch.setattr(network, "correlate2d_backward", recording)
    grads = backward(model, cache, grad)
    assert [flag for x, flag in calls if x is bottom_input] == [False]
    assert [flag for x, flag in calls if x is not bottom_input] == [True] * 3
    assert_same_grads(grads, want)


def test_backward_skips_the_layers_below_the_first_conv(rng, monkeypatch):
    stack = [
        LayerSpec("max_pool", kernel=2, stride=2),
        LayerSpec("conv", width=3, kernel=3),
        LayerSpec("relu"),
        LayerSpec("group_batchnorm"),
        LayerSpec("max_pool", kernel=2, stride=2),
        LayerSpec("conv", width=4, kernel=1),
        LayerSpec("global_avg_pool"),
    ]
    model, cache, grad = backward_case(rng, stack, 14)
    upper_pool_input = cache.layer_caches[4][0]
    want = full_backward_walk(model, cache, grad)  # before backward consumes the cache
    pooled = []
    real = network.max_pool2d_backward
    monkeypatch.setattr(network, "max_pool2d_backward", lambda g, x, o, k, s: pooled.append(x) or real(g, x, o, k, s))
    grads = backward(model, cache, grad)
    assert len(pooled) == 1 and pooled[0] is upper_pool_input  # the upper pool only
    assert_same_grads(grads, want)


def test_train_step_pools_once_per_max_pool_layer(rng, monkeypatch):
    # the backward routes from the forward's pooled output and pools nothing itself
    pooled = []
    real = network.max_pool2d
    monkeypatch.setattr(network, "max_pool2d", lambda x, k, s: pooled.append(x) or real(x, k, s))
    model = build_model(preset_stack("dren-z2cnn-shape"), input_size=28)
    logits, cache = forward(model, rng.standard_normal((4, 1, 28, 28)), mode="train", rng=rng)
    pools = [spec for spec in model.specs if spec.kind == "max_pool"]
    assert len(pooled) == len(pools) == 1
    backward(model, cache, softmax_cross_entropy(logits, np.arange(4))[1])
    assert len(pooled) == len(pools)


def test_eval_forward_keeps_no_layer_caches(rng):
    model = build_model(preset_stack("dren-z2cnn-shape"), input_size=28)
    x = rng.standard_normal((2, 1, 28, 28))
    _, cache = forward(model, x, mode="eval")
    assert cache.layer_caches == [None] * len(model.specs)
    _, cache = forward(model, x, mode="train", rng=rng)
    assert all(c is not None for c in cache.layer_caches)


def test_forward_reads_the_current_parameters(rng):
    # a write to a parameter array, in place or by replacement, shows in
    # the very next forward, exactly as in a model built around the new arrays
    specs = preset_stack("dren-small")
    model = build_model(specs, seed=0)
    x = rng.standard_normal((4, 1, 12, 12))

    def rebuilt_logits():
        fresh = build_model(specs, seed=1)
        for i, arrays in model.params.items():
            fresh.params[i] = {k: a.copy() for k, a in arrays.items()}
        return forward(fresh, x, mode="eval")[0]

    before, _ = forward(model, x, mode="eval")
    model.params[0]["base"] *= 2
    scaled, _ = forward(model, x, mode="eval")
    assert not np.array_equal(scaled, before)
    assert scaled.tobytes() == rebuilt_logits().tobytes()
    model.params[2]["base"] = -model.params[2]["base"]
    replaced, _ = forward(model, x, mode="eval")
    assert not np.array_equal(replaced, scaled)
    assert replaced.tobytes() == rebuilt_logits().tobytes()


def test_backward_rejects_an_eval_cache(rng):
    model = build_model(preset_stack("dren-small"), precision="float64")
    logits, cache = forward(model, rng.standard_normal((2, 1, 12, 12)), mode="eval")
    _, grad = softmax_cross_entropy(logits, np.array([0, 1]))
    with pytest.raises(ValueError, match="train-mode forward"):
        backward(model, cache, grad)


def plain_eval_walk(model, x, kinds=KINDS):
    """Eval logits of every layer's own step in `kinds` in turn, each input freed
    as the next layer runs: the walk with no epilogue and no batch-norm fold."""
    h = x.astype(model.dtype, copy=False)
    for i, spec in enumerate(model.specs):
        h = kinds[spec.kind].forward(model, i, h, False, None)[0]
    return h.reshape(h.shape[0], -1)


def test_eval_forward_peak_matches_a_cache_free_walk():
    # each layer's cache and input are freed before the next layer runs
    model = build_model(preset_stack("dren-z2cnn-shape"), input_size=28)
    x = np.random.default_rng(0).standard_normal((16, 1, 28, 28)).astype(np.float32)
    forward(model, x, mode="eval")  # expand the filter banks outside the measurement

    peaks = []
    for run in (lambda: forward(model, x, mode="eval"), lambda: plain_eval_walk(model, x)):
        tracemalloc.start()
        run()
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] <= 1.02 * peaks[1], peaks


def random_batchnorm(model, rng):
    """Give every batch norm random statistics and affine parameters, gamma > 0."""
    for i, state in model.state.items():
        shape = state["mean"].shape
        state["mean"] = rng.standard_normal(shape).astype(model.dtype)
        state["var"] = rng.uniform(0.5, 2.0, shape).astype(model.dtype)
        model.params[i]["gamma"] = rng.uniform(0.5, 2.0, shape).astype(model.dtype)
        model.params[i]["beta"] = rng.standard_normal(shape).astype(model.dtype)
    return model


def counted_batchnorm_passes(monkeypatch):
    """A list that gains one entry per `GroupBatchNorm.forward` call from now on."""
    passes, real = [], GroupBatchNorm.forward
    monkeypatch.setattr(GroupBatchNorm, "forward", lambda self, *args: passes.append(1) or real(self, *args))
    return passes


FOLD_LIMITS = {"float32": 1e-5, "float64": 1e-12}  # relative, fused logits against the plain walk


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("preset", list(PRESETS))
def test_fused_eval_matches_the_plain_walk(rng, monkeypatch, preset, precision):
    # every batch norm of the presets folds into the next conv-like layer, so
    # none runs; a stack without batch norm gives the plain walk's bytes
    model = random_batchnorm(build_model(preset_stack(preset), precision=precision, input_size=28), rng)
    x = rng.random((8, 1, 28, 28))
    passes = counted_batchnorm_passes(monkeypatch)
    fused, _ = forward(model, x, mode="eval")
    assert passes == []
    want = plain_eval_walk(model, x)
    assert fused.dtype == want.dtype == np.dtype(precision)
    if model.state:
        assert relative_deviation(fused, want)[1] <= FOLD_LIMITS[precision]
    else:
        assert fused.tobytes() == want.tobytes()


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("preset", ["dren-z2cnn-shape", "z2cnn-shape"])
def test_a_copy_of_kinds_gives_the_kinds_bytes(rng, preset, precision):
    # the eval walk reads the steps of the table it is given, whatever its identity
    model = random_batchnorm(build_model(preset_stack(preset), precision=precision, input_size=28), rng)
    x = rng.random((8, 1, 28, 28))
    want, _ = forward(model, x, mode="eval")
    copied, _ = forward(model, x, mode="eval", kinds=dict(KINDS))
    assert copied.tobytes() == want.tobytes()


def test_batchnorm_before_a_map_step_runs_its_plain_pass(rng, monkeypatch):
    # a batch norm folds only into a next layer that runs the filter step: the
    # map step ignores a folded bank and bias. With isotonic on map steps, each
    # batch norm follows one or precedes one, so none of the six folds
    kinds = {**KINDS, "isotonic": dataclasses.replace(KINDS["isotonic"], forward=bench._rotate_maps_forward)}
    model = build_model(preset_stack("dren-z2cnn-shape"), precision="float64", input_size=28)
    random_batchnorm(model, rng)
    x = rng.random((8, 1, 28, 28))
    passes = counted_batchnorm_passes(monkeypatch)
    walked, _ = forward(model, x, mode="eval", kinds=kinds)
    assert len(passes) == len(model.state) == 6
    assert relative_deviation(walked, plain_eval_walk(model, x, kinds))[1] <= FOLD_LIMITS["float64"]


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize(
    "stack,batchnorm",
    [
        ("@dren-z2cnn-shape", 7),  # a group's gamma < 0 before the max pool
        ("conv:c8:k3,relu,bn,conv:c8:k3:p1,relu,conv:c10:k3,gap", 2),  # a padded conv next
        ("conv:c8:k3,bn,relu,conv:c10:k3,gap", 1),  # a ReLU between
        ("conv:c8:k3,relu,conv:c10:k3,relu,bn,gap", 4),  # no conv-like layer next
    ],
)
def test_batchnorm_that_cannot_fold_runs_its_plain_pass(rng, monkeypatch, stack, batchnorm, precision):
    model = random_batchnorm(build_model(parse_layer_stack(stack), precision=precision, input_size=28), rng)
    if stack == "@dren-z2cnn-shape":
        model.params[batchnorm]["gamma"][2] *= -1
    x = rng.random((8, 1, 28, 28))
    passes = counted_batchnorm_passes(monkeypatch)
    fused, _ = forward(model, x, mode="eval")
    assert len(passes) == 1  # the other batch norms fold
    assert relative_deviation(fused, plain_eval_walk(model, x))[1] <= FOLD_LIMITS[precision]


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("state", ["built", "random"])
def test_folded_banks_stay_tied_and_bias_each_group_alike(rng, monkeypatch, state, precision):
    # the folded bank is still a fixed point of its tying, bit for bit, and the
    # four slots of each output group get one bias, so the eval model stays
    # exactly equivariant; the built state's zero shifts b give biases of +-0 terms
    model = build_model(preset_stack("dren-z2cnn-shape"), precision=precision, input_size=28)
    if state == "random":
        random_batchnorm(model, rng)
    calls, real = [], network.correlate2d

    def record(x, w, geom, *, epilogue):
        calls.append((w, epilogue))
        return real(x, w, geom, epilogue=epilogue)

    monkeypatch.setattr(network, "correlate2d", record)
    forward(model, rng.random((4, 1, 28, 28)), mode="eval")
    convs = [i for i, spec in enumerate(model.specs) if spec.kind in network.TIED_KINDS]
    assert len(calls) == len(convs)
    folded = 0
    for i, (w, epilogue) in zip(convs, calls):
        kind = model.specs[i].kind
        copies = w.ravel()[eqlayers._tying(kind, model.params[i]["base"].shape)[1]]
        assert all(copy.tobytes() == copies[0].tobytes() for copy in copies[1:]), i
        if epilogue.bias is None:
            continue
        folded += 1
        assert w.dtype == epilogue.bias.dtype == np.dtype(precision)
        if state == "random":
            assert not np.array_equal(w, model.expanded_filter(i))
        if kind != "decycle":
            slots = epilogue.bias.reshape(-1, 4)
            assert all(slots[:, j].tobytes() == slots[:, 0].tobytes() for j in range(1, 4)), i
    assert folded == len(model.state)


def test_eval_forward_at_batch_256_stores_no_map_before_its_pool():
    # L4's 256x20x24x24 float32 output (11.8 MB) is pooled block by block
    # before it is written; stored whole, the forward peaked at 44.1 MB.
    # The fresh thread's peak counts the conv workspace.
    model = build_model(preset_stack("dren-z2cnn-shape"), input_size=28)
    x = np.random.default_rng(0).random((256, 1, 28, 28), dtype=np.float32)
    forward(model, x[:8], mode="eval")  # build the tying tables outside the measurement
    _, peak = reference.fresh_thread_peak(lambda: forward(model, x, mode="eval"))
    assert peak <= 37e6, peak


def dren_z2cnn_step_peak(fresh_thread=True):
    """Traced peak bytes of one momentum-SGD step of dren-z2cnn-shape at batch 64,
    float32; in a fresh thread the peak counts the conv workspace, which the
    calling thread has already allocated."""
    model = build_model(preset_stack("dren-z2cnn-shape"), input_size=28)
    ds = data.synth_glyphs(128, size=28, seed=0)
    rng = np.random.default_rng(1)

    def step(lo):
        logits, cache = forward(model, ds.images[lo : lo + 64], mode="train", rng=rng)
        _, grad = softmax_cross_entropy(logits, ds.labels[lo : lo + 64])
        grads = backward(model, cache, grad)
        for i, st in cache.new_state.items():
            model.state[i] = st
        network.sgd_step(model, grads, 0.05, 0.9)

    step(0)  # build the tying tables outside the measurement
    if fresh_thread:
        return reference.fresh_thread_peak(lambda: step(64))[1]
    tracemalloc.start()
    step(64)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


def test_train_step_peak_stays_within_the_lowering_budget():
    # L4's whole patch matrix alone would be 26.5 MB
    peak = dren_z2cnn_step_peak()
    assert peak <= 42e6, peak


def test_train_step_peak_holds_no_spent_layer_cache():
    # each layer's cache is freed once its backward has run, as nothing
    # reads it again; kept to the end of the step, the caches of layers
    # 5-25 alone held about 10.9 MB. Measured in the calling thread: the
    # 4.1 MB workspace a fresh thread adds is no cache
    peak = dren_z2cnn_step_peak(fresh_thread=False)
    assert peak <= 31e6, peak


def test_warm_train_step_peak_and_workspace_stay_within_the_block_budget():
    # both passes lower in 4 MiB batch blocks in the thread's workspace,
    # which the warm step allocates: the peak sits in L7's batch-norm
    # backward, over about 19.8 MB of forward caches (29.2 MB while the
    # backward built 16 MiB per-call operands)
    held = []

    def steps():
        held.append((dren_z2cnn_step_peak(fresh_thread=False), conv._workspace.buf.nbytes))

    thread = threading.Thread(target=steps)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    [(peak, workspace)] = held
    assert peak <= 24e6, peak
    assert workspace <= conv._BLOCK_BYTES, workspace


def test_backward_frees_each_layer_cache_once_used(rng, monkeypatch):
    model = build_model(preset_stack("dren-z2cnn-shape"), input_size=28)
    logits, cache = forward(model, rng.standard_normal((4, 1, 28, 28)), mode="train", rng=rng)
    _, grad = softmax_cross_entropy(logits, np.arange(4))
    l4_input = cache.layer_caches[4][0]
    l7_xhat = weakref.ref(cache.layer_caches[7]["xhat"])  # L7's batch norm
    freed = []
    real = network.correlate2d_backward

    def recording(g, x, w, geom, **kwargs):
        if x is l4_input:
            freed.append(l7_xhat() is None)
        return real(g, x, w, geom, **kwargs)

    monkeypatch.setattr(network, "correlate2d_backward", recording)
    backward(model, cache, grad)
    assert freed == [True]
    assert cache.layer_caches is None and cache.new_state


def test_train_forward_caches_hold_arrays_not_layer_objects(rng):
    model = build_model(preset_stack("dren-z2cnn-shape"), input_size=28)
    _, cache = forward(model, rng.standard_normal((2, 1, 28, 28)), mode="train", rng=rng)
    bn_caches = [c for spec, c in zip(model.specs, cache.layer_caches) if spec.kind == "group_batchnorm"]
    assert len(bn_caches) == 6
    assert all(set(c) == {"xhat", "inv_std"} for c in bn_caches)
    assert all(isinstance(a, np.ndarray) for c in bn_caches for a in c.values())


def test_backward_consumes_its_cache(rng):
    model = build_model(preset_stack("dren-small"), precision="float64")
    logits, cache = forward(model, rng.standard_normal((2, 1, 12, 12)), mode="train")
    _, grad = softmax_cross_entropy(logits, np.array([0, 1]))
    backward(model, cache, grad)
    with pytest.raises(ValueError, match="already consumed"):
        backward(model, cache, grad)


def test_eval_relu_forms_no_mask(rng):
    model = build_model([LayerSpec("relu")], precision="float64")
    x = rng.standard_normal((2, 1, 5, 5))
    y_eval, cache, _ = KINDS["relu"].forward(model, 0, x, False, None)
    y_train, mask, _ = KINDS["relu"].forward(model, 0, x, True, None)
    assert cache is None
    assert y_eval.tobytes() == y_train.tobytes()
    assert mask.tobytes() == (x > 0).tobytes()


# ---------------------------------------------------------------------------
# training behaviour


def small_data(n=300, seed=0):
    ds = data.synth_glyphs(n, size=12, seed=seed)
    return data.split(ds, n - 100, 50, 50, seed=seed + 1)


def small_stack():
    return [
        LayerSpec("cycle", width=3, kernel=3),
        LayerSpec("relu"),
        LayerSpec("decycle", width=10, kernel=3),
        LayerSpec("global_avg_pool"),
    ]


def test_training_is_deterministic():
    tr, va, _ = small_data()
    cfg = TrainConfig(lr=0.02, epochs=2, batch_size=25, seed=9)
    histories = []
    for _ in range(2):
        model = build_model(small_stack(), in_channels=1, seed=9)
        histories.append(train(model, tr, va, cfg))
    assert histories[0] == histories[1]  # bitwise identical floats


_TRAIN_DIGEST = """
import hashlib
import numpy as np
from roteq import data, network

ds = data.synth_glyphs(96, size=28, seed=3)
tr, va, _ = data.split(ds, 64, 16, 16, seed=4)
model = network.build_model(network.preset_stack("dren-small"), in_channels=1, seed=5)
network.train(model, tr, va, network.TrainConfig(lr=0.05, epochs=1, batch_size=32, seed=6))
digest = hashlib.sha256()
for i in sorted(model.params):
    for name in sorted(model.params[i]):
        digest.update(np.ascontiguousarray(model.params[i][name]).tobytes())
print(digest.hexdigest())
"""


def test_training_is_bit_identical_across_blas_thread_counts():
    src = str(Path(network.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src)
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        run = subprocess.run(
            [sys.executable, "-c", _TRAIN_DIGEST],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


_Z2CNN_TRAIN_DIGEST = """
import hashlib
import numpy as np
from roteq import data, network

ds = data.synth_glyphs(224, size=28, seed=3)
tr, va, _ = data.split(ds, 192, 16, 16, seed=4)
model = network.build_model(network.preset_stack("dren-z2cnn-shape"), in_channels=1, seed=5)
network.train(model, tr, va, network.TrainConfig(lr=0.05, epochs=1, batch_size=64, seed=6))
digest = hashlib.sha256()
for i in sorted(model.params):
    for name in sorted(model.params[i]):
        digest.update(np.ascontiguousarray(model.params[i][name]).tobytes())
for i in sorted(model.state):
    for name in sorted(model.state[i]):
        digest.update(np.ascontiguousarray(model.state[i][name]).tobytes())
print(digest.hexdigest())
"""


def test_z2cnn_training_is_bit_identical_across_blas_thread_counts():
    # three batch-64 steps, every filter gradient summed over 4 MiB batch
    # blocks (L4's: 8 blocks of 8 images); each block's reduction is a
    # multiple of 32 columns, which OpenBLAS rounds alike at 1 and 2 threads
    src = str(Path(network.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src)
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        run = subprocess.run(
            [sys.executable, "-c", _Z2CNN_TRAIN_DIGEST], env=env, capture_output=True, text=True, timeout=300, check=True
        )
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_training_stops_on_a_non_finite_loss():
    tr, va, _ = small_data()
    model = build_model(small_stack(), in_channels=1, seed=9)
    with pytest.raises(network.TrainingDiverged, match=r"epoch \d+, batch \d+") as info:
        train(model, tr, va, TrainConfig(lr=1e30, epochs=2, batch_size=25, seed=9))
    assert isinstance(info.value, RuntimeError)


def test_loss_decreases_on_synthetic_data():
    tr, va, _ = small_data()
    model = build_model(small_stack(), in_channels=1, seed=4)
    history = train(model, tr, va, TrainConfig(lr=0.02, epochs=3, batch_size=25, seed=4))
    losses = [h[1] for h in history]
    assert losses[-1] < losses[0]


def test_history_shape_and_lr_decay_applied():
    tr, va, _ = small_data()
    model = build_model(small_stack(), in_channels=1, seed=4)
    history = train(model, tr, va, TrainConfig(lr=0.02, epochs=4, batch_size=50, seed=4))
    assert [h[0] for h in history] == [1, 2, 3, 4]
    assert all(0.0 <= h[2] <= 1.0 for h in history)


def test_evaluate_invariant_under_dataset_rotation():
    tr, va, te = small_data()
    model = build_model(small_stack(), in_channels=1, seed=4)
    train(model, tr, va, TrainConfig(lr=0.02, epochs=1, batch_size=50, seed=4))
    base_err = evaluate(model, te)
    base_pred = predict(model, te.images)
    for k in range(1, 4):
        rotated = data.Dataset(rotate90(te.images, k), te.labels)
        assert evaluate(model, rotated) == base_err
        np.testing.assert_array_equal(predict(model, rotated.images), base_pred)


def turned_gradient_gap(preset: str) -> float:
    """`verify`'s gradient-turn witness (`cli._turned_gradient_gap`) on a
    preset: the worst relative gap between each parameter gradient of a
    batch and of the batch turned k quarter turns, k = 1..3."""
    x = np.random.default_rng(8).random((8, 1, 28, 28))
    return cli._turned_gradient_gap(preset_stack(preset), x, np.arange(8))


TIED_PRESETS = [name for name in PRESETS if any(s.kind in network.TIED_KINDS for s in preset_stack(name))]


@pytest.mark.parametrize("preset", TIED_PRESETS)
def test_parameter_gradients_are_invariant_under_input_turns(preset):
    # an invariant loss has the same gradient for R x as for x; train-mode
    # group batch norm keeps this, as its statistics turn with the whole batch
    assert turned_gradient_gap(preset) <= 1e-12


def test_untied_gradients_change_under_input_turns():
    # the identity tells tied stacks from untied ones
    assert turned_gradient_gap("z2cnn-shape") > 1e-3


def test_batchnorm_state_commits_during_training():
    stack = [
        LayerSpec("conv", width=10, kernel=3),
        LayerSpec("group_batchnorm"),
        LayerSpec("global_avg_pool"),
    ]
    tr, va, _ = small_data(200)
    model = build_model(stack, in_channels=1, seed=1)
    before = model.state[1]["mean"].copy()
    train(model, tr, va, TrainConfig(lr=0.01, epochs=1, batch_size=50, seed=1))
    assert not np.array_equal(model.state[1]["mean"], before)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        TrainConfig(seed=-1)
    for name in ("lr", "momentum", "lr_decay"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
                TrainConfig(**{name: value})
    with pytest.raises(ValueError, match="float16"):
        build_model(preset_stack("dren-small"), precision="float16")
    assert build_model(preset_stack("dren-small"), precision="float64").dtype == np.float64
