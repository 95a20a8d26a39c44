import copy
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

from roteq import bench, cli, conv, data, network
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


def test_layer_spec_rejects_an_unknown_kind():
    with pytest.raises(ModelSpecError, match="unknown layer kind 'warp'"):
        LayerSpec("warp")


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
    """Parameter gradients from every layer's backward step, the bottom layer
    included, each step run on a copy of its entry, which it may write over."""
    grads = {}
    g = grad_logits.reshape(cache.logits_shape)
    for i in range(len(model.specs) - 1, -1, -1):
        g, layer_grads = KINDS[model.specs[i].kind].backward(model, i, g, copy.deepcopy(cache.layer_caches[i]))
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
    model = build_model(stack, precision="float64", input_size=14)
    x = rng.standard_normal((3, 1, 14, 14))
    logits, cache = forward(model, x, mode="train")
    _, grad = softmax_cross_entropy(logits, np.array([0, 1, 2]))
    out, kept, _ = reference.plain_train_walk(model, x)
    # each pool keeps its routing index and its input's shape, no float array
    for i in (0, 4):
        index, shape = cache.layer_caches[i]
        assert index.dtype == np.uint8 and shape == kept[i][0].shape
        assert [a.dtype.kind for a in cached_arrays(cache.layer_caches[i])] == ["u"]
    pooled = []
    real = network.max_pool2d_backward
    monkeypatch.setattr(network, "max_pool2d_backward", lambda g, *args: pooled.append(args) or real(g, *args))
    grads = backward(model, cache, grad)
    [(index, shape, kernel, stride)] = pooled  # the upper pool only
    assert index.tobytes() == kept[4][1].tobytes() and shape == kept[4][0].shape and (kernel, stride) == (2, 2)
    assert_same_grads(grads, reference.plain_train_backward(model, kept, grad.reshape(out.shape)))


REBUILD_STACKS = {  # a batch norm before each kind whose backward reads its input
    "bn-padded-maxpool-gap": "cycle:g2:k3,relu,dropout:r0.25,bn,isotonic:g2:k3:p1,relu,bn,maxpool:k2:s2,"
    "decycle:c10:k1,bn,gap",
    "bn-gpmax": "cycle:g2:k3,relu,bn,gpmax,bn,conv:c10:k3:p1,gap",
    "bn-gpmean": "cycle:g2:k3,bias,bn,isotonic:g2:k3,bn,gpmean,conv:c10:k1,bn,bn,gap",
}


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("stack", ["dren-z2cnn-shape", "z2cnn-shape", "bench-nin-shape", *REBUILD_STACKS])
def test_backward_gives_the_bytes_of_a_walk_that_keeps_every_input(stack, precision):
    # the train walk keeps no batch norm's output and packs its masks; its
    # logits, gradients and new state are the bytes of a walk that keeps them
    preset = stack in PRESETS
    specs = preset_stack(stack) if preset else parse_layer_stack(REBUILD_STACKS[stack])
    size = 28 if preset else 12
    model = reference.random_batchnorm(build_model(specs, precision=precision, input_size=size), np.random.default_rng(3))
    x = np.random.default_rng(4).random((16, 1, size, size))
    logits, cache = forward(model, x, mode="train", rng=np.random.default_rng(5))
    _, grad = softmax_cross_entropy(logits, np.arange(16) % 10)
    out, kept, new_state = reference.plain_train_walk(model, x, np.random.default_rng(5))
    assert logits.tobytes() == out.tobytes()
    assert_same_grads(backward(model, cache, grad), reference.plain_train_backward(model, kept, grad.reshape(out.shape)))
    assert_same_grads(cache.new_state, new_state)


def test_train_step_pools_once_per_max_pool_layer(rng, monkeypatch):
    # the backward routes by the forward's index and pools nothing itself
    pooled = []
    real = network.max_pool2d
    monkeypatch.setattr(network, "max_pool2d", lambda x, *args, **kw: pooled.append(x) or real(x, *args, **kw))
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
    assert cache is None
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


def test_eval_forward_peak_matches_a_cache_free_walk():
    # each layer's cache and input are freed before the next layer runs
    model = build_model(preset_stack("dren-z2cnn-shape"), input_size=28)
    x = np.random.default_rng(0).standard_normal((16, 1, 28, 28)).astype(np.float32)
    forward(model, x, mode="eval")  # expand the filter banks outside the measurement

    peaks = []
    for run in (lambda: forward(model, x, mode="eval"), lambda: reference.plain_eval_walk(model, x)):
        tracemalloc.start()
        run()
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] <= 1.02 * peaks[1], peaks


def counted_batchnorm_passes(monkeypatch):
    """A list that gains one entry per `GroupBatchNorm.forward` call from now on."""
    passes, real = [], GroupBatchNorm.forward
    monkeypatch.setattr(GroupBatchNorm, "forward", lambda *args, **kwargs: passes.append(1) or real(*args, **kwargs))
    return passes


def counted_pool_steps(monkeypatch):
    """A list that gains one entry per plain max-pool step from now on."""
    steps, real = [], network.max_pool2d
    monkeypatch.setattr(network, "max_pool2d", lambda *args: steps.append(1) or real(*args))
    return steps


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("preset", list(PRESETS))
def test_fused_eval_matches_the_plain_walk(rng, monkeypatch, preset, precision):
    # every batch norm of the presets is finished in the epilogue of the
    # filter step before it, so none runs its own pass, and the logits are
    # the plain walk's bytes at every batch size
    model = reference.random_batchnorm(build_model(preset_stack(preset), precision=precision, input_size=28), rng)
    passes = counted_batchnorm_passes(monkeypatch)
    for batch in (8, 64, 256):
        x = rng.random((batch, 1, 28, 28))
        want = reference.plain_eval_walk(model, x)
        passes.clear()
        fused, _ = forward(model, x, mode="eval")
        assert passes == []
        assert fused.dtype == want.dtype == np.dtype(precision)
        assert fused.tobytes() == want.tobytes(), batch


@pytest.mark.parametrize("batch", [1, 127, 128, 129, 200, 256, 300])
def test_eval_forward_runs_as_few_near_equal_chunks_of_at_most_128_images(rng, monkeypatch, batch):
    model = build_model(preset_stack("dren-small"), input_size=12)
    sizes, real = [], network.correlate2d
    monkeypatch.setattr(network, "correlate2d", lambda x, *args, **kw: sizes.append(len(x)) or real(x, *args, **kw))
    logits, _ = forward(model, rng.random((batch, 1, 12, 12)), mode="eval")
    steps = sum(KINDS[spec.kind].expand is not None for spec in model.specs)
    chunks = sizes[::steps]
    assert sizes == [size for size in chunks for _ in range(steps)]  # each chunk walks the whole stack
    assert sum(chunks) == batch == len(logits)
    assert len(chunks) == math.ceil(batch / 128)
    assert max(chunks) <= 128 and max(chunks) - min(chunks) <= 1, chunks


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("strategy", list(bench.STRATEGIES))
def test_each_chunk_gives_the_plain_walk_of_its_images(rng, strategy, precision):
    # batch 200 runs as two chunks of 100, each the bytes of a one-call walk
    # over its own images, under either strategy's table
    model = build_model(preset_stack("dren-z2cnn-shape"), precision=precision, input_size=28)
    reference.random_batchnorm(model, rng)
    kinds = bench.STRATEGIES[strategy]
    x = rng.random((200, 1, 28, 28))
    want = np.concatenate([reference.plain_eval_walk(model, x[lo : lo + 100], kinds) for lo in (0, 100)])
    chunked, _ = forward(model, x, mode="eval", kinds=kinds)
    assert chunked.tobytes() == want.tobytes()


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("preset", ["dren-z2cnn-shape", "bench-nin-shape", "cnn-small"])
def test_eval_forward_of_no_images_gives_empty_logits(preset, precision):
    # the logit width is the last channel count times the square of the last size
    model = build_model(preset_stack(preset), precision=precision, input_size=28)
    _, channels, size = network.plan_layers(model.specs, 1, 28)
    for strategy in bench.STRATEGIES.values():
        logits, cache = forward(model, np.zeros((0, 1, 28, 28)), mode="eval", kinds=strategy)
        assert cache is None
        assert logits.shape == (0, channels[-1] * size**2) and logits.dtype == np.dtype(precision)


def test_train_forward_of_no_images_raises_before_any_batch_statistics():
    model = build_model(preset_stack("dren-z2cnn-shape"), input_size=28)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no "Mean of empty slice" first
        with pytest.raises(ValueError, match="at least one image"):
            forward(model, np.zeros((0, 1, 28, 28)), mode="train", rng=np.random.default_rng(0))


def test_forward_rejects_an_unknown_mode():
    model = build_model(preset_stack("dren-small"), input_size=12)
    with pytest.raises(ValueError, match="mode must be 'train' or 'eval', got 'test'"):
        forward(model, np.zeros((1, 1, 12, 12)), mode="test")


def test_expanded_filter_of_a_layer_with_no_filter_bank_raises():
    model = build_model(preset_stack("dren-small"), input_size=12)
    with pytest.raises(ValueError, match=re.escape("layer 1 (relu) has no filter bank")):
        model.expanded_filter(1)


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("preset", ["dren-z2cnn-shape", "z2cnn-shape"])
def test_a_copy_of_kinds_gives_the_kinds_bytes(rng, preset, precision):
    # the eval walk reads the steps of the table it is given, whatever its identity
    model = reference.random_batchnorm(build_model(preset_stack(preset), precision=precision, input_size=28), rng)
    x = rng.random((8, 1, 28, 28))
    want, _ = forward(model, x, mode="eval")
    copied, _ = forward(model, x, mode="eval", kinds=dict(KINDS))
    assert copied.tobytes() == want.tobytes()


def test_batchnorm_before_a_map_step_runs_its_plain_pass(rng, monkeypatch):
    # only a filter step takes an epilogue. With isotonic on map steps, the
    # cycle layer's batch norm is finished in the cycle's epilogue and the
    # five that follow an isotonic layer run their own passes
    kinds = {**KINDS, "isotonic": dataclasses.replace(KINDS["isotonic"], forward=bench._rotate_maps_forward)}
    model = build_model(preset_stack("dren-z2cnn-shape"), precision="float64", input_size=28)
    reference.random_batchnorm(model, rng)
    x = rng.random((8, 1, 28, 28))
    passes = counted_batchnorm_passes(monkeypatch)
    walked, _ = forward(model, x, mode="eval", kinds=kinds)
    assert len(passes) == len(model.state) - 1 == 5
    assert walked.tobytes() == reference.plain_eval_walk(model, x, kinds).tobytes()


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
    # a batch norm before a padded layer, before gap, before a ReLU or after
    # one is finished in the epilogue of the filter step before it, and the
    # walk gives the plain walk's bytes. A gamma < 0 keeps the max pool after
    # the batch norm, and the pool runs in the epilogue too
    model = reference.random_batchnorm(build_model(parse_layer_stack(stack), precision=precision, input_size=28), rng)
    if stack == "@dren-z2cnn-shape":
        model.params[batchnorm]["gamma"][2] *= -1
    x = rng.random((8, 1, 28, 28))
    passes, pools = counted_batchnorm_passes(monkeypatch), counted_pool_steps(monkeypatch)
    fused, _ = forward(model, x, mode="eval")
    assert (passes, pools) == ([], [])
    assert fused.tobytes() == reference.plain_eval_walk(model, x).tobytes()


@pytest.mark.parametrize(
    "stack,beta",
    [
        ("conv:c8:k3,bn,maxpool:k2:s2,conv:c10:k3,gap", -0.0),
        ("conv:c8:k3,bn,maxpool:k2:s2,conv:c10:k3,gap", 0.0),
        ("conv:c8:k3,relu,bn,maxpool:k2:s2,conv:c10:k3,gap", -0.0),
        ("conv:c8:k3,maxpool:k2:s2,bn,conv:c10:k3,gap", -0.0),
    ],
)
def test_a_minus_zero_beta_moves_no_pool_out_of_the_epilogue(rng, monkeypatch, stack, beta):
    # b = beta - mean*a + 0 is +0 for beta = -0 and mean 0, so the pool moves
    # ahead of the batch norm with or without a ReLU before it (see conv), and
    # neither runs its own step
    model = build_model(parse_layer_stack(stack), precision="float32", input_size=14)
    bn = next(i for i, spec in enumerate(model.specs) if spec.kind == "group_batchnorm")
    model.params[bn]["gamma"] = rng.uniform(0.5, 2.0, 8).astype(np.float32)
    model.params[bn]["beta"][:] = beta
    x = rng.standard_normal((8, 1, 14, 14))
    passes, pools = counted_batchnorm_passes(monkeypatch), counted_pool_steps(monkeypatch)
    fused, _ = forward(model, x, mode="eval")
    assert (passes, pools) == ([], [])
    assert fused.tobytes() == reference.plain_eval_walk(model, x).tobytes()


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_a_pool_does_not_move_ahead_of_an_infinite_affine(rng, monkeypatch, precision):
    # a = gamma/sqrt(var + eps) = inf and b = beta - mean*a = inf in one
    # channel: a*x is NaN where the ReLU left a zero and inf elsewhere, so a
    # window's maximum taken first does not give the affine's maximum. The
    # pool stays after the batch norm, inside the epilogue
    model = build_model(parse_layer_stack("conv:c4:k3,relu,bn,maxpool:k2:s2"), 3, precision=precision, input_size=10)
    model.params[2]["gamma"][1] = np.inf
    model.state[2]["mean"][1] = -1.0
    x = rng.standard_normal((8, 3, 10, 10))
    with np.errstate(invalid="ignore"):
        want = reference.plain_eval_walk(model, x)
        pools = counted_pool_steps(monkeypatch)
        fused, _ = forward(model, x, mode="eval")
    assert pools == []
    assert np.isnan(want).any() and not np.isnan(want).all()
    assert fused.tobytes() == want.tobytes()


def counting_table(calls):
    """`KINDS` with the ReLU, batch-norm and max-pool steps appending their kind to `calls`."""

    def counted(name):
        step = KINDS[name].forward
        return dataclasses.replace(KINDS[name], forward=lambda *args: calls.append(name) or step(*args))

    return {**KINDS, **{name: counted(name) for name in ("relu", "group_batchnorm", "max_pool")}}


EPILOGUE_RUN = ("dropout:r0.5", "relu", "bn", "maxpool:k2:s2", "maxpool:k2:s1")


@seed(20261020)
@settings(max_examples=200, deadline=None, database=None)
@given(
    head=st.sampled_from(["conv:c6:k3", "cycle:g2:k3"]),
    run=st.lists(st.sampled_from(EPILOGUE_RUN), min_size=1, max_size=6),
    side=st.integers(1, 2),
    precision=st.sampled_from(["float32", "float64"]),
    draw_seed=st.integers(0, 2**32 - 1),
)
@example(head="conv:c6:k3", run=["bn", "maxpool:k2:s2"], side=2, precision="float32", draw_seed=0)
@example(head="cycle:g2:k3", run=["relu", "bn", "relu", "maxpool:k2:s2", "bn", "maxpool:k2:s1"], side=1,
         precision="float64", draw_seed=1)
def test_any_run_after_a_filter_step_fuses_to_the_plain_walks_bytes(head, run, side, precision, draw_seed):
    # any run of dropouts, ReLUs, batch norms and pools after a filter step is
    # its epilogue: no ReLU, batch norm or pool runs its own step, and the
    # logits are the plain walk's bytes. Half the batch norms have gammas of
    # both signs, some gammas are so small that a*x underflows to a signed
    # zero, and some batch norms have beta = -0 and mean 0; the images come
    # at scales 1 to 1e-3, and their top rows are zero
    size = side  # of the last pool's output; each pool's window fits its input exactly
    for spec in reversed(parse_layer_stack(",".join(run))):
        if spec.kind == "max_pool":
            size = (size - 1) * spec.stride + spec.kernel
    tail = "gpmax" if head.startswith("cycle") else "conv:c3:k1"
    model = build_model(parse_layer_stack(",".join([head, *run, tail])), precision=precision, input_size=size + 2)
    rng = np.random.default_rng(draw_seed)
    for i, state in model.state.items():
        shape = state["mean"].shape
        gamma = rng.uniform(0.5, 2.0, shape) * np.where(rng.random(shape) < rng.choice([0.0, 0.5]), -1.0, 1.0)
        if rng.random() < 0.3:  # a*x underflows to a zero of x's sign for |x| < 1/2
            gamma *= np.finfo(precision).smallest_subnormal
        minus_zero = rng.random() < 0.5
        mean = np.zeros(shape) if minus_zero else rng.standard_normal(shape)
        state.update(mean=mean.astype(precision), var=rng.uniform(0.5, 2.0, shape).astype(precision))
        beta = np.full(shape, -0.0) if minus_zero else rng.standard_normal(shape)
        model.params[i].update(gamma=gamma.astype(precision), beta=beta.astype(precision))
    x = rng.standard_normal((3, 1, size + 2, size + 2)) * 10.0 ** -rng.integers(0, 4, (3, 1, 1, 1))
    x[:, :, : size // 2 + 1] = 0
    calls = []
    fused, _ = forward(model, x, mode="eval", kinds=counting_table(calls))
    assert calls == []
    assert fused.tobytes() == reference.plain_eval_walk(model, x).tobytes()


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("state", ["built", "random"])
def test_epilogue_takes_the_bank_and_one_affine_per_group(rng, monkeypatch, state, precision):
    # each filter step multiplies by its own expanded bank, unscaled, and each
    # batch norm's a and b are alike over the four slots of a tied group, so
    # the eval model stays exactly equivariant. The max pool runs first in its
    # epilogue, on the GEMM result, and the decycle head has none
    model = build_model(preset_stack("dren-z2cnn-shape"), precision=precision, input_size=28)
    if state == "random":
        reference.random_batchnorm(model, rng)
    calls, real = [], network.correlate2d

    def record(x, w, geom, *, epilogue):
        calls.append((w, [step[1:] for step in epilogue if step[0] == "affine"]))
        order.append([step[0] for step in epilogue])
        return real(x, w, geom, epilogue=epilogue)

    order = []
    monkeypatch.setattr(network, "correlate2d", record)
    forward(model, rng.random((4, 1, 28, 28)), mode="eval")
    convs = [i for i, spec in enumerate(model.specs) if spec.kind in network.TIED_KINDS]
    assert len(calls) == len(convs)
    assert order == [["relu", "affine"], ["max_pool", "relu", "affine"], *[["relu", "affine"]] * 4, []]
    assert sum(len(affines) for _, affines in calls) == len(model.state)
    for i, (w, affines) in zip(convs, calls):
        assert w.tobytes() == model.expanded_filter(i).tobytes(), i
        for values in (v for affine in affines for v in affine):
            assert values.dtype == np.dtype(precision)
            slots = values.reshape(-1, 4)
            assert all(slots[:, j].tobytes() == slots[:, 0].tobytes() for j in range(1, 4)), i


def test_eval_forward_at_batch_256_stores_no_map_before_its_pool():
    # L4's 20x24x24 float32 output is pooled block by block before it is
    # written; stored whole at batch 256 (11.8 MB), the forward peaked at
    # 44.1 MB. Two chunks of 128 images peak at 16.0 MB (24.4 MB as one
    # call). The fresh thread's peak counts the conv workspace.
    model = build_model(preset_stack("dren-z2cnn-shape"), input_size=28)
    x = np.random.default_rng(0).random((256, 1, 28, 28), dtype=np.float32)
    forward(model, x[:8], mode="eval")  # build the tying tables outside the measurement
    _, peak = reference.fresh_thread_peak(lambda: forward(model, x, mode="eval"))
    assert peak <= 17.5e6, peak


def test_warm_eval_forward_at_batch_256_holds_one_chunk():
    # with the workspace allocated, the peak sits in one 128-image chunk,
    # where L0's 20x26x26 output (6.9 MB) lives beside L4's pooled output:
    # 8.6 MB (16.9 MB as one call, which held L0's output for all 256
    # images, 13.8 MB)
    model = build_model(preset_stack("dren-z2cnn-shape"), input_size=28)
    x = np.random.default_rng(0).random((256, 1, 28, 28), dtype=np.float32)
    forward(model, x, mode="eval")  # warm the workspace and the tying tables
    tracemalloc.start()
    forward(model, x, mode="eval")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 9.0e6, peak


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
    # L4's whole patch matrix alone would be 26.5 MB; the step peaks at
    # 15.1 MB with the fresh thread's 4.1 MB workspace, in L8's max-pool
    # backward (17.2 MB in L13's forward while the workspace's old buffer
    # lived on beside its grown one, 19.8 MB before the backward wrote its
    # gradients over spent cache entries, 26.5 MB while the forward caches
    # kept each batch norm's output and a byte per mask entry)
    peak = dren_z2cnn_step_peak()
    assert peak <= 16.3e6, peak


def test_train_step_peak_holds_no_spent_layer_cache():
    # each layer's cache is freed once its backward has run, as nothing
    # reads it again; kept to the end of the step, the caches of layers
    # 5-25 alone held about 10.9 MB. Measured in the calling thread: the
    # 4.1 MB workspace a fresh thread adds is no cache. The step peaks at
    # 11.0 MB
    peak = dren_z2cnn_step_peak(fresh_thread=False)
    assert peak <= 11.8e6, peak


def test_warm_train_step_peak_and_workspace_stay_within_the_block_budget():
    # both passes lower in 4 MiB batch blocks in the thread's workspace,
    # which the warm step allocates: the peak, 11.0 MB, sits in L8's
    # max-pool backward, its 2.9 MB input gradient beside the caches of the
    # layers below, with L8's forward at 10.9 MB and L4's conv backward at
    # 10.2 MB next
    # (12.8 MB in L7's batch-norm backward while the ReLU, dropout and
    # batch-norm steps allocated a new full-size array each; 15.7 MB while
    # each backward step wrote its input gradient into a new array and a
    # max pool routed from its rebuilt input; 22.0 MB over 19.7 MB of caches
    # that kept each batch norm's output and a byte per mask entry; 29.2 MB
    # while the backward built 16 MiB per-call operands)
    held = []

    def steps():
        held.append((dren_z2cnn_step_peak(fresh_thread=False), conv._workspace.buf.nbytes))

    thread = threading.Thread(target=steps)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    [(peak, workspace)] = held
    assert peak <= 11.8e6, peak
    assert workspace <= conv._BLOCK_BYTES, workspace


def test_backward_frees_each_layer_cache_once_used(rng, monkeypatch):
    model = build_model(preset_stack("dren-z2cnn-shape"), input_size=28)
    logits, cache = forward(model, rng.standard_normal((4, 1, 28, 28)), mode="train", rng=rng)
    _, grad = softmax_cross_entropy(logits, np.arange(4))
    l7_xhat = weakref.ref(cache.layer_caches[7]["xhat"])  # L7's batch norm
    freed = []
    real = network.correlate2d_backward

    def recording(g, x, w, geom, **kwargs):
        freed.append(l7_xhat() is None)
        return real(g, x, w, geom, **kwargs)

    monkeypatch.setattr(network, "correlate2d_backward", recording)
    backward(model, cache, grad)
    assert freed == [False] * 5 + [True] * 2  # L25, L21, L17, L13 and L9 above it, then L4 and L0
    assert cache.layer_caches is None and cache.new_state


def test_train_forward_caches_hold_arrays_not_layer_objects(rng):
    model = build_model(preset_stack("dren-z2cnn-shape"), input_size=28)
    _, cache = forward(model, rng.standard_normal((2, 1, 28, 28)), mode="train", rng=rng)
    bn_caches = [c for spec, c in zip(model.specs, cache.layer_caches) if spec.kind == "group_batchnorm"]
    assert len(bn_caches) == 6
    assert all(set(c) == {"xhat", "inv_std"} for c in bn_caches)
    assert all(isinstance(a, np.ndarray) for c in bn_caches for a in c.values())


def cached_arrays(entry):
    """The arrays a layer's cache entry holds."""
    if isinstance(entry, np.ndarray):
        return [entry]
    items = entry.values() if isinstance(entry, dict) else entry if isinstance(entry, tuple) else ()
    return [a for item in items for a in cached_arrays(item)]


def test_train_forward_cache_holds_no_batchnorm_output(monkeypatch):
    # each batch norm's output is rebuilt in backward from its xhat, masks
    # are packed 8 per byte, and gap keeps only its input's shape: 8.92 MB
    # of distinct arrays besides the max pool's routing index (19.73 MB
    # when the next layer kept the output and masks took a byte an entry);
    # the index holds one unsigned byte per pooled entry
    model = build_model(preset_stack("dren-z2cnn-shape"), input_size=28)
    x = np.random.default_rng(0).random((64, 1, 28, 28), dtype=np.float32)
    outputs, real = [], GroupBatchNorm.forward

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        outputs.append(result[0])
        return result

    monkeypatch.setattr(GroupBatchNorm, "forward", recording)
    _, cache = forward(model, x, mode="train", rng=np.random.default_rng(1))
    (pool,) = [i for i, spec in enumerate(model.specs) if spec.kind == "max_pool"]
    index, shape = cache.layer_caches[pool]
    spec = model.specs[pool]
    pooled = [(side - spec.kernel) // spec.stride + 1 for side in shape[2:]]
    assert index.dtype == np.uint8 and index.shape == (*shape[:2], *pooled)
    arrays = [a for entry in cache.layer_caches for a in cached_arrays(entry)]
    assert len(outputs) == 6
    assert not any(np.shares_memory(a, y) for a in arrays for y in outputs)
    bases = {}
    for a in (a for a in arrays if a is not index):
        while a.base is not None:
            a = a.base
        bases[id(a)] = a.nbytes
    assert sum(bases.values()) <= 9.0e6, sum(bases.values())


OWNERSHIP_STACKS = {
    "dren-z2cnn-shape": (preset_stack("dren-z2cnn-shape"), 28),
    "pools-then-gap-bn": (
        parse_layer_stack("cycle:g2:k3,relu,bn,maxpool:k3:s1,isotonic:g2:k3,relu,bn,gpmax,conv:c10:k3,gap,bn"),
        12,
    ),
    # the bottom layer's step gets the caller's images, which it must not
    # write, and a ReLU under a bias gets grad_logits itself
    "dropout-first": (parse_layer_stack("dropout:r0.25,cycle:g2:k3,relu,bn,decycle:c10:k3,gap"), 12),
    "relu-first": (parse_layer_stack("relu,cycle:g2:k3,relu,dropout:r0.5,bn,decycle:c12:k3,gap,relu,bias"), 12),
    "bn-first": (parse_layer_stack("bn,cycle:g2:k3,relu,bn,maxpool:k2:s2,decycle:c10:k3,gap"), 12),
}


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("stack", list(OWNERSHIP_STACKS))
def test_backward_writes_gradients_only_over_spent_cache_entries(monkeypatch, stack, precision):
    # no two train caches share memory, so a conv-like layer writes its
    # input gradient over its spent input and a batch norm over its spent
    # xhat; the caller's images and grad_logits are never written, though
    # the ReLU, dropout and batch-norm steps above the bottom one write
    # over their inputs and the ReLU and dropout steps over their gradients
    specs, size = OWNERSHIP_STACKS[stack]
    model = reference.random_batchnorm(build_model(specs, precision=precision, input_size=size), np.random.default_rng(3))
    x = np.random.default_rng(4).random((8, 1, size, size)).astype(model.dtype) - 0.25
    images = x.tobytes()
    logits, cache = forward(model, x, mode="train", rng=np.random.default_rng(5))
    assert x.tobytes() == images
    _, grad = softmax_cross_entropy(logits, np.arange(8) % 10)
    entries = [cached_arrays(entry) for entry in cache.layer_caches]
    bottom_conv = KINDS[specs[0].kind].expand is not None
    assert any(a is x for a in entries[0]) == bottom_conv  # the images themselves, not a copy
    assert not any(np.shares_memory(a, x) for arrays in entries[1:] for a in arrays)
    for i, arrays in enumerate(entries):
        for later in entries[i + 1 :]:
            assert not any(np.shares_memory(a, b) for a in arrays for b in later), i
    grad_bytes = grad.tobytes()
    convs, norms = [], []
    real_conv, real_norm = network.correlate2d_backward, GroupBatchNorm.backward

    def conv_spy(g, x_in, w, geom, **kwargs):
        result = real_conv(g, x_in, w, geom, **kwargs)
        convs.append((result[0], x_in))
        return result

    def norm_spy(g, params, layer_cache):
        xhat = layer_cache["xhat"]
        result = real_norm(g, params, layer_cache)
        norms.append((result[0], xhat))
        return result

    monkeypatch.setattr(network, "correlate2d_backward", conv_spy)
    monkeypatch.setattr(GroupBatchNorm, "backward", norm_spy)
    backward(model, cache, grad)
    assert x.tobytes() == images and grad.tobytes() == grad_bytes
    assert len(norms) == sum(spec.kind == "group_batchnorm" for spec in model.specs)
    assert all(np.shares_memory(gx, xhat) for gx, xhat in norms)
    *upper, (bottom, bottom_input) = convs
    if min(model.params) == 0 and not bottom_conv:  # a batch norm is the lowest trainable layer
        upper.append((bottom, bottom_input))
    else:
        assert bottom is None and (bottom_input is x) == bottom_conv
    assert upper and all(np.shares_memory(gx, x_in) for gx, x_in in upper)


STEP_STACKS = (  # between them, every kind of `KINDS`
    "cycle:g2:k3,bias,relu,dropout:r0.5,bn,maxpool:k2:s1,isotonic:g2:k3,gpmax,conv:c3:k3,gap",
    "cycle:g2:k3,bn,gpmean,bn,relu",
    "cycle:g2:k3,decycle:c3:k3,dropout:r0.25",
)


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("text", STEP_STACKS)
def test_steps_called_plainly_write_nothing_they_were_given(text, precision):
    # only the train walk tells a step that its input or gradient is spent
    model = reference.random_batchnorm(build_model(parse_layer_stack(text), precision=precision, input_size=9), np.random.default_rng(3))
    rng = np.random.default_rng(4)
    h = rng.standard_normal((4, 1, 9, 9)).astype(model.dtype)
    for i, spec in enumerate(model.specs):
        kind, given = KINDS[spec.kind], h.tobytes()
        y, layer_cache, _ = kind.forward(model, i, h, True, rng)
        assert h.tobytes() == given, (i, spec.kind)
        g = rng.standard_normal(y.shape).astype(model.dtype)
        given = g.tobytes()
        kind.backward(model, i, g, copy.deepcopy(layer_cache))
        assert g.tobytes() == given, (i, spec.kind)
        h = y
    assert {spec.kind for text in STEP_STACKS for spec in parse_layer_stack(text)} == set(KINDS)


@pytest.mark.parametrize("size", [7, 1000, network._DRAW_CHUNK, 3 * network._DRAW_CHUNK + 5])
@pytest.mark.parametrize("spent", [False, True])
def test_dropout_draws_in_chunks_give_the_one_shot_mask(size, spent):
    # sizes: odd, below one chunk, exactly one, several plus an odd remainder
    model = dropout_model(0.3)
    h = np.random.default_rng(6).uniform(0.5, 1.5, (1, 1, 1, size)).astype(np.float32)
    one_shot, chunked = np.random.default_rng(8), np.random.default_rng(8)
    keep = network._keep_mask(one_shot, h.shape, 0.3)
    given = h.copy()
    out, (bits, scale), _ = KINDS["dropout"].forward(model, 0, h, True, chunked, spent=spent)
    assert bits.tobytes() == np.packbits(keep).tobytes()
    assert out.tobytes() == (given * keep * scale).tobytes()
    assert np.shares_memory(out, h) == spent
    assert chunked.bit_generator.state == one_shot.bit_generator.state


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
    y_train, bits, _ = KINDS["relu"].forward(model, 0, x, True, None)
    assert cache is None
    assert y_eval.tobytes() == y_train.tobytes()
    assert bits.dtype == np.uint8 and bits.size == math.ceil(x.size / 8)  # 8 mask entries per byte
    assert np.unpackbits(bits, count=x.size).view(bool).reshape(x.shape).tobytes() == (x > 0).tobytes()


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


def test_predict_is_the_argmax_of_one_eval_forward(monkeypatch):
    # forward's chunk plan is the only cut of an eval batch: 300 images once
    # went through forward as 256 + 44
    model = build_model(preset_stack("dren-small"), input_size=12)
    images = np.random.default_rng(3).random((300, 1, 12, 12))
    real_forward, calls = network.forward, []

    def spy(*args, **kwargs):
        calls.append(real_forward(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(network, "forward", spy)
    preds = predict(model, images)
    assert len(calls) == 1
    logits, cache = calls[0]
    assert cache is None and logits.shape == (300, 10)
    np.testing.assert_array_equal(preds, np.argmax(logits, axis=1))


def test_predict_of_no_images_is_an_empty_int64_array():
    model = build_model(preset_stack("dren-small"), input_size=12)
    preds = predict(model, np.zeros((0, 1, 12, 12)))
    assert preds.shape == (0,) and preds.dtype == np.int64


def turned_gradient_gap(preset: str) -> float:
    """`verify`'s gradient-turn witness (`cli._turned_gradient_gap`) on a
    preset: the worst relative gap between each parameter gradient of a
    batch and of the batch turned k quarter turns, k = 1..3."""
    x = np.random.default_rng(8).random((8, 1, 28, 28))
    return cli._turned_gradient_gap(preset_stack(preset), x, np.arange(8))




@pytest.mark.parametrize("preset", reference.TIED_PRESETS)
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
