"""Model composition, loss, SGD training loop, and gradient harness.

A model is an ordered list of layer descriptors plus a parameter store.
`KINDS` is the one table of layer kinds: it names the arrays each kind
stores, in checkpoint order, gives their shape and the kind's output
channel count, and holds the kind's forward and backward step. The
parameter arrays are the model's only copy of its weights: tied layers
keep only their base arrays, and every forward and every backward pass
expands each filter bank afresh from them, so a write to a parameter
shows in the next pass with nothing to invalidate. An expansion is one
index gather; all seven banks of dren-z2cnn-shape take about 0.04 ms,
some 0.05% of a train step.

The layer grammar lives here too: `parse_layer_stack` reads a stack
written as text, and every named stack (`PRESETS`) is written in it.
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .conv import (
    ConvGeometry,
    Epilogue,
    correlate2d,
    correlate2d_backward,
    max_pool2d,
    max_pool2d_backward,
    output_size,
    stride_preserves_equivariance,
)
from .eqlayers import (
    GroupBatchNorm,
    collapse_cycle_grad,
    collapse_decycle_grad,
    collapse_isotonic_grad,
    expand_cycle,
    expand_decycle,
    expand_isotonic,
    global_spatial_avg_pool,
    global_spatial_avg_pool_backward,
    group_cross_channel_pool,
    group_cross_channel_pool_backward,
    shared_bias_add,
    shared_bias_backward,
)


class ModelSpecError(ValueError):
    """Layer stack violates ordering or channel-chaining rules."""


class TrainingDiverged(RuntimeError):
    """The training loss of a batch is not finite (NaN or infinite)."""


@dataclass(frozen=True)
class LayerSpec:
    """One layer of a model.

    `width` is the output group count for cycle/isotonic layers and the
    output channel count for decycle/conv layers; `rate` only applies
    to dropout.
    """

    kind: str
    width: int = 0
    kernel: int = 0
    stride: int = 1
    pad: int = 0
    rate: float = 0.25

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ModelSpecError(f"unknown layer kind {self.kind!r}")


PRECISIONS = {"float32": np.float32, "float64": np.float64}  # `build_model` precision names


@dataclass
class TrainConfig:
    lr: float = 0.01
    momentum: float = 0.9
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0
    lr_decay: float = 0.1

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("lr", "momentum", "lr_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass
class Model:
    specs: list
    in_channels: int
    dtype: object
    params: dict = field(default_factory=dict)
    state: dict = field(default_factory=dict)
    velocity: dict = field(default_factory=dict)
    channels: list = field(default_factory=list)

    def expanded_filter(self, i: int) -> np.ndarray:
        """Filter bank of conv-like layer i, gathered afresh from its current parameters."""
        kind = KINDS[self.specs[i].kind]
        if kind.expand is None:
            raise ValueError(f"layer {i} ({self.specs[i].kind}) has no filter bank")
        return kind.expand(self.params[i][kind.params[0]])

    def parameter_counts(self) -> dict:
        return {i: sum(a.size for a in p.values()) for i, p in self.params.items()}

    @property
    def num_parameters(self) -> int:
        return sum(self.parameter_counts().values())


# ---------------------------------------------------------------------------
# layer steps: forward(model, i, h, train, rng) -> (output, cache, new state
# or None); backward(model, i, grad, cache) -> (input grad, {name: grad} or None).
# A conv-like step's backward also takes input_grad=False, and then
# returns None for the input grad.


def _filter_forward(model, i, h, train, rng):
    spec = model.specs[i]
    geom = ConvGeometry(spec.stride, spec.pad)
    return correlate2d(h, model.expanded_filter(i), geom), (h, geom), None


def _filter_backward(model, i, g, cache, input_grad=True):
    x, geom = cache
    g, grad_w = correlate2d_backward(g, x, model.expanded_filter(i), geom, input_grad=input_grad)
    kind = KINDS[model.specs[i].kind]
    name = kind.params[0]
    return g, {name: kind.collapse(grad_w)}


def _relu_forward(model, i, h, train, rng):
    return np.maximum(h, 0), (h > 0) if train else None, None


def _relu_backward(model, i, g, mask):
    return g * mask, None


def _bias_forward(model, i, h, train, rng):
    return shared_bias_add(h, model.params[i]["bias"]), None, None


def _bias_backward(model, i, g, cache):
    return g, {"bias": shared_bias_backward(g)}


def _batchnorm_forward(model, i, h, train, rng):
    bn = GroupBatchNorm(model.params[i]["gamma"].size)
    y, cache, state = bn.forward(h, model.params[i], model.state[i], train)
    return y, cache, state if train else None


def _batchnorm_backward(model, i, g, cache):
    return GroupBatchNorm(model.params[i]["gamma"].size).backward(g, model.params[i], cache)


def _keep_mask(rng, shape, rate):
    """Boolean dropout mask: each entry kept with probability 1 - rate.

    One 32-bit word of the generator's raw output per entry, kept when
    it is at least round(rate * 2**32); a 64-bit draw yields two words,
    low word first on a little-endian machine (high word first on a
    big-endian one, so masks differ between the two). The threshold is
    capped at 2**32 - 1, so rates within 2**-33 of 1 keep an entry with
    probability 2**-32 rather than overflow.
    """
    size = math.prod(shape)
    words = rng.bit_generator.random_raw((size + 1) // 2).view(np.uint32)[:size].reshape(shape)
    return words >= np.uint32(min(round(rate * 2**32), 2**32 - 1))


def _dropout_forward(model, i, h, train, rng):
    if not train:
        return h, None, None
    if rng is None:
        raise ValueError("training-mode forward through dropout needs an rng")
    rate = model.specs[i].rate
    keep = _keep_mask(rng, h.shape, rate)
    scale = np.asarray(1.0 / (1.0 - rate), dtype=model.dtype)
    out = np.multiply(h, keep)
    out *= scale
    return out, (keep, scale), None


def _dropout_backward(model, i, g, cache):
    keep, scale = cache
    out = np.multiply(g, keep)
    out *= scale
    return out, None


def _max_pool_forward(model, i, h, train, rng):
    spec = model.specs[i]
    out = max_pool2d(h, spec.kernel, spec.stride)
    return out, (h, out), None


def _max_pool_backward(model, i, g, cache):
    spec = model.specs[i]
    return max_pool2d_backward(g, *cache, spec.kernel, spec.stride), None


def _group_pool_forward(mode, model, i, h, train, rng):
    return group_cross_channel_pool(h, mode), h, None


def _group_pool_backward(mode, model, i, g, x):
    return group_cross_channel_pool_backward(g, x, mode), None


def _global_pool_forward(model, i, h, train, rng):
    return global_spatial_avg_pool(h), h, None


def _global_pool_backward(model, i, g, x):
    return global_spatial_avg_pool_backward(g, x), None


# ---------------------------------------------------------------------------
# the table of layer kinds


@dataclass(frozen=True)
class LayerKind:
    """One entry of `KINDS`; the steps' signatures head the steps above.

    `params` and `state` name the stored arrays in checkpoint order;
    all share `shape(spec, c_in, group)`, where `group` is 4 inside the
    tied segment and 1 elsewhere. A conv-like kind stores one array:
    `expand` turns it into the (c_out, c_in, k, k) filter bank,
    `collapse(grad)` folds the bank's gradient back onto its shape, and
    the array starts uniform random. Other kinds start at `fill`, one value per
    array. `permuted` = (a, b) says a tied kind maps R P^a x to R P^b f(x)
    (R a quarter turn, P the cyclic shift within each 4-channel group);
    None means the kind commutes with R and P. A `grouped` kind, like any
    with permuted input, needs 4-channel groups. `reads` names the
    `LayerSpec` fields the kind uses; the grammar rejects a token for any other field.
    """

    forward: Callable
    backward: Callable
    reads: tuple = ()
    params: tuple = ()
    state: tuple = ()
    shape: Callable | None = None
    out_channels: Callable = lambda spec, c: c
    grouped: bool = False
    fill: tuple = ()
    expand: Callable | None = None
    collapse: Callable | None = None
    permuted: tuple | None = None


_WINDOW_FIELDS = ("kernel", "stride", "pad")


def _filter_kind(name="base", **fields):
    """Entry of a conv-like kind, which stores one array called `name`."""
    reads = ("width", *_WINDOW_FIELDS)
    return LayerKind(_filter_forward, _filter_backward, reads, params=(name,), **fields)


# The lambdas look eqlayers functions up by name on every call, so a
# profiler that patches `roteq.network.expand_cycle` and its kin sees it.
KINDS = {
    "cycle": _filter_kind(
        shape=lambda spec, c, group: (spec.width, c, spec.kernel, spec.kernel),
        out_channels=lambda spec, c: 4 * spec.width,
        expand=lambda base: expand_cycle(base),
        collapse=lambda grad: collapse_cycle_grad(grad),
        permuted=(False, True),
    ),
    "isotonic": _filter_kind(
        shape=lambda spec, c, group: (spec.width, 4, c // 4, spec.kernel, spec.kernel),
        out_channels=lambda spec, c: 4 * spec.width,
        expand=lambda base: expand_isotonic(base),
        collapse=lambda grad: collapse_isotonic_grad(grad),
        permuted=(True, True),
    ),
    "decycle": _filter_kind(
        shape=lambda spec, c, group: (spec.width, c // 4, spec.kernel, spec.kernel),
        out_channels=lambda spec, c: spec.width,
        expand=lambda base: expand_decycle(base),
        collapse=lambda grad: collapse_decycle_grad(grad),
        permuted=(True, False),
    ),
    "conv": _filter_kind(
        shape=lambda spec, c, group: (spec.width, c, spec.kernel, spec.kernel),
        out_channels=lambda spec, c: spec.width,
        expand=lambda w: w,
        collapse=lambda grad: grad,
        name="w",
    ),
    "relu": LayerKind(_relu_forward, _relu_backward),
    "shared_bias": LayerKind(
        _bias_forward,
        _bias_backward,
        params=("bias",),
        shape=lambda spec, c, group: (c // 4,),
        grouped=True,
        fill=(0.0,),
    ),
    "group_batchnorm": LayerKind(
        _batchnorm_forward,
        _batchnorm_backward,
        params=("gamma", "beta"),
        state=("mean", "var"),
        shape=lambda spec, c, group: (c // group,),
        fill=(1.0, 0.0, 0.0, 1.0),
    ),
    "dropout": LayerKind(_dropout_forward, _dropout_backward, ("rate",)),
    "max_pool": LayerKind(_max_pool_forward, _max_pool_backward, _WINDOW_FIELDS),
    "group_pool_max": LayerKind(
        partial(_group_pool_forward, "max"),
        partial(_group_pool_backward, "max"),
        out_channels=lambda spec, c: c // 4,
        permuted=(True, False),
    ),
    "group_pool_mean": LayerKind(
        partial(_group_pool_forward, "mean"),
        partial(_group_pool_backward, "mean"),
        out_channels=lambda spec, c: c // 4,
        permuted=(True, False),
    ),
    "global_avg_pool": LayerKind(_global_pool_forward, _global_pool_backward),
}
ALL_KINDS = tuple(KINDS)  # checkpoint kind codes are positions in this tuple
# conv-like kinds with a permuted side; each has an `oracle.oracle_<kind>`
TIED_KINDS = tuple(k for k, e in KINDS.items() if e.permuted and e.expand)


# ---------------------------------------------------------------------------
# the layer grammar, in which every stack (the presets among them) is written

KIND_ALIASES = {
    "gap": "global_avg_pool",
    "bn": "group_batchnorm",
    "bias": "shared_bias",
    "maxpool": "max_pool",
    "gpmax": "group_pool_max",
    "gpmean": "group_pool_mean",
}

# stack-grammar token letter -> (LayerSpec field, value type)
LAYER_TOKENS = {
    "g": ("width", int),
    "c": ("width", int),
    "k": ("kernel", int),
    "s": ("stride", int),
    "p": ("pad", int),
    "r": ("rate", float),
}


def parse_layer_stack(text: str) -> list:
    """Parse a stack description like 'cycle:g5:k3,relu,decycle:c10:k3,gap'.

    Tokens after the kind set fields: g/c width, k kernel, s stride,
    p pad, r dropout rate. A kind takes only the tokens of the fields it
    reads (`LayerKind.reads`). '@name' loads a preset of `PRESETS`.
    Every malformed description raises ModelSpecError.
    """
    text = text.strip()
    if text.startswith("@"):
        return preset_stack(text[1:])
    specs = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            raise ModelSpecError("empty layer item in stack description")
        parts = item.split(":")
        kind = KIND_ALIASES.get(parts[0], parts[0])
        if kind not in KINDS:
            raise ModelSpecError(f"unknown layer kind {kind!r}")
        fields = {}
        for tok in parts[1:]:
            if len(tok) < 2:
                raise ModelSpecError(f"bad layer token {tok!r} in {item!r}")
            if tok[0] not in LAYER_TOKENS:
                raise ModelSpecError(f"unknown layer token {tok!r} in {item!r}")
            name, typ = LAYER_TOKENS[tok[0]]
            if name not in KINDS[kind].reads:
                raise ModelSpecError(f"{kind} takes no {name}: token {tok!r} in {item!r}")
            try:
                fields[name] = typ(tok[1:])
            except ValueError:
                raise ModelSpecError(f"bad value in layer token {tok!r} in {item!r}") from None
        specs.append(LayerSpec(kind, **fields))
    return specs


_Z2 = "relu,dropout:r0.25,bn,"  # follows each 3x3 layer of the two z2cnn shapes

PRESETS = {  # name -> stack text, loaded as '@name'
    "dren-small": "cycle:g5:k3,relu," + "isotonic:g5:k3,relu," * 2 + "decycle:c10:k3,gap",
    "cnn-small": "conv:c20:k3,relu," * 3 + "conv:c10:k3,gap",
    "z2cnn-shape": f"conv:c20:k3,{_Z2}" * 2 + "maxpool:k2:s2,"
    + f"conv:c20:k3,{_Z2}" * 4 + "conv:c10:k4,gap",
    "dren-z2cnn-shape": f"cycle:g5:k3,{_Z2}isotonic:g5:k3,{_Z2}maxpool:k2:s2,"
    + f"isotonic:g5:k3,{_Z2}" * 4 + "decycle:c10:k4,gap",
    "bench-z2cnn-shape": "cycle:g5:k3,relu,isotonic:g5:k3,relu,maxpool:k2:s2,"
    + "isotonic:g5:k3,relu," * 4 + "decycle:c10:k4,gap",
    "bench-nin-shape": "cycle:g8:k3,relu,isotonic:g8:k1,relu,isotonic:g8:k1,relu,maxpool:k2:s2,"
    + "isotonic:g8:k3,relu,isotonic:g8:k1,relu,decycle:c10:k1,gap",
}


def preset_stack(name: str) -> list:
    """The layer stack of preset `name`, parsed from `PRESETS`."""
    if name not in PRESETS:
        raise ModelSpecError(f"unknown preset {name!r}")
    return parse_layer_stack(PRESETS[name])


def plan_layers(specs: list, in_channels: int, input_size: int | None = None) -> tuple:
    """Check a layer stack; returns (per-layer array shape or None, per-layer
    output channels, output size).

    Tied-segment rules come from each kind's `permuted` pair: a kind with
    permuted output but not input opens the segment, before all other tied
    layers and after no untied conv; one with permuted input needs it open
    and closes it unless its output is permuted too; no untied conv sits
    inside it, and it must be closed. Untied convs of any kernel may follow
    it; wider than 1x1 they lose exact invariance. The input needs a
    channel. Conv-like and max-pool layers need kernel and stride >= 1 and a
    pad >= 0, conv-like ones a width >= 1; max pooling takes no pad, and a
    dropout rate lies in [0, 1). Given `input_size`, every window must fit
    its input, and in a tied stack a stride that breaks the quarter-turn
    condition warns, naming the layer. The output size is the side of the
    last layer's square maps (None without `input_size`), so a forward's
    logit width is the last channel count times its square. Nothing is
    allocated, so a stack read from a file can be sized before it is built.
    """
    if not specs:
        raise ModelSpecError("layer stack is empty")
    if in_channels < 1:
        raise ModelSpecError(f"input channels {in_channels} must be >= 1")
    tied = any(KINDS[s.kind].permuted for s in specs)
    shapes, channels = [], []
    c = in_channels
    size = input_size
    permuted = None  # whether the maps carry P: None before the tied segment, True inside, False after
    for i, spec in enumerate(specs):
        kind = spec.kind
        entry = KINDS[kind]
        if entry.permuted and not entry.permuted[0]:
            if permuted is not None:
                raise ModelSpecError(f"layer {i}: {kind} layer must come before all other tied layers")
            conv = next((j for j, s in enumerate(specs[:i]) if KINDS[s.kind].expand), None)
            if conv is not None:  # untied, as the segment is not yet open
                raise ModelSpecError(f"layer {i}: {kind} after untied conv layer {conv}; "
                                     "no untied conv may precede the tied segment")
        elif entry.permuted and not permuted:
            raise ModelSpecError(f"layer {i}: {kind} layer outside the cycle..decycle segment")
        elif entry.expand and not entry.permuted and permuted:
            raise ModelSpecError(f"layer {i}: untied {kind} inside the cycle..decycle segment")
        if entry.grouped and c % 4 != 0:
            raise ModelSpecError(f"layer {i} ({kind}): channel count {c} is not divisible by 4")
        windowed = "kernel" in entry.reads
        if windowed and (spec.kernel < 1 or spec.stride < 1):
            raise ModelSpecError(
                f"layer {i} ({kind}): kernel {spec.kernel} and stride {spec.stride} must both be >= 1"
            )
        if entry.expand is not None and spec.width < 1:
            raise ModelSpecError(f"layer {i} ({kind}): width {spec.width} must be >= 1")
        if windowed and spec.pad < 0:
            raise ModelSpecError(f"layer {i} ({kind}): pad {spec.pad} is negative")
        if kind == "max_pool" and spec.pad != 0:
            raise ModelSpecError(f"layer {i} (max_pool): max pooling takes no pad, got pad {spec.pad}")
        if kind == "dropout" and not 0 <= spec.rate < 1:
            raise ModelSpecError(f"layer {i} (dropout): rate {spec.rate} is outside [0, 1)")
        shapes.append(entry.shape(spec, c, 4 if permuted else 1) if entry.shape else None)
        c = entry.out_channels(spec, c)
        if entry.permuted:
            permuted = entry.permuted[1]

        if size is not None and windowed:
            try:
                out_size = output_size(size, spec.kernel, spec.stride, spec.pad)
            except ValueError as exc:
                raise ModelSpecError(f"layer {i} ({kind}): {exc}") from None
            if tied and not stride_preserves_equivariance(size + 2 * spec.pad, spec.stride, spec.kernel):
                warnings.warn(
                    f"layer {i} ({kind}): input size {size} with stride {spec.stride} and "
                    f"kernel {spec.kernel} breaks the rotation-equivariance condition",
                    stacklevel=3,
                )
            size = out_size
        elif size is not None and kind == "global_avg_pool":
            size = 1
        channels.append(c)

    if permuted:
        raise ModelSpecError("tied stack never terminated: add a decycle or group pooling layer")
    return shapes, channels, size


def build_model(
    specs: list,
    in_channels: int = 1,
    seed: int = 0,
    precision: str = "float32",
    input_size: int | None = None,
) -> Model:
    """Validate a layer stack (see `plan_layers`), initialize parameters, and return the model.

    `precision` is a key of `PRECISIONS`; any other name is rejected.
    Filter banks of every conv-like kind are drawn uniform with variance
    2/fan_in of the expanded filter, fan_in = input channels * k^2.
    """
    if precision not in PRECISIONS:
        raise ValueError(f"precision must be one of {', '.join(PRECISIONS)}, got {precision!r}")
    dtype = PRECISIONS[precision]
    shapes, channels, _ = plan_layers(specs, in_channels, input_size)
    rng = np.random.default_rng(seed)
    model = Model(specs=list(specs), in_channels=in_channels, dtype=dtype, channels=channels)
    for i, (spec, shape) in enumerate(zip(specs, shapes)):
        if shape is None:
            continue
        kind = KINDS[spec.kind]
        if kind.expand is not None:
            fan_in = (channels[i - 1] if i else in_channels) * spec.kernel * spec.kernel
            bound = float(np.sqrt(6.0 / fan_in))
            arrays = [rng.uniform(-bound, bound, size=shape).astype(dtype)]
        else:
            arrays = [np.full(shape, value, dtype=dtype) for value in kind.fill]
        model.params[i] = dict(zip(kind.params, arrays))
        if kind.state:
            model.state[i] = dict(zip(kind.state, arrays[len(kind.params) :]))
        model.velocity[i] = {k: np.zeros_like(v) for k, v in model.params[i].items()}
    return model


@dataclass
class ForwardCache:
    """What a train-mode `forward` keeps for `backward`, one entry per layer.

    `backward` consumes it: it takes the list (leaving `layer_caches`
    None) and frees each entry as soon as that layer's step returns. A
    second `backward` on the same cache raises ValueError; `new_state`
    stays readable.
    """

    layer_caches: list
    new_state: dict
    logits_shape: tuple
    train: bool


def _epilogue(model: Model, i: int, kinds: dict) -> tuple:
    """(pool, relu, fold, end) of layer i, whose step in `kinds` is the
    filter step, by `forward`'s fusion rule.

    `pool` is the max pool's (kernel, stride) or None, `fold` the batch
    norm's (a, b) per channel for the layer at `end`, or None, and `end`
    the first layer after the epilogue.
    """
    specs = model.specs
    seen = {}  # kind -> index of the epilogue's one layer of that kind
    end = i + 1
    while end < len(specs) and specs[end].kind in ("dropout", "relu", "max_pool", "group_batchnorm"):
        kind = specs[end].kind
        if kind in seen or kind == "relu" and "group_batchnorm" in seen:
            break
        if kind != "dropout":
            seen[kind] = end
        end += 1
    fold, bn, pool = None, seen.get("group_batchnorm"), seen.get("max_pool")
    if bn is not None:
        a, b = GroupBatchNorm.affine(model.params[bn], model.state[bn])
        filter_next = end < len(specs) and kinds[specs[end].kind].forward is _filter_forward and specs[end].pad == 0
        if filter_next and (pool is None or pool < bn or np.all(a > 0)):
            group = model.channels[bn] // a.size
            fold = np.repeat(a, group), np.repeat(b, group)
        else:
            end = bn
    pool = (specs[pool].kernel, specs[pool].stride) if pool is not None and pool < end else None
    return pool, "relu" in seen, fold, end


def _fold_batchnorm(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple:
    """(w scaled by a over its input channels, the per-output bias sum(w*b)).

    Each output's terms are summed in the order of their bit patterns,
    so outputs whose terms are one multiset, the four slots of a tied
    group, get bit-equal biases.
    """
    terms = (w * b[:, None, None]).reshape(w.shape[0], -1)
    ordered = np.sort(terms.view(f"i{terms.itemsize}"), axis=1).view(terms.dtype)
    return w * a[:, None, None], ordered.sum(axis=1)


def _fused_eval(model: Model, h: np.ndarray, kinds: dict) -> np.ndarray:
    """`forward`'s eval walk of the `kinds` table."""
    fold = None  # (a, b) of the batch norm folded into the next filter step
    i = 0
    while i < len(model.specs):
        spec = model.specs[i]
        if kinds[spec.kind].forward is not _filter_forward:
            h = kinds[spec.kind].forward(model, i, h, False, None)[0]
            i += 1
            continue
        w, bias = model.expanded_filter(i), None
        if fold is not None:
            w, bias = _fold_batchnorm(w, *fold)
        pool, relu, fold, end = _epilogue(model, i, kinds)
        h = correlate2d(h, w, ConvGeometry(spec.stride, spec.pad), epilogue=Epilogue(pool, bias, relu))
        i = end
    return h


def forward(model: Model, x: np.ndarray, mode: str = "train", rng=None, *, kinds: dict = KINDS):
    """Run the stack; returns (logits, cache). Logits are (n, features).

    Each layer runs the forward step of its kind's entry in `kinds`, a
    table keyed like `KINDS` (the map-rotating one of `bench` swaps the
    tied kinds' steps). An eval-mode pass keeps no layer caches (its
    cache holds None per layer), so each layer's input is freed as soon
    as the next runs.

    An eval-mode pass fuses. Each layer whose step in `kinds` is the
    filter step (`correlate2d` on `Model.expanded_filter`) hands
    `correlate2d` an epilogue (`conv.Epilogue`): the layers after it
    that can be finished per GEMM block, namely dropouts (the identity
    in eval) and at most one ReLU, one max pool and one group batch
    norm, with no ReLU after the batch norm, so no full-resolution map
    before a pool is stored. The batch norm's affine a, b
    (`GroupBatchNorm.affine`) is folded into the layer after the
    epilogue, whose bank is scaled by a over its input channels and
    whose output gains the bias sum(w*b), bit-equal over the four slots
    of each tied group. It folds only if that layer runs the filter step
    with pad 0 (its zero padding is no b) and, when the max pool follows
    the batch norm, every a > 0, since only an increasing map commutes
    with a maximum. A batch norm that cannot fold ends the epilogue
    before it and runs its own eval pass. Every other layer, such as a
    step that rotates feature maps, runs its plain step. The logits
    differ from the plain walk's by the fold's rounding only (up to
    about 2e-6 relative in float32 and 3e-15 in float64), and not at all
    where no batch norm folds. Train mode walks the plain steps.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    train = mode == "train"
    caches = []
    new_state = {}
    h = x.astype(model.dtype, copy=False)
    if not train:
        h, caches = _fused_eval(model, h, kinds), [None] * len(model.specs)
    else:
        for i, spec in enumerate(model.specs):
            h, cache, state = kinds[spec.kind].forward(model, i, h, train, rng)
            caches.append(cache)
            if state is not None:
                new_state[i] = state
    n = h.shape[0]
    cache = ForwardCache(caches, new_state, h.shape, train)
    return h.reshape(n, -1), cache


def backward(model: Model, cache: ForwardCache, grad_logits: np.ndarray) -> dict:
    """Walk the stack backwards; returns {layer index: {param name: grad}}.

    The walk stops at the lowest trainable layer: nothing below it has
    parameters, so no gradient is passed further down, and a conv-like
    layer there forms no input gradient at all. The cache is consumed:
    each layer's entry is dropped as the walk passes it, so the walk's
    peak holds only the caches of the layers still below it.
    """
    if not cache.train:
        raise ValueError("backward needs the cache of a train-mode forward; this one is from mode='eval'")
    if cache.layer_caches is None:
        raise ValueError("this forward cache was already consumed by a backward pass; run forward again")
    caches, cache.layer_caches = cache.layer_caches, None  # consumed even if a step raises
    grads = {}
    g = grad_logits.reshape(cache.logits_shape).astype(model.dtype, copy=False)
    lowest = min(model.params, default=len(model.specs))
    for i in range(len(model.specs) - 1, lowest - 1, -1):
        kind = KINDS[model.specs[i].kind]
        bottom = {"input_grad": False} if i == lowest and kind.expand is not None else {}
        layer_cache, caches[i] = caches[i], None
        g, layer_grads = kind.backward(model, i, g, layer_cache, **bottom)
        if layer_grads is not None:
            grads[i] = layer_grads
    return grads


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean negative log-likelihood and its gradient w.r.t. the logits."""
    n, k = logits.shape
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"labels must lie in 0..{k - 1}")
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    denom = ez.sum(axis=1, keepdims=True)
    nll = np.log(denom[:, 0]) - z[np.arange(n), labels]
    grad = ez / denom
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return float(nll.mean()), grad.astype(logits.dtype)


def sgd_step(model: Model, grads: dict, lr: float, momentum: float) -> None:
    for i, layer_grads in grads.items():
        for name, g in layer_grads.items():
            v = model.velocity[i][name]
            v *= momentum
            v -= lr * g
            model.params[i][name] += v


EVAL_BATCH = 256  # images per eval-mode forward in `predict` and `evaluate`


def predict(model: Model, images: np.ndarray) -> np.ndarray:
    """Class predictions; ties break toward the lowest class index.

    In float32 an image's logits depend slightly on the batch it is
    evaluated in: OpenBLAS sends small GEMMs (about 1e6 multiply-adds or
    fewer) to a kernel that rounds differently, so a batch of a few
    images, like the last partial batch here, can give logits up to
    ~4.2e-7 relative away from the same images inside a full batch.
    That can flip a prediction only where the top two logits tie to
    round-off.
    """
    out = []
    for lo in range(0, images.shape[0], EVAL_BATCH):
        logits, _ = forward(model, images[lo : lo + EVAL_BATCH], mode="eval")
        out.append(np.argmax(logits, axis=1))
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


def evaluate(model: Model, dataset) -> float:
    """Error rate in [0, 1] on a dataset with .images and .labels."""
    preds = predict(model, dataset.images)
    return float(np.mean(preds != dataset.labels))


def train(model: Model, train_ds, val_ds, config: TrainConfig) -> list:
    """Momentum-SGD training; returns [(epoch, train_loss, val_error), ...].

    The config seed fully determines shuffling and dropout masks;
    initialization is fixed separately at build time. A batch whose
    loss is not finite raises `TrainingDiverged`, naming the epoch and
    the batch, before that batch updates the model; numpy's overflow and
    invalid-value warnings are silenced, so that is the one report.
    """
    rng = np.random.default_rng(config.seed)
    n = train_ds.images.shape[0]
    history = []
    decay_after = (2 * config.epochs) // 3
    for epoch in range(1, config.epochs + 1):
        lr = config.lr * (config.lr_decay if epoch > decay_after else 1.0)
        order = rng.permutation(n)
        losses = []
        for batch, lo in enumerate(range(0, n, config.batch_size), start=1):
            idx = order[lo : lo + config.batch_size]
            with np.errstate(over="ignore", invalid="ignore"):
                logits, cache = forward(model, train_ds.images[idx], mode="train", rng=rng)
                loss, grad = softmax_cross_entropy(logits, train_ds.labels[idx])
                if not math.isfinite(loss):
                    raise TrainingDiverged(f"training diverged: loss {loss} at epoch {epoch}, batch {batch}")
                grads = backward(model, cache, grad)
                for i, st in cache.new_state.items():
                    model.state[i] = st
                sgd_step(model, grads, lr, config.momentum)
            losses.append(loss)
        val_error = evaluate(model, val_ds)
        history.append((epoch, float(np.mean(losses)), val_error))
    return history


FD_STEP = 1e-5  # central-difference step of `finite_diff_check`


def finite_diff_check(model: Model, x: np.ndarray, labels: np.ndarray) -> float:
    """Max relative error between analytic and central-difference gradients.

    Sweeps every parameter component, stepping it by +-FD_STEP.
    Per-component deviations are scaled by |fd| + |analytic|, floored at 1e-3 of the gradient's max
    magnitude so that difference-quotient roundoff on vanishing
    components cannot drown the check. The model must be deterministic
    (no dropout layers: this check passes no rng, so their forward
    raises); double precision is strongly recommended.
    """

    def loss_of() -> float:
        logits, _ = forward(model, x, mode="train")
        loss, _ = softmax_cross_entropy(logits, labels)
        return loss

    logits, cache = forward(model, x, mode="train")
    _, grad_logits = softmax_cross_entropy(logits, labels)
    grads = backward(model, cache, grad_logits)
    gmax = max(
        (float(np.max(np.abs(g))) for lg in grads.values() for g in lg.values()), default=0.0
    )
    floor = max(1e-3 * gmax, 1e-12)

    worst = 0.0
    for i, layer_grads in grads.items():
        for name, g in layer_grads.items():
            p = model.params[i][name]
            flat = p.reshape(-1)
            gflat = g.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + FD_STEP
                hi = loss_of()
                flat[j] = orig - FD_STEP
                lo = loss_of()
                flat[j] = orig
                fd = (hi - lo) / (2 * FD_STEP)
                denom = max(abs(fd) + abs(gflat[j]), floor)
                worst = max(worst, abs(fd - gflat[j]) / denom)
    return worst
