"""Command-line entry point: data generation, training, verification, benchmarks.

File formats owned here:

* Checkpoint: magic ``DREN`` + u32 version, a fixed-width layer table
  (kind code u8; width, kernel, stride, pad, dropout-rate-ppm as u32),
  then per trainable layer the parameter arrays as u64 length +
  little-endian float32 values in a fixed per-kind order. Decoding an
  encoded model reproduces specs, parameters, and normalization state
  bit-exactly; unknown versions are rejected. Encoding refuses a model
  the checkpoint would load changed or could not hold: one that is not
  float32, a dropout rate that is not a whole number of millionths, or a
  record field outside a u32. Both directions refuse a parameter or
  state array holding a non-finite value, and a negative running
  variance, which would turn the eval logits into NaN. ``train --out``
  checks the same before training.
* Run config: ``key = value`` lines, ``#`` comments; unknown keys are
  rejected with their line number. Its ``layers`` value is a stack in
  the layer grammar, which `network.parse_layer_stack` owns.
* Metrics: one ``epoch,train_loss,val_error`` line per epoch.

Exit codes: 0 success, 1 failure (failed suite, training error, out of
memory), 2 usage error (bad flags, config or layer stack).
"""

import argparse
import math
import numbers
import os
import struct
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import data as data_mod
from . import network, oracle, tensor
from .conv import ConvGeometry, correlate2d, stride_preserves_equivariance
from .network import LayerSpec, Model, ModelSpecError, TrainConfig, build_model, parse_layer_stack
from .oracle import relative_deviation

CHECKPOINT_MAGIC = b"DREN"
CHECKPOINT_VERSION = 1


class ConfigError(ValueError):
    """Run-config or data-split problem; a config file's message carries the line number."""


class CheckpointError(ValueError):
    """Checkpoint bytes are not a valid model."""


# ---------------------------------------------------------------------------
# checkpoint format


_LAYER_RECORD = "<BIIIII"  # kind code; width, kernel, stride, pad, dropout rate in whole millionths


def _layer_record(spec: LayerSpec) -> tuple:
    rate_ppm = int(round(spec.rate * 1_000_000))
    return network.ALL_KINDS.index(spec.kind), spec.width, spec.kernel, spec.stride, spec.pad, rate_ppm


def _record_spec(record: tuple) -> LayerSpec:
    code, width, kernel, stride, pad, rate_ppm = record
    if code >= len(network.ALL_KINDS):
        raise CheckpointError(f"unknown layer kind code {code}")
    kind = network.ALL_KINDS[code]
    return LayerSpec(kind, width=width, kernel=kernel, stride=stride, pad=pad, rate=rate_ppm / 1_000_000)


def _stored_arrays(model: Model, i: int) -> list:
    """(name, array) of each array a checkpoint stores for layer i, in its order."""
    kind = network.KINDS[model.specs[i].kind]
    return [(n, model.params[i][n]) for n in kind.params] + [(n, model.state[i][n]) for n in kind.state]


def _check_values(model: Model, error: type) -> None:
    """Raise `error`, naming the layer and the array, for a stored array
    holding a non-finite value or a running variance holding a negative one."""
    for i, spec in enumerate(model.specs):
        for name, a in _stored_arrays(model, i):
            if not np.isfinite(a).all():
                raise error(f"layer {i} ({spec.kind}): {name} holds a non-finite value")
            if name == "var" and (a < 0).any():
                raise error(f"layer {i} ({spec.kind}): running variance {name} holds a negative value")


def _check_storable(model: Model) -> None:
    """Raise ModelSpecError if a checkpoint would store `model` changed or
    not at all: a precision other than float32, a record field (width,
    kernel, stride, pad, or the rate in millionths) that is not a whole
    number in a u32's range, a dropout rate, kept in whole millionths,
    that is not one, or a value `_check_values` refuses. The message
    names the layer and the field or array."""
    precision = np.dtype(model.dtype).name
    if precision != "float32":
        raise ModelSpecError(
            f"precision {precision}: a checkpoint keeps float32 values, so the model would load as float32"
        )
    for i, spec in enumerate(model.specs):
        for name in ("width", "kernel", "stride", "pad", "rate"):
            value = getattr(spec, name)
            units = value * 1_000_000 if name == "rate" else value
            whole = name == "rate" or isinstance(value, numbers.Integral)
            if not (whole and 0 <= units <= 2**32 - 1):  # NaN fails the comparison
                raise ModelSpecError(
                    f"layer {i} ({spec.kind}): a checkpoint keeps {name} as a u32"
                    f"{' in millionths' if name == 'rate' else ''}, which cannot hold {value!r}"
                )
        stored = _record_spec(_layer_record(spec))
        if stored != spec:
            raise ModelSpecError(
                f"layer {i} ({spec.kind}): a checkpoint keeps rates in whole millionths, "
                f"so rate {spec.rate} would load as {stored.rate}"
            )
    _check_values(model, ModelSpecError)


def encode_checkpoint(model: Model) -> bytes:
    """The checkpoint bytes of `model`; ModelSpecError if they would not
    load as the same model (see `_check_storable`)."""
    _check_storable(model)
    out = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    out.append(struct.pack("<II", len(model.specs), model.in_channels))
    for spec in model.specs:
        out.append(struct.pack(_LAYER_RECORD, *_layer_record(spec)))
    for i in range(len(model.specs)):
        for _, a in _stored_arrays(model, i):
            flat = np.ascontiguousarray(a, dtype="<f4")
            out.append(struct.pack("<Q", flat.size))
            out.append(flat.tobytes())
    return b"".join(out)


def save_checkpoint(model: Model, path) -> None:
    Path(path).write_bytes(encode_checkpoint(model))


def decode_checkpoint(raw: bytes) -> Model:
    try:
        return _decode_checkpoint(raw)
    except (struct.error, IndexError) as exc:
        raise CheckpointError(f"truncated checkpoint: {exc}") from exc


def _decode_checkpoint(raw: bytes) -> Model:
    if raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic: expected {CHECKPOINT_MAGIC!r}, found {raw[:4]!r}")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    n_layers, in_channels = struct.unpack_from("<II", raw, 8)
    off = 16
    specs = []
    for _ in range(n_layers):
        specs.append(_record_spec(struct.unpack_from(_LAYER_RECORD, raw, off)))
        off += struct.calcsize(_LAYER_RECORD)
    shapes, _, _ = network.plan_layers(specs, in_channels)
    kinds = [network.KINDS[s.kind] for s in specs]
    # every array is a u64 length plus float32 values; check the total
    # before anything is allocated, so a corrupt header cannot demand more
    # memory than the file holds
    declared = sum(
        len(kind.params + kind.state) * (8 + 4 * math.prod(shape))
        for kind, shape in zip(kinds, shapes)
        if shape is not None
    )
    remaining = len(raw) - off
    if declared > remaining:
        raise CheckpointError(
            f"truncated checkpoint: layer table declares {declared} parameter bytes, {remaining} follow"
        )
    if declared < remaining:
        raise CheckpointError(f"{remaining - declared} trailing bytes after parameters")
    model = build_model(specs, in_channels=in_channels, seed=0, precision="float32")
    for i in range(n_layers):
        for _, a in _stored_arrays(model, i):  # the model's own arrays, filled in place
            (size,) = struct.unpack_from("<Q", raw, off)
            if size != a.size:
                raise CheckpointError(f"parameter blob holds {size} values, expected {a.size}")
            a[...] = np.frombuffer(raw, dtype="<f4", count=size, offset=off + 8).reshape(a.shape)
            off += 8 + 4 * size
    _check_values(model, CheckpointError)
    return model


def load_checkpoint(path) -> Model:
    return decode_checkpoint(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# run config

# run-config key of each TrainConfig field: its name, but for batch_size
TRAIN_KEYS = {f.name: {"batch_size": "batch"}.get(f.name, f.name) for f in fields(TrainConfig)}
CONFIG_DEFAULTS = {  # each key's value type is that of its default; training ones are TrainConfig's
    "layers": "@dren-small",
    **{key: getattr(TrainConfig, name) for name, key in TRAIN_KEYS.items()},
    "precision": "float32",
    "data_dir": "",
}

def parse_run_config(text: str) -> dict:
    """Parse key = value lines; each key may be set once. An unknown key
    names its line number, and a key set again names both lines."""
    cfg, seen = dict(CONFIG_DEFAULTS), {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line.strip()!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if seen.setdefault(key, lineno) != lineno:
            raise ConfigError(f"line {lineno}: {key!r} is already set on line {seen[key]}")
        try:
            cfg[key] = type(CONFIG_DEFAULTS[key])(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return cfg


# ---------------------------------------------------------------------------
# dataset files

SPLIT_FILES = {
    "train": ("train-images.idx", "train-labels.idx"),
    "val": ("val-images.idx", "val-labels.idx"),
    "test": ("test-images.idx", "test-labels.idx"),
}


def write_split(out_dir: Path, name: str, ds: data_mod.Dataset) -> None:
    img_name, lbl_name = SPLIT_FILES[name]
    (out_dir / img_name).write_bytes(data_mod.dump_idx_images(ds.images))
    (out_dir / lbl_name).write_bytes(data_mod.dump_idx_labels(ds.labels))


def read_split(data_dir: Path, name: str) -> data_mod.Dataset:
    img_name, lbl_name = SPLIT_FILES[name]
    ds = data_mod.load_dataset((data_dir / img_name).read_bytes(), (data_dir / lbl_name).read_bytes())
    if len(ds) == 0:
        raise ConfigError(f"the {name} split in {data_dir} holds no images")
    return ds


# ---------------------------------------------------------------------------
# verification suites


@dataclass
class PropertyResult:
    name: str
    deviation: float
    threshold: float
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name:<44s} dev={self.deviation:.3e} limit={self.threshold:.1e} {status}"


def _tied_case(rng, kind: str, kernel=None, size=None) -> tuple:
    """(base, x): a random float64 layer of tied `kind`, shaped by the kind
    table, and its input. Width 1..5, 1..3 input channels or groups, batch
    1..2, and unless given kernel 1 or 3 and size max(4, kernel)..12."""
    spec = LayerSpec(kind, width=int(rng.integers(1, 6)), kernel=kernel or int(rng.choice([1, 3])))
    size = size or int(rng.integers(max(4, spec.kernel), 13))
    entry = network.KINDS[kind]
    c_in = int(rng.integers(1, 4)) * (4 if entry.permuted[0] else 1)
    x = rng.standard_normal((int(rng.integers(1, 3)), c_in, size, size))
    return rng.standard_normal(entry.shape(spec, c_in, 4)), x


def _identity_deviation(kind: str, base, x, geom=ConvGeometry()) -> float:
    """Relative gap of f(R P^a x) from R P^b f(x), f one tied layer, (a, b) its kind's `permuted`."""
    entry = network.KINDS[kind]
    a, b = entry.permuted
    f = lambda h: correlate2d(h, entry.expand(base), geom)
    turn = lambda h, permuted: tensor.rotate90(tensor.cyclic_permute(h) if permuted else h)
    return relative_deviation(f(turn(x, a)), turn(f(x), b))[1]


def _at_most(name: str, deviation: float, limit: float) -> PropertyResult:
    return PropertyResult(name, deviation, limit, deviation <= limit)


def _worst_per_tied_kind(rng, trials: int, measure) -> dict:
    """Largest `measure(kind, base, x)` over `trials` random layers of each tied kind."""
    worst = dict.fromkeys(network.TIED_KINDS, 0.0)
    for _ in range(trials):
        for kind in network.TIED_KINDS:
            worst[kind] = max(worst[kind], measure(kind, *_tied_case(rng, kind)))
    return worst


def suite_layers(trials: int, seed: int) -> list:
    """Randomized layer identities in float64; reports the worst deviation seen."""
    rng = np.random.default_rng(seed)
    worst = _worst_per_tied_kind(rng, trials, _identity_deviation)
    worst["end_to_end"] = max(_end_to_end_deviation(rng) for _ in range(trials))
    return [_at_most(f"layers/{name}_identity", dev, 1e-12) for name, dev in worst.items()]


def _end_to_end_deviation(rng) -> float:
    """f(Rx) vs R f(x) through an eval-mode `network.forward` of cycle -> k
    isotonic -> decycle with shared bias, batch norm and relu interleaved."""
    g = int(rng.integers(1, 3))
    k_iso = int(rng.integers(0, 3))
    size = int(rng.integers(6, 11))
    text = f"cycle:g{g}:k3,bias,relu," + f"isotonic:g{g}:k1,bn,relu," * k_iso + "decycle:c5:k1"
    model = build_model(parse_layer_stack(text), precision="float64")
    for i, arrays in model.params.items():
        model.params[i] = {name: rng.standard_normal(a.shape) for name, a in arrays.items()}
    for state in model.state.values():
        state["mean"] = rng.standard_normal(state["mean"].shape)
        state["var"] = rng.uniform(0.5, 2.0, state["var"].shape)
    x = rng.standard_normal((2, 1, size, size))

    f = lambda inp: network.forward(model, inp, mode="eval")[0].reshape(2, 5, size - 2, size - 2)

    return relative_deviation(f(tensor.rotate90(x)), tensor.rotate90(f(x)))[1]


def suite_oracle(trials: int, seed: int) -> list:
    """Tied-filter layers against their map-rotating twins, in float64."""
    # `oracle_<kind>` is looked up at call time, so a patched one is the one measured
    measure = lambda kind, base, x: relative_deviation(
        correlate2d(x, network.KINDS[kind].expand(base)), getattr(oracle, f"oracle_{kind}")(base, x)
    )[1]
    worst = _worst_per_tied_kind(np.random.default_rng(seed), trials, measure)
    return [_at_most(f"oracle/{name}_equivalence", dev, 1e-12) for name, dev in worst.items()]


def suite_gradients(trials: int, seed: int) -> list:
    del trials  # a full parameter sweep is one deterministic pass
    rng = np.random.default_rng(seed)
    results = []
    stacks = {
        "dren_small": "cycle:g5:k3," + "isotonic:g5:k3," * 2 + "decycle:c10:k3,gap",
        "plain_cnn": "conv:c12:k3," * 2 + "conv:c10:k3,gap",
        # batch norms before a max pool, a padded conv-like layer, a group
        # pool and a conv: the inputs `network.backward` rebuilds
        "batchnorm_inputs": "cycle:g2:k3,relu,bn,maxpool:k2:s2,bn,isotonic:g2:k3:p1,relu,bn,gpmax,bn,conv:c10:k3,gap",
    }
    for name, stack in stacks.items():
        model = build_model(parse_layer_stack(stack), in_channels=1, seed=seed, precision="float64")
        for i, state in model.state.items():  # random, so each eval affine is far from the train-mode map
            state["mean"] = rng.standard_normal(state["mean"].shape)
            state["var"] = rng.uniform(0.5, 2.0, state["var"].shape)
            model.params[i]["gamma"] = rng.uniform(0.5, 2.0, state["var"].shape)
            model.params[i]["beta"] = rng.standard_normal(state["var"].shape)
        x = rng.random((2, 1, 10, 10))
        labels = rng.integers(0, 10, size=2)
        err = network.finite_diff_check(model, x, labels)
        results.append(PropertyResult(f"gradients/{name}_finite_diff", err, 1e-4, err < 1e-4))
    x, labels = rng.random((8, 1, 28, 28)), rng.integers(0, 10, size=8)
    gaps = [
        _turned_gradient_gap(specs, x, labels)
        for specs in map(parse_layer_stack, network.PRESETS.values())
        if any(spec.kind in network.TIED_KINDS for spec in specs)
    ]
    results.append(_at_most("gradients/turn_invariance", max(gaps), 1e-12))
    return results


def _turned_gradient_gap(specs: list, x, labels) -> float:
    """Worst relative gap between each parameter gradient of batch `x` and of
    `x` turned k quarter turns, k = 1..3: a float64 train-mode step of the
    stack `specs` without its dropout layers, whose masks are positional. An
    invariant stack's loss, and so its gradients, do not change under a turn."""
    specs = [spec for spec in specs if spec.kind != "dropout"]
    model = build_model(specs, precision="float64", input_size=x.shape[2])

    def grads(batch):
        logits, cache = network.forward(model, batch, mode="train")
        return network.backward(model, cache, network.softmax_cross_entropy(logits, labels)[1])

    upright = grads(x)
    turned = [grads(tensor.rotate90(x, k)) for k in range(1, 4)]
    return max(
        relative_deviation(other[i][name], g)[1]
        for other in turned
        for i, layer in upright.items()
        for name, g in layer.items()
    )


def suite_stride(trials: int, seed: int) -> list:
    """Quarter-turn equivariance of a strided cycle layer vs the size rule."""
    rng = np.random.default_rng(seed)
    draws = max(1, trials // 10)
    devs = {True: [], False: []}  # by whether the size rule holds
    for kernel in (2, 3):
        for size in range(3, 13):
            for _ in range(draws):
                base, x = _tied_case(rng, "cycle", kernel, size)
                dev = _identity_deviation("cycle", base, x, ConvGeometry(stride=2))
                devs[stride_preserves_equivariance(size, 2, kernel)].append(dev)
    false_best = min(devs[False])
    return [
        _at_most("stride/equivariant_when_rule_holds", max(devs[True]), 1e-12),
        PropertyResult("stride/violated_when_rule_fails", false_best, 1e-3, false_best > 1e-3),
    ]


SUITES = {
    "layers": suite_layers,
    "oracle": suite_oracle,
    "gradients": suite_gradients,
    "stride": suite_stride,
}


def run_suites(which: str, trials: int, seed: int) -> list:
    names = list(SUITES) if which == "all" else [which]
    results = []
    for name in names:
        results.extend(SUITES[name](trials, seed))
    return results


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args) -> int:
    n_train = args.n_train if args.n_train is not None else (args.n * 7) // 10
    n_val = args.n_val if args.n_val is not None else (args.n * 15) // 100
    n_test = args.n_test if args.n_test is not None else max(args.n - n_train - n_val, 0)
    if n_train + n_val + n_test > args.n:
        raise ConfigError(f"--n-train {n_train} + --n-val {n_val} + --n-test {n_test} exceed --n {args.n}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ds = data_mod.synth_glyphs(args.n, size=args.size, seed=args.seed)
    if args.mode == "exact":
        ds = data_mod.rotate_dataset_exact(ds, seed=args.seed + 1)
    elif args.mode == "arbitrary":
        ds = data_mod.rotate_dataset_arbitrary(ds, seed=args.seed + 1)
    train_ds, val_ds, test_ds = data_mod.split(ds, n_train, n_val, n_test, seed=args.seed + 2)
    for name, part in (("train", train_ds), ("val", val_ds), ("test", test_ds)):
        write_split(out_dir, name, part)
    print(
        f"wrote {n_train}/{n_val}/{n_test} {args.mode} images of size {args.size} to {out_dir}"
    )
    return 0


def _effective_config(args) -> dict:
    cfg = parse_run_config(Path(args.config).read_text()) if args.config else dict(CONFIG_DEFAULTS)
    for key in CONFIG_DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    return cfg


def _train_setup(args) -> tuple:
    """(effective config, TrainConfig) of a train or sweep run.

    Every config problem, an unknown precision among them, is raised
    as a ConfigError; no data is read here, so callers check the rest
    of their arguments before `_read_train_splits`.
    """
    cfg = _effective_config(args)
    if not cfg["data_dir"]:
        raise ConfigError("no data_dir configured")
    if cfg["precision"] not in network.PRECISIONS:
        choices = ", ".join(network.PRECISIONS)
        raise ConfigError(f"precision must be one of {choices}, got {cfg['precision']!r}")
    try:
        tc = TrainConfig(**{name: cfg[key] for name, key in TRAIN_KEYS.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg, tc


def _read_train_splits(cfg: dict) -> tuple:
    data_dir = Path(cfg["data_dir"])
    return read_split(data_dir, "train"), read_split(data_dir, "val")


def _check_models_fit(models: list, splits: dict) -> None:
    """Reject `splits` (name -> dataset) that do not share one square image
    shape, and models that do not fit them: by `plan_layers`, by input
    channels, or by fewer logits than the labels need. The logit width comes
    from the plan, as the last layer's channels times its output size
    squared; no forward runs.
    """
    (first, ds), *rest = splits.items()
    _, channels, h, w = ds.images.shape
    for name, other in rest:
        if other.images.shape[2:] != (h, w):
            oh, ow = other.images.shape[2:]
            raise ConfigError(f"the {name} images are {oh}x{ow}, but the {first} images are {h}x{w}")
    if h != w:
        raise ConfigError(f"the {' and '.join(splits)} images are {h}x{w}, but only square images are supported")
    classes = max(int(ds.labels.max()) + 1 for ds in splits.values())
    for model in models:
        _, out_channels, size = network.plan_layers(model.specs, model.in_channels, h)
        if model.in_channels != channels:
            raise ModelSpecError(
                f"the model takes {model.in_channels} input channels, but the {first} images have {channels}"
            )
        width = out_channels[-1] * size**2
        if width < classes:
            last = len(model.specs) - 1
            raise ModelSpecError(
                f"layer {last} ({model.specs[last].kind}) gives {width} logits per image, "
                f"but the labels need {classes} classes"
            )


def _check_writable(flag: str, path: str) -> None:
    """ConfigError unless `path` can be written as a file: not a directory,
    in an existing directory this process may write to."""
    target = Path(path)
    if target.is_dir():
        raise ConfigError(f"cannot write {flag} {path}: it is a directory")
    if not target.parent.is_dir():
        raise ConfigError(f"cannot write {flag} {path}: directory {target.parent} does not exist")
    if not os.access(target.parent, os.W_OK):
        raise ConfigError(f"cannot write {flag} {path}: directory {target.parent} is not writable")


def cmd_train(args) -> int:
    cfg, tc = _train_setup(args)
    if args.out and args.metrics and Path(args.out).resolve() == Path(args.metrics).resolve():
        raise ConfigError(
            f"--out {args.out} and --metrics {args.metrics} are one file; the checkpoint would overwrite the metrics"
        )
    for flag in ("out", "metrics"):
        if getattr(args, flag):
            _check_writable(f"--{flag}", getattr(args, flag))
    specs = parse_layer_stack(cfg["layers"])
    train_ds, val_ds = _read_train_splits(cfg)
    print("effective config: " + " ".join(f"{k}={cfg[k]}" for k in sorted(cfg)))
    model = build_model(specs, in_channels=1, seed=cfg["seed"], precision=cfg["precision"])
    _check_models_fit([model], {"train": train_ds, "val": val_ds})
    if args.out:
        _check_storable(model)
    counts = model.parameter_counts()
    print(f"model: {len(specs)} layers, {model.num_parameters} parameters "
          + " ".join(f"L{i}:{n}" for i, n in sorted(counts.items())))
    history = network.train(model, train_ds, val_ds, tc)
    if args.metrics:
        lines = [f"{e},{loss:.10g},{err:.10g}" for e, loss, err in history]
        Path(args.metrics).write_text("\n".join(lines) + "\n")
    if args.out:
        save_checkpoint(model, args.out)
    last = history[-1]
    print(f"done: epoch={last[0]} train_loss={last[1]:.4f} val_error={last[2]:.4f}")
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    test_ds = read_split(Path(args.data), "test")
    _check_models_fit([model], {"test": test_ds})
    images = test_ds.images
    if args.rotate % 4 != 0:
        images = tensor.rotate90(images, args.rotate)
    preds = network.predict(model, images)
    error = float(np.mean(preds != test_ds.labels))
    print(f"test_error={error:.6f} n={len(test_ds)} rotate={args.rotate % 4}")
    return 0


def cmd_verify(args) -> int:
    results = run_suites(args.suite, args.trials, args.seed)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} properties passed")
    return 1 if failed else 0


def cmd_bench(args) -> int:
    fast, slow = bench_mod.compare_strategies(args.model, args.batch, args.trials, args.seed)
    csv_text = bench_mod.report_csv([fast, slow])
    if args.out:
        Path(args.out).write_text(csv_text)
    print(csv_text, end="")
    names = ["rotate-filters", "rotate-feature-maps"]
    if fast.ratio < 1:  # name the faster strategy first, so the ratio is never below 1
        names.reverse()
    print(
        f"{names[0]} is {max(fast.ratio, slow.ratio):.2f}x faster than {names[1]} "
        f"(reference GPU measurement, z2cnn-shape at batch 64: rotate-filters 1.97s, rotate-feature-maps 4.15s, 2.1x)"
    )
    return 0


def cmd_analyze(args) -> int:
    geom = bench_mod.LayerGeometry(args.n, args.cin, args.cout, args.k, args.w, args.h)
    print("strategy,filters,feature_map,feature_map_gemm")
    for strategy in bench_mod.STRATEGIES:
        r = bench_mod.memory_model(geom, strategy)
        print(f"{r.strategy},{r.filters_cost},{r.feature_map_cost},{r.feature_map_gpu_cost}")
    return 0


def sweep_stack(depth: int) -> list:
    """Seven-slot family with the first `depth` slots tied (28x28 inputs).

    Slot 1 is a cycle layer, isotonic layers follow up to slot `depth`,
    which is a decycle layer (at depth 1 the cycle layer is closed by
    group max pooling instead), and untied convs fill the rest. Each
    slot ends in relu, slot 2 also in 2x2 max pooling; slot 7 is the
    10-channel 4x4 head.
    """
    if not 1 <= depth <= 7:
        raise ValueError("depth must be in 1..7")
    tied = ["cycle"] + ["isotonic"] * max(depth - 2, 0) + (["decycle"] if depth > 1 else [])
    text = ""
    for slot, kind in enumerate(tied + ["conv"] * (7 - len(tied)), start=1):
        shape = "g5:k3" if kind in ("cycle", "isotonic") else "c10:k4" if slot == 7 else "c20:k3"
        text += f"{kind}:{shape},relu,"
        if depth == 1 and slot == 1:
            text += "gpmax,"
        if slot == 2:
            text += "maxpool:k2:s2,"
    return parse_layer_stack(text + "gap")


def _parse_depths(text: str) -> range:
    """Depths of a sweep range like '1..7' or '3'; ConfigError unless a nonempty part of 1..7."""
    lo, _, hi = text.partition("..")
    try:
        depths = range(int(lo), int(hi or lo) + 1)
    except ValueError:
        raise ConfigError(f"depths must be a range like 1..7, got {text!r}") from None
    if not depths or depths[0] < 1 or depths[-1] > 7:
        raise ConfigError(f"depths must be a nonempty range within 1..7, got {text!r}")
    return depths


def cmd_sweep(args) -> int:
    depths = _parse_depths(args.depths)
    cfg, tc = _train_setup(args)
    if cfg["layers"] != CONFIG_DEFAULTS["layers"]:
        raise ConfigError(f"sweep trains its own depth family; the config sets layers = {cfg['layers']!r}")
    train_ds, val_ds = _read_train_splits(cfg)
    if train_ds.images.shape[2] != 28:
        raise ConfigError("sweep: the depth family expects 28x28 images")
    models = [
        build_model(sweep_stack(d), in_channels=1, seed=cfg["seed"], precision=cfg["precision"]) for d in depths
    ]
    _check_models_fit(models, {"train": train_ds, "val": val_ds})
    for n, (depth, model) in enumerate(zip(depths, models)):
        history = network.train(model, train_ds, val_ds, tc)
        if n == 0:  # the header waits for a row, so a run that fails prints no CSV
            print("depth,val_error")
        print(f"{depth},{history[-1][2]:.6g}")
    return 0


def _count_at_least(lowest: int):
    """argparse type of an integer flag >= `lowest`; argparse exits 2 naming the flag otherwise."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be >= {lowest}, got {value}")
        return value

    return parse


NON_NEGATIVE, POSITIVE = _count_at_least(0), _count_at_least(1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roteq", description="rotation-equivariant convolution kit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write synthetic IDX train/val/test splits")
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("exact", "arbitrary", "synth"), default="exact")
    p.add_argument("--n", type=NON_NEGATIVE, default=1000)
    p.add_argument("--seed", type=NON_NEGATIVE, default=0)
    p.add_argument("--size", type=_count_at_least(10), default=28)
    p.add_argument("--n-train", type=NON_NEGATIVE, default=None)
    p.add_argument("--n-val", type=NON_NEGATIVE, default=None)
    p.add_argument("--n-test", type=NON_NEGATIVE, default=None)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train a model from a run config")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None, help="checkpoint path")
    p.add_argument("--metrics", default=None, help="per-epoch CSV path")
    for key, default in CONFIG_DEFAULTS.items():
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=type(default), default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--rotate", type=int, default=0, help="rotate inputs by k quarter turns")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    p.add_argument(
        "--trials", type=POSITIVE, default=20,
        help="random draws of the randomized suites; the gradients suite sweeps every parameter once and ignores it",
    )
    p.add_argument("--seed", type=NON_NEGATIVE, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="time both layer strategies")
    p.add_argument("--model", choices=sorted(bench_mod.BENCH_MODELS), default="z2cnn-shape")
    p.add_argument("--batch", type=POSITIVE, default=64)
    p.add_argument("--trials", type=_count_at_least(3), default=5)
    p.add_argument("--seed", type=NON_NEGATIVE, default=0)
    p.add_argument("--out", default=None, help="CSV path")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("analyze", help="print analytic memory costs for one layer")
    p.add_argument("--n", type=POSITIVE, required=True)
    p.add_argument("--cin", type=POSITIVE, required=True)
    p.add_argument("--cout", type=POSITIVE, required=True)
    p.add_argument("--k", type=POSITIVE, required=True)
    p.add_argument("--w", type=POSITIVE, required=True)
    p.add_argument("--h", type=POSITIVE, required=True)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("sweep", help="train the tied-depth family, report val errors")
    p.add_argument("--depths", default="1..7", help="range like 1..7")
    p.add_argument("--config", default=None)
    for key, default in CONFIG_DEFAULTS.items():
        if key != "layers":
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=type(default), default=None)
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, CheckpointError, ModelSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
