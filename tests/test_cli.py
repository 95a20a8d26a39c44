import dataclasses
import hashlib
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from roteq import bench as bench_mod
from roteq import cli, data, network
from roteq.cli import (
    CheckpointError,
    ConfigError,
    decode_checkpoint,
    encode_checkpoint,
    load_checkpoint,
    parse_layer_stack,
    parse_run_config,
    sweep_stack,
)
from roteq.network import LayerSpec, ModelSpecError, TrainConfig, build_model, preset_stack


# ---------------------------------------------------------------------------
# checkpoint format


def full_featured_model():
    stack = [
        LayerSpec("cycle", width=2, kernel=3),
        LayerSpec("shared_bias"),
        LayerSpec("relu"),
        LayerSpec("group_batchnorm"),
        LayerSpec("isotonic", width=2, kernel=3),
        LayerSpec("dropout", rate=0.4),
        LayerSpec("decycle", width=6, kernel=3),
        LayerSpec("global_avg_pool"),
    ]
    return build_model(stack, in_channels=1, seed=11)


def test_checkpoint_round_trip_bit_exact():
    model = full_featured_model()
    # make stored state nontrivial
    model.state[3]["mean"] += 0.25
    model.state[3]["var"] *= 1.5
    clone = decode_checkpoint(encode_checkpoint(model))
    assert [s for s in clone.specs] == [s for s in model.specs]
    assert clone.in_channels == model.in_channels
    for i in model.params:
        for name, arr in model.params[i].items():
            np.testing.assert_array_equal(clone.params[i][name], arr)
    for i in model.state:
        for name, arr in model.state[i].items():
            np.testing.assert_array_equal(clone.state[i][name], arr)
    assert encode_checkpoint(clone) == encode_checkpoint(model)


def test_checkpoint_bad_magic():
    with pytest.raises(CheckpointError, match="magic"):
        decode_checkpoint(b"NOPE" + bytes(16))


def test_checkpoint_unknown_version():
    raw = bytearray(encode_checkpoint(full_featured_model()))
    raw[4:8] = struct.pack("<I", 999)
    with pytest.raises(CheckpointError, match="version"):
        decode_checkpoint(bytes(raw))


def test_checkpoint_truncated_and_trailing():
    raw = encode_checkpoint(full_featured_model())
    with pytest.raises(CheckpointError, match="truncated|blob"):
        decode_checkpoint(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError, match="trailing"):
        decode_checkpoint(raw + b"\x00\x00\x00\x00")


# Each tied stack has one terminator (decycle, group_pool_max or
# group_pool_mean), so covering all 12 kinds takes three stacks.
GOLDEN_STACKS = {
    "decycle": [
        LayerSpec("cycle", width=2, kernel=3),
        LayerSpec("shared_bias"),
        LayerSpec("relu"),
        LayerSpec("group_batchnorm"),
        LayerSpec("isotonic", width=2, kernel=3, pad=1),
        LayerSpec("dropout", rate=0.4),
        LayerSpec("max_pool", kernel=2, stride=2),
        LayerSpec("decycle", width=6, kernel=3),
        LayerSpec("global_avg_pool"),
    ],
    "group_pool_max": [
        LayerSpec("cycle", width=3, kernel=2, stride=2),
        LayerSpec("group_pool_max"),
        LayerSpec("conv", width=4, kernel=1),
        LayerSpec("group_batchnorm"),
        LayerSpec("global_avg_pool"),
    ],
    "group_pool_mean": [
        LayerSpec("cycle", width=4, kernel=1),
        LayerSpec("group_pool_mean"),
        LayerSpec("shared_bias"),
        LayerSpec("global_avg_pool"),
    ],
}
# (length, sha256) of encode_checkpoint with every array set to
# arange(size) / size; recorded from the v1 writer
GOLDEN_CHECKPOINTS = {
    "decycle": (1461, "708f5b1070002714d3c5de914c344296058415ec10052d3852a6ae4c85abd203"),
    "group_pool_max": (377, "616d279995380c940fc14a2df9e67ab1e2ad85fa559bb71555d818041228f2a8"),
    "group_pool_mean": (152, "a9e378e2926d95cd4132e26f943675ad6bc393b33afccf6bd807b503ded47766"),
}


def test_checkpoint_bytes_match_golden_hashes():
    assert {s.kind for stack in GOLDEN_STACKS.values() for s in stack} == set(network.ALL_KINDS)
    for name, stack in GOLDEN_STACKS.items():
        model = build_model(stack, in_channels=2, seed=0)
        for store in (model.params, model.state):
            for arrays in store.values():
                for a in arrays.values():
                    a[...] = (np.arange(a.size) / a.size).reshape(a.shape)
        raw = encode_checkpoint(model)
        assert (len(raw), hashlib.sha256(raw).hexdigest()) == GOLDEN_CHECKPOINTS[name], name
        assert encode_checkpoint(decode_checkpoint(raw)) == raw


def test_checkpoint_size_checked_before_allocation():
    # header and layer table of a 16M-parameter cycle layer, no parameters
    raw = struct.pack("<4sIII", b"DREN", 1, 2, 1) + b"".join(
        struct.pack("<BIIIII", network.ALL_KINDS.index(kind), width, kernel, 1, 0, 250_000)
        for kind, width, kernel in (("cycle", 1 << 24, 1), ("group_pool_max", 0, 0))
    )
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="truncated"):
            decode_checkpoint(raw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_checkpoint_dropout_rate_of_one_is_usage_error(tmp_path, data_dir, capsys):
    # full_featured_model's layer 5 is dropout; its record's last u32 is the rate in ppm
    raw = bytearray(encode_checkpoint(full_featured_model()))
    rate_at = 16 + 5 * struct.calcsize("<BIIIII") + struct.calcsize("<BIIII")
    assert struct.unpack_from("<I", raw, rate_at) == (400_000,)
    struct.pack_into("<I", raw, rate_at, 1_000_000)
    ckpt = tmp_path / "rate.ckpt"
    ckpt.write_bytes(bytes(raw))
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data_dir)]) == 2
    assert "layer 5 (dropout): rate 1.0 is outside [0, 1)" in capsys.readouterr().err


def test_checkpoint_with_fields_its_kinds_do_not_read_still_loads():
    # layer 2 is relu; give its record a width, kernel, stride and pad that
    # the layer grammar would reject, as a file written before it did
    raw = bytearray(encode_checkpoint(full_featured_model()))
    struct.pack_into("<IIII", raw, 16 + 2 * struct.calcsize("<BIIIII") + 1, 5, 3, 2, 1)
    model = decode_checkpoint(bytes(raw))
    assert model.specs[2] == LayerSpec("relu", width=5, kernel=3, stride=2, pad=1)
    assert encode_checkpoint(model) == bytes(raw)


def test_encode_checkpoint_refuses_a_float64_model():
    with pytest.raises(ModelSpecError, match="precision float64: a checkpoint keeps float32 values"):
        encode_checkpoint(build_model(preset_stack("dren-small"), precision="float64"))


def test_encode_checkpoint_refuses_a_rate_it_would_round():
    model = build_model(parse_layer_stack("conv:c10:k3,dropout:r0.1234567,gap"))
    with pytest.raises(ModelSpecError, match=r"layer 1 \(dropout\): .* rate 0.1234567 would load as 0.123457"):
        encode_checkpoint(model)


@pytest.mark.parametrize(
    "spec,field",
    [
        (LayerSpec("relu", width=-1), "width"),
        (LayerSpec("relu", width=2**32), "width"),
        (LayerSpec("relu", kernel=2**32), "kernel"),
        (LayerSpec("relu", kernel=1.5), "kernel"),
        (LayerSpec("relu", stride=-1), "stride"),
        (LayerSpec("relu", pad=-1), "pad"),
        (LayerSpec("dropout", rate=math.nan), "rate"),
        (LayerSpec("dropout", rate=math.inf), "rate"),
        (LayerSpec("dropout", rate=-math.inf), "rate"),
        (LayerSpec("dropout", rate=-0.5), "rate"),
        (LayerSpec("dropout", rate=4295.0), "rate"),  # 4.295e9 millionths
    ],
)
def test_encode_checkpoint_refuses_a_field_its_u32_cannot_hold(spec, field):
    # relu reads no field, and dropout's rate is checked when built, so
    # these specs are put in place after building
    model = build_model(parse_layer_stack("conv:c10:k3,relu,gap"))
    model.specs[1] = spec
    message = rf"layer 1 \({spec.kind}\): a checkpoint keeps {field} as a u32.*cannot hold {re.escape(repr(getattr(spec, field)))}"
    with pytest.raises(ModelSpecError, match=message):
        encode_checkpoint(model)


def test_eval_truncated_checkpoint_is_usage_error(tmp_path, data_dir, capsys):
    ckpt = tmp_path / "cut.ckpt"
    ckpt.write_bytes(encode_checkpoint(full_featured_model())[:40])
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data_dir)]) == 2
    capsys.readouterr()


RATES_PPM = (0, 250_000, 999_999, 1_000_000)
CONV, GAP = network.ALL_KINDS.index("conv"), network.ALL_KINDS.index("global_avg_pool")


def checkpoint_from_table(in_channels: int, records: list) -> bytes:
    """A checkpoint of `records` (kind code, width, kernel, stride, pad, rate ppm)
    whose arrays are zeros sized by `plan_layers`, or absent where it rejects."""
    raw = struct.pack("<4sIII", b"DREN", 1, len(records), in_channels)
    raw += b"".join(struct.pack("<BIIIII", *r) for r in records)
    if any(r[0] >= len(network.ALL_KINDS) for r in records):
        return raw
    specs = [LayerSpec(network.ALL_KINDS[c], w, k, s, p, ppm / 1_000_000) for c, w, k, s, p, ppm in records]
    try:
        shapes, _, _ = network.plan_layers(specs, in_channels)
    except ModelSpecError:
        return raw
    for spec, shape in zip(specs, shapes):
        if shape is not None:
            entry = network.KINDS[spec.kind]
            for _ in entry.params + entry.state:
                raw += struct.pack("<Q", math.prod(shape)) + bytes(4 * math.prod(shape))
    return raw


@seed(20261018)
@settings(max_examples=500, deadline=None, database=None)
@given(
    in_channels=st.integers(0, 3),
    records=st.lists(
        st.tuples(
            st.integers(0, len(network.ALL_KINDS)),
            *[st.integers(0, 5)] * 4,
            st.sampled_from(RATES_PPM),
        ),
        max_size=6,
    ),
)
@example(in_channels=0, records=[(CONV, 4, 1, 1, 0, 0), (GAP, 0, 0, 0, 0, 0)])
def test_structured_checkpoint_tables_decode_or_are_rejected(in_channels, records):
    raw = checkpoint_from_table(in_channels, records)
    try:
        model = decode_checkpoint(raw)
    except (CheckpointError, ModelSpecError):
        return
    assert encode_checkpoint(model) == raw


@seed(20261018)
@settings(max_examples=300, deadline=None, database=None)
@given(cut=st.integers(0, 10_000), flip=st.integers(0, 10_000), mask=st.integers(1, 255), truncate=st.booleans())
def test_truncated_or_flipped_checkpoint_decodes_or_is_rejected(cut, flip, mask, truncate):
    raw = bytearray(encode_checkpoint(full_featured_model()))
    if truncate:
        raw = raw[: cut % len(raw)]
    else:
        raw[flip % len(raw)] ^= mask
    try:
        decode_checkpoint(bytes(raw))
    except (CheckpointError, ModelSpecError):
        pass


def test_eval_zero_input_channel_checkpoint_is_usage_error(tmp_path, data_dir, capsys):
    ckpt = tmp_path / "zero.ckpt"
    # 66 bytes: no input channels, layers conv:c4:k1,gap, and the conv's empty filter bank
    raw = struct.pack("<4sIII", b"DREN", 1, 2, 0) + struct.pack("<BIIIII", CONV, 4, 1, 1, 0, 0)
    ckpt.write_bytes(raw + struct.pack("<BIIIIIQ", GAP, 0, 0, 0, 0, 0, 0))
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data_dir)]) == 2
    assert capsys.readouterr().err == "error: input channels 0 must be >= 1\n"


@pytest.mark.parametrize(
    "stack,message",
    [
        ("conv:c10:k20,gap", "layer 0 (conv): kernel 20 with stride 1 does not fit input 12 (pad 0)"),
        ("conv:c2:k1,gap", "layer 1 (global_avg_pool) gives 2 logits per image, but the labels need 10 classes"),
    ],
)
def test_eval_checks_the_model_against_the_data(tmp_path, data_dir, capsys, stack, message):
    ckpt = tmp_path / "model.ckpt"
    cli.save_checkpoint(build_model(parse_layer_stack(stack)), ckpt)
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data_dir)]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {message}\n" and out == ""


def test_eval_checks_the_model_input_channels_against_the_data(tmp_path, data_dir, capsys):
    ckpt = tmp_path / "rgb.ckpt"
    cli.save_checkpoint(build_model(parse_layer_stack("conv:c10:k3,gap"), in_channels=3), ckpt)
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data_dir)]) == 2
    out, err = capsys.readouterr()
    assert err == "error: the model takes 3 input channels, but the test images have 1\n" and out == ""


@pytest.mark.parametrize("stack,width", [("conv:c3:k3,gap", 3), ("conv:c1:k3,maxpool:k2:s2,conv:c2:k12", 8)])
def test_check_models_fit_takes_the_logit_width_from_the_plan(monkeypatch, stack, width):
    model = build_model(parse_layer_stack(stack), input_size=28)
    assert network.forward(model, np.zeros((1, 1, 28, 28)), mode="eval")[0].shape == (1, width)
    monkeypatch.setattr(network, "forward", lambda *args, **kwargs: pytest.fail("a forward ran"))
    images = np.zeros((1, 1, 28, 28))
    cli._check_models_fit([model], {"train": data.Dataset(images, np.array([width - 1]))})
    with pytest.raises(ModelSpecError, match=f"gives {width} logits per image, but the labels need {width + 1} classes"):
        cli._check_models_fit([model], {"train": data.Dataset(images, np.array([width]))})


# ---------------------------------------------------------------------------
# run config and stack grammar


def test_parse_run_config_defaults_and_overrides():
    cfg = parse_run_config("lr = 0.5\nepochs=3\n# comment\n\nseed = 4\n")
    assert cfg["lr"] == 0.5 and cfg["epochs"] == 3 and cfg["seed"] == 4
    assert cfg["momentum"] == 0.9  # default preserved


def test_train_config_defaults_are_the_run_config_defaults():
    keys = {"batch_size": "batch"}  # the run-config key of each TrainConfig field
    for f in dataclasses.fields(TrainConfig):
        assert cli.CONFIG_DEFAULTS[keys.get(f.name, f.name)] == f.default, f.name
    assert TrainConfig().lr == 0.01  # the default README documents


def test_parse_run_config_unknown_key_names_line():
    with pytest.raises(ConfigError, match="line 3.*learning_rate"):
        parse_run_config("lr=0.1\nseed=2\nlearning_rate = 0.2\n")


def test_parse_run_config_bad_value_and_shape():
    with pytest.raises(ConfigError, match="line 1"):
        parse_run_config("epochs = three\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_run_config("just some words\n")


config_lines = st.tuples(
    st.sampled_from([*cli.CONFIG_DEFAULTS, "warp_speed", ""]),
    st.sampled_from(["=", " = ", "", "=="]),
    st.one_of(st.text(max_size=12), st.integers().map(str), st.floats().map(str)),
    st.sampled_from(["", " # note"]),
).map("".join)


@seed(20261018)
@settings(max_examples=300, deadline=None, database=None)
@given(text=st.one_of(st.text(), st.lists(config_lines, max_size=6).map("\n".join)))
@example(text="seed = " + "9" * 5000)  # past int()'s digit limit
def test_parse_run_config_returns_a_config_or_config_error(text):
    try:
        cfg = parse_run_config(text)
    except ConfigError:
        return
    assert {k: type(v) for k, v in cfg.items()} == {k: type(v) for k, v in cli.CONFIG_DEFAULTS.items()}


def test_parse_layer_stack_round_trip():
    text = "cycle:g5:k3,relu,isotonic:g5:k3,bn,dropout:r0.5,decycle:c10:k4,gap"
    assert parse_layer_stack(text) == [
        LayerSpec("cycle", width=5, kernel=3),
        LayerSpec("relu"),
        LayerSpec("isotonic", width=5, kernel=3),
        LayerSpec("group_batchnorm"),
        LayerSpec("dropout", rate=0.5),
        LayerSpec("decycle", width=10, kernel=4),
        LayerSpec("global_avg_pool"),
    ]


def test_parse_layer_stack_presets_and_errors():
    assert parse_layer_stack("@dren-small") == preset_stack("dren-small")
    with pytest.raises(ValueError):
        parse_layer_stack("cycle:g5:k3,warp")
    with pytest.raises(ValueError):
        parse_layer_stack("cycle:z9")
    with pytest.raises(ValueError):
        parse_layer_stack("@no-such-preset")


def test_stack_grammar_stride_pad_tokens():
    (spec,) = parse_layer_stack("conv:c8:k3:s2:p1")
    assert (spec.width, spec.kernel, spec.stride, spec.pad) == (8, 3, 2, 1)


# ---------------------------------------------------------------------------
# commands end to end


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("glyphs")
    code = cli.main(
        [
            "gen-data",
            "--out",
            str(out),
            "--mode",
            "exact",
            "--n",
            "260",
            "--seed",
            "3",
            "--size",
            "12",
            "--n-train",
            "160",
            "--n-val",
            "50",
            "--n-test",
            "50",
        ]
    )
    assert code == 0
    return out


def test_gen_data_files_load_back(data_dir):
    for name, count in (("train", 160), ("val", 50), ("test", 50)):
        ds = cli.read_split(data_dir, name)
        assert len(ds) == count
        assert ds.images.shape[2:] == (12, 12)


def test_gen_data_arbitrary_mode_writes_loadable_splits(tmp_path, capsys):
    argv = ["gen-data", "--out", str(tmp_path), "--mode", "arbitrary", "--n", "20", "--size", "10"]
    assert cli.main(argv) == 0
    assert "wrote 14/3/3 arbitrary images of size 10" in capsys.readouterr().out
    for name, count in (("train", 14), ("val", 3), ("test", 3)):
        ds = cli.read_split(tmp_path, name)
        assert len(ds) == count and ds.images.shape[1:] == (1, 10, 10)


@pytest.mark.parametrize(
    "split,message",
    [
        (["--n-train", "12"], "--n-train 12 + --n-val 1 + --n-test 0 exceed --n 10"),
        (["--n-val", "11"], "--n-train 7 + --n-val 11 + --n-test 0 exceed --n 10"),
        (["--n-train", "5", "--n-val", "3", "--n-test", "3"], "--n-train 5 + --n-val 3 + --n-test 3 exceed --n 10"),
    ],
    ids=["n_train_alone", "n_val_alone", "all_three"],
)
def test_gen_data_split_larger_than_n_is_usage_error(tmp_path, capsys, split, message):
    out = tmp_path / "out"
    assert cli.main(["gen-data", "--out", str(out), "--n", "10", "--size", "10", *split]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_train_eval_round_trip(tmp_path, data_dir, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "layers = cycle:g3:k3,relu,decycle:c10:k3,gap\n"
        f"data_dir = {data_dir}\n"
        "lr = 0.02\nepochs = 2\nbatch = 32\nseed = 6\n"
    )
    ckpt = tmp_path / "model.ckpt"
    metrics = tmp_path / "metrics.csv"
    code = cli.main(
        ["train", "--config", str(cfg), "--out", str(ckpt), "--metrics", str(metrics)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "effective config:" in out

    lines = metrics.read_text().strip().split("\n")
    assert len(lines) == 2
    epochs = [int(line.split(",")[0]) for line in lines]
    assert epochs == [1, 2]
    for line in lines:
        _, loss, err = line.split(",")
        assert 0.0 <= float(err) <= 1.0 and float(loss) > 0

    errors = []
    for k in range(4):
        code = cli.main(
            ["eval", "--checkpoint", str(ckpt), "--data", str(data_dir), "--rotate", str(k)]
        )
        assert code == 0
        line = capsys.readouterr().out.strip()
        errors.append(line.split()[0])
    assert len(set(errors)) == 1  # identical error for every quarter turn


@pytest.mark.parametrize("rate,stored", [("0.9999996", "1.0"), ("0.1234567", "0.123457")])
def test_train_out_refuses_a_rate_the_checkpoint_would_change(tmp_path, data_dir, capsys, rate, stored):
    ckpt = tmp_path / "r.ckpt"
    layers = f"cycle:g2:k3,dropout:r{rate},relu,decycle:c10:k3,gap"
    argv = ["train", "--data-dir", str(data_dir), "--layers", layers, "--epochs", "1", "--out", str(ckpt)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    message = f"layer 1 (dropout): a checkpoint keeps rates in whole millionths, so rate {rate} would load as {stored}"
    assert message in captured.err
    assert "done:" not in captured.out and not ckpt.exists()


def test_train_out_keeps_a_rate_of_whole_millionths(tmp_path, data_dir, capsys):
    ckpt = tmp_path / "r.ckpt"
    layers = "cycle:g2:k3,dropout:r0.999999,relu,decycle:c10:k3,gap"
    argv = ["train", "--data-dir", str(data_dir), "--layers", layers, "--epochs", "1", "--out", str(ckpt)]
    assert cli.main(argv) == 0
    assert load_checkpoint(ckpt).specs[1] == LayerSpec("dropout", rate=0.999999)
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data_dir)]) == 0
    capsys.readouterr()


SMALL_TIED = "cycle:g2:k3,relu,decycle:c10:k3,gap"


def test_train_out_refuses_a_float64_model(tmp_path, data_dir, capsys):
    ckpt = tmp_path / "f64.ckpt"
    argv = ["train", "--data-dir", str(data_dir), "--layers", SMALL_TIED, "--epochs", "1",
            "--precision", "float64", "--out", str(ckpt)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "precision float64: a checkpoint keeps float32 values" in captured.err
    assert "done:" not in captured.out and not ckpt.exists()


def test_train_out_stores_a_float32_model(tmp_path, data_dir, capsys):
    ckpt = tmp_path / "f32.ckpt"
    argv = ["train", "--data-dir", str(data_dir), "--layers", SMALL_TIED, "--epochs", "1",
            "--precision", "float32", "--out", str(ckpt)]
    assert cli.main(argv) == 0
    model = load_checkpoint(ckpt)
    assert model.dtype == np.float32 and model.specs == parse_layer_stack(SMALL_TIED)
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--out", "--metrics"])
@pytest.mark.parametrize("where", ["missing parent", "directory", "read-only parent"])
def test_train_refuses_an_unwritable_path_before_reading_data(tmp_path, data_dir, capsys, monkeypatch, flag, where):
    target, reason = {
        "missing parent": (tmp_path / "absent" / "file", f"directory {tmp_path / 'absent'} does not exist"),
        "directory": (tmp_path, "it is a directory"),
        "read-only parent": (tmp_path / "file", f"directory {tmp_path} is not writable"),
    }[where]
    if where == "read-only parent":  # faked: a process running as root may write anywhere
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    before = sorted(tmp_path.iterdir())
    monkeypatch.setattr(cli, "_read_train_splits", lambda cfg: pytest.fail("data was read"))
    argv = ["train", "--data-dir", str(data_dir), "--layers", SMALL_TIED, "--epochs", "1", flag, str(target)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert f"cannot write {flag} {target}: {reason}" in captured.err
    assert captured.out == "" and sorted(tmp_path.iterdir()) == before


def test_train_writes_both_files_at_writable_paths(tmp_path, data_dir, capsys):
    out, metrics = tmp_path / "m.ckpt", tmp_path / "m.csv"
    argv = ["train", "--data-dir", str(data_dir), "--layers", SMALL_TIED, "--epochs", "1",
            "--out", str(out), "--metrics", str(metrics)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert load_checkpoint(out).specs == parse_layer_stack(SMALL_TIED)
    assert len(metrics.read_text().splitlines()) == 1


def test_train_float64_without_out_trains(tmp_path, data_dir, capsys):
    metrics = tmp_path / "metrics.csv"
    argv = ["train", "--data-dir", str(data_dir), "--layers", SMALL_TIED, "--epochs", "1",
            "--precision", "float64", "--metrics", str(metrics)]
    assert cli.main(argv) == 0
    assert "done: epoch=1" in capsys.readouterr().out
    assert len(metrics.read_text().splitlines()) == 1


def test_train_metrics_deterministic(tmp_path, data_dir, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"layers = cycle:g2:k3,relu,decycle:c10:k3,gap\ndata_dir = {data_dir}\n"
        "lr = 0.02\nepochs = 2\nbatch = 32\nseed = 1\n"
    )
    texts = []
    for run in range(2):
        metrics = tmp_path / f"m{run}.csv"
        assert cli.main(["train", "--config", str(cfg), "--metrics", str(metrics)]) == 0
        texts.append(metrics.read_text())
    capsys.readouterr()
    assert texts[0] == texts[1]


def test_train_flag_overrides_config(tmp_path, data_dir, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"data_dir = {data_dir}\nepochs = 1\nlr = 0.02\n")
    code = cli.main(
        ["train", "--config", str(cfg), "--epochs", "2", "--layers", "conv:c10:k3,gap"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "epochs=2" in out and "conv:c10:k3,gap" in out


@pytest.mark.parametrize(
    "stack,message",
    [
        ("conv:c2:k1,maxpool:k2:s2:p1,gap", "layer 1 (max_pool): max pooling takes no pad"),
        ("conv:c2:k1,maxpool:k2:s0,gap", "layer 1 (max_pool): kernel 2 and stride 0"),
        ("conv:c2:k1,maxpool,gap", "layer 1 (max_pool): kernel 0 and stride 1"),
        ("conv:c2:k0,gap", "layer 0 (conv): kernel 0 and stride 1"),
        ("cycle:g2:k3:s0,decycle:c2:k1,gap", "layer 0 (cycle): kernel 3 and stride 0"),
        ("conv:c2:k3:p-1,gap", "layer 0 (conv): pad -1 is negative"),
        ("cycle:g0:k3,decycle:c2:k1,gap", "layer 0 (cycle): width 0 must be >= 1"),
        ("conv:c2:k30,gap", "layer 0 (conv): kernel 30 with stride 1 does not fit input 12"),
        ("conv:c2:k1,gap", "layer 1 (global_avg_pool) gives 2 logits per image, but the labels need 10 classes"),
        ("conv:c10:k1,dropout:r1,gap", "layer 1 (dropout): rate 1.0 is outside [0, 1)"),
        ("conv:c10:k1,dropout:r1.5,gap", "layer 1 (dropout): rate 1.5 is outside [0, 1)"),
        ("conv:c10:k1,dropout:r-1,gap", "layer 1 (dropout): rate -1.0 is outside [0, 1)"),
        ("conv:q3,gap", "unknown layer token 'q3' in 'conv:q3'"),
        ("conv:kx,gap", "bad value in layer token 'kx' in 'conv:kx'"),
        ("conv:c10:k1,,gap", "empty layer item"),
        ("conv:c10:k1,relu:g5,gap", "relu takes no width: token 'g5' in 'relu:g5'"),
        ("conv:c10:k1,gap:r0.9", "global_avg_pool takes no rate: token 'r0.9' in 'gap:r0.9'"),
        ("conv:c10:k1,dropout:k3,gap", "dropout takes no kernel: token 'k3' in 'dropout:k3'"),
        ("conv:c10:k1,maxpool:g5:k2:s2,gap", "max_pool takes no width: token 'g5' in 'maxpool:g5:k2:s2'"),
        ("@nope", "unknown preset 'nope'"),
    ],
)
def test_train_rejects_bad_layer_geometry(data_dir, capsys, stack, message):
    assert cli.main(["train", "--data-dir", str(data_dir), "--epochs", "1", "--layers", stack]) == 2
    assert message in capsys.readouterr().err


def test_train_bad_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp_speed = 9\n")
    assert cli.main(["train", "--config", str(cfg)]) == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_unknown_precision_is_usage_error(tmp_path, capsys, command):
    # the data dir does not exist, so reading it would fail with exit 1
    argv = [command, "--data-dir", str(tmp_path / "absent"), "--precision", "float16"]
    assert cli.main(argv) == 2
    assert "precision must be one of float32, float64, got 'float16'" in capsys.readouterr().err


def test_bad_layer_stack_is_rejected_before_data_is_read(tmp_path, capsys):
    # the data dir does not exist, so reading it would fail with exit 1
    argv = ["train", "--data-dir", str(tmp_path / "absent"), "--layers", "conv:q3,gap"]
    assert cli.main(argv) == 2
    assert "unknown layer token 'q3' in 'conv:q3'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_zero_epochs_is_usage_error(tmp_path, capsys, command):
    # the data dir does not exist, so reading it would fail with exit 1
    argv = [command, "--data-dir", str(tmp_path / "absent"), "--epochs", "0"]
    assert cli.main(argv) == 2
    assert "epochs must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize(
    "flags,message",
    [
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        (["--lr", "nan"], "lr must be finite, got nan"),
        (["--momentum", "inf"], "momentum must be finite, got inf"),
        (["--lr-decay=-inf"], "lr_decay must be finite, got -inf"),
    ],
    ids=["seed", "lr", "momentum", "lr_decay"],
)
def test_out_of_range_train_values_are_usage_errors(tmp_path, capsys, command, flags, message):
    # the data dir does not exist, so reading it would fail with exit 1
    argv = [command, "--data-dir", str(tmp_path / "absent"), *flags]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_negative_seed_in_run_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"data_dir = {tmp_path / 'absent'}\nseed = -1\n")
    assert cli.main(["train", "--config", str(cfg)]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,flag,message",
    [
        (["gen-data", "--seed", "-1"], "--seed", "must be >= 0, got -1"),
        (["gen-data", "--n", "-5"], "--n", "must be >= 0, got -5"),
        (["gen-data", "--n", "10", "--n-train", "-1"], "--n-train", "must be >= 0, got -1"),
        (["verify", "--seed", "-1"], "--seed", "must be >= 0, got -1"),
        (["verify", "--trials", "-3"], "--trials", "must be >= 1, got -3"),
        (["verify", "--trials", "0"], "--trials", "must be >= 1, got 0"),
        (["bench", "--seed", "-1"], "--seed", "must be >= 0, got -1"),
        (["bench", "--batch", "0"], "--batch", "must be >= 1, got 0"),
        (["bench", "--batch", "two"], "--batch", "expected an integer, got 'two'"),
        (["bench", "--trials", "1"], "--trials", "must be >= 3, got 1"),
        (["bench", "--trials", "2"], "--trials", "must be >= 3, got 2"),
        (["gen-data", "--size", "5"], "--size", "must be >= 10, got 5"),
    ],
    ids=lambda v: "_".join(v) if isinstance(v, list) else None,
)
def test_bad_count_flags_exit_two_naming_the_flag(tmp_path, capsys, argv, flag, message):
    if argv[0] == "gen-data":
        argv = [*argv, "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"error: argument {flag}: {message}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "depths,message",
    [
        ("x..2", "depths must be a range like 1..7, got 'x..2'"),
        ("0..9", "depths must be a nonempty range within 1..7, got '0..9'"),
        ("5..2", "depths must be a nonempty range within 1..7, got '5..2'"),
    ],
)
def test_bad_sweep_depths_are_usage_errors(tmp_path, capsys, depths, message):
    argv = ["sweep", "--depths", depths, "--data-dir", str(tmp_path / "absent")]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("exc", [MemoryError, OverflowError])
def test_out_of_memory_exits_one(tmp_path, capsys, monkeypatch, exc):
    def refuse(*args, **kwargs):
        raise exc("cannot allocate the glyph array")

    monkeypatch.setattr(cli.data_mod, "synth_glyphs", refuse)
    assert cli.main(["gen-data", "--out", str(tmp_path), "--n", "10"]) == 1
    assert "error: cannot allocate the glyph array" in capsys.readouterr().err


@pytest.fixture(scope="module")
def data_dir_28(tmp_path_factory):
    out = tmp_path_factory.mktemp("glyphs28")
    argv = ["gen-data", "--out", str(out), "--n", "60", "--seed", "2", "--size", "28",
            "--n-train", "40", "--n-val", "10", "--n-test", "10"]
    assert cli.main(argv) == 0
    return out


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_diverged_training_exits_one(tmp_path, data_dir, data_dir_28, capsys, command):
    ckpt, metrics = tmp_path / "model.ckpt", tmp_path / "metrics.csv"
    if command == "train":
        argv = ["train", "--data-dir", str(data_dir), "--layers", "@dren-small",
                "--out", str(ckpt), "--metrics", str(metrics)]
    else:
        argv = ["sweep", "--depths", "1..1", "--data-dir", str(data_dir_28)]
    assert cli.main(argv + ["--lr", "1e30", "--epochs", "2"]) == 1
    out, err = capsys.readouterr()
    # the one error line and nothing else: no numpy warnings, no traceback
    assert re.fullmatch(r"error: training diverged: loss \S+ at epoch \d+, batch \d+\n", err), err
    if command == "sweep":
        assert out == ""  # no header-only CSV
    assert not ckpt.exists() and not metrics.exists()


@pytest.mark.parametrize("command,empty", [("train", "val"), ("sweep", "train"), ("eval", "test")])
def test_empty_split_is_usage_error(tmp_path, capsys, command, empty):
    counts = {"train": 8, "val": 2, "test": 2} | {empty: 0}
    argv = ["gen-data", "--out", str(tmp_path), "--n", "12", "--size", "28"]
    argv += [x for name, n in counts.items() for x in (f"--n-{name}", str(n))]
    assert cli.main(argv) == 0
    if command == "eval":
        ckpt = tmp_path / "model.ckpt"
        cli.save_checkpoint(build_model(preset_stack("dren-small")), ckpt)
        argv = ["eval", "--checkpoint", str(ckpt), "--data", str(tmp_path)]
    else:
        argv = [command, "--data-dir", str(tmp_path), "--epochs", "1"]
        argv += ["--layers", "@dren-small"] if command == "train" else ["--depths", "1"]
    capsys.readouterr()
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert err == f"error: the {empty} split in {tmp_path} holds no images\n"
    assert out == ""


def test_train_without_data_dir(capsys):
    assert cli.main(["train"]) == 2
    assert "data_dir" in capsys.readouterr().err


def test_eval_bad_checkpoint(tmp_path, data_dir, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"JUNKJUNKJUNK")
    assert cli.main(["eval", "--checkpoint", str(bad), "--data", str(data_dir)]) == 2
    assert "magic" in capsys.readouterr().err


def test_verify_command_exits_zero(capsys):
    assert cli.main(["verify", "--suite", "layers", "--trials", "5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "properties passed" in out


VERIFY_PROPERTIES = [  # (name, printed limit) of every property `verify --suite all` reports
    ("layers/cycle_identity", "1.0e-12"),
    ("layers/isotonic_identity", "1.0e-12"),
    ("layers/decycle_identity", "1.0e-12"),
    ("layers/end_to_end_identity", "1.0e-12"),
    ("oracle/cycle_equivalence", "1.0e-12"),
    ("oracle/isotonic_equivalence", "1.0e-12"),
    ("oracle/decycle_equivalence", "1.0e-12"),
    ("gradients/dren_small_finite_diff", "1.0e-04"),
    ("gradients/plain_cnn_finite_diff", "1.0e-04"),
    ("gradients/turn_invariance", "1.0e-12"),
    ("stride/equivariant_when_rule_holds", "1.0e-12"),
    ("stride/violated_when_rule_fails", "1.0e-03"),
]


def test_verify_all_suites_report_every_property(capsys):
    assert cli.main(["verify", "--suite", "all", "--trials", "3"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    rows = [re.fullmatch(r"(\S+) +dev=\S+ limit=(\S+) (PASS|FAIL)", line) for line in lines[:-1]]
    assert [(m.group(1), m.group(2), m.group(3)) for m in rows] == [
        (name, limit, "PASS") for name, limit in VERIFY_PROPERTIES
    ]
    assert lines[-1] == "12/12 properties passed"


def test_verify_turn_invariance_fails_on_a_stack_that_is_not_invariant(monkeypatch, capsys):
    # an untied 3x3 conv after the terminator breaks invariance
    monkeypatch.setitem(network.PRESETS, "untied-tail", "cycle:g2:k3,relu,decycle:c4:k1,conv:c10:k3,gap")
    assert cli.main(["verify", "--suite", "gradients"]) == 1
    line = next(line for line in capsys.readouterr().out.splitlines() if "turn_invariance" in line)
    assert line.endswith("FAIL")


def test_verify_stride_suite(capsys):
    assert cli.main(["verify", "--suite", "stride", "--trials", "10", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "rule_holds" in out and "rule_fails" in out


def test_analyze_prints_cost_rows(capsys):
    code = cli.main(
        ["analyze", "--n", "64", "--cin", "1", "--cout", "20", "--k", "3", "--w", "28", "--h", "28"]
    )
    assert code == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "strategy,filters,feature_map,feature_map_gemm"
    assert out[1] == "rotate_filters,720,50176,451584"
    assert out[2] == "rotate_feature_maps,180,200704,1806336"


def test_bench_command_writes_csv(tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    code = cli.main(
        ["bench", "--model", "nin-shape", "--batch", "4", "--trials", "3", "--out", str(out_csv)]
    )
    assert code == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "strategy,model,batch,trials,median_s,mean_s,ratio"
    assert len(lines) == 3
    assert "faster" in capsys.readouterr().out


def test_bench_summary_names_the_faster_strategy_and_the_reference_shape(monkeypatch, capsys):
    # filters at 0.8x the maps' speed: the maps are the faster side
    fast = bench_mod.TimingReport("rotate_filters", "nin-shape", 4, 3, median=0.5, ratio=0.8)
    slow = bench_mod.TimingReport("rotate_feature_maps", "nin-shape", 4, 3, median=0.4, ratio=1.25)
    monkeypatch.setattr(bench_mod, "compare_strategies", lambda *args: (fast, slow))
    assert cli.main(["bench", "--model", "nin-shape", "--batch", "4", "--trials", "3"]) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.startswith("rotate-feature-maps is 1.25x faster than rotate-filters ")
    assert "z2cnn-shape at batch 64" in summary


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


def test_python_dash_m_runs_cli():
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "roteq", "--help"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert "usage:" in run.stdout and "verify" in run.stdout


# sha256 of repr(preset_stack(name)), recorded from the builders the
# PRESETS texts replaced
PRESET_DIGESTS = {
    "dren-small": "7846de62970df64c26925cc20f470657fa367470e04fc7958435338afc352b0f",
    "cnn-small": "f90bd1244814ae8a465dfc471ca9c65fbf4979552aa521d433d038add7659727",
    "z2cnn-shape": "1cd3a5ed4302a01eb87d35bfd23cb47d03ac96cd2201c8e00ecefbdaedc346eb",
    "dren-z2cnn-shape": "fd60114a0c8dee35a1f31d7df8dfdf0e196c7a93f9bf74d0a92a2f1f54cd9673",
    "bench-z2cnn-shape": "7a50474e2cebb9e54bbdb26be2ad97ecc456b83ae922baefe1c33d6f4e639cfe",
    "bench-nin-shape": "b1dab537758d7714dcf635606dda35a87b70e43436f783c4f1e57631ebceb4c5",
}


@pytest.mark.parametrize("name", sorted(PRESET_DIGESTS))
def test_preset_stack_matches_recorded_digest(name):
    assert hashlib.sha256(repr(preset_stack(name)).encode()).hexdigest() == PRESET_DIGESTS[name]


# sha256 of repr(sweep_stack(depth)), recorded from the builder the
# grammar text replaced
SWEEP_DIGESTS = {
    1: "badad2bbdee7d9c209bca5e8f5fbbaf8332eeed19768746e556650d69ec52620",
    2: "1ea5c187edf28cc3cb7984bbcec52a287b38a9930e82d5c475a1be22a3f25bef",
    3: "a13354f39d6c3630f6fa285ddb1cf01bf1ea74472deee09bdecbd0a8792cbfc7",
    4: "a72ea661fe841573ba05cdc3954f3690cdb5cebbb71846f514407ca24689aedd",
    5: "0783ece3fe41da2061a3639833c6cde94b0608db82d6685f0984bf0c63132a76",
    6: "f80b7f123a80487a4d5488c972f19de703cd1016a5b4445928edbd5b07a4c562",
    7: "5ffb33312012d4030ecfb9b33590c64f3324cecfe0d61f6b615cfb2a759f6d1b",
}


@pytest.mark.parametrize("depth", sorted(SWEEP_DIGESTS))
def test_sweep_stack_matches_recorded_digest(depth):
    assert hashlib.sha256(repr(sweep_stack(depth)).encode()).hexdigest() == SWEEP_DIGESTS[depth]


def test_sweep_stacks_build_at_every_depth():
    import warnings

    for depth in range(1, 8):
        stack = sweep_stack(depth)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            model = build_model(stack, in_channels=1, seed=0, input_size=28)
        assert not rec, f"depth {depth} raised stride warnings"
        assert model.channels[-1] == 10
        kinds = [s.kind for s in stack]
        assert kinds.count("cycle") == 1
        assert kinds.count("decycle") + kinds.count("group_pool_max") == 1
    with pytest.raises(ValueError):
        sweep_stack(8)


def test_sweep_rejects_images_other_than_28_pixels(data_dir, capsys):
    assert cli.main(["sweep", "--depths", "1", "--data-dir", str(data_dir), "--epochs", "1"]) == 2
    captured = capsys.readouterr()
    assert "sweep: the depth family expects 28x28 images" in captured.err
    assert captured.out == ""


def write_splits(out, **sizes):
    """Write each named split as 12 random glyph-valued images of size (h, w)."""
    rng = np.random.default_rng(0)
    for name, (h, w) in sizes.items():
        images = rng.random((12, 1, h, w)).astype(np.float32)
        cli.write_split(out, name, data.Dataset(images, np.arange(12) % 10))


@pytest.mark.parametrize(
    "argv,sizes,message",
    [
        (["train", "--layers", "conv:c10:k3,gap"], {"train": (12, 2), "val": (12, 2)},
         "the train and val images are 12x2, but only square images are supported"),
        (["train", "--layers", "@dren-small"], {"train": (28, 20), "val": (28, 20)},
         "the train and val images are 28x20, but only square images are supported"),
        (["train", "--layers", "@z2cnn-shape"], {"train": (28, 28), "val": (14, 14)},
         "the val images are 14x14, but the train images are 28x28"),
        (["sweep", "--depths", "1"], {"train": (28, 28), "val": (14, 14)},
         "the val images are 14x14, but the train images are 28x28"),
        (["sweep", "--depths", "1"], {"train": (28, 20), "val": (28, 20)},
         "the train and val images are 28x20, but only square images are supported"),
    ],
    ids=["train-12x2", "train-28x20", "train-val-14", "sweep-val-14", "sweep-28x20"],
)
def test_training_rejects_split_shapes_before_it_starts(tmp_path, capsys, argv, sizes, message):
    write_splits(tmp_path, **sizes)
    assert cli.main(argv + ["--data-dir", str(tmp_path), "--epochs", "1"]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {message}\n"
    assert "model:" not in out and "depth," not in out


def test_eval_rejects_images_that_are_not_square(tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    cli.save_checkpoint(build_model(preset_stack("dren-small")), ckpt)
    write_splits(tmp_path, test=(28, 20))
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(tmp_path), "--rotate", "1"]) == 2
    out, err = capsys.readouterr()
    assert err == "error: the test images are 28x20, but only square images are supported\n" and out == ""


def test_sweep_takes_no_layers_flag(data_dir_28, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--depths", "1", "--epochs", "1", "--data-dir", str(data_dir_28),
                  "--layers", "conv:c4:k1,gap"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert "unrecognized arguments: --layers" in err and out == ""


def test_sweep_config_layers_is_usage_error(tmp_path, data_dir_28, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"data_dir = {data_dir_28}\nlayers = conv:c4:k1,gap\n")
    assert cli.main(["sweep", "--config", str(cfg), "--depths", "1", "--epochs", "1"]) == 2
    out, err = capsys.readouterr()
    assert err == "error: sweep trains its own depth family; the config sets layers = 'conv:c4:k1,gap'\n"
    assert out == ""


def test_sweep_command_tiny(tmp_path, capsys):
    out = tmp_path / "d28"
    assert (
        cli.main(
            ["gen-data", "--out", str(out), "--n", "120", "--seed", "1", "--size", "28",
             "--n-train", "80", "--n-val", "20", "--n-test", "20"]
        )
        == 0
    )
    code = cli.main(
        ["sweep", "--depths", "7..7", "--data-dir", str(out), "--epochs", "1", "--lr", "0.01"]
    )
    assert code == 0
    out_text = capsys.readouterr().out
    assert "depth,val_error" in out_text and out_text.strip().split("\n")[-1].startswith("7,")
