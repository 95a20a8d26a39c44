import dataclasses
import hashlib
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from roteq import cli, data, network
from roteq.cli import (
    CheckpointError,
    ConfigError,
    decode_checkpoint,
    encode_checkpoint,
    parse_layer_stack,
    parse_run_config,
    sweep_stack,
)
from roteq.network import LayerSpec, TrainConfig, build_model, preset_stack


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
        struct.pack("<BIIIII", cli.KIND_CODES[kind], width, kernel, 1, 0, 250_000)
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


def test_eval_truncated_checkpoint_is_usage_error(tmp_path, data_dir, capsys):
    ckpt = tmp_path / "cut.ckpt"
    ckpt.write_bytes(encode_checkpoint(full_featured_model())[:40])
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data_dir)]) == 2
    capsys.readouterr()


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
    assert lines[-1] == "11/11 properties passed"


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
