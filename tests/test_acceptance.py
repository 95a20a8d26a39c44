"""Acceptance suite: one test per release criterion, in order.

Each test prints a single PASS/FAIL line so the suite can be read as a
checklist (`pytest tests/test_acceptance.py -v -s`). Tolerances are
fixed here, not configurable: exact means bit-equal arrays, double
precision identities allow 1e-12 relative deviation, single precision
1e-5, gradient checks 1e-4, and the timing comparison must show the
filter-rotating strategy at least 1.3x faster than the map-rotating
one after both produce the same numbers.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from roteq import cli, data
from roteq.bench import (
    ROTATE_FEATURE_MAPS,
    ROTATE_FILTERS,
    LayerGeometry,
    compare_strategies,
    memory_model,
)
from roteq import oracle
from roteq.conv import ConvGeometry, correlate2d, stride_preserves_equivariance
from roteq.eqlayers import (
    GroupBatchNorm,
    expand_cycle,
    expand_decycle,
    expand_isotonic,
    shared_bias_add,
)
from roteq.network import (
    KINDS,
    LayerSpec,
    TrainConfig,
    build_model,
    evaluate,
    finite_diff_check,
    predict,
    preset_stack,
    train,
)
from roteq.oracle import relative_deviation
from roteq.tensor import cyclic_permute, rotate90

from reference import max_rel


@contextmanager
def criterion(number: int, description: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"\nACCEPTANCE {number}: PASS - {description} ({time.time() - start:.1f}s)")


def _draw_geometry(rng, kernel):
    """Stride/pad/size combination satisfying the equivariance size rule."""
    stride = int(rng.choice([1, 1, 1, 2]))
    pad = int(rng.choice([0, 0, 1]))
    sizes = [
        s
        for s in range(4, 13)
        if s + 2 * pad >= kernel and (s + 2 * pad - kernel) % stride == 0
    ]
    size = int(rng.choice(sizes))
    return ConvGeometry(stride, pad), size


def _identity_trial(rng, dtype):
    """One randomized draw of all four identity deviations."""
    kernel = int(rng.choice([1, 3]))
    geom, size = _draw_geometry(rng, kernel)
    g_in = int(rng.integers(1, 4))
    g_out = int(rng.integers(1, 4))
    c_in = int(rng.integers(1, 4))
    n = int(rng.integers(1, 3))

    devs = {}
    x1 = rng.standard_normal((n, c_in, size, size)).astype(dtype)
    pc = rng.standard_normal((g_out, c_in, kernel, kernel)).astype(dtype)
    lhs = correlate2d(rotate90(x1), expand_cycle(pc), geom)
    rhs = rotate90(cyclic_permute(correlate2d(x1, expand_cycle(pc), geom)))
    devs["cycle"] = max_rel(lhs, rhs)

    x4 = rng.standard_normal((n, 4 * g_in, size, size)).astype(dtype)
    rpx = rotate90(cyclic_permute(x4))
    pi = rng.standard_normal((g_out, 4, g_in, kernel, kernel)).astype(dtype)
    lhs = correlate2d(rpx, expand_isotonic(pi), geom)
    rhs = rotate90(cyclic_permute(correlate2d(x4, expand_isotonic(pi), geom)))
    devs["isotonic"] = max_rel(lhs, rhs)

    pd = rng.standard_normal((5, g_in, kernel, kernel)).astype(dtype)
    lhs = correlate2d(rpx, expand_decycle(pd), geom)
    rhs = rotate90(correlate2d(x4, expand_decycle(pd), geom))
    devs["decycle"] = max_rel(lhs, rhs)

    devs["end_to_end"] = _end_to_end_trial(rng, dtype)
    return devs


def _end_to_end_trial(rng, dtype):
    """f(Rx) vs R f(x) through a full tied stack with relu, shared bias,
    and eval-mode batch norm interleaved."""
    g = int(rng.integers(1, 4))
    depth = int(rng.integers(0, 3))
    size = int(rng.integers(6, 13))
    x = rng.standard_normal((2, 1, size, size)).astype(dtype)
    pc = rng.standard_normal((g, 1, 3, 3)).astype(dtype)
    isos = [
        rng.standard_normal((g, 4, g, 1, 1)).astype(dtype)
        for _ in range(depth)
    ]
    pd = rng.standard_normal((4, g, 1, 1)).astype(dtype)
    bias = rng.standard_normal(g).astype(dtype)
    bn = GroupBatchNorm
    bn_p = {
        "gamma": rng.standard_normal(g).astype(dtype),
        "beta": rng.standard_normal(g).astype(dtype),
    }
    bn_s = {
        "mean": rng.standard_normal(g).astype(dtype),
        "var": rng.uniform(0.5, 2.0, g).astype(dtype),
    }

    def f(inp):
        h = correlate2d(inp, expand_cycle(pc))
        h = shared_bias_add(h, bias)
        h = np.maximum(h, 0)
        for p in isos:
            h = correlate2d(h, expand_isotonic(p))
            h, _, _ = bn.forward(h, bn_p, bn_s, train=False)
            h = np.maximum(h, 0)
        return correlate2d(h, expand_decycle(pd))

    return max_rel(f(rotate90(x)), rotate90(f(x)))


def test_criterion_1_equivariance_suite():
    with criterion(1, "layer and end-to-end identities, 100 trials, both precisions"):
        start = time.time()
        for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
            rng = np.random.default_rng(101)
            worst = {"cycle": 0.0, "isotonic": 0.0, "decycle": 0.0, "end_to_end": 0.0}
            for _ in range(100):
                for name, dev in _identity_trial(rng, dtype).items():
                    worst[name] = max(worst[name], dev)
            for name, dev in worst.items():
                assert dev <= tol, f"{name} identity at {np.dtype(dtype).name}: {dev:.3e}"
        assert time.time() - start < 120.0


def test_criterion_2_weight_constraint_fixed_points():
    with criterion(2, "expanded banks are bit-exact fixed points of their constraints"):
        rng = np.random.default_rng(202)
        for _ in range(100):
            g_out, g_in = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            k = int(rng.choice([1, 3, 5]))
            w = expand_isotonic(
                rng.standard_normal((g_out, 4, g_in, k, k))
            ).reshape(g_out, 4, g_in, 4, k, k)
            # apply the shift-both-slots-then-rotate operator independently
            drw = np.empty_like(w)
            for j in range(4):
                for i in range(4):
                    drw[:, j, :, i] = np.rot90(w[:, (j - 1) % 4, :, (i - 1) % 4], 1, axes=(-2, -1))
            assert np.array_equal(w, drw)

            c_out = int(rng.integers(1, 6))
            wd = expand_decycle(
                rng.standard_normal((c_out, g_in, k, k))
            ).reshape(c_out, g_in, 4, k, k)
            prw = np.empty_like(wd)
            for j in range(4):
                prw[:, :, j] = np.rot90(wd[:, :, (j - 1) % 4], 1, axes=(-2, -1))
            assert np.array_equal(wd, prw)


def test_criterion_3_oracle_equivalence():
    with criterion(3, "filter-rotating and map-rotating paths agree to 1e-12"):
        rng = np.random.default_rng(303)
        for kind in ("cycle", "isotonic", "decycle"):
            for _ in range(100):
                g_in = int(rng.integers(1, 3))
                g_out = int(rng.integers(1, 3))
                k = int(rng.choice([1, 3]))
                size = int(rng.choice([5, 8, 9]))
                if kind == "cycle":
                    c_in = int(rng.integers(1, 4))
                    p = rng.standard_normal((g_out, c_in, k, k))
                    x = rng.standard_normal((2, c_in, size, size))
                elif kind == "isotonic":
                    p = rng.standard_normal((g_out, 4, g_in, k, k))
                    x = rng.standard_normal((2, 4 * g_in, size, size))
                else:
                    p = rng.standard_normal((3, g_in, k, k))
                    x = rng.standard_normal((2, 4 * g_in, size, size))
                fast = correlate2d(x, KINDS[kind].expand(p))
                slow = getattr(oracle, f"oracle_{kind}")(p, x)
                rel = relative_deviation(fast, slow)[1]
                assert rel <= 1e-12, f"{kind}: rel {rel:.3e}"


def test_criterion_4_gradient_correctness():
    with criterion(4, "finite differences on every tied parameter, rel err < 1e-4"):
        stack = [
            LayerSpec("cycle", width=5, kernel=3),
            LayerSpec("isotonic", width=5, kernel=3),
            LayerSpec("isotonic", width=5, kernel=3),
            LayerSpec("decycle", width=10, kernel=3),
            LayerSpec("global_avg_pool"),
        ]
        model = build_model(stack, in_channels=1, seed=5, precision="float64")
        rng = np.random.default_rng(404)
        x = rng.random((2, 1, 10, 10))
        labels = rng.integers(0, 10, size=2)
        err = finite_diff_check(model, x, labels)
        print(f"  max relative gradient error: {err:.3e}")
        assert err < 1e-4


def test_criterion_5_parameter_accounting():
    with criterion(5, "tied layer holds exactly a quarter of the untied parameters"):
        rng = np.random.default_rng(505)
        for _ in range(25):
            g_out, g_in, k = (int(v) for v in rng.integers(1, 7, size=3))
            tied = np.zeros((g_out, 4, g_in, k, k))
            untied_count = (4 * g_out) * (4 * g_in) * k * k
            assert 4 * tied.size == untied_count

        model = build_model(preset_stack("z2cnn-shape"), in_channels=1, seed=0, input_size=28)
        hand_count = (
            20 * 1 * 3 * 3          # first 3x3 layer from one input channel
            + 5 * (20 * 20 * 3 * 3)  # five more 3x3 body layers
            + 10 * 20 * 4 * 4        # 4x4 head onto 10 classes
            + 6 * (20 + 20)          # per-channel norm scale and shift
        )
        assert model.num_parameters == hand_count == 21620
        assert round(model.num_parameters / 1000) == 22


def test_criterion_6_memory_model():
    with criterion(6, "analytic costs match the formulas exactly, GEMM ratio is 4"):
        worked = LayerGeometry(n=64, c_in=1, c_out=20, k=3, w=28, h=28)
        rf = memory_model(worked, ROTATE_FILTERS)
        rm = memory_model(worked, ROTATE_FEATURE_MAPS)
        assert (rf.filters_cost, rf.feature_map_cost, rf.feature_map_gpu_cost) == (720, 50176, 451584)
        assert (rm.filters_cost, rm.feature_map_cost, rm.feature_map_gpu_cost) == (180, 200704, 1806336)

        rng = np.random.default_rng(606)
        for _ in range(20):
            n, c_in, c_out, k, w, h = (int(v) for v in rng.integers(1, 100, size=6))
            geom = LayerGeometry(n, c_in, c_out, k, w, h)
            rf = memory_model(geom, ROTATE_FILTERS)
            rm = memory_model(geom, ROTATE_FEATURE_MAPS)
            assert rf.filters_cost == 4 * c_in * c_out * k * k
            assert rf.feature_map_cost == n * c_in * w * h
            assert rf.feature_map_gpu_cost == n * c_in * w * h * k * k
            assert rm.filters_cost == c_in * c_out * k * k
            assert rm.feature_map_cost == 4 * n * c_in * w * h
            assert rm.feature_map_gpu_cost == 4 * n * c_in * w * h * k * k
            assert rm.feature_map_gpu_cost == 4 * rf.feature_map_gpu_cost


def test_criterion_7_prediction_invariance(tmp_path, capsys):
    with criterion(7, "eval --rotate k gives identical errors and predictions"):
        data_dir = tmp_path / "glyphs"
        assert (
            cli.main(
                ["gen-data", "--out", str(data_dir), "--mode", "exact", "--n", "300",
                 "--seed", "11", "--size", "14", "--n-train", "200", "--n-val", "50",
                 "--n-test", "50"]
            )
            == 0
        )
        # untrained (random) checkpoint: invariance is structural, not learned
        model = build_model(preset_stack("dren-small"), in_channels=1, seed=77, input_size=14)
        ckpt = tmp_path / "random.ckpt"
        cli.save_checkpoint(model, ckpt)
        capsys.readouterr()  # drop gen-data output

        outputs = []
        for k in range(4):
            assert (
                cli.main(
                    ["eval", "--checkpoint", str(ckpt), "--data", str(data_dir),
                     "--rotate", str(k)]
                )
                == 0
            )
            outputs.append(capsys.readouterr().out.strip().splitlines()[-1].split()[0])
        assert len(set(outputs)) == 1, outputs

        reloaded = cli.load_checkpoint(ckpt)
        test_ds = cli.read_split(data_dir, "test")
        base = predict(reloaded, test_ds.images)
        for k in range(1, 4):
            rotated_preds = predict(reloaded, rotate90(test_ds.images, k))
            np.testing.assert_array_equal(rotated_preds, base)


def test_criterion_8_desk_scale_training_comparison():
    with criterion(8, "tied model beats the untied twin and is perfectly consistent"):
        start = time.time()
        base = data.synth_glyphs(4500, size=14, seed=42)
        rotated = data.rotate_dataset_exact(base, seed=43)
        train_ds, val_ds, test_ds = data.split(rotated, 2000, 500, 2000, seed=44)
        config = TrainConfig(lr=0.01, momentum=0.9, batch_size=32, epochs=10, seed=7)

        results = {}
        for name in ("dren-small", "cnn-small"):
            model = build_model(preset_stack(name), in_channels=1, seed=7, input_size=14)
            train(model, train_ds, val_ds, config)
            error = evaluate(model, test_ds)
            preds = predict(model, test_ds.images)
            consistent = np.ones(len(test_ds), dtype=bool)
            for k in range(1, 4):
                consistent &= predict(model, rotate90(test_ds.images, k)) == preds
            results[name] = (error, float(consistent.mean()))
            print(f"  {name}: test_error={error:.4f} consistency={consistent.mean():.4f}")

        dren_err, dren_cons = results["dren-small"]
        cnn_err, cnn_cons = results["cnn-small"]
        assert dren_err < cnn_err, (dren_err, cnn_err)
        assert dren_cons == 1.0
        assert cnn_cons < 1.0
        assert time.time() - start < 900.0


def test_criterion_9_stride_condition():
    with criterion(9, "strided equivariance holds exactly when the size rule does"):
        rng = np.random.default_rng(909)
        for kernel in (2, 3):
            for size in range(3, 13):
                if size < kernel:
                    continue
                holds = stride_preserves_equivariance(size, 2, kernel)
                geom = ConvGeometry(stride=2)
                for _ in range(3):
                    p = rng.standard_normal((2, 1, kernel, kernel))
                    x = rng.standard_normal((2, 1, size, size))
                    lhs = correlate2d(rotate90(x), expand_cycle(p), geom)
                    rhs = rotate90(
                        cyclic_permute(correlate2d(x, expand_cycle(p), geom))
                    )
                    dev = max_rel(lhs, rhs)
                    if holds:
                        assert dev <= 1e-12, (kernel, size, dev)
                    else:
                        assert dev > 1e-3, (kernel, size, dev)


def test_criterion_10_benchmark_direction():
    with criterion(10, "rotating filters is at least 1.3x faster than rotating maps"):
        start = time.time()
        fast, slow = compare_strategies("z2cnn-shape", batch=64, trials=5, seed=0)
        print(
            f"  medians: filters {fast.median:.4f}s, maps {slow.median:.4f}s, "
            f"speedup {fast.ratio:.2f}x (reference GPU run: 1.97s vs 4.15s, 2.1x)"
        )
        assert fast.ratio >= 1.3
        assert time.time() - start < 300.0
