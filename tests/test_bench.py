import importlib.util
from pathlib import Path

import numpy as np
import pytest

from roteq import eqlayers, network, oracle

from roteq.bench import (
    GATE_TOLERANCE,
    ROTATE_FEATURE_MAPS,
    ROTATE_FILTERS,
    STRATEGIES,
    CostReport,
    LayerGeometry,
    TimingReport,
    compare_strategies,
    memory_model,
    report_csv,
    time_forward,
)
from reference import TIED_PRESETS, plain_eval_walk, random_batchnorm


def test_memory_model_worked_example():
    geom = LayerGeometry(n=64, c_in=1, c_out=20, k=3, w=28, h=28)
    rf = memory_model(geom, ROTATE_FILTERS)
    assert (rf.filters_cost, rf.feature_map_cost, rf.feature_map_gpu_cost) == (
        720,
        50176,
        451584,
    )
    rm = memory_model(geom, ROTATE_FEATURE_MAPS)
    assert (rm.filters_cost, rm.feature_map_cost, rm.feature_map_gpu_cost) == (
        180,
        200704,
        1806336,
    )


def test_memory_model_randomized_against_formulas(rng):
    for _ in range(20):
        n, c_in, c_out, k, w, h = (int(v) for v in rng.integers(1, 60, size=6))
        geom = LayerGeometry(n, c_in, c_out, k, w, h)
        rf = memory_model(geom, ROTATE_FILTERS)
        rm = memory_model(geom, ROTATE_FEATURE_MAPS)
        assert rf.filters_cost == 4 * c_in * c_out * k * k
        assert rf.feature_map_cost == n * c_in * w * h
        assert rf.feature_map_gpu_cost == n * c_in * w * h * k * k
        assert rm.filters_cost == c_in * c_out * k * k
        assert rm.feature_map_cost == 4 * n * c_in * w * h
        assert rm.feature_map_gpu_cost == 4 * n * c_in * w * h * k * k
        # strategy monotonicity: each side is exactly 4x the other somewhere
        assert rf.filters_cost == 4 * rm.filters_cost
        assert rm.feature_map_cost == 4 * rf.feature_map_cost
        assert rm.feature_map_gpu_cost == 4 * rf.feature_map_gpu_cost


def test_memory_model_rejects_bad_input():
    with pytest.raises(ValueError):
        LayerGeometry(0, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        memory_model(LayerGeometry(1, 1, 1, 1, 1, 1), "rotate_everything")


def test_report_csv_format():
    r = TimingReport(ROTATE_FILTERS, "z2cnn-shape", 64, 5, [0.1, 0.2], 0.15, 0.15, 2.0)
    text = report_csv([r])
    lines = text.strip().split("\n")
    assert lines[0] == "strategy,model,batch,trials,median_s,mean_s,ratio"
    assert lines[1] == "rotate_filters,z2cnn-shape,64,5,0.150000,0.150000,2.000000"
    blank = TimingReport(ROTATE_FEATURE_MAPS, "m", 1, 3)
    assert report_csv([blank]).strip().split("\n")[1].endswith(",")


def test_time_forward_smoke():
    report = time_forward("z2cnn-shape", ROTATE_FILTERS, batch=4, trials=3, seed=0)
    assert report.strategy == ROTATE_FILTERS
    assert report.trials == 3 and len(report.seconds) == 3
    assert report.median > 0 and report.mean > 0
    assert report.ratio is None


def test_time_forward_validation():
    with pytest.raises(ValueError, match="strategy"):
        time_forward("z2cnn-shape", "warp-drive", trials=3)
    with pytest.raises(ValueError, match="trials"):
        time_forward("z2cnn-shape", ROTATE_FILTERS, trials=2)
    with pytest.raises(ValueError, match="bench model"):
        time_forward("resnet-1000", ROTATE_FILTERS, trials=3)
    for batch in (0, -1):
        with pytest.raises(ValueError, match=f"batch must be at least 1, got {batch}"):
            time_forward("z2cnn-shape", ROTATE_FILTERS, batch=batch, trials=3)


def test_compare_strategies_fills_ratios():
    fast, slow = compare_strategies("nin-shape", batch=4, trials=3, seed=1)
    assert fast.ratio == pytest.approx(slow.median / fast.median)
    assert slow.ratio == pytest.approx(fast.median / slow.median)
    assert fast.ratio * slow.ratio == pytest.approx(1.0)


def test_tracer_bindings_resolve(monkeypatch):
    # the benchmark's tracer patches functions by module and name; a rename
    # in roteq must fail here rather than silently empty a per-layer metric
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    model = network.build_model(network.preset_stack("dren-small"), seed=0)
    x = np.random.default_rng(0).random((2, 1, 10, 10))
    forward = network.forward
    t = tracer.Tracer()
    with t.installed():
        missing = list(t.missing)
        logits, cache = network.forward(model, x, mode="train")
        grads = network.backward(model, cache, np.ones_like(logits))
    assert network.forward is forward
    assert sorted(missing) == [
        "roteq.bench.correlate2d",
        "roteq.bench.expand_cycle",
        "roteq.bench.expand_decycle",
        "roteq.bench.expand_isotonic",
        "roteq.bench.max_pool2d",
        "roteq.eqlayers.correlate2d",
        "roteq.eqlayers.correlate2d_backward",
        "roteq.eqlayers.rotate_kernels90",
        "roteq.tensor.rotate_kernels90",
    ]
    for span in tracer.LAYER_SPANS:
        bound = [f"{m}.{a}" for m, a in tracer.BINDINGS[span] if f"{m}.{a}" not in missing]
        assert bound, f"span {span} resolves nowhere"
    # forward and backward each expand every tied layer from its base, and
    # backward collapses each once; every call is split to its layer
    tied = [i for i, spec in enumerate(model.specs) if spec.kind in network.TIED_KINDS]
    assert t.calls["eqlayers.expand"] == 2 * len(tied)
    assert t.calls["eqlayers.collapse_grad"] == len(tied)
    assert {i for phase, i in t.per_layer if phase == "bwd"} == set(tied)
    # after an update the next step expands every tied layer again, from
    # index tables built once per shape: it rotates no kernel and builds no table
    network.sgd_step(model, grads, lr=0.05, momentum=0.9)
    before = eqlayers._tying.cache_info()
    rotated = []  # shapes of the arrays np.rot90 turns during the step
    rot90 = np.rot90
    monkeypatch.setattr(np, "rot90", lambda m, *args, **kw: rotated.append(m.shape) or rot90(m, *args, **kw))
    t = tracer.Tracer()
    with t.installed():
        logits, cache = network.forward(model, x, mode="train")
        network.backward(model, cache, np.ones_like(logits))
    assert t.calls["eqlayers.expand"] == 2 * len(tied)
    assert t.calls["eqlayers.collapse_grad"] == len(tied)
    # each expansion and collapse reads an index table built before this step
    after = eqlayers._tying.cache_info()
    assert (after.hits - before.hits, after.misses) == (3 * len(tied), before.misses)
    assert rotated == []


def test_tracer_times_every_batchnorm_step(rng):
    # the tracer patches GroupBatchNorm's static methods on the class and
    # restores them as the plain functions it read; calls through the class
    # are timed, and run the same after the restore. The batch norm after
    # gap follows no filter step, so the eval forward runs its pass
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    stack = "cycle:g2:k3,relu,bn,isotonic:g2:k1,relu,bn,decycle:c10:k1,bn,gap,bn"
    model = network.build_model(network.parse_layer_stack(stack), precision="float64")
    random_batchnorm(model, rng)
    x = rng.random((4, 1, 9, 9))

    def step_bytes():
        logits, cache = network.forward(model, x, mode="train")
        grads = network.backward(model, cache, np.ones_like(logits))
        arrays = [logits, network.forward(model, x, mode="eval")[0]]
        arrays += [a for layer in (*grads.values(), *cache.new_state.values()) for a in layer.values()]
        return [a.tobytes() for a in arrays]

    before = step_bytes()
    t = tracer.Tracer()
    with t.installed():
        logits, cache = network.forward(model, x, mode="train")
        network.backward(model, cache, np.ones_like(logits))
        assert t.calls["eqlayers.GroupBatchNorm.forward"] == len(model.state) == 4
        network.forward(model, x, mode="eval")
    assert t.calls["eqlayers.GroupBatchNorm.forward"] == len(model.state) + 1
    assert t.calls["eqlayers.GroupBatchNorm.backward"] == len(model.state)
    assert step_bytes() == before


@pytest.mark.parametrize("preset", ["dren-small", "dren-z2cnn-shape", "bench-z2cnn-shape", "bench-nin-shape"])
def test_strategy_tables_agree_on_whole_stacks(rng, preset):
    # eval logits of both tables on the tied presets, batch norm with random
    # statistics and affine parameters so that it is no identity
    for precision, limit in (("float64", 1e-12), ("float32", GATE_TOLERANCE)):
        model = network.build_model(network.preset_stack(preset), precision=precision, input_size=28)
        random_batchnorm(model, rng)
        dtype = np.dtype(precision)
        x = rng.random((8, 1, 28, 28)).astype(dtype)
        filters, maps = (
            network.forward(model, x, mode="eval", kinds=STRATEGIES[name])[0]
            for name in (ROTATE_FILTERS, ROTATE_FEATURE_MAPS)
        )
        assert filters.dtype == maps.dtype == dtype
        assert oracle.relative_deviation(filters, maps)[1] <= limit, precision


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("preset", TIED_PRESETS)
def test_map_walk_gives_its_plain_walks_bytes(rng, preset, precision):
    # only a filter step takes an epilogue, and every tied layer of the map
    # table runs a map step instead; the walk gives the plain walk's bytes
    maps = STRATEGIES[ROTATE_FEATURE_MAPS]
    model = network.build_model(network.preset_stack(preset), precision=precision, input_size=28)
    random_batchnorm(model, rng)
    x = rng.random((8, 1, 28, 28))
    walked, _ = network.forward(model, x, mode="eval", kinds=maps)
    assert walked.tobytes() == plain_eval_walk(model, x, maps).tobytes()


@pytest.mark.parametrize("strategy", [ROTATE_FILTERS, ROTATE_FEATURE_MAPS])
def test_time_forward_refuses_to_time_diverging_strategies(monkeypatch, strategy):
    real = oracle.oracle_cycle
    monkeypatch.setattr(oracle, "oracle_cycle", lambda base, x, geom: real(base, x, geom) * 1.01)
    with pytest.raises(RuntimeError, match="refusing to time"):
        time_forward("z2cnn-shape", strategy, batch=2, trials=3)


@pytest.mark.parametrize("strategy", [ROTATE_FILTERS, ROTATE_FEATURE_MAPS])
def test_time_forward_runs_one_untimed_pass_per_strategy(monkeypatch, strategy):
    # the gate's pass of the timed strategy is its warm-up: the timed walk
    # runs once per trial plus once in the gate, the other walk only in the gate
    walks = dict.fromkeys(STRATEGIES, 0)
    real = network.forward

    def counted(*args, kinds=network.KINDS, **kwargs):
        (name,) = [name for name, table in STRATEGIES.items() if table is kinds]
        walks[name] += 1
        return real(*args, kinds=kinds, **kwargs)

    monkeypatch.setattr(network, "forward", counted)
    time_forward("z2cnn-shape", strategy, batch=2, trials=3)
    other = ROTATE_FEATURE_MAPS if strategy == ROTATE_FILTERS else ROTATE_FILTERS
    assert (walks[strategy], walks[other]) == (4, 1)
