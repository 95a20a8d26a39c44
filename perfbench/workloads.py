"""The benchmark's workloads, driven only through roteq's public entry points.

Each workload is a closed loop with one caller: the next operation
starts when the previous one has returned. Inputs come from the seed
alone. A workload exposes

- `setup()`: data generation, model build or decode, and warm-up;
  run several times, the last result is kept;
- `round()`: one closed-loop unit of work, returning a `Round`;
- `peak_pass()`: one untimed operation, run under tracemalloc;
- `final_checks()`: (attempted, failed) of checks made after the loop;
- `notes()`: workload-specific figures for the detail line;
- `cost_layers()`: (batch, model) whose conv-like layers feed
  `memory_model`.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from roteq import bench, cli, data, network, oracle, tensor

IMAGE_SIZE = 28
DREN_PRESET = "dren-z2cnn-shape"
EQUIVARIANCE_TOLERANCE = 1e-4  # relative, float32 round-off through 7 conv layers


@dataclass
class Round:
    """Timed samples of one round plus its correctness tally."""

    seconds: list  # one wall-clock sample per timed step
    images: int  # images pushed through the timed steps
    attempted: int
    failed: int
    setup_seconds: float | None = None  # setup work the round paid for itself
    maps_seconds: list = field(default_factory=list)  # map-rotation passes (strategy only)


def glyphs(n, seed):
    """Seeded 28x28 glyphs, each turned by a random quarter-turn multiple."""
    return data.rotate_dataset_exact(data.synth_glyphs(n, size=IMAGE_SIZE, seed=seed), seed=seed + 1)


def _dren_model(seed):
    return network.build_model(
        network.preset_stack(DREN_PRESET), in_channels=1, seed=seed, input_size=IMAGE_SIZE
    )


class TrainDren:
    """Momentum-SGD train steps of dren-z2cnn-shape at batch 64."""

    batch = 64
    ops_per_round = 1  # a train step
    train_images = 2048
    probe_images = 32
    lr, momentum = 0.05, 0.9
    warmup_steps = 2

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        ds = glyphs(self.train_images + self.probe_images, self.seed)
        self.train = ds.subset(np.arange(self.train_images))
        self.probe = ds.images[self.train_images :]
        self.model = _dren_model(self.seed)
        self.rng = np.random.default_rng(self.seed + 2)
        self.order = np.empty(0, dtype=np.int64)
        for _ in range(self.warmup_steps):
            self._step()

    def _step(self):
        """One step exactly as network.train takes it; returns the loss."""
        if self.order.size < self.batch:
            self.order = self.rng.permutation(self.train_images)
        idx, self.order = self.order[: self.batch], self.order[self.batch :]
        logits, cache = network.forward(self.model, self.train.images[idx], mode="train", rng=self.rng)
        loss, grad = network.softmax_cross_entropy(logits, self.train.labels[idx])
        grads = network.backward(self.model, cache, grad)
        for i, st in cache.new_state.items():
            self.model.state[i] = st
        network.sgd_step(self.model, grads, self.lr, self.momentum)
        return loss

    def round(self):
        t0 = time.perf_counter()
        loss = self._step()
        dt = time.perf_counter() - t0
        return Round([dt], self.batch, attempted=1, failed=int(not np.isfinite(loss)))

    def peak_pass(self):
        self._step()

    def final_checks(self):
        """Logits of the trained model on a probe batch commute with quarter turns."""
        ref, _ = network.forward(self.model, self.probe, mode="eval")
        failed = 0
        for k in range(1, 4):
            turned, _ = network.forward(self.model, tensor.rotate90(self.probe, k), mode="eval")
            _, rel = oracle.relative_deviation(turned, ref)
            failed += int(not rel <= EQUIVARIANCE_TOLERANCE)
        return 3, failed

    def notes(self):
        return {}

    def cost_layers(self):
        return self.batch, self.model


class InferDren:
    """Checkpoint round trip, then eval-mode forward at batch 256 under four turns."""

    batch = 256
    ops_per_round = 4  # an inference batch, once per quarter turn
    test_images = 1024

    def __init__(self, seed):
        self.seed = seed
        self.checks = [0, 0]  # attempted, failed checkpoint round trips
        self.next_batch = 0
        self.round_off_ties = 0

    def setup(self):
        test = glyphs(self.test_images, self.seed)
        built = _dren_model(self.seed)
        raw = cli.encode_checkpoint(built)
        self.model = cli.decode_checkpoint(raw)
        self.checkpoint_bytes = len(raw)
        self.checks[0] += 1
        self.checks[1] += int(not _same_arrays(built, self.model))
        self.turned = [tensor.rotate90(test.images, k) for k in range(4)]
        network.forward(self.model, self.turned[0][: self.batch], mode="eval")

    def round(self):
        """Classify one test batch under each of the four quarter turns."""
        lo = self.next_batch * self.batch
        self.next_batch = (self.next_batch + 1) % (self.test_images // self.batch)
        seconds, outputs = [], []
        for images in self.turned:
            t0 = time.perf_counter()
            logits, _ = network.forward(self.model, images[lo : lo + self.batch], mode="eval")
            preds = np.argmax(logits, axis=1)
            seconds.append(time.perf_counter() - t0)
            outputs.append((logits, preds))
        failed = sum(int(not self._same_decision(outputs[0], out)) for out in outputs[1:])
        return Round(seconds, 4 * self.batch, attempted=4, failed=failed)

    def _same_decision(self, ref, out):
        """Logits agree to round-off, and so do predictions wherever the class is not a round-off tie.

        An untrained model can emit two top logits that differ by less
        than float32 round-off (gaps of 0 and 3e-8 occur); argmax of such
        a pair flips between turns without any loss of invariance. Those
        images are counted in `round_off_ties` instead of failing.
        """
        (ref_logits, ref_preds), (logits, preds) = ref, out
        _, rel = oracle.relative_deviation(logits, ref_logits)
        top2 = np.sort(ref_logits, axis=1)[:, -2:]
        decided = top2[:, 1] - top2[:, 0] > EQUIVARIANCE_TOLERANCE * np.abs(ref_logits).max()
        self.round_off_ties += int(np.count_nonzero(~decided & (preds != ref_preds)))
        return rel <= EQUIVARIANCE_TOLERANCE and np.array_equal(preds[decided], ref_preds[decided])

    def peak_pass(self):
        network.forward(self.model, self.turned[0][: self.batch], mode="eval")

    def final_checks(self):
        return tuple(self.checks)

    def notes(self):
        return {"checkpoint_bytes": self.checkpoint_bytes, "round_off_ties": self.round_off_ties}

    def cost_layers(self):
        return self.batch, self.model


def _same_arrays(a, b):
    """Parameters and batch-norm state of two models are bit-for-bit equal."""
    for x, y in ((a.params, b.params), (a.state, b.state)):
        if x.keys() != y.keys():
            return False
        for i in x:
            if x[i].keys() != y[i].keys():
                return False
            for k in x[i]:
                if x[i][k].dtype != y[i][k].dtype or not np.array_equal(x[i][k], y[i][k]):
                    return False
    return True


class StrategyZ2cnn:
    """bench.time_forward on bench-z2cnn-shape: filter expansion vs map rotation.

    time_forward refuses to time (RuntimeError) unless both strategies
    agree to 1e-5, so each call is one checked operation. A round is a
    filters call followed by a maps call; the per-call work outside the
    timed trials (model build, expansion, agreement gate, warm-up pass)
    is this workload's set-up.
    """

    model_name = "z2cnn-shape"
    batch = 64
    ops_per_round = 1  # a filters call plus a maps call
    trials = 10

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        pass  # every time_forward call sets itself up; round() measures that

    def _call(self, strategy, trials):
        t0 = time.perf_counter()
        try:
            report = bench.time_forward(self.model_name, strategy, self.batch, trials, self.seed)
        except RuntimeError:
            return None, time.perf_counter() - t0
        return report, time.perf_counter() - t0

    def round(self):
        fast, fast_wall = self._call(bench.ROTATE_FILTERS, self.trials)
        slow, slow_wall = self._call(bench.ROTATE_FEATURE_MAPS, self.trials)
        failed = int(fast is None) + int(slow is None)
        if failed:
            return Round([], 0, attempted=2, failed=failed)
        setup = (fast_wall - sum(fast.seconds)) + (slow_wall - sum(slow.seconds))
        return Round(
            fast.seconds,
            self.batch * len(fast.seconds),
            attempted=2,
            failed=0,
            setup_seconds=setup,
            maps_seconds=slow.seconds,
        )

    def peak_pass(self):
        self._call(bench.ROTATE_FILTERS, 3)

    def final_checks(self):
        return 0, 0

    def notes(self):
        return {}

    def cost_layers(self):
        preset, size = bench.BENCH_MODELS[self.model_name]
        model = network.build_model(network.preset_stack(preset), in_channels=1, seed=self.seed, input_size=size)
        return self.batch, model


WORKLOADS = {
    "train-dren": TrainDren,
    "infer-dren": InferDren,
    "strategy-z2cnn": StrategyZ2cnn,
}


def memory_model(batch, model):
    """bench.memory_model element counts per conv-like layer, both strategies.

    Totals are in MB of float32, to set beside the measured peak: the
    sums over layers, and the largest single layer's GEMM patch matrix.
    """
    rows, totals = [], {}
    size = IMAGE_SIZE
    c = model.in_channels
    for i, spec in enumerate(model.specs):
        if spec.kind in ("cycle", "isotonic", "decycle", "conv"):
            geom = bench.LayerGeometry(batch, c, spec.width, spec.kernel, size, size)
            for strategy in bench.STRATEGIES:
                r = bench.memory_model(geom, strategy)
                counts = {"filters": r.filters_cost, "feature_map": r.feature_map_cost,
                          "feature_map_gemm": r.feature_map_gpu_cost}
                rows.append({"layer": i, "kind": spec.kind, "strategy": strategy, **counts})
                t = totals.setdefault(strategy, dict.fromkeys((f"{k}_mb" for k in counts), 0.0))
                for k, v in counts.items():
                    t[f"{k}_mb"] += 4 * v / 1e6
                # patch matrices of different layers need not coexist
                t["largest_layer_gemm_mb"] = max(t.get("largest_layer_gemm_mb", 0.0), 4 * r.feature_map_gpu_cost / 1e6)
            size = (size + 2 * spec.pad - spec.kernel) // spec.stride + 1
        elif spec.kind == "max_pool":
            size = (size - spec.kernel) // spec.stride + 1
        c = model.channels[i]
    return {"totals": totals, "layers": rows}
