"""Analytic memory-cost model and wall-clock strategy comparison.

The cost model counts array elements for the two ways of implementing
the tied layers: expanding rotated filter copies once (filters cost 4x,
maps unchanged) versus rotating feature maps per forward pass (filters
unchanged, maps 4x). The GEMM row models the patch-matrix lowering used
by the correlation kernel, where every map element is copied k^2 times.

The timing harness runs the same parameters through both strategies,
each as the eval-mode `network.forward` that training and inference
use, walking its own layer table (`STRATEGIES`): the filter side walks
`network.KINDS`, and the map side a copy whose tied kinds run
`oracle.oracle_<kind>` instead. `network.forward` says which layers of
each walk fuse. It refuses to time anything until their outputs agree,
so the measured ratio reflects strategy overhead and never a divergent
computation.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import network, oracle
from .conv import ConvGeometry
from .network import KINDS, TIED_KINDS, build_model, preset_stack
from .oracle import relative_deviation


def _rotate_maps_forward(model, i, h, train, rng, spent=False):
    """A tied layer's forward step through `oracle.oracle_<kind>`, looked up
    on every call so a patched oracle is the one run; its cache is the
    filter step's (input, geometry)."""
    spec = model.specs[i]
    geom = ConvGeometry(spec.stride, spec.pad)
    return getattr(oracle, f"oracle_{spec.kind}")(model.params[i]["base"], h, geom), (h, geom), None


ROTATE_FILTERS = "rotate_filters"
ROTATE_FEATURE_MAPS = "rotate_feature_maps"
STRATEGIES = {  # strategy name -> the layer table its `network.forward` walks
    ROTATE_FILTERS: KINDS,
    ROTATE_FEATURE_MAPS: {
        name: replace(entry, forward=_rotate_maps_forward) if name in TIED_KINDS else entry
        for name, entry in KINDS.items()
    },
}

BENCH_MODELS = {
    "z2cnn-shape": ("bench-z2cnn-shape", 28),
    "nin-shape": ("bench-nin-shape", 28),
}
GATE_TOLERANCE = 1e-5  # largest relative deviation between the strategies' outputs


@dataclass(frozen=True)
class LayerGeometry:
    """Shape of one correlation for the analytic cost model."""

    n: int
    c_in: int
    c_out: int
    k: int
    w: int
    h: int

    def __post_init__(self):
        for name in ("n", "c_in", "c_out", "k", "w", "h"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class CostReport:
    """Element counts for one strategy on one layer geometry."""

    strategy: str
    filters_cost: int
    feature_map_cost: int
    feature_map_gpu_cost: int


@dataclass
class TimingReport:
    strategy: str
    model: str
    batch: int
    trials: int
    seconds: list = field(default_factory=list)
    median: float = 0.0
    mean: float = 0.0
    ratio: float | None = None  # counterpart median / own median


def memory_model(geom: LayerGeometry, strategy: str) -> CostReport:
    """Element counts for filters, feature maps, and the GEMM lowering."""
    base_filters = geom.c_in * geom.c_out * geom.k * geom.k
    base_map = geom.n * geom.c_in * geom.w * geom.h
    if strategy == ROTATE_FILTERS:
        return CostReport(strategy, 4 * base_filters, base_map, base_map * geom.k * geom.k)
    if strategy == ROTATE_FEATURE_MAPS:
        return CostReport(strategy, base_filters, 4 * base_map, 4 * base_map * geom.k * geom.k)
    raise ValueError(f"unknown strategy {strategy!r}")


def time_forward(
    model_name: str,
    strategy: str,
    batch: int = 64,
    trials: int = 5,
    seed: int = 0,
) -> TimingReport:
    """Wall-clock seconds per full-batch forward pass for one strategy.

    Before timing, the other strategy runs once and then the timed one,
    and the two outputs must agree within `GATE_TOLERANCE` or this
    raises before any trial. That pass of the timed strategy is its
    warm-up: the trials follow it directly, so each strategy runs one
    untimed forward per call. Both strategies do all their rotation
    inside the timed pass: the filter strategy expands every tied bank
    from its base, as each training and inference forward does, and the
    map strategy rotates feature maps.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if trials < 3:
        raise ValueError("need at least 3 trials")
    if batch < 1:
        raise ValueError(f"batch must be at least 1, got {batch}")
    if model_name not in BENCH_MODELS:
        raise ValueError(f"unknown bench model {model_name!r}; choose from {sorted(BENCH_MODELS)}")
    preset, size = BENCH_MODELS[model_name]
    model = build_model(preset_stack(preset), in_channels=1, seed=seed, input_size=size)
    x = np.random.default_rng(seed + 1).random((batch, 1, size, size), dtype=np.float32)

    def walk(name):
        return network.forward(model, x, mode="eval", kinds=STRATEGIES[name])[0]

    reference = walk(next(name for name in STRATEGIES if name != strategy))
    out = walk(strategy)  # the timed strategy runs last: this pass is its warm-up
    _, rel = relative_deviation(out, reference)
    if rel > GATE_TOLERANCE:
        raise RuntimeError(
            f"strategy outputs diverge (rel {rel:.3e} > {GATE_TOLERANCE:g}); refusing to time"
        )

    seconds = []
    for _ in range(trials):
        t0 = time.perf_counter()
        walk(strategy)
        seconds.append(time.perf_counter() - t0)
    report = TimingReport(strategy, model_name, batch, trials, seconds)
    report.median = float(np.median(seconds))
    report.mean = float(np.mean(seconds))
    return report


def compare_strategies(
    model_name: str, batch: int = 64, trials: int = 5, seed: int = 0
) -> tuple[TimingReport, TimingReport]:
    """Time both strategies on identical parameters; fills the ratio fields."""
    fast = time_forward(model_name, ROTATE_FILTERS, batch, trials, seed)
    slow = time_forward(model_name, ROTATE_FEATURE_MAPS, batch, trials, seed)
    fast.ratio = slow.median / fast.median
    slow.ratio = fast.median / slow.median
    return fast, slow


def report_csv(reports: list) -> str:
    """CSV with header strategy,model,batch,trials,median_s,mean_s,ratio."""
    lines = ["strategy,model,batch,trials,median_s,mean_s,ratio"]
    for r in reports:
        ratio = f"{r.ratio:.6f}" if r.ratio is not None else ""
        lines.append(
            f"{r.strategy},{r.model},{r.batch},{r.trials},{r.median:.6f},{r.mean:.6f},{ratio}"
        )
    return "\n".join(lines) + "\n"
