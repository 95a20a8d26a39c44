"""roteq benchmark: one workload, one seed, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-dren --seed 0 --seconds 30 --trace 0

The workloads, metric names and units are declared in BENCHMARK.json at
the root; perfbench/README.md says what each one measures. With
`--trace 0` the run reports the end-to-end metrics, measured without
tracing. With `--trace 1` it reports the per-layer metrics: untraced
and traced rounds alternate, so the trace can report its own overhead. The last line of standard output is the result object; the
line before it is a detail object with the environment, the analytic
memory model and workload-specific figures.

It imports roteq from `src/` of the checkout and exits with code 2,
printing no result, when that source is absent.
"""

import argparse
import json
import os
import platform
import re
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
SETUP_SPANS = ("data.synth_glyphs", "data.rotate_dataset_exact", "cli.encode_checkpoint", "cli.decode_checkpoint")


def cap_blas_threads():
    """Let BLAS use at most one thread per CPU this process may run on."""
    ncpu = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= ncpu):
            os.environ[var] = str(ncpu)
    return ncpu


def environment(ncpu):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": ncpu,
        "cpu": cpu,
        "platform": platform.platform(),
    }


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description="roteq benchmark")
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


class Tally:
    """Timed samples and correctness counts of a closed loop."""

    def __init__(self):
        self.seconds, self.images, self.attempted, self.failed, self.rounds = [], 0, 0, 0, 0
        self.setup_seconds, self.maps_seconds = [], []

    def add(self, r):
        self.rounds += 1
        self.seconds += r.seconds
        self.images += r.images
        self.attempted += r.attempted
        self.failed += r.failed
        if r.setup_seconds is not None:
            self.setup_seconds.append(r.setup_seconds)
        self.maps_seconds += r.maps_seconds

    def run(self, workload, seconds):
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.add(workload.round())
        return self

    @property
    def img_per_s(self):
        return self.images / sum(self.seconds) if self.seconds else 0.0


def strategy_figures(tally, batch):
    """Map-path images/s and the maps-over-filters median ratio (strategy rounds only)."""
    if not tally.maps_seconds or not tally.seconds:
        return {"maps_img_per_s": 0.0, "strategy_ratio": 0.0}
    return {
        "maps_img_per_s": batch * len(tally.maps_seconds) / sum(tally.maps_seconds),
        "strategy_ratio": statistics.median(tally.maps_seconds) / statistics.median(tally.seconds),
    }


def end_to_end(workload, seconds):
    import numpy as np

    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t0)
    tracemalloc.start()
    workload.peak_pass()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    tally = Tally().run(workload, seconds)
    attempted, failed = workload.final_checks()
    tally.attempted += attempted
    tally.failed += failed
    if tally.setup_seconds:  # the workload sets itself up inside every round
        setup_s = tally.setup_seconds
    p50, p90 = (float(q) for q in np.percentile(tally.seconds or [0.0], [50, 90]))
    metrics = {
        "setup_s": statistics.median(setup_s),
        "img_per_s": tally.img_per_s,
        "step_ms_p50": 1e3 * p50,
        "step_ms_p90": 1e3 * p90,
        "peak_alloc_mb": peak / 1e6,
    }
    detail = {
        "samples": len(tally.seconds),
        "samples_beyond_p90": sum(1 for s in tally.seconds if s > p90),
        "setup_samples": len(setup_s),
        "fail_frac": tally.failed / max(tally.attempted, 1),
        **strategy_figures(tally, workload.batch),
    }
    return metrics, detail, tally


LAYER_METRIC = re.compile(r"network\.L(\d+)\.(fwd|bwd)_ms")
# Spans that wrap a whole caller-facing call; their self time is not layer work.
CONTAINER_SPANS = ("network.forward", "network.backward", "bench.time_forward")


def per_layer(workload, seconds, names):
    from tracer import BINDINGS, Tracer

    setup_tracer = Tracer()
    with setup_tracer.installed():
        workload.setup()
    # Traced and untraced rounds alternate, so drift in machine speed
    # cancels out of the overhead estimate.
    tracer, traced, untraced, wall = Tracer(), Tally(), Tally(), 0.0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        untraced.add(workload.round())
        with tracer.installed():
            t0 = time.perf_counter()
            traced.add(workload.round())
            wall += time.perf_counter() - t0
    attempted, failed = workload.final_checks()
    traced.attempted += untraced.attempted + attempted
    traced.failed += untraced.failed + failed

    ops = max(traced.rounds * workload.ops_per_round, 1)
    layer_self = sum(v for k, v in tracer.self_time.items() if k not in CONTAINER_SPANS)
    extras = {
        "conv.correlate2d.gflop": tracer.flop / 1e9 / ops,
        "conv.correlate2d.cols_mb": tracer.cols_bytes / 1e6 / ops,
        "cli.checkpoint_bytes": workload.notes().get("checkpoint_bytes", 0),
        "bench.trace.overhead_pct": 100 * (untraced.img_per_s / traced.img_per_s - 1),
        "bench.trace.uncovered_pct": 100 * (wall - layer_self) / wall,
        **{f"bench.time_forward.{k}": v for k, v in strategy_figures(untraced, workload.batch).items()},
    }
    metrics = {}
    for name in names:
        m = LAYER_METRIC.fullmatch(name)
        span, _, stat = name.rpartition(".")
        if name in extras:
            metrics[name] = extras[name]
        elif m:
            metrics[name] = 1e3 * tracer.per_layer[(m[2], int(m[1]))] / ops
        elif span in BINDINGS and stat in ("ms", "self_ms", "calls"):
            t, per = (setup_tracer, 1) if span in SETUP_SPANS else (tracer, ops)
            total = {"ms": 1e3 * t.inclusive[span], "self_ms": 1e3 * t.self_time[span], "calls": t.calls[span]}
            metrics[name] = total[stat] / per
        else:
            raise ValueError(f"BENCHMARK.json names per-layer metric {name!r}, which this benchmark does not measure")
    detail = {
        "ops": ops,
        "untraced_img_per_s": untraced.img_per_s,
        "traced_img_per_s": traced.img_per_s,
        "missing_bindings": tracer.missing,
        "span_ms_per_op": {k: 1e3 * v / ops for k, v in sorted(tracer.inclusive.items())},
        "fail_frac": traced.failed / max(traced.attempted, 1),
    }
    return metrics, detail, traced


def main(argv=None):
    if not (ROOT / "src" / "roteq" / "__init__.py").is_file():
        print(f"roteq source not found under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    ncpu = cap_blas_threads()
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, list(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload](args.seed)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        metrics, detail, tally = per_layer(workload, args.seconds, [m["name"] for m in declared])
    else:
        metrics, detail, tally = end_to_end(workload, args.seconds)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(ncpu),
        **detail,
        **workload.notes(),
        "memory_model": {"peak_alloc_mb": metrics.get("peak_alloc_mb"), **workloads.memory_model(*workload.cost_layers())},
    }
    print(json.dumps({"detail": detail}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
