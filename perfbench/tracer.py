"""Per-layer span tracer for the benchmark.

roteq modules import their helpers by name (`from .conv import
correlate2d`), so a call made inside `network.py` resolves
`roteq.network.correlate2d`, not `roteq.conv.correlate2d`. Wrapping only
the defining module would miss those calls. `BINDINGS` therefore lists,
for every public function a workload reaches, each module attribute its
callers look it up under, and `Tracer.installed()` swaps all of them for
timing wrappers and restores the originals on exit.

Spans are aggregated in memory as they close: inclusive time, self time
(inclusive minus the time of direct child spans), call counts, and the
time of conv-like work per model layer index.
"""

import contextlib
import functools
import importlib
import time
from collections import defaultdict

# span name -> (module path, attribute path) bindings that callers use
BINDINGS = {
    "conv.correlate2d": [
        ("roteq.conv", "correlate2d"),
        ("roteq.network", "correlate2d"),
        ("roteq.bench", "correlate2d"),
        ("roteq.oracle", "correlate2d"),
        ("roteq.eqlayers", "correlate2d"),
    ],
    "conv.correlate2d_backward": [
        ("roteq.conv", "correlate2d_backward"),
        ("roteq.network", "correlate2d_backward"),
        ("roteq.eqlayers", "correlate2d_backward"),
    ],
    "conv.max_pool2d": [
        ("roteq.conv", "max_pool2d"),
        ("roteq.network", "max_pool2d"),
        ("roteq.bench", "max_pool2d"),
    ],
    "conv.max_pool2d_backward": [
        ("roteq.conv", "max_pool2d_backward"),
        ("roteq.network", "max_pool2d_backward"),
    ],
    "eqlayers.expand": [
        (module, f"expand_{kind}")
        for module in ("roteq.eqlayers", "roteq.network", "roteq.bench")
        for kind in ("cycle", "isotonic", "decycle")
    ],
    "eqlayers.collapse_grad": [
        (module, f"collapse_{kind}_grad")
        for module in ("roteq.eqlayers", "roteq.network")
        for kind in ("cycle", "isotonic", "decycle")
    ],
    "eqlayers.GroupBatchNorm.forward": [("roteq.eqlayers", "GroupBatchNorm.forward")],
    "eqlayers.GroupBatchNorm.backward": [("roteq.eqlayers", "GroupBatchNorm.backward")],
    "network.forward": [("roteq.network", "forward")],
    "network.backward": [("roteq.network", "backward")],
    "network.softmax_cross_entropy": [("roteq.network", "softmax_cross_entropy")],
    "network.sgd_step": [("roteq.network", "sgd_step")],
    "oracle.oracle_cycle": [("roteq.oracle", "oracle_cycle")],
    "oracle.oracle_isotonic": [("roteq.oracle", "oracle_isotonic")],
    "oracle.oracle_decycle": [("roteq.oracle", "oracle_decycle")],
    "tensor.rotate90": [
        ("roteq.tensor", "rotate90"),
        ("roteq.oracle", "rotate90"),
        ("roteq.data", "rotate90"),
    ],
    "tensor.rotate_kernels90": [
        ("roteq.tensor", "rotate_kernels90"),
        ("roteq.eqlayers", "rotate_kernels90"),
    ],
    "data.synth_glyphs": [("roteq.data", "synth_glyphs")],
    "data.rotate_dataset_exact": [("roteq.data", "rotate_dataset_exact")],
    "cli.encode_checkpoint": [("roteq.cli", "encode_checkpoint")],
    "cli.decode_checkpoint": [("roteq.cli", "decode_checkpoint")],
    "bench.time_forward": [("roteq.bench", "time_forward")],
}

# Enclosing spans whose conv-like descendants are split per model layer index.
LAYER_PHASES = {"network.forward": "fwd", "network.backward": "bwd"}
LAYER_SPANS = ("conv.correlate2d", "conv.correlate2d_backward", "eqlayers.expand", "eqlayers.collapse_grad")


def _correlate_counts(args, kwargs):
    """(flop, patch-matrix bytes) of one correlate2d call, from its shapes."""
    x, w = args[0], args[1]
    geom = args[2] if len(args) > 2 else kwargs.get("geom")
    stride, pad = (geom.stride, geom.pad) if geom is not None else (1, 0)
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    patch = n * c * kh * kw * oh * ow
    return 2 * patch * o, patch * x.itemsize


class Tracer:
    """Aggregated spans of one traced phase; see the module docstring."""

    def __init__(self):
        self.inclusive = defaultdict(float)  # seconds
        self.self_time = defaultdict(float)  # seconds
        self.calls = defaultdict(int)
        self.per_layer = defaultdict(float)  # (phase, layer index) -> seconds
        self.flop = 0
        self.cols_bytes = 0
        self.missing = []  # bindings absent from this version of roteq
        self._stack = []  # open spans: [name, child seconds]
        self._layer = None

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in LAYER_PHASES:
                self._layer = None
            if name == "conv.correlate2d":
                flop, nbytes = _correlate_counts(args, kwargs)
                self.flop += flop
                self.cols_bytes += nbytes
            phase = next((f[0] for f in self._stack if f[0] in LAYER_PHASES), None)
            layer = self._layer
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.inclusive[name] += dt
                self.self_time[name] += dt - frame[1]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][1] += dt
                if phase is not None and layer is not None and name in LAYER_SPANS:
                    self.per_layer[(LAYER_PHASES[phase], layer)] += dt

        return traced

    def _mark_layer(self, fn):
        """Model.expanded_filter(i) is looked up right before layer i's conv work."""

        @functools.wraps(fn)
        def marked(model, i):
            self._layer = i
            return fn(model, i)

        return marked

    @contextlib.contextmanager
    def installed(self):
        """Patch every existing binding in BINDINGS; restore them on exit."""
        undo = []
        self.missing = []
        try:
            for name, bindings in BINDINGS.items():
                for module_path, attr_path in bindings:
                    owner, attr = _resolve(module_path, attr_path)
                    if owner is None:
                        self.missing.append(f"{module_path}.{attr_path}")
                        continue
                    original = getattr(owner, attr)
                    undo.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original))
            model_cls = importlib.import_module("roteq.network").Model
            undo.append((model_cls, "expanded_filter", model_cls.expanded_filter))
            model_cls.expanded_filter = self._mark_layer(model_cls.expanded_filter)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def _resolve(module_path, attr_path):
    """(object holding the final attribute, its name), or (None, None) if absent."""
    owner = importlib.import_module(module_path)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return (owner, attr) if hasattr(owner, attr) else (None, None)
