"""Per-layer tracing for the traced benchmark run.

The tracer replaces each layer function with a timing wrapper on the module
or class where its caller looks it up (``unet`` calls ``layers.conv2d_forward``
through the module, ``evaluate_case`` calls ``dsc`` through ``metrics``' own
globals, ...), and puts the originals back on ``uninstall``.  A span's self
time is its wall time minus the wall time of the traced spans it encloses, so
the self times of nested calls add up to no more than the enclosing wall time.
A function a later change removes or renames is reported as missing.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

N_CONV = 19
MB = 2.0**20

ELEMENTWISE = ("relu_forward", "relu_backward", "sigmoid_forward", "sigmoid_backward",
               "concat_forward", "concat_backward")

# (module, attribute on the module or "Class.method", row).  Each row is
# reported as self time; rows sharing a name add up.
TIMED = [
    ("wmhseg.net.layers", "maxpool2x2_forward", "pool"),
    ("wmhseg.net.layers", "maxpool2x2_backward", "pool"),
    ("wmhseg.net.layers", "upsample2x_forward", "upsample"),
    ("wmhseg.net.layers", "upsample2x_backward", "upsample"),
    *[("wmhseg.net.layers", name, "elementwise") for name in ELEMENTWISE],
    ("wmhseg.net.training", "dice_loss_grad", "loss"),
    ("wmhseg.net.optim", "Adam.step", "adam"),
    ("wmhseg.datasets", "load_dataset", "prep.load"),
    ("wmhseg.datasets", "read_nifti", "nifti.read"),
    ("wmhseg.datasets", "read_nifti_mask", "nifti.read_mask"),
    ("wmhseg.pipeline", "case_training_arrays", "prep.arrays"),
    ("wmhseg.augment", "augment_dataset", "prep.augment"),
    ("wmhseg.net.weights_io", "load_weights", "weights.load"),
    ("wmhseg.nifti", "read_nifti", "nifti.read"),
    ("wmhseg.nifti", "read_nifti_mask", "nifti.read_mask"),
    ("wmhseg.nifti", "write_nifti", "nifti.write"),
    ("wmhseg.pipeline", "preprocess_case", "predict.preprocess"),
    ("wmhseg.pipeline", "ensemble_predict", "predict.ensemble"),
    ("wmhseg.pipeline", "threshold_map", "predict.threshold"),
    ("wmhseg.pipeline", "postprocess", "predict.postprocess"),
    ("wmhseg.metrics", "evaluate_case", "metrics.evaluate_other"),
    ("wmhseg.metrics", "dsc", "metrics.dsc"),
    ("wmhseg.metrics", "hausdorff95", "metrics.h95"),
    ("wmhseg.metrics", "avd", "metrics.avd"),
    ("wmhseg.metrics", "connected_components_3d", "metrics.components"),
    ("wmhseg.ranking", "rank_teams", "ranking.rank"),
    ("wmhseg.stats", "wilcoxon_signed_rank", "stats.wilcoxon"),
    ("wmhseg.stats", "benjamini_hochberg", "stats.bh"),
]
CONV_FWD = ("wmhseg.net.layers", "conv2d_forward")
CONV_BWD = ("wmhseg.net.layers", "conv2d_backward")
CACHES = ("wmhseg.net.training", "forward_with_caches")

# The unit each "_ms" row is divided by; the workload body says how many
# units of each kind it ran.  Conv rows are the median per call instead.
NET_ROWS = ("pool", "upsample", "elementwise", "loss", "adam")
ROW_UNIT = {
    **{row: "net" for row in NET_ROWS},
    "prep.load": "prep", "prep.arrays": "prep", "prep.augment": "prep",
    "nifti.read": "io", "nifti.read_mask": "io", "nifti.write": "io",
    "weights.load": "case", "predict.preprocess": "case", "predict.ensemble": "case",
    "predict.threshold": "case", "predict.postprocess": "case",
    "metrics.evaluate_other": "pair", "metrics.dsc": "pair", "metrics.h95": "pair",
    "metrics.avd": "pair", "metrics.components": "pair",
    "ranking.rank": "round", "stats.wilcoxon": "round", "stats.bh": "round",
}


def conv_row(index: int, kind: str) -> str:
    return f"conv{index + 1:02d}.{kind}"


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in table order."""
    names = [conv_row(i, kind) + suffix for i in range(N_CONV)
             for kind, suffix in (("fwd", "_ms"), ("bwd", "_ms"), ("gemm", "_frac"))]
    names += [f"{row}_ms" for row in NET_ROWS] + ["step_other_ms", "train.cache_mb"]
    names += [f"{row}_ms" for row in ROW_UNIT if row not in NET_ROWS]
    names += ["predict.ensemble_alloc_mb", "traced.work_per_s"]
    return names


@dataclass
class Row:
    total_s: float = 0.0
    samples: list = field(default_factory=list)  # self seconds of each call

    @property
    def calls(self) -> int:
        return len(self.samples)

    @property
    def self_s(self) -> float:
        return sum(self.samples)


def _resolve(module: str, attr: str):
    """(owner, name) for ``module.attr`` or ``module.Class.method``; None if gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, name) if callable(getattr(owner, name, None)) else None


class Tracer:
    """Times calls into the package's layer functions while installed.

    ``recording`` can be switched off to let warm-up calls pass untimed.
    """

    def __init__(self):
        self.rows: dict[str, Row] = {}
        self.missing: list[str] = []
        self.recording = True
        self.conv_shapes: dict[int, tuple] = {}  # layer -> (x shape, w shape, dtype)
        self.cache_bytes = 0
        self.gemm_gflops: dict[str, tuple] = {}  # conv -> (achieved, bare numpy matmul)
        self.ensemble_alloc = 0
        self._stack: list[float] = []
        self._saved: list[tuple] = []
        self._fwd_calls = 0
        self._bwd_calls = 0

    # -- installation ------------------------------------------------------

    def _patch(self, module, attr, make):
        target = _resolve(module, attr)
        if target is None:
            self.missing.append(f"{module}.{attr}")
            return
        owner, name = target
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def install(self):
        for module, attr, row in TIMED:
            self._patch(module, attr, lambda fn, row=row: self._timed(fn, lambda args: row))
        self._patch(*CONV_FWD, lambda fn: self._timed(fn, self._conv_fwd_row))
        self._patch(*CONV_BWD, lambda fn: self._timed(fn, self._conv_bwd_row))
        self._patch(*CACHES, self._measure_caches)
        self._patch("wmhseg.pipeline", "ensemble_predict", self._measure_alloc)
        return self

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- wrappers ----------------------------------------------------------

    def _timed(self, fn, row_of):
        def traced(*args, **kwargs):
            row = row_of(args)
            if not self.recording:
                return fn(*args, **kwargs)
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - start
                inner = self._stack.pop()
                if self._stack:
                    self._stack[-1] += wall
                r = self.rows.setdefault(row, Row())
                r.total_s += wall
                r.samples.append(wall - inner)

        return traced

    # A forward pass calls the 19 convs in layer order and backprop calls
    # them in reverse, so the call count modulo 19 names the layer.
    def _conv_fwd_row(self, args):
        index = self._fwd_calls % N_CONV
        self._fwd_calls += 1
        x, w = args[0], args[1]
        self.conv_shapes.setdefault(index, (x.shape, w.shape, w.dtype))
        return conv_row(index, "fwd")

    def _conv_bwd_row(self, args):
        index = N_CONV - 1 - self._bwd_calls % N_CONV
        self._bwd_calls += 1
        return conv_row(index, "bwd")

    def _measure_caches(self, fn):
        def traced(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.recording:
                self.cache_bytes = max(self.cache_bytes, _nbytes(out[1]))
            return out

        return traced

    def _measure_alloc(self, fn):
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.ensemble_alloc = max(self.ensemble_alloc, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return traced


def _nbytes(obj, seen=None) -> int:
    """Bytes of the distinct numpy arrays reachable through tuples and lists."""
    seen = set() if seen is None else seen
    if isinstance(obj, np.ndarray):
        base = obj if obj.base is None else obj.base
        if id(base) in seen or not isinstance(base, np.ndarray):
            return 0
        seen.add(id(base))
        return base.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o, seen) for o in obj)
    return 0


# ------------------------------------------------------------ GEMM rate ----

GEMM_ROWS = 65536  # rows of the bare GEMMs; the rate is flat beyond this


def _best_of(reps, fn):
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bare_gemm_rate(x_shape, w_shape, dtype, backward: bool, reps: int = 3) -> float:
    """FLOP/s of numpy matmul on the im2col GEMM shapes of one conv: the
    forward (M x K)(K x F) and, with ``backward``, (F x M)(M x K) and
    (M x F)(F x K), where M = N*H*W and K = C*k*k."""
    n, c, h, w = x_shape
    f, _, k, _ = w_shape
    m, kk = min(n * h * w, GEMM_ROWS), c * k * k
    rng = np.random.default_rng(0)
    cols = rng.standard_normal((m, kk)).astype(dtype)
    wmat = rng.standard_normal((f, kk)).astype(dtype)
    dy = rng.standard_normal((m, f)).astype(dtype)
    seconds = _best_of(reps, lambda: cols @ wmat.T)
    gemms = 1
    if backward:
        seconds += _best_of(reps, lambda: dy.T @ cols)
        seconds += _best_of(reps, lambda: dy @ wmat)
        gemms = 3
    return gemms * 2.0 * m * kk * f / seconds


def layer_metrics(tracer: Tracer, units: dict, step_wall_s: float | None) -> dict:
    """Per-layer metrics from one traced workload body.

    ``units`` maps a unit kind ("net", "prep", "io", "case", "pair", "round")
    to how many the body ran; ``step_wall_s`` is the summed wall time of the
    training steps, when the body trained.
    """
    out = {}
    for i in range(N_CONV):
        fwd = tracer.rows.get(conv_row(i, "fwd"))
        bwd = tracer.rows.get(conv_row(i, "bwd"))
        if fwd is None:
            continue
        fwd_s = float(np.median(fwd.samples))
        out[conv_row(i, "fwd") + "_ms"] = 1e3 * fwd_s
        seconds, passes = fwd_s, 1
        if bwd is not None:
            bwd_s = float(np.median(bwd.samples))
            out[conv_row(i, "bwd") + "_ms"] = 1e3 * bwd_s
            seconds, passes = fwd_s + bwd_s, 3
        x_shape, w_shape, dtype = tracer.conv_shapes[i]
        n, c, h, w = x_shape
        f, _, k, _ = w_shape
        achieved = passes * 2.0 * n * h * w * c * k * k * f / seconds
        bare = bare_gemm_rate(x_shape, w_shape, dtype, backward=bwd is not None)
        out[conv_row(i, "gemm") + "_frac"] = achieved / bare
        tracer.gemm_gflops[conv_row(i, "gemm")] = (achieved / 1e9, bare / 1e9)
    for row, unit in ROW_UNIT.items():
        r = tracer.rows.get(row)
        if r is not None and units.get(unit):
            out[f"{row}_ms"] = 1e3 * r.self_s / units[unit]
    if step_wall_s is not None and units.get("net"):
        named = sum(r.self_s for name, r in tracer.rows.items()
                    if name.startswith("conv") or name in NET_ROWS)
        out["step_other_ms"] = 1e3 * (step_wall_s - named) / units["net"]
    if tracer.cache_bytes:
        out["train.cache_mb"] = tracer.cache_bytes / MB
    if tracer.ensemble_alloc:
        out["predict.ensemble_alloc_mb"] = tracer.ensemble_alloc / MB
    return out


def table_rows(tracer: Tracer) -> list[dict]:
    """The per-layer table with call counts next to times, for the result file."""
    return [{"row": name, "calls": r.calls, "total_ms": 1e3 * r.total_s,
             "self_ms": 1e3 * r.self_s,
             "unit": "call" if name.startswith("conv") else ROW_UNIT.get(name, "")}
            for name, r in sorted(tracer.rows.items())]
