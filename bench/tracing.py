"""In-memory spans around the library's public functions.

The tracer wraps functions at the module attribute each caller looks up, so no
file under ``src/`` is edited: ``model`` reaches the ops through ``ops.``,
``training`` imports ``forward``/``backward``/``adam_step`` by name, and so on.
Spans stay in memory until the run ends. A span's self time is its duration
minus the durations of its direct children; calls nest on one thread, so the
children never overlap.
"""

import importlib
import json
import time
from contextlib import contextmanager


def _conv_forward_attrs(args, kwargs, result):
    x, kernels = args[0], args[1]
    return _conv_attrs(x.shape, kernels.shape, gemm_per_tap=1)


def _conv_backward_attrs(args, kwargs, result):
    _, x_shape, kernels = args[0]
    return _conv_attrs(x_shape, kernels.shape, gemm_per_tap=2)


def _conv_attrs(x_shape, kernel_shape, gemm_per_tap):
    """Counts computed from shapes for the per-tap GEMM convolution."""
    b, h, w, _ = x_shape
    kh, kw, cin, cout = kernel_shape
    flop = 2.0 * b * h * w * kh * kw * cin * cout * gemm_per_tap
    return {"k": kh, "gemm": kh * gemm_per_tap, "flop": flop}


def _sync_attrs(args, kwargs, result):
    before = sum(log.timestamps.size for log in args[0])
    after = sum(log.timestamps.size for log in result)
    return {"dropped": before - after}


def _slice_attrs(args, kwargs, result):
    session, _, config = args[:3]
    tried = len(range(0, session.length_points - config.window_points + 1, config.stride))
    return {"kept": len(result), "tried": tried}


def _session_attrs(args, kwargs, result):
    arrays = [result.data] + [ch.values for ch in result.channels]
    return {"session_bytes": sum(a.nbytes for a in arrays)}


def _forward_name(args, kwargs):
    return "training.forward_train" if kwargs.get("train") else "training.forward_infer"


#: (module, attribute, span name or name function, attribute function)
WRAP_POINTS = (
    ("trailgrade.ingest", "load_session", "ingest.load_session", _session_attrs),
    ("trailgrade.ingest", "parse_sensor_csv", "ingest.parse",
     lambda a, k, r: {"rows": r.timestamps.size}),
    ("trailgrade.ingest", "synchronize", "ingest.synchronize", _sync_attrs),
    ("trailgrade.ingest", "resample_linear", "ingest.resample",
     lambda a, k, r: {"points": r.length}),
    ("trailgrade.ingest", "build_session", "ingest.build_session", None),
    ("trailgrade.experiments", "build_session", "ingest.build_session", None),
    ("trailgrade.labeling", "apply_overrides", "labeling.apply_overrides", None),
    ("trailgrade.dataset", "uniform_label", "labeling.uniform_label", None),
    ("trailgrade.dataset", "slice_windows", "dataset.slice_windows", _slice_attrs),
    ("trailgrade.experiments", "slice_windows", "dataset.slice_windows", _slice_attrs),
    ("trailgrade.dataset", "write_sample_archive", "dataset.archive_write", None),
    ("trailgrade.dataset", "read_sample_archive", "dataset.archive_read", None),
    ("trailgrade.experiments", "prepare_splits", "dataset.prepare_splits", None),
    ("trailgrade.experiments", "generate_synthetic", "experiments.synth", None),
    ("trailgrade.experiments", "run_grid", "experiments.run_grid", None),
    ("trailgrade.experiments", "train", "training.train",
     lambda a, k, r: {"epochs": len(r.history)}),
    ("trailgrade.training", "train", "training.train",
     lambda a, k, r: {"epochs": len(r.history)}),
    ("trailgrade.training", "evaluate", "training.evaluate", None),
    ("trailgrade.training", "forward", _forward_name, None),
    ("trailgrade.training", "backward", "training.backward", None),
    ("trailgrade.training", "adam_step", "nn.adam_step", None),
    ("trailgrade.training", "sparse_categorical_crossentropy", "nn.softmax_xent", None),
    ("trailgrade.nn.ops", "conv2d_forward", "nn.conv2d_forward", _conv_forward_attrs),
    ("trailgrade.nn.ops", "conv2d_backward", "nn.conv2d_backward", _conv_backward_attrs),
    ("trailgrade.nn.ops", "batchnorm_forward", "nn.batchnorm_forward", None),
    ("trailgrade.nn.ops", "batchnorm_backward", "nn.batchnorm_backward", None),
    ("trailgrade.nn.ops", "maxpool_forward", "nn.maxpool_forward", None),
    ("trailgrade.nn.ops", "maxpool_backward", "nn.maxpool_backward", None),
    ("trailgrade.nn.ops", "relu", "nn.relu", None),
    ("trailgrade.nn.ops", "relu_backward", "nn.relu", None),
    ("trailgrade.nn.ops", "dropout_forward", "nn.dropout", None),
    ("trailgrade.nn.ops", "dropout_backward", "nn.dropout", None),
    ("trailgrade.nn.ops", "dense_forward", "nn.dense", None),
    ("trailgrade.nn.ops", "dense_backward", "nn.dense", None),
    ("trailgrade.nn.ops", "softmax", "nn.softmax_xent", None),
    ("trailgrade.nn.ops", "sparse_categorical_crossentropy", "nn.softmax_xent", None),
)

#: Per-layer metrics that are the summed self time of one span name.
SELF_TIME_METRICS = {
    "ingest.parse_s": "ingest.parse",
    "ingest.synchronize_s": "ingest.synchronize",
    "ingest.resample_s": "ingest.resample",
    "ingest.build_session_s": "ingest.build_session",
    "labeling.apply_overrides_s": "labeling.apply_overrides",
    "labeling.uniform_label_s": "labeling.uniform_label",
    "dataset.slice_windows_s": "dataset.slice_windows",
    "dataset.archive_write_s": "dataset.archive_write",
    "dataset.archive_read_s": "dataset.archive_read",
    "dataset.prepare_splits_s": "dataset.prepare_splits",
    "nn.conv2d_forward_s": "nn.conv2d_forward",
    "nn.conv2d_backward_s": "nn.conv2d_backward",
    "nn.batchnorm_forward_s": "nn.batchnorm_forward",
    "nn.batchnorm_backward_s": "nn.batchnorm_backward",
    "nn.maxpool_forward_s": "nn.maxpool_forward",
    "nn.maxpool_backward_s": "nn.maxpool_backward",
    "nn.relu_s": "nn.relu",
    "nn.dropout_s": "nn.dropout",
    "nn.dense_s": "nn.dense",
    "nn.softmax_xent_s": "nn.softmax_xent",
    "nn.adam_step_s": "nn.adam_step",
}

#: Per-layer metrics that sum one attribute over the spans of one name.
COUNT_METRICS = {
    "ingest.parse_rows": ("ingest.parse", "rows"),
    "ingest.sync_rows_dropped": ("ingest.synchronize", "dropped"),
    "ingest.points_resampled": ("ingest.resample", "points"),
    "ingest.session_bytes": ("ingest.load_session", "session_bytes"),
    "dataset.windows_kept": ("dataset.slice_windows", "kept"),
}

CONV_KERNELS = (5, 10, 20, 40, 60)
_CONV_SPANS = ("nn.conv2d_forward", "nn.conv2d_backward")
_TRAIN_PHASE_SPANS = ("training.forward_train", "training.backward", "nn.adam_step")

_NS = 1e-9


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.attrs = None


class Tracer:
    """Records nested spans; as a context manager it installs WRAP_POINTS."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []
        self._open = []
        self._installed = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        record = Span(name, parent, self.clock())
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._open.pop()
            record.end = self.clock()

    def wrap(self, fn, name, attrs_of=None):
        """A function that runs ``fn`` inside a span named ``name``.

        ``name`` may be a function of (args, kwargs); ``attrs_of`` maps
        (args, kwargs, result) to the counts stored on the span.
        """

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label) as record:
                result = fn(*args, **kwargs)
            if attrs_of is not None:
                record.attrs = attrs_of(args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        for module_name, attr, name, attrs_of in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, attrs_of))
        return self

    def __exit__(self, *exc):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)
        return False

    def self_times(self):
        """Self time in seconds of every span, in recording order."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [(s.end - s.start - c) * _NS for s, c in zip(self.spans, child)]

    def write(self, path):
        """One JSON object per span: name, parent index, start/end in ns, attrs."""
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps(
                    {"name": s.name, "parent": s.parent, "start_ns": s.start,
                     "end_ns": s.end, "attrs": s.attrs},
                    separators=(",", ":"),
                ) + "\n")

    def layer_metrics(self):
        """The span-derived per-layer metrics; layers never reached read 0."""
        self_s = self.self_times()
        by_name, calls, counts = {}, {}, {}
        conv_by_k = {k: 0.0 for k in CONV_KERNELS}
        in_train = [False] * len(self.spans)
        synth_s = train_s = train_phase = eval_phase = 0.0
        epochs = batches = 0
        for i, s in enumerate(self.spans):
            by_name[s.name] = by_name.get(s.name, 0.0) + self_s[i]
            calls[s.name] = calls.get(s.name, 0) + 1
            for key, value in (s.attrs or {}).items():
                counts[s.name, key] = counts.get((s.name, key), 0) + value
            if s.name in _CONV_SPANS:
                conv_by_k[s.attrs["k"]] = conv_by_k.get(s.attrs["k"], 0.0) + self_s[i]
            busy = (s.end - s.start) * _NS
            inside = s.parent is not None and in_train[s.parent]
            in_train[i] = inside or s.name == "training.train"
            if s.name == "experiments.synth":
                synth_s += busy
            elif s.name == "training.train" and not inside:
                train_s += busy
                epochs += s.attrs["epochs"]
            elif inside and s.name in _TRAIN_PHASE_SPANS:
                train_phase += busy
                batches += s.name == "training.forward_train"
            elif inside and s.name == "training.forward_infer":
                eval_phase += busy

        out = {metric: by_name.get(span, 0.0) for metric, span in SELF_TIME_METRICS.items()}
        out.update({m: counts.get(key, 0) for m, key in COUNT_METRICS.items()})
        tried = counts.get(("dataset.slice_windows", "tried"), 0)
        out["dataset.window_keep_ratio"] = out["dataset.windows_kept"] / tried if tried else 0.0
        out["labeling.uniform_label_calls"] = calls.get("labeling.uniform_label", 0)
        out["nn.conv2d_calls"] = sum(calls.get(n, 0) for n in _CONV_SPANS)
        out["nn.conv2d_gemm_calls"] = sum(counts.get((n, "gemm"), 0) for n in _CONV_SPANS)
        out["nn.conv2d_gflop"] = sum(counts.get((n, "flop"), 0) for n in _CONV_SPANS) * 1e-9
        out.update({f"nn.conv2d_s.k{k}": conv_by_k[k] for k in CONV_KERNELS})
        out["experiments.synth_s"] = synth_s
        out["training.train_phase_s"] = train_phase
        out["training.eval_phase_s"] = eval_phase
        out["training.eval_share"] = eval_phase / train_s if train_s else 0.0
        out["training.unattributed_s"] = train_s - train_phase - eval_phase
        out["training.epochs"] = epochs
        out["training.batches"] = batches
        out["trace.spans"] = len(self.spans)
        return out
