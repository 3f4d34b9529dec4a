"""Measurement loop, output checks and the metric catalogue.

A run either measures the end-to-end metrics with no wrapper installed, or
(traced) measures the per-layer metrics: one untraced pass of the workload's
traced task, then set-up plus the same task again under the tracer. The
difference between the two task walls is the tracing overhead.
"""

import resource
import statistics
import time
from dataclasses import dataclass

from tracing import Tracer

#: End-to-end metrics: (name, unit). Every workload reports every one.
END_TO_END = (
    ("setup_s", "s"),
    ("task_s", "s"),
    ("samples_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics of the traced run: (name, unit). A layer the workload
#: never reaches reads 0.
PER_LAYER = (
    ("ingest.parse_s", "s"),
    ("ingest.parse_rows", "count"),
    ("ingest.synchronize_s", "s"),
    ("ingest.sync_rows_dropped", "count"),
    ("ingest.resample_s", "s"),
    ("ingest.points_resampled", "count"),
    ("ingest.build_session_s", "s"),
    ("ingest.session_bytes", "bytes"),
    ("ingest.mb_per_s", "MB/s"),
    ("labeling.apply_overrides_s", "s"),
    ("labeling.uniform_label_calls", "count"),
    ("labeling.uniform_label_s", "s"),
    ("dataset.slice_windows_s", "s"),
    ("dataset.windows_kept", "count"),
    ("dataset.window_keep_ratio", "ratio"),
    ("dataset.archive_write_s", "s"),
    ("dataset.archive_read_s", "s"),
    ("dataset.prepare_splits_s", "s"),
    ("nn.conv2d_forward_s", "s"),
    ("nn.conv2d_backward_s", "s"),
    ("nn.batchnorm_forward_s", "s"),
    ("nn.batchnorm_backward_s", "s"),
    ("nn.maxpool_forward_s", "s"),
    ("nn.maxpool_backward_s", "s"),
    ("nn.relu_s", "s"),
    ("nn.dropout_s", "s"),
    ("nn.dense_s", "s"),
    ("nn.softmax_xent_s", "s"),
    ("nn.adam_step_s", "s"),
    ("nn.conv2d_calls", "count"),
    ("nn.conv2d_gemm_calls", "count"),
    ("nn.conv2d_gflop", "GFLOP"),
    ("nn.conv2d_s.k5", "s"),
    ("nn.conv2d_s.k10", "s"),
    ("nn.conv2d_s.k20", "s"),
    ("nn.conv2d_s.k40", "s"),
    ("nn.conv2d_s.k60", "s"),
    ("training.train_phase_s", "s"),
    ("training.eval_phase_s", "s"),
    ("training.eval_share", "ratio"),
    ("training.unattributed_s", "s"),
    ("training.epochs", "count"),
    ("training.batches", "count"),
    ("training.infer_samples_per_s", "1/s"),
    ("training.best_test_sca", "ratio"),
    ("experiments.synth_s", "s"),
    ("experiments.cells_completed", "count"),
    ("experiments.cells_skipped", "count"),
    ("experiments.cell_s_max", "s"),
    ("experiments.cell_s_sum", "s"),
    ("experiments.pool_utilisation", "ratio"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)

#: Set-ups before the task loop. In the loop, one more follows a task
#: repetition until set-ups have taken SETUP_SHARE of its time so far.
SETUP_REPEATS = 3
SETUP_SHARE = 0.15
#: A run times at least this many task repetitions, even past --seconds.
MIN_TASK_REPEATS = 3


class Checks:
    """Counts operations and output checks; error_rate = failed / attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)
        return bool(ok)

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Rep:
    """One timed repetition of a workload's task."""

    unit_s: float  # seconds per unit of the task (a ride, an epoch, a grid)
    samples: int  # samples through the task's throughput stage
    samples_s: float  # wall of that stage
    output: object  # what the workload's check() inspects


def peak_rss_mb():
    """Peak resident memory of this process or of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _timed(fn, *args):
    started = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - started


def _run_task(workload, task, inputs, checks):
    """One task repetition, counted as an operation, then its output checks."""
    checks.attempted += 1
    rep, wall = _timed(task, inputs)
    workload.check(inputs, rep.output, checks)
    return rep, wall


def measure(workload, seed, seconds, workdir, checks, import_probe):
    """End-to-end metrics, with no wrapper installed anywhere.

    One set-up sample is ``import_probe()`` (a fresh interpreter importing the
    library) plus one ``workload.setup``. SETUP_REPEATS samples come before
    the task loop and more are spread through it, so setup_s, their median,
    spans the whole run rather than its first second.
    """
    setup_walls, digests = [], []

    def set_up():
        import_s = import_probe()
        inputs, wall = _timed(workload.setup, seed, workdir)
        setup_walls.append(import_s + wall)
        digests.append(workload.digest(inputs))
        return inputs

    inputs = set_up()
    for _ in range(SETUP_REPEATS - 1):
        set_up()
    workload.warm_up(inputs, checks)

    reps, walls, loop_setup_s = [], [], 0.0
    started = time.perf_counter()
    while len(reps) < MIN_TASK_REPEATS or (
        time.perf_counter() - started + statistics.median(walls) <= seconds
    ):
        rep_started = time.perf_counter()
        rep, _ = _run_task(workload, workload.task, inputs, checks)
        rep.output = None  # keep only the timings, so outputs do not pile up
        if not reps:
            # later repetitions redo the same work; what they add is the
            # allocator's fragmentation from repeating it
            peak = peak_rss_mb()
        while loop_setup_s < SETUP_SHARE * (time.perf_counter() - started):
            _, wall = _timed(set_up)
            loop_setup_s += wall
        reps.append(rep)
        walls.append(time.perf_counter() - rep_started)
    checks.check("the same seed gives the same inputs", len(set(digests)) == 1)
    unit_s = [r.unit_s for r in reps]
    print(f"repetitions {len(reps)}: task_s fastest {min(unit_s)!r} median {statistics.median(unit_s)!r}")
    print(f"set-ups {len(setup_walls)}: setup_s median {statistics.median(setup_walls)!r} "
          f"fastest {min(setup_walls)!r}")
    # The fastest repetition, not the median: on a shared host, whole seconds
    # run up to ~2x slower while other tenants load the cores, so a slower
    # repetition measures them rather than the code.
    return {
        "setup_s": statistics.median(setup_walls),
        "task_s": min(unit_s),
        "samples_per_s": max(r.samples / r.samples_s for r in reps),
        "peak_rss_mb": peak,
    }


def measure_traced(workload, seed, workdir, checks, spans_path=None):
    """Per-layer metrics from one traced set-up plus task, and the overhead."""
    inputs = workload.setup(seed, workdir)
    workload.warm_up(inputs, checks)
    ref, untraced = _run_task(workload, workload.trace_task, inputs, checks)
    extras = workload.layer_extras(inputs, ref, checks)

    tracer = Tracer()
    with tracer:
        traced_inputs = workload.setup(seed, workdir)
        checks.attempted += 1
        rep, traced = _timed(workload.trace_task, traced_inputs)
    workload.check(traced_inputs, rep.output, checks)
    if spans_path is not None:
        tracer.write(spans_path)

    metrics = {name: 0.0 for name, _ in PER_LAYER}
    metrics.update(tracer.layer_metrics())
    metrics.update(extras)
    metrics["trace.untraced_s"] = untraced
    metrics["trace.traced_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    unknown = set(metrics) - {name for name, _ in PER_LAYER}
    if unknown:
        raise KeyError(f"metrics missing from PER_LAYER: {sorted(unknown)}")
    return metrics
