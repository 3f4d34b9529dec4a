"""The benchmark's workloads.

Each workload makes its inputs from a seed (``setup``), times its task
(``task``; ``trace_task`` is what the traced run times) and checks every
output against a reference it computes without the code under test
(``check``). Library calls go through module attributes (``ingest.load_session``)
so that the tracer's wrappers see them.
"""

import hashlib
import math
import os
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from harness import Rep
from trailgrade import dataset, experiments, ingest, labeling, training
from trailgrade.nn import checkpoint
from trailgrade.nn.model import ModelConfig


def _sha(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


# --- ingest-ride ----------------------------------------------------------------

RIDE_SECONDS = 900
SENSOR_PERIOD_MS = 10  # 100 Hz loggers
#: Manifest roles, in CHANNEL_ORDER.
ROLES = ("frame_accel", "frame_gyro", "helmet_accel", "helmet_gyro")
RIDE_WINDOWS_MS = (1000, 5000, 20000)
#: Values are whole multiples of 1e-9 written with nine decimals, so parsing
#: the CSV gives back exactly k / 1e9 and the reference needs no parser.
VALUE_SCALE = 10**9
CSV_CHUNK_ROWS = 10_000
_LATTICE_MS = 40  # 25 Hz


@dataclass
class RideInputs:
    workdir: object
    manifest: object
    track_csv: object
    overrides_csv: object
    csv_bytes: int
    rows: int
    stamps: list  # per role: int64 timestamps as written
    values: list  # per role: (n, 3) float64 values as written
    base_track: list
    overrides: list
    reference: tuple = None  # (start_ms, data, label raster), built on first check


class IngestRide:
    """Four 100 Hz sensor CSVs of a 15-minute ride, through to window archives."""

    name = "ingest-ride"

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        n = RIDE_SECONDS * 1000 // SENSOR_PERIOD_MS
        base = 1_500_000_000_000 + int(rng.integers(0, 10**11))
        stamps = [
            base + int(rng.integers(0, 500))
            + np.arange(n, dtype=np.int64) * SENSOR_PERIOD_MS
            + rng.integers(-2, 3, size=n)
            for _ in ROLES
        ]
        t0 = max(int(ts[0]) for ts in stamps)
        base_track, overrides = _ride_labels(rng)
        bounds = np.array([end for _, end, _ in base_track])
        classes = np.array([label for _, _, label in base_track])
        values, written = [], 0
        for role, ts in zip(ROLES, stamps):
            t_ms = ts - t0
            section = np.minimum(np.searchsorted(bounds, t_ms, side="right"), len(classes) - 1)
            raw = _ride_signal(rng, role, t_ms / 1000.0, classes[section])
            v = np.round(raw * VALUE_SCALE).astype(np.int64) / VALUE_SCALE
            values.append(v)
            path = workdir / f"{role}.csv"
            with open(path, "w") as out:  # in chunks, so set-up stays small in memory
                out.write(ingest.CSV_HEADER + "\n")
                for lo in range(0, n, CSV_CHUNK_ROWS):
                    rows = zip(ts[lo : lo + CSV_CHUNK_ROWS].tolist(), *v[lo : lo + CSV_CHUNK_ROWS].T.tolist())
                    out.write("".join(map("%d,%.9f,%.9f,%.9f\n".__mod__, rows)))
            written += path.stat().st_size
        manifest = workdir / "ride.toml"
        manifest.write_text(f"name = ride-{seed}\n" + "".join(f"{r} = {r}.csv\n" for r in ROLES))
        track_csv, overrides_csv = workdir / "ride.labels.csv", workdir / "ride.overrides.csv"
        track_csv.write_text(_interval_csv(base_track))
        overrides_csv.write_text(_interval_csv(overrides))
        return RideInputs(workdir, manifest, track_csv, overrides_csv, written, n * len(ROLES),
                          stamps, values, base_track, overrides)

    def digest(self, inputs):
        paths = (*(inputs.workdir / f"{r}.csv" for r in ROLES),
                 inputs.manifest, inputs.track_csv, inputs.overrides_csv)
        return _sha(*(p.read_bytes() for p in paths))

    def task(self, inputs):
        started = time.perf_counter()
        session = ingest.load_session(inputs.manifest)
        loaded = time.perf_counter()
        track = labeling.read_label_track_csv(inputs.track_csv.read_text())
        overrides = labeling.read_overrides_csv(inputs.overrides_csv.read_text())
        merged = labeling.apply_overrides(track, overrides)
        windows, archived = {}, {}
        for window_ms in RIDE_WINDOWS_MS:
            windows[window_ms] = dataset.slice_windows(session, merged, dataset.WindowConfig(window_ms))
            path = inputs.workdir / f"windows-{window_ms}.tgds"
            dataset.write_sample_archive(windows[window_ms], path)
            archived[window_ms] = dataset.read_sample_archive(path)
        done = time.perf_counter()
        return Rep(done - started, inputs.rows, loaded - started, (session, merged, windows, archived))

    trace_task = task

    def warm_up(self, inputs, checks):
        pass

    def layer_extras(self, inputs, ref, checks):
        return {"ingest.mb_per_s": inputs.csv_bytes / 1e6 / ref.samples_s}

    def info(self):
        return {}

    def check(self, inputs, output, checks):
        session, merged, windows, archived = output
        if inputs.reference is None:
            inputs.reference = _ride_reference(inputs)
        start_ms, data, raster = inputs.reference
        checks.check("session start matches the reference", session.start_time_ms == start_ms)
        checks.check("session length matches the reference", session.length_points == len(data))
        checks.check("session values equal the np.interp reference",
                     session.data.shape == data.shape and np.array_equal(session.data, data))
        checks.check("merged labels equal the reference raster",
                     np.array_equal(_raster(merged.segments, len(raster)), raster))
        for window_ms, got in windows.items():
            points = window_ms // _LATTICE_MS
            expected = _closed_form_counts(raster, start_ms, len(data), points, window_ms)
            counts = [sum(1 for w in got if w.label == c) for c in labeling.LABELS]
            checks.check(f"{window_ms} ms window counts equal the closed form", counts == expected)
            # window by window, so checking adds little to the run's peak memory
            starts = [(w.origin[1] - start_ms) // _LATTICE_MS for w in got]
            checks.check(
                f"{window_ms} ms windows equal reference slices",
                bool(got) and all(
                    raster[w.origin[1]] == w.label and np.array_equal(w.data, data[p : p + points])
                    for w, p in zip(got, starts)
                ),
            )
            back = archived[window_ms]
            checks.check(
                f"{window_ms} ms archive round trip",
                len(back) == len(got) and all(
                    b.label == w.label and b.origin == w.origin
                    and np.array_equal(b.data, w.data.astype(np.float32))
                    for b, w in zip(back, got)
                ),
            )


def _ride_labels(rng):
    """Trail sections of 40-120 s, some after an unlabeled transfer, plus overrides."""
    ride_ms = RIDE_SECONDS * 1000
    track, cursor = [], 0
    while cursor < ride_ms:
        if track and rng.random() < 0.25:
            cursor += int(rng.integers(5_000, 20_000))
        end = min(cursor + int(rng.integers(40_000, 120_000)), ride_ms)
        if end > cursor:
            track.append((cursor, end, int(rng.integers(0, 3))))
        cursor = end
    overrides = []
    for _ in range(4):
        start = int(rng.integers(0, ride_ms - 60_000))
        overrides.append((start, start + int(rng.integers(10_000, 60_000)), int(rng.integers(0, 3))))
    return track, overrides


#: Per class: accelerometer vibration (g), frequency (Hz), gyro swing (deg/s).
_RIDE_CLASSES = np.array([[0.3, 2.0, 20.0], [0.8, 5.0, 60.0], [1.6, 9.0, 140.0]])


def _ride_signal(rng, role, t_s, classes):
    amp, freq, swing = _RIDE_CLASSES[classes].T
    scale = 0.6 if role.startswith("helmet") else 1.0
    out = np.empty((t_s.size, 3))
    for axis in range(3):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        if role.endswith("accel"):
            signal = scale * amp * np.sin(2.0 * np.pi * freq * t_s + phase) + (axis == 2)
            noise = 0.05
        else:
            signal = scale * swing * np.sin(np.pi * freq * t_s + phase)
            noise = 0.5
        out[:, axis] = signal + rng.normal(0.0, noise, t_s.size)
    return out


def _interval_csv(intervals):
    return labeling.TRACK_CSV_HEADER + "\n" + "".join(f"{s},{e},{l}\n" for s, e, l in intervals)


def _raster(segments, length):
    """Label per millisecond, -1 where unlabeled; later segments overwrite."""
    out = np.full(length, -1, dtype=np.int8)
    for start, end, label in segments:
        out[start:end] = label
    return out


def _ride_reference(inputs):
    """Session start, (n, 4, 3) data and label raster, from the written values."""
    t0 = max(int(ts[0]) for ts in inputs.stamps)
    channels = []
    for ts, values in zip(inputs.stamps, inputs.values):
        keep = ts >= t0
        t = ts[keep] - t0
        k0 = -(-int(t[0]) // _LATTICE_MS)
        grid = np.arange(k0, int(t[-1]) // _LATTICE_MS + 1) * float(_LATTICE_MS)
        kept = values[keep]
        channels.append((k0, np.column_stack(
            [np.interp(grid, t.astype(np.float64), kept[:, a]) for a in range(3)]
        )))
    first = max(k0 for k0, _ in channels)
    trimmed = [c[first - k0:] for k0, c in channels]
    n = min(len(c) for c in trimmed)
    data = np.stack([c[:n] for c in trimmed], axis=1)
    end = max(e for _, e, _ in inputs.base_track + inputs.overrides)
    raster = _raster(inputs.base_track + inputs.overrides, max(end, first * _LATTICE_MS + n * _LATTICE_MS))
    return first * _LATTICE_MS, data, raster


def _closed_form_counts(raster, start_ms, length, points, window_ms):
    """Per-label count of window starts whose span lies in one labeled run.

    Starts are j * stride points after the session start; a run [a, b) admits
    the j with a <= start and start + window_ms <= b, counted arithmetically.
    """
    stride = max(1, points // 4)
    step = stride * _LATTICE_MS
    last = (length - points) // stride
    change = np.flatnonzero(np.diff(raster)) + 1
    edges = np.concatenate(([0], change, [len(raster)]))
    counts = [0] * len(labeling.LABELS)
    for a, b in zip(edges[:-1].tolist(), edges[1:].tolist()):
        label = int(raster[a])
        if label < 0:
            continue
        lo = max(0, -(-(a - start_ms) // step))
        hi = min(last, (b - window_ms - start_ms) // step)
        counts[label] += max(0, hi - lo + 1)
    return counts


# --- train-paper-cell -------------------------------------------------------------

#: Acceptance criterion 5's cell: 20 sessions/class x 20 s, 5000 ms windows,
#: kernel 20, batch 32. patience == max_epochs, so a train() call always runs
#: its full epoch count.
CELL_SESSIONS_PER_CLASS = 20
CELL_SESSION_SECONDS = 20
CELL_WINDOW_MS = 5000
CELL_KERNEL = 20
#: The untimed warm-up trains this long and must reach CELL_SCA_FLOOR; the
#: traced run times the same call.
CELL_EPOCHS = 8
CELL_SCA_FLOOR = 0.90
#: Timed repetitions are one-epoch train() calls, so a run holds many of them
#: and some fall between the slow spells of a shared host.
TIMED_EPOCHS = 1
#: evaluate() of 156 test samples takes ~50 ms; repeat it for a steady median.
INFER_REPEATS = 10


@dataclass
class CellInputs:
    seed: int
    workdir: object
    train_set: list
    test_set: list


class TrainPaperCell:
    """The paper's reference cell: train(), then evaluate() of the best weights."""

    name = "train-paper-cell"

    def __init__(self):
        self.digests = {}  # epochs -> (history sha, checkpoint sha) of the first run

    def setup(self, seed, workdir):
        spec = experiments.SyntheticSpec(CELL_SESSIONS_PER_CLASS, CELL_SESSION_SECONDS, seed)
        config = dataset.WindowConfig(CELL_WINDOW_MS)
        samples = []
        for session, track in experiments.generate_synthetic(spec):
            samples.extend(dataset.slice_windows(session, track, config))
        # the CLI's `window` then `train` round trip through a float32 archive
        path = workdir / "paper-cell.tgds"
        dataset.write_sample_archive(samples, path)
        train_set, test_set = experiments.prepare_splits(dataset.read_sample_archive(path), seed)
        return CellInputs(seed, workdir, train_set, test_set)

    def digest(self, inputs):
        return _sha(*(s.data.tobytes() + bytes([s.label]) for s in inputs.train_set + inputs.test_set))

    def warm_up(self, inputs, checks):
        checks.attempted += 1
        self.check(inputs, self.trace_task(inputs).output, checks)

    def task(self, inputs):
        return self._train(inputs, TIMED_EPOCHS)

    def trace_task(self, inputs):
        return self._train(inputs, CELL_EPOCHS)

    def _train(self, inputs, epochs):
        model_config = ModelConfig(window_points=inputs.train_set[0].data.shape[0], kernel_len=CELL_KERNEL)
        train_config = training.TrainConfig(seed=inputs.seed + 3, max_epochs=epochs, patience=epochs)
        started = time.perf_counter()
        result = training.train(inputs.train_set, inputs.test_set, model_config, train_config)
        wall = time.perf_counter() - started
        infer = []
        for _ in range(INFER_REPEATS):
            started = time.perf_counter()
            accuracy, _ = training.evaluate(result.best_params, inputs.test_set)
            infer.append(time.perf_counter() - started)
        output = (epochs, result, accuracy, len(inputs.test_set) / statistics.median(infer))
        return Rep(wall / epochs, epochs * len(inputs.train_set), wall, output)

    def layer_extras(self, inputs, ref, checks):
        _, result, _, infer_per_s = ref.output
        return {"training.infer_samples_per_s": infer_per_s, "training.best_test_sca": result.best_test_sca}

    def check(self, inputs, output, checks):
        epochs, result, accuracy, _ = output
        history = result.history
        checks.check("every epoch ran", len(history) == epochs)
        checks.check("the loss is finite", all(math.isfinite(r.train_loss) for r in history))
        if epochs >= CELL_EPOCHS:
            checks.check(f"best_test_sca >= {CELL_SCA_FLOOR}", result.best_test_sca >= CELL_SCA_FLOOR)
        checks.check("evaluate reproduces best_test_sca", accuracy == result.best_test_sca)
        path = inputs.workdir / "paper-cell.ckpt"
        checkpoint.save_checkpoint(result.best_params, path)
        loaded, _ = checkpoint.load_checkpoint(path)
        reloaded, _ = training.evaluate(loaded, inputs.test_set)
        checks.check("checkpoint round trip reproduces best_test_sca", reloaded == result.best_test_sca)
        digest = (_sha(training.history_to_csv(history).encode()), _sha(path.read_bytes()))
        first = self.digests.setdefault(epochs, digest)
        checks.check("history and checkpoint bytes repeat", digest == first)

    def info(self):
        history, ckpt = self.digests.get(CELL_EPOCHS, ("-", "-"))
        return {"history_sha256": history, "checkpoint_sha256": ckpt}


# --- grid-sweep -------------------------------------------------------------------

#: Sessions just long enough for several 20000 ms windows; one epoch per cell
#: (patience == max_epochs), so the grid's wall is set by its 22 conv shapes.
GRID_SESSIONS_PER_CLASS = 4
GRID_SESSION_SECONDS = 30
GRID_EPOCHS = 1
EXPECTED_SKIPPED = {(1000, 40), (1000, 60), (2000, 60)}


@dataclass
class GridInputs:
    data: list
    spec: object


class GridSweep:
    """The full 5x5 window x kernel grid through run_grid's process pool."""

    name = "grid-sweep"

    def __init__(self, jobs):
        self.jobs = jobs
        self.first_digest = None

    def setup(self, seed, workdir):
        spec = experiments.SyntheticSpec(GRID_SESSIONS_PER_CLASS, GRID_SESSION_SECONDS, seed)
        grid = experiments.GridSpec(
            training.TrainConfig(seed, max_epochs=GRID_EPOCHS, patience=GRID_EPOCHS), seed
        )
        return GridInputs(experiments.generate_synthetic(spec), grid)

    def digest(self, inputs):
        return _sha(*(s.data.tobytes() + repr(t.segments).encode() for s, t in inputs.data))

    def warm_up(self, inputs, checks):
        pass

    def task(self, inputs):
        started = time.perf_counter()
        results = experiments.run_grid(inputs.data, inputs.spec, jobs=self.jobs)
        wall = time.perf_counter() - started
        return Rep(wall, _trained_samples(results), wall, (results, None))

    def trace_task(self, inputs):
        """Each cell alone and serially; cell_seed makes it the grid's cell."""
        results, walls = [], []
        for window_ms in inputs.spec.window_ms_list:
            for kernel_len in inputs.spec.kernel_len_list:
                cell = replace(inputs.spec, window_ms_list=(window_ms,), kernel_len_list=(kernel_len,))
                started = time.perf_counter()
                results.extend(experiments.run_grid(inputs.data, cell, jobs=1))
                walls.append(time.perf_counter() - started)
        total = sum(walls)
        return Rep(total, _trained_samples(results), total, (results, walls))

    def layer_extras(self, inputs, ref, checks):
        results, walls = ref.output
        checks.attempted += 1
        pooled = self.task(inputs)
        self.check(inputs, pooled.output, checks)
        completed = sum(r.status == experiments.COMPLETED for r in results)
        return {
            "experiments.cells_completed": completed,
            "experiments.cells_skipped": len(results) - completed,
            "experiments.cell_s_max": max(walls),
            "experiments.cell_s_sum": sum(walls),
            "experiments.pool_utilisation": sum(walls) / (self.jobs * pooled.unit_s),
        }

    def check(self, inputs, output, checks):
        results, _ = output
        skipped = {(r.window_ms, r.kernel_len) for r in results if r.status != experiments.COMPLETED}
        completed = [r for r in results if r.status == experiments.COMPLETED]
        checks.check("exactly the three too-long-kernel cells are skipped", skipped == EXPECTED_SKIPPED)
        checks.check("the 22 other cells complete", len(completed) == 22 and len(results) == 25)
        checks.check("completed cells have finite scores",
                     all(math.isfinite(r.best_test_sca) and 0.0 <= r.best_test_sca <= 1.0 for r in completed))
        digest = _sha(repr([
            (r.window_ms, r.kernel_len, r.status, r.best_test_sca, r.best_epoch,
             r.sample_count, r.oversampled_train_count) for r in results
        ]).encode())
        self.first_digest = self.first_digest or digest
        checks.check("grid results repeat", digest == self.first_digest)

    def info(self):
        return {"results_sha256": self.first_digest or "-", "jobs": self.jobs}


def _trained_samples(results):
    return GRID_EPOCHS * sum(r.oversampled_train_count or 0 for r in results)


def build(name):
    jobs = min(2, len(os.sched_getaffinity(0)))
    return {
        IngestRide.name: IngestRide,
        TrainPaperCell.name: TrainPaperCell,
        GridSweep.name: lambda: GridSweep(jobs),
    }[name]()
