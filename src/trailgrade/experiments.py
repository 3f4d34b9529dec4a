"""The window-size x kernel-size experiment grid, synthetic sessions, reports.

The grid walks five window sizes against five kernel lengths; a cell whose
kernel is longer than the window's point count is skipped (three cells for the
standard lists). Synthetic sessions stand in for real recordings: per-class
sinusoid-plus-impulse signatures that are separable by construction, so the
grid and training machinery can be verified at desk scale.
"""

from dataclasses import dataclass, replace

import numpy as np

from .dataset import (
    WindowConfig,
    oversample_balance,
    shuffle,
    slice_windows,
    split_train_test,
)
from .errors import TooFewSamples
from .ingest import CHANNEL_ROLES, SESSION_POINTS_MAX, TARGET_RATE_HZ, SensorChannel, build_session
from .labeling import LabelTrack
from .nn.model import ModelConfig
from .training import TrainConfig, train

WINDOW_MS_GRID = (1000, 2000, 5000, 10000, 20000)
KERNEL_LEN_GRID = (5, 10, 20, 40, 60)

COMPLETED = "completed"
SKIPPED_KERNEL_TOO_LONG = "skipped_kernel_too_long"


# --- synthetic sessions -------------------------------------------------------

@dataclass(frozen=True)
class ClassSignature:
    """What one difficulty class "feels" like to the IMUs."""

    vibration_g: float
    frequency_hz: float
    gyro_swing_dps: float
    impulses_per_s: float


#: Deliberately separable classes: amplitude envelopes do not overlap, so an
#: amplitude-threshold baseline already classifies the corpus. The point is to
#: verify the pipeline, not to pose a hard task.
SIGNATURES = (
    ClassSignature(0.3, 2.0, 20.0, 0.2),  # easy: gentle low-frequency shaking
    ClassSignature(0.8, 5.0, 60.0, 1.0),  # medium
    ClassSignature(1.6, 9.0, 140.0, 3.0),  # hard: violent and impulse-heavy
)

#: Standard deviation of the Gaussian noise added to every synthetic axis.
NOISE_STD = 0.05

_HELMET_ATTENUATION = 0.6  # the rider's body damps what the helmet unit sees
_GRAVITY_G = 1.0
_IMPULSE_FACTOR = 3.0


@dataclass(frozen=True)
class SyntheticSpec:
    sessions_per_class: int
    session_seconds: int
    seed: int

    def __post_init__(self):
        if self.sessions_per_class < 1 or self.session_seconds < 1:
            raise ValueError("sessions_per_class and session_seconds must be positive")
        if self.session_seconds * TARGET_RATE_HZ > SESSION_POINTS_MAX:
            raise ValueError(
                f"session_seconds {self.session_seconds}: a session archive holds at most {SESSION_POINTS_MAX} points"
            )


def _impulse_train(rng, n, per_second, amplitude):
    out = np.zeros(n)
    count = rng.poisson(per_second * n / TARGET_RATE_HZ)
    if count:
        pos = rng.integers(0, n, size=count)
        signs = rng.choice((-1.0, 1.0), size=count)
        np.add.at(out, pos, signs * amplitude)
    return out


def _synthetic_channel(rng, role, n, sig):
    t = np.arange(n) / TARGET_RATE_HZ
    scale = _HELMET_ATTENUATION if role.startswith("helmet") else 1.0
    values = np.empty((n, 3))
    for axis in range(3):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        if role.endswith("accel"):
            amp = sig.vibration_g * scale
            signal = amp * np.sin(2.0 * np.pi * sig.frequency_hz * t + phase)
            signal += _impulse_train(rng, n, sig.impulses_per_s, _IMPULSE_FACTOR * amp)
            if axis == 2:
                signal += _GRAVITY_G
        else:
            # the body/bike yaws at roughly half the vibration frequency
            signal = sig.gyro_swing_dps * scale * np.sin(np.pi * sig.frequency_hz * t + phase)
        values[:, axis] = signal + rng.normal(0.0, NOISE_STD, n)
    return SensorChannel(0, values)


def generate_synthetic(spec: SyntheticSpec):
    """Labeled (SyncedSession, LabelTrack) pairs, deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    n = int(round(spec.session_seconds * TARGET_RATE_HZ))
    out = []
    for label, sig in enumerate(SIGNATURES):
        for s in range(spec.sessions_per_class):
            channels = [_synthetic_channel(rng, role, n, sig) for role in CHANNEL_ROLES]
            session = build_session(channels, name=f"synth-c{label}-s{s:02d}")
            track = LabelTrack(((0, spec.session_seconds * 1000, label),))
            out.append((session, track))
    return out


# --- the experiment grid ------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    train_config: TrainConfig
    seed: int
    window_ms_list: tuple = WINDOW_MS_GRID
    kernel_len_list: tuple = KERNEL_LEN_GRID

    def __post_init__(self):
        if not self.window_ms_list or not self.kernel_len_list:
            raise ValueError("window and kernel lists must be non-empty")
        if min(self.window_ms_list) < 1 or min(self.kernel_len_list) < 1:
            raise ValueError("window and kernel entries must be positive")


@dataclass(frozen=True)
class ExperimentResult:
    window_ms: int
    kernel_len: int
    status: str
    best_test_sca: float = None
    best_epoch: int = None
    sample_count: int = None
    oversampled_train_count: int = None


def cell_seed(seed: int, window_ms: int, kernel_len: int) -> int:
    """Stable per-cell seed; an explicit mix, not hash(), for reproducibility."""
    return (seed ^ (window_ms * 0x9E3779B1 + kernel_len * 0x85EBCA6B)) % 2**32


def prepare_splits(samples, seed: int):
    """split 80/20 -> oversample the train side -> shuffle, with staged seeds."""
    train, test = split_train_test(samples, seed=seed)
    return shuffle(oversample_balance(train, seed=seed + 1), seed=seed + 2), test


def _windows(data, spec: GridSpec):
    """{window_ms: every session's windows} for each size some kernel fits; a shorter session gives none."""
    windows = {}
    for window_ms in spec.window_ms_list:
        config = WindowConfig(window_ms)
        if min(spec.kernel_len_list) <= config.window_points:
            windows[window_ms] = samples = []
            for session, track in data:
                if session.length_points >= config.window_points:
                    samples.extend(slice_windows(session, track, config))
    return windows


def _run_cell(windows, spec, window_ms, kernel_len):
    points = WindowConfig(window_ms).window_points
    if kernel_len > points:
        return ExperimentResult(window_ms, kernel_len, SKIPPED_KERNEL_TOO_LONG)
    base = cell_seed(spec.seed, window_ms, kernel_len)
    train_set, test_set = prepare_splits(windows, base)
    model_config = ModelConfig(window_points=points, kernel_len=kernel_len)
    result = train(train_set, test_set, model_config, replace(spec.train_config, seed=base + 3))
    return ExperimentResult(
        window_ms,
        kernel_len,
        COMPLETED,
        best_test_sca=result.best_test_sca,
        best_epoch=result.best_epoch,
        sample_count=len(windows),
        oversampled_train_count=len(train_set),
    )


#: A pool worker's own cut of run_grid's windows, set once by _init_worker.
_worker_windows = None


def _init_worker(data, spec):
    global _worker_windows
    _worker_windows = _windows(data, spec)


def _run_pooled_cell(cell):
    return _run_cell(_worker_windows.get(cell[1]), *cell)


def run_grid(data, spec: GridSpec, jobs: int = 1):
    """Every (window, kernel) cell in row-major order.

    `data` is a sequence of (SyncedSession, LabelTrack) pairs; sessions too
    short for a cell's window simply contribute no samples to it. Each window
    size some kernel fits is cut once, and before any cell trains each cut is
    checked to hold the 2 windows a train/test split needs; that size's cells
    then train on it. Cells are independent (own derived seed each), so they
    may run in parallel on at most one worker per cell; each worker cuts `data` once.
    """
    data = list(data)
    windows = _windows(data, spec)
    for window_ms, samples in windows.items():
        if len(samples) < 2:
            raise TooFewSamples(
                f"{window_ms} ms windows: the sessions yield {len(samples)}, a train/test split needs at least 2"
            )
    cells = [
        (spec, window_ms, kernel_len)
        for window_ms in spec.window_ms_list
        for kernel_len in spec.kernel_len_list
    ]
    workers = min(jobs, len(cells))
    if workers > 1:
        # imported here: the pool's modules cost `import trailgrade` ~30 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(data, spec)) as pool:
            return list(pool.map(_run_pooled_cell, cells))
    return [_run_cell(windows.get(cell[1]), *cell) for cell in cells]


# --- reporting ----------------------------------------------------------------

def _cell_text(result: ExperimentResult) -> str:
    if result.status != COMPLETED:
        return "-"
    return f"{result.best_test_sca:.4f} ({result.best_epoch})"


def report_table(results) -> str:
    """Fixed-width grid of `sca (epochs)` cells plus per-window sample counts."""
    windows = sorted({r.window_ms for r in results})
    kernels = sorted({r.kernel_len for r in results})
    by_cell = {(r.window_ms, r.kernel_len): r for r in results}
    headers = ["window size"] + [f"({k},2)" for k in kernels] + ["samples", "oversampled"]
    rows = []
    for window_ms in windows:
        row = [f"{window_ms}ms"]
        row += [_cell_text(by_cell[(window_ms, k)]) for k in kernels]
        completed = [by_cell[(window_ms, k)] for k in kernels if by_cell[(window_ms, k)].status == COMPLETED]
        row.append(str(completed[0].sample_count) if completed else "-")
        row.append(str(completed[0].oversampled_train_count) if completed else "-")
        rows.append(row)
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows)) for i in range(len(headers))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


def report_csv(results) -> str:
    """One row per cell, in the given order, mirroring the rendered grid."""
    lines = ["window_ms,kernel_len,status,test_sca,best_epoch,samples,oversampled_train"]
    for r in results:
        if r.status == COMPLETED:
            lines.append(
                f"{r.window_ms},{r.kernel_len},{r.status},{r.best_test_sca:.4f},"
                f"{r.best_epoch},{r.sample_count},{r.oversampled_train_count}"
            )
        else:
            lines.append(f"{r.window_ms},{r.kernel_len},{r.status},,,,")
    return "\n".join(lines) + "\n"
