"""Windowed sample construction: slicing, stacking, splitting, balancing.

A session is cut by a sliding window with 75% overlap into (n, 4, 3) tensors,
n time steps by 4 sensor rows by 3 axis channels, each carrying one difficulty
label. Only windows whose whole time span sits under a single label are kept.
"""

import math
import struct
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    CorruptArchive,
    EmptyClass,
    SessionTooShort,
    TooFewSamples,
)
from .framing import CHUNK_BYTES, Reader
from .ingest import PERIOD_MS, TARGET_RATE_HZ, SyncedSession
from .labeling import LABELS, LabelTrack, uniform_label

#: Share of the samples that a split gives to the training side.
TRAIN_FRACTION = 0.8


@dataclass(frozen=True)
class WindowConfig:
    """Sliding-window geometry.

    The five studied sizes 1000/2000/5000/10000/20000 ms hold 25/50/125/250/500
    points at 25 Hz; 75% overlap gives a stride of max(1, floor(points / 4)).
    """

    window_ms: int
    overlap_fraction: float = 0.75

    def __post_init__(self):
        if not 0.0 <= self.overlap_fraction < 1.0:
            raise ValueError("overlap_fraction must be in [0, 1)")
        points = self.window_ms / PERIOD_MS
        if points < 1.0 or abs(points - round(points)) > 1e-9:
            raise ValueError(
                f"window_ms={self.window_ms} is not a whole number of samples at {TARGET_RATE_HZ:g} Hz"
            )

    @property
    def window_points(self) -> int:
        return int(round(self.window_ms / PERIOD_MS))

    @property
    def stride(self) -> int:
        # floor keeps strides integral (w=25 -> 6); epsilon guards fractions
        # that are not exactly representable (0.75 is)
        return max(1, math.floor(self.window_points * (1.0 - self.overlap_fraction) + 1e-9))


@dataclass(frozen=True, eq=False)
class WindowSample:
    # (window_points, 4, 3): a read-only float64 view of its session's data,
    # or, read from a sample archive, a float32 view of the payload array
    data: np.ndarray
    label: int
    origin: tuple  # (session name, window start time in ms)


@dataclass
class DatasetSplit:
    train: list
    test: list


def slice_windows(session: SyncedSession, track: LabelTrack, config: WindowConfig):
    """Sliding-window samples whose whole span carries one single label.

    Windows start at point indices 0, s, 2s, ... with s = the config stride;
    a window is dropped when its [start_ms, start_ms + window_ms) span crosses
    a label change or unlabeled time. A window's data is
    ``session.data[p : p + window_points]``, a read-only view, not a copy.
    """
    w = config.window_points
    if session.length_points < w:
        raise SessionTooShort(
            f"session {session.name!r} has {session.length_points} points, window needs {w}"
        )
    out = []
    for p in range(0, session.length_points - w + 1, config.stride):
        start_ms = session.start_time_ms + int(round(p * PERIOD_MS))
        label = uniform_label(track, start_ms, start_ms + config.window_ms)
        if label is not None:
            out.append(WindowSample(session.data[p : p + w], label, (session.name, start_ms)))
    return out


def split_train_test(samples, seed: int, by_session: bool = False) -> DatasetSplit:
    """Seeded uniform split; the first round(TRAIN_FRACTION * N) go to train.

    Both sides are kept non-empty. With by_session=True whole recordings are
    assigned to one side (leakage-aware mode, off by default).
    """
    n = len(samples)
    if n < 2:
        raise TooFewSamples("need at least 2 samples to split")
    n_train = min(max(int(round(TRAIN_FRACTION * n)), 1), n - 1)
    rng = np.random.default_rng(seed)
    if not by_session:
        perm = rng.permutation(n)
        train = [samples[i] for i in perm[:n_train]]
        test = [samples[i] for i in perm[n_train:]]
        return DatasetSplit(train, test)

    per_session = Counter(s.origin[0] for s in samples)
    names = sorted(per_session)
    if len(names) < 2:
        raise TooFewSamples("per-recording split needs at least 2 sessions")
    order = rng.permutation(len(names))
    train_names = set()
    count = 0
    for idx in order[:-1]:  # always leave at least one session for test
        if count >= n_train:
            break
        train_names.add(names[idx])
        count += per_session[names[idx]]
    train = [s for s in samples if s.origin[0] in train_names]
    test = [s for s in samples if s.origin[0] not in train_names]
    return DatasetSplit(train, test)


def class_histogram(samples) -> dict:
    """Per-label sample counts; always reports the three known labels."""
    counts = {label: 0 for label in LABELS}
    for s in samples:
        counts[s.label] = counts.get(s.label, 0) + 1
    return counts


def oversample_balance(train, seed: int):
    """Duplicate minority-class samples until every class matches the largest.

    Each short class is cycled whole (in origin order) as often as it fits and
    the remainder is a seeded draw without replacement. The output is the input
    followed by the duplicates, so no original value is altered or dropped.
    """
    counts = class_histogram(train)
    classes = [c for c in sorted(counts) if counts[c] > 0]
    if not classes:
        raise EmptyClass("no labeled samples to balance")
    target = max(counts[c] for c in classes)
    rng = np.random.default_rng(seed)
    duplicates = []
    for c in classes:
        members = sorted((s for s in train if s.label == c), key=lambda s: s.origin)
        k = len(members)
        need = target - k
        if need <= 0:
            continue
        duplicates.extend(members * (need // k))
        remainder = need % k
        if remainder:
            picks = rng.choice(k, size=remainder, replace=False)
            duplicates.extend(members[i] for i in picks)
    return list(train) + duplicates


def shuffle(samples, seed: int):
    """Seeded uniform permutation of the sample sequence."""
    rng = np.random.default_rng(seed)
    return [samples[i] for i in rng.permutation(len(samples))]


# --- sample archive -----------------------------------------------------------

_ARCHIVE_MAGIC = b"TGDS"
_ARCHIVE_VERSION = 1


def write_sample_archive(samples, path):
    """Binary sample container; float32 payload, bit-exact on re-save.

    Records stream to the file through a CHUNK_BYTES buffer.
    """
    window_points = {s.data.shape[0] for s in samples}
    if len(window_points) > 1:
        raise ValueError(f"mixed window sizes in one archive: {sorted(window_points)}")
    w = window_points.pop() if window_points else 0
    with open(path, "wb", buffering=CHUNK_BYTES) as out:
        out.write(_ARCHIVE_MAGIC + struct.pack("<BII", _ARCHIVE_VERSION, len(samples), w))
        for s in samples:
            name, start_ms = s.origin
            name_bytes = name.encode("utf-8")
            record = struct.pack("<BH", s.label, len(name_bytes)) + name_bytes
            out.write(record + struct.pack("<q", int(start_ms)))
            out.write(s.data.astype("<f4", order="C"))


def read_sample_archive(path):
    """The samples of a sample archive; each payload is read into its row of one array."""
    with Reader(path, CorruptArchive, "sample archive") as reader:
        if reader.take(4) != _ARCHIVE_MAGIC:
            raise reader.error("not a sample archive")
        if reader.take(1)[0] != _ARCHIVE_VERSION:
            raise reader.error("unsupported sample archive version")
        count, w = reader.unpack("<II")
        if count and not w:
            raise reader.error(f"{count} samples of 0 points")
        # a record holds at least 11 header bytes and its payload; check before allocating
        reader.require(count * (11 + w * 48))
        tensors = np.empty((count, w, 4, 3), dtype="<f4")
        records = []
        for i in range(count):
            label, name_len = reader.unpack("<BH")
            if label not in LABELS:
                raise reader.error(f"label {label} is not one of {LABELS}")
            name = reader.utf8(name_len, "sample name")
            (start_ms,) = reader.unpack("<q")
            records.append((int(label), (name, start_ms)))
            reader.readinto(tensors[i])
        reader.finish()
        reader.require_finite(tensors, "non-finite sample values")
    return [WindowSample(t, label, origin) for t, (label, origin) in zip(tensors, records)]
