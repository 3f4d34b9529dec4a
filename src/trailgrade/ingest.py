"""Raw sensor log parsing, start-time synchronization, and 25 Hz resampling.

Two IMU units (one on the frame's downtube, one on the helmet) each provide an
accelerometer (unit g) and a gyroscope (unit deg/s). Logs arrive as per-sensor
CSV files with integer millisecond timestamps. Recordings are aligned to a
common start and linearly interpolated onto a constant-rate grid so the four
channels can be stacked into one session.
"""

import io
import math
import re
import struct
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    CorruptArchive,
    EmptyAfterSync,
    EmptyLog,
    MalformedLine,
    MalformedManifest,
    MismatchedStart,
    NonMonotonicTimestamp,
    TooFewSamples,
    TrailgradeError,
    WrongChannelSet,
)
from .framing import CHUNK_BYTES, Reader

#: Every session, window and archive lives on this one lattice.
TARGET_RATE_HZ = 25.0
PERIOD_MS = 1000.0 / TARGET_RATE_HZ

CSV_HEADER = "timestamp_ms,x,y,z"


class SensorKind(Enum):
    ACCELEROMETER = "accelerometer"
    GYROSCOPE = "gyroscope"


class Mount(Enum):
    FRAME = "frame"
    HELMET = "helmet"


#: Fixed row order of a stacked session: frame unit first, helmet second,
#: accelerometer before gyroscope within a unit.
CHANNEL_ORDER = (
    (Mount.FRAME, SensorKind.ACCELEROMETER),
    (Mount.FRAME, SensorKind.GYROSCOPE),
    (Mount.HELMET, SensorKind.ACCELEROMETER),
    (Mount.HELMET, SensorKind.GYROSCOPE),
)


@dataclass
class RawSensorLog:
    """One sensor's recording: strictly increasing ms timestamps plus xyz triples."""

    sensor_kind: SensorKind
    mount: Mount
    timestamps: np.ndarray  # (n,) int64
    values: np.ndarray  # (n, 3) float64
    nominal_rate_hz: float

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64).reshape(-1, 3)
        if self.timestamps.size == 0:
            raise EmptyLog("sensor log has no samples")
        if self.timestamps.size != self.values.shape[0]:
            raise ValueError("timestamps and values disagree in length")
        # compare neighbours, not np.diff: an int64 difference can wrap around
        if np.any(self.timestamps[1:] <= self.timestamps[:-1]):
            raise NonMonotonicTimestamp("timestamps must be strictly increasing")


@dataclass
class SensorChannel:
    """A resampled channel: sample i sits at start_time_ms + i * PERIOD_MS."""

    sensor_kind: SensorKind
    mount: Mount
    start_time_ms: int
    values: np.ndarray  # (length, 3) float64

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).reshape(-1, 3)
        if self.values.shape[0] == 0:
            raise EmptyLog("channel has no values")

    @property
    def length(self) -> int:
        return self.values.shape[0]


@dataclass
class SyncedSession:
    """One recording on the lattice: sample i sits at start_time_ms + i * PERIOD_MS.

    ``data`` stacks the four channels as (length_points, 4, 3) with rows in
    CHANNEL_ORDER. It is read-only: every window sample is a view of it.
    """

    name: str
    start_time_ms: int
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.data.flags.writeable = False

    def __setstate__(self, state):
        # unpickling (as into a grid worker) skips __post_init__ and makes
        # arrays writable again
        self.__dict__.update(state)
        self.data.flags.writeable = False

    @property
    def length_points(self) -> int:
        return len(self.data)

    @property
    def channels(self) -> tuple:
        """Read-only SensorChannel views ``data[:, i]``, one per CHANNEL_ORDER row.

        Kept only for ``bench/tracing.py::_session_attrs``; delete once it reads ``data``.
        """
        return tuple(
            SensorChannel(kind, mount, self.start_time_ms, self.data[:, i])
            for i, (mount, kind) in enumerate(CHANNEL_ORDER)
        )


def _infer_rate_hz(timestamps: np.ndarray) -> float:
    if timestamps.size < 2:
        return float("nan")
    # Modulo 2**64, the uint64 difference of increasing int64 stamps is exact,
    # where the int64 difference wraps once a gap exceeds int64.
    gap = float(np.median(np.diff(timestamps.view(np.uint64))))
    if gap == 0:  # repeated stamp; the log constructor rejects it
        return float("nan")
    return 1000.0 / gap


#: One CSV data row as numpy parses it: an int64 timestamp and three float64s.
_CSV_ROW = np.dtype([("t", "<i8"), ("v", "<f8", 3)])

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

#: Whitespace to ``str.strip`` and numpy, but not around an ``int`` or ``float``.
_SEPARATOR_CONTROLS = "\x1c\x1d\x1e\x1f"

_NON_SPACE = re.compile(r"\S")


def parse_sensor_csv(text, sensor_kind: SensorKind, mount: Mount) -> RawSensorLog:
    """Parse ``timestamp_ms,x,y,z`` CSV text (LF or CRLF) into a RawSensorLog.

    The nominal rate is inferred from the median timestamp gap. Blank lines are
    skipped; anything else that does not parse, a timestamp outside int64 or a
    non-finite value raises MalformedLine with its 1-based line number, and a
    timestamp not after the one before it raises NonMonotonicTimestamp naming
    its line.

    The rows are parsed in one numpy pass. numpy accepts a subset of what the
    line loop accepts, with the same values, so the line loop only runs on text
    that pass rejects: it decides whether the text is valid after all (for
    example, it has whitespace-only lines) and names the first bad line.
    """
    header_end = text.find("\n")
    if header_end < 0:
        header_end = len(text)
    if text[:header_end].strip() != CSV_HEADER:
        raise MalformedLine(1, f"expected header {CSV_HEADER!r}")
    body_start = header_end + 1
    parsed = _parse_rows_vectorised(text, body_start)
    timestamps, values = parsed if parsed is not None else _parse_rows_by_line(text[body_start:])
    try:
        return RawSensorLog(sensor_kind, mount, timestamps, values, _infer_rate_hz(timestamps))
    except NonMonotonicTimestamp as exc:
        # name the line of the first timestamp not after the one before it
        row_lines = [n for n, raw in enumerate(text.split("\n"), start=1) if n > 1 and raw.strip()]
        stall = int(np.argmin(timestamps[1:] > timestamps[:-1])) + 1
        raise NonMonotonicTimestamp(f"line {row_lines[stall]}: {exc}") from None


def _parse_rows_vectorised(text: str, body_start: int):
    """(timestamps, values) of the rows after the header line, or None if numpy rejects the text.

    numpy reads the text's ASCII bytes, so the parse holds one byte per
    character, not the four of a ``str`` buffer, and skips the header itself.
    Only ASCII text without the separator controls U+001C..U+001F is tried:
    numpy strips those controls around a field where ``int`` and ``float`` do
    not, and numpy 2.4.6 at times segfaults rejecting a field that holds a
    character outside the Basic Multilingual Plane.
    ``comments=None`` matters too: numpy's default would cut ``5,1,2,3 # c`` to
    a valid row, which the line loop rejects.
    """
    if (
        _NON_SPACE.search(text, body_start) is None  # numpy warns on input without rows
        or not text.isascii()
        or any(c in text for c in _SEPARATOR_CONTROLS)
    ):
        return None
    try:
        rows = np.loadtxt(
            io.BytesIO(text.encode("ascii")),
            dtype=_CSV_ROW,
            delimiter=",",
            comments=None,
            skiprows=1,
            ndmin=1,
        )
    except ValueError:
        return None
    values = np.ascontiguousarray(rows["v"])
    if not np.isfinite(values).all():
        return None
    return rows["t"].copy(), values


def _parse_rows_by_line(body: str):
    """Parse the data rows one line at a time; raise on the first bad line."""
    ts, vals = [], []
    for line_no, raw in enumerate(body.split("\n"), start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise MalformedLine(line_no, f"expected 4 fields, got {len(parts)}")
        try:
            t = int(parts[0])
            xyz = [float(p) for p in parts[1:]]
        except ValueError:
            raise MalformedLine(line_no, f"unparseable record {line!r}") from None
        if not _INT64_MIN <= t <= _INT64_MAX:
            raise MalformedLine(line_no, f"timestamp {t} outside int64")
        if not all(map(math.isfinite, xyz)):
            raise MalformedLine(line_no, "non-finite sensor value")
        ts.append(t)
        vals.append(xyz)
    if not ts:
        raise EmptyLog("no data rows")
    return np.array(ts, dtype=np.int64), np.array(vals)


def write_sensor_csv(log: RawSensorLog) -> str:
    """Render a log back to CSV text (LF endings). Round-trips exactly."""
    rows = [CSV_HEADER]
    for t, (x, y, z) in zip(log.timestamps.tolist(), log.values.tolist()):
        rows.append(f"{t},{x!r},{y!r},{z!r}")
    return "\n".join(rows) + "\n"


def synchronize(logs):
    """Align recordings on the latest first timestamp.

    Samples before t0 = max(first timestamps) are dropped and the survivors are
    rebased so time 0 means t0; a sample exactly at t0 is kept. Returns new logs
    in the input order, whose values are views of the input logs' values.
    """
    if not logs:
        raise EmptyLog("nothing to synchronize")
    t0 = max(int(log.timestamps[0]) for log in logs)
    out = []
    for log in logs:
        # timestamps strictly increase, so the kept samples are a suffix
        first = int(np.searchsorted(log.timestamps, t0))
        if first == log.timestamps.size:
            raise EmptyAfterSync(
                f"{log.mount.value} {log.sensor_kind.value}: no samples at or after {t0} ms"
            )
        out.append(
            RawSensorLog(
                log.sensor_kind,
                log.mount,
                log.timestamps[first:] - t0,
                log.values[first:],
                log.nominal_rate_hz,
            )
        )
    return out


def resample_linear(log: RawSensorLog) -> SensorChannel:
    """Interpolate a log onto the regular lattice k * PERIOD_MS.

    Each axis is interpolated independently between its bracketing samples.
    Lattice points outside [first, last] timestamp are not produced: no data is
    invented on either side.
    """
    if log.timestamps.size < 2:
        raise TooFewSamples("need at least 2 samples to interpolate")
    t = log.timestamps.astype(np.float64)
    k0 = int(np.ceil(t[0] / PERIOD_MS - 1e-9))
    k1 = int(np.floor(t[-1] / PERIOD_MS + 1e-9))
    if k1 < k0:
        raise TooFewSamples("no lattice point falls inside the log's time span")
    grid = np.arange(k0, k1 + 1, dtype=np.float64) * PERIOD_MS
    out = np.empty((grid.size, 3))
    for axis in range(3):
        out[:, axis] = np.interp(grid, t, log.values[:, axis])
    return SensorChannel(log.sensor_kind, log.mount, int(round(k0 * PERIOD_MS)), out)


def build_session(channels, name: str = "") -> SyncedSession:
    """Stack four channels into a session: fixed row order, common start, common length.

    After synchronization each unit's first lattice point lies within one
    period of the common t0, so channel starts differ by whole periods: each
    channel drops its points before the latest start, and all are cut to the
    shortest end.
    """
    combos = [(ch.mount, ch.sensor_kind) for ch in channels]
    if sorted(combos, key=str) != sorted(CHANNEL_ORDER, key=str):
        raise WrongChannelSet(
            "need exactly one channel per (mount, sensor) combination"
        )
    ordered = [
        next(ch for ch in channels if (ch.mount, ch.sensor_kind) == key)
        for key in CHANNEL_ORDER
    ]
    latest = max(ch.start_time_ms for ch in ordered)
    shifts = []
    for ch in ordered:
        shift_exact = (latest - ch.start_time_ms) / PERIOD_MS
        shift = int(round(shift_exact))
        if abs(shift_exact - shift) > 1e-6:
            raise MismatchedStart(
                f"start {ch.start_time_ms} ms is not a whole number of periods before {latest} ms"
            )
        if shift >= ch.length:
            raise EmptyAfterSync(
                f"{ch.mount.value} {ch.sensor_kind.value}: no samples at or after {latest} ms"
            )
        shifts.append(shift)
    length = min(ch.length - shift for ch, shift in zip(ordered, shifts))
    data = np.stack([ch.values[shift : shift + length] for ch, shift in zip(ordered, shifts)], axis=1)
    return SyncedSession(name, latest, data)


# --- session archive (binary interchange between `ingest` and `window`) -----

_SESSION_MAGIC = b"TGSS"
_SESSION_VERSION = 1


def write_session_archive(session: SyncedSession, path):
    """The session as a TGSS file; the payload is written straight from its array."""
    name = session.name.encode("utf-8")
    with open(path, "wb", buffering=CHUNK_BYTES) as out:
        out.write(_SESSION_MAGIC + struct.pack("<BH", _SESSION_VERSION, len(name)) + name)
        out.write(struct.pack("<qdI", session.start_time_ms, TARGET_RATE_HZ, session.length_points))
        out.write(np.ascontiguousarray(session.data, dtype="<f8"))


def read_session_archive(path) -> SyncedSession:
    """A TGSS file's session; the payload is read into one (n, 4, 3) array."""
    with Reader(path, CorruptArchive, "session archive") as reader:
        if reader.take(4) != _SESSION_MAGIC:
            raise reader.error("not a session archive")
        if reader.take(1)[0] != _SESSION_VERSION:
            raise reader.error("unsupported session archive version")
        (name_len,) = reader.unpack("<H")
        name = reader.utf8(name_len, "session name")
        start, rate, length = reader.unpack("<qdI")
        if rate != TARGET_RATE_HZ:
            raise reader.error(f"sample rate {rate} Hz is not {TARGET_RATE_HZ:g} Hz")
        if not length:
            raise reader.error("session has no points")
        reader.require(length * 4 * 3 * 8)  # before allocating
        values = np.empty((length, 4, 3), dtype="<f8")
        reader.readinto(values)
        reader.finish()
        reader.require_finite(values, "non-finite sample values")
    return SyncedSession(name, start, values)


# --- session manifest --------------------------------------------------------

#: One manifest key per channel, in CHANNEL_ORDER.
_MANIFEST_ROLES = ("frame_accel", "frame_gyro", "helmet_accel", "helmet_gyro")


def parse_session_manifest(text) -> dict:
    """Parse key=value manifest text: a session name plus four CSV paths."""
    entries = {}
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise MalformedManifest(f"line {line_no}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in entries:
            raise MalformedManifest(f"line {line_no}: duplicate key {key!r}")
        entries[key] = value.strip().strip('"')
    missing = [k for k in ("name", *_MANIFEST_ROLES) if k not in entries]
    if missing:
        raise MalformedManifest(f"missing keys: {', '.join(missing)}")
    return entries


def read_utf8(path, malformed) -> str:
    """Read a file as UTF-8 with universal newlines, as ``Path.read_text`` does.

    A byte that is not UTF-8 raises ``malformed(line_no, reason)`` for the
    1-based line that holds it.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise malformed(line_no, f"byte {data[exc.start]:#04x} is not UTF-8") from None
    del data  # normalise without the raw bytes alive: a CRLF file is held at most twice
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse_file(path, parse, malformed):
    """``parse(text)`` of the text file at ``path``, read by ``read_utf8``.

    Every TrailgradeError from reading or parsing keeps its type and fields
    and names the file at the front: ``<path>: line N: reason``.
    """
    try:
        return parse(read_utf8(path, malformed))
    except TrailgradeError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def load_session(manifest_path) -> SyncedSession:
    """Manifest -> four parsed CSVs -> synchronize -> resample -> session."""
    manifest_path = Path(manifest_path)
    entries = parse_file(
        manifest_path, parse_session_manifest, lambda n, why: MalformedManifest(f"line {n}: {why}")
    )
    logs = []
    for role, (mount, kind) in zip(_MANIFEST_ROLES, CHANNEL_ORDER):
        csv_path = manifest_path.parent / entries[role]
        logs.append(parse_file(csv_path, lambda text: parse_sensor_csv(text, kind, mount), MalformedLine))
    channels = [resample_linear(log) for log in synchronize(logs)]
    return build_session(channels, name=entries["name"])
