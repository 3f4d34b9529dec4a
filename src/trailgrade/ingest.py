"""Raw sensor log parsing, start-time synchronization, and 25 Hz resampling.

Two IMU units (one on the frame's downtube, one on the helmet) each provide an
accelerometer (unit g) and a gyroscope (unit deg/s). Logs arrive as per-sensor
CSV files with integer millisecond timestamps. Recordings are aligned to a
common start and linearly interpolated onto a constant-rate grid so the four
channels can be stacked into one session.
"""

import io
import itertools
import os
import re
import struct
from dataclasses import dataclass, field
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
    NumericFailure,
    SessionTooLong,
    TooFewSamples,
    TrailgradeError,
    WrongChannelSet,
)
from .framing import CHUNK_BYTES, Reader, naming

#: Every session, window and archive lives on this one lattice of whole milliseconds.
PERIOD_MS = 40
TARGET_RATE_HZ = 1000 / PERIOD_MS

CSV_HEADER = "timestamp_ms,x,y,z"


#: The four channels of a session, each named by its manifest key. A channel's
#: place here is its row in a session's data: frame unit first, helmet second,
#: accelerometer before gyroscope within a unit.
CHANNEL_ROLES = ("frame_accel", "frame_gyro", "helmet_accel", "helmet_gyro")


@dataclass
class RawSensorLog:
    """One sensor's recording: strictly increasing ms timestamps plus xyz triples."""

    timestamps: np.ndarray  # (n,) int64
    values: np.ndarray  # (n, 3) float64

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
    CHANNEL_ROLES order. It is read-only: every window sample is a view of it.
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
        """Read-only SensorChannel views ``data[:, i]``, one per CHANNEL_ROLES row.

        Kept only for ``bench/tracing.py::_session_attrs``; delete once it reads ``data``.
        """
        return tuple(SensorChannel(self.start_time_ms, self.data[:, i]) for i in range(len(CHANNEL_ROLES)))


#: One sensor CSV row: an int64 timestamp and three float64s.
_CSV_ROW = np.dtype([("t", "<i8"), ("v", "<f8", 3)])

_INT64_MAX = 2**63 - 1


def parse_sensor_csv(path) -> RawSensorLog:
    """Parse the ``timestamp_ms,x,y,z`` CSV file at ``path`` into a RawSensorLog.

    ``read_numeric_csv`` reads its rows: an int64 timestamp and three finite
    float64 values each. A timestamp not after the one before it raises
    NonMonotonicTimestamp naming its line. Every error names the file at the
    front: ``<path>: line N: reason``.

    The bytes are read once. numpy reads the file again from its resolved
    absolute path, so no path reads as a URL, unless it is not a regular
    file (a pipe would give numpy nothing) or its suffix would make numpy
    decompress it: those are read from the bytes already read.
    """
    with naming(path):
        data = Path(path).read_bytes()
        resolved = str(Path(path).resolve())
        by_path = os.path.isfile(resolved) and os.path.splitext(resolved)[1] not in _COMPRESSED_SUFFIXES
        rows = read_numeric_csv(data, _CSV_ROW, CSV_HEADER, resolved if by_path else None)
        timestamps, values = rows["t"].copy(), np.ascontiguousarray(rows["v"])
        del rows
        try:
            return RawSensorLog(timestamps, values)
        except NonMonotonicTimestamp as exc:
            stall = int(np.argmin(timestamps[1:] > timestamps[:-1])) + 1
            raise NonMonotonicTimestamp(f"line {line_of_row(data, stall)}: {exc}") from None


#: Suffixes that numpy's path opener decompresses instead of reading as text.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")

#: Whitespace to numpy around a field, and a separator in no sensor export.
_SEPARATOR_CONTROLS = b"\x1c\x1d\x1e\x1f"

#: A character no numeric CSV holds: one outside ASCII, or a separator control.
_FORBIDDEN = re.compile("[^\x00-\x1b\x20-\x7f]")

_LINE_END = re.compile(rb"[\r\n]")
_NOT_LINE_END = re.compile(rb"[^\r\n]")


def read_numeric_csv(data: bytes, dtype: np.dtype, header: str, path=None) -> np.ndarray:
    """The rows of the numeric CSV file whose bytes are ``data``, one ``dtype`` record each.

    This is the one grammar of every numeric text file (sensor CSVs, label
    tracks, overrides), and numpy's ``loadtxt`` is its one reader:
    - the file is ASCII without the separator controls 0x1C..0x1F, which
      numpy strips around a field (numpy 2.4.6 also at times segfaults
      rejecting a field that holds a character outside the Basic
      Multilingual Plane);
    - its first line strips to ``header``;
    - every later line is empty, and skipped, or one row: comma-separated
      fields that numpy reads as ``dtype``'s int64 and float64 fields, with
      finite floats. A whitespace-only line is a row of one field, which
      numpy rejects. There are no comments (numpy's default would cut
      ``5,1,2,3 # c`` to a row) and no quoting.

    numpy reads ``path``, the resolved name of the regular file that holds
    ``data``, if given, else ``data``; either way with universal newlines.
    A file without rows gives none. A file that breaks the grammar raises
    MalformedLine for its first bad line: if numpy reads every row, that is
    the line of the first row with a non-finite float.
    """
    header_match = _LINE_END.search(data)
    header_end = header_match.start() if header_match else len(data)
    if data[:header_end].strip() != header.encode():
        raise MalformedLine(1, f"expected header {header!r}")
    if _NOT_LINE_END.search(data, header_end) is None:
        return np.empty(0, dtype)
    if data.isascii() and not any(c in data for c in _SEPARATOR_CONTROLS):
        try:
            if path:
                rows = _loadtxt(path, dtype, skiprows=1)
            else:
                with io.TextIOWrapper(io.BytesIO(data), "ascii") as text:  # universal newlines
                    rows = _loadtxt(text, dtype, skiprows=1)
        except ValueError:
            pass
        else:
            bad_row = _first_nonfinite_row(rows)
            if bad_row is None:
                return rows
            raise MalformedLine(line_of_row(data, bad_row), "non-finite value")
    _raise_first_bad_line(data, dtype, header)


def _loadtxt(source, dtype, skiprows):
    return np.loadtxt(source, dtype=dtype, delimiter=",", comments=None, skiprows=skiprows, ndmin=1, encoding="ascii")


def _first_nonfinite_row(rows):
    """The index of the first of ``rows`` with a non-finite float field, or None if every float is finite."""
    floats = (np.isfinite(rows[name]) for name in rows.dtype.names if rows.dtype[name].base.kind == "f")
    return min((int(np.argmin(f.reshape(len(rows), -1).all(axis=1))) for f in floats if not f.all()), default=None)


def _raise_first_bad_line(data: bytes, dtype: np.dtype, header: str):
    """Raise MalformedLine for the first line after the header of ``data`` that breaks the grammar.

    It only names the line, and returns nothing: each line goes alone to the
    same numpy call that reads a whole file, so the two agree on every line.
    It keeps the lines numpy reads, up to the first one it rejects, and reads
    them again with one call: the first of them with a non-finite value is
    the first bad line, if there is one.
    """
    columns = header.count(",") + 1
    read = []
    error = TrailgradeError("numpy rejects the file but reads each of its lines")
    with io.TextIOWrapper(io.BytesIO(data), "latin-1") as lines:  # one character per byte
        for line_no, line in enumerate(lines, start=1):
            if line_no == 1 or line == "\n":
                continue
            bad = _FORBIDDEN.search(line)
            if bad:
                what = "is not ASCII" if bad[0] > "\x7f" else "is a separator control"
                error = MalformedLine(line_no, f"byte {ord(bad[0]):#04x} {what}")
                break
            try:
                _loadtxt([line], dtype, skiprows=0)
            except ValueError:
                fields = line.count(",") + 1
                if fields != columns:
                    error = MalformedLine(line_no, f"expected {columns} fields, got {fields}")
                else:
                    error = MalformedLine(line_no, f"unparseable record {line.strip()!r}")
                break
            read.append(line)
    bad_row = _first_nonfinite_row(_loadtxt(read, dtype, skiprows=0)) if read else None
    if bad_row is not None:
        raise MalformedLine(line_of_row(data, bad_row), "non-finite value")
    raise error


def line_of_row(data: bytes, row: int) -> int:
    """The 1-based line of row ``row`` (0-based) of numeric CSV ``data``: its non-empty lines after the header."""
    with io.TextIOWrapper(io.BytesIO(data), "latin-1") as lines:
        row_lines = (n for n, line in enumerate(lines, start=1) if n > 1 and line != "\n")
        return next(itertools.islice(row_lines, row, None))


def write_sensor_csv(log: RawSensorLog) -> str:
    """Render a log back to CSV text (LF endings). Round-trips exactly."""
    rows = [CSV_HEADER]
    for t, (x, y, z) in zip(log.timestamps.tolist(), log.values.tolist()):
        rows.append(f"{t},{x!r},{y!r},{z!r}")
    return "\n".join(rows) + "\n"


def synchronize(logs):
    """Align recordings on the latest first timestamp.

    Samples before t0 = max(first timestamps) are dropped and the survivors are
    rebased so time 0 means t0; a sample exactly at t0 is kept. Samples more
    than 2**63 - 1 ms after t0 are dropped too: their rebased time would leave
    int64, and they lie past every lattice point a session archive holds.
    Returns new logs in the input order, whose values are views of the input
    logs' values. A log with no samples kept raises EmptyAfterSync carrying
    its index in ``logs``.
    """
    if not logs:
        raise EmptyLog("nothing to synchronize")
    t0 = max(int(log.timestamps[0]) for log in logs)
    end = min(t0 + _INT64_MAX, _INT64_MAX)
    out = []
    for index, log in enumerate(logs):
        # timestamps strictly increase, so the kept samples are one contiguous run
        first = int(np.searchsorted(log.timestamps, t0))
        stop = int(np.searchsorted(log.timestamps, end, side="right"))
        if first == stop:
            raise EmptyAfterSync(index, f"no samples in [{t0}, {end}] ms")
        out.append(RawSensorLog(log.timestamps[first:stop] - t0, log.values[first:stop]))
    return out


def resample_linear(log: RawSensorLog, end_ms: int) -> SensorChannel:
    """Interpolate a log onto the regular lattice k * PERIOD_MS, up to ``end_ms``.

    Each axis is interpolated independently between its bracketing samples.
    Lattice points outside [first, last] timestamp are not produced: no data is
    invented on either side. Nor are points after ``end_ms``, where a session
    built with the other logs keeps nothing, save the log's first point: a log
    that starts after ``end_ms`` still yields it, and build_session reports
    the empty overlap. More points than a session archive holds raise
    SessionTooLong before anything is allocated. Between two finite samples
    of opposite sign near the float64 limit, ``np.interp``'s slope
    overflows: a non-finite point raises NumericFailure naming its time.
    """
    if log.timestamps.size < 2:
        raise TooFewSamples("need at least 2 samples to interpolate")
    t = log.timestamps.astype(np.float64)
    k0 = -(-int(log.timestamps[0]) // PERIOD_MS)  # ceiling division
    k1 = min(int(log.timestamps[-1]) // PERIOD_MS, max(k0, end_ms // PERIOD_MS))
    if k1 < k0:
        raise TooFewSamples("no lattice point falls inside the log's time span")
    if k1 - k0 + 1 > SESSION_POINTS_MAX:
        raise SessionTooLong(
            f"{k1 - k0 + 1} lattice points up to {end_ms} ms, a session archive holds at most {SESSION_POINTS_MAX}"
        )
    grid = np.arange(k0, k1 + 1, dtype=np.float64) * PERIOD_MS
    out = np.empty((grid.size, 3))
    for axis in range(3):
        out[:, axis] = np.interp(grid, t, log.values[:, axis])
    finite = np.isfinite(out)
    if not finite.all():
        raise NumericFailure(
            f"interpolation overflows to a non-finite value at {(k0 + int(np.argmin(finite.all(axis=1)))) * PERIOD_MS} ms"
        )
    return SensorChannel(k0 * PERIOD_MS, out)


def build_session(channels, name: str = "") -> SyncedSession:
    """Stack four channels, in CHANNEL_ROLES order, into a session: common start, common length.

    After synchronization each unit's first lattice point lies within one
    period of the common t0, so channel starts differ by whole periods: each
    channel drops its points before the latest start, and all are cut to the
    shortest end. A channel with no points left raises EmptyAfterSync
    carrying its index in ``channels``.
    """
    if len(channels) != len(CHANNEL_ROLES):
        raise WrongChannelSet(f"need {len(CHANNEL_ROLES)} channels, one per role, got {len(channels)}")
    latest = max(ch.start_time_ms for ch in channels)
    shifts = []
    for index, ch in enumerate(channels):
        shift, off_lattice = divmod(latest - ch.start_time_ms, PERIOD_MS)
        if off_lattice:
            raise MismatchedStart(
                f"start {ch.start_time_ms} ms is not a whole number of periods before {latest} ms"
            )
        if shift >= ch.length:
            raise EmptyAfterSync(index, f"no samples at or after {latest} ms")
        shifts.append(shift)
    length = min(ch.length - shift for ch, shift in zip(channels, shifts))
    data = np.stack([ch.values[shift : shift + length] for ch, shift in zip(channels, shifts)], axis=1)
    return SyncedSession(name, latest, data)


# --- session archive (binary interchange between `ingest` and `window`) -----

_SESSION_MAGIC = b"TGSS"
_SESSION_VERSION = 1
#: A TGSS file stores the session name's UTF-8 length in two bytes.
_SESSION_NAME_MAX_BYTES = 0xFFFF
#: A TGSS file stores the session's point count in four bytes.
SESSION_POINTS_MAX = 0xFFFFFFFF


def write_session_archive(session: SyncedSession, path):
    """The session as a TGSS file; the payload is written straight from its array."""
    name = session.name.encode("utf-8")
    with open(path, "wb", buffering=CHUNK_BYTES) as out:
        out.write(_SESSION_MAGIC + struct.pack("<BH", _SESSION_VERSION, len(name)) + name)
        out.write(struct.pack("<qdI", session.start_time_ms, TARGET_RATE_HZ, session.length_points))
        out.write(np.ascontiguousarray(session.data, dtype="<f8"))


def read_session_archive(path) -> SyncedSession:
    """A TGSS file's session; the payload is read into one (n, 4, 3) array."""
    with naming(path), Reader(path, CorruptArchive, "session archive") as reader:
        if reader.take(4) != _SESSION_MAGIC:
            raise CorruptArchive("not a session archive")
        if reader.take(1)[0] != _SESSION_VERSION:
            raise CorruptArchive("unsupported session archive version")
        (name_len,) = reader.unpack("<H")
        name = reader.utf8(name_len, "session name")
        start, rate, length = reader.unpack("<qdI")
        if rate != TARGET_RATE_HZ:
            raise CorruptArchive(f"sample rate {rate} Hz is not {TARGET_RATE_HZ:g} Hz")
        if not length:
            raise CorruptArchive("session has no points")
        if start + (length - 1) * PERIOD_MS > _INT64_MAX:
            raise CorruptArchive(f"{length} points from {start} ms end outside int64")
        reader.require(length * 4 * 3 * 8)  # before allocating
        values = np.empty((length, 4, 3), dtype="<f8")
        reader.readinto(values)
        reader.finish()
        reader.require_finite(values, "non-finite sample values")
    return SyncedSession(name, start, values)


# --- session manifest --------------------------------------------------------

def parse_session_manifest(text) -> dict:
    """Parse key=value manifest text: a session name that fits a TGSS file plus four CSV paths."""
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
        value = value.strip().strip('"')
        if key in CHANNEL_ROLES and not value:
            raise MalformedManifest(f"line {line_no}: {key} names no CSV file")
        if key == "name" and (size := len(value.encode("utf-8"))) > _SESSION_NAME_MAX_BYTES:
            raise MalformedManifest(
                f"line {line_no}: name is {size} UTF-8 bytes, "
                f"a session archive holds at most {_SESSION_NAME_MAX_BYTES}"
            )
        entries[key] = value
    missing = [k for k in ("name", *CHANNEL_ROLES) if k not in entries]
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
    with naming(path):
        return parse(read_utf8(path, malformed))


def load_session(manifest_path) -> SyncedSession:
    """Manifest -> four parsed CSVs -> synchronize -> resample -> session.

    An error from parsing, synchronizing or resampling a CSV, or from stacking
    its channel into the session, names the CSV at the front. A CSV that
    cannot be opened names the manifest and the CSV's role.
    """
    manifest_path = Path(manifest_path)
    entries = parse_file(
        manifest_path, parse_session_manifest, lambda n, why: MalformedManifest(f"line {n}: {why}")
    )
    paths = [manifest_path.parent / entries[role] for role in CHANNEL_ROLES]
    logs = []
    for role, path in zip(CHANNEL_ROLES, paths):
        try:
            logs.append(parse_sensor_csv(path))
        except OSError as exc:
            with naming(manifest_path):
                raise TrailgradeError(f"{role}: {exc}") from None
    try:
        synced = synchronize(logs)
        end_ms = min(int(log.timestamps[-1]) for log in synced)
        channels = []
        for path, log in zip(paths, synced):
            with naming(path):
                channels.append(resample_linear(log, end_ms))
        return build_session(channels, name=entries["name"])
    except EmptyAfterSync as exc:
        with naming(paths[exc.index]):
            raise
