"""Exception types shared across the trailgrade package."""


class TrailgradeError(Exception):
    """Base class for every error raised by this package."""


# ingest

class MalformedLine(TrailgradeError):
    """A CSV line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no


class NonMonotonicTimestamp(TrailgradeError):
    """Timestamps must be strictly increasing."""


class EmptyLog(TrailgradeError):
    """A sensor log with no samples."""


class EmptyAfterSync(TrailgradeError):
    """A log has no samples in the span kept from the common start time; carries its index in the list it came from."""

    def __init__(self, index: int, reason: str):
        super().__init__(reason)
        self.index = index


class TooFewSamples(TrailgradeError):
    """Not enough samples for the requested operation."""


class WrongChannelSet(TrailgradeError):
    """A session needs exactly one channel per role in ``ingest.CHANNEL_ROLES``."""


class MismatchedStart(TrailgradeError):
    """Channel start times of one session must lie a whole number of periods apart."""


class SessionTooLong(TrailgradeError):
    """A session spans more lattice points than a session archive can hold."""


class MalformedManifest(TrailgradeError):
    """A session manifest is missing keys or is not key=value text."""


# labeling

class MalformedXml(TrailgradeError):
    """Input is not a well-formed OSM export."""


class DuplicateWayId(TrailgradeError):
    """Two graded ways share an id."""


class UnknownGrade(TrailgradeError):
    """A grade string outside the S0..S5 / mtb:scale vocabularies."""


class InvalidInterval(TrailgradeError):
    """An interval with start >= end, or a bad label."""


# dataset

class SessionTooShort(TrailgradeError):
    """Session has fewer points than one window."""


class EmptyClass(TrailgradeError):
    """A requested class has no members to duplicate."""


class CorruptArchive(TrailgradeError):
    """A session or sample archive is truncated or not an archive at all."""


# nn

class ShapeMismatch(TrailgradeError):
    """A sample window does not fit the model input."""


class LabelOutOfRange(TrailgradeError):
    """An integer label outside [0, classes)."""


class KernelTooLong(TrailgradeError):
    """Kernel length exceeds the window's point count."""


class CorruptCheckpoint(TrailgradeError):
    """A checkpoint file is truncated or structurally invalid."""


class VersionMismatch(TrailgradeError):
    """Wrong checkpoint magic or unsupported format version."""


# training / experiments

class EmptyDataset(TrailgradeError):
    """Training or evaluation needs at least one sample."""


class NumericFailure(TrailgradeError):
    """Non-finite sample data, or a non-finite training loss."""


class NoUsableSessions(TrailgradeError):
    """No session is long enough for the requested windows."""


class InvalidSpec(TrailgradeError):
    """Invalid synthetic-data or experiment-grid settings."""
