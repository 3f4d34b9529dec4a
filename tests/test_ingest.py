import dataclasses
import hashlib
import pickle
import struct
import tracemalloc

import numpy as np
import pytest
from conftest import RIDE_ROLES, make_session, write_ride
from oracles import parse_sensor_csv_lines
from hypothesis import given, settings
from hypothesis import strategies as st

from trailgrade.errors import (
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
from trailgrade import ingest
from trailgrade.ingest import (
    CHANNEL_ORDER,
    PERIOD_MS,
    TARGET_RATE_HZ,
    Mount,
    RawSensorLog,
    SensorChannel,
    SensorKind,
    build_session,
    load_session,
    parse_sensor_csv,
    parse_session_manifest,
    read_session_archive,
    resample_linear,
    synchronize,
    write_sensor_csv,
    write_session_archive,
)

ACC = SensorKind.ACCELEROMETER
GYRO = SensorKind.GYROSCOPE


def log_from(timestamps, x_values, kind=ACC, mount=Mount.FRAME):
    t = np.asarray(timestamps, dtype=np.int64)
    x = np.asarray(x_values, dtype=np.float64)
    values = np.column_stack([x, x * 0.5, -x])
    rate = 1000.0 / float(np.median(np.diff(t))) if len(t) > 1 else float("nan")
    return RawSensorLog(kind, mount, t, values, rate)


def channel_to_log(channel):
    """View a resampled channel as a raw log again (for re-resampling checks)."""
    timestamps = channel.start_time_ms + np.round(
        np.arange(channel.length) * PERIOD_MS
    ).astype(np.int64)
    return RawSensorLog(
        channel.sensor_kind, channel.mount, timestamps, channel.values.copy(), TARGET_RATE_HZ
    )


class TestParseSensorCsv:
    def test_two_samples(self):
        log = parse_sensor_csv("timestamp_ms,x,y,z\n0,0.0,1.0,-0.5\n80,0.2,1.0,-0.4", ACC, Mount.FRAME)
        assert log.timestamps.tolist() == [0, 80]
        assert log.timestamps[-1] - log.timestamps[0] == 80
        assert log.values[1].tolist() == [0.2, 1.0, -0.4]

    def test_equal_timestamps_rejected(self):
        with pytest.raises(NonMonotonicTimestamp):
            parse_sensor_csv("timestamp_ms,x,y,z\n0,0,0,0\n0,1,1,1", ACC, Mount.FRAME)

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(NonMonotonicTimestamp):
            parse_sensor_csv("timestamp_ms,x,y,z\n10,0,0,0\n5,1,1,1", ACC, Mount.FRAME)

    @pytest.mark.parametrize("blank", ["", " \t"])
    def test_repeated_timestamp_names_its_line(self, blank):
        # blank lines hold no row; a whitespace-only one sends the text to the line loop
        text = f"timestamp_ms,x,y,z\n0,0,0,0\n{blank}\n40,1,1,1\n40,2,2,2\n80,3,3,3\n"
        with pytest.raises(NonMonotonicTimestamp, match="^line 5: "):
            parse_sensor_csv(text, ACC, Mount.FRAME)

    def test_parse_holds_the_text_once_as_bytes(self):
        # numpy reads the text's ASCII bytes (1x) into rows of 32 bytes (about
        # 0.6x here); a UCS-4 copy of the text alone would be 4x
        rng = np.random.default_rng(3)
        rows = zip(range(1_500_000_000_000, 1_500_000_400_000, 10), *rng.normal(size=(3, 40_000)).tolist())
        text = ingest.CSV_HEADER + "\n" + "".join(map("%d,%.9f,%.9f,%.9f\n".__mod__, rows))
        assert len(text) > 2_000_000
        tracemalloc.start()
        try:
            log = parse_sensor_csv(text, ACC, Mount.FRAME)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert log.timestamps.size == 40_000
        assert peak <= 2.5 * len(text)

    def test_rate_inferred_from_12hz_file(self):
        # 101 samples at 0, 80, ..., 8000 ms
        lines = ["timestamp_ms,x,y,z"] + [f"{i * 80},{i * 0.1},0.0,0.0" for i in range(101)]
        log = parse_sensor_csv("\n".join(lines), ACC, Mount.FRAME)
        assert log.timestamps.size == 101
        assert log.timestamps[-1] - log.timestamps[0] == 8000
        assert log.nominal_rate_hz == pytest.approx(12.5)

    def test_crlf_accepted(self):
        log = parse_sensor_csv("timestamp_ms,x,y,z\r\n0,1,2,3\r\n40,4,5,6\r\n", GYRO, Mount.HELMET)
        assert log.timestamps.tolist() == [0, 40]
        assert log.nominal_rate_hz == pytest.approx(25.0)

    def test_bad_header(self):
        with pytest.raises(MalformedLine) as err:
            parse_sensor_csv("time,x,y,z\n0,1,2,3", ACC, Mount.FRAME)
        assert err.value.line_no == 1

    def test_malformed_line_reports_number(self):
        with pytest.raises(MalformedLine) as err:
            parse_sensor_csv("timestamp_ms,x,y,z\n0,1,2,3\n40,nope,2,3", ACC, Mount.FRAME)
        assert err.value.line_no == 3

    def test_wrong_field_count(self):
        with pytest.raises(MalformedLine):
            parse_sensor_csv("timestamp_ms,x,y,z\n0,1,2", ACC, Mount.FRAME)

    def test_non_finite_rejected(self):
        with pytest.raises(MalformedLine):
            parse_sensor_csv("timestamp_ms,x,y,z\n0,nan,2,3", ACC, Mount.FRAME)

    def test_empty_log(self):
        with pytest.raises(EmptyLog):
            parse_sensor_csv("timestamp_ms,x,y,z\n", ACC, Mount.FRAME)

    def test_roundtrip_exact(self):
        log = log_from([0, 80, 160, 240], [0.1, 1 / 3, -2.5e-7, 1e9])
        again = parse_sensor_csv(write_sensor_csv(log), ACC, Mount.FRAME)
        assert np.array_equal(again.timestamps, log.timestamps)
        assert np.array_equal(again.values, log.values)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=1,
            max_size=20,
        )
    )
    def test_roundtrip_property(self, xs):
        log = log_from(np.arange(len(xs)) * 40, xs)
        again = parse_sensor_csv(write_sensor_csv(log), ACC, Mount.FRAME)
        assert np.array_equal(again.values, log.values)
        assert np.array_equal(again.timestamps, log.timestamps)

    def test_int64_overflow_timestamp_names_line(self):
        for t in ("99999999999999999999", "9223372036854775808", "-9223372036854775809"):
            with pytest.raises(MalformedLine) as err:
                parse_sensor_csv(f"timestamp_ms,x,y,z\n0,1,2,3\n{t},1,2,3\n", ACC, Mount.FRAME)
            assert err.value.line_no == 3

    def test_int64_bounds_accepted(self):
        for t in (-(2**63), 2**63 - 41):
            log = parse_sensor_csv(f"timestamp_ms,x,y,z\n{t},1,2,3\n{t + 40},1,2,3\n", ACC, Mount.FRAME)
            assert log.timestamps.tolist() == [t, t + 40]

    def test_int64_wrapping_step_rejected(self):
        # the int64 difference of these two timestamps wraps around to +1
        text = "timestamp_ms,x,y,z\n9223372036854775807,1,2,3\n-9223372036854775808,1,2,3\n"
        with pytest.raises(NonMonotonicTimestamp):
            parse_sensor_csv(text, ACC, Mount.FRAME)

    def test_gap_beyond_int64_gets_its_rate(self):
        # the gap of 1.8e19 ms exceeds int64, so an int64 difference wraps negative
        text = "timestamp_ms,x,y,z\n-9000000000000000000,1,2,3\n9000000000000000000,1,2,3\n"
        log = parse_sensor_csv(text, ACC, Mount.FRAME)
        assert log.nominal_rate_hz == pytest.approx(1000.0 / 18e18)

    def test_trailing_comment_rejected(self):
        # numpy's loadtxt would cut this to "0,1,2,3" with its default comments="#"
        with pytest.raises(MalformedLine) as err:
            parse_sensor_csv("timestamp_ms,x,y,z\n0,1,2,3 # c\n40,1,2,3\n", ACC, Mount.FRAME)
        assert err.value.line_no == 2

    def test_clean_file_skips_line_loop(self, monkeypatch):
        def refuse(body):
            raise AssertionError("the line loop ran on a clean file")

        monkeypatch.setattr(ingest, "_parse_rows_by_line", refuse)
        rows = [f"{t},{t * 1e-3!r},{-t * 0.5:.9f},1.0" for t in range(0, 4000, 10)]
        log = parse_sensor_csv("timestamp_ms,x,y,z\r\n" + "\r\n".join(rows) + "\r\n", ACC, Mount.FRAME)
        assert log.timestamps.size == 400


#: Padding around fields and blank lines. numpy takes the plain kind. Unicode
#: whitespace (stripped by ``str.strip``, ``int`` and ``float`` alike) and
#: whitespace-only lines send a file to the line loop.
_PLAIN_PADS = ["", "", " ", "\t", "  "]
_ODD_PADS = ["\x0b", "\xa0", "\u2002"]
_PLAIN_BLANKS = [""]
_ODD_BLANKS = ["\r", " ", "\t", " \t ", "\x0c", "\u3000"]
_MANGLES = ("extra field", "empty field", "nan", "inf", "timestamp 1.5",
            "trailing comment", "quoted field", "int64 overflow")


@st.composite
def sensor_csv_files(draw):
    """Valid sensor CSV text, plus its body lines and which of them are rows.

    Returns (lines, row_indices, newlines, final_newline): ``lines[0]`` is the
    header, and a row's 1-based line number is its index + 1.
    """
    odd = draw(st.booleans())
    pads = st.sampled_from(_PLAIN_PADS + _ODD_PADS if odd else _PLAIN_PADS)
    blanks = st.sampled_from(_PLAIN_BLANKS + _ODD_BLANKS if odd else _PLAIN_BLANKS)
    n = draw(st.integers(1, 25))
    t = draw(st.integers(-(2**40), 2**40))
    values = st.floats(allow_nan=False, allow_infinity=False)
    fmt = st.sampled_from(["{!r}", "{:.9f}"])
    lines = ["timestamp_ms,x,y,z"]
    rows = []
    for _ in range(n):
        for blank in draw(st.lists(blanks, max_size=1)):
            lines.append(blank)
        fields = [str(t)] + [draw(fmt).format(draw(values)) for _ in range(3)]
        rows.append(len(lines))
        lines.append([draw(pads) + f + draw(pads) for f in fields])
        t += draw(st.integers(1, 1000))
    newlines = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    return lines, rows, newlines, draw(st.booleans())


def render_csv(lines, newlines, final_newline):
    text = "".join(
        (line if isinstance(line, str) else ",".join(line)) + end
        for line, end in zip(lines, newlines)
    )
    return text if final_newline else text.rstrip("\r\n")


def mangle_row(fields, how, k):
    """Break one row's fields the way ``how`` names; k picks a value field."""
    fields = list(fields)
    if how == "extra field":
        fields.append("0")
    elif how == "empty field":
        fields[k % 4] = ""
    elif how == "nan":
        fields[k] = "nan"
    elif how == "inf":
        fields[k] = "-inf"
    elif how == "timestamp 1.5":
        fields[0] = "1.5"
    elif how == "trailing comment":
        fields[3] += " # c"
    elif how == "quoted field":
        fields[k] = f'"{fields[k].strip()}"'
    elif how == "int64 overflow":
        fields[0] = "99999999999999999999"
    return fields


def assert_matches_line_loop(text):
    """parse_sensor_csv gives what the original line loop gives, bit for bit."""
    try:
        want = RawSensorLog(ACC, Mount.FRAME, *parse_sensor_csv_lines(text))
    except TrailgradeError as want_err:
        with pytest.raises(TrailgradeError) as got_err:
            parse_sensor_csv(text, ACC, Mount.FRAME)
        assert type(got_err.value) is type(want_err)
        assert getattr(got_err.value, "line_no", None) == getattr(want_err, "line_no", None)
        return
    log = parse_sensor_csv(text, ACC, Mount.FRAME)
    assert log.timestamps.dtype == np.int64
    assert log.timestamps.tolist() == want.timestamps.tolist()
    assert log.values.shape == want.values.shape
    assert log.values.tobytes() == want.values.tobytes()  # -0.0 and every last bit
    assert np.float64(log.nominal_rate_hz).tobytes() == np.float64(want.nominal_rate_hz).tobytes()


class TestParseMatchesLineLoop:
    """The vectorised parse against the original line loop in tests/oracles.py."""

    @settings(max_examples=200, deadline=None)
    @given(sensor_csv_files())
    def test_valid_files_identical(self, case):
        lines, _, newlines, final_newline = case
        assert_matches_line_loop(render_csv(lines, newlines, final_newline))

    @settings(max_examples=200, deadline=None)
    @given(sensor_csv_files(), st.sampled_from(_MANGLES), st.data())
    def test_mangled_line_same_error(self, case, how, data):
        lines, rows, newlines, final_newline = case
        row = data.draw(st.sampled_from(rows))
        lines[row] = mangle_row(lines[row], how, data.draw(st.integers(1, 3)))
        text = render_csv(lines, newlines, final_newline)
        if how == "int64 overflow":
            # the line loop lets this escape as OverflowError; it is now a MalformedLine
            with pytest.raises(OverflowError):
                parse_sensor_csv_lines(text)
            with pytest.raises(MalformedLine) as err:
                parse_sensor_csv(text, ACC, Mount.FRAME)
            assert err.value.line_no == row + 1
        else:
            with pytest.raises(MalformedLine) as err:
                parse_sensor_csv_lines(text)
            assert err.value.line_no == row + 1
            assert_matches_line_loop(text)

    @pytest.mark.parametrize(
        "char",
        ["\x00", "\t", "\x0b", "\x0c", "\r", "\x1c", "\x1f", "\x85", "\xa0", "\u2002",
         "\u2028", "\u3000", "\ufeff", "\u0663", "\U0002c6ca", "_", "#", '"'],
    )
    def test_odd_characters(self, char):
        rows = ["0,1,2,3", "40,4,5,6"]
        for i, row in enumerate(rows):
            for pos in range(len(row) + 1):
                edited = rows[:i] + [row[:pos] + char + row[pos:]] + rows[i + 1:]
                assert_matches_line_loop("timestamp_ms,x,y,z\n" + "\n".join(edited) + "\n")
        assert_matches_line_loop(f"timestamp_ms,x,y,z\n0,1,2,3\n{char}\n40,4,5,6\n")
        assert_matches_line_loop(f"timestamp_ms,x,y,z{char}\n0,1,2,3\n")

    @pytest.mark.parametrize(
        "body", ["", "\n", "\r\n", " \n\t\n", "\n\n0,1,2,3", "1_0,1,2,3", "10,1_5,2,3",
                 "+5,+1,.5,5.", "007,1e5,-0,1E-5", "5,infinity,2,3", "5,1e400,2,3",
                 "5,1e-400,2,3", "1e3,1,2,3", "0x10,1,2,3", "5,0x1p3,2,3", "5,1 2,3,4",
                 "5,1,2\r,3", "5,1,2,3\r6,1,2,3", "5,1,2,3\n\r6,1,2,3"],
    )
    def test_edge_bodies(self, body):
        assert_matches_line_loop("timestamp_ms,x,y,z\n" + body)


#: Characters a CSV body is drawn from: the valid ones, plus separators,
#: whitespace and controls the parsers treat differently.
_CSV_CHARS = "0123456789,.-+eEinfax_# \t\r\n\"\x00\x1c\x85\xa0\u2028\u0663\U0002c6ca"


def _manifest_texts():
    line = st.tuples(
        st.sampled_from(("name", *RIDE_ROLES, "# note", "", "other")),
        st.sampled_from(("=", " = ", "", "==")),
        st.text(max_size=6),
    )
    return st.lists(line, max_size=8).map(lambda rows: "\n".join(k + sep + v for k, sep, v in rows))


class TestAnyTextParsesOrRaisesTyped:
    """Whatever the text, the parsers return a value or raise a TrailgradeError."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), st.text(_CSV_CHARS).map(lambda body: ingest.CSV_HEADER + "\n" + body)))
    def test_sensor_csv(self, text):
        try:
            log = parse_sensor_csv(text, ACC, Mount.FRAME)
        except TrailgradeError:
            return
        assert log.timestamps.size == log.values.shape[0] > 0
        assert np.isfinite(log.values).all()

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), _manifest_texts()))
    def test_manifest(self, text):
        try:
            entries = parse_session_manifest(text)
        except TrailgradeError:
            return
        assert {"name", *RIDE_ROLES} <= set(entries)


class TestSynchronize:
    def test_rebase_to_latest_start(self):
        logs = [
            log_from([0, 40, 80], [0, 1, 2]),
            log_from([0, 40, 80], [3, 4, 5]),
            log_from([40, 80, 120], [6, 7, 8]),
            log_from([0, 40, 80], [9, 10, 11]),
        ]
        synced = synchronize(logs)
        assert [s.timestamps[0] for s in synced] == [0, 0, 0, 0]
        assert synced[0].values[0, 0] == 1.0  # the sample that was at 40 ms

    def test_identity_when_already_aligned(self):
        logs = [log_from([0, 80], [1, 2]) for _ in range(4)]
        synced = synchronize(logs)
        for before, after in zip(logs, synced):
            assert np.array_equal(before.timestamps, after.timestamps)
            assert np.array_equal(before.values, after.values)

    def test_enumerated_survivors(self):
        a = log_from([0, 80, 160], [0.0, 1.0, 2.0])
        b = log_from([100, 140, 180], [5.0, 6.0, 7.0])
        synced = synchronize([a, b, b, b])
        assert synced[0].timestamps.tolist() == [60]
        assert synced[0].values[0, 0] == 2.0
        assert synced[1].timestamps.tolist() == [0, 40, 80]

    def test_values_are_views_of_the_input(self):
        logs = [log_from([0, 40, 80], [0, 1, 2]), log_from([40, 80], [3, 4])] * 2
        synced = synchronize(logs)
        for before, after in zip(logs, synced):
            assert np.shares_memory(after.values, before.values)
            assert not np.shares_memory(after.timestamps, before.timestamps)
        assert [s.timestamps.tolist() for s in synced] == [[0, 40], [0, 40]] * 2
        assert logs[0].timestamps.tolist() == [0, 40, 80]

    def test_empty_after_sync(self):
        a = log_from([0], [1.0])
        b = log_from([100, 140], [1.0, 2.0])
        with pytest.raises(EmptyAfterSync):
            synchronize([a, b])

    def test_never_grows_and_earliest_is_zero(self, rng):
        logs = []
        for _ in range(4):
            timestamps = np.cumsum(rng.integers(1, 100, size=rng.integers(2, 30)))
            logs.append(log_from(timestamps, rng.normal(size=timestamps.size)))
        synced = synchronize(logs)
        for before, after in zip(logs, synced):
            assert after.timestamps.size <= before.timestamps.size
            assert after.timestamps[0] >= 0
        assert min(int(s.timestamps[0]) for s in synced) == 0


class TestResampleLinear:
    def test_midpoint(self):
        channel = resample_linear(log_from([0, 80], [0.0, 1.0]))
        assert channel.values[:, 0].tolist() == [0.0, 0.5, 1.0]
        assert channel.start_time_ms == 0

    def test_identity_on_grid(self):
        log = log_from([0, 40, 80, 120], [1.0, -2.0, 3.0, 0.25])
        channel = resample_linear(log)
        assert np.array_equal(channel.values, log.values)

    def test_two_point_line_no_extrapolation(self):
        channel = resample_linear(log_from([0, 100], [0.0, 1.0]))
        assert channel.length == 3  # 0, 40, 80 ms; nothing at 120
        assert np.allclose(channel.values[:, 0], [0.0, 0.4, 0.8])

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            resample_linear(log_from([0], [1.0]))

    def test_idempotent_on_grid(self):
        log = log_from(np.arange(50) * 40, np.sin(np.arange(50)))
        once = resample_linear(log)
        twice = resample_linear(channel_to_log(once))
        assert np.max(np.abs(once.values - twice.values)) < 1e-12

    def test_values_within_bracketing_inputs(self, rng):
        timestamps = np.cumsum(rng.integers(10, 120, size=40))
        values = rng.normal(size=40)
        log = log_from(timestamps, values)
        channel = resample_linear(log)
        period = 40.0
        for i in range(channel.length):
            t = channel.start_time_ms + i * period
            right = int(np.searchsorted(timestamps, t, side="left"))
            right = min(max(right, 1), len(timestamps) - 1)
            left = right - 1
            for axis in range(3):
                lo = min(log.values[left, axis], log.values[right, axis])
                hi = max(log.values[left, axis], log.values[right, axis])
                assert lo - 1e-12 <= channel.values[i, axis] <= hi + 1e-12

    def test_offset_start_lands_on_lattice(self):
        channel = resample_linear(log_from([60, 100, 140], [0.0, 1.0, 2.0]))
        assert channel.start_time_ms == 80
        assert channel.length == 2  # 80 and 120 ms


class TestBuildSession:
    def make_channels(self, lengths, start=0):
        rng = np.random.default_rng(7)
        return [
            SensorChannel(kind, mount, start, rng.normal(size=(n, 3)))
            for (mount, kind), n in zip(CHANNEL_ORDER, lengths)
        ]

    def test_min_length_rule(self):
        session = build_session(self.make_channels([500, 500, 498, 500]))
        assert session.length_points == 498
        assert session.data.shape == (498, 4, 3)

    def test_duplicate_channel_rejected(self):
        channels = self.make_channels([10, 10, 10, 10])
        channels[1] = SensorChannel(ACC, Mount.FRAME, 0, channels[1].values)
        with pytest.raises(WrongChannelSet):
            build_session(channels)

    def test_missing_channel_rejected(self):
        with pytest.raises(WrongChannelSet):
            build_session(self.make_channels([10, 10, 10, 10])[:3])

    def test_mismatched_start_rejected(self):
        # one channel starts a period late, so the others drop their first point
        channels = self.make_channels([10, 10, 10, 10])
        late = SensorChannel(GYRO, Mount.HELMET, 40, channels[3].values)
        session = build_session(channels[:3] + [late])
        assert session.start_time_ms == 40
        assert session.length_points == 9
        for row in range(3):
            assert np.array_equal(session.data[:, row], channels[row].values[1:])
        assert np.array_equal(session.data[:, 3], late.values[:9])

    def test_channel_order_fixed(self):
        channels = self.make_channels([10, 10, 10, 10])
        session = build_session(list(reversed(channels)))
        assert [(c.mount, c.sensor_kind) for c in session.channels] == list(CHANNEL_ORDER)
        assert np.array_equal(session.data[:, 0, :], channels[0].values)

    def test_twenty_second_recording_via_resampler(self):
        # accelerometers at 12.5 Hz spanning [0, 20000]; gyroscopes emit 500
        # samples at 25 Hz, the last at 19960 ms -> common length is 500
        rng = np.random.default_rng(3)
        logs = []
        for mount, kind in CHANNEL_ORDER:
            if kind is ACC:
                t = np.arange(251) * 80
            else:
                t = np.arange(500) * 40
            logs.append(RawSensorLog(kind, mount, t, rng.normal(size=(t.size, 3)), 12.5 if kind is ACC else 25.0))
        channels = [resample_linear(log) for log in synchronize(logs)]
        session = build_session(channels, name="ride")
        assert session.length_points == 500


class TestSessionHoldsOneCopy:
    def test_fields_are_name_start_and_data(self):
        fields = [f.name for f in dataclasses.fields(ingest.SyncedSession)]
        assert fields == ["name", "start_time_ms", "data"]

    def test_length_and_channels_derive_from_data(self):
        session = make_session(40, start_ms=120)
        assert session.length_points == len(session.data) == 40
        for i, (channel, (mount, kind)) in enumerate(zip(session.channels, CHANNEL_ORDER)):
            assert (channel.mount, channel.sensor_kind) == (mount, kind)
            assert channel.start_time_ms == 120
            assert np.shares_memory(channel.values, session.data)
            assert np.array_equal(channel.values, session.data[:, i])
            with pytest.raises(ValueError):
                channel.values[0, 0] = 1.0

    def test_pickles_to_little_more_than_its_data(self):
        session = make_session(500)
        assert len(pickle.dumps(session)) < 1.2 * session.data.nbytes
        loaded = pickle.loads(pickle.dumps(session))
        assert np.array_equal(loaded.data, session.data)
        assert not loaded.data.flags.writeable
        assert not loaded.channels[0].values.flags.writeable


class TestAlignChannelStarts:
    """build_session drops each channel's leading points before the latest start."""

    def make(self, starts, lengths):
        return [
            SensorChannel(kind, mount, start, np.random.default_rng(start + n).normal(size=(n, 3)))
            for (mount, kind), start, n in zip(CHANNEL_ORDER, starts, lengths)
        ]

    def test_trims_to_latest_start(self):
        channels = self.make([0, 80, 40, 80], [10, 8, 12, 9])
        session = build_session(channels)
        assert session.start_time_ms == 80
        assert session.length_points == 8
        assert np.array_equal(session.data[:, 0], channels[0].values[2:])
        assert np.array_equal(session.data[:, 1], channels[1].values)
        assert np.array_equal(session.data[:, 2], channels[2].values[1:9])
        assert np.array_equal(session.data[:, 3], channels[3].values[:8])

    def test_off_lattice_start_rejected(self):
        with pytest.raises(MismatchedStart, match="not a whole number of periods"):
            build_session(self.make([0, 50, 0, 0], [10, 10, 10, 10]))

    def test_channel_entirely_before_start(self):
        with pytest.raises(EmptyAfterSync, match="no samples at or after 400 ms"):
            build_session(self.make([0, 400, 0, 0], [3, 5, 12, 12]))

    def test_load_session_with_offset_units(self, tmp_path):
        rng = np.random.default_rng(21)
        offsets = {"frame_accel": 0, "frame_gyro": 55, "helmet_accel": 110, "helmet_gyro": 15}
        for role, offset in offsets.items():
            step = 80 if "accel" in role else 40
            rows = ["timestamp_ms,x,y,z"]
            rows += [
                f"{offset + t},{rng.normal()!r},{rng.normal()!r},{rng.normal()!r}"
                for t in range(0, 8000, step)
            ]
            (tmp_path / f"{role}.csv").write_text("\n".join(rows) + "\n")
        manifest = "name=offset\n" + "\n".join(f"{r}={r}.csv" for r in offsets) + "\n"
        (tmp_path / "session.toml").write_text(manifest)
        session = load_session(tmp_path / "session.toml")
        assert session.length_points > 150
        # units start at 160 - 110, 135 - 110, 0 and 135 - 110 ms after the common
        # t0 of 110 ms, so on the lattice at 80, 40, 0 and 40 ms
        assert session.start_time_ms == 80


class TestSessionArchive:
    def test_roundtrip_bit_exact(self, tmp_path):
        session = build_session(
            [
                SensorChannel(kind, mount, 0, np.random.default_rng(5).normal(size=(37, 3)))
                for mount, kind in CHANNEL_ORDER
            ],
            name="ride-α",
        )
        path = tmp_path / "a.session"
        write_session_archive(session, path)
        loaded = read_session_archive(path)
        assert loaded.name == "ride-α"
        assert loaded.length_points == 37
        assert np.array_equal(loaded.data, session.data)
        # re-save is byte-identical
        path2 = tmp_path / "b.session"
        write_session_archive(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_write_holds_the_file_once(self, tmp_path):
        path = tmp_path / "a.session"
        session = make_session(20_000, name="ride", seed=4)
        tracemalloc.start()
        try:
            write_session_archive(session, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "e7e4df36d2e146f1f9082ba26aa9a9995446386f494b61e1b183c6486856c1d2"
        assert peak <= 1.5 * path.stat().st_size

    def test_truncated_rejected(self, tmp_path):
        session = build_session(
            [
                SensorChannel(kind, mount, 0, np.ones((5, 3)))
                for mount, kind in CHANNEL_ORDER
            ]
        )
        path = tmp_path / "a.session"
        write_session_archive(session, path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(CorruptArchive):
            read_session_archive(path)

    def test_name_not_utf8_rejected(self, tmp_path):
        session = build_session(
            [SensorChannel(kind, mount, 0, np.ones((5, 3))) for mount, kind in CHANNEL_ORDER],
            name="ride",
        )
        path = tmp_path / "a.session"
        write_session_archive(session, path)
        data = bytearray(path.read_bytes())
        data[7] = 0xFF  # first name byte, after magic, version and name length
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptArchive, match="UTF-8"):
            read_session_archive(path)

    def test_zero_points_rejected(self, tmp_path):
        path = tmp_path / "empty.session"
        name = b"ride"
        header = b"TGSS\x01" + struct.pack("<H", len(name)) + name
        path.write_bytes(header + struct.pack("<qdI", 0, TARGET_RATE_HZ, 0))
        with pytest.raises(CorruptArchive, match="no points"):
            read_session_archive(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.session"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(CorruptArchive):
            read_session_archive(path)


class TestManifest:
    def test_parse(self):
        text = "# ride one\nname=ride1\nframe_accel=fa.csv\nframe_gyro=fg.csv\nhelmet_accel=ha.csv\nhelmet_gyro=hg.csv\n"
        entries = parse_session_manifest(text)
        assert entries["name"] == "ride1"
        assert entries["helmet_gyro"] == "hg.csv"

    def test_missing_key(self):
        with pytest.raises(MalformedManifest):
            parse_session_manifest("name=ride1\nframe_accel=fa.csv\n")

    def test_load_session_end_to_end(self, tmp_path):
        rng = np.random.default_rng(11)
        roles = {
            "frame_accel": np.arange(0, 4001, 80),
            "frame_gyro": np.arange(0, 4001, 40),
            "helmet_accel": np.arange(0, 4001, 80),
            "helmet_gyro": np.arange(0, 4001, 40),
        }
        for role, ts in roles.items():
            rows = ["timestamp_ms,x,y,z"]
            rows += [f"{t},{rng.normal()!r},{rng.normal()!r},{rng.normal()!r}" for t in ts]
            (tmp_path / f"{role}.csv").write_text("\n".join(rows) + "\n")
        manifest = "name=ride1\n" + "\n".join(f"{r}={r}.csv" for r in roles) + "\n"
        (tmp_path / "session.toml").write_text(manifest)
        session = load_session(tmp_path / "session.toml")
        assert session.name == "ride1"
        assert session.length_points == 101  # 0..4000 ms inclusive at 25 Hz


class TestLoadSessionBytes:
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_line_ends_as_read_text(self, tmp_path, newline):
        manifest = write_ride(tmp_path)
        want = load_session(manifest)
        for role in RIDE_ROLES:
            path = tmp_path / f"{role}.csv"
            path.write_bytes(path.read_bytes().replace(b"\n", newline))
        manifest.write_bytes(manifest.read_bytes().replace(b"\n", newline))
        got = load_session(manifest)
        assert got.name == want.name
        assert np.array_equal(got.data, want.data)

    def test_crlf_read_holds_the_file_at_most_twice(self, tmp_path):
        path = tmp_path / "ride.csv"
        rows = ["timestamp_ms,x,y,z"] + [f"{40 * i},{i},{i / 1000},-1.5" for i in range(60_000)]
        path.write_bytes("\r\n".join(rows).encode("ascii") + b"\r\n")
        tracemalloc.start()
        try:
            text = ingest.read_utf8(path, MalformedLine)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert text == "\n".join(rows) + "\n"
        assert peak <= 2.2 * path.stat().st_size

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_undecodable_csv_byte_names_its_line(self, tmp_path, newline):
        manifest = write_ride(tmp_path)
        path = tmp_path / "helmet_gyro.csv"
        lines = path.read_bytes().split(b"\n")
        lines[3] = lines[3].replace(b",", b",\xff", 1)
        path.write_bytes(newline.join(lines))
        with pytest.raises(MalformedLine) as err:
            load_session(manifest)
        assert err.value.line_no == 4
        assert "helmet_gyro.csv" in str(err.value)

    def test_parse_errors_name_the_csv(self, tmp_path):
        manifest = write_ride(tmp_path)
        path = tmp_path / "frame_gyro.csv"
        path.write_text(path.read_text().replace("\n80,", "\n40,", 1))
        with pytest.raises(NonMonotonicTimestamp) as err:
            load_session(manifest)
        assert str(err.value) == f"{path}: line 4: timestamps must be strictly increasing"

    def test_undecodable_manifest_byte(self, tmp_path):
        manifest = write_ride(tmp_path)
        manifest.write_bytes(manifest.read_bytes().replace(b"frame_gyro=", b"frame_gyro\xe9="))
        with pytest.raises(MalformedManifest, match="line 3"):
            load_session(manifest)
