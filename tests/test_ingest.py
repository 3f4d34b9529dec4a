import dataclasses
import hashlib
import os
import pickle
import struct
import threading
import time
import tracemalloc
import urllib.request

import numpy as np
import pytest
from conftest import make_session, parse_csv_text, write_ride
from oracles import parse_sensor_csv_lines, sensor_csv_grammar_violation
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
    CHANNEL_ROLES,
    PERIOD_MS,
    TARGET_RATE_HZ,
    RawSensorLog,
    SensorChannel,
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

def log_from(timestamps, x_values):
    t = np.asarray(timestamps, dtype=np.int64)
    x = np.asarray(x_values, dtype=np.float64)
    values = np.column_stack([x, x * 0.5, -x])
    return RawSensorLog(t, values)


def channel_to_log(channel):
    """View a resampled channel as a raw log again (for re-resampling checks)."""
    timestamps = channel.start_time_ms + np.arange(channel.length, dtype=np.int64) * PERIOD_MS
    return RawSensorLog(timestamps, channel.values.copy())


class TestParseSensorCsv:
    def test_two_samples(self):
        log = parse_csv_text("timestamp_ms,x,y,z\n0,0.0,1.0,-0.5\n80,0.2,1.0,-0.4")
        assert log.timestamps.tolist() == [0, 80]
        assert log.timestamps[-1] - log.timestamps[0] == 80
        assert log.values[1].tolist() == [0.2, 1.0, -0.4]

    def test_equal_timestamps_rejected(self):
        with pytest.raises(NonMonotonicTimestamp):
            parse_csv_text("timestamp_ms,x,y,z\n0,0,0,0\n0,1,1,1")

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(NonMonotonicTimestamp):
            parse_csv_text("timestamp_ms,x,y,z\n10,0,0,0\n5,1,1,1")

    @pytest.mark.parametrize("blank", ["", " \t"])
    def test_repeated_timestamp_names_its_line(self, blank):
        # an empty line holds no row; a whitespace-only one is a row of one field
        text = f"timestamp_ms,x,y,z\n0,0,0,0\n{blank}\n40,1,1,1\n40,2,2,2\n80,3,3,3\n"
        if blank:
            with pytest.raises(MalformedLine, match=r"sensor\.csv: line 3: expected 4 fields, got 1$"):
                parse_csv_text(text)
        else:
            with pytest.raises(NonMonotonicTimestamp, match=r"sensor\.csv: line 5: "):
                parse_csv_text(text)

    def test_parse_holds_the_text_once_as_bytes(self, tmp_path):
        # the file's bytes (1x) and numpy's rows of 32 bytes (about 0.6x
        # here); a UCS-4 copy of the text alone would be 4x
        rng = np.random.default_rng(3)
        rows = zip(range(1_500_000_000_000, 1_500_000_400_000, 10), *rng.normal(size=(3, 40_000)).tolist())
        text = ingest.CSV_HEADER + "\n" + "".join(map("%d,%.9f,%.9f,%.9f\n".__mod__, rows))
        assert len(text) > 2_000_000
        path = tmp_path / "ride.csv"
        path.write_bytes(text.encode("ascii"))
        tracemalloc.start()
        try:
            log = parse_sensor_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert log.timestamps.size == 40_000
        assert peak <= 2.5 * len(text)

    def test_12hz_file_keeps_its_span(self):
        # 101 samples at 0, 80, ..., 8000 ms
        lines = ["timestamp_ms,x,y,z"] + [f"{i * 80},{i * 0.1},0.0,0.0" for i in range(101)]
        log = parse_csv_text("\n".join(lines))
        assert log.timestamps.size == 101
        assert log.timestamps[-1] - log.timestamps[0] == 8000

    def test_crlf_accepted(self):
        log = parse_csv_text("timestamp_ms,x,y,z\r\n0,1,2,3\r\n40,4,5,6\r\n")
        assert log.timestamps.tolist() == [0, 40]

    def test_bad_header(self):
        with pytest.raises(MalformedLine) as err:
            parse_csv_text("time,x,y,z\n0,1,2,3")
        assert err.value.line_no == 1

    def test_malformed_line_reports_number(self):
        with pytest.raises(MalformedLine) as err:
            parse_csv_text("timestamp_ms,x,y,z\n0,1,2,3\n40,nope,2,3")
        assert err.value.line_no == 3

    def test_wrong_field_count(self):
        with pytest.raises(MalformedLine):
            parse_csv_text("timestamp_ms,x,y,z\n0,1,2")

    def test_non_finite_rejected(self):
        with pytest.raises(MalformedLine):
            parse_csv_text("timestamp_ms,x,y,z\n0,nan,2,3")

    def test_empty_log(self):
        with pytest.raises(EmptyLog):
            parse_csv_text("timestamp_ms,x,y,z\n")

    def test_roundtrip_exact(self):
        log = log_from([0, 80, 160, 240], [0.1, 1 / 3, -2.5e-7, 1e9])
        again = parse_csv_text(write_sensor_csv(log))
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
        again = parse_csv_text(write_sensor_csv(log))
        assert np.array_equal(again.values, log.values)
        assert np.array_equal(again.timestamps, log.timestamps)

    def test_int64_overflow_timestamp_names_line(self):
        for t in ("99999999999999999999", "9223372036854775808", "-9223372036854775809"):
            with pytest.raises(MalformedLine) as err:
                parse_csv_text(f"timestamp_ms,x,y,z\n0,1,2,3\n{t},1,2,3\n")
            assert err.value.line_no == 3

    def test_int64_bounds_accepted(self):
        for t in (-(2**63), 2**63 - 41):
            log = parse_csv_text(f"timestamp_ms,x,y,z\n{t},1,2,3\n{t + 40},1,2,3\n")
            assert log.timestamps.tolist() == [t, t + 40]

    def test_int64_wrapping_step_rejected(self):
        # the int64 difference of these two timestamps wraps around to +1
        text = "timestamp_ms,x,y,z\n9223372036854775807,1,2,3\n-9223372036854775808,1,2,3\n"
        with pytest.raises(NonMonotonicTimestamp):
            parse_csv_text(text)

    def test_gap_beyond_int64_accepted(self):
        # the gap of 1.8e19 ms exceeds int64, so an int64 difference wraps negative
        text = "timestamp_ms,x,y,z\n-9000000000000000000,1,2,3\n9000000000000000000,1,2,3\n"
        log = parse_csv_text(text)
        assert log.timestamps.tolist() == [-9000000000000000000, 9000000000000000000]

    def test_trailing_comment_rejected(self):
        # numpy's loadtxt would cut this to "0,1,2,3" with its default comments="#"
        with pytest.raises(MalformedLine) as err:
            parse_csv_text("timestamp_ms,x,y,z\n0,1,2,3 # c\n40,1,2,3\n")
        assert err.value.line_no == 2

    def test_clean_file_skips_line_loop(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the bad-line locator ran on a clean file")

        monkeypatch.setattr(ingest, "_raise_first_bad_line", refuse)
        lines = ["timestamp_ms,x,y,z"] + [f"{t},{t * 1e-3!r},{-t * 0.5:.9f},1.0" for t in range(0, 4000, 10)]
        for ends in (["\n"], ["\r\n"], ["\r"], ["\n", "\r\n", "\r"]):  # LF, CRLF, lone CR, mixed
            text = "".join(line + ends[i % len(ends)] for i, line in enumerate(lines))
            want = RawSensorLog(*parse_sensor_csv_lines(lf_line_ends(text))[:2])
            log = parse_csv_text(text)
            assert log.timestamps.tolist() == want.timestamps.tolist()
            assert log.values.tobytes() == want.values.tobytes()

    def test_non_finite_value_named_without_line_loop(self, monkeypatch):
        # numpy reads every row of these files, so the first non-finite row
        # names the line, and the per-line locator never runs
        def refuse(*args):
            raise AssertionError("the bad-line locator ran on a file numpy reads")

        monkeypatch.setattr(ingest, "_raise_first_bad_line", refuse)
        for value in ("nan", "inf", "-inf"):
            for bad in (0, 2, 4):  # the first, a middle and the last row
                for blanks in (0, 2):
                    for end in ("\n", "\r\n"):
                        rows = [f"{40 * i},{i},{value if i == bad else 0.5},-1.5" for i in range(5)]
                        lines = [ingest.CSV_HEADER, *[""] * blanks, *rows[:bad], *[""] * blanks, *rows[bad:]]
                        text = end.join(lines) + end
                        want = lines.index(rows[bad]) + 1
                        with pytest.raises(MalformedLine, match=f"line {want}: non-finite value$") as err:
                            parse_csv_text(text)
                        assert err.value.line_no == want
                        with pytest.raises(MalformedLine) as err:  # numpy reads the bytes, not a path
                            ingest.read_numeric_csv(text.encode(), ingest._CSV_ROW, ingest.CSV_HEADER)
                        assert err.value.line_no == want

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_read_as_text(self, tmp_path, monkeypatch, suffix):
        # numpy would decompress a file of this name, so it must read the
        # bytes already read, never the name
        real_loadtxt = np.loadtxt

        def refuse(source, *args, **kwargs):
            if isinstance(source, (str, os.PathLike)) and os.fspath(source).endswith(suffix):
                raise AssertionError(f"numpy opened a {suffix} file")
            return real_loadtxt(source, *args, **kwargs)

        text = "timestamp_ms,x,y,z\n0,1,2,3\n40,4.5,-5,6e-3\n"
        path = tmp_path / f"ride.csv{suffix}"
        path.write_bytes(text.encode("ascii"))
        monkeypatch.setattr(np, "loadtxt", refuse)
        log = parse_sensor_csv(path)
        want = RawSensorLog(*parse_sensor_csv_lines(text)[:2])
        assert log.timestamps.tolist() == want.timestamps.tolist()
        assert log.values.tobytes() == want.values.tobytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe_is_read_once(self, tmp_path):
        fifo = tmp_path / "ride.csv"
        os.mkfifo(fifo)
        done = threading.Event()

        def write():
            fifo.write_bytes(b"timestamp_ms,x,y,z\n0,1,2,3\n40,4,5,6\n")
            # any later reader of the pipe, such as numpy opening the path
            # again, finds a writer that sends nothing
            while not done.is_set():
                try:
                    os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
                except OSError:  # no reader yet
                    time.sleep(0.01)

        writer = threading.Thread(target=write)
        writer.start()
        try:
            log = parse_sensor_csv(fifo)
        finally:
            done.set()
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert log.timestamps.tolist() == [0, 40]
        assert log.values.tolist() == [[1, 2, 3], [4, 5, 6]]

    def test_path_that_looks_like_a_url_is_read_from_disk(self, tmp_path, monkeypatch):
        # "http://localhost/ride.csv" names the file http:/localhost/ride.csv
        # here; numpy given that string would try to download it
        def refuse(*args, **kwargs):
            raise AssertionError("a CSV path was opened as a URL")

        (tmp_path / "http:" / "localhost").mkdir(parents=True)
        (tmp_path / "http:" / "localhost" / "ride.csv").write_text("timestamp_ms,x,y,z\n0,1,2,3\n40,4,5,6\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(urllib.request, "urlopen", refuse)
        monkeypatch.setattr(ingest, "_raise_first_bad_line", refuse)
        log = parse_sensor_csv("http://localhost/ride.csv")
        assert log.timestamps.tolist() == [0, 40]
        assert log.values.tolist() == [[1, 2, 3], [4, 5, 6]]


#: Padding around fields and blank lines. The grammar takes the plain kind,
#: a vertical tab around a field and a lone CR, which ends an empty line. It
#: rejects the rest, which the original line loop read: Unicode whitespace
#: (stripped by ``str.strip``, ``int`` and ``float`` alike) and
#: whitespace-only lines.
_PLAIN_PADS = ["", "", " ", "\t", "  "]
_ODD_PADS = ["\x0b", "\xa0", "\u2002"]
_PLAIN_BLANKS = [""]
_ODD_BLANKS = ["\r", " ", "\t", " \t ", "\x0c", "\u3000"]
_MANGLES = ("extra field", "empty field", "nan", "inf", "timestamp 1.5",
            "trailing comment", "quoted field", "int64 overflow")


@st.composite
def sensor_csv_files(draw):
    """Sensor CSV text that the original line loop reads, plus its body lines and which of them are rows.

    Returns (lines, row_indices, newlines, final_newline, odd): ``lines[0]``
    is the header, a row's 1-based line number is its index + 1, and only an
    ``odd`` file may pad or blank with ``_ODD_PADS`` or ``_ODD_BLANKS``.
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
    return lines, rows, newlines, draw(st.booleans()), odd


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


def lf_line_ends(text):
    """``text`` as a file read with universal newlines holds it."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def assert_matches_line_loop(text):
    """parse_sensor_csv of a file holding ``text`` against the grammar and the original line loop.

    A file that breaks the grammar raises MalformedLine for its first bad
    line. On any other, the parse gives what the line loop gives, bit for
    bit, or raises the same error.
    """
    bad_line = sensor_csv_grammar_violation(text)
    if bad_line is not None:
        with pytest.raises(MalformedLine) as err:
            parse_csv_text(text)
        assert err.value.line_no == bad_line
        return
    try:
        want = RawSensorLog(*parse_sensor_csv_lines(lf_line_ends(text))[:2])
    except TrailgradeError as want_err:
        with pytest.raises(TrailgradeError) as got_err:
            parse_csv_text(text)
        assert type(got_err.value) is type(want_err)
        assert getattr(got_err.value, "line_no", None) == getattr(want_err, "line_no", None)
        return
    log = parse_csv_text(text)
    assert log.timestamps.dtype == np.int64
    assert log.timestamps.tolist() == want.timestamps.tolist()
    assert log.values.shape == want.values.shape
    assert log.values.tobytes() == want.values.tobytes()  # -0.0 and every last bit


class TestParseMatchesLineLoop:
    """The parse against the grammar and the original line loop in tests/oracles.py."""

    @settings(max_examples=200, deadline=None)
    @given(sensor_csv_files())
    def test_valid_files_identical(self, case):
        lines, _, newlines, final_newline, odd = case
        text = render_csv(lines, newlines, final_newline)
        if not odd:
            assert sensor_csv_grammar_violation(text) is None
        assert_matches_line_loop(text)

    @settings(max_examples=200, deadline=None)
    @given(sensor_csv_files(), st.sampled_from(_MANGLES), st.data())
    def test_mangled_line_same_error(self, case, how, data):
        lines, rows, newlines, final_newline, _ = case
        row = data.draw(st.sampled_from(rows))
        lines[row] = mangle_row(lines[row], how, data.draw(st.integers(1, 3)))
        text = render_csv(lines, newlines, final_newline)
        # a blank line "\r" before a CRLF is a line of its own in a file
        row_line = lf_line_ends(render_csv(lines[:row], newlines, True)).count("\n") + 1
        earlier = sensor_csv_grammar_violation(render_csv(lines[:row], newlines, True))
        with pytest.raises(MalformedLine) as err:
            parse_csv_text(text)
        assert err.value.line_no == (row_line if earlier is None else earlier)
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


class TestNumberGrammar:
    """Spellings Python's ``int`` and ``float`` read, but the grammar does not, name their line."""

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("0,1_0,2,3", "unparseable record '0,1_0,2,3'"),
            ("\u0664\u0660,1,2,3", "byte 0xd9 is not ASCII"),  # Arabic-Indic 40
            ("\uff14\uff10,1,2,3", "byte 0xef is not ASCII"),  # fullwidth 40
        ],
    )
    def test_spelling_names_its_line(self, row, reason):
        text = f"timestamp_ms,x,y,z\n-40,1,2,3\n\n{row}\n80,1,2,3\n"
        with pytest.raises(MalformedLine, match=f"sensor\\.csv: line 4: {reason}$") as err:
            parse_csv_text(text)
        assert err.value.line_no == 4

    def test_whitespace_only_line_is_malformed(self):
        text = "timestamp_ms,x,y,z\n0,1,2,3\n \t \n40,1,2,3\n"
        with pytest.raises(MalformedLine, match=r"line 3: expected 4 fields, got 1$") as err:
            parse_csv_text(text)
        assert err.value.line_no == 3

    def test_last_of_90000_rows_named(self, tmp_path):
        rows = [f"{40 * i},{i},0.5,-1.5\n" for i in range(89_999)]
        path = tmp_path / "ride.csv"
        path.write_text(ingest.CSV_HEADER + "\n" + "".join(rows) + "3599960,1_0,2,3\n")
        with pytest.raises(MalformedLine) as err:
            parse_sensor_csv(path)
        assert err.value.line_no == 90_001


#: Characters a CSV body is drawn from: the valid ones, plus separators,
#: whitespace and controls the parsers treat differently.
_CSV_CHARS = "0123456789,.-+eEinfax_# \t\r\n\"\x00\x1c\x85\xa0\u2028\u0663\U0002c6ca"


def _manifest_texts():
    line = st.tuples(
        st.sampled_from(("name", *CHANNEL_ROLES, "# note", "", "other")),
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
            log = parse_csv_text(text)
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
        assert {"name", *CHANNEL_ROLES} <= set(entries)


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

    def test_samples_past_int64_after_start_dropped(self):
        # rebased, 2**63 - 1 still fits int64 and 2**63 would wrap negative
        t0 = -(2**62)
        logs = [log_from([t0, t0 + 40], [0, 1]) for _ in range(3)]
        logs.append(log_from([t0, t0 + 40, t0 + 2**63 - 1, t0 + 2**63], [2, 3, 4, 5]))
        synced = synchronize(logs)
        assert synced[3].timestamps.tolist() == [0, 40, 2**63 - 1]
        assert synced[3].values[:, 0].tolist() == [2, 3, 4]
        assert [s.timestamps.tolist() for s in synced[:3]] == [[0, 40]] * 3

    def test_only_samples_past_int64_after_start_is_empty(self):
        a = log_from([-(2**62), -(2**62) + 40], [0, 1])
        b = log_from([-(2**62) - 40, 2**62 + 1], [2, 3])
        with pytest.raises(EmptyAfterSync):
            synchronize([a, b, a, a])

    def test_empty_names_the_window_searched(self):
        # helmet_gyro has samples after t0, but all of them lie past t0 + 2**63 - 1
        stamps = [-9000000000000000000, -8999999999999999960]
        logs = [log_from(stamps, [0, 1]) for _ in range(3)]
        far = [-9100000000000000000, 9000000000000000000, 9000000000000000040]
        logs.append(log_from(far, [0, 1, 2]))
        message = r"^no samples in \[-9000000000000000000, 223372036854775807\] ms$"
        with pytest.raises(EmptyAfterSync, match=message) as err:
            synchronize(logs)
        assert err.value.index == 3

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
        channel = resample_linear(log_from([0, 80], [0.0, 1.0]), 80)
        assert channel.values[:, 0].tolist() == [0.0, 0.5, 1.0]
        assert channel.start_time_ms == 0

    def test_identity_on_grid(self):
        log = log_from([0, 40, 80, 120], [1.0, -2.0, 3.0, 0.25])
        channel = resample_linear(log, 120)
        assert np.array_equal(channel.values, log.values)

    def test_two_point_line_no_extrapolation(self):
        channel = resample_linear(log_from([0, 100], [0.0, 1.0]), 100)
        assert channel.length == 3  # 0, 40, 80 ms; nothing at 120
        assert np.allclose(channel.values[:, 0], [0.0, 0.4, 0.8])

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            resample_linear(log_from([0], [1.0]), 0)

    def test_idempotent_on_grid(self):
        log = log_from(np.arange(50) * 40, np.sin(np.arange(50)))
        once = resample_linear(log, 49 * 40)
        twice = resample_linear(channel_to_log(once), 49 * 40)
        assert np.max(np.abs(once.values - twice.values)) < 1e-12

    def test_values_within_bracketing_inputs(self, rng):
        timestamps = np.cumsum(rng.integers(10, 120, size=40))
        values = rng.normal(size=40)
        log = log_from(timestamps, values)
        channel = resample_linear(log, int(timestamps[-1]))
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
        channel = resample_linear(log_from([60, 100, 140], [0.0, 1.0, 2.0]), 140)
        assert channel.start_time_ms == 80
        assert channel.length == 2  # 80 and 120 ms

    def test_stops_at_the_end_it_is_given(self):
        # a log running on past end_ms yields the same points up to it, and no more
        log = log_from([0, 30, 10**15], [0.0, 3.0, 1.0])
        channel = resample_linear(log, 45)
        assert channel.length == 2  # 0 and 40 ms
        assert channel.values[:, 0].tolist() == np.interp([0, 40], [0, 30, 10**15], [0.0, 3.0, 1.0]).tolist()

    def test_log_starting_after_the_end_yields_its_first_point(self):
        channel = resample_linear(log_from([100, 200, 300], [0.0, 1.0, 2.0]), 50)
        assert channel.start_time_ms == 120
        assert channel.length == 1


class TestBuildSession:
    def make_channels(self, lengths, start=0):
        rng = np.random.default_rng(7)
        return [SensorChannel(start, rng.normal(size=(n, 3))) for n in lengths]

    def test_min_length_rule(self):
        session = build_session(self.make_channels([500, 500, 498, 500]))
        assert session.length_points == 498
        assert session.data.shape == (498, 4, 3)

    def test_missing_channel_rejected(self):
        with pytest.raises(WrongChannelSet):
            build_session(self.make_channels([10, 10, 10, 10])[:3])

    def test_mismatched_start_rejected(self):
        # one channel starts a period late, so the others drop their first point
        channels = self.make_channels([10, 10, 10, 10])
        late = SensorChannel(40, channels[3].values)
        session = build_session(channels[:3] + [late])
        assert session.start_time_ms == 40
        assert session.length_points == 9
        for row in range(3):
            assert np.array_equal(session.data[:, row], channels[row].values[1:])
        assert np.array_equal(session.data[:, 3], late.values[:9])

    def test_twenty_second_recording_via_resampler(self):
        # accelerometers at 12.5 Hz spanning [0, 20000]; gyroscopes emit 500
        # samples at 25 Hz, the last at 19960 ms -> common length is 500
        rng = np.random.default_rng(3)
        logs = []
        for role in CHANNEL_ROLES:
            if role.endswith("accel"):
                t = np.arange(251) * 80
            else:
                t = np.arange(500) * 40
            logs.append(RawSensorLog(t, rng.normal(size=(t.size, 3))))
        synced = synchronize(logs)
        end_ms = min(int(log.timestamps[-1]) for log in synced)
        channels = [resample_linear(log, end_ms) for log in synced]
        session = build_session(channels, name="ride")
        assert session.length_points == 500


class TestSessionHoldsOneCopy:
    def test_fields_are_name_start_and_data(self):
        fields = [f.name for f in dataclasses.fields(ingest.SyncedSession)]
        assert fields == ["name", "start_time_ms", "data"]

    def test_raw_log_fields_are_its_samples(self):
        fields = [f.name for f in dataclasses.fields(RawSensorLog)]
        assert fields == ["timestamps", "values"]

    def test_length_and_channels_derive_from_data(self):
        session = make_session(40, start_ms=120)
        assert session.length_points == len(session.data) == 40
        assert len(session.channels) == len(CHANNEL_ROLES)
        for i, channel in enumerate(session.channels):
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
            SensorChannel(start, np.random.default_rng(start + n).normal(size=(n, 3)))
            for start, n in zip(starts, lengths)
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
        offsets = dict(zip(CHANNEL_ROLES, (0, 55, 110, 15)))
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
            [SensorChannel(0, np.random.default_rng(5).normal(size=(37, 3))) for _ in CHANNEL_ROLES],
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
        session = build_session([SensorChannel(0, np.ones((5, 3))) for _ in CHANNEL_ROLES])
        path = tmp_path / "a.session"
        write_session_archive(session, path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(CorruptArchive):
            read_session_archive(path)

    def test_name_not_utf8_rejected(self, tmp_path):
        session = build_session(
            [SensorChannel(0, np.ones((5, 3))) for _ in CHANNEL_ROLES],
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

    def test_last_point_outside_int64_rejected(self, tmp_path):
        # every window start must fit the sample archive's int64 field
        last_start = 2**63 - 1 - 199 * PERIOD_MS
        for start, fits in ((last_start, True), (last_start + 1, False)):
            path = tmp_path / f"{start}.session"
            write_session_archive(make_session(200, start_ms=start), path)
            if fits:
                assert read_session_archive(path).start_time_ms == start
            else:
                with pytest.raises(CorruptArchive, match="outside int64"):
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

    def test_empty_csv_path_named_by_line_and_empty_name_allowed(self):
        text = "name=\nframe_accel=fa.csv\nframe_gyro=fg.csv\nhelmet_accel=ha.csv\nhelmet_gyro=hg.csv\n"
        assert parse_session_manifest(text)["name"] == ""
        with pytest.raises(MalformedManifest, match="^line 4: helmet_accel names no CSV file$"):
            parse_session_manifest(text.replace("ha.csv", ""))

    def test_load_session_end_to_end(self, tmp_path):
        rng = np.random.default_rng(11)
        roles = {role: np.arange(0, 4001, 80 if role.endswith("accel") else 40) for role in CHANNEL_ROLES}
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
        for role in CHANNEL_ROLES:
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

    @pytest.mark.parametrize("role", CHANNEL_ROLES)
    def test_csv_with_no_samples_after_the_common_start_is_named(self, tmp_path, role):
        manifest = write_ride(tmp_path)
        path = tmp_path / f"{role}.csv"
        path.write_text("timestamp_ms,x,y,z\n-80,1,2,3\n-40,1,2,3\n")
        with pytest.raises(EmptyAfterSync) as err:
            load_session(manifest)
        assert err.value.index == CHANNEL_ROLES.index(role)
        assert str(err.value) == f"{path}: no samples in [0, 9223372036854775807] ms"

    def test_undecodable_manifest_byte(self, tmp_path):
        manifest = write_ride(tmp_path)
        manifest.write_bytes(manifest.read_bytes().replace(b"frame_gyro=", b"frame_gyro\xe9="))
        with pytest.raises(MalformedManifest, match="line 3"):
            load_session(manifest)
