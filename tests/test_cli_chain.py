"""One property over the CLI chain: ingest, label, window, train and eval.

A small valid input set (a synthetic ride's four sensor CSVs, its manifest, a
label track, an overrides CSV and an OSM export) gets one mutation. The chain
then runs through ``cli.main`` in process and stops at the first non-zero
exit. Whatever the mutation:
- every exit is 0, 2 or 3, and no exception escapes ``main``;
- a non-zero exit prints exactly one stderr line;
- when the failing step reads a mutated file, that line names a file the
  step reads at its front;
- a step that exits 0 writes what the next step accepts.

The line may name another of the step's files than the mutated one: a CSV
whose rows all move later leaves the other three with no samples in the
common span, and the error names the first of those.
"""

import contextlib
import io
import re
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import narrowed_network
from trailgrade.cli import main
from trailgrade.dataset import read_sample_archive
from trailgrade.ingest import CHANNEL_ROLES, RawSensorLog, parse_file, read_session_archive, write_sensor_csv
from trailgrade.errors import MalformedLine
from trailgrade.labeling import read_label_track_csv
from trailgrade.nn.checkpoint import load_checkpoint

SENSOR_CSVS = tuple(f"{role}.csv" for role in CHANNEL_ROLES)
TEXT_CSVS = (*SENSOR_CSVS, "base.csv", "ovr.csv")


@lru_cache(maxsize=None)
def valid_inputs() -> dict:
    """File name -> bytes of the valid input set: a 12 s ride at 100 Hz, labeled in three parts."""
    rng = np.random.default_rng(28)
    files = {}
    for name in SENSOR_CSVS:
        timestamps = np.arange(int(rng.integers(0, 10)), 12_000, 10)
        values = np.sin(timestamps[:, None] / 300.0 + rng.normal(size=3)) + 0.1 * rng.normal(size=(len(timestamps), 3))
        files[name] = write_sensor_csv(RawSensorLog(timestamps, values)).encode()
    files["session.toml"] = ("name=ride\n" + "".join(f"{role}={role}.csv\n" for role in CHANNEL_ROLES)).encode()
    files["base.csv"] = b"start_ms,end_ms,label\n0,4000,0\n4000,8000,1\n8000,12000,2\n"
    files["ovr.csv"] = b"start_ms,end_ms,label\n2000,3000,2\n"
    files["area.osm"] = b'<osm>\n<way id="12">\n<tag k="mtb:scale" v="2"/>\n</way>\n</osm>\n'
    return files


#: Values at an extreme, put in place of one number of a file.
EXTREMES = (
    "9223372036854775808", "-9223372036854775808", "9223372036854775807",
    "1.7e308", "-1.7e308", "5e-324", "-0.0",
)
_NUMBER = re.compile(rb"-?\d+(?:\.\d*)?(?:e-?\d+)?")


@st.composite
def mutations(draw):
    """One mutation: (kind, file name, argument)."""
    files = valid_inputs()
    kind = draw(st.sampled_from(("flip", "cut", "duplicate", "swap", "value", "gap")))
    names = {"gap": TEXT_CSVS, "value": tuple(n for n in files if _NUMBER.search(files[n]))}
    name = draw(st.sampled_from(names.get(kind, tuple(files))))
    data = files[name]
    lines = data.count(b"\n")
    if kind == "flip":
        return kind, name, (draw(st.integers(0, len(data) - 1)), draw(st.integers(0, 7)))
    if kind == "cut":
        return kind, name, draw(st.integers(0, len(data) - 1))
    if kind == "duplicate":
        return kind, name, draw(st.integers(0, lines - 1))
    if kind == "swap":
        return kind, name, tuple(draw(st.lists(st.integers(0, lines - 1), min_size=2, max_size=2, unique=True)))
    if kind == "value":
        return kind, name, (draw(st.integers(0, len(_NUMBER.findall(data)) - 1)), draw(st.sampled_from(EXTREMES)))
    # a gap: the rows from line `first + 2` on start `shift` ms later
    return kind, name, (draw(st.integers(0, lines - 2)), draw(st.sampled_from((1, 40, 10**6, 2**62))))


def mutated(mutation) -> tuple:
    """The input set with ``mutation`` applied, and the names of the files it changed."""
    files = dict(valid_inputs())
    kind, name, arg = mutation
    if kind == "ride":  # every sensor CSV holds the rows ``arg``
        files.update((csv, b"timestamp_ms,x,y,z\n" + arg) for csv in SENSOR_CSVS)
        return files, set(SENSOR_CSVS)
    data = files[name]
    lines = data.split(b"\n")
    if kind == "flip":
        at, bit = arg
        data = data[:at] + bytes([data[at] ^ 1 << bit]) + data[at + 1 :]
    elif kind == "cut":
        data = data[:arg]
    elif kind == "duplicate":
        data = b"\n".join(lines[: arg + 1] + lines[arg:])
    elif kind == "swap":
        i, j = arg
        lines[i], lines[j] = lines[j], lines[i]
        data = b"\n".join(lines)
    elif kind == "value":
        index, value = arg
        match = list(_NUMBER.finditer(data))[index]
        data = data[: match.start()] + value.encode() + data[match.end() :]
    elif kind == "gap":
        first, shift = arg
        for i in range(1 + first, len(lines)):
            if lines[i]:
                stamp, _, rest = lines[i].partition(b",")
                lines[i] = str(int(stamp) + shift).encode() + b"," + rest
        data = b"\n".join(lines)
    files[name] = data
    return files, {name} if data != valid_inputs()[name] else set()


def _read_track(path):
    return parse_file(path, read_label_track_csv, MalformedLine)


def chain(d: Path):
    """Each step in ``d``: (argv, the input files it reads, None or its output and a reader that accepts it)."""
    return [
        (["ingest", "--session", d / "session.toml", "--out", d / "ride.session"],
         {"session.toml", *SENSOR_CSVS}, (d / "ride.session", read_session_archive)),
        (["label", "--osm", d / "area.osm", "--way", "12"], {"area.osm"}, None),
        (["label", "--track", d / "base.csv", "--overrides", d / "ovr.csv", "--out", d / "track.csv"],
         {"base.csv", "ovr.csv"}, (d / "track.csv", _read_track)),
        (["window", "--session", d / "ride.session", "--track", d / "track.csv", "--window-ms", "1000",
          "--out", d / "samples.tgds"], set(), (d / "samples.tgds", read_sample_archive)),
        (["train", "--samples", d / "samples.tgds", "--kernel-len", "5", "--seed", "1", "--max-epochs", "1",
          "--out-model", d / "model.ckpt", "--out-history", d / "history.csv"],
         set(), (d / "model.ckpt", load_checkpoint)),
        (["eval", "--model", d / "model.ckpt", "--samples", d / "samples.tgds",
          "--out-confusion", d / "confusion.csv"], set(), None),
    ]


#: The resample-overflow ride: x alternates between -1.7e308 and +1.7e308
#: every 7 ms, so np.interp's slope overflows between two finite samples
OVERFLOW_RIDE = "".join(f"{7 * i},{(-1.7e308, 1.7e308)[i % 2]!r},1.0,2.0\n" for i in range(10)).encode()


def run_chain(files: dict, changed: set):
    """Write ``files`` to a fresh directory and run the chain on them, checking each step.

    Returns the exit code of each step run: up to the first non-zero one.
    """
    codes = []
    with tempfile.TemporaryDirectory() as directory, narrowed_network():
        d = Path(directory)
        for name, data in files.items():
            (d / name).write_bytes(data)
        for argv, reads, output in chain(d):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                codes.append(main([str(a) for a in argv]))
            line = err.getvalue()
            assert codes[-1] in (0, 2, 3), (argv[0], codes[-1], line)
            if codes[-1]:
                assert line.count("\n") == 1 and line.endswith("\n"), line
                if reads & changed:
                    reason = line.partition(": ")[2]
                    named = any(reason.startswith(f"{d / name}: ") for name in reads)
                    assert named, line
                return codes
            assert line == ""
            if output is not None:
                path, read = output
                read(path)
    return codes


def test_the_valid_input_set_runs_the_whole_chain():
    assert run_chain(valid_inputs(), set()) == [0] * 6


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(mutation=mutations())
@example(mutation=("ride", None, OVERFLOW_RIDE))
@example(mutation=("value", "area.osm", (1, "9223372036854775808")))  # an unknown grade
@example(mutation=("value", "helmet_accel.csv", (325, "1.7e308")))  # a sample beyond float32
def test_every_step_exits_typed_and_names_the_file_at_fault(mutation):
    run_chain(*mutated(mutation))
