import os
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from trailgrade.ingest import CHANNEL_ROLES, PERIOD_MS, SensorChannel, build_session, parse_sensor_csv
from trailgrade.labeling import LabelTrack
from trailgrade.nn import model
from trailgrade.nn.model import ModelConfig


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion, capture or not."""
    if report.when != "call" or "test_criterion_" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1].replace("test_criterion_", "")
    number, _, slug = name.partition("_")
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"\n{verdict}  acceptance criterion {number} ({slug.replace('_', ' ')}) "
        f"in {report.duration:.1f}s",
        flush=True,
    )


SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh_python(code):
    """stdout of `code` run in a new interpreter that imports trailgrade from src/."""
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def make_session(length, name="sess", start_ms=0, seed=0):
    """A session of `length` points with distinct, reproducible values."""
    rng = np.random.default_rng(seed)
    channels = [SensorChannel(start_ms, rng.normal(size=(length, 3))) for _ in CHANNEL_ROLES]
    session = build_session(channels, name=name)
    return session


def full_track(session, label=1):
    """A track labeling the session's whole time span with one label."""
    end = session.start_time_ms + session.length_points * PERIOD_MS
    return LabelTrack(((session.start_time_ms, end, label),))


def parse_csv_text(text):
    """``parse_sensor_csv`` of a file that holds ``text`` as UTF-8, line ends untouched."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "sensor.csv"
        path.write_bytes(text.encode("utf-8"))
        return parse_sensor_csv(path)


def write_ride(directory, name="ride1"):
    """Four small 25 Hz sensor CSVs and their manifest; returns the manifest path."""
    for i, role in enumerate(CHANNEL_ROLES):
        rows = ["timestamp_ms,x,y,z"] + [f"{t},{i},{t / 1000},-1.5" for t in range(0, 4001, 40)]
        (directory / f"{role}.csv").write_text("\n".join(rows) + "\n")
    manifest = directory / "session.toml"
    manifest.write_text(f"name={name}\n" + "".join(f"{r}={r}.csv\n" for r in CHANNEL_ROLES), encoding="utf-8")
    return manifest


@contextmanager
def narrowed_network(filters=(2, 3, 4), dense_units=5):
    """The network with these widths in place of the paper's, inside the block.

    The paper fixes (4, 8, 16) filters and 128 dense units. The layers read
    every shape from their tensors, so a narrow network runs the same code,
    and checking each of its gradient coordinates, or each byte of its
    checkpoint, takes seconds instead of minutes.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "FILTERS", filters)
        patch.setattr(model, "DENSE_UNITS", dense_units)
        yield


@pytest.fixture
def tiny():
    """A window-8, kernel-3 config of the network narrowed to (2, 3, 4) filters and 5 dense units."""
    with narrowed_network():
        yield ModelConfig(window_points=8, kernel_len=3)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
