import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trailgrade.ingest import CHANNEL_ORDER, PERIOD_MS, SensorChannel, build_session
from trailgrade.labeling import LabelTrack


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
    channels = [
        SensorChannel(kind, mount, start_ms, rng.normal(size=(length, 3)))
        for mount, kind in CHANNEL_ORDER
    ]
    session = build_session(channels, name=name)
    return session


def full_track(session, label=1):
    """A track labeling the session's whole time span with one label."""
    end = session.start_time_ms + int(round(session.length_points * PERIOD_MS))
    return LabelTrack(((session.start_time_ms, end, label),))


RIDE_ROLES = ("frame_accel", "frame_gyro", "helmet_accel", "helmet_gyro")


def write_ride(directory, name="ride1"):
    """Four small 25 Hz sensor CSVs and their manifest; returns the manifest path."""
    for i, role in enumerate(RIDE_ROLES):
        rows = ["timestamp_ms,x,y,z"] + [f"{t},{i},{t / 1000},-1.5" for t in range(0, 4001, 40)]
        (directory / f"{role}.csv").write_text("\n".join(rows) + "\n")
    manifest = directory / "session.toml"
    manifest.write_text(f"name={name}\n" + "".join(f"{r}={r}.csv\n" for r in RIDE_ROLES))
    return manifest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
