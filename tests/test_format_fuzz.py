"""Truncated or altered binary files load or raise their format's error, nothing else.

Both archives raise CorruptArchive. A checkpoint raises VersionMismatch when its
first five bytes (magic and version) are not those of a valid file, and
CorruptCheckpoint for anything else.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_session
from trailgrade.dataset import WindowSample, read_sample_archive, write_sample_archive
from trailgrade.errors import CorruptArchive, CorruptCheckpoint, TrailgradeError, VersionMismatch
from trailgrade.ingest import read_session_archive, write_session_archive
from trailgrade.nn.checkpoint import load_checkpoint, save_checkpoint
from trailgrade.nn.model import ModelConfig, build_model


def _write_session(path):
    write_session_archive(make_session(3, name="ride"), path)


def _write_samples(path):
    rng = np.random.default_rng(3)
    samples = [WindowSample(rng.normal(size=(2, 4, 3)), label, ("ride", 80 * label)) for label in (0, 2)]
    write_sample_archive(samples, path)


def _write_checkpoint(path):
    config = ModelConfig(window_points=2, kernel_len=1, filters=(1, 1, 1), dense_units=1)
    save_checkpoint(build_model(config, np.random.default_rng(0)), path)


#: format name -> (writer of one small valid file, reader)
FORMATS = {
    "TGSS": (_write_session, read_session_archive),
    "TGDS": (_write_samples, read_sample_archive),
    "TGM1": (_write_checkpoint, load_checkpoint),
}


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """The bytes of each valid file, and a scratch path its variants are read from."""
    root = tmp_path_factory.mktemp("formats")
    out = {}
    for name, (write, read) in FORMATS.items():
        path = root / name
        write(path)
        read(path)
        out[name] = (path.read_bytes(), root / f"{name}.variant")
    return out


def _expected_error(name, original, data):
    if name != "TGM1":
        return CorruptArchive
    return VersionMismatch if data[:5] != original[:5] else CorruptCheckpoint


def _loads_or_raises_typed(name, originals, data):
    original, path = originals[name]
    path.write_bytes(data)
    try:
        FORMATS[name][1](path)
    except TrailgradeError as exc:
        assert type(exc) is _expected_error(name, original, data), repr(exc)


@pytest.mark.parametrize("name", FORMATS)
def test_every_truncation(originals, name):
    data, _ = originals[name]
    for n in range(len(data)):
        _loads_or_raises_typed(name, originals, data[:n])


@pytest.mark.parametrize("name", FORMATS)
@settings(max_examples=300, deadline=None)
@given(draw=st.data())
def test_any_single_byte_change(originals, name, draw):
    data, _ = originals[name]
    changed = bytearray(data)
    changed[draw.draw(st.integers(0, len(data) - 1))] = draw.draw(st.integers(0, 255))
    _loads_or_raises_typed(name, originals, bytes(changed))
