"""Truncated or altered binary files load or raise their format's error, nothing else.

Both archives raise CorruptArchive. A checkpoint raises VersionMismatch when its
first five bytes (magic and version) are not those of a valid file, and
CorruptCheckpoint for anything else. Every error names the file at its front. No
load warns or leaves its file open.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_session, narrowed_network
from trailgrade import framing
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
    config = ModelConfig(window_points=2, kernel_len=1)
    save_checkpoint(build_model(config, np.random.default_rng(0)), path)


@pytest.fixture(scope="module", autouse=True)
def narrowest_network():
    """One filter per conv block and one dense unit: a 558-byte checkpoint whose every byte is varied."""
    with narrowed_network((1, 1, 1), 1):
        yield


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
        assert str(exc).startswith(f"{path}: "), repr(exc)


@pytest.fixture
def opened(monkeypatch):
    """Every file a Reader opens, so a test can check that each was closed."""
    files = []

    def recording_open(*args, **kwargs):
        files.append(open(*args, **kwargs))
        return files[-1]

    monkeypatch.setattr(framing, "open", recording_open, raising=False)
    return files


def _each_loads_or_raises_typed(name, originals, variants, opened):
    for data in variants:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _loads_or_raises_typed(name, originals, data)
        assert opened and all(f.closed for f in opened), "a reader left its file open"
        opened.clear()


@pytest.mark.parametrize("name", FORMATS)
def test_every_truncation(originals, opened, name):
    data, _ = originals[name]
    _each_loads_or_raises_typed(name, originals, (data[:n] for n in range(len(data))), opened)


@pytest.mark.parametrize("name", FORMATS)
def test_every_byte_set_to_each_edge_value(originals, opened, name):
    # 0x7F and 0xFF in the top byte of a float32 make signalling NaNs, which
    # warn when cast to float64 unless the stored values are checked first
    data, _ = originals[name]

    def variants():
        for i in range(len(data)):
            for value in (0x00, 0x7F, 0x80, 0xFF):
                changed = bytearray(data)
                changed[i] = value
                yield bytes(changed)

    _each_loads_or_raises_typed(name, originals, variants(), opened)


@pytest.mark.parametrize("name", FORMATS)
@settings(max_examples=300, deadline=None)
@given(draw=st.data())
def test_any_single_byte_change(originals, name, draw):
    data, _ = originals[name]
    changed = bytearray(data)
    changed[draw.draw(st.integers(0, len(data) - 1))] = draw.draw(st.integers(0, 255))
    _loads_or_raises_typed(name, originals, bytes(changed))
