"""The binary formats stream: no read or write holds a second copy of the file.

Readers fill their result arrays from the open file, so a read peaks at its
decoded arrays plus the read buffer. Writers go through a CHUNK_BYTES buffer,
so a write peaks at about one chunk however long the file is. Every file
here is at least eight chunks long.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import make_session
from trailgrade.dataset import WindowSample, read_sample_archive, write_sample_archive
from trailgrade.framing import CHUNK_BYTES
from trailgrade.ingest import read_session_archive, write_session_archive
from trailgrade.nn.checkpoint import load_checkpoint, save_checkpoint
from trailgrade.nn.model import ModelConfig, build_model

#: What a read may hold beyond its decoded arrays: the read buffer, one span
#: of checkpoint values, the sample records. A second copy of the file is
#: at least 8 chunks.
READ_SLACK = 2 * CHUNK_BYTES
#: A write's buffer plus one sample record or one span of converted values.
WRITE_PEAK = 2 * CHUNK_BYTES


def _samples():
    rng = np.random.default_rng(6)
    return [WindowSample(rng.normal(size=(500, 4, 3)), i % 3, ("ride", 40 * i)) for i in range(200)]


def _sample_arrays(samples):
    # every window read back is a row of one float32 array
    return [samples[0].data.base]


def _checkpoint_arrays(loaded):
    params, _ = loaded
    return list(params.tensors.values())


#: format -> (a value whose file is at least 8 chunks, writer, reader, the reader's decoded arrays)
FORMATS = {
    "TGDS": (_samples, write_sample_archive, read_sample_archive, _sample_arrays),
    "TGSS": (
        lambda: make_session(25_000, name="ride", seed=6),
        write_session_archive,
        read_session_archive,
        lambda session: [session.data],
    ),
    "TGM1": (
        lambda: build_model(ModelConfig(window_points=1000, kernel_len=5), np.random.default_rng(6)),
        save_checkpoint,
        load_checkpoint,
        _checkpoint_arrays,
    ),
}


def _traced(call):
    """(result, traced peak in bytes) of ``call()``."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", FORMATS)
def test_read_peaks_at_its_decoded_arrays(tmp_path, name):
    make, write, read, arrays = FORMATS[name]
    path = tmp_path / name
    write(make(), path)
    assert path.stat().st_size >= 8 * CHUNK_BYTES
    result, peak = _traced(lambda: read(path))
    assert peak < sum(a.nbytes for a in arrays(result)) + READ_SLACK


@pytest.mark.parametrize("name", FORMATS)
def test_write_peaks_below_two_chunks(tmp_path, name):
    make, write, _, _ = FORMATS[name]
    value = make()
    path = tmp_path / name
    _, peak = _traced(lambda: write(value, path))
    assert path.stat().st_size >= 8 * CHUNK_BYTES
    assert peak < WRITE_PEAK
