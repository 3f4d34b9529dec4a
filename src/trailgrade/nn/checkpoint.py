"""Binary model checkpoints.

Layout: magic ``TGM1``, a format-version byte, the model configuration, then
every stored tensor in canonical order as little-endian float32 with a shape
header. A ``<path>.txt`` sidecar mirrors the configuration for humans.
Saving float64 parameters rounds them to float32; a save/load/save cycle is
bit-identical.
"""

import math
import struct
from pathlib import Path

import numpy as np

from ..errors import CorruptCheckpoint, TrailgradeError, VersionMismatch
from ..framing import CHUNK_BYTES, Reader, naming
from . import model
from .model import ModelConfig, ModelParams, param_shapes

_MAGIC = b"TGM1"
_VERSION = 2  # 1 stored a bias per conv layer
#: Values converted between float64 and the stored float32 at once.
_SPAN = CHUNK_BYTES // 8


def _fixed() -> dict:
    """The fixed network settings in the order the layout stores them, read from ``model`` at each call."""
    names = ("FILTERS", "DENSE_UNITS", "CLASSES", "DROPOUT_RATE", "L2_COEFF", "BN_MOMENTUM", "BN_EPSILON")
    return {name.lower(): getattr(model, name) for name in names}


def _config_text(config: ModelConfig) -> str:
    lines = [f"window_points = {config.window_points}", f"kernel_len = {config.kernel_len}"]
    for name, value in _fixed().items():
        lines.append(f"{name} = {','.join(map(str, value)) if name == 'filters' else repr(value)}")
    return "\n".join(lines) + "\n"


def save_checkpoint(params: ModelParams, path):
    """Write params + config to `path` and a readable config to `path`.txt.

    The file streams through a CHUNK_BYTES buffer, each tensor rounded to
    float32 a span at a time.
    """
    cfg = params.config
    names = list(param_shapes(cfg))
    with open(path, "wb", buffering=CHUNK_BYTES) as out:
        filters, *settings = _fixed().values()
        sizes = (cfg.window_points, cfg.kernel_len, *filters)
        out.write(struct.pack("<4sB7I4dH", _MAGIC, _VERSION, *sizes, *settings, len(names)))
        for name in names:
            arr = params.tensors[name]
            encoded = name.encode("utf-8")
            header = f"<H{len(encoded)}sB{arr.ndim}I"
            out.write(struct.pack(header, len(encoded), encoded, arr.ndim, *arr.shape))
            flat = arr.reshape(-1)
            for lo in range(0, flat.size, _SPAN):
                out.write(flat[lo : lo + _SPAN].astype("<f4"))
    Path(str(path) + ".txt").write_text(_config_text(cfg))


def _read_tensor(reader, name, shape):
    """A stored float32 tensor as float64, converted a span at a time.

    Finiteness is checked on the stored values: casting a signalling NaN to
    float64 would raise a warning, not the format's error.
    """
    size = math.prod(shape)
    reader.require(4 * size)  # before allocating
    out = np.empty(size)
    span = np.empty(min(size, _SPAN), dtype="<f4")
    for lo in range(0, size, _SPAN):
        part = span[: size - lo]
        reader.readinto(part)
        reader.require_finite(part, f"{name} holds non-finite values")
        out[lo : lo + part.size] = part
    return out.reshape(shape)


def load_checkpoint(path):
    """Read a checkpoint back as (params, config).

    Wrong magic or version raise VersionMismatch; truncation, trailing bytes,
    an invalid configuration, a stored ``_fixed()`` setting other than the
    network's, a non-finite tensor value, a negative batchnorm running
    variance or a structurally invalid body raise CorruptCheckpoint. Each names the file.
    """
    with naming(path), Reader(path, CorruptCheckpoint, "checkpoint") as reader:
        if reader.size < 5 or reader.take(4) != _MAGIC:
            raise VersionMismatch("not a model checkpoint (bad magic)")
        if reader.take(1)[0] != _VERSION:
            raise VersionMismatch("unsupported checkpoint version")
        ints = reader.unpack("<7I")
        floats = reader.unpack("<4d")
        fixed = _fixed()
        stored = dict(zip(fixed, (ints[2:5], *ints[5:], *floats)))
        for name, value in stored.items():
            if value != fixed[name]:
                raise CorruptCheckpoint(f"stored {name} {value!r}, the network's is {fixed[name]!r}")
        try:
            config = ModelConfig(window_points=ints[0], kernel_len=ints[1])
        except (TrailgradeError, ValueError) as exc:
            raise CorruptCheckpoint(f"invalid configuration ({exc})") from None

        expected = param_shapes(config)
        (count,) = reader.unpack("<H")
        if count != len(expected):
            raise CorruptCheckpoint(f"expected {len(expected)} tensors, file says {count}")
        tensors = {}
        for name in expected:
            (name_len,) = reader.unpack("<H")
            stored = reader.utf8(name_len, "tensor name")
            if stored != name:
                raise CorruptCheckpoint(f"tensor {stored!r} where {name!r} was expected")
            (ndim,) = reader.unpack("<B")
            shape = reader.unpack(f"<{ndim}I")
            if shape != expected[name]:
                raise CorruptCheckpoint(f"{name} has shape {shape}, expected {expected[name]}")
            tensors[name] = _read_tensor(reader, name, shape)
            if name.endswith("/var") and (tensors[name] < 0).any():
                raise CorruptCheckpoint(f"{name} holds a negative variance")
        reader.finish()
    return ModelParams(config, tensors), config
