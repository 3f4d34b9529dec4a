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
from ..framing import CHUNK_BYTES, Reader
from .model import BN_EPSILON, BN_MOMENTUM, CLASSES, DROPOUT_RATE, ModelConfig, ModelParams, param_shapes

_MAGIC = b"TGM1"
_VERSION = 2  # 1 stored a bias per conv layer
#: Values converted between float64 and the stored float32 at once.
_SPAN = CHUNK_BYTES // 8

#: The fixed network settings the layout still stores, checked on load.
_FIXED = {
    "classes": CLASSES,
    "dropout_rate": DROPOUT_RATE,
    "bn_momentum": BN_MOMENTUM,
    "bn_epsilon": BN_EPSILON,
}


def _config_text(config: ModelConfig) -> str:
    lines = [f"window_points = {config.window_points}", f"kernel_len = {config.kernel_len}"]
    lines.append(f"filters = {config.filters[0]},{config.filters[1]},{config.filters[2]}")
    lines += [f"dense_units = {config.dense_units}", f"classes = {CLASSES}"]
    lines += [f"dropout_rate = {DROPOUT_RATE!r}", f"l2_coeff = {config.l2_coeff!r}"]
    lines += [f"bn_momentum = {BN_MOMENTUM!r}", f"bn_epsilon = {BN_EPSILON!r}"]
    return "\n".join(lines) + "\n"


def save_checkpoint(params: ModelParams, path):
    """Write params + config to `path` and a readable config to `path`.txt.

    The file streams through a CHUNK_BYTES buffer, each tensor rounded to
    float32 a span at a time.
    """
    cfg = params.config
    names = list(param_shapes(cfg))
    with open(path, "wb", buffering=CHUNK_BYTES) as out:
        sizes = (cfg.window_points, cfg.kernel_len, *cfg.filters, cfg.dense_units, CLASSES)
        settings = (DROPOUT_RATE, cfg.l2_coeff, BN_MOMENTUM, BN_EPSILON)
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
    an invalid configuration, a stored fixed setting (classes, dropout rate,
    batchnorm momentum or epsilon) other than the network's, a non-finite
    tensor value, a negative batchnorm running variance or a structurally
    invalid body raise CorruptCheckpoint.
    """
    with Reader(path, CorruptCheckpoint, "checkpoint") as reader:
        if reader.size < 5 or reader.take(4) != _MAGIC:
            raise VersionMismatch(f"{path}: not a model checkpoint (bad magic)")
        if reader.take(1)[0] != _VERSION:
            raise VersionMismatch(f"{path}: unsupported checkpoint version")
        ints = reader.unpack("<7I")
        floats = reader.unpack("<4d")
        stored = dict(zip(_FIXED, (ints[6], floats[0], floats[2], floats[3])))
        for name, value in stored.items():
            if value != _FIXED[name]:
                raise reader.error(f"stored {name} {value!r}, the network's is {_FIXED[name]!r}")
        try:
            config = ModelConfig(
                window_points=ints[0],
                kernel_len=ints[1],
                filters=tuple(ints[2:5]),
                dense_units=ints[5],
                l2_coeff=floats[1],
            )
        except (TrailgradeError, ValueError) as exc:
            raise reader.error(f"invalid configuration ({exc})") from None

        expected = param_shapes(config)
        (count,) = reader.unpack("<H")
        if count != len(expected):
            raise reader.error(f"expected {len(expected)} tensors, file says {count}")
        tensors = {}
        for name in expected:
            (name_len,) = reader.unpack("<H")
            stored = reader.utf8(name_len, "tensor name")
            if stored != name:
                raise reader.error(f"tensor {stored!r} where {name!r} was expected")
            (ndim,) = reader.unpack("<B")
            shape = reader.unpack(f"<{ndim}I")
            if shape != expected[name]:
                raise reader.error(f"{name} has shape {shape}, expected {expected[name]}")
            tensors[name] = _read_tensor(reader, name, shape)
            if name.endswith("/var") and (tensors[name] < 0).any():
                raise reader.error(f"{name} holds a negative variance")
        reader.finish()
    return ModelParams(config, tensors), config
