"""Binary model checkpoints.

Layout: magic ``TGM1``, a format-version byte, the model configuration, then
every stored tensor in canonical order as little-endian float32 with a shape
header. A ``<path>.txt`` sidecar mirrors the configuration for humans.
Saving float64 parameters rounds them to float32; a save/load/save cycle is
bit-identical.
"""

import struct
from pathlib import Path

import numpy as np

from ..errors import CorruptCheckpoint, TrailgradeError, VersionMismatch
from ..framing import Reader
from .model import ModelConfig, ModelParams, param_shapes

_MAGIC = b"TGM1"
_VERSION = 1

_CONFIG_FIELDS_FLOAT = ("dropout_rate", "l2_coeff", "bn_momentum", "bn_epsilon")


def _config_text(config: ModelConfig) -> str:
    lines = [f"window_points = {config.window_points}", f"kernel_len = {config.kernel_len}"]
    lines.append(f"filters = {config.filters[0]},{config.filters[1]},{config.filters[2]}")
    lines += [f"{name} = {getattr(config, name)}" for name in ("dense_units", "classes")]
    lines += [f"{name} = {getattr(config, name)!r}" for name in _CONFIG_FIELDS_FLOAT]
    return "\n".join(lines) + "\n"


def save_checkpoint(params: ModelParams, path):
    """Write params + config to `path` and a readable config to `path`.txt."""
    cfg = params.config
    buf = bytearray()
    buf += _MAGIC
    buf.append(_VERSION)
    buf += struct.pack(
        "<7I",
        cfg.window_points,
        cfg.kernel_len,
        *cfg.filters,
        cfg.dense_units,
        cfg.classes,
    )
    buf += struct.pack("<4d", cfg.dropout_rate, cfg.l2_coeff, cfg.bn_momentum, cfg.bn_epsilon)
    names = list(param_shapes(cfg))
    buf += struct.pack("<H", len(names))
    for name in names:
        arr = params.tensors[name]
        encoded = name.encode("utf-8")
        buf += struct.pack("<H", len(encoded)) + encoded
        buf += struct.pack("<B", arr.ndim)
        buf += struct.pack(f"<{arr.ndim}I", *arr.shape)
        buf += arr.astype("<f4").tobytes()
    path = Path(path)
    path.write_bytes(bytes(buf))
    Path(str(path) + ".txt").write_text(_config_text(cfg))


def load_checkpoint(path):
    """Read a checkpoint back as (params, config).

    Wrong magic or version raise VersionMismatch; truncation, trailing bytes,
    an invalid configuration, a non-finite tensor value or a structurally
    invalid body raise CorruptCheckpoint.
    """
    reader = Reader(path, CorruptCheckpoint, "checkpoint")
    if len(reader.data) < 5 or reader.take(4) != _MAGIC:
        raise VersionMismatch(f"{path}: not a model checkpoint (bad magic)")
    if reader.take(1)[0] != _VERSION:
        raise VersionMismatch(f"{path}: unsupported checkpoint version")
    ints = reader.unpack("<7I")
    floats = reader.unpack("<4d")
    try:
        config = ModelConfig(
            window_points=ints[0],
            kernel_len=ints[1],
            filters=tuple(ints[2:5]),
            dense_units=ints[5],
            classes=ints[6],
            dropout_rate=floats[0],
            l2_coeff=floats[1],
            bn_momentum=floats[2],
            bn_epsilon=floats[3],
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
        size = int(np.prod(shape)) if shape else 1
        raw = reader.take(4 * size)
        tensors[name] = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(shape)
        if not np.isfinite(tensors[name]).all():
            raise reader.error(f"{name} holds non-finite values")
    reader.finish()
    return ModelParams(config, tensors), config
