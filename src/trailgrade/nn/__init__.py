"""A minimal differentiable-network engine for the stacked IMU architecture."""

from .adam import AdamState, adam_step, init_adam
from .checkpoint import load_checkpoint, save_checkpoint
from .model import (
    ForwardCache,
    ModelConfig,
    ModelParams,
    backward,
    build_model,
    conv_kernels,
    forward,
    param_shapes,
    parameter_count,
    trainable_keys,
)

__all__ = [
    "AdamState",
    "adam_step",
    "init_adam",
    "load_checkpoint",
    "save_checkpoint",
    "ForwardCache",
    "ModelConfig",
    "ModelParams",
    "backward",
    "build_model",
    "conv_kernels",
    "forward",
    "param_shapes",
    "parameter_count",
    "trainable_keys",
]
