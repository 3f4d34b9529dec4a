"""A minimal differentiable-network engine for the stacked IMU architecture."""

from .adam import AdamState, adam_step, init_adam
from .checkpoint import load_checkpoint, save_checkpoint
from .model import (
    ForwardCache,
    ModelConfig,
    ModelParams,
    backward,
    build_model,
    forward,
    l2_penalty,
    param_shapes,
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
    "forward",
    "l2_penalty",
    "param_shapes",
]
