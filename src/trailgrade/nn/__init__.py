"""A minimal differentiable-network engine for the stacked IMU architecture."""

from . import adam, checkpoint, model, ops
