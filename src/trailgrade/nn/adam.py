"""Adam optimizer with bias-corrected first and second moments."""

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeMismatch
from .model import ModelParams, is_trainable

#: The paper's learning rate; Adam's betas and epsilon are the usual defaults.
LEARNING_RATE = 1e-3
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0


def init_adam(params: ModelParams) -> AdamState:
    """Zeroed moment tensors for every trainable parameter."""
    trainable = [k for k in params.tensors if is_trainable(k)]
    return AdamState(
        m={k: np.zeros_like(params.tensors[k]) for k in trainable},
        v={k: np.zeros_like(params.tensors[k]) for k in trainable},
    )


def adam_step(params: ModelParams, grads: dict, state: AdamState):
    """One update: m, v <- moving moments of g, g^2; step by
    LEARNING_RATE * m_hat / (sqrt(v_hat) + EPSILON).

    Mutates params and state in place and returns both; params.step is bumped
    so stale forward caches can be detected. Each float64 gradient is used as
    scratch, so ``grads`` holds no gradient afterwards.
    """
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    for key, g in grads.items():
        if key not in state.m:
            raise ShapeMismatch(f"gradient for unknown parameter {key!r}")
        if g.shape != params.tensors[key].shape:
            raise ShapeMismatch(
                f"{key}: gradient shape {g.shape} does not match parameter {params.tensors[key].shape}"
            )
        m, v = state.m[key], state.v[key]
        # every product and quotient below is the one the textbook formula
        # makes, in its order; only the buffers differ: one temporary, and g
        scratch = np.multiply(g, g)
        scratch *= 1.0 - BETA2
        v *= BETA2
        v += scratch
        g *= 1.0 - BETA1
        m *= BETA1
        m += g
        np.divide(v, bc2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += EPSILON
        np.divide(m, bc1, out=g)
        g *= LEARNING_RATE
        g /= scratch
        params.tensors[key] -= g
    params.step += 1
    return params, state
