"""Adam optimizer with bias-corrected first and second moments."""

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeMismatch
from .model import ModelParams, is_trainable


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


def init_adam(params: ModelParams) -> AdamState:
    """Zeroed moment tensors for every trainable parameter."""
    trainable = [k for k in params.tensors if is_trainable(k)]
    return AdamState(
        m={k: np.zeros_like(params.tensors[k]) for k in trainable},
        v={k: np.zeros_like(params.tensors[k]) for k in trainable},
    )


def adam_step(params: ModelParams, grads: dict, state: AdamState, lr: float = 0.001):
    """One update: m, v <- moving moments of g, g^2; step by lr * m_hat / (sqrt(v_hat) + eps).

    Mutates params and state in place and returns both; params.step is bumped
    so stale forward caches can be detected.
    """
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for key, g in grads.items():
        if key not in state.m:
            raise ShapeMismatch(f"gradient for unknown parameter {key!r}")
        if g.shape != params.tensors[key].shape:
            raise ShapeMismatch(
                f"{key}: gradient shape {g.shape} does not match parameter {params.tensors[key].shape}"
            )
        m, v = state.m[key], state.v[key]
        # every product and quotient below is the one the textbook formula
        # makes, in its order; only the temporaries are reused
        scratch = np.multiply(g, 1.0 - state.beta1)
        m *= state.beta1
        m += scratch
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - state.beta2
        v *= state.beta2
        v += scratch
        np.divide(v, bc2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += state.epsilon
        step = m / bc1
        step *= lr
        step /= scratch
        params.tensors[key] -= step
    params.step += 1
    return params, state
