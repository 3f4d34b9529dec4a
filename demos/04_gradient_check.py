"""Verify the hand-derived backward passes against finite differences.

Every gradient in the network is derived by hand, so each one is checked
against central differences (f(x+h) - f(x-h)) / 2h. This demo runs the check
live for a single convolution and then for the paper's network on 8-point
windows.
"""

import numpy as np

from trailgrade.nn.model import ModelConfig, backward, build_model, forward, l2_penalty
from trailgrade.nn.ops import conv2d_backward, conv2d_forward, sparse_categorical_crossentropy


def finite_differences(loss_fn, x, entries=None, h=1e-5):
    """Central differences of loss_fn at the flat `entries` of x (all of them by default)."""
    flat = x.reshape(-1)
    entries = range(flat.size) if entries is None else entries
    grad = np.empty(len(entries))
    for j, i in enumerate(entries):
        keep = flat[i]
        flat[i] = keep + h
        up = loss_fn()
        flat[i] = keep - h
        down = loss_fn()
        flat[i] = keep
        grad[j] = (up - down) / (2 * h)
    return grad


def worst_error(analytic, numeric):
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / scale))


rng = np.random.default_rng(0)

print("== one convolution layer ==")
x = rng.normal(size=(6, 2, 4, 3))  # height-major: (height, batch, width, channels)
kernels = rng.normal(size=(4, 2, 3, 5))  # even kernel length: asymmetric padding
projection = rng.normal(size=(6, 2, 4, 5))


def conv_loss():
    out, _ = conv2d_forward(x, kernels)
    return float(np.sum(out * projection))


_, cache = conv2d_forward(x, kernels)
grad_x, grad_k = conv2d_backward(cache, projection)
print(f"  d/d input   max relative error {worst_error(grad_x.ravel(), finite_differences(conv_loss, x)):.2e}")
print(f"  d/d kernels max relative error {worst_error(grad_k.ravel(), finite_differences(conv_loss, kernels)):.2e}")

print("\n== the paper's network, 8-point windows ==")
config = ModelConfig(window_points=8, kernel_len=3)
params = build_model(config, rng)
batch = rng.normal(size=(2, 8, 4, 3))
labels = rng.integers(0, 3, size=2)


def network_loss():
    # a fresh rng of one seed per pass: every pass drops the same units
    probs, _ = forward(params, batch, train=True, rng=np.random.default_rng(99))
    ce, _ = sparse_categorical_crossentropy(probs, labels)
    return ce + l2_penalty(params)


# dense1/weights holds 8192 of the network's 9851 values: differencing each would
# take several seconds, so a seeded sample of its entries stands in for it
dense1_size = params.tensors["dense1/weights"].size
sampled = {"dense1/weights": np.sort(rng.choice(dense1_size, size=32, replace=False))}
print(f"  dense1/weights: {len(sampled['dense1/weights'])} of {dense1_size} entries, flat indices")
print(f"    {sampled['dense1/weights'].tolist()}")

probs, cache = forward(params, batch, train=True, rng=np.random.default_rng(99))
grads = backward(cache, sparse_categorical_crossentropy(probs, labels)[1])
for key, grad in grads.items():
    entries = sampled.get(key)
    numeric = finite_differences(network_loss, params.tensors[key], entries)
    analytic = grad.ravel() if entries is None else grad.ravel()[entries]
    print(f"  {key:15s} max relative error {worst_error(analytic, numeric):.2e}")
