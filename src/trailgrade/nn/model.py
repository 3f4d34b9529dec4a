"""The trail-difficulty network.

Three convolutional blocks (conv -> batchnorm -> relu -> maxpool -> dropout)
feed a 128-unit ReLU dense layer and a 3-way softmax head. Kernels are (m, 2)
with stride (1, 1) and same padding; pools are (2, 1) with ceil semantics, so
a 250-point window shrinks 250 -> 125 -> 63 -> 32 before flattening.

The blocks carry activations height-major, (height, batch, width, channels):
the input batch is transposed once, the FFT convolution leaves its output in
that order, and the flatten restores each sample's (height, width, channels)
order for the dense layer. The convolutions have no bias: train-mode
batchnorm subtracts the batch mean right after them, which cancels any
per-channel constant (Ioffe & Szegedy, "Batch Normalization", ICML 2015,
section 3.2), and in infer mode the running mean would absorb it.

The training loss adds ``L2_COEFF`` times the sum of squares of the three
conv kernels (``l2_penalty``), and ``backward`` adds its gradient.
"""

from dataclasses import dataclass

import numpy as np

from .. import labeling
from ..errors import KernelTooLong
from . import ops

IN_CHANNELS = 3
SENSOR_ROWS = 4
KERNEL_WIDTH = 2
FILTERS = (4, 8, 16)  # output channels of the three conv blocks
DENSE_UNITS = 128
CLASSES = len(labeling.LABELS)
DROPOUT_RATE = 0.3
BN_MOMENTUM = 0.99
BN_EPSILON = 1e-3
L2_COEFF = 1e-2  # weight of the conv-kernel L2 penalty


@dataclass(frozen=True)
class ModelConfig:
    """What a caller chooses; the paper fixes the rest (the constants above)."""

    window_points: int
    kernel_len: int

    def __post_init__(self):
        if self.window_points < 1 or self.kernel_len < 1:
            raise ValueError("window_points and kernel_len must be positive")
        if self.kernel_len > self.window_points:
            raise KernelTooLong(
                f"kernel length {self.kernel_len} exceeds the {self.window_points}-point window"
            )

    def pooled_lengths(self) -> tuple:
        """Height after each of the three (2, 1) pools: repeated ceil(h / 2)."""
        h = self.window_points
        out = []
        for _ in FILTERS:
            h = (h + 1) // 2
            out.append(h)
        return tuple(out)

    @property
    def flat_size(self) -> int:
        return self.pooled_lengths()[-1] * SENSOR_ROWS * FILTERS[-1]


def param_shapes(config: ModelConfig) -> dict:
    """Canonical name -> shape mapping for every stored tensor, in order."""
    shapes = {}
    cin = IN_CHANNELS
    for i, cout in enumerate(FILTERS, start=1):
        shapes[f"conv{i}/kernel"] = (config.kernel_len, KERNEL_WIDTH, cin, cout)
        for stat in ("gamma", "beta", "mean", "var"):
            shapes[f"bn{i}/{stat}"] = (cout,)
        cin = cout
    shapes["dense1/weights"] = (config.flat_size, DENSE_UNITS)
    shapes["dense1/bias"] = (DENSE_UNITS,)
    shapes["dense2/weights"] = (DENSE_UNITS, CLASSES)
    shapes["dense2/bias"] = (CLASSES,)
    return shapes


def is_trainable(name: str) -> bool:
    """Everything except the batchnorm running statistics is trained."""
    return not name.endswith(("/mean", "/var"))


@dataclass
class ModelParams:
    """All stored tensors plus the count of optimizer updates applied to them (Adam's step)."""

    config: ModelConfig
    tensors: dict
    step: int = 0

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {k: v.copy() for k, v in self.tensors.items()}, self.step)


def build_model(config: ModelConfig, rng) -> ModelParams:
    """Fresh parameters: Glorot-uniform weights, zero dense biases, identity batchnorm.

    ``rng`` is a ``np.random.Generator``; the weights are drawn from it.
    """
    receptive = config.kernel_len * KERNEL_WIDTH
    tensors = {}
    for name, shape in param_shapes(config).items():
        if name.endswith("/kernel"):
            fan_in, fan_out = receptive * shape[2], receptive * shape[3]
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            tensors[name] = rng.uniform(-limit, limit, size=shape)
        elif name.endswith("/weights"):
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            tensors[name] = rng.uniform(-limit, limit, size=shape)
        elif name.endswith(("/gamma", "/var")):
            tensors[name] = np.ones(shape)
        else:  # biases, beta, running mean
            tensors[name] = np.zeros(shape)
    return ModelParams(config, tensors)


@dataclass
class ForwardCache:
    """Intermediates of one train-mode forward pass, consumed by backward().

    backward() pops each block's cache off ``block_caches`` before running
    that block, so the cache serves one backward pass.
    """

    params: ModelParams
    block_caches: list  # per block, in forward order: (conv, bn, relu mask, pool, dropout mask)
    pre_flatten_shape: tuple  # height-major
    dense1_cache: tuple
    relu4_mask: np.ndarray
    dense2_cache: tuple


def forward(params: ModelParams, batch, *, train: bool = False, rng=None):
    """Run the network on a (B, n, 4, 3) batch; its caller checks that shape.

    Returns (probabilities, cache); the cache is None outside train mode.
    Train mode updates the batchnorm running statistics on `params` and draws
    dropout masks from `rng`; infer mode is pure and deterministic.
    """
    batch = np.asarray(batch, dtype=np.float64)
    t = params.tensors
    x = batch.transpose(1, 0, 2, 3)
    blocks = []
    for i in (1, 2, 3):
        x, conv_c = ops.conv2d_forward(x, t[f"conv{i}/kernel"])
        x, bn_c, new_mean, new_var = ops.batchnorm_forward(
            x,
            t[f"bn{i}/gamma"],
            t[f"bn{i}/beta"],
            t[f"bn{i}/mean"],
            t[f"bn{i}/var"],
            momentum=BN_MOMENTUM,
            eps=BN_EPSILON,
            train=train,
        )
        if train:
            t[f"bn{i}/mean"], t[f"bn{i}/var"] = new_mean, new_var
        x, relu_mask = ops.relu(x)
        x, pool_c = ops.maxpool_forward(x)
        x, drop_mask = ops.dropout_forward(x, DROPOUT_RATE, rng, train=train)
        blocks.append((conv_c, bn_c, relu_mask, pool_c, drop_mask))

    pre_flatten = x.shape
    x = x.transpose(1, 0, 2, 3).reshape(x.shape[1], -1)
    x, dense1_c = ops.dense_forward(x, t["dense1/weights"], t["dense1/bias"])
    x, relu4_mask = ops.relu(x)
    logits, dense2_c = ops.dense_forward(x, t["dense2/weights"], t["dense2/bias"])
    probs = ops.softmax(logits)
    if not train:
        return probs, None
    return probs, ForwardCache(params, blocks, pre_flatten, dense1_c, relu4_mask, dense2_c)


def backward(cache: ForwardCache, grad_logits) -> dict:
    """Gradients of the loss whose logits gradient is ``grad_logits``, plus the conv-kernel L2 penalty.

    Covers every trainable tensor. The pass consumes its cache: each block's
    intermediates leave it before that block's backward and are freed once it
    is done, and the dense layers' weight gradients (dense1's is the largest
    array the pass makes) are built only after the conv blocks.
    """
    params = cache.params
    h, b, w, c = cache.pre_flatten_shape
    grad_hidden = ops.relu_backward(cache.relu4_mask, ops.dense_backward(cache.dense2_cache, grad_logits))
    dx = ops.dense_backward(cache.dense1_cache, grad_hidden)
    dx = dx.reshape(b, h, w, c).transpose(1, 0, 2, 3)
    grads = {}
    for i in (3, 2, 1):
        conv_c, bn_c, relu_mask, pool_c, drop_mask = cache.block_caches.pop()
        dx = ops.dropout_backward(drop_mask, dx, DROPOUT_RATE)
        dx = ops.maxpool_backward(pool_c, dx)
        dx = ops.relu_backward(relu_mask, dx)
        dx, grads[f"bn{i}/gamma"], grads[f"bn{i}/beta"] = ops.batchnorm_backward(bn_c, dx)
        del drop_mask, pool_c, relu_mask, bn_c  # before the conv backward's spectra
        dx, grad_kernel = ops.conv2d_backward(conv_c, dx, input_grad=i > 1)
        grads[f"conv{i}/kernel"] = grad_kernel + 2.0 * L2_COEFF * params.tensors[f"conv{i}/kernel"]
    grads["dense1/weights"], grads["dense1/bias"] = ops.dense_param_grads(cache.dense1_cache, grad_hidden)
    grads["dense2/weights"], grads["dense2/bias"] = ops.dense_param_grads(cache.dense2_cache, grad_logits)
    return grads


def l2_penalty(params: ModelParams) -> float:
    """L2_COEFF * sum of squares of the three conv kernels; backward adds 2 * L2_COEFF * w."""
    kernels = (params.tensors[f"conv{i}/kernel"] for i in (1, 2, 3))
    return L2_COEFF * sum(float(np.sum(w * w)) for w in kernels)
