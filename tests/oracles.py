"""Independent reference implementations the tests check the package against.

Everything here is deliberately written the slow, obvious way (explicit loops,
linear scans, finite differences) and shares no code with the package apart
from its exception types, the record types the history CSV holds, and the nn
ops that the network-backward reference composes in its own order.
"""

import math
import re

import numpy as np

from trailgrade.errors import MalformedLine, ShapeMismatch, TooFewSamples
from trailgrade.nn import model, ops
from trailgrade.nn.model import DROPOUT_RATE
from trailgrade.training import HISTORY_CSV_HEADER, EpochRecord


def conv2d_bruteforce(x, kernels):
    """Same-padded stride-1 correlation by explicit loops over every tap.

    x is height-major (H, B, W, Cin) and so is the (H, B, W, Cout) result.
    """
    h, b, w, cin = x.shape
    kh, kw, _, cout = kernels.shape
    pad_top = (kh - 1) // 2
    pad_left = (kw - 1) // 2
    out = np.zeros((h, b, w, cout))
    for bi in range(b):
        for i in range(h):
            for j in range(w):
                for o in range(cout):
                    acc = 0.0
                    for u in range(kh):
                        for v in range(kw):
                            ii = i + u - pad_top
                            jj = j + v - pad_left
                            if 0 <= ii < h and 0 <= jj < w:
                                for c in range(cin):
                                    acc += x[ii, bi, jj, c] * kernels[u, v, c, o]
                    out[i, bi, j, o] = acc
    return out


def batchnorm_two_pass(x, gamma, beta, running_mean, running_var, momentum, eps):
    """Train-mode batchnorm through np.mean and np.var, each a separate pass.

    Returns (out, running_mean, running_var, backward) where backward(grad_out)
    gives (grad_x, grad_gamma, grad_beta). The arithmetic is that of the
    package's batchnorm before it was fused; the fused one sums in another
    order and is held to it within a tight tolerance.
    """
    axes = tuple(range(x.ndim - 1))
    n_red = 1
    for a in axes:
        n_red *= x.shape[a]
    mean = x.mean(axis=axes)
    var = x.var(axis=axes)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv_std
    out = gamma * xhat + beta
    new_mean = momentum * running_mean + (1.0 - momentum) * mean
    new_var = momentum * running_var + (1.0 - momentum) * var

    def backward(grad_out):
        grad_beta = grad_out.sum(axis=axes)
        grad_gamma = (grad_out * xhat).sum(axis=axes)
        grad_x = (gamma * inv_std) * (grad_out - grad_beta / n_red - xhat * grad_gamma / n_red)
        return grad_x, grad_gamma, grad_beta

    return out, new_mean, new_var, backward


def backward_keeping_every_cache(cache, grad_logits):
    """The network's gradients from a ForwardCache and a logits gradient; the cache is left as it was.

    The ops run in the order of the first backward pass the model had: each
    dense layer's weight and bias gradients are built as soon as its output
    gradient exists, and every block reads its cache in place. Each product
    is the same op call on the same operands as in ``model.backward``, so
    the two must agree bit for bit.
    """
    dx = grad_logits
    grads = {}
    grads["dense2/weights"], grads["dense2/bias"] = ops.dense_param_grads(cache.dense2_cache, dx)
    dx = ops.relu_backward(cache.relu4_mask, ops.dense_backward(cache.dense2_cache, dx))
    grads["dense1/weights"], grads["dense1/bias"] = ops.dense_param_grads(cache.dense1_cache, dx)
    dx = ops.dense_backward(cache.dense1_cache, dx)
    h, b, w, c = cache.pre_flatten_shape
    dx = dx.reshape(b, h, w, c).transpose(1, 0, 2, 3)
    for i in (3, 2, 1):
        conv_c, bn_c, relu_mask, pool_c, drop_mask = cache.block_caches[i - 1]
        dx = ops.dropout_backward(drop_mask, dx, DROPOUT_RATE)
        dx = ops.maxpool_backward(pool_c, dx)
        dx = ops.relu_backward(relu_mask, dx)
        dx, grads[f"bn{i}/gamma"], grads[f"bn{i}/beta"] = ops.batchnorm_backward(bn_c, dx)
        dx, grad_kernel = ops.conv2d_backward(conv_c, dx, input_grad=i > 1)
        kernel = cache.params.tensors[f"conv{i}/kernel"]
        grads[f"conv{i}/kernel"] = grad_kernel + 2.0 * model.L2_COEFF * kernel
    return grads


def finite_difference_gradient(loss_fn, x, h=1e-5):
    """Central differences of a scalar function w.r.t. an array, in place.

    `loss_fn` takes no arguments and must read the (mutated) `x`.
    """
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + h
        f_plus = loss_fn()
        flat[i] = original - h
        f_minus = loss_fn()
        flat[i] = original
        grad_flat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def max_relative_error(a, b):
    """Elementwise |a - b| / max(1, |a|, |b|), reduced to the worst entry."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def label_at_scan(segments, t_ms):
    """Linear scan over (start, end, label) tuples."""
    for start, end, label in segments:
        if start <= t_ms < end:
            return label
    return None


def overlay_label(base_segments, overrides, t_ms):
    """Expected label after overrides: last covering override wins, else base."""
    for start, end, label in reversed(list(overrides)):
        if start <= t_ms < end:
            return label
    return label_at_scan(base_segments, t_ms)


def window_start_count(length, window, stride):
    """Count window placements by explicit enumeration."""
    count = 0
    start = 0
    while start + window <= length:
        count += 1
        start += stride
    return count


def softmax_direct(logits_row):
    """Plain exp / sum(exp), no stabilization tricks."""
    import math

    exps = [math.exp(v) for v in logits_row]
    total = sum(exps)
    return [e / total for e in exps]


def accuracy_loop(probs, labels):
    """Per-row argmax comparison with an explicit loop."""
    correct = 0
    for row, label in zip(probs, labels):
        best = 0
        for j in range(1, len(row)):
            if row[j] > row[best]:
                best = j
        if best == label:
            correct += 1
    return correct / len(labels)


def sparse_categorical_accuracy(probs, labels) -> float:
    """Fraction of rows whose argmax (lowest index on ties) equals the label."""
    probs = np.asarray(probs)
    labels = np.asarray(labels)
    if probs.ndim != 2 or probs.shape[0] == 0:
        raise ValueError("need at least one prediction row")
    if labels.shape != (probs.shape[0],):
        raise ShapeMismatch(f"labels {labels.shape} do not match batch of {probs.shape[0]}")
    return float(np.mean(probs.argmax(axis=1) == labels))


def history_from_csv(text):
    """EpochRecords back from the text ``history_to_csv`` writes."""
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines or lines[0].strip() != HISTORY_CSV_HEADER:
        raise ValueError(f"expected header {HISTORY_CSV_HEADER!r}")
    out = []
    for line in lines[1:]:
        epoch, train_sca, test_sca, train_loss = line.split(",")
        out.append(EpochRecord(int(epoch), float(train_sca), float(test_sca), float(train_loss)))
    return out


def parameter_count(config) -> int:
    """Closed-form count of every stored value (weights, biases, bn stats)."""
    total = 0
    cin = 3  # x, y, z
    filters, dense_units = (4, 8, 16), 128  # the paper's widths
    for cout in filters:
        total += config.kernel_len * 2 * cin * cout  # (m, 2) kernel, no bias
        total += 4 * cout  # gamma, beta, running mean, running var
        cin = cout
    classes = 3  # easy, medium, hard
    total += config.flat_size * dense_units + dense_units
    total += dense_units * classes + classes
    return total


def trainable_keys():
    """Names of the trained tensors in canonical order: all but the bn running stats."""
    keys = []
    for i in (1, 2, 3):
        keys += [f"conv{i}/kernel", f"bn{i}/gamma", f"bn{i}/beta"]
    return keys + ["dense1/weights", "dense1/bias", "dense2/weights", "dense2/bias"]


def skipped_cells(window_ms_list, kernel_len_list):
    """Grid cells whose kernel is longer than the window's 25-per-second points."""
    skipped = set()
    for window_ms in window_ms_list:
        for kernel_len in kernel_len_list:
            if kernel_len * 1000 > window_ms * 25:
                skipped.add((window_ms, kernel_len))
    return skipped


_PAD = "[ \t\x0b\x0c]*"
_INT_FIELD = re.compile(f"{_PAD}[+-]?[0-9]+{_PAD}")
_FLOAT_FIELD = re.compile(f"{_PAD}[+-]?(?:[0-9]+\\.?[0-9]*|\\.[0-9]+)(?:[eE][+-]?[0-9]+)?{_PAD}")


def sensor_csv_grammar_violation(text):
    """The 1-based line where sensor CSV ``text`` first breaks the README's grammar, or None.

    Written from the README, not from numpy: ASCII without 0x1C..0x1F;
    LF, CRLF and lone CR end a line; the header, padded; then empty lines
    and rows of an int64 and three finite floats, each a sign, digits, a
    point and an exponent padded with spaces, tabs, vertical tabs or form
    feeds. Values are not read here: ``parse_sensor_csv_lines`` reads them.
    """
    lines = re.split("\r\n|\r|\n", text)
    if lines[0].strip(" \t\x0b\x0c") != "timestamp_ms,x,y,z":
        return 1
    for line_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        if (
            not line.isascii()
            or re.search("[\x1c-\x1f]", line)
            or len(fields) != 4
            or not _INT_FIELD.fullmatch(fields[0])
            or not all(_FLOAT_FIELD.fullmatch(f) for f in fields[1:])
            or not -(2**63) <= int(fields[0]) < 2**63
            or not all(math.isfinite(float(f)) for f in fields[1:])
        ):
            return line_no
    return None


def parse_sensor_csv_lines(text):
    """The original line-at-a-time sensor CSV parser: (timestamps, values, rate).

    It reads more than the grammar allows (PEP 515 underscores, any Unicode
    digit or whitespace, whitespace-only lines): it is the value reference
    for files that ``sensor_csv_grammar_violation`` accepts.

    Kept as it was, including its one known fault: a timestamp outside int64
    escapes as OverflowError from ``np.array`` after every line has parsed.
    """
    lines = text.split("\n")
    if not lines or lines[0].rstrip("\r").strip() != "timestamp_ms,x,y,z":
        raise MalformedLine(1, "expected header")
    ts, vals = [], []
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.rstrip("\r").strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise MalformedLine(line_no, f"expected 4 fields, got {len(parts)}")
        try:
            t = int(parts[0])
            xyz = [float(p) for p in parts[1:]]
        except ValueError:
            raise MalformedLine(line_no, f"unparseable record {line!r}") from None
        if not all(np.isfinite(xyz)):
            raise MalformedLine(line_no, "non-finite sensor value")
        ts.append(t)
        vals.append(xyz)
    if not ts:
        raise TooFewSamples("no data rows")
    timestamps = np.array(ts, dtype=np.int64)
    rate = float("nan")
    if timestamps.size >= 2:
        gap = float(np.median(np.diff(timestamps)))
        if gap > 0:
            rate = 1000.0 / gap
    return timestamps, np.array(vals), rate
