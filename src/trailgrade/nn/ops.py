"""Differentiable building blocks with hand-derived backward passes.

Every forward returns (output, cache); the matching backward consumes that
cache. Layouts are channels-last (batch, height, width, channels), arithmetic
is float64 throughout, and every gradient here is checked against central
finite differences in the test suite.
"""

import numpy as np

from ..errors import DegenerateBatch, EmptyBatch, LabelOutOfRange, ShapeMismatch


def _pad_amounts(k: int):
    """Same-padding split of k-1 zeros; the odd zero goes after (bottom/right)."""
    before = (k - 1) // 2
    return before, k - 1 - before


def _fft_len(n: int) -> int:
    """Smallest 2·3·5-smooth integer >= n, a length the real FFT handles fast."""
    while True:
        r = n
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return n
        n += 1


def _unfold_width(a, kw):
    """Fold the kw same-padded width taps of a (..., W, C) array into its last axis.

    out[..., j, v*C:(v+1)*C] holds column j + v - pl of `a` (zero outside the
    array), so a (kh, kw) convolution becomes a (kh, 1) one over kw*C channels.
    Works on real inputs and on their height spectra alike.
    """
    *lead, w, c = a.shape
    pl, _ = _pad_amounts(kw)
    out = np.zeros((*lead, w, kw * c), a.dtype)
    for v in range(kw):
        lo, hi = max(0, pl - v), min(w, w + pl - v)
        out[..., lo:hi, v * c : (v + 1) * c] = a[..., lo + v - pl : hi + v - pl, :]
    return out


def _fold_width(a, kw, c):
    """Adjoint of _unfold_width: sum each width tap's block back onto its column."""
    *lead, w, _ = a.shape
    pl, _ = _pad_amounts(kw)
    out = np.zeros((*lead, w, c), a.dtype)
    for v in range(kw):
        lo, hi = max(0, pl - v), min(w, w + pl - v)
        out[..., lo + v - pl : hi + v - pl, :] += a[..., lo:hi, v * c : (v + 1) * c]
    return out


def _conv_fft_len(h, kh):
    """FFT length for a same-padded correlation of h rows with kh taps.

    The top padding is not stored: the kernel is rolled up by pt rows instead,
    so tap u sits at row (u - pt) mod n. Output row i then reads input rows
    i - pt .. i + pb mod n. For i < h these must not wrap onto real rows, which
    holds when n >= h + max(pt, pb) = h + kh // 2, and the taps must not
    overlap each other, which holds when n >= kh.
    """
    return _fft_len(max(kh, h + kh // 2))


def conv2d_forward(x, kernels, bias):
    """Same-padded stride-1 correlation.

    x: (B, H, W, Cin), kernels: (kh, kw, Cin, Cout), bias: (Cout,).
    Output spatial dims equal the input's; the odd padding zero goes to the
    bottom/right edge. Folding the width taps into the channel axis leaves a
    correlation along the height, out[i] = sum_u xp[i + u] @ k[u] over the
    height-padded input xp, which runs through real FFTs: per frequency it is
    one product X[f] @ conj(K[f]) of the (B*W, kw*Cin) input spectrum and the
    (kw*Cin, Cout) kernel spectrum. The cache keeps both spectra for the
    backward.
    """
    if x.ndim != 4 or kernels.ndim != 4:
        raise ShapeMismatch("conv2d expects a 4-d input and 4-d kernels")
    kh, kw, cin, cout = kernels.shape
    if x.shape[3] != cin or bias.shape != (cout,):
        raise ShapeMismatch(
            f"channel mismatch: input {x.shape}, kernels {kernels.shape}, bias {bias.shape}"
        )
    b, h, w, _ = x.shape
    kwc = kw * cin
    n = _conv_fft_len(h, kh)
    pt, _ = _pad_amounts(kh)
    # the width unfold commutes with the height FFT, so transform the narrower input
    spectrum = np.fft.rfft(x, n, axis=1).transpose(1, 0, 2, 3)
    xf = _unfold_width(spectrum, kw).reshape(n // 2 + 1, b * w, kwc)
    kc = np.zeros((n, kwc, cout))
    kc[:kh] = kernels.reshape(kh, kwc, cout)
    kf = np.fft.rfft(np.roll(kc, -pt, axis=0), axis=0)
    y = np.fft.irfft(xf @ kf.conj(), n, axis=0)[:h]
    out = y.reshape(h, b, w, cout).transpose(1, 0, 2, 3) + bias
    return out, ((xf, kf), x.shape, kernels)


def conv2d_backward(cache, grad_out):
    """Gradients of conv2d_forward w.r.t. input, kernels and bias.

    Grad-input is the convolution irfft(G @ K^T); grad-kernel is the
    correlation irfft(X^T @ conj(G)), rolled back down by pt rows.
    """
    (xf, kf), x_shape, kernels = cache
    kh, kw, cin, cout = kernels.shape
    b, h, w, _ = x_shape
    if grad_out.shape != (b, h, w, cout):
        raise ShapeMismatch(f"grad_out {grad_out.shape} does not match output {(b, h, w, cout)}")
    n = _conv_fft_len(h, kh)
    pt, _ = _pad_amounts(kh)
    g3 = np.ascontiguousarray(grad_out.transpose(1, 0, 2, 3))
    gf = np.fft.rfft(g3, n, axis=0).reshape(n // 2 + 1, b * w, cout)
    grad_kc = np.fft.irfft(xf.transpose(0, 2, 1) @ gf.conj(), n, axis=0)
    grad_k = np.roll(grad_kc, pt, axis=0)[:kh].reshape(kh, kw, cin, cout)
    gxf = _fold_width((gf @ kf.transpose(0, 2, 1)).reshape(n // 2 + 1, b, w, kw * cin), kw, cin)
    grad_x = np.ascontiguousarray(np.fft.irfft(gxf, n, axis=0)[:h].transpose(1, 0, 2, 3))
    return grad_x, grad_k, grad_out.sum(axis=(0, 1, 2))


def batchnorm_forward(x, gamma, beta, running_mean, running_var, *, momentum=0.99, eps=1e-3, train=True):
    """Channel-wise batch normalization (channels on the last axis).

    Train mode normalizes with the batch's population statistics and returns
    exponentially updated running stats; infer mode reads the running stats
    and leaves them untouched. Returns (out, cache, running_mean, running_var).
    """
    axes = tuple(range(x.ndim - 1))
    if train:
        n_red = 1
        for a in axes:
            n_red *= x.shape[a]
        if n_red < 2:
            raise DegenerateBatch("batch statistics need at least 2 values per channel")
        # the same reductions np.mean and np.var make, over x as laid out: the
        # conv output is height-major, and a reshape(-1, C) copy would sum in
        # another order
        mean = x.sum(axis=axes) / n_red
        xhat = x - mean
        out = np.square(xhat)
        var = out.sum(axis=axes) / n_red
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat *= inv_std
        np.multiply(xhat, gamma, out=out)
        out += beta
        new_mean = momentum * running_mean + (1.0 - momentum) * mean
        new_var = momentum * running_var + (1.0 - momentum) * var
        return out, (xhat, gamma, inv_std, n_red, axes), new_mean, new_var
    out = gamma * (x - running_mean) / np.sqrt(running_var + eps) + beta
    return out, None, running_mean, running_var


def batchnorm_backward(cache, grad_out):
    xhat, gamma, inv_std, n_red, axes = cache
    grad_beta = grad_out.sum(axis=axes)
    scratch = grad_out * xhat
    grad_gamma = scratch.sum(axis=axes)
    # (gamma * inv_std) * (grad_out - grad_beta / n - xhat * grad_gamma / n), in place
    np.multiply(xhat, grad_gamma, out=scratch)
    scratch /= n_red
    grad_x = grad_out - grad_beta / n_red
    grad_x -= scratch
    grad_x *= gamma * inv_std
    return grad_x, grad_gamma, grad_beta


def relu(x):
    mask = x > 0
    return x * mask, mask


def relu_backward(cache, grad_out):
    # gradient 0 at the tie x == 0
    return grad_out * cache


def maxpool_forward(x):
    """Max pool (2, 1) with stride (2, 1) along height, ceil mode.

    A trailing odd row pools alone, so output height is ceil(H / 2). The mask
    records each window's argmax (first occurrence on ties) for the backward.
    """
    b, h, w, c = x.shape
    ho = (h + 1) // 2
    if h % 2:
        x = np.concatenate([x, np.full((b, 1, w, c), -np.inf)], axis=1)
    xr = x.reshape(b, ho, 2, w, c)
    first, second = xr[:, :, 0], xr[:, :, 1]
    # argmax of each pair without a reduction: NaN counts as the maximum, so the
    # second row wins where it is larger, or NaN while the first is not
    mask = ~((second <= first) | np.isnan(first))
    return np.maximum(first, second), (mask, h)


def maxpool_backward(cache, grad_out):
    """Route each output gradient to its argmax position; zeros elsewhere."""
    mask, h = cache
    b, ho, w, c = grad_out.shape
    grad_x = np.stack((np.where(mask, 0.0, grad_out), np.where(mask, grad_out, 0.0)), axis=2)
    return grad_x.reshape(b, 2 * ho, w, c)[:, :h]


def dropout_forward(x, rate, rng, train=True):
    """Inverted dropout: zero with probability rate, scale survivors by 1/(1-rate).

    Outside train mode (or at rate 0) this is the identity and the mask is None.
    """
    if not train or rate == 0.0:
        return x, None
    keep = rng.random(x.shape) >= rate
    out = x * keep
    out /= 1.0 - rate
    return out, keep


def dropout_backward(cache, grad_out, rate):
    if cache is None:
        return grad_out
    grad = grad_out * cache
    grad /= 1.0 - rate
    return grad


def dense_forward(x, weights, bias):
    if x.ndim != 2 or x.shape[1] != weights.shape[0] or bias.shape != (weights.shape[1],):
        raise ShapeMismatch(
            f"dense shapes disagree: x {x.shape}, weights {weights.shape}, bias {bias.shape}"
        )
    return x @ weights + bias, (x, weights)


def dense_backward(cache, grad_out):
    x, weights = cache
    return grad_out @ weights.T, x.T @ grad_out, grad_out.sum(axis=0)


def softmax(logits):
    """Row-wise softmax, stabilized by subtracting the row max."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def sparse_categorical_crossentropy(probs, labels):
    """Mean negative log-probability of the true labels.

    Returns (loss, grad_logits) where grad_logits is the combined
    softmax + cross-entropy gradient (probs - onehot) / B, computed jointly
    for numerical stability.
    """
    labels = np.asarray(labels)
    if probs.ndim != 2:
        raise ShapeMismatch("probabilities must be (B, K)")
    b, k = probs.shape
    if b == 0:
        raise EmptyBatch("empty probability batch")
    if labels.shape != (b,):
        raise ShapeMismatch(f"labels shape {labels.shape} does not match batch {b}")
    if labels.min() < 0 or labels.max() >= k:
        raise LabelOutOfRange(f"labels must lie in [0, {k})")
    rows = np.arange(b)
    p_true = probs[rows, labels]
    loss = float(-np.log(np.clip(p_true, 1e-12, None)).mean())
    grad_logits = probs.copy()
    grad_logits[rows, labels] -= 1.0
    grad_logits /= b
    return loss, grad_logits
