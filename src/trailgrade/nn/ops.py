"""Differentiable building blocks with hand-derived backward passes.

Every forward returns (output, cache); the matching backward consumes that
cache. The conv, batchnorm and maxpool ops take height-major, channels-last
activations (height, batch, width, channels): the FFT convolution transforms
along the height and leaves its output in that order, pooling pairs
neighbouring rows of axis 0, and batchnorm sums each channel over a (N, C)
view. Arithmetic is float64 throughout, and every gradient here is checked
against central finite differences in the test suite.
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


def conv2d_forward(x, kernels):
    """Same-padded stride-1 correlation of a height-major input, without a bias.

    The model puts a batchnorm after every conv, and its mean subtraction
    would cancel a per-channel bias.

    x: (H, B, W, Cin), kernels: (kh, kw, Cin, Cout); the output is (H, B, W,
    Cout). Output spatial dims equal the input's; the odd padding zero goes to
    the bottom/right edge. Folding the width taps into the channel axis leaves
    a correlation along the height, out[i] = sum_u xp[i + u] @ k[u] over the
    height-padded input xp, which runs through real FFTs along axis 0: per
    frequency it is one product X[f] @ conj(K[f]) of the (B*W, kw*Cin) input
    spectrum and the (kw*Cin, Cout) kernel spectrum. The output is a view of
    the inverse transform's first H rows. The cache keeps the kernel spectrum
    and the input spectrum before the unfold, which is kw times smaller; the
    backward unfolds it again.
    """
    if x.ndim != 4 or kernels.ndim != 4:
        raise ShapeMismatch("conv2d expects a 4-d input and 4-d kernels")
    kh, kw, cin, cout = kernels.shape
    if x.shape[3] != cin:
        raise ShapeMismatch(f"channel mismatch: input {x.shape}, kernels {kernels.shape}")
    h, b, w, _ = x.shape
    kwc = kw * cin
    n = _conv_fft_len(h, kh)
    pt, _ = _pad_amounts(kh)
    # the width unfold commutes with the height FFT, so transform the narrower input
    xs = np.fft.rfft(x, n, axis=0)
    xf = _unfold_width(xs, kw).reshape(n // 2 + 1, b * w, kwc)
    kc = np.zeros((n, kwc, cout))
    kc[:kh] = kernels.reshape(kh, kwc, cout)
    kf = np.fft.rfft(np.roll(kc, -pt, axis=0), axis=0)
    out = np.fft.irfft(xf @ kf.conj(), n, axis=0)[:h].reshape(h, b, w, cout)
    return out, ((xs, kf), x.shape, kernels)


def conv2d_backward(cache, grad_out, input_grad=True):
    """Gradients (grad_x, grad_k) of conv2d_forward; grad_out is (H, B, W, Cout).

    Grad-kernel is the correlation irfft(X^T @ conj(G)), rolled back down by pt
    rows; grad-input is the convolution irfft(G @ K^T). A first layer, whose
    input is data, passes input_grad=False and gets None for grad_x.
    """
    (xs, kf), x_shape, kernels = cache
    kh, kw, cin, cout = kernels.shape
    h, b, w, _ = x_shape
    if grad_out.shape != (h, b, w, cout):
        raise ShapeMismatch(f"grad_out {grad_out.shape} does not match output {(h, b, w, cout)}")
    n = _conv_fft_len(h, kh)
    pt, _ = _pad_amounts(kh)
    gf = np.fft.rfft(grad_out, n, axis=0).reshape(n // 2 + 1, b * w, cout)
    grad_x = None
    if input_grad:
        gxf = _fold_width((gf @ kf.transpose(0, 2, 1)).reshape(n // 2 + 1, b, w, kw * cin), kw, cin)
        grad_x = np.fft.irfft(gxf, n, axis=0)[:h]
        del gxf  # before the unfold below allocates
    # the grad-input product is done with G, so conjugate it in place
    np.conjugate(gf, out=gf)
    xf = _unfold_width(xs, kw).reshape(n // 2 + 1, b * w, kw * cin)
    grad_kc = np.fft.irfft(xf.transpose(0, 2, 1) @ gf, n, axis=0)
    return grad_x, np.roll(grad_kc, pt, axis=0)[:kh].reshape(kh, kw, cin, cout)


def batchnorm_forward(x, gamma, beta, running_mean, running_var, *, momentum, eps, train=True):
    """Channel-wise batch normalization (channels on the last axis).

    Train mode normalizes with the batch's population statistics and returns
    exponentially updated running stats; infer mode reads the running stats
    and leaves them untouched. Returns (out, cache, running_mean, running_var).
    Each channel sum is one vector-matrix product over a (N, C) view of x,
    which is far faster than a reduction with C innermost.
    """
    if train:
        c = x.shape[-1]
        ones = np.ones(x.size // c)
        if ones.size < 2:
            raise DegenerateBatch("batch statistics need at least 2 values per channel")
        mean = ones @ x.reshape(-1, c) / ones.size
        xhat = x - mean
        out = np.square(xhat)
        var = ones @ out.reshape(-1, c) / ones.size
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat *= inv_std
        np.multiply(xhat, gamma, out=out)
        out += beta
        new_mean = momentum * running_mean + (1.0 - momentum) * mean
        new_var = momentum * running_var + (1.0 - momentum) * var
        return out, (xhat, gamma, inv_std, ones), new_mean, new_var
    out = gamma * (x - running_mean) / np.sqrt(running_var + eps) + beta
    return out, None, running_mean, running_var


def batchnorm_backward(cache, grad_out):
    xhat, gamma, inv_std, ones = cache
    c = xhat.shape[-1]
    grad_beta = ones @ grad_out.reshape(-1, c)
    scratch = grad_out * xhat
    grad_gamma = ones @ scratch.reshape(-1, c)
    # (gamma * inv_std) * (grad_out - grad_beta / n - xhat * grad_gamma / n), in place
    np.multiply(xhat, grad_gamma, out=scratch)
    scratch /= ones.size
    grad_x = grad_out - grad_beta / ones.size
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
    """Max pool (2, 1) with stride (2, 1) along the height axis 0, ceil mode.

    x is height-major (H, B, W, C). A trailing odd row pools alone, so output
    height is ceil(H / 2). The mask records each window's argmax (first
    occurrence on ties) for the backward.
    """
    h = x.shape[0]
    ho = (h + 1) // 2
    if h % 2:
        x = np.concatenate([x, np.full((1, *x.shape[1:]), -np.inf)])
    xr = x.reshape(ho, 2, *x.shape[1:])
    first, second = xr[:, 0], xr[:, 1]
    # argmax of each pair without a reduction: NaN counts as the maximum, so the
    # second row wins where it is larger, or NaN while the first is not
    mask = ~((second <= first) | np.isnan(first))
    return np.maximum(first, second), (mask, h)


def maxpool_backward(cache, grad_out):
    """Route each output gradient to its argmax row; zeros elsewhere."""
    mask, h = cache
    ho = grad_out.shape[0]
    grad_x = np.empty((ho, 2, *grad_out.shape[1:]))
    # the second row of a pair takes the gradient where it won, the first the rest
    np.multiply(grad_out, mask, out=grad_x[:, 1])
    np.subtract(grad_out, grad_x[:, 1], out=grad_x[:, 0])
    return grad_x.reshape(2 * ho, *grad_out.shape[1:])[:h]


def dropout_forward(x, rate, rng, train=True):
    """Inverted dropout: zero with probability rate, scale survivors by 1/(1-rate).

    Outside train mode this is the identity and the mask is None.
    """
    if not train:
        return x, None
    keep = rng.random(x.shape) >= rate
    out = x * keep
    out /= 1.0 - rate
    return out, keep


def dropout_backward(cache, grad_out, rate):
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
