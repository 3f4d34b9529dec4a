"""Differentiable building blocks with hand-derived backward passes.

Every forward returns (output, cache); the matching backward consumes that
cache. The conv, batchnorm and maxpool ops take height-major, channels-last
activations (height, batch, width, channels): the FFT convolution transforms
along the height and leaves its output in that order, pooling pairs
neighbouring rows of axis 0, and batchnorm sums each channel over a (N, C)
view and applies its per-channel vectors to whole height rows. Arithmetic is
float64 throughout, and every gradient here is checked against central
finite differences in the test suite.
"""

import numpy as np


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
    the inverse transform's first H rows. The kernel taps are written straight
    into their rolled rows, tap u at row (u - pt) mod n, so no padded kernel
    is rolled. The cache keeps the kernel spectrum and the input spectrum
    before the unfold, which is kw times smaller; the backward unfolds it
    again.
    """
    kh, kw, cin, cout = kernels.shape
    h, b, w, _ = x.shape
    kwc = kw * cin
    n = _conv_fft_len(h, kh)
    pt, _ = _pad_amounts(kh)
    # the width unfold commutes with the height FFT, so transform the narrower input
    xs = np.fft.rfft(x, n, axis=0)
    xf = _unfold_width(xs, kw).reshape(n // 2 + 1, b * w, kwc)
    taps = kernels.reshape(kh, kwc, cout)
    kc = np.zeros((n, kwc, cout))
    kc[: kh - pt] = taps[pt:]
    kc[n - pt :] = taps[:pt]
    kf = np.fft.rfft(kc, axis=0)
    out = np.fft.irfft(xf @ kf.conj(), n, axis=0)[:h].reshape(h, b, w, cout)
    return out, ((xs, kf), x.shape, kernels)


def conv2d_backward(cache, grad_out, input_grad=True):
    """Gradients (grad_x, grad_k) of conv2d_forward; grad_out is (H, B, W, Cout).

    Grad-kernel is the correlation irfft(X^T @ conj(G)), whose tap u sits at
    row (u - pt) mod n, as in the forward; those kh rows are taken directly.
    Grad-input is the convolution irfft(G @ K^T). A first layer, whose input
    is data, passes input_grad=False and gets None for grad_x.
    """
    (xs, kf), x_shape, kernels = cache
    kh, kw, cin, cout = kernels.shape
    h, b, w, _ = x_shape
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
    grad_k = np.concatenate((grad_kc[n - pt :], grad_kc[: kh - pt]))
    return grad_x, grad_k.reshape(kh, kw, cin, cout)


def _per_channel(v, rows):
    """Channel vector v repeated along a row of `rows`, to broadcast against it.

    Each value still meets its own channel's entry, so the bits are those of
    broadcasting v over the last axis, but numpy's inner loop runs over a
    whole row instead of C values.
    """
    return np.tile(v, rows.shape[1] // v.size)


def batchnorm_forward(x, gamma, beta, running_mean, running_var, *, momentum, eps, train=True):
    """Channel-wise batch normalization (channels on the last axis).

    Train mode normalizes with the batch's population statistics and returns
    exponentially updated running stats; infer mode reads the running stats
    and leaves them untouched. Returns (out, cache, running_mean, running_var).
    Each channel sum is one vector-matrix product over a (N, C) view of x,
    which is far faster than a reduction with C innermost. Each per-channel
    vector is applied to the (H, B*W*C) row view of the activation, repeated
    B*W times, for the same reason; the cache keeps xhat in that row view.
    """
    rows = x.reshape(len(x), -1)
    if train:
        c = x.shape[-1]
        ones = np.ones(x.size // c)
        mean = ones @ x.reshape(-1, c) / ones.size
        xhat = rows - _per_channel(mean, rows)
        out = np.square(xhat)
        var = ones @ out.reshape(-1, c) / ones.size
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat *= _per_channel(inv_std, rows)
        np.multiply(xhat, _per_channel(gamma, rows), out=out)
        out += _per_channel(beta, rows)
        new_mean = momentum * running_mean + (1.0 - momentum) * mean
        new_var = momentum * running_var + (1.0 - momentum) * var
        return out.reshape(x.shape), (xhat, gamma, inv_std, ones), new_mean, new_var
    # gamma * (x - running_mean) / sqrt(running_var + eps) + beta, in that order
    out = rows - _per_channel(running_mean, rows)
    np.multiply(_per_channel(gamma, rows), out, out=out)
    out /= _per_channel(np.sqrt(running_var + eps), rows)
    out += _per_channel(beta, rows)
    return out.reshape(x.shape), None, running_mean, running_var


def batchnorm_backward(cache, grad_out):
    """Gradients (grad_x, grad_gamma, grad_beta) of train-mode batchnorm_forward.

    Like the forward, the channel sums are vector-matrix products and the
    per-channel vectors are applied to whole height rows.
    """
    xhat, gamma, inv_std, ones = cache
    rows = grad_out.reshape(xhat.shape)
    grad_beta = ones @ grad_out.reshape(-1, gamma.size)
    scratch = rows * xhat
    grad_gamma = ones @ scratch.reshape(-1, gamma.size)
    # (gamma * inv_std) * (grad_out - grad_beta / n - xhat * grad_gamma / n), in place
    np.multiply(xhat, _per_channel(grad_gamma, rows), out=scratch)
    scratch /= ones.size
    grad_x = rows - _per_channel(grad_beta / ones.size, rows)
    grad_x -= scratch
    grad_x *= _per_channel(gamma * inv_std, rows)
    return grad_x.reshape(grad_out.shape), grad_gamma, grad_beta


def relu(x):
    mask = x > 0
    return x * mask, mask


def relu_backward(cache, grad_out):
    # gradient 0 at the tie x == 0
    return grad_out * cache


def maxpool_forward(x):
    """Max pool (2, 1) with stride (2, 1) along the height axis 0, ceil mode.

    x is height-major (H, B, W, C). A trailing odd row pools alone, so output
    height is ceil(H / 2): it is copied as it is, NaN included, and its mask
    is False. The mask records each window's argmax (first occurrence on
    ties) for the backward.
    """
    h = x.shape[0]
    hp = h // 2
    xr = x[: 2 * hp].reshape(hp, 2, *x.shape[1:])
    first, second = xr[:, 0], xr[:, 1]
    # argmax of each pair without a reduction: NaN counts as the maximum, so the
    # second row wins where it is larger, or NaN while the first is not
    mask = ~((second <= first) | np.isnan(first))
    if h % 2 == 0:
        return np.maximum(first, second), (mask, h)
    out = np.empty((hp + 1, *x.shape[1:]), x.dtype)
    np.maximum(first, second, out=out[:hp])
    out[hp] = x[-1]
    return out, (np.concatenate([mask, np.zeros_like(mask[:1])]), h)


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
    return x @ weights + bias, (x, weights)


def dense_backward(cache, grad_out):
    """Gradient of dense_forward's input; dense_param_grads gives the rest.

    The two halves are apart so that a backward pass can propagate through
    the layer first and build its (large) weight gradient later.
    """
    _, weights = cache
    return grad_out @ weights.T


def dense_param_grads(cache, grad_out):
    """Gradients (grad_weights, grad_bias) of dense_forward."""
    x, _ = cache
    return x.T @ grad_out, grad_out.sum(axis=0)


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
    b = len(probs)
    rows = np.arange(b)
    p_true = probs[rows, labels]
    loss = float(-np.log(np.clip(p_true, 1e-12, None)).mean())
    grad_logits = probs.copy()
    grad_logits[rows, labels] -= 1.0
    grad_logits /= b
    return loss, grad_logits
