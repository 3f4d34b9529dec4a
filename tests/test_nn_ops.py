import itertools
import math

import numpy as np
import pytest

from oracles import (
    batchnorm_two_pass,
    conv2d_bruteforce,
    finite_difference_gradient,
    max_relative_error,
)
from trailgrade.nn import ops
from trailgrade.nn.model import BN_EPSILON, BN_MOMENTUM

FD_TOL = 1e-4
BN = {"momentum": BN_MOMENTUM, "eps": BN_EPSILON}


class TestConvForward:
    # inputs and outputs are height-major: (H, B, W, C)
    def test_1x1_kernel_is_pointwise_affine(self, rng):
        x = rng.normal(size=(5, 2, 4, 1))
        kernels = np.full((1, 1, 1, 1), 2.0)
        out, _ = ops.conv2d_forward(x, kernels)
        assert np.allclose(out, 2.0 * x)

    def test_zero_input_gives_zero(self, rng):
        x = np.zeros((6, 1, 4, 3))
        kernels = rng.normal(size=(3, 2, 3, 5))
        out, _ = ops.conv2d_forward(x, kernels)
        assert out.shape == (6, 1, 4, 5) and not out.any()

    def test_matches_bruteforce(self, rng):
        x = rng.normal(size=(6, 1, 4, 3))
        kernels = rng.normal(size=(3, 2, 3, 2))
        out, _ = ops.conv2d_forward(x, kernels)
        assert np.max(np.abs(out - conv2d_bruteforce(x, kernels))) < 1e-10

    @pytest.mark.parametrize("kh", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("kw", [1, 2, 3])
    def test_same_padding_keeps_dims(self, kh, kw, rng):
        x = rng.normal(size=(7, 2, 4, 3))
        kernels = rng.normal(size=(kh, kw, 3, 2))
        out, _ = ops.conv2d_forward(x, kernels)
        assert out.shape == (7, 2, 4, 2)
        assert np.max(np.abs(out - conv2d_bruteforce(x, kernels))) < 1e-10

    def test_kernel_taller_than_input(self, rng):
        x = rng.normal(size=(3, 1, 4, 2))
        kernels = rng.normal(size=(5, 2, 2, 3))
        out, _ = ops.conv2d_forward(x, kernels)
        assert out.shape == (3, 1, 4, 3)
        assert np.max(np.abs(out - conv2d_bruteforce(x, kernels))) < 1e-10


class TestConvBackward:
    def test_zero_grad_out(self, rng):
        x = rng.normal(size=(4, 1, 4, 2))
        kernels = rng.normal(size=(2, 2, 2, 2))
        _, cache = ops.conv2d_forward(x, kernels)
        gx, gk = ops.conv2d_backward(cache, np.zeros((4, 1, 4, 2)))
        assert not gx.any() and not gk.any()

    @pytest.mark.parametrize("h,cin,cout,kh", [(125, 3, 4, 20), (7, 2, 3, 4)])
    def test_no_input_grad_keeps_kernel_grad_bytes(self, h, cin, cout, kh, rng):
        x = rng.normal(size=(h, 3, 4, cin))
        _, cache = ops.conv2d_forward(x, rng.normal(size=(kh, 2, cin, cout)))
        grad_out = rng.normal(size=(h, 3, 4, cout))
        _, gk = ops.conv2d_backward(cache, grad_out)
        gx, gk_only = ops.conv2d_backward(cache, grad_out, input_grad=False)
        assert gx is None
        assert gk_only.tobytes() == gk.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kh,kw", [(3, 2), (4, 2), (2, 1)])
    def test_finite_differences(self, seed, kh, kw):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(5, 2, 3, 2))
        kernels = rng.normal(size=(kh, kw, 2, 3))
        proj = rng.normal(size=(5, 2, 3, 3))

        def loss():
            out, _ = ops.conv2d_forward(x, kernels)
            return float(np.sum(out * proj))

        _, cache = ops.conv2d_forward(x, kernels)
        gx, gk = ops.conv2d_backward(cache, proj)
        assert max_relative_error(gx, finite_difference_gradient(loss, x)) < FD_TOL
        assert max_relative_error(gk, finite_difference_gradient(loss, kernels)) < FD_TOL


class TestConvFFT:
    """The height correlation runs through real FFTs at every kernel length."""

    # (kh, h): odd and even kh from a single tap up, a kernel as long as the
    # window, and kernels longer than a pooled layer's height
    SHAPES = [
        (1, 14),
        (2, 14),
        (5, 14),
        (10, 14),
        (11, 14),
        (12, 14),
        (13, 14),
        (20, 25),
        (20, 20),
        (21, 7),
    ]

    @pytest.mark.parametrize("kh,h", SHAPES)
    @pytest.mark.parametrize("kw", [1, 2, 3])
    def test_matches_bruteforce(self, kh, h, kw, rng):
        x = rng.normal(size=(h, 2, 4, 3))
        kernels = rng.normal(size=(kh, kw, 3, 2))
        out, _ = ops.conv2d_forward(x, kernels)
        assert np.max(np.abs(out - conv2d_bruteforce(x, kernels))) < 1e-10

    @pytest.mark.parametrize("kh,h", SHAPES)
    def test_finite_differences(self, kh, h):
        rng = np.random.default_rng(kh * 100 + h)
        x = rng.normal(size=(h, 2, 3, 2))
        kernels = rng.normal(size=(kh, 2, 2, 3))
        proj = rng.normal(size=(h, 2, 3, 3))

        def loss():
            out, _ = ops.conv2d_forward(x, kernels)
            return float(np.sum(out * proj))

        _, cache = ops.conv2d_forward(x, kernels)
        gx, gk = ops.conv2d_backward(cache, proj)
        assert max_relative_error(gx, finite_difference_gradient(loss, x)) < FD_TOL
        assert max_relative_error(gk, finite_difference_gradient(loss, kernels)) < FD_TOL

    # the paper cell's three layers (125-point windows, 20 taps), the first
    # layer of the longest cell (500 points, 60 taps) and first layers with the
    # grid's two shortest kernels, at batch 32
    LAYERS = [
        (125, 3, 4, 20),
        (63, 4, 8, 20),
        (32, 8, 16, 20),
        (500, 3, 4, 60),
        (125, 3, 4, 5),
        (50, 3, 4, 10),
    ]

    @pytest.mark.parametrize("h,cin,cout,kh", LAYERS)
    def test_adjoint_identities(self, h, cin, cout, kh, rng):
        # conv is bilinear in (x, kernels), so <conv(x, k), g> = <x, dx> = <k, dk>
        x = rng.normal(size=(h, 32, 4, cin))
        kernels = rng.normal(size=(kh, 2, cin, cout))
        grad_out = rng.normal(size=(h, 32, 4, cout))
        out, cache = ops.conv2d_forward(x, kernels)
        gx, gk = ops.conv2d_backward(cache, grad_out)
        expected = np.vdot(out, grad_out)
        assert abs(np.vdot(x, gx) - expected) <= 1e-12 * abs(expected)
        assert abs(np.vdot(kernels, gk) - expected) <= 1e-12 * abs(expected)


class TestBatchNorm:
    def test_two_value_batch_by_hand(self):
        # values {1, 3}: mean 2, population variance 1 -> normalized {-1, +1}
        x = np.array([1.0, 3.0]).reshape(2, 1, 1, 1)
        out, _, _, _ = ops.batchnorm_forward(
            x, np.ones(1), np.zeros(1), np.zeros(1), np.ones(1), momentum=BN_MOMENTUM, eps=1e-12
        )
        assert np.allclose(out.ravel(), [-1.0, 1.0], atol=1e-6)

    def test_standardized_input_is_fixed_point(self, rng):
        x = rng.normal(size=(8, 3, 2, 4))
        x = (x - x.mean(axis=(0, 1, 2))) / x.std(axis=(0, 1, 2))
        out, _, _, _ = ops.batchnorm_forward(
            x, np.ones(4), np.zeros(4), np.zeros(4), np.ones(4), **BN
        )
        assert np.max(np.abs(out - x)) < math.sqrt(BN_EPSILON)  # the eps-induced shrink

    def test_infer_affine_readthrough(self, rng):
        x = rng.normal(size=(2, 3, 2, 1))
        out, cache, rm, rv = ops.batchnorm_forward(
            x, np.full(1, 2.0), np.full(1, 5.0), np.zeros(1), np.ones(1), **BN, train=False
        )
        assert cache is None
        assert np.allclose(out, 2.0 * x / math.sqrt(1.0 + BN_EPSILON) + 5.0)

    def test_running_stats_update(self, rng):
        x = rng.normal(size=(4, 2, 2, 3)) + 7.0
        rm, rv = np.zeros(3), np.ones(3)
        _, _, new_mean, new_var = ops.batchnorm_forward(
            x, np.ones(3), np.zeros(3), rm, rv, momentum=0.9, eps=BN_EPSILON
        )
        assert np.allclose(new_mean, 0.9 * rm + 0.1 * x.mean(axis=(0, 1, 2)))
        assert np.allclose(new_var, 0.9 * rv + 0.1 * x.var(axis=(0, 1, 2)))
        assert rm.sum() == 0.0  # inputs untouched

    def test_grad_beta_is_sum(self, rng):
        x = rng.normal(size=(3, 2, 2, 2))
        _, cache, _, _ = ops.batchnorm_forward(x, np.ones(2), np.zeros(2), np.zeros(2), np.ones(2), **BN)
        grad_out = rng.normal(size=x.shape)
        _, _, grad_beta = ops.batchnorm_backward(cache, grad_out)
        assert np.allclose(grad_beta, grad_out.sum(axis=(0, 1, 2)))

    def test_grad_input_sums_to_zero_per_channel(self, rng):
        x = rng.normal(size=(4, 3, 2, 5))
        _, cache, _, _ = ops.batchnorm_forward(
            x, rng.normal(size=5), rng.normal(size=5), np.zeros(5), np.ones(5), **BN
        )
        gx, _, _ = ops.batchnorm_backward(cache, rng.normal(size=x.shape))
        assert np.max(np.abs(gx.sum(axis=(0, 1, 2)))) < 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 4, 2, 3))
        gamma = rng.normal(size=3)
        beta = rng.normal(size=3)
        proj = rng.normal(size=x.shape)

        def loss():
            out, _, _, _ = ops.batchnorm_forward(x, gamma, beta, np.zeros(3), np.ones(3), **BN)
            return float(np.sum(out * proj))

        _, cache, _, _ = ops.batchnorm_forward(x, gamma, beta, np.zeros(3), np.ones(3), **BN)
        gx, gg, gb = ops.batchnorm_backward(cache, proj)
        assert max_relative_error(gx, finite_difference_gradient(loss, x)) < FD_TOL
        assert max_relative_error(gg, finite_difference_gradient(loss, gamma)) < FD_TOL
        assert max_relative_error(gb, finite_difference_gradient(loss, beta)) < FD_TOL

    @pytest.mark.parametrize(
        "b, h, w, c, layout",
        [
            pytest.param(32, 125, 4, 4, "batch-major", id="contiguous"),
            pytest.param(32, 125, 4, 4, "height-major", id="conv-layout-block1"),
            pytest.param(32, 63, 4, 8, "height-major", id="conv-layout-block2"),
            pytest.param(32, 32, 4, 16, "height-major", id="conv-layout-block3"),
            pytest.param(20, 125, 4, 4, "height-major", id="last-batch-20-of-660"),
            pytest.param(32, 500, 4, 4, "height-major", id="grid-500-points-block1"),
            pytest.param(32, 250, 4, 8, "height-major", id="grid-500-points-block2"),
        ],
    )
    def test_bit_identical_to_two_pass(self, b, h, w, c, layout, rng):
        # The channel sums are vector-matrix products, which add in another
        # order than np.mean/np.var, so the bits may differ. The tolerance is
        # 1e-11 of max(1, |value|); over 20 seeds at these shapes the largest
        # difference was 5.4e-13, in grad_gamma, a sum of b*h*w products.
        if layout == "height-major":
            x = rng.normal(1.5, 2.0, size=(h, b, w, c))
            # the model's grad_out comes from a ceil-mode pool: a row slice when h is odd
            grad_out = rng.normal(size=(h + h % 2, b, w, c))[:h]
        else:
            x = rng.normal(1.5, 2.0, size=(b, h, w, c))
            grad_out = rng.normal(size=x.shape)
        gamma, beta = rng.normal(size=c), rng.normal(size=c)
        running_mean, running_var = rng.normal(size=c), rng.uniform(0.5, 2.0, size=c)

        out, cache, new_mean, new_var = ops.batchnorm_forward(
            x, gamma, beta, running_mean, running_var, **BN
        )
        ref_out, ref_mean, ref_var, ref_backward = batchnorm_two_pass(
            x, gamma, beta, running_mean, running_var, BN_MOMENTUM, BN_EPSILON
        )
        got = (out, new_mean, new_var, *ops.batchnorm_backward(cache, grad_out))
        want = (ref_out, ref_mean, ref_var, *ref_backward(grad_out))
        for name, a, e in zip(("out", "mean", "var", "grad_x", "grad_gamma", "grad_beta"), got, want):
            # same strides too: the next op reads them in memory order
            assert (a.shape, a.strides) == (e.shape, e.strides), name
            assert max_relative_error(a, e) < 1e-11, name

    @pytest.mark.parametrize("h, c", [(125, 4), (63, 8), (32, 16), (500, 4)])
    def test_infer_equals_the_broadcast_formula(self, h, c, rng):
        # applied to whole height rows, each value still meets its own channel's
        # vectors through the same ufuncs in the same order, so the bits agree
        x = rng.normal(1.5, 2.0, size=(h, 32, 4, c))
        gamma, beta = rng.normal(size=c), rng.normal(size=c)
        running_mean, running_var = rng.normal(size=c), rng.uniform(0.5, 2.0, size=c)
        out, _, _, _ = ops.batchnorm_forward(x, gamma, beta, running_mean, running_var, **BN, train=False)
        want = gamma * (x - running_mean) / np.sqrt(running_var + BN_EPSILON) + beta
        assert (out.shape, out.strides) == (want.shape, want.strides)
        assert np.array_equal(out, want)


class TestRelu:
    def test_table(self):
        out, _ = ops.relu(np.array([-1.0, 0.0, 2.0]))
        assert out.tolist() == [0.0, 0.0, 2.0]

    def test_identity_on_nonnegative(self, rng):
        x = np.abs(rng.normal(size=(3, 4)))
        out, _ = ops.relu(x)
        assert np.array_equal(out, x)

    def test_tie_at_zero_blocks_gradient(self):
        _, mask = ops.relu(np.array([0.0, 1.0]))
        grad = ops.relu_backward(mask, np.array([5.0, 5.0]))
        assert grad.tolist() == [0.0, 5.0]

    def test_finite_differences_away_from_zero(self, rng):
        x = rng.normal(size=(4, 5))
        x = x + np.sign(x) * 2e-3  # keep |x| > 1e-3
        proj = rng.normal(size=x.shape)

        def loss():
            out, _ = ops.relu(x)
            return float(np.sum(out * proj))

        _, mask = ops.relu(x)
        grad = ops.relu_backward(mask, proj)
        assert max_relative_error(grad, finite_difference_gradient(loss, x)) < FD_TOL


class TestMaxPool:
    # height-major (H, B, W, C): rows pair along axis 0
    def test_odd_column(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0]).reshape(5, 1, 1, 1)
        out, _ = ops.maxpool_forward(x)
        assert out.ravel().tolist() == [2.0, 4.0, 5.0]

    def test_constant_input_ties_to_first(self):
        x = np.ones((6, 1, 2, 1))
        out, (mask, _) = ops.maxpool_forward(x)
        assert np.array_equal(out, np.ones((3, 1, 2, 1)))
        assert not mask.any()

    def test_chain_250_to_32(self, rng):
        x = rng.normal(size=(250, 1, 4, 1))
        lengths = []
        for _ in range(3):
            x, _ = ops.maxpool_forward(x)
            lengths.append(x.shape[0])
        assert lengths == [125, 63, 32]

    def test_pooling_length_law(self):
        for h in range(1, 1001):
            out, _ = ops.maxpool_forward(np.zeros((h, 1, 1, 1)))
            assert out.shape[0] == (h + 1) // 2

    def test_backward_routes_to_argmax(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(4, 1, 1, 1)
        _, cache = ops.maxpool_forward(x)
        grad = ops.maxpool_backward(cache, np.array([10.0, 20.0]).reshape(2, 1, 1, 1))
        assert grad.ravel().tolist() == [0.0, 10.0, 0.0, 20.0]

    def test_mass_conservation(self, rng):
        x = rng.normal(size=(7, 2, 3, 2))
        _, cache = ops.maxpool_forward(x)
        grad_out = rng.normal(size=(4, 2, 3, 2))
        grad = ops.maxpool_backward(cache, grad_out)
        assert np.isclose(grad.sum(), grad_out.sum())

    def test_nan_and_signed_zero_pairs_match_argmax_and_max(self):
        values = [0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf]
        pairs = np.array(list(itertools.product(values, values)))
        x = pairs.reshape(2 * len(pairs), 1, 1, 1)
        out, (mask, _) = ops.maxpool_forward(x)
        xr = x.reshape(len(pairs), 2, 1, 1, 1)
        assert np.array_equal(mask, xr.argmax(axis=1))
        assert np.array_equal(out.view(np.int64), xr.max(axis=1).view(np.int64))

    def test_trailing_odd_row_is_copied_bit_for_bit(self, rng):
        x = rng.normal(size=(7, 2, 3, 1))
        x[-1].flat = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5]
        out, (mask, _) = ops.maxpool_forward(x)
        assert np.array_equal(out[-1].view(np.int64), x[-1].view(np.int64))
        assert not mask[-1].any()
        grad = ops.maxpool_backward((mask, 7), np.ones((4, 2, 3, 1)))
        assert np.array_equal(grad[-1], np.ones((2, 3, 1)))

    def test_finite_differences_distinct_values(self, rng):
        x = rng.permutation(np.linspace(-1.0, 1.0, 7 * 2 * 3 * 2)).reshape(7, 2, 3, 2)
        proj = rng.normal(size=(4, 2, 3, 2))

        def loss():
            out, _ = ops.maxpool_forward(x)
            return float(np.sum(out * proj))

        _, cache = ops.maxpool_forward(x)
        grad = ops.maxpool_backward(cache, proj)
        assert max_relative_error(grad, finite_difference_gradient(loss, x)) < FD_TOL


class TestDropout:
    def test_rate_zero_identity(self, rng):
        x = rng.normal(size=(3, 4))
        out, mask = ops.dropout_forward(x, 0.0, rng)
        assert mask.all() and np.array_equal(out, x)

    def test_infer_identity(self, rng):
        x = rng.normal(size=(3, 4))
        out, mask = ops.dropout_forward(x, 0.9, rng, train=False)
        assert out is x and mask is None

    def test_monte_carlo_survival_and_expectation(self):
        rng = np.random.default_rng(99)
        x = np.ones(100_000)
        out, mask = ops.dropout_forward(x, 0.3, rng)
        survivors = mask.mean()
        assert abs(survivors - 0.7) < 0.01
        assert abs(out.mean() - 1.0) < 0.02
        assert np.allclose(out[mask], 1.0 / 0.7)

    def test_backward_uses_same_mask(self, rng):
        x = rng.normal(size=(50,))
        out, mask = ops.dropout_forward(x, 0.3, rng)
        grad = ops.dropout_backward(mask, np.ones(50), 0.3)
        assert np.array_equal(grad != 0, out != 0)


class TestDense:
    def test_identity_weights(self, rng):
        x = rng.normal(size=(3, 4))
        out, _ = ops.dense_forward(x, np.eye(4), np.zeros(4))
        assert np.allclose(out, x)

    def test_dot_example(self):
        out, _ = ops.dense_forward(
            np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]), np.array([1.0])
        )
        assert out.item() == 12.0

    @pytest.mark.parametrize("seed", range(3))
    def test_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 4))
        weights = rng.normal(size=(4, 2))
        bias = rng.normal(size=2)
        proj = rng.normal(size=(3, 2))

        def loss():
            out, _ = ops.dense_forward(x, weights, bias)
            return float(np.sum(out * proj))

        _, cache = ops.dense_forward(x, weights, bias)
        gx = ops.dense_backward(cache, proj)
        gw, gb = ops.dense_param_grads(cache, proj)
        assert max_relative_error(gx, finite_difference_gradient(loss, x)) < FD_TOL
        assert max_relative_error(gw, finite_difference_gradient(loss, weights)) < FD_TOL
        assert max_relative_error(gb, finite_difference_gradient(loss, bias)) < FD_TOL


class TestSoftmax:
    def test_uniform(self):
        out = ops.softmax(np.zeros((1, 3)))
        assert np.allclose(out, 1.0 / 3.0)

    def test_direct_evaluation(self):
        out = ops.softmax(np.array([[1.0, 2.0, 3.0]]))
        from oracles import softmax_direct

        assert np.allclose(out[0], softmax_direct([1.0, 2.0, 3.0]), atol=1e-12)
        assert np.allclose(out[0], [0.09003057, 0.24472847, 0.66524096], atol=1e-7)

    def test_shift_invariance(self, rng):
        logits = rng.normal(size=(4, 3))
        shifted = ops.softmax(logits + 1000.0)
        assert np.max(np.abs(ops.softmax(logits) - shifted)) < 1e-12

    def test_rows_sum_to_one(self, rng):
        out = ops.softmax(rng.normal(size=(64, 3)) * 30)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12
        moderate = ops.softmax(rng.normal(size=(64, 3)) * 5)
        assert ((moderate > 0) & (moderate < 1)).all()


class TestCrossEntropy:
    def test_perfect_prediction(self):
        probs = np.array([[0.0, 1.0, 0.0]])
        loss, _ = ops.sparse_categorical_crossentropy(probs, np.array([1]))
        assert loss == 0.0

    def test_half_probability_is_ln2(self):
        probs = np.array([[0.25, 0.25, 0.5]])
        loss, _ = ops.sparse_categorical_crossentropy(probs, np.array([2]))
        assert loss == pytest.approx(math.log(2.0), rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_combined_gradient_matches_fd_through_softmax(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(4, 3))
        labels = rng.integers(0, 3, size=4)

        def loss():
            probs = ops.softmax(logits)
            value, _ = ops.sparse_categorical_crossentropy(probs, labels)
            return value

        probs = ops.softmax(logits)
        _, grad_logits = ops.sparse_categorical_crossentropy(probs, labels)
        assert max_relative_error(grad_logits, finite_difference_gradient(loss, logits)) < FD_TOL
