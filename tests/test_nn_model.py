import hashlib
import struct
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from oracles import finite_difference_gradient, max_relative_error, parameter_count, trainable_keys
from trailgrade.errors import (
    CorruptCheckpoint,
    KernelTooLong,
    ShapeMismatch,
    StaleCache,
    VersionMismatch,
)
from trailgrade.nn import (
    ModelConfig,
    ModelParams,
    adam_step,
    backward,
    build_model,
    forward,
    init_adam,
    l2_penalty,
    load_checkpoint,
    param_shapes,
    save_checkpoint,
)
from trailgrade.nn.ops import sparse_categorical_crossentropy

TINY = ModelConfig(window_points=8, kernel_len=3, filters=(2, 3, 4), dense_units=5)


def masks():
    """A fresh rng per train-mode forward, so every pass draws the same dropout masks."""
    return np.random.default_rng(99)


def tiny_loss(params, batch, labels):
    """Full training loss: cross-entropy plus the conv-kernel L2 penalty."""
    probs, _ = forward(params, batch, train=True, rng=masks())
    ce, _ = sparse_categorical_crossentropy(probs, labels)
    return ce + l2_penalty(params)


class TestModelConfig:
    def test_pooling_chain_and_flatten(self):
        config = ModelConfig(window_points=250, kernel_len=60)
        assert config.pooled_lengths() == (125, 63, 32)
        assert config.flat_size == 32 * 4 * 16 == 2048

    def test_conv2_kernel_weight_count(self):
        config = ModelConfig(window_points=250, kernel_len=60)
        shape = param_shapes(config)["conv2/kernel"]
        assert shape == (60, 2, 4, 8)
        assert int(np.prod(shape)) == 3840

    def test_dense1_weight_count(self):
        config = ModelConfig(window_points=250, kernel_len=60)
        assert param_shapes(config)["dense1/weights"] == (2048, 128)

    def test_fields_are_what_a_caller_sets(self):
        names = [f.name for f in fields(ModelConfig)]
        assert names == ["window_points", "kernel_len", "filters", "dense_units", "l2_coeff"]

    def test_kernel_too_long(self):
        with pytest.raises(KernelTooLong):
            ModelConfig(window_points=25, kernel_len=40)

    def test_parameter_count_formula_all_valid_grid_pairs(self):
        # the 22 feasible cells of the 5x5 window/kernel study
        for points in (25, 50, 125, 250, 500):
            for kernel in (5, 10, 20, 40, 60):
                if kernel > points:
                    continue
                config = ModelConfig(window_points=points, kernel_len=kernel)
                params = build_model(config, np.random.default_rng(0))
                stored = sum(v.size for v in params.tensors.values())
                assert parameter_count(config) == stored


class TestBuildAndForward:
    def test_initial_values(self):
        params = build_model(TINY, np.random.default_rng(3))
        assert "conv1/bias" not in params.tensors
        assert (params.tensors["bn2/gamma"] == 1.0).all()
        assert (params.tensors["bn3/var"] == 1.0).all()
        assert not params.tensors["dense1/bias"].any()
        limit = np.sqrt(6.0 / (3 * 2 * (3 + 2)))
        kernel = params.tensors["conv1/kernel"]
        assert np.abs(kernel).max() <= limit

    def test_rows_sum_to_one(self, rng):
        params = build_model(TINY, np.random.default_rng(1))
        probs, cache = forward(params, rng.normal(size=(5, 8, 4, 3)))
        assert probs.shape == (5, 3)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9
        assert cache is None

    def test_infer_deterministic(self, rng):
        params = build_model(TINY, np.random.default_rng(1))
        batch = rng.normal(size=(4, 8, 4, 3))
        a, _ = forward(params, batch)
        b, _ = forward(params, batch)
        assert np.array_equal(a, b)

    def test_shape_mismatch(self, rng):
        params = build_model(TINY, np.random.default_rng(1))
        with pytest.raises(ShapeMismatch):
            forward(params, rng.normal(size=(2, 9, 4, 3)))

    def test_train_mode_updates_running_stats(self, rng):
        params = build_model(TINY, np.random.default_rng(1))
        before = params.tensors["bn1/mean"].copy()
        forward(params, rng.normal(size=(4, 8, 4, 3)) + 5.0, train=True, rng=rng)
        assert not np.array_equal(params.tensors["bn1/mean"], before)

    def test_dropout_needs_rng(self, rng):
        params = build_model(ModelConfig(window_points=8, kernel_len=3), np.random.default_rng(1))
        with pytest.raises(ValueError):
            forward(params, rng.normal(size=(2, 8, 4, 3)), train=True)


class TestFullNetworkGradients:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        params = build_model(TINY, rng)
        batch = rng.normal(size=(2, 8, 4, 3))
        labels = rng.integers(0, 3, size=2)

        probs, cache = forward(params, batch, train=True, rng=masks())
        grads = backward(cache, labels)
        assert set(grads) == set(trainable_keys())
        for key in trainable_keys():
            fd = finite_difference_gradient(
                lambda: tiny_loss(params, batch, labels), params.tensors[key]
            )
            err = max_relative_error(grads[key], fd)
            assert err < 1e-3, f"{key}: {err}"

    def test_l2_contribution_is_additive(self, rng):
        params = build_model(TINY, rng)
        batch = rng.normal(size=(2, 8, 4, 3))
        labels = np.array([0, 2])
        probs, cache = forward(params, batch, train=True, rng=masks())
        grads_with = backward(cache, labels)

        free_config = replace(TINY, l2_coeff=0.0)
        free_params = ModelParams(free_config, {k: v.copy() for k, v in params.tensors.items()})
        probs2, cache2 = forward(free_params, batch, train=True, rng=masks())
        grads_without = backward(cache2, labels)
        for i in (1, 2, 3):
            key = f"conv{i}/kernel"
            expected = grads_without[key] + 2.0 * TINY.l2_coeff * params.tensors[key]
            assert np.allclose(grads_with[key], expected, atol=1e-12)

    def test_stale_cache_detected(self, rng):
        params = build_model(TINY, rng)
        batch = rng.normal(size=(2, 8, 4, 3))
        labels = np.array([0, 1])
        _, cache = forward(params, batch, train=True, rng=masks())
        grads = backward(cache, labels)
        adam_step(params, grads, init_adam(params))
        with pytest.raises(StaleCache):
            backward(cache, labels)


class TestL2Penalty:
    def test_zero_coeff(self, rng):
        params = build_model(replace(TINY, l2_coeff=0.0), rng)
        assert l2_penalty(params) == 0.0

    def test_single_weight_arithmetic(self, rng):
        params = build_model(TINY, rng)
        for i in (1, 2, 3):
            params.tensors[f"conv{i}/kernel"][...] = 0.0
        params.tensors["conv2/kernel"][0, 0, 0, 0] = 3.0
        assert l2_penalty(params) == pytest.approx(0.09)

    def test_finite_differences(self, rng):
        # the gradient backward adds to each kernel's is that of l2_penalty
        params = build_model(replace(TINY, l2_coeff=0.05), rng)
        for i in (1, 2, 3):
            w = params.tensors[f"conv{i}/kernel"]
            fd = finite_difference_gradient(lambda: l2_penalty(params), w)
            assert max_relative_error(2.0 * 0.05 * w, fd) < 1e-4


class TestAdam:
    def make_scalar_params(self, value):
        return ModelParams(TINY, {"w": np.array([value])})

    def test_zero_gradient_keeps_params(self):
        params = self.make_scalar_params(1.5)
        state = init_adam(params)
        adam_step(params, {"w": np.zeros(1)}, state)
        assert params.tensors["w"].item() == 1.5
        assert state.t == 1
        assert params.step == 1

    def test_first_step_is_signed_learning_rate(self):
        # bias correction makes the first update ~ lr * g / (|g| + eps)
        for g in (0.3, -2.0, 1e-4):
            params = self.make_scalar_params(0.0)
            adam_step(params, {"w": np.array([g])}, init_adam(params))
            expected = -0.001 * g / (abs(g) + 1e-8)
            assert params.tensors["w"].item() == pytest.approx(expected, rel=1e-6)

    def test_descends_quadratic(self):
        params = self.make_scalar_params(1.0)
        state = init_adam(params)
        values = [1.0]
        for _ in range(10):
            w = params.tensors["w"]
            adam_step(params, {"w": 2.0 * w}, state)
            values.append(params.tensors["w"].item())
        losses = [v * v for v in values]
        assert losses[-1] < losses[0]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_shape_mismatch(self):
        params = self.make_scalar_params(0.0)
        with pytest.raises(ShapeMismatch):
            adam_step(params, {"w": np.zeros(2)}, init_adam(params))
        with pytest.raises(ShapeMismatch):
            adam_step(params, {"nope": np.zeros(1)}, init_adam(params))

    def test_moments_follow_definition(self, rng):
        params = self.make_scalar_params(0.0)
        state = init_adam(params)
        g1, g2 = 0.5, -1.25
        adam_step(params, {"w": np.array([g1])}, state)
        adam_step(params, {"w": np.array([g2])}, state)
        assert state.m["w"].item() == pytest.approx(0.9 * (0.1 * g1) + 0.1 * g2)
        assert state.v["w"].item() == pytest.approx(0.999 * (0.001 * g1 ** 2) + 0.001 * g2 ** 2)
        assert state.t == 2


class TestCheckpoint:
    def test_roundtrip_bitexact_files(self, tmp_path, rng):
        params = build_model(ModelConfig(window_points=50, kernel_len=10), rng)
        first = tmp_path / "model.ckpt"
        save_checkpoint(params, first)
        loaded, config = load_checkpoint(first)
        assert config == params.config
        second = tmp_path / "again.ckpt"
        save_checkpoint(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        for key, value in params.tensors.items():
            expected = value.astype(np.float32).astype(np.float64)
            assert np.array_equal(loaded.tensors[key], expected)

    def test_golden_bytes(self, tmp_path):
        # pins the TGM1 layout (version 2, no conv biases) and its sidecar byte for byte
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(ModelConfig(25, 5), np.random.default_rng(0)), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "2181590ec25b27c08741819adceabea0e1da8dd41d39d14d48ed8c557e000610"
        assert (tmp_path / "model.ckpt.txt").read_text() == (
            "window_points = 25\nkernel_len = 5\nfilters = 4,8,16\ndense_units = 128\n"
            "classes = 3\ndropout_rate = 0.3\nl2_coeff = 0.01\nbn_momentum = 0.99\n"
            "bn_epsilon = 0.001\n"
        )

    def test_sidecar_written(self, tmp_path, rng):
        params = build_model(TINY, rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        sidecar = (tmp_path / "model.ckpt.txt").read_text()
        assert "window_points = 8" in sidecar
        assert "kernel_len = 3" in sidecar

    def test_truncated_rejected(self, tmp_path, rng):
        params = build_model(TINY, rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        path.write_bytes(path.read_bytes()[:-11])
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + bytes(80))
        with pytest.raises(VersionMismatch):
            load_checkpoint(path)

    def test_wrong_version_rejected(self, tmp_path, rng):
        params = build_model(TINY, rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(VersionMismatch):
            load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path, rng):
        params = build_model(TINY, rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_signalling_nan_is_corrupt_not_a_warning(self, tmp_path, rng):
        # casting a float32 signalling NaN to float64 warns "invalid value";
        # the stored values are checked before that cast
        params = build_model(TINY, rng)
        params.tensors["dense1/weights"][0, 0] = 1.5
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        data = path.read_bytes()
        marker = struct.pack("<f", 1.5)
        assert data.count(marker) == 1
        path.write_bytes(data.replace(marker, struct.pack("<I", 0x7F800001)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CorruptCheckpoint, match="dense1/weights holds non-finite"):
                load_checkpoint(path)

    def test_loaded_model_runs(self, tmp_path, rng):
        params = build_model(TINY, rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        loaded, _ = load_checkpoint(path)
        probs, _ = forward(loaded, rng.normal(size=(2, 8, 4, 3)))
        assert probs.shape == (2, 3)
