"""The acceptance gate: one test per criterion.

A conftest hook prints one PASS/FAIL line per criterion regardless of pytest's
capture mode. The synthetic end-to-end criterion trains for a few minutes;
everything else is fast.
"""

import time

import numpy as np
import pytest

from conftest import full_track, make_session
from oracles import (
    accuracy_loop,
    conv2d_bruteforce,
    finite_difference_gradient,
    history_from_csv,
    max_relative_error,
    sparse_categorical_accuracy,
    trainable_keys,
    window_start_count,
)
from trailgrade import cli
from trailgrade.dataset import (
    WindowConfig,
    WindowSample,
    class_histogram,
    oversample_balance,
    read_sample_archive,
    shuffle,
    slice_windows,
    split_train_test,
    write_sample_archive,
)
from trailgrade.errors import CorruptCheckpoint, KernelTooLong, VersionMismatch
from trailgrade.ingest import RawSensorLog, parse_sensor_csv, write_sensor_csv
from trailgrade.labeling import map_grade
from trailgrade.nn.checkpoint import load_checkpoint, save_checkpoint
from trailgrade.nn.model import (
    BN_EPSILON,
    BN_MOMENTUM,
    L2_COEFF,
    ModelConfig,
    backward,
    build_model,
    forward,
    l2_penalty,
)
from trailgrade.nn.ops import sparse_categorical_crossentropy
from trailgrade.training import TrainConfig, confusion_matrix, train




def test_criterion_1_gradient_fidelity(tiny):
    from trailgrade.nn import ops

    started = time.monotonic()
    layer_tol, composite_tol, seeds = 1e-4, 1e-3, 20

    for seed in range(seeds):
        rng = np.random.default_rng(seed)

        # convolution, height-major (H, B, W, C)
        x = rng.normal(size=(4, 1, 3, 2))
        kernels = rng.normal(size=(3, 2, 2, 2))
        proj = rng.normal(size=(4, 1, 3, 2))

        def conv_loss():
            out, _ = ops.conv2d_forward(x, kernels)
            return float(np.sum(out * proj))

        _, cache = ops.conv2d_forward(x, kernels)
        gx, gk = ops.conv2d_backward(cache, proj)
        assert max_relative_error(gx, finite_difference_gradient(conv_loss, x)) < layer_tol
        assert max_relative_error(gk, finite_difference_gradient(conv_loss, kernels)) < layer_tol

        # batch normalization (train mode)
        xb = rng.normal(size=(2, 3, 2, 2))
        gamma, beta = rng.normal(size=2), rng.normal(size=2)
        proj_b = rng.normal(size=xb.shape)
        bn = {"momentum": BN_MOMENTUM, "eps": BN_EPSILON}

        def bn_loss():
            out, _, _, _ = ops.batchnorm_forward(xb, gamma, beta, np.zeros(2), np.ones(2), **bn)
            return float(np.sum(out * proj_b))

        _, bn_cache, _, _ = ops.batchnorm_forward(xb, gamma, beta, np.zeros(2), np.ones(2), **bn)
        gxb, gg, gbb = ops.batchnorm_backward(bn_cache, proj_b)
        assert max_relative_error(gxb, finite_difference_gradient(bn_loss, xb)) < layer_tol
        assert max_relative_error(gg, finite_difference_gradient(bn_loss, gamma)) < layer_tol
        assert max_relative_error(gbb, finite_difference_gradient(bn_loss, beta)) < layer_tol

        # relu away from the kink
        xr = rng.normal(size=(3, 4))
        xr += np.sign(xr) * 2e-3
        proj_r = rng.normal(size=xr.shape)

        def relu_loss():
            out, _ = ops.relu(xr)
            return float(np.sum(out * proj_r))

        _, mask = ops.relu(xr)
        assert max_relative_error(
            ops.relu_backward(mask, proj_r), finite_difference_gradient(relu_loss, xr)
        ) < layer_tol

        # max pooling on distinct values, height-major
        xp = rng.permutation(np.linspace(-1.0, 1.0, 5 * 2 * 2 * 2)).reshape(5, 2, 2, 2)
        proj_p = rng.normal(size=(3, 2, 2, 2))

        def pool_loss():
            out, _ = ops.maxpool_forward(xp)
            return float(np.sum(out * proj_p))

        _, pool_cache = ops.maxpool_forward(xp)
        assert max_relative_error(
            ops.maxpool_backward(pool_cache, proj_p), finite_difference_gradient(pool_loss, xp)
        ) < layer_tol

        # dense
        xd = rng.normal(size=(2, 3))
        weights, bias_d = rng.normal(size=(3, 4)), rng.normal(size=4)
        proj_d = rng.normal(size=(2, 4))

        def dense_loss():
            out, _ = ops.dense_forward(xd, weights, bias_d)
            return float(np.sum(out * proj_d))

        _, dense_cache = ops.dense_forward(xd, weights, bias_d)
        gxd = ops.dense_backward(dense_cache, proj_d)
        gw, gbd = ops.dense_param_grads(dense_cache, proj_d)
        assert max_relative_error(gxd, finite_difference_gradient(dense_loss, xd)) < layer_tol
        assert max_relative_error(gw, finite_difference_gradient(dense_loss, weights)) < layer_tol
        assert max_relative_error(gbd, finite_difference_gradient(dense_loss, bias_d)) < layer_tol

        # softmax + cross-entropy, combined gradient
        logits = rng.normal(size=(3, 3))
        labels = rng.integers(0, 3, size=3)

        def ce_loss():
            value, _ = ops.sparse_categorical_crossentropy(ops.softmax(logits), labels)
            return value

        _, grad_logits = ops.sparse_categorical_crossentropy(ops.softmax(logits), labels)
        assert max_relative_error(grad_logits, finite_difference_gradient(ce_loss, logits)) < layer_tol

        # l2 penalty over the conv kernels, whose gradient backward adds
        l2_params = build_model(tiny, rng)
        wl2 = l2_params.tensors["conv1/kernel"]
        l2_fd = finite_difference_gradient(lambda: l2_penalty(l2_params), wl2)
        assert max_relative_error(2.0 * L2_COEFF * wl2, l2_fd) < layer_tol

    # full tiny network: n=8, m=3, train-mode batchnorm, CE + L2; every pass
    # gets a fresh rng of one seed, so every pass draws the same dropout masks
    for seed in range(seeds):
        rng = np.random.default_rng(1000 + seed)
        params = build_model(tiny, rng)
        batch = rng.normal(size=(2, 8, 4, 3))
        labels = rng.integers(0, 3, size=2)

        def full_loss():
            probs, _ = forward(params, batch, train=True, rng=np.random.default_rng(99))
            ce, _ = sparse_categorical_crossentropy(probs, labels)
            return ce + l2_penalty(params)

        probs, cache = forward(params, batch, train=True, rng=np.random.default_rng(99))
        grads = backward(cache, sparse_categorical_crossentropy(probs, labels)[1])
        for key in trainable_keys():
            fd = finite_difference_gradient(full_loss, params.tensors[key])
            assert max_relative_error(grads[key], fd) < composite_tol, key

    assert time.monotonic() - started < 60.0


def test_criterion_2_convolution_oracle():
    started = time.monotonic()
    for case in range(100):
        rng = np.random.default_rng(case)
        b = int(rng.integers(1, 3))
        h = int(rng.integers(1, 11))
        w = int(rng.integers(1, 5))
        cin = int(rng.integers(1, 4))
        cout = int(rng.integers(1, 5))
        kh = int(rng.integers(1, 6))
        kw = int(rng.integers(1, 3))
        x = rng.normal(size=(h, b, w, cin))
        kernels = rng.normal(size=(kh, kw, cin, cout))
        from trailgrade.nn import ops

        out, _ = ops.conv2d_forward(x, kernels)
        assert np.max(np.abs(out - conv2d_bruteforce(x, kernels))) < 1e-10
    assert time.monotonic() - started < 30.0


def test_criterion_3_architecture_arithmetic():
    config = ModelConfig(window_points=250, kernel_len=60)
    assert config.pooled_lengths() == (125, 63, 32)
    assert config.flat_size == 2048

    window_points = {w: WindowConfig(w).window_points for w in (1000, 2000, 5000, 10000, 20000)}
    assert window_points == {1000: 25, 2000: 50, 5000: 125, 10000: 250, 20000: 500}

    rejected = set()
    for window_ms, points in window_points.items():
        for kernel_len in (5, 10, 20, 40, 60):
            try:
                ModelConfig(window_points=points, kernel_len=kernel_len)
            except KernelTooLong:
                rejected.add((window_ms, kernel_len))
    assert rejected == {(1000, 40), (1000, 60), (2000, 60)}


def test_criterion_4_pipeline_laws(tiny):
    # window-count closed form, every L in [w, w+200]
    for window_ms, w in ((1000, 25), (2000, 50), (5000, 125)):
        config = WindowConfig(window_ms)
        stride = config.stride
        for length in range(w, w + 201):
            session = make_session(length, seed=length)
            count = len(slice_windows(session, full_track(session), config))
            assert count == (length - w) // stride + 1
            assert count == window_start_count(length, w, stride)

    # oversampling equalizes exactly and adds only duplicates
    rng = np.random.default_rng(0)
    for trial in range(10):
        labels = rng.integers(0, 3, size=int(rng.integers(3, 120)))
        if len(set(labels.tolist())) < 2:
            continue
        samples = [
            WindowSample(rng.normal(size=(4, 4, 3)), int(label), ("s", i))
            for i, label in enumerate(labels)
        ]
        balanced = oversample_balance(samples, seed=trial)
        histogram = class_histogram(balanced)
        present = {count for count in histogram.values() if count > 0}
        assert len(present) == 1
        assert balanced[: len(samples)] == samples
        originals = {s.origin: s.data for s in samples}
        for duplicate in balanced[len(samples):]:
            assert np.array_equal(duplicate.data, originals[duplicate.origin])

    # split and shuffle are byte-deterministic per seed
    samples = [
        WindowSample(np.full((4, 4, 3), float(i)), i % 3, ("s", i)) for i in range(50)
    ]
    train_a, test_a = split_train_test(samples, seed=21)
    train_b, test_b = split_train_test(samples, seed=21)
    assert [s.origin for s in train_a] == [s.origin for s in train_b]
    assert [s.origin for s in test_a] == [s.origin for s in test_b]
    assert [s.origin for s in shuffle(samples, seed=5)] == [
        s.origin for s in shuffle(samples, seed=5)
    ]

    # training is byte-deterministic per seed
    rng = np.random.default_rng(9)
    train_set = [
        WindowSample(float(i % 3) + rng.normal(0, 0.05, (8, 4, 3)), i % 3, ("s", i))
        for i in range(30)
    ]
    test_set = [
        WindowSample(float(i % 3) + rng.normal(0, 0.05, (8, 4, 3)), i % 3, ("t", i))
        for i in range(6)
    ]
    config = TrainConfig(seed=17, max_epochs=4, patience=4)
    run_a = train(train_set, test_set, tiny, config)
    run_b = train(train_set, test_set, tiny, config)
    assert run_a.history == run_b.history
    for key in run_a.best_params.tensors:
        a = run_a.best_params.tensors[key]
        b = run_b.best_params.tensors[key]
        assert a.tobytes() == b.tobytes()


def test_criterion_5_synthetic_end_to_end(tmp_path):
    started = time.monotonic()
    synth_dir = tmp_path / "synth"
    samples_file = tmp_path / "samples.tgds"
    model_file = tmp_path / "model.ckpt"
    history_file = tmp_path / "history.csv"

    assert cli.main([
        "synth", "--out", str(synth_dir),
        "--sessions-per-class", "20", "--seconds", "20", "--seed", "42",
    ]) == 0
    assert cli.main([
        "window", "--session", str(synth_dir),
        "--window-ms", "5000", "--out", str(samples_file),
    ]) == 0
    assert cli.main([
        "train", "--samples", str(samples_file), "--kernel-len", "20",
        "--seed", "42", "--max-epochs", "300", "--patience", "250",
        "--out-model", str(model_file), "--out-history", str(history_file),
    ]) == 0

    history = history_from_csv(history_file.read_text())
    best_test_sca = max(r.test_sca for r in history)
    assert best_test_sca >= 0.90
    assert min(r.train_loss for r in history) < history[0].train_loss
    assert model_file.exists()
    assert time.monotonic() - started <= 600.0


def test_criterion_6_metric_identities():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        probs = rng.random((n, 3))
        labels = rng.integers(0, 3, size=n)
        cm = confusion_matrix(probs.argmax(axis=1), labels)
        accuracy = sparse_categorical_accuracy(probs, labels)
        assert cm.sum() == n
        assert int(np.trace(cm)) / n == accuracy
        assert accuracy == accuracy_loop(probs, labels)


def test_criterion_7_formats(tmp_path):
    # sensor CSV
    rng = np.random.default_rng(3)
    log = RawSensorLog(np.arange(40) * 80, rng.normal(size=(40, 3)))
    text = write_sensor_csv(log)
    csv_path = tmp_path / "log.csv"
    csv_path.write_text(text)
    again = parse_sensor_csv(csv_path)
    assert np.array_equal(again.timestamps, log.timestamps)
    assert np.array_equal(again.values, log.values)
    assert write_sensor_csv(again) == text

    # sample archive
    samples = [
        WindowSample(rng.normal(size=(6, 4, 3)), i % 3, (f"s{i}", i * 40)) for i in range(7)
    ]
    first = tmp_path / "a.tgds"
    second = tmp_path / "b.tgds"
    write_sample_archive(samples, first)
    write_sample_archive(read_sample_archive(first), second)
    assert first.read_bytes() == second.read_bytes()

    # checkpoint
    params = build_model(ModelConfig(window_points=25, kernel_len=5), rng)
    ckpt_a = tmp_path / "m1.ckpt"
    ckpt_b = tmp_path / "m2.ckpt"
    save_checkpoint(params, ckpt_a)
    loaded, _ = load_checkpoint(ckpt_a)
    save_checkpoint(loaded, ckpt_b)
    assert ckpt_a.read_bytes() == ckpt_b.read_bytes()

    truncated = tmp_path / "trunc.ckpt"
    truncated.write_bytes(ckpt_a.read_bytes()[:-9])
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(truncated)
    wrong_magic = tmp_path / "magic.ckpt"
    wrong_magic.write_bytes(b"XXXX" + ckpt_a.read_bytes()[4:])
    with pytest.raises(VersionMismatch):
        load_checkpoint(wrong_magic)


def test_criterion_8_grade_mapping():
    for raw in ("S0", "S1", "0", "1"):
        assert map_grade(raw) == 0
    for raw in ("S2", "2"):
        assert map_grade(raw) == 1
    for raw in ("S3", "S4", "S5", "3", "4", "5"):
        assert map_grade(raw) == 2
