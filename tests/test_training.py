import hashlib
import sys
import textwrap
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import narrowed_network, run_fresh_python
from oracles import accuracy_loop, history_from_csv, sparse_categorical_accuracy
from trailgrade import experiments, training
from trailgrade.dataset import (
    WindowConfig,
    WindowSample,
    read_sample_archive,
    slice_windows,
    write_sample_archive,
)
from trailgrade.errors import (
    LabelOutOfRange,
    NumericFailure,
    ShapeMismatch,
    TooFewSamples,
)
from trailgrade.nn import model, ops
from trailgrade.nn.adam import adam_step, init_adam
from trailgrade.nn.checkpoint import save_checkpoint
from trailgrade.nn.model import ModelConfig, backward, build_model, forward, l2_penalty
from trailgrade.nn.ops import sparse_categorical_crossentropy
from trailgrade.training import (
    BATCH_SIZE,
    TrainConfig,
    TrainResult,
    confusion_matrix,
    confusion_to_csv,
    evaluate,
    history_to_csv,
    train,
)



def separable_samples(n_per_class, window_points=8, seed=0, name="s", scales=(0.2, 1.0, 3.0)):
    """Trivially separable constant-signal classes with a little noise."""
    rng = np.random.default_rng(seed)
    out = []
    i = 0
    for label, scale in enumerate(scales):
        for _ in range(n_per_class):
            data = scale + rng.normal(0.0, 0.05, (window_points, 4, 3))
            out.append(WindowSample(data, label, (name, i)))
            i += 1
    return out


class TestSparseCategoricalAccuracy:
    def test_perfect(self):
        probs = np.eye(3)
        assert sparse_categorical_accuracy(probs, np.array([0, 1, 2])) == 1.0

    def test_three_of_four(self):
        probs = np.array([[0.9, 0.05, 0.05]] * 4)
        assert sparse_categorical_accuracy(probs, np.array([0, 0, 0, 1])) == 0.75

    def test_lowest_index_wins_ties(self):
        probs = np.array([[0.5, 0.5, 0.0]])
        assert sparse_categorical_accuracy(probs, np.array([0])) == 1.0
        assert sparse_categorical_accuracy(probs, np.array([1])) == 0.0

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            sparse_categorical_accuracy(np.empty((0, 3)), np.empty(0, dtype=int))

    def test_agrees_with_loop_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 40))
            probs = rng.random((n, 3))
            labels = rng.integers(0, 3, size=n)
            assert sparse_categorical_accuracy(probs, labels) == accuracy_loop(probs, labels)


class TestConfusionMatrix:
    def test_all_correct_is_diagonal(self):
        cm = confusion_matrix(np.array([0, 1, 2]), np.array([0, 1, 2]))
        assert cm.dtype == np.int64
        assert np.array_equal(cm, np.eye(3, dtype=np.int64))

    def test_single_misclassification(self):
        cm = confusion_matrix(np.array([0]), np.array([2]))
        expected = np.zeros((3, 3), dtype=np.int64)
        expected[2, 0] = 1
        assert np.array_equal(cm, expected)

    def test_trace_identity_random(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 60))
            probs = rng.random((n, 3))
            labels = rng.integers(0, 3, size=n)
            cm = confusion_matrix(probs.argmax(axis=1), labels)
            assert int(np.trace(cm)) / n == sparse_categorical_accuracy(probs, labels)
            assert cm.sum() == n

    def test_csv_layout(self):
        text = confusion_to_csv(np.arange(9).reshape(3, 3))
        assert text == ",0,1,2\n0,0,1,2\n1,3,4,5\n2,6,7,8\n"


class TestTrainLoop:
    def test_result_fields_hold_no_confusion_matrix(self):
        names = [f.name for f in fields(TrainResult)]
        assert names == ["best_params", "best_epoch", "best_test_sca", "history", "stopped_early"]

    def test_patience_one_stops_at_epoch_two(self, tiny):
        train_set = separable_samples(10, seed=0)
        test_set = separable_samples(2, seed=1, name="t")
        result = train(train_set, test_set, tiny, TrainConfig(seed=0, max_epochs=6, patience=1))
        assert result.best_epoch == 1
        assert len(result.history) == 2
        assert result.stopped_early

    def test_descent_on_separable_data(self, tiny):
        train_set = separable_samples(10, seed=2)
        test_set = separable_samples(3, seed=3, name="t")
        result = train(train_set, test_set, tiny, TrainConfig(seed=1, max_epochs=50, patience=50))
        assert len(result.history) == 50
        assert result.history[49].train_loss < result.history[0].train_loss

    def test_deterministic_given_seed(self, tiny):
        train_set = separable_samples(6, seed=4)
        test_set = separable_samples(2, seed=5, name="t")
        config = TrainConfig(seed=11, max_epochs=5, patience=5)
        a = train(train_set, test_set, tiny, config)
        b = train(train_set, test_set, tiny, config)
        assert a.history == b.history
        for key in a.best_params.tensors:
            assert np.array_equal(a.best_params.tensors[key], b.best_params.tensors[key])

    def test_early_stopping_law_and_snapshot(self, tiny):
        train_set = separable_samples(8, seed=6)
        test_set = separable_samples(2, seed=7, name="t")
        config = TrainConfig(seed=3, max_epochs=12, patience=4)
        result = train(train_set, test_set, tiny, config)
        last = result.history[-1].epoch
        assert (last - result.best_epoch >= config.patience) or last == config.max_epochs
        assert result.best_test_sca == max(r.test_sca for r in result.history)
        assert result.best_epoch == min(
            r.epoch for r in result.history if r.test_sca == result.best_test_sca
        )
        # the snapshot reproduces the best accuracy exactly
        accuracy, confusion = evaluate(result.best_params, test_set)
        assert accuracy == result.best_test_sca
        assert type(accuracy) is type(result.best_test_sca) is float
        assert confusion.sum() == len(test_set)

    def test_metrics_bounded(self, tiny):
        train_set = separable_samples(5, seed=8)
        test_set = separable_samples(2, seed=9, name="t")
        result = train(train_set, test_set, tiny, TrainConfig(seed=5, max_epochs=4, patience=4))
        for record in result.history:
            assert 0.0 <= record.train_sca <= 1.0
            assert 0.0 <= record.test_sca <= 1.0
            assert record.train_loss >= 0.0

    def test_empty_dataset(self, tiny):
        samples = separable_samples(2)
        with pytest.raises(TooFewSamples, match="^train and test sets must be non-empty$"):
            train([], samples, tiny, TrainConfig(seed=0, max_epochs=1, patience=1))
        with pytest.raises(TooFewSamples, match="^train and test sets must be non-empty$"):
            train(samples, [], tiny, TrainConfig(seed=0, max_epochs=1, patience=1))

    def test_shape_mismatch(self, tiny):
        # a 7-point window pools to the 8-point model's flat size, so no op in
        # the network would notice it: only train's input check can
        for window_points in (9, 7):
            with pytest.raises(ShapeMismatch):
                train(
                    separable_samples(2, window_points=window_points),
                    separable_samples(1, window_points=window_points, name="t"),
                    tiny,
                    TrainConfig(seed=0, max_epochs=1, patience=1),
                )

    def test_test_set_shape_mismatch_names_the_test_sample(self, tiny):
        with pytest.raises(ShapeMismatch, match=r"sample \('t', 0\) of shape \(9, 4, 3\)"):
            train(
                separable_samples(2),
                separable_samples(1, window_points=9, name="t"),
                tiny,
                TrainConfig(seed=0, max_epochs=1, patience=1),
            )

    def test_mixed_window_lengths_name_the_odd_sample(self, rng, tiny):
        good = separable_samples(2)
        mixed = good[:3] + separable_samples(1, window_points=9, name="u")[:1] + good[3:]
        match = r"sample \('u', 0\) of shape \(9, 4, 3\)"
        with pytest.raises(ShapeMismatch, match=match):
            train(mixed, separable_samples(1, name="t"), tiny, TrainConfig(seed=0, max_epochs=1, patience=1))
        for window_points in (9, 7):
            mixed = good[:3] + separable_samples(1, window_points=window_points, name="u")[:1] + good[3:]
            match = rf"sample \('u', 0\) of shape \({window_points}, 4, 3\)"
            with pytest.raises(ShapeMismatch, match=match):
                evaluate(build_model(tiny, rng), mixed)

    def test_numeric_failure_on_absurd_l2(self, tiny, monkeypatch):
        monkeypatch.setattr(model, "L2_COEFF", 1e308)
        with pytest.raises(NumericFailure):
            train(
                separable_samples(3),
                separable_samples(1, name="t"),
                tiny,
                TrainConfig(seed=0, max_epochs=2, patience=2),
            )

    def test_final_short_batch_is_trained(self, tiny):
        # 35 samples with batch 32 leaves a 3-sample tail; it must still count
        train_set = separable_samples(12, seed=10)[:35]
        test_set = separable_samples(2, seed=11, name="t")
        result = train(train_set, test_set, tiny, TrainConfig(seed=2, max_epochs=2, patience=2))
        assert len(result.history) == 2

    def test_one_cross_entropy_per_batch(self, monkeypatch, tiny):
        # the trainer's loss call also gives backward its logits gradient
        calls = []

        def counting(probs, labels):
            calls.append(len(labels))
            return sparse_categorical_crossentropy(probs, labels)

        monkeypatch.setattr(training, "sparse_categorical_crossentropy", counting)
        monkeypatch.setattr(ops, "sparse_categorical_crossentropy", counting)
        train(separable_samples(24), separable_samples(2, name="t"), tiny, TrainConfig(seed=3, max_epochs=1, patience=1))
        assert calls == [32, 32, 8]  # 72 samples in batches of 32


class TestTrainMemory:
    def test_no_cache_outlives_its_step(self, monkeypatch, tiny):
        caches = []

        def recording_forward(params, batch, **kwargs):
            assert all(ref() is None for ref in caches), "an earlier step's cache is still alive"
            probs, cache = forward(params, batch, **kwargs)
            if cache is not None:
                caches.append(weakref.ref(cache))
            return probs, cache

        monkeypatch.setattr(training, "forward", recording_forward)
        train(separable_samples(24), separable_samples(2, name="t"), tiny, TrainConfig(seed=3, max_epochs=2, patience=2))
        assert len(caches) == 2 * 3  # 72 samples are 3 batches per epoch

    def test_no_cache_is_alive_during_adam(self, monkeypatch, tiny):
        caches, steps = [], []

        def recording_forward(params, batch, **kwargs):
            probs, cache = forward(params, batch, **kwargs)
            if cache is not None:
                caches.append(weakref.ref(cache))
            return probs, cache

        def checking_adam_step(*args):
            steps.append(all(ref() is None for ref in caches))
            return adam_step(*args)

        monkeypatch.setattr(training, "forward", recording_forward)
        monkeypatch.setattr(training, "adam_step", checking_adam_step)
        train(separable_samples(24), separable_samples(2, name="t"), tiny, TrainConfig(seed=3, max_epochs=2, patience=2))
        assert steps == [True] * 6, "a forward cache was alive while Adam ran"

    def test_step_peak_at_long_windows(self):
        # one step at 500-point windows and kernel 20, where the conv spectra
        # and Adam's scratch are largest: the backward keeps one input spectrum
        # per conv layer, before its width unfold, the cache is freed before
        # Adam, and Adam uses each gradient as its scratch. Measured: 44.6 MB
        # with two spectra per layer, the cache alive in Adam and two
        # temporaries per tensor; 40.6 MB without; 32.8 MB once backward
        # frees each block's cache as it goes and builds dense1's 4 MB weight
        # gradient after the conv blocks.
        rng = np.random.default_rng(5)
        samples = [WindowSample(rng.normal(size=(500, 4, 3)), i % 3, ("s", i)) for i in range(BATCH_SIZE + 1)]
        config = ModelConfig(window_points=500, kernel_len=20)

        def one_step():
            train(samples[:BATCH_SIZE], samples[BATCH_SIZE:], config, TrainConfig(seed=6, max_epochs=1, patience=1))

        one_step()  # numpy's first-call set-up is not the step's
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            one_step()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 35e6

    def test_backward_and_adam_add_less_than_a_parameter_set_to_the_forward_peak(self):
        # 500-point windows and kernel 60 at the paper's widths, where dense1's
        # weight gradient is 4.1 MB: backward frees each block's cache as it
        # goes and builds the dense weight gradients after the conv blocks.
        # Measured against 4.30 MB of parameters: -0.38 MB, as the batch the
        # forward held is gone; +6.41 MB with the dense1 gradient built first
        # and every block cache held to the end.
        rng = np.random.default_rng(5)
        params = build_model(ModelConfig(window_points=500, kernel_len=60), rng)
        state = init_adam(params)
        labels = np.arange(BATCH_SIZE) % 3

        def step():
            tracemalloc.reset_peak()
            probs, cache = forward(params, rng.normal(size=(BATCH_SIZE, 500, 4, 3)), train=True, rng=rng)
            forward_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            grads = backward(cache, sparse_categorical_crossentropy(probs, labels)[1])
            del probs, cache
            adam_step(params, grads, state)
            return tracemalloc.get_traced_memory()[1] - forward_peak

        tracemalloc.start()
        try:
            step()  # numpy's first-call set-up is not the step's
            added = step()
        finally:
            tracemalloc.stop()
        assert added < sum(t.nbytes for t in params.tensors.values())

    def test_peak_does_not_grow_with_the_training_set(self, tiny):
        # a stacked copy of the training set would add every extra window's bytes
        def one_epoch_peak(count):
            rng = np.random.default_rng(count)
            samples = [WindowSample(rng.normal(size=(8, 4, 3)), i % 3, ("s", i)) for i in range(count)]
            test_set = separable_samples(2, name="t")
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                train(samples, test_set, tiny, TrainConfig(seed=4, max_epochs=1, patience=1))
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        n = 256
        extra_bytes = 3 * n * 8 * 4 * 3 * 8
        assert one_epoch_peak(4 * n) - one_epoch_peak(n) < extra_bytes / 4


    @pytest.mark.skipif(sys.platform != "linux", reason="counts glibc's page faults")
    def test_steps_reuse_freed_memory(self):
        # each step frees its arrays before the next allocates them again; if
        # the allocator returned them to the kernel, every step would fault
        # its whole working set back in (about 250 faults per step here)
        code = textwrap.dedent("""
            import resource
            import numpy as np
            from trailgrade.dataset import WindowSample
            from trailgrade.nn.model import ModelConfig
            from trailgrade.training import TrainConfig, train

            rng = np.random.default_rng(0)
            samples = [WindowSample(rng.normal(size=(25, 4, 3)), i % 3, ("s", i)) for i in range(320)]
            config = ModelConfig(window_points=25, kernel_len=5)
            train(samples[:256], samples[256:], config, TrainConfig(seed=1, max_epochs=1, patience=1))
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            train(samples[:256], samples[256:], config, TrainConfig(seed=1, max_epochs=2, patience=2))
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        steps = 2 * 256 // BATCH_SIZE
        assert int(run_fresh_python(code)) < 10 * steps


def test_archive_windows_train_as_their_float64_casts(tmp_path, tiny):
    # forward casts each batch to float64, so float32 archive windows train
    # to the same bytes as the same values held as float64
    path = tmp_path / "a.tgds"
    write_sample_archive(separable_samples(6, seed=12), path)
    archived = read_sample_archive(path)
    widened = [WindowSample(s.data.astype(np.float64), s.label, s.origin) for s in archived]
    config = TrainConfig(seed=13, max_epochs=2, patience=2)
    a = train(archived[:14], archived[14:], tiny, config)
    b = train(widened[:14], widened[14:], tiny, config)
    assert a.history == b.history
    for key, tensor in a.best_params.tensors.items():
        assert tensor.tobytes() == b.best_params.tensors[key].tobytes()


def rescoring_train(train_samples, test_samples, model_config, train_config):
    """The loop train() ran when it re-scored the whole training set each epoch.

    Returns (history rows of (train_sca re-scored in infer mode, running
    train-mode accuracy, test_sca, train_loss), best_params, best_epoch,
    confusion counts of best_params on the test split).
    """
    train_data = np.stack([s.data for s in train_samples])
    train_labels = np.array([s.label for s in train_samples])
    test_data = np.stack([s.data for s in test_samples])
    test_labels = np.array([s.label for s in test_samples])
    batch = BATCH_SIZE

    def score(params, data, labels):
        probs = np.concatenate([forward(params, data[lo : lo + batch])[0] for lo in range(0, len(data), batch)])
        return float(np.mean(probs.argmax(axis=1) == labels)), probs.argmax(axis=1)

    rng = np.random.default_rng(train_config.seed)
    params = build_model(model_config, rng)
    state = init_adam(params)
    n = len(train_data)
    rows, best = [], (-1.0, 0, None)
    for epoch in range(1, train_config.max_epochs + 1):
        perm = rng.permutation(n)
        loss_sum, hits = 0.0, 0
        for lo in range(0, n, batch):
            idx = perm[lo : lo + batch]
            probs, cache = forward(params, train_data[idx], train=True, rng=rng)
            ce_loss, grad_logits = sparse_categorical_crossentropy(probs, train_labels[idx])
            penalty = l2_penalty(params)
            for row, label in zip(probs, train_labels[idx]):
                hits += int(np.argmax(row) == label)
            adam_step(params, backward(cache, grad_logits), state)
            loss_sum += (ce_loss + penalty) * len(idx)
        rescored, _ = score(params, train_data, train_labels)
        test_sca, _ = score(params, test_data, test_labels)
        rows.append((rescored, hits / n, test_sca, loss_sum / n))
        if test_sca > best[0]:
            best = (test_sca, epoch, params.copy())
    _, predicted = score(best[2], test_data, test_labels)
    counts = np.zeros((3, 3), dtype=np.int64)
    for label, guess in zip(test_labels, predicted):
        counts[label, guess] += 1
    return rows, best[2], best[1], counts


class TestTrainAgainstRescoringLoop:
    """train() no longer re-scores the training set; nothing else may move."""

    @pytest.fixture(scope="class")
    def runs(self):
        # 36 samples: one full batch of 32 and a short one of 4
        train_set = separable_samples(12, seed=16, scales=(0.5, 1.0, 1.5))
        test_set = separable_samples(4, seed=17, name="t", scales=(0.5, 1.0, 1.5))
        config = TrainConfig(seed=11, max_epochs=3, patience=3)
        with narrowed_network():
            tiny = ModelConfig(window_points=8, kernel_len=3)
            result = train(train_set, test_set, tiny, config)
            return result, rescoring_train(train_set, test_set, tiny, config), evaluate(result.best_params, test_set)

    def test_weights_test_sca_and_loss_unchanged(self, runs):
        result, (rows, best_params, best_epoch, counts), (_, confusion) = runs
        assert [(r.test_sca, r.train_loss) for r in result.history] == [(t, loss) for _, _, t, loss in rows]
        assert result.best_epoch == best_epoch
        assert result.best_params.tensors.keys() == best_params.tensors.keys()
        for key, value in best_params.tensors.items():
            assert result.best_params.tensors[key].tobytes() == value.tobytes(), key
        assert np.array_equal(confusion, counts)

    def test_train_sca_is_running_train_mode_accuracy(self, runs):
        result, (rows, _, _, _), _ = runs
        assert [r.train_sca for r in result.history] == [running for _, running, _, _ in rows]
        # a re-score in infer mode after the epoch is a different number
        assert [r.train_sca for r in result.history] != [rescored for rescored, _, _, _ in rows]


class TestEvaluate:
    def test_untrained_is_chance_level(self, rng, tiny):
        params = build_model(tiny, rng)
        samples = separable_samples(200, seed=12, scales=(0.5, 1.0, 1.5))
        accuracy, _ = evaluate(params, samples)
        assert abs(accuracy - 1.0 / 3.0) < 0.1

    def test_repeatable(self, rng, tiny):
        params = build_model(tiny, rng)
        samples = separable_samples(5, seed=13)
        first = evaluate(params, samples)
        second = evaluate(params, samples)
        assert first[0] == second[0]
        assert np.array_equal(first[1], second[1])

    def test_counts_follow_a_loop_over_forward(self, rng, tiny):
        # 40 samples: one full batch and a short one; an untrained model misses
        # some, so swapped true and predicted axes would show
        params = build_model(tiny, rng)
        samples = separable_samples(13, seed=21, scales=(0.5, 1.0, 1.5))[:40]
        expected = np.zeros((3, 3), dtype=np.int64)
        for lo in range(0, len(samples), BATCH_SIZE):
            chunk = samples[lo : lo + BATCH_SIZE]
            probs = forward(params, np.stack([s.data for s in chunk]))[0]
            for s, row in zip(chunk, probs):
                expected[s.label][int(np.argmax(row))] += 1
        accuracy, counts = evaluate(params, samples)
        assert not np.array_equal(expected, expected.T)
        assert np.array_equal(counts, expected)
        assert accuracy == int(np.trace(expected)) / len(samples)

    def test_single_sample(self, rng, tiny):
        params = build_model(tiny, rng)
        accuracy, _ = evaluate(params, separable_samples(1)[:1])
        assert accuracy in (0.0, 1.0)

    def test_empty(self, rng, tiny):
        with pytest.raises(TooFewSamples, match="^nothing to evaluate$"):
            evaluate(build_model(tiny, rng), [])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_sample(self, rng, value, tiny):
        # argmax of a NaN row is 0, which would score this window as a hit
        samples = separable_samples(2, seed=18)
        samples[0].data[3, 1, 2] = value
        with pytest.raises(NumericFailure):
            evaluate(build_model(tiny, rng), samples)
        with pytest.raises(NumericFailure):
            train(separable_samples(2), samples, tiny, TrainConfig(seed=0, max_epochs=1, patience=1))

    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_out_of_range_names_the_sample(self, rng, label, tiny):
        # -1 would be counted in the "hard" row of the confusion matrix, 3 would
        # index past it
        samples = separable_samples(2, seed=20, name="t")
        samples[1] = replace(samples[1], label=label)
        message = rf"^sample \('t', 1\) has label {label}, outside \[0, 3\)$"
        with pytest.raises(LabelOutOfRange, match=message):
            evaluate(build_model(tiny, rng), samples)
        with pytest.raises(LabelOutOfRange, match=message):
            train(separable_samples(2), samples, tiny, TrainConfig(seed=0, max_epochs=1, patience=1))

    def test_non_finite_probabilities(self, rng, tiny):
        # a negative running variance gives NaN probabilities, whose argmax is 0
        params = build_model(tiny, rng)
        params.tensors["bn1/var"][...] = -5.0
        with pytest.raises(NumericFailure), np.errstate(invalid="ignore"):
            evaluate(params, separable_samples(2, seed=19))


class TestHistoryCsv:
    def test_roundtrip_exact(self, tiny):
        train_set = separable_samples(4, seed=14)
        test_set = separable_samples(2, seed=15, name="t")
        result = train(train_set, test_set, tiny, TrainConfig(seed=8, max_epochs=3, patience=3))
        text = history_to_csv(result.history)
        assert text.splitlines()[0] == "epoch,train_sca,test_sca,train_loss"
        assert history_from_csv(text) == result.history

    def test_header_checked(self):
        with pytest.raises(ValueError):
            history_from_csv("nope\n1,0.5,0.5,0.1\n")


#: The paper cell's trained bytes, keyed by what decides the floating-point
#: results: the numpy version, the BLAS and the SIMD extensions numpy found on
#: the CPU. Each value is (history CSV, checkpoint), each the first 16 hex
#: digits of its SHA-256, the same with one BLAS thread or several. Recorded on
#: an x86-64 host with AVX-512; bench/run.py's train-paper-cell prints the
#: same digests at seed 71.
PAPER_CELL_DIGESTS = {
    ("2.4.6", "scipy-openblas 0.3.31.188.0", ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")): (
        "6193ca226bfbac4c",
        "86133df770f20cb6",
    ),
}


def _numeric_environment():
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    found = tuple(config.get("SIMD Extensions", {}).get("found", ()))
    return np.__version__, f"{blas.get('name')} {blas.get('version')}", found


def test_paper_cell_trains_the_recorded_bytes(tmp_path):
    # criterion 5's cell, 5000 ms windows and kernel 20, built as the CLI's
    # synth -> window -> train chain builds it, with a float32 archive between
    environment = _numeric_environment()
    if environment not in PAPER_CELL_DIGESTS:
        pytest.skip(f"no digests recorded for numpy {environment[0]}, {environment[1]}, SIMD {environment[2]}")
    spec = experiments.SyntheticSpec(20, 20, 71)
    config = WindowConfig(5000)
    samples = []
    for session, track in experiments.generate_synthetic(spec):
        samples.extend(slice_windows(session, track, config))
    archive = tmp_path / "paper-cell.tgds"
    write_sample_archive(samples, archive)
    train_set, test_set = experiments.prepare_splits(read_sample_archive(archive), 71)
    result = train(
        train_set, test_set, ModelConfig(125, 20), TrainConfig(seed=74, max_epochs=8, patience=8)
    )
    save_checkpoint(result.best_params, tmp_path / "paper-cell.ckpt")
    digests = tuple(
        hashlib.sha256(data).hexdigest()[:16]
        for data in (history_to_csv(result.history).encode(), (tmp_path / "paper-cell.ckpt").read_bytes())
    )
    assert digests == PAPER_CELL_DIGESTS[environment]
