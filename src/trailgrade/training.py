"""Mini-batch Adam training with early stopping on held-out accuracy.

Each epoch shuffles the training set and runs batches of 32 through train-mode
forward / backward / Adam. Its train accuracy is the running train-mode
accuracy over those batches, as Keras reports it: dropout is on and the
weights change from batch to batch, and the training set is not re-scored.
The test split is then scored in infer mode. The weights and confusion matrix
of the best test epoch are snapshotted and returned; training stops after
`patience` epochs without strict improvement or at `max_epochs`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatch, EmptyDataset, NumericFailure, ShapeMismatch
from .nn.adam import adam_step, init_adam
from .nn.model import CLASSES, ModelConfig, ModelParams, backward, build_model, forward, l2_penalty
from .nn.ops import sparse_categorical_crossentropy

HISTORY_CSV_HEADER = "epoch,train_sca,test_sca,train_loss"


@dataclass(frozen=True)
class TrainConfig:
    seed: int
    batch_size: int = 32
    max_epochs: int = 1500
    patience: int = 250

    def __post_init__(self):
        if min(self.batch_size, self.max_epochs, self.patience) < 1:
            raise ValueError("batch_size, max_epochs, patience must be positive")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_sca: float
    test_sca: float
    train_loss: float


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[true][predicted] over one evaluation."""

    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        return float(np.trace(self.counts)) / self.total

    def to_csv(self) -> str:
        k = self.counts.shape[0]
        header = "," + ",".join(str(j) for j in range(k))
        rows = [header]
        for i in range(k):
            rows.append(f"{i}," + ",".join(str(int(c)) for c in self.counts[i]))
        return "\n".join(rows) + "\n"


@dataclass
class TrainResult:
    best_params: ModelParams
    best_epoch: int
    best_test_sca: float
    history: list
    confusion: ConfusionMatrix
    stopped_early: bool


def confusion_matrix(probs, labels) -> ConfusionMatrix:
    probs = np.asarray(probs)
    labels = np.asarray(labels)
    if probs.ndim != 2 or probs.shape[0] == 0:
        raise EmptyBatch("need at least one prediction row")
    if labels.shape != (probs.shape[0],):
        raise ShapeMismatch(f"labels {labels.shape} do not match batch of {probs.shape[0]}")
    counts = np.zeros((CLASSES, CLASSES), dtype=np.int64)
    np.add.at(counts, (labels, probs.argmax(axis=1)), 1)
    return ConfusionMatrix(counts)


def _stack(samples):
    data = np.stack([s.data for s in samples])
    # argmax of a NaN row is 0, so a non-finite window would be scored, not rejected
    if not np.isfinite(data).all():
        raise NumericFailure("non-finite sample data")
    labels = np.array([s.label for s in samples], dtype=np.int64)
    return data, labels


def _evaluate_arrays(params, data, labels, batch_size):
    probs = np.empty((len(data), CLASSES))
    for lo in range(0, len(data), batch_size):
        probs[lo : lo + batch_size] = forward(params, data[lo : lo + batch_size])[0]
    # argmax of a NaN row is 0, so non-finite weights would score as class 0
    if not np.isfinite(probs).all():
        raise NumericFailure("non-finite probabilities")
    cm = confusion_matrix(probs, labels)
    return cm.accuracy, cm


def evaluate(params: ModelParams, samples):
    """Infer-mode (accuracy, confusion matrix) over a sample set. Pure.

    Batches are TrainConfig's default size, so re-evaluating a snapshot of a
    default-batch run reproduces its recorded accuracy bit for bit.
    """
    if not samples:
        raise EmptyDataset("nothing to evaluate")
    data, labels = _stack(samples)
    return _evaluate_arrays(params, data, labels, TrainConfig.batch_size)


def train(train_samples, test_samples, model_config: ModelConfig, train_config: TrainConfig) -> TrainResult:
    """Run the full training loop; deterministic given data and seed."""
    if not train_samples or not test_samples:
        raise EmptyDataset("train and test sets must be non-empty")
    train_data, train_labels = _stack(train_samples)
    test_data, test_labels = _stack(test_samples)
    expected = (model_config.window_points, 4, 3)
    if train_data.shape[1:] != expected or test_data.shape[1:] != expected:
        raise ShapeMismatch(
            f"samples of shape {train_data.shape[1:]} do not match the {expected} model input"
        )

    rng = np.random.default_rng(train_config.seed)
    params = build_model(model_config, rng)
    state = init_adam(params)
    n = len(train_data)
    # No degenerate-batch merging is needed here: batchnorm reduces over
    # B * n * 4 values per channel, which is >= 8 even for a 1-sample batch.
    history = []
    best_sca, best_epoch, best_params, confusion = -1.0, 0, None, None
    stopped_early = False
    for epoch in range(1, train_config.max_epochs + 1):
        perm = rng.permutation(n)
        loss_sum = 0.0
        hits = 0
        for lo in range(0, n, train_config.batch_size):
            idx = perm[lo : lo + train_config.batch_size]
            labels = train_labels[idx]
            probs, cache = forward(params, train_data[idx], train=True, rng=rng)
            ce_loss, _ = sparse_categorical_crossentropy(probs, labels)
            loss = ce_loss + l2_penalty(params)
            if not np.isfinite(loss):
                raise NumericFailure(f"non-finite loss at epoch {epoch}")
            hits += int(np.count_nonzero(probs.argmax(axis=1) == labels))
            grads = backward(cache, labels)
            adam_step(params, grads, state)
            loss_sum += loss * len(idx)
        # evaluating at the training batch size keeps buffer shapes uniform,
        # which the allocator rewards
        test_sca, test_confusion = _evaluate_arrays(params, test_data, test_labels, train_config.batch_size)
        history.append(EpochRecord(epoch, hits / n, test_sca, loss_sum / n))
        if test_sca > best_sca:
            best_sca, best_epoch = test_sca, epoch
            best_params, confusion = params.copy(), test_confusion
        if epoch - best_epoch >= train_config.patience:
            stopped_early = True
            break
    return TrainResult(best_params, best_epoch, best_sca, history, confusion, stopped_early)


def history_to_csv(history) -> str:
    """`epoch,train_sca,test_sca,train_loss` rows; floats round-trip exactly."""
    rows = [HISTORY_CSV_HEADER]
    for r in history:
        rows.append(f"{r.epoch},{r.train_sca!r},{r.test_sca!r},{r.train_loss!r}")
    return "\n".join(rows) + "\n"
