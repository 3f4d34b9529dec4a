"""Mini-batch Adam training with early stopping on held-out accuracy.

Each epoch shuffles the training set and runs batches of BATCH_SIZE through
train-mode forward / backward / Adam. Its train accuracy is the running train-mode
accuracy over those batches, as Keras reports it: dropout is on and the
weights change from batch to batch, and the training set is not re-scored.
The test split is then scored in infer mode. The weights of the best test
epoch are snapshotted and returned; training stops after `patience` epochs
without strict improvement or at `max_epochs`. Training builds no confusion
matrix: `evaluate` of those weights gives that epoch's accuracy and counts.
"""

import sys
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataset, LabelOutOfRange, NumericFailure, ShapeMismatch
from .nn.adam import adam_step, init_adam
from .nn.model import CLASSES, ModelConfig, ModelParams, backward, build_model, forward, l2_penalty
from .nn.ops import sparse_categorical_crossentropy

HISTORY_CSV_HEADER = "epoch,train_sca,test_sca,train_loss"

#: The paper's mini-batch size, for training and for every evaluation.
BATCH_SIZE = 32

# mallopt parameter numbers, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@dataclass(frozen=True)
class TrainConfig:
    seed: int
    max_epochs: int = 1500
    patience: int = 250

    def __post_init__(self):
        if min(self.max_epochs, self.patience) < 1:
            raise ValueError("max_epochs, patience must be positive")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_sca: float
    test_sca: float
    train_loss: float


@dataclass
class TrainResult:
    best_params: ModelParams
    best_epoch: int
    best_test_sca: float
    history: list
    stopped_early: bool


def confusion_matrix(predicted, labels) -> np.ndarray:
    """counts[true][predicted] of two int arrays, as a (CLASSES, CLASSES) int64 array."""
    return np.bincount(labels * CLASSES + predicted, minlength=CLASSES**2).reshape(CLASSES, CLASSES)


def _checked_labels(samples, config: ModelConfig):
    """The samples' labels, after checking each window's shape, values and label.

    Raises on the first sample that does not fit the model input, holds a
    non-finite value or carries a label outside [0, CLASSES), naming its
    origin; no window is copied.
    """
    expected = (config.window_points, 4, 3)
    for s in samples:
        # neither the loss nor a confusion matrix has a row for such a label
        if not 0 <= s.label < CLASSES:
            raise LabelOutOfRange(f"sample {s.origin} has label {s.label}, outside [0, {CLASSES})")
        if s.data.shape != expected:
            raise ShapeMismatch(
                f"sample {s.origin} of shape {s.data.shape} does not match the {expected} model input"
            )
        # argmax of a NaN row is 0, so a non-finite window would be scored, not rejected
        if not np.isfinite(s.data).all():
            raise NumericFailure(f"sample {s.origin} has non-finite data")
    return np.array([s.label for s in samples], dtype=np.int64)


def _predict(params, samples):
    """Infer-mode predicted classes, (N,) int64, one forward per BATCH_SIZE slice."""
    predicted = np.empty(len(samples), dtype=np.int64)
    for lo in range(0, len(samples), BATCH_SIZE):
        batch = np.stack([s.data for s in samples[lo : lo + BATCH_SIZE]])
        probs = forward(params, batch)[0]
        # argmax of a NaN row is 0, so non-finite weights would score as class 0
        if not np.isfinite(probs).all():
            raise NumericFailure("non-finite probabilities")
        predicted[lo : lo + BATCH_SIZE] = probs.argmax(axis=1)
    return predicted


def evaluate(params: ModelParams, samples):
    """Infer-mode (accuracy, counts[true][predicted]) over a sample set. Pure.

    Batches are the training batch size, so re-evaluating a snapshot
    reproduces its recorded accuracy bit for bit.
    """
    if not samples:
        raise EmptyDataset("nothing to evaluate")
    labels = _checked_labels(samples, params.config)
    counts = confusion_matrix(_predict(params, samples), labels)
    return int(np.trace(counts)) / len(samples), counts


def _keep_freed_heap():
    """Ask the C allocator to keep freed memory in the process for reuse.

    Each train step frees all of its arrays before the next step allocates
    them again. glibc serves blocks above its mmap threshold with fresh
    mappings and hands a free heap top above its trim threshold (twice the
    mmap threshold) back to the kernel. Both start low and rise only when a
    large mapped block is freed, so in a fresh process, such as a grid
    worker, every step faulted its whole working set back in. These are the
    highest values glibc's dynamic thresholds reach on 64-bit. The setting
    is process-wide; outside Linux it is left alone.
    """
    if sys.platform.startswith("linux"):
        import ctypes

        libc = ctypes.CDLL(None)
        libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        libc.mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def train(train_samples, test_samples, model_config: ModelConfig, train_config: TrainConfig) -> TrainResult:
    """Run the full training loop; deterministic given data and seed."""
    if not train_samples or not test_samples:
        raise EmptyDataset("train and test sets must be non-empty")
    _keep_freed_heap()
    train_labels = _checked_labels(train_samples, model_config)
    test_labels = _checked_labels(test_samples, model_config)

    rng = np.random.default_rng(train_config.seed)
    params = build_model(model_config, rng)
    state = init_adam(params)
    n = len(train_samples)
    # No degenerate-batch merging is needed here: batchnorm reduces over
    # B * H * 4 values per channel at a block of height H, which is >= 4
    # even for a 1-sample batch of 1-point windows.
    history = []
    best_sca, best_epoch, best_params = -1.0, 0, None
    stopped_early = False
    for epoch in range(1, train_config.max_epochs + 1):
        perm = rng.permutation(n)
        loss_sum = 0.0
        hits = 0
        for lo in range(0, n, BATCH_SIZE):
            idx = perm[lo : lo + BATCH_SIZE]
            labels = train_labels[idx]
            # each batch is gathered from its samples, the only copy made of them
            batch = np.stack([train_samples[i].data for i in idx])
            probs, cache = forward(params, batch, train=True, rng=rng)
            del batch  # the conv1 cache holds the input's spectrum, not the batch
            ce_loss, grad_logits = sparse_categorical_crossentropy(probs, labels)
            loss = ce_loss + l2_penalty(params)
            if not np.isfinite(loss):
                raise NumericFailure(f"non-finite loss at epoch {epoch}")
            hits += int(np.count_nonzero(probs.argmax(axis=1) == labels))
            loss_sum += loss * len(idx)
            # backward consumes the cache's block intermediates as it goes; free
            # the rest before Adam's scratch, and the gradients before the next forward
            grads = backward(cache, grad_logits)
            del probs, cache, grad_logits
            adam_step(params, grads, state)
            del grads
        # predicting at the training batch size keeps buffer shapes uniform,
        # which the allocator rewards; a Python int / int keeps test_sca a float
        test_hits = int(np.count_nonzero(_predict(params, test_samples) == test_labels))
        test_sca = test_hits / len(test_samples)
        history.append(EpochRecord(epoch, hits / n, test_sca, loss_sum / n))
        if test_sca > best_sca:
            best_sca, best_epoch = test_sca, epoch
            best_params = params.copy()
        if epoch - best_epoch >= train_config.patience:
            stopped_early = True
            break
    return TrainResult(best_params, best_epoch, best_sca, history, stopped_early)


def history_to_csv(history) -> str:
    """`epoch,train_sca,test_sca,train_loss` rows; floats round-trip exactly."""
    rows = [HISTORY_CSV_HEADER]
    for r in history:
        rows.append(f"{r.epoch},{r.train_sca!r},{r.test_sca!r},{r.train_loss!r}")
    return "\n".join(rows) + "\n"


def confusion_to_csv(counts) -> str:
    """A header of predicted classes, then one `true,count,...` row per true class."""
    rows = ["," + ",".join(str(j) for j in range(len(counts)))]
    rows += [f"{i}," + ",".join(str(c) for c in row.tolist()) for i, row in enumerate(counts)]
    return "\n".join(rows) + "\n"
