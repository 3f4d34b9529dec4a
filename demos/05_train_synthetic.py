"""Train the network end to end on synthetic sessions and plot the curves.

A short run (5000 ms windows, kernel length 20, 15 epochs) on a small
synthetic corpus: the classes are separable by construction, so accuracy
should climb towards 1.0 within a handful of epochs. The train column is the
running train-mode accuracy over each epoch's batches (dropout on), as Keras
reports it; the test column scores the held-out split in infer mode.
Artifacts land in demos/out/.
"""

from pathlib import Path

from trailgrade.dataset import WindowConfig, slice_windows
from trailgrade.experiments import SyntheticSpec, curves_svg, generate_synthetic, prepare_splits
from trailgrade.nn.checkpoint import save_checkpoint
from trailgrade.nn.model import ModelConfig
from trailgrade.training import TrainConfig, evaluate, history_to_csv, train

out_dir = Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)

print("== data ==")
pairs = generate_synthetic(SyntheticSpec(sessions_per_class=6, session_seconds=20, seed=42))
config = WindowConfig(5000)
samples = []
for session, track in pairs:
    samples.extend(slice_windows(session, track, config))
train_set, test_set = prepare_splits(samples, seed=42)
print(f"{len(samples)} windows -> {len(train_set)} train (balanced), {len(test_set)} test")

print("\n== training ==")
model_config = ModelConfig(window_points=config.window_points, kernel_len=20)
result = train(train_set, test_set, model_config, TrainConfig(seed=42, max_epochs=15, patience=15))
for record in result.history:
    print(
        f"  epoch {record.epoch:>2d}  loss {record.train_loss:.4f}  "
        f"running train sca {record.train_sca:.3f}  test sca {record.test_sca:.3f}"
    )
print(f"best test sca {result.best_test_sca:.4f} at epoch {result.best_epoch}")

print("\n== evaluation of the snapshotted best weights ==")
accuracy, confusion = evaluate(result.best_params, test_set)
print(f"accuracy {accuracy:.4f}; confusion matrix (rows true, cols predicted):")
print(confusion)

(out_dir / "history.csv").write_text(history_to_csv(result.history))
(out_dir / "curves.svg").write_text(curves_svg(result.history))
save_checkpoint(result.best_params, out_dir / "model.ckpt")
print(f"\nwrote {out_dir}/history.csv, curves.svg, model.ckpt (+ .txt sidecar)")
