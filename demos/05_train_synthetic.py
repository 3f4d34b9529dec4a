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
from trailgrade.experiments import SyntheticSpec, generate_synthetic, prepare_splits
from trailgrade.nn.checkpoint import save_checkpoint
from trailgrade.nn.model import ModelConfig
from trailgrade.training import TrainConfig, evaluate, history_to_csv, train


def curves_svg(history) -> str:
    """The history's train and test accuracy as two SVG polylines over the epochs."""
    width, height, margin = 640, 400, 50
    max_epoch = history[-1].epoch
    span = max(1, max_epoch - 1)

    def x(epoch):
        return margin + (epoch - 1) * (width - 2 * margin) / span

    def y(value):
        return height - margin - value * (height - 2 * margin)

    train_pts = " ".join(f"{x(r.epoch):.2f},{y(r.train_sca):.2f}" for r in history)
    test_pts = " ".join(f"{x(r.epoch):.2f},{y(r.test_sca):.2f}" for r in history)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">\n'
        f'  <rect width="{width}" height="{height}" fill="white"/>\n'
        f'  <line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>\n'
        f'  <line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>\n'
        f'  <text x="{width // 2}" y="{height - 10}" text-anchor="middle" '
        f'font-size="14">epoch (1..{max_epoch})</text>\n'
        f'  <text x="14" y="{height // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 14 {height // 2})">sparse categorical accuracy</text>\n'
        f'  <polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="{train_pts}"/>\n'
        f'  <polyline fill="none" stroke="#ff7f0e" stroke-width="1.5" points="{test_pts}"/>\n'
        f"</svg>\n"
    )


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
