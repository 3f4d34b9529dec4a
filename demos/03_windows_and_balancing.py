"""Cut sessions into stacked (n, 4, 3) windows, split, balance, shuffle.

Windows slide with 75% overlap; at 25 Hz the five studied window sizes
1000/2000/5000/10000/20000 ms hold 25/50/125/250/500 points. A window is kept
only when its whole span carries a single label. Class balance is restored by
duplicating minority-class training samples, after the 80/20 split so nothing
leaks into the test side.
"""

from trailgrade.dataset import (
    WindowConfig,
    class_histogram,
    oversample_balance,
    shuffle,
    slice_windows,
    split_train_test,
)
from trailgrade.experiments import SyntheticSpec, generate_synthetic

print("== window sizes and strides ==")
for window_ms in (1000, 2000, 5000, 10000, 20000):
    config = WindowConfig(window_ms)
    print(f"  {window_ms:>5d} ms -> {config.window_points:>3d} points, stride {config.stride}")

print("\n== windows from six 30 s synthetic sessions ==")
pairs = generate_synthetic(SyntheticSpec(sessions_per_class=2, session_seconds=30, seed=1))
config = WindowConfig(5000)
samples = []
for session, track in pairs:
    windows = slice_windows(session, track, config)
    samples.extend(windows)
    print(f"  {session.name}: {len(windows)} windows of shape {windows[0].data.shape}")
print(f"total {len(samples)} samples, class counts {class_histogram(samples)}")

print("\n== 80/20 split, then balance only the train side ==")
train, test = split_train_test(samples, seed=7)
print(f"train {len(train)} {class_histogram(train)}")
print(f"test  {len(test)} {class_histogram(test)}")

balanced = oversample_balance(train, seed=7)
print(f"after oversampling: {len(balanced)} samples, {class_histogram(balanced)}")
print("duplicates are literal copies of originals; the test split is untouched")

ready = shuffle(balanced, seed=7)
print(f"\nshuffled first five origins: {[s.origin for s in ready[:5]]}")
