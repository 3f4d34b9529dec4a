"""A desk-scale version of the window-size x kernel-size experiment grid.

The full study crosses five window sizes with five kernel lengths; three cells
are impossible because the kernel would be longer than the window (1000 ms
holds only 25 points, 2000 ms only 50). Here a reduced grid with short
training shows the machinery: per-cell seeds, the cells the grid skips, the
rendered table, and the CSV twin.

The full grid at standard settings is a long run; invoke it via
`trailgrade grid --data <dir> --seed 42 --jobs 2 --out grid/` when you mean it.
"""

from trailgrade.experiments import (
    SKIPPED_KERNEL_TOO_LONG,
    GridSpec,
    SyntheticSpec,
    generate_synthetic,
    report_csv,
    report_table,
    run_grid,
)
from trailgrade.training import TrainConfig

print("== reduced grid on synthetic data (2 windows x 3 kernels, 3 epochs) ==")
data = generate_synthetic(SyntheticSpec(sessions_per_class=3, session_seconds=30, seed=4))
spec = GridSpec(
    train_config=TrainConfig(seed=4, max_epochs=3, patience=3),
    seed=4,
    window_ms_list=(1000, 2000),
    kernel_len_list=(10, 20, 60),
)
results = run_grid(data, spec)

for r in results:
    if r.status == SKIPPED_KERNEL_TOO_LONG:
        print(f"  window {r.window_ms} ms cannot fit a ({r.kernel_len}, 2) kernel: skipped")
print()
print(report_table(results))
print("machine-readable twin:")
print(report_csv(results))
