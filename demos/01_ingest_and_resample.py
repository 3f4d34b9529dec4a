"""Walk through ingestion: CSV logs -> synchronize -> 25 Hz grid -> session.

The accelerometers record at 12.5 Hz and the gyroscopes at 25 Hz, and the four
units never start at exactly the same instant. This script fabricates such a
recording, then shows each pipeline stage doing its job.
"""

import tempfile
from pathlib import Path

import numpy as np

from trailgrade.ingest import (
    CHANNEL_ORDER,
    SensorKind,
    build_session,
    parse_sensor_csv,
    resample_linear,
    synchronize,
    write_sensor_csv,
)

rng = np.random.default_rng(0)
# the logs are written to files, as a recording's are, and parsed from there
scratch = tempfile.TemporaryDirectory()
workdir = Path(scratch.name)

print("== fabricate four raw logs (one per sensor) ==")
logs = []
for mount, kind in CHANNEL_ORDER:
    step = 80 if kind is SensorKind.ACCELEROMETER else 40  # 12.5 vs 25 Hz
    offset = rng.integers(0, 120)  # each unit starts whenever it feels like
    timestamps = offset + np.arange(0, 10_000, step)
    rows = ["timestamp_ms,x,y,z"]
    rows += [f"{t},{rng.normal()!r},{rng.normal()!r},{rng.normal()!r}" for t in timestamps]
    path = workdir / f"{mount.value}_{kind.value}.csv"
    path.write_text("\n".join(rows) + "\n")
    log = parse_sensor_csv(path, kind, mount)
    logs.append(log)
    print(
        f"  {mount.value:6s} {kind.value:13s} start {log.timestamps[0]:4d} ms, "
        f"{log.timestamps.size} samples, {step} ms apart"
    )

print("\n== synchronize to the latest starting unit ==")
synced = synchronize(logs)
for log in synced:
    print(f"  {log.mount.value:6s} {log.sensor_kind.value:13s} now starts at {log.timestamps[0]} ms")

print("\n== resample everything onto the 25 Hz lattice ==")
# a session keeps nothing after the earliest last sample, so no log is resampled past it
end_ms = min(int(log.timestamps[-1]) for log in synced)
channels = [resample_linear(log, end_ms) for log in synced]
for ch in channels:
    print(f"  {ch.mount.value:6s} {ch.sensor_kind.value:13s} {ch.length} points from {ch.start_time_ms} ms")

# the first surviving sample of each unit may sit on a different lattice
# point; build_session trims whole periods to line them up
session = build_session(channels, name="demo-ride")
print("aligned start:", session.start_time_ms, "ms")
print(f"\nsession '{session.name}': {session.length_points} points, stacked shape {session.data.shape}")
print("row order:", [f"{m.value}/{k.value}" for m, k in CHANNEL_ORDER])

print("\n== CSV round-trip is exact ==")
path = workdir / "roundtrip.csv"
path.write_text(write_sensor_csv(logs[0]))
again = parse_sensor_csv(path, logs[0].sensor_kind, logs[0].mount)
print("re-parsed equals original:", np.array_equal(again.values, logs[0].values))
scratch.cleanup()
