"""Walk through ingestion: CSV logs -> synchronize -> 25 Hz grid -> session.

The accelerometers record at 12.5 Hz and the gyroscopes at 25 Hz, and the four
units never start at exactly the same instant. This script fabricates such a
recording, then shows each pipeline stage doing its job.
"""

import tempfile
from pathlib import Path

import numpy as np

from trailgrade.ingest import (
    CHANNEL_ROLES,
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
for role in CHANNEL_ROLES:
    step = 80 if role.endswith("accel") else 40  # 12.5 vs 25 Hz
    offset = rng.integers(0, 120)  # each unit starts whenever it feels like
    timestamps = offset + np.arange(0, 10_000, step)
    rows = ["timestamp_ms,x,y,z"]
    rows += [f"{t},{rng.normal()!r},{rng.normal()!r},{rng.normal()!r}" for t in timestamps]
    path = workdir / f"{role}.csv"
    path.write_text("\n".join(rows) + "\n")
    log = parse_sensor_csv(path)
    logs.append(log)
    print(f"  {role:12s} start {log.timestamps[0]:4d} ms, {log.timestamps.size} samples, {step} ms apart")

print("\n== synchronize to the latest starting unit ==")
synced = synchronize(logs)
for role, log in zip(CHANNEL_ROLES, synced):
    print(f"  {role:12s} now starts at {log.timestamps[0]} ms")

print("\n== resample everything onto the 25 Hz lattice ==")
# a session keeps nothing after the earliest last sample, so no log is resampled past it
end_ms = min(int(log.timestamps[-1]) for log in synced)
channels = [resample_linear(log, end_ms) for log in synced]
for role, ch in zip(CHANNEL_ROLES, channels):
    print(f"  {role:12s} {ch.length} points from {ch.start_time_ms} ms")

# the first surviving sample of each unit may sit on a different lattice
# point; build_session trims whole periods to line them up
session = build_session(channels, name="demo-ride")
print("aligned start:", session.start_time_ms, "ms")
print(f"\nsession '{session.name}': {session.length_points} points, stacked shape {session.data.shape}")
print("row order:", list(CHANNEL_ROLES))

print("\n== CSV round-trip is exact ==")
path = workdir / "roundtrip.csv"
path.write_text(write_sensor_csv(logs[0]))
again = parse_sensor_csv(path)
print("re-parsed equals original:", np.array_equal(again.values, logs[0].values))
scratch.cleanup()
