"""trailgrade: mountainbike trail difficulty from two-unit IMU recordings.

The pipeline: per-sensor CSV logs are synchronized and resampled to 25 Hz
(`ingest`), difficulty labels come from OSM grades plus manual overrides
(`labeling`), sessions are cut into stacked (n, 4, 3) window samples
(`dataset`), a from-scratch convolutional network (`nn`) is trained with Adam
and early stopping (`training`), and a window-size x kernel-size grid plus
synthetic data generation live in `experiments`. Each name is imported from
its module, such as `trailgrade.training.train`: the package re-exports nothing.
"""

from . import dataset, errors, experiments, framing, ingest, labeling, nn, training
