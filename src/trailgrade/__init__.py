"""trailgrade: mountainbike trail difficulty from two-unit IMU recordings.

The pipeline: per-sensor CSV logs are synchronized and resampled to 25 Hz
(`ingest`), difficulty labels come from OSM grades plus manual overrides
(`labeling`), sessions are cut into stacked (n, 4, 3) window samples
(`dataset`), a from-scratch convolutional network (`nn`) is trained with Adam
and early stopping (`training`), and a window-size x kernel-size grid plus
synthetic data generation live in `experiments`.
"""

from .dataset import (
    DatasetSplit,
    WindowConfig,
    WindowSample,
    class_histogram,
    oversample_balance,
    read_sample_archive,
    shuffle,
    slice_windows,
    split_train_test,
    write_sample_archive,
)
from .experiments import (
    ClassSignature,
    ExperimentResult,
    GridSpec,
    SyntheticSpec,
    export_curves,
    generate_synthetic,
    report_csv,
    report_table,
    run_grid,
)
from .ingest import (
    CHANNEL_ORDER,
    Mount,
    RawSensorLog,
    SensorChannel,
    SensorKind,
    SyncedSession,
    build_session,
    load_session,
    parse_sensor_csv,
    read_session_archive,
    resample_linear,
    synchronize,
    write_sensor_csv,
    write_session_archive,
)
from .labeling import (
    EASY,
    HARD,
    LABELS,
    MEDIUM,
    LabelTrack,
    apply_overrides,
    label_at,
    map_grade,
    parse_osm_difficulties,
    uniform_label,
)
from .nn import (
    ModelConfig,
    ModelParams,
    adam_step,
    build_model,
    forward,
    load_checkpoint,
    save_checkpoint,
)
from .training import (
    ConfusionMatrix,
    EpochRecord,
    TrainConfig,
    TrainResult,
    confusion_matrix,
    evaluate,
    train,
)

__version__ = "0.1.0"
