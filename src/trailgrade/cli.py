"""Command-line interface covering the whole pipeline.

Subcommands: ingest, label, window, train, eval, grid, synth.
Exit codes: 0 success, 1 usage error, 2 data error or out of memory, 3 numeric failure.
"""

import argparse
import sys
from pathlib import Path

from . import dataset, experiments, ingest, labeling, training
from .errors import InvalidSpec, MalformedLine, MalformedXml, NumericFailure, TrailgradeError
from .framing import naming
from .nn.checkpoint import load_checkpoint, save_checkpoint
from .nn.model import ModelConfig


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _from_flags(config_type, *args, **kwargs):
    """Build a config from flag values; a value the config rejects is a usage error."""
    try:
        return config_type(*args, **kwargs)
    except (ValueError, InvalidSpec) as exc:
        raise _UsageError(str(exc)) from None


def _seed(text):
    """A --seed value: an integer, at least 0."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return int(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="trailgrade", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a session manifest into a session archive")
    p.add_argument("--session", required=True, help="path to a session manifest")
    p.add_argument("--out", required=True, help="output session archive")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("label", help="map an OSM way's grade, or apply track overrides")
    p.add_argument("--osm", help="OSM XML export file")
    p.add_argument("--way", type=int, help="way id to look up in the OSM export")
    p.add_argument("--track", help="base label track CSV")
    p.add_argument("--overrides", help="override intervals CSV")
    p.add_argument("--out", help="output label track CSV")
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("window", help="cut a session (or a directory of sessions) into samples")
    p.add_argument("--session", required=True, help="session archive, or a directory of them")
    p.add_argument("--track", help="label track CSV (required for a single archive)")
    p.add_argument("--window-ms", type=int, required=True)
    p.add_argument("--out", required=True, help="output sample archive")
    p.set_defaults(func=_cmd_window)

    p = sub.add_parser("train", help="split, balance, shuffle and train on a sample archive")
    p.add_argument("--samples", required=True)
    p.add_argument("--kernel-len", type=int, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--max-epochs", type=int, default=training.TrainConfig.max_epochs)
    p.add_argument("--patience", type=int, default=training.TrainConfig.patience)
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-history", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a sample archive")
    p.add_argument("--model", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--out-confusion", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("grid", help="run the window-size x kernel-size grid")
    p.add_argument("--data", required=True, help="directory of *.session + *.labels.csv pairs")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--max-epochs", type=int, default=training.TrainConfig.max_epochs)
    p.add_argument("--patience", type=int, default=training.TrainConfig.patience)
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("synth", help="generate labeled synthetic sessions")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--sessions-per-class", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.set_defaults(func=_cmd_synth)

    return parser


def _cmd_ingest(args):
    session = ingest.load_session(args.session)
    ingest.write_session_archive(session, args.out)
    print(f"{session.name}: {session.length_points} points at {ingest.TARGET_RATE_HZ:g} Hz -> {args.out}")
    return 0


def _cmd_label(args):
    if args.osm is not None or args.way is not None:
        if None in (args.osm, args.way) or (args.track, args.overrides, args.out) != (None,) * 3:
            raise _UsageError("--osm and --way go together and take no --track, --overrides or --out")
        entries = ingest.parse_file(
            args.osm, labeling.parse_osm_difficulties, lambda n, why: MalformedXml(f"line {n}: {why}")
        )
        with naming(args.osm):
            if args.way not in entries:
                raise TrailgradeError(f"way {args.way} carries no {labeling.OSM_GRADE_KEY} tag")
            print(labeling.map_grade(entries[args.way]))
        return 0
    if args.track is None or args.out is None:
        raise _UsageError("either --osm/--way or --track/--out must be given")
    merged = _read_track(args.track)
    if args.overrides:
        overrides = ingest.parse_file(args.overrides, labeling.read_overrides_csv, MalformedLine)
        merged = labeling.apply_overrides(merged, overrides)
    Path(args.out).write_text(labeling.write_label_track_csv(merged))
    print(f"{len(merged.segments)} segments -> {args.out}")
    return 0


def _read_track(path):
    return ingest.parse_file(path, labeling.read_label_track_csv, MalformedLine)


def _archives(directory: Path):
    """(archive path, session, label track) for each session archive in ``directory``."""
    archives = []
    for session_path in sorted(directory.glob("*.session")):
        track_path = session_path.with_suffix(".labels.csv")
        if not track_path.exists():
            raise TrailgradeError(f"no label track next to {session_path.name}")
        session = ingest.read_session_archive(session_path)
        archives.append((session_path, session, _read_track(track_path)))
    if not archives:
        raise TrailgradeError(f"no *.session archives in {directory}")
    return archives


def _cmd_window(args):
    config = _from_flags(dataset.WindowConfig, args.window_ms)
    source = Path(args.session)
    if source.is_dir():
        if args.track is not None:
            raise _UsageError("--track is for a single archive; a directory's sessions have their own")
        archives = _archives(source)
    else:
        if args.track is None:
            raise _UsageError("--track is required when --session is a single archive")
        archives = [(source, ingest.read_session_archive(source), _read_track(args.track))]
    samples = []
    for path, session, track in archives:
        with naming(path):
            samples.extend(dataset.slice_windows(session, track, config))
    dataset.write_sample_archive(samples, args.out)
    histogram = dataset.class_histogram(samples)
    print(f"{len(samples)} windows of {config.window_points} points {histogram} -> {args.out}")
    return 0


def _read_samples(path):
    samples = dataset.read_sample_archive(path)
    if not samples:
        raise TrailgradeError(f"{path} holds no samples")
    return samples


def _cmd_train(args):
    for out in map(Path, (args.out_model, args.out_history)):
        if not out.parent.is_dir():  # found now, not after the last epoch
            raise TrailgradeError(f"{out}: directory {out.parent} does not exist")
        if out.is_dir():
            raise TrailgradeError(f"{out}: is a directory")
    samples = _read_samples(args.samples)
    train_set, test_set = experiments.prepare_splits(samples, args.seed)
    with naming(args.samples):
        model_config = _from_flags(
            ModelConfig, window_points=samples[0].data.shape[0], kernel_len=args.kernel_len
        )
    train_config = _from_flags(
        training.TrainConfig,
        seed=args.seed + 3,
        max_epochs=args.max_epochs,
        patience=args.patience,
    )
    result = training.train(train_set, test_set, model_config, train_config)
    save_checkpoint(result.best_params, args.out_model)
    Path(args.out_history).write_text(training.history_to_csv(result.history))
    print(
        f"best test sca {result.best_test_sca:.4f} at epoch {result.best_epoch} "
        f"({len(result.history)} epochs run, early stop: {result.stopped_early})"
    )
    return 0


def _cmd_eval(args):
    params, _ = load_checkpoint(args.model)
    samples = _read_samples(args.samples)
    with naming(args.samples):
        accuracy, confusion = training.evaluate(params, samples)
    Path(args.out_confusion).write_text(training.confusion_to_csv(confusion))
    print(f"accuracy {accuracy:.4f} on {len(samples)} samples -> {args.out_confusion}")
    return 0


def _cmd_grid(args):
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be at least 1, got {args.jobs}")
    pairs = [(session, track) for _, session, track in _archives(Path(args.data))]
    train_config = _from_flags(
        training.TrainConfig,
        seed=args.seed,
        max_epochs=args.max_epochs,
        patience=args.patience,
    )
    spec = experiments.GridSpec(train_config=train_config, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = experiments.run_grid(pairs, spec, jobs=args.jobs)
    table = experiments.report_table(results)
    (out / "grid.txt").write_text(table)
    (out / "grid.csv").write_text(experiments.report_csv(results))
    print(table, end="")
    return 0


def _cmd_synth(args):
    spec = _from_flags(
        experiments.SyntheticSpec,
        sessions_per_class=args.sessions_per_class,
        session_seconds=args.seconds,
        seed=args.seed,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pairs = experiments.generate_synthetic(spec)
    for session, track in pairs:
        ingest.write_session_archive(session, out / f"{session.name}.session")
        (out / f"{session.name}.labels.csv").write_text(labeling.write_label_track_csv(track))
    print(f"{len(pairs)} sessions of {args.seconds} s -> {out}")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (0, None) else 1
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (TrailgradeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
