"""Command-line interface covering the whole pipeline.

Subcommands: ingest, label, window, train, eval, grid, synth.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

import argparse
import sys
from pathlib import Path

from . import dataset, experiments, ingest, labeling, training
from .errors import InvalidSpec, MalformedLine, MalformedXml, NumericFailure, TrailgradeError
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
    p.add_argument("--overlap", type=float, default=dataset.WindowConfig.overlap_fraction)
    p.add_argument("--out", required=True, help="output sample archive")
    p.set_defaults(func=_cmd_window)

    p = sub.add_parser("train", help="split, balance, shuffle and train on a sample archive")
    p.add_argument("--samples", required=True)
    p.add_argument("--kernel-len", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--l2", type=float, default=ModelConfig.l2_coeff)
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
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--max-epochs", type=int, default=training.TrainConfig.max_epochs)
    p.add_argument("--patience", type=int, default=training.TrainConfig.patience)
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("synth", help="generate labeled synthetic sessions")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--sessions-per-class", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_synth)

    return parser


def _cmd_ingest(args):
    session = ingest.load_session(args.session)
    ingest.write_session_archive(session, args.out)
    print(f"{session.name}: {session.length_points} points at {ingest.TARGET_RATE_HZ:g} Hz -> {args.out}")
    return 0


def _cmd_label(args):
    if args.osm is not None:
        if args.way is None:
            raise _UsageError("--osm needs --way")
        entries = ingest.parse_file(
            args.osm, labeling.parse_osm_difficulties, lambda n, why: MalformedXml(f"line {n}: {why}")
        )
        if args.way not in entries:
            raise TrailgradeError(f"way {args.way} carries no {labeling.OSM_GRADE_KEY} tag")
        print(labeling.map_grade(entries[args.way]))
        return 0
    if args.track is None or args.out is None:
        raise _UsageError("either --osm/--way or --track/--out must be given")
    merged = track = _read_track(args.track)
    if args.overrides:
        # an override's bad interval is an error of the overrides file too
        merged = ingest.parse_file(
            args.overrides,
            lambda text: labeling.apply_overrides(track, labeling.read_overrides_csv(text)),
            MalformedLine,
        )
    Path(args.out).write_text(labeling.write_label_track_csv(merged))
    print(f"{len(merged.segments)} segments -> {args.out}")
    return 0


def _read_track(path):
    return ingest.parse_file(path, labeling.read_label_track_csv, MalformedLine)


def _session_track_pairs(directory: Path):
    pairs = []
    for session_path in sorted(directory.glob("*.session")):
        track_path = session_path.with_suffix(".labels.csv")
        if not track_path.exists():
            raise TrailgradeError(f"no label track next to {session_path.name}")
        session = ingest.read_session_archive(session_path)
        pairs.append((session, _read_track(track_path)))
    if not pairs:
        raise TrailgradeError(f"no *.session archives in {directory}")
    return pairs


def _cmd_window(args):
    config = _from_flags(dataset.WindowConfig, args.window_ms, args.overlap)
    source = Path(args.session)
    if source.is_dir():
        pairs = _session_track_pairs(source)
    else:
        if args.track is None:
            raise _UsageError("--track is required when --session is a single archive")
        pairs = [(ingest.read_session_archive(source), _read_track(args.track))]
    samples = []
    for session, track in pairs:
        samples.extend(dataset.slice_windows(session, track, config))
    dataset.write_sample_archive(samples, args.out)
    histogram = dataset.class_histogram(samples)
    print(f"{len(samples)} windows of {config.window_points} points {histogram} -> {args.out}")
    return 0


def _cmd_train(args):
    samples = dataset.read_sample_archive(args.samples)
    if not samples:
        raise TrailgradeError(f"{args.samples} holds no samples")
    train_set, test_set = experiments.prepare_splits(samples, args.seed)
    model_config = _from_flags(
        ModelConfig,
        window_points=samples[0].data.shape[0],
        kernel_len=args.kernel_len,
        l2_coeff=args.l2,
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
    samples = dataset.read_sample_archive(args.samples)
    accuracy, confusion = training.evaluate(params, samples)
    Path(args.out_confusion).write_text(confusion.to_csv())
    print(f"accuracy {accuracy:.4f} on {len(samples)} samples -> {args.out_confusion}")
    return 0


def _cmd_grid(args):
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be at least 1, got {args.jobs}")
    pairs = _session_track_pairs(Path(args.data))
    train_config = _from_flags(
        training.TrainConfig,
        seed=args.seed,
        max_epochs=args.max_epochs,
        patience=args.patience,
    )
    spec = experiments.GridSpec(train_config=train_config, seed=args.seed)
    results = experiments.run_grid(pairs, spec, jobs=args.jobs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (TrailgradeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
