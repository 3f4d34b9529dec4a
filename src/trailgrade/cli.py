"""Command-line interface covering the whole pipeline.

Subcommands: ingest, label, window, train, eval, grid, synth.
Exit codes: 0 success, 1 usage error, 2 data error or out of memory, 3 numeric failure.
"""

import argparse
import os
import sys
from pathlib import Path

from . import dataset, experiments, ingest, labeling, training
from .errors import MalformedLine, MalformedXml, NumericFailure, TooFewSamples, TrailgradeError
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
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _check_outputs(inputs, outputs):
    """Check a writer's (flag, path) outputs before it does any work: an output that names any other
    given path, compared resolved, is a usage error, as its write would destroy that file (inputs may
    name one file); then an output whose directory is missing, or that is a directory, is a data error."""
    # realpath, not Path.resolve(): open() reports a symlink loop as a data error; reversed: first flag wins
    seen = {os.path.realpath(path): flag for flag, path in reversed(inputs)}
    for flag, path in outputs:
        other = seen.setdefault(os.path.realpath(path), flag)
        if other != flag:
            raise _UsageError(f"{other} and {flag} name one file: {path}")
    for out in (Path(path) for _, path in outputs):
        if not out.parent.is_dir():
            raise TrailgradeError(f"{out}: directory {out.parent} does not exist")
        if out.is_dir():
            raise TrailgradeError(f"{out}: is a directory")


def _at_least(least):
    """An argparse type for an integer flag that no config checks: at least ``least``."""
    def integer(text):
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {text}")
        return int(text)
    return integer


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
    p.add_argument("--seed", type=_at_least(0), required=True)
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
    p.add_argument("--seed", type=_at_least(0), required=True)
    p.add_argument("--jobs", type=_at_least(1), default=1)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--max-epochs", type=int, default=training.TrainConfig.max_epochs)
    p.add_argument("--patience", type=int, default=training.TrainConfig.patience)
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("synth", help="generate labeled synthetic sessions")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--sessions-per-class", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--seed", type=_at_least(0), required=True)
    p.set_defaults(func=_cmd_synth)

    return parser


def _cmd_ingest(args):
    name, csvs = ingest.read_manifest(args.session)
    roles = [f"--session's {role}" for role in ingest.CHANNEL_ROLES]
    _check_outputs([("--session", args.session), *zip(roles, csvs)], [("--out", args.out)])
    session = ingest.load_csvs(args.session, name, csvs)
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
    _check_outputs([("--overrides", args.overrides)] if args.overrides else [], [("--out", args.out)])
    merged = _read_track(args.track)
    if args.overrides:
        overrides = ingest.parse_file(args.overrides, labeling.read_overrides_csv, MalformedLine)
        merged = labeling.apply_overrides(merged, overrides)
    Path(args.out).write_text(labeling.write_label_track_csv(merged))
    print(f"{len(merged.segments)} segments -> {args.out}")
    return 0


def _read_track(path):
    return ingest.parse_file(path, labeling.read_label_track_csv, MalformedLine)


def _archive_paths(directory: Path):
    """(session archive, label track) path pairs of ``directory``, one per session archive in it."""
    pairs = []
    for session_path in sorted(directory.glob("*.session")):
        track_path = session_path.with_suffix(".labels.csv")
        if not track_path.exists():
            raise TrailgradeError(f"no label track next to {session_path.name}")
        pairs.append((session_path, track_path))
    if not pairs:
        raise TrailgradeError(f"no *.session archives in {directory}")
    return pairs


def _read_archives(pairs):
    """(archive path, session, label track) for each pair of ``_archive_paths``."""
    return [(path, ingest.read_session_archive(path), _read_track(track)) for path, track in pairs]


def _cmd_window(args):
    config = _from_flags(dataset.WindowConfig, args.window_ms)
    source = Path(args.session)
    if source.is_dir():
        if args.track is not None:
            raise _UsageError("--track is for a single archive; a directory's sessions have their own")
        pairs = _archive_paths(source)
        flags = ("an archive in --session", "a label track in --session")
    else:
        if args.track is None:
            raise _UsageError("--track is required when --session is a single archive")
        pairs = [(source, args.track)]
        flags = ("--session", "--track")
    _check_outputs([item for pair in pairs for item in zip(flags, pair)], [("--out", args.out)])
    samples = []
    for path, session, track in _read_archives(pairs):
        with naming(path):
            samples.extend(dataset.slice_windows(session, track, config))
    dataset.write_sample_archive(samples, args.out)
    histogram = dataset.class_histogram(samples)
    print(f"{len(samples)} windows of {config.window_points} points {histogram} -> {args.out}")
    return 0


def _read_samples(path):
    samples = dataset.read_sample_archive(path)
    if not samples:
        raise TooFewSamples(f"{path} holds no samples")
    return samples


def _cmd_train(args):
    _check_outputs([("--samples", args.samples)], [("--out-model", args.out_model),
                   ("--out-model's .txt sidecar", args.out_model + ".txt"), ("--out-history", args.out_history)])
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
    _check_outputs([("--model", args.model), ("--samples", args.samples)], [("--out-confusion", args.out_confusion)])
    params, _ = load_checkpoint(args.model)
    samples = _read_samples(args.samples)
    with naming(args.samples):
        accuracy, confusion = training.evaluate(params, samples)
    Path(args.out_confusion).write_text(training.confusion_to_csv(confusion))
    print(f"accuracy {accuracy:.4f} on {len(samples)} samples -> {args.out_confusion}")
    return 0


def _cmd_grid(args):
    pairs = [(session, track) for _, session, track in _read_archives(_archive_paths(Path(args.data)))]
    train_config = _from_flags(
        training.TrainConfig,
        seed=args.seed,
        max_epochs=args.max_epochs,
        patience=args.patience,
    )
    spec = experiments.GridSpec(train_config=train_config, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _check_outputs([], [("--out's grid.txt", out / "grid.txt"), ("--out's grid.csv", out / "grid.csv")])
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
