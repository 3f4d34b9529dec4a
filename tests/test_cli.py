import shutil
import struct

import numpy as np
import pytest

from conftest import make_session, write_ride
from oracles import history_from_csv
from trailgrade import experiments, training
from trailgrade.cli import main
from trailgrade.dataset import WindowSample, read_sample_archive, write_sample_archive
from trailgrade.ingest import CHANNEL_ROLES, read_session_archive, write_session_archive
from trailgrade.labeling import read_label_track_csv
from trailgrade.nn.checkpoint import load_checkpoint, save_checkpoint
from trailgrade.nn import model
from trailgrade.nn.model import (
    BN_EPSILON,
    BN_MOMENTUM,
    CLASSES,
    DENSE_UNITS,
    DROPOUT_RATE,
    FILTERS,
    L2_COEFF,
    ModelConfig,
)


def run(*argv):
    return main(list(argv))


def assert_one_usage_error(capsys):
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("usage error: ")


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = run(
        "synth", "--out", str(out),
        "--sessions-per-class", "2", "--seconds", "20", "--seed", "7",
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def samples_path(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("win") / "samples.tgds"
    code = run(
        "window", "--session", str(synth_dir),
        "--window-ms", "2000", "--out", str(out),
    )
    assert code == 0
    return out


class TestSynthAndWindow:
    def test_synth_writes_pairs(self, synth_dir):
        sessions = sorted(synth_dir.glob("*.session"))
        tracks = sorted(synth_dir.glob("*.labels.csv"))
        assert len(sessions) == 6 and len(tracks) == 6
        session = read_session_archive(sessions[0])
        assert session.length_points == 500
        track = read_label_track_csv(tracks[0].read_text())
        assert track.segments == ((0, 20000, 0),)

    def test_window_directory_mode(self, samples_path):
        samples = read_sample_archive(samples_path)
        # 6 sessions x ((500 - 50) // 12 + 1) windows
        assert len(samples) == 6 * 38
        assert {s.label for s in samples} == {0, 1, 2}

    def test_window_single_session_mode(self, synth_dir, tmp_path):
        session_file = sorted(synth_dir.glob("*.session"))[0]
        track_file = sorted(synth_dir.glob("*.labels.csv"))[0]
        out = tmp_path / "one.tgds"
        code = run(
            "window", "--session", str(session_file), "--track", str(track_file),
            "--window-ms", "5000", "--out", str(out),
        )
        assert code == 0
        assert len(read_sample_archive(out)) == 13

    def test_window_single_session_requires_track(self, synth_dir, tmp_path):
        session_file = sorted(synth_dir.glob("*.session"))[0]
        code = run(
            "window", "--session", str(session_file),
            "--window-ms", "5000", "--out", str(tmp_path / "x.tgds"),
        )
        assert code == 1


@pytest.fixture(scope="module")
def trained(samples_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    model = out / "model.ckpt"
    history = out / "history.csv"
    code = run(
        "train", "--samples", str(samples_path), "--kernel-len", "10",
        "--seed", "5", "--max-epochs", "3", "--patience", "3",
        "--out-model", str(model), "--out-history", str(history),
    )
    assert code == 0
    return model, history


class TestTrainAndEval:
    def test_history_rows(self, trained):
        _, history_path = trained
        history = history_from_csv(history_path.read_text())
        assert len(history) == 3
        assert [r.epoch for r in history] == [1, 2, 3]

    def test_checkpoint_loads(self, trained):
        model_path, _ = trained
        params, config = load_checkpoint(model_path)
        assert config.window_points == 50
        assert config.kernel_len == 10

    def test_train_needs_no_patience_below_its_default(self, samples_path, tmp_path):
        history = tmp_path / "history.csv"
        code = run(
            "train", "--samples", str(samples_path), "--kernel-len", "10", "--seed", "5",
            "--max-epochs", "2", "--out-model", str(tmp_path / "model.ckpt"),
            "--out-history", str(history),
        )
        assert code == 0
        assert [r.epoch for r in history_from_csv(history.read_text())] == [1, 2]

    def test_eval_writes_confusion(self, trained, samples_path, tmp_path):
        model_path, _ = trained
        confusion = tmp_path / "confusion.csv"
        code = run(
            "eval", "--model", str(model_path), "--samples", str(samples_path),
            "--out-confusion", str(confusion),
        )
        assert code == 0
        lines = confusion.read_text().strip().splitlines()
        assert lines[0] == ",0,1,2"
        total = sum(int(v) for line in lines[1:] for v in line.split(",")[1:])
        assert total == 6 * 38

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_empty_archive_is_named(self, trained, tmp_path, capsys, command):
        # `window` writes an empty archive when every window crosses a label change
        empty = tmp_path / "empty.tgds"
        write_sample_archive([], empty)
        flags = {
            "train": ["--kernel-len", "5", "--seed", "1", "--out-model", str(tmp_path / "m"),
                      "--out-history", str(tmp_path / "h")],
            "eval": ["--model", str(trained[0]), "--out-confusion", str(tmp_path / "c")],
        }[command]
        assert run(command, "--samples", str(empty), *flags) == 2
        assert capsys.readouterr() == ("", f"error: {empty} holds no samples\n")

    def test_eval_names_an_archive_that_does_not_fit_the_model(self, samples_path, tmp_path, capsys):
        small = tmp_path / "small.ckpt"
        save_checkpoint(model.build_model(ModelConfig(25, 5), np.random.default_rng(0)), small)
        code = run(
            "eval", "--model", str(small), "--samples", str(samples_path),
            "--out-confusion", str(tmp_path / "c.csv"),
        )
        assert code == 2
        assert capsys.readouterr() == (
            "",
            f"error: {samples_path}: sample ('synth-c0-s00', 0) of shape (50, 4, 3) "
            "does not match the (25, 4, 3) model input\n",
        )

    def test_train_names_an_archive_too_short_for_the_kernel(self, tmp_path, capsys):
        archive = tmp_path / "short.tgds"
        write_sample_archive([WindowSample(np.zeros((25, 4, 3)), c, ("ride", c)) for c in (0, 1)], archive)
        code = run(
            "train", "--samples", str(archive), "--kernel-len", "40", "--seed", "1",
            "--out-model", str(tmp_path / "m"), "--out-history", str(tmp_path / "h"),
        )
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {archive}: kernel length 40 exceeds the 25-point window\n")

    @pytest.mark.parametrize(
        "flag, fault",
        [
            pytest.param("--out-model", "missing-parent", id="--out-model"),
            pytest.param("--out-history", "missing-parent", id="--out-history"),
            pytest.param("--out-model", "existing-directory", id="--out-model-is-a-directory"),
            pytest.param("--out-history", "existing-directory", id="--out-history-is-a-directory"),
        ],
    )
    def test_train_checks_its_output_directories_before_training(
        self, samples_path, tmp_path, capsys, monkeypatch, flag, fault
    ):
        calls = []
        monkeypatch.setattr(training, "train", lambda *args: calls.append(args))
        outputs = {"--out-model": str(tmp_path / "m.ckpt"), "--out-history": str(tmp_path / "h.csv")}
        if fault == "missing-parent":
            outputs[flag] = str(tmp_path / "nodir" / "out")
            message = f"{tmp_path / 'nodir' / 'out'}: directory {tmp_path / 'nodir'} does not exist"
        else:
            (tmp_path / "d").mkdir()
            outputs[flag] = str(tmp_path / "d")
            message = f"{tmp_path / 'd'}: is a directory"
        code = run(
            "train", "--samples", str(samples_path), "--kernel-len", "5", "--seed", "1",
            *(item for pair in outputs.items() for item in pair),
        )
        assert code == 2
        assert calls == []
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_train_numeric_failure_exits_3(self, samples_path, tmp_path, monkeypatch):
        monkeypatch.setattr(model, "L2_COEFF", 1e308)
        code = run(
            "train", "--samples", str(samples_path), "--kernel-len", "5",
            "--seed", "1", "--max-epochs", "2", "--patience", "2",
            "--out-model", str(tmp_path / "m.ckpt"), "--out-history", str(tmp_path / "h.csv"),
        )
        assert code == 3


class TestIngest:
    def test_manifest_to_archive(self, tmp_path):
        rng = np.random.default_rng(0)
        for role in CHANNEL_ROLES:
            step = 80 if "accel" in role else 40
            rows = ["timestamp_ms,x,y,z"]
            rows += [
                f"{t},{rng.normal()!r},{rng.normal()!r},{rng.normal()!r}"
                for t in range(0, 8001, step)
            ]
            (tmp_path / f"{role}.csv").write_text("\n".join(rows) + "\n")
        manifest = tmp_path / "session.toml"
        manifest.write_text("name=ride\n" + "\n".join(f"{r}={r}.csv" for r in CHANNEL_ROLES) + "\n")
        archive = tmp_path / "ride.session"
        assert run("ingest", "--session", str(manifest), "--out", str(archive)) == 0
        session = read_session_archive(archive)
        assert session.name == "ride"
        assert session.length_points == 201

    def test_missing_manifest_is_data_error(self, tmp_path):
        code = run("ingest", "--session", str(tmp_path / "absent.toml"), "--out", str(tmp_path / "x"))
        assert code == 2


class TestDataErrorsNameTheFile:
    """A data error from a text file reads ``error: <path>: line N: reason``."""

    @staticmethod
    def error_line(capsys):
        out, err = capsys.readouterr()
        assert out == ""
        return err

    def test_non_utf8_csv_byte(self, tmp_path, capsys):
        manifest = write_ride(tmp_path)
        path = tmp_path / "frame_gyro.csv"
        path.write_bytes(path.read_bytes().replace(b"\n40,", b"\n4\x800,", 1))
        assert run("ingest", "--session", str(manifest), "--out", str(tmp_path / "r.session")) == 2
        assert self.error_line(capsys) == f"error: {path}: line 3: byte 0x80 is not ASCII\n"

    def test_manifest(self, tmp_path, capsys):
        manifest = write_ride(tmp_path)
        manifest.write_text(manifest.read_text().replace("helmet_gyro=", "helmet_gyro "))
        assert run("ingest", "--session", str(manifest), "--out", str(tmp_path / "r.session")) == 2
        assert self.error_line(capsys) == f"error: {manifest}: line 5: expected key=value\n"

    @pytest.mark.parametrize("value", ["", '""'])
    def test_manifest_empty_csv_path(self, tmp_path, capsys, value):
        manifest = write_ride(tmp_path)
        manifest.write_text(manifest.read_text().replace("frame_gyro=frame_gyro.csv", f"frame_gyro={value}"))
        assert run("ingest", "--session", str(manifest), "--out", str(tmp_path / "r.session")) == 2
        assert self.error_line(capsys) == f"error: {manifest}: line 3: frame_gyro names no CSV file\n"

    def test_manifest_names_a_missing_csv(self, tmp_path, capsys):
        manifest = write_ride(tmp_path)
        manifest.write_text(manifest.read_text().replace("helmet_gyro=helmet_gyro.csv", "helmet_gyro=helmetWgyro.csv"))
        assert run("ingest", "--session", str(manifest), "--out", str(tmp_path / "r.session")) == 2
        missing = tmp_path / "helmetWgyro.csv"
        assert self.error_line(capsys) == (
            f"error: {manifest}: helmet_gyro: [Errno 2] No such file or directory: '{missing}'\n"
        )

    def test_manifest_name_longer_than_an_archive_holds(self, tmp_path, capsys):
        # a session archive stores the name's UTF-8 length in two bytes
        out = tmp_path / "r.session"
        manifest = write_ride(tmp_path, name="\u00e9" * 32_767 + "n")  # 65,535 bytes
        assert run("ingest", "--session", str(manifest), "--out", str(out)) == 0
        assert read_session_archive(out).name == "\u00e9" * 32_767 + "n"
        out.unlink()
        capsys.readouterr()
        manifest = write_ride(tmp_path, name="\u00e9" * 32_768)  # 65,536 bytes
        assert run("ingest", "--session", str(manifest), "--out", str(out)) == 2
        assert self.error_line(capsys) == (
            f"error: {manifest}: line 1: name is 65536 UTF-8 bytes, a session archive holds at most 65535\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "stamps, culprit, reason",
        [
            pytest.param(
                {"helmet_gyro": (-140, -100, -60)},
                "helmet_gyro",
                "no samples in [0, 9223372036854775807] ms",
                id="synchronize",
            ),
            pytest.param(
                {"frame_accel": (0, 10, 20, 30), "frame_gyro": (-5, 45, 85)},
                "frame_accel",
                "no samples at or after 80 ms",
                id="build-session",
            ),
        ],
    )
    def test_csv_with_no_samples_in_the_common_span(self, tmp_path, capsys, stamps, culprit, reason):
        manifest = write_ride(tmp_path)
        for role, times in stamps.items():
            rows = ["timestamp_ms,x,y,z"] + [f"{t},0.5,0.5,0.5" for t in times]
            (tmp_path / f"{role}.csv").write_text("\n".join(rows) + "\n")
        assert run("ingest", "--session", str(manifest), "--out", str(tmp_path / "r.session")) == 2
        assert self.error_line(capsys) == f"error: {tmp_path / culprit}.csv: {reason}\n"

    @staticmethod
    def bad_track_beside_a_session(synth_dir, tmp_path, text):
        session = sorted(synth_dir.glob("*.session"))[0]
        shutil.copy(session, tmp_path / session.name)
        track = tmp_path / session.with_suffix(".labels.csv").name
        track.write_text(text)
        return tmp_path / session.name, track

    @pytest.mark.parametrize("directory_mode", [False, True])
    def test_window_track(self, synth_dir, tmp_path, capsys, directory_mode):
        session, track = self.bad_track_beside_a_session(
            synth_dir, tmp_path, "start_ms,end_ms,label\n0,oops,1\n"
        )
        source = ["--session", str(tmp_path)]
        if not directory_mode:
            source = ["--session", str(session), "--track", str(track)]
        code = run("window", *source, "--window-ms", "2000", "--out", str(tmp_path / "w.tgds"))
        assert code == 2
        assert self.error_line(capsys) == f"error: {track}: line 2: unparseable record '0,oops,1'\n"

    def test_grid_track(self, synth_dir, tmp_path, capsys):
        _, track = self.bad_track_beside_a_session(
            synth_dir, tmp_path, "start_ms,end_ms,label\n0,1000,1\n500,2000,1\n"
        )
        code = run("grid", "--data", str(tmp_path), "--seed", "1", "--out", str(tmp_path / "g"))
        assert code == 2
        assert self.error_line(capsys) == f"error: {track}: line 3: segments overlap or are unsorted\n"

    def test_label_track(self, tmp_path, capsys):
        base = tmp_path / "base.csv"
        base.write_text("start,end,label\n0,1000,1\n")
        assert run("label", "--track", str(base), "--out", str(tmp_path / "merged.csv")) == 2
        want = f"error: {base}: line 1: expected header 'start_ms,end_ms,label'\n"
        assert self.error_line(capsys) == want

    @pytest.mark.parametrize(
        "row, reason",
        [
            pytest.param("400,600", "line 2: expected 3 fields, got 2", id="short-row"),
            pytest.param("600,400,0", "line 2: interval [600, 400) is empty or reversed", id="reversed"),
        ],
    )
    def test_overrides(self, tmp_path, capsys, row, reason):
        base, overrides = tmp_path / "base.csv", tmp_path / "ovr.csv"
        base.write_text("start_ms,end_ms,label\n0,1000,1\n")
        overrides.write_text(f"start_ms,end_ms,label\n{row}\n")
        code = run(
            "label", "--track", str(base), "--overrides", str(overrides),
            "--out", str(tmp_path / "merged.csv"),
        )
        assert code == 2
        assert self.error_line(capsys) == f"error: {overrides}: {reason}\n"

    def test_underscore_in_a_sensor_value(self, tmp_path, capsys):
        # Python's float reads "1_0" as 10.0; the CSV grammar does not
        manifest = write_ride(tmp_path)
        path = tmp_path / "frame_accel.csv"
        path.write_text(path.read_text().replace("\n0,0,0.0,-1.5\n", "\n0,1_0,2,3\n", 1))
        assert run("ingest", "--session", str(manifest), "--out", str(tmp_path / "r.session")) == 2
        assert self.error_line(capsys) == f"error: {path}: line 2: unparseable record '0,1_0,2,3'\n"

    def test_osm(self, tmp_path, capsys):
        osm = tmp_path / "area.osm"
        osm.write_text('<osm><way id="x"><tag k="mtb:scale" v="2"/></way></osm>')
        assert run("label", "--osm", str(osm), "--way", "12") == 2
        assert self.error_line(capsys) == f"error: {osm}: way id 'x' is not an integer\n"

    @pytest.mark.parametrize(
        "way, grade, reason",
        [
            pytest.param("12", "9", "unknown difficulty grade '9'", id="unknown-grade"),
            pytest.param("13", "2", "way 12 carries no mtb:scale tag", id="no-such-way"),
        ],
    )
    def test_osm_way_lookup(self, tmp_path, capsys, way, grade, reason):
        osm = tmp_path / "area.osm"
        osm.write_text(f'<osm><way id="{way}"><tag k="mtb:scale" v="{grade}"/></way></osm>')
        assert run("label", "--osm", str(osm), "--way", "12") == 2
        assert self.error_line(capsys) == f"error: {osm}: {reason}\n"


class TestLabelCommand:
    def test_osm_lookup(self, tmp_path, capsys):
        osm = tmp_path / "area.osm"
        osm.write_text('<osm><way id="12"><tag k="mtb:scale" v="2"/></way></osm>')
        assert run("label", "--osm", str(osm), "--way", "12") == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_osm_way_not_found(self, tmp_path):
        osm = tmp_path / "area.osm"
        osm.write_text('<osm><way id="12"><tag k="mtb:scale" v="2"/></way></osm>')
        assert run("label", "--osm", str(osm), "--way", "99") == 2

    def test_osm_requires_way(self, tmp_path):
        osm = tmp_path / "area.osm"
        osm.write_text("<osm/>")
        assert run("label", "--osm", str(osm)) == 1

    def test_track_mode_rejects_way(self, tmp_path, capsys):
        (tmp_path / "base.csv").write_text("start_ms,end_ms,label\n0,1000,1\n")
        out = tmp_path / "merged.csv"
        code = run("label", "--track", str(tmp_path / "base.csv"), "--out", str(out), "--way", "7")
        assert code == 1
        assert_one_usage_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--track", "--overrides", "--out"])
    def test_osm_mode_rejects_track_flags(self, tmp_path, capsys, flag):
        osm = tmp_path / "area.osm"
        osm.write_text('<osm><way id="12"><tag k="mtb:scale" v="2"/></way></osm>')
        out = tmp_path / "merged.csv"
        assert run("label", "--osm", str(osm), "--way", "12", flag, str(out)) == 1
        assert_one_usage_error(capsys)
        assert not out.exists()

    def test_track_overrides(self, tmp_path):
        (tmp_path / "base.csv").write_text("start_ms,end_ms,label\n0,1000,1\n")
        (tmp_path / "ovr.csv").write_text("start_ms,end_ms,label\n400,600,0\n")
        out = tmp_path / "merged.csv"
        code = run(
            "label", "--track", str(tmp_path / "base.csv"),
            "--overrides", str(tmp_path / "ovr.csv"), "--out", str(out),
        )
        assert code == 0
        track = read_label_track_csv(out.read_text())
        assert track.segments == ((0, 400, 1), (400, 600, 0), (600, 1000, 1))


class TestGrid:
    def test_tiny_grid(self, synth_dir, tmp_path):
        out = tmp_path / "grid"
        code = run(
            "grid", "--data", str(synth_dir), "--seed", "3", "--jobs", "1",
            "--out", str(out), "--max-epochs", "1", "--patience", "1",
        )
        assert code == 0
        table = (out / "grid.txt").read_text()
        csv_text = (out / "grid.csv").read_text()
        assert len(csv_text.strip().splitlines()) == 26
        dash_cells = sum(1 for token in table.split() if token == "-")
        assert dash_cells == 3  # the three kernel-too-long cells
        assert "20000ms" in table
        assert csv_text.count(",skipped_kernel_too_long,") == 3

    def test_grid_makes_its_output_directory_before_training(self, synth_dir, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "train", lambda *args: calls.append(args))
        taken = tmp_path / "grid"
        taken.write_text("a file, not a directory")
        code = run("grid", "--data", str(synth_dir), "--seed", "3", "--out", str(taken), "--max-epochs", "1")
        assert code == 2
        assert calls == []

    def test_grid_without_data_is_data_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = run("grid", "--data", str(empty), "--seed", "1", "--jobs", "1", "--out", str(tmp_path / "o"))
        assert code == 2


class TestExitCodes:
    def test_usage_error_no_command(self):
        assert run() == 1

    def test_usage_error_unknown_flag(self):
        assert run("synth", "--nope") == 1

    def test_usage_error_missing_required(self):
        assert run("synth", "--out", "x") == 1

    def test_data_error_corrupt_archive(self, tmp_path):
        bad = tmp_path / "bad.tgds"
        bad.write_bytes(b"JUNKJUNK")
        code = run(
            "train", "--samples", str(bad), "--kernel-len", "5", "--seed", "1",
            "--out-model", str(tmp_path / "m"), "--out-history", str(tmp_path / "h"),
        )
        assert code == 2

    def test_data_error_corrupt_checkpoint(self, tmp_path, samples_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"XXXX" + bytes(30))
        code = run(
            "eval", "--model", str(bad), "--samples", str(samples_path),
            "--out-confusion", str(tmp_path / "c.csv"),
        )
        assert code == 2

    def test_data_error_timestamp_outside_int64(self, tmp_path):
        manifest = write_ride(tmp_path)
        path = tmp_path / "frame_accel.csv"
        path.write_text(path.read_text().replace("\n40,", "\n99999999999999999999,", 1))
        assert run("ingest", "--session", str(manifest), "--out", str(tmp_path / "r.session")) == 2

    def test_far_final_timestamp_resamples_only_the_overlap(self, tmp_path):
        # helmet_gyro's last stamp lies 10**15 ms out: only the 0 and 40 ms
        # points that all four logs cover are resampled, not the whole gap
        manifest = write_ride(tmp_path)
        for role in CHANNEL_ROLES:
            last = 10**15 if role == "helmet_gyro" else 40
            rows = [f"{t},1.0,2.0,3.0" for t in (0, 10, 20, 30, last)]
            (tmp_path / f"{role}.csv").write_text("timestamp_ms,x,y,z\n" + "\n".join(rows) + "\n")
        out = tmp_path / "r.session"
        assert run("ingest", "--session", str(manifest), "--out", str(out)) == 0
        session = read_session_archive(out)
        assert (session.start_time_ms, session.length_points) == (0, 2)

    def test_sample_past_int64_after_the_start_is_ignored(self, tmp_path):
        # helmet_gyro's extra stamp lies 1.8e19 ms after the common start, which
        # int64 cannot hold: the ride ingests as if the row were not there
        manifest = write_ride(tmp_path)
        rows = ["-9000000000000000000,0,0,0", "-8999999999999996000,1,1,1"]
        for role in CHANNEL_ROLES:
            (tmp_path / f"{role}.csv").write_text("timestamp_ms,x,y,z\n" + "\n".join(rows) + "\n")
        near = tmp_path / "near.session"
        assert run("ingest", "--session", str(manifest), "--out", str(near)) == 0
        with open(tmp_path / "helmet_gyro.csv", "a") as f:
            f.write("9000000000000000000,1,1,1\n")
        far = tmp_path / "far.session"
        assert run("ingest", "--session", str(manifest), "--out", str(far)) == 0
        assert far.read_bytes() == near.read_bytes()
        assert read_session_archive(far).length_points == 101

    def test_data_error_overlap_longer_than_a_session_archive_holds(self, tmp_path, capsys):
        # the four logs overlap until 9e17 ms: 2.25e16 lattice points, where a
        # session archive stores the point count in four bytes
        manifest = write_ride(tmp_path)
        for role in CHANNEL_ROLES:
            (tmp_path / f"{role}.csv").write_text("timestamp_ms,x,y,z\n0,1,2,3\n40,1,2,3\n900000000000000000,1,2,3\n")
        out = tmp_path / "r.session"
        assert run("ingest", "--session", str(manifest), "--out", str(out)) == 2
        _, err = capsys.readouterr()
        assert err == (
            f"error: {tmp_path / 'frame_accel.csv'}: 22500000000000001 lattice points "
            "up to 900000000000000000 ms, a session archive holds at most 4294967295\n"
        )
        assert not out.exists()

    def test_interpolation_overflow_exits_3_naming_the_csv(self, tmp_path, capsys):
        # finite x values that alternate between -1.7e308 and +1.7e308 every
        # 7 ms: np.interp's slope between two of them overflows to infinity,
        # without a warning, and the archive would hold what `window` rejects
        manifest = write_ride(tmp_path)
        rows = "".join(f"{7 * i},{(-1.7e308, 1.7e308)[i % 2]!r},1.0,2.0\n" for i in range(10))
        for role in CHANNEL_ROLES:
            (tmp_path / f"{role}.csv").write_text("timestamp_ms,x,y,z\n" + rows)
        out = tmp_path / "r.session"
        assert run("ingest", "--session", str(manifest), "--out", str(out)) == 3
        _, err = capsys.readouterr()
        assert err == (
            f"numeric failure: {tmp_path / 'frame_accel.csv'}: "
            "interpolation overflows to a non-finite value at 40 ms\n"
        )
        assert not out.exists()

    def test_out_of_memory_is_one_line_exit_2(self, tmp_path, capsys, monkeypatch):
        def exhausted(spec):
            raise MemoryError("Unable to allocate 111. GiB for an array with shape (1250000000, 4, 3)")

        monkeypatch.setattr(experiments, "generate_synthetic", exhausted)
        out = tmp_path / "s"
        flags = ["--sessions-per-class", "1", "--seconds", "50000000", "--seed", "1"]
        assert run("synth", "--out", str(out), *flags) == 2
        assert capsys.readouterr() == (
            "", "error: out of memory: Unable to allocate 111. GiB for an array with shape (1250000000, 4, 3)\n"
        )

    def test_data_error_window_starts_outside_int64(self, tmp_path):
        # 200 points from 2**63 - 1000 ms: later windows start past int64
        start = 2**63 - 1000
        session_path, track_path = tmp_path / "far.session", tmp_path / "far.labels.csv"
        write_session_archive(make_session(200, start_ms=start), session_path)
        track_path.write_text(f"start_ms,end_ms,label\n{start},{2**64},1\n")
        out = tmp_path / "w.tgds"
        code = run(
            "window", "--session", str(session_path), "--track", str(track_path),
            "--window-ms", "1000", "--out", str(out),
        )
        assert code == 2
        assert not out.exists()

    def test_window_value_beyond_float32_exits_3(self, tmp_path, capsys):
        # a sample archive stores float32, which would read 1.7e308 back as infinite
        session = make_session(100)
        session.data.flags.writeable = True
        session.data[30, 2, 0] = 1.7e308
        session_path, track_path = tmp_path / "big.session", tmp_path / "big.labels.csv"
        write_session_archive(session, session_path)
        track_path.write_text("start_ms,end_ms,label\n0,4000,1\n")
        out = tmp_path / "w.tgds"
        code = run(
            "window", "--session", str(session_path), "--track", str(track_path),
            "--window-ms", "1000", "--out", str(out),
        )
        assert code == 3
        want = "numeric failure: sample ('sess', 240) holds a value beyond float32's range\n"
        assert capsys.readouterr() == ("", want)
        assert not out.exists()

    def test_data_error_undecodable_csv(self, tmp_path):
        manifest = write_ride(tmp_path)
        path = tmp_path / "frame_gyro.csv"
        path.write_bytes(path.read_bytes().replace(b"\n40,", b"\n4\x800,", 1))
        assert run("ingest", "--session", str(manifest), "--out", str(tmp_path / "r.session")) == 2

    def test_data_error_bad_row_names_the_csv(self, tmp_path, capsys):
        manifest = write_ride(tmp_path)
        path = tmp_path / "helmet_gyro.csv"
        path.write_text(path.read_text().replace("\n40,3,0.04,-1.5\n", "\n40,0,zz,1\n", 1))
        assert run("ingest", "--session", str(manifest), "--out", str(tmp_path / "r.session")) == 2
        assert capsys.readouterr().err == f"error: {path}: line 3: unparseable record '40,0,zz,1'\n"

    def test_data_error_repeated_timestamp_names_csv_and_line(self, tmp_path, capsys):
        manifest = write_ride(tmp_path)
        path = tmp_path / "frame_accel.csv"
        path.write_text(path.read_text().replace("\n120,", "\n80,", 1))
        assert run("ingest", "--session", str(manifest), "--out", str(tmp_path / "r.session")) == 2
        assert capsys.readouterr().err == f"error: {path}: line 5: timestamps must be strictly increasing\n"

    def test_data_error_undecodable_manifest(self, tmp_path):
        manifest = write_ride(tmp_path)
        manifest.write_bytes(b"\xfe" + manifest.read_bytes())
        assert run("ingest", "--session", str(manifest), "--out", str(tmp_path / "r.session")) == 2

    def test_data_error_bad_archive_label(self, trained, samples_path, tmp_path):
        model_path, _ = trained
        data = bytearray(samples_path.read_bytes())
        data[13] = 7  # first record's label byte, after magic, version, count and width
        bad = tmp_path / "bad.tgds"
        bad.write_bytes(bytes(data))
        code = run(
            "eval", "--model", str(model_path), "--samples", str(bad),
            "--out-confusion", str(tmp_path / "c.csv"),
        )
        assert code == 2

    def test_data_error_undecodable_sample_name(self, tmp_path):
        bad = tmp_path / "one.tgds"
        write_sample_archive([WindowSample(np.zeros((25, 4, 3)), 1, ("ride", 0))], bad)
        data = bytearray(bad.read_bytes())
        data[16] = 0xFF  # first byte of the sample's name
        bad.write_bytes(bytes(data))
        code = run(
            "train", "--samples", str(bad), "--kernel-len", "5", "--seed", "1",
            "--out-model", str(tmp_path / "m"), "--out-history", str(tmp_path / "h"),
        )
        assert code == 2

    def test_data_error_non_finite_sample(self, trained, samples_path, tmp_path):
        model_path, _ = trained
        w = read_sample_archive(samples_path)[0].data.shape[0]
        bad = tmp_path / "nan.tgds"
        write_sample_archive([WindowSample(np.full((w, 4, 3), np.nan), 0, ("ride", 0))], bad)
        code = run(
            "eval", "--model", str(model_path), "--samples", str(bad),
            "--out-confusion", str(tmp_path / "c.csv"),
        )
        assert code == 2

    def test_data_error_zero_width_samples(self, tmp_path):
        bad = tmp_path / "empty.tgds"
        samples = [WindowSample(np.zeros((0, 4, 3)), i % 3, ("ride", 1000 * i)) for i in range(6)]
        write_sample_archive(samples, bad)
        code = run(
            "train", "--samples", str(bad), "--kernel-len", "5", "--seed", "1",
            "--out-model", str(tmp_path / "m"), "--out-history", str(tmp_path / "h"),
        )
        assert code == 2

    @staticmethod
    def _window_one_session(synth_dir, tmp_path, edit):
        session = sorted(synth_dir.glob("*.session"))[0]
        data = bytearray(session.read_bytes())
        edit(data, 15 + int.from_bytes(data[5:7], "little"))  # offset of the rate field
        bad = tmp_path / session.name
        bad.write_bytes(bytes(data))
        track = session.with_suffix(".labels.csv")
        return run(
            "window", "--session", str(bad), "--track", str(track),
            "--window-ms", "2000", "--out", str(tmp_path / "w.tgds"),
        )

    def test_data_error_non_finite_session(self, synth_dir, tmp_path):
        def last_value_nan(data, _):
            data[-8:] = struct.pack("<d", np.nan)

        assert self._window_one_session(synth_dir, tmp_path, last_value_nan) == 2

    @pytest.mark.parametrize("rate", [np.nan, 0.0, -25.0, 50.0])
    def test_data_error_bad_session_rate(self, synth_dir, tmp_path, rate):
        def set_rate(data, offset):
            struct.pack_into("<d", data, offset, rate)

        assert self._window_one_session(synth_dir, tmp_path, set_rate) == 2

    @pytest.mark.parametrize("flag", ["--track", "--overrides"])
    def test_data_error_undecodable_label_csv(self, tmp_path, flag):
        files = {"--track": tmp_path / "base.csv", "--overrides": tmp_path / "ovr.csv"}
        files["--track"].write_text("start_ms,end_ms,label\n0,1000,1\n")
        files["--overrides"].write_text("start_ms,end_ms,label\n400,600,0\n")
        files[flag].write_bytes(files[flag].read_bytes().replace(b"0,", b"0\xff,", 1))
        argv = ["label", "--out", str(tmp_path / "merged.csv")]
        for name, path in files.items():
            argv += [name, str(path)]
        assert run(*argv) == 2

    def test_data_error_undecodable_osm(self, tmp_path):
        osm = tmp_path / "area.osm"
        osm.write_bytes(b'<osm><way id="12"><tag k="mtb:scale" v="\xff"/></way></osm>')
        assert run("label", "--osm", str(osm), "--way", "12") == 2

    @pytest.mark.parametrize("directory_mode", [False, True])
    def test_data_error_undecodable_window_track(self, synth_dir, tmp_path, directory_mode):
        session = sorted(synth_dir.glob("*.session"))[0]
        shutil.copy(session, tmp_path / session.name)
        track = tmp_path / session.with_suffix(".labels.csv").name
        track.write_bytes(b"\xff" + session.with_suffix(".labels.csv").read_bytes())
        source = ["--session", str(tmp_path)]
        if not directory_mode:
            source = ["--session", str(tmp_path / session.name), "--track", str(track)]
        code = run("window", *source, "--window-ms", "2000", "--out", str(tmp_path / "w.tgds"))
        assert code == 2

    def test_data_error_short_single_archive_is_named(self, tmp_path, capsys):
        archive = tmp_path / "short.session"
        write_session_archive(make_session(100, name="short"), archive)
        track = tmp_path / "short.labels.csv"
        track.write_text("start_ms,end_ms,label\n0,4000,1\n")
        code = run(
            "window", "--session", str(archive), "--track", str(track), "--window-ms", "5000",
            "--out", str(tmp_path / "w.tgds"),
        )
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {archive}: session 'short' has 100 points, window needs 125\n"

    def test_data_error_short_session_in_directory_is_named(self, synth_dir, tmp_path, capsys):
        for path in sorted(synth_dir.iterdir())[:2]:  # one 500-point session and its track
            shutil.copy(path, tmp_path / path.name)
        write_session_archive(make_session(100, name="short"), tmp_path / "short.session")
        (tmp_path / "short.labels.csv").write_text("start_ms,end_ms,label\n0,4000,1\n")
        code = run(
            "window", "--session", str(tmp_path), "--window-ms", "5000", "--out", str(tmp_path / "w.tgds"),
        )
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {tmp_path / 'short.session'}: session 'short' has 100 points, window needs 125\n"

    def test_data_error_non_finite_checkpoint(self, trained, samples_path, tmp_path):
        model_path, _ = trained
        params, _ = load_checkpoint(model_path)
        params.tensors["dense2/bias"][0] = np.nan
        bad = tmp_path / "nan.ckpt"
        save_checkpoint(params, bad)
        code = run(
            "eval", "--model", str(bad), "--samples", str(samples_path),
            "--out-confusion", str(tmp_path / "c.csv"),
        )
        assert code == 2

    def test_data_error_negative_bn_variance(self, trained, samples_path, tmp_path):
        # a negative running variance makes every probability NaN
        model_path, _ = trained
        params, _ = load_checkpoint(model_path)
        params.tensors["bn1/var"][...] = -5.0
        bad = tmp_path / "negvar.ckpt"
        save_checkpoint(params, bad)
        code = run(
            "eval", "--model", str(bad), "--samples", str(samples_path),
            "--out-confusion", str(tmp_path / "c.csv"),
        )
        assert code == 2

    def test_data_error_version_1_checkpoint(self, trained, samples_path, tmp_path):
        # version 1 stored a bias per conv layer
        model_path, _ = trained
        data = bytearray(model_path.read_bytes())
        data[4] = 1
        old = tmp_path / "v1.ckpt"
        old.write_bytes(bytes(data))
        code = run(
            "eval", "--model", str(old), "--samples", str(samples_path),
            "--out-confusion", str(tmp_path / "c.csv"),
        )
        assert code == 2

    #: Stored config fields after magic and version: offset, format, and the value
    #: the CLI writes (the network's fixed settings).
    CONFIG_SLOTS = {
        "conv1_filters": (13, "<I", FILTERS[0]),
        "conv2_filters": (17, "<I", FILTERS[1]),
        "conv3_filters": (21, "<I", FILTERS[2]),
        "dense_units": (25, "<I", DENSE_UNITS),
        "classes": (29, "<I", CLASSES),
        "dropout_rate": (33, "<d", DROPOUT_RATE),
        "l2_coeff": (41, "<d", L2_COEFF),
        "bn_momentum": (49, "<d", BN_MOMENTUM),
        "bn_epsilon": (57, "<d", BN_EPSILON),
    }

    @pytest.mark.parametrize(
        "field, value",
        [
            ("conv1_filters", 1),
            ("conv2_filters", 16),
            ("conv3_filters", 0),
            ("dense_units", 64),
            ("classes", 2),
            ("dropout_rate", 0.5),
            ("l2_coeff", -1.0),
            ("l2_coeff", np.inf),
            ("l2_coeff", 0.05),
            ("bn_momentum", 1.5),
            ("bn_momentum", np.nan),
            ("bn_momentum", 0.9),
            ("bn_epsilon", -5.0),
            ("bn_epsilon", 0.0),
            ("bn_epsilon", np.inf),
            ("bn_epsilon", 1e-5),
        ],
    )
    def test_data_error_bad_checkpoint_config(self, trained, samples_path, tmp_path, field, value):
        model_path, _ = trained
        data = bytearray(model_path.read_bytes())
        offset, fmt, written = self.CONFIG_SLOTS[field]
        assert struct.unpack_from(fmt, data, offset)[0] == written
        struct.pack_into(fmt, data, offset, value)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(data))
        code = run(
            "eval", "--model", str(bad), "--samples", str(samples_path),
            "--out-confusion", str(tmp_path / "c.csv"),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "command, flags",
        [
            pytest.param("window", ["--window-ms", "3"], id="window-ms-3"),
            pytest.param("window", ["--window-ms", "2000", "--track", "t.csv"], id="window-dir-with-track"),
            pytest.param("train", ["--kernel-len", "0"], id="kernel-len-0"),
            pytest.param("grid", ["--max-epochs", "0"], id="grid-max-epochs-0"),
            pytest.param("grid", ["--jobs", "0"], id="grid-jobs-0"),
            pytest.param("grid", ["--jobs", "-4"], id="grid-jobs-minus-4"),
            pytest.param("synth", ["--seconds", "0"], id="synth-seconds-0"),
            # one second more than a session archive's 2**32 - 1 points hold at 25 Hz
            pytest.param("synth", ["--seconds", "171798692"], id="synth-seconds-over-archive"),
            pytest.param("synth", ["--sessions-per-class", "0"], id="synth-sessions-0"),
            pytest.param("synth", ["--seed", "-1"], id="synth-seed-minus-1"),
            pytest.param("train", ["--kernel-len", "5", "--seed", "-1"], id="train-seed-minus-1"),
            pytest.param("grid", ["--seed", "-1"], id="grid-seed-minus-1"),
        ],
    )
    def test_usage_error_bad_flag_value(self, synth_dir, samples_path, tmp_path, capsys, command, flags):
        base = {
            "window": ["--session", str(synth_dir), "--out", str(tmp_path / "w.tgds")],
            "train": [
                "--samples", str(samples_path), "--seed", "1", "--max-epochs", "1",
                "--patience", "1", "--out-model", str(tmp_path / "m"),
                "--out-history", str(tmp_path / "h"),
            ],
            "grid": [
                "--data", str(synth_dir), "--seed", "1", "--max-epochs", "1",
                "--out", str(tmp_path / "g"),
            ],
            "synth": [
                "--out", str(tmp_path / "s"), "--sessions-per-class", "1", "--seconds", "2",
                "--seed", "1",
            ],
        }[command]
        assert run(command, *base, *flags) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ")

    def test_help_exits_zero(self):
        assert run("--help") == 0
