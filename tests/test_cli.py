import shutil
import struct

import numpy as np
import pytest

from conftest import make_session, write_ride
from oracles import history_from_csv
from trailgrade.cli import main
from trailgrade.dataset import WindowSample, read_sample_archive, write_sample_archive
from trailgrade.ingest import read_session_archive, write_session_archive
from trailgrade.labeling import read_label_track_csv
from trailgrade.nn.checkpoint import load_checkpoint, save_checkpoint
from trailgrade.nn.model import BN_EPSILON, BN_MOMENTUM, CLASSES, DROPOUT_RATE, ModelConfig


def run(*argv):
    return main(list(argv))


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
        "--window-ms", "2000", "--overlap", "0.75", "--out", str(out),
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

    def test_train_numeric_failure_exits_3(self, samples_path, tmp_path):
        code = run(
            "train", "--samples", str(samples_path), "--kernel-len", "5",
            "--seed", "1", "--l2", "1e308", "--max-epochs", "2", "--patience", "2",
            "--out-model", str(tmp_path / "m.ckpt"), "--out-history", str(tmp_path / "h.csv"),
        )
        assert code == 3


class TestIngest:
    def test_manifest_to_archive(self, tmp_path):
        rng = np.random.default_rng(0)
        roles = ["frame_accel", "frame_gyro", "helmet_accel", "helmet_gyro"]
        for role in roles:
            step = 80 if "accel" in role else 40
            rows = ["timestamp_ms,x,y,z"]
            rows += [
                f"{t},{rng.normal()!r},{rng.normal()!r},{rng.normal()!r}"
                for t in range(0, 8001, step)
            ]
            (tmp_path / f"{role}.csv").write_text("\n".join(rows) + "\n")
        manifest = tmp_path / "session.toml"
        manifest.write_text("name=ride\n" + "\n".join(f"{r}={r}.csv" for r in roles) + "\n")
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
        assert self.error_line(capsys) == f"error: {path}: line 3: byte 0x80 is not UTF-8\n"

    def test_manifest(self, tmp_path, capsys):
        manifest = write_ride(tmp_path)
        manifest.write_text(manifest.read_text().replace("helmet_gyro=", "helmet_gyro "))
        assert run("ingest", "--session", str(manifest), "--out", str(tmp_path / "r.session")) == 2
        assert self.error_line(capsys) == f"error: {manifest}: line 5: expected key=value\n"

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
        assert self.error_line(capsys) == f"error: {track}: segments overlap or are unsorted\n"

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
            pytest.param("600,400,0", "interval [600, 400) is empty or reversed", id="reversed"),
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

    def test_osm(self, tmp_path, capsys):
        osm = tmp_path / "area.osm"
        osm.write_text('<osm><way id="x"><tag k="mtb:scale" v="2"/></way></osm>')
        assert run("label", "--osm", str(osm), "--way", "12") == 2
        assert self.error_line(capsys) == f"error: {osm}: way id 'x' is not an integer\n"


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
        assert err == "error: session 'short' has 100 points, window needs 125\n"

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
    #: the CLI writes (the l2 default, the network's fixed settings otherwise).
    CONFIG_SLOTS = {
        "classes": (29, "<I", CLASSES),
        "dropout_rate": (33, "<d", DROPOUT_RATE),
        "l2_coeff": (41, "<d", ModelConfig.l2_coeff),
        "bn_momentum": (49, "<d", BN_MOMENTUM),
        "bn_epsilon": (57, "<d", BN_EPSILON),
    }

    @pytest.mark.parametrize(
        "field, value",
        [
            ("classes", 2),
            ("dropout_rate", 0.5),
            ("l2_coeff", -1.0),
            ("l2_coeff", np.inf),
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
            pytest.param("window", ["--window-ms", "2000", "--overlap", "1.5"], id="overlap-1.5"),
            pytest.param("train", ["--kernel-len", "0"], id="kernel-len-0"),
            pytest.param("train", ["--kernel-len", "5", "--l2", "-1"], id="l2-minus-1"),
            pytest.param("grid", ["--max-epochs", "0"], id="grid-max-epochs-0"),
            pytest.param("grid", ["--jobs", "0"], id="grid-jobs-0"),
            pytest.param("grid", ["--jobs", "-4"], id="grid-jobs-minus-4"),
            pytest.param("synth", ["--seconds", "0"], id="synth-seconds-0"),
            pytest.param("synth", ["--sessions-per-class", "0"], id="synth-sessions-0"),
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
