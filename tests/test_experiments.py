import concurrent.futures
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_fresh_python
from oracles import history_from_csv, skipped_cells
from trailgrade import experiments
from trailgrade.dataset import WindowConfig, slice_windows
from trailgrade.errors import TooFewSamples
from trailgrade.experiments import (
    COMPLETED,
    KERNEL_LEN_GRID,
    SKIPPED_KERNEL_TOO_LONG,
    WINDOW_MS_GRID,
    ClassSignature,
    ExperimentResult,
    GridSpec,
    SyntheticSpec,
    cell_seed,
    generate_synthetic,
    report_csv,
    report_table,
    run_grid,
)
from trailgrade.ingest import SyncedSession
from trailgrade.training import EpochRecord, TrainConfig, history_to_csv


def test_import_loads_no_process_pool_or_xml_parser():
    # run_grid's pool and the OSM parser import their modules when first used
    code = "import sys, trailgrade; print(sorted({'multiprocessing', 'xml.etree.ElementTree'} & set(sys.modules)))"
    assert run_fresh_python(code).strip() == "[]"
    # the package loads every library module but the CLI, and each package
    # namespace binds only its own submodules: every name has one import path
    code = """
import sys, types, trailgrade
print(sorted(m for m in sys.modules if m.split(".")[0] == "trailgrade"))
for package in (trailgrade, trailgrade.nn):
    for name, value in vars(package).items():
        if not (name.startswith("__") and name.endswith("__")):
            assert isinstance(value, types.ModuleType) and value.__name__ == f"{package.__name__}.{name}", name
    assert not {"__all__", "__version__"} & set(vars(package)), package
"""
    loaded = ["dataset", "errors", "experiments", "framing", "ingest", "labeling", "nn",
              "nn.adam", "nn.checkpoint", "nn.model", "nn.ops", "training"]
    assert run_fresh_python(code).strip() == str(["trailgrade"] + [f"trailgrade.{m}" for m in loaded])


class TestSkipRule:
    def test_standard_grid_skips_exactly_three(self):
        assert skipped_cells(WINDOW_MS_GRID, KERNEL_LEN_GRID) == {
            (1000, 40),
            (1000, 60),
            (2000, 60),
        }

    @settings(max_examples=40, deadline=None)
    @given(
        windows=st.lists(st.sampled_from([1000, 2000, 5000, 10000, 20000]), min_size=1, max_size=5, unique=True),
        kernels=st.lists(st.integers(1, 600), min_size=1, max_size=5, unique=True),
    )
    def test_rule_is_kernel_exceeds_points(self, windows, kernels):
        skipped = skipped_cells(windows, kernels)
        for window_ms in windows:
            points = WindowConfig(window_ms).window_points
            for kernel_len in kernels:
                assert ((window_ms, kernel_len) in skipped) == (kernel_len > points)


class TestSyntheticSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(0, 20, seed=1)
        # a session archive counts its points in four bytes: 2**32 - 1 points
        # are 171,798,691.8 s at 25 Hz; the spec is checked before anything
        # is generated
        SyntheticSpec(1, 171_798_691, 0)
        with pytest.raises(ValueError, match="171798692: a session archive holds at most 4294967295 points"):
            SyntheticSpec(1, 171_798_692, 0)


class TestGenerateSynthetic:
    def test_counts_and_length(self):
        pairs = generate_synthetic(SyntheticSpec(2, 20, seed=1))
        assert len(pairs) == 6
        for session, track in pairs:
            assert session.length_points == 500  # 20 s at 25 Hz
            assert len(track.segments) == 1
            assert track.segments[0] == (0, 20000, track.segments[0][2])
        labels = [track.segments[0][2] for _, track in pairs]
        assert labels == [0, 0, 1, 1, 2, 2]

    def test_deterministic_per_seed(self):
        a = generate_synthetic(SyntheticSpec(1, 10, seed=7))
        b = generate_synthetic(SyntheticSpec(1, 10, seed=7))
        c = generate_synthetic(SyntheticSpec(1, 10, seed=8))
        for (sa, _), (sb, _) in zip(a, b):
            assert np.array_equal(sa.data, sb.data)
        assert not np.array_equal(a[0][0].data, c[0][0].data)

    def test_noiseless_sessions_are_pure_sinusoids(self, monkeypatch):
        signatures = (
            ClassSignature(0.3, 2.0, 20.0, 0.0),
            ClassSignature(0.8, 5.0, 60.0, 0.0),
            ClassSignature(1.6, 9.0, 140.0, 0.0),
        )
        monkeypatch.setattr(experiments, "NOISE_STD", 0.0)
        monkeypatch.setattr(experiments, "SIGNATURES", signatures)
        for (session, track), sig in zip(generate_synthetic(SyntheticSpec(1, 20, seed=3)), signatures):
            t = np.arange(session.length_points) / 25.0
            x = session.data[:, 0, 0]  # frame accelerometer, x axis
            design = np.column_stack([
                np.sin(2 * np.pi * sig.frequency_hz * t),
                np.cos(2 * np.pi * sig.frequency_hz * t),
                np.ones_like(t),
            ])
            coeffs, *_ = np.linalg.lstsq(design, x, rcond=None)
            residual = x - design @ coeffs
            assert np.max(np.abs(residual)) < 1e-9
            assert np.hypot(coeffs[0], coeffs[1]) == pytest.approx(sig.vibration_g, rel=1e-9)

    def test_helmet_attenuated(self, monkeypatch):
        monkeypatch.setattr(experiments, "NOISE_STD", 0.0)
        session, _ = generate_synthetic(SyntheticSpec(1, 20, seed=4))[2]  # a medium session
        frame_gyro = session.data[:, 1, :]
        helmet_gyro = session.data[:, 3, :]
        assert np.abs(helmet_gyro).max() < np.abs(frame_gyro).max()

    def test_amplitude_threshold_baseline_beats_90_percent(self):
        pairs = generate_synthetic(SyntheticSpec(6, 20, seed=5))
        config = WindowConfig(5000)
        features, labels = [], []
        for session, track in pairs:
            for sample in slice_windows(session, track, config):
                features.append(sample.data[:, 0, 0].std())
                labels.append(sample.label)
        features = np.array(features)
        labels = np.array(labels)
        medians = [np.median(features[labels == c]) for c in (0, 1, 2)]
        cuts = [(medians[0] + medians[1]) / 2, (medians[1] + medians[2]) / 2]
        predictions = np.digitize(features, cuts)
        assert (predictions == labels).mean() > 0.9


class TestCellSeed:
    def test_stable_and_distinct(self):
        grid = [(w, k) for w in WINDOW_MS_GRID for k in KERNEL_LEN_GRID]
        seeds = [cell_seed(42, w, k) for w, k in grid]
        assert seeds == [cell_seed(42, w, k) for w, k in grid]
        assert len(set(seeds)) == len(grid)
        assert all(0 <= s < 2**32 for s in seeds)


def tiny_grid_spec(seed=9):
    return GridSpec(
        train_config=TrainConfig(seed=seed, max_epochs=2, patience=2),
        seed=seed,
        window_ms_list=(1000, 2000),
        kernel_len_list=(10, 40, 60),
    )


@pytest.fixture(scope="module")
def data():
    return generate_synthetic(SyntheticSpec(2, 30, seed=6))


@pytest.fixture(scope="module")
def results(data):
    return run_grid(data, tiny_grid_spec())


class TestRunGrid:

    def test_row_major_order_and_statuses(self, results):
        cells = [(r.window_ms, r.kernel_len, r.status) for r in results]
        assert cells == [
            (1000, 10, COMPLETED),
            (1000, 40, SKIPPED_KERNEL_TOO_LONG),
            (1000, 60, SKIPPED_KERNEL_TOO_LONG),
            (2000, 10, COMPLETED),
            (2000, 40, COMPLETED),
            (2000, 60, SKIPPED_KERNEL_TOO_LONG),
        ]

    def test_skips_follow_the_oracle(self, results):
        spec = tiny_grid_spec()
        skipped = {(r.window_ms, r.kernel_len) for r in results if r.status == SKIPPED_KERNEL_TOO_LONG}
        assert skipped == skipped_cells(spec.window_ms_list, spec.kernel_len_list)

    def test_completed_cells_carry_metrics(self, results):
        for r in results:
            if r.status == COMPLETED:
                assert 0.0 <= r.best_test_sca <= 1.0
                assert 1 <= r.best_epoch <= 2
                assert r.sample_count > 0
                assert r.oversampled_train_count >= round(0.8 * r.sample_count)
            else:
                assert r.best_test_sca is None
                assert r.best_epoch is None
                assert r.sample_count is None

    def test_deterministic(self, data, results):
        again = run_grid(data, tiny_grid_spec())
        assert again == list(results)

    def test_parallel_matches_serial(self, data, results):
        parallel = run_grid(data, tiny_grid_spec(), jobs=2)
        assert parallel == list(results)

    @pytest.fixture
    def in_process_pool(self, monkeypatch):
        """Stands in for the process pool; returns the worker counts it was asked for."""
        asked = []

        class InProcessPool:
            """Records the worker count; runs the initializer and the cells here."""

            def __init__(self, max_workers, initializer, initargs):
                asked.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, cells):
                return map(fn, cells)

        # run_grid imports the pool class when it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(experiments, "_worker_windows", None)
        return asked

    def test_pool_has_at_most_one_worker_per_cell(self, data, results, in_process_pool):
        two_cells = GridSpec(
            train_config=tiny_grid_spec().train_config,
            seed=9,
            window_ms_list=(1000,),
            kernel_len_list=(10, 40),
        )
        assert run_grid(data, two_cells, jobs=10**6) == list(results[:2])
        assert in_process_pool == [2]

    def test_cuts_each_session_once_per_window_size_and_process(self, data, in_process_pool, monkeypatch):
        cuts = []

        def counting_slice_windows(session, track, config):
            cuts.append((session.name, config.window_ms))
            return slice_windows(session, track, config)

        monkeypatch.setattr(experiments, "slice_windows", counting_slice_windows)
        monkeypatch.setattr(experiments, "train", lambda *args: SimpleNamespace(best_test_sca=1.0, best_epoch=1))
        # both sizes fit kernel 10; the 2000 ms size trains two cells on its one cut
        once = [(session.name, w) for w in (1000, 2000) for session, _ in data]
        run_grid(data, tiny_grid_spec())
        assert cuts == once
        cuts.clear()
        run_grid(data, tiny_grid_spec(), jobs=2)
        assert in_process_pool == [2]
        assert cuts == once + once  # the parent's cut, then the one worker's

    def test_no_sessions(self):
        with pytest.raises(TooFewSamples, match="^1000 ms windows: the sessions yield 0, "):
            run_grid([], tiny_grid_spec())

    def test_all_sessions_too_short(self):
        short = generate_synthetic(SyntheticSpec(1, 1, seed=1))  # 25-point sessions
        with pytest.raises(TooFewSamples, match="^2000 ms windows: the sessions yield 0, "):
            run_grid(short, tiny_grid_spec())

    def test_too_few_windows_fail_before_any_cell_trains(self, monkeypatch):
        # one 500-point session and two of 400: the 20000 ms row has a single
        # window, which no train/test split can take
        calls = []

        def counting_train(*args):
            calls.append(args)
            return SimpleNamespace(best_test_sca=1.0, best_epoch=1)

        monkeypatch.setattr(experiments, "train", counting_train)
        sessions = generate_synthetic(SyntheticSpec(1, 20, seed=1))
        data = [sessions[0]] + [
            (SyncedSession(s.name, s.start_time_ms, s.data[:400]), track) for s, track in sessions[1:]
        ]
        spec = GridSpec(train_config=TrainConfig(seed=1, max_epochs=2, patience=2), seed=1)
        with pytest.raises(TooFewSamples, match="^20000 ms windows: the sessions yield 1, "):
            run_grid(data, spec)
        assert len(calls) == 0


class TestReports:
    def fake_results(self):
        return [
            ExperimentResult(1000, 5, COMPLETED, 0.4990, 271, 5937, 10368),
            ExperimentResult(1000, 60, SKIPPED_KERNEL_TOO_LONG),
            ExperimentResult(10000, 5, COMPLETED, 0.9097, 781, 575, 978),
            ExperimentResult(10000, 60, COMPLETED, 0.5, 3, 575, 978),
        ]

    def test_cell_format(self):
        table = report_table(self.fake_results())
        assert "0.9097 (781)" in table
        assert "0.4990 (271)" in table

    def test_skipped_rendered_as_dash(self):
        results = [
            ExperimentResult(1000, 40, SKIPPED_KERNEL_TOO_LONG),
            ExperimentResult(1000, 60, SKIPPED_KERNEL_TOO_LONG),
        ]
        table = report_table(results)
        row = table.splitlines()[1]
        assert row.split()[1:] == ["-", "-", "-", "-"]

    def test_csv_row_count_full_grid(self):
        results = [
            ExperimentResult(w, k, SKIPPED_KERNEL_TOO_LONG)
            for w in WINDOW_MS_GRID
            for k in KERNEL_LEN_GRID
        ]
        csv = report_csv(results)
        assert len(csv.strip().splitlines()) == 26  # header + 25 cells

    def test_csv_and_table_encode_identical_numbers(self):
        results = self.fake_results()
        table = report_table(results)
        for line in report_csv(results).strip().splitlines()[1:]:
            fields = line.split(",")
            if fields[2] == COMPLETED:
                assert f"{fields[3]} ({fields[4]})" in table

    def test_sample_counts_in_table(self):
        table = report_table(self.fake_results())
        assert "5937" in table and "10368" in table


class TestExportCurves:
    def history(self, n):
        return [EpochRecord(i + 1, 0.3 + 0.1 * i, 0.25 + 0.1 * i, 1.0 / (i + 1)) for i in range(n)]

    def test_single_epoch(self):
        assert len(history_to_csv(self.history(1)).strip().splitlines()) == 2

    def test_csv_roundtrip(self):
        history = self.history(5)
        assert history_from_csv(history_to_csv(history)) == history
