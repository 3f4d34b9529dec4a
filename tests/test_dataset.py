import hashlib
import pickle
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import full_track, make_session
from oracles import window_start_count
from trailgrade.dataset import (
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
from trailgrade.errors import (
    CorruptArchive,
    NumericFailure,
    TooFewSamples,
)
from trailgrade.ingest import PERIOD_MS
from trailgrade.labeling import LabelTrack


def make_samples(labels, name="s", window_points=4, seed=0):
    rng = np.random.default_rng(seed)
    return [
        WindowSample(rng.normal(size=(window_points, 4, 3)), int(label), (name, 40 * i))
        for i, label in enumerate(labels)
    ]


class TestWindowConfig:
    @pytest.mark.parametrize(
        "window_ms,points", [(1000, 25), (2000, 50), (5000, 125), (10000, 250), (20000, 500)]
    )
    def test_window_points_table(self, window_ms, points):
        assert WindowConfig(window_ms).window_points == points

    @pytest.mark.parametrize("window_ms,stride", [(1000, 6), (2000, 12), (5000, 31), (10000, 62), (20000, 125)])
    def test_stride_quarter_floor(self, window_ms, stride):
        assert WindowConfig(window_ms).stride == stride

    def test_non_integral_window_rejected(self):
        with pytest.raises(ValueError):
            WindowConfig(1010)


class TestSliceWindows:
    def test_candidate_count_500_125(self):
        session = make_session(500)
        samples = slice_windows(session, full_track(session), WindowConfig(5000))
        assert len(samples) == 13  # starts 0, 31, ..., 372

    def test_single_window_when_exact(self):
        session = make_session(25)
        samples = slice_windows(session, full_track(session), WindowConfig(1000))
        assert len(samples) == 1
        assert samples[0].origin == ("sess", 0)

    def test_too_short(self):
        session = make_session(24, name="ride-7")
        with pytest.raises(TooFewSamples, match="^session 'ride-7' has 24 points, window needs 25$"):
            slice_windows(session, full_track(session), WindowConfig(1000))

    def test_uniform_track_keeps_all_candidates(self):
        session = make_session(130)
        config = WindowConfig(1000)
        samples = slice_windows(session, full_track(session), config)
        assert len(samples) == window_start_count(130, 25, 6)

    def test_label_change_drops_boundary_windows(self):
        session = make_session(130)  # spans [0, 5200) ms
        config = WindowConfig(1000)
        track = LabelTrack(((0, 2600, 1), (2600, 5200, 2)))
        samples = slice_windows(session, track, config)
        # oracle: enumerate candidates, keep those fully inside one label span
        expected = []
        for start in range(0, 130 - 25 + 1, 6):
            a = start * 40
            b = a + 1000
            if b <= 2600:
                expected.append((a, 1))
            elif a >= 2600:
                expected.append((a, 2))
        assert [(s.origin[1], s.label) for s in samples] == expected
        assert len(samples) < window_start_count(130, 25, 6)

    def test_unlabeled_time_drops_windows(self):
        session = make_session(50)
        track = LabelTrack(((0, 999, 1),))  # one ms short of the first window
        assert slice_windows(session, track, WindowConfig(1000)) == []

    def test_window_count_law(self):
        for window_ms, w in ((1000, 25), (2000, 50), (5000, 125)):
            config = WindowConfig(window_ms)
            stride = config.stride
            for length in range(w, w + 201, 7):  # sampled; the acceptance suite sweeps all
                session = make_session(length, seed=length)
                got = len(slice_windows(session, full_track(session), config))
                assert got == (length - w) // stride + 1
                assert got == window_start_count(length, w, stride)


class _SlidingByOnePoint(WindowConfig):
    stride = 1


def window_at(session, start, points, label):
    """The window slice_windows cuts at point ``start``, sliding by one point."""
    config = _SlidingByOnePoint(points * PERIOD_MS)
    return slice_windows(session, full_track(session, label), config)[start]


class TestStackSample:
    """How slice_windows stacks a window: data[t, r, c] = channel r's axis c at p + t."""

    def test_single_point_window(self):
        session = make_session(10)
        sample = window_at(session, 3, 1, 2)
        assert sample.data.shape == (1, 4, 3)
        assert np.array_equal(sample.data[0], session.data[3])
        assert sample.label == 2

    def test_layout_definition(self):
        session = make_session(30)
        sample = window_at(session, 5, 8, 0)
        # row 0 is the frame accelerometer; column 2 is the z axis
        assert sample.data[0][0][2] == session.channels[0].values[5, 2]
        assert sample.origin == ("sess", 200)

    def test_inverse_layout(self):
        session = make_session(60, seed=9)
        sample = window_at(session, 12, 20, 1)
        for row in range(4):
            assert np.array_equal(
                sample.data[:, row, :], session.channels[row].values[12:32]
            )

    def test_bit_identical_slice(self):
        session = make_session(40)
        sample = window_at(session, 8, 16, 0)
        assert np.array_equal(sample.data, session.data[8:24])
        assert sample.data.base is session.data  # a read-only view of session.data

    @pytest.mark.parametrize("pickled", [False, True])
    def test_windows_share_the_session_and_cannot_write_it(self, pickled):
        session = make_session(40)
        if pickled:  # as a grid worker receives it
            session = pickle.loads(pickle.dumps(session))
        windows = slice_windows(session, full_track(session), WindowConfig(640))
        assert len(windows) == 7
        for window in windows:
            assert np.shares_memory(window.data, session.data)
            with pytest.raises(ValueError):
                window.data[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            session.data[0, 0, 0] = 1.0


class TestSplit:
    def test_spec_counts(self):
        train, test = split_train_test(make_samples([0] * 575), seed=1)
        assert (len(train), len(test)) == (460, 115)

    def test_ten_samples(self):
        train, test = split_train_test(make_samples([0] * 10), seed=1)
        assert (len(train), len(test)) == (8, 2)

    def test_disjoint_and_complete(self):
        samples = make_samples(range(3)) + make_samples(range(3), name="t")
        train, test = split_train_test(samples, seed=3)
        train_origins = {s.origin for s in train}
        test_origins = {s.origin for s in test}
        assert not train_origins & test_origins
        assert len(train_origins | test_origins) == len(samples)

    def test_same_seed_same_partition(self):
        samples = make_samples([0, 1, 2] * 10)
        train_a, test_a = split_train_test(samples, seed=7)
        train_b, test_b = split_train_test(samples, seed=7)
        assert [s.origin for s in train_a] == [s.origin for s in train_b]
        assert [s.origin for s in test_a] == [s.origin for s in test_b]

    def test_different_seeds_differ(self):
        samples = make_samples([0] * 50)
        partitions = {
            frozenset(s.origin for s in split_train_test(samples, seed=seed)[0])
            for seed in range(20)
        }
        assert len(partitions) == 20

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            split_train_test(make_samples([0]), seed=0)


class TestOversample:
    def test_spec_example_counts(self):
        samples = make_samples([0, 0, 1, 1, 1, 1, 1, 2])
        out = oversample_balance(samples, seed=0)
        assert class_histogram(out) == {0: 5, 1: 5, 2: 5}
        assert len(out) == 15

    def test_balanced_input_unchanged(self):
        samples = make_samples([0, 1, 2, 0, 1, 2])
        assert oversample_balance(samples, seed=0) == samples

    def test_imbalanced_32_56_12_distribution(self):
        samples = make_samples([0] * 320 + [1] * 560 + [2] * 120)
        out = oversample_balance(samples, seed=0)
        assert class_histogram(out) == {0: 560, 1: 560, 2: 560}
        assert len(out) == 1680

    def test_originals_prefix_then_duplicates(self):
        samples = make_samples([0, 0, 1, 1, 1])
        out = oversample_balance(samples, seed=0)
        assert out[: len(samples)] == samples
        for dup in out[len(samples):]:
            assert dup in samples

    def test_full_cycles_then_seeded_draw(self):
        samples = make_samples([0, 0, 1, 1, 1, 1, 1, 1, 1])  # 2 vs 7 -> need 5 = 2 cycles + 1
        zeros = [s for s in samples if s.label == 0]
        out = oversample_balance(samples, seed=3)
        dups = out[len(samples):]
        assert dups[:4] == zeros * 2
        assert dups[4] in zeros
        assert oversample_balance(samples, seed=3) == out  # deterministic

    def test_absent_class_stays_absent(self):
        samples = make_samples([0, 0, 1])
        assert oversample_balance([], seed=0) == []
        # only the present classes are balanced
        out = oversample_balance(samples, seed=0)
        assert class_histogram(out) == {0: 2, 1: 2, 2: 0}

    def test_no_fabricated_values(self):
        samples = make_samples([0, 1, 1, 1, 2, 2], seed=4)
        out = oversample_balance(samples, seed=1)
        by_origin = {s.origin: s.data for s in samples}
        for dup in out:
            assert np.array_equal(dup.data, by_origin[dup.origin])


class TestShuffle:
    def test_empty(self):
        assert shuffle([], seed=0) == []

    def test_permutation_preserves_multiset(self):
        samples = make_samples([0, 1, 2, 0, 1])
        out = shuffle(samples, seed=9)
        assert sorted(s.origin for s in out) == sorted(s.origin for s in samples)

    def test_same_seed_same_order(self):
        samples = make_samples([0] * 12)
        assert [s.origin for s in shuffle(samples, seed=2)] == [
            s.origin for s in shuffle(samples, seed=2)
        ]


class TestClassHistogram:
    def test_empty(self):
        assert class_histogram([]) == {0: 0, 1: 0, 2: 0}

    def test_counting(self):
        assert class_histogram(make_samples([0, 1, 1])) == {0: 1, 1: 2, 2: 0}

    def test_recount_of_sliced_windows(self):
        session = make_session(130)
        track = LabelTrack(((0, 2600, 0), (2600, 5200, 2)))
        samples = slice_windows(session, track, WindowConfig(1000))
        hist = class_histogram(samples)
        assert hist[0] == sum(1 for s in samples if s.label == 0)
        assert hist[2] == sum(1 for s in samples if s.label == 2)
        assert sum(hist.values()) == len(samples)


class TestSampleArchive:
    def test_roundtrip_values_and_bytes(self, tmp_path):
        samples = make_samples([0, 1, 2, 1], window_points=6, seed=2)
        path = tmp_path / "a.tgds"
        write_sample_archive(samples, path)
        loaded = read_sample_archive(path)
        assert [s.label for s in loaded] == [s.label for s in samples]
        assert [s.origin for s in loaded] == [s.origin for s in samples]
        for got, want in zip(loaded, samples):
            assert np.array_equal(got.data, want.data.astype(np.float32).astype(np.float64))
        path2 = tmp_path / "b.tgds"
        write_sample_archive(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_windows_are_the_float32_payload(self, tmp_path):
        samples = make_samples([0, 1, 2, 1], window_points=6, seed=3)
        path = tmp_path / "a.tgds"
        write_sample_archive(samples, path)
        for got, want in zip(read_sample_archive(path), samples):
            assert got.data.dtype == np.float32
            widened = got.data.astype(np.float64)
            assert widened.tobytes() == want.data.astype(np.float32).astype(np.float64).tobytes()

    def test_write_holds_the_file_once(self, tmp_path):
        rng = np.random.default_rng(4)
        samples = [WindowSample(rng.normal(size=(125, 4, 3)), i % 3, ("s", 40 * i)) for i in range(300)]
        path = tmp_path / "a.tgds"
        tracemalloc.start()
        try:
            write_sample_archive(samples, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "c6dd2ce39e37c231b181f7fc5507dc4123bdf21db888145e00fa69a90527b3b8"
        assert peak <= 1.5 * path.stat().st_size

    def test_empty_archive(self, tmp_path):
        path = tmp_path / "empty.tgds"
        write_sample_archive([], path)
        assert read_sample_archive(path) == []

    @pytest.mark.parametrize("value", [3.5e38, -1.7e308])
    def test_value_beyond_float32_is_not_written(self, tmp_path, value):
        # float32 would store it as infinite, which the reader rejects
        samples = make_samples([0, 1, 2])
        samples[1].data[2, 3, 1] = value
        path = tmp_path / "a.tgds"
        with pytest.raises(NumericFailure, match=r"sample \('s', 40\) holds a value beyond float32's range"):
            write_sample_archive(samples, path)
        assert not path.exists()

    def test_truncated(self, tmp_path):
        path = tmp_path / "a.tgds"
        write_sample_archive(make_samples([0, 1]), path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(CorruptArchive):
            read_sample_archive(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tgds"
        path.write_bytes(b"WHAT" + bytes(16))
        with pytest.raises(CorruptArchive):
            read_sample_archive(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "a.tgds"
        write_sample_archive(make_samples([0]), path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(CorruptArchive):
            read_sample_archive(path)

    @pytest.mark.parametrize("label", [3, 7, 255])
    def test_label_outside_labels_rejected(self, tmp_path, label):
        path = tmp_path / "a.tgds"
        write_sample_archive(make_samples([0, 1]), path)
        data = bytearray(path.read_bytes())
        data[13] = label  # first record's label byte, after magic, version, count and width
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptArchive, match="label"):
            read_sample_archive(path)

    def test_name_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "a.tgds"
        write_sample_archive(make_samples([0]), path)
        data = bytearray(path.read_bytes())
        data[16] = 0xFF  # first record's first name byte, after its label and name length
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptArchive, match="UTF-8"):
            read_sample_archive(path)

    def test_read_holds_the_payload_once(self, tmp_path):
        # the file's bytes, the float32 result and the non-finite check's bool
        # mask; a second copy of the float32 payload would pass 1.25
        samples = make_samples([0, 1, 2] * 100, window_points=125, seed=4)
        path = tmp_path / "a.tgds"
        write_sample_archive(samples, path)
        result_bytes = len(samples) * 125 * 4 * 3 * 4
        tracemalloc.start()
        try:
            loaded = read_sample_archive(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded) == 300
        assert peak <= 1.25 * (path.stat().st_size + result_bytes)

    def test_header_larger_than_file_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "huge.tgds"
        header = b"TGDS\x01" + struct.pack("<II", 2**31, 2**20)
        path.write_bytes(header + struct.pack("<BH", 0, 1) + b"s" + struct.pack("<q", 0) + bytes(64))
        tracemalloc.start()
        try:
            with pytest.raises(CorruptArchive, match="truncated"):
                read_sample_archive(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_mixed_window_sizes_rejected(self, tmp_path):
        mixed = make_samples([0], window_points=4) + make_samples([1], window_points=8)
        with pytest.raises(ValueError):
            write_sample_archive(mixed, tmp_path / "m.tgds")


@settings(max_examples=40, deadline=None)
@given(
    length=st.integers(25, 140),
    window_ms=st.sampled_from([1000, 2000]),
)
def test_window_count_matches_enumeration(length, window_ms):
    config = WindowConfig(window_ms)
    if length < config.window_points:
        return
    session = make_session(length, seed=length)
    samples = slice_windows(session, full_track(session), config)
    assert len(samples) == window_start_count(length, config.window_points, config.stride)
