import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import label_at_scan, overlay_label
from trailgrade.errors import (
    DuplicateWayId,
    InvalidInterval,
    MalformedLine,
    MalformedXml,
    UnknownGrade,
)
from trailgrade.labeling import (
    LABELS,
    LabelTrack,
    apply_overrides,
    map_grade,
    parse_osm_difficulties,
    read_label_track_csv,
    read_overrides_csv,
    uniform_label,
    write_label_track_csv,
)

GRADE_TABLE = [
    ("S0", 0), ("S1", 0), ("0", 0), ("1", 0),
    ("S2", 1), ("2", 1),
    ("S3", 2), ("S4", 2), ("S5", 2), ("3", 2), ("4", 2), ("5", 2),
]


class TestMapGrade:
    @pytest.mark.parametrize("raw,expected", GRADE_TABLE)
    def test_table(self, raw, expected):
        assert map_grade(raw) == expected

    @pytest.mark.parametrize("raw,expected", [("s1", 0), ("s4", 2), (" S2 ", 1)])
    def test_case_and_whitespace(self, raw, expected):
        assert map_grade(raw) == expected

    @pytest.mark.parametrize("raw,expected", [("2+", 1), ("3-", 2), ("S3+", 2), ("1-", 0)])
    def test_suffixes_stripped(self, raw, expected):
        assert map_grade(raw) == expected

    @pytest.mark.parametrize("raw", ["S6", "6", "", "x", "blue", "+", "S", "2.5"])
    def test_unknown(self, raw):
        with pytest.raises(UnknownGrade):
            map_grade(raw)

    def test_surjective_onto_labels(self):
        assert {map_grade(raw) for raw, _ in GRADE_TABLE} == set(LABELS)


class TestParseOsm:
    def test_single_way(self):
        assert parse_osm_difficulties('<osm><way id="7"><tag k="mtb:scale" v="2"/></way></osm>') == {7: "2"}

    def test_way_without_grade_tag(self):
        xml = '<osm><way id="7"><tag k="highway" v="path"/></way></osm>'
        assert parse_osm_difficulties(xml) == {}

    def test_three_ways_verbatim(self):
        xml = (
            "<osm>"
            '<way id="1"><tag k="mtb:scale" v="0"/></way>'
            '<way id="2"><tag k="highway" v="path"/><tag k="mtb:scale" v="1"/></way>'
            '<way id="3"><tag k="mtb:scale" v="3"/><tag k="name" v="x"/></way>'
            "</osm>"
        )
        assert parse_osm_difficulties(xml) == {1: "0", 2: "1", 3: "3"}

    def test_malformed_xml(self):
        with pytest.raises(MalformedXml):
            parse_osm_difficulties("<osm><way id=7></osm>")

    def test_wrong_root(self):
        with pytest.raises(MalformedXml):
            parse_osm_difficulties("<map/>")

    def test_duplicate_way_id(self):
        xml = (
            "<osm>"
            '<way id="7"><tag k="mtb:scale" v="2"/></way>'
            '<way id="7"><tag k="mtb:scale" v="3"/></way>'
            "</osm>"
        )
        with pytest.raises(DuplicateWayId):
            parse_osm_difficulties(xml)

    def test_non_integer_id(self):
        with pytest.raises(MalformedXml):
            parse_osm_difficulties('<osm><way id="x7"><tag k="mtb:scale" v="2"/></way></osm>')

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10**9), unique=True, max_size=8))
    def test_never_invents_way_ids(self, ids):
        xml = "<osm>" + "".join(
            f'<way id="{i}"><tag k="mtb:scale" v="{i % 6}"/></way>' for i in ids
        ) + "</osm>"
        entries = parse_osm_difficulties(xml)
        assert set(entries) == set(ids)


class TestLabelTrack:
    def test_invariants_enforced(self):
        with pytest.raises(InvalidInterval):
            LabelTrack(((0, 0, 1),))
        with pytest.raises(InvalidInterval):
            LabelTrack(((0, 100, 5),))
        with pytest.raises(InvalidInterval):
            LabelTrack(((0, 100, 1), (50, 200, 2)))
        with pytest.raises(InvalidInterval):
            LabelTrack(((100, 200, 1), (0, 50, 2)))

    def test_gaps_allowed(self):
        track = LabelTrack(((0, 100, 1), (200, 300, 2)))
        assert len(track.segments) == 2


class TestLabelAt:
    """The label at an instant t is uniform_label over [t, t + 1)."""

    def test_inclusive_start(self):
        track = LabelTrack(((0, 1000, 1),))
        assert uniform_label(track, 0, 1) == 1

    def test_exclusive_end(self):
        track = LabelTrack(((0, 1000, 1),))
        assert uniform_label(track, 1000, 1001) is None

    def test_gap_is_unlabeled(self):
        track = LabelTrack(((0, 100, 1), (200, 300, 2)))
        assert uniform_label(track, 150, 151) is None
        assert uniform_label(track, 250, 251) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_agrees_with_linear_scan(self, data):
        bounds = data.draw(
            st.lists(st.integers(0, 500), min_size=2, max_size=12, unique=True).map(sorted)
        )
        segments = []
        for a, b in zip(bounds[::2], bounds[1::2]):
            segments.append((a, b, data.draw(st.sampled_from(LABELS))))
        track = LabelTrack(tuple(segments))
        for t in data.draw(st.lists(st.integers(-10, 510), max_size=20)):
            assert uniform_label(track, t, t + 1) == label_at_scan(segments, t)


class TestUniformLabel:
    def test_single_segment(self):
        track = LabelTrack(((0, 1000, 2),))
        assert uniform_label(track, 0, 1000) == 2
        assert uniform_label(track, 0, 1001) is None

    def test_adjacent_same_label_counts(self):
        track = LabelTrack(((0, 500, 1), (500, 1000, 1)))
        assert uniform_label(track, 100, 900) == 1

    def test_adjacent_different_label_is_mixed(self):
        track = LabelTrack(((0, 500, 1), (500, 1000, 2)))
        assert uniform_label(track, 100, 900) is None

    def test_gap_breaks_coverage(self):
        track = LabelTrack(((0, 500, 1), (600, 1000, 1)))
        assert uniform_label(track, 100, 900) is None

    def test_empty_interval_rejected(self):
        track = LabelTrack(((0, 1000, 1),))
        with pytest.raises(InvalidInterval):
            uniform_label(track, 10, 10)


class TestApplyOverrides:
    def test_full_replacement(self):
        track = apply_overrides(LabelTrack(((0, 1000, 1),)), [(0, 1000, 2)])
        assert track.segments == ((0, 1000, 2),)

    def test_split(self):
        track = apply_overrides(LabelTrack(((0, 1000, 1),)), [(400, 600, 0)])
        assert track.segments == ((0, 400, 1), (400, 600, 0), (600, 1000, 1))

    def test_no_overrides_identity(self):
        base = LabelTrack(((0, 500, 1), (700, 900, 2)))
        assert apply_overrides(base, []).segments == base.segments

    def test_override_extends_past_base(self):
        track = apply_overrides(LabelTrack(((0, 100, 1),)), [(50, 300, 2)])
        assert track.segments == ((0, 50, 1), (50, 300, 2))

    def test_later_override_wins(self):
        track = apply_overrides(LabelTrack(((0, 1000, 0),)), [(0, 600, 1), (400, 800, 2)])
        assert track.segments == ((0, 400, 1), (400, 800, 2), (800, 1000, 0))

    def test_invalid_interval(self):
        with pytest.raises(InvalidInterval):
            apply_overrides(LabelTrack(((0, 10, 1),)), [(5, 5, 2)])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_pointwise_against_oracle(self, data):
        bounds = data.draw(
            st.lists(st.integers(0, 300), min_size=2, max_size=8, unique=True).map(sorted)
        )
        base_segments = [
            (a, b, data.draw(st.sampled_from(LABELS)))
            for a, b in zip(bounds[::2], bounds[1::2])
        ]
        overrides = []
        for _ in range(data.draw(st.integers(0, 4))):
            a = data.draw(st.integers(0, 299))
            b = data.draw(st.integers(a + 1, 320))
            overrides.append((a, b, data.draw(st.sampled_from(LABELS))))
        result = apply_overrides(LabelTrack(tuple(base_segments)), overrides)
        # invariants hold by construction (LabelTrack validates); check labels
        for t in range(-5, 325):
            assert uniform_label(result, t, t + 1) == overlay_label(base_segments, overrides, t), t


class TestNumberGrammar:
    """Label rows and way ids are read by the sensor CSVs' grammar, not by Python's ``int``."""

    @pytest.mark.parametrize("row", ["10,1_000,2", "10,1000,\uff12"])
    def test_track_spelling_names_its_line(self, row):
        with pytest.raises(MalformedLine) as err:
            read_label_track_csv(f"start_ms,end_ms,label\n0,10,1\n\n{row}\n")
        assert err.value.line_no == 4

    def test_overrides_spelling_names_its_line(self):
        with pytest.raises(MalformedLine, match="^line 2: unparseable record '400,6_00,0'$") as err:
            read_overrides_csv("start_ms,end_ms,label\n400,6_00,0\n")
        assert err.value.line_no == 2

    @pytest.mark.parametrize("way_id", ["1_000", "\u0663", "\uff13"])
    def test_way_id_spelling(self, way_id):
        xml = f'<osm><way id="{way_id}"><tag k="mtb:scale" v="2"/></way></osm>'
        with pytest.raises(MalformedXml, match=f"^way id {way_id!r} is not an integer$"):
            parse_osm_difficulties(xml)

    @pytest.mark.parametrize("way_id", ["1_0", "", " ", "5&#10;6", "5&#13;", "5,6"])
    def test_bad_way_id_among_good_ones_is_named(self, way_id):
        xml = "<osm>" + "".join(
            f'<way id="{i}"><tag k="mtb:scale" v="2"/></way>' for i in ("1", "2", way_id, "4")
        ) + "</osm>"
        raw_id = way_id.replace("&#10;", "\n").replace("&#13;", "\r")
        with pytest.raises(MalformedXml, match=f"^way id {re.escape(repr(raw_id))} is not an integer$"):
            parse_osm_difficulties(xml)

    def test_parse_error_wins_over_an_earlier_interval_error(self):
        # the whole file is parsed before any interval is checked
        text = "start_ms,end_ms,label\n10,0,1\n20,30,1\n40,4x,1\n"
        with pytest.raises(MalformedLine) as err:
            read_label_track_csv(text)
        assert err.value.line_no == 4


class TestTrackCsv:
    def test_roundtrip(self):
        track = LabelTrack(((0, 100, 1), (100, 250, 2), (400, 500, 0)))
        assert read_label_track_csv(write_label_track_csv(track)).segments == track.segments

    def test_header_required(self):
        with pytest.raises(MalformedLine):
            read_overrides_csv("start,end,label\n0,1,2\n")

    def test_bad_row(self):
        with pytest.raises(MalformedLine) as err:
            read_overrides_csv("start_ms,end_ms,label\n0,100,1\n1,2\n")
        assert err.value.line_no == 3
