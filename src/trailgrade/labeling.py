"""Trail difficulty labels: OSM grade extraction, grade mapping, label tracks.

Labels follow the coarse three-class scheme: 0 = easy (blue, S0/S1),
1 = medium (red, S2), 2 = hard (black, S3 and up). Per-time labels live in a
LabelTrack of sorted, non-overlapping [start_ms, end_ms) segments; gaps mean
unlabeled time.
"""

import xml.etree.ElementTree as ET
from bisect import bisect_right
from dataclasses import dataclass

from .errors import (
    DuplicateWayId,
    InvalidInterval,
    MalformedLine,
    MalformedXml,
    UnknownGrade,
)

EASY, MEDIUM, HARD = 0, 1, 2
LABELS = (EASY, MEDIUM, HARD)

OSM_GRADE_KEY = "mtb:scale"

_GRADE_MAP = {
    "s0": EASY, "s1": EASY, "0": EASY, "1": EASY,
    "s2": MEDIUM, "2": MEDIUM,
    "s3": HARD, "s4": HARD, "s5": HARD, "3": HARD, "4": HARD, "5": HARD,
}

TRACK_CSV_HEADER = "start_ms,end_ms,label"


def map_grade(raw_grade: str) -> int:
    """Map an S0..S5 or mtb:scale grade string onto {0, 1, 2}.

    Case-insensitive; a trailing "+" or "-" (common in OSM data) is ignored.
    """
    grade = raw_grade.strip()
    if grade and grade[-1] in "+-":
        grade = grade[:-1]
    try:
        return _GRADE_MAP[grade.lower()]
    except KeyError:
        raise UnknownGrade(f"unknown difficulty grade {raw_grade!r}") from None


def parse_osm_difficulties(xml_text) -> dict:
    """Extract {way_id: raw mtb:scale value} from an OSM XML export.

    Ways without the grade tag are omitted; values are kept verbatim.
    """
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise MalformedXml(str(exc)) from None
    if root.tag != "osm":
        raise MalformedXml(f"expected <osm> root, got <{root.tag}>")
    entries = {}
    for way in root.iter("way"):
        raw_id = way.get("id")
        if raw_id is None:
            raise MalformedXml("way element without id attribute")
        try:
            way_id = int(raw_id)
        except ValueError:
            raise MalformedXml(f"way id {raw_id!r} is not an integer") from None
        for tag in way.findall("tag"):
            if tag.get("k") == OSM_GRADE_KEY:
                if way_id in entries:
                    raise DuplicateWayId(f"way {way_id} graded twice")
                entries[way_id] = tag.get("v", "")
                break
    return entries


def _check_segment(start_ms, end_ms, label):
    if start_ms >= end_ms:
        raise InvalidInterval(f"interval [{start_ms}, {end_ms}) is empty or reversed")
    if label not in LABELS:
        raise InvalidInterval(f"label {label!r} not in {LABELS}")


@dataclass
class LabelTrack:
    """Sorted, non-overlapping labeled half-open intervals [start_ms, end_ms)."""

    segments: tuple

    def __post_init__(self):
        segs = tuple((int(s), int(e), int(l)) for s, e, l in self.segments)
        prev_end = None
        for start, end, label in segs:
            _check_segment(start, end, label)
            if prev_end is not None and start < prev_end:
                raise InvalidInterval("segments overlap or are unsorted")
            prev_end = end
        self.segments = segs
        self._starts = [s for s, _, _ in segs]


def label_at(track: LabelTrack, t_ms: int):
    """Label of the segment containing t_ms, or None for unlabeled time."""
    i = bisect_right(track._starts, t_ms) - 1
    if i >= 0:
        start, end, label = track.segments[i]
        if start <= t_ms < end:
            return label
    return None


def uniform_label(track: LabelTrack, start_ms: int, end_ms: int):
    """The single label covering every instant of [start_ms, end_ms), else None.

    Adjacent same-label segments count as continuous coverage; a gap or a label
    change inside the span yields None.
    """
    if start_ms >= end_ms:
        raise InvalidInterval(f"interval [{start_ms}, {end_ms}) is empty or reversed")
    segs = track.segments
    i = bisect_right(track._starts, start_ms) - 1
    if i < 0 or segs[i][1] <= start_ms:
        return None
    label = segs[i][2]
    cursor = segs[i][1]
    while cursor < end_ms:
        i += 1
        if i >= len(segs) or segs[i][0] != cursor or segs[i][2] != label:
            return None
        cursor = segs[i][1]
    return label


def apply_overrides(track: LabelTrack, overrides) -> LabelTrack:
    """Overlay manual up/downgrades on a base track.

    Each override replaces whatever the track says inside its span, splitting
    base segments as needed; later overrides win over earlier ones. Overrides
    may also label previously unlabeled time.
    """
    segments = list(track.segments)
    for start, end, label in overrides:
        start, end, label = int(start), int(end), int(label)
        _check_segment(start, end, label)
        kept = []
        for a, b, l in segments:
            if b <= start or a >= end:
                kept.append((a, b, l))
                continue
            if a < start:
                kept.append((a, start, l))
            if b > end:
                kept.append((end, b, l))
        kept.append((start, end, label))
        kept.sort()
        segments = kept
    return LabelTrack(tuple(segments))


def read_label_track_csv(text) -> LabelTrack:
    """Parse `start_ms,end_ms,label` CSV into a LabelTrack."""
    return LabelTrack(tuple(read_overrides_csv(text)))


def read_overrides_csv(text):
    """Parse `start_ms,end_ms,label` CSV into a list of interval tuples."""
    lines = text.split("\n")
    if not lines or lines[0].strip() != TRACK_CSV_HEADER:
        raise MalformedLine(1, f"expected header {TRACK_CSV_HEADER!r}")
    out = []
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise MalformedLine(line_no, f"expected 3 fields, got {len(parts)}")
        try:
            out.append((int(parts[0]), int(parts[1]), int(parts[2])))
        except ValueError:
            raise MalformedLine(line_no, f"unparseable record {line!r}") from None
    return out


def write_label_track_csv(track: LabelTrack) -> str:
    rows = [TRACK_CSV_HEADER]
    rows += [f"{s},{e},{l}" for s, e, l in track.segments]
    return "\n".join(rows) + "\n"
