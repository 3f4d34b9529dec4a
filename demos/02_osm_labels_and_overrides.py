"""From OSM difficulty tags to a per-time label track with manual overrides.

Trails on OpenStreetMap carry an mtb:scale tag (the Singletrail-Skala grade).
Grades coarsen to three classes: 0 easy/blue (S0-S1), 1 medium/red (S2),
2 hard/black (S3+). A ride's label track assigns one class per time interval;
overrides fix sections the map rating misjudges, e.g. a fireroad inside a red
trail.
"""

from trailgrade.labeling import (
    LabelTrack,
    apply_overrides,
    map_grade,
    parse_osm_difficulties,
    uniform_label,
)

OSM_EXPORT = """
<osm>
  <way id="100"><tag k="highway" v="path"/><tag k="mtb:scale" v="1"/></way>
  <way id="200"><tag k="mtb:scale" v="2"/></way>
  <way id="300"><tag k="mtb:scale" v="3+"/><tag k="name" v="rock garden"/></way>
  <way id="400"><tag k="highway" v="track"/></way>
</osm>
"""

print("== grades found in the export ==")
grades = parse_osm_difficulties(OSM_EXPORT)
for way_id, raw in sorted(grades.items()):
    print(f"  way {way_id}: mtb:scale={raw!r} -> class {map_grade(raw)}")
print("  way 400 has no grade tag and is ignored")

print("\n== the same mapping accepts Singletrail-Skala spellings ==")
for raw in ("S0", "s1", "S2", "S3", "S4+"):
    print(f"  {raw!r} -> {map_grade(raw)}")

print("\n== a ride: 0-60 s on way 200 (red), 60-90 s on way 300 (black) ==")
base = LabelTrack(((0, 60_000, map_grade(grades[200])), (60_000, 90_000, map_grade(grades[300]))))

# the video review showed a fireroad from 20 s to 35 s, and a nasty washed-out
# chute right before the end
overrides = [(20_000, 35_000, 0), (80_000, 90_000, 2)]
track = apply_overrides(base, overrides)

print("resulting segments (start ms, end ms, class):")
for segment in track.segments:
    print(f"  {segment}")

# the label at an instant t is the one label covering [t, t + 1)
for t in (10_000, 25_000, 59_999, 60_000, 95_000):
    print(f"label at {t:>6d} ms: {uniform_label(track, t, t + 1)}")
