import math
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from velotrace.errors import ParameterError, ParseError, RangeError, SchemaError
from velotrace.ingest import (
    BOUNDARY_MISSING,
    TOO_FEW_POINTS,
    ZERO_DURATION,
    assemble_trips,
    haversine,
    load_points_npz,
    parse_points,
    point_columns,
    save_points_npz,
    trip_metrics,
)

from conftest import T0, csv_stream, pt

HEADER = "activity_id,timestamp,lat,lon,accuracy,speed\n"

# independently computed great-circle references (vector atan2 formula, R = 6,371,000 m)
EQUATOR_ONE_DEG_M = 111194.92664455874
BOLOGNA_PAIR_M = 1323.3146960300971


class TestParsePoints:
    def test_header_only_gives_empty_list(self):
        assert parse_points(csv_stream(HEADER)) == []

    def test_direct_field_mapping(self):
        rows = parse_points(csv_stream(HEADER + "A1,2017-05-09T08:00:00Z,44.4939,11.3428,5.0,3.2\n"))
        assert len(rows) == 1
        p = rows[0]
        assert p.activity_id == "A1"
        assert p.timestamp == datetime(2017, 5, 9, 8, 0, 0, tzinfo=timezone.utc)
        assert (p.lat, p.lon, p.accuracy, p.speed) == (44.4939, 11.3428, 5.0, 3.2)

    def test_empty_optional_fields_become_absent(self):
        rows = parse_points(csv_stream(HEADER + "A1,2017-05-09T08:00:00Z,,,,\n"))
        p = rows[0]
        assert p.lat is None and p.lon is None and p.accuracy is None and p.speed is None

    def test_lat_out_of_range_names_line(self):
        with pytest.raises(RangeError, match="line 2"):
            parse_points(csv_stream(HEADER + "A1,2017-05-09T08:00:00Z,95.0,11.0,,\n"))

    def test_bad_timestamp_names_line(self):
        stream = csv_stream(HEADER + "A1,2017-05-09T08:00:00Z,1,1,,\nA2,not-a-time,1,1,,\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_points(stream)

    def test_half_present_coordinate_is_schema_error(self):
        with pytest.raises(SchemaError, match="half-present"):
            parse_points(csv_stream(HEADER + "A1,2017-05-09T08:00:00Z,44.0,,,\n"))

    def test_bad_header_rejected(self):
        with pytest.raises(SchemaError):
            parse_points(csv_stream("id,time,lat,lon\nA,2017-05-09T08:00:00Z,1,1\n"))

    def test_row_order_preserved(self):
        text = HEADER + "B,2017-05-09T08:00:01Z,1,1,,\nA,2017-05-09T08:00:00Z,2,2,,\n"
        rows = parse_points(csv_stream(text))
        assert [p.activity_id for p in rows] == ["B", "A"]


class TestHaversine:
    def test_identical_points(self):
        assert haversine((44.4939, 11.3428), (44.4939, 11.3428)) == 0.0

    def test_one_degree_on_equator(self):
        assert haversine((0.0, 0.0), (0.0, 1.0)) == pytest.approx(EQUATOR_ONE_DEG_M, abs=0.01)

    def test_bologna_pair_matches_independent_oracle(self):
        d = haversine((44.4939, 11.3428), (44.5058, 11.3426))
        assert d == pytest.approx(BOLOGNA_PAIR_M, rel=1e-3)

    coords = st.tuples(st.floats(-89, 89), st.floats(-179, 179))

    @given(a=coords, b=coords)
    @settings(max_examples=100)
    def test_symmetry_and_nonnegative(self, a, b):
        assert haversine(a, b) >= 0.0
        assert haversine(a, b) == pytest.approx(haversine(b, a), rel=1e-12, abs=1e-9)

    @given(a=coords, b=coords, c=coords)
    @settings(max_examples=100)
    def test_triangle_inequality(self, a, b, c):
        assert haversine(a, c) <= haversine(a, b) + haversine(b, c) + 1e-6


class TestAssembleTrips:
    def test_midpoint_interpolation(self):
        points = [
            pt("A", 0, 0.0, 0.0),
            pt("A", 10),  # missing coordinate
            pt("A", 20, 0.0, 0.0002),
        ]
        trips, rej = assemble_trips(points)
        assert not rej
        mid = trips[0].points[1]
        assert mid.lat == pytest.approx(0.0, abs=1e-12)
        assert mid.lon == pytest.approx(0.0001, abs=1e-12)

    def test_single_point_rejected(self):
        trips, rej = assemble_trips([pt("A", 0, 1.0, 1.0)])
        assert trips == []
        assert [(r.activity_id, r.reason) for r in rej] == [("A", TOO_FEW_POINTS)]

    def test_interleaved_activities_grouped(self):
        points = [
            pt("A", 0, 1.0, 1.0), pt("B", 0, 2.0, 2.0),
            pt("A", 60, 1.0, 1.001), pt("B", 60, 2.0, 2.001),
        ]
        trips, rej = assemble_trips(points)
        assert [t.trip_id for t in trips] == ["A", "B"]
        assert all(p.activity_id == t.trip_id for t in trips for p in t.points)

    def test_boundary_missing_dropped(self):
        points = [pt("A", 0), pt("A", 10, 1.0, 1.0), pt("A", 20, 1.0, 1.001), pt("A", 30)]
        trips, rej = assemble_trips(points)
        assert len(trips) == 1
        assert len(trips[0].points) == 2
        assert sorted(r.reason for r in rej) == [BOUNDARY_MISSING, BOUNDARY_MISSING]

    def test_zero_duration_rejected(self):
        points = [pt("A", 0, 1.0, 1.0), pt("A", 0, 1.0, 1.001)]
        trips, rej = assemble_trips(points)
        assert trips == []
        assert rej[0].reason == ZERO_DURATION and rej[0].n_points == 2

    def test_unsorted_input_same_result(self):
        points = [pt("A", s, 1.0, 1.0 + s * 1e-5) for s in (40, 0, 20, 60)]
        t1, _ = assemble_trips(points)
        t2, _ = assemble_trips(sorted(points, key=lambda p: p.timestamp))
        assert t1[0].distance == t2[0].distance
        assert t1[0].start_time == t2[0].start_time

    def test_speed_and_accuracy_gap_filling(self):
        points = [
            pt("A", 0, 1.0, 1.0, accuracy=None, speed=2.0),
            pt("A", 10, 1.0, 1.001, accuracy=4.0, speed=None),
            pt("A", 20, 1.0, 1.002, accuracy=8.0, speed=6.0),
        ]
        trips, _ = assemble_trips(points)
        pts = trips[0].points
        assert pts[0].accuracy == 4.0          # edge extended from nearest
        assert pts[1].speed == pytest.approx(4.0)  # interior interpolated
        assert all(p.speed is not None and p.accuracy is not None for p in pts)

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_partition_property(self, data):
        n_activities = data.draw(st.integers(1, 4))
        points = []
        for a in range(n_activities):
            n = data.draw(st.integers(1, 8))
            for k in range(n):
                missing = data.draw(st.booleans())
                if missing:
                    points.append(pt(f"A{a}", k * 7))
                else:
                    points.append(pt(f"A{a}", k * 7, 1.0 + a, 1.0 + k * 1e-4))
        trips, rej = assemble_trips(points)
        kept = sum(len(t.points) for t in trips)
        rejected = sum(r.n_points for r in rej)
        assert kept + rejected == len(points)

    def test_sort_idempotence(self):
        points = [pt("A", s, 2.0, 2.0 + s * 1e-5) for s in (0, 10, 20, 30)]
        first, _ = assemble_trips(points)
        again, _ = assemble_trips([p for t in first for p in t.points])
        assert first[0].distance == again[0].distance
        assert [p.timestamp for p in first[0].points] == [p.timestamp for p in again[0].points]

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_interpolation_exactness_on_linear_tracks(self, data):
        lat0 = data.draw(st.floats(-60, 60))
        lon0 = data.draw(st.floats(-60, 60))
        dlat = data.draw(st.floats(-1e-4, 1e-4))
        dlon = data.draw(st.floats(-1e-4, 1e-4))
        n = data.draw(st.integers(4, 12))
        missing = {data.draw(st.integers(1, n - 2))}
        points = []
        for k in range(n):
            if k in missing:
                points.append(pt("A", k * 5))
            else:
                points.append(pt("A", k * 5, lat0 + k * dlat, lon0 + k * dlon))
        trips, rej = assemble_trips(points)
        assert not rej
        for k in missing:
            p = trips[0].points[k]
            assert abs(p.lat - (lat0 + k * dlat)) < 1e-9
            assert abs(p.lon - (lon0 + k * dlon)) < 1e-9

    @given(n=st.integers(2, 10), step=st.integers(1, 120))
    @settings(max_examples=50)
    def test_metric_consistency(self, n, step):
        points = [pt("A", k * step, 1.0, 1.0 + k * 1e-4) for k in range(n)]
        trips, _ = assemble_trips(points)
        t = trips[0]
        assert t.avg_speed * t.duration == pytest.approx(t.distance, rel=1e-6)


class TestTripMetrics:
    def test_stationary(self):
        points = [pt("A", 0, 1.0, 1.0), pt("A", 100, 1.0, 1.0)]
        assert trip_metrics(points) == (0.0, 100.0, 0.0)

    def test_collinear_equator_segment_sum(self):
        points = [pt("A", 0, 0.0, 0.0), pt("A", 60, 0.0, 0.001), pt("A", 120, 0.0, 0.002)]
        distance, duration, _ = trip_metrics(points)
        assert duration == 120.0
        assert distance == pytest.approx(2 * haversine((0.0, 0.0), (0.0, 0.001)), rel=1e-12)

    def test_zero_duration_raises(self):
        points = [pt("A", 0, 1.0, 1.0), pt("A", 0, 1.0, 1.0)]
        with pytest.raises(ParameterError):
            trip_metrics(points)


class TestPointsNpz:
    @staticmethod
    def assembled():
        """Points in file order, repaired in place, and their trips (C is rejected)."""
        points = [
            pt("B", 0, 44.49, 11.34), pt("A", 0), pt("A", 10, 44.49, 11.34),
            pt("A", 20), pt("A", 30, 44.50, 11.35), pt("B", 60, 44.4912345678, 11.3498765432),
            pt("C", 5, 44.49, 11.34),
        ]
        trips, _ = assemble_trips(points)
        return points, trips

    def test_round_trip_matches_assembled_trips(self, tmp_path):
        points, trips = self.assembled()
        save_points_npz(tmp_path / "p.npz", point_columns(points), trips, "abc")
        columns, loaded = load_points_npz(tmp_path / "p.npz", "abc")
        assert [t.trip_id for t in loaded] == ["A", "B"]
        for a, b in zip(trips, loaded):
            assert b.points is None
            for name in ("trip_id", "start_time", "end_time", "start_point", "end_point",
                         "distance", "duration", "avg_speed"):
                assert repr(getattr(a, name)) == repr(getattr(b, name)), name
        # repaired columns in file order; boundary-missing stays absent
        assert columns.t.tolist() == [int(p.timestamp.timestamp()) * 1_000_000 for p in points]
        assert math.isnan(columns.lat[1]) and math.isnan(columns.lon[1])
        assert (columns.lat[3], columns.lon[3]) == (points[3].lat, points[3].lon)
        assert columns.lat[3] == pytest.approx(44.495)

    def test_other_source_or_missing_file_gives_none(self, tmp_path):
        points, trips = self.assembled()
        save_points_npz(tmp_path / "p.npz", point_columns(points), trips, "abc")
        assert load_points_npz(tmp_path / "p.npz", "abd") is None
        assert load_points_npz(tmp_path / "missing.npz", "abc") is None

    def test_empty_trip_table(self, tmp_path):
        save_points_npz(tmp_path / "p.npz", point_columns([]), [], "abc")
        columns, trips = load_points_npz(tmp_path / "p.npz", "abc")
        assert trips == [] and len(columns.t) == 0
