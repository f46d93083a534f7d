import csv
import json
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from velotrace.errors import ParameterError, ParseError, RangeError
from velotrace.spatial import (
    M_PER_DEG_LAT,
    HubDef,
    _m_per_deg_lon,
    build_density_grid,
    hub_spread,
    parse_hub_file,
    write_density_csv,
)

from velotrace.util import json_default

from conftest import csv_stream, great_circle_m, make_trips

BBOX = (44.45, 11.28, 44.54, 11.40)


def columns(points):
    """The lat and lon columns of a list of (lat, lon) points."""
    return np.asarray(points, dtype=np.float64).reshape(-1, 2).T


def cell_point(bbox, cell_size, row, col):
    """Center of a given cell in lat/lon."""
    center_lat = (bbox[0] + bbox[2]) / 2
    return (bbox[0] + (row + 0.5) * cell_size / M_PER_DEG_LAT,
            bbox[1] + (col + 0.5) * cell_size / _m_per_deg_lon(center_lat))


class TestDensityGrid:
    def test_max_normalization(self):
        a = cell_point(BBOX, 100, 2, 2)
        b = cell_point(BBOX, 100, 5, 5)
        grid = build_density_grid(*columns([a] * 4 + [b] * 2), BBOX, 100)
        assert grid.counts.sum() == 6
        assert grid.normalized.max() == 1.0
        assert sorted(grid.normalized[grid.normalized > 0].tolist()) == [0.5, 1.0]

    def test_all_points_outside(self):
        grid = build_density_grid(*columns([(0.0, 0.0), (10.0, 10.0)]), BBOX, 100)
        assert grid.counts.sum() == 0
        assert grid.ignored == 2
        assert grid.normalized.max() == 0.0

    def test_degenerate_bbox_rejected(self):
        with pytest.raises(ParameterError):
            build_density_grid(*columns([]), (44.5, 11.3, 44.4, 11.4), 100)
        with pytest.raises(ParameterError):
            build_density_grid(*columns([]), BBOX, 0)

    def test_boundary_points_kept(self):
        grid = build_density_grid(*columns([(BBOX[0], BBOX[1]), (BBOX[2], BBOX[3])]), BBOX, 100)
        assert grid.counts.sum() == 2
        assert grid.ignored == 0

    def test_points_without_coordinate_are_neither_counted_nor_ignored(self):
        inside, outside = cell_point(BBOX, 100, 2, 2), (0.0, 0.0)
        grid = build_density_grid(*columns([inside, (np.nan, np.nan), outside, (np.nan, np.nan)]), BBOX, 100)
        assert (grid.counts.sum(), grid.ignored) == (1, 1)

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_point_conservation(self, data):
        pts = data.draw(st.lists(
            st.tuples(st.floats(44.3, 44.7), st.floats(11.1, 11.5)), max_size=60))
        grid = build_density_grid(*columns(pts), BBOX, 200)
        assert int(grid.counts.sum()) + grid.ignored == len(pts)

    @given(k=st.integers(2, 9))
    @settings(max_examples=20, deadline=None)
    def test_scale_invariance_of_normalized(self, k):
        pts = [cell_point(BBOX, 200, 1, 1)] * 3 + [cell_point(BBOX, 200, 4, 2)] * 7
        g1 = build_density_grid(*columns(pts), BBOX, 200)
        gk = build_density_grid(*columns(pts * k), BBOX, 200)
        assert np.array_equal(g1.normalized, gk.normalized)

    def test_density_csv_writes_each_cell_as_its_repr(self, tmp_path):
        """The file is the cell-by-cell rendering: row, col, the count and the
        repr of the normalized value, in row-major order."""
        pts = [cell_point(BBOX, 700, 1, 2)] * 3 + [cell_point(BBOX, 700, 13, 0)] * 7 + [(44.46, 11.39)]
        grid = build_density_grid(*columns(pts), BBOX, 700)
        write_density_csv(grid, tmp_path / "density.csv")
        with open(tmp_path / "reference.csv", "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f)
            w.writerow(["row", "col", "count", "normalized"])
            for r in range(grid.n_rows):
                for c in range(grid.n_cols):
                    w.writerow([r, c, int(grid.counts[r, c]), repr(float(grid.normalized[r, c]))])
        assert (grid.n_rows, grid.n_cols) == (15, 14)
        assert (tmp_path / "density.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_halved_volume_preserves_normalized_profile(self):
        # same planted street geometry at different volumes: normalized grids agree
        import tempfile
        from velotrace.ingest import parse_points
        from velotrace.synth import SynthConfig, generate

        grids = []
        for base in (1000, 500):
            cfg = SynthConfig(seed=99, start_date=date(2017, 5, 1), end_date=date(2017, 5, 11),
                              base_trips_per_day=base)
            with tempfile.TemporaryDirectory() as d:
                man = generate(cfg, d)
                table = parse_points(man["files"]["points"])
            grids.append(build_density_grid(table.lat, table.lon, BBOX, 200))
        a, b = grids
        assert np.abs(a.normalized - b.normalized).max() < 0.05


HUB = (44.4939, 11.3428)


def trips_between(*pairs):
    """One trip per (start_point, end_point) pair."""
    return make_trips(endpoints=pairs)


def offset_point(base, north_m, east_m):
    return (base[0] + north_m / M_PER_DEG_LAT, base[1] + east_m / _m_per_deg_lon(base[0]))


class TestHubSpread:
    def test_ranked_destinations(self):
        x = offset_point(HUB, 500, 100)
        y = offset_point(HUB, -500, -300)
        trips = trips_between(*[(HUB, x)] * 3, (HUB, y))
        rep = hub_spread(trips, HUB, 300, 200, top_k=5)
        assert rep.total_trips_from_hub == 4
        assert [(d.rank, d.trip_count) for d in rep.destinations] == [(1, 3), (2, 1)]

    def test_boundary_radius_closed(self):
        start = offset_point(HUB, 250, 0)
        radius = great_circle_m(start, HUB)  # exactly at the boundary
        rep = hub_spread(trips_between((start, offset_point(HUB, 900, 0))), HUB, radius, 200, 3)
        assert rep.total_trips_from_hub == 1

    def test_outside_hub_excluded(self):
        start = offset_point(HUB, 2000, 0)
        rep = hub_spread(trips_between((start, HUB)), HUB, 300, 200, 3)
        assert rep.total_trips_from_hub == 0
        assert rep.destinations == []

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            hub_spread(make_trips([]), HUB, 0, 200, 3)
        with pytest.raises(ParameterError):
            hub_spread(make_trips([]), HUB, 300, 200, 0)

    def test_rank_monotonic_under_added_trip(self):
        x = offset_point(HUB, 500, 100)
        y = offset_point(HUB, -500, -300)
        pairs = [(HUB, x)] * 2 + [(HUB, y)] * 2
        before = hub_spread(trips_between(*pairs), HUB, 300, 200, 10)
        after = hub_spread(trips_between(*pairs, (HUB, y)), HUB, 300, 200, 10)

        def rank_of(rep, pt):
            for d in rep.destinations:
                if great_circle_m(d.cell_center, pt) < 150:
                    return d.rank
            return None

        assert rank_of(after, y) <= rank_of(before, y)

    def test_deterministic_report(self):
        x = offset_point(HUB, 500, 100)
        trips = trips_between(*[(HUB, x)] * 3)
        r1 = json.dumps(hub_spread(trips, HUB, 300, 200, 5), sort_keys=True, default=json_default)
        r2 = json.dumps(hub_spread(trips, HUB, 300, 200, 5), sort_keys=True, default=json_default)
        assert r1 == r2

    def test_planted_flow_shares_recovered(self):
        # hubs placed at dest-cell centers of the origin's grid; 60/40 split by weight
        import tempfile
        from velotrace.ingest import assemble_trips, parse_points
        from velotrace.synth import Hub, SynthConfig, generate

        origin = HUB
        station = offset_point(origin, 500, 300)
        campus = offset_point(origin, -500, -100)
        cfg = SynthConfig(
            seed=17, start_date=date(2017, 5, 1), end_date=date(2017, 5, 6),
            base_trips_per_day=600, hub_jitter_m=30.0,
            hubs=(Hub("piazza", *origin, 5.0),
                  Hub("station", *station, 3.0),
                  Hub("campus", *campus, 2.0)),
        )
        with tempfile.TemporaryDirectory() as d:
            man = generate(cfg, d)
            trips, _ = assemble_trips(parse_points(man["files"]["points"]))
        rep = hub_spread(trips, origin, 300, 200, top_k=2)
        assert len(rep.destinations) == 2
        first, second = rep.destinations
        assert great_circle_m(first.cell_center, station) < 150   # station ranks 1
        assert great_circle_m(second.cell_center, campus) < 150   # campus ranks 2
        share = first.trip_count / (first.trip_count + second.trip_count)
        assert share == pytest.approx(0.6, abs=0.05)


HUB_HEADER = "name,lat,lon,radius_m\n"


class TestParseHubFile:
    def test_rows_become_hubs(self):
        hubs = parse_hub_file(csv_stream(HUB_HEADER + "piazza,44.4939,11.3428,300\n\nstation,44.5058,11.3426,150.5\n"))
        assert hubs == [HubDef("piazza", 44.4939, 11.3428, 300.0), HubDef("station", 44.5058, 11.3426, 150.5)]

    @pytest.mark.parametrize("row", ["h,abc,11.3,300", "h,44.5,,300", "h,44.5,11.3,wide"])
    def test_non_numeric_field_is_a_parse_error_with_its_line(self, row):
        with pytest.raises(ParseError) as e:
            parse_hub_file(csv_stream(HUB_HEADER + "ok,44.5,11.3,300\n" + row + "\n"))
        assert e.value.line == 3

    @pytest.mark.parametrize("row", ["h,44.5,11.3", "h,44.5,11.3,300,1"])
    def test_wrong_field_count_is_a_parse_error_with_its_line(self, row):
        with pytest.raises(ParseError) as e:
            parse_hub_file(csv_stream(HUB_HEADER + row + "\n"))
        assert e.value.line == 2

    @pytest.mark.parametrize("lat, lon", [("nan", "11.3428"), ("95", "11.3"), ("-90.5", "11.3"), ("44.5", "181"),
                                          ("44.5", "-inf")])
    def test_coordinate_out_of_range_is_a_range_error_with_its_line(self, lat, lon):
        with pytest.raises(RangeError) as e:
            parse_hub_file(csv_stream(HUB_HEADER + f"ok,90,-180,300\npiazza,{lat},{lon},300\n"))
        assert e.value.line == 3

    @pytest.mark.parametrize("radius", ["0", "-5", "nan", "inf"])
    def test_radius_not_finite_and_positive_is_a_range_error_with_its_line(self, radius):
        with pytest.raises(RangeError) as e:
            parse_hub_file(csv_stream(HUB_HEADER + f"h,44.5,11.3,{radius}\n"))
        assert e.value.line == 2
