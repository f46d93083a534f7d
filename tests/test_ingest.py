import io
import math
from dataclasses import fields
from datetime import date, datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from velotrace import ingest
from velotrace.errors import ParseError, RangeError, SchemaError
from velotrace.ingest import (
    BOUNDARY_MISSING,
    TOO_FEW_POINTS,
    ZERO_DURATION,
    PointTable,
    TripTable,
    _fill,
    assemble_trips,
    load_trips_npz,
    parse_points,
    save_points_npz,
)
from velotrace.synth import SynthConfig, generate

from conftest import T0, csv_stream, great_circle_m, point_table, pt, same_trips

HEADER = "activity_id,timestamp,lat,lon,accuracy,speed\n"

# independently computed great-circle references (vector atan2 formula, R = 6,371,000 m)
EQUATOR_ONE_DEG_M = 111194.92664455874
BOLOGNA_PAIR_M = 1323.3146960300971


class TestParsePoints:
    def test_header_only_gives_empty_list(self):
        table = parse_points(csv_stream(HEADER))
        assert len(table) == 0
        assert all(len(getattr(table, f.name)) == 0 for f in fields(PointTable))

    def test_len_is_the_number_of_data_rows(self):
        text = HEADER + "B,2017-05-09T08:00:01Z,1,1,,\n\nA,2017-05-09T08:00:00Z,,,,\nB,2017-05-09T08:00:02Z,1,1,,\n"
        assert len(parse_points(csv_stream(text))) == 3

    def test_direct_field_mapping(self):
        table = parse_points(csv_stream(HEADER + "A1,2017-05-09T08:00:00.25Z,44.4939,11.3428,5.0,3.2\n"))
        assert len(table) == 1
        assert table.ids.tolist() == ["A1"] and table.activity.tolist() == [0]
        at = datetime(2017, 5, 9, 8, 0, 0, 250000, tzinfo=timezone.utc)
        assert table.t.tolist() == [(at - datetime(1970, 1, 1, tzinfo=timezone.utc)) // timedelta(microseconds=1)]
        assert table.t.dtype == np.int64
        assert [table.lat[0], table.lon[0]] == [44.4939, 11.3428]

    def test_empty_optional_fields_become_absent(self):
        table = parse_points(csv_stream(HEADER + "A1,2017-05-09T08:00:00Z,,,,\n"))
        assert all(math.isnan(getattr(table, name)[0]) for name in ("lat", "lon"))

    def test_lat_out_of_range_names_line(self):
        with pytest.raises(RangeError, match="line 2"):
            parse_points(csv_stream(HEADER + "A1,2017-05-09T08:00:00Z,95.0,11.0,,\n"))

    def test_bad_timestamp_names_line(self):
        stream = csv_stream(HEADER + "A1,2017-05-09T08:00:00Z,1,1,,\nA2,not-a-time,1,1,,\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_points(stream)

    def test_a_row_after_a_quoted_field_that_spans_lines_names_its_file_line(self):
        stream = csv_stream(HEADER + '"a\nb",2017-05-09T08:00:00Z,1,1,,\nA2,not-a-time,1,1,,\n')
        with pytest.raises(ParseError, match="^line 4: bad timestamp"):
            parse_points(stream)

    def test_half_present_coordinate_is_schema_error(self):
        with pytest.raises(SchemaError, match="half-present"):
            parse_points(csv_stream(HEADER + "A1,2017-05-09T08:00:00Z,44.0,,,\n"))

    @pytest.mark.parametrize("values, error, message", [
        ("-1.0,3.0", RangeError, "accuracy -1.0 outside"), ("5.0,-0.5", RangeError, "speed -0.5 outside"),
        ("abc,", ParseError, "bad accuracy"), (",x", ParseError, "bad speed"),
    ])
    def test_accuracy_and_speed_are_checked_though_not_kept(self, values, error, message):
        stream = csv_stream(HEADER + f"A1,2017-05-09T08:00:00Z,1,1,,\nA1,2017-05-09T08:00:10Z,1,1,{values}\n")
        with pytest.raises(error, match=f"^line 3: {message}"):
            parse_points(stream)

    def test_bad_header_rejected(self):
        with pytest.raises(SchemaError):
            parse_points(csv_stream("id,time,lat,lon\nA,2017-05-09T08:00:00Z,1,1\n"))

    def test_row_order_preserved(self):
        text = HEADER + "B,2017-05-09T08:00:01Z,1,1,,\nA,2017-05-09T08:00:00Z,2,2,,\n"
        table = parse_points(csv_stream(text))
        assert table.ids.tolist() == ["A", "B"]
        assert [table.ids[a] for a in table.activity] == ["B", "A"]
        assert table.lat.tolist() == [1.0, 2.0]


def outcome(parse, text: str):
    """The table that `parse` gives for `text` as a stream, or the class and
    message of what it raises."""
    try:
        return parse(csv_stream(text))
    except Exception as e:
        return type(e), str(e)


def same_outcome(a, b) -> bool:
    """Whether two outcomes are the same exception or bit-equal tables."""
    if isinstance(a, PointTable) and isinstance(b, PointTable):
        return all(getattr(a, f.name).dtype == getattr(b, f.name).dtype
                   and getattr(a, f.name).tobytes() == getattr(b, f.name).tobytes() for f in fields(PointTable))
    return a == b


def stamp(dt: datetime) -> str:
    return f"{dt.year:04d}-{dt.month:02d}-{dt.day:02d}T{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d}Z"


def decimal(lo: float, hi: float):
    """Numbers in [lo, hi] written -?digits[.digits], with up to 17 decimals."""
    return st.builds(lambda v, k: f"{v:.{k}f}", st.floats(lo, hi), st.integers(0, 17))


# fields of the form the block path converts, and fields that send a source to the row loop
CANONICAL = {
    "id": st.sampled_from(["A", "B", "A0000000001", "b-2", "x y"]),
    "stamp": st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59)).map(stamp),
    "lat": decimal(-90, 90), "lon": decimal(-180, 180),
    "unsigned": st.one_of(st.just(""), decimal(0, 1e6)),
}
ODD = {
    "id": st.sampled_from(["", "é", '"a\nb"', '"q"', "a\rb", "a\x00"]),
    "stamp": st.sampled_from([
        "2017-05-09T08:00:00+00:00", "2017-05-09T08:00:00.25Z", "2017-02-29T08:00:00Z", "2016-02-29T08:00:00Z",
        "1900-02-29T08:00:00Z", "2000-02-29T08:00:00Z", "2017-05-09T24:00:00Z", "0000-01-01T00:00:00Z",
        "2017-04-31T08:00:00Z", "2017-13-01T08:00:00Z", "2017-05-09T08:60:00Z", "2017-05-09T08:00:60Z",
        "2017-05-09 08:00:00Z", "2017-05-09T08:00:00", "2017-05-09t08:00:00Z", "not-a-time", ""]),
    "number": st.sampled_from(["1e-05", "1E2", " 1.0", "1.0 ", "1_0.5", "nan", "inf", "-inf", "-0", "+1.0", "1.",
                               ".5", "-", "1.5.2", "95.0", "-180.5", "90.00000000000000001", "-90.0", "180.0",
                               "0x1p3", "١"]),
}


@st.composite
def point_text(draw) -> tuple[str, bool]:
    """A points file, and whether it is of the form the block path takes."""
    clean = draw(st.booleans())
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(ingest.POINT_HEADER)]
    for _ in range(draw(st.integers(0, 12))):
        odd = not clean and draw(st.integers(0, 3)) == 0
        fields_ = [draw(CANONICAL["id"]), draw(CANONICAL["stamp"])]
        if draw(st.booleans()):
            fields_ += [draw(CANONICAL["lat"]), draw(CANONICAL["lon"])]
        else:
            fields_ += ["", ""]
        fields_ += [draw(CANONICAL["unsigned"]), draw(CANONICAL["unsigned"])]
        if odd:
            kind = draw(st.sampled_from(["id", "stamp", "number", "half", "count", "blank"]))
            if kind == "id" or kind == "stamp":
                fields_[0 if kind == "id" else 1] = draw(ODD[kind])
            elif kind == "number":
                fields_[draw(st.integers(2, 5))] = draw(ODD["number"])
            elif kind == "half":
                fields_[draw(st.integers(2, 3))] = ""
                fields_[2] = fields_[2] or "1.0"
            elif kind == "count":
                fields_ = fields_[:draw(st.integers(1, 5))] if draw(st.booleans()) else fields_ + [""]
            else:
                fields_ = [""]
        lines.append(",".join(fields_))
    ends = [eol] * len(lines)
    if not clean and draw(st.booleans()):  # one line end of the other kind
        ends[draw(st.integers(0, len(lines) - 1))] = "\n" if eol == "\r\n" else "\r\n"
    if draw(st.booleans()):  # no line end after the last line
        ends[-1] = ""
    return "".join(map(str.__add__, lines, ends)), clean


class TestBlockPath:
    """The block path of `parse_points` against its row loop."""

    @given(drawn=point_text(), block=st.sampled_from([100, 160, 300, 1 << 17]), held=st.sampled_from([1, 2, 1 << 12]))
    @settings(max_examples=200, deadline=None)
    def test_block_path_and_row_loop_agree(self, drawn, block, held):
        """On each text, the same table bit for bit, or the same exception
        class, message and line; blocks of a few lines, so that lines cross
        block ends, and a few new ids held apart from the sorted ids."""
        text, clean = drawn
        with mock.patch.object(ingest, "_PARSE_BLOCK", block), mock.patch.object(ingest, "_BLOCK", held):
            got = outcome(parse_points, text)
            assert same_outcome(got, outcome(ingest._parse_rows, text)), got
            if clean and all(len(line) + 2 < block for line in text.splitlines()):
                # the block path takes it without the row loop
                fast = ingest._parse_blocks(io.BytesIO(text.encode("ascii")))
                assert same_outcome(fast, got)

    def test_a_city_parses_without_the_row_loop(self, tmp_path):
        cfg = SynthConfig(seed=3, start_date=date(2017, 5, 1), end_date=date(2017, 5, 3), base_trips_per_day=30,
                          missing_fraction=0.05)
        path = generate(cfg, tmp_path)["files"]["points"]
        expected = ingest._parse_rows(path)
        with (mock.patch.object(ingest, "_parse_rows", side_effect=AssertionError("the row loop ran")),
              mock.patch.object(ingest, "_BLOCK", 16)):
            assert same_outcome(parse_points(path), expected)
        assert np.isnan(expected.lat).any()


class TestHaversine:
    """The haversine formula as `half_angles` computes it."""

    def test_identical_points(self):
        assert great_circle_m((44.4939, 11.3428), (44.4939, 11.3428)) == 0.0

    def test_one_degree_on_equator(self):
        assert great_circle_m((0.0, 0.0), (0.0, 1.0)) == pytest.approx(EQUATOR_ONE_DEG_M, abs=0.01)

    def test_bologna_pair_matches_independent_oracle(self):
        d = great_circle_m((44.4939, 11.3428), (44.5058, 11.3426))
        assert d == pytest.approx(BOLOGNA_PAIR_M, rel=1e-3)

    coords = st.tuples(st.floats(-89, 89), st.floats(-179, 179))

    @given(a=coords, b=coords)
    @settings(max_examples=100)
    def test_symmetry_and_nonnegative(self, a, b):
        assert great_circle_m(a, b) >= 0.0
        assert great_circle_m(a, b) == pytest.approx(great_circle_m(b, a), rel=1e-12, abs=1e-9)

    @given(a=coords, b=coords, c=coords)
    @settings(max_examples=100)
    def test_triangle_inequality(self, a, b, c):
        assert great_circle_m(a, c) <= great_circle_m(a, b) + great_circle_m(b, c) + 1e-6


def oracle_fill(v: np.ndarray, t: np.ndarray, starts: np.ndarray) -> None:
    """The dense gap repair `_fill` replaced, kept as its oracle: fill the NaNs
    of `v` in place, group by group; groups are the runs of rows that begin at
    `starts`, with `t` (seconds) ascending in each. Every step holds n-length
    arrays, where `_fill` reads only the gaps and their neighbours."""
    missing = np.isnan(v)
    if not missing.any():
        return
    n = len(v)
    idx = np.arange(n)
    sizes = np.diff(np.append(starts, n))
    group_first = np.repeat(starts, sizes)
    group_last = np.repeat(starts + sizes - 1, sizes)
    prev = np.maximum.accumulate(np.where(missing, -1, idx))
    nxt = np.minimum.accumulate(np.where(missing, n, idx)[::-1])[::-1]
    has_prev = missing & (prev >= group_first)
    has_next = missing & (nxt <= group_last)

    gap = np.flatnonzero(has_prev & has_next)
    a, b = prev[gap], nxt[gap]
    v0, v1, t0, t1 = v[a], v[b], t[a], t[b]
    same = t1 == t0
    interp = v0 + (v1 - v0) * (t[gap] - t0) / np.where(same, 1.0, t1 - t0)
    v[gap] = np.where(same, v0, interp)

    lead = has_next & ~has_prev
    v[lead] = v[nxt[lead]]
    trail = has_prev & ~has_next
    v[trail] = v[prev[trail]]
    v[missing & ~has_prev & ~has_next] = 0.0


class TestFill:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_dense_oracle_bit_for_bit(self, data):
        """Random group sizes and NaN patterns between a present first and
        last value (the spans `_fill` is given), repeated timestamps, and
        spans scattered through a longer column, in a random row order,
        whose other rows stay as they are."""
        sizes = data.draw(st.lists(st.integers(2, 8), min_size=1, max_size=6))
        n = sum(sizes)
        share = data.draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        dense = np.where(rng.random(n) < share, np.nan, rng.normal(0.0, 50.0, n))
        ends = np.cumsum(sizes)
        dense[ends - sizes], dense[ends - 1] = rng.normal(0.0, 50.0, (2, len(sizes)))
        # ascending in each group, with ties, in microseconds
        t_us = np.concatenate([np.cumsum(rng.integers(0, 3, k)) * rng.choice([1, 250_000, 1_000_000])
                               for k in sizes]) + 1_494_000_000_000_000
        # each group's span of sorted positions, after 0-2 positions outside every span
        skip = rng.integers(0, 3, len(sizes) + 1)
        first = np.cumsum(skip[:-1]) + np.cumsum(sizes) - sizes
        last = first + np.array(sizes) - 1
        inside = np.concatenate([np.arange(f, l + 1) for f, l in zip(first, last)])
        order = rng.permutation(n + skip.sum())
        v = rng.choice([np.nan, 1.5], order.size)
        t = np.zeros(order.size, dtype=np.int64)
        v[order[inside]], t[order[inside]] = dense, t_us
        before = v.copy()

        oracle_fill(dense, t_us / 1e6, np.cumsum(sizes) - sizes)
        _fill(v, t, order, first, last)
        assert v[order[inside]].tobytes() == dense.tobytes()
        outside = np.delete(order, inside)
        assert v[outside].tobytes() == before[outside].tobytes()


class TestAssembleTrips:
    def test_midpoint_interpolation(self):
        points = [
            pt("A", 0, 0.0, 0.0),
            pt("A", 10),  # missing coordinate
            pt("A", 20, 0.0, 0.0002),
        ]
        table = point_table(points)
        trips, rej = assemble_trips(table)
        assert not rej
        assert table.lat[1] == pytest.approx(0.0, abs=1e-12)
        assert table.lon[1] == pytest.approx(0.0001, abs=1e-12)

    def test_single_point_rejected(self):
        trips, rej = assemble_trips(point_table([pt("A", 0, 1.0, 1.0)]))
        assert len(trips) == 0
        assert [(r.activity_id, r.reason) for r in rej] == [("A", TOO_FEW_POINTS)]

    def test_interleaved_activities_grouped(self):
        points = [
            pt("A", 0, 1.0, 1.0), pt("B", 0, 2.0, 2.0),
            pt("A", 60, 1.0, 1.001), pt("B", 60, 2.0, 2.001),
        ]
        trips, rej = assemble_trips(point_table(points))
        assert trips.trip_id.tolist() == ["A", "B"]
        assert trips.n_points.tolist() == [2, 2]
        assert trips.start_point.tolist() == [[1.0, 1.0], [2.0, 2.0]]
        assert trips.end_point.tolist() == [[1.0, 1.001], [2.0, 2.001]]

    def test_boundary_missing_dropped(self):
        points = [pt("A", 0), pt("A", 10, 1.0, 1.0), pt("A", 20, 1.0, 1.001), pt("A", 30)]
        table = point_table(points)
        trips, rej = assemble_trips(table)
        assert len(trips) == 1
        assert trips.n_points[0] == 2
        assert math.isnan(table.lat[0]) and math.isnan(table.lat[3])
        assert sorted(r.reason for r in rej) == [BOUNDARY_MISSING, BOUNDARY_MISSING]

    def test_zero_duration_rejected(self):
        points = [pt("A", 0, 1.0, 1.0), pt("A", 0, 1.0, 1.001)]
        trips, rej = assemble_trips(point_table(points))
        assert len(trips) == 0
        assert rej[0].reason == ZERO_DURATION and rej[0].n_points == 2

    def test_unsorted_input_same_result(self):
        t1, _ = assemble_trips(point_table(pt("A", s, 1.0, 1.0 + s * 1e-5) for s in (40, 0, 20, 60)))
        t2, _ = assemble_trips(point_table(pt("A", s, 1.0, 1.0 + s * 1e-5) for s in (0, 20, 40, 60)))
        assert t1.distance[0] == t2.distance[0]
        assert t1.start_us[0] == t2.start_us[0]

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
        table = point_table(points)
        trips, rej = assemble_trips(table)
        kept = int(trips.n_points.sum())
        rejected = sum(r.n_points for r in rej)
        assert kept + rejected == len(table) == len(points)

    def test_sort_idempotence(self):
        table = point_table(pt("A", s, 2.0, 2.0 + s * 1e-5) for s in (20, 0, 30, 10))
        first, _ = assemble_trips(table)
        order = np.argsort(table.t, kind="stable")
        resorted = PointTable(table.ids, *(getattr(table, f.name)[order] for f in fields(PointTable)[1:]))
        again, _ = assemble_trips(resorted)
        assert same_trips(first, again)
        assert resorted.t.tolist() == sorted(table.t.tolist())

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
        table = point_table(points)
        trips, rej = assemble_trips(table)
        assert not rej
        for k in missing:
            assert abs(table.lat[k] - (lat0 + k * dlat)) < 1e-9
            assert abs(table.lon[k] - (lon0 + k * dlon)) < 1e-9

    @given(n=st.integers(2, 10), step=st.integers(1, 120))
    @settings(max_examples=50)
    def test_metric_consistency(self, n, step):
        points = [pt("A", k * step, 1.0, 1.0 + k * 1e-4) for k in range(n)]
        trips, _ = assemble_trips(point_table(points))
        assert trips.avg_speed[0] * trips.duration[0] == pytest.approx(trips.distance[0], rel=1e-6)

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_row_permutation_invariance(self, data):
        """With distinct timestamps per activity, the row order of the file
        changes neither the trips, nor the rejections, nor the repaired values."""
        value = st.one_of(st.none(), st.floats(0.0, 30.0))
        rows = []
        for a in range(data.draw(st.integers(1, 4))):
            seconds = data.draw(st.lists(st.integers(0, 600), min_size=1, max_size=8, unique=True))
            for s in seconds:
                coord = data.draw(st.one_of(st.none(), st.tuples(st.floats(44.0, 45.0), st.floats(11.0, 12.0))))
                rows.append(pt(f"A{a}", s, *(coord or (None, None)),
                               accuracy=data.draw(value), speed=data.draw(value)))
        perm = data.draw(st.permutations(range(len(rows))))
        table = point_table(rows)
        shuffled = point_table([rows[i] for i in perm])
        (trips, rej), (shuffled_trips, shuffled_rej) = assemble_trips(table), assemble_trips(shuffled)
        assert same_trips(trips, shuffled_trips) and rej == shuffled_rej
        for f in fields(PointTable)[1:]:
            assert np.array_equal(getattr(shuffled, f.name), getattr(table, f.name)[perm], equal_nan=True), f.name


class TestTripMetrics:
    """Distance, duration and mean speed of assembled trips."""

    def test_stationary(self):
        trips, _ = assemble_trips(point_table([pt("A", 0, 1.0, 1.0), pt("A", 100, 1.0, 1.0)]))
        assert (trips.distance[0], trips.duration[0], trips.avg_speed[0]) == (0.0, 100.0, 0.0)

    def test_collinear_equator_segment_sum(self):
        points = [pt("A", 0, 0.0, 0.0), pt("A", 60, 0.0, 0.001), pt("A", 120, 0.0, 0.002)]
        trips, _ = assemble_trips(point_table(points))
        assert trips.duration[0] == 120.0
        assert trips.distance[0] == pytest.approx(2 * great_circle_m((0.0, 0.0), (0.0, 0.001)), rel=1e-12)

    def test_zero_duration_gives_no_trip(self):
        points = [pt("A", 0, 1.0, 1.0), pt("A", 0, 1.0, 1.0)]
        trips, rej = assemble_trips(point_table(points))
        assert len(trips) == 0
        assert [(r.reason, r.n_points) for r in rej] == [(ZERO_DURATION, 2)]


class TestPointsNpz:
    @staticmethod
    def assembled():
        """A table in file order, repaired in place, and its trips (C is rejected)."""
        table = point_table([
            pt("B", 0, 44.49, 11.34), pt("A", 0), pt("A", 10, 44.49, 11.34, speed=None),
            pt("A", 20, accuracy=None), pt("A", 30, 44.50, 11.35), pt("B", 60, 44.4912345678, 11.3498765432),
            pt("C", 5, 44.49, 11.34),
        ])
        trips, _ = assemble_trips(table)
        return table, trips

    @staticmethod
    def load(path, source_sha256):
        """Both tables back: `load_trips_npz` asked for every point column."""
        loaded = load_trips_npz(path, source_sha256, [f.name for f in fields(PointTable)])
        return None if loaded is None else (PointTable(**loaded[1]), loaded[0])

    def test_round_trip_matches_assembled_trips(self, tmp_path):
        table, trips = self.assembled()
        save_points_npz(tmp_path / "p.npz", table, trips, "abc")
        loaded_table, loaded = self.load(tmp_path / "p.npz", "abc")
        assert loaded.trip_id.tolist() == ["A", "B"]
        assert loaded.n_points.tolist() == [3, 2]
        for f in fields(TripTable):
            a, b = getattr(trips, f.name), getattr(loaded, f.name)
            assert a.dtype == b.dtype and repr(a.tolist()) == repr(b.tolist()), f.name
        for f in fields(PointTable):
            a, b = getattr(table, f.name), getattr(loaded_table, f.name)
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=f.name != "ids"), f.name
        # repaired columns in file order; boundary-missing stays absent
        assert loaded_table.t.tolist() == [int((T0 + timedelta(seconds=s)).timestamp()) * 1_000_000
                                           for s in (0, 0, 10, 20, 30, 60, 5)]
        assert math.isnan(loaded_table.lat[1]) and math.isnan(loaded_table.lon[1])
        assert loaded_table.lat[3] == pytest.approx(44.495)

    def test_other_source_or_missing_file_gives_none(self, tmp_path):
        table, trips = self.assembled()
        save_points_npz(tmp_path / "p.npz", table, trips, "abc")
        assert self.load(tmp_path / "p.npz", "abd") is None
        assert self.load(tmp_path / "missing.npz", "abc") is None

    def test_empty_trip_table(self, tmp_path):
        table = parse_points(csv_stream(HEADER))
        trips, rej = assemble_trips(table)
        assert len(trips) == 0 and rej == []
        save_points_npz(tmp_path / "p.npz", table, trips, "abc")
        loaded_table, trips = self.load(tmp_path / "p.npz", "abc")
        assert len(trips) == 0 and len(loaded_table) == 0
