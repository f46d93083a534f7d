"""GPS point parsing and trip reconstruction.

Points arrive as CSV rows keyed by an opaque activity id. `parse_points`
reads them into a `PointTable`: one NumPy column per kept field, rows in
file order, activity ids coded as indices into the sorted distinct ids; a
point's accuracy and speed are checked, not kept. `assemble_trips` sorts the
rows by (activity, time), repairs missing coordinates by linear interpolation
in time, and builds a `TripTable`: one NumPy column per field, one row per
trip, ordered by trip id, with distance / duration / speed per trip.
Distances are great-circle on a sphere of radius 6,371,000 m.

`assemble_trips` holds, beyond the table, the sort order and a few n-byte
masks: each column's gaps are repaired from the gap rows and their
neighbours alone, and the distances are summed from half-angles computed a
batch of trips at a time. Ingest memory thus grows with the points it
stores, not with its temporaries.

`save_points_npz` stores the repaired point table (ids, activity, t, lat,
lon) and the trip table of one points file in `points.npz`, keyed by that
file's sha256, one npz array per column under the column's name;
`load_trips_npz` gives the trip table back with only the point columns
asked for, so later analyses need not parse and assemble again.
"""

from __future__ import annotations

import math
import zipfile
from array import array
from dataclasses import dataclass, fields

import numpy as np

from .errors import ParseError, RangeError, SchemaError
from .util import csv_records, parse_utc, utc_strings, write_csv

EARTH_RADIUS_M = 6_371_000.0

POINT_HEADER = ["activity_id", "timestamp", "lat", "lon", "accuracy", "speed"]

# rejection reason codes
BOUNDARY_MISSING = "boundary-missing"
TOO_FEW_POINTS = "too-few-points"
ZERO_DURATION = "zero-duration"

_BLOCK = 1 << 12  # points per batch of trips whose half-angles are computed together
_TRIP_BLOCK = 1 << 10  # trips per block of rows that `write_trips_csv` renders together

@dataclass(slots=True)
class PointTable:
    """GPS points as NumPy columns, one row per point.

    `ids` holds the sorted distinct activity ids and `activity` each row's
    index into `ids`; `t` is int64 microseconds since the epoch; `lat` and
    `lon` are float64, NaN where absent. Accuracy and speed are not kept.
    """
    ids: np.ndarray
    activity: np.ndarray
    t: np.ndarray
    lat: np.ndarray
    lon: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


@dataclass(slots=True)
class TripTable:
    """Trips as NumPy columns, one row per trip, ordered by trip id.

    `trip_id` is the activity id (str); `n_points` the points kept (int64);
    `start_us` and `end_us` the first and last kept point's time, int64
    microseconds since the epoch; `start_point` and `end_point` (n, 2)
    float64 (lat, lon); `distance` in meters, `duration` in seconds and
    `avg_speed` in m/s, float64. The names are the `points.npz` keys.
    """
    trip_id: np.ndarray
    n_points: np.ndarray
    start_us: np.ndarray
    end_us: np.ndarray
    start_point: np.ndarray
    end_point: np.ndarray
    distance: np.ndarray
    duration: np.ndarray
    avg_speed: np.ndarray

    def __len__(self) -> int:
        return len(self.trip_id)

    def take(self, rows) -> TripTable:
        """The trips at `rows`, an index array or boolean mask."""
        return TripTable(*(getattr(self, f.name)[rows] for f in fields(TripTable)))


@dataclass(slots=True)
class Rejection:
    activity_id: str
    reason: str
    detail: str
    n_points: int = 1


def half_angles(lat1, lon1, lat2, lon2):
    """Half the central angle between points 1 and 2, pairwise over arrays of
    degrees (haversine formula); a great-circle distance is
    `2.0 * EARTH_RADIUS_M` times it."""
    la1, lo1 = np.radians(lat1), np.radians(lon1)
    la2, lo2 = np.radians(lat2), np.radians(lon2)
    s = np.sin((la2 - la1) / 2.0) ** 2 + np.cos(la1) * np.cos(la2) * np.sin((lo2 - lo1) / 2.0) ** 2
    return np.arcsin(np.minimum(1.0, np.sqrt(s)))


def _opt_float(text: str, line: int, name: str, lo: float, hi: float) -> float:
    if text == "":
        return math.nan
    try:
        v = float(text)
    except ValueError:
        raise ParseError(line, f"bad {name}: {text!r}") from None
    if not (lo <= v <= hi):
        raise RangeError(line, f"{name} {v} outside [{lo}, {hi}]")
    return v


def parse_points(source) -> PointTable:
    """Parse a point CSV (header `activity_id,timestamp,lat,lon,accuracy,speed`).

    `source` may be a path or an open text stream. The four last fields may be
    empty; accuracy and speed are checked, then dropped. Rows keep file order.
    Raises ParseError/RangeError/SchemaError naming the offending 1-based line.
    """
    codes: dict[str, int] = {}  # activity id -> rank of first appearance
    activity, t, lat, lon = array("i"), array("q"), array("d"), array("d")
    for line, row in csv_records(source, POINT_HEADER, "points"):
        activity_id, ts_text, lat_s, lon_s, acc_s, spd_s = row
        if not activity_id:
            raise SchemaError(f"line {line}: empty activity_id")
        try:
            us = parse_utc(ts_text)
        except ValueError:
            raise ParseError(line, f"bad timestamp: {ts_text!r}") from None
        la = _opt_float(lat_s, line, "lat", -90.0, 90.0)
        lo = _opt_float(lon_s, line, "lon", -180.0, 180.0)
        if math.isnan(la) != math.isnan(lo):
            raise SchemaError(f"line {line}: half-present coordinate (lat and lon must appear together)")
        _opt_float(acc_s, line, "accuracy", 0.0, math.inf)
        _opt_float(spd_s, line, "speed", 0.0, math.inf)
        activity.append(codes.setdefault(activity_id, len(codes)))
        t.append(us)
        lat.append(la)
        lon.append(lo)

    ids = sorted(codes)
    rank = np.empty(len(ids), dtype=np.int32)
    rank[[codes[a] for a in ids]] = np.arange(len(ids), dtype=np.int32)
    return PointTable(np.array(ids, dtype=str), rank[np.asarray(activity)], np.asarray(t),
                      np.asarray(lat), np.asarray(lon))


def _runs(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first and the last position of each run of adjacent positions in
    `pos`, ascending and not empty."""
    brk = np.diff(pos) != 1
    return pos[np.append(True, brk)], pos[np.append(brk, True)]


def _fill(v: np.ndarray, t: np.ndarray, order: np.ndarray, first: np.ndarray, last: np.ndarray) -> None:
    """Fill the NaNs of `v` in the rows `order[first[i]:last[i] + 1]` in
    place, span by span; the spans are disjoint and ascending, `t` (int64
    microseconds) ascends along `order` in each, and each span begins and
    ends on a present value, as the spans of `_present_span` that keep >= 2
    points do.

    A gap takes `v0 + (v1 - v0) * (t - t0) / (t1 - t0)`, times in seconds,
    from the nearest present values before and after it, or `v0` when
    `t1 == t0`. Only the gaps and their neighbours are read: beyond two
    n-byte masks, the work and the memory grow with the gaps.
    """
    gap = np.flatnonzero(np.isnan(v)[order])
    span = np.searchsorted(first, gap, side="right") - 1
    gap = gap[gap <= np.append(last, -1)[span]]  # a gap before the first span reads the -1
    if not gap.size:
        return
    lo, hi = _runs(gap)
    # the present positions just before and after each gap's run
    a, b, at = order[np.repeat(lo - 1, hi - lo + 1)], order[np.repeat(hi + 1, hi - lo + 1)], order[gap]
    v0, v1, t0, t1 = v[a], v[b], t[a] / 1e6, t[b] / 1e6  # seconds, as datetime.timestamp() gives them
    same = t1 == t0
    interp = v0 + (v1 - v0) * (t[at] / 1e6 - t0) / np.where(same, 1.0, t1 - t0)
    v[at] = np.where(same, v0, interp)


def _present_span(lat: np.ndarray, order: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """(first, last) sorted position of a present coordinate per group; a
    group with none gets first = end and last = end - 1. Found from the runs
    of adjacent positions without one; the first run holds a sentinel at -1."""
    gone = np.flatnonzero(np.append(True, np.isnan(lat)[order]))
    gone -= 1
    lo, hi = _runs(gone)
    r = np.searchsorted(lo, starts, side="right") - 1  # the run that holds each start, if any
    first = np.minimum(np.where(hi[r] >= starts, hi[r] + 1, starts), ends)
    r = np.searchsorted(lo, ends - 1, side="right") - 1
    return first, np.maximum(np.where(hi[r] >= ends - 1, lo[r] - 1, ends - 1), first - 1)


def _path_angles(lat: np.ndarray, lon: np.ndarray, order: np.ndarray, first, last) -> np.ndarray:
    """Per trip, the sum of the half-angles between its consecutive points
    from sorted position `first` to `last`; the trips are ascending. Trips
    are taken a batch of about `_BLOCK` points at a time, their coordinates
    gathered through `order`."""
    total = np.empty(first.size)
    i = 0
    while i < first.size:
        j = max(int(np.searchsorted(last, first[i] + _BLOCK)), i + 1)
        base = first[i]
        rows = order[base:last[j - 1] + 1]
        la, lo = lat[rows], lon[rows]
        angles = half_angles(la[:-1], lo[:-1], la[1:], lo[1:])
        total[i:j] = [angles[a:b].sum() for a, b in zip((first[i:j] - base).tolist(), (last[i:j] - base).tolist())]
        i = j
    return total


def assemble_trips(table: PointTable) -> tuple[TripTable, list[Rejection]]:
    """Group the table's rows by activity into a repaired TripTable plus a rejection log.

    Per activity (rows sorted by time, stable on ties): coordinates missing at
    a boundary are dropped; in groups that keep >= 2 points, interior missing
    coordinates are filled in the table's columns (see `_fill`). Groups
    keeping >= 2 points and a positive time span become trips, ordered by
    activity id; the log lists each group's rejections in that order too.

    Memory: beyond the table and the result, the work holds the sort order
    (8 bytes a point), n-byte masks, and arrays the size of the gaps and of
    one batch of trips; no column is copied in sorted order.
    """
    order = np.lexsort((table.t, table.activity))
    sizes = np.bincount(table.activity, minlength=len(table.ids))
    code = np.flatnonzero(sizes)  # the activity of each group, in sorted order
    sizes = sizes[code]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    first, last = _present_span(table.lat, order, starts, ends)
    kept = last - first + 1

    # repair the kept rows of groups that keep >= 2 points
    ok = kept >= 2
    for v in (table.lat, table.lon):
        _fill(v, table.t, order, first[ok], last[ok])

    is_trip = ok.copy()
    is_trip[ok] = table.t[order[last[ok]]] != table.t[order[first[ok]]]
    rejections: list[Rejection] = []
    # the repair leaves a coordinate missing only outside [first, last]: those rows, in order
    boundary = iter(utc_strings(table.t[order[np.isnan(table.lat)[order]]]))
    logged = (kept < sizes) | ~is_trip
    for aid, size, f, k, trip in zip(table.ids[code[logged]].tolist(), sizes[logged].tolist(),
                                     first[logged].tolist(), kept[logged].tolist(), is_trip[logged].tolist()):
        rejections += [Rejection(aid, BOUNDARY_MISSING, next(boundary)) for _ in range(size - k)]
        if k < 2:
            rejections.append(Rejection(aid, TOO_FEW_POINTS, f"{k} points after repair", k))
        elif not trip:
            rejections.append(Rejection(aid, ZERO_DURATION, utc_strings(table.t[order[f:f + 1]])[0], k))

    f, l = first[is_trip], last[is_trip]
    distance = 2.0 * EARTH_RADIUS_M * _path_angles(table.lat, table.lon, order, f, l)
    f, l = order[f], order[l]  # the file rows of each trip's first and last point
    duration = (table.t[l] - table.t[f]) / 1e6
    # the ids are as wide as the longest kept one, as in points.npz
    trip_id = np.array(table.ids[code[is_trip]].tolist(), dtype=str)
    trips = TripTable(trip_id, kept[is_trip], table.t[f], table.t[l], np.column_stack((table.lat[f], table.lon[f])),
                      np.column_stack((table.lat[l], table.lon[l])), distance, duration, distance / duration)
    return trips, rejections


TRIP_HEADER = [
    "trip_id", "start_time", "end_time", "start_lat", "start_lon",
    "end_lat", "end_lon", "distance_m", "duration_s", "avg_speed_mps", "n_points",
]


def write_trips_csv(trips: TripTable, path) -> None:
    """One row per trip: times as `utc_strings` renders them, floats by `repr`.
    The rows are rendered `_TRIP_BLOCK` trips at a time, so the text of one
    block, not of the whole table, is held at once."""
    def rows():
        for a in range(0, len(trips), _TRIP_BLOCK):
            b = trips.take(slice(a, a + _TRIP_BLOCK))
            yield from zip(b.trip_id.tolist(), utc_strings(b.start_us), utc_strings(b.end_us),
                           *b.start_point.T.tolist(), *b.end_point.T.tolist(), b.distance.tolist(),
                           b.duration.tolist(), b.avg_speed.tolist(), b.n_points.tolist())

    write_csv(path, TRIP_HEADER, rows())


def write_rejections_csv(rejections: list[Rejection], path) -> None:
    write_csv(path, ["activity_id", "reason", "detail"], ((r.activity_id, r.reason, r.detail) for r in rejections))


def _columns(table) -> dict:
    return {f.name: getattr(table, f.name) for f in fields(table)}


def save_points_npz(path, table: PointTable, trips: TripTable, source_sha256: str) -> None:
    """Write the point table (ids, activity, t, lat, lon) and the trip table
    as a plain (pickle-free) npz. `table` should be taken after
    `assemble_trips`, which repairs its coordinates in place. The bytes
    depend only on the inputs.
    """
    with open(path, "wb") as f:
        np.savez(f, source_sha256=np.array(source_sha256), **_columns(table), **_columns(trips))


def load_trips_npz(path, source_sha256: str, columns=()) -> tuple[TripTable, dict] | None:
    """The trip table saved by `save_points_npz` from the points file whose
    sha256 is `source_sha256`, and the named columns of its point table by
    name; None when the file is missing, unreadable or was built from other
    points. No other array of the file is read."""
    try:
        with np.load(path, allow_pickle=False) as z:
            if str(z["source_sha256"]) != source_sha256:
                return None
            return TripTable(*(z[f.name] for f in fields(TripTable))), {name: z[name] for name in columns}
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None
