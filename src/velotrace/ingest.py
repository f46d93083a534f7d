"""GPS point parsing and trip reconstruction.

Points arrive as CSV rows keyed by an opaque activity id. `parse_points`
reads them into a `PointTable`: one NumPy column per field, rows in file
order, activity ids coded as indices into the sorted distinct ids, and NaN
for an absent value. `assemble_trips` sorts the rows by (activity, time),
repairs missing values in the table's columns by linear interpolation in
time, and computes per-trip distance / duration / speed. Distances are
great-circle on a sphere of radius 6,371,000 m.

`save_points_npz` stores the repaired table and the trip table of one points
file in `points.npz`, keyed by that file's sha256; `load_points_npz` gives
them back, so later analyses need not parse and assemble again.
"""

from __future__ import annotations

import csv
import math
import zipfile
from array import array
from dataclasses import dataclass, fields
from datetime import datetime, timedelta, timezone

import numpy as np

from .errors import ParseError, RangeError, SchemaError
from .util import csv_rows, format_utc, parse_utc

EARTH_RADIUS_M = 6_371_000.0

POINT_HEADER = ["activity_id", "timestamp", "lat", "lon", "accuracy", "speed"]

# rejection reason codes
BOUNDARY_MISSING = "boundary-missing"
TOO_FEW_POINTS = "too-few-points"
ZERO_DURATION = "zero-duration"

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def _to_us(dt: datetime) -> int:
    return (dt - _EPOCH) // _MICROSECOND


def _from_us(us: int) -> datetime:
    return _EPOCH + timedelta(microseconds=us)


@dataclass(slots=True)
class PointTable:
    """GPS points as NumPy columns, one row per point.

    `ids` holds the sorted distinct activity ids and `activity` each row's
    index into `ids`; `t` is int64 microseconds since the epoch; `lat`, `lon`,
    `accuracy` and `speed` are float64 with NaN where the value is absent.
    """
    ids: np.ndarray
    activity: np.ndarray
    t: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    accuracy: np.ndarray
    speed: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


_TABLE_COLUMNS = tuple(f.name for f in fields(PointTable))


@dataclass(slots=True)
class Trip:
    trip_id: str
    n_points: int
    start_time: datetime
    end_time: datetime
    start_point: tuple[float, float]
    end_point: tuple[float, float]
    distance: float
    duration: float
    avg_speed: float


@dataclass(slots=True)
class Rejection:
    activity_id: str
    reason: str
    detail: str
    n_points: int = 1


def haversine(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance in meters between two (lat, lon) pairs."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    s = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(s)))


def _segment_angles(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """Half central angle between each pair of consecutive points; a segment's
    great-circle length is `2.0 * EARTH_RADIUS_M` times its angle."""
    la = np.radians(lat)
    lo = np.radians(lon)
    dlat = la[1:] - la[:-1]
    dlon = lo[1:] - lo[:-1]
    s = np.sin(dlat / 2.0) ** 2 + np.cos(la[:-1]) * np.cos(la[1:]) * np.sin(dlon / 2.0) ** 2
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

    `source` may be a path or an open text stream. Empty strings in the four
    optional columns become NaN; row order is preserved. Raises
    ParseError/RangeError/SchemaError naming the offending 1-based line.
    """
    rows = csv_rows(source)
    header = next(rows, None)
    if header is None:
        raise SchemaError("empty file: missing header row")
    if header != POINT_HEADER:
        raise SchemaError(f"bad header {header!r}, expected {POINT_HEADER!r}")

    codes: dict[str, int] = {}  # activity id -> rank of first appearance
    activity, t = array("i"), array("q")
    lat, lon, accuracy, speed = array("d"), array("d"), array("d"), array("d")
    for line, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != 6:
            raise ParseError(line, f"expected 6 fields, got {len(row)}")
        activity_id, ts_text, lat_s, lon_s, acc_s, spd_s = row
        if not activity_id:
            raise SchemaError(f"line {line}: empty activity_id")
        try:
            ts = parse_utc(ts_text)
        except ValueError:
            raise ParseError(line, f"bad timestamp: {ts_text!r}") from None
        la = _opt_float(lat_s, line, "lat", -90.0, 90.0)
        lo = _opt_float(lon_s, line, "lon", -180.0, 180.0)
        if math.isnan(la) != math.isnan(lo):
            raise SchemaError(f"line {line}: half-present coordinate (lat and lon must appear together)")
        acc = _opt_float(acc_s, line, "accuracy", 0.0, math.inf)
        spd = _opt_float(spd_s, line, "speed", 0.0, math.inf)
        activity.append(codes.setdefault(activity_id, len(codes)))
        t.append(_to_us(ts))
        lat.append(la)
        lon.append(lo)
        accuracy.append(acc)
        speed.append(spd)

    ids = sorted(codes)
    rank = np.empty(len(ids), dtype=np.int32)
    rank[[codes[a] for a in ids]] = np.arange(len(ids), dtype=np.int32)
    return PointTable(np.array(ids, dtype=str), rank[np.asarray(activity)], np.asarray(t),
                      np.asarray(lat), np.asarray(lon), np.asarray(accuracy), np.asarray(speed))


def _fill(v: np.ndarray, t: np.ndarray, starts: np.ndarray) -> None:
    """Fill the NaNs of `v` in place, group by group; groups are the runs of
    rows that begin at `starts`, with `t` (seconds) ascending in each.

    A gap between present values takes `v0 + (v1 - v0) * (t - t0) / (t1 - t0)`
    from the nearest present values before and after it, or `v0` when
    `t1 == t0`. A gap before the first or after the last present value takes
    that value, and a group with no present value gets 0.0.
    """
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


def assemble_trips(table: PointTable) -> tuple[list[Trip], list[Rejection]]:
    """Group the table's rows by activity into repaired Trips plus a rejection log.

    Per activity (rows sorted by time, stable on ties): coordinates missing at
    a boundary are dropped; in groups that keep >= 2 points, interior missing
    coordinates and speed/accuracy gaps are filled in the table's columns (see
    `_fill`). Groups keeping >= 2 points and a positive time span become
    Trips, ordered by activity id.
    """
    n = len(table)
    if n == 0:
        return [], []
    order = np.lexsort((table.t, table.activity))
    act = table.activity[order]
    t_us = table.t[order]
    starts = np.flatnonzero(np.append(True, act[1:] != act[:-1]))
    ends = np.append(starts[1:], n)
    sizes = ends - starts

    # first and last present coordinate per group; none present: first = end, last = end - 1
    idx = np.arange(n)
    present = ~np.isnan(table.lat[order])
    first = np.minimum(np.minimum.reduceat(np.where(present, idx, n), starts), ends)
    last = np.maximum(np.maximum.reduceat(np.where(present, idx, -1), starts), first - 1)
    kept = last - first + 1

    # repair the kept rows of groups that keep >= 2 points
    ok = kept >= 2
    rows = np.flatnonzero(np.repeat(ok, sizes) & (idx >= np.repeat(first, sizes)) & (idx <= np.repeat(last, sizes)))
    pos = order[rows]
    ts = t_us[rows] / 1e6  # seconds, as datetime.timestamp() gives them
    group_starts = np.cumsum(kept[ok]) - kept[ok]
    for name in ("lat", "lon", "speed", "accuracy"):
        column = getattr(table, name)
        v = column[pos]
        _fill(v, ts, group_starts)
        column[pos] = v

    lat, lon = table.lat[order], table.lon[order]
    angles = _segment_angles(lat, lon)
    ids = table.ids.tolist()
    t_list = t_us.tolist()
    trips: list[Trip] = []
    rejections: list[Rejection] = []
    for code, s, e, f, l in zip(act[starts].tolist(), starts.tolist(), ends.tolist(),
                                first.tolist(), last.tolist()):
        aid = ids[code]
        for i in (*range(s, f), *range(l + 1, e)):
            rejections.append(Rejection(aid, BOUNDARY_MISSING, format_utc(_from_us(t_list[i]))))
        k = l - f + 1
        if k < 2:
            rejections.append(Rejection(aid, TOO_FEW_POINTS, f"{k} points after repair", k))
            continue
        if t_list[l] == t_list[f]:
            rejections.append(Rejection(aid, ZERO_DURATION, format_utc(_from_us(t_list[f])), k))
            continue
        distance = float(2.0 * EARTH_RADIUS_M * angles[f:l].sum())
        duration = (t_list[l] - t_list[f]) / 1e6
        trips.append(Trip(
            trip_id=aid,
            n_points=k,
            start_time=_from_us(t_list[f]),
            end_time=_from_us(t_list[l]),
            start_point=(lat[f].item(), lon[f].item()),
            end_point=(lat[l].item(), lon[l].item()),
            distance=distance,
            duration=duration,
            avg_speed=distance / duration,
        ))
    return trips, rejections


TRIP_HEADER = [
    "trip_id", "start_time", "end_time", "start_lat", "start_lon",
    "end_lat", "end_lon", "distance_m", "duration_s", "avg_speed_mps", "n_points",
]


def write_trips_csv(trips: list[Trip], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(TRIP_HEADER)
        for t in trips:
            w.writerow([
                t.trip_id, format_utc(t.start_time), format_utc(t.end_time),
                repr(t.start_point[0]), repr(t.start_point[1]),
                repr(t.end_point[0]), repr(t.end_point[1]),
                repr(t.distance), repr(t.duration), repr(t.avg_speed), t.n_points,
            ])


def write_rejections_csv(rejections: list[Rejection], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["activity_id", "reason", "detail"])
        for r in rejections:
            w.writerow([r.activity_id, r.reason, r.detail])


_TRIP_COLUMNS = ("trip_id", "n_points", "start_us", "end_us", "start_point", "end_point",
                 "distance", "duration", "avg_speed")


def save_points_npz(path, table: PointTable, trips: list[Trip], source_sha256: str) -> None:
    """Write the point table and the trip table as a plain (pickle-free) npz.

    `table` should be taken after `assemble_trips`, which repairs its
    columns in place. The bytes depend only on the inputs.
    """
    with open(path, "wb") as f:
        np.savez(
            f,
            source_sha256=np.array(source_sha256),
            **{name: getattr(table, name) for name in _TABLE_COLUMNS},
            trip_id=np.array([t.trip_id for t in trips], dtype=str),
            n_points=np.array([t.n_points for t in trips], dtype=np.int64),
            start_us=np.array([_to_us(t.start_time) for t in trips], dtype=np.int64),
            end_us=np.array([_to_us(t.end_time) for t in trips], dtype=np.int64),
            start_point=np.array([t.start_point for t in trips], dtype=np.float64).reshape(-1, 2),
            end_point=np.array([t.end_point for t in trips], dtype=np.float64).reshape(-1, 2),
            distance=np.array([t.distance for t in trips], dtype=np.float64),
            duration=np.array([t.duration for t in trips], dtype=np.float64),
            avg_speed=np.array([t.avg_speed for t in trips], dtype=np.float64),
        )


def load_points_npz(path, source_sha256: str) -> tuple[PointTable, list[Trip]] | None:
    """Point table and trips saved by `save_points_npz` from the points file
    whose sha256 is `source_sha256`; None when the file is missing, unreadable
    or was built from other points."""
    try:
        with np.load(path, allow_pickle=False) as z:
            if str(z["source_sha256"]) != source_sha256:
                return None
            table = PointTable(*(z[name] for name in _TABLE_COLUMNS))
            columns = [z[k].tolist() for k in _TRIP_COLUMNS]
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None
    trips = [
        Trip(tid, n, _from_us(s), _from_us(e), tuple(a), tuple(b), d, du, sp)
        for tid, n, s, e, a, b, d, du, sp in zip(*columns)
    ]
    return table, trips
