"""GPS point parsing and trip reconstruction.

Points arrive as CSV rows keyed by an opaque activity id. Assembly groups
rows per activity, sorts by timestamp, repairs missing fields by linear
interpolation in time, and computes per-trip distance / duration / speed.
Distances are great-circle on a sphere of radius 6,371,000 m.

`save_points_npz` stores the repaired point columns and the trip table of one
points file in `points.npz`, keyed by that file's sha256; `load_points_npz`
gives them back, so later analyses need not parse and assemble again.
"""

from __future__ import annotations

import csv
import io
import math
import zipfile
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, ParseError, RangeError, SchemaError
from .util import format_utc, parse_utc

EARTH_RADIUS_M = 6_371_000.0

POINT_HEADER = ["activity_id", "timestamp", "lat", "lon", "accuracy", "speed"]

# rejection reason codes
BOUNDARY_MISSING = "boundary-missing"
TOO_FEW_POINTS = "too-few-points"
ZERO_DURATION = "zero-duration"


@dataclass(slots=True)
class GpsPoint:
    activity_id: str
    timestamp: datetime
    lat: float | None = None
    lon: float | None = None
    accuracy: float | None = None
    speed: float | None = None


@dataclass(slots=True)
class Trip:
    trip_id: str
    points: list[GpsPoint] | None  # None for trips loaded from points.npz
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


def _haversine_segments(lat: np.ndarray, lon: np.ndarray) -> float:
    """Sum of consecutive-point great-circle distances for one trip."""
    la = np.radians(lat)
    lo = np.radians(lon)
    dlat = la[1:] - la[:-1]
    dlon = lo[1:] - lo[:-1]
    s = np.sin(dlat / 2.0) ** 2 + np.cos(la[:-1]) * np.cos(la[1:]) * np.sin(dlon / 2.0) ** 2
    return float(2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(s))).sum())


def _opt_float(text: str, line: int, name: str, lo: float, hi: float) -> float | None:
    if text == "":
        return None
    try:
        v = float(text)
    except ValueError:
        raise ParseError(line, f"bad {name}: {text!r}") from None
    if not (lo <= v <= hi):
        raise RangeError(line, f"{name} {v} outside [{lo}, {hi}]")
    return v


def parse_points(source) -> list[GpsPoint]:
    """Parse a point CSV (header `activity_id,timestamp,lat,lon,accuracy,speed`).

    `source` may be a path or an open text stream. Empty strings in the four
    optional columns become absent values; row order is preserved. Raises
    ParseError/RangeError/SchemaError naming the offending 1-based line.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as f:
            return parse_points(f)
    if isinstance(source, (bytes, bytearray)):
        return parse_points(io.StringIO(source.decode("utf-8")))

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty file: missing header row") from None
    if header != POINT_HEADER:
        raise SchemaError(f"bad header {header!r}, expected {POINT_HEADER!r}")

    points: list[GpsPoint] = []
    inf = float("inf")
    for line, row in enumerate(reader, start=2):
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
        lat = _opt_float(lat_s, line, "lat", -90.0, 90.0)
        lon = _opt_float(lon_s, line, "lon", -180.0, 180.0)
        if (lat is None) != (lon is None):
            raise SchemaError(f"line {line}: half-present coordinate (lat and lon must appear together)")
        accuracy = _opt_float(acc_s, line, "accuracy", 0.0, inf)
        speed = _opt_float(spd_s, line, "speed", 0.0, inf)
        points.append(GpsPoint(activity_id, ts, lat, lon, accuracy, speed))
    return points


def _interp(t: float, t0: float, v0: float, t1: float, v1: float) -> float:
    if t1 == t0:
        return v0
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def _repair_scalar_field(pts: list[GpsPoint], times: list[float], attr: str) -> None:
    """Fill missing speed/accuracy: interpolate interior gaps, extend at edges, 0 if all absent."""
    present = [i for i, p in enumerate(pts) if getattr(p, attr) is not None]
    if len(present) == len(pts):
        return
    if not present:
        for p in pts:
            setattr(p, attr, 0.0)
        return
    first, last = present[0], present[-1]
    for i in range(first):
        setattr(pts[i], attr, getattr(pts[first], attr))
    for i in range(last + 1, len(pts)):
        setattr(pts[i], attr, getattr(pts[last], attr))
    nxt = 0
    for i in range(first + 1, last):
        if getattr(pts[i], attr) is not None:
            continue
        while present[nxt] < i:
            nxt += 1
        a, b = present[nxt - 1], present[nxt]
        v = _interp(times[i], times[a], getattr(pts[a], attr), times[b], getattr(pts[b], attr))
        setattr(pts[i], attr, v)


def trip_metrics(points: list[GpsPoint]) -> tuple[float, float, float]:
    """(distance_m, duration_s, avg_speed_mps) for a repaired, time-ordered point list."""
    if len(points) < 2:
        raise ParameterError("trip_metrics needs at least 2 points")
    duration = (points[-1].timestamp - points[0].timestamp).total_seconds()
    if duration <= 0:
        raise ParameterError("trip has no positive time span")
    lat = np.fromiter((p.lat for p in points), dtype=np.float64, count=len(points))
    lon = np.fromiter((p.lon for p in points), dtype=np.float64, count=len(points))
    distance = _haversine_segments(lat, lon)
    return distance, duration, distance / duration


def assemble_trips(points: list[GpsPoint]) -> tuple[list[Trip], list[Rejection]]:
    """Group points by activity id into repaired Trips plus a rejection log.

    Per group (sorted by timestamp, stable on ties): interior missing
    coordinates are linearly interpolated in time; coordinates missing at a
    boundary are dropped; speed/accuracy gaps are filled from neighbors.
    Groups surviving with >= 2 coordinate-complete points and a positive time
    span become Trips, ordered by activity id.
    """
    groups: dict[str, list[GpsPoint]] = {}
    for p in points:
        groups.setdefault(p.activity_id, []).append(p)

    trips: list[Trip] = []
    rejections: list[Rejection] = []
    for aid in sorted(groups):
        pts = groups[aid]
        pts.sort(key=lambda p: p.timestamp)
        times = [p.timestamp.timestamp() for p in pts]

        coord_present = [i for i, p in enumerate(pts) if p.lat is not None and p.lon is not None]
        if coord_present:
            first, last = coord_present[0], coord_present[-1]
        else:
            first, last = len(pts), -1
        for i in range(len(pts)):
            if i < first or i > last:
                rejections.append(Rejection(aid, BOUNDARY_MISSING, format_utc(pts[i].timestamp)))
        kept = pts[first:last + 1]
        ktimes = times[first:last + 1]

        if len(kept) < 2:
            rejections.append(Rejection(aid, TOO_FEW_POINTS, f"{len(kept)} points after repair", len(kept)))
            continue

        # interior coordinate gaps: linear in time, per axis, between nearest present values
        nxt = 0
        present = [i - first for i in coord_present]
        for i in range(len(kept)):
            if kept[i].lat is not None:
                continue
            while present[nxt] < i:
                nxt += 1
            a, b = present[nxt - 1], present[nxt]
            kept[i].lat = _interp(ktimes[i], ktimes[a], kept[a].lat, ktimes[b], kept[b].lat)
            kept[i].lon = _interp(ktimes[i], ktimes[a], kept[a].lon, ktimes[b], kept[b].lon)

        _repair_scalar_field(kept, ktimes, "speed")
        _repair_scalar_field(kept, ktimes, "accuracy")

        duration = ktimes[-1] - ktimes[0]
        if duration <= 0:
            rejections.append(Rejection(aid, ZERO_DURATION, format_utc(kept[0].timestamp), len(kept)))
            continue

        distance, duration, avg_speed = trip_metrics(kept)
        trips.append(Trip(
            trip_id=aid,
            points=kept,
            start_time=kept[0].timestamp,
            end_time=kept[-1].timestamp,
            start_point=(kept[0].lat, kept[0].lon),
            end_point=(kept[-1].lat, kept[-1].lon),
            distance=distance,
            duration=duration,
            avg_speed=avg_speed,
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
                repr(t.distance), repr(t.duration), repr(t.avg_speed), len(t.points),
            ])


def write_rejections_csv(rejections: list[Rejection], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["activity_id", "reason", "detail"])
        for r in rejections:
            w.writerow([r.activity_id, r.reason, r.detail])


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def _to_us(dt: datetime) -> int:
    return (dt - _EPOCH) // _MICROSECOND


def _from_us(us: int) -> datetime:
    return _EPOCH + timedelta(microseconds=us)


class PointColumns(NamedTuple):
    """Point columns in file order: `t` in int64 microseconds since the
    epoch, `lat`/`lon` float64 with NaN where the coordinate is absent."""
    t: np.ndarray
    lat: np.ndarray
    lon: np.ndarray


def point_columns(points: list[GpsPoint]) -> PointColumns:
    n = len(points)
    return PointColumns(
        np.fromiter((_to_us(p.timestamp) for p in points), dtype=np.int64, count=n),
        np.fromiter((math.nan if p.lat is None else p.lat for p in points), dtype=np.float64, count=n),
        np.fromiter((math.nan if p.lon is None else p.lon for p in points), dtype=np.float64, count=n),
    )


_TRIP_COLUMNS = ("trip_id", "start_us", "end_us", "start_point", "end_point",
                 "distance", "duration", "avg_speed")


def save_points_npz(path, columns: PointColumns, trips: list[Trip], source_sha256: str) -> None:
    """Write the point columns and the trip table as a plain (pickle-free) npz.

    `columns` should be taken after `assemble_trips`, which repairs the
    points in place. The bytes depend only on the inputs.
    """
    with open(path, "wb") as f:
        np.savez(
            f,
            source_sha256=np.array(source_sha256),
            t=columns.t, lat=columns.lat, lon=columns.lon,
            trip_id=np.array([t.trip_id for t in trips], dtype=str),
            start_us=np.array([_to_us(t.start_time) for t in trips], dtype=np.int64),
            end_us=np.array([_to_us(t.end_time) for t in trips], dtype=np.int64),
            start_point=np.array([t.start_point for t in trips], dtype=np.float64).reshape(-1, 2),
            end_point=np.array([t.end_point for t in trips], dtype=np.float64).reshape(-1, 2),
            distance=np.array([t.distance for t in trips], dtype=np.float64),
            duration=np.array([t.duration for t in trips], dtype=np.float64),
            avg_speed=np.array([t.avg_speed for t in trips], dtype=np.float64),
        )


def load_points_npz(path, source_sha256: str) -> tuple[PointColumns, list[Trip]] | None:
    """Point columns and trips saved by `save_points_npz` from the points file
    whose sha256 is `source_sha256`; None when the file is missing, unreadable
    or was built from other points. Loaded trips have `points=None`."""
    try:
        with np.load(path, allow_pickle=False) as z:
            if str(z["source_sha256"]) != source_sha256:
                return None
            columns = PointColumns(z["t"], z["lat"], z["lon"])
            table = [z[k].tolist() for k in _TRIP_COLUMNS]
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None
    trips = [
        Trip(tid, None, _from_us(s), _from_us(e), tuple(a), tuple(b), d, du, sp)
        for tid, s, e, a, b, d, du, sp in zip(*table)
    ]
    return columns, trips
