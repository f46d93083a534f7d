"""GPS point parsing and trip reconstruction.

Points arrive as CSV rows keyed by an opaque activity id. `parse_points`
reads them into a `PointTable`: one NumPy column per kept field, rows in
file order, activity ids coded as indices into the sorted distinct ids; a
point's accuracy and speed are checked, not kept. `assemble_trips` sorts the
rows by (activity, time), repairs missing coordinates by linear interpolation
in time, and builds a `TripTable`: one NumPy column per field, one row per
trip, ordered by trip id, with distance / duration / speed per trip.
Distances are great-circle on a sphere of radius 6,371,000 m.

`parse_points` has two paths to one table. The block path reads the file as
bytes, a block of about 128 KB cut at a line end at a time, finds each
block's line ends and commas with `np.flatnonzero`, and checks and converts
every field with array operations into columns sized once, from a first
pass that counts the line ends; activity ids are coded by binary search in
the sorted ids met so far, with no Python object per id. It takes a source
only in this form: the exact header; every line ending in CR LF, or every
line in LF; no blank line, `"`, NUL or non-ASCII byte; five commas a line;
no field over 128 bytes; a non-empty id; a stamp `YYYY-MM-DDThh:mm:ssZ`
that names a real instant, whose microseconds come from days-from-civil
arithmetic; `lat` and `lon` both empty or both `-?digits[.digits]` within
range, converted by NumPy's correctly rounded bytes-to-float cast, which
gives `float`'s bits; accuracy and speed empty or `digits[.digits]`. Any
other source is parsed again, whole, by the row loop (`csv_records`,
`parse_utc`, `_opt_float`), the one place that raises a parse error, so each
error keeps its class, message and line.

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

import io
import math
import os
import zipfile
from array import array
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParseError, RangeError, SchemaError
from .util import csv_records, parse_utc, utc_strings, write_csv

EARTH_RADIUS_M = 6_371_000.0

POINT_HEADER = ["activity_id", "timestamp", "lat", "lon", "accuracy", "speed"]

# rejection reason codes
BOUNDARY_MISSING = "boundary-missing"
TOO_FEW_POINTS = "too-few-points"
ZERO_DURATION = "zero-duration"

# points per batch of trips whose half-angles are computed together, rows per
# batch of codes ranked, and the most new ids that `_IdCodes` holds apart
_BLOCK = 1 << 12
_TRIP_BLOCK = 1 << 10  # trips per block of rows that `write_trips_csv` renders together
_PARSE_BLOCK = 1 << 17  # bytes of points.csv that the block path checks and converts together
_FIELD_MAX = 128  # bytes of the longest field that the block path takes
_HEADER = ",".join(POINT_HEADER).encode("ascii")

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

    `source` may be a path or an open, seekable text stream. The four last
    fields may be empty; accuracy and speed are checked, then dropped. Rows
    keep file order. Raises ParseError/RangeError/SchemaError naming the
    offending 1-based line.

    The block path parses the source first (see the module docstring); when
    any block fails one of its checks, the row loop parses the whole source
    again, so the errors are the row loop's alone.
    """
    path = isinstance(source, (str, os.PathLike))
    start = None if path else source.tell()
    try:
        if path:
            with open(source, "rb") as f:
                return _parse_blocks(f)
        text = source.read()
        _check(text.isascii())
        return _parse_blocks(io.BytesIO(text.encode("ascii")))
    except _Fallback:
        if not path:
            source.seek(start)
    return _parse_rows(source)


def _parse_rows(source) -> PointTable:
    """`parse_points` by the row loop: `csv_records`, `parse_utc` and
    `_opt_float` on each row."""
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
    return _point_table(np.array(ids, dtype=str), rank, np.asarray(activity), np.asarray(t), np.asarray(lat),
                        np.asarray(lon))


def _point_table(ids: np.ndarray, rank: np.ndarray, activity: np.ndarray, t, lat, lon) -> PointTable:
    """The PointTable of columns whose int32 `activity` holds a code per row;
    each code is replaced in place, `_BLOCK` rows at a time, by `rank[code]`,
    the index of the row's id in the sorted distinct `ids`."""
    for a in range(0, len(activity), _BLOCK):
        activity[a:a + _BLOCK] = rank[activity[a:a + _BLOCK]]
    return PointTable(ids, activity, t, lat, lon)


class _Fallback(Exception):
    """A block of points.csv fails a check of the block path."""


def _check(ok) -> None:
    if not np.all(ok):
        raise _Fallback


def _fields(windows: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The fields at `start`, `length` bytes long, of the buffer whose
    `windows` row i views its bytes from i on, as the rows of a uint8 matrix
    as wide as the longest, NUL after each field's end."""
    width = max(int(length.max(initial=0)), 1)
    m = windows[start, :width]
    m *= np.arange(width, dtype=length.dtype) < length[:, None]
    return m


def _decimal(m: np.ndarray, length: np.ndarray, signed: bool) -> bool:
    """Whether every row of the field matrix `m`, `length` > 0 bytes long,
    reads digits[.digits], after a `-` if `signed`."""
    digit = m - np.uint8(48) <= 9
    dot = m == 46
    other = digit | dot
    other ^= True
    other &= m != 0  # a NUL is padding: the block path takes no NUL byte
    sign = signed & (m[:, 0] == 45)
    other[:, 0] &= ~sign
    rows = np.arange(len(m))
    dots = np.nonzero(dot)[0]  # the row of each dot
    return (not other.any() and bool(np.all(np.diff(dots) > 0)) and digit[rows, np.minimum(sign, length - 1)].all()
            and digit[rows, length - 1].all())


# the shape of a timestamp the block path takes, YYYY-MM-DDThh:mm:ssZ: each
# byte lies up to `_STAMP_SPAN` above the byte of `_STAMP`. These tables are
# built without a ufunc, so that importing the module runs no NumPy loop.
_STAMP = np.frombuffer(b"0000-00-00T00:00:00Z", dtype=np.uint8)
_STAMP_SPAN = np.frombuffer(bytes(9 if c == ord("0") else 0 for c in _STAMP.tobytes()), dtype=np.uint8)
# days per month of a common year, 0 for the 87 two-digit numbers that name no month
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31] + [0] * 87, dtype=np.int32)


def _stamps(m: np.ndarray) -> np.ndarray:
    """The instants of the rows of `m`, a uint8 matrix of YYYY-MM-DDThh:mm:ssZ
    stamps, in microseconds; each must name a real instant of years 1-9999.
    The day comes from days-from-civil arithmetic on the proleptic Gregorian
    calendar, as `datetime` counts it."""
    d = m - _STAMP  # each digit's value, 0 at the other bytes
    _check(d <= _STAMP_SPAN)

    def number(at: int, n: int) -> np.ndarray:
        v = d[:, at].astype(np.int32)
        for j in range(at + 1, at + n):
            v = v * 10 + d[:, j]
        return v

    year, month, day = number(0, 4), number(5, 2), number(8, 2)
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    _check((year >= 1) & (day >= 1) & (day <= _MONTH_DAYS[month] + (leap & (month == 2))))
    y = year - (month <= 2)  # years that start in March
    days = y * 365 + y // 4 - y // 100 + y // 400 + (153 * ((month + 9) % 12) + 2) // 5 + day - 719_469
    hour, minute, second = number(11, 2), number(14, 2), number(17, 2)
    _check((hour <= 23) & (minute <= 59) & (second <= 59))
    return (days.astype(np.int64) * 86_400 + (hour * 60 + minute) * 60 + second) * 1_000_000


def _scan(f) -> tuple[int, int, bytes]:
    """The LF and CR bytes of the binary stream `f`, counted, and its last
    byte (LF when empty); raises `_Fallback` when it holds a NUL (a NumPy
    bytes field drops a trailing one), a `"` or a non-ASCII byte."""
    lines = crs = 0
    tail = b"\n"
    for chunk in iter(lambda: f.read(_PARSE_BLOCK), b""):
        _check(chunk.isascii() and b"\0" not in chunk and b'"' not in chunk)
        lines, crs, tail = lines + chunk.count(b"\n"), crs + chunk.count(b"\r"), chunk[-1:]
    return lines, crs, tail


def _parse_blocks(f) -> PointTable:
    """`parse_points` by the block path on the binary stream `f`; raises
    `_Fallback` when a block fails a check."""
    lines, crs, tail = _scan(f)
    f.seek(0)
    header = f.readline(len(_HEADER) + 2)
    eol = header[len(_HEADER):]
    _check(header.startswith(_HEADER) and eol in (b"\n", b"\r\n", b""))
    crlf = len(eol) == 2
    _check(crs == (lines if crlf else 0))  # with each LF after a CR, every CR is in a CRLF
    n = max(lines - 1 + (tail != b"\n"), 0)  # a last line may lack its line end
    activity, t = np.empty(n, dtype=np.int32), np.empty(n, dtype=np.int64)
    lat, lon = np.full(n, np.nan), np.full(n, np.nan)
    codes = _IdCodes()

    # a block is cut at its last line end; the line after it moves to the front
    buf = np.zeros(_PARSE_BLOCK + _FIELD_MAX + 2, dtype=np.uint8)
    view = memoryview(buf)
    windows = sliding_window_view(buf, _FIELD_MAX)  # row i: the bytes from buf[i] on
    held = row = 0
    while True:
        got = f.readinto(view[held:_PARSE_BLOCK])
        end = held + got
        if not got:
            if not held:
                break
            buf[end:end + len(eol)] = np.frombuffer(eol, dtype=np.uint8)  # the last line's end
            end += len(eol)
        nl = np.flatnonzero(buf[:end] == 10)
        if not nl.size:
            _check(end < _PARSE_BLOCK)  # a line longer than a block
            held = end
            continue
        k = len(nl)
        _parse_block(buf, windows, nl, crlf, codes, activity[row:row + k], t[row:row + k], lat[row:row + k],
                     lon[row:row + k])
        row += k
        cut = nl[-1] + 1
        held = end - cut
        buf[:held] = buf[cut:end]
    return _point_table(*codes.ranks(), activity, t, lat, lon)


def _no_ids() -> tuple[np.ndarray, np.ndarray]:
    return np.array([], dtype="S1"), np.array([], dtype=np.int32)


def _merged(part: tuple[np.ndarray, np.ndarray], ids: np.ndarray, codes: np.ndarray):
    """`part`, sorted ids and their codes, with the sorted `ids`, none of them
    in `part`, and their `codes` added."""
    at = np.searchsorted(part[0], ids)
    return np.insert(part[0].astype(np.result_type(part[0], ids)), at, ids), np.insert(part[1], at, codes)


class _IdCodes:
    """Codes for the activity ids of a points file met a block at a time: a
    new id gets the next code. The ids coded so far are kept sorted, with
    their codes, in two parts: new ids go to `recent`, which is merged into
    `main` once it holds `_BLOCK` ids, so that coding a block copies `recent`
    and not every id. No Python object is made per id."""

    def __init__(self):
        self.main, self.recent, self.count = _no_ids(), _no_ids(), 0

    def __call__(self, distinct: np.ndarray) -> np.ndarray:
        """The codes of the sorted distinct ids `distinct` (bytes)."""
        code = np.full(len(distinct), -1, dtype=np.int32)
        for ids, codes in (self.main, self.recent):
            if len(ids):
                at = np.minimum(np.searchsorted(ids, distinct), len(ids) - 1)
                hit = ids[at] == distinct
                code[hit] = codes[at[hit]]
        fresh = code < 0
        new = np.count_nonzero(fresh)
        code[fresh] = np.arange(self.count, self.count + new)
        self.count += new
        self.recent = _merged(self.recent, distinct[fresh], code[fresh])
        if len(self.recent[0]) >= _BLOCK:
            self.main, self.recent = _merged(self.main, *self.recent), _no_ids()
        return code

    def ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct ids, sorted, as str, and per code the index of its id
        among them."""
        ids, codes = _merged(self.main, *self.recent)
        rank = np.empty(len(ids), dtype=np.int32)
        rank[codes] = np.arange(len(ids), dtype=np.int32)
        return ids.astype(str), rank


def _bounds(buf: np.ndarray, nl: np.ndarray, crlf: bool) -> np.ndarray:
    """Per line that ends at `nl`, the start of each of its six fields and
    one past its end: its start, one past each of its five commas, and one
    past its line end. Raises `_Fallback` unless there are five commas a line."""
    commas = np.flatnonzero(buf[:nl[-1]] == 44)
    _check(commas.size == 5 * nl.size)
    start = np.empty((len(nl), 7), dtype=np.int32)
    start[0, 0] = 0
    start[1:, 0] = nl[:-1] + 1
    np.add(commas.reshape(-1, 5), 1, out=start[:, 1:6], casting="unsafe")
    start[:, 6] = nl + (1 - crlf)
    return start


def _parse_block(buf, windows, nl, crlf, codes: _IdCodes, activity, t, lat, lon) -> None:
    """Check and convert the lines of `buf` that end at `nl` into the column
    slices given, activity ids by their `codes`; `windows` views `buf` as
    `_fields` reads it."""
    if crlf:
        _check(buf[nl - 1] == 13)
    start = _bounds(buf, nl, crlf)
    length = np.diff(start, axis=1)
    length -= 1
    _check((length >= 0) & (length <= _FIELD_MAX))  # so each line holds its five commas
    _check((length[:, 0] > 0) & (length[:, 1] == len(_STAMP)))

    ids = _fields(windows, start[:, 0], length[:, 0])
    distinct, inverse = np.unique(ids.view(f"S{ids.shape[1]}")[:, 0], return_inverse=True)
    activity[:] = codes(distinct)[inverse]
    t[:] = _stamps(windows[start[:, 1], :len(_STAMP)])

    present = length[:, 2] > 0
    _check(present == (length[:, 3] > 0))
    for j, column, bound in ((2, lat, 90.0), (3, lon, 180.0)):
        m = _fields(windows, start[present, j], length[present, j])
        _check(_decimal(m, length[present, j], signed=True))
        v = m.view(f"S{m.shape[1]}")[:, 0].astype(np.float64)  # rounded as `float` rounds
        _check(np.abs(v) <= bound)
        column[present] = v
    for j in (4, 5):  # accuracy and speed, checked and not kept
        given = length[:, j] > 0
        _check(_decimal(_fields(windows, start[given, j], length[given, j]), length[given, j], signed=False))


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
