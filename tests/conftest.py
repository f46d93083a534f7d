import io
from dataclasses import fields
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest

from velotrace.covariates import WeatherTable
from velotrace.ingest import (
    EARTH_RADIUS_M, POINT_HEADER, PointTable, TripTable, assemble_trips, half_angles, parse_points,
)

UTC = timezone.utc
EPOCH = datetime(1970, 1, 1, tzinfo=UTC)
T0 = datetime(2017, 5, 1, 8, 0, 0, tzinfo=UTC)  # a Monday


def us(dt: datetime) -> int:
    """An aware datetime as the program holds an instant: microseconds since the epoch."""
    return (dt - EPOCH) // timedelta(microseconds=1)


def from_us(value) -> datetime:
    """The aware UTC datetime of an instant in microseconds since the epoch."""
    return EPOCH + timedelta(microseconds=int(value))


def utc_text(dt: datetime) -> str:
    """An aware datetime as the program renders a UTC instant."""
    return dt.astimezone(UTC).strftime("%Y-%m-%dT%H:%M:%SZ")


def weather_table(hour_us, temp_c, precip_mm, wind_mps) -> WeatherTable:
    """A WeatherTable of these hours (microseconds), in the given order; a
    scalar value applies to every hour."""
    hours = np.asarray(hour_us, dtype=np.int64)
    return WeatherTable(hours, *(np.broadcast_to(np.asarray(v, dtype=np.float64), hours.shape).copy()
                                 for v in (temp_c, precip_mm, wind_mps)))


def great_circle_m(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance in meters between two (lat, lon) pairs, as the
    program measures it: `2 * EARTH_RADIUS_M * half_angles`."""
    return float(2.0 * EARTH_RADIUS_M * half_angles(a[0], a[1], b[0], b[1]))


def pt(aid, seconds, lat=None, lon=None, accuracy=5.0, speed=3.0, base=T0) -> str:
    """One points CSV data row (whole seconds); None leaves a field empty."""
    fields = ["" if v is None else repr(float(v)) for v in (lat, lon, accuracy, speed)]
    return ",".join([aid, utc_text(base + timedelta(seconds=seconds)), *fields])


def point_table(rows) -> PointTable:
    """The PointTable that `parse_points` gives for these `pt` rows."""
    return parse_points(io.StringIO("".join(f"{r}\n" for r in [",".join(POINT_HEADER), *rows])))


ENDPOINTS = ((44.49, 11.34), (44.50, 11.35))


def make_trips(starts=None, endpoints=None) -> TripTable:
    """A TripTable of two-point trips, one per start time and/or (start_point,
    end_point) pair, each 600 s long. Start times default to T0 and endpoints
    to ENDPOINTS; ids T000000, T000001, ... keep the given order."""
    n = len(starts if starts is not None else endpoints)
    starts = starts if starts is not None else [T0] * n
    endpoints = endpoints if endpoints is not None else [ENDPOINTS] * n
    rows = []
    for i, (start, (a, b)) in enumerate(zip(starts, endpoints, strict=True)):
        rows += [pt(f"T{i:06d}", 0, *a, base=start), pt(f"T{i:06d}", 600, *b, base=start)]
    trips, rej = assemble_trips(point_table(rows))
    assert len(trips) == n and not rej
    return trips


def same_trips(a: TripTable, b: TripTable) -> bool:
    """Whether two trip tables hold the same columns, dtypes included."""
    return all(getattr(a, f.name).dtype == getattr(b, f.name).dtype
               and np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(TripTable))


def csv_stream(text: str) -> io.StringIO:
    return io.StringIO(text)


@pytest.fixture
def monday() -> date:
    return date(2017, 5, 1)
