import io
from datetime import date, datetime, timedelta, timezone

import pytest

from velotrace.ingest import POINT_HEADER, PointTable, Trip, assemble_trips, parse_points
from velotrace.util import format_utc

UTC = timezone.utc
T0 = datetime(2017, 5, 1, 8, 0, 0, tzinfo=UTC)  # a Monday


def pt(aid, seconds, lat=None, lon=None, accuracy=5.0, speed=3.0, base=T0) -> str:
    """One points CSV data row (whole seconds); None leaves a field empty."""
    fields = ["" if v is None else repr(float(v)) for v in (lat, lon, accuracy, speed)]
    return ",".join([aid, format_utc(base + timedelta(seconds=seconds)), *fields])


def point_table(rows) -> PointTable:
    """The PointTable that `parse_points` gives for these `pt` rows."""
    return parse_points(io.StringIO("".join(f"{r}\n" for r in [",".join(POINT_HEADER), *rows])))


def make_trip(trip_id="T", start=T0, duration_s=600.0,
              start_point=(44.49, 11.34), end_point=(44.50, 11.35)):
    """Minimal valid Trip for tests that only care about times/endpoints."""
    table = point_table([
        pt(trip_id, 0, *start_point, base=start),
        pt(trip_id, duration_s, *end_point, base=start),
    ])
    trips, rej = assemble_trips(table)
    assert len(trips) == 1 and not rej
    return trips[0]


def csv_stream(text: str) -> io.StringIO:
    return io.StringIO(text)


@pytest.fixture
def monday() -> date:
    return date(2017, 5, 1)
