"""Small shared helpers: timestamps, local-time conversion, weekday names,
hashing, CSV input and JSON/CSV output."""

from __future__ import annotations

import csv
import hashlib
import json
import os
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

UTC = timezone.utc

WEEKDAY_NAMES = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")


def parse_utc(text: str) -> datetime:
    """Parse an ISO-8601 UTC instant of the form YYYY-MM-DDThh:mm:ssZ."""
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        raise ValueError(f"timestamp lacks UTC marker: {text!r}")
    return dt.astimezone(UTC)


def format_utc(dt: datetime) -> str:
    """Render a UTC instant as YYYY-MM-DDThh:mm:ssZ."""
    return dt.astimezone(UTC).strftime("%Y-%m-%dT%H:%M:%SZ")


def to_local(dt: datetime, utc_offset_min: int) -> datetime:
    """Shift a UTC instant into the configured fixed-offset local time."""
    return dt.astimezone(timezone(timedelta(minutes=utc_offset_min)))


def local_date(dt: datetime, utc_offset_min: int) -> date:
    return to_local(dt, utc_offset_min).date()


def truncate_hour(dt: datetime) -> datetime:
    return dt.replace(minute=0, second=0, microsecond=0)


def month_key(d: date) -> str:
    return f"{d.year:04d}-{d.month:02d}"


def csv_rows(source):
    """Yield the `csv.reader` rows of `source`, a path or an open text stream."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8", newline="") as f:
            yield from csv.reader(f)
    else:
        yield from csv.reader(source)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_json(path: Path, obj) -> None:
    """Deterministic JSON output: sorted keys, stable float repr, trailing newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")
