"""Small shared helpers: timestamps, weekday names, hashing, CSV input and
JSON input/output.

An instant is int64 microseconds since the epoch everywhere, alone or as a
column: `parse_utc` reads one, `utc_strings` renders a column of them, and
`local_datetimes` gives their local calendar (day, month, hour) at a fixed
UTC offset. `MINUTE_US` and `HOUR_US` turn durations into that unit."""

from __future__ import annotations

import csv
import hashlib
import json
import os
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .errors import ParseError

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)

MINUTE_US = 60_000_000
HOUR_US = 60 * MINUTE_US

WEEKDAY_NAMES = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")


def parse_utc(text: str) -> int:
    """The instant of an ISO-8601 UTC timestamp of the form YYYY-MM-DDThh:mm:ssZ."""
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        raise ValueError(f"timestamp lacks UTC marker: {text!r}")
    return (dt - _EPOCH) // _MICROSECOND


def utc_strings(us) -> list[str]:
    """Instants rendered as YYYY-MM-DDThh:mm:ssZ, whole seconds."""
    return np.datetime_as_string(np.asarray(us, dtype=np.int64).astype("datetime64[us]"),
                                 unit="s", timezone="UTC").tolist()


def local_datetimes(us, utc_offset_min: int) -> np.ndarray:
    """Instants as naive local `datetime64[us]` at a fixed UTC offset; cast
    the result to `datetime64[D]`, `[M]` or `[h]` for local days, months or
    hours (an int64 cast to those units would be read as days or months)."""
    return (np.asarray(us, dtype=np.int64) + utc_offset_min * MINUTE_US).astype("datetime64[us]")


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
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def read_json(path: Path):
    """The JSON document in a file; invalid JSON raises ParseError with its line."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ParseError(e.lineno, f"invalid JSON in {path}: {e.msg} (column {e.colno})") from None


def write_json(path: Path, obj) -> None:
    """Deterministic JSON output: sorted keys, stable float repr, trailing newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")
