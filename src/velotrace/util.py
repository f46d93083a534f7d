"""Small shared helpers: timestamps, weekday names, the model and event kind
names, slot widths and split ratios, Pearson correlation (`pearson`, None
where r is undefined), sorted distinct values and membership (`sorted_unique`,
`members`), hashing, CSV input and output, JSON input/output and the config
reader.

Every input CSV with a fixed header (weather, pollution, calendar, hubs) is
read by `csv_records`: it checks the header and each row's field count,
skips blank rows, and numbers each row by the file line it ends on, so a
quoted field that spans lines does not shift later line numbers. Points are
read a block of bytes at a time by `ingest.parse_points`, which hands any
file its checks do not take to its row loop over `csv_records`.
Every CSV table the program emits is written by `write_csv`: UTF-8, the
`csv` module's default dialect (rows end in CR LF, a field is quoted only
when it holds a comma, a double quote or a line break), a header row, then
the rows, taken from an iterable so a caller can render them a block at a
time. The one exception is `synth`'s points writer (see `synth._lines`).
Every JSON file the program emits is written by `write_json`, and `main`'s
summary line is encoded the same way: sorted keys, with `json_default`
rendering a report dataclass as the object of its fields, so a report's
field names are its JSON keys and no converter restates them.
Every config value is read by `json_value` as its annotated type, a
dataclass by `from_json`: errors name the value's path, such as
`synth.rain_events[0].start_hour`; ranges are checked in `__post_init__`.

An instant is int64 microseconds since the epoch everywhere, alone or as a
column: `parse_utc` reads one, `utc_strings` renders a column of them, and
`local_datetimes` gives their local calendar (day, month, hour) at a fixed
UTC offset. `MINUTE_US` and `HOUR_US` turn durations into that unit."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from contextlib import nullcontext
from dataclasses import MISSING, fields, is_dataclass
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import ParameterError, ParseError, SchemaError

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)

MINUTE_US = 60_000_000
HOUR_US = 60 * MINUTE_US

WEEKDAY_NAMES = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")

# the forecasting model kinds, in report order; `models.evaluate.MODELS` gives each its class
MODEL_KINDS = ("linear", "forest", "boost", "lstm")

# the calendar kinds of an event that is not a holiday
EVENT_KINDS = ("strike", "protest", "event")

# the slot widths in minutes that features are built at
SLOT_WIDTHS = (30, 60)

# the chronological train/test splits by name, each with the share of rows held out for test
SPLIT_RATIOS = {"90/10": 0.10, "80/20": 0.20, "70/30": 0.30, "60/40": 0.40}


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


def sorted_unique(values) -> np.ndarray:
    """The distinct values of an array without NaN, ascending, as `np.unique`
    gives them. `np.unique`'s plain form, and `np.union1d` and `np.isin`
    with it, imports `numpy.ma`, which costs every command that loads it
    about 10 ms of start-up."""
    v = np.sort(np.ravel(values))
    first = np.ones(v.size, dtype=bool)
    first[1:] = v[1:] != v[:-1]
    return v[first]


def members(values, of) -> np.ndarray:
    """Whether each of `values` is among the values of the array `of`, as
    `np.isin` says: by a binary search in `sorted_unique(of)`."""
    of = sorted_unique(of)
    if not of.size:
        return np.zeros(np.shape(values), dtype=bool)
    return of[np.minimum(np.searchsorted(of, values), of.size - 1)] == values


def csv_records(source, header: list[str], what: str):
    """Yield `(line, row)` for each non-blank row of a CSV file whose first row
    is `header`; `source` is a path or an open text stream, `what` names the
    file in errors. `line` is the 1-based file line the row ends on. A missing
    or other header raises SchemaError, a row of another field count
    ParseError."""
    opened = isinstance(source, (str, os.PathLike))
    with open(source, "r", encoding="utf-8", newline="") if opened else nullcontext(source) as f:
        reader = csv.reader(f)
        found = next(reader, None)
        if found is None:
            raise SchemaError(f"empty {what} file: missing header row")
        if found != header:
            raise SchemaError(f"bad {what} header {found!r}, expected {header!r}")
        for row in reader:
            if row:
                if len(row) != len(header):
                    raise ParseError(reader.line_num, f"expected {len(header)} fields, got {len(row)}")
                yield reader.line_num, row


def write_csv(path, header: list[str], rows) -> None:
    """Write `header`, then each row of the iterable `rows`; a non-string
    field is written as its `str`, which is `repr` for a Python float."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


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


def json_default(obj):
    """The JSON value of what `json` cannot encode itself: a dataclass
    instance is the object of its fields, a `date` its ISO text and a step-1
    `range` `[start, stop]`; anything else raises TypeError."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, date):
        return obj.isoformat()
    if isinstance(obj, range) and obj.step == 1:
        return [obj.start, obj.stop]
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path: Path, obj) -> None:
    """Deterministic JSON output: sorted keys, stable float repr, trailing
    newline; values `json` lacks go through `json_default`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True, indent=2, default=json_default)
        f.write("\n")


# each plain type a config value is read as: the JSON types it may have, and how errors name
# one such value and a list of them; a bool is never an int, and an int is also a float
JSON_TYPES = {bool: ((bool,), "true or false", "true or false values"), int: ((int,), "an integer", "integers"),
              float: ((int, float), "a number", "numbers"), str: ((str,), "a string", "strings"),
              dict: ((dict,), "an object", "objects"), date: ((str,), "a date YYYY-MM-DD", "dates YYYY-MM-DD"),
              type(None): ((type(None),), "null", "nulls")}


def json_value(name: str, value, want):
    """The JSON value at path `name` read as the type hint `want`: a plain
    type of `JSON_TYPES` as given (a float finite, a date from ISO text), a
    list as a `tuple[X, ...]` or `tuple[X, Y]` item by item, an object as a
    dataclass, a union as its first member that takes it. Else ParameterError
    `<path> must be <phrase>, got <value>` names the item `name[i]` of a list,
    unless the list is of one plain type."""
    args = get_args(want)
    if is_dataclass(want):
        return from_json(want, value, name)
    if get_origin(want) is tuple:
        open_ = args[1:] == (...,)  # `tuple[X, ...]`, of any length
        if type(value) is list and (open_ or len(value) == len(args)):
            try:
                return tuple(json_value(f"{name}[{i}]", v, args[0] if open_ else args[i]) for i, v in enumerate(value))
            except ParameterError:
                if not (open_ and args[0] in JSON_TYPES):
                    raise
    elif args:
        for member in args:
            try:
                return json_value(name, value, member)
            except ParameterError:
                pass
    elif type(value) in JSON_TYPES[want][0] and (type(value) is not float or math.isfinite(value)):
        try:
            return date.fromisoformat(value) if want is date else value
        except ValueError:
            pass
    raise ParameterError(f"{name} must be {_phrase(want)}, got {value!r}")


def _phrase(want) -> str:
    args = get_args(want)
    if is_dataclass(want):
        return "an object"
    if get_origin(want) is tuple:
        if args[1:] != (...,):
            return f"a list of {len(args)} items"
        return f"a list of {JSON_TYPES[args[0]][2]}" if args[0] in JSON_TYPES else "a list"
    return " or ".join(map(_phrase, args)) if args else JSON_TYPES[want][1]


def from_json(cls, obj, name: str):
    """The dataclass `cls` of the JSON object at path `name`: each key names a
    field, each field without a default is given, and each value is read as
    its field's type hint by `json_value`."""
    json_value(name, obj, dict)
    hints = get_type_hints(cls)
    unknown = sorted(set(obj) - {f.name for f in fields(cls) if f.init})
    if unknown:
        raise ParameterError(f"unknown {name} keys {unknown}")
    for f in fields(cls):
        if f.init and f.name not in obj and f.default is MISSING and f.default_factory is MISSING:
            raise ParameterError(f"{name} lacks the key {f.name!r}")
    return cls(**{key: json_value(f"{name}.{key}", value, hints[key]) for key, value in obj.items()})


def pearson(x, y) -> float | None:
    """Product-moment correlation; None where it is undefined, when a series
    has zero variance (never a silent 0). Fewer than 3 samples or series of
    unequal length raise ParameterError."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y):
        raise ParameterError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 3:
        raise ParameterError("pearson needs at least 3 samples")
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(xc @ xc)
    syy = float(yc @ yc)
    if sxx == 0 or syy == 0:
        return None
    # separate square roots avoid under/overflow of the product
    return float(xc @ yc) / (math.sqrt(sxx) * math.sqrt(syy))
