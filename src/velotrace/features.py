"""Model-ready dataset construction: fixed-width trip-count slots, dummy
encoding, lag features (count one hour / one week back), the chronological
train/test split, and min-max scaling fitted on training rows only.

Slot starts are int64 microseconds since the epoch: `SlotSeries.start_us`
and the `FeatureMatrix.slot_us` column. `SplitPlan` is the `splitplan.json`
report: its field names are the file's keys, each range `[start, stop]`."""

from __future__ import annotations

import csv
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import MissingInputError, ParameterError, ParseError, SchemaError
from .util import (HOUR_US, MINUTE_US, SLOT_WIDTHS, SPLIT_RATIOS, WEEKDAY_NAMES, local_datetimes, members, parse_utc,
                   pearson, read_json, sorted_unique, stamps_us, utc_strings, write_csv, write_json)

if TYPE_CHECKING:  # annotations only: `train` and `predict` load neither layer
    from .covariates import CalendarEntry, WeatherTable
    from .ingest import TripTable

SEASONS = ("spring", "summer", "autumn", "winter")

# the columns the scaler touches, where the matrix has them
NUMERIC_COLUMNS = ("temperature", "precipitation", "hour_history", "week_history")


@dataclass
class SlotSeries:
    width_minutes: int
    start_us: int  # UTC, aligned to the width
    counts: np.ndarray  # contiguous int64, zero-filled

    def __len__(self) -> int:
        return len(self.counts)


def aggregate_slots(trips: TripTable, width_minutes: int, span: tuple[int, int]) -> tuple[SlotSeries, int]:
    """Count the table's trips into fixed-width slots by `start_us` over the
    instants [start, end).

    The span length must be a whole number of slots. Trips outside the span
    are tallied (second return value), never silently dropped.
    """
    if width_minutes not in SLOT_WIDTHS:
        raise ParameterError(f"width must be one of {SLOT_WIDTHS}, got {width_minutes}")
    start, end = span
    if end <= start:
        raise ParameterError("span end must be after start")
    width_us = width_minutes * MINUTE_US
    if start % width_us:
        raise ParameterError(f"span start {utc_strings([start])[0]} is not aligned to {width_minutes} minutes")
    n_slots, rest = divmod(end - start, width_us)
    if rest:
        raise ParameterError("span length must be a whole number of slots")
    ts = trips.start_us
    inside = (start <= ts) & (ts < end)
    counts = np.bincount((ts[inside] - start) // width_us, minlength=n_slots)
    return SlotSeries(width_minutes, start, counts), int(len(ts) - inside.sum())


def aligned_span(trips: TripTable, width_minutes: int) -> tuple[int, int]:
    """Smallest aligned [start, end) covering every `start_us` of the table."""
    if not trips:
        raise ParameterError("no trips to span")
    width_us = width_minutes * MINUTE_US
    lo = int(trips.start_us.min()) // width_us * width_us
    hi = int(trips.start_us.max()) // width_us * width_us
    return lo, hi + width_us


@dataclass
class FeatureMatrix:
    X: np.ndarray               # (n_rows, n_cols) float64
    y: np.ndarray               # (n_rows,) float64 slot counts
    column_names: list[str]
    slot_us: np.ndarray         # (n_rows,) int64 slot starts, strictly increasing
    width_minutes: int
    next_row: np.ndarray | None = None  # (n_cols,) row of the slot after the last

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.X[:, self.column_names.index(name)]


def build_features(slots: SlotSeries, weather: WeatherTable,
                   calendar: list[CalendarEntry], utc_offset_min: int) -> tuple[FeatureMatrix, np.ndarray]:
    """Assemble the regression matrix from a slot series plus covariates.

    Lags: hour_history is the count of the slot starting 60 minutes earlier,
    week_history the count exactly 7 days back. The first 7 days of slots are
    dropped for lacking history. Weather is taken from the hour containing the
    slot start; a gap there drops the row (the second return value holds the
    starts of the dropped slots). The month columns are the months of the
    kept rows.

    `next_row` is the row of the slot after the last kept one, built with the
    kept rows from the full count series. Its weather comes from the table
    when it covers its hour, else from the last kept row; a next slot in a
    month no kept row is in sets no month column.
    """
    width = slots.width_minutes
    per_hour = 60 // width
    lag_week = 7 * 24 * per_hour
    counts = slots.counts
    starts = slots.start_us + width * MINUTE_US * np.arange(len(counts) + 1, dtype=np.int64)

    slot_hour = starts // HOUR_US * HOUR_US
    found = members(slot_hour, weather.hour_us)
    history = np.arange(lag_week, len(counts))
    kept = history[found[history]]
    dropped = starts[history[~found[history]]]

    # the kept slots and, when there is one, the slot after the last of them
    i = np.append(kept, kept[-1] + 1) if len(kept) else kept
    local = local_datetimes(starts[i], utc_offset_min)
    hour = local.astype("datetime64[h]").astype(np.int64) % 24
    day = local.astype("datetime64[D]").astype(np.int64)
    month = local.astype("datetime64[M]").astype(np.int64)
    months = sorted_unique(month[:len(kept)])

    names = ["temperature", "precipitation"] + [f"hour_of_the_day={h}" for h in range(24)]
    names.extend(f"month={m}" for m in months.astype("datetime64[M]"))
    names.extend(f"season={s}" for s in SEASONS)
    names.extend(f"day_of_week={d}" for d in WEEKDAY_NAMES)
    names.extend(["holiday", "hour_history", "week_history"])

    rows = np.arange(len(i))
    X = np.zeros((len(i), len(names)))
    # each slot's record is the last one at or before its hour: its own hour's
    # for a kept slot, the last kept row's for a next slot whose hour has none
    by_hour = np.argsort(weather.hour_us, kind="stable")
    record = by_hour[np.searchsorted(weather.hour_us[by_hour], slot_hour[i], side="right") - 1]
    X[:, 0] = weather.temp_c[record]
    X[:, 1] = weather.precip_mm[record]
    X[rows, 2 + hour] = 1.0
    at_month = 2 + 24
    has_month = members(month, months)
    X[rows[has_month], at_month + np.searchsorted(months, month[has_month])] = 1.0
    at_season = at_month + len(months)
    X[rows, at_season + (month - 2) % 12 // 3] = 1.0
    X[rows, at_season + len(SEASONS) + (day + 3) % 7] = 1.0
    holidays = np.array([e.date for e in calendar if e.kind == "holiday"], dtype="datetime64[D]").astype(np.int64)
    X[:, -3] = members(day, holidays)
    X[:, -2] = counts[i - per_hour]
    X[:, -1] = counts[i - lag_week]

    matrix = FeatureMatrix(X[:len(kept)], counts[kept].astype(np.float64), names, starts[kept], width,
                           X[-1] if len(kept) else None)
    return matrix, dropped


@dataclass(slots=True)
class FeatureCorrelation:
    column: str
    r: float | None  # None = undefined (zero variance)


def feature_target_correlation(matrix: FeatureMatrix) -> list[FeatureCorrelation]:
    """Per-column Pearson r against the target, sorted by |r| descending: the
    `feature_correlations.json` report.

    Columns of undefined r (None: zero variance) come last; equal keys keep
    column order.
    """
    rows = [FeatureCorrelation(name, pearson(matrix.X[:, j], matrix.y)) for j, name in enumerate(matrix.column_names)]
    return sorted(rows, key=lambda c: (c.r is None, -abs(c.r or 0.0)))


@dataclass
class SplitPlan:
    ratio: str
    train_rows: range
    test_rows: range


def chronological_split(matrix: FeatureMatrix, ratio: str) -> SplitPlan:
    """Last floor(n * test_fraction) rows become the test set, the rows before
    them the training range."""
    if ratio not in SPLIT_RATIOS:
        raise ParameterError(f"ratio must be one of {sorted(SPLIT_RATIOS)}, got {ratio!r}")
    n = matrix.n_rows
    if n < 20:
        raise ParameterError(f"need at least 20 rows to split, got {n}")
    train_n = n - math.floor(n * SPLIT_RATIOS[ratio])
    return SplitPlan(ratio, range(0, train_n), range(train_n, n))


class MinMaxScaler:
    """Min-max scaling of the numeric columns and the target, fitted on
    training rows only. Columns constant on the fit rows map to 0. A scaler
    is made fitted, by `fit` or `from_dict`."""

    def __init__(self, bounds: dict[str, tuple[float, float]]):
        self._bounds = bounds

    @classmethod
    def fit(cls, matrix: FeatureMatrix, rows) -> "MinMaxScaler":
        rows = np.asarray(rows, dtype=np.int64)
        bounds = {}
        for name in NUMERIC_COLUMNS:
            if name not in matrix.column_names:
                continue
            col = matrix.column(name)[rows]
            bounds[name] = (float(col.min()), float(col.max()))
        ty = matrix.y[rows]
        bounds["target"] = (float(ty.min()), float(ty.max()))
        return cls(bounds)

    @staticmethod
    def _scale(v, lo, hi):
        if hi == lo:
            return np.zeros_like(np.asarray(v, dtype=np.float64))
        return (np.asarray(v, dtype=np.float64) - lo) / (hi - lo)

    def transform(self, matrix: FeatureMatrix) -> FeatureMatrix:
        return FeatureMatrix(self.scale_columns(matrix.X, matrix.column_names), self.scale_target(matrix.y),
                             list(matrix.column_names), matrix.slot_us, matrix.width_minutes)

    def scale_columns(self, X: np.ndarray, column_names: list[str]) -> np.ndarray:
        """A copy of the rows X, of these columns, with the numeric columns scaled."""
        X = X.copy()
        for name, (lo, hi) in self._bounds.items():
            if name == "target" or name not in column_names:
                continue
            j = column_names.index(name)
            X[:, j] = self._scale(X[:, j], lo, hi)
        return X

    def scale_target(self, values):
        lo, hi = self._bounds["target"]
        return self._scale(values, lo, hi)

    def inverse_target(self, values):
        lo, hi = self._bounds["target"]
        return np.asarray(values, dtype=np.float64) * (hi - lo) + lo

    def as_dict(self) -> dict:
        return {k: list(v) for k, v in self._bounds.items()}

    @classmethod
    def from_dict(cls, d: dict) -> "MinMaxScaler":
        return cls({k: (float(v[0]), float(v[1])) for k, v in d.items()})


def sidecar_path(features_path) -> Path:
    """The `features.json` that describes a `features.csv`."""
    return Path(features_path).with_suffix(".json")


def write_features_csv(matrix: FeatureMatrix, path, *, utc_offset_min: int) -> None:
    """Write the matrix to `path` and its sidecar: the width, the UTC offset
    of `build_features` and the next-slot row."""
    rows = zip(matrix.X, matrix.y.tolist(), utc_strings(matrix.slot_us))
    # a row at a time, as Python floats, which `csv` writes as their repr
    write_csv(path, matrix.column_names + ["target", "slot_start"], (x.tolist() + [y, t] for x, y, t in rows))
    write_json(sidecar_path(path), {
        "width_minutes": matrix.width_minutes,
        "utc_offset_min": utc_offset_min,
        "next_slot_start": utc_strings([matrix.slot_us[-1] + matrix.width_minutes * MINUTE_US])[0],
        "next_row": matrix.next_row.tolist(),
    })


def read_features_csv(path) -> FeatureMatrix:
    """The matrix of a features file, with the width and next-slot row of its sidecar.

    The body is parsed by one `np.loadtxt` call, NumPy's C tokenizer, into a
    float64 field of the values and a bytes field of the stamps, which
    `util.stamps_us` reads. A file that the fast path cannot vouch for goes
    through the row parser (`csv` and a `float` per cell) instead: one with a
    byte 0x1C-0x1F, which `loadtxt` takes for a space and `float` does not, a
    header that does not end in `target,slot_start`, a row of another field
    count or with a value `loadtxt` rejects, a stamp `stamps_us` does not
    read, or fewer than 2 rows. So X, y and `slot_us` are the row parser's,
    bit for bit, and a malformed file raises its error, with its line, as the
    row parser finds it."""
    meta_path = sidecar_path(path)
    for p in (Path(path), meta_path):
        if not p.exists():
            raise MissingInputError(p)
    meta = read_json(meta_path)
    if not isinstance(meta, dict):
        raise SchemaError(f"{meta_path}: not a JSON object")
    names, X, y, slot_us = _load_columns(path) or _parse_rows(path)
    if len(y) < 2:
        raise ParameterError("features file needs at least 2 rows")
    width = meta.get("width_minutes")
    if width not in SLOT_WIDTHS:
        raise SchemaError(f"{meta_path}: slot width {width!r} not in {SLOT_WIDTHS}")
    next_row = meta.get("next_row")
    if not isinstance(next_row, list) or len(next_row) != len(names):
        raise SchemaError(f"{meta_path}: next_row does not match the {len(names)} columns of {path}")
    # a finite int or float, not a bool; comparing, unlike converting, cannot overflow on a huge int
    bad = [v for v in next_row if type(v) not in (int, float) or not abs(v) <= sys.float_info.max]
    if bad:
        raise SchemaError(f"{meta_path}: next_row entry {bad[0]!r} is not a finite number")
    return FeatureMatrix(X, y, names, slot_us, width, np.asarray(next_row, dtype=np.float64))


def _is_features_header(header: list[str]) -> bool:
    return len(header) >= 3 and header[-1] == "slot_start" and header[-2] == "target"


def _load_columns(path):
    """(names, X, y, slot_us) of a features file by one `np.loadtxt` call, or
    None where the row parser must read it."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        # `loadtxt` takes 0x1C-0x1F for spaces, `float` does not; sought 64 KB at a time: one big string raises the peak
        if any(c in chunk for chunk in iter(lambda: f.read(1 << 16), "") for c in "\x1c\x1d\x1e\x1f"):
            return None
        f.seek(0)
        header = next(csv.reader(f), [])
        if not _is_features_header(header):
            return None
        # one byte past 20, so that a longer stamp cannot pass
        dtype = np.dtype([("values", np.float64, (len(header) - 1,)), ("stamp", "S21")])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # an empty body: the row parser reports it
                body = np.loadtxt(f, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except ValueError:
            return None
    slot_us = stamps_us(body["stamp"][:, None].view(np.uint8))
    if len(body) < 2 or slot_us is None:
        return None
    values = body["values"]
    return header[:-2], np.ascontiguousarray(values[:, :-1]), values[:, -1].copy(), slot_us


def _parse_rows(path):
    """(names, X, y, slot_us) of a features file, row by row; a malformed
    header raises SchemaError and a malformed row ParseError with its line."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, [])
        if not _is_features_header(header):
            raise SchemaError(f"not a features file: {path}")
        X_rows, y_vals, starts = [], [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(reader.line_num, f"{len(row)} fields, expected {len(header)}")
            try:
                X_rows.append([float(v) for v in row[:-2]])
                y_vals.append(float(row[-2]))
                starts.append(parse_utc(row[-1]))
            except ValueError as e:
                raise ParseError(reader.line_num, str(e)) from None
    return header[:-2], np.asarray(X_rows), np.asarray(y_vals), np.asarray(starts, dtype=np.int64)
