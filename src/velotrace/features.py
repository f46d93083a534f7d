"""Model-ready dataset construction: fixed-width trip-count slots, dummy
encoding, lag features (count one hour / one week back), chronological splits
with contiguous 10-fold CV blocks, and min-max scaling fitted on training rows
only.

Slot starts are int64 microseconds since the epoch: `SlotSeries.start_us`
and the `FeatureMatrix.slot_us` column."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .covariates import CalendarEntry, WeatherTable, pearson
from .errors import MissingInputError, ParameterError, ParseError, SchemaError, StateError, UndefinedCorrelationError
from .ingest import TripTable
from .util import HOUR_US, MINUTE_US, WEEKDAY_NAMES, local_datetimes, parse_utc, read_json, utc_strings, write_json

SLOT_WIDTHS = (30, 60)
SEASONS = ("spring", "summer", "autumn", "winter")
SPLIT_RATIOS = {"90/10": 0.10, "80/20": 0.20, "70/30": 0.30, "60/40": 0.40}
CV_FOLDS = 10

# the columns the scaler touches, where the matrix has them
NUMERIC_COLUMNS = ("temperature", "precipitation", "hour_history", "week_history", "hour_of_the_day")


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
    width_s = width_minutes * 60
    start_s = start / 1e6
    ts = trips.start_us / 1e6  # seconds, as the slot bounds are compared
    inside = (start_s <= ts) & (ts < end / 1e6)
    slot = ((ts[inside] - start_s) // width_s).astype(np.int64)
    counts = np.bincount(slot, minlength=n_slots)
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
                   calendar: list[CalendarEntry], utc_offset_min: int,
                   hour_as_numeric: bool = False,
                   hour_history_sum: bool = False) -> tuple[FeatureMatrix, np.ndarray]:
    """Assemble the regression matrix from a slot series plus covariates.

    Lags: hour_history is the count of the slot starting 60 minutes earlier
    (or, behind `hour_history_sum`, the summed two preceding 30-minute slots);
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
    found = np.isin(slot_hour, weather.hour_us)
    history = np.arange(lag_week, len(counts))
    kept = history[found[history]]
    dropped = starts[history[~found[history]]]

    # the kept slots and, when there is one, the slot after the last of them
    i = np.append(kept, kept[-1] + 1) if len(kept) else kept
    local = local_datetimes(starts[i], utc_offset_min)
    hour = local.astype("datetime64[h]").astype(np.int64) % 24
    day = local.astype("datetime64[D]").astype(np.int64)
    month = local.astype("datetime64[M]").astype(np.int64)
    months = np.unique(month[:len(kept)])

    names: list[str] = ["temperature", "precipitation"]
    if hour_as_numeric:
        names.append("hour_of_the_day")
    else:
        names.extend(f"hour_of_the_day={h}" for h in range(24))
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
    if hour_as_numeric:
        X[:, 2] = hour
        at_month = 3
    else:
        X[rows, 2 + hour] = 1.0
        at_month = 2 + 24
    has_month = np.isin(month, months)
    X[rows[has_month], at_month + np.searchsorted(months, month[has_month])] = 1.0
    at_season = at_month + len(months)
    X[rows, at_season + (month - 2) % 12 // 3] = 1.0
    X[rows, at_season + len(SEASONS) + (day + 3) % 7] = 1.0
    holidays = np.array([e.date for e in calendar if e.kind == "holiday"], dtype="datetime64[D]").astype(np.int64)
    X[:, -3] = np.isin(day, holidays)
    if hour_history_sum and width == 30:
        X[:, -2] = counts[i - 1] + counts[i - 2]
    else:
        X[:, -2] = counts[i - per_hour]
    X[:, -1] = counts[i - lag_week]

    matrix = FeatureMatrix(X[:len(kept)], counts[kept].astype(np.float64), names, starts[kept], width,
                           X[-1] if len(kept) else None)
    return matrix, dropped


def group_columns(matrix: FeatureMatrix, group: str) -> list[int]:
    """Column indices belonging to a feature group (exact name or one-hot prefix)."""
    prefix = group + "="
    idx = [j for j, n in enumerate(matrix.column_names) if n == group or n.startswith(prefix)]
    if not idx:
        raise ParameterError(f"unknown feature group: {group!r}")
    return idx


def drop_group(matrix: FeatureMatrix, group: str) -> FeatureMatrix:
    """Copy of the matrix without the named feature group's columns."""
    drop = set(group_columns(matrix, group))
    keep = [j for j in range(len(matrix.column_names)) if j not in drop]
    return FeatureMatrix(matrix.X[:, keep], matrix.y.copy(),
                         [matrix.column_names[j] for j in keep],
                         matrix.slot_us, matrix.width_minutes,
                         None if matrix.next_row is None else matrix.next_row[keep])


def feature_target_correlation(matrix: FeatureMatrix) -> list[tuple[str, float | None]]:
    """Per-column Pearson r against the target, sorted by |r| descending.

    Zero-variance columns come last with r = None.
    """
    defined: list[tuple[str, float]] = []
    undefined: list[tuple[str, None]] = []
    for j, name in enumerate(matrix.column_names):
        try:
            defined.append((name, pearson(matrix.X[:, j], matrix.y)))
        except UndefinedCorrelationError:
            undefined.append((name, None))
    defined.sort(key=lambda t: -abs(t[1]))
    return defined + undefined


@dataclass
class SplitPlan:
    ratio: str
    train_rows: range
    test_rows: range
    cv_folds: list[range]


def chronological_split(matrix: FeatureMatrix, ratio: str) -> SplitPlan:
    """Last floor(n * test_fraction) rows become the test set; the training
    prefix is cut into 10 contiguous, near-equal CV blocks."""
    if ratio not in SPLIT_RATIOS:
        raise ParameterError(f"ratio must be one of {sorted(SPLIT_RATIOS)}, got {ratio!r}")
    n = matrix.n_rows
    if n < 20:
        raise ParameterError(f"need at least 20 rows to split, got {n}")
    test_n = math.floor(n * SPLIT_RATIOS[ratio])
    train_n = n - test_n
    if train_n < CV_FOLDS:
        raise ParameterError(f"too few training rows ({train_n}) for {CV_FOLDS} folds")
    base, rem = divmod(train_n, CV_FOLDS)
    folds = []
    at = 0
    for i in range(CV_FOLDS):
        size = base + (1 if i < rem else 0)
        folds.append(range(at, at + size))
        at += size
    return SplitPlan(ratio, range(0, train_n), range(train_n, n), folds)


class MinMaxScaler:
    """Min-max scaling of the numeric columns and the target, fitted on
    training rows only. Columns constant on the fit rows map to 0."""

    def __init__(self):
        self._bounds: dict[str, tuple[float, float]] | None = None

    def fit(self, matrix: FeatureMatrix, rows) -> "MinMaxScaler":
        rows = np.asarray(rows, dtype=np.int64)
        bounds = {}
        for name in NUMERIC_COLUMNS:
            if name not in matrix.column_names:
                continue
            col = matrix.column(name)[rows]
            bounds[name] = (float(col.min()), float(col.max()))
        ty = matrix.y[rows]
        bounds["target"] = (float(ty.min()), float(ty.max()))
        self._bounds = bounds
        return self

    def _check(self):
        if self._bounds is None:
            raise StateError("scaler not fitted")

    @staticmethod
    def _scale(v, lo, hi):
        if hi == lo:
            return np.zeros_like(np.asarray(v, dtype=np.float64))
        return (np.asarray(v, dtype=np.float64) - lo) / (hi - lo)

    def transform(self, matrix: FeatureMatrix) -> FeatureMatrix:
        self._check()
        X = matrix.X.copy()
        for name, (lo, hi) in self._bounds.items():
            if name == "target" or name not in matrix.column_names:
                continue
            j = matrix.column_names.index(name)
            X[:, j] = self._scale(X[:, j], lo, hi)
        y = self.scale_target(matrix.y)
        return FeatureMatrix(X, y, list(matrix.column_names), matrix.slot_us, matrix.width_minutes)

    def scale_target(self, values):
        self._check()
        lo, hi = self._bounds["target"]
        return self._scale(values, lo, hi)

    def inverse_target(self, values):
        self._check()
        lo, hi = self._bounds["target"]
        return np.asarray(values, dtype=np.float64) * (hi - lo) + lo

    def as_dict(self) -> dict:
        self._check()
        return {k: list(v) for k, v in self._bounds.items()}

    @classmethod
    def from_dict(cls, d: dict) -> "MinMaxScaler":
        s = cls()
        s._bounds = {k: (float(v[0]), float(v[1])) for k, v in d.items()}
        return s


def sidecar_path(features_path) -> Path:
    """The `features.json` that describes a `features.csv`."""
    return Path(features_path).with_suffix(".json")


def write_features_csv(matrix: FeatureMatrix, path, *, utc_offset_min: int,
                       hour_as_numeric: bool, hour_history_sum: bool) -> None:
    """Write the matrix to `path` and its sidecar: the width, the options of
    `build_features` and the next-slot row."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(matrix.column_names + ["target", "slot_start"])
        for x, y, stamp in zip(matrix.X, matrix.y, utc_strings(matrix.slot_us)):
            w.writerow([*(repr(float(v)) for v in x), repr(float(y)), stamp])
    write_json(sidecar_path(path), {
        "width_minutes": matrix.width_minutes,
        "utc_offset_min": utc_offset_min,
        "hour_as_numeric": hour_as_numeric,
        "hour_history_sum": hour_history_sum,
        "next_slot_start": utc_strings([matrix.slot_us[-1] + matrix.width_minutes * MINUTE_US])[0],
        "next_row": matrix.next_row.tolist(),
    })


def read_features_csv(path) -> FeatureMatrix:
    """The matrix of a features file, with the width and next-slot row of its sidecar."""
    meta_path = sidecar_path(path)
    for p in (Path(path), meta_path):
        if not p.exists():
            raise MissingInputError(p)
    meta = read_json(meta_path)
    if not isinstance(meta, dict):
        raise SchemaError(f"{meta_path}: not a JSON object")
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, [])
        if len(header) < 3 or header[-1] != "slot_start" or header[-2] != "target":
            raise SchemaError(f"not a features file: {path}")
        names = header[:-2]
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
    if len(X_rows) < 2:
        raise ParameterError("features file needs at least 2 rows")
    width = meta.get("width_minutes")
    if width not in SLOT_WIDTHS:
        raise SchemaError(f"{meta_path}: slot width {width!r} not in {SLOT_WIDTHS}")
    next_row = meta.get("next_row")
    if not isinstance(next_row, list) or len(next_row) != len(names):
        raise SchemaError(f"{meta_path}: next_row does not match the {len(names)} columns of {path}")
    return FeatureMatrix(np.asarray(X_rows), np.asarray(y_vals), names, np.asarray(starts, dtype=np.int64), width,
                         np.asarray(next_row, dtype=np.float64))


def split_plan_as_dict(plan: SplitPlan) -> dict:
    return {
        "ratio": plan.ratio,
        "train_rows": [plan.train_rows.start, plan.train_rows.stop],
        "test_rows": [plan.test_rows.start, plan.test_rows.stop],
        "cv_folds": [[f.start, f.stop] for f in plan.cv_folds],
    }
