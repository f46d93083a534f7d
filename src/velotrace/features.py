"""Model-ready dataset construction: fixed-width trip-count slots, dummy
encoding, lag features (count one hour / one week back), chronological splits
with contiguous 10-fold CV blocks, and min-max scaling fitted on training rows
only."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from .covariates import CalendarEntry, WeatherRecord, pearson
from .errors import MissingInputError, ParameterError, SchemaError, StateError, UndefinedCorrelationError
from .ingest import Trip
from .util import WEEKDAY_NAMES, month_key, parse_utc, format_utc, to_local, truncate_hour, write_json

SLOT_WIDTHS = (30, 60)
SEASONS = ("spring", "summer", "autumn", "winter")
SPLIT_RATIOS = {"90/10": 0.10, "80/20": 0.20, "70/30": 0.30, "60/40": 0.40}
CV_FOLDS = 10

# columns the scaler touches (plus the numeric-hour variant when present)
NUMERIC_COLUMNS = ("temperature", "precipitation", "hour_history", "week_history", "hour_of_the_day")


def season_of_month(month: int) -> str:
    if 3 <= month <= 5:
        return "spring"
    if 6 <= month <= 8:
        return "summer"
    if 9 <= month <= 11:
        return "autumn"
    return "winter"


@dataclass
class SlotSeries:
    width_minutes: int
    start: datetime  # UTC, aligned to the width
    counts: np.ndarray  # contiguous int64, zero-filled

    def slot_start(self, i: int) -> datetime:
        return self.start + timedelta(minutes=self.width_minutes * i)

    def __len__(self) -> int:
        return len(self.counts)


def _check_aligned(ts: datetime, width: int, name: str) -> None:
    if ts.second or ts.microsecond or (ts.minute % width) != 0:
        raise ParameterError(f"{name} {ts.isoformat()} is not aligned to {width} minutes")


def aggregate_slots(trips: list[Trip], width_minutes: int,
                    span: tuple[datetime, datetime]) -> tuple[SlotSeries, int]:
    """Count trips into fixed-width slots by start time over [start, end).

    The span length must be a whole number of slots. Trips outside the span
    are tallied (second return value), never silently dropped.
    """
    if width_minutes not in SLOT_WIDTHS:
        raise ParameterError(f"width must be one of {SLOT_WIDTHS}, got {width_minutes}")
    start, end = span
    if end <= start:
        raise ParameterError("span end must be after start")
    _check_aligned(start, width_minutes, "span start")
    total_min = (end - start).total_seconds() / 60.0
    n_slots = total_min / width_minutes
    if n_slots != int(n_slots):
        raise ParameterError("span length must be a whole number of slots")
    counts = np.zeros(int(n_slots), dtype=np.int64)
    out_of_span = 0
    width_s = width_minutes * 60
    start_s = start.timestamp()
    end_s = end.timestamp()
    for t in trips:
        ts = t.start_time.timestamp()
        if start_s <= ts < end_s:
            counts[int((ts - start_s) // width_s)] += 1
        else:
            out_of_span += 1
    return SlotSeries(width_minutes, start, counts), out_of_span


def aligned_span(trips: list[Trip], width_minutes: int) -> tuple[datetime, datetime]:
    """Smallest aligned [start, end) covering every trip start."""
    if not trips:
        raise ParameterError("no trips to span")
    lo = min(t.start_time for t in trips)
    hi = max(t.start_time for t in trips)
    width = timedelta(minutes=width_minutes)
    floor_lo = lo.replace(minute=(lo.minute // width_minutes) * width_minutes, second=0, microsecond=0)
    floor_hi = hi.replace(minute=(hi.minute // width_minutes) * width_minutes, second=0, microsecond=0)
    return floor_lo, floor_hi + width


@dataclass
class FeatureMatrix:
    X: np.ndarray               # (n_rows, n_cols) float64
    y: np.ndarray               # (n_rows,) float64 slot counts
    column_names: list[str]
    slot_starts: list[datetime]  # strictly increasing
    width_minutes: int
    next_row: np.ndarray | None = None  # (n_cols,) row of the slot after the last

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.X[:, self.column_names.index(name)]


def build_features(slots: SlotSeries, weather: list[WeatherRecord],
                   calendar: list[CalendarEntry], utc_offset_min: int,
                   hour_as_numeric: bool = False,
                   hour_history_sum: bool = False) -> tuple[FeatureMatrix, list[tuple[datetime, str]]]:
    """Assemble the regression matrix from a slot series plus covariates.

    Lags: hour_history is the count of the slot starting 60 minutes earlier
    (or, behind `hour_history_sum`, the summed two preceding 30-minute slots);
    week_history the count exactly 7 days back. The first 7 days of slots are
    dropped for lacking history. Weather is taken from the hour containing the
    slot start; a gap there drops the row (second return value logs it). The
    month columns are the months of the kept rows.

    `next_row` is the row of the slot after the last kept one, built the same
    way from the full count series. Its weather comes from the records when
    they cover its hour, else from the last kept row; a next slot in a month
    no kept row is in sets no month column.
    """
    width = slots.width_minutes
    per_hour = 60 // width
    lag_hour = per_hour
    lag_week = 7 * 24 * per_hour
    counts = slots.counts

    wx = {w.hour: w for w in weather}
    holidays = {e.date for e in calendar if e.kind == "holiday"}

    kept: list[tuple[int, WeatherRecord]] = []
    dropped: list[tuple[datetime, str]] = []
    for i in range(lag_week, len(counts)):
        rec = wx.get(truncate_hour(slots.slot_start(i)))
        if rec is None:
            dropped.append((slots.slot_start(i), "missing-weather"))
        else:
            kept.append((i, rec))
    months = sorted({month_key(to_local(slots.slot_start(i), utc_offset_min).date()) for i, _ in kept})

    names: list[str] = ["temperature", "precipitation"]
    if hour_as_numeric:
        names.append("hour_of_the_day")
    else:
        names.extend(f"hour_of_the_day={h}" for h in range(24))
    names.extend(f"month={m}" for m in months)
    names.extend(f"season={s}" for s in SEASONS)
    names.extend(f"day_of_week={d}" for d in WEEKDAY_NAMES)
    names.extend(["holiday", "hour_history", "week_history"])
    col_index = {name: j for j, name in enumerate(names)}

    def row_at(i: int, temp_c: float, precip_mm: float) -> np.ndarray:
        """Feature row of slot i; it reads the counts of earlier slots only."""
        local = to_local(slots.slot_start(i), utc_offset_min)
        row = np.zeros(len(names))
        row[0] = temp_c
        row[1] = precip_mm
        if hour_as_numeric:
            row[col_index["hour_of_the_day"]] = local.hour
        else:
            row[col_index[f"hour_of_the_day={local.hour}"]] = 1.0
        month = col_index.get(f"month={month_key(local.date())}")
        if month is not None:  # None only for a next slot past the last kept row's month
            row[month] = 1.0
        row[col_index[f"season={season_of_month(local.month)}"]] = 1.0
        row[col_index[f"day_of_week={WEEKDAY_NAMES[local.weekday()]}"]] = 1.0
        row[col_index["holiday"]] = 1.0 if local.date() in holidays else 0.0
        if hour_history_sum and width == 30:
            row[col_index["hour_history"]] = float(counts[i - 1] + counts[i - 2])
        else:
            row[col_index["hour_history"]] = float(counts[i - lag_hour])
        row[col_index["week_history"]] = float(counts[i - lag_week])
        return row

    rows = [row_at(i, rec.temp_c, rec.precip_mm) for i, rec in kept]
    starts = [slots.slot_start(i) for i, _ in kept]

    next_row = None
    if rows:
        last = kept[-1][0]
        rec = wx.get(truncate_hour(slots.slot_start(last + 1)))
        temp_c, precip_mm = (rec.temp_c, rec.precip_mm) if rec is not None else rows[-1][:2]
        next_row = row_at(last + 1, temp_c, precip_mm)

    X = np.vstack(rows) if rows else np.zeros((0, len(names)))
    y = np.array([counts[i] for i, _ in kept], dtype=np.float64)
    return FeatureMatrix(X, y, names, starts, width, next_row), dropped


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
                         list(matrix.slot_starts), matrix.width_minutes,
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
        return FeatureMatrix(X, y, list(matrix.column_names), list(matrix.slot_starts),
                             matrix.width_minutes)

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
        for i in range(matrix.n_rows):
            row = [repr(float(v)) for v in matrix.X[i]]
            row.append(repr(float(matrix.y[i])))
            row.append(format_utc(matrix.slot_starts[i]))
            w.writerow(row)
    write_json(sidecar_path(path), {
        "width_minutes": matrix.width_minutes,
        "utc_offset_min": utc_offset_min,
        "hour_as_numeric": hour_as_numeric,
        "hour_history_sum": hour_history_sum,
        "next_slot_start": format_utc(matrix.slot_starts[-1] + timedelta(minutes=matrix.width_minutes)),
        "next_row": matrix.next_row.tolist(),
    })


def read_features_csv(path) -> FeatureMatrix:
    """The matrix of a features file, with the width and next-slot row of its sidecar."""
    meta_path = sidecar_path(path)
    for p in (Path(path), meta_path):
        if not p.exists():
            raise MissingInputError(p)
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if len(header) < 3 or header[-1] != "slot_start" or header[-2] != "target":
            raise ParameterError(f"not a features file: {path}")
        names = header[:-2]
        X_rows, y_vals, starts = [], [], []
        for row in reader:
            if not row:
                continue
            X_rows.append([float(v) for v in row[:-2]])
            y_vals.append(float(row[-2]))
            starts.append(parse_utc(row[-1]))
    if len(X_rows) < 2:
        raise ParameterError("features file needs at least 2 rows")
    width = meta.get("width_minutes")
    if width not in SLOT_WIDTHS:
        raise SchemaError(f"{meta_path}: slot width {width!r} not in {SLOT_WIDTHS}")
    next_row = meta.get("next_row")
    if not isinstance(next_row, list) or len(next_row) != len(names):
        raise SchemaError(f"{meta_path}: next_row does not match the {len(names)} columns of {path}")
    return FeatureMatrix(np.asarray(X_rows), np.asarray(y_vals), names, starts, width,
                         np.asarray(next_row, dtype=np.float64))


def split_plan_as_dict(plan: SplitPlan) -> dict:
    return {
        "ratio": plan.ratio,
        "train_rows": [plan.train_rows.start, plan.train_rows.stop],
        "test_rows": [plan.test_rows.start, plan.test_rows.stop],
        "cv_folds": [[f.start, f.stop] for f in plan.cv_folds],
    }
