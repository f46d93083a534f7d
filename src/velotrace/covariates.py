"""Weather / pollution / calendar ingestion and their alignment with trip
counts: Pearson correlations, week-vs-week contrasts, and the holiday-impact
rule (baseline = mean of same-weekday counts one week before and after).

Weather and pollution are columns, one row per hour in file order: a
`WeatherTable` and a `PollutionTable`, whose `hour_us` is the UTC hour in
int64 microseconds since the epoch."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .errors import (
    ParameterError,
    ParseError,
    RangeError,
    SchemaError,
    UndefinedCorrelationError,
)
from .ingest import TripTable
from .util import HOUR_US, WEEKDAY_NAMES, csv_rows, local_datetimes, parse_utc, utc_strings

WEATHER_HEADER = ["timestamp", "temp_c", "precip_mm", "wind_mps"]
POLLUTION_HEADER = ["timestamp", "pm", "o3", "no2", "so2"]
CALENDAR_HEADER = ["date", "kind", "label"]
CALENDAR_KINDS = {"holiday", "strike", "protest", "event"}
EVENT_KINDS = {"strike", "protest", "event"}

# a day missing more hours than this is marked incomplete
MAX_MISSING_WEATHER_HOURS = 4


@dataclass(frozen=True)
class WeatherTable:
    """Hourly weather, one row per record in file order."""
    hour_us: np.ndarray    # int64 UTC hour starts
    temp_c: np.ndarray     # float64
    precip_mm: np.ndarray  # float64
    wind_mps: np.ndarray   # float64


@dataclass(frozen=True)
class PollutionTable:
    """Hourly pollutant levels, one row per record in file order; NaN where
    a level is absent."""
    hour_us: np.ndarray  # int64 UTC hour starts
    pm: np.ndarray
    o3: np.ndarray
    no2: np.ndarray
    so2: np.ndarray


@dataclass(slots=True, frozen=True)
class CalendarEntry:
    date: date
    kind: str
    label: str


def _hour(text: str, line: int) -> int:
    """The UTC hour that holds a timestamp field."""
    try:
        us = parse_utc(text)
    except ValueError:
        raise ParseError(line, f"bad timestamp: {text!r}") from None
    return us - us % HOUR_US


def parse_weather(source) -> WeatherTable:
    rows = csv_rows(source)
    header = next(rows, None)
    if header != WEATHER_HEADER:
        raise SchemaError(f"bad weather header {header!r}, expected {WEATHER_HEADER!r}")
    hours, values = array("q"), array("d")
    seen: set[int] = set()
    for line, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise ParseError(line, f"expected 4 fields, got {len(row)}")
        hour = _hour(row[0], line)
        try:
            temp, precip, wind = float(row[1]), float(row[2]), float(row[3])
        except ValueError:
            raise ParseError(line, f"bad numeric field in {row!r}") from None
        if not all(map(math.isfinite, (temp, precip, wind))):
            raise RangeError(line, f"non-finite value in {row!r}")
        if precip < 0:
            raise RangeError(line, f"negative precipitation {precip}")
        if wind < 0:
            raise RangeError(line, f"negative wind speed {wind}")
        if hour in seen:
            raise SchemaError(f"line {line}: duplicate weather hour {utc_strings([hour])[0]}")
        seen.add(hour)
        hours.append(hour)
        values.extend((temp, precip, wind))
    return WeatherTable(np.asarray(hours, dtype=np.int64), *np.asarray(values).reshape(-1, 3).T.copy())


def parse_pollution(source) -> PollutionTable:
    rows = csv_rows(source)
    header = next(rows, None)
    if header != POLLUTION_HEADER:
        raise SchemaError(f"bad pollution header {header!r}, expected {POLLUTION_HEADER!r}")
    hours, levels = array("q"), array("d")
    seen: set[int] = set()
    for line, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != 5:
            raise ParseError(line, f"expected 5 fields, got {len(row)}")
        hour = _hour(row[0], line)
        if hour in seen:
            raise SchemaError(f"line {line}: duplicate pollution hour {utc_strings([hour])[0]}")
        seen.add(hour)
        hours.append(hour)
        for name, text in zip(POLLUTION_HEADER[1:], row[1:]):
            if text == "":
                levels.append(math.nan)
                continue
            try:
                v = float(text)
            except ValueError:
                raise ParseError(line, f"bad {name}: {text!r}") from None
            if not math.isfinite(v):
                raise RangeError(line, f"non-finite {name} {v}")
            if v < 0:
                raise RangeError(line, f"negative {name} {v}")
            levels.append(v)
    return PollutionTable(np.asarray(hours, dtype=np.int64), *np.asarray(levels).reshape(-1, 4).T.copy())


def parse_calendar(source) -> list[CalendarEntry]:
    rows = csv_rows(source)
    header = next(rows, None)
    if header != CALENDAR_HEADER:
        raise SchemaError(f"bad calendar header {header!r}, expected {CALENDAR_HEADER!r}")
    out: list[CalendarEntry] = []
    seen: set[tuple] = set()
    for line, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ParseError(line, f"expected 3 fields, got {len(row)}")
        try:
            d = date.fromisoformat(row[0])
        except ValueError:
            raise ParseError(line, f"bad date: {row[0]!r}") from None
        kind = row[1]
        if kind not in CALENDAR_KINDS:
            raise SchemaError(f"line {line}: unknown calendar kind {kind!r}")
        key = (d, kind, row[2])
        if key in seen:
            raise SchemaError(f"line {line}: duplicate calendar entry {key!r}")
        seen.add(key)
        out.append(CalendarEntry(d, kind, row[2]))
    return out


def pearson(x, y) -> float:
    """Product-moment correlation; zero variance raises, it never silently yields 0."""
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
        raise UndefinedCorrelationError("zero variance in a series")
    # separate square roots avoid under/overflow of the product
    return float(xc @ yc) / (math.sqrt(sxx) * math.sqrt(syy))


@dataclass(slots=True)
class DailyRow:
    date: date
    trip_count: int
    mean_temp: float | None
    total_precip: float | None
    mean_wind: float | None
    complete: bool


def _local_days(us: np.ndarray, utc_offset_min: int) -> np.ndarray:
    return local_datetimes(us, utc_offset_min).astype("datetime64[D]")


def daily_join(trips: TripTable, weather: WeatherTable,
               utc_offset_min: int) -> list[DailyRow]:
    """Per-local-date counts of the table's trips, by the local date of
    `start_us`, joined with aggregated weather.

    Zero-trip dates inside the trip observation span count as 0 (a value, not
    a gap). A row is complete when the date lies in the trip span and at most
    4 weather hours are missing; incomplete rows are excluded from correlation.
    A day's weather sums add its records in file order.
    """
    trip_days, n = np.unique(_local_days(trips.start_us, utc_offset_min), return_counts=True)
    span = np.arange(trip_days[0], trip_days[-1] + 1) if len(trip_days) else trip_days
    weather_days = _local_days(weather.hour_us, utc_offset_min)
    days = np.union1d(span, weather_days)
    counts = np.zeros(len(days), dtype=np.int64)
    counts[np.searchsorted(days, trip_days)] = n
    at = np.searchsorted(days, weather_days)
    hours = np.bincount(at, minlength=len(days))
    temp, precip, wind = (np.bincount(at, weights=c, minlength=len(days))
                          for c in (weather.temp_c, weather.precip_mm, weather.wind_mps))
    complete = np.isin(days, span) & (hours >= 24 - MAX_MISSING_WEATHER_HOURS)
    columns = (days, counts, hours, temp, precip, wind, complete)
    return [DailyRow(d, c, t / k, p, w / k, ok) if k else DailyRow(d, c, None, None, None, ok)
            for d, c, k, t, p, w, ok in zip(*(col.tolist() for col in columns))]


@dataclass(slots=True)
class CorrelationReport:
    variable: str
    granularity: str  # "daily" or "hourly"
    r: float | None   # None = undefined (zero variance)
    n: int


def _safe_pearson(x, y) -> float | None:
    try:
        return pearson(x, y)
    except UndefinedCorrelationError:
        return None


def daily_correlations(rows: list[DailyRow]) -> list[CorrelationReport]:
    """Pearson of daily trip counts against temp / precip / wind over complete rows."""
    usable = [r for r in rows if r.complete]
    out = []
    for var, getter in (("temp_c", lambda r: r.mean_temp),
                        ("precip_mm", lambda r: r.total_precip),
                        ("wind_mps", lambda r: r.mean_wind)):
        pairs = [(getter(r), r.trip_count) for r in usable if getter(r) is not None]
        if len(pairs) < 3:
            continue
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        out.append(CorrelationReport(var, "daily", _safe_pearson(xs, ys), len(pairs)))
    return out


def hourly_correlations(trips: TripTable, weather: WeatherTable) -> list[CorrelationReport]:
    """Pearson of hourly trip counts against weather over the UTC hours from
    the first trip's to the last's; hours missing weather are excluded."""
    index, n = np.unique(trips.start_us // HOUR_US, return_counts=True)
    if not len(index):
        return []
    hour = weather.hour_us // HOUR_US
    rows = np.argsort(hour, kind="stable")
    rows = rows[(index[0] <= hour[rows]) & (hour[rows] <= index[-1])]
    if len(rows) < 3:
        return []
    at = np.searchsorted(index, hour[rows])
    ys = np.where(index[at] == hour[rows], n[at], 0)
    return [CorrelationReport(var, "hourly", _safe_pearson(getattr(weather, var)[rows], ys), len(rows))
            for var in ("temp_c", "precip_mm", "wind_mps")]


def pollution_daily_correlations(rows: list[DailyRow], pollution: PollutionTable,
                                 utc_offset_min: int) -> list[CorrelationReport]:
    """Daily-mean pollutant levels vs daily trip counts; the result is
    data-dependent, only the computation is contractual."""
    days, at = np.unique(_local_days(pollution.hour_us, utc_offset_min), return_inverse=True)
    usable = {r.date: r.trip_count for r in rows if r.complete}
    keep = np.array([d in usable for d in days.tolist()], dtype=bool)
    ys = np.array([usable.get(d, 0) for d in days.tolist()], dtype=np.float64)
    out = []
    for var in ("pm", "o3", "no2", "so2"):
        level = getattr(pollution, var)
        present = ~np.isnan(level)
        k = np.bincount(at[present], minlength=len(days))
        total = np.bincount(at[present], weights=level[present], minlength=len(days))
        sel = keep & (k > 0)
        if sel.sum() < 3:
            continue
        out.append(CorrelationReport(var, "daily", _safe_pearson(total[sel] / k[sel], ys[sel]), int(sel.sum())))
    return out


@dataclass(slots=True)
class WeekdayContrast:
    weekday: str
    count_a: int
    count_b: int
    ratio: float | None  # a/b; None when count_b is 0


@dataclass(slots=True)
class WeekContrast:
    week_a_start: date
    week_b_start: date
    rows: list[WeekdayContrast]
    precip_overlay_a: list[tuple[str, float]]  # (UTC hour ISO, mm) over week a


def week_contrast(rows: list[DailyRow], week_a_start: date, week_b_start: date,
                  weather: WeatherTable | None = None,
                  utc_offset_min: int = 0) -> WeekContrast:
    """Compare two Monday-anchored weeks day by day (ratio = week a / week b).

    When a weather table is supplied the report carries week a's hourly
    precipitation overlay for plotting, in time order.
    """
    for name, start in (("week_a_start", week_a_start), ("week_b_start", week_b_start)):
        if start.weekday() != 0:
            raise ParameterError(f"{name} {start} is not a Monday")
    table = {r.date: r for r in rows}
    days_a = [week_a_start + timedelta(days=i) for i in range(7)]
    days_b = [week_b_start + timedelta(days=i) for i in range(7)]
    missing = [str(d) for d in days_a + days_b if d not in table]
    if missing:
        raise ParameterError(f"weeks not fully covered; missing dates: {', '.join(missing)}")

    contrast = []
    for i in range(7):
        ca = table[days_a[i]].trip_count
        cb = table[days_b[i]].trip_count
        contrast.append(WeekdayContrast(WEEKDAY_NAMES[i], ca, cb, None if cb == 0 else ca / cb))

    overlay: list[tuple[str, float]] = []
    if weather is not None:
        order = np.argsort(weather.hour_us, kind="stable")
        days = _local_days(weather.hour_us[order], utc_offset_min)
        order = order[np.isin(days, np.array(days_a, dtype="datetime64[D]"))]
        overlay = list(zip(utc_strings(weather.hour_us[order]), weather.precip_mm[order].tolist()))
    return WeekContrast(week_a_start, week_b_start, contrast, overlay)


@dataclass(slots=True)
class ImpactRow:
    date: date
    kind: str
    label: str
    count: int
    baseline: float
    drop_fraction: float  # 1 - count/baseline; negative = increase


@dataclass(slots=True)
class SkippedEntry:
    date: date
    kind: str
    label: str
    reason: str


def _impact(rows: list[DailyRow], entries: list[CalendarEntry]) -> tuple[list[ImpactRow], list[SkippedEntry]]:
    table = {r.date: r.trip_count for r in rows}
    impacts, skipped = [], []
    for e in sorted(entries, key=lambda e: (e.date, e.kind, e.label)):
        before, after = e.date - timedelta(days=7), e.date + timedelta(days=7)
        if e.date not in table or before not in table or after not in table:
            missing = [str(d) for d in (before, e.date, after) if d not in table]
            skipped.append(SkippedEntry(e.date, e.kind, e.label, f"missing dates: {', '.join(missing)}"))
            continue
        baseline = (table[before] + table[after]) / 2.0
        if baseline == 0:
            skipped.append(SkippedEntry(e.date, e.kind, e.label, "zero baseline"))
            continue
        impacts.append(ImpactRow(e.date, e.kind, e.label, table[e.date], baseline,
                                 1.0 - table[e.date] / baseline))
    return impacts, skipped


def holiday_impact(rows: list[DailyRow], calendar: list[CalendarEntry]):
    """Drop fraction vs the +/-7-day same-weekday baseline, for holidays."""
    return _impact(rows, [e for e in calendar if e.kind == "holiday"])


def event_impact(rows: list[DailyRow], calendar: list[CalendarEntry]):
    """Same baseline rule applied to strikes, protests, and other events."""
    return _impact(rows, [e for e in calendar if e.kind in EVENT_KINDS])
