"""Weather / pollution / calendar ingestion and their alignment with trip
counts: Pearson correlations, week-vs-week contrasts, and the holiday-impact
rule (baseline = mean of same-weekday counts one week before and after)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, datetime, timedelta

import numpy as np

from .errors import (
    ParameterError,
    ParseError,
    RangeError,
    SchemaError,
    UndefinedCorrelationError,
)
from .ingest import TripTable
from .util import WEEKDAY_NAMES, csv_rows, format_utc, local_date, local_datetimes, parse_utc, to_us, truncate_hour

WEATHER_HEADER = ["timestamp", "temp_c", "precip_mm", "wind_mps"]
POLLUTION_HEADER = ["timestamp", "pm", "o3", "no2", "so2"]
CALENDAR_HEADER = ["date", "kind", "label"]
CALENDAR_KINDS = {"holiday", "strike", "protest", "event"}
EVENT_KINDS = {"strike", "protest", "event"}

# a day missing more hours than this is marked incomplete
MAX_MISSING_WEATHER_HOURS = 4

_HOUR_US = 3_600_000_000


@dataclass(slots=True)
class WeatherRecord:
    hour: datetime  # UTC, truncated to the hour
    temp_c: float
    precip_mm: float
    wind_mps: float


@dataclass(slots=True)
class PollutionRecord:
    hour: datetime
    pm: float | None = None
    o3: float | None = None
    no2: float | None = None
    so2: float | None = None


@dataclass(slots=True, frozen=True)
class CalendarEntry:
    date: date
    kind: str
    label: str


def parse_weather(source) -> list[WeatherRecord]:
    rows = csv_rows(source)
    header = next(rows, None)
    if header != WEATHER_HEADER:
        raise SchemaError(f"bad weather header {header!r}, expected {WEATHER_HEADER!r}")
    out: list[WeatherRecord] = []
    seen: set[datetime] = set()
    for line, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise ParseError(line, f"expected 4 fields, got {len(row)}")
        try:
            hour = truncate_hour(parse_utc(row[0]))
        except ValueError:
            raise ParseError(line, f"bad timestamp: {row[0]!r}") from None
        try:
            temp, precip, wind = float(row[1]), float(row[2]), float(row[3])
        except ValueError:
            raise ParseError(line, f"bad numeric field in {row!r}") from None
        if precip < 0:
            raise RangeError(line, f"negative precipitation {precip}")
        if wind < 0:
            raise RangeError(line, f"negative wind speed {wind}")
        if hour in seen:
            raise SchemaError(f"line {line}: duplicate weather hour {format_utc(hour)}")
        seen.add(hour)
        out.append(WeatherRecord(hour, temp, precip, wind))
    return out


def parse_pollution(source) -> list[PollutionRecord]:
    rows = csv_rows(source)
    header = next(rows, None)
    if header != POLLUTION_HEADER:
        raise SchemaError(f"bad pollution header {header!r}, expected {POLLUTION_HEADER!r}")
    out: list[PollutionRecord] = []
    for line, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != 5:
            raise ParseError(line, f"expected 5 fields, got {len(row)}")
        try:
            hour = truncate_hour(parse_utc(row[0]))
        except ValueError:
            raise ParseError(line, f"bad timestamp: {row[0]!r}") from None
        vals = []
        for name, text in zip(POLLUTION_HEADER[1:], row[1:]):
            if text == "":
                vals.append(None)
                continue
            try:
                v = float(text)
            except ValueError:
                raise ParseError(line, f"bad {name}: {text!r}") from None
            if v < 0:
                raise RangeError(line, f"negative {name} {v}")
            vals.append(v)
        out.append(PollutionRecord(hour, *vals))
    return out


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


def daily_join(trips: TripTable, weather: list[WeatherRecord],
               utc_offset_min: int) -> list[DailyRow]:
    """Per-local-date counts of the table's trips, by the local date of
    `start_us`, joined with aggregated weather.

    Zero-trip dates inside the trip observation span count as 0 (a value, not
    a gap). A row is complete when the date lies in the trip span and at most
    4 weather hours are missing; incomplete rows are excluded from correlation.
    """
    days, n = np.unique(local_datetimes(trips.start_us, utc_offset_min).astype("datetime64[D]"),
                        return_counts=True)
    counts: dict[date, int] = dict(zip(days.tolist(), n.tolist()))
    span = set(np.arange(days[0], days[-1] + 1).tolist()) if len(days) else set()

    by_date: dict[date, list[WeatherRecord]] = {}
    for w in weather:
        by_date.setdefault(local_date(w.hour, utc_offset_min), []).append(w)

    rows = []
    for d in sorted(span | set(by_date)):
        recs = by_date.get(d, [])
        if recs:
            mean_temp = sum(r.temp_c for r in recs) / len(recs)
            total_precip = sum(r.precip_mm for r in recs)
            mean_wind = sum(r.wind_mps for r in recs) / len(recs)
        else:
            mean_temp = total_precip = mean_wind = None
        complete = d in span and len(recs) >= 24 - MAX_MISSING_WEATHER_HOURS
        rows.append(DailyRow(d, counts.get(d, 0), mean_temp, total_precip, mean_wind, complete))
    return rows


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


def hourly_correlations(trips: TripTable, weather: list[WeatherRecord]) -> list[CorrelationReport]:
    """Pearson of hourly trip counts against weather over the UTC hours from
    the first trip's to the last's; hours missing weather are excluded."""
    index, n = np.unique(trips.start_us // _HOUR_US, return_counts=True)
    if not len(index):
        return []
    counts = dict(zip(index.tolist(), n.tolist()))
    wx = {to_us(w.hour) // _HOUR_US: w for w in weather}
    hours = sorted(h for h in wx if index[0] <= h <= index[-1])
    out = []
    for var, getter in (("temp_c", lambda w: w.temp_c),
                        ("precip_mm", lambda w: w.precip_mm),
                        ("wind_mps", lambda w: w.wind_mps)):
        if len(hours) < 3:
            continue
        xs = [getter(wx[h]) for h in hours]
        ys = [counts.get(h, 0) for h in hours]
        out.append(CorrelationReport(var, "hourly", _safe_pearson(xs, ys), len(hours)))
    return out


def pollution_daily_correlations(rows: list[DailyRow], pollution: list[PollutionRecord],
                                 utc_offset_min: int) -> list[CorrelationReport]:
    """Daily-mean pollutant levels vs daily trip counts; the result is
    data-dependent, only the computation is contractual."""
    by_date: dict[date, list[PollutionRecord]] = {}
    for p in pollution:
        by_date.setdefault(local_date(p.hour, utc_offset_min), []).append(p)
    usable = {r.date: r.trip_count for r in rows if r.complete}
    out = []
    for var in ("pm", "o3", "no2", "so2"):
        xs, ys = [], []
        for d, recs in sorted(by_date.items()):
            if d not in usable:
                continue
            vals = [getattr(p, var) for p in recs if getattr(p, var) is not None]
            if not vals:
                continue
            xs.append(sum(vals) / len(vals))
            ys.append(usable[d])
        if len(xs) < 3:
            continue
        out.append(CorrelationReport(var, "daily", _safe_pearson(xs, ys), len(xs)))
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
                  weather: list[WeatherRecord] | None = None,
                  utc_offset_min: int = 0) -> WeekContrast:
    """Compare two Monday-anchored weeks day by day (ratio = week a / week b).

    When weather records are supplied the report carries week a's hourly
    precipitation overlay for plotting.
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
        wanted = set(days_a)
        for w in sorted(weather, key=lambda w: w.hour):
            if local_date(w.hour, utc_offset_min) in wanted:
                overlay.append((format_utc(w.hour), w.precip_mm))
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
