"""Temporal descriptive statistics: value histograms, weekday/hourly profiles,
monthly trends. Trips are attributed to the local time of their start instant
(fixed UTC offset; no tz database)."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError
from .ingest import TripTable
from .util import WEEKDAY_NAMES, local_datetimes

# default bin widths resolve the expected peaks (~1600 m, ~720 s, ~3.9 m/s)
DEFAULT_DISTANCE_BIN_M = 200.0
DEFAULT_DURATION_BIN_S = 60.0
DEFAULT_SPEED_BIN_MPS = 0.2


@dataclass
class Histogram:
    bin_width: float
    origin: float
    bins: list[tuple[float, int]]  # (lower_edge, count), contiguous from first to last occupied bin
    total: int

    def mode_bin(self) -> tuple[float, int] | None:
        """Bin with the highest count (first such bin on ties); None when empty."""
        if not self.bins:
            return None
        return max(self.bins, key=lambda b: b[1])


def histogram(values, bin_width: float, origin: float = 0.0) -> Histogram:
    """Bin non-negative reals into fixed-width bins anchored at `origin`.

    Value v lands in bin floor((v - origin) / bin_width). The bins list spans
    first to last occupied bin including interior zeros; empty input gives an
    empty histogram.
    """
    if bin_width <= 0:
        raise ParameterError("bin_width must be positive")
    values = np.asarray(values, dtype=np.float64)
    bad = values[~np.isfinite(values)]
    if len(bad):
        raise DataError(f"non-finite value in histogram input: {bad[0].item()!r}")
    if not len(values):
        return Histogram(bin_width, origin, [], 0)
    idx = np.floor((values - origin) / bin_width).astype(np.int64)
    lo = int(idx.min())
    bins = [(origin + (lo + i) * bin_width, c) for i, c in enumerate(np.bincount(idx - lo).tolist())]
    return Histogram(bin_width, origin, bins, len(values))


def share_below(values, threshold: float) -> float:
    """Fraction of values strictly below the threshold."""
    values = list(values)
    if not values:
        raise ParameterError("share_below needs at least one value")
    return sum(1 for v in values if v < threshold) / len(values)


@dataclass
class TemporalProfile:
    weekday_counts: list[int]      # Monday..Sunday
    hourly_weekday: list[int]      # 24 counts, Mon-Fri trips
    hourly_weekend: list[int]      # 24 counts, Sat-Sun trips
    monthly_counts: dict[str, int]  # "YYYY-MM" -> count
    workingday_share: float
    total: int


def temporal_profile(trips: TripTable, utc_offset_min: int) -> TemporalProfile:
    """Attribute each trip of the table to the weekday / hour / month of its
    local start time (`start_us` at the fixed UTC offset)."""
    if not trips:
        raise ParameterError("temporal_profile needs at least one trip")
    local = local_datetimes(trips.start_us, utc_offset_min)
    days = local.astype("datetime64[D]")
    dow = (days.astype(np.int64) + 3) % 7  # 1970-01-01 was a Thursday
    hour = (local - days) // np.timedelta64(1, "h")
    workday = dow < 5
    weekday = np.bincount(dow, minlength=7).tolist()
    months, counts = np.unique(local.astype("datetime64[M]"), return_counts=True)
    total = len(trips)
    return TemporalProfile(
        weekday_counts=weekday,
        hourly_weekday=np.bincount(hour[workday], minlength=24).tolist(),
        hourly_weekend=np.bincount(hour[~workday], minlength=24).tolist(),
        monthly_counts=dict(zip(np.datetime_as_string(months).tolist(), counts.tolist())),
        workingday_share=sum(weekday[:5]) / total,
        total=total,
    )


@dataclass
class MonthChange:
    month: str
    count: int
    pct_change: float | None  # vs previous listed month; None for the first or a zero base
    share_of_peak: float


def monthly_change(profile: TemporalProfile) -> list[MonthChange]:
    """Month-over-month trip count changes and share of the peak month; one
    row per month (the first has no change), none for an empty profile."""
    months = sorted(profile.monthly_counts)
    peak = max(profile.monthly_counts.values(), default=0)
    out = []
    prev = None
    for m in months:
        c = profile.monthly_counts[m]
        if prev is None or prev == 0:
            pct = None
        else:
            pct = (c - prev) / prev
        out.append(MonthChange(m, c, pct, c / peak))
        prev = c
    return out


def write_histogram_csv(h: Histogram, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["lower_edge", "count"])
        for edge, count in h.bins:
            w.writerow([repr(edge), count])


def write_monthly_csv(changes: list[MonthChange], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["month", "count", "pct_change_vs_prev", "share_of_peak"])
        for mc in changes:
            w.writerow([
                mc.month, mc.count,
                "" if mc.pct_change is None else repr(mc.pct_change),
                repr(mc.share_of_peak),
            ])


def profile_as_dict(p: TemporalProfile) -> dict:
    return {
        "weekday_counts": dict(zip(WEEKDAY_NAMES, p.weekday_counts)),
        "hourly_weekday": p.hourly_weekday,
        "hourly_weekend": p.hourly_weekend,
        "monthly_counts": p.monthly_counts,
        "workingday_share": p.workingday_share,
        "total": p.total,
    }
