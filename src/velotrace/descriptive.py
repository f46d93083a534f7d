"""Temporal descriptive statistics: value histograms, weekday/hourly profiles,
monthly trends. Trips are attributed to the local time of their start instant
(fixed UTC offset; no tz database). `TemporalProfile` is the `profile.json`
report: its field names are the file's keys."""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .errors import DataError, ParameterError
from .ingest import TripTable
from .util import WEEKDAY_NAMES, local_datetimes, write_csv


@dataclass
class Histogram:
    bin_width: float
    bins: list[tuple[float, int]]  # (lower_edge, count), contiguous from first to last occupied bin
    total: int

    def mode_bin(self) -> tuple[float, int] | None:
        """Bin with the highest count (first such bin on ties); None when empty."""
        if not self.bins:
            return None
        return max(self.bins, key=lambda b: b[1])


def histogram(values, bin_width: float) -> Histogram:
    """Bin non-negative reals into fixed-width bins anchored at 0.

    Bin k's lower edge is the float nearest to k * `bin_width`, computed in
    decimal from the width's repr (a 0.2 width gives the edge 4.6, not
    4.6000000000000005), and a value lands in the bin of the highest edge at
    or below it, so a value on an edge is in the bin that the edge starts. The
    bins list spans first to last occupied bin including interior zeros;
    empty input gives an empty histogram.
    """
    if bin_width <= 0:
        raise ParameterError("bin_width must be positive")
    values = np.asarray(values, dtype=np.float64)
    bad = values[~np.isfinite(values)]
    if len(bad):
        raise DataError(f"non-finite value in histogram input: {bad[0].item()!r}")
    if not len(values):
        return Histogram(bin_width, [], 0)
    # v / bin_width rounds, so a value's bin is at most one away from its floor
    guess = np.floor(values / bin_width).astype(np.int64)
    step = Decimal(repr(float(bin_width)))
    edges = [float(k * step) for k in range(int(guess.min()) - 1, int(guess.max()) + 2)]
    idx = np.searchsorted(edges, values, side="right") - 1
    first = int(idx.min())
    bins = list(zip(edges[first:], np.bincount(idx - first).tolist()))
    return Histogram(bin_width, bins, len(values))


@dataclass
class TemporalProfile:
    weekday_counts: dict[str, int]  # weekday name -> count, Monday..Sunday
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
        weekday_counts=dict(zip(WEEKDAY_NAMES, weekday)),
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
    write_csv(path, ["lower_edge", "count"], ((repr(edge), count) for edge, count in h.bins))


def write_monthly_csv(changes: list[MonthChange], path) -> None:
    write_csv(path, ["month", "count", "pct_change_vs_prev", "share_of_peak"], (
        (mc.month, mc.count, "" if mc.pct_change is None else repr(mc.pct_change), repr(mc.share_of_peak))
        for mc in changes))
