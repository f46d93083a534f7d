"""Deterministic synthetic-city generator.

Emits `points.csv`, `weather.csv`, `calendar.csv` in the ingest/covariate
schemas plus a `truth.json` sidecar recording the planted per-day expected
counts, hub flow shares, and suppression fractions. Every draw comes from
counter-based Philox streams keyed by (seed, day index), so identical configs
produce byte-identical files and generation can proceed day by day.

Trip model: origins jitter around weighted hubs; with two or more hubs the
destination is a jittered *other* hub (flow shares = renormalized weights,
recorded in the truth sidecar), with a single hub the destination lies at a
lognormal-sampled length in a uniform random direction. Trajectories are
straight lines at constant speed, so every coordinate is exactly linear in
time and interior gaps are exactly recoverable by interpolation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .ingest import EARTH_RADIUS_M, half_angles
from .spatial import M_PER_DEG_LAT, _m_per_deg_lon
from .util import format_utc, write_json

HEAT_THRESHOLD_C = 27.0
COLD_PENALTY_PER_DEG = 0.01
DIURNAL_AMPLITUDE_C = 3.0
WEATHER_STREAM = 1_000_003  # day-index namespace for the weather RNG stream

# commute-shaped hourly weights (peaks 07:00-09:00 and 17:00-19:00 local)
DEFAULT_HOURLY_SHAPE = (
    0.2, 0.1, 0.1, 0.1, 0.2, 0.6, 1.5, 3.2, 3.4, 2.2,
    1.6, 1.6, 1.8, 1.6, 1.5, 1.7, 2.2, 3.0, 3.2, 2.2,
    1.4, 1.0, 0.6, 0.4,
)


@dataclass(frozen=True)
class Hub:
    name: str
    lat: float
    lon: float
    weight: float


@dataclass(frozen=True)
class TempCurve:
    mean_c: float = 18.0
    amplitude_c: float = 8.0
    comfort_center_c: float = 20.0
    heat_penalty_per_deg: float = 0.05


@dataclass(frozen=True)
class RainEvent:
    day: date          # local date
    start_hour: int    # local hour
    duration_h: int
    mm_per_hour: float
    suppression: float  # fraction of affected hours' trips removed


@dataclass(frozen=True)
class TripLengthDist:
    mode_m: float = 1600.0
    sigma: float = 0.35

    @property
    def mu(self) -> float:
        return math.log(self.mode_m) + self.sigma ** 2


@dataclass(frozen=True)
class SpeedDist:
    mode_mps: float = 3.9
    sigma: float = 0.12

    @property
    def mu(self) -> float:
        return math.log(self.mode_mps) + self.sigma ** 2


@dataclass(frozen=True)
class SynthConfig:
    seed: int
    start_date: date
    end_date: date  # exclusive
    bbox: tuple[float, float, float, float] = (44.45, 11.28, 44.54, 11.40)
    hubs: tuple[Hub, ...] = (
        Hub("piazza", 44.4939, 11.3428, 5.0),
        Hub("station", 44.5058, 11.3426, 3.0),
        Hub("campus", 44.4872, 11.3290, 2.0),
    )
    base_trips_per_day: float = 1000.0
    weekday_multiplier: float = 2.1
    hourly_shape: tuple[float, ...] = DEFAULT_HOURLY_SHAPE
    temp_curve: TempCurve = TempCurve()
    rain_events: tuple[RainEvent, ...] = ()
    holiday_suppressions: tuple[tuple[date, float], ...] = ()
    null_events: tuple[tuple[date, str, str], ...] = ()  # kind in {strike, protest, event}
    trip_length: TripLengthDist = TripLengthDist()
    speed: SpeedDist = SpeedDist()
    missing_fraction: float = 0.0
    day_noise_sigma: float = 0.0  # lognormal day-level multiplier (mean 1)
    hub_jitter_m: float = 60.0
    point_interval_s: int = 10
    utc_offset_min: int = 120
    emit_unmasked: bool = False

    def days(self) -> list[date]:
        n = (self.end_date - self.start_date).days
        return [self.start_date + timedelta(days=i) for i in range(n)]


def _day_rng(seed: int, key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, key], dtype=np.uint64)))


def daily_temperature(curve: TempCurve, d: date) -> float:
    doy = d.timetuple().tm_yday
    return curve.mean_c + curve.amplitude_c * math.sin(2.0 * math.pi * (doy - 80) / 365.25)


def temperature_factor(curve: TempCurve, temp_c: float) -> float:
    penalty = curve.heat_penalty_per_deg * max(0.0, temp_c - HEAT_THRESHOLD_C)
    penalty += COLD_PENALTY_PER_DEG * max(0.0, curve.comfort_center_c - temp_c)
    return min(1.0, max(0.05, 1.0 - penalty))


def sample_trip_lengths(dist: TripLengthDist, n: int, rng: np.random.Generator) -> np.ndarray:
    return np.exp(rng.normal(dist.mu, dist.sigma, size=n))


def _rain_lookup(cfg: SynthConfig) -> dict[tuple[date, int], tuple[float, float]]:
    """(local date, local hour) -> (precip mm, combined suppression)."""
    out: dict[tuple[date, int], tuple[float, float]] = {}
    for ev in cfg.rain_events:
        for k in range(ev.duration_h):
            total_h = ev.start_hour + k
            d = ev.day + timedelta(days=total_h // 24)
            h = total_h % 24
            mm, keep = out.get((d, h), (0.0, 1.0))
            out[(d, h)] = (mm + ev.mm_per_hour, keep * (1.0 - ev.suppression))
    return {k: (mm, 1.0 - keep) for k, (mm, keep) in out.items()}


def planted_hour_means(cfg: SynthConfig) -> dict[date, np.ndarray]:
    """Expected trips per (local day, hour) after every deterministic effect.

    The day-level lognormal noise factor is part of the planted mean (it is
    drawn from the day's own stream before any trip sampling)."""
    shape = np.asarray(cfg.hourly_shape, dtype=np.float64)
    shape = shape / shape.sum()
    holidays = dict(cfg.holiday_suppressions)
    rain = _rain_lookup(cfg)
    out: dict[date, np.ndarray] = {}
    for day_idx, d in enumerate(cfg.days()):
        factor = cfg.weekday_multiplier if d.weekday() < 5 else 1.0
        factor *= temperature_factor(cfg.temp_curve, daily_temperature(cfg.temp_curve, d))
        factor *= 1.0 - holidays.get(d, 0.0)
        if cfg.day_noise_sigma > 0:
            rng = _day_rng(cfg.seed, 2 * day_idx)
            factor *= math.exp(rng.normal(-cfg.day_noise_sigma ** 2 / 2.0, cfg.day_noise_sigma))
        hour_means = cfg.base_trips_per_day * factor * shape
        for h in range(24):
            supp = rain.get((d, h))
            if supp is not None:
                hour_means[h] *= 1.0 - supp[1]
        out[d] = hour_means
    return out


def _local_midnight_utc(d: date, utc_offset_min: int) -> datetime:
    tz = timezone(timedelta(minutes=utc_offset_min))
    return datetime(d.year, d.month, d.day, tzinfo=tz).astimezone(timezone.utc)


def generate(cfg: SynthConfig, outdir) -> dict:
    """Write the synthetic dataset into `outdir`; returns the file manifest."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    hubs = list(cfg.hubs)
    weights = np.asarray([h.weight for h in hubs], dtype=np.float64)
    origin_p = weights / weights.sum()
    center_lat = (cfg.bbox[0] + cfg.bbox[2]) / 2.0
    m_lat = M_PER_DEG_LAT
    m_lon = _m_per_deg_lon(center_lat)
    jitter_lat = cfg.hub_jitter_m / m_lat
    jitter_lon = cfg.hub_jitter_m / m_lon

    dest_p = []
    for i in range(len(hubs)):
        w = weights.copy()
        w[i] = 0.0
        dest_p.append(w / w.sum() if w.sum() > 0 else None)

    hour_means = planted_hour_means(cfg)
    interval = cfg.point_interval_s

    points_path = outdir / "points.csv"
    full_path = outdir / "points_full.csv"
    actual_trips = 0
    n_points = 0
    full_writer = None
    full_file = None
    with open(points_path, "w", encoding="utf-8", newline="") as pf:
        writer = csv.writer(pf)
        writer.writerow(["activity_id", "timestamp", "lat", "lon", "accuracy", "speed"])
        if cfg.emit_unmasked:
            full_file = open(full_path, "w", encoding="utf-8", newline="")
            full_writer = csv.writer(full_file)
            full_writer.writerow(["activity_id", "timestamp", "lat", "lon", "accuracy", "speed"])

        for day_idx, d in enumerate(cfg.days()):
            rng = _day_rng(cfg.seed, 2 * day_idx + 1)
            day_start_utc = _local_midnight_utc(d, cfg.utc_offset_min)
            counts = rng.poisson(hour_means[d])
            n_day = int(counts.sum())
            if n_day == 0:
                continue
            start_s = np.concatenate([
                np.sort(rng.integers(0, 3600, size=int(c))) + h * 3600
                for h, c in enumerate(counts) if c > 0
            ])
            origin_idx = rng.choice(len(hubs), size=n_day, p=origin_p)
            olat = np.array([hubs[i].lat for i in origin_idx]) + rng.normal(0, jitter_lat, n_day)
            olon = np.array([hubs[i].lon for i in origin_idx]) + rng.normal(0, jitter_lon, n_day)
            if len(hubs) >= 2:
                dlat = np.empty(n_day)
                dlon = np.empty(n_day)
                for k in range(n_day):
                    j = rng.choice(len(hubs), p=dest_p[origin_idx[k]])
                    dlat[k] = hubs[j].lat
                    dlon[k] = hubs[j].lon
                dlat += rng.normal(0, jitter_lat, n_day)
                dlon += rng.normal(0, jitter_lon, n_day)
            else:
                length = sample_trip_lengths(cfg.trip_length, n_day, rng)
                theta = rng.uniform(0.0, 2.0 * math.pi, n_day)
                dlat = olat + length * np.sin(theta) / m_lat
                dlon = olon + length * np.cos(theta) / m_lon
            speed = np.exp(rng.normal(cfg.speed.mu, cfg.speed.sigma, n_day))

            dist = 2.0 * EARTH_RADIUS_M * half_angles(olat, olon, dlat, dlon)
            duration = np.maximum(2, np.rint(dist / speed)).astype(np.int64)

            rows = []
            full_rows = [] if full_writer else None
            for k in range(n_day):
                aid = f"A{day_idx:04d}{k:06d}"
                t0 = day_start_utc + timedelta(seconds=int(start_s[k]))
                dur = int(duration[k])
                offs = list(range(0, dur, interval))
                if offs[-1] != dur:
                    offs.append(dur)
                m = len(offs)
                frac = np.asarray(offs, dtype=np.float64) / dur
                plat = olat[k] + (dlat[k] - olat[k]) * frac
                plon = olon[k] + (dlon[k] - olon[k]) * frac
                spd = repr(float(dist[k] / dur))
                acc = np.round(rng.uniform(3.0, 12.0, m), 1)
                if cfg.missing_fraction > 0 and m > 2:
                    miss_coord = rng.random(m) < cfg.missing_fraction
                    miss_speed = rng.random(m) < cfg.missing_fraction
                    miss_acc = rng.random(m) < cfg.missing_fraction
                    miss_coord[0] = miss_coord[-1] = False  # keep boundaries repair-complete
                    miss_speed[0] = miss_speed[-1] = False
                    miss_acc[0] = miss_acc[-1] = False
                else:
                    miss_coord = miss_speed = miss_acc = None
                for q in range(m):
                    ts = format_utc(t0 + timedelta(seconds=offs[q]))
                    lat_s, lon_s = repr(float(plat[q])), repr(float(plon[q]))
                    acc_s = repr(float(acc[q]))
                    row_full = [aid, ts, lat_s, lon_s, acc_s, spd]
                    if full_rows is not None:
                        full_rows.append(row_full)
                    if miss_coord is not None:
                        row = [
                            aid, ts,
                            "" if miss_coord[q] else lat_s,
                            "" if miss_coord[q] else lon_s,
                            "" if miss_acc[q] else acc_s,
                            "" if miss_speed[q] else spd,
                        ]
                    else:
                        row = row_full
                    rows.append(row)
                n_points += m
            writer.writerows(rows)
            if full_writer:
                full_writer.writerows(full_rows)
            actual_trips += n_day
    if full_file:
        full_file.close()

    _write_weather(cfg, outdir / "weather.csv")
    _write_calendar(cfg, outdir / "calendar.csv")

    daily_expected = {str(d): float(hour_means[d].sum()) for d in cfg.days()}
    weekday_total = sum(float(hour_means[d].sum()) for d in cfg.days() if d.weekday() < 5)
    total_expected = sum(daily_expected.values())
    flows = {}
    if len(hubs) >= 2:
        for i, h in enumerate(hubs):
            flows[h.name] = {hubs[j].name: float(dest_p[i][j])
                             for j in range(len(hubs)) if j != i}
    truth = {
        "seed": cfg.seed,
        "span": [str(cfg.start_date), str(cfg.end_date)],
        "daily_expected": daily_expected,
        "hub_flow_shares": flows,
        "holiday_suppressions": {str(d): s for d, s in cfg.holiday_suppressions},
        "rain_events": [
            {"day": str(ev.day), "start_hour": ev.start_hour, "duration_h": ev.duration_h,
             "mm_per_hour": ev.mm_per_hour, "suppression": ev.suppression}
            for ev in cfg.rain_events
        ],
        "expected_weekday_share": (weekday_total / total_expected) if total_expected else None,
        "totals": {"expected_trips": total_expected, "actual_trips": actual_trips,
                   "points": n_points},
    }
    write_json(outdir / "truth.json", truth)

    files = {
        "points": str(points_path),
        "weather": str(outdir / "weather.csv"),
        "calendar": str(outdir / "calendar.csv"),
        "truth": str(outdir / "truth.json"),
    }
    if cfg.emit_unmasked:
        files["points_full"] = str(full_path)
    return {"files": files, "truth": truth}


def _write_weather(cfg: SynthConfig, path: Path) -> None:
    rain = _rain_lookup(cfg)
    rng = _day_rng(cfg.seed, WEATHER_STREAM)
    start = _local_midnight_utc(cfg.start_date, cfg.utc_offset_min) - timedelta(hours=3)
    end = _local_midnight_utc(cfg.end_date, cfg.utc_offset_min) + timedelta(hours=3)
    n_hours = int((end - start).total_seconds() // 3600)
    local_tz = timezone(timedelta(minutes=cfg.utc_offset_min))
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["timestamp", "temp_c", "precip_mm", "wind_mps"])
        for k in range(n_hours):
            hour = start + timedelta(hours=k)
            local = hour.astimezone(local_tz)
            t_day = daily_temperature(cfg.temp_curve, local.date())
            temp = (t_day
                    + DIURNAL_AMPLITUDE_C * math.cos(2.0 * math.pi * (local.hour - 15) / 24.0)
                    + rng.normal(0.0, 0.2))
            precip = rain.get((local.date(), local.hour), (0.0, 0.0))[0]
            wind = max(0.0, 3.0 + rng.normal(0.0, 1.0))
            w.writerow([format_utc(hour), repr(round(temp, 2)), repr(float(precip)),
                        repr(round(wind, 2))])


def _write_calendar(cfg: SynthConfig, path: Path) -> None:
    entries = [(d, "holiday", "synthetic-holiday") for d, _ in cfg.holiday_suppressions]
    entries.extend(cfg.null_events)
    entries.sort(key=lambda e: (str(e[0]), e[1], e[2]))
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["date", "kind", "label"])
        for d, kind, label in entries:
            w.writerow([str(d), kind, label])
