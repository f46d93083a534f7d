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

Draw order, a contract because the files' bytes depend on it: day i's trips
come from stream (seed, 2i + 1), which draws the Poisson count of each local
hour; each hour's start seconds; every trip's origin hub; origin jitter
(latitude, then longitude); with two or more hubs one uniform per trip that
picks its destination, then destination jitter, and with one hub the lengths,
then the directions; the speeds; then, trip by trip, for its m points: m
uniforms u for the accuracies, round(3 + 9u, 1), and, when missing_fraction > 0
and m > 2, 3m more that blank an interior point's coordinates, speed and
accuracy (in that order) where they fall below missing_fraction. Stream
(seed, 2i) holds only day i's noise factor.

A city with `missing_fraction` 0 and the same seed has the same trip ids,
instants and coordinates as a masked one, with none blanked, since these are
drawn before the missing-value flags; only the accuracies differ.

The CLI reads its `synth` config section as a `SynthConfig` by `util.from_json`,
with the run's own `seed`, `utc_offset_min` and `bbox`, which the section may
not set; `bbox` is the city's box, whose mid-latitude scales the longitude jitter.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .errors import ParameterError
from .ingest import EARTH_RADIUS_M, POINT_HEADER, half_angles
from .spatial import M_PER_DEG_LAT, _m_per_deg_lon
from .util import EVENT_KINDS, local_datetimes, utc_strings, write_csv, write_json

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
    null_events: tuple[tuple[date, str, str], ...] = ()  # (day, kind of EVENT_KINDS, label)
    trip_length: TripLengthDist = TripLengthDist()
    speed: SpeedDist = SpeedDist()
    missing_fraction: float = 0.0
    day_noise_sigma: float = 0.0  # lognormal day-level multiplier (mean 1)
    hub_jitter_m: float = 60.0
    point_interval_s: int = 10
    utc_offset_min: int = 120

    def __post_init__(self) -> None:
        """Reject, before any draw, a value that no draw can use or the parsers refuse."""
        non_negative = "a finite number >= 0", lambda v: v >= 0
        positive = "a finite number > 0", lambda v: v > 0
        share = "a number in [0, 1]", lambda v: 0 <= v <= 1
        checks = [(name, getattr(self, name), *non_negative)
                  for name in ("base_trips_per_day", "weekday_multiplier", "day_noise_sigma", "hub_jitter_m")]
        checks += [("missing_fraction", self.missing_fraction, *share),
                   ("point_interval_s", self.point_interval_s, "a positive integer",
                    lambda v: v > 0 and isinstance(v, numbers.Integral))]
        checks += [("trip_length.mode_m", self.trip_length.mode_m, *positive),
                   ("trip_length.sigma", self.trip_length.sigma, *non_negative),
                   ("speed.mode_mps", self.speed.mode_mps, *positive),
                   ("speed.sigma", self.speed.sigma, *non_negative)]
        checks += [(f"hubs[{h.name!r}].weight", h.weight, *positive) for h in self.hubs]
        checks += [(f"hourly_shape[{i}]", v, *non_negative) for i, v in enumerate(self.hourly_shape)]
        checks += [(f"holiday_suppressions[{i}][1]", s, *share) for i, (_, s) in enumerate(self.holiday_suppressions)]
        for i, e in enumerate(self.rain_events):
            checks += [(f"rain_events[{i}].duration_h", e.duration_h, "an integer >= 1",
                        lambda v: v >= 1 and isinstance(v, numbers.Integral)),
                       (f"rain_events[{i}].mm_per_hour", e.mm_per_hour, *non_negative),
                       (f"rain_events[{i}].suppression", e.suppression, *share)]
        for name, value, want, ok in checks:
            if not (_is_finite_number(value) and ok(value)):
                raise ParameterError(f"synth.{name} must be {want}, got {value!r}")
        min_lat, min_lon, max_lat, max_lon = self.bbox
        for h in self.hubs:
            if not (min_lat <= h.lat <= max_lat and min_lon <= h.lon <= max_lon):
                raise ParameterError(f"synth.hubs[{h.name!r}] at ({h.lat}, {h.lon}) lies outside bbox {list(self.bbox)}")
        if len(self.hourly_shape) != 24 or not sum(self.hourly_shape) > 0:
            raise ParameterError(f"synth.hourly_shape must be 24 numbers of positive sum, got {self.hourly_shape!r}")
        for i, (_, kind, _) in enumerate(self.null_events):
            if kind not in EVENT_KINDS:
                raise ParameterError(f"synth.null_events[{i}][1] must be one of {EVENT_KINDS}, got {kind!r}")
        if not self.end_date > self.start_date:
            raise ParameterError(f"synth.end_date must be after start_date {self.start_date}, got {self.end_date}")

    def days(self) -> list[date]:
        n = (self.end_date - self.start_date).days
        return [self.start_date + timedelta(days=i) for i in range(n)]


def _is_finite_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


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
    """Write the synthetic dataset into `outdir`; returns the file manifest.

    Each day's trips and points are built as NumPy columns from the day's
    stream, in the draw order the module docstring fixes, and the day's rows
    are written to `points.csv` in one pass; no unmasked copy is written, as
    the same city at `missing_fraction` 0 is that copy. The mid-latitude of
    `cfg.bbox`, the run's box under the CLI, turns metres into degrees of
    longitude."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    hubs = list(cfg.hubs)
    hub_lat, hub_lon = np.array([(h.lat, h.lon) for h in hubs]).T
    weights = np.asarray([h.weight for h in hubs], dtype=np.float64)
    origin_p = weights / weights.sum()
    m_lon = _m_per_deg_lon((cfg.bbox[0] + cfg.bbox[2]) / 2.0)
    jitter_lat = cfg.hub_jitter_m / M_PER_DEG_LAT
    jitter_lon = cfg.hub_jitter_m / m_lon
    if len(hubs) >= 2:
        dest_p = weights * (1.0 - np.eye(len(hubs)))  # row i: the destination shares from hub i
        dest_p /= dest_p.sum(axis=1, keepdims=True)
        dest_cdf = dest_p.cumsum(axis=1)  # what `Generator.choice(p=dest_p[i])` searches
        dest_cdf /= dest_cdf[:, -1:]

    hour_means = planted_hour_means(cfg)
    interval = cfg.point_interval_s
    header = ",".join(POINT_HEADER) + "\r\n"
    points_path = outdir / "points.csv"
    actual_trips = 0
    n_points = 0
    with open(points_path, "w", encoding="utf-8", newline="") as pf:
        pf.write(header)
        for day_idx, d in enumerate(cfg.days()):
            rng = _day_rng(cfg.seed, 2 * day_idx + 1)
            day_start_s = int(_local_midnight_utc(d, cfg.utc_offset_min).timestamp())
            counts = rng.poisson(hour_means[d])
            n_day = int(counts.sum())
            if n_day == 0:
                continue
            start_s = np.concatenate([
                np.sort(rng.integers(0, 3600, size=int(c))) + h * 3600
                for h, c in enumerate(counts) if c > 0
            ])
            origin_idx = rng.choice(len(hubs), size=n_day, p=origin_p)
            olat = hub_lat[origin_idx] + rng.normal(0, jitter_lat, n_day)
            olon = hub_lon[origin_idx] + rng.normal(0, jitter_lon, n_day)
            if len(hubs) >= 2:
                # the hub that `choice` would pick: how many cumulative shares lie at or below u
                dest_idx = (dest_cdf[origin_idx] <= rng.random(n_day)[:, None]).sum(axis=1)
                dlat = hub_lat[dest_idx] + rng.normal(0, jitter_lat, n_day)
                dlon = hub_lon[dest_idx] + rng.normal(0, jitter_lon, n_day)
            else:
                length = sample_trip_lengths(cfg.trip_length, n_day, rng)
                theta = rng.uniform(0.0, 2.0 * math.pi, n_day)
                dlat = olat + length * np.sin(theta) / M_PER_DEG_LAT
                dlon = olon + length * np.cos(theta) / m_lon
            speed = np.exp(rng.normal(cfg.speed.mu, cfg.speed.sigma, n_day))

            dist = 2.0 * EARTH_RADIUS_M * half_angles(olat, olon, dlat, dlon)
            duration = np.maximum(2, np.rint(dist / speed)).astype(np.int64)

            # a trip's offsets are 0, interval, ... below its duration, then the duration
            m = (duration + interval - 1) // interval + 1
            trip = np.repeat(np.arange(n_day), m)
            q = np.arange(trip.size) - (np.cumsum(m) - m)[trip]  # point index within its trip
            offs = np.minimum(q * interval, duration[trip])
            frac = offs / duration[trip]
            plat = olat[trip] + (dlat - olat)[trip] * frac
            plon = olon[trip] + (dlon - olon)[trip] * frac

            # per trip: m accuracy draws, then 3m missing-flag draws (coord, speed, accuracy)
            flagged = (m > 2) & (cfg.missing_fraction > 0)
            block = np.where(flagged, 4 * m, m)
            r = rng.random(int(block.sum()))
            at = (np.cumsum(block) - block)[trip] + q
            levels, level = np.unique(np.round(3.0 + 9.0 * r[at], 1), return_inverse=True)

            aids = np.array([f"A{day_idx:04d}{k:06d}" for k in range(n_day)], dtype=object)
            ts = np.datetime_as_string((day_start_s + start_s[trip] + offs).astype("datetime64[s]"),
                                       timezone="UTC")
            cols = [aids[trip], ts, _reprs(plat), _reprs(plon), _reprs(levels)[level],
                    _reprs(dist / duration)[trip]]
            if flagged.any():  # interior points only, so boundaries stay repair-complete
                step = np.where(flagged, m, 0)[trip]
                inner = flagged[trip] & (q > 0) & (q < m[trip] - 1)
                miss_coord = inner & (r[at + step] < cfg.missing_fraction)
                cols[2][miss_coord] = cols[3][miss_coord] = ""
                cols[5][inner & (r[at + 2 * step] < cfg.missing_fraction)] = ""
                cols[4][inner & (r[at + 3 * step] < cfg.missing_fraction)] = ""
            pf.write(_lines(cols))
            n_points += trip.size
            actual_trips += n_day

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
        "rain_events": list(cfg.rain_events),  # each written as the object of its fields
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
    return {"files": files, "truth": truth}


def _reprs(values: np.ndarray) -> np.ndarray:
    """The shortest round-trip text of each float, as an object array."""
    return np.array(list(map(repr, values.tolist())), dtype=object)


def _lines(cols) -> str:
    """CSV rows of string columns in `csv.writer`'s dialect, joined by hand.

    The points writer bypasses `util.write_csv` because no generated field
    (an `A<day><n>` id, a UTC stamp, a float's repr or "") ever needs
    quoting, and `csv.writer` checks every field for it: on the 91,780
    rows of a three-week 60-trips-a-day city (seed 1) this join takes
    0.045 s of CPU against 0.28 s for `csv.writer.writerows` (best of 5
    on a 2-core x86-64 host)."""
    return "\r\n".join(map(",".join, zip(*(c.tolist() for c in cols)))) + "\r\n"


def _write_weather(cfg: SynthConfig, path: Path) -> None:
    rain = _rain_lookup(cfg)
    rng = _day_rng(cfg.seed, WEATHER_STREAM)
    start_s, end_s = (int(_local_midnight_utc(d, cfg.utc_offset_min).timestamp())
                      for d in (cfg.start_date, cfg.end_date))
    hour_us = np.arange(start_s - 3 * 3600, end_s + 3 * 3600, 3600, dtype=np.int64) * 1_000_000
    local = local_datetimes(hour_us, cfg.utc_offset_min)
    days = local.astype("datetime64[D]").tolist()
    hours = (local.astype("datetime64[h]").astype(np.int64) % 24).tolist()

    def rows():  # drawn in row order, as the rows are written
        for stamp, day, hour in zip(utc_strings(hour_us), days, hours):
            temp = (daily_temperature(cfg.temp_curve, day)
                    + DIURNAL_AMPLITUDE_C * math.cos(2.0 * math.pi * (hour - 15) / 24.0)
                    + rng.normal(0.0, 0.2))
            precip = rain.get((day, hour), (0.0, 0.0))[0]
            wind = max(0.0, 3.0 + rng.normal(0.0, 1.0))
            yield stamp, repr(round(temp, 2)), repr(float(precip)), repr(round(wind, 2))

    write_csv(path, ["timestamp", "temp_c", "precip_mm", "wind_mps"], rows())


def _write_calendar(cfg: SynthConfig, path: Path) -> None:
    entries = [(d, "holiday", "synthetic-holiday") for d, _ in cfg.holiday_suppressions]
    entries.extend(cfg.null_events)
    entries.sort(key=lambda e: (str(e[0]), e[1], e[2]))
    write_csv(path, ["date", "kind", "label"], ((str(d), kind, label) for d, kind, label in entries))
