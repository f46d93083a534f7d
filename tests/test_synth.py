import hashlib
import math
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from velotrace.covariates import parse_calendar, parse_pollution, parse_weather
from velotrace.errors import ParameterError
from velotrace.ingest import assemble_trips, parse_points
from velotrace.synth import (
    Hub,
    RainEvent,
    SynthConfig,
    TempCurve,
    daily_temperature,
    generate,
    planted_hour_means,
    temperature_factor,
)
from velotrace.util import local_datetimes


def small_cfg(**kw):
    defaults = dict(seed=5, start_date=date(2017, 5, 1), end_date=date(2017, 5, 8),
                    base_trips_per_day=200)
    defaults.update(kw)
    return SynthConfig(**defaults)


def test_identical_config_byte_identical_outputs(tmp_path):
    cfg = small_cfg(missing_fraction=0.05)
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate(cfg, a)
    generate(cfg, b)
    for name in ("points.csv", "weather.csv", "calendar.csv", "truth.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


TWO_HUBS = (Hub("piazza", 44.4939, 11.3428, 3.0), Hub("station", 44.5058, 11.3426, 1.0))
PINNED_CITIES = {
    "two_hubs_missing": dict(hubs=TWO_HUBS, missing_fraction=0.05),
    "one_hub": dict(hubs=(Hub("piazza", 44.4939, 11.3428, 1.0),), missing_fraction=0.05),
    "no_missing": dict(missing_fraction=0.0),
    # most trips last under 600 s, so they have two points and draw no missing flags
    "interval_600": dict(missing_fraction=0.05, point_interval_s=600),
}
# sha256 of points.csv: the bytes follow from the draw order that the synth
# module docstring fixes, so they must never move
PINNED_SHA256 = {
    ("two_hubs_missing", 0): "f8d0ab156440c307d92feb64d06e6e27660bcbdba51ac41900431440e397cf9e",  # 5797 points, 164 trips
    ("two_hubs_missing", 1): "50350ca49b45974e0de40abb5d61d7be4ffdf08457e40205017dd0a812763988",  # 6011 points, 169 trips
    ("one_hub", 0): "516d4d77e9a1bc435a8f3bf89fe85eb19105d79471cda2a7ade53cbd0a2f0d02",  # 8182 points, 164 trips
    ("one_hub", 1): "c9d276d27797304c5362954fc366bd67c8057da877f430c99330bf02d9c8408a",  # 8420 points, 169 trips
    ("no_missing", 0): "3a5bae616c98b95048018e5f62e28755374f7475ec1707958aee5ac784a5633f",  # 6617 points, 164 trips
    ("no_missing", 1): "c6500b5ffd658acf3352676b39a33220e28ab9687d3a825c3927861f2887da6c",  # 6714 points, 169 trips
    ("interval_600", 0): "f33162339ea7adbc80835fb16532afbf7e4957d40af730213d966e15f3fac35c",  # 341 points, 164 trips
    ("interval_600", 1): "aacb9d559320fe6ffdd248d611c6ee06089b8723ee33446d7ca156719aa5c722",  # 354 points, 169 trips
}


@pytest.mark.parametrize("city, seed", sorted(PINNED_SHA256), ids=lambda v: str(v))
def test_points_bytes_are_pinned(tmp_path, city, seed):
    cfg = SynthConfig(seed=seed, start_date=date(2017, 5, 5), end_date=date(2017, 5, 8),
                      base_trips_per_day=40, **PINNED_CITIES[city])
    files = generate(cfg, tmp_path)["files"]
    assert hashlib.sha256(Path(files["points"]).read_bytes()).hexdigest() == PINNED_SHA256[(city, seed)]


@pytest.mark.parametrize("weight", [0.0, -1.0, float("nan"), "2"])
def test_hub_weight_no_draw_can_use_is_rejected(weight):
    hubs = (Hub("piazza", 44.4939, 11.3428, weight), Hub("station", 44.5058, 11.3426, 1.0))
    with pytest.raises(ParameterError, match=r"^synth\.hubs\['piazza'\]\.weight must be a finite number > 0"):
        small_cfg(hubs=hubs)


def test_different_seed_changes_output(tmp_path):
    generate(small_cfg(seed=1), tmp_path / "a")
    generate(small_cfg(seed=2), tmp_path / "b")
    assert (tmp_path / "a/points.csv").read_bytes() != (tmp_path / "b/points.csv").read_bytes()


def test_no_rain_no_holidays_truth_empty(tmp_path):
    man = generate(small_cfg(), tmp_path)
    truth = man["truth"]
    assert truth["rain_events"] == []
    assert truth["holiday_suppressions"] == {}


def test_total_trips_near_planted_means(tmp_path):
    cfg = SynthConfig(seed=3, start_date=date(2017, 5, 1), end_date=date(2017, 5, 31),
                      base_trips_per_day=1000)
    man = generate(cfg, tmp_path)
    expected = man["truth"]["totals"]["expected_trips"]
    actual = man["truth"]["totals"]["actual_trips"]
    assert abs(actual - expected) / expected < 0.05


def test_schema_round_trip(tmp_path):
    cfg = small_cfg(missing_fraction=0.05,
                    holiday_suppressions=((date(2017, 5, 3), 0.5),),
                    null_events=((date(2017, 5, 4), "strike", "s"),),
                    rain_events=(RainEvent(date(2017, 5, 2), 6, 2, 3.0, 0.5),))
    man = generate(cfg, tmp_path)
    points = parse_points(man["files"]["points"])
    weather = parse_weather(man["files"]["weather"])
    calendar = parse_calendar(man["files"]["calendar"])
    assert len(points) and weather and len(calendar) == 2
    trips, rejections = assemble_trips(points)
    assert trips
    assert int(trips.n_points.sum()) + sum(r.n_points for r in rejections) == len(points)


def test_daily_counts_match_truth_within_3_sigma(tmp_path):
    cfg = small_cfg(seed=11, base_trips_per_day=600)
    man = generate(cfg, tmp_path)
    trips, _ = assemble_trips(parse_points(man["files"]["points"]))
    measured = {}
    for d in local_datetimes(trips.start_us, cfg.utc_offset_min).astype("datetime64[D]").astype(str).tolist():
        measured[d] = measured.get(d, 0) + 1
    for day, mean in man["truth"]["daily_expected"].items():
        sigma = math.sqrt(mean)
        assert abs(measured.get(day, 0) - mean) <= 3 * sigma, day
    # the speed distribution of the paper's first figure: log speed is normal with mean mu and sd sigma
    log_speed = np.log(trips.avg_speed)
    sd = log_speed.std(ddof=1)
    assert abs(log_speed.mean() - cfg.speed.mu) <= 3 * cfg.speed.sigma / math.sqrt(len(trips))
    assert abs(sd - cfg.speed.sigma) <= 0.05 * cfg.speed.sigma


def test_hub_flow_shares_recorded(tmp_path):
    man = generate(small_cfg(), tmp_path)
    flows = man["truth"]["hub_flow_shares"]
    assert flows["piazza"] == {"station": 0.6, "campus": 0.4}
    for origin, dests in flows.items():
        assert sum(dests.values()) == pytest.approx(1.0)


def test_unmasked_sidecar_matches_masked_grid(tmp_path):
    """The city without missing values at the same seed is the masked city's
    unmasked copy: the same points with their coordinates, which trip
    assembly restores in every gap of the masked city."""
    masked = parse_points(generate(small_cfg(missing_fraction=0.08), tmp_path / "masked")["files"]["points"])
    full = parse_points(generate(small_cfg(missing_fraction=0.0), tmp_path / "full")["files"]["points"])
    assert len(masked) == len(full)
    present = ~np.isnan(masked.lat)
    assert not present.all() and not np.isnan(full.lat).any()
    assert np.array_equal(masked.ids, full.ids) and np.array_equal(masked.activity, full.activity)
    assert np.array_equal(masked.t, full.t)
    assert np.array_equal(masked.lat[present], full.lat[present])
    assert np.array_equal(masked.lon[present], full.lon[present])
    assemble_trips(masked)  # fills each interior gap in the table's columns
    assert not np.isnan(masked.lat).any() and not np.isnan(masked.lon).any()
    gaps = ~present
    assert np.abs(masked.lat[gaps] - full.lat[gaps]).max() < 1e-12
    assert np.abs(masked.lon[gaps] - full.lon[gaps]).max() < 1e-12


def test_temperature_model_shapes():
    curve = TempCurve(mean_c=18.0, amplitude_c=8.0)
    july = daily_temperature(curve, date(2017, 7, 15))
    january = daily_temperature(curve, date(2017, 1, 15))
    assert july > 22 > january
    assert temperature_factor(curve, 20.0) == 1.0
    assert temperature_factor(curve, 32.0) < temperature_factor(curve, 28.0) < 1.0
    assert temperature_factor(curve, 5.0) < 1.0


def test_holiday_suppression_in_planted_means():
    cfg = small_cfg(holiday_suppressions=((date(2017, 5, 3), 0.6),),
                    temp_curve=TempCurve(amplitude_c=0.0))
    means = planted_hour_means(cfg)
    normal = means[date(2017, 5, 2)].sum()   # Tuesday
    holiday = means[date(2017, 5, 3)].sum()  # Wednesday, suppressed
    assert holiday == pytest.approx(0.4 * normal)


def test_rain_suppression_in_planted_means():
    cfg = small_cfg(rain_events=(RainEvent(date(2017, 5, 2), 7, 2, 5.0, 0.5),),
                    temp_curve=TempCurve(amplitude_c=0.0))
    with_rain = planted_hour_means(cfg)[date(2017, 5, 2)]
    dry = planted_hour_means(small_cfg(temp_curve=TempCurve(amplitude_c=0.0)))[date(2017, 5, 2)]
    assert with_rain[7] == pytest.approx(0.5 * dry[7])
    assert with_rain[9] == pytest.approx(dry[9])
