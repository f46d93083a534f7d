import math
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from velotrace import SynthConfig, assemble_trips, generate, parse_points
from velotrace.covariates import parse_calendar, parse_pollution, parse_weather
from velotrace.synth import (
    RainEvent,
    TempCurve,
    daily_temperature,
    planted_hour_means,
    temperature_factor,
)
from velotrace.util import local_date


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
    assert sum(t.n_points for t in trips) + sum(r.n_points for r in rejections) == len(points)


def test_daily_counts_match_truth_within_3_sigma(tmp_path):
    cfg = small_cfg(seed=11, base_trips_per_day=600)
    man = generate(cfg, tmp_path)
    trips, _ = assemble_trips(parse_points(man["files"]["points"]))
    measured = {}
    for t in trips:
        d = str(local_date(t.start_time, cfg.utc_offset_min))
        measured[d] = measured.get(d, 0) + 1
    for day, mean in man["truth"]["daily_expected"].items():
        sigma = math.sqrt(mean)
        assert abs(measured.get(day, 0) - mean) <= 3 * sigma, day


def test_hub_flow_shares_recorded(tmp_path):
    man = generate(small_cfg(), tmp_path)
    flows = man["truth"]["hub_flow_shares"]
    assert flows["piazza"] == {"station": 0.6, "campus": 0.4}
    for origin, dests in flows.items():
        assert sum(dests.values()) == pytest.approx(1.0)


def test_unmasked_sidecar_matches_masked_grid(tmp_path):
    cfg = small_cfg(missing_fraction=0.08, emit_unmasked=True)
    man = generate(cfg, tmp_path)
    masked = parse_points(man["files"]["points"])
    full = parse_points(man["files"]["points_full"])
    assert len(masked) == len(full)
    present = ~np.isnan(masked.lat)
    assert not present.all()
    assert np.array_equal(masked.ids, full.ids) and np.array_equal(masked.activity, full.activity)
    assert np.array_equal(masked.t, full.t)
    assert np.array_equal(masked.lat[present], full.lat[present])
    assert np.array_equal(masked.lon[present], full.lon[present])


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
