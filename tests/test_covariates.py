import math
import tempfile
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from velotrace.covariates import (
    CalendarEntry,
    DailyRow,
    daily_correlations,
    daily_join,
    event_impact,
    holiday_impact,
    parse_calendar,
    parse_pollution,
    parse_weather,
    pearson,
    week_contrast,
)
from velotrace.errors import (
    ParameterError,
    RangeError,
    SchemaError,
    UndefinedCorrelationError,
)

from conftest import csv_stream, make_trips, us, weather_table

UTC = timezone.utc


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_computed(self):
        assert pearson([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6)

    def test_zero_variance_is_an_error_not_zero(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ParameterError):
            pearson([1, 2], [1, 2])

    series = st.lists(st.floats(-100, 100), min_size=3, max_size=20)

    @given(data=st.data())
    @settings(max_examples=100)
    def test_symmetry_and_affine_invariance(self, data):
        n = data.draw(st.integers(3, 15))
        grid = st.integers(-100_000, 100_000).map(lambda k: k / 1000.0)
        x = data.draw(st.lists(grid, min_size=n, max_size=n))
        y = data.draw(st.lists(grid, min_size=n, max_size=n))
        if len(set(x)) < 2 or len(set(y)) < 2:
            return
        r = pearson(x, y)
        assert abs(r) <= 1.0 + 1e-12
        assert r == pytest.approx(pearson(y, x), abs=1e-9)
        a = data.draw(st.floats(0.1, 10))
        b = data.draw(st.floats(-50, 50))
        assert r == pytest.approx(pearson([a * v + b for v in x], y), abs=1e-9)


def day_hours(d: date, hours=range(24)) -> list[int]:
    return [us(datetime(d.year, d.month, d.day, h, tzinfo=UTC)) for h in hours]


def hourly_weather(*days: date, temp=15.0, precip=0.0, wind=2.0, hours=range(24)):
    """The same weather in the given hours of each day."""
    return weather_table([h for d in days for h in day_hours(d, hours)], temp, precip, wind)


class TestDailyJoin:
    def test_basic_aggregation(self):
        d = date(2017, 5, 1)
        trips = make_trips([datetime(2017, 5, 1, 8, 0, tzinfo=UTC), datetime(2017, 5, 1, 9, 0, tzinfo=UTC)])
        rows = daily_join(trips, hourly_weather(d, temp=15.0, precip=0.5, wind=2.0), 0)
        row = [r for r in rows if r.date == d][0]
        assert row.trip_count == 2
        assert row.mean_temp == pytest.approx(15.0)
        assert row.total_precip == pytest.approx(12.0)
        assert row.mean_wind == pytest.approx(2.0)
        assert row.complete

    def test_missing_weather_marks_incomplete(self):
        trips = make_trips([datetime(2017, 5, 1, 8, 0, tzinfo=UTC)])
        rows = daily_join(trips, hourly_weather(), 0)
        assert len(rows) == 1 and not rows[0].complete

    def test_too_many_missing_hours_incomplete(self):
        d = date(2017, 5, 1)
        trips = make_trips([datetime(2017, 5, 1, 8, 0, tzinfo=UTC)])
        rows = daily_join(trips, hourly_weather(d, hours=range(19)), 0)  # 5 missing
        assert not rows[0].complete
        rows = daily_join(trips, hourly_weather(d, hours=range(20)), 0)  # 4 missing
        assert rows[0].complete

    def test_zero_trip_day_inside_span_is_a_value(self):
        trips = make_trips([datetime(2017, 5, 1, 8, 0, tzinfo=UTC), datetime(2017, 5, 3, 8, 0, tzinfo=UTC)])
        weather = hourly_weather(*(date(2017, 5, d) for d in (1, 2, 3)))
        rows = daily_join(trips, weather, 0)
        mid = [r for r in rows if r.date == date(2017, 5, 2)][0]
        assert mid.trip_count == 0 and mid.complete

    def test_conservation(self):
        trips = make_trips([datetime(2017, 5, 1, 8, 0, tzinfo=UTC) + timedelta(hours=h)
                            for h in range(0, 96, 7)])
        rows = daily_join(trips, hourly_weather(), 0)
        assert sum(r.trip_count for r in rows) == len(trips)

    def test_comfort_peak_negative_correlation_above_27(self):
        # counts = 500 - 12*|temp - 20| + noise; restrict to hot days
        rng = np.random.default_rng(4)
        start = date(2017, 6, 1)
        starts = []
        hours, hour_temps = [], []
        temps = np.linspace(18, 36, 40)
        for i, temp in enumerate(temps):
            d = start + timedelta(days=int(i))
            hours += day_hours(d)
            hour_temps += [float(temp)] * 24
            n = max(1, int(round(500 - 12 * abs(temp - 20) + rng.normal(0, 5))))
            base = datetime(d.year, d.month, d.day, 6, tzinfo=UTC)
            starts += [base + timedelta(seconds=90 * k) for k in range(n)]
        rows = daily_join(make_trips(starts), weather_table(hours, hour_temps, 0.0, 2.0), 0)
        hot = [r for r in rows if r.complete and r.mean_temp is not None and r.mean_temp >= 27]
        assert len(hot) >= 10
        r = pearson([r.mean_temp for r in hot], [r.trip_count for r in hot])
        assert r < -0.9


def mk_rows(counts: dict[date, int]):
    return [DailyRow(d, c, 15.0, 0.0, 2.0, True) for d, c in sorted(counts.items())]


def week_counts(start: date, values):
    return {start + timedelta(days=i): v for i, v in enumerate(values)}


class TestWeekContrast:
    def test_identical_weeks(self, monday):
        counts = {**week_counts(monday, [10] * 7), **week_counts(monday + timedelta(days=7), [10] * 7)}
        wc = week_contrast(mk_rows(counts), monday, monday + timedelta(days=7))
        assert all(r.ratio == 1.0 for r in wc.rows)
        assert [r.weekday for r in wc.rows] == [
            "Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday"]

    def test_less_than_half_tuesday(self, monday):
        a = week_counts(monday, [100, 45, 100, 100, 100, 50, 50])
        b = week_counts(monday + timedelta(days=7), [100, 100, 100, 100, 100, 50, 50])
        wc = week_contrast(mk_rows({**a, **b}), monday, monday + timedelta(days=7))
        assert wc.rows[1].ratio == pytest.approx(0.45)
        assert wc.rows[1].ratio < 0.5

    def test_partial_week_names_missing_dates(self, monday):
        counts = week_counts(monday, [10] * 7)
        with pytest.raises(ParameterError, match="2017-05-08"):
            week_contrast(mk_rows(counts), monday, monday + timedelta(days=7))

    def test_non_monday_start_rejected(self, monday):
        counts = {**week_counts(monday, [10] * 7), **week_counts(monday + timedelta(days=7), [10] * 7)}
        with pytest.raises(ParameterError, match="not a Monday"):
            week_contrast(mk_rows(counts), monday + timedelta(days=1), monday + timedelta(days=7))

    def test_zero_denominator_undefined(self, monday):
        a = week_counts(monday, [10] * 7)
        b = week_counts(monday + timedelta(days=7), [0] * 7)
        wc = week_contrast(mk_rows({**a, **b}), monday, monday + timedelta(days=7))
        assert all(r.ratio is None for r in wc.rows)

    def test_morning_rain_hurts_more_than_afternoon(self):
        from velotrace import SynthConfig, generate, parse_points, assemble_trips
        from velotrace.synth import RainEvent

        cfg = SynthConfig(
            seed=23, start_date=date(2017, 5, 1), end_date=date(2017, 5, 15),
            base_trips_per_day=800,
            rain_events=(
                RainEvent(date(2017, 5, 2), 2, 7, 6.0, 0.8),    # Tuesday morning, week a
                RainEvent(date(2017, 5, 5), 15, 1, 4.0, 0.8),   # Friday afternoon, week a
            ),
        )
        with tempfile.TemporaryDirectory() as d:
            man = generate(cfg, d)
            trips, _ = assemble_trips(parse_points(man["files"]["points"]))
            weather = parse_weather(man["files"]["weather"])
        rows = daily_join(trips, weather, cfg.utc_offset_min)
        wc = week_contrast(rows, date(2017, 5, 1), date(2017, 5, 8),
                           weather=weather, utc_offset_min=cfg.utc_offset_min)
        tuesday, friday = wc.rows[1], wc.rows[4]
        assert tuesday.ratio < friday.ratio
        assert tuesday.ratio < 0.9
        rained = [mm for _, mm in wc.precip_overlay_a if mm > 0]
        assert len(rained) == 8  # 7 morning hours + 1 afternoon hour


class TestHolidayImpact:
    def test_sixty_percent_drop(self, monday):
        holiday = monday + timedelta(days=7)
        rows = mk_rows({monday: 100, holiday: 40, holiday + timedelta(days=7): 100})
        impacts, skipped = holiday_impact(rows, [CalendarEntry(holiday, "holiday", "x")])
        assert not skipped
        assert impacts[0].baseline == 100.0
        assert impacts[0].drop_fraction == pytest.approx(0.60)

    def test_no_change(self, monday):
        holiday = monday + timedelta(days=7)
        rows = mk_rows({monday: 80, holiday: 80, holiday + timedelta(days=7): 80})
        impacts, _ = holiday_impact(rows, [CalendarEntry(holiday, "holiday", "x")])
        assert impacts[0].drop_fraction == 0.0

    def test_missing_flank_skipped(self, monday):
        holiday = monday + timedelta(days=7)
        rows = mk_rows({monday: 100, holiday: 40})
        impacts, skipped = holiday_impact(rows, [CalendarEntry(holiday, "holiday", "x")])
        assert impacts == []
        assert "2017-05-15" in skipped[0].reason

    def test_zero_baseline_skipped(self, monday):
        holiday = monday + timedelta(days=7)
        rows = mk_rows({monday: 0, holiday: 5, holiday + timedelta(days=7): 0})
        impacts, skipped = holiday_impact(rows, [CalendarEntry(holiday, "holiday", "x")])
        assert impacts == [] and skipped[0].reason == "zero baseline"

    def test_increase_is_negative_drop(self, monday):
        holiday = monday + timedelta(days=7)
        rows = mk_rows({monday: 100, holiday: 150, holiday + timedelta(days=7): 100})
        impacts, _ = holiday_impact(rows, [CalendarEntry(holiday, "holiday", "x")])
        assert impacts[0].drop_fraction == pytest.approx(-0.5)

    @given(scale=st.floats(0.1, 50.0))
    @settings(max_examples=50)
    def test_drop_invariant_under_scaling(self, scale):
        monday = date(2017, 5, 1)
        holiday = monday + timedelta(days=7)
        base = {monday: 120, holiday: 48, holiday + timedelta(days=7): 80}
        i1, _ = holiday_impact(mk_rows(base), [CalendarEntry(holiday, "holiday", "x")])
        scaled = {d: int(round(c * 1000 * scale)) for d, c in base.items()}
        i2, _ = holiday_impact(mk_rows(scaled), [CalendarEntry(holiday, "holiday", "x")])
        assert i1[0].drop_fraction == pytest.approx(i2[0].drop_fraction, abs=1e-4)


class TestEventImpact:
    def test_flat_event(self, monday):
        ev = monday + timedelta(days=7)
        rows = mk_rows({monday: 50, ev: 50, ev + timedelta(days=7): 50})
        impacts, _ = event_impact(rows, [CalendarEntry(ev, "strike", "general")])
        assert impacts[0].drop_fraction == 0.0

    def test_holidays_not_included(self, monday):
        ev = monday + timedelta(days=7)
        rows = mk_rows({monday: 50, ev: 50, ev + timedelta(days=7): 50})
        impacts, _ = event_impact(rows, [CalendarEntry(ev, "holiday", "x")])
        assert impacts == []

    def test_null_events_from_generator(self):
        from velotrace import SynthConfig, TempCurve, assemble_trips, generate, parse_points

        cfg = SynthConfig(
            seed=31, start_date=date(2017, 5, 1), end_date=date(2017, 5, 22),
            base_trips_per_day=900, temp_curve=TempCurve(amplitude_c=0.0),
            null_events=((date(2017, 5, 9), "strike", "s"), (date(2017, 5, 11), "protest", "p")),
        )
        with tempfile.TemporaryDirectory() as d:
            man = generate(cfg, d)
            trips, _ = assemble_trips(parse_points(man["files"]["points"]))
            cal = parse_calendar(man["files"]["calendar"])
            weather = parse_weather(man["files"]["weather"])
        rows = daily_join(trips, weather, cfg.utc_offset_min)
        impacts, skipped = event_impact(rows, cal)
        assert len(impacts) == 2 and not skipped
        assert all(abs(i.drop_fraction) < 0.1 for i in impacts)


WEATHER_CSV = "timestamp,temp_c,precip_mm,wind_mps\n2017-05-01T00:00:00Z,15.0,0.0,2.0\n"


class TestParsers:
    def test_weather_roundtrip(self):
        table = parse_weather(csv_stream(WEATHER_CSV))
        assert table.temp_c[0] == 15.0 and table.hour_us[0] == us(datetime(2017, 5, 1, 0, tzinfo=UTC))

    def test_weather_duplicate_hour_rejected(self):
        text = WEATHER_CSV + "2017-05-01T00:30:00Z,16.0,0.0,2.0\n"
        with pytest.raises(SchemaError, match="duplicate"):
            parse_weather(csv_stream(text))

    def test_weather_negative_precip_rejected(self):
        with pytest.raises(RangeError):
            parse_weather(csv_stream("timestamp,temp_c,precip_mm,wind_mps\n2017-05-01T00:00:00Z,15.0,-1.0,2.0\n"))

    def test_weather_columns_keep_file_order_and_truncate_to_the_hour(self):
        text = WEATHER_CSV.splitlines()[0] + "\n2017-05-01T01:00:00Z,16.0,0.5,3.0\n2017-05-01T00:20:00Z,15.0,0.0,2.0\n"
        table = parse_weather(csv_stream(text))
        assert table.hour_us.tolist() == [us(datetime(2017, 5, 1, h, tzinfo=UTC)) for h in (1, 0)]
        assert (table.temp_c.tolist(), table.precip_mm.tolist(), table.wind_mps.tolist()) == (
            [16.0, 15.0], [0.5, 0.0], [3.0, 2.0])

    @pytest.mark.parametrize("values", ["nan,0.0,2.0", "15.0,inf,2.0", "15.0,0.0,-inf", "-Infinity,0.0,2.0"])
    def test_weather_non_finite_value_rejected(self, values):
        with pytest.raises(RangeError, match="^line 3: non-finite"):
            parse_weather(csv_stream(WEATHER_CSV + f"2017-05-01T01:00:00Z,{values}\n"))

    @pytest.mark.parametrize("values", ["nan,,30.1,", "12.5,inf,,", ",,,-inf"])
    def test_pollution_non_finite_value_rejected(self, values):
        text = f"timestamp,pm,o3,no2,so2\n2017-05-01T00:00:00Z,12.5,,30.1,\n2017-05-01T01:00:00Z,{values}\n"
        with pytest.raises(RangeError, match="^line 3: non-finite"):
            parse_pollution(csv_stream(text))

    def test_pollution_duplicate_hour_rejected(self):
        text = "timestamp,pm,o3,no2,so2\n2017-05-01T00:00:00Z,10,,,\n2017-05-01T00:30:00Z,90,,,\n"
        with pytest.raises(SchemaError, match="^line 3: duplicate pollution hour 2017-05-01T00:00:00Z"):
            parse_pollution(csv_stream(text))

    def test_pollution_optional_fields(self):
        text = "timestamp,pm,o3,no2,so2\n2017-05-01T00:00:00Z,12.5,,30.1,\n"
        table = parse_pollution(csv_stream(text))
        assert table.pm[0] == 12.5 and np.isnan(table.o3[0]) and table.no2[0] == 30.1 and np.isnan(table.so2[0])

    def test_calendar_parse_and_kinds(self):
        text = "date,kind,label\n2017-08-15,holiday,Ferragosto\n2017-05-09,strike,transit\n"
        entries = parse_calendar(csv_stream(text))
        assert entries[0].date == date(2017, 8, 15) and entries[0].kind == "holiday"
        with pytest.raises(SchemaError):
            parse_calendar(csv_stream("date,kind,label\n2017-08-15,party,x\n"))

    def test_calendar_duplicate_rejected(self):
        text = "date,kind,label\n2017-08-15,holiday,x\n2017-08-15,holiday,x\n"
        with pytest.raises(SchemaError):
            parse_calendar(csv_stream(text))


class TestCorrelationReports:
    def test_daily_reports_cover_weather_variables(self):
        rng = np.random.default_rng(7)
        rows = [DailyRow(date(2017, 5, 1) + timedelta(days=i), int(100 + 5 * t + rng.normal(0, 3)),
                         15.0 + t, 0.0, 2.0, True)
                for i, t in enumerate(np.linspace(0, 10, 12))]
        reps = {r.variable: r for r in daily_correlations(rows)}
        assert reps["temp_c"].r > 0.9
        assert reps["temp_c"].n == 12
        assert reps["precip_mm"].r is None  # zero variance -> undefined, not 0
