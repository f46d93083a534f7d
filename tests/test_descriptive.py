from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from velotrace.descriptive import (
    histogram,
    monthly_change,
    share_below,
    temporal_profile,
)
from velotrace.covariates import daily_join
from velotrace.errors import DataError, ParameterError
from velotrace.synth import TripLengthDist, sample_trip_lengths

from conftest import make_trips, weather_table

UTC = timezone.utc


class TestHistogram:
    def test_direct_binning(self):
        h = histogram([100.0, 150.0, 900.0], 500.0)
        assert dict(h.bins) == {0.0: 2, 500.0: 1}
        assert h.total == 3

    def test_share_below(self):
        assert share_below([1, 2, 3, 4, 5], 3.5) == 0.6

    def test_empty_input(self):
        h = histogram([], 10.0)
        assert h.bins == [] and h.total == 0
        assert h.mode_bin() is None

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            histogram([1.0, float("nan")], 1.0)

    def test_interior_zero_bins_present(self):
        h = histogram([5.0, 25.0], 10.0)
        assert h.bins == [(0.0, 1), (10.0, 0), (20.0, 1)]

    def test_mode_bin_contains_planted_length_mode(self):
        # generator's own length distribution peaks at its configured mode
        dist = TripLengthDist(mode_m=1600.0, sigma=0.35)
        rng = np.random.default_rng(42)
        lengths = sample_trip_lengths(dist, 50_000, rng)
        h = histogram(lengths, 250.0)
        edge, _ = h.mode_bin()
        assert edge <= 1600.0 < edge + 250.0

    @given(values=st.lists(st.floats(0, 1e4), max_size=200), width=st.floats(1.0, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_conservation(self, values, width):
        assert histogram(values, width).total == len(values)
        assert sum(c for _, c in histogram(values, width).bins) == len(values)

    @given(data=st.data())
    @settings(max_examples=100)
    def test_translation_by_whole_bins(self, data):
        width = data.draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
        # quarter-width offsets keep values away from bin edges
        values = [k * width + width / 4 for k in data.draw(st.lists(st.integers(0, 50), min_size=1, max_size=50))]
        shift = data.draw(st.integers(1, 20)) * width
        h0 = histogram(values, width)
        h1 = histogram([v + shift for v in values], width)
        assert [(e + shift, c) for e, c in h0.bins] == pytest.approx([(e, c) for e, c in h1.bins])


class TestTemporalProfile:
    def test_single_monday_morning_trip(self):
        trips = make_trips([datetime(2017, 5, 1, 6, 0, tzinfo=UTC)])  # 08:00 local at +120
        p = temporal_profile(trips, 120)
        assert p.weekday_counts[0] == 1
        assert p.hourly_weekday[8] == 1
        assert p.workingday_share == 1.0
        assert p.monthly_counts == {"2017-05": 1}

    def test_weekday_share_five_of_seven(self):
        trips = make_trips([datetime(2017, 5, 1 + d, 10, 0, tzinfo=UTC) for d in range(7)])
        p = temporal_profile(trips, 120)
        assert p.workingday_share == pytest.approx(5 / 7)

    def test_weekend_hours_split(self):
        sat = make_trips([datetime(2017, 5, 6, 10, 0, tzinfo=UTC)])
        p = temporal_profile(sat, 120)
        assert sum(p.hourly_weekday) == 0
        assert p.hourly_weekend[12] == 1

    def test_profile_conservation(self):
        trips = make_trips([datetime(2017, 5, 1, 0, 0, tzinfo=UTC) + timedelta(hours=h)
                            for h in range(0, 24 * 14, 5)])
        p = temporal_profile(trips, 120)
        assert sum(p.hourly_weekday) + sum(p.hourly_weekend) == p.total == len(trips)
        assert sum(p.weekday_counts) == p.total
        assert sum(p.monthly_counts.values()) == p.total

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            temporal_profile(make_trips([]), 120)

    @given(seconds=st.lists(st.integers(0, 400 * 86400), min_size=1, max_size=12),
           offset=st.integers(-720, 840))
    @settings(max_examples=50, deadline=None)
    def test_columns_match_a_per_trip_datetime_loop(self, seconds, offset):
        """Weekday, hour, month and day of each local start, as datetime gives them one trip at a time."""
        starts = [datetime(2016, 12, 31, 23, 59, 59, tzinfo=UTC) + timedelta(seconds=s) for s in seconds]
        trips = make_trips(starts)
        weekday, hourly = [0] * 7, {True: [0] * 24, False: [0] * 24}
        monthly, daily = {}, {}
        for start in starts:
            local = start.astimezone(timezone(timedelta(minutes=offset)))
            weekday[local.weekday()] += 1
            hourly[local.weekday() < 5][local.hour] += 1
            monthly[local.strftime("%Y-%m")] = monthly.get(local.strftime("%Y-%m"), 0) + 1
            daily[local.date()] = daily.get(local.date(), 0) + 1
        p = temporal_profile(trips, offset)
        assert (p.weekday_counts, p.hourly_weekday, p.hourly_weekend) == (weekday, hourly[True], hourly[False])
        assert p.monthly_counts == dict(sorted(monthly.items()))
        no_weather = weather_table([], 0.0, 0.0, 0.0)
        assert {r.date: r.trip_count for r in daily_join(trips, no_weather, offset) if r.trip_count} == daily


def profile_with(monthly: dict):
    from velotrace.descriptive import TemporalProfile

    total = sum(monthly.values())
    return TemporalProfile([total, 0, 0, 0, 0, 0, 0], [0] * 24, [0] * 24, monthly, 1.0, total)


class TestMonthlyChange:
    def test_flat_months(self):
        rows = monthly_change(profile_with({"2017-05": 100, "2017-06": 100}))
        assert rows[0].pct_change is None
        assert rows[1].pct_change == 0.0
        assert rows[1].share_of_peak == 1.0

    def test_forty_percent_drop(self):
        rows = monthly_change(profile_with({"2017-07": 100, "2017-08": 60}))
        assert rows[1].pct_change == pytest.approx(-0.40)

    def test_september_rebound(self):
        rows = monthly_change(profile_with({"2017-08": 60, "2017-09": 77}))
        assert rows[1].pct_change == pytest.approx(0.28333, abs=1e-4)

    def test_zero_base_undefined(self):
        rows = monthly_change(profile_with({"2017-05": 0, "2017-06": 10}))
        assert rows[1].pct_change is None

    def test_single_month_is_one_row(self):
        rows = monthly_change(profile_with({"2017-05": 10}))
        assert [(r.month, r.count, r.pct_change, r.share_of_peak) for r in rows] == [("2017-05", 10, None, 1.0)]
        assert monthly_change(profile_with({})) == []

    @given(counts=st.lists(st.integers(1, 1000), min_size=2, max_size=8))
    @settings(max_examples=50)
    def test_share_of_peak_bounds(self, counts):
        monthly = {f"2017-{m + 1:02d}": c for m, c in enumerate(counts)}
        rows = monthly_change(profile_with(monthly))
        peak = max(counts)
        for row in rows:
            assert 0 < row.share_of_peak <= 1.0
            assert (row.share_of_peak == 1.0) == (row.count == peak)
