import csv
import json
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from velotrace.covariates import CalendarEntry
from velotrace.errors import MissingInputError, ParameterError, ParseError, SchemaError
from velotrace.features import (
    FeatureCorrelation,
    FeatureMatrix,
    MinMaxScaler,
    SlotSeries,
    aggregate_slots,
    aligned_span,
    build_features,
    chronological_split,
    feature_target_correlation,
    read_features_csv,
    write_features_csv,
)
from velotrace.features import _load_columns, _parse_rows
from velotrace.util import utc_strings

from conftest import from_us, make_trips, us, weather_table

UTC = timezone.utc
START = datetime(2017, 5, 1, 10, 0, tzinfo=UTC)
MINUTE = 60_000_000
HOUR = 60 * MINUTE
DAY_NAMES = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")


def make_slots(counts, width=30, start=START):
    return SlotSeries(width, us(start), np.asarray(counts, dtype=np.int64))


def slot_start(slots: SlotSeries, i: int) -> int:
    return slots.start_us + i * slots.width_minutes * MINUTE


def weather_for(slots: SlotSeries, temp=15.0, precip=0.0, missing_hours=()):
    """One record per hour from the first slot's to the last slot's."""
    hours = range(slots.start_us // HOUR * HOUR, slot_start(slots, len(slots) - 1) + 1, HOUR)
    return weather_table([h for h in hours if h not in missing_hours], temp, precip, 2.0)


class TestAggregateSlots:
    def test_binning_by_start_time(self):
        trips = make_trips([START + timedelta(minutes=m) for m in (5, 20, 45)])
        series, oos = aggregate_slots(trips, 30, (us(START), us(START + timedelta(minutes=60))))
        assert series.counts.tolist() == [2, 1]
        assert oos == 0

    def test_zero_fill(self):
        series, _ = aggregate_slots(make_trips([]), 60, (us(START), us(START + timedelta(hours=1))))
        assert series.counts.tolist() == [0]

    def test_width_60_equals_paired_30(self):
        trips = make_trips([START + timedelta(minutes=m) for m in (1, 31, 61, 95, 119)])
        span = (us(START), us(START + timedelta(hours=2)))
        s60, _ = aggregate_slots(trips, 60, span)
        s30, _ = aggregate_slots(trips, 30, span)
        paired = s30.counts.reshape(-1, 2).sum(axis=1)
        assert np.array_equal(s60.counts, paired)

    def test_a_slot_starts_at_its_first_microsecond(self):
        bound = us(START + timedelta(minutes=30))
        trips = make_trips([START] * 4)
        trips.start_us[:] = [bound - 1, bound, bound + 30 * MINUTE - 1, bound + 30 * MINUTE]
        series, oos = aggregate_slots(trips, 30, (us(START), bound + 30 * MINUTE))
        assert (series.counts.tolist(), oos) == ([1, 2], 1)

    def test_out_of_span_tallied(self):
        trips = make_trips([START - timedelta(minutes=31), START + timedelta(minutes=5)])
        series, oos = aggregate_slots(trips, 30, (us(START), us(START + timedelta(minutes=30))))
        assert series.counts.tolist() == [1]
        assert oos == 1

    @given(seconds=st.lists(st.integers(-7200, 36000), min_size=1, max_size=12), width=st.sampled_from([30, 60]))
    @settings(max_examples=50, deadline=None)
    def test_span_and_counts_match_a_per_trip_loop(self, seconds, width):
        starts = [START + timedelta(seconds=s) for s in seconds]
        trips = make_trips(starts)
        step = timedelta(minutes=width)

        def floor(t):
            return t.replace(minute=t.minute // width * width, second=0)

        assert aligned_span(trips, width) == (us(floor(min(starts))), us(floor(max(starts)) + step))
        end = START + timedelta(hours=4)
        series, oos = aggregate_slots(trips, width, (us(START), us(end)))
        counts = [0] * len(series)
        for t in starts:
            if START <= t < end:
                counts[(t - START) // step] += 1
        assert (series.counts.tolist(), oos) == (counts, len(starts) - sum(counts))

    def test_alignment_validation(self):
        with pytest.raises(ParameterError, match="aligned"):
            aggregate_slots(make_trips([]), 30, (us(START + timedelta(minutes=5)), us(START + timedelta(minutes=65))))
        with pytest.raises(ParameterError, match="whole number"):
            aggregate_slots(make_trips([]), 60, (us(START), us(START + timedelta(minutes=90))))
        with pytest.raises(ParameterError):
            aggregate_slots(make_trips([]), 45, (us(START), us(START + timedelta(minutes=90))))


def build(counts, width=30, **kw):
    slots = make_slots(counts, width=width)
    weather = kw.pop("weather", None) or weather_for(slots)
    calendar = kw.pop("calendar", [])
    return build_features(slots, weather, calendar, kw.pop("offset", 120), **kw)


class TestBuildFeatures:
    def test_constant_series_lags(self):
        n = 7 * 48 + 10
        matrix, dropped = build([5] * n)
        assert not len(dropped)
        assert matrix.n_rows == 10
        assert np.all(matrix.column("hour_history") == 5.0)
        assert np.all(matrix.column("week_history") == 5.0)
        assert np.all(matrix.y == 5.0)

    def test_hour_history_is_two_slots_back_at_width_30(self):
        n = 7 * 48 + 3
        counts = list(range(n))
        matrix, _ = build(counts)
        lag_week = 7 * 48
        # row i (slot index lag_week + i) looks 60 minutes = 2 slots back
        assert matrix.column("hour_history")[0] == counts[lag_week - 2]
        assert matrix.column("hour_history")[2] == counts[lag_week]

    def test_hour_history_one_slot_back_at_width_60(self):
        n = 7 * 24 + 3
        counts = list(range(n))
        matrix, _ = build(counts, width=60)
        lag_week = 7 * 24
        assert matrix.column("hour_history")[0] == counts[lag_week - 1]

    def test_weekly_periodic_week_history_equals_target(self):
        rng = np.random.default_rng(1)
        pattern = rng.integers(0, 50, size=336)
        counts = np.tile(pattern, 3)
        matrix, _ = build(counts.tolist())
        assert np.array_equal(matrix.column("week_history"), matrix.y)
        shifted = np.concatenate([counts[7 * 48 - 2: -2]])
        assert np.array_equal(matrix.column("hour_history"), shifted.astype(float))

    def test_one_hot_groups_sum_to_one(self):
        matrix, _ = build(list(range(7 * 48 + 48)))
        for group in ("hour_of_the_day", "month", "season", "day_of_week"):
            cols = [j for j, name in enumerate(matrix.column_names) if name.startswith(group + "=")]
            assert np.all(matrix.X[:, cols].sum(axis=1) == 1.0)

    def test_holiday_flag_local_date(self):
        cal = [CalendarEntry(date(2017, 5, 8), "holiday", "x")]
        matrix, _ = build([1] * (7 * 48 + 48), calendar=cal)
        local = timezone(timedelta(minutes=120))
        expected = [1.0 if from_us(s).astimezone(local).date() == date(2017, 5, 8) else 0.0
                    for s in matrix.slot_us]
        assert matrix.column("holiday").tolist() == expected
        assert sum(expected) > 0

    def test_weather_gap_drops_row(self):
        n = 7 * 48 + 4
        slots = make_slots([1] * n)
        gap = slot_start(slots, 7 * 48 + 2) // HOUR * HOUR
        weather = weather_for(slots, missing_hours={gap})
        matrix, dropped = build_features(slots, weather, [], 120)
        assert len(dropped) == 2  # both half-hour slots of the gap hour
        assert dropped.tolist() == [gap, gap + 30 * MINUTE]
        assert matrix.n_rows == n - 7 * 48 - 2

    def test_season_columns(self):
        matrix, _ = build([1] * (7 * 48 + 4))
        assert matrix.column("season=spring").sum() == matrix.n_rows
        assert matrix.column("season=summer").sum() == 0.0

    def test_row_timestamps_strictly_increasing(self):
        matrix, _ = build([1] * (7 * 48 + 20))
        assert matrix.slot_us.dtype == np.int64
        assert all(a < b for a, b in zip(matrix.slot_us, matrix.slot_us[1:]))

    @given(start_h=st.integers(0, 24 * 400), width=st.sampled_from([30, 60]), offset=st.integers(-720, 840),
           extra=st.integers(1, 60), gap=st.integers(0, 70), cover_next=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_rows_match_a_per_slot_datetime_loop(self, start_h, width, offset, extra, gap, cover_next):
        """Every stored row and the next row, rebuilt one slot at a time with datetime."""
        start = datetime(2016, 11, 1, tzinfo=UTC) + timedelta(hours=start_h)
        step = timedelta(minutes=width)
        per_hour = 60 // width
        lag_week = 7 * 24 * per_hour
        counts = np.random.default_rng(start_h).integers(0, 9, size=lag_week + extra)
        n_hours = (len(counts) + (1 if cover_next else 0) - 1) // per_hour + 1
        weather = {start + timedelta(hours=k): (10.0 + 0.5 * k, float(k % 3))
                   for k in range(n_hours) if k != 7 * 24 + gap}
        local_tz = timezone(timedelta(minutes=offset))
        holiday = (start + 8 * timedelta(days=1)).astimezone(local_tz).date()
        slots = make_slots(counts, width=width, start=start)
        table = weather_table([us(h) for h in weather], *zip(*weather.values()), 2.0)
        matrix, dropped = build_features(slots, table, [CalendarEntry(holiday, "holiday", "x")], offset)

        def hour_of(i):
            return (start + i * step).replace(minute=0)

        kept = [i for i in range(lag_week, len(counts)) if hour_of(i) in weather]
        assert dropped.tolist() == [us(start + i * step) for i in range(lag_week, len(counts)) if i not in kept]
        assert matrix.slot_us.tolist() == [us(start + i * step) for i in kept]
        assert matrix.y.tolist() == [float(counts[i]) for i in kept]
        months = sorted({f"{(start + i * step).astimezone(local_tz):%Y-%m}" for i in kept})
        assert [c for c in matrix.column_names if c.startswith("month=")] == [f"month={m}" for m in months]

        def row(i, temp, precip):
            local = (start + i * step).astimezone(local_tz)
            values = dict.fromkeys(matrix.column_names, 0.0)
            values["temperature"], values["precipitation"] = temp, precip
            values[f"hour_of_the_day={local.hour}"] = 1.0
            if f"{local:%Y-%m}" in months:
                values[f"month={local:%Y-%m}"] = 1.0
            season = ("winter" if local.month in (12, 1, 2) else "spring" if local.month <= 5
                      else "summer" if local.month <= 8 else "autumn")
            values[f"season={season}"] = 1.0
            values[f"day_of_week={DAY_NAMES[local.weekday()]}"] = 1.0
            values["holiday"] = float(local.date() == holiday)
            values["hour_history"], values["week_history"] = float(counts[i - per_hour]), float(counts[i - lag_week])
            return [values[c] for c in matrix.column_names]

        assert matrix.X.tolist() == [row(i, *weather[hour_of(i)]) for i in kept]
        if kept:
            nxt = kept[-1] + 1
            assert matrix.next_row.tolist() == row(nxt, *weather.get(hour_of(nxt), weather[hour_of(kept[-1])]))

    def test_month_columns_come_from_the_stored_rows(self):
        # the unstored first week is all March; every stored row is in April
        slots = make_slots([2] * (7 * 48 + 30), start=datetime(2017, 3, 25, 0, 0, tzinfo=UTC))
        matrix, _ = build_features(slots, weather_for(slots), [], 120)
        months = [j for j, c in enumerate(matrix.column_names) if c.startswith("month=")]
        assert [matrix.column_names[j] for j in months] == ["month=2017-04"]
        assert all(matrix.X[:, j].any() for j in months)


def toy_matrix(n=200, p_noise=3, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.normal(0, 1, n)
    cols = {"target_copy": y.copy(), "temperature": 0.7 * y + rng.normal(0, 0.5, n)}
    for k in range(p_noise):
        cols[f"noise{k}"] = rng.normal(0, 1, n)
    names = list(cols)
    X = np.column_stack([cols[c] for c in names])
    starts = us(START) + 30 * MINUTE * np.arange(n)
    return FeatureMatrix(X, y, names, starts, 30)


class TestFeatureTargetCorrelation:
    def test_duplicate_target_ranks_first(self):
        ranked = feature_target_correlation(toy_matrix())
        assert ranked[0].column == "target_copy"
        assert ranked[0].r == pytest.approx(1.0)

    def test_noise_column_near_zero(self):
        ranked = {c.column: c.r for c in feature_target_correlation(toy_matrix(n=10_000))}
        for k in range(3):
            assert abs(ranked[f"noise{k}"]) < 0.05

    def test_planted_signal_ranks_above_noise(self):
        ranked = [c.column for c in feature_target_correlation(toy_matrix(n=2000))]
        assert ranked.index("temperature") < min(ranked.index(f"noise{k}") for k in range(3))

    def test_zero_variance_reported_undefined(self):
        m = toy_matrix(n=50)
        m.X[:, m.column_names.index("noise0")] = 7.0
        ranked = feature_target_correlation(m)
        assert FeatureCorrelation("noise0", None) in ranked
        assert ranked[-1] == FeatureCorrelation("noise0", None)

    def test_zero_variance_columns_stay_last_in_column_order(self):
        m = toy_matrix(n=50)
        for name in ("noise2", "target_copy"):
            m.X[:, m.column_names.index(name)] = 7.0
        ranked = feature_target_correlation(m)
        assert ranked[-2:] == [FeatureCorrelation("target_copy", None), FeatureCorrelation("noise2", None)]
        defined = [abs(c.r) for c in ranked[:-2]]
        assert defined == sorted(defined, reverse=True) and len(defined) == 3


class TestChronologicalSplit:
    def test_eighty_twenty_arithmetic(self):
        plan = chronological_split(toy_matrix(n=20), "80/20")
        assert plan.train_rows == range(0, 16)
        assert plan.test_rows == range(16, 20)

    def test_hundred_rows_ninety_ten(self):
        plan = chronological_split(toy_matrix(n=100), "90/10")
        assert plan.train_rows == range(0, 90)

    def test_no_leakage(self):
        m = toy_matrix(n=60)
        for ratio in ("90/10", "80/20", "70/30", "60/40"):
            plan = chronological_split(m, ratio)
            assert max(m.slot_us[i] for i in plan.train_rows) < \
                min(m.slot_us[i] for i in plan.test_rows)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ParameterError):
            chronological_split(toy_matrix(n=19), "90/10")

    def test_unknown_ratio_rejected(self):
        with pytest.raises(ParameterError):
            chronological_split(toy_matrix(n=100), "50/50")

    @given(n=st.integers(25, 400), ratio=st.sampled_from(["90/10", "80/20", "70/30", "60/40"]))
    @settings(max_examples=50, deadline=None)
    def test_split_sizes(self, n, ratio):
        m = toy_matrix(n=n)
        plan = chronological_split(m, ratio)
        frac = int(ratio.split("/")[1]) / 100
        assert len(plan.test_rows) == int(np.floor(n * frac))
        assert len(plan.train_rows) + len(plan.test_rows) == n


class TestMinMaxScaler:
    def test_basic_scaling(self):
        m = toy_matrix(n=30)
        m.X[:, m.column_names.index("temperature")][:3] = [0.0, 5.0, 10.0]
        s = MinMaxScaler.fit(m, range(3))
        out = s.transform(m)
        assert out.column("temperature")[:3].tolist() == [0.0, 0.5, 1.0]

    def test_constant_column_maps_to_zero(self):
        m = toy_matrix(n=10)
        j = m.column_names.index("temperature")
        m.X[:, j] = 7.0
        s = MinMaxScaler.fit(m, range(10))
        assert np.all(s.transform(m).column("temperature") == 0.0)

    def test_target_round_trip(self):
        m = toy_matrix(n=50)
        s = MinMaxScaler.fit(m, range(40))
        back = s.inverse_target(s.scale_target(m.y[:40]))
        assert np.allclose(back, m.y[:40], atol=1e-9)


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        m, _ = build(list(range(7 * 48 + 30)))
        path = tmp_path / "features.csv"
        write_features_csv(m, path, **OPTIONS)
        back = read_features_csv(path)
        assert back.column_names == m.column_names
        assert np.array_equal(back.X, m.X)
        assert np.array_equal(back.y, m.y)
        assert back.slot_us.dtype == np.int64 and np.array_equal(back.slot_us, m.slot_us)
        assert back.width_minutes == 30
        assert np.array_equal(back.next_row, m.next_row)

    def test_sidecar_describes_the_build(self, tmp_path):
        m, _ = build(list(range(7 * 48 + 30)))
        write_features_csv(m, tmp_path / "features.csv", **OPTIONS)
        meta = json.loads((tmp_path / "features.json").read_text())
        assert meta == {"width_minutes": 30, **OPTIONS, "next_slot_start": "2017-05-09T01:00:00Z",
                        "next_row": m.next_row.tolist()}

    def test_missing_sidecar_is_a_missing_input(self, tmp_path):
        m, _ = build(list(range(7 * 48 + 30)))
        write_features_csv(m, tmp_path / "features.csv", **OPTIONS)
        (tmp_path / "features.json").unlink()
        with pytest.raises(MissingInputError) as err:
            read_features_csv(tmp_path / "features.csv")
        assert err.value.path == str(tmp_path / "features.json")

    def test_sidecar_row_must_match_the_columns(self, tmp_path):
        m, _ = build(list(range(7 * 48 + 30)))
        m.next_row = m.next_row[:-1]
        write_features_csv(m, tmp_path / "features.csv", **OPTIONS)
        with pytest.raises(SchemaError, match="next_row"):
            read_features_csv(tmp_path / "features.csv")


# finite float64 values, with signed zeros, subnormals, huge magnitudes and integers
CELLS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]),
                  st.integers(-2 ** 53, 2 ** 53).map(float))
FIRST_SECOND, LAST_SECOND = -62_135_596_800, 253_402_300_799  # 0001-01-01 and 9999-12-31, UTC


class TestCsvReaders:
    """`read_features_csv` reads a file by NumPy's C tokenizer and falls back to
    the row parser where the fast path cannot vouch for the file; either way
    it returns what the row parser gives, bit for bit."""

    @staticmethod
    def same_columns(a, b) -> bool:
        return a[0] == b[0] and all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
                                    for x, y in zip(a[1:], b[1:]))

    @given(data=st.data(), n=st.integers(2, 12), k=st.integers(1, 5), width=st.sampled_from([30, 60]))
    @settings(max_examples=40, deadline=None)
    def test_fast_path_is_the_row_parser_bit_for_bit(self, tmp_path_factory, data, n, k, width):
        cells = np.array(data.draw(st.lists(CELLS, min_size=n * (k + 1), max_size=n * (k + 1))))
        step = width * 60
        start = data.draw(st.integers(FIRST_SECOND, LAST_SECOND - n * step)) // step * step
        X, y = cells[:n * k].reshape(n, k), cells[n * k:]
        slot_us = (start + step * np.arange(n, dtype=np.int64)) * 1_000_000
        matrix = FeatureMatrix(X, y, [f"c{j}" for j in range(k)], slot_us, width, X[-1])
        path = tmp_path_factory.mktemp("csv") / "features.csv"
        write_features_csv(matrix, path, **OPTIONS)
        fast = _load_columns(path)
        assert fast is not None
        assert self.same_columns(fast, _parse_rows(path))
        assert self.same_columns(fast, (matrix.column_names, X, y, slot_us))
        with open(path.with_name("reference.csv"), "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f)  # the cell-by-cell rendering: the repr of each value
            w.writerow(matrix.column_names + ["target", "slot_start"])
            for x, target, stamp in zip(X, y, utc_strings(slot_us)):
                w.writerow([*(repr(float(v)) for v in x), repr(float(target)), stamp])
        assert path.read_bytes() == path.with_name("reference.csv").read_bytes()

    @pytest.mark.parametrize("change, fast", [
        (lambda row: '"' + row[:row.index(",")] + '"' + row[row.index(","):], False),
        (lambda row: "0_" + row, False),
        (lambda row: row.replace("T", " ", 1), False),
        (lambda row: row.replace("Z", "+00:00"), False),
        (lambda row: row + "\r\n", True),
    ], ids=["quoted-cell", "underscore-digit", "space-in-stamp", "offset-stamp", "blank-line"])
    def test_an_unusual_file_reads_as_the_row_parser_reads_it(self, tmp_path, change, fast):
        m, _ = build(list(range(7 * 48 + 30)))
        path = tmp_path / "features.csv"
        write_features_csv(m, path, **OPTIONS)
        lines = path.read_bytes().decode("utf-8").split("\r\n")
        lines[3] = change(lines[3])
        path.write_bytes("\r\n".join(lines).encode("utf-8"))
        assert (_load_columns(path) is not None) == fast
        back = read_features_csv(path)
        assert self.same_columns((back.column_names, back.X, back.y, back.slot_us), _parse_rows(path))
        assert np.array_equal(back.X, m.X) and np.array_equal(back.slot_us, m.slot_us)

    @pytest.mark.parametrize("cell, byte", [(0, "\x1c"), (1, "\x1d"), (-2, "\x1e"), (0, "\x1f")])
    def test_a_byte_loadtxt_takes_for_a_space_goes_to_the_row_parser(self, tmp_path, cell, byte):
        """`loadtxt` reads `4\\x1c` as 4.0; `float`, and so the row parser,
        refuses it: such a file raises the row parser's error, with its line."""
        m, _ = build(list(range(7 * 48 + 30)))
        path = tmp_path / "features.csv"
        write_features_csv(m, path, **OPTIONS)
        lines = path.read_bytes().decode("utf-8").split("\r\n")
        cells = lines[1].split(",")
        cells[cell] += byte
        lines[1] = ",".join(cells)
        path.write_bytes("\r\n".join(lines).encode("utf-8"))
        assert _load_columns(path) is None
        with pytest.raises(ParseError) as rows:
            _parse_rows(path)
        with pytest.raises(ParseError) as read:
            read_features_csv(path)
        assert str(read.value) == str(rows.value) and read.value.line == 2

OPTIONS = {"utc_offset_min": 120}


def varying_weather(slots: SlotSeries, n_slots: int, missing_hours=()):
    """One record per hour up to slot n_slots - 1, each with its own temperature and rain."""
    hours = range(slots.start_us // HOUR * HOUR, slot_start(slots, n_slots - 1) + 1, HOUR)
    kept = [k for k, h in enumerate(hours) if h not in missing_hours]
    return weather_table([hours[k] for k in kept], [10.0 + 0.25 * k for k in kept], [float(k % 3) for k in kept], 2.0)


class TestNextRow:
    """`next_row` is made by the same code as the stored rows: the next row of
    a series cut after slot k is row k of the uncut build."""

    @pytest.mark.parametrize("width", [30, 60])
    def test_next_row_of_a_cut_series_is_the_uncut_row(self, width):
        lag_week = 7 * 24 * 60 // width
        counts = np.random.default_rng(width).integers(0, 40, size=lag_week + 12)
        full = make_slots(counts, width=width, start=datetime(2017, 5, 1, 18, 0, tzinfo=UTC))
        weather = varying_weather(full, len(counts))
        calendar = [CalendarEntry(date(2017, 5, 8), "holiday", "x")]
        uncut, _ = build_features(full, weather, calendar, 120)
        assert uncut.column("holiday").any() and not uncut.column("holiday").all()
        for k in range(lag_week + 1, len(counts)):
            cut, _ = build_features(make_slots(counts[:k], width=width, start=from_us(full.start_us)),
                                    weather, calendar, 120)
            assert cut.column_names == uncut.column_names
            assert cut.slot_us[-1] + width * MINUTE == uncut.slot_us[k - lag_week]
            assert np.array_equal(cut.next_row, uncut.X[k - lag_week]), k

    def test_uncovered_next_hour_carries_the_last_weather_forward(self):
        counts = np.arange(7 * 24 + 12)
        full = make_slots(counts, width=60)
        k = len(counts) - 3  # the cut series ends at slot k - 1; slot k's hour has no record
        covered = varying_weather(full, len(counts))
        gap = varying_weather(full, len(counts), missing_hours={slot_start(full, k)})
        uncut, _ = build_features(full, covered, [], 120)
        cut, dropped = build_features(make_slots(counts[:k], width=60), gap, [], 120)
        assert not len(dropped)
        row = k - 7 * 24
        assert cut.next_row[:2].tolist() == uncut.X[row - 1, :2].tolist()  # the last kept row's weather
        assert cut.next_row[:2].tolist() != uncut.X[row, :2].tolist()
        assert np.array_equal(cut.next_row[2:], uncut.X[row, 2:])

    def test_next_slot_in_a_new_month_sets_no_month_column(self):
        start = datetime(2017, 5, 24, 14, 0, tzinfo=UTC)  # the last slot ends at local midnight, 1 June
        counts = [3] * (7 * 24 + 8)
        slots = make_slots(counts, width=60, start=start)
        matrix, _ = build_features(slots, varying_weather(slots, len(counts) + 1), [], 120)
        assert [c for c in matrix.column_names if c.startswith("month=")] == ["month=2017-05"]
        assert matrix.X[:, matrix.column_names.index("month=2017-05")].all()
        assert matrix.next_row[matrix.column_names.index("month=2017-05")] == 0.0
        assert matrix.next_row[matrix.column_names.index("season=summer")] == 1.0
