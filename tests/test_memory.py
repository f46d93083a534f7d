"""Memory scaling, measured with tracemalloc: NumPy reports its buffers to it,
so these tests time nothing and give the same bytes on every run."""

import csv
import tracemalloc
from itertools import repeat

import numpy as np

from velotrace.features import FeatureMatrix
from velotrace.ingest import (POINT_HEADER, TRIP_HEADER, PointTable, TripTable, assemble_trips, parse_points,
                              write_trips_csv)
from velotrace.models.evaluate import ModelSpec, predict_rows, train_model
from velotrace.models.lstm import LstmParams, LstmRegressor, build_windows
from velotrace.spatial import build_density_grid
from velotrace.util import utc_strings, write_csv

from conftest import T0, us


def traced_peak(fn) -> int:
    """Bytes allocated at the peak of `fn()` beyond what was allocated before
    the call; the result counts as allocated."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def synthetic_points(n=200_000, trip=50, missing=0.05, seed=0) -> PointTable:
    """A table of n points in trips of `trip` points 5 s apart, rows shuffled.
    A `missing` share of the rows lacks a coordinate."""
    rng = np.random.default_rng(seed)
    k = n // trip
    activity = np.repeat(np.arange(k, dtype=np.int32), trip)
    t = us(T0) + np.repeat(rng.integers(0, 30 * 86_400, k) * 1_000_000, trip) + np.tile(
        np.arange(trip) * 5_000_000, k)
    lat = 44.45 + rng.uniform(0, 0.09, n)
    lon = 11.28 + rng.uniform(0, 0.12, n)
    lat[rng.random(n) < missing] = np.nan
    lon[np.isnan(lat)] = np.nan
    perm = rng.permutation(n)
    ids = np.array([f"A{i:06d}" for i in range(k)])
    return PointTable(ids, activity[perm], t[perm], lat[perm], lon[perm])


def test_parse_points_keeps_only_the_columns_of_the_table(tmp_path):
    # Keeping accuracy and speed too, the peak was 53.9 bytes a point on this
    # file; the table's own columns take 28.
    table = synthetic_points(n=40_000)
    path = tmp_path / "points.csv"
    coords = (np.where(np.isnan(v), "", v.astype(str)).tolist() for v in (table.lat, table.lon))
    write_csv(path, POINT_HEADER, zip(table.ids[table.activity].tolist(), utc_strings(table.t), *coords,
                                      repeat("5.0"), repeat("3.0")))
    per_point = traced_peak(lambda: parse_points(path)) / len(table)
    assert per_point <= 44


def test_assemble_trips_holds_a_few_arrays_beyond_its_input():
    # With a dense gap repair and full-length sorted columns and angles, the
    # peak was 144 bytes a point on this table, about a dozen 8-byte arrays
    # at once; the bound is under half of that.
    table = synthetic_points()
    per_point = traced_peak(lambda: assemble_trips(table)) / len(table)
    assert per_point <= 68


def test_build_density_grid_bins_a_block_of_points_at_a_time():
    # Binning every point at once peaked at 24 bytes a point on this table;
    # the bound holds the arrays of one block of points, not of all of them.
    table = synthetic_points()
    bbox = (44.45, 11.28, 44.54, 11.40)
    per_point = traced_peak(lambda: build_density_grid(table.lat, table.lon, bbox, 250.0)) / len(table)
    assert per_point <= 12


def lstm_matrix(n_rows, D=8, seed=3) -> FeatureMatrix:
    rng = np.random.default_rng(seed)
    return FeatureMatrix(rng.uniform(0, 1, (n_rows, D)), rng.uniform(0, 5, n_rows), [f"c{j}" for j in range(D)],
                         us(T0) + 3_600_000_000 * np.arange(n_rows), 60, rng.uniform(0, 1, D))


LOOKBACK, N = 48, 64


def test_lstm_fit_memory_does_not_grow_with_the_windows():
    """Beyond the matrix, fitting on 4N windows holds what fitting on N does:
    each batch gathers its windows into the workspace."""
    m = lstm_matrix(4 * N + LOOKBACK)
    params = LstmParams(hidden_size=8, lookback=LOOKBACK, epochs=1, batch_size=32)

    def fit(n):
        targets = np.arange(LOOKBACK, LOOKBACK + n)
        return traced_peak(lambda: LstmRegressor(m.X.shape[1], params, seed=0).fit(
            *build_windows(m.X, m.y, LOOKBACK, targets)))

    small, large = fit(N), fit(4 * N)
    assert large <= 1.05 * small, (small, large)


def test_lstm_fit_on_float32_windows_holds_about_half_the_bytes():
    """The workspace, weights, gradients and Adam moments follow the windows'
    dtype, so a float32 fit peaks at about half of the same fit in float64."""
    m = lstm_matrix(N + LOOKBACK)
    params = LstmParams(hidden_size=8, lookback=LOOKBACK, epochs=1, batch_size=32)
    targets = np.arange(LOOKBACK, LOOKBACK + N)

    def fit(X):
        return traced_peak(lambda: LstmRegressor(X.shape[1], params, seed=0).fit(
            *build_windows(X, m.y, LOOKBACK, targets)))

    single, double = fit(m.X.astype(np.float32)), fit(m.X)
    assert single <= 0.6 * double, (single, double)


def test_lstm_predict_rows_memory_does_not_grow_with_the_windows():
    m = lstm_matrix(4 * N + LOOKBACK)
    spec = ModelSpec("lstm", {"hidden_size": 8, "lookback": LOOKBACK, "epochs": 0, "batch_size": 32})
    tm = train_model(m, range(m.n_rows), spec)

    def predict(n):
        return traced_peak(lambda: predict_rows(tm, m, np.arange(m.n_rows + 1 - n, m.n_rows + 1)))

    small, large = predict(N), predict(4 * N)
    assert large <= 1.05 * small, (small, large)


def synthetic_trips(n=20_000, seed=0) -> TripTable:
    """A table of n trips with random times, end points and lengths."""
    rng = np.random.default_rng(seed)
    start = us(T0) + rng.integers(0, 30 * 86_400, n) * 1_000_000
    duration = rng.integers(60, 3_600, n).astype(np.float64)
    distance = rng.uniform(200.0, 8_000.0, n)
    points = [np.column_stack((44.45 + rng.uniform(0, 0.09, n), 11.28 + rng.uniform(0, 0.12, n))) for _ in range(2)]
    return TripTable(np.array([f"A{i:06d}" for i in range(n)]), rng.integers(3, 200, n), start,
                     start + (duration * 1_000_000).astype(np.int64), *points, distance, duration, distance / duration)


def test_write_trips_csv_renders_a_block_of_trips_at_a_time(tmp_path):
    # Rendering every column as a Python list first peaked at 9.2 MB here.
    trips = synthetic_trips()
    path = tmp_path / "trips.csv"
    assert traced_peak(lambda: write_trips_csv(trips, path)) < 2_000_000
    with open(path, encoding="utf-8", newline="") as f:
        header, *rows = csv.reader(f)
    assert header == TRIP_HEADER and [r[0] for r in rows] == trips.trip_id.tolist()
    assert [r[1] for r in rows] == utc_strings(trips.start_us)
    floats = np.column_stack((trips.start_point, trips.end_point, trips.distance, trips.duration, trips.avg_speed))
    assert np.array_equal(np.array([r[3:10] for r in rows], dtype=np.float64), floats)
