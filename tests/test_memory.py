"""Memory scaling, measured with tracemalloc: NumPy reports its buffers to it,
so these tests time nothing and give the same bytes on every run."""

import tracemalloc

import numpy as np

from velotrace.features import FeatureMatrix
from velotrace.ingest import PointTable, assemble_trips
from velotrace.models import LstmParams, LstmRegressor, ModelSpec, build_windows, predict_rows, train_model

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
    A `missing` share of the rows lacks a coordinate; another share of each
    of speed and accuracy is absent too, independently."""
    rng = np.random.default_rng(seed)
    k = n // trip
    activity = np.repeat(np.arange(k, dtype=np.int32), trip)
    t = us(T0) + np.repeat(rng.integers(0, 30 * 86_400, k) * 1_000_000, trip) + np.tile(
        np.arange(trip) * 5_000_000, k)
    lat = 44.45 + rng.uniform(0, 0.09, n)
    lon = 11.28 + rng.uniform(0, 0.12, n)
    lat[rng.random(n) < missing] = np.nan
    lon[np.isnan(lat)] = np.nan
    accuracy, speed = rng.uniform(3, 10, n), rng.uniform(0, 8, n)
    for column in (accuracy, speed):
        column[rng.random(n) < missing] = np.nan
    perm = rng.permutation(n)
    ids = np.array([f"A{i:06d}" for i in range(k)])
    return PointTable(ids, activity[perm], t[perm], lat[perm], lon[perm], accuracy[perm], speed[perm])


def test_assemble_trips_holds_a_few_arrays_beyond_its_input():
    # With a dense gap repair and full-length sorted columns and angles, the
    # peak was 144 bytes a point on this table, about a dozen 8-byte arrays
    # at once; the bound is under half of that.
    table = synthetic_points()
    per_point = traced_peak(lambda: assemble_trips(table)) / len(table)
    assert per_point <= 68


def lstm_matrix(n_rows, D=8, seed=3) -> FeatureMatrix:
    rng = np.random.default_rng(seed)
    return FeatureMatrix(rng.uniform(0, 1, (n_rows, D)), rng.uniform(0, 5, n_rows), [f"c{j}" for j in range(D)],
                         us(T0) + 3_600_000_000 * np.arange(n_rows), 60)


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


def test_lstm_predict_rows_memory_does_not_grow_with_the_windows():
    m = lstm_matrix(4 * N + LOOKBACK)
    spec = ModelSpec("lstm", {"hidden_size": 8, "lookback": LOOKBACK, "epochs": 0, "batch_size": 32})
    tm = train_model(m, range(m.n_rows), spec)

    def predict(n):
        return traced_peak(lambda: predict_rows(tm, m, np.arange(m.n_rows + 1 - n, m.n_rows + 1)))

    small, large = predict(N), predict(4 * N)
    assert large <= 1.05 * small, (small, large)
