import json

import numpy as np
import pytest

from velotrace.errors import InputError, TrainingError
from velotrace.models import LstmParams, LstmRegressor, build_windows, metrics


def gradcheck(model: LstmRegressor, X, y, step=1e-4, rel_tol=1e-4):
    """Central finite differences against analytic BPTT gradients."""
    _, grads = model.loss_and_grads(X, y)
    worst = 0.0
    for key, w in model.weights.items():
        flat = w.reshape(-1)
        gflat = grads[key].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp, _ = model.loss_and_grads(X, y)
            flat[i] = orig - step
            lm, _ = model.loss_and_grads(X, y)
            flat[i] = orig
            numeric = (lp - lm) / (2 * step)
            denom = max(abs(numeric), abs(gflat[i]), 1e-8)
            worst = max(worst, abs(numeric - gflat[i]) / denom)
    return worst


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    model = LstmRegressor(2, LstmParams(hidden_size=3, lookback=5, epochs=0), seed=1)
    X = rng.normal(0, 1, size=(4, 5, 2))
    y = rng.normal(0, 1, size=4)
    assert gradcheck(model, X, y) < 1e-4


def test_same_seed_bitwise_identical_weights():
    rng = np.random.default_rng(5)
    X = rng.uniform(0, 1, size=(40, 6, 3))
    y = rng.uniform(0, 1, size=40)
    params = LstmParams(hidden_size=4, lookback=6, epochs=3, batch_size=8)
    a = LstmRegressor(3, params, seed=9).fit(X, y)
    b = LstmRegressor(3, params, seed=9).fit(X, y)
    for key in a.weights:
        assert a.weights[key].tobytes() == b.weights[key].tobytes()


def test_constant_series_converges_to_constant():
    n, L = 120, 8
    rows = np.full((n, 2), 0.3)
    target = np.full(n, 0.5)
    W, t = build_windows(rows, target, L, range(L, n))
    params = LstmParams(hidden_size=8, lookback=L, epochs=40, batch_size=16, learning_rate=5e-3)
    model = LstmRegressor(2, params, seed=0).fit(W, t)
    pred = model.predict(W)
    assert np.all(np.abs(pred - 0.5) < 0.025)  # within 5% of the constant


def test_noiseless_daily_sinusoid_r2():
    period = 48  # half-hour steps over one day
    n = period * 12
    t = np.arange(n)
    y = 0.5 + 0.4 * np.sin(2 * np.pi * t / period)
    rows = np.column_stack([np.roll(y, 1)])  # feature: previous value
    split = int(n * 0.8)
    L = 48
    Wtr, ttr = build_windows(rows, y, L, range(L, split))
    Wte, tte = build_windows(rows, y, L, range(split, n))
    params = LstmParams(hidden_size=16, lookback=L, epochs=60, batch_size=32, learning_rate=3e-3)
    model = LstmRegressor(1, params, seed=3).fit(Wtr, ttr)
    m = metrics(tte, model.predict(Wte))
    assert m.r2 is not None and m.r2 >= 0.95


def test_divergence_raises_naming_epoch():
    rng = np.random.default_rng(2)
    X = rng.normal(0, 1, size=(30, 4, 2))
    y = rng.normal(0, 1, size=30)
    # Adam steps are bounded by the learning rate, so the rate itself must be
    # large enough that squared errors overflow
    params = LstmParams(hidden_size=4, lookback=4, epochs=10, batch_size=8, learning_rate=1e200)
    with pytest.raises(TrainingError, match="epoch"):
        with np.errstate(all="ignore"):
            LstmRegressor(2, params, seed=0).fit(X, y)


def test_window_history_validation():
    rows = np.zeros((5, 2))
    y = np.zeros(5)
    with pytest.raises(InputError):
        build_windows(rows, y, 8, range(8, 5))  # empty target range
    with pytest.raises(InputError):
        build_windows(rows, y, 3, [2])  # target lacks history


def test_window_stacking_shapes():
    rows = np.arange(20, dtype=float).reshape(10, 2)
    y = np.arange(10, dtype=float)
    W, t = build_windows(rows, y, 3, [3, 7])
    assert W.shape == (2, 3, 2)
    assert np.array_equal(W[0], rows[0:3])
    assert np.array_equal(W[1], rows[4:7])
    assert t.tolist() == [3.0, 7.0]


def test_state_round_trip():
    rng = np.random.default_rng(8)
    X = rng.uniform(0, 1, size=(20, 4, 3))
    params = LstmParams(hidden_size=5, lookback=4, epochs=0)
    model = LstmRegressor(3, params, seed=4)
    state = json.loads(json.dumps(model.state()))
    clone = LstmRegressor.from_state(params, state, seed=99)
    assert clone.state() == state
    assert np.array_equal(model.predict(X), clone.predict(X))
