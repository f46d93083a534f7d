import json
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from velotrace.errors import InputError, SchemaError, TrainingError
from velotrace.models.evaluate import ModelSpec, TrainedModel
from velotrace.models.lstm import LstmParams, LstmRegressor, build_windows
from velotrace.models.metrics import metrics
from velotrace.models.serialize import load_artifact, model_artifact

from conftest import child_env


# The step-by-step kernel the time-major one replaced, kept as the reference:
# per step it concatenates [x_t, h], multiplies by the packed W, and applies
# a masked sigmoid to the three sigmoid gates.
def reference_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_forward(model: LstmRegressor, X):
    """X: (B, T, D). Returns (yhat (B,), cache for backprop)."""
    B, T, D = X.shape
    H = model.params.hidden_size
    W, b = model.weights["W"], model.weights["b"]
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    cache = []
    for t in range(T):
        xh = np.concatenate([X[:, t, :], h], axis=1)
        z = xh @ W + b
        i = reference_sigmoid(z[:, :H])
        f = reference_sigmoid(z[:, H:2 * H])
        g = np.tanh(z[:, 2 * H:3 * H])
        o = reference_sigmoid(z[:, 3 * H:])
        c_prev = c
        c = f * c_prev + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        cache.append((xh, i, f, g, o, c_prev, tanh_c))
    yhat = h @ model.weights["w_out"] + model.weights["b_out"][0]
    cache.append(h)
    return yhat, cache


def reference_loss_and_grads(model: LstmRegressor, X, y):
    """Mean squared error over the batch plus gradients for every weight."""
    B, T, D = X.shape
    H = model.params.hidden_size
    yhat, cache = reference_forward(model, X)
    h_last = cache[-1]
    err = yhat - y
    loss = float((err * err).mean())

    dyhat = 2.0 * err / B
    grads = {
        "w_out": h_last.T @ dyhat,
        "b_out": np.array([dyhat.sum()]),
        "W": np.zeros_like(model.weights["W"]),
        "b": np.zeros_like(model.weights["b"]),
    }
    W = model.weights["W"]
    dh = np.outer(dyhat, model.weights["w_out"])
    dc_next = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        xh, i, f, g, o, c_prev, tanh_c = cache[t]
        do = dh * tanh_c
        dc = dh * o * (1.0 - tanh_c * tanh_c) + dc_next
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dz = np.concatenate([
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            dg * (1.0 - g * g),
            do * o * (1.0 - o),
        ], axis=1)
        grads["W"] += xh.T @ dz
        grads["b"] += dz.sum(axis=0)
        dxh = dz @ W.T
        dh = dxh[:, D:]
        dc_next = dc * f
    return loss, grads


class ReferenceLstm(LstmRegressor):
    """Trains through the reference kernel."""

    def loss_and_grads(self, X, y):
        return reference_loss_and_grads(self, X, y)


def random_model(B, T, D, H, seed=0, **params):
    """A model with every weight perturbed off its initial values, and a batch for it."""
    rng = np.random.default_rng(seed)
    model = LstmRegressor(D, LstmParams(hidden_size=H, lookback=T, **params), seed=seed)
    for w in model.weights.values():
        w += rng.normal(0.0, 0.5, size=w.shape)
    return model, rng.uniform(0.0, 1.0, size=(B, T, D)), rng.normal(0.0, 1.0, size=B)


def arrays_outside_weights(model) -> list[str]:
    """The model's attributes, other than its weights, that hold a NumPy array."""
    def holds(v):
        if isinstance(v, np.ndarray):
            return True
        if isinstance(v, dict):
            return any(holds(x) for x in v.values())
        if isinstance(v, (list, tuple)):
            return any(holds(x) for x in v)
        return hasattr(v, "__dict__") and holds(vars(v))
    return [k for k, v in vars(model).items() if k != "weights" and holds(v)]


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


@pytest.mark.parametrize("B,T,D,H", [(1, 1, 1, 1), (7, 5, 3, 4), (32, 48, 41, 32)])
def test_kernel_matches_reference(B, T, D, H):
    model, X, y = random_model(B, T, D, H)
    loss, grads = model.loss_and_grads(X, y)
    ref_loss, ref_grads = reference_loss_and_grads(model, X, y)
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    assert grads.keys() == ref_grads.keys()
    for key, ref in ref_grads.items():
        assert grads[key].shape == ref.shape
        assert np.max(np.abs(grads[key] - ref)) <= 1e-12 * np.max(np.abs(ref)), key


# float32 rounds each operation at 2**-24; over 48 steps of 41-wide inputs and
# 32-wide state, a few hundred such roundings stay below this relative error
FLOAT32_TOL = 100 * np.finfo(np.float32).eps


@pytest.mark.parametrize("B,T,D,H", [(7, 5, 3, 4), (32, 48, 41, 32)])
def test_float32_kernel_matches_reference(B, T, D, H):
    """The kernel in single precision: float32 weights and windows give float32
    loss terms and gradients within `FLOAT32_TOL` of the float64 reference."""
    model, X, y = random_model(B, T, D, H)
    ref_loss, ref_grads = reference_loss_and_grads(model, X, y)
    model.weights = {k: w.astype(np.float32) for k, w in model.weights.items()}
    loss, grads = model.loss_and_grads(X.astype(np.float32), y.astype(np.float32))
    assert loss == pytest.approx(ref_loss, rel=FLOAT32_TOL)
    for key, ref in ref_grads.items():
        assert grads[key].dtype == np.float32 and grads[key].shape == ref.shape, key
        assert np.max(np.abs(grads[key] - ref)) <= FLOAT32_TOL * np.max(np.abs(ref)), key
    pred = model.predict(X.astype(np.float32))
    ref_pred = reference_forward(model, X.astype(np.float32).astype(np.float64))[0]
    assert pred.dtype == np.float32
    assert np.max(np.abs(pred - ref_pred)) <= FLOAT32_TOL * np.max(np.abs(ref_pred))


def test_fit_computes_in_the_dtype_of_its_windows():
    """Float32 windows train float32 weights; float64 and integer windows
    train float64 ones. The float32 fit follows the float64 one closely."""
    rng = np.random.default_rng(13)
    X = rng.uniform(0, 1, size=(40, 6, 3))
    y = rng.uniform(0, 1, size=40)
    params = LstmParams(hidden_size=4, lookback=6, epochs=5, batch_size=8)
    single = LstmRegressor(3, params, seed=9).fit(X.astype(np.float32), y)
    double = LstmRegressor(3, params, seed=9).fit(X, y)
    assert {w.dtype for w in single.weights.values()} == {np.dtype(np.float32)}
    assert {w.dtype for w in double.weights.values()} == {np.dtype(np.float64)}
    assert LstmRegressor(3, params, seed=9).fit((X > 0.5).astype(np.int64), y).dtype == np.float64
    assert single.train_loss == pytest.approx(double.train_loss, rel=1e-4)
    for key, w in double.weights.items():
        np.testing.assert_allclose(single.weights[key], w, rtol=0, atol=1e-4)


def test_predict_beyond_batch_size_matches_reference():
    model, X, _ = random_model(23, 6, 3, 5, batch_size=4)
    pred = model.predict(X)
    ref = reference_forward(model, X)[0]
    assert pred.shape == (23,)
    assert np.max(np.abs(pred - ref)) <= 1e-12 * np.max(np.abs(ref))


class RecordingLstm(LstmRegressor):
    """Records, at every batch, which attributes besides the weights hold arrays."""

    def loss_and_grads(self, X, y):
        self.seen = arrays_outside_weights(self)
        return super().loss_and_grads(X, y)


@pytest.mark.parametrize("n,batch_size", [(21, 8), (5, 32)])
def test_fit_workspace_edge_cases(n, batch_size):
    """A short last batch, and a batch larger than the window count: same-seed
    fits stay bitwise identical, follow the reference kernel's training, and
    leave no workspace on the model."""
    rng = np.random.default_rng(11)
    X = rng.uniform(0, 1, size=(n, 6, 3))
    y = rng.uniform(0, 1, size=n)
    params = LstmParams(hidden_size=4, lookback=6, epochs=4, batch_size=batch_size)
    a = RecordingLstm(3, params, seed=9).fit(X, y)
    b = LstmRegressor(3, params, seed=9).fit(X, y)
    ref = ReferenceLstm(3, params, seed=9).fit(X, y)
    assert a.seen == ["_workspace"]
    del a.seen
    for model in (a, b):
        assert arrays_outside_weights(model) == []
    for key in a.weights:
        assert a.weights[key].tobytes() == b.weights[key].tobytes()
        np.testing.assert_allclose(a.weights[key], ref.weights[key], rtol=0, atol=1e-12)
    assert a.train_loss == pytest.approx(ref.train_loss, rel=1e-12)


def test_fit_meta_reports_the_loss_curve():
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 1, size=(20, 4, 2))
    y = rng.uniform(0, 1, size=20)
    model = LstmRegressor(2, LstmParams(hidden_size=3, lookback=4, epochs=5, batch_size=8), seed=1).fit(X, y)
    meta = model.fit_meta()
    assert len(meta["train_loss"]) == meta["epochs_run"] == 5
    assert meta["train_loss"][-1] == meta["final_train_loss"]
    assert all(isinstance(v, float) for v in meta["train_loss"])
    untrained = LstmRegressor(2, LstmParams(hidden_size=3, lookback=4, epochs=0), seed=1).fit(X, y)
    assert untrained.fit_meta() == {"epochs_run": 0, "final_train_loss": None, "train_loss": []}


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
        build_windows(rows, y, 3, [1])  # target lacks history: its window would start at row -1


def gathered(W) -> np.ndarray:
    """The windows of a `Windows` as one (N, T, D) array, through its gather."""
    N, T, D = W.shape
    out = np.full((T, N, D), np.nan)
    W.gather(out)
    return out.swapaxes(0, 1)


def test_window_stacking_shapes():
    rows = np.arange(20, dtype=float).reshape(10, 2)
    y = np.arange(10, dtype=float)
    W, t = build_windows(rows, y, 3, [3, 7])
    assert W.shape == (2, 3, 2)
    assert np.array_equal(gathered(W)[0], rows[1:4])  # a window ends at its target's row
    assert np.array_equal(gathered(W)[1], rows[5:8])
    assert t.tolist() == [3.0, 7.0]


def test_windows_match_stacked_slices():
    rng = np.random.default_rng(6)
    rows = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    targets = [29, 5, 17, 5, 12]
    W, t = build_windows(rows, y, 5, targets)
    stacked = np.stack([rows[j - 4:j + 1] for j in targets])
    assert W.shape == stacked.shape == gathered(W).shape
    assert gathered(W).tobytes() == stacked.tobytes()
    assert gathered(W[[4, 0]]).tobytes() == stacked[[4, 0]].tobytes()
    assert gathered(W[1:3]).tobytes() == stacked[1:3].tobytes()
    assert t.tolist() == y[targets].tolist()


@pytest.mark.parametrize("n,batch_size", [(37, 8), (5, 32)])
def test_windows_train_and_predict_as_stacked_windows(n, batch_size):
    """Windows gathered batch by batch give the weights, losses and
    predictions of the same windows stacked into one array, bit for bit."""
    rng = np.random.default_rng(12)
    rows = rng.uniform(0, 1, size=(n + 6, 3))
    y = rng.uniform(0, 1, size=n + 6)
    targets = rng.permutation(np.arange(6, n + 6))
    W, t = build_windows(rows, y, 6, targets)
    stacked = np.stack([rows[j - 5:j + 1] for j in targets])
    params = LstmParams(hidden_size=4, lookback=6, epochs=3, batch_size=batch_size)
    a = LstmRegressor(3, params, seed=9).fit(W, t)
    b = LstmRegressor(3, params, seed=9).fit(stacked, t)
    for key in a.weights:
        assert a.weights[key].tobytes() == b.weights[key].tobytes()
    assert a.train_loss == b.train_loss
    assert a.predict(W).tobytes() == b.predict(stacked).tobytes()


def test_state_round_trip():
    rng = np.random.default_rng(8)
    X = rng.uniform(0, 1, size=(20, 4, 3))
    params = LstmParams(hidden_size=5, lookback=4, epochs=0)
    model = LstmRegressor(3, params, seed=4)
    state = json.loads(json.dumps(model.state()))
    clone = LstmRegressor.from_state(params, state, seed=99)
    assert clone.state() == state
    assert np.array_equal(model.predict(X), clone.predict(X))


def test_state_records_the_dtype():
    """A float32 model saves and restores float32 weights, bit for bit; an
    artifact whose state lacks the dtype is refused."""
    rng = np.random.default_rng(8)
    X = rng.uniform(0, 1, size=(20, 4, 3)).astype(np.float32)
    params = LstmParams(hidden_size=5, lookback=4, epochs=2, batch_size=8)
    model = LstmRegressor(3, params, seed=4).fit(X, rng.uniform(0, 1, size=20))
    state = json.loads(json.dumps(model.state()))
    assert state["dtype"] == "float32"
    clone = LstmRegressor.from_state(params, state, seed=4)
    for key, w in model.weights.items():
        assert clone.weights[key].dtype == np.float32 and clone.weights[key].tobytes() == w.tobytes()
    assert model.predict(X).tobytes() == clone.predict(X).tobytes()
    with pytest.raises(ValueError, match="dtype"):
        LstmRegressor.from_state(params, {**state, "dtype": "int8"}, seed=4)
    doc = model_artifact(TrainedModel(ModelSpec("lstm", asdict(params), 4), model, None, {}), ["a", "b", "c"])
    del doc["state"]["dtype"]
    with pytest.raises(SchemaError, match="model artifact lacks field 'dtype'"):
        load_artifact(json.loads(json.dumps(doc)))


def test_loading_a_state_draws_no_random_weights():
    """`from_state` builds the model without numpy.random, which a fresh
    interpreter then never imports to predict."""
    params = LstmParams(hidden_size=3, lookback=4, epochs=0)
    state = LstmRegressor(2, params, seed=1).state()
    script = (
        "import json, sys\n"
        "import numpy as np\n"
        "from velotrace.models.lstm import LstmParams, LstmRegressor\n"
        f"model = LstmRegressor.from_state(LstmParams(hidden_size=3, lookback=4, epochs=0), "
        f"json.loads({json.dumps(json.dumps(state))}), seed=1)\n"
        "model.predict(np.zeros((2, 4, 2)))\n"
        "print('numpy.random' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True, env=child_env())
    assert out.stdout.strip() == "False"
