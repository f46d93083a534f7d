"""Single-layer LSTM regressor trained by backpropagation through time.

Gate order inside the packed weight matrix is (input, forget, candidate,
output); the cell follows c_t = f*c_{t-1} + i*g, h_t = o*tanh(c_t), with a
linear head reading the scalar prediction off the last hidden state. Windows
of the feature rows of `lookback` consecutive time slots predict the count of
the slot that follows the window; `evaluate.scorable` decides which targets
have such a window. Training uses squared loss and Adam; every random choice
(weight init, batch shuffling) comes from the seed, so learned weights are
bitwise reproducible."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InputError, ParameterError, TrainingError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class LstmParams:
    hidden_size: int = 32
    lookback: int = 48
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 1e-3

    def validate(self) -> None:
        if self.hidden_size < 1:
            raise ParameterError(f"hidden_size must be >= 1, got {self.hidden_size}")
        if self.lookback < 1:
            raise ParameterError(f"lookback must be >= 1, got {self.lookback}")
        if self.epochs < 0:
            raise ParameterError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ParameterError(f"learning_rate must be positive, got {self.learning_rate}")


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def build_windows(X: np.ndarray, y: np.ndarray, lookback: int, targets) -> tuple[np.ndarray, np.ndarray]:
    """Stack sliding windows: target row j is predicted from rows j-lookback..j-1."""
    targets = np.asarray(list(targets), dtype=np.int64)
    if targets.size == 0:
        raise InputError(f"sequence shorter than lookback+1 ({lookback + 1}): no usable windows")
    if targets.min() < lookback:
        raise InputError(f"target row {int(targets.min())} lacks {lookback} rows of history")
    W = np.stack([X[j - lookback:j] for j in targets])
    return W, y[targets]


class LstmRegressor:
    def __init__(self, input_size: int, params: LstmParams, seed: int):
        params.validate()
        self.input_size = input_size
        self.params = params
        self.seed = seed
        self._rng = np.random.default_rng((seed,))
        H, D = params.hidden_size, input_size
        scale = 1.0 / np.sqrt(D + H)
        self.weights = {
            "W": self._rng.normal(0.0, scale, size=(D + H, 4 * H)),
            "b": np.zeros(4 * H),
            "w_out": self._rng.normal(0.0, scale, size=H),
            "b_out": np.zeros(1),
        }
        self.weights["b"][H:2 * H] = 1.0  # forget-gate bias
        self.epochs_run = 0
        self.final_train_loss: float | None = None

    def _forward(self, X: np.ndarray):
        """X: (B, T, D). Returns (yhat (B,), cache for backprop)."""
        B, T, D = X.shape
        H = self.params.hidden_size
        W, b = self.weights["W"], self.weights["b"]
        h = np.zeros((B, H))
        c = np.zeros((B, H))
        cache = []
        for t in range(T):
            xh = np.concatenate([X[:, t, :], h], axis=1)
            z = xh @ W + b
            i = _sigmoid(z[:, :H])
            f = _sigmoid(z[:, H:2 * H])
            g = np.tanh(z[:, 2 * H:3 * H])
            o = _sigmoid(z[:, 3 * H:])
            c_prev = c
            c = f * c_prev + i * g
            tanh_c = np.tanh(c)
            h = o * tanh_c
            cache.append((xh, i, f, g, o, c_prev, tanh_c))
        yhat = h @ self.weights["w_out"] + self.weights["b_out"][0]
        cache.append(h)
        return yhat, cache

    def loss_and_grads(self, X: np.ndarray, y: np.ndarray):
        """Mean squared error over the batch plus gradients for every weight."""
        B, T, D = X.shape
        H = self.params.hidden_size
        yhat, cache = self._forward(X)
        h_last = cache[-1]
        err = yhat - y
        loss = float((err * err).mean())

        dyhat = 2.0 * err / B
        grads = {
            "w_out": h_last.T @ dyhat,
            "b_out": np.array([dyhat.sum()]),
            "W": np.zeros_like(self.weights["W"]),
            "b": np.zeros_like(self.weights["b"]),
        }
        W = self.weights["W"]
        dh = np.outer(dyhat, self.weights["w_out"])
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

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LstmRegressor":
        """Adam over shuffled mini-batches of windows; raises TrainingError on
        a non-finite epoch loss."""
        if X.ndim != 3 or X.shape[2] != self.input_size:
            raise InputError(f"expected windows of shape (N, T, {self.input_size})")
        if len(X) != len(y) or len(X) == 0:
            raise InputError("empty or mismatched training windows")
        p = self.params
        m = {k: np.zeros_like(v) for k, v in self.weights.items()}
        v = {k: np.zeros_like(w) for k, w in self.weights.items()}
        step = 0
        order = np.arange(len(X))
        for epoch in range(p.epochs):
            self._rng.shuffle(order)
            total = 0.0
            for at in range(0, len(order), p.batch_size):
                batch = order[at:at + p.batch_size]
                loss, grads = self.loss_and_grads(X[batch], y[batch])
                total += loss * len(batch)
                step += 1
                for k, w in self.weights.items():
                    gk = grads[k]
                    m[k] = ADAM_BETA1 * m[k] + (1.0 - ADAM_BETA1) * gk
                    v[k] = ADAM_BETA2 * v[k] + (1.0 - ADAM_BETA2) * gk * gk
                    mhat = m[k] / (1.0 - ADAM_BETA1 ** step)
                    vhat = v[k] / (1.0 - ADAM_BETA2 ** step)
                    w -= p.learning_rate * mhat / (np.sqrt(vhat) + ADAM_EPS)
            epoch_loss = total / len(order)
            if not np.isfinite(epoch_loss):
                raise TrainingError(f"training diverged: non-finite loss at epoch {epoch}")
            self.final_train_loss = epoch_loss
            self.epochs_run = epoch + 1
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        yhat, _ = self._forward(X)
        return yhat

    def state_as_dict(self) -> dict:
        return {k: w.tolist() for k, w in self.weights.items()}

    def load_state(self, state: dict) -> None:
        for k in self.weights:
            self.weights[k] = np.asarray(state[k], dtype=np.float64)
