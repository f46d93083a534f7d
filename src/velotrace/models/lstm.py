"""Single-layer LSTM regressor trained by backpropagation through time.

Gate order inside the packed weight matrix is (input, forget, candidate,
output); the cell follows c_t = f*c_{t-1} + i*g, h_t = o*tanh(c_t), with a
linear head reading the scalar prediction off the last hidden state. A
window is the feature rows of `lookback` consecutive time slots, the slot it
forecasts last, so the model reads that slot's calendar, weather and lags as
the tabular models do, and never its count; `evaluate.scorable` decides
which targets have such a window. Training uses squared loss and Adam; every
random choice (weight init, batch shuffling) comes from the seed, so learned
weights are bitwise reproducible.

`build_windows` gives `Windows`: the feature matrix and each window's first
row, not an (N, lookback, D) copy, which would be `lookback` times the
matrix. Each batch copies its windows' rows straight into the workspace, so
`fit` and `predict` hold the matrix plus a fixed-size work area, however
many windows there are.

Precision: `fit` computes in the float dtype of the windows it is given, at
least single precision: it casts the weights to it, and Adam's moments, the
gradients and the workspace follow. `loss_and_grads` and `predict` compute in
the dtype of the weights, so a fitted model predicts in the precision it was
trained in; `state()` records that dtype and `from_state` restores it. The
float64 reference tests drive this same code with float64 windows.

The kernel is time-major (Appleyard, Kocisky & Blunsom, arXiv:1604.01946):
the input half of every step's pre-activation, bias included, is one GEMM over
the (T*B, D) rows; each step adds only `h @ W_h`, applies one tanh to all four
gates (a sigmoid is an affine map of tanh) and updates the cell; only the
tanh of every step is kept, not its gates. The backward pass recomputes the
gates from it and forms the gate-derivative factors of all steps before its
reverse loop, which keeps only dc, dz and dh = dz @ W_h^T, and every weight
and bias gradient is one GEMM after it. The per-step arrays live in a
`_Workspace` that `fit` allocates once, every batch reuses, and `fit`
releases."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InputError, ParameterError, TrainingError
from .tree import check_minimums

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
_GATE_STEPS = 8  # steps whose gates the backward pass recomputes at a time


@dataclass(frozen=True)
class LstmParams:
    hidden_size: int = 32
    lookback: int = 1
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 1e-3

    def __post_init__(self):
        check_minimums(self, hidden_size=1, lookback=1, epochs=0, batch_size=1)
        if not self.learning_rate > 0:  # NaN too
            raise ParameterError(f"learning_rate must be positive, got {self.learning_rate}")


def _gate_affine(H: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Per-column scale and shift of the four gates, in `dtype`. A sigmoid gate
    reads sigmoid(z) = (1 + tanh(z/2)) / 2, so with its columns of W and b
    scaled by 1/2, one tanh over all four gates followed by `a * scale + shift`
    gives every gate; the candidate's columns pass through unchanged."""
    return (np.repeat(np.array([0.5, 0.5, 1.0, 0.5], dtype), H),
            np.repeat(np.array([0.5, 0.5, 0.0, 0.5], dtype), H))


def _weight_shapes(D: int, H: int) -> dict:
    return {"W": (D + H, 4 * H), "b": (4 * H,), "w_out": (H,), "b_out": (1,)}


class Windows:
    """The windows of `lookback` consecutive rows of X that start at the rows
    `starts`, read on demand, so no (N, lookback, D) array is ever built.
    `windows[batch]` selects windows without copying rows, and `gather`
    copies each window's rows straight into a time-major buffer."""

    def __init__(self, X: np.ndarray, lookback: int, starts: np.ndarray):
        self.X, self.lookback, self.starts = X, lookback, starts

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.starts.size, self.lookback, self.X.shape[1])

    @property
    def dtype(self) -> np.dtype:
        return self.X.dtype

    def __len__(self) -> int:
        return self.starts.size

    def __getitem__(self, key) -> "Windows":
        return Windows(self.X, self.lookback, self.starts[key])

    def gather(self, out: np.ndarray) -> None:
        """Window k's step t into `out[t, k]`, for `out` of shape (lookback, len, D)."""
        for k, s in enumerate(self.starts.tolist()):
            out[:, k] = self.X[s:s + self.lookback]


def build_windows(X: np.ndarray, y: np.ndarray, lookback: int, targets) -> tuple[Windows, np.ndarray]:
    """The windows of the targets and their values: target row j is predicted
    from rows j-lookback+1..j, its own row last."""
    targets = np.asarray(list(targets), dtype=np.int64)
    if targets.size == 0:
        raise InputError(f"no targets: no usable windows of {lookback} rows")
    if targets.min() < lookback - 1:
        raise InputError(f"target row {int(targets.min())} lacks the {lookback} rows of a window ending at it")
    return Windows(X, lookback, targets - lookback + 1), y[targets]


class _Workspace:
    """Time-major buffers for batches of up to `size` windows of `steps` steps.

    `xh[t]` is the row [1, x_t, h_t] of every window, so one GEMM over its rows
    gives the input half of the pre-activations with the bias, and one gives
    every weight gradient; h_0 is zero and slot `steps` holds only h_T. `z`
    holds the input half, then each step's tanh A, then the gate-derivative
    factors, and the reverse loop turns each step's factors into its dz. `a`
    holds a step's pre-activation and then its gates in the forward pass, and
    the gates of up to `_GATE_STEPS` steps, recomputed from A, in the backward
    pass; `f` keeps the forget gates, which the reverse loop reads. `c` holds
    the cell states from c_0 = 0, `tanh_c` their tanh and then dc's factor
    from dh. `take(B)` views the leading part of each flat buffer, so a short
    batch reuses them as contiguous arrays. Every buffer is of `dtype`, the
    precision the kernel computes in."""

    def __init__(self, size: int, steps: int, D: int, H: int, dtype):
        self.shapes = {"xh": (steps + 1, 1 + D + H), "z": (steps, 4 * H), "a": (min(steps, _GATE_STEPS), 4 * H),
                       "f": (steps, H), "c": (steps + 1, H), "tanh_c": (steps, H)}
        self.flat = {k: np.empty(n * size * w, dtype) for k, (n, w) in self.shapes.items()}
        self.flat["xh"][::1 + D + H] = 1.0

    def take(self, B: int) -> dict:
        return {k: self.flat[k][:n * B * w].reshape(n, B, w) for k, (n, w) in self.shapes.items()}


class LstmRegressor:
    Params = LstmParams

    def __init__(self, input_size: int, params: LstmParams, seed: int, weights: dict | None = None):
        """A model of the given `weights`, else of random initial ones drawn
        from the seed, which also seeds the batch shuffling of `fit`."""
        self.input_size = input_size
        self.params = params
        self.seed = seed
        self._rng = None  # made on first use, so a loaded model never loads numpy.random
        self.weights = self._initial_weights() if weights is None else weights
        self.epochs_run = 0
        self.train_loss: list[float] = []
        self._workspace: _Workspace | None = None  # set only while `fit` runs

    def _initial_weights(self) -> dict:
        H, D = self.params.hidden_size, self.input_size
        self._rng = np.random.default_rng((self.seed,))
        scale = 1.0 / np.sqrt(D + H)
        shapes = _weight_shapes(D, H)
        weights = {"W": self._rng.normal(0.0, scale, size=shapes["W"]), "b": np.zeros(shapes["b"]),
                   "w_out": self._rng.normal(0.0, scale, size=shapes["w_out"]), "b_out": np.zeros(shapes["b_out"])}
        weights["b"][H:2 * H] = 1.0  # forget-gate bias
        return weights

    @property
    def dtype(self) -> np.dtype:
        """The precision the model computes in: that of its weights."""
        return self.weights["W"].dtype

    def _forward(self, X, buf: dict) -> np.ndarray:
        """Run windows X (B, T, D), an array or `Windows`, through the
        recurrence, keeping every step's state in `buf`; returns yhat (B,)."""
        B, T, D = X.shape
        H = self.params.hidden_size
        W = self.weights["W"]
        scale, shift = _gate_affine(H, W.dtype)
        xh, z, a, c, tanh_c = buf["xh"], buf["z"], buf["a"][0], buf["c"], buf["tanh_c"]
        if isinstance(X, Windows):
            X.gather(xh[:T, :, 1:1 + D])
        else:
            xh[:T, :, 1:1 + D] = X.swapaxes(0, 1)
        xh[0, :, 1 + D:] = 0.0
        c[0] = 0.0
        rows = xh[:T].reshape(T * B, 1 + D + H)
        np.dot(rows[:, :1 + D], np.vstack([self.weights["b"], W[:D]]) * scale, out=z.reshape(T * B, 4 * H))
        W_h = W[D:] * scale
        scale_rows, shift_rows = np.tile(scale, (B, 1)), np.tile(shift, (B, 1))  # contiguous, like a step's gates
        h = xh[:, :, 1 + D:]
        i, f, g, o = a.reshape(B, 4, H).transpose(1, 0, 2)  # the step's gates, each (B, H)
        for zt, c0, c1, tc, h0, h1 in zip(z, c[:-1], c[1:], tanh_c, h[:-1], h[1:]):
            np.dot(h0, W_h, out=a)
            a += zt
            np.tanh(a, out=zt)
            np.multiply(zt, scale_rows, out=a)
            a += shift_rows
            np.multiply(i, g, out=tc)
            np.multiply(f, c0, out=c1)
            c1 += tc
            np.tanh(c1, out=tc)
            np.multiply(o, tc, out=h1)
        return h[T] @ self.weights["w_out"] + self.weights["b_out"][0]

    def loss_and_grads(self, X, y: np.ndarray):
        """Mean squared error over the batch of windows X (B, T, D), an array or
        `Windows`, plus gradients for every weight, computed in the weights' dtype."""
        B, T, D = X.shape
        H = self.params.hidden_size
        buf = (self._workspace or _Workspace(B, T, D, H, self.dtype)).take(B)
        yhat = self._forward(X, buf)
        err = yhat - np.asarray(y, dtype=yhat.dtype)
        loss = float((err * err).mean())
        dyhat = 2.0 * err / B

        # A gate's derivative is (1-A²)/4 for a sigmoid gate and 1-A² for the
        # candidate, A being the step's tanh. dz is kept without the 1/4 (`slope`),
        # which W_h takes before the reverse loop and the gradients after it:
        # dz = [dc*g*(1-A_i²), dc*c_prev*(1-A_f²), dc*i*(1-A_g²), dh*tanh_c*(1-A_o²)],
        # all factors but dc and dh known before the loop. The gates are
        # recomputed from A as `_forward` computes them, a few steps at a time
        # in `a`, before A turns into its factors; the reverse loop reads the
        # forget gates from `f`.
        xh, dz, a, f, c, tanh_c = buf["xh"], buf["z"], buf["a"], buf["f"], buf["c"], buf["tanh_c"]
        scale, shift = _gate_affine(H, dz.dtype)
        for s in range(0, T, len(a)):
            A = dz[s:s + len(a)]
            n = len(A)
            gates = a[:n]
            np.multiply(A, scale, out=gates)
            gates += shift
            i, f[s:s + n], g, o = gates.reshape(n, B, 4, H).transpose(2, 0, 1, 3)
            np.multiply(A, A, out=A)
            np.subtract(1.0, A, out=A)
            dgate = A.reshape(n, B, 4, H)
            dgate[:, :, 0] *= g
            dgate[:, :, 1] *= c[s:s + n]
            dgate[:, :, 2] *= i
            dgate[:, :, 3] *= tanh_c[s:s + n]
            # dc's factor from dh: o * (1 - tanh_c²), in place of tanh_c
            dc_factor = tanh_c[s:s + n]
            np.multiply(dc_factor, dc_factor, out=dc_factor)
            np.subtract(1.0, dc_factor, out=dc_factor)
            np.multiply(dc_factor, o, out=dc_factor)
        dgate = dz.reshape(T, B, 4, H)

        slope = scale ** 2
        W_hT = (self.weights["W"][D:] * slope).T
        dh = np.outer(dyhat, self.weights["w_out"])
        dc = np.zeros((B, H), dz.dtype)
        for dz_t, dgate_t, dc_factor, f_t in zip(dz[::-1], dgate[::-1], tanh_c[::-1], f[::-1]):
            dc += dh * dc_factor
            dgate_t[:, :3] *= dc[:, None, :]
            dgate_t[:, 3] *= dh
            np.dot(dz_t, W_hT, out=dh)
            dc *= f_t

        # rows [1, x_t, h_t]: the bias gradient, then W's
        dWb = xh[:T].reshape(T * B, 1 + D + H).T @ dz.reshape(T * B, 4 * H)
        dWb *= slope
        grads = {
            "w_out": xh[T, :, 1 + D:].T @ dyhat,
            "b_out": np.array([dyhat.sum()]),
            "W": dWb[1:],
            "b": dWb[0],
        }
        return loss, grads

    def fit(self, X, y: np.ndarray) -> "LstmRegressor":
        """Adam over shuffled mini-batches of the windows X (N, T, D), an array
        or `Windows`, in their float dtype (at least single precision), to
        which the weights are cast; raises TrainingError on a non-finite epoch
        loss. Every batch reuses one workspace, released on return."""
        if len(X.shape) != 3 or X.shape[2] != self.input_size:
            raise InputError(f"expected windows of shape (N, T, {self.input_size})")
        if len(X) != len(y) or len(X) == 0:
            raise InputError("empty or mismatched training windows")
        p = self.params
        dtype = np.result_type(X.dtype, np.float32)
        self.weights = {k: w.astype(dtype, copy=False) for k, w in self.weights.items()}
        y = np.asarray(y, dtype=dtype)
        if self._rng is None:
            self._rng = np.random.default_rng((self.seed,))
        m = {k: np.zeros_like(v) for k, v in self.weights.items()}
        v = {k: np.zeros_like(w) for k, w in self.weights.items()}
        step = 0
        order = np.arange(len(X))
        self.train_loss = []
        self._workspace = _Workspace(min(len(X), p.batch_size), X.shape[1], self.input_size, p.hidden_size, dtype)
        try:
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
                self.train_loss.append(epoch_loss)
                self.epochs_run = epoch + 1
        finally:
            self._workspace = None
        return self

    def predict(self, X) -> np.ndarray:
        """Predictions for the windows X (N, T, D), an array or `Windows`, run
        in chunks of `batch_size` through one workspace, in the weights' dtype."""
        size = max(1, min(len(X), self.params.batch_size))
        ws = _Workspace(size, X.shape[1], self.input_size, self.params.hidden_size, self.dtype)
        out = np.empty(len(X), self.dtype)
        for at in range(0, len(X), size):
            chunk = X[at:at + size]
            out[at:at + size] = self._forward(chunk, ws.take(len(chunk)))
        return out

    def fit_meta(self) -> dict:
        return {"epochs_run": self.epochs_run,
                "final_train_loss": self.train_loss[-1] if self.train_loss else None,
                "train_loss": list(self.train_loss)}

    def state(self) -> dict:
        """The artifact's `state`: the input width, the weights and their dtype (not the scaler)."""
        return {"weights": {k: w.tolist() for k, w in self.weights.items()}, "input_size": self.input_size,
                "dtype": self.dtype.name}

    @classmethod
    def from_state(cls, params: LstmParams, state: dict, seed: int) -> "LstmRegressor":
        """The model of a `state()`, drawing no random weights; a state without
        a dtype is float64. A weight of the wrong shape, or a dtype other than
        float32 or float64, raises ValueError."""
        dtype = state.get("dtype", "float64")
        if dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {dtype!r}")
        D = int(state["input_size"])
        weights = {k: np.asarray(state["weights"][k], dtype=dtype).reshape(shape)
                   for k, shape in _weight_shapes(D, params.hidden_size).items()}
        return cls(D, params, seed, weights)
