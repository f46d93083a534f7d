"""Training/evaluation orchestration: the table of model kinds, rolling-origin
scores on the training range, and held-out test scoring. Every fit is on a
prefix of the matrix's rows, and the recurrent model's scaler is fitted on
the rows of its fit, never on scored rows.

A model kind is defined once: its name in `util.MODEL_KINDS`, which the CLI
reads without loading any model, and its class in `MODELS`, the class that
fits, predicts, saves and loads it. A new kind provides `Params` (a frozen
dataclass of its hyperparameters, or None; a `lookback` field makes the kind
recurrent; its `__post_init__` checks ranges), `fit(X, y, params, seed)` if
tabular or `cls(input_size, params, seed).fit(W, y)` on windows if recurrent, `predict`, `fit_meta()` (what the
fit adds to the report's meta), and `state()` with `from_state(params, state,
seed)` for its artifact (`serialize`). Methods are looked up at call time.

One window rule decides which targets a model can score (`scorable`): a
target's window is the `lookback` rows that end at its own row, and they must
be consecutive time slots. Tabular models have lookback 0 and read the
target's row alone, so they score every row; a recurrent window may not reach
back over a slot that `build_features` dropped. The next slot's row is the
features file's `next_row`, which both kinds read. Origins and test scoring
both go through `fit_and_score`, which leaves out the targets the rule
rejects and counts them; the counts appear in the report as `skipped` per
origin and `test_skipped` per model.

Rolling origins (Tashman, IJF 2000): origin i fits on the rows before the bound
i days before the first test row's slot start and scores the rows up to the
next bound, so up to `ORIGINS` daily blocks tile the days before the test rows.
It is used when at least half of the training rows, and a window of the model,
lie before it. Its `naive_mae` is the MAE of seasonal naive (`week_history`) on
its scored targets, MASE's scale (Hyndman & Koehler, IJF 2006).

A recurrent model trains and predicts on `build_windows`' `Windows` of the
scaled matrix: each batch gathers its windows' rows into the model's
workspace, so neither `train_model` nor `predict_rows` builds the (N,
lookback, D) window array, `lookback` times the matrix; beyond the scaled
copy of the matrix their memory does not grow with the number of windows.

Precision: `train_model` hands the recurrent model windows of the scaled
matrix in `WINDOW_DTYPE`, single precision, so it trains in float32 (every
per-step GEMM, tanh and workspace buffer, the weights and Adam's moments);
`predict_rows` hands a model windows in the dtype of its weights, so a loaded
artifact predicts in the precision it was trained in. Tabular models and the
scaler stay in float64."""

from __future__ import annotations

from dataclasses import dataclass, field, make_dataclass

import numpy as np

from ..errors import ParameterError
from ..features import FeatureMatrix, MinMaxScaler, SplitPlan
from ..util import HOUR_US, MINUTE_US, MODEL_KINDS, from_json, utc_strings
from .boosting import GradientBoosting
from .forest import RandomForest
from .linear import LinearModel
from .lstm import LstmRegressor, build_windows
from .metrics import Metrics, metrics

MODELS = dict(zip(MODEL_KINDS, (LinearModel, RandomForest, GradientBoosting, LstmRegressor), strict=True))

WINDOW_DTYPE = np.float32  # the precision a recurrent model trains in

ORIGINS = 7  # the most rolling daily origins `evaluate` scores

_NO_PARAMS = make_dataclass("NoParams", [], frozen=True)  # read for a kind whose `Params` is None


@dataclass(frozen=True)
class ModelSpec:
    """A kind and its hyperparameters, read once into `params` as the kind's
    `Params` by `util.from_json`, whose errors name `models.<kind>.<key>`."""
    kind: str
    hyperparams: dict = field(default_factory=dict)
    seed: int = 0
    params: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in MODELS:
            raise ParameterError(f"unknown model kind {self.kind!r}, expected one of {MODEL_KINDS}")
        cls = MODELS[self.kind].Params
        params = from_json(cls or _NO_PARAMS, self.hyperparams, f"models.{self.kind}")
        object.__setattr__(self, "params", params if cls else None)

    @property
    def lookback(self) -> int:
        """Rows in a target's window, its own last: the recurrent window, else 0."""
        return getattr(self.params, "lookback", 0)


@dataclass
class TrainedModel:
    spec: ModelSpec
    model: object
    scaler: MinMaxScaler | None
    meta: dict


def scorable(matrix: FeatureMatrix, targets, lookback: int) -> np.ndarray:
    """Mask of the targets whose window is usable: target j needs rows
    j-lookback+1..j, so j >= lookback-1, on consecutive time slots. Row
    `n_rows` is the slot after the last row. A tabular model reads row j
    alone, as a window of one row does."""
    j = np.asarray(targets, dtype=np.int64)
    slot = matrix.slot_us // (matrix.width_minutes * MINUTE_US)
    slot = np.append(slot, slot[-1] + 1)
    span = max(lookback - 1, 0)
    first = j - span
    return (first >= 0) & (slot[j] - slot[np.maximum(first, 0)] == span)


def train_model(matrix: FeatureMatrix, rows: range, spec: ModelSpec) -> TrainedModel:
    """Fit one model on a prefix `range(0, n)` of the matrix's rows; every
    window a recurrent model trains on lies inside it."""
    if rows.start or rows.step != 1:
        raise ParameterError(f"a model fits on a prefix of the rows, not on {rows}")
    cls = MODELS[spec.kind]
    if not spec.lookback:
        model = cls.fit(matrix.X[:rows.stop], matrix.y[:rows.stop], spec.params, spec.seed)
        return TrainedModel(spec, model, None, {"rows_used": len(rows), **model.fit_meta()})

    scaler = MinMaxScaler.fit(matrix, rows)
    scaled = scaler.transform(matrix)
    targets = np.asarray(rows)[scorable(matrix, rows, spec.lookback)]
    W, t = build_windows(scaled.X.astype(WINDOW_DTYPE), scaled.y, spec.lookback, targets)
    model = cls(scaled.X.shape[1], spec.params, spec.seed).fit(W, t)
    return TrainedModel(spec, model, scaler, {"rows_used": len(targets), **model.fit_meta()})


def predict_rows(tm: TrainedModel, matrix: FeatureMatrix, rows) -> np.ndarray:
    """Predictions for row indices of the matrix, where index `n_rows` is the
    next slot, whose row is `matrix.next_row`: a tabular model reads each
    target's row, and the recurrent model the `lookback` rows that end at it.
    Raises ParameterError for a target that `scorable` rejects."""
    rows = np.asarray(list(rows), dtype=np.int64)
    lookback = tm.spec.lookback
    rejected = rows[~scorable(matrix, rows, lookback)]
    if rejected.size:
        raise ParameterError(f"row {int(rejected[0])} has no window of {lookback} consecutive slots "
                             "ending at it: too few rows, or a gap in time")
    X, y = matrix.X, matrix.y
    if rows.max() >= matrix.n_rows:  # the next slot: its row, and no count
        X, y = np.vstack([X, matrix.next_row]), np.append(y, np.nan)
    if not lookback:
        return tm.model.predict(X[rows])
    W, _ = build_windows(tm.scaler.scale_columns(X, matrix.column_names).astype(tm.model.dtype), y, lookback, rows)
    return tm.scaler.inverse_target(tm.model.predict(W))


@dataclass
class Score:
    """A model fitted on some rows and scored on the targets the window rule admits."""
    model: TrainedModel
    targets: np.ndarray          # the scored row indices
    predictions: np.ndarray | None
    metrics: Metrics | None      # None under 2 scored targets
    skipped: int                 # targets the window rule left out


def fit_and_score(matrix: FeatureMatrix, prefix: range, targets, spec: ModelSpec) -> Score:
    """Fit on the rows of `prefix`, then score the `targets` that have a usable window."""
    tm = train_model(matrix, prefix, spec)
    targets = np.asarray(list(targets), dtype=np.int64)
    scored = targets[scorable(matrix, targets, spec.lookback)]
    pred = predict_rows(tm, matrix, scored) if len(scored) >= 2 else None
    return Score(tm, scored, pred, None if pred is None else metrics(matrix.y[scored], pred),
                 len(targets) - len(scored))


@dataclass
class EvalReport:
    """The `eval_report.json` report: its field names are the file's keys."""
    ratio: str
    width_minutes: int
    models: dict  # kind -> {"cv": [{"origin", "skipped", "metrics", "naive_mae"}], "test", "test_skipped", "meta"}


def evaluate(matrix: FeatureMatrix, plan: SplitPlan, specs: list[ModelSpec],
             with_cv: bool = True):
    """Per spec: with `with_cv`, the scores of the rolling daily origins
    before the test rows, then a fit on the full training range scored on
    the held-out test rows.

    Returns (EvalReport, {kind: test Score}).
    """
    train_n = plan.train_rows.stop
    bounds = matrix.slot_us[train_n] - 24 * HOUR_US * np.arange(ORIGINS + 1)
    at = np.searchsorted(matrix.slot_us, bounds).tolist()  # the first row at or after each bound
    used = [i for i in range(ORIGINS, 0, -1) if 2 * at[i] >= train_n and at[i] < at[i - 1]] if with_cv else []
    naive = matrix.column("week_history") if "week_history" in matrix.column_names else None
    models, fitted = {}, {}
    for spec in specs:
        cv_results = []
        for i in used:
            if not scorable(matrix, range(at[i]), spec.lookback).any():
                continue  # no window to train on before this origin
            score = fit_and_score(matrix, range(at[i]), range(at[i], at[i - 1]), spec)
            naive_mae = None if score.metrics is None or naive is None else \
                metrics(matrix.y[score.targets], naive[score.targets]).mae
            cv_results.append({"origin": utc_strings([bounds[i]])[0], "skipped": score.skipped,
                               "metrics": score.metrics, "naive_mae": naive_mae})
        test = fit_and_score(matrix, plan.train_rows, plan.test_rows, spec)
        if test.metrics is None:
            raise ParameterError(f"{spec.kind}: fewer than 2 test rows have a window of consecutive slots")
        models[spec.kind] = {"cv": cv_results, "test": test.metrics, "test_skipped": test.skipped,
                             "meta": test.model.meta}
        fitted[spec.kind] = test
    return EvalReport(plan.ratio, matrix.width_minutes, models), fitted
