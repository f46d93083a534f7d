"""Training/evaluation orchestration: the table of model kinds, contiguous-block
cross-validation on the training range, held-out test scoring, and feature
ablation. Scalers for the recurrent model are always fitted on the training
portion in play, never on validation or test rows.

A model kind is defined once, in `MODELS`: its name maps to the class that
fits, predicts, saves and loads it. A new kind provides `Params` (a frozen
dataclass of its hyperparameters, or None; a `lookback` field makes the kind
recurrent), `fit(X, y, params, seed)` if tabular or `cls(input_size, params,
seed).fit(W, y)` on windows if recurrent, `predict`, `fit_meta()` (what the
fit adds to the report's meta), and `state()` with `from_state(params, state,
seed)` for its artifact (`serialize`). Methods are looked up at call time.

One window rule decides which targets a model can score (`scorable`): a
target needs the `lookback` rows before it, and with it they must be
consecutive time slots. Tabular models have lookback 0, so they score every
row; a recurrent window may not reach back over a slot that `build_features`
dropped. CV folds, test scoring and ablation all go through `fit_and_score`,
which leaves out the targets the rule rejects and counts them; the counts
appear in the report as `skipped` per fold and `test_skipped` per model.

A recurrent model trains and predicts on `build_windows`' `Windows` of the
scaled matrix: each batch gathers its windows' rows into the model's
workspace, so neither `train_model` nor `predict_rows` builds the (N,
lookback, D) window array, `lookback` times the matrix; beyond the scaled
copy of the matrix their memory does not grow with the number of windows."""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

import numpy as np

from ..errors import ParameterError
from ..features import FeatureMatrix, MinMaxScaler, SplitPlan, drop_group
from ..util import MINUTE_US
from .boosting import GradientBoosting
from .forest import RandomForest
from .linear import LinearModel
from .lstm import LstmRegressor, build_windows
from .metrics import Metrics, metrics

MODELS = {"linear": LinearModel, "forest": RandomForest, "boost": GradientBoosting, "lstm": LstmRegressor}
MODEL_KINDS = tuple(MODELS)


@dataclass(frozen=True)
class ModelSpec:
    """A kind and its hyperparameters, parsed once into `params`. An unknown key, or a
    value of a type its field does not annotate, raises ParameterError naming both."""
    kind: str
    hyperparams: dict = field(default_factory=dict)
    seed: int = 0
    params: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in MODELS:
            raise ParameterError(f"unknown model kind {self.kind!r}, expected one of {MODEL_KINDS}")
        if not isinstance(self.hyperparams, dict):
            raise ParameterError(f"{self.kind}: hyperparameters must be a JSON object, got {self.hyperparams!r}")
        cls = MODELS[self.kind].Params
        fields = typing.get_type_hints(cls) if cls else {}
        for key, value in self.hyperparams.items():
            want = fields.get(key)
            if want is None:
                raise ParameterError(f"{self.kind}: unknown hyperparameter {key!r}, expected one of {sorted(fields)}")
            if type(value) not in ((int, float) if want is float else typing.get_args(want) or (want,)):
                raise ParameterError(f"{self.kind}: {key!r} must be {getattr(want, '__name__', want)}, got {value!r}")
        object.__setattr__(self, "params", cls(**self.hyperparams) if cls else None)

    @property
    def lookback(self) -> int:
        """Rows of history a target needs: the recurrent window, else none."""
        return getattr(self.params, "lookback", 0)


@dataclass
class TrainedModel:
    spec: ModelSpec
    model: object
    scaler: MinMaxScaler | None
    meta: dict


def scorable(matrix: FeatureMatrix, targets, lookback: int, fit_rows=None) -> np.ndarray:
    """Mask of the targets whose window is usable: target j needs j >= lookback
    and rows j-lookback..j on consecutive time slots. Row `n_rows` is the slot
    after the last row. With `fit_rows`, the window must also lie inside them."""
    j = np.asarray(targets, dtype=np.int64)
    slot = matrix.slot_us // (matrix.width_minutes * MINUTE_US)
    slot = np.append(slot, slot[-1] + 1)
    lo = np.maximum(j - lookback, 0)
    ok = (j >= lookback) & (slot[j] - slot[lo] == lookback)
    if fit_rows is not None:
        inside = np.zeros(len(slot), dtype=np.int64)
        inside[np.asarray(fit_rows, dtype=np.int64)] = 1
        run = np.concatenate(([0], np.cumsum(inside)))
        ok &= run[j + 1] - run[lo] == lookback + 1
    return ok


def train_model(matrix: FeatureMatrix, rows, spec: ModelSpec) -> TrainedModel:
    """Fit one model on the given row indices of the matrix."""
    rows = np.asarray(list(rows), dtype=np.int64)
    cls = MODELS[spec.kind]
    if not spec.lookback:
        model = cls.fit(matrix.X[rows], matrix.y[rows], spec.params, spec.seed)
        return TrainedModel(spec, model, None, {"rows_used": len(rows), **model.fit_meta()})

    scaler = MinMaxScaler().fit(matrix, rows)
    scaled = scaler.transform(matrix)
    targets = rows[scorable(matrix, rows, spec.lookback, fit_rows=rows)]
    W, t = build_windows(scaled.X, scaled.y, spec.lookback, targets)
    model = cls(scaled.X.shape[1], spec.params, spec.seed).fit(W, t)
    return TrainedModel(spec, model, scaler, {"rows_used": len(targets), **model.fit_meta()})


def predict_rows(tm: TrainedModel, matrix: FeatureMatrix, rows) -> np.ndarray:
    """Predictions for row indices of the matrix, where index `n_rows` is the
    next slot: tabular models read `matrix.next_row` for it, and the recurrent
    model reads the `lookback` rows before each target (historical covariates).
    Raises ParameterError for a target that `scorable` rejects."""
    rows = np.asarray(list(rows), dtype=np.int64)
    lookback = tm.spec.lookback
    rejected = rows[~scorable(matrix, rows, lookback)]
    if rejected.size:
        raise ParameterError(f"row {int(rejected[0])} has no window of {lookback} consecutive slots "
                             "before it: too few rows, or a gap in time")
    if lookback:
        scaled = tm.scaler.transform(matrix)
        # the next slot has no count; its window is all the model reads
        W, _ = build_windows(scaled.X, np.append(scaled.y, np.nan), lookback, rows)
        return tm.scaler.inverse_target(tm.model.predict(W))
    X = matrix.X if rows.max() < matrix.n_rows else np.vstack([matrix.X, matrix.next_row])
    return tm.model.predict(X[rows])


@dataclass
class Score:
    """A model fitted on some rows and scored on the targets the window rule admits."""
    model: TrainedModel
    targets: np.ndarray          # the scored row indices
    predictions: np.ndarray | None
    metrics: Metrics | None      # None under 2 scored targets
    skipped: int                 # targets the window rule left out


def fit_and_score(matrix: FeatureMatrix, fit_rows, targets, spec: ModelSpec) -> Score:
    """Fit on `fit_rows`, then score the `targets` that have a usable window."""
    tm = train_model(matrix, fit_rows, spec)
    targets = np.asarray(list(targets), dtype=np.int64)
    scored = targets[scorable(matrix, targets, spec.lookback)]
    pred = predict_rows(tm, matrix, scored) if len(scored) >= 2 else None
    return Score(tm, scored, pred, None if pred is None else metrics(matrix.y[scored], pred),
                 len(targets) - len(scored))


def _test_score(matrix: FeatureMatrix, plan: SplitPlan, spec: ModelSpec) -> Score:
    score = fit_and_score(matrix, plan.train_rows, plan.test_rows, spec)
    if score.metrics is None:
        raise ParameterError(f"{spec.kind}: fewer than 2 test rows have a window of consecutive slots")
    return score


@dataclass
class EvalReport:
    ratio: str
    width_minutes: int
    entries: dict  # kind -> {"cv": [...], "test": metrics dict, "test_skipped": int, "meta": {...}}

    def as_dict(self) -> dict:
        return {"ratio": self.ratio, "width_minutes": self.width_minutes, "models": self.entries}


def evaluate(matrix: FeatureMatrix, plan: SplitPlan, specs: list[ModelSpec],
             with_cv: bool = True):
    """Per spec: optional 10-fold blocked CV on the training range, then a fit
    on the full training range scored on the held-out test rows.

    Returns (EvalReport, {kind: test Score}).
    """
    entries = {}
    fitted = {}
    for spec in specs:
        cv_results = []
        if with_cv:
            for fold in plan.cv_folds:
                allowed = np.r_[plan.train_rows.start:fold.start, fold.stop:plan.train_rows.stop]
                score = fit_and_score(matrix, allowed, fold, spec)
                cv_results.append({"fold": [fold.start, fold.stop], "skipped": score.skipped,
                                   "metrics": None if score.metrics is None else score.metrics.as_dict()})
        test = _test_score(matrix, plan, spec)
        entries[spec.kind] = {"cv": cv_results, "test": test.metrics.as_dict(),
                              "test_skipped": test.skipped, "meta": test.model.meta}
        fitted[spec.kind] = test
    return EvalReport(plan.ratio, matrix.width_minutes, entries), fitted


@dataclass
class AblationResult:
    group: str
    baseline: Metrics
    ablated: Metrics
    pct_change: dict  # metric name -> (ablated - baseline) / baseline, None where undefined


def ablate(matrix: FeatureMatrix, plan: SplitPlan, spec: ModelSpec, group: str) -> AblationResult:
    """Retrain from scratch without one feature group and compare test metrics."""
    reduced = drop_group(matrix, group)  # raises ParameterError on unknown group
    baseline = _test_score(matrix, plan, spec).metrics
    ablated = _test_score(reduced, plan, spec).metrics
    after = ablated.as_dict()
    pct = {k: None if (b in (None, 0) or after[k] is None) else (after[k] - b) / b
           for k, b in baseline.as_dict().items()}
    return AblationResult(group, baseline, ablated, pct)
