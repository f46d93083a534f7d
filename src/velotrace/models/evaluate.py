"""Training/evaluation orchestration: dispatch per model kind, contiguous-block
cross-validation on the training range, held-out test scoring, and feature
ablation. Scalers for the recurrent model are always fitted on the training
portion in play, never on validation or test rows.

One window rule decides which targets a model can score (`scorable`): a
target needs the `lookback` rows before it, and with it they must be
consecutive time slots. Tabular models have lookback 0, so they score every
row; a recurrent window may not reach back over a slot that `build_features`
dropped. CV folds, test scoring and ablation all go through `fit_and_score`,
which leaves out the targets the rule rejects and counts them; the counts
appear in the report as `skipped` per fold and `test_skipped` per model."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ParameterError
from ..features import FeatureMatrix, MinMaxScaler, SplitPlan, drop_group
from .boosting import BoostParams, GradientBoosting
from .forest import ForestParams, RandomForest
from .linear import LinearModel
from .lstm import LstmParams, LstmRegressor, build_windows
from .metrics import Metrics, metrics

MODEL_KINDS = ("linear", "forest", "boost", "lstm")


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    hyperparams: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ParameterError(f"unknown model kind {self.kind!r}, expected one of {MODEL_KINDS}")

    @property
    def lookback(self) -> int:
        """Rows of history a target needs: the recurrent window, else none."""
        return LstmParams(**self.hyperparams).lookback if self.kind == "lstm" else 0


def _params_for(spec: ModelSpec):
    hp = dict(spec.hyperparams)
    if spec.kind == "forest":
        return ForestParams(**hp)
    if spec.kind == "boost":
        return BoostParams(**hp)
    if spec.kind == "lstm":
        return LstmParams(**hp)
    if hp:
        raise ParameterError(f"linear regression takes no hyperparameters, got {sorted(hp)}")
    return None


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
    step = 60 * matrix.width_minutes
    slot = np.array([s.timestamp() for s in matrix.slot_starts]) // step
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
    params = _params_for(spec)
    if spec.kind == "linear":
        model = LinearModel.fit(matrix.X[rows], matrix.y[rows])
        return TrainedModel(spec, model, None, {"rows_used": len(rows)})
    if spec.kind == "forest":
        model = RandomForest.fit(matrix.X[rows], matrix.y[rows], params, spec.seed)
        return TrainedModel(spec, model, None, {"rows_used": len(rows)})
    if spec.kind == "boost":
        model = GradientBoosting.fit(matrix.X[rows], matrix.y[rows], params, spec.seed)
        meta = {"rows_used": len(rows), "rounds_run": len(model.trees),
                "final_train_mse": model.train_mse[-1] if model.train_mse else None}
        return TrainedModel(spec, model, None, meta)

    scaler = MinMaxScaler().fit(matrix, rows)
    scaled = scaler.transform(matrix)
    targets = rows[scorable(matrix, rows, params.lookback, fit_rows=rows)]
    W, t = build_windows(scaled.X, scaled.y, params.lookback, targets)
    model = LstmRegressor(scaled.X.shape[1], params, spec.seed).fit(W, t)
    meta = {"rows_used": len(targets), "epochs_run": model.epochs_run,
            "final_train_loss": model.final_train_loss}
    return TrainedModel(spec, model, scaler, meta)


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
    if tm.spec.kind == "lstm":
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
                allowed = np.concatenate([
                    np.arange(plan.train_rows.start, fold.start),
                    np.arange(fold.stop, plan.train_rows.stop),
                ])
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
    pct = {}
    for name in ("mae", "mse", "rmse", "r2"):
        b = getattr(baseline, name)
        a = getattr(ablated, name)
        pct[name] = None if (b in (None, 0) or a is None) else (a - b) / b
    return AblationResult(group, baseline, ablated, pct)
