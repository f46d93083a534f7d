"""Training/evaluation orchestration: dispatch per model kind, contiguous-block
cross-validation on the training range, held-out test scoring, and feature
ablation. Scalers for the recurrent model are always fitted on the training
portion in play, never on validation or test rows."""

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


def _lstm_train_targets(matrix: FeatureMatrix, allowed: np.ndarray, lookback: int) -> list[int]:
    """Targets whose full window also lies in the allowed row set and, with
    the target, covers consecutive time slots."""
    allowed_set = set(int(j) for j in allowed)
    return [int(j) for j in allowed if j >= lookback and matrix.consecutive(j - lookback, j)
            and all((j - k) in allowed_set for k in range(1, lookback + 1))]


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
    targets = _lstm_train_targets(matrix, rows, params.lookback)
    W, t = build_windows(scaled.X, scaled.y, params.lookback, targets)
    model = LstmRegressor(scaled.X.shape[1], params, spec.seed).fit(W, t)
    meta = {"rows_used": len(targets), "epochs_run": model.epochs_run,
            "final_train_loss": model.final_train_loss}
    return TrainedModel(spec, model, scaler, meta)


def predict_rows(tm: TrainedModel, matrix: FeatureMatrix, rows) -> np.ndarray:
    """Predictions for arbitrary row indices; the recurrent model reads the
    preceding `lookback` rows of the matrix as input (historical covariates)."""
    rows = np.asarray(list(rows), dtype=np.int64)
    if tm.spec.kind == "lstm":
        scaled = tm.scaler.transform(matrix)
        lookback = tm.model.params.lookback
        W, _ = build_windows(scaled.X, scaled.y, lookback, rows)
        return tm.scaler.inverse_target(tm.model.predict(W))
    return tm.model.predict(matrix.X[rows])


@dataclass
class EvalReport:
    ratio: str
    width_minutes: int
    entries: dict  # kind -> {"cv": [...], "test": metrics dict, "meta": {...}}

    def as_dict(self) -> dict:
        return {"ratio": self.ratio, "width_minutes": self.width_minutes, "models": self.entries}


def evaluate(matrix: FeatureMatrix, plan: SplitPlan, specs: list[ModelSpec],
             with_cv: bool = True):
    """Per spec: optional 10-fold blocked CV on the training range, then a fit
    on the full training range scored on the held-out test rows.

    Returns (EvalReport, {kind: (TrainedModel, test_predictions)}).
    """
    train_rows = np.arange(plan.train_rows.start, plan.train_rows.stop)
    test_rows = np.arange(plan.test_rows.start, plan.test_rows.stop)
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
                tm = train_model(matrix, allowed, spec)
                targets = np.arange(fold.start, fold.stop)
                if spec.kind == "lstm":
                    lookback = tm.model.params.lookback
                    targets = targets[targets >= lookback]
                if len(targets) < 2:
                    cv_results.append({"fold": [fold.start, fold.stop], "metrics": None})
                    continue
                pred = predict_rows(tm, matrix, targets)
                cv_results.append({"fold": [fold.start, fold.stop],
                                   "metrics": metrics(matrix.y[targets], pred).as_dict()})
        tm = train_model(matrix, train_rows, spec)
        test_pred = predict_rows(tm, matrix, test_rows)
        test_metrics = metrics(matrix.y[test_rows], test_pred)
        entries[spec.kind] = {"cv": cv_results, "test": test_metrics.as_dict(), "meta": tm.meta}
        fitted[spec.kind] = (tm, test_pred)
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
    train_rows = np.arange(plan.train_rows.start, plan.train_rows.stop)
    test_rows = np.arange(plan.test_rows.start, plan.test_rows.stop)

    def test_metrics(mat):
        tm = train_model(mat, train_rows, spec)
        return metrics(mat.y[test_rows], predict_rows(tm, mat, test_rows))

    baseline = test_metrics(matrix)
    ablated = test_metrics(reduced)
    pct = {}
    for name in ("mae", "mse", "rmse", "r2"):
        b = getattr(baseline, name)
        a = getattr(ablated, name)
        pct[name] = None if (b in (None, 0) or a is None) else (a - b) / b
    return AblationResult(group, baseline, ablated, pct)
