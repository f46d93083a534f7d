import json
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from velotrace.covariates import WeatherRecord
from velotrace.errors import ParameterError
from velotrace.features import FeatureMatrix, SlotSeries, build_features, chronological_split
from velotrace.models import (
    ModelSpec,
    ablate,
    evaluate,
    load_artifact,
    model_artifact,
    predict_rows,
    train_model,
)

UTC = timezone.utc
START = datetime(2017, 5, 1, tzinfo=UTC)


def rigged_matrix(n=140, seed=0, with_null=False):
    """Target is a noisy function of one informative column plus a target copy."""
    rng = np.random.default_rng(seed)
    y = 10.0 + 5.0 * np.sin(np.arange(n) / 6.0) + rng.normal(0, 0.3, n)
    cols = {
        "target_copy": y.copy(),
        "signal": np.sin(np.arange(n) / 6.0) + rng.normal(0, 0.05, n),
        "noise": rng.normal(0, 1, n),
    }
    if with_null:
        cols["nullfeat"] = np.ones(n)
    names = list(cols)
    X = np.column_stack([cols[c] for c in names])
    starts = [START + timedelta(minutes=30 * i) for i in range(n)]
    return FeatureMatrix(X, y, names, starts, 30)


SPECS = [
    ModelSpec("linear"),
    ModelSpec("forest", {"n_trees": 8, "max_depth": 6}, seed=1),
    ModelSpec("boost", {"n_rounds": 25, "max_depth": 3}, seed=1),
    ModelSpec("lstm", {"hidden_size": 6, "lookback": 8, "epochs": 4}, seed=1),
]


def test_report_structure_and_cv():
    m = rigged_matrix()
    plan = chronological_split(m, "80/20")
    report, fitted = evaluate(m, plan, SPECS[:3], with_cv=True)
    for kind in ("linear", "forest", "boost"):
        entry = report.entries[kind]
        assert len(entry["cv"]) == 10
        assert all(e["metrics"] is not None for e in entry["cv"])
        assert set(entry["test"]) == {"mae", "mse", "rmse", "r2"}
    assert report.ratio == "80/20" and report.width_minutes == 30


def test_evaluate_deterministic():
    m = rigged_matrix()
    plan = chronological_split(m, "80/20")
    a, _ = evaluate(m, plan, SPECS, with_cv=False)
    b, _ = evaluate(m, plan, SPECS, with_cv=False)
    assert json.dumps(a.as_dict(), sort_keys=True) == json.dumps(b.as_dict(), sort_keys=True)


def test_no_test_leakage_by_weight_state():
    m = rigged_matrix()
    plan = chronological_split(m, "80/20")
    mutated = rigged_matrix()
    mutated.y[plan.test_rows.start:] += 1000.0
    mutated.X[plan.test_rows.start:, 0] += 1000.0  # target_copy column too
    for spec in SPECS:
        a = train_model(m, plan.train_rows, spec)
        b = train_model(mutated, plan.train_rows, spec)
        sa = json.dumps(model_artifact(a, m.column_names), sort_keys=True)
        sb = json.dumps(model_artifact(b, m.column_names), sort_keys=True)
        assert sa == sb, f"{spec.kind} leaked test rows into training"


def test_lstm_cv_folds_respect_history():
    m = rigged_matrix(n=160)
    plan = chronological_split(m, "80/20")
    report, _ = evaluate(m, plan, [SPECS[3]], with_cv=True)
    cv = report.entries["lstm"]["cv"]
    assert len(cv) == 10
    assert sum(1 for e in cv if e["metrics"] is not None) >= 9  # first fold may lack history


def test_lstm_training_windows_do_not_span_a_dropped_slot():
    counts = np.random.default_rng(0).integers(0, 30, size=7 * 24 + 80)
    slots = SlotSeries(60, START, counts)
    gap = slots.slot_start(7 * 24 + 40)
    weather = [WeatherRecord(slots.slot_start(i), 15.0 + i % 7, 0.0, 2.0)
               for i in range(len(counts)) if slots.slot_start(i) != gap]
    matrix, dropped = build_features(slots, weather, [], 120)
    assert dropped == [(gap, "missing-weather")]
    lookback = 8
    tm = train_model(matrix, range(matrix.n_rows), ModelSpec("lstm", {"lookback": lookback, "epochs": 1}))
    # the 8 targets whose window reaches back over the dropped slot are left out
    assert tm.meta["rows_used"] == matrix.n_rows - lookback - 8


def test_artifact_round_trip_predictions():
    m = rigged_matrix()
    plan = chronological_split(m, "80/20")
    rows = list(plan.test_rows)
    for spec in SPECS:
        tm = train_model(m, plan.train_rows, spec)
        direct = predict_rows(tm, m, rows)
        back = load_artifact(json.loads(json.dumps(model_artifact(tm, m.column_names))))
        again = predict_rows(back, m, rows)
        assert np.allclose(direct, again, atol=1e-12), spec.kind


def test_ablate_null_feature_is_inert_for_trees():
    m = rigged_matrix(with_null=True)
    plan = chronological_split(m, "80/20")
    for spec in (SPECS[1], SPECS[2]):
        res = ablate(m, plan, spec, "nullfeat")
        assert res.pct_change["mae"] is not None
        assert abs(res.pct_change["mae"]) < 0.02

    # at the shipped 200 rounds boosting can exploit the leak; SPECS[2]'s
    # 25 rounds at rate 0.1 leave ~0.9**25 of the residual unfitted
    res = ablate(m, plan, ModelSpec("boost", seed=1), "target_copy")
    assert res.pct_change["mae"] > 1.0  # removing the target leak hurts a lot


def test_ablate_unknown_group_rejected():
    m = rigged_matrix()
    plan = chronological_split(m, "80/20")
    with pytest.raises(ParameterError):
        ablate(m, plan, SPECS[0], "nope")


def test_unknown_kind_rejected():
    with pytest.raises(ParameterError):
        ModelSpec("svm")


def test_linear_rejects_hyperparams():
    m = rigged_matrix()
    plan = chronological_split(m, "80/20")
    with pytest.raises(ParameterError):
        train_model(m, plan.train_rows, ModelSpec("linear", {"alpha": 1.0}))
