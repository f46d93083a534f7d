import json
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from velotrace import cli
from velotrace.errors import ParameterError
from velotrace.features import FeatureMatrix, SlotSeries, build_features, chronological_split
from velotrace.models import (
    MODEL_KINDS,
    ModelSpec,
    ablate,
    evaluate,
    load_artifact,
    model_artifact,
    predict_rows,
    train_model,
)

from conftest import from_us, us, utc_text, weather_table

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
    starts = us(START) + 30 * 60_000_000 * np.arange(n)
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


def gapped_matrix(gap_offsets, n_slots=7 * 24 + 120):
    """A 60-minute matrix whose weather lacks the hours at these slot offsets
    past the first week, so that build_features drops their rows."""
    counts = np.random.default_rng(0).integers(0, 30, size=n_slots)
    slots = SlotSeries(60, us(START), counts)
    starts = [us(START + timedelta(hours=i)) for i in range(n_slots)]
    gaps = {starts[7 * 24 + k] for k in gap_offsets}
    kept = [i for i in range(n_slots) if starts[i] not in gaps]
    weather = weather_table([starts[i] for i in kept], [15.0 + i % 7 for i in kept], 0.0, 2.0)
    matrix, dropped = build_features(slots, weather, [], 120)
    assert dropped.tolist() == sorted(gaps)
    return matrix


def test_lstm_training_windows_do_not_span_a_dropped_slot():
    matrix = gapped_matrix([40], n_slots=7 * 24 + 80)
    lookback = 8
    tm = train_model(matrix, range(matrix.n_rows), ModelSpec("lstm", {"lookback": lookback, "epochs": 1}))
    # the 8 targets whose window reaches back over the dropped slot are left out
    assert tm.meta["rows_used"] == matrix.n_rows - lookback - 8


def test_scoring_leaves_out_the_windows_across_a_dropped_slot():
    lookback = 8
    matrix = gapped_matrix([40, 100])  # one gap in the training range, one in the test rows
    plan = chronological_split(matrix, "80/20")
    assert (plan.train_rows, plan.test_rows) == (range(0, 95), range(95, 118))
    step = timedelta(hours=1)

    def has_window(j):
        return j >= lookback and from_us(matrix.slot_us[j]) - from_us(matrix.slot_us[j - lookback]) == lookback * step

    lstm = ModelSpec("lstm", {"hidden_size": 4, "lookback": lookback, "epochs": 1}, seed=1)
    report, fitted = evaluate(matrix, plan, [ModelSpec("linear"), lstm], with_cv=True)
    entries = report.as_dict()["models"]
    cv = entries["lstm"]["cv"]
    # fold 0 lacks history for its first 8 targets; rows 40..47 reach back over slot 40
    assert [e["skipped"] for e in cv] == [8, 0, 0, 0, 8, 0, 0, 0, 0, 0]
    assert all(e["metrics"] is not None for e in cv)
    assert entries["lstm"]["test_skipped"] == 8
    assert fitted["lstm"].targets.tolist() == [j for j in plan.test_rows if has_window(j)]
    assert not set(range(99, 107)) & set(fitted["lstm"].targets.tolist())
    assert [e["skipped"] for e in entries["linear"]["cv"]] == [0] * 10
    assert entries["linear"]["test_skipped"] == 0
    for target in (40, 47, 99, 106, 3):
        assert not has_window(target)
        with pytest.raises(ParameterError, match="gap"):
            predict_rows(fitted["lstm"].model, matrix, [target])
    assert len(predict_rows(fitted["lstm"].model, matrix, [48, 107, matrix.n_rows])) == 3


def parity_series(width):
    counts = np.random.default_rng(width).integers(0, 30, size=7 * 24 * 60 // width + 60)
    start = datetime(2017, 5, 1, 6, 0, tzinfo=UTC)
    slots = SlotSeries(width, us(start), counts)
    hours = range(len(counts) * width // 60 + 2)
    weather = weather_table([us(start + timedelta(hours=h)) for h in hours], [10.0 + 0.3 * h for h in hours],
                            [float(h % 4) for h in hours], 2.0)
    return counts, slots, weather


@pytest.mark.parametrize("width, hour_history_sum", [(60, False), (30, True)])
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
def test_predict_is_predict_rows_on_the_next_slot(width, hour_history_sum, spec):
    """Serving a features file cut after k rows predicts what scoring row k
    of the uncut file predicts."""
    counts, slots, weather = parity_series(width)
    full, _ = build_features(slots, weather, [], 120, hour_history_sum=hour_history_sum)
    tm = train_model(full, range(40), spec)
    for k in (45, 52, full.n_rows - 1):
        cut, _ = build_features(SlotSeries(width, slots.start_us, counts[:len(counts) - full.n_rows + k]),
                                weather, [], 120, hour_history_sum=hour_history_sum)
        assert cut.n_rows == k and cut.column_names == full.column_names
        served = cli._next_slot_prediction(tm, cut)
        assert served["slot_start"] == utc_text(from_us(full.slot_us[k]))
        assert served["predicted"] == predict_rows(tm, full, [k])[0]
        assert served["predicted"] == predict_rows(tm, cut, [k])[0]


def test_artifact_round_trip_predictions():
    """A loaded artifact predicts exactly what the trained model did, and
    saves back to the same document."""
    m = rigged_matrix()
    plan = chronological_split(m, "80/20")
    rows = list(plan.test_rows)
    assert [spec.kind for spec in SPECS] == list(MODEL_KINDS)
    for spec in SPECS:
        tm = train_model(m, plan.train_rows, spec)
        direct = predict_rows(tm, m, rows)
        doc = json.loads(json.dumps(model_artifact(tm, m.column_names)))
        back = load_artifact(doc)
        assert np.array_equal(direct, predict_rows(back, m, rows)), spec.kind
        assert model_artifact(back, m.column_names) == doc, spec.kind


def test_boosting_training_curve_survives_the_artifact():
    m = rigged_matrix()
    tm = train_model(m, chronological_split(m, "80/20").train_rows, SPECS[2])
    curve = tm.meta["train_mse"]
    assert len(curve) == tm.meta["rounds_run"] == 25
    assert curve[-1] == tm.meta["final_train_mse"]
    assert all(later <= earlier for earlier, later in zip(curve, curve[1:]))
    back = load_artifact(json.loads(json.dumps(model_artifact(tm, m.column_names))))
    assert back.meta["train_mse"] == curve


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


@pytest.mark.parametrize("kind, hyperparams", [
    ("forest", {"n_tree": 5}),
    ("forest", {"max_depth": "deep"}),
    ("forest", {"bootstrap": 1}),
    ("boost", {"n_rounds": 2.5}),
    ("boost", {"n_rounds": True}),
    ("lstm", {"lookback": "x"}),
], ids=["forest-unknown-key", "forest-str-depth", "forest-int-bootstrap", "boost-float-rounds",
        "boost-bool-rounds", "lstm-str-lookback"])
def test_bad_hyperparameter_names_the_kind_and_the_key(kind, hyperparams):
    (key,) = hyperparams
    with pytest.raises(ParameterError, match=f"^{kind}: .*'{key}'"):
        ModelSpec(kind, hyperparams)


@pytest.mark.parametrize("kind, hyperparams", [
    ("forest", {"n_trees": 0}),
    ("boost", {"learning_rate": 2.0}),
    ("lstm", {"lookback": 0}),
], ids=lambda v: v if isinstance(v, str) else next(iter(v)))
def test_out_of_range_hyperparameter_is_rejected_with_the_spec(kind, hyperparams):
    with pytest.raises(ParameterError, match=next(iter(hyperparams))):
        ModelSpec(kind, hyperparams)


def test_hyperparameters_are_parsed_once_into_params():
    spec = ModelSpec("forest", {"max_depth": None, "max_features": "all", "bootstrap": False})
    assert (spec.params.max_depth, spec.params.max_features, spec.params.bootstrap) == (None, "all", False)
    assert ModelSpec("boost", {"learning_rate": 1}).params.learning_rate == 1  # a float field takes an int
    assert ModelSpec("lstm", {"lookback": 5}).lookback == 5
    assert ModelSpec("linear").params is None and ModelSpec("linear").lookback == 0
