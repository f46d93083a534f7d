import json
import re
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from velotrace import cli
from velotrace.errors import ParameterError
from velotrace.features import FeatureMatrix, SlotSeries, build_features, chronological_split
from velotrace.models import evaluate as evaluate_module
from velotrace.models.evaluate import ModelSpec, evaluate, fit_and_score, predict_rows, train_model
from velotrace.models.forest import ForestParams
from velotrace.models.lstm import LstmParams
from velotrace.models.serialize import load_artifact, model_artifact
from velotrace.util import MODEL_KINDS, json_default, parse_utc

from conftest import from_us, us, utc_text, weather_table

UTC = timezone.utc
START = datetime(2017, 5, 1, tzinfo=UTC)


def rigged_matrix(n=140, seed=0, width=30):
    """Target is a noisy function of one informative column plus a target copy."""
    rng = np.random.default_rng(seed)
    y = 10.0 + 5.0 * np.sin(np.arange(n) / 6.0) + rng.normal(0, 0.3, n)
    cols = {
        "target_copy": y.copy(),
        "signal": np.sin(np.arange(n) / 6.0) + rng.normal(0, 0.05, n),
        "noise": rng.normal(0, 1, n),
    }
    names = list(cols)
    X = np.column_stack([cols[c] for c in names])
    starts = us(START) + width * 60_000_000 * np.arange(n)
    return FeatureMatrix(X, y, names, starts, width)


SPECS = [
    ModelSpec("linear"),
    ModelSpec("forest", {"n_trees": 8, "max_depth": 6}, seed=1),
    ModelSpec("boost", {"n_rounds": 25, "max_depth": 3}, seed=1),
    ModelSpec("lstm", {"hidden_size": 6, "lookback": 8, "epochs": 4}, seed=1),
]


def test_report_structure_and_cv():
    """The origins lie 24 h apart, the last at the slot start of the first
    test row, and each scores the day up to the next."""
    m = rigged_matrix(n=300, width=60)
    plan = chronological_split(m, "80/20")
    test_start = from_us(m.slot_us[plan.test_rows.start])
    report, fitted = evaluate(m, plan, SPECS[:3], with_cv=True)
    for kind in ("linear", "forest", "boost"):
        entry = report.models[kind]
        days = (5, 4, 3, 2, 1)
        assert [e["origin"] for e in entry["cv"]] == [utc_text(test_start - timedelta(days=k)) for k in days]
        assert all(set(e) == {"origin", "skipped", "metrics", "naive_mae"} for e in entry["cv"])
        assert all(e["metrics"] is not None and e["skipped"] == 0 for e in entry["cv"])
        assert all(e["naive_mae"] is None for e in entry["cv"])  # the matrix has no week_history column
        assert set(json_default(entry["test"])) == {"mae", "mse", "rmse", "r2"}
    assert report.ratio == "80/20" and report.width_minutes == 60


@pytest.mark.parametrize("n, width, count", [
    (140, 30, 1),  # 112 training rows, 48 a day: 64 lie before the first origin, 16 before the second
    (118, 60, 1),  # 95 training rows: 47 lie before the second origin, under half
    (120, 60, 2),  # 96 training rows: 48 lie before the second origin, exactly half
    (300, 60, 5),
    (500, 60, 7),  # 400 training rows would admit 8
])
def test_origin_count_follows_the_half_of_training_rule(n, width, count):
    """An origin is used when at least half of the training rows lie before
    it, and at most `ORIGINS` are."""
    m = rigged_matrix(n=n, width=width)
    report, _ = evaluate(m, chronological_split(m, "80/20"), SPECS[:1], with_cv=True)
    assert len(report.models["linear"]["cv"]) == count
    assert evaluate_module.ORIGINS == 7


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
def test_no_origin_model_saw_a_row_at_or_after_its_origin(monkeypatch, spec):
    """Changing X and y from an origin on leaves the model fitted at that
    origin unchanged, and changes the model fitted at the next."""
    real = evaluate_module.train_model
    fits = []

    def recording(matrix, rows, spec):
        tm = real(matrix, rows, spec)
        fits.append(json.dumps(model_artifact(tm, matrix.column_names), sort_keys=True))
        return tm

    def fits_of(matrix):
        fits.clear()
        report, _ = evaluate(matrix, plan, [spec], with_cv=True)
        return [parse_utc(e["origin"]) for e in report.models[spec.kind]["cv"]], list(fits)

    monkeypatch.setattr(evaluate_module, "train_model", recording)
    m = rigged_matrix(n=300, width=60)
    plan = chronological_split(m, "80/20")
    origins, base = fits_of(m)
    assert len(origins) == 5 and len(base) == 6  # the last fit is the test fit
    for k, origin in enumerate(origins):
        mutated = rigged_matrix(n=300, width=60)
        at = int(np.searchsorted(mutated.slot_us, origin))
        mutated.X[at:] += 1000.0
        mutated.y[at:] += 1000.0
        _, changed = fits_of(mutated)
        assert changed[:k + 1] == base[:k + 1], f"{spec.kind} saw rows at or after origin {k}"
        assert changed[k + 1] != base[k + 1]


def test_evaluate_deterministic():
    m = rigged_matrix()
    plan = chronological_split(m, "80/20")
    a, _ = evaluate(m, plan, SPECS, with_cv=False)
    b, _ = evaluate(m, plan, SPECS, with_cv=False)
    assert json.dumps(a, sort_keys=True, default=json_default) == json.dumps(b, sort_keys=True, default=json_default)


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
    """An origin has at least half of the training rows before it, so every
    target of its block has its window."""
    m = rigged_matrix(n=160, width=60)
    plan = chronological_split(m, "80/20")
    report, _ = evaluate(m, plan, [SPECS[3]], with_cv=True)
    cv = report.models["lstm"]["cv"]
    assert [e["skipped"] for e in cv] == [0, 0]
    assert all(e["metrics"] is not None for e in cv)
    # with a lookback of 90 rows, no window lies before the earlier origin (row 80)
    long = ModelSpec("lstm", {"hidden_size": 4, "lookback": 90, "epochs": 1}, seed=1)
    report, _ = evaluate(m, plan, [ModelSpec("linear"), long], with_cv=True)
    assert [e["origin"] for e in report.models["lstm"]["cv"]] == [cv[1]["origin"]]
    assert [e["origin"] for e in report.models["linear"]["cv"]] == [e["origin"] for e in cv]


def test_a_model_fits_only_on_a_prefix_of_the_rows():
    m = rigged_matrix()
    for rows in (range(10, 100), range(0, 100, 2)):
        with pytest.raises(ParameterError, match="prefix"):
            train_model(m, rows, SPECS[0])


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
    # the first 7 rows lack a window, and the 7 targets whose window reaches
    # back over the dropped slot are left out
    assert tm.meta["rows_used"] == matrix.n_rows - (lookback - 1) - 7


def test_scoring_leaves_out_the_windows_across_a_dropped_slot():
    lookback = 8
    matrix = gapped_matrix([80, 100])  # one gap in the last origin's block, one in the test rows
    plan = chronological_split(matrix, "80/20")
    assert (plan.train_rows, plan.test_rows) == (range(0, 95), range(95, 118))
    step = timedelta(hours=1)

    def has_window(j):
        first = j - lookback + 1
        return first >= 0 and from_us(matrix.slot_us[j]) - from_us(matrix.slot_us[first]) == (lookback - 1) * step

    lstm = ModelSpec("lstm", {"hidden_size": 4, "lookback": lookback, "epochs": 1}, seed=1)
    report, fitted = evaluate(matrix, plan, [ModelSpec("linear"), lstm], with_cv=True)
    entries = report.models
    cv = entries["lstm"]["cv"]
    # the test rows start at slot offset 96; the origins at 48 (row 48) and 72 (row 72),
    # and rows 80..86 of the last block reach back over slot 80
    test_start = from_us(matrix.slot_us[95])
    assert [e["origin"] for e in cv] == [utc_text(test_start - timedelta(days=k)) for k in (2, 1)]
    assert [e["skipped"] for e in cv] == [0, 7]
    assert all(e["metrics"] is not None for e in cv)
    assert entries["lstm"]["test_skipped"] == 7
    assert fitted["lstm"].targets.tolist() == [j for j in plan.test_rows if has_window(j)]
    assert not set(range(99, 106)) & set(fitted["lstm"].targets.tolist())
    assert [e["skipped"] for e in entries["linear"]["cv"]] == [0, 0]
    assert entries["linear"]["test_skipped"] == 0
    # seasonal naive is scored on the targets each model scored
    naive = matrix.column("week_history")
    for kind in ("linear", "lstm"):
        for e, block in zip(entries[kind]["cv"], (range(48, 72), range(72, 95))):
            scored = [j for j in block if kind == "linear" or has_window(j)]
            assert e["naive_mae"] == np.abs(matrix.y[scored] - naive[scored]).mean()
    for target in (80, 86, 99, 105, 6):
        assert not has_window(target)
        with pytest.raises(ParameterError, match="gap"):
            predict_rows(fitted["lstm"].model, matrix, [target])
    assert len(predict_rows(fitted["lstm"].model, matrix, [7, 87, 106, matrix.n_rows])) == 4


def parity_series(width):
    counts = np.random.default_rng(width).integers(0, 30, size=7 * 24 * 60 // width + 60)
    start = datetime(2017, 5, 1, 6, 0, tzinfo=UTC)
    slots = SlotSeries(width, us(start), counts)
    hours = range(len(counts) * width // 60 + 2)
    weather = weather_table([us(start + timedelta(hours=h)) for h in hours], [10.0 + 0.3 * h for h in hours],
                            [float(h % 4) for h in hours], 2.0)
    return counts, slots, weather


@pytest.mark.parametrize("width", [60, 30])
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
def test_predict_is_predict_rows_on_the_next_slot(width, spec):
    """Serving a features file cut after k rows predicts what scoring row k
    of the uncut file predicts."""
    counts, slots, weather = parity_series(width)
    full, _ = build_features(slots, weather, [], 120)
    tm = train_model(full, range(40), spec)
    for k in (45, 52, full.n_rows - 1):
        cut, _ = build_features(SlotSeries(width, slots.start_us, counts[:len(counts) - full.n_rows + k]),
                                weather, [], 120)
        assert cut.n_rows == k and cut.column_names == full.column_names
        served = cli._next_slot_prediction(tm, cut)
        assert served["slot_start"] == utc_text(from_us(full.slot_us[k]))
        assert served["predicted"] == predict_rows(tm, full, [k])[0]
        assert served["predicted"] == predict_rows(tm, cut, [k])[0]


def test_the_lstm_forecast_for_a_row_reads_its_covariates_but_not_its_count():
    """A window ends at its target's row: the row's calendar and weather move
    the forecast for it, and its count, which is the target, does not."""
    _, slots, weather = parity_series(60)
    matrix, _ = build_features(slots, weather, [], 120)
    tm = train_model(matrix, range(40), ModelSpec("lstm", {"hidden_size": 6, "lookback": 4, "epochs": 2}, seed=1))
    j = 50
    base = predict_rows(tm, matrix, [j])[0]
    names = matrix.column_names
    hours = [k for k, c in enumerate(names) if c.startswith("hour_of_the_day=")]
    hour = next(k for k in hours if matrix.X[j, k] == 1.0)
    day = next(k for k, c in enumerate(names) if c.startswith("day_of_week=") and matrix.X[j, k] == 1.0)
    changes = {"hour": {hour: 0.0, hours[(hours.index(hour) + 12) % 24]: 1.0},
               "weekday": {day: 0.0, day + 1 if day + 1 < names.index("holiday") else day - 1: 1.0},
               "holiday": {names.index("holiday"): 1.0},
               "temperature": {0: matrix.X[j, 0] + 5.0}, "precipitation": {1: matrix.X[j, 1] + 3.0}}
    for what, cells in changes.items():
        X = matrix.X.copy()
        for k, value in cells.items():
            X[j, k] = value
        changed = FeatureMatrix(X, matrix.y, names, matrix.slot_us, 60, matrix.next_row)
        assert predict_rows(tm, changed, [j])[0] != base, what
    y = matrix.y.copy()
    y[j] += 25.0
    same = FeatureMatrix(matrix.X, y, names, matrix.slot_us, 60, matrix.next_row)
    assert predict_rows(tm, same, [j])[0] == base


LOOKBACKS = (1, 2, 8)


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(st.integers(1, 3), min_size=1, max_size=40), width=st.sampled_from([30, 60]),
       picks=st.lists(st.integers(0, 40), max_size=20))
def test_scorable_is_a_per_target_datetime_loop_on_gapped_matrices(steps, width, picks):
    """A target scores when the `lookback` rows that end at it lie on
    consecutive slots; a step over 1 is a slot that build_features dropped."""
    slot_us = us(START) + width * 60_000_000 * np.cumsum([0] + steps)
    n = len(slot_us)
    matrix = FeatureMatrix(np.zeros((n, 1)), np.zeros(n), ["c"], slot_us, width)
    targets = [t for t in picks if t <= n]  # row n is the next slot
    starts = [from_us(v) for v in slot_us] + [from_us(slot_us[-1]) + timedelta(minutes=width)]
    for lookback in LOOKBACKS:
        want = []
        for j in targets:
            first = j - lookback + 1
            want.append(first >= 0 and starts[j] - starts[first] == (lookback - 1) * timedelta(minutes=width))
        assert evaluate_module.scorable(matrix, targets, lookback).tolist() == want


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


def test_lstm_trains_and_scores_in_float32(monkeypatch):
    """The recurrent model trains in float32, its test predictions are
    `predict_rows` on the same rows, and they follow a float64 fit of the same
    spec to well within a trip."""
    m = rigged_matrix()
    plan = chronological_split(m, "80/20")
    tm = train_model(m, plan.train_rows, SPECS[3])
    assert {w.dtype for w in tm.model.weights.values()} == {np.dtype(np.float32)}
    single = fit_and_score(m, plan.train_rows, plan.test_rows, SPECS[3])
    assert single.skipped == 0
    assert single.predictions.tobytes() == predict_rows(tm, m, single.targets).tobytes()
    monkeypatch.setattr(evaluate_module, "WINDOW_DTYPE", np.float64)
    double = fit_and_score(m, plan.train_rows, plan.test_rows, SPECS[3])
    assert double.model.model.dtype == np.float64
    np.testing.assert_allclose(single.predictions, double.predictions, rtol=0, atol=1e-4)


def test_boosting_training_curve_survives_the_artifact():
    m = rigged_matrix()
    tm = train_model(m, chronological_split(m, "80/20").train_rows, SPECS[2])
    curve = tm.meta["train_mse"]
    assert len(curve) == tm.meta["rounds_run"] == 25
    assert curve[-1] == tm.meta["final_train_mse"]
    assert all(later <= earlier for earlier, later in zip(curve, curve[1:]))
    back = load_artifact(json.loads(json.dumps(model_artifact(tm, m.column_names))))
    assert back.meta["train_mse"] == curve


def test_unknown_kind_rejected():
    with pytest.raises(ParameterError):
        ModelSpec("svm")


def test_linear_rejects_hyperparams():
    m = rigged_matrix()
    plan = chronological_split(m, "80/20")
    with pytest.raises(ParameterError):
        train_model(m, plan.train_rows, ModelSpec("linear", {"alpha": 1.0}))


@pytest.mark.parametrize("kind, hyperparams, message", [
    ("forest", {"n_tree": 5}, "unknown models.forest keys ['n_tree']"),
    ("forest", {"max_depth": "deep"}, "models.forest.max_depth must be an integer or null, got 'deep'"),
    ("forest", {"bootstrap": 1}, "models.forest.bootstrap must be true or false, got 1"),
    ("boost", {"n_rounds": 2.5}, "models.boost.n_rounds must be an integer, got 2.5"),
    ("boost", {"n_rounds": True}, "models.boost.n_rounds must be an integer, got True"),
    ("lstm", {"lookback": "x"}, "models.lstm.lookback must be an integer, got 'x'"),
], ids=["forest-unknown-key", "forest-str-depth", "forest-int-bootstrap", "boost-float-rounds",
        "boost-bool-rounds", "lstm-str-lookback"])
def test_bad_hyperparameter_names_the_kind_and_the_key(kind, hyperparams, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        ModelSpec(kind, hyperparams)


@pytest.mark.parametrize("kind, hyperparams", [
    ("forest", {"n_trees": 0}),
    ("forest", {"max_features": "half"}),
    ("boost", {"learning_rate": 2.0}),
    ("lstm", {"lookback": 0}),
    ("lstm", {"learning_rate": 0.0}),
], ids=lambda v: v if isinstance(v, str) else next(iter(v)))
def test_out_of_range_hyperparameter_is_rejected_with_the_spec(kind, hyperparams):
    with pytest.raises(ParameterError, match=next(iter(hyperparams))):
        ModelSpec(kind, hyperparams)


@pytest.mark.parametrize("make", [
    lambda: LstmParams(learning_rate=float("nan")),
    lambda: ForestParams(max_features=0),
    lambda: ForestParams(max_features=True),
    lambda: ForestParams(max_features="half"),
], ids=["lstm-nan-learning_rate", "forest-zero-max_features", "forest-bool-max_features", "forest-half-max_features"])
def test_params_built_in_code_refuse_what_no_fit_can_use(make):
    with pytest.raises(ParameterError, match="learning_rate|max_features"):
        make()


def test_hyperparameters_are_parsed_once_into_params():
    spec = ModelSpec("forest", {"max_depth": None, "max_features": "all", "bootstrap": False})
    assert (spec.params.max_depth, spec.params.max_features, spec.params.bootstrap) == (None, "all", False)
    assert ModelSpec("boost", {"learning_rate": 1}).params.learning_rate == 1  # a float field takes an int
    assert ModelSpec("lstm", {"lookback": 5}).lookback == 5
    assert ModelSpec("linear").params is None and ModelSpec("linear").lookback == 0
