"""End-to-end tests of the CLI on a small synthetic city with hubs that
spans a month boundary (so `spatial.per_month` writes two monthly grids).
Three hand-written activities are appended to its points so that ingest
repairs and rejects points for every reason."""

import csv
import json
import math
import runpy
import shutil
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from velotrace import cli
from velotrace.errors import ParameterError, TrainingError
from velotrace.features import read_features_csv
from velotrace.ingest import POINT_HEADER, assemble_trips, load_trips_npz, parse_points
from velotrace.models.evaluate import ModelSpec, train_model
from velotrace.models.linear import LinearModel
from velotrace.models.serialize import load_artifact, model_artifact
from velotrace.spatial import build_density_grid, write_density_csv
from velotrace.util import sha256_file, write_csv

from conftest import child_env, from_us, utc_text

CONFIG = {
    "synth": {"start_date": "2017-05-24", "end_date": "2017-06-06", "base_trips_per_day": 40},
    "spatial": {"per_month": True},
    "train": {"models": ["linear", "boost"], "with_cv": False},
    "models": {"boost": {"n_rounds": 5}},
}
EXTRA_POINTS = """\
X1,2017-05-30T08:00:00Z,,,,
X1,2017-05-30T08:00:10Z,44.49,11.34,5.0,3.0
X1,2017-05-30T08:00:20Z,,,5.0,
X1,2017-05-30T08:00:30Z,44.491,11.341,,3.1
X1,2017-05-30T08:00:40Z,,,5.0,3.0
X2,2017-05-31T22:30:00Z,44.5,11.35,,
X3,2017-06-01T10:00:00Z,44.5,11.35,4.0,2.0
X3,2017-06-01T10:00:00Z,44.51,11.36,4.0,2.0
"""
ANALYSES = (["describe"], ["spatial"], ["covariates"], ["features", "--width", "60"])


@pytest.fixture(scope="module")
def city(tmp_path_factory):
    root = tmp_path_factory.mktemp("city")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    assert cli.main(["synth", "--config", str(config), "--out", str(root / "inputs")]) == 0
    with open(root / "inputs" / "points.csv", "a", encoding="utf-8", newline="") as f:
        f.write(EXTRA_POINTS)
    return root


@pytest.fixture
def parse_calls(monkeypatch):
    """Counts the CLI's calls of parse_points."""
    calls = []
    real = cli.parse_points

    def counting(source):
        calls.append(source)
        return real(source)

    monkeypatch.setattr(cli, "parse_points", counting)
    return calls


def cli_args(city, outdir, argv, points=None, weather=None, config=None):
    inputs = city / "inputs"
    common = ["--config", str(config or city / "config.json"), "--out", str(outdir),
              "--points", str(points or inputs / "points.csv"),
              "--weather", str(weather or inputs / "weather.csv")]
    for key in ("calendar", "hubs"):
        common += [f"--{key}", str(inputs / f"{key}.csv")]
    return argv + common


def run(city, outdir, argv, points=None, weather=None):
    assert cli.main(cli_args(city, outdir, argv, points, weather)) == 0, argv


def run_analyses(city, outdir, points=None):
    for argv in ANALYSES:
        run(city, outdir, argv, points)


def assert_same_analysis_outputs(reused, fresh):
    """Every analysis output of the fresh directory has the same bytes in the reused one."""
    names = sorted(p.name for p in fresh.iterdir() if p.name != "manifest.json")
    assert {"density.csv", "hubs.json", "profile.json", "correlations.json", "features.csv"} <= set(names)
    for name in names:
        assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name
    fresh_manifest = json.loads((fresh / "manifest.json").read_text())["outputs"]
    reused_manifest = json.loads((reused / "manifest.json").read_text())["outputs"]
    assert {k: reused_manifest[k] for k in fresh_manifest} == fresh_manifest


def test_analyses_reuse_points_npz_byte_identically(city, tmp_path, parse_calls):
    run(city, tmp_path / "a", ["ingest"])
    assert len(parse_calls) == 1
    run_analyses(city, tmp_path / "a")
    assert len(parse_calls) == 1
    run_analyses(city, tmp_path / "b")
    assert len(parse_calls) == 1 + len(ANALYSES)
    assert_same_analysis_outputs(tmp_path / "a", tmp_path / "b")

    assert sorted(p.name for p in (tmp_path / "a").glob("density_*.csv")) == [
        "density_2017-05.csv", "density_2017-06.csv"]
    periods = {r["period"] for r in json.loads((tmp_path / "a" / "hubs.json").read_text())}
    assert periods == {"all", "2017-05", "2017-06"}
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())["outputs"]
    assert "points.npz" in manifest


@pytest.mark.parametrize("offset", [120, -330])
def test_monthly_density_groups_points_by_local_month(city, tmp_path, offset):
    run(city, tmp_path, ["ingest", "--utc-offset-min", str(offset)])
    run(city, tmp_path, ["spatial", "--utc-offset-min", str(offset)])
    table = parse_points(city / "inputs" / "points.csv")
    assemble_trips(table)  # repairs the table in place, as spatial bins it
    by_month = {}
    for t_us, lat, lon in zip(table.t.tolist(), table.lat.tolist(), table.lon.tolist()):
        if not math.isnan(lat):
            local = from_us(t_us).astimezone(timezone(timedelta(minutes=offset)))
            by_month.setdefault(local.strftime("%Y-%m"), []).append((lat, lon))
    assert sorted(by_month) == ["2017-05", "2017-06"]
    for mk, coords in by_month.items():
        lat, lon = np.transpose(coords)
        grid = build_density_grid(lat, lon, tuple(cli.DEFAULTS["bbox"]), cli.DEFAULTS["spatial"]["cell_size_m"])
        write_density_csv(grid, tmp_path / "reference.csv")
        assert (tmp_path / f"density_{mk}.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes(), mk


def test_second_ingest_writes_identical_npz(city, tmp_path):
    run(city, tmp_path, ["ingest"])
    first = (tmp_path / "points.npz").read_bytes()
    run(city, tmp_path, ["ingest"])
    assert (tmp_path / "points.npz").read_bytes() == first
    with np.load(tmp_path / "points.npz", allow_pickle=False) as z:
        assert all(z[k].dtype != object for k in z.files)


def test_rewritten_points_csv_is_parsed_again(city, tmp_path, parse_calls):
    points = tmp_path / "points.csv"
    shutil.copyfile(city / "inputs" / "points.csv", points)
    run(city, tmp_path / "a", ["ingest"], points)
    lines = points.read_text(encoding="utf-8").splitlines(keepends=True)
    dropped = lines[1].split(",")[0]
    points.write_text("".join(ln for ln in lines if not ln.startswith(dropped + ",")), encoding="utf-8")
    del parse_calls[:]
    run_analyses(city, tmp_path / "a", points)
    assert len(parse_calls) == len(ANALYSES)
    run_analyses(city, tmp_path / "b", points)
    assert_same_analysis_outputs(tmp_path / "a", tmp_path / "b")
    profile = json.loads((tmp_path / "b" / "profile.json").read_text())
    run_analyses(city, tmp_path / "c")
    assert json.loads((tmp_path / "c" / "profile.json").read_text()) != profile


def test_truncated_npz_is_ignored(city, tmp_path, parse_calls):
    run(city, tmp_path / "a", ["ingest"])
    npz = tmp_path / "a" / "points.npz"
    npz.write_bytes(npz.read_bytes()[: npz.stat().st_size // 2])
    del parse_calls[:]
    run_analyses(city, tmp_path / "a")
    assert len(parse_calls) == len(ANALYSES)
    run_analyses(city, tmp_path / "b")
    assert_same_analysis_outputs(tmp_path / "a", tmp_path / "b")


def test_an_npz_that_also_holds_accuracy_and_speed_still_serves(city, tmp_path, parse_calls):
    """`points.npz` files written before the parse dropped accuracy and speed
    hold them as two more point columns."""
    run(city, tmp_path / "old", ["ingest"])
    npz = tmp_path / "old" / "points.npz"
    with np.load(npz, allow_pickle=False) as z:
        arrays = {k: z[k] for k in z.files}
    n = len(arrays["t"])
    point_columns = {k: arrays[k] for k in ("source_sha256", "ids", "activity", "t", "lat", "lon")}
    np.savez(npz, **{**point_columns, "accuracy": np.full(n, 5.0), "speed": np.full(n, 3.0), **arrays})
    del parse_calls[:]
    for argv in (["describe"], ["spatial"]):
        run(city, tmp_path / "old", argv)
    assert parse_calls == []
    for argv in (["describe"], ["spatial"]):
        run(city, tmp_path / "fresh", argv)
    names = sorted(p.name for p in (tmp_path / "fresh").iterdir() if p.name != "manifest.json")
    assert {"profile.json", "density.csv", "hubs.json"} <= set(names)
    for name in names:
        assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name


def test_ingest_summary_counts_rejections_by_reason(city, tmp_path, capsys):
    run(city, tmp_path, ["ingest"])
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    by_reason = summary["rejections_by_reason"]
    assert set(by_reason) == {"boundary-missing", "too-few-points", "zero-duration"}
    assert sum(by_reason.values()) == summary["rejections"]
    with open(tmp_path / "rejections.csv", newline="") as f:
        reasons = [row[1] for row in csv.reader(f)][1:]
    assert by_reason == {k: reasons.count(k) for k in by_reason}
    assert by_reason == {"boundary-missing": 2, "too-few-points": 1, "zero-duration": 1}


def test_predictions_actual_column_is_the_target(city, tmp_path):
    run(city, tmp_path, ["features", "--width", "60"])
    run(city, tmp_path, ["train", "--split", "60/40"])
    matrix = read_features_csv(tmp_path / "features.csv")
    target = {utc_text(from_us(s)): y for s, y in zip(matrix.slot_us, matrix.y)}
    files = sorted(tmp_path.glob("predictions*.csv"))
    assert [p.name for p in files] == ["predictions_boost.csv", "predictions_linear.csv"]
    for path in files:
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert rows
        for row in rows:
            assert float(row["actual"]) == target[row["slot_start"]], path.name


def test_ingest_of_header_only_points_writes_a_loadable_npz(city, tmp_path):
    points = tmp_path / "points.csv"
    points.write_text(",".join(POINT_HEADER) + "\n", encoding="utf-8")
    run(city, tmp_path / "out", ["ingest"], points)
    trips, columns = load_trips_npz(tmp_path / "out" / "points.npz", sha256_file(points), ["t"])
    assert len(columns["t"]) == 0 and len(trips) == 0
    for name in ("trips.csv", "rejections.csv"):
        assert len((tmp_path / "out" / name).read_text().splitlines()) == 1, name


def test_single_month_monthly_csv_has_the_multi_month_format(city, tmp_path):
    run(city, tmp_path / "both", ["describe"])
    both = (tmp_path / "both" / "monthly.csv").read_bytes().split(b"\r\n")
    assert len(both) == 4 and both[1].startswith(b"2017-05,") and both[2].startswith(b"2017-06,")
    # the rows before 2017-05-31T00:00Z all start in May, local time
    points = tmp_path / "points.csv"
    lines = (city / "inputs" / "points.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    points.write_text("".join(lines[:1] + [ln for ln in lines[1:] if ln.split(",")[1] < "2017-05-31T"]),
                      encoding="utf-8")
    run(city, tmp_path / "may", ["describe"], points)
    count = json.loads((tmp_path / "may" / "profile.json").read_text())["monthly_counts"]["2017-05"]
    expected = [both[0], f"2017-05,{count},,1.0".encode(), b""]
    assert (tmp_path / "may" / "monthly.csv").read_bytes().split(b"\r\n") == expected


@pytest.mark.parametrize("kind", ["linear", "boost"])
def test_tabular_predict_reads_the_next_row_of_features_json(city, tmp_path, capsys, kind):
    run(city, tmp_path, ["features", "--width", "60"])
    run(city, tmp_path, ["train", "--split", "60/40"])
    capsys.readouterr()
    run(city, tmp_path, ["predict", "--artifact", str(tmp_path / f"model_{kind}.json")])
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    matrix = read_features_csv(tmp_path / "features.csv")
    tm = load_artifact(json.loads((tmp_path / f"model_{kind}.json").read_text()))
    assert summary["slot_start"] == utc_text(from_us(matrix.slot_us[-1]) + timedelta(minutes=60))
    assert summary["predicted"] == float(tm.model.predict(matrix.next_row[np.newaxis, :])[0])
    assert json.loads((tmp_path / "prediction.json").read_text()) == {
        k: v for k, v in summary.items() if k != "command"}


def test_lstm_predict_rejects_a_trailing_window_across_a_gap(city, tmp_path):
    weather = tmp_path / "weather.csv"
    lines = (city / "inputs" / "weather.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    weather.write_text("".join(lines[:-10] + lines[-9:]), encoding="utf-8")  # drop one late hour
    run(city, tmp_path, ["features", "--width", "60"], weather=weather)
    matrix = read_features_csv(tmp_path / "features.csv")
    gap = [j for j in range(1, matrix.n_rows)
           if from_us(matrix.slot_us[j]) - from_us(matrix.slot_us[j - 1]) != timedelta(minutes=60)]
    assert len(gap) == 1 and matrix.n_rows - gap[0] < 24
    tm = train_model(matrix, range(matrix.n_rows - 30), ModelSpec("lstm", {"lookback": 24, "epochs": 1}))
    with pytest.raises(ParameterError, match="gap"):
        cli._next_slot_prediction(tm, matrix)


def test_lstm_predict_reads_the_next_slot_s_hour_and_holiday(city, trained, tmp_path):
    """The next slot's window ends at its own row, the sidecar's `next_row`, so
    that row's hour and holiday move the forecast that `predict` writes."""
    shutil.copytree(trained, tmp_path, dirs_exist_ok=True)
    matrix = read_features_csv(trained / "features.csv")
    tm = train_model(matrix, range(matrix.n_rows), ModelSpec("lstm", {"hidden_size": 6, "lookback": 4, "epochs": 2}))
    (tmp_path / "model_lstm.json").write_text(json.dumps(model_artifact(tm, matrix.column_names)))
    meta = json.loads((trained / "features.json").read_text())

    def predicted(next_row) -> float:
        (tmp_path / "features.json").write_text(json.dumps({**meta, "next_row": next_row}))
        run(city, tmp_path, ["predict"])
        return json.loads((tmp_path / "prediction.json").read_text())["predicted"]

    base = predicted(meta["next_row"])
    hours = [j for j, c in enumerate(matrix.column_names) if c.startswith("hour_of_the_day=")]
    hour = next(j for j in hours if meta["next_row"][j] == 1.0)
    moved = list(meta["next_row"])
    moved[hour], moved[hours[(hours.index(hour) + 12) % 24]] = 0.0, 1.0
    assert predicted(moved) != base
    holiday = matrix.column_names.index("holiday")
    flipped = list(meta["next_row"])
    flipped[holiday] = 1.0 - flipped[holiday]
    assert predicted(flipped) != base


def error_of(capsys, argv) -> dict:
    """The error JSON of a failing CLI run; its exit code is the process's."""
    code = cli.main(argv)
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error"]
    assert err["exit_code"] == code
    return err


def test_missing_points_file_exits_2(city, tmp_path, capsys):
    missing = tmp_path / "nowhere.csv"
    err = error_of(capsys, cli_args(city, tmp_path, ["ingest"], points=missing))
    assert (err["exit_code"], err["type"], err["path"]) == (2, "MissingInputError", str(missing))


@pytest.mark.parametrize("command", ["train", "predict"])
def test_missing_features_json_exits_2(city, tmp_path, capsys, command):
    run(city, tmp_path, ["features", "--width", "60"])
    run(city, tmp_path, ["train", "--model", "linear"])
    (tmp_path / "features.json").unlink()
    argv = ["train"] if command == "train" else ["predict", "--artifact", str(tmp_path / "model_linear.json")]
    err = error_of(capsys, cli_args(city, tmp_path, argv))
    assert (err["exit_code"], err["type"], err["path"]) == (2, "MissingInputError", str(tmp_path / "features.json"))


def test_malformed_points_row_exits_3(city, tmp_path, capsys):
    points = tmp_path / "points.csv"
    lines = (city / "inputs" / "points.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    points.write_text("".join(lines[:3] + ["A1,not-a-time,44.5,11.3,5.0,3.0\n"] + lines[3:]), encoding="utf-8")
    err = error_of(capsys, cli_args(city, tmp_path, ["ingest"], points=points))
    assert (err["exit_code"], err["type"]) == (3, "ParseError")
    assert err["message"].startswith("line 4:")


def test_training_failure_exits_4(city, tmp_path, capsys, monkeypatch):
    run(city, tmp_path, ["features", "--width", "60"])

    def diverge(*args, **kwargs):
        raise TrainingError("loss diverged")

    monkeypatch.setattr(LinearModel, "fit", diverge)
    err = error_of(capsys, cli_args(city, tmp_path, ["train", "--model", "linear"]))
    assert (err["exit_code"], err["type"], err["message"]) == (4, "TrainingError", "loss diverged")


def test_rerun_of_the_chain_writes_an_identical_manifest(city, tmp_path):
    for outdir in (tmp_path / "a", tmp_path / "b"):
        run(city, outdir, ["ingest"])
        run_analyses(city, outdir)
        run(city, outdir, ["train"])
        run(city, outdir, ["predict", "--artifact", str(outdir / "model_boost.json")])
    assert (tmp_path / "a" / "manifest.json").read_bytes() == (tmp_path / "b" / "manifest.json").read_bytes()
    outputs = json.loads((tmp_path / "a" / "manifest.json").read_text())["outputs"]
    assert {"model_linear.json", "model_boost.json", "prediction.json"} <= set(outputs)
    assert outputs["features.json"] == sha256_file(tmp_path / "a" / "features.json")
    meta = json.loads((tmp_path / "a" / "features.json").read_text())
    assert sorted(meta) == ["next_row", "next_slot_start", "utc_offset_min", "width_minutes"]
    assert (meta["width_minutes"], meta["utc_offset_min"]) == (60, 120)


def config_with(tmp_path, **sections) -> str:
    """A config file: the city's, with the given sections replaced."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**CONFIG, **sections}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("kind, hyperparams, message", [
    ("forest", {"n_tree": 5}, "unknown models.forest keys ['n_tree']"),
    ("forest", {"max_depth": "deep"}, "models.forest.max_depth must be an integer or null, got 'deep'"),
    ("boost", {"n_rounds": 2.5}, "models.boost.n_rounds must be an integer, got 2.5"),
    ("lstm", {"lookback": "x"}, "models.lstm.lookback must be an integer, got 'x'"),
    # no fit can use these: JSON's NaN and 1e999 (read as infinity), a share of the columns not named
    ("lstm", {"learning_rate": float("nan")}, "models.lstm.learning_rate must be a number, got nan"),
    ("lstm", {"learning_rate": float("1e999")}, "models.lstm.learning_rate must be a number, got inf"),
    ("forest", {"max_features": "half"}, "max_features must be 'all', 'third' or an integer >= 1, got 'half'"),
], ids=["forest-n_tree", "forest-max_depth", "boost-n_rounds", "lstm-lookback", "lstm-learning_rate-nan",
        "lstm-learning_rate-1e999", "forest-max_features-half"])
def test_bad_hyperparameter_exits_1_before_fitting(city, tmp_path, capsys, monkeypatch, kind, hyperparams, message):
    run(city, tmp_path, ["features", "--width", "60"])
    monkeypatch.setattr(cli, "evaluate", lambda *a, **k: pytest.fail("a model was fitted"))
    config = config_with(tmp_path, models={kind: hyperparams})
    err = error_of(capsys, cli_args(city, tmp_path, ["train", "--model", kind], config=config))
    assert (err["exit_code"], err["type"], err["message"]) == (1, "ParameterError", message)


def test_unknown_synth_key_exits_1(tmp_path, capsys):
    config = config_with(tmp_path, synth={"base_trips_per_dya": 5})
    err = error_of(capsys, ["synth", "--config", config, "--out", str(tmp_path / "out")])
    assert (err["exit_code"], err["type"]) == (1, "ParameterError")
    assert "base_trips_per_dya" in err["message"]
    assert not (tmp_path / "out" / "points.csv").exists()


# (key, value, what the key must be) of a synth value that no draw can use
SYNTH_VALUES_NO_DRAW_CAN_USE = [
    ("point_interval_s", 0, "a positive integer"), ("point_interval_s", -5, "a positive integer"),
    ("point_interval_s", "10", "an integer"), ("point_interval_s", 2.5, "an integer"),
    ("missing_fraction", "0.02", "a number"), ("missing_fraction", 1.5, "a number in [0, 1]"),
    ("missing_fraction", -0.1, "a number in [0, 1]"), ("base_trips_per_day", -5, "a finite number >= 0"),
    ("weekday_multiplier", -1.0, "a finite number >= 0"), ("hub_jitter_m", "60", "a number"),
    ("day_noise_sigma", -0.1, "a finite number >= 0"),
]
RAIN = {"day": "2017-05-26", "start_hour": 8, "duration_h": 2, "mm_per_hour": 3.0, "suppression": 0.5}
# a value inside a synth list that no draw can use, or that writes a file the parsers refuse
SYNTH_ITEMS_NO_DRAW_CAN_USE = {
    "holiday-suppression": ({"holiday_suppressions": [["2017-05-30", 1.5]]},
                            "synth.holiday_suppressions[0][1] must be a number in [0, 1], got 1.5"),
    "rain-suppression": ({"rain_events": [{**RAIN, "suppression": -0.5}]},
                         "synth.rain_events[0].suppression must be a number in [0, 1], got -0.5"),
    "rain-mm_per_hour": ({"rain_events": [RAIN, {**RAIN, "mm_per_hour": -3.0}]},
                         "synth.rain_events[1].mm_per_hour must be a finite number >= 0, got -3.0"),
    "hourly_shape-negative": ({"hourly_shape": [1.0] * 23 + [-1.0]},
                              "synth.hourly_shape[23] must be a finite number >= 0, got -1.0"),
    "hourly_shape-zero-sum": ({"hourly_shape": [0.0] * 24},
                              f"synth.hourly_shape must be 24 numbers of positive sum, got {(0.0,) * 24!r}"),
    "null-kind": ({"null_events": [["2017-05-30", "riot", "r"]]},
                  "synth.null_events[0][1] must be one of ('strike', 'protest', 'event'), got 'riot'"),
    "rain-duration_h": ({"rain_events": [{**RAIN, "duration_h": 0}]},
                        "synth.rain_events[0].duration_h must be an integer >= 1, got 0"),
    "speed-sigma": ({"speed": {"sigma": -0.1}}, "synth.speed.sigma must be a finite number >= 0, got -0.1"),
    "speed-mode": ({"speed": {"mode_mps": 0}}, "synth.speed.mode_mps must be a finite number > 0, got 0"),
    "trip_length-sigma": ({"trip_length": {"sigma": -0.35}},
                          "synth.trip_length.sigma must be a finite number >= 0, got -0.35"),
    "trip_length-mode": ({"trip_length": {"mode_m": 0.0}},
                         "synth.trip_length.mode_m must be a finite number > 0, got 0.0"),
}


@pytest.mark.parametrize("synth, message", [({key: value}, f"synth.{key} must be {want}, got {value!r}")
                                            for key, value, want in SYNTH_VALUES_NO_DRAW_CAN_USE]
                         + list(SYNTH_ITEMS_NO_DRAW_CAN_USE.values()),
                         ids=[f"{key}-{value}" for key, value, _ in SYNTH_VALUES_NO_DRAW_CAN_USE]
                         + list(SYNTH_ITEMS_NO_DRAW_CAN_USE))
def test_synth_value_no_draw_can_use_exits_1(tmp_path, capsys, synth, message):
    config = config_with(tmp_path, synth={**CONFIG["synth"], **synth})
    err = error_of(capsys, ["synth", "--config", config, "--out", str(tmp_path / "out")])
    assert (err["exit_code"], err["type"], err["message"]) == (1, "ParameterError", message)
    assert not (tmp_path / "out" / "points.csv").exists()


@pytest.mark.parametrize("section, keys", [
    ("describe", {"bin_distance": 100}),
    ("spatial", {"cell_size": 25.0, "topk": 3}),
    ("features", {"widht": 30}),
    ("train", {"with_vc": False}),
    ("models", {"forst": {"n_trees": 5}}),
    ("paths", {"poinst": "points.csv"}),
    (None, {"sed": 3}),
    ("models", {"seed": 7}),  # the models' seed is the run's
    ("synth", {"seed": 3, "utc_offset_min": 60}),  # and so are the city's seed and offset
    ("synth", {"bbox": [100, 11, 120, 12]}),  # and its box
])
def test_unknown_config_key_exits_1(city, tmp_path, capsys, section, keys):
    config = config_with(tmp_path, **({section: {**CONFIG.get(section, {}), **keys}} if section else keys))
    err = error_of(capsys, cli_args(city, tmp_path, ["features", "--width", "60"], config=config))
    assert (err["exit_code"], err["type"]) == (1, "ParameterError")
    assert err["message"] == f"unknown {section or 'top-level'} keys {sorted(keys)}"
    assert not (tmp_path / "features.csv").exists()


def test_config_section_that_is_not_an_object_exits_1(city, tmp_path, capsys):
    config = config_with(tmp_path, features=60)
    err = error_of(capsys, cli_args(city, tmp_path, ["features"], config=config))
    assert (err["exit_code"], err["type"]) == (1, "ParameterError")
    assert err["message"] == "config section 'features' must be an object, got 60"


def test_empty_model_list_exits_1(city, tmp_path, capsys):
    run(city, tmp_path, ["features", "--width", "60"])
    config = config_with(tmp_path, train={"models": []})
    err = error_of(capsys, cli_args(city, tmp_path, ["train"], config=config))
    assert (err["exit_code"], err["type"]) == (1, "ParameterError")


@pytest.fixture(scope="module")
def trained(city, tmp_path_factory):
    """An output directory holding features and a linear model artifact."""
    outdir = tmp_path_factory.mktemp("trained")
    run(city, outdir, ["features", "--width", "60"])
    run(city, outdir, ["train", "--model", "linear"])
    return outdir


def damaged_copy(trained, tmp_path, name, damage) -> None:
    """Copy the trained directory to tmp_path, with `damage` applied to the text of one file."""
    shutil.copytree(trained, tmp_path, dirs_exist_ok=True)
    path = tmp_path / name
    path.write_text(damage(path.read_text(encoding="utf-8")), encoding="utf-8")


def replace_line(n, change):
    """A damage that rewrites line n (1-based) of a file."""
    def damage(text):
        lines = text.splitlines(keepends=True)
        lines[n - 1] = change(lines[n - 1])
        return "".join(lines)
    return damage


def command_argv(command, outdir) -> list[str]:
    """`train` of the linear model, or `predict` with its artifact in outdir."""
    if command == "predict":
        return ["predict", "--artifact", str(outdir / "model_linear.json")]
    return ["train", "--model", "linear"]


@pytest.mark.parametrize("name, command", [
    ("features.json", "train"),
    ("model_linear.json", "predict"),
    ("manifest.json", "train"),
])
def test_invalid_json_input_exits_3(city, trained, tmp_path, capsys, name, command):
    damaged_copy(trained, tmp_path, name, lambda text: text.replace(",", ";", 3))
    err = error_of(capsys, cli_args(city, tmp_path, command_argv(command, tmp_path)))
    assert (err["exit_code"], err["type"]) == (3, "ParseError")
    assert err["message"].startswith("line ") and name in err["message"]


def test_invalid_json_config_exits_3(city, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"seed": 1,\n "train": }\n', encoding="utf-8")
    err = error_of(capsys, cli_args(city, tmp_path, ["train"], config=config))
    assert (err["exit_code"], err["type"]) == (3, "ParseError")
    assert err["message"].startswith("line 2:")


@pytest.mark.parametrize("damage", [
    lambda doc: {k: v for k, v in doc.items() if k != "state"},
    lambda doc: {**doc, "state": {"coef": "many"}},
    lambda doc: {**doc, "kind": "svm"},
    lambda doc: [doc],
], ids=["no-state", "bad-coef", "bad-kind", "not-an-object"])
def test_malformed_artifact_exits_3(city, trained, tmp_path, capsys, damage):
    damaged_copy(trained, tmp_path, "model_linear.json", lambda text: json.dumps(damage(json.loads(text))))
    err = error_of(capsys, cli_args(city, tmp_path, command_argv("predict", tmp_path)))
    assert (err["exit_code"], err["type"]) == (3, "SchemaError")


def test_predict_refuses_a_version_1_artifact(city, trained, tmp_path, capsys):
    """A version-1 recurrent window ended before its target, so no version-1
    artifact is read as a version-2 one."""
    damaged_copy(trained, tmp_path, "model_linear.json", lambda text: json.dumps({**json.loads(text),
                                                                                  "format_version": 1}))
    err = error_of(capsys, cli_args(city, tmp_path, command_argv("predict", tmp_path)))
    assert (err["exit_code"], err["type"], err["message"]) == (3, "SchemaError", "unsupported artifact version 1")
    assert not (tmp_path / "prediction.json").exists()


def test_predict_on_a_renamed_feature_column_exits_3(city, trained, tmp_path, capsys):
    rename = replace_line(1, lambda line: line.replace("month=2017-05", "month=2017-06"))
    damaged_copy(trained, tmp_path, "features.csv", rename)
    j = read_features_csv(trained / "features.csv").column_names.index("month=2017-05") + 1
    err = error_of(capsys, cli_args(city, tmp_path, command_argv("predict", tmp_path)))
    assert (err["exit_code"], err["type"]) == (3, "SchemaError")
    assert err["message"] == f"feature column {j} is 'month=2017-06', but the model was trained on 'month=2017-05'"
    assert not (tmp_path / "prediction.json").exists()


@pytest.mark.parametrize("kind", ["linear", "lstm"])
@pytest.mark.parametrize("dropped, found", [("holiday", "'hour_history'"), ("week_history", "absent")])
def test_predict_on_features_without_a_column_exits_3(city, trained, tmp_path, capsys, kind, dropped, found):
    shutil.copytree(trained, tmp_path, dirs_exist_ok=True)
    matrix = read_features_csv(trained / "features.csv")
    if kind == "lstm":
        tm = train_model(matrix, range(matrix.n_rows), ModelSpec("lstm", {"lookback": 24, "epochs": 1}))
        (tmp_path / "model_lstm.json").write_text(json.dumps(model_artifact(tm, matrix.column_names)))
    j = matrix.column_names.index(dropped)
    with open(trained / "features.csv", encoding="utf-8", newline="") as f:
        header, *rows = csv.reader(f)
    write_csv(tmp_path / "features.csv", header[:j] + header[j + 1:], (r[:j] + r[j + 1:] for r in rows))
    meta = json.loads((trained / "features.json").read_text())
    del meta["next_row"][j]
    (tmp_path / "features.json").write_text(json.dumps(meta))
    err = error_of(capsys, cli_args(city, tmp_path, ["predict", "--artifact", str(tmp_path / f"model_{kind}.json")]))
    assert (err["exit_code"], err["type"]) == (3, "SchemaError")
    assert err["message"] == f"feature column {j + 1} is {found}, but the model was trained on {dropped!r}"


@pytest.mark.parametrize("entry", ["1.5", None, True, float("nan")], ids=["string", "null", "bool", "nan"])
def test_next_row_entry_that_is_not_a_finite_number_exits_3(city, trained, tmp_path, capsys, entry):
    """The sidecar's next-slot row is checked where it is read, so that no
    traceback and no `NaN` prediction (which is not JSON) can come of it."""
    def damage(text):
        meta = json.loads(text)
        meta["next_row"][1] = entry
        return json.dumps(meta)

    damaged_copy(trained, tmp_path, "features.json", damage)
    err = error_of(capsys, cli_args(city, tmp_path, command_argv("predict", tmp_path)))
    assert (err["exit_code"], err["type"]) == (3, "SchemaError")
    assert err["message"].endswith(f"next_row entry {entry!r} is not a finite number")
    assert not (tmp_path / "prediction.json").exists()


MALFORMED_ROWS = {
    "non-numeric-cell": lambda line: "abc" + line[line.index(","):],
    "bad-slot-start": lambda line: line[:line.rindex(",") + 1] + "2017-13-01T00:00:00Z\r\n",
    "extra-field": lambda line: line[:line.index(",") + 1] + line,
}


@pytest.mark.parametrize("command, change", [("train", c) for c in MALFORMED_ROWS.values()]
                         + [("predict", c) for c in MALFORMED_ROWS.values()],
                         ids=[*MALFORMED_ROWS, *(f"predict-{name}" for name in MALFORMED_ROWS)])
def test_malformed_features_row_exits_3_with_its_line(city, trained, tmp_path, capsys, command, change):
    damaged_copy(trained, tmp_path, "features.csv", replace_line(5, change))
    err = error_of(capsys, cli_args(city, tmp_path, command_argv(command, tmp_path)))
    assert (err["exit_code"], err["type"]) == (3, "ParseError")
    assert err["message"].startswith("line 5:")


def test_features_file_without_its_header_exits_3(city, trained, tmp_path, capsys):
    damaged_copy(trained, tmp_path, "features.csv", replace_line(1, lambda line: "a,b,c\r\n"))
    err = error_of(capsys, cli_args(city, tmp_path, command_argv("train", tmp_path)))
    assert (err["exit_code"], err["type"]) == (3, "SchemaError")


def test_cli_process_failure_prints_only_the_error_json(tmp_path):
    """As a user runs it: exit 1, nothing on stderr, the error JSON last on stdout."""
    config = config_with(tmp_path, models={"boost": {"n_rounds": 2.5}})
    proc = subprocess.run([sys.executable, "-m", "velotrace.cli", "train", "--config", config,
                           "--out", str(tmp_path / "out")], capture_output=True, text=True, env=child_env(),
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (1, "")
    err = json.loads(proc.stdout.strip().splitlines()[-1])["error"]
    assert (err["exit_code"], err["type"], err["message"]) == (
        1, "ParameterError", "models.boost.n_rounds must be an integer, got 2.5")


def in_child(code: str, *argv: str):
    """The JSON that `code`, run in a fresh interpreter with `argv`, prints last."""
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=child_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# The velotrace layers each command loads besides cli, errors and util: a
# command imports only what it runs, so `ingest` loads no model and `train`
# and `predict` load none of synth, spatial, descriptive, covariates or ingest.
COMMAND_LAYERS = {
    "synth": {"synth", "ingest", "spatial"},
    "ingest": {"ingest"},
    "describe": {"descriptive", "ingest"},
    "spatial": {"spatial", "ingest"},
    "covariates": {"covariates", "ingest"},
    "features": {"features", "covariates", "ingest"},
    "train": {"features", "models"},
    "predict": {"features", "models"},
}
LOADED_LAYERS = """\
import json, sys
from velotrace import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted({m.split(".")[1] for m in sys.modules if m.startswith("velotrace.")}),
                  "numpy.ma" in sys.modules]))
"""


def command_of(name: str, outdir) -> list[str]:
    return {"features": ["features", "--width", "60"], "train": ["train", "--model", "linear"],
            "predict": ["predict", "--artifact", str(outdir / "model_linear.json")]}.get(name, [name])


@pytest.mark.parametrize("command", COMMAND_LAYERS)
def test_a_command_loads_only_its_layers(city, trained, tmp_path, command):
    shutil.copytree(trained, tmp_path, dirs_exist_ok=True)
    code, layers, masked = in_child(LOADED_LAYERS, *cli_args(city, tmp_path, command_of(command, tmp_path)))
    assert code == 0
    assert set(layers) == {"cli", "errors", "util"} | COMMAND_LAYERS[command]
    assert not masked, "numpy.ma was imported"


def test_a_cli_helper_works_in_a_fresh_interpreter(trained):
    """A helper looks its layer names up on the cli module, so it needs no command to have run first."""
    code = """\
import json, sys
from velotrace import cli
from velotrace.features import read_features_csv
from velotrace.models.serialize import load_artifact
tm = load_artifact(json.load(open(sys.argv[1])))
print(json.dumps(cli._next_slot_prediction(tm, read_features_csv(sys.argv[2]))))
"""
    artifact, features = trained / "model_linear.json", trained / "features.csv"
    expected = cli._next_slot_prediction(load_artifact(json.loads(artifact.read_text())), read_features_csv(features))
    assert in_child(code, str(artifact), str(features)) == expected


TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "trace_stage.py"
CLI_PATCHES = [attr for module, _, attr, _ in runpy.run_path(str(TRACER))["PATCHES"] if module == "velotrace.cli"]
# a command that calls each name the tracer wraps on the cli module
CALLER = {
    "generate": "synth", "parse_points": "ingest", "assemble_trips": "ingest", "write_trips_csv": "ingest",
    "histogram": "describe", "temporal_profile": "describe", "build_density_grid": "spatial",
    "hub_spread": "spatial", "parse_weather": "covariates", "parse_calendar": "covariates",
    "daily_join": "covariates", "hourly_correlations": "covariates", "holiday_impact": "covariates",
    "aggregate_slots": "features", "build_features": "features", "feature_target_correlation": "features",
    "write_features_csv": "features", "read_features_csv": "train", "evaluate": "train",
    "model_artifact": "train", "load_artifact": "predict", "write_json": "train", "sha256_file": "ingest",
}


@pytest.mark.parametrize("name", CLI_PATCHES)
def test_a_function_replaced_on_the_cli_module_is_the_one_called(city, trained, tmp_path, monkeypatch, name):
    """The tracer wraps these names where the commands look them up: on the cli module."""
    assert set(CALLER) == set(CLI_PATCHES)
    shutil.copytree(trained, tmp_path, dirs_exist_ok=True)
    real, calls = getattr(cli, name), []

    def replaced(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, replaced)
    run(city, tmp_path, command_of(CALLER[name], tmp_path))
    assert calls


# each subcommand's options: (dest, type, choices) by option string
COMMON_OPTIONS = {"--config": ("config", None, None), "--out": ("out", None, None), "--seed": ("seed", int, None),
                  "--utc-offset-min": ("utc_offset_min", int, None),
                  **{f"--{key}": (f"path_{key}", None, None)
                     for key in ("points", "weather", "pollution", "calendar", "hubs", "features")}}
WIDTH_OPTION = ("width", int, (30, 60))
SPLIT_OPTION = ("split", None, ("90/10", "80/20", "70/30", "60/40"))
OWN_OPTIONS = {
    "synth": {}, "ingest": {}, "describe": {}, "spatial": {},
    "covariates": {"--week-a": ("week_a", None, None), "--week-b": ("week_b", None, None)},
    "features": {"--width": WIDTH_OPTION, "--split": SPLIT_OPTION},
    "train": {"--split": SPLIT_OPTION, "--model": ("model", None, ("linear", "forest", "boost", "lstm", "all"))},
    "predict": {"--artifact": ("artifact", None, None)},
}


def test_the_parser_pins_each_subcommand_s_options():
    subcommands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    assert list(subcommands) == list(OWN_OPTIONS)
    for name, own in OWN_OPTIONS.items():
        options = {"/".join(a.option_strings): (a.dest, a.type, a.choices and tuple(a.choices))
                   for a in subcommands[name]._actions if a.dest != "help"}
        assert options == {**COMMON_OPTIONS, **own}, name


BBOX_RANGE = ("[min_lat, min_lon, max_lat, max_lon] with -90 <= min_lat < max_lat <= 90"
              " and -180 <= min_lon < max_lon <= 180")


@pytest.mark.parametrize("config, message", [
    ({"seed": "x"}, "seed must be an integer, got 'x'"),
    ({"synth": {"seed": 3}}, "unknown synth keys ['seed']"),
    ({"synth": {"temp_curve": {"mean": 3}}}, "unknown synth.temp_curve keys ['mean']"),
    ({"synth": {"temp_curve": {"mean_c": "x"}}}, "synth.temp_curve.mean_c must be a number, got 'x'"),
    ({"synth": {"start_date": "2017-13-01"}}, "synth.start_date must be a date YYYY-MM-DD, got '2017-13-01'"),
    ({"synth": {"hourly_shape": [1.0, 2.0, 3.0]}},
     "synth.hourly_shape must be 24 numbers of positive sum, got (1.0, 2.0, 3.0)"),
    ({"synth": {"hubs": [{"name": "piazza", "lat": 44.49, "lon": 11.34}]}}, "synth.hubs[0] lacks the key 'weight'"),
    ({"synth": {"hubs": [{"name": "piazza", "lat": "44.49", "lon": 11.34, "weight": 1.0}]}},
     "synth.hubs[0].lat must be a number, got '44.49'"),
    ({"synth": {"rain_events": [{"day": "2017-05-26", "duration_h": 2, "mm_per_hour": 3.0, "suppression": 0.5}]}},
     "synth.rain_events[0] lacks the key 'start_hour'"),
    ({"synth": {"holiday_suppressions": [["2017-05-25"]]}},
     "synth.holiday_suppressions[0] must be a list of 2 items, got ['2017-05-25']"),
    ({"synth": {"holiday_suppressions": [["2017-05-25", "half"]]}},
     "synth.holiday_suppressions[0][1] must be a number, got 'half'"),
    ({"synth": {"null_events": [["2017-05-17", "strike"]]}},
     "synth.null_events[0] must be a list of 3 items, got ['2017-05-17', 'strike']"),
    ({"synth": {"null_events": [["2017-02-30", "strike", "s"]]}},
     "synth.null_events[0][0] must be a date YYYY-MM-DD, got '2017-02-30'"),
    ({"synth": {"start_date": "2017-05-03", "end_date": "2017-05-02"}},
     "synth.end_date must be after start_date 2017-05-03, got 2017-05-02"),
    ({"synth": {"start_date": "2017-05-03", "end_date": "2017-05-03"}},
     "synth.end_date must be after start_date 2017-05-03, got 2017-05-03"),
    # a value is read as its field's type, never coerced: a quoted number, a fractional hour
    ({"synth": {"holiday_suppressions": [["2017-05-25", "0.6"]]}},
     "synth.holiday_suppressions[0][1] must be a number, got '0.6'"),
    ({"synth": {"rain_events": [{"day": "2017-05-26", "start_hour": 2.7, "duration_h": 2, "mm_per_hour": 3.0,
                                 "suppression": 0.5}]}},
     "synth.rain_events[0].start_hour must be an integer, got 2.7"),
    ({"synth": {"emit_unmasked": "no"}}, "unknown synth keys ['emit_unmasked']"),
    # the city's box is the run's, which is on the globe with each minimum below its maximum
    ({"bbox": [100, 11, 120, 12]}, f"bbox must be {BBOX_RANGE}, got [100, 11, 120, 12]"),
    ({"bbox": [44.54, 11.28, 44.45, 11.40]}, f"bbox must be {BBOX_RANGE}, got [44.54, 11.28, 44.45, 11.4]"),
    # a hub outside the box would draw a city whose points `spatial` leaves out
    ({"bbox": [45.0, 11.0, 45.1, 11.1]}, "synth.hubs['piazza'] at (44.4939, 11.3428) lies outside bbox "
                                         "[45.0, 11.0, 45.1, 11.1]"),
], ids=["seed", "synth-seed", "temp_curve", "temp_curve-value", "start_date", "hourly_shape",
        "hub-weight", "hub-lat", "rain-start_hour", "holiday-short", "holiday-value", "null-short", "null-date",
        "end-before-start", "empty-span", "holiday-quoted-number", "rain-fractional-start_hour",
        "emit_unmasked-text", "bbox-off-the-globe", "bbox-reversed-lat", "hub-outside-bbox"])
def test_malformed_synth_config_exits_1(tmp_path, capsys, config, message):
    sections = {**CONFIG, **config, "synth": {**CONFIG["synth"], **config.get("synth", {})}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(sections), encoding="utf-8")
    err = error_of(capsys, ["synth", "--config", str(path), "--out", str(tmp_path / "out")])
    assert (err["exit_code"], err["type"], err["message"]) == (1, "ParameterError", message)
    assert not (tmp_path / "out" / "points.csv").exists()


WRONG_TYPES = [
    ("spatial", "cell_size_m", "50", "a number"),
    ("spatial", "top_k", 2.5, "an integer"),
    ("spatial", "per_month", 1, "true or false"),
    ("describe", "bin_speed_mps", True, "a number"),
    ("features", "width", "abc", "an integer"),
    ("features", "width", True, "an integer"),
    ("features", "split", 90, "a string"),
    ("train", "models", "linear", "a list of strings"),
    ("train", "models", ["linear", 3], "a list of strings"),
    ("train", "with_cv", "no", "true or false"),
    (None, "utc_offset_min", 1.5, "an integer"),
    # a slot width of the right type is also one of the widths features are built at
    ("features", "width", 0, "one of (30, 60)"),
    ("features", "width", 45, "one of (30, 60)"),
    # every top-level value is checked, whether or not the command reads it
    (None, "out", 5, "a string"),
    (None, "paths", "x", "an object"),
    ("paths", "points", 5, "a string"),
    (None, "bbox", [1, 2], "a list of four numbers"),
    (None, "bbox", [44.45, 11.28, 44.54, True], "a list of four numbers"),
    # JSON's Infinity, NaN and 1e999 are read as floats, but every number of the config is finite
    (None, "bbox", [44.45, 11.28, float("inf"), 11.40], "a list of four numbers"),
    (None, "bbox", [44.45, float("nan"), 44.54, 11.40], "a list of four numbers"),
    # the box is [min_lat, min_lon, max_lat, max_lon] on the globe, each minimum below its maximum
    (None, "bbox", [44.54, 11.28, 44.45, 11.40], BBOX_RANGE),
    (None, "bbox", [44.45, 11.40, 44.54, 11.28], BBOX_RANGE),
    (None, "bbox", [44.45, 11.28, 44.45, 11.40], BBOX_RANGE),
    (None, "bbox", [44.45, 11.28, 90.5, 11.40], BBOX_RANGE),
    (None, "bbox", [-91, 11.28, 44.54, 11.40], BBOX_RANGE),
    (None, "bbox", [44.45, -180.5, 44.54, 11.40], BBOX_RANGE),
    (None, "bbox", [44.45, 11.28, 44.54, 181], BBOX_RANGE),
    ("describe", "bin_distance_m", float("inf"), "a number"),
    ("spatial", "dest_cell_size_m", float("-inf"), "a number"),
    ("describe", "bin_speed_mps", float("nan"), "a number"),
    (None, "synth", 5, "an object"),
    # a value of the right type is also in range, whether or not the command reads it
    (None, "utc_offset_min", 100000, "between -720 and 840"),
    (None, "utc_offset_min", -721, "between -720 and 840"),
    ("describe", "bin_distance_m", 0, "positive"),
    ("describe", "bin_duration_s", -60.0, "positive"),
    ("spatial", "cell_size_m", 0.0, "positive"),
    ("spatial", "dest_cell_size_m", -1, "positive"),
    ("spatial", "top_k", 0, "at least 1"),
    ("spatial", "top_k", -1, "at least 1"),
    ("features", "split", "50/50", "one of ('90/10', '80/20', '70/30', '60/40')"),
    ("train", "split", "90-10", "one of ('90/10', '80/20', '70/30', '60/40')"),
]


@pytest.mark.parametrize("section, key, value, want", WRONG_TYPES,
                         ids=[f"{s or 'top'}.{k}={v!r}" for s, k, v, _ in WRONG_TYPES])
def test_config_value_of_the_wrong_type_exits_1(city, tmp_path, capsys, section, key, value, want):
    override = {section: {**CONFIG.get(section, {}), key: value}} if section else {key: value}
    config = config_with(tmp_path, **override)
    err = error_of(capsys, cli_args(city, tmp_path, ["features", "--width", "60"], config=config))
    name = f"{section}.{key}" if section else key
    assert (err["exit_code"], err["type"], err["message"]) == (1, "ParameterError", f"{name} must be {want}, got {value!r}")
    assert not (tmp_path / "features.csv").exists()


@pytest.mark.parametrize("with_config", [True, False], ids=["config", "no-config"])
@pytest.mark.parametrize("offset", ["841", "-100000"])
def test_utc_offset_flag_out_of_range_exits_1(city, tmp_path, capsys, with_config, offset):
    """The flag is checked like a config value, with or without a config file."""
    argv = cli_args(city, tmp_path, ["describe", "--utc-offset-min", offset])
    if not with_config:
        at = argv.index("--config")
        del argv[at:at + 2]
    err = error_of(capsys, argv)
    assert (err["exit_code"], err["type"], err["message"]) == (
        1, "ParameterError", f"utc_offset_min must be between -720 and 840, got {int(offset)}")
    assert not (tmp_path / "profile.json").exists()


def test_int_config_value_where_the_default_is_a_float_is_accepted(city, tmp_path):
    for name, width in (("int", 200), ("float", 200.0)):
        config = config_with(tmp_path, describe={"bin_distance_m": width})
        assert cli.main(cli_args(city, tmp_path / name, ["describe"], config=config)) == 0
    assert (tmp_path / "int" / "histogram_distance.csv").read_bytes() == (
        tmp_path / "float" / "histogram_distance.csv").read_bytes()


@pytest.mark.parametrize("weeks, flag", [
    (["--week-a", "2017-13-01", "--week-b", "2017-05-29"], "--week-a"),
    (["--week-a", "2017-05-29", "--week-b", "May 29"], "--week-b"),
    (["--week-a", "2017-05-29"], "--week-a and --week-b"),
    (["--week-b", "2017-05-29"], "--week-a and --week-b"),
], ids=["bad-a", "bad-b", "a-alone", "b-alone"])
def test_bad_contrast_week_flags_exit_1(city, tmp_path, capsys, weeks, flag):
    err = error_of(capsys, cli_args(city, tmp_path, ["covariates", *weeks]))
    assert (err["exit_code"], err["type"]) == (1, "ParameterError")
    assert err["message"].startswith(flag)
    assert not (tmp_path / "correlations.json").exists()


# A city of two full Monday-anchored weeks; the demo rain events fall on
# 9 and 12 May, so week A (8 May) is the rainy one.
TWO_WEEKS = {"synth": {"start_date": "2017-05-01", "end_date": "2017-05-15", "base_trips_per_day": 30}}
POLLUTANTS = ("pm", "o3", "no2", "so2")


def pollution_rows(stamps) -> list[str]:
    """One row per hour, each pollutant blank on its own cycle of hours."""
    rows = []
    for k, ts in enumerate(stamps):
        values = (20 + (7 * k) % 13, 40 + (5 * k) % 11, 30 + (3 * k) % 17, 2 + k % 5)
        blank = (k % 6 == 0, k % 4 == 1, k % 9 == 2, k % 3 == 0)
        rows.append(",".join([ts] + ["" if b else f"{v}.5" for v, b in zip(values, blank)]))
    return rows


@pytest.fixture(scope="module")
def two_week_city(tmp_path_factory):
    """The city's inputs, with its weather rows in reverse time order and a
    pollution file that leaves some fields blank."""
    root = tmp_path_factory.mktemp("two_weeks")
    config = root / "config.json"
    config.write_text(json.dumps(TWO_WEEKS), encoding="utf-8")
    inputs = root / "inputs"
    assert cli.main(["synth", "--config", str(config), "--out", str(inputs)]) == 0
    header, *rows = (inputs / "weather.csv").read_text(encoding="utf-8").splitlines()
    (inputs / "weather_reversed.csv").write_text("\n".join([header, *rows[::-1]]) + "\n", encoding="utf-8")
    stamps = [row.split(",")[0] for row in rows]
    (inputs / "pollution.csv").write_text(
        "\n".join(["timestamp," + ",".join(POLLUTANTS), *pollution_rows(stamps)]) + "\n", encoding="utf-8")
    return root


# pinned from the per-record implementation of the covariate joins
PINNED_POLLUTION = [
    {"variable": "pm", "granularity": "daily", "r": -0.3914827798145942, "n": 14},
    {"variable": "o3", "granularity": "daily", "r": -0.14621641107963781, "n": 14},
    {"variable": "no2", "granularity": "daily", "r": -0.05668646765019682, "n": 14},
    {"variable": "so2", "granularity": "daily", "r": -0.18771926490351537, "n": 14},
]
PINNED_WEEK_ROWS = [
    {"weekday": "Monday", "count_a": 61, "count_b": 73, "ratio": 0.8356164383561644},
    {"weekday": "Tuesday", "count_a": 50, "count_b": 54, "ratio": 0.9259259259259259},
    {"weekday": "Wednesday", "count_a": 61, "count_b": 55, "ratio": 1.1090909090909091},
    {"weekday": "Thursday", "count_a": 61, "count_b": 78, "ratio": 0.782051282051282},
    {"weekday": "Friday", "count_a": 61, "count_b": 70, "ratio": 0.8714285714285714},
    {"weekday": "Saturday", "count_a": 28, "count_b": 24, "ratio": 1.1666666666666667},
    {"weekday": "Sunday", "count_a": 28, "count_b": 30, "ratio": 0.9333333333333333},
]


def test_covariates_with_pollution_and_contrast_weeks(two_week_city, tmp_path):
    inputs = two_week_city / "inputs"
    argv = ["covariates", "--week-a", "2017-05-08", "--week-b", "2017-05-01",
            "--config", str(two_week_city / "config.json"), "--out", str(tmp_path),
            "--points", str(inputs / "points.csv"), "--weather", str(inputs / "weather_reversed.csv"),
            "--calendar", str(inputs / "calendar.csv"), "--pollution", str(inputs / "pollution.csv")]
    assert cli.main(argv) == 0
    correlations = json.loads((tmp_path / "correlations.json").read_text())
    assert [c for c in correlations if c["variable"] in POLLUTANTS] == PINNED_POLLUTION
    contrast = json.loads((tmp_path / "week_contrast.json").read_text())
    assert (contrast["week_a_start"], contrast["week_b_start"]) == ("2017-05-08", "2017-05-01")
    assert contrast["rows"] == PINNED_WEEK_ROWS

    # the overlay holds every weather hour of week A's local dates, in time order
    local = timezone(timedelta(minutes=cli.DEFAULTS["utc_offset_min"]))
    with open(inputs / "weather.csv", newline="") as f:
        weather = [(row["timestamp"], float(row["precip_mm"])) for row in csv.DictReader(f)]
    week_a = {(datetime(2017, 5, 8) + timedelta(days=i)).date() for i in range(7)}
    expected = [[ts, mm] for ts, mm in weather
                if datetime.strptime(ts, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc).astimezone(local).date()
                in week_a]
    assert len(expected) == 7 * 24 and sum(mm > 0 for _, mm in expected) == 8
    assert contrast["precip_overlay_a"] == expected


def test_non_finite_weather_value_exits_3_with_its_line(city, tmp_path, capsys):
    weather = tmp_path / "weather.csv"
    lines = (city / "inputs" / "weather.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    stamp, _, precip, wind = lines[4].split(",")
    lines[4] = ",".join([stamp, "nan", precip, wind])
    weather.write_text("".join(lines), encoding="utf-8")
    err = error_of(capsys, cli_args(city, tmp_path, ["covariates"], weather=weather))
    assert (err["exit_code"], err["type"]) == (3, "RangeError")
    assert err["message"].startswith("line 5: non-finite")
    assert not (tmp_path / "correlations.json").exists()


def test_duplicate_pollution_hour_exits_3_with_its_line(city, tmp_path, capsys):
    pollution = tmp_path / "pollution.csv"
    pollution.write_text("timestamp,pm,o3,no2,so2\n2017-05-01T00:00:00Z,10,,,\n2017-05-01T00:30:00Z,90,,,\n",
                         encoding="utf-8")
    err = error_of(capsys, cli_args(city, tmp_path, ["covariates", "--pollution", str(pollution)]))
    assert (err["exit_code"], err["type"]) == (3, "SchemaError")
    assert err["message"].startswith("line 3: duplicate pollution hour")
    assert not (tmp_path / "correlations.json").exists()


def test_malformed_hub_file_row_exits_3_with_its_line(city, tmp_path, capsys):
    hubs = tmp_path / "hubs.csv"
    lines = (city / "inputs" / "hubs.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    hubs.write_text("".join(lines[:2] + ["h,abc,11.3,300\n"] + lines[2:]), encoding="utf-8")
    argv = cli_args(city, tmp_path, ["spatial"])
    argv[argv.index("--hubs") + 1] = str(hubs)
    err = error_of(capsys, argv)
    assert (err["exit_code"], err["type"]) == (3, "ParseError")
    assert err["message"].startswith("line 3:")


# sha256 of each analysis output of `city`, by --utc-offset-min, as the
# per-trip implementation of trip assembly wrote them; `points.npz` without
# the accuracy and speed columns that the parse checks but does not keep,
# `splitplan.json` without CV folds, and `histogram_speed.csv` with each edge
# the float nearest to its decimal (4.6, not 4.6000000000000005)
PINNED_OUTPUTS = {
    120: {
        "trips.csv": "fc2da3077a0d4bf46db8a6ee9ed45f36bfc6a078f150590f188a65752652341b",
        "rejections.csv": "f9a6cb3a98a53164d1df431e7d4b3ed9fff170a0c4c074565ebabe53eb10638f",
        "points.npz": "880e1262f25ded64dc45cd81f0c335a679b20b77d787615e1eb58667b976bc58",
        "histogram_distance.csv": "36e59fd6df6e2088416a7fbb70f62387e5679585507f94ad238ba5c77f546ca6",
        "histogram_duration.csv": "2005c587bab78d92cb7d3a2ccefb64858b5cc21ea9c36fa7ccc18354681d1e6f",
        "histogram_speed.csv": "a54bb34d01afc34feeb216f59bae8f4b1863ac2e34736bd8f95e3ef8760fa402",
        "profile.json": "392bd2827fcc3e0d49992b03bc1d6bbe3eac649849a334ca5d0360933f65ae59",
        "monthly.csv": "e2adaa8d547097878d5e2ab9cbd6707a70b763504098cd87b4210d48b19a8d9d",
        "density.csv": "d8e4255161c080fe49c19080c6b9609f32bad294f59831a56414b775ddcebee2",
        "density_2017-05.csv": "b947420fbf603cdf9fa8ab4ac703df6ed9944a8f40310bd08ed45821a97568ad",
        "density_2017-06.csv": "52da34aeeb86813c0e038a648cc81d7ae254b90f4cc3975c6c26b3537f8af1d6",
        "hubs.json": "186a8193d08330829ff2dd7318d0022394019fd75f8efd68b1b00fe237e3a8a4",
        "correlations.json": "54ab81f880f47b1ca33c8a2fcb12be11030814af8ef53d270ee805d0dd987c84",
        "holidays.json": "f967523d1ed3decd33ad426bceab7b4a74a295efce1b35814a2935ee56e8758a",
        "events.json": "5ca14fbbe6e4cefeddd734be5fe6560364e27b9ce0bad5a8a6224a182274bd26",
        "features.csv": "0b8eb3e70c8bb7a9dd8c40755635f0ceecb71fb661063b64ac1996406e2c1708",
        "features.json": "33d44a0a0bcd7ff4ff3a23dc4ad383d11be351aa11c04907af8ccfee0cc4dfcf",
        "splitplan.json": "c80ca5cdd455d95f054556333a4a47c25fe8681bd449b7cdc6553942ccb6d8a3",
        "feature_correlations.json": "c23b9680b5575f9d762a2f4b6511d1f2b9bc7d26d148f0d5341724915e1df424",
    },
    -330: {
        "trips.csv": "fc2da3077a0d4bf46db8a6ee9ed45f36bfc6a078f150590f188a65752652341b",
        "rejections.csv": "f9a6cb3a98a53164d1df431e7d4b3ed9fff170a0c4c074565ebabe53eb10638f",
        "points.npz": "880e1262f25ded64dc45cd81f0c335a679b20b77d787615e1eb58667b976bc58",
        "histogram_distance.csv": "36e59fd6df6e2088416a7fbb70f62387e5679585507f94ad238ba5c77f546ca6",
        "histogram_duration.csv": "2005c587bab78d92cb7d3a2ccefb64858b5cc21ea9c36fa7ccc18354681d1e6f",
        "histogram_speed.csv": "a54bb34d01afc34feeb216f59bae8f4b1863ac2e34736bd8f95e3ef8760fa402",
        "profile.json": "97eb814b369d40163f44463ad3d877ca9acbd9f1d7df8aea8b0386178dd21c04",
        "monthly.csv": "5a0a5bc1cbf8c758c8f40290b8d6e56493bec9d39db7c2811f3a2aeb6db6622a",
        "density.csv": "d8e4255161c080fe49c19080c6b9609f32bad294f59831a56414b775ddcebee2",
        "density_2017-05.csv": "45ace5539914311a17ae0ac0f97f68eaecd045f42a15999cc9b63699f9d7354b",
        "density_2017-06.csv": "cb9acf38ec6d90009e19bc4241f13d88945926f43e9a0df98c68fa68aed2340e",
        "hubs.json": "f4b88ee574e3db93eee1973f1494fd40f7099a827d3753ecab8e3a424663181a",
        "correlations.json": "a67d87c4dade4d503bb2309b6c0279e844ea42eea45a328443f8b9def2126df8",
        "holidays.json": "f967523d1ed3decd33ad426bceab7b4a74a295efce1b35814a2935ee56e8758a",
        "events.json": "5ca14fbbe6e4cefeddd734be5fe6560364e27b9ce0bad5a8a6224a182274bd26",
        "features.csv": "ab5e6998cd9eb848faa4d6c5d5ab8abc921c283a7685e1577af4ed5803cd6c70",
        "features.json": "d4d09d19b3964d694c575d2d1f3435a7128304cf21647777bc95279ba46a8d08",
        "splitplan.json": "c80ca5cdd455d95f054556333a4a47c25fe8681bd449b7cdc6553942ccb6d8a3",
        "feature_correlations.json": "d93be204a46fb26c251ec807dd8b43404e9ab396dd02bc05f44d372b8a3ed426",
    },
}


@pytest.mark.parametrize("offset", [120, -330])
def test_analysis_outputs_are_pinned(city, tmp_path, offset):
    for argv in (["ingest"], *ANALYSES):
        run(city, tmp_path, argv + ["--utc-offset-min", str(offset)])
    names = ["trips.csv", "rejections.csv", "points.npz", "histogram_distance.csv", "histogram_duration.csv",
             "histogram_speed.csv", "profile.json", "monthly.csv", "density.csv", "density_2017-05.csv",
             "density_2017-06.csv", "hubs.json", "correlations.json", "holidays.json", "events.json",
             "features.csv", "features.json", "splitplan.json", "feature_correlations.json"]
    assert sorted(p.name for p in tmp_path.glob("density*.csv")) == sorted(n for n in names if n.startswith("density"))
    assert {name: sha256_file(tmp_path / name) for name in names} == PINNED_OUTPUTS[offset]


# sha256 of `eval_report.json` from `train --model boost` on `city` with CV on:
# the two rolling origins and the test scores (trees use no BLAS, so the bytes are stable)
PINNED_EVAL_REPORT = "d5d2128ce79193521c8d949bda8f7fbedc4f2e6736cea4aa8729d7412f272088"


def test_eval_report_with_cv_folds_is_pinned(city, tmp_path):
    run(city, tmp_path, ["features", "--width", "60"])
    config = config_with(tmp_path, train={**CONFIG["train"], "with_cv": True})
    assert cli.main(cli_args(city, tmp_path, ["train", "--model", "boost"], config=config)) == 0
    report = json.loads((tmp_path / "eval_report.json").read_text())
    assert len(report["models"]["boost"]["cv"]) == 2
    assert sha256_file(tmp_path / "eval_report.json") == PINNED_EVAL_REPORT


def test_training_one_kind_at_a_time_keeps_every_kind_in_the_report(city, tmp_path):
    run(city, tmp_path, ["features", "--width", "60"])
    run(city, tmp_path, ["train", "--model", "linear"])
    linear = json.loads((tmp_path / "eval_report.json").read_text())["models"]["linear"]
    run(city, tmp_path, ["train", "--model", "boost"])
    report = json.loads((tmp_path / "eval_report.json").read_text())
    assert sorted(report["models"]) == ["boost", "linear"]
    assert report["models"]["linear"] == linear
    assert report["features_sha256"] == sha256_file(tmp_path / "features.csv")
    # another split scores other test rows, so the report starts afresh
    run(city, tmp_path, ["train", "--model", "boost", "--split", "60/40"])
    assert sorted(json.loads((tmp_path / "eval_report.json").read_text())["models"]) == ["boost"]


def test_hub_names_that_need_quoting_reach_hubs_json(tmp_path):
    names = ["Piazza, Maggiore", 'Porta "San" Felice']
    hubs = [{"name": name, "lat": lat, "lon": 11.34, "weight": 1.0} for name, lat in zip(names, (44.49, 44.50))]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synth": {"start_date": "2017-05-24", "end_date": "2017-05-27",
                                            "base_trips_per_day": 20, "hubs": hubs}}), encoding="utf-8")
    common = ["--config", str(config), "--out", str(tmp_path)]
    assert cli.main(["synth", *common]) == 0
    assert cli.main(["spatial", *common, "--points", str(tmp_path / "points.csv"),
                     "--hubs", str(tmp_path / "hubs.csv")]) == 0
    assert sorted(r["hub_name"] for r in json.loads((tmp_path / "hubs.json").read_text())) == names


# every CSV that `chain` writes
CHAIN_CSVS = ["points.csv", "weather.csv", "calendar.csv", "hubs.csv", "trips.csv", "rejections.csv",
              "histogram_distance.csv", "histogram_duration.csv", "histogram_speed.csv", "monthly.csv",
              "density.csv", "density_2017-05.csv", "density_2017-06.csv", "features.csv",
              "predictions_linear.csv", "predictions_boost.csv"]


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """A directory holding the outputs of the whole chain, synth to predict,
    on the city's config, each command reading the files written before it."""
    out = tmp_path_factory.mktemp("chain")
    config = out / "config.json"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    common = ["--config", str(config), "--out", str(out)]
    common += [arg for key in ("points", "weather", "calendar", "hubs") for arg in (f"--{key}", str(out / f"{key}.csv"))]
    for argv in (["synth"], ["ingest"], *ANALYSES, ["train"], ["predict", "--artifact", str(out / "model_boost.json")]):
        assert cli.main(argv + common) == 0, argv
    return out


def test_the_chain_writes_the_listed_csvs(chain):
    assert sorted(p.name for p in chain.glob("*.csv")) == sorted(CHAIN_CSVS)


@pytest.mark.parametrize("name", CHAIN_CSVS)
def test_each_csv_row_ends_in_crlf_and_has_its_header_s_field_count(chain, name):
    data = (chain / name).read_bytes()
    assert data.endswith(b"\r\n") and data.count(b"\n") == data.count(b"\r\n")
    with open(chain / name, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    assert len(rows) == data.count(b"\r\n")  # no field spans lines
    assert [len(row) for row in rows] == [len(rows[0])] * len(rows)
