"""End-to-end tests of the CLI on a small synthetic city with hubs that
spans a month boundary (so `spatial.per_month` writes two monthly grids).
Three hand-written activities are appended to its points so that ingest
repairs and rejects points for every reason."""

import csv
import json
import math
import os
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
from velotrace.ingest import POINT_HEADER, assemble_trips, load_points_npz, parse_points
from velotrace.models import LinearModel, ModelSpec, load_artifact, train_model
from velotrace.spatial import build_density_grid, write_density_csv
from velotrace.util import sha256_file

from conftest import from_us, utc_text

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
    assert [p.name for p in files] == ["predictions.csv", "predictions_boost.csv", "predictions_linear.csv"]
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
    table, trips = load_points_npz(tmp_path / "out" / "points.npz", sha256_file(points))
    assert len(table) == 0 and len(trips) == 0
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


def test_train_width_other_than_the_features_exits_1(city, tmp_path, capsys):
    run(city, tmp_path, ["features", "--width", "60"])
    err = error_of(capsys, cli_args(city, tmp_path, ["train", "--width", "30"]))
    assert (err["exit_code"], err["type"]) == (1, "ParameterError")
    assert "features --width 30" in err["message"]


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
    assert {k: meta[k] for k in ("width_minutes", "utc_offset_min", "hour_as_numeric", "hour_history_sum")} == {
        "width_minutes": 60, "utc_offset_min": 120, "hour_as_numeric": False, "hour_history_sum": False}


def config_with(tmp_path, **sections) -> str:
    """A config file: the city's, with the given sections replaced."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**CONFIG, **sections}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("kind, hyperparams", [
    ("forest", {"n_tree": 5}),
    ("forest", {"max_depth": "deep"}),
    ("boost", {"n_rounds": 2.5}),
    ("lstm", {"lookback": "x"}),
], ids=lambda v: v if isinstance(v, str) else next(iter(v)))
def test_bad_hyperparameter_exits_1_before_fitting(city, tmp_path, capsys, monkeypatch, kind, hyperparams):
    run(city, tmp_path, ["features", "--width", "60"])
    monkeypatch.setattr(cli, "evaluate", lambda *a, **k: pytest.fail("a model was fitted"))
    config = config_with(tmp_path, models={kind: hyperparams})
    err = error_of(capsys, cli_args(city, tmp_path, ["train", "--model", kind], config=config))
    assert (err["exit_code"], err["type"]) == (1, "ParameterError")
    assert err["message"].startswith(f"{kind}: ") and repr(next(iter(hyperparams))) in err["message"]


def test_unknown_synth_key_exits_1(tmp_path, capsys):
    config = config_with(tmp_path, synth={"base_trips_per_dya": 5})
    err = error_of(capsys, ["synth", "--config", config, "--out", str(tmp_path / "out")])
    assert (err["exit_code"], err["type"]) == (1, "ParameterError")
    assert "base_trips_per_dya" in err["message"]
    assert not (tmp_path / "out" / "points.csv").exists()


@pytest.mark.parametrize("key, value", [
    ("point_interval_s", 0), ("point_interval_s", -5), ("point_interval_s", "10"), ("point_interval_s", 2.5),
    ("missing_fraction", "0.02"), ("missing_fraction", 1.5), ("missing_fraction", -0.1),
    ("base_trips_per_day", -5), ("weekday_multiplier", -1.0), ("hub_jitter_m", "60"), ("day_noise_sigma", -0.1),
])
def test_synth_value_no_draw_can_use_exits_1(tmp_path, capsys, key, value):
    config = config_with(tmp_path, synth={**CONFIG["synth"], key: value})
    err = error_of(capsys, ["synth", "--config", config, "--out", str(tmp_path / "out")])
    assert (err["exit_code"], err["type"]) == (1, "ParameterError")
    assert err["message"].startswith(f"synth.{key} must be") and err["message"].endswith(repr(value))
    assert not (tmp_path / "out" / "points.csv").exists()


@pytest.mark.parametrize("seed", ["x", True, 1.5])
def test_non_integer_model_seed_exits_1(city, tmp_path, capsys, seed):
    config = config_with(tmp_path, models={"seed": seed})
    err = error_of(capsys, cli_args(city, tmp_path, ["train", "--model", "linear"], config=config))
    assert (err["exit_code"], err["type"]) == (1, "ParameterError")
    assert err["message"] == f"models.seed must be an integer, got {seed!r}"


@pytest.mark.parametrize("section, keys", [
    ("describe", {"bin_distance": 100}),
    ("spatial", {"cell_size": 25.0, "topk": 3}),
    ("features", {"widht": 30}),
    ("train", {"with_vc": False}),
    ("models", {"forst": {"n_trees": 5}}),
])
def test_unknown_config_key_exits_1(city, tmp_path, capsys, section, keys):
    config = config_with(tmp_path, **{section: {**CONFIG.get(section, {}), **keys}})
    err = error_of(capsys, cli_args(city, tmp_path, ["features", "--width", "60"], config=config))
    assert (err["exit_code"], err["type"]) == (1, "ParameterError")
    assert err["message"] == f"unknown {section} keys {sorted(keys)}"
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


@pytest.mark.parametrize("change", [
    lambda line: "abc" + line[line.index(","):],
    lambda line: line[:line.rindex(",") + 1] + "2017-13-01T00:00:00Z\r\n",
    lambda line: line[:line.index(",") + 1] + line,
], ids=["non-numeric-cell", "bad-slot-start", "extra-field"])
def test_malformed_features_row_exits_3_with_its_line(city, trained, tmp_path, capsys, change):
    damaged_copy(trained, tmp_path, "features.csv", replace_line(5, change))
    err = error_of(capsys, cli_args(city, tmp_path, command_argv("train", tmp_path)))
    assert (err["exit_code"], err["type"]) == (3, "ParseError")
    assert err["message"].startswith("line 5:")


def test_features_file_without_its_header_exits_3(city, trained, tmp_path, capsys):
    damaged_copy(trained, tmp_path, "features.csv", replace_line(1, lambda line: "a,b,c\r\n"))
    err = error_of(capsys, cli_args(city, tmp_path, command_argv("train", tmp_path)))
    assert (err["exit_code"], err["type"]) == (3, "SchemaError")


def test_cli_process_failure_prints_only_the_error_json(tmp_path):
    """As a user runs it: exit 1, nothing on stderr, the error JSON last on stdout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    config = config_with(tmp_path, models={"boost": {"n_rounds": 2.5}})
    proc = subprocess.run([sys.executable, "-m", "velotrace.cli", "train", "--config", config,
                           "--out", str(tmp_path / "out")], capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (1, "")
    err = json.loads(proc.stdout.strip().splitlines()[-1])["error"]
    assert (err["exit_code"], err["type"]) == (1, "ParameterError") and "'n_rounds'" in err["message"]


@pytest.mark.parametrize("config, key", [
    ({"seed": "x"}, "seed"),
    ({"synth": {"seed": "x"}}, "synth.seed"),
    ({"synth": {"temp_curve": {"mean": 3}}}, "synth.temp_curve"),
    ({"synth": {"temp_curve": {"mean_c": "x"}}}, "synth.temp_curve"),
    ({"synth": {"start_date": "2017-13-01"}}, "synth.start_date"),
    ({"synth": {"bbox": ["44.45", "11.28", "44.54", "11.40"]}}, "synth.bbox"),
    ({"synth": {"hourly_shape": [1.0, 2.0, 3.0]}}, "synth.hourly_shape"),
    ({"synth": {"hubs": [{"name": "piazza", "lat": 44.49, "lon": 11.34}]}}, "synth.hubs"),
    ({"synth": {"hubs": [{"name": "piazza", "lat": "44.49", "lon": 11.34, "weight": 1.0}]}}, "synth.hubs"),
    ({"synth": {"rain_events": [{"day": "2017-05-26", "duration_h": 2, "mm_per_hour": 3.0, "suppression": 0.5}]}},
     "synth.rain_events"),
    ({"synth": {"holiday_suppressions": [["2017-05-25"]]}}, "synth.holiday_suppressions"),
    ({"synth": {"holiday_suppressions": [["2017-05-25", "half"]]}}, "synth.holiday_suppressions"),
    ({"synth": {"null_events": [["2017-05-17", "strike"]]}}, "synth.null_events"),
    ({"synth": {"null_events": [["2017-02-30", "strike", "s"]]}}, "synth.null_events"),
    ({"synth": {"start_date": "2017-05-03", "end_date": "2017-05-02"}}, "synth.end_date"),
    ({"synth": {"start_date": "2017-05-03", "end_date": "2017-05-03"}}, "synth.end_date"),
], ids=["seed", "synth-seed", "temp_curve", "temp_curve-value", "start_date", "bbox", "hourly_shape",
        "hub-weight", "hub-lat", "rain-start_hour", "holiday-short", "holiday-value", "null-short", "null-date",
        "end-before-start", "empty-span"])
def test_malformed_synth_config_exits_1(tmp_path, capsys, config, key):
    sections = {**CONFIG, **config, "synth": {**CONFIG["synth"], **config.get("synth", {})}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(sections), encoding="utf-8")
    err = error_of(capsys, ["synth", "--config", str(path), "--out", str(tmp_path / "out")])
    assert (err["exit_code"], err["type"]) == (1, "ParameterError")
    assert err["message"].startswith(f"{key} ")
    assert not (tmp_path / "out" / "points.csv").exists()


WRONG_TYPES = [
    ("spatial", "cell_size_m", "50", "a number"),
    ("spatial", "top_k", 2.5, "an integer"),
    ("spatial", "per_month", 1, "true or false"),
    ("describe", "bin_speed_mps", True, "a number"),
    ("features", "width", "abc", "an integer"),
    ("features", "width", True, "an integer"),
    ("features", "split", 90, "a string"),
    ("train", "width", "60", "an integer or null"),
    ("train", "models", "linear", "a list of strings"),
    ("train", "models", ["linear", 3], "a list of strings"),
    ("train", "with_cv", "no", "true or false"),
    (None, "utc_offset_min", 1.5, "an integer"),
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
# per-trip implementation of trip assembly wrote them
PINNED_OUTPUTS = {
    120: {
        "trips.csv": "fc2da3077a0d4bf46db8a6ee9ed45f36bfc6a078f150590f188a65752652341b",
        "rejections.csv": "f9a6cb3a98a53164d1df431e7d4b3ed9fff170a0c4c074565ebabe53eb10638f",
        "points.npz": "9860da502772481b07aeaa8e09cff9660a2b655aa5b90450374d9f8b0378b367",
        "histogram_distance.csv": "36e59fd6df6e2088416a7fbb70f62387e5679585507f94ad238ba5c77f546ca6",
        "histogram_duration.csv": "2005c587bab78d92cb7d3a2ccefb64858b5cc21ea9c36fa7ccc18354681d1e6f",
        "histogram_speed.csv": "e3dc2c8f0a148f650442e4d839172d323b7971b81e110a145cd4ee8851a216bf",
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
        "features.json": "dbb5da745081f4559039cb4cf51652148f2f1720174858439ed8dc134a9469c3",
    },
    -330: {
        "trips.csv": "fc2da3077a0d4bf46db8a6ee9ed45f36bfc6a078f150590f188a65752652341b",
        "rejections.csv": "f9a6cb3a98a53164d1df431e7d4b3ed9fff170a0c4c074565ebabe53eb10638f",
        "points.npz": "9860da502772481b07aeaa8e09cff9660a2b655aa5b90450374d9f8b0378b367",
        "histogram_distance.csv": "36e59fd6df6e2088416a7fbb70f62387e5679585507f94ad238ba5c77f546ca6",
        "histogram_duration.csv": "2005c587bab78d92cb7d3a2ccefb64858b5cc21ea9c36fa7ccc18354681d1e6f",
        "histogram_speed.csv": "e3dc2c8f0a148f650442e4d839172d323b7971b81e110a145cd4ee8851a216bf",
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
        "features.json": "ed6e80e772bb1c68abb73f5feadefbe7f41c71572e4ee460b6caea6c9ddbed87",
    },
}


@pytest.mark.parametrize("offset", [120, -330])
def test_analysis_outputs_are_pinned(city, tmp_path, offset):
    for argv in (["ingest"], *ANALYSES):
        run(city, tmp_path, argv + ["--utc-offset-min", str(offset)])
    names = ["trips.csv", "rejections.csv", "points.npz", "histogram_distance.csv", "histogram_duration.csv",
             "histogram_speed.csv", "profile.json", "monthly.csv", "density.csv", "density_2017-05.csv",
             "density_2017-06.csv", "hubs.json", "correlations.json", "holidays.json", "events.json",
             "features.csv", "features.json"]
    assert sorted(p.name for p in tmp_path.glob("density*.csv")) == sorted(n for n in names if n.startswith("density"))
    assert {name: sha256_file(tmp_path / name) for name in names} == PINNED_OUTPUTS[offset]
