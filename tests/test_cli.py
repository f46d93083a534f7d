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
from velotrace.util import format_utc, local_date, month_key, sha256_file

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)

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
            when = EPOCH + timedelta(microseconds=t_us)
            by_month.setdefault(month_key(local_date(when, offset)), []).append((lat, lon))
    assert sorted(by_month) == ["2017-05", "2017-06"]
    for mk, coords in by_month.items():
        grid = build_density_grid(coords, tuple(cli.DEFAULTS["bbox"]), cli.DEFAULTS["spatial"]["cell_size_m"])
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
    target = {format_utc(s): y for s, y in zip(matrix.slot_starts, matrix.y)}
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
    assert len(table) == 0 and trips == []
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
    assert summary["slot_start"] == format_utc(matrix.slot_starts[-1] + timedelta(minutes=60))
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
           if matrix.slot_starts[j] - matrix.slot_starts[j - 1] != timedelta(minutes=60)]
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
