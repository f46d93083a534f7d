"""Command-line entry point wiring the pipeline end to end.

Subcommands: synth, ingest, describe, spatial, covariates, features, train,
predict. Flag values override config-file values, which override built-in
defaults. Every command is idempotent for fixed inputs and seed; outputs are
declared in `manifest.json` with content hashes. `ingest` also saves the
repaired points and the trips to `points.npz`; describe, spatial, covariates
and features reuse it when it was built from the same `points.csv` (by
sha256), and otherwise parse and assemble the points as ingest does.
`features` writes `features.csv` and its sidecar `features.json`: the slot
width, the build options and the feature row of the slot after the last
row. `train` and `predict` read both. `predict` scores that next slot with
`predict_rows`, the function that scores the test rows: a tabular model reads
the sidecar's row, the recurrent model the trailing window of rows, which
must be consecutive time slots. So training and serving build their rows,
and choose usable windows, in one place. Every instant is int64 microseconds
since the epoch: weather and pollution are read into a `WeatherTable` and a
`PollutionTable`, slot starts travel as `FeatureMatrix.slot_us`, and every
output renders instants with `utc_strings`.
Failures print a machine-readable error JSON and exit 2 (missing input),
3 (schema/data error), 4 (training failure), or 1 (anything else). A config
error (an unknown key in any section, a value of another type than its
default's, a `synth` value of the wrong shape or that no draw can use, a
slot width other than 30 or 60, an empty `train.models`, a seed that is not
an integer, a model hyperparameter of unknown name or wrong type) or a bad
`--week-a`/`--week-b` pair exits 1 before any point is drawn or model fitted; a malformed input file (invalid
JSON, a bad `features.csv` or hubs file row, a model artifact with a missing
or malformed field) exits 3.

A command loads only the layers it runs. This module imports no layer at
start-up: each function or class it takes from one is named in
`_LAYER_NAMES`, and this module's `__getattr__` (PEP 562) imports it on its
first lookup and keeps it in the module's namespace. Commands and helpers
call every such name as `_cli.<name>`, so a helper works when called
directly, and a function replaced on this module (the benchmark tracer's
wrapper, a test's patch) is the one the commands call. So `ingest` loads no
model, and `train` and `predict` load only `features` and `models`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from dataclasses import asdict
from datetime import date
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    DataError,
    MissingInputError,
    ParameterError,
    SchemaError,
    TrainingError,
    VelotraceError,
)
from .util import MINUTE_US, MODEL_KINDS, SLOT_WIDTHS, local_datetimes, read_json, sha256_file, utc_strings, write_json

# the layer names the commands call, by the module that defines them
_LAYER_NAMES = {
    "synth": ("generate", "synth_config_from_dict"),
    "ingest": ("BOUNDARY_MISSING", "TOO_FEW_POINTS", "ZERO_DURATION", "assemble_trips", "load_trips_npz",
               "parse_points", "save_points_npz", "write_rejections_csv", "write_trips_csv"),
    "descriptive": ("histogram", "monthly_change", "profile_as_dict", "temporal_profile", "write_histogram_csv",
                    "write_monthly_csv"),
    "spatial": ("build_density_grid", "hub_report_as_dict", "hub_spread", "parse_hub_file", "write_density_csv"),
    "covariates": ("daily_correlations", "daily_join", "event_impact", "holiday_impact", "hourly_correlations",
                   "parse_calendar", "parse_pollution", "parse_weather", "pollution_daily_correlations",
                   "week_contrast"),
    "features": ("aggregate_slots", "aligned_span", "build_features", "chronological_split",
                 "feature_target_correlation", "read_features_csv", "sidecar_path", "split_plan_as_dict",
                 "write_features_csv"),
    "models.evaluate": ("ModelSpec", "evaluate", "predict_rows"),
    "models.serialize": ("load_artifact", "model_artifact"),
}
_LAYER_OF = {name: layer for layer, names in _LAYER_NAMES.items() for name in names}


def __getattr__(name: str):
    """Import a name of `_LAYER_NAMES` from its layer on the first lookup and
    keep it in this module, where later lookups find it, or what replaced it."""
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__package__}.{layer}"), name)
    return value


_cli = sys.modules[__name__]  # this module, whose attributes the commands call

DEFAULTS = {
    "out": "out",
    "seed": 0,
    "utc_offset_min": 120,
    "bbox": [44.45, 11.28, 44.54, 11.40],
    "paths": {},
    # bin widths that resolve the expected peaks (~1600 m, ~720 s, ~3.9 m/s)
    "describe": {"bin_distance_m": 200.0, "bin_duration_s": 60.0, "bin_speed_mps": 0.2},
    "spatial": {"cell_size_m": 50.0, "dest_cell_size_m": 200.0, "top_k": 10, "per_month": False},
    "features": {"width": 60, "split": "90/10", "hour_as_numeric": False, "hour_history_sum": False},
    "train": {"width": None, "split": "90/10", "models": ["all"], "with_cv": True},
    "models": {},
    "synth": {},
}

DEMO_SYNTH = {
    "start_date": "2017-05-01",
    "end_date": "2017-06-05",
    "base_trips_per_day": 300,
    "missing_fraction": 0.02,
    "holiday_suppressions": [["2017-05-25", 0.6]],
    "rain_events": [
        {"day": "2017-05-09", "start_hour": 2, "duration_h": 7, "mm_per_hour": 6.0, "suppression": 0.8},
        {"day": "2017-05-12", "start_hour": 15, "duration_h": 1, "mm_per_hour": 4.0, "suppression": 0.8},
    ],
    "null_events": [["2017-05-17", "strike", "synthetic-strike"]],
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def load_config(args) -> dict:
    cfg = DEFAULTS
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise MissingInputError(path, f"config file not found: {path}")
        loaded = read_json(path)
        if not isinstance(loaded, dict):
            raise SchemaError(f"config file {path} does not hold a JSON object")
        cfg = _merge(cfg, loaded)
        _check_sections(cfg)
    for key in ("out", "seed", "utc_offset_min"):
        v = getattr(args, key, None)
        if v is not None:
            cfg = _merge(cfg, {key: v})
    return cfg


# the types a config value may take, by the type of its default; a bool is
# never an int, and a None default (train.width) stands for an optional int
_CONFIG_TYPES = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
                 float: ((int, float), "a number"), str: ((str,), "a string"),
                 type(None): ((int, type(None)), "an integer or null"), list: ((list,), "a list of strings")}


def _check_type(name: str, value, default) -> None:
    types, want = _CONFIG_TYPES[type(default)]
    if type(value) not in types or (type(value) is list and not all(type(v) is str for v in value)):
        raise ParameterError(f"{name} must be {want}, got {value!r}")


def _check_sections(cfg: dict) -> None:
    """A config section holds only the keys its commands read, each of the
    type of its default; so do the top-level `seed` and `utc_offset_min`. A
    slot width, `features.width` or a set `train.width`, is one of `SLOT_WIDTHS`."""
    known = {name: set(DEFAULTS[name]) for name in ("describe", "spatial", "features", "train")}
    known["models"] = {*MODEL_KINDS, "seed"}
    for name, keys in known.items():
        section = cfg[name]
        if not isinstance(section, dict):
            raise ParameterError(f"config section {name!r} must be an object, got {section!r}")
        unknown = sorted(set(section) - keys)
        if unknown:
            raise ParameterError(f"unknown {name} keys {unknown}")
        if name != "models":
            for key, value in section.items():
                _check_type(f"{name}.{key}", value, DEFAULTS[name][key])
    for key in ("seed", "utc_offset_min"):
        _check_type(key, cfg[key], DEFAULTS[key])
    for name in ("features", "train"):
        width = cfg[name]["width"]
        if width is not None and width not in SLOT_WIDTHS:
            raise ParameterError(f"{name}.width must be one of {SLOT_WIDTHS}, got {width!r}")


def _require(cfg: dict, path_key: str) -> Path:
    p = cfg.get("paths", {}).get(path_key)
    if not p:
        raise MissingInputError(path_key, f"no {path_key!r} path configured (set paths.{path_key} or the flag)")
    path = Path(p)
    if not path.exists():
        raise MissingInputError(path)
    return path


def _outdir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _update_manifest(outdir: Path, files: list[Path]) -> Path:
    manifest_path = outdir / "manifest.json"
    manifest = read_json(manifest_path) if manifest_path.exists() else {"outputs": {}}
    for p in files:
        manifest["outputs"][str(Path(p).relative_to(outdir))] = sha256_file(Path(p))
    write_json(manifest_path, manifest)
    return manifest_path


def _emit(summary: dict) -> None:
    print(json.dumps(summary, sort_keys=True))


def _parse_and_assemble(points_path: Path):
    table = _cli.parse_points(points_path)
    trips, rejections = _cli.assemble_trips(table)
    return table, trips, rejections


def _load_trips(cfg: dict, *columns: str):
    """The trip table of the configured points file and the named columns of
    its repaired point table, by name: from ingest's `points.npz` when it was
    built from this file, reading no other array, else parsed afresh."""
    points_path = _require(cfg, "points")
    loaded = _cli.load_trips_npz(_outdir(cfg) / "points.npz", sha256_file(points_path), columns)
    if loaded is not None:
        return loaded
    table, trips, _ = _parse_and_assemble(points_path)
    return trips, {name: getattr(table, name) for name in columns}


# ---------------------------------------------------------------- subcommands

def cmd_synth(cfg: dict, args) -> None:
    outdir = _outdir(cfg)
    sc = _cli.synth_config_from_dict(_merge(DEMO_SYNTH, cfg.get("synth", {})), cfg["seed"], cfg["utc_offset_min"])
    result = _cli.generate(sc, outdir)
    hub_path = outdir / "hubs.csv"
    with open(hub_path, "w", encoding="utf-8", newline="") as f:
        f.write("name,lat,lon,radius_m\n")
        for h in sc.hubs:
            f.write(f"{h.name},{h.lat!r},{h.lon!r},300.0\n")
    files = [Path(p) for p in result["files"].values()] + [hub_path]
    _update_manifest(outdir, files)
    _emit({"command": "synth", "files": sorted(str(p) for p in files),
           "expected_trips": result["truth"]["totals"]["expected_trips"],
           "actual_trips": result["truth"]["totals"]["actual_trips"]})


def cmd_ingest(cfg: dict, args) -> None:
    outdir = _outdir(cfg)
    points_path = _require(cfg, "points")
    table, trips, rejections = _parse_and_assemble(points_path)
    trips_path = outdir / "trips.csv"
    rej_path = outdir / "rejections.csv"
    npz_path = outdir / "points.npz"
    _cli.write_trips_csv(trips, trips_path)
    _cli.write_rejections_csv(rejections, rej_path)
    _cli.save_points_npz(npz_path, table, trips, sha256_file(points_path))
    _update_manifest(outdir, [trips_path, rej_path, npz_path])
    by_reason = dict.fromkeys((_cli.BOUNDARY_MISSING, _cli.TOO_FEW_POINTS, _cli.ZERO_DURATION), 0)
    for r in rejections:
        by_reason[r.reason] += 1
    _emit({"command": "ingest", "points": len(table), "trips": len(trips),
           "rejections": len(rejections), "rejections_by_reason": by_reason})


def cmd_describe(cfg: dict, args) -> None:
    outdir = _outdir(cfg)
    trips, _ = _load_trips(cfg)
    d = cfg["describe"]
    offset = cfg["utc_offset_min"]
    hists = {
        "distance": _cli.histogram(trips.distance, d["bin_distance_m"]),
        "duration": _cli.histogram(trips.duration, d["bin_duration_s"]),
        "speed": _cli.histogram(trips.avg_speed, d["bin_speed_mps"]),
    }
    files = []
    for name, h in hists.items():
        p = outdir / f"histogram_{name}.csv"
        _cli.write_histogram_csv(h, p)
        files.append(p)
    profile = _cli.temporal_profile(trips, offset)
    profile_path = outdir / "profile.json"
    write_json(profile_path, _cli.profile_as_dict(profile))
    files.append(profile_path)
    monthly_path = outdir / "monthly.csv"
    _cli.write_monthly_csv(_cli.monthly_change(profile), monthly_path)
    files.append(monthly_path)
    _update_manifest(outdir, files)
    _emit({"command": "describe", "trips": len(trips),
           "workingday_share": profile.workingday_share,
           "mode_distance_bin": hists["distance"].mode_bin(),
           "mode_duration_bin": hists["duration"].mode_bin(),
           "mode_speed_bin": hists["speed"].mode_bin()})


def cmd_spatial(cfg: dict, args) -> None:
    outdir = _outdir(cfg)
    sp = cfg["spatial"]
    trips, points = _load_trips(cfg, "lat", "lon", *(["t"] if sp["per_month"] else []))
    lat, lon = points["lat"], points["lon"]
    offset = cfg["utc_offset_min"]
    bbox = tuple(cfg["bbox"])
    files = []

    grid = _cli.build_density_grid(lat, lon, bbox, sp["cell_size_m"])
    density_path = outdir / "density.csv"
    _cli.write_density_csv(grid, density_path)
    files.append(density_path)

    periods = [("all", trips)]
    if sp["per_month"]:
        # local calendar month of each point and of each trip's start
        months = local_datetimes(points["t"], offset).astype("datetime64[M]")
        for m in np.unique(months[~np.isnan(lat)]):
            month = months == m
            g = _cli.build_density_grid(lat[month], lon[month], bbox, sp["cell_size_m"])
            p = outdir / f"density_{m}.csv"
            _cli.write_density_csv(g, p)
            files.append(p)
        trip_months = local_datetimes(trips.start_us, offset).astype("datetime64[M]")
        periods += [(str(m), trips.take(trip_months == m)) for m in np.unique(trip_months)]

    reports = []
    hubs_cfg_path = cfg.get("paths", {}).get("hubs")
    if hubs_cfg_path:
        if not Path(hubs_cfg_path).exists():
            raise MissingInputError(hubs_cfg_path)
        for hub in _cli.parse_hub_file(hubs_cfg_path):
            for period, selected in periods:
                reports.append(_cli.hub_spread(selected, (hub.lat, hub.lon), hub.radius_m,
                                          sp["dest_cell_size_m"], sp["top_k"],
                                          period=period, hub_name=hub.name))
    hubs_path = outdir / "hubs.json"
    write_json(hubs_path, [_cli.hub_report_as_dict(r) for r in reports])
    files.append(hubs_path)
    _update_manifest(outdir, files)
    _emit({"command": "spatial", "points_binned": int(grid.counts.sum()),
           "ignored": grid.ignored, "hub_reports": len(reports)})


def _week_start(flag: str, text: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise ParameterError(f"{flag} must be a date YYYY-MM-DD, got {text!r}") from None


def _write_impacts(path: Path, impacts, skipped) -> list:
    """Write an impact report, dates as ISO text; returns the impacts."""
    write_json(path, {key: [{**asdict(r), "date": str(r.date)} for r in report]
                      for key, report in (("impacts", impacts), ("skipped", skipped))})
    return impacts


def cmd_covariates(cfg: dict, args) -> None:
    weeks = None
    if args.week_a or args.week_b:
        if not (args.week_a and args.week_b):
            raise ParameterError("--week-a and --week-b must be given together")
        weeks = _week_start("--week-a", args.week_a), _week_start("--week-b", args.week_b)
    outdir = _outdir(cfg)
    trips, _ = _load_trips(cfg)
    offset = cfg["utc_offset_min"]
    weather = _cli.parse_weather(_require(cfg, "weather"))
    calendar = _cli.parse_calendar(_require(cfg, "calendar"))
    rows = _cli.daily_join(trips, weather, offset)

    correlations = [asdict(c) for c in _cli.daily_correlations(rows)]
    correlations += [asdict(c) for c in _cli.hourly_correlations(trips, weather)]
    if cfg.get("paths", {}).get("pollution"):
        pollution = _cli.parse_pollution(_require(cfg, "pollution"))
        correlations += [asdict(c) for c in _cli.pollution_daily_correlations(rows, pollution, offset)]
    corr_path = outdir / "correlations.json"
    write_json(corr_path, correlations)

    holidays_path = outdir / "holidays.json"
    impacts = _write_impacts(holidays_path, *_cli.holiday_impact(rows, calendar))
    events_path = outdir / "events.json"
    impacts_e = _write_impacts(events_path, *_cli.event_impact(rows, calendar))
    files = [corr_path, holidays_path, events_path]

    if weeks:
        wc = _cli.week_contrast(rows, *weeks, weather=weather, utc_offset_min=offset)
        wc_path = outdir / "week_contrast.json"
        write_json(wc_path, {
            "week_a_start": str(wc.week_a_start),
            "week_b_start": str(wc.week_b_start),
            "rows": [asdict(r) for r in wc.rows],
            "precip_overlay_a": wc.precip_overlay_a,
        })
        files.append(wc_path)

    _update_manifest(outdir, files)
    _emit({"command": "covariates", "daily_rows": len(rows),
           "complete_days": sum(r.complete for r in rows),
           "holiday_impacts": len(impacts), "event_impacts": len(impacts_e)})


def cmd_features(cfg: dict, args) -> None:
    outdir = _outdir(cfg)
    trips, _ = _load_trips(cfg)
    fc = cfg["features"]
    width = args.width or fc["width"]
    split = args.split or fc["split"]
    weather = _cli.parse_weather(_require(cfg, "weather"))
    calendar = _cli.parse_calendar(_require(cfg, "calendar"))
    slots, out_of_span = _cli.aggregate_slots(trips, width, _cli.aligned_span(trips, width))
    options = {"utc_offset_min": cfg["utc_offset_min"], "hour_as_numeric": fc["hour_as_numeric"],
               "hour_history_sum": fc["hour_history_sum"]}
    matrix, dropped = _cli.build_features(slots, weather, calendar, **options)
    plan = _cli.chronological_split(matrix, split)
    features_path = outdir / "features.csv"
    _cli.write_features_csv(matrix, features_path, **options)
    plan_path = outdir / "splitplan.json"
    write_json(plan_path, _cli.split_plan_as_dict(plan))
    corr_path = outdir / "feature_correlations.json"
    write_json(corr_path, [{"column": c, "r": r} for c, r in _cli.feature_target_correlation(matrix)])
    _update_manifest(outdir, [features_path, _cli.sidecar_path(features_path), plan_path, corr_path])
    _emit({"command": "features", "rows": matrix.n_rows, "columns": len(matrix.column_names),
           "width": width, "split": split, "dropped_rows": len(dropped),
           "out_of_span_trips": out_of_span})


def _model_specs(cfg: dict, requested: list[str]) -> list[ModelSpec]:
    if not requested:
        raise ParameterError("train.models lists no model kind")
    kinds = list(MODEL_KINDS) if "all" in requested else requested
    mc = cfg.get("models", {})
    key = "models.seed" if "seed" in mc else "seed"
    seed = mc.get("seed", cfg["seed"])
    if type(seed) is not int:  # a bool is not a seed
        raise ParameterError(f"{key} must be an integer, got {seed!r}")
    return [_cli.ModelSpec(k, mc.get(k, {}), seed=seed) for k in kinds]


def cmd_train(cfg: dict, args) -> None:
    outdir = _outdir(cfg)
    tc = cfg["train"]
    requested = [args.model] if args.model else list(tc["models"])
    specs = _model_specs(cfg, requested)
    features_path = Path(cfg.get("paths", {}).get("features") or (outdir / "features.csv"))
    matrix = _cli.read_features_csv(features_path)
    width = args.width or tc["width"] or matrix.width_minutes
    if width != matrix.width_minutes:
        raise ParameterError(
            f"requested width {width} but features.csv was built at {matrix.width_minutes}; rerun `features --width {width}`")
    split = args.split or tc["split"]
    plan = _cli.chronological_split(matrix, split)
    report, fitted = _cli.evaluate(matrix, plan, specs, with_cv=tc["with_cv"])

    files = []
    report_path = outdir / "eval_report.json"
    write_json(report_path, report.as_dict())
    files.append(report_path)
    best_kind, best_mae = None, None
    for kind, score in fitted.items():
        artifact_path = outdir / f"model_{kind}.json"
        write_json(artifact_path, _cli.model_artifact(score.model, matrix.column_names))
        files.append(artifact_path)
        pred_path = outdir / f"predictions_{kind}.csv"
        _write_predictions(pred_path, matrix, score.targets, score.predictions)
        files.append(pred_path)
        mae = report.entries[kind]["test"]["mae"]
        if best_mae is None or mae < best_mae:
            best_kind, best_mae = kind, mae
    _update_manifest(outdir, files)
    _emit({"command": "train", "split": split, "width": matrix.width_minutes,
           "models": sorted(fitted), "best_model": best_kind,
           "test_metrics": {k: report.entries[k]["test"] for k in sorted(fitted)}})


def _write_predictions(path: Path, matrix, rows, predictions) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("slot_start,actual,predicted\n")
        for stamp, j, p in zip(utc_strings(matrix.slot_us[rows]), rows, predictions):
            f.write(f"{stamp},{float(matrix.y[j])!r},{float(p)!r}\n")


def cmd_predict(cfg: dict, args) -> None:
    outdir = _outdir(cfg)
    artifact_path = Path(args.artifact or (outdir / "model_lstm.json"))
    if not artifact_path.exists():
        raise MissingInputError(artifact_path)
    features_path = Path(cfg.get("paths", {}).get("features") or (outdir / "features.csv"))
    tm = _cli.load_artifact(read_json(artifact_path))
    matrix = _cli.read_features_csv(features_path)
    if args.width and int(args.width) != matrix.width_minutes:
        raise ParameterError(
            f"horizon {args.width} does not match the {matrix.width_minutes}-minute features file")
    prediction = _next_slot_prediction(tm, matrix)
    out_path = outdir / "prediction.json"
    write_json(out_path, prediction)
    _update_manifest(outdir, [out_path])
    _emit({"command": "predict", **prediction})


def _next_slot_prediction(tm, matrix) -> dict:
    """Predict the count of the slot after the last row of the features file:
    `predict_rows` on row `n_rows`, scored as the test rows are."""
    width = matrix.width_minutes
    next_start = matrix.slot_us[-1] + width * MINUTE_US
    value = float(_cli.predict_rows(tm, matrix, [matrix.n_rows])[0])
    return {"slot_start": utc_strings([next_start])[0], "width_minutes": width,
            "model": tm.spec.kind, "predicted": value}


COMMANDS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "describe": cmd_describe,
    "spatial": cmd_spatial,
    "covariates": cmd_covariates,
    "features": cmd_features,
    "train": cmd_train,
    "predict": cmd_predict,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out", help="output directory")
    common.add_argument("--seed", type=int, help="random seed")
    common.add_argument("--utc-offset-min", type=int, dest="utc_offset_min",
                        help="local time = UTC + this many minutes")
    for path_key in ("points", "weather", "pollution", "calendar", "hubs", "features"):
        common.add_argument(f"--{path_key}", dest=f"path_{path_key}", help=f"path to {path_key} file")

    parser = argparse.ArgumentParser(prog="velotrace",
                                     description="cycling trip analytics and demand forecasting")
    parser.add_argument("--version", action="version", version=f"velotrace {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("synth", "ingest", "describe", "spatial"):
        sub.add_parser(name, parents=[common])
    p = sub.add_parser("covariates", parents=[common])
    p.add_argument("--week-a", dest="week_a", help="Monday date (YYYY-MM-DD) of the contrast week A")
    p.add_argument("--week-b", dest="week_b", help="Monday date of the contrast week B")
    p = sub.add_parser("features", parents=[common])
    p.add_argument("--width", type=int, choices=SLOT_WIDTHS)
    p.add_argument("--split", choices=("90/10", "80/20", "70/30", "60/40"))
    p = sub.add_parser("train", parents=[common])
    p.add_argument("--width", type=int, choices=SLOT_WIDTHS)
    p.add_argument("--split", choices=("90/10", "80/20", "70/30", "60/40"))
    p.add_argument("--model", choices=MODEL_KINDS + ("all",))
    p = sub.add_parser("predict", parents=[common])
    p.add_argument("--artifact", help="trained model artifact JSON")
    p.add_argument("--width", type=int, choices=SLOT_WIDTHS, help="horizon; must match the features file")
    return parser


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, MissingInputError):
        return 2
    if isinstance(exc, DataError):
        return 3
    if isinstance(exc, TrainingError):
        return 4
    return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        for path_key in ("points", "weather", "pollution", "calendar", "hubs", "features"):
            v = getattr(args, f"path_{path_key}", None)
            if v:
                cfg = _merge(cfg, {"paths": {path_key: v}})
        COMMANDS[args.command](cfg, args)
        return 0
    except VelotraceError as exc:
        code = _exit_code(exc)
        err = {"error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code}}
        if isinstance(exc, MissingInputError):
            err["error"]["path"] = exc.path
        print(json.dumps(err, sort_keys=True))
        return code


if __name__ == "__main__":
    sys.exit(main())
