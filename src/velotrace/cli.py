"""Command-line entry point wiring the pipeline end to end.

Each subcommand (synth, ingest, describe, spatial, covariates, features,
train, predict) is one entry of `COMMANDS`: its function and its own flags,
from which `build_parser` builds the parser. A command function takes the
config, the parsed arguments and the output directory and returns the files
it wrote and its summary; `main` does the rest once: it loads the config
(flag values override config-file values, which override `DEFAULTS`), makes
the output directory, runs the command, records each returned file's sha256
in `manifest.json` and prints `{"command": name, **summary}` on one line,
encoded as `write_json` encodes a file. A command writes each report
dataclass as it is (`util.json_default`). Every command is idempotent for
fixed inputs and seed.

`ingest` also saves the trips and the repaired points to `points.npz`
(accuracy and speed are checked, not kept); describe, spatial, covariates and
features reuse it when it was built from the same `points.csv` (by sha256),
else they parse and assemble the points as ingest does. `features` writes
`features.csv` and its sidecar `features.json` (the slot width, the UTC
offset and the feature row of the slot after the last row); `train` and
`predict` read both, and `predict` scores that next slot with `predict_rows`,
the function that scores the test rows. Every instant is int64 microseconds
since the epoch, rendered in every output with `utc_strings`.

Failures print a machine-readable error JSON and exit 2 (missing input), 3
(schema/data error), 4 (training failure), or 1 (anything else). A config
error or a bad `--week-a`/`--week-b` pair exits 1 before any point is drawn or
model fitted; a malformed input file (invalid JSON, a bad CSV header or row, a
model artifact with a missing or malformed field or other feature columns than
the features file) exits 3. `util.json_value` reads each config value as the
type of its default, or of its field in `synth.SynthConfig` or a model's
`Params` (by `util.from_json`). A config error is a key that none of these
names, a value of another type or not finite, an empty `train.models`, or a
value out of range, from the file or a flag: a slot width other than 30 or 60,
an unknown split, a bin width or cell size that is not positive, a `top_k`
under 1, a `utc_offset_min` outside -720 to 840, a `bbox` that is not
`[min_lat, min_lon, max_lat, max_lon]` on the globe with each minimum below
its maximum, a `synth` value that no draw can use, a hyperparameter that no
fit can use. The city that `synth` draws has the run's `seed`,
`utc_offset_min` and `bbox`, so its section may set none of them.

A command loads only the layers it runs. This module imports no layer at
start-up: each function or class it takes from one is named in
`_LAYER_NAMES`, and this module's `__getattr__` (PEP 562) imports it on its
first lookup and keeps it in the module's namespace. Commands and helpers
call every such name as `_cli.<name>`, so a helper works when called
directly, and a function replaced on this module (a wrapper of the benchmark
tracer's `PATCHES`, a test's patch) is the one the commands call.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
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
from .util import (MINUTE_US, MODEL_KINDS, SLOT_WIDTHS, SPLIT_RATIOS, from_json, json_default, json_value,
                   local_datetimes, read_json, sha256_file, sorted_unique, utc_strings, write_csv, write_json)

# the layer names the commands call, by the module that defines them
_LAYER_NAMES = {
    "synth": ("SynthConfig", "generate"),
    "ingest": ("BOUNDARY_MISSING", "TOO_FEW_POINTS", "ZERO_DURATION", "assemble_trips", "load_trips_npz",
               "parse_points", "save_points_npz", "write_rejections_csv", "write_trips_csv"),
    "descriptive": ("histogram", "monthly_change", "temporal_profile", "write_histogram_csv", "write_monthly_csv"),
    "spatial": ("build_density_grid", "hub_spread", "parse_hub_file", "write_density_csv"),
    "covariates": ("daily_correlations", "daily_join", "event_impact", "holiday_impact", "hourly_correlations",
                   "parse_calendar", "parse_pollution", "parse_weather", "pollution_daily_correlations",
                   "week_contrast"),
    "features": ("aggregate_slots", "aligned_span", "build_features", "chronological_split",
                 "feature_target_correlation", "read_features_csv", "sidecar_path", "write_features_csv"),
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

PATH_KEYS = ("points", "weather", "pollution", "calendar", "hubs", "features")

DEFAULTS = {
    "out": "out",
    "seed": 0,
    "utc_offset_min": 120,
    "bbox": [44.45, 11.28, 44.54, 11.40],
    "paths": dict.fromkeys(PATH_KEYS, ""),  # an empty path is not configured
    # bin widths that resolve the demo city's modes (1,200 m, 300 s, 3.8 m/s)
    "describe": {"bin_distance_m": 200.0, "bin_duration_s": 60.0, "bin_speed_mps": 0.2},
    "spatial": {"cell_size_m": 50.0, "dest_cell_size_m": 200.0, "top_k": 10, "per_month": False},
    "features": {"width": 60, "split": "90/10"},
    "train": {"split": "90/10", "models": ["all"], "with_cv": True},
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
    """`DEFAULTS`, overridden by the config file, overridden by the flags,
    checked by `_check_config`."""
    cfg = DEFAULTS
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise MissingInputError(path, f"config file not found: {path}")
        loaded = read_json(path)
        if not isinstance(loaded, dict):
            raise SchemaError(f"config file {path} does not hold a JSON object")
        cfg = _merge(cfg, loaded)
        _check_config(cfg)  # before the flags, which may replace a bad value of the file
    flags = {key: getattr(args, key) for key in ("out", "seed", "utc_offset_min") if getattr(args, key) is not None}
    flags["paths"] = {key: getattr(args, f"path_{key}") for key in PATH_KEYS if getattr(args, f"path_{key}")}
    cfg = _merge(cfg, flags)
    _check_config(cfg)
    return cfg


def _check_type(name: str, value, default) -> None:
    """ParameterError unless `value` reads as its default's type (a list as a list of strings)."""
    json_value(name, value, tuple[str, ...] if type(default) is list else type(default))


# the section values that must be positive: bin widths and cell sizes
_POSITIVE = (("describe", "bin_distance_m"), ("describe", "bin_duration_s"), ("describe", "bin_speed_mps"),
             ("spatial", "cell_size_m"), ("spatial", "dest_cell_size_m"))


def _check_config(cfg: dict) -> None:
    """The config holds only the keys of `DEFAULTS`, `bbox` four finite
    numbers, and each other top-level value the type of its default. A section
    holds only the keys its commands read (`models` a model kind), each of
    the type of its default; `synth` and each model's hyperparameters are read
    where they are used, by `from_json`, and `synth` may not set the run's
    `seed`, `utc_offset_min` or `bbox`. Each value is also in range:
    `utc_offset_min` a UTC offset in use (-720 to 840), `bbox`
    `[min_lat, min_lon, max_lat, max_lon]` with -90 <= min_lat < max_lat <= 90
    and -180 <= min_lon < max_lon <= 180, the `_POSITIVE` values positive,
    `spatial.top_k` at least 1, `features.width` one of `SLOT_WIDTHS`, and a
    split one of `SPLIT_RATIOS`."""
    unknown = sorted(set(cfg) - set(DEFAULTS))
    if unknown:
        raise ParameterError(f"unknown top-level keys {unknown}")
    for key in ("out", "seed", "utc_offset_min", "paths", "synth"):
        _check_type(key, cfg[key], DEFAULTS[key])
    if not -720 <= cfg["utc_offset_min"] <= 840:
        raise ParameterError(f"utc_offset_min must be between -720 and 840, got {cfg['utc_offset_min']!r}")
    bbox = cfg["bbox"]
    if type(bbox) is not list or len(bbox) != 4 or not all(type(v) in (int, float) and math.isfinite(v) for v in bbox):
        raise ParameterError(f"bbox must be a list of four numbers, got {bbox!r}")
    if not (-90 <= bbox[0] < bbox[2] <= 90 and -180 <= bbox[1] < bbox[3] <= 180):
        raise ParameterError("bbox must be [min_lat, min_lon, max_lat, max_lon] with -90 <= min_lat < max_lat"
                             f" <= 90 and -180 <= min_lon < max_lon <= 180, got {bbox!r}")
    known = {name: set(DEFAULTS[name]) for name in ("paths", "describe", "spatial", "features", "train")}
    known["models"] = set(MODEL_KINDS)
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
    unknown = sorted({"seed", "utc_offset_min", "bbox"} & set(cfg["synth"]))  # the city's are the run's own
    if unknown:
        raise ParameterError(f"unknown synth keys {unknown}")
    for name, key in _POSITIVE:
        if not cfg[name][key] > 0:  # NaN too
            raise ParameterError(f"{name}.{key} must be positive, got {cfg[name][key]!r}")
    if cfg["spatial"]["top_k"] < 1:
        raise ParameterError(f"spatial.top_k must be at least 1, got {cfg['spatial']['top_k']!r}")
    if cfg["features"]["width"] not in SLOT_WIDTHS:
        raise ParameterError(f"features.width must be one of {SLOT_WIDTHS}, got {cfg['features']['width']!r}")
    for name in ("features", "train"):
        if cfg[name]["split"] not in SPLIT_RATIOS:
            raise ParameterError(f"{name}.split must be one of {tuple(SPLIT_RATIOS)}, got {cfg[name]['split']!r}")


def _input(cfg: dict, key: str, required: bool = True) -> Path | None:
    """The configured path of an input file, which must exist; None for an
    optional input that no path is configured for."""
    p = cfg["paths"][key]
    if not p:
        if not required:
            return None
        raise MissingInputError(key, f"no {key!r} path configured (set paths.{key} or the flag)")
    path = Path(p)
    if not path.exists():
        raise MissingInputError(path)
    return path


def _features_path(cfg: dict, out: Path) -> Path:
    """The configured features file, else the one `features` writes to `out`."""
    return Path(cfg["paths"]["features"] or out / "features.csv")


def _update_manifest(out: Path, files: list[Path]) -> None:
    manifest_path = out / "manifest.json"
    manifest = read_json(manifest_path) if manifest_path.exists() else {"outputs": {}}
    for p in files:
        manifest["outputs"][str(p.relative_to(out))] = sha256_file(p)
    write_json(manifest_path, manifest)


def _parse_and_assemble(points_path: Path):
    table = _cli.parse_points(points_path)
    trips, rejections = _cli.assemble_trips(table)
    return table, trips, rejections


def _load_trips(cfg: dict, out: Path, *columns: str):
    """The trip table of the configured points file and the named columns of
    its repaired point table, by name: from ingest's `points.npz` when it was
    built from this file, reading no other array, else parsed afresh."""
    points_path = _input(cfg, "points")
    loaded = _cli.load_trips_npz(out / "points.npz", sha256_file(points_path), columns)
    if loaded is not None:
        return loaded
    table, trips, _ = _parse_and_assemble(points_path)
    return trips, {name: getattr(table, name) for name in columns}


# ---------------------------------------------------------------- subcommands

def cmd_synth(cfg: dict, args, out: Path) -> tuple[list[Path], dict]:
    section = {**{key: cfg[key] for key in ("seed", "utc_offset_min", "bbox")}, **_merge(DEMO_SYNTH, cfg["synth"])}
    sc = from_json(_cli.SynthConfig, section, "synth")
    result = _cli.generate(sc, out)
    hub_path = out / "hubs.csv"
    write_csv(hub_path, ["name", "lat", "lon", "radius_m"], ((h.name, h.lat, h.lon, 300.0) for h in sc.hubs))
    files = [Path(p) for p in result["files"].values()] + [hub_path]
    totals = result["truth"]["totals"]
    return files, {"files": sorted(str(p) for p in files), "expected_trips": totals["expected_trips"],
                   "actual_trips": totals["actual_trips"]}


def cmd_ingest(cfg: dict, args, out: Path) -> tuple[list[Path], dict]:
    points_path = _input(cfg, "points")
    table, trips, rejections = _parse_and_assemble(points_path)
    trips_path, rej_path, npz_path = out / "trips.csv", out / "rejections.csv", out / "points.npz"
    _cli.write_trips_csv(trips, trips_path)
    _cli.write_rejections_csv(rejections, rej_path)
    _cli.save_points_npz(npz_path, table, trips, sha256_file(points_path))
    by_reason = dict.fromkeys((_cli.BOUNDARY_MISSING, _cli.TOO_FEW_POINTS, _cli.ZERO_DURATION), 0)
    for r in rejections:
        by_reason[r.reason] += 1
    return [trips_path, rej_path, npz_path], {"points": len(table), "trips": len(trips),
                                              "rejections": len(rejections), "rejections_by_reason": by_reason}


def cmd_describe(cfg: dict, args, out: Path) -> tuple[list[Path], dict]:
    trips, _ = _load_trips(cfg, out)
    d = cfg["describe"]
    hists = {
        "distance": _cli.histogram(trips.distance, d["bin_distance_m"]),
        "duration": _cli.histogram(trips.duration, d["bin_duration_s"]),
        "speed": _cli.histogram(trips.avg_speed, d["bin_speed_mps"]),
    }
    files = [out / f"histogram_{name}.csv" for name in hists]
    for h, p in zip(hists.values(), files):
        _cli.write_histogram_csv(h, p)
    profile = _cli.temporal_profile(trips, cfg["utc_offset_min"])
    profile_path, monthly_path = out / "profile.json", out / "monthly.csv"
    write_json(profile_path, profile)
    _cli.write_monthly_csv(_cli.monthly_change(profile), monthly_path)
    return files + [profile_path, monthly_path], {
        "trips": len(trips), "workingday_share": profile.workingday_share,
        "mode_distance_bin": hists["distance"].mode_bin(), "mode_duration_bin": hists["duration"].mode_bin(),
        "mode_speed_bin": hists["speed"].mode_bin()}


def cmd_spatial(cfg: dict, args, out: Path) -> tuple[list[Path], dict]:
    sp = cfg["spatial"]
    trips, points = _load_trips(cfg, out, "lat", "lon", *(["t"] if sp["per_month"] else []))
    lat, lon = points["lat"], points["lon"]
    offset = cfg["utc_offset_min"]
    bbox = tuple(cfg["bbox"])

    grid = _cli.build_density_grid(lat, lon, bbox, sp["cell_size_m"])
    files = [out / "density.csv"]
    _cli.write_density_csv(grid, files[0])

    periods = [("all", trips)]
    if sp["per_month"]:
        # local calendar month of each point and of each trip's start
        months = local_datetimes(points["t"], offset).astype("datetime64[M]")
        for m in sorted_unique(months[~np.isnan(lat)]):
            month = months == m
            files.append(out / f"density_{m}.csv")
            _cli.write_density_csv(_cli.build_density_grid(lat[month], lon[month], bbox, sp["cell_size_m"]),
                                   files[-1])
        trip_months = local_datetimes(trips.start_us, offset).astype("datetime64[M]")
        periods += [(str(m), trips.take(trip_months == m)) for m in sorted_unique(trip_months)]

    reports = []
    hubs = _input(cfg, "hubs", required=False)
    for hub in _cli.parse_hub_file(hubs) if hubs else ():
        for period, selected in periods:
            reports.append(_cli.hub_spread(selected, (hub.lat, hub.lon), hub.radius_m, sp["dest_cell_size_m"],
                                           sp["top_k"], period=period, hub_name=hub.name))
    files.append(out / "hubs.json")
    write_json(files[-1], reports)
    return files, {"points_binned": int(grid.counts.sum()), "ignored": grid.ignored, "hub_reports": len(reports)}


def _week_start(flag: str, text: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise ParameterError(f"{flag} must be a date YYYY-MM-DD, got {text!r}") from None


def cmd_covariates(cfg: dict, args, out: Path) -> tuple[list[Path], dict]:
    weeks = None
    if args.week_a or args.week_b:
        if not (args.week_a and args.week_b):
            raise ParameterError("--week-a and --week-b must be given together")
        weeks = _week_start("--week-a", args.week_a), _week_start("--week-b", args.week_b)
    trips, _ = _load_trips(cfg, out)
    offset = cfg["utc_offset_min"]
    weather = _cli.parse_weather(_input(cfg, "weather"))
    calendar = _cli.parse_calendar(_input(cfg, "calendar"))
    rows = _cli.daily_join(trips, weather, offset)

    correlations = _cli.daily_correlations(rows) + _cli.hourly_correlations(trips, weather)
    pollution_path = _input(cfg, "pollution", required=False)
    if pollution_path:
        pollution = _cli.parse_pollution(pollution_path)
        correlations += _cli.pollution_daily_correlations(rows, pollution, offset)
    files = [out / "correlations.json", out / "holidays.json", out / "events.json"]
    write_json(files[0], correlations)
    holidays, events = _cli.holiday_impact(rows, calendar), _cli.event_impact(rows, calendar)
    for path, (impacts, skipped) in zip(files[1:], (holidays, events)):
        write_json(path, {"impacts": impacts, "skipped": skipped})

    if weeks:
        files.append(out / "week_contrast.json")
        write_json(files[-1], _cli.week_contrast(rows, *weeks, weather=weather, utc_offset_min=offset))
    return files, {"daily_rows": len(rows), "complete_days": sum(r.complete for r in rows),
                   "holiday_impacts": len(holidays[0]), "event_impacts": len(events[0])}


def cmd_features(cfg: dict, args, out: Path) -> tuple[list[Path], dict]:
    trips, _ = _load_trips(cfg, out)
    fc = cfg["features"]
    width = args.width or fc["width"]
    split = args.split or fc["split"]
    weather = _cli.parse_weather(_input(cfg, "weather"))
    calendar = _cli.parse_calendar(_input(cfg, "calendar"))
    slots, out_of_span = _cli.aggregate_slots(trips, width, _cli.aligned_span(trips, width))
    offset = cfg["utc_offset_min"]
    matrix, dropped = _cli.build_features(slots, weather, calendar, offset)
    plan = _cli.chronological_split(matrix, split)
    features_path, plan_path, corr_path = out / "features.csv", out / "splitplan.json", out / "feature_correlations.json"
    _cli.write_features_csv(matrix, features_path, utc_offset_min=offset)
    write_json(plan_path, plan)
    write_json(corr_path, _cli.feature_target_correlation(matrix))
    return [features_path, _cli.sidecar_path(features_path), plan_path, corr_path], {
        "rows": matrix.n_rows, "columns": len(matrix.column_names), "width": width, "split": split,
        "dropped_rows": len(dropped), "out_of_span_trips": out_of_span}


def _model_specs(cfg: dict, requested: list[str]) -> list[ModelSpec]:
    if not requested:
        raise ParameterError("train.models lists no model kind")
    kinds = list(MODEL_KINDS) if "all" in requested else requested
    return [_cli.ModelSpec(k, cfg["models"].get(k, {}), seed=cfg["seed"]) for k in kinds]


def cmd_train(cfg: dict, args, out: Path) -> tuple[list[Path], dict]:
    tc = cfg["train"]
    specs = _model_specs(cfg, [args.model] if args.model else list(tc["models"]))
    features_path = _features_path(cfg, out)
    matrix = _cli.read_features_csv(features_path)
    split = args.split or tc["split"]
    plan = _cli.chronological_split(matrix, split)
    report, fitted = _cli.evaluate(matrix, plan, specs, with_cv=tc["with_cv"])

    files = [out / "eval_report.json"]
    doc = {**json_default(report), "features_sha256": sha256_file(features_path)}
    old = read_json(files[0]) if files[0].exists() else {}
    # another kind's entry stays when it scored the same features file at the same ratio and width
    if isinstance(old, dict) and all(old.get(k) == doc[k] for k in ("ratio", "width_minutes", "features_sha256")):
        doc["models"] = {**old["models"], **doc["models"]}
    write_json(files[0], doc)
    for kind, score in fitted.items():
        artifact_path, pred_path = out / f"model_{kind}.json", out / f"predictions_{kind}.csv"
        write_json(artifact_path, _cli.model_artifact(score.model, matrix.column_names))
        write_csv(pred_path, ["slot_start", "actual", "predicted"], zip(
            utc_strings(matrix.slot_us[score.targets]), matrix.y[score.targets].tolist(), map(float, score.predictions)))
        files += [artifact_path, pred_path]
    test = {k: fitted[k].metrics for k in sorted(fitted)}
    best = min(fitted, key=lambda k: test[k].mae, default=None)  # the first of equal scores
    return files, {"split": split, "width": matrix.width_minutes, "models": sorted(fitted),
                   "best_model": best, "test_metrics": test}


def cmd_predict(cfg: dict, args, out: Path) -> tuple[list[Path], dict]:
    artifact_path = Path(args.artifact or (out / "model_lstm.json"))
    if not artifact_path.exists():
        raise MissingInputError(artifact_path)
    matrix = _cli.read_features_csv(_features_path(cfg, out))
    tm = _cli.load_artifact(read_json(artifact_path), matrix.column_names)
    prediction = _next_slot_prediction(tm, matrix)
    out_path = out / "prediction.json"
    write_json(out_path, prediction)
    return [out_path], prediction


def _next_slot_prediction(tm, matrix) -> dict:
    """Predict the count of the slot after the last row of the features file:
    `predict_rows` on row `n_rows`, scored as the test rows are."""
    width = matrix.width_minutes
    next_start = matrix.slot_us[-1] + width * MINUTE_US
    value = float(_cli.predict_rows(tm, matrix, [matrix.n_rows])[0])
    return {"slot_start": utc_strings([next_start])[0], "width_minutes": width,
            "model": tm.spec.kind, "predicted": value}


_SPLIT = {"choices": tuple(SPLIT_RATIOS)}

# each command's function and its own flags, by name
COMMANDS = {
    "synth": (cmd_synth, {}),
    "ingest": (cmd_ingest, {}),
    "describe": (cmd_describe, {}),
    "spatial": (cmd_spatial, {}),
    "covariates": (cmd_covariates, {"--week-a": {"help": "Monday date (YYYY-MM-DD) of the contrast week A"},
                                    "--week-b": {"help": "Monday date of the contrast week B"}}),
    "features": (cmd_features, {"--width": {"type": int, "choices": SLOT_WIDTHS}, "--split": _SPLIT}),
    "train": (cmd_train, {"--split": _SPLIT, "--model": {"choices": MODEL_KINDS + ("all",)}}),
    "predict": (cmd_predict, {"--artifact": {"help": "trained model artifact JSON"}}),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out", help="output directory")
    common.add_argument("--seed", type=int, help="random seed")
    common.add_argument("--utc-offset-min", type=int, help="local time = UTC + this many minutes")
    for key in PATH_KEYS:
        common.add_argument(f"--{key}", dest=f"path_{key}", help=f"path to {key} file")

    parser = argparse.ArgumentParser(prog="velotrace",
                                     description="cycling trip analytics and demand forecasting")
    parser.add_argument("--version", action="version", version=f"velotrace {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common])
        for flag, spec in flags.items():
            p.add_argument(flag, **spec)
    return parser


# the exit code of a failure, by the first error class that matches; any other exits 1
_EXIT_CODES = ((MissingInputError, 2), (DataError, 3), (TrainingError, 4))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        out = Path(cfg["out"])
        out.mkdir(parents=True, exist_ok=True)
        run, _ = COMMANDS[args.command]
        files, summary = run(cfg, args, out)
        _update_manifest(out, files)
        print(json.dumps({"command": args.command, **summary}, sort_keys=True, default=json_default))
        return 0
    except VelotraceError as exc:
        code = next((c for cls, c in _EXIT_CODES if isinstance(exc, cls)), 1)
        err = {"error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code}}
        if isinstance(exc, MissingInputError):
            err["error"]["path"] = exc.path
        print(json.dumps(err, sort_keys=True))
        return code


if __name__ == "__main__":
    sys.exit(main())
