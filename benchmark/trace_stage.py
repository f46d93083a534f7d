"""Run one velotrace CLI command with a span around every call into a layer.

    python3 benchmark/trace_stage.py SPANS_JSON CLI_ARG...

The process imports `velotrace.cli`, timing the import, then replaces each
public function named in PATCHES where its callers look it up: the namespace
of the module that imported it by name, or the class for a method. Each
wrapper records a span (name, start, end, parent index), timed by the
process's CPU clock like the end-to-end metrics, and, for a few
functions, counts taken from the return value. It then calls
`velotrace.cli.main(argv)` inside a `cli.main` span. Spans and counts stay in
memory and are written to SPANS_JSON when the command returns. The exit code
is the command's.

The layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import process_time

# (module where callers look the name up, class or None, attribute, span name)
PATCHES = (
    ("velotrace.cli", None, "generate", "synth.generate"),
    ("velotrace.cli", None, "parse_points", "ingest.parse_points"),
    ("velotrace.cli", None, "assemble_trips", "ingest.assemble_trips"),
    ("velotrace.cli", None, "write_trips_csv", "ingest.write_trips_csv"),
    ("velotrace.cli", None, "histogram", "descriptive.histogram"),
    ("velotrace.cli", None, "temporal_profile", "descriptive.temporal_profile"),
    ("velotrace.cli", None, "build_density_grid", "spatial.build_density_grid"),
    ("velotrace.cli", None, "hub_spread", "spatial.hub_spread"),
    ("velotrace.cli", None, "parse_weather", "covariates.parse_weather"),
    ("velotrace.cli", None, "parse_calendar", "covariates.parse_calendar"),
    ("velotrace.cli", None, "daily_join", "covariates.daily_join"),
    ("velotrace.cli", None, "hourly_correlations", "covariates.hourly_correlations"),
    ("velotrace.cli", None, "holiday_impact", "covariates.holiday_impact"),
    ("velotrace.cli", None, "aggregate_slots", "features.aggregate_slots"),
    ("velotrace.cli", None, "build_features", "features.build_features"),
    ("velotrace.cli", None, "feature_target_correlation", "features.feature_target_correlation"),
    ("velotrace.cli", None, "write_features_csv", "features.write_features_csv"),
    ("velotrace.cli", None, "read_features_csv", "features.read_features_csv"),
    ("velotrace.cli", None, "evaluate", "evaluate.evaluate"),
    ("velotrace.cli", None, "model_artifact", "serialize.model_artifact"),
    ("velotrace.cli", None, "load_artifact", "serialize.load_artifact"),
    ("velotrace.cli", None, "write_json", "util.write_json"),
    ("velotrace.cli", None, "sha256_file", "util.sha256_file"),
    ("velotrace.synth", None, "write_json", "util.write_json"),
    ("velotrace.models.evaluate", None, "train_model", "evaluate.train_model"),
    ("velotrace.models.evaluate", None, "predict_rows", "evaluate.predict_rows"),
    ("velotrace.models.evaluate", None, "build_windows", "lstm.build_windows"),
    ("velotrace.models.linear", "LinearModel", "fit", "linear.fit"),
    ("velotrace.models.tree", "RegressionTree", "fit", "tree.fit"),
    ("velotrace.models.tree", "RegressionTree", "predict", "tree.predict"),
    ("velotrace.models.forest", "RandomForest", "fit", "forest.fit"),
    ("velotrace.models.forest", "RandomForest", "predict", "forest.predict"),
    ("velotrace.models.boosting", "GradientBoosting", "fit", "boost.fit"),
    ("velotrace.models.boosting", "GradientBoosting", "predict", "boost.predict"),
    ("velotrace.models.lstm", "LstmRegressor", "fit", "lstm.fit"),
    ("velotrace.models.lstm", "LstmRegressor", "loss_and_grads", "lstm.loss_and_grads"),
    ("velotrace.models.lstm", "LstmRegressor", "predict", "lstm.predict"),
)

ROOT_SPAN = "cli.main"
SPAN_NAMES = tuple(sorted({span for *_, span in PATCHES} | {ROOT_SPAN}))


class Recorder:
    """Spans and counts of one process, kept in memory until it exits."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, process_time(), None, self._open[-1] if self._open else -1])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = process_time()
                self._open.pop()
            if count is not None:
                count(self, result)
            return result
        return traced


def _counters() -> dict:
    """Counts taken from return values, outside the span they belong to."""
    from velotrace.ingest import TOO_FEW_POINTS, ZERO_DURATION

    def assembled(rec, result):
        trips, rejections = result
        dropped = {r.activity_id for r in rejections if r.reason in (TOO_FEW_POINTS, ZERO_DURATION)}
        rec.add("ingest.trips", len(trips))
        rec.add("ingest.rejections", len(rejections))
        rec.add("ingest.activities", len(trips) + len(dropped))

    def built(rec, result):
        matrix, dropped = result
        rec.add("features.rows", matrix.n_rows)
        rec.add("features.dropped_rows", len(dropped))

    return {
        "synth.generate": lambda rec, r: rec.add("synth.points", r["truth"]["totals"]["points"]),
        "ingest.parse_points": lambda rec, r: rec.add("ingest.points", len(r)),
        "ingest.assemble_trips": assembled,
        "spatial.build_density_grid": lambda rec, r: rec.add("spatial.points_binned", r.counts.sum()),
        "features.build_features": built,
        "tree.fit": lambda rec, r: rec.add("tree.nodes", len(r.feature)),
        "lstm.build_windows": lambda rec, r: rec.add("lstm.windows", len(r[0])),
        "lstm.fit": lambda rec, r: rec.add("lstm.epochs", r.epochs_run),
    }


def install(rec: Recorder) -> None:
    counters = _counters()
    for module_name, class_name, attr, span in PATCHES:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
            raw = owner.__dict__[attr]
        else:
            raw = getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(rec.wrap(span, raw.__func__, counters.get(span))))
        else:
            setattr(owner, attr, rec.wrap(span, raw, counters.get(span)))


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    start = process_time()
    import velotrace.cli
    import_s = process_time() - start

    rec = Recorder()
    install(rec)
    try:
        return rec.wrap(ROOT_SPAN, velotrace.cli.main)(cli_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump({"import_s": import_s, "spans": rec.spans, "counts": rec.counts}, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
