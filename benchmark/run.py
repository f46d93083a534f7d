"""Benchmark of the velotrace CLI chain on seeded synthetic cities.

    python3 benchmark/run.py --workload demo_city --seed 1 --seconds 50 --trace 0

Run from a checkout of the repository; the program is imported from `src/`.
The set-up generates the workload's city with `velotrace synth` from `--seed`,
three times. The timed chain of CLI commands then runs again and again for
`--seconds`, at least twice. Every command is its own process, started one
at a time from this process; its CPU time and peak RSS come from that
child's rusage. Each output is checked, and every check is one operation in
`attempted`/`failed`.

With `--trace 0` the result holds the end-to-end metrics: medians over the
set-ups and chains. With `--trace 1` the set-up and the chain run once plain
and once under `trace_stage.py`, and the result holds the per-layer metrics
from the spans. The last line of standard output is the result JSON; the
line before it records the environment and the time of every command.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

from trace_stage import SPAN_NAMES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = BENCH_DIR / "trace_stage.py"

SETUP_REPEATS = 3
MIN_CHAIN_RUNS = 2  # the rerun-determinism check needs two
COMMAND_TIMEOUT_S = 120
STAGES = ("ingest", "describe", "spatial", "covariates", "features", "train", "predict")
LAYERS = sorted({name.split(".")[0] for name in SPAN_NAMES})

# A 40% test share gives the test MAE enough rows to vary little between seeds.
SPLIT = "60/40"
# Fewer trees, rounds and epochs than the CLI defaults, so that a run holds
# several chains; the work per tree, per round and per batch is unchanged.
MODEL_CONFIG = {"forest": {"n_trees": 20}, "boost": {"n_rounds": 30}, "lstm": {"epochs": 20}}


@dataclass(frozen=True)
class Workload:
    synth: dict                   # overrides of the CLI's demo synth config
    width: int                    # slot width in minutes
    analyses: tuple[str, ...]     # commands between ingest and features
    models: tuple[str, ...]       # one `train --model` per entry, without CV
    predict: tuple[str, ...]      # one `predict --artifact` per entry


DEMO_CITY = {"start_date": "2017-05-01", "end_date": "2017-05-22", "base_trips_per_day": 60}
LONG_CITY = {"start_date": "2017-03-27", "end_date": "2017-06-05", "base_trips_per_day": 6}

WORKLOADS = {
    # Dense and short: many points per slot row. Five commands parse
    # points.csv again, so ingest, descriptive, spatial, covariates and the
    # LSTM do most of the work; no tree is fitted.
    "demo_city": Workload(DEMO_CITY, 60, ("describe", "spatial", "covariates"),
                          ("linear", "lstm"), ("linear", "lstm")),
    # Sparse and long: few points, many 30-minute slot rows. Tree fitting at
    # large n, build_features and read_features_csv dominate; no LSTM.
    "long_city": Workload(LONG_CITY, 30, (), ("linear", "forest", "boost"), ("forest", "boost")),
}


# ------------------------------------------------------------------ processes

@dataclass
class Outcome:
    code: int
    wall_s: float
    cpu_s: float          # user + system time of the child
    peak_rss_mb: float
    summary: dict | None  # the command's JSON summary line


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("VELOTRACE_THREADS", None)  # the forest stays single-threaded
    env["OPENBLAS_NUM_THREADS"] = "1"   # and so does NumPy's BLAS
    return env


def run_command(argv: list[str], log: Path, spans: Path | None = None) -> Outcome:
    """Run one CLI command to completion; times and peak RSS from outside."""
    if spans is None:
        cmd = [sys.executable, "-m", "velotrace.cli", *argv]
    else:
        cmd = [sys.executable, str(TRACER), str(spans), *argv]
    with open(log, "w", encoding="utf-8") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    summary = None
    lines = log.read_text(encoding="utf-8").strip().splitlines()
    if lines:
        try:
            summary = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return Outcome(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, summary)


# ---------------------------------------------------------------------- checks

class Checks:
    """Every output check is one operation; failures are kept for the report."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def manifest_outputs(outdir: Path) -> dict:
    path = outdir / "manifest.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))["outputs"]


def check_command(checks: Checks, what: str, outcome: Outcome, outdir: Path) -> bool:
    ok = checks.check(outcome.code == 0 and outcome.summary is not None, f"{what}: exit code {outcome.code}")
    outputs = manifest_outputs(outdir)
    intact = bool(outputs) and all((outdir / rel).is_file() and sha256(outdir / rel) == digest
                                   for rel, digest in outputs.items())
    return checks.check(intact, f"{what}: a file named in manifest.json is missing or differs") and ok


def parse_utc(text: str) -> datetime:
    return datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)


def csv_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.reader(f))[1:]


def check_ingest(checks: Checks, summary: dict, truth: dict, outdir: Path) -> None:
    dropped = {row[0] for row in csv_rows(outdir / "rejections.csv")
               if row[1] in ("too-few-points", "zero-duration")}
    totals = truth["totals"]
    checks.check(summary["points"] == totals["points"]
                 and summary["trips"] + len(dropped) == totals["actual_trips"],
                 f"ingest: {summary['points']} points, {summary['trips']} trips + {len(dropped)} rejected "
                 f"vs truth {totals['points']} points, {totals['actual_trips']} trips")


def check_features(checks: Checks, summary: dict, width: int, outdir: Path) -> None:
    starts = [parse_utc(row[1]) for row in csv_rows(outdir / "trips.csv")]
    step = timedelta(minutes=width)
    lo = min(starts).replace(minute=min(starts).minute // width * width, second=0)
    hi = max(starts).replace(minute=max(starts).minute // width * width, second=0) + step
    expected = (hi - lo) // step - 7 * 24 * 60 // width - summary["dropped_rows"]
    checks.check(summary["rows"] == expected, f"features: {summary['rows']} rows, expected {expected}")


def check_train(checks: Checks, kind: str, summary: dict, outdir: Path) -> float | None:
    """The reported test MAE, when finite and equal to the one the predictions give."""
    mae = summary["test_metrics"][kind]["mae"]
    test = json.loads((outdir / "splitplan.json").read_text(encoding="utf-8"))["test_rows"]
    rows = csv_rows(outdir / f"predictions_{kind}.csv")
    targets = [float(r[-2]) for r in csv_rows(outdir / "features.csv")[test[0]:test[1]]]
    if not checks.check(len(rows) == len(targets),
                        f"train {kind}: {len(rows)} predictions for {len(targets)} test rows"):
        return None
    recomputed = sum(abs(float(r[2]) - y) for r, y in zip(rows, targets)) / max(1, len(rows))
    ok = checks.check(mae is not None and math.isfinite(mae) and math.isclose(mae, recomputed, rel_tol=1e-9),
                      f"train {kind}: test MAE {mae} vs {recomputed} from the predictions")
    return mae if ok else None


def check_predict(checks: Checks, kind: str, summary: dict, width: int, outdir: Path) -> None:
    last = csv_rows(outdir / "features.csv")[-1][-1]
    expected = parse_utc(last) + timedelta(minutes=width)
    value = summary.get("predicted")
    checks.check(summary.get("slot_start") == expected.strftime("%Y-%m-%dT%H:%M:%SZ")
                 and isinstance(value, float) and math.isfinite(value),
                 f"predict {kind}: {summary.get('slot_start')} -> {value}, expected slot {expected}")


# ----------------------------------------------------------------------- runs

class Bench:
    """One workload on one seed: its directories, commands and checks."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.workdir = workdir
        self.checks = Checks()
        self.config = workdir / "config.json"
        self.config.write_text(json.dumps({
            "seed": seed,
            "synth": self.workload.synth,
            "train": {"with_cv": False},
            "models": MODEL_CONFIG,
        }), encoding="utf-8")
        self.truth: dict | None = None
        self.mae: dict[str, float | None] = {}

    @property
    def inputs(self) -> Path:
        """The first set-up's directory, which every chain reads."""
        return self.workdir / "setup0"

    def chain_steps(self, outdir: Path) -> list[tuple[str, str, list[str]]]:
        """(stage, model or "", argv) of one chain, from points to predictions."""
        w = self.workload
        steps = [("ingest", "", ["ingest"])] + [(a, "", [a]) for a in w.analyses]
        steps.append(("features", "", ["features", "--width", str(w.width), "--split", SPLIT]))
        steps += [("train", kind, ["train", "--model", kind, "--split", SPLIT]) for kind in w.models]
        steps += [("predict", kind, ["predict", "--artifact", str(outdir / f"model_{kind}.json")])
                  for kind in w.predict]
        return steps

    def run(self, tag: str, steps, traced: bool, inputs: Path) -> list[tuple[str, Outcome]]:
        """Run steps into their own directory `tag`, checking each output;
        `inputs` holds the city's CSV files."""
        outdir = self.workdir / tag
        common = ["--config", str(self.config), "--out", str(outdir)]
        for key in ("points", "weather", "calendar", "hubs"):
            common += [f"--{key}", str(inputs / f"{key}.csv")]
        done = []
        for i, (stage, kind, argv) in enumerate(steps):
            argv = argv + common
            spans = self.workdir / f"{tag}.{i}.spans.json" if traced else None
            outcome = run_command(argv, self.workdir / f"{tag}.{i}.log", spans)
            done.append((stage, outcome))
            what = " ".join(filter(None, (stage, kind, f"({tag})")))
            if not check_command(self.checks, what, outcome, outdir):
                continue
            if stage == "synth" and self.truth is None:
                self.truth = json.loads((outdir / "truth.json").read_text(encoding="utf-8"))
            elif stage == "ingest":
                check_ingest(self.checks, outcome.summary, self.truth, outdir)
            elif stage == "features":
                check_features(self.checks, outcome.summary, self.workload.width, outdir)
            elif stage == "train":
                mae = check_train(self.checks, kind, outcome.summary, outdir)
                self.mae.setdefault(kind, mae)
            elif stage == "predict":
                check_predict(self.checks, kind, outcome.summary, self.workload.width, outdir)
        first = self.workdir / re.sub(r"\d+$", "0", tag)
        if first.name != tag:
            self.checks.check(manifest_outputs(outdir) == manifest_outputs(first),
                              f"{tag}: a rerun of seed {self.seed} gave other output hashes")
        return done

    def setup(self, tag: str, traced: bool = False) -> list[tuple[str, Outcome]]:
        return self.run(tag, [("synth", "", ["synth"])], traced, self.workdir / tag)

    def chain(self, tag: str, traced: bool = False) -> list[tuple[str, Outcome]]:
        return self.run(tag, self.chain_steps(self.workdir / tag), traced, self.inputs)

    def traces(self) -> list[dict]:
        return [json.loads(p.read_text(encoding="utf-8")) for p in sorted(self.workdir.glob("*.spans.json"))]


def cpu_s(done, stage: str | None = None) -> float:
    return sum(o.cpu_s for s, o in done if stage in (None, s))


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    setups = [bench.setup(f"setup{k}") for k in range(SETUP_REPEATS)]
    chains = []
    start = time.perf_counter()
    while len(chains) < MIN_CHAIN_RUNS or (
            time.perf_counter() - start + sum(o.wall_s for _, o in chains[-1]) <= seconds):
        chains.append(bench.chain(f"chain{len(chains)}"))
    metrics = {
        "setup_s": statistics.median(cpu_s(done) for done in setups),
        "train_s": statistics.median(cpu_s(done, "train") for done in chains),
        "predict_s": statistics.median(cpu_s(done, "predict") for done in chains),
        "pipeline_s": statistics.median(cpu_s(done) for done in chains),
        "peak_rss_mb": statistics.median(max(o.peak_rss_mb for _, o in done) for done in chains),
    }
    if bench.mae and None not in bench.mae.values():
        metrics["test_mae"] = statistics.fmean(bench.mae.values())
    detail = {"test_mae": bench.mae,
              "setups": [[(s, o.cpu_s, o.wall_s) for s, o in done] for done in setups],
              "chains": [[(s, o.cpu_s, o.wall_s, o.peak_rss_mb) for s, o in done] for done in chains]}
    return metrics, detail


def per_layer(bench: Bench) -> tuple[dict, dict]:
    plain = bench.setup("setup0") + bench.chain("chain0")
    traced = bench.setup("setup1", traced=True) + bench.chain("chain1", traced=True)

    metrics = layer_metrics(bench.traces())
    for stage in ("synth",) + STAGES:
        metrics[f"command.{stage}.s"] = cpu_s(plain, stage)
        metrics[f"trace.overhead.{stage}.s"] = cpu_s(traced, stage) - cpu_s(plain, stage)
    metrics["trace.overhead.s"] = cpu_s(traced) - cpu_s(plain)
    for kind in ("linear", "forest", "boost", "lstm"):
        metrics[f"{kind}.test_mae"] = bench.mae.get(kind) or 0.0
    return metrics, {"plain": [(s, o.cpu_s, o.wall_s) for s, o in plain],
                     "traced": [(s, o.cpu_s, o.wall_s) for s, o in traced]}


def layer_metrics(traces: list[dict]) -> dict:
    """Per span name: calls and seconds. Per layer: calls, total and self time.

    A layer's total counts a span only when no enclosing span is of the same
    layer; its self time is each span's duration minus its direct children's.
    """
    calls = dict.fromkeys(SPAN_NAMES, 0)
    seconds = dict.fromkeys(SPAN_NAMES, 0.0)
    layer = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in LAYERS}
    counts = defaultdict(int)
    imports = []
    for trace in traces:
        spans = trace["spans"]
        children = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            own = name.split(".")[0]
            calls[name] += 1
            seconds[name] += end - start
            layer[own]["calls"] += 1
            layer[own]["self_s"] += end - start - children[i]
            p = parent
            while p >= 0 and spans[p][0].split(".")[0] != own:
                p = spans[p][3]
            if p < 0:
                layer[own]["s"] += end - start
        for key, n in trace["counts"].items():
            counts[key] += n
        imports.append(trace["import_s"])

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.s"] = seconds[name]
        metrics[f"{name}.ms_per_call"] = 1000.0 * seconds[name] / calls[name] if calls[name] else 0.0
    for name, agg in layer.items():
        for key, value in agg.items():
            metrics[f"{name}.{key}"] = value
    for key in ("synth.points", "ingest.points", "ingest.trips", "ingest.rejections", "spatial.points_binned",
                "features.rows", "features.dropped_rows", "tree.nodes", "lstm.windows", "lstm.epochs"):
        metrics[key] = counts[key]
    metrics["ingest.trip_yield"] = counts["ingest.trips"] / counts["ingest.activities"] if counts["ingest.activities"] else 0.0
    metrics["cli.import.s"] = statistics.median(imports) if imports else 0.0
    return metrics


# ------------------------------------------------------------------- results

def environment(seed: int) -> dict:
    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": commit,
        "seed": seed,
        "VELOTRACE_THREADS": "unset for every command, so the forest fits single-threaded",
        "OPENBLAS_NUM_THREADS": "1 for every command",
        "scheduling": "one command at a time, each a child process of this single driver process",
    }


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds, so the running child is killed and the work removed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "velotrace" / "cli.py").is_file():
        print(f"no velotrace sources under {SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _terminate)
    declared = declared_metrics(bool(args.trace))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        # precompile once, so that no measured command pays for writing bytecode
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], check=True,
                       stdout=subprocess.DEVNULL, timeout=COMMAND_TIMEOUT_S)
        bench = Bench(args.workload, args.seed, workdir)
        if args.trace:
            values, detail = per_layer(bench)
        else:
            values, detail = end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    missing = [m["name"] for m in declared if m["name"] not in values]
    for name in missing:
        bench.checks.check(False, f"metric {name} was not measured")
    print(json.dumps({"workload": args.workload, "environment": environment(args.seed), **detail}))
    failed = len(bench.checks.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.checks.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in values},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
