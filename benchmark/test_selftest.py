"""Self-test of the benchmark on a tiny city.

    python3 -m pytest benchmark/test_selftest.py -q

Each workload runs its chain plain and traced on a 16-day, 8-trips-a-day
city and must pass every output check and emit every metric BENCHMARK.json
declares, with its unit. Tier-1 does not collect this file: pytest's
testpaths name `tests/` only.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

# 16 days: tabular `predict` needs a row 7 days before the slot after the last row
TINY_CITY = {"start_date": "2017-05-01", "end_date": "2017-05-17", "base_trips_per_day": 8}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_declared_metric_is_emitted(workload, trace, monkeypatch, capsys):
    tiny = dataclasses.replace(run.WORKLOADS[workload], synth=TINY_CITY)
    monkeypatch.setitem(run.WORKLOADS, workload, tiny)

    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)])

    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = run.declared_metrics(bool(trace))
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))

    proc = subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "demo_city",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)

    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
