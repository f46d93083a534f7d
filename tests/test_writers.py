"""One writer per output format, one CSV opener and one config reader. In
`src/velotrace`, `json.dump` and `json.dumps` are called only in `util.py`
(`write_json`) and in `cli.main` (the summary and error lines), `csv.writer`
only in `util.py` (`write_csv`), and `csv.reader` only in `util.csv_records`
and the two readers of `features.csv`, whose header names its own columns;
neither module's names are imported one by one or under another name, which
would hide a call from this check. Type hints are read, and a table of JSON
types is defined, only in `util.py` (`json_value`), and what `json_default`
writes of a config `from_json` reads back equal."""

import ast
import json
from dataclasses import asdict
from datetime import date
from pathlib import Path

import pytest

from velotrace.cli import DEMO_SYNTH
from velotrace.models.evaluate import MODELS, ModelSpec
from velotrace.synth import Hub, RainEvent, SynthConfig
from velotrace.util import from_json, json_default

SRC = Path(__file__).resolve().parents[1] / "src" / "velotrace"


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).with_suffix("").as_posix().replace("/", "."), ast.parse(
            path.read_text(encoding="utf-8"))


def _call_sites(module: str, *attrs: str) -> set[str]:
    """`<module>.<top-level name>` of each statement that calls `module.<attr>`
    for one of the attrs; a call outside any top-level function or class
    counts as its module's."""
    sites = set()
    for name, tree in _modules():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                func = node.func if isinstance(node, ast.Call) else None
                if (isinstance(func, ast.Attribute) and func.attr in attrs
                        and isinstance(func.value, ast.Name) and func.value.id == module):
                    sites.add(f"{name}.{stmt.name}" if hasattr(stmt, "name") else name)
    return sites


def test_json_is_encoded_only_in_util_and_cli_main():
    sites = _call_sites("json", "dump", "dumps")
    assert sites and all(s.startswith("util.") or s == "cli.main" for s in sites), sites


def test_csv_is_written_only_in_util():
    sites = _call_sites("csv", "writer", "DictWriter")
    assert sites and all(s.startswith("util.") for s in sites), sites


def test_csv_is_read_only_in_csv_records_and_the_features_readers():
    sites = _call_sites("csv", "reader", "DictReader")
    assert sites == {"util.csv_records", "features._load_columns", "features._parse_rows"}, sites


def test_json_and_csv_are_imported_only_as_modules():
    found = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("json", "csv"):
                found.append(f"{name}: from {node.module} import ...")
            elif isinstance(node, ast.Import):
                found += [f"{name}: import {a.name} as {a.asname}" for a in node.names
                          if a.name in ("json", "csv") and a.asname]
    assert found == []


def test_type_hints_are_read_only_in_util():
    found = {name for name, tree in _modules() for node in ast.walk(tree)
             if "get_type_hints" in (getattr(node, "id", None), getattr(node, "attr", None))}
    assert found == {"util"}


def test_a_table_of_json_types_is_defined_only_in_util():
    plain = {"bool", "int", "float", "str"}
    found = {name for name, tree in _modules() for node in ast.walk(tree)
             if isinstance(node, ast.Dict) and len(plain & {getattr(k, "id", None) for k in node.keys}) >= 2}
    assert found == {"util"}


def _round_trip(obj):
    """The JSON value of `obj` as `write_json` renders it."""
    return json.loads(json.dumps(obj, default=json_default))


@pytest.mark.parametrize("section", [{}, DEMO_SYNTH], ids=["defaults", "demo"])
def test_synth_config_reads_back_as_written(section):
    cfg = from_json(SynthConfig, {"seed": 3, "start_date": "2017-05-01", "end_date": "2017-05-08",
                                  "utc_offset_min": 120, **section}, "synth")
    assert isinstance(cfg.start_date, date) and all(isinstance(h, Hub) for h in cfg.hubs)
    assert all(isinstance(e, RainEvent) for e in cfg.rain_events) and len(cfg.rain_events) == (2 if section else 0)
    assert from_json(SynthConfig, _round_trip(cfg), "synth") == cfg


@pytest.mark.parametrize("kind", [kind for kind, cls in MODELS.items() if cls.Params])
def test_model_params_read_back_as_written(kind):
    """As an artifact's `hyperparams` are written and loaded."""
    params = MODELS[kind].Params()
    assert ModelSpec(kind, _round_trip(asdict(params))).params == params
