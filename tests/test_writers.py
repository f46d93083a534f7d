"""One writer per output format. In `src/velotrace`, `json.dump` and
`json.dumps` are called only in `util.py` (`write_json`) and in `cli.main`
(the summary and error lines), and `csv.writer` only in `util.py`
(`write_csv`); neither module's names are imported one by one or under
another name, which would hide a call from this check."""

import ast
from pathlib import Path

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
