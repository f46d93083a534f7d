"""The benchmark's tracer wraps the functions named in its PATCHES table
where their callers look them up. A refactor that moves one of those names
would leave `benchmark/run.py --trace 1` without the span; this test fails
instead. The tracer is run from its source, so nothing is written under
`benchmark/`."""

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "benchmark" / "trace_stage.py"
PATCHES = runpy.run_path(str(TRACER))["PATCHES"]


@pytest.mark.parametrize("module_name, class_name, attr, span", PATCHES, ids=[p[3] for p in PATCHES])
def test_patch_entry_resolves_as_install_looks_it_up(module_name, class_name, attr, span):
    owner = importlib.import_module(module_name)
    if class_name is None:
        assert callable(getattr(owner, attr, None)), f"{module_name} has no function {attr}"
    else:
        cls = getattr(owner, class_name)
        assert attr in cls.__dict__, f"{class_name}.{attr} is not defined on the class itself"
